//! # gkfs-client — the GekkoFS client library
//!
//! Paper §III-B-a: *"The client consists of three components: 1) An
//! interception interface that catches relevant calls to GekkoFS and
//! forwards unrelated calls to the node-local file system; 2) a file
//! map that manages the file descriptors of open files and directories,
//! independently of the kernel; and 3) an RPC-based communication layer
//! that forwards file system requests to local/remote GekkoFS
//! daemons."*
//!
//! This crate is components (2) and (3) plus all routing logic:
//!
//! * [`filemap`] — the kernel-independent descriptor table, and beside
//!   it one [`filemap::LocalFile`] per open path: the only place that
//!   says what this client believes about a file (its size, the
//!   write-size window the paper adds in §IV-B to fix shared-file write
//!   throughput, the write-back run, whether it was unlinked).
//! * [`rpc`] — typed wrappers over the RPC endpoints, one per opcode.
//! * [`placement`] — [`placement::Placement`], the only code that
//!   knows replica policy: which daemons hold a key right now, in what
//!   order to read them, and how many must acknowledge a write.
//! * [`writeback`] — the write-back buffer coalescing small sequential
//!   writes into chunk-aligned batches.
//! * [`client`] — [`client::GekkoClient`]: the mount, and the
//!   POSIX-relaxed operation set (no rename/links/locks, eventually
//!   consistent `readdir`, strong consistency for single-file ops)
//!   implemented over it by the private modules `namespace`
//!   (path operations, `fsck`), `meta_frames` (quorum, and the
//!   `BatchMeta` frame driver behind the bulk metadata plane,
//!   `create_many`/`stat_many`/`unlink_many`), `data` (chunked write
//!   fan-out and read gather) and `handle` (open, the descriptor shims, and
//!   [`client::FileHandle`] — all I/O goes through explicit open
//!   handles, [`client::GekkoClient::open_handle`]).
//!
//! The interception interface itself — component (1), an `LD_PRELOAD`
//! shim in C++ GekkoFS — is provided as a C ABI in the `gkfs-posix`
//! crate; everything behind it lives here.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
mod data;
pub mod filemap;
mod handle;
mod meta_frames;
mod namespace;
pub mod placement;
pub mod rpc;
pub mod writeback;

pub use client::{ClientStats, FileHandle, FsckReport, GekkoClient};
pub use filemap::{FileMap, OpenFile};
pub use placement::Placement;
pub use rpc::{DaemonRing, Hedge, NodeHealthSnapshot, ReplyFuture};
