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
//! * [`filemap`] — the kernel-independent descriptor table.
//! * [`rpc`] — typed wrappers over the RPC endpoints, one per opcode.
//! * [`placement`] — [`placement::Placement`], the only code that
//!   knows replica policy: which daemons hold a key right now, in what
//!   order to read them, and how many must acknowledge a write.
//! * [`size_cache`] — the client-side write-size coalescing cache the
//!   paper adds in §IV-B to fix shared-file write throughput.
//! * [`writeback`] — the per-handle write-back buffer coalescing small
//!   sequential writes into chunk-aligned batches.
//! * [`metabatch`] — the per-daemon metadata-op queues behind the bulk
//!   metadata plane (`create_many`/`stat_many`/`unlink_many` and the
//!   opt-in transparent batching mode).
//! * [`client`] — [`client::GekkoClient`]: path normalization, the
//!   distributor, chunking, parallel fan-out of reads/writes, and the
//!   POSIX-relaxed operation set (no rename/links/locks, eventually
//!   consistent `readdir`, strong consistency for single-file ops).
//!   I/O goes through explicit open handles
//!   ([`client::GekkoClient::open_handle`] → [`client::FileHandle`]).
//!
//! The interception interface itself — component (1), an `LD_PRELOAD`
//! shim in C++ GekkoFS — is provided as a C ABI in the `gkfs-posix`
//! crate; everything behind it lives here.

#![warn(missing_docs)]

pub mod client;
pub mod filemap;
pub mod metabatch;
pub mod placement;
pub mod rpc;
pub mod size_cache;
pub mod stat_cache;
pub mod writeback;

pub use client::{ClientStats, FileHandle, FsckReport, GekkoClient};
pub use filemap::{FileMap, OpenFile};
pub use placement::Placement;
pub use rpc::{ChunkReadReply, DaemonRing, Hedge, NodeHealth, NodeHealthSnapshot, ReplyFuture};
