//! # gekkofs — a temporary distributed file system for HPC applications
//!
//! A from-scratch Rust reproduction of **GekkoFS** (Vef et al., IEEE
//! CLUSTER 2018): a temporary, user-space burst-buffer file system that
//! pools node-local storage into a single global namespace with relaxed
//! POSIX semantics.
//!
//! ## Architecture (paper Fig. 1)
//!
//! * every node runs a **daemon** (`gkfs-daemon`): RocksDB-style KV
//!   store for metadata (`gkfs-kvstore`), one-file-per-chunk data store
//!   (`gkfs-storage`), Margo-style RPC service (`gkfs-rpc`);
//! * applications link the **client** (`gkfs-client`): a kernel-
//!   independent file map, a pseudo-random distributor that places
//!   metadata by `hash(path)` and data by `hash(path, chunk_id)`
//!   (wide striping), and parallel chunk fan-out;
//! * there is **no central server** of any kind.
//!
//! ## Quickstart
//!
//! ```
//! use gekkofs::{Cluster, OpenFlags};
//!
//! // Pool 4 (in-process) nodes into one namespace.
//! let cluster = Cluster::deploy(gekkofs::ClusterConfig::new(4)).unwrap();
//! let fs = cluster.mount().unwrap();
//!
//! let f = fs.open_handle("/results.dat", OpenFlags::RDWR.with_create()).unwrap();
//! f.pwrite(0, b"simulation output").unwrap();
//! assert_eq!(f.size(), 17);
//! let back = f.pread(0, 64).unwrap();
//! assert_eq!(back, b"simulation output");
//! f.close().unwrap();
//!
//! cluster.shutdown();
//! ```
//!
//! ## Semantics (paper §III-A)
//!
//! * strong consistency for operations that target one file;
//! * eventually consistent `readdir` (and `rmdir` emptiness checks);
//! * no `rename`, no links, no distributed locking, no permissions
//!   enforcement;
//! * synchronous and cache-less by default; the optional write-size
//!   coalescing cache from §IV-B is enabled with
//!   [`ClusterConfig::with_size_cache`], and the opt-in per-handle
//!   write-back buffer with [`ClusterConfig::with_write_back`].

#![warn(missing_docs)]

pub mod cluster;

pub use cluster::{mount_hosts, Cluster, TcpCluster};
pub use gkfs_client::client::Whence;
pub use gkfs_client::{ClientStats, FileHandle, FsckReport, GekkoClient, NodeHealthSnapshot};
pub use gkfs_common::{
    ClusterConfig, DaemonConfig, FileKind, GkfsError, Liveness, Metadata, OpenFlags,
    ReplicationConfig, Result, DEFAULT_CHUNK_SIZE,
};
pub use gkfs_common::config::RetryConfig;
pub use gkfs_common::types::Dirent;
pub use gkfs_daemon::Daemon;
