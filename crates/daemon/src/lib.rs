//! # gkfs-daemon — the GekkoFS server process
//!
//! Paper §III-B-b: *"GekkoFS daemons consist of three parts: 1) A
//! key-value store (KV store) used for storing metadata; 2) an I/O
//! persistence layer that reads/writes data from/to the underlying
//! local storage system (one file per chunk); and 3) an RPC-based
//! communication layer that accepts local and remote connections to
//! handle file system operations."*
//!
//! * [`metadata`] — the metadata backend over [`gkfs_kvstore`],
//!   including the size merge operator that makes write-size updates
//!   read-free.
//! * [`handlers`] — the RPC handler set, one per opcode.
//! * [`engine`] — the chunk task engine: per-chunk fan-out of data
//!   batches over the daemon's handler pool (the Argobots ULT model,
//!   §III-B).
//! * [`daemon`] — daemon lifecycle: construction, in-process endpoint
//!   creation, TCP serving, shutdown.
//! * [`replication`] — N-way replication: heartbeat probing, failure
//!   detection, and the background re-replication driver.
//!
//! Each daemon is fully independent for the request path (*"receives
//! forwarded file system operations from clients and processes them
//! independently"*): it has no view of the distributor and trusts
//! clients to route operations to the right owner. With replication
//! enabled, daemons additionally exchange heartbeats and replica
//! copies among themselves — the only daemon-to-daemon traffic.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod daemon;
pub mod engine;
pub mod handlers;
pub mod metadata;
pub mod replication;

pub use daemon::Daemon;
pub use metadata::MetadataBackend;
pub use replication::ReplicationManager;
