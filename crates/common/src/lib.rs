//! # gkfs-common — shared foundations for the GekkoFS reproduction
//!
//! This crate holds everything that both sides of the file system — the
//! client library and the per-node daemon — must agree on:
//!
//! * [`error`] — errno-shaped error type shared across RPC boundaries.
//! * [`hash`] — stable, from-scratch hash functions (XXH64, FNV-1a) used
//!   by the distributor. Stability matters: every client must map a path
//!   to the same daemon without coordination.
//! * [`distributor`] — the pseudo-random placement function from the
//!   paper (§III-B): `hash(path)` places metadata, `hash(path, chunk_id)`
//!   places each data chunk (wide striping).
//! * [`chunk`] — chunk arithmetic for splitting byte ranges into
//!   fixed-size chunks (default 512 KiB, as in the paper's evaluation).
//! * [`path`] — normalization of the flat namespace GekkoFS keeps
//!   internally (directory entries are objects, not directory blocks).
//! * [`types`] — file metadata, open flags, and file modes.
//! * [`wire`] — a small, explicit little-endian codec used by both the
//!   RPC layer and the KV store's on-disk formats.
//! * [`crc`] — CRC32 (IEEE) for WAL and SSTable block integrity.
//! * [`metrics`] — counters declared once: the daemon's one list and
//!   the `DaemonStats` reply it emits.
//! * [`config`] — daemon/cluster configuration knobs.
//! * [`retry`] — deadline-aware retry: bounded backoff with
//!   deterministic jitter, operation deadlines, per-endpoint circuit
//!   breakers.
//! * [`health`] — the threshold failure detector behind heartbeat
//!   liveness (`Alive`/`Suspect`/`Dead`) on both clients and daemons.
//! * [`lock`] — ranked mutex/rwlock wrappers enforcing the global lock
//!   hierarchy (strictly descending acquisition, nothing held where a
//!   thread blocks), validated at runtime in debug builds.
//! * [`taskpool`] — bounded worker pool with caller-runs overflow, the
//!   daemon's stand-in for Argobots ULT dispatch (§III-B).

#![warn(missing_docs)]

pub mod chunk;
pub mod config;
pub mod crc;
pub mod distributor;
pub mod error;
pub mod hash;
pub mod health;
pub mod lock;
pub mod log;
pub mod metrics;
pub mod model;
pub mod path;
pub mod retry;
pub mod taskpool;
pub mod types;
pub mod wire;

pub use chunk::{chunk_range, ChunkInfo, ChunkLayout};
pub use config::{
    ClusterConfig, DaemonConfig, IoBackend, ReplicationConfig, RetryConfig, DEFAULT_CHUNK_SIZE,
};
pub use distributor::Distributor;
pub use error::{GkfsError, Result};
pub use health::{BreakerState, FailureDetector, Liveness, NodeRecord, Transition};
pub use lock::{LockRank, OrderedMutex, OrderedRwLock};
pub use retry::{Deadline, RetryPolicy};
pub use taskpool::{PoolHandle, TaskPool};
pub use types::{FileKind, Metadata, OpenFlags};
