//! # gkfs-kvstore — an embedded LSM-tree key-value store
//!
//! GekkoFS stores all metadata in a per-daemon RocksDB instance
//! (paper §III-B-b: *"Each daemon operates a single local RocksDB KV
//! store. RocksDB is optimized for NAND storage technologies with low
//! latencies"*). This crate is the from-scratch substitute: a
//! log-structured merge tree with the same write path that makes
//! metadata creates fast —
//!
//! 1. append to a segmented write-ahead log ([`wal`]) — concurrent
//!    writers share one append/fsync via **group commit**,
//! 2. insert into a sorted in-memory [`memtable`],
//! 3. on memtable-full, swap in a fresh memtable and hand the frozen
//!    one to the store's one **background thread** as an immutable
//!    memtable (still readable) until its sorted table ([`sstable`],
//!    with per-table bloom filters from [`bloom`]) lands in L0,
//! 4. compact L0 into L1 on the same thread when no flush is queued,
//!    with configurable L0 slowdown/stall backpressure ([`db`]).
//!
//! Foreground writers never wait for flush or compaction I/O — they
//! block only for the memtable pointer swap, the same property that
//! lets RocksDB absorb millions of metadata creates per second in the
//! paper's evaluation (§IV). Reads clone an `Arc` snapshot of
//! `{memtable, immutables, L0, L1}` and search entirely outside the
//! store's locks.
//!
//! Like RocksDB, the store supports **merge operators** ([`merge`]):
//! GekkoFS uses one to coalesce file-size updates without
//! read-modify-write round trips, which is exactly the mechanism behind
//! the paper's shared-file fix (§IV-B).
//!
//! Storage is abstracted behind [`blobstore::BlobStore`] so the same
//! engine runs fully in memory (tests, in-process clusters) or on a
//! real directory (persistent daemons).
//!
//! ```
//! use gkfs_kvstore::{Db, DbOptions};
//!
//! let db = Db::open_memory(DbOptions::default()).unwrap();
//! db.put(b"/file/a", b"meta-a").unwrap();
//! assert_eq!(db.get(b"/file/a").unwrap().as_deref(), Some(&b"meta-a"[..]));
//! db.delete(b"/file/a").unwrap();
//! assert!(db.get(b"/file/a").unwrap().is_none());
//! ```

#![warn(missing_docs)]

pub mod blobstore;
pub mod bloom;
pub mod db;
pub mod memtable;
pub mod merge;
pub mod sstable;
pub mod wal;

pub use blobstore::{BlobStore, FsBlobStore, MemBlobStore};
pub use db::{Db, DbOptions, WriteBatch, WriteView};
pub use merge::{Add64MergeOperator, MergeOperator};
