//! # gkfs-storage — the daemon's I/O persistence layer
//!
//! Paper §III-B-b: each daemon has *"an I/O persistence layer that
//! reads/writes data from/to the underlying local storage system (one
//! file per chunk)"*. This crate implements that layer twice behind
//! one trait:
//!
//! * [`FileChunkStorage`] — one file per chunk on the node-local file
//!   system (the XFS-formatted scratch SSD on MOGON II), under flat
//!   names in a fixed set of shard directories rather than the C++
//!   directory per file (DESIGN.md "Substitutions").
//! * [`MemChunkStorage`] — the same contract in memory, used by tests
//!   and the in-process cluster.
//!
//! Chunks are dense byte containers of at most `chunk_size` bytes;
//! sparse writes inside a chunk zero-fill the gap, mirroring what a
//! POSIX file gives the C++ implementation for free.

#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

pub mod file;
pub mod mem;

pub use file::FileChunkStorage;
pub use mem::MemChunkStorage;

use bytes::Bytes;
use gkfs_common::{GkfsError, Result};
use std::sync::mpsc;

/// Reject batches whose buffer would exceed this (a malformed or
/// hostile request, not a real stripe: clients cap far below it).
pub const MAX_BATCH_BYTES: u64 = 256 * 1024 * 1024;

/// One chunk-local operation inside a batch request, carrying the
/// position of its bytes within the batch's shared buffer. For writes
/// the op's data is `bulk[buf_offset..buf_offset + len]`; for reads
/// the bytes land in the same window of the output buffer. The daemon
/// computes the windows as a running sum over the wire-order ops, so
/// ops that are adjacent in the batch *and* adjacent in the chunk file
/// are also adjacent in the buffer — what lets a backend coalesce them
/// into one positional syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOp {
    /// Chunk within the file.
    pub chunk_id: u64,
    /// Byte offset within the chunk.
    pub offset: u64,
    /// Byte count.
    pub len: u64,
    /// Byte offset of this op's window within the batch buffer.
    pub buf_offset: u64,
}

/// Validate the dense running-sum buffer layout the daemon builds
/// (`op.buf_offset` equals the sum of all earlier ops' lens) and
/// return the total byte count. An unchecked sum wraps in release
/// builds and would slip a huge batch under the size cap while the
/// per-segment scatter windows stay huge, so the sum is checked and
/// capped at [`MAX_BATCH_BYTES`].
pub fn validate_dense_layout(ops: &[BatchOp]) -> Result<u64> {
    let mut total: u64 = 0;
    for op in ops {
        if op.buf_offset != total {
            return Err(GkfsError::InvalidArgument(
                "batch buffer layout is not the dense running sum".into(),
            ));
        }
        match total.checked_add(op.len) {
            Some(t) if t <= MAX_BATCH_BYTES => total = t,
            _ => {
                return Err(GkfsError::InvalidArgument(format!(
                    "batch exceeds {MAX_BATCH_BYTES} bytes"
                )))
            }
        }
    }
    Ok(total)
}

/// `(start, end)` op-index ranges: at most `max_tasks` contiguous
/// segments, never splitting a run of ops on the same chunk (those are
/// a backend's coalescing unit).
pub fn segment(ops: &[BatchOp], max_tasks: usize) -> Vec<(usize, usize)> {
    let target = ops.len().div_ceil(max_tasks.max(1)).max(1);
    let mut segs = Vec::new();
    let mut start = 0;
    while start < ops.len() {
        let mut end = (start + target).min(ops.len());
        // Extend to the end of the current same-chunk run.
        while end < ops.len() && ops[end].chunk_id == ops[end - 1].chunk_id {
            end += 1;
        }
        segs.push((start, end));
        start = end;
    }
    segs
}

/// Bounds-check every write op's bulk window (writes don't require the
/// dense layout — their windows just have to fit the payload).
pub(crate) fn check_write_windows(ops: &[BatchOp], bulk_len: usize) -> Result<()> {
    for op in ops {
        if op.buf_offset.checked_add(op.len).is_none_or(|e| e > bulk_len as u64) {
            return Err(GkfsError::InvalidArgument(
                "write batch op window exceeds bulk".into(),
            ));
        }
    }
    Ok(())
}

/// A batch offset, length or shard index as a `usize`: free on 64-bit
/// targets, and where `usize` is narrower a value past its range fails
/// loudly instead of truncating. Buffer windows and totals reach it
/// already bounded, by [`check_write_windows`] against the payload or
/// by [`validate_dense_layout`] against [`MAX_BATCH_BYTES`].
pub(crate) fn to_usize(n: u64) -> usize {
    usize::try_from(n).expect("a batch offset fits usize")
}

/// Direction and payload of a [`ChunkStorage::submit_batch`] call.
pub enum BatchPayload {
    /// Write: op windows index into this buffer. Shared by refcount so
    /// a backend may hand it to worker threads without copying.
    Write(Bytes),
    /// Read: the completion allocates and owns the reply buffer.
    Read,
}

/// What a completed batch yields: the reply buffer and per-op byte
/// counts for reads; both empty for writes.
#[derive(Debug, Default)]
pub struct BatchOutput {
    /// Reply bytes, windowed per [`BatchOp::buf_offset`] (reads only).
    /// The tail of a short op's window is zero.
    pub data: Vec<u8>,
    /// Bytes actually read per op, in op order (reads only).
    pub lens: Vec<u64>,
}

/// Per-segment completion message a backend's in-flight tasks post:
/// `(segment index, op-ordered lens or the segment's error)`.
pub type SegmentResult = (usize, Result<Vec<u64>>);

/// In-flight handle for a submitted batch.
///
/// [`wait`](BatchCompletion::wait) blocks until every outstanding
/// segment has completed and yields the assembled [`BatchOutput`].
/// Dropping an unawaited completion also blocks until the backend's
/// tasks are done: the completion owns the reply buffer those tasks
/// scatter into, so it must never be freed out from under them.
#[must_use = "a batch's output and its first error arrive only through `wait`"]
pub struct BatchCompletion {
    state: CompletionState,
}

enum CompletionState {
    Ready(Option<Result<BatchOutput>>),
    Pending(PendingBatch),
}

struct PendingBatch {
    rx: mpsc::Receiver<SegmentResult>,
    outstanding: usize,
    /// The shared reply buffer in-flight tasks write into (empty for
    /// writes): allocated, its length 0 until every segment reported
    /// success. Owned here so it outlives every task; heap storage
    /// stays put when the completion itself moves.
    data: Vec<u8>,
    /// The length `data` takes once every segment has reported success.
    filled: usize,
    /// Per-segment lens, indexed by segment.
    seg_lens: Vec<Option<Vec<u64>>>,
}

impl PendingBatch {
    /// Receive until every outstanding segment reported (or provably
    /// died). Returns the error with the lowest segment index (op
    /// order); a closed channel with results missing means a task died
    /// without reporting — surfaced as an error, never a hang or a
    /// partial reply.
    fn drain(&mut self) -> Result<()> {
        gkfs_common::lock::assert_unguarded("BatchCompletion::wait");
        let mut first_err: Option<(usize, GkfsError)> = None;
        while self.outstanding > 0 {
            match self.rx.recv() {
                Ok((idx, Ok(lens))) => {
                    self.seg_lens[idx] = Some(lens);
                    self.outstanding -= 1;
                }
                Ok((idx, Err(e))) => {
                    if first_err.as_ref().is_none_or(|(i, _)| idx < *i) {
                        first_err = Some((idx, e));
                    }
                    self.outstanding -= 1;
                }
                Err(_) => {
                    self.outstanding = 0;
                    return Err(first_err.map(|(_, e)| e).unwrap_or_else(|| {
                        GkfsError::Rpc("chunk batch task lost without result".into())
                    }));
                }
            }
        }
        match first_err.take() {
            None => Ok(()),
            Some((_, e)) => Err(e),
        }
    }
}

impl BatchCompletion {
    /// A completion that finished synchronously.
    pub fn ready(res: Result<BatchOutput>) -> BatchCompletion {
        BatchCompletion {
            state: CompletionState::Ready(Some(res)),
        }
    }

    /// A completion gathering `outstanding` segment results from `rx`,
    /// owning the reply buffer `data` (empty for writes) that those
    /// segments scatter into — into its capacity: it takes the length
    /// `filled` when every segment has reported success, and stays
    /// empty otherwise. `segments` is the total segment count.
    ///
    /// # Safety
    ///
    /// `filled` ≤ `data`'s capacity; once every segment has reported
    /// `Ok`, the first `filled` bytes of the allocation are initialised.
    pub(crate) unsafe fn pending(
        rx: mpsc::Receiver<SegmentResult>,
        outstanding: usize,
        data: Vec<u8>,
        filled: usize,
        segments: usize,
    ) -> BatchCompletion {
        BatchCompletion {
            state: CompletionState::Pending(PendingBatch {
                rx,
                outstanding,
                data,
                filled,
                seg_lens: vec![None; segments],
            }),
        }
    }

    /// Block until the batch completes; returns the assembled output
    /// or the first error in op order.
    pub fn wait(mut self) -> Result<BatchOutput> {
        match &mut self.state {
            CompletionState::Ready(res) => res
                .take()
                .unwrap_or_else(|| Err(GkfsError::Rpc("batch completion already taken".into()))),
            CompletionState::Pending(p) => {
                p.drain()?;
                // SAFETY: every segment reported `Ok`, so by `pending`'s
                // contract the first `filled` bytes are initialised and
                // within capacity.
                unsafe { p.data.set_len(p.filled) };
                let mut lens = Vec::new();
                for seg in &mut p.seg_lens {
                    lens.extend(std::mem::take(seg).unwrap_or_default());
                }
                Ok(BatchOutput {
                    data: std::mem::take(&mut p.data),
                    lens,
                })
            }
        }
    }
}

impl Drop for BatchCompletion {
    fn drop(&mut self) {
        if let CompletionState::Pending(p) = &mut self.state {
            // Tasks may still be scattering into `data`; block until
            // every sender is accounted for before freeing it.
            let _ = p.drain();
        }
    }
}

/// Contract for a daemon's chunk store.
///
/// `path` is the file's canonical GekkoFS path (`/a/b`); implementations
/// derive their own internal naming. All methods are thread-safe: the
/// RPC handler pool calls them concurrently.
pub trait ChunkStorage: Send + Sync {
    /// Submit a batch for completion-based execution and return an
    /// in-flight handle — the one data-I/O entry point every backend
    /// implements. Writes pull their bytes from the payload's
    /// refcounted buffer at each op's `buf_offset` window (the windows
    /// only have to fit the payload); reads require the dense
    /// running-sum layout and scatter into a buffer the returned
    /// completion owns, the tail of a short op's window zero.
    /// Backends may coalesce ops that are contiguous in both the chunk
    /// and the buffer, and a backend with an I/O engine overlaps the
    /// batch's segments and completes asynchronously.
    fn submit_batch(&self, path: &str, ops: &[BatchOp], payload: BatchPayload) -> BatchCompletion;

    /// Write `data` into chunk `chunk_id` of `path` at byte `offset`
    /// within the chunk — a one-op [`ChunkStorage::submit_batch`].
    /// Creates the chunk if missing; zero-fills any gap between the
    /// current chunk end and `offset`.
    fn write_chunk(&self, path: &str, chunk_id: u64, offset: u64, data: &[u8]) -> Result<()> {
        let op = BatchOp { chunk_id, offset, len: data.len() as u64, buf_offset: 0 };
        let payload = BatchPayload::Write(Bytes::copy_from_slice(data));
        self.submit_batch(path, &[op], payload).wait().map(|_| ())
    }

    /// Read up to `len` bytes from chunk `chunk_id` at `offset` — a
    /// one-op [`ChunkStorage::submit_batch`]. Returns the bytes
    /// actually present: a short (possibly empty) vector if the chunk
    /// is missing or shorter than requested. The client layer turns
    /// short reads into zero-fill or EOF based on the file size from
    /// the metadata owner. `len` is unbounded by contract, so it is
    /// clamped to the batch cap rather than rejected by it.
    fn read_chunk(&self, path: &str, chunk_id: u64, offset: u64, len: u64) -> Result<Vec<u8>> {
        let op = BatchOp { chunk_id, offset, len: len.min(MAX_BATCH_BYTES), buf_offset: 0 };
        let mut out = self.submit_batch(path, &[op], BatchPayload::Read).wait()?;
        out.data.truncate(to_usize(out.lens.first().copied().unwrap_or(0)));
        Ok(out.data)
    }

    /// Remove chunks `ids` of `path`; an **empty** list means whatever
    /// this daemon holds for the path. An id that is not held (a hole
    /// in a sparse file, a replayed remove) is success, so the call is
    /// idempotent. Callers that know the file's size name the ids, and
    /// a backend then touches exactly those names: only the empty list
    /// pays for an enumeration.
    fn remove_chunks(&self, path: &str, ids: &[u64]) -> Result<()>;

    /// Drop all chunks of `path` with `chunk_id > keep_chunk`, and trim
    /// chunk `keep_chunk` itself to `keep_bytes` bytes (used by
    /// truncate; `keep_bytes == 0` with `keep_chunk == 0` empties the
    /// file but keeps it existing).
    fn truncate_chunks(&self, path: &str, keep_chunk: u64, keep_bytes: u64) -> Result<()>;

    /// Whether chunk `chunk_id` of `path` is stored here at all — what
    /// tells a short read of a held chunk (a hole, EOF) from a read of
    /// a chunk this daemon never received. A point lookup, never an
    /// enumeration: it sits on the read path.
    fn holds(&self, path: &str, chunk_id: u64) -> Result<bool>;

    /// Number of chunks currently stored for `path` (diagnostics).
    fn chunk_count(&self, path: &str) -> Result<usize> {
        Ok(self.list_chunks(path)?.len())
    }

    /// Every path this store holds chunks for, with its chunk count —
    /// the daemon-side inventory behind `fsck`.
    fn list_paths(&self) -> Result<Vec<(String, usize)>>;

    /// Every chunk held for `path` as `(chunk_id, length_in_bytes)` —
    /// the export manifest the re-replication driver walks when it
    /// copies a file's local chunks to a replica successor.
    fn list_chunks(&self, path: &str) -> Result<Vec<(u64, u64)>>;

    /// This store's block of daemon counters: the `storage_*`,
    /// `chunk_*` and `fd_cache_*` names, `dir_scans`, `coalesced_ops`,
    /// and the `read_reply_copy_bytes` the daemon's read replies count.
    fn stats(&self) -> &gkfs_common::metrics::DaemonCounters;
}

#[cfg(test)]
mod contract_tests {
    //! One test suite run against both implementations, so they can
    //! never drift apart.
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn storages() -> Vec<(&'static str, Arc<dyn ChunkStorage>)> {
        let dir = std::env::temp_dir().join(format!(
            "gkfs-storage-contract-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        vec![
            ("mem", Arc::new(MemChunkStorage::new())),
            ("file", Arc::new(FileChunkStorage::open(dir).unwrap())),
        ]
    }

    #[test]
    fn write_then_read_roundtrip() {
        for (name, s) in storages() {
            s.write_chunk("/f", 0, 0, b"hello world").unwrap();
            assert_eq!(s.read_chunk("/f", 0, 0, 11).unwrap(), b"hello world", "{name}");
            assert_eq!(s.read_chunk("/f", 0, 6, 5).unwrap(), b"world", "{name}");
        }
    }

    #[test]
    fn short_and_empty_reads() {
        for (name, s) in storages() {
            s.write_chunk("/f", 0, 0, b"abc").unwrap();
            // Read past the data: short.
            assert_eq!(s.read_chunk("/f", 0, 1, 100).unwrap(), b"bc", "{name}");
            // Read at the end: empty.
            assert!(s.read_chunk("/f", 0, 3, 10).unwrap().is_empty(), "{name}");
            // Missing chunk: empty.
            assert!(s.read_chunk("/f", 99, 0, 10).unwrap().is_empty(), "{name}");
            // Missing file: empty.
            assert!(s.read_chunk("/ghost", 0, 0, 10).unwrap().is_empty(), "{name}");
        }
    }

    #[test]
    fn sparse_write_zero_fills() {
        for (name, s) in storages() {
            s.write_chunk("/sparse", 0, 100, b"tail").unwrap();
            let data = s.read_chunk("/sparse", 0, 0, 104).unwrap();
            assert_eq!(data.len(), 104, "{name}");
            assert!(data[..100].iter().all(|&b| b == 0), "{name}: gap must be zeros");
            assert_eq!(&data[100..], b"tail", "{name}");
        }
    }

    #[test]
    fn overwrite_within_chunk() {
        for (name, s) in storages() {
            s.write_chunk("/ow", 2, 0, b"AAAAAAAAAA").unwrap();
            s.write_chunk("/ow", 2, 3, b"bbb").unwrap();
            assert_eq!(s.read_chunk("/ow", 2, 0, 10).unwrap(), b"AAAbbbAAAA", "{name}");
        }
    }

    #[test]
    fn chunks_are_independent() {
        for (name, s) in storages() {
            s.write_chunk("/multi", 0, 0, b"zero").unwrap();
            s.write_chunk("/multi", 5, 0, b"five").unwrap();
            assert_eq!(s.read_chunk("/multi", 0, 0, 4).unwrap(), b"zero", "{name}");
            assert_eq!(s.read_chunk("/multi", 5, 0, 4).unwrap(), b"five", "{name}");
            assert!(s.read_chunk("/multi", 1, 0, 4).unwrap().is_empty(), "{name}");
            assert_eq!(s.chunk_count("/multi").unwrap(), 2, "{name}");
        }
    }

    #[test]
    fn remove_chunks_is_idempotent() {
        for (name, s) in storages() {
            s.write_chunk("/rm", 0, 0, b"x").unwrap();
            s.write_chunk("/rm", 1, 0, b"y").unwrap();
            s.remove_chunks("/rm", &[]).unwrap();
            assert_eq!(s.chunk_count("/rm").unwrap(), 0, "{name}");
            assert!(s.read_chunk("/rm", 0, 0, 1).unwrap().is_empty(), "{name}");
            s.remove_chunks("/rm", &[]).unwrap(); // second time: no error
            s.remove_chunks("/never-existed", &[]).unwrap();
            s.remove_chunks("/never-existed", &[0, 1]).unwrap();
        }
    }

    #[test]
    fn remove_by_ids_drops_exactly_the_named_chunks() {
        for (name, s) in storages() {
            for c in 0..4u8 {
                s.write_chunk("/ids", c.into(), 0, &[c; 8]).unwrap();
            }
            // `/ids.1` chunk 0 and `/ids` chunk 1 must stay two things.
            s.write_chunk("/ids.1", 0, 0, b"neighbour").unwrap();
            // Unknown ids (a hole, a replay) are success; so is a repeat.
            for _ in 0..2 {
                s.remove_chunks("/ids", &[1, 3, 77]).unwrap();
                assert_eq!(s.list_chunks("/ids").unwrap(), vec![(0, 8), (2, 8)], "{name}");
            }
            assert!(s.holds("/ids", 0).unwrap() && !s.holds("/ids", 1).unwrap(), "{name}");
            assert!(s.read_chunk("/ids", 1, 0, 8).unwrap().is_empty(), "{name}");
            assert_eq!(s.read_chunk("/ids", 2, 0, 8).unwrap(), [2u8; 8], "{name}");
            // A removed id can be written again and is a fresh chunk.
            s.write_chunk("/ids", 1, 0, b"new").unwrap();
            assert_eq!(s.read_chunk("/ids", 1, 0, 8).unwrap(), b"new", "{name}");
            // The empty list takes what is left, and only of this path.
            s.remove_chunks("/ids", &[]).unwrap();
            assert_eq!(s.chunk_count("/ids").unwrap(), 0, "{name}");
            assert_eq!(s.read_chunk("/ids.1", 0, 0, 9).unwrap(), b"neighbour", "{name}");
            assert_eq!(s.list_paths().unwrap(), vec![("/ids.1".to_string(), 1)], "{name}");
        }
    }

    #[test]
    fn holds_tells_a_hole_from_a_chunk_never_written() {
        for (name, s) in storages() {
            s.write_chunk("/h", 2, 100, b"x").unwrap();
            assert!(s.holds("/h", 2).unwrap(), "{name}");
            assert!(!s.holds("/h", 0).unwrap(), "{name}");
            assert!(!s.holds("/h.2", 0).unwrap(), "{name}");
            assert!(!s.holds("/nothing", 0).unwrap(), "{name}");
            s.truncate_chunks("/h", 1, 0).unwrap();
            assert!(!s.holds("/h", 2).unwrap(), "{name}: truncated away");
        }
    }

    #[test]
    fn truncate_drops_tail_chunks_and_trims_boundary() {
        for (name, s) in storages() {
            for c in 0..5u8 {
                s.write_chunk("/tr", c.into(), 0, &[c; 64]).unwrap();
            }
            // Keep chunks 0..=1; trim chunk 1 to 10 bytes.
            s.truncate_chunks("/tr", 1, 10).unwrap();
            assert_eq!(s.chunk_count("/tr").unwrap(), 2, "{name}");
            assert_eq!(s.read_chunk("/tr", 0, 0, 64).unwrap().len(), 64, "{name}");
            assert_eq!(s.read_chunk("/tr", 1, 0, 64).unwrap().len(), 10, "{name}");
            assert!(s.read_chunk("/tr", 2, 0, 64).unwrap().is_empty(), "{name}");
        }
    }

    #[test]
    fn truncate_boundary_chunk_shorter_than_keep_is_untouched() {
        for (name, s) in storages() {
            s.write_chunk("/tb", 0, 0, b"abc").unwrap();
            s.truncate_chunks("/tb", 0, 100).unwrap();
            assert_eq!(s.read_chunk("/tb", 0, 0, 100).unwrap(), b"abc", "{name}");
        }
    }

    #[test]
    fn paths_with_nested_directories() {
        for (name, s) in storages() {
            s.write_chunk("/deep/ly/nested/file.dat", 3, 7, b"payload").unwrap();
            assert_eq!(
                s.read_chunk("/deep/ly/nested/file.dat", 3, 7, 7).unwrap(),
                b"payload",
                "{name}"
            );
            // Similar names must not collide.
            s.write_chunk("/deep/ly", 0, 0, b"other").unwrap();
            assert_eq!(s.chunk_count("/deep/ly/nested/file.dat").unwrap(), 1, "{name}");
            assert_eq!(s.chunk_count("/deep/ly").unwrap(), 1, "{name}");
        }
    }

    #[test]
    fn concurrent_writers_different_chunks() {
        for (name, s) in storages() {
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let s = &s;
                    scope.spawn(move || {
                        for i in 0..50u64 {
                            let c = t * 100 + i;
                            s.write_chunk("/conc", c, 0, &c.to_le_bytes()).unwrap();
                        }
                    });
                }
            });
            assert_eq!(s.chunk_count("/conc").unwrap(), 400, "{name}");
            assert_eq!(
                s.read_chunk("/conc", 307, 0, 8).unwrap(),
                307u64.to_le_bytes(),
                "{name}"
            );
        }
    }

    #[test]
    fn list_paths_inventories_everything() {
        for (name, s) in storages() {
            assert!(s.list_paths().unwrap().is_empty(), "{name}: starts empty");
            s.write_chunk("/inv/a", 0, 0, b"x").unwrap();
            s.write_chunk("/inv/a", 1, 0, b"y").unwrap();
            s.write_chunk("/inv/b:tricky", 0, 0, b"z").unwrap();
            let mut inv = s.list_paths().unwrap();
            inv.sort();
            assert_eq!(
                inv,
                vec![
                    ("/inv/a".to_string(), 2),
                    ("/inv/b:tricky".to_string(), 1)
                ],
                "{name}"
            );
            s.remove_chunks("/inv/a", &[]).unwrap();
            assert_eq!(s.list_paths().unwrap().len(), 1, "{name}");
        }
    }

    /// Ops laid out the way the daemon builds them: consecutive wire
    /// order, buffer windows as a running sum.
    fn layout_ops(specs: &[(u64, u64, u64)]) -> Vec<BatchOp> {
        let mut ops = Vec::with_capacity(specs.len());
        let mut cursor = 0u64;
        for &(chunk_id, offset, len) in specs {
            ops.push(BatchOp {
                chunk_id,
                offset,
                len,
                buf_offset: cursor,
            });
            cursor += len;
        }
        ops
    }

    fn write_batch(s: &dyn ChunkStorage, path: &str, ops: &[BatchOp], bulk: &[u8]) {
        let payload = BatchPayload::Write(Bytes::copy_from_slice(bulk));
        s.submit_batch(path, ops, payload).wait().unwrap();
    }

    fn read_batch(s: &dyn ChunkStorage, path: &str, ops: &[BatchOp]) -> BatchOutput {
        s.submit_batch(path, ops, BatchPayload::Read).wait().unwrap()
    }

    #[test]
    fn batch_roundtrip_multi_chunk() {
        for (name, s) in storages() {
            let ops = layout_ops(&[(0, 0, 64), (1, 0, 64), (2, 0, 64), (7, 16, 32)]);
            let total: u64 = ops.iter().map(|o| o.len).sum();
            let bulk: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
            write_batch(&*s, "/batch", &ops, &bulk);
            let out = read_batch(&*s, "/batch", &ops);
            assert_eq!(out.lens, vec![64, 64, 64, 32], "{name}");
            assert_eq!(out.data, bulk, "{name}");
            // And the single-op API sees the same bytes.
            assert_eq!(s.read_chunk("/batch", 1, 0, 64).unwrap(), &bulk[64..128], "{name}");
        }
    }

    #[test]
    fn batch_coalesces_contiguous_same_chunk_ops() {
        for (name, s) in storages() {
            // 4 file-and-buffer-contiguous slices of chunk 3, then a
            // separate chunk: the file backend merges the first run.
            let ops = layout_ops(&[(3, 0, 16), (3, 16, 16), (3, 32, 16), (3, 48, 16), (4, 0, 16)]);
            let bulk: Vec<u8> = (0..80u8).collect();
            write_batch(&*s, "/co", &ops, &bulk);
            let out = read_batch(&*s, "/co", &ops);
            assert_eq!(out.lens, vec![16, 16, 16, 16, 16], "{name}");
            assert_eq!(out.data, bulk, "{name}");
            if name == "file" {
                let coalesced = s.stats().coalesced_ops.load(Ordering::Relaxed);
                // 3 merges on the write pass + 3 on the read pass.
                assert_eq!(coalesced, 6, "{name}: coalescing must trigger");
            }
        }
    }

    #[test]
    fn batch_read_short_and_missing_chunks() {
        for (name, s) in storages() {
            s.write_chunk("/sh", 0, 0, &[9u8; 24]).unwrap();
            // Op 0 is short (24 of 64), op 1 misses entirely.
            let ops = layout_ops(&[(0, 0, 64), (5, 0, 64)]);
            let out = read_batch(&*s, "/sh", &ops);
            assert_eq!(out.lens, vec![24, 0], "{name}");
            assert_eq!(&out.data[..24], &[9u8; 24], "{name}");
            // Bytes past `actual` in each window stay zero.
            assert!(out.data[24..].iter().all(|&b| b == 0), "{name}");
        }
    }

    #[test]
    fn batch_read_short_within_coalesced_run() {
        for (name, s) in storages() {
            // Chunk holds 40 bytes; a coalesced run of 4×16 must report
            // per-op lens 16,16,8,0 — EOF only truncates the tail.
            s.write_chunk("/shc", 0, 0, &[5u8; 40]).unwrap();
            let ops = layout_ops(&[(0, 0, 16), (0, 16, 16), (0, 32, 16), (0, 48, 16)]);
            let out = read_batch(&*s, "/shc", &ops);
            assert_eq!(out.lens, vec![16, 16, 8, 0], "{name}");
            assert_eq!(&out.data[..40], &[5u8; 40], "{name}");
        }
    }

    #[test]
    fn segments_align_to_chunk_runs() {
        let ops = layout_ops(&[(0, 0, 4), (0, 4, 4), (1, 0, 4), (2, 0, 4), (2, 4, 4)]);
        let segs = segment(&ops, 2);
        assert_eq!(segs, vec![(0, 3), (3, 5)]);
        for w in segs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous cover");
        }
        // A run never straddles segments.
        for &(_, e) in &segs {
            if e < ops.len() {
                assert_ne!(ops[e - 1].chunk_id, ops[e].chunk_id);
            }
        }
    }

    #[test]
    fn segments_degenerate_cases() {
        assert!(segment(&[], 4).is_empty());
        let one = layout_ops(&[(0, 0, 8)]);
        assert_eq!(segment(&one, 4), vec![(0, 1)]);
        // max_tasks == 0 behaves like 1 (single inline segment).
        let many = layout_ops(&[(0, 0, 4), (1, 0, 4), (2, 0, 4)]);
        assert_eq!(segment(&many, 0), vec![(0, 3)]);
    }

    #[test]
    fn dense_layout_validation() {
        let ops = layout_ops(&[(0, 0, 16), (1, 0, 16)]);
        assert_eq!(validate_dense_layout(&ops).unwrap(), 32);
        // Hole in the layout.
        let holey = vec![BatchOp { chunk_id: 0, offset: 0, len: 8, buf_offset: 4 }];
        assert!(validate_dense_layout(&holey).is_err());
        // Oversized.
        let big = layout_ops(&[(0, 0, MAX_BATCH_BYTES + 1)]);
        assert!(validate_dense_layout(&big).is_err());
        // Wrapping sum: an unchecked total would come out tiny.
        let wrap = vec![
            BatchOp { chunk_id: 0, offset: 0, len: u64::MAX, buf_offset: 0 },
            BatchOp { chunk_id: 1, offset: 0, len: 3, buf_offset: u64::MAX },
        ];
        assert!(validate_dense_layout(&wrap).is_err());
    }

    #[test]
    fn submit_batch_roundtrip_and_short_reads() {
        for (name, s) in storages() {
            let ops = layout_ops(&[(0, 0, 64), (1, 0, 64), (2, 0, 64), (3, 0, 64)]);
            let bulk: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
            s.submit_batch("/sub", &ops, BatchPayload::Write(Bytes::from(bulk.clone())))
                .wait()
                .unwrap();
            let out = s.submit_batch("/sub", &ops, BatchPayload::Read).wait().unwrap();
            assert_eq!(out.lens, vec![64; 4], "{name}");
            assert_eq!(out.data, bulk, "{name}");
            // Short read: chunk 9 holds 10 bytes, read asks for 64.
            s.write_chunk("/sub", 9, 0, &[3u8; 10]).unwrap();
            let short = layout_ops(&[(9, 0, 64), (0, 0, 64)]);
            let out = s.submit_batch("/sub", &short, BatchPayload::Read).wait().unwrap();
            assert_eq!(out.lens, vec![10, 64], "{name}");
            assert_eq!(&out.data[..10], &[3u8; 10], "{name}");
            assert_eq!(&out.data[64..128], &bulk[..64], "{name}: window preserved");
        }
    }

    #[test]
    fn submit_batch_rejects_bad_layouts() {
        for (name, s) in storages() {
            // Write window past the bulk.
            let ops = layout_ops(&[(0, 0, 64)]);
            let res = s
                .submit_batch("/bad", &ops, BatchPayload::Write(Bytes::from(vec![0u8; 32])))
                .wait();
            assert!(res.is_err(), "{name}");
            // Non-dense read layout.
            let holey = vec![BatchOp { chunk_id: 0, offset: 0, len: 8, buf_offset: 4 }];
            assert!(
                s.submit_batch("/bad", &holey, BatchPayload::Read).wait().is_err(),
                "{name}"
            );
        }
    }

    #[test]
    fn dropping_unawaited_completion_is_safe() {
        for (name, s) in storages() {
            let ops = layout_ops(&[(0, 0, 4096), (1, 0, 4096), (2, 0, 4096), (3, 0, 4096)]);
            let bulk = Bytes::from(vec![0x5Au8; 4 * 4096]);
            s.submit_batch("/drop", &ops, BatchPayload::Write(bulk)).wait().unwrap();
            for _ in 0..8 {
                // Drop without waiting: must block in Drop until every
                // in-flight task is done, then free the buffer.
                drop(s.submit_batch("/drop", &ops, BatchPayload::Read));
            }
            let out = s.submit_batch("/drop", &ops, BatchPayload::Read).wait().unwrap();
            assert_eq!(out.lens, vec![4096; 4], "{name}");
        }
    }

    #[test]
    fn stats_track_io() {
        for (name, s) in storages() {
            s.write_chunk("/st", 0, 0, &[1u8; 100]).unwrap();
            let _ = s.read_chunk("/st", 0, 0, 100).unwrap();
            let st = s.stats();
            assert_eq!(st.storage_write_ops.load(Ordering::Relaxed), 1, "{name}");
            assert_eq!(st.storage_write_bytes.load(Ordering::Relaxed), 100, "{name}");
            assert_eq!(st.storage_read_ops.load(Ordering::Relaxed), 1, "{name}");
            assert_eq!(st.storage_read_bytes.load(Ordering::Relaxed), 100, "{name}");
        }
    }
}
