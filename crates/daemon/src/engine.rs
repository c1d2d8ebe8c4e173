//! The chunk batch engine — the daemon's edge of the data path.
//!
//! Paper §III-B: a daemon splits each I/O request into its chunks and
//! hands every chunk to an Argobots user-level thread so chunk I/O
//! overlaps. Here that fan-out lives *inside* the storage backend,
//! behind [`ChunkStorage::write_batch`] and [`ChunkStorage::read_batch`],
//! which run a batch's segments side by side and return when all of
//! them are done. Direct storage users (benches, tools) get the same
//! overlap, and the daemon is a thin adapter: a write goes to the store
//! as its handler borrowed it — from the frame it was received in — and
//! a read here is
//!
//! * validate the wire-controlled geometry (size cap, dense layout),
//! * run the batch into the reply buffer the handler was lent,
//! * compact the reply for the wire.
//!
//! Read replies are scatter/gather end to end: the reply buffer is
//! *lent*, not allocated — over TCP one of the daemon's chunk buffers
//! (`gkfs_rpc::transport::tcp`, "Chunk buffers"), which goes back to
//! its set once the reply is written; in-process a fresh `Vec` that
//! becomes the response's bulk. The store's segment tasks read their
//! bytes directly into disjoint windows of it — no per-op
//! concatenation, and no zero-fill ahead of the reads (storage zeroes
//! only what a read did not reach, so the tail of a short op's window
//! reads zero here, whatever the buffer held for an earlier request).
//! Only a short read (EOF inside the batch) forces compaction copies
//! here, and those are counted in the store's `read_reply_copy_bytes`
//! so the "no-copy on the happy path" claim is checkable from
//! `gkfs-cli df` (and gated in CI).

use gkfs_common::{GkfsError, Result};
use gkfs_storage::{BatchOp, ChunkStorage};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Reject read batches whose reply would exceed this (a malformed or
/// hostile request, not a real stripe: clients cap far below it).
/// Mirrors the storage layer's own batch cap.
pub const MAX_READ_BATCH_BYTES: u64 = gkfs_storage::MAX_BATCH_BYTES;

/// Execute a read batch into `out`, the lent reply buffer, compacted to
/// the dense concatenation the wire contract requires; returns the
/// per-op lens.
pub fn read_batch(
    storage: &Arc<dyn ChunkStorage>,
    path: &str,
    ops: &[BatchOp],
    out: &mut Vec<u8>,
) -> Result<Vec<u64>> {
    // Wire-controlled lens: validate before any allocation so a hostile
    // batch can't force a huge allocation. The storage layer re-checks
    // (its API is public), but the daemon owns the error the client
    // sees.
    gkfs_storage::validate_dense_layout(ops)?;
    let lens = storage.read_batch(path, ops, out)?;
    if lens.len() != ops.len() {
        return Err(GkfsError::Rpc("storage returned mismatched batch lens".into()));
    }
    // Compact: short reads leave holes; the wire format wants the dense
    // concatenation. Happy path (every op full-length) moves nothing
    // and counts nothing.
    let mut dense = 0usize;
    for (op, &n) in ops.iter().zip(&lens) {
        let n = n as usize;
        let planned = op.buf_offset as usize;
        if planned != dense && n > 0 {
            out.copy_within(planned..planned + n, dense);
            storage.stats().read_reply_copy_bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
        dense += n;
    }
    out.truncate(dense);
    Ok(lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_common::IoBackend;
    use gkfs_storage::{FileChunkStorage, MemChunkStorage};

    /// A read into a fresh buffer, as the in-process transport lends one.
    fn read(storage: &Arc<dyn ChunkStorage>, path: &str, ops: &[BatchOp]) -> Result<(Vec<u8>, Vec<u64>)> {
        let mut out = Vec::new();
        let lens = read_batch(storage, path, ops, &mut out)?;
        Ok((out, lens))
    }

    fn copies(storage: &Arc<dyn ChunkStorage>) -> u64 {
        storage.stats().read_reply_copy_bytes.load(Ordering::Relaxed)
    }

    fn layout(specs: &[(u64, u64, u64)]) -> Vec<BatchOp> {
        let mut cursor = 0;
        specs
            .iter()
            .map(|&(chunk_id, offset, len)| {
                let op = BatchOp { chunk_id, offset, len, buf_offset: cursor };
                cursor += len;
                op
            })
            .collect()
    }

    /// Backends for end-to-end engine tests: the serial in-memory
    /// store and a file store on the parallel pool engine, so the
    /// multi-segment scatter/gather path runs even on small machines.
    fn storages(tag: &str) -> Vec<(&'static str, Arc<dyn ChunkStorage>, Option<std::path::PathBuf>)> {
        let dir = std::env::temp_dir().join(format!("gkfs-eng-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        vec![
            ("mem", Arc::new(MemChunkStorage::new()), None),
            (
                "file-pool",
                Arc::new(FileChunkStorage::open_with(&dir, IoBackend::Auto, 4, 64).unwrap()),
                Some(dir),
            ),
        ]
    }

    #[test]
    fn write_read_roundtrip() {
        for (name, storage, dir) in storages("rt") {
            let ops = layout(&[(0, 0, 64), (1, 0, 64), (2, 0, 64), (3, 0, 64)]);
            let bulk: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
            storage.write_batch("/e", &ops, &bulk).unwrap();
            let (out, lens) = read(&storage, "/e", &ops).unwrap();
            assert_eq!(lens, vec![64; 4], "{name}");
            assert_eq!(out, bulk, "{name}");
            assert_eq!(copies(&storage), 0, "full-length reads must not compact");
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    #[test]
    fn short_reads_compact_densely() {
        for (name, storage, dir) in storages("short") {
            // Chunk 0 holds 16 bytes, chunk 1 holds 32: reading 32 from
            // each leaves a hole after chunk 0's short read.
            storage.write_chunk("/s", 0, 0, &[1u8; 16]).unwrap();
            storage.write_chunk("/s", 1, 0, &[2u8; 32]).unwrap();
            let ops = layout(&[(0, 0, 32), (1, 0, 32)]);
            let (out, lens) = read(&storage, "/s", &ops).unwrap();
            assert_eq!(lens, vec![16, 32], "{name}");
            assert_eq!(out.len(), 48, "dense reply: no hole ({name})");
            assert_eq!(&out[..16], &[1u8; 16], "{name}");
            assert_eq!(&out[16..], &[2u8; 32], "{name}");
            assert_eq!(copies(&storage), 32, "chunk 1's bytes moved left once ({name})");
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// A chunk read returns only bytes it read, or zeros — on both file
    /// engines, into a lent buffer that held `0xA5` in every byte before
    /// every batch, as a recycled reply buffer holds an earlier
    /// request's bytes. Per batch: every byte of the store's buffer is
    /// the chunk file's or a zero, `lens` are exact, and the compacted
    /// reply is the dense concatenation, `read_reply_copy_bytes`
    /// counting what compaction moved.
    #[test]
    fn a_chunk_read_returns_only_bytes_it_read_or_zeros() {
        const K: u64 = 4096;
        let dir = std::env::temp_dir().join(format!("gkfs-eng-unzeroed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engines: [(&str, Arc<dyn ChunkStorage>); 2] = [
            (
                "serial",
                Arc::new(
                    FileChunkStorage::open_with(dir.join("s"), IoBackend::Auto, 0, 0).unwrap(),
                ),
            ),
            (
                "pool",
                Arc::new(
                    FileChunkStorage::open_with(dir.join("p"), IoBackend::Auto, 4, 64).unwrap(),
                ),
            ),
        ];
        // What each chunk file holds — `(offset written at, bytes)`,
        // never a zero byte — and no file for chunk 9. Chunk 1 is
        // sparse: a hole below 3000.
        let bytes = |seed: u64, n: u64| {
            (0..n)
                .map(|i| ((i + seed) % 255 + 1) as u8)
                .collect::<Vec<u8>>()
        };
        let chunks: Vec<(u64, u64, Vec<u8>)> = vec![
            (0, 0, bytes(0, 1000)),
            (1, 3000, bytes(1, 100)),
            (2, 0, bytes(2, K)),
            (3, 0, bytes(3, K)),
            (4, 0, bytes(4, 1500)),
            (5, 0, bytes(5, K)),
            (6, 0, bytes(6, K)),
            (7, 0, bytes(7, K)),
        ];
        // The chunk file's bytes under `[offset, offset + len)`, up to its EOF.
        let file_bytes = |id: u64, offset: u64, len: u64| -> Vec<u8> {
            let Some((_, at, data)) = chunks.iter().find(|c| c.0 == id) else {
                return Vec::new();
            };
            let mut whole = vec![0u8; *at as usize];
            whole.extend_from_slice(data);
            let end = whole.len().min((offset + len) as usize);
            whole.get(offset as usize..end).unwrap_or_default().to_vec()
        };
        // One short read each, with the bytes compaction then moves.
        let eof_in_op: &[_] = &[(0, 0, K)];
        let eof_in_run: &[_] = &[(0, 0, 512), (0, 512, 512), (0, 1024, 512), (2, 0, 64)];
        let sparse_hole: &[_] = &[(1, 0, K)];
        let no_file: &[_] = &[(9, 0, K), (2, 0, 16)];
        // Fanned out over segments, a short op (chunk 4) in the middle.
        let fan_out: Vec<_> = (2..8).map(|id| (id, 0, K)).collect();
        let batches = [
            (eof_in_op, 0),
            (eof_in_run, 64),
            (sparse_hole, 0),
            (no_file, 16),
            (&fan_out[..], 3 * K),
        ];
        for (name, storage) in &engines {
            for (id, at, data) in &chunks {
                storage.write_chunk("/u", *id, *at, data).unwrap();
            }
            for (specs, moved) in batches {
                let ops = layout(specs);
                let want: Vec<Vec<u8>> = ops
                    .iter()
                    .map(|o| file_bytes(o.chunk_id, o.offset, o.len))
                    .collect();
                let total = ops.iter().map(|o| o.len as usize).sum::<usize>();
                let mut lent = Vec::new();
                let fill = |lent: &mut Vec<u8>| {
                    lent.clear();
                    lent.resize(total, 0xA5);
                };

                fill(&mut lent);
                let got = storage.read_batch("/u", &ops, &mut lent).unwrap();
                let lens: Vec<u64> = want.iter().map(|w| w.len() as u64).collect();
                assert_eq!(got, lens, "{name} {specs:?}");
                assert_eq!(lent.len(), total, "{name} {specs:?}");
                for (op, w) in ops.iter().zip(&want) {
                    let window = &lent[op.buf_offset as usize..][..op.len as usize];
                    assert_eq!(
                        &window[..w.len()],
                        &w[..],
                        "{name} {op:?}: the file's bytes"
                    );
                    assert!(
                        window[w.len()..].iter().all(|&b| b == 0),
                        "{name} {op:?}: then zeros"
                    );
                }

                fill(&mut lent);
                let before = copies(storage);
                let got = read_batch(storage, "/u", &ops, &mut lent).unwrap();
                assert_eq!(lent, want.concat(), "{name} {specs:?}: the dense reply");
                assert_eq!(got, lens, "{name} {specs:?}");
                assert_eq!(
                    copies(storage) - before,
                    moved,
                    "{name} {specs:?}: bytes moved"
                );
            }
        }
        let pool = engines[1].1.stats();
        let tasks = pool.chunk_tasks_spawned.load(Ordering::Relaxed)
            + pool.chunk_inline_runs.load(Ordering::Relaxed);
        assert!(tasks > 0, "the pool engine fanned a batch out");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_read_batch_rejected() {
        let storage: Arc<dyn ChunkStorage> = Arc::new(MemChunkStorage::new());
        let ops = layout(&[(0, 0, MAX_READ_BATCH_BYTES + 1)]);
        assert!(matches!(
            read(&storage, "/big", &ops),
            Err(GkfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn wrapping_len_sum_rejected() {
        let storage: Arc<dyn ChunkStorage> = Arc::new(MemChunkStorage::new());
        // Lens summing past 2^64: an unchecked (wrapping) total would
        // come out tiny and pass the size cap while the segment
        // windows stay huge.
        let ops = vec![
            BatchOp { chunk_id: 0, offset: 0, len: u64::MAX, buf_offset: 0 },
            BatchOp { chunk_id: 1, offset: 0, len: 3, buf_offset: u64::MAX },
        ];
        assert!(matches!(
            read(&storage, "/wrap", &ops),
            Err(GkfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn non_dense_layout_rejected() {
        let storage: Arc<dyn ChunkStorage> = Arc::new(MemChunkStorage::new());
        let ops = vec![BatchOp { chunk_id: 0, offset: 0, len: 8, buf_offset: 4 }];
        assert!(matches!(
            read(&storage, "/hole", &ops),
            Err(GkfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn concurrent_batches_from_many_handler_threads() {
        let dir = std::env::temp_dir().join(format!("gkfs-eng-conc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage: Arc<dyn ChunkStorage> =
            Arc::new(FileChunkStorage::open_with(&dir, IoBackend::Auto, 4, 64).unwrap());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let storage = storage.clone();
                s.spawn(move || {
                    let path = format!("/t{t}");
                    let ops = layout(&[(0, 0, 128), (1, 0, 128), (2, 0, 128)]);
                    let bulk = vec![t as u8; 384];
                    for _ in 0..20 {
                        storage.write_batch(&path, &ops, &bulk).unwrap();
                        let (out, lens) = read(&storage, &path, &ops).unwrap();
                        assert_eq!(lens, vec![128; 3]);
                        assert!(out.iter().all(|&b| b == t as u8));
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
