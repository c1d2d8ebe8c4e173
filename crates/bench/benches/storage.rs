//! Chunk-storage microbenchmarks: the one-file-per-chunk layer on both
//! backends.

use criterion::{criterion_group, criterion_main, Criterion};
use bytes::Bytes;
use gkfs_storage::{BatchOp, BatchPayload, ChunkStorage, FileChunkStorage, MemChunkStorage};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_backend(c: &mut Criterion, name: &str, storage: &dyn ChunkStorage) {
    let chunk = vec![0xA5u8; 512 * 1024];
    let i = AtomicU64::new(0);
    c.bench_function(format!("storage/{name}/write_512k_chunk"), |b| {
        b.iter(|| {
            let n = i.fetch_add(1, Ordering::Relaxed);
            storage.write_chunk("/bench/file", n, 0, &chunk).unwrap();
        })
    });
    // Prepare a chunk for reads.
    storage.write_chunk("/bench/read", 0, 0, &chunk).unwrap();
    c.bench_function(format!("storage/{name}/read_512k_chunk"), |b| {
        b.iter(|| {
            black_box(storage.read_chunk("/bench/read", 0, 0, 512 * 1024).unwrap());
        })
    });
    c.bench_function(format!("storage/{name}/read_8k_random_offset"), |b| {
        b.iter(|| {
            let n = i.fetch_add(13, Ordering::Relaxed);
            let off = (n * 8192) % (504 * 1024);
            black_box(storage.read_chunk("/bench/read", 0, off, 8192).unwrap());
        })
    });
}

/// One daemon-side chunk batch: `(chunk_id, offset, len)` per op, all
/// ops 64 KiB here — the shape a striped 1 MiB client request takes
/// after the distributor fans it out.
const BATCH_OP: usize = 64 * 1024;

fn layout(ops: &[(u64, u64, u64)]) -> Vec<BatchOp> {
    let mut cursor = 0;
    ops.iter()
        .map(|&(chunk_id, offset, len)| {
            let op = BatchOp { chunk_id, offset, len, buf_offset: cursor };
            cursor += len;
            op
        })
        .collect()
}

fn batch_write(s: &dyn ChunkStorage, path: &str, ops: &[(u64, u64, u64)], bulk: &Bytes) {
    s.submit_batch(path, &layout(ops), BatchPayload::Write(bulk.clone()))
        .wait()
        .unwrap();
}

fn batch_read(s: &dyn ChunkStorage, path: &str, ops: &[(u64, u64, u64)]) -> Vec<u8> {
    s.submit_batch(path, &layout(ops), BatchPayload::Read).wait().unwrap().data
}

/// Multi-chunk batches: 1/4/16/64 chunks per request, mirroring the
/// daemon's `WriteChunks`/`ReadChunks` handlers.
fn bench_batches(c: &mut Criterion, name: &str, storage: &dyn ChunkStorage) {
    let chunk = vec![0xC3u8; BATCH_OP];
    for id in 0..64u64 {
        storage.write_chunk("/bench/batch", id, 0, &chunk).unwrap();
    }
    let bulk = Bytes::from(vec![0x5Au8; BATCH_OP * 64]);
    for n in [1usize, 4, 16, 64] {
        let ops: Vec<(u64, u64, u64)> =
            (0..n as u64).map(|id| (id, 0, BATCH_OP as u64)).collect();
        c.bench_function(format!("storage/{name}/batch_write_{n}x64k"), |b| {
            let bulk = bulk.slice(..n * BATCH_OP);
            b.iter(|| batch_write(storage, "/bench/batch", &ops, &bulk))
        });
        c.bench_function(format!("storage/{name}/batch_read_{n}x64k"), |b| {
            b.iter(|| black_box(batch_read(storage, "/bench/batch", &ops)))
        });
    }
}

fn bench_storages(c: &mut Criterion) {
    let mem = MemChunkStorage::new();
    bench_backend(c, "mem", &mem);
    bench_batches(c, "mem", &mem);

    let dir = std::env::temp_dir().join(format!("gkfs-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = FileChunkStorage::open(&dir).unwrap();
    bench_backend(c, "file", &file);
    bench_batches(c, "file", &file);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_storages
}
criterion_main!(benches);
