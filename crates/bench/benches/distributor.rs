//! Distributor microbenchmarks — the per-operation placement cost.

use criterion::{criterion_group, criterion_main, Criterion};
use gkfs_common::Distributor;
use gkfs_common::hash::{fnv1a64, xxh64};
use std::hint::black_box;

fn bench_hashes(c: &mut Criterion) {
    let path = "/scratch/job-1234/checkpoints/step-000042/rank-0015.dat";
    c.bench_function("hash/xxh64_path", |b| {
        b.iter(|| black_box(xxh64(path.as_bytes(), 0)))
    });
    c.bench_function("hash/fnv1a64_path", |b| {
        b.iter(|| black_box(fnv1a64(path.as_bytes())))
    });
}

fn bench_distributor(c: &mut Criterion) {
    let path = "/scratch/job-1234/checkpoints/step-000042/rank-0015.dat";
    let d = Distributor::new(512);
    c.bench_function("distributor/metadata", |b| {
        b.iter(|| black_box(d.locate_metadata(path)))
    });
    // Chunk placement for a 64 MiB write = 128 lookups.
    c.bench_function("distributor/128_chunks", |b| {
        b.iter(|| {
            for id in 0..128u64 {
                black_box(d.locate_chunk(path, id));
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_hashes, bench_distributor
}
criterion_main!(benches);
