//! End-to-end client benchmarks on an in-process cluster, including
//! the chunk-size ablation the paper lists as future work (§V:
//! "Investigate GekkoFS' with various chunk sizes").

use criterion::{criterion_group, criterion_main, Criterion};
use gekkofs::{Cluster, ClusterConfig, OpenFlags};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_metadata_ops(c: &mut Criterion) {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let fs = cluster.mount().unwrap();
    let i = AtomicU64::new(0);
    c.bench_function("client/create", |b| {
        b.iter(|| {
            let n = i.fetch_add(1, Ordering::Relaxed);
            fs.create(&format!("/bench/f{n}"), 0o644).unwrap();
        })
    });
    fs.create("/bench/stat-target", 0o644).unwrap();
    c.bench_function("client/stat", |b| {
        b.iter(|| black_box(fs.stat("/bench/stat-target").unwrap()))
    });
    c.bench_function("client/create_remove_cycle", |b| {
        b.iter(|| {
            let n = i.fetch_add(1, Ordering::Relaxed);
            let p = format!("/bench/tmp{n}");
            fs.create(&p, 0o644).unwrap();
            fs.unlink(&p).unwrap();
        })
    });
    cluster.shutdown();
}

fn bench_data_path(c: &mut Criterion) {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let fs = cluster.mount().unwrap();
    let h = fs
        .open_handle("/data", OpenFlags::RDWR.with_create())
        .unwrap();
    let buf_8k = vec![1u8; 8 * 1024];
    let buf_1m = vec![2u8; 1024 * 1024];
    let off = AtomicU64::new(0);
    c.bench_function("client/write_8k", |b| {
        b.iter(|| {
            let o = off.fetch_add(8 * 1024, Ordering::Relaxed);
            h.pwrite(o, &buf_8k).unwrap();
        })
    });
    c.bench_function("client/write_1m_striped", |b| {
        b.iter(|| {
            let o = off.fetch_add(1024 * 1024, Ordering::Relaxed);
            h.pwrite(o, &buf_1m).unwrap();
        })
    });
    h.pwrite(0, &buf_1m).unwrap();
    c.bench_function("client/read_8k", |b| {
        b.iter(|| black_box(h.pread(4096, 8 * 1024).unwrap()))
    });
    c.bench_function("client/read_1m_striped", |b| {
        b.iter(|| black_box(h.pread(0, 1024 * 1024).unwrap()))
    });
    h.close().unwrap();
    cluster.shutdown();
}

/// The write-back ablation: sequential 8 KiB transfers with and
/// without the per-handle buffer (64 KiB coalesces 8 transfers into
/// one chunk-aligned flush).
fn bench_write_back(c: &mut Criterion) {
    let mut group = c.benchmark_group("client/write_back_8k_seq");
    for (name, wb) in [("off", 0u64), ("64KiB", 64 * 1024)] {
        let cluster = Cluster::deploy(
            ClusterConfig::new(4)
                .with_chunk_size(512 * 1024)
                .with_write_back(wb),
        )
        .unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs
            .open_handle("/wb", OpenFlags::WRONLY.with_create())
            .unwrap();
        let buf = vec![4u8; 8 * 1024];
        let off = AtomicU64::new(0);
        group.bench_function(name, |b| {
            b.iter(|| {
                let o = off.fetch_add(8 * 1024, Ordering::Relaxed) % (64 * 1024 * 1024);
                h.pwrite(o, &buf).unwrap();
            })
        });
        h.close().unwrap();
        cluster.shutdown();
    }
    group.finish();
}

/// §V ablation: chunk size. A 4 MiB write under different chunk sizes
/// trades fan-out parallelism against per-chunk overheads.
fn bench_chunk_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("client/chunk_size_4m_write");
    let buf = vec![3u8; 4 * 1024 * 1024];
    for chunk_kib in [64u64, 256, 512, 1024, 4096] {
        let cluster = Cluster::deploy(
            ClusterConfig::new(4).with_chunk_size(chunk_kib * 1024),
        )
        .unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs
            .open_handle("/big", OpenFlags::WRONLY.with_create())
            .unwrap();
        let off = AtomicU64::new(0);
        group.bench_function(format!("{chunk_kib}KiB"), |b| {
            b.iter(|| {
                let o = off.fetch_add(4 * 1024 * 1024, Ordering::Relaxed) % (64 * 1024 * 1024);
                h.pwrite(o, &buf).unwrap();
            })
        });
        h.close().unwrap();
        cluster.shutdown();
    }
    group.finish();
}

/// Multi-chunk batches against one daemon: 64 KiB chunks on a single
/// node means an N-chunk request arrives as one `ChunkBatchReq` with N
/// ops — the exact shape the daemon's chunk task engine fans out.
fn bench_batch_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("client/batch");
    for n_chunks in [1u64, 4, 16, 64] {
        let cluster =
            Cluster::deploy(ClusterConfig::new(1).with_chunk_size(64 * 1024)).unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs
            .open_handle("/batch", OpenFlags::RDWR.with_create())
            .unwrap();
        let len = (n_chunks * 64 * 1024) as usize;
        let buf = vec![7u8; len];
        h.pwrite(0, &buf).unwrap();
        group.bench_function(format!("write_{n_chunks}chunks"), |b| {
            b.iter(|| h.pwrite(0, &buf).unwrap())
        });
        group.bench_function(format!("read_{n_chunks}chunks"), |b| {
            b.iter(|| black_box(h.pread(0, len).unwrap()))
        });
        h.close().unwrap();
        cluster.shutdown();
    }
    group.finish();
}

/// Concurrent clients hammering one daemon with 16-chunk reads; the
/// handler pool takes the requests, the chunk engine the per-chunk ops.
fn bench_concurrent_clients(c: &mut Criterion) {
    let mut group = c.benchmark_group("client/concurrent_read_1m");
    group.sample_size(10);
    for n_clients in [1usize, 4, 8] {
        let cluster =
            Cluster::deploy(ClusterConfig::new(1).with_chunk_size(64 * 1024)).unwrap();
        let buf = vec![9u8; 1024 * 1024];
        let mounts: Vec<_> = (0..n_clients)
            .map(|i| {
                let fs = cluster.mount().unwrap();
                let p = format!("/c{i}");
                let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
                h.pwrite(0, &buf).unwrap();
                h.close().unwrap();
                (fs, p)
            })
            .collect();
        let handles: Vec<_> = mounts
            .iter()
            .map(|(fs, p)| fs.open_handle(p, OpenFlags::RDONLY).unwrap())
            .collect();
        group.bench_function(format!("{n_clients}clients"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for h in &handles {
                        s.spawn(move || black_box(h.pread(0, 1024 * 1024).unwrap()));
                    }
                });
            })
        });
        drop(handles);
        cluster.shutdown();
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_metadata_ops, bench_data_path, bench_write_back, bench_chunk_size, bench_batch_io, bench_concurrent_clients
}
criterion_main!(benches);
