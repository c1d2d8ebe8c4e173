//! KV-store microbenchmarks with no twin in the ledger: contention
//! (mixed put/get from 1–8 threads), a flush storm, and a prefix scan.
//!
//! The single-threaded point costs — put, get (hit and miss), merge,
//! a 64-record batch — are the ledger's `kv.put_us` / `kv.get_us` /
//! `kv.merge_us` / `kv.batch64_us` probes (`ledger/src/probes.rs`),
//! taken on the daemon's own options; they are not timed a second
//! time here.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gkfs_kvstore::{Db, DbOptions};
use std::hint::black_box;
use std::sync::Arc;

fn opts() -> DbOptions {
    DbOptions {
        merge_operator: Some(Arc::new(gkfs_kvstore::merge::Max64MergeOperator)),
        ..DbOptions::default()
    }
}

/// Mixed put/get from N threads over one shared `Db`. The memtable is
/// kept small so flushes happen *during* the measurement — under the
/// seed's single global lock every flush stalls all N threads, which
/// is exactly the contention this bench exists to expose (and the
/// background-flush rework to remove).
fn bench_mixed_threads(c: &mut Criterion) {
    for threads in [1usize, 2, 4, 8] {
        c.bench_function(format!("kvstore/mixed_put_get_{threads}t"), |b| {
            b.iter_custom(|iters| {
                let db = Db::open_memory(DbOptions {
                    memtable_bytes: 256 * 1024,
                    ..opts()
                })
                .unwrap();
                let start = std::time::Instant::now();
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let db = &db;
                        s.spawn(move || {
                            for i in 0..iters {
                                let k = format!("/mix/t{t}/f{i}");
                                if i % 2 == 0 {
                                    db.put(k.as_bytes(), b"metadata-value").unwrap();
                                } else {
                                    black_box(db.get(k.as_bytes()).unwrap());
                                }
                            }
                        });
                    }
                });
                start.elapsed()
            })
        });
    }
}

/// Flush storm: 4 writers against a tiny memtable, forcing a flush
/// every few hundred puts. Measures how badly SSTable builds block
/// foreground writers.
fn bench_flush_storm(c: &mut Criterion) {
    c.bench_function("kvstore/flush_storm_4t", |b| {
        b.iter_custom(|iters| {
            let db = Db::open_memory(DbOptions {
                memtable_bytes: 16 * 1024,
                ..opts()
            })
            .unwrap();
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for t in 0..4 {
                    let db = &db;
                    s.spawn(move || {
                        for i in 0..iters {
                            db.put(format!("/storm/t{t}/f{i}").as_bytes(), b"metadata-value")
                                .unwrap();
                        }
                    });
                }
            });
            start.elapsed()
        })
    });
}

fn bench_scan(c: &mut Criterion) {
    let db = Db::open_memory(opts()).unwrap();
    for d in 0..100 {
        for f in 0..100 {
            db.put(format!("/dir{d:02}/f{f:03}").as_bytes(), b"v").unwrap();
        }
    }
    db.compact().unwrap();
    c.bench_function("kvstore/scan_prefix_100", |b| {
        b.iter_batched(
            || (),
            |_| black_box(db.scan_prefix(b"/dir42/").unwrap()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_scan, bench_mixed_threads, bench_flush_storm
}
criterion_main!(benches);
