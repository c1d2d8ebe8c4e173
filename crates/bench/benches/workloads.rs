//! End-to-end workload benchmarks on the real file system: the §IV
//! workloads as criterion targets, so regressions in any layer (KV
//! store, RPC, client fan-out) show up as workload-level slowdowns.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gekkofs::{Cluster, ClusterConfig};
use gkfs_workloads::{
    checkpoint_trace, replay_trace, run_ior, run_mdtest, IorConfig, MdtestConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_mdtest(c: &mut Criterion) {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let round = AtomicU64::new(0);
    let mut g = c.benchmark_group("workload/mdtest");
    let files = 4 * 250;
    g.throughput(Throughput::Elements(files as u64 * 3)); // 3 phases
    g.sample_size(10);
    g.bench_function("4procs_250files", |b| {
        b.iter(|| {
            let r = round.fetch_add(1, Ordering::Relaxed);
            run_mdtest(
                || cluster.mount(),
                &MdtestConfig {
                    processes: 4,
                    files_per_process: 250,
                    work_dir: format!("/md{r}"),
                    ..MdtestConfig::default()
                },
            )
            .unwrap()
        })
    });
    g.finish();
    cluster.shutdown();
}

fn bench_ior(c: &mut Criterion) {
    let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(64 * 1024)).unwrap();
    let round = AtomicU64::new(0);
    let mut g = c.benchmark_group("workload/ior");
    let bytes = 4u64 * 2 * 1024 * 1024;
    g.throughput(Throughput::Bytes(bytes * 2)); // write + read
    g.sample_size(10);
    g.bench_function("4procs_2mib_64k_xfer", |b| {
        b.iter(|| {
            let r = round.fetch_add(1, Ordering::Relaxed);
            let result = run_ior(
                || cluster.mount(),
                &IorConfig {
                    processes: 4,
                    transfer_size: 64 * 1024,
                    block_size: 2 * 1024 * 1024,
                    file_per_process: true,
                    random: false,
                    work_dir: format!("/ior{r}"),
                },
            )
            .unwrap();
            // Drop this iteration's files so state (and memory in the
            // in-process backends) stays bounded across iterations.
            let fs = cluster.mount().unwrap();
            for rank in 0..4 {
                fs.unlink(&format!("/ior{r}/data.{rank}")).unwrap();
            }
            fs.rmdir(&format!("/ior{r}")).unwrap();
            result
        })
    });
    g.finish();
    cluster.shutdown();
}

fn bench_trace_replay(c: &mut Criterion) {
    let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(64 * 1024)).unwrap();
    let mut g = c.benchmark_group("workload/trace");
    g.sample_size(10);
    g.bench_function("checkpoint_4ranks_3steps", |b| {
        let round = AtomicU64::new(0);
        b.iter(|| {
            let r = round.fetch_add(1, Ordering::Relaxed);
            // Unique namespace per iteration via a prefix rewrite.
            let trace: Vec<_> = checkpoint_trace(4, 3, 128 * 1024)
                .into_iter()
                .map(|mut e| {
                    use gkfs_workloads::TraceOp::*;
                    let fix = |p: &mut String| *p = p.replace("/ckpt", &format!("/ck{r}"));
                    match &mut e.op {
                        Mkdir(p) | Create(p) | Stat(p) | Unlink(p) | Rmdir(p) | Readdir(p) => fix(p),
                        Write(p, _, _) | Read(p, _, _) | Truncate(p, _) => fix(p),
                        Barrier => {}
                    }
                    e
                })
                .collect();
            let result = replay_trace(|| cluster.mount(), 4, &trace).unwrap();
            // Purge the two retained checkpoint steps + the directory.
            let fs = cluster.mount().unwrap();
            for e in fs.readdir(&format!("/ck{r}")).unwrap() {
                fs.unlink(&format!("/ck{r}/{}", e.name)).unwrap();
            }
            fs.rmdir(&format!("/ck{r}")).unwrap();
            result
        })
    });
    g.finish();
    cluster.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_mdtest, bench_ior, bench_trace_replay
}
criterion_main!(benches);
