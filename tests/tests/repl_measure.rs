//! Replication measurement harness — the numbers behind the
//! "Replication: recovery time and hedged-read tail latency" section
//! of `EXPERIMENTS.md`.
//!
//! These are `#[ignore]`d: they print measurements rather than assert
//! tight bounds (wall-clock on a shared-core in-process cluster is
//! machine-dependent). Regenerate the tables with
//!
//! ```sh
//! cargo test -p gkfs-integration --release --test repl_measure -- \
//!     --ignored --nocapture --test-threads=1
//! ```
//!
//! (`--test-threads=1`: each measurement deploys its own cluster, and
//! concurrent clusters on shared cores skew each other's clocks.)

use gekkofs::{Cluster, ClusterConfig, GekkoClient, OpenFlags, ReplicationConfig};
use gkfs_common::Distributor;
use gkfs_rpc::Endpoint;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNK: u64 = 2048;

fn config(nodes: usize) -> ClusterConfig {
    ClusterConfig::new(nodes)
        .with_chunk_size(CHUNK)
        .with_replication(ReplicationConfig {
            replicas: 2,
            write_quorum: 1,
            hedge_after_ms: 15,
            heartbeat_interval_ms: 20,
            suspect_after_ms: 60,
            dead_after_ms: 150,
        })
}

fn payload(seed: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64) >> 3) as u8).collect()
}

fn write_files(fs: &GekkoClient, count: usize, size: usize) -> Vec<(String, Vec<u8>)> {
    (0..count)
        .map(|i| {
            let path = format!("/m/f{i}");
            let data = payload(i as u64, size);
            let h = fs.open_handle(&path, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, &data).unwrap();
            h.close().unwrap();
            (path, data)
        })
        .collect()
}

/// Byte-compare `node`'s backends against every replica-set share it
/// should hold (same predicate the chaos suite gates on).
fn holds_share(cluster: &Cluster, node: usize, files: &[(String, Vec<u8>)], cfg: &ClusterConfig) -> bool {
    let dist = Distributor::new(cfg.nodes);
    let replicas = cfg.replication.replicas;
    let d = cluster.daemon(node);
    for (path, data) in files {
        if dist.metadata_replicas(path, replicas).contains(&node)
            && !gkfs_integration::holds_meta(d, path)
        {
            return false;
        }
        for c in 0..(data.len() as u64).div_ceil(CHUNK) {
            if !dist.chunk_replicas(path, c, replicas).contains(&node) {
                continue;
            }
            let lo = (c * CHUNK) as usize;
            let hi = data.len().min(lo + CHUNK as usize);
            match d.backends().data.read_chunk(path, c, 0, (hi - lo) as u64) {
                Ok(bytes) if bytes == data[lo..hi] => {}
                _ => return false,
            }
        }
    }
    true
}

/// Drain-back recovery time vs data volume: kill a node, write while
/// degraded, rejoin, and time from `rejoin()` until the node's whole
/// share is byte-verified back in place.
#[test]
#[ignore = "measurement harness; run with --ignored --nocapture in release"]
fn measure_recovery_time() {
    println!("| files x size | volume | recovery (drain-back) |");
    println!("|---|---|---|");
    for (count, size) in [(8usize, 16 * 1024usize), (32, 16 * 1024), (32, 64 * 1024)] {
        let cfg = config(3);
        let mut cluster = Cluster::deploy(cfg.clone()).unwrap();
        let fs = cluster.mount().unwrap();
        let mut files = write_files(&fs, count, size);
        cluster.kill(1);
        // Degraded writes land with one replica; drain-back must carry
        // them to the rejoined node too.
        for (i, (path, data)) in files.iter_mut().enumerate().take(count / 2) {
            let extra = payload(0xD06 + i as u64, CHUNK as usize);
            let h = fs.open_handle(path, OpenFlags::WRONLY).unwrap();
            h.pwrite(data.len() as u64, &extra).unwrap();
            h.close().unwrap();
            data.extend_from_slice(&extra);
        }
        cluster.rejoin(1).unwrap();
        let t0 = Instant::now();
        let mut last_dbg = Instant::now();
        while !holds_share(&cluster, 1, &files, &cfg) {
            if last_dbg.elapsed() > Duration::from_secs(2) {
                last_dbg = Instant::now();
                for (n, s) in fs.cluster_stats().unwrap().iter().enumerate() {
                    eprintln!(
                        "dbg node {n}: under={} backlog={} chunks={} meta={} hb={}/{}",
                        s.under_replicated_chunks, s.repl_backlog, s.repl_chunks_copied,
                        s.repl_meta_copied, s.heartbeats_sent, s.heartbeats_received
                    );
                }
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "no convergence");
            std::thread::sleep(Duration::from_millis(5));
        }
        let volume: usize = files.iter().map(|(_, d)| d.len()).sum();
        println!(
            "| {count} x {} KiB | {:.1} MiB | {:.0} ms |",
            size / 1024,
            volume as f64 / (1024.0 * 1024.0),
            t0.elapsed().as_secs_f64() * 1e3
        );
        cluster.shutdown();
    }
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// Open every file once, then time `pread` alone for `rounds` passes.
/// The open-time stat is excluded on purpose: it is paid once per
/// handle in real workloads, and it is not a hedged path.
fn pread_latencies(
    fs: &GekkoClient,
    files: &[(String, Vec<u8>)],
    rounds: usize,
) -> Vec<Duration> {
    let handles: Vec<(gekkofs::FileHandle<'_>, &Vec<u8>)> = files
        .iter()
        .map(|(path, data)| (fs.open_handle(path, OpenFlags::RDONLY).unwrap(), data))
        .collect();
    let mut v = Vec::new();
    for _ in 0..rounds {
        for (h, data) in &handles {
            let t = Instant::now();
            assert_eq!(h.pread(0, data.len()).unwrap(), **data);
            v.push(t.elapsed());
        }
    }
    v.sort_unstable();
    v
}

/// Endpoint whose replies are late but whose submission is instant:
/// the latency lands in the *wait*, where the hedge timer runs.
/// (`ChaosEndpoint`'s delay fault sleeps inside `submit`, which blocks
/// the hedging thread itself — wrong regime for this measurement.)
struct SlowEndpoint {
    inner: Arc<dyn Endpoint>,
    delay: Duration,
}

impl Endpoint for SlowEndpoint {
    fn submit(&self, req: gkfs_rpc::Request) -> gkfs_common::Result<gkfs_rpc::ReplyHandle> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let inner = self.inner.clone();
        let delay = self.delay;
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            let _ = tx.send(inner.call(req));
        });
        Ok(gkfs_rpc::ReplyHandle::pending(rx))
    }
    fn timeout(&self) -> Duration {
        self.inner.timeout()
    }
}

/// Hedged-read latency across failure regimes: all replicas alive,
/// primary freshly killed, primary marked Dead, and a slow-but-alive
/// primary with and without hedging.
#[test]
#[ignore = "measurement harness; run with --ignored --nocapture in release"]
fn measure_hedged_read_tail() {
    let cfg = config(3);
    let cluster = Cluster::deploy(cfg.clone()).unwrap();
    let fs = cluster.mount().unwrap();
    let files = write_files(&fs, 24, 2 * CHUNK as usize);

    let alive = pread_latencies(&fs, &files, 8);
    cluster.kill(2);
    // First pass right after the kill: an in-process kill surfaces
    // `ShuttingDown` synchronously, so failover is immediate — the
    // hedge timer never arms.
    let fresh = pread_latencies(&fs, &files, 2);
    // Wait until the client detector holds node 2 Dead, then measure
    // the steady state (the read chain skips the primary up front).
    let t0 = Instant::now();
    while fs.node_health()[2].liveness != gekkofs::Liveness::Dead {
        assert!(t0.elapsed() < Duration::from_secs(5), "node 2 never marked Dead");
        std::thread::sleep(Duration::from_millis(10));
    }
    let marked = pread_latencies(&fs, &files, 8);
    cluster.shutdown();

    // Slow-but-alive primary — the regime the hedge timer exists for.
    // Node 2 answers correctly but 30 ms late; one client hedges
    // (replicas = 2, hedge at 15 ms), one does not (replicas = 1).
    // The hedged tail is bounded near `hedge_after` + a replica read;
    // the unhedged tail eats the full delay.
    const SLOW: Duration = Duration::from_millis(30);
    let cluster = Cluster::deploy(cfg.clone()).unwrap();
    let fs = cluster.mount().unwrap();
    let files = write_files(&fs, 24, 2 * CHUNK as usize);
    let delayed: Vec<Arc<dyn Endpoint>> = (0..3)
        .map(|n| -> Arc<dyn Endpoint> {
            let ep = cluster.daemon(n).endpoint();
            if n == 2 {
                Arc::new(SlowEndpoint { inner: ep, delay: SLOW })
            } else {
                ep
            }
        })
        .collect();
    let hedged = GekkoClient::mount(delayed.clone(), &cfg).unwrap();
    let unhedged =
        GekkoClient::mount(delayed, &ClusterConfig::new(3).with_chunk_size(CHUNK)).unwrap();
    let slow_hedged = pread_latencies(&hedged, &files, 8);
    let slow_unhedged = pread_latencies(&unhedged, &files, 8);

    println!("| regime | p50 | p99 | max |");
    println!("|---|---|---|---|");
    for (name, lat) in [
        ("all replicas alive", &alive),
        ("primary freshly killed (fails fast, immediate failover)", &fresh),
        ("primary marked Dead (chain skips it)", &marked),
        ("primary alive but 30 ms slow, hedged reads", &slow_hedged),
        ("primary alive but 30 ms slow, no hedging", &slow_unhedged),
    ] {
        println!(
            "| {name} | {:.2} ms | {:.2} ms | {:.2} ms |",
            percentile(lat, 0.50),
            percentile(lat, 0.99),
            percentile(lat, 1.0)
        );
    }
    cluster.shutdown();
}

