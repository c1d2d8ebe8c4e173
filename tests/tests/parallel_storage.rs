//! Parallel-storage stress: many clients × many chunks against
//! disk-backed daemons, with and without seeded chaos.
//!
//! This is the integration-level check on the chunk task engine and
//! the fd-cached positional storage layer: concurrent striped I/O from
//! many mounts must never interleave lossily, and the data-path
//! counters (fd cache, coalescing, task engine) must be visible in
//! `cluster_stats`. The chaos variant reuses the fixed seeds from the
//! chaos suite so a red run reproduces exactly; CI runs it in release
//! mode (`--ignored`) where timing actually exercises the contended
//! paths.

use gekkofs::{ClusterConfig, Daemon, DaemonConfig, GekkoClient, OpenFlags, RetryConfig};
use gkfs_integration::payload;
use gkfs_rpc::{ChaosConfig, ChaosStats, Endpoint, EndpointOptions, Link};
use std::sync::Arc;
use std::time::Duration;

/// Same fixed fault streams as tests/tests/chaos.rs.
const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

const CHUNK: u64 = 64 * 1024;

fn disk_daemons(dir: &std::path::Path, n: usize) -> Vec<Arc<Daemon>> {
    (0..n)
        .map(|i| {
            Daemon::spawn(DaemonConfig {
                root_dir: Some(dir.join(format!("d{i}"))),
                ..DaemonConfig::default()
            })
            .unwrap()
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gkfs-parstore-{tag}-{}", std::process::id()))
}

/// Striped writes from concurrent mounts to a file-backed cluster:
/// every byte read back must match, and the storage layer's fd cache
/// must have been exercised. Debug-affordable sizes; the release
/// stress below scales the same shape up under chaos.
#[test]
fn parallel_clients_on_disk_backed_storage() {
    let dir = temp_dir("clean");
    let _ = std::fs::remove_dir_all(&dir);
    let ds = disk_daemons(&dir, 2);
    let config = ClusterConfig::new(2).with_chunk_size(CHUNK);
    let clients = 4usize;
    let chunks_per_file = 8u64;

    // Parent directory up front so the namespace stays fsck-walkable.
    {
        let eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
        let fs = GekkoClient::mount(eps, &config).unwrap();
        fs.mkdir("/stress", 0o755).unwrap();
    }

    std::thread::scope(|s| {
        for c in 0..clients {
            let ds = &ds;
            let config = &config;
            s.spawn(move || {
                let eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
                let fs = GekkoClient::mount(eps, config).unwrap();
                let p = format!("/stress/f{c}");
                let data = payload((chunks_per_file * CHUNK) as usize, c as u64 + 1);
                let h = fs
                    .open_handle(&p, OpenFlags::RDWR.with_create().with_exclusive())
                    .unwrap();
                h.pwrite(0, &data).unwrap();
                // Immediately read back through the same handle while
                // the other clients are still writing.
                let back = h.pread(0, data.len()).unwrap();
                assert_eq!(back, data, "client {c}: lossy interleaving");
                h.close().unwrap();
            });
        }
    });

    // A fresh mount sees every file, and the data-path counters are
    // plumbed all the way through the stats RPC.
    let eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
    let fs = GekkoClient::mount(eps, &config).unwrap();
    for c in 0..clients {
        let p = format!("/stress/f{c}");
        let data = payload((chunks_per_file * CHUNK) as usize, c as u64 + 1);
        let h = fs.open_handle(&p, OpenFlags::RDONLY).unwrap();
        assert_eq!(h.pread(0, data.len()).unwrap(), data);
        h.close().unwrap();
    }
    let stats = fs.cluster_stats().unwrap();
    let touches: u64 = stats.iter().map(|s| s.fd_cache_hits + s.fd_cache_misses).sum();
    assert!(touches > 0, "file backend never touched the fd cache");
    let hits: u64 = stats.iter().map(|s| s.fd_cache_hits).sum();
    assert!(hits > 0, "re-reading the same chunks must hit cached fds");

    for d in &ds {
        d.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Release-mode stress: clients × chunks × chaos seeds. Light chaos
/// plus the retry layer means most striped transfers complete; every
/// one that reports success must read back bit-exact, and the
/// namespace must be fsck-clean once the chaos stops.
#[test]
#[ignore = "release-mode stress; CI runs it via --ignored"]
fn parallel_storage_stress_under_chaos_seeds() {
    for seed in SEEDS {
        let dir = temp_dir(&format!("chaos-{seed:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = disk_daemons(&dir, 3);
        let (injectors, stats): (Vec<Arc<Link>>, Vec<Arc<ChaosStats>>) = ds
            .iter()
            .enumerate()
            .map(|(node, d)| {
                let ep = d.endpoint_with(
                    EndpointOptions::new().with_timeout(Duration::from_millis(150)),
                );
                let stats = Arc::new(ChaosStats::default());
                let chaos = ChaosConfig::light(seed ^ ((node as u64) << 32)).rule(stats.clone());
                (Link::with_rule(ep, chaos), stats)
            })
            .unzip();
        let retry = RetryConfig {
            max_attempts: 6,
            base_backoff_ms: 2,
            max_backoff_ms: 20,
            breaker_threshold: 0,
            breaker_cooldown_ms: 50,
            op_deadline_ms: 3_000,
        };
        let config = ClusterConfig::new(3)
            .with_chunk_size(CHUNK)
            .with_retry(retry);

        // Create the working directory over clean endpoints before the
        // chaos starts: files must stay reachable from "/" or the final
        // fsck would (correctly) flag their chunks as orphans.
        {
            let eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
            let fs = GekkoClient::mount(eps, &ClusterConfig::new(3).with_chunk_size(CHUNK))
                .unwrap();
            fs.mkdir("/chaos-stress", 0o755).unwrap();
        }

        let clients = 8usize;
        let chunks_per_file = 16u64; // 1 MiB striped per client
        let verified = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for c in 0..clients {
                let injectors = &injectors;
                let config = &config;
                let verified = &verified;
                s.spawn(move || {
                    let eps: Vec<Arc<dyn Endpoint>> = injectors
                        .iter()
                        .map(|e| e.clone() as Arc<dyn Endpoint>)
                        .collect();
                    let Ok(fs) = GekkoClient::mount(eps, config) else {
                        return; // mount lost to chaos: acceptable
                    };
                    let p = format!("/chaos-stress/f{c}");
                    let data = payload((chunks_per_file * CHUNK) as usize, seed ^ c as u64);
                    let Ok(h) =
                        fs.open_handle(&p, OpenFlags::RDWR.with_create().with_exclusive())
                    else {
                        return;
                    };
                    if h.pwrite(0, &data).is_err() {
                        return; // failed loudly: fine under chaos
                    }
                    // A write that claimed success must read back
                    // bit-exact — chaos may delay or fail loudly,
                    // never corrupt.
                    if let Ok(back) = h.pread(0, data.len()) {
                        assert_eq!(back, data, "seed {seed:#x}: silent corruption on {p}");
                        verified.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });

        let injected: u64 = stats.iter().map(|s| s.total()).sum();
        assert!(injected > 0, "seed {seed:#x}: chaos never fired");
        assert!(
            verified.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "seed {seed:#x}: light chaos should not defeat every transfer"
        );

        // Post-chaos: clean endpoints, consistent namespace.
        let clean: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
        let fs = GekkoClient::mount(clean, &ClusterConfig::new(3).with_chunk_size(CHUNK)).unwrap();
        let report = fs.fsck().unwrap();
        assert!(
            report.is_clean(),
            "seed {seed:#x}: post-chaos fsck not clean: {report:?}"
        );
        for d in &ds {
            d.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
