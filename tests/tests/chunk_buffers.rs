//! A daemon's chunk buffers are its own: over TCP, every inbound frame
//! larger than `SMALL_FRAME` and every pooled reply's bulk comes from
//! one bounded set per server, which allocates only what its traffic
//! needs at once. Two daemons serve 200 sequential 1 MiB `pwrite` +
//! `pread` pairs — 800 chunk frames and replies — and each daemon's set
//! allocates at most its bound, `handler_threads + 2` buffers (before
//! the set, each of them was an allocation of its own). Counted from
//! `/proc/self/task`, none of it starts a thread. Its own test binary:
//! the census is the process's, and no other test may be starting
//! threads while it is taken.

#![cfg(target_os = "linux")]

use gekkofs::{ClusterConfig, Daemon, DaemonConfig, OpenFlags, TcpCluster};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const DAEMONS: usize = 2;
const CHUNK: u64 = 512 * 1024;
const MIB: usize = 1 << 20;

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Buffers daemon `d`'s set has allocated.
fn fresh(d: &Daemon) -> u64 {
    d.rpc_stats().chunk_bufs_fresh.load(Ordering::Relaxed)
}

#[test]
fn two_hundred_mib_writes_and_reads_allocate_at_most_the_sets_bound_and_no_thread() {
    let config = ClusterConfig::new(DAEMONS).with_chunk_size(CHUNK);
    let daemons: Vec<Arc<Daemon>> = (0..DAEMONS)
        .map(|_| Daemon::spawn(DaemonConfig { chunk_size: CHUNK, ..DaemonConfig::default() }).unwrap())
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.serve_tcp("127.0.0.1:0").unwrap()).collect();
    let fs = TcpCluster::mount_remote(&addrs, &config).unwrap();
    let before = threads();

    let h = fs.open_handle("/bufs", OpenFlags::RDWR.with_create()).unwrap();
    for i in 0..200 {
        let data = vec![i as u8; MIB];
        let at = (i % 8 * MIB) as u64;
        assert_eq!(h.pwrite(at, &data).unwrap(), MIB);
        assert!(h.pread(at, MIB).unwrap() == data, "pair {i}");
    }
    h.close().unwrap();

    for (n, d) in daemons.iter().enumerate() {
        let stats = d.rpc_stats();
        assert!(stats.served_pooled.load(Ordering::Relaxed) >= 200, "daemon {n} served chunk frames");
        let bound = d.config().handler_threads as u64 + 2;
        assert!(fresh(d) <= bound, "daemon {n}: {} fresh chunk buffers, bound {bound}", fresh(d));
    }
    assert_eq!(threads(), before, "the traffic started no thread");
    drop(fs);
    for d in &daemons {
        d.shutdown();
    }
}
