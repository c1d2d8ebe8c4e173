//! A mount adds no thread, at scale. Sixteen daemons serve real TCP
//! sockets on loopback; a client mounts all of them and stripes writes
//! and reads of 32 chunks across them — every read a fan-out whose legs'
//! waiters receive their own chunk-sized replies. Counted from
//! `/proc/self/task`, none of it starts a thread: the client has no
//! thread of its own at all, and the daemons' are all there before the
//! first request. Its own test binary: the census is the process's, and
//! no other test may be starting threads while it is taken.
//!
//! Sixteen daemons rather than more: each brings about a dozen threads
//! of its own into this one process.

#![cfg(target_os = "linux")]

use gekkofs::{ClusterConfig, OpenFlags, TcpCluster};
use std::sync::atomic::Ordering;

const DAEMONS: usize = 16;
const CHUNK: usize = 64 * 1024;
const CHUNKS: usize = 32;

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_mount_over_sixteen_daemons_and_its_fan_outs_start_no_thread() {
    let config = ClusterConfig::new(DAEMONS).with_chunk_size(CHUNK as u64);
    let cluster = TcpCluster::deploy(config).unwrap();
    let before = threads();

    let fs = cluster.mount().unwrap();
    let data: Vec<u8> = (0..CHUNKS * CHUNK).map(|i| (i % 239) as u8).collect();
    for round in 0..4 {
        let path = format!("/threads/{round}");
        let h = fs.open_handle(&path, OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, &data).unwrap();
        assert_eq!(h.pread(0, data.len()).unwrap(), data, "{path}: a fan-out read");
        // Unaligned, so that both ends are partial chunks.
        let (off, len) = (CHUNK / 2 + 7, (CHUNKS - 1) * CHUNK);
        assert_eq!(h.pread(off as u64, len).unwrap(), data[off..off + len], "{path}");
        h.close().unwrap();
    }
    let stats = fs.cluster_stats().unwrap();
    assert_eq!(stats.iter().filter(|s| s.storage_write_bytes > 0).count(), DAEMONS, "every daemon took a chunk");
    assert_eq!(fs.stats().read_assembly_copy_bytes.load(Ordering::Relaxed), 0, "every chunk landed in place");
    assert_eq!(threads(), before, "the mount and its traffic started no thread");

    drop(fs);
    cluster.shutdown();
}
