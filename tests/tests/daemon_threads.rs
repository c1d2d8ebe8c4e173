//! One pool per daemon. A disk-backed daemon runs `handler_threads`
//! workers — which serve its in-process endpoint, its TCP listener and
//! its chunk store's segments alike — plus its store's one background
//! thread, which flushes and compacts, and a TCP listener adds its loop
//! and standby; nothing else. And no job owns the pool it runs on: a
//! daemon dropped right after a multi-segment batch, or after
//! `shutdown`, leaves no thread behind and no panic on its pool.
//! Counted from `/proc/self/task`, by the daemon's own thread names
//! (every `gkfs-*` thread, each of them one of the kinds above): the
//! test harness's threads come and go on their own schedule. Its own
//! test binary, and the tests here take the census one at a time.

#![cfg(target_os = "linux")]

use gekkofs::{Daemon, DaemonConfig};
use gkfs_rpc::proto::{op, ChunkBatchReq, ChunkOp, Rpc};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One census at a time.
static CENSUS: Mutex<()> = Mutex::new(());

/// Names of this process's threads.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// Wait up to 10 s for the threads to satisfy `done`: a new thread
/// names itself once it runs, and a dropped daemon's threads leave as
/// they notice.
fn settles(done: impl Fn(&[String]) -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(&threads()) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

/// Threads named `prefix*`.
fn named(threads: &[String], prefix: &str) -> usize {
    threads.iter().filter(|n| n.starts_with(prefix)).count()
}

/// The daemons' threads: every `gkfs-*` thread.
fn daemons(threads: &[String]) -> usize {
    named(threads, "gkfs-")
}

/// Of those, its pool's workers, its TCP loop and standby, its store's
/// background thread.
fn known(threads: &[String]) -> usize {
    ["gkfs-handler-", "gkfs-tcp-loop", "gkfs-kv"].iter().map(|p| named(threads, p)).sum()
}

/// The daemons' threads settle at `n`, and each is of a known kind.
fn settles_at(n: usize) -> bool {
    settles(|t| daemons(t) == n && known(t) == n)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gkfs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A disk-backed daemon whose chunks are 4 KiB, so an 8 KiB write is a
/// two-segment batch on a machine of two cores or more.
fn disk_daemon(dir: &std::path::Path) -> std::sync::Arc<Daemon> {
    Daemon::spawn(DaemonConfig { root_dir: Some(dir.into()), chunk_size: 4096, ..DaemonConfig::default() }).unwrap()
}

#[test]
fn a_daemon_runs_one_pool_for_both_transports_and_its_chunk_segments() {
    let _census = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("census");
    assert!(settles_at(0), "{:?}", threads());
    let d = disk_daemon(&dir);
    let handlers = d.config().handler_threads;
    assert!(settles_at(handlers + 1), "handlers and the store's background thread: {:?}", threads());
    assert_eq!(named(&threads(), "gkfs-kv"), 1, "{:?}", threads());
    d.serve_tcp("127.0.0.1:0").unwrap();
    assert!(settles(|t| named(t, "gkfs-handler-") == handlers && named(t, "gkfs-tcp-loop") == 2), "{:?}", threads());
    let census = threads();
    assert_eq!(daemons(&census), handlers + 1 + 2, "and the loop and its standby: {census:?}");
    assert_eq!(known(&census), daemons(&census), "nothing else: {census:?}");
    assert_eq!(named(&census, "gkfs-kv"), 1, "{census:?}");
    assert_eq!(named(&census, "gkfs-chunk-io"), 0, "{census:?}");
    d.shutdown();
    drop(d);
    assert!(settles_at(0), "{:?}", threads());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_daemon_dropped_after_a_batch_or_a_shutdown_leaves_no_thread_and_no_pool_panic() {
    let _census = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for shut_down_first in [false, true] {
        let dir = scratch("drop");
        assert!(settles_at(0), "{:?}", threads());
        let d = disk_daemon(&dir);
        let pool = d.pool();
        let ep = d.endpoint();
        let batch = ChunkBatchReq {
            path: "/two-chunks".into(),
            ops: vec![ChunkOp { chunk_id: 0, offset: 0, len: 4096 }, ChunkOp { chunk_id: 1, offset: 0, len: 4096 }],
        };
        let req = op::WriteChunks::request(&batch).with_bulk(vec![7u8; 8192]);
        op::WriteChunks::reply(ep.call(req).unwrap()).unwrap();
        let st = d.backends().data.stats();
        let segments = st.chunk_tasks_spawned.load(Ordering::Relaxed) + st.chunk_inline_runs.load(Ordering::Relaxed);
        assert_eq!(segments, if cores > 1 { 2 } else { 0 }, "a two-segment batch where there are two cores");
        if shut_down_first {
            d.shutdown();
        }
        drop((ep, d));
        assert!(settles_at(0), "shut down first: {shut_down_first}: {:?}", threads());
        assert_eq!(pool.panics(), 0, "shut down first: {shut_down_first}");
        assert_eq!(pool.workers(), DaemonConfig::default().handler_threads);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
