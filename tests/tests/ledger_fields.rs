//! The 24 counters the benchmark reads (`ledger/src/counters.rs`: 11
//! `ClientStats` fields, 13 `DaemonStatsResp` fields) keep their
//! meaning. One disk-backed daemon over TCP runs a fixed script — one
//! `create_many` frame of `N` paths, a write-through `pwrite` of `B`
//! bytes, a read back, a `stat_many`, then one compaction of its store
//! — and each field is checked
//! against what the script fixes: exactly where it fixes a value,
//! above zero where it only bounds one. A separate observer mount
//! carries the stats RPC, as the benchmark's does.

use gekkofs::{Daemon, GekkoClient, OpenFlags};
use gkfs_common::{ClusterConfig, DaemonConfig};
use gkfs_rpc::{Endpoint, TcpEndpoint};
use std::sync::atomic::{AtomicU64, Ordering};

const N: usize = 16;
const B: usize = 5000;

#[test]
fn the_fields_the_benchmark_reads_keep_their_meaning() {
    let root = std::env::temp_dir().join(format!("gkfs-ledger-fields-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let daemon = Daemon::spawn(DaemonConfig {
        root_dir: Some(root.clone()),
        kv_wal: true,
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = daemon.serve_tcp("127.0.0.1:0").unwrap().to_string();
    let mount = || {
        let ep = TcpEndpoint::connect(&addr).unwrap() as std::sync::Arc<dyn Endpoint>;
        GekkoClient::mount(vec![ep], &ClusterConfig::new(1)).unwrap()
    };
    let (fs, observer) = (mount(), mount());

    let paths: Vec<String> = (0..N).map(|i| format!("/f{i}")).collect();
    assert!(fs
        .create_many(&paths, 0o644)
        .unwrap()
        .iter()
        .all(Result::is_ok));
    let h = fs.open_handle(&paths[0], OpenFlags::RDWR).unwrap();
    let data: Vec<u8> = (0..B).map(|i| (i % 251) as u8).collect();
    assert_eq!(h.pwrite(0, &data).unwrap(), B);
    assert_eq!(h.pread(0, B).unwrap(), data);
    h.close().unwrap();
    assert!(fs.stat_many(&paths).unwrap().iter().all(Result::is_ok));
    daemon.backends().meta.db().compact().unwrap();

    let c = fs.stats();
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
    assert!(get(&c.rpcs_issued) > 0);
    assert_eq!(get(&c.write_ops), 1);
    assert_eq!(get(&c.bytes_written), B as u64);
    assert_eq!(
        get(&c.size_updates_sent),
        1,
        "a write-through write tells the owner its size"
    );
    assert_eq!(
        get(&c.wb_flushes),
        0,
        "a write-through mount buffers nothing"
    );
    assert_eq!(
        get(&c.meta_ops_batched),
        2 * N as u64,
        "the creates and the stats"
    );
    assert_eq!(get(&c.meta_flush_explicit), 2, "one frame each");
    for never in [
        &c.meta_flush_count,
        &c.meta_flush_bytes,
        &c.meta_flush_deadline,
        &c.meta_flush_hazard,
    ] {
        assert_eq!(get(never), 0);
    }

    let d = &observer.cluster_stats().unwrap()[0];
    assert_eq!(d.meta_batch_ops, 2 * N as u64);
    assert_eq!(d.meta_group_applies, 1, "only the creates stage a mutation");
    assert_eq!(d.kv_puts, N as u64 + 1, "the root and the files");
    assert_eq!(d.kv_merges, 1, "the size update");
    assert!(d.kv_group_commits > 0, "every write rides the log");
    assert!(d.kv_group_commit_records >= d.kv_group_commits);
    assert_eq!(
        (d.kv_flushes, d.kv_compactions),
        (1, 1),
        "the one compaction and its flush"
    );
    assert_eq!(d.kv_stall_micros, 0, "nothing backed the store up");
    assert_eq!(d.storage_write_bytes, B as u64);
    assert_eq!(
        (d.fd_cache_misses, d.fd_cache_hits),
        (1, 1),
        "the write opened the chunk file, the read found it"
    );
    assert_eq!(d.coalesced_ops, 0, "one op per batch: nothing to merge");
    assert_eq!(
        d.read_reply_copy_bytes, 0,
        "a full-length read compacts nothing"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
