//! Failure behaviour: orderly shutdown, disk persistence, WAL
//! recovery, and resilience against malformed inputs.

use gekkofs::{Cluster, ClusterConfig, DaemonConfig, Daemon, GkfsError, OpenFlags};
use gkfs_integration::payload;
use gkfs_kvstore::{BlobStore, Db, DbOptions, MemBlobStore};
use std::sync::Arc;

#[test]
fn shutdown_is_orderly_and_refuses_new_work() {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let fs = cluster.mount().unwrap();
    fs.create("/pre-shutdown", 0o644).unwrap();
    cluster.shutdown();
    // All subsequent operations fail with a clean error, not a hang or
    // panic.
    assert!(matches!(
        fs.create("/post-shutdown", 0o644),
        Err(GkfsError::ShuttingDown)
    ));
    assert!(fs.stat("/pre-shutdown").is_err());
    assert!(fs.readdir("/").is_err());
}

#[test]
fn disk_backed_cluster_survives_redeploy() {
    // The "campaign" use case (§I): a temporary FS whose daemons are
    // restarted between jobs but keep their node-local state.
    let root = std::env::temp_dir().join(format!("gkfs-it-redeploy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let data = payload(100_000, 5);

    {
        let cluster = Cluster::deploy_with(ClusterConfig::new(3), |n| DaemonConfig {
            root_dir: Some(root.join(format!("node-{n}"))),
            kv_wal: true,
            ..DaemonConfig::default()
        })
        .unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs
            .open_handle("/campaign/data", OpenFlags::WRONLY.with_create())
            .unwrap();
        h.pwrite(0, &data).unwrap();
        h.close().unwrap();
        cluster.shutdown();
    }

    {
        // "Next job": fresh daemons over the same node-local dirs.
        let cluster = Cluster::deploy_with(ClusterConfig::new(3), |n| DaemonConfig {
            root_dir: Some(root.join(format!("node-{n}"))),
            kv_wal: true,
            ..DaemonConfig::default()
        })
        .unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs.open_handle("/campaign/data", OpenFlags::RDONLY).unwrap();
        assert_eq!(h.size(), data.len() as u64);
        assert_eq!(
            h.pread(0, data.len()).unwrap(),
            data,
            "campaign data must survive daemon restarts"
        );
        h.close().unwrap();
        cluster.shutdown();
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn wal_recovery_replays_unflushed_writes() {
    let store = Arc::new(MemBlobStore::new());
    let opts = DbOptions {
        wal: true,
        memtable_bytes: usize::MAX >> 1, // never auto-flush: WAL only
        ..DbOptions::default()
    };
    {
        let db = Db::open(store.clone(), opts.clone()).unwrap();
        for i in 0..500 {
            db.put(format!("/wal/{i}").as_bytes(), b"v").unwrap();
        }
        db.delete(b"/wal/13").unwrap();
        // Simulated crash: drop without flushing.
    }
    let db = Db::open(store, opts).unwrap();
    assert_eq!(db.len().unwrap(), 499);
    assert!(db.get(b"/wal/13").unwrap().is_none());
    assert_eq!(db.get(b"/wal/499").unwrap().as_deref(), Some(&b"v"[..]));
}

#[test]
fn torn_wal_tail_recovers_prefix() {
    let store = Arc::new(MemBlobStore::new());
    let opts = DbOptions {
        wal: true,
        memtable_bytes: usize::MAX >> 1,
        ..DbOptions::default()
    };
    {
        let db = Db::open(store.clone(), opts.clone()).unwrap();
        for i in 0..100 {
            db.put(format!("/t/{i:03}").as_bytes(), b"v").unwrap();
        }
    }
    // Tear the log mid-record (a crash during append).
    let log = store.read_logs().unwrap();
    store.reset_log().unwrap();
    store.append_log(&log[..log.len() - 7]).unwrap();

    let db = Db::open(store, opts).unwrap();
    let n = db.len().unwrap();
    assert_eq!(n, 99, "all complete records recover; the torn one is dropped");
}

#[test]
fn daemon_survives_malformed_rpc_bodies() {
    use gkfs_rpc::{Opcode, Request};
    let daemon = Daemon::spawn(DaemonConfig::default()).unwrap();
    let ep = daemon.endpoint();
    // Garbage bodies on every opcode: all must produce error responses,
    // never a panic or hang, and the daemon must stay serviceable.
    for op in [
        Opcode::Create,
        Opcode::Stat,
        Opcode::RemoveMeta,
        Opcode::UpdateSize,
        Opcode::TruncateMeta,
        Opcode::ReadDir,
        Opcode::WriteChunks,
        Opcode::ReadChunks,
        Opcode::RemoveChunks,
        Opcode::TruncateChunks,
    ] {
        for garbage in [vec![], vec![0xFF; 3], vec![0u8; 64], payload(33, op as u64)] {
            let resp = ep.call(Request::new(op, garbage)).unwrap();
            assert!(resp.into_result().is_err(), "{op:?} must reject garbage");
        }
    }
    // Still alive and correct afterwards.
    use gkfs_rpc::proto::{op, CreateReq, Rpc};
    let resp = ep
        .call(op::Create::request(&CreateReq {
            path: "/ok".into(),
            kind: gkfs_common::FileKind::File,
            mode: 0o644,
            exclusive: true,
            now_ns: 0,
        }))
        .unwrap();
    assert!(resp.into_result().is_ok());
    daemon.shutdown();
}

#[test]
fn partial_failure_surfaces_cleanly() {
    // Shut down ONE daemon of four: operations that land on it fail
    // with ShuttingDown; operations owned by others still work. This
    // matches the paper's no-fault-tolerance stance — failures are
    // visible, not masked.
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let fs = cluster.mount().unwrap();
    for i in 0..40 {
        fs.create(&format!("/pf/f{i}"), 0o644).unwrap();
    }
    cluster.daemon(2).shutdown();

    let mut ok = 0;
    let mut down = 0;
    for i in 0..40 {
        match fs.stat(&format!("/pf/f{i}")) {
            Ok(_) => ok += 1,
            Err(GkfsError::ShuttingDown) => down += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(ok > 0, "files on healthy daemons must remain reachable");
    assert!(down > 0, "files on the dead daemon must error cleanly");
    assert_eq!(ok + down, 40);
    cluster.shutdown();
}

#[test]
fn replication_masks_the_partial_failure_the_paper_surfaces() {
    // The replicated counterpart of `partial_failure_surfaces_cleanly`:
    // same schedule, but with 2 copies per object the dead daemon is
    // invisible — every stat fails over to the entry's replica.
    let cluster = Cluster::deploy(ClusterConfig::new(4).with_replicas(2)).unwrap();
    let fs = cluster.mount().unwrap();
    for i in 0..40 {
        fs.create(&format!("/pf/f{i}"), 0o644).unwrap();
    }
    cluster.kill(2);
    for i in 0..40 {
        fs.stat(&format!("/pf/f{i}"))
            .unwrap_or_else(|e| panic!("stat /pf/f{i} with a replica alive: {e}"));
    }
    cluster.shutdown();
}

#[test]
fn corrupted_sstable_is_detected_not_propagated() {
    use gkfs_kvstore::sstable::{Table, TableBuilder, Tag};
    let mut b = TableBuilder::new();
    for i in 0..100 {
        b.add(Tag::Put, format!("/k{i:03}").as_bytes(), b"value");
    }
    let mut blob = b.finish();
    // Flip one byte inside the data region.
    blob[10] ^= 0x80;
    let t = Table::open(Arc::new(blob)).unwrap();
    match t.get(b"/k001") {
        Err(GkfsError::Corruption(_)) => {}
        other => panic!("corruption must be detected, got {other:?}"),
    }
}
