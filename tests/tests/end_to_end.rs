//! End-to-end scenarios across the full stack, on both transports.

use gekkofs::cluster::TcpCluster;
use gekkofs::{Cluster, ClusterConfig, FileKind, GkfsError, OpenFlags, Whence};
use gkfs_integration::{payload, small_chunk_cluster};

#[test]
fn checkpoint_restart_scenario() {
    // The burst-buffer use case from the paper's intro: ranks dump
    // checkpoints, a later phase reads them back.
    let cluster = small_chunk_cluster(8, 64 * 1024).unwrap();
    let ranks = 16;
    let ckpt = payload(300_000, 42);

    // Rank 0 lays out the directory tree (directories are objects in
    // the flat namespace; readdir needs the object to exist).
    {
        let fs = cluster.mount().unwrap();
        fs.mkdir("/ckpt", 0o755).unwrap();
        fs.mkdir("/ckpt/step-1", 0o755).unwrap();
    }

    // Phase 1: every rank writes its checkpoint concurrently.
    std::thread::scope(|s| {
        for rank in 0..ranks {
            let cluster = &cluster;
            let ckpt = &ckpt;
            s.spawn(move || {
                let fs = cluster.mount().unwrap();
                let path = format!("/ckpt/step-1/rank-{rank:04}");
                let h = fs
                    .open_handle(&path, OpenFlags::WRONLY.with_create().with_exclusive())
                    .unwrap();
                h.pwrite(0, ckpt).unwrap();
                h.close().unwrap();
            });
        }
    });

    // Phase 2: a fresh client (the "restarted job") reads them all.
    let fs = cluster.mount().unwrap();
    for rank in 0..ranks {
        let path = format!("/ckpt/step-1/rank-{rank:04}");
        let h = fs.open_handle(&path, OpenFlags::RDONLY).unwrap();
        // The open-time stat seeds the handle's size cache; the read
        // itself pays no further stat round trip.
        assert_eq!(h.size(), ckpt.len() as u64);
        let back = h.pread(0, ckpt.len()).unwrap();
        assert_eq!(back, ckpt, "rank {rank} checkpoint corrupted");
        h.close().unwrap();
    }

    // The namespace lists all checkpoints (readdir broadcast).
    let entries = fs.readdir("/ckpt/step-1").unwrap();
    assert_eq!(entries.len(), ranks);
    cluster.shutdown();
}

#[test]
fn producer_consumer_pipeline() {
    // Data-driven workflow: producer writes records, consumer reads
    // them from another client as soon as sizes are published.
    let cluster = small_chunk_cluster(4, 16 * 1024).unwrap();
    let producer = cluster.mount().unwrap();
    let consumer = cluster.mount().unwrap();

    let prod = producer
        .open_handle("/pipe/records", OpenFlags::WRONLY.with_create().with_exclusive())
        .unwrap();
    let record = payload(10_000, 7);
    for i in 0..20u64 {
        prod.pwrite(i * record.len() as u64, &record).unwrap();
        prod.flush().unwrap();
        // Strong single-file consistency: once flushed, the consumer
        // immediately sees the new size and the data. Cross-client
        // growth is a re-open event under the handle contract, so the
        // consumer opens a fresh handle per record.
        let size = consumer.stat("/pipe/records").unwrap().size;
        assert_eq!(size, (i + 1) * record.len() as u64);
        let h = consumer.open_handle("/pipe/records", OpenFlags::RDONLY).unwrap();
        let back = h.pread(i * record.len() as u64, record.len()).unwrap();
        assert_eq!(back, record);
    }
    prod.close().unwrap();
    cluster.shutdown();
}

#[test]
fn same_behaviour_over_tcp() {
    let config = ClusterConfig::new(3).with_chunk_size(32 * 1024);
    let cluster = TcpCluster::deploy(config.clone()).unwrap();
    let fs = cluster.mount().unwrap();

    fs.mkdir("/t", 0o755).unwrap();
    let data = payload(200_000, 99);
    let h = fs
        .open_handle("/t/blob", OpenFlags::WRONLY.with_create())
        .unwrap();
    h.pwrite(0, &data).unwrap();
    h.close().unwrap();

    // Second client over fresh connections sees everything.
    let fs2 = TcpCluster::mount_remote(cluster.addrs(), &config).unwrap();
    let h2 = fs2.open_handle("/t/blob", OpenFlags::RDONLY).unwrap();
    assert_eq!(h2.pread(0, data.len()).unwrap(), data);
    assert_eq!(fs2.readdir("/t").unwrap().len(), 1);

    // Partial reads at unaligned offsets over the wire.
    let mid = h2.pread(33_333, 44_444).unwrap();
    assert_eq!(mid, &data[33_333..33_333 + 44_444]);
    h2.close().unwrap();

    fs2.unlink("/t/blob").unwrap();
    assert!(matches!(fs.stat("/t/blob"), Err(GkfsError::NotFound)));
    cluster.shutdown();
}

#[test]
fn bulk_metadata_plane_over_tcp() {
    // BatchMeta frames cross real sockets: bulk creates land visible
    // to a second client over fresh connections, unary creates mix
    // with them, and bulk unlink empties the directory.
    let config = ClusterConfig::new(2);
    let cluster = TcpCluster::deploy(config.clone()).unwrap();
    let fs = cluster.mount().unwrap();

    fs.mkdir("/bm", 0o755).unwrap();
    let paths: Vec<String> = (0..30).map(|i| format!("/bm/f{i:02}")).collect();
    for r in fs.create_many(&paths, 0o644).unwrap() {
        r.unwrap();
    }
    // Duplicate bulk create reports Exists per op, not a frame error.
    for r in fs.create_many(&paths[..3], 0o644).unwrap() {
        assert!(matches!(r, Err(GkfsError::Exists)));
    }

    let fs2 = TcpCluster::mount_remote(cluster.addrs(), &config).unwrap();
    for r in fs2.stat_many(&paths).unwrap() {
        assert_eq!(r.unwrap().size, 0);
    }
    assert_eq!(fs2.readdir("/bm").unwrap().len(), paths.len());

    // Unary creates beside the bulk ones, listed and unlinked with them.
    fs2.create("/bm/unary-a", 0o644).unwrap();
    fs2.create("/bm/unary-b", 0o644).unwrap();
    assert_eq!(fs2.readdir("/bm").unwrap().len(), paths.len() + 2);

    let mut all = paths.clone();
    all.push("/bm/unary-a".into());
    all.push("/bm/unary-b".into());
    for r in fs.unlink_many(&all).unwrap() {
        r.unwrap();
    }
    assert!(fs2.readdir("/bm").unwrap().is_empty());
    cluster.shutdown();
}

#[test]
fn descriptor_semantics_full_matrix() {
    let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
    let fs = cluster.mount().unwrap();

    // O_EXCL create, dup sharing offsets, append interleave.
    let fd = fs
        .open("/m", OpenFlags::RDWR.with_create().with_exclusive())
        .unwrap();
    let fd2 = fs.dup(fd).unwrap();
    fs.write(fd, b"aaaa").unwrap();
    // dup'd fd shares the file offset.
    assert_eq!(fs.files().get(fd2).unwrap().pos(), 4);
    fs.write(fd2, b"bbbb").unwrap();
    fs.lseek(fd, 0, Whence::Set).unwrap();
    assert_eq!(fs.read(fd, 8).unwrap(), b"aaaabbbb");

    // Close one; the other still works.
    fs.close(fd).unwrap();
    assert_eq!(fs.pread(fd2, 4, 4).unwrap(), b"bbbb");
    fs.close(fd2).unwrap();

    // Read-only fd refuses writes; write-only refuses reads.
    let ro = fs.open("/m", OpenFlags::RDONLY).unwrap();
    assert!(matches!(fs.write(ro, b"x"), Err(GkfsError::BadFileDescriptor)));
    let wo = fs.open("/m", OpenFlags::WRONLY).unwrap();
    assert!(matches!(fs.read(wo, 1), Err(GkfsError::BadFileDescriptor)));
    fs.close(ro).unwrap();
    fs.close(wo).unwrap();
    cluster.shutdown();
}

#[test]
fn flat_namespace_properties() {
    // GekkoFS keeps a flat keyspace: files can be created under paths
    // whose parent "directories" were never made — exactly what lets
    // single-directory mdtest scale (§IV-A).
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let fs = cluster.mount().unwrap();
    fs.create("/never/made/dirs/file", 0o644).unwrap();
    assert_eq!(fs.stat("/never/made/dirs/file").unwrap().kind, FileKind::File);

    // readdir of root still only lists direct children that exist as
    // objects.
    let root: Vec<String> = fs.readdir("/").unwrap().into_iter().map(|e| e.name).collect();
    assert!(!root.contains(&"never".to_string()), "no implicit dirs");

    // Path normalization: the same object through messy spellings.
    let h = fs
        .open_handle("/never/made/dirs/../dirs/file", OpenFlags::WRONLY)
        .unwrap();
    h.pwrite(0, b"x").unwrap();
    h.close().unwrap();
    assert_eq!(fs.stat("/never//made/./dirs/file").unwrap().size, 1);
    cluster.shutdown();
}

#[test]
fn large_striped_file_integrity() {
    // One big file striped over every daemon, verified byte-exact
    // through unaligned windows.
    let cluster = small_chunk_cluster(8, 8 * 1024).unwrap();
    let fs = cluster.mount().unwrap();
    let data = payload(1_000_000, 1234);
    let h = fs
        .open_handle("/big", OpenFlags::RDWR.with_create().with_exclusive())
        .unwrap();
    // Write in scattered order.
    let step = 100_000;
    let mut order: Vec<usize> = (0..10).collect();
    order.reverse();
    for i in order {
        let start = i * step;
        h.pwrite(start as u64, &data[start..start + step]).unwrap();
    }
    assert_eq!(fs.stat("/big").unwrap().size, 1_000_000);
    for (off, len) in [(0usize, 1_000_000usize), (1, 999_999), (123_456, 500_000), (999_000, 1000)] {
        let back = h.pread(off as u64, len).unwrap();
        assert_eq!(back, &data[off..off + len], "window {off}+{len}");
    }
    h.close().unwrap();
    // Every daemon holds some chunks.
    let with_data = fs
        .cluster_stats()
        .unwrap()
        .iter()
        .filter(|s| s.storage_write_bytes > 0)
        .count();
    assert_eq!(with_data, 8, "1 MB over 8 KiB chunks must hit all 8 nodes");
    cluster.shutdown();
}
