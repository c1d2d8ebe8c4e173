//! Consistency semantics from §III-A, verified as behaviour:
//! strong consistency for single-file operations, eventual consistency
//! for directory listings, documented relaxations for everything else.

use gekkofs::{Cluster, ClusterConfig, GekkoClient, GkfsError, OpenFlags};
use gkfs_common::Distributor;
use gkfs_integration::payload;
use gkfs_rpc::{Endpoint, Fate, Gate, Link, Opcode, Request, Until};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn single_file_ops_are_strongly_consistent_across_clients() {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let a = cluster.mount().unwrap();
    let b = cluster.mount().unwrap();

    // Every operation by A is immediately visible to B — no caches,
    // no sessions (the paper's synchronous design).
    a.create("/strong", 0o644).unwrap();
    assert!(b.stat("/strong").is_ok());
    let ha = a.open_handle("/strong", OpenFlags::WRONLY).unwrap();
    ha.pwrite(0, b"v1").unwrap();
    ha.close().unwrap();
    let hb = b.open_handle("/strong", OpenFlags::RDONLY).unwrap();
    assert_eq!(hb.pread(0, 10).unwrap(), b"v1");
    hb.close().unwrap();
    a.truncate("/strong", 1).unwrap();
    assert_eq!(b.stat("/strong").unwrap().size, 1);
    a.unlink("/strong").unwrap();
    assert!(matches!(b.stat("/strong"), Err(GkfsError::NotFound)));
    cluster.shutdown();
}

#[test]
fn concurrent_create_exactly_one_winner_per_path() {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    for round in 0..10 {
        let path = format!("/race-{round}");
        let wins: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let cluster = &cluster;
                    let path = &path;
                    s.spawn(move || {
                        let fs = cluster.mount().unwrap();
                        fs.create(path, 0o644).is_ok() as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(wins, 1, "path {path}: exclusive create must have one winner");
    }
    cluster.shutdown();
}

/// The bulk plane obeys the same rule: eight mounts race
/// `create_many` over one path list, and every path has exactly one
/// winner — a frame's existence checks and its commit are one step on
/// the owning daemon, as a unary create's are.
#[test]
fn concurrent_create_many_exactly_one_winner_per_path() {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let paths: Vec<String> = (0..256).map(|i| format!("/bulk-race-{i}")).collect();
    let gate = std::sync::Barrier::new(8);
    let mut wins = vec![0usize; paths.len()];
    std::thread::scope(|s| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    let fs = cluster.mount().unwrap();
                    gate.wait();
                    fs.create_many(&paths, 0o644).unwrap()
                })
            })
            .collect();
        for racer in racers {
            for (won, slot) in wins.iter_mut().zip(racer.join().unwrap()) {
                *won += slot.is_ok() as usize;
            }
        }
    });
    for (path, won) in paths.iter().zip(wins) {
        assert_eq!(won, 1, "path {path}: exclusive create must have one winner");
    }
    cluster.shutdown();
}

#[test]
fn non_overlapping_concurrent_writes_all_land() {
    // §III-A: applications are responsible for avoiding *overlapping*
    // conflicts; non-overlapping regions must always be safe.
    let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(4096)).unwrap();
    let setup = cluster.mount().unwrap();
    setup.create("/regions", 0o644).unwrap();
    let region = 10_000u64;
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let cluster = &cluster;
            s.spawn(move || {
                let fs = cluster.mount().unwrap();
                let data = payload(region as usize, t);
                let h = fs.open_handle("/regions", OpenFlags::WRONLY).unwrap();
                h.pwrite(t * region, &data).unwrap();
                h.close().unwrap();
            });
        }
    });
    let fs = cluster.mount().unwrap();
    let h = fs.open_handle("/regions", OpenFlags::RDONLY).unwrap();
    for t in 0..8u64 {
        let expect = payload(region as usize, t);
        let got = h.pread(t * region, region as usize).unwrap();
        assert_eq!(got, expect, "region {t} corrupted by concurrency");
    }
    h.close().unwrap();
    cluster.shutdown();
}

#[test]
fn readdir_is_eventually_consistent_but_stat_is_not() {
    // A reader listing a directory while a writer churns may see any
    // subset (the ls -l caveat, §III-A) — but it must never crash, and
    // every entry it returns must be a real file at some point.
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let writer = cluster.mount().unwrap();
    let reader = cluster.mount().unwrap();
    writer.mkdir("/churn", 0o755).unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..300 {
                let p = format!("/churn/f{i}");
                writer.create(&p, 0o644).unwrap();
                if i % 3 == 0 {
                    writer.unlink(&p).unwrap();
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        s.spawn(|| {
            let mut listings = 0;
            while !stop.load(Ordering::SeqCst) {
                let entries = reader.readdir("/churn").unwrap();
                // Monotone sanity: entries are sorted and unique.
                for w in entries.windows(2) {
                    assert!(w[0].name < w[1].name);
                }
                listings += 1;
            }
            assert!(listings > 0);
        });
    });

    // Quiescent state is exact: 200 files survive.
    let finals = reader.readdir("/churn").unwrap();
    assert_eq!(finals.len(), 200);
    cluster.shutdown();
}

#[test]
fn size_cache_trades_visibility_for_throughput() {
    // With the §IV-B cache, *other* clients may briefly see a stale
    // size (the documented relaxation); the writer itself must not.
    let cluster = Cluster::deploy(ClusterConfig::new(2).with_size_cache(100)).unwrap();
    let writer = cluster.mount().unwrap();
    let other = cluster.mount().unwrap();
    writer.create("/lazy", 0o644).unwrap();
    // Keep the handle open across the window: close() would flush the
    // buffered size update and end the staleness this test observes.
    let h = writer.open_handle("/lazy", OpenFlags::WRONLY).unwrap();
    h.pwrite(0, &[1u8; 500]).unwrap();

    // Writer: read-your-writes.
    assert_eq!(writer.stat("/lazy").unwrap().size, 500);
    // Other client: the update is still buffered client-side.
    assert_eq!(other.stat("/lazy").unwrap().size, 0, "stale by design");
    // After the writer flushes, everyone agrees.
    h.flush().unwrap();
    assert_eq!(other.stat("/lazy").unwrap().size, 500);
    h.close().unwrap();
    cluster.shutdown();
}

#[test]
fn chunk_data_is_visible_before_size_flush() {
    // The §IV-B cache only delays *metadata* size updates; the chunk
    // data itself is written synchronously. A reader who knows the
    // range (e.g. via application-level coordination, the common HPC
    // pattern) can read it before the flush.
    let cluster = Cluster::deploy(ClusterConfig::new(2).with_size_cache(100)).unwrap();
    let writer = cluster.mount().unwrap();
    writer.create("/early", 0o644).unwrap();
    let h = writer.open_handle("/early", OpenFlags::RDWR).unwrap();
    h.pwrite(0, b"already-there").unwrap();

    // Direct chunk read through a second client works once size is
    // known; here we verify via the writer's own view (the client's
    // record of the path makes the range known without a stat).
    assert_eq!(h.pread(0, 13).unwrap(), b"already-there");
    h.close().unwrap();
    cluster.shutdown();
}

fn wall_ns() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos() as u64
}

#[test]
fn a_non_growing_writes_mtime_reaches_the_owner_at_close() {
    // A write that grows nothing past what the metadata owner holds
    // sends no size update: its mtime waits in the §IV-B buffer, and
    // the close carries it.
    let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
    let writer = cluster.mount().unwrap();
    let other = cluster.mount().unwrap();
    let h = writer.open_handle("/touched", OpenFlags::WRONLY.with_create()).unwrap();
    h.pwrite(0, &[1u8; 8192]).unwrap();
    let mut last = 0;
    for i in 0..4 {
        last = wall_ns();
        h.pwrite(i * 1024, &[2u8; 1024]).unwrap();
    }
    h.close().unwrap();
    let meta = other.stat("/touched").unwrap();
    assert_eq!(meta.size, 8192);
    assert!(meta.mtime_ns >= last, "mtime {} is older than the last write ({last})", meta.mtime_ns);
    cluster.shutdown();
}

#[test]
fn a_held_update_repairs_another_clients_truncate_at_close() {
    // A's record knows the owner holds 8 MiB; B cuts the file to 0
    // behind it. A's write of [0, 8 KiB) grows nothing A knows of, so
    // its update is held — and A's close sends it: the owner's max-fold
    // makes the size 8 KiB, as if the update had left with the write.
    let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
    let a = cluster.mount().unwrap();
    let b = cluster.mount().unwrap();
    let h = a.open_handle("/behind", OpenFlags::RDWR.with_create()).unwrap();
    h.pwrite(0, &vec![3u8; 8 << 20]).unwrap();
    assert_eq!(b.stat("/behind").unwrap().size, 8 << 20);
    b.truncate("/behind", 0).unwrap();
    h.pwrite(0, &[4u8; 8192]).unwrap();
    h.close().unwrap();
    assert_eq!(b.stat("/behind").unwrap().size, 8192);
    let hb = b.open_handle("/behind", OpenFlags::RDONLY).unwrap();
    assert_eq!(hb.pread(0, 16384).unwrap(), vec![4u8; 8192]);
    hb.close().unwrap();
    cluster.shutdown();
}

#[test]
fn another_clients_late_size_update_leaves_an_unlinked_path_absent() {
    // B's write leaves its size update in the §IV-B buffer; A unlinks
    // the path; B's close sends the update after the remove. A size
    // update never creates an entry: the path stays gone to `stat`,
    // `readdir` and `fsck`. (It used to come back as a bare record —
    // `ctime_ns: 0`, listed, and owning B's bytes, so fsck saw nothing
    // wrong.) The unlink removed the bytes it knew of, none: B's chunk
    // is an orphan now, which fsck reports and purges like any other.
    let cluster = Cluster::deploy(ClusterConfig::new(2).with_size_cache(100)).unwrap();
    let a = cluster.mount().unwrap();
    let b = cluster.mount().unwrap();
    let h = b.open_handle("/late", OpenFlags::WRONLY.with_create()).unwrap();
    h.pwrite(0, &[5u8; 500]).unwrap();
    assert_eq!(a.stat("/late").unwrap().size, 0, "the update is still in B's buffer");
    a.unlink("/late").unwrap();
    h.close().unwrap();
    assert!(matches!(a.stat("/late"), Err(GkfsError::NotFound)));
    assert_eq!(a.readdir("/").unwrap(), vec![]);
    let report = a.fsck().unwrap();
    assert_eq!(report.files_checked, 0, "{report:?}");
    assert!(report.orphan_chunks.iter().all(|(_, p)| p == "/late"), "{report:?}");
    a.fsck_purge(&report).unwrap();
    assert!(a.fsck().unwrap().is_clean());
    cluster.shutdown();
}

/// The mount configurations that differ in what an open path holds
/// back from the daemons: nothing, size updates (§IV-B), bytes.
fn buffering_configs() -> [ClusterConfig; 3] {
    [
        ClusterConfig::new(2),
        ClusterConfig::new(2).with_size_cache(100),
        ClusterConfig::new(2).with_write_back(65536),
    ]
}

#[test]
fn two_handles_on_one_path_see_each_others_buffered_bytes() {
    // One client, two handles per path: what A wrote — flushed or still
    // in the write-back buffer — is part of the file for B, for `stat`
    // and for A itself. 32 paths, because which of two handles a
    // per-handle design happens to consult varies by path.
    let cluster = Cluster::deploy(ClusterConfig::new(2).with_write_back(65536)).unwrap();
    let fs = cluster.mount().unwrap();
    for i in 0..32 {
        let path = format!("/pair/{i}");
        let a = fs.open_handle(&path, OpenFlags::RDWR.with_create()).unwrap();
        let b = fs.open_handle(&path, OpenFlags::RDWR.with_append()).unwrap();
        a.pwrite(0, b"buffered by A").unwrap();
        assert_eq!(fs.stat(&path).unwrap().size, 13, "{path}: stat misses A's bytes");
        assert_eq!(a.size(), 13);
        assert_eq!(b.size(), 13, "{path}: B's size misses A's bytes");
        assert_eq!(b.stat().unwrap().size, 13);
        assert_eq!(b.pread(0, 64).unwrap(), b"buffered by A", "{path}: B preads what A buffered");
        // B appends at the client's EOF, not at the EOF B opened at.
        b.write(b"+B").unwrap();
        assert_eq!(a.pread(0, 64).unwrap(), b"buffered by A+B");
        assert_eq!(fs.stat(&path).unwrap().size, 15);
        // Closing one handle flushes the path; the other keeps working.
        a.close().unwrap();
        assert_eq!(b.pread(0, 64).unwrap(), b"buffered by A+B");
        b.close().unwrap();
        assert_eq!(fs.stat(&path).unwrap().size, 15);
    }
    cluster.shutdown();
}

/// `path` is gone from every view the cluster offers.
fn assert_gone(cluster: &Cluster, fs: &gekkofs::GekkoClient, path: &str) {
    assert!(matches!(fs.stat(path), Err(GkfsError::NotFound)), "{path} still stats");
    assert_eq!(fs.readdir("/").unwrap(), vec![], "{path} still listed");
    for n in 0..cluster.nodes() {
        let held = cluster.daemon(n).backends().data.chunk_count(path).unwrap();
        assert_eq!(held, 0, "daemon {n} still holds chunks of {path}");
    }
}

#[test]
fn unlink_under_an_open_handle_leaves_no_ghost() {
    // A handle that outlives its file must not bring it back: its late
    // flush (a buffered run, a buffered size update) would be merged by
    // the metadata owner into a fresh record.
    for config in buffering_configs() {
        let cluster = Cluster::deploy(config).unwrap();
        let fs = cluster.mount().unwrap();
        let create = OpenFlags::RDWR.with_create();

        // pwrite, unlink, close.
        let h = fs.open_handle("/ghost", create).unwrap();
        h.pwrite(0, b"hello").unwrap();
        fs.unlink("/ghost").unwrap();
        assert!(matches!(h.pread(0, 5), Err(GkfsError::NotFound)));
        assert!(matches!(h.stat(), Err(GkfsError::NotFound)));
        h.close().unwrap();
        assert_gone(&cluster, &fs, "/ghost");

        // unlink, pwrite, close.
        let h = fs.open_handle("/ghost", create).unwrap();
        fs.unlink("/ghost").unwrap();
        assert!(matches!(h.pwrite(0, b"hello"), Err(GkfsError::NotFound)));
        h.close().unwrap();
        assert_gone(&cluster, &fs, "/ghost");

        // The bulk form detaches the handle's state the same way.
        let h = fs.open_handle("/ghost", create).unwrap();
        h.pwrite(0, b"hello").unwrap();
        assert!(fs.unlink_many(&["/ghost"]).unwrap()[0].is_ok());
        h.close().unwrap();
        assert_gone(&cluster, &fs, "/ghost");
        cluster.shutdown();
    }
}

#[test]
fn recreating_an_unlinked_path_gets_a_fresh_record() {
    for config in buffering_configs() {
        let cluster = Cluster::deploy(config).unwrap();
        let fs = cluster.mount().unwrap();
        let stale = fs.open_handle("/re", OpenFlags::RDWR.with_create()).unwrap();
        stale.pwrite(0, b"old old old").unwrap();
        fs.unlink("/re").unwrap();
        let fresh = fs
            .open_handle("/re", OpenFlags::RDWR.with_create().with_exclusive())
            .unwrap();
        assert_eq!(fresh.size(), 0, "the old file's size leaked into the new one");
        fresh.pwrite(0, b"new").unwrap();
        assert_eq!(fs.stat("/re").unwrap().size, 3);
        // The stale handle still names the removed file, not its
        // successor, and closing it sends nothing.
        assert!(matches!(stale.pwrite(0, b"x"), Err(GkfsError::NotFound)));
        assert!(matches!(stale.truncate(0), Err(GkfsError::NotFound)));
        stale.close().unwrap();
        assert_eq!(fresh.pread(0, 64).unwrap(), b"new");
        fresh.close().unwrap();
        assert_eq!(fs.stat("/re").unwrap().size, 3);
        cluster.shutdown();
    }
}

/// DESIGN.md "A write is one fan-out": a write's size update leaves
/// with its data, so another client's `stat` can see the new size
/// before the bytes are at the chunk owner, and a read of that range
/// then returns zeros, never other bytes. The window is forced with
/// gates, on a chunk the hash places apart from the metadata: the data
/// leg waits at one, and the size update — applied at the metadata
/// owner — has its reply held at another, so the write is not yet
/// acknowledged while B looks.
#[test]
fn a_stat_can_see_a_size_before_its_bytes_and_the_range_reads_zeros() {
    const CHUNK: u64 = 64 * 1024;
    let config = ClusterConfig::new(2).with_chunk_size(CHUNK);
    let cluster = Cluster::deploy(config.clone()).unwrap();
    let (data, size) = (Gate::new(), Gate::new());
    let rule = {
        let (data, size) = (Arc::clone(&data), Arc::clone(&size));
        move |req: &Request, _| match req.opcode {
            Opcode::WriteChunks => Fate::HoldRequest(Until::Opened(Arc::clone(&data))),
            Opcode::UpdateSize => Fate::HoldReply(Until::Opened(Arc::clone(&size))),
            _ => Fate::Pass,
        }
    };
    let links = (0..2)
        .map(|n| Link::with_rule(cluster.daemon(n).endpoint(), rule.clone()) as Arc<dyn Endpoint>)
        .collect();
    let a = GekkoClient::mount(links, &config).unwrap();
    let b = cluster.mount().unwrap();
    let path = "/window/size-first";
    let placed = Distributor::new(2);
    let chunk = (1..).find(|&c| placed.locate_chunk(path, c) != placed.locate_metadata(path)).unwrap();
    let (at, bytes) = (chunk * CHUNK, [0x5Au8; 8192]);
    let h = a.open_handle(path, OpenFlags::WRONLY.with_create()).unwrap();
    std::thread::scope(|s| {
        let write = s.spawn(|| h.pwrite(at, &bytes));
        let deadline = Instant::now() + Duration::from_secs(30);
        while data.held() == 0 || size.held() == 0 {
            assert!(!write.is_finished(), "the write returned with a leg held");
            assert!(Instant::now() < deadline, "the legs never reached their gates");
            std::thread::yield_now();
        }
        assert_eq!(b.stat(path).unwrap().size, at + 8192, "the size is visible before its bytes");
        let hb = b.open_handle(path, OpenFlags::RDONLY).unwrap();
        assert_eq!(hb.pread(at, 8192).unwrap(), vec![0u8; 8192], "the range reads as zeros");
        hb.close().unwrap();
        assert!(!write.is_finished(), "acknowledged before its data landed");
        data.open();
        size.open();
        assert_eq!(write.join().unwrap().unwrap(), bytes.len(), "acknowledged once both legs landed");
    });
    h.close().unwrap();
    let hb = b.open_handle(path, OpenFlags::RDONLY).unwrap();
    assert_eq!(hb.pread(at, 8192).unwrap(), bytes);
    hb.close().unwrap();
    cluster.shutdown();
}

/// The window a read racing an in-place truncate has, forced with a gate:
/// client A's `ReadChunks` over a range above a cut is held at its
/// links while client B cuts the file in place below that range
/// (inside a chunk, whose file is trimmed, not removed), grows it back
/// past the range and writes a few new bytes into it. Once the gate
/// opens, A's read is served from the file as it is now: every byte it
/// returns is the file's byte now or zero — never a byte the cut
/// removed, which a cut that left the boundary chunk's old tail in
/// place would hand back.
#[test]
fn a_read_held_across_a_cut_and_a_regrow_reads_the_file_or_zeros() {
    const CHUNK: u64 = 64 * 1024;
    let config = ClusterConfig::new(2).with_chunk_size(CHUNK);
    // Chunk files on disk: the cut is a file's, trimmed in place.
    let root = std::env::temp_dir().join(format!("gkfs-it-cut-{}", std::process::id()));
    let cluster = Cluster::deploy_on_disk(config.clone(), &root).unwrap();
    let gate = Gate::new();
    let rule = {
        let gate = Arc::clone(&gate);
        move |req: &Request, _| match req.opcode {
            Opcode::ReadChunks => Fate::HoldRequest(Until::Opened(Arc::clone(&gate))),
            _ => Fate::Pass,
        }
    };
    let links = (0..2)
        .map(|n| Link::with_rule(cluster.daemon(n).endpoint(), rule.clone()) as Arc<dyn Endpoint>)
        .collect();
    let a = GekkoClient::mount(links, &config).unwrap();
    let b = cluster.mount().unwrap();
    let path = "/window/cut-and-regrow";
    let old = vec![0xAAu8; 4 * CHUNK as usize];
    let hb = b.open_handle(path, OpenFlags::RDWR.with_create()).unwrap();
    hb.pwrite(0, &old).unwrap();
    // The cut falls inside chunk 1; the read covers the rest of chunk 1
    // and all of chunk 2, on whichever daemons hold them.
    let (cut, from, to) = (CHUNK + 1000, CHUNK + 2000, 3 * CHUNK);
    let placed = Distributor::new(2);
    let legs = (1..3).map(|c| placed.locate_chunk(path, c)).collect::<std::collections::HashSet<_>>().len();
    let ha = a.open_handle(path, OpenFlags::RDONLY).unwrap();
    let fresh = [0x5Bu8; 8192];
    std::thread::scope(|s| {
        let read = s.spawn(|| ha.pread(from, (to - from) as usize));
        let deadline = Instant::now() + Duration::from_secs(30);
        while gate.held() < legs {
            assert!(!read.is_finished(), "the read returned with a leg held");
            assert!(Instant::now() < deadline, "the read's legs never reached the gate");
            std::thread::yield_now();
        }
        hb.truncate(cut).unwrap();
        hb.truncate(4 * CHUNK).unwrap();
        hb.pwrite(2 * CHUNK, &fresh).unwrap();
        gate.open();
        let got = read.join().unwrap().unwrap();
        // What the file holds above the cut now: zeros, and the new bytes.
        let mut file = vec![0u8; (to - from) as usize];
        file[(2 * CHUNK - from) as usize..][..fresh.len()].copy_from_slice(&fresh);
        assert_eq!(got.len(), file.len());
        for (i, (&g, &f)) in got.iter().zip(&file).enumerate() {
            assert!(g == f || g == 0, "byte {} reads {g:#x} where the file holds {f:#x}", from + i as u64);
        }
        assert!(hb.pread(from, file.len()).unwrap() == file, "read unheld, the file is as written");
    });
    ha.close().unwrap();
    hb.close().unwrap();
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
