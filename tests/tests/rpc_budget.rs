//! Client RPC-count regression gate (wired into `scripts/ci.sh`).
//!
//! The handle redesign's acceptance bar is stated in RPCs, not
//! wall-clock: wall-clock on a shared-core in-process cluster is
//! noisy, but every RPC the client issues is counted exactly
//! ([`gekkofs::ClientStats::rpcs_issued`], shared with the daemon
//! ring). These tests pin the budget so a future change that quietly
//! re-introduces a per-op round trip (an extra stat on open, a
//! size-update per buffered write, a re-resolve per read) turns CI red
//! with a number attached.
//!
//! Baseline: the pre-handle synchronous protocol, itemized per
//! small-payload mdtest file (4 KiB) on a 2-node cluster with the payload issued as
//! 8 x 512 B sequential writes (the paper's §I "small I/O requests"):
//!
//! | op                | RPCs | why                                   |
//! |-------------------|------|---------------------------------------|
//! | create            |  1   | meta insert at the owner              |
//! | 8 x write         | 16   | chunk write + size update, per write  |
//! | stat              |  1   | meta fetch                            |
//! | unlink            |  3   | meta remove + 2-node chunk broadcast  |
//! | **total**         | **21**                                       |
//!
//! (Two RPCs per write then; since PR 25 in flight together — which
//! the **overlap gate** below pins by count — and since PR 26 one frame
//! wherever the data leg reaches the metadata owner, which for chunk 0
//! is always: chunk 0 lives with the inode.) The handle path must do
//! the same chain in one frame for create + bytes + size, one stat and
//! one unlink: 3 per file, pinned exactly by **the small-file gate**
//! below — which since PR 30 also pins what reading one back costs: on a
//! write-back mount the open returns the file, so a scan is 2 round
//! trips, not 3. The budget test asserts the >= 2x acceptance bound against
//! the itemized baseline *and* a tighter absolute budget so regressions
//! inside the 2x headroom still trip.
//!
//! The same file holds the **thread hand-off gate** of the TCP
//! transport, also stated in counts: where a request ran on the daemon
//! (`RpcStats::{served_inline, served_pooled}`) and who read its reply
//! on the client (`WaitStats::{waits_led, waits_followed,
//! reader_drains}`). A unary metadata RPC must cost zero thread
//! hand-offs (it cost four: connection thread → pool worker, reader
//! thread → caller); bulk, pipelined and fan-out traffic must keep the
//! handler pool and the reader thread.

use gekkofs::{Cluster, ClusterConfig, Daemon, GekkoClient, OpenFlags, ReplicationConfig};
use gkfs_common::{DaemonConfig, Distributor};
use gkfs_rpc::{Endpoint, Opcode, ReplyHandle, Request, Response, TcpEndpoint};
use gkfs_workloads::{run_mdtest, MdtestConfig, MetaMode};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};

/// Pre-handle protocol cost per mdtest-small file (itemized above).
const OLD_PROTOCOL_RPCS_PER_FILE: f64 = 21.0;

/// Absolute budget for the handle path: 3 structural RPCs per file
/// (ingest frame, stat, unlink) plus headroom for the run's amortized
/// setup (mkdir) — NOT enough headroom to hide a reintroduced per-op
/// round trip (+1 per stat or per flush would blow it).
const HANDLE_RPCS_PER_FILE_BUDGET: f64 = 3.5;

/// Budget for classic (zero-byte) mdtest over the bulk metadata
/// plane. Structurally a 64-file slice costs 3 frames (create, stat,
/// remove) per primary: with 2 daemons that is <= 6 frames per 64
/// files ≈ 0.1 RPCs/file; 1.5 leaves room for stragglers and setup
/// without letting any per-file round trip sneak back in.
const BATCHED_MDTEST_RPCS_PER_FILE_BUDGET: f64 = 1.5;

#[test]
fn mdtest_small_rpc_budget_holds() {
    let cluster = Cluster::deploy(
        ClusterConfig::new(2)
            .with_chunk_size(64 * 1024)
            .with_write_back(64 * 1024),
    )
    .unwrap();
    let cfg = MdtestConfig {
        processes: 2,
        files_per_process: 100,
        work_dir: "/rpc-gate".into(),
        file_size: 4 * 1024,
        transfer_size: 512,
        ..MdtestConfig::default()
    };
    let r = run_mdtest(|| cluster.mount(), &cfg).unwrap();
    cluster.shutdown();

    assert!(r.wb_flushes > 0, "write-back never engaged");
    let per_file = r.rpcs_per_file();
    assert!(
        per_file * 2.0 <= OLD_PROTOCOL_RPCS_PER_FILE,
        "acceptance bound: {per_file:.2} RPCs/file is not 2x under the \
         old protocol's {OLD_PROTOCOL_RPCS_PER_FILE}"
    );
    assert!(
        per_file <= HANDLE_RPCS_PER_FILE_BUDGET,
        "regression: {per_file:.2} RPCs/file exceeds the {HANDLE_RPCS_PER_FILE_BUDGET} budget \
         ({} RPCs / {} files)",
        r.rpcs_issued,
        r.total_files
    );
}

/// Classic zero-byte mdtest through the bulk metadata plane: the
/// whole create/stat/remove chain must fit in
/// [`BATCHED_MDTEST_RPCS_PER_FILE_BUDGET`] RPCs per file, and batching
/// must beat the unary protocol on create throughput in the same
/// session. Also writes `BENCH_10.json` into cargo's per-test scratch
/// directory (`target/tmp`) with the machine-readable numbers (ops/s
/// per phase, RPCs/file, batch-size histogram); the tracked copy at the
/// repo root is the record EXPERIMENTS.md quotes.
#[test]
fn batched_mdtest_rpc_budget_holds() {
    let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
    let mk = |mode: MetaMode, dir: &str| MdtestConfig {
        processes: 2,
        files_per_process: 256,
        work_dir: dir.into(),
        mode,
        ..MdtestConfig::default()
    };
    let unary = run_mdtest(|| cluster.mount(), &mk(MetaMode::Unary, "/md-unary")).unwrap();
    let bulk = run_mdtest(|| cluster.mount(), &mk(MetaMode::Bulk(64), "/md-bulk")).unwrap();
    cluster.shutdown();

    // The unary chain is exactly one round trip per op: create, stat,
    // remove — the owner judges and answers the remove itself, so no
    // stat leads it.
    assert_eq!(unary.rpcs_per_file(), 3.0, "unary zero-byte mdtest");
    let per_file = bulk.rpcs_per_file();
    assert!(
        per_file <= BATCHED_MDTEST_RPCS_PER_FILE_BUDGET,
        "regression: {per_file:.3} RPCs/file exceeds the \
         {BATCHED_MDTEST_RPCS_PER_FILE_BUDGET} batched budget \
         ({} RPCs / {} files)",
        bulk.rpcs_issued,
        bulk.total_files
    );
    assert_eq!(
        bulk.ops_batched,
        (bulk.total_files * 3) as u64,
        "every create/stat/remove must travel batched"
    );
    // Same-session throughput comparison. Wall-clock on a shared-core
    // in-process cluster is noisy, so the gate only requires batching
    // to win; the >= 3x acceptance measurement is recorded (with the
    // exact numbers) in EXPERIMENTS.md and in BENCH_10.json below.
    assert!(
        bulk.creates_per_sec() > unary.creates_per_sec(),
        "batched creates slower than unary: {:.0}/s vs {:.0}/s",
        bulk.creates_per_sec(),
        unary.creates_per_sec()
    );

    let hist = bulk.batch_hist;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"mdtest-meta\",\n",
            "  \"nodes\": 2,\n",
            "  \"processes\": 2,\n",
            "  \"files\": {files},\n",
            "  \"unary\": {{\n",
            "    \"creates_per_sec\": {uc:.0},\n",
            "    \"stats_per_sec\": {us:.0},\n",
            "    \"removes_per_sec\": {ur:.0},\n",
            "    \"rpcs_per_file\": {upf:.3}\n",
            "  }},\n",
            "  \"batched\": {{\n",
            "    \"slice\": 64,\n",
            "    \"creates_per_sec\": {bc:.0},\n",
            "    \"stats_per_sec\": {bs:.0},\n",
            "    \"removes_per_sec\": {br:.0},\n",
            "    \"rpcs_per_file\": {bpf:.3},\n",
            "    \"ops_batched\": {ops},\n",
            "    \"batch_size_hist\": {{\n",
            "      \"1\": {h0}, \"2-4\": {h1}, \"5-8\": {h2},\n",
            "      \"9-16\": {h3}, \"17-32\": {h4}, \"33+\": {h5}\n",
            "    }}\n",
            "  }},\n",
            "  \"create_speedup\": {speedup:.2}\n",
            "}}\n"
        ),
        files = bulk.total_files,
        uc = unary.creates_per_sec(),
        us = unary.stats_per_sec(),
        ur = unary.removes_per_sec(),
        upf = unary.rpcs_per_file(),
        bc = bulk.creates_per_sec(),
        bs = bulk.stats_per_sec(),
        br = bulk.removes_per_sec(),
        bpf = per_file,
        ops = bulk.ops_batched,
        h0 = hist[0],
        h1 = hist[1],
        h2 = hist[2],
        h3 = hist[3],
        h4 = hist[4],
        h5 = hist[5],
        speedup = bulk.creates_per_sec() / unary.creates_per_sec(),
    );
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/BENCH_10.json");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("BENCH_10.json not written: {e}");
    }
}

/// 8 KiB sequential IOR-style writes: with a 64 KiB write-back buffer
/// the client must issue at least 2x fewer RPCs than write-through —
/// measured, not modeled, by running the same write stream against two
/// clusters that differ only in the buffer.
#[test]
fn ior_8k_sequential_write_rpc_budget_holds() {
    let writes = 256usize; // 2 MiB total, 8 KiB at a time
    let run = |write_back: u64| -> u64 {
        let cluster = Cluster::deploy(
            ClusterConfig::new(2)
                .with_chunk_size(512 * 1024)
                .with_write_back(write_back),
        )
        .unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs
            .open_handle("/ior8k", OpenFlags::WRONLY.with_create().with_exclusive())
            .unwrap();
        let base = fs.stats().rpcs_issued.load(Ordering::Relaxed);
        let buf = vec![0xA5u8; 8 * 1024];
        for i in 0..writes {
            h.pwrite((i * buf.len()) as u64, &buf).unwrap();
        }
        h.close().unwrap();
        let issued = fs.stats().rpcs_issued.load(Ordering::Relaxed) - base;
        cluster.shutdown();
        issued
    };

    let through = run(0);
    let buffered = run(64 * 1024);
    assert!(
        buffered * 2 <= through,
        "8 KiB sequential writes must issue >= 2x fewer RPCs with \
         write-back: {buffered} vs {through}"
    );
    // Structural expectation: one coalesced flush (chunk write + size
    // update) per 64 KiB run => ~0.25 RPCs per 8 KiB write.
    assert!(
        (buffered as f64) / (writes as f64) <= 1.0,
        "buffered path re-grew a per-write round trip: {buffered} RPCs / {writes} writes"
    );
}

/// Round trips per operation on a healthy 3-node cluster keeping
/// `replicas` copies, for a fixed script: create, open (the entry),
/// one single-chunk 8 KiB write, read it back, stat, a scan through a
/// second, write-back mount (stat, open read-only, read, close),
/// truncate, close, unlink. No size cache, and a hedge window that
/// never fires, so every RPC is structural.
fn replicated_script_rpcs(replicas: usize) -> [u64; 8] {
    let config = ClusterConfig::new(3)
        .with_chunk_size(64 * 1024)
        .with_replication(ReplicationConfig {
            replicas,
            hedge_after_ms: 60_000,
            ..ReplicationConfig::default()
        });
    let cluster = Cluster::deploy(config.clone()).unwrap();
    let fs = cluster.mount().unwrap();
    let back = {
        let endpoints = (0..3).map(|n| cluster.daemon(n).endpoint()).collect();
        GekkoClient::mount(endpoints, &config.with_write_back(64 * 1024)).unwrap()
    };
    let mut last = fs.stats().rpcs_issued.load(Ordering::Relaxed);
    let mut delta = || {
        let now = fs.stats().rpcs_issued.load(Ordering::Relaxed);
        std::mem::replace(&mut last, now).abs_diff(now)
    };
    fs.create("/budget/f", 0o644).unwrap();
    let create = delta();
    let h = fs.open_handle("/budget/f", OpenFlags::RDWR).unwrap();
    let open = delta();
    h.pwrite(0, &[0x5Au8; 8 * 1024]).unwrap();
    let write = delta();
    assert_eq!(h.pread(0, 8 * 1024).unwrap(), vec![0x5Au8; 8 * 1024]);
    let read = delta();
    assert_eq!(fs.stat("/budget/f").unwrap().size, 8 * 1024);
    let stat = delta();
    let scan = {
        let before = back.stats().rpcs_issued.load(Ordering::Relaxed);
        assert_eq!(back.stat("/budget/f").unwrap().size, 8 * 1024);
        let r = back.open_handle("/budget/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 8 * 1024).unwrap(), vec![0x5Au8; 8 * 1024]);
        r.close().unwrap();
        back.stats().rpcs_issued.load(Ordering::Relaxed) - before
    };
    h.truncate(4 * 1024).unwrap();
    let truncate = delta();
    h.close().unwrap();
    fs.unlink("/budget/f").unwrap();
    let close_unlink = delta();
    cluster.shutdown();
    [create, open, write, read, stat, scan, truncate, close_unlink]
}

/// Replication is a replica set, not a second protocol: every mutation
/// leg (create, write frame, truncate-meta, remove-meta) reaches
/// exactly `replicas` daemons and every stat/read leg exactly one — at
/// `replicas == 1` that is one round trip per leg, counter for counter,
/// and at 2 it is the same script with the mutation legs doubled.
/// Chunk 0's write set *is* the metadata write set, so the write is
/// one frame per replica carrying bytes and size (it was a chunk batch
/// and a size update to each), and the unlink one `RemoveMeta` per
/// replica, each dropping its own chunk 0 (it was that and a chunk
/// removal to each). A write-back mount's scan is two round trips at
/// either count — the stat, and the open that returns the file: reads
/// never fan out. Exact totals: neither a dropped replica leg nor a
/// sneaked-in extra round trip survives.
#[test]
fn replica_legs_cost_exactly_replicas_round_trips() {
    for replicas in [1u64, 2] {
        let r = replicas;
        let expect = [
            r,         // create: one per metadata replica
            1,         // open: one OpenFile, the entry alone
            r,         // write: bytes + size, one frame per replica
            1,         // read: the chain's first member answers
            1,         // stat
            2,         // scan, write-back mount: stat, OpenFile with the file in its reply
            r + 3,     // truncate: meta per replica + 3-node chunk broadcast
            r,         // close: nothing buffered; unlink: meta per replica, chunk 0 with it, no stat
        ];
        assert_eq!(
            replicated_script_rpcs(replicas as usize),
            expect,
            "replicas = {replicas}: [create, open, write, read, stat, scan, truncate, close+unlink]"
        );
    }
}

/// The small-file gate: a small file is one daemon's business, by
/// count, on a healthy 3-node cluster keeping `r` copies. A write-back
/// ingest (`open(O_CREAT|O_EXCL)`, 8 x 512 B, `close`) is **one** frame
/// to each replica of the metadata owner — create, bytes and size
/// (it was three RPCs in two serial rounds: 3r); its unlink is **one**
/// `RemoveMeta` each, the owner dropping its own chunk 0 (2r); its scan
/// is **two** round trips on a write-back mount — `stat`, and an
/// `OpenFile` whose reply is the file, so the `pread` and every further
/// read through the handle are none (it was three: `stat`, the open's
/// `stat`, `ReadChunks`) — and still three on a write-through mount, the
/// paper's mode, asserted so nobody thinks that moved; a file one byte
/// over what an open reply carries is three on both, and a handle that
/// can write holds nothing. A file the daemons have not been told of is
/// read from its run over zeros at no round trip at all. A
/// write-through 8 KiB `pwrite`
/// is one frame per replica where its chunk's owner is the metadata
/// owner (chunk 0 always, any other chunk by the hash's chance), and
/// where it is not, one frame to every daemon in either write set — two
/// without replication. A zero-byte create and unlink are one RPC per
/// replica each, and no daemon's chunk store notices them.
#[test]
fn a_small_file_costs_one_frame_to_ingest_and_one_rpc_to_unlink() {
    const CHUNK: u64 = 64 * 1024;
    for r in [1u64, 2] {
        let config = ClusterConfig::new(3)
            .with_chunk_size(CHUNK)
            .with_replication(ReplicationConfig {
                replicas: r as usize,
                hedge_after_ms: 60_000,
                ..ReplicationConfig::default()
            });
        let cluster = Cluster::deploy(config.clone()).unwrap();
        let through = cluster.mount().unwrap();
        let back = {
            let endpoints = (0..3).map(|n| cluster.daemon(n).endpoint()).collect();
            GekkoClient::mount(endpoints, &config.clone().with_write_back(64 * 1024)).unwrap()
        };
        let spent = |fs: &GekkoClient, op: &mut dyn FnMut()| {
            let before = fs.stats().rpcs_issued.load(Ordering::Relaxed);
            op();
            fs.stats().rpcs_issued.load(Ordering::Relaxed) - before
        };
        let excl = OpenFlags::WRONLY.with_create().with_exclusive();

        let ingest = spent(&back, &mut || {
            let h = back.open_handle("/gate/small", excl).unwrap();
            for i in 0..8u8 {
                h.write(&[i; 512]).unwrap();
            }
            h.close().unwrap();
        });
        assert_eq!(ingest, r, "r = {r}: ingest is one frame per replica");
        let scan = |fs: &GekkoClient, path: &str, size: usize| {
            spent(fs, &mut || {
                assert_eq!(fs.stat(path).unwrap().size, size as u64);
                let h = fs.open_handle(path, OpenFlags::RDONLY).unwrap();
                assert_eq!(h.pread(0, size).unwrap()[size - 512..], [7u8; 512]);
                h.close().unwrap();
            })
        };
        assert_eq!(scan(&back, "/gate/small", 4096), 2, "r = {r}: stat, OpenFile with the file in its reply");
        assert_eq!(scan(&through, "/gate/small", 4096), 3, "r = {r}: write-through reads the daemons: stat, OpenFile, ReadChunks");
        // Through one handle: the open, and then nothing.
        let h = back.open_handle("/gate/small", OpenFlags::RDONLY).unwrap();
        let reads = spent(&back, &mut || {
            assert_eq!(h.pread(0, 4096).unwrap().len(), 4096);
            assert_eq!(h.pread(1024, 512).unwrap(), [2u8; 512]);
        });
        assert_eq!(reads, 0, "r = {r}: a second pread through the handle");
        h.close().unwrap();
        // A handle that can write holds no head: its pread is a frame.
        let h = back.open_handle("/gate/small", OpenFlags::RDWR).unwrap();
        assert_eq!(spent(&back, &mut || drop(h.pread(0, 4096).unwrap())), 1, "r = {r}: O_RDWR");
        h.close().unwrap();
        // One byte more than an open's reply carries: three, as ever.
        let over = gkfs_rpc::proto::HEAD_MAX as usize + 1;
        let h = through.open_handle("/gate/over", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, &vec![7u8; over]).unwrap();
        h.close().unwrap();
        assert_eq!(scan(&back, "/gate/over", over), 3, "r = {r}: over head_max, write-back");
        assert_eq!(scan(&through, "/gate/over", over), 3, "r = {r}: over head_max, write-through");
        through.unlink("/gate/over").unwrap();
        // A file nobody has been told of: its reads ask nobody (they
        // sent a ReadChunks for holes no daemon can hold); once it is
        // flushed, a handle that can write reads the daemons.
        let h = back.open_handle("/gate/unborn", OpenFlags::RDWR.with_create().with_exclusive()).unwrap();
        let unborn = spent(&back, &mut || {
            for i in 0..8u8 {
                h.write(&[i; 512]).unwrap();
            }
            assert_eq!(h.pread(512, 1024).unwrap(), [[1u8; 512], [2u8; 512]].concat());
        });
        assert_eq!(unborn, 0, "r = {r}: an unborn file's read");
        h.flush().unwrap();
        assert_eq!(spent(&back, &mut || drop(h.pread(512, 1024).unwrap())), 1, "r = {r}: born, it is a ReadChunks");
        h.close().unwrap();
        back.unlink("/gate/unborn").unwrap();
        assert_eq!(spent(&back, &mut || back.unlink("/gate/small").unwrap()), r, "r = {r}: unlink");
        let held: usize = (0..3).map(|n| cluster.daemon(n).backends().data.list_paths().unwrap().len()).sum();
        assert_eq!(held, 0, "r = {r}: the owners dropped chunk 0");

        let placed = Distributor::new(config.nodes);
        through.create("/gate/wide", 0o644).unwrap();
        let h = through.open_handle("/gate/wide", OpenFlags::WRONLY).unwrap();
        let owner = placed.locate_metadata("/gate/wide");
        let chunk_where = |together: bool| (1..).find(|&c| (placed.locate_chunk("/gate/wide", c) == owner) == together).unwrap();
        // One frame to every daemon the write concerns: with two
        // copies on three nodes the two sets of an "apart" chunk share
        // a member, whose data leg carries the size — 3, not 4.
        for (chunk, legs) in [(0, r), (chunk_where(true), r), (chunk_where(false), [2, 3][r as usize - 1])] {
            let cost = spent(&through, &mut || assert_eq!(h.pwrite(chunk * CHUNK, &[0x5A; 8192]).unwrap(), 8192));
            assert_eq!(cost, legs, "r = {r}: 8 KiB write-through pwrite into chunk {chunk}");
        }
        h.close().unwrap();

        let storage = || -> Vec<u64> {
            (0..3)
                .flat_map(|n| {
                    let st = cluster.daemon(n).backends().data.stats();
                    [&st.write_ops, &st.read_ops, &st.fd_hits, &st.fd_misses, &st.dir_scans, &st.tasks_spawned, &st.tasks_inline]
                        .map(|c| c.load(Ordering::Relaxed))
                })
                .collect()
        };
        let before = storage();
        assert_eq!(spent(&through, &mut || through.create("/gate/empty", 0o644).unwrap()), r);
        assert_eq!(spent(&through, &mut || through.unlink("/gate/empty").unwrap()), r);
        assert_eq!(storage(), before, "r = {r}: a zero-byte file touched a chunk store");
        cluster.shutdown();
    }
}

/// An unlink of a file whose size the client knows reaches every holder
/// with the chunk ids that holder was placed — unary and batched alike —
/// so the file-backed store unlinks those names and enumerates no
/// directory (`StorageStats::dir_scans`, a count kept off the wire),
/// and what it removed is everything: no chunk file is left on disk.
#[test]
fn known_size_unlink_names_its_chunks_and_reads_no_directory() {
    let root = std::env::temp_dir().join(format!("gkfs-budget-unlink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ClusterConfig::new(3).with_chunk_size(4096);
    let cluster = Cluster::deploy_on_disk(config, &root).unwrap();
    let fs = cluster.mount().unwrap();
    // One-chunk files, a sparse one (chunks 0 and 9 of ten), a striped one.
    let files: Vec<String> = (0..12).map(|i| format!("/known/f{i}.0")).collect();
    for (i, path) in files.iter().enumerate() {
        let h = fs.open_handle(path, OpenFlags::WRONLY.with_create()).unwrap();
        match i {
            0 => drop(h.pwrite(9 * 4096, b"tail").unwrap()),
            1 => drop(h.pwrite(0, &vec![1u8; 40_000]).unwrap()),
            _ => {}
        }
        h.pwrite(0, b"head").unwrap();
        h.close().unwrap();
    }
    let store = |n: usize| cluster.daemon(n).backends().data.clone();
    let held = |n: usize| store(n).list_paths().unwrap().len();
    assert!((0..3).all(|n| held(n) > 0), "every daemon holds something");
    let scans = |n: usize| store(n).stats().dir_scans.load(Ordering::Relaxed);
    let before: Vec<u64> = (0..3).map(scans).collect();

    for path in &files[..6] {
        fs.unlink(path).unwrap();
    }
    assert!(fs.unlink_many(&files[6..]).unwrap().iter().all(Result::is_ok));

    assert_eq!((0..3).map(scans).collect::<Vec<_>>(), before, "an unlink enumerated a directory");
    assert_eq!((0..3).map(held).sum::<usize>(), 0, "chunk files left behind");
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// What the gated endpoints of one client share: while `armed` is
/// `n > 0`, requests are logged and held at the door — no reply moves —
/// until the `n`-th arrives, whichever daemon it is for; then all are
/// served, in submission order. A client that awaits any leg before it
/// has submitted the last waits on a reply that cannot come, and its
/// operation ends in `Timeout`: so "the op succeeded with `n` held"
/// *is* "every leg's submit preceded every wait", and it is a count,
/// not a clock. (A [`ReplyHandle`] has no hook to log its first `wait`
/// with; withholding the reply observes the same order from outside.)
#[derive(Default)]
struct Gate {
    armed: usize,
    held: Vec<HeldLeg>,
    log: Vec<Opcode>,
}

/// A request at the door: the daemon it is for, and where its reply goes.
type HeldLeg = (Arc<dyn Endpoint>, Request, SyncSender<gkfs_common::Result<Response>>);

struct Gated {
    inner: Arc<dyn Endpoint>,
    gate: Arc<Mutex<Gate>>,
}

impl Endpoint for Gated {
    fn submit(&self, req: Request) -> gkfs_common::Result<ReplyHandle> {
        let mut gate = self.gate.lock().unwrap();
        if gate.armed == 0 {
            return self.inner.submit(req);
        }
        gate.log.push(req.opcode);
        let (tx, rx) = sync_channel(1);
        gate.held.push((Arc::clone(&self.inner), req, tx));
        if gate.held.len() == gate.armed {
            gate.armed = 0;
            for (daemon, req, tx) in gate.held.drain(..) {
                let _ = tx.send(daemon.call(req));
            }
        }
        Ok(ReplyHandle::pending(rx))
    }
}

/// The overlap gate: a write is **one** fan-out — every leg is
/// submitted before any reply is awaited — for the three shapes a size
/// update leaves in beside a data leg bound for another daemon: a
/// write-through `pwrite`, a write-back `close` (the run beside one
/// merged update), and the write that fills a §IV-B window of 4
/// (predicted before the data moves, not discovered after). The size
/// leg goes first: the paper's order, a 60-byte frame ahead of the
/// data. At the parent of PR 25 every one of these ended in `Timeout`:
/// the data leg was awaited while the size leg had not been submitted.
/// They are stated on a chunk the hash places apart from the metadata
/// (chunk 0 never is: its write is one frame, and has no second leg to
/// overlap). The one exception is pinned the same way: an unborn file
/// whose first flush starts past chunk 0 must hear its create
/// acknowledged **before** any other leg leaves — a refused create
/// writes nothing — so with two legs held it is the one that ends in
/// `Timeout`, having submitted exactly one.
#[test]
fn every_leg_of_a_write_is_submitted_before_any_is_awaited() {
    const CHUNK: u64 = 64 * 1024;
    let cluster = Cluster::deploy(ClusterConfig::new(2).with_chunk_size(CHUNK)).unwrap();
    let gate = Arc::new(Mutex::new(Gate::default()));
    let mount = |config: ClusterConfig| {
        let endpoints = (0..2)
            .map(|n| {
                let inner = cluster.daemon(n).endpoint();
                Arc::new(Gated { inner, gate: Arc::clone(&gate) }) as Arc<dyn Endpoint>
            })
            .collect();
        // A leg awaited too early costs two seconds, not thirty.
        GekkoClient::mount(endpoints, &config.with_chunk_size(CHUNK).with_op_deadline_ms(2_000)).unwrap()
    };
    // Run `op` with its first `legs` requests held; what was held.
    let legs_of = |legs: usize, op: &mut dyn FnMut()| -> Vec<Opcode> {
        gate.lock().unwrap().armed = legs;
        op();
        let mut gate = gate.lock().unwrap();
        assert!(gate.held.is_empty(), "fewer than {legs} legs left");
        std::mem::take(&mut gate.log)
    };
    // Where the first chunk of `path` placed apart from its metadata
    // starts.
    let placed = Distributor::new(cluster.config().nodes);
    let far = |path: &str| {
        let apart = |c: &u64| placed.locate_chunk(path, *c) != placed.locate_metadata(path);
        (1..).find(apart).unwrap() * CHUNK
    };
    let both = vec![Opcode::UpdateSize, Opcode::WriteChunks];
    let flags = OpenFlags::WRONLY.with_create();
    let buf = [0x5Au8; 8 * 1024];

    let through = mount(ClusterConfig::new(2));
    let at = far("/overlap/through");
    let h = through.open_handle("/overlap/through", flags).unwrap();
    assert_eq!(legs_of(2, &mut || assert_eq!(h.pwrite(at, &buf).unwrap(), buf.len())), both);
    h.close().unwrap();

    let back = mount(ClusterConfig::new(2).with_write_back(64 * 1024));
    let at = far("/overlap/back");
    let h = back.open_handle("/overlap/back", flags).unwrap();
    let base = back.stats().rpcs_issued.load(Ordering::Relaxed);
    for i in 0..8 {
        h.pwrite(at + i * 512, &buf[..512]).unwrap();
    }
    assert_eq!(back.stats().rpcs_issued.load(Ordering::Relaxed), base, "absorbed");
    let mut h = Some(h);
    assert_eq!(legs_of(2, &mut || h.take().unwrap().close().unwrap()), both);

    let window = mount(ClusterConfig::new(2).with_size_cache(4));
    let at = far("/overlap/window");
    let h = window.open_handle("/overlap/window", flags).unwrap();
    for i in 0..3 {
        let absorbed = legs_of(1, &mut || assert_eq!(h.pwrite(at + i * 8192, &buf).unwrap(), buf.len()));
        assert_eq!(absorbed, [Opcode::WriteChunks], "write {i}: the window holds its update");
    }
    assert_eq!(legs_of(2, &mut || assert_eq!(h.pwrite(at + 3 * 8192, &buf).unwrap(), buf.len())), both);
    assert_eq!(window.stats().size_updates_sent.load(Ordering::Relaxed), 1);
    let base = window.stats().rpcs_issued.load(Ordering::Relaxed);
    h.close().unwrap();
    assert_eq!(window.stats().rpcs_issued.load(Ordering::Relaxed), base, "the update covered the window");

    // The unborn file that starts past chunk 0. Its create frame alone
    // is enough to let it through...
    let excl = flags.with_exclusive();
    let at = far("/overlap/unborn");
    let mut h = Some(back.open_handle("/overlap/unborn", excl).unwrap());
    h.as_ref().unwrap().pwrite(at, &buf[..512]).unwrap();
    let base = back.stats().rpcs_issued.load(Ordering::Relaxed);
    assert_eq!(legs_of(1, &mut || h.take().unwrap().close().unwrap()), [Opcode::WriteFile]);
    assert_eq!(back.stats().rpcs_issued.load(Ordering::Relaxed) - base, 2, "then the data leg left");
    // ...and held until a second leg arrives, it waits for a reply that
    // cannot come: the data leg is not submitted before the create is
    // acknowledged.
    let at = far("/overlap/unborn-1");
    let h = back.open_handle("/overlap/unborn-1", excl).unwrap();
    h.pwrite(at, &buf[..512]).unwrap();
    gate.lock().unwrap().armed = 2;
    assert!(matches!(h.close(), Err(gekkofs::GkfsError::Timeout)));
    {
        let mut gate = gate.lock().unwrap();
        assert_eq!(std::mem::take(&mut gate.log), [Opcode::WriteFile], "one leg left, and no other");
        gate.armed = 0;
        gate.held.clear();
    }

    let plain = cluster.mount().unwrap();
    for (path, size) in [("through", 8192), ("back", 4096), ("window", 4 * 8192), ("unborn", 512)] {
        let path = format!("/overlap/{path}");
        assert_eq!(plain.stat(&path).unwrap().size, far(&path) + size, "{path}");
    }
    assert!(plain.stat("/overlap/unborn-1").is_err(), "its create was never heard");
    cluster.shutdown();
}

/// Two daemons served over TCP, with the client endpoints kept so their
/// wait counters can be read next to the daemons' serve counters.
struct TcpRig {
    daemons: Vec<Arc<Daemon>>,
    addrs: Vec<String>,
    config: ClusterConfig,
    endpoints: Mutex<Vec<Arc<TcpEndpoint>>>,
}

/// `[served_inline, served_pooled, waits_led, waits_followed, reader_drains]`.
type HandOffs = [u64; 5];

impl TcpRig {
    fn deploy(chunk_size: u64) -> TcpRig {
        let config = ClusterConfig::new(2).with_chunk_size(chunk_size);
        let daemons: Vec<_> = (0..2)
            .map(|_| {
                Daemon::spawn(DaemonConfig {
                    chunk_size,
                    ..DaemonConfig::default()
                })
                .unwrap()
            })
            .collect();
        let addrs = daemons
            .iter()
            .map(|d| d.serve_tcp("127.0.0.1:0").unwrap().to_string())
            .collect();
        TcpRig {
            daemons,
            addrs,
            config,
            endpoints: Mutex::new(Vec::new()),
        }
    }

    /// One more client: its own two connections.
    fn mount(&self) -> gkfs_common::Result<GekkoClient> {
        self.mount_with(&self.config)
    }

    /// [`TcpRig::mount`] under a configuration of the client's own.
    fn mount_with(&self, config: &ClusterConfig) -> gkfs_common::Result<GekkoClient> {
        let eps: Vec<Arc<TcpEndpoint>> = self
            .addrs
            .iter()
            .map(|a| TcpEndpoint::connect(a))
            .collect::<gkfs_common::Result<_>>()?;
        self.endpoints.lock().unwrap().extend(eps.iter().cloned());
        GekkoClient::mount(eps.into_iter().map(|e| e as Arc<dyn Endpoint>).collect(), config)
    }

    /// The counters now, summed over both daemons and every endpoint
    /// mounted so far.
    fn hand_offs(&self) -> HandOffs {
        let mut sum = [0u64; 5];
        for d in &self.daemons {
            let st = d.backends().tcp_stats.get().expect("daemon serves tcp");
            sum[0] += st.served_inline.load(Ordering::Relaxed);
            sum[1] += st.served_pooled.load(Ordering::Relaxed);
        }
        for ep in self.endpoints.lock().unwrap().iter() {
            let w = ep.wait_stats();
            sum[2] += w.waits_led.load(Ordering::Relaxed);
            sum[3] += w.waits_followed.load(Ordering::Relaxed);
            sum[4] += w.reader_drains.load(Ordering::Relaxed);
        }
        sum
    }

    /// What `f` added to the counters.
    fn during(&self, f: impl FnOnce()) -> HandOffs {
        let before = self.hand_offs();
        f();
        let after = self.hand_offs();
        std::array::from_fn(|i| after[i] - before[i])
    }

    fn shutdown(self) {
        drop(self.endpoints);
        for d in &self.daemons {
            d.shutdown();
        }
    }
}

/// The tentpole's acceptance count: a unary mdtest run over TCP — every
/// create, stat and remove one metadata RPC — is served on the
/// connection threads and read by the waiting rank threads. Zero
/// hand-offs per RPC on either side, exactly, not on average.
#[test]
fn unary_metadata_rpcs_cost_no_thread_hand_off_over_tcp() {
    let rig = TcpRig::deploy(512 * 1024);
    let cfg = MdtestConfig {
        processes: 2,
        files_per_process: 200,
        work_dir: "/handoff".into(),
        mode: MetaMode::Unary,
        ..MdtestConfig::default()
    };
    let mut run = None;
    let [inline, pooled, led, followed, drains] =
        rig.during(|| run = Some(run_mdtest(|| rig.mount(), &cfg).unwrap()));
    let run = run.unwrap();
    assert_eq!(run.rpcs_per_file(), 3.0, "create, stat, remove: one RPC each");
    // The timed phases' RPCs plus the set-up's mkdirs — metadata RPCs
    // all, and every one of them both ways:
    assert!(inline >= run.rpcs_issued && run.rpcs_issued == 3 * 400);
    assert_eq!(pooled, 0, "every metadata RPC runs on the connection thread that read it");
    assert_eq!(led, inline, "every reply is read by the thread that waits for it");
    assert_eq!((followed, drains), (0, 0), "no reader thread was woken, nobody followed");
    rig.shutdown();
}

/// The small-file ingest of a write-back mount, over TCP: one frame on
/// one connection — create, 4 KiB and size — small enough to be served
/// on the connection thread that read it, its reply read by the rank
/// thread that waits for it. (It was three RPCs on two connections, the
/// second round a fan-out through the reader threads: 1/1/1.) And the
/// open that reads it back, the same way.
#[test]
fn a_small_files_ingest_is_one_inline_frame_read_by_its_waiter_over_tcp() {
    let rig = TcpRig::deploy(512 * 1024);
    let fs = rig.mount_with(&rig.config.clone().with_write_back(64 * 1024)).unwrap();
    let hand_offs = rig.during(|| {
        let h = fs
            .open_handle("/ingest/small", OpenFlags::WRONLY.with_create().with_exclusive())
            .unwrap();
        for i in 0..8u8 {
            h.write(&[i; 512]).unwrap();
        }
        h.close().unwrap();
    });
    assert_eq!(hand_offs, [1, 0, 1, 0, 0], "[inline, pooled, led, followed, drains]");
    // Reading it back: the open is one `OpenFile`, a point op served on
    // the connection thread, whose reply — the entry and the 4 KiB — is
    // a small frame its waiter reads itself; the read moves nothing.
    // The largest file an open reply carries goes the same way.
    let big = fs.open_handle("/ingest/head-max", OpenFlags::WRONLY.with_create()).unwrap();
    big.pwrite(0, &vec![9u8; gkfs_rpc::proto::HEAD_MAX as usize]).unwrap();
    big.close().unwrap();
    for (path, size) in [("/ingest/small", 4096), ("/ingest/head-max", gkfs_rpc::proto::HEAD_MAX as usize)] {
        let mut h = None;
        let hand_offs = rig.during(|| h = Some(fs.open_handle(path, OpenFlags::RDONLY).unwrap()));
        assert_eq!(hand_offs, [1, 0, 1, 0, 0], "{path}: the open");
        let hand_offs = rig.during(|| assert_eq!(h.unwrap().pread(0, size).unwrap().len(), size));
        assert_eq!(hand_offs, [0; 5], "{path}: its read was in the open's reply");
    }
    let hand_offs = rig.during(|| fs.unlink("/ingest/small").unwrap());
    assert_eq!(hand_offs, [1, 0, 1, 0, 0], "and its unlink one RemoveMeta, the same way");
    drop(fs);
    rig.shutdown();
}

/// The other half of the gate: what must *not* run to completion. A
/// 512 KiB chunk write, a pipelined burst and a two-daemon read fan-out
/// take the handler pool on the daemon and, where a thread overlaps
/// submissions, the reader thread on the client — the routes they had.
#[test]
fn bulk_pipelined_and_fan_out_traffic_keeps_the_pool_and_the_reader_route() {
    const CHUNK: u64 = 512 * 1024;
    let rig = TcpRig::deploy(CHUNK);
    let fs = rig.mount().unwrap();
    let h = fs
        .open_handle("/routes", OpenFlags::RDWR.with_create())
        .unwrap();
    let data: Vec<u8> = (0..8 * CHUNK).map(|i| (i % 239) as u8).collect();

    // One chunk placed apart from its metadata, two legs in flight: the
    // size leg is submitted first and alone, the data leg finds its
    // thread already holding a handle — a fan-out by the rule of
    // `tcp.rs` — so its connection's reader thread is asked to drain
    // and the data leg's waiter follows it. The size leg's waiter is by
    // then its thread's only handle on a connection nobody drains, and
    // it leads; its frame arrived alone, so the daemon ran it inline.
    // (The serial order read 2 led / 0 followed / 0 drains here.) One
    // chunk placed *with* its metadata — chunk 0 always, chunk 1 here
    // by the hash's chance — is one frame carrying bytes and size: one
    // connection, one handle, read by its waiter, and pooled on the
    // daemon for the 512 KiB it names.
    let placed = Distributor::new(rig.config.nodes);
    let route_with_legs = |apart: bool| {
        (0..)
            .map(|i| format!("/legs{i}"))
            .find(|p| (placed.locate_metadata(p) != placed.locate_chunk(p, 1)) == apart)
            .unwrap()
    };
    for apart in [true, false] {
        let h = fs
            .open_handle(&route_with_legs(apart), OpenFlags::WRONLY.with_create())
            .unwrap();
        let hand_offs = rig.during(|| assert_eq!(h.pwrite(CHUNK, &data[..CHUNK as usize]).unwrap(), CHUNK as usize));
        if apart {
            assert_eq!(hand_offs, [1, 1, 1, 1, 1], "WriteChunks pooled, UpdateSize inline");
        } else {
            assert_eq!(hand_offs, [0, 1, 1, 0, 0], "one WriteFile, pooled");
        }
        h.close().unwrap();
    }
    h.pwrite(0, &data[..CHUNK as usize]).unwrap();

    // Read back alone, the chunk's reply is a large frame: the waiter
    // that finds it at the head of the stream leaves it to the reader
    // thread, so no waiting thread ever holds a chunk-sized frame.
    let [inline, pooled, led, followed, drains] = rig.during(|| {
        assert_eq!(h.pread(0, CHUNK as usize).unwrap(), data[..CHUNK as usize]);
    });
    assert_eq!((inline, pooled), (0, 1), "a ReadChunks naming 512 KiB is pooled");
    assert_eq!((led, followed, drains), (0, 1, 1));

    // Eight chunks over two daemons, written then read back: fan-outs.
    // Every batch names megabytes (pooled), and the submitting thread
    // holds several handles at once, so the reader threads take the
    // replies; the rank thread reads none of them itself.
    h.pwrite(0, &data).unwrap();
    let mut back = Vec::new();
    let [inline, pooled, led, followed, drains] =
        rig.during(|| back = h.pread(0, data.len()).unwrap());
    assert_eq!(back, data);
    assert_eq!((inline, pooled), (0, 2), "one ReadChunks per daemon, both pooled");
    assert_eq!((led, followed), (0, 2), "fan-out replies arrive through the reader threads");
    assert!(drains >= 1, "the reader threads were called on");
    h.close().unwrap();

    // A 32-deep burst of point ops from one thread on one connection:
    // the client side is a fan-out by the same rule (nothing led).
    let ep = TcpEndpoint::connect(&rig.addrs[0]).unwrap();
    rig.endpoints.lock().unwrap().push(ep.clone());
    let stat = || {
        use gkfs_rpc::proto::{op, PathReq, Rpc};
        op::Stat::request(&PathReq::new("/routes"))
    };
    let [_, _, led, followed, drains] = rig.during(|| {
        let burst: Vec<_> = (0..32).map(|_| ep.submit(stat()).unwrap()).collect();
        for handle in burst {
            handle.wait(std::time::Duration::from_secs(10)).unwrap();
        }
    });
    assert_eq!((led, followed), (0, 32));
    assert!(drains >= 1);
    // On the daemon, whether a frame of a burst finds another behind it
    // in the read buffer depends on how the bytes arrive; 32 frames in
    // one segment make it certain for all but the last.
    let [inline, pooled, ..] = rig.during(|| {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(&rig.addrs[0]).unwrap();
        let mut burst = Vec::new();
        for id in 1..=32u64 {
            let mut req = stat();
            req.id = id;
            let payload = req.encode();
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
            burst.extend_from_slice(&gkfs_common::crc::crc32(&payload).to_le_bytes());
        }
        raw.write_all(&burst).unwrap();
        // 32 replies, each `len | payload | crc`.
        for _ in 0..32 {
            let mut len = [0u8; 4];
            raw.read_exact(&mut len).unwrap();
            let mut rest = vec![0u8; u32::from_le_bytes(len) as usize + 4];
            raw.read_exact(&mut rest).unwrap();
        }
    });
    assert_eq!(inline + pooled, 32);
    assert!(pooled >= 24, "a pipelined burst goes to the pool: {pooled} of 32 did");
    drop(fs);
    rig.shutdown();
}
