//! Cluster-level chaos suite: deterministic fault injection under
//! real workloads.
//!
//! The contract under chaos is the one GekkoFS promises (it is a
//! temporary file system, explicitly *not* fault tolerant): every
//! operation either completes or returns a **typed error within its
//! deadline** — zero hangs, zero panics, zero silent corruption — and
//! the namespace is consistent (fsck) once the chaos stops.
//!
//! All fault streams are seeded ([`ChaosConfig`] uses splitmix64, no
//! wall-clock decisions), so a failing run reproduces exactly. CI runs
//! this suite in release mode with the three fixed seeds below.

use gekkofs::{
    Cluster, ClusterConfig, Daemon, DaemonConfig, GekkoClient, GkfsError, OpenFlags,
    ReplicationConfig, RetryConfig,
};
use gkfs_common::distributor::{repair_target, Distributor};
use gkfs_rpc::{ChaosConfig, ChaosListener, ChaosStats, Endpoint, EndpointOptions, Link, TcpEndpoint};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed seeds CI exercises. Three distinct streams are enough to
/// hit every fault kind on every path; determinism makes more seeds a
/// coverage knob, not a flakiness knob.
const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

/// Per-call endpoint timeout under chaos: a dropped request must burn
/// milliseconds, not the 30 s production default.
const CHAOS_TIMEOUT: Duration = Duration::from_millis(150);

/// Every single operation must resolve within the op deadline plus one
/// endpoint wait (the retry loop clamps each wait to the remaining
/// budget, so this bound is structural, not tuned).
const OP_BOUND: Duration = Duration::from_secs(4);

fn chaos_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 6,
        base_backoff_ms: 2,
        max_backoff_ms: 20,
        // Breaker off: these tests measure the retry/deadline contract;
        // breaker fail-fast behavior is covered by fault_injection.rs.
        breaker_threshold: 0,
        breaker_cooldown_ms: 50,
        op_deadline_ms: 3_000,
    }
}

fn daemons(n: usize) -> Vec<Arc<Daemon>> {
    (0..n)
        .map(|_| Daemon::spawn(DaemonConfig::default()).unwrap())
        .collect()
}

/// Reach each daemon's in-process endpoint through a link under a
/// seeded chaos rule; the links, and each rule's counters.
fn chaos_endpoints(
    ds: &[Arc<Daemon>],
    cfg: impl Fn(u64) -> ChaosConfig,
    seed: u64,
) -> (Vec<Arc<dyn Endpoint>>, Vec<Arc<ChaosStats>>) {
    ds.iter()
        .enumerate()
        .map(|(node, d)| {
            let ep = d.endpoint_with(EndpointOptions::new().with_timeout(CHAOS_TIMEOUT));
            let stats = Arc::new(ChaosStats::default());
            // Distinct stream per node so faults do not march in
            // lockstep across the cluster.
            let rule = cfg(seed ^ ((node as u64) << 32)).rule(stats.clone());
            (Link::with_rule(ep, rule) as Arc<dyn Endpoint>, stats)
        })
        .unzip()
}

/// Run `op`, asserting it resolves inside the structural deadline
/// bound. Returns whether it succeeded.
fn bounded<T>(what: &str, op: impl FnOnce() -> gekkofs::Result<T>) -> bool {
    let t0 = Instant::now();
    let out = op();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < OP_BOUND,
        "{what} took {elapsed:?} — exceeded the deadline bound {OP_BOUND:?} (result ok={})",
        out.is_ok()
    );
    out.is_ok()
}

#[test]
fn mdtest_workload_under_light_chaos_is_bounded_and_fsck_clean() {
    for seed in SEEDS {
        let ds = daemons(3);
        let (endpoints, injectors) = chaos_endpoints(&ds, ChaosConfig::light, seed);
        let config = ClusterConfig::new(3).with_retry(chaos_retry());
        let fs = GekkoClient::mount(endpoints, &config)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: mount under light chaos failed: {e}"));

        // mdtest shape: create / stat / remove zero-byte files in one
        // shared directory. Every op must resolve in bounded time; under
        // *light* chaos with 6 retry attempts the vast majority succeed.
        let _ = bounded("mkdir", || fs.mkdir("/chaos", 0o755));
        let mut created = Vec::new();
        let mut failed = 0usize;
        for i in 0..120 {
            let p = format!("/chaos/file.{i}");
            if bounded(&p, || fs.create(&p, 0o644)) {
                created.push(p);
            } else {
                failed += 1;
            }
        }
        for p in &created {
            if !bounded(p, || fs.stat(p).map(|m| assert_eq!(m.size, 0))) {
                failed += 1;
            }
        }
        for p in &created {
            if !bounded(p, || fs.unlink(p)) {
                failed += 1;
            }
        }
        assert!(
            created.len() > failed,
            "seed {seed:#x}: light chaos should not defeat the retry layer \
             ({} created, {failed} failures)",
            created.len()
        );
        let injected: u64 = injectors.iter().map(|i| i.total()).sum();
        assert!(injected > 0, "seed {seed:#x}: chaos never fired");

        // Post-chaos: a clean client sees a consistent namespace.
        let clean_eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
        let clean = GekkoClient::mount(clean_eps, &ClusterConfig::new(3)).unwrap();
        let report = clean.fsck().unwrap();
        assert!(
            report.is_clean(),
            "seed {seed:#x}: post-chaos fsck not clean: {report:?}"
        );
        for d in &ds {
            d.shutdown();
        }
    }
}

#[test]
fn smallfile_data_under_heavy_chaos_never_silently_corrupts() {
    for seed in SEEDS {
        let ds = daemons(2);
        let (endpoints, injectors) = chaos_endpoints(&ds, ChaosConfig::heavy, seed);
        let config = ClusterConfig::new(2)
            .with_chunk_size(512)
            .with_retry(chaos_retry());
        let fs = match GekkoClient::mount(endpoints, &config) {
            Ok(fs) => fs,
            // Heavy chaos may legitimately defeat even 6 attempts on the
            // mount path — a typed error, which is the contract.
            Err(e) => {
                eprintln!("seed {seed:#x}: mount lost to heavy chaos ({e}) — acceptable");
                for d in &ds {
                    d.shutdown();
                }
                continue;
            }
        };

        let _ = bounded("mkdir", || fs.mkdir("/sf", 0o755));
        // smallfile shape: write whole small files, then read them back.
        // Reads that succeed must return exactly the written bytes —
        // chaos may fail an op, never falsify one. (Corrupt frames are
        // caught by the wire CRC and surface as retryable errors.)
        let mut written = Vec::new();
        for i in 0..40u8 {
            let p = format!("/sf/small.{i}");
            let data = vec![i ^ 0x5A; 2048];
            let wrote = bounded(&p, || {
                let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create().with_exclusive())?;
                h.pwrite(0, &data)?;
                h.close()
            });
            if wrote {
                written.push((p, data));
            }
        }
        let mut verified = 0usize;
        for (p, data) in &written {
            let t0 = Instant::now();
            // A typed failure is allowed under heavy chaos; a reply
            // that claims success must be bit-exact.
            let back = fs
                .open_handle(p, OpenFlags::RDONLY)
                .and_then(|h| h.pread(0, data.len()));
            if let Ok(back) = back {
                assert_eq!(&back, data, "seed {seed:#x}: silent corruption on {p}");
                verified += 1;
            }
            assert!(t0.elapsed() < OP_BOUND, "seed {seed:#x}: read of {p} exceeded bound");
        }
        assert!(
            verified > 0,
            "seed {seed:#x}: heavy chaos should still let some reads through"
        );
        let injected: u64 = injectors.iter().map(|i| i.total()).sum();
        assert!(injected > 0, "seed {seed:#x}: chaos never fired");

        // Best-effort cleanup under chaos, then consistency check from a
        // clean client. Surfaced unlink failures can strand chunk data
        // (meta removed, chunk removal lost) — fsck must *detect* that,
        // and purging must restore a clean namespace.
        for (p, _) in &written {
            let _ = bounded(p, || fs.unlink(p));
        }
        let clean_eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
        let clean = GekkoClient::mount(clean_eps, &ClusterConfig::new(2).with_chunk_size(512))
            .unwrap();
        let report = clean.fsck().unwrap();
        if !report.is_clean() {
            clean.fsck_purge(&report).unwrap();
            let after = clean.fsck().unwrap();
            assert!(
                after.is_clean(),
                "seed {seed:#x}: fsck --purge did not restore consistency: {after:?}"
            );
        }
        for d in &ds {
            d.shutdown();
        }
    }
}

#[test]
fn forced_write_back_flush_under_chaos_lands_fully_or_errors() {
    // The write-back contract under faults: a flush (`fsync`) that
    // reports success has landed *every* buffered byte — chaos may
    // fail the flush loudly, never drop the tail of the run silently.
    for seed in SEEDS {
        let ds = daemons(2);
        let (endpoints, injectors) = chaos_endpoints(&ds, ChaosConfig::heavy, seed);
        let config = ClusterConfig::new(2)
            .with_chunk_size(4096)
            .with_write_back(64 * 1024)
            .with_retry(chaos_retry());
        let fs = match GekkoClient::mount(endpoints, &config) {
            Ok(fs) => fs,
            Err(e) => {
                eprintln!("seed {seed:#x}: mount lost to heavy chaos ({e}) — acceptable");
                for d in &ds {
                    d.shutdown();
                }
                continue;
            }
        };

        let mut acked: Vec<(String, Vec<u8>)> = Vec::new();
        for i in 0..24u8 {
            let p = format!("/wbf/run.{i}");
            let Ok(h) = fs.open_handle(&p, OpenFlags::WRONLY.with_create()) else {
                continue;
            };
            // Buffer a multi-chunk run of small sequential writes (all
            // absorbed client-side: no RPCs yet, so none can fail).
            let data: Vec<u8> = (0..12 * 1024u32).map(|b| (b as u8) ^ i).collect();
            let mut all_buffered = true;
            for j in 0..12 {
                if h.pwrite((j * 1024) as u64, &data[j * 1024..(j + 1) * 1024]).is_err() {
                    all_buffered = false;
                    break;
                }
            }
            if !all_buffered {
                continue;
            }
            // The forced flush is the all-or-error point.
            if bounded(&p, || h.fsync()) {
                acked.push((p, data));
            }
        }
        let injected: u64 = injectors.iter().map(|i| i.total()).sum();
        assert!(injected > 0, "seed {seed:#x}: chaos never fired");

        // Judge acked flushes from a clean client: size and bytes must
        // both be complete — a short file here is a silently lost tail.
        let clean_eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
        let clean = GekkoClient::mount(
            clean_eps,
            &ClusterConfig::new(2).with_chunk_size(4096),
        )
        .unwrap();
        for (p, data) in &acked {
            let m = clean.stat(p).unwrap();
            assert_eq!(
                m.size,
                data.len() as u64,
                "seed {seed:#x}: flush acked but size is short on {p}"
            );
            let h = clean.open_handle(p, OpenFlags::RDONLY).unwrap();
            assert_eq!(
                &h.pread(0, data.len()).unwrap(),
                data,
                "seed {seed:#x}: flush acked but bytes lost on {p}"
            );
        }
        assert!(
            !acked.is_empty(),
            "seed {seed:#x}: heavy chaos should still let some flushes through"
        );
        for d in &ds {
            d.shutdown();
        }
    }
}

#[test]
fn forced_flush_after_daemon_kill_errors_or_lands_completely() {
    // Kill a daemon while a handle still holds a buffered run, then
    // force the flush. The flush must either surface a typed error or
    // — if every chunk of the run happens to live on surviving nodes —
    // land completely and read back bit-exact. Nothing in between.
    let ds = daemons(2);
    let endpoints: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
    let config = ClusterConfig::new(2)
        .with_chunk_size(4096)
        .with_write_back(64 * 1024);
    let fs = GekkoClient::mount(endpoints, &config).unwrap();

    let h = fs
        .open_handle("/kill/buffered", OpenFlags::RDWR.with_create())
        .unwrap();
    let data: Vec<u8> = (0..32 * 1024u32).map(|b| (b % 241) as u8).collect();
    for j in 0..32 {
        h.pwrite((j * 1024) as u64, &data[j * 1024..(j + 1) * 1024]).unwrap();
    }

    // Mid-flight kill: the 8-chunk run is hash-striped over both
    // nodes, so the dead daemon almost certainly owns part of it.
    ds[1].shutdown();

    match h.fsync() {
        Err(_) => {
            // Loud failure: the contract held. The buffered tail was
            // not silently dropped — the caller knows to recover.
        }
        Ok(()) => {
            // Success claims every chunk landed on live nodes; the
            // same handle (cached size, no stat RPC) must read the
            // whole run back bit-exact.
            assert_eq!(
                h.pread(0, data.len()).unwrap(),
                data,
                "flush acked after daemon kill but bytes are not readable"
            );
        }
    }
    drop(h);
    ds[0].shutdown();
}

// ---- kill/rejoin schedules under N-way replication -----------------

/// Chunk size for the replication schedules: small enough that every
/// file stripes over several replica sets.
const REPL_CHUNK: u64 = 2048;

/// Recovery must complete within this bound once a daemon rejoins
/// (heartbeat interval 20 ms, dead-after 150 ms, in-process pushes).
const RECOVERY_BOUND: Duration = Duration::from_secs(10);

fn repl_cluster_config(nodes: usize) -> ClusterConfig {
    ClusterConfig::new(nodes)
        .with_chunk_size(REPL_CHUNK)
        .with_retry(chaos_retry())
        .with_replication(ReplicationConfig {
            replicas: 2,
            // Quorum 1: a write is durable once any replica holds it,
            // so the workload keeps completing with one daemon down.
            write_quorum: 1,
            hedge_after_ms: 15,
            heartbeat_interval_ms: 20,
            suspect_after_ms: 60,
            dead_after_ms: 150,
        })
}

/// Seeded payload: same shape as [`gkfs_integration::payload`] but
/// keyed so every (seed, file) pair differs.
fn repl_payload(seed: u64, i: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|b| (b.wrapping_mul(31).wrapping_add(seed ^ (i << 8)) % 251) as u8)
        .collect()
}

/// Whether daemon `node` holds every chunk and metadata entry that
/// replica placement assigns it for `files` — byte-exact, judged
/// directly against its backends (in-process white-box check). This is
/// the re-replication convergence predicate the recovery bound polls.
fn node_holds_its_share(
    cluster: &Cluster,
    node: usize,
    files: &[(String, Vec<u8>)],
    config: &ClusterConfig,
) -> bool {
    let dist = Distributor::new(config.nodes);
    let replicas = config.replication.replicas;
    let d = cluster.daemon(node);
    for (path, data) in files {
        if dist.metadata_replicas(path, replicas).contains(&node)
            && !gkfs_integration::holds_meta(d, path)
        {
            return false;
        }
        let chunks = (data.len() as u64).div_ceil(REPL_CHUNK);
        for c in 0..chunks {
            if !dist.chunk_replicas(path, c, replicas).contains(&node) {
                continue;
            }
            let lo = (c * REPL_CHUNK) as usize;
            let hi = data.len().min(lo + REPL_CHUNK as usize);
            match d.backends().data.read_chunk(path, c, 0, (hi - lo) as u64) {
                Ok(bytes) if bytes == data[lo..hi] => {}
                _ => return false,
            }
        }
    }
    true
}

/// Read every acked file back through the client and assert bit-exact
/// contents — the zero-data-loss judgement.
fn verify_all(fs: &GekkoClient, files: &[(String, Vec<u8>)], phase: &str) {
    for (path, data) in files {
        let t0 = Instant::now();
        let h = fs
            .open_handle(path, OpenFlags::RDONLY)
            .unwrap_or_else(|e| panic!("{phase}: open {path}: {e}"));
        let back = h
            .pread(0, data.len())
            .unwrap_or_else(|e| panic!("{phase}: read {path}: {e}"));
        assert_eq!(&back, data, "{phase}: acked write lost or corrupted on {path}");
        assert!(
            t0.elapsed() < OP_BOUND,
            "{phase}: replicated read of {path} exceeded {OP_BOUND:?}"
        );
    }
}

#[test]
fn kill_rejoin_schedule_loses_no_acked_write_and_recovers_in_bound() {
    for seed in SEEDS {
        let config = repl_cluster_config(3);
        let mut cluster = Cluster::deploy(config.clone()).unwrap();
        let fs = cluster.mount().unwrap();

        // Phase 1: acked writes with all daemons up.
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for i in 0..10u64 {
            let p = format!("/kr/pre.{i}");
            let data = repl_payload(seed, i, 3 * REPL_CHUNK as usize + 511);
            let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, &data).unwrap();
            h.close().unwrap();
            files.push((p, data));
        }

        // Phase 2: kill one daemon (seed-chosen). Every acked write
        // must remain readable through replica failover, and new
        // writes must still reach quorum.
        let victim = (seed as usize) % 3;
        cluster.kill(victim);
        verify_all(&fs, &files, "one daemon down");
        for i in 0..6u64 {
            let p = format!("/kr/mid.{i}");
            let data = repl_payload(seed ^ 0xFEED, i, 2 * REPL_CHUNK as usize + 77);
            let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, &data).unwrap();
            h.close().unwrap();
            files.push((p, data));
        }
        verify_all(&fs, &files, "after degraded writes");

        // Phase 3: rejoin (the daemon restarts EMPTY — in-memory
        // backends). Peers must detect the epoch flip and drain its
        // share back within the recovery bound.
        cluster.rejoin(victim).unwrap();
        // Empty, answering, drain-back under way: an open's frame finds
        // on it no entry (the chain moves on), an entry whose chunk 0
        // has not arrived (`held = false`: no head, the read fails
        // over), or both — never zeros for an acknowledged byte.
        verify_all(&fs, &files, "ingest, rejoined, drain-back under way");
        let t0 = Instant::now();
        while !node_holds_its_share(&cluster, victim, &files, &config) {
            assert!(
                t0.elapsed() < RECOVERY_BOUND,
                "seed {seed:#x}: node {victim} not re-replicated within {RECOVERY_BOUND:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }

        // Phase 4: kill a *different* daemon. Data whose only
        // pre-rejoin copy lived there now survives solely because
        // drain-back restored the rejoined node's share — the
        // strongest zero-loss statement this schedule can make.
        let second = (victim + 1) % 3;
        cluster.kill(second);
        verify_all(&fs, &files, "second daemon down after recovery");

        cluster.shutdown();
    }
}

/// A small file through a write-back mount, the way the ingest
/// workloads do it: `open(O_CREAT|O_EXCL)`, 512 B `write`s, `close` —
/// nothing leaves the client before the `close`, whose one frame per
/// metadata replica carries create, bytes and size.
fn ingest_small(fs: &GekkoClient, path: &str, data: &[u8]) -> gekkofs::Result<()> {
    let h = fs.open_handle(path, OpenFlags::WRONLY.with_create().with_exclusive())?;
    for piece in data.chunks(512) {
        h.write(piece)?;
    }
    h.close()
}

#[test]
fn small_file_ingest_across_kill_and_rejoin_keeps_every_acked_close() {
    // The kill/rejoin schedule over the one-frame ingest: chunk 0 and
    // the entry share a replica set, so a `close` that returned `Ok`
    // while the metadata primary was dead left both on the survivor,
    // and drain-back owes the rejoined node both. Every scan
    // (`verify_all`) is through the write-back mount that ingested: its
    // opens are `OpenFile` frames, answered by the survivor with the
    // file in the reply while the primary is dead.
    for seed in SEEDS {
        let config = repl_cluster_config(3).with_write_back(64 * 1024);
        let mut cluster = Cluster::deploy(config.clone()).unwrap();
        let fs = cluster.mount().unwrap();
        let dist = Distributor::new(config.nodes);
        let victim = (seed as usize) % 3;
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        // One-chunk files, and every third one spilling into chunk 1.
        let ingest = |phase: &str, i: u64| {
            let p = format!("/kr26/{phase}.{i}");
            let len = if i % 3 == 2 { REPL_CHUNK as usize + 700 } else { 400 + (i as usize * 211) % 1600 };
            let data = repl_payload(seed ^ phase.len() as u64, i, len);
            bounded(&p, || ingest_small(&fs, &p, &data)).then_some((p, data))
        };

        files.extend((0..9).filter_map(|i| ingest("pre", i)));
        cluster.kill(victim);
        files.extend((0..15).filter_map(|i| ingest("down", i)));
        let orphaned = files
            .iter()
            .filter(|(p, _)| p.contains("down") && dist.locate_metadata(p) == victim)
            .count();
        assert!(orphaned > 0, "seed {seed:#x}: no close was acknowledged with its metadata primary dead");
        let sizes_hold = |files: &[(String, Vec<u8>)], phase: &str| {
            for (p, data) in files {
                assert_eq!(fs.stat(p).unwrap().size, data.len() as u64, "seed {seed:#x}, {phase}: size of {p}");
            }
        };
        verify_all(&fs, &files, "ingest, primary down");
        sizes_hold(&files, "primary down");

        cluster.rejoin(victim).unwrap();
        let t0 = Instant::now();
        while !node_holds_its_share(&cluster, victim, &files, &config) {
            assert!(
                t0.elapsed() < RECOVERY_BOUND,
                "seed {seed:#x}: node {victim} not re-replicated within {RECOVERY_BOUND:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        files.extend((0..6).filter_map(|i| ingest("back", i)));

        // The other member of the victim's sets goes: what is read now
        // is read from the rejoined node.
        cluster.kill((victim + 1) % 3);
        verify_all(&fs, &files, "ingest, read from the rejoined node");
        sizes_hold(&files, "rejoined");
        cluster.shutdown();
    }
}

#[test]
fn a_small_file_frame_whose_reply_is_dropped_is_acknowledged_once_with_its_bytes() {
    // The drop-reply fault alone, at one in four: the daemon applied
    // the frame — created the entry, wrote the bytes — and the client
    // sends it again. The resubmission says what it is, so the
    // `Exists` its create meets is read as its own first delivery:
    // every `close` is `Ok`, never `Exists`, and the file is whole.
    for seed in SEEDS {
        let ds = daemons(2);
        let lossy = |seed| ChaosConfig { drop_reply: 0.25, ..ChaosConfig::quiet(seed) };
        let (endpoints, injectors) = chaos_endpoints(&ds, lossy, seed);
        let config = ClusterConfig::new(2)
            .with_write_back(64 * 1024)
            .with_retry(chaos_retry());
        let fs = GekkoClient::mount(endpoints, &config).unwrap();
        fs.mkdir("/lossy", 0o755).unwrap();
        let files: Vec<(String, Vec<u8>)> = (0..40u64)
            .map(|i| (format!("/lossy/f.{i}"), repl_payload(seed, i, 4096)))
            .collect();
        for (p, data) in &files {
            let t0 = Instant::now();
            ingest_small(&fs, p, data).unwrap_or_else(|e| panic!("seed {seed:#x}: ingest of {p}: {e}"));
            assert!(t0.elapsed() < OP_BOUND);
        }
        let dropped: u64 = injectors
            .iter()
            .map(|i| i.dropped_replies.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        assert!(dropped > 0, "seed {seed:#x}: no reply was dropped");

        let clean_eps: Vec<Arc<dyn Endpoint>> = ds.iter().map(|d| d.endpoint()).collect();
        let clean = GekkoClient::mount(clean_eps, &ClusterConfig::new(2)).unwrap();
        for (p, data) in &files {
            assert_eq!(clean.stat(p).unwrap().size, data.len() as u64, "seed {seed:#x}: {p}");
        }
        verify_all(&clean, &files, "dropped replies");
        let report = clean.fsck().unwrap();
        assert!(report.is_clean(), "seed {seed:#x}: {report:?}");
        for d in &ds {
            d.shutdown();
        }
    }
}

#[test]
fn rejoin_window_reads_fail_over_instead_of_zeros() {
    // The hardest replicated-read case: a daemon is killed and rejoins
    // EMPTY, and the workload reads *before* any drain-back can run
    // (heartbeats are configured out of the test's lifetime, so no
    // repair and no drain-back ever fire). The rejoined replica
    // answers every op "chunk absent"; the client must fail over to
    // the sibling that still holds the bytes instead of accepting a
    // zero-filled answer. Deliberately NO convergence polling between
    // the rejoin and the reads — this is exactly the window where an
    // empty replica used to shadow acknowledged writes.
    for seed in SEEDS {
        let config = ClusterConfig::new(3)
            .with_chunk_size(REPL_CHUNK)
            .with_retry(chaos_retry())
            .with_replication(ReplicationConfig {
                replicas: 2,
                write_quorum: 1,
                hedge_after_ms: 15,
                heartbeat_interval_ms: 3_600_000,
                suspect_after_ms: 3_600_000,
                dead_after_ms: 7_200_000,
            });
        let mut cluster = Cluster::deploy(config.clone()).unwrap();
        let fs = cluster.mount().unwrap();

        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for i in 0..10u64 {
            let p = format!("/window/f.{i}");
            let data = repl_payload(seed, i, 3 * REPL_CHUNK as usize + 257);
            let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, &data).unwrap();
            h.close().unwrap();
            files.push((p, data));
        }

        let victim = (seed as usize) % 3;
        cluster.kill(victim);
        cluster.rejoin(victim).unwrap();

        // The victim is back, answering, and empty. Every acked byte
        // must still read back exactly.
        verify_all(&fs, &files, "rejoined-empty window");
        cluster.shutdown();
    }
}

#[test]
fn rejoin_window_small_file_scans_are_the_survivors_bytes_never_zeros() {
    // The same window for what a write-back mount ingests and scans: a
    // read-only open there asks for the file with its entry, and the
    // daemon it asks first rejoined EMPTY (no drain-back, as above).
    for seed in SEEDS {
        let config = ClusterConfig::new(3)
            .with_chunk_size(REPL_CHUNK)
            .with_retry(chaos_retry())
            .with_write_back(64 * 1024)
            .with_replication(ReplicationConfig {
                replicas: 2,
                write_quorum: 1,
                hedge_after_ms: 15,
                heartbeat_interval_ms: 3_600_000,
                suspect_after_ms: 3_600_000,
                dead_after_ms: 7_200_000,
            });
        let mut cluster = Cluster::deploy(config.clone()).unwrap();
        let fs = cluster.mount().unwrap();
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for i in 0..12u64 {
            let p = format!("/window/small.{i}");
            let data = repl_payload(seed, i, 300 + (i as usize * 137) % 1700);
            ingest_small(&fs, &p, &data).unwrap();
            files.push((p, data));
        }
        let spent = |scan: &dyn Fn()| {
            let before = fs.stats().rpcs_issued.load(Ordering::Relaxed);
            scan();
            fs.stats().rpcs_issued.load(Ordering::Relaxed) - before
        };
        let n = files.len() as u64;
        assert_eq!(spent(&|| verify_all(&fs, &files, "healthy")), n, "seed {seed:#x}: an open, and the file in its reply");

        let victim = (seed as usize) % 3;
        let dist = Distributor::new(config.nodes);
        let asked_first = files.iter().filter(|(p, _)| dist.locate_metadata(p) == victim).count() as u64;
        assert!(asked_first > 0, "seed {seed:#x}: no file has the victim first in its chain");
        cluster.kill(victim);
        cluster.rejoin(victim).unwrap();

        // It answers an open `NotFound`: the chain moves on, and the
        // survivor's reply is the file.
        let window = spent(&|| verify_all(&fs, &files, "rejoined-empty window"));
        assert_eq!(window, n + asked_first, "seed {seed:#x}: one more open where the victim is asked first");
        // Then the entries arrive ahead of the bytes (drain-back pushes
        // them apart): the rejoined node answers an open with the entry
        // and `held = false` — it vouches for no byte, the handle holds
        // no head, and the read fails over down the chain, the victim
        // answering "absent" once more.
        for (p, data) in &files {
            if dist.metadata_replicas(p, 2).contains(&victim) {
                let entry = gkfs_common::Metadata { size: data.len() as u64, ..gkfs_common::Metadata::new_file(1) };
                cluster.daemon(victim).backends().meta.install_replica(p, &entry).unwrap();
            }
        }
        let unvouched = spent(&|| verify_all(&fs, &files, "entries back, chunks not"));
        assert_eq!(unvouched, n + 2 * asked_first, "seed {seed:#x}: an unvouched open, then a read that fails over");
        cluster.shutdown();
    }
}

#[test]
fn rejoin_window_stat_many_fails_over_like_stat() {
    // The metadata half of the window above, same setup (killed,
    // rejoined EMPTY, no repair, no drain-back, no polling): the third
    // of the files whose metadata primary is the empty node is answered
    // `NotFound` by it, op by op inside an `Ok` frame. A unary stat
    // asks the replica next; a stat frame must do the same for exactly
    // those ops instead of taking the empty node's word as final.
    for seed in SEEDS {
        let config = ClusterConfig::new(3)
            .with_chunk_size(REPL_CHUNK)
            .with_retry(chaos_retry())
            .with_replication(ReplicationConfig {
                replicas: 2,
                write_quorum: 1,
                hedge_after_ms: 15,
                heartbeat_interval_ms: 3_600_000,
                suspect_after_ms: 3_600_000,
                dead_after_ms: 7_200_000,
            });
        let mut cluster = Cluster::deploy(config).unwrap();
        let fs = cluster.mount().unwrap();
        let paths: Vec<String> = (0..30).map(|i| format!("/window/s.{i}")).collect();
        for (i, p) in paths.iter().enumerate() {
            let h = fs.open_handle(p, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, &vec![7u8; i + 1]).unwrap();
            h.close().unwrap();
        }

        let victim = (seed as usize) % 3;
        cluster.kill(victim);
        cluster.rejoin(victim).unwrap();

        for (i, p) in paths.iter().enumerate() {
            assert_eq!(fs.stat(p).unwrap().size, i as u64 + 1, "seed {seed}: stat {p}");
        }
        let mut asked = paths.clone();
        asked.push("/window/never-created".into());
        let many = fs.stat_many(&asked).unwrap();
        for (i, p) in paths.iter().enumerate() {
            let size = many[i].as_ref().map(|m| m.size);
            assert_eq!(size.ok(), Some(i as u64 + 1), "seed {seed}: stat_many {p}: {:?}", many[i]);
        }
        assert!(matches!(many[30], Err(GkfsError::NotFound)), "a path nobody holds stays NotFound");
        cluster.shutdown();
    }
}

/// Whether every object whose replica set contains `dead_node` has a
/// byte-exact copy on the ring substitute repair pushes to
/// ([`repair_target`]) — the
/// white-box convergence predicate for substitute-parked repair
/// copies, judged directly against the substitute's backends.
fn substitutes_hold_dead_share(
    cluster: &Cluster,
    dead_node: usize,
    files: &[(String, Vec<u8>)],
    config: &ClusterConfig,
) -> bool {
    let dist = Distributor::new(config.nodes);
    let replicas = config.replication.replicas;
    let nodes = config.nodes;
    let mut dead = vec![false; nodes];
    dead[dead_node] = true;
    for (path, data) in files {
        let mset = dist.metadata_replicas(path, replicas);
        if mset.contains(&dead_node) {
            match repair_target(&mset, dead_node, &dead, nodes) {
                Some(sub) if gkfs_integration::holds_meta(cluster.daemon(sub), path) => {}
                _ => return false,
            }
        }
        let chunks = (data.len() as u64).div_ceil(REPL_CHUNK);
        for c in 0..chunks {
            let set = dist.chunk_replicas(path, c, replicas);
            if !set.contains(&dead_node) {
                continue;
            }
            let Some(sub) = repair_target(&set, dead_node, &dead, nodes) else {
                return false;
            };
            let lo = (c * REPL_CHUNK) as usize;
            let hi = data.len().min(lo + REPL_CHUNK as usize);
            match cluster
                .daemon(sub)
                .backends()
                .data
                .read_chunk(path, c, 0, (hi - lo) as u64)
            {
                Ok(bytes) if bytes == data[lo..hi] => {}
                _ => return false,
            }
        }
    }
    true
}

#[test]
fn repair_copies_on_substitutes_serve_reads_after_second_failure() {
    // Lose one member of a replica set, let repair park copies on the
    // ring substitute, then lose the *other* member. For sets that
    // contained both victims the only surviving copy is the repair
    // copy on the substitute — a node *outside* the hash-placed set —
    // so reads and stats succeed only if the client's failover chain
    // actually consults substitutes.
    let config = repl_cluster_config(4);
    let cluster = Cluster::deploy(config.clone()).unwrap();
    let fs = cluster.mount().unwrap();

    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..12u64 {
        let p = format!("/sub/f.{i}");
        let data = repl_payload(0x5AB5_717E, i, 3 * REPL_CHUNK as usize + 123);
        let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, &data).unwrap();
        h.close().unwrap();
        files.push((p, data));
    }

    cluster.kill(1);
    let t0 = Instant::now();
    while !substitutes_hold_dead_share(&cluster, 1, &files, &config) {
        assert!(
            t0.elapsed() < RECOVERY_BOUND,
            "repair did not converge onto substitutes within {RECOVERY_BOUND:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Second failure, adjacent on the ring: replica sets {1, 2} are
    // now wholly dead and only their substitute holds the bytes.
    cluster.kill(2);
    verify_all(&fs, &files, "both members of a set down");
    for (path, data) in &files {
        assert_eq!(
            fs.stat(path).unwrap_or_else(|e| panic!("stat {path} after double failure: {e}")).size,
            data.len() as u64,
            "stat after double failure: {path}"
        );
    }
    cluster.shutdown();
}

#[test]
fn hedged_reads_keep_workload_completing_with_one_daemon_down() {
    let config = repl_cluster_config(3);
    let cluster = Cluster::deploy(config.clone()).unwrap();
    let fs = cluster.mount().unwrap();

    fs.mkdir("/hedge", 0o755).unwrap();
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..12u64 {
        let p = format!("/hedge/f.{i}");
        let data = repl_payload(0xCAFE, i, 2 * REPL_CHUNK as usize + 300);
        let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, &data).unwrap();
        h.close().unwrap();
        files.push((p, data));
    }
    cluster.kill(2);

    // The whole read workload completes: primaries on the dead node
    // fail over to their replica inside the hedge window; nothing
    // hangs, nothing errors, nothing is short.
    for round in 0..3 {
        verify_all(&fs, &files, &format!("hedged round {round}"));
    }
    // Metadata stays servable too (stat + readdir through failover).
    for (path, data) in &files {
        assert_eq!(fs.stat(path).unwrap().size, data.len() as u64);
    }
    assert_eq!(fs.readdir("/hedge").unwrap().len(), files.len());

    // The piggybacked detector flips the dead node once its silence
    // passes the suspect threshold (60 ms here) — no extra traffic
    // needed, liveness is a function of recorded failures + time.
    let t0 = Instant::now();
    while fs.node_health()[2].liveness == gekkofs::Liveness::Alive {
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "client detector never noticed the dead daemon: {:?}",
            fs.node_health()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

#[test]
fn chaos_fault_stream_is_deterministic_per_seed() {
    // Two fresh clusters, same seed, same single-threaded op sequence →
    // byte-identical fault decisions. This is what makes a chaos
    // failure in CI reproducible at the desk.
    let run = |seed: u64| -> Vec<u64> {
        let ds = daemons(2);
        let (endpoints, injectors) = chaos_endpoints(&ds, ChaosConfig::heavy, seed);
        let config = ClusterConfig::new(2).with_retry(chaos_retry());
        if let Ok(fs) = GekkoClient::mount(endpoints, &config) {
            for i in 0..60 {
                let p = format!("/det/f{i}");
                let _ = fs.create(&p, 0o644);
                let _ = fs.stat(&p);
                let _ = fs.unlink(&p);
            }
        }
        let stats: Vec<u64> = injectors
            .iter()
            .flat_map(|s| {
                [
                    s.dropped_requests.load(std::sync::atomic::Ordering::Relaxed),
                    s.dropped_replies.load(std::sync::atomic::Ordering::Relaxed),
                    s.duplicates.load(std::sync::atomic::Ordering::Relaxed),
                    s.corruptions.load(std::sync::atomic::Ordering::Relaxed),
                    s.resets.load(std::sync::atomic::Ordering::Relaxed),
                    s.delays.load(std::sync::atomic::Ordering::Relaxed),
                ]
            })
            .collect();
        for d in &ds {
            d.shutdown();
        }
        stats
    };
    let first = run(SEEDS[0]);
    let second = run(SEEDS[0]);
    assert_eq!(first, second, "same seed must replay the same fault stream");
    assert!(first.iter().sum::<u64>() > 0, "chaos never fired");
}

#[test]
fn tcp_cluster_survives_chaos_proxy_and_mid_workload_resets() {
    let seed = SEEDS[0];
    let ds = daemons(2);
    let addrs: Vec<std::net::SocketAddr> = ds
        .iter()
        .map(|d| d.serve_tcp("127.0.0.1:0").unwrap())
        .collect();
    // A wire-level chaos proxy in front of each daemon: real frames,
    // real corruption (caught by CRC), real connection resets.
    let proxies: Vec<Arc<ChaosListener>> = addrs
        .iter()
        .enumerate()
        .map(|(node, a)| {
            ChaosListener::spawn(*a, ChaosConfig::light(seed ^ ((node as u64) << 32))).unwrap()
        })
        .collect();
    let endpoints: Vec<Arc<dyn Endpoint>> = proxies
        .iter()
        .map(|p| {
            TcpEndpoint::connect_with(
                &p.local_addr().to_string(),
                EndpointOptions::new().with_timeout(Duration::from_millis(300)),
            )
            .unwrap() as Arc<dyn Endpoint>
        })
        .collect();
    let config = ClusterConfig::new(2).with_retry(chaos_retry());
    let fs = GekkoClient::mount(endpoints, &config).expect("mount through light chaos proxies");

    let _ = bounded("mkdir", || fs.mkdir("/tcp", 0o755));
    let mut ok = 0usize;
    let mut failed = 0usize;
    for batch in 0..3 {
        for i in 0..40 {
            let p = format!("/tcp/b{batch}.f{i}");
            if bounded(&p, || fs.create(&p, 0o644)) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        // Mid-workload, forcibly sever every proxied connection: all
        // in-flight requests fail retryably and the endpoints must
        // re-dial without being told.
        for p in &proxies {
            p.sever_connections();
        }
    }
    assert!(ok > failed, "retry + reconnect should carry the workload ({ok} ok, {failed} failed)");
    let reconnects: u64 = fs.node_health().iter().map(|h| h.reconnects).sum();
    assert!(
        reconnects >= 1,
        "severing live connections must force TCP re-dials (saw {reconnects})"
    );

    // Post-chaos consistency, judged over direct (un-proxied) TCP.
    let clean = gekkofs::TcpCluster::mount_remote(&addrs, &ClusterConfig::new(2)).unwrap();
    let report = clean.fsck().unwrap();
    assert!(report.is_clean(), "post-chaos fsck not clean: {report:?}");

    for p in &proxies {
        p.shutdown();
    }
    for d in &ds {
        d.shutdown();
    }
}
