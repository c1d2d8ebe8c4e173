//! Cross-validation: the simulator and the real file system must agree
//! on the paper's *qualitative* claims at scales where both can run.
//!
//! The simulator owns the 512-node numbers; these tests pin its
//! behaviour to the real implementation where they overlap — the same
//! workload shape produces the same *direction* and *relative*
//! ordering of results.
//!
//! One modelling assumption became true of the client in PR 25: the
//! simulator has always issued a write's size update concurrently with
//! its chunk transfers and completed the operation when both legs had
//! (`crates/sim/src/ior.rs`, "the candidate is known up front"), while
//! the real client awaited the chunks and only then sent the update.
//! `GekkoClient::submit_write` now sends both before awaiting either, so
//! the model and the implementation describe the same write.
//!
//! One placement rule is the implementation's alone since PR 26: it
//! puts chunk 0 of a file on its metadata owner, where the simulator
//! keeps the paper's rule and hashes every chunk by `path + chunk id`
//! on its own (`crates/sim` shares no distributor with the product).
//! At the simulator's resolution that is invisible: its IOR files are
//! 128 chunks per process, so one chunk in 128 changes owner — from one
//! uniformly drawn node to another — and its mdtest files hold no bytes
//! at all; what it reports (aggregate throughput against node count)
//! depends on the spread, which is the same. `results/*.csv` are byte
//! for byte what they were.
//!
//! The real-FS orderings are wall-clock measurements on a box that runs
//! the rest of the suite beside them, so each side is measured
//! [`RUNS`] times, the two sides alternately, and the medians are
//! compared: one run that a burst of other work slowed cannot invert
//! an ordering on its own.

use gekkofs::{Cluster, ClusterConfig};
use gkfs_sim::{
    sim_ior, sim_mdtest, IorPhase, IorSimConfig, LustreDirMode, MdtestPhase, MdtestSimConfig,
    SharedFileMode, SystemKind,
};
use gkfs_workloads::{run_ior, run_mdtest, IorConfig, MdtestConfig};

/// Runs per side of a real-FS comparison.
const RUNS: usize = 3;

fn median(mut of: Vec<f64>) -> f64 {
    of.sort_by(f64::total_cmp);
    of[of.len() / 2]
}

/// The medians of [`RUNS`] measurements of `a` and of `b`, taken
/// alternately — `a` first on even turns, `b` on odd ones — so that a
/// slow spell of the box falls on both sides. Each is passed the turn,
/// which names its run's work directory.
fn alternately(mut a: impl FnMut(usize) -> f64, mut b: impl FnMut(usize) -> f64) -> (f64, f64) {
    let (mut of_a, mut of_b) = (Vec::new(), Vec::new());
    for turn in 0..RUNS {
        if turn % 2 == 0 {
            of_a.push(a(turn));
            of_b.push(b(turn));
        } else {
            of_b.push(b(turn));
            of_a.push(a(turn));
        }
    }
    (median(of_a), median(of_b))
}

#[test]
fn scaling_mechanism_validated_spreading_real_throughput_sim() {
    // The mechanism behind Fig. 2's linear scaling is that load
    // spreads uniformly over daemons with no shared bottleneck. The
    // in-process cluster shares this machine's cores, so *wall-clock*
    // scaling cannot show here (all "nodes" compete for the same CPUs);
    // what must show is (a) the spread itself on the real FS, (b) no
    // throughput collapse as daemons are added, and (c) wall-clock
    // scaling in the calibrated simulator where each node has its own
    // resources.
    let cluster = Cluster::deploy(ClusterConfig::new(8)).unwrap();
    let cluster1 = Cluster::deploy(ClusterConfig::new(1)).unwrap();
    let creates = |cluster: &Cluster, turn: usize| {
        run_mdtest(
            || cluster.mount(),
            &MdtestConfig {
                processes: 8,
                files_per_process: 500,
                work_dir: format!("/v{turn}"),
                ..MdtestConfig::default()
            },
        )
        .unwrap()
        .creates_per_sec()
    };
    // Both cluster sizes, alternately (see `alternately`).
    let (eight, one) = alternately(|turn| creates(&cluster, turn), |turn| creates(&cluster1, turn));
    // (a) during the stat phases the files existed; verify placement
    // balance via daemon KV put counts (files were spread).
    let fs = cluster.mount().unwrap();
    let stats = fs.cluster_stats().unwrap();
    let puts: Vec<u64> = stats.iter().map(|s| s.kv_puts).collect();
    let max = *puts.iter().max().unwrap() as f64;
    let min = *puts.iter().min().unwrap() as f64;
    assert!(
        max / min.max(1.0) < 2.0,
        "metadata load must balance across daemons: {puts:?}"
    );
    // Lax floor: this is a liveness check, not a perf bar — CI boxes
    // share cores with the whole test run and absolute rates swing 10x.
    assert!(eight > 1_000.0, "sanity: real FS is functional");
    cluster.shutdown();
    cluster1.shutdown();

    // (b) adding daemons must not collapse throughput.
    assert!(
        eight > one * 0.5,
        "8 nodes {eight:.0} vs 1 node {one:.0} (medians of {RUNS} runs)"
    );

    // (c) with per-node resources (the simulator), scaling is linear.
    let sim = |nodes: usize| {
        let mut cfg = MdtestSimConfig::new(nodes, MdtestPhase::Create, SystemKind::GekkoFS);
        cfg.files_per_process = 400;
        sim_mdtest(&cfg).ops_per_sec()
    };
    let sim_1 = sim(1);
    let sim_4 = sim(4);
    assert!(sim_4 > sim_1 * 3.0, "sim: {sim_1:.0} -> {sim_4:.0}");
}

#[test]
fn both_show_create_faster_than_remove() {
    // mdtest ordering on the real FS... Files carry four chunks, so a
    // remove is structurally more than a stat — the owner's metadata
    // round trip, then every chunk holder's — as it is in the
    // simulator; on zero-byte files both are one round trip and the
    // order is scheduler noise.
    // Each run's stat phase comes before its remove phase, so RUNS runs
    // measure the two alternately.
    let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(1024)).unwrap();
    let runs: Vec<_> = (0..RUNS)
        .map(|turn| {
            run_mdtest(
                || cluster.mount(),
                &MdtestConfig {
                    processes: 4,
                    files_per_process: 250,
                    work_dir: format!("/o{turn}"),
                    file_size: 4096,
                    transfer_size: 4096,
                    ..MdtestConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    cluster.shutdown();
    let stat = median(runs.iter().map(|r| r.stats_per_sec()).collect());
    let remove = median(runs.iter().map(|r| r.removes_per_sec()).collect());
    assert!(
        stat > remove,
        "real: stat {stat:.0} should beat remove {remove:.0} (medians of {RUNS} runs)"
    );

    // ...matches the simulator's ordering (and the paper's Fig. 2:
    // stats fastest, removes slowest).
    let sim = |phase| {
        let mut cfg = MdtestSimConfig::new(8, phase, SystemKind::GekkoFS);
        cfg.files_per_process = 300;
        sim_mdtest(&cfg).ops_per_sec()
    };
    assert!(sim(MdtestPhase::Stat) > sim(MdtestPhase::Remove));
}

#[test]
fn both_show_large_transfers_beating_small() {
    let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
    let run = |xfer: u64, turn: usize| {
        let r = run_ior(
            || cluster.mount(),
            &IorConfig {
                processes: 4,
                transfer_size: xfer,
                block_size: 4 * 1024 * 1024,
                file_per_process: true,
                random: false,
                work_dir: format!("/x{xfer}-{turn}"),
            },
        )
        .unwrap();
        r.write_mib_per_sec()
    };
    let (small, large) = alternately(|turn| run(8 * 1024, turn), |turn| run(1024 * 1024, turn));
    cluster.shutdown();
    assert!(
        large > small,
        "real: 1 MiB {large:.0} vs 8 KiB {small:.0} (medians of {RUNS} runs)"
    );

    let sim = |xfer: u64| {
        let mut cfg = IorSimConfig::new(4, IorPhase::Write, xfer);
        cfg.data_per_proc = 4 * 1024 * 1024;
        sim_ior(&cfg).mib_per_sec()
    };
    assert!(sim(1024 * 1024) > sim(8 * 1024), "sim ordering must match");
}

#[test]
fn simulated_figure2_endpoints_within_band() {
    // Hard numeric pins against the paper, with generous bands: these
    // are the values EXPERIMENTS.md reports.
    let endpoint = |phase, system| {
        let mut cfg = MdtestSimConfig::new(512, phase, system);
        cfg.files_per_process = 200;
        cfg.lustre_total_files = 80_000;
        sim_mdtest(&cfg).ops_per_sec()
    };
    let g_create = endpoint(MdtestPhase::Create, SystemKind::GekkoFS);
    let g_stat = endpoint(MdtestPhase::Stat, SystemKind::GekkoFS);
    let g_remove = endpoint(MdtestPhase::Remove, SystemKind::GekkoFS);
    assert!((38e6..54e6).contains(&g_create), "creates {g_create:.0} (paper ~46M)");
    assert!((36e6..52e6).contains(&g_stat), "stats {g_stat:.0} (paper ~44M)");
    assert!((17e6..27e6).contains(&g_remove), "removes {g_remove:.0} (paper ~22M)");

    let l_create = endpoint(
        MdtestPhase::Create,
        SystemKind::Lustre(LustreDirMode::SingleDir),
    );
    let ratio = g_create / l_create;
    assert!(
        (900.0..2000.0).contains(&ratio),
        "create speedup {ratio:.0} (paper ~1405x)"
    );
}

#[test]
fn simulated_shared_file_matches_paper_story() {
    let run = |mode| {
        let mut cfg = IorSimConfig::new(64, IorPhase::Write, 8 * 1024);
        cfg.mode = mode;
        cfg.data_per_proc = 2 * 1024 * 1024;
        sim_ior(&cfg).iops()
    };
    let nocache = run(SharedFileMode::SharedNoCache);
    let cached = run(SharedFileMode::SharedCached { window: 64 });
    let fpp = run(SharedFileMode::FilePerProcess);
    assert!((100e3..200e3).contains(&nocache), "ceiling {nocache:.0} (paper ~150K)");
    assert!(cached > fpp * 0.7, "cached {cached:.0} ~ fpp {fpp:.0}");
}

#[test]
fn real_size_cache_reduces_update_rpcs() {
    // The mechanism behind the §IV-B fix, measured on the real client:
    // with a window of W the number of size-update RPCs drops ~W-fold.
    let count_updates = |window: usize| {
        let cluster =
            Cluster::deploy(ClusterConfig::new(2).with_size_cache(window)).unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs
            .open_handle("/w", gekkofs::OpenFlags::WRONLY.with_create())
            .unwrap();
        for i in 0..256u64 {
            h.pwrite(i * 64, &[1u8; 64]).unwrap();
        }
        h.close().unwrap();
        fs.flush_all().unwrap();
        let sent = fs
            .stats()
            .size_updates_sent
            .load(std::sync::atomic::Ordering::Relaxed);
        cluster.shutdown();
        sent
    };
    let sync = count_updates(0);
    let cached = count_updates(32);
    assert_eq!(sync, 256, "synchronous mode sends one update per write");
    assert!(
        cached <= 256 / 32 + 1,
        "window 32 must coalesce ~32x: sent {cached}"
    );
}
