//! Every figure and in-text experiment of the paper's evaluation, each
//! as functions returning [`Table`]s: `sim` is the series from the
//! calibrated simulator at MOGON II scale (deterministic — what
//! `results/*.csv` plots), `real` the same experiment on the actual
//! client/daemon code in-process at laptop scale (measured — shape
//! only). `smoke` shrinks every sweep to its smallest size so CI can
//! run all of them in seconds.

use crate::{human_ops, Table};
use gekkofs::{Cluster, ClusterConfig};
use gkfs_common::IoBackend;
use gkfs_sim::{
    sim_deploy_time, sim_ior, sim_mdtest, sim_mdtest_detailed, IorPhase, IorSimConfig,
    IorSimResult, LustreDirMode, MdtestPhase, MdtestSimConfig, SharedFileMode, SimParams,
    SystemKind,
};
use gkfs_storage::{BatchOp, BatchPayload, ChunkStorage, FileChunkStorage};
use gkfs_workloads::{run_ior, run_mdtest, IorConfig, MdtestConfig};
use std::time::Instant;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// The node counts on the paper's x-axes.
pub const NODE_SWEEP: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
/// The transfer sizes of Fig. 3.
pub const XFERS: [(u64, &str); 4] =
    [(8 * KIB, "8k"), (64 * KIB, "64k"), (MIB, "1m"), (64 * MIB, "64m")];
const IOR_PHASES: [(IorPhase, &str); 2] = [(IorPhase::Write, "write"), (IorPhase::Read, "read")];

/// One part of a figure's output, at full or `--smoke` size.
pub type Part = fn(bool) -> Vec<Table>;

/// Everything `figures` can print, in the order it prints it: the name
/// on the command line (and stem of `results/<name>.{txt,csv}`),
/// whether `--csv` publishes it, and the figure's parts — the simulated
/// series first (the part `--csv` renders), then the real-FS pass.
pub const FIGURES: [(&str, bool, &[Part]); 8] = [
    ("fig2", true, &[fig2, fig2_real]),
    ("fig3", true, &[fig3, fig3_real]),
    ("random_access", true, &[random_access]),
    ("shared_file", true, &[shared_file]),
    ("deploy_time", true, &[deploy_time, deploy_time_real]),
    ("chunk_size_sim", false, &[chunk_size]),
    ("distribution_sim", false, &[distribution]),
    ("batch_grid", false, &[batch_grid]),
];

/// `full`, or `small` under `--smoke`.
fn pick<T>(smoke: bool, small: T, full: T) -> T {
    if smoke {
        small
    } else {
        full
    }
}

/// Simulated mdtest ops/s. Scaled-down steady-state runs (see gkfs-sim
/// docs): large node counts need fewer ops per proc to reach the
/// plateau, and Lustre's fixed 4 M files scale down with them.
fn mdtest_ops(nodes: usize, phase: MdtestPhase, system: SystemKind) -> f64 {
    let mut cfg = MdtestSimConfig::new(nodes, phase, system);
    cfg.files_per_process = if nodes >= 128 { 300 } else { 1000 };
    cfg.lustre_total_files = 80_000;
    sim_mdtest(&cfg).ops_per_sec()
}

/// Simulated IOR: steady-state volume per process by transfer size
/// (scaled down from the paper's 4 GiB), then whatever `edit` changes.
fn ior(
    nodes: usize,
    phase: IorPhase,
    xfer: u64,
    edit: impl FnOnce(&mut IorSimConfig),
) -> IorSimResult {
    let mut cfg = IorSimConfig::new(nodes, phase, xfer);
    cfg.data_per_proc = match xfer {
        x if x <= 64 * KIB => 4 * MIB,
        x if x <= MIB => 16 * MIB,
        _ => 64 * MIB,
    };
    edit(&mut cfg);
    sim_ior(&cfg)
}

/// Figure 2 (a/b/c): GekkoFS vs Lustre metadata throughput, 1–512
/// nodes, 16 processes per node, plus the §IV-A headline numbers
/// (absolute ops/s at 512 nodes and the speedup ratios vs Lustre).
fn fig2(smoke: bool) -> Vec<Table> {
    let nodes = pick(smoke, &NODE_SWEEP[..2], &NODE_SWEEP);
    let top = *nodes.last().unwrap();
    let single = SystemKind::Lustre(LustreDirMode::SingleDir);
    let unique = SystemKind::Lustre(LustreDirMode::UniqueDir);
    let mut out = vec![Table::text(
        "== Figure 2: mdtest throughput vs node count (16 procs/node) ==\n   \
         workload: create/stat/remove, zero-byte files, single directory\n   \
         gekkofs: 100K files/proc in paper, scaled-down steady state here\n   \
         lustre:  4M files fixed in paper, scaled-down here; one MDS",
    )];
    let mut headline = format!("\n== §IV-A headline ({top} nodes) ==");
    for (phase, key, title, paper_ops, paper_ratio) in [
        (MdtestPhase::Create, "create", "Fig 2a: CREATE", 46e6, 1405),
        (MdtestPhase::Stat, "stat", "Fig 2b: STAT", 44e6, 359),
        (MdtestPhase::Remove, "remove", "Fig 2c: REMOVE", 22e6, 453),
    ] {
        let spec = ">phase|nodes>nodes:6|GekkoFS>gekkofs:14:ops|\
                    Lustre-single>lustre_single:14:ops|Lustre-unique>lustre_unique:14:ops";
        let mut t = Table::new(format!("\n{title} throughput [ops/s]"), spec);
        for &n in nodes {
            let systems = [SystemKind::GekkoFS, single, unique];
            t.row(&[&key, &n], &systems.map(|s| mdtest_ops(n, phase, s)));
        }
        out.push(t);
        // The paper's ratios compare against Lustre in the same
        // single-directory workload.
        let g = mdtest_ops(top, phase, SystemKind::GekkoFS);
        let ratio = g / mdtest_ops(top, phase, single);
        let (what, ops, paper) = (format!("{key}s"), human_ops(g), human_ops(paper_ops));
        headline += &format!("\n  {what:>8}: {ops} /s (paper ~{paper}), {ratio:.0}x vs Lustre ");
        headline += &format!("(paper ~{paper_ratio}x)");
    }
    // Load balance — the mechanism behind the linear scaling (§I: "all
    // data and metadata are distributed across all nodes").
    let mut cfg = MdtestSimConfig::new(top, MdtestPhase::Create, SystemKind::GekkoFS);
    cfg.files_per_process = 200;
    let (_, utils) = sim_mdtest_detailed(&cfg);
    let min = utils.iter().fold(1.0f64, |lo, &u| lo.min(u)) * 100.0;
    let max = utils.iter().fold(0.0f64, |hi, &u| hi.max(u)) * 100.0;
    out.push(Table::text(format!(
        "{headline}\n\n  daemon handler utilization at {top} nodes: min {min:.0}% / max {max:.0}%"
    )));
    out
}

/// Real-FS validation of Fig. 2 at small scale: the actual
/// client/daemon code in-process, 4 ranks per "node". The figure's
/// legend says "GekkoFS single/unique dir" — one line, because the flat
/// namespace makes the two workloads identical; verify that too.
fn fig2_real(smoke: bool) -> Vec<Table> {
    let spec = "nodes:6|create/s:12:ops|stat/s:12:ops|remove/s:12:ops|create(uniq)/s:14:ops";
    let mut t = Table::new("\n== real-FS validation (in-process cluster) ==", spec);
    for &nodes in pick(smoke, &[1usize][..], &[1, 2, 4, 8]) {
        let cluster = Cluster::deploy(ClusterConfig::new(nodes)).unwrap();
        let cfg = MdtestConfig {
            processes: nodes * 4,
            files_per_process: pick(smoke, 50, 500),
            ..MdtestConfig::default()
        };
        let unique = MdtestConfig { unique_dir: true, work_dir: "/mdtest-u".into(), ..cfg.clone() };
        let r = run_mdtest(|| cluster.mount(), &cfg).unwrap();
        let u = run_mdtest(|| cluster.mount(), &unique).unwrap();
        let single_dir = [r.creates_per_sec(), r.stats_per_sec(), r.removes_per_sec()];
        t.row(&[&nodes], &[&single_dir[..], &[u.creates_per_sec()]].concat());
        cluster.shutdown();
    }
    let note = "\n(real-FS numbers are laptop-scale; the figure's shape — GekkoFS\n \
                scaling with nodes while Lustre stays flat — is the reproduced claim)";
    vec![t, Table::text(note)]
}

/// Figure 3 (a/b): sequential write/read throughput for
/// file-per-process IOR, transfer sizes 8 KiB–64 MiB, vs the aggregated
/// SSD peak, plus the §IV-B endpoints.
fn fig3(smoke: bool) -> Vec<Table> {
    let params = SimParams::default();
    let nodes = pick(smoke, &NODE_SWEEP[..2], &NODE_SWEEP);
    let top = *nodes.last().unwrap();
    let peak = |phase, n| match phase {
        IorPhase::Write => params.ssd_peak_write_mib_s(n),
        IorPhase::Read => params.ssd_peak_read_mib_s(n),
    };
    let mut out = vec![Table::text(
        "== Figure 3: IOR sequential throughput, file-per-process ==\n   \
         (16 procs/node; paper: 4 GiB/proc, scaled-down steady state here)",
    )];
    // The text is one nodes × transfer-size table per phase; the plot
    // wants one row per point, transfer size by transfer size.
    let mut long = Table::new("", ">phase|>nodes|>xfer|>mib_s:0:mib|>ssd_peak_mib_s:0:mib");
    for ((phase, key), title) in IOR_PHASES.into_iter().zip(["Fig 3a: WRITE", "Fig 3b: READ"]) {
        let spec = "nodes:6|8k:9:mib|64k:9:mib|1m:9:mib|64m:9:mib|SSD-peak:10:mib";
        let mut wide = Table::new(format!("\n{title} throughput [MiB/s]"), spec);
        let mib_s = |n| XFERS.map(|(x, _)| ior(n, phase, x, |_| {}).mib_per_sec());
        let points: Vec<_> = nodes.iter().map(|&n| (n, mib_s(n), peak(phase, n))).collect();
        for (n, mib_s, peak) in &points {
            wide.row(&[n], &[&mib_s[..], &[*peak]].concat());
        }
        for (i, (_, xfer)) in XFERS.iter().enumerate() {
            for (n, mib_s, peak) in &points {
                long.row(&[&key, n, xfer], &[mib_s[i], *peak]);
            }
        }
        out.push(wide);
    }
    out.push(long);
    // (GiB/s, % of SSD peak) at 64 MiB transfers; (M IOPS, µs) at 8 KiB.
    let [(w_gib, w_pct), (r_gib, r_pct)] = IOR_PHASES.map(|(phase, _)| {
        let mib_s = ior(top, phase, 64 * MIB, |_| {}).mib_per_sec();
        (mib_s / 1024.0, 100.0 * mib_s / peak(phase, top))
    });
    let [(w_iops, w_us), (r_iops, _)] = IOR_PHASES.map(|(phase, _)| {
        let r = ior(top, phase, 8 * KIB, |c| c.data_per_proc = 8 * MIB);
        (r.iops() / 1e6, r.mean_latency_us())
    });
    out.push(Table::text(format!(
        "\n== §IV-B endpoints ({top} nodes, 64 MiB transfers) ==\n  \
         write: {w_gib:.0} GiB/s = {w_pct:.0}% of SSD peak (paper: ~141 GiB/s, ~80%)\n  \
         read:  {r_gib:.0} GiB/s = {r_pct:.0}% of SSD peak (paper: ~204 GiB/s, ~70%)\n  \
         8 KiB write IOPS: {w_iops:.1}M (paper: >13M), mean latency {w_us:.0} us \
         (paper: <=700 us)\n  \
         8 KiB read IOPS:  {r_iops:.1}M (paper: >22M)"
    )));
    out
}

/// Real-FS validation of §IV-B: the actual data path in-process
/// (memory-backed, so absolute numbers reflect RAM, not SSDs — shape
/// only) for Fig. 3's sequential transfers and for the two in-text
/// experiments. In-memory backends have no seek cost, so the random row
/// checks the random path, not its slowdown; and in-process RPC is so
/// cheap that the shared-file hotspot needs scale to bite — that the
/// size cache keeps the final size with fewer updates is asserted in
/// the test suites.
fn fig3_real(smoke: bool) -> Vec<Table> {
    let spec = "pattern:24|procs:6|write MiB/s:12:mib|read MiB/s:12:mib|write ops/s:12:ops";
    let mut t = Table::new("\n== real-FS validation (in-process cluster, 4 nodes) ==", spec);
    let block_size = pick(smoke, MIB, 8 * MIB);
    let own = |transfer_size, random| {
        IorConfig { transfer_size, block_size, random, ..IorConfig::default() }
    };
    let shared = IorConfig { processes: 8, file_per_process: false, ..own(8 * KIB, false) };
    for (pattern, size_cache, cfg) in [
        ("8k sequential", 0, own(8 * KIB, false)),
        ("64k sequential", 0, own(64 * KIB, false)),
        ("1m sequential", 0, own(MIB, false)),
        ("8k random", 0, own(8 * KIB, true)),
        ("8k shared file", 0, shared.clone()),
        ("8k shared, size cache 32", 32, shared),
    ] {
        let cluster = Cluster::deploy(ClusterConfig::new(4).with_size_cache(size_cache)).unwrap();
        let r = run_ior(|| cluster.mount(), &cfg).unwrap();
        cluster.shutdown();
        let rates = [r.write_mib_per_sec(), r.read_mib_per_sec(), r.write_iops()];
        t.row(&[&pattern, &cfg.processes], &rates);
    }
    let note = "\n(memory-backed, so shape only: no seek cost for the random row to pay, and\n \
                in-process RPC is too cheap for the shared-file hotspot to bite at this scale)";
    vec![t, Table::text(note)]
}

/// §IV-B random-access experiment. Paper: *"random accesses for large
/// transfer sizes are conceptually the same as sequential accesses. For
/// smaller transfer sizes, e.g., 8 KiB, random write and read
/// throughput decreased by approximately 33% and 60%, respectively,
/// for 512 nodes."*
fn random_access(smoke: bool) -> Vec<Table> {
    let nodes = pick(smoke, 2, 512);
    let title =
        format!("== §IV-B: random vs sequential access ({nodes} nodes, file-per-process) ==\n");
    let spec = "phase>phase:6|xfer>xfer:6|seq MiB/s>seq_mib_s:12|rand MiB/s>rand_mib_s:12|\
                delta:8:0%";
    let mut t = Table::new(title, spec);
    for (phase, name) in IOR_PHASES {
        for (xfer, label) in &XFERS[..3] {
            let run = |random| ior(nodes, phase, *xfer, |c| c.random = random).mib_per_sec();
            let (seq, rnd) = (run(false), run(true));
            t.row(&[&name, label], &[seq, rnd, 100.0 * (rnd / seq - 1.0)]);
        }
    }
    let note = "\npaper: 8 KiB random write ~-33%, random read ~-60%,\n       \
                >= chunk size (512 KiB): random ~= sequential";
    vec![t, Table::text(note)]
}

/// §IV-B shared-file experiment: the size-update hotspot and the
/// client-cache fix. Paper: *"No more than approximately 150K write
/// operations per second were achieved ... due to network contention on
/// the daemon which maintains the shared file's metadata ... we added a
/// rudimentary client cache to locally buffer size updates ... As a
/// result, shared file I/O throughput for sequential and random access
/// were similar to file-per-process performances."*
fn shared_file(smoke: bool) -> Vec<Table> {
    let spec = "nodes>nodes:6|fpp ops/s>fpp_iops:16:ops|shared ops/s>shared_iops:16:ops|\
                shared+cache>shared_cached_iops:16:ops";
    let mut t = Table::new("== §IV-B: shared-file writes (8 KiB transfers) ==\n", spec);
    for &n in pick(smoke, &[4usize][..], &[4, 16, 64, 256, 512]) {
        let cached = SharedFileMode::SharedCached { window: 256 };
        let modes = [SharedFileMode::FilePerProcess, SharedFileMode::SharedNoCache, cached];
        let iops = modes.map(|mode| {
            let set = |c: &mut IorSimConfig| (c.mode, c.data_per_proc) = (mode, 2 * MIB);
            ior(n, IorPhase::Write, 8 * KIB, set).iops()
        });
        t.row(&[&n], &iops);
    }
    let note = "\npaper: uncached shared-file writes cap at ~150K ops/s (flat),\n       \
                cached ~= file-per-process";
    vec![t, Table::text(note)]
}

/// Deployment time: "it can be easily deployed in under 20 seconds on
/// a 512 node cluster by any user" (§I; §IV: daemon restarts take
/// <20 s at 512 nodes).
fn deploy_time(smoke: bool) -> Vec<Table> {
    let spec = "nodes>nodes:6|simulated>seconds:14:2s";
    let mut t = Table::new("== deployment time vs node count ==\n", spec);
    for &n in pick(smoke, &NODE_SWEEP[..2], &NODE_SWEEP) {
        t.row(&[&n], &[sim_deploy_time(n, &SimParams::default()).as_secs_f64()]);
    }
    vec![t, Table::text("\npaper bound: < 20 s at 512 nodes")]
}

/// Measured in-process deployment and shutdown.
fn deploy_time_real(smoke: bool) -> Vec<Table> {
    let title = "\n== real in-process deployment (measured) ==\n";
    let mut t = Table::new(title, "nodes:6|deploy:14:3s|shutdown:14:3s");
    for &nodes in pick(smoke, &[1usize, 8][..], &[1, 8, 64, 256, 512]) {
        let t0 = Instant::now();
        let cluster = Cluster::deploy(ClusterConfig::new(nodes)).unwrap();
        let deploy = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        cluster.shutdown();
        t.row(&[&nodes], &[deploy, t1.elapsed().as_secs_f64()]);
    }
    let note = "\n(in-process daemons skip ssh fan-out; the simulated column\n \
                models the remote-launch tree of a real cluster)";
    vec![t, Table::text(note)]
}

/// §V future work, item 1: "Investigate GekkoFS' [performance] with
/// various chunk sizes" — at simulated MOGON II scale. Small chunks
/// stripe even medium files over many SSDs but pay the fixed
/// per-chunk-file cost more often; large chunks amortize that cost but
/// concentrate a transfer on fewer SSDs.
fn chunk_size(smoke: bool) -> Vec<Table> {
    let nodes = pick(smoke, 2, 64);
    let chunks = [64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, 1024 * KIB, 4096 * KIB];
    let spec: String = chunks.iter().map(|c| format!("|{}K:9", c / KIB)).collect();
    let title = format!("== chunk-size ablation (simulated, {nodes} nodes, file-per-process) ==");
    let mut out = vec![Table::text(title)];
    for (phase, name) in [(IorPhase::Write, "WRITE"), (IorPhase::Read, "READ")] {
        let mut t = Table::new(format!("\n{name} [MiB/s]"), &format!("xfer\\chunk:10{spec}"));
        for (xfer, label) in [(8 * KIB, "8k"), (64 * KIB, "64k"), (MIB, "1m"), (16 * MIB, "16m")] {
            let mib_s = chunks.map(|chunk| {
                let set = |c: &mut IorSimConfig| {
                    c.params.chunk_size = chunk;
                    c.data_per_proc = (16 * MIB).max(xfer);
                };
                ior(nodes, phase, xfer, set).mib_per_sec()
            });
            t.row(&[&label], &mib_s);
        }
        out.push(t);
    }
    out.push(Table::text(
        "\n(the paper's default, 512 KiB, balances per-chunk-file cost\n \
         against striping width; sub-chunk transfers are insensitive,\n \
         chunk-spanning transfers prefer chunks small enough to spread)",
    ));
    out
}

/// §V future work, item 3: "explore different data distribution
/// patterns" — wide striping (GekkoFS) vs write-local placement
/// (BurstFS-style, the §II contrast), at simulated scale. Three
/// observables: balanced file-per-process writes (both placements are
/// SSD-bound), fabric traffic (wide striping ships (N-1)/N of all
/// bytes, write-local none), and N-to-1 reads (wide striping scales,
/// write-local collapses onto the writer's single SSD — the paper's §II
/// critique of BurstFS, "limited to write data locally").
fn distribution(_smoke: bool) -> Vec<Table> {
    // One run per placement: [wide-striped, write-local].
    let run = |nodes: usize, phase: IorPhase, n_to_one: bool| {
        [false, true].map(|locality| {
            let set = |c: &mut IorSimConfig| {
                (c.locality, c.n_to_one_read, c.data_per_proc) = (locality, n_to_one, 8 * MIB)
            };
            ior(nodes, phase, MIB, set)
        })
    };
    let node_counts = [4usize, 16, 64];
    let versus = |title: &str, phase: IorPhase, n_to_one: bool| {
        let mut t = Table::new(title, "nodes:6|wide-stripe:14|write-local:14");
        for n in node_counts {
            t.row(&[&n], &run(n, phase, n_to_one).map(|r| r.mib_per_sec()));
        }
        t
    };
    let mut traffic = "\n2) fabric traffic for those writes [fraction of bytes]".to_string();
    for n in node_counts {
        let shipped = |r: IorSimResult| r.net_bytes as f64 / r.total_bytes as f64;
        let [wide, local] = run(n, IorPhase::Write, false).map(shipped);
        let expected = (n - 1) as f64 / n as f64;
        traffic += &format!("\n  {n:>4} nodes: wide {wide:.2}  local {local:.2}   ");
        traffic += &format!("(expected (N-1)/N = {expected:.2})");
    }
    let writes = "== §V ablation: wide striping vs write-local placement ==\n\n\
                  1) balanced file-per-process WRITES [MiB/s] (both SSD-bound)";
    let reads = "\n3) N-to-1 READS: every rank reads rank 0's output [MiB/s]";
    vec![
        versus(writes, IorPhase::Write, false),
        Table::text(traffic),
        versus(reads, IorPhase::Read, true),
        Table::text(
            "\nwide striping pays the network on writes and wins every\n\
             cross-node access pattern; write-local saves the fabric but\n\
             pins each file to one SSD — the §II BurstFS limitation.",
        ),
    ]
}

/// Multi-core batch data-plane scoreboard: clients × chunk-io-threads.
///
/// Drives `ChunkStorage::submit_batch` read batches against the file
/// backend from N concurrent "handler" threads while the storage engine
/// runs M I/O threads, over the two shapes the daemon actually sees:
/// many large chunks (64×64 KiB — IOR-style streaming) and many small
/// ones (256×16 KiB — small-file / DL workloads). `io-threads = 0`
/// collapses the engine to fully synchronous serial I/O and is the
/// baseline row; reads are one `pread` per chunk through a cached
/// descriptor on every engine, out of a warm page cache, so the rows
/// mostly measure how well the segment fan-out overlaps *independent*
/// clients. Client and I/O thread counts stop at
/// the cores this machine has: beyond that they contend for the same
/// CPUs and a cell is scheduler noise, not overlap.
fn batch_grid(smoke: bool) -> Vec<Table> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (rounds, iters) = pick(smoke, (1, 2), (3, 20));
    let clients: Vec<usize> = [1, 2, 4].into_iter().filter(|&c| c <= cores).collect();
    let spec: String = clients.iter().map(|c| format!("|c={c} us:9:1")).collect();
    let mut out = vec![Table::text(format!(
        "== multi-core batch read grid ({cores} cores; best of {rounds} rounds, \
         {iters} iters/cell) =="
    ))];
    for (label, chunks, op_len) in [("64x64k", 64, 64 * KIB), ("256x16k", 256, 16 * KIB)] {
        let title = format!("\n-- shape {label} ({} KiB/batch) --", chunks * op_len / KIB);
        let mut t = Table::new(title, &format!("io-threads:12{spec}|agg MiB/s:10"));
        for io_threads in [0usize, 1, 2, 4].into_iter().filter(|&t| t <= cores) {
            let tag = format!("gkfs-grid-{}-{label}-{io_threads}", std::process::id());
            let dir = std::env::temp_dir().join(tag);
            let _ = std::fs::remove_dir_all(&dir);
            let storage = FileChunkStorage::open_with(&dir, IoBackend::Auto, io_threads, 64).unwrap();
            let cell = |&c: &usize| grid_cell(&storage, chunks, op_len, c, (rounds, iters));
            let mut row: Vec<f64> = clients.iter().map(cell).collect();
            row.push((chunks * op_len) as f64 / MIB as f64 / (row[row.len() - 1] * 1e-6));
            t.row(&[&format!("{:>10} {io_threads}", storage.engine_name())], &row);
            let _ = std::fs::remove_dir_all(&dir);
        }
        out.push(t);
    }
    out.push(Table::text(
        "\n(agg MiB/s column is for the widest client count; per-batch\n \
         latency is wall-clock across all clients / total batches)",
    ));
    out
}

/// One grid cell: `clients` threads each running `iters` read batches
/// of `chunks` × `op_len` against their own path (distinct fd-cache
/// entries, like distinct files on a real daemon). Returns the best of
/// `rounds` per-batch latencies in µs.
fn grid_cell(
    storage: &FileChunkStorage,
    chunks: u64,
    op_len: u64,
    clients: usize,
    (rounds, iters): (usize, usize),
) -> f64 {
    let op = |id| BatchOp { chunk_id: id, offset: 0, len: op_len, buf_offset: id * op_len };
    let ops: Vec<BatchOp> = (0..chunks).map(op).collect();
    let chunk = vec![0xB7u8; op_len as usize];
    let path = |c: usize| format!("/grid/{c}");
    for c in 0..clients {
        for id in 0..chunks {
            storage.write_chunk(&path(c), id, 0, &chunk).unwrap();
        }
    }
    let run_client = |c: usize, iters: usize| {
        for _ in 0..iters {
            let done = storage.submit_batch(&path(c), &ops, BatchPayload::Read).wait().unwrap();
            std::hint::black_box(done);
        }
    };
    // Warm the fd cache (and the page cache) before timing.
    (0..clients).for_each(|c| run_client(c, 2));
    let round = |_| {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                s.spawn(move || run_client(c, iters));
            }
        });
        t0.elapsed().as_secs_f64() * 1e6 / (iters * clients) as f64
    };
    (0..rounds).map(round).fold(f64::MAX, f64::min)
}
