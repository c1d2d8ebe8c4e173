//! The two kinds of run of one workload: the untraced run that gives
//! the end-to-end metrics, and the separate traced run that gives the
//! per-layer ones.

use crate::deploy::{cluster_config, Scratch, Setup};
use crate::probes::{self, ProbeSizes, Probes};
use crate::report::{self, median, quantile_us};
use crate::runner::{run_part, Part, PartResult, Tally};
use crate::sizes::{Sizes, RANKS, RSS_ROUNDS, SETUPS};
use crate::trace::{self, PhaseBreakdown, RpcSpan, Transport};
use crate::workloads::Workload;
use gkfs_common::Result;
use gkfs_rpc::Opcode;
use std::time::{Duration, Instant};

/// What `--workload W --seed N --seconds S --trace T` asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed for names, contents and access order.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Work per round.
    pub sizes: Sizes,
    /// Work per probe.
    pub probe_sizes: ProbeSizes,
}

impl RunSpec {
    /// A part of this run over `setup`'s untraced mounts: from round 0,
    /// for the whole of `seconds`, prefilled and drained. Callers
    /// override what differs.
    fn part<'a>(&self, setup: &'a Setup) -> Part<'a> {
        Part {
            workload: self.workload,
            mounts: &setup.ranks,
            observer: &setup.observer,
            seed: self.seed,
            sizes: self.sizes,
            traced: false,
            duration: Duration::from_secs_f64(self.seconds),
            first_round: 0,
            prefill: true,
            drain: true,
        }
    }
}

/// A finished run: the metrics for the result line, and whether every
/// check passed.
pub struct Outcome {
    /// (name, unit, value), in declaration order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

fn print_tally(t: &Tally) {
    let rate = if t.attempted == 0 {
        0.0
    } else {
        t.failed as f64 / t.attempted as f64
    };
    println!(
        "error_rate = {rate} ratio ({} failed of {} attempted)",
        t.failed, t.attempted
    );
    if let Some(why) = &t.first_failure {
        println!("first failure: {why}");
    }
}

/// Print one part's per-phase throughput and latency under the names
/// the issue gives them, and its counters.
fn print_part(spec: &RunSpec, part: &PartResult) {
    let w = spec.workload;
    let scale = w.rate_scale(&spec.sizes);
    println!("rounds = {} count (recorded, fixed work each)", part.rounds);
    for (def, st) in w.phases().iter().zip(&part.phases) {
        println!(
            "{} = {} {}",
            def.rate_name,
            st.rate() * scale,
            def.rate_unit
        );
        println!(
            "{}_p50_us = {} us ({} samples)",
            def.name,
            quantile_us(&st.samples, 0.50),
            st.samples.len()
        );
        println!(
            "{}_p99_us = {} us",
            def.name,
            quantile_us(&st.samples, 0.99)
        );
    }
    for (name, value) in part.window.layer_metrics(part.units()) {
        println!("{name} = {value}");
    }
}

/// The untraced run: set up [`SETUPS`] times (keeping the last),
/// prefill, one warm-up round, recorded rounds for `seconds`, drain.
pub fn end_to_end(spec: &RunSpec) -> Result<Outcome> {
    let scratch = Scratch::create()?;
    println!("{}", report::machine_info(scratch.path()));
    let config = cluster_config(spec.workload.write_back());

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut set_up = |i: usize| -> Result<(Setup, std::path::PathBuf)> {
        let root = scratch.path().join(format!("deploy-{i}"));
        let t0 = Instant::now();
        let setup = Setup::run(&root, config.clone())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok((setup, root))
    };
    for i in 1..SETUPS {
        let (setup, root) = set_up(i)?;
        setup.teardown();
        let _ = std::fs::remove_dir_all(root);
    }
    let (setup, _) = set_up(SETUPS)?;

    let part = run_part(&spec.part(&setup));
    setup.teardown();

    println!("workload = {} seed = {}", spec.workload.name(), spec.seed);
    print_part(spec, &part);
    print_tally(&part.tally);

    let (mutate, query) = (&part.phases[0], &part.phases[1]);
    let values = [
        mutate.rate(),
        query.rate(),
        part.round_ms(),
        quantile_us(&mutate.samples, 0.50),
        quantile_us(&query.samples, 0.50),
        median(&setup_s),
        part.rss_mark.unwrap_or_else(|| {
            println!(
                "note: fewer than {RSS_ROUNDS} rounds fitted; peak_rss_mib is the whole run's"
            );
            report::peak_rss_mib()
        }),
    ];
    let metrics: Vec<_> = report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    for (name, unit, v) in &metrics {
        println!("{name} = {v} {unit}");
    }
    Ok(Outcome {
        metrics,
        attempted: part.tally.attempted,
        failed: part.tally.failed,
    })
}

/// What a backend probe says one request of this shape costs the
/// daemon's backend, µs. `units_per_rpc` sizes a `BatchMeta` frame,
/// whose op count is not visible from outside.
fn replay_us(
    shape: (Opcode, usize, usize),
    query_phase: bool,
    units_per_rpc: f64,
    probes: &Probes,
) -> f64 {
    let p = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let chunk_io = |bytes: usize, large: &str, small: &str| {
        if bytes >= 256 * 1024 {
            bytes as f64 / (512.0 * 1024.0) * p(large)
        } else {
            (bytes as f64 / 8192.0).max(1.0) * p(small)
        }
    };
    let (opcode, bulk, reply_bulk) = shape;
    match opcode {
        Opcode::Create | Opcode::RemoveMeta => p("kv.put_us"),
        Opcode::Stat => p("kv.get_us"),
        Opcode::UpdateSize => p("kv.merge_us"),
        Opcode::BatchMeta if query_phase => units_per_rpc * p("kv.get_us"),
        Opcode::BatchMeta => units_per_rpc / 64.0 * p("kv.batch64_us"),
        Opcode::WriteChunks => chunk_io(bulk, "st.write_512k_us", "st.write_8k_us"),
        Opcode::ReadChunks => chunk_io(reply_bulk, "st.read_512k_us", "st.read_8k_us"),
        _ => 0.0,
    }
}

/// The rows of the traced-run table, in print order.
const ROWS: [&str; 4] = [
    "client.self",
    "rpc.transport",
    "daemon.self",
    "backend.replay",
];

/// One phase's traced op latency split into [`ROWS`], which sum to it;
/// or, weighted by `ops`, the sum of several phases' splits.
#[derive(Default)]
struct Split {
    ops: u64,
    op_us: f64,
    /// The in-process rpc span: `daemon.self` + `backend.replay`.
    service: f64,
    rows: [f64; 4],
}

impl Split {
    /// Add `other` weighted by its op count.
    fn add_weighted(&mut self, other: &Split) {
        let n = other.ops as f64;
        self.ops += other.ops;
        self.op_us += other.op_us * n;
        self.service += other.service * n;
        for (sum, row) in self.rows.iter_mut().zip(other.rows) {
            *sum += row * n;
        }
    }
}

fn split(
    tcp: &PhaseBreakdown,
    inproc: &PhaseBreakdown,
    query_phase: bool,
    units_per_op: f64,
    probes: &Probes,
) -> Split {
    let service = inproc.rpc_cover_us;
    let rpcs = tcp.shapes.values().sum::<u64>() as f64;
    let units_per_rpc = if rpcs > 0.0 {
        units_per_op * tcp.ops as f64 / rpcs
    } else {
        0.0
    };
    let replay_sum: f64 = tcp
        .shapes
        .iter()
        .map(|(shape, n)| *n as f64 * replay_us(*shape, query_phase, units_per_rpc, probes))
        .sum::<f64>()
        / tcp.ops.max(1) as f64;
    // RPCs of one op that overlap share wall time: scale the summed
    // replay cost by how much of the summed rpc time the op waited for.
    let overlap = if tcp.rpc_sum_us > 0.0 {
        tcp.rpc_cover_us / tcp.rpc_sum_us
    } else {
        1.0
    };
    // The replay cannot exceed the service time it is a share of.
    let backend = (replay_sum * overlap).min(service);
    Split {
        ops: tcp.ops,
        op_us: tcp.op_us,
        service,
        rows: [
            tcp.op_us - tcp.rpc_cover_us,
            tcp.rpc_cover_us - service,
            service - backend,
            backend,
        ],
    }
}

/// Run one traced part: fresh traced mounts over `transport`, rounds,
/// collect the rpc spans.
fn traced_part(
    spec: &RunSpec,
    setup: &Setup,
    transport: Transport,
    duration: Duration,
    first_round: u64,
    drain: bool,
) -> Result<(PartResult, Vec<RpcSpan>)> {
    let mut mounts = Vec::with_capacity(RANKS);
    let mut logs = Vec::new();
    for _ in 0..RANKS {
        let (fs, l) = setup.deployment.mount_traced(transport)?;
        mounts.push(fs);
        logs.extend(l);
    }
    let part = run_part(&Part {
        mounts: &mounts,
        traced: true,
        duration,
        first_round,
        prefill: false,
        drain,
        ..spec.part(setup)
    });
    let mut rpcs = Vec::new();
    let mut dropped = part.spans_dropped;
    for log in logs {
        let mut log = log.lock().expect("no thread panics holding the span log");
        rpcs.append(&mut log.spans);
        dropped += log.dropped;
    }
    if dropped > 0 {
        println!("note: {dropped} spans beyond the in-memory cap were not kept");
    }
    Ok((part, rpcs))
}

/// The traced run. A quarter of `seconds` each: untraced over TCP (the
/// overhead baseline), traced over TCP, traced over the same daemons'
/// in-process endpoints; then the stand-alone probes.
pub fn traced(spec: &RunSpec) -> Result<Outcome> {
    let scratch = Scratch::create()?;
    println!("{}", report::machine_info(scratch.path()));
    let w = spec.workload;
    let config = cluster_config(w.write_back());
    let setup = Setup::run(&scratch.path().join("deploy"), config)?;
    let quarter = Duration::from_secs_f64(spec.seconds / 4.0);

    let plain = run_part(&Part {
        duration: quarter,
        drain: false,
        ..spec.part(&setup)
    });
    let (tcp, tcp_rpcs) = traced_part(
        spec,
        &setup,
        Transport::Tcp,
        quarter,
        plain.next_round,
        false,
    )?;
    let (inproc, inproc_rpcs) = traced_part(
        spec,
        &setup,
        Transport::Inproc,
        quarter,
        tcp.next_round,
        true,
    )?;
    setup.teardown();
    let probes = probes::run(scratch.path(), spec.seed, &spec.probe_sizes)?;

    let phase_names: Vec<&str> = w.phases().iter().map(|p| p.name).collect();
    let dump = crate::deploy::build_dir()?
        .join("ledger-trace")
        .join(format!("{}.json", w.name()));
    trace::dump(
        &dump,
        w.name(),
        &[
            (Transport::Tcp, &tcp.op_spans, &tcp_rpcs),
            (Transport::Inproc, &inproc.op_spans, &inproc_rpcs),
        ],
        &phase_names,
    )?;

    let nphases = phase_names.len();
    let tcp_b = trace::breakdown(&tcp.op_spans, &tcp_rpcs, nphases);
    let inproc_b = trace::breakdown(&inproc.op_spans, &inproc_rpcs, nphases);

    println!("workload = {} seed = {} (traced run)", w.name(), spec.seed);
    println!("spans: {}", dump.display());
    println!(
        "rows sum to the traced op latency (means, us per client call). rpc.transport = rpc span \
         over TCP minus the same request class in-process; daemon.service = the in-process rpc \
         span (queue + handler + backend). backend.replay is NOT observed inside the daemon: it \
         is what the stand-alone kvstore/storage probes cost for the recorded request shapes, an \
         approximation; daemon.self is service minus that replay."
    );
    let mut total = Split::default();
    let mut overhead_weighted = 0.0;
    for p in 0..nphases {
        let units_per_op = tcp.phases[p].units as f64 / tcp_b[p].ops.max(1) as f64;
        let s = split(&tcp_b[p], &inproc_b[p], p == 1, units_per_op, &probes);
        let p50_traced = quantile_us(&tcp.phases[p].samples, 0.5);
        let p50_plain = quantile_us(&plain.phases[p].samples, 0.5);
        let overhead = (p50_traced - p50_plain) / p50_plain * 100.0;
        println!(
            "phase {}: {} traced ops over tcp, {} in-process, {:.2} rpcs/op",
            phase_names[p], s.ops, inproc_b[p].ops, tcp_b[p].rpcs_per_op
        );
        for (row, v) in ROWS.iter().zip(s.rows) {
            println!("  {row:<16} {v:>12.2} us {:>6.1} %", v / s.op_us * 100.0);
        }
        println!(
            "  {:<16} {:>12.2} us  (traced op mean {:.2} us; p50 traced {:.2} us, untraced {:.2} us, overhead {:.1} %)",
            "sum",
            s.rows.iter().sum::<f64>(),
            s.op_us,
            p50_traced,
            p50_plain,
            overhead
        );
        total.add_weighted(&s);
        overhead_weighted += overhead * s.ops as f64;
    }
    let n = total.ops.max(1) as f64;

    // Counters: growth inside every recorded timed phase of the run.
    let mut window = plain.window.clone();
    for part in [&tcp, &inproc] {
        window.add_window(&Default::default(), &part.window);
    }
    let units = plain.units() + tcp.units() + inproc.units();
    let mut values: Vec<(&str, f64)> = window.layer_metrics(units);
    values.extend([
        ("client.self_us", total.rows[0] / n),
        ("rpc.transport_us", total.rows[1] / n),
        ("daemon.service_us", total.service / n),
        ("daemon.self_us", total.rows[2] / n),
        ("backend.replay_us", total.rows[3] / n),
        ("trace_overhead_pct", overhead_weighted / n),
    ]);
    values.extend(probes.iter().copied());

    let metrics: Vec<_> = report::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (name, unit, v)
        })
        .collect();
    for (name, unit, v) in &metrics {
        println!("{name} = {v} {unit}");
    }
    let mut tally = plain.tally;
    tally.merge(tcp.tally);
    tally.merge(inproc.tally);
    // A metric that never got a value is a broken measurement.
    let missing = metrics.iter().filter(|(_, _, v)| !v.is_finite()).count() as u64;
    tally.attempted += metrics.len() as u64;
    tally.failed += missing;
    print_tally(&tally);
    Ok(Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}
