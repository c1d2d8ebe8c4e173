//! `gkfs-bench pairs`: the benchmark's alternation protocol as a tool.
//!
//! The box a ledger runs on drifts between sessions by more than most
//! changes move a cell, so a ratio means something only beside what the
//! same session makes of no change at all. This runs the parent's and
//! the change's ledger binaries in alternation — pair *k* runs both on
//! seed `seed + k`, the parent first on odd pairs (1, 3, …) — and after
//! every real pair an A/A pair: the parent against a copy of its own
//! binary, alternated the same way. Every run starts in a fresh
//! directory of its own (the ledger keeps its scratch beside its
//! executable), so no run meets the file-system history another run
//! left — the deleted inodes a small-file workload steps over. It keeps every run's raw result line and
//! the child's `wait4` rusage, and judges each cell (workload × metric
//! of `BENCHMARK.json`'s `end_to_end`) from the per-pair ratios:
//!
//! * the **median pair ratio** change ÷ parent (for every metric, which
//!   way is better is the metric's `better`), its quartiles, and the
//!   pairs the change won;
//! * the **A/A band**: the lowest and highest A/A ratio (copy ÷ parent);
//! * the parent's interquartile distance ÷ its median, and the smallest
//!   change the session could have resolved — the larger of that spread
//!   and the band's reach from 1;
//! * a **verdict** ([`judge`]).
//!
//! Without a change binary it runs the A/A series alone: every cell is
//! then `aa-only`, a measure of the box.

use crate::json::{quote, Json};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A cell's verdict, judged against its A/A band and its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better on ≥ 9 pairs in 10, outside the A/A band, by more than
    /// the parent's spread.
    Improved,
    /// Worse than the parent by more than the metric's bound.
    Regressed,
    /// Worse than the parent and outside the A/A band on the bad side,
    /// but inside the bound.
    Worse,
    /// Outside the A/A band but short of a gain or a loss.
    Unchanged,
    /// Inside the A/A band, or the parent's runs spread wider than the
    /// bound: this session cannot tell.
    Unresolved,
    /// An A/A series without a change to judge.
    AaOnly,
}

impl Verdict {
    /// The verdict's name in files and tables.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::AaOnly => "aa-only",
        }
    }
}

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in a result line's `metrics`.
    pub name: String,
    /// Higher is better.
    pub higher: bool,
    /// How much worse than the parent, as a fraction, is a regression.
    pub bound: f64,
}

/// The end-to-end metrics a `BENCHMARK.json` declares.
pub fn metrics(benchmark: &Json) -> Vec<Metric> {
    let metric = |m: &Json| {
        Some(Metric {
            name: m.get("name")?.str()?.to_string(),
            higher: m.get("better")?.str()? == "higher",
            bound: m.get("bound")?.num()?,
        })
    };
    benchmark.get("end_to_end").map_or(&[][..], Json::arr).iter().filter_map(metric).collect()
}

/// Which binary a run was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The parent's binary.
    Parent,
    /// The change's binary (real pairs).
    Change,
    /// A copy of the parent's binary (A/A pairs).
    Copy,
}

impl Side {
    /// The side's name in files.
    pub fn name(self) -> &'static str {
        match self {
            Side::Parent => "parent",
            Side::Change => "change",
            Side::Copy => "copy",
        }
    }

    fn parse(s: &str) -> Option<Side> {
        [Side::Parent, Side::Change, Side::Copy].into_iter().find(|side| side.name() == s)
    }
}

/// What `wait4` reported of a child: CPU seconds and context switches.
/// Diagnostic, never a gate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub nvcsw: i64,
    /// Involuntary context switches.
    pub nivcsw: i64,
}

/// One ledger run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Pair index from 0; an A/A pair has `aa`.
    pub pair: usize,
    /// An A/A pair's run.
    pub aa: bool,
    /// Which binary ran.
    pub side: Side,
    /// The seed both runs of the pair used.
    pub seed: u64,
    /// The run's result: its last stdout line.
    pub line: Json,
    /// The child's resource usage.
    pub usage: Usage,
}

impl Run {
    /// Metric `name` of the result line.
    fn value(&self, name: &str) -> Option<f64> {
        self.line.get("metrics")?.get(name)?.get("value")?.num()
    }
}

/// The `q`-quantile of sorted `v` (linear between neighbours).
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Judge a cell: `ratios` change ÷ parent per real pair (empty for an
/// A/A series alone), `aa` copy ÷ parent per A/A pair, `spread` the
/// parent's interquartile distance ÷ its median, `won` the pairs the
/// change was better in. In order:
///
/// 1. no real pairs → [`Verdict::AaOnly`];
/// 2. the parent's spread exceeds the bound → [`Verdict::Unresolved`]
///    (the runs spread too widely to tell);
/// 3. the median ratio is worse than 1 by more than the bound →
///    [`Verdict::Regressed`];
/// 4. it lies inside the A/A band → [`Verdict::Unresolved`];
/// 5. it is better, in ≥ 9 of 10 pairs, by more than the spread →
///    [`Verdict::Improved`];
/// 6. it is worse, beyond the band's bad edge → [`Verdict::Worse`];
/// 7. otherwise [`Verdict::Unchanged`].
pub fn judge(metric: &Metric, ratios: &[f64], aa: &[f64], spread: f64, won: usize) -> Verdict {
    if ratios.is_empty() {
        return Verdict::AaOnly;
    }
    let median = quantile(&sorted(ratios.to_vec()), 0.5);
    let gain = if metric.higher { median - 1.0 } else { 1.0 - median };
    let band = sorted(aa.to_vec());
    let beyond_bad_edge = match metric.higher {
        true => band.first().is_some_and(|&lo| median < lo),
        false => band.last().is_some_and(|&hi| median > hi),
    };
    if spread > metric.bound {
        Verdict::Unresolved
    } else if -gain > metric.bound {
        Verdict::Regressed
    } else if band.first().is_some_and(|&lo| lo <= median) && band.last().is_some_and(|&hi| median <= hi) {
        Verdict::Unresolved
    } else if gain > spread && won * 10 >= ratios.len() * 9 {
        Verdict::Improved
    } else if gain < 0.0 && beyond_bad_edge {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One cell: a workload's metric over the session.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Workload.
    pub workload: String,
    /// The metric.
    pub metric: Metric,
    /// Real pairs with the metric on both sides.
    pub pairs: usize,
    /// Median change ÷ parent, and its quartiles (`NaN` without pairs).
    pub median: f64,
    /// First quartile of the ratios.
    pub q1: f64,
    /// Third quartile of the ratios.
    pub q3: f64,
    /// Pairs the change was better in.
    pub won: usize,
    /// The parent's interquartile distance ÷ its median.
    pub spread: f64,
    /// The A/A band, lowest and highest ratio (`None` without A/A pairs).
    pub band: Option<(f64, f64)>,
    /// The smallest change this session could have resolved.
    pub resolvable: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The per-pair ratios `over` ÷ parent of `metric` in `workload`'s
/// pairs (A/A pairs if `aa`), and the parent's values.
fn ratios(runs: &[Run], workload: &str, aa: bool, over: Side, metric: &str) -> (Vec<f64>, Vec<f64>) {
    let mut by_pair: BTreeMap<usize, [Option<f64>; 2]> = BTreeMap::new();
    for r in runs.iter().filter(|r| r.workload == workload && r.aa == aa) {
        let slot = match r.side {
            Side::Parent => 0,
            side if side == over => 1,
            _ => continue,
        };
        by_pair.entry(r.pair).or_default()[slot] = r.value(metric);
    }
    let mut parent = Vec::new();
    let pairs = by_pair.values().filter_map(|&[p, o]| {
        parent.extend(p);
        Some(o? / p?)
    });
    let ratios = pairs.collect();
    (ratios, parent)
}

/// Every cell of `runs`, workloads in the order they ran, metrics in
/// `metrics`' order.
pub fn cells(runs: &[Run], metrics: &[Metric]) -> Vec<Cell> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in runs {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = Vec::new();
    for w in workloads {
        for m in metrics {
            let (real, parent_real) = ratios(runs, w, false, Side::Change, &m.name);
            let (aa, parent_aa) = ratios(runs, w, true, Side::Copy, &m.name);
            let parent = sorted(if parent_real.is_empty() { parent_aa } else { parent_real });
            if parent.is_empty() {
                continue;
            }
            let spread = (quantile(&parent, 0.75) - quantile(&parent, 0.25)) / quantile(&parent, 0.5);
            let won = real.iter().filter(|&&r| if m.higher { r > 1.0 } else { r < 1.0 }).count();
            let verdict = judge(m, &real, &aa, spread, won);
            let real = sorted(real);
            let aa = sorted(aa);
            let band = aa.first().zip(aa.last()).map(|(&lo, &hi)| (lo, hi));
            let reach = band.map_or(0.0, |(lo, hi)| (hi - 1.0).max(1.0 - lo));
            let q = |at| if real.is_empty() { f64::NAN } else { quantile(&real, at) };
            out.push(Cell {
                workload: w.to_string(),
                metric: m.clone(),
                pairs: real.len(),
                median: q(0.5),
                q1: q(0.25),
                q3: q(0.75),
                won,
                spread,
                band,
                resolvable: spread.max(reach),
                verdict,
            });
        }
    }
    out
}

/// The markdown table of `cells`.
pub fn table(cells: &[Cell]) -> String {
    let mut t = String::from(
        "| workload | metric | better | pairs | change ÷ parent (median) | IQR | won | parent IQD ÷ median | A/A band | resolvable | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for c in cells {
        let band = c.band.map_or("—".into(), |(lo, hi)| format!("[{lo:.3}, {hi:.3}]"));
        let (median, iqr) = match c.pairs {
            0 => ("—".into(), "—".into()),
            _ => (format!("{:.3}", c.median), format!("[{:.3}, {:.3}]", c.q1, c.q3)),
        };
        t += &format!(
            "| {} | `{}` | {} | {} | {median} | {iqr} | {}/{} | {:.3} | {band} | {:.3} | {} |\n",
            c.workload,
            c.metric.name,
            if c.metric.higher { "higher" } else { "lower" },
            c.pairs,
            c.won,
            c.pairs,
            c.spread,
            c.resolvable,
            c.verdict.name(),
        );
    }
    t
}

/// What a session runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The parent's ledger binary.
    pub parent: PathBuf,
    /// The change's ledger binary; `None` runs the A/A series alone.
    pub change: Option<PathBuf>,
    /// Workloads, in the order they run.
    pub workloads: Vec<String>,
    /// Pairs per workload, per series.
    pub pairs: usize,
    /// Seconds per run.
    pub seconds: u64,
    /// Pair `k` runs seed `seed + k`.
    pub seed: u64,
    /// Where each binary, and each run, gets a directory of its own.
    pub work: PathBuf,
}

/// `wait4(2)` for `pid`: whether it exited with status 0, and its usage.
fn reap(pid: u32) -> Result<(bool, Usage), String> {
    // `struct rusage` on Linux: two `struct timeval`s, then fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
    let pid = i32::try_from(pid).map_err(|e| e.to_string())?;
    let (mut status, mut ru) = (0i32, Rusage::default());
    // SAFETY: both out-pointers are to locals, exclusively borrowed and
    // sized as the kernel writes them, for the call's duration.
    if unsafe { wait4(pid, &mut status, 0, &mut ru) } != pid {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    // ru_nvcsw and ru_nivcsw are the last two longs.
    let usage = Usage { user_s: secs(ru.utime), sys_s: secs(ru.stime), nvcsw: ru.rest[12], nivcsw: ru.rest[13] };
    Ok((status == 0, usage))
}

/// Run the binary in `dir` once: its result line and usage.
fn run_one(dir: &Path, workload: &str, seed: u64, seconds: u64) -> Result<(Json, Usage), String> {
    let mut child = Command::new(dir.join("gkfs-ledger"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = String::new();
    let read = child.stdout.take().map(|mut s| s.read_to_string(&mut out));
    let (ok, usage) = reap(child.id())?;
    read.transpose().map_err(|e| e.to_string())?;
    let line = out.lines().rev().find_map(|l| Json::parse(l).ok().filter(|j| j.get("metrics").is_some()));
    match (ok, line) {
        (true, Some(line)) => Ok((line, usage)),
        _ => Err(format!("{} {workload} seed {seed}: no result line", dir.display())),
    }
}

/// Run `plan`: every real and A/A pair of every workload, interleaved.
/// `progress` is told of each run as it finishes.
pub fn run(plan: &Plan, mut progress: impl FnMut(&Run)) -> Result<Vec<Run>, String> {
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    let mut dirs = vec![(Side::Parent, &plan.parent), (Side::Copy, &plan.parent)];
    dirs.extend(plan.change.as_ref().map(|c| (Side::Change, c)));
    let mut home = BTreeMap::new();
    for (side, bin) in dirs {
        let dir = plan.work.join(side.name());
        std::fs::create_dir_all(&dir).map_err(|e| io(&dir, e))?;
        std::fs::copy(bin, dir.join("gkfs-ledger")).map_err(|e| io(bin, e))?;
        home.insert(side.name(), dir.join("gkfs-ledger"));
    }
    let mut runs = Vec::new();
    for w in &plan.workloads {
        for pair in 0..plan.pairs {
            let seed = plan.seed + pair as u64;
            let series = plan.change.iter().map(|_| (false, Side::Change)).chain([(true, Side::Copy)]);
            for (aa, other) in series.collect::<Vec<_>>() {
                let order = match pair % 2 {
                    0 => [Side::Parent, other],
                    _ => [other, Side::Parent],
                };
                for side in order {
                    // The side's binary, linked into a directory made
                    // for this run and removed after it.
                    let dir = plan.work.join("run").join(format!("{w}.{pair}.{}.{}", u8::from(aa), side.name()));
                    let _ = std::fs::remove_dir_all(&dir);
                    std::fs::create_dir_all(&dir).map_err(|e| io(&dir, e))?;
                    std::fs::hard_link(&home[side.name()], dir.join("gkfs-ledger")).map_err(|e| io(&dir, e))?;
                    let (line, usage) = run_one(&dir, w, seed, plan.seconds)?;
                    std::fs::remove_dir_all(&dir).map_err(|e| io(&dir, e))?;
                    let run = Run { workload: w.clone(), pair, aa, side, seed, line, usage };
                    progress(&run);
                    runs.push(run);
                }
            }
        }
    }
    Ok(runs)
}

/// The machine line: CPU model, CPUs, kernel.
pub fn machine() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo.lines().find_map(|l| l.strip_prefix("model name")?.split(':').nth(1)).unwrap_or("?");
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{}, {cpus} CPUs, Linux {}", model.trim(), read("/proc/sys/kernel/osrelease").trim())
}

/// The session as the file `pairs` writes: the plan, the machine line,
/// the metrics judged, every run (raw line and usage), and every cell.
pub fn to_json(plan: &Plan, metrics: &[Metric], runs: &[Run]) -> String {
    let mut s = format!(
        "{{\n\"tool\": \"gkfs-bench pairs\",\n\"machine\": {},\n\"parent\": {},\n\"change\": {},\n\"pairs\": {},\n\"seconds\": {},\n\"seed\": {},\n",
        quote(&machine()),
        quote(&plan.parent.display().to_string()),
        plan.change.as_ref().map_or("null".into(), |c| quote(&c.display().to_string())),
        plan.pairs,
        plan.seconds,
        plan.seed,
    );
    let metric = |m: &Metric| {
        format!(
            "{{\"name\": {}, \"better\": \"{}\", \"bound\": {}}}",
            quote(&m.name),
            if m.higher { "higher" } else { "lower" },
            m.bound
        )
    };
    s += &format!("\"end_to_end\": [{}],\n", metrics.iter().map(metric).collect::<Vec<_>>().join(", "));
    let run = |r: &Run| {
        format!(
            "{{\"workload\": {}, \"pair\": {}, \"aa\": {}, \"side\": \"{}\", \"seed\": {}, \"usage\": {{\"user_s\": {}, \"sys_s\": {}, \"nvcsw\": {}, \"nivcsw\": {}}}, \"line\": {}}}",
            quote(&r.workload), r.pair, r.aa, r.side.name(), r.seed,
            r.usage.user_s, r.usage.sys_s, r.usage.nvcsw, r.usage.nivcsw, r.line
        )
    };
    s += &format!("\"runs\": [\n{}\n],\n", runs.iter().map(run).collect::<Vec<_>>().join(",\n"));
    let num = |v: f64| if v.is_finite() { format!("{v:.4}") } else { "null".into() };
    let cell = |c: &Cell| {
        format!(
            "{{\"workload\": {}, \"metric\": {}, \"pairs\": {}, \"median_ratio\": {}, \"ratio_q1\": {}, \"ratio_q3\": {}, \"won\": {}, \"parent_iqd_rel\": {}, \"aa_band\": {}, \"resolvable\": {}, \"verdict\": \"{}\"}}",
            quote(&c.workload), quote(&c.metric.name), c.pairs, num(c.median), num(c.q1), num(c.q3), c.won,
            num(c.spread), c.band.map_or("null".into(), |(lo, hi)| format!("[{}, {}]", num(lo), num(hi))),
            num(c.resolvable), c.verdict.name()
        )
    };
    let cells = cells(runs, metrics);
    s += &format!("\"cells\": [\n{}\n]\n}}\n", cells.iter().map(cell).collect::<Vec<_>>().join(",\n"));
    s
}

/// The metrics and runs of a file [`to_json`] wrote, from which its
/// cells are judged again.
pub fn from_json(file: &Json) -> Result<(Vec<Metric>, Vec<Run>), String> {
    let run = |r: &Json| -> Option<Run> {
        let usage = r.get("usage")?;
        let n = |k: &str| usage.get(k).and_then(Json::num).unwrap_or(0.0);
        Some(Run {
            workload: r.get("workload")?.str()?.to_string(),
            pair: r.get("pair")?.num()? as usize,
            aa: r.get("aa")? == &Json::Bool(true),
            side: Side::parse(r.get("side")?.str()?)?,
            seed: r.get("seed")?.num()? as u64,
            line: r.get("line")?.clone(),
            usage: Usage { user_s: n("user_s"), sys_s: n("sys_s"), nvcsw: n("nvcsw") as i64, nivcsw: n("nivcsw") as i64 },
        })
    };
    let runs: Option<Vec<Run>> = file.get("runs").map_or(&[][..], Json::arr).iter().map(run).collect();
    Ok((metrics(file), runs.ok_or("a run the file does not describe")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger result line.
    fn line(metrics: &[(&str, f64)]) -> Json {
        let m: Vec<String> = metrics.iter().map(|(k, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"x\"}}")).collect();
        Json::parse(&format!("{{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": {{{}}}}}", m.join(", "))).unwrap()
    }

    fn run(workload: &str, pair: usize, aa: bool, side: Side, metrics: &[(&str, f64)]) -> Run {
        Run { workload: workload.into(), pair, aa, side, seed: pair as u64, line: line(metrics), usage: Usage::default() }
    }

    fn bench() -> Vec<Metric> {
        metrics(&Json::parse(r#"{"end_to_end": [
            {"name": "query_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "mutate_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.25}]}"#).unwrap())
    }

    /// Ten real and ten A/A pairs over fixed lines: the parent reads
    /// 1000/1000/20 with a little jitter; the change reads 1010 (inside
    /// the A/A band), 600 (worse past the bound) and 14 (better in every
    /// pair); a second workload has A/A pairs only.
    fn session() -> Vec<Run> {
        let mut runs = Vec::new();
        for k in 0..10 {
            let j = (k % 3) as f64 - 1.0; // -1, 0, 1
            let parent = [("query_ops_s", 1000.0 + 10.0 * j), ("mutate_ops_s", 1000.0), ("peak_rss_mib", 20.0 + 0.1 * j)];
            let change = [("query_ops_s", 1010.0 + 5.0 * j), ("mutate_ops_s", 600.0), ("peak_rss_mib", 14.0)];
            let copy = [("query_ops_s", 1000.0 - 15.0 * j), ("mutate_ops_s", 1000.0 + j), ("peak_rss_mib", 20.0 - 0.1 * j)];
            runs.push(run("ior.seq1m", k, false, Side::Parent, &parent));
            runs.push(run("ior.seq1m", k, false, Side::Change, &change));
            runs.push(run("ior.seq1m", k, true, Side::Parent, &parent));
            runs.push(run("ior.seq1m", k, true, Side::Copy, &copy));
            runs.push(run("mdtest.unary", k, true, Side::Parent, &parent));
            runs.push(run("mdtest.unary", k, true, Side::Copy, &copy));
        }
        runs
    }

    #[test]
    fn verdicts_over_fixed_lines() {
        let cells = cells(&session(), &bench());
        let verdict = |w: &str, m: &str| cells.iter().find(|c| c.workload == w && c.metric.name == m).unwrap().clone();
        let q = verdict("ior.seq1m", "query_ops_s");
        assert_eq!(q.verdict, Verdict::Unresolved, "{q:?}");
        let (lo, hi) = q.band.unwrap();
        assert!(lo <= q.median && q.median <= hi, "{q:?}");
        let m = verdict("ior.seq1m", "mutate_ops_s");
        assert_eq!((m.verdict, m.won), (Verdict::Regressed, 0), "{m:?}");
        assert!((m.median - 0.6).abs() < 1e-9);
        let rss = verdict("ior.seq1m", "peak_rss_mib");
        assert_eq!((rss.verdict, rss.won, rss.pairs), (Verdict::Improved, 10, 10), "{rss:?}");
        assert!((rss.median - 0.7).abs() < 0.01 && rss.resolvable < 0.02, "{rss:?}");
        for name in ["query_ops_s", "mutate_ops_s", "peak_rss_mib"] {
            let aa = verdict("mdtest.unary", name);
            assert_eq!((aa.verdict, aa.pairs), (Verdict::AaOnly, 0), "{aa:?}");
            assert!(aa.median.is_nan() && aa.band.is_some(), "{aa:?}");
        }
        // The file round-trips: the same cells judged from what it holds.
        let plan = Plan {
            parent: "p/gkfs-ledger".into(),
            change: Some("c/gkfs-ledger".into()),
            workloads: vec!["ior.seq1m".into(), "mdtest.unary".into()],
            pairs: 10,
            seconds: 15,
            seed: 0,
            work: "w".into(),
        };
        let file = Json::parse(&to_json(&plan, &bench(), &session())).unwrap();
        let (metrics, runs) = from_json(&file).unwrap();
        assert_eq!(table(&super::cells(&runs, &metrics)), table(&cells));
        assert_eq!(file.get("cells").unwrap().arr().len(), cells.len());
        assert!(table(&cells).contains("| ior.seq1m | `peak_rss_mib` | lower | 10 | 0.700 |"));
    }

    #[test]
    fn judge_reads_the_spread_the_band_and_the_pairs() {
        let rss = &bench()[2];
        let better = [0.7; 10];
        assert_eq!(judge(rss, &better, &[0.98, 1.02], 0.01, 10), Verdict::Improved);
        // Eight pairs in ten are not enough, nor is a gain inside the
        // parent's own spread, nor a parent that spreads past the bound.
        assert_eq!(judge(rss, &better, &[0.98, 1.02], 0.01, 8), Verdict::Unchanged);
        assert_eq!(judge(rss, &better, &[0.98, 1.02], 0.35, 10), Verdict::Unresolved);
        assert_eq!(judge(rss, &[0.9; 10], &[0.95, 1.05], 0.2, 10), Verdict::Unchanged);
        // Worse within the bound and outside the band: worse; past the
        // bound: regressed, band or no band.
        assert_eq!(judge(rss, &[1.2; 10], &[0.98, 1.02], 0.01, 0), Verdict::Worse);
        assert_eq!(judge(&bench()[1], &[0.85; 10], &[0.95, 1.05], 0.01, 0), Verdict::Worse);
        assert_eq!(judge(rss, &[1.3; 10], &[0.6, 1.4], 0.01, 0), Verdict::Regressed);
        assert_eq!(judge(rss, &[], &[0.98, 1.02], 0.01, 0), Verdict::AaOnly);
    }
}
