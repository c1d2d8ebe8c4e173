//! Closed-loop load: one thread per rank, each with its own mount,
//! each waiting for a reply before its next call (what an MPI rank
//! does). Ranks move through a round phase by phase behind barriers;
//! a phase's wall time runs from the barrier that starts it to the
//! barrier every rank reaches when done.

use crate::counters::Counts;
use crate::sizes::{Sizes, RSS_ROUNDS};
use crate::trace::{self, OpSpan};
use crate::workloads::Workload;
use gkfs_client::GekkoClient;
use gkfs_common::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Checks made and checks failed. An op that returns `Err`, a read of
/// the wrong length, a byte mismatch and a wrong `stat` all fail one.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client calls made plus results checked.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

#[derive(Default)]
struct PhaseLog {
    /// Latency of each recorded call, ns.
    samples: Vec<u64>,
    /// Units this rank completed in the round under way.
    round_units: u64,
    /// Per recorded round: (phase wall ns, units this rank completed).
    rounds: Vec<(u64, u64)>,
}

struct Shared<'a> {
    mounts: &'a [GekkoClient],
    observer: &'a GekkoClient,
    barrier: Barrier,
    go_on: AtomicBool,
}

/// What a workload sees of its rank.
pub struct RankCtx<'a> {
    /// This rank's index.
    pub rank: usize,
    /// This rank's mount.
    pub fs: &'a GekkoClient,
    /// The run's `--seed`.
    pub seed: u64,
    /// Work per round.
    pub sizes: Sizes,
    shared: &'a Shared<'a>,
    recording: bool,
    traced: bool,
    tally: Tally,
    phases: Vec<PhaseLog>,
    spans: Vec<OpSpan>,
    spans_dropped: u64,
    /// Peak RSS when [`RSS_ROUNDS`] recorded rounds were done; rank 0.
    rss_mark: Option<f64>,
    /// Counters as the round under way began; rank 0 only.
    round_start: Option<Counts>,
    /// Counter growth inside recorded rounds; rank 0 only.
    window: Counts,
}

impl RankCtx<'_> {
    /// Wait for every rank.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    fn fail(&mut self, what: String) {
        self.tally.failed += 1;
        self.tally.first_failure.get_or_insert(what);
    }

    /// Count one checked result.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally.attempted += 1;
        if !ok {
            self.fail(format!("rank {}: {what}", self.rank));
        }
    }

    /// One client call outside any timed phase: tallied, not timed.
    pub fn untimed<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T>) -> Option<T> {
        self.tally.attempted += 1;
        match f() {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("rank {}: {what}: {e}", self.rank));
                None
            }
        }
    }

    /// One timed client call of phase `phase`, worth `units` units of
    /// work. The clock pair surrounds `f` and nothing else.
    pub fn op<T>(&mut self, phase: usize, units: u64, f: impl FnOnce() -> Result<T>) -> Option<T> {
        let id = if self.traced { trace::op_open() } else { 0 };
        let start = trace::now_ns();
        let result = f();
        let end = trace::now_ns();
        if self.traced {
            trace::op_close();
        }
        self.tally.attempted += 1;
        match result {
            Ok(v) => {
                let log = &mut self.phases[phase];
                log.round_units += units;
                if self.recording {
                    log.samples.push(end - start);
                    if self.traced {
                        if self.spans.len() < trace::SPAN_CAP {
                            self.spans.push(OpSpan {
                                id,
                                phase,
                                rank: self.rank,
                                start,
                                end,
                            });
                        } else {
                            self.spans_dropped += 1;
                        }
                    }
                }
                Some(v)
            }
            Err(e) => {
                self.fail(format!("rank {} phase {phase}: {e}", self.rank));
                None
            }
        }
    }

    fn read_counts(&mut self) -> Option<Counts> {
        if self.rank != 0 || !self.recording {
            return None;
        }
        match Counts::read(self.shared.mounts, self.shared.observer) {
            Ok(c) => Some(c),
            Err(e) => {
                self.fail(format!("reading counters: {e}"));
                None
            }
        }
    }

    /// Run `body` as timed phase `phase` of the round. Every rank must
    /// call this the same number of times, phases in order.
    ///
    /// Rank 0 reads the program's counters before the round's first
    /// phase and after its last, outside the timed windows, while the
    /// other ranks wait. Once per round, not per phase: the daemons
    /// answer a stats request with a full scan of their metadata
    /// store. The window therefore also holds what a workload does
    /// between its phases (IOR's close and reopen), but not the
    /// verification pass, which follows the last phase.
    pub fn phase(&mut self, phase: usize, body: impl FnOnce(&mut Self)) {
        self.barrier();
        if phase == 0 {
            self.round_start = self.read_counts();
        }
        self.barrier();
        let t0 = Instant::now();
        body(self);
        self.barrier();
        let wall = t0.elapsed().as_nanos() as u64;
        if phase + 1 == self.phases.len() {
            if let (Some(before), Some(after)) = (self.round_start.take(), self.read_counts()) {
                self.window.add_window(&before, &after);
            }
        }
        self.barrier();
        let log = &mut self.phases[phase];
        let units = std::mem::take(&mut log.round_units);
        if self.recording {
            log.rounds.push((wall, units));
        }
    }
}

/// One stretch of rounds on one set of mounts.
pub struct Part<'a> {
    /// The workload.
    pub workload: Workload,
    /// One mount per rank.
    pub mounts: &'a [GekkoClient],
    /// Mount that fetches daemon counters.
    pub observer: &'a GekkoClient,
    /// `--seed`.
    pub seed: u64,
    /// Work per round.
    pub sizes: Sizes,
    /// Record op spans.
    pub traced: bool,
    /// Start no new round once this much time has been measured.
    pub duration: Duration,
    /// Index of the first round; rounds never reuse an index, so file
    /// names stay distinct across the parts of one run.
    pub first_round: u64,
    /// Build the workload's standing state first.
    pub prefill: bool,
    /// Remove the standing state afterwards and check the namespace is
    /// empty.
    pub drain: bool,
}

/// One phase's measurements over a part.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// (wall ns, units completed by all ranks), per recorded round.
    pub rounds: Vec<(u64, u64)>,
    /// Latency of every recorded call, ns, sorted.
    pub samples: Vec<u64>,
    /// Units completed in recorded rounds.
    pub units: u64,
}

/// Interquartile mean over rounds: order them by wall time, drop the
/// fastest and the slowest quarter, and divide the rest's units by the
/// rest's time. Returns (units, ns) of the kept rounds.
///
/// Why not the median of per-round rates: where background work (a
/// memtable flush) slows every second or third round, the rounds fall
/// in two clusters and their median flips between them from run to run
/// (`mdtest.bulk` remove: 11 % spread). Why not all the work by all the
/// time: a stretch in which the host stalls the sandbox drags it
/// (`mdtest.unary`: 6 %). Measured on ten runs each, this has the
/// smallest spread on both (under 5 %).
fn interquartile(mut rounds: Vec<(u64, u64)>) -> (u64, u64) {
    rounds.sort_unstable();
    let drop = rounds.len() / 4;
    let kept = &rounds[drop..rounds.len() - drop];
    (
        kept.iter().map(|r| r.1).sum(),
        kept.iter().map(|r| r.0).sum(),
    )
}

impl PhaseStats {
    /// Units per second: the interquartile mean over recorded rounds.
    pub fn rate(&self) -> f64 {
        let (units, ns) = interquartile(self.rounds.clone());
        units as f64 / (ns as f64 / 1e9)
    }
}

/// What a part measured.
#[derive(Debug, Default)]
pub struct PartResult {
    /// Per phase of the workload.
    pub phases: Vec<PhaseStats>,
    /// Recorded rounds.
    pub rounds: usize,
    /// Counter growth inside the recorded rounds, each from the start
    /// of its first phase to the end of its last.
    pub window: Counts,
    /// Checks made and failed, recorded or not.
    pub tally: Tally,
    /// Op spans of recorded rounds (traced parts only).
    pub op_spans: Vec<OpSpan>,
    /// Op spans not kept because the buffer was full.
    pub spans_dropped: u64,
    /// Peak RSS of the process, MiB, when [`RSS_ROUNDS`] recorded rounds
    /// were done; `None` if the part ended sooner.
    pub rss_mark: Option<f64>,
    /// First round index the next part may use.
    pub next_round: u64,
}

impl PartResult {
    /// Units completed over all phases.
    pub fn units(&self) -> u64 {
        self.phases.iter().map(|p| p.units).sum()
    }

    /// Wall time of one round's timed phases, ms: the interquartile mean
    /// over recorded rounds.
    pub fn round_ms(&self) -> f64 {
        let per_round = (0..self.rounds)
            .map(|r| (self.phases.iter().map(|p| p.rounds[r].0).sum(), 1))
            .collect();
        let (rounds, ns) = interquartile(per_round);
        ns as f64 / 1e6 / rounds as f64
    }
}

fn rank_main(ctx: &mut RankCtx<'_>, part: &Part<'_>) -> u64 {
    let w = part.workload;
    let mut round = part.first_round;
    if part.prefill {
        round = w.prefill(ctx, round);
    }
    // One unrecorded round: connections, caches and lazy set-up settle.
    w.round(ctx, round);
    round += 1;
    ctx.recording = true;
    ctx.barrier();
    let start = Instant::now();
    let mut recorded = 0;
    loop {
        w.round(ctx, round);
        round += 1;
        recorded += 1;
        if ctx.rank == 0 && recorded == RSS_ROUNDS {
            ctx.rss_mark = Some(crate::report::peak_rss_mib());
        }
        if ctx.rank == 0 {
            let more = start.elapsed() < part.duration;
            ctx.shared.go_on.store(more, Ordering::SeqCst);
        }
        // The next round's barriers keep rank 0 from storing again
        // before every rank has loaded this decision.
        ctx.barrier();
        if !ctx.shared.go_on.load(Ordering::SeqCst) {
            break;
        }
    }
    ctx.recording = false;
    if part.drain {
        w.drain(ctx, round);
    }
    round
}

/// Run one part: warm-up round, then recorded rounds for the part's
/// duration.
pub fn run_part(part: &Part<'_>) -> PartResult {
    let nphases = part.workload.phases().len();
    let shared = Shared {
        mounts: part.mounts,
        observer: part.observer,
        barrier: Barrier::new(part.mounts.len()),
        go_on: AtomicBool::new(true),
    };
    let mut ranks: Vec<(RankCtx<'_>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = part
            .mounts
            .iter()
            .enumerate()
            .map(|(rank, fs)| {
                let shared = &shared;
                s.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        fs,
                        seed: part.seed,
                        sizes: part.sizes,
                        shared,
                        recording: false,
                        traced: part.traced,
                        tally: Tally::default(),
                        phases: (0..nphases)
                            .map(|_| PhaseLog {
                                samples: Vec::with_capacity(1 << 18),
                                ..PhaseLog::default()
                            })
                            .collect(),
                        spans: Vec::with_capacity(if part.traced { trace::SPAN_CAP } else { 0 }),
                        spans_dropped: 0,
                        rss_mark: None,
                        round_start: None,
                        window: Counts::default(),
                    };
                    let next = rank_main(&mut ctx, part);
                    (ctx, next)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank thread panicked"))
            .collect()
    });

    let mut out = PartResult {
        next_round: ranks[0].1,
        ..PartResult::default()
    };
    let rounds = ranks[0].0.phases[0].rounds.len();
    out.rounds = rounds;
    for p in 0..nphases {
        let mut stats = PhaseStats::default();
        for r in 0..rounds {
            // Rank 0's clock; the barriers make every rank's agree.
            let wall = ranks[0].0.phases[p].rounds[r].0;
            let units: u64 = ranks.iter().map(|(c, _)| c.phases[p].rounds[r].1).sum();
            stats.rounds.push((wall, units));
            stats.units += units;
        }
        for (ctx, _) in &mut ranks {
            stats.samples.append(&mut ctx.phases[p].samples);
        }
        stats.samples.sort_unstable();
        out.phases.push(stats);
    }
    for (ctx, _) in ranks {
        out.tally.merge(ctx.tally);
        out.op_spans.extend(ctx.spans);
        out.spans_dropped += ctx.spans_dropped;
        if ctx.rank == 0 {
            out.window = ctx.window;
            out.rss_mark = ctx.rss_mark;
        }
    }
    out
}
