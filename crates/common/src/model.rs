//! A miniature model checker for the workspace's lock-free and
//! locked-shared-state protocols — the loom-shaped half of the lint
//! story (DESIGN.md "Static analysis").
//!
//! The real `loom` crate is not a dependency this workspace can take,
//! so this module implements the part we actually use: **exhaustive
//! schedule exploration with a preemption bound**. A model is a piece
//! of shared state plus a set of threads, each expressed as a state
//! machine that performs exactly one *atomic step* per invocation. The
//! explorer runs every interleaving of those steps (depth-first,
//! stateless replay — the factory rebuilds fresh state per schedule)
//! and calls the model's invariant check after each complete run.
//!
//! Semantics:
//!
//! * a step returns [`Step::Ran`] (made progress), [`Step::Blocked`]
//!   (would wait: lock unavailable, queue empty), or [`Step::Done`];
//! * a blocked thread is unschedulable until *another* thread runs —
//!   the condvar/backoff approximation: any progress may unblock it;
//! * all live threads blocked ⇒ deadlock, reported with the schedule;
//! * schedules with more than `LOOM_MAX_PREEMPTIONS` (env, default 3)
//!   preemptions — switching away from a thread that could still run —
//!   are pruned, the same bound loom uses to keep CI exploration
//!   tractable. Voluntary switches (after a block or completion) are
//!   free.
//!
//! Models live in `#[cfg(test)] mod model` blocks next to the code
//! they transcribe (`taskpool.rs`, `storage/src/file.rs`); keep each
//! step honest — one shared-memory access per step — or the checker
//! explores an abstraction, not the code.

/// Result of one atomic step of a model thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Progress was made; other threads' blocks may clear.
    Ran,
    /// The thread would wait (lock held, queue empty). It will not be
    /// scheduled again until another thread runs.
    Blocked,
    /// The thread finished; it is never scheduled again.
    Done,
}

/// One model instance: shared state, threads, and the invariant that
/// must hold after every complete schedule.
pub struct Model<S> {
    /// The shared state every thread steps against.
    pub state: S,
    /// Each closure is called with the shared state and performs one
    /// atomic step, keeping its own locals captured by `move`.
    pub threads: Vec<ModelThread<S>>,
    /// Invariant over the final state; panic to report a violation.
    pub check: Box<dyn Fn(&S)>,
}

/// One model thread: a state machine performing one atomic step per
/// call.
pub type ModelThread<S> = Box<dyn FnMut(&mut S) -> Step>;

/// Exploration statistics, for tests that assert coverage.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Complete schedules executed.
    pub schedules: u64,
    /// Longest schedule, in steps.
    pub max_depth: usize,
}

/// Default preemption bound when `LOOM_MAX_PREEMPTIONS` is unset.
const DEFAULT_MAX_PREEMPTIONS: usize = 3;

/// Runaway guards: a single run longer than this many steps means a
/// thread loops without ever blocking or finishing.
const MAX_STEPS_PER_RUN: usize = 10_000;
/// A model producing more schedules than this is too big to be a CI
/// model — shrink it rather than raising the cap.
const MAX_SCHEDULES: u64 = 1_000_000;

/// One decision point in the DFS over schedules.
struct Choice {
    options: Vec<usize>,
    next: usize,
}

/// The schedule explorer. Construct with [`Explorer::new`] (reads
/// `LOOM_MAX_PREEMPTIONS`) or [`Explorer::with_preemptions`].
pub struct Explorer {
    max_preemptions: usize,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// Explorer with the preemption bound from `LOOM_MAX_PREEMPTIONS`
    /// (default 3).
    pub fn new() -> Explorer {
        let max_preemptions = std::env::var("LOOM_MAX_PREEMPTIONS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_MAX_PREEMPTIONS);
        Explorer { max_preemptions }
    }

    /// Explorer with an explicit preemption bound (tests and local
    /// deep hunts).
    pub fn with_preemptions(max_preemptions: usize) -> Explorer {
        Explorer { max_preemptions }
    }

    /// Explore every schedule of the model `factory` builds, panicking
    /// on a deadlock or an invariant violation (with the offending
    /// schedule — a list of thread indices — in the report).
    pub fn explore<S>(&self, name: &str, factory: impl Fn() -> Model<S>) -> Stats {
        let mut stack: Vec<Choice> = Vec::new();
        let mut stats = Stats {
            schedules: 0,
            max_depth: 0,
        };

        loop {
            let mut model = factory();
            let n = model.threads.len();
            assert!(n > 0, "model `{name}` has no threads");
            let mut done = vec![false; n];
            let mut blocked = vec![false; n];
            let mut last: Option<usize> = None;
            let mut preemptions = 0usize;
            let mut depth = 0usize;
            let mut trace: Vec<usize> = Vec::new();

            loop {
                let runnable: Vec<usize> =
                    (0..n).filter(|&i| !done[i] && !blocked[i]).collect();
                if runnable.is_empty() {
                    if done.iter().all(|&d| d) {
                        break; // schedule complete
                    }
                    panic!(
                        "model `{name}`: deadlock — every live thread is blocked \
                         (schedule {trace:?})"
                    );
                }

                // Preemption bound: once the budget is spent, a thread
                // that can still run must keep running.
                let allowed: Vec<usize> = match last {
                    Some(l)
                        if !done[l] && !blocked[l] && preemptions >= self.max_preemptions =>
                    {
                        vec![l]
                    }
                    _ => runnable,
                };

                let choice = if depth < stack.len() {
                    // Replay the prefix chosen by earlier iterations.
                    let c = &stack[depth];
                    c.options[c.next]
                } else {
                    stack.push(Choice {
                        options: allowed.clone(),
                        next: 0,
                    });
                    allowed[0]
                };
                depth += 1;
                trace.push(choice);
                if trace.len() > MAX_STEPS_PER_RUN {
                    panic!(
                        "model `{name}`: runaway schedule (> {MAX_STEPS_PER_RUN} steps) — \
                         a thread loops without blocking or finishing"
                    );
                }
                if let Some(l) = last {
                    if choice != l && !done[l] && !blocked[l] {
                        preemptions += 1;
                    }
                }

                match (model.threads[choice])(&mut model.state) {
                    Step::Ran => {
                        for (i, b) in blocked.iter_mut().enumerate() {
                            if i != choice {
                                *b = false;
                            }
                        }
                    }
                    Step::Blocked => blocked[choice] = true,
                    Step::Done => done[choice] = true,
                }
                last = Some(choice);
            }

            let check = std::panic::AssertUnwindSafe(|| (model.check)(&model.state));
            if let Err(e) = std::panic::catch_unwind(check) {
                eprintln!("model `{name}`: invariant violated by schedule {trace:?}");
                std::panic::resume_unwind(e);
            }
            stats.schedules += 1;
            stats.max_depth = stats.max_depth.max(trace.len());
            if stats.schedules > MAX_SCHEDULES {
                panic!(
                    "model `{name}`: more than {MAX_SCHEDULES} schedules — \
                     the model is too big to explore exhaustively; shrink it"
                );
            }

            // Backtrack to the deepest decision with an untried option.
            while let Some(top) = stack.last_mut() {
                top.next += 1;
                if top.next < top.options.len() {
                    break;
                }
                stack.pop();
            }
            if stack.is_empty() {
                return stats;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads doing an unprotected read-modify-write: the classic
    /// lost update. The explorer must find the interleaving where both
    /// read 0 and the final value is 1.
    fn racy_counter() -> Model<u32> {
        let thread = || {
            let mut step = 0u8;
            let mut tmp = 0u32;
            Box::new(move |s: &mut u32| match step {
                0 => {
                    tmp = *s;
                    step = 1;
                    Step::Ran
                }
                1 => {
                    *s = tmp + 1;
                    step = 2;
                    Step::Ran
                }
                _ => Step::Done,
            }) as Box<dyn FnMut(&mut u32) -> Step>
        };
        Model {
            state: 0,
            threads: vec![thread(), thread()],
            check: Box::new(|s| assert_eq!(*s, 2, "lost update: counter ended at {s}")),
        }
    }

    #[test]
    fn explorer_finds_the_lost_update() {
        let r = std::panic::catch_unwind(|| {
            Explorer::with_preemptions(3).explore("racy-counter", racy_counter)
        });
        assert!(r.is_err(), "the racy counter must fail under exploration");
    }

    #[test]
    fn serialized_counter_passes_all_schedules() {
        // Same counter, but the RMW is guarded by a model lock: taking
        // it is one atomic step, blocked when held.
        fn locked() -> Model<(bool, u32)> {
            let thread = || {
                let mut step = 0u8;
                let mut tmp = 0u32;
                Box::new(move |s: &mut (bool, u32)| match step {
                    0 => {
                        if s.0 {
                            return Step::Blocked;
                        }
                        s.0 = true;
                        step = 1;
                        Step::Ran
                    }
                    1 => {
                        tmp = s.1;
                        step = 2;
                        Step::Ran
                    }
                    2 => {
                        s.1 = tmp + 1;
                        s.0 = false;
                        step = 3;
                        Step::Ran
                    }
                    _ => Step::Done,
                }) as Box<dyn FnMut(&mut (bool, u32)) -> Step>
            };
            Model {
                state: (false, 0),
                threads: vec![thread(), thread()],
                check: Box::new(|s| {
                    assert!(!s.0, "lock leaked");
                    assert_eq!(s.1, 2);
                }),
            }
        }
        let stats = Explorer::with_preemptions(3).explore("locked-counter", locked);
        assert!(stats.schedules > 1, "{stats:?}: exploration must branch");
    }

    #[test]
    fn deadlock_is_detected() {
        // Two threads each blocking forever on a flag nobody sets.
        fn stuck() -> Model<()> {
            let waiter =
                || Box::new(move |_: &mut ()| Step::Blocked) as Box<dyn FnMut(&mut ()) -> Step>;
            Model {
                state: (),
                threads: vec![waiter(), waiter()],
                check: Box::new(|_| {}),
            }
        }
        let r = std::panic::catch_unwind(|| {
            Explorer::with_preemptions(3).explore("stuck", stuck)
        });
        let msg = *r.expect_err("must deadlock").downcast::<String>().unwrap();
        assert!(msg.contains("deadlock"), "{msg}");
    }

    #[test]
    fn preemption_bound_prunes_schedules() {
        let full = Explorer::with_preemptions(64)
            .explore("counter-full", || {
                let mut m = racy_counter();
                m.check = Box::new(|_| {}); // count schedules, don't assert
                m
            })
            .schedules;
        let bounded = Explorer::with_preemptions(0)
            .explore("counter-bounded", || {
                let mut m = racy_counter();
                m.check = Box::new(|_| {});
                m
            })
            .schedules;
        assert!(
            bounded < full,
            "preemption bound must prune: {bounded} vs {full}"
        );
    }

    #[test]
    fn blocked_thread_wakes_when_another_runs() {
        // T0 blocks until the flag is set; T1 sets it. Must terminate
        // in every schedule (no spurious permanent block).
        fn handoff() -> Model<bool> {
            let waiter = Box::new(move |s: &mut bool| {
                if *s {
                    Step::Done
                } else {
                    Step::Blocked
                }
            }) as Box<dyn FnMut(&mut bool) -> Step>;
            let mut fired = false;
            let setter = Box::new(move |s: &mut bool| {
                if fired {
                    Step::Done
                } else {
                    *s = true;
                    fired = true;
                    Step::Ran
                }
            }) as Box<dyn FnMut(&mut bool) -> Step>;
            Model {
                state: false,
                threads: vec![waiter, setter],
                check: Box::new(|s| assert!(*s)),
            }
        }
        Explorer::with_preemptions(3).explore("handoff", handoff);
    }
}
