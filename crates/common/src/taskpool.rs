//! The worker pool — the stand-in for an Argobots pool.
//!
//! Paper §III-B: Margo hands both kinds of daemon work to Argobots —
//! each RPC to a handler ULT, each chunk of a request to an I/O
//! tasklet — so requests are served concurrently and per-chunk I/O
//! overlaps. We model an Argobots pool with a small set of OS threads
//! behind a bounded FIFO queue, and the workspace has exactly this one
//! implementation of it. A daemon has one instance, its handler pool,
//! and two kinds of submitter, which differ only in what they do when
//! the queue is full:
//!
//! * the transports (`gkfs-rpc`: the TCP loop, an in-process client)
//!   call [`PoolHandle::submit`], which *blocks* until a worker makes
//!   room. Stalling them is the point — the socket stops being read,
//!   TCP flow control pushes back to the peer, and a daemon's memory
//!   under overload is bounded by the queue depth.
//! * a chunk batch (`gkfs-storage`) offers its segments with
//!   [`PoolHandle::join`], which *bounces* a job the queue has no room
//!   for back to the caller — already a handler with the data in hand —
//!   to run itself, and which takes back, and runs, every segment no
//!   worker has started before it waits for the rest
//!   (help-while-waiting): a handler never waits behind a queue it
//!   stands in front of, so batches complete even when every worker is
//!   a handler waiting on one.
//!
//! Either way a job is never dropped: with no live worker (a pool of
//! zero threads, every spawn failed, shut down) both calls fall back to
//! caller-runs. Jobs are panic-isolated — a job that unwinds is counted
//! and the worker survives — and the protocol is model-checked below.
//!
//! A job must not own the joining half of the pool it runs on: the last
//! owner of a [`TaskPool`] joins its workers. What a job may hold is a
//! [`PoolHandle`] (the pool's queue, without its workers) — how a
//! daemon's chunk store, which its handlers own, reaches the pool.

use crate::lock::{self, Condvar, LockRank, OrderedMutex};
use std::collections::VecDeque;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// A unit of work. Results travel out through whatever channel the
/// closure captures; the pool itself never sees them.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    /// Jobs with the tag of the [`PoolHandle::join`] that offered them
    /// (0: a plain submission).
    jobs: VecDeque<(u64, Job)>,
    shutdown: bool,
    /// Submitters asleep on `room`. Counted under the queue lock, so a
    /// worker that pops with `blocked == 0` can skip the notify: a
    /// submitter either registered before the pop or sees its result.
    blocked: usize,
    /// Workers that popped a job and have not come back for the next.
    /// The others — live but not busy: starting, on their way back, or
    /// waiting on `cv`, where each push wakes one — pop without waiting
    /// for any job to end, so the first `live - busy` jobs on the queue
    /// are each about to be popped by one of them; a job further back
    /// waits for a running job to end.
    busy: usize,
}

struct Shared {
    work_queue: OrderedMutex<Queue>,
    /// Signalled when a job is queued (workers wait here).
    cv: Condvar,
    /// Signalled when a slot frees up, a worker dies or the pool shuts
    /// down (blocked submitters wait here).
    room: Condvar,
    depth: usize,
    /// Jobs accepted onto the queue and not taken back (ran on a pool
    /// worker).
    spawned: AtomicU64,
    /// Jobs handed back to the submitter (queue full on `try_submit`,
    /// no live worker, or shutting down) or taken back by their `join`,
    /// and run on its thread.
    inline: AtomicU64,
    /// The next `join`'s tag.
    tags: AtomicU64,
    /// Jobs that panicked on a worker (caught; the worker survives).
    panicked: AtomicU64,
    /// Workers currently alive. Jobs are panic-isolated, so this only
    /// drops below the spawn count if a worker dies some other way —
    /// at zero submissions bounce instead of queueing jobs nothing
    /// would ever pop (submitters would hang waiting on results).
    live: AtomicUsize,
}

/// Fixed-size worker pool over a bounded FIFO queue: the owner, whose
/// drop shuts the pool down and joins its workers. Everything else it
/// does is its [`PoolHandle`]'s.
pub struct TaskPool {
    handle: PoolHandle,
    workers: Vec<JoinHandle<()>>,
}

/// A pool's queue without its workers: it submits, and dropping it
/// joins nothing. Once the pool is shut down every submission runs on
/// its caller.
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<Shared>,
    workers: usize,
}

impl Deref for TaskPool {
    type Target = PoolHandle;

    fn deref(&self) -> &PoolHandle {
        &self.handle
    }
}

impl TaskPool {
    /// Pool with `threads` workers and room for `depth` queued jobs
    /// (min 1). `threads == 0` is a valid degenerate pool: every
    /// submission runs on the submitter's thread (serial mode); a
    /// caller that wants at least one worker passes `threads.max(1)`.
    /// `queue_rank` is the queue lock's place in the hierarchy — one of
    /// the `*_QUEUE` constants in [`crate::lock::rank`].
    pub fn new(name: &str, threads: usize, depth: usize, queue_rank: LockRank) -> TaskPool {
        let shared = Arc::new(Shared {
            work_queue: OrderedMutex::new(
                queue_rank,
                Queue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                    blocked: 0,
                    busy: 0,
                },
            ),
            cv: Condvar::new(),
            room: Condvar::new(),
            depth: depth.max(1),
            spawned: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            tags: AtomicU64::new(1),
            panicked: AtomicU64::new(0),
            live: AtomicUsize::new(0),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = shared.clone();
            let builder =
                std::thread::Builder::new().name(format!("gkfs-{name}-{i}"));
            // A failed spawn just leaves the pool smaller; with zero
            // workers everything falls back to inline execution.
            if let Ok(handle) = builder.spawn(move || worker_loop(&shared)) {
                workers.push(handle);
            }
        }
        shared.live.store(workers.len(), Ordering::Release);
        TaskPool {
            handle: PoolHandle { shared, workers: workers.len() },
            workers,
        }
    }

    /// A handle on this pool that does not join it.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }
}

impl PoolHandle {
    /// Hand `job` to the pool, or hand it back if the pool cannot take
    /// it right now (queue full, no workers, shutting down). The caller
    /// must then run it inline — the job is never dropped.
    pub fn try_submit(&self, job: Job) -> std::result::Result<(), Job> {
        self.enqueue(0, job, false).map_or(Ok(()), Err)
    }

    /// Hand `job` to the pool, blocking while the queue is full
    /// (back-pressure on the submitter). With no live worker — zero
    /// threads, every spawn failed, shutting down — the job runs on the
    /// calling thread instead: degraded throughput, never a lost job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(job) = self.enqueue(0, Box::new(job), true) {
            job();
        }
    }

    /// Run `jobs` to completion, fork–join, and return each one's
    /// result in order — `None` for a job that panicked — with how many
    /// of them a pool worker ran. The first runs on the calling thread;
    /// the others are offered to the pool as [`PoolHandle::try_submit`]
    /// offers a job, and one the queue hands back runs here too. Then
    /// the caller takes back every one of its jobs still queued that no
    /// idle worker is about to pop, and runs it (help-while-waiting), so
    /// it waits only for jobs a worker has started or is on its way to
    /// start — never behind a queue it stands in front of, which is
    /// what lets a pool's own workers call this: with every worker such
    /// a caller, each still finishes its jobs. Returns once every job
    /// has run or unwound, so the jobs may borrow what the caller keeps
    /// alive for the call.
    pub fn join<R, F>(&self, jobs: Vec<F>) -> (Vec<Option<R>>, usize)
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        lock::assert_unguarded("PoolHandle::join");
        let (n, tag) = (jobs.len(), self.shared.tags.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        let mut here = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let job: Job = Box::new(move || drop(tx.send((i, job()))));
            here.extend(if i == 0 { Some(job) } else { self.enqueue(tag, job, false) });
        }
        drop(tx);
        let offered = n - run_here(here);
        let by_workers = offered - run_here(self.take_back(tag));
        // Every job has sent its result or dropped its sender once the
        // ones the workers started end.
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        rx.into_iter().for_each(|(i, result)| results[i] = Some(result));
        (results, by_workers)
    }

    /// Take the jobs tagged `tag` off the queue, in queue order, but for
    /// those among the first `live - busy`, which idle workers are about
    /// to pop.
    fn take_back(&self, tag: u64) -> Vec<Job> {
        let shared = &*self.shared;
        let mut q = shared.work_queue.lock();
        let idle = shared.live.load(Ordering::Acquire).saturating_sub(q.busy).min(q.jobs.len());
        let (mine, rest): (Vec<_>, Vec<_>) = q.jobs.drain(idle..).partition(|(t, _)| *t == tag);
        q.jobs.extend(rest);
        let n = mine.len() as u64;
        shared.spawned.fetch_sub(n, Ordering::Relaxed);
        shared.inline.fetch_add(n, Ordering::Relaxed);
        if n > 0 && q.blocked > 0 {
            shared.room.notify_all();
        }
        mine.into_iter().map(|(_, job)| job).collect()
    }

    /// The one queueing routine: `None` if the job went onto the queue,
    /// the job back if the caller has to run it.
    fn enqueue(&self, tag: u64, job: Job, wait_for_room: bool) -> Option<Job> {
        let shared = &*self.shared;
        let mut q = shared.work_queue.lock();
        loop {
            if q.shutdown || shared.live.load(Ordering::Acquire) == 0 {
                break;
            }
            if q.jobs.len() < shared.depth {
                q.jobs.push_back((tag, job));
                // Under the lock, so a `take_back` that finds the job
                // finds it counted.
                shared.spawned.fetch_add(1, Ordering::Relaxed);
                drop(q);
                shared.cv.notify_one();
                return None;
            }
            if !wait_for_room {
                break;
            }
            q.blocked += 1;
            q.wait(&shared.room);
            q.blocked -= 1;
        }
        drop(q);
        shared.inline.fetch_add(1, Ordering::Relaxed);
        Some(job)
    }

    /// Worker count (0 means pure inline mode).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// `(jobs run on a worker, jobs run by their submitter)`.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.shared.spawned.load(Ordering::Relaxed),
            self.shared.inline.load(Ordering::Relaxed),
        )
    }

    /// Jobs that panicked on a worker (caught and counted; the worker
    /// kept running).
    pub fn panics(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        let shared = &self.handle.shared;
        {
            let mut q = shared.work_queue.lock();
            q.shutdown = true;
        }
        shared.cv.notify_all();
        shared.room.notify_all();
        // Join outside any guard (workers drain remaining jobs first).
        for handle in self.workers.drain(..) {
            lock::assert_unguarded("join");
            let _ = handle.join();
        }
    }
}

/// Run `jobs` on the calling thread, each panic-isolated as a worker
/// runs it; how many there were.
fn run_here(jobs: Vec<Job>) -> usize {
    let n = jobs.len();
    jobs.into_iter().for_each(|job| drop(catch_unwind(AssertUnwindSafe(job))));
    n
}

fn worker_loop(shared: &Shared) {
    // Decrement `live` on any exit path — including an unwind out of
    // the loop itself — so submissions stop queueing jobs the moment
    // the pool can no longer run them. Under the queue lock, so the
    // decrement cannot fall between a blocking submitter's check and
    // its wait; then wake the submitters to re-check.
    struct LiveGuard<'a>(&'a Shared);
    impl Drop for LiveGuard<'_> {
        fn drop(&mut self) {
            let q = self.0.work_queue.lock();
            self.0.live.fetch_sub(1, Ordering::AcqRel);
            drop(q);
            self.0.room.notify_all();
        }
    }
    let _live = LiveGuard(shared);
    // Whether this worker is counted in `busy`, by the job it just ran.
    let mut back_from_a_job = false;
    loop {
        let job = {
            let mut q = shared.work_queue.lock();
            if back_from_a_job {
                q.busy -= 1;
            }
            loop {
                if let Some((_, job)) = q.jobs.pop_front() {
                    q.busy += 1;
                    if q.blocked > 0 {
                        shared.room.notify_one();
                    }
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q.wait(&shared.cv);
            }
        };
        match job {
            // Run outside the queue lock so other workers keep
            // popping. Panic-isolated: a job that unwinds (e.g. a
            // slice-bounds panic in a storage backend fed malformed
            // batch geometry) must not take the worker down with it —
            // its result-channel sender drops during the unwind, so
            // the submitter sees a lost-task error, not a hang.
            Some(job) => {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                    crate::gkfs_warn!("task pool job panicked; worker continues");
                }
                back_from_a_job = true;
            }
            None => return,
        }
    }
}

/// Schedule-exploration model of the pool protocol (`crate::model`).
///
/// Transcribes the interacting state machines above — submitter
/// (`enqueue`, bouncing or blocking), worker (`worker_loop`), and
/// shutdown (`Drop`) — at one-shared-access-per-step granularity and
/// checks, over every interleaving the preemption bound admits:
///
/// * no job is lost: each submission either runs on a worker or is
///   handed back for inline execution, exactly once;
/// * a panicking job is counted and the worker survives it;
/// * shutdown drains: queued jobs run before the workers exit
///   (the pop-before-shutdown-check ordering in `worker_loop`);
/// * a blocked submitter is never stranded: a worker's pop wakes it
///   (no lost wake-up — `blocked` is counted under the queue lock), and
///   a shutdown that finds it asleep ends in caller-runs;
/// * the queue lock is never leaked.
///
/// The `room` condvar is modelled explicitly (a sleeper runs again only
/// after a notify reaches it), so a wake-up the code fails to send shows
/// as a deadlock; the workers' `cv` keeps the explorer's "any progress
/// may unblock" approximation.
#[cfg(test)]
mod model {
    use crate::model::{Explorer, Model, Step};

    const DEPTH: usize = 1;
    /// The job id whose closure panics in the model.
    const PANIC_JOB: usize = 9;

    #[derive(Default)]
    struct S {
        locked: bool,
        queue: Vec<usize>,
        shutdown: bool,
        live: usize,
        /// `Queue::blocked`.
        blocked: usize,
        /// Submitters asleep on `room`, in arrival order.
        sleepers: Vec<usize>,
        /// Sleepers a notify has reached.
        woken: Vec<usize>,
        /// Submitters whose call has returned.
        returned: usize,
        ran: Vec<usize>,
        inline: Vec<usize>,
        panicked: usize,
    }

    type Thread = Box<dyn FnMut(&mut S) -> Step>;

    /// How a model submitter treats a full queue.
    #[derive(Clone, Copy, PartialEq)]
    enum Full {
        /// `try_submit`.
        Bounce,
        /// `submit`: count itself in `blocked` and sleep, atomically
        /// with releasing the lock (what `Condvar::wait` guarantees).
        Wait,
        /// The tempting-but-wrong `submit`: release the lock, *then*
        /// register — a pop in between sees `blocked == 0` and skips
        /// the notify.
        WaitUnregistered,
    }

    /// `enqueue`: lock, then the check / push / bounce / wait critical
    /// section, looping after a wake-up.
    fn submitter(id: usize, full: Full) -> Thread {
        let mut step = 0u8;
        Box::new(move |s| match step {
            0 => {
                if s.locked {
                    return Step::Blocked;
                }
                s.locked = true;
                step = 1;
                Step::Ran
            }
            1 => {
                s.locked = false;
                step = 9;
                if s.shutdown || s.live == 0 {
                    s.inline.push(id);
                } else if s.queue.len() < DEPTH {
                    s.queue.push(id);
                } else {
                    match full {
                        Full::Bounce => s.inline.push(id),
                        Full::Wait => {
                            s.blocked += 1;
                            s.sleepers.push(id);
                            step = 3;
                        }
                        Full::WaitUnregistered => step = 2,
                    }
                }
                if step == 9 {
                    s.returned += 1;
                }
                Step::Ran
            }
            2 => {
                s.blocked += 1;
                s.sleepers.push(id);
                step = 3;
                Step::Ran
            }
            3 => {
                // Asleep on `room` until a notify names this sleeper.
                let Some(pos) = s.woken.iter().position(|&w| w == id) else {
                    return Step::Blocked;
                };
                s.woken.remove(pos);
                step = 4;
                Step::Ran
            }
            4 => {
                // The wait re-acquires the lock before returning.
                if s.locked {
                    return Step::Blocked;
                }
                s.locked = true;
                s.blocked -= 1;
                step = 1;
                Step::Ran
            }
            _ => Step::Done,
        })
    }

    /// `notify_one` / `notify_all` on `room`.
    fn notify_room(s: &mut S, all: bool) {
        let n = if all { s.sleepers.len() } else { s.sleepers.len().min(1) };
        let woken: Vec<usize> = s.sleepers.drain(..n).collect();
        s.woken.extend(woken);
    }

    /// `worker_loop`: lock → pop-or-exit-or-wait → run outside the
    /// lock. `drain_first` = the real ordering (pop before the
    /// shutdown check); `false` models the tempting-but-wrong
    /// exit-on-shutdown-first variant, which loses queued jobs.
    fn worker(drain_first: bool) -> Thread {
        let mut step = 0u8;
        let mut job = 0usize;
        Box::new(move |s| match step {
            0 => {
                if s.locked {
                    return Step::Blocked;
                }
                s.locked = true;
                step = 1;
                Step::Ran
            }
            1 => {
                if !drain_first && s.shutdown {
                    s.locked = false;
                    step = 4;
                } else if !s.queue.is_empty() {
                    job = s.queue.remove(0);
                    if s.blocked > 0 {
                        notify_room(s, false);
                    }
                    s.locked = false;
                    step = 2;
                } else if s.shutdown {
                    s.locked = false;
                    step = 4;
                } else {
                    // Condvar wait, first half: releasing the lock is
                    // progress (it wakes lock waiters) and must be its
                    // own `Ran` step before the thread sleeps.
                    s.locked = false;
                    step = 3;
                }
                Step::Ran
            }
            2 => {
                // catch_unwind(job): a panic is counted, the worker
                // lives on either way.
                if job == PANIC_JOB {
                    s.panicked += 1;
                }
                s.ran.push(job);
                step = 0;
                Step::Ran
            }
            3 => {
                // Condvar wait, second half. Re-checking the predicate
                // here models the atomicity of release-and-sleep: a
                // notify that lands between the locked check and this
                // step is not lost. Either way, retake the lock next.
                step = 0;
                if s.shutdown || !s.queue.is_empty() {
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            4 => {
                // `LiveGuard`: the decrement under the queue lock, then
                // wake every blocked submitter to re-check.
                if s.locked {
                    return Step::Blocked;
                }
                s.live -= 1;
                notify_room(s, true);
                step = 9;
                Step::Ran
            }
            _ => Step::Done,
        })
    }

    /// `Drop`: set shutdown under the lock, wake everyone. With
    /// `after_submitters = Some(n)` it waits until `n` submit calls
    /// have returned first — what `Drop`'s `&mut self` enforces in the
    /// real code, and what turns a lost wake-up into a visible
    /// deadlock; `None` also explores a shutdown racing a blocked
    /// submitter, which the protocol must survive all the same.
    fn shutdowner(after_submitters: Option<usize>) -> Thread {
        let mut step = 0u8;
        Box::new(move |s| match step {
            0 => {
                if s.locked || after_submitters.is_some_and(|n| s.returned < n) {
                    return Step::Blocked;
                }
                s.locked = true;
                step = 1;
                Step::Ran
            }
            1 => {
                s.shutdown = true;
                s.locked = false;
                step = 2;
                Step::Ran
            }
            2 => {
                notify_room(s, true);
                step = 9;
                Step::Ran
            }
            _ => Step::Done,
        })
    }

    /// One worker, `submitters`, a shutdown; the panic job starts on
    /// the queue (a submission that won the race before this window
    /// opens), so the depth-1 queue is full when the submitters arrive.
    fn pool_model(
        drain_first: bool,
        submitters: &[(usize, Full)],
        shutdown_after_submitters: bool,
    ) -> Model<S> {
        let mut jobs: Vec<usize> = submitters.iter().map(|&(id, _)| id).collect();
        jobs.push(PANIC_JOB);
        jobs.sort_unstable();
        let mut threads: Vec<Thread> =
            submitters.iter().map(|&(id, full)| submitter(id, full)).collect();
        threads.push(worker(drain_first));
        threads.push(shutdowner(shutdown_after_submitters.then_some(submitters.len())));
        Model {
            state: S {
                live: 1,
                queue: vec![PANIC_JOB],
                ..S::default()
            },
            threads,
            check: Box::new(move |s| {
                assert!(!s.locked, "queue lock leaked");
                assert!(s.queue.is_empty(), "job stranded on the queue: {:?}", s.queue);
                let mut seen: Vec<usize> =
                    s.ran.iter().chain(s.inline.iter()).copied().collect();
                seen.sort_unstable();
                assert_eq!(
                    seen, jobs,
                    "each job must run or bounce exactly once (ran {:?}, inline {:?})",
                    s.ran, s.inline
                );
                let expected = usize::from(s.ran.contains(&PANIC_JOB));
                assert_eq!(s.panicked, expected, "panic accounting");
                assert_eq!(s.live, 0, "worker exited without decrementing live");
                assert_eq!(s.blocked, 0, "a submitter is still counted as blocked");
            }),
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn pool_protocol_holds_under_exploration() {
        let stats = Explorer::new()
            .explore("taskpool", || pool_model(true, &[(0, Full::Bounce)], false));
        assert!(stats.schedules > 10, "{stats:?}: exploration must branch");
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn model_catches_exit_before_drain() {
        // Swapping the shutdown check ahead of the pop loses queued
        // jobs on shutdown — the model must see it.
        let r = std::panic::catch_unwind(|| {
            Explorer::new()
                .explore("taskpool-buggy", || pool_model(false, &[(0, Full::Bounce)], false))
        });
        assert!(r.is_err(), "exit-before-drain must strand a queued job");
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn blocking_submit_is_woken_by_a_pop() {
        // The submitter finds the queue full and sleeps; the pool is
        // dropped only after its call returns, so it must be woken by
        // the worker's pop — a missed notify deadlocks the model.
        let stats = Explorer::new()
            .explore("taskpool-blocking", || pool_model(true, &[(0, Full::Wait)], true));
        assert!(stats.schedules > 10, "{stats:?}: exploration must branch");
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn shutdown_with_a_blocked_submitter_ends_in_caller_runs() {
        // The shutdown may land while the submitter sleeps on a full
        // queue: it wakes, sees `shutdown`, and runs the job itself.
        Explorer::new().explore("taskpool-blocking-shutdown", || {
            pool_model(true, &[(0, Full::Wait)], false)
        });
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn model_catches_a_lost_wakeup() {
        // Registering in `blocked` after releasing the lock lets a pop
        // slip in between and skip the notify: the submitter sleeps on
        // a queue with room, and the drop that would rescue it cannot
        // start before the submit returns.
        let r = std::panic::catch_unwind(|| {
            Explorer::new().explore("taskpool-lost-wakeup", || {
                pool_model(true, &[(0, Full::WaitUnregistered)], true)
            })
        });
        assert!(r.is_err(), "a wait that registers late must deadlock the model");
    }
}

/// Schedule-exploration model of [`PoolHandle::join`]'s
/// help-while-waiting (`crate::model`), beside `model`'s exploration of
/// the queue protocol: one worker, one waiter, two segments. The waiter
/// offers segment 1 (`enqueue`), runs segment 0, takes back what no
/// idle worker is about to pop (`take_back`), runs it, and waits for
/// every segment's result; the worker is `worker_loop` with its `busy`
/// count, and starts idle, busy with another job it finishes at any
/// point, or busy running the waiter's own job until it returns — the
/// pool whose only worker is a handler waiting on its batch. Then the
/// pool shuts down. Checked over
/// every interleaving: each segment runs exactly once, nothing is left
/// queued, the waiter returns only once both ran, and nothing
/// deadlocks.
#[cfg(test)]
mod join_model {
    use crate::model::{Explorer, Model, Step};

    #[derive(Default)]
    struct S {
        locked: bool,
        queue: Vec<usize>,
        /// `Queue::busy`; the pool has one live worker.
        busy: usize,
        shutdown: bool,
        /// Segment runs, in order, by whoever ran them.
        ran: Vec<usize>,
        /// Results sent (the waiter's channel).
        sent: usize,
        returned: bool,
    }

    type Thread = Box<dyn FnMut(&mut S) -> Step>;

    /// What the waiter does once its own segment is done.
    #[derive(Clone, Copy, PartialEq)]
    enum Help {
        /// `take_back`: remove, under the lock, its jobs past the first
        /// `live - busy`, then run them.
        TakeBack,
        /// The broken waiter that sleeps while its segment is queued.
        Sleep,
        /// The broken claim: see a job queued under the lock, run it
        /// after releasing the lock, and only then take it off the
        /// queue — a worker may pop it in between.
        LookThenTake,
    }

    fn lock(s: &mut S) -> bool {
        !std::mem::replace(&mut s.locked, true)
    }

    fn waiter(help: Help) -> Thread {
        let (mut step, mut mine) = (0u8, Vec::<usize>::new());
        Box::new(move |s| match step {
            0 | 3 if !lock(s) => Step::Blocked,
            0 => {
                step = 1;
                Step::Ran
            }
            1 => {
                s.queue.push(1);
                s.locked = false;
                step = 2;
                Step::Ran
            }
            2 => {
                s.ran.push(0);
                s.sent += 1;
                step = 3;
                Step::Ran
            }
            3 => {
                // Locked: look past the jobs idle workers will pop.
                let keep = (1 - s.busy).min(s.queue.len());
                match help {
                    Help::TakeBack => mine = s.queue.split_off(keep),
                    Help::Sleep => {}
                    Help::LookThenTake => mine = s.queue[keep..].to_vec(),
                }
                s.locked = false;
                step = 4;
                Step::Ran
            }
            4 => {
                if let Some(&job) = mine.first() {
                    s.ran.push(job);
                    s.sent += 1;
                    if help == Help::LookThenTake {
                        s.queue.retain(|&j| j != job);
                    }
                    mine.remove(0);
                    return Step::Ran;
                }
                step = 5;
                Step::Ran
            }
            5 if s.sent < 2 => Step::Blocked,
            5 => {
                s.returned = true;
                step = 9;
                Step::Ran
            }
            _ => Step::Done,
        })
    }

    /// What the one worker is doing when the waiter starts.
    #[derive(Clone, Copy, PartialEq)]
    enum Start {
        Idle,
        /// Running another job, which ends at any point.
        Busy,
        /// Running the waiter's job: it comes back once the waiter
        /// returns.
        IsWaiter,
    }

    /// `worker_loop`, from `start`.
    fn worker(start: Start) -> Thread {
        let (mut step, mut job, mut back) = (0u8, 0usize, start != Start::Idle);
        Box::new(move |s| match step {
            0 if start == Start::IsWaiter && !s.returned => Step::Blocked,
            0 | 4 if !lock(s) => Step::Blocked,
            0 | 4 => {
                if std::mem::take(&mut back) {
                    s.busy -= 1;
                }
                step = 1;
                Step::Ran
            }
            1 => {
                // Locked: pop, exit, or wait.
                s.locked = false;
                if !s.queue.is_empty() {
                    job = s.queue.remove(0);
                    s.busy += 1;
                    step = 2;
                } else if s.shutdown {
                    step = 9;
                } else {
                    step = 3;
                }
                Step::Ran
            }
            2 => {
                s.ran.push(job);
                s.sent += 1;
                back = true;
                step = 0;
                Step::Ran
            }
            // Asleep on `cv` until a push or the shutdown.
            3 if s.queue.is_empty() && !s.shutdown => Step::Blocked,
            3 => {
                step = 4;
                Step::Ran
            }
            _ => Step::Done,
        })
    }

    /// The pool's owner dropping it once the waiter's job returned.
    fn shutdowner() -> Thread {
        let mut step = 0u8;
        Box::new(move |s| match step {
            0 if !s.returned || !lock(s) => Step::Blocked,
            0 => {
                s.shutdown = true;
                s.locked = false;
                step = 9;
                Step::Ran
            }
            _ => Step::Done,
        })
    }

    fn join_model(help: Help, start: Start) -> Model<S> {
        Model {
            state: S { busy: usize::from(start != Start::Idle), ..S::default() },
            threads: vec![waiter(help), worker(start), shutdowner()],
            check: Box::new(|s| {
                assert!(!s.locked, "queue lock leaked");
                assert!(s.queue.is_empty(), "segment left on the queue: {:?}", s.queue);
                let mut ran = s.ran.clone();
                ran.sort_unstable();
                assert_eq!(ran, [0, 1], "each segment runs exactly once (ran {:?})", s.ran);
            }),
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn help_while_waiting_holds_under_exploration() {
        for start in [Start::Idle, Start::Busy, Start::IsWaiter] {
            let stats = Explorer::new().explore("join", || join_model(Help::TakeBack, start));
            assert!(stats.schedules > 10, "{stats:?}: exploration must branch");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn model_catches_a_waiter_that_sleeps_on_its_queued_segment() {
        // On a pool whose only worker is the waiter, nothing else will
        // ever pop the segment it left queued.
        let r = std::panic::catch_unwind(|| {
            Explorer::new().explore("join-sleep", || join_model(Help::Sleep, Start::IsWaiter))
        });
        let why = r.expect_err("a waiter asleep on its own queued segment must deadlock");
        assert!(format!("{:?}", why.downcast_ref::<String>()).contains("deadlock"), "{why:?}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "exhaustive schedule exploration is too slow interpreted")]
    fn model_catches_a_lost_claim() {
        // The worker comes back from another job between the look and
        // the take, and pops what the waiter is about to run.
        let r = std::panic::catch_unwind(|| {
            Explorer::new().explore("join-lost-claim", || join_model(Help::LookThenTake, Start::Busy))
        });
        let why = r.expect_err("a claim released before it is taken must run a segment twice");
        assert!(format!("{:?}", why.downcast_ref::<String>()).contains("exactly once"), "{why:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::rank;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn pool(threads: usize, depth: usize) -> TaskPool {
        TaskPool::new("t", threads, depth, rank::RPC_HANDLER_QUEUE)
    }

    /// Park the pool's one worker on a gate; returns the gate's sender.
    fn park_worker(pool: &TaskPool) -> mpsc::Sender<()> {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            parked_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        });
        parked_rx.recv().unwrap(); // worker is now busy
        gate_tx
    }

    #[test]
    fn runs_submitted_jobs() {
        let pool = pool(2, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move || tx.send(i).unwrap()))
                .ok()
                .expect("queue has room");
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.counters(), (8, 0));
    }

    #[test]
    fn zero_workers_means_inline() {
        // The one zero-thread rule, for both calls: the submitter runs
        // the job. Callers that need a worker pass `threads.max(1)`.
        let pool = pool(0, 16);
        assert_eq!(pool.workers(), 0);
        let job = pool.try_submit(Box::new(|| ())).expect_err("no workers: handed back");
        job();
        let me = std::thread::current().id();
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(std::thread::current().id()).unwrap());
        assert_eq!(rx.try_recv().unwrap(), me, "submit ran the job before returning");
        assert_eq!(pool.counters(), (0, 2));
    }

    #[test]
    fn full_queue_hands_job_back() {
        let pool = pool(1, 1);
        let gate = park_worker(&pool);
        pool.try_submit(Box::new(|| ())).ok().expect("depth-1 queue slot");
        let bounced = pool.try_submit(Box::new(|| ()));
        assert!(bounced.is_err(), "queue full: job must come back");
        let (_, inline) = pool.counters();
        assert_eq!(inline, 1);
        gate.send(()).unwrap();
    }

    #[test]
    fn bounded_queue_blocks_when_full() {
        // One worker parked on a gate; capacity 1. The third submit
        // (1 running + 1 queued) must block until the gate opens.
        let pool = pool(1, 1);
        let gate = park_worker(&pool);
        pool.submit(|| ()); // fills the single queue slot
        let (returned_tx, returned_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.submit(|| ());
                returned_tx.send(()).unwrap();
            });
            assert!(
                returned_rx.recv_timeout(std::time::Duration::from_millis(50)).is_err(),
                "submit must block on a full queue"
            );
            gate.send(()).unwrap(); // release the worker
            returned_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("submit unblocks after the worker pops");
        });
        assert_eq!(pool.counters(), (3, 0), "blocked, not bounced");
    }

    #[test]
    fn bounded_pool_executes_everything_under_pressure() {
        // Tiny queue, many producers: submits block rather than fail,
        // and every job still runs exactly once, on a worker.
        let pool = pool(2, 2);
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let c = counter.clone();
                        pool.submit(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        let counters = pool.counters();
        drop(pool); // drains
        assert_eq!(counter.load(Ordering::Relaxed), 400);
        assert_eq!(counters, (400, 0));
    }

    #[test]
    fn jobs_run_concurrently() {
        let pool = pool(4, 16);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let (done_tx, done_rx) = mpsc::channel();
        // Four jobs that can only complete if all four run at once.
        for _ in 0..4 {
            let b = barrier.clone();
            let tx = done_tx.clone();
            pool.submit(move || {
                b.wait();
                let _ = tx.send(());
            });
        }
        for _ in 0..4 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("jobs deadlocked: pool is not concurrent");
        }
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = pool(1, 16);
        pool.submit(|| panic!("job boom"));
        // The pool's only worker must survive to run this one.
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn shutdown_drains_queue() {
        let done = Arc::new(AtomicUsize::new(0));
        let counters = {
            let pool = pool(2, 256);
            for _ in 0..200 {
                let done = done.clone();
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.counters()
        }; // drop joins workers after they drain the queue
        assert_eq!(done.load(Ordering::Relaxed), 200);
        assert_eq!(counters, (200, 0));
    }
}
