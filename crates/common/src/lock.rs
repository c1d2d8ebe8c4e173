//! Ranked lock wrappers enforcing a global lock hierarchy.
//!
//! Every long-lived lock in the workspace is an [`OrderedMutex`] or
//! [`OrderedRwLock`] carrying a static [`LockRank`]. The project rule
//! is *strictly descending acquisition*: a thread may acquire a lock
//! only if its rank is strictly lower than the rank of every lock the
//! thread already holds. Any total order over the ranks makes
//! deadlock by lock-order inversion impossible, and strictness also
//! catches "two locks of the same class at once" bugs (two storage
//! shards, two memtables) that an `<=` check would let through.
//!
//! The wrappers are thin over `std::sync` and compile to plain
//! `std::sync` locks in release builds — no rank bookkeeping is
//! consulted on the lock/unlock paths. This module is the only product
//! code that names `std::sync::{Mutex, RwLock, Condvar}`; everything
//! else takes the wrappers and the [`Condvar`] re-exported here.
//!
//! **No poisoning.** `std` marks a lock poisoned when a thread panics
//! while holding it and fails every later acquisition. Every call site
//! here was written against locks that do not do that (a panicking
//! handler or pool job is caught and the daemon keeps serving), so the
//! wrappers recover the guard with `PoisonError::into_inner` on every
//! acquisition and wait: a panic under a guard leaves the lock usable
//! and the data as the panicking thread left it.
//!
//! In debug and test builds a **thread-local held-rank stack** checks
//! each acquisition: the new rank must be strictly below the most
//! recently acquired held rank (the stack is strictly decreasing by
//! construction, so its last element is its minimum), or the thread
//! panics with the full held stack and a captured backtrace. Every
//! edge a thread takes thus runs from a higher rank to a lower one, so
//! no two paths can take the same ranks in opposite orders: the
//! A→B / B→A inversion fails at its first acquisition, whichever
//! function or crate it spans.
//!
//! The same stack answers two more questions, at the sites that ask
//! them: [`assert_unguarded`] — a thread about to block (a reply wait,
//! a socket read, a sleep, a join, an fsync) holds nothing but the
//! preload layer's session ranks, however many calls below a guard it
//! is — with [`blocking_under`] declaring the few sites that block
//! under a lock by design; and [`assert_may_acquire`] — a function
//! that takes a lock on some calls only is ordered on every call.
//!
//! The declared hierarchy lives in [`rank`] and is documented in
//! DESIGN.md ("Concurrency invariants & lock hierarchy").
//!
//! Ranks are mutable in one controlled way: [`OrderedRwLock::demote`]
//! lowers a lock's rank when its role changes. The kvstore uses this
//! when an active memtable (rank [`rank::KV_MEMTABLE`]) is frozen onto
//! the immutable list (rank [`rank::KV_MEMTABLE_FROZEN`]): writers
//! holding the new active memtable may then consult frozen ones
//! without violating strict descent.

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::PoisonError;
pub use std::sync::{Condvar, WaitTimeoutResult};
use std::time::Duration;

/// A static rank in the global lock hierarchy. Higher ranks must be
/// acquired first; see [`rank`] for the declared constants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LockRank(pub u16);

impl LockRank {
    /// The human-readable name of this rank (for diagnostics), or
    /// `"?"` if the value is not one of the declared constants.
    pub fn name(self) -> &'static str {
        rank::name(self)
    }
}

impl std::fmt::Display for LockRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name(), self.0)
    }
}

/// The declared lock hierarchy, highest (acquired first) to lowest
/// (acquired last). Gaps between values leave room for future locks.
///
/// A thread holding a lock may only acquire locks of *strictly lower*
/// rank. DESIGN.md documents what each lock protects and why the
/// order is what it is.
pub mod rank {
    use super::LockRank;

    /// The hierarchy, declared once: each row becomes a `LockRank`
    /// const and an arm of [`name`].
    macro_rules! ranks {
        ($($(#[$doc:meta])* $name:ident = $rank:literal;)*) => {
            $($(#[$doc])* pub const $name: LockRank = LockRank($rank);)*

            /// Name lookup for diagnostics.
            pub fn name(r: LockRank) -> &'static str {
                match r.0 {
                    $($rank => stringify!($name),)*
                    _ => "?",
                }
            }
        };
    }

    ranks! {
        /// Serializes whole preload tests (`crates/posix` test harness).
        POSIX_TEST = 250;
        /// The preload layer's global client slot (`posix::CLIENT`); held
        /// in read mode across every forwarded client operation.
        POSIX_CLIENT = 240;
        /// The preload layer's directory-stream table.
        POSIX_DIR_STREAMS = 230;
        /// The client's fd → open-file table.
        CLIENT_FILEMAP = 220;
        /// A single open file's seek position.
        CLIENT_FILE_POS = 216;
        /// What the client believes about one open path (`LocalFile`:
        /// size, pending size update, write-back run). Below
        /// [`CLIENT_FILE_POS`] so a write may claim its offset and then
        /// consult the record, and below [`CLIENT_FILEMAP`] so an open
        /// may grow the record it found; whatever must be sent is taken
        /// out and the guard dropped before any RPC (GKL002).
        CLIENT_LOCAL_FILE = 214;
        /// A link's slot (`gkfs_rpc::Link`: its target and its rule):
        /// held only to clone both out, never across a submit or a rule,
        /// but ranked above every RPC lock so a submit made under it
        /// (careless callers) still descends.
        LINK_SLOT = 196;
        /// The daemon's TCP-server slot, held while `serve_tcp` binds
        /// (the server's own ranks come inside) so that a second call
        /// finds the first.
        DAEMON_TCP = 190;
        /// The replication manager's peer/heartbeat state. Above the RPC
        /// ranks (probes may submit while the manager is mid-cycle, never
        /// under the guard) and above the re-replication backlog, which a
        /// transition handler fills while inspecting state.
        REPL_STATE = 188;
        /// The re-replication driver's task backlog.
        REPL_BACKLOG = 186;
        /// Who serves a TCP server's progress loop (`tcp::server::Lead`:
        /// whether the leader is parked, the standby's place, the thread
        /// count). A takeover holds it while it closes the old leader's
        /// busy window and takes that window's connection out of the
        /// epoll set, so [`RPC_CONNS`] comes inside.
        RPC_LOOP = 184;
        /// A TCP server's listening socket, held for one nonblocking
        /// `accept` and by the shutdown that closes it.
        RPC_LISTENER = 182;
        /// A TCP server's open connections; a connection enters and
        /// leaves the epoll set under it.
        RPC_CONNS = 180;
        /// A TCP endpoint's connection slot (live connection + redial
        /// backoff state); held across a frame write, acquires
        /// [`RPC_PENDING`] inside to reserve the request's slot.
        RPC_CONN = 178;
        /// A TCP endpoint's (or server connection's) write half.
        RPC_WRITER = 176;
        /// A TCP server connection's read half: held to pump the socket
        /// (nonblocking) or take a frame, never across a handler; taken
        /// under [`RPC_CONNS`] to sever the connection.
        RPC_PUMP = 174;
        /// A TCP connection's completion table (reply slots, the read
        /// token, the drain flag). Never held across a socket read: a
        /// reader takes the token out, drops the guard, and comes back
        /// with what it read.
        RPC_PENDING = 172;
        /// A `TaskPool`'s work queue: a daemon's one pool, which both
        /// transports' requests and its chunk store's segments run on
        /// (and the pool a store opened on its own keeps). Below the
        /// connection ranks so a submit — which on the in-process
        /// transport enqueues here where TCP would write to its socket —
        /// descends from the same callers; a job runs after it left the
        /// queue, holding nothing, and a batch takes its segments back
        /// holding nothing.
        RPC_HANDLER_QUEUE = 170;
        /// A TCP server's free chunk buffers (`tcp::server::ChunkBufs`):
        /// one pop or push, taken under [`RPC_PUMP`] when a large frame
        /// starts, and under [`RPC_CONNS`] or [`RPC_HANDLER_QUEUE`]
        /// where a dropped connection or job gives its buffer back.
        /// A leaf.
        RPC_CHUNK_BUFS = 169;
        /// A chaos proxy's accept-thread handle (test harness).
        CHAOS_ACCEPT = 168;
        /// A chaos proxy's list of live connections (test harness).
        CHAOS_CONNS = 166;
        /// A link gate's held messages (`gkfs_rpc::Gate`): taken out
        /// under it, released after the guard drops.
        LINK_GATE = 164;
        /// A chaos rule's/proxy's seeded PRNG state (leaf).
        CHAOS_RNG = 162;
        /// One shard of the in-memory chunk store.
        STORAGE_SHARD = 150;
        /// One shard of the file chunk store's open-fd cache. Below
        /// `STORAGE_SHARD` so a backend that layered both could resolve
        /// fds while holding a chunk shard (leaf in practice).
        STORAGE_FD_SHARD = 146;
        /// The kvstore's background-thread handle.
        KV_THREADS = 130;
        /// Serializes the kvstore's background work: one flush or
        /// compaction at a time, from its first table to its manifest.
        KV_MANIFEST = 116;
        /// Background-work coordination state (`WorkState`).
        KV_WORK = 112;
        /// The current `Version` pointer.
        KV_VERSION = 108;
        /// The active memtable.
        KV_MEMTABLE = 104;
        /// A frozen (immutable-list) memtable; demoted from
        /// [`KV_MEMTABLE`] at rotation so writers holding the active
        /// memtable may read frozen ones.
        KV_MEMTABLE_FROZEN = 102;
        /// WAL group-commit queue state.
        KV_GROUP_COMMIT = 100;
        /// A blob store's blob map (in-memory store).
        KV_BLOB_MAP = 40;
        /// A blob store's WAL segment state (innermost: the group-commit
        /// leader appends/syncs while holding it).
        KV_WAL_LOG = 36;
    }
}

/// Ranks at or above this one are the preload layer's session ranks
/// (`POSIX_*`): `gkfs-posix` holds them across every forwarded call,
/// replies waited for and retries slept included, so a thread may block
/// under them.
#[cfg(debug_assertions)]
const SESSION: LockRank = rank::POSIX_DIR_STREAMS;

/// Debug builds: panic if this thread holds any ranked lock below the
/// session ranks ([`rank::POSIX_DIR_STREAMS`] and up). Called where a
/// thread blocks — a reply wait, a socket read, a sleep, a join, an
/// fsync — because blocking under a guard stalls every thread that
/// wants the lock. `what` names the blocking call; the panic also
/// names the caller's line and the held stack. Release builds compile
/// it to nothing.
#[track_caller]
#[inline]
pub fn assert_unguarded(what: &str) {
    blocking_under(what, &[]);
}

/// [`assert_unguarded`] for a site that blocks under `ranks` by
/// design: below the session ranks, every lock the thread holds must
/// be one of them. DESIGN.md ("Blocking under a guard") says why each
/// declared site is safe.
#[track_caller]
#[inline]
pub fn blocking_under(what: &str, ranks: &[LockRank]) {
    #[cfg(debug_assertions)]
    checker::on_block(what, ranks);
    #[cfg(not(debug_assertions))]
    let _ = (what, ranks);
}

/// Debug builds: panic exactly as an acquisition of `rank` here would,
/// without acquiring anything. For a function that takes a lock of
/// `rank` on some calls only, so that its place in the order is
/// checked on every call, not only on the calls a test happens to
/// make with that lock in play.
#[track_caller]
#[inline]
pub fn assert_may_acquire(rank: LockRank) {
    #[cfg(debug_assertions)]
    checker::check_descent(rank);
    #[cfg(not(debug_assertions))]
    let _ = rank;
}

/// Debug/test-only validation: the thread-local held-rank stack.
#[cfg(debug_assertions)]
mod checker {
    use super::{LockRank, SESSION};
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
    }

    /// Panic unless `rank` is strictly below every rank this thread
    /// holds.
    #[track_caller]
    pub fn check_descent(rank: LockRank) {
        // The stack is strictly decreasing, so its last element is its
        // minimum.
        let top = HELD.with(|h| h.borrow().last().copied());
        if let Some(top) = top.filter(|&top| rank.0 >= top) {
            panic!(
                "lock order violation: acquiring {} while holding {} \
                 (held stack, outermost first: {}) — ranks must be \
                 acquired strictly descending\nacquisition backtrace:\n{}",
                rank,
                LockRank(top),
                held_stack(),
                std::backtrace::Backtrace::force_capture(),
            );
        }
    }

    /// Validate and record an acquisition of `rank` on this thread.
    pub fn on_acquire(rank: LockRank) {
        check_descent(rank);
        HELD.with(|h| h.borrow_mut().push(rank.0));
    }

    /// Record a release of `rank` on this thread. Guards may be
    /// dropped out of order, so the most recent matching entry is
    /// removed rather than requiring LIFO discipline.
    pub fn on_release(rank: LockRank) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&r| r == rank.0) {
                h.remove(pos);
            }
        });
    }

    /// Panic if this thread holds a lock below the session ranks that
    /// is not one of `allowed`.
    #[track_caller]
    pub fn on_block(what: &str, allowed: &[LockRank]) {
        let stray = |&r: &u16| r < SESSION.0 && !allowed.contains(&LockRank(r));
        if HELD.with(|h| h.borrow().iter().any(stray)) {
            panic!(
                "blocking call `{what}` at {} while holding {} (held stack, \
                 outermost first) — only the session ranks{} may be held \
                 where a thread blocks\nbacktrace:\n{}",
                std::panic::Location::caller(),
                held_stack(),
                allowed.iter().map(|r| format!(" and {r}")).collect::<String>(),
                std::backtrace::Backtrace::force_capture(),
            );
        }
    }

    /// The current thread's held ranks, outermost first, for
    /// diagnostics.
    fn held_stack() -> String {
        HELD.with(|h| {
            let h = h.borrow();
            if h.is_empty() {
                return "<empty>".into();
            }
            h.iter()
                .map(|&r| LockRank(r).to_string())
                .collect::<Vec<_>>()
                .join(" > ")
        })
    }
}

/// A `std::sync::Mutex` that never poisons, carrying a static
/// [`LockRank`] validated against the global hierarchy in debug/test
/// builds.
pub struct OrderedMutex<T: ?Sized> {
    rank: AtomicU16,
    inner: std::sync::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create a ranked mutex. `const` so it can initialize statics.
    pub const fn new(rank: LockRank, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            rank: AtomicU16::new(rank.0),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// This lock's current rank.
    pub fn rank(&self) -> LockRank {
        LockRank(self.rank.load(Ordering::Relaxed))
    }

    /// Acquire the mutex. In debug builds, panics if any held lock's
    /// rank is not strictly above this one's. The rank check runs
    /// *before* blocking so an acquisition that would deadlock still
    /// reports the ordering bug.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let rank = {
            let r = self.rank();
            checker::on_acquire(r);
            r
        };
        OrderedMutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            #[cfg(debug_assertions)]
            rank,
        }
    }
}

impl<T: Default> Default for OrderedMutex<T> {
    fn default() -> OrderedMutex<T> {
        // A default-constructed lock has no declared place in the
        // hierarchy; rank 0 means "innermost" (nothing may be
        // acquired under it), the safe default.
        OrderedMutex::new(LockRank(0), T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank())
            .finish_non_exhaustive()
    }
}

/// Guard for [`OrderedMutex`]. Dereferences to the protected value.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    /// `None` only while a condvar wait owns the `std` guard.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl<T> OrderedMutexGuard<'_, T> {
    /// Block on `cv`, atomically releasing the mutex while waiting.
    /// The held-rank stack keeps the entry during the wait: the thread
    /// is blocked, so it cannot acquire anything in between, and it
    /// holds the lock again when this returns.
    pub fn wait(&mut self, cv: &Condvar) {
        let guard = self.inner.take().expect("guard is present outside a wait");
        self.inner = Some(cv.wait(guard).unwrap_or_else(PoisonError::into_inner));
    }

    /// Like [`wait`](Self::wait) with a timeout.
    pub fn wait_for(&mut self, cv: &Condvar, timeout: Duration) -> WaitTimeoutResult {
        let guard = self.inner.take().expect("guard is present outside a wait");
        let (guard, result) = cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.inner = Some(guard);
        result
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard is present outside a wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard is present outside a wait")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        checker::on_release(self.rank);
    }
}

/// A `std::sync::RwLock` that never poisons, carrying a static
/// [`LockRank`] validated against the global hierarchy in debug/test
/// builds.
pub struct OrderedRwLock<T: ?Sized> {
    rank: AtomicU16,
    inner: std::sync::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a ranked rwlock. `const` so it can initialize statics.
    pub const fn new(rank: LockRank, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            rank: AtomicU16::new(rank.0),
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// This lock's current rank.
    pub fn rank(&self) -> LockRank {
        LockRank(self.rank.load(Ordering::Relaxed))
    }

    /// Lower this lock's rank because its role changed (e.g. an
    /// active memtable being frozen onto the immutable list).
    /// Outstanding guards release under the rank they were acquired
    /// with; only later acquisitions see the new rank. Only lowering
    /// is supported: it is what a freeze needs, and no role change
    /// raises a lock.
    pub fn demote(&self, new_rank: LockRank) {
        debug_assert!(
            new_rank.0 <= self.rank.load(Ordering::Relaxed),
            "demote must lower the rank"
        );
        self.rank.store(new_rank.0, Ordering::Relaxed);
    }

    /// Acquire shared. Read and write acquisitions rank identically:
    /// two readers never deadlock on one lock, but a read guard held
    /// while acquiring a second lock orders against writers of that
    /// second lock all the same.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let rank = {
            let r = self.rank();
            checker::on_acquire(r);
            r
        };
        OrderedRwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            rank,
        }
    }

    /// Acquire exclusive.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let rank = {
            let r = self.rank();
            checker::on_acquire(r);
            r
        };
        OrderedRwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            rank,
        }
    }
}

impl<T: Default> Default for OrderedRwLock<T> {
    fn default() -> OrderedRwLock<T> {
        OrderedRwLock::new(LockRank(0), T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank())
            .finish_non_exhaustive()
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        checker::on_release(self.rank);
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        checker::on_release(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descending_acquisition_is_allowed() {
        let a = OrderedMutex::new(LockRank(30), 1);
        let b = OrderedMutex::new(LockRank(20), 2);
        let c = OrderedMutex::new(LockRank(10), 3);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    #[should_panic(expected = "lock order violation")]
    #[cfg(debug_assertions)] // rank checks compile out of optimized builds
    fn ascending_acquisition_panics() {
        // A seeded A→B / B→A inversion: this thread takes B (low) then
        // A (high); the rank check fires on the second acquisition.
        let a = OrderedMutex::new(LockRank(30), ());
        let b = OrderedMutex::new(LockRank(20), ());
        let _gb = b.lock();
        let _ga = a.lock();
    }

    #[test]
    #[should_panic(expected = "lock order violation")]
    #[cfg(debug_assertions)]
    fn equal_rank_acquisition_panics() {
        let a = OrderedMutex::new(LockRank(25), ());
        let b = OrderedMutex::new(LockRank(25), ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn out_of_order_release_is_tracked() {
        let a = OrderedMutex::new(LockRank(30), ());
        let b = OrderedMutex::new(LockRank(20), ());
        let c = OrderedMutex::new(LockRank(10), ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the outer guard first
        let gc = c.lock(); // still strictly below b's rank
        drop(gb);
        drop(gc);
        // With everything released, a high rank is acquirable again.
        let _ga = a.lock();
    }

    #[test]
    fn rwlock_read_then_lower_write() {
        let ver = OrderedRwLock::new(LockRank(50), 0u32);
        let mem = OrderedRwLock::new(LockRank(40), 0u32);
        let _v = ver.read();
        let mut m = mem.write();
        *m += 1;
    }

    #[test]
    fn demote_allows_frozen_sibling_reads() {
        // Model the memtable freeze: active and frozen start life at
        // the same rank; freezing demotes, after which holding the
        // active one while reading the frozen one is legal.
        let frozen = OrderedRwLock::new(LockRank(104), 1u32);
        let active = OrderedRwLock::new(LockRank(104), 2u32);
        frozen.demote(LockRank(102));
        let a = active.write();
        let f = frozen.read();
        assert_eq!(*a + *f, 3);
    }

    /// The message a panic in `f` carried.
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("no panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn blocking_under_a_guard_names_the_site_and_the_held_stack() {
        let client = OrderedRwLock::new(rank::POSIX_CLIENT, ());
        let manifest = OrderedMutex::new(rank::KV_MANIFEST, ());
        let _c = client.read();
        let _m = manifest.lock();
        let (line, msg) = (line!(), panic_message(|| assert_unguarded("join")));
        assert!(msg.contains("blocking call `join`"), "{msg}");
        assert!(msg.contains(&format!("{}:{line}:", file!())), "{msg}");
        assert!(msg.contains("POSIX_CLIENT(240) > KV_MANIFEST(116)"), "{msg}");
    }

    #[test]
    fn blocking_under_the_session_ranks_alone_passes() {
        let client = OrderedRwLock::new(rank::POSIX_CLIENT, ());
        let streams = OrderedMutex::new(rank::POSIX_DIR_STREAMS, ());
        let _c = client.read();
        let _s = streams.lock();
        assert_unguarded("sleep");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_declared_blocking_site_passes_under_its_rank_only() {
        let log = OrderedMutex::new(rank::KV_WAL_LOG, ());
        let blobs = OrderedMutex::new(rank::KV_BLOB_MAP, ());
        {
            let _l = log.lock();
            blocking_under("sync_data", &[rank::KV_WAL_LOG]);
        }
        let _b = blobs.lock();
        let msg = panic_message(|| blocking_under("sync_data", &[rank::KV_WAL_LOG]));
        assert!(msg.contains("KV_BLOB_MAP(40)"), "{msg}");
    }

    #[test]
    fn condvar_wait_for_roundtrip() {
        let m = OrderedMutex::new(LockRank(10), false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = g.wait_for(&cv, Duration::from_millis(5));
        assert!(r.timed_out());
        *g = true;
        assert!(*g);
    }

    #[test]
    fn a_panic_under_a_guard_does_not_poison() {
        // `std` poisons a lock whose holder panicked; the wrappers must
        // hand out the guard regardless, with the data as it was left.
        let m = std::sync::Arc::new(OrderedMutex::new(LockRank(20), 0u32));
        let rw = std::sync::Arc::new(OrderedRwLock::new(LockRank(10), 0u32));
        let (m2, rw2) = (m.clone(), rw.clone());
        let died = std::thread::spawn(move || {
            let mut g = m2.lock();
            let mut w = rw2.write();
            *g = 1;
            *w = 1;
            panic!("while holding both guards");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*rw.read(), 1);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 2);
        let mut g = m.lock();
        assert_eq!(*g, 1);
        // The condvar paths re-acquire through the same recovery.
        let cv = Condvar::new();
        assert!(g.wait_for(&cv, Duration::from_millis(1)).timed_out());
        *g += 1;
        assert_eq!(*g, 2);
    }

    #[test]
    fn const_static_init() {
        static S: OrderedMutex<u32> = OrderedMutex::new(LockRank(10), 7);
        assert_eq!(*S.lock(), 7);
    }
}
