//! The database facade: WAL + memtable + leveled tables.
//!
//! Concurrency follows the LevelDB/RocksDB model the paper's create
//! rates depend on — foreground writers never wait for disk:
//!
//! * **Writes** append to the WAL (group-committed, see below) and
//!   insert into the *active* memtable under a short lock.
//! * **Memtable rotation**: when the active memtable exceeds its
//!   budget it is frozen into an *immutable memtable* and replaced by
//!   a fresh one — a pointer swap, not an I/O. The frozen table stays
//!   readable until its SSTable lands.
//! * **Background work**: one thread per store, `gkfs-kv`, as in
//!   LevelDB. Each turn it flushes the oldest immutable memtable into
//!   an L0 SSTable if one is queued; only when none is does it merge
//!   L0+L1 into a fresh L1 run (on request, or at the L0 trigger), and
//!   that merge flushes a memtable frozen meanwhile between its output
//!   tables, as LevelDB's does, so a flush waits for one output table
//!   rather than the whole compaction.
//!   Foreground writers are only *slowed* (then *stalled*) when L0
//!   grows past configurable thresholds — RocksDB's
//!   `level0_slowdown/stop_writes_trigger`.
//! * **Reads** clone an [`Arc`] snapshot of
//!   `{memtable, imm, l0, l1}` (a *version*) and search entirely
//!   outside the version lock, so scans and point reads never contend
//!   with flushes or compactions.
//! * **Group commit**: concurrent writers appending to the WAL in the
//!   same window elect a leader that writes (and, with `sync`, fsyncs)
//!   all queued frames with one call.
//!
//! Versions are immutable: installing a rotation, flush or compaction
//! result edits a *copy* of the version and swaps the pointer
//! (`DbInner::install`, the only place it moves), so an in-flight
//! read keeps a consistent view (the removed imm and its new table
//! never both appear, and never both disappear).
//!
//! **One walk reads a version.** The order of a version's sources —
//! active memtable, frozen memtables newest first, L0 newest first, L1
//! — and what `Put` / `Delete` / `Merge` mean along it are known to
//! two functions: `DbInner::lookup` (one key, newest to oldest,
//! stopping at the first `Put` or `Delete`) and `DbInner::merge_walk`
//! (a key range in key order, every source stepped side by side, each
//! key decided the way `lookup` decides it). `get`, the
//! conditional-write view, `scan_prefix`, `len`, compaction and a
//! flush's merge resolution are calls of those two. A walk holds a
//! step of each memtable, never the range it walks.
//!
//! **A tombstone only over an older source.** A delete records a
//! tombstone only where a source older than the active memtable may
//! hold its key; otherwise it forgets the key's memtable entry, which
//! reads the same (`Version::older_may_hold` says why). Create/remove
//! churn thus leaves the memtable as empty as it found it.
//!
//! Merge operands that cannot be folded in the memtable are resolved
//! at **flush time** by the same lookup, started below the memtable
//! being flushed, so SSTables only ever contain `Put`/`Delete`
//! entries. Flushes run one at a time, oldest first, so every source
//! older than that memtable is already in the table levels.
//!
//! **One wait.** A foreground thread sleeps on background progress in
//! `DbInner::wait_bg` only (frozen-memtable backlog, L0 at the stall
//! threshold, `flush()`); see there for why it needs no timeout.
//!
//! Durability across the background window relies on two pieces: the
//! WAL is *segmented* — rotation seals the active segment so each
//! sealed segment holds exactly one immutable memtable's records, and
//! a segment is dropped only after its memtable's SSTable is in the
//! manifest — and every record carries its commit *sequence number*,
//! with the manifest storing a `flushed_seq` watermark so replay never
//! re-applies (non-idempotent) records that already reached a table.
//!
//! Lock order (to stay deadlock-free), outermost to innermost:
//! `thread` → `manifest_lock` → `work` →
//! `version` → active memtable → frozen memtables → group-commit
//! state. Every lock is an [`OrderedMutex`]/[`OrderedRwLock`] carrying
//! its `gkfs_common::lock::rank::KV_*` rank: debug builds assert the
//! order at every acquisition. Freezing a memtable *demotes* its rank
//! (`KV_MEMTABLE` → `KV_MEMTABLE_FROZEN`) so readers — and a delete
//! asking whether it needs a tombstone — may consult frozen tables
//! while holding the active one. The background waits
//! check their predicate on `version` while holding `work` — the one
//! nesting of the two, in that order.

use crate::blobstore::{BlobStore, FsBlobStore, MemBlobStore};
use crate::memtable::{MemTable, Value};
use crate::merge::MergeOperator;
use crate::sstable::{Table, TableBuilder, TableIter, Tag};
use crate::wal::{replay, WalRecord};
use gkfs_common::lock::{self, rank, Condvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock};
use gkfs_common::metrics::DaemonCounters;
use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{GkfsError, Result};
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Bound;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Db`].
#[derive(Clone)]
pub struct DbOptions {
    /// Memtable budget in bytes before it is rotated out for flushing.
    pub memtable_bytes: usize,
    /// Number of L0 tables that triggers a background compaction.
    pub l0_compaction_trigger: usize,
    /// L0 table count at which writers are briefly slowed down to let
    /// compaction catch up.
    pub l0_slowdown_threshold: usize,
    /// L0 table count at which writers stall until compaction brings
    /// it back down.
    pub l0_stall_threshold: usize,
    /// Maximum immutable memtables awaiting flush before rotation
    /// applies backpressure.
    pub max_imm_memtables: usize,
    /// Write-ahead logging. GekkoFS deployments are ephemeral, so the
    /// daemon usually runs without it; tests for crash recovery turn
    /// it on.
    pub wal: bool,
    /// Wait for the WAL to be fsynced before acknowledging writes
    /// (shared across a group-commit batch). Per-batch override:
    /// [`WriteBatch::sync`].
    pub sync: bool,
    /// Optional merge operator (required before calling [`Db::merge`]).
    pub merge_operator: Option<Arc<dyn MergeOperator>>,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            memtable_bytes: 4 * 1024 * 1024,
            l0_compaction_trigger: 4,
            l0_slowdown_threshold: 8,
            l0_stall_threshold: 16,
            max_imm_memtables: 2,
            wal: false,
            sync: false,
            merge_operator: None,
        }
    }
}

/// A group of mutations applied atomically: concurrent readers see
/// either none or all of them, and crash recovery replays all-or-none
/// (the batch is one WAL record). The RocksDB `WriteBatch` analogue —
/// GekkoFS-style metadata transactions (e.g. create + parent touch)
/// build on this.
///
/// Keys, values and operands are taken as `impl Into<Cow<[u8]>>`: a
/// `Vec` moves into the batch — and from there into the memtable —
/// while borrowed bytes are copied once, here.
#[derive(Default, Debug, Clone)]
pub struct WriteBatch {
    records: Vec<WalRecord>,
    sync: Option<bool>,
}

impl WriteBatch {
    /// Start an empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// An empty batch with room for `n` mutations.
    pub fn with_capacity(n: usize) -> WriteBatch {
        WriteBatch { records: Vec::with_capacity(n), sync: None }
    }

    /// Queue an insert/overwrite.
    pub fn put<'k, 'v>(
        &mut self,
        key: impl Into<Cow<'k, [u8]>>,
        value: impl Into<Cow<'v, [u8]>>,
    ) -> &mut Self {
        self.records.push(WalRecord::Put {
            key: key.into().into_owned(),
            value: value.into().into_owned(),
        });
        self
    }

    /// Queue a deletion.
    pub fn delete<'k>(&mut self, key: impl Into<Cow<'k, [u8]>>) -> &mut Self {
        self.records.push(WalRecord::Delete { key: key.into().into_owned() });
        self
    }

    /// Queue a merge operand.
    pub fn merge<'k, 'o>(
        &mut self,
        key: impl Into<Cow<'k, [u8]>>,
        operand: impl Into<Cow<'o, [u8]>>,
    ) -> &mut Self {
        self.records.push(WalRecord::Merge {
            key: key.into().into_owned(),
            operand: operand.into().into_owned(),
        });
        self
    }

    /// Override [`DbOptions::sync`] for this batch: `true` waits for
    /// the (group-committed) fsync before the write is acknowledged.
    pub fn sync(&mut self, sync: bool) -> &mut Self {
        self.sync = Some(sync);
        self
    }

    /// Number of queued mutations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no mutations are queued.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// What a conditional write ([`Db::write_with`]) reads: the store as
/// it stands under the writer lock, so nothing it observes can change
/// before its batch applies.
pub struct WriteView<'a> {
    db: &'a DbInner,
    ver: &'a Version,
    mem: &'a MemTable,
}

impl WriteView<'_> {
    /// Point lookup (as [`Db::get`]).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.db.stats.kv_gets.fetch_add(1, Ordering::Relaxed);
        let top = self.mem.get(key).cloned();
        self.db.lookup(self.ver, &self.ver.imm, top, key)
    }
}

/// The active memtable, shared between the version that owns it and
/// (after rotation) the immutable-memtable record flushing it.
type SharedMem = Arc<OrderedRwLock<MemTable>>;

/// A frozen memtable awaiting background flush. Readable (the `mem`
/// lock is only ever taken for reading once frozen), plus the WAL
/// bookkeeping needed to retire its log segment after the flush.
struct ImmMem {
    mem: SharedMem,
    /// Sealed WAL segment holding exactly this memtable's records.
    wal_segment: u64,
    /// Highest sequence number this memtable contains; becomes the
    /// manifest's `flushed_seq` watermark once the SSTable lands.
    max_seq: u64,
}

/// An open SSTable. The `Table` keeps its blob bytes alive via `Arc`,
/// so a version snapshot holding this handle can keep reading after
/// compaction deletes the blob from the store.
struct TableHandle {
    id: u64,
    table: Table,
}

/// An immutable snapshot of the whole LSM shape. Readers clone the
/// `Arc` and search without any lock; [`DbInner::install`] edits a
/// copy and swaps the pointer.
#[derive(Clone)]
struct Version {
    mem: SharedMem,
    /// Frozen memtables, oldest first.
    imm: Vec<Arc<ImmMem>>,
    /// Flushed tables, newest last. May overlap each other.
    l0: Vec<Arc<TableHandle>>,
    /// One sorted, non-overlapping run (possibly several blobs split
    /// by size), ordered by key range.
    l1: Vec<Arc<TableHandle>>,
}

/// Group-commit queue state, guarded by [`GroupCommit::state`].
struct GcState {
    /// Encoded frames waiting for the next leader's single append.
    pending: Encoder,
    /// How many records those frames hold.
    pending_records: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Highest sequence whose frame is in the log.
    written_seq: u64,
    /// Highest sequence covered by a durable sync.
    synced_seq: u64,
    /// Highest sequence some committer wants synced.
    sync_wanted: u64,
    /// A leader is appending/syncing off-lock right now.
    leader_active: bool,
}

/// WAL group commit: writers enqueue encoded frames under the memtable
/// lock (so log order equals apply order), then one of the waiting
/// writers becomes the leader and performs a single `append_log` —
/// and at most one `sync_log` — for everything queued.
struct GroupCommit {
    state: OrderedMutex<GcState>,
    cv: Condvar,
}

impl GroupCommit {
    fn new(next_seq: u64) -> GroupCommit {
        let last_seq = next_seq - 1;
        GroupCommit {
            state: OrderedMutex::new(rank::KV_GROUP_COMMIT, GcState {
                pending: Encoder::new(),
                pending_records: 0,
                next_seq,
                written_seq: last_seq,
                synced_seq: last_seq,
                sync_wanted: last_seq,
                leader_active: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Assign the next sequence number to `rec` and queue its frame.
    /// Must be called with the active memtable's write lock held, so
    /// sequence order == memtable apply order == log order.
    fn enqueue(&self, rec: &WalRecord) -> u64 {
        let mut gc = self.state.lock();
        let seq = gc.next_seq;
        gc.next_seq += 1;
        rec.encode_into(seq, &mut gc.pending);
        gc.pending_records += 1;
        seq
    }

    /// One leader turn, for a caller that holds the state lock and
    /// found no leader active: take the whole queue, write it off-lock
    /// with one `append_log` — and one `sync_log` if some committer
    /// wants durability it has not got — and publish the outcome under
    /// the lock again, which the caller gets back. Frames whose append
    /// failed return to the front of the queue, so a later leader (or
    /// rotation) retries them in order; frames that reached the log
    /// before a failed sync do not.
    fn lead<'a>(
        &'a self,
        mut gc: OrderedMutexGuard<'a, GcState>,
        store: &dyn BlobStore,
        stats: &DaemonCounters,
    ) -> (OrderedMutexGuard<'a, GcState>, Result<()>) {
        let buf = std::mem::take(&mut gc.pending);
        let nrec = std::mem::replace(&mut gc.pending_records, 0);
        let target = gc.next_seq - 1;
        let do_sync = gc.sync_wanted > gc.synced_seq;
        gc.leader_active = true;
        drop(gc);

        let mut res = if buf.is_empty() { Ok(()) } else { store.append_log(buf.as_slice()) };
        let appended = res.is_ok();
        if appended && do_sync {
            res = store.sync_log();
        }

        let mut gc = self.state.lock();
        gc.leader_active = false;
        if !appended {
            let mut restored = buf;
            restored.raw(gc.pending.as_slice());
            gc.pending = restored;
            gc.pending_records += nrec;
        } else if nrec > 0 {
            gc.written_seq = gc.written_seq.max(target);
            stats.kv_group_commits.fetch_add(1, Ordering::Relaxed);
            stats.kv_group_commit_records.fetch_add(nrec, Ordering::Relaxed);
        }
        if do_sync && res.is_ok() {
            gc.synced_seq = gc.written_seq;
        }
        self.cv.notify_all();
        (gc, res)
    }

    /// Wait until `seq` is in the log (and synced, when `sync`). The
    /// first waiter to find no leader active becomes the leader and
    /// writes every queued frame on behalf of all.
    fn commit(&self, seq: u64, sync: bool, store: &dyn BlobStore, stats: &DaemonCounters) -> Result<()> {
        let mut gc = self.state.lock();
        if sync && gc.sync_wanted < seq {
            gc.sync_wanted = seq;
        }
        loop {
            let done = if sync {
                gc.synced_seq >= seq
            } else {
                gc.written_seq >= seq
            };
            if done {
                return Ok(());
            }
            if gc.leader_active {
                gc.wait(&self.cv);
                continue;
            }
            let (held, res) = self.lead(gc, store, stats);
            gc = held;
            res?;
        }
    }

    /// Flush every queued frame into the active segment (one last
    /// leader turn), then seal the segment. Called by memtable
    /// rotation with the version write lock held (no enqueue can race
    /// — writers enqueue under the version *read* lock). Returns the
    /// sealed segment id and the highest sequence number it can
    /// contain.
    fn seal_and_rotate(&self, store: &dyn BlobStore, stats: &DaemonCounters) -> Result<(u64, u64)> {
        let max_seq;
        {
            let mut gc = self.state.lock();
            while gc.leader_active {
                gc.wait(&self.cv);
            }
            max_seq = gc.next_seq - 1;
            self.lead(gc, store, stats).1?;
        }
        // Nothing is queued and nothing can be: a committer that takes
        // a leader turn now finds at most a sync to do.
        Ok((store.rotate_log()?, max_seq))
    }
}

/// Coordination state for the background thread.
#[derive(Default)]
struct WorkState {
    /// The background thread must exit.
    stop: bool,
    /// When stopping: finish all queued flushes first (clean
    /// shutdown). Without it, a stop is crash-like and the WAL covers
    /// the loss.
    drain: bool,
    /// Run a compaction even below the trigger, once no frozen
    /// memtable is queued.
    compact_requested: bool,
    /// First error background work hit; poisons foreground
    /// flush/stall paths so it surfaces instead of hanging them.
    bg_error: Option<GkfsError>,
}

struct DbInner {
    version: OrderedRwLock<Arc<Version>>,
    store: Arc<dyn BlobStore>,
    opts: DbOptions,
    next_id: AtomicU64,
    stats: DaemonCounters,
    gc: GroupCommit,
    /// Highest sequence number resolved into an SSTable (mirrors the
    /// manifest); replay skips records at or below it.
    flushed_seq: AtomicU64,
    /// Serializes background work — a flush or a compaction, from its
    /// first table to its manifest — so its holder is the one writer
    /// of the table levels: the background thread while it runs, and
    /// inline callers after a stop or in an explicit [`Db::compact`].
    manifest_lock: OrderedMutex<()>,
    work: OrderedMutex<WorkState>,
    /// Wakes the background thread (new imm, compaction request,
    /// stop). Notified only with `work` held.
    work_cv: Condvar,
    /// Wakes foreground threads in [`DbInner::wait_bg`]. Notified only
    /// with `work` held.
    done_cv: Condvar,
}

/// An embedded LSM key-value store, shared via `Arc`. Dropping the
/// last handle stops the background thread *without* draining
/// (crash-equivalent; the WAL covers acknowledged writes) — call
/// [`Db::shutdown`] for a clean drain.
pub struct Db {
    inner: Arc<DbInner>,
    thread: OrderedMutex<Option<std::thread::JoinHandle<()>>>,
}

const MANIFEST: &str = "MANIFEST";

fn require(op: &Option<Arc<dyn MergeOperator>>) -> Result<&dyn MergeOperator> {
    op.as_deref()
        .ok_or_else(|| GkfsError::InvalidArgument("no merge operator configured".into()))
}

/// Apply one logged mutation to a memtable: at run time under the
/// active memtable's write lock, at open while replaying the WAL. The
/// record is consumed — its key, value and operand buffers move into
/// the memtable — so a caller that logs it encodes its WAL frame from
/// `&rec` first. A delete records a tombstone only where a source of
/// `below` older than `mem` may hold its key
/// ([`Version::older_may_hold`]); otherwise it forgets the key's entry.
fn apply(
    mem: &mut MemTable,
    rec: WalRecord,
    below: &Version,
    merge_op: &Option<Arc<dyn MergeOperator>>,
    stats: &DaemonCounters,
) -> Result<()> {
    match rec {
        WalRecord::Put { key, value } => {
            stats.kv_puts.fetch_add(1, Ordering::Relaxed);
            mem.put(key, value);
        }
        WalRecord::Delete { key } if below.older_may_hold(&key) => mem.delete(key),
        WalRecord::Delete { key } => mem.forget(&key),
        WalRecord::Merge { key, operand } => {
            stats.kv_merges.fetch_add(1, Ordering::Relaxed);
            mem.merge(key, operand, require(merge_op)?);
        }
        WalRecord::Batch(inner) => {
            for r in inner {
                apply(mem, r, below, merge_op, stats)?;
            }
        }
    }
    Ok(())
}

impl Version {
    /// Whether a source older than the active memtable may hold `key`.
    /// The frozen memtables answer first, newest first: a `Put` or a
    /// `Merge` says yes, a `Delete` says no (it already shadows
    /// everything older). Then every table's bloom filter answers, and
    /// a bloom has no false negatives; no table block is read.
    ///
    /// The answer holds for as long as the memtable asking stays
    /// active. Flush and compaction keep what the sources below it read
    /// as, and only a rotation, which retires the asker, adds to them.
    /// Called under the active memtable's write guard, it reads the
    /// frozen memtables in `lookup`'s order.
    fn older_may_hold(&self, key: &[u8]) -> bool {
        lock::assert_may_acquire(rank::KV_MEMTABLE_FROZEN);
        for imm in self.imm.iter().rev() {
            if let Some(v) = imm.mem.read().get(key) {
                return !matches!(v, Value::Delete);
            }
        }
        self.l0.iter().chain(&self.l1).any(|th| th.table.may_contain(key))
    }
}

impl Db {
    /// Open a database over an arbitrary blob store, recovering any
    /// existing manifest and WAL, and start its background thread.
    pub fn open(store: Arc<dyn BlobStore>, opts: DbOptions) -> Result<Arc<Db>> {
        let mut levels: [Vec<Arc<TableHandle>>; 2] = Default::default();
        let mut max_id = 0u64;
        let mut flushed_seq = 0u64;

        // Recover table levels from the manifest, if present.
        if let Ok(blob) = store.get_blob(MANIFEST) {
            let mut d = Decoder::new(&blob);
            flushed_seq = d.u64()?;
            for level in &mut levels {
                for _ in 0..d.u32()? {
                    let id = d.u64()?;
                    max_id = max_id.max(id);
                    let blob = store.get_blob(&table_name(id)).map_err(|e| match e {
                        GkfsError::NotFound => {
                            GkfsError::Corruption(format!("manifest names missing table {id}"))
                        }
                        e => e,
                    })?;
                    level.push(Arc::new(TableHandle { id, table: Table::open(blob)? }));
                }
            }
            d.finish()?;
        }

        // Replay the WAL into the memtable, skipping records already
        // resolved into a table (`seq <= flushed_seq`) — a crash
        // between manifest install and segment drop must not re-apply
        // non-idempotent merge operands. A replayed delete asks the
        // recovered levels, as a live one asks its version. Replayed
        // records are not traffic: they count in no statistic.
        let [l0, l1] = levels;
        let ver = Version {
            mem: Arc::new(OrderedRwLock::new(rank::KV_MEMTABLE, MemTable::new())),
            imm: Vec::new(),
            l0,
            l1,
        };
        let mut max_seq = flushed_seq;
        let replayed = DaemonCounters::default();
        if opts.wal {
            let log = store.read_logs().unwrap_or_default();
            let mut mem = ver.mem.write();
            for (seq, rec) in replay(&log)? {
                max_seq = max_seq.max(seq);
                if seq > flushed_seq {
                    apply(&mut mem, rec, &ver, &opts.merge_operator, &replayed)?;
                }
            }
        }
        // Ids and sequence numbers come from the store: one at the top
        // of its range is damage, not a reason to wrap.
        let (Some(next_id), Some(next_seq)) = (max_id.checked_add(1), max_seq.checked_add(1)) else {
            return Err(GkfsError::Corruption("table id or sequence number exhausted".into()));
        };

        let inner = Arc::new(DbInner {
            version: OrderedRwLock::new(rank::KV_VERSION, Arc::new(ver)),
            store,
            opts,
            next_id: AtomicU64::new(next_id),
            stats: DaemonCounters::default(),
            gc: GroupCommit::new(next_seq),
            flushed_seq: AtomicU64::new(flushed_seq),
            manifest_lock: OrderedMutex::new(rank::KV_MANIFEST, ()),
            work: OrderedMutex::new(rank::KV_WORK, WorkState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });

        // A background thread that unwinds leaves its error behind, as
        // one that returns `Err` does: `wait_bg` has no timeout, and a
        // writer waiting on a dead thread would wait forever. The error
        // names the job it died in.
        let bg = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("gkfs-kv".into())
            .spawn(move || {
                let mut job = "";
                if std::panic::catch_unwind(AssertUnwindSafe(|| background_loop(&bg, &mut job))).is_err() {
                    bg.set_bg_error(GkfsError::Io(format!("gkfs-kv-{job} panicked")));
                }
            })
            .expect("spawn kvstore background thread");

        Ok(Arc::new(Db {
            inner,
            thread: OrderedMutex::new(rank::KV_THREADS, Some(thread)),
        }))
    }

    /// Open a fully in-memory database (tests, in-process daemons).
    pub fn open_memory(opts: DbOptions) -> Result<Arc<Db>> {
        Db::open(Arc::new(MemBlobStore::new()), opts)
    }

    /// Open a database persisted under `dir`.
    pub fn open_dir(dir: impl Into<std::path::PathBuf>, opts: DbOptions) -> Result<Arc<Db>> {
        Db::open(Arc::new(FsBlobStore::open(dir)?), opts)
    }

    /// This store's block of daemon counters: the `kv_*` names, and
    /// the `meta_*` ones its metadata backend counts.
    pub fn stats(&self) -> &DaemonCounters {
        &self.inner.stats
    }

    /// Insert or overwrite `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.write_record(WalRecord::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })
    }

    /// Insert `key` only if absent. Returns `true` if inserted,
    /// `false` if the key already existed. Atomic with respect to all
    /// other writers: existence is resolved under the writer lock.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.write_with(|view| {
            let absent = view.get(key)?.is_none();
            let mut batch = WriteBatch::new();
            if absent {
                batch.put(key, value);
            }
            Ok((absent, batch))
        })
    }

    /// Delete `key` (idempotent).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.inner
            .write_record(WalRecord::Delete { key: key.to_vec() })
    }

    /// Apply a merge operand to `key` (requires a configured merge
    /// operator).
    pub fn merge(&self, key: &[u8], operand: &[u8]) -> Result<()> {
        require(&self.inner.opts.merge_operator)?;
        self.inner.write_record(WalRecord::Merge {
            key: key.to_vec(),
            operand: operand.to_vec(),
        })
    }

    /// Apply a [`WriteBatch`] atomically: one memtable lock
    /// acquisition, one WAL record, no interleaving with other writers
    /// or readers.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_with(|_| Ok(((), batch)))
    }

    /// A conditional write: `stage` runs under the writer lock, reads
    /// the store through the [`WriteView`] as no other writer can
    /// change it, and returns its answer plus the batch to apply —
    /// check and commit are one atomic step (GekkoFS' exclusive create
    /// and every other read-modify-write of a metadata entry). An
    /// empty batch writes nothing. `stage` runs inside the store's
    /// locks: it must not block, and must read through the view — a
    /// call back into this `Db` would deadlock.
    pub fn write_with<T>(
        &self,
        stage: impl FnOnce(&WriteView<'_>) -> Result<(T, WriteBatch)>,
    ) -> Result<T> {
        self.inner.write_record_with(|view| {
            let (out, batch) = stage(view)?;
            if batch
                .records
                .iter()
                .any(|r| matches!(r, WalRecord::Merge { .. }))
            {
                require(&self.inner.opts.merge_operator)?;
            }
            let rec = (!batch.is_empty()).then_some(WalRecord::Batch(batch.records));
            Ok((out, rec, batch.sync))
        })
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.stats.kv_gets.fetch_add(1, Ordering::Relaxed);
        let ver = self.inner.snapshot();
        let top = ver.mem.read().get(key).cloned();
        self.inner.lookup(&ver, &ver.imm, top, key)
    }

    /// All live `(key, value)` pairs whose key starts with `prefix`,
    /// in key order: [`Db::scan_prefix_with`] collected.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut all = Vec::new();
        self.scan_prefix_with(prefix, b"", |k, v| {
            all.push((k.to_vec(), v.to_vec()));
            Ok(true)
        })?;
        Ok(all)
    }

    /// Hand `visit` every live `(key, value)` whose key starts with
    /// `prefix` and is not below `from`, in key order, until it answers
    /// `false`. This powers the daemon's `readdir` pages over the flat
    /// namespace: the walk holds a step of each memtable, not the range,
    /// and no lock while `visit` runs — so writers never wait on it, and
    /// an active-memtable key is seen as it was when its step was read.
    pub fn scan_prefix_with(
        &self,
        prefix: &[u8],
        from: &[u8],
        mut visit: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let ver = self.inner.snapshot();
        self.inner.merge_walk(&ver, true, from, prefix, |k, v| match v {
            Some(v) => visit(k, v),
            None => Ok(true),
        })
    }

    /// Total number of live keys: a counting walk, whose memory is a
    /// step of each memtable (a daemon answers its statistics RPC with
    /// this, on whichever handler thread is free). A pending merge makes
    /// its key live when its fold does. Not a snapshot under concurrent
    /// writes: the active memtable is read a step at a time.
    pub fn len(&self) -> Result<usize> {
        let mut live = 0;
        self.scan_prefix_with(b"", b"", |_, _| {
            live += 1;
            Ok(true)
        })?;
        Ok(live)
    }

    /// True when the store holds no live keys.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Rotate the active memtable and wait until every frozen memtable
    /// has been flushed to L0 (normally all automatic/background).
    pub fn flush(&self) -> Result<()> {
        self.inner.rotate(true)?;
        self.inner.wait_bg(false, |ver| ver.imm.is_empty())
    }

    /// Flush, then run a full compaction synchronously.
    pub fn compact(&self) -> Result<()> {
        self.flush()?;
        let _bg = self.inner.manifest_lock.lock();
        self.inner.compact_once().map(drop)
    }

    /// Drain all background work and stop the background thread: after
    /// this returns every accepted write is in an SSTable (or sealed
    /// WAL segment) and the manifest is current. Surfaces any error
    /// background work hit. Later writes fall back to inline
    /// flush/compaction.
    pub fn shutdown(&self) -> Result<()> {
        self.inner.work.lock().drain = true;
        // Seal the active memtable so the thread drains it too.
        self.inner.rotate(true)?;
        self.stop_thread();
        // If the thread bailed early (error), finish its flushes inline.
        self.inner.drain_imms_inline()?;
        let err = self.inner.work.lock().bg_error.take();
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Tell the background thread to exit (finishing queued flushes
    /// first if `drain` is set) and join it.
    fn stop_thread(&self) {
        {
            let mut w = self.inner.work.lock();
            w.stop = true;
            self.inner.work_cv.notify_all();
            self.inner.done_cv.notify_all();
        }
        // Take the handle out first: joining while holding the
        // `thread` guard would block every other shutdown/drop racer
        // on the lock for the thread's whole runtime (GKL002).
        let handle = self.thread.lock().take();
        if let Some(t) = handle {
            lock::assert_unguarded("join");
            let _ = t.join();
        }
    }

    /// Diagnostic snapshot of the level shape:
    /// `(memtable_keys, imm_memtables, l0_tables, l1_tables)`.
    pub fn level_shape(&self) -> (usize, usize, usize, usize) {
        let ver = self.inner.snapshot();
        let mem = ver.mem.read().len();
        (mem, ver.imm.len(), ver.l0.len(), ver.l1.len())
    }
}

impl Drop for Db {
    /// Crash-equivalent stop: no drain. Acknowledged writes survive
    /// via the WAL (when enabled) exactly as they would a real crash;
    /// `shutdown()` is the clean path.
    fn drop(&mut self) {
        self.stop_thread();
    }
}

impl DbInner {
    fn snapshot(&self) -> Arc<Version> {
        self.version.read().clone()
    }

    fn set_bg_error(&self, e: GkfsError) {
        let mut w = self.work.lock();
        w.bg_error.get_or_insert(e);
        self.done_cv.notify_all();
    }

    fn request_compaction(&self) {
        let mut w = self.work.lock();
        w.compact_requested = true;
        self.work_cv.notify_all();
    }

    fn notify_done(&self) {
        let _w = self.work.lock();
        self.done_cv.notify_all();
    }

    /// The write path, once: L0 backpressure, then — under the version
    /// read lock + memtable write lock — `stage` decides what to write
    /// from a [`WriteView`] of the store no other writer can change,
    /// and the record it returns gets its sequence number, its WAL slot
    /// and its memtable apply; then group commit and, if the memtable
    /// went over budget, a rotation. No lock is held across I/O except
    /// the shared group-commit append itself. `stage` answers
    /// `(result, record or nothing to write, fsync override)`.
    fn write_record_with<T>(
        &self,
        stage: impl FnOnce(&WriteView<'_>) -> Result<(T, Option<WalRecord>, Option<bool>)>,
    ) -> Result<T> {
        self.write_pressure()?;
        let (out, seq, sync, over) = {
            let ver = self.version.read();
            let mut mem = ver.mem.write();
            let (out, rec, sync) = stage(&WriteView { db: self, ver: &ver, mem: &mem })?;
            let Some(rec) = rec else { return Ok(out) };
            let seq = if self.opts.wal { self.gc.enqueue(&rec) } else { 0 };
            apply(&mut mem, rec, &ver, &self.opts.merge_operator, &self.stats)?;
            (out, seq, sync, mem.approx_bytes() >= self.opts.memtable_bytes)
        };
        if self.opts.wal {
            let sync = sync.unwrap_or(self.opts.sync);
            self.gc.commit(seq, sync, self.store.as_ref(), &self.stats)?;
        }
        if over {
            self.rotate(false)?;
        }
        Ok(out)
    }

    /// An unconditional write of `rec`.
    fn write_record(&self, rec: WalRecord) -> Result<()> {
        self.write_record_with(|_| Ok(((), Some(rec), None)))
    }

    /// The one point lookup: what `key` resolves to in `ver`, walking
    /// its sources newest to oldest — `top` (the entry of the memtable
    /// above everything else consulted, read by the caller under
    /// whichever guard it holds), the frozen memtables `imms` newest
    /// first, L0 newest first, then L1 — stacking merge operands until
    /// a `Put`, a `Delete` or the end of the walk gives them a base.
    /// A reader passes the active memtable's entry and all of
    /// `ver.imm`; a flush passes the entry being flushed and no
    /// `imms`, because the memtable it flushes is the oldest.
    fn lookup(
        &self,
        ver: &Version,
        imms: &[Arc<ImmMem>],
        top: Option<Value>,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        // Ordered as a walk that reads a frozen memtable, whatever
        // `imms` holds: a flush, which passes none, must not call
        // it under the guard of the memtable it flushes either.
        lock::assert_may_acquire(rank::KV_MEMTABLE_FROZEN);
        // Operand runs, newest source first; `base` is `Some` once a
        // source has said what lies under them.
        let mut runs: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut see = |v: Value| match v {
            Value::Put(v) => Some(Some(v)),
            Value::Delete => Some(None),
            Value::Merge(ops) => {
                runs.push(ops);
                None
            }
        };
        let mut base = top.and_then(&mut see);
        for imm in imms.iter().rev() {
            if base.is_some() {
                break;
            }
            if let Some(v) = imm.mem.read().get(key) {
                self.stats.kv_imm_hits.fetch_add(1, Ordering::Relaxed);
                base = see(v.clone());
            }
        }
        for th in ver.l0.iter().rev().chain(&ver.l1) {
            if base.is_some() {
                break;
            }
            if !th.table.may_contain(key) {
                self.stats.kv_bloom_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            base = th.table.get(key)?.map(|(tag, v)| (tag == Tag::Put).then(|| v.to_vec()));
        }
        let base = base.flatten();
        if runs.is_empty() {
            return Ok(base);
        }
        // The operator wants operands oldest first.
        let operands: Vec<Vec<u8>> = runs.into_iter().rev().flatten().collect();
        let op = require(&self.opts.merge_operator)?;
        Ok(op.full_merge(key, base.as_deref(), &operands))
    }

    /// The one range walk: every key under `prefix` in `ver` from
    /// `from` on, once, in key order — the active memtable and (with
    /// `mems`) the frozen ones, then L0 newest first and L1, stepped
    /// side by side. Each key is decided as [`DbInner::lookup`] decides
    /// it: the newest `Put` or `Delete` is the base, the operands of
    /// newer `Merge`s stack onto it oldest first. `visit` gets the
    /// value, `None` for a tombstone, and answers whether to go on.
    ///
    /// Memory is [`STEP`] entries per memtable, whatever the range:
    /// tables are read in place (the snapshot pins their blobs), and a
    /// memtable is copied out a step at a time under its own read guard,
    /// released before the next guard is taken and before `visit` runs.
    fn merge_walk(
        &self,
        ver: &Version,
        mems: bool,
        from: &[u8],
        prefix: &[u8],
        mut visit: impl FnMut(&[u8], Option<&[u8]>) -> Result<bool>,
    ) -> Result<()> {
        let start = from.max(prefix);
        let mut sources: Vec<Source<'_>> = Vec::new();
        if mems {
            let memtables = [&ver.mem].into_iter().chain(ver.imm.iter().rev().map(|i| &i.mem));
            sources.extend(memtables.map(|shared| Source::Mem {
                shared,
                step: Vec::new().into_iter(),
                resume: Some(Bound::Included(start.to_vec())),
            }));
        }
        let tables = ver.l0.iter().rev().chain(&ver.l1);
        sources.extend(tables.map(|th| Source::Table { iter: th.table.iter_from(start), head: None }));
        for source in &mut sources {
            source.advance(prefix)?;
        }
        // Which sources sit at the current key: they all move past it.
        let mut at = Vec::with_capacity(sources.len());
        loop {
            let Some(key) = sources.iter().filter_map(|s| Some(s.head()?.0)).min() else {
                return Ok(());
            };
            at.clear();
            let mut base = None;
            let mut runs: Vec<&[Vec<u8>]> = Vec::new();
            for (i, source) in sources.iter().enumerate() {
                let Some((_, seen)) = source.head().filter(|(k, _)| *k == key) else {
                    continue;
                };
                at.push(i);
                match seen {
                    _ if base.is_some() => {} // shadowed
                    Seen::Put(v) => base = Some(Some(v)),
                    Seen::Delete => base = Some(None),
                    Seen::Merge(ops) => runs.push(ops),
                }
            }
            let base = base.flatten();
            let merged;
            let value = if runs.is_empty() {
                base
            } else {
                // The operator wants operands oldest first.
                let operands: Vec<Vec<u8>> = runs.into_iter().rev().flatten().cloned().collect();
                merged = require(&self.opts.merge_operator)?.full_merge(key, base, &operands);
                merged.as_deref()
            };
            if !visit(key, value)? {
                return Ok(());
            }
            for &i in &at {
                sources[i].advance(prefix)?;
            }
        }
    }

    /// The one place a foreground thread sleeps on background progress:
    /// until `until` holds of the current version. A background error
    /// surfaces instead of a wait on a thread that cannot progress, and
    /// once the thread is stopped the caller does the work itself, one
    /// `background_work` step at a time. A `writer` held up here —
    /// waiting, or doing the work inline — is back-pressure and counts
    /// one stall and its duration; an explicit [`Db::flush`] asked to
    /// wait and counts nothing.
    ///
    /// No timeout: `until` is checked with `work` held, and everything
    /// that can change its answer — background work installing a
    /// version, a background error, a stop — notifies `done_cv` with
    /// `work` held *after* the change (`notify_done`, `set_bg_error`,
    /// `stop_thread`), so a wake-up cannot fall between the check and
    /// the sleep. The same argument covers the background thread's idle
    /// wait on `work_cv`; `db::model` explores both.
    fn wait_bg(&self, writer: bool, until: impl Fn(&Version) -> bool) -> Result<()> {
        let mut stalled = None;
        let mut w = self.work.lock();
        let res = loop {
            let queued = {
                let ver = self.version.read();
                if until(&ver) {
                    break Ok(());
                }
                !ver.imm.is_empty()
            };
            if let Some(e) = &w.bg_error {
                break Err(e.clone());
            }
            if writer && stalled.is_none() {
                stalled = Some(Instant::now());
                self.stats.kv_stalls.fetch_add(1, Ordering::Relaxed);
            }
            if w.stop {
                drop(w);
                match self.background_work(true) {
                    Ok(true) => {}
                    Ok(false) => break Ok(()),
                    Err(e) => break Err(e),
                }
                w = self.work.lock();
                continue;
            }
            // With no frozen memtable queued, what the caller awaits is
            // a compaction, and below the trigger only a request moves
            // the idle thread to one.
            w.compact_requested |= !queued;
            self.work_cv.notify_all();
            w.wait(&self.done_cv);
        };
        if let Some(since) = stalled {
            let micros = since.elapsed().as_micros() as u64;
            self.stats.kv_stall_micros.fetch_add(micros, Ordering::Relaxed);
        }
        res
    }

    /// L0 backpressure, applied before any write lock is taken: slow
    /// writers down as L0 grows, stop them at the stall threshold
    /// until a compaction catches up. Both count as stalls.
    fn write_pressure(&self) -> Result<()> {
        let l0 = self.snapshot().l0.len();
        if l0 >= self.opts.l0_stall_threshold {
            self.wait_bg(true, |ver| ver.l0.len() < self.opts.l0_stall_threshold)?;
        } else if l0 >= self.opts.l0_slowdown_threshold {
            // Each sleep is one stall of the time it asks for; no
            // clock is read.
            const SLOWDOWN: Duration = Duration::from_millis(1);
            self.request_compaction();
            self.stats.kv_stalls.fetch_add(1, Ordering::Relaxed);
            self.stats.kv_stall_micros.fetch_add(SLOWDOWN.as_micros() as u64, Ordering::Relaxed);
            lock::assert_unguarded("sleep");
            std::thread::sleep(SLOWDOWN);
        }
        Ok(())
    }

    /// The one place the version pointer moves: `edit` changes a copy
    /// of the current version under the version write lock — or
    /// declines with `Ok(false)` — the copy becomes current, and its
    /// table ids per level come back for the manifest.
    fn install(
        &self,
        edit: impl FnOnce(&mut Version) -> Result<bool>,
    ) -> Result<Option<[Vec<u64>; 2]>> {
        let mut ver = self.version.write();
        let mut next = Version::clone(&ver);
        if !edit(&mut next)? {
            return Ok(None);
        }
        let ids = [&next.l0, &next.l1].map(|level| level.iter().map(|t| t.id).collect());
        *ver = Arc::new(next);
        Ok(Some(ids))
    }

    /// Swap the active memtable for a fresh one, freezing the old one
    /// onto the immutable list for the background thread. Writers
    /// block only for this pointer swap — never for SSTable I/O —
    /// unless the frozen backlog is full.
    fn rotate(&self, force: bool) -> Result<()> {
        self.wait_bg(true, |ver| ver.imm.len() < self.opts.max_imm_memtables)?;
        self.install(|ver| {
            {
                let mem = ver.mem.read();
                if mem.is_empty() || (!force && mem.approx_bytes() < self.opts.memtable_bytes) {
                    return Ok(false); // raced with another rotator
                }
            }
            // Seal the WAL segment in lock-step: it now holds exactly
            // this memtable's records (plus older, already-flushed
            // segments' worth of nothing — those were dropped).
            let (wal_segment, max_seq) = if self.opts.wal {
                self.gc.seal_and_rotate(self.store.as_ref(), &self.stats)?
            } else {
                (0, 0)
            };
            // Freeze: demote the memtable's rank so a reader holding
            // the new active table (KV_MEMTABLE) may still consult it.
            ver.mem.demote(rank::KV_MEMTABLE_FROZEN);
            let fresh = Arc::new(OrderedRwLock::new(rank::KV_MEMTABLE, MemTable::new()));
            let mem = std::mem::replace(&mut ver.mem, fresh);
            ver.imm.push(Arc::new(ImmMem { mem, wal_segment, max_seq }));
            Ok(true)
        })?;
        let stopped = {
            let w = self.work.lock();
            self.work_cv.notify_all();
            w.stop
        };
        if stopped {
            // The background thread is gone: flush inline instead.
            self.drain_imms_inline()?;
        }
        Ok(())
    }

    /// Persist a finished table under a fresh id and open it.
    fn add_table(&self, builder: TableBuilder) -> Result<Arc<TableHandle>> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let blob = builder.finish();
        self.store.put_blob(&table_name(id), &blob)?;
        Ok(Arc::new(TableHandle { id, table: Table::open(Arc::new(blob))? }))
    }

    /// Build the oldest immutable memtable's SSTable and install it in
    /// L0. The caller holds `manifest_lock`, so flushes run one at a
    /// time and `imm` stays the oldest until its install. All I/O
    /// happens outside the version lock; the write lock is held only
    /// for the pointer swap that atomically retires the imm and
    /// publishes its table.
    fn flush_imm(&self, imm: &Arc<ImmMem>) -> Result<()> {
        let base = self.snapshot();
        // Operands still stacked in this memtable resolve against the
        // table levels, so tables never contain merge records. Flushes
        // run oldest first, so every source older than this memtable
        // is already in `base`'s L0/L1: no `imms` to ask. A
        // pass of its own, because the build below holds the frozen
        // memtable's guard and `lookup` is the function that takes
        // those: with no `imms` it takes none, but its lock order is
        // checked per call, not per argument (GKL006).
        let stacked: Vec<(Vec<u8>, Value)> = imm
            .mem
            .read()
            .iter()
            .filter(|(_, v)| matches!(v, Value::Merge(_)))
            .map(|(k, v)| (k.to_vec(), v.clone()))
            .collect();
        let resolve = |(k, v): (Vec<u8>, Value)| self.lookup(&base, &[], Some(v), &k);
        let mut merged = stacked.into_iter().map(resolve).collect::<Result<Vec<_>>>()?.into_iter();
        let mut builder;
        {
            let mem = imm.mem.read();
            builder = TableBuilder::new();
            for (k, v) in mem.iter() {
                match v {
                    Value::Put(val) => builder.add(Tag::Put, k, val),
                    Value::Delete => builder.add(Tag::Delete, k, b""),
                    // Frozen: the same entries as the pass above. A fold
                    // that came to nothing is absent, and writes nothing.
                    Value::Merge(_) => {
                        if let Some(val) = merged.next().expect("one value per stacked entry") {
                            builder.add(Tag::Put, k, &val);
                        }
                    }
                }
            }
        }
        let table = self.add_table(builder)?;
        let ids = self.install(|ver| {
            let oldest = ver.imm.remove(0);
            debug_assert!(Arc::ptr_eq(&oldest, imm), "flushes run oldest first");
            ver.l0.push(table);
            Ok(true)
        })?;
        self.stats.kv_flushes.fetch_add(1, Ordering::Relaxed);
        self.flushed_seq.fetch_max(imm.max_seq, Ordering::SeqCst);
        self.write_manifest(&ids.expect("this edit never declines"))?;
        if self.opts.wal {
            // The segment's records are all in the table now.
            self.store.drop_logs_through(imm.wal_segment)?;
        }
        Ok(())
    }

    /// One full L0+L1 → L1 compaction, which serves any request for
    /// one; answers whether there was anything to compact. The caller
    /// holds `manifest_lock`; the version write lock is held only for
    /// the final pointer swap, so foreground traffic continues
    /// throughout.
    fn compact_once(&self) -> Result<bool> {
        self.work.lock().compact_requested = false;
        let base = self.snapshot();
        if base.l0.is_empty() && base.l1.len() <= 1 {
            return Ok(false);
        }
        self.stats.kv_compactions.fetch_add(1, Ordering::Relaxed);

        // Emit live entries into size-bounded output tables. This is a
        // *full* compaction over a snapshot of both levels, so
        // tombstones drop out: anything newer lives in memtables or in
        // tables flushed after `base` was taken, and those are kept by
        // the install below.
        const TARGET_TABLE_BYTES: usize = 8 * 1024 * 1024;
        let mut new_l1: Vec<Arc<TableHandle>> = Vec::new();
        let mut builder = TableBuilder::new();
        let mut bytes = 0usize;
        self.merge_walk(&base, false, b"", b"", |k, v| {
            let Some(v) = v else { return Ok(true) };
            builder.add(Tag::Put, k, v);
            bytes += k.len() + v.len();
            if bytes >= TARGET_TABLE_BYTES {
                new_l1.push(self.add_table(std::mem::take(&mut builder))?);
                bytes = 0;
                // As LevelDB does between its compaction outputs: a
                // memtable frozen since the walk began waits for one
                // output table, not for the whole compaction. Its table
                // is newer than every input, and the install keeps it.
                self.flush_queued()?;
            }
            Ok(true)
        })?;
        if !builder.is_empty() {
            new_l1.push(self.add_table(builder)?);
        }

        let inputs: HashSet<u64> = base.l0.iter().chain(&base.l1).map(|t| t.id).collect();
        let ids = self.install(|ver| {
            ver.l0.retain(|t| !inputs.contains(&t.id));
            ver.l1 = new_l1;
            Ok(true)
        })?;
        self.write_manifest(&ids.expect("this edit never declines"))?;
        // Safe even with old-snapshot readers alive: `Table` keeps the
        // blob bytes in memory via `Arc`.
        for id in inputs {
            self.store.delete_blob(&table_name(id))?;
        }
        self.notify_done();
        Ok(true)
    }

    /// One unit of background work, the only one there is — run by the
    /// background thread, and after a stop by `wait_bg`, `rotate` and
    /// `shutdown`'s drain: flush the oldest frozen memtable if one is
    /// queued, else compact if `compact`. Under `manifest_lock`, so
    /// flushes land one at a time, oldest first, and a compaction runs
    /// them itself between its output tables. Answers whether there was
    /// work.
    fn background_work(&self, compact: bool) -> Result<bool> {
        let _bg = self.manifest_lock.lock();
        if self.flush_queued()? {
            return Ok(true);
        }
        if compact {
            return self.compact_once();
        }
        Ok(false)
    }

    /// Flush the oldest frozen memtable, if one is queued, and wake the
    /// foreground threads waiting on it; answers whether one was. The
    /// caller holds `manifest_lock`.
    fn flush_queued(&self) -> Result<bool> {
        // The version read guard must not outlive this statement: kept
        // across `flush_imm`, which re-acquires `version` (read, then
        // write for the install), it would be a same-thread read→write
        // self-deadlock. The debug-build rank checker flags this shape.
        let imm = self.version.read().imm.first().cloned();
        let Some(imm) = imm else { return Ok(false) };
        self.flush_imm(&imm)?;
        self.notify_done();
        Ok(true)
    }

    /// Flush every frozen memtable on the caller's thread.
    fn drain_imms_inline(&self) -> Result<()> {
        while self.background_work(false)? {}
        Ok(())
    }

    /// Write the manifest: `flushed_seq` watermark + table ids per
    /// level. Callers hold `manifest_lock`, so watermark and table
    /// list are mutually consistent.
    fn write_manifest(&self, levels: &[Vec<u64>; 2]) -> Result<()> {
        let mut e = Encoder::new();
        e.u64(self.flushed_seq.load(Ordering::SeqCst));
        for ids in levels {
            e.u32(ids.len() as u32);
            for id in ids {
                e.u64(*id);
            }
        }
        self.store.put_blob(MANIFEST, e.as_slice())
    }
}

/// The background thread: each turn, one unit of background work —
/// the oldest frozen memtable's flush while one is queued, else a
/// compaction once one is requested (a stalled writer, an L0 slowdown)
/// or L0 is at the trigger; idle otherwise. `job` names the unit in
/// flight, for the error a panic leaves.
fn background_loop(inner: &DbInner, job: &mut &'static str) {
    loop {
        let (compact, stop) = {
            let mut w = inner.work.lock();
            loop {
                // Looked at with `work` held: a rotation, a request and
                // a stop notify `work_cv` holding it, so none can slip
                // between this look and the sleep. L0 grows only by
                // this thread's own flushes.
                let (queued, l0) = {
                    let ver = inner.version.read();
                    (!ver.imm.is_empty(), ver.l0.len())
                };
                if queued && (!w.stop || w.drain) {
                    break (false, w.stop);
                }
                // Nothing to flush, or a crash-style stop: the WAL
                // covers what is still frozen. A stop compacts nothing.
                if w.stop {
                    return;
                }
                if w.compact_requested || l0 >= inner.opts.l0_compaction_trigger {
                    break (true, false);
                }
                w.wait(&inner.work_cv);
            }
        };
        *job = if compact { "compact" } else { "flush" };
        if let Err(e) = inner.background_work(compact) {
            inner.set_bg_error(e);
            if stop {
                return; // don't spin during shutdown
            }
            lock::assert_unguarded("sleep");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// How many entries a walk copies out of a memtable under one read
/// guard — with one step per memtable, the most a walk ever holds.
const STEP: usize = 256;

/// What one source holds for a key, as [`DbInner::lookup`] reads it.
enum Seen<'a> {
    Put(&'a [u8]),
    Delete,
    Merge(&'a [Vec<u8>]),
}

/// One source of a [`DbInner::merge_walk`], positioned at its next
/// entry under the walk's prefix (at none once it has run out).
enum Source<'v> {
    /// A memtable: `step` is what the last read guard copied out,
    /// `resume` where the next step starts (`None` once the range has
    /// run out).
    Mem {
        shared: &'v SharedMem,
        step: std::vec::IntoIter<(Vec<u8>, Value)>,
        resume: Option<Bound<Vec<u8>>>,
    },
    /// A table, read in place.
    Table {
        iter: TableIter<'v>,
        head: Option<(Tag, &'v [u8], &'v [u8])>,
    },
}

impl Source<'_> {
    /// The key this source is at, and what it holds there.
    fn head(&self) -> Option<(&[u8], Seen<'_>)> {
        match self {
            Source::Mem { step, .. } => step.as_slice().first().map(|(k, v)| {
                let seen = match v {
                    Value::Put(v) => Seen::Put(v),
                    Value::Delete => Seen::Delete,
                    Value::Merge(ops) => Seen::Merge(ops),
                };
                (k.as_slice(), seen)
            }),
            Source::Table { head, .. } => head.map(|(tag, k, v)| {
                (k, if tag == Tag::Put { Seen::Put(v) } else { Seen::Delete })
            }),
        }
    }

    /// Move to the next entry under `prefix` (to the first, on a fresh
    /// source). A memtable whose step is used up copies out the next one
    /// under its read guard — the only guard this thread then holds.
    fn advance(&mut self, prefix: &[u8]) -> Result<()> {
        match self {
            Source::Mem { shared, step, resume } => {
                step.next();
                if !step.as_slice().is_empty() {
                    return Ok(());
                }
                let Some(from) = resume.take() else { return Ok(()) };
                let copied: Vec<(Vec<u8>, Value)> = shared
                    .read()
                    .range_from(from.as_ref().map(Vec::as_slice))
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .take(STEP)
                    .map(|(k, v)| (k.to_vec(), v.clone()))
                    .collect();
                if copied.len() == STEP {
                    *resume = copied.last().map(|(k, _)| Bound::Excluded(k.clone()));
                }
                *step = copied.into_iter();
            }
            Source::Table { iter, head } => {
                *head = iter.next().transpose()?.filter(|(_, k, _)| k.starts_with(prefix));
            }
        }
        Ok(())
    }
}

fn table_name(id: u64) -> String {
    format!("sst-{id:012}.sst")
}

/// Schedule-exploration model (see `gkfs_common::model`) of the
/// hand-offs this module runs without a timeout, around its one
/// background thread and that thread's two jobs: a writer rotating
/// against a full frozen-memtable backlog ([`DbInner::wait_bg`] then
/// [`DbInner::install`]) ↔ the thread flushing and going idle ↔ a stop;
/// and a writer stalled at `l0_stall_threshold` (`wait_bg` again, whose
/// compaction only a request starts) ↔ the same thread flushing first,
/// then compacting ↔ the writer's own stop. Two models, because one
/// with both writers is past the explorer's cap. One step per
/// shared-memory access; both condvars' wake-ups are modelled
/// explicitly (a sleeper runs again only once a notify has named it),
/// so a notify that lands between a predicate check and the sleep it
/// guards shows up as a deadlock.
#[cfg(test)]
mod model {
    use gkfs_common::model::{Explorer, Model, Step};

    /// `max_imm_memtables`.
    const MAX_IMM: usize = 1;
    /// `l0_stall_threshold`, and L0 as the window opens.
    const L0_STALL: usize = 1;
    /// `l0_compaction_trigger`, above any L0 the model reaches (the
    /// stall plus a table per flush): only a request compacts.
    const L0_TRIGGER: usize = 8;
    const STALLED: usize = 98;
    const BG: usize = 99;

    #[derive(Default)]
    struct S {
        /// The `work` mutex.
        locked: bool,
        /// `version.imm.len()` and `version.l0.len()`; every look at
        /// them is its own step.
        imm: usize,
        l0: usize,
        compact_requested: bool,
        stop: bool,
        /// Threads asleep on `done_cv` / `work_cv`, and those a notify
        /// has reached.
        done_sleepers: Vec<usize>,
        work_sleepers: Vec<usize>,
        woken: Vec<usize>,
        /// Rotating writers, and how many returned.
        writers: usize,
        rotated: usize,
        flushed: usize,
    }

    type Thread = Box<dyn FnMut(&mut S) -> Step>;

    fn notify_all(s: &mut S, done_cv: bool) {
        let sleepers = if done_cv { &mut s.done_sleepers } else { &mut s.work_sleepers };
        let reached = std::mem::take(sleepers);
        s.woken.extend(reached);
    }

    /// Take `work` — as sleeper `id`, only once a notify has named it
    /// (`Condvar::wait`'s second half). A take and the look after it
    /// are one step: the take touches nothing a thread reads without
    /// `work`.
    fn take(s: &mut S, sleeper: Option<usize>) -> bool {
        if s.locked {
            return false;
        }
        if let Some(id) = sleeper {
            let Some(pos) = s.woken.iter().position(|&w| w == id) else { return false };
            s.woken.remove(pos);
        }
        s.locked = true;
        true
    }

    /// `background_work(compact)`'s look and its flush or compaction as
    /// one step (its callers run under `manifest_lock`, one at a time),
    /// with no notify: what an inline caller runs after a stop.
    fn work_inline(s: &mut S, compact: bool) -> bool {
        if s.imm > 0 {
            s.imm -= 1;
            s.l0 += 1;
            s.flushed += 1;
        } else if compact {
            s.compact_requested = false;
            s.l0 = 0;
        } else {
            return false;
        }
        true
    }

    /// `wait_bg(until)` on thread `id`, then the steps of `tail` in
    /// turn (one answering `false` is blocked).
    fn waiter(id: usize, until: fn(&S) -> bool, tail: &'static [fn(&mut S) -> bool]) -> Thread {
        let (mut step, mut at, mut queued) = (0u8, 0usize, false);
        Box::new(move |s| {
            match step {
                // Take `work` (first, after an inline step, after a
                // wake-up) and look at the predicate and the queue with
                // it held (one version read).
                0 | 3 => {
                    if !take(s, (step == 3).then_some(id)) {
                        return Step::Blocked;
                    }
                    queued = s.imm > 0;
                    if until(s) {
                        s.locked = false;
                        step = 4;
                    } else if s.stop {
                        s.locked = false;
                        step = 1;
                    } else {
                        step = 2;
                    }
                }
                // Stopped: one unit of the thread's work, inline.
                1 => step = if work_inline(s, true) { 0 } else { 4 },
                // Ask for a compaction when nothing is queued, nudge
                // the thread, then sleep on `done_cv` — the wait
                // releases `work` atomically with going to sleep.
                2 => {
                    s.compact_requested |= !queued;
                    notify_all(s, false);
                    s.done_sleepers.push(id);
                    s.locked = false;
                    step = 3;
                }
                _ => {
                    let Some(next) = tail.get(at) else { return Step::Done };
                    if !next(s) {
                        return Step::Blocked;
                    }
                    at += 1;
                }
            }
            Step::Ran
        })
    }

    /// `rotate` after its wait: `install` the frozen memtable (the
    /// version write lock makes that one step), then tell the thread
    /// holding `work` (lock, notify and unlock touch nothing else: one
    /// step).
    const ROTATE: &[fn(&mut S) -> bool] = &[
        |s| {
            s.imm += 1;
            true
        },
        |s| {
            if s.locked {
                return false;
            }
            notify_all(s, false);
            s.rotated += 1;
            true
        },
    ];

    /// `shutdown`'s stop, once the rotations have returned (what a
    /// caller's own sequencing gives, and what turns a lost wake-up into
    /// a visible deadlock): set `stop` and notify both condvars with
    /// `work` held.
    fn stop(s: &mut S) -> bool {
        if s.rotated < s.writers || s.locked {
            return false;
        }
        s.stop = true;
        notify_all(s, false);
        notify_all(s, true);
        true
    }

    fn stopper() -> Thread {
        let mut stopped = false;
        Box::new(move |s| match stopped {
            true => Step::Done,
            false if stop(s) => {
                stopped = true;
                Step::Ran
            }
            false => Step::Blocked,
        })
    }

    /// `background_loop` with `drain` set. `locked_notify = false` is
    /// the tempting-but-wrong `notify_done` that skips taking `work`;
    /// `sees_requests = false` an idle check that looks at the trigger
    /// alone.
    fn background(locked_notify: bool, sees_requests: bool) -> Thread {
        let mut step = 0u8;
        Box::new(move |s| {
            match step {
                // Take `work` and look with it held: flush (even when
                // stopped: a draining stop), exit, compact, or sleep.
                0 | 6 => {
                    if !take(s, (step == 6).then_some(BG)) {
                        return Step::Blocked;
                    }
                    let compact = (sees_requests && s.compact_requested) || s.l0 >= L0_TRIGGER;
                    if s.imm > 0 {
                        s.locked = false;
                        step = 1;
                    } else if s.stop {
                        s.locked = false;
                        step = 9;
                    } else if compact {
                        s.locked = false;
                        step = 2;
                    } else {
                        step = 5;
                    }
                }
                // background_work(false): a flush if one is queued.
                1 => step = if work_inline(s, false) { 4 } else { 0 },
                // background_work(true): the look under `manifest_lock`
                // flushes a memtable queued since, else compacts.
                2 => step = if work_inline(s, false) { 4 } else { 3 },
                // compact_once: the request is served (under `work`)
                // and the install empties L0.
                3 => {
                    if s.locked {
                        return Step::Blocked;
                    }
                    s.compact_requested = false;
                    s.l0 = 0;
                    step = 4;
                }
                // notify_done: with `work` held, or not caring.
                4 => {
                    if locked_notify && s.locked {
                        return Step::Blocked;
                    }
                    notify_all(s, true);
                    step = 0;
                }
                // Sleep on `work_cv`, releasing `work` atomically.
                5 => {
                    s.work_sleepers.push(BG);
                    s.locked = false;
                    step = 6;
                }
                _ => return Step::Done,
            }
            Step::Ran
        })
    }

    /// `writers` rotations, the thread and a stop, with the backlog
    /// already full (a rotation that won the race before this window
    /// opens) — so the first writer to look must stall.
    fn handoff(writers: usize, locked_notify: bool) -> Model<S> {
        let mut threads: Vec<Thread> = (0..writers).map(|id| waiter(id, |s| s.imm < MAX_IMM, ROTATE)).collect();
        threads.push(background(locked_notify, true));
        threads.push(stopper());
        Model {
            state: S { writers, imm: MAX_IMM, ..S::default() },
            threads,
            check: Box::new(move |s| {
                assert!(!s.locked, "`work` leaked");
                assert_eq!(s.rotated, writers, "a rotation did not return");
                assert_eq!((s.imm, s.flushed), (0, MAX_IMM + writers), "a draining stop flushes all");
                assert!(s.done_sleepers.is_empty() && s.work_sleepers.is_empty());
            }),
        }
    }

    /// A writer stalled at the L0 threshold with a frozen memtable
    /// still queued, then stopping the store, and the thread: the
    /// flush goes first, and only the writer's request (asked once
    /// nothing is queued) starts the compaction that lets it through.
    fn stall(sees_requests: bool) -> Model<S> {
        Model {
            state: S { imm: 1, l0: L0_STALL, ..S::default() },
            threads: vec![waiter(STALLED, |s| s.l0 < L0_STALL, &[stop]), background(true, sees_requests)],
            check: Box::new(|s| {
                assert!(!s.locked, "`work` leaked");
                assert_eq!((s.imm, s.flushed, s.l0), (0, 1, 0), "flushed, then compacted");
                assert!(s.done_sleepers.is_empty() && s.work_sleepers.is_empty());
            }),
        }
    }

    #[test]
    fn rotation_handoff_needs_no_timeout() {
        let stats = Explorer::new().explore("kv-handoff", || handoff(1, true));
        assert!(stats.schedules > 100, "{stats:?}: exploration must branch");
        eprintln!("kv-handoff: {stats:?}");
    }

    #[test]
    fn model_catches_a_notify_outside_work() {
        // The flusher retires the memtable and notifies between a
        // stalled writer's look at the backlog and its sleep: nobody is
        // asleep yet, the wake-up is lost, the writer sleeps for good.
        let r = std::panic::catch_unwind(|| {
            Explorer::new().explore("kv-handoff-unlocked-notify", || handoff(1, false))
        });
        assert!(r.is_err(), "a notify that skips `work` must deadlock the model");
    }

    #[test]
    fn a_stalled_write_is_compacted_by_the_flushing_thread() {
        let stats = Explorer::new().explore("kv-stall", || stall(true));
        assert!(stats.schedules > 10, "{stats:?}: exploration must branch");
        eprintln!("kv-stall: {stats:?}");
    }

    #[test]
    fn model_catches_an_idle_check_that_ignores_a_request() {
        // Below the trigger, the writer stalled on L0 has only its
        // request to move the thread: an idle check that does not look
        // at it leaves the thread asleep and the writer waiting.
        let r = std::panic::catch_unwind(|| {
            Explorer::new().explore("kv-stall-deaf-idle", || stall(false))
        });
        assert!(r.is_err(), "an idle check that ignores `compact_requested` must deadlock the model");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{Add64MergeOperator, Max64MergeOperator};
    use std::collections::BTreeMap;

    fn small_opts() -> DbOptions {
        DbOptions {
            memtable_bytes: 4096, // force frequent rotations in tests
            l0_compaction_trigger: 3,
            merge_operator: Some(Arc::new(Max64MergeOperator)),
            ..DbOptions::default()
        }
    }

    #[test]
    fn put_get_delete_through_levels() {
        let db = Db::open_memory(small_opts()).unwrap();
        for i in 0..500 {
            db.put(format!("/k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        let (_, imm, l0, l1) = db.level_shape();
        assert_eq!(imm, 0, "flush() must drain frozen memtables");
        assert!(l0 + l1 > 0, "expected flushes to have happened");
        for i in (0..500).step_by(17) {
            assert_eq!(
                db.get(format!("/k{i:04}").as_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes())
            );
        }
        db.delete(b"/k0000").unwrap();
        assert!(db.get(b"/k0000").unwrap().is_none());
        // Deleted key stays gone across flush + compaction.
        db.compact().unwrap();
        assert!(db.get(b"/k0000").unwrap().is_none());
        assert_eq!(db.len().unwrap(), 499);
    }

    /// A `Vec` handed to a batch is the allocation the memtable keeps:
    /// it moves through the batch, its WAL record and `apply`, and is
    /// logged on the way without being copied.
    #[test]
    fn a_batch_moves_its_buffers_into_the_memtable() {
        for wal in [false, true] {
            let db = Db::open_memory(DbOptions { wal, ..small_opts() }).unwrap();
            let (value, operand) = (vec![7u8; 29], 5u64.to_le_bytes().to_vec());
            let (value_at, operand_at) = (value.as_ptr(), operand.as_ptr());
            let mut b = WriteBatch::new();
            b.put(b"/moved".to_vec(), value).merge(b"/stacked".to_vec(), operand);
            db.write(b).unwrap();
            let mem = db.inner.snapshot().mem.clone();
            let mem = mem.read();
            assert!(matches!(mem.get(b"/moved"), Some(Value::Put(v)) if v.as_ptr() == value_at), "wal {wal}");
            assert!(
                matches!(mem.get(b"/stacked"), Some(Value::Merge(ops)) if ops[0].as_ptr() == operand_at),
                "wal {wal}"
            );
        }
    }

    #[test]
    fn overwrite_latest_wins_across_levels() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/x", b"old").unwrap();
        db.flush().unwrap();
        db.put(b"/x", b"new").unwrap();
        assert_eq!(db.get(b"/x").unwrap().as_deref(), Some(&b"new"[..]));
        db.flush().unwrap();
        assert_eq!(db.get(b"/x").unwrap().as_deref(), Some(&b"new"[..]));
        db.compact().unwrap();
        assert_eq!(db.get(b"/x").unwrap().as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn tombstone_shadows_older_table() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/gone", b"v").unwrap();
        db.flush().unwrap();
        db.delete(b"/gone").unwrap();
        db.flush().unwrap();
        assert!(db.get(b"/gone").unwrap().is_none());
        let scan = db.scan_prefix(b"/gone").unwrap();
        assert!(scan.is_empty());
    }

    #[test]
    fn merge_max_across_flushes() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/f:size", &100u64.to_le_bytes()).unwrap();
        db.flush().unwrap();
        // Base now lives in a table; merges must stack and resolve.
        db.merge(b"/f:size", &50u64.to_le_bytes()).unwrap();
        db.merge(b"/f:size", &300u64.to_le_bytes()).unwrap();
        let v = db.get(b"/f:size").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v[..].try_into().unwrap()), 300);
        db.flush().unwrap();
        let v = db.get(b"/f:size").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v[..].try_into().unwrap()), 300);
    }

    #[test]
    fn merge_without_operator_errors() {
        let db = Db::open_memory(DbOptions::default()).unwrap();
        assert!(matches!(
            db.merge(b"/k", b"x"),
            Err(GkfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn scan_prefix_merges_all_sources() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/dir/a", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"/dir/b", b"2").unwrap();
        db.flush().unwrap();
        db.put(b"/dir/c", b"3").unwrap(); // stays in memtable
        db.put(b"/other/x", b"9").unwrap();
        db.delete(b"/dir/a").unwrap(); // tombstone in memtable
        let entries = db.scan_prefix(b"/dir/").unwrap();
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"/dir/b"[..], b"/dir/c"]);
        // The prefix bounds the walk on both sides, in every source:
        // a table and the memtable each hold keys before and after it.
        db.put(b"/dir", b"the directory itself").unwrap();
        db.put(b"/dis", b"sorts after every /dir/ key").unwrap();
        db.flush().unwrap();
        db.put(b"/dir.", b"sorts before").unwrap();
        db.put(b"/dir0", b"sorts after").unwrap();
        assert_eq!(db.scan_prefix(b"/dir/").unwrap(), entries);
        assert_eq!(db.scan_prefix(b"/dir").unwrap().len(), 5);
        assert!(db.scan_prefix(b"/zzz").unwrap().is_empty());
        assert_eq!(db.scan_prefix(b"").unwrap().len(), db.len().unwrap());
    }

    #[test]
    fn len_counts_what_a_full_scan_returns() {
        let db = Db::open_memory(small_opts()).unwrap();
        for i in 0..300u64 {
            db.put(format!("/k/{i:04}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        db.flush().unwrap(); // 300 puts in a table
        for i in 0..100u64 {
            db.delete(format!("/k/{i:04}").as_bytes()).unwrap();
        }
        db.flush().unwrap(); // 100 tombstones in a newer table
        db.put(b"/k/0007", b"again").unwrap(); // re-created over its tombstone
        db.delete(b"/k/0250").unwrap(); // tombstone in the memtable
        db.merge(b"/k/0260", &9u64.to_le_bytes()).unwrap(); // merge over a flushed base
        db.merge(b"/fresh", &1u64.to_le_bytes()).unwrap(); // merge with no base at all
        assert_eq!(db.len().unwrap(), db.scan_prefix(&[]).unwrap().len());
        assert_eq!(db.len().unwrap(), 300 - 100 + 1 - 1 + 1);
        assert!(!db.is_empty().unwrap());
    }

    #[test]
    fn scan_prefix_resolves_memtable_merges() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/f", &10u64.to_le_bytes()).unwrap();
        db.flush().unwrap();
        db.merge(b"/f", &99u64.to_le_bytes()).unwrap();
        let entries = db.scan_prefix(b"/f").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(u64::from_le_bytes(entries[0].1[..].try_into().unwrap()), 99);
    }

    #[test]
    fn compaction_reduces_table_count_and_preserves_data() {
        let db = Db::open_memory(small_opts()).unwrap();
        for i in 0..2000 {
            db.put(format!("/k{i:05}").as_bytes(), b"payload-payload")
                .unwrap();
        }
        db.compact().unwrap();
        let (mem, imm, l0, l1) = db.level_shape();
        assert_eq!(mem, 0);
        assert_eq!(imm, 0);
        assert_eq!(l0, 0);
        assert!(l1 >= 1);
        assert_eq!(db.len().unwrap(), 2000);
        assert_eq!(
            db.get(b"/k01234").unwrap().as_deref(),
            Some(&b"payload-payload"[..])
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let store = Arc::new(MemBlobStore::new());
        let mut opts = small_opts();
        opts.wal = true;
        {
            let db = Db::open(store.clone(), opts.clone()).unwrap();
            for i in 0..100 {
                db.put(format!("/p{i}").as_bytes(), b"v").unwrap();
            }
            db.merge(b"/p0:size", &7u64.to_le_bytes()).unwrap();
            // No explicit flush: some state is only in the WAL.
        }
        {
            let db = Db::open(store, opts).unwrap();
            assert_eq!(db.get(b"/p42").unwrap().as_deref(), Some(&b"v"[..]));
            let v = db.get(b"/p0:size").unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(v[..].try_into().unwrap()), 7);
        }
    }

    #[test]
    fn persistence_on_disk() {
        let dir = std::env::temp_dir().join(format!("gkfs-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = small_opts();
        opts.wal = true;
        {
            let db = Db::open_dir(&dir, opts.clone()).unwrap();
            for i in 0..500 {
                db.put(format!("/d{i:04}").as_bytes(), b"disk").unwrap();
            }
        }
        {
            let db = Db::open_dir(&dir, opts).unwrap();
            assert_eq!(db.len().unwrap(), 500);
            assert_eq!(db.get(b"/d0123").unwrap().as_deref(), Some(&b"disk"[..]));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let db = Db::open_memory(DbOptions {
            memtable_bytes: 16 * 1024,
            l0_compaction_trigger: 3,
            merge_operator: Some(Arc::new(Add64MergeOperator)),
            ..DbOptions::default()
        })
        .unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..1000 {
                        db.put(format!("/t{t}/k{i}").as_bytes(), b"v").unwrap();
                        db.merge(b"/counter", &1u64.to_le_bytes()).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..1000 {
                        let _ = db.get(format!("/t0/k{i}").as_bytes()).unwrap();
                    }
                });
            }
        });
        let v = db.get(b"/counter").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v[..].try_into().unwrap()), 4000);
        for t in 0..4 {
            assert_eq!(
                db.scan_prefix(format!("/t{t}/").as_bytes()).unwrap().len(),
                1000
            );
        }
    }

    #[test]
    fn write_batch_is_atomic_to_readers() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/acct/a", &100u64.to_le_bytes()).unwrap();
        db.put(b"/acct/b", &0u64.to_le_bytes()).unwrap();
        let read_sum = |db: &Db| -> u64 {
            db.scan_prefix(b"/acct/")
                .unwrap()
                .iter()
                .map(|(_, v)| u64::from_le_bytes(v[..].try_into().unwrap()))
                .sum()
        };
        // Transfers between the two keys via batches; concurrent
        // readers must always observe the invariant sum.
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..500u64 {
                    let mut b = WriteBatch::new();
                    b.put(b"/acct/a", &(100 - (i % 100)).to_le_bytes());
                    b.put(b"/acct/b", &(i % 100).to_le_bytes());
                    db.write(b).unwrap();
                }
            });
            for _ in 0..200 {
                assert_eq!(read_sum(&db), 100, "readers must never see a torn batch");
            }
            writer.join().unwrap();
        });
    }

    #[test]
    fn write_batch_mixed_ops_and_recovery() {
        let store = Arc::new(MemBlobStore::new());
        let mut opts = small_opts();
        opts.wal = true;
        {
            let db = Db::open(store.clone(), opts.clone()).unwrap();
            db.put(b"/old", b"x").unwrap();
            let mut b = WriteBatch::new();
            b.put(b"/new", b"y")
                .delete(b"/old")
                .merge(b"/size", &42u64.to_le_bytes());
            assert_eq!(b.len(), 3);
            db.write(b).unwrap();
            // No flush: recovery comes purely from the WAL batch record.
        }
        let db = Db::open(store, opts).unwrap();
        assert_eq!(db.get(b"/new").unwrap().as_deref(), Some(&b"y"[..]));
        assert!(db.get(b"/old").unwrap().is_none());
        let v = db.get(b"/size").unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v[..].try_into().unwrap()), 42);
    }

    #[test]
    fn empty_batch_is_noop() {
        let db = Db::open_memory(DbOptions::default()).unwrap();
        db.write(WriteBatch::new()).unwrap();
        assert_eq!(db.stats().kv_puts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn put_if_absent_is_exclusive() {
        let db = Db::open_memory(small_opts()).unwrap();
        assert!(db.put_if_absent(b"/x", b"first").unwrap());
        assert!(!db.put_if_absent(b"/x", b"second").unwrap());
        assert_eq!(db.get(b"/x").unwrap().as_deref(), Some(&b"first"[..]));
        // After delete, the key is insertable again (tombstone case).
        db.delete(b"/x").unwrap();
        assert!(db.put_if_absent(b"/x", b"third").unwrap());
        // Key present only in a flushed table still counts as existing.
        db.flush().unwrap();
        assert!(!db.put_if_absent(b"/x", b"fourth").unwrap());
    }

    #[test]
    fn put_if_absent_races_one_winner() {
        let db = Db::open_memory(DbOptions::default()).unwrap();
        let winners: usize = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let db = &db;
                    s.spawn(move || db.put_if_absent(b"/race", format!("w{i}").as_bytes()).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap() as usize)
                .sum()
        });
        assert_eq!(winners, 1, "exactly one creator may win");
    }

    #[test]
    fn bloom_filters_skip_absent_keys() {
        let db = Db::open_memory(small_opts()).unwrap();
        for i in 0..200 {
            db.put(format!("/present/{i}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        for i in 0..200 {
            assert!(db.get(format!("/absent/{i}").as_bytes()).unwrap().is_none());
        }
        assert!(
            db.stats().kv_bloom_skips.load(Ordering::Relaxed) > 150,
            "bloom filters should have skipped most absent lookups"
        );
    }

    /// One probe per table: a lookup that every bloom filter rules out
    /// skips each table of the version exactly once.
    #[test]
    fn absent_key_skips_each_table_once() {
        let db = Db::open_memory(DbOptions { l0_compaction_trigger: 100, ..small_opts() }).unwrap();
        db.put(b"/run/a", b"v").unwrap();
        db.compact().unwrap(); // one table in L1
        for i in 0..3 {
            db.put(format!("/l0/{i}").as_bytes(), b"v").unwrap();
            db.flush().unwrap(); // three more in L0
        }
        assert_eq!(db.level_shape(), (0, 0, 3, 1));
        let skips = || db.stats().kv_bloom_skips.load(Ordering::Relaxed);
        let before = skips();
        assert!(db.get(b"/nowhere").unwrap().is_none());
        assert_eq!(skips() - before, 4);
        // A present key skips the tables above it and stops at its own.
        assert!(db.get(b"/l0/0").unwrap().is_some());
        assert_eq!(skips() - before, 4 + 2);
    }

    /// Blob store wrapper that slows down chosen operations and counts
    /// log calls — lets tests hold a background flush "on disk" while
    /// asserting foreground behavior.
    struct SlowStore {
        inner: MemBlobStore,
        table_delay: Duration,
        log_delay: Duration,
        syncs: AtomicU64,
        /// How many of the next `sync_log` calls fail.
        fail_syncs: AtomicU64,
        /// Held for writing, parks every table write (the flusher's)
        /// until it is released: frozen memtables stay frozen.
        gate: std::sync::RwLock<()>,
        /// Set, every table write panics.
        panic_tables: std::sync::atomic::AtomicBool,
        turnstile: Turnstile,
    }

    /// Parks every table write of at least `min` bytes (0: none) until
    /// the test lets it through, one arrival at a time.
    #[derive(Default)]
    struct Turnstile {
        min: AtomicU64,
        /// Writes arrived, writes let through.
        count: std::sync::Mutex<(u64, u64)>,
        cv: std::sync::Condvar,
    }

    impl Turnstile {
        fn pass(&self, len: usize) {
            let min = self.min.load(Ordering::Relaxed);
            if min == 0 || (len as u64) < min {
                return;
            }
            let mut c = self.count.lock().unwrap();
            c.0 += 1;
            let me = c.0;
            self.cv.notify_all();
            while c.1 < me {
                c = self.cv.wait(c).unwrap();
            }
        }
        /// Wait until `n` writes have arrived.
        fn arrived(&self, n: u64) {
            let mut c = self.count.lock().unwrap();
            while c.0 < n {
                c = self.cv.wait(c).unwrap();
            }
        }
        /// Let the first `n` arrivals through.
        fn let_through(&self, n: u64) {
            self.count.lock().unwrap().1 = n;
            self.cv.notify_all();
        }
    }

    impl SlowStore {
        fn new(table_delay: Duration, log_delay: Duration) -> SlowStore {
            SlowStore {
                inner: MemBlobStore::new(),
                table_delay,
                log_delay,
                syncs: AtomicU64::new(0),
                fail_syncs: AtomicU64::new(0),
                gate: std::sync::RwLock::new(()),
                panic_tables: Default::default(),
                turnstile: Turnstile::default(),
            }
        }
    }

    impl BlobStore for SlowStore {
        fn put_blob(&self, name: &str, data: &[u8]) -> Result<()> {
            if name.starts_with("sst-") {
                assert!(!self.panic_tables.load(Ordering::Relaxed), "injected table write panic");
                drop(self.gate.read());
                self.turnstile.pass(data.len());
                std::thread::sleep(self.table_delay);
            }
            self.inner.put_blob(name, data)
        }
        fn get_blob(&self, name: &str) -> Result<Arc<Vec<u8>>> {
            self.inner.get_blob(name)
        }
        fn delete_blob(&self, name: &str) -> Result<()> {
            self.inner.delete_blob(name)
        }
        fn append_log(&self, data: &[u8]) -> Result<()> {
            if !self.log_delay.is_zero() {
                std::thread::sleep(self.log_delay);
            }
            self.inner.append_log(data)
        }
        fn sync_log(&self) -> Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            let failing = |n: u64| n.checked_sub(1);
            if self.fail_syncs.fetch_update(Ordering::Relaxed, Ordering::Relaxed, failing).is_ok() {
                return Err(GkfsError::Io("injected sync failure".into()));
            }
            self.inner.sync_log()
        }
        fn rotate_log(&self) -> Result<u64> {
            self.inner.rotate_log()
        }
        fn read_logs(&self) -> Result<Vec<u8>> {
            self.inner.read_logs()
        }
        fn drop_logs_through(&self, id: u64) -> Result<()> {
            self.inner.drop_logs_through(id)
        }
        fn reset_log(&self) -> Result<()> {
            self.inner.reset_log()
        }
        fn list_blobs(&self) -> Result<Vec<String>> {
            self.inner.list_blobs()
        }
    }

    /// A background thread that panics fails the writers waiting on it
    /// rather than leaving them to wait forever: the thread dies on its
    /// first flush's table, and a writer held up by the full frozen
    /// backlog gets the error, which names the job. Behind a timeout, so
    /// that a hang fails the test.
    #[test]
    fn a_background_panic_fails_writers_instead_of_hanging_them() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let store = Arc::new(SlowStore::new(Duration::ZERO, Duration::ZERO));
            store.panic_tables.store(true, Ordering::Relaxed);
            let opts = DbOptions { memtable_bytes: 4096, max_imm_memtables: 1, ..DbOptions::default() };
            let db = Db::open(store, opts).unwrap();
            let put = |i: u32| db.put(format!("/p/{i:05}").as_bytes(), &[7; 100]);
            let _ = tx.send((0..10_000).try_for_each(put));
        });
        let res = rx.recv_timeout(Duration::from_secs(20)).expect("a writer waits on a dead flusher");
        assert!(matches!(&res, Err(GkfsError::Io(m)) if m.contains("gkfs-kv-flush panicked")), "{res:?}");
    }

    /// The tentpole property: an SSTable build in flight on the
    /// background thread must not block foreground writers or readers.
    #[test]
    fn puts_complete_while_flush_in_flight() {
        let store = Arc::new(SlowStore::new(Duration::from_millis(800), Duration::ZERO));
        let db = Db::open(
            store,
            DbOptions {
                memtable_bytes: 2048,
                l0_compaction_trigger: 100,
                l0_slowdown_threshold: 100,
                l0_stall_threshold: 100,
                max_imm_memtables: 8,
                ..DbOptions::default()
            },
        )
        .unwrap();
        // Cross the budget: rotation freezes the memtable and the
        // flusher gets stuck in the slow put_blob.
        for i in 0..40 {
            db.put(format!("/pre/{i:03}").as_bytes(), &[1u8; 64]).unwrap();
        }
        let t = Instant::now();
        for i in 0..20 {
            db.put(format!("/during/{i:02}").as_bytes(), b"v").unwrap();
        }
        assert!(
            t.elapsed() < Duration::from_millis(400),
            "writers must not block for the SSTable build ({:?})",
            t.elapsed()
        );
        // Frozen memtables stay readable until their tables land.
        assert_eq!(
            db.get(b"/pre/005").unwrap().as_deref(),
            Some(&[1u8; 64][..])
        );
        assert!(
            db.stats().kv_imm_hits.load(Ordering::Relaxed) > 0,
            "read should have been served by a frozen memtable"
        );
        db.flush().unwrap();
        for i in 0..40 {
            assert!(db.get(format!("/pre/{i:03}").as_bytes()).unwrap().is_some());
        }
        for i in 0..20 {
            assert!(db.get(format!("/during/{i:02}").as_bytes()).unwrap().is_some());
        }
    }

    /// A memtable frozen while a compaction runs is flushed between the
    /// compaction's output tables, as LevelDB does: a rotation against
    /// a full backlog gets through while the compaction is still parked
    /// on its next output, and the install keeps the table flushed
    /// meanwhile. Behind a timeout, so that a rotation that waits for
    /// the whole compaction fails the test rather than hanging it.
    #[test]
    fn a_rotation_gets_through_a_running_compaction() {
        const MIB: usize = 1 << 20;
        let store = Arc::new(SlowStore::new(Duration::ZERO, Duration::ZERO));
        // A compaction's full outputs are 8 MiB; every flush here is one
        // 1 MiB value.
        store.turnstile.min.store(4 * MIB as u64, Ordering::Relaxed);
        let opts = DbOptions {
            memtable_bytes: MIB / 2,
            l0_compaction_trigger: 16,
            l0_slowdown_threshold: 100,
            l0_stall_threshold: 100,
            max_imm_memtables: 1,
            ..DbOptions::default()
        };
        let db = Db::open(store.clone(), opts).unwrap();
        let value = |i: usize| vec![i as u8; MIB];
        // Every put rotates. The 16th flush puts L0 at the trigger, and
        // the thread's compaction parks on the first of its two outputs.
        for i in 0..16 {
            db.put(format!("/old/{i:02}").as_bytes(), &value(i)).unwrap();
        }
        store.turnstile.arrived(1);
        let stalls = || db.stats().kv_stalls.load(Ordering::Relaxed);
        let before = stalls();
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                // The first put freezes its memtable; the second rotates
                // against the full backlog.
                for i in 0..2 {
                    db.put(format!("/new/{i}").as_bytes(), &value(100 + i)).unwrap();
                }
                tx.send(()).unwrap();
            })
        };
        while stalls() == before {
            std::thread::sleep(Duration::from_millis(1));
        }
        store.turnstile.let_through(1);
        let got = rx.recv_timeout(Duration::from_secs(20));
        let shape = db.level_shape();
        store.turnstile.let_through(u64::MAX);
        assert!(got.is_ok(), "the rotation waited for the whole compaction");
        assert_eq!(shape, (0, 1, 17, 0), "/new/0 flushed, the compaction not yet installed");
        writer.join().unwrap();
        db.shutdown().unwrap();
        assert_eq!(db.level_shape(), (0, 0, 2, 2), "the install kept the tables flushed meanwhile");
        for i in 0..16 {
            assert_eq!(db.get(format!("/old/{i:02}").as_bytes()).unwrap(), Some(value(i)));
        }
        for i in 0..2 {
            assert_eq!(db.get(format!("/new/{i}").as_bytes()).unwrap(), Some(value(100 + i)));
        }
    }

    /// The merge walk against a model, with more than a step of keys in
    /// the active and in a frozen memtable, merges stacked over table
    /// bases and over each other, tombstones shadowing L1 and keys on
    /// both sides of the prefix: `scan_prefix`, a page of
    /// `scan_prefix_with`, `len` and `get` agree with the model, and a
    /// compaction changes none of them.
    #[test]
    fn readings_agree_across_steps_and_compaction() {
        /// A batch and the model it is applied to, staged together.
        #[derive(Default)]
        struct Staged {
            batch: WriteBatch,
            model: BTreeMap<Vec<u8>, u64>,
        }
        impl Staged {
            fn put(&mut self, k: Vec<u8>, v: u64) {
                self.batch.put(&k, &v.to_le_bytes());
                self.model.insert(k, v);
            }
            fn delete(&mut self, k: Vec<u8>) {
                self.batch.delete(&k);
                self.model.remove(&k);
            }
            fn merge(&mut self, k: Vec<u8>, v: u64) {
                self.batch.merge(&k, &v.to_le_bytes());
                *self.model.entry(k).or_insert(0) += v;
            }
            fn commit(&mut self, db: &Db) {
                db.write(std::mem::take(&mut self.batch)).unwrap();
            }
        }

        let store = Arc::new(SlowStore::new(Duration::ZERO, Duration::ZERO));
        let db = Db::open(store.clone(), DbOptions {
            memtable_bytes: 48_000,
            l0_compaction_trigger: 100,
            l0_slowdown_threshold: 100,
            l0_stall_threshold: 100,
            max_imm_memtables: 8,
            merge_operator: Some(Arc::new(Add64MergeOperator)),
            ..DbOptions::default()
        })
        .unwrap();
        let n = 4 * STEP;
        let key = |i: usize| format!("/s/{i:05}").into_bytes();
        let mut w = Staged::default();
        // L1: every key, and neighbours of the prefix on both sides.
        for i in 0..n {
            w.put(key(i), i as u64);
        }
        for k in ["/s", "/s.", "/s0", "/r~"] {
            w.put(k.as_bytes().to_vec(), 7);
        }
        w.commit(&db);
        db.compact().unwrap();
        // L0: a tombstone over every third key.
        (0..n).step_by(3).for_each(|i| w.delete(key(i)));
        w.commit(&db);
        db.flush().unwrap();
        // Frozen (one batch over the budget, the flusher parked): merges
        // over L1 bases and over L0 tombstones, and fresh keys.
        let gate = store.gate.write().unwrap();
        (0..n).filter(|i| i % 3 == 1 || i % 9 == 0).for_each(|i| w.merge(key(i), 5));
        (n..n + 200).for_each(|i| w.put(key(i), 1));
        w.commit(&db);
        // Active: tombstones over L1 and over frozen puts, merges stacked
        // on frozen merges, a merge with no base anywhere.
        (0..n).filter(|i| i % 3 == 2).chain(n..n + 50).for_each(|i| w.delete(key(i)));
        (0..n).filter(|i| i % 6 == 1).for_each(|i| w.merge(key(i), 11));
        w.merge(key(n + 500), 3);
        w.commit(&db);
        let (mem, imm, l0, l1) = db.level_shape();
        assert!(mem > STEP && imm == 1 && l0 > 0 && l1 > 0, "{:?}", db.level_shape());
        let frozen = db.inner.snapshot().imm[0].mem.read().len();
        assert!(frozen > STEP, "{frozen} frozen entries");
        let model = w.model;

        let check = |when: &str| {
            let value = |v: &[u8]| u64::from_le_bytes(v.try_into().unwrap());
            let scanned: Vec<(Vec<u8>, u64)> =
                db.scan_prefix(b"/s/").unwrap().into_iter().map(|(k, v)| (k, value(&v))).collect();
            let want: Vec<(Vec<u8>, u64)> =
                model.iter().filter(|(k, _)| k.starts_with(b"/s/")).map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(scanned, want, "scan_prefix {when}");
            let mut page = Vec::new();
            db.scan_prefix_with(b"/s/", &key(n / 2), |k, v| {
                page.push((k.to_vec(), value(v)));
                Ok(page.len() < 10)
            })
            .unwrap();
            let from = model.range(key(n / 2)..).take(10).map(|(k, v)| (k.clone(), *v));
            assert_eq!(page, from.collect::<Vec<_>>(), "a page from the middle {when}");
            assert_eq!(db.len().unwrap(), model.len(), "len {when}");
            for i in 0..n + 600 {
                let got = db.get(&key(i)).unwrap().map(|v| value(&v));
                assert_eq!(got, model.get(&key(i)).copied(), "get {i} {when}");
            }
        };
        check("across the levels");
        drop(gate);
        db.compact().unwrap();
        assert_eq!(db.level_shape(), (0, 0, 0, 1));
        check("after a compaction");
    }

    /// A delete leaves a tombstone exactly where an older source may
    /// hold its key — a frozen memtable (the flush parked), L0, L1 —
    /// and forgets the entry of a key that only the active memtable
    /// holds, or that a frozen tombstone already shadows. Either way
    /// every reading is `None`, before and after a flush and a
    /// compaction, and after a crash-style reopen at each of those
    /// points: the first replays the deletes from the WAL, each asking
    /// the recovered levels as its live twin asked its version.
    #[test]
    fn a_delete_leaves_a_tombstone_only_over_an_older_source() {
        let store = Arc::new(SlowStore::new(Duration::ZERO, Duration::ZERO));
        let opts = DbOptions { wal: true, l0_compaction_trigger: 100, max_imm_memtables: 8, ..small_opts() };
        let mut db = Db::open(store.clone(), opts.clone()).unwrap();
        db.put(b"/l1", b"v").unwrap();
        db.compact().unwrap();
        db.put(b"/l0", b"v").unwrap();
        db.flush().unwrap();
        assert_eq!(db.level_shape(), (0, 0, 1, 1));
        let gate = store.gate.write().unwrap();
        db.put(b"/frozen", b"v").unwrap();
        db.put(b"/shadowed", b"v").unwrap();
        db.inner.rotate(true).unwrap();
        db.delete(b"/shadowed").unwrap();
        db.inner.rotate(true).unwrap();
        assert_eq!(db.level_shape(), (0, 2, 1, 1));
        for k in ["/l1", "/l0", "/frozen"] {
            db.delete(k.as_bytes()).unwrap();
        }
        for k in ["/active", "/shadowed"] {
            db.put(k.as_bytes(), b"v").unwrap();
            db.delete(k.as_bytes()).unwrap();
        }
        {
            let ver = db.inner.snapshot();
            let mem = ver.mem.read();
            for k in ["/l1", "/l0", "/frozen"] {
                assert_eq!(mem.get(k.as_bytes()), Some(&Value::Delete), "{k} is held below");
            }
            for k in ["/active", "/shadowed"] {
                assert_eq!(mem.get(k.as_bytes()), None, "nothing below holds {k}");
            }
        }
        let check = |db: &Db, when: &str| {
            for k in ["/l1", "/l0", "/frozen", "/active", "/shadowed"] {
                assert_eq!(db.get(k.as_bytes()).unwrap(), None, "get {k} {when}");
            }
            assert_eq!(db.len().unwrap(), 0, "len {when}");
        };
        let reopen = |db: Arc<Db>| {
            drop(db);
            Db::open(store.clone(), opts.clone()).unwrap()
        };
        check(&db, "across the levels");
        drop(gate);
        db = reopen(db);
        check(&db, "after a reopen");
        db.flush().unwrap();
        check(&db, "after a flush");
        db = reopen(db);
        check(&db, "after a flush and a reopen");
        db.compact().unwrap();
        check(&db, "after a compaction");
        db = reopen(db);
        check(&db, "after a compaction and a reopen");
    }

    /// A walk holds no store lock while its visitor runs: with a
    /// visitor parked mid-walk — more than a step of keys in the active
    /// memtable, so a step is in flight — another thread's puts, a
    /// memtable rotation and a get all complete. Debug builds also check
    /// that the walk takes one memtable guard at a time.
    #[test]
    fn writers_never_wait_on_a_walk() {
        let db = Db::open_memory(DbOptions { memtable_bytes: 1 << 20, ..small_opts() }).unwrap();
        for i in 0..2 * STEP {
            db.put(format!("/w/{i:04}").as_bytes(), b"v").unwrap();
        }
        let (parked_tx, parked) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let db = &db;
            let walker = s.spawn(move || {
                let mut seen = 0;
                db.scan_prefix_with(b"/w/", b"", |_, _| {
                    seen += 1;
                    if seen == STEP / 2 {
                        parked_tx.send(()).unwrap();
                        resume_rx.recv().unwrap();
                    }
                    Ok(true)
                })
                .unwrap();
                seen
            });
            parked.recv().unwrap();
            s.spawn(move || {
                let flushes = db.stats().kv_flushes.load(Ordering::Relaxed);
                for i in 0..300 {
                    db.put(format!("/x/{i:04}").as_bytes(), &[1u8; 4096]).unwrap();
                }
                db.flush().unwrap();
                assert!(db.stats().kv_flushes.load(Ordering::Relaxed) > flushes, "a rotation");
                assert!(db.get(b"/w/0000").unwrap().is_some());
                done_tx.send(()).unwrap();
            });
            let finished = done.recv_timeout(Duration::from_secs(20));
            resume.send(()).unwrap();
            assert!(finished.is_ok(), "a writer waited on a walk's visitor");
            assert_eq!(walker.join().unwrap(), 2 * STEP, "the walk saw its snapshot's keys");
        });
    }

    /// An L0 slowdown is a stall: each 1 ms sleep counts one episode
    /// and the time it asked for.
    #[test]
    fn an_l0_slowdown_counts_as_a_stall() {
        let db = Db::open_memory(DbOptions {
            l0_compaction_trigger: 100,
            l0_slowdown_threshold: 1,
            l0_stall_threshold: 100,
            ..DbOptions::default()
        })
        .unwrap();
        db.put(b"/a", b"1").unwrap();
        db.flush().unwrap();
        let s = db.stats();
        let stalls = || (s.kv_stalls.load(Ordering::Relaxed), s.kv_stall_micros.load(Ordering::Relaxed));
        assert_eq!(stalls(), (0, 0), "below the slowdown threshold, and a flush is no stall");
        // One table in L0: this put sleeps, and asks for the compaction
        // that takes L0 back below the threshold.
        db.put(b"/b", b"2").unwrap();
        assert_eq!(stalls(), (1, 1000));
    }

    /// Backpressure engages when background work falls behind, and the
    /// store stays correct through stall/resume cycles.
    #[test]
    fn stall_when_backlogged_then_resumes() {
        let store = Arc::new(SlowStore::new(Duration::from_millis(5), Duration::ZERO));
        let db = Db::open(
            store,
            DbOptions {
                memtable_bytes: 512,
                l0_compaction_trigger: 2,
                l0_slowdown_threshold: 2,
                l0_stall_threshold: 3,
                max_imm_memtables: 2,
                ..DbOptions::default()
            },
        )
        .unwrap();
        for i in 0..300 {
            db.put(format!("/s/{i:04}").as_bytes(), &[7u8; 32]).unwrap();
        }
        // Read before the flush below: only writers held up count.
        let s = db.stats();
        let (stalls, micros) = (s.kv_stalls.load(Ordering::Relaxed), s.kv_stall_micros.load(Ordering::Relaxed));
        assert!(stalls > 0 && micros > 0, "tiny memtable + slow store must trip backpressure");
        db.flush().unwrap();
        // With the backlog drained, a flush's own wait (one table on
        // the slow store) is not back-pressure.
        db.put(b"/s/0000", &[7u8; 32]).unwrap();
        let stalls = s.kv_stalls.load(Ordering::Relaxed);
        db.flush().unwrap();
        assert_eq!(s.kv_stalls.load(Ordering::Relaxed), stalls, "an explicit flush is not a stall");
        assert_eq!(db.len().unwrap(), 300);
        for i in (0..300).step_by(37) {
            assert_eq!(
                db.get(format!("/s/{i:04}").as_bytes()).unwrap().as_deref(),
                Some(&[7u8; 32][..])
            );
        }
    }

    /// Clean shutdown drains every frozen memtable into tables — with
    /// the WAL off, reopen must still see everything.
    #[test]
    fn shutdown_drains_background_work() {
        let store = Arc::new(SlowStore::new(Duration::from_millis(50), Duration::ZERO));
        let db = Db::open(
            store.clone(),
            DbOptions {
                memtable_bytes: 512,
                l0_compaction_trigger: 100,
                l0_slowdown_threshold: 100,
                l0_stall_threshold: 100,
                max_imm_memtables: 8,
                ..DbOptions::default()
            },
        )
        .unwrap();
        for i in 0..60 {
            db.put(format!("/sd/{i:02}").as_bytes(), b"value").unwrap();
        }
        db.shutdown().unwrap();
        drop(db);
        let db = Db::open(store, DbOptions::default()).unwrap();
        assert_eq!(db.len().unwrap(), 60);
        for i in 0..60 {
            assert_eq!(
                db.get(format!("/sd/{i:02}").as_bytes()).unwrap().as_deref(),
                Some(&b"value"[..])
            );
        }
    }

    /// Writes after `shutdown()` fall back to inline flush: rotation
    /// drains the frozen memtable on the caller's thread. This is the
    /// path that re-enters the version lock from under its own read
    /// guard when written as a `while let` — the regression the ranked
    /// locks exist to catch.
    #[test]
    fn writes_after_shutdown_flush_inline() {
        let db = Db::open_memory(DbOptions {
            memtable_bytes: 256,
            l0_compaction_trigger: 100,
            ..small_opts()
        })
        .unwrap();
        db.shutdown().unwrap();
        for i in 0..40 {
            db.put(format!("/post/{i:02}").as_bytes(), &[i as u8; 32]).unwrap();
        }
        let (_, imm, _, _) = db.level_shape();
        assert_eq!(imm, 0, "inline rotation must drain frozen memtables");
        for i in 0..40 {
            assert_eq!(
                db.get(format!("/post/{i:02}").as_bytes()).unwrap().as_deref(),
                Some(&[i as u8; 32][..])
            );
        }
    }

    /// Dropping the handle without shutdown is a crash: the WAL must
    /// cover every acknowledged write, including those sitting in
    /// frozen memtables whose flush never finished.
    #[test]
    fn drop_without_shutdown_recovers_from_wal() {
        let store = Arc::new(SlowStore::new(Duration::from_millis(20), Duration::ZERO));
        let opts = DbOptions {
            memtable_bytes: 512,
            l0_compaction_trigger: 4,
            wal: true,
            ..DbOptions::default()
        };
        {
            let db = Db::open(store.clone(), opts.clone()).unwrap();
            for i in 0..200 {
                db.put(format!("/c/{i:04}").as_bytes(), b"acked").unwrap();
            }
            // Drop mid-background-flush: no drain.
        }
        let db = Db::open(store, opts).unwrap();
        assert_eq!(db.len().unwrap(), 200);
        for i in (0..200).step_by(13) {
            assert_eq!(
                db.get(format!("/c/{i:04}").as_bytes()).unwrap().as_deref(),
                Some(&b"acked"[..])
            );
        }
    }

    /// The `flushed_seq` watermark: records already resolved into an
    /// SSTable must not replay even when their WAL segments survive (a
    /// crash can land between manifest install and segment drop).
    #[test]
    fn replay_skips_flushed_records() {
        struct NoGcStore(MemBlobStore);
        impl BlobStore for NoGcStore {
            fn put_blob(&self, n: &str, d: &[u8]) -> Result<()> {
                self.0.put_blob(n, d)
            }
            fn get_blob(&self, n: &str) -> Result<Arc<Vec<u8>>> {
                self.0.get_blob(n)
            }
            fn delete_blob(&self, n: &str) -> Result<()> {
                self.0.delete_blob(n)
            }
            fn append_log(&self, d: &[u8]) -> Result<()> {
                self.0.append_log(d)
            }
            fn sync_log(&self) -> Result<()> {
                self.0.sync_log()
            }
            fn rotate_log(&self) -> Result<u64> {
                self.0.rotate_log()
            }
            fn read_logs(&self) -> Result<Vec<u8>> {
                self.0.read_logs()
            }
            fn drop_logs_through(&self, _id: u64) -> Result<()> {
                Ok(()) // simulate the crash window: segments never drop
            }
            fn reset_log(&self) -> Result<()> {
                self.0.reset_log()
            }
            fn list_blobs(&self) -> Result<Vec<String>> {
                self.0.list_blobs()
            }
        }
        let store = Arc::new(NoGcStore(MemBlobStore::new()));
        let opts = DbOptions {
            wal: true,
            merge_operator: Some(Arc::new(Add64MergeOperator)),
            ..DbOptions::default()
        };
        {
            let db = Db::open(store.clone(), opts.clone()).unwrap();
            for _ in 0..10 {
                db.merge(b"/ctr", &1u64.to_le_bytes()).unwrap();
            }
            db.flush().unwrap(); // operands resolved into an SSTable
            for _ in 0..5 {
                db.merge(b"/ctr", &1u64.to_le_bytes()).unwrap();
            }
        }
        let db = Db::open(store, opts).unwrap();
        let v = db.get(b"/ctr").unwrap().unwrap();
        assert_eq!(
            u64::from_le_bytes(v[..].try_into().unwrap()),
            15,
            "flushed (non-idempotent) merges must not replay twice"
        );
    }

    /// Group commit: concurrent writers share appends — the mean batch
    /// size must exceed one record per append.
    #[test]
    fn group_commit_shares_appends() {
        let store = Arc::new(SlowStore::new(Duration::ZERO, Duration::from_millis(3)));
        let opts = DbOptions {
            wal: true,
            ..DbOptions::default()
        };
        let db = Db::open(store.clone(), opts.clone()).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..50 {
                        db.put(format!("/g/t{t}/{i:02}").as_bytes(), b"v").unwrap();
                    }
                });
            }
        });
        let commits = db.stats().kv_group_commits.load(Ordering::Relaxed);
        let records = db.stats().kv_group_commit_records.load(Ordering::Relaxed);
        assert_eq!(records, 400, "every record must pass through a leader");
        assert!(
            commits < 400,
            "8 writers against a slow log must share appends (got {commits} appends)"
        );
        drop(db);
        let db = Db::open(store, opts).unwrap();
        assert_eq!(db.len().unwrap(), 400, "group commit must lose nothing");
    }

    /// `sync` writers share fsyncs, and the per-batch override works
    /// on a non-sync database.
    #[test]
    fn sync_commits_share_fsyncs() {
        let store = Arc::new(SlowStore::new(Duration::ZERO, Duration::from_millis(1)));
        let db = Db::open(
            store.clone(),
            DbOptions {
                wal: true,
                sync: true,
                ..DbOptions::default()
            },
        )
        .unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..25 {
                        db.put(format!("/y/t{t}/{i:02}").as_bytes(), b"v").unwrap();
                    }
                });
            }
        });
        let syncs = store.syncs.load(Ordering::Relaxed);
        assert!(syncs >= 1, "sync mode must fsync");
        assert!(
            syncs < 200,
            "concurrent sync writers must share fsyncs (got {syncs})"
        );

        // Per-batch override on a non-sync database.
        let store2 = Arc::new(SlowStore::new(Duration::ZERO, Duration::ZERO));
        let db2 = Db::open(
            store2.clone(),
            DbOptions {
                wal: true,
                ..DbOptions::default()
            },
        )
        .unwrap();
        db2.put(b"/nosync", b"v").unwrap();
        assert_eq!(store2.syncs.load(Ordering::Relaxed), 0);
        let mut b = WriteBatch::new();
        b.put(b"/synced", b"v").sync(true);
        db2.write(b).unwrap();
        assert!(store2.syncs.load(Ordering::Relaxed) >= 1);
    }

    /// A record that reached the log before its fsync failed is in the
    /// log once: the failed committer sees the error, no later leader
    /// appends the frame again, and the next sync commit succeeds.
    #[test]
    fn failed_sync_does_not_log_twice() {
        let store = Arc::new(SlowStore::new(Duration::ZERO, Duration::ZERO));
        let db = Db::open(store.clone(), DbOptions { wal: true, ..DbOptions::default() }).unwrap();
        let synced = |key: &[u8]| {
            let mut b = WriteBatch::new();
            b.put(key, b"v").sync(true);
            db.write(b)
        };
        store.fail_syncs.store(1, Ordering::Relaxed);
        assert!(synced(b"/first").is_err(), "the committer that wanted the fsync gets its error");
        synced(b"/second").unwrap();
        assert_eq!(store.syncs.load(Ordering::Relaxed), 2);
        let seqs: Vec<u64> =
            replay(&store.read_logs().unwrap()).unwrap().iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, [1, 2], "each record logged exactly once, in order");
    }

    /// The conditional insert resolves existence through every level,
    /// tombstones included.
    #[test]
    fn put_if_absent_tracks_existence_through_levels() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/big", &[9u8; 2000]).unwrap();
        assert!(!db.put_if_absent(b"/big", b"x").unwrap());
        db.flush().unwrap();
        assert!(!db.put_if_absent(b"/big", b"x").unwrap(), "existence from a table");
        assert_eq!(db.get(b"/big").unwrap().unwrap().len(), 2000, "a refused insert writes nothing");
        assert!(db.put_if_absent(b"/absent", b"a").unwrap());
        db.delete(b"/big").unwrap();
        assert!(db.put_if_absent(b"/big", b"y").unwrap(), "memtable tombstone wins");
        db.delete(b"/big").unwrap();
        db.flush().unwrap();
        assert!(db.put_if_absent(b"/big", b"z").unwrap(), "table tombstone wins");
        // A key that only exists as stacked merge operands still exists.
        db.merge(b"/m", &3u64.to_le_bytes()).unwrap();
        assert!(!db.put_if_absent(b"/m", b"x").unwrap());
    }
}
