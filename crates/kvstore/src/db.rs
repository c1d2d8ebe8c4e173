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
//! * **Background flush**: a dedicated thread builds SSTables from
//!   immutable memtables (oldest first) and installs them in L0.
//! * **Background compaction**: a second thread merges L0+L1 into a
//!   fresh L1 run. Foreground writers are only *slowed* (then
//!   *stalled*) when L0 grows past configurable thresholds —
//!   RocksDB's `level0_slowdown/stop_writes_trigger`.
//! * **Reads** clone an [`Arc`] snapshot of
//!   `{memtable, imm, l0, l1}` (a *version*) and search entirely
//!   outside the version lock, so scans and point reads never contend
//!   with flushes or compactions.
//! * **Group commit**: concurrent writers appending to the WAL in the
//!   same window elect a leader that writes (and, with `sync`, fsyncs)
//!   all queued frames with one call.
//!
//! Versions are immutable: installing a flush or compaction result
//! builds a *new* version and swaps the pointer, so an in-flight read
//! keeps a consistent view (the removed imm and its new table never
//! both appear, and never both disappear).
//!
//! Merge operands that cannot be folded in the memtable are resolved
//! at **flush time** against the table levels, so SSTables only ever
//! contain `Put`/`Delete` entries. The single FIFO flusher guarantees
//! every source older than the memtable being flushed is already in
//! the table levels.
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
//! `threads` → `compaction_lock` → `manifest_lock` → `work` →
//! `version` → active memtable → frozen memtables → group-commit
//! state. Every lock is an [`OrderedMutex`]/[`OrderedRwLock`] carrying
//! its `gkfs_common::lock::rank::KV_*` rank: debug builds assert the
//! order at runtime, and `gkfs-lint` (GKL001) checks the nesting
//! statically. Freezing a memtable *demotes* its rank
//! (`KV_MEMTABLE` → `KV_MEMTABLE_FROZEN`) so readers may consult
//! frozen tables while holding the active one.

use crate::blobstore::{BlobStore, FsBlobStore, MemBlobStore};
use crate::memtable::{MemTable, Value};
use crate::merge::MergeOperator;
use crate::sstable::{Table, TableBuilder, Tag};
use crate::wal::{replay, WalRecord};
use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{GkfsError, Result};
use gkfs_common::lock::{rank, Condvar, OrderedMutex, OrderedRwLock};
use std::collections::BTreeMap;
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
    /// the compactor catch up.
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

impl std::fmt::Debug for DbOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbOptions")
            .field("memtable_bytes", &self.memtable_bytes)
            .field("l0_compaction_trigger", &self.l0_compaction_trigger)
            .field("l0_slowdown_threshold", &self.l0_slowdown_threshold)
            .field("l0_stall_threshold", &self.l0_stall_threshold)
            .field("max_imm_memtables", &self.max_imm_memtables)
            .field("wal", &self.wal)
            .field("sync", &self.sync)
            .field("merge_operator", &self.merge_operator.is_some())
            .finish()
    }
}

/// Operational counters, readable at any time.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Point inserts/overwrites served.
    pub puts: AtomicU64,
    /// Point lookups served.
    pub gets: AtomicU64,
    /// Deletions served.
    pub deletes: AtomicU64,
    /// Merge operands applied.
    pub merges: AtomicU64,
    /// Prefix/range scans served.
    pub scans: AtomicU64,
    /// Memtable flushes performed.
    pub flushes: AtomicU64,
    /// Full compactions performed.
    pub compactions: AtomicU64,
    /// Point lookups answered without touching a table thanks to a
    /// bloom-filter miss.
    pub bloom_skips: AtomicU64,
    /// Writer stall episodes (imm backlog or L0 at the stall
    /// threshold).
    pub stalls: AtomicU64,
    /// Writer slowdown episodes (L0 at the slowdown threshold).
    pub slowdowns: AtomicU64,
    /// Total time writers spent stalled, in microseconds.
    pub stall_micros: AtomicU64,
    /// Point lookups resolved from an immutable (frozen, not yet
    /// flushed) memtable.
    pub imm_hits: AtomicU64,
    /// Group-commit batches written (one `append_log`, at most one
    /// `sync_log` each).
    pub group_commits: AtomicU64,
    /// Total records covered by those batches; `records / batches` is
    /// the mean group size.
    pub group_commit_records: AtomicU64,
}

impl DbStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A group of mutations applied atomically: concurrent readers see
/// either none or all of them, and crash recovery replays all-or-none
/// (the batch is one WAL record). The RocksDB `WriteBatch` analogue —
/// GekkoFS-style metadata transactions (e.g. create + parent touch)
/// build on this.
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

    /// Queue an insert/overwrite.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.records.push(WalRecord::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        });
        self
    }

    /// Queue a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.records.push(WalRecord::Delete { key: key.to_vec() });
        self
    }

    /// Queue a merge operand.
    pub fn merge(&mut self, key: &[u8], operand: &[u8]) -> &mut Self {
        self.records.push(WalRecord::Merge {
            key: key.to_vec(),
            operand: operand.to_vec(),
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
        self.db.resolve(self.ver, self.mem.get(key).cloned(), key)
    }

    /// Does `key` exist? Resolved from memtable tags and the SSTable
    /// index alone — the value is never copied out.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        match self.mem.get(key) {
            Some(v) => Ok(!matches!(v, Value::Delete)),
            None => self.db.exists_below_mem(self.ver, key),
        }
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
/// `Arc` and search without any lock; installers build a new version
/// and swap the pointer.
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
    pending: Vec<u8>,
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
    fn new(last_seq: u64) -> GroupCommit {
        GroupCommit {
            state: OrderedMutex::new(rank::KV_GROUP_COMMIT, GcState {
                pending: Vec::new(),
                pending_records: 0,
                next_seq: last_seq + 1,
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
        let frame = rec.encode(seq);
        gc.pending.extend_from_slice(&frame);
        gc.pending_records += 1;
        seq
    }

    /// Wait until `seq` is in the log (and synced, when `sync`). The
    /// first waiter to find no leader active becomes the leader and
    /// writes every queued frame on behalf of all.
    fn commit(&self, seq: u64, sync: bool, store: &dyn BlobStore, stats: &DbStats) -> Result<()> {
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
            // Become the leader: take the whole queue, write it with
            // one append (and at most one fsync) off-lock.
            let buf = std::mem::take(&mut gc.pending);
            let nrec = std::mem::replace(&mut gc.pending_records, 0);
            let target = gc.next_seq - 1;
            let do_sync = gc.sync_wanted > gc.synced_seq;
            gc.leader_active = true;
            drop(gc);

            let mut res = Ok(());
            if !buf.is_empty() {
                res = store.append_log(&buf);
            }
            if res.is_ok() && do_sync {
                res = store.sync_log();
            }

            gc = self.state.lock();
            gc.leader_active = false;
            match &res {
                Ok(()) => {
                    if !buf.is_empty() {
                        gc.written_seq = gc.written_seq.max(target);
                        DbStats::bump(&stats.group_commits);
                        stats
                            .group_commit_records
                            .fetch_add(nrec, Ordering::Relaxed);
                    }
                    if do_sync {
                        gc.synced_seq = gc.written_seq;
                    }
                }
                Err(_) => {
                    // Put the frames back at the front so a later
                    // leader (or the rotation path) retries them in
                    // order; our caller sees the error.
                    let mut restored = buf;
                    restored.extend_from_slice(&gc.pending);
                    gc.pending = restored;
                    gc.pending_records += nrec;
                }
            }
            self.cv.notify_all();
            res?;
        }
    }

    /// Flush every queued frame into the active segment, sync it if
    /// any committer asked for durability it hasn't got yet, then seal
    /// the segment. Called by memtable rotation with the version write
    /// lock held (no enqueue can race — writers enqueue under the
    /// version *read* lock). Returns the sealed segment id and the
    /// highest sequence number it can contain.
    fn seal_and_rotate(&self, store: &dyn BlobStore) -> Result<(u64, u64)> {
        let mut gc = self.state.lock();
        while gc.leader_active {
            gc.wait(&self.cv);
        }
        let max_seq = gc.next_seq - 1;
        let res = seal_locked(&mut gc, store);
        self.cv.notify_all();
        res.map(|segment| (segment, max_seq))
    }
}

fn seal_locked(gc: &mut GcState, store: &dyn BlobStore) -> Result<u64> {
    if !gc.pending.is_empty() {
        let buf = std::mem::take(&mut gc.pending);
        let nrec = std::mem::replace(&mut gc.pending_records, 0);
        if let Err(e) = store.append_log(&buf) {
            gc.pending = buf;
            gc.pending_records = nrec;
            return Err(e);
        }
        gc.written_seq = gc.next_seq - 1;
    }
    if gc.sync_wanted > gc.synced_seq {
        store.sync_log()?;
        gc.synced_seq = gc.written_seq;
    }
    store.rotate_log()
}

/// Coordination state for the background threads.
#[derive(Default)]
struct WorkState {
    /// Background threads must exit.
    stop: bool,
    /// When stopping: finish all queued flushes first (clean
    /// shutdown). Without it, a stop is crash-like and the WAL covers
    /// the loss.
    drain: bool,
    /// The compactor should run a compaction even below the trigger.
    compact_requested: bool,
    /// First error a background thread hit; poisons foreground
    /// flush/stall paths so it surfaces instead of hanging them.
    bg_error: Option<GkfsError>,
}

struct DbInner {
    version: OrderedRwLock<Arc<Version>>,
    store: Arc<dyn BlobStore>,
    opts: DbOptions,
    next_id: AtomicU64,
    stats: DbStats,
    gc: GroupCommit,
    /// Highest sequence number resolved into an SSTable (mirrors the
    /// manifest); replay skips records at or below it.
    flushed_seq: AtomicU64,
    /// Serializes manifest writers (flush installs vs compaction
    /// installs).
    manifest_lock: OrderedMutex<()>,
    /// Serializes compactions (background vs explicit `compact()`).
    compaction_lock: OrderedMutex<()>,
    work: OrderedMutex<WorkState>,
    /// Wakes background threads (new imm, compaction request, stop).
    work_cv: Condvar,
    /// Wakes foreground threads waiting on background progress
    /// (stalls, `flush()`).
    done_cv: Condvar,
}

/// An embedded LSM key-value store, shared via `Arc`. Dropping the
/// last handle stops the background threads *without* draining
/// (crash-equivalent; the WAL covers acknowledged writes) — call
/// [`Db::shutdown`] for a clean drain.
pub struct Db {
    inner: Arc<DbInner>,
    threads: OrderedMutex<Vec<std::thread::JoinHandle<()>>>,
}

const MANIFEST: &str = "MANIFEST";

fn apply_replayed(
    mem: &mut MemTable,
    rec: WalRecord,
    merge_op: &Option<Arc<dyn MergeOperator>>,
) -> Result<()> {
    match rec {
        WalRecord::Put { key, value } => mem.put(&key, &value),
        WalRecord::Delete { key } => mem.delete(&key),
        WalRecord::Merge { key, operand } => {
            let op = merge_op.as_ref().ok_or_else(|| {
                GkfsError::InvalidArgument(
                    "WAL contains merges but no merge operator configured".into(),
                )
            })?;
            mem.merge(&key, &operand, op.as_ref());
        }
        WalRecord::Batch(inner) => {
            for r in inner {
                apply_replayed(mem, r, merge_op)?;
            }
        }
    }
    Ok(())
}

impl Db {
    /// Open a database over an arbitrary blob store, recovering any
    /// existing manifest and WAL, and start the background flush and
    /// compaction threads.
    pub fn open(store: Arc<dyn BlobStore>, opts: DbOptions) -> Result<Arc<Db>> {
        let mut l0: Vec<Arc<TableHandle>> = Vec::new();
        let mut l1: Vec<Arc<TableHandle>> = Vec::new();
        let mut max_id = 0u64;
        let mut flushed_seq = 0u64;

        // Recover table levels from the manifest, if present.
        if let Ok(blob) = store.get_blob(MANIFEST) {
            let mut d = Decoder::new(&blob);
            flushed_seq = d.u64()?;
            for level in [&mut l0, &mut l1] {
                let n = d.u32()?;
                for _ in 0..n {
                    let id = d.u64()?;
                    max_id = max_id.max(id);
                    let table = Table::open(store.get_blob(&table_name(id))?)?;
                    level.push(Arc::new(TableHandle { id, table }));
                }
            }
            d.finish()?;
        }

        // Replay the WAL into the memtable, skipping records already
        // resolved into a table (`seq <= flushed_seq`) — a crash
        // between manifest install and segment drop must not re-apply
        // non-idempotent merge operands.
        let mut mem = MemTable::new();
        let mut max_seq = flushed_seq;
        if opts.wal {
            let log = store.read_logs().unwrap_or_default();
            for (seq, rec) in replay(&log)? {
                max_seq = max_seq.max(seq);
                if seq <= flushed_seq {
                    continue;
                }
                apply_replayed(&mut mem, rec, &opts.merge_operator)?;
            }
        }

        let inner = Arc::new(DbInner {
            version: OrderedRwLock::new(rank::KV_VERSION, Arc::new(Version {
                mem: Arc::new(OrderedRwLock::new(rank::KV_MEMTABLE, mem)),
                imm: Vec::new(),
                l0,
                l1,
            })),
            store,
            opts,
            next_id: AtomicU64::new(max_id + 1),
            stats: DbStats::default(),
            gc: GroupCommit::new(max_seq),
            flushed_seq: AtomicU64::new(flushed_seq),
            manifest_lock: OrderedMutex::new(rank::KV_MANIFEST, ()),
            compaction_lock: OrderedMutex::new(rank::KV_COMPACTION, ()),
            work: OrderedMutex::new(rank::KV_WORK, WorkState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });

        let mut threads = Vec::with_capacity(2);
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("gkfs-kv-flush".into())
                    .spawn(move || flusher_loop(&inner))
                    .expect("spawn flush thread"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("gkfs-kv-compact".into())
                    .spawn(move || compactor_loop(&inner))
                    .expect("spawn compaction thread"),
            );
        }

        Ok(Arc::new(Db {
            inner,
            threads: OrderedMutex::new(rank::KV_THREADS, threads),
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

    /// Stats.
    pub fn stats(&self) -> &DbStats {
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
    /// other writers: existence is resolved under the writer lock, from
    /// memtable tags and the SSTable index alone (no value is copied).
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.inner.write_record_with(|view| {
            let absent = !view.contains(key)?;
            let rec = absent.then(|| WalRecord::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            });
            Ok((absent, rec, None))
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
        self.inner.merge_operator()?;
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
                self.inner.merge_operator()?;
            }
            let rec = (!batch.is_empty()).then_some(WalRecord::Batch(batch.records));
            Ok((out, rec, batch.sync))
        })
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    /// All live `(key, value)` pairs whose key starts with `prefix`,
    /// in key order. This powers the daemon's `readdir` prefix scan
    /// over the flat namespace.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner
            .scan_impl(prefix, None, &|k: &[u8]| k.starts_with(prefix))
    }

    /// All live `(key, value)` pairs with `start <= key < end`
    /// (`end = None` means unbounded), in key order.
    pub fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner
            .scan_impl(start, end, &|k: &[u8]| end.map(|e| k < e).unwrap_or(true))
    }

    /// Total number of live keys: a walk over every source that
    /// remembers keys, not values (a daemon answers its statistics RPC
    /// with this, on whichever handler thread is free — a copy of the
    /// store per call would sit in each of their allocator arenas).
    pub fn len(&self) -> Result<usize> {
        self.inner.count_live()
    }

    /// True when the store holds no live keys.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Rotate the active memtable and wait until every frozen memtable
    /// has been flushed to L0 (normally all automatic/background).
    pub fn flush(&self) -> Result<()> {
        self.inner.rotate(true)?;
        self.inner.wait_imm_drained()
    }

    /// Flush, then run a full compaction synchronously.
    pub fn compact(&self) -> Result<()> {
        self.flush()?;
        self.inner.compact_once()
    }

    /// Drain all background work and stop the worker threads: after
    /// this returns every accepted write is in an SSTable (or sealed
    /// WAL segment) and the manifest is current. Surfaces any error a
    /// background thread hit. Later writes fall back to inline
    /// flush/compaction.
    pub fn shutdown(&self) -> Result<()> {
        {
            let mut w = self.inner.work.lock();
            w.drain = true;
        }
        // Seal the active memtable so the flusher drains it too.
        self.inner.rotate(true)?;
        {
            let mut w = self.inner.work.lock();
            w.stop = true;
            self.inner.work_cv.notify_all();
            self.inner.done_cv.notify_all();
        }
        // Take the handles out first: joining while holding the
        // `threads` guard would block every other shutdown/drop racer
        // on the lock for the workers' whole runtime (GKL002).
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        // If the flusher bailed early (error), finish its work inline.
        self.inner.drain_imms_inline()?;
        let err = self.inner.work.lock().bg_error.take();
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Diagnostic snapshot of the level shape:
    /// `(memtable_keys, imm_memtables, l0_tables, l1_tables)`.
    pub fn level_shape(&self) -> (usize, usize, usize, usize) {
        let ver = self.inner.snapshot();
        let mem = ver.mem.read().len();
        (mem, ver.imm.len(), ver.l0.len(), ver.l1.len())
    }

    /// Human-readable one-call status dump — the RocksDB
    /// `GetProperty("rocksdb.stats")` analogue, used by operators and
    /// the daemon's diagnostics.
    pub fn stats_summary(&self) -> String {
        let (mem, imm, l0, l1) = self.level_shape();
        let s = &self.inner.stats;
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "levels: memtable={mem} keys, imm={imm} frozen, L0={l0} tables, L1={l1} tables\n\
             ops: puts={} gets={} deletes={} merges={} scans={}\n\
             maintenance: flushes={} compactions={} bloom_skips={} imm_hits={}\n\
             pressure: stalls={} slowdowns={} stall_micros={}\n\
             group_commit: batches={} records={}",
            ld(&s.puts),
            ld(&s.gets),
            ld(&s.deletes),
            ld(&s.merges),
            ld(&s.scans),
            ld(&s.flushes),
            ld(&s.compactions),
            ld(&s.bloom_skips),
            ld(&s.imm_hits),
            ld(&s.stalls),
            ld(&s.slowdowns),
            ld(&s.stall_micros),
            ld(&s.group_commits),
            ld(&s.group_commit_records),
        )
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // Crash-equivalent stop: no drain. Acknowledged writes survive
        // via the WAL (when enabled) exactly as they would a real
        // crash; `shutdown()` is the clean path.
        {
            let mut w = self.inner.work.lock();
            w.stop = true;
            self.inner.work_cv.notify_all();
            self.inner.done_cv.notify_all();
        }
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl DbInner {
    fn snapshot(&self) -> Arc<Version> {
        self.version.read().clone()
    }

    fn merge_operator(&self) -> Result<Arc<dyn MergeOperator>> {
        self.opts
            .merge_operator
            .clone()
            .ok_or_else(|| GkfsError::InvalidArgument("no merge operator configured".into()))
    }

    fn bg_stopped(&self) -> bool {
        self.work.lock().stop
    }

    fn check_bg_error(&self) -> Result<()> {
        match &self.work.lock().bg_error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn set_bg_error(&self, e: GkfsError) {
        let mut w = self.work.lock();
        if w.bg_error.is_none() {
            w.bg_error = Some(e);
        }
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

    fn apply_to_mem(&self, mem: &mut MemTable, rec: &WalRecord) -> Result<()> {
        match rec {
            WalRecord::Put { key, value } => {
                DbStats::bump(&self.stats.puts);
                mem.put(key, value);
            }
            WalRecord::Delete { key } => {
                DbStats::bump(&self.stats.deletes);
                mem.delete(key);
            }
            WalRecord::Merge { key, operand } => {
                DbStats::bump(&self.stats.merges);
                let op = self.merge_operator()?;
                mem.merge(key, operand, op.as_ref());
            }
            WalRecord::Batch(inner) => {
                for r in inner {
                    self.apply_to_mem(mem, r)?;
                }
            }
        }
        Ok(())
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
            self.apply_to_mem(&mut mem, &rec)?;
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

    /// Existence for a key not present in the active memtable: frozen
    /// memtables newest-first, then table tags (no value copies).
    fn exists_below_mem(&self, ver: &Version, key: &[u8]) -> Result<bool> {
        for imm in ver.imm.iter().rev() {
            if let Some(v) = imm.mem.read().get(key) {
                DbStats::bump(&self.stats.imm_hits);
                return Ok(!matches!(v, Value::Delete));
            }
        }
        self.tables_contain(ver, key)
    }

    /// Existence from SSTable tags alone: the bloom filter rules
    /// tables out, and [`Table::tag_of`] answers from the index entry
    /// without decoding the value.
    fn tables_contain(&self, ver: &Version, key: &[u8]) -> Result<bool> {
        for th in ver.l0.iter().rev().chain(ver.l1.iter()) {
            if !th.table.may_contain(key) {
                DbStats::bump(&self.stats.bloom_skips);
                continue;
            }
            match th.table.tag_of(key)? {
                Some(Tag::Put) => return Ok(true),
                Some(Tag::Delete) => return Ok(false),
                None => {}
            }
        }
        Ok(false)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let ver = self.snapshot();
        let top = ver.mem.read().get(key).cloned();
        self.resolve(&ver, top, key)
    }

    /// Point lookup below the active memtable, whose entry for `key`
    /// (`top`) the caller read under whichever guard it holds.
    fn resolve(&self, ver: &Version, top: Option<Value>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        DbStats::bump(&self.stats.gets);

        // Walk newest to oldest, collecting merge-operand runs until a
        // terminal state (Put / Delete / absent-everywhere) is found.
        let mut runs: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut terminal: Option<Option<Vec<u8>>> = None;

        match top {
            Some(Value::Put(v)) => terminal = Some(Some(v)),
            Some(Value::Delete) => terminal = Some(None),
            Some(Value::Merge(ops)) => runs.push(ops),
            None => {}
        }
        if terminal.is_none() {
            for imm in ver.imm.iter().rev() {
                match imm.mem.read().get(key) {
                    Some(Value::Put(v)) => {
                        DbStats::bump(&self.stats.imm_hits);
                        terminal = Some(Some(v.clone()));
                        break;
                    }
                    Some(Value::Delete) => {
                        DbStats::bump(&self.stats.imm_hits);
                        terminal = Some(None);
                        break;
                    }
                    Some(Value::Merge(ops)) => {
                        DbStats::bump(&self.stats.imm_hits);
                        runs.push(ops.clone());
                    }
                    None => {}
                }
            }
        }
        let base = match terminal {
            Some(t) => t,
            None => self.get_from_tables(ver, key)?,
        };
        if runs.is_empty() {
            return Ok(base);
        }
        // Runs were collected newest-source-first; the operator wants
        // operands oldest-first.
        let op = self.merge_operator()?;
        let operands: Vec<Vec<u8>> = runs.into_iter().rev().flatten().collect();
        Ok(Some(op.full_merge(key, base.as_deref(), &operands)))
    }

    fn get_from_tables(&self, ver: &Version, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // L0 newest first — later flushes shadow earlier ones.
        for th in ver.l0.iter().rev().chain(ver.l1.iter()) {
            if !th.table.may_contain(key) {
                DbStats::bump(&self.stats.bloom_skips);
                continue;
            }
            match th.table.get(key)? {
                Some((Tag::Put, v)) => return Ok(Some(v)),
                Some((Tag::Delete, _)) => return Ok(None),
                None => {}
            }
        }
        Ok(None)
    }

    /// Shared scan machinery: accumulate oldest source to newest (L1,
    /// L0, frozen memtables, active memtable) so newer entries shadow
    /// older ones, over one immutable snapshot.
    fn scan_impl(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        keep: &dyn Fn(&[u8]) -> bool,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        DbStats::bump(&self.stats.scans);
        let ver = self.snapshot();
        let op = self.opts.merge_operator.clone();

        let mut acc: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for th in ver.l1.iter().chain(ver.l0.iter()) {
            for entry in th.table.iter_from(start) {
                let (tag, k, v) = entry?;
                if !keep(&k) {
                    break;
                }
                match tag {
                    Tag::Put => acc.insert(k, Some(v)),
                    Tag::Delete => acc.insert(k, None),
                };
            }
        }
        let mems: Vec<SharedMem> = ver
            .imm
            .iter()
            .map(|i| i.mem.clone())
            .chain(std::iter::once(ver.mem.clone()))
            .collect();
        for shared in &mems {
            let mem = shared.read();
            for (k, v) in mem.range(start, end) {
                if !keep(k) {
                    break;
                }
                match v {
                    Value::Put(val) => {
                        acc.insert(k.to_vec(), Some(val.clone()));
                    }
                    Value::Delete => {
                        acc.insert(k.to_vec(), None);
                    }
                    Value::Merge(ops) => {
                        let base = acc.get(k).cloned().flatten();
                        let op = op.as_ref().ok_or_else(|| {
                            GkfsError::InvalidArgument("no merge operator configured".into())
                        })?;
                        acc.insert(k.to_vec(), Some(op.full_merge(k, base.as_deref(), ops)));
                    }
                }
            }
        }
        Ok(acc
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// How many keys are live in one snapshot: the walk of
    /// [`DbInner::scan_impl`] — oldest source to newest, newer shadows
    /// older — keeping per key only whether its newest entry is a
    /// tombstone. A pending merge makes its key live whatever the base.
    fn count_live(&self) -> Result<usize> {
        DbStats::bump(&self.stats.scans);
        let ver = self.snapshot();
        let mut live: BTreeMap<Vec<u8>, bool> = BTreeMap::new();
        for th in ver.l1.iter().chain(ver.l0.iter()) {
            for entry in th.table.iter() {
                let (tag, k, _) = entry?;
                live.insert(k, matches!(tag, Tag::Put));
            }
        }
        for shared in ver.imm.iter().map(|i| &i.mem).chain(std::iter::once(&ver.mem)) {
            for (k, v) in shared.read().iter() {
                live.insert(k.to_vec(), !matches!(v, Value::Delete));
            }
        }
        Ok(live.values().filter(|l| **l).count())
    }

    /// L0 backpressure, applied before any write lock is taken: slow
    /// writers down as L0 grows, stop them at the stall threshold
    /// until the background compactor catches up.
    fn write_pressure(&self) -> Result<()> {
        let l0 = self.snapshot().l0.len();
        if l0 >= self.opts.l0_stall_threshold {
            DbStats::bump(&self.stats.stalls);
            let start = Instant::now();
            loop {
                self.request_compaction();
                if self.bg_stopped() {
                    self.compact_once()?;
                    break;
                }
                self.check_bg_error()?;
                {
                    let mut w = self.work.lock();
                    if !w.stop {
                        w.wait_for(&self.done_cv, Duration::from_millis(10));
                    }
                }
                if self.snapshot().l0.len() < self.opts.l0_stall_threshold {
                    break;
                }
            }
            self.stats
                .stall_micros
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        } else if l0 >= self.opts.l0_slowdown_threshold {
            DbStats::bump(&self.stats.slowdowns);
            self.request_compaction();
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Swap the active memtable for a fresh one, freezing the old one
    /// onto the immutable list for the background flusher. Writers
    /// block only for this pointer swap — never for SSTable I/O.
    fn rotate(&self, force: bool) -> Result<()> {
        // Backpressure: bounded frozen-memtable backlog.
        let mut stall_start: Option<Instant> = None;
        loop {
            if self.version.read().imm.len() < self.opts.max_imm_memtables {
                break;
            }
            if self.bg_stopped() {
                self.drain_imms_inline()?;
                break;
            }
            self.check_bg_error()?;
            if stall_start.is_none() {
                stall_start = Some(Instant::now());
                DbStats::bump(&self.stats.stalls);
            }
            let mut w = self.work.lock();
            if !w.stop {
                self.work_cv.notify_all(); // flusher may be idle-waiting
                w.wait_for(&self.done_cv, Duration::from_millis(10));
            }
        }
        if let Some(t) = stall_start {
            self.stats
                .stall_micros
                .fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
        }

        {
            let mut ver = self.version.write();
            let cur = Arc::clone(&*ver);
            {
                let mem = cur.mem.read();
                if mem.is_empty() || (!force && mem.approx_bytes() < self.opts.memtable_bytes) {
                    return Ok(()); // raced with another rotator
                }
            }
            // Seal the WAL segment in lock-step: it now holds exactly
            // this memtable's records (plus older, already-flushed
            // segments' worth of nothing — those were dropped).
            let (segment, max_seq) = if self.opts.wal {
                self.gc.seal_and_rotate(self.store.as_ref())?
            } else {
                (0, 0)
            };
            let mut imms = cur.imm.clone();
            // Freeze: demote the memtable's rank so a reader holding
            // the new active table (KV_MEMTABLE) may still consult it.
            cur.mem.demote(rank::KV_MEMTABLE_FROZEN);
            imms.push(Arc::new(ImmMem {
                mem: cur.mem.clone(),
                wal_segment: segment,
                max_seq,
            }));
            *ver = Arc::new(Version {
                mem: Arc::new(OrderedRwLock::new(rank::KV_MEMTABLE, MemTable::new())),
                imm: imms,
                l0: cur.l0.clone(),
                l1: cur.l1.clone(),
            });
        }
        {
            let w = self.work.lock();
            if !w.stop {
                self.work_cv.notify_all();
            }
        }
        if self.bg_stopped() {
            // Background threads are gone: flush inline instead.
            self.drain_imms_inline()?;
        }
        Ok(())
    }

    /// Build the oldest immutable memtable's SSTable and install it in
    /// L0. All I/O happens outside the version lock; the write lock is
    /// held only for the pointer swap that atomically retires the imm
    /// and publishes its table.
    fn flush_imm(&self, imm: &Arc<ImmMem>) -> Result<()> {
        let base = self.snapshot();
        let mut builder;
        {
            let mem = imm.mem.read();
            builder = TableBuilder::new(mem.len());
            for (k, v) in mem.iter() {
                match v {
                    Value::Put(val) => builder.add(Tag::Put, k, val),
                    Value::Delete => builder.add(Tag::Delete, k, b""),
                    Value::Merge(ops) => {
                        // Resolve against the table levels so tables
                        // never contain merge records. The FIFO flusher
                        // guarantees every source older than this
                        // memtable is already in `base`'s L0/L1.
                        let b = self.get_from_tables(&base, k)?;
                        let op = self.merge_operator()?;
                        builder.add(Tag::Put, k, &op.full_merge(k, b.as_deref(), ops));
                    }
                }
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let blob = builder.finish();
        self.store.put_blob(&table_name(id), &blob)?;
        let table = Table::open(Arc::new(blob))?;
        let handle = Arc::new(TableHandle { id, table });

        let mguard = self.manifest_lock.lock();
        let install = {
            let mut ver = self.version.write();
            let cur = Arc::clone(&*ver);
            if cur.imm.iter().any(|i| Arc::ptr_eq(i, imm)) {
                let imms: Vec<Arc<ImmMem>> = cur
                    .imm
                    .iter()
                    .filter(|i| !Arc::ptr_eq(i, imm))
                    .cloned()
                    .collect();
                let mut l0 = cur.l0.clone();
                l0.push(handle);
                let l0_ids: Vec<u64> = l0.iter().map(|t| t.id).collect();
                let l1_ids: Vec<u64> = cur.l1.iter().map(|t| t.id).collect();
                *ver = Arc::new(Version {
                    mem: cur.mem.clone(),
                    imm: imms,
                    l0,
                    l1: cur.l1.clone(),
                });
                Some((l0_ids, l1_ids))
            } else {
                None
            }
        };
        match install {
            Some((l0_ids, l1_ids)) => {
                DbStats::bump(&self.stats.flushes);
                self.flushed_seq.fetch_max(imm.max_seq, Ordering::SeqCst);
                self.write_manifest(&l0_ids, &l1_ids)?;
                drop(mguard);
                if self.opts.wal {
                    // The segment's records are all in the table now.
                    self.store.drop_logs_through(imm.wal_segment)?;
                }
                Ok(())
            }
            None => {
                // Someone else (the inline shutdown drain) flushed this
                // imm while we were building: discard the duplicate.
                drop(mguard);
                self.store.delete_blob(&table_name(id))?;
                Ok(())
            }
        }
    }

    /// One full L0+L1 → L1 compaction. `compaction_lock` serializes
    /// compactions; the version write lock is held only for the final
    /// pointer swap, so foreground traffic continues throughout.
    fn compact_once(&self) -> Result<()> {
        let _c = self.compaction_lock.lock();
        let base = self.snapshot();
        if base.l0.is_empty() && base.l1.len() <= 1 {
            return Ok(());
        }
        DbStats::bump(&self.stats.compactions);

        // Newest-wins accumulation, oldest sources first.
        let mut acc: BTreeMap<Vec<u8>, (Tag, Vec<u8>)> = BTreeMap::new();
        for th in base.l1.iter().chain(base.l0.iter()) {
            for entry in th.table.iter() {
                let (tag, k, v) = entry?;
                acc.insert(k, (tag, v));
            }
        }

        // Emit live entries into size-bounded output tables. This is a
        // *full* compaction over a snapshot of both levels, so
        // tombstones drop out: anything newer lives in memtables or in
        // tables flushed after `base` was taken, and those are kept by
        // the reconciliation below.
        const TARGET_TABLE_BYTES: usize = 8 * 1024 * 1024;
        let mut new_l1: Vec<Arc<TableHandle>> = Vec::new();
        let mut builder = TableBuilder::new(acc.len());
        let mut bytes = 0usize;
        let mut live = 0usize;
        for (k, (tag, v)) in &acc {
            if *tag == Tag::Delete {
                continue; // full compaction: tombstones drop out
            }
            builder.add(Tag::Put, k, v);
            bytes += k.len() + v.len();
            live += 1;
            if bytes >= TARGET_TABLE_BYTES {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let blob =
                    std::mem::replace(&mut builder, TableBuilder::new(acc.len() - live)).finish();
                self.store.put_blob(&table_name(id), &blob)?;
                new_l1.push(Arc::new(TableHandle {
                    id,
                    table: Table::open(Arc::new(blob))?,
                }));
                bytes = 0;
            }
        }
        if !builder.is_empty() {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let blob = builder.finish();
            self.store.put_blob(&table_name(id), &blob)?;
            new_l1.push(Arc::new(TableHandle {
                id,
                table: Table::open(Arc::new(blob))?,
            }));
        }

        let input_ids: std::collections::HashSet<u64> =
            base.l0.iter().chain(base.l1.iter()).map(|t| t.id).collect();

        let mguard = self.manifest_lock.lock();
        let (l0_ids, l1_ids) = {
            let mut ver = self.version.write();
            let cur = Arc::clone(&*ver);
            // Keep L0 tables flushed while we were compacting — they
            // are strictly newer than every input.
            let l0: Vec<Arc<TableHandle>> = cur
                .l0
                .iter()
                .filter(|t| !input_ids.contains(&t.id))
                .cloned()
                .collect();
            let l0_ids: Vec<u64> = l0.iter().map(|t| t.id).collect();
            let l1_ids: Vec<u64> = new_l1.iter().map(|t| t.id).collect();
            *ver = Arc::new(Version {
                mem: cur.mem.clone(),
                imm: cur.imm.clone(),
                l0,
                l1: new_l1.clone(),
            });
            (l0_ids, l1_ids)
        };
        self.write_manifest(&l0_ids, &l1_ids)?;
        drop(mguard);
        // Safe even with old-snapshot readers alive: `Table` keeps the
        // blob bytes in memory via `Arc`.
        for id in input_ids {
            self.store.delete_blob(&table_name(id))?;
        }
        self.notify_done();
        Ok(())
    }

    fn drain_imms_inline(&self) -> Result<()> {
        // The version read guard must not outlive this statement: a
        // `while let` header temporary would keep it alive across
        // `flush_imm`, which re-acquires `version` (read, then write
        // for the install) — a same-thread read→write self-deadlock.
        // The debug-build rank checker flags exactly this shape.
        loop {
            let imm = self.version.read().imm.first().cloned();
            match imm {
                Some(imm) => self.flush_imm(&imm)?,
                None => return Ok(()),
            }
        }
    }

    fn wait_imm_drained(&self) -> Result<()> {
        loop {
            self.check_bg_error()?;
            if self.version.read().imm.is_empty() {
                return Ok(());
            }
            if self.bg_stopped() {
                return self.drain_imms_inline();
            }
            let mut w = self.work.lock();
            if !w.stop && !self.version.read().imm.is_empty() {
                self.work_cv.notify_all();
                w.wait_for(&self.done_cv, Duration::from_millis(50));
            }
        }
    }

    /// Write the manifest: `flushed_seq` watermark + table ids per
    /// level. Callers hold `manifest_lock`, so watermark and table
    /// list are mutually consistent.
    fn write_manifest(&self, l0: &[u64], l1: &[u64]) -> Result<()> {
        let mut e = Encoder::new();
        e.u64(self.flushed_seq.load(Ordering::SeqCst));
        e.u32(l0.len() as u32);
        for id in l0 {
            e.u64(*id);
        }
        e.u32(l1.len() as u32);
        for id in l1 {
            e.u64(*id);
        }
        self.store.put_blob(MANIFEST, e.as_slice())
    }
}

/// Background flush thread: retire frozen memtables oldest-first.
fn flusher_loop(inner: &DbInner) {
    loop {
        let (stop, drain) = {
            let w = inner.work.lock();
            (w.stop, w.drain)
        };
        let imm = inner.version.read().imm.first().cloned();
        match imm {
            Some(imm) => {
                if stop && !drain {
                    return; // crash-style stop: the WAL covers the rest
                }
                match inner.flush_imm(&imm) {
                    Ok(()) => {
                        inner.notify_done();
                        if inner.version.read().l0.len() >= inner.opts.l0_compaction_trigger {
                            inner.request_compaction();
                        }
                    }
                    Err(e) => {
                        inner.set_bg_error(e);
                        inner.notify_done();
                        if stop {
                            return; // don't spin during shutdown
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            None => {
                let mut w = inner.work.lock();
                if w.stop {
                    return;
                }
                // Re-check under the lock: rotation notifies while
                // holding it, so a new imm cannot slip past us.
                if inner.version.read().imm.is_empty() {
                    w.wait_for(&inner.work_cv, Duration::from_millis(100));
                }
            }
        }
    }
}

/// Background compaction thread: runs when requested (L0 trigger or
/// explicit) and keeps L0 from growing unboundedly.
fn compactor_loop(inner: &DbInner) {
    loop {
        let requested = {
            let mut w = inner.work.lock();
            if w.stop {
                return;
            }
            if !w.compact_requested {
                w.wait_for(&inner.work_cv, Duration::from_millis(100));
            }
            if w.stop {
                return;
            }
            std::mem::take(&mut w.compact_requested)
        };
        let need =
            requested || inner.version.read().l0.len() >= inner.opts.l0_compaction_trigger;
        if need {
            if let Err(e) = inner.compact_once() {
                inner.set_bg_error(e);
                inner.notify_done();
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn table_name(id: u64) -> String {
    format!("sst-{id:012}.sst")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{Add64MergeOperator, Max64MergeOperator};

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
        assert_eq!(db.stats().puts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scan_range_bounds() {
        let db = Db::open_memory(small_opts()).unwrap();
        for i in 0..50 {
            db.put(format!("/r/{i:02}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        db.delete(b"/r/25").unwrap(); // tombstone inside the range
        let hits = db.scan_range(b"/r/20", Some(b"/r/30")).unwrap();
        let keys: Vec<String> = hits
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys.len(), 9, "20..30 minus the deleted 25: {keys:?}");
        assert_eq!(keys.first().unwrap(), "/r/20");
        assert_eq!(keys.last().unwrap(), "/r/29");
        // Unbounded end.
        assert_eq!(db.scan_range(b"/r/45", None).unwrap().len(), 5);
        // Empty range.
        assert!(db.scan_range(b"/zzz", None).unwrap().is_empty());
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
    fn stats_summary_mentions_activity() {
        let db = Db::open_memory(small_opts()).unwrap();
        for i in 0..100 {
            db.put(format!("/s{i}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        let _ = db.get(b"/s5").unwrap();
        let dump = db.stats_summary();
        assert!(dump.contains("puts=100"), "{dump}");
        assert!(dump.contains("gets=1"), "{dump}");
        assert!(dump.contains("flushes="), "{dump}");
        assert!(dump.contains("L0="), "{dump}");
        assert!(dump.contains("stalls="), "{dump}");
        assert!(dump.contains("group_commit"), "{dump}");
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
            db.stats().bloom_skips.load(Ordering::Relaxed) > 150,
            "bloom filters should have skipped most absent lookups"
        );
    }

    /// Blob store wrapper that slows down chosen operations and counts
    /// log calls — lets tests hold a background flush "on disk" while
    /// asserting foreground behavior.
    struct SlowStore {
        inner: MemBlobStore,
        table_delay: Duration,
        log_delay: Duration,
        syncs: AtomicU64,
    }

    impl SlowStore {
        fn new(table_delay: Duration, log_delay: Duration) -> SlowStore {
            SlowStore {
                inner: MemBlobStore::new(),
                table_delay,
                log_delay,
                syncs: AtomicU64::new(0),
            }
        }
    }

    impl BlobStore for SlowStore {
        fn put_blob(&self, name: &str, data: &[u8]) -> Result<()> {
            if name.starts_with("sst-") && !self.table_delay.is_zero() {
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
            db.stats().imm_hits.load(Ordering::Relaxed) > 0,
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
        db.flush().unwrap();
        let s = db.stats();
        assert!(
            s.stalls.load(Ordering::Relaxed) + s.slowdowns.load(Ordering::Relaxed) > 0,
            "tiny memtable + slow store must trip backpressure"
        );
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
    /// locks (and gkfs-lint's temporary-scope model) exist to catch.
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
        let commits = db.stats().group_commits.load(Ordering::Relaxed);
        let records = db.stats().group_commit_records.load(Ordering::Relaxed);
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

    /// The conditional insert resolves existence through every level,
    /// tombstones included, from tags alone.
    #[test]
    fn put_if_absent_tracks_existence_through_levels() {
        let db = Db::open_memory(small_opts()).unwrap();
        db.put(b"/big", &[9u8; 2000]).unwrap();
        assert!(!db.put_if_absent(b"/big", b"x").unwrap());
        db.flush().unwrap();
        assert!(!db.put_if_absent(b"/big", b"x").unwrap(), "existence from table tags");
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
