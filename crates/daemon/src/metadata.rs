//! The metadata backend: GekkoFS' flat namespace over the KV store.
//!
//! Every file-system object is one KV pair keyed by its absolute path.
//! Directory entries are *objects*, not directory blocks (paper §II:
//! *"replaces directory entries by objects, stored within a strongly
//! consistent key-value store"*); `readdir` is a prefix scan.
//!
//! Size updates from writes use a **merge operator** instead of
//! read-modify-write: the operand carries `(candidate_size, mtime)`
//! and folding takes the maximum of sizes. This is the mechanism the
//! paper's shared-file experiment exercises (§IV-B — the daemon
//! "maintains the shared file's metadata whose size needs to be
//! constantly updated").

use gkfs_common::path as gpath;
use gkfs_common::types::Dirent;
use gkfs_common::wire::Wire;
use gkfs_common::{GkfsError, Metadata, Result};
use gkfs_kvstore::{Db, DbOptions, MergeOperator, WriteBatch};
use gkfs_rpc::proto::{MetaOp, MetaVerdict};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Default `readdir` page size when the client asks for the daemon
/// default (`max_entries == 0`): large enough that ordinary
/// directories fit one page, small enough that a millions-of-entries
/// directory never materializes one unbounded reply frame.
pub const READDIR_DEFAULT_PAGE: usize = 4096;

/// Merge operator over encoded [`Metadata`] values. Operands are
/// `(candidate_size: u64, mtime_ns: u64)` pairs; folding keeps the
/// maximum size and latest mtime. **A size update never creates an
/// entry**: against a missing base the fold comes to nothing, which the
/// store reads as absent. So a size update that lands after a remove —
/// a remote client's late update, or this client's own write racing its
/// unlink — leaves the path removed; one that raced *ahead* of the
/// remove is taken away with the entry. An entry is born only by a
/// create (`step`) or a replica install (`install_replica`).
#[derive(Debug, Default)]
pub struct MetaSizeMergeOperator;

/// Encode a size-update operand.
pub fn encode_size_operand(size: u64, mtime_ns: u64) -> Vec<u8> {
    (size, mtime_ns).encode()
}

impl MergeOperator for MetaSizeMergeOperator {
    fn full_merge(&self, _key: &[u8], base: Option<&[u8]>, operands: &[Vec<u8>]) -> Option<Vec<u8>> {
        let mut meta = Metadata::decode(base?).unwrap_or_else(|_| Metadata::new_file(0));
        for op in operands {
            if let Ok((size, mtime)) = <(u64, u64)>::decode(op) {
                meta.size = meta.size.max(size);
                meta.mtime_ns = meta.mtime_ns.max(mtime);
            }
        }
        Some(meta.encode())
    }
}

/// The meaning of a metadata op, stated once: given the entry `op`
/// targets as it stands (`None` = absent), the verdict its caller gets
/// and — when the op changes the entry — the entry's next state
/// (`Some(None)` = removed). Pure: the caller reads `current` and
/// stages the mutation.
fn step(
    current: Option<Metadata>,
    op: &MetaOp,
) -> (MetaVerdict, Option<Option<Metadata>>) {
    match (op, current) {
        (MetaOp::Create(r), None) => (Ok(None), Some(Some(r.metadata()))),
        (MetaOp::Create(r), Some(_)) if r.exclusive => (Err(GkfsError::Exists), None),
        // Open-with-`O_CREAT` of an existing entry: success, untouched.
        (MetaOp::Create(_), Some(_)) => (Ok(None), None),
        (_, None) => (Err(GkfsError::NotFound), None),
        (MetaOp::Stat(_), Some(m)) => (Ok(Some(m)), None),
        (MetaOp::Unlink(_) | MetaOp::TruncateMeta(_), Some(m)) if m.is_dir() => {
            (Err(GkfsError::IsDirectory), None)
        }
        (MetaOp::Rmdir(_), Some(m)) if !m.is_dir() => (Err(GkfsError::NotDirectory), None),
        (MetaOp::Unlink(_) | MetaOp::Rmdir(_), Some(m)) => (Ok(Some(m)), Some(None)),
        (MetaOp::TruncateMeta(r), Some(mut m)) => {
            m.size = r.new_size;
            m.mtime_ns = r.mtime_ns;
            (Ok(None), Some(Some(m)))
        }
    }
}

/// Metadata operations executed by the daemon on behalf of clients.
pub struct MetadataBackend {
    db: Arc<Db>,
    /// The store appends every commit to a write-ahead log.
    logged: bool,
    /// Entries held: one walk at open, then every committed birth and
    /// death. Signed, because two frames' counts land after their commits
    /// in either order, so a death may be counted before its birth.
    entries: AtomicI64,
}

impl MetadataBackend {
    /// Build over a fresh in-memory KV store.
    pub fn open_memory() -> Result<MetadataBackend> {
        let opts = DbOptions {
            merge_operator: Some(Arc::new(MetaSizeMergeOperator)),
            ..DbOptions::default()
        };
        Self::over(Db::open_memory(opts)?, false)
    }

    /// Build over a KV store persisted under `dir`, with WAL as asked.
    pub fn open_dir(dir: impl Into<std::path::PathBuf>, wal: bool) -> Result<MetadataBackend> {
        let opts = DbOptions {
            merge_operator: Some(Arc::new(MetaSizeMergeOperator)),
            wal,
            ..DbOptions::default()
        };
        Self::over(Db::open_dir(dir, opts)?, wal)
    }

    /// Serve `db`, counting its entries once.
    fn over(db: Arc<Db>, logged: bool) -> Result<MetadataBackend> {
        let entries = AtomicI64::new(i64::try_from(db.len()?).unwrap_or(i64::MAX));
        Ok(MetadataBackend {
            db,
            logged,
            entries,
        })
    }

    /// Whether a commit appends to a write-ahead log — and so may wait
    /// on the device — before it is acknowledged.
    pub fn logged(&self) -> bool {
        self.logged
    }

    /// Underlying store (stats, tests).
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// Orderly shutdown: drain queued background flushes/compactions,
    /// stop the store's worker threads, and surface any deferred
    /// background error. Dropping without this is crash-equivalent
    /// (recovery then runs from manifest + WAL).
    pub fn shutdown(&self) -> Result<()> {
        self.db.shutdown()
    }

    /// Merge a size candidate into a file's metadata (read-free).
    pub fn update_size(&self, path: &str, size: u64, mtime_ns: u64) -> Result<()> {
        self.db
            .merge(path.as_bytes(), &encode_size_operand(size, mtime_ns))
    }

    /// One page of `dir`'s direct children: at most `max_entries`
    /// (`0` = [`READDIR_DEFAULT_PAGE`]) whose names sort strictly
    /// after `cursor` (empty = from the start). Returns the entries
    /// plus the next cursor — empty when the scan is complete — so a
    /// huge directory is shipped as bounded reply frames instead of
    /// one unbounded allocation. The walk starts at the cursor and
    /// stops at the first child past the page, so a page costs its own
    /// entries (plus the nested ones between them), not the directory.
    pub fn readdir_page(
        &self,
        dir: &str,
        cursor: &str,
        max_entries: usize,
    ) -> Result<(Vec<Dirent>, String)> {
        let max = if max_entries == 0 {
            READDIR_DEFAULT_PAGE
        } else {
            max_entries
        };
        let prefix = gpath::dir_prefix(dir);
        let mut out: Vec<Dirent> = Vec::new();
        let mut next = String::new();
        // The walk yields keys in lexicographic order, and every direct
        // child shares the same prefix — so child *names* arrive sorted,
        // which is what makes a name a valid cursor and `prefix + cursor`
        // the key to resume from.
        let from = format!("{prefix}{cursor}");
        self.db.scan_prefix_with(prefix.as_bytes(), from.as_bytes(), |k, v| {
            let child = std::str::from_utf8(k)
                .map_err(|e| GkfsError::Corruption(format!("non-utf8 key: {e}")))?;
            if !gpath::is_direct_child(dir, child) {
                return Ok(true);
            }
            let name = gpath::name(child);
            if !cursor.is_empty() && name <= cursor {
                return Ok(true);
            }
            if out.len() == max {
                next = out.last().map(|d| d.name.clone()).unwrap_or_default();
                return Ok(false);
            }
            let meta = Metadata::decode(v)?;
            out.push(Dirent {
                name: name.to_string(),
                kind: meta.kind,
                size: meta.size,
            });
            Ok(true)
        })?;
        Ok((out, next))
    }

    /// Run `ops` in order through [`step`], each seeing its frame
    /// predecessors through a frame-local overlay, reading entries the
    /// frame has not touched through `get`. Returns the per-op verdicts,
    /// every staged mutation as one [`WriteBatch`], and the entries the
    /// batch adds: its births (an entry over `None`) less its deaths
    /// (`None` over an entry).
    ///
    /// Scratch is sized to the frame: the batch and the overlay hold
    /// one slot per mutating op, and a frame of one or one that writes
    /// nothing has no predecessor to see, so it builds no overlay. Each
    /// staged key and record is allocated once and moves on into the
    /// memtable.
    fn interpret(
        ops: &[MetaOp],
        get: impl Fn(&[u8]) -> Result<Option<Vec<u8>>>,
    ) -> Result<(Vec<MetaVerdict>, WriteBatch, i64)> {
        let writes = ops.iter().filter(|op| op.is_write()).count();
        let mut overlay: Option<HashMap<&str, Option<Metadata>>> =
            (ops.len() > 1 && writes > 0).then(|| HashMap::with_capacity(writes));
        let mut batch = WriteBatch::with_capacity(writes);
        let mut verdicts = Vec::with_capacity(ops.len());
        let mut born = 0;
        for op in ops {
            let path = op.path();
            let current = match overlay.as_ref().and_then(|o| o.get(path)) {
                Some(seen) => seen.clone(),
                None => get(path.as_bytes())?.map(|v| Metadata::decode(&v)).transpose()?,
            };
            let was = current.is_some();
            let (verdict, next) = step(current, op);
            if let Some(next) = next {
                born += i64::from(next.is_some()) - i64::from(was);
                match &next {
                    Some(meta) => batch.put(path.as_bytes(), meta.encode()),
                    None => batch.delete(path.as_bytes()),
                };
                if let Some(overlay) = &mut overlay {
                    overlay.insert(path, next);
                }
            }
            verdicts.push(verdict);
        }
        Ok((verdicts, batch, born))
    }

    /// Apply a frame of metadata ops as one group — the only way an
    /// entry is created, read, removed or truncated, for a `BatchMeta`
    /// frame and (as a frame of one, [`MetadataBackend::apply_one`])
    /// for every unary row alike. Returns the verdicts and whether
    /// anything was committed.
    ///
    /// A frame holding a mutating op is interpreted **inside** the KV
    /// store's writer lock ([`Db::write_with`]): what each op reads
    /// cannot change before the frame's [`WriteBatch`] — one memtable
    /// apply, one WAL record riding group commit, one fsync — lands, so
    /// an exclusive create has exactly one winner however its rivals
    /// arrive. A stat-only frame decides nothing, so it reads a
    /// lock-free snapshot and never queues behind writers.
    ///
    /// Per-op failures (`Exists`, `NotFound`, `IsDirectory`, …) are
    /// the op's own verdict and never poison frame-mates; only
    /// infrastructure errors (KV store I/O) fail the whole call. The
    /// entries the frame made or removed are counted once it committed.
    fn run(&self, ops: &[MetaOp]) -> Result<(Vec<MetaVerdict>, bool)> {
        if !ops.iter().any(MetaOp::is_write) {
            return Ok((Self::interpret(ops, |k| self.db.get(k))?.0, false));
        }
        let (verdicts, committed, born) = self.db.write_with(|view| {
            let (verdicts, batch, born) = Self::interpret(ops, |k| view.get(k))?;
            Ok(((verdicts, !batch.is_empty(), born), batch))
        })?;
        self.entries.fetch_add(born, Ordering::Relaxed);
        Ok((verdicts, committed))
    }

    /// One `BatchMeta` frame: `MetadataBackend::run` plus the bulk
    /// plane's counters, kept in the store's block.
    pub fn apply(&self, ops: &[MetaOp]) -> Result<Vec<MetaVerdict>> {
        let (verdicts, committed) = self.run(ops)?;
        let c = self.db.stats();
        c.meta_batches.fetch_add(1, Ordering::Relaxed);
        c.meta_batch_ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
        c.meta_group_applies.fetch_add(committed as u64, Ordering::Relaxed);
        Ok(verdicts)
    }

    /// A unary row: a frame of one, its verdict unwrapped.
    pub fn apply_one(&self, op: MetaOp) -> MetaVerdict {
        let (verdicts, _) = self.run(std::slice::from_ref(&op))?;
        verdicts.into_iter().next().unwrap_or(Ok(None))
    }

    /// Install a replica copy of `meta` under `path`, idempotently:
    /// create the entry if absent, otherwise max-merge size and mtime
    /// into the existing record (the same fold `update_size` uses).
    /// Replaying the RPC any number of times converges on the same
    /// state, which is what lets the re-replication driver blindly
    /// retry pushes classified retryable.
    pub fn install_replica(&self, path: &str, meta: &Metadata) -> Result<()> {
        let inserted = self.db.put_if_absent(path.as_bytes(), &meta.encode())?;
        if inserted {
            self.entries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.db
                .merge(path.as_bytes(), &encode_size_operand(meta.size, meta.mtime_ns))?;
        }
        Ok(())
    }

    /// Hand `visit` every `(path, metadata)` entry held by this daemon,
    /// in path order — the walk the re-replication driver runs when a
    /// peer dies or rejoins. It holds a step of the store, not the
    /// namespace: what `visit` keeps is the caller's.
    pub fn walk(&self, mut visit: impl FnMut(&str, Metadata)) -> Result<()> {
        self.db.scan_prefix_with(b"", b"", |k, v| {
            let path = std::str::from_utf8(k)
                .map_err(|e| GkfsError::Corruption(format!("non-utf8 key: {e}")))?;
            visit(path, Metadata::decode(v)?);
            Ok(true)
        })
    }

    /// Total entries held by this daemon, counted as they are made and
    /// removed rather than walked.
    pub fn entry_count(&self) -> u64 {
        u64::try_from(self.entries.load(Ordering::Relaxed)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use gkfs_common::FileKind;
    use gkfs_rpc::proto::{CreateReq, PathReq, TruncateMetaReq};

    fn backend() -> MetadataBackend {
        MetadataBackend::open_memory().unwrap()
    }

    fn create(b: &MetadataBackend, path: &str, meta: &Metadata, exclusive: bool) -> Result<()> {
        b.apply_one(MetaOp::Create(CreateReq {
            path: path.into(),
            kind: meta.kind,
            mode: meta.mode,
            exclusive,
            now_ns: meta.ctime_ns,
        }))
        .map(drop)
    }

    fn stat(b: &MetadataBackend, path: &str) -> Result<Metadata> {
        b.apply_one(MetaOp::Stat(PathReq::new(path))).map(Option::unwrap)
    }

    fn remove(b: &MetadataBackend, path: &str) -> Result<Metadata> {
        b.apply_one(MetaOp::Unlink(PathReq::new(path))).map(Option::unwrap)
    }

    fn truncate(b: &MetadataBackend, path: &str, new_size: u64, mtime_ns: u64) -> Result<()> {
        b.apply_one(MetaOp::TruncateMeta(TruncateMetaReq { path: path.into(), new_size, mtime_ns }))
            .map(drop)
    }

    #[test]
    fn create_stat_remove_cycle() {
        let b = backend();
        let meta = Metadata::new_file(100);
        create(&b, "/f", &meta, true).unwrap();
        assert_eq!(stat(&b, "/f").unwrap(), meta);
        let removed = remove(&b, "/f").unwrap();
        assert_eq!(removed, meta);
        assert_eq!(stat(&b, "/f"), Err(GkfsError::NotFound));
        assert_eq!(remove(&b, "/f"), Err(GkfsError::NotFound));
    }

    #[test]
    fn exclusive_create_conflicts() {
        let b = backend();
        create(&b, "/f", &Metadata::new_file(1), true).unwrap();
        assert_eq!(
            create(&b, "/f", &Metadata::new_file(2), true),
            Err(GkfsError::Exists)
        );
        // Non-exclusive create of an existing entry succeeds and does
        // not clobber the original.
        create(&b, "/f", &Metadata::new_file(3), false).unwrap();
        assert_eq!(stat(&b, "/f").unwrap().ctime_ns, 1);
    }

    #[test]
    fn size_updates_take_max() {
        let b = backend();
        create(&b, "/f", &Metadata::new_file(0), true).unwrap();
        b.update_size("/f", 1000, 5).unwrap();
        b.update_size("/f", 500, 6).unwrap(); // smaller: ignored for size
        b.update_size("/f", 2000, 7).unwrap();
        let m = stat(&b, "/f").unwrap();
        assert_eq!(m.size, 2000);
        assert_eq!(m.mtime_ns, 7);
        assert_eq!(m.kind, FileKind::File);
    }

    #[test]
    fn concurrent_size_updates_converge_to_max() {
        let b = backend();
        create(&b, "/shared", &Metadata::new_file(0), true).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..500u64 {
                        b.update_size("/shared", t * 1000 + i, i).unwrap();
                    }
                });
            }
        });
        assert_eq!(stat(&b, "/shared").unwrap().size, 7499);
    }

    #[test]
    fn truncate_sets_exact_size() {
        let b = backend();
        create(&b, "/f", &Metadata::new_file(0), true).unwrap();
        b.update_size("/f", 10_000, 1).unwrap();
        truncate(&b, "/f", 100, 2).unwrap();
        assert_eq!(stat(&b, "/f").unwrap().size, 100);
        // Truncate can also extend (POSIX ftruncate).
        truncate(&b, "/f", 5000, 3).unwrap();
        assert_eq!(stat(&b, "/f").unwrap().size, 5000);
        // Directories refuse.
        create(&b, "/d", &Metadata::new_dir(0), true).unwrap();
        assert_eq!(truncate(&b, "/d", 0, 4), Err(GkfsError::IsDirectory));
        // Missing files refuse.
        assert_eq!(truncate(&b, "/ghost", 0, 5), Err(GkfsError::NotFound));
    }

    #[test]
    fn readdir_returns_direct_children_only() {
        let b = backend();
        create(&b, "/dir", &Metadata::new_dir(0), true).unwrap();
        create(&b, "/dir/a", &Metadata::new_file(0), true).unwrap();
        create(&b, "/dir/sub", &Metadata::new_dir(0), true).unwrap();
        create(&b, "/dir/sub/deep", &Metadata::new_file(0), true).unwrap();
        create(&b, "/dirx", &Metadata::new_file(0), true).unwrap();
        let mut names: Vec<(String, FileKind)> = b
            .readdir_page("/dir", "", 0)
            .unwrap()
            .0
            .into_iter()
            .map(|d| (d.name, d.kind))
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                ("a".to_string(), FileKind::File),
                ("sub".to_string(), FileKind::Directory)
            ]
        );
        // Root listing sees /dir and /dirx but not nested entries.
        let root = b.readdir_page("/", "", 0).unwrap().0;
        assert_eq!(root.len(), 2);
    }

    #[test]
    fn merge_racing_remove_is_shadowed() {
        // A size update never creates an entry. Update-then-remove: the
        // remove wins (it forgets the entry, or writes a tombstone where
        // an older level may hold the path). Remove-then-update: the
        // update's fold finds no base and comes to nothing, so the path
        // stays removed — in the memtable, and once flushed.
        let b = backend();
        create(&b, "/f", &Metadata::new_file(0), true).unwrap();
        remove(&b, "/f").unwrap();
        b.update_size("/f", 77, 1).unwrap();
        assert_eq!(stat(&b, "/f"), Err(GkfsError::NotFound));
        b.update_size("/never", 5, 1).unwrap();
        b.db.flush().unwrap();
        assert_eq!(stat(&b, "/f"), Err(GkfsError::NotFound));
        assert_eq!(stat(&b, "/never"), Err(GkfsError::NotFound));
        assert_eq!(b.entry_count(), 0);
    }

    #[test]
    fn install_replica_is_idempotent_and_merges() {
        let b = backend();
        let mut m = Metadata::new_file(10);
        m.size = 100;
        m.mtime_ns = 20;
        b.install_replica("/f", &m).unwrap();
        assert_eq!(stat(&b, "/f").unwrap().size, 100);
        // Replay with a stale, smaller copy: size/mtime keep their max.
        let mut stale = m.clone();
        stale.size = 40;
        stale.mtime_ns = 5;
        b.install_replica("/f", &stale).unwrap();
        let got = stat(&b, "/f").unwrap();
        assert_eq!((got.size, got.mtime_ns), (100, 20));
        // A newer copy advances both.
        m.size = 300;
        m.mtime_ns = 30;
        b.install_replica("/f", &m).unwrap();
        let got = stat(&b, "/f").unwrap();
        assert_eq!((got.size, got.mtime_ns), (300, 30));
    }

    #[test]
    fn scan_all_walks_every_entry() {
        let b = backend();
        create(&b, "/a", &Metadata::new_file(0), true).unwrap();
        create(&b, "/d", &Metadata::new_dir(0), true).unwrap();
        create(&b, "/d/x", &Metadata::new_file(0), true).unwrap();
        let mut paths: Vec<String> = Vec::new();
        b.walk(|p, _| paths.push(p.to_string())).unwrap();
        assert_eq!(paths, vec!["/a", "/d", "/d/x"]);
    }

    #[test]
    fn apply_matches_serial_execution() {
        let b = backend();
        let ops = vec![
            MetaOp::Create(CreateReq {
                path: "/a".into(),
                kind: FileKind::File,
                mode: 0o644,
                exclusive: true,
                now_ns: 1,
            }),
            MetaOp::Stat(PathReq::new("/a")),
            MetaOp::Create(CreateReq {
                path: "/a".into(),
                kind: FileKind::File,
                mode: 0o644,
                exclusive: true,
                now_ns: 2,
            }),
            MetaOp::TruncateMeta(TruncateMetaReq {
                path: "/a".into(),
                new_size: 77,
                mtime_ns: 3,
            }),
            MetaOp::Unlink(PathReq::new("/a")),
            MetaOp::Stat(PathReq::new("/a")),
        ];
        let results = b.apply(&ops).unwrap();
        // Create ok; stat sees the in-batch create; duplicate excl
        // create fails; truncate applies; unlink returns the truncated
        // meta; final stat misses.
        assert_eq!(results[0], Ok(None));
        assert_eq!(results[1].clone().unwrap().unwrap().ctime_ns, 1);
        assert!(matches!(
            results[2].clone(),
            Err(GkfsError::Exists)
        ));
        assert_eq!(results[3], Ok(None));
        assert_eq!(results[4].clone().unwrap().unwrap().size, 77);
        assert!(matches!(
            results[5].clone(),
            Err(GkfsError::NotFound)
        ));
        // The whole batch net-cancelled: nothing durable remains.
        assert_eq!(stat(&b, "/a"), Err(GkfsError::NotFound));
        let c = b.db().stats();
        assert_eq!(c.meta_batches.load(Ordering::Relaxed), 1);
        assert_eq!(c.meta_batch_ops.load(Ordering::Relaxed), 6);
        assert_eq!(c.meta_group_applies.load(Ordering::Relaxed), 1);
    }

    /// The one-winner rule holds for a batched exclusive create exactly
    /// as for a unary one: the existence check and the commit are one
    /// step under the store's writer lock. Every round releases all
    /// threads onto one fresh path at once; exactly one may win it.
    /// (Release builds contend the lock far harder than debug ones —
    /// `scripts/ci.sh` runs this in `--release`.)
    #[test]
    fn batched_exclusive_create_has_one_winner() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 1000;
        let b = backend();
        let gate = std::sync::Barrier::new(THREADS);
        let wins: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let (b, gate, wins) = (&b, &gate, &wins);
                s.spawn(move || {
                    for (round, won) in wins.iter().enumerate() {
                        let frame = [MetaOp::Create(CreateReq {
                            path: format!("/race/{round}"),
                            kind: FileKind::File,
                            mode: 0o644,
                            exclusive: true,
                            now_ns: t,
                        })];
                        gate.wait();
                        let verdicts = b.apply(&frame).unwrap();
                        won.fetch_add(verdicts[0].is_ok() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        for (round, won) in wins.iter().enumerate() {
            assert_eq!(won.load(Ordering::Relaxed), 1, "round {round}: winners");
        }
    }

    /// mdtest's churn at the default 4 MiB memtable: each round 32-op
    /// `BatchMeta` frames create 256 files, then frames of their
    /// unlinks remove them. An unlink forgets the entry its create put,
    /// so 65 536 files later the store is as empty as it began: no
    /// tombstone in the active memtable, nothing frozen or flushed.
    #[test]
    fn create_unlink_churn_leaves_the_store_empty() {
        let b = backend();
        for round in 0..256 {
            let paths: Vec<String> = (0..256).map(|i| format!("/churn/{round:03}.{i:03}")).collect();
            for frame in paths.chunks(32) {
                let creates: Vec<MetaOp> = frame
                    .iter()
                    .map(|p| MetaOp::Create(CreateReq {
                        path: p.clone(),
                        kind: FileKind::File,
                        mode: 0o644,
                        exclusive: true,
                        now_ns: round,
                    }))
                    .collect();
                assert!(b.apply(&creates).unwrap().iter().all(Result::is_ok));
            }
            for frame in paths.chunks(32) {
                let unlinks: Vec<MetaOp> = frame.iter().map(|p| MetaOp::Unlink(PathReq::new(p))).collect();
                assert!(b.apply(&unlinks).unwrap().iter().all(Result::is_ok));
            }
        }
        assert_eq!(b.db().stats().kv_flushes.load(Ordering::Relaxed), 0, "flushes");
        assert_eq!(b.entry_count(), 0);
        assert_eq!(b.db().level_shape(), (0, 0, 0, 0), "(memtable keys, frozen, L0, L1)");
    }

    #[test]
    fn apply_without_mutations_skips_the_commit() {
        let b = backend();
        create(&b, "/f", &Metadata::new_file(1), true).unwrap();
        let results = b
            .apply(&[MetaOp::Stat(PathReq::new("/f"))])
            .unwrap();
        assert!(results[0].clone().unwrap().is_some());
        assert_eq!(b.db().stats().meta_group_applies.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn apply_is_atomic_in_the_store() {
        // Mixed good/bad ops: good ops land, bad ops report their own
        // errors, and everything staged commits as one WriteBatch.
        let b = backend();
        create(&b, "/dir", &Metadata::new_dir(0), true).unwrap();
        let results = b
            .apply(&[
                MetaOp::Unlink(PathReq::new("/ghost")),
                MetaOp::Create(CreateReq {
                    path: "/x".into(),
                    kind: FileKind::File,
                    mode: 0o600,
                    exclusive: true,
                    now_ns: 9,
                }),
                MetaOp::TruncateMeta(TruncateMetaReq {
                    path: "/missing".into(),
                    new_size: 0,
                    mtime_ns: 0,
                }),
                MetaOp::Unlink(PathReq::new("/dir")),
            ])
            .unwrap();
        assert!(results[0].clone().is_err());
        assert!(results[1].clone().is_ok());
        assert!(results[2].clone().is_err());
        // Batched unlink refuses directories; rmdir stays unary.
        assert!(matches!(
            results[3].clone(),
            Err(GkfsError::IsDirectory)
        ));
        assert_eq!(stat(&b, "/x").unwrap().mode, 0o600);
        assert!(stat(&b, "/dir").unwrap().is_dir());
    }

    /// Pages resume exactly at their cursor in a directory of more
    /// children than a walk step, half flushed to a table, with nested
    /// entries between siblings (`b!` sorts between `b` and `b/x`).
    #[test]
    fn readdir_page_walks_in_bounded_pages() {
        let b = backend();
        create(&b, "/d", &Metadata::new_dir(0), true).unwrap();
        let mut expect: Vec<String> = (0..600).map(|i| format!("f{i:03}")).collect();
        for (i, name) in expect.iter().enumerate() {
            create(&b, &format!("/d/{name}"), &Metadata::new_file(0), true).unwrap();
            if i == 300 {
                b.db().flush().unwrap();
            }
        }
        create(&b, "/d/b", &Metadata::new_dir(0), true).unwrap();
        create(&b, "/d/b!", &Metadata::new_file(0), true).unwrap();
        // Nested entries must not leak into pages.
        create(&b, "/d/b/x", &Metadata::new_file(0), true).unwrap();
        create(&b, "/d/f000/deep", &Metadata::new_file(0), true).unwrap();
        expect.extend(["b".to_string(), "b!".to_string()]);
        expect.sort();
        for size in [3, 7, 1000] {
            let mut all = Vec::new();
            let mut cursor = String::new();
            let mut pages = 0;
            loop {
                let (page, next) = b.readdir_page("/d", &cursor, size).unwrap();
                assert!(page.len() <= size);
                all.extend(page.into_iter().map(|d| d.name));
                pages += 1;
                if next.is_empty() {
                    break;
                }
                assert_eq!(all.last(), Some(&next), "the cursor is the page's last name");
                cursor = next;
            }
            assert_eq!(pages, expect.len().div_ceil(size), "602 entries at page size {size}");
            assert_eq!(all, expect, "page size {size}");
        }
    }

    #[test]
    fn operand_encoding_roundtrip() {
        let op = encode_size_operand(123, 456);
        assert_eq!(<(u64, u64)>::decode(&op), Ok((123, 456)));
        assert!(<(u64, u64)>::decode(b"short").is_err());
    }
}
