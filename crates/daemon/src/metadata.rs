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
use gkfs_rpc::proto::{MetaOp, MetaOpResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default `readdir` page size when the client asks for the daemon
/// default (`max_entries == 0`): large enough that ordinary
/// directories fit one page, small enough that a millions-of-entries
/// directory never materializes one unbounded reply frame.
pub const READDIR_DEFAULT_PAGE: usize = 4096;

/// Counters for the bulk metadata plane, surfaced via `DaemonStats`.
#[derive(Debug, Default)]
pub struct MetaBatchCounters {
    /// `BatchMeta` RPCs applied.
    pub batches: AtomicU64,
    /// Metadata ops carried by those batches.
    pub ops: AtomicU64,
    /// Group-applied KV commits (batches staging ≥ 1 mutation; each is
    /// one `WriteBatch`, i.e. one WAL record riding group commit).
    pub group_applies: AtomicU64,
}

/// Merge operator over encoded [`Metadata`] values. Operands are
/// `(candidate_size: u64, mtime_ns: u64)` pairs; folding keeps the
/// maximum size and latest mtime. A merge against a missing base (a
/// size update racing a concurrent remove) resurrects nothing: it
/// produces a plain file record so the fold stays total, and the
/// subsequent tombstone from the remove shadows it.
#[derive(Debug, Default)]
pub struct MetaSizeMergeOperator;

/// Encode a size-update operand.
pub fn encode_size_operand(size: u64, mtime_ns: u64) -> Vec<u8> {
    (size, mtime_ns).encode()
}

impl MergeOperator for MetaSizeMergeOperator {
    fn full_merge(&self, _key: &[u8], base: Option<&[u8]>, operands: &[Vec<u8>]) -> Vec<u8> {
        let mut meta = base
            .and_then(|b| Metadata::decode(b).ok())
            .unwrap_or_else(|| Metadata::new_file(0));
        for op in operands {
            if let Ok((size, mtime)) = <(u64, u64)>::decode(op) {
                meta.size = meta.size.max(size);
                meta.mtime_ns = meta.mtime_ns.max(mtime);
            }
        }
        meta.encode()
    }
}

/// Metadata operations executed by the daemon on behalf of clients.
pub struct MetadataBackend {
    db: Arc<Db>,
    batch_counters: MetaBatchCounters,
}

impl MetadataBackend {
    /// Build over a fresh in-memory KV store.
    pub fn open_memory() -> Result<MetadataBackend> {
        let opts = DbOptions {
            merge_operator: Some(Arc::new(MetaSizeMergeOperator)),
            ..DbOptions::default()
        };
        Ok(MetadataBackend {
            db: Db::open_memory(opts)?,
            batch_counters: MetaBatchCounters::default(),
        })
    }

    /// Build over a KV store persisted under `dir`, with WAL as asked.
    pub fn open_dir(dir: impl Into<std::path::PathBuf>, wal: bool) -> Result<MetadataBackend> {
        let opts = DbOptions {
            merge_operator: Some(Arc::new(MetaSizeMergeOperator)),
            wal,
            ..DbOptions::default()
        };
        Ok(MetadataBackend {
            db: Db::open_dir(dir, opts)?,
            batch_counters: MetaBatchCounters::default(),
        })
    }

    /// Bulk-metadata counters (stats surface).
    pub fn batch_counters(&self) -> &MetaBatchCounters {
        &self.batch_counters
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

    /// Create an entry. With `exclusive`, an existing entry fails with
    /// `Exists`; without, it is a no-op success (open-with-`O_CREAT`).
    pub fn create(&self, path: &str, meta: &Metadata, exclusive: bool) -> Result<()> {
        let inserted = self.db.put_if_absent(path.as_bytes(), &meta.encode())?;
        if !inserted && exclusive {
            return Err(GkfsError::Exists);
        }
        Ok(())
    }

    /// Fetch an entry's metadata.
    pub fn stat(&self, path: &str) -> Result<Metadata> {
        match self.db.get(path.as_bytes())? {
            Some(v) => Metadata::decode(&v),
            None => Err(GkfsError::NotFound),
        }
    }

    /// Remove an entry, returning its (pre-removal) metadata.
    pub fn remove(&self, path: &str) -> Result<Metadata> {
        let meta = self.stat(path)?;
        self.db.delete(path.as_bytes())?;
        Ok(meta)
    }

    /// Merge a size candidate into a file's metadata (read-free).
    pub fn update_size(&self, path: &str, size: u64, mtime_ns: u64) -> Result<()> {
        self.db
            .merge(path.as_bytes(), &encode_size_operand(size, mtime_ns))
    }

    /// Set an exact size (truncate). Errors on directories.
    pub fn truncate(&self, path: &str, new_size: u64, mtime_ns: u64) -> Result<()> {
        let mut meta = self.stat(path)?;
        if meta.is_dir() {
            return Err(GkfsError::IsDirectory);
        }
        meta.size = new_size;
        meta.mtime_ns = mtime_ns;
        self.db.put(path.as_bytes(), &meta.encode())
    }

    /// Direct children of `dir` known to this daemon — one shard of the
    /// global (eventually consistent) `readdir`. Unpaged convenience
    /// wrapper over [`MetadataBackend::readdir_page`].
    pub fn readdir(&self, dir: &str) -> Result<Vec<Dirent>> {
        let mut out = Vec::new();
        let mut cursor = String::new();
        loop {
            let (mut page, next) = self.readdir_page(dir, &cursor, 0)?;
            out.append(&mut page);
            if next.is_empty() {
                return Ok(out);
            }
            cursor = next;
        }
    }

    /// One page of `dir`'s direct children: at most `max_entries`
    /// (`0` = [`READDIR_DEFAULT_PAGE`]) whose names sort strictly
    /// after `cursor` (empty = from the start). Returns the entries
    /// plus the next cursor — empty when the scan is complete — so a
    /// huge directory is shipped as bounded reply frames instead of
    /// one unbounded allocation.
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
        // scan_prefix yields keys in lexicographic order, and every
        // direct child shares the same prefix — so child *names*
        // arrive sorted, which is what makes a name a valid cursor.
        for (k, v) in self.db.scan_prefix(prefix.as_bytes())? {
            let child = std::str::from_utf8(&k)
                .map_err(|e| GkfsError::Corruption(format!("non-utf8 key: {e}")))?;
            if !gpath::is_direct_child(dir, child) {
                continue;
            }
            let name = gpath::name(child);
            if !cursor.is_empty() && name <= cursor {
                continue;
            }
            if out.len() == max {
                next = out.last().map(|d| d.name.clone()).unwrap_or_default();
                break;
            }
            let meta = Metadata::decode(&v)?;
            out.push(Dirent {
                name: name.to_string(),
                kind: meta.kind,
                size: meta.size,
            });
        }
        Ok((out, next))
    }

    /// Apply a batch of heterogeneous metadata ops as one group: all
    /// reads run up front against a batch-local overlay (so ops in one
    /// batch see their predecessors, exactly as if executed one at a
    /// time), and every staged mutation commits through a single
    /// [`WriteBatch`] — one memtable lock, one WAL record riding the
    /// WAL's group commit, one fsync for the whole batch.
    ///
    /// Per-op failures (`Exists`, `NotFound`, `IsDirectory`) are
    /// reported in the op's own [`MetaOpResult`] and never poison
    /// batchmates. Only infrastructure errors (KV store I/O) fail the
    /// whole call.
    ///
    /// Concurrency caveat (documented in DESIGN.md "Bulk metadata
    /// plane"): the existence check and the commit are not one atomic
    /// step against *concurrent unary* writers — a batched exclusive
    /// create racing a unary create of the same path on another client
    /// may observe absent and overwrite. GekkoFS's relaxed model
    /// already declares concurrent conflicting metadata updates on one
    /// path application-level misuse.
    pub fn apply_batch(&self, ops: &[MetaOp]) -> Result<Vec<MetaOpResult>> {
        let mut overlay: std::collections::HashMap<&str, Option<Metadata>> =
            std::collections::HashMap::new();
        let mut batch = WriteBatch::new();
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            let path = op.path();
            let current: Option<Metadata> = match overlay.get(path) {
                Some(v) => v.clone(),
                None => match self.db.get(path.as_bytes())? {
                    Some(v) => Some(Metadata::decode(&v)?),
                    None => None,
                },
            };
            let result = match op {
                MetaOp::Create(r) => match current {
                    Some(_) if r.exclusive => MetaOpResult::err(&GkfsError::Exists),
                    Some(_) => MetaOpResult::ok(),
                    None => {
                        let meta = r.metadata();
                        batch.put(path.as_bytes(), &meta.encode());
                        overlay.insert(path, Some(meta));
                        MetaOpResult::ok()
                    }
                },
                MetaOp::Stat(_) => match current {
                    Some(m) => MetaOpResult::ok_meta(m),
                    None => MetaOpResult::err(&GkfsError::NotFound),
                },
                MetaOp::Unlink(_) => match current {
                    // Batched unlink is file-only: directory removal
                    // needs the cross-daemon emptiness check, which
                    // only the unary rmdir protocol performs.
                    Some(m) if m.is_dir() => MetaOpResult::err(&GkfsError::IsDirectory),
                    Some(m) => {
                        batch.delete(path.as_bytes());
                        overlay.insert(path, None);
                        MetaOpResult::ok_meta(m)
                    }
                    None => MetaOpResult::err(&GkfsError::NotFound),
                },
                MetaOp::TruncateMeta(r) => match current {
                    Some(m) if m.is_dir() => MetaOpResult::err(&GkfsError::IsDirectory),
                    Some(mut m) => {
                        m.size = r.new_size;
                        m.mtime_ns = r.mtime_ns;
                        batch.put(path.as_bytes(), &m.encode());
                        overlay.insert(path, Some(m));
                        MetaOpResult::ok()
                    }
                    None => MetaOpResult::err(&GkfsError::NotFound),
                },
            };
            results.push(result);
        }
        self.batch_counters.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_counters
            .ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        if !batch.is_empty() {
            self.db.write(batch)?;
            self.batch_counters
                .group_applies
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(results)
    }

    /// Install a replica copy of `meta` under `path`, idempotently:
    /// create the entry if absent, otherwise max-merge size and mtime
    /// into the existing record (the same fold `update_size` uses).
    /// Replaying the RPC any number of times converges on the same
    /// state, which is what lets the re-replication driver blindly
    /// retry pushes classified retryable.
    pub fn install_replica(&self, path: &str, meta: &Metadata) -> Result<()> {
        let inserted = self.db.put_if_absent(path.as_bytes(), &meta.encode())?;
        if !inserted {
            self.db
                .merge(path.as_bytes(), &encode_size_operand(meta.size, meta.mtime_ns))?;
        }
        Ok(())
    }

    /// Every `(path, metadata)` entry held by this daemon — the full
    /// walk the re-replication driver runs when a peer dies or rejoins.
    pub fn scan_all(&self) -> Result<Vec<(String, Metadata)>> {
        let mut out = Vec::new();
        for (k, v) in self.db.scan_prefix(b"")? {
            let path = std::str::from_utf8(&k)
                .map_err(|e| GkfsError::Corruption(format!("non-utf8 key: {e}")))?
                .to_string();
            out.push((path, Metadata::decode(&v)?));
        }
        Ok(out)
    }

    /// Does `dir` have any descendant entries on this daemon?
    pub fn has_children(&self, dir: &str) -> Result<bool> {
        let prefix = gpath::dir_prefix(dir);
        Ok(!self.db.scan_prefix(prefix.as_bytes())?.is_empty())
    }

    /// Total entries held by this daemon.
    pub fn entry_count(&self) -> Result<usize> {
        self.db.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_common::FileKind;
    use gkfs_rpc::proto::{CreateReq, PathReq, TruncateMetaReq};

    fn backend() -> MetadataBackend {
        MetadataBackend::open_memory().unwrap()
    }

    #[test]
    fn create_stat_remove_cycle() {
        let b = backend();
        let meta = Metadata::new_file(100);
        b.create("/f", &meta, true).unwrap();
        assert_eq!(b.stat("/f").unwrap(), meta);
        let removed = b.remove("/f").unwrap();
        assert_eq!(removed, meta);
        assert_eq!(b.stat("/f"), Err(GkfsError::NotFound));
        assert_eq!(b.remove("/f"), Err(GkfsError::NotFound));
    }

    #[test]
    fn exclusive_create_conflicts() {
        let b = backend();
        b.create("/f", &Metadata::new_file(1), true).unwrap();
        assert_eq!(
            b.create("/f", &Metadata::new_file(2), true),
            Err(GkfsError::Exists)
        );
        // Non-exclusive create of an existing entry succeeds and does
        // not clobber the original.
        b.create("/f", &Metadata::new_file(3), false).unwrap();
        assert_eq!(b.stat("/f").unwrap().ctime_ns, 1);
    }

    #[test]
    fn size_updates_take_max() {
        let b = backend();
        b.create("/f", &Metadata::new_file(0), true).unwrap();
        b.update_size("/f", 1000, 5).unwrap();
        b.update_size("/f", 500, 6).unwrap(); // smaller: ignored for size
        b.update_size("/f", 2000, 7).unwrap();
        let m = b.stat("/f").unwrap();
        assert_eq!(m.size, 2000);
        assert_eq!(m.mtime_ns, 7);
        assert_eq!(m.kind, FileKind::File);
    }

    #[test]
    fn concurrent_size_updates_converge_to_max() {
        let b = backend();
        b.create("/shared", &Metadata::new_file(0), true).unwrap();
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
        assert_eq!(b.stat("/shared").unwrap().size, 7499);
    }

    #[test]
    fn truncate_sets_exact_size() {
        let b = backend();
        b.create("/f", &Metadata::new_file(0), true).unwrap();
        b.update_size("/f", 10_000, 1).unwrap();
        b.truncate("/f", 100, 2).unwrap();
        assert_eq!(b.stat("/f").unwrap().size, 100);
        // Truncate can also extend (POSIX ftruncate).
        b.truncate("/f", 5000, 3).unwrap();
        assert_eq!(b.stat("/f").unwrap().size, 5000);
        // Directories refuse.
        b.create("/d", &Metadata::new_dir(0), true).unwrap();
        assert_eq!(b.truncate("/d", 0, 4), Err(GkfsError::IsDirectory));
        // Missing files refuse.
        assert_eq!(b.truncate("/ghost", 0, 5), Err(GkfsError::NotFound));
    }

    #[test]
    fn readdir_returns_direct_children_only() {
        let b = backend();
        b.create("/dir", &Metadata::new_dir(0), true).unwrap();
        b.create("/dir/a", &Metadata::new_file(0), true).unwrap();
        b.create("/dir/sub", &Metadata::new_dir(0), true).unwrap();
        b.create("/dir/sub/deep", &Metadata::new_file(0), true).unwrap();
        b.create("/dirx", &Metadata::new_file(0), true).unwrap();
        let mut names: Vec<(String, FileKind)> = b
            .readdir("/dir")
            .unwrap()
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
        let root: Vec<String> = b.readdir("/").unwrap().into_iter().map(|d| d.name).collect();
        assert_eq!(root.len(), 2);
    }

    #[test]
    fn has_children_sees_descendants_at_any_depth() {
        let b = backend();
        b.create("/d", &Metadata::new_dir(0), true).unwrap();
        assert!(!b.has_children("/d").unwrap());
        b.create("/d/x/y", &Metadata::new_file(0), true).unwrap();
        assert!(b.has_children("/d").unwrap());
    }

    #[test]
    fn merge_racing_remove_is_shadowed() {
        // A size update applied after a remove must not resurrect the
        // file for long: the operator materializes a record, but the
        // usual sequence is update-then-remove, where the tombstone
        // wins. Verify the remove-then-update edge produces a record
        // (fold stays total) that a second remove clears.
        let b = backend();
        b.create("/f", &Metadata::new_file(0), true).unwrap();
        b.remove("/f").unwrap();
        b.update_size("/f", 77, 1).unwrap();
        assert_eq!(b.stat("/f").unwrap().size, 77);
        b.remove("/f").unwrap();
        assert_eq!(b.stat("/f"), Err(GkfsError::NotFound));
    }

    #[test]
    fn install_replica_is_idempotent_and_merges() {
        let b = backend();
        let mut m = Metadata::new_file(10);
        m.size = 100;
        m.mtime_ns = 20;
        b.install_replica("/f", &m).unwrap();
        assert_eq!(b.stat("/f").unwrap().size, 100);
        // Replay with a stale, smaller copy: size/mtime keep their max.
        let mut stale = m.clone();
        stale.size = 40;
        stale.mtime_ns = 5;
        b.install_replica("/f", &stale).unwrap();
        let got = b.stat("/f").unwrap();
        assert_eq!((got.size, got.mtime_ns), (100, 20));
        // A newer copy advances both.
        m.size = 300;
        m.mtime_ns = 30;
        b.install_replica("/f", &m).unwrap();
        let got = b.stat("/f").unwrap();
        assert_eq!((got.size, got.mtime_ns), (300, 30));
    }

    #[test]
    fn scan_all_walks_every_entry() {
        let b = backend();
        b.create("/a", &Metadata::new_file(0), true).unwrap();
        b.create("/d", &Metadata::new_dir(0), true).unwrap();
        b.create("/d/x", &Metadata::new_file(0), true).unwrap();
        let mut paths: Vec<String> = b.scan_all().unwrap().into_iter().map(|(p, _)| p).collect();
        paths.sort();
        assert_eq!(paths, vec!["/a", "/d", "/d/x"]);
    }

    #[test]
    fn apply_batch_matches_serial_execution() {
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
        let results = b.apply_batch(&ops).unwrap();
        // Create ok; stat sees the in-batch create; duplicate excl
        // create fails; truncate applies; unlink returns the truncated
        // meta; final stat misses.
        assert_eq!(results[0], MetaOpResult::ok());
        assert_eq!(results[1].clone().into_result().unwrap().unwrap().ctime_ns, 1);
        assert!(matches!(
            results[2].clone().into_result(),
            Err(GkfsError::Exists)
        ));
        assert_eq!(results[3], MetaOpResult::ok());
        assert_eq!(results[4].clone().into_result().unwrap().unwrap().size, 77);
        assert!(matches!(
            results[5].clone().into_result(),
            Err(GkfsError::NotFound)
        ));
        // The whole batch net-cancelled: nothing durable remains.
        assert_eq!(b.stat("/a"), Err(GkfsError::NotFound));
        let c = b.batch_counters();
        assert_eq!(c.batches.load(Ordering::Relaxed), 1);
        assert_eq!(c.ops.load(Ordering::Relaxed), 6);
        assert_eq!(c.group_applies.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn apply_batch_without_mutations_skips_the_commit() {
        let b = backend();
        b.create("/f", &Metadata::new_file(1), true).unwrap();
        let results = b
            .apply_batch(&[MetaOp::Stat(PathReq::new("/f"))])
            .unwrap();
        assert!(results[0].clone().into_result().unwrap().is_some());
        assert_eq!(b.batch_counters().group_applies.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn apply_batch_is_atomic_in_the_store() {
        // Mixed good/bad ops: good ops land, bad ops report their own
        // errors, and everything staged commits as one WriteBatch.
        let b = backend();
        b.create("/dir", &Metadata::new_dir(0), true).unwrap();
        let results = b
            .apply_batch(&[
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
        assert!(results[0].clone().into_result().is_err());
        assert!(results[1].clone().into_result().is_ok());
        assert!(results[2].clone().into_result().is_err());
        // Batched unlink refuses directories; rmdir stays unary.
        assert!(matches!(
            results[3].clone().into_result(),
            Err(GkfsError::IsDirectory)
        ));
        assert_eq!(b.stat("/x").unwrap().mode, 0o600);
        assert!(b.stat("/dir").unwrap().is_dir());
    }

    #[test]
    fn readdir_page_walks_in_bounded_pages() {
        let b = backend();
        b.create("/d", &Metadata::new_dir(0), true).unwrap();
        for i in 0..10 {
            b.create(&format!("/d/f{i:02}"), &Metadata::new_file(0), true)
                .unwrap();
        }
        // Nested entries must not leak into pages.
        b.create("/d/f00/deep", &Metadata::new_file(0), true).unwrap();
        let mut all = Vec::new();
        let mut cursor = String::new();
        let mut pages = 0;
        loop {
            let (page, next) = b.readdir_page("/d", &cursor, 3).unwrap();
            assert!(page.len() <= 3);
            all.extend(page.into_iter().map(|d| d.name));
            pages += 1;
            if next.is_empty() {
                break;
            }
            cursor = next;
        }
        assert_eq!(pages, 4, "10 entries at page size 3");
        let expect: Vec<String> = (0..10).map(|i| format!("f{i:02}")).collect();
        assert_eq!(all, expect);
        // The unpaged wrapper agrees.
        assert_eq!(b.readdir("/d").unwrap().len(), 10);
    }

    #[test]
    fn operand_encoding_roundtrip() {
        let op = encode_size_operand(123, 456);
        assert_eq!(<(u64, u64)>::decode(&op), Ok((123, 456)));
        assert!(<(u64, u64)>::decode(b"short").is_err());
    }
}
