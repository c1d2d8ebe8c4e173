//! The namespace operations: create, stat, unlink, rmdir, readdir,
//! truncate and their bulk forms, and the `fsck` admin scan.
//!
//! `readdir`, `unlink` (data) and `truncate` (data) broadcast to all
//! daemons, because chunks and sibling entries are spread everywhere;
//! everything else goes to the replica set of the path's metadata
//! owner.

use crate::client::{now_ns, GekkoClient};
use crate::meta_frames::create_op;
use bytes::Bytes;
use gkfs_common::distributor::NodeId;
use gkfs_common::path as gpath;
use gkfs_common::types::Dirent;
use gkfs_common::{FileKind, GkfsError, Metadata, Result};
use gkfs_rpc::proto::{CreateReq, MetaOp, PathReq, TruncateMetaReq};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;

/// Most chunk ids one `RemoveChunks` names: they fit a small frame
/// twice over. A holder of more (a file of gigabytes) is asked for
/// whatever it holds instead — one directory enumeration is noise
/// beside that many unlinks.
const MAX_REMOVE_IDS: usize = gkfs_rpc::transport::SMALL_FRAME / 16;

impl GekkoClient {
    /// Create many regular files (exclusive) in batched frames — the
    /// mdtest bulk path. Per-path verdicts (`Exists`, …) live in the
    /// slots.
    pub fn create_many<S: AsRef<str>>(&self, paths: &[S], mode: u32) -> Result<Vec<Result<()>>> {
        self.stats
            .creates
            .fetch_add(paths.len() as u64, Ordering::Relaxed);
        // One timestamp for the call, not a clock read per path.
        let now_ns = now_ns();
        let create = |path| MetaOp::Create(CreateReq { path, kind: FileKind::File, mode, exclusive: true, now_ns });
        self.many(paths, create, |_, _| Ok(()))
    }

    /// Stat many paths in batched frames, each answered by one member
    /// of its path's read chain and raised to what this client's record
    /// of the path believes, exactly like the unary stat.
    pub fn stat_many<S: AsRef<str>>(&self, paths: &[S]) -> Result<Vec<Result<Metadata>>> {
        self.stats
            .stats
            .fetch_add(paths.len() as u64, Ordering::Relaxed);
        self.many(paths, |path| MetaOp::Stat(PathReq { path }), |path, meta| {
            let meta = meta.ok_or_else(|| GkfsError::Corruption("stat without metadata".into()))?;
            Ok(self.overlay_local(path, meta))
        })
    }

    /// Unlink many regular files in batched frames: metadata removal
    /// rides the batch quorum (each owner dropping its own chunk 0 with
    /// the entry), then chunk removal fans out, for what the owners did
    /// not cover, from the sizes the daemon returned with each removed
    /// entry.
    pub fn unlink_many<S: AsRef<str>>(&self, paths: &[S]) -> Result<Vec<Result<()>>> {
        self.stats
            .removes
            .fetch_add(paths.len() as u64, Ordering::Relaxed);
        // Files whose chunks must still be removed (zero-byte files
        // hold none).
        let mut removed: Vec<Unlinked> = Vec::new();
        let slots = self.many(paths, |path| MetaOp::Unlink(PathReq { path }), |path, meta| {
            removed.extend(self.unlinked(path, meta));
            Ok(())
        })?;
        self.remove_chunks_many(&removed)?;
        Ok(slots)
    }

    /// Fan chunk removal out for a set of just-unlinked files, one
    /// `RemoveChunks` per (holder, path) pair, all overlapped on the
    /// wire, each naming the chunk ids its holder was placed — the
    /// daemon unlinks those names and reads no directory. Chunk 0 is
    /// not named to the members of the metadata write set when they
    /// dropped it with the entry (`owner_covered`), so a file of at
    /// most one chunk sends nothing here: its unlink was one RPC. A
    /// `u64::MAX` size (the batch-retry "unknown" sentinel) broadcasts
    /// an empty list, "whatever you hold", to every daemon instead of
    /// deriving holders from a size that no longer exists anywhere; so
    /// does a holder of more ids than [`MAX_REMOVE_IDS`].
    pub(crate) fn remove_chunks_many(&self, removed: &[Unlinked]) -> Result<()> {
        let mut legs: Vec<(NodeId, &str, Vec<u64>)> = Vec::new();
        for Unlinked { path, size, owner_covered } in removed {
            if *size == u64::MAX {
                legs.extend((0..self.ring.nodes()).map(|n| (n, path.as_str(), Vec::new())));
                continue;
            }
            let owners = if *owner_covered { self.placement.meta_set(path) } else { Vec::new() };
            let mut holders: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
            for c in 0..self.layout.chunk_count(*size) {
                for n in self.placement.raw_chunk_set(path, c) {
                    if c > 0 || !owners.contains(&n) {
                        holders.entry(n).or_default().push(c);
                    }
                }
            }
            legs.extend(holders.into_iter().map(|(n, mut ids)| {
                if ids.len() > MAX_REMOVE_IDS {
                    ids.clear();
                }
                (n, path.as_str(), ids)
            }));
        }
        // Submit everything, then wait — the whole fan-out overlaps on
        // the wire and shares one operation deadline.
        let deadline = self.ring.op_deadline();
        let inflight: Vec<_> = legs
            .into_iter()
            .map(|(n, path, ids)| (path, self.ring.remove_chunks_nb(n, path, ids)))
            .collect();
        for (path, fut) in inflight {
            match fut.and_then(|f| f.wait_deadline(deadline)) {
                Ok(()) => {}
                // With replication a dead holder must not wedge the
                // unlink: stranded chunks are orphans that fsck (or
                // the holder's restart — volatile state) cleans up.
                Err(e) if self.placement.survivable(&e) => {
                    gkfs_common::gkfs_info!("unlink {path}: chunk remove skipped: {e}");
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ask the daemons for `path`'s entry: `ask(node)` once per member
    /// of its metadata read chain until one holds it, under the rule
    /// [`GekkoClient::ask_chain`] states (`NotFound` keeps trying the
    /// rest of the chain).
    fn entry_chain<T>(&self, path: &str, ask: impl Fn(NodeId) -> Result<T>) -> Result<T> {
        // An unborn file on this path must land first, or the answer
        // would not know it (read-your-writes).
        self.publish(path)?;
        let one = |n, _: &[usize]| match ask(n) {
            Err(GkfsError::NotFound) => Ok(vec![Err(GkfsError::NotFound)]),
            answer => answer.map(|entry| vec![Ok(entry)]),
        };
        let mut verdict = self.ask_chain(self.placement.meta_primary(path), 1, one)?;
        verdict.pop().unwrap_or(Err(GkfsError::NotFound))
    }

    /// Stat at the daemons: one unary `Stat` down the chain.
    pub(crate) fn stat_chain(&self, path: &str) -> Result<Metadata> {
        self.entry_chain(path, |n| {
            let stat = MetaOp::Stat(PathReq::new(path));
            self.ring.meta_nb(n, stat)?.wait()?.ok_or(GkfsError::NotFound)
        })
    }

    /// What an open learns: the entry, by one `OpenFile` down the chain
    /// the stat walks, and with it, when the daemon that answered
    /// vouches for them, the bytes of a file of at most `head_max`
    /// ([`DaemonRing::open_file_nb`](crate::rpc::DaemonRing::open_file_nb)).
    /// Chunk 0's read set is the metadata's, so whoever answers the
    /// entry is a legitimate reader of the file.
    pub(crate) fn open_chain(&self, path: &str, head_max: u64) -> Result<(Metadata, Option<Bytes>)> {
        self.entry_chain(path, |n| self.ring.open_file_nb(n, path, head_max)?.wait())
    }

    /// An exclusive create from `create`/`mkdir`, one unary call. A file
    /// this client holds unborn on the path is published first
    /// ([`GekkoClient::meta_call`]), so this create is refused by it.
    fn create_entry(&self, path: String, kind: FileKind, mode: u32) -> Result<()> {
        self.stats.creates.fetch_add(1, Ordering::Relaxed);
        self.meta_call(create_op(path, kind, mode, true)).map(drop)
    }

    /// Create a regular file (exclusive, like `O_CREAT|O_EXCL`).
    pub fn create(&self, path: &str, mode: u32) -> Result<()> {
        self.create_entry(gpath::normalize(path)?, FileKind::File, mode)
    }

    /// Create a directory (exclusive).
    ///
    /// Note that GekkoFS' namespace is flat: parent directories are
    /// *not* required to exist (mdtest-style workloads create files
    /// wherever they like), matching the paper's "internally kept flat
    /// namespace".
    pub fn mkdir(&self, path: &str, mode: u32) -> Result<()> {
        let path = gpath::normalize(path)?;
        if path == gpath::ROOT {
            return Err(GkfsError::Exists);
        }
        self.create_entry(path, FileKind::Directory, mode)
    }

    /// Fetch metadata. A client with a handle open on the path sees its
    /// own writes reflected, buffered or not (read-your-writes within
    /// one client).
    pub fn stat(&self, path: &str) -> Result<Metadata> {
        let path = gpath::normalize(path)?;
        self.stats.stats.fetch_add(1, Ordering::Relaxed);
        Ok(self.overlay_local(&path, self.stat_chain(&path)?))
    }

    /// Read-your-writes within one client: raise `meta.size` to what
    /// the path's record believes (a buffered size update, unflushed
    /// write-back bytes), if any handle is open on it.
    fn overlay_local(&self, path: &str, mut meta: Metadata) -> Metadata {
        if let Some(local) = self.files.local(path) {
            meta.size = meta.size.max(local.size());
        }
        meta
    }

    /// Remove a regular file: metadata — and chunk 0, placed with it —
    /// from its owner, the other chunks from their holders.
    pub fn unlink(&self, path: &str) -> Result<()> {
        let path = gpath::normalize(path)?;
        self.stats.removes.fetch_add(1, Ordering::Relaxed);
        // One round trip: the owner refuses a directory itself,
        // answers with the entry it removed and, if that entry held
        // bytes, has dropped its own chunk 0. Zero-byte files (the
        // mdtest workload) hold no chunks and touch no storage; a file
        // of at most one chunk is done too. This is what lets removes
        // scale in §IV-A. Otherwise target exactly the daemons that can
        // own one of the file's other chunks (every replica of every
        // chunk) — the client derives the set from the removed entry's
        // size and the distributor, no state needed.
        let removed = self.meta_call(MetaOp::Unlink(PathReq::new(path.as_str())))?;
        match self.unlinked(&path, removed) {
            None => Ok(()),
            Some(unlinked) => self.remove_chunks_many(&[unlinked]),
        }
    }

    /// The entry of `path` is gone from its owner: detach the path's
    /// record, so no late flush through a surviving handle resurrects
    /// it, and size the chunk removal (none for a file that held
    /// nothing) — the removed entry's size, or the record's where
    /// writes landed whose size update never left the §IV-B window, in
    /// which case the owner saw an empty file and dropped nothing.
    fn unlinked(&self, path: &str, removed: Option<Metadata>) -> Option<Unlinked> {
        let local = self.files.unlink(path).unwrap_or(0);
        let at_owner = removed.map_or(0, |m| m.size);
        let size = at_owner.max(local);
        // The unknown-size sentinel of a tolerated lost reply says
        // nothing about what its first delivery dropped.
        let owner_covered = at_owner > 0 && at_owner != u64::MAX;
        (size > 0).then(|| Unlinked { path: path.to_string(), size, owner_covered })
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let path = gpath::normalize(path)?;
        if path == gpath::ROOT {
            return Err(GkfsError::InvalidArgument("cannot remove root".into()));
        }
        // An unborn child is known to no daemon yet: full barrier, or
        // the emptiness probe below could lie.
        self.flush_meta()?;
        self.stats.removes.fetch_add(1, Ordering::Relaxed);
        // Emptiness is checked across all daemons. This is the paper's
        // eventual-consistency caveat: a concurrent create can slip in.
        // One single-entry page per daemon suffices: any entry at all
        // means non-empty.
        let listings = self
            .ring
            .broadcast(|n| self.ring.readdir_page_nb(n, &path, "", 1));
        for l in listings {
            if !l?.0.is_empty() {
                return Err(GkfsError::NotEmpty);
            }
        }
        // The owner refuses a regular file (`NotDirectory`) itself.
        self.meta_call(MetaOp::Rmdir(PathReq { path })).map(drop)
    }

    /// List a directory: broadcast prefix scans, merge, sort.
    /// Eventually consistent (§III-A: "GekkoFS does not guarantee to
    /// return the current state of the directory").
    pub fn readdir(&self, path: &str) -> Result<Vec<Dirent>> {
        let path = gpath::normalize(path)?;
        // Listings are this client's read-your-writes boundary: every
        // unborn file lands before the scan goes out.
        self.flush_meta()?;
        let meta = self.stat_chain(&path)?;
        if !meta.is_dir() {
            return Err(GkfsError::NotDirectory);
        }
        // Round 1 fans the first page out to every daemon at once;
        // daemons with more pages than fit one frame are walked in
        // further rounds (cursor per node) until all report completion.
        let mut all = Vec::new();
        let mut cursors: Vec<Option<String>> = vec![Some(String::new()); self.ring.nodes()];
        while cursors.iter().any(Option::is_some) {
            let deadline = self.ring.op_deadline();
            let inflight: Vec<(NodeId, _)> = cursors
                .iter()
                .enumerate()
                .filter_map(|(n, c)| {
                    c.as_ref()
                        .map(|cur| (n, self.ring.readdir_page_nb(n, &path, cur, 0)))
                })
                .collect();
            for (n, fut) in inflight {
                match fut.and_then(|f| f.wait_deadline(deadline)) {
                    Ok((page, next)) => {
                        all.extend(page);
                        cursors[n] = (!next.is_empty()).then_some(next);
                    }
                    // A dead daemon's entries are replicated on its ring
                    // successor, which the broadcast also asked.
                    Err(e) if self.placement.survivable(&e) => {
                        gkfs_common::gkfs_info!("readdir {path}: listing skipped: {e}");
                        cursors[n] = None;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all.dedup_by(|a, b| a.name == b.name);
        Ok(all)
    }

    /// Truncate (or extend) a file to `new_size`.
    pub fn truncate(&self, path: &str, new_size: u64) -> Result<()> {
        let path = gpath::normalize(path)?;
        // An unborn file on this path must land before the truncate's
        // metadata update can find it.
        self.publish(&path)?;
        // Program order: writes buffered before this truncate must land
        // before it applies, so force out the path's run.
        if let Some(local) = self.files.local(&path) {
            if let Some(run) = local.take_run() {
                self.flush_run(&local, run)?;
            }
        }
        self.meta_call(MetaOp::TruncateMeta(TruncateMetaReq {
            path: path.clone(),
            new_size,
            mtime_ns: now_ns(),
        }))?;
        let (keep_chunk, keep_bytes) = if new_size == 0 {
            (0, 0)
        } else {
            let last = self.layout.chunk_of(new_size - 1);
            (last, new_size - last * self.layout.chunk_size)
        };
        let results = self
            .ring
            .broadcast(|n| self.ring.truncate_chunks_nb(n, &path, keep_chunk, keep_bytes));
        for r in results {
            match r {
                Ok(()) => {}
                // A dead daemon's surviving replicas were truncated;
                // the dead one rebuilds from them on rejoin (drain
                // back), so the cut propagates.
                Err(e) if self.placement.survivable(&e) => {
                    gkfs_common::gkfs_info!("truncate {path}: chunk cut skipped: {e}");
                }
                Err(e) => return Err(e),
            }
        }
        // The record — looked up now: an open may have made it while the
        // cut was under way — snaps to the authoritative new size; a size
        // update buffered before the cut is moot, and so is a head.
        self.files.touch(&path);
        if let Some(local) = self.files.local(&path) {
            local.cut(new_size);
        }
        Ok(())
    }

    /// Renames are deliberately unsupported (§III-A).
    pub fn rename(&self, _from: &str, _to: &str) -> Result<()> {
        Err(GkfsError::Unsupported("rename"))
    }

    /// Hard links are deliberately unsupported (§III-A).
    pub fn link(&self, _from: &str, _to: &str) -> Result<()> {
        Err(GkfsError::Unsupported("link"))
    }

    /// Symbolic links are deliberately unsupported (§III-A).
    pub fn symlink(&self, _from: &str, _to: &str) -> Result<()> {
        Err(GkfsError::Unsupported("symlink"))
    }

    /// Consistency check across the whole namespace (the `fsck` admin
    /// operation):
    ///
    /// * **orphan chunks** — a daemon holds chunk files for a path
    ///   with no metadata entry (e.g. a remove whose data fan-out was
    ///   interrupted). These waste SSD space and are safe to purge.
    /// * **chunkless files** — metadata says `size > 0` but no daemon
    ///   holds any chunk. Legitimate for files extended purely by
    ///   `truncate` (they read as zeros), so reported for inspection,
    ///   not treated as damage.
    ///
    /// Like `readdir`, the scan is eventually consistent: run it on a
    /// quiescent namespace for exact results.
    pub fn fsck(&self) -> Result<FsckReport> {
        // 1. Global chunk inventory.
        let mut chunk_holders: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (node, inv) in self
            .ring
            .broadcast(|n| self.ring.chunk_inventory_nb(n))
            .into_iter()
            .enumerate()
        {
            for (path, _count) in inv? {
                chunk_holders.entry(path).or_default().push(node);
            }
        }

        // 2. Walk the namespace.
        let mut files: HashMap<String, u64> = HashMap::new();
        let mut stack = vec![gpath::ROOT.to_string()];
        let mut dirs = 0usize;
        while let Some(dir) = stack.pop() {
            dirs += 1;
            for e in self.readdir(&dir)? {
                let p = gpath::join(&dir, &e.name);
                match e.kind {
                    FileKind::Directory => stack.push(p),
                    FileKind::File => {
                        files.insert(p, e.size);
                    }
                }
            }
        }

        // 3. Cross-reference.
        let mut orphan_chunks = Vec::new();
        for (path, nodes) in &chunk_holders {
            if !files.contains_key(path) {
                for n in nodes {
                    orphan_chunks.push((*n, path.clone()));
                }
            }
        }
        orphan_chunks.sort();
        let mut chunkless_files: Vec<String> = files
            .iter()
            .filter(|(p, size)| **size > 0 && !chunk_holders.contains_key(*p))
            .map(|(p, _)| p.clone())
            .collect();
        chunkless_files.sort();

        Ok(FsckReport {
            files_checked: files.len(),
            directories_checked: dirs,
            orphan_chunks,
            chunkless_files,
        })
    }

    /// Purge the orphan chunks a previous [`GekkoClient::fsck`] found.
    /// Returns how many (node, path) holdings were removed.
    pub fn fsck_purge(&self, report: &FsckReport) -> Result<usize> {
        let deadline = self.ring.op_deadline();
        let inflight: Vec<_> = report
            .orphan_chunks
            .iter()
            .map(|(node, path)| self.ring.remove_chunks_nb(*node, path, Vec::new()))
            .collect();
        for fut in inflight {
            fut?.wait_deadline(deadline)?;
        }
        Ok(report.orphan_chunks.len())
    }
}

/// A file whose entry is gone and whose chunks may still be there.
pub(crate) struct Unlinked {
    path: String,
    /// What the daemons may hold bytes up to (`u64::MAX`: unknown).
    size: u64,
    /// The members of the metadata write set removed an entry that
    /// held bytes, and with it their chunk 0.
    owner_covered: bool,
}

/// Outcome of [`GekkoClient::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Regular files examined.
    pub files_checked: usize,
    /// Directories walked.
    pub directories_checked: usize,
    /// `(daemon, path)` pairs holding chunks with no metadata entry.
    pub orphan_chunks: Vec<(NodeId, String)>,
    /// Files whose size is positive but which have no chunks anywhere
    /// (sparse-by-truncate, or lost data).
    pub chunkless_files: Vec<String>,
}

impl FsckReport {
    /// No orphans found (chunkless files are informational).
    pub fn is_clean(&self) -> bool {
        self.orphan_chunks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::testing::{cluster, cluster_with};
    use gkfs_common::{ClusterConfig, OpenFlags};

    #[test]
    fn create_stat_unlink() {
        let (_d, c) = cluster(4);
        c.create("/file", 0o644).unwrap();
        let m = c.stat("/file").unwrap();
        assert_eq!(m.kind, FileKind::File);
        assert_eq!(m.size, 0);
        assert!(matches!(c.create("/file", 0o644), Err(GkfsError::Exists)));
        c.unlink("/file").unwrap();
        assert!(matches!(c.stat("/file"), Err(GkfsError::NotFound)));
    }

    #[test]
    fn mkdir_readdir_rmdir() {
        let (_d, c) = cluster(4);
        c.mkdir("/dir", 0o755).unwrap();
        for i in 0..20 {
            c.create(&format!("/dir/f{i:02}"), 0o644).unwrap();
        }
        c.mkdir("/dir/sub", 0o755).unwrap();
        let entries = c.readdir("/dir").unwrap();
        assert_eq!(entries.len(), 21);
        assert!(entries.windows(2).all(|w| w[0].name <= w[1].name), "sorted");
        assert_eq!(
            entries.iter().filter(|e| e.kind == FileKind::Directory).count(),
            1
        );
        // Non-empty directory refuses rmdir.
        assert!(matches!(c.rmdir("/dir"), Err(GkfsError::NotEmpty)));
        for i in 0..20 {
            c.unlink(&format!("/dir/f{i:02}")).unwrap();
        }
        c.rmdir("/dir/sub").unwrap();
        c.rmdir("/dir").unwrap();
        assert!(matches!(c.stat("/dir"), Err(GkfsError::NotFound)));
    }

    #[test]
    fn readdir_reports_sizes_like_ls_l() {
        // §III-A motivates readdir with `ls -l`: the listing must carry
        // sizes without a per-entry stat round.
        let (_d, c) = cluster(3);
        c.mkdir("/ls", 0o755).unwrap();
        let h = c.open_handle("/ls/small", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, b"12345").unwrap();
        h.close().unwrap();
        let h = c.open_handle("/ls/large", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, &vec![0u8; 10_000]).unwrap();
        h.close().unwrap();
        c.mkdir("/ls/sub", 0o755).unwrap();
        let entries = c.readdir("/ls").unwrap();
        let by_name: std::collections::HashMap<&str, &gkfs_common::types::Dirent> =
            entries.iter().map(|e| (e.name.as_str(), e)).collect();
        assert_eq!(by_name["small"].size, 5);
        assert_eq!(by_name["large"].size, 10_000);
        assert_eq!(by_name["sub"].size, 0);
        assert_eq!(by_name["sub"].kind, FileKind::Directory);
    }

    #[test]
    fn readdir_root_and_type_errors() {
        let (_d, c) = cluster(2);
        c.create("/a", 0o644).unwrap();
        let root = c.readdir("/").unwrap();
        assert_eq!(root.len(), 1);
        assert!(matches!(c.readdir("/a"), Err(GkfsError::NotDirectory)));
        assert!(matches!(c.rmdir("/a"), Err(GkfsError::NotDirectory)));
        assert!(matches!(c.unlink("/"), Err(GkfsError::IsDirectory)));
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let config = ClusterConfig::new(3).with_chunk_size(4096);
        let (_d, c) = cluster_with(3, config);
        let h = c.open_handle("/t", OpenFlags::RDWR.with_create()).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 256) as u8).collect();
        h.pwrite(0, &data).unwrap();
        h.truncate(5000).unwrap();
        assert_eq!(c.stat("/t").unwrap().size, 5000);
        assert_eq!(h.size(), 5000, "open handle snaps to the new size");
        let back = h.pread(0, 20_000).unwrap();
        assert_eq!(back, &data[..5000]);
        // Extending truncate zero-fills.
        c.truncate("/t", 8000).unwrap();
        assert_eq!(c.stat("/t").unwrap().size, 8000);
        let back = h.pread(0, 8000).unwrap();
        assert_eq!(&back[..5000], &data[..5000]);
        assert!(back[5000..].iter().all(|&b| b == 0));
        h.close().unwrap();
    }

    #[test]
    fn unsupported_operations() {
        let (_d, c) = cluster(1);
        assert!(matches!(c.rename("/a", "/b"), Err(GkfsError::Unsupported(_))));
        assert!(matches!(c.link("/a", "/b"), Err(GkfsError::Unsupported(_))));
        assert!(matches!(c.symlink("/a", "/b"), Err(GkfsError::Unsupported(_))));
    }

    #[test]
    fn deep_paths_and_many_files_balance() {
        let (_d, c) = cluster(8);
        for i in 0..400 {
            c.create(&format!("/load/f{i}"), 0o644).unwrap();
        }
        let stats = c.cluster_stats().unwrap();
        let counts: Vec<u64> = stats.iter().map(|s| s.meta_entries).collect();
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 401, "400 files + root (no /load dir needed: flat ns)");
        let max = *counts.iter().max().unwrap();
        assert!(max < 120, "metadata should balance, worst node has {max}");
    }

    #[test]
    fn fsck_clean_namespace() {
        let config = ClusterConfig::new(4).with_chunk_size(4096);
        let (_d, c) = cluster_with(4, config);
        c.mkdir("/data", 0o755).unwrap();
        for i in 0..10 {
            let p = format!("/data/f{i}");
            let h = c.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, &vec![1u8; 10_000]).unwrap();
            h.close().unwrap();
        }
        let report = c.fsck().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.files_checked, 10);
        assert!(report.directories_checked >= 2, "root + /data");
        assert!(report.chunkless_files.is_empty());
    }

    #[test]
    fn fsck_finds_and_purges_orphan_chunks() {
        let config = ClusterConfig::new(3).with_chunk_size(4096);
        let (daemons, c) = cluster_with(3, config);
        let h = c
            .open_handle("/will-orphan", OpenFlags::WRONLY.with_create())
            .unwrap();
        h.pwrite(0, &vec![7u8; 30_000]).unwrap();
        h.close().unwrap();
        // Sabotage: remove the metadata entry directly on its owner,
        // leaving the chunks stranded (a remove whose fan-out died).
        let mut removed = false;
        for d in &daemons {
            let remove = MetaOp::Unlink(PathReq::new("/will-orphan"));
            if d.backends().meta.apply_one(remove).is_ok() {
                removed = true;
                break;
            }
        }
        assert!(removed);
        let report = c.fsck().unwrap();
        assert!(!report.is_clean());
        assert!(report
            .orphan_chunks
            .iter()
            .all(|(_, p)| p == "/will-orphan"));
        let purged = c.fsck_purge(&report).unwrap();
        assert!(purged > 0);
        // Second pass: clean.
        assert!(c.fsck().unwrap().is_clean());
    }

    #[test]
    fn fsck_reports_truncate_extended_files_as_chunkless() {
        let (_d, c) = cluster(2);
        c.create("/sparse-only", 0o644).unwrap();
        c.truncate("/sparse-only", 5000).unwrap();
        let report = c.fsck().unwrap();
        assert!(report.is_clean(), "sparse files are not damage");
        assert_eq!(report.chunkless_files, vec!["/sparse-only".to_string()]);
    }

    #[test]
    fn bulk_unlink_removes_chunks_of_non_empty_files() {
        let config = ClusterConfig::new(2).with_chunk_size(4096);
        let (d, c) = cluster_with(2, config);
        for i in 0..4 {
            let h = c
                .open_handle(&format!("/uf{i}"), OpenFlags::RDWR.with_create())
                .unwrap();
            h.pwrite(0, &vec![7u8; 10_000]).unwrap();
            h.close().unwrap();
        }
        let res = c.unlink_many(&["/uf0", "/uf1", "/uf2", "/uf3"]).unwrap();
        assert!(res.iter().all(Result::is_ok));
        // Every daemon dropped the chunks, not just the metadata.
        for daemon in &d {
            for i in 0..4 {
                let held = daemon
                    .backends()
                    .data
                    .chunk_count(&format!("/uf{i}"))
                    .unwrap();
                assert_eq!(held, 0, "/uf{i} left chunks behind");
            }
        }
    }
}
