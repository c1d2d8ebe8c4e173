//! The file map: file descriptors without the kernel, and the one
//! place that says what this client believes about a file.
//!
//! GekkoFS cannot use kernel descriptors for its own files — the
//! preload library owns a range of descriptor numbers and resolves
//! them itself. We reproduce that: descriptors start at a high base
//! (so they can never collide with real kernel fds when the C ABI is
//! preloaded into an application) and map to [`OpenFile`] records with
//! their own offset state.
//!
//! Beside the descriptor table sits `paths`: one [`LocalFile`] per
//! path that has an open handle, shared by every handle on that path.
//! It holds everything the client knows about the file that the
//! daemons may not know yet — the size, the paper's §IV-B pending size
//! update, the write-back run, and whether this client unlinked it —
//! under one lock, so `stat`, reads, appends, truncate, unlink and the
//! flushes all consult and reset the same record. The record is pure
//! data: whatever must go to a daemon is *taken out* under the lock
//! and sent after the guard drops (GKL002).

use crate::writeback::{WbBuf, WbRun};
use gkfs_common::lock::{rank, OrderedMutex, OrderedMutexGuard, OrderedRwLock};
use gkfs_common::types::{FileKind, OpenFlags};
use gkfs_common::{GkfsError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, Weak};

/// First descriptor handed out — mirrors GekkoFS' offset trick that
/// keeps its fd space disjoint from the kernel's.
pub const FD_BASE: i32 = 100_000;

/// One size update bound for a file's metadata owner.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SizeUpdate {
    /// Size candidate (the daemon keeps the maximum).
    pub(crate) size: u64,
    /// Mtime ns.
    pub(crate) mtime_ns: u64,
}

/// The §IV-B size-update buffer of one file: *"a rudimentary client
/// cache to locally buffer size updates of a number of write
/// operations before they are send to the node that manages the file's
/// metadata"*.
#[derive(Default)]
struct Pending {
    /// Writes absorbed since the last update went out.
    ops: usize,
    /// Largest size candidate among them, with the latest mtime.
    update: SizeUpdate,
}

struct Known {
    /// The file's size as far as the daemons hold its bytes: seeded by
    /// the open-time stat, grown by this client's acknowledged writes,
    /// set by its truncates. Cross-client growth becomes visible on
    /// re-open (the GekkoFS handle contract).
    size: u64,
    pending: Option<Pending>,
    /// Small sequential writes not yet sent anywhere.
    wb: WbBuf,
    /// This client removed the file while the record was open.
    unlinked: bool,
}

impl Known {
    /// What the daemons hold plus the unflushed run's tail.
    fn eof(&self) -> u64 {
        self.size.max(self.wb.end().unwrap_or(0))
    }
}

/// What this client believes about one path with an open handle.
pub struct LocalFile {
    /// Path.
    pub path: String,
    /// Kind.
    pub kind: FileKind,
    /// Size updates buffered per update sent (0 = every write sends
    /// its own: the paper's default synchronous mode).
    window: usize,
    known: OrderedMutex<Known>,
    /// The table holding this record's `paths` entry.
    table: Weak<OrderedRwLock<Tables>>,
}

impl LocalFile {
    /// `NotFound` once this client has unlinked the path.
    pub(crate) fn linked(&self) -> Result<()> {
        self.live().map(drop)
    }

    /// The record, locked, while the path is still linked.
    fn live(&self) -> Result<OrderedMutexGuard<'_, Known>> {
        let known = self.known.lock();
        if known.unlinked {
            return Err(GkfsError::NotFound);
        }
        Ok(known)
    }

    /// The size reads, appends, `SEEK_END` and `stat` on this client
    /// must see: what the daemons hold plus the unflushed run's tail.
    pub fn size(&self) -> u64 {
        self.known.lock().eof()
    }

    /// [`LocalFile::size`] and the part of the buffered run inside
    /// `[offset, offset + len)`, from one look at the record: the same
    /// state answers a read's EOF question and its overlay.
    pub(crate) fn view(&self, offset: u64, len: u64) -> Result<(u64, Option<WbRun>)> {
        let known = self.live()?;
        Ok((known.eof(), known.wb.snapshot(offset, len)))
    }

    /// Offer a write to the run ([`WbBuf::offer`]): a displaced run to
    /// send first, whether the write itself must be sent, and the run
    /// again if absorbing the write filled it.
    pub(crate) fn offer(&self, offset: u64, data: &[u8]) -> Result<(Option<WbRun>, bool, Option<WbRun>)> {
        Ok(self.live()?.wb.offer(offset, data))
    }

    /// Take the buffered run out (flush, close, truncate's pre-flush).
    pub(crate) fn take_run(&self) -> Option<WbRun> {
        self.known.lock().wb.take()
    }

    /// The daemons acknowledged bytes up to `end`: grow the size and
    /// account the size update. `Some` is an update that must go out
    /// now (no window, or this write filled it); `None` one the window
    /// absorbed.
    pub(crate) fn wrote(&self, end: u64, mtime_ns: u64) -> Result<Option<SizeUpdate>> {
        let mut known = self.live()?;
        known.size = known.size.max(end);
        if self.window == 0 {
            return Ok(Some(SizeUpdate { size: end, mtime_ns }));
        }
        let p = known.pending.get_or_insert_with(Pending::default);
        p.ops += 1;
        p.update.size = p.update.size.max(end);
        p.update.mtime_ns = p.update.mtime_ns.max(mtime_ns);
        let filled = p.ops >= self.window;
        Ok(if filled { known.pending.take().map(|p| p.update) } else { None })
    }

    /// Take the buffered size update out (flush, close, unmount).
    pub(crate) fn take_pending(&self) -> Option<SizeUpdate> {
        self.known.lock().pending.take().map(|p| p.update)
    }

    /// The file was cut (or extended) to `size` at the daemons: that is
    /// its size now, and a buffered update from before the cut is moot.
    pub(crate) fn cut(&self, size: u64) {
        let mut known = self.known.lock();
        known.size = size;
        known.pending = None;
    }

    /// This client removed the file: the run and the pending update are
    /// discarded — sending either would resurrect the entry — and every
    /// later read or write through a surviving handle is `NotFound`.
    /// Returns the size the daemons may hold bytes up to.
    fn unlink(&self) -> u64 {
        let mut known = self.known.lock();
        known.unlinked = true;
        known.pending = None;
        known.wb.take();
        known.size
    }
}

impl Drop for LocalFile {
    /// The last handle is gone: drop the `paths` entry, unless a newer
    /// record (re-created after an unlink, or opened while this one was
    /// dying) already took it over.
    fn drop(&mut self) {
        let Some(table) = self.table.upgrade() else { return };
        let mut files = table.write();
        if files.paths.get(&self.path).is_some_and(|w| std::ptr::eq(w.as_ptr(), &*self)) {
            files.paths.remove(&self.path);
        }
    }
}

/// One open file or directory: a seek position over its path's record.
pub struct OpenFile {
    /// What the client knows about the file, shared with every other
    /// handle open on the path.
    pub local: Arc<LocalFile>,
    /// Flags.
    pub flags: OpenFlags,
    /// Current seek position. A lock (not an atomic) because
    /// read-modify-write sequences on it must be atomic with the I/O
    /// size decision.
    pos: OrderedMutex<u64>,
}

impl OpenFile {
    /// New, positioned at 0.
    pub fn new(local: Arc<LocalFile>, flags: OpenFlags) -> OpenFile {
        OpenFile {
            local,
            flags,
            pos: OrderedMutex::new(rank::CLIENT_FILE_POS, 0),
        }
    }

    /// Current position.
    pub fn pos(&self) -> u64 {
        *self.pos.lock()
    }

    /// Set the position, returning the new value.
    pub fn seek_to(&self, pos: u64) -> u64 {
        *self.pos.lock() = pos;
        pos
    }

    /// Advance by `delta` from the current position and return the
    /// *starting* offset of the I/O — the atomic "claim" used by
    /// `read`/`write`.
    pub fn advance(&self, delta: u64) -> u64 {
        let mut p = self.pos.lock();
        let start = *p;
        *p = start + delta;
        start
    }
}

struct Tables {
    fds: HashMap<i32, Arc<OpenFile>>,
    /// Every path with an open handle. Weak: the handles own the
    /// record, and its `Drop` removes the entry.
    paths: HashMap<String, Weak<LocalFile>>,
}

/// Descriptor table and per-path records for one client.
pub struct FileMap {
    files: Arc<OrderedRwLock<Tables>>,
    next_fd: AtomicI32,
    size_window: usize,
    wb_capacity: usize,
}

impl FileMap {
    /// New. `size_window` and `wb_capacity` are the mount's
    /// `size_cache_ops` and `write_back`, given to every record.
    pub fn new(size_window: usize, wb_capacity: usize) -> FileMap {
        let tables = Tables { fds: HashMap::new(), paths: HashMap::new() };
        FileMap {
            files: Arc::new(OrderedRwLock::new(rank::CLIENT_FILEMAP, tables)),
            next_fd: AtomicI32::new(FD_BASE),
            size_window,
            wb_capacity,
        }
    }

    /// The record of `path` for a handle being opened: the one its
    /// other open handles share, grown to the `size` this open's stat
    /// learned, or a fresh one seeded with it.
    pub(crate) fn attach(&self, path: &str, kind: FileKind, size: u64) -> Arc<LocalFile> {
        let mut files = self.files.write();
        if let Some(local) = files.paths.get(path).and_then(Weak::upgrade) {
            let mut known = local.known.lock();
            known.size = known.size.max(size);
            drop(known);
            return local;
        }
        let local = Arc::new(LocalFile {
            path: path.to_string(),
            kind,
            window: self.size_window,
            known: OrderedMutex::new(
                rank::CLIENT_LOCAL_FILE,
                Known { size, pending: None, wb: WbBuf::new(self.wb_capacity), unlinked: false },
            ),
            table: Arc::downgrade(&self.files),
        });
        files.paths.insert(path.to_string(), Arc::downgrade(&local));
        local
    }

    /// The record of `path`, if a handle is open on it.
    pub(crate) fn local(&self, path: &str) -> Option<Arc<LocalFile>> {
        self.files.read().paths.get(path).and_then(Weak::upgrade)
    }

    /// `path` was removed at the daemons: detach its record (the next
    /// open gets a fresh one) and mark it unlinked. Returns the size
    /// the daemons may hold bytes up to, as far as this client knew.
    pub(crate) fn unlink(&self, path: &str) -> Option<u64> {
        let local = self.files.write().paths.remove(path)?.upgrade()?;
        Some(local.unlink())
    }

    /// Every live record (unmount's flush).
    pub(crate) fn locals(&self) -> Vec<Arc<LocalFile>> {
        self.files.read().paths.values().filter_map(Weak::upgrade).collect()
    }

    /// Insert an open file, returning its new descriptor.
    pub fn insert(&self, file: OpenFile) -> i32 {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.files.write().fds.insert(fd, Arc::new(file));
        fd
    }

    /// Resolve a descriptor.
    pub fn get(&self, fd: i32) -> Result<Arc<OpenFile>> {
        self.files
            .read()
            .fds
            .get(&fd)
            .cloned()
            .ok_or(GkfsError::BadFileDescriptor)
    }

    /// Is this descriptor one of ours? (The preload layer uses this to
    /// decide whether to forward a call to the kernel.)
    pub fn owns(&self, fd: i32) -> bool {
        fd >= FD_BASE && self.files.read().fds.contains_key(&fd)
    }

    /// Close a descriptor, returning the file it referenced.
    pub fn remove(&self, fd: i32) -> Result<Arc<OpenFile>> {
        self.files
            .write()
            .fds
            .remove(&fd)
            .ok_or(GkfsError::BadFileDescriptor)
    }

    /// `dup`: new descriptor sharing the same open-file record
    /// (and therefore the same offset), as POSIX requires.
    pub fn dup(&self, fd: i32) -> Result<i32> {
        let file = self.get(fd)?;
        let new_fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.files.write().fds.insert(new_fd, file);
        Ok(new_fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(map: &FileMap, path: &str) -> OpenFile {
        OpenFile::new(map.attach(path, FileKind::File, 0), OpenFlags::RDWR)
    }

    #[test]
    fn insert_get_remove() {
        let map = FileMap::new(0, 0);
        let fd = map.insert(open(&map, "/a"));
        assert!(fd >= FD_BASE);
        assert_eq!(map.get(fd).unwrap().local.path, "/a");
        assert!(map.owns(fd));
        assert!(!map.owns(3)); // a typical kernel fd
        map.remove(fd).unwrap();
        assert!(matches!(map.get(fd), Err(GkfsError::BadFileDescriptor)));
        assert!(matches!(map.remove(fd), Err(GkfsError::BadFileDescriptor)));
    }

    #[test]
    fn descriptors_are_unique() {
        let map = FileMap::new(0, 0);
        let fds: Vec<i32> = (0..100).map(|i| map.insert(open(&map, &format!("/f{i}")))).collect();
        let mut sorted = fds.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn dup_shares_offset() {
        let map = FileMap::new(0, 0);
        let fd = map.insert(open(&map, "/x"));
        let fd2 = map.dup(fd).unwrap();
        assert_ne!(fd, fd2);
        map.get(fd).unwrap().seek_to(500);
        assert_eq!(map.get(fd2).unwrap().pos(), 500, "dup'd fds share position");
        // Closing one leaves the other usable.
        map.remove(fd).unwrap();
        assert_eq!(map.get(fd2).unwrap().local.path, "/x");
    }

    #[test]
    fn advance_claims_ranges_atomically() {
        let map = FileMap::new(0, 0);
        let fd = map.insert(open(&map, "/seq"));
        let f = map.get(fd).unwrap();
        let mut starts: Vec<u64> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let f = f.clone();
                    s.spawn(move || (0..100).map(|_| f.advance(10)).collect::<Vec<u64>>())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        starts.sort();
        // 800 disjoint 10-byte claims: 0, 10, ..., 7990.
        assert_eq!(starts.len(), 800);
        for (i, s) in starts.iter().enumerate() {
            assert_eq!(*s, i as u64 * 10);
        }
    }

    #[test]
    fn handles_on_one_path_share_a_record_that_dies_with_the_last() {
        let map = FileMap::new(0, 64);
        let a = open(&map, "/p");
        let b = OpenFile::new(map.attach("/p", FileKind::File, 7), OpenFlags::RDWR);
        assert!(Arc::ptr_eq(&a.local, &b.local));
        assert_eq!(a.local.size(), 7, "a later open's stat grows the record");
        a.local.offer(7, b"abc").unwrap();
        assert_eq!(b.local.size(), 10, "B sees what A buffered");
        assert_eq!(map.locals().len(), 1);
        drop(a);
        assert!(map.local("/p").is_some());
        drop(b);
        assert!(map.local("/p").is_none());
        assert!(map.files.read().paths.is_empty(), "no dead entry left behind");
    }

    #[test]
    fn an_unlinked_record_answers_not_found_and_holds_nothing_to_send() {
        let map = FileMap::new(100, 64);
        let stale = open(&map, "/u");
        stale.local.offer(0, b"buffered").unwrap();
        stale.local.wrote(4096, 1).unwrap();
        assert_eq!(map.unlink("/u"), Some(4096));
        assert_eq!(map.unlink("/u"), None, "already detached");
        assert!(matches!(stale.local.offer(0, b"x"), Err(GkfsError::NotFound)));
        assert!(matches!(stale.local.view(0, 8), Err(GkfsError::NotFound)));
        assert!(matches!(stale.local.wrote(1, 1), Err(GkfsError::NotFound)));
        assert_eq!(stale.local.take_run(), None);
        assert_eq!(stale.local.take_pending(), None);
        // Re-creating the path gets a fresh record; the stale one's
        // death leaves the fresh one's entry alone.
        let fresh = open(&map, "/u");
        assert!(!Arc::ptr_eq(&fresh.local, &stale.local));
        assert_eq!(fresh.local.size(), 0);
        drop(stale);
        assert!(Arc::ptr_eq(&map.local("/u").unwrap(), &fresh.local));
    }

    // The §IV-B size-update window, per record.

    fn record(map: &FileMap, path: &str) -> Arc<LocalFile> {
        map.attach(path, FileKind::File, 0)
    }

    #[test]
    fn no_window_passes_every_update_through() {
        let map = FileMap::new(0, 0);
        let f = record(&map, "/f");
        assert_eq!(f.wrote(100, 1).unwrap(), Some(SizeUpdate { size: 100, mtime_ns: 1 }));
        assert_eq!(f.take_pending(), None);
        assert_eq!(f.size(), 100);
    }

    #[test]
    fn window_coalesces_to_max() {
        let map = FileMap::new(4, 0);
        let f = record(&map, "/f");
        assert_eq!(f.wrote(100, 1).unwrap(), None);
        assert_eq!(f.wrote(50, 2).unwrap(), None);
        assert_eq!(f.wrote(300, 3).unwrap(), None);
        // The 4th op fills the window: max size, latest mtime.
        assert_eq!(f.wrote(200, 4).unwrap(), Some(SizeUpdate { size: 300, mtime_ns: 4 }));
        assert_eq!(f.take_pending(), None);
    }

    #[test]
    fn paths_are_independent() {
        let map = FileMap::new(2, 0);
        let (a, b) = (record(&map, "/a"), record(&map, "/b"));
        assert_eq!(a.wrote(10, 1).unwrap(), None);
        assert_eq!(b.wrote(20, 1).unwrap(), None);
        assert_eq!(a.wrote(5, 2).unwrap().unwrap().size, 10);
        assert_eq!(b.take_pending().unwrap().size, 20);
    }

    #[test]
    fn close_drains_a_partial_window_once() {
        let map = FileMap::new(100, 0);
        let f = record(&map, "/f");
        f.wrote(42, 7).unwrap();
        assert_eq!(f.take_pending(), Some(SizeUpdate { size: 42, mtime_ns: 7 }));
        assert_eq!(f.take_pending(), None, "second drain is empty");
        assert_eq!(record(&map, "/never").take_pending(), None);
    }

    #[test]
    fn a_cut_drops_the_update_buffered_before_it() {
        let map = FileMap::new(100, 0);
        let f = record(&map, "/f");
        f.wrote(500, 1).unwrap();
        f.cut(3);
        assert_eq!(f.size(), 3);
        assert_eq!(f.take_pending(), None);
    }

    #[test]
    fn concurrent_records_never_lose_the_max() {
        let map = FileMap::new(10, 0);
        let f = record(&map, "/hot");
        let shipped: u64 = std::thread::scope(|s| {
            (0..8u64)
                .map(|t| {
                    let f = &f;
                    s.spawn(move || {
                        (0..100u64)
                            .filter_map(|i| f.wrote(t * 1000 + i, i).unwrap())
                            .map(|u| u.size)
                            .max()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .filter_map(|h| h.join().unwrap())
                .max()
                .unwrap_or(0)
        });
        // What was shipped plus what is still buffered covers the
        // largest candidate; the record's own size never lags it.
        let leftover = f.take_pending().map_or(0, |u| u.size);
        assert_eq!(shipped.max(leftover), 7099);
        assert_eq!(f.size(), 7099);
    }
}
