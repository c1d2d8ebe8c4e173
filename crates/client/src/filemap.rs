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
//! update, the write-back run, and where its entry stands (not yet
//! created at the daemons, there, or gone) — and, on a write-back
//! mount, the *head*: a small file whole, as a read-only open received
//! it — under one lock, so `stat`, reads, appends, truncate, unlink and the
//! flushes all consult and reset the same record. The record is pure
//! data: whatever must go to a daemon is *taken out* under the lock
//! and sent after the guard drops (GKL002).

use crate::writeback::{WbBuf, WbRun};
use bytes::Bytes;
use gkfs_common::hash::fnv1a64;
use gkfs_common::lock::{rank, Condvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock};
use gkfs_common::types::{FileKind, OpenFlags};
use gkfs_common::{GkfsError, Result};
use gkfs_rpc::proto::{NewFile, HEAD_MAX};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// First descriptor handed out — mirrors GekkoFS' offset trick that
/// keeps its fd space disjoint from the kernel's.
pub const FD_BASE: i32 = 100_000;

/// One size update bound for a file's metadata owner — and, before it
/// is one, what a write of bytes up to `size` at `mtime_ns` has to say.
pub(crate) use gkfs_rpc::proto::SizeCandidate as SizeUpdate;

/// The §IV-B size-update buffer of one file: *"a rudimentary client
/// cache to locally buffer size updates of a number of write
/// operations before they are send to the node that manages the file's
/// metadata"*.
#[derive(Default)]
struct Pending {
    /// Acknowledged writes no acknowledged update covers yet.
    ops: usize,
    /// Largest size candidate among them, with the latest mtime.
    update: SizeUpdate,
}

/// Where the file's entry stands at the daemons, as far as this client
/// knows.
enum Entry {
    /// The daemons hold it.
    Born,
    /// A write-back mount opened the path `O_CREAT|O_EXCL` and has told
    /// nobody yet: the create rides the file's first flush, exactly as
    /// its bytes do.
    Unborn(NewFile),
    /// That flush is in flight on some thread. Nothing else of this
    /// file may reach a daemon before the create's verdict is in — a
    /// refused create writes nothing — so whoever needs the daemons to
    /// know the file waits for it ([`LocalFile::riders`]).
    Publishing,
    /// This client unlinked the path (`NotFound`) or its create was
    /// refused (the refusal): what the record still held was discarded,
    /// and every later read or write through a surviving handle
    /// answers this error.
    Gone(GkfsError),
}

/// What rides the data legs of a write to the file's metadata write
/// set, decided by [`LocalFile::riders`] before a byte moves.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Riders {
    /// The size update due with this write (none: the §IV-B window
    /// absorbs it, or it would not grow what the owner holds).
    pub(crate) update: Option<SizeUpdate>,
    /// The create of an unborn file: this write is its first flush.
    /// Whoever takes it owes the record the verdict
    /// ([`LocalFile::published`]).
    pub(crate) create: Option<NewFile>,
}

/// What [`LocalFile::view`] saw of the record for one read.
pub(crate) struct View {
    /// EOF ([`LocalFile::size`]).
    pub(crate) size: u64,
    /// The part of the buffered run inside the read, copied out.
    pub(crate) overlay: Option<WbRun>,
    /// The read's bytes below the run — its range clamped to EOF, short
    /// where only holes follow — when this client holds them and no
    /// daemon need be asked: a range inside the head, or anything at
    /// all of a file the daemons have not been told of.
    pub(crate) held: Option<Bytes>,
}

/// A small file whole, as [`GekkoClient::open_chain`](crate::client::GekkoClient::open_chain)
/// received it, on its way into the path's record.
pub(crate) struct Head {
    /// `[0, len)` of the file.
    pub(crate) bytes: Bytes,
    /// [`FileMap::stamp`] of the path, read before the daemons were
    /// asked.
    pub(crate) asked_at: u64,
}

struct Known {
    /// The file's size as far as the daemons hold its bytes: seeded by
    /// the open-time stat, grown by this client's acknowledged writes,
    /// set by its truncates. Cross-client growth becomes visible on
    /// re-open (the GekkoFS handle contract).
    size: u64,
    /// The largest size the file's metadata owner is known to hold:
    /// what the open-time stat said, raised by every acknowledged
    /// update, set by this client's truncates. Not `size`: with a
    /// window above 0, `size` grows before its update is sent. Another
    /// client's truncate below it goes unseen until this client opens
    /// the path again.
    mark: u64,
    /// End of the last range an `O_APPEND` write claimed: the record
    /// grows only when a write is acknowledged (or buffered), so until
    /// then this is what keeps the next appender off the same offset.
    claimed: u64,
    pending: Option<Pending>,
    /// Small sequential writes not yet sent anywhere.
    wb: WbBuf,
    /// The whole file — `[0, head.len())`, holes zero-filled — as the
    /// daemon that holds its entry and chunk 0 had it when the newest
    /// read-only open of the path on this (write-back) mount asked
    /// ([`FileMap::attach`]). Reads inside it ask nobody. Gone with the
    /// first write this mount offers the path, with a cut, an unlink
    /// and the record itself; the next open that learns nothing newer
    /// takes it away too.
    head: Option<Bytes>,
    entry: Entry,
}

impl Known {
    /// What the daemons hold, plus the unflushed run's tail, plus what
    /// appends in flight have claimed.
    fn eof(&self) -> u64 {
        self.size.max(self.claimed).max(self.wb.end().unwrap_or(0))
    }
}

/// What this client believes about one path with an open handle.
pub struct LocalFile {
    /// Path.
    pub path: String,
    /// Kind.
    pub kind: FileKind,
    /// Size updates buffered per update sent (0 = every write that
    /// grows the file sends its own: the paper's default synchronous
    /// mode).
    window: usize,
    known: OrderedMutex<Known>,
    /// Signalled when a create in flight gets its verdict.
    verdict: Condvar,
    /// The mount's tables, holding this record's `paths` entry and its
    /// path's stamp.
    shared: Weak<Shared>,
}

impl LocalFile {
    /// `NotFound` once this client has unlinked the path; the refusal
    /// once its create was refused.
    pub(crate) fn linked(&self) -> Result<()> {
        self.live().map(drop)
    }

    /// The record, locked, while the path is not [`Entry::Gone`].
    fn live(&self) -> Result<OrderedMutexGuard<'_, Known>> {
        let known = self.known.lock();
        if let Entry::Gone(why) = &known.entry {
            return Err(why.clone());
        }
        Ok(known)
    }

    /// The daemons have not been told of this file yet: a call about to
    /// ask them about the path publishes it first.
    pub(crate) fn unborn(&self) -> bool {
        matches!(self.known.lock().entry, Entry::Unborn(_) | Entry::Publishing)
    }

    /// The size reads, appends, `SEEK_END` and `stat` on this client
    /// must see: what the daemons hold plus the unflushed run's tail.
    pub fn size(&self) -> u64 {
        self.known.lock().eof()
    }

    /// What a read of `[offset, offset + len)` needs of the record, from
    /// one look at it: the same state answers the read's EOF question,
    /// its overlay, and whether a daemon need be asked at all.
    pub(crate) fn view(&self, offset: u64, len: u64) -> Result<View> {
        let known = self.live()?;
        let size = known.eof();
        let end = size.min(offset.saturating_add(len));
        let held = match (&known.entry, &known.head) {
            // The daemons have never heard of the file: below the run
            // there is nothing but holes.
            (Entry::Unborn(_), _) => Some(Bytes::new()),
            (_, Some(head)) if offset < end && end <= head.len() as u64 => {
                Some(head.slice(offset as usize..end as usize))
            }
            _ => None,
        };
        Ok(View { size, overlay: known.wb.snapshot(offset, len), held })
    }

    /// Offer a write to the run ([`WbBuf::offer`]): a displaced run to
    /// send first, whether the write itself must be sent, and the run
    /// again if absorbing the write filled it.
    /// The head goes here, before the write is buffered or sent: from
    /// now on the file is not what the open received.
    pub(crate) fn offer(&self, offset: u64, data: &[u8]) -> Result<(Option<WbRun>, bool, Option<WbRun>)> {
        let mut known = self.live()?;
        known.head = None;
        Ok(known.wb.offer(offset, data))
    }

    /// Take the buffered run out (flush, close, truncate's pre-flush).
    pub(crate) fn take_run(&self) -> Option<WbRun> {
        self.known.lock().wb.take()
    }

    /// Claim `[EOF, EOF + len)` for an `O_APPEND` write and return its
    /// start: one step under the record's lock, so two threads
    /// appending through this mount never get the same offset.
    pub(crate) fn claim_append(&self, len: u64) -> u64 {
        let mut known = self.known.lock();
        let start = known.eof();
        known.claimed = start + len;
        start
    }

    /// What rides a write in flight to the metadata write set, decided
    /// before a byte moves. The size update: `wrote` is what the bytes
    /// will say once they land (none: a flush with no run to send),
    /// merged with what the §IV-B window holds. An update leaves with
    /// the write that fills the window — every write at window 0 —
    /// if the merged candidate grows past the owner's mark (predicted
    /// here, not discovered after the data legs), and with anything at
    /// all when `flush` forces it. One that is not due is held, not
    /// dropped: the next growing write or the flush carries it, with
    /// the latest mtime (the owner's merge is a max-fold, so holding a
    /// size it already has never lowers what a `stat` sees). The create: an
    /// unborn file's goes with whatever is sent first, and is taken out
    /// here — the record is [`Entry::Publishing`] until the caller
    /// reports the verdict ([`LocalFile::published`]); a thread that
    /// finds it so waits, because nothing of the file may overtake its
    /// create. A write to a path that is gone answers why; a flush of
    /// one finds nothing to send.
    pub(crate) fn riders(&self, wrote: Option<SizeUpdate>, flush: bool) -> Result<Riders> {
        let mut known = self.known.lock();
        while matches!(known.entry, Entry::Publishing) {
            known.wait(&self.verdict);
        }
        if let Entry::Gone(why) = &known.entry {
            return wrote.map_or(Ok(Riders::default()), |_| Err(why.clone()));
        }
        let held = known.pending.as_ref();
        let ops = held.map_or(0, |p| p.ops) + usize::from(wrote.is_some());
        let all = held.map(|p| p.update).into_iter().chain(wrote).reduce(SizeUpdate::merge);
        let grows = all.is_some_and(|u| u.size > known.mark);
        let due = flush || (grows && ops >= self.window.max(1));
        let create = match known.entry {
            Entry::Unborn(create) => {
                known.entry = Entry::Publishing;
                Some(create)
            }
            _ => None,
        };
        Ok(Riders { update: all.filter(|_| due), create })
    }

    /// The create [`LocalFile::riders`] handed out got its verdict from
    /// the metadata write set. Acknowledged: the file is born. Refused
    /// by a daemon that answered (`Exists`, whoever won the path): the
    /// record is gone — its run and pending update discarded, its
    /// `paths` entry given up so the next open starts from what the
    /// daemons say. No answer (the node is down): nothing is known, and
    /// the create waits for the next flush.
    pub(crate) fn published(&self, create: NewFile, verdict: &Result<()>) {
        let mut known = self.known.lock();
        known.entry = match verdict {
            Ok(()) => Entry::Born,
            Err(e) if e.is_node_down() => Entry::Unborn(create),
            Err(e) => Entry::Gone(e.clone()),
        };
        let gone = matches!(known.entry, Entry::Gone(_));
        if gone {
            known.discard();
        }
        drop(known);
        self.verdict.notify_all();
        if gone {
            self.detach();
        }
    }

    /// Give up the `paths` entry, unless a newer record already took it
    /// over.
    fn detach(&self) {
        let Some(shared) = self.shared.upgrade() else { return };
        let mut files = shared.files.write();
        if files.paths.get(&self.path).is_some_and(|w| std::ptr::eq(w.as_ptr(), self)) {
            files.paths.remove(&self.path);
        }
    }

    /// A write in flight landed: the daemons acknowledged the bytes
    /// `wrote` speaks for (grow the size), and `sent`, the update its
    /// size leg carried, if it had one and it was acknowledged too (the
    /// owner holds at least that now: the mark rises to it).
    /// A candidate stays in the window until an acknowledged update
    /// covers it: `sent` covers this write and everything the window
    /// held when the leg was decided, so only what another thread
    /// landed since stays behind.
    pub(crate) fn landed(&self, wrote: Option<SizeUpdate>, sent: Option<SizeUpdate>) -> Result<()> {
        let mut known = self.live()?;
        if wrote.is_some() {
            // An open that was on its way while these bytes were may
            // have left its head here since the write was offered.
            known.head = None;
            if let Some(shared) = self.shared.upgrade() {
                shared.touch(&self.path);
            }
        }
        known.size = known.size.max(wrote.map_or(0, |w| w.size));
        known.mark = known.mark.max(sent.map_or(0, |s| s.size));
        match (sent, wrote) {
            (Some(sent), _) => known.pending = known.pending.take().filter(|p| p.update.merge(sent) != sent),
            (None, Some(wrote)) => {
                let p = known.pending.get_or_insert_with(Pending::default);
                p.ops += 1;
                p.update = p.update.merge(wrote);
            }
            (None, None) => {}
        }
        Ok(())
    }

    /// The file was cut (or extended) to `size` at the daemons: that is
    /// its size now, at the owner too, and a buffered update or an
    /// append's claim from before the cut is moot.
    pub(crate) fn cut(&self, size: u64) {
        let mut known = self.known.lock();
        known.size = size;
        known.mark = size;
        known.claimed = 0;
        known.pending = None;
        known.head = None;
    }


    /// This client removed the file: the run and the pending update are
    /// discarded — sending either would resurrect the entry — and every
    /// later read or write through a surviving handle is `NotFound`.
    /// Returns the size the daemons may hold bytes up to.
    fn unlink(&self) -> u64 {
        let mut known = self.known.lock();
        known.entry = Entry::Gone(GkfsError::NotFound);
        known.discard();
        known.size
    }
}

impl Known {
    /// Drop what the record held for the daemons: the path is gone.
    fn discard(&mut self) {
        self.claimed = 0;
        self.pending = None;
        self.head = None;
        self.wb.take();
    }
}

impl Drop for LocalFile {
    /// The last handle is gone: drop the `paths` entry, unless a newer
    /// record (re-created after an unlink, or opened while this one was
    /// dying) already took it over.
    fn drop(&mut self) {
        self.detach();
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

    /// [`OpenFile::advance`] for a `read` of `len` bytes from a file
    /// that ends at `eof`: claim what is left of it from the current
    /// position, in one step — two readers of one descriptor never get
    /// the same bytes, and never push its offset past `eof`. Returns
    /// the starting offset and the bytes claimed.
    pub fn claim_read(&self, len: u64, eof: u64) -> (u64, u64) {
        let mut p = self.pos.lock();
        let start = *p;
        let claimed = eof.saturating_sub(start).min(len);
        *p = start + claimed;
        (start, claimed)
    }
}

struct Tables {
    fds: HashMap<i32, Arc<OpenFile>>,
    /// Every path with an open handle. Weak: the handles own the
    /// record, and its `Drop` removes the entry.
    paths: HashMap<String, Weak<LocalFile>>,
}

/// Paths share a stamp when their hashes agree modulo this.
const STAMPS: usize = 64;

/// What the mount's records share with the [`FileMap`].
struct Shared {
    files: OrderedRwLock<Tables>,
    /// Per path (hashed): moved by everything this mount does that
    /// changes the path's bytes at the daemons — an acknowledged write,
    /// a truncate, an unlink — and by every open that attaches to its
    /// record. An open reads it before it asks the daemons; the head it
    /// comes back with is kept only if the stamp has stood still, so
    /// what a head holds is never older than anything this mount has
    /// since written, cut or opened.
    stamps: [AtomicU64; STAMPS],
}

impl Shared {
    fn stamp_of(&self, path: &str) -> &AtomicU64 {
        &self.stamps[fnv1a64(path.as_bytes()) as usize % STAMPS]
    }

    /// Move `path`'s stamp; returns where it stood.
    fn touch(&self, path: &str) -> u64 {
        self.stamp_of(path).fetch_add(1, Ordering::SeqCst)
    }
}

/// Descriptor table and per-path records for one client.
pub struct FileMap {
    shared: Arc<Shared>,
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
            shared: Arc::new(Shared {
                files: OrderedRwLock::new(rank::CLIENT_FILEMAP, tables),
                stamps: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
            next_fd: AtomicI32::new(FD_BASE),
            size_window,
            wb_capacity,
        }
    }

    /// The largest file a read-only open on this mount asks to be sent
    /// whole: a write-back mount (the mounts whose small-file reads are
    /// close-to-open) takes what fits both its write-back buffer and a
    /// small reply frame; a write-through mount reads the daemons.
    pub(crate) fn head_max(&self) -> u64 {
        (self.wb_capacity as u64).min(HEAD_MAX)
    }

    /// `path`'s stamp, for an open about to ask the daemons ([`Head`]).
    pub(crate) fn stamp(&self, path: &str) -> u64 {
        self.shared.stamp_of(path).load(Ordering::SeqCst)
    }

    /// This mount changed `path`'s bytes at the daemons without going
    /// through a record (a truncate or an unlink by path).
    pub(crate) fn touch(&self, path: &str) {
        self.shared.touch(path);
    }

    /// The record of `path` for a handle being opened: the one its
    /// other open handles share, grown to the `size` this open learned,
    /// or a fresh one seeded with it. The open's `head` becomes the
    /// record's — replacing an older open's — if nothing this mount did
    /// to the path overtook it on the way ([`Shared::stamps`]) and it
    /// covers the size the record believes after the merge: a record
    /// that knows the file longer than the daemon said (a flush in
    /// flight, a run's tail) keeps reading the daemons. An open that
    /// brings none leaves none: what an older open received is not what
    /// this one was told.
    pub(crate) fn attach(&self, path: &str, kind: FileKind, size: u64, head: Option<Head>) -> Arc<LocalFile> {
        let mut files = self.shared.files.write();
        let now = self.shared.touch(path);
        let head = head.filter(|h| h.asked_at == now).map(|h| h.bytes);
        let local = match files.paths.get(path).and_then(Weak::upgrade) {
            Some(local) => local,
            None => self.insert_record(&mut files, path, kind, size, Entry::Born),
        };
        let mut known = local.known.lock();
        known.size = known.size.max(size);
        // The owner's freshest word, even below the old mark: another
        // client's truncate seen here ends the window, and a mark set
        // too low costs at most an update.
        known.mark = size;
        known.head = head.filter(|h| h.len() as u64 >= known.eof());
        drop(known);
        local
    }

    /// A fresh record of `path`, put in the table.
    fn insert_record(&self, files: &mut Tables, path: &str, kind: FileKind, size: u64, entry: Entry) -> Arc<LocalFile> {
        let local = Arc::new(LocalFile {
            path: path.to_string(),
            kind,
            window: self.size_window,
            known: OrderedMutex::new(
                rank::CLIENT_LOCAL_FILE,
                Known { size, mark: size, claimed: 0, pending: None, wb: WbBuf::new(self.wb_capacity), head: None, entry },
            ),
            verdict: Condvar::new(),
            shared: Arc::downgrade(&self.shared),
        });
        files.paths.insert(path.to_string(), Arc::downgrade(&local));
        local
    }

    /// Whether an exclusive create waits for its file's first flush: a
    /// write-back mount publishes a new file exactly as it publishes
    /// its bytes. A write-through mount creates at `open`.
    pub(crate) fn defers_creates(&self) -> bool {
        self.wb_capacity > 0
    }

    /// The record of a file `create` will make at its first flush: a
    /// fresh, empty, unborn one — or, when this client already has the
    /// path open, that record, for the caller to judge.
    pub(crate) fn attach_unborn(&self, path: &str, create: NewFile) -> std::result::Result<Arc<LocalFile>, Arc<LocalFile>> {
        let mut files = self.shared.files.write();
        match files.paths.get(path).and_then(Weak::upgrade) {
            Some(open) => Err(open),
            None => Ok(self.insert_record(&mut files, path, FileKind::File, 0, Entry::Unborn(create))),
        }
    }

    /// The record of `path`, if a handle is open on it.
    pub(crate) fn local(&self, path: &str) -> Option<Arc<LocalFile>> {
        self.shared.files.read().paths.get(path).and_then(Weak::upgrade)
    }

    /// `path` was removed at the daemons: detach its record (the next
    /// open gets a fresh one) and mark it unlinked. Returns the size
    /// the daemons may hold bytes up to, as far as this client knew.
    pub(crate) fn unlink(&self, path: &str) -> Option<u64> {
        self.touch(path);
        let local = self.shared.files.write().paths.remove(path)?.upgrade()?;
        Some(local.unlink())
    }

    /// Every live record (unmount's flush).
    pub(crate) fn locals(&self) -> Vec<Arc<LocalFile>> {
        self.shared.files.read().paths.values().filter_map(Weak::upgrade).collect()
    }

    /// Every record whose file the daemons have not been told of (what
    /// a directory-level call publishes first).
    pub(crate) fn unborn_locals(&self) -> Vec<Arc<LocalFile>> {
        let mut all = self.locals();
        all.retain(|local| local.unborn());
        all
    }

    /// Insert an open file, returning its new descriptor.
    pub fn insert(&self, file: OpenFile) -> i32 {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.shared.files.write().fds.insert(fd, Arc::new(file));
        fd
    }

    /// Resolve a descriptor.
    pub fn get(&self, fd: i32) -> Result<Arc<OpenFile>> {
        self.shared
            .files
            .read()
            .fds
            .get(&fd)
            .cloned()
            .ok_or(GkfsError::BadFileDescriptor)
    }

    /// Is this descriptor one of ours? (The preload layer uses this to
    /// decide whether to forward a call to the kernel.)
    pub fn owns(&self, fd: i32) -> bool {
        fd >= FD_BASE && self.shared.files.read().fds.contains_key(&fd)
    }

    /// Close a descriptor, returning the file it referenced.
    pub fn remove(&self, fd: i32) -> Result<Arc<OpenFile>> {
        self.shared
            .files
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
        self.shared.files.write().fds.insert(new_fd, file);
        Ok(new_fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(map: &FileMap, path: &str) -> OpenFile {
        OpenFile::new(map.attach(path, FileKind::File, 0, None), OpenFlags::RDWR)
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
        let b = OpenFile::new(map.attach("/p", FileKind::File, 7, None), OpenFlags::RDWR);
        assert!(Arc::ptr_eq(&a.local, &b.local));
        assert_eq!(a.local.size(), 7, "a later open's stat grows the record");
        a.local.offer(7, b"abc").unwrap();
        assert_eq!(b.local.size(), 10, "B sees what A buffered");
        assert_eq!(map.locals().len(), 1);
        drop(a);
        assert!(map.local("/p").is_some());
        drop(b);
        assert!(map.local("/p").is_none());
        assert!(map.shared.files.read().paths.is_empty(), "no dead entry left behind");
    }

    fn up(size: u64, mtime_ns: u64) -> SizeUpdate {
        SizeUpdate { size, mtime_ns }
    }

    /// One write as the client drives the record: decide the size leg,
    /// then — every leg acknowledged — land the bytes and the update.
    /// Returns the update sent.
    fn wrote(f: &LocalFile, size: u64, mtime_ns: u64) -> Result<Option<SizeUpdate>> {
        let sent = f.riders(Some(up(size, mtime_ns)), false)?.update;
        f.landed(Some(up(size, mtime_ns)), sent)?;
        Ok(sent)
    }

    /// What a flush would send now (deciding changes nothing).
    fn held(f: &LocalFile) -> Option<SizeUpdate> {
        f.riders(None, true).unwrap().update
    }

    #[test]
    fn an_unlinked_record_answers_not_found_and_holds_nothing_to_send() {
        let map = FileMap::new(100, 64);
        let stale = open(&map, "/u");
        stale.local.offer(0, b"buffered").unwrap();
        wrote(&stale.local, 4096, 1).unwrap();
        assert_eq!(stale.local.claim_append(10), 4096);
        assert_eq!(map.unlink("/u"), Some(4096));
        assert_eq!(map.unlink("/u"), None, "already detached");
        assert!(matches!(stale.local.offer(0, b"x"), Err(GkfsError::NotFound)));
        assert!(matches!(stale.local.view(0, 8).map(|v| v.size), Err(GkfsError::NotFound)));
        assert!(matches!(stale.local.riders(Some(up(1, 1)), false), Err(GkfsError::NotFound)));
        assert!(matches!(stale.local.landed(Some(up(1, 1)), None), Err(GkfsError::NotFound)));
        assert_eq!(stale.local.take_run(), None);
        assert_eq!(held(&stale.local), None);
        assert_eq!(stale.local.size(), 4096, "the append's claim went with the entry");
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
        map.attach(path, FileKind::File, 0, None)
    }

    #[test]
    fn no_window_passes_every_update_through() {
        let map = FileMap::new(0, 0);
        let f = record(&map, "/f");
        assert_eq!(wrote(&f, 100, 1).unwrap(), Some(up(100, 1)));
        assert_eq!(held(&f), None);
        assert_eq!(f.size(), 100);
    }

    #[test]
    fn window_coalesces_to_max() {
        let map = FileMap::new(4, 0);
        let f = record(&map, "/f");
        assert_eq!(wrote(&f, 100, 1).unwrap(), None);
        assert_eq!(wrote(&f, 50, 2).unwrap(), None);
        assert_eq!(wrote(&f, 300, 3).unwrap(), None);
        // The 4th op fills the window: max size, latest mtime.
        assert_eq!(wrote(&f, 200, 4).unwrap(), Some(up(300, 4)));
        assert_eq!(held(&f), None);
    }

    #[test]
    fn paths_are_independent() {
        let map = FileMap::new(2, 0);
        let (a, b) = (record(&map, "/a"), record(&map, "/b"));
        assert_eq!(wrote(&a, 10, 1).unwrap(), None);
        assert_eq!(wrote(&b, 20, 1).unwrap(), None);
        assert_eq!(wrote(&a, 5, 2).unwrap().unwrap().size, 10);
        assert_eq!(held(&b).unwrap().size, 20);
    }

    #[test]
    fn a_flush_carries_the_window_and_the_run_in_one_update() {
        let map = FileMap::new(100, 0);
        let f = record(&map, "/f");
        wrote(&f, 42, 7).unwrap();
        // A flush with a run ending at 90: one leg, both candidates.
        let sent = f.riders(Some(up(90, 9)), true).unwrap().update;
        assert_eq!(sent, Some(up(90, 9)));
        f.landed(Some(up(90, 9)), sent).unwrap();
        assert_eq!((f.size(), held(&f)), (90, None), "second drain is empty");
        assert_eq!(held(&record(&map, "/never")), None);
    }

    #[test]
    fn deciding_a_leg_changes_nothing_and_an_unacknowledged_update_stays_held() {
        let map = FileMap::new(2, 0);
        let f = record(&map, "/f");
        wrote(&f, 10, 1).unwrap();
        // The window-filling write is predicted...
        assert_eq!(f.riders(Some(up(30, 2)), false).unwrap().update, Some(up(30, 2)));
        // ...but its data leg failed: the record is as it was.
        assert_eq!((f.size(), held(&f)), (10, Some(up(10, 1))));
        // Data acknowledged, size leg refused: the bytes count, and
        // their candidate waits for the next update.
        f.landed(Some(up(30, 2)), None).unwrap();
        assert_eq!((f.size(), held(&f)), (30, Some(up(30, 2))));
        assert_eq!(wrote(&f, 20, 3).unwrap(), Some(up(30, 3)));
        assert_eq!(held(&f), None);
    }

    #[test]
    fn an_update_clears_only_what_it_covers() {
        let map = FileMap::new(2, 0);
        let f = record(&map, "/f");
        wrote(&f, 10, 1).unwrap();
        let a = f.riders(Some(up(20, 2)), false).unwrap().update;
        assert_eq!(a, Some(up(20, 2)));
        // While A is in flight another thread's write lands, absorbed.
        f.landed(Some(up(50, 3)), None).unwrap();
        f.landed(Some(up(20, 2)), a).unwrap();
        assert_eq!(held(&f), Some(up(50, 3)), "B's candidate went with no update yet");
        assert_eq!(f.size(), 50);
    }

    #[test]
    fn a_cut_drops_the_update_buffered_before_it() {
        let map = FileMap::new(100, 0);
        let f = record(&map, "/f");
        wrote(&f, 500, 1).unwrap();
        assert_eq!(f.claim_append(8), 500);
        f.cut(3);
        assert_eq!(f.size(), 3);
        assert_eq!(held(&f), None);
    }

    // The owner's mark: an update that would not grow what the owner
    // holds waits in the window.

    /// A flush as the client drives it: decide, then land what it sent.
    fn flushed(f: &LocalFile) -> Option<SizeUpdate> {
        let sent = held(f);
        f.landed(None, sent).unwrap();
        sent
    }

    #[test]
    fn a_write_at_or_below_the_mark_sends_nothing_and_is_held() {
        let map = FileMap::new(0, 0);
        let f = record(&map, "/f");
        assert_eq!(wrote(&f, 100, 1).unwrap(), Some(up(100, 1)));
        assert_eq!(wrote(&f, 50, 2).unwrap(), None, "below the mark");
        assert_eq!(wrote(&f, 100, 3).unwrap(), None, "at the mark");
        assert_eq!(held(&f), Some(up(100, 3)), "held, not dropped");
        assert_eq!(f.size(), 100);
    }

    #[test]
    fn the_next_growing_write_carries_the_held_update() {
        let map = FileMap::new(0, 0);
        let f = record(&map, "/f");
        wrote(&f, 100, 1).unwrap();
        assert_eq!(wrote(&f, 60, 5).unwrap(), None);
        // Its own mtime is older than the held one: the latest goes.
        assert_eq!(wrote(&f, 150, 4).unwrap(), Some(up(150, 5)));
        assert_eq!(held(&f), None, "the update covered what was held");
    }

    #[test]
    fn a_flush_sends_the_held_update_exactly_once() {
        let map = FileMap::new(0, 0);
        let f = record(&map, "/f");
        wrote(&f, 100, 1).unwrap();
        wrote(&f, 60, 2).unwrap();
        wrote(&f, 30, 3).unwrap();
        assert_eq!(flushed(&f), Some(up(60, 3)));
        assert_eq!(flushed(&f), None, "nothing left to send");
        assert_eq!(wrote(&f, 100, 4).unwrap(), None, "the mark stayed at 100");
    }

    #[test]
    fn a_refused_size_leg_leaves_the_mark_where_it_was() {
        let map = FileMap::new(0, 0);
        let f = record(&map, "/f");
        wrote(&f, 100, 1).unwrap();
        assert_eq!(f.riders(Some(up(200, 2)), false).unwrap().update, Some(up(200, 2)));
        f.landed(Some(up(200, 2)), None).unwrap();
        assert_eq!(f.size(), 200, "the bytes count");
        // The owner may still hold 100: a write to 150 grows past it.
        assert_eq!(wrote(&f, 150, 3).unwrap(), Some(up(200, 3)));
        assert_eq!(wrote(&f, 150, 4).unwrap(), None, "acknowledged: the mark is 200");
    }

    #[test]
    fn a_cut_resets_the_mark_and_the_open_time_size_seeds_it() {
        let map = FileMap::new(0, 0);
        let f = map.attach("/f", FileKind::File, 1000, None);
        assert_eq!(wrote(&f, 500, 1).unwrap(), None, "the open learned 1000");
        f.cut(10);
        assert_eq!(held(&f), None);
        assert_eq!(wrote(&f, 60, 2).unwrap(), Some(up(60, 2)), "past the cut");
        f.cut(5000);
        assert_eq!(wrote(&f, 100, 3).unwrap(), None, "below an extending cut");
        // Another open of the path learns what the owner holds now.
        let g = map.attach("/f", FileKind::File, 30, None);
        assert!(Arc::ptr_eq(&f, &g));
        assert_eq!(wrote(&f, 40, 4).unwrap(), Some(up(100, 4)), "past the open's 30");
    }

    #[test]
    fn a_window_filling_write_leaves_only_if_it_grows() {
        let map = FileMap::new(2, 0);
        let f = map.attach("/f", FileKind::File, 100, None);
        assert_eq!(wrote(&f, 50, 1).unwrap(), None, "the window is not full");
        assert_eq!(wrote(&f, 80, 2).unwrap(), None, "full, but grows nothing");
        assert_eq!(wrote(&f, 90, 3).unwrap(), None);
        assert_eq!(wrote(&f, 150, 4).unwrap(), Some(up(150, 4)));
        assert_eq!(held(&f), None);
        assert_eq!(wrote(&f, 200, 5).unwrap(), None, "a growing write still waits for a full window");
    }

    #[test]
    fn append_claims_are_disjoint_and_count_as_eof() {
        let map = FileMap::new(0, 64);
        let f = record(&map, "/log");
        f.offer(0, b"abc").unwrap();
        assert_eq!(f.claim_append(5), 3, "past the buffered tail");
        assert_eq!(f.claim_append(2), 8, "past the claim before it, landed or not");
        assert_eq!(f.size(), 10);
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
                            .filter_map(|i| wrote(f, t * 1000 + i, i).unwrap())
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
        let leftover = held(&f).map_or(0, |u| u.size);
        assert_eq!(shipped.max(leftover), 7099);
        assert_eq!(f.size(), 7099);
    }
}
