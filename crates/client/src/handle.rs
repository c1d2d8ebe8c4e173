//! Open files: the open protocol, the descriptor shims of the preload
//! ABI, and [`FileHandle`] — the client's I/O surface. Everything a
//! handle knows about its file beyond flags and position is its path's
//! [`LocalFile`](crate::filemap::LocalFile).

use crate::client::{now_ns, GekkoClient};
use crate::filemap::{Head, OpenFile, View};
use crate::meta_frames::create_op;
use gkfs_common::path as gpath;
use gkfs_common::{FileKind, GkfsError, Metadata, OpenFlags, Result};
use gkfs_rpc::proto::NewFile;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Seek origin for [`GekkoClient::lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Absolute offset (`SEEK_SET`).
    Set,
    /// Relative to the current position (`SEEK_CUR`).
    Cur,
    /// Relative to end of file (`SEEK_END`).
    End,
}

impl GekkoClient {
    /// Open (optionally creating) a file, returning a GekkoFS fd.
    ///
    /// The descriptor is a [`FileHandle`] kept in the descriptor table:
    /// it shares its path's record (size, write-back run) with every
    /// other descriptor and handle open on the path.
    pub fn open(&self, path: &str, flags: OpenFlags) -> Result<i32> {
        Ok(self.files.insert(self.open_file(path, flags)?))
    }

    /// Open (optionally creating) a file as an explicit [`FileHandle`]
    /// — the primary I/O surface of the client. The handle knows the
    /// file's size from its open (no stat RPC per read) and, when
    /// [`ClusterConfig::with_write_back`](gkfs_common::ClusterConfig::with_write_back)
    /// enables it, coalesces small sequential writes in the path's
    /// write-back buffer.
    pub fn open_handle(&self, path: &str, flags: OpenFlags) -> Result<FileHandle<'_>> {
        Ok(self.file_handle(Arc::new(self.open_file(path, flags)?), true))
    }

    /// Borrow an existing descriptor as a [`FileHandle`] view. The view
    /// shares the descriptor's offset and its path's record, but never
    /// flushes on drop — `close(fd)` owns that.
    pub fn handle(&self, fd: i32) -> Result<FileHandle<'_>> {
        Ok(self.file_handle(self.files.get(fd)?, false))
    }

    /// A handle over `file`; `owned` = dropping it flushes.
    fn file_handle(&self, file: Arc<OpenFile>, owned: bool) -> FileHandle<'_> {
        FileHandle { client: self, file, owned }
    }

    /// The open-path protocol shared by [`GekkoClient::open`] and
    /// [`GekkoClient::open_handle`].
    ///
    /// On a write-back mount `O_CREAT|O_EXCL` sends nothing: the new
    /// file is *unborn* — its record holds the create, and the file's
    /// first flush carries create, bytes and size to the metadata owner
    /// as one frame. Until then no other client sees it, and an
    /// `Exists` surfaces at that flush, exactly as a failed write-back
    /// of its bytes would; opening a path that is still unborn
    /// exclusively again is `Exists` here.
    ///
    /// Every other open learns the entry by one `OpenFile` frame
    /// ([`GekkoClient::open_chain`]). On a write-back mount a read-only
    /// open asks for the file with it, and a small file that comes back
    /// whole becomes the *head* of the path's record
    /// ([`FileMap::attach`](crate::filemap::FileMap::attach)): the
    /// handle holds the file as of this open, exactly as every handle
    /// holds its EOF as of its open, and reads inside it ask nobody.
    fn open_file(&self, path: &str, flags: OpenFlags) -> Result<OpenFile> {
        let path = gpath::normalize(path)?;
        if flags.create {
            self.stats.creates.fetch_add(1, Ordering::Relaxed);
            if flags.exclusive && self.files.defers_creates() {
                let create = NewFile { mode: 0o644, exclusive: true, now_ns: now_ns() };
                match self.files.attach_unborn(&path, create) {
                    Ok(local) => return Ok(OpenFile::new(local, flags)),
                    Err(open) if open.unborn() => return Err(GkfsError::Exists),
                    // This client has the path open: the daemons decide.
                    Err(_) => {}
                }
            }
            self.meta_call(create_op(path.clone(), FileKind::File, 0o644, flags.exclusive))?;
        }
        let (kind, mut size, head) = if flags.create && flags.exclusive {
            // Freshly created: must be an empty file — nothing to ask
            // on the mdtest hot path.
            (FileKind::File, 0, None)
        } else {
            // A handle that can write holds no head, and a write-through
            // mount none at all: 0 is a value of `head_max` like any
            // other.
            let head_max = if flags.write { 0 } else { self.files.head_max().min(self.layout.chunk_size) };
            let asked_at = self.files.stamp(&path);
            let (meta, file) = self.open_chain(&path, head_max)?;
            // A non-exclusive create may have hit an existing entry of
            // either kind; `open(dir, O_CREAT|O_WRONLY)` must fail with
            // EISDIR, not scribble on a directory.
            if meta.is_dir() && flags.write {
                return Err(GkfsError::IsDirectory);
            }
            (meta.kind, meta.size, file.map(|bytes| Head { bytes, asked_at }))
        };
        if flags.truncate && kind == FileKind::File {
            self.truncate(&path, 0)?;
            size = 0;
        }
        let file = OpenFile::new(self.files.attach(&path, kind, size, head), flags);
        if flags.append {
            // O_APPEND: position at the open-time EOF — what the open
            // learned and what the path's record already believed, not
            // another stat RPC.
            file.seek_to(file.local.size());
        }
        Ok(file)
    }

    /// Close a descriptor: flush its path's write-back buffer and any
    /// buffered size update.
    pub fn close(&self, fd: i32) -> Result<()> {
        self.file_handle(self.files.remove(fd)?, false).flush()
    }

    /// `dup(2)`.
    pub fn dup(&self, fd: i32) -> Result<i32> {
        self.files.dup(fd)
    }

    /// Reposition a descriptor. `SEEK_END` resolves against the
    /// path's record — no stat RPC.
    pub fn lseek(&self, fd: i32, offset: i64, whence: Whence) -> Result<u64> {
        self.handle(fd)?.seek(offset, whence)
    }

    /// Write at the current position, advancing it.
    pub fn write(&self, fd: i32, data: &[u8]) -> Result<usize> {
        self.handle(fd)?.write(data)
    }

    /// Positional write (`pwrite`); does not move the descriptor.
    pub fn pwrite(&self, fd: i32, offset: u64, data: &[u8]) -> Result<usize> {
        self.handle(fd)?.pwrite(offset, data)
    }

    /// Read from the current position, advancing by the bytes returned.
    pub fn read(&self, fd: i32, len: usize) -> Result<Vec<u8>> {
        self.handle(fd)?.read(len)
    }

    /// Positional read (`pread`); does not move the descriptor.
    pub fn pread(&self, fd: i32, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.handle(fd)?.pread(offset, len)
    }

    /// [`GekkoClient::read`] into `buf`: the bytes read, at its front.
    pub fn read_into(&self, fd: i32, buf: &mut [u8]) -> Result<usize> {
        self.handle(fd)?.read_into(buf)
    }

    /// [`GekkoClient::pread`] into `buf`: the bytes read, at its front.
    pub fn pread_into(&self, fd: i32, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.handle(fd)?.pread_into(offset, buf)
    }

    /// Flush this descriptor's write-back buffer and buffered size
    /// updates to the daemons.
    pub fn fsync(&self, fd: i32) -> Result<()> {
        self.handle(fd)?.flush()
    }
}

/// An explicit open-file handle — the primary I/O surface of the
/// client ([`GekkoClient::open_handle`]).
///
/// The handle is the open flags and a seek position over its path's
/// [`LocalFile`](crate::filemap::LocalFile), which carries what GekkoFS
/// keeps in its client-side open-file table: the size learned at open
/// (so reads and `SEEK_END` never pay a stat RPC) and an optional
/// write-back buffer that coalesces small sequential writes into
/// chunk-aligned batches
/// ([`ClusterConfig::with_write_back`](gkfs_common::ClusterConfig::with_write_back)).
/// Every handle this client has open on the path shares the record.
///
/// Consistency contract: reads through any of those handles see the
/// client's buffered writes immediately (read-your-writes), and `stat`
/// on the same client sees the buffered tail in the size; *other*
/// clients see the bytes only after `flush`/`fsync`/`close` — the same
/// relaxation the paper's §IV-B size cache already makes. Cross-client
/// growth of the file becomes visible on re-open — and on a write-back
/// mount so does any other client's write to a small file a read-only
/// handle is open on: that handle holds the file as of the path's newest
/// open on this mount (DESIGN.md "A read-only open of a small file
/// returns the file"). Once this client
/// unlinks the path, reads and writes through a surviving handle
/// answer `NotFound` and its `flush`/`close` send nothing.
///
/// Handles from [`GekkoClient::open_handle`] flush on drop
/// (best-effort, errors swallowed); call [`FileHandle::close`] to
/// observe flush errors. Views from [`GekkoClient::handle`] never
/// flush on drop — the descriptor table owns their lifecycle.
pub struct FileHandle<'c> {
    client: &'c GekkoClient,
    file: Arc<OpenFile>,
    /// Whether dropping the handle flushes: true for
    /// [`GekkoClient::open_handle`], false for borrowed views of a
    /// descriptor, whose `close(fd)` does.
    owned: bool,
}

impl FileHandle<'_> {
    /// The normalized path this handle is open on.
    pub fn path(&self) -> &str {
        &self.file.local.path
    }

    /// File or directory?
    pub fn kind(&self) -> FileKind {
        self.file.local.kind
    }

    /// The file size as this client knows it: open-time size, grown by
    /// its writes through any handle on the path, including any
    /// unflushed write-back tail. Never issues an RPC.
    pub fn size(&self) -> u64 {
        self.client
            .stats
            .size_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        self.file.local.size()
    }

    /// Full metadata (one stat), with the size raised to what the
    /// path's record believes.
    pub fn stat(&self) -> Result<Metadata> {
        self.file.local.linked()?;
        self.client.stat(self.path())
    }

    /// Positional write; does not move the handle's offset. Small
    /// writes coalesce in the write-back buffer when enabled.
    pub fn pwrite(&self, offset: u64, data: &[u8]) -> Result<usize> {
        let (c, local) = (self.client, &*self.file.local);
        if !self.file.flags.write {
            return Err(GkfsError::BadFileDescriptor);
        }
        c.stats.write_ops.fetch_add(1, Ordering::Relaxed);
        c.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        if data.is_empty() {
            // POSIX: a zero-length write has no effect — in particular
            // it must not extend the file via a size update.
            return Ok(0);
        }
        // Decided under the record's lock; every RPC happens after the
        // guard drops (GKL002).
        let (flush_first, through, ready) = local.offer(offset, data)?;
        if let Some(run) = flush_first {
            c.flush_run(local, run)?;
        }
        if through {
            c.write_through(local, offset, data)?;
        } else {
            c.stats
                .wb_buffered_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        if let Some(run) = ready {
            c.flush_run(local, run)?;
        }
        Ok(data.len())
    }

    /// Write at the current offset, advancing it. `O_APPEND` handles
    /// claim their range at this client's view of EOF — no stat RPC,
    /// and no two appends through this mount share an offset;
    /// concurrent appenders from different clients may interleave (no
    /// distributed locking, §III-A).
    pub fn write(&self, data: &[u8]) -> Result<usize> {
        if !self.file.flags.write {
            return Err(GkfsError::BadFileDescriptor);
        }
        let offset = if self.file.flags.append {
            let start = self.file.local.claim_append(data.len() as u64);
            self.file.seek_to(start + data.len() as u64);
            start
        } else {
            self.file.advance(data.len() as u64)
        };
        self.pwrite(offset, data)?;
        Ok(data.len())
    }

    /// Positional read; does not move the handle's offset. EOF comes
    /// from the path's record (no stat RPC) and buffered write-back
    /// bytes overlay the daemons' data — or the record's own, where it
    /// holds the range: inside the head a read-only open left there, and
    /// anywhere in a file the daemons have not been told of (nothing
    /// but holes below the run), no daemon is asked.
    pub fn pread(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let result = &mut out;
        let n = self.read_at(offset, len, move |n| {
            result.reserve_exact(n);
            &mut result.spare_capacity_mut()[..n]
        })?;
        // SAFETY: `read_at` returned `n`, so every byte of the `n` it
        // was given — the vector's first `n` bytes of capacity — landed
        // or was written.
        unsafe { out.set_len(n) };
        Ok(out)
    }

    /// [`FileHandle::pread`] into `buf`, the caller's own memory: a
    /// chunk read's bytes land there straight off the socket. Returns
    /// how many bytes were read, at the front of `buf`; past them `buf`
    /// is as it was. On an error — a corrupt reply included — the
    /// contents of `buf` are unspecified.
    pub fn pread_into(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let len = buf.len();
        // SAFETY: `MaybeUninit<u8>` has `u8`'s layout, and a read writes
        // initialised bytes only — received, copied or zeros — so `buf`
        // stays initialised whatever becomes of the read.
        let out = unsafe { &mut *(std::ptr::from_mut(buf) as *mut [MaybeUninit<u8>]) };
        self.read_at(offset, len, move |n| &mut out[..n])
    }

    /// The read of [`FileHandle::pread`] and [`FileHandle::pread_into`]:
    /// up to `len` bytes at `offset` into the buffer `out` gives for as
    /// many as EOF allows, and that count. Every byte of that buffer is
    /// initialised on success.
    fn read_at<'o>(
        &self,
        offset: u64,
        len: usize,
        out: impl FnOnce(usize) -> &'o mut [MaybeUninit<u8>],
    ) -> Result<usize> {
        let c = self.client;
        if !self.file.flags.read {
            return Err(GkfsError::BadFileDescriptor);
        }
        if self.kind() == FileKind::Directory {
            return Err(GkfsError::IsDirectory);
        }
        c.stats.read_ops.fetch_add(1, Ordering::Relaxed);
        // One look at the record answers the EOF question, the overlay
        // below and whether a daemon need be asked, even if a concurrent
        // flush empties the buffer in between. Only the bytes this read
        // overlaps are copied out.
        let View { size, overlay, held } = self.file.local.view(offset, len as u64)?;
        c.stats
            .size_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        if offset >= size || len == 0 {
            return Ok(0);
        }
        let effective = (len as u64).min(size - offset) as usize;
        let out = out(effective);
        let mut assembled = 0;
        match held {
            Some(held) => {
                let (bytes, zeros) = out.split_at_mut(held.len());
                bytes.write_copy_of_slice(&held);
                zeros.fill(MaybeUninit::new(0));
                assembled += effective;
            }
            None => c.read_scatter(self.path(), offset, out)?,
        }
        if let Some(run) = overlay {
            // Within the result: `size` covers the run's end, so the
            // overlap with `[offset, offset + len)` ends inside
            // `[offset, offset + effective)`.
            let dst = (run.start - offset) as usize;
            out[dst..dst + run.data.len()].write_copy_of_slice(&run.data);
            assembled += run.data.len();
        }
        c.stats.read_assembly_copy_bytes.fetch_add(assembled as u64, Ordering::Relaxed);
        c.stats
            .bytes_read
            .fetch_add(effective as u64, Ordering::Relaxed);
        Ok(effective)
    }

    /// Read from the current offset, advancing by the bytes returned.
    pub fn read(&self, len: usize) -> Result<Vec<u8>> {
        let (start, claimed) = self.claim_read(len)?;
        self.pread(start, claimed)
    }

    /// [`FileHandle::read`] into `buf`, as [`FileHandle::pread_into`]
    /// reads: the bytes read, at its front.
    pub fn read_into(&self, buf: &mut [u8]) -> Result<usize> {
        let (start, claimed) = self.claim_read(buf.len())?;
        self.pread_into(start, &mut buf[..claimed])
    }

    /// Claim up to `len` bytes at the current offset, advancing it.
    fn claim_read(&self, len: usize) -> Result<(u64, usize)> {
        if !self.file.flags.read {
            return Err(GkfsError::BadFileDescriptor);
        }
        if self.kind() == FileKind::Directory {
            return Err(GkfsError::IsDirectory);
        }
        let (start, claimed) = self.file.claim_read(len as u64, self.file.local.size());
        Ok((start, claimed as usize))
    }

    /// Reposition the handle. `SEEK_END` resolves against the record's
    /// size — no stat RPC.
    pub fn seek(&self, offset: i64, whence: Whence) -> Result<u64> {
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => self.file.pos() as i64,
            Whence::End => self.size() as i64,
        };
        let target = base + offset;
        if target < 0 {
            return Err(GkfsError::InvalidArgument("seek before start".into()));
        }
        Ok(self.file.seek_to(target as u64))
    }

    /// Force the path's write-back buffer, any buffered size update
    /// and — if the file is still unborn — its create out to the
    /// daemons: one write in flight, the update (and the create) riding
    /// the run's data legs. After `flush` returns Ok, the file and
    /// every byte this client wrote to it are visible to every client;
    /// a refused create is this call's error, and nothing was written
    /// anywhere. (Once the path is gone — unlinked here, or refused —
    /// everything held back is gone with it and nothing is sent.)
    pub fn flush(&self) -> Result<()> {
        self.client.flush_files(&mut [Arc::clone(&self.file.local)])
    }

    /// `fsync(2)` semantics: [`FileHandle::flush`].
    pub fn fsync(&self) -> Result<()> {
        self.flush()
    }

    /// Truncate (or extend) the file, flushing buffered writes first
    /// (program order: writes issued before the truncate land before
    /// it applies).
    pub fn truncate(&self, new_size: u64) -> Result<()> {
        self.file.local.linked()?;
        self.client.truncate(self.path(), new_size)
    }

    /// Close the handle, flushing buffered state and reporting errors
    /// (the drop flush cannot).
    pub fn close(mut self) -> Result<()> {
        self.owned = false;
        self.flush()
    }
}

impl Drop for FileHandle<'_> {
    fn drop(&mut self) {
        if self.owned {
            // Best-effort: close() is the error-reporting path.
            let _ = self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::testing::{cluster, cluster_with};
    use gkfs_common::ClusterConfig;
    use gkfs_daemon::Daemon;
    use gkfs_rpc::Endpoint;

    #[test]
    fn reads_stop_at_eof() {
        let (_d, c) = cluster(2);
        let h = c.open_handle("/short", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"12345").unwrap();
        assert_eq!(h.pread(0, 1000).unwrap(), b"12345");
        assert!(h.pread(5, 10).unwrap().is_empty());
        assert!(h.pread(500, 10).unwrap().is_empty());
        h.close().unwrap();
        // A fresh read-only handle sees the same EOF from its open-time
        // stat, without a per-read round trip.
        let r = c.open_handle("/short", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 1000).unwrap(), b"12345");
        assert!(r.pread(5, 10).unwrap().is_empty());
        r.close().unwrap();
    }

    #[test]
    fn fd_read_write_seek() {
        let (_d, c) = cluster(3);
        let fd = c
            .open("/fd-file", OpenFlags::create_truncate().with_exclusive())
            .unwrap();
        // create_truncate is write-only; reopen for read-write.
        c.close(fd).unwrap();
        let fd = c.open("/fd-file", OpenFlags::RDWR).unwrap();
        assert_eq!(c.write(fd, b"abcdef").unwrap(), 6);
        assert_eq!(c.lseek(fd, 0, Whence::Set).unwrap(), 0);
        assert_eq!(c.read(fd, 3).unwrap(), b"abc");
        assert_eq!(c.read(fd, 10).unwrap(), b"def");
        assert!(c.read(fd, 10).unwrap().is_empty(), "at EOF");
        assert_eq!(c.lseek(fd, -2, Whence::End).unwrap(), 4);
        assert_eq!(c.read(fd, 10).unwrap(), b"ef");
        c.close(fd).unwrap();
        assert!(matches!(c.read(fd, 1), Err(GkfsError::BadFileDescriptor)));
    }

    #[test]
    fn pread_pwrite_do_not_move_position() {
        let (_d, c) = cluster(2);
        let fd = c.open("/p", OpenFlags::RDWR.with_create()).unwrap();
        c.pwrite(fd, 0, b"0123456789").unwrap();
        assert_eq!(c.pread(fd, 4, 3).unwrap(), b"456");
        assert_eq!(c.files().get(fd).unwrap().pos(), 0, "position unmoved");
        assert_eq!(c.read(fd, 2).unwrap(), b"01");
        c.close(fd).unwrap();
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let (_d, c) = cluster(2);
        let h = c.open_handle("/log", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, b"first").unwrap();
        h.close().unwrap();
        let fd = c.open("/log", OpenFlags::WRONLY.with_append()).unwrap();
        c.write(fd, b"|second").unwrap();
        c.close(fd).unwrap();
        let r = c.open_handle("/log", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 100).unwrap(), b"first|second");
    }

    #[test]
    fn appenders_on_one_mount_never_share_an_offset() {
        // Four threads, each with its own O_APPEND descriptor on one
        // path, 200 16-byte records each. The record grows only when a
        // write is acknowledged (write-through) or offered
        // (write-back), so "read EOF, then write there" handed two
        // threads the same offset and lost more than half the records.
        const REC: usize = 16;
        for write_back in [0, 64 * 1024] {
            let (_d, c) = cluster_with(2, ClusterConfig::new(2).with_write_back(write_back));
            c.create("/log", 0o644).unwrap();
            std::thread::scope(|s| {
                for t in 1..=4u8 {
                    let c = &c;
                    s.spawn(move || {
                        let fd = c.open("/log", OpenFlags::WRONLY.with_append()).unwrap();
                        for _ in 0..200 {
                            assert_eq!(c.write(fd, &[t; REC]).unwrap(), REC);
                        }
                        c.close(fd).unwrap();
                    });
                }
            });
            assert_eq!(c.stat("/log").unwrap().size, 4 * 200 * REC as u64, "write_back {write_back}");
            let r = c.open_handle("/log", OpenFlags::RDONLY).unwrap();
            let log = r.pread(0, 4 * 200 * REC).unwrap();
            let mut per_thread = [0usize; 5];
            for rec in log.chunks(REC) {
                assert!(rec.iter().all(|&b| b == rec[0]), "torn record {rec:?}");
                per_thread[rec[0] as usize] += 1;
            }
            assert_eq!(per_thread, [0, 200, 200, 200, 200], "write_back {write_back}");
        }
    }

    #[test]
    fn open_nonexistent_fails_without_create() {
        let (_d, c) = cluster(2);
        assert!(matches!(
            c.open("/nope", OpenFlags::RDONLY),
            Err(GkfsError::NotFound)
        ));
        // O_CREAT|O_EXCL on existing file fails.
        c.create("/exists", 0o644).unwrap();
        assert!(matches!(
            c.open("/exists", OpenFlags::WRONLY.with_create().with_exclusive()),
            Err(GkfsError::Exists)
        ));
        // Plain O_CREAT succeeds on existing file.
        let fd = c.open("/exists", OpenFlags::WRONLY.with_create()).unwrap();
        c.close(fd).unwrap();
    }

    #[test]
    fn open_creat_on_directory_is_eisdir() {
        let (_d, c) = cluster(2);
        c.mkdir("/a-dir", 0o755).unwrap();
        // Non-exclusive O_CREAT|O_WRONLY on a directory: EISDIR.
        assert!(matches!(
            c.open("/a-dir", OpenFlags::WRONLY.with_create()),
            Err(GkfsError::IsDirectory)
        ));
        // Read-only open of the directory (for the file map) works.
        let fd = c.open("/a-dir", OpenFlags::RDONLY.with_create()).unwrap();
        assert_eq!(c.files().get(fd).unwrap().local.kind, FileKind::Directory);
        c.close(fd).unwrap();
        // Exclusive create of the same path still refuses (Exists).
        assert!(matches!(
            c.open("/a-dir", OpenFlags::WRONLY.with_create().with_exclusive()),
            Err(GkfsError::Exists)
        ));
    }

    #[test]
    fn open_truncate_clears_data() {
        let (_d, c) = cluster(2);
        let h = c.open_handle("/t", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, b"old contents").unwrap();
        h.close().unwrap();
        let fd = c.open("/t", OpenFlags::WRONLY.with_truncate()).unwrap();
        c.close(fd).unwrap();
        assert_eq!(c.stat("/t").unwrap().size, 0);
        let r = c.open_handle("/t", OpenFlags::RDONLY).unwrap();
        assert!(r.pread(0, 100).unwrap().is_empty());
    }

    #[test]
    fn write_back_coalesces_small_writes() {
        let config = ClusterConfig::new(2).with_write_back(64 * 1024);
        let (daemons, c) = cluster_with(2, config);
        let h = c.open_handle("/wb", OpenFlags::RDWR.with_create()).unwrap();
        // 8 sequential 1 KiB writes: all buffered, zero data RPCs.
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        for i in 0..8usize {
            h.pwrite(i as u64 * 1024, &payload[i * 1024..(i + 1) * 1024])
                .unwrap();
        }
        assert_eq!(c.stats().wb_buffered_bytes.load(Ordering::Relaxed), 8192);
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 0);
        // Read-your-writes straight from the buffer; size included.
        assert_eq!(h.pread(0, 8192).unwrap(), payload);
        assert_eq!(h.size(), 8192);
        assert_eq!(c.stat("/wb").unwrap().size, 8192);
        // Another client sees nothing until the flush...
        let other = {
            let eps: Vec<Arc<dyn Endpoint>> = daemons.iter().map(|d| d.endpoint()).collect();
            GekkoClient::mount(eps, &ClusterConfig::new(2)).unwrap()
        };
        assert_eq!(other.stat("/wb").unwrap().size, 0);
        // ...which lands all eight writes as one coalesced batch.
        h.flush().unwrap();
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 1);
        assert_eq!(other.stat("/wb").unwrap().size, 8192);
        let oh = other.open_handle("/wb", OpenFlags::RDONLY).unwrap();
        assert_eq!(oh.pread(0, 8192).unwrap(), payload);
        oh.close().unwrap();
        h.close().unwrap();
    }

    #[test]
    fn write_back_drains_at_capacity_and_on_displacement() {
        let config = ClusterConfig::new(2).with_write_back(4096);
        let (_d, c) = cluster_with(2, config);
        let h = c.open_handle("/drain", OpenFlags::RDWR.with_create()).unwrap();
        for i in 0..4u64 {
            h.pwrite(i * 1024, &[i as u8 + 1; 1024]).unwrap();
        }
        // Hit capacity: exactly one coalesced batch went out.
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 1);
        // A disjoint write displaces the current run.
        h.pwrite(100_000, b"far").unwrap();
        h.pwrite(4096, b"near").unwrap();
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 2);
        h.flush().unwrap();
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 3);
        assert_eq!(h.size(), 100_003);
        assert_eq!(h.pread(100_000, 3).unwrap(), b"far");
        assert_eq!(h.pread(4096, 4).unwrap(), b"near");
        // An oversized write (>= capacity) goes straight through.
        h.pwrite(0, &vec![9u8; 8192]).unwrap();
        assert_eq!(
            c.stats().wb_flushes.load(Ordering::Relaxed),
            3,
            "write-through, not a buffer flush"
        );
        assert_eq!(h.pread(0, 8192).unwrap(), vec![9u8; 8192]);
        h.close().unwrap();
    }

    #[test]
    fn buffered_writes_survive_truncate_ordering() {
        // Writes buffered before a truncate must land before it
        // applies (program order), so the truncate wins.
        let config = ClusterConfig::new(2).with_write_back(64 * 1024);
        let (_d, c) = cluster_with(2, config);
        let h = c.open_handle("/order", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"0123456789").unwrap();
        h.truncate(4).unwrap();
        assert_eq!(h.size(), 4);
        assert_eq!(h.pread(0, 100).unwrap(), b"0123");
        // Writing after the truncate extends again from the cut.
        h.pwrite(4, b"XY").unwrap();
        h.flush().unwrap();
        assert_eq!(c.stat("/order").unwrap().size, 6);
        assert_eq!(h.pread(0, 100).unwrap(), b"0123XY");
        h.close().unwrap();
    }

    #[test]
    fn handle_reads_skip_the_stat_round_trip() {
        let (daemons, c) = cluster(2);
        let h = c
            .open_handle("/no-read-stat", OpenFlags::RDWR.with_create())
            .unwrap();
        h.pwrite(0, b"0123456789").unwrap();
        let gets = |ds: &Vec<Arc<Daemon>>| -> u64 {
            ds.iter()
                .map(|d| d.backends().meta.db().stats().kv_gets.load(Ordering::Relaxed))
                .sum()
        };
        let before = gets(&daemons);
        for _ in 0..50 {
            assert_eq!(h.pread(0, 10).unwrap(), b"0123456789");
        }
        assert_eq!(
            gets(&daemons) - before,
            0,
            "handle reads must not stat the metadata owner"
        );
        assert!(c.stats().size_cache_hits.load(Ordering::Relaxed) >= 50);
        // SEEK_END is served from the cached size too.
        assert_eq!(h.seek(0, Whence::End).unwrap(), 10);
        assert_eq!(gets(&daemons) - before, 0);
        h.close().unwrap();
    }

    #[test]
    fn threads_draining_one_descriptor_read_every_byte_once_and_stop_at_eof() {
        // `read` took the position and advanced it under two
        // acquisitions of the lock: two readers of a 100-byte file
        // asking 80 each both saw 80 available, the second started at 80,
        // got 20, and the offset ended at 160 — a later `write` on the
        // descriptor landed behind a hole. Only the reads that meet EOF
        // can show it, so: a short file, every thread let go at once,
        // many rounds.
        const SIZE: usize = 100;
        const READERS: usize = 3;
        let (_d, c) = cluster(2);
        // Each byte is its own offset: a read says where it was.
        let data: Vec<u8> = (0..SIZE as u8).collect();
        let fd = c.open("/drained", OpenFlags::RDWR.with_create()).unwrap();
        c.pwrite(fd, 0, &data).unwrap();
        let round = std::sync::Barrier::new(READERS + 1);
        let got = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| loop {
                    round.wait();
                    match c.read(fd, 80) {
                        Ok(bytes) => got.lock().unwrap().push(bytes),
                        Err(_) => return,
                    }
                    round.wait();
                });
            }
            // A failed round ends the loop, not the thread: the readers
            // are let go first, judged after.
            let failed = (0..2000).find_map(|n| {
                c.lseek(fd, 0, Whence::Set).unwrap();
                round.wait();
                round.wait();
                let mut seen = [0u8; SIZE];
                for bytes in got.lock().unwrap().drain(..).filter(|b| !b.is_empty()) {
                    let at = bytes[0] as usize;
                    if data.get(at..at + bytes.len()) != Some(&bytes[..]) {
                        return Some(format!("round {n}: {bytes:?} is no range of the file"));
                    }
                    seen[at..at + bytes.len()].iter_mut().for_each(|n| *n += 1);
                }
                let pos = c.files().get(fd).unwrap().pos();
                let whole = seen.iter().all(|&n| n == 1) && pos == SIZE as u64;
                (!whole).then(|| format!("round {n}: offset {pos} of {SIZE}, bytes returned {seen:?} times"))
            });
            // One more round, in which the readers find the descriptor
            // closed and leave.
            c.close(fd).unwrap();
            round.wait();
            assert_eq!(failed, None, "every byte once, and the offset stops at EOF");
        });
    }

    // The unborn file: a write-back mount's exclusive create rides the
    // file's first flush.

    /// A write-back mount and a write-through one over `nodes` daemons
    /// keeping `replicas` copies.
    fn two_mounts(nodes: usize, replicas: usize) -> (Vec<Arc<Daemon>>, GekkoClient, GekkoClient) {
        let config = ClusterConfig::new(nodes).with_replicas(replicas);
        let (daemons, through) = cluster_with(nodes, config.clone());
        let eps: Vec<Arc<dyn Endpoint>> = daemons.iter().map(|d| d.endpoint()).collect();
        let back = GekkoClient::mount(eps, &config.with_write_back(64 * 1024)).unwrap();
        (daemons, back, through)
    }

    fn rpcs(c: &GekkoClient) -> u64 {
        c.stats().rpcs_issued.load(Ordering::Relaxed)
    }

    const EXCL: OpenFlags = OpenFlags { create: true, exclusive: true, ..OpenFlags::RDWR };

    #[test]
    fn a_small_files_ingest_is_one_frame_and_its_unlink_one_rpc() {
        let (daemons, back, through) = two_mounts(3, 1);
        let base = rpcs(&back);
        let h = back.open_handle("/small", EXCL).unwrap();
        for i in 0..8u64 {
            h.write(&[i as u8 + 1; 512]).unwrap();
        }
        assert_eq!(rpcs(&back), base, "open and the buffered writes told nobody");
        assert!(matches!(through.stat("/small"), Err(GkfsError::NotFound)), "unborn: nobody else sees it");
        assert_eq!(h.size(), 4096);
        h.close().unwrap();
        assert_eq!(rpcs(&back), base + 1, "create, bytes and size rode one frame");
        assert_eq!(back.stats().size_updates_sent.load(Ordering::Relaxed), 1);
        let meta = through.stat("/small").unwrap();
        assert_eq!((meta.size, meta.mode), (4096, 0o644));
        let r = through.open_handle("/small", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(3584, 1024).unwrap(), vec![8u8; 512]);
        // One daemon did all of it.
        let holders = daemons.iter().filter(|d| d.backends().data.chunk_count("/small").unwrap() > 0).count();
        assert_eq!(holders, 1);
        let base = rpcs(&back);
        back.unlink("/small").unwrap();
        assert_eq!(rpcs(&back), base + 1, "the owner dropped chunk 0 with the entry");
        assert!(daemons.iter().all(|d| d.backends().data.chunk_count("/small").unwrap() == 0));
        // An unborn file with no bytes is still a file once closed.
        back.open_handle("/empty", EXCL).unwrap().close().unwrap();
        assert_eq!(through.stat("/empty").unwrap().size, 0);
        // A write-through mount creates at open, as ever.
        let base = rpcs(&through);
        let h = through.open_handle("/through", EXCL).unwrap();
        assert_eq!(rpcs(&through), base + 1);
        assert!(matches!(through.open_handle("/through", EXCL), Err(GkfsError::Exists)));
        h.close().unwrap();
    }

    // The head: on a write-back mount a read-only open of a small file
    // holds the file as of that open.

    #[test]
    fn a_read_only_open_holds_a_small_file_until_this_mount_changes_it() {
        let (_d, back, through) = two_mounts(3, 1);
        let put = |path: &str, data: &[u8]| {
            let h = through.open_handle(path, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, data).unwrap();
            h.close().unwrap();
        };
        put("/head", b"version one");
        let kept = back.open_handle("/head", OpenFlags::RDONLY).unwrap();
        let base = rpcs(&back);
        assert_eq!(kept.pread(0, 64).unwrap(), b"version one");
        assert_eq!(kept.pread(8, 3).unwrap(), b"one");
        assert_eq!(kept.read(7).unwrap(), b"version");
        assert_eq!(rpcs(&back), base, "reads inside the head ask nobody");
        assert_eq!(back.stats().read_ops.load(Ordering::Relaxed), 3, "and count like any other");
        assert_eq!(back.stats().bytes_read.load(Ordering::Relaxed), 11 + 3 + 7);
        // Another mount's write is seen at the next open, by every
        // handle on the path — never half of it.
        put("/head", b"VERSION TWO");
        assert_eq!(kept.pread(0, 64).unwrap(), b"version one");
        let again = back.open_handle("/head", OpenFlags::RDONLY).unwrap();
        assert_eq!(again.pread(0, 64).unwrap(), b"VERSION TWO");
        assert_eq!(kept.pread(0, 64).unwrap(), b"VERSION TWO", "newer wins");
        // A write through this mount is seen at once: buffered (the run
        // lies over nothing now), flushed, through whichever handle.
        let w = back.open_handle("/head", OpenFlags::WRONLY).unwrap();
        w.pwrite(8, b"3").unwrap();
        assert_eq!(kept.pread(0, 64).unwrap(), b"VERSION 3WO");
        w.close().unwrap();
        assert_eq!(again.pread(0, 64).unwrap(), b"VERSION 3WO");
        // A handle that can write holds no head; nor does a
        // write-through mount.
        let base = rpcs(&back);
        let rw = back.open_handle("/head", OpenFlags::RDWR).unwrap();
        assert_eq!(rw.pread(0, 64).unwrap(), b"VERSION 3WO");
        assert_eq!(rpcs(&back), base + 2, "it dropped the others' too: they were told nothing newer");
        let base = rpcs(&through);
        let r = through.open_handle("/head", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 64).unwrap(), b"VERSION 3WO");
        assert_eq!(rpcs(&through), base + 2);
        drop((kept, again, rw));
        // A truncate and an unlink by path take the head with them.
        let kept = back.open_handle("/head", OpenFlags::RDONLY).unwrap();
        back.truncate("/head", 7).unwrap();
        assert_eq!(kept.pread(0, 64).unwrap(), b"VERSION");
        drop(kept);
        let kept = back.open_handle("/head", OpenFlags::RDONLY).unwrap();
        back.unlink("/head").unwrap();
        assert!(matches!(kept.pread(0, 64), Err(GkfsError::NotFound)));
        // A run buffered before the open lies over the head; one that
        // makes the file longer than the daemon said leaves none.
        put("/over", b"0123456789");
        let w = back.open_handle("/over", OpenFlags::WRONLY).unwrap();
        w.pwrite(2, b"XY").unwrap();
        let r = back.open_handle("/over", OpenFlags::RDONLY).unwrap();
        let base = rpcs(&back);
        assert_eq!(r.pread(0, 64).unwrap(), b"01XY456789");
        assert_eq!(rpcs(&back), base);
        w.pwrite(4, b"longer than it was").unwrap();
        drop(r);
        let r = back.open_handle("/over", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 64).unwrap(), b"01XYlonger than it was");
        assert_eq!(rpcs(&back), base + 2, "the open, and a read of the daemons under the run");
    }

    /// Wait until `gate` holds `n` replies: the calls they answer were
    /// served, and their answers are on their way.
    fn until_held(gate: &gkfs_rpc::Gate, n: usize) {
        while gate.held() < n {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn an_open_overtaken_by_this_mounts_own_change_keeps_no_head() {
        // The open's reply carries the file as the daemon had it; while
        // the reply is on its way this mount is told something newer.
        // Kept, every later read through the handle would return bytes
        // this mount itself replaced — or an older open's over a newer
        // one's.
        use gkfs_rpc::Opcode::{OpenFile as OPEN, WriteFile as WRITE};
        use gkfs_rpc::{Fate, Gate, Link, Until};
        for case in ["a write acknowledged first", "a write acknowledged after", "a newer open"] {
            let daemons: Vec<Arc<Daemon>> =
                (0..2).map(|_| Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap()).collect();
            // Each node holds the reply of the next request of each
            // opcode it is armed with, at that opcode's gate.
            let (opens, writes) = (Gate::new(), Gate::new());
            let armed: Vec<Arc<std::sync::Mutex<Vec<gkfs_rpc::Opcode>>>> = (0..2).map(|_| Default::default()).collect();
            let eps = daemons
                .iter()
                .zip(&armed)
                .map(|(d, armed)| {
                    let (armed, opens, writes) = (Arc::clone(armed), Arc::clone(&opens), Arc::clone(&writes));
                    Link::with_rule(d.endpoint(), move |req, _| {
                        let mut armed = armed.lock().unwrap();
                        let Some(at) = armed.iter().position(|op| *op == req.opcode) else {
                            return Fate::Pass;
                        };
                        armed.remove(at);
                        Fate::HoldReply(Until::Opened(Arc::clone(if req.opcode == OPEN { &opens } else { &writes })))
                    }) as Arc<dyn Endpoint>
                })
                .collect();
            let arm = |ops: &[gkfs_rpc::Opcode]| armed.iter().for_each(|a| *a.lock().unwrap() = ops.to_vec());
            let c = GekkoClient::mount(eps, &ClusterConfig::new(2).with_write_back(64 * 1024)).unwrap();
            let other = GekkoClient::mount(daemons.iter().map(|d| d.endpoint()).collect(), &ClusterConfig::new(2)).unwrap();
            let w = c.open_handle("/f", OpenFlags::WRONLY.with_create()).unwrap();
            w.pwrite(0, b"old bytes").unwrap();
            w.flush().unwrap();
            let write = || w.pwrite(0, b"NEW").and_then(|_| w.flush()).unwrap();
            std::thread::scope(|s| {
                arm(&[OPEN, WRITE]);
                let opener = s.spawn(|| c.open_handle("/f", OpenFlags::RDONLY).unwrap());
                until_held(&opens, 1);
                let r = match case {
                    "a write acknowledged first" => {
                        arm(&[]);
                        write();
                        opens.open();
                        opener.join().unwrap()
                    }
                    "a write acknowledged after" => {
                        // Applied at the daemon behind the open's read,
                        // still unacknowledged when the open returns.
                        let writer = s.spawn(write);
                        until_held(&writes, 1);
                        opens.open();
                        let r = opener.join().unwrap();
                        writes.open();
                        writer.join().unwrap();
                        r
                    }
                    _ => {
                        arm(&[]);
                        let theirs = other.open_handle("/f", OpenFlags::WRONLY).unwrap();
                        theirs.pwrite(0, b"NEW").unwrap();
                        theirs.close().unwrap();
                        let newer = c.open_handle("/f", OpenFlags::RDONLY).unwrap();
                        assert_eq!(newer.pread(0, 64).unwrap(), b"NEW bytes");
                        opens.open();
                        opener.join().unwrap()
                    }
                };
                assert_eq!(r.pread(0, 64).unwrap(), b"NEW bytes", "{case}");
            });
        }
    }

    #[test]
    fn a_refused_publish_writes_nothing_on_either_replica_and_ends_the_record() {
        let (daemons, back, through) = two_mounts(3, 2);
        // Mount A opens first — nobody hears of it — and B wins the path.
        let a = back.open_handle("/f", EXCL).unwrap();
        a.pwrite(0, b"AAAAAAAA").unwrap();
        let b = through.open_handle("/f", EXCL).unwrap();
        b.pwrite(0, b"BBBB").unwrap();
        b.close().unwrap();
        let written = |d: &Arc<Daemon>| d.backends().data.stats().storage_write_bytes.load(Ordering::Relaxed);
        let before: Vec<u64> = daemons.iter().map(written).collect();
        assert!(matches!(a.flush(), Err(GkfsError::Exists)), "the refusal surfaces at the flushing call");
        assert_eq!(daemons.iter().map(written).collect::<Vec<_>>(), before, "a refused create writes nothing");
        for n in back.placement.meta_set("/f") {
            let held = daemons[n].backends();
            assert_eq!(held.data.read_chunk("/f", 0, 0, 16).unwrap(), b"BBBB", "replica {n}");
            let stat = gkfs_rpc::proto::MetaOp::Stat(gkfs_rpc::proto::PathReq::new("/f"));
            assert_eq!(held.meta.apply_one(stat).unwrap().unwrap().size, 4, "replica {n}");
        }
        // The record is dead: its run is gone, the handle answers the
        // refusal, and the path is the winner's on this mount too.
        assert!(matches!(a.pwrite(0, b"more"), Err(GkfsError::Exists)));
        assert!(matches!(a.pread(0, 4), Err(GkfsError::Exists)));
        let base = rpcs(&back);
        a.close().unwrap();
        assert_eq!(rpcs(&back), base, "nothing left to send");
        assert_eq!(back.stat("/f").unwrap().size, 4);
        let r = back.open_handle("/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 16).unwrap(), b"BBBB");
        assert!(back.fsck().unwrap().is_clean());
    }

    #[test]
    fn a_call_that_consults_the_daemons_about_an_unborn_path_publishes_it_first() {
        let (_d, back, through) = two_mounts(2, 1);
        let unborn = |path: &str| {
            let h = back.open_handle(path, EXCL).unwrap();
            h.pwrite(0, path.as_bytes()).unwrap();
            assert!(matches!(through.stat(path), Err(GkfsError::NotFound)));
            h
        };
        // stat: the owning mount always sees its file, and from then on
        // so does everybody.
        let h = unborn("/h/stat");
        assert_eq!(h.pread(3, 16).unwrap(), b"stat", "its own reads see the run");
        assert_eq!(back.stat("/h/stat").unwrap().size, 7);
        assert_eq!(through.stat("/h/stat").unwrap().size, 7);
        drop(h);
        // A second exclusive open is refused here, by the record; any
        // other open publishes and shares it.
        let h = unborn("/h/open");
        let base = rpcs(&back);
        assert!(matches!(back.open_handle("/h/open", EXCL), Err(GkfsError::Exists)));
        assert_eq!(rpcs(&back), base, "refused locally");
        let second = back.open_handle("/h/open", OpenFlags::RDONLY).unwrap();
        assert_eq!(second.pread(0, 16).unwrap(), b"/h/open");
        assert_eq!(through.stat("/h/open").unwrap().size, 7);
        drop((h, second));
        // create of the same path is refused by the file it publishes.
        let h = unborn("/h/create");
        assert!(matches!(back.create("/h/create", 0o644), Err(GkfsError::Exists)));
        assert_eq!(back.create_many(&["/h/create"], 0o644).unwrap()[0], Err(GkfsError::Exists));
        drop(h);
        // truncate and unlink act on the published file.
        let h = unborn("/h/truncate");
        back.truncate("/h/truncate", 3).unwrap();
        assert_eq!(through.stat("/h/truncate").unwrap().size, 3);
        drop(h);
        let h = unborn("/h/unlink");
        back.unlink("/h/unlink").unwrap();
        assert!(matches!(through.stat("/h/unlink"), Err(GkfsError::NotFound)));
        assert!(matches!(h.pwrite(0, b"late"), Err(GkfsError::NotFound)));
        drop(h);
        // Re-creating it on the same mount never resurrects the old run.
        let again = unborn("/h/unlink");
        again.close().unwrap();
        let r = through.open_handle("/h/unlink", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 16).unwrap(), b"/h/unlink");
        // The bulk and the directory-level calls publish every unborn
        // file of the mount.
        let (x, y) = (unborn("/h/x"), unborn("/h/y"));
        assert_eq!(back.stat_many(&["/h/x"]).unwrap()[0].as_ref().unwrap().size, 4);
        assert_eq!(through.stat("/h/y").unwrap().size, 4, "all of them, not only the one asked about");
        let z = unborn("/h/z");
        assert!(back.readdir("/").unwrap().iter().any(|e| e.name == "h") || through.stat("/h/z").is_ok());
        assert_eq!(through.stat("/h/z").unwrap().size, 4);
        let w = unborn("/h/w");
        assert!(back.unlink_many(&["/h/w"]).unwrap()[0].is_ok());
        assert!(matches!(through.stat("/h/w"), Err(GkfsError::NotFound)));
        drop((x, y, z, w));
        // A dropped handle publishes best-effort, as it flushes.
        drop(unborn("/h/dropped"));
        assert_eq!(through.stat("/h/dropped").unwrap().size, 10);
    }

    #[test]
    fn an_unborn_file_that_starts_past_chunk_0_is_created_before_its_other_legs_leave() {
        let config = ClusterConfig::new(3).with_chunk_size(4096).with_write_back(64 * 1024);
        let (daemons, c) = cluster_with(3, config);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let h = c.open_handle("/seek", EXCL).unwrap();
        h.pwrite(10_000, &data).unwrap();
        h.close().unwrap();
        let eps: Vec<Arc<dyn Endpoint>> = daemons.iter().map(|d| d.endpoint()).collect();
        let other = GekkoClient::mount(eps, &ClusterConfig::new(3).with_chunk_size(4096)).unwrap();
        assert_eq!(other.stat("/seek").unwrap().size, 30_000);
        let r = other.open_handle("/seek", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(10_000, 20_000).unwrap(), data);
        assert_eq!(r.pread(0, 10_000).unwrap(), vec![0u8; 10_000]);
        // Lost to another client, such a file leaves nothing anywhere.
        other.create("/seek2", 0o644).unwrap();
        let h = c.open_handle("/seek2", EXCL).unwrap();
        h.pwrite(10_000, &data).unwrap();
        assert!(matches!(h.close(), Err(GkfsError::Exists)));
        assert!(daemons.iter().all(|d| d.backends().data.chunk_count("/seek2").unwrap() == 0));
    }

    #[test]
    fn a_publish_whose_reply_is_lost_is_resubmitted_as_its_own_and_acknowledged() {
        // The first delivery of the frame is applied — entry created,
        // bytes written — and its reply lost. The resubmission says
        // what it is, so the daemon reads the `Exists` as this frame's
        // own first delivery: acknowledged once, `Ok`, bytes present.
        // (Unmarked, the retry was refused: a close that had worked
        // reported `Exists`.)
        use gkfs_rpc::{Fate, Link};
        let daemons: Vec<Arc<Daemon>> =
            (0..2).map(|_| Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap()).collect();
        let lost = Fate::FailReply(GkfsError::Rpc("injected reply fault".into()));
        let flaky: Vec<Arc<Link>> =
            daemons.iter().map(|d| Link::with_rule(d.endpoint(), lost.clone().every(2))).collect();
        let eps = flaky.iter().map(|e| Arc::clone(e) as Arc<dyn Endpoint>).collect();
        let config = ClusterConfig::new(2).with_write_back(64 * 1024);
        let c = GekkoClient::mount(eps, &config).unwrap();
        let owner = c.placement.meta_primary("/lost");
        // Make the owner's next call the one that loses its reply.
        if flaky[owner].submitted().is_multiple_of(2) {
            c.ring.ping_nb(owner).unwrap().wait().unwrap();
        }
        let h = c.open_handle("/lost", EXCL).unwrap();
        h.pwrite(0, b"exactly once").unwrap();
        h.close().unwrap();
        assert!(c.ring.node_health(owner).unwrap().retries() >= 1, "the reply was lost and the frame sent again");
        assert_eq!(c.stat("/lost").unwrap().size, 12);
        let r = c.open_handle("/lost", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 32).unwrap(), b"exactly once");
    }
}
