//! # gkfs-posix — the interception interface as a C ABI
//!
//! GekkoFS applications preload a client interposition library that
//! *"intercepts all file system operations and forwards them to a
//! server (GekkoFS daemon), if necessary"* (paper §III-B). The
//! interception itself is platform plumbing (`dlsym`-based symbol
//! overriding); everything behind it — descriptor management, path
//! routing, errno semantics — is what this crate exposes as a stable
//! `extern "C"` surface:
//!
//! * `gkfs_open` / `gkfs_close` / `gkfs_read` / `gkfs_write` /
//!   `gkfs_pread` / `gkfs_pwrite` / `gkfs_lseek`
//! * `gkfs_stat` / `gkfs_unlink` / `gkfs_mkdir` / `gkfs_rmdir` /
//!   `gkfs_truncate`
//! * `gkfs_rename` — always fails with `EOPNOTSUPP` (§III-A)
//!
//! All functions follow the POSIX convention: `-1` on error with the
//! error code retrievable via [`gkfs_errno`] (per-thread). Descriptors
//! live in the client's own file map, starting at 100 000 so a preload
//! shim can tell "ours" from the kernel's (`gkfs_owns_fd`).
//!
//! **`O_CREAT|O_EXCL` on a write-back mount reports at the first
//! flush.** When the installed client was mounted with a write-back
//! buffer (`ClusterConfig::with_write_back`), `gkfs_open` with both
//! flags sends nothing: the new file is published — create, bytes and
//! size as one frame — by its first flush (`gkfs_close`, `gkfs_fsync`,
//! a full buffer, or the first call about the path that must ask the
//! daemons), and an `EEXIST` is returned by *that* call, with nothing
//! written anywhere. Do not use an exclusive create as a lock file on
//! such a mount; a write-through mount (the default) decides at
//! `gkfs_open`, as POSIX says.
//!
//! **A read-only descriptor on a write-back mount holds a small file as
//! of its open.** On such a mount `gkfs_open(path, O_RDONLY)` of a
//! regular file of at most 16 KiB (and one chunk, and the write-back
//! buffer's size) brings the file back with its entry, and `gkfs_read` /
//! `gkfs_pread` on the descriptor are answered from that copy — exactly
//! as every descriptor on every mount has always held the file's *size*
//! as of its open. What this process writes, truncates or unlinks is
//! seen at once; **another process's** later write is seen at the next
//! `gkfs_open` of the path. To poll a small file for another process's
//! update, re-open it — do not re-read an open descriptor. A
//! write-through mount (the default) reads the daemons on every call.
//!
//! A process first installs a mounted client with [`install_client`]
//! (the preload library would do this in its constructor after reading
//! the hosts file).

#![warn(missing_docs)]

use gekkofs::{GekkoClient, GkfsError, OpenFlags, Whence};
use gkfs_common::lock::{rank, OrderedRwLock};
use std::cell::Cell;
use std::ffi::CStr;
use std::os::raw::{c_char, c_int};
use std::sync::Arc;

static CLIENT: OrderedRwLock<Option<Arc<GekkoClient>>> =
    OrderedRwLock::new(rank::POSIX_CLIENT, None);

thread_local! {
    static ERRNO: Cell<i32> = const { Cell::new(0) };
}

/// Install the process-wide client (what the preload constructor does).
/// Replaces any previous client.
pub fn install_client(client: Arc<GekkoClient>) {
    *CLIENT.write() = Some(client);
}

/// Remove the process-wide client (preload destructor).
pub fn uninstall_client() {
    *CLIENT.write() = None;
}

fn with_client<T>(f: impl FnOnce(&GekkoClient) -> Result<T, GkfsError>) -> Result<T, GkfsError> {
    let guard = CLIENT.read();
    match guard.as_ref() {
        Some(c) => f(c),
        None => Err(GkfsError::Rpc("no GekkoFS client installed".into())),
    }
}

fn set_errno(e: &GkfsError) {
    ERRNO.with(|c| c.set(e.errno()));
}

/// Last GekkoFS error for the calling thread, as a POSIX errno value.
#[no_mangle]
pub extern "C" fn gkfs_errno() -> c_int {
    ERRNO.with(|c| c.get())
}

/// Does this descriptor belong to GekkoFS? A preload shim calls this
/// to decide whether to forward an fd-based call to the kernel.
#[no_mangle]
pub extern "C" fn gkfs_owns_fd(fd: c_int) -> c_int {
    CLIENT
        .read()
        .as_ref()
        .map(|c| c.files().owns(fd) as c_int)
        .unwrap_or(0)
}

/// # Safety
/// `path` must be a valid NUL-terminated C string.
unsafe fn cstr<'a>(path: *const c_char) -> Result<&'a str, GkfsError> {
    if path.is_null() {
        return Err(GkfsError::InvalidArgument("NULL path".into()));
    }
    // SAFETY: `path` is non-null (checked above) and the caller
    // guarantees it is NUL-terminated and valid for reads.
    unsafe { CStr::from_ptr(path) }
        .to_str()
        .map_err(|_| GkfsError::InvalidArgument("non-UTF8 path".into()))
}

fn ret_int(r: Result<c_int, GkfsError>) -> c_int {
    match r {
        Ok(v) => v,
        Err(e) => {
            set_errno(&e);
            -1
        }
    }
}

fn ret_ssize(r: Result<isize, GkfsError>) -> isize {
    match r {
        Ok(v) => v,
        Err(e) => {
            set_errno(&e);
            -1
        }
    }
}

/// `open(2)`-alike. `flags` uses the Linux `O_*` values. On a
/// write-back mount `O_CREAT|O_EXCL` creates at the file's first flush
/// and reports `EEXIST` there (crate docs).
///
/// # Safety
/// `path` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn gkfs_open(path: *const c_char, flags: c_int, _mode: u32) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        c.open(path, OpenFlags::from_posix(flags))
    }))
}

/// `close(2)`-alike.
#[no_mangle]
pub extern "C" fn gkfs_close(fd: c_int) -> c_int {
    ret_int(with_client(|c| c.close(fd).map(|_| 0)))
}

/// `write(2)`-alike.
///
/// # Safety
/// `buf` must point to at least `count` readable bytes.
#[no_mangle]
pub unsafe extern "C" fn gkfs_write(fd: c_int, buf: *const u8, count: usize) -> isize {
    ret_ssize(with_client(|c| {
        if buf.is_null() && count > 0 {
            return Err(GkfsError::InvalidArgument("NULL buffer".into()));
        }
        // SAFETY: `buf` is non-null (checked above) and the caller
        // guarantees `count` readable bytes behind it.
        let data = unsafe { std::slice::from_raw_parts(buf, count) };
        c.write(fd, data).map(|n| n as isize)
    }))
}

/// The application's read buffer: `count` bytes at `buf`, which the
/// read lands in — a chunk's bytes straight off the socket — with no
/// copy in between. `buf` is non-null unless `count` is zero.
///
/// # Safety
/// As `gkfs_read`'s: `buf` points to at least `count` writable bytes.
unsafe fn app_buffer<'a>(buf: *mut u8, count: usize) -> &'a mut [u8] {
    if count == 0 {
        return &mut [];
    }
    // SAFETY: non-null with `count > 0` (the callers check), and the
    // caller guarantees `count` writable bytes.
    unsafe { std::slice::from_raw_parts_mut(buf, count) }
}

/// `read(2)`-alike.
///
/// # Safety
/// `buf` must point to at least `count` writable bytes.
#[no_mangle]
pub unsafe extern "C" fn gkfs_read(fd: c_int, buf: *mut u8, count: usize) -> isize {
    ret_ssize(with_client(|c| {
        if buf.is_null() && count > 0 {
            return Err(GkfsError::InvalidArgument("NULL buffer".into()));
        }
        // SAFETY: `buf` is non-null or `count` zero (checked above), and
        // the caller guarantees `count` writable bytes behind it.
        c.read_into(fd, unsafe { app_buffer(buf, count) }).map(|n| n as isize)
    }))
}

/// `pwrite(2)`-alike.
///
/// # Safety
/// `buf` must point to at least `count` readable bytes.
#[no_mangle]
pub unsafe extern "C" fn gkfs_pwrite(fd: c_int, buf: *const u8, count: usize, offset: u64) -> isize {
    ret_ssize(with_client(|c| {
        if buf.is_null() && count > 0 {
            return Err(GkfsError::InvalidArgument("NULL buffer".into()));
        }
        // SAFETY: `buf` is non-null (checked above) and the caller
        // guarantees `count` readable bytes behind it.
        let data = unsafe { std::slice::from_raw_parts(buf, count) };
        c.pwrite(fd, offset, data).map(|n| n as isize)
    }))
}

/// `pread(2)`-alike.
///
/// # Safety
/// `buf` must point to at least `count` writable bytes.
#[no_mangle]
pub unsafe extern "C" fn gkfs_pread(fd: c_int, buf: *mut u8, count: usize, offset: u64) -> isize {
    ret_ssize(with_client(|c| {
        if buf.is_null() && count > 0 {
            return Err(GkfsError::InvalidArgument("NULL buffer".into()));
        }
        // SAFETY: `buf` is non-null or `count` zero (checked above), and
        // the caller guarantees `count` writable bytes behind it.
        c.pread_into(fd, offset, unsafe { app_buffer(buf, count) }).map(|n| n as isize)
    }))
}

/// `lseek(2)`-alike. `whence`: 0 = SET, 1 = CUR, 2 = END.
#[no_mangle]
pub extern "C" fn gkfs_lseek(fd: c_int, offset: i64, whence: c_int) -> i64 {
    let r = with_client(|c| {
        let w = match whence {
            0 => Whence::Set,
            1 => Whence::Cur,
            2 => Whence::End,
            _ => return Err(GkfsError::InvalidArgument(format!("whence {whence}"))),
        };
        c.lseek(fd, offset, w)
    });
    match r {
        Ok(v) => v as i64,
        Err(e) => {
            set_errno(&e);
            -1
        }
    }
}

/// Minimal stat buffer — the fields GekkoFS maintains (§III-A drops
/// the rest).
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
pub struct GkfsStat {
    /// Size.
    pub size: u64,
    /// Mode.
    pub mode: u32,
    /// 1 if directory, 0 if regular file.
    pub is_dir: u32,
    /// Ctime ns.
    pub ctime_ns: u64,
    /// Mtime ns.
    pub mtime_ns: u64,
}

/// `stat(2)`-alike.
///
/// # Safety
/// `path` must be a valid C string; `out` must be valid for writes.
#[no_mangle]
pub unsafe extern "C" fn gkfs_stat(path: *const c_char, out: *mut GkfsStat) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        if out.is_null() {
            return Err(GkfsError::InvalidArgument("NULL stat buffer".into()));
        }
        let m = c.stat(path)?;
        // SAFETY: `out` is non-null (checked above) and the caller
        // guarantees it is valid for writes.
        unsafe { *out = GkfsStat {
            size: m.size,
            mode: m.mode,
            is_dir: m.is_dir() as u32,
            ctime_ns: m.ctime_ns,
            mtime_ns: m.mtime_ns,
        } };
        Ok(0)
    }))
}

/// `unlink(2)`-alike.
///
/// # Safety
/// `path` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn gkfs_unlink(path: *const c_char) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        c.unlink(path).map(|_| 0)
    }))
}

/// `mkdir(2)`-alike.
///
/// # Safety
/// `path` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn gkfs_mkdir(path: *const c_char, mode: u32) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        c.mkdir(path, mode).map(|_| 0)
    }))
}

/// `rmdir(2)`-alike.
///
/// # Safety
/// `path` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn gkfs_rmdir(path: *const c_char) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        c.rmdir(path).map(|_| 0)
    }))
}

/// `truncate(2)`-alike.
///
/// # Safety
/// `path` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn gkfs_truncate(path: *const c_char, size: u64) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        c.truncate(path, size).map(|_| 0)
    }))
}

/// `rename(2)`-alike — always `EOPNOTSUPP` (paper §III-A: "GekkoFS
/// does not support move or rename operations").
///
/// # Safety
/// Both paths must be valid NUL-terminated C strings.
#[no_mangle]
pub unsafe extern "C" fn gkfs_rename(from: *const c_char, to: *const c_char) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let (from, to) = unsafe { (cstr(from)?, cstr(to)?) };
        c.rename(from, to).map(|_| 0)
    }))
}

/// `fsync(2)`-alike: flush buffered size updates.
#[no_mangle]
pub extern "C" fn gkfs_fsync(fd: c_int) -> c_int {
    ret_int(with_client(|c| c.fsync(fd).map(|_| 0)))
}

/// `access(2)`-alike: 0 if the path exists (GekkoFS does not enforce
/// permissions — §III-A — so any existing path is accessible).
///
/// # Safety
/// `path` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn gkfs_access(path: *const c_char, _mode: c_int) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        c.stat(path).map(|_| 0)
    }))
}

/// `fstat(2)`-alike: stat through an open descriptor.
///
/// # Safety
/// `out` must be valid for writes.
#[no_mangle]
pub unsafe extern "C" fn gkfs_fstat(fd: c_int, out: *mut GkfsStat) -> c_int {
    ret_int(with_client(|c| {
        if out.is_null() {
            return Err(GkfsError::InvalidArgument("NULL stat buffer".into()));
        }
        // Through the open handle: the reported size includes what the
        // client wrote to the path, flushed or still buffered.
        let m = c.handle(fd)?.stat()?;
        // SAFETY: `out` is non-null (checked above) and the caller
        // guarantees it is valid for writes.
        unsafe { *out = GkfsStat {
            size: m.size,
            mode: m.mode,
            is_dir: m.is_dir() as u32,
            ctime_ns: m.ctime_ns,
            mtime_ns: m.mtime_ns,
        } };
        Ok(0)
    }))
}

/// `ftruncate(2)`-alike.
#[no_mangle]
pub extern "C" fn gkfs_ftruncate(fd: c_int, size: u64) -> c_int {
    ret_int(with_client(|c| {
        // Through the open handle: buffered writes flush first
        // (program order), then the truncate applies.
        c.handle(fd)?.truncate(size).map(|_| 0)
    }))
}

/// `dup(2)`-alike.
#[no_mangle]
pub extern "C" fn gkfs_dup(fd: c_int) -> c_int {
    ret_int(with_client(|c| c.dup(fd)))
}

// -------------------------------------------------------------------
// Directory streams — opendir/readdir/closedir
//
// The paper's client file map manages "the file descriptors of open
// files and directories" (§III-B-a); directory streams are resolved
// entirely client-side from one broadcast snapshot, which also gives
// the stable iteration POSIX requires even while the (eventually
// consistent) directory keeps changing underneath.
// -------------------------------------------------------------------

/// One `readdir` entry as seen through the C ABI.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct GkfsDirent {
    /// NUL-terminated name, truncated to 255 bytes.
    pub name: [u8; 256],
    /// 1 if directory, 0 if regular file.
    pub is_dir: u32,
    /// Size.
    pub size: u64,
}

impl Default for GkfsDirent {
    fn default() -> Self {
        GkfsDirent {
            name: [0; 256],
            is_dir: 0,
            size: 0,
        }
    }
}

struct DirStream {
    entries: Vec<gekkofs::Dirent>,
    cursor: usize,
}

static DIR_STREAMS: OrderedRwLock<Option<std::collections::HashMap<c_int, DirStream>>> =
    OrderedRwLock::new(rank::POSIX_DIR_STREAMS, None);
static NEXT_DIR_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(200_000);

/// `opendir(3)`-alike: snapshot the listing, return a directory
/// descriptor (distinct range from file descriptors).
///
/// # Safety
/// `path` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn gkfs_opendir(path: *const c_char) -> c_int {
    ret_int(with_client(|c| {
        // SAFETY: forwarding this function's own caller contract.
        let path = unsafe { cstr(path)? };
        let entries = c.readdir(path)?;
        let fd = NEXT_DIR_FD.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut guard = DIR_STREAMS.write();
        guard
            .get_or_insert_with(Default::default)
            .insert(fd, DirStream { entries, cursor: 0 });
        Ok(fd)
    }))
}

/// `readdir(3)`-alike: copy the next entry into `out`. Returns 1 if an
/// entry was produced, 0 at end of stream, -1 on error.
///
/// # Safety
/// `out` must be valid for writes.
#[no_mangle]
pub unsafe extern "C" fn gkfs_readdir(dirfd: c_int, out: *mut GkfsDirent) -> c_int {
    if out.is_null() {
        ERRNO.with(|c| c.set(22)); // EINVAL
        return -1;
    }
    let mut guard = DIR_STREAMS.write();
    let Some(stream) = guard.as_mut().and_then(|m| m.get_mut(&dirfd)) else {
        ERRNO.with(|c| c.set(9)); // EBADF
        return -1;
    };
    if stream.cursor >= stream.entries.len() {
        return 0;
    }
    let e = &stream.entries[stream.cursor];
    stream.cursor += 1;
    let mut d = GkfsDirent {
        is_dir: matches!(e.kind, gekkofs::FileKind::Directory) as u32,
        size: e.size,
        ..GkfsDirent::default()
    };
    let bytes = e.name.as_bytes();
    let n = bytes.len().min(255);
    d.name[..n].copy_from_slice(&bytes[..n]);
    // SAFETY: `out` is non-null (checked above) and the caller
    // guarantees it is valid for writes.
    unsafe { *out = d };
    1
}

/// `rewinddir(3)`-alike.
#[no_mangle]
pub extern "C" fn gkfs_rewinddir(dirfd: c_int) -> c_int {
    let mut guard = DIR_STREAMS.write();
    match guard.as_mut().and_then(|m| m.get_mut(&dirfd)) {
        Some(s) => {
            s.cursor = 0;
            0
        }
        None => {
            ERRNO.with(|c| c.set(9));
            -1
        }
    }
}

/// `closedir(3)`-alike.
#[no_mangle]
pub extern "C" fn gkfs_closedir(dirfd: c_int) -> c_int {
    let mut guard = DIR_STREAMS.write();
    match guard.as_mut().and_then(|m| m.remove(&dirfd)) {
        Some(_) => 0,
        None => {
            ERRNO.with(|c| c.set(9));
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gekkofs::{Cluster, ClusterConfig};
    use std::ffi::CString;

    // The installed client is process-global, so tests must not
    // interleave: each takes this lock for its whole body.
    static TEST_LOCK: gkfs_common::lock::OrderedMutex<()> =
        gkfs_common::lock::OrderedMutex::new(rank::POSIX_TEST, ());

    fn setup() -> (Cluster, gkfs_common::lock::OrderedMutexGuard<'static, ()>) {
        let guard = TEST_LOCK.lock();
        let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
        install_client(Arc::new(cluster.mount().unwrap()));
        (cluster, guard)
    }

    fn c(path: &str) -> CString {
        CString::new(path).unwrap()
    }

    // POSIX flag constants used by the tests.
    const O_RDONLY: c_int = 0;
    const O_WRONLY: c_int = 0o1;
    const O_RDWR: c_int = 0o2;
    const O_CREAT: c_int = 0o100;
    const O_EXCL: c_int = 0o200;

    #[test]
    fn full_posix_cycle() {
        let (_cluster, _guard) = setup();
        // SAFETY: every pointer below is a live `CString`, byte string or
        // local buffer, passed with its own length.
        unsafe {
            let path = c("/posix-file");
            let fd = gkfs_open(path.as_ptr(), O_CREAT | O_EXCL | O_RDWR, 0o644);
            assert!(fd >= 100_000, "GekkoFS fds start above the kernel range");
            assert_eq!(gkfs_owns_fd(fd), 1);
            assert_eq!(gkfs_owns_fd(3), 0);

            let data = b"written through the C ABI";
            assert_eq!(gkfs_write(fd, data.as_ptr(), data.len()), data.len() as isize);
            assert_eq!(gkfs_lseek(fd, 0, 0), 0);

            let mut buf = [0u8; 64];
            let n = gkfs_read(fd, buf.as_mut_ptr(), buf.len());
            assert_eq!(n, data.len() as isize);
            assert_eq!(&buf[..n as usize], data);

            let mut st = GkfsStat::default();
            assert_eq!(gkfs_stat(path.as_ptr(), &mut st), 0);
            assert_eq!(st.size, data.len() as u64);
            assert_eq!(st.is_dir, 0);

            assert_eq!(gkfs_fsync(fd), 0);
            assert_eq!(gkfs_close(fd), 0);
            assert_eq!(gkfs_unlink(path.as_ptr()), 0);
            assert_eq!(gkfs_unlink(path.as_ptr()), -1);
            assert_eq!(gkfs_errno(), 2, "ENOENT");
        }
        uninstall_client();
    }

    #[test]
    fn pread_pwrite_and_truncate() {
        let (_cluster, _guard) = setup();
        // SAFETY: every pointer below is a live `CString`, byte string or
        // local buffer, passed with its own length.
        unsafe {
            let path = c("/posix-p");
            let fd = gkfs_open(path.as_ptr(), O_CREAT | O_RDWR, 0o644);
            assert!(fd > 0);
            let data = b"0123456789";
            assert_eq!(gkfs_pwrite(fd, data.as_ptr(), 10, 100), 10);
            let mut buf = [0u8; 4];
            assert_eq!(gkfs_pread(fd, buf.as_mut_ptr(), 4, 103), 4);
            assert_eq!(&buf, b"3456");
            assert_eq!(gkfs_truncate(path.as_ptr(), 50), 0);
            let mut st = GkfsStat::default();
            gkfs_stat(path.as_ptr(), &mut st);
            assert_eq!(st.size, 50);
            gkfs_close(fd);
        }
        uninstall_client();
    }

    #[test]
    fn directories_and_rename_refusal() {
        let (_cluster, _guard) = setup();
        // SAFETY: every path below is a live `CString`.
        unsafe {
            let dir = c("/posix-dir");
            assert_eq!(gkfs_mkdir(dir.as_ptr(), 0o755), 0);
            let f = c("/posix-dir/file");
            let fd = gkfs_open(f.as_ptr(), O_CREAT | O_WRONLY, 0o644);
            gkfs_close(fd);
            // rmdir non-empty fails with ENOTEMPTY.
            assert_eq!(gkfs_rmdir(dir.as_ptr()), -1);
            assert_eq!(gkfs_errno(), 39);
            // rename always refuses.
            let to = c("/elsewhere");
            assert_eq!(gkfs_rename(f.as_ptr(), to.as_ptr()), -1);
            assert_eq!(gkfs_errno(), 95, "EOPNOTSUPP");
            gkfs_unlink(f.as_ptr());
            assert_eq!(gkfs_rmdir(dir.as_ptr()), 0);
        }
        uninstall_client();
    }

    #[test]
    fn directory_stream_cycle() {
        let (_cluster, _guard) = setup();
        // SAFETY: every pointer below is a live `CString`, byte string or
        // local buffer, passed with its own length, and `ent` a local
        // `GkfsDirent` the stream writes into.
        unsafe {
            let dir = c("/stream");
            gkfs_mkdir(dir.as_ptr(), 0o755);
            for name in ["alpha", "beta", "gamma"] {
                let p = c(&format!("/stream/{name}"));
                let fd = gkfs_open(p.as_ptr(), O_CREAT | O_WRONLY, 0o644);
                let payload = name.as_bytes();
                gkfs_write(fd, payload.as_ptr(), payload.len());
                gkfs_close(fd);
            }
            let sub = c("/stream/subdir");
            gkfs_mkdir(sub.as_ptr(), 0o755);

            let dirfd = gkfs_opendir(dir.as_ptr());
            assert!(dirfd >= 200_000, "dir fds live in their own range");
            let mut seen = Vec::new();
            let mut ent = GkfsDirent::default();
            while gkfs_readdir(dirfd, &mut ent) == 1 {
                let len = ent.name.iter().position(|&b| b == 0).unwrap();
                let name = String::from_utf8(ent.name[..len].to_vec()).unwrap();
                seen.push((name, ent.is_dir, ent.size));
            }
            assert_eq!(seen.len(), 4);
            assert!(seen.contains(&("alpha".into(), 0, 5)));
            assert!(seen.contains(&("subdir".into(), 1, 0)));
            // rewind restarts the stream on the same snapshot.
            assert_eq!(gkfs_rewinddir(dirfd), 0);
            let mut count = 0;
            while gkfs_readdir(dirfd, &mut ent) == 1 {
                count += 1;
            }
            assert_eq!(count, 4);
            assert_eq!(gkfs_closedir(dirfd), 0);
            // Closed stream is invalid.
            assert_eq!(gkfs_readdir(dirfd, &mut ent), -1);
            assert_eq!(gkfs_errno(), 9, "EBADF");
            assert_eq!(gkfs_closedir(dirfd), -1);
        }
        uninstall_client();
    }

    #[test]
    fn access_fstat_ftruncate_dup() {
        let (_cluster, _guard) = setup();
        // SAFETY: every pointer below is a live `CString`, byte string or
        // local buffer, passed with its own length, and `st` a local
        // `GkfsStat` the calls write into.
        unsafe {
            let p = c("/misc");
            assert_eq!(gkfs_access(p.as_ptr(), 0), -1, "missing: ENOENT");
            assert_eq!(gkfs_errno(), 2);
            let fd = gkfs_open(p.as_ptr(), O_CREAT | O_RDWR, 0o644);
            assert_eq!(gkfs_access(p.as_ptr(), 0), 0);

            let data = b"0123456789";
            gkfs_write(fd, data.as_ptr(), data.len());
            let mut st = GkfsStat::default();
            assert_eq!(gkfs_fstat(fd, &mut st), 0);
            assert_eq!(st.size, 10);

            assert_eq!(gkfs_ftruncate(fd, 4), 0);
            gkfs_fstat(fd, &mut st);
            assert_eq!(st.size, 4);

            // dup shares the offset.
            let fd2 = gkfs_dup(fd);
            assert!(fd2 > fd);
            assert_eq!(gkfs_lseek(fd, 0, 0), 0);
            let mut buf = [0u8; 8];
            assert_eq!(gkfs_read(fd2, buf.as_mut_ptr(), 8), 4, "reads via dup");
            assert_eq!(&buf[..4], b"0123");

            gkfs_close(fd);
            gkfs_close(fd2);
            assert_eq!(gkfs_fstat(fd, &mut st), -1);
            assert_eq!(gkfs_errno(), 9, "EBADF");
            gkfs_unlink(p.as_ptr());
        }
        uninstall_client();
    }

    #[test]
    fn opendir_errors() {
        let (_cluster, _guard) = setup();
        // SAFETY: every path below is a live `CString`.
        unsafe {
            let missing = c("/no-such-dir");
            assert_eq!(gkfs_opendir(missing.as_ptr()), -1);
            assert_eq!(gkfs_errno(), 2, "ENOENT");
            // opendir of a file is ENOTDIR.
            let f = c("/plain");
            let fd = gkfs_open(f.as_ptr(), O_CREAT | O_WRONLY, 0o644);
            gkfs_close(fd);
            assert_eq!(gkfs_opendir(f.as_ptr()), -1);
            assert_eq!(gkfs_errno(), 20, "ENOTDIR");
        }
        uninstall_client();
    }

    #[test]
    fn c_abi_is_thread_safe() {
        // A preloaded application is usually multithreaded; every
        // entry point must tolerate concurrent callers (the errno is
        // per-thread, the descriptor table shared).
        let (_cluster, _guard) = setup();
        std::thread::scope(|s| {
            for t in 0..6 {
                // SAFETY: each thread's path is a live `CString`, and its
                // buffers and `st` are locals passed with their own lengths.
                s.spawn(move || unsafe {
                    let path = c(&format!("/mt-{t}"));
                    let fd = gkfs_open(path.as_ptr(), O_CREAT | O_RDWR, 0o644);
                    assert!(fd > 0, "thread {t} open failed");
                    let data = vec![t as u8 + 1; 4096];
                    for i in 0..8u64 {
                        assert_eq!(
                            gkfs_pwrite(fd, data.as_ptr(), data.len(), i * 4096),
                            4096
                        );
                    }
                    let mut st = GkfsStat::default();
                    assert_eq!(gkfs_fstat(fd, &mut st), 0);
                    assert_eq!(st.size, 8 * 4096);
                    let mut buf = vec![0u8; 4096];
                    assert_eq!(gkfs_pread(fd, buf.as_mut_ptr(), 4096, 3 * 4096), 4096);
                    assert!(buf.iter().all(|&b| b == t as u8 + 1));
                    // A bad call poisons only THIS thread's errno.
                    assert_eq!(gkfs_close(9999), -1);
                    assert_eq!(gkfs_errno(), 9);
                    assert_eq!(gkfs_close(fd), 0);
                    assert_eq!(gkfs_unlink(path.as_ptr()), 0);
                });
            }
        });
        uninstall_client();
    }

    #[test]
    fn errors_without_client() {
        let _guard = TEST_LOCK.lock();
        uninstall_client();
        // SAFETY: `path` is a live `CString`.
        unsafe {
            let path = c("/x");
            assert_eq!(gkfs_open(path.as_ptr(), O_RDONLY, 0), -1);
            assert!(gkfs_errno() != 0);
        }
    }

    #[test]
    fn null_and_bad_args() {
        let (_cluster, _guard) = setup();
        // SAFETY: the null pointers are the point of the test: every entry
        // point checks for null before it reads; `path` is a live `CString`.
        unsafe {
            assert_eq!(gkfs_open(std::ptr::null(), O_RDONLY, 0), -1);
            assert_eq!(gkfs_errno(), 22, "EINVAL");
            let path = c("/f");
            assert_eq!(gkfs_stat(path.as_ptr(), std::ptr::null_mut()), -1);
            assert_eq!(gkfs_lseek(99, 0, 7), -1);
            assert_eq!(gkfs_close(42), -1);
            assert_eq!(gkfs_errno(), 9, "EBADF");
        }
        uninstall_client();
    }
}
