//! File-backed chunk storage — the paper's "one file per chunk", and
//! nothing else per chunk: one inode.
//!
//! Layout under the root directory:
//!
//! ```text
//! <root>/chunks/<shard>/<escaped-path>.<chunk_id>
//! ```
//!
//! GekkoFS escapes the file's GekkoFS path into a single name (the C++
//! implementation substitutes `/` with `:`); we do the same with a
//! small escape for literal `:` so distinct paths can never collide.
//! The C++ layout makes that name a directory per file; here it is a
//! prefix of the chunk file's own name, and the files live in a fixed
//! set of 1024 directories (`DIR_SHARDS`) chosen by a stable hash of
//! the path (all of a file's chunks on this daemon share one). A small
//! file therefore costs one `open(O_CREAT)` to store and one `unlink`
//! to drop — no `mkdir`, no `opendir`/`rmdir` — and a shard directory
//! is made by the first write that finds it missing, never removed,
//! and never made at [`open_with`](FileChunkStorage::open_with):
//! start-up creates `chunks/` alone, and directories made later, under
//! a parent the operator has had the chance to flag `chattr +T`, are
//! spread over the host file system's block groups (DESIGN.md).
//!
//! The id is split off at the *last* `.` and must be canonical decimal,
//! so `(path, id) → name` is injective (`/a` chunk 1 is `:a.1`, `/a.1`
//! chunk 0 is `:a.1.0`) and nothing else in a shard directory is
//! mistaken for a chunk. A path whose escaped form exceeds
//! [`MAX_ESCAPED_LEN`] bytes cannot be named under `NAME_MAX`: writes
//! to it are refused with a typed error, and it holds nothing to read
//! or remove.
//!
//! A chunk file is touched one way, through its descriptor: `pread(2)`
//! reads it, [`write_all_at`](FileExt::write_all_at) writes it and
//! `set_len` cuts it — one `pread`, `pwrite` or `ftruncate` per
//! coalesced run, with no seek races between tasks sharing the
//! descriptor. A read costs the daemon the kernel's copy and nothing
//! more: the caller's buffer is not zeroed first — each run is read
//! straight into its window, and only what the read did not reach
//! (EOF inside the run, a chunk with no file) is zero-filled before the
//! buffer's length covers it, so a recycled buffer never shows what it
//! held before. A read racing a cut never faults or fails:
//! it sees the file before or after it, and only if a write is
//! re-extending the chunk at the same moment can it see, above the
//! cut, zeros the cut left behind — what POSIX gives a `pread` racing
//! `ftruncate`. Sparse writes rely on the underlying POSIX file
//! zero-filling the gap.
//!
//! Descriptors are kept in a sharded open-fd LRU cache: the paper's
//! Argobots ULTs dispatch many small per-chunk ops against the same
//! files, and re-running `open(2)` per op dominates the cost of the op
//! itself. A hit is one shard lock; a miss is `open`, a second lock, an
//! LRU scan of the shard when it is full and the `close` of whatever
//! that evicts — the cache keeps nothing but the descriptor, so there
//! is no `fstat` to seed it and no write-side upkeep. A cached fd can
//! briefly outlive `remove_chunks`/`truncate_chunks` of its path on a
//! racing thread — writes then land in an unlinked inode, exactly the
//! POSIX behavior a concurrent unlink gives the C++ implementation. A
//! write that misses the cache while its path is being removed lands
//! in a fresh chunk file instead (an orphan for `fsck`); it never
//! fails, because no directory on its way is ever removed.
//!
//! # Batch I/O engines
//!
//! A batch ([`ChunkStorage::write_batch`], [`ChunkStorage::read_batch`])
//! runs to completion before the call returns, on one of two
//! engines that the number of I/O threads given to
//! [`FileChunkStorage::open_with`] selects:
//!
//! * **Serial** (0 threads) — every batch runs on the calling thread.
//! * **Pool** — a batch is cut into contiguous *segments* (aligned to
//!   same-chunk runs so coalescing is never split), every segment is
//!   dispatched to a [`TaskPool`] of pread/pwrite workers, and the
//!   calling thread waits for them all. A batch that is a single
//!   segment runs on the calling thread.
//!
//! Saturation degrades gracefully: when the pool queue is full the
//! submitting thread runs the segment itself (caller-runs), so
//! overload collapses to serial behavior instead of queuing without
//! bound.

use crate::{check_write_windows, segment, to_usize, validate_dense_layout};
use crate::{BatchOp, ChunkStorage};
use gkfs_common::hash::fnv1a64;
use gkfs_common::lock::{rank, OrderedMutex};
use gkfs_common::metrics::DaemonCounters;
use gkfs_common::{GkfsError, IoBackend, Result, TaskPool};
use std::collections::HashMap;
use std::fs;
use std::io::ErrorKind;
use std::mem::MaybeUninit;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};
use std::os::unix::fs::FileExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// Shard directories under `chunks/`. A constant, sized on a
/// journal-less ext4 (EXPERIMENTS.md "PR 21"): a chunk file's inode is
/// allocated in its directory's block group, where such a file system
/// steps over every inode freed in the last minutes, so the shards
/// must be many enough to spread a small-file churn over the groups
/// (256 swung run to run where 1024 and 4096 held), and few enough
/// that the lazy `mkdir`s stay noise. A million chunk files then leave
/// a whole-path enumeration a thousand names to pass over.
const DIR_SHARDS: u64 = 1024;

/// Longest escaped path a chunk file name can carry: `NAME_MAX` (255)
/// less the `.`, a 20-digit chunk id and two bytes in reserve (a temp
/// suffix truncate no longer makes; stores keep the limit they had).
pub const MAX_ESCAPED_LEN: usize = 255 - 1 - 20 - 2;

const FD_SHARDS: usize = 16;
/// Per-shard capacity: 16 × 192 = 3072 cached descriptors. A daemon
/// raises `RLIMIT_NOFILE` into the tens of thousands anyway, and
/// falling off the cache costs an `open` on the next touch (plus the
/// full shard's LRU scan and the evicted descriptor's `close`), so the
/// cache is sized past the working set of a few hundred hot files
/// rather than squeezed under a default 1024-fd limit.
const FD_CACHE_PER_SHARD: usize = 192;

struct FdEntry {
    file: Arc<fs::File>,
    last_used: u64,
}

#[derive(Default)]
struct FdShard {
    /// path → chunk_id → cached descriptor. Nested so lookups borrow
    /// the path and invalidation drops a whole file in one `remove`.
    files: HashMap<String, HashMap<u64, FdEntry>>,
    /// Total entries across `files` (eviction bookkeeping).
    len: usize,
    /// Monotonic use counter; larger = more recently used.
    tick: u64,
}

impl FdShard {
    /// The cached descriptor of `(path, chunk_id)`, if any, marked
    /// most recently used — the one hit lookup.
    fn hit(&mut self, path: &str, chunk_id: u64) -> Option<Arc<fs::File>> {
        self.tick += 1;
        let entry = self.files.get_mut(path)?.get_mut(&chunk_id)?;
        entry.last_used = self.tick;
        Some(entry.file.clone())
    }

    /// Install a descriptor opened *outside* the shard lock — the
    /// re-lock half of [`chunk_fd`](Inner::chunk_fd)'s miss path — and
    /// return the descriptor to use.
    fn install_opened(
        &mut self,
        path: &str,
        chunk_id: u64,
        file: Arc<fs::File>,
        cap: usize,
    ) -> Arc<fs::File> {
        if let Some(cached) = self.hit(path, chunk_id) {
            // A racing opener filled this slot while we were opening:
            // use its descriptor, drop ours.
            return cached;
        }
        if self.len >= cap {
            // Evict the least-recently-used entry; the cap is small
            // enough that a scan beats maintaining an ordered index. The
            // scan borrows; only the victim's path is copied, once.
            let mut victim: Option<(&str, u64, u64)> = None;
            for (p, per) in self.files.iter() {
                for (&c, e) in per.iter() {
                    if victim.is_none_or(|v| e.last_used < v.2) {
                        victim = Some((p, c, e.last_used));
                    }
                }
            }
            if let Some((p, c)) = victim.map(|(p, c, _)| (p.to_owned(), c)) {
                self.forget(&p, c);
            }
        }
        let entry = FdEntry { file: file.clone(), last_used: self.tick };
        self.files.entry(path.to_string()).or_default().insert(chunk_id, entry);
        self.len += 1;
        file
    }

    /// Drop the cached descriptor of `(path, chunk_id)`, if any.
    fn forget(&mut self, path: &str, chunk_id: u64) {
        let Some(per) = self.files.get_mut(path) else {
            return;
        };
        if per.remove(&chunk_id).is_some() {
            self.len -= 1;
        }
        if per.is_empty() {
            self.files.remove(path);
        }
    }
}

/// Everything batch tasks need, behind one `Arc` so pool jobs can
/// outlive the borrow that submitted them.
struct Inner {
    chunk_root: PathBuf,
    fd_shards: Vec<OrderedMutex<FdShard>>,
    stats: DaemonCounters,
}

/// Chunk store rooted at a directory on the node-local file system.
pub struct FileChunkStorage {
    inner: Arc<Inner>,
    /// The pool engine's workers; `None` is the serial engine.
    pool: Option<TaskPool>,
}

/// Escape a GekkoFS path into one file-name-safe component.
/// `/a/b:c` → `:a:b;cc` — `/`→`:` (as in GekkoFS) and `:`→`;c` so the
/// mapping stays injective.
fn escape_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 4);
    for ch in path.chars() {
        match ch {
            '/' => out.push(':'),
            ':' => out.push_str(";c"),
            ';' => out.push_str(";s"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_path`] (used by the `fsck` inventory scan).
fn unescape_path(escaped: &str) -> String {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(ch) = chars.next() {
        match ch {
            ':' => out.push('/'),
            ';' => match chars.next() {
                Some('c') => out.push(':'),
                Some('s') => out.push(';'),
                other => {
                    out.push(';');
                    if let Some(o) = other {
                        out.push(o);
                    }
                }
            },
            c => out.push(c),
        }
    }
    out
}

/// The chunk file name of chunk `chunk_id` of the path that escapes to
/// `escaped`.
fn chunk_name(escaped: &str, chunk_id: u64) -> String {
    format!("{escaped}.{chunk_id}")
}

/// Inverse of [`chunk_name`]: the escaped path and the chunk id a
/// directory entry names, or `None` for a stranger (no id, or an id
/// not in canonical form). Splits at the *last* `.` and takes only the
/// canonical decimal form of an id, so exactly one `(escaped, id)` maps
/// to any name.
fn parse_chunk_name(name: &str) -> Option<(&str, u64)> {
    let (escaped, digits) = name.rsplit_once('.')?;
    let id = digits.parse::<u64>().ok()?;
    (chunk_name(escaped, id) == name).then_some((escaped, id))
}

/// `pread`'s `off_t` is declared as `i64` below: 64 bits on every LP64
/// Unix, which is what this store builds for.
const _: () = assert!(usize::BITS == 64, "pread's off_t is declared as i64");

/// Positional read loop: fill `buf` from `offset` until full or EOF and
/// return how many bytes it filled — the prefix of `buf` that is now
/// initialised; the rest is left as it was. EOF is discovered by the
/// read itself, one syscall in the common case. `pread(2)` writes
/// straight into the uninitialised reply buffer, so nothing has to be
/// zeroed first for it to overwrite (`File::read_at` takes only
/// initialised bytes, and `read_buf` is not stable).
fn read_into(file: &fs::File, mut offset: u64, buf: &mut [MaybeUninit<u8>]) -> Result<usize> {
    extern "C" {
        fn pread(fd: c_int, buf: *mut c_void, count: usize, offset: i64) -> isize;
    }
    let mut done = 0;
    while done < buf.len() {
        let rest = &mut buf[done..];
        let at = i64::try_from(offset)
            .map_err(|_| GkfsError::InvalidArgument(format!("chunk offset {offset} past off_t")))?;
        // SAFETY: `rest` is an exclusively borrowed region of
        // `rest.len()` bytes, of which the kernel writes at most that
        // many (uninitialised is fine: they are only written); the
        // descriptor is `file`'s, open for the whole call.
        let got = unsafe { pread(file.as_raw_fd(), rest.as_mut_ptr().cast(), rest.len(), at) };
        match usize::try_from(got) {
            Ok(0) => break,
            Ok(n) => {
                done += n;
                offset += n as u64;
            }
            Err(_) => {
                let e = std::io::Error::last_os_error();
                if e.kind() != ErrorKind::Interrupted {
                    return Err(e.into());
                }
            }
        }
    }
    Ok(done)
}

/// A batch's borrowed buffer made sendable, so that segment tasks can
/// carry it across threads: the base of a read's destination, which a
/// task turns into its own window — this pointer plus a length, bytes
/// not yet initialised — or a write's whole payload, which every task
/// only reads.
struct SendPtr<T: ?Sized>(*mut T);

// A read's pointer is only ever turned into one segment's own window,
// and windows of distinct segments are disjoint by construction (dense
// running-sum `buf_offset` layout, checked before fan-out); a write's
// payload is shared and only read.
// SAFETY: disjoint windows or shared reads + the buffer outlives every
// task — it is borrowed for the whole `read_batch` or `write_batch`
// call, and `run_segments` returns only after every task has sent its
// result or dropped its sender.
unsafe impl<T: ?Sized> Send for SendPtr<T> {}

impl Inner {
    /// The shard directory holding every chunk of `path`. FNV-1a is
    /// the stable hash (restarts must find their files), and it is not
    /// the distributor's (XXH64), so the paths placed on one daemon
    /// still spread over all of its shards.
    fn shard_dir(&self, path: &str) -> PathBuf {
        let shard = fnv1a64(path.as_bytes()) % DIR_SHARDS;
        self.chunk_root.join(format!("{shard:03x}"))
    }

    /// `path` escaped, or `None` when no chunk file name can carry it
    /// (see [`MAX_ESCAPED_LEN`]) — such a path holds no chunks.
    fn escaped(path: &str) -> Option<String> {
        Some(escape_path(path)).filter(|e| e.len() <= MAX_ESCAPED_LEN)
    }

    fn chunk_path(&self, path: &str, chunk_id: u64) -> Option<PathBuf> {
        Some(self.shard_dir(path).join(chunk_name(&Self::escaped(path)?, chunk_id)))
    }

    /// The one directory walk: `visit(escaped path, chunk id, entry)`
    /// for every chunk file in shard directory `dir`. A shard nothing
    /// was ever written to does not exist and is empty.
    fn walk_shard(
        &self,
        dir: &Path,
        mut visit: impl FnMut(&str, u64, fs::DirEntry) -> Result<()>,
    ) -> Result<()> {
        self.stats.dir_scans.fetch_add(1, Ordering::Relaxed);
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            if let Some((escaped, id)) = parse_chunk_name(&name.to_string_lossy()) {
                visit(escaped, id, entry)?;
            }
        }
        Ok(())
    }

    /// Every chunk file held for `path`, by enumerating its shard.
    fn held(&self, path: &str) -> Result<Vec<(u64, fs::DirEntry)>> {
        let mut out = Vec::new();
        if let Some(mine) = Self::escaped(path) {
            self.walk_shard(&self.shard_dir(path), |escaped, id, entry| {
                if escaped == mine {
                    out.push((id, entry));
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    fn fd_shard(&self, path: &str, chunk_id: u64) -> &OrderedMutex<FdShard> {
        let h = fnv1a64(path.as_bytes()) ^ chunk_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.fd_shards[to_usize(h % FD_SHARDS as u64)]
    }

    /// The cached descriptor for `(path, chunk_id)`, opening and
    /// caching on miss. `create` selects `O_CREAT` — the write path
    /// creates chunk files, the read path must not; a miss on a
    /// nonexistent chunk file without it returns `Ok(None)`. The `open`
    /// itself runs outside the shard lock so a miss doesn't stall other
    /// chunks hashed to the same shard: a hit takes the lock once, a
    /// miss twice, and nothing else on the data path takes it at all.
    fn chunk_fd(&self, path: &str, chunk_id: u64, create: bool) -> Result<Option<Arc<fs::File>>> {
        let hit = self.fd_shard(path, chunk_id).lock().hit(path, chunk_id);
        if hit.is_some() {
            self.stats.fd_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.stats.fd_cache_misses.fetch_add(1, Ordering::Relaxed);
        let Some(cpath) = self.chunk_path(path, chunk_id) else {
            if !create {
                return Ok(None);
            }
            return Err(GkfsError::InvalidArgument(format!(
                "path escapes to more than {MAX_ESCAPED_LEN} bytes, \
                 the longest a chunk file name carries"
            )));
        };
        // Read+write regardless of caller: the one cached descriptor
        // serves both directions.
        let mut opts = fs::OpenOptions::new();
        opts.read(true).write(true).create(create);
        let file = match opts.open(&cpath) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                if !create {
                    return Ok(None);
                }
                // First write into this shard: its directory is
                // missing. A racing creator made it: equally good.
                match fs::create_dir(self.shard_dir(path)) {
                    Err(e) if e.kind() != ErrorKind::AlreadyExists => return Err(e.into()),
                    _ => opts.open(&cpath)?,
                }
            }
            Err(e) => return Err(e.into()),
        };
        let mut shard = self.fd_shard(path, chunk_id).lock();
        Ok(Some(shard.install_opened(path, chunk_id, Arc::new(file), FD_CACHE_PER_SHARD)))
    }

    /// Drop the cached descriptor of `(path, chunk_id)` (after its file
    /// was unlinked, so later ops re-resolve against the real
    /// directory) — one lock, on the cache shard the pair hashes to.
    fn forget_fd(&self, path: &str, chunk_id: u64) {
        self.fd_shard(path, chunk_id).lock().forget(path, chunk_id);
    }

    /// Coalescing run cursor shared by the batch paths: extend from
    /// `i` while ops stay contiguous in both the chunk file and the
    /// buffer, returning `(end, merged_len)`.
    fn run_end(&self, ops: &[BatchOp], i: usize) -> (usize, u64) {
        let mut end = i + 1;
        let mut len = ops[i].len;
        while end < ops.len()
            && ops[end].chunk_id == ops[i].chunk_id
            && ops[end].offset == ops[i].offset + len
            && ops[end].buf_offset == ops[i].buf_offset + len
        {
            len += ops[end].len;
            end += 1;
        }
        if end > i + 1 {
            self.stats
                .coalesced_ops
                .fetch_add((end - i - 1) as u64, Ordering::Relaxed);
        }
        (end, len)
    }

    /// Serial write path: one `write_all_at` per coalesced run.
    fn write_runs(&self, path: &str, ops: &[BatchOp], bulk: &[u8]) -> Result<()> {
        let mut i = 0;
        while i < ops.len() {
            let (end, len) = self.run_end(ops, i);
            let a = to_usize(ops[i].buf_offset);
            let data = &bulk[a..a + to_usize(len)];
            self.stats.storage_write_ops.fetch_add(1, Ordering::Relaxed);
            self.stats.storage_write_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
            // `None` cannot happen with `create`; an error, not a
            // panic, in the daemon's data path if it ever does.
            let file = self.chunk_fd(path, ops[i].chunk_id, true)?.ok_or(GkfsError::NotFound)?;
            file.write_all_at(data, ops[i].offset)?;
            i = end;
        }
        Ok(())
    }

    /// Serial read path: one positional read through the cached
    /// descriptor per coalesced run, into `out`'s window; a chunk with
    /// no file reads 0 bytes. Whatever a run's read did not reach is
    /// then zero-filled, so on `Ok` every byte of `out` is initialised —
    /// the chunk's bytes or zeros. The per-run count is distributed back
    /// over the run (a short read is an EOF, so it can only truncate the
    /// tail).
    fn read_runs(
        &self,
        path: &str,
        ops: &[BatchOp],
        out: &mut [MaybeUninit<u8>],
    ) -> Result<Vec<u64>> {
        let mut lens = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let (end, len) = self.run_end(ops, i);
            let a = to_usize(ops[i].buf_offset);
            let window = &mut out[a..a + to_usize(len)];
            let n = match self.chunk_fd(path, ops[i].chunk_id, false)? {
                Some(file) => read_into(&file, ops[i].offset, window)?,
                None => 0,
            };
            window[n..].fill(MaybeUninit::new(0));
            self.stats.storage_read_ops.fetch_add(1, Ordering::Relaxed);
            self.stats.storage_read_bytes.fetch_add(n as u64, Ordering::Relaxed);
            let mut rel = 0u64;
            for op in &ops[i..end] {
                lens.push((n as u64).saturating_sub(rel).min(op.len));
                rel += op.len;
            }
            i = end;
        }
        Ok(lens)
    }
}

/// Rebase a segment's ops onto a window starting at `win_start`, so a
/// task only ever indexes the slice it exclusively owns.
fn rebase(ops: &[BatchOp], win_start: u64) -> Vec<BatchOp> {
    ops.iter()
        .map(|o| BatchOp {
            buf_offset: o.buf_offset - win_start,
            ..*o
        })
        .collect()
}

impl FileChunkStorage {
    /// Open (creating if needed) a chunk store under `root` with a task
    /// pool sized to the machine.
    pub fn open(root: impl Into<PathBuf>) -> Result<FileChunkStorage> {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::open_with(root, IoBackend::Auto, threads, 64)
    }

    /// Open a chunk store under `root`. `threads`/`queue_depth` size
    /// the task pool; `threads == 0` selects the serial engine.
    /// [`IoBackend`] has the one value `Auto`.
    pub fn open_with(
        root: impl Into<PathBuf>,
        _backend: IoBackend,
        threads: usize,
        queue_depth: usize,
    ) -> Result<FileChunkStorage> {
        let chunk_root = root.into().join("chunks");
        fs::create_dir_all(&chunk_root)?;
        let depth = queue_depth.max(threads);
        let pool = (threads > 0)
            .then(|| TaskPool::new("chunk-io", threads, depth, rank::DAEMON_CHUNK_QUEUE));
        Ok(FileChunkStorage {
            inner: Arc::new(Inner {
                chunk_root,
                fd_shards: (0..FD_SHARDS)
                    .map(|_| OrderedMutex::new(rank::STORAGE_FD_SHARD, FdShard::default()))
                    .collect(),
                stats: DaemonCounters::default(),
            }),
            pool,
        })
    }

    /// Name of the active batch engine (diagnostics and tests).
    pub fn engine_name(&self) -> &'static str {
        match self.pool {
            None => "serial",
            Some(_) => "pool",
        }
    }

    /// The pool and the batch's segments when the batch fans out: the
    /// pool engine with more than one segment. Everything else — the
    /// serial engine, or a batch that is one same-chunk run — executes
    /// on the calling thread.
    fn fan_out(&self, ops: &[BatchOp]) -> Option<(&TaskPool, Vec<(usize, usize)>)> {
        let pool = self.pool.as_ref()?;
        let segs = segment(ops, pool.workers().max(1));
        (segs.len() > 1).then_some((pool, segs))
    }

    /// Run a fanned-out batch's segment jobs to completion and return
    /// their lens in op order. Each job goes to the pool or, when its
    /// queue is full, runs here (caller-runs) under `catch_unwind`, as a
    /// pool worker runs it. Either way this returns only once every job
    /// has sent its result or dropped its sender — what lets a batch's
    /// jobs borrow the caller's buffer ([`SendPtr`]): a read's jobs
    /// write into it, a write's read from it. The
    /// first failed segment in op order gives the error, and a segment
    /// that ended without a result (a panic, on either thread) fails as
    /// lost.
    fn run_segments<F>(&self, pool: &TaskPool, jobs: Vec<F>) -> Result<Vec<u64>>
    where
        F: FnOnce() -> Result<Vec<u64>> + Send + 'static,
    {
        gkfs_common::lock::assert_unguarded("FileChunkStorage batch");
        let stats = &self.inner.stats;
        let mut results = vec![None; jobs.len()];
        let (tx, rx) = mpsc::channel();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let job = move || {
                let _ = tx.send((i, job()));
            };
            match pool.try_submit(Box::new(job)) {
                Ok(()) => {
                    stats.chunk_tasks_spawned.fetch_add(1, Ordering::Relaxed);
                }
                Err(job) => {
                    // caller-runs: the submitting thread absorbs
                    // overflow, and a panic stays inside the job.
                    stats.chunk_inline_runs.fetch_add(1, Ordering::Relaxed);
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
            }
        }
        drop(tx);
        for (i, res) in rx.iter().take(results.len()) {
            results[i] = Some(res);
        }
        let lost = || GkfsError::Rpc("chunk batch task lost without result".into());
        let mut lens = Vec::new();
        for res in results {
            lens.extend(res.ok_or_else(lost)??);
        }
        Ok(lens)
    }

}

impl ChunkStorage for FileChunkStorage {
    fn write_batch(&self, path: &str, ops: &[BatchOp], bulk: &[u8]) -> Result<()> {
        check_write_windows(ops, bulk.len())?;
        let Some((pool, segs)) = self.fan_out(ops) else {
            return self.inner.write_runs(path, ops, bulk);
        };
        let payload = std::ptr::from_ref(bulk).cast_mut();
        let jobs = segs
            .iter()
            .map(|&(start, end)| {
                let (inner, path) = (self.inner.clone(), path.to_string());
                let seg_ops = ops[start..end].to_vec();
                let payload = SendPtr(payload);
                // Windows keep their original offsets into the shared
                // payload — no copy.
                move || {
                    let payload = payload;
                    // SAFETY: only read, and borrowed until every job
                    // has run or been dropped; see `SendPtr`.
                    let bulk = unsafe { &*payload.0 };
                    inner.write_runs(&path, &seg_ops, bulk).map(|()| Vec::new())
                }
            })
            .collect();
        self.run_segments(pool, jobs).map(drop)
    }

    fn read_batch(&self, path: &str, ops: &[BatchOp], out: &mut Vec<u8>) -> Result<Vec<u64>> {
        // Not zeroed: each run is read straight into its window and
        // only what a read did not reach is zero-filled (`read_runs`);
        // the length covers the bytes once every window is written.
        let total = to_usize(validate_dense_layout(ops)?);
        out.clear();
        out.reserve(total);
        let lens = match self.fan_out(ops) {
            None => self.inner.read_runs(path, ops, &mut out.spare_capacity_mut()[..total])?,
            Some((pool, segs)) => {
                let base = out.spare_capacity_mut().as_mut_ptr();
                let jobs = segs
                    .iter()
                    .map(|&(start, end)| {
                        // Window bounds come straight from the validated
                        // dense layout (no re-summing that could diverge
                        // from `total`).
                        let win_start = to_usize(ops[start].buf_offset);
                        let win_len = ops.get(end).map_or(total, |o| to_usize(o.buf_offset)) - win_start;
                        // SAFETY: in bounds: the window ends at or before
                        // `total`, within the capacity reserved above.
                        let win = SendPtr(unsafe { base.add(win_start) });
                        let (inner, path) = (self.inner.clone(), path.to_string());
                        let seg_ops = rebase(&ops[start..end], win_start as u64);
                        move || {
                            let win = win;
                            // SAFETY: exclusive window; see `SendPtr`.
                            // Typed as uninitialised bytes until
                            // `read_runs` has written every one.
                            let buf = unsafe { std::slice::from_raw_parts_mut(win.0, win_len) };
                            inner.read_runs(&path, &seg_ops, buf)
                        }
                    })
                    .collect();
                self.run_segments(pool, jobs)?
            }
        };
        // SAFETY: `read_runs` returned `Ok` for every window it was given,
        // so it initialised each, and the windows tile `[0, total)` — the
        // first starts at the layout's 0, each ends where the next
        // begins, the last at `total`, within the capacity.
        unsafe { out.set_len(total) };
        Ok(lens)
    }

    fn remove_chunks(&self, path: &str, ids: &[u64]) -> Result<()> {
        let inner = &self.inner;
        let Some(escaped) = Inner::escaped(path) else {
            return Ok(());
        };
        let held: Vec<u64>;
        let ids = if ids.is_empty() {
            held = inner.held(path)?.into_iter().map(|(id, _)| id).collect();
            &held
        } else {
            ids
        };
        let dir = inner.shard_dir(path);
        for &id in ids {
            match fs::remove_file(dir.join(chunk_name(&escaped, id))) {
                Ok(()) => {}
                // A hole in a sparse file, or a replayed remove.
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            inner.forget_fd(path, id);
        }
        Ok(())
    }

    fn truncate_chunks(&self, path: &str, keep_chunk: u64, keep_bytes: u64) -> Result<()> {
        for (id, entry) in self.inner.held(path)? {
            if id > keep_chunk {
                fs::remove_file(entry.path())?;
                self.inner.forget_fd(path, id);
            } else if id == keep_chunk && entry.metadata()?.len() > keep_bytes {
                // Cut in place: the inode stays, so a cached descriptor
                // stays valid (nothing to forget) and a racing `pread`
                // sees the longer or the shorter file, never a fault.
                let file = fs::OpenOptions::new().write(true).open(entry.path())?;
                file.set_len(keep_bytes)?;
            }
        }
        Ok(())
    }

    fn holds(&self, path: &str, chunk_id: u64) -> Result<bool> {
        Ok(self.inner.chunk_fd(path, chunk_id, false)?.is_some())
    }

    fn list_chunks(&self, path: &str) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        for (id, entry) in self.inner.held(path)? {
            out.push((id, entry.metadata()?.len()));
        }
        out.sort_unstable();
        Ok(out)
    }

    fn list_paths(&self) -> Result<Vec<(String, usize)>> {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for shard in fs::read_dir(&self.inner.chunk_root)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            self.inner.walk_shard(&shard.path(), |escaped, _, _| {
                *counts.entry(escaped.to_string()).or_default() += 1;
                Ok(())
            })?;
        }
        Ok(counts.into_iter().map(|(e, n)| (unescape_path(&e), n)).collect())
    }

    fn stats(&self) -> &DaemonCounters {
        &self.inner.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchPayload;
    use bytes::Bytes;
    use proptest::prelude::*;

    #[test]
    fn escaping_is_injective_for_tricky_paths() {
        let paths = ["/a/b", "/a:b", "/a;b", "/a/b:c", "/a:/bc", "/ab/c", "/a/b/c"];
        let mut seen = std::collections::HashSet::new();
        for p in paths {
            assert!(seen.insert(escape_path(p)), "collision for {p}");
        }
    }

    #[test]
    fn unescape_inverts_escape() {
        for p in ["/a/b", "/a:b", "/a;b", "/x/y:z;w/q", "/", "/;c;s::"] {
            assert_eq!(unescape_path(&escape_path(p)), p, "roundtrip {p}");
        }
    }

    /// A path drawn from the characters the naming treats specially.
    fn tricky_path() -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u8>(), 0..12).prop_map(|picks| {
            const ALPHABET: &[u8] = b"/:;.tcs019a";
            let tail = picks.iter().map(|&p| ALPHABET[p as usize % ALPHABET.len()] as char);
            std::iter::once('/').chain(tail).collect()
        })
    }

    proptest! {
        /// `(path, id) → file name → (path, id)` round-trips — so no
        /// two pairs share a name — and a name with a non-numeric
        /// suffix (what truncate's temp files once were) is not a chunk.
        #[test]
        fn chunk_file_names_are_injective(
            a in tricky_path(), b in tricky_path(), ia in any::<u64>(), ib in any::<u64>()
        ) {
            // Small ids too: `.0`/`.1` tails are where names could meet.
            for (ia, ib) in [(ia, ib), (ia % 3, ib % 3)] {
                let na = chunk_name(&escape_path(&a), ia);
                let nb = chunk_name(&escape_path(&b), ib);
                let (escaped, id) = parse_chunk_name(&na).expect("a chunk name parses");
                prop_assert_eq!((unescape_path(escaped), id), (a.clone(), ia));
                prop_assert_eq!(na == nb, (&a, ia) == (&b, ib), "{} vs {}", na, nb);
                let temp = format!("{na}.t");
                prop_assert_eq!(parse_chunk_name(&temp), None);
                prop_assert_ne!(temp, nb);
            }
        }
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let s = FileChunkStorage::open(&dir).unwrap();
            s.write_chunk("/persist/me", 7, 0, b"durable").unwrap();
        }
        {
            let s = FileChunkStorage::open(&dir).unwrap();
            assert_eq!(s.read_chunk("/persist/me", 7, 0, 7).unwrap(), b"durable");
            assert_eq!(s.chunk_count("/persist/me").unwrap(), 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The layout, by name: `chunks/<shard>/<escaped path>.<id>`, all
    /// of a path's chunks in one shard directory, nothing else made.
    #[test]
    fn one_file_per_chunk_on_disk() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-layout-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        assert_eq!(fs::read_dir(dir.join("chunks")).unwrap().count(), 0, "shards are lazy");
        s.write_chunk("/data/file", 0, 0, b"a").unwrap();
        s.write_chunk("/data/file", 1, 0, b"b").unwrap();
        let shards: Vec<PathBuf> = fs::read_dir(dir.join("chunks"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(shards, [s.inner.shard_dir("/data/file")], "one shard directory");
        let mut names: Vec<String> = fs::read_dir(&shards[0])
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, [":data:file.0", ":data:file.1"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Names that look like chunks but are not, and near-collisions a
    /// prefix match or a first-`.` split would get wrong.
    #[test]
    fn chunk_names_parse_back_or_not_at_all() {
        assert_eq!(parse_chunk_name(":a.1"), Some((":a", 1)));
        assert_eq!(parse_chunk_name(":a.1.0"), Some((":a.1", 0)), "/a.1 chunk 0 is not /a's");
        assert_eq!(parse_chunk_name(":a..7"), Some((":a.", 7)));
        assert_eq!(parse_chunk_name(".18446744073709551615"), Some(("", u64::MAX)));
        for stranger in [":a.1.t", ":a.t", ":a", ":a.", ":a.01", ":a.+1", ":a.-1", ":a.1 ", ":a.18446744073709551616"] {
            assert_eq!(parse_chunk_name(stranger), None, "{stranger}");
        }
    }

    /// A path's name part is bounded by `NAME_MAX`: the first write to
    /// a path past the bound is a typed refusal naming it, not a raw
    /// `ENAMETOOLONG`, and such a path reads, lists and removes as
    /// holding nothing.
    #[test]
    fn over_long_path_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-long-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        let fits = format!("/{}", "x".repeat(MAX_ESCAPED_LEN - 1));
        s.write_chunk(&fits, u64::MAX, 0, b"ok").unwrap();
        s.truncate_chunks(&fits, u64::MAX, 1).unwrap();
        assert_eq!(s.read_chunk(&fits, u64::MAX, 0, 2).unwrap(), b"o");
        // One more byte — or an escape that doubles a `:` — is past it.
        for long in [format!("{fits}y"), format!("/{}:", "x".repeat(MAX_ESCAPED_LEN - 2))] {
            match s.write_chunk(&long, 0, 0, b"no") {
                Err(GkfsError::InvalidArgument(why)) => {
                    assert!(why.contains(&MAX_ESCAPED_LEN.to_string()), "{why}")
                }
                other => panic!("expected InvalidArgument, got {other:?}"),
            }
            assert!(s.read_chunk(&long, 0, 0, 2).unwrap().is_empty());
            assert!(!s.holds(&long, 0).unwrap());
            assert_eq!(s.chunk_count(&long).unwrap(), 0);
            s.remove_chunks(&long, &[0]).unwrap();
            s.remove_chunks(&long, &[]).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fd_cache_hits_after_first_touch() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-fdcache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        s.write_chunk("/hot", 0, 0, b"abcd").unwrap();
        for _ in 0..10 {
            assert_eq!(s.read_chunk("/hot", 0, 0, 4).unwrap(), b"abcd");
        }
        let hits = s.stats().fd_cache_hits.load(Ordering::Relaxed);
        let misses = s.stats().fd_cache_misses.load(Ordering::Relaxed);
        assert_eq!(misses, 1, "one open for write, reads reuse it");
        assert!(hits >= 10, "reads must hit the fd cache, got {hits}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_invalidates_cached_fds() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-inval-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        s.write_chunk("/gone", 0, 0, b"abcd").unwrap();
        s.remove_chunks("/gone", &[0]).unwrap();
        // A stale cached fd would still read the unlinked inode's data.
        assert!(s.read_chunk("/gone", 0, 0, 4).unwrap().is_empty());
        // Re-create after remove goes to a fresh file.
        s.write_chunk("/gone", 0, 0, b"new").unwrap();
        assert_eq!(s.read_chunk("/gone", 0, 0, 4).unwrap(), b"new");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A remove by ids forgets exactly those descriptors: the path's
    /// other chunks and a neighbour path keep theirs.
    #[test]
    fn remove_by_ids_forgets_only_the_named_fds() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-forget-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        let cached = |path: &str, id: u64| {
            let shard = s.inner.fd_shard(path, id).lock();
            shard.files.get(path).is_some_and(|per| per.contains_key(&id))
        };
        for id in 0..3 {
            s.write_chunk("/p", id, 0, b"p").unwrap();
        }
        s.write_chunk("/q", 1, 0, b"q").unwrap();
        s.remove_chunks("/p", &[1, 2, 9]).unwrap();
        assert!(cached("/p", 0) && cached("/q", 1));
        assert!(!cached("/p", 1) && !cached("/p", 2));
        let cached_total: usize = s.inner.fd_shards.iter().map(|sh| sh.lock().len).sum();
        assert_eq!(cached_total, 2, "the entry count follows the map");
        let misses = s.stats().fd_cache_misses.load(Ordering::Relaxed);
        assert_eq!(s.read_chunk("/q", 1, 0, 1).unwrap(), b"q");
        assert_eq!(s.stats().fd_cache_misses.load(Ordering::Relaxed), misses, "neighbour still cached");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_invalidates_boundary_fd() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-trinval-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        s.write_chunk("/tr", 0, 0, &[7u8; 64]).unwrap();
        s.write_chunk("/tr", 1, 0, &[8u8; 64]).unwrap();
        s.truncate_chunks("/tr", 0, 16).unwrap();
        assert_eq!(s.read_chunk("/tr", 0, 0, 64).unwrap().len(), 16);
        assert!(s.read_chunk("/tr", 1, 0, 64).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The double-open race: two openers miss on one chunk before
    /// either installs. Whoever re-locks second finds the slot filled,
    /// uses that descriptor and drops its own, so the cache never holds
    /// two descriptors for a chunk. No state depends on the order:
    /// every round checks the outcome, and the rounds go on until the
    /// barrier has actually produced a double miss.
    #[test]
    fn racing_openers_share_one_descriptor() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        let inner = &s.inner;
        let misses = || s.stats().fd_cache_misses.load(Ordering::Relaxed);
        let start = std::sync::Barrier::new(2);
        let mut double_miss = false;
        for id in 0..20_000u64 {
            let before = misses();
            let open = || {
                start.wait();
                inner.chunk_fd("/race", id, true).unwrap().unwrap()
            };
            let (a, b) = std::thread::scope(|sc| {
                let t = sc.spawn(open);
                (open(), t.join().unwrap())
            });
            assert!(Arc::ptr_eq(&a, &b), "both openers use the one cached descriptor");
            let shard = inner.fd_shard("/race", id).lock();
            assert_eq!(shard.files["/race"].len(), 1, "one entry for the chunk");
            assert_eq!(shard.len, 1, "and the entry count agrees");
            drop(shard);
            double_miss = misses() - before == 2;
            s.remove_chunks("/race", &[id]).unwrap();
            if double_miss {
                break;
            }
        }
        assert!(double_miss, "20 000 barrier releases never raced two misses");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The shard lock on the data path, by count: every acquisition
    /// there goes through [`FdShard::hit`], which bumps the shard's
    /// `tick` once. A warm op takes it once (the lookup), a cold one
    /// twice (lookup, install), and a write takes none after its bytes
    /// are on the file.
    #[test]
    fn data_path_lock_acquisitions_by_count() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-locks-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        let ticks = || s.inner.fd_shards.iter().map(|sh| sh.lock().tick).sum::<u64>();
        let mut seen = ticks();
        let mut took = |what: &str, expect: u64| {
            let now = ticks();
            assert_eq!(now - seen, expect, "{what}");
            seen = now;
        };
        s.write_chunk("/locks", 0, 0, &[1u8; 4096]).unwrap();
        took("cold write: lookup + install", 2);
        s.write_chunk("/locks", 0, 4096, &[2u8; 4096]).unwrap();
        took("warm write: the lookup, nothing after the pwrite", 1);
        s.read_chunk("/locks", 0, 0, 8192).unwrap();
        took("warm read", 1);
        s.inner.forget_fd("/locks", 0);
        s.read_chunk("/locks", 0, 0, 8192).unwrap();
        took("cold read: lookup + install", 2);
        s.read_chunk("/locks", 9, 0, 8192).unwrap();
        took("read of an absent chunk: the lookup", 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Readers on warm descriptors while another thread alternately
    /// cuts the chunk in place and writes the cut part back. Every
    /// read succeeds, is never shorter than the shortest state, and is
    /// exact below the cut; above it a byte is the file's or a zero —
    /// ext4 does not make `pread` atomic against `ftruncate`, so a read
    /// overlapping the cut can see the zeros the cut makes of the
    /// boundary page (what a POSIX reader racing a truncate gets; the
    /// rename this replaced gave the old inode instead).
    #[test]
    fn reads_racing_an_in_place_cut_never_fail() {
        const LONG: usize = 8192;
        const CUT: usize = 1000;
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-cut-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        let full: Vec<u8> = (0..LONG).map(|i| u8::try_from(i % 251).unwrap() + 1).collect();
        s.write_chunk("/cut", 0, 0, &full).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|sc| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    sc.spawn(|| {
                        while !stop.load(Ordering::Relaxed) {
                            let got = s.read_chunk("/cut", 0, 0, LONG as u64).unwrap();
                            assert!((CUT..=LONG).contains(&got.len()), "read {} bytes", got.len());
                            assert_eq!(&got[..CUT], &full[..CUT], "below the cut");
                            let tail = got[CUT..].iter().zip(&full[CUT..]);
                            assert!(tail.clone().all(|(g, f)| g == f || *g == 0), "above the cut");
                        }
                    })
                })
                .collect();
            for _ in 0..2000 {
                s.truncate_chunks("/cut", 0, CUT as u64).unwrap();
                s.write_chunk("/cut", 0, CUT as u64, &full[CUT..]).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(s.stats().fd_cache_misses.load(Ordering::Relaxed), 1, "the cut keeps the descriptor warm");
        assert_eq!(s.read_chunk("/cut", 0, 0, LONG as u64).unwrap(), full);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fd_cache_evicts_beyond_capacity() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-evict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open(&dir).unwrap();
        // Far more distinct chunks than the cache holds.
        let total = FD_SHARDS * FD_CACHE_PER_SHARD * 2;
        for c in 0..total as u64 {
            s.write_chunk("/many", c, 0, &c.to_le_bytes()).unwrap();
        }
        let cached: usize = s.inner.fd_shards.iter().map(|sh| sh.lock().len).sum();
        assert!(
            cached <= FD_SHARDS * FD_CACHE_PER_SHARD,
            "cache exceeded capacity: {cached}"
        );
        // Every chunk still reads back correctly through re-opens.
        for c in [0u64, 37, total as u64 - 1] {
            assert_eq!(s.read_chunk("/many", c, 0, 8).unwrap(), c.to_le_bytes());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    fn layout(specs: &[(u64, u64, u64)]) -> Vec<BatchOp> {
        let mut cursor = 0;
        specs
            .iter()
            .map(|&(chunk_id, offset, len)| {
                let op = BatchOp { chunk_id, offset, len, buf_offset: cursor };
                cursor += len;
                op
            })
            .collect()
    }

    /// Both engines must produce identical batch results: roundtrips,
    /// short reads inside coalesced runs, and parallel fan-out all
    /// agree with the serial reference.
    #[test]
    fn engines_agree_on_batches() {
        let base = std::env::temp_dir().join(format!("gkfs-fcs-engines-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let stores = vec![
            ("serial", FileChunkStorage::open_with(base.join("s"), IoBackend::Auto, 0, 0).unwrap()),
            ("pool", FileChunkStorage::open_with(base.join("p"), IoBackend::Auto, 4, 64).unwrap()),
        ];
        for (name, s) in &stores {
            assert_eq!(s.engine_name(), *name);
            let ops = layout(&[
                (0, 0, 64), (0, 64, 64), (1, 0, 64), (2, 0, 64),
                (3, 0, 64), (4, 0, 64), (5, 0, 64), (6, 0, 64),
            ]);
            let bulk: Vec<u8> = (0..8 * 64u32).map(|i| (i % 249) as u8).collect();
            s.submit_batch("/eng", &ops, BatchPayload::Write(Bytes::from(bulk.clone())))
                .wait()
                .unwrap();
            let out = s.submit_batch("/eng", &ops, BatchPayload::Read).wait().unwrap();
            assert_eq!(out.lens, vec![64; 8], "{name}");
            assert_eq!(out.data, bulk, "{name}");
            // Short read within a coalesced run: chunk 7 holds 40 of
            // the 64 requested; per-op lens must be 16,16,8,0.
            s.write_chunk("/eng", 7, 0, &[5u8; 40]).unwrap();
            let short = layout(&[(7, 0, 16), (7, 16, 16), (7, 32, 16), (7, 48, 16)]);
            let out = s.submit_batch("/eng", &short, BatchPayload::Read).wait().unwrap();
            assert_eq!(out.lens, vec![16, 16, 8, 0], "{name}");
            assert_eq!(&out.data[..40], &[5u8; 40], "{name}");
        }
        let _ = fs::remove_dir_all(&base);
    }

    /// The pool engine fans a batch's segments out over its workers and
    /// returns once all of them are done: every segment's read is
    /// counted before `wait` is called, and the results are
    /// byte-identical and op-ordered.
    #[test]
    fn pool_submit_batch_returns_finished() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-submit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open_with(&dir, IoBackend::Auto, 4, 64).unwrap();
        assert_eq!(s.engine_name(), "pool");
        let ops = layout(&[(0, 0, 4096), (1, 0, 4096), (2, 0, 4096), (3, 0, 4096)]);
        let bulk: Vec<u8> = (0..4 * 4096u32).map(|i| (i % 239) as u8).collect();
        let wc = s.submit_batch("/cmpl", &ops, BatchPayload::Write(Bytes::from(bulk.clone())));
        wc.wait().unwrap();
        let reads = || s.stats().storage_read_ops.load(Ordering::Relaxed);
        let before = reads();
        let rc = s.submit_batch("/cmpl", &ops, BatchPayload::Read);
        assert_eq!(reads() - before, 4, "every segment read before `wait`");
        let out = rc.wait().unwrap();
        assert_eq!(out.lens, vec![4096; 4]);
        assert_eq!(out.data, bulk);
        let spawned = s.stats().chunk_tasks_spawned.load(Ordering::Relaxed);
        assert!(spawned > 0, "pool engine must actually spawn tasks");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment's error on the pool path is the batch's typed error:
    /// a multi-segment write to a path no chunk file name can carry
    /// fails with the first segment's `InvalidArgument`, neither a hang
    /// nor a lost task.
    #[test]
    fn pool_segment_error_is_the_batch_error() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-segerr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open_with(&dir, IoBackend::Auto, 4, 64).unwrap();
        let long = format!("/{}", "x".repeat(MAX_ESCAPED_LEN));
        let ops = layout(&[(0, 0, 64), (1, 0, 64), (2, 0, 64), (3, 0, 64)]);
        assert_eq!(s.fan_out(&ops).map(|(_, segs)| segs.len()), Some(4), "a fanned-out batch");
        let bulk = Bytes::from(vec![7u8; 4 * 64]);
        match s.submit_batch(&long, &ops, BatchPayload::Write(bulk)).wait() {
            Err(GkfsError::InvalidArgument(why)) => {
                assert!(why.contains(&MAX_ESCAPED_LEN.to_string()), "{why}")
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        let stats = s.stats();
        let segments = stats.chunk_tasks_spawned.load(Ordering::Relaxed)
            + stats.chunk_inline_runs.load(Ordering::Relaxed);
        assert_eq!(segments, 4, "every segment ran");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_thread_pool_collapses_to_serial() {
        let dir = std::env::temp_dir().join(format!("gkfs-fcs-serial0-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = FileChunkStorage::open_with(&dir, IoBackend::Auto, 0, 0).unwrap();
        assert_eq!(s.engine_name(), "serial");
        s.write_chunk("/z", 0, 0, b"ok").unwrap();
        assert_eq!(s.read_chunk("/z", 0, 0, 2).unwrap(), b"ok");
        fs::remove_dir_all(&dir).unwrap();
    }
}
