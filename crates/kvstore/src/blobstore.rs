//! Storage abstraction under the LSM engine.
//!
//! The engine persists three kinds of objects: immutable SSTable blobs
//! (written once, then only read), a segmented append-only write-ahead
//! log, and a small MANIFEST blob naming the live tables. All three go
//! through [`BlobStore`], with two implementations:
//!
//! * [`MemBlobStore`] — everything in process memory. Used by tests
//!   and by the in-process cluster, and the natural choice for GekkoFS'
//!   ephemeral deployments where the KV store's contents die with the
//!   job anyway.
//! * [`FsBlobStore`] — one file per blob in a directory on the
//!   node-local file system (the paper's XFS-formatted SSD).
//!
//! The log is a sequence of numbered segments. Appends go to the
//! *active* segment; [`BlobStore::rotate_log`] seals it and opens the
//! next one. The engine rotates in lock-step with memtable rotation so
//! each sealed segment holds exactly one immutable memtable's records,
//! and drops segments ([`BlobStore::drop_logs_through`]) once that
//! memtable's SSTable is in the manifest — the log never needs a
//! wholesale reset while older memtables are still in flight.

use gkfs_common::lock::{self, rank, LockRank, OrderedMutex, OrderedRwLock};
use gkfs_common::Result;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Backend for the engine's persistent objects.
pub trait BlobStore: Send + Sync {
    /// Write an immutable blob (SSTable, MANIFEST). Overwrites any
    /// existing blob of the same name atomically.
    fn put_blob(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Read a whole blob. Returns `NotFound` if absent.
    fn get_blob(&self, name: &str) -> Result<Arc<Vec<u8>>>;

    /// Delete a blob. Deleting a missing blob is not an error (it can
    /// happen after a crash between manifest write and table delete).
    fn delete_blob(&self, name: &str) -> Result<()>;

    /// Append bytes to the active write-ahead log segment.
    fn append_log(&self, data: &[u8]) -> Result<()>;

    /// Durably sync the active log segment (group commit's shared
    /// `fsync`). A no-op for memory-backed stores.
    fn sync_log(&self) -> Result<()>;

    /// Seal the active log segment and open the next one. Returns the
    /// sealed segment's id. The sealed segment is synced first so its
    /// contents are durable before the engine ties an immutable
    /// memtable's fate to it.
    fn rotate_log(&self) -> Result<u64>;

    /// Read every live log segment, oldest first, concatenated — the
    /// recovery image. Frame boundaries never straddle segments, so
    /// concatenation replays exactly like one long log.
    fn read_logs(&self) -> Result<Vec<u8>>;

    /// Delete all *sealed* segments with id `<= id` (their memtables
    /// have been flushed and the manifest updated). The active segment
    /// is never dropped. Dropping already-dropped segments is not an
    /// error.
    fn drop_logs_through(&self, id: u64) -> Result<()>;

    /// Discard every segment and start over with a single empty active
    /// segment. Recovery tests use this to splice a truncated log back
    /// in; the engine itself never resets a live log.
    fn reset_log(&self) -> Result<()>;

    /// List blob names (for recovery sweeps / tests).
    fn list_blobs(&self) -> Result<Vec<String>>;
}

struct MemLog {
    active: u64,
    segments: BTreeMap<u64, Vec<u8>>,
}

impl Default for MemLog {
    fn default() -> MemLog {
        MemLog {
            active: 0,
            segments: BTreeMap::from([(0, Vec::new())]),
        }
    }
}

/// In-memory blob store.
pub struct MemBlobStore {
    blobs: OrderedRwLock<HashMap<String, Arc<Vec<u8>>>>,
    log: OrderedRwLock<MemLog>,
}

impl MemBlobStore {
    /// Create an empty in-memory blob store.
    pub fn new() -> MemBlobStore {
        MemBlobStore {
            blobs: OrderedRwLock::new(rank::KV_BLOB_MAP, HashMap::new()),
            log: OrderedRwLock::new(rank::KV_WAL_LOG, MemLog::default()),
        }
    }
}

impl Default for MemBlobStore {
    fn default() -> MemBlobStore {
        MemBlobStore::new()
    }
}

impl BlobStore for MemBlobStore {
    fn put_blob(&self, name: &str, data: &[u8]) -> Result<()> {
        self.blobs
            .write()
            .insert(name.to_string(), Arc::new(data.to_vec()));
        Ok(())
    }

    fn get_blob(&self, name: &str) -> Result<Arc<Vec<u8>>> {
        self.blobs
            .read()
            .get(name)
            .cloned()
            .ok_or(gkfs_common::GkfsError::NotFound)
    }

    fn delete_blob(&self, name: &str) -> Result<()> {
        self.blobs.write().remove(name);
        Ok(())
    }

    fn append_log(&self, data: &[u8]) -> Result<()> {
        let mut log = self.log.write();
        let active = log.active;
        log.segments
            .get_mut(&active)
            .expect("active segment exists")
            .extend_from_slice(data);
        Ok(())
    }

    fn sync_log(&self) -> Result<()> {
        Ok(())
    }

    fn rotate_log(&self) -> Result<u64> {
        let mut log = self.log.write();
        let sealed = log.active;
        log.active = sealed + 1;
        log.segments.insert(sealed + 1, Vec::new());
        Ok(sealed)
    }

    fn read_logs(&self) -> Result<Vec<u8>> {
        let log = self.log.read();
        let mut out = Vec::new();
        for seg in log.segments.values() {
            out.extend_from_slice(seg);
        }
        Ok(out)
    }

    fn drop_logs_through(&self, id: u64) -> Result<()> {
        let mut log = self.log.write();
        let active = log.active;
        log.segments.retain(|&k, _| k > id || k == active);
        Ok(())
    }

    fn reset_log(&self) -> Result<()> {
        *self.log.write() = MemLog::default();
        Ok(())
    }

    fn list_blobs(&self) -> Result<Vec<String>> {
        Ok(self.blobs.read().keys().cloned().collect())
    }
}

fn segment_name(id: u64) -> String {
    format!("wal-{id:06}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

struct FsLog {
    active: u64,
    file: fs::File,
}

/// File-system-backed blob store: one file per blob under `dir`, plus
/// `wal-NNNNNN.log` files for the write-ahead log segments.
pub struct FsBlobStore {
    dir: PathBuf,
    // Serializes log appends; active segment handle kept open for
    // append speed.
    log: OrderedMutex<FsLog>,
}

impl FsBlobStore {
    /// Open (creating if needed) a blob store rooted at `dir`. The
    /// highest-numbered existing log segment becomes the active one.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FsBlobStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut active = 0u64;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(id) = parse_segment_name(&name) {
                active = active.max(id);
            }
        }
        let file = Self::open_segment(&dir, active)?;
        Ok(FsBlobStore {
            dir,
            log: OrderedMutex::new(rank::KV_WAL_LOG, FsLog { active, file }),
        })
    }

    fn open_segment(dir: &std::path::Path, id: u64) -> Result<fs::File> {
        Ok(fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(dir.join(segment_name(id)))?)
    }

    fn blob_path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn segment_ids(&self) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(id) = parse_segment_name(&name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

/// What a WAL `fsync` holds: the log lock, because the segment must be
/// durable before anyone appends to it or rotates past it, and during a
/// rotation the version write lock, under which the segment is sealed
/// in step with the memtable it backs.
const WAL_SYNC: &[LockRank] = &[rank::KV_VERSION, rank::KV_WAL_LOG];

impl BlobStore for FsBlobStore {
    fn put_blob(&self, name: &str, data: &[u8]) -> Result<()> {
        // Write-then-rename for atomicity.
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            // Background work writes its tables and its manifest under
            // `KV_MANIFEST`, one flush or compaction at a time: a
            // manifest must be durable before the WAL segments it
            // retires are pruned.
            lock::blocking_under("sync_data", &[rank::KV_MANIFEST]);
            f.sync_data()?;
        }
        fs::rename(&tmp, self.blob_path(name))?;
        Ok(())
    }

    fn get_blob(&self, name: &str) -> Result<Arc<Vec<u8>>> {
        let mut f = fs::File::open(self.blob_path(name))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(Arc::new(buf))
    }

    fn delete_blob(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.blob_path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn append_log(&self, data: &[u8]) -> Result<()> {
        let mut log = self.log.lock();
        log.file.write_all(data)?;
        Ok(())
    }

    fn sync_log(&self) -> Result<()> {
        let log = self.log.lock();
        lock::blocking_under("sync_data", WAL_SYNC);
        log.file.sync_data()?;
        Ok(())
    }

    fn rotate_log(&self) -> Result<u64> {
        let mut log = self.log.lock();
        // Seal durably: an immutable memtable's only copy of its
        // records lives in this segment until its SSTable lands.
        lock::blocking_under("sync_data", WAL_SYNC);
        log.file.sync_data()?;
        let sealed = log.active;
        log.file = Self::open_segment(&self.dir, sealed + 1)?;
        log.active = sealed + 1;
        Ok(sealed)
    }

    fn read_logs(&self) -> Result<Vec<u8>> {
        let _log = self.log.lock();
        let mut out = Vec::new();
        for id in self.segment_ids()? {
            let mut f = fs::File::open(self.dir.join(segment_name(id)))?;
            f.read_to_end(&mut out)?;
        }
        Ok(out)
    }

    fn drop_logs_through(&self, id: u64) -> Result<()> {
        let log = self.log.lock();
        for seg in self.segment_ids()? {
            if seg <= id && seg != log.active {
                fs::remove_file(self.dir.join(segment_name(seg)))?;
            }
        }
        Ok(())
    }

    fn reset_log(&self) -> Result<()> {
        let mut log = self.log.lock();
        for seg in self.segment_ids()? {
            fs::remove_file(self.dir.join(segment_name(seg)))?;
        }
        log.file = Self::open_segment(&self.dir, 0)?;
        log.active = 0;
        Ok(())
    }

    fn list_blobs(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if parse_segment_name(&name).is_none() && !name.ends_with(".tmp") {
                out.push(name);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn BlobStore) {
        store.put_blob("t1.sst", b"table-one").unwrap();
        store.put_blob("t2.sst", b"table-two").unwrap();
        assert_eq!(&**store.get_blob("t1.sst").unwrap(), b"table-one");
        // Overwrite.
        store.put_blob("t1.sst", b"table-one-v2").unwrap();
        assert_eq!(&**store.get_blob("t1.sst").unwrap(), b"table-one-v2");
        // List.
        let mut names = store.list_blobs().unwrap();
        names.sort();
        assert_eq!(names, vec!["t1.sst", "t2.sst"]);
        // Delete (idempotent).
        store.delete_blob("t1.sst").unwrap();
        store.delete_blob("t1.sst").unwrap();
        assert!(store.get_blob("t1.sst").is_err());
        // Log: append, sync, rotate, drop sealed segments.
        store.append_log(b"aaa").unwrap();
        store.sync_log().unwrap();
        store.append_log(b"bbb").unwrap();
        assert_eq!(store.read_logs().unwrap(), b"aaabbb");
        let s0 = store.rotate_log().unwrap();
        store.append_log(b"ccc").unwrap();
        assert_eq!(store.read_logs().unwrap(), b"aaabbbccc");
        store.drop_logs_through(s0).unwrap();
        assert_eq!(store.read_logs().unwrap(), b"ccc");
        // Dropping the active segment's id is a no-op for it.
        let s1 = store.rotate_log().unwrap();
        assert!(s1 > s0);
        store.drop_logs_through(u64::MAX).unwrap();
        store.append_log(b"ddd").unwrap();
        assert_eq!(store.read_logs().unwrap(), b"ddd");
        // Reset back to a single empty active segment.
        store.reset_log().unwrap();
        assert_eq!(store.read_logs().unwrap(), b"");
        store.append_log(b"eee").unwrap();
        assert_eq!(store.read_logs().unwrap(), b"eee");
    }

    #[test]
    fn mem_store_contract() {
        exercise(&MemBlobStore::new());
    }

    #[test]
    fn fs_store_contract() {
        let dir = std::env::temp_dir().join(format!("gkfs-blob-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        exercise(&FsBlobStore::open(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("gkfs-blob-r-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let s = FsBlobStore::open(&dir).unwrap();
            s.put_blob("keep.sst", b"persisted").unwrap();
            s.append_log(b"wal-bytes").unwrap();
            s.rotate_log().unwrap();
            s.append_log(b"more").unwrap();
        }
        {
            let s = FsBlobStore::open(&dir).unwrap();
            assert_eq!(&**s.get_blob("keep.sst").unwrap(), b"persisted");
            // Both segments survive, in order, and appends continue in
            // the highest-numbered (active) segment.
            assert_eq!(s.read_logs().unwrap(), b"wal-bytesmore");
            s.append_log(b"!").unwrap();
            assert_eq!(s.read_logs().unwrap(), b"wal-bytesmore!");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
