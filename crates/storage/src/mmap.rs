//! Read-only chunk-file mappings — the syscall-free read path.
//!
//! A chunk file that has been read once stays mapped (`MAP_SHARED`,
//! `PROT_READ`) in the fd cache; later reads memcpy straight out of
//! the page cache with **zero syscalls**. `MAP_SHARED` keeps the
//! mapping coherent with `write(2)` through the cached descriptor, so
//! writes that land inside the mapped range are visible immediately
//! and need no invalidation.
//!
//! Safety rests on one storage-wide invariant: **chunk files never
//! shrink in place**. Growth beyond a mapping is detected by length
//! bookkeeping (`FdEntry::len` vs [`ChunkMap::valid`]) and handled by
//! remapping; truncation replaces the file via rewrite-and-rename, so
//! a concurrently mapped reader keeps the old inode (exactly the
//! stale-fd window the cache already documents) instead of faulting on
//! pages ripped out from under it. Unlink keeps a mapped inode alive
//! by POSIX.
//!
//! Raw `syscall(2)` — no libc crate — so the
//! fast path is gated to x86_64 Linux; other targets report "no
//! mapping" and the caller falls back to positional reads.

#![allow(missing_docs)] // field docs would restate the mmap ABI

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
use std::fs;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::fs;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: i64 = 9;
    const SYS_MUNMAP: i64 = 11;
    const PROT_READ: i64 = 1;
    const MAP_SHARED: i64 = 1;
    const PAGE: u64 = 4096;

    extern "C" {
        fn syscall(num: i64, ...) -> i64;
    }

    /// One live read-only mapping of a chunk file.
    pub struct ChunkMap {
        ptr: *const u8,
        map_len: usize,
        /// File length at map time: the bytes this mapping may serve.
        /// The tail of the last page past `valid` is inside the file's
        /// final page (lengths only grow), so no access up to `valid`
        /// can fault.
        pub valid: u64,
    }

    // SAFETY: the mapping is immutable from userspace (PROT_READ) and
    // stays valid until Drop unmaps it; concurrent readers only take
    // shared slices of it.
    unsafe impl Send for ChunkMap {}
    // SAFETY: same — read-only shared mapping, no interior mutation.
    unsafe impl Sync for ChunkMap {}

    impl ChunkMap {
        /// Map the first `valid` bytes of `file` (rounded up to the
        /// page). Returns `None` for empty files or when the kernel
        /// refuses; the caller falls back to `pread`.
        pub fn map(file: &fs::File, valid: u64) -> Option<ChunkMap> {
            if valid == 0 {
                return None;
            }
            let map_len = valid.div_ceil(PAGE).checked_mul(PAGE)? as usize;
            // SAFETY: plain PROT_READ/MAP_SHARED mapping of a real
            // file descriptor; MAP_FAILED (-1) is checked below.
            let ptr = unsafe {
                syscall(
                    SYS_MMAP,
                    std::ptr::null_mut::<u8>(),
                    map_len as i64,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd() as i64,
                    0i64,
                )
            };
            if ptr == -1 {
                return None;
            }
            Some(ChunkMap {
                ptr: ptr as *const u8,
                map_len,
                valid,
            })
        }

        /// The mapped bytes that may be served: `[0, valid)`.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr..ptr+valid lies inside this struct's own
            // live mapping (valid <= map_len), which outlives the
            // returned borrow.
            unsafe { std::slice::from_raw_parts(self.ptr, self.valid as usize) }
        }
    }

    impl Drop for ChunkMap {
        fn drop(&mut self) {
            // SAFETY: unmapping the mapping this struct owns; the
            // borrow rules guarantee no outstanding `bytes()` slice.
            unsafe {
                syscall(SYS_MUNMAP, self.ptr, self.map_len as i64);
            }
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub use sys::ChunkMap;

/// Stub for targets without the raw-syscall fast path: mapping always
/// "fails" and reads use positional I/O.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub struct ChunkMap {
    /// See the x86_64 variant.
    pub valid: u64,
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl ChunkMap {
    pub fn map(_file: &fs::File, _valid: u64) -> Option<ChunkMap> {
        None
    }
    pub fn bytes(&self) -> &[u8] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::FileExt;

    #[test]
    fn mapping_serves_and_stays_coherent() {
        let dir = std::env::temp_dir().join(format!("gkfs-map-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunk");
        std::fs::write(&path, [3u8; 5000]).unwrap();
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        match ChunkMap::map(&f, 5000) {
            None => {} // non-x86_64 or sandbox without mmap: fallback path
            Some(m) => {
                assert_eq!(m.valid, 5000);
                assert_eq!(m.bytes().len(), 5000);
                assert!(m.bytes().iter().all(|&b| b == 3));
                // Writes through the descriptor show through the map.
                f.write_all_at(&[9u8; 100], 4000).unwrap();
                assert_eq!(&m.bytes()[4000..4100], &[9u8; 100]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_files_do_not_map() {
        let dir = std::env::temp_dir().join(format!("gkfs-map0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty");
        std::fs::write(&path, b"").unwrap();
        let f = std::fs::File::open(&path).unwrap();
        assert!(ChunkMap::map(&f, 0).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
