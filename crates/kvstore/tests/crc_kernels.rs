//! On-disk formats do not care which CRC32 kernel wrote them.
//!
//! `gkfs_common::crc` picks a kernel at run time — a 512-bit or a
//! 128-bit carry-less-multiply one where the CPU has it, the slice-by-8
//! tables elsewhere; all must compute the same function, or a store
//! written on one machine (or by an older build) would fail its
//! checksums on another. This test writes a WAL segment and an SSTable
//! under each kernel this CPU has, then recovers and reads them under
//! every other.
//!
//! The switch is process-wide, which is why this is the only test in
//! its file (one test binary, one process).

use gkfs_common::crc::{use_kernel, Kernel};
use gkfs_kvstore::{Db, DbOptions, MemBlobStore};
use std::sync::Arc;

fn key(i: u32) -> Vec<u8> {
    format!("/kernels/{i:05}").into_bytes()
}

/// Long enough that every WAL record and SSTable block is past the
/// 128-bit kernel's 64-byte threshold, and many past the 512-bit
/// kernel's 512.
fn value(i: u32) -> Vec<u8> {
    (0..300 + i % 400)
        .map(|j| (i.wrapping_mul(31).wrapping_add(j) % 251) as u8)
        .collect()
}

/// Write 400 entries to an SSTable and 200 more to the WAL only with
/// `writer` selected, then "crash" (drop without shutdown); reopen
/// under `reader` and check every entry.
fn roundtrip(writer: Kernel, reader: Kernel) {
    let store = Arc::new(MemBlobStore::new());
    let opts = DbOptions {
        wal: true,
        sync: true,
        ..DbOptions::default()
    };

    use_kernel(writer);
    {
        let db = Db::open(store.clone(), opts.clone()).unwrap();
        for i in 0..400 {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        for i in 400..600 {
            db.put(&key(i), &value(i)).unwrap();
        }
    }

    use_kernel(reader);
    let db = Db::open(store, opts).unwrap();
    for i in 0..600 {
        assert_eq!(
            db.get(&key(i)).unwrap().as_deref(),
            Some(&value(i)[..]),
            "entry {i} (written under {writer:?}, read under {reader:?})"
        );
    }
    db.shutdown().unwrap();
}

#[test]
fn wal_and_sstables_reopen_under_the_other_kernel() {
    let kernels = Kernel::available();
    println!("crc32 kernels crossed: {kernels:?}");
    for &writer in &kernels {
        for &reader in kernels.iter().filter(|&&r| r != writer) {
            roundtrip(writer, reader);
        }
    }
    use_kernel(Kernel::Fold512);
}
