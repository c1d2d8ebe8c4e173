//! On-disk formats do not care which CRC32 kernel wrote them.
//!
//! `gkfs_common::crc` picks a carry-less-multiply kernel at run time
//! where the CPU has one and the slice-by-8 tables elsewhere; both must
//! compute the same function, or a store written on one machine (or by
//! an older build) would fail its checksums on another. This test
//! writes a WAL segment and an SSTable with the table kernel forced,
//! then recovers and reads them with the kernel the CPU selects — and
//! the other way round.
//!
//! The switch is process-wide, which is why this is the only test in
//! its file (one test binary, one process).

use gkfs_common::crc::force_table_kernel;
use gkfs_kvstore::{Db, DbOptions, MemBlobStore};
use std::sync::Arc;

fn key(i: u32) -> Vec<u8> {
    format!("/kernels/{i:05}").into_bytes()
}

/// Long enough that every WAL record and SSTable block is well past
/// the folding kernel's 64-byte threshold.
fn value(i: u32) -> Vec<u8> {
    (0..300 + i % 200)
        .map(|j| (i.wrapping_mul(31).wrapping_add(j) % 251) as u8)
        .collect()
}

/// Write 400 entries to an SSTable and 200 more to the WAL only, then
/// "crash" (drop without shutdown) with `write_with_table` deciding the
/// kernel; reopen under the other kernel and check every entry.
fn roundtrip(write_with_table: bool) {
    let store = Arc::new(MemBlobStore::new());
    let opts = DbOptions {
        wal: true,
        sync: true,
        ..DbOptions::default()
    };

    force_table_kernel(write_with_table);
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

    force_table_kernel(!write_with_table);
    let db = Db::open(store, opts).unwrap();
    for i in 0..600 {
        assert_eq!(
            db.get(&key(i)).unwrap().as_deref(),
            Some(&value(i)[..]),
            "entry {i} (written with table kernel: {write_with_table})"
        );
    }
    db.shutdown().unwrap();
}

#[test]
fn wal_and_sstables_reopen_under_the_other_kernel() {
    roundtrip(true);
    roundtrip(false);
    force_table_kernel(false);
}
