//! The store's on-disk formats, pinned byte for byte: one table blob
//! (two data blocks, a tombstone), one WAL frame of each record kind
//! and the manifest before and after a compaction. The hex was
//! generated at the commit before PR 22 (the kvstore's one-walk
//! refactor) — the writers must reproduce it and the readers accept
//! it, so a store written by one build reopens under the next. A
//! deliberate format change regenerates these constants and says why.

use gkfs_kvstore::sstable::{Table, TableBuilder, Tag};
use gkfs_kvstore::wal::{replay, WalRecord};
use gkfs_kvstore::{BlobStore, Db, DbOptions, MemBlobStore};
use std::sync::Arc;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// `/a`'s value fills the first 4 KiB block exactly, so `/b` (a
/// tombstone) and `/c` land in a second one.
const BIG: [u8; 4090] = [0xAB; 4090];
const TABLE_HEAD: &str = "01022f61fa1f";
const TABLE_TAIL: &str = "02022f620001022f63066d6574612d6302000000020000002f61000000000000000000100000107574de020000002f6200100000000000001000000019b4242f40000000000000000600000001000000810484220811984c1010000000000000300000000000000040100000000000001800000000000000030000003154535353464b47";

fn golden_table() -> String {
    format!("{TABLE_HEAD}{}{TABLE_TAIL}", hex(&BIG))
}

#[test]
fn table_blob_is_byte_identical() {
    let mut b = TableBuilder::new();
    b.add(Tag::Put, b"/a", &BIG);
    b.add(Tag::Delete, b"/b", b"");
    b.add(Tag::Put, b"/c", b"meta-c");
    assert_eq!(hex(&b.finish()), golden_table());

    let t = Table::open(Arc::new(unhex(&golden_table()))).unwrap();
    assert_eq!(t.len(), 3);
    assert_eq!(t.get(b"/a").unwrap(), Some((Tag::Put, &BIG[..])));
    assert_eq!(t.get(b"/b").unwrap(), Some((Tag::Delete, &b""[..])));
    assert_eq!(t.get(b"/c").unwrap(), Some((Tag::Put, &b"meta-c"[..])));
    assert_eq!(t.get(b"/d").unwrap(), None);
    let keys: Vec<Vec<u8>> = t.iter().map(|e| e.unwrap().1.to_vec()).collect();
    assert_eq!(keys, [b"/a", b"/b", b"/c"]);
}

#[test]
fn wal_frames_are_byte_identical() {
    let put = WalRecord::Put { key: b"/a".to_vec(), value: b"meta".to_vec() };
    let delete = WalRecord::Delete { key: b"/a".to_vec() };
    let merge = WalRecord::Merge { key: b"/a".to_vec(), operand: 42u64.to_le_bytes().to_vec() };
    let batch = WalRecord::Batch(vec![put.clone(), delete.clone(), merge.clone()]);
    let golden = [
        "bcd9f4360f000000010000000000000001020000002f61040000006d657461",
        "f76bab8d07000000020000000000000002020000002f61",
        "cf55432913000000030000000000000003020000002f61080000002a00000000000000",
        "11945b6c2e0000000400000000000000040300000001020000002f61040000006d65746102020000002f6103020000002f61080000002a00000000000000",
    ];
    let records = [put, delete, merge, batch];
    for (i, (rec, want)) in records.iter().zip(golden).enumerate() {
        assert_eq!(hex(&rec.encode(i as u64 + 1)), want, "{rec:?}");
    }
    let replayed = replay(&unhex(&golden.concat())).unwrap();
    let want: Vec<(u64, WalRecord)> = (1..).zip(records).collect();
    assert_eq!(replayed, want);
}

const MANIFEST_L0: &str = "0300000000000000020000000100000000000000020000000000000000000000";
const MANIFEST_L1: &str = "030000000000000000000000010000000300000000000000";

#[test]
fn manifest_is_byte_identical() {
    let opts = DbOptions { wal: true, ..DbOptions::default() };
    let store = Arc::new(MemBlobStore::new());
    let db = Db::open(store.clone(), opts.clone()).unwrap();
    db.put(b"/a", b"1").unwrap();
    db.flush().unwrap();
    db.put(b"/b", b"2").unwrap();
    db.delete(b"/a").unwrap();
    db.flush().unwrap();
    assert_eq!(hex(&store.get_blob("MANIFEST").unwrap()), MANIFEST_L0);
    db.compact().unwrap();
    assert_eq!(hex(&store.get_blob("MANIFEST").unwrap()), MANIFEST_L1);
    drop(db);

    // The reader's side: a store holding the pinned manifest and the
    // pinned table under the names it lists opens and answers.
    let store = Arc::new(MemBlobStore::new());
    store.put_blob("MANIFEST", &unhex(MANIFEST_L0)).unwrap();
    for id in [1, 2] {
        store.put_blob(&format!("sst-{id:012}.sst"), &unhex(&golden_table())).unwrap();
    }
    let db = Db::open(store, opts).unwrap();
    assert_eq!(db.level_shape(), (0, 0, 2, 0));
    assert_eq!(db.get(b"/c").unwrap().as_deref(), Some(&b"meta-c"[..]));
    assert_eq!(db.get(b"/b").unwrap(), None);
    assert_eq!(db.len().unwrap(), 2);
}
