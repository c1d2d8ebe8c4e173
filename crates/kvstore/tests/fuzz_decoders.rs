//! Seeded mutation fuzz over everything this crate decodes off a disk:
//! `Table::open` (+ `get`, a full `iter`), `wal::replay`,
//! `BloomFilter::decode`, and `Db::open` over a store holding a
//! mutated `MANIFEST`, table blob or log.
//!
//! The corpus is built here (tables of 0 / 1 / 1000 entries with
//! tombstones, a WAL of every record kind, a bloom filter, a flushed
//! store). Each input is truncated at every length, has every aligned
//! or unaligned length / count / offset field overwritten with `0`,
//! `1`, `u32::MAX` and `u64::MAX` (by overwriting at *every* byte
//! offset of its structural regions — no layout knowledge to rot),
//! and has a few thousand seeded bits flipped. Where a checksum
//! guards the bytes behind it (table blocks, WAL bodies) a second set
//! of rows refreshes the checksum after the mutation, so the decoder
//! behind the guard is reached too.
//!
//! Asserted for every row: no panic; a failure is `Corruption` (for
//! the WAL, or a clean stop at the torn tail); the decode allocates at
//! most a small multiple of the input's length; what a checksum covers
//! never decodes to different data; what decodes re-encodes to the
//! bytes it came from.
//!
//! Tier 1 runs `fuzz_decoders` (scale 1). `scripts/ci.sh` also runs
//! the `--ignored` variant: the seeded rows at 100× over fresh seeds.
//! A failure names its row — corpus, mutation, seed — and replays
//! alone by construction (everything is derived from those three).

use gkfs_common::crc::crc32;
use gkfs_common::retry::splitmix64;
use gkfs_common::{GkfsError, Result};
use gkfs_kvstore::bloom::BloomFilter;
use gkfs_kvstore::sstable::{Table, TableBuilder, Tag};
use gkfs_kvstore::wal::{replay, WalRecord};
use gkfs_kvstore::{Add64MergeOperator, BlobStore, Db, DbOptions, MemBlobStore};
use std::sync::Arc;

mod fuzz_harness;
use fuzz_harness::{fail, measured, mutations};

/// What a decode of `len` input bytes may allocate: the densest thing
/// any format here holds is a 5-byte WAL record decoding to a 56-byte
/// `WalRecord`, and a 20-byte index entry to a 48-byte `IndexEntry`
/// plus its key. The slack covers fixed-size state (`Db::open`'s own
/// structures, a thread handle).
fn budget(len: usize) -> usize {
    16 * len + 16 * 1024
}

// ---- per-decoder checks ----------------------------------------------

type Entries = Vec<(Tag, Vec<u8>, Vec<u8>)>;

/// Panics, non-`Corruption` errors and over-budget allocations fail
/// the row; what decoded is handed back for the row's own check.
fn judge<T>(row: &str, len: usize, decode: impl FnOnce() -> Result<T>) -> Option<T> {
    let (out, peak) = measured(decode);
    let out = out.unwrap_or_else(|()| fail(row, format_args!("the decoder panicked")));
    if peak > budget(len) {
        fail(row, format_args!("allocated {peak} bytes decoding {len}"));
    }
    match out {
        Err(GkfsError::Corruption(_)) => None,
        Err(e) => fail(row, format_args!("failed with {e:?}, not Corruption")),
        Ok(v) => Some(v),
    }
}

/// `original` is what the unmutated table held — `None` for rows that
/// refreshed a block checksum, where different data is the honest
/// answer. Point lookups may miss on a damaged index (its keys carry
/// no checksum); they must not panic or fail untyped.
fn check_table(row: &str, bytes: &[u8], original: Option<&Entries>, probes: &[Vec<u8>]) {
    let blob = Arc::new(bytes.to_vec());
    let read = judge(row, bytes.len(), || {
        let table = Table::open(blob)?;
        for key in probes {
            if table.may_contain(key) {
                table.get(key)?;
            }
        }
        let mut all = Entries::new();
        for entry in table.iter() {
            let (tag, k, v) = entry?;
            all.push((tag, k.to_vec(), v.to_vec()));
        }
        Ok(all)
    });
    if let (Some(read), Some(original)) = (read, original) {
        if &read != original {
            fail(row, format_args!("a full iteration read different data without an error"));
        }
    }
}

/// `original` as for [`check_table`]: without a refreshed checksum a
/// damaged log replays to a prefix of what was written.
fn check_wal(row: &str, bytes: &[u8], original: Option<&[(u64, WalRecord)]>) {
    let Some(records) = judge(row, bytes.len(), || replay(bytes)) else {
        return;
    };
    let again: Vec<u8> = records.iter().flat_map(|(seq, rec)| rec.encode(*seq)).collect();
    if !bytes.starts_with(&again) {
        fail(row, format_args!("replayed records re-encode to other bytes"));
    }
    if original.is_some_and(|o| !o.starts_with(&records)) {
        fail(row, format_args!("replay invented or reordered a record"));
    }
}

fn check_bloom(row: &str, bytes: &[u8]) {
    let filter = judge(row, bytes.len(), || {
        let filter = BloomFilter::decode(bytes)?;
        filter.may_contain(b"/k/0001");
        Ok(filter)
    });
    if filter.is_some_and(|f| f.encode() != bytes) {
        fail(row, format_args!("the decoded filter re-encodes to other bytes"));
    }
}

fn open_opts() -> DbOptions {
    DbOptions {
        wal: true,
        merge_operator: Some(Arc::new(Add64MergeOperator)),
        ..DbOptions::default()
    }
}

/// Open a store holding `blobs` and `log`, and read it every way.
fn check_open(row: &str, blobs: &[(&str, &[u8])], log: &[u8]) {
    let store = Arc::new(MemBlobStore::new());
    let mut len = log.len();
    for (name, bytes) in blobs {
        store.put_blob(name, bytes).unwrap();
        len += bytes.len();
    }
    store.append_log(log).unwrap();
    judge(row, len, || {
        let db = Db::open(store, open_opts())?;
        db.len()?;
        db.get(b"/k/0001")?;
        db.get(b"/k/0013")?;
        db.scan_prefix(b"/k/00")?;
        Ok(())
    });
}

// ---- corpus ----------------------------------------------------------

fn entries(n: usize) -> Entries {
    (0..n)
        .map(|i| {
            let key = format!("/k/{i:04}").into_bytes();
            if i % 10 == 3 {
                (Tag::Delete, key, Vec::new())
            } else {
                (Tag::Put, key, format!("value-{i}").into_bytes())
            }
        })
        .collect()
}

fn table_blob(entries: &Entries) -> Vec<u8> {
    let mut b = TableBuilder::new();
    for (tag, k, v) in entries {
        b.add(*tag, k, v);
    }
    b.finish()
}

/// Where a well-formed table blob keeps its structure, read the way
/// `Table::open` reads it: the index's and the bloom filter's offsets
/// and, per block, `(offset, len, offset of its crc in the index)`.
struct TableLayout {
    index: usize,
    bloom: usize,
    blocks: Vec<(usize, usize, usize)>,
}

fn table_layout(blob: &[u8]) -> TableLayout {
    let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
    let footer = blob.len() - 44;
    let index = u64_at(footer);
    let mut at = index + 4;
    let blocks = (0..u32_at(index))
        .map(|_| {
            at += 4 + u32_at(at); // first key
            let block = (u64_at(at), u32_at(at + 8), at + 12);
            at += 16;
            block
        })
        .collect();
    TableLayout { index, bloom: u64_at(footer + 16), blocks }
}

fn wal_records() -> Vec<(u64, WalRecord)> {
    let put = WalRecord::Put { key: b"/k/0001".to_vec(), value: b"meta".to_vec() };
    let delete = WalRecord::Delete { key: b"/k/0002".to_vec() };
    let merge = WalRecord::Merge { key: b"/k/0003".to_vec(), operand: 7u64.to_le_bytes().to_vec() };
    let batch = WalRecord::Batch(vec![put.clone(), delete.clone(), merge.clone()]);
    (1..).zip([put, delete, merge, batch]).collect()
}

/// A store after two flushes and a few logged writes: its manifest,
/// its two tables and its log.
fn flushed_store() -> (Vec<u8>, [Vec<u8>; 2], Vec<u8>) {
    let store = Arc::new(MemBlobStore::new());
    let db = Db::open(store.clone(), open_opts()).unwrap();
    for round in 0..2u64 {
        for i in 0..20 {
            db.put(format!("/k/{i:04}").as_bytes(), &round.to_le_bytes()).unwrap();
        }
        db.delete(b"/k/0013").unwrap();
        db.flush().unwrap();
    }
    db.merge(b"/k/0001", &5u64.to_le_bytes()).unwrap();
    db.put(b"/k/0099", b"logged only").unwrap();
    drop(db);
    let table = |id: u64| store.get_blob(&format!("sst-{id:012}.sst")).unwrap().to_vec();
    (store.get_blob("MANIFEST").unwrap().to_vec(), [table(1), table(2)], store.read_logs().unwrap())
}

// ---- the run ---------------------------------------------------------

/// `scale` multiplies the seeded rows; the exhaustive rows (every
/// truncation, every forged field) are the same at any scale.
fn fuzz(seed: u64, scale: usize) {
    // The first row is the reproducer this file grew from: a footer
    // naming an index extent that overflows `off + len`.
    let one = table_blob(&entries(1));
    let mut hostile = one.clone();
    let footer = hostile.len() - 44;
    hostile[footer..footer + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    hostile[footer + 8..footer + 16].copy_from_slice(&2u64.to_le_bytes());
    check_table("table(1): index extent u64::MAX + 2", &hostile, Some(&entries(1)), &[]);

    for n in [0usize, 1, 1000] {
        let original = entries(n);
        let blob = table_blob(&original);
        let name = format!("table({n})");
        let probes: Vec<Vec<u8>> = [0, n / 2, n.saturating_sub(1), n + 7]
            .iter()
            .map(|i| format!("/k/{i:04}").into_bytes())
            .collect();
        check_table(&name, &blob, Some(&original), &probes);

        // The structure is the index, the bloom filter's header and
        // the footer; the filter's words and the data blocks before
        // them are covered by the flips and splices.
        let at = table_layout(&blob);
        let fields = (at.index..at.bloom.min(at.index + 600)).chain(at.bloom..at.bloom + 16);
        let fields = fields.chain(blob.len() - 44..blob.len());
        mutations(&blob, fields, 1, 400 * scale, seed ^ n as u64, |what, bytes| {
            check_table(&format!("{name}: {what}"), bytes, Some(&original), &probes);
        });

        // Behind the block checksum: mutate the first block, refresh
        // its crc in the index, and the entry decoder sees the damage
        // (a shortened block keeps its extent, zero-filled).
        if let Some(&(off, len, crc_at)) = at.blocks.first() {
            let block = &blob[off..off + len];
            mutations(block, 0..len.min(96), len.div_ceil(64), 150 * scale, seed, |what, block| {
                let mut bytes = blob.clone();
                bytes[off..off + len].fill(0);
                bytes[off..off + block.len()].copy_from_slice(block);
                let crc = crc32(&bytes[off..off + len]);
                bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
                check_table(&format!("{name}: block 0, crc refreshed: {what}"), &bytes, None, &probes);
            });
        }
    }

    let records = wal_records();
    let log: Vec<u8> = records.iter().flat_map(|(seq, rec)| rec.encode(*seq)).collect();
    check_wal("wal", &log, Some(&records));
    mutations(&log, 0..log.len(), 1, 2000 * scale, seed, |what, bytes| {
        check_wal(&format!("wal: {what}"), bytes, Some(&records));
    });
    // Behind the frame checksum: mutate the batch frame's body (the
    // last frame: a count and nine length prefixes), refresh its crc.
    let frame = log.len() - records[3].1.encode(4).len();
    let body = frame + 16;
    mutations(&log[body..], 0..log.len() - body, 1, 1000 * scale, seed, |what, mutated| {
        let mut bytes = log[..body].to_vec();
        bytes.extend_from_slice(mutated);
        bytes[frame + 4..frame + 8].copy_from_slice(&(mutated.len() as u32).to_le_bytes());
        let crc = crc32(&bytes[frame + 8..]);
        bytes[frame..frame + 4].copy_from_slice(&crc.to_le_bytes());
        check_wal(&format!("wal: batch body, crc refreshed: {what}"), &bytes, None);
    });

    let mut bloom = BloomFilter::builder(10);
    for (_, key, _) in entries(100) {
        bloom.add(&key);
    }
    let bloom = bloom.finish().encode();
    check_bloom("bloom", &bloom);
    // A header forged whole, which no single overwrite makes: the word
    // count agrees with `num_bits`, and both claim 2^24 words.
    let mut forged = bloom.clone();
    forged[..8].copy_from_slice(&(64u64 << 24).to_le_bytes());
    forged[12..16].copy_from_slice(&(1u32 << 24).to_le_bytes());
    check_bloom("bloom: header forged whole", &forged);
    mutations(&bloom, 0..bloom.len(), 1, 2000 * scale, seed, |what, bytes| {
        check_bloom(&format!("bloom: {what}"), bytes);
    });

    let (manifest, tables, wal) = flushed_store();
    let open = |row: &str, manifest: &[u8], first: &[u8], log: &[u8]| {
        let blobs = [
            ("MANIFEST", manifest),
            ("sst-000000000001.sst", first),
            ("sst-000000000002.sst", &tables[1]),
        ];
        check_open(row, &blobs, log);
    };
    open("store", &manifest, &tables[0], &wal);
    mutations(&manifest, 0..manifest.len(), 1, 100 * scale, seed, |what, bytes| {
        open(&format!("store: MANIFEST: {what}"), bytes, &tables[0], &wal);
    });
    let index = table_layout(&tables[0]).index;
    mutations(&tables[0], index..tables[0].len(), 16, 100 * scale, seed, |what, bytes| {
        open(&format!("store: table 1: {what}"), &manifest, bytes, &wal);
    });
    mutations(&wal, 0..0, 1, 100 * scale, seed, |what, bytes| {
        open(&format!("store: log: {what}"), &manifest, &tables[0], bytes);
    });
}

#[test]
fn fuzz_decoders() {
    fuzz(0x22_6b76_7374_6f72, 1);
}

/// `cargo test -p gkfs-kvstore --release --test fuzz_decoders -- --ignored`
#[test]
#[ignore = "long variant: 100x the seeded rows, run by scripts/ci.sh in release"]
fn fuzz_decoders_long() {
    for round in 0..4u64 {
        fuzz(splitmix64(round), 25);
    }
}
