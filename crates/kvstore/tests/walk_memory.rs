//! A walk of the store holds a step, not the range it walks. On the
//! calling thread (the per-thread counting allocator the decoder fuzzers
//! use), `len()` and a 10-entry `scan_prefix_with` page peak at the same
//! bytes for a store of N keys as for one of 8N, and `compact()` peaks
//! at a small multiple of the tables it writes, not at a map of its
//! inputs. Every store spreads its keys over the active memtable, a
//! frozen memtable (the flusher parked at a gate), L0 and L1, with
//! tombstones and stacked merges.

use gkfs_common::Result;
use gkfs_kvstore::{Add64MergeOperator, BlobStore, Db, DbOptions, MemBlobStore, WriteBatch};
use std::sync::{Arc, RwLock};

#[allow(dead_code)] // the fuzzers' mutations are not used here
mod fuzz_harness;
use fuzz_harness::measured;

/// A store whose table writes wait while the gate is held for writing.
#[derive(Default)]
struct GateStore {
    inner: MemBlobStore,
    gate: RwLock<()>,
}

impl BlobStore for GateStore {
    fn put_blob(&self, name: &str, data: &[u8]) -> Result<()> {
        if name.starts_with("sst-") {
            drop(self.gate.read());
        }
        self.inner.put_blob(name, data)
    }
    fn get_blob(&self, name: &str) -> Result<Arc<Vec<u8>>> {
        self.inner.get_blob(name)
    }
    fn delete_blob(&self, name: &str) -> Result<()> {
        self.inner.delete_blob(name)
    }
    fn append_log(&self, data: &[u8]) -> Result<()> {
        self.inner.append_log(data)
    }
    fn sync_log(&self) -> Result<()> {
        self.inner.sync_log()
    }
    fn rotate_log(&self) -> Result<u64> {
        self.inner.rotate_log()
    }
    fn read_logs(&self) -> Result<Vec<u8>> {
        self.inner.read_logs()
    }
    fn drop_logs_through(&self, id: u64) -> Result<()> {
        self.inner.drop_logs_through(id)
    }
    fn reset_log(&self) -> Result<()> {
        self.inner.reset_log()
    }
    fn list_blobs(&self) -> Result<Vec<String>> {
        self.inner.list_blobs()
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("/w/{i:08}").into_bytes()
}

/// What one store of `n` keys peaked at, in bytes allocated on the
/// calling thread: `len()`, a 10-entry page from the middle, and
/// `compact()` beside the bytes of the tables it left.
struct Peaks {
    len: usize,
    page: usize,
    compact: usize,
    tables: usize,
}

fn peaks(n: usize) -> Peaks {
    let store = Arc::new(GateStore::default());
    // The budget scales with `n`, so every store has the same shape:
    // the frozen batch below crosses it, the active one does not.
    let db = Db::open(store.clone(), DbOptions {
        memtable_bytes: 20 * n,
        l0_compaction_trigger: 100,
        l0_slowdown_threshold: 100,
        l0_stall_threshold: 100,
        max_imm_memtables: 8,
        merge_operator: Some(Arc::new(Add64MergeOperator)),
        ..DbOptions::default()
    })
    .unwrap();
    let value = [7u8; 32];
    // L1: every key. L0: a tombstone over three keys in four.
    for i in 0..n {
        db.put(&key(i), &value).unwrap();
    }
    db.compact().unwrap();
    for i in (0..n).filter(|i| i % 4 != 0) {
        db.delete(&key(i)).unwrap();
    }
    db.flush().unwrap();
    // Frozen: merges over L1 bases, puts over L0 tombstones.
    let gate = store.gate.write().unwrap();
    let mut frozen = WriteBatch::new();
    for i in (0..n).step_by(8) {
        frozen.merge(key(i), &5u64.to_le_bytes());
        frozen.put(key(i + 4), &value);
    }
    db.write(frozen).unwrap();
    // Active: tombstones over those puts, merges stacked on merges.
    let mut active = WriteBatch::new();
    for i in (0..n).step_by(8) {
        active.delete(key(i + 4));
        if i % 16 == 0 {
            active.merge(key(i), &1u64.to_le_bytes());
        }
    }
    db.write(active).unwrap();
    let (mem, imm, l0, l1) = db.level_shape();
    assert!(mem > 256 && imm == 1 && l0 > 0 && l1 > 0, "shape {:?}", db.level_shape());

    let (len, len_peak) = measured(|| db.len().unwrap());
    assert_eq!(len, Ok(n / 8), "the keys left live");
    let (page, page_peak) = measured(|| {
        let mut page = Vec::new();
        db.scan_prefix_with(b"/w/", &key(n / 2), |k, _| {
            page.push(k.to_vec());
            Ok(page.len() < 10)
        })
        .unwrap();
        page
    });
    let want: Vec<Vec<u8>> = (n / 2..).step_by(8).take(10).map(key).collect();
    assert_eq!(page, Ok(want), "a page from the middle");

    drop(gate);
    let (compacted, compact_peak) = measured(|| db.compact().unwrap());
    assert_eq!(compacted, Ok(()));
    assert_eq!(db.level_shape(), (0, 0, 0, 1));
    assert_eq!(db.len().unwrap(), n / 8, "a compaction keeps what is live");
    let tables = store.list_blobs().unwrap().into_iter().filter(|b| b.starts_with("sst-"));
    let tables = tables.map(|b| store.get_blob(&b).unwrap().len()).sum();
    Peaks { len: len_peak, page: page_peak, compact: compact_peak, tables }
}

#[test]
fn a_walk_holds_a_step_not_the_namespace() {
    const N: usize = 4096;
    let (small, large) = (peaks(N), peaks(8 * N));
    eprintln!(
        "len {} -> {} B, page {} -> {} B, compact {} -> {} B over tables of {} -> {} B",
        small.len, large.len, small.page, large.page, small.compact, large.compact, small.tables,
        large.tables,
    );
    // Flat in N: the same steps are in flight whatever the store holds.
    let flat = |a: usize, b: usize| b <= a + a / 4;
    assert!(flat(small.len, large.len), "len() grew with the store");
    assert!(flat(small.page, large.page), "a 10-entry page grew with the store");
    // The tables written, held by the new version and by the store, and
    // the table being built — not one entry per input.
    for p in [&small, &large] {
        assert!(p.compact <= 4 * p.tables + 64 * 1024, "compaction peaked at {}", p.compact);
    }
}
