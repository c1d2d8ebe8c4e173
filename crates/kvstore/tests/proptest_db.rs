//! Property-based tests: the LSM store against a reference model.
//!
//! Random interleavings of put/delete/merge/flush/compact must be
//! indistinguishable — through `get`, `scan_prefix`, and `len` — from
//! a plain ordered map applying the same logical operations. This
//! covers the level interactions that unit tests cannot enumerate:
//! tombstones shadowing table entries, merges resolving against
//! flushed bases, compaction dropping the right records.

use gkfs_common::Result;
use gkfs_kvstore::{Add64MergeOperator, BlobStore, Db, DbOptions, MemBlobStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    MergeAdd(u8, u8),
    Flush,
    Compact,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 24, v)),
        3 => any::<u8>().prop_map(|k| Op::Delete(k % 24)),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::MergeAdd(k % 24, v)),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

fn key(k: u8) -> Vec<u8> {
    format!("/kv/{k:03}").into_bytes()
}

fn opts() -> DbOptions {
    DbOptions {
        memtable_bytes: 2048, // tiny: force organic background flushes too
        l0_compaction_trigger: 3,
        wal: true,
        merge_operator: Some(Arc::new(Add64MergeOperator)),
        ..DbOptions::default()
    }
}

/// A store whose table writes wait while the gate is held: the
/// flusher parks inside `put_blob`, so frozen memtables stay frozen
/// (and readable) for as long as a test wants to look at them.
#[derive(Default)]
struct GateStore {
    inner: MemBlobStore,
    held: Mutex<bool>,
    released: Condvar,
}

impl GateStore {
    fn hold(&self, held: bool) {
        *self.held.lock().unwrap() = held;
        self.released.notify_all();
    }
}

/// Opens the gate when dropped. Declared after a `Db`, it runs before
/// that `Db`'s drop joins a flusher parked at the gate — so a failed
/// assertion fails the case instead of hanging it.
struct OpenOnDrop(Arc<GateStore>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.hold(false);
    }
}

impl BlobStore for GateStore {
    fn put_blob(&self, name: &str, data: &[u8]) -> Result<()> {
        if name.starts_with("sst-") {
            let held = self.held.lock().unwrap();
            drop(self.released.wait_while(held, |held| *held).unwrap());
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

/// The states the one walk must get right, built on purpose before
/// the random steps take over (`true` = hold the flusher's gate):
/// key 0 a tombstone in L0 over a put in L1, key 1 a merge in the
/// memtable over a tombstone in L0, key 2 a merge with no base
/// anywhere, key 3 (and its fillers) present only in frozen memtables
/// — and then deleted in the active memtable, where only that frozen
/// put calls for a tombstone.
fn prologue() -> Vec<(Op, bool)> {
    let mut steps = vec![
        (Op::Put(0, 7), false),
        (Op::Put(1, 9), false),
        (Op::Compact, false),
        (Op::Delete(0), false),
        (Op::Delete(1), false),
        (Op::Flush, false),
        (Op::MergeAdd(1, 4), false),
        (Op::MergeAdd(2, 5), false),
        (Op::Put(3, 1), true),
    ];
    steps.extend((4..12).map(|k| (Op::Put(k, k), true)));
    steps.push((Op::Delete(3), true));
    steps
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `get`, `scan_prefix` and `len` are three readings of one walk
    /// over a version's sources: after every step they must agree with
    /// each other and with the model, for every key ever written —
    /// whichever of the active memtable, a frozen one, L0 or L1 holds
    /// the key's newest entry.
    #[test]
    fn every_reading_agrees_at_every_step(
        steps in prop::collection::vec((op_strategy(), any::<bool>()), 1..60),
    ) {
        let store = Arc::new(GateStore::default());
        let walk_opts = DbOptions {
            memtable_bytes: 256, // a rotation every few writes
            max_imm_memtables: usize::MAX, // frozen memtables may pile up behind the gate
            ..opts()
        };
        let mut db = Db::open(store.clone(), walk_opts.clone()).unwrap();
        let _open = OpenOnDrop(store.clone());
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut frozen_seen = 0;

        for (op, hold) in prologue().into_iter().chain(steps) {
            // Waiting on the flusher, or joining it, needs the gate open.
            let waits = matches!(op, Op::Flush | Op::Compact | Op::Reopen);
            store.hold(hold && !waits);
            match op {
                Op::Put(k, v) => {
                    db.put(&key(k), &(v as u64).to_le_bytes()).unwrap();
                    model.insert(key(k), v as u64);
                }
                Op::Delete(k) => {
                    db.delete(&key(k)).unwrap();
                    model.remove(&key(k));
                }
                Op::MergeAdd(k, v) => {
                    db.merge(&key(k), &(v as u64).to_le_bytes()).unwrap();
                    *model.entry(key(k)).or_insert(0) += v as u64;
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = Db::open(store.clone(), walk_opts.clone()).unwrap();
                }
            }
            frozen_seen += db.level_shape().1;
            for k in 0..24 {
                let got = db.get(&key(k)).unwrap()
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()));
                prop_assert_eq!(got, model.get(&key(k)).copied(), "get {} after {:?}", k, op);
            }
            let scanned: BTreeMap<Vec<u8>, u64> = db
                .scan_prefix(b"")
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k, u64::from_le_bytes(v.try_into().unwrap())))
                .collect();
            prop_assert_eq!(&scanned, &model, "scan after {:?}", op);
            prop_assert_eq!(db.len().unwrap(), model.len(), "len after {:?}", op);
        }
        prop_assert!(frozen_seen > 0, "the prologue must leave frozen memtables to read");
    }

    #[test]
    fn db_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let store = Arc::new(gkfs_kvstore::MemBlobStore::new());
        let mut db = Db::open(store.clone(), opts()).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    let val = (*v as u64).to_le_bytes();
                    db.put(&key(*k), &val).unwrap();
                    model.insert(key(*k), *v as u64);
                }
                Op::Delete(k) => {
                    db.delete(&key(*k)).unwrap();
                    model.remove(&key(*k));
                }
                Op::MergeAdd(k, v) => {
                    db.merge(&key(*k), &(*v as u64).to_le_bytes()).unwrap();
                    *model.entry(key(*k)).or_insert(0) =
                        model.get(&key(*k)).copied().unwrap_or(0).wrapping_add(*v as u64);
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = Db::open(store.clone(), opts()).unwrap();
                }
            }
            // Spot-check a couple of keys after every op.
            for probe in [0u8, 12, 23] {
                let got = db.get(&key(probe)).unwrap()
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()));
                prop_assert_eq!(model.get(&key(probe)).copied(), got, "probe {}", probe);
            }
        }

        // Full-state comparison at the end.
        let scanned: BTreeMap<Vec<u8>, u64> = db
            .scan_prefix(b"/kv/")
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, u64::from_le_bytes(v.try_into().unwrap())))
            .collect();
        prop_assert_eq!(&model, &scanned, "scan must reproduce the model exactly");
        prop_assert_eq!(db.len().unwrap(), model.len());
    }

    #[test]
    fn crash_recovery_yields_an_exact_op_prefix(
        ops in prop::collection::vec(op_strategy(), 1..40),
        cut_frac in 0.0f64..1.0,
    ) {
        // Crash-consistency: cutting the WAL at an arbitrary byte and
        // recovering must yield the state after some *whole prefix* of
        // the applied operations (batches atomic) — never a torn or
        // invented state. Auto-flush is disabled so the WAL is the
        // only persistence.
        let store = Arc::new(gkfs_kvstore::MemBlobStore::new());
        let no_flush = DbOptions {
            memtable_bytes: usize::MAX >> 1,
            l0_compaction_trigger: usize::MAX >> 1,
            wal: true,
            merge_operator: Some(Arc::new(Add64MergeOperator)),
            ..DbOptions::default()
        };
        let db = Db::open(store.clone(), no_flush.clone()).unwrap();

        // Apply mutating ops, snapshotting the model after each.
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut snapshots: Vec<BTreeMap<Vec<u8>, u64>> = vec![model.clone()];
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put(&key(*k), &(*v as u64).to_le_bytes()).unwrap();
                    model.insert(key(*k), *v as u64);
                }
                Op::Delete(k) => {
                    db.delete(&key(*k)).unwrap();
                    model.remove(&key(*k));
                }
                Op::MergeAdd(k, v) => {
                    db.merge(&key(*k), &(*v as u64).to_le_bytes()).unwrap();
                    *model.entry(key(*k)).or_insert(0) =
                        model.get(&key(*k)).copied().unwrap_or(0).wrapping_add(*v as u64);
                }
                // Flush/compact/reopen are no-ops here: WAL-only run.
                _ => continue,
            }
            snapshots.push(model.clone());
        }
        drop(db);

        // Crash: keep only a prefix of the log bytes.
        let log = store.read_logs().unwrap();
        let cut = (log.len() as f64 * cut_frac) as usize;
        store.reset_log().unwrap();
        store.append_log(&log[..cut]).unwrap();

        let recovered = Db::open(store, no_flush).unwrap();
        let state: BTreeMap<Vec<u8>, u64> = recovered
            .scan_prefix(b"/kv/")
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, u64::from_le_bytes(v.try_into().unwrap())))
            .collect();
        prop_assert!(
            snapshots.contains(&state),
            "recovered state is not any op-boundary prefix: {state:?}"
        );
    }

    #[test]
    fn put_if_absent_model(keys in prop::collection::vec(any::<u8>(), 1..60)) {
        let db = Db::open_memory(DbOptions::default()).unwrap();
        let mut model: BTreeMap<Vec<u8>, u8> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            let inserted = db.put_if_absent(&key(*k % 16), &[i as u8]).unwrap();
            let expect = !model.contains_key(&key(*k % 16));
            prop_assert_eq!(inserted, expect);
            if expect {
                model.insert(key(*k % 16), i as u8);
            }
            // First writer's value must persist.
            let got = db.get(&key(*k % 16)).unwrap().unwrap();
            prop_assert_eq!(got[0], model[&key(*k % 16)]);
        }
    }
}
