//! Crash-recovery property: **no acknowledged write is ever lost**.
//!
//! The background flush/compaction engine acknowledges a write once it
//! is in the WAL and the memtable — long before its SSTable exists.
//! Dropping the `Db` handle without `shutdown()` is crash-equivalent:
//! background threads stop without draining, so frozen memtables die
//! mid-flight. Every acknowledged operation must still be visible
//! after reopen, reconstructed from the manifest, the `flushed_seq`
//! watermark, and WAL segment replay — with group-commit `sync` on and
//! off, and with memtables small enough that the crash lands
//! mid-background-flush.

use gkfs_kvstore::{Add64MergeOperator, Db, DbOptions, MemBlobStore, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    MergeAdd(u8, u8),
    Batch(Vec<(u8, u8)>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 20, v)),
        2 => any::<u8>().prop_map(|k| Op::Delete(k % 20)),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::MergeAdd(k % 20, v)),
        1 => prop::collection::vec((any::<u8>(), any::<u8>()), 1..5)
            .prop_map(|kvs| Op::Batch(kvs.into_iter().map(|(k, v)| (k % 20, v)).collect())),
    ]
}

fn key(k: u8) -> Vec<u8> {
    format!("/rec/{k:03}").into_bytes()
}

fn run_crash_recovery(ops: &[Op], memtable_bytes: usize, sync: bool) -> Result<(), TestCaseError> {
    let store = Arc::new(MemBlobStore::new());
    let opts = DbOptions {
        // Small memtables force rotations, so the simulated crash can
        // land while frozen memtables are queued or mid-flush.
        memtable_bytes,
        l0_compaction_trigger: 2,
        wal: true,
        sync,
        merge_operator: Some(Arc::new(Add64MergeOperator)),
        ..DbOptions::default()
    };

    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    {
        let db = Db::open(store.clone(), opts.clone()).unwrap();
        for op in ops {
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
                    *model.entry(key(*k)).or_insert(0) = model
                        .get(&key(*k))
                        .copied()
                        .unwrap_or(0)
                        .wrapping_add(*v as u64);
                }
                Op::Batch(kvs) => {
                    let mut b = WriteBatch::new();
                    for (k, v) in kvs {
                        b.put(key(*k), &(*v as u64).to_le_bytes());
                        model.insert(key(*k), *v as u64);
                    }
                    db.write(b).unwrap();
                }
            }
        }
        // Crash: drop without shutdown(). Background flushes may be
        // queued or in flight right now.
    }

    let recovered = Db::open(store, opts).unwrap();
    let state: BTreeMap<Vec<u8>, u64> = recovered
        .scan_prefix(b"/rec/")
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, u64::from_le_bytes(v.try_into().unwrap())))
        .collect();
    prop_assert_eq!(
        &model,
        &state,
        "every acknowledged op must survive the crash"
    );
    // Point reads agree with the scan.
    for k in 0..20u8 {
        let got = recovered
            .get(&key(k))
            .unwrap()
            .map(|v| u64::from_le_bytes(v.try_into().unwrap()));
        prop_assert_eq!(model.get(&key(k)).copied(), got, "probe {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn acked_writes_survive_crash(ops in prop::collection::vec(op_strategy(), 1..150)) {
        run_crash_recovery(&ops, 1024, false)?;
    }

    #[test]
    fn acked_writes_survive_crash_with_sync(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_crash_recovery(&ops, 1024, true)?;
    }

    #[test]
    fn acked_writes_survive_crash_without_rotation(ops in prop::collection::vec(op_strategy(), 1..60)) {
        // Everything stays in the active memtable: pure WAL replay.
        run_crash_recovery(&ops, usize::MAX >> 1, false)?;
    }
}
