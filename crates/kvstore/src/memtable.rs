//! The sorted in-memory write buffer.
//!
//! All writes land here first (after the WAL). The table is an ordered
//! map so that flushing produces an already-sorted SSTable and prefix
//! scans can merge memtable and table contents in key order.
//!
//! Entries record logical state, not history: a later `put` replaces an
//! earlier one. Merge operands fold eagerly when the base value is
//! present in the memtable itself (the common case for GekkoFS size
//! updates — the `create` that wrote the base usually still sits in the
//! memtable); otherwise operands stack until read or flush time, when
//! the base is fetched from the table levels.
//!
//! A delete either **forgets** the key's entry or records a tombstone.
//! The [`crate::Db`] forgets when no source older than this memtable
//! may hold the key, so that nothing lies below for a tombstone to
//! shadow; the two then read the same. Create/remove churn thus leaves
//! the memtable as empty as it found it.
//!
//! Keys, values and operands are taken **by move**: the buffers a
//! writer built (a `WriteBatch`'s, a replayed WAL record's) become the
//! table's own, so an insert allocates nothing beyond the map's nodes.

use crate::merge::MergeOperator;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Logical state of one key in the memtable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Key present with this value.
    Put(Vec<u8>),
    /// Key deleted: a tombstone shadowing older sources. Recorded only
    /// where one of them may hold the key; elsewhere a delete forgets
    /// the entry ([`MemTable::forget`]).
    Delete,
    /// Pending merge operands (oldest first) whose base lives in an
    /// older level (or doesn't exist).
    Merge(Vec<Vec<u8>>),
}

/// Sorted write buffer. Not internally synchronized — the [`crate::Db`]
/// wraps it in a lock.
#[derive(Default)]
pub struct MemTable {
    map: BTreeMap<Vec<u8>, Value>,
    approx_bytes: usize,
}

impl MemTable {
    /// Create an empty memtable.
    pub fn new() -> MemTable {
        MemTable::default()
    }

    /// Number of distinct keys currently buffered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rough memory footprint used to trigger flushes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Key + value + map overhead estimate.
    fn footprint(key: &[u8], val_len: usize) -> usize {
        key.len() + val_len + 64
    }

    fn charge(&mut self, key: &[u8], val_len: usize) {
        self.approx_bytes += Self::footprint(key, val_len);
    }

    /// Insert or overwrite `key`.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.charge(&key, value.len());
        self.map.insert(key, Value::Put(value));
    }

    /// Record a tombstone for `key`.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.charge(&key, 0);
        self.map.insert(key, Value::Delete);
    }

    /// Remove `key`'s entry outright and give its charge back to
    /// [`MemTable::approx_bytes`]: the delete of a key no older source
    /// may hold, for which a tombstone would shadow nothing.
    pub fn forget(&mut self, key: &[u8]) {
        if let Some(v) = self.map.remove(key) {
            let held = match &v {
                Value::Put(v) => v.len(),
                Value::Delete => 0,
                Value::Merge(ops) => ops.iter().map(Vec::len).sum(),
            };
            self.approx_bytes = self.approx_bytes.saturating_sub(Self::footprint(key, held));
        }
    }

    /// Record a merge operand, folding eagerly when the base state is
    /// already in this memtable.
    pub fn merge(&mut self, key: Vec<u8>, operand: Vec<u8>, op: &dyn MergeOperator) {
        self.charge(&key, operand.len());
        let operands = std::slice::from_ref(&operand);
        match self.map.get_mut(key.as_slice()) {
            Some(entry @ (Value::Put(_) | Value::Delete)) => {
                let base = match &*entry {
                    Value::Put(v) => Some(v.as_slice()),
                    _ => None,
                };
                // A fold that comes to nothing reads as absent: onto a
                // delete, the delete stands.
                *entry = op.full_merge(&key, base, operands).map_or(Value::Delete, Value::Put);
            }
            Some(Value::Merge(ops)) => ops.push(operand),
            None => {
                self.map.insert(key, Value::Merge(vec![operand]));
            }
        }
    }

    /// Current state of `key`, if buffered.
    pub fn get(&self, key: &[u8]) -> Option<&Value> {
        self.map.get(key)
    }

    /// Iterate entries from `start` (a key included or excluded) on, in
    /// key order.
    pub fn range_from<'a>(
        &'a self,
        start: Bound<&[u8]>,
    ) -> impl Iterator<Item = (&'a [u8], &'a Value)> + 'a {
        self.map
            .range::<[u8], _>((start, Bound::Unbounded))
            .map(|(k, v)| (k.as_slice(), v))
    }

    /// Iterate everything in key order (flush path).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &Value)> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{Add64MergeOperator, Max64MergeOperator};

    #[test]
    fn put_get_overwrite() {
        let mut m = MemTable::new();
        m.put(b"a".to_vec(), b"1".to_vec());
        m.put(b"a".to_vec(), b"2".to_vec());
        assert_eq!(m.get(b"a"), Some(&Value::Put(b"2".to_vec())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut m = MemTable::new();
        m.put(b"a".to_vec(), b"1".to_vec());
        m.delete(b"a".to_vec());
        assert_eq!(m.get(b"a"), Some(&Value::Delete));
        // Tombstone for a never-seen key must also be recorded (it may
        // shadow an SSTable entry).
        m.delete(b"ghost".to_vec());
        assert_eq!(m.get(b"ghost"), Some(&Value::Delete));
    }

    #[test]
    fn forget_returns_what_the_put_charged() {
        let mut m = MemTable::new();
        m.put(b"kept".to_vec(), b"1".to_vec());
        let before = (m.len(), m.approx_bytes());
        m.put(b"/churn".to_vec(), vec![7; 40]);
        m.forget(b"/churn");
        assert_eq!((m.len(), m.approx_bytes()), before);
        assert_eq!(m.get(b"/churn"), None);
        // Forgetting what is not there changes nothing.
        m.forget(b"/ghost");
        assert_eq!((m.len(), m.approx_bytes()), before);
    }

    #[test]
    fn merge_folds_onto_put() {
        let mut m = MemTable::new();
        let op = Add64MergeOperator;
        m.put(b"ctr".to_vec(), 5u64.to_le_bytes().to_vec());
        m.merge(b"ctr".to_vec(), 3u64.to_le_bytes().to_vec(), &op);
        match m.get(b"ctr") {
            Some(Value::Put(v)) => assert_eq!(u64::from_le_bytes(v[..].try_into().unwrap()), 8),
            other => panic!("expected folded Put, got {other:?}"),
        }
    }

    #[test]
    fn merge_onto_tombstone_starts_fresh() {
        let mut m = MemTable::new();
        let op = Max64MergeOperator;
        m.delete(b"sz".to_vec());
        m.merge(b"sz".to_vec(), 42u64.to_le_bytes().to_vec(), &op);
        match m.get(b"sz") {
            Some(Value::Put(v)) => assert_eq!(u64::from_le_bytes(v[..].try_into().unwrap()), 42),
            other => panic!("expected Put, got {other:?}"),
        }
        // The tombstone was replaced in place; a later merge folds on.
        m.merge(b"sz".to_vec(), 7u64.to_le_bytes().to_vec(), &op);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(b"sz"), Some(&Value::Put(42u64.to_le_bytes().to_vec())));
    }

    #[test]
    fn merge_without_base_stacks() {
        let mut m = MemTable::new();
        let op = Add64MergeOperator;
        m.merge(b"k".to_vec(), 1u64.to_le_bytes().to_vec(), &op);
        m.merge(b"k".to_vec(), 2u64.to_le_bytes().to_vec(), &op);
        match m.get(b"k") {
            Some(Value::Merge(ops)) => assert_eq!(ops.len(), 2),
            other => panic!("expected stacked Merge, got {other:?}"),
        }
    }

    #[test]
    fn range_scan_ordered_from_its_start() {
        let mut m = MemTable::new();
        for k in ["/a/1", "/a/2", "/b/1", "/a/3", "/0"] {
            m.put(k.as_bytes().to_vec(), b"v".to_vec());
        }
        let keys: Vec<&[u8]> = m.range_from(Bound::Included(&b"/a/"[..])).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"/a/1"[..], b"/a/2", b"/a/3", b"/b/1"]);
        let after: Vec<&[u8]> = m.range_from(Bound::Excluded(&b"/a/2"[..])).map(|(k, _)| k).collect();
        assert_eq!(after, vec![&b"/a/3"[..], b"/b/1"]);
        let all: Vec<&[u8]> = m.range_from(Bound::Unbounded).map(|(k, _)| k).collect();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "sorted order");
    }
}
