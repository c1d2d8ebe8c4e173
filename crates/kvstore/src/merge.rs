//! Merge operators — RocksDB's read-free update mechanism.
//!
//! GekkoFS updates a file's size on every write RPC. Doing that as
//! read-modify-write would serialize all writers of a shared file on
//! the metadata owner; instead the daemon issues a *merge* of
//! `max(current, offset + len)` and lets the KV store fold operands
//! lazily. This module defines the operator interface plus the two
//! operators the daemon uses.

/// A user-defined associative fold over values of one key.
///
/// `full_merge` combines the (optional) base value with a sequence of
/// operands recorded since. Operands are passed oldest-first. The
/// operator must be deterministic; associativity lets the store fold
/// partial runs during compaction. A fold may come to nothing: `None`
/// reads as absent, exactly as a delete does, so an operator can refuse
/// to make a key live that had no base.
pub trait MergeOperator: Send + Sync {
    /// Fold `operands` (oldest first) onto `base`; `None` is absent.
    fn full_merge(&self, key: &[u8], base: Option<&[u8]>, operands: &[Vec<u8>]) -> Option<Vec<u8>>;
}

/// Merge operator treating values as little-endian `u64` counters and
/// adding operands — the classic RocksDB "uint64add" example. Used in
/// tests and benchmarks.
#[derive(Debug, Default)]
pub struct Add64MergeOperator;

fn read_u64_or_zero(v: &[u8]) -> u64 {
    if v.len() == 8 {
        u64::from_le_bytes(v.try_into().unwrap())
    } else {
        0
    }
}

impl MergeOperator for Add64MergeOperator {
    fn full_merge(&self, _key: &[u8], base: Option<&[u8]>, operands: &[Vec<u8>]) -> Option<Vec<u8>> {
        let mut acc = base.map(read_u64_or_zero).unwrap_or(0);
        for op in operands {
            acc = acc.wrapping_add(read_u64_or_zero(op));
        }
        Some(acc.to_le_bytes().to_vec())
    }
}

/// Merge operator keeping the maximum of little-endian `u64` values —
/// the shape of GekkoFS' file-size updates (size can only grow through
/// writes; truncates go through `put`).
#[derive(Debug, Default)]
pub struct Max64MergeOperator;

impl MergeOperator for Max64MergeOperator {
    fn full_merge(&self, _key: &[u8], base: Option<&[u8]>, operands: &[Vec<u8>]) -> Option<Vec<u8>> {
        let mut acc = base.map(read_u64_or_zero).unwrap_or(0);
        for op in operands {
            acc = acc.max(read_u64_or_zero(op));
        }
        Some(acc.to_le_bytes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add64_folds() {
        let op = Add64MergeOperator;
        let r = op.full_merge(
            b"k",
            Some(&5u64.to_le_bytes()),
            &[3u64.to_le_bytes().to_vec(), 7u64.to_le_bytes().to_vec()],
        );
        assert_eq!(u64::from_le_bytes(r.unwrap().try_into().unwrap()), 15);
    }

    #[test]
    fn add64_without_base() {
        let op = Add64MergeOperator;
        let r = op.full_merge(b"k", None, &[10u64.to_le_bytes().to_vec()]);
        assert_eq!(u64::from_le_bytes(r.unwrap().try_into().unwrap()), 10);
    }

    #[test]
    fn max64_keeps_max() {
        let op = Max64MergeOperator;
        let r = op.full_merge(
            b"k",
            Some(&100u64.to_le_bytes()),
            &[50u64.to_le_bytes().to_vec(), 300u64.to_le_bytes().to_vec()],
        );
        assert_eq!(u64::from_le_bytes(r.unwrap().try_into().unwrap()), 300);
    }

    #[test]
    fn malformed_operand_treated_as_zero() {
        let op = Add64MergeOperator;
        let r = op.full_merge(b"k", Some(b"bad"), &[b"bad2".to_vec()]);
        assert_eq!(u64::from_le_bytes(r.unwrap().try_into().unwrap()), 0);
    }
}
