//! Write-ahead log encoding and replay.
//!
//! Every mutation is framed as `[crc32 | len | seq | payload]` and
//! appended to the blob store's active log segment before it is
//! acknowledged, so a daemon restart can rebuild the memtable exactly.
//! The `seq` is the store-wide monotonically increasing sequence
//! number assigned under the memtable lock, which gives replay two
//! properties the background-flush engine needs:
//!
//! * log order and memtable apply order are identical even when group
//!   commit batches frames from many writers, and
//! * replay can skip records already covered by the manifest's
//!   `flushed_seq` watermark — without it, a crash landing between
//!   "SSTable installed" and "log segment dropped" would re-apply
//!   non-idempotent merge operands.
//!
//! Replay is tolerant of a torn tail (a crash mid-append): the first
//! record that fails its checksum or runs past the buffer ends replay,
//! matching RocksDB's `kTolerateCorruptedTailRecords` recovery mode.

use gkfs_common::crc::crc32;
use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{GkfsError, Result};

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert or overwrite a key.
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove a key (tombstone).
    Delete {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Apply a merge operand to a key.
    Merge {
        /// Key bytes.
        key: Vec<u8>,
        /// Operand bytes for the configured merge operator.
        operand: Vec<u8>,
    },
    /// An atomic group: either every contained mutation replays or
    /// (torn tail) none do — the crash-atomicity RocksDB gives
    /// `WriteBatch` by framing the whole batch as one log record.
    Batch(Vec<WalRecord>),
}

const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_MERGE: u8 = 3;
const TAG_BATCH: u8 = 4;

/// Frame header: crc32 (4) + body len (4) + sequence number (8).
const FRAME_HEADER: usize = 16;

impl WalRecord {
    fn encode_body(&self, body: &mut Encoder) {
        match self {
            WalRecord::Put { key, value } => {
                body.u8(TAG_PUT).bytes(key).bytes(value);
            }
            WalRecord::Delete { key } => {
                body.u8(TAG_DELETE).bytes(key);
            }
            WalRecord::Merge { key, operand } => {
                body.u8(TAG_MERGE).bytes(key).bytes(operand);
            }
            WalRecord::Batch(records) => {
                body.u8(TAG_BATCH).u32(records.len() as u32);
                for r in records {
                    assert!(!matches!(r, WalRecord::Batch(_)), "batches do not nest");
                    r.encode_body(body);
                }
            }
        }
    }

    /// Frame this record for appending to the log, stamped with its
    /// commit sequence number: [`WalRecord::encode_into`] a buffer of
    /// its own.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut framed = Encoder::new();
        self.encode_into(seq, &mut framed);
        framed.into_vec()
    }

    /// Append this record's frame to `out` (the group commit's queue),
    /// header and body in place. The checksum covers `seq` as well as
    /// the body — the bytes behind the length word — so a torn header
    /// cannot resurrect a record under the wrong sequence.
    pub fn encode_into(&self, seq: u64, out: &mut Encoder) {
        let start = out.len();
        out.u32(0).u32(0).u64(seq);
        self.encode_body(out);
        let body_len = out.len() - start - FRAME_HEADER;
        let crc = crc32(&out.as_slice()[start + 8..]);
        out.set_u32(start, crc).set_u32(start + 4, body_len as u32);
    }

    fn decode_one(d: &mut Decoder<'_>, allow_batch: bool) -> Result<WalRecord> {
        Ok(match d.u8()? {
            TAG_PUT => WalRecord::Put {
                key: d.bytes()?.to_vec(),
                value: d.bytes()?.to_vec(),
            },
            TAG_DELETE => WalRecord::Delete {
                key: d.bytes()?.to_vec(),
            },
            TAG_MERGE => WalRecord::Merge {
                key: d.bytes()?.to_vec(),
                operand: d.bytes()?.to_vec(),
            },
            TAG_BATCH if allow_batch => {
                // Every record is at least a tag and one length prefix.
                let n = d.count(5)?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(Self::decode_one(d, false)?);
                }
                WalRecord::Batch(records)
            }
            t => return Err(GkfsError::Corruption(format!("bad WAL tag {t}"))),
        })
    }

    fn decode_body(body: &[u8]) -> Result<WalRecord> {
        let mut d = Decoder::new(body);
        let rec = Self::decode_one(&mut d, true)?;
        d.finish()?;
        Ok(rec)
    }
}

/// Replay a log buffer into `(seq, record)` pairs. Stops silently at a
/// torn tail; returns `Corruption` only for damage *before* the tail
/// (a record that parses but whose interior is malformed).
pub fn replay(log: &[u8]) -> Result<Vec<(u64, WalRecord)>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_HEADER <= log.len() {
        let crc = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap());
        let len = u32::from_le_bytes(log[pos + 4..pos + 8].try_into().unwrap()) as usize;
        if pos + FRAME_HEADER + len > log.len() {
            break; // torn tail: length runs past the buffer
        }
        let checked = &log[pos + 8..pos + FRAME_HEADER + len];
        if crc32(checked) != crc {
            break; // torn tail: checksum mismatch
        }
        let seq = u64::from_le_bytes(log[pos + 8..pos + 16].try_into().unwrap());
        let body = &log[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        out.push((seq, WalRecord::decode_body(body)?));
        pos += FRAME_HEADER + len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord::Put {
                key: b"/a".to_vec(),
                value: b"meta".to_vec(),
            },
            WalRecord::Merge {
                key: b"/a".to_vec(),
                operand: 42u64.to_le_bytes().to_vec(),
            },
            WalRecord::Delete { key: b"/a".to_vec() },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut log = Vec::new();
        for (i, r) in records.iter().enumerate() {
            log.extend_from_slice(&r.encode(i as u64 + 1));
        }
        log
    }

    #[test]
    fn encode_replay_roundtrip() {
        let log = encode_all(&sample());
        let replayed = replay(&log).unwrap();
        let records: Vec<WalRecord> = replayed.iter().map(|(_, r)| r.clone()).collect();
        let seqs: Vec<u64> = replayed.iter().map(|(s, _)| *s).collect();
        assert_eq!(records, sample());
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn empty_log_is_empty() {
        assert!(replay(&[]).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let log = encode_all(&sample());
        let full = replay(&log).unwrap().len();
        // Chop bytes off the end: we must recover a prefix, never error.
        for cut in 1..28 {
            let truncated = &log[..log.len() - cut];
            let recovered = replay(truncated).unwrap();
            assert!(recovered.len() < full || cut == 0);
            // Recovered records must be a prefix of the originals.
            for (i, (seq, rec)) in recovered.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                assert_eq!(*rec, sample()[i]);
            }
        }
    }

    #[test]
    fn corrupt_tail_checksum_stops_replay() {
        let mut log = encode_all(&sample());
        let n = log.len();
        log[n - 1] ^= 0xFF; // flip a bit in the last record's body
        let recovered = replay(&log).unwrap();
        assert_eq!(recovered.len(), sample().len() - 1);
    }

    #[test]
    fn corrupt_seq_fails_checksum() {
        // The checksum covers the sequence number: flipping a seq byte
        // must not replay the record under a different sequence.
        let mut log = encode_all(&sample());
        log[8] ^= 0xFF; // first record's seq, little-endian low byte
        assert!(replay(&log).unwrap().is_empty());
    }

    #[test]
    fn batch_roundtrip_is_atomic_in_the_log() {
        let batch = WalRecord::Batch(vec![
            WalRecord::Put {
                key: b"/a".to_vec(),
                value: b"1".to_vec(),
            },
            WalRecord::Delete { key: b"/b".to_vec() },
            WalRecord::Merge {
                key: b"/c".to_vec(),
                operand: b"op".to_vec(),
            },
        ]);
        let mut log = batch.encode(7);
        assert_eq!(replay(&log).unwrap(), vec![(7, batch.clone())]);
        // Any truncation inside the batch drops the WHOLE batch.
        for cut in 1..log.len() - FRAME_HEADER {
            let t = &log[..log.len() - cut];
            assert!(replay(t).unwrap().is_empty(), "cut {cut} must drop batch");
        }
        // A record after the batch replays independently.
        log.extend_from_slice(
            &WalRecord::Put {
                key: b"/z".to_vec(),
                value: b"v".to_vec(),
            }
            .encode(8),
        );
        assert_eq!(replay(&log).unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "batches do not nest")]
    fn nested_batches_rejected() {
        WalRecord::Batch(vec![WalRecord::Batch(vec![])]).encode(1);
    }

    #[test]
    fn garbage_after_valid_records_is_tail() {
        let mut log = sample()[0].encode(1);
        log.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
        let recovered = replay(&log).unwrap();
        assert_eq!(recovered.len(), 1);
    }
}
