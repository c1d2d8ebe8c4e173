//! Bloom filters for SSTables, implemented from scratch.
//!
//! Every SSTable carries a bloom filter over its keys so point lookups
//! can skip tables that cannot contain the key — the same optimization
//! RocksDB relies on to keep metadata `stat` fast once data has been
//! flushed out of the memtable.
//!
//! We use the standard double-hashing scheme (Kirsch & Mitzenmacher):
//! `h_i(x) = h1(x) + i * h2(x)`, with both halves derived from one
//! XXH64 invocation.

use gkfs_common::hash::xxh64;
use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{GkfsError, Result};

/// Most probes per key a filter is ever built with.
const MAX_HASHES: u32 = 30;

/// A fixed-size bloom filter built over a known key set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

/// The one hash a key is probed by; every probe position derives from it.
fn hash(key: &[u8]) -> u64 {
    xxh64(key, 0xB10053)
}

/// The `num_hashes` bit positions of a key hashing to `h` in a filter
/// of `num_bits` bits.
fn positions(h: u64, num_bits: u64, num_hashes: u32) -> impl Iterator<Item = u64> {
    let h1 = h & 0xFFFF_FFFF;
    let h2 = (h >> 32) | 1; // odd, so it cycles through all bits
    (0..num_hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2))) % num_bits)
}

impl BloomFilter {
    /// Start a filter at `bits_per_key` bits per key added (10 bits/key
    /// ≈ 1% false-positive rate, RocksDB's default). The filter is sized
    /// when it is finished, from the keys it was given.
    pub fn builder(bits_per_key: usize) -> BloomBuilder {
        BloomBuilder { hashes: Vec::new(), bits_per_key }
    }

    /// May `key` be in the set? False positives possible, false
    /// negatives never.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        positions(hash(key), self.num_bits, self.num_hashes)
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }

    /// Serialize to the SSTable footer format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.bits.len() * 8 + 16);
        e.u64(self.num_bits);
        e.u32(self.num_hashes);
        e.u32(self.bits.len() as u32);
        for w in &self.bits {
            e.u64(*w);
        }
        e.into_vec()
    }

    /// Deserialize from [`BloomFilter::encode`] output.
    pub fn decode(buf: &[u8]) -> Result<BloomFilter> {
        let mut d = Decoder::new(buf);
        let num_bits = d.u64()?;
        let num_hashes = d.u32()?;
        // Bound by what the buffer holds: the equality below only ties
        // `words` to `num_bits`, which comes off the disk as well.
        let words = d.count(8)?;
        // `finish` never asks for more than MAX_HASHES probes; a header
        // that does would make every lookup spin.
        if num_bits == 0
            || !(1..=MAX_HASHES).contains(&num_hashes)
            || words != (num_bits.div_ceil(64)) as usize
        {
            return Err(GkfsError::Corruption("bad bloom header".into()));
        }
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(d.u64()?);
        }
        d.finish()?;
        Ok(BloomFilter {
            bits,
            num_bits,
            num_hashes,
        })
    }
}

/// Incremental builder returned by [`BloomFilter::builder`]: keeps one
/// hash per key, so a table whose key count is known only at its end
/// (a compaction output) still gets a filter sized for what it holds.
pub struct BloomBuilder {
    hashes: Vec<u64>,
    bits_per_key: usize,
}

impl BloomBuilder {
    /// Add a key.
    pub fn add(&mut self, key: &[u8]) {
        self.hashes.push(hash(key));
    }

    /// Size the filter for the keys added and set their bits.
    pub fn finish(self) -> BloomFilter {
        let num_bits = ((self.hashes.len().max(1) * self.bits_per_key) as u64).max(64);
        // Optimal k = ln2 * bits/key, clamped to something sane.
        let num_hashes = ((self.bits_per_key as f64 * 0.69) as u32).clamp(1, MAX_HASHES);
        let mut bits = vec![0u64; num_bits.div_ceil(64) as usize];
        for h in self.hashes {
            for p in positions(h, num_bits, num_hashes) {
                bits[(p / 64) as usize] |= 1 << (p % 64);
            }
        }
        BloomFilter { bits, num_bits, num_hashes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(keys: &[&[u8]]) -> BloomFilter {
        let mut b = BloomFilter::builder(10);
        for k in keys {
            b.add(k);
        }
        b.finish()
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..5000).map(|i| format!("/dir/f{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = build(&refs);
        for k in &keys {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let keys: Vec<Vec<u8>> = (0..10_000).map(|i| format!("k{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = build(&refs);
        let fp = (0..10_000)
            .filter(|i| f.may_contain(format!("absent{i}").as_bytes()))
            .count();
        // 10 bits/key targets ~1%; accept up to 3%.
        assert!(fp < 300, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = build(&[b"alpha", b"beta", b"gamma"]);
        let decoded = BloomFilter::decode(&f.encode()).unwrap();
        assert_eq!(f, decoded);
        assert!(decoded.may_contain(b"alpha"));
    }

    #[test]
    fn decode_rejects_corruption() {
        let f = build(&[b"x"]);
        let mut buf = f.encode();
        buf.truncate(buf.len() - 1);
        assert!(BloomFilter::decode(&buf).is_err());
        assert!(BloomFilter::decode(&[]).is_err());
    }

    #[test]
    fn empty_filter_is_valid() {
        let f = BloomFilter::builder(10).finish();
        // An empty filter must simply say "no" (or at worst rarely yes).
        let hits = (0..100)
            .filter(|i| f.may_contain(format!("q{i}").as_bytes()))
            .count();
        assert_eq!(hits, 0);
        let rt = BloomFilter::decode(&f.encode()).unwrap();
        assert_eq!(f, rt);
    }
}
