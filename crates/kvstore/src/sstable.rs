//! Immutable sorted string tables (SSTables).
//!
//! A flushed memtable becomes one SSTable blob with the layout
//!
//! ```text
//! [data block 0][data block 1]...[index][bloom filter][footer]
//! ```
//!
//! * **Data blocks** hold `(tag, key, value)` entries in key order,
//!   split at a target block size. Each block is CRC-protected.
//! * The **index** records each block's first key and extent, enabling
//!   binary-searched point lookups that touch a single block.
//! * The **bloom filter** short-circuits lookups for absent keys.
//! * The **footer** is fixed-size at the end of the blob so a reader
//!   can bootstrap from the blob alone.
//!
//! Merges are resolved *before* flush (see [`crate::db`]), so tables
//! contain only `Put` and `Delete` entries; `Delete` tombstones must be
//! kept until full compaction because they may shadow older tables.

use crate::bloom::{BloomBuilder, BloomFilter};
use gkfs_common::crc::crc32;
use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{GkfsError, Result};
use std::sync::Arc;

const MAGIC: u64 = 0x47_4B_46_53_53_53_54_31; // "GKFSSST1"
const FOOTER_LEN: usize = 8 * 4 + 4 + 8; // four u64 + u32 count + magic
const TARGET_BLOCK: usize = 4096;

/// Entry kind stored in a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// A live key/value entry.
    Put = 1,
    /// A tombstone shadowing older levels.
    Delete = 2,
}

impl Tag {
    fn from_u8(v: u8) -> Result<Tag> {
        match v {
            1 => Ok(Tag::Put),
            2 => Ok(Tag::Delete),
            other => Err(GkfsError::Corruption(format!("bad sstable tag {other}"))),
        }
    }
}

/// Builds one SSTable blob from entries added in strictly ascending
/// key order.
pub struct TableBuilder {
    buf: Encoder,
    block_start: usize,
    index: Vec<(Vec<u8>, u64, u32)>, // first_key, offset, len
    bloom: BloomBuilder,
    pending_first_key: Option<Vec<u8>>,
    /// The key added last (meaningful once `count > 0`): one buffer,
    /// overwritten per entry, so a table costs allocations per block,
    /// not per entry.
    last_key: Vec<u8>,
    count: u32,
}

impl Default for TableBuilder {
    fn default() -> Self {
        TableBuilder::new()
    }
}

impl TableBuilder {
    /// An empty table; its bloom filter is sized by the entries added.
    pub fn new() -> TableBuilder {
        TableBuilder {
            buf: Encoder::new(),
            block_start: 0,
            index: Vec::new(),
            bloom: BloomFilter::builder(10),
            pending_first_key: None,
            last_key: Vec::new(),
            count: 0,
        }
    }

    /// Append an entry. Panics if keys are not strictly ascending —
    /// that is a programming error in the flush/compaction path, not a
    /// runtime condition.
    pub fn add(&mut self, tag: Tag, key: &[u8], value: &[u8]) {
        assert!(
            self.count == 0 || key > self.last_key.as_slice(),
            "sstable keys must be strictly ascending"
        );
        if self.pending_first_key.is_none() {
            self.pending_first_key = Some(key.to_vec());
        }
        self.buf.u8(tag as u8);
        self.buf.varint(key.len() as u64);
        self.buf.raw(key);
        self.buf.varint(value.len() as u64);
        self.buf.raw(value);
        self.bloom.add(key);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count += 1;
        if self.buf.len() - self.block_start >= TARGET_BLOCK {
            self.seal_block();
        }
    }

    fn seal_block(&mut self) {
        if let Some(first) = self.pending_first_key.take() {
            let len = (self.buf.len() - self.block_start) as u32;
            self.index.push((first, self.block_start as u64, len));
            self.block_start = self.buf.len();
        }
    }

    /// Finish the table and return the serialized blob.
    pub fn finish(mut self) -> Vec<u8> {
        self.seal_block();
        let mut out = self.buf;
        // Index.
        let index_off = out.len() as u64;
        let mut idx = Encoder::new();
        idx.u32(self.index.len() as u32);
        for (first, off, len) in &self.index {
            idx.bytes(first);
            idx.u64(*off);
            idx.u32(*len);
            // CRC over the block the entry points to.
            let block = &out.as_slice()[*off as usize..(*off as usize + *len as usize)];
            idx.u32(crc32(block));
        }
        let idx = idx.into_vec();
        out.raw(&idx);
        // Bloom.
        let bloom_off = out.len() as u64;
        let bloom = self.bloom.finish().encode();
        out.raw(&bloom);
        // Footer.
        out.u64(index_off);
        out.u64(idx.len() as u64);
        out.u64(bloom_off);
        out.u64(bloom.len() as u64);
        out.u32(self.count);
        out.u64(MAGIC);
        out.into_vec()
    }

    /// Entry count.
    pub fn entry_count(&self) -> u32 {
        self.count
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

struct IndexEntry {
    first_key: Vec<u8>,
    offset: u64,
    len: u32,
    crc: u32,
}

/// `blob[off..off + len]`, for an extent read from the blob itself: a
/// damaged footer or index entry is `Corruption`, not a panic.
fn extent(blob: &[u8], off: u64, len: u64) -> Result<&[u8]> {
    let end = off.checked_add(len).and_then(|end| usize::try_from(end).ok());
    end.and_then(|end| blob.get(off as usize..end))
        .ok_or_else(|| GkfsError::Corruption("sstable extent out of range".into()))
}

/// Decode one `(tag, key, value)` entry of a data block.
fn entry<'a>(d: &mut Decoder<'a>) -> Result<(Tag, &'a [u8], &'a [u8])> {
    let tag = Tag::from_u8(d.u8()?)?;
    let klen = d.varint()? as usize;
    let k = d.raw(klen)?;
    let vlen = d.varint()? as usize;
    Ok((tag, k, d.raw(vlen)?))
}

/// Read-side handle over one SSTable blob.
pub struct Table {
    blob: Arc<Vec<u8>>,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    count: u32,
}

impl Table {
    /// Parse a blob produced by [`TableBuilder::finish`].
    pub fn open(blob: Arc<Vec<u8>>) -> Result<Table> {
        if blob.len() < FOOTER_LEN {
            return Err(GkfsError::Corruption("sstable too short".into()));
        }
        let mut f = Decoder::new(&blob[blob.len() - FOOTER_LEN..]);
        let index_bytes = extent(&blob, f.u64()?, f.u64()?)?;
        let bloom_bytes = extent(&blob, f.u64()?, f.u64()?)?;
        let count = f.u32()?;
        if f.u64()? != MAGIC {
            return Err(GkfsError::Corruption("bad sstable magic".into()));
        }
        let mut idx = Decoder::new(index_bytes);
        // An index entry takes ≥ 20 bytes (key prefix + u64 + 2×u32).
        let n = idx.count(20)?;
        let mut index = Vec::with_capacity(n);
        for _ in 0..n {
            index.push(IndexEntry {
                first_key: idx.bytes()?.to_vec(),
                offset: idx.u64()?,
                len: idx.u32()?,
                crc: idx.u32()?,
            });
        }
        idx.finish()?;
        // The builder never seals an empty block, and an empty extent
        // is the one forgery its own checksum (0) would vouch for.
        if index.iter().any(|e| e.len == 0) {
            return Err(GkfsError::Corruption("empty sstable block".into()));
        }
        let bloom = BloomFilter::decode(bloom_bytes)?;
        Ok(Table {
            blob,
            index,
            bloom,
            count,
        })
    }

    /// Number of entries in the table.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Does the bloom filter admit this key? A point lookup asks this
    /// first and calls [`Table::get`] only on a yes.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.may_contain(key)
    }

    fn block(&self, i: usize) -> Result<&[u8]> {
        let e = &self.index[i];
        let block = extent(&self.blob, e.offset, e.len as u64)?;
        if crc32(block) != e.crc {
            return Err(GkfsError::Corruption(format!("block {i} checksum mismatch")));
        }
        Ok(block)
    }

    /// Index of the block that could contain `key`.
    fn block_for(&self, key: &[u8]) -> Option<usize> {
        if self.index.is_empty() || key < self.index[0].first_key.as_slice() {
            return None;
        }
        // Last block whose first_key <= key.
        let mut lo = 0usize;
        let mut hi = self.index.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.index[mid].first_key.as_slice() <= key {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Point lookup in the one block that could hold `key`: `Ok(None)`
    /// if the key is not in this table, `Ok(Some((tag, value)))` if
    /// present (the tag may be a tombstone; the value borrows from the
    /// block). The bloom filter is the caller's to ask
    /// ([`Table::may_contain`]) — it never changes the answer.
    pub fn get(&self, key: &[u8]) -> Result<Option<(Tag, &[u8])>> {
        let Some(bi) = self.block_for(key) else {
            return Ok(None);
        };
        let mut d = Decoder::new(self.block(bi)?);
        while d.remaining() > 0 {
            let (tag, k, v) = entry(&mut d)?;
            match k.cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => return Ok(Some((tag, v))),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Iterate all entries with `key >= start`, in key order.
    pub fn iter_from(&self, start: &[u8]) -> TableIter<'_> {
        // Start before the first key: scan from block 0.
        let block = self.block_for(start).unwrap_or_default();
        TableIter {
            table: self,
            block_idx: block,
            decoder: None,
            start: start.to_vec(),
            skipping: true,
        }
    }

    /// Iterate every entry.
    pub fn iter(&self) -> TableIter<'_> {
        self.iter_from(&[])
    }
}

/// Ordered entry iterator over one table.
pub struct TableIter<'a> {
    table: &'a Table,
    block_idx: usize,
    decoder: Option<Decoder<'a>>,
    start: Vec<u8>,
    skipping: bool,
}

impl<'a> Iterator for TableIter<'a> {
    type Item = Result<(Tag, &'a [u8], &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.decoder.is_none() {
                if self.block_idx >= self.table.index.len() {
                    return None;
                }
                match self.table.block(self.block_idx) {
                    Ok(b) => self.decoder = Some(Decoder::new(b)),
                    Err(e) => {
                        self.block_idx = self.table.index.len();
                        return Some(Err(e));
                    }
                }
            }
            let d = self.decoder.as_mut().unwrap();
            if d.remaining() == 0 {
                self.decoder = None;
                self.block_idx += 1;
                continue;
            }
            match entry(d) {
                Ok((tag, k, v)) => {
                    if self.skipping && k < self.start.as_slice() {
                        continue;
                    }
                    self.skipping = false;
                    return Some(Ok((tag, k, v)));
                }
                Err(e) => {
                    self.block_idx = self.table.index.len();
                    self.decoder = None;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_table(n: usize) -> Table {
        let mut b = TableBuilder::new();
        for i in 0..n {
            let key = format!("/files/{i:08}");
            if i % 10 == 3 {
                b.add(Tag::Delete, key.as_bytes(), b"");
            } else {
                b.add(Tag::Put, key.as_bytes(), format!("value-{i}").as_bytes());
            }
        }
        Table::open(Arc::new(b.finish())).unwrap()
    }

    #[test]
    fn point_lookups() {
        let t = build_table(1000);
        assert_eq!(t.len(), 1000);
        match t.get(b"/files/00000005").unwrap() {
            Some((Tag::Put, v)) => assert_eq!(v, b"value-5"),
            other => panic!("unexpected {other:?}"),
        }
        match t.get(b"/files/00000003").unwrap() {
            Some((Tag::Delete, _)) => {}
            other => panic!("expected tombstone, got {other:?}"),
        }
        assert!(t.get(b"/files/99999999").unwrap().is_none());
        assert!(t.get(b"/absent").unwrap().is_none());
        assert!(t.get(b"").unwrap().is_none());
    }

    #[test]
    fn full_iteration_in_order() {
        let t = build_table(500);
        let entries: Vec<_> = t.iter().map(|r| r.unwrap()).collect();
        assert_eq!(entries.len(), 500);
        assert!(entries.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn iter_from_midpoint() {
        let t = build_table(100);
        let entries: Vec<_> = t.iter_from(b"/files/00000050").map(|r| r.unwrap()).collect();
        assert_eq!(entries.len(), 50);
        assert_eq!(entries[0].1, b"/files/00000050");
    }

    #[test]
    fn iter_from_between_keys() {
        let mut b = TableBuilder::new();
        b.add(Tag::Put, b"/a", b"1");
        b.add(Tag::Put, b"/c", b"2");
        b.add(Tag::Put, b"/e", b"3");
        let t = Table::open(Arc::new(b.finish())).unwrap();
        let entries: Vec<_> = t.iter_from(b"/b").map(|r| r.unwrap()).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, b"/c");
    }

    #[test]
    fn empty_table() {
        let b = TableBuilder::new();
        let t = Table::open(Arc::new(b.finish())).unwrap();
        assert!(t.is_empty());
        assert!(t.get(b"/x").unwrap().is_none());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn corruption_detected() {
        let mut b = TableBuilder::new();
        b.add(Tag::Put, b"/a", b"1");
        b.add(Tag::Put, b"/b", b"2");
        let mut blob = b.finish();
        blob[2] ^= 0xFF; // flip a bit inside the first data block
        let t = Table::open(Arc::new(blob)).unwrap();
        assert!(matches!(t.get(b"/a"), Err(GkfsError::Corruption(_))));
    }

    #[test]
    fn truncated_blob_rejected() {
        assert!(Table::open(Arc::new(vec![1, 2, 3])).is_err());
        let mut b = TableBuilder::new();
        b.add(Tag::Put, b"/a", b"1");
        let blob = b.finish();
        assert!(Table::open(Arc::new(blob[..blob.len() - 4].to_vec())).is_err());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn out_of_order_add_panics() {
        let mut b = TableBuilder::new();
        b.add(Tag::Put, b"/b", b"1");
        b.add(Tag::Put, b"/a", b"2");
    }

    #[test]
    fn large_values_cross_blocks() {
        let mut b = TableBuilder::new();
        let big = vec![0xABu8; 10_000]; // forces multiple blocks
        for i in 0..10 {
            b.add(Tag::Put, format!("/k{i}").as_bytes(), &big);
        }
        let t = Table::open(Arc::new(b.finish())).unwrap();
        assert!(t.index.len() > 1, "expected multiple blocks");
        for i in 0..10 {
            let (tag, v) = t.get(format!("/k{i}").as_bytes()).unwrap().unwrap();
            assert_eq!(tag, Tag::Put);
            assert_eq!(v.len(), 10_000);
        }
    }
}
