//! Write-back buffering — the client half of the BuffetFS/AsyncFS-style
//! small-write optimization.
//!
//! GekkoFS pays one chunk RPC (plus a size update) per `write`, which
//! is exactly the small-op tax the paper's 8 KiB IOR numbers show.
//! A [`WbBuf`] coalesces small *sequential* writes on one open file
//! into a single contiguous run of bytes; the run is written out as
//! one chunk-aligned batch when it reaches capacity, when a disjoint
//! write displaces it, or when `flush`/`fsync`/`close` force it.
//!
//! The buffer itself is pure data: no locks, no RPCs. It is one field
//! of the path's [`crate::filemap::LocalFile`], whose lock covers it,
//! and the client is careful to *take* the run out under that lock and
//! send it after the guard is dropped — an RPC under the lock would
//! violate the lock hierarchy (GKL002).
//!
//! Consistency contract (see DESIGN.md "Open handles and write-back
//! batching"): buffered bytes are visible to reads through **every
//! handle this client has open on the path** (read overlays the run)
//! and to `stat` on the same client (the record's size includes the
//! buffered tail). Other clients see them only after a flush — the
//! same relaxation GekkoFS already accepts for the §IV-B size cache.

/// One contiguous run of buffered bytes, starting at `start`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WbRun {
    /// File offset of the first buffered byte.
    pub start: u64,
    /// The buffered bytes.
    pub data: Vec<u8>,
}

impl WbRun {
    /// One past the last buffered byte.
    pub fn end(&self) -> u64 {
        self.start + self.data.len() as u64
    }
}

/// A bounded write-back buffer holding at most one contiguous run.
///
/// `capacity == 0` disables buffering: every offer is written through.
#[derive(Debug)]
pub struct WbBuf {
    capacity: usize,
    run: Option<WbRun>,
}

impl WbBuf {
    /// New buffer with the given capacity in bytes.
    pub fn new(capacity: usize) -> WbBuf {
        WbBuf {
            capacity,
            run: None,
        }
    }

    /// Bytes currently buffered.
    fn len(&self) -> usize {
        self.run.as_ref().map_or(0, |r| r.data.len())
    }

    /// One past the last buffered byte, if any.
    pub fn end(&self) -> Option<u64> {
        self.run.as_ref().map(|r| r.end())
    }

    /// Offer a write to the buffer: absorb the bytes (sequential
    /// append, in-run overwrite, or a fresh run) or leave them to be
    /// written through (oversized or disabled). Returns, in the order
    /// the caller must act on them:
    ///
    /// * a displaced run to send *first* (program order: buffered bytes
    ///   precede this write);
    /// * whether the caller must send the write itself (`false` = it
    ///   was absorbed);
    /// * the run, taken out, if absorbing brought it to capacity.
    pub fn offer(&mut self, offset: u64, data: &[u8]) -> (Option<WbRun>, bool, Option<WbRun>) {
        if self.capacity == 0 || data.len() >= self.capacity {
            // Oversized writes skip the buffer entirely; any pending
            // run goes out first so earlier bytes are not reordered
            // past later ones on overlapping ranges.
            return (self.run.take(), true, None);
        }
        let displaced = match &mut self.run {
            Some(run) if offset >= run.start && offset <= run.end() => {
                // Overlapping or exactly-appending write: copy over the
                // overlap and extend the tail. This is the sequential
                // fast path (`offset == run.end()`) and the in-run
                // rewrite path in one.
                let rel = (offset - run.start) as usize;
                let overlap = data.len().min(run.data.len() - rel);
                run.data[rel..rel + overlap].copy_from_slice(&data[..overlap]);
                run.data.extend_from_slice(&data[overlap..]);
                None
            }
            // Nothing buffered, or a disjoint (or backwards-overlapping)
            // write: displace the old run and start a new one here.
            _ => self.run.replace(WbRun {
                start: offset,
                data: data.to_vec(),
            }),
        };
        let full = if self.len() >= self.capacity { self.run.take() } else { None };
        (displaced, false, full)
    }

    /// Take the pending run out (flush/fsync/close/drain).
    pub fn take(&mut self) -> Option<WbRun> {
        self.run.take()
    }

    /// The part of the pending run inside `[offset, offset + len)`,
    /// copied out for read overlay (the run stays buffered; reads must
    /// see buffered bytes without forcing I/O). `None` when the run and
    /// the range are disjoint — a read elsewhere in the file costs
    /// nothing here, and one that overlaps copies only the overlap,
    /// never the whole run.
    pub fn snapshot(&self, offset: u64, len: u64) -> Option<WbRun> {
        let run = self.run.as_ref()?;
        let lo = offset.max(run.start);
        let hi = offset.saturating_add(len).min(run.end());
        (lo < hi).then(|| WbRun {
            start: lo,
            data: run.data[(lo - run.start) as usize..(hi - run.start) as usize].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_passes_everything_through() {
        let mut b = WbBuf::new(0);
        assert_eq!(b.offer(0, b"abc"), (None, true, None));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn sequential_writes_coalesce_into_one_run() {
        let mut b = WbBuf::new(64);
        assert_eq!(b.offer(0, b"hello"), (None, false, None));
        assert_eq!(b.offer(5, b" world"), (None, false, None));
        let run = b.take().unwrap();
        assert_eq!(run.start, 0);
        assert_eq!(run.data, b"hello world");
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn in_run_overwrite_patches_buffered_bytes() {
        let mut b = WbBuf::new(64);
        b.offer(10, b"xxxxxxxx");
        b.offer(12, b"AB");
        let run = b.snapshot(0, u64::MAX).unwrap();
        assert_eq!(run.start, 10);
        assert_eq!(run.data, b"xxABxxxx");
        // Overwrite extending past the tail grows the run.
        b.offer(16, b"tailtail");
        assert_eq!(b.snapshot(0, u64::MAX).unwrap().data, b"xxABxxtailtail");
        assert_eq!(b.end(), Some(24));
    }

    #[test]
    fn disjoint_write_displaces_the_old_run() {
        let mut b = WbBuf::new(64);
        b.offer(0, b"first");
        let (displaced, through, full) = b.offer(1000, b"second");
        assert_eq!(displaced, Some(WbRun { start: 0, data: b"first".to_vec() }));
        assert!(!through && full.is_none());
        assert_eq!(b.snapshot(0, u64::MAX).unwrap().start, 1000);
    }

    #[test]
    fn snapshot_returns_only_the_overlap() {
        let mut b = WbBuf::new(64);
        assert_eq!(b.snapshot(0, 100), None, "nothing buffered");
        b.offer(100, b"0123456789");
        // Disjoint on either side, including ranges that only touch.
        assert_eq!(b.snapshot(0, 100), None);
        assert_eq!(b.snapshot(110, 50), None);
        assert_eq!(b.snapshot(105, 0), None);
        // Head, middle, tail and covering overlaps.
        let part = |off, len| b.snapshot(off, len).map(|r| (r.start, r.data));
        assert_eq!(part(90, 13), Some((100, b"012".to_vec())));
        assert_eq!(part(103, 4), Some((103, b"3456".to_vec())));
        assert_eq!(part(108, 500), Some((108, b"89".to_vec())));
        assert_eq!(part(0, u64::MAX), Some((100, b"0123456789".to_vec())));
        assert_eq!(b.len(), 10, "the run stays buffered");
    }

    #[test]
    fn backwards_write_also_displaces() {
        let mut b = WbBuf::new(64);
        b.offer(100, b"tail");
        let (displaced, through, _) = b.offer(90, b"head");
        assert_eq!(displaced.unwrap().start, 100);
        assert!(!through);
    }

    #[test]
    fn oversized_write_goes_through_after_flush() {
        let mut b = WbBuf::new(8);
        b.offer(0, b"abc");
        let (displaced, through, full) = b.offer(3, &[7u8; 32]);
        assert_eq!(displaced.unwrap().data, b"abc");
        assert!(through && full.is_none());
        assert_eq!(b.len(), 0, "through writes never populate the buffer");
    }

    #[test]
    fn a_full_run_is_handed_out_at_capacity() {
        let mut b = WbBuf::new(8);
        assert_eq!(b.offer(0, b"1234"), (None, false, None));
        let (_, _, full) = b.offer(4, b"5678");
        assert_eq!(full.unwrap().data, b"12345678");
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn model_check_random_small_writes() {
        // Deterministic pseudo-random writes against a Vec<u8> model:
        // replaying (flushes + buffered run) must equal the model.
        let mut state = 0x9E37u64;
        let mut rand = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..50 {
            let mut b = WbBuf::new(32);
            let mut model = vec![0u8; 256];
            let mut disk = vec![0u8; 256];
            let apply = |disk: &mut Vec<u8>, run: WbRun| {
                let s = run.start as usize;
                disk[s..s + run.data.len()].copy_from_slice(&run.data);
            };
            for _ in 0..40 {
                let off = rand(200);
                let len = (rand(24) + 1) as usize;
                let byte = rand(255) as u8 + 1;
                let data = vec![byte; len];
                model[off as usize..off as usize + len].copy_from_slice(&data);
                let (displaced, through, full) = b.offer(off, &data);
                if let Some(r) = displaced {
                    apply(&mut disk, r);
                }
                if through {
                    apply(&mut disk, WbRun { start: off, data });
                }
                if let Some(r) = full {
                    apply(&mut disk, r);
                }
            }
            if let Some(r) = b.take() {
                apply(&mut disk, r);
            }
            assert_eq!(disk, model);
        }
    }
}
