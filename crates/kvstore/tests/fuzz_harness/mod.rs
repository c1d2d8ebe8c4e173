//! What the decoder fuzzers share (`fuzz_decoders.rs` here, for the
//! on-disk formats; `crates/rpc/tests/fuzz_wire.rs`, which includes
//! this file by path, for the wire): a per-thread counting allocator,
//! so a row can say how much its decode allocated (and the allocation
//! budgets how many allocations a call made), and the mutations —
//! every truncation, forged length fields, seeded flips and splices —
//! each named so that a failing row replays alone.

use gkfs_common::retry::splitmix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---- allocation accounting -------------------------------------------

thread_local! {
    /// Bytes this thread has allocated and not freed, and the highest
    /// that figure has been since `measured` last reset it.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    /// Allocations this thread has made. A `realloc` counts as one:
    /// `GlobalAlloc`'s default `realloc` goes through `alloc`.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts per thread, so the test harness's other threads and the
/// store's background threads do not show up in a row's figure.
struct Counting;

// SAFETY: every request is passed to `System` unchanged; the counters
// are plain thread-local `Cell`s with const initialisers, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `decode`; return its result — `Err(())` if it panicked — and
/// the most it had allocated at any one time.
pub fn measured<T>(decode: impl FnOnce() -> T) -> (std::result::Result<T, ()>, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = catch_unwind(AssertUnwindSafe(decode)).map_err(drop);
    (out, PEAK.with(Cell::get).saturating_sub(before))
}

/// Run `f`; return its result and how many allocations it made on
/// this thread.
#[allow(dead_code)] // the allocation budgets' helper; the fuzzers count bytes
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Fail the run naming the row, so that it replays alone.
pub fn fail(row: &str, what: std::fmt::Arguments<'_>) -> ! {
    panic!("fuzz row [{row}]: {what}")
}

// ---- mutations -------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The values a forged length, count or offset field is given, as the
/// little-endian bytes of a `u32` and of a `u64` — and `u64::MAX` once
/// more as the varint a data block's lengths are written in.
const FORGED: [&[u8]; 8] = [
    &[0; 4],
    &[1, 0, 0, 0],
    &[0xFF; 4],
    &[0; 8],
    &[1, 0, 0, 0, 0, 0, 0, 0],
    &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0],
    &[0xFF; 8],
    &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
];

/// Hand `each` every mutation of `input` this fuzzer makes, with a
/// name that reproduces it: truncation at every length (every
/// `trunc_step`-th for the rows that pay a `Db::open` each), every
/// [`FORGED`] value at every offset of `fields`, and `flips` seeded
/// single-bit flips plus `flips / 4` seeded 1–16-byte random splices.
pub fn mutations(
    input: &[u8],
    fields: impl IntoIterator<Item = usize>,
    trunc_step: usize,
    flips: usize,
    seed: u64,
    mut each: impl FnMut(&str, &[u8]),
) {
    for len in (0..input.len()).step_by(trunc_step) {
        each(&format!("truncate to {len}"), &input[..len]);
    }
    let mut buf = input.to_vec();
    for off in fields {
        for forged in FORGED {
            if off + forged.len() <= buf.len() {
                buf[off..off + forged.len()].copy_from_slice(forged);
                each(&format!("overwrite {forged:?} at {off}"), &buf);
                buf[off..off + forged.len()].copy_from_slice(&input[off..off + forged.len()]);
            }
        }
    }
    let mut rng = Rng(seed);
    for _ in 0..flips {
        let bit = rng.below(input.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        each(&format!("seed {seed:#x}: flip bit {bit}"), &buf);
        buf[bit / 8] = input[bit / 8];
    }
    for _ in 0..flips / 4 {
        let off = rng.below(input.len());
        let n = (1 + rng.below(16)).min(input.len() - off);
        for b in &mut buf[off..off + n] {
            *b = rng.next() as u8;
        }
        each(&format!("seed {seed:#x}: splice {n} random bytes at {off}"), &buf);
        buf[off..off + n].copy_from_slice(&input[off..off + n]);
    }
}
