//! The benchmark's frozen inputs. One round of a workload is this
//! much work, always: a run repeats rounds until `--seconds` is spent
//! and never scales a round, so both sides of a later comparison do
//! identical work per round. Calibrated once on the 2-core reference
//! box so that a round takes 0.3–0.8 s.

/// Ranks (closed-loop client threads, each with its own mount).
pub const RANKS: usize = 2;
/// Daemons in the deployment.
pub const NODES: usize = 2;
/// Chunk size of the deployment.
pub const CHUNK: u64 = 512 * 1024;
/// Write-back capacity per handle on `smallfile.wb`.
pub const WRITE_BACK: u64 = 64 * 1024;
/// Set-ups measured per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// `peak_rss_mib` is read when this many recorded rounds are done, not
/// when time is up: the daemons' memory grows with the work done, so a
/// reading at the end of a timed run would charge a faster program for
/// the extra rounds it fitted in. By round 16 the daemons' memtables,
/// immutable memtables and table builders have reached their plateau
/// on every workload (on `mdtest.bulk` memory climbs until round 11).
pub const RSS_ROUNDS: usize = 16;

/// Work per rank per round, per workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `mdtest.unary`: files created, stat'ed and unlinked.
    pub md_unary_files: usize,
    /// `mdtest.bulk`: files per phase.
    pub md_bulk_files: usize,
    /// `mdtest.bulk`: paths per `*_many` call.
    pub md_bulk_slice: usize,
    /// `ior.seq1m`: transfer size in bytes.
    pub seq_xfer: usize,
    /// `ior.seq1m`: transfers per phase (file size ÷ transfer size).
    pub seq_xfers: usize,
    /// `ior.shared8k`: transfer size in bytes.
    pub shared_xfer: usize,
    /// `ior.shared8k`: transfers per phase (region ÷ transfer size).
    pub shared_xfers: usize,
    /// `smallfile.wb`: files per batch.
    pub sf_files: usize,
    /// `smallfile.wb`: batches alive before the oldest is scanned and
    /// unlinked. `RANKS * sf_files * sf_window / NODES` chunk files
    /// per daemon must exceed the 16 x 192 entry fd cache.
    pub sf_window: usize,
    /// `smallfile.wb`: `write` calls per file.
    pub sf_writes: usize,
    /// `smallfile.wb`: bytes per `write` call.
    pub sf_write_len: usize,
}

/// The sizes every reported number is taken at.
pub const FROZEN: Sizes = Sizes {
    md_unary_files: 1000,
    md_bulk_files: 16384,
    md_bulk_slice: 64,
    seq_xfer: 1 << 20,
    seq_xfers: 64,
    shared_xfer: 8 << 10,
    shared_xfers: 1024,
    sf_files: 512,
    sf_window: 8,
    sf_writes: 8,
    sf_write_len: 512,
};

/// Seconds-long sizes for the smoke test; reports no usable number.
pub const TINY: Sizes = Sizes {
    md_unary_files: 40,
    md_bulk_files: 256,
    md_bulk_slice: 64,
    seq_xfer: 1 << 20,
    seq_xfers: 2,
    shared_xfer: 8 << 10,
    shared_xfers: 32,
    sf_files: 16,
    sf_window: 2,
    sf_writes: 8,
    sf_write_len: 512,
};

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one (seed, stream) pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fill `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for w in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            w.copy_from_slice(&v[..w.len()]);
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
