//! The five workloads. Names are fixed; later issues cite them.
//!
//! Each stresses different layers, and for each optimisation the
//! repository has there is one workload that uses its mechanism and
//! one that bypasses it (see `README.md` for the prediction table):
//!
//! * `mdtest.unary`: one round trip per metadata op, so `rpc` (codec,
//!   TCP transport, handler-pool queue) and `kvstore` point ops do the
//!   work; `storage` and the client data path are idle.
//! * `mdtest.bulk`: the same namespace through the `*_many` plane,
//!   ~0.1 RPC per file, so the transport nearly vanishes and `kvstore`
//!   group-apply and `client::metabatch` dominate; memtables rotate
//!   inside the measurement.
//! * `ior.seq1m`: file per process, sequential 1 MiB transfers, each
//!   spanning two chunks. Bandwidth-bound: client fan-out and gather
//!   copies, `wire::FrameWriter`, the socket and `storage` do the
//!   work; `kvstore` sees only size updates.
//! * `ior.shared8k`: one shared file, seeded-shuffled 8 KiB transfers,
//!   write-through. Per-op cost on the data path: one small RPC per
//!   op, fd-cache lookup, sub-chunk I/O, and a size-update merge per
//!   write landing on one metadata owner.
//! * `smallfile.wb`: write-back mount; create + 8 x 512 B writes +
//!   close, later stat + open + read + close, later unlink, over a
//!   standing set of files whose chunk files outnumber the daemons'
//!   fd cache. The one working set larger than the program's own
//!   cache; the two `ior.*` working sets fit.

use crate::deploy::WORK_DIR;
use crate::runner::RankCtx;
use crate::sizes::{Rng, WRITE_BACK};
use gkfs_client::FileHandle;
use gkfs_common::OpenFlags;

/// A workload, by its fixed name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `mdtest.unary`.
    MdtestUnary,
    /// `mdtest.bulk`.
    MdtestBulk,
    /// `ior.seq1m`.
    IorSeq1m,
    /// `ior.shared8k`.
    IorShared8k,
    /// `smallfile.wb`.
    SmallfileWb,
}

/// One timed phase of a round.
#[derive(Debug)]
pub struct PhaseDef {
    /// Short name: `create`, `write`, `scan`, …
    pub name: &'static str,
    /// The throughput's name in reports: `create_ops_s`, `write_mib_s`, …
    pub rate_name: &'static str,
    /// The throughput's unit.
    pub rate_unit: &'static str,
}

const fn phase(name: &'static str, rate_name: &'static str, rate_unit: &'static str) -> PhaseDef {
    PhaseDef {
        name,
        rate_name,
        rate_unit,
    }
}

const MDTEST: [PhaseDef; 3] = [
    phase("create", "create_ops_s", "1/s"),
    phase("stat", "stat_ops_s", "1/s"),
    phase("remove", "remove_ops_s", "1/s"),
];
const SEQ1M: [PhaseDef; 2] = [
    phase("write", "write_mib_s", "MiB/s"),
    phase("read", "read_mib_s", "MiB/s"),
];
const SHARED8K: [PhaseDef; 2] = [
    phase("write", "write_ops_s", "1/s"),
    phase("read", "read_ops_s", "1/s"),
];
const SMALLFILE: [PhaseDef; 3] = [
    phase("ingest", "ingest_files_s", "1/s"),
    phase("scan", "scan_files_s", "1/s"),
    phase("unlink", "unlink_files_s", "1/s"),
];

/// Bytes between stamps in a [`Pattern`].
const STAMP_EVERY: usize = 512;

/// Seeded file contents. A random base block, and over it every
/// [`STAMP_EVERY`] bytes the absolute file offset of that position, so
/// a block that lands at the wrong offset reads back wrong. Writer and
/// verifier build the same block from (seed, stream, offset).
struct Pattern {
    block: Vec<u8>,
    salt: u64,
}

impl Pattern {
    fn new(seed: u64, stream: u64, len: usize) -> Pattern {
        let mut rng = Rng::new(seed, stream);
        let mut block = vec![0u8; len];
        rng.fill(&mut block);
        Pattern {
            block,
            salt: rng.next_u64(),
        }
    }

    /// The block's contents when it sits at file offset `offset`.
    fn at(&mut self, offset: u64) -> &[u8] {
        for (k, slot) in self.block.chunks_mut(STAMP_EVERY).enumerate() {
            let stamp = (offset + (k * STAMP_EVERY) as u64) ^ self.salt;
            slot[..8].copy_from_slice(&stamp.to_le_bytes());
        }
        &self.block
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::MdtestUnary,
        Workload::MdtestBulk,
        Workload::IorSeq1m,
        Workload::IorShared8k,
        Workload::SmallfileWb,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MdtestUnary => "mdtest.unary",
            Workload::MdtestBulk => "mdtest.bulk",
            Workload::IorSeq1m => "ior.seq1m",
            Workload::IorShared8k => "ior.shared8k",
            Workload::SmallfileWb => "smallfile.wb",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The timed phases of one round. Phase 0 mutates and phase 1
    /// queries on every workload; a third phase, where there is one,
    /// removes.
    pub fn phases(self) -> &'static [PhaseDef] {
        match self {
            Workload::MdtestUnary | Workload::MdtestBulk => &MDTEST,
            Workload::IorSeq1m => &SEQ1M,
            Workload::IorShared8k => &SHARED8K,
            Workload::SmallfileWb => &SMALLFILE,
        }
    }

    /// Factor from units per second to the phase's reported rate.
    pub fn rate_scale(self, sizes: &crate::sizes::Sizes) -> f64 {
        match self {
            Workload::IorSeq1m => sizes.seq_xfer as f64 / (1u64 << 20) as f64,
            _ => 1.0,
        }
    }

    /// Per-handle write-back capacity the workload mounts with.
    pub fn write_back(self) -> u64 {
        match self {
            Workload::SmallfileWb => WRITE_BACK,
            _ => 0,
        }
    }

    /// Build the standing state a round expects. Returns the next free
    /// round index.
    pub fn prefill(self, ctx: &mut RankCtx<'_>, first: u64) -> u64 {
        if self != Workload::SmallfileWb {
            return first;
        }
        let window = ctx.sizes.sf_window as u64;
        let sizes = ctx.sizes;
        let fs = ctx.fs;
        let mut pat = smallfile_pattern(ctx);
        for batch in first..first + window {
            for (path, offset) in smallfile_batch(ctx, batch) {
                let data = pat.at(offset);
                ctx.untimed("prefill ingest", || ingest_one(fs, &path, data, &sizes));
            }
        }
        ctx.barrier();
        first + window
    }

    /// One round of fixed work.
    pub fn round(self, ctx: &mut RankCtx<'_>, round: u64) {
        match self {
            Workload::MdtestUnary => mdtest_unary(ctx, round),
            Workload::MdtestBulk => mdtest_bulk(ctx, round),
            Workload::IorSeq1m => ior_seq1m(ctx, round),
            Workload::IorShared8k => ior_shared8k(ctx, round),
            Workload::SmallfileWb => smallfile_wb(ctx, round),
        }
    }

    /// Remove the standing state and check the work directory is empty.
    /// `next` is the first round index not yet used.
    pub fn drain(self, ctx: &mut RankCtx<'_>, next: u64) {
        if self == Workload::SmallfileWb {
            for batch in next - ctx.sizes.sf_window as u64..next {
                for (path, _) in smallfile_batch(ctx, batch) {
                    let fs = ctx.fs;
                    ctx.untimed("drain unlink", || fs.unlink(&path));
                }
            }
        }
        expect_empty_work_dir(ctx);
    }
}

/// After every rank is done removing, rank 0 lists the work directory.
fn expect_empty_work_dir(ctx: &mut RankCtx<'_>) {
    ctx.barrier();
    if ctx.rank == 0 {
        let fs = ctx.fs;
        if let Some(entries) = ctx.untimed("readdir", || fs.readdir(WORK_DIR)) {
            ctx.check(
                entries.is_empty(),
                "work directory is not empty after removes",
            );
        }
    }
    ctx.barrier();
}

fn mdtest_paths(ctx: &RankCtx<'_>, round: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("{WORK_DIR}/{:x}.{}.{round}.{i}", ctx.seed, ctx.rank))
        .collect()
}

fn mdtest_unary(ctx: &mut RankCtx<'_>, round: u64) {
    let paths = mdtest_paths(ctx, round, ctx.sizes.md_unary_files);
    let fs = ctx.fs;
    ctx.phase(0, |c| {
        for p in &paths {
            c.op(0, 1, || fs.create(p, 0o644));
        }
    });
    ctx.phase(1, |c| {
        for p in &paths {
            if let Some(m) = c.op(1, 1, || fs.stat(p)) {
                c.check(m.size == 0 && !m.is_dir(), "stat of an empty file");
            }
        }
    });
    ctx.phase(2, |c| {
        for p in &paths {
            c.op(2, 1, || fs.unlink(p));
        }
    });
    expect_empty_work_dir(ctx);
}

fn mdtest_bulk(ctx: &mut RankCtx<'_>, round: u64) {
    let paths = mdtest_paths(ctx, round, ctx.sizes.md_bulk_files);
    let slice = ctx.sizes.md_bulk_slice;
    let fs = ctx.fs;
    ctx.phase(0, |c| {
        for s in paths.chunks(slice) {
            if let Some(slots) = c.op(0, s.len() as u64, || fs.create_many(s, 0o644)) {
                let ok = slots.len() == s.len() && slots.iter().all(Result::is_ok);
                c.check(ok, "create_many verdicts");
            }
        }
    });
    ctx.phase(1, |c| {
        for s in paths.chunks(slice) {
            if let Some(slots) = c.op(1, s.len() as u64, || fs.stat_many(s)) {
                let ok = slots.len() == s.len()
                    && slots
                        .iter()
                        .all(|m| matches!(m, Ok(m) if m.size == 0 && !m.is_dir()));
                c.check(ok, "stat_many verdicts");
            }
        }
    });
    ctx.phase(2, |c| {
        for s in paths.chunks(slice) {
            if let Some(slots) = c.op(2, s.len() as u64, || fs.unlink_many(s)) {
                let ok = slots.len() == s.len() && slots.iter().all(Result::is_ok);
                c.check(ok, "unlink_many verdicts");
            }
        }
    });
    expect_empty_work_dir(ctx);
}

/// Timed write phase over `offsets`, one transfer each.
fn write_phase(c: &mut RankCtx<'_>, h: &FileHandle<'_>, pat: &mut Pattern, offsets: &[u64]) {
    for &off in offsets {
        let data = pat.at(off);
        if let Some(n) = c.op(0, 1, || h.pwrite(off, data)) {
            c.check(n == data.len(), "short write");
        }
    }
}

/// Timed read phase over `offsets`; every read checks its length.
fn read_phase(c: &mut RankCtx<'_>, h: &FileHandle<'_>, len: usize, offsets: &[u64]) {
    for &off in offsets {
        if let Some(data) = c.op(1, 1, || h.pread(off, len)) {
            c.check(data.len() == len, "short read");
        }
    }
}

/// Untimed: byte-compare the region `offsets` covers with the pattern.
fn verify_region(c: &mut RankCtx<'_>, h: &FileHandle<'_>, pat: &mut Pattern, offsets: &[u64]) {
    let len = pat.block.len();
    for &off in offsets {
        if let Some(data) = c.untimed("verify read", || h.pread(off, len)) {
            c.check(
                data == pat.at(off),
                "region does not match the written pattern",
            );
        }
    }
}

fn ior_seq1m(ctx: &mut RankCtx<'_>, round: u64) {
    let xfer = ctx.sizes.seq_xfer;
    let offsets: Vec<u64> = (0..ctx.sizes.seq_xfers)
        .map(|i| (i * xfer) as u64)
        .collect();
    let path = format!("{WORK_DIR}/{:x}.seq.{}.{round}", ctx.seed, ctx.rank);
    let mut pat = Pattern::new(ctx.seed, ctx.rank as u64, xfer);
    let fs = ctx.fs;

    let create = OpenFlags::WRONLY.with_create().with_exclusive();
    let target = ctx.untimed("open target", || fs.open_handle(&path, create));
    ctx.phase(0, |c| {
        if let Some(h) = &target {
            write_phase(c, h, &mut pat, &offsets);
        }
    });
    if let Some(h) = target {
        ctx.untimed("close target", || h.close());
    }
    // IOR reopens its files between the write and the read phase.
    let target = ctx.untimed("reopen target", || fs.open_handle(&path, OpenFlags::RDONLY));
    ctx.phase(1, |c| {
        if let Some(h) = &target {
            read_phase(c, h, xfer, &offsets);
        }
    });
    if let Some(h) = target {
        verify_region(ctx, &h, &mut pat, &offsets);
        ctx.untimed("close target", || h.close());
    }
    ctx.untimed("unlink target", || fs.unlink(&path));
    expect_empty_work_dir(ctx);
}

fn ior_shared8k(ctx: &mut RankCtx<'_>, round: u64) {
    let xfer = ctx.sizes.shared_xfer;
    let n = ctx.sizes.shared_xfers;
    let region = (ctx.rank * n * xfer) as u64;
    let sequential: Vec<u64> = (0..n).map(|i| region + (i * xfer) as u64).collect();
    let mut rng = Rng::new(ctx.seed, (round << 8) | ctx.rank as u64);
    let mut write_order = sequential.clone();
    rng.shuffle(&mut write_order);
    let mut read_order = sequential.clone();
    rng.shuffle(&mut read_order);
    let path = format!("{WORK_DIR}/{:x}.shared.{round}", ctx.seed);
    let mut pat = Pattern::new(ctx.seed, ctx.rank as u64, xfer);
    let fs = ctx.fs;

    if ctx.rank == 0 {
        ctx.untimed("create shared target", || fs.create(&path, 0o644));
    }
    ctx.barrier();
    let target = ctx.untimed("open shared target", || {
        fs.open_handle(&path, OpenFlags::WRONLY)
    });
    ctx.phase(0, |c| {
        if let Some(h) = &target {
            write_phase(c, h, &mut pat, &write_order);
        }
    });
    if let Some(h) = target {
        ctx.untimed("close shared target", || h.close());
    }
    // Reopen after every rank has closed: the handle's size then
    // covers every rank's region.
    ctx.barrier();
    let target = ctx.untimed("reopen shared target", || {
        fs.open_handle(&path, OpenFlags::RDONLY)
    });
    ctx.phase(1, |c| {
        if let Some(h) = &target {
            read_phase(c, h, xfer, &read_order);
        }
    });
    if let Some(h) = target {
        verify_region(ctx, &h, &mut pat, &sequential);
        ctx.untimed("close shared target", || h.close());
    }
    ctx.barrier();
    if ctx.rank == 0 {
        ctx.untimed("unlink shared target", || fs.unlink(&path));
    }
    expect_empty_work_dir(ctx);
}

/// The files of one batch: path, and the pattern offset that gives the
/// file its own contents.
fn smallfile_batch(ctx: &RankCtx<'_>, batch: u64) -> Vec<(String, u64)> {
    let len = (ctx.sizes.sf_writes * ctx.sizes.sf_write_len) as u64;
    (0..ctx.sizes.sf_files as u64)
        .map(|i| {
            let path = format!("{WORK_DIR}/{:x}.sf.{}.{batch}.{i}", ctx.seed, ctx.rank);
            (path, (batch * ctx.sizes.sf_files as u64 + i) * len)
        })
        .collect()
}

fn smallfile_pattern(ctx: &RankCtx<'_>) -> Pattern {
    let len = ctx.sizes.sf_writes * ctx.sizes.sf_write_len;
    Pattern::new(ctx.seed, ctx.rank as u64, len)
}

/// Create, write in `sf_writes` sequential calls, close.
fn ingest_one(
    fs: &gkfs_client::GekkoClient,
    path: &str,
    data: &[u8],
    sizes: &crate::sizes::Sizes,
) -> gkfs_common::Result<()> {
    let h = fs.open_handle(path, OpenFlags::WRONLY.with_create().with_exclusive())?;
    for piece in data.chunks(sizes.sf_write_len) {
        h.write(piece)?;
    }
    h.close()
}

/// Ingest batch `round`; scan, then unlink, batch `round - sf_window`.
fn smallfile_wb(ctx: &mut RankCtx<'_>, round: u64) {
    let sizes = ctx.sizes;
    let fresh = smallfile_batch(ctx, round);
    let old = smallfile_batch(ctx, round - sizes.sf_window as u64);
    let mut pat = smallfile_pattern(ctx);
    let len = pat.block.len();
    let fs = ctx.fs;
    ctx.phase(0, |c| {
        for (p, offset) in &fresh {
            let data = pat.at(*offset);
            c.op(0, 1, || ingest_one(fs, p, data, &sizes));
        }
    });
    ctx.phase(1, |c| {
        for (p, offset) in &old {
            let scanned = c.op(1, 1, || {
                let meta = fs.stat(p)?;
                let h = fs.open_handle(p, OpenFlags::RDONLY)?;
                let bytes = h.pread(0, len)?;
                h.close()?;
                Ok((meta, bytes))
            });
            if let Some((meta, bytes)) = scanned {
                c.check(meta.size == len as u64 && !meta.is_dir(), "small file stat");
                c.check(bytes == pat.at(*offset), "small file contents");
            }
        }
    });
    ctx.phase(2, |c| {
        for (p, _) in &old {
            c.op(2, 1, || fs.unlink(p));
        }
    });
}
