//! mdtest: parallel create / stat / remove.
//!
//! Mirrors the paper's §IV-A methodology: each process performs its
//! operations on its own disjoint set of files, all inside a single
//! directory (`single dir`) or inside a per-process directory
//! (`unique dir`). Phases are separated by barriers and timed by wall
//! clock across all processes, which is how mdtest reports
//! "operations per second".
//!
//! Two parameters widen the classic zero-byte, one-RPC-per-op run
//! without forking the driver:
//!
//! * [`MetaMode`] chooses the metadata protocol. `Unary` is mdtest
//!   proper — `open(O_CREAT|O_EXCL)` + `close`, `stat`, `unlink`, one
//!   round trip each. `Bulk(n)` hands each rank's files to
//!   `create_many` / `stat_many` / `unlink_many` in slices of `n`, so
//!   ops coalesce into `BatchMeta` frames the daemons group-apply.
//! * `file_size > 0` adds a payload to the create phase, written as
//!   sequential `transfer_size` `pwrite`s — the paper's motivating
//!   "large numbers of metadata operations … and small I/O requests"
//!   (§I), and what a write-back mount coalesces.
//!
//! Besides phase times the result carries the client counters the CI
//! gate in `tests/rpc_budget.rs` bounds: RPCs issued, ops batched (with
//! the batch-size histogram) and write-back activity.

use crate::Ranks;
use gekkofs::{FileHandle, GekkoClient, GkfsError, OpenFlags, Result};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Which metadata protocol the driver exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaMode {
    /// One unary RPC per operation.
    Unary,
    /// Bulk APIs over slices of this many files per call.
    Bulk(usize),
}

/// mdtest parameters.
#[derive(Debug, Clone)]
pub struct MdtestConfig {
    /// Number of concurrent "ranks" (threads, each with its own
    /// mounted client). The paper ran 16 per node.
    pub processes: usize,
    /// Files each rank creates/stats/removes (paper: 100,000).
    pub files_per_process: usize,
    /// Parent directory for the workload.
    pub work_dir: String,
    /// `false` = all ranks share one directory (the hard case);
    /// `true` = one directory per rank.
    pub unique_dir: bool,
    /// Unary or bulk metadata protocol.
    pub mode: MetaMode,
    /// Payload bytes written to each file at create (0 = classic
    /// zero-byte mdtest).
    pub file_size: usize,
    /// Bytes per `pwrite` of that payload.
    pub transfer_size: usize,
}

impl Default for MdtestConfig {
    fn default() -> Self {
        MdtestConfig {
            processes: 4,
            files_per_process: 1000,
            work_dir: "/mdtest".into(),
            unique_dir: false,
            mode: MetaMode::Unary,
            file_size: 0,
            transfer_size: 512,
        }
    }
}

/// Phase timings plus the clients' RPC, batching and write-back
/// counters for one run.
#[derive(Debug, Clone)]
pub struct MdtestResult {
    /// Files processed per phase across all ranks.
    pub total_files: usize,
    /// Wall-clock of the create (+ fill) phase.
    pub create_time: Duration,
    /// Wall-clock of the stat phase.
    pub stat_time: Duration,
    /// Wall-clock of the remove phase.
    pub remove_time: Duration,
    /// RPCs the clients issued across the run (mount and directory
    /// setup excluded).
    pub rpcs_issued: u64,
    /// Metadata ops that traveled inside `BatchMeta` frames.
    pub ops_batched: u64,
    /// Client batch-size histogram (1, 2–4, 5–8, 9–16, 17–32, 33+).
    pub batch_hist: [u64; 6],
    /// Bytes absorbed by write-back buffers (0 when disabled).
    pub wb_buffered_bytes: u64,
    /// Coalesced write-back flushes.
    pub wb_flushes: u64,
}

impl MdtestResult {
    /// Aggregate create throughput.
    pub fn creates_per_sec(&self) -> f64 {
        self.total_files as f64 / self.create_time.as_secs_f64()
    }
    /// Aggregate stat throughput.
    pub fn stats_per_sec(&self) -> f64 {
        self.total_files as f64 / self.stat_time.as_secs_f64()
    }
    /// Aggregate remove throughput.
    pub fn removes_per_sec(&self) -> f64 {
        self.total_files as f64 / self.remove_time.as_secs_f64()
    }
    /// Files taken through the whole create/stat/remove chain per
    /// second of summed phase time.
    pub fn files_per_sec(&self) -> f64 {
        let total = self.create_time + self.stat_time + self.remove_time;
        self.total_files as f64 / total.as_secs_f64()
    }
    /// RPCs per file across the whole chain — the figure the CI
    /// regression gates bound.
    pub fn rpcs_per_file(&self) -> f64 {
        self.rpcs_issued as f64 / self.total_files as f64
    }
}

impl MdtestConfig {
    /// Rank `rank`'s `i`-th file.
    pub fn path(&self, rank: usize, i: usize) -> String {
        if self.unique_dir {
            format!("{}/rank{rank}/file.{rank}.{i}", self.work_dir)
        } else {
            format!("{}/file.{rank}.{i}", self.work_dir)
        }
    }

    fn paths(&self, rank: usize, ids: Range<usize>) -> Vec<String> {
        ids.map(|i| self.path(rank, i)).collect()
    }
}

/// Write file `(rank, i)`'s payload through `h`: `file_size` bytes in
/// `transfer_size` pieces, nothing at all for a zero-byte run.
fn fill(h: &FileHandle<'_>, cfg: &MdtestConfig, rank: usize, i: usize) -> Result<()> {
    let tag = (rank * 17 + i) as u8;
    let data: Vec<u8> = (0..cfg.file_size).map(|b| tag ^ (b as u8)).collect();
    let mut off = 0u64;
    for piece in data.chunks(cfg.transfer_size.max(1)) {
        h.pwrite(off, piece)?;
        off += piece.len() as u64;
    }
    Ok(())
}

/// Unary create of file `(rank, i)`: mdtest's `open(O_CREAT|O_EXCL)`,
/// the payload if there is one, `close`.
pub fn create_one(c: &GekkoClient, cfg: &MdtestConfig, rank: usize, i: usize) -> Result<()> {
    let flags = OpenFlags::WRONLY.with_create().with_exclusive();
    let h = c.open_handle(&cfg.path(rank, i), flags)?;
    fill(&h, cfg, rank, i)?;
    h.close()
}

/// Unary stat of file `(rank, i)`.
pub fn stat_one(c: &GekkoClient, cfg: &MdtestConfig, rank: usize, i: usize) -> Result<()> {
    c.stat(&cfg.path(rank, i)).map(drop)
}

/// Unary remove of file `(rank, i)`.
pub fn remove_one(c: &GekkoClient, cfg: &MdtestConfig, rank: usize, i: usize) -> Result<()> {
    c.unlink(&cfg.path(rank, i))
}

/// A bulk call's per-path verdicts: the first failure, with its path.
fn verdicts<T>(phase: &str, paths: &[String], results: Vec<Result<T>>) -> Result<()> {
    for (path, r) in paths.iter().zip(results) {
        r.map_err(|e| GkfsError::Io(format!("{phase} {path}: {e}")))?;
    }
    Ok(())
}

/// Bulk create of rank `rank`'s files `ids`; entries first, then each
/// payload through a handle of its own.
pub fn create_slice(
    c: &GekkoClient,
    cfg: &MdtestConfig,
    rank: usize,
    ids: Range<usize>,
) -> Result<()> {
    let paths = cfg.paths(rank, ids.clone());
    verdicts("create", &paths, c.create_many(&paths, 0o644)?)?;
    if cfg.file_size > 0 {
        for (i, path) in ids.zip(&paths) {
            let h = c.open_handle(path, OpenFlags::WRONLY)?;
            fill(&h, cfg, rank, i)?;
            h.close()?;
        }
    }
    Ok(())
}

/// Bulk stat of rank `rank`'s files `ids`.
pub fn stat_slice(
    c: &GekkoClient,
    cfg: &MdtestConfig,
    rank: usize,
    ids: Range<usize>,
) -> Result<()> {
    let paths = cfg.paths(rank, ids);
    verdicts("stat", &paths, c.stat_many(&paths)?)
}

/// Bulk remove of rank `rank`'s files `ids`.
pub fn remove_slice(
    c: &GekkoClient,
    cfg: &MdtestConfig,
    rank: usize,
    ids: Range<usize>,
) -> Result<()> {
    let paths = cfg.paths(rank, ids);
    verdicts("remove", &paths, c.unlink_many(&paths)?)
}

type One = fn(&GekkoClient, &MdtestConfig, usize, usize) -> Result<()>;
type Slice = fn(&GekkoClient, &MdtestConfig, usize, Range<usize>) -> Result<()>;

/// The three phases, each as its unary and its bulk op.
const PHASES: [(One, Slice); 3] = [
    (create_one, create_slice),
    (stat_one, stat_slice),
    (remove_one, remove_slice),
];

/// Run the three mdtest phases. `mount` is called once per rank:
/// `|| cluster.mount()` for an in-process cluster, fresh TCP
/// connections for a live deployment (the `gkfs-workload` binary).
pub fn run_mdtest(
    mount: impl Fn() -> Result<GekkoClient>,
    cfg: &MdtestConfig,
) -> Result<MdtestResult> {
    let ranks = Ranks::mount(cfg.processes, mount)?;
    // Setup (untimed, like mdtest's tree creation).
    ranks.mkdir(&cfg.work_dir)?;
    if cfg.unique_dir {
        for rank in 0..cfg.processes {
            ranks.mkdir(&format!("{}/rank{rank}", cfg.work_dir))?;
        }
    }
    // Counted from here so the figure is the benchmark's own traffic.
    let rpc_base = ranks.total(|s| s.rpcs_issued.load(Ordering::Relaxed));

    let n = cfg.files_per_process;
    let mut times = [Duration::ZERO; 3];
    for (time, (one, slice)) in times.iter_mut().zip(PHASES) {
        *time = ranks.phase(
            |_, _| Ok(()),
            |rank, c, ()| match cfg.mode {
                MetaMode::Unary => (0..n).try_for_each(|i| one(c, cfg, rank, i)),
                MetaMode::Bulk(len) => (0..n)
                    .step_by(len.max(1))
                    .try_for_each(|lo| slice(c, cfg, rank, lo..n.min(lo + len.max(1)))),
            },
        )?;
    }

    let mut batch_hist = [0u64; 6];
    for (i, slot) in batch_hist.iter_mut().enumerate() {
        *slot = ranks.total(|s| s.meta_batch_hist[i].load(Ordering::Relaxed));
    }
    Ok(MdtestResult {
        total_files: cfg.processes * n,
        create_time: times[0],
        stat_time: times[1],
        remove_time: times[2],
        rpcs_issued: ranks.total(|s| s.rpcs_issued.load(Ordering::Relaxed)) - rpc_base,
        ops_batched: ranks.total(|s| s.meta_ops_batched.load(Ordering::Relaxed)),
        batch_hist,
        wb_buffered_bytes: ranks.total(|s| s.wb_buffered_bytes.load(Ordering::Relaxed)),
        wb_flushes: ranks.total(|s| s.wb_flushes.load(Ordering::Relaxed)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gekkofs::{Cluster, ClusterConfig};

    fn deploy(write_back: u64) -> Cluster {
        Cluster::deploy(
            ClusterConfig::new(2)
                .with_chunk_size(64 * 1024)
                .with_write_back(write_back),
        )
        .unwrap()
    }

    /// Every (mode × size × directory layout) cell runs the same three
    /// phases: all files made, all removed, and the protocol the mode
    /// names is the one that carried the ops.
    #[test]
    fn every_mode_size_and_layout_runs_clean() {
        let cluster = deploy(0);
        let fs = cluster.mount().unwrap();
        let mut cell = 0;
        for mode in [MetaMode::Unary, MetaMode::Bulk(64)] {
            for file_size in [0usize, 4 * 1024] {
                for unique_dir in [false, true] {
                    cell += 1;
                    let cfg = MdtestConfig {
                        processes: 3,
                        files_per_process: 100,
                        work_dir: format!("/md{cell}"),
                        unique_dir,
                        mode,
                        file_size,
                        transfer_size: 512,
                    };
                    let what = format!("{mode:?} size={file_size} unique={unique_dir}");
                    let r = run_mdtest(|| cluster.mount(), &cfg).unwrap();
                    assert_eq!(r.total_files, 300, "{what}");
                    assert!(
                        r.creates_per_sec() > 0.0 && r.stats_per_sec() > 0.0,
                        "{what}"
                    );
                    assert!(
                        r.removes_per_sec() > 0.0 && r.files_per_sec() > 0.0,
                        "{what}"
                    );

                    // After remove only the rank directories are left,
                    // and they are empty.
                    let entries = fs.readdir(&cfg.work_dir).unwrap();
                    assert_eq!(entries.len(), if unique_dir { 3 } else { 0 }, "{what}");
                    for e in entries {
                        let dir = format!("{}/{}", cfg.work_dir, e.name);
                        assert!(fs.readdir(&dir).unwrap().is_empty(), "{what}");
                    }

                    // RPCs per file are structural, so each cell pins
                    // its own. Unary: nothing batched; create, stat and
                    // unlink are one round trip each, and a
                    // write-through payload adds one frame per pwrite
                    // (bytes and size together: chunk 0 lives with the
                    // inode) and nothing to the unlink (the owner drops
                    // chunk 0 with the entry) — 11. Bulk: every
                    // create/stat/remove batched, one frame per daemon
                    // per slice; the payload adds an open-time stat and
                    // the same 8 write frames.
                    let per_file = r.rpcs_per_file();
                    let filled = file_size > 0;
                    match mode {
                        MetaMode::Unary => {
                            assert_eq!(r.ops_batched, 0, "{what}");
                            assert_eq!(per_file, if filled { 11.0 } else { 3.0 }, "{what}");
                        }
                        MetaMode::Bulk(_) => {
                            assert_eq!(r.ops_batched, 900, "{what}");
                            assert!(r.batch_hist.iter().sum::<u64>() > 0, "{what}");
                            let payload = if filled { 9.0 } else { 0.0 };
                            assert!(per_file <= payload + 0.2, "{what}: {per_file}");
                        }
                    }
                    assert_eq!(r.wb_flushes, 0, "{what}: write-back is off");
                }
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn bulk_mode_cuts_rpcs_at_least_3x() {
        let cluster = deploy(0);
        let cfg = |mode, dir: &str| MdtestConfig {
            processes: 2,
            files_per_process: 100,
            work_dir: dir.into(),
            mode,
            ..MdtestConfig::default()
        };
        let unary = run_mdtest(|| cluster.mount(), &cfg(MetaMode::Unary, "/u")).unwrap();
        let bulk = run_mdtest(|| cluster.mount(), &cfg(MetaMode::Bulk(64), "/b")).unwrap();
        assert!(
            bulk.rpcs_issued * 3 <= unary.rpcs_issued,
            "bulk {} vs unary {}",
            bulk.rpcs_issued,
            unary.rpcs_issued
        );
        cluster.shutdown();
    }

    #[test]
    fn write_back_cuts_small_file_rpcs() {
        // The acceptance bar for the handle redesign: with write-back
        // on, the create/write/stat/remove chain issues at least 2x
        // fewer RPCs per file. Write-through pays per-pwrite chunk +
        // size-update RPCs (8 small writes per file here); write-back
        // coalesces each file into one flush.
        let cfg = MdtestConfig {
            processes: 1,
            files_per_process: 64,
            work_dir: "/mds-wb".into(),
            file_size: 4 * 1024,
            transfer_size: 512,
            ..MdtestConfig::default()
        };
        let cluster = deploy(0);
        let plain = run_mdtest(|| cluster.mount(), &cfg).unwrap();
        cluster.shutdown();
        let cluster = deploy(64 * 1024);
        let buffered = run_mdtest(|| cluster.mount(), &cfg).unwrap();
        cluster.shutdown();

        assert!(plain.rpcs_issued > 0, "counter is wired");
        assert!(buffered.wb_flushes > 0, "write-back engaged");
        assert_eq!(buffered.wb_buffered_bytes, 64 * 4 * 1024);
        assert!(
            buffered.rpcs_issued * 2 <= plain.rpcs_issued,
            "write-back must cut RPCs >= 2x: {} vs {}",
            buffered.rpcs_issued,
            plain.rpcs_issued
        );
        // The hard 2x bound vs the old per-call protocol lives in
        // tests/rpc_budget.rs where that protocol's cost is pinned.
        assert!(
            buffered.rpcs_per_file() <= 8.0,
            "rpcs per file regressed: {}",
            buffered.rpcs_per_file()
        );
    }

    #[test]
    fn create_is_exclusive_across_runs() {
        // Running the create phase twice without remove must fail.
        let cluster = deploy(0);
        let fs = cluster.mount().unwrap();
        let cfg = MdtestConfig::default();
        create_one(&fs, &cfg, 0, 0).unwrap();
        assert_eq!(create_one(&fs, &cfg, 0, 0), Err(GkfsError::Exists));
        cluster.shutdown();
    }
}
