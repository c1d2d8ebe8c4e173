//! Small-file ingest: the data-driven-science workload from the
//! paper's introduction.
//!
//! §I motivates GekkoFS with workloads that differ from classic HPC
//! streaming: *"large numbers of metadata operations, data
//! synchronization, non-contiguous and random access patterns, and
//! small I/O requests"*. This driver models the canonical case — an
//! ingest/training pipeline over many small files:
//!
//! 1. **ingest**: every rank creates `files_per_process` files of
//!    `file_size` bytes each (create + write + close per file);
//! 2. **scan**: every rank reads a random permutation of *all* ranks'
//!    files (the shuffled-read phase of a training epoch);
//! 3. **list**: one `readdir` over the whole corpus (`ls -l`).
//!
//! Unlike pure mdtest this couples the metadata and data paths: each
//! file touches both the KV store and chunk storage, and the scan
//! phase reads across ranks (which is exactly what the BurstFS-style
//! write-local placement cannot serve — see the locality ablation).

use crate::Ranks;
use gekkofs::{GekkoClient, GkfsError, OpenFlags, Result};
use std::time::{Duration, Instant};

/// Small-file workload parameters.
#[derive(Debug, Clone)]
pub struct SmallFileConfig {
    /// Concurrent ranks.
    pub processes: usize,
    /// Files each rank ingests.
    pub files_per_process: usize,
    /// Bytes per file (small by design: the paper's motivation is
    /// "small I/O requests").
    pub file_size: usize,
    /// Corpus directory.
    pub work_dir: String,
}

impl Default for SmallFileConfig {
    fn default() -> Self {
        SmallFileConfig {
            processes: 4,
            files_per_process: 200,
            file_size: 16 * 1024,
            work_dir: "/corpus".into(),
        }
    }
}

/// Timings of one small-file run.
#[derive(Debug, Clone)]
pub struct SmallFileResult {
    /// Files ingested across all ranks.
    pub total_files: usize,
    /// Bytes read during the scan phase.
    pub total_bytes: u64,
    /// Wall-clock of the ingest phase.
    pub ingest_time: Duration,
    /// Wall-clock of the shuffled scan phase.
    pub scan_time: Duration,
    /// Wall-clock of the final listing.
    pub list_time: Duration,
    /// Entries the final listing returned.
    pub listed_entries: usize,
}

impl SmallFileResult {
    /// Files ingested per second (create+write+close chains).
    pub fn ingest_files_per_sec(&self) -> f64 {
        self.total_files as f64 / self.ingest_time.as_secs_f64()
    }
    /// Shuffled-read throughput in MiB/s.
    pub fn scan_mib_per_sec(&self) -> f64 {
        self.total_bytes as f64 / (1024.0 * 1024.0) / self.scan_time.as_secs_f64()
    }
}

fn file_path(cfg: &SmallFileConfig, rank: usize, i: usize) -> String {
    format!("{}/sample.{rank:03}.{i:05}", cfg.work_dir)
}

fn file_payload(rank: usize, i: usize, len: usize) -> Vec<u8> {
    let tag = (rank * 131 + i) as u8;
    (0..len).map(|b| tag ^ (b as u8)).collect()
}

/// Run ingest + shuffled scan + listing. `mount` is called once per
/// rank (see [`crate::run_mdtest`]).
pub fn run_smallfile(
    mount: impl Fn() -> Result<GekkoClient>,
    cfg: &SmallFileConfig,
) -> Result<SmallFileResult> {
    let ranks = Ranks::mount(cfg.processes, mount)?;
    ranks.mkdir(&cfg.work_dir)?;

    // Phase 1: ingest.
    let ingest_time = ranks.phase(
        |_, _| Ok(()),
        |rank, client, ()| {
            for i in 0..cfg.files_per_process {
                let path = file_path(cfg, rank, i);
                let fd = client.open(&path, OpenFlags::WRONLY.with_create().with_exclusive())?;
                client.write(fd, &file_payload(rank, i, cfg.file_size))?;
                client.close(fd)?;
            }
            Ok(())
        },
    )?;

    // Phase 2: shuffled cross-rank scan (every rank reads every file
    // once, in its own random order) — every byte checked, in release
    // builds too.
    let scan_time = ranks.phase(
        |rank, _| {
            let mut order: Vec<(usize, usize)> = (0..cfg.processes)
                .flat_map(|r| (0..cfg.files_per_process).map(move |i| (r, i)))
                .collect();
            gkfs_common::retry::shuffle(&mut order, rank as u64);
            Ok(order)
        },
        |_, client, order| {
            for (r, i) in order {
                let path = file_path(cfg, r, i);
                let h = client.open_handle(&path, OpenFlags::RDONLY)?;
                if h.pread(0, cfg.file_size)? != file_payload(r, i, cfg.file_size) {
                    return Err(GkfsError::Corruption(format!(
                        "{path}: scan read back bytes that were not written"
                    )));
                }
                h.close()?;
            }
            Ok(())
        },
    )?;

    // Phase 3: one `ls -l` over the corpus.
    let t0 = Instant::now();
    let entries = ranks.rank0().readdir(&cfg.work_dir)?;
    let list_time = t0.elapsed();

    let total_files = cfg.processes * cfg.files_per_process;
    Ok(SmallFileResult {
        total_files,
        // Scan reads every file `processes` times.
        total_bytes: (total_files * cfg.file_size * cfg.processes) as u64,
        ingest_time,
        scan_time,
        list_time,
        listed_entries: entries.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gekkofs::{Cluster, ClusterConfig};
    use gkfs_rpc::{Fate, Opcode, Response};
    use std::sync::Arc;

    /// Silent damage in transit: the first byte of a read's payload
    /// arrives inverted.
    fn rot(resp: &mut Response) {
        let mut bulk = resp.bulk.to_vec();
        bulk[0] ^= 0xFF;
        resp.bulk = bulk.into();
    }

    /// The scan phase is the workload's only check that what was
    /// ingested can be read back, so it must hold in the builds the
    /// gates and examples actually run: release, where a
    /// `debug_assert!` compiles to nothing. (`scripts/ci.sh` runs this
    /// test with `--release`.)
    #[test]
    fn scan_fails_the_run_on_a_corrupted_read() {
        let cluster = Cluster::deploy(ClusterConfig::new(2).with_chunk_size(8 * 1024)).unwrap();
        for n in 0..cluster.nodes() {
            let reads = |req: &gkfs_rpc::Request, _| match req.opcode {
                Opcode::ReadChunks => Fate::Rewrite(rot),
                _ => Fate::Pass,
            };
            cluster.link(n).set_rule(Some(Arc::new(reads)));
        }
        let rotten = || cluster.mount();
        let cfg = SmallFileConfig {
            processes: 2,
            files_per_process: 10,
            file_size: 4 * 1024,
            work_dir: "/rot".into(),
        };
        let err = run_smallfile(rotten, &cfg).unwrap_err();
        assert!(matches!(err, GkfsError::Corruption(_)), "{err}");
        cluster.shutdown();
    }

    #[test]
    fn smallfile_pipeline_runs_clean() {
        let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(8 * 1024)).unwrap();
        let cfg = SmallFileConfig {
            processes: 3,
            files_per_process: 40,
            file_size: 4 * 1024,
            work_dir: "/sf".into(),
        };
        let r = run_smallfile(|| cluster.mount(), &cfg).unwrap();
        assert_eq!(r.total_files, 120);
        assert_eq!(r.listed_entries, 120);
        assert!(r.ingest_files_per_sec() > 0.0);
        assert!(r.scan_mib_per_sec() > 0.0);
        // The listing carries correct sizes (ls -l).
        let fs = cluster.mount().unwrap();
        for e in fs.readdir("/sf").unwrap() {
            assert_eq!(e.size, 4 * 1024);
        }
        cluster.shutdown();
    }
}
