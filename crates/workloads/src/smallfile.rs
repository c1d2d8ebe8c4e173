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

use gekkofs::{Cluster, GekkoClient, OpenFlags, Result};
use std::sync::Barrier;
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

/// Run ingest + shuffled scan + listing.
pub fn run_smallfile(cluster: &Cluster, cfg: &SmallFileConfig) -> Result<SmallFileResult> {
    let clients: Vec<GekkoClient> = (0..cfg.processes)
        .map(|_| cluster.mount())
        .collect::<Result<_>>()?;
    clients[0].mkdir(&cfg.work_dir, 0o755).ok();

    // Phase 1: ingest.
    let gate = Barrier::new(cfg.processes + 1);
    let ingest_time = std::thread::scope(|s| -> Result<Duration> {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(rank, client)| {
                let gate = &gate;
                s.spawn(move || -> Result<()> {
                    gate.wait();
                    for i in 0..cfg.files_per_process {
                        let path = file_path(cfg, rank, i);
                        let fd = client
                            .open(&path, OpenFlags::WRONLY.with_create().with_exclusive())?;
                        client.write(fd, &file_payload(rank, i, cfg.file_size))?;
                        client.close(fd)?;
                    }
                    Ok(())
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().unwrap()?;
        }
        Ok(t0.elapsed())
    })?;

    // Phase 2: shuffled cross-rank scan (every rank reads every file
    // once, in its own random order).
    let gate = Barrier::new(cfg.processes + 1);
    let scan_time = std::thread::scope(|s| -> Result<Duration> {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(rank, client)| {
                let gate = &gate;
                s.spawn(move || -> Result<()> {
                    let mut order: Vec<(usize, usize)> = (0..cfg.processes)
                        .flat_map(|r| (0..cfg.files_per_process).map(move |i| (r, i)))
                        .collect();
                    gkfs_common::retry::shuffle(&mut order, rank as u64);
                    gate.wait();
                    for (r, i) in order {
                        let path = file_path(cfg, r, i);
                        let h = client.open_handle(&path, OpenFlags::RDONLY)?;
                        let data = h.pread(0, cfg.file_size)?;
                        debug_assert_eq!(data, file_payload(r, i, cfg.file_size));
                        h.close()?;
                    }
                    Ok(())
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().unwrap()?;
        }
        Ok(t0.elapsed())
    })?;

    // Phase 3: one `ls -l` over the corpus.
    let t0 = Instant::now();
    let entries = clients[0].readdir(&cfg.work_dir)?;
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
    use gekkofs::ClusterConfig;

    #[test]
    fn smallfile_pipeline_runs_clean() {
        let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(8 * 1024)).unwrap();
        let cfg = SmallFileConfig {
            processes: 3,
            files_per_process: 40,
            file_size: 4 * 1024,
            work_dir: "/sf".into(),
        };
        let r = run_smallfile(&cluster, &cfg).unwrap();
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

    #[test]
    fn smallfile_benefits_from_stat_cache() {
        // The scan phase stats every file before reading; with the §V
        // stat cache a re-scan of the same corpus saves round trips.
        let cluster = Cluster::deploy(
            ClusterConfig::new(2)
                .with_chunk_size(8 * 1024)
                .with_stat_cache_ttl_ms(60_000),
        )
        .unwrap();
        let cfg = SmallFileConfig {
            processes: 2,
            files_per_process: 30,
            file_size: 2 * 1024,
            work_dir: "/sfc".into(),
        };
        run_smallfile(&cluster, &cfg).unwrap();
        cluster.shutdown();
    }
}
