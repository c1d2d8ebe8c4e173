//! IOR: bulk data throughput with configurable transfer sizes.
//!
//! Mirrors §IV-B's methodology: each process writes `block_size` bytes
//! in `transfer_size` units, then reads them back, either to its own
//! file (*file-per-process*) or into its rank-offset region of one
//! shared file. Random mode shuffles the transfer order within each
//! process's block, reproducing the paper's random-access experiment
//! (which degrades only for transfers smaller than the chunk size).

use gekkofs::{Cluster, GekkoClient, Result};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// IOR parameters.
#[derive(Debug, Clone)]
pub struct IorConfig {
    /// Concurrent ranks (threads with their own clients); paper: 16
    /// per node.
    pub processes: usize,
    /// Bytes per I/O call (paper: 8 KiB, 64 KiB, 1 MiB, 64 MiB).
    pub transfer_size: u64,
    /// Total bytes each rank writes/reads (paper: 4 GiB).
    pub block_size: u64,
    /// One file per rank vs. one shared file.
    pub file_per_process: bool,
    /// Shuffle transfer order (random access) instead of sequential.
    pub random: bool,
    /// Directory (file-per-process) or file prefix.
    pub work_dir: String,
}

impl Default for IorConfig {
    fn default() -> Self {
        IorConfig {
            processes: 4,
            transfer_size: 64 * 1024,
            block_size: 1024 * 1024,
            file_per_process: true,
            random: false,
            work_dir: "/ior".into(),
        }
    }
}

/// Aggregate throughput of one IOR run.
#[derive(Debug, Clone)]
pub struct IorResult {
    /// Bytes moved per phase across all ranks.
    pub total_bytes: u64,
    /// Wall-clock of the write phase.
    pub write_time: Duration,
    /// Wall-clock of the read phase.
    pub read_time: Duration,
    /// I/O calls per rank per phase.
    pub transfers_per_process: u64,
    /// Total transfers across all ranks (per phase).
    pub total_transfers: u64,
}

impl IorResult {
    /// Aggregate write bandwidth.
    pub fn write_mib_per_sec(&self) -> f64 {
        self.total_bytes as f64 / (1024.0 * 1024.0) / self.write_time.as_secs_f64()
    }
    /// Aggregate read bandwidth.
    pub fn read_mib_per_sec(&self) -> f64 {
        self.total_bytes as f64 / (1024.0 * 1024.0) / self.read_time.as_secs_f64()
    }
    /// Write I/O operations per second (one op = one transfer).
    pub fn write_iops(&self) -> f64 {
        self.total_transfers as f64 / self.write_time.as_secs_f64()
    }
    /// Read I/O operations per second.
    pub fn read_iops(&self) -> f64 {
        self.total_transfers as f64 / self.read_time.as_secs_f64()
    }
}

fn target_path(cfg: &IorConfig, rank: usize) -> String {
    if cfg.file_per_process {
        format!("{}/data.{rank}", cfg.work_dir)
    } else {
        format!("{}/shared", cfg.work_dir)
    }
}

/// Offsets a rank touches, in issue order.
fn offsets_for(cfg: &IorConfig, rank: usize) -> Vec<u64> {
    let transfers = cfg.block_size / cfg.transfer_size;
    let base = if cfg.file_per_process {
        0
    } else {
        rank as u64 * cfg.block_size
    };
    let mut offs: Vec<u64> = (0..transfers)
        .map(|i| base + i * cfg.transfer_size)
        .collect();
    if cfg.random {
        // Deterministic per-rank shuffle so runs are reproducible.
        gkfs_common::retry::shuffle(&mut offs, 0x10e + rank as u64);
    }
    offs
}

/// A rank's transfer buffer: distinguishable per rank for verification.
fn pattern(rank: usize, len: u64) -> Vec<u8> {
    (0..len).map(|i| (i as u8) ^ (rank as u8 | 0x40)).collect()
}

/// Run one IOR write phase + read phase against a cluster.
pub fn run_ior(cluster: &Cluster, cfg: &IorConfig) -> Result<IorResult> {
    run_ior_with(|| cluster.mount(), cfg)
}

/// Like [`run_ior`], with caller-supplied mounting (see
/// [`crate::mdtest::run_mdtest_with`]).
pub fn run_ior_with(
    make_client: impl Fn() -> Result<GekkoClient>,
    cfg: &IorConfig,
) -> Result<IorResult> {
    assert!(
        cfg.block_size.is_multiple_of(cfg.transfer_size),
        "block size must be a multiple of transfer size"
    );
    let clients: Vec<GekkoClient> = (0..cfg.processes)
        .map(|_| make_client())
        .collect::<Result<_>>()?;
    clients[0].mkdir(&cfg.work_dir, 0o755).ok();
    // Create targets up front (untimed, as IOR does in its setup).
    if cfg.file_per_process {
        for (rank, c) in clients.iter().enumerate() {
            c.create(&target_path(cfg, rank), 0o644)?;
        }
    } else {
        clients[0].create(&target_path(cfg, 0), 0o644)?;
    }

    let mut times = [Duration::ZERO; 2];
    for (phase_idx, phase) in ["write", "read"].iter().enumerate() {
        let start_gate = Barrier::new(cfg.processes + 1);
        let end_barrier = Barrier::new(cfg.processes);
        let t = std::thread::scope(|s| -> Result<Duration> {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(rank, client)| {
                    let start_gate = &start_gate;
                    let end_barrier = &end_barrier;
                    let cfg = &cfg;
                    s.spawn(move || -> Result<()> {
                        let path = target_path(cfg, rank);
                        let offsets = offsets_for(cfg, rank);
                        let buf = pattern(rank, cfg.transfer_size);
                        // Open is untimed setup, as in IOR proper; the
                        // handle carries the write-back buffer that
                        // coalesces sub-chunk sequential transfers.
                        let flags = if *phase == "write" {
                            gekkofs::OpenFlags::WRONLY
                        } else {
                            gekkofs::OpenFlags::RDONLY
                        };
                        let h = client.open_handle(&path, flags)?;
                        start_gate.wait();
                        for off in offsets {
                            if *phase == "write" {
                                h.pwrite(off, &buf)?;
                            } else {
                                let data = h.pread(off, cfg.transfer_size as usize)?;
                                debug_assert_eq!(data.len() as u64, cfg.transfer_size);
                            }
                        }
                        h.close()?;
                        client.flush_all()?;
                        end_barrier.wait();
                        Ok(())
                    })
                })
                .collect();
            start_gate.wait();
            let t0 = Instant::now();
            for h in handles {
                h.join().unwrap()?;
            }
            Ok(t0.elapsed())
        })?;
        times[phase_idx] = t;
    }

    let transfers_per_process = cfg.block_size / cfg.transfer_size;
    Ok(IorResult {
        total_bytes: cfg.processes as u64 * cfg.block_size,
        write_time: times[0],
        read_time: times[1],
        transfers_per_process,
        total_transfers: transfers_per_process * cfg.processes as u64,
    })
}

/// Verify the data written by [`run_ior`] (not part of the timed runs).
pub fn verify_ior(cluster: &Cluster, cfg: &IorConfig) -> Result<bool> {
    let client = cluster.mount()?;
    for rank in 0..cfg.processes {
        let path = target_path(cfg, rank);
        let base = if cfg.file_per_process {
            0
        } else {
            rank as u64 * cfg.block_size
        };
        let expect = pattern(rank, cfg.transfer_size);
        let h = client.open_handle(&path, gekkofs::OpenFlags::RDONLY)?;
        for i in 0..(cfg.block_size / cfg.transfer_size) {
            let off = base + i * cfg.transfer_size;
            let data = h.pread(off, cfg.transfer_size as usize)?;
            if data != expect {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gekkofs::ClusterConfig;

    fn small_cluster() -> Cluster {
        Cluster::deploy(ClusterConfig::new(4).with_chunk_size(16 * 1024)).unwrap()
    }

    #[test]
    fn ior_file_per_process_sequential() {
        let cluster = small_cluster();
        let cfg = IorConfig {
            processes: 4,
            transfer_size: 8 * 1024,
            block_size: 128 * 1024,
            file_per_process: true,
            random: false,
            work_dir: "/ior-fpp".into(),
        };
        let r = run_ior(&cluster, &cfg).unwrap();
        assert_eq!(r.total_bytes, 4 * 128 * 1024);
        assert!(r.write_mib_per_sec() > 0.0);
        assert!(r.read_mib_per_sec() > 0.0);
        assert!(verify_ior(&cluster, &cfg).unwrap());
        cluster.shutdown();
    }

    #[test]
    fn ior_shared_file_sequential() {
        let cluster = small_cluster();
        let cfg = IorConfig {
            processes: 4,
            transfer_size: 8 * 1024,
            block_size: 64 * 1024,
            file_per_process: false,
            random: false,
            work_dir: "/ior-shared".into(),
        };
        let _r = run_ior(&cluster, &cfg).unwrap();
        assert!(verify_ior(&cluster, &cfg).unwrap());
        // Shared file ends up exactly processes * block bytes long.
        let fs = cluster.mount().unwrap();
        assert_eq!(fs.stat("/ior-shared/shared").unwrap().size, 4 * 64 * 1024);
        cluster.shutdown();
    }

    #[test]
    fn ior_random_access_produces_same_data() {
        let cluster = small_cluster();
        let cfg = IorConfig {
            processes: 2,
            transfer_size: 4 * 1024,
            block_size: 64 * 1024,
            file_per_process: true,
            random: true,
            work_dir: "/ior-rand".into(),
        };
        run_ior(&cluster, &cfg).unwrap();
        assert!(verify_ior(&cluster, &cfg).unwrap());
        cluster.shutdown();
    }

    #[test]
    fn ior_shared_with_size_cache() {
        // The §IV-B configuration: shared file plus the client size
        // cache. Data must still be correct.
        let cluster = Cluster::deploy(
            ClusterConfig::new(4)
                .with_chunk_size(16 * 1024)
                .with_size_cache(16),
        )
        .unwrap();
        let cfg = IorConfig {
            processes: 4,
            transfer_size: 4 * 1024,
            block_size: 32 * 1024,
            file_per_process: false,
            random: false,
            work_dir: "/ior-cache".into(),
        };
        run_ior(&cluster, &cfg).unwrap();
        assert!(verify_ior(&cluster, &cfg).unwrap());
        let fs = cluster.mount().unwrap();
        assert_eq!(fs.stat("/ior-cache/shared").unwrap().size, 4 * 32 * 1024);
        cluster.shutdown();
    }

    #[test]
    fn offsets_cover_block_exactly() {
        let cfg = IorConfig {
            processes: 2,
            transfer_size: 1024,
            block_size: 16 * 1024,
            file_per_process: false,
            random: true,
            work_dir: "/x".into(),
        };
        for rank in 0..2 {
            let mut offs = offsets_for(&cfg, rank);
            offs.sort();
            let base = rank as u64 * cfg.block_size;
            let expect: Vec<u64> = (0..16).map(|i| base + i * 1024).collect();
            assert_eq!(offs, expect);
        }
    }
}
