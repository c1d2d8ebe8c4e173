//! IOR: bulk data throughput with configurable transfer sizes.
//!
//! Mirrors §IV-B's methodology: each process writes `block_size` bytes
//! in `transfer_size` units, then reads them back, either to its own
//! file (*file-per-process*) or into its rank-offset region of one
//! shared file. Random mode shuffles the transfer order within each
//! process's block, reproducing the paper's random-access experiment
//! (which degrades only for transfers smaller than the chunk size).

use crate::Ranks;
use gekkofs::{GekkoClient, GkfsError, OpenFlags, Result};
use std::time::Duration;

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

/// Run one IOR write phase + read phase. `mount` is called once per
/// rank (see [`crate::run_mdtest`]).
pub fn run_ior(mount: impl Fn() -> Result<GekkoClient>, cfg: &IorConfig) -> Result<IorResult> {
    assert!(
        cfg.block_size.is_multiple_of(cfg.transfer_size),
        "block size must be a multiple of transfer size"
    );
    let ranks = Ranks::mount(cfg.processes, mount)?;
    ranks.mkdir(&cfg.work_dir)?;
    // Create targets up front (untimed, as IOR does in its setup).
    let targets = if cfg.file_per_process { cfg.processes } else { 1 };
    for rank in 0..targets {
        ranks.rank0().create(&target_path(cfg, rank), 0o644)?;
    }

    let xfer = cfg.transfer_size as usize;
    let mut times = [Duration::ZERO; 2];
    for (time, write) in times.iter_mut().zip([true, false]) {
        *time = ranks.phase(
            // Open is untimed setup, as in IOR proper; the handle
            // carries the write-back buffer that coalesces sub-chunk
            // sequential transfers.
            |rank, client| {
                let flags = if write { OpenFlags::WRONLY } else { OpenFlags::RDONLY };
                let h = client.open_handle(&target_path(cfg, rank), flags)?;
                Ok((h, offsets_for(cfg, rank), pattern(rank, cfg.transfer_size)))
            },
            |_, client, (h, offsets, buf)| {
                for off in offsets {
                    if write {
                        h.pwrite(off, &buf)?;
                    } else if h.pread(off, xfer)?.len() != xfer {
                        return Err(GkfsError::Corruption(format!(
                            "{}: short read at offset {off}",
                            h.path()
                        )));
                    }
                }
                h.close()?;
                client.flush_all()
            },
        )?;
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
pub fn verify_ior(client: &GekkoClient, cfg: &IorConfig) -> Result<bool> {
    for rank in 0..cfg.processes {
        let path = target_path(cfg, rank);
        let base = if cfg.file_per_process {
            0
        } else {
            rank as u64 * cfg.block_size
        };
        let expect = pattern(rank, cfg.transfer_size);
        let h = client.open_handle(&path, OpenFlags::RDONLY)?;
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
    use gekkofs::{Cluster, ClusterConfig};

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
        let r = run_ior(|| cluster.mount(), &cfg).unwrap();
        assert_eq!(r.total_bytes, 4 * 128 * 1024);
        assert!(r.write_mib_per_sec() > 0.0);
        assert!(r.read_mib_per_sec() > 0.0);
        assert!(verify_ior(&cluster.mount().unwrap(), &cfg).unwrap());
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
        let _r = run_ior(|| cluster.mount(), &cfg).unwrap();
        assert!(verify_ior(&cluster.mount().unwrap(), &cfg).unwrap());
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
        run_ior(|| cluster.mount(), &cfg).unwrap();
        assert!(verify_ior(&cluster.mount().unwrap(), &cfg).unwrap());
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
        run_ior(|| cluster.mount(), &cfg).unwrap();
        assert!(verify_ior(&cluster.mount().unwrap(), &cfg).unwrap());
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
