//! The paper's §IV-B data experiment at laptop scale: IOR-style bulk
//! I/O across transfer sizes, file-per-process vs shared file, with
//! and without the client size-update cache.
//!
//! ```sh
//! cargo run --release -p gkfs-examples --bin ior_run
//! ```

use gekkofs::{Cluster, ClusterConfig};
use gkfs_workloads::{run_ior, IorConfig};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

fn main() -> gekkofs::Result<()> {
    let cluster = Cluster::deploy(ClusterConfig::new(4))?;

    println!("== file-per-process, sequential (Fig. 3 shape) ==");
    println!("{:>8} {:>14} {:>14}", "xfer", "write MiB/s", "read MiB/s");
    for (xfer, label) in [(8 * KIB, "8k"), (64 * KIB, "64k"), (MIB, "1m")] {
        let cfg = IorConfig {
            processes: 8,
            transfer_size: xfer,
            block_size: 16 * MIB,
            file_per_process: true,
            random: false,
            work_dir: format!("/ior-{label}"),
        };
        let r = run_ior(|| cluster.mount(), &cfg)?;
        println!(
            "{:>8} {:>14.0} {:>14.0}",
            label,
            r.write_mib_per_sec(),
            r.read_mib_per_sec()
        );
    }

    println!("\n== random vs sequential (8 KiB, §IV-B) ==");
    for random in [false, true] {
        let cfg = IorConfig {
            processes: 8,
            transfer_size: 8 * KIB,
            block_size: 8 * MIB,
            file_per_process: true,
            random,
            work_dir: format!("/ior-r{random}"),
        };
        let r = run_ior(|| cluster.mount(), &cfg)?;
        println!(
            "  {}: write {:>8.0} MiB/s, read {:>8.0} MiB/s",
            if random { "random    " } else { "sequential" },
            r.write_mib_per_sec(),
            r.read_mib_per_sec()
        );
    }
    cluster.shutdown();

    println!("\n== shared file, without and with the size-update cache (§IV-B) ==");
    for window in [0usize, 32] {
        let cluster = Cluster::deploy(ClusterConfig::new(4).with_size_cache(window))?;
        let cfg = IorConfig {
            processes: 8,
            transfer_size: 8 * KIB,
            block_size: 4 * MIB,
            file_per_process: false,
            random: false,
            work_dir: "/ior-shared".into(),
        };
        let r = run_ior(|| cluster.mount(), &cfg)?;
        println!(
            "  cache window {window:>3}: {:>9.0} write ops/s ({:>7.0} MiB/s)",
            r.write_iops(),
            r.write_mib_per_sec()
        );
        cluster.shutdown();
    }
    Ok(())
}
