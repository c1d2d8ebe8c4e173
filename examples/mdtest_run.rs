//! The paper's §IV-A metadata experiment at laptop scale: run the
//! mdtest workload (parallel create/stat/remove in a single directory)
//! against a real in-process cluster and print ops/s.
//!
//! ```sh
//! cargo run --release -p gkfs-examples --bin mdtest_run [nodes] [procs] [files]
//! ```

use gekkofs::{Cluster, ClusterConfig};
use gkfs_workloads::{run_mdtest, MdtestConfig};

fn main() -> gekkofs::Result<()> {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let procs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let files: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2_000);

    println!("mdtest: {nodes} nodes, {procs} ranks, {files} files/rank, single dir");
    let cluster = Cluster::deploy(ClusterConfig::new(nodes))?;

    let cfg = MdtestConfig {
        processes: procs,
        files_per_process: files,
        ..MdtestConfig::default()
    };
    let r = run_mdtest(|| cluster.mount(), &cfg)?;
    println!("  total files : {}", r.total_files);
    println!(
        "  create      : {:>10.0} ops/s  ({:?})",
        r.creates_per_sec(),
        r.create_time
    );
    println!(
        "  stat        : {:>10.0} ops/s  ({:?})",
        r.stats_per_sec(),
        r.stat_time
    );
    println!(
        "  remove      : {:>10.0} ops/s  ({:?})",
        r.removes_per_sec(),
        r.remove_time
    );

    // The same run with unique directories: for GekkoFS' flat
    // namespace this is conceptually identical (paper §IV-A), and the
    // numbers confirm it.
    let cfg_unique = MdtestConfig {
        unique_dir: true,
        work_dir: "/mdtest-unique".into(),
        ..cfg
    };
    let r = run_mdtest(|| cluster.mount(), &cfg_unique)?;
    println!("unique-dir create: {:>10.0} ops/s (flat namespace: ~same)", r.creates_per_sec());

    cluster.shutdown();
    Ok(())
}
