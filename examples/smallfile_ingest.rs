//! The data-driven-science scenario from the paper's introduction:
//! ingest a corpus of many small files, then run shuffled
//! training-style epochs over it — the access pattern that motivates
//! GekkoFS in the first place ("large numbers of metadata operations
//! ... and small I/O requests", §I).
//!
//! ```sh
//! cargo run --release -p gkfs-examples --bin smallfile_ingest
//! ```

use gekkofs::{Cluster, ClusterConfig};
use gkfs_workloads::{run_smallfile, SmallFileConfig};

fn main() -> gekkofs::Result<()> {
    // The paper's defaults: a synchronous, cache-less client.
    let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(64 * 1024))?;
    let cfg = SmallFileConfig {
        processes: 6,
        files_per_process: 300,
        file_size: 16 * 1024,
        work_dir: "/corpus".into(),
    };
    let r = run_smallfile(|| cluster.mount(), &cfg)?;
    println!(
        "ingest: {} files ({} KiB each) at {:.0} files/s",
        r.total_files,
        cfg.file_size / 1024,
        r.ingest_files_per_sec()
    );
    println!(
        "scan:   {} cross-rank shuffled reads at {:.0} MiB/s",
        r.total_files * cfg.processes,
        r.scan_mib_per_sec()
    );
    println!(
        "ls -l:  {} entries in {:?} (one broadcast prefix scan)",
        r.listed_entries, r.list_time
    );
    cluster.shutdown();
    Ok(())
}
