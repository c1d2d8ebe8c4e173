//! The paper's whole §IV evaluation protocol as one integration test:
//! every workload the paper runs (plus the trace replayer) against one
//! shared namespace, back to back, exactly like a benchmarking
//! campaign on a real deployment — including the between-run cleanup
//! the paper performs ("all SSD contents are removed" between
//! iterations, here: the namespace must return to empty).

use gekkofs::{Cluster, ClusterConfig};
use gkfs_workloads::{
    checkpoint_trace, replay_trace, run_ior, run_mdtest, run_smallfile, verify_ior, IorConfig,
    MdtestConfig, SmallFileConfig,
};

#[test]
fn full_evaluation_protocol() {
    let cluster = Cluster::deploy(
        ClusterConfig::new(4).with_chunk_size(64 * 1024),
    )
    .unwrap();

    // --- §IV-A: mdtest, single dir ---------------------------------
    let md = run_mdtest(
        || cluster.mount(),
        &MdtestConfig {
            processes: 4,
            files_per_process: 400,
            ..MdtestConfig::default()
        },
    )
    .unwrap();
    assert!(md.creates_per_sec() > 1_000.0, "sanity: {:.0}", md.creates_per_sec());

    // --- §IV-B: IOR, file-per-process sequential + random ----------
    for random in [false, true] {
        let cfg = IorConfig {
            processes: 4,
            transfer_size: 8 * 1024,
            block_size: 512 * 1024,
            file_per_process: true,
            random,
            work_dir: format!("/ior-{random}"),
        };
        let ior = run_ior(|| cluster.mount(), &cfg).unwrap();
        assert!(ior.write_mib_per_sec() > 0.0);
        assert!(ior.read_mib_per_sec() > 0.0);
        assert!(verify_ior(&cluster.mount().unwrap(), &cfg).unwrap());
    }

    // --- §IV-B: shared file ----------------------------------------
    let shared = run_ior(
        || cluster.mount(),
        &IorConfig {
            processes: 4,
            transfer_size: 8 * 1024,
            block_size: 256 * 1024,
            file_per_process: false,
            random: false,
            work_dir: "/ior-shared".into(),
        },
    )
    .unwrap();
    assert!(shared.write_iops() > 0.0);

    // --- §I: small-file data-science ingest -------------------------
    let sf = run_smallfile(
        || cluster.mount(),
        &SmallFileConfig {
            processes: 3,
            files_per_process: 50,
            file_size: 8 * 1024,
            work_dir: "/corpus".into(),
        },
    )
    .unwrap();
    assert_eq!(sf.listed_entries, 150);

    // --- checkpoint/restart trace replay -----------------------------
    let trace = checkpoint_trace(4, 3, 64 * 1024);
    let rep = replay_trace(|| cluster.mount(), 4, &trace).unwrap();
    assert_eq!(rep.bytes_written, 4 * 3 * 64 * 1024);

    // --- campaign hygiene: fsck is clean, then full cleanup ----------
    let fs = cluster.mount().unwrap();
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert!(
        report.files_checked > 150,
        "all workloads' files visible: {}",
        report.files_checked
    );

    // Remove everything; the namespace must return to just "/".
    fn purge(fs: &gekkofs::GekkoClient, dir: &str) {
        for e in fs.readdir(dir).unwrap() {
            let p = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{dir}/{}", e.name)
            };
            match e.kind {
                gekkofs::FileKind::Directory => {
                    purge(fs, &p);
                    fs.rmdir(&p).unwrap();
                }
                gekkofs::FileKind::File => fs.unlink(&p).unwrap(),
            }
        }
    }
    purge(&fs, "/");
    assert!(fs.readdir("/").unwrap().is_empty());
    let stats = fs.cluster_stats().unwrap();
    let total: u64 = stats.iter().map(|s| s.meta_entries).sum();
    assert_eq!(total, 1, "only the root object survives the campaign");
    cluster.shutdown();
}
