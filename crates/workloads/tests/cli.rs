//! End-to-end test of the `gkfs-workload` binary against daemons
//! serving real TCP sockets, named both ways `gekkofs::mount_hosts`
//! accepts: a comma-separated list and a hosts file of `gkfs-daemon`
//! `LISTENING` lines.

use gekkofs::{ClusterConfig, TcpCluster};
use gkfs_workloads::{verify_ior, IorConfig};
use std::process::Command;

fn workload(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gkfs-workload"))
        .args(args)
        .output()
        .expect("run gkfs-workload");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mdtest_and_ior_run_against_a_tcp_deployment() {
    let config = ClusterConfig::new(2).with_chunk_size(64 * 1024);
    let cluster = TcpCluster::deploy(config).unwrap();
    let addrs: Vec<String> = cluster.addrs().iter().map(|a| a.to_string()).collect();
    let list = addrs.join(",");

    // mdtest over the address list.
    let (ok, stdout, stderr) = workload(&[
        "mdtest",
        "--hosts",
        &list,
        "--procs",
        "2",
        "--files",
        "50",
        "--chunk-size",
        "65536",
    ]);
    assert!(ok, "mdtest failed: {stderr}");
    assert!(stdout.contains("files : 100"), "{stdout}");
    assert!(stdout.contains("rpcs  :         3.00 per file"), "{stdout}");
    let fs = cluster.mount().unwrap();
    assert!(
        fs.readdir("/mdtest").unwrap().is_empty(),
        "remove phase ran"
    );

    // IOR over a hosts file, as `gkfs-daemon` prints it.
    let dir = std::env::temp_dir().join(format!("gkfs-workload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let hosts_file = dir.join("hosts.txt");
    let lines: Vec<String> = addrs.iter().map(|a| format!("LISTENING {a}\n")).collect();
    std::fs::write(&hosts_file, lines.concat()).unwrap();
    let (ok, stdout, stderr) = workload(&[
        "ior",
        "--hosts",
        hosts_file.to_str().unwrap(),
        "--procs",
        "2",
        "--xfer",
        "8192",
        "--block",
        "131072",
        "--shared",
        "--chunk-size",
        "65536",
    ]);
    assert!(ok, "ior failed: {stderr}");
    assert!(stdout.contains("shared file, sequential"), "{stdout}");
    assert!(
        stdout.contains("write:") && stdout.contains("read :"),
        "{stdout}"
    );
    // What the tool wrote is what this process reads back.
    let cfg = IorConfig {
        processes: 2,
        transfer_size: 8192,
        block_size: 131072,
        file_per_process: false,
        ..IorConfig::default()
    };
    assert!(verify_ior(&fs, &cfg).unwrap());

    // A generated trace needs no deployment to be printed.
    let (ok, stdout, _) = workload(&[
        "replay",
        "--procs",
        "2",
        "--gen-checkpoint",
        "1",
        "4096",
        "--dump",
    ]);
    assert!(ok);
    assert!(stdout.contains("1 write /ckpt/s0.r1 0 4096"), "{stdout}");

    // No address at all is an error, not a hang; so is a flag of
    // another subcommand.
    assert!(!workload(&["mdtest", "--hosts", ""]).0);
    assert!(!workload(&["mdtest", "--hosts", &list, "--xfer", "8192"]).0);

    std::fs::remove_dir_all(&dir).ok();
    cluster.shutdown();
}
