//! End-to-end test of the `gkfs-cli` binary against daemons serving
//! real TCP sockets.

use gekkofs::cluster::TcpCluster;
use gekkofs::{ClientStats, ClusterConfig};
use gkfs_rpc::proto::DaemonStatsResp;
use std::process::Command;

fn cli(hosts: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gkfs-cli"))
        .args(["--hosts", hosts])
        .args(args)
        .output()
        .expect("run gkfs-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_full_session() {
    let cluster = TcpCluster::deploy(ClusterConfig::new(3)).unwrap();
    let hosts = cluster
        .addrs()
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");

    // mkdir + touch + ls
    assert!(cli(&hosts, &["mkdir", "/cli"]).0);
    assert!(cli(&hosts, &["touch", "/cli/empty"]).0);
    let (ok, stdout, _) = cli(&hosts, &["ls", "/cli"]);
    assert!(ok);
    assert!(stdout.contains("empty") && stdout.starts_with('-'), "ls output: {stdout}");

    // put / stat / cat / get round trip through local files.
    let dir = std::env::temp_dir().join(format!("gkfs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let local_in = dir.join("in.bin");
    let local_out = dir.join("out.bin");
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    std::fs::write(&local_in, &payload).unwrap();

    let (ok, stdout, stderr) = cli(
        &hosts,
        &["put", local_in.to_str().unwrap(), "/cli/blob"],
    );
    assert!(ok, "put failed: {stderr}");
    assert!(stdout.contains("100000 bytes"), "{stdout}");

    let (ok, stdout, _) = cli(&hosts, &["stat", "/cli/blob"]);
    assert!(ok);
    assert!(stdout.contains("size=100000"), "stat: {stdout}");

    let (ok, _, stderr) = cli(
        &hosts,
        &["get", "/cli/blob", local_out.to_str().unwrap()],
    );
    assert!(ok, "get failed: {stderr}");
    assert_eq!(std::fs::read(&local_out).unwrap(), payload);

    // write + cat small text.
    assert!(cli(&hosts, &["write", "/cli/note", "hello-gekko"]).0);
    let (ok, stdout, _) = cli(&hosts, &["cat", "/cli/note"]);
    assert!(ok);
    assert_eq!(stdout, "hello-gekko");

    // truncate + df + cleanup.
    assert!(cli(&hosts, &["truncate", "/cli/blob", "5"]).0);
    let (_, stdout, _) = cli(&hosts, &["stat", "/cli/blob"]);
    assert!(stdout.contains("size=5"));
    let (ok, stdout, _) = cli(&hosts, &["df"]);
    assert!(ok);
    // Every counter by name: each node's, then the client's.
    let (nodes, client) = stdout.split_once("client:").expect("a client section");
    let nodes: Vec<&str> = nodes.split("node ").skip(1).collect();
    assert_eq!(nodes.len(), 3, "df lists every node: {stdout}");
    let names = |text: &str| -> Vec<String> {
        text.lines().filter_map(|l| l.split_whitespace().next()).map(String::from).collect()
    };
    for node in &nodes {
        let printed = names(node);
        let fields = DaemonStatsResp::default().fields();
        for name in fields.iter().map(|f| f.0).chain(["dir_scans", "served_inline", "storage_write_ops", "kv_puts"]) {
            assert!(printed.iter().any(|p| p == name), "{name} in: {node}");
        }
    }
    let printed = names(client);
    for (name, _) in ClientStats::default().fields() {
        assert!(printed.iter().any(|p| p == name), "{name} in: {client}");
    }

    assert!(cli(&hosts, &["rm", "/cli/blob"]).0);
    assert!(cli(&hosts, &["rm", "/cli/note"]).0);
    assert!(cli(&hosts, &["rm", "/cli/empty"]).0);
    assert!(cli(&hosts, &["rmdir", "/cli"]).0);

    // Errors propagate as nonzero exit + stderr.
    let (ok, _, stderr) = cli(&hosts, &["stat", "/cli/blob"]);
    assert!(!ok);
    assert!(stderr.contains("no such file"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
    cluster.shutdown();
}

#[test]
fn cli_reads_hosts_file_with_banners() {
    let cluster = TcpCluster::deploy(ClusterConfig::new(2)).unwrap();
    // A hosts file as a launcher would write it: "LISTENING addr" lines.
    let dir = std::env::temp_dir().join(format!("gkfs-cli-hosts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let hosts_file = dir.join("hosts.txt");
    let contents: String = cluster
        .addrs()
        .iter()
        .map(|a| format!("LISTENING {a}\n"))
        .collect();
    std::fs::write(&hosts_file, contents).unwrap();

    assert!(cli(hosts_file.to_str().unwrap(), &["touch", "/via-file"]).0);
    let (ok, stdout, _) = cli(hosts_file.to_str().unwrap(), &["ls", "/"]);
    assert!(ok);
    assert!(stdout.contains("via-file"));

    std::fs::remove_dir_all(&dir).unwrap();
    cluster.shutdown();
}

#[test]
fn cli_fsck() {
    let cluster = TcpCluster::deploy(ClusterConfig::new(2)).unwrap();
    let hosts = cluster
        .addrs()
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    assert!(cli(&hosts, &["write", "/checked", "payload"]).0);
    let (ok, stdout, _) = cli(&hosts, &["fsck"]);
    assert!(ok, "clean namespace: {stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
    assert!(stdout.contains("checked 1 files"), "{stdout}");
    cluster.shutdown();
}

/// `fsck` against disk-backed daemons: an orphan — chunk files whose
/// metadata entry is gone — is found by the daemons' inventory of their
/// chunk directories and purged by the path-only ("whatever you hold")
/// form of `RemoveChunks`, leaving the other file's chunk files alone.
#[test]
fn cli_fsck_finds_and_purges_an_orphan_on_disk() {
    use gekkofs::{Daemon, DaemonConfig};
    use gkfs_rpc::proto::{MetaOp, PathReq};

    let root = std::env::temp_dir().join(format!("gkfs-cli-fsck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let daemons: Vec<_> = (0..2)
        .map(|n| {
            let root_dir = Some(root.join(format!("node-{n}")));
            Daemon::spawn(DaemonConfig { root_dir, ..DaemonConfig::default() }).unwrap()
        })
        .collect();
    let hosts = daemons
        .iter()
        .map(|d| d.serve_tcp("127.0.0.1:0").unwrap().to_string())
        .collect::<Vec<_>>()
        .join(",");
    let chunk_files = || -> usize {
        let shards = (0..2).flat_map(|n| std::fs::read_dir(root.join(format!("node-{n}/data/chunks"))).unwrap());
        shards.map(|shard| std::fs::read_dir(shard.unwrap().path()).unwrap().count()).sum()
    };
    assert!(cli(&hosts, &["write", "/kept", "payload"]).0);
    assert!(cli(&hosts, &["write", "/doomed.0", "payload"]).0);
    assert_eq!(chunk_files(), 2);

    // The metadata entry goes, on whichever daemon owns it; the chunk stays.
    let unlink = || MetaOp::Unlink(PathReq::new("/doomed.0"));
    assert!(daemons.iter().any(|d| d.backends().meta.apply_one(unlink()).is_ok()));
    let (ok, stdout, _) = cli(&hosts, &["fsck"]);
    assert!(!ok && stdout.contains("ORPHAN chunks on node"), "{stdout}");
    assert!(stdout.contains("/doomed.0") && !stdout.contains("/kept"), "{stdout}");
    let (ok, stdout, _) = cli(&hosts, &["fsck", "--purge"]);
    assert!(ok && stdout.contains("purged 1 orphan"), "{stdout}");
    assert_eq!(chunk_files(), 1, "the orphan's chunk file is gone, /kept's is not");
    let (ok, stdout, _) = cli(&hosts, &["fsck"]);
    assert!(ok && stdout.contains("clean"), "{stdout}");
    let (ok, stdout, _) = cli(&hosts, &["cat", "/kept"]);
    assert!(ok && stdout.contains("payload"), "{stdout}");

    daemons.iter().for_each(|d| d.shutdown());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn cli_usage_and_bad_hosts() {
    let out = Command::new(env!("CARGO_BIN_EXE_gkfs-cli")).output().unwrap();
    assert!(!out.status.success());
    let (ok, _, _) = cli("127.0.0.1:1", &["ls", "/"]); // nothing listens there
    assert!(!ok);
}
