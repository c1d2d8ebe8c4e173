//! True multi-process deployment test: spawn real `gkfs-daemon`
//! processes, collect their addresses exactly as a job launcher would,
//! mount over TCP, and run the file system across process boundaries.

use gkfs_common::ClusterConfig;
use gkfs_rpc::proto::{op, CreateReq, PathReq, Rpc};
use gkfs_rpc::{Endpoint, TcpEndpoint};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

struct DaemonProc {
    child: Child,
    addr: String,
}

impl DaemonProc {
    fn spawn(extra: &[&str]) -> DaemonProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gkfs-daemon"))
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn gkfs-daemon");
        let stdout = child.stdout.take().unwrap();
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("daemon printed nothing")
            .expect("read daemon stdout");
        let addr = first
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected banner: {first}"))
            .to_string();
        DaemonProc { child, addr }
    }

    fn stop(mut self) {
        // Closing stdin is the orderly shutdown signal.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

#[test]
fn three_daemon_processes_serve_one_namespace() {
    let daemons: Vec<DaemonProc> = (0..3).map(|_| DaemonProc::spawn(&[])).collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();

    // Mount from this (fourth) process over real sockets.
    let endpoints: Vec<Arc<dyn Endpoint>> = addrs
        .iter()
        .map(|a| TcpEndpoint::connect(a).unwrap() as Arc<dyn Endpoint>)
        .collect();
    let config = ClusterConfig::new(3).with_chunk_size(16 * 1024);
    let fs = gkfs_client::GekkoClient::mount(endpoints, &config).unwrap();

    // Full workout across process boundaries.
    fs.mkdir("/mp", 0o755).unwrap();
    let data: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
    let h = fs
        .open_handle("/mp/blob", gkfs_common::OpenFlags::RDWR.with_create())
        .unwrap();
    h.pwrite(0, &data).unwrap();
    assert_eq!(fs.stat("/mp/blob").unwrap().size, data.len() as u64);
    assert_eq!(h.pread(0, data.len()).unwrap(), data);
    h.close().unwrap();
    // Striping really crossed processes: more than one daemon holds data.
    let stats = fs.cluster_stats().unwrap();
    let holders = stats.iter().filter(|s| s.storage_write_bytes > 0).count();
    assert!(holders >= 2, "expected striping across processes, got {holders}");

    // A second, independent client process-equivalent sees the data.
    let endpoints2: Vec<Arc<dyn Endpoint>> = addrs
        .iter()
        .map(|a| TcpEndpoint::connect(a).unwrap() as Arc<dyn Endpoint>)
        .collect();
    let fs2 = gkfs_client::GekkoClient::mount(endpoints2, &config).unwrap();
    assert_eq!(fs2.readdir("/mp").unwrap().len(), 1);
    fs2.unlink("/mp/blob").unwrap();
    assert!(fs.stat("/mp/blob").is_err());

    for d in daemons {
        d.stop();
    }
}

#[test]
fn daemon_process_persists_disk_state_across_restart() {
    let root = std::env::temp_dir().join(format!("gkfs-mp-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let root_s = root.to_string_lossy().to_string();

    let addr1 = {
        let d = DaemonProc::spawn(&["--root", &root_s, "--wal"]);
        let ep = TcpEndpoint::connect(&d.addr).unwrap();
        let resp = ep
            .call(op::Create::request(&CreateReq {
                path: "/persisted".into(),
                kind: gkfs_common::FileKind::File,
                mode: 0o644,
                exclusive: true,
                now_ns: 77,
            }))
            .unwrap();
        op::Create::reply(resp).unwrap();
        let a = d.addr.clone();
        d.stop();
        a
    };

    // New process, same root: the entry must still be there.
    let d = DaemonProc::spawn(&["--root", &root_s, "--wal"]);
    assert_ne!(d.addr, addr1, "fresh ephemeral port expected");
    let ep = TcpEndpoint::connect(&d.addr).unwrap();
    let resp = ep.call(op::Stat::request(&PathReq::new("/persisted"))).unwrap();
    let meta = op::Stat::reply(resp).unwrap();
    assert_eq!(meta.ctime_ns, 77);
    d.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn daemon_rejects_bad_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_gkfs-daemon"))
        .arg("--bogus")
        .output()
        .unwrap();
    assert!(!out.status.success());

    // And a daemon that cannot bind exits nonzero.
    let mut blocker = Command::new(env!("CARGO_BIN_EXE_gkfs-daemon"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = blocker.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner.strip_prefix("LISTENING ").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gkfs-daemon"))
        .args(["--listen", addr])
        .output()
        .unwrap();
    assert!(!out.status.success(), "bind conflict must fail loudly");
    blocker.stdin.take().map(|mut s| s.write_all(b"").ok());
    drop(blocker.stdin.take());
    let _ = blocker.kill();
    let _ = blocker.wait();
}
