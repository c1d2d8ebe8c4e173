//! `gkfs-daemon` — the per-node GekkoFS server process.
//!
//! A real deployment starts one of these on every node of a job (the
//! paper: "deployed in under 20 seconds on a 512 node cluster by any
//! user" — i.e. plain user-space processes, no root, no kernel
//! modules):
//!
//! ```sh
//! gkfs-daemon --listen 0.0.0.0:9820 --root /local/ssd/gkfs &
//! ```
//!
//! The daemon prints `LISTENING <addr>` once ready (launchers collect
//! these lines into the hosts file clients mount from) and serves
//! until stdin closes or the process is terminated — tying its
//! lifetime to the launching job script, which is exactly the
//! "temporary file system" lifecycle of §III.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use gkfs_common::{ClusterConfig, DaemonConfig};
use gkfs_daemon::Daemon;
use gkfs_rpc::{Endpoint, EndpointOptions, TcpEndpoint};
use std::io::Read;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: gkfs-daemon [--listen ADDR] [--root DIR] [--handlers N] \
         [--chunk-size BYTES] [--wal] [--id N --peers LIST|FILE [--replicas N]]\n\
         \n\
         --listen ADDR       TCP listen address (default 127.0.0.1:0)\n\
         --root DIR          node-local storage directory (default: in-memory)\n\
         --handlers N        RPC handler threads (default 4)\n\
         --chunk-size BYTES  chunk size, power of two (default 524288)\n\
         --wal               enable the metadata write-ahead log\n\
         --no-stdin          don't watch stdin; serve until killed\n\
         --id N              this daemon's index in the peer list\n\
         --peers LIST|FILE   every daemon's address (comma list, or a\n\
                             hosts file of LISTENING lines); turns on\n\
                             heartbeat probing and recovery\n\
         --replicas N        copies per chunk/metadata entry (default 1)"
    );
    std::process::exit(2);
}

/// Dial one peer, retrying briefly while the cluster is still
/// launching (the daemons of a job start concurrently, so a peer's
/// listener may come up seconds after ours — waiting here lets the
/// deploy-time epoch exchange see everyone). A peer that still isn't
/// up gets a lazy endpoint: the heartbeat worker reaches it through
/// the reconnect machinery once it arrives.
fn dial_peer(addr: &str) -> Option<Arc<dyn Endpoint>> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match TcpEndpoint::connect(addr) {
            Ok(e) => return Some(e as Arc<dyn Endpoint>),
            Err(_) if std::time::Instant::now() >= deadline => {
                let lazy = TcpEndpoint::connect_lazy(addr, EndpointOptions::default());
                return Some(lazy as Arc<dyn Endpoint>);
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(250)),
        }
    }
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut config = DaemonConfig::default();
    let mut watch_stdin = true;
    let mut self_id: Option<usize> = None;
    let mut peers_spec: Option<String> = None;
    let mut replicas = 1usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().unwrap_or_else(|| usage()),
            "--id" => {
                self_id = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--peers" => peers_spec = Some(args.next().unwrap_or_else(|| usage())),
            "--replicas" => {
                replicas = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--root" => {
                config.root_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--handlers" => {
                config.handler_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--chunk-size" => {
                config.chunk_size = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--wal" => config.kv_wal = true,
            "--no-stdin" => watch_stdin = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let chunk_size = config.chunk_size;
    let daemon = match Daemon::spawn(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gkfs-daemon: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let addr = match daemon.serve_tcp(&listen) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gkfs-daemon: failed to listen on {listen}: {e}");
            std::process::exit(1);
        }
    };
    // The launcher scrapes this line into the hosts file.
    println!("LISTENING {addr}");
    // Flush eagerly: launchers read the line through a pipe.
    use std::io::Write;
    std::io::stdout().flush().ok();

    // Cluster membership: with a peer list this daemon probes its
    // peers, answers heartbeats with its incarnation epoch, and runs
    // repair/drain-back recovery — the daemon side of `--replicas`.
    // The client must mount with the same node order and replica
    // count, so placement agrees across the system.
    if let Some(spec) = peers_spec {
        let addrs = match gkfs_common::config::parse_hosts(&spec) {
            Ok(addrs) => addrs,
            Err(e) => {
                eprintln!("gkfs-daemon: --peers {spec}: {e}");
                std::process::exit(2);
            }
        };
        let id = match self_id {
            Some(id) if id < addrs.len() => id,
            _ => {
                eprintln!("gkfs-daemon: --peers requires --id N with N < the peer count");
                std::process::exit(2);
            }
        };
        let peers: Vec<Option<Arc<dyn Endpoint>>> = addrs
            .iter()
            .enumerate()
            .map(|(j, a)| if j == id { None } else { dial_peer(a) })
            .collect();
        let cluster = ClusterConfig::new(addrs.len())
            .with_chunk_size(chunk_size)
            .with_replicas(replicas);
        daemon.join_cluster(id, peers, &cluster);
        // Epoch exchange (see `Cluster::deploy_with`): learn every
        // peer's incarnation now so later restarts are detectable.
        if let Some(m) = daemon.replication() {
            m.prime();
        }
    } else if replicas > 1 {
        eprintln!("gkfs-daemon: --replicas without --peers has no daemon-side effect; ignoring");
    }

    if watch_stdin {
        // Serve until the controlling job closes our stdin (or kills
        // us). Launchers that cannot keep a pipe open use --no-stdin.
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break, // EOF: job script ended
                Ok(_) => {}              // ignore chatter
            }
        }
        daemon.shutdown();
    } else {
        // Serve until killed.
        loop {
            std::thread::park();
        }
    }
}
