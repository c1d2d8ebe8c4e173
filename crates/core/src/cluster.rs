//! Cluster deployment — "deployed in under 20 seconds on a 512 node
//! cluster by any user" (paper §I).
//!
//! Two deployment modes:
//!
//! * [`Cluster`] — N daemons in this process, clients connected through
//!   the zero-copy in-process transport. This is the configuration the
//!   test suite, benchmarks, and examples use: it runs the exact same
//!   daemon/client code as a multi-machine deployment, minus sockets.
//! * [`TcpCluster`] — N daemons serving real TCP sockets, clients
//!   connected through `TcpEndpoint`s. One per-machine process in a
//!   real deployment would run one daemon; here they may share a
//!   process for testing while still exercising the full wire path.

use gkfs_client::GekkoClient;
use gkfs_common::{ClusterConfig, DaemonConfig, Result};
use gkfs_daemon::Daemon;
use gkfs_rpc::{Endpoint, EndpointOptions, Link, TcpEndpoint};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An in-process GekkoFS deployment.
pub struct Cluster {
    daemons: Vec<Arc<Daemon>>,
    /// One [`Link`] per node between every holder (clients *and* peer
    /// daemons) and the node's current process: [`Cluster::rejoin`]
    /// re-points the whole system at a restarted daemon with one swap,
    /// and a test scripts a misbehaving node with a rule on it.
    links: Vec<Arc<Link>>,
    /// Per-node daemon configuration, kept for respawning on rejoin.
    daemon_configs: Vec<DaemonConfig>,
    config: ClusterConfig,
    deploy_time: Duration,
}

impl Cluster {
    /// Start one daemon per node with in-memory backends.
    pub fn deploy(config: ClusterConfig) -> Result<Cluster> {
        Self::deploy_with(config, |_node| DaemonConfig::default())
    }

    /// Start one daemon per node, with per-node daemon configuration
    /// (e.g. disk-backed roots).
    pub fn deploy_with(
        config: ClusterConfig,
        mut daemon_config: impl FnMut(usize) -> DaemonConfig,
    ) -> Result<Cluster> {
        let start = Instant::now();
        let daemon_configs: Vec<DaemonConfig> = (0..config.nodes)
            .map(|n| {
                let mut dc = daemon_config(n);
                dc.chunk_size = config.chunk_size;
                dc
            })
            .collect();
        let daemons: Result<Vec<Arc<Daemon>>> = daemon_configs
            .iter()
            .map(|dc| Daemon::spawn(dc.clone()))
            .collect();
        let daemons = daemons?;
        // Deployment handshake: every daemon answers a ping before the
        // cluster is considered up (what the paper's startup scripts
        // do across nodes).
        for d in &daemons {
            let ep = d.endpoint();
            ep.call(gkfs_rpc::Request::new(gkfs_rpc::Opcode::Ping, bytes::Bytes::new()))?
                .into_result()?;
        }
        let links: Vec<Arc<Link>> = daemons.iter().map(|d| Link::new(d.endpoint())).collect();
        if config.replication.enabled() {
            for (i, d) in daemons.iter().enumerate() {
                d.join_cluster(i, Self::peer_endpoints(&links, i), &config);
            }
            // Epoch exchange: each manager's worker starts probing the
            // moment it joins, so the early probes of daemons joined
            // first can land before later daemons have an epoch to
            // report. One synchronous round after everyone has joined
            // guarantees every detector knows every peer's first
            // incarnation — the baseline restart detection diffs
            // against. Without it, a kill + rejoin faster than one
            // heartbeat interval is invisible to such an observer and
            // its share of the drain-back never happens.
            for d in &daemons {
                if let Some(m) = d.replication() {
                    m.prime();
                }
            }
        }
        let deploy_time = start.elapsed();
        Ok(Cluster {
            daemons,
            links,
            daemon_configs,
            config,
            deploy_time,
        })
    }

    /// The peer-endpoint table daemon `self_id` joins with: every
    /// node's link, `None` at its own slot.
    fn peer_endpoints(links: &[Arc<Link>], self_id: usize) -> Vec<Option<Arc<dyn Endpoint>>> {
        links
            .iter()
            .enumerate()
            .map(|(j, link)| (j != self_id).then(|| link.clone() as Arc<dyn Endpoint>))
            .collect()
    }

    /// Start one daemon per node with state persisted under
    /// `root/<node-id>/` (the node-local SSD directory in the paper).
    pub fn deploy_on_disk(config: ClusterConfig, root: impl Into<PathBuf>) -> Result<Cluster> {
        let root = root.into();
        Self::deploy_with(config, move |n| DaemonConfig {
            root_dir: Some(root.join(format!("node-{n}"))),
            ..DaemonConfig::default()
        })
    }

    /// How long daemon startup + handshake took.
    pub fn deploy_time(&self) -> Duration {
        self.deploy_time
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.daemons.len()
    }

    /// The shared cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Mount the namespace: returns a client (one per application
    /// process in a real deployment; tests mount several to model
    /// multiple ranks).
    pub fn mount(&self) -> Result<GekkoClient> {
        // Clients hold the links, so a rejoined daemon becomes
        // reachable without a remount.
        let endpoints = self.links.iter().map(|link| link.clone() as Arc<dyn Endpoint>).collect();
        GekkoClient::mount(endpoints, &self.config)
    }

    /// Access a daemon directly (tests, stats).
    pub fn daemon(&self, node: usize) -> &Arc<Daemon> {
        &self.daemons[node]
    }

    /// The link every holder reaches daemon `node` through: a rule set
    /// on it scripts what every mount and peer sees of the node.
    pub fn link(&self, node: usize) -> &Arc<Link> {
        &self.links[node]
    }

    /// Kill daemon `node` in place: an orderly process death. Its
    /// link keeps pointing at the dead endpoint, so every holder
    /// fails fast ([`gkfs_common::GkfsError::ShuttingDown`]) until
    /// [`Cluster::rejoin`] swaps in a replacement — exactly what a
    /// crashed remote daemon looks like to the rest of the system.
    pub fn kill(&self, node: usize) {
        self.daemons[node].shutdown();
    }

    /// Restart daemon `node` from its original configuration and splice
    /// it back into the cluster: swap every holder's link to the new
    /// process and, with replication, start its replication manager
    /// (fresh epoch — peers see the restart and drain data back).
    /// In-memory daemons come back *empty*, like the paper's ephemeral
    /// node-local burst buffers; disk-backed daemons reopen their state.
    pub fn rejoin(&mut self, node: usize) -> Result<()> {
        let d = Daemon::spawn(self.daemon_configs[node].clone())?;
        d.endpoint()
            .call(gkfs_rpc::Request::new(gkfs_rpc::Opcode::Ping, bytes::Bytes::new()))?
            .into_result()?;
        if self.config.replication.enabled() {
            // Join BEFORE swapping the link: once peers can reach the
            // new daemon its heartbeat replies must already carry the
            // new epoch. A probe landing in the gap would see epoch 0
            // ("not fully up"), which the detector tolerates (it never
            // overwrites a remembered incarnation) — but closing the
            // window keeps the restart visible on the first probe.
            d.join_cluster(node, Self::peer_endpoints(&self.links, node), &self.config);
        }
        self.links[node].swap(d.endpoint());
        // Same epoch exchange as deployment: the newcomer learns its
        // peers' incarnations immediately instead of waiting a worker
        // cycle.
        if let Some(m) = d.replication() {
            m.prime();
        }
        self.daemons[node] = d;
        Ok(())
    }

    /// Orderly shutdown of every daemon.
    pub fn shutdown(&self) {
        for d in &self.daemons {
            d.shutdown();
        }
    }
}

/// A GekkoFS deployment served over real TCP sockets.
pub struct TcpCluster {
    daemons: Vec<Arc<Daemon>>,
    addrs: Vec<std::net::SocketAddr>,
    config: ClusterConfig,
}

impl TcpCluster {
    /// Start one daemon per node, each bound to a loopback port.
    pub fn deploy(config: ClusterConfig) -> Result<TcpCluster> {
        let mut daemons = Vec::with_capacity(config.nodes);
        let mut addrs = Vec::with_capacity(config.nodes);
        for _ in 0..config.nodes {
            let dc = DaemonConfig {
                chunk_size: config.chunk_size,
                ..DaemonConfig::default()
            };
            let d = Daemon::spawn(dc)?;
            addrs.push(d.serve_tcp("127.0.0.1:0")?);
            daemons.push(d);
        }
        // With replication, peer daemons reach each other over the
        // same TCP sockets the clients use.
        if config.replication.enabled() {
            for (i, d) in daemons.iter().enumerate() {
                let peers: Result<Vec<Option<Arc<dyn Endpoint>>>> = addrs
                    .iter()
                    .enumerate()
                    .map(|(j, a)| {
                        if j == i {
                            Ok(None)
                        } else {
                            TcpEndpoint::connect(&a.to_string())
                                .map(|e| Some(e as Arc<dyn Endpoint>))
                        }
                    })
                    .collect();
                d.join_cluster(i, peers?, &config);
            }
            // Epoch exchange after the whole cluster joined — see
            // `Cluster::deploy_with`.
            for d in &daemons {
                if let Some(m) = d.replication() {
                    m.prime();
                }
            }
        }
        Ok(TcpCluster {
            daemons,
            addrs,
            config,
        })
    }

    /// Daemon addresses (the "hosts file" a real deployment shares).
    pub fn addrs(&self) -> &[std::net::SocketAddr] {
        &self.addrs
    }

    /// Mount over TCP — also usable from a different process given
    /// [`TcpCluster::addrs`].
    pub fn mount(&self) -> Result<GekkoClient> {
        Self::mount_remote(&self.addrs, &self.config)
    }

    /// Mount a namespace from daemon addresses alone.
    pub fn mount_remote(
        addrs: &[std::net::SocketAddr],
        config: &ClusterConfig,
    ) -> Result<GekkoClient> {
        let addrs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        GekkoClient::mount(dial(&addrs, false)?, config)
    }

    /// Shutdown.
    pub fn shutdown(&self) {
        for d in &self.daemons {
            d.shutdown();
        }
    }
}

/// One endpoint per daemon address; `lazy` defers each dial to first
/// use instead of failing on a daemon that is down right now.
fn dial(addrs: &[String], lazy: bool) -> Result<Vec<Arc<dyn Endpoint>>> {
    addrs
        .iter()
        .map(|a| {
            if lazy {
                let lazy = TcpEndpoint::connect_lazy(a, EndpointOptions::default());
                Ok(lazy as Arc<dyn Endpoint>)
            } else {
                TcpEndpoint::connect(a).map(|e| e as Arc<dyn Endpoint>)
            }
        })
        .collect()
}

/// Mount a live TCP deployment named the way every command-line tool
/// names it ([`gkfs_common::config::parse_hosts`]: a comma-separated
/// address list, or a file of `gkfs-daemon`'s `LISTENING <addr>`
/// lines). `configure` receives a [`ClusterConfig`] sized to the
/// address count and adds what all clients of the deployment must
/// agree on (chunk size, replication, caches).
pub fn mount_hosts(
    hosts: &str,
    configure: impl FnOnce(ClusterConfig) -> ClusterConfig,
) -> Result<GekkoClient> {
    let addrs = gkfs_common::config::parse_hosts(hosts)?;
    let config = configure(ClusterConfig::new(addrs.len()));
    // Replicated mounts tolerate a daemon that is down right now —
    // reads fail over and writes divert, which is the point of
    // replication — so dial lazily and let the per-RPC reconnect
    // machinery reach the node when it returns. Unreplicated mounts
    // keep the eager dial: every node is irreplaceable, fail fast.
    GekkoClient::mount(dial(&addrs, config.replication.enabled())?, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_common::OpenFlags;

    #[test]
    fn deploy_mount_use_shutdown() {
        let cluster = Cluster::deploy(ClusterConfig::new(4)).unwrap();
        assert_eq!(cluster.nodes(), 4);
        let fs = cluster.mount().unwrap();
        let fd = fs.open("/hello", OpenFlags::RDWR.with_create()).unwrap();
        fs.write(fd, b"cluster").unwrap();
        fs.close(fd).unwrap();
        let h = fs.open_handle("/hello", OpenFlags::RDONLY).unwrap();
        assert_eq!(h.pread(0, 10).unwrap(), b"cluster");
        drop(h);
        cluster.shutdown();
        assert!(fs.stat("/hello").is_err(), "daemons refuse after shutdown");
    }

    #[test]
    fn multiple_clients_share_the_namespace() {
        let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
        let a = cluster.mount().unwrap();
        let b = cluster.mount().unwrap();
        let ha = a.open_handle("/from-a", OpenFlags::WRONLY.with_create()).unwrap();
        ha.pwrite(0, b"written by a").unwrap();
        ha.close().unwrap();
        // Client B sees it immediately: single-file ops are strongly
        // consistent.
        assert_eq!(b.stat("/from-a").unwrap().size, 12);
        let hb = b.open_handle("/from-a", OpenFlags::RDONLY).unwrap();
        assert_eq!(hb.pread(0, 64).unwrap(), b"written by a");
        cluster.shutdown();
    }

    #[test]
    fn deploy_time_is_fast() {
        // The paper: < 20 s for 512 nodes. In-process with 64 nodes we
        // should be well under a second, and we record the number.
        let cluster = Cluster::deploy(ClusterConfig::new(64)).unwrap();
        assert!(
            cluster.deploy_time() < Duration::from_secs(20),
            "deploy took {:?}",
            cluster.deploy_time()
        );
        cluster.shutdown();
    }

    #[test]
    fn disk_backed_cluster_round_trips() {
        let dir = std::env::temp_dir().join(format!("gkfs-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = Cluster::deploy_on_disk(ClusterConfig::new(2), &dir).unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs.open_handle("/on-disk", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"persistent bytes").unwrap();
        h.flush().unwrap();
        assert_eq!(h.pread(0, 64).unwrap(), b"persistent bytes");
        h.close().unwrap();
        // Chunk files exist on the real file system.
        let chunk_files = walk(&dir)
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("chunks"))
            .count();
        assert!(chunk_files > 0, "expected chunk files under {dir:?}");
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut out = Vec::new();
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    out.extend(walk(&p));
                } else {
                    out.push(p);
                }
            }
        }
        out
    }

    #[test]
    fn replicated_cluster_kill_rejoin_recovers() {
        let repl = gkfs_common::ReplicationConfig {
            replicas: 2,
            write_quorum: 1,
            hedge_after_ms: 20,
            heartbeat_interval_ms: 20,
            suspect_after_ms: 60,
            dead_after_ms: 150,
        };
        let mut cluster =
            Cluster::deploy(ClusterConfig::new(3).with_replication(repl)).unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs.open_handle("/repl", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"replicated payload").unwrap();
        h.flush().unwrap();
        cluster.kill(1);
        // Every acked byte stays readable with a daemon down: reads
        // fail over along the replica chain.
        assert_eq!(h.pread(0, 18).unwrap(), b"replicated payload");
        // And writes still reach quorum (write_quorum = 1).
        h.pwrite(18, b" + post-kill").unwrap();
        h.flush().unwrap();
        cluster.rejoin(1).unwrap();
        // Drain-back: within a bounded window the restarted (empty)
        // daemon holds its share again, so reads are correct no matter
        // which replica answers.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let back = fs.stat("/repl").and_then(|_| h.pread(0, 30));
            if back.as_deref() == Ok(b"replicated payload + post-kill") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rejoin did not converge: last read {back:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        h.close().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn tcp_cluster_full_path() {
        let cluster = TcpCluster::deploy(ClusterConfig::new(3)).unwrap();
        let fs = cluster.mount().unwrap();
        let h = fs.open_handle("/tcp", OpenFlags::RDWR.with_create()).unwrap();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        h.pwrite(0, &payload).unwrap();
        h.flush().unwrap();
        assert_eq!(h.pread(0, payload.len()).unwrap(), payload);
        h.close().unwrap();
        // A second, independently connected client.
        let fs2 = TcpCluster::mount_remote(cluster.addrs(), &ClusterConfig::new(3)).unwrap();
        assert_eq!(fs2.stat("/tcp").unwrap().size, payload.len() as u64);
        cluster.shutdown();
    }
}
