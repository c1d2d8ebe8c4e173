//! Daemon lifecycle.
//!
//! A [`Daemon`] owns the two backends and one [`Handlers`]: a registry,
//! its counters and a pool of `handler_threads` workers — the stand-in
//! for the paper's one Argobots runtime, which both its RPC handlers
//! and its per-chunk I/O tasks run on. It can be reached in-process
//! (zero-copy endpoints for the in-process cluster) and/or over TCP
//! (separate processes / machines), both served by those handlers, and
//! its chunk store's segments run on the same workers. The paper
//! stresses cheap deployment — *"can be easily deployed in under 20
//! seconds on a 512 node cluster"* — which here means construction is
//! just opening the backends and spawning the handler pool.

use crate::handlers::{build_registry, Backends};
use crate::metadata::MetadataBackend;
use gkfs_common::lock::{rank, OrderedMutex};
use gkfs_common::{DaemonConfig, GkfsError, PoolHandle, Result};
use gkfs_rpc::transport::tcp::TcpServer;
use gkfs_rpc::{handler_pool, Endpoint, Handlers, RpcServer, RpcStats};
use gkfs_storage::{ChunkStorage, FileChunkStorage, MemChunkStorage};
use std::sync::Arc;

/// One GekkoFS daemon: metadata KV store + chunk storage + RPC server.
pub struct Daemon {
    backends: Arc<Backends>,
    handlers: Arc<Handlers>,
    rpc: Arc<RpcServer>,
    tcp: OrderedMutex<Option<Arc<TcpServer>>>,
    config: DaemonConfig,
}

impl Daemon {
    /// Construct and start a daemon according to `config`:
    /// `root_dir = None` → fully in-memory backends; otherwise the KV
    /// store and chunk files live under the given directory (the
    /// node-local SSD in the paper's deployment).
    pub fn spawn(config: DaemonConfig) -> Result<Arc<Daemon>> {
        let pool = handler_pool(config.handler_threads);
        let (meta, data): (MetadataBackend, Arc<dyn ChunkStorage>) = match &config.root_dir {
            None => (
                MetadataBackend::open_memory()?,
                Arc::new(MemChunkStorage::new()),
            ),
            Some(root) => {
                // A batch is cut into no more segments than there are
                // workers to run them and cores to run those on — the
                // paper sizes Argobots execution streams by the
                // machine, never oversubscribing kernel threads.
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                (
                    MetadataBackend::open_dir(root.join("metadata"), config.kv_wal)?,
                    Arc::new(FileChunkStorage::on_pool(
                        root.join("data"),
                        Some(pool.handle()),
                        pool.workers().min(cores),
                    )?),
                )
            }
        };
        let stats = Arc::new(RpcStats::default());
        let backends = Arc::new(Backends {
            meta,
            data,
            repl: Default::default(),
            rpc: stats.clone(),
        });
        let handlers = Handlers::new(build_registry(backends.clone()), pool, stats);
        let rpc = RpcServer::on(handlers.clone());
        gkfs_common::gkfs_info!(
            "daemon up: root={:?} handlers={} chunk={}",
            config.root_dir,
            config.handler_threads,
            config.chunk_size
        );
        Ok(Arc::new(Daemon {
            backends,
            handlers,
            rpc,
            tcp: OrderedMutex::new(rank::DAEMON_TCP, None),
            config,
        }))
    }

    /// In-process client endpoint (the RDMA-like zero-copy path).
    pub fn endpoint(self: &Arc<Daemon>) -> Arc<dyn Endpoint> {
        self.rpc.endpoint()
    }

    /// In-process client endpoint with explicit options — chaos and
    /// fault-injection tests shrink the per-call timeout so dropped
    /// requests burn milliseconds, not the 30 s default.
    pub fn endpoint_with(
        self: &Arc<Daemon>,
        opts: gkfs_rpc::EndpointOptions,
    ) -> Arc<dyn Endpoint> {
        self.rpc.endpoint_with(opts)
    }

    /// Additionally serve TCP on `addr` (e.g. `"127.0.0.1:0"`), through
    /// the handlers the in-process endpoints reach. Returns the bound
    /// address. A daemon serves one TCP listener: a second call is
    /// refused with [`GkfsError::Exists`] and leaves the first as it is.
    pub fn serve_tcp(self: &Arc<Daemon>, addr: &str) -> Result<std::net::SocketAddr> {
        let mut tcp = self.tcp.lock();
        if tcp.is_some() {
            return Err(GkfsError::Exists);
        }
        let server = TcpServer::bind_on(addr, self.handlers.clone())?;
        let bound = server.local_addr();
        *tcp = Some(server);
        gkfs_common::gkfs_info!("daemon listening on {bound}");
        Ok(bound)
    }

    /// Join a replicated cluster: start this daemon's replication
    /// manager (heartbeat prober, failure detector, re-replication
    /// driver) over the given peer endpoints. `peers[i]` reaches
    /// daemon `i`; the slot at `self_id` is ignored. Call at most
    /// once, after spawn — the in-process cluster does this during
    /// deployment when `cluster.replication.enabled()`.
    pub fn join_cluster(
        self: &Arc<Daemon>,
        self_id: usize,
        peers: Vec<Option<Arc<dyn Endpoint>>>,
        cluster: &gkfs_common::ClusterConfig,
    ) {
        let mgr = crate::replication::ReplicationManager::start(
            self_id,
            peers,
            cluster.clone(),
            self.backends.clone(),
        );
        if self.backends.repl.set(mgr.clone()).is_err() {
            // Second join: stop the redundant manager we just started.
            mgr.shutdown();
        }
    }

    /// The daemon's replication manager, when one was started.
    pub fn replication(&self) -> Option<&Arc<crate::replication::ReplicationManager>> {
        self.backends.repl.get()
    }

    /// The daemon's backends (tests, stats collection).
    pub fn backends(&self) -> &Arc<Backends> {
        &self.backends
    }

    /// The counters of every request this daemon served, in-process and
    /// over TCP (what `DaemonStats` reports of the transports).
    pub fn rpc_stats(&self) -> &RpcStats {
        self.handlers.stats()
    }

    /// The daemon's one worker pool, through a handle that does not join
    /// it (diagnostics: its counters outlive the daemon).
    pub fn pool(&self) -> PoolHandle {
        self.handlers.pool()
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Begin an orderly shutdown: refuse new requests, stop TCP, then
    /// drain the KV store's background flush/compaction work so every
    /// frozen memtable reaches an SSTable before the process exits.
    pub fn shutdown(&self) {
        gkfs_common::gkfs_info!("daemon shutting down");
        // Stop the replication worker first: it holds peer endpoints
        // and must not race the RPC layer's teardown with new probes.
        if let Some(mgr) = self.backends.repl.get() {
            mgr.shutdown();
        }
        self.rpc.begin_shutdown();
        // Take the server out before winding it down: an `if let` on
        // `.lock().take()` would hold the guard across the whole TCP
        // teardown (accept-thread join and connection severing).
        let tcp = self.tcp.lock().take();
        if let Some(tcp) = tcp {
            tcp.shutdown();
        }
        if let Err(e) = self.backends.meta.shutdown() {
            gkfs_common::gkfs_info!("metadata store shutdown error: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_common::{FileKind, GkfsError};
    use gkfs_rpc::proto::{op, CreateReq, MetaOp, PathReq, Rpc};
    use gkfs_rpc::{Opcode, Request};

    #[test]
    fn spawn_and_serve_inproc() {
        let d = Daemon::spawn(DaemonConfig::default()).unwrap();
        let ep = d.endpoint();
        let create = CreateReq {
            path: "/hello".into(),
            kind: FileKind::File,
            mode: 0o644,
            exclusive: true,
            now_ns: 0,
        };
        op::Create::reply(ep.call(op::Create::request(&create)).unwrap()).unwrap();
        let resp = ep.call(op::Stat::request(&PathReq::new("/hello"))).unwrap();
        assert_eq!(op::Stat::reply(resp).unwrap().kind, FileKind::File);
    }

    #[test]
    fn serve_tcp_and_shutdown() {
        let d = Daemon::spawn(DaemonConfig::default()).unwrap();
        let addr = d.serve_tcp("127.0.0.1:0").unwrap();
        let ep = gkfs_rpc::TcpEndpoint::connect(&addr.to_string()).unwrap();
        let create = CreateReq {
            path: "/tcp-file".into(),
            kind: FileKind::File,
            mode: 0o644,
            exclusive: true,
            now_ns: 0,
        };
        op::Create::reply(ep.call(op::Create::request(&create)).unwrap()).unwrap();
        d.shutdown();
        // In-process endpoint now refuses.
        let ep2 = d.endpoint();
        assert!(matches!(
            ep2.call(Request::new(Opcode::Ping, Vec::new())),
            Err(GkfsError::ShuttingDown)
        ));
    }

    #[test]
    fn a_second_serve_tcp_is_refused_and_the_first_listener_keeps_serving() {
        let d = Daemon::spawn(DaemonConfig::default()).unwrap();
        let first = d.serve_tcp("127.0.0.1:0").unwrap();
        assert_eq!(d.serve_tcp("127.0.0.1:0"), Err(GkfsError::Exists));
        let ep = gkfs_rpc::TcpEndpoint::connect(&first.to_string()).unwrap();
        let pong = ep.call(Request::new(Opcode::Ping, &b"still here"[..])).unwrap();
        assert_eq!(&pong.into_result().unwrap().body[..], b"still here");
        d.shutdown();
    }

    /// One daemon, one set of counters: what its in-process endpoint and
    /// its TCP listener serve both reach `DaemonStats`.
    #[test]
    fn daemon_stats_count_both_transports() {
        let dir = std::env::temp_dir().join(format!("gkfs-daemon-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Daemon::spawn(DaemonConfig { root_dir: Some(dir.clone()), ..DaemonConfig::default() }).unwrap();
        let tcp = gkfs_rpc::TcpEndpoint::connect(&d.serve_tcp("127.0.0.1:0").unwrap().to_string()).unwrap();
        let create = |path: &str| CreateReq { path: path.into(), kind: FileKind::File, mode: 0o644, exclusive: true, now_ns: 0 };
        for i in 0..3 {
            op::Create::reply(d.endpoint().call(op::Create::request(&create(&format!("/in{i}")))).unwrap()).unwrap();
        }
        for i in 0..5 {
            op::Create::reply(tcp.call(op::Create::request(&create(&format!("/tcp{i}")))).unwrap()).unwrap();
        }
        // `DaemonStats` is pooled, and counted before it runs.
        let stats = op::DaemonStats::reply(tcp.call(op::DaemonStats::request(&())).unwrap()).unwrap();
        assert_eq!((stats.served_inline, stats.served_pooled, stats.meta_entries), (5, 3 + 1, 8));
        assert_eq!(d.rpc_stats().served_pooled.load(std::sync::atomic::Ordering::Relaxed), 4);
        d.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backed_daemon_persists_metadata() {
        let dir = std::env::temp_dir().join(format!("gkfs-daemon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DaemonConfig {
            root_dir: Some(dir.clone()),
            kv_wal: true,
            ..DaemonConfig::default()
        };
        {
            let d = Daemon::spawn(cfg.clone()).unwrap();
            d.backends()
                .meta
                .apply_one(MetaOp::Create(CreateReq {
                    path: "/persist".into(),
                    kind: FileKind::File,
                    mode: 0o644,
                    exclusive: true,
                    now_ns: 9,
                }))
                .unwrap();
            d.backends()
                .data
                .write_chunk("/persist", 0, 0, b"bytes")
                .unwrap();
            d.shutdown();
        }
        {
            let d = Daemon::spawn(cfg).unwrap();
            let stat = MetaOp::Stat(PathReq::new("/persist"));
            let meta = d.backends().meta.apply_one(stat).unwrap().unwrap();
            assert_eq!(meta.ctime_ns, 9);
            assert_eq!(
                d.backends().data.read_chunk("/persist", 0, 0, 5).unwrap(),
                b"bytes"
            );
            d.shutdown();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
