//! Daemon lifecycle.
//!
//! A [`Daemon`] owns the two backends and an RPC server. It can be
//! reached in-process (zero-copy endpoints for the in-process cluster)
//! and/or over TCP (separate processes / machines). The paper stresses
//! cheap deployment — *"can be easily deployed in under 20 seconds on
//! a 512 node cluster"* — which here means construction is just
//! opening the backends and spawning the handler pool.

use crate::handlers::{build_registry, Backends};
use crate::metadata::MetadataBackend;
use gkfs_common::lock::{rank, OrderedMutex};
use gkfs_common::{DaemonConfig, Result};
use gkfs_rpc::transport::tcp::TcpServer;
use gkfs_rpc::{Endpoint, RpcServer};
use gkfs_storage::{ChunkStorage, FileChunkStorage, MemChunkStorage};
use std::sync::Arc;

/// One GekkoFS daemon: metadata KV store + chunk storage + RPC server.
pub struct Daemon {
    backends: Arc<Backends>,
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
        let (meta, data): (MetadataBackend, Arc<dyn ChunkStorage>) = match &config.root_dir {
            None => (
                MetadataBackend::open_memory()?,
                Arc::new(MemChunkStorage::new()),
            ),
            Some(root) => {
                // Size the storage I/O pool like the paper sizes
                // Argobots execution streams: a fixed set bounded by
                // the machine, never oversubscribing kernel threads.
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                (
                    MetadataBackend::open_dir(root.join("metadata"), config.kv_wal)?,
                    Arc::new(FileChunkStorage::open_with(
                        root.join("data"),
                        gkfs_common::IoBackend::Auto,
                        config.chunk_io_threads.min(cores),
                        config.chunk_queue_depth,
                    )?),
                )
            }
        };
        let backends = Arc::new(Backends {
            meta,
            data,
            repl: Default::default(),
            tcp_stats: Default::default(),
        });
        let registry = build_registry(backends.clone());
        let rpc = RpcServer::new(registry, config.handler_threads);
        gkfs_common::gkfs_info!(
            "daemon up: root={:?} handlers={} chunk={} chunk_io={}",
            config.root_dir,
            config.handler_threads,
            config.chunk_size,
            config.chunk_io_threads
        );
        Ok(Arc::new(Daemon {
            backends,
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

    /// Additionally serve TCP on `addr` (e.g. `"127.0.0.1:0"`).
    /// Returns the bound address.
    pub fn serve_tcp(self: &Arc<Daemon>, addr: &str) -> Result<std::net::SocketAddr> {
        let registry = build_registry(self.backends.clone());
        let server = TcpServer::bind(addr, registry, self.config.handler_threads)?;
        let bound = server.local_addr();
        // First server wins: its counters are the ones `DaemonStats`
        // reports.
        let _ = self.backends.tcp_stats.set(server.stats_handle());
        gkfs_common::gkfs_info!("daemon listening on {bound}");
        *self.tcp.lock() = Some(server);
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
