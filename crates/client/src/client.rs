//! The GekkoFS client: one mounted namespace, as seen by one process.
//!
//! Every operation resolves its target daemon(s) locally — *"each
//! client is able to independently resolve the responsible node for a
//! file system operation"* (§III-B-a) — so there is no metadata server
//! and no coordination: metadata ops go to the replica set of
//! `locate_metadata(path)`, each data chunk to the replica set of
//! `locate_chunk(path, id)` — as answered by the mount's [`Placement`],
//! the only code here that knows replica policy (a set of one when
//! replication is off).
//!
//! Consistency follows the paper (§III-A): operations on one file are
//! strongly consistent (the owning daemon serializes them); directory
//! listings are eventually consistent; `rename`/links are unsupported;
//! nothing is cached except what an open path's
//! [`LocalFile`](crate::filemap::LocalFile) holds — the §IV-B size
//! window, the optional write-back run and, on a write-back mount, a
//! small file as its newest read-only open received it.
//!
//! The operations themselves live beside this file, one module per
//! seam: `namespace` (create/stat/unlink/rmdir/readdir/truncate/fsck),
//! `meta_frames` (quorum, `BatchMeta` frames), `data` (write fan-out,
//! read gather, size updates) and `handle` (open, [`FileHandle`], the
//! descriptor shims).

use crate::filemap::FileMap;
use crate::meta_frames::create_op;
use crate::placement::Placement;
use crate::rpc::DaemonRing;
use gkfs_common::chunk::ChunkLayout;
use gkfs_common::Distributor;
use gkfs_common::path as gpath;
use gkfs_common::{ClusterConfig, FileKind, GkfsError, Result};
use gkfs_rpc::proto::DaemonStatsResp;
use gkfs_rpc::Endpoint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::handle::{FileHandle, Whence};
pub use crate::namespace::FsckReport;

gkfs_common::counters! {
    /// Client-side operation counters.
    #[derive(Debug, Default)]
    pub struct ClientStats {
        /// create/mkdir operations issued.
        pub creates: AtomicU64,
        /// stat operations issued.
        pub stats: AtomicU64,
        /// unlink/rmdir operations issued.
        pub removes: AtomicU64,
        /// Write calls issued.
        pub write_ops: AtomicU64,
        /// Read calls issued.
        pub read_ops: AtomicU64,
        /// Total bytes written.
        pub bytes_written: AtomicU64,
        /// Total bytes read.
        pub bytes_read: AtomicU64,
        /// Size updates actually sent to metadata owners: one with a
        /// write that fills the §IV-B window and grows the file past
        /// what its owner is known to hold, and one with a
        /// `flush`/`fsync`/`close` that finds an update held.
        pub size_updates_sent: AtomicU64,
        /// Logical RPCs issued to daemons (retries excluded). Shared with
        /// the [`DaemonRing`], which counts every operation at its single
        /// submission funnel — the number the RPC regression gate watches.
        pub rpcs_issued: Arc<AtomicU64>,
        /// Bytes absorbed by write-back buffers.
        pub wb_buffered_bytes: AtomicU64,
        /// Coalesced write-back batches flushed to daemons.
        pub wb_flushes: AtomicU64,
        /// Reads and seeks served from the open path's record instead of
        /// a stat RPC (the killed per-read stat).
        pub size_cache_hits: AtomicU64,
        /// Metadata ops that traveled inside `BatchMeta` frames (the bulk
        /// `*_many` APIs).
        pub meta_ops_batched: AtomicU64,
        /// Always 0: no frame is sent on an op-count trigger. Kept because
        /// `ledger/src/counters.rs` sums the five `meta_flush_*` fields to
        /// count frames.
        pub meta_flush_count: AtomicU64,
        /// Always 0, kept for `ledger/src/counters.rs` (see
        /// [`ClientStats::meta_flush_count`]).
        pub meta_flush_bytes: AtomicU64,
        /// Always 0, kept for `ledger/src/counters.rs` (see
        /// [`ClientStats::meta_flush_count`]).
        pub meta_flush_deadline: AtomicU64,
        /// Always 0, kept for `ledger/src/counters.rs` (see
        /// [`ClientStats::meta_flush_count`]).
        pub meta_flush_hazard: AtomicU64,
        /// `BatchMeta` frames sent.
        pub meta_flush_explicit: AtomicU64,
        /// Batch-size histogram: ops per frame, bucketed
        /// 1, 2–4, 5–8, 9–16, 17–32, 33+.
        pub meta_batch_hist: [AtomicU64; 6],
        /// Write-payload bytes copied on the way from the caller's buffer
        /// to a transport. Shared with the [`DaemonRing`], which counts at
        /// its submission funnel whatever an endpoint's
        /// [`Endpoint::submit_gather`] had to concatenate: zero over TCP
        /// (segments go to the socket where they lie), one copy of every
        /// byte over the in-process transport (which must own what it
        /// hands to the handler thread).
        pub write_gather_copy_bytes: Arc<AtomicU64>,
        /// Bytes of read results the client wrote itself rather than
        /// receiving them into place: copies out of a reply that arrived
        /// as a buffer, the zeros of holes and short tails, a small
        /// file's bytes held since its open, buffered write-back bytes
        /// laid over the daemons'. Zero for a dense chunk-sized read over
        /// TCP, whose waiter receives the reply's bulk straight into the
        /// result; every byte over the in-process transport, which hands
        /// the reply over as a buffer.
        pub read_assembly_copy_bytes: AtomicU64,
    }
}

/// Histogram bucket for a batch of `n` ops (see
/// [`ClientStats::meta_batch_hist`]).
pub fn batch_hist_bucket(n: usize) -> usize {
    match n {
        0..=1 => 0,
        2..=4 => 1,
        5..=8 => 2,
        9..=16 => 3,
        17..=32 => 4,
        _ => 5,
    }
}

impl ClientStats {
    /// Account one `BatchMeta` frame of `n` ops.
    pub(crate) fn note_meta_flush(&self, n: usize) {
        self.meta_ops_batched.fetch_add(n as u64, Ordering::Relaxed);
        self.meta_batch_hist[batch_hist_bucket(n)].fetch_add(1, Ordering::Relaxed);
        self.meta_flush_explicit.fetch_add(1, Ordering::Relaxed);
    }
}

/// A mounted GekkoFS namespace, as seen by one client process.
pub struct GekkoClient {
    pub(crate) ring: DaemonRing,
    /// Who holds a key right now: write sets, read chains, quorum.
    pub(crate) placement: Placement,
    pub(crate) layout: ChunkLayout,
    /// Descriptors, and the one record per open path of what this
    /// client believes about the file (size, §IV-B window, write-back
    /// run).
    pub(crate) files: FileMap,
    pub(crate) stats: ClientStats,
}

pub(crate) fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

impl GekkoClient {
    /// Mount: connect the given per-daemon endpoints using the shared
    /// cluster configuration. Creates the root directory if missing.
    pub fn mount(endpoints: Vec<Arc<dyn Endpoint>>, config: &ClusterConfig) -> Result<GekkoClient> {
        if endpoints.is_empty() || endpoints.len() != config.nodes {
            return Err(GkfsError::InvalidArgument(format!(
                "{} endpoints but config says {} nodes (at least one)",
                endpoints.len(),
                config.nodes
            )));
        }
        let ring = DaemonRing::new(endpoints, config.retry.clone(), &config.replication);
        let placement = Placement::new(
            Distributor::new(config.nodes),
            &config.replication,
            Arc::clone(ring.detector()),
        );
        let stats = ClientStats {
            // One counter, two readers: the ring bumps it at its
            // submission funnel, `ClientStats` reports it.
            rpcs_issued: ring.rpc_counter(),
            write_gather_copy_bytes: ring.gather_copy_counter(),
            ..ClientStats::default()
        };
        let client = GekkoClient {
            ring,
            placement,
            layout: ChunkLayout::new(config.chunk_size),
            files: FileMap::new(config.size_cache_ops, config.write_back as usize),
            stats,
        };
        // Root directory: non-exclusive create on its owner(s).
        client.meta_call(create_op(gpath::ROOT.into(), FileKind::Directory, 0o755, false))?;
        gkfs_common::gkfs_info!(
            "mounted: {} nodes, chunk={} size_cache={}",
            config.nodes,
            config.chunk_size,
            config.size_cache_ops
        );
        Ok(client)
    }

    /// This client's operation counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The descriptor table (exposed for the preload ABI).
    pub fn files(&self) -> &FileMap {
        &self.files
    }

    /// Number of daemons in the mounted namespace.
    pub fn nodes(&self) -> usize {
        self.ring.nodes()
    }

    /// Flush all buffered state (unmount): every open path's
    /// write-back run, buffered size update and unsent create
    /// (`GekkoClient::flush_files`).
    pub fn flush_all(&self) -> Result<()> {
        self.flush_files(&mut self.files.locals())
    }

    /// Aggregate daemon statistics across the cluster.
    pub fn cluster_stats(&self) -> Result<Vec<DaemonStatsResp>> {
        self.ring
            .broadcast(|n| self.ring.daemon_stats_nb(n))
            .into_iter()
            .collect()
    }

    /// Client-side fault-handling health per daemon: breaker state,
    /// retry/failure counters, transport reconnects. Unlike
    /// [`GekkoClient::cluster_stats`] this needs no RPC — it reports
    /// what *this* client has observed of each daemon.
    pub fn node_health(&self) -> Vec<crate::rpc::NodeHealthSnapshot> {
        self.ring.health_snapshot()
    }
}

/// The in-process cluster every unit test of this crate mounts.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use gkfs_daemon::Daemon;

    pub(crate) fn cluster(nodes: usize) -> (Vec<Arc<Daemon>>, GekkoClient) {
        cluster_with(nodes, ClusterConfig::new(nodes))
    }

    pub(crate) fn cluster_with(nodes: usize, config: ClusterConfig) -> (Vec<Arc<Daemon>>, GekkoClient) {
        let daemons: Vec<Arc<Daemon>> = (0..nodes)
            .map(|_| Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap())
            .collect();
        let endpoints: Vec<Arc<dyn Endpoint>> = daemons.iter().map(|d| d.endpoint()).collect();
        let client = GekkoClient::mount(endpoints, &config).unwrap();
        (daemons, client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::testing::cluster;
    use gkfs_daemon::Daemon;

    #[test]
    fn mount_validates_config() {
        let d = Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap();
        let eps: Vec<Arc<dyn Endpoint>> = vec![d.endpoint()];
        assert!(GekkoClient::mount(eps, &ClusterConfig::new(2)).is_err());
        // An empty cluster is refused, not a placement over no nodes.
        assert!(GekkoClient::mount(Vec::new(), &ClusterConfig::new(0)).is_err());
    }

    #[test]
    fn rpc_counter_counts_logical_rpcs() {
        let (_d, c) = cluster(2);
        // Mounting created the root: the counter is already warm.
        let base = c.stats().rpcs_issued.load(Ordering::Relaxed);
        assert!(base >= 1);
        c.create("/r", 0o644).unwrap();
        assert_eq!(c.stats().rpcs_issued.load(Ordering::Relaxed), base + 1);
        c.stat("/r").unwrap();
        assert_eq!(c.stats().rpcs_issued.load(Ordering::Relaxed), base + 2);
    }
}
