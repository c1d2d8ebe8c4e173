//! The GekkoFS client: routing, chunking, and the POSIX-relaxed
//! operation set.
//!
//! Every operation resolves its target daemon(s) locally — *"each
//! client is able to independently resolve the responsible node for a
//! file system operation"* (§III-B-a) — so there is no metadata server
//! and no coordination:
//!
//! * metadata ops go to the replica set of `locate_metadata(path)`,
//!   each data chunk to the replica set of `locate_chunk(path, id)` —
//!   as answered by the mount's [`Placement`], the only code here that
//!   knows replica policy (a set of one when replication is off);
//! * `readdir`, `unlink` (data), and `truncate` (data) broadcast to all
//!   daemons, because chunks and sibling entries are spread everywhere.
//!
//! Consistency follows the paper (§III-A): operations on one file are
//! strongly consistent (the owning daemon serializes them); directory
//! listings are eventually consistent; `rename`/links are unsupported;
//! nothing is cached except the optional write-size window from §IV-B.

use crate::filemap::{FileMap, OpenFile};
use crate::metabatch::{FlushTrigger, MetaBatchState};
use crate::placement::Placement;
use crate::rpc::{ChunkReadReply, DaemonRing, Hedge, ReplyFuture};
use crate::size_cache::SizeCache;
use crate::stat_cache::StatCache;
use crate::writeback::{Absorb, WbRun};
use bytes::Bytes;
use gkfs_common::chunk::{chunk_range, ChunkLayout};
use gkfs_common::distributor::NodeId;
use gkfs_common::lock::{rank, OrderedMutex};
use gkfs_common::path as gpath;
use gkfs_common::retry::Deadline;
use gkfs_common::types::Dirent;
use gkfs_common::{ClusterConfig, FileKind, GkfsError, Metadata, OpenFlags, Result};
use gkfs_rpc::proto::{
    ChunkOp, CreateReq, DaemonStatsResp, MetaOp, MetaVerdict, PathReq, TruncateMetaReq,
};
use gkfs_rpc::Endpoint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// Size updates actually sent to metadata owners.
    pub size_updates_sent: AtomicU64,
    /// Size updates absorbed by the client cache (§IV-B).
    pub size_updates_buffered: AtomicU64,
    /// Logical RPCs issued to daemons (retries excluded). Shared with
    /// the [`DaemonRing`], which counts every operation at its single
    /// submission funnel — the number the RPC regression gate watches.
    pub rpcs_issued: Arc<AtomicU64>,
    /// Bytes absorbed by per-handle write-back buffers.
    pub wb_buffered_bytes: AtomicU64,
    /// Coalesced write-back batches flushed to daemons.
    pub wb_flushes: AtomicU64,
    /// Reads and seeks served from an open handle's cached size
    /// instead of a stat RPC (the killed per-read stat).
    pub size_cache_hits: AtomicU64,
    /// Lease-style invalidations applied to the TTL stat cache by
    /// local mutations (create/unlink/rmdir/truncate).
    pub lease_invalidations: AtomicU64,
    /// Metadata ops that traveled inside `BatchMeta` frames (queued
    /// transparently or via the bulk `*_many` APIs).
    pub meta_ops_batched: AtomicU64,
    /// Batch flushes triggered by the op-count cap.
    pub meta_flush_count: AtomicU64,
    /// Batch flushes triggered by the encoded-bytes cap.
    pub meta_flush_bytes: AtomicU64,
    /// Batch flushes triggered by the queue deadline.
    pub meta_flush_deadline: AtomicU64,
    /// Batch flushes forced by a same-path ordering hazard.
    pub meta_flush_hazard: AtomicU64,
    /// Batch flushes from explicit barriers (`flush_meta`, readdir,
    /// the bulk APIs).
    pub meta_flush_explicit: AtomicU64,
    /// Batch-size histogram: ops per flushed frame, bucketed
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
    /// Account one flushed batch of `n` ops under `trigger`.
    fn note_meta_flush(&self, n: usize, trigger: FlushTrigger) {
        self.meta_ops_batched.fetch_add(n as u64, Ordering::Relaxed);
        self.meta_batch_hist[batch_hist_bucket(n)].fetch_add(1, Ordering::Relaxed);
        let counter = match trigger {
            FlushTrigger::Count => &self.meta_flush_count,
            FlushTrigger::Bytes => &self.meta_flush_bytes,
            FlushTrigger::Deadline => &self.meta_flush_deadline,
            FlushTrigger::Hazard => &self.meta_flush_hazard,
            FlushTrigger::Explicit => &self.meta_flush_explicit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Seek origin for [`GekkoClient::lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Absolute offset (`SEEK_SET`).
    Set,
    /// Relative to the current position (`SEEK_CUR`).
    Cur,
    /// Relative to end of file (`SEEK_END`).
    End,
}

/// A mounted GekkoFS namespace, as seen by one client process.
pub struct GekkoClient {
    ring: DaemonRing,
    /// Who holds a key right now: write sets, read chains, quorum.
    placement: Placement,
    layout: ChunkLayout,
    files: FileMap,
    size_cache: SizeCache,
    stat_cache: Option<StatCache>,
    /// Per-handle write-back capacity in bytes (0 = disabled).
    wb_capacity: usize,
    /// Transparent metadata batching: per-primary op queues, present
    /// only when [`ClusterConfig::with_meta_batch`] enables it. Pure
    /// data behind the lock — batches are taken out under the guard
    /// and sent after it drops (GKL002).
    mb: Option<OrderedMutex<MetaBatchState>>,
    stats: ClientStats,
}

/// One daemon's share of a write: its chunk ops and, in the same
/// order, the sub-slices of the caller's buffer they carry.
type NodeBatch<'a> = (Vec<ChunkOp>, Vec<&'a [u8]>);

/// Add chunk-piece `p` of the write buffer `data` to `node`'s batch:
/// the op and, at the same index, the segment carrying its bytes.
fn push_piece<'a>(
    per_node: &mut HashMap<NodeId, NodeBatch<'a>>,
    node: NodeId,
    p: &gkfs_common::chunk::ChunkInfo,
    data: &'a [u8],
) {
    let (ops, bulk) = per_node.entry(node).or_default();
    ops.push(ChunkOp {
        chunk_id: p.chunk_id,
        offset: p.offset,
        len: p.len,
    });
    bulk.push(&data[p.buf_offset as usize..(p.buf_offset + p.len) as usize]);
}

/// One mutation in flight on the write set of a key: what
/// [`GekkoClient::quorum_submit`] hands to [`GekkoClient::quorum_wait`].
struct QuorumCall<'a, T> {
    /// The key's hash-placed owner.
    primary: NodeId,
    /// Whether slot 0 of the set is that owner rather than another
    /// node standing in for it while it is down.
    primary_leads: bool,
    /// One submission per set member, in set order.
    inflight: Vec<Result<ReplyFuture<'a, T>>>,
}

fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// The create of `path`, stamped now.
fn create_op(path: String, kind: FileKind, mode: u32, exclusive: bool) -> MetaOp {
    MetaOp::Create(CreateReq { path, kind, mode, exclusive, now_ns: now_ns() })
}

impl GekkoClient {
    /// Mount: connect the given per-daemon endpoints using the shared
    /// cluster configuration. Creates the root directory if missing.
    /// The client is assumed to run on node 0; use
    /// [`GekkoClient::mount_on`] when placement is locality-sensitive.
    pub fn mount(endpoints: Vec<Arc<dyn Endpoint>>, config: &ClusterConfig) -> Result<GekkoClient> {
        Self::mount_on(endpoints, config, 0)
    }

    /// Mount as a client co-located with daemon `local_node` — the
    /// node identity only matters for the `WriteLocal` distribution
    /// ablation, where a client's chunks land on its own daemon.
    pub fn mount_on(
        endpoints: Vec<Arc<dyn Endpoint>>,
        config: &ClusterConfig,
        local_node: NodeId,
    ) -> Result<GekkoClient> {
        if endpoints.len() != config.nodes {
            return Err(GkfsError::InvalidArgument(format!(
                "{} endpoints but config says {} nodes",
                endpoints.len(),
                config.nodes
            )));
        }
        if local_node >= config.nodes {
            return Err(GkfsError::InvalidArgument(format!(
                "local node {local_node} out of range 0..{}",
                config.nodes
            )));
        }
        let ring = DaemonRing::new(endpoints, config.retry.clone(), &config.replication);
        let placement = Placement::new(
            config.make_distributor_for(local_node),
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
            files: FileMap::new(),
            size_cache: SizeCache::new(config.size_cache_ops),
            stat_cache: if config.stat_cache_ttl_ms > 0 {
                Some(StatCache::new(std::time::Duration::from_millis(
                    config.stat_cache_ttl_ms,
                )))
            } else {
                None
            },
            wb_capacity: config.write_back as usize,
            mb: (config.meta_batch_ops > 0).then(|| {
                OrderedMutex::new(
                    rank::CLIENT_META_BATCH,
                    MetaBatchState::new(config.nodes, config.meta_batch_ops),
                )
            }),
            stats,
        };
        // Root directory: non-exclusive create on its owner(s).
        client.meta_call(create_op(gpath::ROOT.into(), FileKind::Directory, 0o755, false))?;
        gkfs_common::gkfs_info!(
            "mounted: {} nodes, chunk={} size_cache={} stat_cache={}ms",
            config.nodes,
            config.chunk_size,
            config.size_cache_ops,
            config.stat_cache_ttl_ms
        );
        Ok(client)
    }

    /// stat operations issued.
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

    /// Lease-style invalidation hook for the TTL stat cache: every
    /// local mutation of `path`'s metadata revokes the cached entry, so
    /// the TTL only ever bounds staleness of *remote* changes. (With
    /// the cache disabled this is free.)
    fn revoke_lease(&self, path: &str) {
        if let Some(cache) = &self.stat_cache {
            cache.invalidate(path);
            self.stats
                .lease_invalidations
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    // ---------------------------------------------------------------
    // Replication plumbing
    // ---------------------------------------------------------------

    /// Submit one mutation to every member of the write set of the key
    /// owned by `primary` ([`Placement::meta_set_of`]); `f` issues it
    /// to one member. Nothing is awaited here, so a caller with many
    /// keys can submit them all before [`GekkoClient::quorum_wait`]ing
    /// on any.
    fn quorum_submit<'a, T>(
        &self,
        primary: NodeId,
        f: impl Fn(NodeId) -> Result<ReplyFuture<'a, T>>,
    ) -> QuorumCall<'a, T> {
        let set = self.placement.meta_set_of(primary);
        QuorumCall {
            primary,
            primary_leads: set.first() == Some(&primary),
            inflight: set.into_iter().map(f).collect(),
        }
    }

    /// Await every member of a submitted mutation — no early return, so
    /// every replica sees it even when one errors — and apply quorum
    /// semantics:
    ///
    /// * the **primary's** application verdict is authoritative: if it
    ///   answered and refused (Exists, NotFound, …), that error is the
    ///   operation's result;
    /// * otherwise the operation succeeds when at least
    ///   [`Placement::quorum`] members *applied* it — answered Ok, or
    ///   answered with an application error (a replica that already
    ///   holds / already dropped the entry counts as applied: these
    ///   RPCs are idempotent by construction) — and yields the first
    ///   `Ok` value in set order, the primary's whenever it gave one;
    /// * below quorum, the first transport error surfaces.
    ///
    /// For a `BatchMeta` frame the same rules hold at *frame*
    /// granularity: per-op verdicts travel inside `Ok` frames, so a
    /// frame-level error means transport trouble or a daemon that
    /// could not apply the batch at all.
    fn quorum_wait<T>(&self, call: QuorumCall<'_, T>, deadline: Deadline) -> Result<T> {
        let QuorumCall {
            primary,
            primary_leads,
            mut inflight,
        } = call;
        if inflight.len() == 1 {
            // A set of one has nobody to out-vote: its answer is the
            // result, whatever it is.
            return inflight.remove(0)?.wait_deadline(deadline);
        }
        let results: Vec<Result<T>> = inflight
            .into_iter()
            .map(|fut| fut.and_then(|fut| fut.wait_deadline(deadline)))
            .collect();
        let applied = |r: &Result<T>| !matches!(r, Err(e) if e.is_node_down());
        // Primary answered and refused: authoritative — but only when
        // slot 0 really is the hash-placed primary. When the primary
        // is dead its slot holds a stand-in ([`Placement::meta_set_of`]),
        // and a stand-in that was never repaired legitimately answers
        // NotFound for entries it missed; treating that as
        // authoritative would fail removes on a merely-degraded
        // cluster. Stand-ins get a vote (quorum below), not a veto.
        if primary_leads {
            if let Some(Err(e)) = results.first().filter(|r| applied(r)) {
                return Err(e.clone());
            }
        }
        let acks = results.iter().filter(|r| applied(r)).count();
        let quorum = self.placement.quorum();
        let mut first_err = None;
        for r in results {
            match r {
                Ok(v) if acks >= quorum => return Ok(v),
                Ok(_) => {}
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        Err(first_err.unwrap_or_else(|| {
            GkfsError::Unavailable(format!(
                "write quorum {quorum} not met on the replica set of node {primary}"
            ))
        }))
    }

    /// [`GekkoClient::quorum_submit`] then [`GekkoClient::quorum_wait`]
    /// under one fresh operation deadline: one mutation, fanned out to
    /// its write set and judged.
    fn quorum_call<'a, T>(
        &self,
        primary: NodeId,
        f: impl Fn(NodeId) -> Result<ReplyFuture<'a, T>>,
    ) -> Result<T> {
        let deadline = self.ring.op_deadline();
        self.quorum_wait(self.quorum_submit(primary, f), deadline)
    }

    // ---------------------------------------------------------------
    // Bulk metadata plane (client half)
    // ---------------------------------------------------------------

    /// Cap on ops per frame: bounds frame size and the daemon-side
    /// `WriteBatch` a single frame turns into.
    const EXPLICIT_BATCH_MAX: usize = 128;

    /// Send one frame to the replica set of `primary` and account it in
    /// the batching counters. A frame holding a mutation rides the
    /// write quorum; a stat-only frame needs one answer, so it walks
    /// the read chain and a down primary that is survivable
    /// (replication on) costs a hop, not the call.
    fn send_frame(
        &self,
        primary: NodeId,
        ops: &Arc<[MetaOp]>,
        trigger: FlushTrigger,
    ) -> Result<Vec<MetaVerdict>> {
        self.stats.note_meta_flush(ops.len(), trigger);
        if ops.iter().any(MetaOp::is_write) {
            return self.quorum_call(primary, |n| self.ring.batch_meta_nb(n, Arc::clone(ops)));
        }
        let mut down = None;
        for n in self.placement.read_chain(primary) {
            match self.ring.batch_meta_nb(n, Arc::clone(ops)).and_then(|f| f.wait()) {
                Err(e) if self.placement.survivable(&e) => down = Some(e),
                answer => return answer,
            }
        }
        Err(down.unwrap_or_else(|| {
            GkfsError::Unavailable(format!("no metadata replica of node {primary}"))
        }))
    }

    /// The frame driver behind the bulk APIs and the transparent
    /// queue: `ops` grouped by primary metadata owner (program order
    /// kept within a group), cut into frames of at most
    /// [`Self::EXPLICIT_BATCH_MAX`], each sent by
    /// [`GekkoClient::send_frame`]. Every op's verdict goes to
    /// `sink(index in ops, op, verdict)`; the `Result` is a frame that
    /// could not be delivered or applied at all.
    fn drive_meta(
        &self,
        ops: Vec<MetaOp>,
        trigger: FlushTrigger,
        mut sink: impl FnMut(usize, &MetaOp, MetaVerdict),
    ) -> Result<()> {
        let mut per_primary: Vec<Vec<(usize, MetaOp)>> = vec![Vec::new(); self.ring.nodes()];
        for (i, op) in ops.into_iter().enumerate() {
            per_primary[self.placement.meta_primary(op.path())].push((i, op));
        }
        for (primary, group) in per_primary.into_iter().enumerate() {
            let mut group = group.into_iter().peekable();
            while group.peek().is_some() {
                let (indices, frame): (Vec<usize>, Vec<MetaOp>) =
                    group.by_ref().take(Self::EXPLICIT_BATCH_MAX).unzip();
                let frame: Arc<[MetaOp]> = frame.into();
                let verdicts = self.send_frame(primary, &frame, trigger)?;
                for ((i, op), verdict) in indices.into_iter().zip(frame.iter()).zip(verdicts) {
                    sink(i, op, verdict);
                }
            }
        }
        Ok(())
    }

    /// Flush batches the transparent queue took out, whose callers
    /// have already returned `Ok`: every batch is sent, and the first
    /// frame-level or per-op error surfaces here, at the flushing call
    /// — the write-back-style deferred-error relaxation (DESIGN.md
    /// "Bulk metadata plane").
    fn flush_queued(
        &self,
        batches: impl IntoIterator<Item = (Vec<MetaOp>, FlushTrigger)>,
    ) -> Result<()> {
        let mut outcome = Ok(());
        for (ops, trigger) in batches {
            let mut refused = None;
            let sent = self.drive_meta(ops, trigger, |_, _, verdict| {
                if let Err(e) = verdict {
                    refused.get_or_insert(e);
                }
            });
            outcome = outcome.and(sent).and(refused.map_or(Ok(()), Err));
        }
        outcome
    }

    /// Queue `op` on its primary's batch and send whatever the queue
    /// decides must go out (a displaced same-path batch, a full
    /// queue, any queue past its deadline). Batches are taken under
    /// the `mb` guard and sent only after it drops (GKL002). Callers
    /// must have checked that batching is enabled.
    fn enqueue_meta(&self, op: MetaOp) -> Result<()> {
        let Some(mb) = self.mb.as_ref() else {
            return Err(GkfsError::Io("metadata batching disabled".into()));
        };
        let primary = self.placement.meta_primary(op.path());
        let now = Instant::now();
        let (offer, expired) = {
            let mut state = mb.lock();
            let offer = state.offer(primary, op, now);
            let expired = state.take_expired(now);
            (offer, expired)
        };
        let hazard = offer.flush_first.map(|batch| (batch, FlushTrigger::Hazard));
        let expired = expired.into_iter().map(|batch| (batch, FlushTrigger::Deadline));
        self.flush_queued(hazard.into_iter().chain(offer.flush_now).chain(expired))
    }

    /// Per-path ordering barrier: if `path` has a queued op, flush
    /// that queue before the caller reads the path or mutates it via
    /// the unary protocol. A no-op when batching is disabled.
    fn meta_barrier_path(&self, path: &str) -> Result<()> {
        let Some(mb) = &self.mb else { return Ok(()) };
        let primary = self.placement.meta_primary(path);
        let batch = { mb.lock().take_hazard(primary, path) };
        self.flush_queued(batch.map(|ops| (ops, FlushTrigger::Hazard)))
    }

    /// Flush every queued metadata batch (explicit barrier) — readdir
    /// and the bulk APIs call this, and applications can use it as an
    /// mdtest-phase boundary. Deferred per-op errors from queued ops
    /// surface here. A no-op when transparent batching is disabled.
    pub fn flush_meta(&self) -> Result<()> {
        let Some(mb) = &self.mb else { return Ok(()) };
        let batches = { mb.lock().take_all() };
        self.flush_queued(batches.into_iter().map(|ops| (ops, FlushTrigger::Explicit)))
    }

    /// The body the bulk APIs share: behind an explicit barrier, one
    /// `op_of(path)` per well-formed path through the frame driver,
    /// each `Ok` verdict mapped by `finish(path, entry)`. Returns one
    /// slot per input path, in order — a malformed path fails its own
    /// slot only; the outer `Result` is transport-level.
    fn many<S: AsRef<str>, T>(
        &self,
        paths: &[S],
        op_of: impl Fn(String) -> MetaOp,
        mut finish: impl FnMut(&str, Option<Metadata>) -> Result<T>,
    ) -> Result<Vec<Result<T>>> {
        self.flush_meta()?;
        let mut ops = Vec::with_capacity(paths.len());
        // Slot of each op; a well-formed path's slot holds a
        // placeholder until its verdict overwrites it.
        let mut slot_of = Vec::with_capacity(paths.len());
        let mut slots: Vec<Result<T>> = Vec::with_capacity(paths.len());
        for p in paths {
            slots.push(gpath::normalize(p.as_ref()).and_then(|path| {
                slot_of.push(slots.len());
                ops.push(op_of(path));
                Err(GkfsError::NotFound)
            }));
        }
        self.drive_meta(ops, FlushTrigger::Explicit, |i, op, verdict| {
            slots[slot_of[i]] = verdict.and_then(|entry| finish(op.path(), entry));
        })?;
        Ok(slots)
    }

    /// Create many regular files (exclusive) in batched frames — the
    /// mdtest bulk path. Per-path verdicts (`Exists`, …) live in the
    /// slots.
    pub fn create_many<S: AsRef<str>>(&self, paths: &[S], mode: u32) -> Result<Vec<Result<()>>> {
        self.stats
            .creates
            .fetch_add(paths.len() as u64, Ordering::Relaxed);
        // One timestamp for the call, not a clock read per path.
        let now_ns = now_ns();
        let create = |path: String| {
            self.revoke_lease(&path);
            MetaOp::Create(CreateReq { path, kind: FileKind::File, mode, exclusive: true, now_ns })
        };
        self.many(paths, create, |_, _| Ok(()))
    }

    /// Stat many paths in batched frames, each answered by one member
    /// of its path's read chain and merged with what this client knows
    /// locally about the size, exactly like the unary stat.
    pub fn stat_many<S: AsRef<str>>(&self, paths: &[S]) -> Result<Vec<Result<Metadata>>> {
        self.stats
            .stats
            .fetch_add(paths.len() as u64, Ordering::Relaxed);
        self.many(paths, |path| MetaOp::Stat(PathReq { path }), |path, meta| {
            let meta = meta.ok_or_else(|| GkfsError::Corruption("stat without metadata".into()))?;
            Ok(self.merge_local_size(path, meta))
        })
    }

    /// Unlink many regular files in batched frames: metadata removal
    /// rides the batch quorum, then chunk removal fans out from the
    /// sizes the daemon returned with each removed entry.
    pub fn unlink_many<S: AsRef<str>>(&self, paths: &[S]) -> Result<Vec<Result<()>>> {
        self.stats
            .removes
            .fetch_add(paths.len() as u64, Ordering::Relaxed);
        let unlink = |path: String| {
            self.revoke_lease(&path);
            MetaOp::Unlink(PathReq { path })
        };
        // Files whose chunks must still be removed (zero-byte files
        // hold none).
        let mut removed: Vec<(String, u64)> = Vec::new();
        let slots = self.many(paths, unlink, |path, meta| {
            removed.extend(meta.filter(|m| m.size > 0).map(|m| (path.to_string(), m.size)));
            Ok(())
        })?;
        self.remove_chunks_many(&removed)?;
        Ok(slots)
    }

    /// Fan chunk removal out for a set of just-unlinked files, one
    /// `RemoveChunks` per (holder, path) pair, all overlapped on the
    /// wire. A `u64::MAX` size (the batch-retry "unknown" sentinel)
    /// broadcasts to every daemon instead of deriving holders from a
    /// size that no longer exists anywhere.
    fn remove_chunks_many(&self, removed: &[(String, u64)]) -> Result<()> {
        if removed.is_empty() {
            return Ok(());
        }
        let mut per_node: HashMap<NodeId, Vec<&str>> = HashMap::new();
        for (path, size) in removed {
            let targets: Vec<NodeId> = if *size == u64::MAX {
                (0..self.ring.nodes()).collect()
            } else {
                let chunks = self.layout.chunk_count(*size);
                let mut t: Vec<NodeId> = (0..chunks)
                    .flat_map(|c| self.placement.raw_chunk_set(path, c))
                    .collect();
                t.sort_unstable();
                t.dedup();
                t
            };
            for n in targets {
                per_node.entry(n).or_default().push(path);
            }
        }
        // Submit everything, then wait — the whole fan-out overlaps on
        // the wire and shares one operation deadline.
        let deadline = self.ring.op_deadline();
        let mut inflight = Vec::new();
        for (n, paths) in per_node {
            for p in paths {
                inflight.push((p, self.ring.remove_chunks_nb(n, p)));
            }
        }
        for (path, fut) in inflight {
            match fut.and_then(|f| f.wait_deadline(deadline)) {
                Ok(()) => {}
                // With replication a dead holder must not wedge the
                // unlink: stranded chunks are orphans that fsck (or
                // the holder's restart — volatile state) cleans up.
                Err(e) if self.placement.survivable(&e) => {
                    gkfs_common::gkfs_info!("unlink {path}: chunk remove skipped: {e}");
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Stat at the daemons: walk `path`'s metadata read chain
    /// ([`Placement::read_chain`]) until a member answers. `NotFound`
    /// keeps trying the rest of the chain — a freshly rejoined (empty)
    /// primary must not shadow a replica or stand-in that still
    /// holds the entry — and is only returned once no member
    /// disagrees. Costs one RPC on the healthy path, and always when
    /// replication is off (the chain is the owner alone).
    fn stat_chain(&self, path: &str) -> Result<Metadata> {
        // A queued batched op on this path must land first, or the
        // stat would observe pre-batch state (read-your-writes).
        self.meta_barrier_path(path)?;
        let mut transport_err: Option<GkfsError> = None;
        let mut saw_not_found = false;
        for n in self.placement.read_chain(self.placement.meta_primary(path)) {
            let stat = MetaOp::Stat(PathReq::new(path));
            match self.ring.meta_nb(n, stat).and_then(|f| f.wait()) {
                Ok(Some(m)) => return Ok(m),
                Ok(None) | Err(GkfsError::NotFound) => saw_not_found = true,
                Err(e) if e.is_node_down() => {
                    transport_err = transport_err.or(Some(e));
                }
                Err(e) => return Err(e),
            }
        }
        if saw_not_found {
            Err(GkfsError::NotFound)
        } else {
            Err(transport_err
                .unwrap_or_else(|| GkfsError::Unavailable(format!("no metadata replica for {path}"))))
        }
    }

    /// One metadata op over the unary protocol: on its path's metadata
    /// write set, under quorum semantics, behind any batched op queued
    /// on the same path (program order per path).
    fn meta_call(&self, op: MetaOp) -> MetaVerdict {
        self.meta_barrier_path(op.path())?;
        self.quorum_call(self.placement.meta_primary(op.path()), |n| {
            self.ring.meta_nb(n, op.clone())
        })
    }

    /// An exclusive create from `create`/`mkdir`: queued when
    /// transparent batching is on (a deferred `Exists` surfaces at the
    /// flushing call), unary otherwise.
    fn create_entry(&self, path: String, kind: FileKind, mode: u32) -> Result<()> {
        let op = create_op(path, kind, mode, true);
        if self.mb.is_some() {
            return self.enqueue_meta(op);
        }
        self.meta_call(op).map(drop)
    }

    /// Submit a size update to `path`'s metadata write set (the flush
    /// path of the §IV-B cache).
    fn submit_size_update(&self, path: &str, size: u64, mtime_ns: u64) -> QuorumCall<'static, ()> {
        self.stats.size_updates_sent.fetch_add(1, Ordering::Relaxed);
        self.quorum_submit(self.placement.meta_primary(path), |n| {
            self.ring.update_size_nb(n, path, size, mtime_ns)
        })
    }

    /// One size update, sent and awaited.
    fn send_size_update(&self, path: &str, size: u64, mtime_ns: u64) -> Result<()> {
        let deadline = self.ring.op_deadline();
        self.quorum_wait(self.submit_size_update(path, size, mtime_ns), deadline)
    }

    // ---------------------------------------------------------------
    // Metadata operations
    // ---------------------------------------------------------------

    /// Create a regular file (exclusive, like `O_CREAT|O_EXCL`).
    ///
    /// With [`ClusterConfig::with_meta_batch`] enabled the create is
    /// queued and coalesced with neighbours bound for the same daemon;
    /// a deferred `Exists` surfaces at the flushing call instead of
    /// here (DESIGN.md "Bulk metadata plane").
    pub fn create(&self, path: &str, mode: u32) -> Result<()> {
        let path = gpath::normalize(path)?;
        self.stats.creates.fetch_add(1, Ordering::Relaxed);
        self.revoke_lease(&path);
        self.create_entry(path, FileKind::File, mode)
    }

    /// Create a directory (exclusive).
    ///
    /// Note that GekkoFS' namespace is flat: parent directories are
    /// *not* required to exist (mdtest-style workloads create files
    /// wherever they like), matching the paper's "internally kept flat
    /// namespace".
    pub fn mkdir(&self, path: &str, mode: u32) -> Result<()> {
        let path = gpath::normalize(path)?;
        if path == gpath::ROOT {
            return Err(GkfsError::Exists);
        }
        self.stats.creates.fetch_add(1, Ordering::Relaxed);
        self.revoke_lease(&path);
        self.create_entry(path, FileKind::Directory, mode)
    }

    /// Fetch metadata. A client with buffered size updates or buffered
    /// write-back bytes sees its own writes reflected (read-your-writes
    /// within one client).
    pub fn stat(&self, path: &str) -> Result<Metadata> {
        let path = gpath::normalize(path)?;
        self.stats.stats.fetch_add(1, Ordering::Relaxed);
        self.fetch_meta_merged(&path)
    }

    /// [`GekkoClient::fetch_meta`] merged with everything this client
    /// knows locally about the size: the §IV-B size-update window and
    /// any open handle's cached size (which includes unflushed
    /// write-back bytes).
    fn fetch_meta_merged(&self, path: &str) -> Result<Metadata> {
        Ok(self.merge_local_size(path, self.fetch_meta(path)?))
    }

    /// Read-your-writes within one client: raise `meta.size` to what
    /// this client's size window and open handles know.
    fn merge_local_size(&self, path: &str, mut meta: Metadata) -> Metadata {
        if let Some(local) = self.size_cache.peek(path) {
            meta.size = meta.size.max(local);
        }
        if let Some(f) = self.files.find_by_path(path) {
            meta.size = meta.size.max(f.effective_size());
        }
        meta
    }

    /// Fetch metadata through the optional §V stat cache. Negative
    /// results (NotFound) are never cached — a create must be visible
    /// immediately.
    fn fetch_meta(&self, path: &str) -> Result<Metadata> {
        if let Some(cache) = &self.stat_cache {
            if let Some(m) = cache.get(path) {
                return Ok(m);
            }
            let m = self.stat_chain(path)?;
            cache.put(path, m.clone());
            return Ok(m);
        }
        self.stat_chain(path)
    }

    /// Remove a regular file: metadata from its owner, chunks from
    /// every daemon.
    pub fn unlink(&self, path: &str) -> Result<()> {
        let path = gpath::normalize(path)?;
        self.stats.removes.fetch_add(1, Ordering::Relaxed);
        self.revoke_lease(&path);
        // One round trip: the owner refuses a directory itself and
        // answers with the entry it removed. Zero-byte files (the
        // mdtest workload) hold no chunks: skip the data fan-out
        // entirely. This is what lets removes scale in §IV-A. Otherwise
        // target exactly the daemons that can own one of the file's
        // chunks (every replica of every chunk) — the client derives
        // the set from the removed entry's size and the distributor, no
        // state needed.
        match self.meta_call(MetaOp::Unlink(PathReq::new(path.as_str())))? {
            Some(meta) if meta.size > 0 => self.remove_chunks_many(&[(path, meta.size)]),
            _ => Ok(()),
        }
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let path = gpath::normalize(path)?;
        if path == gpath::ROOT {
            return Err(GkfsError::InvalidArgument("cannot remove root".into()));
        }
        // Queued creates of children may sit in any daemon's batch:
        // full barrier, or the emptiness probe below could lie.
        self.flush_meta()?;
        self.stats.removes.fetch_add(1, Ordering::Relaxed);
        self.revoke_lease(&path);
        // Emptiness is checked across all daemons. This is the paper's
        // eventual-consistency caveat: a concurrent create can slip in.
        // One single-entry page per daemon suffices: any entry at all
        // means non-empty.
        let listings = self
            .ring
            .broadcast(|n| self.ring.readdir_page_nb(n, &path, "", 1));
        for l in listings {
            if !l?.0.is_empty() {
                return Err(GkfsError::NotEmpty);
            }
        }
        // The owner refuses a regular file (`NotDirectory`) itself.
        self.meta_call(MetaOp::Rmdir(PathReq { path })).map(drop)
    }

    /// List a directory: broadcast prefix scans, merge, sort.
    /// Eventually consistent (§III-A: "GekkoFS does not guarantee to
    /// return the current state of the directory").
    pub fn readdir(&self, path: &str) -> Result<Vec<Dirent>> {
        let path = gpath::normalize(path)?;
        // Listings are this client's read-your-writes boundary: every
        // queued batched op lands before the scan goes out.
        self.flush_meta()?;
        let meta = self.stat_chain(&path)?;
        if !meta.is_dir() {
            return Err(GkfsError::NotDirectory);
        }
        // Round 1 fans the first page out to every daemon at once;
        // daemons with more pages than fit one frame are walked in
        // further rounds (cursor per node) until all report completion.
        let mut all = Vec::new();
        let mut cursors: Vec<Option<String>> = vec![Some(String::new()); self.ring.nodes()];
        while cursors.iter().any(Option::is_some) {
            let deadline = self.ring.op_deadline();
            let inflight: Vec<(NodeId, _)> = cursors
                .iter()
                .enumerate()
                .filter_map(|(n, c)| {
                    c.as_ref()
                        .map(|cur| (n, self.ring.readdir_page_nb(n, &path, cur, 0)))
                })
                .collect();
            for (n, fut) in inflight {
                match fut.and_then(|f| f.wait_deadline(deadline)) {
                    Ok((page, next)) => {
                        all.extend(page);
                        cursors[n] = (!next.is_empty()).then_some(next);
                    }
                    // A dead daemon's entries are replicated on its ring
                    // successor, which the broadcast also asked.
                    Err(e) if self.placement.survivable(&e) => {
                        gkfs_common::gkfs_info!("readdir {path}: listing skipped: {e}");
                        cursors[n] = None;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all.dedup_by(|a, b| a.name == b.name);
        Ok(all)
    }

    /// Truncate (or extend) a file to `new_size`.
    pub fn truncate(&self, path: &str, new_size: u64) -> Result<()> {
        let path = gpath::normalize(path)?;
        // A queued batched create of this path must land before the
        // truncate's metadata update can find it.
        self.meta_barrier_path(&path)?;
        // Program order: writes buffered before this truncate must land
        // before it applies, so force out every open handle's run.
        for f in self.files.open_files() {
            if f.path == path {
                let run = f.wb.lock().take();
                if let Some(run) = run {
                    self.flush_run(&f, run)?;
                }
            }
        }
        // Pending buffered size updates for this path are now moot —
        // and so are any buffered write-back bytes an open handle holds
        // below the new size (flushing them would resurrect truncated
        // data); the ones above it the caller flushes first via
        // [`FileHandle::truncate`].
        self.size_cache.drain(&path);
        self.revoke_lease(&path);
        self.meta_call(MetaOp::TruncateMeta(TruncateMetaReq {
            path: path.clone(),
            new_size,
            mtime_ns: now_ns(),
        }))?;
        let (keep_chunk, keep_bytes) = if new_size == 0 {
            (0, 0)
        } else {
            let last = self.layout.chunk_of(new_size - 1);
            (last, new_size - last * self.layout.chunk_size)
        };
        let results = self
            .ring
            .broadcast(|n| self.ring.truncate_chunks_nb(n, &path, keep_chunk, keep_bytes));
        for r in results {
            match r {
                Ok(()) => {}
                // A dead daemon's surviving replicas were truncated;
                // the dead one rebuilds from them on rejoin (drain
                // back), so the cut propagates.
                Err(e) if self.placement.survivable(&e) => {
                    gkfs_common::gkfs_info!("truncate {path}: chunk cut skipped: {e}");
                }
                Err(e) => return Err(e),
            }
        }
        // Open handles snap to the authoritative new size.
        for f in self.files.open_files() {
            if f.path == path {
                f.set_cached_size(new_size);
            }
        }
        Ok(())
    }

    /// Renames are deliberately unsupported (§III-A).
    pub fn rename(&self, _from: &str, _to: &str) -> Result<()> {
        Err(GkfsError::Unsupported("rename"))
    }

    /// Hard links are deliberately unsupported (§III-A).
    pub fn link(&self, _from: &str, _to: &str) -> Result<()> {
        Err(GkfsError::Unsupported("link"))
    }

    /// Symbolic links are deliberately unsupported (§III-A).
    pub fn symlink(&self, _from: &str, _to: &str) -> Result<()> {
        Err(GkfsError::Unsupported("symlink"))
    }

    // ---------------------------------------------------------------
    // Descriptor-based operations
    // ---------------------------------------------------------------

    /// Open (optionally creating) a file, returning a GekkoFS fd.
    ///
    /// The descriptor is a registered [`FileHandle`]: it shares the
    /// same open-state record (cached size, write-back buffer) that
    /// [`GekkoClient::open_handle`] hands out directly.
    pub fn open(&self, path: &str, flags: OpenFlags) -> Result<i32> {
        let file = self.open_file(path, flags)?;
        Ok(self.files.insert_arc(file))
    }

    /// Open (optionally creating) a file as an explicit [`FileHandle`]
    /// — the primary I/O surface of the client. The handle carries the
    /// open-time size (no stat RPC per read) and, when
    /// [`ClusterConfig::with_write_back`] enables it, a write-back
    /// buffer coalescing small sequential writes.
    pub fn open_handle(&self, path: &str, flags: OpenFlags) -> Result<FileHandle<'_>> {
        let file = self.open_file(path, flags)?;
        // Register the open file in the descriptor table so path-based
        // lookups (same-client stat overlays and truncate's
        // buffered-write ordering) see this handle's state.
        let reg = self.files.insert_arc(Arc::clone(&file));
        Ok(FileHandle {
            client: self,
            file,
            reg: Some(reg),
        })
    }

    /// Borrow an existing descriptor as a [`FileHandle`] view. The view
    /// shares the descriptor's offset, cached size, and write-back
    /// buffer, but never flushes on drop — `close(fd)` owns that.
    pub fn handle(&self, fd: i32) -> Result<FileHandle<'_>> {
        Ok(FileHandle {
            client: self,
            file: self.files.get(fd)?,
            reg: None,
        })
    }

    /// The open-path protocol shared by [`GekkoClient::open`] and
    /// [`GekkoClient::open_handle`].
    fn open_file(&self, path: &str, flags: OpenFlags) -> Result<Arc<OpenFile>> {
        let path = gpath::normalize(path)?;
        let (kind, mut size) = if flags.create {
            self.stats.creates.fetch_add(1, Ordering::Relaxed);
            self.revoke_lease(&path);
            self.meta_call(create_op(path.clone(), FileKind::File, 0o644, flags.exclusive))?;
            if flags.exclusive {
                // Freshly created: must be an empty file — no extra
                // stat on the mdtest hot path.
                (FileKind::File, 0)
            } else {
                // Non-exclusive create may have hit an existing entry
                // of either kind; `open(dir, O_CREAT|O_WRONLY)` must
                // fail with EISDIR, not scribble on a directory.
                let meta = self.fetch_meta_merged(&path)?;
                if meta.is_dir() && flags.write {
                    return Err(GkfsError::IsDirectory);
                }
                (meta.kind, meta.size)
            }
        } else {
            let meta = self.fetch_meta_merged(&path)?;
            if meta.is_dir() && flags.write {
                return Err(GkfsError::IsDirectory);
            }
            (meta.kind, meta.size)
        };
        if flags.truncate && kind == FileKind::File {
            self.truncate(&path, 0)?;
            size = 0;
        }
        // Write-back only makes sense on writable regular files.
        let wb_capacity = if kind == FileKind::File && flags.write {
            self.wb_capacity
        } else {
            0
        };
        let file = Arc::new(OpenFile::with_state(path, flags, kind, size, wb_capacity));
        if flags.append {
            // O_APPEND: position at the open-time EOF — the size the
            // open already learned, not another stat RPC.
            file.seek_to(size);
        }
        Ok(file)
    }

    /// Close a descriptor: flush its write-back buffer and any buffered
    /// size update.
    pub fn close(&self, fd: i32) -> Result<()> {
        let file = self.files.remove(fd)?;
        FileHandle {
            client: self,
            file,
            reg: None,
        }
        .flush()
    }

    /// `dup(2)`.
    pub fn dup(&self, fd: i32) -> Result<i32> {
        self.files.dup(fd)
    }

    /// Reposition a descriptor. `SEEK_END` resolves against the
    /// handle's cached size — no stat RPC.
    pub fn lseek(&self, fd: i32, offset: i64, whence: Whence) -> Result<u64> {
        self.handle(fd)?.seek(offset, whence)
    }

    /// Write at the current position, advancing it.
    pub fn write(&self, fd: i32, data: &[u8]) -> Result<usize> {
        self.handle(fd)?.write(data)
    }

    /// Positional write (`pwrite`); does not move the descriptor.
    pub fn pwrite(&self, fd: i32, offset: u64, data: &[u8]) -> Result<usize> {
        self.handle(fd)?.pwrite(offset, data)
    }

    /// Read from the current position, advancing by the bytes returned.
    pub fn read(&self, fd: i32, len: usize) -> Result<Vec<u8>> {
        self.handle(fd)?.read(len)
    }

    /// Positional read (`pread`); does not move the descriptor.
    pub fn pread(&self, fd: i32, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.handle(fd)?.pread(offset, len)
    }

    /// Flush this descriptor's write-back buffer and buffered size
    /// updates to the daemons.
    pub fn fsync(&self, fd: i32) -> Result<()> {
        self.handle(fd)?.flush()
    }

    // ---------------------------------------------------------------
    // Data path
    // ---------------------------------------------------------------

    /// The raw write path: split into chunks, fan every piece out to
    /// its write set, then update the file size at the metadata owner
    /// (possibly through the §IV-B cache). Expects a normalized path
    /// and counts no client ops — callers do.
    ///
    /// `data` is never copied here: each daemon's batch is a list of
    /// sub-slices of it (the scatter/gather list an RDMA transport
    /// would build), borrowed until that daemon has acknowledged.
    fn write_through(&self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        let pieces = chunk_range(self.layout, offset, data.len() as u64);
        self.fan_out_writes(path, &pieces, data)?;

        // Size update to the metadata owner(s).
        let candidate = offset + data.len() as u64;
        if let Some(cache) = &self.stat_cache {
            cache.bump_size(path, candidate, now_ns());
        }
        match self.size_cache.record(path, candidate, now_ns()) {
            Some(pending) => {
                self.send_size_update(&pending.path, pending.size, pending.mtime_ns)?;
            }
            None => {
                self.stats
                    .size_updates_buffered
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The write fan-out: every chunk-piece goes to **all** members of
    /// its write set ([`Placement::chunk_set`]), batched per daemon;
    /// all batches are submitted before any reply is awaited — the
    /// striped write gets a single time budget, not N stacked timeouts
    /// — and every reply is awaited before judging the outcome (no
    /// early return — a replica must not miss bytes merely because a
    /// sibling errored first). The write succeeds iff every piece was
    /// acknowledged by at least [`Placement::quorum`] members of its
    /// set; with replication off that is "its one owner said Ok".
    fn fan_out_writes(
        &self,
        path: &str,
        pieces: &[gkfs_common::chunk::ChunkInfo],
        data: &[u8],
    ) -> Result<()> {
        let mut per_node: HashMap<NodeId, NodeBatch<'_>> = HashMap::new();
        let mut piece_sets: Vec<Vec<NodeId>> = Vec::with_capacity(pieces.len());
        for p in pieces {
            let set = self.placement.chunk_set(path, p.chunk_id);
            for &node in &set {
                push_piece(&mut per_node, node, p, data);
            }
            piece_sets.push(set);
        }
        let deadline = self.ring.op_deadline();
        let inflight: Vec<(NodeId, Result<ReplyFuture<'_, ()>>)> = per_node
            .into_iter()
            .map(|(node, (ops, bulk))| (node, self.ring.write_chunks_nb(node, path, ops, bulk)))
            .collect();
        let mut outcomes: HashMap<NodeId, Result<()>> = HashMap::new();
        for (node, fut) in inflight {
            outcomes.insert(node, fut.and_then(|f| f.wait_deadline(deadline)));
        }
        let quorum = self.placement.quorum();
        for (p, set) in pieces.iter().zip(&piece_sets) {
            let acks = set
                .iter()
                .filter(|n| matches!(outcomes.get(n), Some(Ok(()))))
                .count();
            if acks < quorum {
                let cause = set.iter().find_map(|n| match outcomes.get(n) {
                    Some(Err(e)) => Some(e.clone()),
                    _ => None,
                });
                return Err(cause.unwrap_or_else(|| {
                    GkfsError::Unavailable(format!(
                        "chunk {} of {path}: {acks}/{quorum} replica acks",
                        p.chunk_id
                    ))
                }));
            }
        }
        Ok(())
    }

    /// The raw scatter-gather read of `[offset, offset + len)`; the
    /// caller has already clamped `len` to EOF. Holes read as zeros.
    ///
    /// Grouping is by **primary** node (not by whichever member a
    /// batch happens to be sent to): all chunks sharing a primary share
    /// one read chain ([`Placement::read_chain`]), so a whole batch
    /// fails over together. Each batch first goes to its chain's first
    /// member; see [`GekkoClient::read_chain`] for how it moves on.
    fn read_scatter(&self, path: &str, offset: u64, effective: u64) -> Result<Vec<u8>> {
        let pieces = chunk_range(self.layout, offset, effective);
        // Each op travels with the index of its piece, which is where
        // its bytes go in the result (pieces are in buffer order).
        let mut per_primary: HashMap<NodeId, Vec<(usize, ChunkOp)>> = HashMap::new();
        for (i, p) in pieces.iter().enumerate() {
            let node = self.placement.chunk_primary(path, p.chunk_id);
            per_primary.entry(node).or_default().push((
                i,
                ChunkOp {
                    chunk_id: p.chunk_id,
                    offset: p.offset,
                    len: p.len,
                },
            ));
        }

        // The gather submits one read batch per group before waiting
        // on any reply, so every daemon streams its chunks back
        // concurrently.
        let deadline = self.ring.op_deadline();
        let inflight: Vec<_> = per_primary
            .into_iter()
            .map(|(primary, batch)| {
                let ops: Vec<ChunkOp> = batch.iter().map(|(_, op)| *op).collect();
                let chain = self.placement.read_chain(primary);
                let first = self.ring.read_chunks_nb(chain[0], path, ops);
                (batch, chain, first)
            })
            .collect();
        // What each piece resolved to: a view into the reply frame
        // that carried it.
        let mut found: Vec<Option<Bytes>> = vec![None; pieces.len()];
        for (batch, chain, first) in inflight {
            self.read_chain(path, &batch, &chain, first, deadline, &mut found)?;
        }
        // Assemble front to back: returned bytes are appended once into
        // capacity reserved up front, and only what no daemon returned —
        // holes and short tails — is zero-filled.
        let mut out = Vec::with_capacity(effective as usize);
        for (p, data) in pieces.iter().zip(&found) {
            if let Some(data) = data {
                out.extend_from_slice(data);
            }
            out.resize((p.buf_offset + p.len) as usize, 0);
        }
        Ok(out)
    }

    /// Merge one daemon's reply into the read's per-piece resolution:
    /// each op the daemon holds a chunk for resolves its piece to the
    /// view of the reply bulk that carries its bytes (a refcount, not a
    /// copy); ops the daemon flagged *absent* stay unresolved for the
    /// next chain member. The reply's bulk is dense in op order
    /// regardless of resolution, so the cursor always advances by
    /// `lens[i]`.
    fn absorb_read(
        batch: &[(usize, ChunkOp)],
        reply: &ChunkReadReply,
        found: &mut [Option<Bytes>],
    ) -> Result<()> {
        if reply.lens.len() != batch.len() {
            return Err(GkfsError::Rpc(format!(
                "read reply has {} lens for {} ops",
                reply.lens.len(),
                batch.len()
            )));
        }
        let mut cursor = 0usize;
        for (i, (piece, op)) in batch.iter().enumerate() {
            let got = reply.lens[i] as usize;
            if reply.lens[i] > op.len || cursor + got > reply.bulk.len() {
                return Err(GkfsError::Rpc(format!(
                    "read reply overruns op for chunk {} ({got} bytes)",
                    op.chunk_id
                )));
            }
            if !reply.missing[i] && found[*piece].is_none() {
                found[*piece] = Some(reply.bulk.slice(cursor..cursor + got));
            }
            cursor += got;
        }
        Ok(())
    }

    /// Drive one read batch down its replica chain, merging replies
    /// **per op**: a member that holds a chunk resolves those ops in
    /// place; ops it flags absent (no chunk behind them — a
    /// rejoined-empty replica that missed the write, or a genuine
    /// hole) stay open for the next member, so an empty replica can
    /// never shadow data a sibling still holds. `first` is the
    /// already-submitted request to `chain[0]`. Each member but the
    /// last gets a hedge window ([`Placement::hedge_after`]; one full
    /// endpoint timeout when hedging is off); a window expiry moves on
    /// to the next member *without* recording a breaker failure
    /// against the slow node (see [`ReplyFuture::wait_hedge`]), keeping
    /// every still-pending future to be driven with the full remaining
    /// deadline once the chain is exhausted. The last member — the only
    /// one, with replication off — has nobody to hedge to and spends
    /// the whole budget.
    ///
    /// Each op resolves `found[piece]`, the slot of the piece it
    /// reads. Ops no member resolved leave theirs `None`: if every
    /// chain member answered — all flagged the chunk absent — the hole
    /// is authoritative and the caller zero-fills it. If any member was
    /// unreachable the
    /// read fails with that member's error instead: the data may live
    /// exactly there, and an error beats silently returning zeros for
    /// an acknowledged write.
    fn read_chain(
        &self,
        path: &str,
        batch: &[(usize, ChunkOp)],
        chain: &[NodeId],
        first: Result<ReplyFuture<'_, ChunkReadReply>>,
        deadline: Deadline,
        found: &mut [Option<Bytes>],
    ) -> Result<()> {
        let all_resolved =
            |found: &[Option<Bytes>]| batch.iter().all(|(piece, _)| found[*piece].is_some());
        let hedge = self.placement.hedge_after();
        // Every hedge-expired future is kept and driven below — for
        // the authoritative-hole rule each chain member must be heard
        // from (or count as an error), not just the earliest.
        let mut pending: Vec<ReplyFuture<'_, ChunkReadReply>> = Vec::new();
        let mut last_err: Option<GkfsError> = None;
        let mut fut_res = first;
        let mut idx = 0usize;
        loop {
            match fut_res {
                Ok(fut) => {
                    let last = idx + 1 == chain.len();
                    if last && pending.is_empty() {
                        // Nothing left to hedge to: spend the budget.
                        match fut.wait_deadline(deadline) {
                            Ok(reply) => Self::absorb_read(batch, &reply, found)?,
                            Err(e) => last_err = Some(e),
                        }
                    } else {
                        match fut.wait_hedge(hedge) {
                            Hedge::Ready(Ok(reply)) => {
                                Self::absorb_read(batch, &reply, found)?;
                                if all_resolved(found) {
                                    return Ok(());
                                }
                            }
                            Hedge::Ready(Err(e)) => last_err = Some(e),
                            Hedge::Pending(p) => pending.push(p),
                        }
                    }
                }
                Err(e) => last_err = Some(e),
            }
            idx += 1;
            if idx == chain.len() {
                break;
            }
            let ops: Vec<ChunkOp> = batch.iter().map(|&(_, op)| op).collect();
            fut_res = self.ring.read_chunks_nb(chain[idx], path, ops);
        }
        for p in pending {
            if all_resolved(found) {
                break;
            }
            match p.wait_deadline(deadline) {
                Ok(reply) => Self::absorb_read(batch, &reply, found)?,
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            // A member that may hold the data never answered.
            Some(e) if !all_resolved(found) => Err(e),
            // All resolved, or every member answered and the
            // unresolved ops are holes.
            _ => Ok(()),
        }
    }

    /// Send one displaced or forced write-back run to the daemons.
    /// Called with no locks held — the run was taken out under the
    /// buffer lock and the guard dropped before any RPC (GKL002). The
    /// run is owned here and lent to the write path as it is: the
    /// fan-out borrows sub-slices of `run.data`, it does not copy them.
    fn flush_run(&self, file: &OpenFile, run: WbRun) -> Result<()> {
        self.stats.wb_flushes.fetch_add(1, Ordering::Relaxed);
        let end = run.end();
        self.write_through(&file.path, run.start, &run.data)?;
        file.grow_cached_size(end);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Maintenance
    // ---------------------------------------------------------------

    /// Flush the buffered size update for one path, if any.
    pub fn flush_size(&self, path: &str) -> Result<()> {
        if let Some(p) = self.size_cache.drain(path) {
            self.send_size_update(&p.path, p.size, p.mtime_ns)?;
        }
        Ok(())
    }

    /// Flush all buffered state (unmount): every open handle's
    /// write-back run, then all buffered size updates — one update per
    /// dirty file, all submitted before any reply is awaited.
    pub fn flush_all(&self) -> Result<()> {
        // Buffer flushes first: they enqueue the size updates the
        // drain below sends.
        for file in self.files.open_files() {
            let run = file.wb.lock().take();
            if let Some(run) = run {
                self.flush_run(&file, run)?;
            }
        }
        let deadline = self.ring.op_deadline();
        let inflight: Vec<_> = self
            .size_cache
            .drain_all()
            .into_iter()
            .map(|p| self.submit_size_update(&p.path, p.size, p.mtime_ns))
            .collect();
        for call in inflight {
            self.quorum_wait(call, deadline)?;
        }
        Ok(())
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

    /// Consistency check across the whole namespace (the `fsck` admin
    /// operation):
    ///
    /// * **orphan chunks** — a daemon holds chunk files for a path
    ///   with no metadata entry (e.g. a remove whose data fan-out was
    ///   interrupted). These waste SSD space and are safe to purge.
    /// * **chunkless files** — metadata says `size > 0` but no daemon
    ///   holds any chunk. Legitimate for files extended purely by
    ///   `truncate` (they read as zeros), so reported for inspection,
    ///   not treated as damage.
    ///
    /// Like `readdir`, the scan is eventually consistent: run it on a
    /// quiescent namespace for exact results.
    pub fn fsck(&self) -> Result<FsckReport> {
        // 1. Global chunk inventory.
        let mut chunk_holders: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (node, inv) in self
            .ring
            .broadcast(|n| self.ring.chunk_inventory_nb(n))
            .into_iter()
            .enumerate()
        {
            for (path, _count) in inv? {
                chunk_holders.entry(path).or_default().push(node);
            }
        }

        // 2. Walk the namespace.
        let mut files: HashMap<String, u64> = HashMap::new();
        let mut stack = vec![gpath::ROOT.to_string()];
        let mut dirs = 0usize;
        while let Some(dir) = stack.pop() {
            dirs += 1;
            for e in self.readdir(&dir)? {
                let p = gpath::join(&dir, &e.name);
                match e.kind {
                    FileKind::Directory => stack.push(p),
                    FileKind::File => {
                        files.insert(p, e.size);
                    }
                }
            }
        }

        // 3. Cross-reference.
        let mut orphan_chunks = Vec::new();
        for (path, nodes) in &chunk_holders {
            if !files.contains_key(path) {
                for n in nodes {
                    orphan_chunks.push((*n, path.clone()));
                }
            }
        }
        orphan_chunks.sort();
        let mut chunkless_files: Vec<String> = files
            .iter()
            .filter(|(p, size)| **size > 0 && !chunk_holders.contains_key(*p))
            .map(|(p, _)| p.clone())
            .collect();
        chunkless_files.sort();

        Ok(FsckReport {
            files_checked: files.len(),
            directories_checked: dirs,
            orphan_chunks,
            chunkless_files,
        })
    }

    /// Purge the orphan chunks a previous [`GekkoClient::fsck`] found.
    /// Returns how many (node, path) holdings were removed.
    pub fn fsck_purge(&self, report: &FsckReport) -> Result<usize> {
        let deadline = self.ring.op_deadline();
        let inflight: Vec<_> = report
            .orphan_chunks
            .iter()
            .map(|(node, path)| self.ring.remove_chunks_nb(*node, path))
            .collect();
        for fut in inflight {
            fut?.wait_deadline(deadline)?;
        }
        Ok(report.orphan_chunks.len())
    }
}

/// An explicit open-file handle — the primary I/O surface of the
/// client ([`GekkoClient::open_handle`]).
///
/// The handle carries what GekkoFS keeps in its client-side open-file
/// table: the open flags, a cached size seeded by the open-time stat
/// (so reads and `SEEK_END` never pay a stat RPC), and an optional
/// write-back buffer that coalesces small sequential writes into
/// chunk-aligned batches ([`ClusterConfig::with_write_back`]).
///
/// Consistency contract: reads through the handle see its own buffered
/// writes immediately (read-your-writes), and `stat` on the same
/// client sees the buffered tail in the size; *other* clients see the
/// bytes only after `flush`/`fsync`/`close` — the same relaxation the
/// paper's §IV-B size cache already makes. Cross-client growth of the
/// file becomes visible on re-open.
///
/// Handles from [`GekkoClient::open_handle`] flush on drop
/// (best-effort, errors swallowed); call [`FileHandle::close`] to
/// observe flush errors. Views from [`GekkoClient::handle`] never
/// flush on drop — the descriptor table owns their lifecycle.
pub struct FileHandle<'c> {
    client: &'c GekkoClient,
    file: Arc<OpenFile>,
    /// The descriptor-table registration for handles that own their
    /// open file (`open_handle`). `None` for borrowed views
    /// ([`GekkoClient::handle`]) — those neither flush on drop nor
    /// deregister, `close(fd)` owns both.
    reg: Option<i32>,
}

impl FileHandle<'_> {
    /// The normalized path this handle is open on.
    pub fn path(&self) -> &str {
        &self.file.path
    }

    /// File or directory?
    pub fn kind(&self) -> FileKind {
        self.file.kind
    }

    /// The file size as this handle knows it: open-time size, grown by
    /// this handle's writes, including any unflushed write-back tail.
    /// Never issues an RPC.
    pub fn size(&self) -> u64 {
        self.client
            .stats
            .size_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        self.file.effective_size()
    }

    /// Full metadata (one stat, possibly served by the TTL cache),
    /// with the size merged against this handle's local knowledge.
    pub fn stat(&self) -> Result<Metadata> {
        let mut meta = self.client.stat(&self.file.path)?;
        meta.size = meta.size.max(self.file.effective_size());
        Ok(meta)
    }

    /// Positional write; does not move the handle's offset. Small
    /// writes coalesce in the write-back buffer when enabled.
    pub fn pwrite(&self, offset: u64, data: &[u8]) -> Result<usize> {
        let c = self.client;
        if !self.file.flags.write {
            return Err(GkfsError::BadFileDescriptor);
        }
        c.stats.write_ops.fetch_add(1, Ordering::Relaxed);
        c.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        if data.is_empty() {
            // POSIX: a zero-length write has no effect — in particular
            // it must not extend the file via a size update.
            return Ok(0);
        }
        let end = offset + data.len() as u64;
        // Decide under the buffer lock; every RPC happens after the
        // guard drops (GKL002).
        let (flush_first, through, ready) = {
            let mut wb = self.file.wb.lock();
            match wb.offer(offset, data) {
                Absorb::Buffered { flush_first } => {
                    let ready = if wb.full() { wb.take() } else { None };
                    (flush_first, false, ready)
                }
                Absorb::Through { flush_first } => (flush_first, true, None),
            }
        };
        if let Some(run) = flush_first {
            c.flush_run(&self.file, run)?;
        }
        if through {
            c.write_through(&self.file.path, offset, data)?;
            self.file.grow_cached_size(end);
        } else {
            c.stats
                .wb_buffered_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            // Buffered bytes stay visible to same-client stats.
            if let Some(cache) = &c.stat_cache {
                cache.bump_size(&self.file.path, end, now_ns());
            }
        }
        if let Some(run) = ready {
            c.flush_run(&self.file, run)?;
        }
        Ok(data.len())
    }

    /// Write at the current offset, advancing it. `O_APPEND` handles
    /// position at this handle's view of EOF — no stat RPC; concurrent
    /// appenders from different clients may interleave (no distributed
    /// locking, §III-A).
    pub fn write(&self, data: &[u8]) -> Result<usize> {
        if !self.file.flags.write {
            return Err(GkfsError::BadFileDescriptor);
        }
        let offset = if self.file.flags.append {
            let size = self.file.effective_size();
            self.file.seek_to(size + data.len() as u64);
            size
        } else {
            self.file.advance(data.len() as u64)
        };
        self.pwrite(offset, data)?;
        Ok(data.len())
    }

    /// Positional read; does not move the handle's offset. EOF comes
    /// from the handle's cached size (no stat RPC) and buffered
    /// write-back bytes overlay the daemons' data.
    pub fn pread(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let c = self.client;
        if !self.file.flags.read {
            return Err(GkfsError::BadFileDescriptor);
        }
        if self.file.kind == FileKind::Directory {
            return Err(GkfsError::IsDirectory);
        }
        c.stats.read_ops.fetch_add(1, Ordering::Relaxed);
        // Look at the buffered run once: the same state answers the
        // EOF question and the overlay below, even if a concurrent
        // flush empties the buffer in between. Only the bytes this
        // read overlaps are copied out.
        let (wb_end, overlay) = {
            let wb = self.file.wb.lock();
            (wb.end(), wb.snapshot(offset, len as u64))
        };
        let size = self.file.cached_size().max(wb_end.unwrap_or(0));
        c.stats
            .size_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        if offset >= size || len == 0 {
            return Ok(Vec::new());
        }
        let effective = (len as u64).min(size - offset);
        let mut out = c.read_scatter(&self.file.path, offset, effective)?;
        if let Some(run) = overlay {
            // Within the result: `size` covers the run's end, so the
            // overlap with `[offset, offset + len)` ends inside
            // `[offset, offset + effective)`.
            let dst = (run.start - offset) as usize;
            out[dst..dst + run.data.len()].copy_from_slice(&run.data);
        }
        c.stats
            .bytes_read
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Read from the current offset, advancing by the bytes returned.
    pub fn read(&self, len: usize) -> Result<Vec<u8>> {
        if !self.file.flags.read {
            return Err(GkfsError::BadFileDescriptor);
        }
        if self.file.kind == FileKind::Directory {
            return Err(GkfsError::IsDirectory);
        }
        let size = self.file.effective_size();
        let pos = self.file.pos();
        let avail = size.saturating_sub(pos).min(len as u64);
        let start = self.file.advance(avail);
        self.pread(start, avail as usize)
    }

    /// Reposition the handle. `SEEK_END` resolves against the cached
    /// size — no stat RPC.
    pub fn seek(&self, offset: i64, whence: Whence) -> Result<u64> {
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => self.file.pos() as i64,
            Whence::End => self.size() as i64,
        };
        let target = base + offset;
        if target < 0 {
            return Err(GkfsError::InvalidArgument("seek before start".into()));
        }
        Ok(self.file.seek_to(target as u64))
    }

    /// Force the write-back buffer and any buffered size update out to
    /// the daemons. After `flush` returns Ok, every byte written
    /// through this handle is visible to every client.
    pub fn flush(&self) -> Result<()> {
        let run = self.file.wb.lock().take();
        if let Some(run) = run {
            self.client.flush_run(&self.file, run)?;
        }
        self.client.flush_size(&self.file.path)
    }

    /// `fsync(2)` semantics: [`FileHandle::flush`].
    pub fn fsync(&self) -> Result<()> {
        self.flush()
    }

    /// Truncate (or extend) the file, flushing buffered writes first
    /// (program order: writes issued before the truncate land before
    /// it applies).
    pub fn truncate(&self, new_size: u64) -> Result<()> {
        self.client.truncate(&self.file.path, new_size)
    }

    /// Close the handle, flushing buffered state and reporting errors
    /// (the drop flush cannot).
    pub fn close(mut self) -> Result<()> {
        if let Some(fd) = self.reg.take() {
            let _ = self.client.files.remove(fd);
        }
        self.flush()
    }
}

impl Drop for FileHandle<'_> {
    fn drop(&mut self) {
        if let Some(fd) = self.reg.take() {
            let _ = self.client.files.remove(fd);
            // Best-effort: close() is the error-reporting path.
            let _ = self.flush();
        }
    }
}

/// Outcome of [`GekkoClient::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Regular files examined.
    pub files_checked: usize,
    /// Directories walked.
    pub directories_checked: usize,
    /// `(daemon, path)` pairs holding chunks with no metadata entry.
    pub orphan_chunks: Vec<(NodeId, String)>,
    /// Files whose size is positive but which have no chunks anywhere
    /// (sparse-by-truncate, or lost data).
    pub chunkless_files: Vec<String>,
}

impl FsckReport {
    /// No orphans found (chunkless files are informational).
    pub fn is_clean(&self) -> bool {
        self.orphan_chunks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_daemon::Daemon;

    fn cluster(nodes: usize) -> (Vec<Arc<Daemon>>, GekkoClient) {
        cluster_with(nodes, ClusterConfig::new(nodes))
    }

    fn cluster_with(nodes: usize, config: ClusterConfig) -> (Vec<Arc<Daemon>>, GekkoClient) {
        let daemons: Vec<Arc<Daemon>> = (0..nodes)
            .map(|_| Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap())
            .collect();
        let endpoints: Vec<Arc<dyn Endpoint>> = daemons.iter().map(|d| d.endpoint()).collect();
        let client = GekkoClient::mount(endpoints, &config).unwrap();
        (daemons, client)
    }

    #[test]
    fn create_stat_unlink() {
        let (_d, c) = cluster(4);
        c.create("/file", 0o644).unwrap();
        let m = c.stat("/file").unwrap();
        assert_eq!(m.kind, FileKind::File);
        assert_eq!(m.size, 0);
        assert!(matches!(c.create("/file", 0o644), Err(GkfsError::Exists)));
        c.unlink("/file").unwrap();
        assert!(matches!(c.stat("/file"), Err(GkfsError::NotFound)));
    }

    #[test]
    fn write_read_roundtrip_single_chunk() {
        let (_d, c) = cluster(4);
        let h = c.open_handle("/f", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"hello distributed world").unwrap();
        assert_eq!(c.stat("/f").unwrap().size, 23);
        assert_eq!(h.pread(0, 100).unwrap(), b"hello distributed world");
        assert_eq!(h.pread(6, 11).unwrap(), b"distributed");
        h.close().unwrap();
    }

    #[test]
    fn write_read_spanning_many_chunks_and_nodes() {
        // Small chunks force wide striping.
        let config = ClusterConfig::new(4).with_chunk_size(4096);
        let (_d, c) = cluster_with(4, config);
        let h = c.open_handle("/big", OpenFlags::RDWR.with_create()).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        h.pwrite(0, &data).unwrap();
        assert_eq!(c.stat("/big").unwrap().size, 100_000);
        assert_eq!(h.size(), 100_000);
        let back = h.pread(0, 100_000).unwrap();
        assert_eq!(back, data);
        // Unaligned interior read crossing chunk boundaries.
        let slice = h.pread(4000, 10_000).unwrap();
        assert_eq!(slice, &data[4000..14_000]);
        h.close().unwrap();
        // Verify chunks really spread over multiple daemons.
        let stats = c.cluster_stats().unwrap();
        let nodes_with_data = stats.iter().filter(|s| s.storage_write_bytes > 0).count();
        assert!(nodes_with_data >= 3, "striping hit {nodes_with_data} nodes");
    }

    #[test]
    fn sparse_files_read_zeros() {
        let config = ClusterConfig::new(2).with_chunk_size(4096);
        let (_d, c) = cluster_with(2, config);
        let h = c.open_handle("/sparse", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(10_000, b"tail").unwrap();
        assert_eq!(c.stat("/sparse").unwrap().size, 10_004);
        assert_eq!(h.pread(0, 16).unwrap(), vec![0u8; 16]);
        assert_eq!(h.pread(10_000, 10).unwrap(), b"tail");
        h.close().unwrap();
    }

    #[test]
    fn reads_stop_at_eof() {
        let (_d, c) = cluster(2);
        let h = c.open_handle("/short", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"12345").unwrap();
        assert_eq!(h.pread(0, 1000).unwrap(), b"12345");
        assert!(h.pread(5, 10).unwrap().is_empty());
        assert!(h.pread(500, 10).unwrap().is_empty());
        h.close().unwrap();
        // A fresh read-only handle sees the same EOF from its open-time
        // stat, without a per-read round trip.
        let r = c.open_handle("/short", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 1000).unwrap(), b"12345");
        assert!(r.pread(5, 10).unwrap().is_empty());
        r.close().unwrap();
    }

    #[test]
    fn fd_read_write_seek() {
        let (_d, c) = cluster(3);
        let fd = c
            .open("/fd-file", OpenFlags::create_truncate().with_exclusive())
            .unwrap();
        // create_truncate is write-only; reopen for read-write.
        c.close(fd).unwrap();
        let fd = c.open("/fd-file", OpenFlags::RDWR).unwrap();
        assert_eq!(c.write(fd, b"abcdef").unwrap(), 6);
        assert_eq!(c.lseek(fd, 0, Whence::Set).unwrap(), 0);
        assert_eq!(c.read(fd, 3).unwrap(), b"abc");
        assert_eq!(c.read(fd, 10).unwrap(), b"def");
        assert!(c.read(fd, 10).unwrap().is_empty(), "at EOF");
        assert_eq!(c.lseek(fd, -2, Whence::End).unwrap(), 4);
        assert_eq!(c.read(fd, 10).unwrap(), b"ef");
        c.close(fd).unwrap();
        assert!(matches!(c.read(fd, 1), Err(GkfsError::BadFileDescriptor)));
    }

    #[test]
    fn pread_pwrite_do_not_move_position() {
        let (_d, c) = cluster(2);
        let fd = c.open("/p", OpenFlags::RDWR.with_create()).unwrap();
        c.pwrite(fd, 0, b"0123456789").unwrap();
        assert_eq!(c.pread(fd, 4, 3).unwrap(), b"456");
        assert_eq!(c.files().get(fd).unwrap().pos(), 0, "position unmoved");
        assert_eq!(c.read(fd, 2).unwrap(), b"01");
        c.close(fd).unwrap();
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let (_d, c) = cluster(2);
        let h = c.open_handle("/log", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, b"first").unwrap();
        h.close().unwrap();
        let fd = c.open("/log", OpenFlags::WRONLY.with_append()).unwrap();
        c.write(fd, b"|second").unwrap();
        c.close(fd).unwrap();
        let r = c.open_handle("/log", OpenFlags::RDONLY).unwrap();
        assert_eq!(r.pread(0, 100).unwrap(), b"first|second");
    }

    #[test]
    fn open_nonexistent_fails_without_create() {
        let (_d, c) = cluster(2);
        assert!(matches!(
            c.open("/nope", OpenFlags::RDONLY),
            Err(GkfsError::NotFound)
        ));
        // O_CREAT|O_EXCL on existing file fails.
        c.create("/exists", 0o644).unwrap();
        assert!(matches!(
            c.open("/exists", OpenFlags::WRONLY.with_create().with_exclusive()),
            Err(GkfsError::Exists)
        ));
        // Plain O_CREAT succeeds on existing file.
        let fd = c.open("/exists", OpenFlags::WRONLY.with_create()).unwrap();
        c.close(fd).unwrap();
    }

    #[test]
    fn open_creat_on_directory_is_eisdir() {
        let (_d, c) = cluster(2);
        c.mkdir("/a-dir", 0o755).unwrap();
        // Non-exclusive O_CREAT|O_WRONLY on a directory: EISDIR.
        assert!(matches!(
            c.open("/a-dir", OpenFlags::WRONLY.with_create()),
            Err(GkfsError::IsDirectory)
        ));
        // Read-only open of the directory (for the file map) works.
        let fd = c.open("/a-dir", OpenFlags::RDONLY.with_create()).unwrap();
        assert_eq!(c.files().get(fd).unwrap().kind, FileKind::Directory);
        c.close(fd).unwrap();
        // Exclusive create of the same path still refuses (Exists).
        assert!(matches!(
            c.open("/a-dir", OpenFlags::WRONLY.with_create().with_exclusive()),
            Err(GkfsError::Exists)
        ));
    }

    #[test]
    fn open_truncate_clears_data() {
        let (_d, c) = cluster(2);
        let h = c.open_handle("/t", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, b"old contents").unwrap();
        h.close().unwrap();
        let fd = c.open("/t", OpenFlags::WRONLY.with_truncate()).unwrap();
        c.close(fd).unwrap();
        assert_eq!(c.stat("/t").unwrap().size, 0);
        let r = c.open_handle("/t", OpenFlags::RDONLY).unwrap();
        assert!(r.pread(0, 100).unwrap().is_empty());
    }

    #[test]
    fn mkdir_readdir_rmdir() {
        let (_d, c) = cluster(4);
        c.mkdir("/dir", 0o755).unwrap();
        for i in 0..20 {
            c.create(&format!("/dir/f{i:02}"), 0o644).unwrap();
        }
        c.mkdir("/dir/sub", 0o755).unwrap();
        let entries = c.readdir("/dir").unwrap();
        assert_eq!(entries.len(), 21);
        assert!(entries.windows(2).all(|w| w[0].name <= w[1].name), "sorted");
        assert_eq!(
            entries.iter().filter(|e| e.kind == FileKind::Directory).count(),
            1
        );
        // Non-empty directory refuses rmdir.
        assert!(matches!(c.rmdir("/dir"), Err(GkfsError::NotEmpty)));
        for i in 0..20 {
            c.unlink(&format!("/dir/f{i:02}")).unwrap();
        }
        c.rmdir("/dir/sub").unwrap();
        c.rmdir("/dir").unwrap();
        assert!(matches!(c.stat("/dir"), Err(GkfsError::NotFound)));
    }

    #[test]
    fn readdir_reports_sizes_like_ls_l() {
        // §III-A motivates readdir with `ls -l`: the listing must carry
        // sizes without a per-entry stat round.
        let (_d, c) = cluster(3);
        c.mkdir("/ls", 0o755).unwrap();
        let h = c.open_handle("/ls/small", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, b"12345").unwrap();
        h.close().unwrap();
        let h = c.open_handle("/ls/large", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, &vec![0u8; 10_000]).unwrap();
        h.close().unwrap();
        c.mkdir("/ls/sub", 0o755).unwrap();
        let entries = c.readdir("/ls").unwrap();
        let by_name: std::collections::HashMap<&str, &gkfs_common::types::Dirent> =
            entries.iter().map(|e| (e.name.as_str(), e)).collect();
        assert_eq!(by_name["small"].size, 5);
        assert_eq!(by_name["large"].size, 10_000);
        assert_eq!(by_name["sub"].size, 0);
        assert_eq!(by_name["sub"].kind, FileKind::Directory);
    }

    #[test]
    fn readdir_root_and_type_errors() {
        let (_d, c) = cluster(2);
        c.create("/a", 0o644).unwrap();
        let root = c.readdir("/").unwrap();
        assert_eq!(root.len(), 1);
        assert!(matches!(c.readdir("/a"), Err(GkfsError::NotDirectory)));
        assert!(matches!(c.rmdir("/a"), Err(GkfsError::NotDirectory)));
        assert!(matches!(c.unlink("/"), Err(GkfsError::IsDirectory)));
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let config = ClusterConfig::new(3).with_chunk_size(4096);
        let (_d, c) = cluster_with(3, config);
        let h = c.open_handle("/t", OpenFlags::RDWR.with_create()).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 256) as u8).collect();
        h.pwrite(0, &data).unwrap();
        h.truncate(5000).unwrap();
        assert_eq!(c.stat("/t").unwrap().size, 5000);
        assert_eq!(h.size(), 5000, "open handle snaps to the new size");
        let back = h.pread(0, 20_000).unwrap();
        assert_eq!(back, &data[..5000]);
        // Extending truncate zero-fills.
        c.truncate("/t", 8000).unwrap();
        assert_eq!(c.stat("/t").unwrap().size, 8000);
        let back = h.pread(0, 8000).unwrap();
        assert_eq!(&back[..5000], &data[..5000]);
        assert!(back[5000..].iter().all(|&b| b == 0));
        h.close().unwrap();
    }

    #[test]
    fn unsupported_operations() {
        let (_d, c) = cluster(1);
        assert!(matches!(c.rename("/a", "/b"), Err(GkfsError::Unsupported(_))));
        assert!(matches!(c.link("/a", "/b"), Err(GkfsError::Unsupported(_))));
        assert!(matches!(c.symlink("/a", "/b"), Err(GkfsError::Unsupported(_))));
    }

    #[test]
    fn size_cache_buffers_and_flushes() {
        let config = ClusterConfig::new(2).with_size_cache(8);
        let (_d, c) = cluster_with(2, config);
        let h = c.open_handle("/cached", OpenFlags::WRONLY.with_create()).unwrap();
        for i in 0..5 {
            h.pwrite(i * 10, &[1u8; 10]).unwrap();
        }
        // Fewer writes than the window: nothing sent yet, but the
        // writing client still sees its own size.
        assert_eq!(c.stats().size_updates_sent.load(Ordering::Relaxed), 0);
        assert_eq!(c.stat("/cached").unwrap().size, 50);
        c.flush_size("/cached").unwrap();
        assert_eq!(c.stats().size_updates_sent.load(Ordering::Relaxed), 1);
        // After flush the daemons agree.
        for i in 5..8 {
            h.pwrite(i * 10, &[1u8; 10]).unwrap();
        }
        for i in 8..16 {
            h.pwrite(i * 10, &[1u8; 10]).unwrap();
        }
        // 11 buffered writes crossed the window of 8 once.
        assert!(c.stats().size_updates_sent.load(Ordering::Relaxed) >= 2);
        c.flush_all().unwrap();
        assert_eq!(c.stat("/cached").unwrap().size, 160);
        h.close().unwrap();
    }

    #[test]
    fn concurrent_shared_file_writers_converge() {
        let config = ClusterConfig::new(4).with_chunk_size(4096);
        let (_d, c) = cluster_with(4, config);
        let h = c.open_handle("/shared", OpenFlags::RDWR.with_create()).unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let off = (t * 50 + i) * 100;
                        h.pwrite(off, &[t as u8 + 1; 100]).unwrap();
                    }
                });
            }
        });
        assert_eq!(c.stat("/shared").unwrap().size, 40_000);
        let data = h.pread(0, 40_000).unwrap();
        assert!(data.iter().all(|&b| (1..=8).contains(&b)));
        h.close().unwrap();
    }

    #[test]
    fn deep_paths_and_many_files_balance() {
        let (_d, c) = cluster(8);
        for i in 0..400 {
            c.create(&format!("/load/f{i}"), 0o644).unwrap();
        }
        let stats = c.cluster_stats().unwrap();
        let counts: Vec<u64> = stats.iter().map(|s| s.meta_entries).collect();
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 401, "400 files + root (no /load dir needed: flat ns)");
        let max = *counts.iter().max().unwrap();
        assert!(max < 120, "metadata should balance, worst node has {max}");
    }

    #[test]
    fn write_local_distribution_pins_data_to_own_node() {
        use gkfs_common::config::DistributorKind;
        let config = ClusterConfig::new(4)
            .with_chunk_size(4096)
            .with_distributor(DistributorKind::WriteLocal);
        let daemons: Vec<Arc<Daemon>> = (0..4)
            .map(|_| Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap())
            .collect();
        let endpoints = |d: &Vec<Arc<Daemon>>| -> Vec<Arc<dyn Endpoint>> {
            d.iter().map(|x| x.endpoint()).collect()
        };

        // Rank on node 2 writes its private file: every byte must land
        // on daemon 2 (the BurstFS pattern).
        let c2 = GekkoClient::mount_on(endpoints(&daemons), &config, 2).unwrap();
        let h2 = c2
            .open_handle("/rank2.out", OpenFlags::RDWR.with_create())
            .unwrap();
        let data: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
        h2.pwrite(0, &data).unwrap();
        for (n, d) in daemons.iter().enumerate() {
            let w_bytes = d.backends().data.stats().write_bytes.load(Ordering::Relaxed);
            if n == 2 {
                assert_eq!(w_bytes, 50_000, "all data on the local node");
            } else {
                assert_eq!(w_bytes, 0, "node {n} must hold nothing");
            }
        }
        // The writer reads its own data back fine.
        assert_eq!(h2.pread(0, 50_000).unwrap(), data);
        h2.close().unwrap();

        // The documented BurstFS limitation: a client on another node
        // can stat the file (metadata is hash-placed) but resolves the
        // chunks to *its* node and sees holes.
        let c0 = GekkoClient::mount_on(endpoints(&daemons), &config, 0).unwrap();
        assert_eq!(c0.stat("/rank2.out").unwrap().size, 50_000);
        let h0 = c0.open_handle("/rank2.out", OpenFlags::RDONLY).unwrap();
        let cross = h0.pread(0, 100).unwrap();
        assert_eq!(cross, vec![0u8; 100], "cross-node read sees holes");
    }

    #[test]
    fn mount_validates_config() {
        let d = Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap();
        let eps: Vec<Arc<dyn Endpoint>> = vec![d.endpoint()];
        assert!(GekkoClient::mount(eps, &ClusterConfig::new(2)).is_err());
    }

    #[test]
    fn fsck_clean_namespace() {
        let config = ClusterConfig::new(4).with_chunk_size(4096);
        let (_d, c) = cluster_with(4, config);
        c.mkdir("/data", 0o755).unwrap();
        for i in 0..10 {
            let p = format!("/data/f{i}");
            let h = c.open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
            h.pwrite(0, &vec![1u8; 10_000]).unwrap();
            h.close().unwrap();
        }
        let report = c.fsck().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.files_checked, 10);
        assert!(report.directories_checked >= 2, "root + /data");
        assert!(report.chunkless_files.is_empty());
    }

    #[test]
    fn fsck_finds_and_purges_orphan_chunks() {
        let config = ClusterConfig::new(3).with_chunk_size(4096);
        let (daemons, c) = cluster_with(3, config);
        let h = c
            .open_handle("/will-orphan", OpenFlags::WRONLY.with_create())
            .unwrap();
        h.pwrite(0, &vec![7u8; 30_000]).unwrap();
        h.close().unwrap();
        // Sabotage: remove the metadata entry directly on its owner,
        // leaving the chunks stranded (a remove whose fan-out died).
        let mut removed = false;
        for d in &daemons {
            let remove = MetaOp::Unlink(PathReq::new("/will-orphan"));
            if d.backends().meta.apply_one(remove).is_ok() {
                removed = true;
                break;
            }
        }
        assert!(removed);
        let report = c.fsck().unwrap();
        assert!(!report.is_clean());
        assert!(report
            .orphan_chunks
            .iter()
            .all(|(_, p)| p == "/will-orphan"));
        let purged = c.fsck_purge(&report).unwrap();
        assert!(purged > 0);
        // Second pass: clean.
        assert!(c.fsck().unwrap().is_clean());
    }

    #[test]
    fn fsck_reports_truncate_extended_files_as_chunkless() {
        let (_d, c) = cluster(2);
        c.create("/sparse-only", 0o644).unwrap();
        c.truncate("/sparse-only", 5000).unwrap();
        let report = c.fsck().unwrap();
        assert!(report.is_clean(), "sparse files are not damage");
        assert_eq!(report.chunkless_files, vec!["/sparse-only".to_string()]);
    }

    #[test]
    fn stat_cache_eliminates_round_trips_but_sees_own_writes() {
        let config = ClusterConfig::new(2).with_stat_cache_ttl_ms(60_000);
        let (daemons, c) = cluster_with(2, config);
        let h = c.open_handle("/hot", OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, b"12345").unwrap();
        h.close().unwrap();

        let gets = |ds: &Vec<Arc<Daemon>>| -> u64 {
            ds.iter()
                .map(|d| d.backends().meta.db().stats().gets.load(Ordering::Relaxed))
                .sum()
        };
        let before = gets(&daemons);
        // A storm of stats: at most one daemon round trip.
        for _ in 0..100 {
            assert_eq!(c.stat("/hot").unwrap().size, 5);
        }
        let delta = gets(&daemons) - before;
        assert!(delta <= 1, "cache should absorb the storm, saw {delta} gets");

        // The client's own writes stay visible (bump_size).
        let h = c.open_handle("/hot", OpenFlags::WRONLY).unwrap();
        h.pwrite(100, b"x").unwrap();
        h.close().unwrap();
        assert_eq!(c.stat("/hot").unwrap().size, 101);
        // Truncate invalidates; next stat refetches the exact value.
        c.truncate("/hot", 3).unwrap();
        assert_eq!(c.stat("/hot").unwrap().size, 3);
        // Unlink invalidates; stat misses cleanly.
        c.unlink("/hot").unwrap();
        assert!(c.stat("/hot").is_err());
    }

    #[test]
    fn stat_cache_staleness_is_bounded_by_ttl() {
        let config = ClusterConfig::new(2).with_stat_cache_ttl_ms(30);
        let (_d, observer) = cluster_with(2, config);
        observer.create("/ttl", 0o644).unwrap();
        // Prime the observer's cache with size 0.
        assert_eq!(observer.stat("/ttl").unwrap().size, 0);
        // A different client (no shared cache) grows the file.
        let writer = {
            let endpoints: Vec<Arc<dyn Endpoint>> =
                _d.iter().map(|d| d.endpoint()).collect();
            GekkoClient::mount(endpoints, &ClusterConfig::new(2)).unwrap()
        };
        let wh = writer.open_handle("/ttl", OpenFlags::WRONLY).unwrap();
        wh.pwrite(0, b"abcdef").unwrap();
        wh.close().unwrap();
        // Within the TTL the observer may still see the stale size;
        // after expiry it must see the truth.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(observer.stat("/ttl").unwrap().size, 6);
    }

    #[test]
    fn write_back_coalesces_small_writes() {
        let config = ClusterConfig::new(2).with_write_back(64 * 1024);
        let (daemons, c) = cluster_with(2, config);
        let h = c.open_handle("/wb", OpenFlags::RDWR.with_create()).unwrap();
        // 8 sequential 1 KiB writes: all buffered, zero data RPCs.
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        for i in 0..8usize {
            h.pwrite(i as u64 * 1024, &payload[i * 1024..(i + 1) * 1024])
                .unwrap();
        }
        assert_eq!(c.stats().wb_buffered_bytes.load(Ordering::Relaxed), 8192);
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 0);
        // Read-your-writes straight from the buffer; size included.
        assert_eq!(h.pread(0, 8192).unwrap(), payload);
        assert_eq!(h.size(), 8192);
        assert_eq!(c.stat("/wb").unwrap().size, 8192);
        // Another client sees nothing until the flush...
        let other = {
            let eps: Vec<Arc<dyn Endpoint>> = daemons.iter().map(|d| d.endpoint()).collect();
            GekkoClient::mount(eps, &ClusterConfig::new(2)).unwrap()
        };
        assert_eq!(other.stat("/wb").unwrap().size, 0);
        // ...which lands all eight writes as one coalesced batch.
        h.flush().unwrap();
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 1);
        assert_eq!(other.stat("/wb").unwrap().size, 8192);
        let oh = other.open_handle("/wb", OpenFlags::RDONLY).unwrap();
        assert_eq!(oh.pread(0, 8192).unwrap(), payload);
        oh.close().unwrap();
        h.close().unwrap();
    }

    #[test]
    fn write_back_drains_at_capacity_and_on_displacement() {
        let config = ClusterConfig::new(2).with_write_back(4096);
        let (_d, c) = cluster_with(2, config);
        let h = c.open_handle("/drain", OpenFlags::RDWR.with_create()).unwrap();
        for i in 0..4u64 {
            h.pwrite(i * 1024, &[i as u8 + 1; 1024]).unwrap();
        }
        // Hit capacity: exactly one coalesced batch went out.
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 1);
        // A disjoint write displaces the current run.
        h.pwrite(100_000, b"far").unwrap();
        h.pwrite(4096, b"near").unwrap();
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 2);
        h.flush().unwrap();
        assert_eq!(c.stats().wb_flushes.load(Ordering::Relaxed), 3);
        assert_eq!(h.size(), 100_003);
        assert_eq!(h.pread(100_000, 3).unwrap(), b"far");
        assert_eq!(h.pread(4096, 4).unwrap(), b"near");
        // An oversized write (>= capacity) goes straight through.
        h.pwrite(0, &vec![9u8; 8192]).unwrap();
        assert_eq!(
            c.stats().wb_flushes.load(Ordering::Relaxed),
            3,
            "write-through, not a buffer flush"
        );
        assert_eq!(h.pread(0, 8192).unwrap(), vec![9u8; 8192]);
        h.close().unwrap();
    }

    #[test]
    fn buffered_writes_survive_truncate_ordering() {
        // Writes buffered before a truncate must land before it
        // applies (program order), so the truncate wins.
        let config = ClusterConfig::new(2).with_write_back(64 * 1024);
        let (_d, c) = cluster_with(2, config);
        let h = c.open_handle("/order", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"0123456789").unwrap();
        h.truncate(4).unwrap();
        assert_eq!(h.size(), 4);
        assert_eq!(h.pread(0, 100).unwrap(), b"0123");
        // Writing after the truncate extends again from the cut.
        h.pwrite(4, b"XY").unwrap();
        h.flush().unwrap();
        assert_eq!(c.stat("/order").unwrap().size, 6);
        assert_eq!(h.pread(0, 100).unwrap(), b"0123XY");
        h.close().unwrap();
    }

    #[test]
    fn handle_reads_skip_the_stat_round_trip() {
        let (daemons, c) = cluster(2);
        let h = c
            .open_handle("/no-read-stat", OpenFlags::RDWR.with_create())
            .unwrap();
        h.pwrite(0, b"0123456789").unwrap();
        let gets = |ds: &Vec<Arc<Daemon>>| -> u64 {
            ds.iter()
                .map(|d| d.backends().meta.db().stats().gets.load(Ordering::Relaxed))
                .sum()
        };
        let before = gets(&daemons);
        for _ in 0..50 {
            assert_eq!(h.pread(0, 10).unwrap(), b"0123456789");
        }
        assert_eq!(
            gets(&daemons) - before,
            0,
            "handle reads must not stat the metadata owner"
        );
        assert!(c.stats().size_cache_hits.load(Ordering::Relaxed) >= 50);
        // SEEK_END is served from the cached size too.
        assert_eq!(h.seek(0, Whence::End).unwrap(), 10);
        assert_eq!(gets(&daemons) - before, 0);
        h.close().unwrap();
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

    #[test]
    fn lease_revocations_keep_stat_cache_honest() {
        let config = ClusterConfig::new(2).with_stat_cache_ttl_ms(60_000);
        let (_d, c) = cluster_with(2, config);
        c.create("/lease", 0o644).unwrap();
        assert!(c.stats().lease_invalidations.load(Ordering::Relaxed) >= 1);
        assert_eq!(c.stat("/lease").unwrap().size, 0);
        // Truncate revokes: the very next stat refetches the truth.
        c.truncate("/lease", 123).unwrap();
        assert_eq!(c.stat("/lease").unwrap().size, 123);
        c.unlink("/lease").unwrap();
        assert!(c.stat("/lease").is_err());
        // mkdir/rmdir revoke too (a stale "directory exists" entry
        // would make a later create look spuriously conflicted).
        c.mkdir("/ld", 0o755).unwrap();
        c.stat("/ld").unwrap();
        let n = c.stats().lease_invalidations.load(Ordering::Relaxed);
        c.rmdir("/ld").unwrap();
        assert!(c.stats().lease_invalidations.load(Ordering::Relaxed) > n);
        assert!(c.stat("/ld").is_err());
    }

    #[test]
    fn bulk_apis_batch_frames_and_report_per_op_results() {
        let (_d, c) = cluster(2);
        let paths: Vec<String> = (0..20).map(|i| format!("/bulk/f{i}")).collect();
        let rpc0 = c.stats().rpcs_issued.load(Ordering::Relaxed);
        let res = c.create_many(&paths, 0o644).unwrap();
        assert!(res.iter().all(Result::is_ok));
        // 20 creates over 2 daemons: at most one frame per daemon.
        let create_rpcs = c.stats().rpcs_issued.load(Ordering::Relaxed) - rpc0;
        assert!(create_rpcs <= 2, "{create_rpcs} RPCs for 20 batched creates");
        // Per-op verdicts come back in slots, not as a call error.
        let res = c
            .create_many(&[paths[0].as_str(), "/bulk/new"], 0o644)
            .unwrap();
        assert!(matches!(res[0], Err(GkfsError::Exists)));
        assert!(res[1].is_ok());
        let stats = c.stat_many(&paths).unwrap();
        for s in &stats {
            assert_eq!(s.as_ref().unwrap().size, 0);
        }
        assert!(matches!(
            c.stat_many(&["/bulk/nope"]).unwrap()[0],
            Err(GkfsError::NotFound)
        ));
        // Batched unlink refuses directories per-op; rmdir still works.
        c.mkdir("/bulkdir", 0o755).unwrap();
        assert!(matches!(
            c.unlink_many(&["/bulkdir"]).unwrap()[0],
            Err(GkfsError::IsDirectory)
        ));
        c.rmdir("/bulkdir").unwrap();
        let res = c.unlink_many(&paths).unwrap();
        assert!(res.iter().all(Result::is_ok));
        assert!(matches!(
            c.unlink_many(&[paths[0].as_str()]).unwrap()[0],
            Err(GkfsError::NotFound)
        ));
        assert!(matches!(c.stat("/bulk/f0"), Err(GkfsError::NotFound)));
        // Daemons group-applied the mutation frames...
        let ds = c.cluster_stats().unwrap();
        assert!(ds.iter().map(|s| s.meta_batches).sum::<u64>() >= 2);
        assert!(ds.iter().map(|s| s.meta_batch_ops).sum::<u64>() >= 40);
        assert!(ds.iter().map(|s| s.meta_group_applies).sum::<u64>() >= 2);
        // ...and the client histogram saw multi-op frames.
        let hist: Vec<u64> = c
            .stats()
            .meta_batch_hist
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect();
        assert!(hist[2] + hist[3] + hist[4] + hist[5] > 0, "hist {hist:?}");
    }

    #[test]
    fn bulk_unlink_removes_chunks_of_non_empty_files() {
        let config = ClusterConfig::new(2).with_chunk_size(4096);
        let (d, c) = cluster_with(2, config);
        for i in 0..4 {
            let h = c
                .open_handle(&format!("/uf{i}"), OpenFlags::RDWR.with_create())
                .unwrap();
            h.pwrite(0, &vec![7u8; 10_000]).unwrap();
            h.close().unwrap();
        }
        let res = c.unlink_many(&["/uf0", "/uf1", "/uf2", "/uf3"]).unwrap();
        assert!(res.iter().all(Result::is_ok));
        // Every daemon dropped the chunks, not just the metadata.
        for daemon in &d {
            for i in 0..4 {
                let held = daemon
                    .backends()
                    .data
                    .chunk_count(&format!("/uf{i}"))
                    .unwrap();
                assert_eq!(held, 0, "/uf{i} left chunks behind");
            }
        }
    }

    #[test]
    fn transparent_batching_coalesces_creates() {
        let config = ClusterConfig::new(2).with_meta_batch(8);
        let (_d, c) = cluster_with(2, config);
        let rpc0 = c.stats().rpcs_issued.load(Ordering::Relaxed);
        for i in 0..16 {
            c.create(&format!("/t{i}"), 0o644).unwrap();
        }
        // 16 queued creates over 2 per-daemon queues (cap 8): at most
        // two count-trigger frames have gone out so far.
        let create_rpcs = c.stats().rpcs_issued.load(Ordering::Relaxed) - rpc0;
        assert!(create_rpcs <= 2, "{create_rpcs} RPCs while queueing");
        // Reading a queued path flushes its queue first: the stat
        // observes the create (read-your-writes).
        assert_eq!(c.stat("/t0").unwrap().kind, FileKind::File);
        // readdir is a full barrier: every queued create is visible.
        let names: Vec<String> = c
            .readdir("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        for i in 0..16 {
            assert!(names.contains(&format!("t{i}")), "t{i} missing");
        }
        assert_eq!(c.stats().meta_ops_batched.load(Ordering::Relaxed), 16);
        let s = c.stats();
        let flushes = s.meta_flush_count.load(Ordering::Relaxed)
            + s.meta_flush_hazard.load(Ordering::Relaxed)
            + s.meta_flush_explicit.load(Ordering::Relaxed)
            + s.meta_flush_deadline.load(Ordering::Relaxed);
        assert!(flushes >= 1);
    }

    #[test]
    fn transparent_batching_defers_per_op_errors_to_the_flush() {
        let config = ClusterConfig::new(2).with_meta_batch(64);
        let (_d, c) = cluster_with(2, config);
        c.create("/dup", 0o644).unwrap();
        c.flush_meta().unwrap();
        // The duplicate enqueues cleanly; its Exists surfaces at the
        // flushing call (write-back-style deferred error).
        c.create("/dup", 0o644).unwrap();
        assert!(matches!(c.flush_meta(), Err(GkfsError::Exists)));
        // Same deferral when the flush is a read barrier: the second
        // create of /h displaces the first (same-path hazard), and the
        // stat's own barrier flush carries the duplicate's verdict.
        c.create("/h", 0o644).unwrap();
        c.create("/h", 0o644).unwrap();
        assert!(matches!(c.stat("/h"), Err(GkfsError::Exists)));
        assert!(c.stats().meta_flush_hazard.load(Ordering::Relaxed) >= 1);
        // The entry itself landed; the queue is clean again.
        assert_eq!(c.stat("/h").unwrap().kind, FileKind::File);
    }

    #[test]
    fn transparent_batching_orders_against_unary_ops() {
        let config = ClusterConfig::new(3).with_meta_batch(64);
        let (_d, c) = cluster_with(3, config);
        // Queued mkdir, then rmdir: the rmdir's full barrier flushes
        // the mkdir before probing emptiness.
        c.mkdir("/bd", 0o755).unwrap();
        c.rmdir("/bd").unwrap();
        assert!(matches!(c.stat("/bd"), Err(GkfsError::NotFound)));
        // Queued create, then truncate: the per-path barrier flushes
        // the create before the truncate's metadata update.
        c.create("/tr", 0o644).unwrap();
        c.truncate("/tr", 100).unwrap();
        assert_eq!(c.stat("/tr").unwrap().size, 100);
        // Queued create, then unlink: the unlink's stat barrier makes
        // the entry real before removing it.
        c.create("/un", 0o644).unwrap();
        c.unlink("/un").unwrap();
        assert!(matches!(c.stat("/un"), Err(GkfsError::NotFound)));
        // Queued create, then open for write: open's unary create
        // barrier keeps path program order.
        c.create("/op", 0o644).unwrap();
        let h = c.open_handle("/op", OpenFlags::RDWR).unwrap();
        h.pwrite(0, b"abc").unwrap();
        h.close().unwrap();
        assert_eq!(c.stat("/op").unwrap().size, 3);
    }

    /// A daemon whose chunk reads answer `delay` late (everything else
    /// at once), counting the reads it is asked for.
    struct SleepyReads {
        inner: Arc<dyn Endpoint>,
        delay: std::time::Duration,
        reads: Arc<AtomicU64>,
        repliers: std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>,
    }

    impl Endpoint for SleepyReads {
        fn submit(&self, req: gkfs_rpc::Request) -> Result<gkfs_rpc::ReplyHandle> {
            if req.opcode != gkfs_rpc::Opcode::ReadChunks {
                return self.inner.submit(req);
            }
            self.reads.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let (inner, delay) = (Arc::clone(&self.inner), self.delay);
            self.repliers.lock().unwrap().push(std::thread::spawn(move || {
                std::thread::sleep(delay);
                let _ = tx.send(inner.call(req));
            }));
            Ok(gkfs_rpc::ReplyHandle::pending(rx))
        }
    }

    impl Drop for SleepyReads {
        fn drop(&mut self) {
            for t in self.repliers.lock().unwrap().drain(..) {
                let _ = t.join();
            }
        }
    }

    #[test]
    fn hedge_after_zero_waits_the_member_out() {
        // `hedge_after_ms: 0` is documented as "hedging off". Every
        // daemon answers chunk reads 120 ms late — past the 50 ms
        // window that used to be hard-wired in for this case, far
        // inside the endpoint timeout — so a read must cost exactly one
        // request: no second chain member may be asked.
        let mut config = ClusterConfig::new(3).with_replicas(2);
        config.replication.hedge_after_ms = 0;
        let daemons: Vec<Arc<Daemon>> = (0..3)
            .map(|_| Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap())
            .collect();
        let reads = Arc::new(AtomicU64::new(0));
        let endpoints: Vec<Arc<dyn Endpoint>> = daemons
            .iter()
            .map(|d| {
                Arc::new(SleepyReads {
                    inner: d.endpoint(),
                    delay: std::time::Duration::from_millis(120),
                    reads: Arc::clone(&reads),
                    repliers: Default::default(),
                }) as Arc<dyn Endpoint>
            })
            .collect();
        let c = GekkoClient::mount(endpoints, &config).unwrap();
        let h = c.open_handle("/slow", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"payload").unwrap();
        let rpc0 = c.stats().rpcs_issued.load(Ordering::Relaxed);
        assert_eq!(h.pread(0, 7).unwrap(), b"payload");
        assert_eq!(c.stats().rpcs_issued.load(Ordering::Relaxed) - rpc0, 1);
        assert_eq!(reads.load(Ordering::Relaxed), 1, "a second replica was asked");
        h.close().unwrap();
    }

    #[test]
    fn batched_mutations_ride_the_replication_quorum() {
        let config = ClusterConfig::new(3).with_replicas(2).with_meta_batch(16);
        let (_d, c) = cluster_with(3, config);
        let paths: Vec<String> = (0..12).map(|i| format!("/r{i}")).collect();
        let res = c.create_many(&paths, 0o644).unwrap();
        assert!(res.iter().all(Result::is_ok));
        // Every mutation frame landed on `replicas` daemons: summed
        // daemon-side batched ops must be 2x the client-side ops.
        let ds = c.cluster_stats().unwrap();
        let daemon_ops: u64 = ds.iter().map(|s| s.meta_batch_ops).sum();
        assert!(
            daemon_ops >= 2 * 12,
            "batched creates under-replicated: {daemon_ops} daemon ops"
        );
        for p in &paths {
            assert_eq!(c.stat(p).unwrap().size, 0);
        }
    }
}
