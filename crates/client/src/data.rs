//! The data path: a write split into chunk pieces and fanned out to
//! every piece's write set, a read gathered back down each piece's
//! replica chain, and the size update that follows a write to the
//! file's metadata owner.

use crate::client::{now_ns, GekkoClient};
use crate::filemap::{LocalFile, SizeUpdate};
use crate::meta_frames::QuorumCall;
use crate::rpc::{ChunkReadReply, Hedge, ReplyFuture};
use crate::writeback::WbRun;
use bytes::Bytes;
use gkfs_common::chunk::chunk_range;
use gkfs_common::distributor::NodeId;
use gkfs_common::retry::Deadline;
use gkfs_common::{GkfsError, Result};
use gkfs_rpc::proto::ChunkOp;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

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

impl GekkoClient {
    /// Submit a size update to `path`'s metadata write set (the flush
    /// path of the §IV-B window).
    pub(crate) fn submit_size_update(&self, path: &str, update: SizeUpdate) -> QuorumCall<'static, ()> {
        self.stats.size_updates_sent.fetch_add(1, Ordering::Relaxed);
        self.quorum_submit(self.placement.meta_primary(path), |n| {
            self.ring.update_size_nb(n, path, update.size, update.mtime_ns)
        })
    }

    /// One size update, sent and awaited. What the TTL stat cache holds
    /// for `path` predates it, so the entry goes.
    pub(crate) fn send_size_update(&self, path: &str, update: SizeUpdate) -> Result<()> {
        let deadline = self.ring.op_deadline();
        let sent = self.quorum_wait(self.submit_size_update(path, update), deadline);
        self.revoke_lease(path);
        sent
    }

    /// The raw write path: split into chunks, fan every piece out to
    /// its write set, then tell the file's record the bytes landed and
    /// send the size update it hands back — none while the §IV-B
    /// window absorbs it. Counts no client ops — callers do.
    ///
    /// `data` is never copied here: each daemon's batch is a list of
    /// sub-slices of it (the scatter/gather list an RDMA transport
    /// would build), borrowed until that daemon has acknowledged.
    pub(crate) fn write_through(&self, local: &LocalFile, offset: u64, data: &[u8]) -> Result<()> {
        let pieces = chunk_range(self.layout, offset, data.len() as u64);
        self.fan_out_writes(&local.path, &pieces, data)?;
        match local.wrote(offset + data.len() as u64, now_ns())? {
            Some(update) => self.send_size_update(&local.path, update),
            None => Ok(()),
        }
    }

    /// The write fan-out: every chunk-piece goes to **all** members of
    /// its write set (`Placement::chunk_set`), batched per daemon;
    /// all batches are submitted before any reply is awaited — the
    /// striped write gets a single time budget, not N stacked timeouts
    /// — and every reply is awaited before judging the outcome (no
    /// early return — a replica must not miss bytes merely because a
    /// sibling errored first). The write succeeds iff every piece was
    /// acknowledged by at least `Placement::quorum` members of its
    /// set; with replication off that is "its one owner said Ok".
    pub(crate) fn fan_out_writes(
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
    /// one read chain (`Placement::read_chain`), so a whole batch
    /// fails over together. Each batch first goes to its chain's first
    /// member; see [`GekkoClient::read_chain`] for how it moves on.
    pub(crate) fn read_scatter(&self, path: &str, offset: u64, effective: u64) -> Result<Vec<u8>> {
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
    pub(crate) fn absorb_read(
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
    /// last gets a hedge window (`Placement::hedge_after`; one full
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
    pub(crate) fn read_chain(
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
    /// record's lock and the guard dropped before any RPC (GKL002). The
    /// run is owned here and lent to the write path as it is: the
    /// fan-out borrows sub-slices of `run.data`, it does not copy them.
    pub(crate) fn flush_run(&self, local: &LocalFile, run: WbRun) -> Result<()> {
        self.stats.wb_flushes.fetch_add(1, Ordering::Relaxed);
        self.write_through(local, run.start, &run.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::testing::{cluster, cluster_with};
    use gkfs_common::{ClusterConfig, OpenFlags};
    use gkfs_daemon::Daemon;
    use gkfs_rpc::Endpoint;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

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
        h.flush().unwrap();
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
}
