//! The data path: a write split into chunk pieces and fanned out to
//! every piece's write set, with its size update — and, for a file the
//! daemons have not been told of, its create — riding the data legs
//! that reach the file's metadata owner: one fan-out, one deadline, one
//! wait. And a read gathered back down each piece's replica chain,
//! its bytes landing where the caller wants them.

use crate::client::{now_ns, GekkoClient};
use crate::filemap::{LocalFile, Riders, SizeUpdate};
use crate::rpc::{Hedge, ReplyFuture};
use crate::writeback::WbRun;
use gkfs_common::chunk::chunk_range;
use gkfs_common::distributor::NodeId;
use gkfs_common::retry::Deadline;
use gkfs_common::{GkfsError, Result};
use gkfs_rpc::proto::{ChunkBatchReq, ChunkOp, WriteFileReq};
use gkfs_rpc::Landing;
use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One daemon's share of a write: its chunk ops and, in the same
/// order, the sub-slices of the caller's buffer they carry.
type NodeBatch<'a> = (Vec<ChunkOp>, Vec<&'a [u8]>);

/// One read chain's share of a read: its chunk ops and, in the same
/// order, the windows of the result their bytes land in.
type ReadBatch<'o> = (Vec<ChunkOp>, Vec<&'o mut [MaybeUninit<u8>]>);

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

/// A write in flight, as a value: one leg per daemon it concerns, all
/// submitted, none awaited ([`GekkoClient::submit_write`]).
/// [`GekkoClient::finish_write`] awaits every leg under the one
/// deadline taken here and only then tells the path's record.
#[must_use = "unless `finish_write` hears every leg, a failed leg goes unnoticed"]
pub(crate) struct WriteInFlight<'a> {
    local: &'a LocalFile,
    /// What the bytes say once acknowledged (none: a flush that had no
    /// run to send).
    wrote: Option<SizeUpdate>,
    /// What rides the legs to the metadata write set.
    riders: Riders,
    /// The path's metadata write set, in set order: whose answers the
    /// riders are judged by (empty: nothing rides).
    meta_set: Vec<NodeId>,
    /// Each piece's chunk id and write set, in piece order.
    piece_sets: Vec<(u64, Vec<NodeId>)>,
    /// Legs already answered: an unborn file's create frames, when the
    /// write also has legs bound for daemons outside the metadata
    /// write set, which could not leave before these were in.
    answered: HashMap<NodeId, Result<()>>,
    /// One leg per daemon still to be heard from.
    legs: Vec<(NodeId, Result<ReplyFuture<'a, ()>>)>,
    deadline: Deadline,
}

impl GekkoClient {
    /// Put a write in flight: split `data` into chunk pieces, ask the
    /// path's record what rides with it ([`LocalFile::riders`] — the
    /// size candidate, `offset + len`, is known before a byte moves;
    /// `flush` forces the §IV-B window out too; an unborn file's create
    /// goes with whatever is sent first), and submit **every** leg
    /// before any reply is awaited. Each piece goes to **all** members
    /// of its write set (`Placement::chunk_set`), batched per daemon,
    /// and this function alone decides each daemon's frame, from
    /// `Placement` and nothing else:
    ///
    /// * a member of the path's metadata write set (`Placement::meta_set`)
    ///   gets the riders — aboard its data batch as one `WriteFile`
    ///   frame when it has one or a create rides (chunk 0 is placed
    ///   with the metadata, so that is every write of every small
    ///   file), as a plain `UpdateSize` when it has neither;
    /// * every other daemon, and every daemon when nothing rides, gets
    ///   a plain `WriteChunks`.
    ///
    /// The metadata legs leave first (the paper's order: the size
    /// update ahead of up to megabytes). The write gets a single time
    /// budget, not one per leg. **A create never shares a fan-out with
    /// a leg bound elsewhere**: a refused create must have written
    /// nothing anywhere, so when an unborn file's first flush has
    /// pieces for daemons outside the metadata write set (a seek past
    /// chunk 0), the create frames are acknowledged before any of those
    /// legs leaves — two serial rounds, once in that file's life. A
    /// path that is gone sends nothing. The record's guard is dropped
    /// inside `riders`, before the first leg leaves (GKL002). Counts no
    /// client ops — callers do.
    ///
    /// `data` is never copied here: each daemon's batch is a list of
    /// sub-slices of it (the scatter/gather list an RDMA transport
    /// would build), borrowed until that daemon has acknowledged.
    pub(crate) fn submit_write<'a>(
        &self,
        local: &'a LocalFile,
        offset: u64,
        data: &'a [u8],
        flush: bool,
    ) -> Result<WriteInFlight<'a>> {
        let path = &local.path;
        let end = offset + data.len() as u64;
        let wrote = (!data.is_empty()).then(|| SizeUpdate { size: end, mtime_ns: now_ns() });
        let riders = local.riders(wrote, flush)?;
        let deadline = self.ring.op_deadline();
        self.stats.size_updates_sent.fetch_add(u64::from(riders.update.is_some()), Ordering::Relaxed);
        let mut per_node: HashMap<NodeId, NodeBatch<'_>> = HashMap::new();
        let pieces = chunk_range(self.layout, offset, data.len() as u64);
        let mut piece_sets = Vec::with_capacity(pieces.len());
        for p in &pieces {
            let set = self.placement.chunk_set(path, p.chunk_id);
            for &node in &set {
                push_piece(&mut per_node, node, p, data);
            }
            piece_sets.push((p.chunk_id, set));
        }
        let riding = riders.update.is_some() || riders.create.is_some();
        let meta_set = if riding { self.placement.meta_set(path) } else { Vec::new() };
        let mut legs: Vec<_> = meta_set
            .iter()
            .map(|&node| {
                let leg = match (per_node.remove(&node), riders.create, riders.update) {
                    (None, None, Some(u)) => self.ring.update_size_nb(node, path, u.size, u.mtime_ns),
                    (batch, create, _) => {
                        let (ops, bulk) = batch.unwrap_or_default();
                        let batch = ChunkBatchReq { path: path.clone(), ops };
                        let req = WriteFileReq { batch, size: riders.update, create, resubmitted: false };
                        self.ring.write_file_nb(node, req, bulk)
                    }
                };
                (node, leg)
            })
            .collect();
        let mut answered = HashMap::new();
        if riders.create.is_some() && !per_node.is_empty() {
            answered.extend(legs.drain(..).map(|(node, leg)| (node, leg.and_then(|f| f.wait_deadline(deadline)))));
            if self.riders_verdict(path, &meta_set, &answered).is_err() {
                // Refused, or unheard: the other legs never leave.
                per_node.clear();
            }
        }
        legs.extend(
            per_node
                .into_iter()
                .map(|(node, (ops, bulk))| (node, self.ring.write_chunks_nb(node, path, ops, bulk))),
        );
        Ok(WriteInFlight { local, wrote, riders, meta_set, piece_sets, answered, legs, deadline })
    }

    /// What the metadata write set `meta_set` of `path` made of the
    /// riders, from each member's answer: [`GekkoClient::quorum_verdict`]'s
    /// rule, the one every metadata mutation is judged by. A frame that
    /// carried data too counts once, here and for its pieces.
    fn riders_verdict(&self, path: &str, meta_set: &[NodeId], outcomes: &HashMap<NodeId, Result<()>>) -> Result<()> {
        let primary = self.placement.meta_primary(path);
        let results = meta_set.iter().map(|n| outcomes[n].clone()).collect();
        self.quorum_verdict(primary, meta_set.first() == Some(&primary), results)
    }

    /// Await every leg of a write in flight — no early return: a
    /// replica must not miss bytes, nor the metadata owner its update,
    /// merely because a sibling errored first — then judge. The data
    /// succeeds iff every piece was acknowledged by at least
    /// `Placement::quorum` members of its set (with replication off:
    /// "its one owner said Ok"), the riders by
    /// [`GekkoClient::quorum_verdict`]'s rule over the metadata write
    /// set's answers; the data's error comes first if both failed. The
    /// record hears the create's verdict whatever became of the data
    /// ([`LocalFile::published`]: a refusal ends it, and is this
    /// write's error), and of the bytes only once they are in
    /// ([`LocalFile::landed`]): a failed data leg leaves it as it was.
    pub(crate) fn finish_write(&self, write: WriteInFlight<'_>) -> Result<()> {
        let WriteInFlight { local, wrote, riders, meta_set, piece_sets, answered: mut outcomes, legs, deadline } = write;
        if legs.is_empty() && outcomes.is_empty() {
            // A flush that found nothing to send (a clean record, or a
            // path that is gone): nothing to await, nothing to record.
            return Ok(());
        }
        // Last submitted, first awaited: the metadata legs left first and
        // are heard last, by when such a leg is its thread's only handle
        // on its connection and its waiter reads the reply itself.
        outcomes.extend(legs.into_iter().rev().map(|(node, fut)| (node, fut.and_then(|f| f.wait_deadline(deadline)))));
        let rode = if meta_set.is_empty() {
            Ok(())
        } else {
            self.riders_verdict(&local.path, &meta_set, &outcomes)
        };
        if let Some(create) = riders.create {
            local.published(create, &rode);
            // No create, no file: whatever else failed, this is why.
            rode.clone()?;
        }
        let quorum = self.placement.quorum();
        for (chunk_id, set) in &piece_sets {
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
                        "chunk {chunk_id} of {}: {acks}/{quorum} replica acks",
                        local.path
                    ))
                }));
            }
        }
        local.landed(wrote, riders.update.filter(|_| rode.is_ok()))?;
        rode
    }

    /// One write, sent and awaited.
    pub(crate) fn write_through(&self, local: &LocalFile, offset: u64, data: &[u8]) -> Result<()> {
        self.finish_write(self.submit_write(local, offset, data, false)?)
    }

    /// The raw scatter-gather read of `out.len()` bytes at `offset`;
    /// the caller has already clamped the length to EOF. On success
    /// every byte of `out` is initialised: each op's bytes landed in its
    /// piece's window of `out`, holes and short tails zero-filled in
    /// place. On an error its contents are unspecified.
    ///
    /// Grouping is by **primary** node (not by whichever member a
    /// batch happens to be sent to): all chunks sharing a primary share
    /// one read chain (`Placement::read_chain`), so a whole batch
    /// fails over together. Each batch first goes to its chain's first
    /// member; see [`GekkoClient::read_chain`] for how it moves on. A
    /// batch's windows need not be adjacent: a read over two daemons
    /// interleaves them.
    pub(crate) fn read_scatter(&self, path: &str, offset: u64, out: &mut [MaybeUninit<u8>]) -> Result<()> {
        let pieces = chunk_range(self.layout, offset, out.len() as u64);
        // Each op travels with its piece's window of the result (pieces
        // are in buffer order and tile it).
        let mut per_primary: HashMap<NodeId, ReadBatch<'_>> = HashMap::new();
        let mut rest = out;
        for p in &pieces {
            let (window, after) = std::mem::take(&mut rest).split_at_mut(p.len as usize);
            rest = after;
            let (ops, windows) = per_primary.entry(self.placement.chunk_primary(path, p.chunk_id)).or_default();
            ops.push(ChunkOp { chunk_id: p.chunk_id, offset: p.offset, len: p.len });
            windows.push(window);
        }
        // Every byte of `out` is some piece's: the zero-fill below then
        // reaches every byte no reply did.
        assert!(rest.is_empty(), "chunk pieces tile the read");

        // The gather submits one read batch per group before waiting
        // on any reply, so every daemon streams its chunks back
        // concurrently.
        let deadline = self.ring.op_deadline();
        let inflight: Vec<_> = per_primary
            .into_iter()
            .map(|(primary, (ops, windows))| {
                let chain = self.placement.read_chain(primary);
                let first = self.ring.read_chunks_nb(chain[0], path, ops.clone());
                (ops, Landing::new(windows), chain, first)
            })
            .collect();
        // Bytes the client wrote into the result itself: copies of
        // replies that were not received into place, and zeros.
        let mut assembled = 0;
        for (ops, mut land, chain, first) in inflight {
            self.read_chain(path, &ops, &chain, first, deadline, &mut land)?;
            assembled += land.copied() + land.zero_fill();
        }
        self.stats.read_assembly_copy_bytes.fetch_add(assembled, Ordering::Relaxed);
        Ok(())
    }

    /// Drive one read batch down its replica chain, merging replies
    /// **per op** in `land`: a member that holds a chunk resolves those
    /// ops — its bytes land in their windows; ops it flags absent (no
    /// chunk behind them — a rejoined-empty replica that missed the
    /// write, or a genuine hole) stay open for the next member, whose
    /// bytes land in the same windows, so an empty replica can never
    /// shadow data a sibling still holds. `first` is the
    /// already-submitted request to `chain[0]`. Each member but the
    /// last gets a hedge window (`Placement::hedge_after`; one full
    /// endpoint timeout when hedging is off); a window expiry moves on
    /// to the next member *without* recording a breaker failure
    /// against the slow node (see [`ReplyFuture::wait_hedge`]), keeping
    /// every still-pending future to be driven with the full remaining
    /// deadline once the chain is exhausted; an op one of them resolved
    /// lands nothing from the others. The last member — the only one,
    /// with replication off — has nobody to hedge to and spends the
    /// whole budget.
    ///
    /// Ops no member resolved stay open: if every chain member
    /// answered — all flagged the chunk absent — the hole is
    /// authoritative and the caller zero-fills it. If any member was
    /// unreachable the read fails with that member's error instead: the
    /// data may live exactly there, and an error beats silently
    /// returning zeros for an acknowledged write.
    pub(crate) fn read_chain(
        &self,
        path: &str,
        ops: &[ChunkOp],
        chain: &[NodeId],
        first: Result<ReplyFuture<'_, ()>>,
        deadline: Deadline,
        land: &mut Landing<'_>,
    ) -> Result<()> {
        let hedge = self.placement.hedge_after();
        // Every hedge-expired future is kept and driven below — for
        // the authoritative-hole rule each chain member must be heard
        // from (or count as an error), not just the earliest.
        let mut pending: Vec<ReplyFuture<'_, ()>> = Vec::new();
        let mut last_err: Option<GkfsError> = None;
        let mut fut_res = first;
        let mut idx = 0usize;
        loop {
            match fut_res {
                Ok(fut) => {
                    let last = idx + 1 == chain.len();
                    if last && pending.is_empty() {
                        // Nothing left to hedge to: spend the budget.
                        if let Err(e) = fut.wait_landing(deadline, land) {
                            last_err = Some(e);
                        }
                    } else {
                        match fut.wait_hedge(hedge, Some(&mut *land)) {
                            Hedge::Ready(Ok(())) if land.done() => return Ok(()),
                            Hedge::Ready(Ok(())) => {}
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
            fut_res = self.ring.read_chunks_nb(chain[idx], path, ops.to_vec());
        }
        for p in pending {
            if land.done() {
                break;
            }
            if let Err(e) = p.wait_landing(deadline, land) {
                last_err = Some(e);
            }
        }
        match last_err {
            // A member that may hold the data never answered.
            Some(e) if !land.done() => Err(e),
            // All resolved, or every member answered and the
            // unresolved ops are holes.
            _ => Ok(()),
        }
    }

    /// Put a write-back run (and, with `flush`, whatever size update
    /// the §IV-B window holds: one merged update, not two) in flight.
    /// Called with no locks held — the run was taken out under the
    /// record's lock and the guard dropped before any RPC (GKL002). The
    /// run is lent to the write path as it is: the fan-out borrows
    /// sub-slices of `run.data`, it does not copy them.
    pub(crate) fn submit_run<'a>(
        &self,
        local: &'a LocalFile,
        run: Option<&'a WbRun>,
        flush: bool,
    ) -> Result<WriteInFlight<'a>> {
        self.stats.wb_flushes.fetch_add(u64::from(run.is_some()), Ordering::Relaxed);
        let (start, data) = run.map_or((0, &[][..]), |r| (r.start, &r.data[..]));
        self.submit_write(local, start, data, flush)
    }

    /// Send one displaced or full write-back run to the daemons.
    pub(crate) fn flush_run(&self, local: &LocalFile, run: WbRun) -> Result<()> {
        self.finish_write(self.submit_run(local, Some(&run), false)?)
    }

    /// Dirty files [`GekkoClient::flush_files`] keeps in flight at
    /// once: bounds what one thread has submitted and not yet awaited
    /// to this many write-back runs.
    const FLUSH_IN_FLIGHT: usize = 16;

    /// Force out everything `files` hold back — write-back run,
    /// buffered size update, an unborn file's create — one write in
    /// flight per file, [`Self::FLUSH_IN_FLIGHT`] files at a time.
    /// Every file is attempted and every leg awaited whatever failed
    /// before it; the first error is the result. Files are taken in
    /// one order by every caller: a submit may wait for another
    /// thread's create in flight ([`LocalFile::riders`]) while this
    /// thread's own are still unanswered.
    pub(crate) fn flush_files(&self, files: &mut [Arc<LocalFile>]) -> Result<()> {
        files.sort_by_key(Arc::as_ptr);
        let mut first_err = None;
        for files in files.chunks(Self::FLUSH_IN_FLIGHT) {
            let runs: Vec<_> = files.iter().map(|local| local.take_run()).collect();
            let inflight: Vec<_> = files
                .iter()
                .zip(&runs)
                .map(|(local, run)| self.submit_run(local, run.as_ref(), true))
                .collect();
            for write in inflight {
                if let Err(e) = write.and_then(|w| self.finish_write(w)) {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The hazard rule of an unborn file, with no local shortcut: a
    /// call of this mount about to consult the daemons about `path`
    /// publishes the file first — its first flush, create aboard — so
    /// the daemons answer about the namespace this client's calls so
    /// far describe. A refusal surfaces here, at the flushing call.
    pub(crate) fn publish(&self, path: &str) -> Result<()> {
        match self.files.local(path) {
            Some(local) if local.unborn() => self.flush_files(&mut [local]),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::testing::{cluster, cluster_with};
    use gkfs_common::{ClusterConfig, OpenFlags};
    use gkfs_daemon::Daemon;
    use gkfs_rpc::{Endpoint, Fate, Link, Opcode, Until};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

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

    /// What a node is scripted to do, per opcode: everything it is asked
    /// is logged, and `refused` ops come back as an application error,
    /// which nothing retries.
    #[derive(Default)]
    struct Script {
        refused: Mutex<Vec<Opcode>>,
        asked: Mutex<Vec<Opcode>>,
    }

    /// A node's link, and what it is scripted to do.
    type Scripted = (Arc<Link>, Arc<Script>);

    /// `nodes` daemons behind scripted links, on which `slow` ops are
    /// delivered `delay_ms` late (the others at once).
    fn doctored_cluster(
        config: &ClusterConfig,
        slow: &[Opcode],
        delay_ms: u64,
    ) -> (Vec<Arc<Daemon>>, Vec<Scripted>, GekkoClient) {
        let daemons: Vec<Arc<Daemon>> = (0..config.nodes)
            .map(|_| Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap())
            .collect();
        let doctored: Vec<_> = daemons
            .iter()
            .map(|d| {
                let (script, slow) = (Arc::new(Script::default()), slow.to_vec());
                let on = Arc::clone(&script);
                let link = Link::with_rule(d.endpoint(), move |req, _| {
                    on.asked.lock().unwrap().push(req.opcode);
                    if on.refused.lock().unwrap().contains(&req.opcode) {
                        let refusal = GkfsError::InvalidArgument(format!("{:?} refused", req.opcode));
                        Fate::Answer(gkfs_rpc::Response::err(refusal))
                    } else if slow.contains(&req.opcode) {
                        Fate::HoldRequest(Until::Elapsed(Duration::from_millis(delay_ms)))
                    } else {
                        Fate::Pass
                    }
                });
                (link, script)
            })
            .collect();
        let client = GekkoClient::mount(links(&doctored), config).unwrap();
        (daemons, doctored, client)
    }

    fn links(doctored: &[Scripted]) -> Vec<Arc<dyn Endpoint>> {
        doctored.iter().map(|(link, _)| Arc::clone(link) as Arc<dyn Endpoint>).collect()
    }

    fn refuse(doctored: &[Scripted], ops: &[Opcode]) {
        for (_, script) in doctored {
            *script.refused.lock().unwrap() = ops.to_vec();
        }
    }

    fn asked(doctored: &[Scripted]) -> Vec<Opcode> {
        doctored.iter().flat_map(|(_, script)| script.asked.lock().unwrap().clone()).collect()
    }

    /// A path whose chunk 1 is placed apart from its metadata, and the
    /// offset of that chunk: a write there has two legs, `UpdateSize`
    /// and `WriteChunks`. (Chunk 0 never has: it lives with the inode.)
    fn apart(c: &GekkoClient) -> (String, u64) {
        let path = (0..)
            .map(|i| format!("/apart{i}"))
            .find(|p| c.placement.chunk_primary(p, 1) != c.placement.meta_primary(p))
            .unwrap();
        (path, c.layout.chunk_size)
    }

    // The two legs of a write in flight, failing one at a time.

    #[test]
    fn a_failed_data_leg_fails_the_write_and_leaves_the_record_as_it_was() {
        // The size leg answers 60 ms late, the data leg is refused at
        // once: the write must still hear the size leg out.
        let (_d, doctored, c) = doctored_cluster(&ClusterConfig::new(2), &[Opcode::UpdateSize], 60);
        let (path, far) = apart(&c);
        let h = c.open_handle(&path, OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(far, b"1234").unwrap();
        refuse(&doctored, &[Opcode::WriteChunks]);
        let (rpc0, t0) = (c.stats().rpcs_issued.load(Ordering::Relaxed), Instant::now());
        let err = h.pwrite(far + 4, b"5678").unwrap_err();
        assert!(matches!(&err, GkfsError::InvalidArgument(m) if m.contains("WriteChunks")), "{err:?}");
        assert!(t0.elapsed() >= Duration::from_millis(60), "the size leg's reply was not awaited");
        assert_eq!(c.stats().rpcs_issued.load(Ordering::Relaxed) - rpc0, 2, "both legs left");
        assert_eq!(h.size(), far + 4, "the record did not grow");
        refuse(&doctored, &[]);
        // Nothing was left behind to send, either.
        let rpc1 = c.stats().rpcs_issued.load(Ordering::Relaxed);
        h.flush().unwrap();
        assert_eq!(c.stats().rpcs_issued.load(Ordering::Relaxed), rpc1);
        // The documented consequence of sending the candidate with the
        // data (the paper sends it first) to another daemon: the
        // owner's size did grow.
        assert_eq!(c.stat(&path).unwrap().size, far + 8);
        h.close().unwrap();
    }

    #[test]
    fn a_failed_size_leg_fails_the_write_whose_bytes_landed() {
        let (_d, doctored, c) = doctored_cluster(&ClusterConfig::new(2), &[], 0);
        let (path, far) = apart(&c);
        let h = c.open_handle(&path, OpenFlags::RDWR.with_create()).unwrap();
        refuse(&doctored, &[Opcode::UpdateSize]);
        let err = h.pwrite(far, b"landed").unwrap_err();
        assert!(matches!(&err, GkfsError::InvalidArgument(m) if m.contains("UpdateSize")), "{err:?}");
        // The bytes are at the chunk owner and the record knows it; the
        // candidate waits for the next update that gets through.
        assert_eq!(h.pread(far, 6).unwrap(), b"landed");
        refuse(&doctored, &[]);
        h.close().unwrap();
        assert_eq!(c.stat(&path).unwrap().size, far + 6);
    }

    #[test]
    fn when_both_legs_fail_the_data_legs_error_is_the_writes() {
        let (_d, doctored, c) = doctored_cluster(&ClusterConfig::new(2), &[], 0);
        let (path, far) = apart(&c);
        let h = c.open_handle(&path, OpenFlags::RDWR.with_create()).unwrap();
        refuse(&doctored, &[Opcode::UpdateSize, Opcode::WriteChunks]);
        let before = asked(&doctored).len();
        let err = h.pwrite(far, b"nowhere").unwrap_err();
        assert!(matches!(&err, GkfsError::InvalidArgument(m) if m.contains("WriteChunks")), "{err:?}");
        assert_eq!(asked(&doctored).len() - before, 2);
        assert_eq!(h.size(), 0);
    }

    #[test]
    fn a_write_that_reaches_the_metadata_owner_is_one_frame_and_fails_whole() {
        // Chunk 0 lives with the inode: its write and its size update
        // are one `WriteFile` to one daemon, and there is no such thing
        // as one of them failing alone — in particular no size grown at
        // the owner ahead of bytes that never landed.
        let (_d, doctored, c) = doctored_cluster(&ClusterConfig::new(2), &[], 0);
        let h = c.open_handle("/f", OpenFlags::RDWR.with_create()).unwrap();
        let before = asked(&doctored).len();
        h.pwrite(0, b"1234").unwrap();
        assert_eq!(asked(&doctored)[before..], [Opcode::WriteFile]);
        assert_eq!(c.stats().size_updates_sent.load(Ordering::Relaxed), 1, "the candidate rode it");
        refuse(&doctored, &[Opcode::WriteFile]);
        let err = h.pwrite(4, b"5678").unwrap_err();
        assert!(matches!(&err, GkfsError::InvalidArgument(m) if m.contains("WriteFile")), "{err:?}");
        assert_eq!(h.size(), 4, "the record did not grow");
        refuse(&doctored, &[]);
        assert_eq!(c.stat("/f").unwrap().size, 4, "nor did the owner's size");
        // A chunk the hash happens to place with the metadata rides the
        // same frame; only a daemon outside the metadata set is sent a
        // plain `WriteChunks`.
        let together = (1..).find(|&id| c.placement.chunk_primary("/f", id) == c.placement.meta_primary("/f")).unwrap();
        let before = asked(&doctored).len();
        h.pwrite(together * c.layout.chunk_size, b"abcd").unwrap();
        assert_eq!(asked(&doctored)[before..], [Opcode::WriteFile]);
        h.close().unwrap();
    }

    #[test]
    fn a_write_to_an_unlinked_path_sends_neither_leg() {
        let (_d, doctored, c) = doctored_cluster(&ClusterConfig::new(2).with_write_back(4096), &[], 0);
        let h = c.open_handle("/gone", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"buffered").unwrap();
        c.unlink("/gone").unwrap();
        let before = asked(&doctored).len();
        assert!(matches!(h.pwrite(0, &[7u8; 8192]), Err(GkfsError::NotFound)));
        h.flush().unwrap();
        h.close().unwrap();
        assert_eq!(asked(&doctored).len(), before, "zero RPCs");
    }

    #[test]
    fn both_legs_share_one_deadline_and_one_wait() {
        // Each leg answers after 0.6 D. Side by side under one deadline
        // D the write is done at 0.6 D; one after the other (each under
        // a deadline of its own) it took 1.2 D.
        const D: u64 = 2000;
        let config = ClusterConfig::new(2).with_op_deadline_ms(D);
        let (_d, _doctored, c) =
            doctored_cluster(&config, &[Opcode::UpdateSize, Opcode::WriteChunks], D * 6 / 10);
        let (path, far) = apart(&c);
        let h = c.open_handle(&path, OpenFlags::RDWR.with_create()).unwrap();
        let t0 = Instant::now();
        h.pwrite(far, b"side by side").unwrap();
        let took = t0.elapsed();
        assert!(took >= Duration::from_millis(D * 6 / 10));
        assert!(took < Duration::from_millis(D), "the legs were awaited one after the other: {took:?}");
        h.close().unwrap();
    }

    #[test]
    fn flush_all_attempts_every_file_and_reports_the_first_failure() {
        // Three files with buffered runs; the owner of one refuses
        // writes. The other two must reach the daemons whatever order
        // the table walks them in — six mounts, six orders.
        let config = ClusterConfig::new(3).with_write_back(64 * 1024);
        let (daemons, doctored, _c) = doctored_cluster(&config, &[], 0);
        let broken = 2;
        doctored[broken].1.refused.lock().unwrap().push(Opcode::WriteFile);
        for round in 0..6 {
            let c = GekkoClient::mount(links(&doctored), &config).unwrap();
            let on_broken = |p: &String| c.placement.chunk_primary(p, 0) == broken;
            let mut names = (0..).map(|i| format!("/r{round}-{i}"));
            let bad = names.by_ref().find(on_broken).unwrap();
            let good: Vec<String> = names.filter(|p| !on_broken(p)).take(2).collect();
            let handles: Vec<_> = [&good[0], &bad, &good[1]]
                .iter()
                .map(|p| {
                    let h = c.open_handle(p, OpenFlags::WRONLY.with_create()).unwrap();
                    h.pwrite(0, p.as_bytes()).unwrap();
                    h
                })
                .collect();
            let err = c.flush_all().unwrap_err();
            assert!(matches!(&err, GkfsError::InvalidArgument(m) if m.contains("WriteFile")), "{err:?}");
            // A second client, straight at the daemons, sees both good
            // files whole.
            let raw = daemons.iter().map(|d| d.endpoint()).collect();
            let other = GekkoClient::mount(raw, &ClusterConfig::new(3)).unwrap();
            for p in &good {
                assert_eq!(other.stat(p).unwrap().size, p.len() as u64, "round {round}: {p} never flushed");
                let r = other.open_handle(p, OpenFlags::RDONLY).unwrap();
                assert_eq!(r.pread(0, 64).unwrap(), p.as_bytes());
            }
            drop(handles);
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
        let (_d, doctored, c) = doctored_cluster(&config, &[Opcode::ReadChunks], 120);
        let h = c.open_handle("/slow", OpenFlags::RDWR.with_create()).unwrap();
        h.pwrite(0, b"payload").unwrap();
        let rpc0 = c.stats().rpcs_issued.load(Ordering::Relaxed);
        assert_eq!(h.pread(0, 7).unwrap(), b"payload");
        assert_eq!(c.stats().rpcs_issued.load(Ordering::Relaxed) - rpc0, 1);
        let reads = asked(&doctored).iter().filter(|op| **op == Opcode::ReadChunks).count();
        assert_eq!(reads, 1, "a second replica was asked");
        h.close().unwrap();
    }
}
