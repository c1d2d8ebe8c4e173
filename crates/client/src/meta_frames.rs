//! How a metadata op reaches the daemons: the write quorum over a
//! key's replica set, the `BatchMeta` frame driver behind the bulk
//! APIs, and the transparent per-daemon op queue.

use crate::client::{now_ns, GekkoClient};
use crate::metabatch::{FlushTrigger, MetaBatchState};
use crate::rpc::ReplyFuture;
use gkfs_common::distributor::NodeId;
use gkfs_common::lock::OrderedMutex;
use gkfs_common::path as gpath;
use gkfs_common::retry::Deadline;
use gkfs_common::{FileKind, GkfsError, Metadata, Result};
use gkfs_rpc::proto::{CreateReq, MetaOp, MetaVerdict};
use std::sync::Arc;
use std::time::Instant;

/// One mutation in flight on the write set of a key: what
/// [`GekkoClient::quorum_submit`] hands to [`GekkoClient::quorum_wait`].
pub(crate) struct QuorumCall<'a, T> {
    /// The key's hash-placed owner.
    primary: NodeId,
    /// Whether slot 0 of the set is that owner rather than another
    /// node standing in for it while it is down.
    primary_leads: bool,
    /// One submission per set member, in set order.
    inflight: Vec<Result<ReplyFuture<'a, T>>>,
}

/// The create of `path`, stamped now.
pub(crate) fn create_op(path: String, kind: FileKind, mode: u32, exclusive: bool) -> MetaOp {
    MetaOp::Create(CreateReq { path, kind, mode, exclusive, now_ns: now_ns() })
}

impl GekkoClient {
    /// Submit one mutation to every member of the write set of the key
    /// owned by `primary` (`Placement::meta_set_of`); `f` issues it
    /// to one member. Nothing is awaited here, so a caller with many
    /// keys can submit them all before [`GekkoClient::quorum_wait`]ing
    /// on any.
    pub(crate) fn quorum_submit<'a, T>(
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
    /// every replica sees it even when one errors — and judge them
    /// ([`GekkoClient::quorum_verdict`]).
    pub(crate) fn quorum_wait<T>(&self, call: QuorumCall<'_, T>, deadline: Deadline) -> Result<T> {
        let QuorumCall {
            primary,
            primary_leads,
            inflight,
        } = call;
        let results = inflight
            .into_iter()
            .map(|fut| fut.and_then(|fut| fut.wait_deadline(deadline)))
            .collect();
        self.quorum_verdict(primary, primary_leads, results)
    }

    /// Quorum semantics over what each member of `primary`'s write set
    /// answered to one mutation, in set order (`primary_leads`: slot 0
    /// is the hash-placed primary, not a stand-in):
    ///
    /// * the **primary's** application verdict is authoritative: if it
    ///   answered and refused (Exists, NotFound, …), that error is the
    ///   operation's result;
    /// * otherwise the operation succeeds when at least
    ///   `Placement::quorum` members *applied* it — answered Ok, or
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
    pub(crate) fn quorum_verdict<T>(
        &self,
        primary: NodeId,
        primary_leads: bool,
        mut results: Vec<Result<T>>,
    ) -> Result<T> {
        if results.len() == 1 {
            // A set of one has nobody to out-vote: its answer is the
            // result, whatever it is.
            return results.remove(0);
        }
        let applied = |r: &Result<T>| !matches!(r, Err(e) if e.is_node_down());
        // Primary answered and refused: authoritative — but only when
        // slot 0 really is the hash-placed primary. When the primary
        // is dead its slot holds a stand-in (`Placement::meta_set_of`),
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
    pub(crate) fn quorum_call<'a, T>(
        &self,
        primary: NodeId,
        f: impl Fn(NodeId) -> Result<ReplyFuture<'a, T>>,
    ) -> Result<T> {
        let deadline = self.ring.op_deadline();
        self.quorum_wait(self.quorum_submit(primary, f), deadline)
    }

    /// Cap on ops per frame: bounds frame size and the daemon-side
    /// `WriteBatch` a single frame turns into.
    const EXPLICIT_BATCH_MAX: usize = 128;

    /// Put `count` stats to the metadata read chain of `primary`
    /// (`Placement::read_chain`): `ask(node, open)` sends the ones
    /// whose indices are in `open` and returns their verdicts in that
    /// order. What a member answers `NotFound` stays open for the next
    /// — a freshly rejoined (empty) primary must not shadow a replica
    /// or stand-in that still holds the entry — and stands only once
    /// no member disagrees; a member that is down costs a hop, not the
    /// call. One RPC on the healthy path, and always when replication
    /// is off (the chain is the owner alone).
    pub(crate) fn ask_chain<T>(
        &self,
        primary: NodeId,
        count: usize,
        ask: impl Fn(NodeId, &[usize]) -> Result<Vec<Result<T>>>,
    ) -> Result<Vec<Result<T>>> {
        let mut verdicts: Vec<Result<T>> = (0..count).map(|_| Err(GkfsError::NotFound)).collect();
        let mut open: Vec<usize> = (0..count).collect();
        let (mut answered, mut down) = (false, None);
        for n in self.placement.read_chain(primary) {
            match ask(n, &open) {
                Ok(answers) => {
                    answered = true;
                    for (&i, verdict) in open.iter().zip(answers) {
                        verdicts[i] = verdict;
                    }
                    open.retain(|&i| matches!(verdicts[i], Err(GkfsError::NotFound)));
                    if open.is_empty() {
                        break;
                    }
                }
                Err(e) if e.is_node_down() => down = down.or(Some(e)),
                Err(e) => return Err(e),
            }
        }
        if answered {
            return Ok(verdicts);
        }
        Err(down.unwrap_or_else(|| {
            GkfsError::Unavailable(format!("no metadata replica of node {primary}"))
        }))
    }

    /// Send one frame to the replica set of `primary` and account it in
    /// the batching counters. A frame holding a mutation rides the
    /// write quorum; a stat-only frame needs one answer per op, so it
    /// walks the read chain ([`GekkoClient::ask_chain`]), later members
    /// seeing only the ops still open.
    pub(crate) fn send_frame(
        &self,
        primary: NodeId,
        ops: &Arc<[MetaOp]>,
        trigger: FlushTrigger,
    ) -> Result<Vec<MetaVerdict>> {
        self.stats.note_meta_flush(ops.len(), trigger);
        if ops.iter().any(MetaOp::is_write) {
            return self.quorum_call(primary, |n| self.ring.batch_meta_nb(n, Arc::clone(ops)));
        }
        self.ask_chain(primary, ops.len(), |n, open| {
            let frame = if open.len() == ops.len() {
                Arc::clone(ops)
            } else {
                open.iter().map(|&i| ops[i].clone()).collect()
            };
            self.ring.batch_meta_nb(n, frame)?.wait()
        })
    }

    /// The frame driver behind the bulk APIs and the transparent
    /// queue: `ops` grouped by primary metadata owner (program order
    /// kept within a group), cut into frames of at most
    /// [`Self::EXPLICIT_BATCH_MAX`], each sent by
    /// [`GekkoClient::send_frame`]. Every op's verdict goes to
    /// `sink(index in ops, op, verdict)`; the `Result` is a frame that
    /// could not be delivered or applied at all.
    pub(crate) fn drive_meta(
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
    pub(crate) fn flush_queued(
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
    /// the `mb` guard and sent only after it drops (GKL002).
    pub(crate) fn enqueue_meta(&self, mb: &OrderedMutex<MetaBatchState>, op: MetaOp) -> Result<()> {
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

    /// Per-path ordering barrier, passed by every call about to read
    /// `path` at the daemons or mutate it via the unary protocol: what
    /// this client still holds back about the path goes out first — an
    /// unborn file is published ([`GekkoClient::publish`]), a queue
    /// holding an op on the path is flushed. Deferred errors of either
    /// surface here.
    pub(crate) fn meta_barrier_path(&self, path: &str) -> Result<()> {
        self.publish(path)?;
        self.queue_barrier_path(path)
    }

    /// The transparent queue's half of [`GekkoClient::meta_barrier_path`]:
    /// if `path` has a queued op, flush that queue. A no-op when
    /// batching is disabled.
    pub(crate) fn queue_barrier_path(&self, path: &str) -> Result<()> {
        let Some(mb) = &self.mb else { return Ok(()) };
        let primary = self.placement.meta_primary(path);
        let batch = { mb.lock().take_hazard(primary, path) };
        self.flush_queued(batch.map(|ops| (ops, FlushTrigger::Hazard)))
    }

    /// Make the daemons' namespace what this client's calls so far say
    /// it is (explicit barrier): every unborn file is published and
    /// every queued metadata batch flushed — readdir, rmdir, fsck and
    /// the bulk APIs call this, and applications can use it as an
    /// mdtest-phase boundary. Deferred errors — a refused create, a
    /// queued op's verdict — surface here, the first of them.
    pub fn flush_meta(&self) -> Result<()> {
        let published = self.flush_files(&mut self.files.unborn_locals());
        let Some(mb) = &self.mb else { return published };
        let batches = { mb.lock().take_all() };
        let flushed = self.flush_queued(batches.into_iter().map(|ops| (ops, FlushTrigger::Explicit)));
        published.and(flushed)
    }

    /// The body the bulk APIs share: behind an explicit barrier, one
    /// `op_of(path)` per well-formed path through the frame driver,
    /// each `Ok` verdict mapped by `finish(path, entry)`. Returns one
    /// slot per input path, in order — a malformed path fails its own
    /// slot only; the outer `Result` is transport-level.
    pub(crate) fn many<S: AsRef<str>, T>(
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

    /// One metadata op over the unary protocol: on its path's metadata
    /// write set, under quorum semantics, behind any batched op queued
    /// on the same path (program order per path).
    pub(crate) fn meta_call(&self, op: MetaOp) -> MetaVerdict {
        self.meta_barrier_path(op.path())?;
        self.quorum_call(self.placement.meta_primary(op.path()), |n| {
            self.ring.meta_nb(n, op.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::testing::{cluster, cluster_with};
    use gkfs_common::{ClusterConfig, OpenFlags};
    use std::sync::atomic::Ordering;

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
