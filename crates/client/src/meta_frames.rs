//! How a metadata op reaches the daemons: the write quorum over a
//! key's replica set, and the `BatchMeta` frame driver behind the bulk
//! APIs. An op goes out when it is called; the only metadata a client
//! holds back is a write-back mount's unborn file
//! ([`GekkoClient::publish`]).

use crate::client::{now_ns, GekkoClient};
use crate::rpc::ReplyFuture;
use gkfs_common::distributor::NodeId;
use gkfs_common::path as gpath;
use gkfs_common::retry::Deadline;
use gkfs_common::{FileKind, GkfsError, Metadata, Result};
use gkfs_rpc::proto::{CreateReq, MetaOp, MetaVerdict};
use std::sync::Arc;

/// One mutation in flight on the write set of a key: what
/// [`GekkoClient::quorum_submit`] hands to [`GekkoClient::quorum_wait`].
#[must_use = "unless `quorum_wait` hears it, a replica may miss the mutation unnoticed"]
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
    pub(crate) fn send_frame(&self, primary: NodeId, ops: &Arc<[MetaOp]>) -> Result<Vec<MetaVerdict>> {
        self.stats.note_meta_flush(ops.len());
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

    /// The frame driver behind the bulk APIs: `ops` grouped by primary
    /// metadata owner (program order kept within a group), cut into
    /// frames of at most [`Self::EXPLICIT_BATCH_MAX`], each sent by
    /// [`GekkoClient::send_frame`]. Every op's verdict goes to
    /// `sink(index in ops, op, verdict)`; the `Result` is a frame that
    /// could not be delivered or applied at all.
    pub(crate) fn drive_meta(&self, ops: Vec<MetaOp>, mut sink: impl FnMut(usize, &MetaOp, MetaVerdict)) -> Result<()> {
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
                let verdicts = self.send_frame(primary, &frame)?;
                for ((i, op), verdict) in indices.into_iter().zip(frame.iter()).zip(verdicts) {
                    sink(i, op, verdict);
                }
            }
        }
        Ok(())
    }

    /// Make the daemons' namespace what this client's calls so far say
    /// it is (explicit barrier): every unborn file is published —
    /// readdir, rmdir, fsck and the bulk APIs call this, and
    /// applications can use it as an mdtest-phase boundary. A refused
    /// create surfaces here, the first of them.
    pub fn flush_meta(&self) -> Result<()> {
        self.flush_files(&mut self.files.unborn_locals())
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
        self.drive_meta(ops, |i, op, verdict| {
            slots[slot_of[i]] = verdict.and_then(|entry| finish(op.path(), entry));
        })?;
        Ok(slots)
    }

    /// One metadata op over the unary protocol: on its path's metadata
    /// write set, under quorum semantics, behind an unborn file of this
    /// mount on the same path (program order per path).
    pub(crate) fn meta_call(&self, op: MetaOp) -> MetaVerdict {
        self.publish(op.path())?;
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
    use gkfs_rpc::Endpoint;
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

    /// The two calls about an unborn file that `proptest_fs.rs`'s
    /// hazards do not drive: `rmdir` of its directory and an open that
    /// can write. Each publishes the file before it asks the daemons.
    #[test]
    fn unborn_file_orders_against_unary_ops() {
        let (daemons, c) = cluster_with(3, ClusterConfig::new(3).with_write_back(64 * 1024));
        let endpoints: Vec<Arc<dyn Endpoint>> = daemons.iter().map(|d| d.endpoint()).collect();
        let other = GekkoClient::mount(endpoints, &ClusterConfig::new(3)).unwrap();
        let excl = OpenFlags::RDWR.with_create().with_exclusive();
        // rmdir's full barrier publishes the child before probing
        // emptiness.
        c.mkdir("/bd", 0o755).unwrap();
        let child = c.open_handle("/bd/f", excl).unwrap();
        assert!(matches!(c.rmdir("/bd"), Err(GkfsError::NotEmpty)));
        assert_eq!(other.stat("/bd/f").unwrap().kind, FileKind::File);
        child.close().unwrap();
        c.unlink("/bd/f").unwrap();
        c.rmdir("/bd").unwrap();
        // An open that can write asks the daemons for the entry: the
        // unborn file and its buffered bytes land first.
        let h = c.open_handle("/op", excl).unwrap();
        h.pwrite(0, b"abc").unwrap();
        assert!(matches!(other.stat("/op"), Err(GkfsError::NotFound)));
        let w = c.open_handle("/op", OpenFlags::RDWR).unwrap();
        assert_eq!(w.size(), 3);
        assert_eq!(other.stat("/op").unwrap().size, 3);
        w.pwrite(3, b"d").unwrap();
        w.close().unwrap();
        h.close().unwrap();
        assert_eq!(other.open_handle("/op", OpenFlags::RDONLY).unwrap().pread(0, 8).unwrap(), b"abcd");
    }

    #[test]
    fn batched_mutations_ride_the_replication_quorum() {
        let config = ClusterConfig::new(3).with_replicas(2);
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
