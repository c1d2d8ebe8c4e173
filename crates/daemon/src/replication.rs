//! Daemon-side replication: heartbeat probing, failure detection, and
//! the background re-replication driver.
//!
//! GekkoFS proper keeps daemons fully independent — a lost node loses
//! its data (paper §III-A: no fault-tolerance guarantees). With
//! `ReplicationConfig::replicas > 1` this module restores the
//! guarantee: every daemon probes its peers on an idle timer, feeds a
//! threshold [`FailureDetector`], and reacts to membership transitions
//! by re-copying under-replicated state:
//!
//! * **peer dies** → walk the local metadata store and chunk
//!   inventory; for every object whose replica set contains the dead
//!   node, the *first live member* of the set pushes a copy to the
//!   substitute that takes the dead member's slot in the set clients
//!   write to (`distributor::repair_target`).
//! * **peer rejoins** (epoch flip — it restarted empty) → same walk,
//!   pushing back every object whose replica set contains the
//!   rejoined node (drain-back).
//!
//! Pushes use the idempotent verbs (`ReplicaMeta` max-merges,
//! `WriteChunks` overwrites byte-identical data), so retries after
//! transient failures — classified via [`GkfsError::is_retryable`] —
//! are safe to replay blindly. Stale copies left on an ex-substitute
//! after a rejoin are never read (placement is a pure function of the
//! ring) and simply age out with the ephemeral file system.
//!
//! Leadership is per object (the first live set member pushes) and
//! falls over: any death re-enqueues every outstanding repair and
//! drain-back target ([`plan_recovery`]), so a leader dying mid-walk
//! hands its remaining pushes to the next live member instead of
//! orphaning them.

use crate::handlers::Backends;
use gkfs_common::distributor::{self, Distributor};
use gkfs_common::lock::{self, rank, OrderedMutex};
use gkfs_common::metrics::DaemonCounters;
use gkfs_common::{ClusterConfig, FailureDetector, GkfsError, Liveness, Metadata, Transition};
use gkfs_rpc::proto::{
    op, ChunkBatchReq, ChunkOp, HeartbeatReq, HeartbeatResp, ReplicaMetaReq, Rpc,
};
use gkfs_rpc::{Endpoint, Request};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Push attempts per object within one worker cycle. A task with any
/// failed push goes back to the backlog and the whole walk re-runs next
/// cycle (the copy verbs are idempotent), so convergence is delayed by
/// heartbeat intervals, never abandoned.
const PUSH_ATTEMPTS: usize = 3;

/// One queued recovery job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryTask {
    /// A peer was declared dead: re-copy everything it replicated to
    /// the ring substitutes.
    Repair { dead: usize },
    /// A peer restarted with empty state: push back everything its
    /// replica sets say it should hold.
    DrainBack { node: usize },
}

/// Per-daemon replication state: detector, peer endpoints, recovery
/// queue, and the worker thread driving both.
pub struct ReplicationManager {
    self_id: usize,
    epoch: u64,
    cluster: ClusterConfig,
    dist: Distributor,
    /// Peer endpoints indexed by node id; `None` at `self_id`.
    peers: Vec<Option<Arc<dyn Endpoint>>>,
    detector: FailureDetector,
    backends: Arc<Backends>,
    backlog: OrderedMutex<VecDeque<RecoveryTask>>,
    /// Nodes with a drain-back this daemon has seen start and never
    /// seen invalidated: set on a rejoin transition, cleared only when
    /// the node dies again (its next rejoin starts a fresh drain).
    /// There is no "drain-back finished" signal — completion is known
    /// only to each object's leader — so the flag stays set while the
    /// node lives; its cost is one idempotent no-op re-walk per later
    /// death ([`plan_recovery`]), its value is that a drain leader
    /// dying mid-push cannot orphan the drain.
    draining: Vec<AtomicBool>,
    counters: DaemonCounters,
    stop: AtomicBool,
    seq: AtomicU64,
    repl_state: OrderedMutex<Option<std::thread::JoinHandle<()>>>,
}

/// A best-effort unique incarnation id: wall-clock nanoseconds mixed
/// with the pid and a process-wide counter, never zero (the detector
/// reads epoch 0 as "none seen yet").
fn draw_epoch() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let salt = (std::process::id() as u64) << 32 | COUNTER.fetch_add(1, Ordering::Relaxed);
    gkfs_common::hash::fnv1a64(&(nanos ^ salt).to_le_bytes()).max(1)
}

/// Map one detector transition onto the recovery tasks to enqueue,
/// given the current dead mask and the drain-back ledger.
///
/// The transitioned node gets its own task (`Repair` on death,
/// `DrainBack` on rejoin). A **death additionally re-enqueues every
/// other outstanding target**: recovery leadership is per-object (the
/// first live set member pushes, everyone else completes the task as
/// a no-op) and a transition fires exactly once per observer — so a
/// leader dying mid-walk would otherwise orphan its remaining pushes
/// forever, with no survivor holding a queued task for the original
/// target. Re-enqueueing `Repair` for every currently-dead node and
/// `DrainBack` for every node still marked draining makes the
/// next-in-line leaders re-walk those targets and discover the work
/// is now theirs; for sets whose leader survived, the re-walk is a
/// cheap idempotent no-op.
fn plan_recovery(t: &Transition, dead: &[bool], draining: &[bool]) -> Vec<RecoveryTask> {
    let mut out = Vec::new();
    if t.to == Liveness::Dead {
        out.push(RecoveryTask::Repair { dead: t.node });
        for (n, &is_dead) in dead.iter().enumerate() {
            if n == t.node {
                continue;
            }
            if is_dead {
                out.push(RecoveryTask::Repair { dead: n });
            } else if draining.get(n).copied().unwrap_or(false) {
                out.push(RecoveryTask::DrainBack { node: n });
            }
        }
    } else if t.rejoined || (t.from == Liveness::Dead && t.to == Liveness::Alive) {
        out.push(RecoveryTask::DrainBack { node: t.node });
    }
    out
}

impl ReplicationManager {
    /// Build the manager and start its worker thread. `peers[i]` is the
    /// endpoint of daemon `i` (`None` for `self_id`); `cluster` must be
    /// the same configuration every client mounts with, so placement
    /// agrees across the system.
    pub fn start(
        self_id: usize,
        peers: Vec<Option<Arc<dyn Endpoint>>>,
        cluster: ClusterConfig,
        backends: Arc<Backends>,
    ) -> Arc<ReplicationManager> {
        let r = &cluster.replication;
        let detector = FailureDetector::new(
            cluster.nodes,
            Duration::from_millis(r.suspect_after_ms),
            Duration::from_millis(r.dead_after_ms),
        );
        let cluster_nodes = cluster.nodes;
        let mgr = Arc::new(ReplicationManager {
            self_id,
            epoch: draw_epoch(),
            dist: Distributor::new(cluster.nodes),
            cluster,
            peers,
            detector,
            backends,
            draining: (0..cluster_nodes).map(|_| AtomicBool::new(false)).collect(),
            backlog: OrderedMutex::new(rank::REPL_BACKLOG, VecDeque::new()),
            counters: DaemonCounters::default(),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            repl_state: OrderedMutex::new(rank::REPL_STATE, None),
        });
        // Thread exhaustion is not fatal: without the worker the
        // daemon still answers heartbeats and replica pushes, it just
        // stops originating probes and recovery — peers' detectors and
        // leaders cover for it.
        let worker = {
            let m = mgr.clone();
            std::thread::Builder::new()
                .name(format!("gkfs-repl-{self_id}"))
                .spawn(move || m.run())
                .ok()
        };
        if worker.is_none() {
            gkfs_common::gkfs_warn!(
                "repl[{self_id}]: could not spawn worker thread; probing and recovery disabled on this daemon"
            );
        }
        *mgr.repl_state.lock() = worker;
        mgr
    }

    /// This daemon's incarnation id.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Run one synchronous probe round so the detector learns every
    /// peer's current incarnation *now*. Deployment calls this on every
    /// daemon after the whole cluster has joined: restart detection
    /// compares epochs, so an observer that never saw a peer's first
    /// incarnation (its early probes landed before that peer joined and
    /// got epoch 0) would read the post-restart epoch as first contact
    /// and miss the rejoin — and with it the drain-back.
    pub fn prime(&self) {
        self.probe_peers();
    }

    /// Configured copies per object.
    pub fn replicas(&self) -> usize {
        self.cluster.replication.replicas
    }

    /// This manager's block of daemon counters: the `repl_*` and
    /// `heartbeats_*` names and `under_replicated_chunks`, which the
    /// heartbeat replies piggyback too.
    pub fn counters(&self) -> &DaemonCounters {
        &self.counters
    }

    /// Liveness of every node as this daemon sees it, wire-encoded.
    pub fn liveness_bytes(&self) -> Vec<u8> {
        self.detector
            .snapshot()
            .into_iter()
            .map(Liveness::as_u8)
            .collect()
    }

    /// The detector (tests, stats).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Handle an incoming `Heartbeat`: the probe itself proves the
    /// sender alive (piggybacked detection), and the reply carries this
    /// daemon's epoch plus its recovery gauges.
    pub fn heartbeat_from(&self, from: u64) -> HeartbeatResp {
        self.counters.heartbeats_received.fetch_add(1, Ordering::Relaxed);
        if from != u64::MAX && (from as usize) < self.detector.len() && from as usize != self.self_id
        {
            self.detector.record_ok(from as usize);
        }
        HeartbeatResp {
            epoch: self.epoch,
            under_replicated: self.counters.under_replicated_chunks.load(Ordering::Relaxed),
            backlog: self.counters.repl_backlog.load(Ordering::Relaxed),
        }
    }

    /// Stop the worker thread and join it.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Take the handle out before joining: joining under the guard
        // would block every other accessor for the worker's lifetime.
        let worker = self.repl_state.lock().take();
        if let Some(w) = worker {
            lock::assert_unguarded("join");
            let _ = w.join();
        }
    }

    // ---- worker ----------------------------------------------------

    fn run(self: Arc<Self>) {
        let interval =
            Duration::from_millis(self.cluster.replication.heartbeat_interval_ms.max(10));
        while !self.stop.load(Ordering::Relaxed) {
            self.probe_peers();
            for t in self.detector.poll_transitions() {
                // Keep the drain-back ledger current before planning:
                // a death invalidates any drain of that node (the next
                // rejoin starts a fresh one), a rejoin opens one.
                if t.to == Liveness::Dead {
                    if let Some(d) = self.draining.get(t.node) {
                        d.store(false, Ordering::Relaxed);
                    }
                } else if t.rejoined || (t.from == Liveness::Dead && t.to == Liveness::Alive) {
                    if let Some(d) = self.draining.get(t.node) {
                        d.store(true, Ordering::Relaxed);
                    }
                }
                let draining: Vec<bool> = self
                    .draining
                    .iter()
                    .map(|d| d.load(Ordering::Relaxed))
                    .collect();
                for task in plan_recovery(&t, &self.detector.dead_mask(), &draining) {
                    self.enqueue(task);
                }
            }
            self.drain_backlog();
            // Sleep in short slices so shutdown stays responsive even
            // with second-scale heartbeat intervals.
            let mut slept = Duration::ZERO;
            while slept < interval && !self.stop.load(Ordering::Relaxed) {
                let step = (interval - slept).min(Duration::from_millis(5));
                lock::assert_unguarded("sleep");
                std::thread::sleep(step);
                slept += step;
            }
        }
    }

    fn probe_peers(&self) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        for (node, ep) in self.peers.iter().enumerate() {
            let Some(ep) = ep else { continue };
            if node == self.self_id {
                continue;
            }
            self.counters.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
            let req = HeartbeatReq { from: self.self_id as u64, seq };
            let reply = ep
                .call(op::Heartbeat::request(&req))
                .and_then(op::Heartbeat::reply);
            self.detector.record(node, &reply);
            match reply {
                Ok(hb) => {
                    gkfs_common::gkfs_debug!(
                        "repl[{}]: probe {node} ok epoch {:#x}",
                        self.self_id,
                        hb.epoch
                    );
                    if self.detector.record_epoch(node, hb.epoch) {
                        gkfs_common::gkfs_info!(
                            "repl[{}]: node {node} restarted (epoch flip)",
                            self.self_id
                        );
                    }
                }
                Err(e) => {
                    gkfs_common::gkfs_debug!("repl[{}]: probe {node} failed: {e}", self.self_id);
                }
            }
        }
    }

    fn enqueue(&self, task: RecoveryTask) {
        let mut q = self.backlog.lock();
        if !q.contains(&task) {
            q.push_back(task);
            self.counters.repl_backlog.store(q.len() as u64, Ordering::Relaxed);
        }
    }

    fn drain_backlog(&self) {
        // Tasks whose pushes did not all land are re-queued *after* the
        // drain (not inside it — that would spin), so each worker cycle
        // retries them at most once. A task therefore survives until
        // every copy it owes has been pushed: a target that is still
        // restarting, or a substitute that died mid-repair, delays
        // convergence by heartbeat intervals instead of wedging it.
        let mut retry = Vec::new();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            // Pop under the guard, run the (RPC-heavy) task outside it.
            let task = {
                let mut q = self.backlog.lock();
                let t = q.pop_front();
                self.counters.repl_backlog.store(q.len() as u64, Ordering::Relaxed);
                t
            };
            let complete = match task {
                Some(RecoveryTask::Repair { dead }) => self.push_copies(dead, true),
                Some(RecoveryTask::DrainBack { node }) => self.push_copies(node, false),
                None => break,
            };
            if let (false, Some(t)) = (complete, task) {
                retry.push(t);
            }
        }
        for t in retry {
            self.enqueue(t);
        }
    }

    /// The shared walk behind both recovery modes. For every local
    /// object whose replica set contains `target`, the first *live*
    /// set member other than `target` pushes a copy — to the substitute
    /// in `target`'s slot of the live set when `target` is dead
    /// (`repair`), or to `target` itself after it rejoined empty.
    /// Returns whether every owed push landed; `false` sends the task
    /// back to the backlog for the next cycle.
    fn push_copies(&self, target: usize, repair: bool) -> bool {
        let replicas = self.cluster.replication.replicas;
        let nodes = self.cluster.nodes;
        let mut dead = self.detector.dead_mask();
        if repair {
            // The transition that queued us already declared `target`
            // dead; pin that view even if a probe just sneaked through.
            if let Some(d) = dead.get_mut(target) {
                *d = true;
            }
        }

        // Collect the work first so the gauge reflects the full walk.
        // The walk keeps only the copies this daemon owes.
        let mut meta_jobs: Vec<(String, Metadata, usize)> = Vec::new();
        let walked = self.backends.meta.walk(|path, meta| {
            let set = self.dist.metadata_replicas(path, replicas);
            if let Some(dst) = self.push_target(&set, target, repair, &dead, nodes) {
                meta_jobs.push((path.to_string(), meta, dst));
            }
        });
        let mut complete = walked.is_ok();
        let mut chunk_jobs: Vec<(String, u64, u64, usize)> = Vec::new();
        for (path, _) in self.backends.data.list_paths().unwrap_or_default() {
            for (chunk_id, len) in self.backends.data.list_chunks(&path).unwrap_or_default() {
                let set = self.dist.chunk_replicas(&path, chunk_id, replicas);
                if let Some(dst) = self.push_target(&set, target, repair, &dead, nodes) {
                    chunk_jobs.push((path.clone(), chunk_id, len, dst));
                }
            }
        }
        let total = (meta_jobs.len() + chunk_jobs.len()) as u64;
        if total == 0 {
            return complete;
        }
        self.counters.under_replicated_chunks.fetch_add(total, Ordering::Relaxed);
        gkfs_common::gkfs_info!(
            "repl[{}]: {} of node {target}: {} metadata + {} chunk copies",
            self.self_id,
            if repair { "repair" } else { "drain-back" },
            meta_jobs.len(),
            chunk_jobs.len()
        );

        for (path, meta, dst) in meta_jobs {
            if self.push_meta(dst, &path, &meta).is_ok() {
                self.counters.repl_meta_copied.fetch_add(1, Ordering::Relaxed);
            } else {
                complete = false;
            }
            self.counters.under_replicated_chunks.fetch_sub(1, Ordering::Relaxed);
        }
        for (path, chunk_id, len, dst) in chunk_jobs {
            if self.push_chunk(dst, &path, chunk_id, len).is_ok() {
                self.counters.repl_chunks_copied.fetch_add(1, Ordering::Relaxed);
            } else {
                complete = false;
            }
            self.counters.under_replicated_chunks.fetch_sub(1, Ordering::Relaxed);
        }
        complete
    }

    /// Where this daemon should push a copy of an object with replica
    /// set `set`, or `None` when it isn't this daemon's job: the set
    /// doesn't involve `target`, this daemon isn't the set's repair
    /// leader, or no destination exists.
    fn push_target(
        &self,
        set: &[usize],
        target: usize,
        repair: bool,
        dead: &[bool],
        nodes: usize,
    ) -> Option<usize> {
        if !set.contains(&target) {
            return None;
        }
        // Leader: first member that is alive and not the target.
        let leader = *set
            .iter()
            .find(|&&n| n != target && !dead.get(n).copied().unwrap_or(false))?;
        if leader != self.self_id {
            return None;
        }
        if repair {
            distributor::repair_target(set, target, dead, nodes)
        } else {
            Some(target)
        }
    }

    fn push_meta(&self, dst: usize, path: &str, meta: &Metadata) -> gkfs_common::Result<()> {
        let req = ReplicaMetaReq {
            path: path.to_string(),
            kind: meta.kind,
            mode: meta.mode,
            size: meta.size,
            ctime_ns: meta.ctime_ns,
            mtime_ns: meta.mtime_ns,
        };
        self.push_rpc(dst, op::ReplicaMeta::request(&req))
    }

    fn push_chunk(&self, dst: usize, path: &str, chunk_id: u64, len: u64) -> gkfs_common::Result<()> {
        let data = self.backends.data.read_chunk(path, chunk_id, 0, len)?;
        if data.is_empty() {
            return Ok(());
        }
        let req = ChunkBatchReq {
            path: path.to_string(),
            ops: vec![ChunkOp { chunk_id, offset: 0, len: data.len() as u64 }],
        };
        self.push_rpc(dst, op::WriteChunks::request(&req).with_bulk(data))
    }

    /// Send one idempotent copy RPC with bounded retry on errors
    /// classified retryable. Non-retryable errors (the peer shutting
    /// down, application errors) fail the push immediately.
    fn push_rpc(&self, dst: usize, req: Request) -> gkfs_common::Result<()> {
        let Some(ep) = self.peers.get(dst).and_then(|e| e.as_ref()) else {
            return Err(GkfsError::Rpc(format!("no endpoint for node {dst}")));
        };
        let mut last = GkfsError::Rpc("unreachable".into());
        for attempt in 0..PUSH_ATTEMPTS {
            if self.stop.load(Ordering::Relaxed) {
                return Err(GkfsError::ShuttingDown);
            }
            let reply = ep.call(req.clone()).and_then(|r| r.into_result());
            self.detector.record(dst, &reply);
            match reply {
                Ok(_) => return Ok(()),
                Err(e) => {
                    let retryable = e.is_retryable();
                    last = e;
                    if !retryable {
                        break;
                    }
                    lock::assert_unguarded("sleep");
                    std::thread::sleep(Duration::from_millis(2 << attempt));
                }
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_nonzero_and_distinct() {
        let a = draw_epoch();
        let b = draw_epoch();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    fn death_of(node: usize) -> Transition {
        Transition {
            node,
            from: Liveness::Alive,
            to: Liveness::Dead,
            rejoined: false,
        }
    }

    #[test]
    fn death_reenqueues_every_outstanding_target() {
        // Node 2 dies while node 0 is already dead and node 3 is mid
        // drain-back: besides 2's own repair, the survivors must
        // re-walk both outstanding targets — their leader may have
        // been 2.
        let dead = [true, false, true, false, false];
        let draining = [false, false, false, true, false];
        assert_eq!(
            plan_recovery(&death_of(2), &dead, &draining),
            vec![
                RecoveryTask::Repair { dead: 2 },
                RecoveryTask::Repair { dead: 0 },
                RecoveryTask::DrainBack { node: 3 },
            ]
        );
    }

    #[test]
    fn lone_death_plans_only_its_own_repair() {
        let dead = [false, true, false];
        assert_eq!(
            plan_recovery(&death_of(1), &dead, &[false, false, false]),
            vec![RecoveryTask::Repair { dead: 1 }]
        );
    }

    #[test]
    fn dead_target_never_gets_a_drain_back() {
        // A node can be marked draining *and* dead when the ledger
        // update raced the mask snapshot: repair wins.
        let dead = [false, true, true];
        let draining = [false, true, false];
        assert_eq!(
            plan_recovery(&death_of(2), &dead, &draining),
            vec![
                RecoveryTask::Repair { dead: 2 },
                RecoveryTask::Repair { dead: 1 },
            ]
        );
    }

    #[test]
    fn rejoin_plans_a_drain_back_only() {
        let t = Transition {
            node: 1,
            from: Liveness::Dead,
            to: Liveness::Alive,
            rejoined: true,
        };
        assert_eq!(
            plan_recovery(&t, &[true, false, false], &[false, true, false]),
            vec![RecoveryTask::DrainBack { node: 1 }]
        );
    }
}
