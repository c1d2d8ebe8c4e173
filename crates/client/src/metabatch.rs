//! Client-side metadata-op batching — the metadata-plane analogue of
//! the write-back buffer ([`crate::writeback`]).
//!
//! GekkoFS's headline numbers are metadata ops/s, yet the unary
//! protocol pays one round trip per create/stat/unlink, so mdtest-like
//! workloads are latency-bound long before the daemon's LSM is. A
//! [`MetaBatchState`] holds one queue of pending [`MetaOp`]s per
//! *primary metadata owner*; ops destined for the same daemon coalesce
//! until a flush trigger fires and the whole queue goes out as one
//! `BatchMeta` frame the daemon group-applies (one WAL record, one
//! fsync, one reply).
//!
//! Flush triggers, in the order they are checked:
//!
//! * **hazard** — the offered op's path already has a pending op. The
//!   old queue is displaced (`flush_first`) before the new op is
//!   queued, so cross-batch program order per path is preserved and
//!   the per-op replay tolerance (`Exists`-on-create,
//!   `NotFound`-on-unlink) never has to disambiguate two generations
//!   of the same path inside one frame's retry window. Read-side
//!   hazards (stat/open/unlink of a queued path) use
//!   [`MetaBatchState::take_hazard`].
//! * **count** — the queue reached `max_ops`.
//! * **bytes** — the queue's estimated encoded size reached
//!   [`DEFAULT_META_BATCH_BYTES`].
//! * **deadline** — the oldest queued op outlived
//!   [`DEFAULT_META_BATCH_DEADLINE_MS`] (checked at the next queue
//!   interaction; the client has no timer thread).
//! * **explicit** — a barrier ([`MetaBatchState::take_all`]): readdir,
//!   `flush_meta`, unmount-like paths.
//!
//! Like the write-back buffer, this type is **pure data**: it takes no
//! locks and issues no RPCs. The client owns it behind an
//! `OrderedMutex` (rank `CLIENT_META_BATCH`), takes batches out under
//! the guard, and sends them only after the guard is dropped (GKL002).

use gkfs_common::config::{DEFAULT_META_BATCH_BYTES, DEFAULT_META_BATCH_DEADLINE_MS};
use gkfs_common::distributor::NodeId;
use gkfs_rpc::proto::MetaOp;
use std::time::{Duration, Instant};

/// Why a queue flushed — selects the per-trigger counter in
/// [`crate::client::ClientStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The queue reached its op-count cap.
    Count,
    /// The queue reached its encoded-bytes cap.
    Bytes,
    /// The oldest queued op outlived the deadline.
    Deadline,
    /// An op (or a read) touched a path with a pending op.
    Hazard,
    /// An explicit barrier (`flush_meta`, readdir, bulk APIs).
    Explicit,
}

/// What [`MetaBatchState::offer`] decided. Both fields can be set at
/// once: a hazard displaces the old queue *and* the re-seeded queue
/// may immediately hit a size trigger.
#[derive(Debug, Default)]
pub struct Offer {
    /// Queue contents displaced by an ordering hazard on the offered
    /// op's path — must be sent before anything else.
    pub flush_first: Option<Vec<MetaOp>>,
    /// The queue (including the offered op) hit a trigger: send now.
    pub flush_now: Option<(Vec<MetaOp>, FlushTrigger)>,
}

/// Estimated encoded size of one op: opcode tag plus fixed fields plus
/// the length-prefixed path. Slightly generous is fine — the cap
/// bounds frame size, it does not account bytes.
fn op_cost(op: &MetaOp) -> usize {
    op.path().len() + 32
}

const DEADLINE: Duration = Duration::from_millis(DEFAULT_META_BATCH_DEADLINE_MS);

/// One primary's pending ops.
#[derive(Debug, Default)]
struct Queue {
    ops: Vec<MetaOp>,
    bytes: usize,
    oldest: Option<Instant>,
}

impl Queue {
    fn push(&mut self, op: MetaOp, now: Instant) {
        self.bytes += op_cost(&op);
        self.oldest.get_or_insert(now);
        self.ops.push(op);
    }

    fn take(&mut self) -> Vec<MetaOp> {
        self.bytes = 0;
        self.oldest = None;
        std::mem::take(&mut self.ops)
    }

    fn holds_path(&self, path: &str) -> bool {
        self.ops.iter().any(|o| o.path() == path)
    }

    fn expired(&self, now: Instant) -> bool {
        self.oldest.is_some_and(|t0| now.duration_since(t0) >= DEADLINE)
    }
}

/// The client's pending metadata batches: one queue per primary
/// metadata owner (the replica set is a pure function of the primary,
/// so every op in a queue shares one fan-out target set).
#[derive(Debug)]
pub struct MetaBatchState {
    max_ops: usize,
    queues: Vec<Queue>,
}

impl MetaBatchState {
    /// New state for a `nodes`-daemon ring. `max_ops` must be ≥ 1
    /// (0 means the caller should not construct the state at all).
    pub fn new(nodes: usize, max_ops: usize) -> MetaBatchState {
        MetaBatchState {
            max_ops: max_ops.max(1),
            queues: (0..nodes).map(|_| Queue::default()).collect(),
        }
    }

    /// Offer an op bound for `primary`'s queue; see [`Offer`].
    pub fn offer(&mut self, primary: NodeId, op: MetaOp, now: Instant) -> Offer {
        let q = &mut self.queues[primary];
        let mut offer = Offer::default();
        if q.holds_path(op.path()) {
            offer.flush_first = Some(q.take());
        }
        q.push(op, now);
        let trigger = if q.ops.len() >= self.max_ops {
            Some(FlushTrigger::Count)
        } else if q.bytes >= DEFAULT_META_BATCH_BYTES {
            Some(FlushTrigger::Bytes)
        } else if q.expired(now) {
            Some(FlushTrigger::Deadline)
        } else {
            None
        };
        if let Some(t) = trigger {
            offer.flush_now = Some((q.take(), t));
        }
        offer
    }

    /// Take `primary`'s queue iff it holds a pending op on `path` —
    /// the read-side hazard barrier (stat/open/unlink of a queued
    /// path must not observe pre-batch state).
    pub fn take_hazard(&mut self, primary: NodeId, path: &str) -> Option<Vec<MetaOp>> {
        let q = &mut self.queues[primary];
        q.holds_path(path).then(|| q.take())
    }

    /// Take every non-empty queue (explicit barrier), in node order.
    pub fn take_all(&mut self) -> Vec<Vec<MetaOp>> {
        self.queues
            .iter_mut()
            .filter(|q| !q.ops.is_empty())
            .map(Queue::take)
            .collect()
    }

    /// Take every queue whose oldest op outlived the deadline.
    pub fn take_expired(&mut self, now: Instant) -> Vec<Vec<MetaOp>> {
        self.queues
            .iter_mut()
            .filter(|q| q.expired(now))
            .map(Queue::take)
            .collect()
    }

    /// Total ops currently queued across all primaries.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.ops.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_common::FileKind;
    use gkfs_rpc::proto::{CreateReq, PathReq};

    fn create(path: &str) -> MetaOp {
        MetaOp::Create(CreateReq {
            path: path.into(),
            kind: FileKind::File,
            mode: 0o644,
            exclusive: true,
            now_ns: 0,
        })
    }

    #[test]
    fn count_trigger_takes_the_full_queue() {
        let mut s = MetaBatchState::new(2, 3);
        let now = Instant::now();
        assert!(s.offer(0, create("/a"), now).flush_now.is_none());
        assert!(s.offer(0, create("/b"), now).flush_now.is_none());
        let o = s.offer(0, create("/c"), now);
        let (batch, trigger) = o.flush_now.unwrap();
        assert_eq!(trigger, FlushTrigger::Count);
        assert_eq!(batch.len(), 3);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn byte_cap_triggers_before_count() {
        let mut s = MetaBatchState::new(1, 100);
        let now = Instant::now();
        let half = "/".repeat(DEFAULT_META_BATCH_BYTES / 2);
        assert!(s.offer(0, create(&half), now).flush_now.is_none());
        let o = s.offer(0, create(&format!("{half}x")), now);
        assert_eq!(o.flush_now.unwrap().1, FlushTrigger::Bytes);
    }

    #[test]
    fn same_path_hazard_displaces_the_old_queue() {
        let mut s = MetaBatchState::new(1, 100);
        let now = Instant::now();
        s.offer(0, create("/a"), now);
        s.offer(0, create("/b"), now);
        let o = s.offer(0, MetaOp::Unlink(PathReq::new("/a")), now);
        let displaced = o.flush_first.unwrap();
        assert_eq!(displaced.len(), 2);
        assert!(o.flush_now.is_none());
        // The unlink is queued fresh behind the displaced batch.
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn read_hazard_takes_only_the_matching_queue() {
        let mut s = MetaBatchState::new(2, 100);
        let now = Instant::now();
        s.offer(0, create("/a"), now);
        s.offer(1, create("/b"), now);
        assert!(s.take_hazard(0, "/zzz").is_none());
        assert_eq!(s.take_hazard(0, "/a").unwrap().len(), 1);
        assert_eq!(s.pending(), 1, "queue 1 untouched");
    }

    #[test]
    fn deadline_fires_on_the_next_interaction() {
        let mut s = MetaBatchState::new(1, 100);
        let t0 = Instant::now();
        s.offer(0, create("/a"), t0);
        assert!(s.take_expired(t0).is_empty());
        let later = t0 + DEADLINE + Duration::from_millis(1);
        let expired = s.take_expired(later);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].len(), 1);
        // An offer at an expired instant flushes inline too.
        s.offer(0, create("/b"), t0);
        let o = s.offer(0, create("/c"), later);
        assert_eq!(o.flush_now.unwrap().1, FlushTrigger::Deadline);
    }

    #[test]
    fn take_all_drains_every_queue() {
        let mut s = MetaBatchState::new(3, 100);
        let now = Instant::now();
        s.offer(0, create("/a"), now);
        s.offer(2, create("/b"), now);
        let all = s.take_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0][0].path(), "/a");
        assert_eq!(all[1][0].path(), "/b");
        assert_eq!(s.pending(), 0);
    }
}
