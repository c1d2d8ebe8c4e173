//! Node health: a threshold failure detector with each node's circuit
//! breaker in the same record.
//!
//! Both sides of the file system keep one [`FailureDetector`] per
//! process: clients feed it passively from every RPC outcome
//! (piggybacked detection), daemons additionally drive it with an
//! idle-timer heartbeat probe. Every outcome is judged by one rule,
//! [`FailureDetector::record`]. A node's [`Liveness`] is a pure
//! function of (a) whether any attempt has failed since the last
//! success and (b) how long the node has been silent:
//!
//! * failures but silence shorter than `suspect_after` → still `Alive`
//!   (one dropped packet is not an outage);
//! * silence past `suspect_after` → `Suspect` (reads start preferring
//!   other replicas);
//! * silence past `dead_after` → `Dead` (writes divert to ring
//!   substitutes and re-replication starts).
//!
//! An *idle* node — no traffic at all — stays `Alive`: transitions
//! require observed failures, so a quiet client never invents an
//! outage. Heartbeat responses carry the daemon's **epoch** (a random
//! incarnation id drawn at spawn); a changed epoch means the process
//! restarted and lost its volatile state, which observers surface as a
//! rejoin even when the restart was faster than `dead_after`.
//!
//! The same failure streak drives the **circuit breaker**
//! ([`FailureDetector::with_breaker`], the client's): after
//! `threshold` failures in a row the node's breaker opens and
//! [`FailureDetector::allow`] fails requests fast with
//! [`GkfsError::Unavailable`] instead of letting them burn their
//! deadline on a daemon that is gone; once a cooldown has passed, a
//! single half-open probe decides whether it closes again. Daemons
//! build their detector without one (threshold 0): it never opens.

use crate::error::{GkfsError, Result};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// A node's health as seen by one observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Responding, or idle with no observed failures.
    Alive,
    /// Silent past the suspect threshold with failures outstanding.
    Suspect,
    /// Silent past the dead threshold; treated as gone.
    Dead,
}

impl Liveness {
    /// Stable wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Liveness::Alive => 0,
            Liveness::Suspect => 1,
            Liveness::Dead => 2,
        }
    }

    /// Decode from the wire; unknown values read as `Suspect` (the
    /// conservative middle).
    pub fn from_u8(v: u8) -> Liveness {
        match v {
            0 => Liveness::Alive,
            2 => Liveness::Dead,
            _ => Liveness::Suspect,
        }
    }
}

impl std::fmt::Display for Liveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Liveness::Alive => write!(f, "alive"),
            Liveness::Suspect => write!(f, "suspect"),
            Liveness::Dead => write!(f, "dead"),
        }
    }
}

/// A transition observed by [`FailureDetector::poll_transitions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The node that changed state.
    pub node: usize,
    /// Its previously reported liveness.
    pub from: Liveness,
    /// Its current liveness.
    pub to: Liveness,
    /// Whether the node came back with a *different epoch* — a restart
    /// that lost volatile state, reported even for Alive → Alive.
    pub rejoined: bool,
}

/// A node's circuit-breaker state, in the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Failing fast; no requests pass until the cooldown elapses.
    Open,
    /// Cooldown elapsed; exactly one probe request is in flight.
    HalfOpen,
}

/// `NodeRecord::gate` bits below the window's end: the breaker is
/// open, and a half-open probe holds the window.
const OPEN: u64 = 1;
const PROBING: u64 = 2;

/// One node's health as one observer keeps it: what liveness is
/// judged by, the breaker's fail-fast window, and the counters
/// `gkfs-cli df` prints.
#[derive(Debug)]
pub struct NodeRecord {
    /// Microseconds since detector construction of the last success.
    last_ok_us: AtomicU64,
    /// Failed attempts since the last success (0 ⇒ Alive regardless of
    /// silence — idle is not an outage); the breaker opens on it.
    failures_since_ok: AtomicU32,
    /// The breaker: 0 while closed, else the end of its current window
    /// (detector microseconds) shifted above the `OPEN` and `PROBING`
    /// bits.
    gate: AtomicU64,
    /// Failures recorded, ever.
    failures: AtomicU64,
    /// RPC attempts beyond the first, across all operations.
    retries: AtomicU64,
    /// Last incarnation id seen in a heartbeat (0 = none yet).
    epoch: AtomicU64,
    /// Liveness as of the last `poll_transitions` call.
    reported: AtomicU8,
    /// Set when an epoch change was seen; consumed by the next poll.
    epoch_flip: AtomicU32,
}

impl NodeRecord {
    /// Current breaker state (racy by nature; for reporting).
    pub fn breaker_state(&self) -> BreakerState {
        match self.gate.load(Ordering::Acquire) {
            0 => BreakerState::Closed,
            g if g & PROBING != 0 => BreakerState::HalfOpen,
            _ => BreakerState::Open,
        }
    }

    /// Failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.failures_since_ok.load(Ordering::Relaxed)
    }

    /// Failures recorded (application errors excluded).
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// RPC attempts beyond the first, across all operations.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// Threshold failure detector over a fixed node set. All operations
/// are lock-free (atomics only, so it sits on the RPC fast path
/// without joining the ranked lock hierarchy); see the module docs for
/// the transition rules.
pub struct FailureDetector {
    start: Instant,
    suspect_after: Duration,
    dead_after: Duration,
    /// Failures in a row that open a node's breaker; 0 never opens it.
    breaker_threshold: u32,
    breaker_cooldown_us: u64,
    nodes: Vec<NodeRecord>,
}

impl FailureDetector {
    /// A detector over `nodes` nodes with the given silence thresholds
    /// and no circuit breaker.
    pub fn new(nodes: usize, suspect_after: Duration, dead_after: Duration) -> FailureDetector {
        let start = Instant::now();
        FailureDetector {
            start,
            suspect_after,
            dead_after,
            breaker_threshold: 0,
            breaker_cooldown_us: 0,
            nodes: (0..nodes)
                .map(|_| NodeRecord {
                    last_ok_us: AtomicU64::new(0),
                    failures_since_ok: AtomicU32::new(0),
                    gate: AtomicU64::new(0),
                    failures: AtomicU64::new(0),
                    retries: AtomicU64::new(0),
                    epoch: AtomicU64::new(0),
                    reported: AtomicU8::new(Liveness::Alive.as_u8()),
                    epoch_flip: AtomicU32::new(0),
                })
                .collect(),
        }
    }

    /// The same detector with a circuit breaker per node: it opens
    /// after `threshold` failures in a row and probes again `cooldown`
    /// later. `threshold == 0` leaves it off.
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> FailureDetector {
        self.breaker_threshold = threshold;
        self.breaker_cooldown_us = cooldown.as_micros() as u64;
        self
    }

    /// Every node's record, in node order.
    pub fn records(&self) -> &[NodeRecord] {
        &self.nodes
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the detector tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Put one exchange with `node` on its record — the one rule for
    /// which outcomes count against a node. A breaker denial
    /// ([`GkfsError::Unavailable`]) records nothing: no request was
    /// sent. An error that indicts the node ([`GkfsError::is_node_down`]:
    /// unreachable, silent, corrupt frames, shutting down) is a
    /// failure. Anything else — a reply, or an application error such
    /// as `NotFound`, which proves the daemon answered — is a success.
    pub fn record<T>(&self, node: usize, outcome: &Result<T>) {
        match outcome {
            Err(GkfsError::Unavailable(_)) => {}
            Err(e) if e.is_node_down() => self.record_failure(node),
            _ => self.record_ok(node),
        }
    }

    /// Record a successful exchange with `node` (any RPC, not just a
    /// heartbeat — detection piggybacks on regular traffic). Closes
    /// its breaker.
    pub fn record_ok(&self, node: usize) {
        if let Some(s) = self.nodes.get(node) {
            s.last_ok_us.store(self.now_us(), Ordering::Relaxed);
            s.failures_since_ok.store(0, Ordering::Relaxed);
            if s.gate.load(Ordering::Relaxed) != 0 {
                s.gate.store(0, Ordering::Release);
            }
        }
    }

    /// Note the incarnation `epoch` a heartbeat reply from `node`
    /// carried. Returns `true` when the epoch changed from a previously
    /// seen value — the node restarted (rejoined with empty state).
    pub fn record_epoch(&self, node: usize, epoch: u64) -> bool {
        let Some(s) = self.nodes.get(node) else {
            return false;
        };
        // Epoch 0 means "the peer cannot state its incarnation yet" (a
        // daemon answering heartbeats before its replication manager is
        // installed). It must never overwrite a remembered epoch:
        // forgetting the old incarnation here would make the real epoch
        // that follows look like first contact, silently swallowing the
        // restart transition — and with it the drain-back.
        let prev = if epoch == 0 {
            s.epoch.load(Ordering::Relaxed)
        } else {
            s.epoch.swap(epoch, Ordering::Relaxed)
        };
        let flipped = prev != 0 && epoch != 0 && prev != epoch;
        if flipped {
            s.epoch_flip.fetch_add(1, Ordering::Relaxed);
        }
        flipped
    }

    /// Record a failed exchange with `node` (transport error or probe
    /// timeout). The failure that reaches the breaker threshold opens
    /// the breaker, and every later one (a failed half-open probe
    /// among them) restarts its cooldown.
    pub fn record_failure(&self, node: usize) {
        if let Some(s) = self.nodes.get(node) {
            s.failures.fetch_add(1, Ordering::Relaxed);
            let streak = s.failures_since_ok.fetch_add(1, Ordering::AcqRel) + 1;
            if self.breaker_threshold != 0 && streak >= self.breaker_threshold {
                s.gate.store((self.window_end() << 2) | OPEN, Ordering::Release);
            }
        }
    }

    /// Count an RPC attempt beyond the first against `node`.
    pub fn note_retry(&self, node: usize) {
        if let Some(s) = self.nodes.get(node) {
            s.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// May a request to `node` proceed? `false` means fail fast with
    /// [`GkfsError::Unavailable`]. Once an open breaker's window has
    /// passed, exactly one caller wins the half-open probe, and the
    /// probe gets a cooldown-sized window of its own to resolve in. If
    /// its owner never resolves it (the reply future was dropped), the
    /// breaker must not wedge: when that window passes too, the slot is
    /// forfeit and one new caller claims it the same way.
    pub fn allow(&self, node: usize) -> bool {
        let Some(s) = self.nodes.get(node) else {
            return true;
        };
        let gate = s.gate.load(Ordering::Acquire);
        if gate == 0 {
            return true;
        }
        self.now_us() >= gate >> 2
            && s.gate
                .compare_exchange(
                    gate,
                    (self.window_end() << 2) | OPEN | PROBING,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
    }

    /// When a breaker window opened now ends, in detector microseconds.
    fn window_end(&self) -> u64 {
        self.now_us() + self.breaker_cooldown_us
    }

    /// The node's current liveness under the threshold rules.
    pub fn liveness(&self, node: usize) -> Liveness {
        let Some(s) = self.nodes.get(node) else {
            return Liveness::Dead;
        };
        if s.failures_since_ok.load(Ordering::Relaxed) == 0 {
            return Liveness::Alive;
        }
        // `record_ok` (piggybacked on every RPC) can store a timestamp
        // sampled *after* our `now_us()` — the subtraction must
        // saturate, or the race reads a healthy node as silent for
        // ~2^64 µs (panic in debug, spurious Dead + repair in release).
        let silent = Duration::from_micros(
            self.now_us()
                .saturating_sub(s.last_ok_us.load(Ordering::Relaxed)),
        );
        if silent >= self.dead_after {
            Liveness::Dead
        } else if silent >= self.suspect_after {
            Liveness::Suspect
        } else {
            Liveness::Alive
        }
    }

    /// Per-node liveness snapshot.
    pub fn snapshot(&self) -> Vec<Liveness> {
        (0..self.nodes.len()).map(|n| self.liveness(n)).collect()
    }

    /// `true` for each node currently considered [`Liveness::Dead`] —
    /// the mask consumed by `distributor::live_replicas`.
    pub fn dead_mask(&self) -> Vec<bool> {
        (0..self.nodes.len())
            .map(|n| self.liveness(n) == Liveness::Dead)
            .collect()
    }

    /// Compare current liveness against the last reported state and
    /// return the transitions since, updating the reported state.
    /// Intended for a single poller (the heartbeat thread); concurrent
    /// polls may split one transition between callers but never lose
    /// it.
    pub fn poll_transitions(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        for (n, s) in self.nodes.iter().enumerate() {
            let cur = self.liveness(n);
            let prev = Liveness::from_u8(s.reported.swap(cur.as_u8(), Ordering::Relaxed));
            let rejoined = s.epoch_flip.swap(0, Ordering::Relaxed) > 0;
            if prev != cur || rejoined {
                out.push(Transition {
                    node: n,
                    from: prev,
                    to: cur,
                    rejoined,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fast() -> FailureDetector {
        FailureDetector::new(3, Duration::from_millis(20), Duration::from_millis(60))
    }

    #[test]
    fn idle_nodes_stay_alive() {
        let d = fast();
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(d.liveness(0), Liveness::Alive, "idle is not an outage");
    }

    #[test]
    fn failures_plus_silence_escalate() {
        let d = fast();
        d.record_ok(1);
        d.record_failure(1);
        assert_eq!(d.liveness(1), Liveness::Alive, "fresh failure tolerated");
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(d.liveness(1), Liveness::Suspect);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(d.liveness(1), Liveness::Dead);
        assert_eq!(d.dead_mask(), vec![false, true, false]);
        // Recovery: one success resets everything.
        d.record_ok(1);
        assert_eq!(d.liveness(1), Liveness::Alive);
    }

    #[test]
    fn epoch_change_reports_rejoin() {
        let d = fast();
        assert!(!d.record_epoch(0, 7), "first epoch is not a rejoin");
        assert!(!d.record_epoch(0, 7), "same epoch is not a rejoin");
        assert!(
            !d.record_epoch(0, 0),
            "epoch 0 (peer not fully up yet) is never a rejoin"
        );
        assert!(
            d.record_epoch(0, 9),
            "a restart stays visible even when an epoch-0 reply landed between incarnations"
        );
        let ts = d.poll_transitions();
        assert_eq!(ts.len(), 1);
        assert!(ts[0].rejoined);
        assert_eq!(ts[0].node, 0);
    }

    #[test]
    fn transitions_fire_once() {
        let d = fast();
        d.record_ok(2);
        d.record_failure(2);
        std::thread::sleep(Duration::from_millis(70));
        let ts = d.poll_transitions();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].to, Liveness::Dead);
        assert!(d.poll_transitions().is_empty(), "no repeat reports");
    }

    #[test]
    fn liveness_tolerates_concurrent_record_ok() {
        // `record_ok` racing `liveness` can store a last-ok timestamp
        // later than the reader's `now_us()` sample; the silence
        // subtraction must saturate (a wrap would read Alive as Dead).
        let d = Arc::new(FailureDetector::new(
            1,
            Duration::from_micros(1),
            Duration::from_micros(2),
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (d, stop) = (d.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    d.record_failure(0);
                    d.record_ok(0);
                    d.record_failure(0);
                }
            })
        };
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(50) {
            // Must never panic (debug) and a just-refreshed node must
            // never read Dead from a wrapped silence.
            let _ = d.liveness(0);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn out_of_range_nodes_read_dead() {
        let d = fast();
        assert_eq!(d.liveness(99), Liveness::Dead);
        d.record_ok(99); // must not panic
        d.record_failure(99);
    }

    /// One node behind a breaker that opens after `threshold` failures
    /// and probes again `cooldown_ms` later; silence never matters here.
    fn breaker(threshold: u32, cooldown_ms: u64) -> FailureDetector {
        FailureDetector::new(1, Duration::from_secs(60), Duration::from_secs(60))
            .with_breaker(threshold, Duration::from_millis(cooldown_ms))
    }

    #[test]
    #[cfg_attr(miri, ignore = "real-clock cooldown windows are meaningless at interpreter speed")]
    fn breaker_opens_half_opens_and_closes() {
        let d = breaker(3, 30);
        let b = &d.records()[0];
        assert_eq!(b.breaker_state(), BreakerState::Closed);
        for _ in 0..3 {
            assert!(d.allow(0));
            d.record_failure(0);
        }
        assert_eq!(b.breaker_state(), BreakerState::Open);
        assert!(!d.allow(0), "open breaker fails fast");
        std::thread::sleep(Duration::from_millis(40));
        // Exactly one probe wins after cooldown.
        assert!(d.allow(0));
        assert_eq!(b.breaker_state(), BreakerState::HalfOpen);
        assert!(!d.allow(0), "only one half-open probe at a time");
        d.record_ok(0);
        assert_eq!(b.breaker_state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
        assert!(d.allow(0));
    }

    #[test]
    #[cfg_attr(miri, ignore = "real-clock cooldown windows are meaningless at interpreter speed")]
    fn breaker_reopens_on_failed_probe() {
        let d = breaker(2, 20);
        let b = &d.records()[0];
        d.record_failure(0);
        d.record_failure(0);
        assert_eq!(b.breaker_state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(30));
        assert!(d.allow(0));
        d.record_failure(0); // probe failed
        assert_eq!(b.breaker_state(), BreakerState::Open);
        assert!(!d.allow(0));
    }

    #[test]
    #[cfg_attr(miri, ignore = "real-clock cooldown windows are meaningless at interpreter speed")]
    fn abandoned_probe_does_not_wedge_breaker() {
        // A caller that wins the half-open probe slot and then drops
        // its reply future without recording an outcome must not leave
        // the breaker half-open forever.
        let d = breaker(1, 20);
        let b = &d.records()[0];
        d.record_failure(0);
        std::thread::sleep(Duration::from_millis(30));
        assert!(d.allow(0), "first probe claims the slot");
        assert_eq!(b.breaker_state(), BreakerState::HalfOpen);
        assert!(!d.allow(0), "slot is taken for a cooldown window");
        // ... the probe owner vanishes ...
        std::thread::sleep(Duration::from_millis(30));
        assert!(d.allow(0), "forfeited probe slot reopens");
        d.record_ok(0);
        assert_eq!(b.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_disables_breaker() {
        let d = breaker(0, 1);
        for _ in 0..100 {
            d.record_failure(0);
            assert!(d.allow(0));
        }
        assert_eq!(d.records()[0].breaker_state(), BreakerState::Closed);
    }
}
