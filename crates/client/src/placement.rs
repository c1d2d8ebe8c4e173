//! Replica placement: the one value that answers "who holds this key
//! right now".
//!
//! The paper's client does one thing before every operation — hash the
//! path (or path + chunk id) to the responsible daemon. With N-way
//! replication that answer becomes an ordered *set* of daemons under
//! the current liveness view, and the rules for growing, healing and
//! walking that set ([`successors`], [`live_replicas`],
//! [`substitute`], the failure detector's dead mask, the write quorum,
//! the hedge window) live here and nowhere else in the client. Every
//! metadata and data operation in [`crate::client`] asks a
//! [`Placement`] and then runs one routine over whatever it answers.
//!
//! Replication off is not a second code path: with `replicas == 1`
//! every write set and every read chain is `[primary]`, the quorum is
//! 1, no failed leg is survivable, and the failure detector is never
//! consulted — the paper's unreplicated semantics.
//!
//! DESIGN.md ("Replication, failure detection and recovery") has the
//! table of which operation asks for which set, chain or quorum.

use gkfs_common::distributor::{live_replicas, substitute, successors, Distributor, NodeId};
use gkfs_common::{FailureDetector, GkfsError, ReplicationConfig};
use std::sync::Arc;
use std::time::Duration;

/// Replica policy for one mounted namespace, built once at mount from
/// the distributor, the [`ReplicationConfig`] and the ring's failure
/// detector.
pub struct Placement {
    dist: Arc<dyn Distributor>,
    /// Configured copies of every key, at least 1.
    replicas: usize,
    quorum: usize,
    hedge_after: Option<Duration>,
    detector: Arc<FailureDetector>,
}

impl Placement {
    /// Placement over `dist`'s nodes under `repl`, judging liveness by
    /// `detector` (which must cover the same nodes).
    pub fn new(
        dist: Arc<dyn Distributor>,
        repl: &ReplicationConfig,
        detector: Arc<FailureDetector>,
    ) -> Placement {
        Placement {
            replicas: repl.replicas.max(1),
            quorum: repl.quorum(dist.nodes()),
            hedge_after: repl.hedge_after(),
            dist,
            detector,
        }
    }

    /// The hash-placed owner of `path`'s metadata: the daemon whose
    /// verdict on a mutation is authoritative.
    pub fn meta_primary(&self, path: &str) -> NodeId {
        self.dist.locate_metadata(path)
    }

    /// The hash-placed owner of chunk `chunk` of `path`.
    pub fn chunk_primary(&self, path: &str, chunk: u64) -> NodeId {
        self.dist.locate_chunk(path, chunk)
    }

    /// The daemons a metadata mutation of `path` goes to.
    pub fn meta_set(&self, path: &str) -> Vec<NodeId> {
        self.meta_set_of(self.meta_primary(path))
    }

    /// The daemons a write of chunk `chunk` of `path` goes to.
    pub fn chunk_set(&self, path: &str, chunk: u64) -> Vec<NodeId> {
        self.meta_set_of(self.chunk_primary(path, chunk))
    }

    /// The ordered live write set of the key owned by `primary` — a
    /// pure function of the primary and the liveness view, which is
    /// what lets a whole per-primary batch share one fan-out. Members
    /// the failure detector considers dead are swapped for their ring
    /// substitutes ([`live_replicas`]), so mutations keep landing on
    /// `replicas` copies while a member is down (recovery later drains
    /// the substitute's copy back); slot 0 is `primary` itself exactly
    /// when the primary is alive. Falls back to the raw set when
    /// everything looks dead — the detector may simply be stale.
    pub fn meta_set_of(&self, primary: NodeId) -> Vec<NodeId> {
        if self.replicas == 1 {
            return vec![primary];
        }
        let nodes = self.dist.nodes();
        let raw = successors(primary, self.replicas, nodes);
        let live = live_replicas(&raw, &self.detector.dead_mask(), nodes);
        if live.is_empty() {
            raw
        } else {
            live
        }
    }

    /// Every node a copy of the key owned by `primary` could live on,
    /// in the order a read should consult them:
    ///
    /// 1. the raw set's members the failure detector considers live
    ///    (the nodes the writes went to — most likely to hold the
    ///    data);
    /// 2. live ring substitutes for dead members ([`live_replicas`]) —
    ///    where re-replication parks repair copies and where writes
    ///    divert while a member is down;
    /// 3. the primary's would-be substitute even when every member
    ///    currently looks alive — an *earlier* incident may have left
    ///    repair copies there that have not drained back yet;
    /// 4. the raw set itself when everything above is dead (the
    ///    detector may simply be stale).
    ///
    /// The healthy path never goes past the first entry; later ones
    /// are only contacted when earlier ones fail, stall, or answer
    /// "absent".
    pub fn read_chain(&self, primary: NodeId) -> Vec<NodeId> {
        if self.replicas == 1 {
            return vec![primary];
        }
        let nodes = self.dist.nodes();
        let set = successors(primary, self.replicas, nodes);
        let dead = self.detector.dead_mask();
        let alive = |m: NodeId| !dead.get(m).copied().unwrap_or(false);
        let mut chain: Vec<NodeId> = set.iter().copied().filter(|&m| alive(m)).collect();
        let later = live_replicas(&set, &dead, nodes)
            .into_iter()
            .chain(substitute(primary, &set, &dead, nodes));
        for n in later {
            if !chain.contains(&n) {
                chain.push(n);
            }
        }
        if chain.is_empty() {
            return set;
        }
        chain
    }

    /// The hash-placed replica set of chunk `chunk` of `path`, dead
    /// members included: every daemon a write may ever have been
    /// *placed* on, which is what chunk removal must reach.
    pub fn raw_chunk_set(&self, path: &str, chunk: u64) -> Vec<NodeId> {
        self.dist.chunk_replicas(path, chunk, self.replicas)
    }

    /// Members of a write set that must apply a mutation before it is
    /// reported durable ([`ReplicationConfig::quorum`]).
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// How long a read waits on one chain member before also asking
    /// the next; `None` waits each member out
    /// ([`crate::rpc::ReplyFuture::wait_hedge`]).
    pub fn hedge_after(&self) -> Option<Duration> {
        self.hedge_after
    }

    /// May an operation carry on past a leg that failed with `err` — a
    /// broadcast leg (chunk removal, truncate cut, listing page) be
    /// skipped? Only when the node is down *and* every key has another copy: the
    /// leg's work is then covered by a replica, or redone by recovery
    /// when the node rejoins. Without replication nothing is
    /// survivable.
    pub fn survivable(&self, err: &GkfsError) -> bool {
        self.replicas > 1 && err.is_node_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_common::distributor::SimpleHashDistributor;
    use proptest::prelude::*;

    /// A placement over `nodes` nodes whose detector reports exactly
    /// the `dead` nodes as dead (zero thresholds: one recorded failure
    /// is death).
    fn placement(nodes: usize, replicas: usize, dead: &[bool]) -> Placement {
        let detector = Arc::new(FailureDetector::new(nodes, Duration::ZERO, Duration::ZERO));
        for (n, _) in dead.iter().enumerate().filter(|(_, &d)| d) {
            detector.record_failure(n);
        }
        assert_eq!(detector.dead_mask(), dead);
        let repl = ReplicationConfig {
            replicas,
            ..ReplicationConfig::default()
        };
        Placement::new(Arc::new(SimpleHashDistributor::new(nodes)), &repl, detector)
    }

    fn mask(nodes: usize, dead: &[NodeId]) -> Vec<bool> {
        (0..nodes).map(|n| dead.contains(&n)).collect()
    }

    /// What `GekkoClient::meta_targets_of` / `fan_out_replicated`
    /// computed before `Placement` existed.
    fn old_write_set(primary: NodeId, replicas: usize, dead: &[bool]) -> Vec<NodeId> {
        let raw = successors(primary, replicas, dead.len());
        let live = live_replicas(&raw, dead, dead.len());
        if live.is_empty() {
            raw
        } else {
            live
        }
    }

    /// What `GekkoClient::failover_chain` computed over the raw set of
    /// `primary` before `Placement` existed.
    fn old_failover_chain(primary: NodeId, replicas: usize, dead: &[bool]) -> Vec<NodeId> {
        let nodes = dead.len();
        let set = successors(primary, replicas, nodes);
        let mut chain: Vec<NodeId> = set.iter().copied().filter(|&m| !dead[m]).collect();
        for s in live_replicas(&set, dead, nodes) {
            if !chain.contains(&s) {
                chain.push(s);
            }
        }
        if let Some(sub) = substitute(primary, &set, dead, nodes) {
            if !chain.contains(&sub) {
                chain.push(sub);
            }
        }
        if chain.is_empty() {
            return set;
        }
        chain
    }

    #[test]
    fn healthy_sets_are_successor_walks() {
        let p = placement(5, 3, &mask(5, &[]));
        assert_eq!(p.meta_set_of(3), vec![3, 4, 0]);
        // Healthy chain: the set, then the primary's would-be substitute.
        assert_eq!(p.read_chain(3), vec![3, 4, 0, 1]);
        assert_eq!(p.quorum(), 3);
        let owner = p.meta_primary("/a/b");
        assert_eq!(p.meta_set("/a/b"), p.meta_set_of(owner));
        assert_eq!(p.meta_set("/a/b")[0], owner);
        let chunk_owner = p.chunk_primary("/a/b", 7);
        assert_eq!(p.chunk_set("/a/b", 7), p.meta_set_of(chunk_owner));
        assert_eq!(p.raw_chunk_set("/a/b", 7), p.chunk_set("/a/b", 7));
    }

    #[test]
    fn dead_members_are_swapped_for_substitutes() {
        // Set of 1 is [1, 2]; 2 is dead, 3 is the first substitute.
        let p = placement(5, 2, &mask(5, &[2]));
        assert_eq!(p.meta_set_of(1), vec![1, 3]);
        assert_eq!(p.read_chain(1), vec![1, 3]);
        // A dead primary loses slot 0 to the survivor-ordered set.
        let p = placement(5, 2, &mask(5, &[1]));
        assert_eq!(p.meta_set_of(1), vec![3, 2]);
        assert_eq!(p.read_chain(1), vec![2, 3]);
        // Removal still targets where the hash placed the data.
        let owner = p.chunk_primary("/f", 0);
        assert_eq!(p.raw_chunk_set("/f", 0), successors(owner, 2, 5));
    }

    #[test]
    fn everything_dead_falls_back_to_the_raw_set() {
        let p = placement(3, 2, &mask(3, &[0, 1, 2]));
        assert_eq!(p.meta_set_of(2), vec![2, 0]);
        assert_eq!(p.read_chain(2), vec![2, 0]);
    }

    #[test]
    fn only_replication_makes_a_down_node_survivable() {
        let down = GkfsError::Rpc("daemon unreachable".into());
        assert!(down.is_node_down());
        assert!(!placement(3, 1, &mask(3, &[])).survivable(&down));
        assert!(placement(3, 2, &mask(3, &[])).survivable(&down));
        // A daemon that answered is not down, replicated or not.
        assert!(!placement(3, 2, &mask(3, &[])).survivable(&GkfsError::NotFound));
    }

    #[test]
    fn quorum_and_hedge_follow_the_config() {
        let detector = || Arc::new(FailureDetector::new(4, Duration::ZERO, Duration::ZERO));
        let dist = || Arc::new(SimpleHashDistributor::new(4));
        let repl = ReplicationConfig {
            replicas: 3,
            write_quorum: 2,
            hedge_after_ms: 0,
            ..ReplicationConfig::default()
        };
        let p = Placement::new(dist(), &repl, detector());
        assert_eq!(p.quorum(), 2);
        assert_eq!(p.hedge_after(), None);
        let p = Placement::new(dist(), &ReplicationConfig::default(), detector());
        assert_eq!(p.quorum(), 1);
        assert_eq!(p.hedge_after(), Some(Duration::from_millis(50)));
    }

    proptest! {
        /// Replication off is a replica set of one: whatever the
        /// detector believes, every set and chain is `[primary]`.
        #[test]
        fn one_replica_is_always_just_the_primary(
            primary in any::<usize>(),
            nodes in 1usize..40,
            chunk in any::<u64>(),
            dead_bits in prop::collection::vec(any::<bool>(), 40..41),
        ) {
            let p = placement(nodes, 1, &dead_bits[..nodes]);
            let primary = primary % nodes;
            prop_assert_eq!(p.meta_set_of(primary), vec![primary]);
            prop_assert_eq!(p.read_chain(primary), vec![primary]);
            prop_assert_eq!(p.meta_set("/x/y"), vec![p.meta_primary("/x/y")]);
            let owner = p.chunk_primary("/x/y", chunk);
            prop_assert_eq!(p.chunk_set("/x/y", chunk), vec![owner]);
            prop_assert_eq!(p.raw_chunk_set("/x/y", chunk), vec![owner]);
            prop_assert_eq!(p.quorum(), 1);
        }

        /// With replication on, sets and chains are exactly what the
        /// client's per-call-site derivations used to compute, under
        /// any liveness view — and stay well-formed.
        #[test]
        fn replicated_sets_match_the_old_derivations(
            primary in any::<usize>(),
            nodes in 1usize..40,
            replicas in 2usize..6,
            dead_bits in prop::collection::vec(any::<bool>(), 40..41),
        ) {
            let dead = &dead_bits[..nodes];
            let p = placement(nodes, replicas, dead);
            let primary = primary % nodes;
            let set = p.meta_set_of(primary);
            prop_assert_eq!(&set, &old_write_set(primary, replicas, dead));
            let chain = p.read_chain(primary);
            prop_assert_eq!(&chain, &old_failover_chain(primary, replicas, dead));
            for members in [&set, &chain] {
                prop_assert!(!members.is_empty());
                prop_assert!(members.iter().all(|&n| n < nodes));
                let mut uniq = members.clone();
                uniq.sort_unstable();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), members.len(), "members distinct: {:?}", members);
            }
            // Slot 0 is the primary exactly when the primary is alive
            // (or nothing is): the authoritative-verdict guard.
            if !dead[primary] {
                prop_assert_eq!(set[0], primary);
                prop_assert_eq!(chain[0], primary);
            }
        }
    }
}
