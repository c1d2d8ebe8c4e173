//! Data and metadata distribution — the heart of GekkoFS' scalability.
//!
//! From the paper (§III-B-a): *"Each file system operation is forwarded
//! via an RPC message to a specific daemon (determined by hashing of
//! the file's path) where it is directly executed. ... GekkoFS uses a
//! pseudo-random distribution to spread data and metadata across all
//! nodes, also known as wide-striping. Because each client is able to
//! independently resolve the responsible node for a file system
//! operation, GekkoFS does not require central data structures that
//! keep track of where metadata or data is located."*
//!
//! [`Distributor`] is that placement: `hash % n`, what GekkoFS shipped.
//! One rule is this repository's own: chunk 0 of a file lives where its
//! metadata does (see [`Distributor::locate_chunk`]); every other chunk
//! hashes by `path + chunk id` as in the paper.

use crate::hash::{hash_chunk, hash_path};

/// Node index within a deployment (0-based, dense).
pub type NodeId = usize;

/// Maps file-system objects onto daemons. A pure function of the node
/// count and its inputs — clients and daemons each build their own copy
/// with [`Distributor::new`] and always agree.
#[derive(Debug, Clone, Copy)]
pub struct Distributor {
    nodes: usize,
}

impl Distributor {
    /// Create a distributor over `nodes` daemons.
    pub fn new(nodes: usize) -> Distributor {
        assert!(nodes > 0, "need at least one node");
        Distributor { nodes }
    }

    /// Number of nodes this distributor spreads over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Which daemon owns the *metadata* of `path`.
    pub fn locate_metadata(&self, path: &str) -> NodeId {
        (hash_path(path) % self.nodes as u64) as NodeId
    }

    /// Which daemon stores chunk `chunk_id` of `path`. Chunk 0 is placed
    /// with the metadata (`locate_chunk(p, 0) == locate_metadata(p)`):
    /// everything a file of at most one chunk needs is then on one
    /// daemon, which is what lets its create, bytes and size ride one
    /// frame and its owner drop the chunk when it removes the entry (a
    /// deviation from the paper's §III-B, which hashes every chunk by
    /// `path + chunk id`; DESIGN.md "Substitutions").
    pub fn locate_chunk(&self, path: &str, chunk_id: u64) -> NodeId {
        if chunk_id == 0 {
            return self.locate_metadata(path);
        }
        (hash_chunk(path, chunk_id) % self.nodes as u64) as NodeId
    }

    /// The replica set for chunk `chunk_id` of `path`: the primary
    /// (`locate_chunk`) followed by its `replicas - 1` ring successors.
    /// Derived from the same hash placement, so every client and
    /// daemon computes the same set without coordination. Size is
    /// `min(replicas, nodes)`; members are distinct.
    pub fn chunk_replicas(&self, path: &str, chunk_id: u64, replicas: usize) -> Vec<NodeId> {
        successors(self.locate_chunk(path, chunk_id), replicas, self.nodes)
    }

    /// The replica set for the *metadata* of `path` (same successor
    /// construction as [`Distributor::chunk_replicas`]).
    pub fn metadata_replicas(&self, path: &str, replicas: usize) -> Vec<NodeId> {
        successors(self.locate_metadata(path), replicas, self.nodes)
    }
}

/// `min(replicas, nodes)` distinct nodes starting at `primary` and
/// walking the ring of node indices. The successor walk (rather than
/// re-hashing per replica) keeps the set a pure function of the
/// primary: every chunk batch bound for one primary shares one
/// fallback chain, and re-replication targets are computable by any
/// surviving member.
pub fn successors(primary: NodeId, replicas: usize, nodes: usize) -> Vec<NodeId> {
    let n = replicas.clamp(1, nodes);
    (0..n).map(|i| (primary + i) % nodes).collect()
}

/// The next ring successor eligible to adopt a dead member's copy:
/// the first node after `primary` that is neither in `set` nor marked
/// dead. `None` when every node outside the set is dead (no legal
/// target — the cluster stays under-replicated until a rejoin).
pub fn substitute(primary: NodeId, set: &[NodeId], dead: &[bool], nodes: usize) -> Option<NodeId> {
    (1..nodes)
        .map(|i| (primary + i) % nodes)
        .find(|cand| !set.contains(cand) && !dead.get(*cand).copied().unwrap_or(false))
}

/// A replica set with dead members swapped for their ring
/// substitutes, preserving order (primary first when alive). This is
/// the set a client writes to while the failure detector reports
/// `dead` nodes down, and the set the re-replication driver restores.
pub fn live_replicas(set: &[NodeId], dead: &[bool], nodes: usize) -> Vec<NodeId> {
    live_slots(set, dead, nodes).into_iter().flatten().collect()
}

/// Where a repair of `set`'s dead `member` copies to: the substitute
/// [`live_replicas`] puts in that member's slot, so the repaired key
/// lives on the nodes clients write it to. `None` when `member` is not
/// a dead member of `set` or no live node is left to adopt its copy.
pub fn repair_target(set: &[NodeId], member: NodeId, dead: &[bool], nodes: usize) -> Option<NodeId> {
    let slot = set.iter().position(|&m| m == member)?;
    live_slots(set, dead, nodes)[slot].filter(|&n| n != member)
}

/// `set` slot by slot under `dead`: a live member keeps its slot, a
/// dead one gets the first [`substitute`] after the primary that no
/// earlier slot took (`None` when none is left).
fn live_slots(set: &[NodeId], dead: &[bool], nodes: usize) -> Vec<Option<NodeId>> {
    let primary = set.first().copied().unwrap_or(0);
    let mut taken: Vec<NodeId> = set.to_vec();
    set.iter()
        .map(|&m| {
            if !dead.get(m).copied().unwrap_or(false) {
                return Some(m);
            }
            let sub = substitute(primary, &taken, dead, nodes);
            taken.extend(sub);
            sub
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_hash_is_deterministic() {
        let d1 = Distributor::new(16);
        let d2 = Distributor::new(16);
        for i in 0..100 {
            let p = format!("/a/b/{i}");
            assert_eq!(d1.locate_metadata(&p), d2.locate_metadata(&p));
            assert_eq!(d1.locate_chunk(&p, i), d2.locate_chunk(&p, i));
        }
    }

    #[test]
    fn simple_hash_balances_metadata() {
        let d = Distributor::new(16);
        let mut counts = [0usize; 16];
        for i in 0..16_000 {
            counts[d.locate_metadata(&format!("/dir/file.{i}"))] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // ~1000 per node expected; allow generous statistical slack.
        assert!(min > 800, "min load {min} too low");
        assert!(max < 1200, "max load {max} too high");
    }

    #[test]
    fn chunks_of_one_file_stripe_widely() {
        let d = Distributor::new(32);
        let mut seen = std::collections::HashSet::new();
        for c in 0..256 {
            seen.insert(d.locate_chunk("/big/file", c));
        }
        // 256 chunks over 32 nodes should hit nearly all nodes.
        assert!(seen.len() >= 28, "only {} nodes hit", seen.len());
    }

    #[test]
    fn replica_sets_are_successor_walks() {
        let d = Distributor::new(8);
        for c in 0..64u64 {
            let set = d.chunk_replicas("/f", c, 3);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], d.locate_chunk("/f", c), "primary first");
            assert_eq!(set[1], (set[0] + 1) % 8);
            assert_eq!(set[2], (set[0] + 2) % 8);
        }
        let m = d.metadata_replicas("/f", 2);
        assert_eq!(m[0], d.locate_metadata("/f"));
        assert_eq!(m[1], (m[0] + 1) % 8);
    }

    #[test]
    fn replica_set_clamps_to_cluster_size() {
        let d = Distributor::new(2);
        let set = d.chunk_replicas("/f", 0, 5);
        assert_eq!(set.len(), 2, "min(replicas, nodes)");
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), set.len(), "members distinct");
    }

    #[test]
    fn substitute_skips_set_and_dead() {
        // set {1,2} on a 5-ring, node 3 dead -> substitute is 4.
        let mut dead = vec![false; 5];
        dead[3] = true;
        assert_eq!(substitute(1, &[1, 2], &dead, 5), Some(4));
        // Everyone outside the set dead -> no target.
        let dead = vec![true; 3];
        assert_eq!(substitute(0, &[0, 1], &dead, 3), None);
    }

    #[test]
    fn live_replicas_swaps_only_dead_members() {
        let mut dead = vec![false; 6];
        dead[3] = true;
        // {2,3} with 3 dead -> {2,4}; {0,1} untouched.
        assert_eq!(live_replicas(&[2, 3], &dead, 6), vec![2, 4]);
        assert_eq!(live_replicas(&[0, 1], &dead, 6), vec![0, 1]);
        // Primary dead: the surviving replica keeps its slot, the
        // substitute takes the primary's.
        dead[3] = false;
        dead[2] = true;
        assert_eq!(live_replicas(&[2, 3], &dead, 6), vec![4, 3]);
    }

    #[test]
    fn each_dead_member_is_repaired_to_its_own_slot() {
        // {0,1,2} on a 5-ring with 1 and 2 dead: clients write to
        // [0,3,4], so 1's copy goes to 3 and 2's to 4.
        let dead = [false, true, true, false, false];
        assert_eq!(live_replicas(&[0, 1, 2], &dead, 5), vec![0, 3, 4]);
        assert_eq!(repair_target(&[0, 1, 2], 1, &dead, 5), Some(3));
        assert_eq!(repair_target(&[0, 1, 2], 2, &dead, 5), Some(4));
        // A live member, or a node outside the set, is no repair.
        assert_eq!(repair_target(&[0, 1, 2], 0, &dead, 5), None);
        assert_eq!(repair_target(&[0, 1, 2], 3, &dead, 5), None);
    }

    #[test]
    fn single_node_maps_everything_to_zero() {
        let d = Distributor::new(1);
        assert_eq!(d.locate_metadata("/x"), 0);
        assert_eq!(d.locate_chunk("/x", 12345), 0);
    }
}
