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
//! One placement rule is this repository's own: chunk 0 of a file
//! lives where its metadata does (see [`Distributor::locate_chunk`]);
//! every other chunk hashes by `path + chunk id` as in the paper.
//!
//! Two distributors are provided:
//!
//! * [`SimpleHashDistributor`] — `hash % n`, what GekkoFS shipped.
//! * [`JumpDistributor`] — Jump Consistent Hash (Lamping & Veach),
//!   included for the paper's §V future-work item *"explore different
//!   data distribution patterns"*; it minimizes reshuffling when the
//!   node count changes. Benchmarked as an ablation.

use crate::hash::{hash_chunk, hash_path};

/// Node index within a deployment (0-based, dense).
pub type NodeId = usize;

/// Maps file-system objects onto daemons. Implementations must be pure
/// functions of their inputs — clients and daemons each instantiate
/// their own copy and must always agree.
pub trait Distributor: Send + Sync + std::fmt::Debug {
    /// Number of nodes this distributor spreads over.
    fn nodes(&self) -> usize;

    /// Which daemon owns the *metadata* of `path`.
    fn locate_metadata(&self, path: &str) -> NodeId;

    /// Which daemon stores chunk `chunk_id` of `path`. The hashed
    /// distributors place chunk 0 with the metadata
    /// (`locate_chunk(p, 0) == locate_metadata(p)`): everything a file
    /// of at most one chunk needs is then on one daemon, which is what
    /// lets its create, bytes and size ride one frame and its owner
    /// drop the chunk when it removes the entry (a deviation from the
    /// paper's §III-B, which hashes every chunk by `path + chunk id`;
    /// DESIGN.md "Substitutions").
    fn locate_chunk(&self, path: &str, chunk_id: u64) -> NodeId;

    /// All daemons that may hold chunks of any file — used for
    /// broadcast operations (truncate, remove data, readdir).
    fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes()).collect()
    }

    /// The replica set for chunk `chunk_id` of `path`: the primary
    /// (`locate_chunk`) followed by its `replicas - 1` ring successors.
    /// Derived from the same hash placement, so every client and
    /// daemon computes the same set without coordination. Size is
    /// `min(replicas, nodes)`; members are distinct.
    fn chunk_replicas(&self, path: &str, chunk_id: u64, replicas: usize) -> Vec<NodeId> {
        successors(self.locate_chunk(path, chunk_id), replicas, self.nodes())
    }

    /// The replica set for the *metadata* of `path` (same successor
    /// construction as [`Distributor::chunk_replicas`]).
    fn metadata_replicas(&self, path: &str, replicas: usize) -> Vec<NodeId> {
        successors(self.locate_metadata(path), replicas, self.nodes())
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
    let primary = set.first().copied().unwrap_or(0);
    let mut out: Vec<NodeId> = Vec::with_capacity(set.len());
    let mut taken: Vec<NodeId> = set.to_vec();
    for &m in set {
        if !dead.get(m).copied().unwrap_or(false) {
            out.push(m);
        } else if let Some(sub) = (1..nodes)
            .map(|i| (primary + i) % nodes)
            .find(|c| !taken.contains(c) && !dead.get(*c).copied().unwrap_or(false))
        {
            taken.push(sub);
            out.push(sub);
        }
    }
    out
}

/// The distribution GekkoFS shipped: stable hash modulo node count.
#[derive(Debug, Clone)]
pub struct SimpleHashDistributor {
    nodes: usize,
}

impl SimpleHashDistributor {
    /// Create a distributor over `nodes` daemons.
    pub fn new(nodes: usize) -> SimpleHashDistributor {
        assert!(nodes > 0, "need at least one node");
        SimpleHashDistributor { nodes }
    }
}

impl Distributor for SimpleHashDistributor {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn locate_metadata(&self, path: &str) -> NodeId {
        (hash_path(path) % self.nodes as u64) as NodeId
    }

    fn locate_chunk(&self, path: &str, chunk_id: u64) -> NodeId {
        if chunk_id == 0 {
            return self.locate_metadata(path);
        }
        (hash_chunk(path, chunk_id) % self.nodes as u64) as NodeId
    }
}

/// Jump Consistent Hash distributor (ablation / future-work §V).
///
/// `jump(key, n)` maps a 64-bit key onto `0..n` such that growing `n`
/// by one relocates only `1/n` of the keys — relevant for the paper's
/// "campaign" use case where a temporary file system might be resized.
#[derive(Debug, Clone)]
pub struct JumpDistributor {
    nodes: usize,
}

impl JumpDistributor {
    /// Create a distributor over `nodes` daemons.
    pub fn new(nodes: usize) -> JumpDistributor {
        assert!(nodes > 0, "need at least one node");
        JumpDistributor { nodes }
    }

    /// The Jump Consistent Hash function (Lamping & Veach, 2014).
    pub fn jump(mut key: u64, buckets: usize) -> usize {
        let mut b: i64 = -1;
        let mut j: i64 = 0;
        while j < buckets as i64 {
            b = j;
            key = key.wrapping_mul(2862933555777941757).wrapping_add(1);
            j = ((b.wrapping_add(1) as f64) * ((1u64 << 31) as f64)
                / (((key >> 33).wrapping_add(1)) as f64)) as i64;
        }
        b as usize
    }
}

impl Distributor for JumpDistributor {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn locate_metadata(&self, path: &str) -> NodeId {
        Self::jump(hash_path(path), self.nodes)
    }

    fn locate_chunk(&self, path: &str, chunk_id: u64) -> NodeId {
        if chunk_id == 0 {
            return self.locate_metadata(path);
        }
        Self::jump(hash_chunk(path, chunk_id), self.nodes)
    }
}

/// BurstFS-style locality distributor (§II contrast: *"BurstFS ...
/// unlike GekkoFS, is limited to write data locally"*; §V asks to
/// "explore different data distribution patterns").
///
/// Metadata still places by path hash — every client must find it —
/// but *chunks* all land on the instantiating client's own node.
/// Writes hit the local SSD with no network; reads of another rank's
/// data cross the network to wherever the writer lived, and a file's
/// bandwidth is capped by one SSD. The trade-off is measured in the
/// `gkfs-sim` locality ablation.
#[derive(Debug, Clone)]
pub struct LocalityDistributor {
    nodes: usize,
    local: NodeId,
}

impl LocalityDistributor {
    /// Create a distributor over `nodes` daemons.
    pub fn new(nodes: usize, local: NodeId) -> LocalityDistributor {
        assert!(nodes > 0, "need at least one node");
        assert!(local < nodes, "local node {local} out of range 0..{nodes}");
        LocalityDistributor { nodes, local }
    }
}

impl Distributor for LocalityDistributor {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn locate_metadata(&self, path: &str) -> NodeId {
        // Metadata must be resolvable by *other* clients: hash placed.
        (hash_path(path) % self.nodes as u64) as NodeId
    }

    fn locate_chunk(&self, _path: &str, _chunk_id: u64) -> NodeId {
        self.local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balance_of<D: Distributor>(d: &D, files: usize) -> (usize, usize) {
        let mut counts = vec![0usize; d.nodes()];
        for i in 0..files {
            counts[d.locate_metadata(&format!("/dir/file.{i}"))] += 1;
        }
        (
            *counts.iter().min().unwrap(),
            *counts.iter().max().unwrap(),
        )
    }

    #[test]
    fn simple_hash_is_deterministic() {
        let d1 = SimpleHashDistributor::new(16);
        let d2 = SimpleHashDistributor::new(16);
        for i in 0..100 {
            let p = format!("/a/b/{i}");
            assert_eq!(d1.locate_metadata(&p), d2.locate_metadata(&p));
            assert_eq!(d1.locate_chunk(&p, i), d2.locate_chunk(&p, i));
        }
    }

    #[test]
    fn simple_hash_balances_metadata() {
        let d = SimpleHashDistributor::new(16);
        let (min, max) = balance_of(&d, 16_000);
        // ~1000 per node expected; allow generous statistical slack.
        assert!(min > 800, "min load {min} too low");
        assert!(max < 1200, "max load {max} too high");
    }

    #[test]
    fn chunks_of_one_file_stripe_widely() {
        let d = SimpleHashDistributor::new(32);
        let mut seen = std::collections::HashSet::new();
        for c in 0..256 {
            seen.insert(d.locate_chunk("/big/file", c));
        }
        // 256 chunks over 32 nodes should hit nearly all nodes.
        assert!(seen.len() >= 28, "only {} nodes hit", seen.len());
    }

    #[test]
    fn jump_matches_reference_behaviour() {
        // jump(k, 1) == 0 always.
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(JumpDistributor::jump(k, 1), 0);
        }
        // Outputs are always in range.
        for k in 0..1000u64 {
            let b = JumpDistributor::jump(k.wrapping_mul(0x9E3779B97F4A7C15), 7);
            assert!(b < 7);
        }
    }

    #[test]
    fn jump_minimal_reshuffle() {
        // Growing 16 -> 17 nodes must move only ~1/17 of keys.
        let moved = (0..10_000u64)
            .filter(|&k| {
                let key = crate::hash::xxh64(&k.to_le_bytes(), 0);
                JumpDistributor::jump(key, 16) != JumpDistributor::jump(key, 17)
            })
            .count();
        let expect = 10_000 / 17;
        assert!(
            moved < expect * 2,
            "moved {moved}, expected about {expect}"
        );
    }

    #[test]
    fn jump_balances_metadata() {
        let d = JumpDistributor::new(16);
        let (min, max) = balance_of(&d, 16_000);
        assert!(min > 800, "min load {min} too low");
        assert!(max < 1200, "max load {max} too high");
    }

    #[test]
    fn locality_pins_chunks_but_hashes_metadata() {
        let d = LocalityDistributor::new(16, 5);
        for c in 0..64 {
            assert_eq!(d.locate_chunk("/any/file", c), 5, "all chunks local");
        }
        // Metadata spreads like the simple distributor so that any
        // client can resolve it.
        let simple = SimpleHashDistributor::new(16);
        for i in 0..100 {
            let p = format!("/f{i}");
            assert_eq!(d.locate_metadata(&p), simple.locate_metadata(&p));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locality_rejects_bad_local_node() {
        LocalityDistributor::new(4, 4);
    }

    #[test]
    fn replica_sets_are_successor_walks() {
        let d = SimpleHashDistributor::new(8);
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
        let d = JumpDistributor::new(2);
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
    fn single_node_maps_everything_to_zero() {
        let d = SimpleHashDistributor::new(1);
        assert_eq!(d.locate_metadata("/x"), 0);
        assert_eq!(d.locate_chunk("/x", 12345), 0);
        assert_eq!(d.all_nodes(), vec![0]);
    }
}
