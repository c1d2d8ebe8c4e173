//! Property tests for replica placement: the successor-walk sets that
//! N-way replication, hedged reads, and the re-replication driver all
//! assume well-formed. Strategies are spelled out with explicit
//! range/vec generators only (no regex strategies), so the suite runs
//! identically against the offline proptest stub.

use gkfs_common::distributor::{
    live_replicas, substitute, successors, Distributor, JumpDistributor, SimpleHashDistributor,
};
use proptest::prelude::*;

/// Strings over `[a-z/]` of length `min..=max` (equivalent to the
/// regex strategy `[a-z/]{min,max}`).
fn pathish(min: usize, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..27, min..max + 1).prop_map(|v| {
        v.into_iter()
            .map(|b| if b == 26 { '/' } else { (b'a' + b) as char })
            .collect()
    })
}

/// Chunk ids ≥ 1 are placed where the paper's rule (hash of `path +
/// chunk id`) always placed them: `locate_chunk` answers generated at
/// the parent of PR 26, before chunk 0 moved to the metadata owner, for
/// three paths × ids `[1, 2, 3, 64, u64::MAX]` on 2, 3 and 16 nodes.
/// The placement change is provably *only* chunk 0.
#[test]
fn chunks_past_the_first_are_placed_where_they_always_were() {
    type Row = (usize, [usize; 15], [usize; 15]);
    const PINNED: [Row; 3] = [
        (2, [0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1], [1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0]),
        (3, [1, 1, 2, 0, 2, 1, 0, 1, 0, 0, 0, 0, 1, 2, 0], [1, 1, 1, 0, 2, 2, 1, 1, 0, 2, 1, 1, 2, 1, 2]),
        (16, [12, 2, 3, 7, 9, 12, 5, 11, 5, 2, 8, 10, 4, 13, 15], [4, 8, 5, 4, 5, 4, 14, 1, 0, 6, 15, 5, 11, 11, 2]),
    ];
    for (nodes, simple, jump) in PINNED {
        let keys = ["/a", "/dir/file.7", "/x/y/z"]
            .into_iter()
            .flat_map(|p| [1u64, 2, 3, 64, u64::MAX].map(|id| (p, id)));
        for (i, (p, id)) in keys.enumerate() {
            assert_eq!(SimpleHashDistributor::new(nodes).locate_chunk(p, id), simple[i], "{p} #{id} on {nodes}");
            assert_eq!(JumpDistributor::new(nodes).locate_chunk(p, id), jump[i], "{p} #{id} on {nodes}, jump");
        }
    }
}

/// Chunk 0 goes where the metadata goes, so its owners balance exactly
/// as metadata owners do: over 10 000 paths on 8 nodes no node holds
/// more than the share `deep_paths_and_many_files_balance` allows the
/// worst metadata owner (120 of 400).
#[test]
fn first_chunks_balance_like_metadata() {
    for d in [
        Box::new(SimpleHashDistributor::new(8)) as Box<dyn Distributor>,
        Box::new(JumpDistributor::new(8)),
    ] {
        let mut held = [0usize; 8];
        for i in 0..10_000 {
            held[d.locate_chunk(&format!("/load/f{i}"), 0)] += 1;
        }
        let worst = *held.iter().max().unwrap();
        assert!(worst * 400 < 120 * 10_000, "worst chunk-0 owner holds {worst} of 10 000: {held:?}");
    }
}

proptest! {
    /// Chunk 0 lives with the inode — its replica set *is* the
    /// metadata's, for any replication factor and both stateless
    /// distributors — which is what lets one frame to one write set
    /// carry a small file's create, bytes and size.
    #[test]
    fn the_first_chunk_is_placed_with_the_metadata(
        path in pathish(1, 32),
        nodes in 1usize..64,
        replicas in 1usize..6,
    ) {
        let p = format!("/{path}");
        for d in [
            Box::new(SimpleHashDistributor::new(nodes)) as Box<dyn Distributor>,
            Box::new(JumpDistributor::new(nodes)),
        ] {
            prop_assert_eq!(d.locate_chunk(&p, 0), d.locate_metadata(&p));
            prop_assert_eq!(d.chunk_replicas(&p, 0, replicas), d.metadata_replicas(&p, replicas));
        }
    }

    /// Replica sets are distinct, in range, sized `min(replicas,
    /// nodes)`, deterministic for fixed membership, and led by the
    /// placement primary — for both stateless distributors.
    #[test]
    fn replica_sets_are_well_formed(
        path in pathish(1, 32),
        chunk in any::<u64>(),
        nodes in 1usize..64,
        replicas in 1usize..6,
    ) {
        let p = format!("/{path}");
        for d in [
            Box::new(SimpleHashDistributor::new(nodes)) as Box<dyn Distributor>,
            Box::new(JumpDistributor::new(nodes)),
        ] {
            for set in [
                d.chunk_replicas(&p, chunk, replicas),
                d.metadata_replicas(&p, replicas),
            ] {
                prop_assert_eq!(set.len(), replicas.min(nodes));
                prop_assert!(set.iter().all(|&n| n < nodes));
                let mut uniq = set.clone();
                uniq.sort_unstable();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), set.len(), "members distinct: {:?}", set);
            }
            prop_assert_eq!(
                d.chunk_replicas(&p, chunk, replicas),
                d.chunk_replicas(&p, chunk, replicas)
            );
            prop_assert_eq!(
                d.chunk_replicas(&p, chunk, replicas)[0],
                d.locate_chunk(&p, chunk)
            );
            prop_assert_eq!(d.metadata_replicas(&p, replicas)[0], d.locate_metadata(&p));
        }
    }

    /// One node dying disturbs placement minimally: the live set keeps
    /// every surviving member in place and swaps only the dead one —
    /// and with everything alive the live set *is* the set.
    #[test]
    fn single_failure_is_minimally_disruptive(
        primary in any::<usize>(),
        nodes in 2usize..64,
        replicas in 2usize..6,
        dead_node in any::<usize>(),
    ) {
        let primary = primary % nodes;
        let dead_node = dead_node % nodes;
        let set = successors(primary, replicas, nodes);
        let mut dead = vec![false; nodes];
        prop_assert_eq!(live_replicas(&set, &dead, nodes), set.clone());
        dead[dead_node] = true;
        let live = live_replicas(&set, &dead, nodes);
        if !set.contains(&dead_node) {
            prop_assert_eq!(live, set);
        } else if set.len() < nodes {
            // A substitute outside the set exists and is the only change.
            prop_assert_eq!(live.len(), set.len());
            let mut diffs = 0;
            for (a, b) in set.iter().zip(live.iter()) {
                if a != b {
                    diffs += 1;
                    prop_assert_eq!(*a, dead_node);
                    prop_assert!(!set.contains(b));
                    prop_assert!(*b < nodes);
                }
            }
            prop_assert_eq!(diffs, 1);
        } else {
            // The set is the whole ring: the dead member drops out.
            let expect: Vec<usize> =
                set.iter().copied().filter(|&n| n != dead_node).collect();
            prop_assert_eq!(live, expect);
        }
    }

    /// A substitute, when one exists, is always a legal adoption
    /// target (in range, outside the set, alive); `None` only when no
    /// node outside the set is alive.
    #[test]
    fn substitutes_are_legal_and_exhaustive(
        primary in any::<usize>(),
        nodes in 1usize..40,
        replicas in 1usize..6,
        dead_bits in prop::collection::vec(any::<bool>(), 40..41),
    ) {
        let primary = primary % nodes;
        let set = successors(primary, replicas, nodes);
        let dead = dead_bits[..nodes].to_vec();
        match substitute(primary, &set, &dead, nodes) {
            Some(s) => {
                prop_assert!(s < nodes);
                prop_assert!(!set.contains(&s));
                prop_assert!(!dead[s]);
            }
            None => {
                for (n, &is_dead) in dead.iter().enumerate() {
                    prop_assert!(set.contains(&n) || is_dead, "node {n} was eligible");
                }
            }
        }
    }

    /// Jump hash's defining stability property, which replica chains
    /// inherit: growing the ring by one node moves a key either
    /// nowhere or onto the new node — never between old nodes.
    #[test]
    fn jump_growth_moves_keys_only_to_the_new_node(
        path in pathish(1, 32),
        chunk in any::<u64>(),
        nodes in 1usize..64,
    ) {
        let p = format!("/{path}");
        let small = JumpDistributor::new(nodes);
        let big = JumpDistributor::new(nodes + 1);
        let before = small.locate_chunk(&p, chunk);
        let after = big.locate_chunk(&p, chunk);
        prop_assert!(after == before || after == nodes, "moved {before} -> {after}");
        let mb = small.locate_metadata(&p);
        let ma = big.locate_metadata(&p);
        prop_assert!(ma == mb || ma == nodes, "metadata moved {mb} -> {ma}");
    }
}
