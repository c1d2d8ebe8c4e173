//! Property tests for the SSTable layer in isolation: point lookups
//! and range iteration must agree with an ordered reference map for
//! arbitrary key sets and block-boundary layouts.

use gkfs_kvstore::sstable::{Table, TableBuilder, Tag};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Strings over `[a-f]` of length `min..=max`, spelled out as an
/// explicit generator (equivalent to the regex strategy `[a-f]{min,max}`).
fn af_key(min: usize, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..6, min..max + 1)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn build(entries: &BTreeMap<Vec<u8>, (Tag, Vec<u8>)>) -> Table {
    let mut b = TableBuilder::new();
    for (k, (tag, v)) in entries {
        b.add(*tag, k, v);
    }
    Table::open(Arc::new(b.finish())).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn point_lookups_match_reference(
        keys in prop::collection::btree_set(af_key(1, 6), 0..60),
        value_len in 0usize..600, // spans multiple 4 KiB blocks at the top end
        probes in prop::collection::vec(af_key(1, 6), 0..30),
    ) {
        let entries: BTreeMap<Vec<u8>, (Tag, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let tag = if i % 5 == 3 { Tag::Delete } else { Tag::Put };
                let v = if tag == Tag::Delete {
                    Vec::new()
                } else {
                    vec![i as u8; value_len]
                };
                (k.clone().into_bytes(), (tag, v))
            })
            .collect();
        let table = build(&entries);
        prop_assert_eq!(table.len() as usize, entries.len());

        // Every stored key resolves with the right tag and value.
        for (k, (tag, v)) in &entries {
            let got = table.get(k).unwrap();
            prop_assert_eq!(got, Some((*tag, v.as_slice())), "key {:?}", k);
        }
        // Probes (present or not) agree with the reference.
        for p in &probes {
            let got = table.get(p.as_bytes()).unwrap();
            let expect = entries.get(p.as_bytes()).map(|(tag, v)| (*tag, v.as_slice()));
            prop_assert_eq!(got, expect, "probe {:?}", p);
        }
    }

    #[test]
    fn iter_from_matches_reference_range(
        keys in prop::collection::btree_set(af_key(1, 6), 0..60),
        start in af_key(0, 6),
    ) {
        let entries: BTreeMap<Vec<u8>, (Tag, Vec<u8>)> = keys
            .iter()
            .map(|k| (k.clone().into_bytes(), (Tag::Put, k.clone().into_bytes())))
            .collect();
        let table = build(&entries);
        let got: Vec<Vec<u8>> = table
            .iter_from(start.as_bytes())
            .map(|r| r.unwrap().1.to_vec())
            .collect();
        let expect: Vec<Vec<u8>> = entries
            .range(start.clone().into_bytes()..)
            .map(|(k, _)| k.clone())
            .collect();
        prop_assert_eq!(got, expect, "iter_from({:?})", start);
    }
}
