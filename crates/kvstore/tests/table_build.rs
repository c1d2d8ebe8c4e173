//! A table costs its blocks, not its entries: building one of 10 000
//! metadata-sized entries (a 17-byte path, a 29-byte record) allocates
//! per block on the building thread — the flusher's or the compactor's,
//! on the vCPU the daemon's handlers share — not per entry (the
//! per-thread counting allocator of the decoder fuzzers).

use gkfs_kvstore::sstable::{Table, TableBuilder, Tag};
use std::sync::Arc;

#[allow(dead_code)] // the fuzzers' mutations are not used here
mod fuzz_harness;
use fuzz_harness::counted;

#[test]
fn building_a_table_allocates_per_block_not_per_entry() {
    const N: usize = 10_000;
    let keys: Vec<Vec<u8>> = (0..N)
        .map(|i| format!("/mdtest/f{i:08}").into_bytes())
        .collect();
    let value = [0x5Au8; 29];
    let (blob, allocs) = counted(|| {
        let mut builder = TableBuilder::new();
        for key in &keys {
            builder.add(Tag::Put, key, &value);
        }
        builder.finish()
    });
    let table = Table::open(Arc::new(blob)).unwrap();
    for key in [&keys[0], &keys[N / 2], &keys[N - 1]] {
        assert_eq!(table.get(key).unwrap(), Some((Tag::Put, &value[..])));
    }
    // About 120 blocks of 4 KiB: one first-key copy each, plus the
    // doubling of the blob, index and bloom-hash buffers.
    eprintln!("a {N}-entry table: {allocs} allocations");
    assert!(
        allocs < 300,
        "building a {N}-entry table allocated {allocs} times"
    );
}
