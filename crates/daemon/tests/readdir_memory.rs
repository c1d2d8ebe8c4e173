//! A `readdir` page costs its own entries, not its directory: one
//! 10-entry page from the middle of a 20 000-entry directory allocates
//! a bounded amount on the thread that serves it, because the walk
//! starts at the cursor and stops past the page (the per-thread
//! counting allocator of the kvstore's decoder fuzzers).

use gkfs_common::FileKind;
use gkfs_daemon::MetadataBackend;
use gkfs_rpc::proto::{CreateReq, MetaOp};

#[allow(dead_code)] // the fuzzers' mutations are not used here
#[path = "../../kvstore/tests/fuzz_harness/mod.rs"]
mod fuzz_harness;
use fuzz_harness::measured;

#[test]
fn a_page_from_the_middle_of_a_large_directory_allocates_a_page() {
    let b = MetadataBackend::open_memory().unwrap();
    let create = |i: usize| {
        MetaOp::Create(CreateReq {
            path: format!("/big/f{i:05}"),
            kind: FileKind::File,
            mode: 0o644,
            exclusive: true,
            now_ns: 1,
        })
    };
    // Even names in a table, odd names in the memtable.
    for parity in [0, 1] {
        let ops: Vec<MetaOp> = (parity..20_000).step_by(2).map(create).collect();
        for frame in ops.chunks(500) {
            assert!(b.apply(frame).unwrap().iter().all(Result::is_ok));
        }
        if parity == 0 {
            b.db().compact().unwrap();
        }
    }
    let (page, peak) = measured(|| b.readdir_page("/big", "f10000", 10).unwrap());
    let (entries, next) = page.unwrap();
    let names: Vec<String> = entries.into_iter().map(|d| d.name).collect();
    let want: Vec<String> = (10_001..10_011).map(|i| format!("f{i:05}")).collect();
    assert_eq!(names, want);
    assert_eq!(next, "f10010");
    // A memtable step (256 entries) and the page; the directory is
    // ~2 MiB of keys and records.
    assert!(peak < 128 * 1024, "a 10-entry page allocated {peak} bytes");
}
