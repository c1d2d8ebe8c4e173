//! Gates on what the file backend's layout costs the host file
//! system, by count, and on what it promises a write racing an unlink.
//! `scripts/ci.sh` runs this file in release, where the race is tight.

use gkfs_storage::{ChunkStorage, FileChunkStorage, MemChunkStorage};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gkfs-layout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(directories, files)` below `dir`, not counting `dir` itself.
fn census(dir: &Path) -> (usize, usize) {
    let (mut dirs, mut files) = (0, 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            let (d, f) = census(&entry.path());
            dirs += 1 + d;
            files += f;
        } else {
            files += 1;
        }
    }
    (dirs, files)
}

fn dir_scans(s: &FileChunkStorage) -> u64 {
    s.stats().dir_scans.load(Ordering::Relaxed)
}

/// One inode per chunk: three thousand one-chunk files are three
/// thousand inodes plus at most the fixed set of shard directories, a
/// remove by known ids gives every one of them back without reading a
/// directory, and the shard directories stay.
#[test]
fn a_small_file_costs_one_inode_and_a_known_size_remove_reads_no_directory() {
    let root = scratch("inodes");
    let s = FileChunkStorage::open(&root).unwrap();
    let chunks = root.join("chunks");
    assert_eq!(census(&chunks), (0, 0), "nothing is made before the first write");
    let paths: Vec<String> = (0..3000).map(|i| format!("/ingest/d{}/f{i}.bin", i % 7)).collect();
    for p in &paths {
        s.write_chunk(p, 0, 0, b"one small file").unwrap();
    }
    let (shards, files) = census(&chunks);
    assert_eq!(files, paths.len(), "exactly one file per chunk");
    assert!(shards <= 1024, "{shards} directories: more than the fixed set of shards");
    assert!(shards > 512, "paths spread over the shards, not {shards}");

    let scans = dir_scans(&s);
    for p in &paths {
        s.remove_chunks(p, &[0]).unwrap();
    }
    assert_eq!(dir_scans(&s), scans, "a remove by ids enumerates nothing");
    assert_eq!(census(&chunks), (shards, 0), "every inode back, shard directories kept");
    std::fs::remove_dir_all(&root).unwrap();
}

/// The empty id list is "whatever you hold": it takes every chunk of a
/// multi-chunk path — by enumerating, once — and nothing of the paths
/// that share its shard directory.
#[test]
fn an_empty_id_list_removes_the_whole_path_and_only_that_path() {
    let root = scratch("whole");
    let s = FileChunkStorage::open(&root).unwrap();
    // More paths than shards: every shard has several tenants.
    let paths: Vec<String> = (0..4000).map(|i| format!("/n{i}")).collect();
    for p in &paths {
        s.write_chunk(p, 0, 0, b"n").unwrap();
    }
    for id in [0, 1, 2, 40] {
        s.write_chunk("/n7.0", id, 0, b"multi").unwrap();
    }
    let before = census(&root.join("chunks"));
    let scans = dir_scans(&s);
    s.remove_chunks("/n7.0", &[]).unwrap();
    assert_eq!(dir_scans(&s), scans + 1, "one enumeration, of one shard");
    assert_eq!(census(&root.join("chunks")), (before.0, before.1 - 4));
    assert_eq!(s.chunk_count("/n7.0").unwrap(), 0);
    for p in &paths {
        assert!(s.holds(p, 0).unwrap(), "{p} lost its chunk to a neighbour's remove");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A write racing an unlink of its path lands — in the chunk about to
/// go, or in a fresh one that is then an orphan — and never fails: the
/// promise of `file.rs`'s module docs. The directory-per-file layout
/// broke it (the remover took the directory between the writer's
/// `mkdir` and its `open`, and the writer saw a raw `ENOENT`).
#[test]
fn a_write_racing_a_remove_of_its_path_never_fails() {
    let root = scratch("race");
    let stores: [(&str, Box<dyn ChunkStorage>); 2] = [
        ("file", Box::new(FileChunkStorage::open(&root).unwrap())),
        ("mem", Box::new(MemChunkStorage::new())),
    ];
    for (name, s) in &stores {
        let stop = AtomicBool::new(false);
        let start = Barrier::new(3);
        // Every thread reports its first error instead of panicking, so
        // a failure stops the others and fails the test, never hangs it.
        let errors: Vec<String> = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                start.wait();
                let res = (0..50_000u64)
                    .try_for_each(|i| s.write_chunk("/raced", i % 2, 0, b"lands somewhere"));
                stop.store(true, Ordering::SeqCst);
                res
            });
            // One remover by known ids, one of "whatever you hold".
            let removers = [&[0u64, 1][..], &[]].map(|ids| {
                let (s, stop, start) = (s, &stop, &start);
                scope.spawn(move || {
                    start.wait();
                    while !stop.load(Ordering::SeqCst) {
                        s.remove_chunks("/raced", ids)?;
                    }
                    Ok(())
                })
            });
            std::iter::once(writer)
                .chain(removers)
                .filter_map(|t| t.join().unwrap().err())
                .map(|e| e.to_string())
                .collect()
        });
        assert!(errors.is_empty(), "{name}: {errors:?}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A truncate makes no name of its own: while one thread cuts and
/// regrows multi-chunk paths every way there is (to zero, shorter, to
/// the exact length, past it, dropping tail chunks), a second lists
/// `chunks/` and finds nothing but `<escaped path>.<canonical id>` —
/// no temp file to strand if the daemon dies mid-truncate.
#[test]
fn a_truncate_leaves_only_chunk_names_on_disk() {
    let root = scratch("names");
    let s = FileChunkStorage::open(&root).unwrap();
    let chunks = root.join("chunks");
    let strangers = || -> Vec<String> {
        let mut out = Vec::new();
        for shard in std::fs::read_dir(&chunks).unwrap() {
            for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                let id = name.rsplit_once('.').and_then(|(_, id)| id.parse::<u64>().ok());
                if id.is_none_or(|id| !name.ends_with(&format!(".{id}"))) {
                    out.push(name);
                }
            }
        }
        out
    };
    let paths: Vec<String> = (0..16).map(|i| format!("/t/f{i}.t")).collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let lister = scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                assert_eq!(strangers(), Vec::<String>::new(), "seen during a truncate");
            }
        });
        for round in 0..50u64 {
            for p in &paths {
                for id in 0..3 {
                    s.write_chunk(p, id, 0, &[round as u8; 600]).unwrap();
                }
                for (keep_chunk, keep_bytes) in [(2, 900), (2, 600), (2, 100), (1, 0), (0, 7)] {
                    s.truncate_chunks(p, keep_chunk, keep_bytes).unwrap();
                }
                assert_eq!(s.list_chunks(p).unwrap(), vec![(0, 7)]);
            }
        }
        done.store(true, Ordering::SeqCst);
        lister.join().unwrap();
    });
    assert_eq!(strangers(), Vec::<String>::new());
    assert_eq!(census(&chunks).1, paths.len());
    std::fs::remove_dir_all(&root).unwrap();
}
