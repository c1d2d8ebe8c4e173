//! Property tests: both chunk-storage backends against a byte-array
//! model, including truncate interactions — and against *each other*
//! (the contract says they must be indistinguishable).

use gkfs_storage::{ChunkStorage, FileChunkStorage, MemChunkStorage};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write { chunk: u8, offset: u16, len: u8, fill: u8 },
    Read { chunk: u8, offset: u16, len: u16 },
    Truncate { keep_chunk: u8, keep_bytes: u16 },
    /// Cut `chunk` relative to what it holds *now* (`kind`: to zero,
    /// shorter, to its exact length, past it) — the file backend does it
    /// through whatever descriptor earlier ops left warm — then, with
    /// `regrow`, write `(gap, len, fill)` past the cut: the gap must
    /// read zeros, not what the cut dropped.
    Cut { chunk: u8, kind: u8, at: u16, regrow: Option<(u8, u8, u8)> },
    /// Remove by known ids (held or not); an empty list is "whatever
    /// is held" and is `RemoveAll`'s spelling.
    Remove { ids: Vec<u8> },
    RemoveAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>())
            .prop_map(|(chunk, offset, len, fill)| Op::Write {
                chunk: chunk % 6,
                offset: offset % 2000,
                len,
                fill,
            }),
        4 => (any::<u8>(), any::<u16>(), any::<u16>())
            .prop_map(|(chunk, offset, len)| Op::Read {
                chunk: chunk % 6,
                offset: offset % 2500,
                len: len % 2500,
            }),
        1 => (any::<u8>(), any::<u16>()).prop_map(|(keep_chunk, keep_bytes)| Op::Truncate {
            keep_chunk: keep_chunk % 6,
            keep_bytes: keep_bytes % 2500,
        }),
        3 => (any::<u8>(), any::<u8>(), any::<u16>(), any::<bool>(), (any::<u8>(), any::<u8>(), any::<u8>()))
            .prop_map(|(chunk, kind, at, regrow, grow)| Op::Cut {
                chunk: chunk % 6,
                kind: kind % 4,
                at,
                regrow: regrow.then_some(grow),
            }),
        1 => prop::collection::vec(any::<u8>(), 1..4)
            .prop_map(|ids| Op::Remove { ids: ids.into_iter().map(|c| c % 8).collect() }),
        1 => Just(Op::RemoveAll),
    ]
}

/// Reference model: chunk id → dense bytes.
#[derive(Default)]
struct Model {
    chunks: HashMap<u64, Vec<u8>>,
}

impl Model {
    fn write(&mut self, chunk: u64, offset: usize, data: &[u8]) {
        let c = self.chunks.entry(chunk).or_default();
        let end = offset + data.len();
        if c.len() < end {
            c.resize(end, 0);
        }
        c[offset..end].copy_from_slice(data);
    }
    fn read(&self, chunk: u64, offset: usize, len: usize) -> Vec<u8> {
        self.chunks
            .get(&chunk)
            .map(|c| {
                let start = offset.min(c.len());
                let end = (offset + len).min(c.len());
                c[start..end].to_vec()
            })
            .unwrap_or_default()
    }
    fn truncate(&mut self, keep_chunk: u64, keep_bytes: usize) {
        self.chunks.retain(|&id, _| id <= keep_chunk);
        if let Some(c) = self.chunks.get_mut(&keep_chunk) {
            if c.len() > keep_bytes {
                c.truncate(keep_bytes);
            }
        }
    }
}

fn exercise(storage: &dyn ChunkStorage, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model = Model::default();
    const PATH: &str = "/prop/file";
    for op in ops {
        match op {
            Op::Write { chunk, offset, len, fill } => {
                let data = vec![*fill; *len as usize];
                if !data.is_empty() {
                    storage
                        .write_chunk(PATH, *chunk as u64, *offset as u64, &data)
                        .unwrap();
                    model.write(*chunk as u64, *offset as usize, &data);
                }
            }
            Op::Read { chunk, offset, len } => {
                let got = storage
                    .read_chunk(PATH, *chunk as u64, *offset as u64, *len as u64)
                    .unwrap();
                let expect = model.read(*chunk as u64, *offset as usize, *len as usize);
                prop_assert_eq!(expect, got, "read c{} @{}+{}", chunk, offset, len);
            }
            Op::Truncate { keep_chunk, keep_bytes } => {
                storage
                    .truncate_chunks(PATH, *keep_chunk as u64, *keep_bytes as u64)
                    .unwrap();
                model.truncate(*keep_chunk as u64, *keep_bytes as usize);
            }
            Op::Cut { chunk, kind, at, regrow } => {
                let chunk = *chunk as u64;
                let held = model.chunks.get(&chunk).map_or(0, Vec::len);
                let keep = match kind {
                    0 => 0,
                    1 => *at as usize % (held + 1),
                    2 => held,
                    _ => held + 1 + *at as usize % 500,
                };
                storage.truncate_chunks(PATH, chunk, keep as u64).unwrap();
                model.truncate(chunk, keep);
                if let Some((gap, len, fill)) = *regrow {
                    let data = vec![fill; len as usize + 1];
                    let offset = keep.min(held) + gap as usize;
                    storage.write_chunk(PATH, chunk, offset as u64, &data).unwrap();
                    model.write(chunk, offset, &data);
                }
                let got = storage.read_chunk(PATH, chunk, 0, 4096).unwrap();
                prop_assert_eq!(model.read(chunk, 0, 4096), got, "c{} after cut to {}", chunk, keep);
            }
            Op::Remove { ids } => {
                let ids: Vec<u64> = ids.iter().map(|&c| c as u64).collect();
                storage.remove_chunks(PATH, &ids).unwrap();
                model.chunks.retain(|id, _| !ids.contains(id));
            }
            Op::RemoveAll => {
                storage.remove_chunks(PATH, &[]).unwrap();
                model.chunks.clear();
            }
        }
        prop_assert_eq!(
            storage.chunk_count(PATH).unwrap(),
            model.chunks.len(),
            "chunk count"
        );
        for id in 0..8 {
            let held = storage.holds(PATH, id).unwrap();
            prop_assert_eq!(held, model.chunks.contains_key(&id), "holds c{} after {:?}", id, op);
        }
    }
    Ok(())
}

/// Partition one chunk into adjacent segments, deal the segments
/// round-robin to `threads` writers, and let them all hammer
/// `write_chunk` on the *same* chunk concurrently. Disjoint-range
/// writes must commute: the fd cache hands every writer the same
/// positional descriptor (file backend) and the shard lock serializes
/// resizes (mem backend), so the final bytes must equal the serial
/// concatenation no matter the interleaving.
fn exercise_concurrent(
    storage: &dyn ChunkStorage,
    seg_lens: &[u16],
    threads: usize,
) -> Result<(), TestCaseError> {
    const PATH: &str = "/prop/concurrent";
    const CHUNK: u64 = 3;
    let mut segs = Vec::with_capacity(seg_lens.len()); // (offset, len, fill)
    let mut total = 0u64;
    for (i, &len) in seg_lens.iter().enumerate() {
        let fill = (i as u8).wrapping_mul(31).wrapping_add(7);
        segs.push((total, len as u64, fill));
        total += len as u64;
    }
    std::thread::scope(|s| {
        for t in 0..threads {
            let mine: Vec<(u64, u64, u8)> =
                segs.iter().copied().skip(t).step_by(threads).collect();
            s.spawn(move || {
                for (offset, len, fill) in mine {
                    let data = vec![fill; len as usize];
                    storage.write_chunk(PATH, CHUNK, offset, &data).unwrap();
                }
            });
        }
    });
    let got = storage.read_chunk(PATH, CHUNK, 0, total).unwrap();
    let mut expect = Vec::with_capacity(total as usize);
    for &(_, len, fill) in &segs {
        expect.resize(expect.len() + len as usize, fill);
    }
    prop_assert_eq!(expect, got, "disjoint concurrent writes interleaved lossily");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn mem_backend_matches_model(ops in prop::collection::vec(op_strategy(), 1..80)) {
        exercise(&MemChunkStorage::new(), &ops)?;
    }

    #[test]
    fn file_backend_matches_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let dir = std::env::temp_dir().join(format!(
            "gkfs-prop-storage-{}-{:x}",
            std::process::id(),
            rand_suffix()
        ));
        let result = exercise(&FileChunkStorage::open(&dir).unwrap(), &ops);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }

    #[test]
    fn concurrent_disjoint_writes_never_corrupt_mem(
        seg_lens in prop::collection::vec(1u16..400, 2..24),
        threads in 2usize..5,
    ) {
        exercise_concurrent(&MemChunkStorage::new(), &seg_lens, threads)?;
    }

    #[test]
    fn concurrent_disjoint_writes_never_corrupt_file(
        seg_lens in prop::collection::vec(1u16..400, 2..24),
        threads in 2usize..5,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "gkfs-prop-conc-{}-{:x}",
            std::process::id(),
            rand_suffix()
        ));
        let result =
            exercise_concurrent(&FileChunkStorage::open(&dir).unwrap(), &seg_lens, threads);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
}

fn rand_suffix() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 20))
        .unwrap_or(0)
}
