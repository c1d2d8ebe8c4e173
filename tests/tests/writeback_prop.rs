//! Write-back buffer property test: random interleavings of buffered
//! writes, reads, flushes, truncates, size probes and stats through
//! two handles open on one path must be indistinguishable from a plain
//! `Vec<u8>` — the model is one byte vector per path, which is exactly
//! what the client keeps (`LocalFile`), however many handles share it.
//!
//! This is the correctness net over the write-back protocol:
//! sequential absorb, in-run overwrite, displacement flushes, the
//! read-your-buffered-writes overlay, truncate's pre-flush, and the
//! size bookkeeping all funnel through here. The buffer is kept
//! deliberately small (8 KiB) relative to the offset range so random
//! sequences constantly displace and re-fill the run.
//!
//! The path starts — and, by the `Recreate` op, restarts — as an
//! *unborn* file: opened `O_CREAT|O_EXCL` on the write-back mount, it
//! is the client's secret until its first flush. The model then also
//! says who owns the path: the observer (a second, write-through
//! mount) sees the file exactly from the call that publishes it, a
//! re-created file never shows a byte of the run its predecessor was
//! unlinked with, and when the observer got to the path first the
//! publish is refused — the winner's bytes and size stay, the loser's
//! run is nowhere.
//!
//! A third handle, read-only and re-opened now and then (`Keep`), may
//! hold the file whole as of its open (a write-back mount's small-file
//! *head*). Every write here goes through this mount, so what it reads
//! must be the model at every step all the same: the head under the
//! run that was buffered before the open, gone with the first write
//! after it.

use gekkofs::{Cluster, ClusterConfig, GkfsError, OpenFlags};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum HOp {
    /// pwrite at a random offset — usually disjoint from the buffered
    /// run, forcing a displacement flush.
    Write { offset: u16, len: u8, seed: u8 },
    /// pwrite exactly at EOF — the sequential-absorb fast path.
    Append { len: u8, seed: u8 },
    /// pread through the overlay: buffered bytes must be visible.
    Read { offset: u16, len: u16 },
    /// Forced flush; afterwards a *fresh* handle must see everything.
    Flush,
    /// Truncate (either direction) — pre-flushes the buffered run.
    Truncate { size: u16 },
    /// Cached size probe — no RPC, must still equal the model's len.
    Size,
    /// Path-based stat on the same client: the daemons' answer raised
    /// to what the client has buffered.
    Stat,
    /// Open the path read-only and keep the handle, closing the one kept
    /// before.
    Keep,
    /// pread through the kept read-only handle.
    ReadKept { offset: u16, len: u16 },
    /// Close both handles, unlink the path and make it again as an
    /// unborn file holding `len` fresh bytes — after the observer has
    /// made it first, if `collide` — then publish it: by the handle's
    /// flush, or by a `stat` of the path if `by_stat`.
    Recreate { collide: bool, by_stat: bool, len: u8, seed: u8 },
}

fn op_strategy() -> impl Strategy<Value = HOp> {
    prop_oneof![
        3 => (any::<u16>(), any::<u8>(), any::<u8>())
            .prop_map(|(offset, len, seed)| HOp::Write { offset: offset % 20_000, len, seed }),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(len, seed)| HOp::Append { len, seed }),
        3 => (any::<u16>(), any::<u16>())
            .prop_map(|(offset, len)| HOp::Read { offset: offset % 25_000, len: len % 25_000 }),
        1 => Just(HOp::Flush),
        1 => any::<u16>().prop_map(|size| HOp::Truncate { size: size % 25_000 }),
        2 => Just(HOp::Size),
        1 => Just(HOp::Stat),
        2 => Just(HOp::Keep),
        3 => (any::<u16>(), any::<u16>())
            .prop_map(|(offset, len)| HOp::ReadKept { offset: offset % 3_000, len: 1 + len % 25_000 }),
        1 => (any::<bool>(), any::<bool>(), any::<u8>(), any::<u8>())
            .prop_map(|(collide, by_stat, len, seed)| HOp::Recreate { collide, by_stat, len, seed }),
    ]
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed as usize).wrapping_add(i.wrapping_mul(37)) as u8).collect()
}

fn model_write(contents: &mut Vec<u8>, offset: usize, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    let end = offset + data.len();
    if contents.len() < end {
        contents.resize(end, 0);
    }
    contents[offset..end].copy_from_slice(data);
}

fn model_read(contents: &[u8], offset: usize, len: usize) -> Vec<u8> {
    let start = offset.min(contents.len());
    let end = (offset + len).min(contents.len());
    contents[start..end].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, // each case deploys a whole cluster (in-process: a few ms)
        .. ProptestConfig::default()
    })]

    #[test]
    fn buffered_handles_agree_with_vec_model(
        ops in prop::collection::vec((any::<bool>(), op_strategy()), 1..64),
        small in any::<bool>(),
    ) {
        // Half the cases keep the file inside what an open's reply
        // carries (one 4 KiB chunk here), so the kept handle's head is
        // in play all along; the others outgrow it at once.
        let within = |at: u16| if small { at % 3_800 } else { at };
        // Small chunks force striping; a small buffer forces constant
        // displacement; write-back on is the entire point.
        let cluster = Cluster::deploy(
            ClusterConfig::new(2)
                .with_chunk_size(4096)
                .with_write_back(8 * 1024),
        )
        .unwrap();
        let fs = cluster.mount().unwrap();
        // A second client shares none of `fs`'s local state: what it
        // sees is what reached the daemons.
        let observer = cluster.mount().unwrap();
        observer.mkdir("/wb", 0o755).unwrap(); // fsck walks directories
        let excl = OpenFlags::RDWR.with_create().with_exclusive();
        let first = fs.open_handle("/wb/prop", excl).unwrap();
        prop_assert!(observer.stat("/wb/prop").is_err(), "unborn: the open told nobody");
        // The second open must consult the daemons: it publishes.
        let mut handles = vec![first, fs.open_handle("/wb/prop", OpenFlags::RDWR).unwrap()];
        prop_assert_eq!(observer.stat("/wb/prop").unwrap().size, 0);
        let mut model: Vec<u8> = Vec::new();
        let mut kept = None;

        for (second, op) in &ops {
            // Each op goes through either handle; neither may be able
            // to tell which one the earlier ops went through.
            let h = &handles[*second as usize];
            match op {
                HOp::Write { offset, len, seed } => {
                    let data = pattern(*seed, *len as usize);
                    h.pwrite(within(*offset) as u64, &data).unwrap();
                    model_write(&mut model, within(*offset) as usize, &data);
                }
                HOp::Append { len, seed } => {
                    let data = pattern(*seed, *len as usize);
                    h.pwrite(model.len() as u64, &data).unwrap();
                    let at = model.len();
                    model_write(&mut model, at, &data);
                }
                HOp::Read { offset, len } => {
                    let got = h.pread(*offset as u64, *len as usize).unwrap();
                    let expect = model_read(&model, *offset as usize, *len as usize);
                    prop_assert_eq!(&expect, &got, "read @{}+{}", offset, len);
                }
                HOp::Flush => {
                    h.flush().unwrap();
                    // Everything buffered so far — through either
                    // handle — is now durable: another client must see
                    // the model bit-exact.
                    let fresh = observer.open_handle("/wb/prop", OpenFlags::RDONLY).unwrap();
                    prop_assert_eq!(fresh.size(), model.len() as u64, "size after flush");
                    let got = fresh.pread(0, model.len().max(1)).unwrap();
                    prop_assert_eq!(&model, &got, "contents after flush");
                }
                HOp::Truncate { size } => {
                    h.truncate(within(*size) as u64).unwrap();
                    model.resize(within(*size) as usize, 0);
                }
                HOp::Size => {
                    prop_assert_eq!(h.size(), model.len() as u64, "cached size");
                }
                HOp::Stat => {
                    let size = fs.stat("/wb/prop").unwrap().size;
                    prop_assert_eq!(size, model.len() as u64, "stat size");
                }
                HOp::Keep => {
                    kept = Some(fs.open_handle("/wb/prop", OpenFlags::RDONLY).unwrap());
                }
                HOp::ReadKept { offset, len } => {
                    if let Some(kept) = &kept {
                        let got = kept.pread(*offset as u64, *len as usize).unwrap();
                        let expect = model_read(&model, *offset as usize, *len as usize);
                        prop_assert_eq!(&expect, &got, "kept read @{}+{}", offset, len);
                    }
                }
                HOp::Recreate { collide, by_stat, len, seed } => {
                    for h in handles.drain(..) {
                        h.close().unwrap();
                    }
                    fs.unlink("/wb/prop").unwrap();
                    if let Some(kept) = kept.take() {
                        prop_assert_eq!(kept.pread(0, 16), Err(GkfsError::NotFound));
                    }
                    prop_assert!(observer.stat("/wb/prop").is_err());
                    let fresh = pattern(*seed, *len as usize);
                    let unborn = fs.open_handle("/wb/prop", excl).unwrap();
                    unborn.pwrite(0, &fresh).unwrap();
                    prop_assert_eq!(&unborn.pread(0, 1 << 16).unwrap(), &fresh, "an unborn file is its run, no more");
                    prop_assert!(observer.stat("/wb/prop").is_err(), "unborn: nobody else sees it");
                    model = if *collide {
                        let winner = pattern(seed.wrapping_add(1), 300);
                        let w = observer.open_handle("/wb/prop", excl).unwrap();
                        w.pwrite(0, &winner).unwrap();
                        w.close().unwrap();
                        winner
                    } else {
                        fresh
                    };
                    let published = if *by_stat {
                        fs.stat("/wb/prop").map(|meta| meta.size)
                    } else {
                        unborn.flush().map(|()| model.len() as u64)
                    };
                    match published {
                        Ok(size) => prop_assert!(!*collide && size == model.len() as u64),
                        Err(e) => prop_assert!(*collide && e == GkfsError::Exists, "{:?}", e),
                    }
                    // Born or refused, the path is the model's now, on
                    // both mounts and on every daemon.
                    unborn.close().unwrap();
                    let seen = observer.open_handle("/wb/prop", OpenFlags::RDONLY).unwrap();
                    prop_assert_eq!(seen.size(), model.len() as u64);
                    prop_assert_eq!(&seen.pread(0, 1 << 16).unwrap(), &model, "what the daemons hold");
                    prop_assert!(observer.fsck().unwrap().is_clean());
                    handles.push(fs.open_handle("/wb/prop", OpenFlags::RDWR).unwrap());
                    handles.push(fs.open_handle("/wb/prop", OpenFlags::RDWR).unwrap());
                }
            }
        }

        // Close forces the final flush; the durable state must equal
        // the model exactly — no silently lost buffered tail.
        for h in handles.into_iter().chain(kept) {
            h.close().unwrap();
        }
        prop_assert_eq!(observer.stat("/wb/prop").unwrap().size, model.len() as u64);
        let fresh = observer.open_handle("/wb/prop", OpenFlags::RDONLY).unwrap();
        let got = fresh.pread(0, model.len().max(1)).unwrap();
        prop_assert_eq!(&model, &got, "final durable contents");
        cluster.shutdown();
    }
}
