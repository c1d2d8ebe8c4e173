//! Property-based tests: random operation sequences against a
//! reference model.
//!
//! The model is a plain in-memory map of path → bytes; GekkoFS (real
//! daemons, real chunking, real RPC) must agree with it on every
//! observable after every step. This is the strongest correctness net
//! over the whole stack: placement, chunk math, size accounting, and
//! truncate interactions all funnel through here.
//!
//! Two mounts share the cluster. The write-through one drives the
//! model's files directly: what it did is what the daemons hold. The
//! write-back one makes *unborn* files — `open(O_CREAT|O_EXCL)` tells
//! nobody, and the file's first flush carries its create — so the model
//! also says, per path, what that mount holds back: published by the
//! first call of that mount that must consult the daemons about the
//! path (each such call is an op here), at which point the path is the
//! unborn file's if nobody owns it and stays its owner's, untouched, if
//! somebody does.
//!
//! The same two mounts carry the staleness argument of the write-back
//! mount's small-file reads (DESIGN.md "Open handles and write-back
//! batching"): a read-only open there holds a small file as
//! of that open. A second family of ops keeps read-only handles open on
//! either mount while either mount overwrites, cuts or replaces the
//! file, and the model keeps every version a path has had. A read
//! through a kept handle of the write-through mount is the latest
//! version, always; through one of the write-back mount it is **one**
//! version — whole, never a mix — no older than the newest open of the
//! path on that mount, and the latest after any write through that
//! mount. (EOF is the handle's, as ever: what it learned at its opens
//! and from its own mount's writes — the model asks the handle for it.)
//!
//! A second property holds the size argument of the owner's *mark*
//! (DESIGN.md "Open handles and write-back batching"): a write that
//! grows nothing past what the metadata owner is known to hold sends no
//! size update. One write-through mount keeps a handle open on one file
//! and mixes its own shrinking and extending truncates with overlapping
//! writes; after every change a second mount, which holds no record of
//! the path, stats it — it sees only the owner's answer — and must read
//! the model's size.

use gekkofs::{Cluster, ClusterConfig, FileHandle, GekkoClient, GkfsError, OpenFlags};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write { file: u8, offset: u16, len: u8, seed: u8 },
    Read { file: u8, offset: u16, len: u16 },
    Truncate { file: u8, size: u16 },
    Remove(u8),
    Stat(u8),
    /// The write-back mount opens the file exclusively: unborn.
    Unborn(u8),
    /// ...and writes at its end: absorbed, still nobody is told.
    UnbornAppend { file: u8, len: u8, seed: u8 },
    /// A call of the write-back mount that must publish the unborn file
    /// first; its handle is closed after it.
    Publish { file: u8, by: Hazard },
    /// Open a small file on one of the mounts — read-only, or on the
    /// write-back mount write-only if `writer` — and keep the handle in
    /// `slot`, closing what was there: a first open, a re-open, a second
    /// handle beside a kept one.
    Keep { file: u8, slot: u8, on_wb: bool, writer: bool },
    /// Read through one of the kept read-only handles.
    ReadKept { pick: u8, offset: u16, len: u16 },
    /// Write through one of the write-back mount's kept write-only
    /// handles — one that may have been open since before the newest
    /// read-only open of its path — and flush.
    PutKept { pick: u8, offset: u16, len: u8, seed: u8 },
    /// Write into a small file (making it first if need be) through a
    /// write-only handle of one of the mounts, opened and closed for it:
    /// the other mount overwrites, or this one writes through a second
    /// handle.
    Put { file: u8, offset: u16, len: u8, seed: u8, by_wb: bool },
    /// Truncate a small file by path on one of the mounts.
    Cut { file: u8, size: u16, by_wb: bool },
    /// The write-through mount unlinks a small file and makes it again
    /// with other bytes.
    Replace { file: u8, len: u8, seed: u8 },
}

/// The calls that publish an unborn file before they do their own work.
#[derive(Debug, Clone, Copy)]
enum Hazard {
    Close,
    Fsync,
    Stat,
    StatMany,
    Reopen,
    Create,
    Truncate(u16),
    Unlink,
    UnlinkMany,
    Readdir,
}

fn hazard_strategy() -> impl Strategy<Value = Hazard> {
    prop_oneof![
        3 => Just(Hazard::Close),
        1 => Just(Hazard::Fsync),
        1 => Just(Hazard::Stat),
        1 => Just(Hazard::StatMany),
        1 => Just(Hazard::Reopen),
        1 => Just(Hazard::Create),
        1 => any::<u16>().prop_map(|size| Hazard::Truncate(size % 2_000)),
        1 => Just(Hazard::Unlink),
        1 => Just(Hazard::UnlinkMany),
        1 => Just(Hazard::Readdir),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0u8..6).prop_map(Op::Create),
        1 => ((0u8..6), any::<u16>(), any::<u8>(), any::<u8>())
            .prop_map(|(file, offset, len, seed)| Op::Write { file, offset: offset % 20_000, len, seed }),
        1 => ((0u8..6), any::<u16>(), any::<u16>())
            .prop_map(|(file, offset, len)| Op::Read { file, offset: offset % 25_000, len: len % 25_000 }),
        1 => ((0u8..6), any::<u16>()).prop_map(|(file, size)| Op::Truncate { file, size: size % 25_000 }),
        1 => (0u8..6).prop_map(Op::Remove),
        1 => (0u8..6).prop_map(Op::Stat),
        1 => (0u8..6).prop_map(Op::Unborn),
        1 => ((0u8..6), any::<u8>(), any::<u8>()).prop_map(|(file, len, seed)| Op::UnbornAppend { file, len, seed }),
        1 => ((0u8..6), hazard_strategy()).prop_map(|(file, by)| Op::Publish { file, by }),
        // Two small files and six slots, mostly on the write-back mount:
        // handles on one path must often be open side by side.
        4 => ((0u8..2), (0u8..6), (0u8..4), (0u8..4))
            .prop_map(|(file, slot, on_wb, writer)| Op::Keep { file, slot, on_wb: on_wb > 0, writer: on_wb > 0 && writer == 0 }),
        6 => (any::<u8>(), any::<u16>(), any::<u16>())
            .prop_map(|(pick, offset, len)| Op::ReadKept { pick, offset: offset % 3_000, len: 1 + len % 6_000 }),
        2 => (any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>())
            .prop_map(|(pick, offset, len, seed)| Op::PutKept { pick, offset: offset % 4_500, len, seed }),
        // Mostly inside what an open's reply carries (one 4 KiB chunk
        // here), sometimes across it.
        3 => ((0u8..2), any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(file, offset, len, seed, by_wb)| Op::Put { file, offset: offset % 4_500, len, seed, by_wb }),
        1 => ((0u8..2), any::<u16>(), any::<bool>()).prop_map(|(file, size, by_wb)| Op::Cut { file, size: size % 5_000, by_wb }),
        1 => ((0u8..2), any::<u8>(), any::<u8>()).prop_map(|(file, len, seed)| Op::Replace { file, len, seed }),
    ]
}

fn small(file: u8) -> String {
    format!("/prop/small-{file}")
}

fn path(file: u8) -> String {
    format!("/prop/file-{file}")
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed as usize).wrapping_add(i.wrapping_mul(31)) as u8).collect()
}

/// Reference model: path → contents.
#[derive(Default)]
struct Model {
    files: HashMap<String, Vec<u8>>,
    /// Every version a small file has had, oldest first; the last is
    /// what `files` holds for it.
    versions: HashMap<String, Vec<Vec<u8>>>,
    /// Per small file, the oldest version a read through a handle of
    /// the write-back mount may still return: the latest as of that
    /// mount's newest open of, or write to, the path.
    floor: HashMap<String, usize>,
}

/// A handle kept open across ops: its path, whether the write-back
/// mount holds it, whether it is a write-only one, the handle.
type Kept<'c> = (String, bool, bool, FileHandle<'c>);

/// The `pick`-th of the kept handles that are writers, or are not.
fn pick_kept<'a, 'c>(kept: &'a [Option<Kept<'c>>], writer: bool, pick: u8) -> Option<&'a Kept<'c>> {
    let of_kind: Vec<&Kept<'c>> = kept.iter().flatten().filter(|k| k.2 == writer).collect();
    of_kind.get(pick as usize % of_kind.len().max(1)).copied()
}

impl Model {
    fn create(&mut self, p: &str) -> bool {
        if self.files.contains_key(p) {
            false
        } else {
            self.files.insert(p.to_string(), Vec::new());
            true
        }
    }
    fn write(&mut self, p: &str, offset: usize, data: &[u8]) -> bool {
        match self.files.get_mut(p) {
            None => false,
            Some(contents) => {
                if data.is_empty() {
                    return true; // POSIX: zero-length writes are no-ops
                }
                let end = offset + data.len();
                if contents.len() < end {
                    contents.resize(end, 0);
                }
                contents[offset..end].copy_from_slice(data);
                true
            }
        }
    }
    fn read(&self, p: &str, offset: usize, len: usize) -> Option<Vec<u8>> {
        self.files.get(p).map(|c| {
            let start = offset.min(c.len());
            let end = (offset + len).min(c.len());
            c[start..end].to_vec()
        })
    }
    fn truncate(&mut self, p: &str, size: usize) -> bool {
        match self.files.get_mut(p) {
            None => false,
            Some(c) => {
                c.resize(size, 0);
                true
            }
        }
    }
    fn remove(&mut self, p: &str) -> bool {
        self.files.remove(p).is_some()
    }
    fn size(&self, p: &str) -> Option<usize> {
        self.files.get(p).map(|c| c.len())
    }

    /// One of the mounts changed small file `p` — its contents are
    /// already in `files`: a new version, and if it was the write-back
    /// mount, what that mount must see from now on.
    fn changed(&mut self, p: &str, by_wb: bool) {
        let versions = self.versions.entry(p.to_string()).or_default();
        versions.push(self.files[p].clone());
        if by_wb {
            self.floor.insert(p.to_string(), versions.len() - 1);
        }
    }

    /// The write-back mount opened `p`: nothing older than the latest
    /// version may come out of any of its handles on the path again.
    fn opened_on_wb(&mut self, p: &str) {
        self.floor.insert(p.to_string(), self.versions[p].len() - 1);
    }

    /// What a read of `[offset, offset + len)` through kept handle
    /// `kept` may return: the range out of each version the handle's
    /// mount may still hold, under the handle's own EOF.
    fn may_read(&self, kept: &Kept<'_>, offset: usize, len: usize) -> Vec<Vec<u8>> {
        let (p, on_wb, _, h) = kept;
        let versions = &self.versions[p];
        let oldest = if *on_wb { self.floor[p] } else { versions.len() - 1 };
        versions[oldest..]
            .iter()
            .map(|v| {
                let mut v = v.clone();
                v.resize(h.size() as usize, 0);
                v[offset.min(v.len())..(offset + len).min(v.len())].to_vec()
            })
            .collect()
    }
}

impl Hazard {
    /// The bulk and directory-level calls publish every unborn file of
    /// the mount, not only the one they were asked about.
    fn publishes_all(self) -> bool {
        matches!(self, Hazard::StatMany | Hazard::UnlinkMany | Hazard::Readdir)
    }
}

/// An unborn file of the write-back mount: path, handle, bytes behind it.
type Held<'c> = (String, FileHandle<'c>, Vec<u8>);

/// Run hazard `by` on the write-back mount `wb` about the unborn file
/// `held[0]`, publishing all of `held`, then close the handles. A path
/// is its unborn file's iff the model has nobody owning it. If every
/// one is, the hazard sees the files and does its own work; if any is
/// not, the call that flushes answers `Exists` instead of doing its
/// work, the owner's file is untouched and the loser's run is nowhere
/// — while the winners among them are published all the same.
fn publish(wb: &GekkoClient, model: &mut Model, mut held: Vec<Held<'_>>, by: Hazard) -> std::result::Result<(), TestCaseError> {
    let all_win = held.iter().all(|(p, ..)| !model.files.contains_key(p));
    for (p, _, content) in &held {
        model.files.entry(p.clone()).or_insert_with(|| content.clone());
    }
    let (p, h, _) = held.remove(0);
    let (path, size) = (p.as_str(), model.size(&p).unwrap() as u64);
    let mut open = Some(h);
    let answer = match by {
        Hazard::Close => open.take().unwrap().close(),
        Hazard::Fsync => open.as_ref().unwrap().fsync(),
        Hazard::Stat => wb.stat(path).map(|meta| assert_eq!(meta.size, size, "the owning mount's stat of {path}")),
        Hazard::StatMany => wb
            .stat_many(&[path])
            .map(|slots| assert_eq!(slots[0].as_ref().map(|m| m.size).ok(), Some(size), "stat_many of {path}")),
        Hazard::Reopen => wb.open_handle(path, OpenFlags::RDONLY).map(|second| assert_eq!(second.size(), size)),
        // Refused either way: by the file it published, or its owner's.
        Hazard::Create => wb.create(path, 0o644).or_else(|e| if all_win && e == GkfsError::Exists { Ok(()) } else { Err(e) }),
        Hazard::Truncate(to) => wb.truncate(path, to as u64).map(|()| assert!(model.truncate(path, to as usize))),
        Hazard::Unlink => wb.unlink(path).map(|()| assert!(model.remove(path))),
        Hazard::UnlinkMany => wb.unlink_many(&[path]).map(|slots| {
            assert!(slots[0].is_ok() && model.remove(path));
        }),
        Hazard::Readdir => wb.readdir("/prop").map(|entries| {
            let listed = entries.iter().find(|e| path.ends_with(&e.name)).map(|e| e.size);
            assert_eq!(listed, Some(size), "the owning mount's listing of {path}");
        }),
    };
    match answer {
        Ok(()) => prop_assert!(all_win, "{:?} published {} over its owner", by, path),
        Err(e) => prop_assert!(!all_win && e == GkfsError::Exists, "{:?} of {}: {:?}", by, path, e),
    }
    // Born, unlinked or refused, nothing is left to send.
    for h in open.into_iter().chain(held.into_iter().map(|(_, h, _)| h)) {
        prop_assert!(h.close().is_ok());
    }
    Ok(())
}

/// One change the writing mount makes through its kept handle.
#[derive(Debug, Clone, Copy)]
enum Change {
    Write { offset: u16, len: u16 },
    Truncate(u16),
}

fn change_strategy() -> impl Strategy<Value = Change> {
    prop_oneof![
        3 => (any::<u16>(), any::<u16>())
            .prop_map(|(offset, len)| Change::Write { offset: offset % 12_000, len: 1 + len % 3_000 }),
        1 => any::<u16>().prop_map(|size| Change::Truncate(size % 15_000)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn another_mount_sees_the_model_size_after_every_change(changes in prop::collection::vec(change_strategy(), 1..60)) {
        let cluster = Cluster::deploy(ClusterConfig::new(2).with_chunk_size(4096)).unwrap();
        let fs = cluster.mount().unwrap();
        let other = cluster.mount().unwrap();
        let p = "/mark";
        let h = fs.open_handle(p, OpenFlags::RDWR.with_create()).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (i, &change) in changes.iter().enumerate() {
            match change {
                Change::Write { offset, len } => {
                    let data = pattern(i as u8, len as usize);
                    prop_assert_eq!(h.pwrite(offset as u64, &data).unwrap(), data.len());
                    let (start, end) = (offset as usize, offset as usize + data.len());
                    model.resize(model.len().max(end), 0);
                    model[start..end].copy_from_slice(&data);
                }
                Change::Truncate(size) => {
                    h.truncate(size as u64).unwrap();
                    model.resize(size as usize, 0);
                }
            }
            prop_assert_eq!(other.stat(p).unwrap().size, model.len() as u64, "after change {}: {:?}", i, change);
        }
        h.close().unwrap();
        prop_assert_eq!(other.stat(p).unwrap().size, model.len() as u64, "after the close");
        let got = other.open_handle(p, OpenFlags::RDONLY).unwrap().pread(0, model.len()).unwrap();
        prop_assert_eq!(&got, &model, "contents");
        cluster.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, // each case runs a whole cluster: keep the count sane
        .. ProptestConfig::default()
    })]

    #[test]
    fn gekkofs_agrees_with_reference_model(ops in prop::collection::vec(op_strategy(), 1..150)) {
        // Small chunks force multi-node striping even with small data.
        let cluster = Cluster::deploy(
            ClusterConfig::new(3).with_chunk_size(4096)
        ).unwrap();
        let fs = cluster.mount().unwrap();
        let wb = {
            let endpoints = (0..3).map(|n| cluster.daemon(n).endpoint()).collect();
            GekkoClient::mount(endpoints, &cluster.config().clone().with_write_back(64 * 1024)).unwrap()
        };
        fs.mkdir("/prop", 0o755).unwrap();
        let mut model = Model::default();
        // What the write-back mount holds back: path → open handle and
        // the bytes buffered behind it.
        let mut unborn: HashMap<String, (FileHandle<'_>, Vec<u8>)> = HashMap::new();
        let mut kept: [Option<Kept<'_>>; 6] = std::array::from_fn(|_| None);
        let mount = |by_wb: bool| if by_wb { &wb } else { &fs };

        for op in &ops {
            match op {
                Op::Create(f) => {
                    let p = path(*f);
                    let expect = model.create(&p);
                    let got = fs.create(&p, 0o644);
                    prop_assert_eq!(expect, got.is_ok(), "create {} -> {:?}", p, got);
                    if !expect {
                        prop_assert!(matches!(got, Err(GkfsError::Exists)));
                    }
                }
                Op::Write { file, offset, len, seed } => {
                    let p = path(*file);
                    let data = pattern(*seed, *len as usize);
                    let expect = model.write(&p, *offset as usize, &data);
                    // The handle API checks existence at open time, so
                    // a write to a missing file fails there — exactly
                    // the model's rule, with no metadata resurrection
                    // to undo (the old path-shim quirk).
                    let got = fs.open_handle(&p, OpenFlags::WRONLY).and_then(|h| {
                        h.pwrite(*offset as u64, &data)?;
                        h.close()
                    });
                    prop_assert_eq!(expect, got.is_ok(), "write {} -> {:?}", p, got);
                }
                Op::Read { file, offset, len } => {
                    let p = path(*file);
                    match model.read(&p, *offset as usize, *len as usize) {
                        Some(expect) => {
                            let h = fs.open_handle(&p, OpenFlags::RDONLY).unwrap();
                            let got = h.pread(*offset as u64, *len as usize).unwrap();
                            prop_assert_eq!(&expect, &got, "read {} @{}+{}", p, offset, len);
                        }
                        None => {
                            prop_assert!(fs.open_handle(&p, OpenFlags::RDONLY).is_err());
                        }
                    }
                }
                Op::Truncate { file, size } => {
                    let p = path(*file);
                    let expect = model.truncate(&p, *size as usize);
                    let got = fs.truncate(&p, *size as u64);
                    prop_assert_eq!(expect, got.is_ok());
                }
                Op::Remove(f) => {
                    let p = path(*f);
                    let expect = model.remove(&p);
                    let got = fs.unlink(&p);
                    prop_assert_eq!(expect, got.is_ok(), "remove {}", p);
                }
                Op::Stat(f) => {
                    let p = path(*f);
                    match model.size(&p) {
                        Some(size) => {
                            let m = fs.stat(&p).unwrap();
                            prop_assert_eq!(size as u64, m.size, "size of {}", p);
                        }
                        None => prop_assert!(fs.stat(&p).is_err()),
                    }
                }
                Op::Unborn(f) => {
                    let p = path(*f);
                    // No daemon is asked: whoever owns the path, the
                    // open succeeds — unless this mount already holds
                    // it unborn, which it knows by itself.
                    let excl = OpenFlags::RDWR.with_create().with_exclusive();
                    let rpcs = wb.stats().rpcs_issued.load(std::sync::atomic::Ordering::Relaxed);
                    match wb.open_handle(&p, excl) {
                        Ok(h) => prop_assert!(unborn.insert(p, (h, Vec::new())).is_none()),
                        Err(e) => prop_assert!(unborn.contains_key(&p) && e == GkfsError::Exists),
                    }
                    prop_assert_eq!(wb.stats().rpcs_issued.load(std::sync::atomic::Ordering::Relaxed), rpcs);
                }
                Op::UnbornAppend { file, len, seed } => {
                    if let Some((h, content)) = unborn.get_mut(&path(*file)) {
                        let data = pattern(*seed, *len as usize);
                        h.pwrite(content.len() as u64, &data).unwrap();
                        content.extend_from_slice(&data);
                        prop_assert_eq!(h.size(), content.len() as u64);
                        prop_assert_eq!(&h.pread(0, content.len()).unwrap(), content);
                    }
                }
                Op::Publish { file, by } => {
                    let p = path(*file);
                    if let Some((h, content)) = unborn.remove(&p) {
                        let mut held = vec![(p, h, content)];
                        if by.publishes_all() {
                            held.extend(unborn.drain().map(|(p, (h, content))| (p, h, content)));
                        }
                        publish(&wb, &mut model, held, *by)?;
                    }
                }
                Op::Keep { file, slot, on_wb, writer } => {
                    let p = small(*file);
                    if let Some((.., old)) = kept[*slot as usize].take() {
                        prop_assert!(old.close().is_ok());
                    }
                    let flags = if *writer { OpenFlags::WRONLY } else { OpenFlags::RDONLY };
                    match mount(*on_wb).open_handle(&p, flags) {
                        Ok(h) => {
                            prop_assert!(model.files.contains_key(&p), "opened {}, which nobody made", p);
                            if *on_wb {
                                model.opened_on_wb(&p);
                            }
                            kept[*slot as usize] = Some((p, *on_wb, *writer, h));
                        }
                        Err(e) => prop_assert!(!model.files.contains_key(&p) && e == GkfsError::NotFound, "open {}: {:?}", p, e),
                    }
                }
                Op::ReadKept { pick, offset, len } => {
                    if let Some(k) = pick_kept(&kept, false, *pick) {
                        let got = k.3.pread(*offset as u64, *len as usize).unwrap();
                        let may = model.may_read(k, *offset as usize, *len as usize);
                        prop_assert!(
                            may.contains(&got),
                            "read {} @{}+{} through a kept handle (write-back: {}) is none of the {} versions it may be",
                            k.0, offset, len, k.1, may.len()
                        );
                    }
                }
                Op::PutKept { pick, offset, len, seed } => {
                    if let Some((p, _, _, h)) = pick_kept(&kept, true, *pick) {
                        let data = pattern(*seed, *len as usize);
                        h.pwrite(*offset as u64, &data).unwrap();
                        h.flush().unwrap();
                        prop_assert!(model.write(p, *offset as usize, &data));
                        model.changed(p, true);
                    }
                }
                Op::Put { file, offset, len, seed, by_wb } => {
                    let p = small(*file);
                    let data = pattern(*seed, *len as usize);
                    let h = mount(*by_wb).open_handle(&p, OpenFlags::WRONLY.with_create()).unwrap();
                    h.pwrite(*offset as u64, &data).unwrap();
                    h.close().unwrap();
                    model.create(&p);
                    prop_assert!(model.write(&p, *offset as usize, &data));
                    model.changed(&p, *by_wb);
                }
                Op::Cut { file, size, by_wb } => {
                    let p = small(*file);
                    let expect = model.truncate(&p, *size as usize);
                    prop_assert_eq!(expect, mount(*by_wb).truncate(&p, *size as u64).is_ok());
                    if expect {
                        model.changed(&p, *by_wb);
                    }
                }
                Op::Replace { file, len, seed } => {
                    let p = small(*file);
                    if model.remove(&p) {
                        let fresh = pattern(*seed, *len as usize);
                        fs.unlink(&p).unwrap();
                        let h = fs.open_handle(&p, OpenFlags::WRONLY.with_create().with_exclusive()).unwrap();
                        h.pwrite(0, &fresh).unwrap();
                        h.close().unwrap();
                        model.files.insert(p.clone(), fresh);
                        model.changed(&p, false);
                        // A handle of the mount that unlinked it has
                        // been told; only the other mount's live on.
                        for slot in kept.iter_mut().filter(|k| matches!(k, Some((kp, false, ..)) if *kp == p)) {
                            let (.., h) = slot.take().unwrap();
                            prop_assert_eq!(h.pread(0, 16), Err(GkfsError::NotFound));
                        }
                    }
                }
            }
        }
        for (.., h) in kept.into_iter().flatten() {
            prop_assert!(h.close().is_ok());
        }
        // What is still unborn at the end is published by its close.
        for (p, (h, content)) in unborn.drain() {
            publish(&wb, &mut model, vec![(p, h, content)], Hazard::Close)?;
        }

        // Final full-content check of every surviving file.
        for (p, contents) in &model.files {
            let m = fs.stat(p).unwrap();
            prop_assert_eq!(contents.len() as u64, m.size);
            let h = fs.open_handle(p, OpenFlags::RDONLY).unwrap();
            let got = h.pread(0, contents.len()).unwrap();
            prop_assert_eq!(contents, &got, "final contents of {}", p);
        }
        // Nothing of a refused or unlinked run is anywhere: every chunk
        // a daemon holds belongs to a file of the model.
        for n in 0..3 {
            for (held, _) in cluster.daemon(n).backends().data.list_paths().unwrap() {
                prop_assert!(model.size(&held).is_some_and(|s| s > 0), "daemon {} holds chunks of {}", n, held);
            }
        }
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "{:?}", report);
        cluster.shutdown();
    }
}
