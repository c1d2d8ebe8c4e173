//! Golden wire bytes: every RPC message, `Metadata`, the size-merge
//! operand and whole frames, pinned as hex literals generated from the
//! hand-written encoders at commit 9be91e8 (PR 13) — before the `Wire`
//! trait and `wire_struct!` replaced them. The table-driven test in
//! `gkfs_rpc::proto` proves each codec agrees with itself; this file
//! proves they still agree with every daemon and every KV store
//! written before them. A fixture changes only with a deliberate
//! protocol or disk-format change.
//!
//! The fixtures below were first run — and passed — against 9be91e8
//! with an adapter block for that tree's types (`kind: u8`,
//! `DirentWire`, struct-like `MetaOp` variants); only the adapter
//! differs here.

use bytes::Bytes;
use gkfs_common::{FileKind, GkfsError, Metadata};
use gkfs_daemon::metadata::{encode_size_operand, MetaSizeMergeOperator};
use gkfs_kvstore::MergeOperator;
use gkfs_rpc::proto::*;
use gkfs_rpc::{Request, Response};

// ---- adapter: how this tree spells what the fixtures name ----
const FILE: FileKind = FileKind::File;
const DIR: FileKind = FileKind::Directory;
type Ent = gkfs_common::types::Dirent;
fn create_op(path: &str, kind: FileKind, mode: u32, exclusive: bool, now_ns: u64) -> MetaOp {
    MetaOp::Create(CreateReq { path: path.into(), kind, mode, exclusive, now_ns })
}
/// The constructors the fixtures were written against; a result is
/// built from a verdict now.
trait Verdicts {
    fn ok() -> MetaOpResult {
        Ok(None).into()
    }
    fn ok_meta(meta: Metadata) -> MetaOpResult {
        Ok(Some(meta)).into()
    }
    fn err(e: &GkfsError) -> MetaOpResult {
        Err(e.clone()).into()
    }
}
impl Verdicts for MetaOpResult {}
fn stat_op(path: &str) -> MetaOp {
    MetaOp::Stat(PathReq::new(path))
}
fn unlink_op(path: &str) -> MetaOp {
    MetaOp::Unlink(PathReq::new(path))
}
fn truncate_op(path: &str, new_size: u64, mtime_ns: u64) -> MetaOp {
    MetaOp::TruncateMeta(TruncateMetaReq { path: path.into(), new_size, mtime_ns })
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// `value` encodes to exactly `hex`, and `hex` decodes back to `value`.
macro_rules! pin {
    ($ty:ty, $value:expr, $hex:expr) => {{
        let v: $ty = $value;
        assert_eq!(hex(&v.encode()), $hex, "{} encoder", stringify!($ty));
        assert_eq!(<$ty>::decode(&unhex($hex)).unwrap(), v, "{} decoder", stringify!($ty));
    }};
}

// ---- fixtures: byte-identical between the parent-commit form of this
// ---- file and this one; only the adapter block above differs. ----

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    // Unary metadata requests.
    pin!(CreateReq, CreateReq { path: "/a/b".into(), kind: DIR, mode: 0o755, exclusive: true, now_ns: 0x0102_0304_0506_0708 }, "040000002f612f6201ed010000010807060504030201");
    pin!(CreateReq, CreateReq { path: String::new(), kind: FILE, mode: 0, exclusive: false, now_ns: 0 }, "000000000000000000000000000000000000");
    pin!(PathReq, PathReq::new("/x/y/z"), "060000002f782f792f7a");
    pin!(PathReq, PathReq::new(""), "00000000");
    pin!(UpdateSizeReq, UpdateSizeReq { path: "/f".into(), size: 1 << 40, mtime_ns: 7 }, "020000002f6600000000000100000700000000000000");
    pin!(UpdateSizeReq, UpdateSizeReq { path: String::new(), size: 0, mtime_ns: 0 }, "0000000000000000000000000000000000000000");
    pin!(TruncateMetaReq, TruncateMetaReq { path: "/f".into(), new_size: 100, mtime_ns: 8 }, "020000002f6664000000000000000800000000000000");
    pin!(TruncateMetaReq, TruncateMetaReq { path: String::new(), new_size: 0, mtime_ns: 0 }, "0000000000000000000000000000000000000000");
    // Regenerated in PR 18, a deliberate protocol change — the only
    // pins that were: `RemoveMeta` now states the kind it expects to
    // remove (`unlink` a file, `rmdir` a directory; the daemon refuses
    // the other itself), so its request is a path plus a kind byte, and
    // it answers with the removed entry — a `Metadata`, pinned below —
    // where `RemoveMetaResp` carried the kind alone.
    pin!(RemoveMetaReq, RemoveMetaReq { path: "/x/y/z".into(), kind: DIR }, "060000002f782f792f7a01");
    pin!(RemoveMetaReq, RemoveMetaReq { path: String::new(), kind: FILE }, "0000000000");
    pin!(ReplicaMetaReq, ReplicaMetaReq { path: "/recovered".into(), kind: DIR, mode: 0o700, size: 1 << 20, ctime_ns: 5, mtime_ns: 6 }, "0a0000002f7265636f766572656401c0010000000010000000000005000000000000000600000000000000");
    pin!(ReplicaMetaReq, ReplicaMetaReq { path: String::new(), kind: FILE, mode: 0, size: 0, ctime_ns: 0, mtime_ns: 0 }, "000000000000000000000000000000000000000000000000000000000000000000");

    // Directory listing.
    pin!(ReaddirReq, ReaddirReq { dir: "/dir".into(), cursor: "file-0999".into(), max_entries: 1000 }, "040000002f6469720900000066696c652d30393939e8030000");
    pin!(ReaddirReq, ReaddirReq::new(""), "000000000000000000000000");
    pin!(ReadDirResp, ReadDirResp {
        entries: vec![
            Ent { name: "a".into(), kind: FILE, size: 123 },
            Ent { name: "subdir".into(), kind: DIR, size: 0 },
        ],
        next_cursor: "subdir".into(),
    }, "06000000737562646972020000000100000061007b0000000000000006000000737562646972010000000000000000");
    pin!(ReadDirResp, ReadDirResp { entries: vec![], next_cursor: String::new() }, "0000000000000000");

    // Data plane.
    pin!(ChunkBatchReq, ChunkBatchReq {
        path: "/data".into(),
        ops: vec![
            ChunkOp { chunk_id: 0, offset: 100, len: 400 },
            ChunkOp { chunk_id: 3, offset: 0, len: u64::MAX },
        ],
    }, "050000002f646174610200000000000000000000006400000000000000900100000000000003000000000000000000000000000000ffffffffffffffff");
    pin!(ChunkBatchReq, ChunkBatchReq { path: String::new(), ops: vec![] }, "0000000000000000");
    pin!(ReadChunksResp, ReadChunksResp { lens: vec![512, 0, 77], missing: vec![false, true, false] }, "03000000000200000000000000000000000000004d00000000000000000100");
    pin!(ReadChunksResp, ReadChunksResp { lens: vec![], missing: vec![] }, "00000000");
    // New in PR 21, a deliberate protocol change to one row:
    // `RemoveChunks` carried a `PathReq` (pinned above, still `Stat`'s
    // request) and the daemon removed a directory; chunk files now have
    // flat names, so the request also names the chunk ids to unlink —
    // a path, then a counted list, empty for "whatever you hold".
    pin!(RemoveChunksReq, RemoveChunksReq { path: "/x/y/z".into(), ids: vec![0, 7, u64::MAX] }, "060000002f782f792f7a0300000000000000000000000700000000000000ffffffffffffffff");
    pin!(RemoveChunksReq, RemoveChunksReq { path: String::new(), ids: vec![] }, "0000000000000000");
    // New in PR 26, one new row: `WriteFile` is a chunk batch for the
    // daemon that owns the file's metadata (chunk 0 is placed there),
    // with the metadata ops that used to be RPCs of their own riding
    // behind it — the batch first, byte for byte a `ChunkBatchReq`, so
    // the server's inline-or-pool peek reads both; then an optional
    // size candidate, an optional create, and the resubmission flag.
    // Data alone stays `WriteChunks`' job, so the four shapes are:
    // data + size (every write-through write that reaches the owner),
    let file_batch = || ChunkBatchReq { path: "/data".into(), ops: vec![ChunkOp { chunk_id: 0, offset: 100, len: 400 }] };
    let file_size = Some(SizeCandidate { size: 500, mtime_ns: 7 });
    let file_create = Some(NewFile { mode: 0o644, exclusive: true, now_ns: 6 });
    pin!(WriteFileReq, WriteFileReq { batch: file_batch(), size: file_size, create: None, resubmitted: false }, "050000002f646174610100000000000000000000006400000000000000900100000000000001f40100000000000007000000000000000000");
    // data + size + create (a write-back mount's first flush of a new file),
    pin!(WriteFileReq, WriteFileReq { batch: file_batch(), size: file_size, create: file_create, resubmitted: false }, "050000002f646174610100000000000000000000006400000000000000900100000000000001f401000000000000070000000000000001a401000001060000000000000000");
    // create only (that mount closing a new file it wrote nothing to),
    pin!(WriteFileReq, WriteFileReq { batch: ChunkBatchReq { path: "/new".into(), ops: vec![] }, size: None, create: file_create, resubmitted: false }, "040000002f6e6577000000000001a401000001060000000000000000");
    // and the flag a frame with a create carries when it is sent again
    // (the daemon then writes the bytes despite `Exists`).
    pin!(WriteFileReq, WriteFileReq { batch: file_batch(), size: file_size, create: file_create, resubmitted: true }, "050000002f646174610100000000000000000000006400000000000000900100000000000001f401000000000000070000000000000001a401000001060000000000000001");
    pin!(WriteFileReq, WriteFileReq { batch: ChunkBatchReq { path: String::new(), ops: vec![] }, size: None, create: None, resubmitted: false }, "0000000000000000000000");
    // New in PR 30, one new row: `OpenFile` asks for a path's entry and,
    // with it, the file if it is no larger than `head_max` — `Stat`'s
    // request with one number behind it. 0 is what a write-through
    // mount and every handle that can write ask (the entry alone, ever),
    pin!(OpenFileReq, OpenFileReq { path: "/x/y/z".into(), head_max: 0 }, "060000002f782f792f7a0000000000000000");
    // and a write-back mount's read-only open names what it can hold.
    pin!(OpenFileReq, OpenFileReq { path: "/x/y/z".into(), head_max: 16384 }, "060000002f782f792f7a0040000000000000");
    pin!(OpenFileReq, OpenFileReq { path: String::new(), head_max: 0 }, "000000000000000000000000");
    // The reply is `Stat`'s — a `Metadata`, byte for byte — and one flag;
    // the file itself is the frame's bulk (pinned with the frames
    // below). Three shapes: a small file whose bytes the daemon vouches
    // for (`held`, bulk = `size` bytes),
    let small = Metadata { kind: FILE, size: 4, mode: 0o644, ctime_ns: 5, mtime_ns: 6 };
    pin!(OpenFileResp, OpenFileResp { meta: small.clone(), held: true }, "000400000000000000a40100000500000000000000060000000000000001");
    // the same entry from a replica that does not hold chunk 0 — it
    // rejoined empty — which vouches for nothing (no bulk: the client
    // reads down the replica chain, never zeros),
    pin!(OpenFileResp, OpenFileResp { meta: small, held: false }, "000400000000000000a40100000500000000000000060000000000000000");
    // and an entry nothing was read for — a directory, an empty file,
    // one over `head_max`: nothing is missing, and there is no bulk.
    pin!(OpenFileResp, OpenFileResp { meta: Metadata { kind: DIR, size: 0, mode: 0o755, ctime_ns: 1, mtime_ns: 2 }, held: true }, "010000000000000000ed0100000100000000000000020000000000000001");
    pin!(TruncateChunksReq, TruncateChunksReq { path: "/t".into(), keep_chunk: 9, keep_bytes: 4095 }, "020000002f740900000000000000ff0f000000000000");
    pin!(TruncateChunksReq, TruncateChunksReq { path: String::new(), keep_chunk: 0, keep_bytes: 0 }, "0000000000000000000000000000000000000000");
    pin!(ChunkInventoryResp, ChunkInventoryResp { entries: vec![("/a".into(), 3), ("/b:x".into(), 1)] }, "02000000020000002f610300000000000000040000002f623a780100000000000000");
    pin!(ChunkInventoryResp, ChunkInventoryResp { entries: vec![] }, "00000000");

    // Liveness and stats. The two `DaemonStatsResp` pins follow the list
    // of daemon counters in `gkfs_common::metrics`, which declares the
    // reply: a counter added there is a deliberate change here.
    pin!(HeartbeatReq, HeartbeatReq { from: 3, seq: 99 }, "03000000000000006300000000000000");
    pin!(HeartbeatReq, HeartbeatReq { from: 0, seq: 0 }, "00000000000000000000000000000000");
    pin!(HeartbeatResp, HeartbeatResp { epoch: 0xDEAD_BEEF, under_replicated: 4, backlog: 2 }, "efbeadde0000000004000000000000000200000000000000");
    pin!(HeartbeatResp, HeartbeatResp { epoch: 0, under_replicated: 0, backlog: 0 }, "000000000000000000000000000000000000000000000000");
    pin!(DaemonStatsResp, DaemonStatsResp {
        meta_entries: 1,
        kv_puts: 2,
        kv_gets: 3,
        kv_merges: 4,
        storage_write_bytes: 5,
        storage_read_bytes: 6,
        kv_flushes: 7,
        kv_compactions: 8,
        kv_stalls: 9,
        kv_stall_micros: 10,
        kv_imm_hits: 11,
        kv_group_commits: 12,
        kv_group_commit_records: 13,
        kv_bloom_skips: 14,
        chunk_tasks_spawned: 15,
        chunk_inline_runs: 16,
        fd_cache_hits: 17,
        fd_cache_misses: 18,
        coalesced_ops: 19,
        read_reply_copy_bytes: 20,
        replication_factor: 2,
        under_replicated_chunks: 21,
        repl_backlog: 22,
        repl_chunks_copied: 23,
        repl_meta_copied: 24,
        heartbeats_sent: 25,
        heartbeats_received: 26,
        meta_batches: 27,
        meta_batch_ops: 28,
        meta_group_applies: 29,
        liveness: vec![0, 2, 1],
        request_copy_bytes: 30,
        storage_write_ops: 31,
        storage_read_ops: 32,
        dir_scans: 33,
        served_inline: 34,
        served_pooled: 35,
        spun: 36,
        spin_expired: 37,
    }, "0200000000000000030000000000000004000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000001b000000000000001c000000000000001d000000000000001f000000000000000500000000000000200000000000000006000000000000000f00000000000000100000000000000011000000000000001200000000000000210000000000000013000000000000001400000000000000150000000000000016000000000000001700000000000000180000000000000019000000000000001a00000000000000010000000000000002000000000000001e00000000000000220000000000000023000000000000002400000000000000250000000000000003000000000201");
    pin!(DaemonStatsResp, DaemonStatsResp::default(), "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000");

    // Bulk metadata plane.
    pin!(BatchMetaReq, BatchMetaReq {
        ops: vec![
            create_op("/a", DIR, 0o644, true, 7),
            stat_op("/a"),
            unlink_op("/b"),
            truncate_op("/c", 512, 9),
        ]
        .into(),
    }, "0400000000020000002f6101a401000001070000000000000001020000002f6102020000002f6203020000002f6300020000000000000900000000000000");
    pin!(BatchMetaReq, BatchMetaReq::default(), "00000000");
    // PR 18 added op tag 4 (`Rmdir`); tags 0–3 above are untouched.
    pin!(BatchMetaReq, BatchMetaReq { ops: vec![MetaOp::Rmdir(PathReq::new("/d"))].into() }, "0100000004020000002f64");
    pin!(BatchMetaResp, BatchMetaResp {
        results: vec![
            MetaOpResult::ok(),
            MetaOpResult::ok_meta(Metadata::new_dir(42)),
            MetaOpResult::err(&GkfsError::Exists),
            MetaOpResult::err(&GkfsError::InvalidArgument("bad offset".into())),
        ],
    }, "040000000000000000000000000000000000000000011d000000010000000000000000ed0100002a000000000000002a00000000000000020000000000000000060000000a000000626164206f666673657400");
    pin!(BatchMetaResp, BatchMetaResp::default(), "00000000");
}

/// `Metadata` and the size-merge operand are KV-store values: their
/// layout is a disk format, not only a wire format.
#[test]
fn persisted_values_encode_to_their_pinned_bytes() {
    pin!(Metadata, Metadata { kind: gkfs_common::FileKind::Directory, size: 0xDEAD_BEEF, mode: 0o640, ctime_ns: 123, mtime_ns: 456 }, "01efbeadde00000000a00100007b00000000000000c801000000000000");
    pin!(Metadata, Metadata { kind: gkfs_common::FileKind::File, size: 0, mode: 0, ctime_ns: 0, mtime_ns: 0 }, "0000000000000000000000000000000000000000000000000000000000");
    assert_eq!(hex(&encode_size_operand(1 << 33, 0x0A0B_0C0D)), "00000000020000000d0c0b0a00000000");
    assert_eq!(hex(&encode_size_operand(0, 0)), "00000000000000000000000000000000");
    // The operand is read back by the merge operator: folding the
    // pinned bytes into the pinned base must move size and mtime.
    let merged = MetaSizeMergeOperator.full_merge(
        b"/k",
        Some(&unhex("01efbeadde00000000a00100007b00000000000000c801000000000000")),
        &[unhex("00000000020000000d0c0b0a00000000")],
    )
    .unwrap();
    assert_eq!(Metadata::decode(&merged).unwrap().size, 1 << 33);
    assert_eq!(Metadata::decode(&merged).unwrap().mtime_ns, 0x0A0B_0C0D);
}

/// Whole frames, as the TCP transport puts them inside its
/// length/CRC envelope.
#[test]
fn frames_encode_to_their_pinned_bytes() {
    let mut req = Request::new(Opcode::WriteChunks, &b"args"[..]).with_bulk(vec![3u8; 5]);
    req.id = 42;
    assert_eq!(hex(&req.encode()), "07002a000000000000000400000061726773050000000303030303");
    let mut framed = req.encode_prefix();
    framed.extend_from_slice(&req.bulk);
    assert_eq!(hex(&framed), "07002a000000000000000400000061726773050000000303030303");
    let mut req = Request::new(Opcode::Ping, Bytes::new());
    req.id = 0;
    assert_eq!(hex(&req.encode()), "000000000000000000000000000000000000");

    let mut resp = Response::ok(&b"lens"[..]).with_bulk(vec![7u8; 3]);
    resp.id = 42;
    assert_eq!(hex(&resp.encode()), "2a000000000000000000000000000000040000006c656e7303000000070707");
    // An `OpenFile` reply that carries the file: the entry and the flag
    // are the body, the file's four bytes the bulk behind it.
    let entry = OpenFileResp { meta: Metadata { kind: FILE, size: 4, mode: 0o644, ctime_ns: 5, mtime_ns: 6 }, held: true };
    let mut resp = Response::ok(entry.encode()).with_bulk(&b"file"[..]);
    resp.id = 7;
    assert_eq!(hex(&resp.encode()), "07000000000000000000000000000000\
1e000000000400000000000000a40100000500000000000000060000000000000001\
0400000066696c65");
    let mut resp = Response::err(GkfsError::InvalidArgument("bad offset".into()));
    resp.id = 9;
    assert_eq!(hex(&resp.encode()), "0900000000000000060000000a000000626164206f66667365740000000000000000");
    assert_eq!(hex(&resp.encode_prefix()), "0900000000000000060000000a000000626164206f66667365740000000000000000");
}
