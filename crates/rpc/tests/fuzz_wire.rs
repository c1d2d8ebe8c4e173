//! Seeded mutation fuzz over everything this crate decodes off a
//! socket: every row of the RPC table in both directions
//! (`<R::Req as Wire>::decode`, `<R::Resp as Wire>::decode`),
//! `Request::decode_owned` / `Response::decode_owned`, the TCP
//! transport's one frame assembler (`tcp::read_frames`), which every
//! reader — the daemon's loop and a client alike — drives the same way:
//! it receives what is there without waiting, and waits for readiness
//! when nothing is; and the receive by which a chunk read's waiter lands
//! its reply's bulk in its result (`tcp::land_frame`), whose windows
//! sit between guard bytes that no row may touch.
//!
//! The corpus is the bytes `crates/daemon/tests/wire_golden.rs` pins —
//! copied here as hex, row by row; the first thing every row does is
//! decode its unmutated corpus, so a deliberate protocol change that
//! regenerates those pins fails here by name until this copy follows.
//! Each input is truncated at every length, has every length / count
//! field overwritten with `0`, `1`, `u32::MAX` and `u64::MAX` (by
//! overwriting at *every* byte offset — no layout knowledge to rot),
//! and has seeded bits flipped and bytes spliced. A stream of framed
//! messages is, besides, delivered split at every byte and a byte at a
//! time, given forged length prefixes, and has every bit of a CRC
//! trailer flipped — every such row finding the socket drained between
//! pieces, as a reader finds a socket between waits.
//!
//! Asserted for every row: no panic; a failure is a typed `Corruption`
//! (a message body) or `Corruption`/`Rpc` (a frame, a stream); the
//! decode allocates at most a small multiple of the input's length — a
//! stream, at most the 4 MiB a receiver reserves on a length prefix's
//! word alone; what decodes re-encodes to the bytes it came from, or —
//! where the wire carries an error status, which decodes leniently for
//! the sake of daemons newer than the client — to bytes that decode to
//! the same thing; a frame a stream yields is a frame that was sent.
//!
//! Tier 1 runs `fuzz_wire` (scale 1). `scripts/ci.sh` also runs the
//! `--ignored` variant: the seeded rows at 100× over fresh seeds. A
//! failure names its row — corpus, mutation, seed — and replays alone
//! by construction (everything is derived from those three).

use bytes::Bytes;
use gkfs_common::crc::crc32;
use gkfs_common::retry::splitmix64;
use gkfs_common::{GkfsError, Result};
use gkfs_rpc::proto::{op, Opcode, ReadChunksResp, Rpc, Wire};
use gkfs_rpc::transport::tcp::{land_frame, read_frames, Recv};
use gkfs_rpc::{Request, Response};
use std::io::ErrorKind;
use std::mem::MaybeUninit;
use std::time::Duration;

#[path = "../../kvstore/tests/fuzz_harness/mod.rs"]
mod fuzz_harness;
use fuzz_harness::{fail, measured, mutations};

/// Panics, over-`budget` allocations and errors other than
/// `Corruption` (or `Rpc`, where `rpc_too`: an unknown opcode, a lost
/// connection) fail the row; what decoded is handed back for the
/// row's own check.
fn judge<T>(row: &str, budget: usize, rpc_too: bool, decode: impl FnOnce() -> Result<T>) -> Option<T> {
    let (out, peak) = measured(decode);
    let out = out.unwrap_or_else(|()| fail(row, format_args!("the decoder panicked")));
    if peak > budget {
        fail(row, format_args!("allocated {peak} bytes, budget {budget}"));
    }
    match out {
        Ok(v) => Some(v),
        Err(GkfsError::Corruption(_)) => None,
        Err(GkfsError::Rpc(_)) if rpc_too => None,
        Err(e) => fail(row, format_args!("failed with {e:?}, not a typed decode error")),
    }
}

/// What decoding `len` bytes of message may allocate. The densest
/// things on the wire are a 5-byte `MetaOpResult` and a 13-byte
/// `Dirent`, each a few dozen bytes in memory.
fn budget(len: usize) -> usize {
    16 * len + 1024
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

// ---- message bodies --------------------------------------------------

/// `exact`: what decodes must re-encode to the very bytes it came
/// from. Without it (a body carrying error statuses) the re-encoding
/// must decode again, to something that encodes the same.
fn check_body<T: Wire>(row: &str, bytes: &[u8], exact: bool) -> bool {
    let Some(value) = judge(row, budget(bytes.len()), false, || T::decode(bytes)) else {
        return false;
    };
    let again = value.encode();
    if exact && again != bytes {
        fail(row, format_args!("decoded, and re-encodes to other bytes: {again:02x?}"));
    }
    match T::decode(&again) {
        Ok(twice) if twice.encode() == again => true,
        _ => fail(row, format_args!("its own re-encoding {again:02x?} does not decode to itself")),
    }
}

fn fuzz_body<T: Wire>(name: &str, hex: &str, exact: bool, seed: u64, scale: usize) {
    let body = unhex(hex);
    if !check_body::<T>(name, &body, exact) {
        fail(name, format_args!("the pinned bytes no longer decode: regenerate from wire_golden.rs"));
    }
    if body.is_empty() {
        // `()`: nothing to mutate, and nothing may follow it.
        check_body::<T>(&format!("{name}: one trailing byte"), &[0], exact);
        return;
    }
    mutations(&body, 0..body.len(), 1, 300 * scale, seed, |what, bytes| {
        check_body::<T>(&format!("{name}: {what}"), bytes, exact);
    });
}

/// One row of the table: its pinned request and response bodies.
fn fuzz_row<R: Rpc>(reqs: &[&str], resps: &[&str], exact_resp: bool, seed: u64, scale: usize) {
    for (i, hex) in reqs.iter().enumerate() {
        fuzz_body::<R::Req>(&format!("{:?} request {i}", R::OP), hex, true, seed, scale);
    }
    for (i, hex) in resps.iter().enumerate() {
        fuzz_body::<R::Resp>(&format!("{:?} response {i}", R::OP), hex, exact_resp, seed, scale);
    }
}

const UNIT: &[&str] = &[""];
const PATHS: &[&str] = &["060000002f782f792f7a", "00000000"];
const METADATA: &[&str] = &[
    "01efbeadde00000000a00100007b00000000000000c801000000000000",
    "0000000000000000000000000000000000000000000000000000000000",
];
const CHUNK_BATCHES: &[&str] = &[
    "050000002f646174610200000000000000000000006400000000000000900100000000000003000000000000000000000000000000ffffffffffffffff",
    "0000000000000000",
];
const STATS: &str = "0200000000000000030000000000000004000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000001b000000000000001c000000000000001d000000000000001f000000000000000500000000000000200000000000000006000000000000000f00000000000000100000000000000011000000000000001200000000000000210000000000000013000000000000001400000000000000150000000000000016000000000000001700000000000000180000000000000019000000000000001a00000000000000010000000000000002000000000000001e00000000000000220000000000000023000000000000002400000000000000250000000000000003000000000201";

/// The corpus, by opcode — a `match`, so a row added to the table does
/// not compile until it has one.
fn fuzz_opcode(opcode: Opcode, seed: u64, scale: usize) {
    let s = seed ^ opcode as u64;
    match opcode {
        Opcode::Ping => fuzz_row::<op::Ping>(UNIT, UNIT, true, s, scale),
        Opcode::Create => fuzz_row::<op::Create>(
            &["040000002f612f6201ed010000010807060504030201", "000000000000000000000000000000000000"],
            UNIT,
            true,
            s,
            scale,
        ),
        Opcode::Stat => fuzz_row::<op::Stat>(PATHS, METADATA, true, s, scale),
        Opcode::RemoveMeta => fuzz_row::<op::RemoveMeta>(
            &["060000002f782f792f7a01", "0000000000"],
            METADATA,
            true,
            s,
            scale,
        ),
        Opcode::UpdateSize => fuzz_row::<op::UpdateSize>(
            &["020000002f6600000000000100000700000000000000", "0000000000000000000000000000000000000000"],
            UNIT,
            true,
            s,
            scale,
        ),
        Opcode::TruncateMeta => fuzz_row::<op::TruncateMeta>(
            &["020000002f6664000000000000000800000000000000", "0000000000000000000000000000000000000000"],
            UNIT,
            true,
            s,
            scale,
        ),
        Opcode::ReadDir => fuzz_row::<op::ReadDir>(
            &["040000002f6469720900000066696c652d30393939e8030000", "000000000000000000000000"],
            &[
                "06000000737562646972020000000100000061007b0000000000000006000000737562646972010000000000000000",
                "0000000000000000",
            ],
            true,
            s,
            scale,
        ),
        Opcode::WriteChunks => fuzz_row::<op::WriteChunks>(CHUNK_BATCHES, UNIT, true, s, scale),
        Opcode::ReadChunks => fuzz_row::<op::ReadChunks>(
            CHUNK_BATCHES,
            &["03000000000200000000000000000000000000004d00000000000000000100", "00000000"],
            true,
            s,
            scale,
        ),
        Opcode::RemoveChunks => fuzz_row::<op::RemoveChunks>(
            &[
                "060000002f782f792f7a0300000000000000000000000700000000000000ffffffffffffffff",
                "0000000000000000",
            ],
            UNIT,
            true,
            s,
            scale,
        ),
        Opcode::TruncateChunks => fuzz_row::<op::TruncateChunks>(
            &["020000002f740900000000000000ff0f000000000000", "0000000000000000000000000000000000000000"],
            UNIT,
            true,
            s,
            scale,
        ),
        Opcode::DaemonStats => {
            let zeros = "00".repeat(unhex(STATS).len() - 3);
            fuzz_row::<op::DaemonStats>(UNIT, &[STATS, &zeros], true, s, scale)
        }
        Opcode::ChunkInventory => fuzz_row::<op::ChunkInventory>(
            UNIT,
            &["02000000020000002f610300000000000000040000002f623a780100000000000000", "00000000"],
            true,
            s,
            scale,
        ),
        Opcode::Heartbeat => fuzz_row::<op::Heartbeat>(
            &["03000000000000006300000000000000", "00000000000000000000000000000000"],
            &[
                "efbeadde0000000004000000000000000200000000000000",
                "000000000000000000000000000000000000000000000000",
            ],
            true,
            s,
            scale,
        ),
        Opcode::ReplicaMeta => fuzz_row::<op::ReplicaMeta>(
            &[
                "0a0000002f7265636f766572656401c0010000000010000000000005000000000000000600000000000000",
                "000000000000000000000000000000000000000000000000000000000000000000",
            ],
            UNIT,
            true,
            s,
            scale,
        ),
        Opcode::WriteFile => fuzz_row::<op::WriteFile>(
            &[
                "050000002f646174610100000000000000000000006400000000000000900100000000000001f40100000000000007000000000000000000",
                "050000002f646174610100000000000000000000006400000000000000900100000000000001f401000000000000070000000000000001a401000001060000000000000000",
                "040000002f6e6577000000000001a401000001060000000000000000",
                "050000002f646174610100000000000000000000006400000000000000900100000000000001f401000000000000070000000000000001a401000001060000000000000001",
                "0000000000000000000000",
            ],
            UNIT,
            true,
            s,
            scale,
        ),
        Opcode::OpenFile => fuzz_row::<op::OpenFile>(
            &[
                "060000002f782f792f7a0000000000000000",
                "060000002f782f792f7a0040000000000000",
                "000000000000000000000000",
            ],
            &[
                "000400000000000000a40100000500000000000000060000000000000001",
                "000400000000000000a40100000500000000000000060000000000000000",
                "010000000000000000ed0100000100000000000000020000000000000001",
            ],
            true,
            s,
            scale,
        ),
        // Its results carry error statuses: a code this build does not
        // know decodes (as `Rpc`), so the bytes need not come back.
        Opcode::BatchMeta => fuzz_row::<op::BatchMeta>(
            &[
                "0400000000020000002f6101a401000001070000000000000001020000002f6102020000002f6203020000002f6300020000000000000900000000000000",
                "00000000",
                "0100000004020000002f64",
            ],
            &[
                "040000000000000000000000000000000000000000011d000000010000000000000000ed0100002a000000000000002a00000000000000020000000000000000060000000a000000626164206f666673657400",
                "00000000",
            ],
            false,
            s,
            scale,
        ),
    }
}

// ---- frames ----------------------------------------------------------

fn check_request(row: &str, bytes: &[u8]) {
    let frame = Bytes::copy_from_slice(bytes);
    let got = judge(row, budget(bytes.len()), true, || Request::decode_owned(&frame));
    if got.is_some_and(|req| req.encode() != bytes) {
        fail(row, format_args!("the decoded request re-encodes to other bytes"));
    }
}

/// A response's status is an error code and a detail string, decoded
/// leniently (see the module docs): the re-encoding is checked for
/// decoding to itself, not for being the input.
fn check_response(row: &str, bytes: &[u8]) {
    let frame = Bytes::copy_from_slice(bytes);
    let Some(resp) = judge(row, budget(bytes.len()), true, || Response::decode_owned(&frame)) else {
        return;
    };
    let again = resp.encode();
    match Response::decode_owned(&Bytes::from(again.clone())) {
        Ok(twice) if twice.encode() == again => {}
        _ => fail(row, format_args!("the decoded response's re-encoding does not decode to itself")),
    }
}

/// wire_golden.rs's `frames_encode_to_their_pinned_bytes`.
const REQUEST_FRAMES: &[&str] = &[
    "07002a000000000000000400000061726773050000000303030303",
    "000000000000000000000000000000000000",
];
const RESPONSE_FRAMES: &[&str] = &[
    "2a000000000000000000000000000000040000006c656e7303000000070707",
    "07000000000000000000000000000000\
1e000000000400000000000000a40100000500000000000000060000000000000001\
0400000066696c65",
    "0900000000000000060000000a000000626164206f66667365740000000000000000",
];

fn fuzz_frames(seed: u64, scale: usize) {
    for (i, hex) in REQUEST_FRAMES.iter().enumerate() {
        let frame = unhex(hex);
        let name = format!("request frame {i}");
        assert!(Request::decode_owned(&Bytes::from(frame.clone())).is_ok(), "{name}: pinned bytes");
        mutations(&frame, 0..frame.len(), 1, 2000 * scale, seed, |what, bytes| {
            check_request(&format!("{name}: {what}"), bytes);
        });
    }
    for (i, hex) in RESPONSE_FRAMES.iter().enumerate() {
        let frame = unhex(hex);
        let name = format!("response frame {i}");
        assert!(Response::decode_owned(&Bytes::from(frame.clone())).is_ok(), "{name}: pinned bytes");
        mutations(&frame, 0..frame.len(), 1, 2000 * scale, seed, |what, bytes| {
            check_response(&format!("{name}: {what}"), bytes);
        });
    }
}

// ---- streams ---------------------------------------------------------

/// `payload` in the TCP transport's envelope: length, payload, CRC.
fn envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// A stream that arrives in pieces: `first` bytes, then `then` at a
/// time. A receive finds it drained (`WouldBlock`) between pieces, as a
/// reader finds a socket between waits; a wait always finds the next.
struct Pieces<'a> {
    data: &'a [u8],
    first: usize,
    then: usize,
    gap: bool,
}

// SAFETY: `recv` initialises the `n <= into.len()` bytes it reports.
unsafe impl Recv for Pieces<'_> {
    fn recv(&mut self, into: &mut [MaybeUninit<u8>]) -> std::io::Result<usize> {
        self.gap = !self.gap;
        if self.gap {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = self.first.min(into.len()).min(self.data.len());
        into[..n].write_copy_of_slice(&self.data[..n]);
        self.data = &self.data[n..];
        self.first = self.then;
        Ok(n)
    }

    fn wait(&mut self, _: Option<Duration>) -> std::io::Result<bool> {
        Ok(true)
    }
}

/// What reading a stream may allocate whatever it claims: the read
/// buffer, the 4 MiB a receiver reserves at most before a frame's
/// bytes arrive (`tcp.rs` `FRAME_RESERVE_MAX`: a length prefix is only
/// a claim), and the frames it hands out.
fn stream_budget(len: usize) -> usize {
    (4 << 20) + (64 << 10) + 4 * len
}

/// Read `stream` in the given pieces; the frames
/// it yields must be the first of `sent`, in order — all of them when
/// `whole` — and reading must end in a typed error. A mutation can
/// spell one frame nobody sent and the checksum cannot refuse: the
/// empty one (eight zero bytes; no message decodes from it), which is
/// passed over.
fn check_stream(row: &str, stream: &[u8], first: usize, then: usize, sent: &[Vec<u8>], whole: bool) {
    let pieces = Pieces { data: stream, first, then, gap: true };
    let (read, peak) = measured(|| read_frames(pieces));
    let (frames, cause) = read.unwrap_or_else(|()| fail(row, format_args!("the frame reader panicked")));
    if peak > stream_budget(stream.len()) {
        fail(row, format_args!("allocated {peak} bytes reading {}", stream.len()));
    }
    if !matches!(cause, GkfsError::Rpc(_) | GkfsError::Corruption(_)) {
        fail(row, format_args!("reading ended with {cause:?}, not Rpc or Corruption"));
    }
    let frames: Vec<&Bytes> = frames.iter().filter(|f| whole || !f.is_empty()).collect();
    let genuine = frames.len() <= sent.len() && frames.iter().zip(sent).all(|(got, want)| got[..] == want[..]);
    if !genuine || (whole && frames.len() != sent.len()) {
        fail(row, format_args!("yielded {} frames, not a prefix of the {} sent", frames.len(), sent.len()));
    }
}

fn fuzz_streams(seed: u64, scale: usize) {
    // Three frames that go through the read buffer, one that does not
    // (it is larger than the buffer), and one behind it.
    let large = Request::new(Opcode::WriteChunks, unhex(CHUNK_BATCHES[0])).with_bulk(vec![0xA5u8; 20_000]);
    let small: Vec<Vec<u8>> =
        [REQUEST_FRAMES[0], RESPONSE_FRAMES[2], REQUEST_FRAMES[1]].iter().map(|h| unhex(h)).collect();
    let mut mixed = small.clone();
    mixed.insert(2, large.encode());
    for (name, sent) in [("small stream", &small), ("mixed stream", &mixed)] {
        let stream: Vec<u8> = sent.iter().flat_map(|f| envelope(f)).collect();
        check_stream(name, &stream, usize::MAX, usize::MAX, sent, true);
        check_stream(&format!("{name}: a byte at a time"), &stream, 1, 1, sent, true);
        // Split at every byte — of the 20 KB frame's middle, every 251st.
        let edge = |at: usize| at < 256 || at.is_multiple_of(251) || stream.len() - at < 256;
        for at in (1..stream.len()).filter(|&at| stream.len() < 4096 || edge(at)) {
            check_stream(&format!("{name}: split at {at}"), &stream, at, usize::MAX, sent, true);
        }
        // Forged length prefixes, on every frame of the stream.
        let mut header = 0;
        for (i, frame) in sent.iter().enumerate() {
            for claim in [0u32, 1, frame.len() as u32 - 1, frame.len() as u32 + 1, 1 << 24, 1 << 28, (1 << 28) + 1, u32::MAX] {
                let mut forged = stream.clone();
                forged[header..header + 4].copy_from_slice(&claim.to_le_bytes());
                check_stream(&format!("{name}: length {claim} at {header}"), &forged, usize::MAX, usize::MAX, sent, false);
            }
            // Every bit of the trailer: the frame is refused.
            let trailer = header + 4 + frame.len();
            for bit in 0..32 {
                let mut flipped = stream.clone();
                flipped[trailer + bit / 8] ^= 1 << (bit % 8);
                check_stream(&format!("{name}: crc bit {bit} at {trailer}"), &flipped, usize::MAX, usize::MAX, &sent[..i], true);
            }
            header = trailer + 4;
        }
        let step = stream.len().div_ceil(2048);
        let fields = (0..stream.len()).filter(|at| stream.len() < 4096 || edge(*at));
        mutations(&stream, fields, step, 500 * scale, seed, |what, bytes| {
            check_stream(&format!("{name}: {what}"), bytes, usize::MAX, usize::MAX, sent, false);
        });
    }
}

// ---- landing ---------------------------------------------------------

/// The windows of the landing rows: three ops, larger than the read
/// buffer between them, so that most of each reply is received
/// straight into its windows.
const CAPS: [usize; 3] = [24_000, 8_000, 20_000];

/// Bytes on either side of the windows, which no landing may touch.
const GUARD: usize = 64;
const GUARD_BYTE: u8 = 0xC3;

/// A `ReadChunks` reply frame, enveloped: these lens and absent flags,
/// and a bulk of `bulk` patterned bytes.
fn read_reply(lens: &[u64], missing: &[bool], bulk: usize) -> Vec<u8> {
    let body = ReadChunksResp { lens: lens.to_vec(), missing: missing.to_vec() }.encode();
    let data: Vec<u8> = (0..bulk).map(|i| (i % 251) as u8).collect();
    let mut resp = Response::ok(body).with_bulk(data);
    resp.id = 7;
    envelope(&resp.encode())
}

/// Land `stream`, in the given pieces, in [`CAPS`]'s windows between
/// guard bytes. No panic, no byte outside the windows, no allocation
/// beyond a stream's budget; the landing either yields `want` — what
/// each op landed, and the bulk it landed, op after op — or, with
/// `want` `None`, ends in a typed `Rpc` or `Corruption` error. With
/// `any`, either outcome passes (a mutation may leave the frame as it
/// was).
fn check_landing(row: &str, stream: &[u8], first: usize, then: usize, want: Option<&[Option<usize>]>, any: bool) {
    let total: usize = CAPS.iter().sum();
    let mut buf = vec![GUARD_BYTE; total + 2 * GUARD];
    let pieces = Pieces { data: stream, first, then, gap: true };
    let (out, peak) = measured(|| land_frame(pieces, &CAPS, &mut buf[GUARD..GUARD + total]));
    let out = out.unwrap_or_else(|()| fail(row, format_args!("the landing panicked")));
    if peak > stream_budget(stream.len()) {
        fail(row, format_args!("allocated {peak} bytes landing {}", stream.len()));
    }
    if buf[..GUARD].iter().chain(&buf[GUARD + total..]).any(|&b| b != GUARD_BYTE) {
        fail(row, format_args!("a byte landed outside the windows"));
    }
    match (out, want) {
        (Ok(landed), Some(want)) => {
            if landed != want {
                fail(row, format_args!("landed {landed:?}, not {want:?}"));
            }
            let mut at = 0;
            let mut window = GUARD;
            for (got, cap) in landed.iter().zip(CAPS) {
                let n = got.unwrap_or(0);
                if buf[window..window + n].iter().enumerate().any(|(i, &b)| b != ((at + i) % 251) as u8) {
                    fail(row, format_args!("the window at {window} holds other bytes than were sent"));
                }
                at += n;
                window += cap;
            }
        }
        (Ok(landed), None) if !any => fail(row, format_args!("landed {landed:?} from a reply it must refuse")),
        (Err(GkfsError::Rpc(_) | GkfsError::Corruption(_)), None) => {}
        (Err(e), None) if any => fail(row, format_args!("ended with {e:?}, not Rpc or Corruption")),
        (Ok(_), None) => {}
        (Err(e), _) => fail(row, format_args!("ended with {e:?}")),
    }
}

fn fuzz_landing(seed: u64, scale: usize) {
    // The genuine reply: op 0 whole, op 1 absent, op 2 short.
    let good = read_reply(&[24_000, 0, 13_000], &[false, true, false], 37_000);
    let landed = [Some(24_000), None, Some(13_000)];
    check_landing("landing", &good, usize::MAX, usize::MAX, Some(&landed), false);
    check_landing("landing: a byte at a time", &good, 1, 1, Some(&landed), false);
    for at in (1..good.len()).step_by(997).chain([4, 8, 12, 40, good.len() - 4, good.len() - 1]) {
        check_landing(&format!("landing: split at {at}"), &good, at, usize::MAX, Some(&landed), false);
        check_landing(&format!("landing: {at} at a time"), &good, at, at, Some(&landed), false);
    }
    // Replies that disagree with their batch, each checksummed: refused.
    for (name, lens, missing, bulk) in [
        ("more bulk than the windows hold", [24_000, 0, 24_000], [false, true, false], 48_000),
        ("lens that disagree with the bulk", [24_000, 0, 13_000], [false, true, false], 40_000),
        ("an absent op that carries bytes", [24_000, 100, 13_000], [false, true, false], 37_100),
        ("a count of lens other than the ops'", [24_000, 0, 0], [false, true, false], 24_000),
    ] {
        let lens = if name.starts_with("a count") { &lens[..2] } else { &lens[..] };
        let stream = read_reply(lens, &missing[..lens.len()], bulk);
        check_landing(&format!("landing: {name}"), &stream, usize::MAX, usize::MAX, None, false);
        check_landing(&format!("landing: {name}, 1000 at a time"), &stream, 1000, 1000, None, false);
    }
    // A torn trailer, and a flipped byte anywhere: the read buffer's
    // head, a window's direct receive, the trailer.
    for cut in 1..=4 {
        check_landing(&format!("landing: trailer torn by {cut}"), &good[..good.len() - cut], usize::MAX, usize::MAX, None, false);
    }
    for at in [60, 5_000, 20_000, 30_000, good.len() - 10, good.len() - 2] {
        let mut flipped = good.clone();
        flipped[at] ^= 0x10;
        check_landing(&format!("landing: byte {at} flipped"), &flipped, usize::MAX, usize::MAX, None, false);
        check_landing(&format!("landing: byte {at} flipped, 4096 at a time"), &flipped, 4096, 4096, None, false);
    }
    let fields = (0..64).chain((64..good.len()).step_by(1009));
    mutations(&good, fields, good.len().div_ceil(256), 200 * scale, seed, |what, bytes| {
        check_landing(&format!("landing: {what}"), bytes, usize::MAX, usize::MAX, None, true);
    });
}

// ---- the run ---------------------------------------------------------

/// `scale` multiplies the seeded rows; the exhaustive rows (every
/// truncation, every forged field, every split) are the same at any
/// scale.
fn fuzz(seed: u64, scale: usize) {
    for &opcode in Opcode::ALL {
        fuzz_opcode(opcode, seed, scale);
    }
    fuzz_frames(seed, scale);
    fuzz_streams(seed, scale);
    fuzz_landing(seed, scale);
}

#[test]
fn fuzz_wire() {
    fuzz(0x22_7270_635f_7769, 1);
}

/// `cargo test -p gkfs-rpc --release --test fuzz_wire -- --ignored`
#[test]
#[ignore = "long variant: 100x the seeded rows, run by scripts/ci.sh in release"]
fn fuzz_wire_long() {
    for round in 0..4u64 {
        fuzz(splitmix64(round ^ 0x7769_7265), 25);
    }
}
