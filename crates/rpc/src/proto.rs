//! The file-system RPC protocol — the contract between the GekkoFS
//! client library and the daemon, declared once.
//!
//! `rpc_table!` holds one row per RPC: opcode number, name, how a
//! byte-stream server runs it ([`ServeClass`]), request type, response
//! type. It generates [`Opcode`], its decoder
//! and one zero-sized [`Rpc`] marker per row (in [`op`]) that both ends
//! are generic over: the daemon registers `serve::<op::Stat>(..)`, the
//! client sends `unary_nb::<op::Stat>(..)`, and neither names an opcode
//! or calls a codec. Every message below is a
//! [`wire_struct!`](gkfs_common::wire_struct) declaration whose fields
//! cross the wire in declaration order through
//! [`gkfs_common::wire::Wire`]; the two hand-written layouts
//! ([`ReadChunksResp`], [`MetaOpResult`]) say why they are irregular.
//!
//! Bulk data (chunk contents) never appears here — it rides the frame's
//! out-of-band bulk payload as a *borrowed* `Bytes` handle all the way
//! to the transport: in-proc passes it by refcount, TCP hands it to
//! [`gkfs_common::wire::FrameWriter`] as a vectored segment. Keeping
//! chunk bytes out of these bodies is what makes the daemon's zero-copy
//! reply shape (`read_reply_copy_bytes == 0`) possible.

use crate::message::{Request, Response};
use crate::transport::SMALL_FRAME;
use bytes::Bytes;
use gkfs_common::types::Dirent;
/// Emitted by the one list of daemon counters in
/// [`gkfs_common::metrics`].
pub use gkfs_common::metrics::DaemonStatsResp;
pub use gkfs_common::wire::Wire;
use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{wire_struct, FileKind, GkfsError, Metadata, Result};
use std::sync::Arc;

/// One row of the RPC table: what travels under an [`Opcode`], in each
/// direction.
pub trait Rpc {
    /// The opcode both ends put in, and dispatch on, the frame header.
    const OP: Opcode;
    /// Request body.
    type Req: Wire;
    /// Response body of an `Ok` reply.
    type Resp: Wire;

    /// The request frame carrying `req` (id assigned at send time).
    fn request(req: &Self::Req) -> Request {
        Request::new(Self::OP, body_of(req))
    }

    /// The typed body of a reply, or the error the daemon answered with.
    fn reply(resp: Response) -> Result<Self::Resp> {
        Self::Resp::decode(&resp.into_result()?.body)
    }
}

/// `v` as a frame body. An empty encoding (every `()`) is the static
/// empty buffer, not a freshly allocated handle to nothing.
pub(crate) fn body_of<T: Wire>(v: &T) -> Bytes {
    let buf = v.encode();
    if buf.is_empty() {
        Bytes::new()
    } else {
        buf.into()
    }
}

/// Where a daemon's TCP server runs a row's handler: on the thread that
/// read the frame off the connection, or on the handler pool. Declared
/// once per row of the table; the one rule that reads it is
/// `transport::Handlers::runs_inline` (a frame that is not small, or not
/// alone in its connection's read buffer, is pooled whatever its class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeClass {
    /// Bounded work — one kvstore point op on in-memory state, and for
    /// `OpenFile` one chunk read of at most [`HEAD_MAX`] bytes behind
    /// it. Runs to completion where its frame was read.
    Point,
    /// A group apply of many point ops under one commit (`BatchMeta`):
    /// a point op on a daemon whose metadata store keeps no log, pooled
    /// on one where the frame's commit may wait on the device.
    Group,
    /// A chunk batch: a point op while the bytes it names — the request's
    /// bulk or the reply's — fit a small frame.
    Chunks,
    /// May block on a device, scan the store, or take arbitrarily long:
    /// always the handler pool.
    Pool,
}

macro_rules! rpc_table {
    ($( $(#[$doc:meta])* $num:literal $name:ident($class:ident): $req:ty => $resp:ty; )*) => {
        /// Registered RPC operation codes — the equivalent of Mercury's
        /// registered RPC names. One flat space shared by all daemons.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u16)]
        pub enum Opcode {
            $( $(#[$doc])* $name = $num, )*
        }

        impl Opcode {
            /// Every opcode, in table order.
            pub const ALL: &'static [Opcode] = &[$( Opcode::$name, )*];

            /// From u16.
            pub fn from_u16(v: u16) -> Result<Opcode> {
                match v {
                    $( $num => Ok(Opcode::$name), )*
                    other => Err(GkfsError::Rpc(format!("unknown opcode {other}"))),
                }
            }

            /// The row's [`ServeClass`].
            pub fn class(self) -> ServeClass {
                match self {
                    $( Opcode::$name => ServeClass::$class, )*
                }
            }
        }

        /// The table's rows as types: one zero-sized [`Rpc`] marker per
        /// opcode, named after it.
        pub mod op {
            use super::*;
            $(
                $(#[$doc])*
                pub struct $name;

                impl Rpc for $name {
                    const OP: Opcode = Opcode::$name;
                    type Req = $req;
                    type Resp = $resp;
                }
            )*
        }
    };
}

rpc_table! {
    /// Liveness / deployment handshake. The daemon echoes the body
    /// untyped; the client sends none. Pooled: nothing hot rides it, and
    /// tests register arbitrarily slow handlers under it.
    0 Ping(Pool): () => ();
    /// Create a metadata entry (file or directory).
    1 Create(Point): CreateReq => ();
    /// Fetch a metadata entry.
    2 Stat(Point): PathReq => Metadata;
    /// Remove a metadata entry of the stated kind; the reply is the
    /// removed entry.
    3 RemoveMeta(Point): RemoveMetaReq => Metadata;
    /// Update (merge) the size field of a metadata entry.
    4 UpdateSize(Point): UpdateSizeReq => ();
    /// Truncate/overwrite metadata size (decrease).
    5 TruncateMeta(Point): TruncateMetaReq => ();
    /// Enumerate direct children of a directory (prefix scan).
    6 ReadDir(Pool): ReaddirReq => ReadDirResp;
    /// Write one batch of chunks owned by the target daemon; the data
    /// is the request's bulk payload.
    7 WriteChunks(Chunks): ChunkBatchReq => ();
    /// Read one batch of chunks owned by the target daemon; the data is
    /// the response's bulk payload.
    8 ReadChunks(Chunks): ChunkBatchReq => ReadChunksResp;
    /// Remove the named chunks of a file from the target daemon — or,
    /// with no ids, whatever it holds for the path. Pooled: the
    /// no-ids form enumerates a directory.
    9 RemoveChunks(Pool): RemoveChunksReq => ();
    /// Truncate chunks beyond a given size on the target daemon.
    10 TruncateChunks(Pool): TruncateChunksReq => ();
    /// Daemon statistics snapshot (tests/benchmarks).
    11 DaemonStats(Pool): () => DaemonStatsResp;
    // 12 stays unassigned: it was `Shutdown`, never registered or sent.
    /// Inventory of paths this daemon holds chunks for (fsck).
    13 ChunkInventory(Pool): () => ChunkInventoryResp;
    /// Lightweight liveness probe carrying the sender's identity and
    /// the receiver's incarnation epoch (failure detection).
    14 Heartbeat(Pool): HeartbeatReq => HeartbeatResp;
    /// Idempotent install of a replicated metadata entry
    /// (re-replication / drain-back; merges rather than overwrites).
    15 ReplicaMeta(Pool): ReplicaMetaReq => ();
    /// Apply a batch of heterogeneous metadata ops (create/stat/
    /// unlink/truncate-meta) as one group with per-op status replies.
    16 BatchMeta(Group): BatchMetaReq => BatchMetaResp;
    /// Write one batch of chunks to the daemon that also owns the file's
    /// metadata, with what the metadata needs riding along: an optional
    /// create decided *before* any byte is written (a refusal leaves
    /// storage untouched) and an optional size candidate merged *after*
    /// the bytes landed. The data is the request's bulk payload.
    17 WriteFile(Chunks): WriteFileReq => ();
    /// Open a file: its metadata entry and, when it is a regular file of
    /// at most `head_max` bytes, the file itself as the response's bulk
    /// payload — chunk 0 lives on the daemon that holds the entry, so
    /// one frame answers what `Stat` and a `ReadChunks` of chunk 0
    /// would. A point op: the daemon clamps `head_max` to [`HEAD_MAX`],
    /// so the read is bounded and the reply a small frame.
    18 OpenFile(Point): OpenFileReq => OpenFileResp;
}

/// Most bytes an [`op::OpenFile`] reply carries, whatever the request
/// asks: a reply bulk of this size is still a small frame
/// ([`SMALL_FRAME`] bounds `ReadChunks`' inline replies the same way),
/// so the daemon serves it on its progress loop and the client's
/// waiter reads it itself.
pub const HEAD_MAX: u64 = SMALL_FRAME as u64;

wire_struct! {
    /// `Create`: make a metadata entry on its owning daemon.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CreateReq {
        /// Path.
        pub path: String,
        /// File or directory.
        pub kind: FileKind,
        /// Mode.
        pub mode: u32,
        /// `O_EXCL` semantics: fail with `Exists` if the entry is present.
        /// Without it, creating an existing entry is a no-op success.
        pub exclusive: bool,
        /// Creation timestamp chosen by the client.
        pub now_ns: u64,
    }
}

wire_struct! {
    /// Requests that carry only a path (`Stat`, and the path-only ops
    /// of a `BatchMeta` frame).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PathReq {
        /// Path.
        pub path: String,
    }
}

impl CreateReq {
    /// The entry this request creates: empty, stamped `now_ns`.
    pub fn metadata(&self) -> Metadata {
        Metadata {
            kind: self.kind,
            size: 0,
            mode: self.mode,
            ctime_ns: self.now_ns,
            mtime_ns: self.now_ns,
        }
    }
}

impl PathReq {
    /// Build a request for `path`.
    pub fn new(path: impl Into<String>) -> PathReq {
        PathReq { path: path.into() }
    }
}

wire_struct! {
    /// `RemoveMeta`: remove `path` if it is a `kind` — `unlink` states
    /// file, `rmdir` directory, and the daemon refuses the other with
    /// `IsDirectory` / `NotDirectory`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RemoveMetaReq {
        /// Path.
        pub path: String,
        /// The kind the caller expects to remove.
        pub kind: FileKind,
    }
}

wire_struct! {
    /// `UpdateSize`: merge a size candidate into a file's metadata
    /// (size = max(size, candidate)); the read-free write path.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct UpdateSizeReq {
        /// Path.
        pub path: String,
        /// Candidate size (write offset + length).
        pub size: u64,
        /// Mtime ns.
        pub mtime_ns: u64,
    }
}

wire_struct! {
    /// `TruncateMeta`: set an exact (possibly smaller) size.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TruncateMetaReq {
        /// Path.
        pub path: String,
        /// New size.
        pub new_size: u64,
        /// Mtime ns.
        pub mtime_ns: u64,
    }
}

wire_struct! {
    /// `ReadDir` response: one page of the direct children this daemon
    /// knows about. `next_cursor` is the name to resume after; empty means
    /// the scan is complete on this daemon.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ReadDirResp {
        /// Pass this as [`ReaddirReq::cursor`] to fetch the next page;
        /// empty when this page was the last.
        pub next_cursor: String,
        /// Entries.
        pub entries: Vec<Dirent>,
    }
}

wire_struct! {
    /// One chunk-local operation inside a read or write batch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ChunkOp {
        /// Chunk id.
        pub chunk_id: u64,
        /// Offset within the chunk.
        pub offset: u64,
        /// Bytes to read/write in this chunk.
        pub len: u64,
    }
}

wire_struct! {
    /// `WriteChunks` / `ReadChunks`: a batch of chunk operations for one
    /// file on one daemon. For writes, the frame's bulk payload carries
    /// the concatenated data in `ops` order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChunkBatchReq {
        /// Path.
        pub path: String,
        /// Ops.
        pub ops: Vec<ChunkOp>,
    }
}

impl ChunkBatchReq {
    /// Whether the encoded batch `body` — or a body the batch leads, a
    /// [`WriteFileReq`] — names at most `limit` bytes,
    /// read off the wire image without building the request (the
    /// server's inline-or-pool rule asks before any handler runs). A
    /// body that does not parse names "too many": its handler answers
    /// the decode error from the pool.
    pub fn names_at_most(body: &[u8], limit: u64) -> bool {
        let mut d = Decoder::new(body);
        let mut walk = || -> Result<bool> {
            d.bytes()?;
            let mut total = 0u64;
            for _ in 0..d.u32()? {
                d.u64()?;
                d.u64()?;
                match total.checked_add(d.u64()?) {
                    Some(t) if t <= limit => total = t,
                    _ => return Ok(false),
                }
            }
            Ok(true)
        };
        walk().unwrap_or(false)
    }

    /// Total bytes named by the batch, or `None` when the
    /// wire-controlled lens overflow `u64` (a hostile batch that a
    /// wrapping sum would pass off as small).
    pub fn total_len(&self) -> Option<u64> {
        self.ops.iter().try_fold(0u64, |a, o| a.checked_add(o.len))
    }
}

wire_struct! {
    /// One size update bound for a file's metadata owner — what a write
    /// of bytes up to `size` at `mtime_ns` has to say. A [`WriteFileReq`]
    /// carries it where `UpdateSize` would have said it in a frame of
    /// its own.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct SizeCandidate {
        /// Candidate size (write offset + length); the daemon keeps the
        /// maximum.
        pub size: u64,
        /// Mtime ns.
        pub mtime_ns: u64,
    }
}

impl SizeCandidate {
    /// Both candidates in one: the larger size, the later mtime (the
    /// fold the daemon's merge operator applies).
    pub fn merge(self, other: SizeCandidate) -> SizeCandidate {
        SizeCandidate { size: self.size.max(other.size), mtime_ns: self.mtime_ns.max(other.mtime_ns) }
    }
}

wire_struct! {
    /// The create a [`WriteFileReq`] carries: what `Create` would have
    /// said of a regular file in a frame of its own (the path is the
    /// batch's).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NewFile {
        /// Mode.
        pub mode: u32,
        /// `O_EXCL` semantics, as in [`CreateReq::exclusive`].
        pub exclusive: bool,
        /// Creation timestamp chosen by the client.
        pub now_ns: u64,
    }
}

wire_struct! {
    /// `WriteFile`: a chunk batch for the daemon that owns the file's
    /// metadata, and the metadata ops that go with it. The daemon runs
    /// them in the one safe order — `create`, stopping at its refusal
    /// with nothing written; the bytes; `size` — so a frame is three
    /// RPCs' work in one round trip. The batch leads the body, so
    /// [`ChunkBatchReq::names_at_most`] reads this body too.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WriteFileReq {
        /// Path and chunk ops (none: the frame carries metadata only).
        pub batch: ChunkBatchReq,
        /// Merge this candidate once the bytes are written.
        pub size: Option<SizeCandidate>,
        /// Create the entry first.
        pub create: Option<NewFile>,
        /// This frame was sent before and its reply lost: an exclusive
        /// create that finds the entry found its own first delivery
        /// (the lost-reply rule of `Create`), so the bytes are written
        /// all the same — that delivery may have died before its write.
        pub resubmitted: bool,
    }
}

wire_struct! {
    /// `OpenFile`: fetch `path`'s entry and, if it is a regular file of
    /// at most `head_max` bytes (0: never), its bytes with it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OpenFileReq {
        /// Path.
        pub path: String,
        /// Largest file the caller wants whole (the daemon clamps it to
        /// [`HEAD_MAX`]).
        pub head_max: u64,
    }
}

wire_struct! {
    /// `OpenFile` response: the entry. The frame's bulk payload is the
    /// file — `meta.size` bytes, holes zero-filled — or empty when the
    /// file was not read (a directory, an empty file, one over
    /// `head_max`) or not vouched for.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OpenFileResp {
        /// The entry, as `Stat` answers it.
        pub meta: Metadata,
        /// `ReadChunks`' *missing* rule, negated: `false` means the read
        /// came back short from a chunk this daemon does not hold — a
        /// replica that missed the write (rejoined empty) — so no bytes
        /// are vouched for and the caller reads down the replica chain.
        pub held: bool,
    }
}

/// `ReadChunks` response body: per-op byte counts actually read; the
/// data itself is in the frame's bulk payload, concatenated in op
/// order (short reads shrink their segment).
///
/// `missing[i]` distinguishes the two reasons an op can come back
/// short: `false` means the daemon *holds* the op's chunk and the
/// short length is authoritative (a hole, or EOF inside the chunk);
/// `true` means the daemon has **no data at all** for that chunk — a
/// replica that missed the write (e.g. rejoined empty, drain-back
/// pending), which the client must treat as "ask the next chain
/// member", never as zeros.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadChunksResp {
    /// Lens.
    pub lens: Vec<u64>,
    /// Per-op: `true` iff the daemon holds no chunk backing this op.
    /// Same length as `lens`.
    pub missing: Vec<bool>,
}

/// Irregular — columnar: one count, then every len, then every flag.
/// The flags were appended to a reply that was `Vec<u64>` alone, and
/// sharing the count keeps the two columns the same length by
/// construction instead of by a check at every reader.
impl Wire for ReadChunksResp {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Encoder) {
        self.lens.put(e);
        for m in &self.missing {
            m.put(e);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<ReadChunksResp> {
        let lens = Vec::<u64>::get(d)?;
        let missing = lens.iter().map(|_| bool::get(d)).collect::<Result<_>>()?;
        Ok(ReadChunksResp { lens, missing })
    }
}

wire_struct! {
    /// `RemoveChunks`: drop chunks of an unlinked file. The client knows
    /// the removed entry's size, so it names the chunk ids this daemon
    /// can hold and the daemon unlinks exactly those, absent ones
    /// included (holes). An empty list asks for whatever the daemon
    /// holds — the size is unknown (a lost unlink reply, an `fsck`
    /// orphan) or the ids would not fit a small frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RemoveChunksReq {
        /// Path.
        pub path: String,
        /// Chunk ids to remove; empty = every chunk held.
        pub ids: Vec<u64>,
    }
}

wire_struct! {
    /// `TruncateChunks`: drop chunk data beyond a boundary.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TruncateChunksReq {
        /// Path.
        pub path: String,
        /// Keep chunk.
        pub keep_chunk: u64,
        /// Keep bytes.
        pub keep_bytes: u64,
    }
}

wire_struct! {
    /// `ChunkInventory` response: every path this daemon holds chunks
    /// for, with its chunk count (the fsck inventory).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ChunkInventoryResp {
        /// Entries.
        pub entries: Vec<(String, u64)>,
    }
}

wire_struct! {
    /// `Heartbeat`: a liveness probe. The sender identifies itself so the
    /// receiver's failure detector learns from *incoming* traffic too
    /// (piggybacked detection); the response carries the receiver's
    /// incarnation epoch so a fast restart is detectable as a rejoin.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HeartbeatReq {
        /// Sender's node id (`u64::MAX` for clients, which have none).
        pub from: u64,
        /// Sender's probe sequence number (diagnostics).
        pub seq: u64,
    }
}

wire_struct! {
    /// `Heartbeat` response: the receiver's incarnation epoch plus two
    /// recovery gauges, so every probe doubles as a progress report.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HeartbeatResp {
        /// Random incarnation id drawn at daemon spawn; a changed epoch
        /// means the process restarted and lost volatile state.
        pub epoch: u64,
        /// Chunks the receiver believes are under-replicated.
        pub under_replicated: u64,
        /// Re-replication tasks still queued on the receiver.
        pub backlog: u64,
    }
}

wire_struct! {
    /// `ReplicaMeta`: install a replicated metadata entry on a recovery
    /// target. **Idempotent by construction**: create-if-absent plus a
    /// max-merge of size/mtime, so the re-replication driver may retry it
    /// freely (`GkfsError::is_retryable`) and concurrent pushes from two
    /// survivors converge to the same entry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReplicaMetaReq {
        /// Path.
        pub path: String,
        /// File or directory.
        pub kind: FileKind,
        /// Mode.
        pub mode: u32,
        /// Size to merge (max-wins).
        pub size: u64,
        /// Creation timestamp of the source entry.
        pub ctime_ns: u64,
        /// Mtime to merge (max-wins alongside size).
        pub mtime_ns: u64,
    }
}

/// One metadata operation inside a [`BatchMetaReq`]: a tag byte, then
/// the unary request it stands for — so a batch is exactly a vector of
/// ops the daemon could also have received one frame at a time, same
/// fields, same semantics, one frame and one group-apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    /// Create a metadata entry (file or directory).
    Create(CreateReq),
    /// Fetch a metadata entry.
    Stat(PathReq),
    /// Remove a file's metadata entry (`IsDirectory` on a directory).
    /// The reply carries the removed entry's metadata so the client can
    /// decide on chunk fan-out without a separate pre-stat round trip.
    Unlink(PathReq),
    /// Remove a directory's metadata entry (`NotDirectory` on a file).
    /// Emptiness is the client's cross-daemon check, not this op's.
    Rmdir(PathReq),
    /// Truncate/overwrite metadata size (decrease).
    TruncateMeta(TruncateMetaReq),
}

impl MetaOp {
    /// The path this op targets (every variant has exactly one).
    pub fn path(&self) -> &str {
        match self {
            MetaOp::Create(r) => &r.path,
            MetaOp::Stat(r) | MetaOp::Unlink(r) | MetaOp::Rmdir(r) => &r.path,
            MetaOp::TruncateMeta(r) => &r.path,
        }
    }

    /// Does this op mutate the namespace (vs a pure read)?
    pub fn is_write(&self) -> bool {
        !matches!(self, MetaOp::Stat(_))
    }
}

impl Wire for MetaOp {
    const MIN_LEN: usize = 1 + PathReq::MIN_LEN;
    fn put(&self, e: &mut Encoder) {
        match self {
            MetaOp::Create(r) => e.u8(0).put(r),
            MetaOp::Stat(r) => e.u8(1).put(r),
            MetaOp::Unlink(r) => e.u8(2).put(r),
            MetaOp::TruncateMeta(r) => e.u8(3).put(r),
            MetaOp::Rmdir(r) => e.u8(4).put(r),
        };
    }
    fn get(d: &mut Decoder<'_>) -> Result<MetaOp> {
        Ok(match d.u8()? {
            0 => MetaOp::Create(Wire::get(d)?),
            1 => MetaOp::Stat(Wire::get(d)?),
            2 => MetaOp::Unlink(Wire::get(d)?),
            3 => MetaOp::TruncateMeta(Wire::get(d)?),
            4 => MetaOp::Rmdir(Wire::get(d)?),
            other => return Err(GkfsError::Corruption(format!("bad meta-op tag {other}"))),
        })
    }
}

wire_struct! {
    /// `BatchMeta`: a vector of heterogeneous metadata ops applied by the
    /// target daemon as one group (one WAL record, one reply frame).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct BatchMetaReq {
        /// Ops, in client program order; shared, not copied, between the
        /// replicas of one fan-out and the reply decoder.
        pub ops: Arc<[MetaOp]>,
    }
}

/// The outcome of one op inside a [`BatchMetaResp`]. App-level errors
/// (`Exists`, `NotFound`, …) ride here per-op instead of failing the
/// whole frame, so one bad path cannot poison its batchmates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaOpResult {
    /// [`GkfsError`] wire code; `0` is success.
    pub code: u32,
    /// Error detail (empty on success).
    pub detail: String,
    /// Result metadata: present for successful `Stat`, `Unlink` and
    /// `Rmdir` ops (the removed entry's last state), absent otherwise.
    pub meta: Option<Metadata>,
}

impl MetaOpResult {
    /// Surface the per-op status as a `Result`.
    pub fn into_result(self) -> MetaVerdict {
        if self.code == 0 {
            Ok(self.meta)
        } else {
            Err(GkfsError::from_code(self.code, &self.detail))
        }
    }
}

/// What a [`MetaOp`] answers, on either end of the wire: the entry for
/// a stat or a remove (as it was when removed), nothing for a create or
/// a truncate, or the op's own refusal.
pub type MetaVerdict = Result<Option<Metadata>>;

impl From<MetaVerdict> for MetaOpResult {
    fn from(verdict: MetaVerdict) -> MetaOpResult {
        match verdict {
            Ok(meta) => MetaOpResult { code: 0, detail: String::new(), meta },
            Err(e) => MetaOpResult { code: e.code(), detail: e.detail().to_string(), meta: None },
        }
    }
}

/// Irregular — `meta` is a presence byte and then the record
/// *length-prefixed*, not inline as `Option<Metadata>` would put it:
/// the bytes are the KV store's value verbatim, framed the way the
/// store frames it, so the record can change size without moving the
/// results behind it. The record is encoded straight into the reply.
impl Wire for MetaOpResult {
    const MIN_LEN: usize = u32::MIN_LEN + String::MIN_LEN + bool::MIN_LEN;
    fn put(&self, e: &mut Encoder) {
        e.put(&self.code).put(&self.detail).put(&self.meta.is_some());
        if let Some(m) = &self.meta {
            e.put_prefixed(m);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<MetaOpResult> {
        Ok(MetaOpResult {
            code: Wire::get(d)?,
            detail: Wire::get(d)?,
            meta: if bool::get(d)? { Some(Metadata::decode(d.bytes()?)?) } else { None },
        })
    }
}

wire_struct! {
    /// `BatchMeta` response: one [`MetaOpResult`] per request op, in op
    /// order.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct BatchMetaResp {
        /// Per-op results, parallel to [`BatchMetaReq::ops`].
        pub results: Vec<MetaOpResult>,
    }
}

wire_struct! {
    /// `ReadDir`: enumerate direct children of `dir`, one page at a time.
    ///
    /// A daemon holding millions of entries for one directory must not
    /// materialize them all into a single reply frame (the same
    /// wire-sized-allocation class GKL008 polices on the decode side), so
    /// the request carries a resumption cursor: return at most
    /// `max_entries` children whose names sort strictly after `cursor`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReaddirReq {
        /// Directory path.
        pub dir: String,
        /// Resume strictly after this child name; empty = from the start.
        pub cursor: String,
        /// Cap on entries in one reply; `0` = daemon default page size.
        pub max_entries: u32,
    }
}

impl ReaddirReq {
    /// A first-page request with the daemon's default page size.
    pub fn new(dir: impl Into<String>) -> ReaddirReq {
        ReaddirReq {
            dir: dir.into(),
            cursor: String::new(),
            max_entries: 0,
        }
    }
}

/// Validate that a bulk payload length matches what a write batch
/// declares (defensive check at the daemon boundary).
pub fn check_bulk_len(req: &ChunkBatchReq, bulk_len: usize) -> Result<()> {
    let Some(expect) = req.total_len() else {
        return Err(GkfsError::InvalidArgument(
            "batch op lens overflow u64".into(),
        ));
    };
    if bulk_len as u64 != expect {
        return Err(GkfsError::InvalidArgument(format!(
            "bulk length {bulk_len} does not match batch total {expect}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    #[test]
    fn names_at_most_reads_the_total_off_the_encoded_batch() {
        let batch = |lens: &[u64]| ChunkBatchReq {
            path: "/some/file".into(),
            ops: lens
                .iter()
                .map(|&len| ChunkOp { chunk_id: 7, offset: 3, len })
                .collect(),
        };
        for lens in [&[][..], &[0], &[8192], &[4096, 4096, 1], &[u64::MAX, 2]] {
            let req = batch(lens);
            let body = req.encode();
            for limit in [0u64, 8191, 8192, 8193, u64::MAX] {
                let want = req.total_len().is_some_and(|t| t <= limit);
                assert_eq!(ChunkBatchReq::names_at_most(&body, limit), want, "{lens:?} <= {limit}");
            }
            // A body cut short names "too many", whatever the limit.
            assert!(!ChunkBatchReq::names_at_most(&body[..body.len() - 1], u64::MAX));
            // The batch leads a `WriteFile` body: what rides behind it
            // changes nothing the peek reads.
            let body = WriteFileReq { batch: req.clone(), ..write_file() }.encode();
            for limit in [0u64, 8191, 8192, 8193, u64::MAX] {
                let want = req.total_len().is_some_and(|t| t <= limit);
                assert_eq!(ChunkBatchReq::names_at_most(&body, limit), want, "file {lens:?} <= {limit}");
            }
        }
    }

    /// What every encodable value owes its decoder: it round-trips, no
    /// strict prefix of it decodes (and none panics), and a trailing
    /// byte is corruption.
    fn check_value<T: Wire + PartialEq + Debug>(v: &T) {
        let buf = v.encode();
        assert_eq!(&T::decode(&buf).unwrap(), v);
        assert!(buf.len() >= T::MIN_LEN, "{v:?} is shorter than its MIN_LEN");
        for cut in 0..buf.len() {
            let prefix = T::decode(&buf[..cut]);
            assert!(prefix.is_err(), "{v:?} decoded from {cut} of {} bytes", buf.len());
        }
        let mut long = buf;
        long.push(0);
        assert!(T::decode(&long).is_err(), "{v:?} accepted a trailing byte");
    }

    /// One table row: every sample request and response passes
    /// [`check_value`]. Records the row so the caller can prove it
    /// visited the whole table.
    fn check_row<R: Rpc>(seen: &mut Vec<Opcode>, reqs: &[R::Req], resps: &[R::Resp])
    where
        R::Req: PartialEq + Debug,
        R::Resp: PartialEq + Debug,
    {
        assert!(!reqs.is_empty() && !resps.is_empty(), "{:?} has no samples", R::OP);
        reqs.iter().for_each(check_value);
        resps.iter().for_each(check_value);
        seen.push(R::OP);
    }

    /// `empty` holds an empty collection whose count sits at byte
    /// `count_at` of its encoding. Claiming `u32::MAX` elements there,
    /// with nothing behind the count, must be `Corruption` — returned,
    /// not discovered by a multi-gigabyte `with_capacity` (GKL008).
    fn check_hostile_count<T: Wire + Debug>(empty: &T, count_at: usize) {
        let mut buf = empty.encode();
        assert_eq!(buf[count_at..count_at + 4], [0; 4], "{empty:?}: no empty count at {count_at}");
        buf.truncate(count_at);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(T::decode(&buf), Err(GkfsError::Corruption(_))), "{empty:?}");
    }

    /// `v` carries `FileKind::Directory` at byte `kind_at` of its
    /// encoding; any byte that is not a kind fails the whole decode.
    fn check_bad_kind<T: Wire + Debug>(v: &T, kind_at: usize) {
        let mut buf = v.encode();
        assert_eq!(buf[kind_at], 1, "{v:?}: no directory kind at {kind_at}");
        buf[kind_at] = 7;
        assert!(matches!(T::decode(&buf), Err(GkfsError::Corruption(_))), "{v:?}");
    }

    fn create_req() -> CreateReq {
        CreateReq {
            path: "/a/b".into(),
            kind: FileKind::Directory,
            mode: 0o755,
            exclusive: true,
            now_ns: 12345,
        }
    }

    fn chunk_batch() -> ChunkBatchReq {
        ChunkBatchReq {
            path: "/data".into(),
            ops: vec![
                ChunkOp { chunk_id: 0, offset: 100, len: 400 },
                ChunkOp { chunk_id: 3, offset: 0, len: 512 },
            ],
        }
    }

    fn empty_batch() -> ChunkBatchReq {
        ChunkBatchReq { path: "/d".into(), ops: vec![] }
    }

    /// Every rider aboard.
    fn write_file() -> WriteFileReq {
        WriteFileReq {
            batch: chunk_batch(),
            size: Some(SizeCandidate { size: 912, mtime_ns: 7 }),
            create: Some(NewFile { mode: 0o644, exclusive: true, now_ns: 6 }),
            resubmitted: true,
        }
    }

    fn readdir_resp() -> ReadDirResp {
        ReadDirResp {
            next_cursor: "subdir".into(),
            entries: vec![
                Dirent { name: "a".into(), kind: FileKind::File, size: 123 },
                Dirent { name: "subdir".into(), kind: FileKind::Directory, size: 0 },
            ],
        }
    }

    fn batch_meta_req() -> BatchMetaReq {
        BatchMetaReq {
            ops: vec![
                MetaOp::Create(create_req()),
                MetaOp::Stat(PathReq::new("/a")),
                MetaOp::Unlink(PathReq::new("/b")),
                MetaOp::TruncateMeta(TruncateMetaReq {
                    path: "/c".into(),
                    new_size: 512,
                    mtime_ns: 9,
                }),
                MetaOp::Rmdir(PathReq::new("/d")),
            ]
            .into(),
        }
    }

    fn batch_meta_resp() -> BatchMetaResp {
        BatchMetaResp {
            results: vec![
                Ok(None).into(),
                Ok(Some(Metadata::new_dir(42))).into(),
                Err(GkfsError::Exists).into(),
                Err(GkfsError::NotFound).into(),
            ],
        }
    }

    fn stats_resp() -> DaemonStatsResp {
        DaemonStatsResp {
            meta_entries: 1,
            kv_stall_micros: 10,
            replication_factor: 2,
            meta_group_applies: 29,
            liveness: vec![0, 2, 1],
            request_copy_bytes: 30,
            ..DaemonStatsResp::default()
        }
    }

    #[test]
    fn every_row_of_the_table_roundtrips_and_rejects_malformed_frames() {
        let mut seen = Vec::new();
        let paths = [PathReq::new("/x/y/z"), PathReq::new("")];
        check_row::<op::Ping>(&mut seen, &[()], &[()]);
        check_row::<op::Create>(
            &mut seen,
            &[create_req(), CreateReq { kind: FileKind::File, exclusive: false, ..create_req() }],
            &[()],
        );
        check_row::<op::Stat>(&mut seen, &paths, &[Metadata::new_file(7), Metadata::new_dir(0)]);
        check_row::<op::RemoveMeta>(
            &mut seen,
            &[
                RemoveMetaReq { path: "/x/y/z".into(), kind: FileKind::File },
                RemoveMetaReq { path: String::new(), kind: FileKind::Directory },
            ],
            &[Metadata::new_file(7), Metadata::new_dir(0)],
        );
        check_row::<op::UpdateSize>(
            &mut seen,
            &[UpdateSizeReq { path: "/f".into(), size: 1 << 40, mtime_ns: 7 }],
            &[()],
        );
        check_row::<op::TruncateMeta>(
            &mut seen,
            &[TruncateMetaReq { path: "/f".into(), new_size: 100, mtime_ns: 8 }],
            &[()],
        );
        check_row::<op::ReadDir>(
            &mut seen,
            &[
                ReaddirReq::new("/dir"),
                ReaddirReq { dir: "/dir".into(), cursor: "file-0999".into(), max_entries: 1000 },
            ],
            &[readdir_resp(), ReadDirResp::default()],
        );
        check_row::<op::WriteChunks>(&mut seen, &[chunk_batch(), empty_batch()], &[()]);
        check_row::<op::ReadChunks>(
            &mut seen,
            &[chunk_batch(), empty_batch()],
            &[
                ReadChunksResp { lens: vec![512, 0, 77], missing: vec![false, true, false] },
                ReadChunksResp { lens: vec![], missing: vec![] },
            ],
        );
        check_row::<op::RemoveChunks>(
            &mut seen,
            &[
                RemoveChunksReq { path: "/x/y/z".into(), ids: vec![0, 7, u64::MAX] },
                RemoveChunksReq { path: String::new(), ids: vec![] },
            ],
            &[()],
        );
        check_row::<op::TruncateChunks>(
            &mut seen,
            &[TruncateChunksReq { path: "/t".into(), keep_chunk: 9, keep_bytes: 4095 }],
            &[()],
        );
        check_row::<op::DaemonStats>(&mut seen, &[()], &[stats_resp(), DaemonStatsResp::default()]);
        check_row::<op::ChunkInventory>(
            &mut seen,
            &[()],
            &[
                ChunkInventoryResp { entries: vec![("/a".into(), 3), ("/b:x".into(), 1)] },
                ChunkInventoryResp::default(),
            ],
        );
        check_row::<op::Heartbeat>(
            &mut seen,
            &[HeartbeatReq { from: 3, seq: 99 }],
            &[HeartbeatResp { epoch: 0xDEAD_BEEF, under_replicated: 4, backlog: 2 }],
        );
        check_row::<op::ReplicaMeta>(
            &mut seen,
            &[ReplicaMetaReq {
                path: "/recovered".into(),
                kind: FileKind::File,
                mode: 0o644,
                size: 1 << 20,
                ctime_ns: 5,
                mtime_ns: 6,
            }],
            &[()],
        );
        check_row::<op::BatchMeta>(
            &mut seen,
            &[batch_meta_req(), BatchMetaReq::default()],
            &[batch_meta_resp(), BatchMetaResp::default()],
        );
        check_row::<op::WriteFile>(
            &mut seen,
            &[
                write_file(),
                WriteFileReq { create: None, resubmitted: false, ..write_file() },
                WriteFileReq { batch: empty_batch(), size: None, create: None, resubmitted: false },
            ],
            &[()],
        );
        check_row::<op::OpenFile>(
            &mut seen,
            &[
                OpenFileReq { path: "/x/y/z".into(), head_max: 0 },
                OpenFileReq { path: String::new(), head_max: u64::MAX },
            ],
            &[
                OpenFileResp { meta: Metadata::new_file(7), held: true },
                OpenFileResp { meta: Metadata::new_dir(0), held: false },
            ],
        );
        assert_eq!(seen, Opcode::ALL, "a table row has no samples here");
    }

    #[test]
    fn every_wire_count_is_bounded_by_the_frame() {
        check_hostile_count(&ReadDirResp::default(), 4);
        check_hostile_count(&ChunkBatchReq { path: String::new(), ops: vec![] }, 4);
        check_hostile_count(
            &WriteFileReq { batch: empty_batch(), size: None, create: None, resubmitted: false },
            4 + 2,
        );
        check_hostile_count(&ReadChunksResp { lens: vec![], missing: vec![] }, 0);
        check_hostile_count(&RemoveChunksReq { path: String::new(), ids: vec![] }, 4);
        check_hostile_count(&DaemonStatsResp::default(), DaemonStatsResp::MIN_LEN - 4);
        check_hostile_count(&ChunkInventoryResp::default(), 0);
        check_hostile_count(&BatchMetaReq::default(), 0);
        check_hostile_count(&BatchMetaResp::default(), 0);
        // A bad op tag inside an otherwise plausible frame errors too.
        let mut e = Encoder::new();
        e.count(1).u8(9).str("/x");
        assert!(BatchMetaReq::decode(e.as_slice()).is_err());
    }

    #[test]
    fn a_bad_kind_byte_fails_every_message_that_carries_one() {
        check_bad_kind(&create_req(), 4 + 4);
        check_bad_kind(&RemoveMetaReq { path: "/r".into(), kind: FileKind::Directory }, 4 + 2);
        check_bad_kind(
            &ReplicaMetaReq {
                path: "/r".into(),
                kind: FileKind::Directory,
                mode: 0,
                size: 0,
                ctime_ns: 0,
                mtime_ns: 0,
            },
            4 + 2,
        );
        check_bad_kind(&Metadata::new_dir(1), 0);
        // Second entry of the page: cursor, count, first entry, name.
        check_bad_kind(&readdir_resp(), (4 + 6) + 4 + (4 + 1 + 1 + 8) + (4 + 6));
        // First op: count, tag, path.
        check_bad_kind(&batch_meta_req(), 4 + 1 + (4 + 4));
        // Second result: count, first result, code, detail, flag, record length.
        check_bad_kind(&batch_meta_resp(), 4 + 9 + 4 + 4 + 1 + 4);
    }

    #[test]
    fn all_opcodes_roundtrip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_u16(op as u16).unwrap(), op);
        }
        assert_eq!(Opcode::ALL.len(), 18);
        assert!(Opcode::from_u16(12).is_err(), "12 was Shutdown and stays unassigned");
        assert!(Opcode::from_u16(19).is_err());
        assert!(Opcode::from_u16(999).is_err());
    }

    #[test]
    fn batch_helpers() {
        let r = batch_meta_req();
        assert_eq!(r.ops[0].path(), "/a/b");
        assert!(r.ops[0].is_write());
        assert!(!r.ops[1].is_write());
        let r = batch_meta_resp();
        assert_eq!(r.results[0].clone().into_result().unwrap(), None);
        assert!(r.results[1].clone().into_result().unwrap().is_some());
        assert!(matches!(
            r.results[2].clone().into_result(),
            Err(GkfsError::Exists)
        ));
    }

    #[test]
    fn chunk_batch_total_and_bulk_check() {
        let r = chunk_batch();
        assert_eq!(r.total_len(), Some(912));
        assert!(check_bulk_len(&r, 912).is_ok());
        assert!(check_bulk_len(&r, 911).is_err());
        let wrap = ChunkBatchReq {
            path: "/w".into(),
            ops: vec![
                ChunkOp { chunk_id: 0, offset: 0, len: u64::MAX },
                ChunkOp { chunk_id: 1, offset: 0, len: 2 },
            ],
        };
        assert_eq!(wrap.total_len(), None, "overflow must not wrap");
        assert!(check_bulk_len(&wrap, 1).is_err());
    }
}
