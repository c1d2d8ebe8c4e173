//! File-system RPC body encodings — the contract between the GekkoFS
//! client library and the daemon.
//!
//! Each request/response struct encodes into the body of a
//! [`crate::Request`]/[`crate::Response`] frame with the
//! [`gkfs_common::wire`] codec. Bulk data (chunk contents) never
//! appears here — it rides the frame's out-of-band bulk payload as a
//! *borrowed* `Bytes` handle all the way to the transport: in-proc
//! passes it by refcount, TCP hands it to
//! [`gkfs_common::wire::FrameWriter`] as a vectored segment. Keeping
//! chunk bytes out of these encoders is what makes the daemon's
//! zero-copy reply shape (`read_reply_copy_bytes == 0`) possible —
//! an encoder that pulled bulk into its body `Vec` would reintroduce
//! the assembly copy the data plane was rebuilt to remove.

use gkfs_common::wire::{Decoder, Encoder};
use gkfs_common::{GkfsError, Metadata, Result};

/// `Create`: make a metadata entry on its owning daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateReq {
    /// Path.
    pub path: String,
    /// 0 = file, 1 = directory (mirrors `FileKind`'s wire form).
    pub kind: u8,
    /// Mode.
    pub mode: u32,
    /// `O_EXCL` semantics: fail with `Exists` if the entry is present.
    /// Without it, creating an existing entry is a no-op success.
    pub exclusive: bool,
    /// Creation timestamp chosen by the client.
    pub now_ns: u64,
}

impl CreateReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.path)
            .u8(self.kind)
            .u32(self.mode)
            .u8(self.exclusive as u8)
            .u64(self.now_ns);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<CreateReq> {
        let mut d = Decoder::new(buf);
        let r = CreateReq {
            path: d.str()?.to_string(),
            kind: d.u8()?,
            mode: d.u32()?,
            exclusive: d.u8()? != 0,
            now_ns: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// Requests that carry only a path (`Stat`, `RemoveMeta`, `ReadDir`,
/// `RemoveChunks`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathReq {
    /// Path.
    pub path: String,
}

impl PathReq {
    /// Build a request for `path`.
    pub fn new(path: impl Into<String>) -> PathReq {
        PathReq { path: path.into() }
    }

    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.path);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<PathReq> {
        let mut d = Decoder::new(buf);
        let r = PathReq {
            path: d.str()?.to_string(),
        };
        d.finish()?;
        Ok(r)
    }
}

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

impl UpdateSizeReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.path).u64(self.size).u64(self.mtime_ns);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<UpdateSizeReq> {
        let mut d = Decoder::new(buf);
        let r = UpdateSizeReq {
            path: d.str()?.to_string(),
            size: d.u64()?,
            mtime_ns: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

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

impl TruncateMetaReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.path).u64(self.new_size).u64(self.mtime_ns);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<TruncateMetaReq> {
        let mut d = Decoder::new(buf);
        let r = TruncateMetaReq {
            path: d.str()?.to_string(),
            new_size: d.u64()?,
            mtime_ns: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// One directory entry in a `ReadDir` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirentWire {
    /// Name.
    pub name: String,
    /// 0 = file, 1 = directory.
    pub kind: u8,
    /// Size in bytes (0 for directories).
    pub size: u64,
}

/// `ReadDir` response: one page of the direct children this daemon
/// knows about. `next_cursor` is the name to resume after; empty means
/// the scan is complete on this daemon.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReadDirResp {
    /// Entries.
    pub entries: Vec<DirentWire>,
    /// Pass this as [`ReaddirReq::cursor`] to fetch the next page;
    /// empty when this page was the last.
    pub next_cursor: String,
}

impl ReadDirResp {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.next_cursor);
        e.count(self.entries.len());
        for ent in &self.entries {
            e.str(&ent.name).u8(ent.kind).u64(ent.size);
        }
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<ReadDirResp> {
        let mut d = Decoder::new(buf);
        let next_cursor = d.str()?.to_string();
        let n = d.u32()? as usize;
        // Each entry takes ≥ 1 byte, so a count past the remaining
        // payload is a corrupt frame — reject before allocating for it.
        if n > d.remaining() {
            return Err(GkfsError::Corruption("readdir count exceeds frame".into()));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(DirentWire {
                name: d.str()?.to_string(),
                kind: d.u8()?,
                size: d.u64()?,
            });
        }
        d.finish()?;
        Ok(ReadDirResp {
            entries,
            next_cursor,
        })
    }
}

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

impl ChunkBatchReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.path);
        e.count(self.ops.len());
        for op in &self.ops {
            e.u64(op.chunk_id).u64(op.offset).u64(op.len);
        }
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<ChunkBatchReq> {
        let mut d = Decoder::new(buf);
        let path = d.str()?.to_string();
        let n = d.u32()? as usize;
        // Every op is exactly 24 payload bytes; a count the frame
        // cannot hold is corruption, not a request to allocate for.
        if n > d.remaining() / 24 {
            return Err(GkfsError::Corruption("chunk batch count exceeds frame".into()));
        }
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(ChunkOp {
                chunk_id: d.u64()?,
                offset: d.u64()?,
                len: d.u64()?,
            });
        }
        d.finish()?;
        Ok(ChunkBatchReq { path, ops })
    }

    /// Total bytes named by the batch, or `None` when the
    /// wire-controlled lens overflow `u64` (a hostile batch that a
    /// wrapping sum would pass off as small).
    pub fn total_len(&self) -> Option<u64> {
        self.ops.iter().try_fold(0u64, |a, o| a.checked_add(o.len))
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

impl ReadChunksResp {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.count(self.lens.len());
        for l in &self.lens {
            e.u64(*l);
        }
        for m in &self.missing {
            e.u8(*m as u8);
        }
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<ReadChunksResp> {
        let mut d = Decoder::new(buf);
        let n = d.u32()? as usize;
        // Each op is 8 len bytes + 1 missing byte; bound the count by
        // what the frame can actually hold before allocating.
        if n > d.remaining() / 9 {
            return Err(GkfsError::Corruption("read-chunks count exceeds frame".into()));
        }
        let mut lens = Vec::with_capacity(n);
        for _ in 0..n {
            lens.push(d.u64()?);
        }
        let mut missing = Vec::with_capacity(n);
        for _ in 0..n {
            missing.push(d.u8()? != 0);
        }
        d.finish()?;
        Ok(ReadChunksResp { lens, missing })
    }
}

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

impl TruncateChunksReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.path).u64(self.keep_chunk).u64(self.keep_bytes);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<TruncateChunksReq> {
        let mut d = Decoder::new(buf);
        let r = TruncateChunksReq {
            path: d.str()?.to_string(),
            keep_chunk: d.u64()?,
            keep_bytes: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// `RemoveMeta` response: the kind of the removed entry (so the client
/// knows whether to fan out chunk removal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoveMetaResp {
    /// 0 = file, 1 = directory.
    pub kind: u8,
}

impl RemoveMetaResp {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(self.kind);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<RemoveMetaResp> {
        let mut d = Decoder::new(buf);
        let r = RemoveMetaResp { kind: d.u8()? };
        d.finish()?;
        Ok(r)
    }
}

/// `DaemonStats` response: a flat counter snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DaemonStatsResp {
    /// Meta entries.
    pub meta_entries: u64,
    /// Kv puts.
    pub kv_puts: u64,
    /// Kv gets.
    pub kv_gets: u64,
    /// Kv merges.
    pub kv_merges: u64,
    /// Storage write bytes.
    pub storage_write_bytes: u64,
    /// Storage read bytes.
    pub storage_read_bytes: u64,
    /// Memtable flushes completed by the background flush thread.
    pub kv_flushes: u64,
    /// L0→L1 compactions completed by the background thread.
    pub kv_compactions: u64,
    /// Write stalls (full episodes where writers waited on backlog).
    pub kv_stalls: u64,
    /// Total microseconds writers spent stalled.
    pub kv_stall_micros: u64,
    /// Reads served from a frozen (immutable) memtable.
    pub kv_imm_hits: u64,
    /// WAL group commits (shared append/fsync batches).
    pub kv_group_commits: u64,
    /// Records carried by those group commits.
    pub kv_group_commit_records: u64,
    /// Table probes skipped by bloom filters.
    pub kv_bloom_skips: u64,
    /// Chunk tasks run on the I/O pool's workers.
    pub chunk_tasks_spawned: u64,
    /// Chunk tasks run inline on the handler (pool saturated or serial
    /// mode).
    pub chunk_inline_runs: u64,
    /// Open-fd cache hits in the chunk store.
    pub fd_cache_hits: u64,
    /// Open-fd cache misses (each one cost an `open(2)`).
    pub fd_cache_misses: u64,
    /// Batch ops merged into a neighbor's syscall by coalescing.
    pub coalesced_ops: u64,
    /// Bytes copied compacting read replies after short reads (zero on
    /// the scatter/gather happy path).
    pub read_reply_copy_bytes: u64,
    /// Configured copies per chunk/metadata entry (1 = replication off).
    pub replication_factor: u64,
    /// Chunks this daemon believes are missing a replica right now.
    pub under_replicated_chunks: u64,
    /// Re-replication tasks queued but not yet completed.
    pub repl_backlog: u64,
    /// Chunks pushed to a recovery target since startup.
    pub repl_chunks_copied: u64,
    /// Metadata entries pushed to a recovery target since startup.
    pub repl_meta_copied: u64,
    /// Heartbeat probes sent by this daemon.
    pub heartbeats_sent: u64,
    /// Heartbeat probes answered by this daemon.
    pub heartbeats_received: u64,
    /// `BatchMeta` frames group-applied by this daemon.
    pub meta_batches: u64,
    /// Individual metadata ops carried inside those frames.
    pub meta_batch_ops: u64,
    /// Batches that staged at least one mutation and committed a
    /// kvstore `WriteBatch` (one WAL record / fsync each).
    pub meta_group_applies: u64,
    /// This daemon's liveness verdict for each peer
    /// (`gkfs_common::health::Liveness` wire form, self included).
    pub liveness: Vec<u8>,
    /// Request body/bulk bytes this daemon's TCP server copied again
    /// after reading them off the socket (zero while requests are
    /// views of their received frame; zero without a TCP server).
    pub request_copy_bytes: u64,
}

impl DaemonStatsResp {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.meta_entries)
            .u64(self.kv_puts)
            .u64(self.kv_gets)
            .u64(self.kv_merges)
            .u64(self.storage_write_bytes)
            .u64(self.storage_read_bytes)
            .u64(self.kv_flushes)
            .u64(self.kv_compactions)
            .u64(self.kv_stalls)
            .u64(self.kv_stall_micros)
            .u64(self.kv_imm_hits)
            .u64(self.kv_group_commits)
            .u64(self.kv_group_commit_records)
            .u64(self.kv_bloom_skips)
            .u64(self.chunk_tasks_spawned)
            .u64(self.chunk_inline_runs)
            .u64(self.fd_cache_hits)
            .u64(self.fd_cache_misses)
            .u64(self.coalesced_ops)
            .u64(self.read_reply_copy_bytes)
            .u64(self.replication_factor)
            .u64(self.under_replicated_chunks)
            .u64(self.repl_backlog)
            .u64(self.repl_chunks_copied)
            .u64(self.repl_meta_copied)
            .u64(self.heartbeats_sent)
            .u64(self.heartbeats_received)
            .u64(self.meta_batches)
            .u64(self.meta_batch_ops)
            .u64(self.meta_group_applies);
        e.count(self.liveness.len());
        for l in &self.liveness {
            e.u8(*l);
        }
        e.u64(self.request_copy_bytes);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<DaemonStatsResp> {
        let mut d = Decoder::new(buf);
        let r = DaemonStatsResp {
            meta_entries: d.u64()?,
            kv_puts: d.u64()?,
            kv_gets: d.u64()?,
            kv_merges: d.u64()?,
            storage_write_bytes: d.u64()?,
            storage_read_bytes: d.u64()?,
            kv_flushes: d.u64()?,
            kv_compactions: d.u64()?,
            kv_stalls: d.u64()?,
            kv_stall_micros: d.u64()?,
            kv_imm_hits: d.u64()?,
            kv_group_commits: d.u64()?,
            kv_group_commit_records: d.u64()?,
            kv_bloom_skips: d.u64()?,
            chunk_tasks_spawned: d.u64()?,
            chunk_inline_runs: d.u64()?,
            fd_cache_hits: d.u64()?,
            fd_cache_misses: d.u64()?,
            coalesced_ops: d.u64()?,
            read_reply_copy_bytes: d.u64()?,
            replication_factor: d.u64()?,
            under_replicated_chunks: d.u64()?,
            repl_backlog: d.u64()?,
            repl_chunks_copied: d.u64()?,
            repl_meta_copied: d.u64()?,
            heartbeats_sent: d.u64()?,
            heartbeats_received: d.u64()?,
            meta_batches: d.u64()?,
            meta_batch_ops: d.u64()?,
            meta_group_applies: d.u64()?,
            liveness: {
                let n = d.u32()? as usize;
                // One byte per verdict; a count past the remaining
                // payload is a corrupt frame.
                if n > d.remaining() {
                    return Err(GkfsError::Corruption("liveness count exceeds frame".into()));
                }
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(d.u8()?);
                }
                v
            },
            request_copy_bytes: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// `ChunkInventory` response: every path this daemon holds chunks
/// for, with its chunk count (the fsck inventory).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChunkInventoryResp {
    /// Entries.
    pub entries: Vec<(String, u64)>,
}

impl ChunkInventoryResp {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.count(self.entries.len());
        for (path, count) in &self.entries {
            e.str(path).u64(*count);
        }
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<ChunkInventoryResp> {
        let mut d = Decoder::new(buf);
        let n = d.u32()? as usize;
        // Each entry takes ≥ 12 payload bytes (string prefix + u64);
        // reject counts the frame cannot hold before allocating.
        if n > d.remaining() / 12 {
            return Err(GkfsError::Corruption("inventory count exceeds frame".into()));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((d.str()?.to_string(), d.u64()?));
        }
        d.finish()?;
        Ok(ChunkInventoryResp { entries })
    }
}

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

impl HeartbeatReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.from).u64(self.seq);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<HeartbeatReq> {
        let mut d = Decoder::new(buf);
        let r = HeartbeatReq {
            from: d.u64()?,
            seq: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

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

impl HeartbeatResp {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.epoch)
            .u64(self.under_replicated)
            .u64(self.backlog);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<HeartbeatResp> {
        let mut d = Decoder::new(buf);
        let r = HeartbeatResp {
            epoch: d.u64()?,
            under_replicated: d.u64()?,
            backlog: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// `ReplicaMeta`: install a replicated metadata entry on a recovery
/// target. **Idempotent by construction**: create-if-absent plus a
/// max-merge of size/mtime, so the re-replication driver may retry it
/// freely (`GkfsError::is_retryable`) and concurrent pushes from two
/// survivors converge to the same entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMetaReq {
    /// Path.
    pub path: String,
    /// 0 = file, 1 = directory.
    pub kind: u8,
    /// Mode.
    pub mode: u32,
    /// Size to merge (max-wins).
    pub size: u64,
    /// Creation timestamp of the source entry.
    pub ctime_ns: u64,
    /// Mtime to merge (max-wins alongside size).
    pub mtime_ns: u64,
}

impl ReplicaMetaReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.path)
            .u8(self.kind)
            .u32(self.mode)
            .u64(self.size)
            .u64(self.ctime_ns)
            .u64(self.mtime_ns);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<ReplicaMetaReq> {
        let mut d = Decoder::new(buf);
        let r = ReplicaMetaReq {
            path: d.str()?.to_string(),
            kind: d.u8()?,
            mode: d.u32()?,
            size: d.u64()?,
            ctime_ns: d.u64()?,
            mtime_ns: d.u64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// One metadata operation inside a [`BatchMetaReq`].
///
/// The variants mirror the unary requests they replace (`CreateReq`,
/// `PathReq` for stat/unlink, `TruncateMetaReq`) so a batch is exactly
/// a vector of ops the daemon could also have received one frame at a
/// time — same fields, same semantics, one frame and one group-apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    /// Create a metadata entry (file or directory).
    Create {
        /// Path.
        path: String,
        /// 0 = file, 1 = directory.
        kind: u8,
        /// Mode.
        mode: u32,
        /// `O_EXCL` semantics.
        exclusive: bool,
        /// Creation timestamp chosen by the client.
        now_ns: u64,
    },
    /// Fetch a metadata entry.
    Stat {
        /// Path.
        path: String,
    },
    /// Remove a metadata entry. The reply carries the removed entry's
    /// metadata so the client can decide on chunk fan-out without a
    /// separate pre-stat round trip.
    Unlink {
        /// Path.
        path: String,
    },
    /// Truncate/overwrite metadata size (decrease).
    TruncateMeta {
        /// Path.
        path: String,
        /// New size.
        new_size: u64,
        /// Mtime ns.
        mtime_ns: u64,
    },
}

impl MetaOp {
    /// The path this op targets (every variant has exactly one).
    pub fn path(&self) -> &str {
        match self {
            MetaOp::Create { path, .. }
            | MetaOp::Stat { path }
            | MetaOp::Unlink { path }
            | MetaOp::TruncateMeta { path, .. } => path,
        }
    }

    /// Does this op mutate the namespace (vs a pure read)?
    pub fn is_write(&self) -> bool {
        !matches!(self, MetaOp::Stat { .. })
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            MetaOp::Create {
                path,
                kind,
                mode,
                exclusive,
                now_ns,
            } => {
                e.u8(0).str(path).u8(*kind).u32(*mode).u8(*exclusive as u8).u64(*now_ns);
            }
            MetaOp::Stat { path } => {
                e.u8(1).str(path);
            }
            MetaOp::Unlink { path } => {
                e.u8(2).str(path);
            }
            MetaOp::TruncateMeta {
                path,
                new_size,
                mtime_ns,
            } => {
                e.u8(3).str(path).u64(*new_size).u64(*mtime_ns);
            }
        }
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<MetaOp> {
        Ok(match d.u8()? {
            0 => MetaOp::Create {
                path: d.str()?.to_string(),
                kind: d.u8()?,
                mode: d.u32()?,
                exclusive: d.u8()? != 0,
                now_ns: d.u64()?,
            },
            1 => MetaOp::Stat {
                path: d.str()?.to_string(),
            },
            2 => MetaOp::Unlink {
                path: d.str()?.to_string(),
            },
            3 => MetaOp::TruncateMeta {
                path: d.str()?.to_string(),
                new_size: d.u64()?,
                mtime_ns: d.u64()?,
            },
            other => {
                return Err(GkfsError::Corruption(format!("bad meta-op tag {other}")));
            }
        })
    }
}

/// `BatchMeta`: a vector of heterogeneous metadata ops applied by the
/// target daemon as one group (one WAL record, one reply frame).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchMetaReq {
    /// Ops, in client program order.
    pub ops: Vec<MetaOp>,
}

impl BatchMetaReq {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_ops(&self.ops)
    }

    /// Encode a frame carrying `ops` without owning them.
    pub fn encode_ops(ops: &[MetaOp]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.count(ops.len());
        for op in ops {
            op.encode_into(&mut e);
        }
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<BatchMetaReq> {
        let mut d = Decoder::new(buf);
        let n = d.u32()? as usize;
        // Each op takes ≥ 5 payload bytes (tag + string length prefix);
        // reject counts the frame cannot hold before allocating.
        if n > d.remaining() / 5 {
            return Err(GkfsError::Corruption("meta batch count exceeds frame".into()));
        }
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(MetaOp::decode_from(&mut d)?);
        }
        d.finish()?;
        Ok(BatchMetaReq { ops })
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
    /// Result metadata: present for successful `Stat` and `Unlink`
    /// ops (the removed entry's last state), absent otherwise.
    pub meta: Option<Metadata>,
}

impl MetaOpResult {
    /// A plain success with no payload (create/truncate).
    pub fn ok() -> MetaOpResult {
        MetaOpResult {
            code: 0,
            detail: String::new(),
            meta: None,
        }
    }

    /// A success carrying metadata (stat/unlink).
    pub fn ok_meta(meta: Metadata) -> MetaOpResult {
        MetaOpResult {
            code: 0,
            detail: String::new(),
            meta: Some(meta),
        }
    }

    /// A per-op failure.
    pub fn err(e: &GkfsError) -> MetaOpResult {
        MetaOpResult {
            code: e.code(),
            detail: e.detail().to_string(),
            meta: None,
        }
    }

    /// Surface the per-op status as a `Result`.
    pub fn into_result(self) -> Result<Option<Metadata>> {
        if self.code == 0 {
            Ok(self.meta)
        } else {
            Err(GkfsError::from_code(self.code, &self.detail))
        }
    }
}

/// `BatchMeta` response: one [`MetaOpResult`] per request op, in op
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchMetaResp {
    /// Per-op results, parallel to [`BatchMetaReq::ops`].
    pub results: Vec<MetaOpResult>,
}

impl BatchMetaResp {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.count(self.results.len());
        for r in &self.results {
            e.u32(r.code).str(&r.detail);
            match &r.meta {
                Some(m) => {
                    e.u8(1);
                    e.bytes(&m.encode());
                }
                None => {
                    e.u8(0);
                }
            }
        }
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<BatchMetaResp> {
        let mut d = Decoder::new(buf);
        let n = d.u32()? as usize;
        // Each result takes ≥ 9 payload bytes (code + detail length
        // prefix + meta flag); bound the count before allocating.
        if n > d.remaining() / 9 {
            return Err(GkfsError::Corruption("meta batch result count exceeds frame".into()));
        }
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            let code = d.u32()?;
            let detail = d.str()?.to_string();
            let meta = if d.u8()? != 0 {
                Some(Metadata::decode(d.bytes()?)?)
            } else {
                None
            };
            results.push(MetaOpResult { code, detail, meta });
        }
        d.finish()?;
        Ok(BatchMetaResp { results })
    }
}

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

impl ReaddirReq {
    /// A first-page request with the daemon's default page size.
    pub fn new(dir: impl Into<String>) -> ReaddirReq {
        ReaddirReq {
            dir: dir.into(),
            cursor: String::new(),
            max_entries: 0,
        }
    }

    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.dir).str(&self.cursor).u32(self.max_entries);
        e.into_vec()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<ReaddirReq> {
        let mut d = Decoder::new(buf);
        let r = ReaddirReq {
            dir: d.str()?.to_string(),
            cursor: d.str()?.to_string(),
            max_entries: d.u32()?,
        };
        d.finish()?;
        Ok(r)
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

    #[test]
    fn create_roundtrip() {
        let r = CreateReq {
            path: "/a/b".into(),
            kind: 0,
            mode: 0o644,
            exclusive: true,
            now_ns: 12345,
        };
        assert_eq!(CreateReq::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn path_req_roundtrip() {
        let r = PathReq::new("/x/y/z");
        assert_eq!(PathReq::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn size_and_truncate_roundtrip() {
        let r = UpdateSizeReq {
            path: "/f".into(),
            size: 1 << 40,
            mtime_ns: 7,
        };
        assert_eq!(UpdateSizeReq::decode(&r.encode()).unwrap(), r);
        let t = TruncateMetaReq {
            path: "/f".into(),
            new_size: 100,
            mtime_ns: 8,
        };
        assert_eq!(TruncateMetaReq::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn readdir_roundtrip() {
        let r = ReadDirResp {
            entries: vec![
                DirentWire {
                    name: "a".into(),
                    kind: 0,
                    size: 123,
                },
                DirentWire {
                    name: "subdir".into(),
                    kind: 1,
                    size: 0,
                },
            ],
            next_cursor: "subdir".into(),
        };
        assert_eq!(ReadDirResp::decode(&r.encode()).unwrap(), r);
        let empty = ReadDirResp::default();
        assert_eq!(ReadDirResp::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn readdir_req_roundtrip() {
        let r = ReaddirReq::new("/dir");
        assert_eq!(r.cursor, "");
        assert_eq!(r.max_entries, 0);
        assert_eq!(ReaddirReq::decode(&r.encode()).unwrap(), r);
        let page2 = ReaddirReq {
            dir: "/dir".into(),
            cursor: "file-0999".into(),
            max_entries: 1000,
        };
        assert_eq!(ReaddirReq::decode(&page2.encode()).unwrap(), page2);
    }

    #[test]
    fn batch_meta_roundtrip() {
        let r = BatchMetaReq {
            ops: vec![
                MetaOp::Create {
                    path: "/a".into(),
                    kind: 0,
                    mode: 0o644,
                    exclusive: true,
                    now_ns: 7,
                },
                MetaOp::Stat { path: "/a".into() },
                MetaOp::Unlink { path: "/b".into() },
                MetaOp::TruncateMeta {
                    path: "/c".into(),
                    new_size: 512,
                    mtime_ns: 9,
                },
            ],
        };
        assert_eq!(BatchMetaReq::decode(&r.encode()).unwrap(), r);
        assert_eq!(r.ops[0].path(), "/a");
        assert!(r.ops[0].is_write());
        assert!(!r.ops[1].is_write());
        let empty = BatchMetaReq::default();
        assert_eq!(BatchMetaReq::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn batch_meta_resp_roundtrip() {
        let r = BatchMetaResp {
            results: vec![
                MetaOpResult::ok(),
                MetaOpResult::ok_meta(Metadata::new_file(42)),
                MetaOpResult::err(&GkfsError::Exists),
                MetaOpResult::err(&GkfsError::NotFound),
            ],
        };
        assert_eq!(BatchMetaResp::decode(&r.encode()).unwrap(), r);
        assert_eq!(r.results[0].clone().into_result().unwrap(), None);
        assert!(r.results[1].clone().into_result().unwrap().is_some());
        assert!(matches!(
            r.results[2].clone().into_result(),
            Err(GkfsError::Exists)
        ));
        let empty = BatchMetaResp::default();
        assert_eq!(BatchMetaResp::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn batch_meta_decode_bounds_wire_counts() {
        // A hostile count with no payload behind it must be rejected
        // before any allocation (GKL008).
        let mut e = Encoder::new();
        e.u32(u32::MAX);
        assert!(matches!(
            BatchMetaReq::decode(&e.into_vec()),
            Err(GkfsError::Corruption(_))
        ));
        let mut e = Encoder::new();
        e.u32(u32::MAX);
        assert!(matches!(
            BatchMetaResp::decode(&e.into_vec()),
            Err(GkfsError::Corruption(_))
        ));
        // A bad op tag inside an otherwise plausible frame errors too.
        let mut e = Encoder::new();
        e.count(1).u8(9).str("/x");
        assert!(BatchMetaReq::decode(&e.into_vec()).is_err());
    }

    #[test]
    fn chunk_batch_roundtrip_and_total() {
        let r = ChunkBatchReq {
            path: "/data".into(),
            ops: vec![
                ChunkOp {
                    chunk_id: 0,
                    offset: 100,
                    len: 400,
                },
                ChunkOp {
                    chunk_id: 3,
                    offset: 0,
                    len: 512,
                },
            ],
        };
        assert_eq!(ChunkBatchReq::decode(&r.encode()).unwrap(), r);
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

    #[test]
    fn read_chunks_resp_roundtrip() {
        let r = ReadChunksResp {
            lens: vec![512, 0, 77],
            missing: vec![false, true, false],
        };
        assert_eq!(ReadChunksResp::decode(&r.encode()).unwrap(), r);
        let empty = ReadChunksResp { lens: vec![], missing: vec![] };
        assert_eq!(ReadChunksResp::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn chunk_inventory_roundtrip() {
        let r = ChunkInventoryResp {
            entries: vec![("/a".into(), 3), ("/b:x".into(), 1)],
        };
        assert_eq!(ChunkInventoryResp::decode(&r.encode()).unwrap(), r);
        let empty = ChunkInventoryResp::default();
        assert_eq!(ChunkInventoryResp::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn stats_roundtrip() {
        let r = DaemonStatsResp {
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
        };
        assert_eq!(DaemonStatsResp::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn heartbeat_roundtrip() {
        let r = HeartbeatReq { from: 3, seq: 99 };
        assert_eq!(HeartbeatReq::decode(&r.encode()).unwrap(), r);
        let p = HeartbeatResp {
            epoch: 0xDEAD_BEEF,
            under_replicated: 4,
            backlog: 2,
        };
        assert_eq!(HeartbeatResp::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn replica_meta_roundtrip() {
        let r = ReplicaMetaReq {
            path: "/recovered".into(),
            kind: 0,
            mode: 0o644,
            size: 1 << 20,
            ctime_ns: 5,
            mtime_ns: 6,
        };
        assert_eq!(ReplicaMetaReq::decode(&r.encode()).unwrap(), r);
    }
}
