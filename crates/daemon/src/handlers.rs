//! RPC handlers — the daemon's service surface.
//!
//! One typed closure per row of the RPC table
//! ([`gkfs_rpc::proto`]), each a thin translation between the row's
//! request/response types and the two backends (metadata, chunk
//! storage); [`HandlerRegistry::serve`] does the decoding, encoding and
//! error-to-response mapping around them. Handlers run concurrently on
//! the daemon's pool; all synchronization lives in the backends.

use crate::engine::read_batch;
use crate::metadata::MetadataBackend;
use gkfs_common::{FileKind, GkfsError, Metadata, Result};
use gkfs_rpc::proto::*;
use gkfs_rpc::{HandlerRegistry, Opcode, Request, Response};
use gkfs_storage::{BatchOp, ChunkStorage};
use std::sync::Arc;

/// Shared state captured by every handler closure.
pub struct Backends {
    /// Meta.
    pub meta: MetadataBackend,
    /// Data.
    pub data: Arc<dyn ChunkStorage>,
    /// Replication manager, installed by `Daemon::join_cluster` after
    /// the registry is built (empty on unreplicated daemons).
    pub repl: std::sync::OnceLock<Arc<crate::replication::ReplicationManager>>,
    /// Counters of the daemon's TCP server, installed by
    /// `Daemon::serve_tcp` (empty on in-process-only daemons).
    pub tcp_stats: std::sync::OnceLock<Arc<gkfs_rpc::RpcStats>>,
}

/// Wire ops → batch ops with the running-sum buffer layout the engine
/// and backends rely on: op *i*'s bytes occupy the `bulk`/reply window
/// starting at the sum of all earlier ops' lens. The lens are
/// wire-controlled, so the sum is checked: a batch whose lens overflow
/// `u64` is rejected here instead of panicking (or wrapping) its way
/// into the engine.
fn layout_batch(ops: &[ChunkOp]) -> Result<Vec<BatchOp>> {
    let mut cursor = 0u64;
    ops.iter()
        .map(|op| {
            let b = BatchOp {
                chunk_id: op.chunk_id,
                offset: op.offset,
                len: op.len,
                buf_offset: cursor,
            };
            cursor = cursor.checked_add(op.len).ok_or_else(|| {
                GkfsError::InvalidArgument("batch op lens overflow u64".into())
            })?;
            Ok(b)
        })
        .collect()
}

/// The entry a successful stat or remove verdict carries.
fn entry(verdict: MetaVerdict) -> Result<Metadata> {
    verdict?.ok_or_else(|| GkfsError::Corruption("verdict carries no entry".into()))
}

impl Backends {
    /// The owner's half of an unlink: chunk 0 of a file is placed with
    /// its metadata, so the daemon that just removed an entry holding
    /// bytes drops its own chunk 0 — after the verdict, outside the KV
    /// store's writer lock — and the client names only the chunks
    /// placed elsewhere. A zero-byte file touches no storage.
    fn drop_chunk0(&self, op: &MetaOp, verdict: &MetaVerdict) -> Result<()> {
        match (op, verdict) {
            (MetaOp::Unlink(r), Ok(Some(removed))) if removed.size > 0 => {
                self.data.remove_chunks(&r.path, &[0])
            }
            _ => Ok(()),
        }
    }
}

/// Build the full handler registry over the given backends.
pub fn build_registry(backends: Arc<Backends>) -> HandlerRegistry {
    let mut reg = HandlerRegistry::new();
    reg.logged_store(backends.meta.logged());

    reg.register_fn(Opcode::Ping, |req: Request| {
        Response::ok(req.body) // echo: used for deployment handshakes
    });

    // The four unary metadata rows are frames of one through the same
    // interpreter that serves `BatchMeta`.
    let b = backends.clone();
    reg.serve::<op::Create>(move |r| b.meta.apply_one(MetaOp::Create(r)).map(drop));

    let b = backends.clone();
    reg.serve::<op::Stat>(move |r| entry(b.meta.apply_one(MetaOp::Stat(r))));

    let b = backends.clone();
    reg.serve::<op::RemoveMeta>(move |r| {
        let path = PathReq { path: r.path };
        let op = match r.kind {
            FileKind::File => MetaOp::Unlink(path),
            FileKind::Directory => MetaOp::Rmdir(path),
        };
        let verdict = b.meta.apply_one(op.clone());
        b.drop_chunk0(&op, &verdict)?;
        entry(verdict)
    });

    let b = backends.clone();
    reg.serve::<op::TruncateMeta>(move |r| b.meta.apply_one(MetaOp::TruncateMeta(r)).map(drop));

    let b = backends.clone();
    reg.serve::<op::UpdateSize>(move |r| b.meta.update_size(&r.path, r.size, r.mtime_ns));

    let b = backends.clone();
    reg.serve::<op::ReadDir>(move |r| {
        let (entries, next_cursor) =
            b.meta.readdir_page(&r.dir, &r.cursor, r.max_entries as usize)?;
        Ok(ReadDirResp { next_cursor, entries })
    });

    let b = backends.clone();
    reg.serve::<op::BatchMeta>(move |r| {
        let verdicts = b.meta.apply(&r.ops)?;
        for (op, verdict) in r.ops.iter().zip(&verdicts) {
            b.drop_chunk0(op, verdict)?;
        }
        Ok(BatchMetaResp { results: verdicts.into_iter().map(Into::into).collect() })
    });

    let b = backends.clone();
    reg.serve_bulk::<op::WriteChunks>(move |r, bulk, _| {
        check_bulk_len(&r, bulk.len())?;
        let ops = layout_batch(&r.ops)?;
        b.data.write_batch(&r.path, &ops, bulk)
    });

    // The three existing calls in the only safe order. The create goes
    // first and stops the frame with its refusal, storage untouched —
    // which is why it could never be overlapped with a data leg bound
    // for another daemon; a resubmitted frame that finds the entry
    // found its own first delivery, which may have died before its
    // write. The size goes last: bytes before size, so a stat never
    // sees a size this frame has not written the bytes for.
    let b = backends.clone();
    reg.serve_bulk::<op::WriteFile>(move |r, bulk, _| {
        check_bulk_len(&r.batch, bulk.len())?;
        let ops = layout_batch(&r.batch.ops)?;
        let path = r.batch.path;
        if let Some(NewFile { mode, exclusive, now_ns }) = r.create {
            let create = CreateReq { path: path.clone(), kind: FileKind::File, mode, exclusive, now_ns };
            match b.meta.apply_one(MetaOp::Create(create)) {
                Err(GkfsError::Exists) if r.resubmitted => {}
                verdict => {
                    verdict?;
                }
            }
        }
        if !ops.is_empty() {
            b.data.write_batch(&path, &ops, bulk)?;
        }
        if let Some(SizeCandidate { size, mtime_ns }) = r.size {
            b.meta.update_size(&path, size, mtime_ns)?;
        }
        Ok(())
    });

    let b = backends.clone();
    reg.serve_bulk::<op::ReadChunks>(move |r, _, out| {
        let ops = layout_batch(&r.ops)?;
        let lens = read_batch(&b.data, &r.path, &ops, out)?;
        // Absent vs hole: a short op on a chunk this daemon
        // holds is an authoritative hole/EOF; a short op on a
        // chunk it does NOT hold means this replica missed the
        // data (rejoined empty, drain-back pending) and the
        // client must fail over. A full-length op implies the
        // chunk is held, so only short ops ask the store — one
        // point lookup each, never an inventory of the path.
        let missing = lens
            .iter()
            .zip(&ops)
            .map(|(&l, op)| Ok(l < op.len && !b.data.holds(&r.path, op.chunk_id)?))
            .collect::<Result<_>>()?;
        Ok(ReadChunksResp { lens, missing })
    });

    // `Stat`, then `ReadChunks` of the whole file out of chunk 0 — which
    // lives here, with the entry. `head_max` is wire-controlled: clamped,
    // so the reply stays a small frame. The *missing* rule is
    // `ReadChunks`': short from a chunk this daemon holds is a hole
    // (zeros up to the size the entry states), short from one it does
    // not hold vouches for nothing.
    let b = backends.clone();
    reg.serve_bulk::<op::OpenFile>(move |r, _, out| {
        let meta = entry(b.meta.apply_one(MetaOp::Stat(PathReq::new(r.path.as_str()))))?;
        if meta.is_dir() || meta.size == 0 || meta.size > r.head_max.min(HEAD_MAX) {
            return Ok(OpenFileResp { meta, held: true });
        }
        let whole = [BatchOp { chunk_id: 0, offset: 0, len: meta.size, buf_offset: 0 }];
        let lens = read_batch(&b.data, &r.path, &whole, out)?;
        let held = lens[0] == meta.size || b.data.holds(&r.path, 0)?;
        out.resize(if held { meta.size as usize } else { 0 }, 0);
        Ok(OpenFileResp { meta, held })
    });

    let b = backends.clone();
    reg.serve::<op::RemoveChunks>(move |r| b.data.remove_chunks(&r.path, &r.ids));

    let b = backends.clone();
    reg.serve::<op::TruncateChunks>(move |r| {
        b.data.truncate_chunks(&r.path, r.keep_chunk, r.keep_bytes)
    });

    let b = backends.clone();
    reg.serve::<op::ChunkInventory>(move |()| {
        let entries = b
            .data
            .list_paths()?
            .into_iter()
            .map(|(p, c)| (p, c as u64))
            .collect();
        Ok(ChunkInventoryResp { entries })
    });

    let b = backends.clone();
    reg.serve::<op::Heartbeat>(move |r| {
        Ok(match b.repl.get() {
            Some(m) => m.heartbeat_from(r.from),
            // Unreplicated daemons still answer probes (a
            // client-side detector may be running) with a
            // zero epoch, which observers read as "none".
            None => HeartbeatResp { epoch: 0, under_replicated: 0, backlog: 0 },
        })
    });

    let b = backends.clone();
    reg.serve::<op::ReplicaMeta>(move |r| {
        let meta = Metadata {
            kind: r.kind,
            size: r.size,
            mode: r.mode,
            ctime_ns: r.ctime_ns,
            mtime_ns: r.mtime_ns,
        };
        b.meta.install_replica(&r.path, &meta)
    });

    let b = backends;
    reg.serve::<op::DaemonStats>(move |()| {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        let repl = b.repl.get();
        let tcp = |f: fn(&gkfs_rpc::RpcStats) -> &AtomicU64| {
            b.tcp_stats.get().map_or(0, |s| f(s).load(Relaxed))
        };
        let mut r = DaemonStatsResp {
            meta_entries: b.meta.entry_count(),
            replication_factor: repl.map_or(1, |m| m.replicas() as u64),
            request_copy_bytes: tcp(|s| &s.request_copy_bytes),
            served_inline: tcp(|s| &s.served_inline),
            served_pooled: tcp(|s| &s.served_pooled),
            spun: tcp(|s| &s.spun),
            spin_expired: tcp(|s| &s.spin_expired),
            liveness: repl.map(|m| m.liveness_bytes()).unwrap_or_default(),
            ..DaemonStatsResp::default()
        };
        b.meta.db().stats().add_to(&mut r);
        b.data.stats().add_to(&mut r);
        if let Some(m) = repl {
            m.counters().add_to(&mut r);
        }
        Ok(r)
    });

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gkfs_common::{FileKind, IoBackend};
    use gkfs_storage::{ChunkStorage, FileChunkStorage, MemChunkStorage};

    fn registry() -> HandlerRegistry {
        build_registry(backends())
    }

    fn backends() -> Arc<Backends> {
        backends_on(Arc::new(MemChunkStorage::new()))
    }

    fn backends_on(data: Arc<dyn ChunkStorage>) -> Arc<Backends> {
        Arc::new(Backends {
            meta: MetadataBackend::open_memory().unwrap(),
            data,
            repl: Default::default(),
            tcp_stats: Default::default(),
        })
    }

    /// One typed round trip through the registry.
    fn call<R: Rpc>(reg: &HandlerRegistry, req: &R::Req) -> Result<R::Resp> {
        R::reply(reg.dispatch(R::request(req)))
    }

    fn write(reg: &HandlerRegistry, batch: &ChunkBatchReq, bulk: Vec<u8>) -> Result<()> {
        op::WriteChunks::reply(reg.dispatch(op::WriteChunks::request(batch).with_bulk(bulk)))
    }

    /// A `ReadChunks` round trip: the typed body and the reply's bulk.
    fn read(reg: &HandlerRegistry, batch: &ChunkBatchReq) -> Result<(ReadChunksResp, Bytes)> {
        let resp = reg.dispatch(op::ReadChunks::request(batch)).into_result()?;
        Ok((ReadChunksResp::decode(&resp.body)?, resp.bulk))
    }

    fn create_req(path: &str, kind: FileKind, now_ns: u64) -> CreateReq {
        CreateReq {
            path: path.into(),
            kind,
            mode: 0o644,
            exclusive: true,
            now_ns,
        }
    }

    #[test]
    fn create_stat_remove_through_rpc() {
        let reg = registry();
        let create = create_req("/f", FileKind::File, 42);
        call::<op::Create>(&reg, &create).unwrap();
        // Duplicate exclusive create fails.
        assert_eq!(call::<op::Create>(&reg, &create), Err(GkfsError::Exists));
        // Stat returns the metadata.
        let meta = call::<op::Stat>(&reg, &PathReq::new("/f")).unwrap();
        assert_eq!(meta.ctime_ns, 42);
        // Remove states the kind it expects; the wrong kind is refused
        // and the right one answers with the removed entry.
        let remove = |kind| RemoveMetaReq { path: "/f".into(), kind };
        assert_eq!(
            call::<op::RemoveMeta>(&reg, &remove(FileKind::Directory)),
            Err(GkfsError::NotDirectory)
        );
        let removed = call::<op::RemoveMeta>(&reg, &remove(FileKind::File)).unwrap();
        assert_eq!(removed.ctime_ns, 42);
        // Stat now fails.
        assert_eq!(call::<op::Stat>(&reg, &PathReq::new("/f")), Err(GkfsError::NotFound));
    }

    #[test]
    fn write_then_read_chunks() {
        let reg = registry();
        let batch = ChunkBatchReq {
            path: "/data".into(),
            ops: vec![
                ChunkOp { chunk_id: 0, offset: 0, len: 5 },
                ChunkOp { chunk_id: 1, offset: 10, len: 3 },
            ],
        };
        write(&reg, &batch, b"hello+++".to_vec()).unwrap();
        let (resp, bulk) = read(&reg, &batch).unwrap();
        assert_eq!(resp.lens, vec![5, 3]);
        assert_eq!(&bulk[..], b"hello+++");
    }

    /// Acceptance: reply assembly is scatter/gather. A full-length
    /// multi-chunk read goes straight into the pre-sized reply buffer —
    /// zero compaction bytes; only a short read forces copies.
    #[test]
    fn read_reply_assembly_copies_nothing_on_full_batches() {
        let b = backends();
        let reg = build_registry(b.clone());
        let n = 16usize;
        let ops: Vec<ChunkOp> = (0..n as u64)
            .map(|c| ChunkOp { chunk_id: c, offset: 0, len: 4096 })
            .collect();
        let batch = ChunkBatchReq { path: "/sg".into(), ops };
        let bulk: Vec<u8> = (0..n * 4096).map(|i| (i % 241) as u8).collect();
        write(&reg, &batch, bulk.clone()).unwrap();
        let (_, got) = read(&reg, &batch).unwrap();
        assert_eq!(&got[..], &bulk[..]);
        assert_eq!(
            b.data.stats().read_reply_copy_bytes.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "full-length batch must not compact"
        );

        // Now force a short read: chunk n lands with only 100 bytes,
        // and an op after it must shift left in the reply.
        let short = ChunkBatchReq {
            path: "/sg".into(),
            ops: vec![
                ChunkOp { chunk_id: n as u64, offset: 0, len: 4096 },
                ChunkOp { chunk_id: 0, offset: 0, len: 4096 },
            ],
        };
        write(
            &reg,
            &ChunkBatchReq {
                path: "/sg".into(),
                ops: vec![ChunkOp { chunk_id: n as u64, offset: 0, len: 100 }],
            },
            vec![7u8; 100],
        )
        .unwrap();
        let (resp, got) = read(&reg, &short).unwrap();
        assert_eq!(resp.lens, vec![100, 4096]);
        assert_eq!(got.len(), 4196, "dense reply after short read");
        assert_eq!(
            b.data.stats().read_reply_copy_bytes.load(std::sync::atomic::Ordering::Relaxed),
            4096,
            "only the shifted op's bytes copied"
        );
    }

    #[test]
    fn write_with_wrong_bulk_length_rejected() {
        let reg = registry();
        let batch = ChunkBatchReq {
            path: "/data".into(),
            ops: vec![ChunkOp { chunk_id: 0, offset: 0, len: 100 }],
        };
        assert!(matches!(
            write(&reg, &batch, vec![0; 50]),
            Err(GkfsError::InvalidArgument(_))
        ));
    }

    /// Op lens are wire-controlled: a batch whose lens overflow `u64`
    /// is refused as a bad argument — on the read path too, where no
    /// bulk-length check stands in front of the layout — and the
    /// handler thread lives to serve the next request.
    #[test]
    fn batch_whose_lens_overflow_is_rejected_not_a_panic() {
        let reg = registry();
        let hostile = ChunkBatchReq {
            path: "/data".into(),
            ops: vec![
                ChunkOp { chunk_id: 0, offset: 0, len: u64::MAX },
                ChunkOp { chunk_id: 1, offset: 0, len: 3 },
            ],
        };
        assert!(matches!(read(&reg, &hostile), Err(GkfsError::InvalidArgument(_))));
        // The control: a write is stopped one step earlier, by
        // `check_bulk_len`.
        assert!(matches!(
            write(&reg, &hostile, vec![0; 2]),
            Err(GkfsError::InvalidArgument(_))
        ));
        call::<op::Stat>(&reg, &PathReq::new("/data")).unwrap_err();
    }

    fn write_file(reg: &HandlerRegistry, req: &WriteFileReq, bulk: &[u8]) -> Result<()> {
        op::WriteFile::reply(reg.dispatch(op::WriteFile::request(req).with_bulk(bulk.to_vec())))
    }

    /// A frame for `/wf`: `data` at the head of chunk 0, every rider.
    fn file_frame(data: &[u8], now_ns: u64) -> WriteFileReq {
        WriteFileReq {
            batch: ChunkBatchReq {
                path: "/wf".into(),
                ops: vec![ChunkOp { chunk_id: 0, offset: 0, len: data.len() as u64 }],
            },
            size: Some(SizeCandidate { size: data.len() as u64, mtime_ns: now_ns }),
            create: Some(NewFile { mode: 0o644, exclusive: true, now_ns }),
            resubmitted: false,
        }
    }

    #[test]
    fn write_file_creates_writes_and_sizes_and_a_refused_create_writes_nothing() {
        let b = backends();
        let reg = build_registry(b.clone());
        write_file(&reg, &file_frame(b"BBBB", 1), b"BBBB").unwrap();
        let meta = call::<op::Stat>(&reg, &PathReq::new("/wf")).unwrap();
        assert_eq!((meta.size, meta.ctime_ns, meta.mtime_ns), (4, 1, 1));
        assert_eq!(b.data.read_chunk("/wf", 0, 0, 8).unwrap(), b"BBBB");
        // The loser of the create: refused before a byte moved.
        let written = b.data.stats().storage_write_bytes.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(write_file(&reg, &file_frame(b"AAAAAAAA", 2), b"AAAAAAAA"), Err(GkfsError::Exists));
        assert_eq!(b.data.stats().storage_write_bytes.load(std::sync::atomic::Ordering::Relaxed), written);
        assert_eq!(b.data.read_chunk("/wf", 0, 0, 8).unwrap(), b"BBBB");
        assert_eq!(call::<op::Stat>(&reg, &PathReq::new("/wf")).unwrap().size, 4);
        // The same frame marked as a resubmission found its own first
        // delivery: the bytes are written despite `Exists`.
        let again = WriteFileReq { resubmitted: true, ..file_frame(b"AAAAAAAA", 2) };
        write_file(&reg, &again, b"AAAAAAAA").unwrap();
        assert_eq!(b.data.read_chunk("/wf", 0, 0, 8).unwrap(), b"AAAAAAAA");
        assert_eq!(call::<op::Stat>(&reg, &PathReq::new("/wf")).unwrap().size, 8);
        // Metadata only, and a bulk that does not match creates nothing.
        let bare = WriteFileReq {
            batch: ChunkBatchReq { path: "/bare".into(), ops: vec![] },
            size: None,
            ..file_frame(b"", 3)
        };
        assert!(matches!(write_file(&reg, &bare, b"stray"), Err(GkfsError::InvalidArgument(_))));
        assert_eq!(call::<op::Stat>(&reg, &PathReq::new("/bare")), Err(GkfsError::NotFound));
        write_file(&reg, &bare, b"").unwrap();
        assert_eq!(call::<op::Stat>(&reg, &PathReq::new("/bare")).unwrap().size, 0);
        assert!(!b.data.holds("/bare", 0).unwrap());
    }

    #[test]
    fn the_owner_drops_its_chunk_0_with_the_entry_and_touches_no_storage_for_an_empty_file() {
        let b = backends();
        let reg = build_registry(b.clone());
        for path in ["/one", "/many"] {
            let frame = WriteFileReq {
                batch: ChunkBatchReq { path: path.into(), ..file_frame(b"data", 1).batch },
                ..file_frame(b"data", 1)
            };
            write_file(&reg, &frame, b"data").unwrap();
        }
        call::<op::Create>(&reg, &create_req("/empty", FileKind::File, 1)).unwrap();
        // An empty file's chunk 0, were there one, is not the owner's
        // business: nothing says it holds bytes.
        b.data.write_chunk("/empty", 0, 0, b"stray").unwrap();
        let unlink = |path: &str| RemoveMetaReq { path: path.into(), kind: FileKind::File };
        assert_eq!(call::<op::RemoveMeta>(&reg, &unlink("/one")).unwrap().size, 4);
        assert!(!b.data.holds("/one", 0).unwrap());
        call::<op::RemoveMeta>(&reg, &unlink("/empty")).unwrap();
        assert!(b.data.holds("/empty", 0).unwrap());
        let frame = BatchMetaReq { ops: vec![MetaOp::Unlink(PathReq::new("/many"))].into() };
        call::<op::BatchMeta>(&reg, &frame).unwrap();
        assert!(!b.data.holds("/many", 0).unwrap());
    }

    /// An `OpenFile` round trip: the typed body and the reply's bulk.
    fn open_file(reg: &HandlerRegistry, path: &str, head_max: u64) -> Result<(OpenFileResp, Bytes)> {
        let req = OpenFileReq { path: path.into(), head_max };
        let resp = reg.dispatch(op::OpenFile::request(&req)).into_result()?;
        Ok((OpenFileResp::decode(&resp.body)?, resp.bulk))
    }

    /// On the in-memory store and on the file store, whose reply buffer
    /// is allocated unzeroed.
    #[test]
    fn open_file_answers_the_entry_and_the_bytes_it_vouches_for() {
        let dir = std::env::temp_dir().join(format!("gkfs-open-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file_store = FileChunkStorage::open_with(&dir, IoBackend::Auto, 0, 0).unwrap();
        for data in [
            Arc::new(MemChunkStorage::new()) as Arc<dyn ChunkStorage>,
            Arc::new(file_store),
        ] {
            open_file_on(backends_on(data));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn open_file_on(b: Arc<Backends>) {
        let reg = build_registry(b.clone());
        write_file(&reg, &file_frame(b"small", 1), b"small").unwrap();
        let stat = call::<op::Stat>(&reg, &PathReq::new("/wf")).unwrap();
        // The entry is `Stat`'s; the bulk is the file.
        let (resp, file) = open_file(&reg, "/wf", 4096).unwrap();
        assert_eq!((resp.meta, resp.held, &file[..]), (stat.clone(), true, &b"small"[..]));
        // Exactly `head_max` still fits; one byte less does not, and 0
        // never asks: the entry alone, nothing read.
        assert_eq!(&open_file(&reg, "/wf", 5).unwrap().1[..], b"small");
        let reads = b.data.stats().storage_read_bytes.load(std::sync::atomic::Ordering::Relaxed);
        for head_max in [4, 0] {
            let (resp, file) = open_file(&reg, "/wf", head_max).unwrap();
            assert_eq!((resp.meta, resp.held, file.len()), (stat.clone(), true, 0), "head_max {head_max}");
        }
        call::<op::Create>(&reg, &create_req("/dir", FileKind::Directory, 2)).unwrap();
        let (resp, file) = open_file(&reg, "/dir", 4096).unwrap();
        assert!(resp.meta.is_dir() && resp.held && file.is_empty());
        assert_eq!(b.data.stats().storage_read_bytes.load(std::sync::atomic::Ordering::Relaxed), reads);
        assert_eq!(open_file(&reg, "/nope", 4096).unwrap_err(), GkfsError::NotFound);
        // A hole inside a chunk this daemon holds is zeros, up to the
        // size the entry states — even where the allocator hands the
        // read a buffer it freed full of other bytes ...
        call::<op::UpdateSize>(&reg, &UpdateSizeReq { path: "/wf".into(), size: 4096, mtime_ns: 3 }).unwrap();
        drop(std::hint::black_box(vec![0xA5u8; 4096]));
        let (resp, file) = open_file(&reg, "/wf", 4096).unwrap();
        let mut small = b"small".to_vec();
        small.resize(4096, 0);
        assert_eq!((resp.meta.size, resp.held, &file[..]), (4096, true, &small[..]));
        // ... and the same short read from a chunk it does not hold (a
        // replica that rejoined empty and was sent the entry alone)
        // vouches for nothing: no bytes, never zeros.
        b.data.remove_chunks("/wf", &[0]).unwrap();
        let (resp, file) = open_file(&reg, "/wf", 4096).unwrap();
        assert_eq!((resp.meta.size, resp.held, file.len()), (4096, false, 0));
        assert_eq!(b.data.stats().read_reply_copy_bytes.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn a_forged_head_max_above_the_clamp_still_gets_a_small_reply() {
        let b = backends();
        let reg = build_registry(b.clone());
        let (fits, over) = (vec![7u8; HEAD_MAX as usize], vec![9u8; HEAD_MAX as usize + 1]);
        for (path, data) in [("/fits", &fits), ("/over", &over)] {
            let frame = WriteFileReq {
                batch: ChunkBatchReq { path: path.into(), ..file_frame(data, 1).batch },
                ..file_frame(data, 1)
            };
            write_file(&reg, &frame, data).unwrap();
        }
        let (resp, file) = open_file(&reg, "/fits", u64::MAX).unwrap();
        assert_eq!((resp.held, &file[..]), (true, &fits[..]));
        let (resp, file) = open_file(&reg, "/over", u64::MAX).unwrap();
        assert_eq!((resp.meta.size, resp.held, file.len()), (HEAD_MAX + 1, true, 0), "the daemon's clamp, not the request's word");
        // Either reply, framed, goes through a connection's read buffer.
        let reply = reg.dispatch(op::OpenFile::request(&OpenFileReq { path: "/fits".into(), head_max: u64::MAX }));
        assert!(reply.encode().len() <= gkfs_rpc::transport::SMALL_FRAME + 256);
    }

    #[test]
    fn size_update_and_truncate_via_rpc() {
        let reg = registry();
        call::<op::Create>(&reg, &create_req("/f", FileKind::File, 0)).unwrap();
        call::<op::UpdateSize>(
            &reg,
            &UpdateSizeReq { path: "/f".into(), size: 4096, mtime_ns: 1 },
        )
        .unwrap();
        assert_eq!(call::<op::Stat>(&reg, &PathReq::new("/f")).unwrap().size, 4096);
        call::<op::TruncateMeta>(
            &reg,
            &TruncateMetaReq { path: "/f".into(), new_size: 10, mtime_ns: 2 },
        )
        .unwrap();
        assert_eq!(call::<op::Stat>(&reg, &PathReq::new("/f")).unwrap().size, 10);
    }

    #[test]
    fn readdir_and_stats() {
        let reg = registry();
        call::<op::Create>(&reg, &create_req("/d", FileKind::Directory, 0)).unwrap();
        for p in ["/d/a", "/d/b"] {
            call::<op::Create>(&reg, &create_req(p, FileKind::File, 0)).unwrap();
        }
        let rd = call::<op::ReadDir>(&reg, &ReaddirReq::new("/d")).unwrap();
        assert_eq!(rd.entries.len(), 2);
        assert!(rd.next_cursor.is_empty(), "small dir fits one page");

        // Paged: one entry per frame, cursor resumes the walk.
        let rd = call::<op::ReadDir>(
            &reg,
            &ReaddirReq { dir: "/d".into(), cursor: String::new(), max_entries: 1 },
        )
        .unwrap();
        assert_eq!(rd.entries.len(), 1);
        assert_eq!(rd.next_cursor, rd.entries[0].name);
        let rd = call::<op::ReadDir>(
            &reg,
            &ReaddirReq { dir: "/d".into(), cursor: rd.next_cursor, max_entries: 0 },
        )
        .unwrap();
        assert_eq!(rd.entries.len(), 1);

        let stats = call::<op::DaemonStats>(&reg, &()).unwrap();
        assert_eq!(stats.meta_entries, 3);
        assert!(stats.kv_puts >= 3);
    }

    #[test]
    fn batch_meta_through_rpc() {
        let reg = registry();
        let req = BatchMetaReq {
            ops: vec![
                MetaOp::Create(create_req("/bm", FileKind::File, 7)),
                MetaOp::Stat(PathReq::new("/bm")),
                MetaOp::Unlink(PathReq::new("/nope")),
            ]
            .into(),
        };
        let r = call::<op::BatchMeta>(&reg, &req).unwrap();
        assert_eq!(r.results.len(), 3);
        assert!(r.results[0].clone().into_result().is_ok());
        let meta = r.results[1].clone().into_result().unwrap().unwrap();
        assert_eq!(meta.ctime_ns, 7);
        assert!(matches!(
            r.results[2].clone().into_result(),
            Err(GkfsError::NotFound)
        ));
        // Group-apply counters surface through DaemonStats.
        let stats = call::<op::DaemonStats>(&reg, &()).unwrap();
        assert_eq!(stats.meta_batches, 1);
        assert_eq!(stats.meta_batch_ops, 3);
        assert_eq!(stats.meta_group_applies, 1);
    }

    #[test]
    fn malformed_body_is_error_response_not_crash() {
        let reg = registry();
        let resp = reg.dispatch(Request::new(Opcode::Create, vec![1, 2, 3]));
        assert!(resp.into_result().is_err());
        let resp = reg.dispatch(Request::new(Opcode::Stat, vec![0xFF; 2]));
        assert!(resp.into_result().is_err());
        // A kind byte that is neither file nor directory fails the frame.
        let mut body = create_req("/k", FileKind::Directory, 0).encode();
        body[4 + 2] = 7;
        let resp = reg.dispatch(Request::new(Opcode::Create, body));
        assert!(matches!(resp.into_result(), Err(GkfsError::Corruption(_))));
    }
}
