//! RPC handlers — the daemon's service surface.
//!
//! One handler per opcode, each a thin translation between the wire
//! protocol ([`gkfs_rpc::proto`]) and the two backends (metadata, chunk
//! storage). Handlers run concurrently on the daemon's pool; all
//! synchronization lives in the backends.

use crate::engine::ChunkEngine;
use crate::metadata::MetadataBackend;
use bytes::Bytes;
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
    /// Batch adapter: wire-side validation and reply compaction; the
    /// I/O parallelism itself lives inside `data`'s engine.
    pub engine: ChunkEngine,
    /// Replication manager, installed by `Daemon::join_cluster` after
    /// the registry is built (empty on unreplicated daemons).
    pub repl: std::sync::OnceLock<Arc<crate::replication::ReplicationManager>>,
    /// Counters of the daemon's TCP server, installed by
    /// `Daemon::serve_tcp` (empty on in-process-only daemons).
    pub tcp_stats: std::sync::OnceLock<Arc<gkfs_rpc::RpcStats>>,
}

/// Wire ops → batch ops with the running-sum buffer layout the engine
/// and backends rely on: op *i*'s bytes occupy the `bulk`/reply window
/// starting at the sum of all earlier ops' lens.
fn layout_batch(ops: &[ChunkOp]) -> Vec<BatchOp> {
    let mut cursor = 0u64;
    ops.iter()
        .map(|op| {
            let b = BatchOp {
                chunk_id: op.chunk_id,
                offset: op.offset,
                len: op.len,
                buf_offset: cursor,
            };
            cursor += op.len;
            b
        })
        .collect()
}

/// Helper: run a fallible handler body, mapping `Err` onto an error
/// response so failures never tear down the connection.
fn respond(f: impl FnOnce() -> Result<Response>) -> Response {
    f().unwrap_or_else(Response::err)
}

/// Build the full handler registry over the given backends.
pub fn build_registry(backends: Arc<Backends>) -> HandlerRegistry {
    let mut reg = HandlerRegistry::new();

    reg.register_fn(Opcode::Ping, |req: Request| {
        Response::ok(req.body) // echo: used for deployment handshakes
    });

    {
        let b = backends.clone();
        reg.register_fn(Opcode::Create, move |req| {
            respond(|| {
                let r = CreateReq::decode(&req.body)?;
                let mut meta = match r.kind {
                    0 => Metadata::new_file(r.now_ns),
                    1 => Metadata::new_dir(r.now_ns),
                    k => {
                        return Err(GkfsError::InvalidArgument(format!("bad kind {k}")));
                    }
                };
                meta.mode = r.mode;
                b.meta.create(&r.path, &meta, r.exclusive)?;
                Ok(Response::ok(Bytes::new()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::Stat, move |req| {
            respond(|| {
                let r = PathReq::decode(&req.body)?;
                let meta = b.meta.stat(&r.path)?;
                Ok(Response::ok(meta.encode()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::RemoveMeta, move |req| {
            respond(|| {
                let r = PathReq::decode(&req.body)?;
                let meta = b.meta.remove(&r.path)?;
                let kind = match meta.kind {
                    FileKind::File => 0,
                    FileKind::Directory => 1,
                };
                Ok(Response::ok(RemoveMetaResp { kind }.encode()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::UpdateSize, move |req| {
            respond(|| {
                let r = UpdateSizeReq::decode(&req.body)?;
                b.meta.update_size(&r.path, r.size, r.mtime_ns)?;
                Ok(Response::ok(Bytes::new()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::TruncateMeta, move |req| {
            respond(|| {
                let r = TruncateMetaReq::decode(&req.body)?;
                b.meta.truncate(&r.path, r.new_size, r.mtime_ns)?;
                Ok(Response::ok(Bytes::new()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::ReadDir, move |req| {
            respond(|| {
                let r = ReaddirReq::decode(&req.body)?;
                let (page, next_cursor) =
                    b.meta.readdir_page(&r.dir, &r.cursor, r.max_entries as usize)?;
                let entries = page
                    .into_iter()
                    .map(|d| DirentWire {
                        name: d.name,
                        kind: match d.kind {
                            FileKind::File => 0,
                            FileKind::Directory => 1,
                        },
                        size: d.size,
                    })
                    .collect();
                Ok(Response::ok(ReadDirResp { entries, next_cursor }.encode()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::BatchMeta, move |req| {
            respond(|| {
                let r = BatchMetaReq::decode(&req.body)?;
                let results = b.meta.apply_batch(&r.ops)?;
                Ok(Response::ok(BatchMetaResp { results }.encode()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::WriteChunks, move |req| {
            respond(|| {
                let r = ChunkBatchReq::decode(&req.body)?;
                check_bulk_len(&r, req.bulk.len())?;
                let ops = layout_batch(&r.ops);
                b.engine.write_batch(&b.data, &r.path, &ops, &req.bulk)?;
                Ok(Response::ok(Bytes::new()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::ReadChunks, move |req| {
            respond(|| {
                let r = ChunkBatchReq::decode(&req.body)?;
                let ops = layout_batch(&r.ops);
                let (bulk, lens) = b.engine.read_batch(&b.data, &r.path, &ops)?;
                // Absent vs hole: a short op on a chunk this daemon
                // holds is an authoritative hole/EOF; a short op on a
                // chunk it does NOT hold means this replica missed the
                // data (rejoined empty, drain-back pending) and the
                // client must fail over. Full-length ops imply the
                // chunk is held, so the inventory lookup only runs
                // when something came back short.
                let missing = if lens.iter().zip(&ops).any(|(&l, op)| l < op.len) {
                    let held: std::collections::HashSet<u64> = b
                        .data
                        .list_chunks(&r.path)?
                        .into_iter()
                        .map(|(id, _)| id)
                        .collect();
                    ops.iter().map(|op| !held.contains(&op.chunk_id)).collect()
                } else {
                    vec![false; ops.len()]
                };
                Ok(Response::ok(ReadChunksResp { lens, missing }.encode()).with_bulk(bulk))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::RemoveChunks, move |req| {
            respond(|| {
                let r = PathReq::decode(&req.body)?;
                b.data.remove_chunks(&r.path)?;
                Ok(Response::ok(Bytes::new()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::TruncateChunks, move |req| {
            respond(|| {
                let r = TruncateChunksReq::decode(&req.body)?;
                b.data.truncate_chunks(&r.path, r.keep_chunk, r.keep_bytes)?;
                Ok(Response::ok(Bytes::new()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::ChunkInventory, move |_req| {
            respond(|| {
                let entries = b
                    .data
                    .list_paths()?
                    .into_iter()
                    .map(|(p, c)| (p, c as u64))
                    .collect();
                Ok(Response::ok(ChunkInventoryResp { entries }.encode()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::Heartbeat, move |req| {
            respond(|| {
                let r = HeartbeatReq::decode(&req.body)?;
                let resp = match b.repl.get() {
                    Some(m) => m.heartbeat_from(r.from),
                    // Unreplicated daemons still answer probes (a
                    // client-side detector may be running) with a
                    // zero epoch, which observers read as "none".
                    None => HeartbeatResp { epoch: 0, under_replicated: 0, backlog: 0 },
                };
                Ok(Response::ok(resp.encode()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::ReplicaMeta, move |req| {
            respond(|| {
                let r = ReplicaMetaReq::decode(&req.body)?;
                let mut meta = match r.kind {
                    0 => Metadata::new_file(r.ctime_ns),
                    1 => Metadata::new_dir(r.ctime_ns),
                    k => {
                        return Err(GkfsError::InvalidArgument(format!("bad kind {k}")));
                    }
                };
                meta.mode = r.mode;
                meta.size = r.size;
                meta.mtime_ns = r.mtime_ns;
                b.meta.install_replica(&r.path, &meta)?;
                Ok(Response::ok(Bytes::new()))
            })
        });
    }

    {
        let b = backends.clone();
        reg.register_fn(Opcode::DaemonStats, move |_req| {
            respond(|| {
                use std::sync::atomic::Ordering::Relaxed;
                let kv = b.meta.db().stats();
                let (_, w_bytes, _, r_bytes) = b.data.stats().snapshot();
                let (fd_hits, fd_misses, coalesced) = b.data.stats().engine_snapshot();
                let (tasks_spawned, inline_runs) = b.data.stats().task_snapshot();
                let reply_copies = b.engine.reply_copy_bytes();
                let repl = b.repl.get();
                let rc = |f: fn(&crate::replication::ReplCounters) -> &std::sync::atomic::AtomicU64| {
                    repl.map(|m| f(m.counters()).load(Relaxed)).unwrap_or(0)
                };
                let resp = DaemonStatsResp {
                    meta_entries: b.meta.entry_count()? as u64,
                    kv_puts: kv.puts.load(Relaxed),
                    kv_gets: kv.gets.load(Relaxed),
                    kv_merges: kv.merges.load(Relaxed),
                    storage_write_bytes: w_bytes,
                    storage_read_bytes: r_bytes,
                    kv_flushes: kv.flushes.load(Relaxed),
                    kv_compactions: kv.compactions.load(Relaxed),
                    kv_stalls: kv.stalls.load(Relaxed),
                    kv_stall_micros: kv.stall_micros.load(Relaxed),
                    kv_imm_hits: kv.imm_hits.load(Relaxed),
                    kv_group_commits: kv.group_commits.load(Relaxed),
                    kv_group_commit_records: kv.group_commit_records.load(Relaxed),
                    kv_bloom_skips: kv.bloom_skips.load(Relaxed),
                    chunk_tasks_spawned: tasks_spawned,
                    chunk_inline_runs: inline_runs,
                    fd_cache_hits: fd_hits,
                    fd_cache_misses: fd_misses,
                    coalesced_ops: coalesced,
                    read_reply_copy_bytes: reply_copies,
                    replication_factor: repl.map(|m| m.replicas() as u64).unwrap_or(1),
                    under_replicated_chunks: rc(|c| &c.under_replicated),
                    repl_backlog: rc(|c| &c.backlog),
                    repl_chunks_copied: rc(|c| &c.chunks_copied),
                    repl_meta_copied: rc(|c| &c.meta_copied),
                    heartbeats_sent: rc(|c| &c.heartbeats_sent),
                    heartbeats_received: rc(|c| &c.heartbeats_received),
                    meta_batches: b.meta.batch_counters().batches.load(Relaxed),
                    meta_batch_ops: b.meta.batch_counters().ops.load(Relaxed),
                    meta_group_applies: b.meta.batch_counters().group_applies.load(Relaxed),
                    liveness: repl.map(|m| m.liveness_bytes()).unwrap_or_default(),
                    request_copy_bytes: b
                        .tcp_stats
                        .get()
                        .map_or(0, |s| s.request_copy_bytes.load(Relaxed)),
                };
                Ok(Response::ok(resp.encode()))
            })
        });
    }

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_storage::MemChunkStorage;

    fn registry() -> HandlerRegistry {
        build_registry(backends())
    }

    fn backends() -> Arc<Backends> {
        Arc::new(Backends {
            meta: MetadataBackend::open_memory().unwrap(),
            data: Arc::new(MemChunkStorage::new()),
            engine: ChunkEngine::new(),
            repl: Default::default(),
            tcp_stats: Default::default(),
        })
    }

    fn call(reg: &HandlerRegistry, op: Opcode, body: Vec<u8>) -> Response {
        reg.dispatch(Request::new(op, body))
    }

    fn call_bulk(reg: &HandlerRegistry, op: Opcode, body: Vec<u8>, bulk: Vec<u8>) -> Response {
        reg.dispatch(Request::new(op, body).with_bulk(bulk))
    }

    #[test]
    fn create_stat_remove_through_rpc() {
        let reg = registry();
        let create = CreateReq {
            path: "/f".into(),
            kind: 0,
            mode: 0o644,
            exclusive: true,
            now_ns: 42,
        };
        call(&reg, Opcode::Create, create.encode()).into_result().unwrap();
        // Duplicate exclusive create fails.
        let resp = call(&reg, Opcode::Create, create.encode());
        assert!(matches!(
            resp.into_result(),
            Err(GkfsError::Exists)
        ));
        // Stat returns the metadata.
        let resp = call(&reg, Opcode::Stat, PathReq::new("/f").encode())
            .into_result()
            .unwrap();
        let meta = Metadata::decode(&resp.body).unwrap();
        assert_eq!(meta.ctime_ns, 42);
        // Remove reports the kind.
        let resp = call(&reg, Opcode::RemoveMeta, PathReq::new("/f").encode())
            .into_result()
            .unwrap();
        assert_eq!(RemoveMetaResp::decode(&resp.body).unwrap().kind, 0);
        // Stat now fails.
        let resp = call(&reg, Opcode::Stat, PathReq::new("/f").encode());
        assert!(matches!(resp.into_result(), Err(GkfsError::NotFound)));
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
        call_bulk(&reg, Opcode::WriteChunks, batch.encode(), b"hello+++".to_vec())
            .into_result()
            .unwrap();
        let resp = call(&reg, Opcode::ReadChunks, batch.encode())
            .into_result()
            .unwrap();
        let lens = ReadChunksResp::decode(&resp.body).unwrap().lens;
        assert_eq!(lens, vec![5, 3]);
        assert_eq!(&resp.bulk[..], b"hello+++");
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
        call_bulk(&reg, Opcode::WriteChunks, batch.encode(), bulk.clone())
            .into_result()
            .unwrap();
        let resp = call(&reg, Opcode::ReadChunks, batch.encode())
            .into_result()
            .unwrap();
        assert_eq!(&resp.bulk[..], &bulk[..]);
        assert_eq!(b.engine.reply_copy_bytes(), 0, "full-length batch must not compact");

        // Now force a short read: chunk n lands with only 100 bytes,
        // and an op after it must shift left in the reply.
        let short = ChunkBatchReq {
            path: "/sg".into(),
            ops: vec![
                ChunkOp { chunk_id: n as u64, offset: 0, len: 4096 },
                ChunkOp { chunk_id: 0, offset: 0, len: 4096 },
            ],
        };
        call_bulk(
            &reg,
            Opcode::WriteChunks,
            ChunkBatchReq {
                path: "/sg".into(),
                ops: vec![ChunkOp { chunk_id: n as u64, offset: 0, len: 100 }],
            }
            .encode(),
            vec![7u8; 100],
        )
        .into_result()
        .unwrap();
        let resp = call(&reg, Opcode::ReadChunks, short.encode())
            .into_result()
            .unwrap();
        let lens = ReadChunksResp::decode(&resp.body).unwrap().lens;
        assert_eq!(lens, vec![100, 4096]);
        assert_eq!(resp.bulk.len(), 4196, "dense reply after short read");
        assert_eq!(b.engine.reply_copy_bytes(), 4096, "only the shifted op's bytes copied");
    }

    #[test]
    fn write_with_wrong_bulk_length_rejected() {
        let reg = registry();
        let batch = ChunkBatchReq {
            path: "/data".into(),
            ops: vec![ChunkOp { chunk_id: 0, offset: 0, len: 100 }],
        };
        let resp = call_bulk(&reg, Opcode::WriteChunks, batch.encode(), vec![0; 50]);
        assert!(matches!(
            resp.into_result(),
            Err(GkfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn size_update_and_truncate_via_rpc() {
        let reg = registry();
        call(
            &reg,
            Opcode::Create,
            CreateReq {
                path: "/f".into(),
                kind: 0,
                mode: 0o644,
                exclusive: true,
                now_ns: 0,
            }
            .encode(),
        )
        .into_result()
        .unwrap();
        call(
            &reg,
            Opcode::UpdateSize,
            UpdateSizeReq { path: "/f".into(), size: 4096, mtime_ns: 1 }.encode(),
        )
        .into_result()
        .unwrap();
        let resp = call(&reg, Opcode::Stat, PathReq::new("/f").encode())
            .into_result()
            .unwrap();
        assert_eq!(Metadata::decode(&resp.body).unwrap().size, 4096);
        call(
            &reg,
            Opcode::TruncateMeta,
            TruncateMetaReq { path: "/f".into(), new_size: 10, mtime_ns: 2 }.encode(),
        )
        .into_result()
        .unwrap();
        let resp = call(&reg, Opcode::Stat, PathReq::new("/f").encode())
            .into_result()
            .unwrap();
        assert_eq!(Metadata::decode(&resp.body).unwrap().size, 10);
    }

    #[test]
    fn readdir_and_stats() {
        let reg = registry();
        for p in ["/d", "/d/a", "/d/b"] {
            call(
                &reg,
                Opcode::Create,
                CreateReq {
                    path: p.into(),
                    kind: if p == "/d" { 1 } else { 0 },
                    mode: 0o755,
                    exclusive: true,
                    now_ns: 0,
                }
                .encode(),
            )
            .into_result()
            .unwrap();
        }
        let resp = call(&reg, Opcode::ReadDir, ReaddirReq::new("/d").encode())
            .into_result()
            .unwrap();
        let rd = ReadDirResp::decode(&resp.body).unwrap();
        assert_eq!(rd.entries.len(), 2);
        assert!(rd.next_cursor.is_empty(), "small dir fits one page");

        // Paged: one entry per frame, cursor resumes the walk.
        let resp = call(
            &reg,
            Opcode::ReadDir,
            ReaddirReq { dir: "/d".into(), cursor: String::new(), max_entries: 1 }.encode(),
        )
        .into_result()
        .unwrap();
        let rd = ReadDirResp::decode(&resp.body).unwrap();
        assert_eq!(rd.entries.len(), 1);
        assert_eq!(rd.next_cursor, rd.entries[0].name);
        let resp = call(
            &reg,
            Opcode::ReadDir,
            ReaddirReq { dir: "/d".into(), cursor: rd.next_cursor, max_entries: 0 }.encode(),
        )
        .into_result()
        .unwrap();
        assert_eq!(ReadDirResp::decode(&resp.body).unwrap().entries.len(), 1);

        let resp = call(&reg, Opcode::DaemonStats, Vec::new()).into_result().unwrap();
        let stats = DaemonStatsResp::decode(&resp.body).unwrap();
        assert_eq!(stats.meta_entries, 3);
        assert!(stats.kv_puts >= 3);
    }

    #[test]
    fn batch_meta_through_rpc() {
        let reg = registry();
        let req = BatchMetaReq {
            ops: vec![
                MetaOp::Create {
                    path: "/bm".into(),
                    kind: 0,
                    mode: 0o644,
                    exclusive: true,
                    now_ns: 7,
                },
                MetaOp::Stat { path: "/bm".into() },
                MetaOp::Unlink { path: "/nope".into() },
            ],
        };
        let resp = call(&reg, Opcode::BatchMeta, req.encode()).into_result().unwrap();
        let r = BatchMetaResp::decode(&resp.body).unwrap();
        assert_eq!(r.results.len(), 3);
        assert!(r.results[0].clone().into_result().is_ok());
        let meta = r.results[1].clone().into_result().unwrap().unwrap();
        assert_eq!(meta.ctime_ns, 7);
        assert!(matches!(
            r.results[2].clone().into_result(),
            Err(GkfsError::NotFound)
        ));
        // Group-apply counters surface through DaemonStats.
        let resp = call(&reg, Opcode::DaemonStats, Vec::new()).into_result().unwrap();
        let stats = DaemonStatsResp::decode(&resp.body).unwrap();
        assert_eq!(stats.meta_batches, 1);
        assert_eq!(stats.meta_batch_ops, 3);
        assert_eq!(stats.meta_group_applies, 1);
    }

    #[test]
    fn malformed_body_is_error_response_not_crash() {
        let reg = registry();
        let resp = call(&reg, Opcode::Create, vec![1, 2, 3]);
        assert!(resp.into_result().is_err());
        let resp = call(&reg, Opcode::Stat, vec![0xFF; 2]);
        assert!(resp.into_result().is_err());
    }
}
