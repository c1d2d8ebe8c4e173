//! Stand-alone probes of the layers below the RPC boundary, used to
//! split a daemon's service time further than spans recorded from
//! outside can. Each calls the layer's public entry point the way the
//! daemon does, on request shapes the workloads produce. They replay;
//! they do not observe the daemon, so the split they give is an
//! approximation and is reported as one.

use crate::report::median;
use bytes::Bytes;
use gkfs_common::config::IoBackend;
use gkfs_common::crc::crc32;
use gkfs_common::wire::FrameWriter;
use gkfs_common::{GkfsError, Metadata, Result};
use gkfs_daemon::metadata::{encode_size_operand, MetaSizeMergeOperator};
use gkfs_kvstore::{Db, DbOptions, WriteBatch};
use gkfs_rpc::{Opcode, Request};
use gkfs_storage::{BatchOp, BatchPayload, ChunkStorage, FileChunkStorage};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;

/// Probe results by metric name, microseconds per operation.
pub type Probes = Vec<(&'static str, f64)>;

/// Operations per repetition of each probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Point ops per KV repetition.
    pub kv_ops: usize,
    /// 64-record batches per KV repetition.
    pub kv_batches: usize,
    /// 512 KiB chunk ops per storage repetition.
    pub st_large: usize,
    /// 8 KiB chunk ops per storage repetition.
    pub st_small: usize,
    /// Small frames per wire repetition.
    pub wire_small: usize,
    /// 1 MiB frames per wire repetition.
    pub wire_large: usize,
}

/// Sizes the reported numbers are taken at.
pub const FROZEN: ProbeSizes = ProbeSizes {
    kv_ops: 4096,
    kv_batches: 64,
    st_large: 16,
    st_small: 512,
    wire_small: 20_000,
    wire_large: 32,
};

/// Sizes for the smoke test.
pub const TINY: ProbeSizes = ProbeSizes {
    kv_ops: 128,
    kv_batches: 4,
    st_large: 2,
    st_small: 16,
    wire_small: 200,
    wire_large: 2,
};

/// Median over [`REPS`] repetitions of `rep`, which returns the mean
/// microseconds per operation of one repetition.
fn median_us(rep: impl FnMut(usize) -> Result<f64>) -> Result<f64> {
    Ok(median(&(0..REPS).map(rep).collect::<Result<Vec<f64>>>()?))
}

/// Mean microseconds per item of running `f` on each of `items`.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T) -> Result<()>) -> Result<f64> {
    let t0 = Instant::now();
    for it in items {
        f(it)?;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / items.len() as f64)
}

/// `kv.*_us`: the daemon's own `Db::open_dir` options (merge operator,
/// WAL as `DaemonConfig::default()` ships it), metadata-shaped keys
/// and values.
fn kv(dir: &Path, seed: u64, n: &ProbeSizes) -> Result<Probes> {
    let wal = gkfs_common::DaemonConfig::default().kv_wal;
    let db = Db::open_dir(
        dir.join("kvprobe"),
        DbOptions {
            merge_operator: Some(Arc::new(MetaSizeMergeOperator)),
            wal,
            ..DbOptions::default()
        },
    )?;
    let value = Metadata::new_file(1).encode();
    let operand = encode_size_operand(8192, 2);
    let keys = |rep: usize, kind: &str, count: usize| -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| format!("/w/{seed:x}.{kind}.{rep}.{i}").into_bytes())
            .collect()
    };
    // One repetition runs all four probes on its own keys, in the
    // order a file's life has them: created, looked up, grown.
    let mut reps: [Vec<f64>; 4] = Default::default();
    for rep in 0..REPS {
        let ks = keys(rep, "p", n.kv_ops);
        let batches: Vec<Vec<Vec<u8>>> = (0..n.kv_batches)
            .map(|b| keys(rep, &format!("b{b}"), 64))
            .collect();
        reps[0].push(time_each(&ks, |k| db.put(k, &value))?);
        reps[1].push(time_each(&ks, |k| db.get(k).map(|v| drop(black_box(v))))?);
        reps[2].push(time_each(&ks, |k| db.merge(k, &operand))?);
        reps[3].push(time_each(&batches, |ks| {
            let mut wb = WriteBatch::new();
            for k in ks {
                wb.put(k, &value);
            }
            db.write(wb)
        })?);
    }
    db.shutdown()?;
    let names = ["kv.put_us", "kv.get_us", "kv.merge_us", "kv.batch64_us"];
    Ok(names
        .into_iter()
        .zip(reps.iter().map(|v| median(v)))
        .collect())
}

/// `st.*_us`: `ChunkStorage::submit_batch` on the file backend, opened
/// as `Daemon::spawn` opens it, one op per batch.
fn storage(dir: &Path, n: &ProbeSizes) -> Result<Probes> {
    let dc = gkfs_common::DaemonConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let st = FileChunkStorage::open_with(
        dir.join("stprobe"),
        IoBackend::Auto,
        dc.chunk_io_threads.min(cores),
        dc.chunk_queue_depth,
    )?;
    let mut out = Probes::new();
    for (write_name, read_name, len, per_chunk, count) in [
        (
            "st.write_512k_us",
            "st.read_512k_us",
            512 * 1024u64,
            1u64,
            n.st_large,
        ),
        ("st.write_8k_us", "st.read_8k_us", 8 * 1024, 64, n.st_small),
    ] {
        let payload = Bytes::from(vec![0xA5u8; len as usize]);
        let ops = |rep: usize| -> Vec<(String, BatchOp)> {
            (0..count as u64)
                .map(|i| {
                    let op = BatchOp {
                        chunk_id: i / per_chunk,
                        offset: (i % per_chunk) * len,
                        len,
                        buf_offset: 0,
                    };
                    (format!("/w/probe.{len}.{rep}"), op)
                })
                .collect()
        };
        let write = median_us(|rep| {
            time_each(&ops(rep), |(path, op)| {
                st.submit_batch(path, &[*op], BatchPayload::Write(payload.clone()))
                    .wait()
                    .map(|_| ())
            })
        })?;
        let read = median_us(|rep| {
            time_each(&ops(rep), |(path, op)| {
                let got = st.submit_batch(path, &[*op], BatchPayload::Read).wait()?;
                if got.lens != [len] {
                    return Err(GkfsError::Corruption("storage probe read short".into()));
                }
                black_box(got.data);
                Ok(())
            })
        })?;
        out.push((write_name, write));
        out.push((read_name, read));
    }
    Ok(out)
}

/// One frame's CPU cost end to end without a socket: encode the prefix,
/// write the vectored frame into a buffer, then what the receiver does
/// — copy the payload into its frame buffer, check the CRC, decode.
fn frame_roundtrip(req: &Request, sink: &mut Vec<u8>) -> Result<()> {
    sink.clear();
    let prefix = req.encode_prefix();
    let mut fw = FrameWriter::new();
    fw.segment(&prefix).segment(&req.bulk);
    fw.write_to(sink)
        .map_err(|e| GkfsError::Rpc(format!("frame write: {e}")))?;
    let len = fw.payload_len();
    let payload = Bytes::copy_from_slice(&sink[4..4 + len]);
    let trailer: [u8; 4] = sink[4 + len..8 + len]
        .try_into()
        .map_err(|_| GkfsError::Corruption("frame trailer missing".into()))?;
    if crc32(&payload) != u32::from_le_bytes(trailer) {
        return Err(GkfsError::Corruption("wire probe crc mismatch".into()));
    }
    let got = Request::decode_owned(&payload)?;
    if got.bulk.len() != req.bulk.len() {
        return Err(GkfsError::Corruption("wire probe bulk length".into()));
    }
    black_box(got);
    Ok(())
}

/// `wire.frame_*_us`.
fn wire(n: &ProbeSizes) -> Result<Probes> {
    let small = Request::new(Opcode::Stat, vec![b'p'; 48]);
    let large = Request::new(Opcode::WriteChunks, vec![b'c'; 64]).with_bulk(vec![0x5Au8; 1 << 20]);
    let mut sink = Vec::with_capacity((1 << 20) + 256);
    let mut out = Probes::new();
    for (name, req, count) in [
        ("wire.frame_small_us", &small, n.wire_small),
        ("wire.frame_1m_us", &large, n.wire_large),
    ] {
        let rounds: Vec<()> = vec![(); count];
        out.push((
            name,
            median_us(|_| time_each(&rounds, |()| frame_roundtrip(req, &mut sink)))?,
        ));
    }
    Ok(out)
}

/// Run every probe, with scratch state under `dir`.
pub fn run(dir: &Path, seed: u64, n: &ProbeSizes) -> Result<Probes> {
    let mut out = wire(n)?;
    out.extend(kv(dir, seed, n)?);
    out.extend(storage(dir, n)?);
    Ok(out)
}
