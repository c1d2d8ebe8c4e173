//! I/O trace replay.
//!
//! The GekkoFS authors come from storage-system tracing (the paper
//! cites their Spectrum Scale tracing study \[37\]), and burst-buffer
//! evaluation in practice means replaying *application* I/O traces,
//! not just synthetic kernels. This module defines a minimal
//! line-oriented trace format, a parser, a recorder-style writer, and
//! a multi-rank replayer that drives the real file system.
//!
//! Format — one op per line, `#` comments, whitespace-separated:
//!
//! ```text
//! # rank op      args...
//! 0 mkdir  /out
//! 0 create /out/data
//! 0 write  /out/data 0 4096        # path offset len
//! 1 read   /out/data 0 4096        # path offset len
//! * barrier                        # all ranks sync
//! 0 stat   /out/data
//! 0 unlink /out/data
//! ```
//!
//! `rank` is a number or `*` (all ranks). Writes generate
//! deterministic payloads; reads verify length (content checks happen
//! in the tests, where the expected pattern is known).

use crate::Ranks;
use gekkofs::{GekkoClient, GkfsError, OpenFlags, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// One parsed trace operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// `mkdir <path>`
    Mkdir(String),
    /// `create <path>`
    Create(String),
    /// `write <path> <offset> <len>`
    Write(String, u64, u64),
    /// `read <path> <offset> <len>`
    Read(String, u64, u64),
    /// `stat <path>`
    Stat(String),
    /// `unlink <path>`
    Unlink(String),
    /// `rmdir <path>`
    Rmdir(String),
    /// `truncate <path> <size>`
    Truncate(String, u64),
    /// `readdir <path>`
    Readdir(String),
    /// `barrier` — synchronize all ranks.
    Barrier,
}

/// A trace entry: which ranks execute the op (`None` = all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Executing rank, or `None` for every rank.
    pub rank: Option<usize>,
    /// The operation.
    pub op: TraceOp,
}

/// Parse a trace from text. Errors carry the offending line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEntry>> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        let bad = |what: &str| {
            GkfsError::InvalidArgument(format!("trace line {}: {what}: {raw}", lineno + 1))
        };
        let rank_tok = tok.next().ok_or_else(|| bad("missing rank"))?;
        let rank = if rank_tok == "*" {
            None
        } else {
            Some(
                rank_tok
                    .parse::<usize>()
                    .map_err(|_| bad("bad rank"))?,
            )
        };
        let opname = tok.next().ok_or_else(|| bad("missing op"))?;
        let mut path = || -> Result<String> {
            tok.next()
                .map(str::to_string)
                .ok_or_else(|| bad("missing path"))
        };
        let op = match opname {
            "mkdir" => TraceOp::Mkdir(path()?),
            "create" => TraceOp::Create(path()?),
            "stat" => TraceOp::Stat(path()?),
            "unlink" => TraceOp::Unlink(path()?),
            "rmdir" => TraceOp::Rmdir(path()?),
            "readdir" => TraceOp::Readdir(path()?),
            "truncate" => {
                let p = path()?;
                let size = tok
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("missing size"))?;
                TraceOp::Truncate(p, size)
            }
            "write" | "read" => {
                let p = path()?;
                let offset = tok
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("missing offset"))?;
                let len = tok
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("missing len"))?;
                if opname == "write" {
                    TraceOp::Write(p, offset, len)
                } else {
                    TraceOp::Read(p, offset, len)
                }
            }
            "barrier" => TraceOp::Barrier,
            other => return Err(bad(&format!("unknown op {other:?}"))),
        };
        out.push(TraceEntry { rank, op });
    }
    Ok(out)
}

/// Serialize a trace back to the text format (the "recorder" half).
pub fn format_trace(entries: &[TraceEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        let rank = e
            .rank
            .map(|r| r.to_string())
            .unwrap_or_else(|| "*".to_string());
        let line = match &e.op {
            TraceOp::Mkdir(p) => format!("{rank} mkdir {p}"),
            TraceOp::Create(p) => format!("{rank} create {p}"),
            TraceOp::Write(p, o, l) => format!("{rank} write {p} {o} {l}"),
            TraceOp::Read(p, o, l) => format!("{rank} read {p} {o} {l}"),
            TraceOp::Stat(p) => format!("{rank} stat {p}"),
            TraceOp::Unlink(p) => format!("{rank} unlink {p}"),
            TraceOp::Rmdir(p) => format!("{rank} rmdir {p}"),
            TraceOp::Truncate(p, s) => format!("{rank} truncate {p} {s}"),
            TraceOp::Readdir(p) => format!("{rank} readdir {p}"),
            TraceOp::Barrier => format!("{rank} barrier"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Deterministic write payload so replays are reproducible and reads
/// verifiable.
pub fn trace_pattern(rank: usize, offset: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((offset + i) as u8) ^ (rank as u8).wrapping_mul(37))
        .collect()
}

/// Replay statistics.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Operations executed across all ranks (barriers excluded).
    pub ops_executed: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Wall-clock for the whole replay.
    pub elapsed: Duration,
}

impl ReplayResult {
    /// Aggregate operation rate.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops_executed as f64 / self.elapsed.as_secs_f64()
    }
}

/// Replay a trace with `ranks` concurrent clients. Each rank executes
/// its own entries in order; `barrier` entries synchronize everyone
/// (MPI-style). Per-rank ops between barriers run concurrently across
/// ranks. The lowest-ranked rank's first error is the replay's result.
pub fn replay_trace(
    mount: impl Fn() -> Result<GekkoClient>,
    ranks: usize,
    trace: &[TraceEntry],
) -> Result<ReplayResult> {
    let clients = Ranks::mount(ranks, mount)?;
    let barrier = Barrier::new(ranks);
    let ops = AtomicU64::new(0);
    let written = AtomicU64::new(0);
    let read = AtomicU64::new(0);

    let run = |rank: usize, client: &GekkoClient, op: &TraceOp| -> Result<()> {
        match op {
            TraceOp::Barrier => return Ok(()),
            TraceOp::Mkdir(p) => client.mkdir(p, 0o755)?,
            TraceOp::Create(p) => client.create(p, 0o644)?,
            TraceOp::Write(p, off, len) => {
                let data = trace_pattern(rank, *off, *len);
                let h = client.open_handle(p, OpenFlags::WRONLY)?;
                h.pwrite(*off, &data)?;
                h.close()?;
                written.fetch_add(*len, Ordering::Relaxed);
            }
            TraceOp::Read(p, off, len) => {
                let h = client.open_handle(p, OpenFlags::RDONLY)?;
                let data = h.pread(*off, *len as usize)?;
                h.close()?;
                read.fetch_add(data.len() as u64, Ordering::Relaxed);
            }
            TraceOp::Stat(p) => {
                client.stat(p)?;
            }
            TraceOp::Unlink(p) => client.unlink(p)?,
            TraceOp::Rmdir(p) => client.rmdir(p)?,
            TraceOp::Truncate(p, size) => client.truncate(p, *size)?,
            TraceOp::Readdir(p) => {
                client.readdir(p)?;
            }
        }
        ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    };
    let elapsed = clients.phase(
        |_, _| Ok(()),
        |rank, client, ()| {
            // A rank whose op failed runs no further ops but keeps
            // walking the trace for its barriers: the other ranks are
            // (or will be) waiting in them for it.
            let mut outcome = Ok(());
            for entry in trace {
                let mine = entry.rank.map(|r| r == rank).unwrap_or(true);
                if entry.op == TraceOp::Barrier {
                    barrier.wait();
                } else if mine && outcome.is_ok() {
                    outcome = run(rank, client, &entry.op);
                }
            }
            outcome
        },
    )?;

    Ok(ReplayResult {
        ops_executed: ops.into_inner(),
        bytes_written: written.into_inner(),
        bytes_read: read.into_inner(),
        elapsed,
    })
}

/// Generate a synthetic checkpoint-restart trace: `ranks` ranks each
/// dump `steps` checkpoints of `bytes` each, with barriers between
/// steps, then read back the final step (the N-N burst pattern the
/// paper's burst-buffer deployment targets).
pub fn checkpoint_trace(ranks: usize, steps: usize, bytes: u64) -> Vec<TraceEntry> {
    let mut t = Vec::new();
    let mut push = |rank: Option<usize>, op: TraceOp| t.push(TraceEntry { rank, op });
    push(Some(0), TraceOp::Mkdir("/ckpt".into()));
    push(None, TraceOp::Barrier);
    for step in 0..steps {
        for rank in 0..ranks {
            let path = format!("/ckpt/s{step}.r{rank}");
            push(Some(rank), TraceOp::Create(path.clone()));
            push(Some(rank), TraceOp::Write(path, 0, bytes));
        }
        push(None, TraceOp::Barrier);
        // Keep only the latest two steps (the common retention policy).
        if step >= 2 {
            for rank in 0..ranks {
                push(Some(rank), TraceOp::Unlink(format!("/ckpt/s{}.r{rank}", step - 2)));
            }
        }
    }
    push(None, TraceOp::Barrier);
    // Restart: everyone reads its own final checkpoint.
    for rank in 0..ranks {
        push(Some(rank), TraceOp::Read(format!("/ckpt/s{}.r{rank}", steps - 1), 0, bytes));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gekkofs::{Cluster, ClusterConfig};

    #[test]
    fn parse_and_format_roundtrip() {
        let text = "\
# demo trace
0 mkdir /out
* barrier
0 create /out/a
1 write /out/a 0 4096
* barrier
1 read /out/a 1024 512
0 stat /out/a
0 truncate /out/a 100
0 readdir /out
0 unlink /out/a
0 rmdir /out
";
        let parsed = parse_trace(text).unwrap();
        assert_eq!(parsed.len(), 11);
        assert_eq!(parsed[0].rank, Some(0));
        assert_eq!(parsed[1], TraceEntry { rank: None, op: TraceOp::Barrier });
        assert_eq!(
            parsed[3].op,
            TraceOp::Write("/out/a".into(), 0, 4096)
        );
        // format -> parse is the identity.
        let reparsed = parse_trace(&format_trace(&parsed)).unwrap();
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_trace("0 write /a\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = parse_trace("0 mkdir /ok\nx create /b\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(parse_trace("0 frobnicate /a\n").is_err());
    }

    #[test]
    fn replay_executes_against_real_fs() {
        let cluster = Cluster::deploy(ClusterConfig::new(3).with_chunk_size(8192)).unwrap();
        let trace = parse_trace(
            "0 mkdir /t\n\
             * barrier\n\
             0 create /t/shared\n\
             * barrier\n\
             0 write /t/shared 0 10000\n\
             1 write /t/shared 10000 10000\n\
             * barrier\n\
             * read /t/shared 0 20000\n\
             0 stat /t/shared\n",
        )
        .unwrap();
        let r = replay_trace(|| cluster.mount(), 2, &trace).unwrap();
        assert_eq!(r.bytes_written, 20_000);
        assert_eq!(r.bytes_read, 2 * 20_000, "both ranks read the whole file");
        assert!(r.ops_executed >= 6);
        // The data really is the rank-stamped pattern.
        let fs = cluster.mount().unwrap();
        let h = fs.open_handle("/t/shared", OpenFlags::RDONLY).unwrap();
        let data = h.pread(0, 20_000).unwrap();
        assert_eq!(&data[..10_000], &trace_pattern(0, 0, 10_000)[..]);
        assert_eq!(&data[10_000..], &trace_pattern(1, 10_000, 10_000)[..]);
        cluster.shutdown();
    }

    #[test]
    fn checkpoint_trace_replays_clean() {
        let cluster = Cluster::deploy(ClusterConfig::new(4).with_chunk_size(16 * 1024)).unwrap();
        let trace = checkpoint_trace(4, 5, 50_000);
        let r = replay_trace(|| cluster.mount(), 4, &trace).unwrap();
        assert_eq!(r.bytes_written, 4 * 5 * 50_000);
        assert_eq!(r.bytes_read, 4 * 50_000, "restart reads the last step");
        // Retention policy left exactly the last two steps.
        let fs = cluster.mount().unwrap();
        assert_eq!(fs.readdir("/ckpt").unwrap().len(), 2 * 4);
        cluster.shutdown();
    }

    #[test]
    fn replay_surfaces_application_errors() {
        let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
        // Unlink of a missing file must fail the replay, like the
        // application it models would fail.
        let trace = parse_trace("0 unlink /never\n").unwrap();
        assert!(replay_trace(|| cluster.mount(), 1, &trace).is_err());
        cluster.shutdown();
    }

    /// A rank that fails before a barrier still shows up at it: the
    /// replay returns that rank's error instead of leaving the other
    /// ranks waiting forever, and the failed rank runs nothing further.
    #[test]
    fn a_failed_rank_still_reaches_its_barriers() {
        let cluster = std::sync::Arc::new(Cluster::deploy(ClusterConfig::new(2)).unwrap());
        let trace = parse_trace(
            "0 unlink /never\n\
             * barrier\n\
             0 create /after-failure\n\
             1 create /other-rank\n\
             * barrier\n",
        )
        .unwrap();
        // Replayed on a thread of its own so that a hang fails the test
        // instead of hanging it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let replayer = {
            let cluster = std::sync::Arc::clone(&cluster);
            std::thread::spawn(move || done_tx.send(replay_trace(|| cluster.mount(), 2, &trace)))
        };
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("replay hung: a rank waits in a barrier the failed rank never reached");
        replayer.join().unwrap().unwrap();
        assert_eq!(outcome.unwrap_err(), GkfsError::NotFound);
        let fs = cluster.mount().unwrap();
        assert!(fs.stat("/after-failure").is_err());
        assert!(fs.stat("/other-rank").is_ok());
        cluster.shutdown();
    }
}
