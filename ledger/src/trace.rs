//! Spans, recorded only from the benchmark's own code.
//!
//! An `op` span wraps each timed client call (see `runner::RankCtx::op`).
//! [`TracedEndpoint`] decorates the [`Endpoint`] handed to
//! `GekkoClient::mount` and records one child `rpc` span per request,
//! tagged with the op that issued it. Spans stay in memory until the
//! run ends.

use gkfs_common::Result;
use gkfs_rpc::{Endpoint, ReplyHandle, Request};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Spans kept per recording thread; later ones are counted, not kept.
pub const SPAN_CAP: usize = 1 << 18;

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// The op span open on this thread; 0 when none. The client
    /// submits every RPC of a call from the calling thread, so the
    /// endpoint decorator reads the parent here.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// Which transport an rpc span crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP loopback.
    Tcp,
    /// The daemon's in-process endpoint.
    Inproc,
}

impl Transport {
    /// Name used in reports and the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Inproc => "inproc",
        }
    }
}

/// One client call.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// Identifier shared with the op's rpc spans.
    pub id: u64,
    /// Index into the workload's phases.
    pub phase: usize,
    /// Rank that made the call.
    pub rank: usize,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
}

/// One request/reply on one endpoint.
#[derive(Debug, Clone, Copy)]
pub struct RpcSpan {
    /// The op span that caused it; 0 for untimed work.
    pub op: u64,
    /// Daemon the endpoint reaches.
    pub node: usize,
    /// Request opcode.
    pub opcode: gkfs_rpc::Opcode,
    /// Request body length.
    pub body_len: usize,
    /// Request bulk length.
    pub bulk_len: usize,
    /// Reply bulk length.
    pub reply_bulk_len: usize,
    /// Submission, ns since the trace epoch.
    pub start: u64,
    /// Reply observed, ns since the trace epoch.
    pub end: u64,
}

/// Open an op span on this thread and return its id.
pub fn op_open() -> u64 {
    let id = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    CURRENT_OP.with(|c| c.set(id));
    id
}

/// Close the op span open on this thread.
pub fn op_close() {
    CURRENT_OP.with(|c| c.set(0));
}

/// What a [`TracedEndpoint`] recorded.
#[derive(Default)]
pub struct RpcLog {
    /// Recorded spans, in completion order.
    pub spans: Vec<RpcSpan>,
    /// Spans not kept because [`SPAN_CAP`] was reached.
    pub dropped: u64,
}

/// [`Endpoint`] decorator that records one rpc span per request.
///
/// `ReplyHandle` has no completion hook, so the decorator waits for
/// the reply inside `submit` and hands back a handle that is already
/// complete. The calling thread is the one that would have waited
/// anyway, so a call that issues its RPCs one after another is not
/// slowed; a call that fans RPCs out to several daemons has them
/// serialised, which shows as `trace_overhead_pct`.
pub struct TracedEndpoint {
    inner: Arc<dyn Endpoint>,
    node: usize,
    log: Arc<Mutex<RpcLog>>,
}

impl TracedEndpoint {
    /// Wrap `inner`, which reaches daemon `node`. The second value is
    /// where the spans collect.
    pub fn wrap(inner: Arc<dyn Endpoint>, node: usize) -> (Arc<dyn Endpoint>, Arc<Mutex<RpcLog>>) {
        let log = Arc::new(Mutex::new(RpcLog {
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
        }));
        let ep = TracedEndpoint {
            inner,
            node,
            log: log.clone(),
        };
        (Arc::new(ep), log)
    }
}

impl Endpoint for TracedEndpoint {
    fn submit(&self, req: Request) -> Result<ReplyHandle> {
        let mut span = RpcSpan {
            op: CURRENT_OP.with(Cell::get),
            node: self.node,
            opcode: req.opcode,
            body_len: req.body.len(),
            bulk_len: req.bulk.len(),
            reply_bulk_len: 0,
            start: now_ns(),
            end: 0,
        };
        let outcome = self
            .inner
            .submit(req)
            .and_then(|h| h.wait(self.inner.timeout()));
        span.end = now_ns();
        if let Ok(resp) = &outcome {
            span.reply_bulk_len = resp.bulk.len();
        }
        let mut log = self
            .log
            .lock()
            .expect("no thread panics holding the span log");
        if log.spans.len() < SPAN_CAP {
            log.spans.push(span);
        } else {
            log.dropped += 1;
        }
        Ok(ReplyHandle::ready(outcome))
    }

    fn timeout(&self) -> Duration {
        self.inner.timeout()
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
}

/// Per-phase means of one traced part, in microseconds per op.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Ops the means are taken over.
    pub ops: u64,
    /// Mean op span.
    pub op_us: f64,
    /// Mean part of the op interval its rpc spans cover.
    pub rpc_cover_us: f64,
    /// Mean sum of the op's rpc span durations (≥ cover when rpcs of
    /// one op overlap).
    pub rpc_sum_us: f64,
    /// Mean rpc spans per op.
    pub rpcs_per_op: f64,
    /// Request shapes seen: (opcode, request bulk, reply bulk) → count.
    pub shapes: HashMap<(gkfs_rpc::Opcode, usize, usize), u64>,
}

/// Length of the union of `spans` clipped to `[lo, hi]`.
fn cover(spans: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in spans.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Attribute rpc spans to their ops and average per phase.
pub fn breakdown(ops: &[OpSpan], rpcs: &[RpcSpan], phases: usize) -> Vec<PhaseBreakdown> {
    let mut by_op: HashMap<u64, Vec<&RpcSpan>> = HashMap::new();
    for r in rpcs.iter().filter(|r| r.op != 0) {
        by_op.entry(r.op).or_default().push(r);
    }
    let mut out = vec![PhaseBreakdown::default(); phases];
    let mut scratch = Vec::new();
    for op in ops {
        let b = &mut out[op.phase];
        b.ops += 1;
        b.op_us += (op.end - op.start) as f64 / 1e3;
        let Some(children) = by_op.get(&op.id) else {
            continue;
        };
        scratch.clear();
        for r in children {
            scratch.push((r.start, r.end));
            b.rpc_sum_us += (r.end - r.start) as f64 / 1e3;
            *b.shapes
                .entry((r.opcode, r.bulk_len, r.reply_bulk_len))
                .or_default() += 1;
        }
        b.rpcs_per_op += children.len() as f64;
        b.rpc_cover_us += cover(&mut scratch, op.start, op.end) as f64 / 1e3;
    }
    for b in &mut out {
        if b.ops > 0 {
            let n = b.ops as f64;
            b.op_us /= n;
            b.rpc_cover_us /= n;
            b.rpc_sum_us /= n;
            b.rpcs_per_op /= n;
        }
    }
    out
}

/// Write every span as one JSON document.
pub fn dump(
    path: &std::path::Path,
    workload: &str,
    parts: &[(Transport, &[OpSpan], &[RpcSpan])],
    phase_names: &[&str],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
    )?;
    let mut first = true;
    for (transport, ops, rpcs) in parts {
        let t = transport.name();
        for o in *ops {
            let sep = if std::mem::take(&mut first) { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"name\":\"op\",\"id\":{},\"parent\":0,\"transport\":\"{t}\",\"phase\":\"{}\",\"rank\":{},\"start\":{},\"end\":{}}}",
                o.id, phase_names[o.phase], o.rank, o.start, o.end
            )?;
        }
        for r in *rpcs {
            let sep = if std::mem::take(&mut first) { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"name\":\"rpc\",\"parent\":{},\"transport\":\"{t}\",\"node\":{},\"opcode\":\"{:?}\",\"body\":{},\"bulk\":{},\"reply_bulk\":{},\"start\":{},\"end\":{}}}",
                r.op, r.node, r.opcode, r.body_len, r.bulk_len, r.reply_bulk_len, r.start, r.end
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_merges_overlap_and_clips() {
        let mut s = vec![(10, 20), (15, 30), (40, 50), (0, 5)];
        assert_eq!(cover(&mut s, 12, 45), (30 - 12) + (45 - 40));
    }
}
