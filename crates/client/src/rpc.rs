//! Typed RPC wrappers: one function per daemon operation, with the
//! client half of the fault-handling layer.
//!
//! [`DaemonRing`] owns the per-daemon endpoints (the client's "address
//! book"). All placement decisions happen above, in
//! [`crate::client::GekkoClient`]; this layer names a row of the RPC
//! table ([`gkfs_rpc::proto::op`]) and a typed request, and
//! `DaemonRing::unary_attempt` encodes, sends and decodes for every
//! row alike — and, since the retry layer, also owns **when a failed
//! RPC is tried again**:
//!
//! * Every wrapper runs under a [`RetryPolicy`] (bounded attempts,
//!   deterministic seeded backoff) and a per-operation [`Deadline`]
//!   from the cluster's [`RetryConfig`]. Aggregate operations pass one
//!   shared deadline to every constituent wait via
//!   [`ReplyFuture::wait_deadline`], so a striped write cannot stack N
//!   per-call timeouts.
//! * Each node's health is one [`NodeRecord`] in the ring's
//!   [`FailureDetector`]: its failure streak, its circuit breaker and
//!   its retry and failure counters. Every outcome goes on it by the
//!   detector's one rule ([`FailureDetector::record`]), and after
//!   `breaker_threshold` failures in a row the node fails fast with
//!   [`GkfsError::Unavailable`] instead of burning deadlines.
//! * Only **transport** errors ([`GkfsError::is_retryable`]) are
//!   retried. Application errors (`NotFound`, `Exists`, …) prove the
//!   daemon answered, so they record *success*.
//! * Non-idempotent ops retry with **tolerance**: a retried `create`
//!   that hits `Exists`, or a retried remove that hits `NotFound`,
//!   treats the error as its own first attempt having been applied
//!   (the reply was lost, not the request). See DESIGN.md "Fault
//!   model" for the `O_EXCL` caveat this implies.
//!
//! Every operation has one shape: an `_nb` wrapper that submits and
//! returns a typed [`ReplyFuture`] — the client's `margo_iforward` —
//! and [`ReplyFuture::wait`] for the reply. Hot paths submit to every
//! responsible daemon first and only then wait, so wide striping runs
//! at transport speed with zero per-call thread spawns; a caller that
//! wants a blocking call writes `x_nb(..)?.wait()`.

use bytes::Bytes;
use gkfs_common::distributor::NodeId;
use gkfs_common::retry::{Deadline, RetryPolicy};
use gkfs_common::types::Dirent;
use gkfs_common::{
    BreakerState, FailureDetector, FileKind, GkfsError, Liveness, Metadata, NodeRecord,
    ReplicationConfig, Result, RetryConfig,
};
use gkfs_rpc::proto::*;
use gkfs_rpc::{Endpoint, ReplyHandle, Request, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lost-reply tolerance hook: maps an application error seen on a
/// *retried* attempt to a success value when it proves the first
/// attempt was applied (e.g. `Exists` after a retried create).
type Tolerate<T> = Box<dyn Fn(&GkfsError) -> Option<T> + Send>;

/// The lost-reply rule, stated once for the unary rows and for every op
/// inside a `BatchMeta` frame: the daemon cannot tell a replay from a
/// first delivery, so when `e` answers a *retried* non-idempotent `op`
/// and proves its lost first attempt was applied — `Exists` for a
/// create, `NotFound` for a remove — this is the verdict that attempt
/// earned. The removed entry is unknowable by then: it is reported as
/// a file of unknown size (`u64::MAX`), so callers fan chunk removal
/// out to every daemon.
fn lost_reply_verdict(op: &MetaOp, e: &GkfsError) -> Option<Option<Metadata>> {
    match (op, e) {
        (MetaOp::Create(_), GkfsError::Exists) => Some(None),
        (MetaOp::Unlink(_) | MetaOp::Rmdir(_), GkfsError::NotFound) => {
            Some(Some(Metadata { size: u64::MAX, ..Metadata::new_file(0) }))
        }
        _ => None,
    }
}

/// Point-in-time client-side health of one daemon, as shown by
/// `gkfs-cli df` next to the daemon's own counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHealthSnapshot {
    /// Node id.
    pub node: NodeId,
    /// Circuit-breaker state at snapshot time.
    pub breaker: BreakerState,
    /// Consecutive transport failures since the last success.
    pub consecutive_failures: u32,
    /// RPC attempts beyond the first, across all operations.
    pub retries: u64,
    /// Transport-level failures observed (app errors excluded).
    pub failures: u64,
    /// Times the transport re-established its connection.
    pub reconnects: u64,
    /// Failure-detector verdict (piggybacked on RPC outcomes).
    pub liveness: Liveness,
}

/// Outcome of [`ReplyFuture::wait_hedge`]: either the reply arrived
/// (or terminally failed) within the hedge window, or the future is
/// handed back still pending so the caller can race a replica.
#[allow(clippy::large_enum_variant)] // transient stack value, consumed by the caller immediately
pub enum Hedge<'a, T> {
    /// The RPC completed — decoded value or terminal error.
    Ready(Result<T>),
    /// The hedge window elapsed (or a retryable failure occurred).
    /// The carried future can still be driven to completion with
    /// [`ReplyFuture::wait_deadline`] as a last resort.
    Pending(ReplyFuture<'a, T>),
}

/// A typed in-flight RPC: the nonblocking half of a [`DaemonRing`]
/// wrapper. [`ReplyFuture::wait`] blocks for the response (bounded by
/// the endpoint timeout, the retry policy, and the operation
/// deadline), retries transport failures, surfaces remote errors, and
/// decodes the typed result.
///
/// A submit failure on the first attempt does **not** fail `_nb`
/// construction: it is carried inside the future and retried at
/// `wait`, so fan-out call sites keep their submit-all-then-wait-all
/// shape even while a daemon flaps.
///
/// `'a` is how long the request's bulk payload is borrowed for: a
/// chunk write sends sub-slices of the caller's buffer
/// ([`DaemonRing::write_chunks_nb`]) and a retry sends the same slices
/// again, so the future cannot outlive that buffer. Every other
/// operation owns all it sends and returns `ReplyFuture<'static, _>`.
#[must_use = "an RPC's result, retries and error arrive only through `wait`"]
pub struct ReplyFuture<'a, T> {
    /// Outcome of attempt 0's submission.
    state: Result<ReplyHandle>,
    /// The outcome `state` holds is already on the node's record: a
    /// hedge window saw it and charged it, so the wait that finds it
    /// here must not charge the one fault a second time.
    charged: bool,
    timeout: Duration,
    policy: RetryPolicy,
    deadline: Deadline,
    /// Jitter salt: unique per future, so concurrent retries against
    /// the same daemon de-synchronize.
    salt: u64,
    /// The ring's detector, which holds the node's record.
    detector: Arc<FailureDetector>,
    node: NodeId,
    /// Re-submission closure for attempts ≥ 1 (checks the breaker,
    /// clones the cheap refcounted body, re-borrows the bulk).
    submit: Box<dyn Fn() -> Result<ReplyHandle> + Send + 'a>,
    /// Idempotency tolerance: maps an application error on a *retried*
    /// attempt to a success value when it proves the first attempt was
    /// applied (lost-reply semantics).
    tolerate: Option<Tolerate<T>>,
    /// Typed decode, handed the attempt number so replay-aware decoders
    /// (batched metadata) can apply per-op lost-reply tolerance — the
    /// frame-level `tolerate` hook never sees errors carried *inside*
    /// an `Ok` frame.
    decode: Box<dyn Fn(Response, u32) -> Result<T> + Send>,
}

impl<'a, T> ReplyFuture<'a, T> {
    /// Block until the reply arrives (retrying transport failures
    /// under this future's own per-operation deadline) and decode it.
    pub fn wait(self) -> Result<T> {
        let deadline = self.deadline;
        self.wait_deadline(deadline)
    }

    /// Like [`ReplyFuture::wait`], but clamp every per-attempt wait
    /// and every backoff sleep to `deadline` — used by aggregate
    /// operations (striped writes, broadcasts) that share one budget
    /// across the whole fan-out.
    pub fn wait_deadline(self, deadline: Deadline) -> Result<T> {
        let ReplyFuture {
            state,
            mut charged,
            timeout,
            policy,
            salt,
            detector,
            node,
            submit,
            tolerate,
            decode,
            ..
        } = self;
        let attempts = policy.max_attempts.max(1);
        let mut attempt: u32 = 0;
        let mut pending = state;
        loop {
            let outcome: Result<T> = pending.and_then(|handle| {
                let resp = handle.wait(deadline.clamp(timeout))?.into_result()?;
                decode(resp, attempt)
            });
            // One fault, one strike: whatever a hedge window already
            // charged is not charged again; a fresh attempt's outcome is.
            if !std::mem::take(&mut charged) {
                detector.record(node, &outcome);
            }
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() => {
                    attempt += 1;
                    if attempt >= attempts || deadline.expired() {
                        return Err(e);
                    }
                    let pause = deadline.clamp(policy.backoff(salt, attempt - 1));
                    if !pause.is_zero() {
                        gkfs_common::lock::assert_unguarded("sleep");
                        std::thread::sleep(pause);
                    }
                    if deadline.expired() {
                        return Err(e);
                    }
                    detector.note_retry(node);
                    pending = submit();
                }
                Err(e) => {
                    // Not worth re-sending: an app error, a breaker
                    // denial, or a daemon shutting down (which the
                    // record above already counted against it). An app
                    // error on a retried attempt may prove the lost
                    // first attempt was applied: tolerate it.
                    if attempt > 0 {
                        if let Some(v) = tolerate.as_ref().and_then(|tol| tol(&e)) {
                            return Ok(v);
                        }
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Wait at most `window` for the reply, then hand the future back
    /// still pending instead of failing — the hedged-read primitive.
    /// `None` is "hedging off": the node gets one full endpoint
    /// timeout (clamped, like any window, to the operation deadline)
    /// before the caller moves on.
    ///
    /// A window expiry gives nothing up and records **nothing** with
    /// the node's health: the request stays in flight on the handle the
    /// `Pending` future carries, so a slow-but-alive primary neither
    /// accumulates breaker failures because a hedge to a replica won
    /// the race, nor is asked twice — driving the future later with
    /// [`ReplyFuture::wait_deadline`] waits for that same reply first.
    /// Any other outcome goes on the node's record, once, by the
    /// detector's rule. One that indicts the node — a transport failure
    /// in the reply or the submission, a shutting-down daemon, a
    /// breaker denial — is left in the future, marked as charged, for
    /// `wait_deadline` to retry while the caller fails over.
    pub fn wait_hedge(mut self, window: Option<Duration>) -> Hedge<'a, T> {
        let window = self.deadline.clamp(window.unwrap_or(self.timeout));
        let out = match &mut self.state {
            Ok(handle) => match handle.wait_within(window) {
                None => return Hedge::Pending(self),
                Some(got) => got.and_then(Response::into_result).and_then(|r| (self.decode)(r, 0)),
            },
            Err(e) => Err(e.clone()),
        };
        if !std::mem::replace(&mut self.charged, true) {
            self.detector.record(self.node, &out);
        }
        match out {
            Err(e) if e.is_node_down() => {
                self.state = Err(e);
                Hedge::Pending(self)
            }
            out => Hedge::Ready(out),
        }
    }
}

/// One daemon's answer to a chunk-read batch: per-op byte counts,
/// per-op *absent* flags, and the dense concatenated data.
///
/// `missing[i]` is the daemon saying "I hold no chunk behind op `i`"
/// — for a replica that can mean "I missed the write" (rejoined empty,
/// not yet drained back), which is very different from a short read of
/// a chunk it does hold (a hole, authoritatively zero). Callers must
/// fail over to another replica on `missing`, never zero-fill.
#[derive(Debug, Clone)]
pub struct ChunkReadReply {
    /// Bytes returned for each op (0 ≤ `lens[i]` ≤ `ops[i].len`).
    pub lens: Vec<u64>,
    /// Whether the daemon holds no chunk at all behind each op.
    pub missing: Vec<bool>,
    /// The ops' data, concatenated in op order (`lens[i]` bytes each).
    pub bulk: Bytes,
}

/// The set of daemon endpoints, indexed by [`NodeId`], plus the
/// client-side fault-handling state (retry policy, per-node health).
pub struct DaemonRing {
    endpoints: Vec<Arc<dyn Endpoint>>,
    retry: RetryConfig,
    policy: RetryPolicy,
    /// Every node's health record, fed passively by RPC outcomes.
    detector: Arc<FailureDetector>,
    /// Monotonic jitter-salt source (one per issued future).
    salts: AtomicU64,
    /// Logical RPCs issued (retries excluded) — every operation passes
    /// through [`DaemonRing::unary_attempt`], so this is the ground truth
    /// the RPC-count regression gate and `ClientStats` report.
    rpcs: Arc<AtomicU64>,
    /// Bulk bytes copied on the way to a transport: what
    /// [`Endpoint::submit_gather`] had to concatenate because the
    /// endpoint could not send borrowed segments (zero over TCP).
    gather_copies: Arc<AtomicU64>,
}

impl DaemonRing {
    /// A ring over `endpoints` under the given fault-handling
    /// configuration ([`RetryConfig::disabled`] gives single-attempt
    /// semantics). The [`ReplicationConfig`]'s suspect/dead thresholds
    /// and the retry configuration's breaker settings size the
    /// client-side failure detector that every RPC outcome feeds.
    pub fn new(
        endpoints: Vec<Arc<dyn Endpoint>>,
        retry: RetryConfig,
        replication: &ReplicationConfig,
    ) -> DaemonRing {
        assert!(!endpoints.is_empty(), "need at least one daemon");
        let detector = Arc::new(
            FailureDetector::new(
                endpoints.len(),
                Duration::from_millis(replication.suspect_after_ms),
                Duration::from_millis(replication.dead_after_ms),
            )
            .with_breaker(
                retry.breaker_threshold,
                Duration::from_millis(retry.breaker_cooldown_ms),
            ),
        );
        let policy = retry.policy();
        DaemonRing {
            endpoints,
            retry,
            policy,
            detector,
            salts: AtomicU64::new(0),
            rpcs: Arc::new(AtomicU64::new(0)),
            gather_copies: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The ring's failure detector (fed passively by RPC outcomes).
    pub fn detector(&self) -> &Arc<FailureDetector> {
        &self.detector
    }

    /// The shared logical-RPC counter (retries excluded). The client
    /// clones this into its [`crate::client::ClientStats`] so tests and
    /// `gkfs-cli df` can observe RPCs-per-op.
    pub fn rpc_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.rpcs)
    }

    /// The shared gather-copy byte counter (see
    /// [`crate::client::ClientStats::write_gather_copy_bytes`]).
    pub fn gather_copy_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.gather_copies)
    }

    /// Nodes.
    pub fn nodes(&self) -> usize {
        self.endpoints.len()
    }

    /// A fresh deadline for one logical client operation.
    pub fn op_deadline(&self) -> Deadline {
        self.retry.op_deadline()
    }

    /// Health of one daemon (breaker state, retry/failure counters).
    pub fn node_health(&self, node: NodeId) -> Result<&NodeRecord> {
        self.detector
            .records()
            .get(node)
            .ok_or_else(|| GkfsError::Rpc(format!("no endpoint for node {node}")))
    }

    /// How many times node `node`'s transport re-dialed its daemon.
    pub fn reconnects(&self, node: NodeId) -> u64 {
        self.endpoints.get(node).map_or(0, |ep| ep.reconnects())
    }

    /// One [`NodeHealthSnapshot`] per daemon, in node order.
    pub fn health_snapshot(&self) -> Vec<NodeHealthSnapshot> {
        self.detector
            .records()
            .iter()
            .enumerate()
            .map(|(node, h)| NodeHealthSnapshot {
                node,
                breaker: h.breaker_state(),
                consecutive_failures: h.consecutive_failures(),
                retries: h.retries(),
                failures: h.failures(),
                reconnects: self.reconnects(node),
                liveness: self.detector.liveness(node),
            })
            .collect()
    }

    fn ep(&self, node: NodeId) -> Result<&Arc<dyn Endpoint>> {
        self.endpoints
            .get(node)
            .ok_or_else(|| GkfsError::Rpc(format!("no endpoint for node {node}")))
    }

    /// The one generic nonblocking wrapper every row of the RPC table
    /// reduces to: `req` is encoded here, once, as row `R`'s request
    /// (plus the bulk payload as borrowed segments in wire order —
    /// empty for none); at [`ReplyFuture::wait`] the reply is decoded as
    /// `R`'s response and handed to `finish` with the reply's bulk.
    /// `tolerate` is the idempotency escape hatch described on
    /// [`ReplyFuture`]. `finish` also receives the attempt number:
    /// batched operations carry their per-op errors *inside* an `Ok`
    /// frame, so their lost-reply tolerance must run there, not in the
    /// frame-level `tolerate` hook.
    ///
    /// Fails immediately only on a misrouted node id; a failed or
    /// breaker-denied submission is carried inside the returned future
    /// and retried (or surfaced) at wait time.
    fn unary_attempt<'a, R: Rpc, T>(
        &self,
        node: NodeId,
        req: &R::Req,
        bulk: Vec<&'a [u8]>,
        tolerate: Option<Tolerate<T>>,
        finish: impl Fn(R::Resp, Bytes, u32) -> Result<T> + Send + 'static,
    ) -> Result<ReplyFuture<'a, T>> {
        let frame = R::request(req);
        self.attempt::<R, T>(node, frame.clone(), frame, bulk, tolerate, finish)
    }

    /// [`DaemonRing::unary_attempt`] over frames already encoded:
    /// `first` is attempt 0, `again` what every resubmission sends —
    /// the same frame (a refcount bump, not a copy) for every row but
    /// the one whose daemon must be told it is seeing a resubmission.
    fn attempt<'a, R: Rpc, T>(
        &self,
        node: NodeId,
        first: Request,
        again: Request,
        bulk: Vec<&'a [u8]>,
        tolerate: Option<Tolerate<T>>,
        finish: impl Fn(R::Resp, Bytes, u32) -> Result<T> + Send + 'static,
    ) -> Result<ReplyFuture<'a, T>> {
        let ep = Arc::clone(self.ep(node)?);
        self.rpcs.fetch_add(1, Ordering::Relaxed);
        let timeout = ep.timeout();
        let send = {
            let detector = Arc::clone(&self.detector);
            let gather_copies = Arc::clone(&self.gather_copies);
            move |frame: &Request| {
                if !detector.allow(node) {
                    return Err(GkfsError::Unavailable(format!(
                        "node {node}: circuit breaker open"
                    )));
                }
                // The frame clone is a refcount bump, not a copy.
                let req = frame.clone();
                if bulk.is_empty() {
                    return ep.submit(req);
                }
                // Every attempt borrows the caller's buffer afresh;
                // whatever the endpoint had to copy is on the record.
                let before = gkfs_rpc::transport::gather_copy_bytes();
                let handle = ep.submit_gather(req, &bulk);
                gather_copies.fetch_add(
                    gkfs_rpc::transport::gather_copy_bytes() - before,
                    Ordering::Relaxed,
                );
                handle
            }
        };
        let state = send(&first);
        Ok(ReplyFuture {
            state,
            charged: false,
            timeout,
            policy: self.policy.clone(),
            deadline: self.retry.op_deadline(),
            salt: self.salts.fetch_add(1, Ordering::Relaxed),
            detector: Arc::clone(&self.detector),
            node,
            submit: Box::new(move || send(&again)),
            tolerate,
            decode: Box::new(move |resp, attempt| {
                finish(R::Resp::decode(&resp.body)?, resp.bulk, attempt)
            }),
        })
    }

    /// [`DaemonRing::unary_attempt`] without tolerance: the future
    /// yields the row's typed response as it is — the safe default for
    /// idempotent operations (reads, writes, stat, size updates …).
    fn unary_nb<'a, R: Rpc>(
        &self,
        node: NodeId,
        req: &R::Req,
        bulk: Vec<&'a [u8]>,
    ) -> Result<ReplyFuture<'a, R::Resp>> {
        self.unary_attempt::<R, _>(node, req, bulk, None, |resp, _, _| Ok(resp))
    }

    /// Submit `f(node)` to every node, then wait for all replies in
    /// node order — pipelined fan-out (`margo_iforward` to the whole
    /// ring, then `margo_wait` on each handle) with zero thread
    /// spawns. The whole broadcast shares **one** operation deadline.
    /// Used for broadcast operations (readdir, remove, truncate,
    /// stats, fsck inventory).
    pub fn broadcast<'a, T, F>(&self, f: F) -> Vec<Result<T>>
    where
        F: Fn(NodeId) -> Result<ReplyFuture<'a, T>>,
    {
        let deadline = self.op_deadline();
        let inflight: Vec<Result<ReplyFuture<'a, T>>> = (0..self.nodes()).map(f).collect();
        inflight
            .into_iter()
            .map(|fut| fut.and_then(|fut| fut.wait_deadline(deadline)))
            .collect()
    }

    /// Liveness check used during deployment.
    pub fn ping_nb(&self, node: NodeId) -> Result<ReplyFuture<'static, ()>> {
        self.unary_nb::<op::Ping>(node, &(), Vec::new())
    }

    /// One of the four unary metadata rows, chosen by `op`'s variant:
    /// the row carries the request `op` embeds and answers what `op`
    /// would answer inside a `BatchMeta` frame — the entry for a stat
    /// or a remove, nothing otherwise. Creates and removes are not
    /// idempotent, so a retried attempt is judged by
    /// `lost_reply_verdict` (the `O_EXCL` ambiguity that implies under
    /// connection loss is documented in DESIGN.md "Fault model").
    pub fn meta_nb(
        &self,
        node: NodeId,
        op: MetaOp,
    ) -> Result<ReplyFuture<'static, Option<Metadata>>> {
        let none = |(), _, _| Ok(None);
        let some = |m, _, _| Ok(Some(m));
        let remove = |r: &PathReq, kind| {
            let req = RemoveMetaReq { path: r.path.clone(), kind };
            self.unary_attempt::<op::RemoveMeta, _>(node, &req, Vec::new(), None, some)
        };
        match &op {
            MetaOp::Create(r) => {
                self.unary_attempt::<op::Create, _>(node, r, Vec::new(), None, none)
            }
            MetaOp::Stat(r) => self.unary_attempt::<op::Stat, _>(node, r, Vec::new(), None, some),
            MetaOp::Unlink(r) => remove(r, FileKind::File),
            MetaOp::Rmdir(r) => remove(r, FileKind::Directory),
            MetaOp::TruncateMeta(r) => {
                self.unary_attempt::<op::TruncateMeta, _>(node, r, Vec::new(), None, none)
            }
        }
        .map(|fut| ReplyFuture {
            tolerate: Some(Box::new(move |e| lost_reply_verdict(&op, e))),
            ..fut
        })
    }

    /// Open `path`: its entry and, when the daemon vouches for them, the
    /// whole of a file of at most `head_max` bytes — a view of the reply
    /// frame, as a chunk read's bytes are. A reply whose bulk is not the
    /// `size` bytes its entry states carries the entry alone.
    pub fn open_file_nb(
        &self,
        node: NodeId,
        path: &str,
        head_max: u64,
    ) -> Result<ReplyFuture<'static, (Metadata, Option<Bytes>)>> {
        let req = OpenFileReq { path: path.to_string(), head_max };
        self.unary_attempt::<op::OpenFile, _>(node, &req, Vec::new(), None, |r, file, _| {
            let whole = r.held && !file.is_empty() && file.len() as u64 == r.meta.size;
            Ok((r.meta, whole.then_some(file)))
        })
    }

    /// Update size (flush fan-out).
    pub fn update_size_nb(
        &self,
        node: NodeId,
        path: &str,
        size: u64,
        mtime_ns: u64,
    ) -> Result<ReplyFuture<'static, ()>> {
        let req = UpdateSizeReq {
            path: path.to_string(),
            size,
            mtime_ns,
        };
        self.unary_nb::<op::UpdateSize>(node, &req, Vec::new())
    }

    /// Fetch one page of a daemon's directory listing. `max_entries: 0`
    /// accepts the daemon's default page size; the returned cursor is
    /// empty when the listing is complete, otherwise it resumes the
    /// walk after the last entry returned.
    pub fn readdir_page_nb(
        &self,
        node: NodeId,
        dir: &str,
        cursor: &str,
        max_entries: u32,
    ) -> Result<ReplyFuture<'static, (Vec<Dirent>, String)>> {
        let req = ReaddirReq {
            dir: dir.to_string(),
            cursor: cursor.to_string(),
            max_entries,
        };
        self.unary_attempt::<op::ReadDir, _>(node, &req, Vec::new(), None, |r, _, _| {
            Ok((r.entries, r.next_cursor))
        })
    }

    /// Apply a batch of heterogeneous metadata ops as one frame; the
    /// reply is one verdict per op, in op order.
    ///
    /// A retried frame stays idempotent **per op**: verdicts travel
    /// inside an `Ok` frame where the frame-level `tolerate` hook never
    /// sees them, so the decoder applies `lost_reply_verdict` at op
    /// granularity. The ops are shared, not copied, between the
    /// replicas of one fan-out.
    pub fn batch_meta_nb(
        &self,
        node: NodeId,
        ops: Arc<[MetaOp]>,
    ) -> Result<ReplyFuture<'static, Vec<MetaVerdict>>> {
        let req = BatchMetaReq { ops };
        let ops = Arc::clone(&req.ops);
        self.unary_attempt::<op::BatchMeta, _>(
            node,
            &req,
            Vec::new(),
            None,
            move |r, _, attempt| {
                if r.results.len() != ops.len() {
                    return Err(GkfsError::Corruption(format!(
                        "batch reply arity {} != {} ops",
                        r.results.len(),
                        ops.len()
                    )));
                }
                Ok(r.results
                    .into_iter()
                    .zip(ops.iter())
                    .map(|(res, op)| match res.into_result() {
                        Err(e) if attempt > 0 => lost_reply_verdict(op, &e).ok_or(e),
                        verdict => verdict,
                    })
                    .collect())
            },
        )
    }

    /// Write one batch of chunks (write fan-out); `bulk`, concatenated,
    /// is the data in op order — typically one borrowed sub-slice of
    /// the caller's buffer per op, which a TCP endpoint sends from
    /// where it lies. Chunk writes are idempotent (same data, same
    /// place), so they retry freely, each attempt from the same
    /// borrowed slices.
    pub fn write_chunks_nb<'a>(
        &self,
        node: NodeId,
        path: &str,
        ops: Vec<ChunkOp>,
        bulk: Vec<&'a [u8]>,
    ) -> Result<ReplyFuture<'a, ()>> {
        let req = ChunkBatchReq {
            path: path.to_string(),
            ops,
        };
        self.unary_nb::<op::WriteChunks>(node, &req, bulk)
    }

    /// Write one batch of chunks to a member of the file's metadata
    /// write set, with the size candidate and the create that ride it
    /// ([`WriteFileReq`]). A frame carrying a create says so when it is
    /// sent again: the daemon cannot tell a replay from a first
    /// delivery, and this row's replay must write its bytes even though
    /// its create now finds the entry (`lost_reply_verdict`'s rule
    /// for `Create`, applied by the daemon because the bytes are there).
    pub fn write_file_nb<'a>(
        &self,
        node: NodeId,
        mut req: WriteFileReq,
        bulk: Vec<&'a [u8]>,
    ) -> Result<ReplyFuture<'a, ()>> {
        let first = op::WriteFile::request(&req);
        let again = if req.create.is_some() {
            req.resubmitted = true;
            op::WriteFile::request(&req)
        } else {
            first.clone()
        };
        self.attempt::<op::WriteFile, _>(node, first, again, bulk, None, |(), _, _| Ok(()))
    }

    /// Read one batch of chunks (read gather); returns per-op lengths,
    /// per-op absent-chunk flags, and the concatenated data.
    pub fn read_chunks_nb(
        &self,
        node: NodeId,
        path: &str,
        ops: Vec<ChunkOp>,
    ) -> Result<ReplyFuture<'static, ChunkReadReply>> {
        let n_ops = ops.len();
        let req = ChunkBatchReq {
            path: path.to_string(),
            ops,
        };
        self.unary_attempt::<op::ReadChunks, _>(node, &req, Vec::new(), None, move |r, bulk, _| {
            if r.lens.len() != n_ops {
                return Err(GkfsError::Rpc(format!(
                    "read reply shape mismatch: {} ops, {} lens",
                    n_ops,
                    r.lens.len()
                )));
            }
            Ok(ChunkReadReply {
                lens: r.lens,
                missing: r.missing,
                bulk,
            })
        })
    }

    /// Remove chunks `ids` of `path` from `node` (unlink fan-out); no
    /// ids means whatever it holds. Idempotent by construction
    /// (removing absent chunks is a no-op on the daemon), so it retries
    /// freely.
    pub fn remove_chunks_nb(
        &self,
        node: NodeId,
        path: &str,
        ids: Vec<u64>,
    ) -> Result<ReplyFuture<'static, ()>> {
        let req = RemoveChunksReq { path: path.to_string(), ids };
        self.unary_nb::<op::RemoveChunks>(node, &req, Vec::new())
    }

    /// Truncate chunks (truncate broadcast).
    pub fn truncate_chunks_nb(
        &self,
        node: NodeId,
        path: &str,
        keep_chunk: u64,
        keep_bytes: u64,
    ) -> Result<ReplyFuture<'static, ()>> {
        let req = TruncateChunksReq {
            path: path.to_string(),
            keep_chunk,
            keep_bytes,
        };
        self.unary_nb::<op::TruncateChunks>(node, &req, Vec::new())
    }

    /// Paths (and chunk counts) daemon `node` holds chunks for (fsck
    /// broadcast).
    pub fn chunk_inventory_nb(
        &self,
        node: NodeId,
    ) -> Result<ReplyFuture<'static, Vec<(String, u64)>>> {
        self.unary_attempt::<op::ChunkInventory, _>(node, &(), Vec::new(), None, |r, _, _| {
            Ok(r.entries)
        })
    }

    /// Daemon stats (cluster-stats broadcast).
    pub fn daemon_stats_nb(&self, node: NodeId) -> Result<ReplyFuture<'static, DaemonStatsResp>> {
        self.unary_nb::<op::DaemonStats>(node, &(), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkfs_common::DaemonConfig;
    use gkfs_daemon_for_tests::{make_ring, make_ring_of, make_sleepy_ring};
    use gkfs_rpc::{Fate, Link};

    /// Test-only helper building a ring of real in-process daemons.
    mod gkfs_daemon_for_tests {
        use super::*;

        pub fn fake_daemon() -> Arc<dyn Endpoint> {
            // The client crate must not depend on the daemon crate
            // (layering), so tests register a minimal fake daemon:
            // an echo for Ping and canned behaviour for Stat.
            let mut reg = gkfs_rpc::HandlerRegistry::new();
            reg.register_fn(Opcode::Ping, |req| gkfs_rpc::Response::ok(req.body));
            reg.register_fn(Opcode::Stat, |_req| {
                gkfs_rpc::Response::err(GkfsError::NotFound)
            });
            let server = gkfs_rpc::RpcServer::new(reg, 1);
            // Keep server alive by leaking its Arc into the endpoint
            // (endpoint holds the server internally).
            server.endpoint()
        }

        /// A daemon that refuses every submission.
        pub fn dead() -> Arc<dyn Endpoint> {
            let refusal = GkfsError::Rpc("daemon unreachable".into());
            Link::with_rule(fake_daemon(), move |_, _| Fate::Refuse(refusal.clone()))
        }

        pub fn make_ring(n: usize) -> DaemonRing {
            make_ring_of((0..n).map(|_| fake_daemon()).collect(), RetryConfig::default())
        }

        /// A ring over caller-supplied endpoints with explicit retry
        /// configuration — for fault-injection tests.
        pub fn make_ring_of(
            endpoints: Vec<Arc<dyn Endpoint>>,
            retry: RetryConfig,
        ) -> DaemonRing {
            DaemonRing::new(endpoints, retry, &ReplicationConfig::default())
        }

        /// A ring whose Ping handlers sleep `delay_ms` — for proving
        /// broadcast overlaps daemons instead of visiting them
        /// serially.
        pub fn make_sleepy_ring(n: usize, delay_ms: u64) -> DaemonRing {
            let mut endpoints: Vec<Arc<dyn Endpoint>> = Vec::new();
            for _ in 0..n {
                let mut reg = gkfs_rpc::HandlerRegistry::new();
                reg.register_fn(Opcode::Ping, move |req| {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    gkfs_rpc::Response::ok(req.body)
                });
                let server = gkfs_rpc::RpcServer::new(reg, 1);
                endpoints.push(server.endpoint());
            }
            make_ring_of(endpoints, RetryConfig::default())
        }

        #[allow(unused)]
        fn quiet(_: DaemonConfig) {}
    }

    /// The blocking call, spelled the one way the ring offers it.
    fn ping(ring: &DaemonRing, node: NodeId) -> Result<()> {
        ring.ping_nb(node)?.wait()
    }

    /// Fast deterministic retry knobs for tests.
    fn test_retry(max_attempts: u32) -> RetryConfig {
        RetryConfig {
            max_attempts,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            breaker_threshold: 0,
            op_deadline_ms: 5_000,
            ..RetryConfig::default()
        }
    }

    #[test]
    fn ping_and_stat_not_found() {
        let ring = make_ring(3);
        assert_eq!(ring.nodes(), 3);
        for n in 0..3 {
            ping(&ring, n).unwrap();
        }
        assert!(matches!(
            ring.meta_nb(1, MetaOp::Stat(PathReq::new("/x"))).unwrap().wait(),
            Err(GkfsError::NotFound)
        ));
    }

    #[test]
    fn out_of_range_node_is_rpc_error() {
        let ring = make_ring(2);
        assert!(matches!(ping(&ring, 5), Err(GkfsError::Rpc(_))));
        assert!(ring.ping_nb(5).is_err());
        assert!(ring.node_health(5).is_err());
        assert_eq!(ring.reconnects(5), 0);
    }

    #[test]
    fn broadcast_hits_every_node_in_order() {
        let ring = make_ring(4);
        let results = ring.broadcast(|n| ring.ping_nb(n));
        assert_eq!(results.len(), 4);
        for r in results {
            r.unwrap();
        }
    }

    #[test]
    fn broadcast_pipelines_across_nodes() {
        // 4 daemons × 60 ms of handler work each: a serial visit costs
        // 240 ms, the submit-all-then-wait-all broadcast ~60 ms.
        let ring = make_sleepy_ring(4, 60);
        let t0 = std::time::Instant::now();
        let results = ring.broadcast(|n| ring.ping_nb(n));
        for r in results {
            r.unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "broadcast visited daemons serially: {elapsed:?}"
        );
    }

    #[test]
    fn nonblocking_submit_returns_before_completion() {
        let ring = make_sleepy_ring(1, 80);
        let t0 = std::time::Instant::now();
        let fut = ring.ping_nb(0).unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(50),
            "submit must not block on the handler"
        );
        fut.wait().unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(80));
    }

    #[test]
    fn retry_absorbs_flaky_submissions() {
        // Every 2nd submission errors; 4 attempts make each ping
        // reliable. Health counters record the recovery.
        let flaky: Arc<dyn Endpoint> = Link::with_rule(
            gkfs_daemon_for_tests::fake_daemon(),
            Fate::Refuse(GkfsError::Rpc("injected fault".into())).every(2),
        );
        let ring = make_ring_of(vec![flaky], test_retry(4));
        for _ in 0..10 {
            ping(&ring, 0).unwrap();
        }
        let h = ring.node_health(0).unwrap();
        assert!(h.retries() >= 5, "flaky submits must be retried: {}", h.retries());
        assert!(h.failures() >= 5);
        assert_eq!(h.consecutive_failures(), 0, "successes reset the streak");
    }

    #[test]
    fn disabled_retry_restores_single_attempt_semantics() {
        let flaky: Arc<dyn Endpoint> = Link::with_rule(
            gkfs_daemon_for_tests::fake_daemon(),
            Fate::Refuse(GkfsError::Rpc("injected fault".into())).every(2),
        );
        let ring = make_ring_of(vec![flaky], RetryConfig::disabled());
        let outcomes: Vec<bool> = (0..6).map(|_| ping(&ring, 0).is_ok()).collect();
        assert_eq!(outcomes, vec![true, false, true, false, true, false]);
        assert_eq!(ring.node_health(0).unwrap().retries(), 0);
    }

    #[test]
    fn retried_create_tolerates_exists_from_lost_reply() {
        // A create whose *reply* is lost was still applied by the
        // daemon; the retried attempt sees Exists and must report
        // success — and the entry must have been created exactly once.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let created = Arc::new(Mutex::new(HashSet::<String>::new()));
        let inserts = Arc::new(AtomicU64::new(0));
        let mut reg = gkfs_rpc::HandlerRegistry::new();
        {
            let created = Arc::clone(&created);
            let inserts = Arc::clone(&inserts);
            reg.serve::<op::Create>(move |r| {
                if !created.lock().unwrap().insert(r.path) {
                    return Err(GkfsError::Exists);
                }
                inserts.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        }
        reg.register_fn(Opcode::Ping, |req| gkfs_rpc::Response::ok(req.body));
        let server = gkfs_rpc::RpcServer::new(reg, 1);
        // Reply-path fault every 2nd call; a ping consumes call #1 so
        // the create's first attempt is the one that loses its reply.
        let flaky: Arc<dyn Endpoint> = Link::with_rule(
            server.endpoint(),
            Fate::FailReply(GkfsError::Rpc("injected reply fault".into())).every(2),
        );
        let ring = make_ring_of(vec![flaky], test_retry(4));
        ping(&ring, 0).unwrap();
        let create = MetaOp::Create(CreateReq {
            path: "/lost-reply".into(),
            kind: FileKind::File,
            mode: 0o644,
            exclusive: true,
            now_ns: 1,
        });
        ring.meta_nb(0, create.clone()).unwrap().wait().unwrap();
        assert_eq!(
            inserts.load(Ordering::Relaxed),
            1,
            "retried create must be exactly-once-observable"
        );
        // A genuine duplicate create (first attempt answered, via a
        // healthy endpoint) still surfaces Exists — tolerance only
        // covers retried attempts.
        let clean = make_ring_of(vec![server.endpoint()], test_retry(4));
        match clean.meta_nb(0, create).unwrap().wait() {
            Err(GkfsError::Exists) => {}
            other => panic!("fresh duplicate create must fail: {other:?}"),
        }
    }

    #[test]
    fn a_reply_whose_kind_byte_is_no_kind_is_corruption_not_a_directory() {
        // The daemon validates kinds it receives; the client must do
        // the same with kinds it is sent, not read "anything non-zero"
        // as a directory.
        let mut reg = gkfs_rpc::HandlerRegistry::new();
        reg.register_fn(Opcode::RemoveMeta, |_| {
            let mut removed = Metadata::new_file(0).encode();
            removed[0] = 7;
            Response::ok(removed)
        });
        reg.register_fn(Opcode::ReadDir, |_| {
            // Empty cursor; one entry: name "x", kind 7, size 0.
            let mut e = gkfs_common::wire::Encoder::new();
            e.str("").count(1).str("x").u8(7).u64(0);
            Response::ok(e.into_vec())
        });
        let server = gkfs_rpc::RpcServer::new(reg, 1);
        let ring = make_ring_of(vec![server.endpoint()], test_retry(1));
        assert!(matches!(
            ring.meta_nb(0, MetaOp::Unlink(PathReq::new("/f"))).unwrap().wait(),
            Err(GkfsError::Corruption(_))
        ));
        assert!(matches!(
            ring.readdir_page_nb(0, "/", "", 0).unwrap().wait(),
            Err(GkfsError::Corruption(_))
        ));
    }

    #[test]
    fn retried_chunk_write_resends_the_borrowed_segments() {
        // Over real TCP, a chunk write whose first reply is lost to a
        // severed connection is sent again from the same borrowed
        // slices: the daemon sees the identical payload twice, and no
        // attempt copied a byte on the way to the socket.
        use std::sync::{Mutex, OnceLock};
        let seen = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
        let server_slot = Arc::new(OnceLock::<Arc<gkfs_rpc::TcpServer>>::new());
        let mut reg = gkfs_rpc::HandlerRegistry::new();
        {
            let seen = Arc::clone(&seen);
            let server_slot = Arc::clone(&server_slot);
            reg.register_fn(Opcode::WriteChunks, move |req| {
                let mut seen = seen.lock().unwrap();
                seen.push(req.bulk.to_vec());
                if seen.len() == 1 {
                    // Applied, but the reply will find its socket gone.
                    server_slot.get().unwrap().sever_connections();
                }
                gkfs_rpc::Response::ok(Bytes::new())
            });
        }
        let server = gkfs_rpc::TcpServer::bind("127.0.0.1:0", reg, 1).unwrap();
        assert!(server_slot.set(Arc::clone(&server)).is_ok());
        let ep: Arc<dyn Endpoint> =
            gkfs_rpc::TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let ring = make_ring_of(vec![ep], test_retry(8));

        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let ops = vec![
            ChunkOp { chunk_id: 0, offset: 0, len: 100_000 },
            ChunkOp { chunk_id: 2, offset: 0, len: 200_000 },
        ];
        ring.write_chunks_nb(0, "/retried", ops, vec![&data[..100_000], &data[100_000..]])
            .unwrap()
            .wait()
            .unwrap();

        let seen = seen.lock().unwrap();
        assert!(seen.len() >= 2, "the lost reply must force a resend");
        for (attempt, bulk) in seen.iter().enumerate() {
            assert!(bulk == &data, "attempt {attempt} carried different bytes");
        }
        assert!(ring.node_health(0).unwrap().retries() >= 1);
        assert!(ring.reconnects(0) >= 1, "the resend used a fresh connection");
        assert_eq!(ring.gather_copy_counter().load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    #[test]
    fn inproc_chunk_write_copies_each_byte_once() {
        // The control for the zero above: an endpoint that cannot send
        // borrowed segments concatenates them, and the ring counts it.
        let mut reg = gkfs_rpc::HandlerRegistry::new();
        reg.register_fn(Opcode::WriteChunks, |req| {
            gkfs_rpc::Response::ok(Bytes::new()).with_bulk(req.bulk)
        });
        let server = gkfs_rpc::RpcServer::new(reg, 1);
        let ring = make_ring_of(vec![server.endpoint()], test_retry(1));
        let data = vec![7u8; 5000];
        let ops = vec![ChunkOp { chunk_id: 0, offset: 0, len: 5000 }];
        ring.write_chunks_nb(0, "/copied", ops, vec![&data[..1000], &data[1000..]])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ring.gather_copy_counter().load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let dead = gkfs_daemon_for_tests::dead();
        let cfg = RetryConfig {
            max_attempts: 1,
            breaker_threshold: 3,
            breaker_cooldown_ms: 40,
            op_deadline_ms: 0,
            ..RetryConfig::default()
        };
        let ring = make_ring_of(vec![dead], cfg);
        for _ in 0..3 {
            assert!(matches!(ping(&ring, 0), Err(GkfsError::Rpc(_))));
        }
        let h = ring.node_health(0).unwrap();
        assert_eq!(h.breaker_state(), BreakerState::Open);
        assert_eq!(h.consecutive_failures(), 3);
        // While open: fail fast with Unavailable, no request sent.
        let before = h.failures();
        match ping(&ring, 0) {
            Err(GkfsError::Unavailable(_)) => {}
            other => panic!("open breaker must fail fast: {other:?}"),
        }
        assert_eq!(h.failures(), before, "denied request is not a failure");
        // After the cooldown one probe goes through (and fails again
        // here — the endpoint is really dead).
        std::thread::sleep(Duration::from_millis(60));
        assert!(matches!(ping(&ring, 0), Err(GkfsError::Rpc(_))));
        assert_eq!(h.breaker_state(), BreakerState::Open, "failed probe reopens");
    }

    #[test]
    fn hedge_window_expiry_records_nothing_with_the_breaker() {
        // A 120 ms handler against a 10 ms hedge window: the wait
        // comes back Pending, and the slow-but-alive node's health is
        // untouched — hedging must not trip breakers (the replica that
        // wins the race says nothing about this node being down).
        let ring = make_sleepy_ring(1, 120);
        let fut = ring.ping_nb(0).unwrap();
        let pending = match fut.wait_hedge(Some(Duration::from_millis(10))) {
            Hedge::Pending(fut) => fut,
            Hedge::Ready(_) => panic!("120 ms handler must out-sleep a 10 ms hedge window"),
        };
        let h = ring.node_health(0).unwrap();
        assert_eq!(h.consecutive_failures(), 0, "hedge expiry is not a failure");
        assert_eq!(h.failures(), 0);
        assert_eq!(ring.health_snapshot()[0].liveness, Liveness::Alive);
        // Last resort: the stashed future still completes — by waiting
        // for the reply it was already promised, which is no failure.
        pending.wait_deadline(ring.op_deadline()).unwrap();
        assert_eq!(h.consecutive_failures(), 0);
        assert_eq!((h.failures(), h.retries()), (0, 0), "driving the stashed future");
    }

    #[test]
    fn a_failure_seen_by_the_hedge_window_is_charged_once() {
        // One severed member, one hedged read. The window sees the
        // transport failure, charges it and parks it in the future;
        // driving the future finds that same failure before it has sent
        // anything and charged it again — one fault, two strikes, and a
        // `breaker_threshold` of 2 opened on a single lost reply. Both
        // places a window can meet a failure: the reply, the submission.
        let lost_reply: Arc<dyn Endpoint> = Link::with_rule(
            gkfs_daemon_for_tests::fake_daemon(),
            Fate::FailReply(GkfsError::Rpc("injected reply fault".into())).every(1),
        );
        for severed in [lost_reply, gkfs_daemon_for_tests::dead()] {
            let cfg = RetryConfig { breaker_threshold: 2, ..test_retry(1) };
            let ring = make_ring_of(vec![severed], cfg);
            let pending = match ring.ping_nb(0).unwrap().wait_hedge(Some(Duration::from_millis(50))) {
                Hedge::Pending(fut) => fut,
                Hedge::Ready(r) => panic!("a severed member must stay pending: {:?}", r.err()),
            };
            assert!(matches!(pending.wait_deadline(ring.op_deadline()), Err(GkfsError::Rpc(_))));
            let h = ring.node_health(0).unwrap();
            assert_eq!((h.failures(), h.consecutive_failures()), (1, 1));
            assert_eq!(h.breaker_state(), BreakerState::Closed, "one fault is one strike");
        }
    }

    #[test]
    fn hedge_pending_future_waits_for_the_reply_already_in_flight() {
        // The same slow node with retries off: the future handed back
        // still holds the request in flight, so driving it waits out
        // the remaining ~110 ms and succeeds. Re-sending instead ran
        // the handler twice and billed the node a transport failure;
        // with one attempt allowed it failed on the spot.
        let calls = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut reg = gkfs_rpc::HandlerRegistry::new();
        let seen = calls.clone();
        reg.register_fn(Opcode::Ping, move |req| {
            seen.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(120));
            gkfs_rpc::Response::ok(req.body)
        });
        let server = gkfs_rpc::RpcServer::new(reg, 1);
        let ring = make_ring_of(vec![server.endpoint()], RetryConfig::disabled());
        let pending = match ring.ping_nb(0).unwrap().wait_hedge(Some(Duration::from_millis(10))) {
            Hedge::Pending(fut) => fut,
            Hedge::Ready(_) => panic!("120 ms handler must out-sleep a 10 ms hedge window"),
        };
        pending.wait_deadline(ring.op_deadline()).unwrap();
        let h = ring.node_health(0).unwrap();
        assert_eq!((h.failures(), h.retries()), (0, 0));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the handler ran once");
    }

    #[test]
    fn no_hedge_window_waits_the_node_out() {
        // Hedging off (`None`): a 120 ms handler is simply waited for,
        // up to the endpoint timeout — the future never comes back
        // pending the way it does under a 10 ms window above.
        let ring = make_sleepy_ring(1, 120);
        match ring.ping_nb(0).unwrap().wait_hedge(None) {
            Hedge::Ready(r) => r.unwrap(),
            Hedge::Pending(_) => panic!("no window, yet the wait gave up on a live node"),
        }
    }

    #[test]
    fn hedge_on_dead_node_is_a_genuine_failure() {
        let dead = gkfs_daemon_for_tests::dead();
        let ring = make_ring_of(vec![dead], test_retry(1));
        match ring.ping_nb(0).unwrap().wait_hedge(Some(Duration::from_millis(5))) {
            Hedge::Pending(_) => {}
            Hedge::Ready(r) => panic!("dead endpoint must stay pending: {:?}", r.err()),
        }
        let h = ring.node_health(0).unwrap();
        assert!(h.failures() >= 1, "a dead transport is a real failure");
    }

    #[test]
    fn hedge_completes_within_window() {
        let ring = make_ring(1);
        match ring.ping_nb(0).unwrap().wait_hedge(Some(Duration::from_millis(2_000))) {
            Hedge::Ready(r) => r.unwrap(),
            Hedge::Pending(_) => panic!("fast reply must complete inside the window"),
        }
        assert_eq!(ring.health_snapshot()[0].liveness, Liveness::Alive);
    }

    #[test]
    fn detector_sees_rpc_outcomes() {
        let dead = gkfs_daemon_for_tests::dead();
        let repl = ReplicationConfig {
            suspect_after_ms: 10,
            dead_after_ms: 30,
            ..ReplicationConfig::default()
        };
        let ring = DaemonRing::new(vec![dead], test_retry(1), &repl);
        assert!(ping(&ring, 0).is_err());
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(ring.detector().liveness(0), Liveness::Dead);
        assert_eq!(ring.health_snapshot()[0].liveness, Liveness::Dead);
    }

    #[test]
    fn deadline_bounds_aggregate_wait() {
        // Endless retryable failures against a 150 ms operation
        // deadline: the wait must stop near the deadline, not burn
        // max_attempts × timeout.
        let dead = gkfs_daemon_for_tests::dead();
        let cfg = RetryConfig {
            max_attempts: 1_000,
            base_backoff_ms: 5,
            max_backoff_ms: 10,
            breaker_threshold: 0,
            op_deadline_ms: 150,
            ..RetryConfig::default()
        };
        let ring = make_ring_of(vec![dead], cfg);
        let t0 = std::time::Instant::now();
        assert!(ping(&ring, 0).is_err());
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "deadline must bound the retry loop, took {elapsed:?}"
        );
    }
}
