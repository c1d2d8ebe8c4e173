//! Transports: how a request reaches a daemon.
//!
//! Both transports implement [`Endpoint`], the client's view of one
//! daemon. The file-system layers above never know which transport is
//! in use — exactly Mercury's portability property that the paper
//! leans on ("GekkoFS should be hardware independent", §III).
//!
//! The API is **submission/completion**, mirroring Margo: a
//! nonblocking [`Endpoint::submit`] is `margo_iforward` (the request
//! is on the wire / on the handler pool when it returns) and
//! [`ReplyHandle::wait`] is `margo_wait`. The blocking
//! [`Endpoint::call`] is a convenience built from the two. Wide
//! striping only pays off when one client thread can keep many
//! daemons busy simultaneously (§III-B), which is exactly what
//! submit-all-then-wait-all enables.
//!
//! A reply reaches its waiter one of two ways. The in-process transport
//! (and a link's held messages) sends it over a one-shot
//! `std::sync::mpsc` channel ([`ReplyHandle::pending`] takes the
//! receiving end). A TCP connection
//! keeps one completion table instead, and the waiter itself reads the
//! socket when it is the only one who could be waiting ([`tcp`]) — a
//! chunk read's waiter receiving the reply's bulk straight into its
//! result ([`ReplyHandle::land_within`], [`Landing`]). On the
//! daemon side both transports serve requests through one
//! [`Handlers`]: the registry, its counters and the handler pool, with
//! the one "dispatch, record, deliver" routine — and the one rule
//! (`Handlers::runs_inline`) by which a TCP server's progress loop
//! answers a small point op itself instead of queueing it. A daemon
//! builds it once and serves both transports from it.

use crate::handler::HandlerRegistry;
use crate::message::{Request, Response, Status};
use crate::proto::{ChunkBatchReq, ServeClass};
use crate::stats::RpcStats;
use gkfs_common::lock::{self, rank};
use gkfs_common::{GkfsError, Result, TaskPool};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

pub mod inproc;
mod landing;
pub mod tcp;

pub use landing::Landing;

/// Default per-call timeout used by [`EndpointOptions::default`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Construction options shared by both transports.
///
/// One builder replaces the old `connect`/`connect_with_timeout` and
/// `endpoint`/`endpoint_with_timeout` constructor pairs:
///
/// ```ignore
/// let ep = TcpEndpoint::connect_with(addr, EndpointOptions::new().with_timeout(t))?;
/// let ep = server.endpoint_with(EndpointOptions::new().with_timeout(t));
/// ```
#[derive(Debug, Clone)]
pub struct EndpointOptions {
    /// Per-call timeout applied by [`Endpoint::call`]; also the
    /// timeout reported by [`Endpoint::timeout`] for callers that
    /// `wait` on submitted handles themselves.
    pub timeout: Duration,
}

impl Default for EndpointOptions {
    fn default() -> EndpointOptions {
        EndpointOptions {
            timeout: DEFAULT_TIMEOUT,
        }
    }
}

impl EndpointOptions {
    /// Options with all defaults.
    pub fn new() -> EndpointOptions {
        EndpointOptions::default()
    }

    /// Set the per-call timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> EndpointOptions {
        self.timeout = timeout;
        self
    }
}

/// Queue slots per worker in a daemon's handler pool. With nonblocking
/// client submission the queue is the only thing bounding a daemon's
/// memory under overload; once it fills, the enqueuer blocks (the
/// in-process client, or a TCP server's loop, whose stalled sockets
/// then push back to the peers) — back-pressure, not OOM.
pub const SERVER_QUEUE_PER_WORKER: usize = 256;

/// Largest frame payload a TCP server's loop serves itself, and the
/// most bytes a chunk batch may name to count as a point op. Sized for
/// the small-I/O shapes the paper cares about (an 8 KiB transfer, a
/// 64-path metadata batch) with room to spare; a 512 KiB chunk is two
/// orders of magnitude away.
pub const SMALL_FRAME: usize = 16 * 1024;

/// The serving half both transports share — Margo's execution model:
/// the transport is the *progress* side (it pulls requests off the
/// network or out of a client's hands), a fixed pool of handler
/// threads is the *handling* side, sized statically as GekkoFS daemons
/// do (paper §IV). Margo's hand-off between the two is a user-level
/// context switch; here it is an OS-thread wake-up, so the TCP progress
/// side keeps the requests `Handlers::runs_inline` admits. A daemon has
/// one: its in-process server and its TCP server are bound on it
/// ([`RpcServer::on`](crate::RpcServer::on),
/// [`TcpServer::bind_on`](crate::TcpServer::bind_on)), and its chunk
/// store runs its segments on the same pool.
pub struct Handlers {
    // Shared with the queued jobs one by one: a job must not own the
    // pool it runs on (the last owner joins the workers).
    registry: Arc<HandlerRegistry>,
    pub(crate) stats: Arc<RpcStats>,
    pub(crate) pool: TaskPool,
}

/// A handler pool of `threads` workers (min 1) behind a queue of
/// [`SERVER_QUEUE_PER_WORKER`] slots each — what [`Handlers::new`]
/// takes, made first when something the registry captures (a daemon's
/// chunk store) runs on it too.
pub fn handler_pool(threads: usize) -> TaskPool {
    let threads = threads.max(1);
    TaskPool::new("handler", threads, threads * SERVER_QUEUE_PER_WORKER, rank::RPC_HANDLER_QUEUE)
}

/// Dispatch `req` and record its response.
fn run(registry: &HandlerRegistry, stats: &RpcStats, req: Request) -> Response {
    let resp = registry.dispatch(req);
    stats.record_response(matches!(resp.status, Status::Ok));
    resp
}

impl Handlers {
    /// Serve `registry` on `pool` ([`handler_pool`]), counting into
    /// `stats`.
    pub fn new(registry: HandlerRegistry, pool: TaskPool, stats: Arc<RpcStats>) -> Arc<Handlers> {
        Arc::new(Handlers { registry: Arc::new(registry), stats, pool })
    }

    /// The counters of every request served here, over either
    /// transport.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// The pool, through a handle that does not join it.
    pub fn pool(&self) -> gkfs_common::PoolHandle {
        self.pool.handle()
    }

    /// The inline-or-pool rule of a byte-stream server, the only one:
    /// the thread that read `req` off its connection runs it to
    /// completion when the frame is small (`frame_len` payload bytes),
    /// nothing else is waiting behind it in that connection's read
    /// buffer (`more_buffered` — a pipelining client gets the pool's
    /// parallelism and its bounded queue, as before), and the row is a
    /// point op by its declared [`ServeClass`]. Everything else takes
    /// [`Handlers::serve`].
    pub(crate) fn runs_inline(&self, req: &Request, frame_len: usize, more_buffered: bool) -> bool {
        if more_buffered || frame_len > SMALL_FRAME {
            return false;
        }
        match req.opcode.class() {
            ServeClass::Point => true,
            ServeClass::Group => !self.registry.has_logged_store(),
            ServeClass::Chunks => ChunkBatchReq::names_at_most(&req.body, SMALL_FRAME as u64),
            ServeClass::Pool => false,
        }
    }

    /// Dispatch `req` on the calling thread and record the response.
    pub(crate) fn serve_inline(&self, req: Request) -> Response {
        self.stats.served_inline.fetch_add(1, Ordering::Relaxed);
        run(&self.registry, &self.stats, req)
    }

    /// Queue `req` for a handler thread — blocking while the queue is
    /// full — which dispatches it, records the response and hands it to
    /// `deliver` (a socket write, a channel send).
    pub(crate) fn serve(&self, req: Request, deliver: impl FnOnce(Response) + Send + 'static) {
        self.stats.served_pooled.fetch_add(1, Ordering::Relaxed);
        let registry = Arc::clone(&self.registry);
        let stats = Arc::clone(&self.stats);
        self.pool.submit(move || deliver(run(&registry, &stats, req)));
    }
}

enum ReplySource {
    /// Outcome will arrive on this channel (transport completion). The
    /// transport sends `Ok(resp)` on a normal reply, or `Err(e)` to
    /// fail the request with a *typed* cause so callers can classify it
    /// for retry; if it drops the sender instead, the wait fails fast
    /// with `disconnect`.
    Waiting {
        rx: Receiver<Result<Response>>,
        disconnect: GkfsError,
    },
    /// Result was known at submission time (a link's rule, fast errors).
    Ready(Result<Response>),
    /// A slot in a TCP connection's completion table.
    Slot(tcp::Ticket),
    /// Never completes: the request or its reply was lost on purpose.
    Lost,
}

/// An in-flight RPC: the completion half of [`Endpoint::submit`].
///
/// A handle that is dropped before its reply arrives — a [`wait`] that
/// timed out drops it — gives its correlation state back to the
/// transport, so abandoned requests leak nothing and a late reply is
/// discarded.
///
/// [`wait`]: ReplyHandle::wait
#[must_use = "an RPC's reply and its error arrive only through `wait`"]
pub struct ReplyHandle {
    source: ReplySource,
}

impl ReplyHandle {
    /// A handle completed by sending on the paired channel. If the
    /// sender is dropped first (connection closed, server shut down),
    /// `wait` fails fast with the disconnect error instead of burning
    /// the full timeout.
    pub fn pending(rx: Receiver<Result<Response>>) -> ReplyHandle {
        ReplyHandle {
            source: ReplySource::Waiting {
                rx,
                disconnect: GkfsError::Rpc("connection closed".into()),
            },
        }
    }

    /// A handle whose outcome is already known (a link's rule).
    pub fn ready(result: Result<Response>) -> ReplyHandle {
        ReplyHandle {
            source: ReplySource::Ready(result),
        }
    }

    /// A handle whose reply never comes: every wait runs out its
    /// window, as on a request or reply lost on the wire.
    pub fn lost() -> ReplyHandle {
        ReplyHandle { source: ReplySource::Lost }
    }

    /// A handle on a slot of a TCP connection's completion table.
    pub(crate) fn slot(ticket: tcp::Ticket) -> ReplyHandle {
        ReplyHandle {
            source: ReplySource::Slot(ticket),
        }
    }

    /// Set the error a [`ReplyHandle::pending`] handle reports when the
    /// transport disconnects before responding.
    pub fn on_disconnect(mut self, e: GkfsError) -> ReplyHandle {
        if let ReplySource::Waiting { disconnect, .. } = &mut self.source {
            *disconnect = e;
        }
        self
    }

    /// Wait up to `window` for the outcome (transport-level; the
    /// application status still rides inside the [`Response`]):
    ///
    /// * response arrived → `Some(Ok(resp))`
    /// * transport failed the request with a typed cause (connection
    ///   reset, corrupt frame) → `Some` of that error, immediately
    /// * transport died without a cause → `Some` of the disconnect
    ///   error, immediately
    /// * `window` elapsed → `None`, and nothing is given up: the request
    ///   stays in flight and the handle can be waited on again — a
    ///   hedge's first look at a reply it still wants.
    ///
    /// After `Some` the handle is spent.
    pub fn wait_within(&mut self, window: Duration) -> Option<Result<Response>> {
        lock::assert_unguarded("ReplyHandle::wait_within");
        match &mut self.source {
            ReplySource::Ready(result) => {
                Some(std::mem::replace(result, Err(GkfsError::Rpc("reply already taken".into()))))
            }
            ReplySource::Waiting { rx, disconnect } => match rx.recv_timeout(window) {
                Ok(outcome) => Some(outcome),
                Err(RecvTimeoutError::Disconnected) => Some(Err(disconnect.clone())),
                Err(RecvTimeoutError::Timeout) => None,
            },
            ReplySource::Slot(ticket) => ticket.wait_within(window, None),
            ReplySource::Lost => {
                std::thread::sleep(window);
                None
            }
        }
    }

    /// [`ReplyHandle::wait_within`] for a `ReadChunks` reply, whose bulk
    /// lands in `land`'s windows instead of the response, which comes
    /// back with its bulk empty. A TCP waiter that reads its own reply
    /// receives the bulk straight into the windows; any other reply —
    /// parked by another TCP reader, held by a link, the in-process
    /// transport's — is copied in once, and the copy counted
    /// ([`Landing::copied`]). On an error nothing is resolved, though a
    /// window may hold part of a reply.
    pub fn land_within(&mut self, window: Duration, land: &mut Landing<'_>) -> Option<Result<Response>> {
        if let ReplySource::Slot(ticket) = &mut self.source {
            lock::assert_unguarded("ReplyHandle::land_within");
            return ticket.wait_within(window, Some(land));
        }
        Some(self.wait_within(window)?.and_then(|resp| land.absorb(resp)))
    }

    /// Block until the response arrives, as
    /// [`wait_within`](ReplyHandle::wait_within) does, or `timeout`
    /// elapses → `Err(Timeout)`, and the handle, dropped here, gives up
    /// its pending slot so a late response cannot leak it.
    pub fn wait(mut self, timeout: Duration) -> Result<Response> {
        self.wait_within(timeout).unwrap_or(Err(GkfsError::Timeout))
    }
}

/// A client's handle to one daemon.
///
/// Implementations must be usable concurrently from many threads; the
/// client library pipelines chunk operations by submitting to every
/// responsible daemon before waiting on any reply.
pub trait Endpoint: Send + Sync {
    /// Nonblocking submission (`margo_iforward`): hand `req` to the
    /// transport and return immediately with a [`ReplyHandle`].
    /// Transport-level submission failures surface as `Err`;
    /// application errors ride inside the eventual [`Response`].
    fn submit(&self, req: Request) -> Result<ReplyHandle>;

    /// The per-call timeout [`Endpoint::call`] applies, exposed so
    /// callers driving `submit`/`wait` themselves honor the endpoint's
    /// configuration: the client's retry layer waits this long per
    /// attempt, and with hedging off (`hedge_after_ms: 0`) it is how
    /// long a read waits on one replica before asking the next.
    fn timeout(&self) -> Duration {
        DEFAULT_TIMEOUT
    }

    /// [`Endpoint::submit`] with the bulk payload given as borrowed
    /// pieces: the request's bulk is `segments` concatenated in order
    /// (`req.bulk` is replaced). The segments are borrowed for the
    /// duration of the call only — when it returns, the transport has
    /// either put them on the wire or copied them.
    ///
    /// The default copies: it concatenates once ([`concat_segments`])
    /// and calls `submit`, which is what a transport that hands the
    /// request to another thread has to do, and what keeps decorator
    /// endpoints that only know `submit` correct. A transport that
    /// writes the frame before returning overrides it to send the
    /// segments where they lie ([`tcp::TcpEndpoint`]).
    fn submit_gather(&self, mut req: Request, segments: &[&[u8]]) -> Result<ReplyHandle> {
        req.bulk = concat_segments(segments);
        self.submit(req)
    }

    /// Blocking convenience: `submit` + `wait` (`margo_forward`).
    fn call(&self, req: Request) -> Result<Response> {
        self.submit(req)?.wait(self.timeout())
    }

    /// How many times this endpoint has re-established its underlying
    /// connection. The in-process transport, which has none, reports
    /// zero forever.
    fn reconnects(&self) -> u64 {
        0
    }
}

thread_local! {
    /// Bytes this thread has copied in [`concat_segments`].
    static GATHER_COPY_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The one copy of the gather path: `segments` concatenated into an
/// owned buffer, for transports that cannot send borrowed pieces. Every
/// byte copied is counted against the calling thread
/// ([`gather_copy_bytes`]).
pub fn concat_segments(segments: &[&[u8]]) -> bytes::Bytes {
    let buf = segments.concat();
    GATHER_COPY_BYTES.with(|c| c.set(c.get() + buf.len() as u64));
    bytes::Bytes::from(buf)
}

/// Bytes the calling thread has copied in [`concat_segments`] so far.
/// A caller reads it before and after [`Endpoint::submit_gather`] to
/// learn what that submission copied, whichever endpoint — decorated or
/// not — served it; `submit_gather` runs on the caller's thread, so the
/// difference is exact under any concurrency.
pub fn gather_copy_bytes() -> u64 {
    GATHER_COPY_BYTES.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Opcode;
    use std::sync::mpsc::sync_channel;
    use std::sync::Arc;

    #[test]
    fn ready_handle_returns_immediately() {
        let h = ReplyHandle::ready(Ok(Response::ok(&b"now"[..])));
        let resp = h.wait(Duration::from_millis(1)).unwrap();
        assert_eq!(&resp.body[..], b"now");
    }

    #[test]
    fn disconnect_fails_fast_with_custom_error() {
        let (tx, rx) = sync_channel::<Result<Response>>(1);
        let h = ReplyHandle::pending(rx).on_disconnect(GkfsError::ShuttingDown);
        drop(tx);
        let t0 = std::time::Instant::now();
        assert!(matches!(
            h.wait(Duration::from_secs(30)),
            Err(GkfsError::ShuttingDown)
        ));
        assert!(t0.elapsed() < Duration::from_secs(1), "must not burn the timeout");
    }

    #[test]
    fn typed_failure_travels_over_the_channel() {
        let (tx, rx) = sync_channel::<Result<Response>>(1);
        let h = ReplyHandle::pending(rx);
        tx.send(Err(GkfsError::Corruption("bad frame".into()))).unwrap();
        assert!(matches!(
            h.wait(Duration::from_secs(1)),
            Err(GkfsError::Corruption(_))
        ));
    }

    #[test]
    fn inline_rule_follows_class_frame_size_and_read_buffer() {
        use crate::proto::{body_of, ChunkOp};
        let chunks = |opcode, len| {
            let batch = ChunkBatchReq {
                path: "/f".into(),
                ops: vec![ChunkOp { chunk_id: 0, offset: 0, len }],
            };
            Request::new(opcode, body_of(&batch))
        };
        let point = Request::new(Opcode::Stat, Vec::new());
        let group = Request::new(Opcode::BatchMeta, Vec::new());
        let h = Handlers::new(HandlerRegistry::new(), handler_pool(1), Default::default());
        assert!(h.runs_inline(&point, 64, false));
        assert!(!h.runs_inline(&point, 64, true), "a frame is pipelined behind it");
        assert!(!h.runs_inline(&point, SMALL_FRAME + 1, false), "not a small frame");
        assert!(!h.runs_inline(&Request::new(Opcode::DaemonStats, Vec::new()), 16, false));
        assert!(!h.runs_inline(&Request::new(Opcode::Ping, Vec::new()), 16, false));
        assert!(h.runs_inline(&group, 4096, false));
        // A chunk batch counts by the bytes it names: a read's request
        // frame is small whatever its reply will be.
        assert!(h.runs_inline(&chunks(Opcode::ReadChunks, 8192), 64, false));
        assert!(!h.runs_inline(&chunks(Opcode::ReadChunks, 512 * 1024), 64, false));
        assert!(h.runs_inline(&chunks(Opcode::WriteChunks, 8192), 8192 + 64, false));
        // A `WriteFile` body is a batch with its riders behind it, and
        // is classed by the same peek.
        let file = |len| {
            let batch = ChunkBatchReq { path: "/f".into(), ops: vec![ChunkOp { chunk_id: 0, offset: 0, len }] };
            let req = crate::proto::WriteFileReq { batch, size: None, create: None, resubmitted: false };
            Request::new(Opcode::WriteFile, body_of(&req))
        };
        assert!(h.runs_inline(&file(4096), 4096 + 64, false));
        assert!(!h.runs_inline(&file(512 * 1024), 64, false));
        // With a logged metadata store a group apply may wait on the
        // device: pooled. Point rows stay.
        let mut logged = HandlerRegistry::new();
        logged.logged_store(true);
        let h = Handlers::new(logged, handler_pool(1), Default::default());
        assert!(!h.runs_inline(&group, 4096, false));
        assert!(h.runs_inline(&point, 64, false));
    }

    #[test]
    fn switch_endpoint_redirects_new_submissions() {
        struct Fixed(&'static [u8]);
        impl Endpoint for Fixed {
            fn submit(&self, _req: Request) -> Result<ReplyHandle> {
                Ok(ReplyHandle::ready(Ok(Response::ok(self.0))))
            }
        }
        let sw = crate::Link::new(Arc::new(Fixed(b"old")));
        let r = sw.submit(Request::new(Opcode::Ping, Vec::new())).unwrap();
        assert_eq!(&r.wait(Duration::from_secs(1)).unwrap().body[..], b"old");
        sw.swap(Arc::new(Fixed(b"new")));
        let r = sw.submit(Request::new(Opcode::Ping, Vec::new())).unwrap();
        assert_eq!(&r.wait(Duration::from_secs(1)).unwrap().body[..], b"new");
        assert_eq!(sw.reconnects(), 1, "each swap counts as a reconnect");
    }

    #[test]
    fn default_submit_gather_concatenates_once_and_counts_it() {
        struct Echo;
        impl Endpoint for Echo {
            fn submit(&self, req: Request) -> Result<ReplyHandle> {
                Ok(ReplyHandle::ready(Ok(Response::ok(req.body).with_bulk(req.bulk))))
            }
        }
        let before = gather_copy_bytes();
        let resp = Echo
            .submit_gather(Request::new(Opcode::Ping, &b"b"[..]), &[b"ab", b"", b"cde"])
            .unwrap()
            .wait(Duration::from_secs(1))
            .unwrap();
        assert_eq!(&resp.bulk[..], b"abcde");
        assert_eq!(gather_copy_bytes() - before, 5);
        // Another thread's copies are not this thread's.
        std::thread::spawn(|| drop(concat_segments(&[&[0u8; 100]])))
            .join()
            .unwrap();
        assert_eq!(gather_copy_bytes() - before, 5);
    }
}
