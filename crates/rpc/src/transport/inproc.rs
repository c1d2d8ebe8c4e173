//! In-process transport.
//!
//! Daemon and client live in the same address space (the configuration
//! used by the in-process cluster, tests, and benchmarks). A
//! submission enqueues the request on the daemon's handler pool and
//! returns immediately; the handler completes the reply handle when it
//! finishes. Bulk payloads are `Bytes`, so data moves by reference
//! with zero copies — the moral equivalent of the paper's RDMA path,
//! where "the client exposes the relevant chunk memory region to the
//! daemon".
//!
//! Since the vectored-TCP rework this transport is no longer the
//! only zero-copy path: TCP reaches the same reply shape by handing
//! the borrowed bulk to `FrameWriter` as writev segments, and on the
//! request side it now does *better* for gathered writes. A request
//! submitted here is run by a handler thread after `submit` returns,
//! so it must own its bulk: [`Endpoint::submit_gather`]'s default
//! concatenates the caller's borrowed segments once (the copy
//! `ClientStats::write_gather_copy_bytes` reports), where TCP writes
//! them to the socket as they lie and copies nothing in user space.

use crate::handler::HandlerRegistry;
use crate::message::{Request, Response};
use crate::stats::RpcStats;
use crate::transport::{handler_pool, Endpoint, EndpointOptions, Handlers, ReplyHandle};
use gkfs_common::{GkfsError, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server half: the daemon's [`Handlers`], reached in-process. One per
/// daemon.
pub struct RpcServer {
    handlers: Arc<Handlers>,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
}

impl RpcServer {
    /// Construct over a registry with `handler_threads` workers of its
    /// own ([`RpcServer::on`] over a fresh [`handler_pool`]).
    pub fn new(registry: HandlerRegistry, handler_threads: usize) -> Arc<RpcServer> {
        RpcServer::on(Handlers::new(registry, handler_pool(handler_threads), Default::default()))
    }

    /// Serve `handlers` in-process. The pool queue is bounded (see
    /// [`SERVER_QUEUE_PER_WORKER`](crate::transport::SERVER_QUEUE_PER_WORKER)):
    /// once nonblocking clients have that many submissions
    /// outstanding, further `submit`s block until workers drain the
    /// backlog — back-pressure instead of unbounded queue growth.
    pub fn on(handlers: Arc<Handlers>) -> Arc<RpcServer> {
        Arc::new(RpcServer {
            handlers,
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        })
    }

    /// Stats.
    pub fn stats(&self) -> &RpcStats {
        &self.handlers.stats
    }

    /// Refuse new requests from now on (in-flight ones complete).
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Is shutting down.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Create a client endpoint connected to this server with default
    /// options.
    pub fn endpoint(self: &Arc<RpcServer>) -> Arc<InprocEndpoint> {
        self.endpoint_with(EndpointOptions::default())
    }

    /// Create a client endpoint with explicit [`EndpointOptions`].
    pub fn endpoint_with(self: &Arc<RpcServer>, opts: EndpointOptions) -> Arc<InprocEndpoint> {
        Arc::new(InprocEndpoint {
            server: Arc::clone(self),
            timeout: opts.timeout,
        })
    }
}

/// Client half: a handle to one in-process daemon.
pub struct InprocEndpoint {
    server: Arc<RpcServer>,
    timeout: Duration,
}

impl Endpoint for InprocEndpoint {
    fn submit(&self, mut req: Request) -> Result<ReplyHandle> {
        if self.server.is_shutting_down() {
            return Err(GkfsError::ShuttingDown);
        }
        req.id = self.server.next_id.fetch_add(1, Ordering::Relaxed);
        self.server.handlers.stats.record_request();

        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Response>>(1);
        self.server.handlers.serve(req, move |resp| {
            let _ = tx.send(Ok(resp));
        });
        // If the pool is torn down with the job undrained, the sender
        // drops and the handle disconnects — surface that as shutdown.
        Ok(ReplyHandle::pending(rx).on_disconnect(GkfsError::ShuttingDown))
    }

    fn timeout(&self) -> Duration {
        self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Opcode;
    use crate::Status;
    use bytes::Bytes;

    fn echo_server(threads: usize) -> Arc<RpcServer> {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |req| {
            Response::ok(req.body).with_bulk(req.bulk)
        });
        reg.register_fn(Opcode::Stat, |_req| {
            Response::err(GkfsError::NotFound)
        });
        RpcServer::new(reg, threads)
    }

    #[test]
    fn roundtrip_with_bulk() {
        let server = echo_server(2);
        let ep = server.endpoint();
        let bulk = Bytes::from(vec![7u8; 1 << 20]);
        let resp = ep
            .call(Request::new(Opcode::Ping, &b"hello"[..]).with_bulk(bulk.clone()))
            .unwrap();
        assert_eq!(&resp.body[..], b"hello");
        // Zero-copy: the response bulk is the very same allocation.
        assert_eq!(resp.bulk.as_ptr(), bulk.as_ptr());
    }

    #[test]
    fn remote_errors_surface_in_status() {
        let server = echo_server(1);
        let ep = server.endpoint();
        let resp = ep.call(Request::new(Opcode::Stat, &b""[..])).unwrap();
        assert!(matches!(resp.status, Status::Err(GkfsError::NotFound)));
        assert!(resp.into_result().is_err());
    }

    #[test]
    fn shutdown_refuses_new_calls() {
        let server = echo_server(1);
        let ep = server.endpoint();
        server.begin_shutdown();
        assert!(matches!(
            ep.call(Request::new(Opcode::Ping, &b""[..])),
            Err(GkfsError::ShuttingDown)
        ));
        assert!(matches!(
            ep.submit(Request::new(Opcode::Ping, &b""[..])),
            Err(GkfsError::ShuttingDown)
        ));
    }

    #[test]
    fn submit_pipelines_before_wait() {
        // One worker, three submissions: all three must be accepted
        // before any wait — the nonblocking property itself.
        let server = echo_server(1);
        let ep = server.endpoint();
        let handles: Vec<ReplyHandle> = (0..3)
            .map(|i| {
                ep.submit(Request::new(Opcode::Ping, Bytes::from(format!("m{i}"))))
                    .unwrap()
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.wait(Duration::from_secs(5)).unwrap();
            assert_eq!(&resp.body[..], format!("m{i}").as_bytes());
        }
    }

    #[test]
    fn concurrent_clients() {
        let server = echo_server(4);
        let eps: Vec<_> = (0..8).map(|_| server.endpoint()).collect();
        std::thread::scope(|s| {
            for (i, ep) in eps.iter().enumerate() {
                s.spawn(move || {
                    for j in 0..200 {
                        let body = format!("{i}:{j}");
                        let resp = ep
                            .call(Request::new(Opcode::Ping, Bytes::from(body.clone())))
                            .unwrap();
                        assert_eq!(&resp.body[..], body.as_bytes());
                    }
                });
            }
        });
        let st = server.stats();
        assert_eq!(st.requests.load(Ordering::Relaxed), 1600);
        assert_eq!(st.responses.load(Ordering::Relaxed), 1600);
        assert_eq!(st.errors.load(Ordering::Relaxed), 0);
    }
}
