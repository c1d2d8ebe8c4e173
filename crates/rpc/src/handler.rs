//! Opcode dispatch — the registered-RPC table.
//!
//! A daemon builds a [`HandlerRegistry`] once at startup, registering
//! one handler per [`Opcode`] (Mercury's `HG_Register`). Typed
//! handlers go through [`HandlerRegistry::serve`]: the registry decodes
//! the row's request type, calls the closure, and encodes its result or
//! turns its error into an error response, so a handler never touches a
//! codec. The registry is immutable after construction and shared
//! read-only across the handler pool, so dispatch is lock-free.

use crate::message::{Opcode, Request, Response};
use crate::proto::{body_of, Rpc, Wire};
use bytes::Bytes;
use gkfs_common::{GkfsError, Result};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A server-side RPC handler. Handlers run concurrently on the pool
/// and must be `Send + Sync`.
pub trait Handler: Send + Sync {
    /// Fn.
    fn handle(&self, req: Request) -> Response;
}

/// Blanket impl so plain closures register directly.
pub struct HandlerFn<F>(pub F);

impl<F> Handler for HandlerFn<F>
where
    F: Fn(Request) -> Response + Send + Sync,
{
    fn handle(&self, req: Request) -> Response {
        (self.0)(req)
    }
}

/// Immutable opcode → handler table.
#[derive(Default)]
pub struct HandlerRegistry {
    table: HashMap<u16, Arc<dyn Handler>>,
    /// The daemon's metadata store keeps a write-ahead log, so a group
    /// apply may wait on the device (what turns `ServeClass::Group`
    /// rows over to the handler pool).
    logged_store: bool,
}

impl HandlerRegistry {
    /// Create an empty registry.
    pub fn new() -> HandlerRegistry {
        HandlerRegistry::default()
    }

    /// Declare that the metadata store behind these handlers logs its
    /// writes (off by default, as a GekkoFS deployment runs).
    pub fn logged_store(&mut self, logged: bool) {
        self.logged_store = logged;
    }

    /// Whether [`HandlerRegistry::logged_store`] was declared.
    pub fn has_logged_store(&self) -> bool {
        self.logged_store
    }

    /// Register `handler` for `opcode`. Panics on double registration —
    /// that is a daemon construction bug.
    pub fn register(&mut self, opcode: Opcode, handler: Arc<dyn Handler>) {
        let prev = self.table.insert(opcode as u16, handler);
        assert!(prev.is_none(), "duplicate handler for {opcode:?}");
    }

    /// Convenience: register a closure.
    pub fn register_fn<F>(&mut self, opcode: Opcode, f: F)
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        self.register(opcode, Arc::new(HandlerFn(f)));
    }

    /// Serve table row `R` with a typed closure: request body in,
    /// response body out. A body that does not decode, or an `Err` from
    /// `f`, becomes an error response — never a torn-down connection.
    pub fn serve<R: Rpc>(
        &mut self,
        f: impl Fn(R::Req) -> Result<R::Resp> + Send + Sync + 'static,
    ) {
        self.serve_bulk::<R>(move |req, _| Ok((f(req)?, Bytes::new())));
    }

    /// [`HandlerRegistry::serve`] for the rows that move chunk data:
    /// `f` also receives the request's bulk payload and returns the
    /// reply's.
    pub fn serve_bulk<R: Rpc>(
        &mut self,
        f: impl Fn(R::Req, Bytes) -> Result<(R::Resp, Bytes)> + Send + Sync + 'static,
    ) {
        self.register_fn(R::OP, move |req| {
            R::Req::decode(&req.body)
                .and_then(|typed| f(typed, req.bulk))
                .map_or_else(Response::err, |(resp, bulk)| {
                    Response::ok(body_of(&resp)).with_bulk(bulk)
                })
        });
    }

    /// Dispatch a request. Unknown opcodes produce an error response
    /// (never a panic — the input crossed a trust boundary), and so does
    /// a handler that panics: the unwind stops here and the caller gets
    /// an answer carrying its request id instead of waiting out its
    /// timeout. The error is [`GkfsError::Io`], which is not retryable —
    /// the same frame would panic the same way again.
    pub fn dispatch(&self, req: Request) -> Response {
        let id = req.id;
        let mut resp = match self.table.get(&(req.opcode as u16)) {
            Some(h) => {
                let opcode = req.opcode;
                catch_unwind(AssertUnwindSafe(|| h.handle(req))).unwrap_or_else(|panic| {
                    let what = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    gkfs_common::gkfs_warn!("handler for {opcode:?} panicked: {what}");
                    Response::err(GkfsError::Io(format!("handler panicked: {what}")))
                })
            }
            None => Response::err(GkfsError::Rpc(format!(
                "no handler registered for {:?}",
                req.opcode
            ))),
        };
        resp.id = id;
        resp
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;
    use bytes::Bytes;

    #[test]
    fn dispatch_routes_by_opcode() {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |_req| Response::ok(&b"pong"[..]));
        reg.register_fn(Opcode::Stat, |req| {
            Response::ok(Bytes::from(format!("stat:{}", req.body.len())))
        });
        let mut req = Request::new(Opcode::Ping, &b""[..]);
        req.id = 42;
        let resp = reg.dispatch(req);
        assert_eq!(resp.id, 42, "correlation id preserved");
        assert_eq!(&resp.body[..], b"pong");

        let resp = reg.dispatch(Request::new(Opcode::Stat, &b"abc"[..]));
        assert_eq!(&resp.body[..], b"stat:3");
    }

    #[test]
    fn serve_decodes_runs_and_encodes_or_answers_with_the_error() {
        use crate::proto::{op, PathReq};
        use gkfs_common::Metadata;
        let mut reg = HandlerRegistry::new();
        reg.serve::<op::Stat>(|r| match r.path.as_str() {
            "/f" => Ok(Metadata::new_file(7)),
            _ => Err(GkfsError::NotFound),
        });
        let found = reg.dispatch(op::Stat::request(&PathReq::new("/f")));
        assert_eq!(op::Stat::reply(found).unwrap(), Metadata::new_file(7));
        let absent = reg.dispatch(op::Stat::request(&PathReq::new("/g")));
        assert_eq!(op::Stat::reply(absent), Err(GkfsError::NotFound));
        // A body that is not a `PathReq` never reaches the closure.
        let garbled = reg.dispatch(Request::new(Opcode::Stat, &[0xFFu8; 2][..]));
        assert!(matches!(garbled.status, Status::Err(GkfsError::Corruption(_))));
    }

    #[test]
    fn unknown_opcode_is_error_response() {
        let reg = HandlerRegistry::new();
        let resp = reg.dispatch(Request::new(Opcode::Create, &b""[..]));
        assert!(matches!(resp.status, Status::Err(GkfsError::Rpc(_))));
    }

    #[test]
    fn panicking_handler_becomes_a_non_retryable_error_response() {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Stat, |_| panic!("frame {} is cursed", 7));
        let mut req = Request::new(Opcode::Stat, &b""[..]);
        req.id = 99;
        let resp = reg.dispatch(req);
        assert_eq!(resp.id, 99, "the error answers the request that caused it");
        match resp.status {
            Status::Err(e @ GkfsError::Io(_)) => {
                assert!(!e.is_retryable());
                assert!(e.to_string().contains("frame 7 is cursed"), "{e}");
            }
            other => panic!("expected an Io error response, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate handler")]
    fn double_registration_panics() {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |_| Response::ok(&b""[..]));
        reg.register_fn(Opcode::Ping, |_| Response::ok(&b""[..]));
    }
}
