//! # gkfs-rpc — the RPC layer (Mercury / Margo / Argobots substitute)
//!
//! GekkoFS interfaces Mercury *"indirectly through the Margo library
//! which provides Argobots-aware wrappers to Mercury's API with the
//! goal to provide a simple multi-threaded execution model"*
//! (paper §III-B-b). This crate reproduces that execution model:
//!
//! * [`message`] — request/response frames: a small fixed header, a
//!   compact body, and an out-of-band **bulk** payload. Bulk data
//!   models Mercury's RDMA path: on the in-process transport it moves
//!   as a reference-counted [`bytes::Bytes`] with zero copies ("the
//!   client exposes the relevant chunk memory region to the daemon"),
//!   on TCP it is streamed after the header.
//! * [`handler`] — opcode → handler dispatch table (Mercury's
//!   registered RPC ids).
//! * [`transport`] — two interchangeable transports behind the
//!   [`Endpoint`] trait: in-process channels (used by tests, the
//!   in-process cluster, and benchmarks) and real TCP sockets with
//!   request-id correlation and connection reuse. A daemon serves both
//!   through one [`Handlers`] and its handler pool (Margo handler
//!   xstreams backed by Argobots): the transport's progress side
//!   enqueues requests on a `gkfs_common::TaskPool`, whose fixed set of
//!   worker threads executes them concurrently. Argobots ULTs are user-level and OS
//!   threads are not, so over TCP a small point op skips both
//!   hand-offs: the daemon's progress loop that read it answers it, and
//!   the waiting client thread reads its own reply (see
//!   [`transport::tcp`]).
//!
//! * [`link`] — the one [`Endpoint`] that wraps another: a swappable
//!   target (a node's restarted process) plus an optional rule that
//!   decides each request's fate — how the tests script a misbehaving
//!   daemon.
//!
//! The daemon registers handlers and serves; the client holds one
//! [`Endpoint`] per daemon. The endpoint API is
//! submission/completion, Margo's own shape: a nonblocking
//! [`Endpoint::submit`] (`margo_iforward`) returns a
//! [`ReplyHandle`] whose `wait` (`margo_wait`) yields the response,
//! so one client thread pipelines requests across any number of
//! daemons with zero thread spawns; blocking `call` is sugar over the
//! pair.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::cast_possible_truncation)]

pub mod chaos;
pub mod handler;
pub mod link;
pub mod message;
pub mod proto;
pub mod stats;
pub mod testing;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosListener, ChaosStats};
pub use handler::{Handler, HandlerFn, HandlerRegistry};
pub use link::{Fate, Gate, Link, Rule, Until};
pub use message::{Opcode, Request, Response, Status};
pub use stats::{RpcStats, WaitStats};
pub use transport::inproc::{InprocEndpoint, RpcServer};
pub use transport::tcp::{TcpEndpoint, TcpServer};
pub use transport::{handler_pool, Endpoint, EndpointOptions, Handlers, Landing, ReplyHandle, DEFAULT_TIMEOUT};
