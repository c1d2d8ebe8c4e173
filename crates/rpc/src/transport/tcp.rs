//! TCP transport.
//!
//! Real sockets, for running daemons as separate processes or on
//! separate machines. Frames are length-prefixed and CRC32-checked;
//! each connection has one reader thread, and responses are correlated
//! to waiting callers by request id, so one connection multiplexes any
//! number of concurrent calls (as Mercury does over its network
//! plugins). Submission is nonblocking: `submit` registers the pending
//! slot and writes the frame; the reader thread completes handles as
//! responses arrive, in whatever order the daemon finishes them.
//!
//! # Zero-copy framing
//!
//! Frames go out through [`FrameWriter`]: the message prefix (opcode,
//! id, body, bulk length) and the bulk payload are handed to the
//! kernel as separate `writev` segments in a single vectored write —
//! no concatenation `Vec`, no separate len/payload/CRC syscalls. A
//! `ReadChunks` reply therefore travels fd → scatter-gather buffer →
//! socket, the TCP analogue of the in-process transport's by-reference
//! bulk handover. A client write goes out the same way from the
//! caller's own buffer ([`Endpoint::submit_gather`]): prefix plus one
//! borrowed sub-slice per chunk piece, nothing gathered first.
//!
//! Inbound, both readers (a server connection, a client's reader
//! thread) take a frame as a 4-byte header read followed by one read of
//! payload and trailer into a single owned buffer that is reserved to
//! size and never zeroed ([`read_frame`]). After the CRC check that
//! buffer *is* the message: `decode_owned` hands out `body` and `bulk`
//! as views of it, so a write payload reaches the chunk store, and a
//! read reply the caller's result, without another copy. Each payload
//! byte therefore costs one checksum pass and no user-space copy on the
//! receiving side, one checksum pass and no copy on the sending side.
//!
//! # Failure semantics
//!
//! A dead connection does not brick the endpoint. When the reader
//! thread dies (peer reset, EOF, corrupt frame) it fails every
//! in-flight request with a *typed* error — [`GkfsError::Rpc`] for
//! connection loss, [`GkfsError::Corruption`] for a checksum mismatch
//! — and clears the live connection. The next `submit` re-dials,
//! subject to a small exponential backoff after failed dial attempts
//! so a down daemon is probed, not hammered. All of these errors
//! satisfy `GkfsError::is_retryable`, which is what lets the client
//! retry layer ride through a daemon restart transparently.

use crate::handler::HandlerRegistry;
use crate::message::{Request, Response};
use crate::stats::RpcStats;
use crate::transport::{Endpoint, EndpointOptions, Handlers, ReplyHandle};
use bytes::Bytes;
use gkfs_common::crc::crc32;
use gkfs_common::lock::{rank, OrderedMutex};
use gkfs_common::wire::FrameWriter;
use gkfs_common::{GkfsError, Result};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum accepted frame: 256 MiB guards against garbage length
/// prefixes from a confused peer.
const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Most a receiver reserves for a frame before any of it has arrived.
/// The length prefix is only a claim: a peer that announces
/// [`MAX_FRAME`] and hangs up must not have bought 256 MiB. Frames up
/// to this size — every chunk batch of a default deployment — land in
/// an exactly-sized buffer; larger ones grow with the bytes received.
const FRAME_RESERVE_MAX: usize = 4 * 1024 * 1024;

/// First re-dial backoff after a failed dial attempt; doubles per
/// consecutive failure up to [`DIAL_BACKOFF_MAX_MS`].
const DIAL_BACKOFF_BASE_MS: u64 = 10;

/// Re-dial backoff ceiling.
const DIAL_BACKOFF_MAX_MS: u64 = 500;

/// Wire frame: `len: u32 LE` (payload bytes only), payload, then
/// `crc32(payload): u32 LE`. The payload is given as borrowed pieces —
/// the encoded message prefix, then the raw bulk in any number of
/// segments; [`FrameWriter`] checksums across them and emits the whole
/// frame — header, every segment, CRC trailer — with vectored writes,
/// one syscall in the common case and no concatenation buffer ever.
/// I/O failures are reported as [`GkfsError::Rpc`] so they classify as
/// retryable connection loss.
fn write_frame_segments(stream: &mut TcpStream, prefix: &[u8], bulk: &[&[u8]]) -> Result<()> {
    let mut fw = FrameWriter::new();
    fw.segment(prefix);
    for s in bulk {
        fw.segment(s);
    }
    if fw.payload_len() > MAX_FRAME as usize {
        return Err(GkfsError::Rpc(format!(
            "frame too large: {}",
            fw.payload_len()
        )));
    }
    fw.write_to(stream)
        .map_err(|e| GkfsError::Rpc(format!("connection lost: {e}")))
}

/// Write one response frame: encoded prefix plus the bulk payload as a
/// borrowed slice. A `ReadChunks` reply's scatter-gather buffer goes
/// from here straight to the socket.
fn write_response(stream: &mut TcpStream, resp: &Response) -> Result<()> {
    write_frame_segments(stream, &resp.encode_prefix(), &[&resp.bulk])
}

/// Initial capacity for the buffer receiving a frame whose header
/// announced `len` payload bytes: room for payload and trailer, capped
/// at [`FRAME_RESERVE_MAX`].
fn frame_reserve(len: usize) -> usize {
    (len + 4).min(FRAME_RESERVE_MAX)
}

/// Counterpart of [`write_frame_segments`]: read one frame and return
/// its payload as an owned buffer. The header is one 4-byte read;
/// payload and trailer are then read together into one `Vec` reserved
/// by [`frame_reserve`] — spare capacity the kernel fills directly,
/// never zeroed first. The trailing checksum is verified and cut off,
/// and the `Vec` becomes the `Bytes` without a copy. A mismatch
/// surfaces as [`GkfsError::Corruption`], which the caller must treat
/// as fatal for the connection: after a bad frame the stream offset can
/// no longer be trusted, so the only way to resynchronize is to drop
/// the connection and reconnect.
fn read_frame(stream: &mut impl Read) -> Result<Bytes> {
    let io = |e: std::io::Error| GkfsError::Rpc(format!("connection lost: {e}"));
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).map_err(io)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(GkfsError::Rpc(format!("frame too large: {len}")));
    }
    let len = len as usize;
    let mut frame = Vec::with_capacity(frame_reserve(len));
    let got = stream
        .take(len as u64 + 4)
        .read_to_end(&mut frame)
        .map_err(io)?;
    if got < len + 4 {
        return Err(GkfsError::Rpc(format!(
            "connection lost: peer closed {got} bytes into a {len}-byte frame"
        )));
    }
    let (payload, trailer) = frame.split_at(len);
    let want = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let got = crc32(payload);
    if got != want {
        return Err(GkfsError::Corruption(format!(
            "tcp frame crc mismatch: computed {got:#010x}, frame says {want:#010x}"
        )));
    }
    frame.truncate(len);
    Ok(Bytes::from(frame))
}

/// Bytes of `part` that lie outside `frame`'s buffer: what a decoder
/// copied out of a received frame instead of slicing it. Feeds
/// [`RpcStats::request_copy_bytes`], so the zero the copy gate asserts
/// is observed on every request, not assumed.
fn copied_out_of(frame: &Bytes, part: &Bytes) -> usize {
    let held = frame.as_ptr_range();
    let view = part.as_ptr_range();
    if part.is_empty() || (held.start <= view.start && view.end <= held.end) {
        0
    } else {
        part.len()
    }
}

fn closed_err() -> GkfsError {
    GkfsError::Rpc("connection closed".into())
}

/// A TCP daemon listener: accepts connections and serves requests on a
/// handler pool.
pub struct TcpServer {
    addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    handlers: Arc<Handlers>,
    accept_thread: OrderedMutex<Option<std::thread::JoinHandle<()>>>,
    /// Live connection sockets, closed forcibly on shutdown so that
    /// clients of a stopped daemon see errors instead of a silently
    /// still-working ghost server.
    conns: Arc<OrderedMutex<Vec<TcpStream>>>,
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an OS-assigned port; the actual
    /// address is available via [`TcpServer::local_addr`]) and start
    /// serving. The handler pool queue is bounded
    /// ([`SERVER_QUEUE_PER_WORKER`](crate::transport::SERVER_QUEUE_PER_WORKER)
    /// slots per worker): when pipelining
    /// clients outrun the daemon, connection readers stall on the full
    /// queue and TCP flow control pushes back to the submitters
    /// instead of the queue growing without bound.
    pub fn bind(
        addr: &str,
        registry: HandlerRegistry,
        handler_threads: usize,
    ) -> Result<Arc<TcpServer>> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| GkfsError::Rpc(format!("bind {addr}: {e}")))?;
        let local = listener.local_addr().map_err(|e| GkfsError::Rpc(e.to_string()))?;
        let shutting_down = Arc::new(AtomicBool::new(false));
        let handlers = Arc::new(Handlers::new(registry, handler_threads));
        let conns: Arc<OrderedMutex<Vec<TcpStream>>> =
            Arc::new(OrderedMutex::new(rank::RPC_CONNS, Vec::new()));

        let accept = {
            let shutting_down = shutting_down.clone();
            let handlers = handlers.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("gkfs-tcp-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutting_down.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // Responses are small framed messages: Nagle
                        // plus delayed ACKs would add milliseconds per
                        // round trip.
                        stream.set_nodelay(true).ok();
                        if let Ok(clone) = stream.try_clone() {
                            conns.lock().push(clone);
                        }
                        let handlers = handlers.clone();
                        let shutting_down = shutting_down.clone();
                        let spawned = std::thread::Builder::new()
                            .name("gkfs-tcp-conn".into())
                            .spawn(move || serve_connection(stream, handlers, shutting_down));
                        // Thread exhaustion: dropping the stream hangs
                        // up on the peer (it can retry) instead of
                        // killing the accept loop for everyone.
                        if spawned.is_err() {
                            continue;
                        }
                    }
                })
                .map_err(|e| GkfsError::Rpc(format!("spawn accept thread: {e}")))?
        };

        Ok(Arc::new(TcpServer {
            addr: local,
            shutting_down,
            handlers,
            accept_thread: OrderedMutex::new(rank::RPC_ACCEPT, Some(accept)),
            conns,
        }))
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stats.
    pub fn stats(&self) -> &RpcStats {
        &self.handlers.stats
    }

    /// A shared handle to the same counters as [`TcpServer::stats`],
    /// for a daemon that reports them in its own statistics.
    pub fn stats_handle(&self) -> Arc<RpcStats> {
        Arc::clone(&self.handlers.stats)
    }

    /// Forcibly sever every established connection while the server
    /// keeps listening — the moral equivalent of a transient network
    /// partition or a middlebox reset. Clients see their in-flight
    /// requests fail with a retryable error and reconnect on the next
    /// submit. Used by the chaos and robustness tests.
    pub fn sever_connections(&self) {
        for c in self.conns.lock().drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Stop accepting and wind down. In-flight requests on open
    /// connections complete; new connections are rejected.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a dummy connection. The handle
        // comes out of the lock before the join: an `if let` on
        // `.lock().take()` would hold the guard for the accept loop's
        // whole wind-down (GKL002).
        let _ = TcpStream::connect(self.addr);
        let accept = self.accept_thread.lock().take();
        if let Some(t) = accept {
            let _ = t.join();
        }
        // Sever every established connection: a stopped daemon must
        // look stopped to its clients.
        self.sever_connections();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(stream: TcpStream, handlers: Arc<Handlers>, shutting_down: Arc<AtomicBool>) {
    let stats = &handlers.stats;
    let writer = Arc::new(OrderedMutex::new(
        rank::RPC_WRITER,
        match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
    ));
    let mut reader = stream;
    // A read error means peer closed, stream damaged, or checksum
    // mismatch: the stream offset is untrustworthy either way, so drop
    // the connection and let the client reconnect.
    while let Ok(frame) = read_frame(&mut reader) {
        let req = match Request::decode_owned(&frame) {
            Ok(r) => r,
            Err(_) => break, // unparseable frame: protocol broken, drop
        };
        stats.request_copy_bytes.fetch_add(
            (copied_out_of(&frame, &req.body) + copied_out_of(&frame, &req.bulk)) as u64,
            Ordering::Relaxed,
        );
        if shutting_down.load(Ordering::SeqCst) {
            let mut resp = Response::err(GkfsError::ShuttingDown);
            resp.id = req.id;
            let _ = write_response(&mut writer.lock(), &resp);
            continue;
        }
        stats.record_request(req.body.len(), req.bulk.len());
        let writer = writer.clone();
        handlers.serve(req, move |resp| {
            let _ = write_response(&mut writer.lock(), &resp);
        });
    }
    // The accept loop parked a clone of this socket in the server's
    // `conns` list (for forcible severing), so dropping our handles
    // does not close the fd. Shut the socket down explicitly: a stream
    // this loop abandoned (EOF, corrupt frame, protocol break) must
    // look closed to the peer *now*, not at server shutdown — the
    // client fails its in-flight requests fast and reconnects.
    let _ = reader.shutdown(std::net::Shutdown::Both);
}

/// Correlation table for one live connection: request id → completion
/// sender. Each connection generation gets its *own* table, so a
/// request submitted on connection N can never be completed (or
/// leaked) by connection N+1's reader.
type PendingMap = Arc<OrderedMutex<HashMap<u64, SyncSender<Result<Response>>>>>;

/// One live connection generation.
struct LiveConn {
    gen: u64,
    writer: TcpStream,
    pending: PendingMap,
}

/// Mutable connection state behind the endpoint's `conn` lock.
struct ConnSlot {
    live: Option<LiveConn>,
    /// Generation counter; each successful dial gets a fresh one so a
    /// stale reader thread cannot clear a newer connection.
    gens: u64,
    /// `true` while one submitter is off dialing (without the lock
    /// held); others fail fast with a retryable error instead of
    /// piling up behind the dial.
    dialing: bool,
    /// Consecutive failed dial attempts, drives the re-dial backoff.
    dial_fails: u32,
    /// Earliest instant the next dial may be attempted.
    next_dial: Option<Instant>,
}

/// Client handle to one TCP daemon. One socket, multiplexed: any
/// number of submitted requests share it, correlated by id. When the
/// connection dies the endpoint re-dials on the next submit (with
/// backoff) instead of bricking — see the module docs for the exact
/// failure semantics.
pub struct TcpEndpoint {
    addr: String,
    conn: Arc<OrderedMutex<ConnSlot>>,
    next_id: AtomicU64,
    timeout: Duration,
    reconnects: AtomicU64,
}

/// Dial `addr` and start its reader thread. The reader owns only the
/// slot Arc and the connection's pending map — not the endpoint — so
/// dropping the endpoint does not leak a thread keeping it alive.
fn dial(addr: &str, conn: &Arc<OrderedMutex<ConnSlot>>, gen: u64) -> Result<LiveConn> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| GkfsError::Rpc(format!("connect {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    let reader = stream
        .try_clone()
        .map_err(|e| GkfsError::Rpc(e.to_string()))?;
    let pending: PendingMap = Arc::new(OrderedMutex::new(rank::RPC_PENDING, HashMap::new()));

    {
        let conn = Arc::clone(conn);
        let pending = pending.clone();
        std::thread::Builder::new()
            .name("gkfs-tcp-reader".into())
            .spawn(move || {
                let mut reader = reader;
                let cause = loop {
                    match read_frame(&mut reader) {
                        Ok(frame) => match Response::decode_owned(&frame) {
                            Ok(resp) => {
                                if let Some(tx) = pending.lock().remove(&resp.id) {
                                    let _ = tx.send(Ok(resp));
                                }
                            }
                            Err(e) => {
                                break GkfsError::Corruption(format!(
                                    "undecodable response frame: {e}"
                                ))
                            }
                        },
                        Err(e) => break e,
                    }
                };
                // Retire this connection if it is still the live one
                // (a submitter that hit a write error may already have
                // replaced or cleared it).
                {
                    let mut s = conn.lock();
                    if s.live.as_ref().map(|c| c.gen) == Some(gen) {
                        s.live = None;
                    }
                }
                // Fail every in-flight request with the typed cause.
                // New submits can no longer reach this map (`live` is
                // gone and inserts only happen under the conn lock
                // while this generation is live), so nothing races in
                // after the drain.
                let waiters: Vec<SyncSender<Result<Response>>> = {
                    let mut p = pending.lock();
                    p.drain().map(|(_, tx)| tx).collect()
                };
                for tx in waiters {
                    let _ = tx.send(Err(cause.clone()));
                }
            })
            .map_err(|e| GkfsError::Rpc(format!("spawn reader thread: {e}")))?;
    }

    Ok(LiveConn {
        gen,
        writer: stream,
        pending,
    })
}

impl TcpEndpoint {
    /// Connect to a daemon at `addr` with default options.
    pub fn connect(addr: &str) -> Result<Arc<TcpEndpoint>> {
        Self::connect_with(addr, EndpointOptions::default())
    }

    /// Connect with explicit [`EndpointOptions`]. The initial dial is
    /// eager so an unreachable daemon fails here, not on first use.
    pub fn connect_with(addr: &str, opts: EndpointOptions) -> Result<Arc<TcpEndpoint>> {
        let conn = Arc::new(OrderedMutex::new(
            rank::RPC_CONN,
            ConnSlot {
                live: None,
                gens: 1,
                dialing: false,
                dial_fails: 0,
                next_dial: None,
            },
        ));
        let live = dial(addr, &conn, 1)?;
        conn.lock().live = Some(live);
        Ok(Arc::new(TcpEndpoint {
            addr: addr.to_string(),
            conn,
            next_id: AtomicU64::new(1),
            timeout: opts.timeout,
            reconnects: AtomicU64::new(0),
        }))
    }

    /// Like [`TcpEndpoint::connect`] but without the eager initial
    /// dial: the endpoint starts disconnected and dials on first use,
    /// through the same reconnect-with-backoff machinery that handles
    /// a connection lost mid-session. For replicated deployments,
    /// where a daemon may be down right now and the caller wants to
    /// degrade to its replicas (or wait for its return) instead of
    /// refusing to start.
    pub fn connect_lazy(addr: &str) -> Arc<TcpEndpoint> {
        Arc::new(TcpEndpoint {
            addr: addr.to_string(),
            conn: Arc::new(OrderedMutex::new(
                rank::RPC_CONN,
                ConnSlot {
                    live: None,
                    gens: 1,
                    dialing: false,
                    dial_fails: 0,
                    next_dial: None,
                },
            )),
            next_id: AtomicU64::new(1),
            timeout: EndpointOptions::default().timeout,
            reconnects: AtomicU64::new(0),
        })
    }

    /// Number of submitted requests whose responses have not arrived
    /// yet (diagnostics; the pipelining tests assert nothing leaks).
    pub fn pending_len(&self) -> usize {
        let s = self.conn.lock();
        s.live.as_ref().map_or(0, |c| c.pending.lock().len())
    }

    /// Register `(id → tx)` on the live connection and write the
    /// frame — encoded prefix plus borrowed bulk segments, vectored —
    /// all under the conn lock. On a write error the connection is torn down
    /// (the socket is broken) so the next submit re-dials immediately,
    /// and the error — retryable — is returned.
    fn send_on_live(
        &self,
        s: &mut ConnSlot,
        id: u64,
        prefix: &[u8],
        bulk: &[&[u8]],
    ) -> Result<ReplyHandle> {
        let (tx, rx) = sync_channel::<Result<Response>>(1);
        let Some(live) = s.live.as_mut() else {
            // The connection died between the dial/check and now; the
            // retry layer treats this as connection loss and retries.
            return Err(closed_err());
        };
        live.pending.lock().insert(id, tx);
        let pending = Arc::clone(&live.pending);
        if let Err(e) = write_frame_segments(&mut live.writer, prefix, bulk) {
            pending.lock().remove(&id);
            // An established connection broke mid-write: clear it and
            // allow an immediate re-dial (backoff only gates dials
            // that themselves failed).
            s.live = None;
            s.dial_fails = 0;
            s.next_dial = None;
            return Err(e);
        }
        Ok(ReplyHandle::pending(rx)
            .on_disconnect(closed_err())
            .on_abandon(move || {
                pending.lock().remove(&id);
            }))
    }
}

/// What `submit` decided to do after inspecting the conn slot.
enum SubmitPlan {
    /// A connection is live; go send on it.
    UseLive,
    /// This submitter claimed the dial; `gen` is the new generation.
    Dial(u64),
    /// Another submitter is dialing right now.
    DialInProgress,
    /// A recent dial failed; next attempt not before the stored time.
    Backoff,
}

impl TcpEndpoint {
    /// Send `req` with `bulk` (in order) as its bulk payload; the frame
    /// is on the socket, or the submission has failed, on return.
    fn submit_frame(&self, mut req: Request, bulk: &[&[u8]]) -> Result<ReplyHandle> {
        req.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id = req.id;
        // Only the prefix (opcode, id, body, bulk length) is
        // serialized; the bulk payload rides to the socket as the
        // borrowed segments it was handed over in.
        let prefix = req.encode_prefix_for(bulk.iter().map(|s| s.len()).sum());

        let plan = {
            let mut s = self.conn.lock();
            if s.live.is_some() {
                SubmitPlan::UseLive
            } else if s.dialing {
                SubmitPlan::DialInProgress
            } else if s.next_dial.is_some_and(|t| Instant::now() < t) {
                SubmitPlan::Backoff
            } else {
                s.dialing = true;
                s.gens += 1;
                SubmitPlan::Dial(s.gens)
            }
        };

        match plan {
            SubmitPlan::UseLive => {
                let mut s = self.conn.lock();
                self.send_on_live(&mut s, id, &prefix, bulk)
            }
            SubmitPlan::DialInProgress => Err(GkfsError::Rpc(format!(
                "{}: reconnect in progress",
                self.addr
            ))),
            SubmitPlan::Backoff => Err(GkfsError::Rpc(format!(
                "{}: reconnect backoff",
                self.addr
            ))),
            SubmitPlan::Dial(gen) => {
                // Dial without the lock held: a slow/unroutable dial
                // must not stall submitters (they fail fast above).
                let dialed = dial(&self.addr, &self.conn, gen);
                let mut s = self.conn.lock();
                s.dialing = false;
                match dialed {
                    Ok(live) => {
                        s.live = Some(live);
                        s.dial_fails = 0;
                        s.next_dial = None;
                        self.reconnects.fetch_add(1, Ordering::Relaxed);
                        self.send_on_live(&mut s, id, &prefix, bulk)
                    }
                    Err(e) => {
                        s.dial_fails = s.dial_fails.saturating_add(1);
                        // Capped shift: the ceiling is hit long before
                        // the shift could overflow.
                        let shift = s.dial_fails.min(16) - 1;
                        let ms = (DIAL_BACKOFF_BASE_MS << shift).min(DIAL_BACKOFF_MAX_MS);
                        s.next_dial = Some(Instant::now() + Duration::from_millis(ms));
                        Err(e)
                    }
                }
            }
        }
    }
}

impl Endpoint for TcpEndpoint {
    fn submit(&self, mut req: Request) -> Result<ReplyHandle> {
        let bulk = std::mem::take(&mut req.bulk);
        self.submit_frame(req, &[&bulk])
    }

    /// The zero-copy override: the frame is written before this
    /// returns, so the borrowed segments go to the socket as they are.
    fn submit_gather(&self, req: Request, segments: &[&[u8]]) -> Result<ReplyHandle> {
        self.submit_frame(req, segments)
    }

    fn timeout(&self) -> Duration {
        self.timeout
    }

    fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Opcode;
    use crate::Status;
    use bytes::Bytes;
    use std::io::Write;

    fn echo_registry() -> HandlerRegistry {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |req| Response::ok(req.body).with_bulk(req.bulk));
        reg.register_fn(Opcode::Stat, |_| Response::err(GkfsError::NotFound));
        reg
    }

    #[test]
    fn crc32_known_vector() {
        // The standard CRC32 check value (via gkfs_common::crc — the
        // transport no longer carries its own table).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn nodelay_set_on_both_ends() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 1).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        // One call guarantees the accept loop has parked the accepted
        // socket's clone in `conns`.
        ep.call(Request::new(Opcode::Ping, &b"x"[..])).unwrap();
        // Dialed side: the live connection's write half.
        {
            let s = ep.conn.lock();
            let live = s.live.as_ref().expect("connection is live");
            assert!(live.writer.nodelay().unwrap(), "dialed socket must be TCP_NODELAY");
        }
        // Accepted side: the server's parked clone shares the fd (and
        // therefore the socket options) with the serving stream.
        {
            let conns = server.conns.lock();
            assert!(!conns.is_empty());
            for c in conns.iter() {
                assert!(c.nodelay().unwrap(), "accepted socket must be TCP_NODELAY");
            }
        }
        server.shutdown();
    }

    /// `[len][payload][crc]` as one buffer — the reference wire image.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(payload);
        v.extend_from_slice(&crc32(payload).to_le_bytes());
        v
    }

    #[test]
    fn frame_reservation_is_capped() {
        // Small frames: exactly payload + trailer, so the one read
        // lands in a buffer that never grows.
        assert_eq!(frame_reserve(0), 4);
        assert_eq!(frame_reserve(512 * 1024), 512 * 1024 + 4);
        // A length prefix is a claim, not bytes received: the largest
        // legal one reserves no more than the cap.
        assert_eq!(frame_reserve(FRAME_RESERVE_MAX), FRAME_RESERVE_MAX);
        assert_eq!(frame_reserve(MAX_FRAME as usize), FRAME_RESERVE_MAX);
    }

    #[test]
    fn read_frame_takes_a_whole_frame_and_leaves_the_next() {
        let mut stream = framed(b"first");
        stream.extend_from_slice(&framed(&[7u8; 100_000]));
        let mut r = std::io::Cursor::new(stream);
        assert_eq!(&read_frame(&mut r).unwrap()[..], b"first");
        assert_eq!(read_frame(&mut r).unwrap(), vec![7u8; 100_000]);
        // Clean EOF between frames is connection loss, not corruption.
        assert!(matches!(read_frame(&mut r), Err(GkfsError::Rpc(_))));
    }

    #[test]
    fn read_frame_grows_past_the_reservation() {
        let payload: Vec<u8> = (0..FRAME_RESERVE_MAX + 70_000)
            .map(|i| (i % 253) as u8)
            .collect();
        let mut r = std::io::Cursor::new(framed(&payload));
        assert_eq!(read_frame(&mut r).unwrap(), payload);
    }

    #[test]
    fn flipped_trailer_is_corruption_and_short_frame_is_connection_loss() {
        let mut bad = framed(b"payload");
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(bad)),
            Err(GkfsError::Corruption(_))
        ));
        let mut cut = framed(b"payload");
        cut.truncate(cut.len() - 3);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(cut)),
            Err(GkfsError::Rpc(_))
        ));
    }

    #[test]
    fn forged_length_prefix_then_hangup_costs_nothing() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 1).unwrap();
        let addr = server.local_addr();
        // Claim the largest legal frame, deliver ten bytes, hang up.
        let mut liar = TcpStream::connect(addr).unwrap();
        liar.write_all(&MAX_FRAME.to_le_bytes()).unwrap();
        liar.write_all(&[0xAB; 10]).unwrap();
        drop(liar);
        // One past the limit is refused from the header alone.
        let mut liar = TcpStream::connect(addr).unwrap();
        liar.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        let mut end = [0u8; 1];
        assert_eq!(liar.read(&mut end).unwrap_or(0), 0, "server must hang up");
        // The server is unharmed and still serving.
        let ep = TcpEndpoint::connect(&addr.to_string()).unwrap();
        let resp = ep
            .call(Request::new(Opcode::Ping, &b"still here"[..]))
            .unwrap();
        assert_eq!(&resp.body[..], b"still here");
        server.shutdown();
    }

    #[test]
    fn frame_dribbled_one_byte_per_write_still_decodes() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 1).unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        let mut req =
            Request::new(Opcode::Ping, &b"drip"[..]).with_bulk(Bytes::from(vec![9u8; 300]));
        req.id = 77;
        for byte in framed(&req.encode()) {
            raw.write_all(&[byte]).unwrap();
        }
        let resp = Response::decode_owned(&read_frame(&mut raw).unwrap()).unwrap();
        assert_eq!(resp.id, 77);
        assert_eq!(&resp.body[..], b"drip");
        assert_eq!(resp.bulk, vec![9u8; 300]);
        server.shutdown();
    }

    #[test]
    fn submit_gather_puts_the_encode_image_on_the_wire() {
        // A raw listener captures exactly what the endpoint wrote.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let pieces: [&[u8]; 4] = [&data[..1], &data[1..70_000], &[], &data[70_000..]];
        // The endpoint numbers its first request 1.
        let mut whole =
            Request::new(Opcode::WriteChunks, &b"ops"[..]).with_bulk(Bytes::from(data.clone()));
        whole.id = 1;
        let want = framed(&whole.encode());
        let n = want.len();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut got = vec![0u8; n];
            s.read_exact(&mut got).unwrap();
            got
        });
        let ep = TcpEndpoint::connect(&addr).unwrap();
        let before = crate::transport::gather_copy_bytes();
        let _pending = ep
            .submit_gather(Request::new(Opcode::WriteChunks, &b"ops"[..]), &pieces)
            .unwrap();
        assert_eq!(
            crate::transport::gather_copy_bytes(),
            before,
            "tcp gathers without copying"
        );
        assert_eq!(t.join().unwrap(), want);
    }

    #[test]
    fn received_requests_are_views_of_their_frame() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 2).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let bulk = vec![3u8; 1 << 20];
        let resp = ep
            .submit_gather(
                Request::new(Opcode::Ping, &b"views"[..]),
                &[&bulk[..4096], &bulk[4096..]],
            )
            .unwrap()
            .wait(Duration::from_secs(10))
            .unwrap();
        assert_eq!(resp.bulk, bulk);
        assert_eq!(server.stats().request_copy_bytes.load(Ordering::Relaxed), 0);
        server.shutdown();
        // The counter's probe does see a copy when there is one.
        let frame = Bytes::from(vec![1u8; 64]);
        assert_eq!(copied_out_of(&frame, &frame.slice(8..40)), 0);
        assert_eq!(copied_out_of(&frame, &Bytes::new()), 0);
        let copy = Bytes::copy_from_slice(&frame[8..40]);
        assert_eq!(copied_out_of(&frame, &copy), 32);
    }

    #[test]
    fn roundtrip_over_sockets() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 2).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let resp = ep
            .call(Request::new(Opcode::Ping, &b"over tcp"[..]).with_bulk(Bytes::from(vec![3u8; 4096])))
            .unwrap();
        assert_eq!(&resp.body[..], b"over tcp");
        assert_eq!(resp.bulk.len(), 4096);
        server.shutdown();
    }

    #[test]
    fn error_status_travels() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 1).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let resp = ep.call(Request::new(Opcode::Stat, &b""[..])).unwrap();
        assert!(matches!(resp.status, Status::Err(GkfsError::NotFound)));
        server.shutdown();
    }

    #[test]
    fn panicking_handler_answers_an_error_and_its_worker_survives() {
        let mut reg = echo_registry();
        reg.register_fn(Opcode::Create, |_| panic!("handler bug on this frame"));
        let server = TcpServer::bind("127.0.0.1:0", reg, 1).unwrap();
        let ep = TcpEndpoint::connect_with(
            &server.local_addr().to_string(),
            EndpointOptions::new().with_timeout(Duration::from_secs(10)),
        )
        .unwrap();
        // The request that panics its handler is answered — promptly,
        // under its own id, with an error nobody will retry.
        let t0 = Instant::now();
        let resp = ep.call(Request::new(Opcode::Create, &b""[..])).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "an answer, not a timeout");
        match resp.status {
            Status::Err(e @ GkfsError::Io(_)) => {
                assert!(!e.is_retryable());
                assert!(e.to_string().contains("handler panicked"), "{e}");
            }
            other => panic!("expected an Io error response, got {other:?}"),
        }
        // The pool's only worker is still there for the next request on
        // the same connection.
        let pong = ep.call(Request::new(Opcode::Ping, &b"still here"[..])).unwrap();
        assert_eq!(&pong.body[..], b"still here");
        assert_eq!(ep.reconnects(), 0);
        assert_eq!(server.handlers.pool.workers(), 1);
        // `dispatch` stopped the unwind; the pool's own guard (second
        // line of defence) never had to.
        assert_eq!(server.handlers.pool.panics(), 0);
        let st = server.stats();
        assert_eq!(st.requests.load(Ordering::Relaxed), 2);
        assert_eq!(st.responses.load(Ordering::Relaxed), 2);
        assert_eq!(st.errors.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_calls_multiplex_one_socket() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 4).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let ep = &ep;
                s.spawn(move || {
                    for i in 0..100 {
                        let msg = format!("t{t}-i{i}");
                        let resp = ep
                            .call(Request::new(Opcode::Ping, Bytes::from(msg.clone())))
                            .unwrap();
                        assert_eq!(&resp.body[..], msg.as_bytes(), "responses must not cross");
                    }
                });
            }
        });
        assert_eq!(ep.pending_len(), 0, "no leaked pending slots");
        server.shutdown();
    }

    #[test]
    fn submitted_batch_multiplexes_one_socket() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 4).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let handles: Vec<ReplyHandle> = (0..32)
            .map(|i| {
                ep.submit(Request::new(Opcode::Ping, Bytes::from(format!("b{i}"))))
                    .unwrap()
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.wait(Duration::from_secs(10)).unwrap();
            assert_eq!(&resp.body[..], format!("b{i}").as_bytes());
        }
        assert_eq!(ep.pending_len(), 0, "no leaked pending slots");
        server.shutdown();
    }

    #[test]
    fn connect_to_dead_server_fails() {
        // Bind then immediately shut down to get a dead address.
        let server = TcpServer::bind("127.0.0.1:0", HandlerRegistry::new(), 1).unwrap();
        let addr = server.local_addr().to_string();
        server.shutdown();
        drop(server);
        // Either connect fails outright or the first call does.
        match TcpEndpoint::connect(&addr) {
            Err(_) => {}
            Ok(ep) => {
                let r = ep.call(Request::new(Opcode::Ping, &b""[..]));
                assert!(r.is_err());
            }
        }
    }

    #[test]
    fn large_bulk_payload() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 2).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let bulk = Bytes::from((0..(4 << 20)).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let resp = ep
            .call(Request::new(Opcode::Ping, &b""[..]).with_bulk(bulk.clone()))
            .unwrap();
        assert_eq!(resp.bulk, bulk);
        server.shutdown();
    }

    #[test]
    fn endpoint_survives_connection_reset() {
        let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 2).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        ep.call(Request::new(Opcode::Ping, &b"before"[..])).unwrap();
        assert_eq!(ep.reconnects(), 0);

        server.sever_connections();

        // The reset may fail one or two calls with a retryable error
        // while the endpoint notices and re-dials; it must recover
        // without the endpoint being rebuilt.
        let deadline = Instant::now() + Duration::from_secs(10);
        let resp = loop {
            match ep.call(Request::new(Opcode::Ping, &b"after"[..])) {
                Ok(r) => break r,
                Err(e) => {
                    assert!(e.is_retryable(), "reset must surface as retryable, got {e:?}");
                    assert!(Instant::now() < deadline, "endpoint never recovered");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        assert_eq!(&resp.body[..], b"after");
        assert!(ep.reconnects() >= 1, "recovery must go through a re-dial");
        server.shutdown();
    }

    #[test]
    fn in_flight_requests_fail_typed_on_reset() {
        // A slow handler so the request is in flight when the reset hits.
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |req| {
            std::thread::sleep(Duration::from_millis(300));
            Response::ok(req.body)
        });
        let server = TcpServer::bind("127.0.0.1:0", reg, 1).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let h = ep.submit(Request::new(Opcode::Ping, &b"slow"[..])).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        server.sever_connections();
        let t0 = Instant::now();
        let err = h.wait(Duration::from_secs(30)).unwrap_err();
        assert!(err.is_retryable(), "in-flight failure must be retryable: {err:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "reset must fail fast, not burn the timeout"
        );
        server.shutdown();
    }

    #[test]
    fn corrupt_reply_surfaces_as_corruption() {
        // A raw fake server that answers with a deliberately wrong
        // checksum: the client must classify it as Corruption, not a
        // generic connection error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut len_buf = [0u8; 4];
            s.read_exact(&mut len_buf).unwrap();
            let n = u32::from_le_bytes(len_buf) as usize;
            let mut buf = vec![0u8; n + 4]; // payload + its crc
            s.read_exact(&mut buf).unwrap();
            let payload = Response::ok(&b"x"[..]).encode();
            s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
            s.write_all(&payload).unwrap();
            s.write_all(&(crc32(&payload) ^ 1).to_le_bytes()).unwrap();
            s.flush().unwrap();
            // Give the client a moment to read before we hang up.
            std::thread::sleep(Duration::from_millis(200));
        });
        let ep = TcpEndpoint::connect(&addr).unwrap();
        let err = ep.call(Request::new(Opcode::Ping, &b""[..])).unwrap_err();
        assert!(matches!(err, GkfsError::Corruption(_)), "got {err:?}");
        t.join().unwrap();
    }
}
