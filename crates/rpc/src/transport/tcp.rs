//! TCP transport.
//!
//! Real sockets, for running daemons as separate processes or on
//! separate machines. Frames are length-prefixed and CRC32-checked, and
//! responses are correlated to waiting callers by request id, so one
//! connection multiplexes any number of concurrent calls (as Mercury
//! does over its network plugins). Submission is nonblocking: `submit`
//! registers a slot in the connection's completion table and writes the
//! frame; replies fill slots in whatever order the daemon finishes them.
//! Linux only: the transport receives and waits through `recv(2)`,
//! `poll(2)` and `epoll(7)`, called by `extern "C"`.
//!
//! # Run to completion
//!
//! Margo splits an RPC between a progress loop and handler ULTs, and
//! the split is cheap because Argobots ULTs are user-level. Mapped onto
//! OS threads, each side of the split is a wake-up — progress loop →
//! pool worker on the daemon, reader thread → caller on the client —
//! around a kvstore point op that takes a fraction of a microsecond. So
//! a small RPC stays on the threads that already hold it, by two rules,
//! each decided in one place:
//!
//! * **Inline or pool** (daemon; `Handlers::runs_inline`). A daemon
//!   serves all of its connections from one progress loop (`server`),
//!   which reads each through one buffer — one `recv` per small frame —
//!   and dispatches and answers a request itself when its row is a
//!   point op by its declared [`ServeClass`](crate::proto::ServeClass),
//!   its frame is small, and the read buffer holds no further frame.
//!   Bulk frames, rows that may block or scan, and any pipelined burst
//!   go to the handler pool, so a pipelining client still gets the
//!   pool's parallelism and its bounded queue's back-pressure. An inline
//!   op that overstays does not hold the other connections up: a
//!   standby thread takes the loop over. The in-process transport pools
//!   everything.
//! * **Lead or follow** (client; `Ticket::wait`). A connection's
//!   completion state is one table: a slot per request id, the buffered
//!   read half of the socket as a *token*, a condvar. A waiter that
//!   finds the token free takes it and reads frames itself until its
//!   reply arrives (the *leader*); replies for other ids are parked in
//!   their slots and their waiters woken. A waiter that finds the token
//!   taken *follows* on the condvar and is promoted when the leader
//!   leaves. A fan-out's waiter is no different: whatever else its
//!   thread holds, it leads its leg's connection as a lone call does,
//!   as a Margo caller drives progress in `margo_wait`. Every frame is
//!   read by a waiter, a chunk read's reply too, which its own waiter
//!   receives straight into its result ("Landing" below): no client
//!   thread allocates a chunk-sized buffer for it, so no client thread
//!   exists to read one.
//!
//! A call, alone or a leg of a fan-out, therefore costs no thread
//! hand-off on either side where a small one used to cost four. What remained
//! were the two wake-ups of the network itself — the request reaching a daemon thread blocked in
//! its wait, the reply reaching a blocked waiter — each on an idle CPU
//! where ranks and daemons are pinned apart: a 64-byte ping-pong between
//! two such CPUs (2-vCPU VM) takes 17.8 µs at the median with both
//! sides blocking, 8.0 µs with both polling.
//!
//! **Poll before park.** Mercury can busy-poll its network layer
//! (`NA_NO_BLOCK`), which pays where a request is served in far less
//! than a wake-up costs, as a point op is. So a reader that is *hot* —
//! its previous wait found what it waited for within `SPIN` (50 µs) —
//! polls for `min(SPIN, time left)` first, and parks only when that
//! window runs out, which leaves it cold. An arrival inside the window
//! costs no wake-up; going quiet costs one window. The poller yields
//! between looks: a node's ranks share one CPU and a daemon's threads
//! another, and a poll that kept its CPU would starve the thread it
//! waits for. These mechanics are one function, `poll_or_park`; each
//! side brings its look — the daemon's loop `epoll_wait` on its set, a
//! client a `recv`, and `poll(2)` on its socket before it parks
//! ([`Recv::wait`]). Who is hot is decided per side:
//!
//! * the daemon decides from its traffic, not from one connection's: its
//!   loop polls its epoll set while the daemon is hot, whichever client
//!   keeps it busy, and a rank's call that reaches it once per
//!   ~180 µs still finds it polling while the other rank's calls come
//!   between (`server`);
//! * a client decides per connection (a flag on its read token, which
//!   `FrameReader::poll` reads and sets): a leading waiter polls the
//!   socket itself. Observer and
//!   CLI connections, and those whose gaps are a chunk's transfer, never
//!   poll. Nothing is held while polling, so the lead-or-follow protocol
//!   is untouched.
//!
//! Every receive is nonblocking for its one call — `recv` with
//! `MSG_DONTWAIT`, a look with `epoll_wait` at a zero timeout — and a
//! reader that must wait waits on readiness, never inside a receive.
//! `O_NONBLOCK` is never set: it belongs to the open file description,
//! which the write half shares, and a submitter or a pool job writing a
//! frame meanwhile would meet `EAGAIN` halfway through it. [`WaitStats`] and
//! [`RpcStats`](crate::stats::RpcStats) count the waits the poll served
//! (`spun`) and the windows that ran out (`spin_expired`).
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
//! Inbound, every byte off a socket — the daemon's loop, a leading
//! waiter, the chaos proxy — goes through one assembler, a
//! `FrameReader`: `fill` receives a step of bytes, and
//! `take_frame` is the one place a header is parsed, a checksum checked
//! and a frame cut. A frame that fits the read buffer arrives with the
//! `recv` that found it and is cut out as one owned buffer; a larger one
//! lands — beyond the few KiB that came with its header — directly in a
//! single `Vec` reserved to size and never zeroed. `fill` never blocks
//! (`MSG_DONTWAIT`): it takes what is there — a large frame until it is
//! whole or the socket is drained — so a peer stalled halfway through a
//! frame holds only its own buffer, and a reader with nothing to take
//! waits for readiness before it looks again. The fuzzer drives the
//! same assembler (`read_frames`). After the
//! CRC check the frame's buffer *is* the message: `decode_owned` hands
//! out `body` and `bulk` as views of it, so a write payload reaches the
//! chunk store without another copy.
//!
//! **Landing.** A chunk read's reply need not be a buffer at all: its
//! waiter knows where each op's bytes belong in its result (a
//! [`Landing`]), and the reply's body — per op, a length and an absent
//! flag — arrives before its bulk. So a leader whose own reply is at the
//! head of the stream, too large for the read buffer, takes the prefix
//! from the read buffer and receives each run of the bulk straight into
//! its op's window, checksumming the bytes as they land
//! (`FrameReader::land`): kernel → result, no copy in user space but the
//! few KiB that came with the header. Bytes no window wants — an absent
//! op's, one an earlier reply resolved — go through the read buffer and
//! are dropped, as is the whole of a large frame whose slot is gone. A
//! leader lands only a frame that carries its own id, on its own thread,
//! into its own buffer: another waiter's reply is read into a buffer and
//! parked as any other, and its waiter copies it in, as it copies a
//! small frame's or the in-process transport's reply (counted,
//! [`Landing::copied`]). No pointer crosses threads, and a waiter that
//! timed out has nothing to revoke.
//!
//! # Failure semantics
//!
//! A dead connection does not brick the endpoint. Whoever holds the
//! read token when the stream fails (peer reset, EOF, corrupt frame, a
//! peer that stalls inside a frame) fails every in-flight request with
//! a *typed* error — [`GkfsError::Rpc`] for connection loss,
//! [`GkfsError::Corruption`] for a checksum mismatch — and clears the
//! live connection. The next `submit` re-dials, subject to a small
//! exponential backoff after failed dial attempts so a down daemon is
//! probed, not hammered. Nobody reads an idle connection, so a peer
//! that went away between calls is noticed by the next call on it,
//! which fails with the same retryable error. All of these errors
//! satisfy `GkfsError::is_retryable`, which is what lets the client
//! retry layer ride through a daemon restart transparently.
//!
//! A wait gives up only on a frame boundary: between frames a reader
//! waits on readiness for no longer than it has left, and inside a
//! frame it waits for the rest — up to the endpoint's timeout at a
//! time, after which the peer counts as gone and the connection is
//! condemned. These rules are the client's, on top of the assembler. So
//! `wait(timeout)` returns `Timeout` on time, its slot is reaped, the
//! stream stays aligned for the next call, and the late reply is read
//! and dropped by the next reader.

use crate::message::{Request, Response, Status};
use crate::stats::WaitStats;
use crate::transport::{Endpoint, EndpointOptions, Landing, ReplyHandle, SMALL_FRAME};
use bytes::Bytes;
use gkfs_common::crc::{crc32, crc32_update};
use gkfs_common::lock::{self, rank, Condvar, OrderedMutex};
use gkfs_common::wire::FrameWriter;
use gkfs_common::{GkfsError, Result};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::mem::MaybeUninit;
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong, c_void};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

mod server;
pub use server::TcpServer;

/// Maximum accepted frame: 256 MiB guards against garbage length
/// prefixes from a confused peer.
const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Most a receiver reserves for a frame before any of it has arrived.
/// The length prefix is only a claim: a peer that announces
/// [`MAX_FRAME`] and hangs up must not have bought 256 MiB. Frames up
/// to this size — every chunk batch of a default deployment — land in
/// an exactly-sized buffer; larger ones grow with the bytes received.
const FRAME_RESERVE_MAX: usize = 4 * 1024 * 1024;

/// A connection's read buffer: a small frame with its header and
/// trailer, and a little more so that a frame pipelined behind it shows.
const READ_BUF: usize = SMALL_FRAME + 512;

/// How long a hot reader — a client's connection, a daemon's loop —
/// polls before it parks: a few small-RPC round trips on loopback, far
/// below what a chunk-sized frame takes (module docs, "Poll before
/// park").
const SPIN: Duration = Duration::from_micros(50);

/// One sleep of a follower whose timeout is too large to be a deadline
/// (it re-checks and sleeps again).
const WAIT_FOREVER: Duration = Duration::from_secs(3600);

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
    fw.write_to(stream).map_err(lost)
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

/// A socket error as the retryable connection loss it is.
fn lost(e: std::io::Error) -> GkfsError {
    GkfsError::Rpc(format!("connection lost: {e}"))
}

fn closed_err() -> GkfsError {
    GkfsError::Rpc("connection closed".into())
}

/// A peer that sent part of a frame and then nothing for `stall`.
fn stalled(stall: Option<Duration>) -> GkfsError {
    GkfsError::Rpc(format!(
        "connection lost: peer stalled {:?} inside a frame",
        stall.unwrap_or_default()
    ))
}

/// A reply frame as its message; a frame that passed its checksum and
/// does not decode is corruption all the same.
fn decode_reply(frame: &Bytes) -> Result<Response> {
    Response::decode_owned(frame)
        .map_err(|e| GkfsError::Corruption(format!("undecodable response frame: {e}")))
}

/// A `poll(2)` or `epoll_wait(2)` timeout: `within` rounded up to whole
/// milliseconds — a wait with time left must not spin at zero — and
/// `None`, as long as it takes, as -1.
fn timeout_ms(within: Option<Duration>) -> c_int {
    within.map_or(-1, |t| {
        c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
    })
}

/// Where a `FrameReader` receives from: a [`TcpStream`], or — so that
/// a test can substitute its byte source — anything that hands out
/// bytes the way one does.
///
/// # Safety
///
/// `recv` returning `Ok(n)` promises `n <= into.len()` and that it
/// initialised the first `n` bytes of `into`: a receiver lands bytes in
/// a caller's result on that word.
pub unsafe trait Recv {
    /// Receive what is there now, at most `into.len()` bytes, to the
    /// front of `into`, without waiting. `Ok(0)` is the end of the
    /// stream; `WouldBlock`, nothing is there yet.
    fn recv(&mut self, into: &mut [MaybeUninit<u8>]) -> std::io::Result<usize>;

    /// Wait up to `within` (`None`: as long as it takes) for something
    /// to receive — bytes, or the peer's hang-up, which the next `recv`
    /// reports — and say whether it came. A wait cut short by a signal
    /// says `true` too: the `recv` after it finds nothing, and the
    /// caller waits again.
    fn wait(&mut self, within: Option<Duration>) -> std::io::Result<bool>;
}

// SAFETY: `recv(2)` writes at most the `len` bytes it is given and
// says how many it wrote.
unsafe impl Recv for TcpStream {
    /// `recv(2)` with `MSG_DONTWAIT` straight into `into`, which is
    /// never zero-filled. `O_NONBLOCK` is not an option: it belongs to
    /// the open file description, which the `try_clone`d write half
    /// shares, and a writer that met `EAGAIN` in the middle of a frame
    /// would condemn a healthy connection.
    fn recv(&mut self, into: &mut [MaybeUninit<u8>]) -> std::io::Result<usize> {
        extern "C" {
            fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
        }
        const MSG_DONTWAIT: c_int = 0x40;
        // SAFETY: `into` is `into.len()` exclusively borrowed bytes,
        // which the kernel needs writable, not initialised; the
        // descriptor is this stream's, open for the whole call.
        let got = unsafe { recv(self.as_raw_fd(), into.as_mut_ptr().cast(), into.len(), MSG_DONTWAIT) };
        usize::try_from(got).map_err(|_| std::io::Error::last_os_error())
    }

    /// One `poll(2)` on the descriptor: no descriptor of its own and no
    /// registration, where an epoll instance per connection would need
    /// both. The one place a client's reader blocks, so the one place it
    /// asserts that no guard is held.
    fn wait(&mut self, within: Option<Duration>) -> std::io::Result<bool> {
        lock::assert_unguarded("Recv::wait");
        #[repr(C)]
        struct PollFd {
            fd: c_int,
            events: c_short,
            revents: c_short,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }
        const POLLIN: c_short = 0x1;
        let mut fd = PollFd {
            fd: self.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: one `pollfd`, exclusively borrowed for the call; a
        // hang-up or an error is reported whatever `events` asks.
        match unsafe { poll(&mut fd, 1, timeout_ms(within)) } {
            0 => Ok(false),
            n if n > 0 => Ok(true),
            _ => match std::io::Error::last_os_error() {
                e if e.kind() == ErrorKind::Interrupted => Ok(true),
                e => Err(e),
            },
        }
    }
}

/// The one receive primitive: `r.recv` into `into`, and the bytes it
/// received, now initialised, as the front of `into`.
fn recv_into<'b>(r: &mut impl Recv, into: &'b mut [MaybeUninit<u8>]) -> std::io::Result<&'b mut [u8]> {
    let n = r.recv(into)?;
    let got = &mut into[..n];
    // SAFETY: `Recv`'s contract — `recv` initialised the `n` bytes it
    // reported, within `into`.
    Ok(unsafe { got.assume_init_mut() })
}

/// [`recv_into`] onto the end of `into`, at most `max` bytes and no
/// more than its spare capacity: the receive of a buffer that grows as
/// bytes arrive.
fn recv_vec(r: &mut impl Recv, into: &mut Vec<u8>, max: usize) -> std::io::Result<usize> {
    let spare = into.spare_capacity_mut();
    let want = spare.len().min(max);
    let got = recv_into(r, &mut spare[..want])?.len();
    // SAFETY: the receive initialised the `got` bytes past the old
    // length, all within the capacity.
    unsafe { into.set_len(into.len() + got) };
    Ok(got)
}

/// Poll before park, written once (module docs): wait up to `within`
/// (`None`: as long as it takes) for what `look` finds, on `on`. A
/// *hot* reader first looks without blocking for `min(SPIN, within)`,
/// yielding between looks — its CPU is shared with the thread it waits
/// for — and counts the wait in `spun` when a look finds it, or the
/// window in `expired` when none does. Then it, or a cold reader,
/// parks: `park` blocks for what is left of `within` and looks. A reader
/// is hot after a wait whose find came within [`SPIN`] of its start.
/// Which reader is hot is its caller's: the daemon's loop
/// (`server::Shared::wait`, looking with `epoll_wait` on its set) keeps
/// one flag per daemon, a client (`FrameReader::poll`, looking with
/// `recv` and parking in [`Recv::wait`]) one per connection, on its
/// read [`Token`].
fn poll_or_park<S: ?Sized, T, E>(
    on: &mut S,
    hot: &mut bool,
    within: Option<Duration>,
    [spun, expired]: [&AtomicU64; 2],
    mut look: impl FnMut(&mut S) -> std::result::Result<Option<T>, E>,
    park: impl FnOnce(&mut S, Option<Duration>) -> std::result::Result<Option<T>, E>,
) -> std::result::Result<Option<T>, E> {
    let began = Instant::now();
    let mut left = within;
    if *hot {
        let window = within.map_or(SPIN, |w| w.min(SPIN));
        loop {
            if let Some(found) = look(on)? {
                spun.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(found));
            }
            if began.elapsed() >= window {
                break;
            }
            std::thread::yield_now();
        }
        expired.fetch_add(1, Ordering::Relaxed);
        *hot = false;
        left = within.map(|w| w.saturating_sub(began.elapsed()));
        if left == Some(Duration::ZERO) {
            return Ok(None);
        }
    }
    let found = park(on, left)?;
    *hot = found.is_some() && began.elapsed() <= SPIN;
    Ok(found)
}

/// Verify a frame's trailing checksum against `got`, the CRC of its
/// payload. A mismatch surfaces as [`GkfsError::Corruption`], which the
/// caller must treat as fatal for the connection: after a bad frame the
/// stream offset can no longer be trusted, so the only way to
/// resynchronize is to drop the connection and reconnect.
fn check_crc(got: u32, trailer: &[u8]) -> Result<()> {
    let want = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if got != want {
        return Err(GkfsError::Corruption(format!(
            "tcp frame crc mismatch: computed {got:#010x}, frame says {want:#010x}"
        )));
    }
    Ok(())
}

/// The read half of a connection and the one frame assembler: every
/// reader — the daemon's loop, a leading waiter, the chaos proxy —
/// receives through [`FrameReader::fill`] and cuts frames with
/// [`FrameReader::take_frame`], or a waiter lands its own reply with
/// [`FrameReader::land`]. Counterpart of [`write_frame_segments`].
pub(crate) struct FrameReader<R> {
    stream: R,
    /// Bytes received into a buffer of [`READ_BUF`] bytes' capacity;
    /// `buf[start..]` is not consumed yet.
    buf: Vec<u8>,
    start: usize,
    /// A frame too large for the buffer, being assembled: its payload
    /// length, and its bytes so far (payload and trailer) in a `Vec`
    /// reserved by [`frame_reserve`].
    big: Option<(usize, Vec<u8>)>,
}

impl<R: Recv> FrameReader<R> {
    pub(crate) fn new(stream: R) -> FrameReader<R> {
        FrameReader {
            stream,
            buf: Vec::with_capacity(READ_BUF),
            start: 0,
            big: None,
        }
    }

    /// Bytes received beyond what has been consumed: after a frame was
    /// taken, whether the peer had already sent more.
    fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Receive what the socket holds for [`FrameReader::take_frame`] to
    /// take, without waiting: one `recv` into the read buffer, or into
    /// the spare capacity of the large frame being assembled until it is
    /// whole or the socket is drained, so that a chunk-sized frame is
    /// taken in one look. Whether bytes came: `false` is a drained
    /// socket. An error — end of stream included — condemns the
    /// connection.
    fn fill(&mut self) -> Result<bool> {
        let (into, total, until_whole) = match &mut self.big {
            Some((len, frame)) => (frame, *len + 4, true),
            None => {
                self.buf.drain(..self.start);
                self.start = 0;
                (&mut self.buf, READ_BUF, false)
            }
        };
        // `take_frame` leaves a part of a frame at most.
        debug_assert!(into.len() < total);
        let mut came = false;
        loop {
            // A large frame grows as its bytes arrive (the read buffer
            // is never full here).
            if into.len() == into.capacity() {
                into.reserve((total - into.len()).min(FRAME_RESERVE_MAX));
            }
            match recv_vec(&mut self.stream, into, total - into.len()) {
                Ok(0) if into.is_empty() => return Err(closed_err()),
                Ok(0) => {
                    return Err(GkfsError::Rpc(format!(
                        "connection lost: peer closed {} bytes into a frame",
                        into.len()
                    )))
                }
                Ok(_) if until_whole && into.len() < total => came = true,
                Ok(_) => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(came),
                Err(e) => return Err(lost(e)),
            }
        }
    }

    /// Payload length of the frame whose header is at the front of the
    /// buffer, once all four bytes of it are.
    fn header(&self) -> Result<Option<usize>> {
        let Some(head) = self.buf.get(self.start..self.start + 4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        if len > MAX_FRAME {
            return Err(GkfsError::Rpc(format!("frame too large: {len}")));
        }
        Ok(Some(len as usize))
    }

    /// Whether a frame of `len` payload bytes goes through the buffer
    /// (header, payload and trailer fit it) rather than into a buffer
    /// of its own.
    fn holds(&self, len: usize) -> bool {
        len + 8 <= READ_BUF
    }

    /// The next frame received whole — trailer verified and cut off —
    /// or `None` while it is still arriving; the one place a frame is
    /// cut. A frame that fits the buffer is copied out of it as one
    /// owned buffer. A larger one moves here into a `Vec` reserved to its
    /// size (what came with its header is copied once), which
    /// [`FrameReader::fill`] fills and which becomes the `Bytes` without
    /// another copy.
    fn take_frame(&mut self) -> Result<Option<Bytes>> {
        if let Some((len, frame)) = &self.big {
            if frame.len() < len + 4 {
                return Ok(None);
            }
            let (len, mut frame) = self.big.take().unwrap_or_default();
            check_crc(crc32(&frame[..len]), &frame[len..])?;
            frame.truncate(len);
            return Ok(Some(Bytes::from(frame)));
        }
        let Some(len) = self.header()? else {
            return Ok(None);
        };
        if self.holds(len) {
            if self.buffered() < len + 8 {
                return Ok(None);
            }
            let (payload, rest) = self.buf[self.start + 4..].split_at(len);
            check_crc(crc32(payload), &rest[..4])?;
            let frame = Bytes::copy_from_slice(payload);
            self.start += len + 8;
            return Ok(Some(frame));
        }
        // Not even the trailer fits behind the header in the buffer, so
        // what is buffered is part of this frame and nothing else.
        let mut frame = Vec::with_capacity(frame_reserve(len));
        frame.extend_from_slice(&self.buf[self.start + 4..]);
        self.start = self.buf.len();
        self.big = Some((len, frame));
        Ok(None)
    }

    /// Receive more of the frame at the front, or wait for it: inside a
    /// frame the reader waits up to `stall` (`None`: as long as it
    /// takes) at a time, and a wait that runs out means the peer is gone
    /// in all but name.
    fn more(&mut self, stall: Option<Duration>) -> Result<()> {
        if self.fill()? || self.stream.wait(stall).map_err(lost)? {
            return Ok(());
        }
        Err(stalled(stall))
    }

    /// Receive until the frame at the front is whole, and take it: a
    /// client's reading of a frame whose first bytes its poll found.
    /// Returns only on a frame boundary or with an error that condemns
    /// the connection ([`FrameReader::more`]).
    pub(crate) fn next_frame(&mut self, stall: Option<Duration>) -> Result<Bytes> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(frame);
            }
            self.more(stall)?;
        }
    }

    /// Receive until the frame at the front shows its payload length
    /// and — for a frame that does not go through the read buffer — the
    /// id a reply's first eight bytes carry: whose the frame is, before
    /// any of it is taken.
    fn head(&mut self, stall: Option<Duration>) -> Result<(usize, Option<u64>)> {
        loop {
            if let Some(len) = self.header()? {
                if self.holds(len) {
                    return Ok((len, None));
                }
                if let Some(id) = self.buf.get(self.start + 4..self.start + 12) {
                    let mut le = [0u8; 8];
                    le.copy_from_slice(id);
                    return Ok((len, Some(u64::from_le_bytes(le))));
                }
            }
            self.more(stall)?;
        }
    }

    /// Receive the frame at the front — a `ReadChunks` reply of `len`
    /// payload bytes, too many for the read buffer, whose header
    /// [`FrameReader::head`] read — landing its bulk in `land`'s
    /// windows: the prefix (id, status, body) from the read buffer, then
    /// each run of the bulk straight into its op's window or, dropped,
    /// through the read buffer, the checksum computed over the bytes as they land; the
    /// reply comes back with its bulk empty. The outer error condemns
    /// the connection (a lost stream, a bad checksum). The inner one is
    /// the call's: a reply that disagrees with its batch is received
    /// whole, through the read buffer, and lands nothing; the stream stays
    /// aligned. A prefix the read buffer cannot hold takes a buffer of
    /// its own with the rest of the frame, and its bulk is copied in.
    fn land(&mut self, len: usize, stall: Option<Duration>, land: &mut Landing<'_>) -> Result<Result<Response>> {
        let (resp, prefix) = loop {
            match Response::decode_prefix(&self.buf[self.start + 4..], len) {
                Ok(parsed) => break parsed,
                Err(_) if self.buffered() < READ_BUF => self.more(stall)?,
                Err(_) => return Ok(land.absorb(decode_reply(&self.next_frame(stall)?)?)),
            }
        };
        let mut crc = crc32(&self.buf[self.start + 4..self.start + 4 + prefix]);
        self.start += 4 + prefix;
        let bulk = len - prefix;
        let plan = if resp.status == Status::Ok { land.plan(&resp.body, bulk) } else { Ok(vec![(bulk, None)]) };
        let (runs, verdict) = match plan {
            Ok(runs) => (runs, Ok(())),
            Err(e) => (vec![(bulk, None)], Err(e)),
        };
        for &(n, op) in &runs {
            match op {
                Some(op) => self.receive(land.window(op, n), &mut crc, stall)?,
                None => self.skip(n, &mut crc, stall)?,
            }
        }
        self.trailer(crc, stall)?;
        Ok(verdict.map(|()| {
            land.commit(&runs);
            resp
        }))
    }

    /// Receive the frame at the front — `len` payload bytes, too many
    /// for the read buffer, whose header [`FrameReader::head`] read —
    /// through the read buffer, check it and drop it: a reply nobody
    /// waits for costs no buffer.
    fn discard(&mut self, len: usize, stall: Option<Duration>) -> Result<()> {
        self.start += 4;
        let mut crc = 0;
        self.skip(len, &mut crc, stall)?;
        self.trailer(crc, stall)
    }

    /// Receive the next `dst.len()` bytes of the frame being read into
    /// `dst`, adding them to `crc`: what came with the header is copied
    /// out of the read buffer, the rest received straight into `dst`.
    fn receive(&mut self, dst: &mut [MaybeUninit<u8>], crc: &mut u32, stall: Option<Duration>) -> Result<()> {
        let held = self.buffered().min(dst.len());
        let (now, mut rest) = dst.split_at_mut(held);
        *crc = crc32_update(*crc, now.write_copy_of_slice(&self.buf[self.start..self.start + held]));
        self.start += held;
        while !rest.is_empty() {
            let n = match recv_into(&mut self.stream, &mut *rest) {
                Ok([]) => return Err(GkfsError::Rpc("connection lost: peer closed inside a frame".into())),
                Ok(got) => {
                    *crc = crc32_update(*crc, got);
                    got.len()
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => 0,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !self.stream.wait(stall).map_err(lost)? {
                        return Err(stalled(stall));
                    }
                    0
                }
                Err(e) => return Err(lost(e)),
            };
            rest = &mut std::mem::take(&mut rest)[n..];
        }
        Ok(())
    }

    /// Receive the next `n` bytes of the frame being read, adding them
    /// to `crc`, and drop them: through the read buffer, [`READ_BUF`]
    /// bytes at a time, so that nothing is allocated for bytes nobody
    /// wants. What arrives behind them stays buffered.
    fn skip(&mut self, mut n: usize, crc: &mut u32, stall: Option<Duration>) -> Result<()> {
        loop {
            let take = self.buffered().min(n);
            *crc = crc32_update(*crc, &self.buf[self.start..self.start + take]);
            self.start += take;
            n -= take;
            if n == 0 {
                return Ok(());
            }
            self.more(stall)?;
        }
    }

    /// Receive the trailer of the frame being read, whose payload's CRC
    /// is `crc`, and check it. What arrives behind it stays buffered for
    /// the next frame.
    fn trailer(&mut self, crc: u32, stall: Option<Duration>) -> Result<()> {
        while self.buffered() < 4 {
            self.more(stall)?;
        }
        let at = self.start;
        self.start += 4;
        check_crc(crc, &self.buf[at..at + 4])
    }

    /// On a frame boundary, wait up to `within` (`None`: as long as it
    /// takes) for the first bytes of the next frame. `Ok(false)`:
    /// nothing came, and the stream is still on the boundary — the one
    /// place a reader may walk away from it. Every client reader waits
    /// here, by [`poll_or_park`] with the hot flag of this connection's
    /// [`Token`]: it looks with a `recv`, and parks in [`Recv::wait`]
    /// before one. `spun` and `expired` count the polls that found bytes
    /// and the windows that ran out.
    fn poll(
        &mut self,
        hot: &mut bool,
        within: Option<Duration>,
        spins: [&AtomicU64; 2],
    ) -> Result<bool> {
        if self.buffered() > 0 {
            return Ok(true);
        }
        let came: Result<_> = poll_or_park(
            self,
            hot,
            within,
            spins,
            |r| Ok(r.fill()?.then_some(())),
            |r, left| Ok((r.stream.wait(left).map_err(lost)? && r.fill()?).then_some(())),
        );
        Ok(came?.is_some())
    }
}

/// Every frame `stream` holds, assembled as a client's reader assembles
/// them — a frame at a time, receiving what is there and waiting when
/// nothing is — and the error that ended the reading: at a clean end of
/// stream, the `Rpc` of a peer that closed on a frame boundary. For the
/// decoder fuzzer (`tests/fuzz_wire.rs`), which has bytes and no
/// socket.
#[doc(hidden)]
pub fn read_frames(stream: impl Recv) -> (Vec<Bytes>, GkfsError) {
    let mut reader = FrameReader::new(stream);
    let mut frames = Vec::new();
    loop {
        match reader.next_frame(None) {
            Ok(frame) => frames.push(frame),
            Err(cause) => return (frames, cause),
        }
    }
}

/// The one frame `stream` holds, a `ReadChunks` reply, landed as its
/// waiter lands it: op `i` of the batch into the `caps[i]` bytes of
/// `into` that follow op `i - 1`'s (`caps` must fit `into`), and what
/// each op landed; or the error that ended the reading. A frame that
/// fits the read buffer is copied in, as its waiter copies it. For the
/// landing fuzzer (`tests/fuzz_wire.rs`), which keeps guard bytes around
/// `into`.
#[doc(hidden)]
pub fn land_frame(stream: impl Recv, caps: &[usize], into: &mut [u8]) -> Result<Vec<Option<usize>>> {
    // SAFETY: `MaybeUninit<u8>` has `u8`'s layout, and a `Landing`
    // writes initialised bytes only, so `into` stays initialised.
    let mut rest = unsafe { &mut *(std::ptr::from_mut(into) as *mut [MaybeUninit<u8>]) };
    let mut windows = Vec::with_capacity(caps.len());
    for &cap in caps {
        let (window, after) = std::mem::take(&mut rest).split_at_mut(cap);
        windows.push(window);
        rest = after;
    }
    let mut land = Landing::new(windows);
    let mut reader = FrameReader::new(stream);
    let resp = match reader.head(None)? {
        (len, Some(_)) => reader.land(len, None, &mut land)??,
        (_, None) => land.absorb(decode_reply(&reader.next_frame(None)?)?)?,
    };
    resp.into_result()?;
    Ok(land.landed().to_vec())
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

/// A client connection's read token: the read half of its socket, and
/// whether the connection is hot — its last frame's first bytes came
/// within [`SPIN`] of the wait for them starting, so the next wait
/// polls before it parks. The flag travels with the token, from leader
/// to leader.
struct Token {
    reader: FrameReader<TcpStream>,
    hot: bool,
}

/// What a connection's completion table holds.
struct Table {
    /// A slot per request in flight: `None` until its reply — or the
    /// connection's cause of death — is parked there for the waiter.
    slots: HashMap<u64, Option<Result<Response>>>,
    /// Slots still `None`: the replies somebody has to read.
    waiting: usize,
    /// The read half of the socket — the token. `None` while a leading
    /// waiter has it, and for good once the connection is dead.
    reader: Option<Token>,
    /// Waiters asleep on `replies`.
    followers: usize,
    /// Why the connection is finished, once it is. No slot is accepted
    /// after.
    dead: Option<GkfsError>,
}

impl Table {
    /// Give up slot `id` (a handle dropped, as the one whose `wait` timed
    /// out is; a finished lead): its reply, if one still comes, is
    /// discarded by whoever reads it.
    fn forget(&mut self, id: u64) {
        if let Some(None) = self.slots.remove(&id) {
            self.waiting -= 1;
        }
    }
}

/// Completion state of one live connection generation. Each generation
/// gets its *own* table, so a request submitted on connection N can
/// never be completed (or leaked) by a reader of connection N+1.
struct Completions {
    pending: OrderedMutex<Table>,
    /// Followers wait here for their slot to fill or the token to free.
    replies: Condvar,
    /// The endpoint's connection slot and this connection's generation
    /// in it, to retire the connection when its stream fails. Weak: the
    /// slot owns this table, not the reverse.
    conn: Weak<OrderedMutex<ConnSlot>>,
    gen: u64,
    /// How long the peer may stall inside a frame (the endpoint's
    /// per-call timeout).
    stall: Duration,
    stats: Arc<WaitStats>,
}

/// How a leading waiter's turn at the socket ended.
enum Led {
    /// With its own reply — landed, when the wait had windows for it —
    /// or the error that reply earned the call.
    Mine(Result<Response>),
    /// With its deadline, on a frame boundary.
    TimedOut,
}

/// `resp`, landed in `land` if the wait has windows for it: a reply
/// that reached its waiter as a buffer is copied in ([`Landing`]).
fn settle(resp: Response, land: Option<&mut Landing<'_>>) -> Result<Response> {
    match land {
        Some(land) => land.absorb(resp),
        None => Ok(resp),
    }
}

impl Completions {
    /// Reserve the slot for request `id`.
    fn register(&self, id: u64) -> Result<()> {
        let mut t = self.pending.lock();
        if let Some(cause) = &t.dead {
            return Err(cause.clone());
        }
        t.slots.insert(id, None);
        t.waiting += 1;
        Ok(())
    }

    /// Whether a waiter still wants the reply to `id`.
    fn awaited(&self, id: u64) -> bool {
        matches!(self.pending.lock().slots.get(&id), Some(None))
    }

    /// Park a reply read off the socket in its slot and wake its waiter.
    /// A reply nobody waits for any more is dropped here.
    fn park(&self, t: &mut Table, resp: Response) {
        if let Some(slot @ None) = t.slots.get_mut(&resp.id) {
            *slot = Some(Ok(resp));
            t.waiting -= 1;
            if t.followers > 0 {
                self.replies.notify_all();
            }
        }
    }

    /// Hand the token back and pass the reading on to a follower, if
    /// anything is left to read at all.
    fn release(&self, t: &mut Table, token: Token) {
        if t.dead.is_some() {
            return; // condemned meanwhile: the token goes with it
        }
        t.reader = Some(token);
        if t.waiting > 0 && t.followers > 0 {
            self.replies.notify_all();
        }
    }

    /// The connection is finished: fail every reply still awaited with
    /// `cause` — once; a slot that already holds its reply keeps it —
    /// drop the token and wake everyone.
    fn condemn(&self, cause: GkfsError) {
        let mut t = self.pending.lock();
        if t.dead.is_some() {
            return;
        }
        for slot in t.slots.values_mut().filter(|s| s.is_none()) {
            *slot = Some(Err(cause.clone()));
        }
        t.waiting = 0;
        t.reader = None;
        t.dead = Some(cause);
        drop(t);
        self.replies.notify_all();
    }

    /// The stream failed under whoever held the token: retire this
    /// connection if it is still the endpoint's live one (a submitter
    /// that hit a write error may already have replaced or cleared it),
    /// so the next submit re-dials, then fail what was in flight. New
    /// submits can no longer reach this table — inserts only happen
    /// under the conn lock while this generation is live — so nothing
    /// races in after the sweep.
    fn fail(&self, cause: GkfsError) {
        if let Some(conn) = self.conn.upgrade() {
            let mut s = conn.lock();
            if s.live.as_ref().map(|c| c.gen) == Some(self.gen) {
                s.live = None;
            }
        }
        self.condemn(cause);
    }

    /// Read the socket until the reply to `id` arrives or `deadline`
    /// passes on a frame boundary, parking every other reply in its
    /// slot. Each frame is read by what it is: one that fits the read
    /// buffer is cut from it; a larger one that is this wait's own
    /// reply lands in `land`'s windows when the wait has them; one a
    /// waiter still wants is read into a buffer of its own; one whose
    /// slot is gone is dropped through the read buffer. No lock is held
    /// while reading.
    fn lead(
        &self,
        token: &mut Token,
        id: u64,
        deadline: Option<Instant>,
        mut land: Option<&mut Landing<'_>>,
    ) -> Result<Led> {
        let spins = [&self.stats.spun, &self.stats.spin_expired];
        let stall = Some(self.stall);
        loop {
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Ok(Led::TimedOut);
            }
            if !token.reader.poll(&mut token.hot, left, spins)? {
                continue;
            }
            let reader = &mut token.reader;
            let resp = match reader.head(stall)? {
                (len, Some(of)) if of == id => match land.as_deref_mut() {
                    Some(land) => return Ok(Led::Mine(reader.land(len, stall, land)?)),
                    None => decode_reply(&reader.next_frame(stall)?)?,
                },
                (len, Some(of)) if !self.awaited(of) => {
                    reader.discard(len, stall)?;
                    continue;
                }
                _ => decode_reply(&reader.next_frame(stall)?)?,
            };
            if resp.id == id {
                return Ok(Led::Mine(settle(resp, land)));
            }
            self.park(&mut self.pending.lock(), resp);
        }
    }
}

/// A submitted request's claim on its slot — what a TCP
/// [`ReplyHandle`] holds.
pub(crate) struct Ticket {
    done: Arc<Completions>,
    id: u64,
    /// The slot is gone from the table already (a finished `wait`).
    settled: bool,
}

impl Ticket {
    /// Wait for the reply — the lead-or-follow rule, the only one. The
    /// waiter reads the socket itself (*leads*) when the token is free,
    /// whatever else its thread holds; otherwise it *follows*: it sleeps
    /// until a reader parks its reply or the token frees up. With
    /// `land`, the reply's bulk lands in its windows: received there
    /// when this wait reads its reply itself, copied there from the
    /// buffer another reader parked. `None` is `timeout` passing with
    /// the reply still awaited: the slot stays, for a later wait or for
    /// `Drop` to give up.
    pub(crate) fn wait_within(
        &mut self,
        timeout: Duration,
        mut land: Option<&mut Landing<'_>>,
    ) -> Option<Result<Response>> {
        let done = &*self.done;
        let deadline = Instant::now().checked_add(timeout);
        let mut led = false;
        let mut t = done.pending.lock();
        let outcome = loop {
            match t.slots.get(&self.id).map(Option::is_some) {
                Some(true) => {
                    // Parked by another reader: its buffer is copied in
                    // below, with no lock held.
                    let parked = t.slots.remove(&self.id).flatten();
                    drop(t);
                    break parked.map(|got| got.and_then(|resp| settle(resp, land)));
                }
                Some(false) => {}
                None => {
                    drop(t);
                    break Some(Err(closed_err()));
                }
            }
            let left = deadline.map_or(WAIT_FOREVER, |at| {
                at.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                drop(t);
                break None;
            }
            if let Some(mut token) = t.reader.take() {
                drop(t);
                let turn = done.lead(&mut token, self.id, deadline, land.as_deref_mut());
                t = done.pending.lock();
                match turn {
                    Ok(turn) => {
                        led = true;
                        if matches!(turn, Led::Mine(_)) {
                            t.forget(self.id);
                        }
                        done.release(&mut t, token);
                        drop(t);
                        break match turn {
                            Led::Mine(got) => Some(got),
                            Led::TimedOut => None,
                        };
                    }
                    Err(cause) => {
                        drop(t);
                        drop(token);
                        done.fail(cause);
                        t = done.pending.lock();
                    }
                }
            } else {
                t.followers += 1;
                t.wait_for(&done.replies, left);
                t.followers -= 1;
            }
        };
        self.settled = outcome.is_some();
        let by = if led { &done.stats.waits_led } else { &done.stats.waits_followed };
        by.fetch_add(1, Ordering::Relaxed);
        outcome
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.settled {
            self.done.pending.lock().forget(self.id);
        }
    }
}

/// One live connection generation.
struct LiveConn {
    gen: u64,
    writer: TcpStream,
    done: Arc<Completions>,
}

/// Mutable connection state behind the endpoint's `conn` lock.
struct ConnSlot {
    live: Option<LiveConn>,
    /// Generation counter; each successful dial gets a fresh one so a
    /// reader of a stale connection cannot clear a newer one.
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
    waits: Arc<WaitStats>,
}

impl TcpEndpoint {
    /// Connect to a daemon at `addr` with default options.
    pub fn connect(addr: &str) -> Result<Arc<TcpEndpoint>> {
        Self::connect_with(addr, EndpointOptions::default())
    }

    /// Connect with explicit [`EndpointOptions`]. The initial dial is
    /// eager so an unreachable daemon fails here, not on first use.
    pub fn connect_with(addr: &str, opts: EndpointOptions) -> Result<Arc<TcpEndpoint>> {
        let ep = Self::connect_lazy(addr, opts);
        let live = ep.dial(1)?;
        ep.conn.lock().live = Some(live);
        Ok(ep)
    }

    /// Like [`TcpEndpoint::connect_with`] but without the eager initial
    /// dial: the endpoint starts disconnected and dials on first use,
    /// through the same reconnect-with-backoff machinery that handles
    /// a connection lost mid-session. For replicated deployments,
    /// where a daemon may be down right now and the caller wants to
    /// degrade to its replicas (or wait for its return) instead of
    /// refusing to start.
    pub fn connect_lazy(addr: &str, opts: EndpointOptions) -> Arc<TcpEndpoint> {
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
            timeout: opts.timeout,
            reconnects: AtomicU64::new(0),
            waits: Arc::new(WaitStats::default()),
        })
    }

    /// Number of submitted requests whose handles have neither been
    /// waited on to the end nor dropped (diagnostics; the pipelining
    /// tests assert nothing leaks).
    pub fn pending_len(&self) -> usize {
        let s = self.conn.lock();
        s.live.as_ref().map_or(0, |c| c.done.pending.lock().slots.len())
    }

    /// How this endpoint's waits were served: led or followed, and how
    /// often a poll found the reply.
    pub fn wait_stats(&self) -> &WaitStats {
        &self.waits
    }

    /// Dial the daemon as connection generation `gen`.
    fn dial(&self, gen: u64) -> Result<LiveConn> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| GkfsError::Rpc(format!("connect {}: {e}", self.addr)))?;
        stream.set_nodelay(true).ok();
        let reader = stream
            .try_clone()
            .map_err(|e| GkfsError::Rpc(e.to_string()))?;
        let done = Arc::new(Completions {
            pending: OrderedMutex::new(
                rank::RPC_PENDING,
                Table {
                    slots: HashMap::new(),
                    waiting: 0,
                    reader: Some(Token { reader: FrameReader::new(reader), hot: false }),
                    followers: 0,
                    dead: None,
                },
            ),
            replies: Condvar::new(),
            conn: Arc::downgrade(&self.conn),
            gen,
            stall: self.timeout,
            stats: Arc::clone(&self.waits),
        });
        Ok(LiveConn {
            gen,
            writer: stream,
            done,
        })
    }

    /// Reserve slot `id` on the live connection and write the frame —
    /// encoded prefix plus borrowed bulk segments, vectored — under the
    /// conn lock. On a write error the connection is torn down (the
    /// socket is broken) so the next submit re-dials immediately, and
    /// the error — retryable — is returned.
    fn send_on_live(
        &self,
        s: &mut ConnSlot,
        id: u64,
        prefix: &[u8],
        bulk: &[&[u8]],
    ) -> Result<ReplyHandle> {
        let Some(live) = s.live.as_mut() else {
            // The connection died between the dial/check and now; the
            // retry layer treats this as connection loss and retries.
            return Err(closed_err());
        };
        live.done.register(id)?;
        let ticket = Ticket {
            done: Arc::clone(&live.done),
            id,
            settled: false,
        };
        if let Err(e) = write_frame_segments(&mut live.writer, prefix, bulk) {
            // An established connection broke mid-write: clear it and
            // allow an immediate re-dial (backoff only gates dials
            // that themselves failed). Whatever else was in flight on
            // it fails with the same cause.
            s.live = None;
            s.dial_fails = 0;
            s.next_dial = None;
            ticket.done.condemn(e.clone());
            return Err(e);
        }
        Ok(ReplyHandle::slot(ticket))
    }

    /// Send `req` with `bulk` (in order) as its bulk payload; the frame
    /// is on the socket, or the submission has failed, on return. One
    /// acquisition of the conn lock when the connection is live.
    fn submit_frame(&self, mut req: Request, bulk: &[&[u8]]) -> Result<ReplyHandle> {
        req.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id = req.id;
        // Only the prefix (opcode, id, body, bulk length) is
        // serialized; the bulk payload rides to the socket as the
        // borrowed segments it was handed over in.
        let prefix = req.encode_prefix_for(bulk.iter().map(|s| s.len()).sum());

        let mut s = self.conn.lock();
        if s.live.is_none() {
            if s.dialing {
                return Err(GkfsError::Rpc(format!(
                    "{}: reconnect in progress",
                    self.addr
                )));
            }
            if s.next_dial.is_some_and(|t| Instant::now() < t) {
                return Err(GkfsError::Rpc(format!("{}: reconnect backoff", self.addr)));
            }
            s.dialing = true;
            s.gens += 1;
            let gen = s.gens;
            // Dial without the lock held: a slow/unroutable dial
            // must not stall submitters (they fail fast above).
            drop(s);
            let dialed = self.dial(gen);
            s = self.conn.lock();
            s.dialing = false;
            match dialed {
                Ok(live) => {
                    s.live = Some(live);
                    s.dial_fails = 0;
                    s.next_dial = None;
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    s.dial_fails = s.dial_fails.saturating_add(1);
                    // Capped shift: the ceiling is hit long before
                    // the shift could overflow.
                    let shift = s.dial_fails.min(16) - 1;
                    let ms = (DIAL_BACKOFF_BASE_MS << shift).min(DIAL_BACKOFF_MAX_MS);
                    s.next_dial = Some(Instant::now() + Duration::from_millis(ms));
                    return Err(e);
                }
            }
        }
        self.send_on_live(&mut s, id, &prefix, bulk)
    }
}

impl Drop for TcpEndpoint {
    /// Hang up: the daemon's loop sees EOF and drops the connection,
    /// handles still out fail as closed.
    fn drop(&mut self) {
        let live = self.conn.lock().live.take();
        if let Some(live) = live {
            let _ = live.writer.shutdown(Shutdown::Both);
            live.done.condemn(closed_err());
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
    use crate::handler::HandlerRegistry;
    use crate::message::Opcode;
    use crate::Status;
    use bytes::Bytes;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

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
        // One call guarantees the loop has registered the accepted
        // socket in `conns`.
        ep.call(Request::new(Opcode::Ping, &b"x"[..])).unwrap();
        // Dialed side: the live connection's write half.
        {
            let s = ep.conn.lock();
            let live = s.live.as_ref().expect("connection is live");
            assert!(live.writer.nodelay().unwrap(), "dialed socket must be TCP_NODELAY");
        }
        // Accepted side: the write half shares the socket (and
        // therefore the socket options) with the read half.
        {
            let conns = server.shared.conns.lock();
            assert!(!conns.is_empty());
            for c in conns.values() {
                assert!(c.writer.lock().nodelay().unwrap(), "accepted socket must be TCP_NODELAY");
            }
        }
        server.shutdown();
    }

    /// Bytes handed out the way a socket hands them out: as many as
    /// fit, with `WouldBlock` between receives — a socket found drained
    /// until its next wait, which finds more.
    struct Wire {
        data: Vec<u8>,
        at: usize,
        gap: bool,
    }

    fn wire(data: Vec<u8>) -> Wire {
        Wire { data, at: 0, gap: true }
    }

    // SAFETY: `recv` initialises the `n <= into.len()` bytes it reports.
    unsafe impl Recv for Wire {
        fn recv(&mut self, into: &mut [MaybeUninit<u8>]) -> std::io::Result<usize> {
            self.gap = !self.gap;
            if self.gap {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = into.len().min(self.data.len() - self.at);
            into[..n].write_copy_of_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }

        fn wait(&mut self, _: Option<Duration>) -> std::io::Result<bool> {
            Ok(true)
        }
    }

    /// One frame off `r`, waiting inside it as long as it takes.
    fn read_frame(r: &mut FrameReader<impl Recv>) -> Result<Bytes> {
        r.next_frame(None)
    }

    /// `[len][payload][crc]` as one buffer — the reference wire image.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut v = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
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
        let mut r = FrameReader::new(wire(stream));
        assert_eq!(&read_frame(&mut r).unwrap()[..], b"first");
        assert_eq!(read_frame(&mut r).unwrap(), vec![7u8; 100_000]);
        // Clean EOF between frames is connection loss, not corruption.
        assert!(matches!(read_frame(&mut r), Err(GkfsError::Rpc(_))));
    }

    #[test]
    fn read_frame_grows_past_the_reservation() {
        let payload: Vec<u8> = (0..FRAME_RESERVE_MAX + 70_000)
            .map(|i| u8::try_from(i % 253).unwrap())
            .collect();
        let mut r = FrameReader::new(wire(framed(&payload)));
        assert_eq!(read_frame(&mut r).unwrap(), payload);
    }

    #[test]
    fn flipped_trailer_is_corruption_and_short_frame_is_connection_loss() {
        let mut bad = framed(b"payload");
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            read_frame(&mut FrameReader::new(wire(bad))),
            Err(GkfsError::Corruption(_))
        ));
        let mut cut = framed(b"payload");
        cut.truncate(cut.len() - 3);
        assert!(matches!(
            read_frame(&mut FrameReader::new(wire(cut))),
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
        let mut raw = FrameReader::new(raw);
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
        assert_eq!(server.shared.handlers.pool.workers(), 1);
        // `dispatch` stopped the unwind; the pool's own guard (second
        // line of defence) never had to.
        assert_eq!(server.shared.handlers.pool.panics(), 0);
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
        // The lone caller took the token and read the frame itself,
        // though it does not go through the read buffer.
        let waits = ep.wait_stats();
        assert_eq!(waits.waits_led.load(Ordering::Relaxed), 1);
        assert_eq!(waits.waits_followed.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    /// A server whose `ReadChunks` answers every op of the batch with
    /// its whole length of `i % 251` bytes, after `delay` per op.
    fn chunk_server(delay: Duration) -> Arc<TcpServer> {
        use crate::proto::{op, ChunkBatchReq, ReadChunksResp};
        let mut reg = echo_registry();
        reg.serve_bulk::<op::ReadChunks>(move |batch: ChunkBatchReq, _| {
            std::thread::sleep(delay * u32::try_from(batch.ops.len()).unwrap());
            let lens: Vec<u64> = batch.ops.iter().map(|o| o.len).collect();
            let total = usize::try_from(lens.iter().sum::<u64>()).unwrap();
            let bulk: Vec<u8> = (0..total).map(|i| u8::try_from(i % 251).unwrap()).collect();
            let missing = vec![false; lens.len()];
            Ok((ReadChunksResp { lens, missing }, bulk.into()))
        });
        TcpServer::bind("127.0.0.1:0", reg, 2).unwrap()
    }

    /// A `ReadChunks` of `lens.len()` ops of those lengths.
    fn read_req(lens: &[u64]) -> Request {
        use crate::proto::{op, ChunkBatchReq, ChunkOp, Rpc};
        let ops = lens.iter().map(|&len| ChunkOp { chunk_id: 0, offset: 0, len }).collect();
        op::ReadChunks::request(&ChunkBatchReq { path: "/f".into(), ops })
    }

    /// `out`, every byte of which a landing and a zero-fill wrote.
    fn init(out: &[MaybeUninit<u8>]) -> &[u8] {
        // SAFETY: the caller zero-filled what did not land.
        unsafe { out.assume_init_ref() }
    }

    #[test]
    fn a_waiter_lands_its_own_chunk_reply_in_its_windows() {
        let server = chunk_server(Duration::ZERO);
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        // Two ops whose windows are swapped in the result: the landing
        // follows the windows, not the bulk's order.
        let mut out = vec![MaybeUninit::uninit(); 300_000];
        let (first, second) = out.split_at_mut(100_000);
        let mut land = Landing::new(vec![second, first]);
        let mut h = ep.submit(read_req(&[200_000, 100_000])).unwrap();
        let resp = h.land_within(Duration::from_secs(10), &mut land).unwrap().unwrap();
        assert!(resp.bulk.is_empty());
        assert_eq!(land.zero_fill(), 0);
        assert_eq!((land.landed(), land.copied()), (&[Some(200_000), Some(100_000)][..], 0));
        drop(land);
        let want: Vec<u8> = (0..300_000).map(|i| u8::try_from(i % 251).unwrap()).collect();
        assert_eq!(&init(&out)[100_000..], &want[..200_000]);
        assert_eq!(&init(&out)[..100_000], &want[200_000..]);
        let waits = ep.wait_stats();
        assert_eq!(waits.waits_led.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn a_reply_another_leader_read_is_copied_in_once() {
        // Both requests are served late, the second (two ops) later
        // than the first; while the first's waiter is not yet waiting
        // (the token free), the second's lead reads the first reply
        // into a buffer and parks it.
        let server = chunk_server(Duration::from_millis(100));
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let mut first = ep.submit(read_req(&[64 * 1024])).unwrap();
        let second = ep.submit(read_req(&[1, 1])).unwrap();
        second.wait(Duration::from_secs(10)).unwrap();
        let mut out = vec![MaybeUninit::uninit(); 64 * 1024];
        let mut land = Landing::new(vec![&mut out[..]]);
        first.land_within(Duration::from_secs(10), &mut land).unwrap().unwrap();
        assert_eq!((land.landed(), land.copied()), (&[Some(64 * 1024)][..], 64 * 1024));
        server.shutdown();
    }

    #[test]
    fn a_large_reply_whose_slot_is_gone_is_dropped_and_the_stream_stays_aligned() {
        let server = chunk_server(Duration::from_millis(50));
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let late = ep.submit(read_req(&[512 * 1024])).unwrap();
        assert!(matches!(late.wait(Duration::from_millis(5)), Err(GkfsError::Timeout)));
        // The next call reads the late 512 KiB reply first, through the
        // read buffer, then its own.
        std::thread::sleep(Duration::from_millis(100));
        let resp = ep.call(Request::new(Opcode::Ping, &b"after"[..])).unwrap();
        assert_eq!(&resp.body[..], b"after");
        assert_eq!((ep.reconnects(), ep.pending_len()), (0, 0));
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
            s.write_all(&u32::try_from(payload.len()).unwrap().to_le_bytes()).unwrap();
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

    /// `echo_registry` plus an echo under `Create`, a point op: answered
    /// on the daemon's loop, its reply read by its waiter.
    fn point_echo_registry() -> HandlerRegistry {
        let mut reg = echo_registry();
        reg.register_fn(Opcode::Create, |req| Response::ok(req.body));
        reg
    }

    /// One small call through the point echo, checked.
    fn point_echo(ep: &TcpEndpoint, i: u64) {
        let body = i.to_le_bytes();
        let resp = ep
            .call(Request::new(Opcode::Create, Bytes::copy_from_slice(&body)))
            .unwrap();
        assert_eq!(&resp.body[..], &body);
    }

    /// `[client spun, client spin_expired, daemon spun, daemon spin_expired]`.
    fn spins(ep: &TcpEndpoint, server: &TcpServer) -> [u64; 4] {
        let (w, s) = (ep.wait_stats(), server.stats());
        [&w.spun, &w.spin_expired, &s.spun, &s.spin_expired].map(|c| c.load(Ordering::Relaxed))
    }

    #[test]
    fn poll_leaves_the_writer_half_blocking() {
        // `O_NONBLOCK` set for a poll would be set on the write half too
        // (one open file description): an 8 MiB frame, more than the
        // socket buffers hold, written while the other half polls would
        // meet `EAGAIN` halfway and condemn the connection — on the
        // client a submitter writes while a leader polls, on the daemon
        // a pool job writes the echo while the daemon's loop polls.
        // (A daemon's torn reply shows as the client's reader stalling
        // inside the frame: the timeout bounds how long that takes.)
        let server = TcpServer::bind("127.0.0.1:0", point_echo_registry(), 2).unwrap();
        let ep = TcpEndpoint::connect_with(
            &server.local_addr().to_string(),
            EndpointOptions::new().with_timeout(Duration::from_secs(5)),
        )
        .unwrap();
        let big: Vec<u8> = (0..8 << 20).map(|i| (i % 251) as u8).collect();
        let echoed = AtomicBool::new(false);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Small calls until the echoes are back and some wait
                // of theirs found its reply while polling.
                let mut i = 0;
                let polled = || ep.wait_stats().spun.load(Ordering::Relaxed) > 0;
                while !echoed.load(Ordering::Relaxed) || !polled() {
                    assert!(t0.elapsed() < Duration::from_secs(60), "no wait ever polled");
                    assert_eq!(ep.reconnects(), 0, "a healthy connection was condemned");
                    point_echo(&ep, i);
                    i += 1;
                }
            });
            for round in 0..16 {
                // A small call first: the echo's frame then follows a
                // reply at once, and the daemon's loop is hot — polling
                // — when the pool job starts its write.
                point_echo(&ep, round);
                let resp = ep
                    .submit_gather(
                        Request::new(Opcode::Ping, &b"big"[..]),
                        &[&big[..1 << 20], &big[1 << 20..]],
                    )
                    .unwrap()
                    .wait(Duration::from_secs(5))
                    .unwrap();
                assert!(resp.bulk == big, "echo {round} came back torn");
            }
            echoed.store(true, Ordering::Relaxed);
        });
        assert_eq!(ep.reconnects(), 0, "a healthy connection was condemned");
        server.shutdown();
    }

    #[test]
    fn poll_on_one_half_never_makes_the_other_nonblocking() {
        // The test above with its timing pinned: while the read half
        // polls (nothing arriving), the write half sends a frame larger
        // than the socket buffers to a peer that does not read yet. It
        // must block until the peer reads, not fail with `EAGAIN`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(writer.try_clone().unwrap());
        let big = vec![5u8; 8 << 20];
        let polling = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                polling.wait();
                let began = Instant::now();
                while began.elapsed() < Duration::from_millis(150) {
                    assert!(!reader.fill().unwrap(), "nothing was sent to the polling half");
                    std::thread::yield_now();
                }
            });
            let drain = s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                let mut got = Vec::new();
                peer.read_to_end(&mut got).unwrap();
                got.len()
            });
            polling.wait();
            std::thread::sleep(Duration::from_millis(5));
            let wrote = write_frame_segments(&mut writer, &[], &[&big]);
            writer.shutdown(Shutdown::Write).unwrap();
            wrote.expect("the write half blocked until the peer read");
            assert_eq!(drain.join().unwrap(), big.len() + 8);
        });
    }

    #[test]
    fn a_wait_leaves_the_socket_without_a_receive_timeout() {
        // A reader waits on readiness, never under a socket receive
        // timeout: neither a wait that ran out nor one that was served
        // leaves one on the connection's read half.
        let mut reg = echo_registry();
        reg.register_fn(Opcode::ReadDir, |req| {
            std::thread::sleep(Duration::from_millis(200));
            Response::ok(req.body)
        });
        let server = TcpServer::bind("127.0.0.1:0", reg, 2).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        let late = ep.submit(Request::new(Opcode::ReadDir, &b"late"[..])).unwrap();
        let waited = late.wait(Duration::from_millis(30));
        assert!(matches!(waited, Err(GkfsError::Timeout)), "{waited:?}");
        let served = ep.call(Request::new(Opcode::Ping, &b"served"[..])).unwrap();
        assert_eq!(&served.body[..], b"served");
        let s = ep.conn.lock();
        let t = s.live.as_ref().expect("connection is live").done.pending.lock();
        let token = t.reader.as_ref().expect("the read token is back");
        assert_eq!(token.reader.stream.read_timeout().unwrap(), None);
        drop(t);
        drop(s);
        server.shutdown();
    }

    #[test]
    fn wait_says_whether_the_socket_became_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut far, _) = listener.accept().unwrap();
        let mut got = Vec::with_capacity(16);
        // Silence: `false`, once its time is up.
        let began = Instant::now();
        assert!(!near.wait(Some(Duration::from_millis(30))).unwrap());
        assert!(began.elapsed() >= Duration::from_millis(30));
        let drained = recv_vec(&mut near, &mut got, 16).unwrap_err();
        assert_eq!(drained.kind(), ErrorKind::WouldBlock);
        // Bytes: `true`, and the receive takes them.
        far.write_all(b"bytes").unwrap();
        assert!(near.wait(Some(Duration::from_secs(10))).unwrap());
        assert_eq!(recv_vec(&mut near, &mut got, 16).unwrap(), 5);
        // The peer's hang-up: `true`, and the receive reports the end.
        drop(far);
        assert!(near.wait(None).unwrap());
        assert_eq!(recv_vec(&mut near, &mut got, 16).unwrap(), 0);
        assert_eq!(got, b"bytes");
        // Time left is never rounded down to a spin.
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(None), -1);
    }

    #[test]
    fn poll_skips_a_connection_answered_late() {
        // Every reply comes 5 ms — a hundred windows — after its wait
        // began, so no wait after the connection's first is hot: the
        // client polls never.
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Create, |req| {
            std::thread::sleep(Duration::from_millis(5));
            Response::ok(req.body)
        });
        let server = TcpServer::bind("127.0.0.1:0", reg, 1).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        for i in 0..20 {
            point_echo(&ep, i);
        }
        let [spun, expired, ..] = spins(&ep, &server);
        assert_eq!((spun, expired), (0, 0), "[spun, spin_expired] of a connection answered late");
        server.shutdown();
    }

    #[test]
    fn poll_serves_a_hot_connection_and_parks_an_idle_one() {
        let server = TcpServer::bind("127.0.0.1:0", point_echo_registry(), 1).unwrap();
        let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
        // Back-to-back round trips keep both ends hot: waits on either
        // side find the next frame while polling. One burst of 200 does
        // it on a quiet machine; a loaded one gets more bursts, not a
        // pass.
        let mut bursts = 0;
        while spins(&ep, &server)[0] == 0 || spins(&ep, &server)[2] == 0 {
            assert!(bursts < 50, "no poll found its frame: {:?}", spins(&ep, &server));
            (0..200).for_each(|i| point_echo(&ep, i));
            bursts += 1;
        }
        // Left idle, each end gives up polling after one window at most
        // (the client is not even reading), then parks; the next call
        // finds the daemon parked and leaves it cold.
        let before = spins(&ep, &server);
        std::thread::sleep(Duration::from_millis(200));
        point_echo(&ep, 0);
        let after = spins(&ep, &server);
        assert!(
            after[1] - before[1] <= 1 && after[3] - before[3] <= 1,
            "an idle connection expired more than one window per side: {before:?} → {after:?}"
        );
        server.shutdown();
    }
}

/// Schedule-exploration model of the leader/follower protocol
/// (`gkfs_common::model`), next to the task pool's.
///
/// Transcribes the state machines above — a waiter (`Ticket::wait`:
/// lead, follow, time out) and a dropped handle (`Ticket::drop`) —
/// against replies, or a broken stream, already on the wire when the
/// window opens: what the kernel does while a reader blocks is not this
/// protocol's business, and neither is how a leader receives a frame
/// (cut from the read buffer, landed, read into a buffer, dropped
/// through the read buffer) — all of it happens with no lock held, between
/// taking the token and the next critical section. What the protocol
/// does decide is modelled: a large frame for another id is read and
/// parked only if its slot is awaited when the leader looks (a critical
/// section of its own), and dropped otherwise. A fan-out is one thread's
/// waits in turn, each led or followed by the same rule as a lone
/// call's. Every critical section of the `pending` lock is one atomic
/// step (the lock makes it one); a socket read is a step of its own with
/// no lock held. The condvar is modelled explicitly: a sleeper runs again
/// only after a notify reaches it (or its own deadline passes), so a
/// wake-up the code fails to send shows as a deadlock. Checked over
/// every interleaving the preemption bound admits:
///
/// * no lost wake-up: a waiter whose reply was parked always runs, and
///   every wait returns exactly once;
/// * a follower is promoted when the leader leaves with replies still
///   awaited; a fan-out's waits read their own replies;
/// * the late reply to a timed-out or dropped handle is discarded and
///   its slot is not leaked — a large one also when its slot goes
///   between the leader's look and its park;
/// * a dead connection fails every awaited slot exactly once, and a
///   reply parked before the failure is still delivered;
/// * the read token is never duplicated or lost while the connection
///   lives.
///
/// Three deliberately broken waiters are caught: two that lead at once
/// (one leads without taking the token), a follower never woken (a
/// leader parks its reply without notifying) and a leader that returns
/// the token without notifying — the last two as the deadlocks they are.
#[cfg(test)]
mod model {
    use gkfs_common::model::{Explorer, Model, Step};

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Outcome {
        Reply,
        Failed,
        Timeout,
    }

    /// What the daemon's side of the socket delivers, in order.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Wire {
        Reply(usize),
        /// A reply too large for the read buffer.
        Large(usize),
        Broken,
    }

    /// A waiter as `Ticket::wait_within` is, or broken in one place.
    #[derive(Clone, Copy, PartialEq)]
    enum Waiter {
        Sound,
        /// Leads without taking the token.
        SharesToken,
        /// Parks another's reply without notifying.
        SilentPark,
        /// Hands the token back without notifying.
        SilentRelease,
    }

    #[derive(Default)]
    struct S {
        /// `Table::slots`: `(id, parked outcome)`.
        slots: Vec<(usize, Option<Outcome>)>,
        waiting: usize,
        /// `Table::reader.is_some()`.
        token: bool,
        /// Somebody reads the socket right now (at most one may).
        reading: usize,
        followers: usize,
        dead: bool,
        /// Waiters asleep on `replies`, and those a notify has reached.
        asleep: Vec<usize>,
        woken: Vec<usize>,
        /// Bytes on their way to the client, oldest first.
        wire: Vec<Wire>,
        /// Deadlines that have passed.
        expired: Vec<usize>,
        /// What each wait returned.
        returned: Vec<(usize, Outcome)>,
        /// Replies read off the socket for a slot that was gone.
        discarded: Vec<usize>,
        /// Failures parked, per condemnation sweep.
        failures: Vec<usize>,
    }

    type Thread = Box<dyn FnMut(&mut S) -> Step>;

    impl S {
        fn slot(&mut self, id: usize) -> Option<&mut Option<Outcome>> {
            self.slots.iter_mut().find(|(i, _)| *i == id).map(|(_, s)| s)
        }

        /// `Table::forget`.
        fn forget(&mut self, id: usize) {
            if let Some(pos) = self.slots.iter().position(|(i, _)| *i == id) {
                if self.slots.remove(pos).1.is_none() {
                    self.waiting -= 1;
                }
            }
        }

        fn notify_replies(&mut self) {
            self.woken.append(&mut self.asleep);
        }

        /// `Completions::park`; `notify: false` is the broken variant.
        fn park(&mut self, id: usize, notify: bool) {
            match self.slot(id) {
                Some(slot @ None) => {
                    *slot = Some(Outcome::Reply);
                    self.waiting -= 1;
                    if notify && self.followers > 0 {
                        self.notify_replies();
                    }
                }
                _ => self.discarded.push(id),
            }
        }

        /// `Completions::release`; `notify: false` is the broken variant.
        fn release(&mut self, notify: bool) {
            self.reading -= 1;
            if self.dead {
                return;
            }
            assert!(!self.token, "two read tokens");
            self.token = true;
            if notify && self.waiting > 0 && self.followers > 0 {
                self.notify_replies();
            }
        }

        /// `Completions::condemn`.
        fn condemn(&mut self) {
            if self.dead {
                return;
            }
            for (id, slot) in self.slots.iter_mut().filter(|(_, s)| s.is_none()) {
                *slot = Some(Outcome::Failed);
                self.failures.push(*id);
            }
            self.waiting = 0;
            self.token = false;
            self.dead = true;
            self.notify_replies();
        }

        /// One read of the socket by whoever holds the token: the next
        /// thing on the wire, or `None` while nothing has arrived.
        fn recv(&mut self) -> Option<Wire> {
            assert_eq!(self.reading, 1, "the socket has exactly one reader");
            (!self.wire.is_empty()).then(|| self.wire.remove(0))
        }
    }

    /// `ReplyHandle::wait` for slot `id` (registered before the window
    /// opens).
    fn waiter(id: usize) -> Thread {
        waits(id, Waiter::Sound, false)
    }

    /// A hedge's two looks at slot `id`: a `wait_within` whose window
    /// may pass, then a wait without a deadline on the same handle.
    fn hedged_waiter(id: usize) -> Thread {
        waits(id, Waiter::Sound, true)
    }

    /// One thread's waits, `first`'s to its end and then `then`'s: a
    /// fan-out, whose thread holds both handles before it waits on
    /// either.
    fn in_turn(mut first: Thread, mut then: Thread) -> Thread {
        let mut first_done = false;
        Box::new(move |s| {
            if !first_done {
                match first(s) {
                    Step::Done => first_done = true,
                    step => return step,
                }
            }
            then(s)
        })
    }

    /// `Ticket::wait_within` for slot `id`, as `variant`, and what
    /// follows a window that passed: the handle's drop
    /// (`ReplyHandle::wait`), or with `rewait` a second, unbounded wait.
    fn waits(id: usize, variant: Waiter, rewait: bool) -> Thread {
        #[derive(Clone, Copy)]
        enum At {
            Top,
            Asleep,
            Leading,
            Look(usize),
            Park(usize),
            Mine,
            LedTimeout,
            Expired,
            Fail,
            Done,
        }
        let mut at = At::Top;
        Box::new(move |s| {
            match at {
                At::Asleep => {
                    let Some(pos) = s.woken.iter().position(|&w| w == id) else {
                        if !s.expired.contains(&id) {
                            return Step::Blocked;
                        }
                        s.asleep.retain(|&w| w != id);
                        s.followers -= 1;
                        at = At::Top;
                        return Step::Ran;
                    };
                    s.woken.remove(pos);
                    s.followers -= 1;
                    at = At::Top;
                }
                At::Top => {
                    // One critical section: the loop body of `wait` up
                    // to taking the token or going to sleep.
                    match s.slot(id).map(|slot| *slot) {
                        Some(Some(outcome)) => {
                            s.slots.retain(|(i, _)| *i != id);
                            s.returned.push((id, outcome));
                            at = At::Done;
                        }
                        None => unreachable!("slot {id} vanished under its waiter"),
                        Some(None) if s.expired.contains(&id) => at = At::Expired,
                        Some(None) if s.token => {
                            s.token = variant == Waiter::SharesToken;
                            s.reading += 1;
                            at = At::Leading;
                        }
                        Some(None) => {
                            s.followers += 1;
                            s.asleep.push(id);
                            at = At::Asleep;
                        }
                    }
                }
                At::Leading => {
                    // `lead`: no lock held.
                    if s.expired.contains(&id) {
                        at = At::LedTimeout;
                        return Step::Ran;
                    }
                    at = match s.recv() {
                        None => return Step::Blocked,
                        Some(Wire::Reply(got) | Wire::Large(got)) if got == id => At::Mine,
                        Some(Wire::Reply(other)) => At::Park(other),
                        Some(Wire::Large(other)) => At::Look(other),
                        Some(Wire::Broken) => At::Fail,
                    };
                }
                At::Look(other) => {
                    // `Completions::awaited`: read into a buffer and
                    // parked, or dropped through the read buffer.
                    if matches!(s.slot(other), Some(None)) {
                        at = At::Park(other);
                    } else {
                        s.discarded.push(other);
                        at = At::Leading;
                    }
                }
                At::Park(other) => {
                    s.park(other, variant != Waiter::SilentPark);
                    at = At::Leading;
                }
                At::Mine => {
                    s.forget(id);
                    s.release(variant != Waiter::SilentRelease);
                    s.returned.push((id, Outcome::Reply));
                    at = At::Done;
                }
                At::LedTimeout => {
                    s.release(variant != Waiter::SilentRelease);
                    at = At::Expired;
                }
                At::Expired if rewait => {
                    s.expired.retain(|&e| e != id);
                    at = At::Top;
                }
                At::Expired => {
                    // `Drop for Ticket`, a critical section after the
                    // one that saw the window pass: a reply parked in
                    // between goes with the slot.
                    if s.slot(id).is_some_and(|slot| *slot == Some(Outcome::Reply)) {
                        s.discarded.push(id);
                    }
                    s.forget(id);
                    s.returned.push((id, Outcome::Timeout));
                    at = At::Done;
                }
                At::Fail => {
                    s.reading -= 1;
                    s.condemn();
                    at = At::Top;
                }
                At::Done => return Step::Done,
            }
            Step::Ran
        })
    }

    /// `Ticket::drop` of an un-waited handle.
    fn dropper(id: usize) -> Thread {
        let mut dropped = false;
        Box::new(move |s| {
            if std::mem::replace(&mut dropped, true) {
                return Step::Done;
            }
            s.forget(id);
            Step::Ran
        })
    }

    /// A deadline passing, whenever the schedule says.
    fn clock(id: usize) -> Thread {
        let mut fired = false;
        Box::new(move |s| {
            if std::mem::replace(&mut fired, true) {
                return Step::Done;
            }
            s.expired.push(id);
            Step::Ran
        })
    }

    /// A connection with `ids` in flight and `wire` on its way,
    /// `threads` (which make `waits` waits between them) around it;
    /// `check` sees the final state after the structural invariants. A
    /// wait that never returns leaves every thread blocked, which the
    /// explorer reports as the deadlock it is.
    fn connection(
        ids: &[usize],
        wire: &[Wire],
        waits: usize,
        threads: Vec<Thread>,
        check: impl Fn(&S) + 'static,
    ) -> Model<S> {
        Model {
            state: S {
                slots: ids.iter().map(|&id| (id, None)).collect(),
                waiting: ids.len(),
                token: true,
                wire: wire.to_vec(),
                ..S::default()
            },
            threads,
            check: Box::new(move |s| {
                assert!(s.slots.is_empty(), "leaked slots: {:?}", s.slots);
                assert_eq!(s.followers, 0, "a follower is still counted");
                assert!(s.asleep.is_empty(), "a follower is still asleep");
                assert_eq!(s.reading, 0, "somebody still holds the token");
                assert!(s.token != s.dead, "a live connection keeps its token, a dead one none");
                assert_eq!(s.returned.len(), waits, "each wait returns once: {:?}", s.returned);
                for id in &s.failures {
                    let times = s.failures.iter().filter(|f| *f == id).count();
                    assert_eq!(times, 1, "slot {id} was failed {times} times");
                }
                check(s);
            }),
        }
    }

    fn outcome(s: &S, id: usize) -> Outcome {
        let mut of = s.returned.iter().filter(|(i, _)| *i == id);
        let (_, outcome) = of.next().unwrap_or_else(|| panic!("wait {id} never returned"));
        assert!(of.next().is_none(), "wait {id} returned twice");
        *outcome
    }

    /// Explore `model`, which must fail, and the explorer's message.
    fn caught(name: &str, model: impl Fn() -> Model<S>) -> String {
        let explore = std::panic::AssertUnwindSafe(|| Explorer::new().explore(name, model));
        let caught = std::panic::catch_unwind(explore).expect_err("the broken variant must be caught");
        match caught.downcast::<String>() {
            Ok(msg) => *msg,
            Err(other) => other.downcast::<&str>().expect("a panic with a message").to_string(),
        }
    }

    /// Two lone waiters, replies on the wire in the other order, both
    /// waiters as `variant`.
    fn two_waiters(variant: Waiter) -> Model<S> {
        connection(
            &[1, 2],
            &[Wire::Reply(2), Wire::Reply(1)],
            2,
            vec![waits(1, variant, false), waits(2, variant, false)],
            |s| {
                assert_eq!(outcome(s, 1), Outcome::Reply);
                assert_eq!(outcome(s, 2), Outcome::Reply);
                assert!(s.discarded.is_empty() && s.failures.is_empty());
            },
        )
    }

    #[test]
    fn two_lone_waiters_lead_park_and_promote() {
        // Whoever leads first parks the other's reply, or is followed
        // and then succeeded by it.
        let stats = Explorer::new().explore("tcp-lead-follow", || two_waiters(Waiter::Sound));
        assert!(stats.schedules > 10, "{stats:?}: exploration must branch");
    }

    #[test]
    fn two_leaders_at_once_are_caught() {
        let msg = caught("tcp-two-leaders", || two_waiters(Waiter::SharesToken));
        assert!(msg.contains("exactly one reader") || msg.contains("two read tokens"), "{msg}");
    }

    #[test]
    fn a_follower_whose_parked_reply_wakes_nobody_is_caught() {
        let msg = caught("tcp-silent-park", || two_waiters(Waiter::SilentPark));
        assert!(msg.contains("deadlock"), "{msg}");
    }

    #[test]
    fn a_leader_that_leaves_without_notifying_strands_its_follower() {
        let msg = caught("tcp-lead-follow-silent-release", || {
            connection(
                &[1, 2],
                &[Wire::Reply(1), Wire::Reply(2)],
                2,
                vec![waits(1, Waiter::SilentRelease, false), waits(2, Waiter::SilentRelease, false)],
                |_| {},
            )
        });
        assert!(msg.contains("deadlock"), "{msg}");
    }

    #[test]
    fn a_fan_out_s_waits_lead_their_connection_in_turn() {
        // One thread holds handles 1 and 2 and waits on them in turn; a
        // lone call, 3, shares the connection. The fan-out's first wait
        // leads or follows as the lone call's does, parking 2 if it
        // reads it; its second finds 2 parked or leads for it. Replies
        // 2 and 1 are chunk-sized, as a striped read's legs are.
        let stats = Explorer::new().explore("tcp-fan-out-in-turn", || {
            connection(
                &[1, 2, 3],
                &[Wire::Large(2), Wire::Reply(3), Wire::Large(1)],
                3,
                vec![in_turn(waiter(1), waiter(2)), waiter(3)],
                |s| {
                    for id in [1, 2, 3] {
                        assert_eq!(outcome(s, id), Outcome::Reply);
                    }
                    assert!(s.discarded.is_empty() && s.failures.is_empty());
                },
            )
        });
        assert!(stats.schedules > 10, "{stats:?}: exploration must branch");
    }

    #[test]
    fn a_timed_out_slot_s_late_reply_is_discarded() {
        // Waiter 1's deadline may pass at any point — before it leads,
        // while it leads, while it follows. If it gave up, whoever reads
        // its reply drops it; waiter 2 gets its own regardless.
        Explorer::new().explore("tcp-timeout-late-reply", || {
            connection(
                &[1, 2],
                &[Wire::Reply(1), Wire::Reply(2)],
                2,
                vec![waiter(1), waiter(2), clock(1)],
                |s| {
                    assert_eq!(outcome(s, 2), Outcome::Reply);
                    match outcome(s, 1) {
                        Outcome::Reply => assert!(s.discarded.is_empty()),
                        Outcome::Timeout => assert_eq!(s.discarded, vec![1]),
                        Outcome::Failed => panic!("nothing broke"),
                    }
                },
            )
        });
    }

    #[test]
    fn a_window_that_passed_keeps_its_slot_for_the_next_wait() {
        // The hedge: waiter 1's first look may give up at any point; its
        // slot stays, whoever reads its reply parks it there, and the
        // second look on the same handle gets it — never a discard.
        Explorer::new().explore("tcp-window-then-wait", || {
            connection(
                &[1, 2],
                &[Wire::Reply(1), Wire::Reply(2)],
                2,
                vec![hedged_waiter(1), waiter(2), clock(1)],
                |s| {
                    assert_eq!(outcome(s, 1), Outcome::Reply);
                    assert_eq!(outcome(s, 2), Outcome::Reply);
                    assert!(s.discarded.is_empty() && s.failures.is_empty());
                },
            )
        });
    }

    #[test]
    fn a_dropped_handle_s_reply_is_discarded() {
        // Reply 1's slot is gone when it is read, or goes after it was
        // parked; either way nobody is handed it, and waiter 2 — asleep
        // behind the reader that drops it — is still promoted.
        Explorer::new().explore("tcp-dropped-handle", || {
            connection(
                &[1, 2],
                &[Wire::Reply(1), Wire::Reply(2)],
                1,
                vec![dropper(1), waiter(2)],
                |s| {
                    assert_eq!(outcome(s, 2), Outcome::Reply);
                    assert!(s.discarded.is_empty() || s.discarded == vec![1]);
                    assert!(s.failures.is_empty());
                },
            )
        });
    }

    #[test]
    fn a_dropped_handle_s_large_reply_passes_the_token_on() {
        // Handle 1 is dropped un-waited, its reply large: the leader
        // that meets it drops it — or parks it, if the slot was still
        // there when it looked, and the drop takes it with the slot —
        // and reads on; waiter 2 gets its reply, led or followed.
        Explorer::new().explore("tcp-dropped-large", || {
            connection(
                &[1, 2],
                &[Wire::Large(1), Wire::Reply(2)],
                1,
                vec![dropper(1), waiter(2)],
                |s| {
                    assert_eq!(outcome(s, 2), Outcome::Reply);
                    assert!(s.discarded.is_empty() || s.discarded == vec![1]);
                    assert!(s.failures.is_empty());
                },
            )
        });
    }

    #[test]
    fn a_dead_connection_fails_every_awaited_slot_exactly_once() {
        // Reply 2 is on the wire ahead of the break — small, or large
        // and read by its own waiter or parked by the other's: it is
        // delivered; slot 1 is failed — once, whoever held the token.
        for first in [Wire::Reply(2), Wire::Large(2)] {
            Explorer::new().explore("tcp-broken-stream", || {
                connection(
                    &[1, 2],
                    &[first, Wire::Broken],
                    2,
                    vec![waiter(1), waiter(2)],
                    |s| {
                        assert_eq!(outcome(s, 2), Outcome::Reply);
                        assert_eq!(outcome(s, 1), Outcome::Failed);
                        assert_eq!(s.failures, vec![1]);
                    },
                )
            });
        }
    }
}
