//! The daemon's half of the TCP transport: one progress loop per
//! [`TcpServer`], as a Margo daemon has one progress loop for all of
//! its clients.
//!
//! The listener and every accepted socket sit in one epoll set. The
//! thread that *leads* the loop waits on the set, assembles frames
//! without blocking (`FrameReader::fill`, the transport's one frame
//! assembler), answers whatever `Handlers::runs_inline` admits itself
//! and queues everything else on the handler pool. It polls before it
//! parks by the client's rule and through the same function
//! (`poll_or_park`), looking with `epoll_wait` at a zero timeout; what
//! is its own is who is hot — the loop, from the daemon's traffic, not
//! one connection's.
//!
//! # Takeover
//!
//! Everything the leader does that can block — an inline handler and
//! its reply's write, an enqueue on a full handler queue — runs inside
//! a *busy window*, marked in one word ([`Shared::window`]: odd while a
//! window is open, one more per window). A *standby* thread samples the
//! word once per [`TICK`]; a window it finds open at two samples has
//! outlasted a tick, and the standby takes the loop over by closing the
//! window in the leader's place (a compare-and-swap: exactly one of
//! them closes it). It takes the window's connection out of the set —
//! that connection is the old leader's until its op returns — and
//! leads. The replaced thread learns it from its own failing
//! compare-and-swap when its op returns: it serves what its connection
//! has buffered, puts the connection back into the set, and parks as
//! the standby. It never waits on the set again as the leader.
//!
//! The standby ticks only while the leader is awake. Before the leader
//! blocks in its wait it says so (`Lead::parked`); a standby that finds
//! it parked sleeps until the leader wakes and notifies it (the
//! cold→hot notify), so an idle daemon has no timer wake-ups. A
//! takeover starts a further standby when the thread count allows —
//! never more standbys than the handler pool has workers — and a
//! replaced thread that finds the standby's place taken exits. A daemon
//! therefore runs two serving threads whatever its client count.
//!
//! `tcp::server::model` explores this protocol.
//!
//! # Chunk buffers
//!
//! A daemon runs beside the application on its node, so what it keeps
//! resident is memory the job does not get. A buffer of a chunk's size
//! that a thread allocates and frees is not given back to the system:
//! glibc keeps it in that thread's arena, and every thread that ever
//! held one keeps its own. So a chunk-sized buffer is never allocated
//! per request here. Each server owns one bounded set of them
//! ([`ChunkBufs`]): `Vec`s of [`FRAME_RESERVE_MAX`] capacity, whose
//! pages become resident only where bytes were written, at most the
//! handler pool's workers plus two of them kept free. A buffer comes
//! from the set in two places and goes back when its [`ChunkBuf`]
//! drops:
//!
//! * **Inbound.** The loop's `FrameReader` receives every frame larger
//!   than [`SMALL_FRAME`] into a set buffer. Such a frame always goes to
//!   the pool, and the job owns it: its request is decoded in place
//!   (`Request::decode_head`) and a typed row borrows body and bulk from
//!   it — a chunk write's payload goes from the frame to the chunk
//!   store. The buffer goes back once the handler returns, before the
//!   reply is written; a connection that ends inside the frame gives it
//!   back with its reader. A frame for a row that owns its request
//!   (`register_fn`) becomes that request and is not recycled.
//! * **Reply.** A pool job lends a row that may answer with a bulk
//!   (`serve_bulk`) a set buffer, into which the handler writes the
//!   reply's bulk — a chunk read lands there from the chunk files — and
//!   from which the reply is written ([`write_frame_segments`]); then it
//!   goes back. Inline requests are small by the inline rule, and their
//!   replies are allocated as before.
//!
//! Neither kind of buffer ever becomes a `Bytes`, which could not hand
//! its `Vec` back. A set that is empty allocates (`chunk_bufs_fresh`),
//! and one that is full drops what comes back, so a burst costs
//! allocations, never a wait.
//!
//! Linux only: the loop calls epoll through `extern "C"`.

use super::{copied_out_of, poll_or_park, write_frame_segments, FrameReader, FRAME_RESERVE_MAX};
use crate::handler::HandlerRegistry;
use crate::message::{Request, RequestHead, Response, Status};
use crate::stats::RpcStats;
use crate::transport::{Handlers, SMALL_FRAME};
use bytes::Bytes;
use gkfs_common::lock::{rank, Condvar, OrderedMutex};
use gkfs_common::{GkfsError, Result};
use std::collections::HashMap;
use std::convert::Infallible;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a busy window may stay open before the standby takes the
/// loop over (it samples once per tick, so a window is taken over after
/// one to two ticks), and how long a listener whose accept failed stays
/// out of the set.
const TICK: Duration = Duration::from_millis(20);

/// Most events one wait takes.
const EVENTS: usize = 64;

/// Epoll tokens that are not connections (connections are numbered
/// from 0).
const LISTENER: u64 = u64::MAX;
const WAKE: u64 = u64::MAX - 1;

/// epoll(7), the calls the loop makes.
mod epoll {
    use crate::transport::tcp::timeout_ms;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_int;
    use std::time::Duration;

    /// `struct epoll_event`, packed on x86_64 as the kernel's is.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub(super) struct Event {
        events: u32,
        data: u64,
    }

    impl Event {
        /// The token the descriptor was added with.
        pub(super) fn token(&self) -> u64 {
            self.data
        }
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLLIN: u32 = 0x1;

    /// An epoll instance, level-triggered.
    pub(super) struct Epoll(OwnedFd);

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: no pointers; a new descriptor or -1.
            let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: `fd` was just returned to us, open, owned by nobody else.
            Ok(Epoll(unsafe { OwnedFd::from_raw_fd(fd) }))
        }

        /// Watch `fd` for input under `token`.
        pub(super) fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = Event {
                events: EPOLLIN,
                data: token,
            };
            // SAFETY: `ev` is a valid event for the call's duration; the
            // kernel copies it.
            check(unsafe { epoll_ctl(self.0.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
        }

        /// Stop watching `fd`.
        pub(super) fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = Event::default();
            // SAFETY: as in `add` (the event is ignored by `DEL`).
            check(unsafe { epoll_ctl(self.0.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
        }

        /// Wait up to `timeout` (`None`: as long as it takes) for events;
        /// how many were written to the front of `events`. An
        /// interrupted wait reports none.
        pub(super) fn wait(&self, events: &mut [Event], timeout: Option<Duration>) -> usize {
            let ms = timeout_ms(timeout);
            let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
            // SAFETY: `events` is an exclusively borrowed array of `max`
            // events, of which the kernel writes at most that many.
            let n = unsafe { epoll_wait(self.0.as_raw_fd(), events.as_mut_ptr(), max, ms) };
            usize::try_from(n).unwrap_or(0)
        }
    }
}

/// A server's set of chunk buffers (module docs, "Chunk buffers").
pub(crate) struct ChunkBufs {
    /// Free buffers, each empty and of [`FRAME_RESERVE_MAX`] capacity.
    free: OrderedMutex<Vec<Vec<u8>>>,
    /// Most buffers kept free.
    keep: usize,
    stats: Arc<RpcStats>,
}

impl ChunkBufs {
    fn new(keep: usize, stats: Arc<RpcStats>) -> ChunkBufs {
        ChunkBufs {
            free: OrderedMutex::new(rank::RPC_CHUNK_BUFS, Vec::with_capacity(keep)),
            keep,
            stats,
        }
    }

    /// A free buffer, or a fresh one (counted) when none is.
    pub(super) fn take(self: &Arc<Self>) -> ChunkBuf {
        let free = self.free.lock().pop();
        let buf = free.unwrap_or_else(|| {
            self.stats.chunk_bufs_fresh.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(FRAME_RESERVE_MAX)
        });
        ChunkBuf { buf, home: Some(Arc::clone(self)) }
    }

    /// Keep `buf` for the next [`ChunkBufs::take`] — unless the set is
    /// full, or `buf` grew past the reserve (a frame larger than it).
    /// The last buffer given back is the first taken, so the pages the
    /// set keeps resident are as few buffers' as its traffic needs at
    /// once.
    fn give(&self, mut buf: Vec<u8>) {
        if buf.capacity() != FRAME_RESERVE_MAX {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.keep {
            free.push(buf);
        }
    }
}

/// A buffer a frame or a reply's bulk is received or written into: one
/// of a server's [`ChunkBufs`], which it goes back to when dropped, or
/// a `Vec` of its own.
pub(crate) struct ChunkBuf {
    buf: Vec<u8>,
    home: Option<Arc<ChunkBufs>>,
}

impl ChunkBuf {
    /// `buf`, belonging to no set.
    pub(super) fn own(buf: Vec<u8>) -> ChunkBuf {
        ChunkBuf { buf, home: None }
    }

    /// The bytes, out of the set for good.
    pub(super) fn detach(mut self) -> Vec<u8> {
        self.home = None;
        std::mem::take(&mut self.buf)
    }
}

impl Deref for ChunkBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for ChunkBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for ChunkBuf {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.give(std::mem::take(&mut self.buf));
        }
    }
}

/// What a pool job serves.
enum Inbound {
    /// A request that owns its body and bulk.
    Request(Request),
    /// A frame in a set buffer, its request decoded in place, for a row
    /// that borrows.
    Frame(ChunkBuf, RequestHead),
}

impl Inbound {
    fn id(&self) -> u64 {
        match self {
            Inbound::Request(req) => req.id,
            Inbound::Frame(_, head) => head.id,
        }
    }

    /// Serve it through `registry`, lending a borrowing row `out` for
    /// the reply's bulk. The frame, if it is one, goes back to its set
    /// here, before the reply is written.
    fn serve(self, registry: &HandlerRegistry, out: &mut Vec<u8>) -> Response {
        match self {
            Inbound::Request(req) if !registry.borrows(req.opcode) => registry.dispatch(req),
            Inbound::Request(req) => registry.dispatch_lent(req.opcode, req.id, &req.body, &req.bulk, out),
            Inbound::Frame(frame, head) => {
                let (body, bulk) = (&frame[head.body], &frame[head.bulk]);
                registry.dispatch_lent(head.opcode, head.id, body, bulk, out)
            }
        }
    }
}

/// One accepted connection.
pub(super) struct Conn {
    serial: u64,
    /// The socket's descriptor, for the epoll set: the reader's stream
    /// holds it open for as long as the connection lives.
    fd: RawFd,
    /// The read half. Only the thread that took the connection's event
    /// — or, after a takeover, the replaced thread that owns the
    /// connection until it puts it back — pumps it; the lock is never
    /// held across a handler.
    reader: OrderedMutex<FrameReader<TcpStream>>,
    /// The write half: inline replies and pool jobs' replies.
    pub(super) writer: OrderedMutex<TcpStream>,
}

impl Conn {
    /// The next frame the reader holds whole, and whether more bytes
    /// are buffered behind it.
    fn next(&self) -> Result<Option<(ChunkBuf, bool)>> {
        let mut reader = self.reader.lock();
        Ok(reader
            .take_frame()?
            .map(|frame| (frame, reader.buffered() > 0)))
    }

    /// Write `resp`, whose bulk is its own or `lent` — the one that is
    /// not empty.
    fn reply(&self, resp: &Response, lent: &[u8]) {
        let prefix = resp.encode_prefix_for(resp.bulk.len() + lent.len());
        let _ = write_frame_segments(&mut self.writer.lock(), &prefix, &[&resp.bulk, lent]);
    }
}

/// Who serves the loop, under [`Shared::lead`].
struct Lead {
    /// The leader is blocked in its wait: the daemon is idle, and the
    /// standby sleeps rather than ticks.
    parked: bool,
    /// The standby sleeps on [`Shared::watch`] until the leader wakes.
    asleep: bool,
    /// Some thread is the standby.
    standby: bool,
    /// Serving threads alive: the leader, the standby, and replaced
    /// threads whose ops have not returned yet.
    threads: usize,
}

/// The listening socket, under [`Shared::listener`].
struct Listener {
    /// `None` once the server shut down (the port is free again).
    socket: Option<TcpListener>,
    /// When a listener taken out of the set after a failed accept goes
    /// back in.
    back_at: Option<Instant>,
}

/// What a server's threads share.
pub(super) struct Shared {
    epoll: epoll::Epoll,
    listener: OrderedMutex<Listener>,
    /// The listener is out of the set (a failed accept).
    listener_out: AtomicBool,
    /// The loop's end (in the set) and shutdown's end of a pipe that
    /// wakes a parked leader.
    wake: (UnixStream, UnixStream),
    pub(super) handlers: Arc<Handlers>,
    /// The chunk buffers of this server's inbound frames and replies.
    bufs: Arc<ChunkBufs>,
    shutting_down: AtomicBool,
    /// Every connection being served, by serial, for lookup by event
    /// token and for severing. A connection is in the epoll set only
    /// while it is here; both change under this lock.
    pub(super) conns: OrderedMutex<HashMap<u64, Arc<Conn>>>,
    serials: AtomicU64,
    lead: OrderedMutex<Lead>,
    /// The standby sleeps here: while the leader is parked, and between
    /// ticks.
    watch: Condvar,
    /// The busy-window word: odd while the leader is inside a window.
    window: AtomicU64,
    /// The connection of the open window.
    busy_conn: AtomicU64,
    /// The most threads the loop may have: itself plus one standby per
    /// handler-pool worker.
    max_threads: usize,
    /// Ticks the standby has slept (diagnostics).
    ticks: AtomicU64,
}

impl Shared {
    fn stats(&self) -> &RpcStats {
        &self.handlers.stats
    }

    fn conn(&self, serial: u64) -> Option<Arc<Conn>> {
        self.conns.lock().get(&serial).cloned()
    }

    /// Start a serving thread that begins as the standby.
    fn spawn_standby(self: &Arc<Self>) -> std::io::Result<()> {
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name("gkfs-tcp-loop".into())
            .spawn(move || shared.stand_by())
            .map(drop)
    }

    /// A serving thread leaves.
    fn leave(&self) {
        self.lead.lock().threads -= 1;
    }

    /// Lead the loop until this thread is replaced or the server shuts
    /// down. `seq` is the window word as this thread takes the lead
    /// (even), `hot` whether its first wait polls.
    fn lead(self: &Arc<Self>, mut seq: u64, mut hot: bool) {
        let mut events = [epoll::Event::default(); EVENTS];
        loop {
            if self.shutting_down.load(Ordering::SeqCst) {
                return self.leave();
            }
            let n = self.wait(&mut hot, &mut events);
            for ev in &events[..n] {
                match ev.token() {
                    LISTENER => self.accept(),
                    WAKE => {}
                    serial => {
                        let Some(conn) = self.conn(serial) else {
                            continue;
                        };
                        if !self.serve(&conn, Some(&mut seq)) {
                            return self.rejoin(&conn);
                        }
                    }
                }
            }
        }
    }

    /// One wait of the loop — poll or park ([`poll_or_park`]), decided
    /// by the loop's own hot flag: it looks with `epoll_wait` on its set,
    /// and before it blocks there it says it is parked. It waits until a
    /// listener that sat out a failed accept is due back in the set, if
    /// one is, else as long as it takes.
    fn wait(&self, hot: &mut bool, events: &mut [epoll::Event]) -> usize {
        let listener_back = self.listener_due();
        let stats = self.stats();
        let ready = |events: &mut [epoll::Event], within| {
            let n = self.epoll.wait(events, within);
            Ok::<_, Infallible>((n > 0).then_some(n))
        };
        let Ok(n) = poll_or_park(
            events,
            hot,
            listener_back,
            [&stats.spun, &stats.spin_expired],
            |events| ready(events, Some(Duration::ZERO)),
            |events, left| {
                self.lead.lock().parked = true;
                let n = ready(events, left);
                let mut l = self.lead.lock();
                l.parked = false;
                if l.asleep {
                    l.asleep = false;
                    self.watch.notify_all();
                }
                n
            },
        );
        n.unwrap_or(0)
    }

    /// Receive what `conn` holds and serve every frame that came whole. `lead` is the
    /// leader's window word; a thread that is not leading (or stops
    /// leading on the way — `false` is returned) serves without windows,
    /// off the loop. An error condemns the connection.
    fn serve(&self, conn: &Arc<Conn>, mut lead: Option<&mut u64>) -> bool {
        let filled = conn.reader.lock().fill();
        let broken = filled.is_err()
            || loop {
                match conn.next() {
                    Ok(Some((frame, more))) => {
                        if self.dispatch(conn, frame, more, &mut lead).is_err() {
                            break true;
                        }
                    }
                    Ok(None) => break false,
                    Err(_) => break true,
                }
            };
        if broken {
            self.close(conn);
        }
        lead.is_some()
    }

    /// Serve one request frame, inline or on the pool by
    /// `Handlers::runs_inline`. `Err`: the frame does not decode, and the
    /// connection's stream can no longer be trusted.
    fn dispatch(
        &self,
        conn: &Arc<Conn>,
        frame: ChunkBuf,
        more_buffered: bool,
        lead: &mut Option<&mut u64>,
    ) -> Result<()> {
        let frame_len = frame.len();
        let inbound = match frame_len > SMALL_FRAME {
            true => match Request::decode_head(&frame)? {
                head if self.handlers.registry.borrows(head.opcode) => Inbound::Frame(frame, head),
                _ => self.owned(frame)?,
            },
            false => self.owned(frame)?,
        };
        if self.shutting_down.load(Ordering::SeqCst) {
            let resp = Response { id: inbound.id(), ..Response::err(GkfsError::ShuttingDown) };
            self.busy(lead, conn.serial, || conn.reply(&resp, &[]));
            return Ok(());
        }
        self.stats().record_request();
        let handlers = &self.handlers;
        match inbound {
            Inbound::Request(req) if handlers.runs_inline(&req, frame_len, more_buffered) => {
                self.busy(lead, conn.serial, || conn.reply(&handlers.serve_inline(req), &[]));
            }
            inbound => self.busy(lead, conn.serial, || self.queue(conn, inbound)),
        }
        Ok(())
    }

    /// `frame`'s request, owning its body and bulk as views of it.
    fn owned(&self, frame: ChunkBuf) -> Result<Inbound> {
        let frame = Bytes::from(frame.detach());
        let req = Request::decode_owned(&frame)?;
        self.stats().request_copy_bytes.fetch_add(
            (copied_out_of(&frame, &req.body) + copied_out_of(&frame, &req.bulk)) as u64,
            Ordering::Relaxed,
        );
        Ok(Inbound::Request(req))
    }

    /// Queue `inbound` for a handler thread — blocking while the queue
    /// is full — which serves it, lending its row a chunk buffer for the
    /// reply's bulk when the row may answer with one, and writes the
    /// reply. A frame that came in a set buffer carried its bulk in, and
    /// no row of the table answers one with a bulk (a write's reply is
    /// empty): it is lent an empty `Vec`, so a row that did would
    /// allocate its reply rather than hold a second set buffer.
    fn queue(&self, conn: &Arc<Conn>, inbound: Inbound) {
        let handlers = &self.handlers;
        handlers.stats.served_pooled.fetch_add(1, Ordering::Relaxed);
        let (registry, stats) = (Arc::clone(&handlers.registry), Arc::clone(&handlers.stats));
        let (bufs, conn) = (Arc::clone(&self.bufs), Arc::clone(conn));
        handlers.pool.submit(move || {
            let mut out = match &inbound {
                Inbound::Request(req) if registry.lends_bulk(req.opcode) => bufs.take(),
                _ => ChunkBuf::own(Vec::new()),
            };
            let resp = inbound.serve(&registry, &mut out);
            stats.record_response(resp.status == Status::Ok);
            conn.reply(&resp, &out);
        });
    }

    /// Run `op` — something that may block — inside a busy window of
    /// the leader whose window word is `lead`, on connection `serial`.
    /// If the standby took the loop over meanwhile, `lead` is cleared.
    fn busy(&self, lead: &mut Option<&mut u64>, serial: u64, op: impl FnOnce()) {
        let Some(seq) = lead.as_deref_mut() else {
            return op();
        };
        let open = *seq + 1;
        self.busy_conn.store(serial, Ordering::Relaxed);
        self.window.store(open, Ordering::Release);
        op();
        match self
            .window
            .compare_exchange(open, open + 1, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => *seq = open + 1,
            Err(_) => *lead = None,
        }
    }

    /// A replaced leader whose op returned: `conn` — out of the set since
    /// the takeover, served meanwhile by nobody else — goes back in, and
    /// this thread parks as the standby, or exits if there is one.
    fn rejoin(self: &Arc<Self>, conn: &Arc<Conn>) {
        // The takeover took the connection out of the set under `lead`:
        // taking it here orders the put-back after it.
        let mut l = self.lead.lock();
        let stranded = {
            let conns = self.conns.lock();
            conns.contains_key(&conn.serial) && self.epoll.add(conn.fd, conn.serial).is_err()
        };
        if stranded {
            self.close(conn);
        }
        if l.standby || self.shutting_down.load(Ordering::SeqCst) {
            l.threads -= 1;
            return;
        }
        l.standby = true;
        drop(l);
        self.stand_by();
    }

    /// The standby: asleep while the leader is parked, otherwise
    /// sampling the window word once per tick, and taking the loop over
    /// from a leader whose window outlasted one.
    fn stand_by(self: &Arc<Self>) {
        loop {
            let mut l = self.lead.lock();
            while l.parked && !self.shutting_down.load(Ordering::SeqCst) {
                l.asleep = true;
                l.wait(&self.watch);
            }
            if self.shutting_down.load(Ordering::SeqCst) {
                l.standby = false;
                l.threads -= 1;
                return;
            }
            let sampled = self.window.load(Ordering::Acquire);
            let began = Instant::now();
            while !self.shutting_down.load(Ordering::SeqCst) {
                let Some(left) = TICK.checked_sub(began.elapsed()) else {
                    break;
                };
                l.wait_for(&self.watch, left);
            }
            self.ticks.fetch_add(1, Ordering::Relaxed);
            let now = self.window.load(Ordering::Acquire);
            if now != sampled || now.is_multiple_of(2) {
                continue;
            }
            if self
                .window
                .compare_exchange(now, now + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // The window's connection is the replaced thread's until it
            // puts it back (`rejoin`).
            self.stats().takeovers.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self
                .conns
                .lock()
                .get(&self.busy_conn.load(Ordering::Relaxed))
            {
                let _ = self.epoll.delete(conn.fd);
            }
            let more = l.threads < self.max_threads;
            if more {
                l.threads += 1;
            }
            l.standby = more;
            drop(l);
            if more && self.spawn_standby().is_err() {
                let mut l = self.lead.lock();
                l.threads -= 1;
                l.standby = false;
            }
            return self.lead(now + 1, true);
        }
    }

    /// Accept one connection. A failed accept (`EMFILE`: no descriptor
    /// left) takes the listener out of the set for a tick: it stays
    /// readable, and a level-triggered loop would spin on it.
    fn accept(&self) {
        let accepted = {
            let l = self.listener.lock();
            let Some(socket) = &l.socket else { return };
            socket.accept()
        };
        match accepted {
            Ok((stream, _)) => self.register(stream),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => {
                self.stats().accept_errors.fetch_add(1, Ordering::Relaxed);
                let mut l = self.listener.lock();
                if let Some(socket) = &l.socket {
                    let _ = self.epoll.delete(socket.as_raw_fd());
                    l.back_at = Some(Instant::now() + TICK);
                    self.listener_out.store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// Put a listener that sat out its tick back into the set. How long
    /// until it is due, if it is still out.
    fn listener_due(&self) -> Option<Duration> {
        if !self.listener_out.load(Ordering::Relaxed) {
            return None;
        }
        let mut l = self.listener.lock();
        let left = l.back_at?.checked_duration_since(Instant::now());
        if left.is_some_and(|d| !d.is_zero()) {
            return left;
        }
        if let Some(socket) = &l.socket {
            if self.epoll.add(socket.as_raw_fd(), LISTENER).is_err() {
                l.back_at = Some(Instant::now() + TICK);
                return Some(TICK);
            }
        }
        l.back_at = None;
        self.listener_out.store(false, Ordering::Relaxed);
        None
    }

    /// Serve an accepted socket. One that cannot be set up (no
    /// descriptor for its write half) is hung up on: the peer retries.
    fn register(&self, stream: TcpStream) {
        // Responses are small framed messages: Nagle plus delayed ACKs
        // would add milliseconds per round trip.
        stream.set_nodelay(true).ok();
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let serial = self.serials.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            serial,
            fd: stream.as_raw_fd(),
            reader: OrderedMutex::new(rank::RPC_PUMP, FrameReader::lending(stream, Arc::clone(&self.bufs))),
            writer: OrderedMutex::new(rank::RPC_WRITER, writer),
        });
        let mut conns = self.conns.lock();
        if self.epoll.add(conn.fd, serial).is_ok() {
            conns.insert(serial, conn);
        }
    }

    /// Drop a connection the loop gave up on (end of stream, a broken
    /// or undecodable frame). Pool jobs may still hold its write half,
    /// so the socket is shut down explicitly: the peer must see it
    /// closed *now*, fail its in-flight requests and reconnect.
    fn close(&self, conn: &Conn) {
        let _ = conn.reader.lock().stream.shutdown(Shutdown::Both);
        if self.conns.lock().remove(&conn.serial).is_some() {
            let _ = self.epoll.delete(conn.fd);
        }
    }
}

/// A TCP daemon listener: one progress loop accepts connections and
/// serves their requests — on the loop's thread or on a handler pool,
/// by `Handlers::runs_inline` (module docs).
pub struct TcpServer {
    addr: SocketAddr,
    pub(super) shared: Arc<Shared>,
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an OS-assigned port; the actual
    /// address is available via [`TcpServer::local_addr`]) and start
    /// serving. The handler pool queue is bounded
    /// ([`SERVER_QUEUE_PER_WORKER`](crate::transport::SERVER_QUEUE_PER_WORKER)
    /// slots per worker): when pipelining clients outrun the daemon, the
    /// loop stalls on the full queue — inside a busy window, so the
    /// standby takes over — and TCP flow control pushes back to the
    /// submitters instead of the queue growing without bound.
    pub fn bind(
        addr: &str,
        registry: HandlerRegistry,
        handler_threads: usize,
    ) -> Result<Arc<TcpServer>> {
        let rpc = |what: &str, e: std::io::Error| GkfsError::Rpc(format!("{what} {addr}: {e}"));
        let listener = TcpListener::bind(addr).map_err(|e| rpc("bind", e))?;
        let local = listener.local_addr().map_err(|e| rpc("bind", e))?;
        // Accepted sockets do not inherit this: they stay blocking.
        listener
            .set_nonblocking(true)
            .map_err(|e| rpc("listen", e))?;
        let epoll = epoll::Epoll::new().map_err(|e| rpc("epoll for", e))?;
        let wake = UnixStream::pair().map_err(|e| rpc("wake pipe for", e))?;
        wake.0
            .set_nonblocking(true)
            .map_err(|e| rpc("wake pipe for", e))?;
        epoll
            .add(listener.as_raw_fd(), LISTENER)
            .map_err(|e| rpc("epoll for", e))?;
        epoll
            .add(wake.0.as_raw_fd(), WAKE)
            .map_err(|e| rpc("epoll for", e))?;
        let handlers = Arc::new(Handlers::new(registry, handler_threads));
        // Every worker's frame and reply buffer could be out at once;
        // two more cover the loop's next frame meanwhile.
        let bufs = Arc::new(ChunkBufs::new(handlers.pool.workers() + 2, Arc::clone(&handlers.stats)));
        let shared = Arc::new(Shared {
            epoll,
            listener: OrderedMutex::new(
                rank::RPC_LISTENER,
                Listener {
                    socket: Some(listener),
                    back_at: None,
                },
            ),
            listener_out: AtomicBool::new(false),
            wake,
            max_threads: 1 + handlers.pool.workers(),
            handlers,
            bufs,
            shutting_down: AtomicBool::new(false),
            conns: OrderedMutex::new(rank::RPC_CONNS, HashMap::new()),
            serials: AtomicU64::new(0),
            lead: OrderedMutex::new(
                rank::RPC_LOOP,
                Lead {
                    parked: false,
                    asleep: false,
                    standby: true,
                    threads: 2,
                },
            ),
            watch: Condvar::new(),
            window: AtomicU64::new(0),
            busy_conn: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        });
        let server = Arc::new(TcpServer {
            addr: local,
            shared: Arc::clone(&shared),
        });
        let leader = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("gkfs-tcp-loop".into())
            .spawn(move || leader.lead(0, false))
            .and_then(|_| shared.spawn_standby());
        if let Err(e) = spawned {
            server.shutdown();
            return Err(GkfsError::Rpc(format!("spawn the loop of {addr}: {e}")));
        }
        Ok(server)
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stats.
    pub fn stats(&self) -> &RpcStats {
        self.shared.stats()
    }

    /// A shared handle to the same counters as [`TcpServer::stats`],
    /// for a daemon that reports them in its own statistics.
    pub fn stats_handle(&self) -> Arc<RpcStats> {
        Arc::clone(&self.shared.handlers.stats)
    }

    /// Connections being served right now (diagnostics; the fd-leak
    /// test asserts closed ones leave).
    pub fn open_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Threads serving the loop right now — the leader, the standby,
    /// and any replaced thread whose op has not returned — whatever the
    /// number of connections (diagnostics).
    pub fn serving_threads(&self) -> usize {
        self.shared.lead.lock().threads
    }

    /// Ticks the standby has slept so far: it ticks only while the
    /// loop is awake (diagnostics).
    pub fn standby_ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// Chunk buffers this server's set has allocated so far
    /// ([`RpcStats::chunk_bufs_fresh`]; module docs, "Chunk buffers").
    pub fn chunk_bufs_fresh(&self) -> u64 {
        self.stats().chunk_bufs_fresh.load(Ordering::Relaxed)
    }

    /// Chunk buffers the set holds free right now, and the most it
    /// keeps (diagnostics: a buffer lost or given back twice shows as a
    /// count that disagrees with the allocations once the server is
    /// idle).
    pub fn chunk_bufs_free(&self) -> (usize, usize) {
        let bufs = &self.shared.bufs;
        (bufs.free.lock().len(), bufs.keep)
    }

    /// Forcibly sever every established connection while the server
    /// keeps listening — the moral equivalent of a transient network
    /// partition or a middlebox reset. Clients see their in-flight
    /// requests fail with a retryable error and reconnect on the next
    /// submit. Used by the chaos and robustness tests.
    pub fn sever_connections(&self) {
        let shared = &self.shared;
        for (_, c) in shared.conns.lock().drain() {
            let _ = shared.epoll.delete(c.fd);
            let _ = c.reader.lock().stream.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting and wind down: the port is free on return, the
    /// loop's threads leave as their ops return, and every established
    /// connection is severed.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        if shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        drop(shared.listener.lock().socket.take());
        let _ = (&shared.wake.1).write(&[1]);
        {
            let _lead = shared.lead.lock();
            shared.watch.notify_all();
        }
        // A stopped daemon must look stopped to its clients.
        self.sever_connections();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Schedule-exploration model of the loop's leadership
/// (`gkfs_common::model`), next to `tcp::model`'s exploration of the
/// client protocol.
///
/// Transcribes the serving threads above — the leader's wait
/// (`Shared::wait`: poll, or mark itself parked and block), a frame
/// served in a busy window (`Shared::busy`), the standby's tick and
/// takeover (`Shared::stand_by`) and a replaced thread's put-back
/// (`Shared::rejoin`) — two serving threads of a loop with two
/// connections, one idle, the other's first request overstaying: its
/// op returns only once the loop has been taken over, i.e. it outlasts
/// any tick. Frames arrive from outside — the overstayer on a parked
/// loop (the cold→hot notify), then one more behind it, which arrives
/// while the connection is the replaced thread's — and the run ends
/// once both are served (shutdown wakes every serving thread, and they
/// leave). Every critical section of the `lead` lock is one atomic
/// step, as is each access to the window word; a fast op's window is
/// open for a step, so the standby may race its close.
/// Checked over every interleaving the preemption bound admits:
///
/// * at most one thread waits on the set, and at most one pumps a
///   connection;
/// * the overstaying leader is replaced, and every frame is served;
/// * a replaced leader never re-enters the wait: it puts its
///   connection back and parks as the standby;
/// * no cold→hot notify is lost: a standby asleep while the overstaying
///   op runs would take nobody over, and the run would deadlock.
///
/// Two deliberately broken variants — a replaced leader that goes back
/// to the wait, and a leader that wakes without notifying — are caught.
#[cfg(test)]
mod model {
    use gkfs_common::model::{Explorer, Model, Step};

    /// How a variant breaks the protocol.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// A replaced leader waits on the set again.
        ReplacedLeads,
        /// A leader leaving its park never notifies the standby.
        SilentWake,
    }

    const CONNS: usize = 2;
    /// The overstaying connection (the other one stays idle).
    const A: usize = 0;

    #[derive(Default)]
    struct S {
        /// `Shared::window`.
        window: u64,
        busy_conn: usize,
        /// `Lead`.
        parked: bool,
        asleep: bool,
        standby: bool,
        /// Frames in each connection's socket; `true` is the overstayer.
        frames: [Vec<bool>; CONNS],
        /// In the epoll set.
        armed: [bool; CONNS],
        /// Threads in the wait, and pumping each connection.
        waiting: usize,
        pumping: [usize; CONNS],
        takeovers: usize,
        served: usize,
        /// Serving threads that exited.
        exited: usize,
    }

    impl S {
        /// Both frames are served: the run ends (`TcpServer::shutdown`
        /// wakes every serving thread, and they leave).
        fn finished(&self) -> bool {
            self.served == 2
        }

        /// An armed connection with a frame: the wait's event.
        fn ready(&self) -> Option<usize> {
            (0..CONNS).find(|&c| self.armed[c] && !self.frames[c].is_empty())
        }
    }

    #[derive(Clone, Copy)]
    enum At {
        // The leader.
        Wait { hot: bool },
        Blocked,
        Pump(usize),
        Op(usize, bool),
        // A replaced leader.
        Rejoin(usize),
        // The standby.
        Watch,
        Asleep,
        Tick(u64),
        Done,
    }

    /// A serving thread starting at `at`.
    fn serving(mut at: At, fault: Fault) -> Box<dyn FnMut(&mut S) -> Step> {
        let mut seq = 0u64;
        Box::new(move |s| {
            match at {
                At::Wait { hot } => {
                    if s.finished() {
                        s.exited += 1;
                        at = At::Done;
                        return Step::Ran;
                    }
                    assert_eq!(s.waiting, 0, "two threads wait on the set");
                    match s.ready() {
                        Some(c) if hot => at = At::Pump(c),
                        _ => {
                            // A cold loop, or a poll that found nothing:
                            // the leader says it is parked and blocks.
                            s.waiting += 1;
                            s.parked = true;
                            at = At::Blocked;
                        }
                    }
                }
                At::Blocked => {
                    // The wait returns, and the leader says it is awake
                    // (one critical section of `lead`).
                    let woke = s.ready();
                    if woke.is_none() && !s.finished() {
                        return Step::Blocked;
                    }
                    s.parked = false;
                    if s.asleep && fault != Fault::SilentWake {
                        s.asleep = false;
                    }
                    s.waiting -= 1;
                    at = woke.map_or(At::Wait { hot: false }, At::Pump);
                }
                At::Pump(c) => {
                    // Take the frame and open a window for its op.
                    assert_eq!(s.pumping[c], 0, "two threads pump connection {c}");
                    s.pumping[c] += 1;
                    let slow = s.frames[c].remove(0);
                    s.busy_conn = c;
                    s.window = seq + 1;
                    at = At::Op(c, slow);
                }
                At::Op(c, slow) => {
                    if slow && s.takeovers == 0 {
                        return Step::Blocked; // overstays
                    }
                    // The op returns and closes its window.
                    s.served += 1;
                    let open = seq + 1;
                    if s.window == open {
                        s.window = open + 1;
                        seq = open + 1;
                        s.pumping[c] -= 1;
                        at = At::Wait { hot: true };
                    } else {
                        at = At::Rejoin(c);
                    }
                }
                At::Rejoin(c) => {
                    s.armed[c] = true;
                    s.pumping[c] -= 1;
                    if fault == Fault::ReplacedLeads {
                        seq = s.window;
                        at = At::Wait { hot: true };
                    } else if s.standby || s.finished() {
                        s.exited += 1;
                        at = At::Done;
                    } else {
                        s.standby = true;
                        at = At::Watch;
                    }
                }
                At::Watch => {
                    // Under `lead`: sleep while the leader is parked,
                    // else sample the window word.
                    if s.finished() {
                        s.standby = false;
                        s.exited += 1;
                        at = At::Done;
                    } else if s.parked {
                        s.asleep = true;
                        at = At::Asleep;
                    } else if s.window.is_multiple_of(2) {
                        // Ticks that find no window open change nothing.
                        return Step::Blocked;
                    } else {
                        at = At::Tick(s.window);
                    }
                }
                At::Asleep => {
                    if s.asleep && !s.finished() {
                        return Step::Blocked;
                    }
                    at = At::Watch;
                }
                At::Tick(v) => {
                    // A tick later, under `lead`: the CAS, the window's
                    // connection out of the set, the standby's place.
                    at = At::Watch;
                    if s.window == v {
                        s.window = v + 1;
                        s.takeovers += 1;
                        s.armed[s.busy_conn] = false;
                        s.standby = false;
                        seq = v + 1;
                        at = At::Wait { hot: true };
                    }
                }
                At::Done => return Step::Done,
            }
            Step::Ran
        })
    }

    /// The daemon's client: the overstayer arrives on the parked loop,
    /// then one more frame behind it.
    fn client() -> Box<dyn FnMut(&mut S) -> Step> {
        let mut sent = 0;
        Box::new(move |s| {
            if sent == 2 {
                return Step::Done;
            }
            s.frames[A].push(sent == 0);
            sent += 1;
            Step::Ran
        })
    }

    fn loop_model(fault: Fault) -> Model<S> {
        Model {
            state: S {
                armed: [true; CONNS],
                standby: true,
                ..S::default()
            },
            threads: vec![
                serving(At::Wait { hot: false }, fault),
                serving(At::Watch, fault),
                client(),
            ],
            check: Box::new(|s| {
                assert_eq!(s.served, 2, "every frame is served");
                assert!(s.takeovers >= 1, "the overstaying leader was replaced");
                assert!(s.armed[A], "the replaced leader put its connection back");
                assert_eq!(s.exited, 2, "both serving threads left");
                assert_eq!((s.waiting, s.pumping), (0, [0; CONNS]));
            }),
        }
    }

    #[test]
    fn an_overstaying_leader_is_replaced_and_parks_as_the_standby() {
        let stats = Explorer::new().explore("tcp-loop-takeover", || loop_model(Fault::None));
        assert!(stats.schedules > 10, "{stats:?}: exploration must branch");
    }

    fn caught(name: &str, fault: Fault) -> String {
        let caught =
            std::panic::catch_unwind(|| Explorer::new().explore(name, || loop_model(fault)));
        *caught
            .expect_err("the broken variant must be caught")
            .downcast::<String>()
            .expect("the explorer panics with a message")
    }

    #[test]
    fn a_replaced_leader_that_waits_again_is_caught() {
        let msg = caught("tcp-loop-replaced-leads", Fault::ReplacedLeads);
        assert!(msg.contains("two threads"), "{msg}");
    }

    #[test]
    fn a_leader_that_wakes_without_notifying_is_caught() {
        let msg = caught("tcp-loop-silent-wake", Fault::SilentWake);
        assert!(msg.contains("deadlock"), "{msg}");
    }
}
