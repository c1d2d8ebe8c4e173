//! Pipelined submission/completion: many outstanding `submit`s per
//! endpoint, responses completing out of order, and fail-fast behavior
//! when the transport dies under in-flight requests.

use bytes::Bytes;
use gkfs_common::GkfsError;
use gkfs_rpc::testing::{register_sleepy_echo, sleepy_body};
use gkfs_rpc::transport::Endpoint;
use gkfs_rpc::{
    EndpointOptions, HandlerRegistry, Opcode, ReplyHandle, Request, RpcServer, TcpEndpoint,
    TcpServer,
};
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: usize = 4;
const OUTSTANDING: usize = 16;

fn sleepy_registry() -> HandlerRegistry {
    let mut reg = HandlerRegistry::new();
    register_sleepy_echo(&mut reg, Opcode::Ping);
    reg
}

/// Descending delays: within each thread's batch the *last* submitted
/// request finishes *first*, so correct results prove correlation by
/// id, not by arrival order.
fn delay_for(slot: usize) -> u16 {
    ((OUTSTANDING - slot) * 3) as u16
}

fn stress<E: Endpoint + ?Sized>(ep: &E) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let handles: Vec<(Vec<u8>, ReplyHandle)> = (0..OUTSTANDING)
                    .map(|i| {
                        let body = sleepy_body(delay_for(i), format!("t{t}-i{i}").as_bytes());
                        let h = ep
                            .submit(Request::new(Opcode::Ping, Bytes::from(body.clone())))
                            .unwrap();
                        (body, h)
                    })
                    .collect();
                for (body, h) in handles {
                    let resp = h.wait(Duration::from_secs(30)).unwrap();
                    assert_eq!(
                        &resp.body[..],
                        &body[..],
                        "response correlated to the wrong request"
                    );
                }
            });
        }
    });
}

#[test]
fn tcp_pipelining_stress_out_of_order() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_registry(), 8).unwrap();
    let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
    stress(&*ep);
    assert_eq!(ep.pending_len(), 0, "pending table must drain completely");
    let st = server.stats();
    assert_eq!(st.requests.load(Ordering::Relaxed), (THREADS * OUTSTANDING) as u64);
    assert_eq!(st.responses.load(Ordering::Relaxed), (THREADS * OUTSTANDING) as u64);
    assert_eq!(st.errors.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn inproc_pipelining_stress_out_of_order() {
    let server = RpcServer::new(sleepy_registry(), 8);
    let ep = server.endpoint();
    stress(&*ep);
    let st = server.stats();
    assert_eq!(st.requests.load(Ordering::Relaxed), (THREADS * OUTSTANDING) as u64);
    assert_eq!(st.responses.load(Ordering::Relaxed), (THREADS * OUTSTANDING) as u64);
    assert_eq!(st.errors.load(Ordering::Relaxed), 0);
}

#[test]
fn timed_out_handle_reaps_its_pending_slot() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_registry(), 1).unwrap();
    let addr = server.local_addr().to_string();
    let ep = TcpEndpoint::connect_with(
        &addr,
        EndpointOptions::new().with_timeout(Duration::from_millis(20)),
    )
    .unwrap();
    let h = ep
        .submit(Request::new(
            Opcode::Ping,
            Bytes::from(sleepy_body(200, b"slow")),
        ))
        .unwrap();
    assert!(matches!(
        h.wait(Duration::from_millis(20)),
        Err(GkfsError::Timeout)
    ));
    assert_eq!(ep.pending_len(), 0, "timeout must reap the pending slot");
    // The late response is discarded by correlation; the connection
    // stays healthy for later traffic.
    std::thread::sleep(Duration::from_millis(250));
    let resp = ep
        .call(Request::new(Opcode::Ping, Bytes::from(sleepy_body(0, b"ok"))))
        .unwrap();
    assert_eq!(&resp.body[2..], b"ok");
    assert_eq!(ep.pending_len(), 0);
    server.shutdown();
}

/// Regression (reader-thread death): in-flight handles must fail fast
/// with a typed, retryable transport error when the connection dies
/// under them — not burn their full per-call timeout (here 30 s).
#[test]
fn reader_death_fails_submitted_handles_fast() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_registry(), 2).unwrap();
    let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
    // Long-sleeping request: still in flight when the server dies.
    let h = ep
        .submit(Request::new(
            Opcode::Ping,
            Bytes::from(sleepy_body(2_000, b"doomed")),
        ))
        .unwrap();
    server.shutdown(); // severs the connection under the request
    let t0 = std::time::Instant::now();
    match h.wait(Duration::from_secs(30)) {
        Err(e @ GkfsError::Rpc(_)) => assert!(e.is_retryable()),
        // The daemon's loop may read the frame just after the
        // shutdown flag is set and answer ShuttingDown before the
        // sever lands — also a fast, typed, retryable outcome.
        Ok(resp) if matches!(resp.status, gkfs_rpc::Status::Err(GkfsError::ShuttingDown)) => {}
        other => panic!("expected connection-loss error, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "must fail fast, not burn the 30 s timeout"
    );
    // Submissions after the close fail fast too: the endpoint re-dials
    // the (dead) server and surfaces the dial failure as a retryable
    // error rather than hanging or leaking pending slots.
    let t0 = std::time::Instant::now();
    match ep.submit(Request::new(Opcode::Ping, Bytes::from(sleepy_body(0, b"x")))) {
        Err(e @ GkfsError::Rpc(_)) => assert!(e.is_retryable()),
        Ok(h) => match h.wait(Duration::from_secs(30)) {
            Err(e @ GkfsError::Rpc(_)) => assert!(e.is_retryable()),
            other => panic!("expected connection-loss error, got {other:?}"),
        },
        Err(other) => panic!("expected Rpc error, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(10));
    assert_eq!(ep.pending_len(), 0, "no leaked pending entries after close");
}

/// A registry whose `Stat` row — a point op by its declared class, so a
/// TCP server runs it on the daemon's loop — is the sleepy echo.
fn sleepy_point_registry() -> HandlerRegistry {
    let mut reg = HandlerRegistry::new();
    register_sleepy_echo(&mut reg, Opcode::Stat);
    reg
}

fn sleepy_stat(delay_ms: u16, tag: &[u8]) -> Request {
    Request::new(Opcode::Stat, Bytes::from(sleepy_body(delay_ms, tag)))
}

/// The led counterpart of `timed_out_handle_reaps_its_pending_slot`: the
/// waiter reads the socket itself, the server stays silent past its
/// window, and giving up must leave the stream where the next call can
/// use it.
#[test]
fn led_wait_times_out_on_time_and_the_connection_serves_the_next_call() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_point_registry(), 1).unwrap();
    let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
    let h = ep.submit(sleepy_stat(300, b"late")).unwrap();
    let t0 = Instant::now();
    assert!(matches!(h.wait(Duration::from_millis(40)), Err(GkfsError::Timeout)));
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(40) && waited < Duration::from_millis(250),
        "timeout must come on time, came after {waited:?}"
    );
    assert_eq!(ep.pending_len(), 0, "the timed-out slot is reaped");
    // Same connection, no re-dial: the late reply to the first request
    // is ahead of this one's on the stream, frame-aligned, and is read
    // and dropped by this call's own wait.
    let resp = ep.call(sleepy_stat(0, b"next")).unwrap();
    assert_eq!(&resp.body[2..], b"next");
    assert_eq!(ep.reconnects(), 0, "a timeout is not a connection failure");
    assert_eq!(ep.pending_len(), 0);
    let waits = ep.wait_stats();
    assert_eq!(waits.waits_led.load(Ordering::Relaxed), 2, "both waits read for themselves");
    assert_eq!(waits.waits_followed.load(Ordering::Relaxed), 0);
    assert_eq!(server.stats().served_inline.load(Ordering::Relaxed), 2);
    server.shutdown();
}

#[test]
fn sever_mid_led_wait_fails_typed_and_the_next_submit_redials() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_point_registry(), 1).unwrap();
    let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let t0 = Instant::now();
            let err = ep.call(sleepy_stat(2_000, b"doomed")).unwrap_err();
            (err, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(100));
        server.sever_connections();
        let (err, took) = waiter.join().unwrap();
        assert!(matches!(err, GkfsError::Rpc(_)) && err.is_retryable(), "{err:?}");
        assert!(took < Duration::from_secs(1), "the leader sees the reset, not its 30 s timeout");
    });
    assert_eq!(ep.pending_len(), 0);
    let resp = ep.call(sleepy_stat(0, b"again")).unwrap();
    assert_eq!(&resp.body[2..], b"again");
    assert_eq!(ep.reconnects(), 1, "the failed connection was retired; this call dialed");
    server.shutdown();
}

/// A frame that fails its checksum condemns the connection: the waiter
/// that read it *and* every other request in flight get `Corruption`.
#[test]
fn corrupt_frame_fails_every_in_flight_slot_with_corruption() {
    const CALLERS: usize = 3;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        // Take every caller's request, then answer garbage: a frame
        // whose trailer does not match its payload.
        for _ in 0..CALLERS {
            let mut len = [0u8; 4];
            s.read_exact(&mut len).unwrap();
            let mut rest = vec![0u8; u32::from_le_bytes(len) as usize + 4];
            s.read_exact(&mut rest).unwrap();
        }
        let payload = gkfs_rpc::Response::ok(&b"x"[..]).encode();
        s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        s.write_all(&payload).unwrap();
        s.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
    });
    let ep = TcpEndpoint::connect(&addr).unwrap();
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| s.spawn(|| ep.call(Request::new(Opcode::Stat, Bytes::new()))))
            .collect();
        for c in callers {
            let err = c.join().unwrap().unwrap_err();
            assert!(matches!(err, GkfsError::Corruption(_)), "got {err:?}");
        }
    });
    let waits = ep.wait_stats();
    assert_eq!(
        waits.waits_led.load(Ordering::Relaxed) + waits.waits_followed.load(Ordering::Relaxed),
        CALLERS as u64
    );
    assert_eq!(ep.pending_len(), 0);
    fake.join().unwrap();
}

/// Running a point op on the daemon's loop makes a slow handler that
/// connection's problem only: the standby takes the loop over, and
/// another connection, and the pool, are as free as they were.
#[test]
fn a_slow_inline_handler_delays_only_its_own_connection() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_point_registry(), 1).unwrap();
    let addr = server.local_addr().to_string();
    let slow = TcpEndpoint::connect(&addr).unwrap();
    let fast = TcpEndpoint::connect(&addr).unwrap();
    let stuck = slow.submit(sleepy_stat(600, b"slow")).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // the slow handler is running
    let t0 = Instant::now();
    for i in 0..10 {
        let resp = fast.call(sleepy_stat(0, format!("f{i}").as_bytes())).unwrap();
        assert_eq!(&resp.body[2..], format!("f{i}").as_bytes());
    }
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "ten calls on another connection waited for the slow one: {:?}",
        t0.elapsed()
    );
    let resp = stuck.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(&resp.body[2..], b"slow");
    let st = server.stats();
    assert_eq!(st.served_inline.load(Ordering::Relaxed), 11, "all of it ran on the loop");
    assert_eq!(st.served_pooled.load(Ordering::Relaxed), 0);
    server.shutdown();
}

/// `req` numbered `id` as a client puts it on the wire: length, payload,
/// checksum.
fn wire_image(mut req: Request, id: u64) -> Vec<u8> {
    req.id = id;
    let payload = req.encode();
    let mut fw = gkfs_common::wire::FrameWriter::new();
    fw.segment(&payload);
    let mut image = Vec::new();
    fw.write_to(&mut image).unwrap();
    image
}

/// One response frame off a raw socket.
fn read_response(stream: &mut std::net::TcpStream) -> gkfs_rpc::Response {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut frame = vec![0u8; u32::from_le_bytes(len) as usize + 4];
    stream.read_exact(&mut frame).unwrap();
    frame.truncate(frame.len() - 4);
    gkfs_rpc::Response::decode_owned(&Bytes::from(frame)).unwrap()
}

/// Ten small calls on a connection of their own, and how long they took.
fn ten_calls(addr: &str) -> Duration {
    let ep = TcpEndpoint::connect(addr).unwrap();
    let t0 = Instant::now();
    for i in 0..10 {
        let resp = ep.call(sleepy_stat(0, format!("f{i}").as_bytes())).unwrap();
        assert_eq!(&resp.body[2..], format!("f{i}").as_bytes());
    }
    t0.elapsed()
}

/// A client that pipelines point ops and never reads a reply stalls the
/// daemon's writes to it — the inline reply's, the pool's — and then the
/// loop's enqueue on the full handler queue. Each is a busy window the
/// standby takes over, so another connection is not held up.
#[test]
fn a_client_that_never_reads_its_replies_delays_no_other_connection() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_point_registry(), 1).unwrap();
    let addr = server.local_addr().to_string();
    let mut hog = std::net::TcpStream::connect(&addr).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
    // 8 KiB bodies, echoed: the replies fill the socket buffers fast.
    let t0 = Instant::now();
    for id in 0.. {
        let image = wire_image(sleepy_stat(0, &[7u8; 8192]), id);
        if let Err(e) = hog.write_all(&image) {
            assert!(matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut), "{e}");
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(60), "the daemon never stopped reading");
    }
    let took = ten_calls(&addr);
    assert!(took < Duration::from_millis(400), "ten calls waited for a client that reads nothing: {took:?}");
    assert!(server.stats().takeovers.load(Ordering::Relaxed) >= 1);
    drop(hog);
    server.shutdown();
}

/// The loop assembles frames without blocking: a peer that stops halfway
/// through a 1 MiB frame holds only its own buffer, and the frame still
/// decodes when the rest comes.
#[test]
fn a_peer_stalled_inside_a_frame_delays_no_other_connection() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_point_registry(), 1).unwrap();
    let addr = server.local_addr().to_string();
    let bulk: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    let image = wire_image(sleepy_stat(0, b"half").with_bulk(Bytes::from(bulk.clone())), 9);
    let mut half = std::net::TcpStream::connect(&addr).unwrap();
    half.write_all(&image[..image.len() / 2]).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // the loop has the first half
    let took = ten_calls(&addr);
    assert!(took < Duration::from_millis(400), "ten calls waited for a stalled frame: {took:?}");
    half.write_all(&image[image.len() / 2..]).unwrap();
    let resp = read_response(&mut half);
    assert_eq!(resp.id, 9);
    assert_eq!(&resp.body[2..], b"half");
    assert!(resp.bulk == bulk, "the frame came back whole");
    server.shutdown();
}

/// The loop serves every connection: idle clients cost the daemon no
/// thread each.
#[test]
fn sixty_four_idle_connections_are_served_by_two_threads() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_point_registry(), 4).unwrap();
    let addr = server.local_addr().to_string();
    let idle: Vec<_> = (0..64)
        .map(|i| {
            let ep = TcpEndpoint::connect(&addr).unwrap();
            ep.call(sleepy_stat(0, format!("c{i}").as_bytes())).unwrap();
            ep
        })
        .collect();
    assert_eq!(server.open_connections(), 64);
    // A thread descheduled inside a busy window on a loaded machine may
    // be taken over; the count settles back once its op returns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.serving_threads() != 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.serving_threads(), 2, "the loop and its standby");
    drop(idle);
    server.shutdown();
}

/// The standby ticks only while the loop is awake: a daemon without
/// frames has no timer wake-ups.
#[test]
fn an_idle_servers_standby_does_not_tick() {
    let server = TcpServer::bind("127.0.0.1:0", sleepy_point_registry(), 1).unwrap();
    ten_calls(&server.local_addr().to_string());
    // The loop parks once its poll runs out; the standby sees it at the
    // end of its tick and sleeps: wait for the count to hold still.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = server.standby_ticks();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = server.standby_ticks();
        if now == last || Instant::now() > deadline {
            break;
        }
        last = now;
    }
    let before = server.standby_ticks();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(server.standby_ticks(), before, "the standby of an idle daemon ticked");
    server.shutdown();
}

/// Many endpoints, one submitting thread: submit to all daemons before
/// waiting on any — the client fan-out pattern — and confirm the total
/// latency reflects overlap, not the sum of handler delays.
#[test]
fn fan_out_overlaps_daemon_work() {
    let servers: Vec<Arc<RpcServer>> = (0..8).map(|_| RpcServer::new(sleepy_registry(), 1)).collect();
    let eps: Vec<_> = servers.iter().map(|s| s.endpoint()).collect();
    let t0 = std::time::Instant::now();
    let handles: Vec<ReplyHandle> = eps
        .iter()
        .map(|ep| {
            ep.submit(Request::new(
                Opcode::Ping,
                Bytes::from(sleepy_body(100, b"fan")),
            ))
            .unwrap()
        })
        .collect();
    for h in handles {
        h.wait(Duration::from_secs(10)).unwrap();
    }
    let elapsed = t0.elapsed();
    // Serial execution would take 8 × 100 ms; pipelined fan-out should
    // land near one delay. Generous bound for loaded CI machines.
    assert!(
        elapsed < Duration::from_millis(500),
        "fan-out did not overlap: {elapsed:?}"
    );
}
