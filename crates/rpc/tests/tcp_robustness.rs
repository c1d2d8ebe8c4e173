//! TCP transport robustness: connection churn, many concurrent
//! connections, server restarts, and hostile peers.

use bytes::Bytes;
use gkfs_common::GkfsError;
use gkfs_rpc::transport::Endpoint;
use gkfs_rpc::{EndpointOptions, HandlerRegistry, Opcode, Request, Response, TcpEndpoint, TcpServer};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn echo_registry() -> HandlerRegistry {
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body).with_bulk(req.bulk));
    reg
}

#[test]
fn connection_churn() {
    let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 2).unwrap();
    let addr = server.local_addr().to_string();
    // 50 sequential connect/call/drop cycles must all work (no fd
    // leaks, no lingering state).
    for i in 0..50 {
        let ep = TcpEndpoint::connect(&addr).unwrap();
        let resp = ep
            .call(Request::new(Opcode::Ping, Bytes::from(format!("c{i}"))))
            .unwrap();
        assert_eq!(&resp.body[..], format!("c{i}").as_bytes());
    }
    server.shutdown();
}

#[test]
fn many_parallel_connections() {
    let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 4).unwrap();
    let addr = server.local_addr().to_string();
    std::thread::scope(|s| {
        for t in 0..16 {
            let addr = &addr;
            s.spawn(move || {
                let ep = TcpEndpoint::connect(addr).unwrap();
                for i in 0..50 {
                    let msg = format!("t{t}i{i}");
                    let resp = ep
                        .call(Request::new(Opcode::Ping, Bytes::from(msg.clone())))
                        .unwrap();
                    assert_eq!(&resp.body[..], msg.as_bytes());
                }
            });
        }
    });
    let st = server.stats();
    assert_eq!(st.requests.load(Ordering::Relaxed), 16 * 50);
    assert_eq!(st.responses.load(Ordering::Relaxed), 16 * 50);
    assert_eq!(st.errors.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn stale_endpoint_reconnects_after_server_restart() {
    let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 1).unwrap();
    let addr = server.local_addr().to_string();
    let ep = TcpEndpoint::connect(&addr).unwrap();
    ep.call(Request::new(Opcode::Ping, &b"x"[..])).unwrap();
    server.shutdown();
    drop(server);

    // While the daemon is down the endpoint errors fast (and the
    // errors are retryable) — it never hangs.
    let t0 = std::time::Instant::now();
    let r = ep.call(Request::new(Opcode::Ping, &b"y"[..]));
    match r {
        Err(e) => assert!(e.is_retryable(), "down-daemon error must be retryable: {e:?}"),
        Ok(_) => panic!("call to a dead daemon cannot succeed"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5));

    // A fresh server on the SAME port (simulating a daemon restart):
    // the old endpoint auto-reconnects on a later submit — clients
    // survive a daemon restart without being rebuilt.
    let server2 = match TcpServer::bind(&addr, echo_registry(), 1) {
        Ok(s) => s,
        Err(_) => return, // port grabbed by someone else: skip rest
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let resp = loop {
        match ep.call(Request::new(Opcode::Ping, &b"z"[..])) {
            Ok(r) => break r,
            Err(e) => {
                assert!(e.is_retryable(), "restart recovery must stay retryable: {e:?}");
                assert!(
                    std::time::Instant::now() < deadline,
                    "endpoint never reconnected to the restarted daemon"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(&resp.body[..], b"z");
    assert!(ep.reconnects() >= 1, "recovery must go through a re-dial");
    server2.shutdown();
}

#[test]
fn garbage_bytes_do_not_crash_server() {
    let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 1).unwrap();
    let addr = server.local_addr().to_string();

    // A peer that sends raw garbage: the server drops the connection
    // and keeps serving others.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF])
            .unwrap();
        raw.write_all(&[0u8; 64]).unwrap();
        // (drop closes)
    }
    // A peer that claims an absurd frame length.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    }
    // Healthy client still works.
    let ep = TcpEndpoint::connect(&addr).unwrap();
    let resp = ep.call(Request::new(Opcode::Ping, &b"alive"[..])).unwrap();
    assert_eq!(&resp.body[..], b"alive");
    server.shutdown();
}

#[test]
fn zero_timeout_request_times_out_not_hangs() {
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| {
        std::thread::sleep(Duration::from_millis(200));
        Response::ok(req.body)
    });
    let server = TcpServer::bind("127.0.0.1:0", reg, 1).unwrap();
    let ep = TcpEndpoint::connect_with(
        &server.local_addr().to_string(),
        EndpointOptions::new().with_timeout(Duration::from_millis(20)),
    )
    .unwrap();
    let r = ep.call(Request::new(Opcode::Ping, &b""[..]));
    assert!(matches!(r, Err(GkfsError::Timeout)));
    // The connection remains usable for later calls (the late response
    // is discarded by correlation id).
    std::thread::sleep(Duration::from_millis(250));
    let ep2 = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
    assert!(ep2.call(Request::new(Opcode::Ping, &b"ok"[..])).is_ok());
    server.shutdown();
}

#[test]
fn peer_death_mid_vectored_write_fails_cleanly_then_reconnects() {
    // A "daemon" that accepts, reads a token amount, and slams the
    // connection shut (RST via SO_LINGER-like immediate drop) while the
    // client is still inside a multi-megabyte vectored frame write. The
    // endpoint must surface a retryable error — not a panic, not a
    // hang, not a torn success — and re-dial once a real server is up.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let killer = std::thread::spawn(move || {
        use std::io::Read;
        let (mut conn, _) = listener.accept().unwrap();
        let mut tiny = [0u8; 16];
        let _ = conn.read(&mut tiny);
        // Drop without draining: the client's in-flight writev hits a
        // closed peer (EPIPE/ECONNRESET) with most of the frame unsent.
        drop(conn);
        // Listener drops here, freeing the port for the real server.
    });

    let ep = TcpEndpoint::connect(&addr).unwrap();
    // 8 MiB of bulk guarantees the frame cannot fit any socket buffer,
    // so the peer dies mid-write, not after.
    let big = Bytes::from(vec![0xAB; 8 * 1024 * 1024]);
    let t0 = std::time::Instant::now();
    let r = ep.call(Request::new(Opcode::Ping, &b"w"[..]).with_bulk(big));
    match r {
        Err(e) => assert!(e.is_retryable(), "mid-writev peer death must be retryable: {e:?}"),
        Ok(_) => panic!("a frame the peer never read cannot succeed"),
    }
    assert!(t0.elapsed() < Duration::from_secs(10), "failure must be prompt");
    killer.join().unwrap();

    // Real daemon on the same port: the endpoint recovers by re-dialing.
    let server = match TcpServer::bind(&addr, echo_registry(), 1) {
        Ok(s) => s,
        Err(_) => return, // port snatched by another process: skip rest
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match ep.call(Request::new(Opcode::Ping, &b"back"[..])) {
            Ok(resp) => {
                assert_eq!(&resp.body[..], b"back");
                break;
            }
            Err(e) => {
                assert!(e.is_retryable(), "recovery errors must stay retryable: {e:?}");
                assert!(
                    std::time::Instant::now() < deadline,
                    "endpoint never recovered after mid-write peer death"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    assert!(ep.reconnects() >= 1, "recovery must re-dial, not reuse the dead socket");
    server.shutdown();
}

/// A server whose `WriteChunks` keeps the last batch's bulk — the bytes
/// as the handler borrowed them from the frame's chunk buffer — and the
/// frame a `WriteChunks` of `bulk` is on the wire, whole.
mod chunk_frames {
    use super::*;
    use gkfs_common::crc::crc32;
    use gkfs_rpc::proto::{op, ChunkBatchReq, ChunkOp, Rpc};
    use std::sync::{Arc, Mutex};

    pub const MIB: usize = 1 << 20;

    pub fn landing_server() -> (Arc<TcpServer>, Arc<Mutex<Vec<u8>>>) {
        let landed = Arc::new(Mutex::new(Vec::new()));
        let mut reg = echo_registry();
        let store = Arc::clone(&landed);
        reg.serve_bulk::<op::WriteChunks>(move |_, bulk, _| {
            *store.lock().unwrap() = bulk.to_vec();
            Ok(())
        });
        (TcpServer::bind("127.0.0.1:0", reg, 1).unwrap(), landed)
    }

    pub fn write_req(bulk: &[u8]) -> Request {
        let ops = vec![ChunkOp { chunk_id: 0, offset: 0, len: bulk.len() as u64 }];
        op::WriteChunks::request(&ChunkBatchReq { path: "/f".into(), ops }).with_bulk(bulk.to_vec())
    }

    /// `req` framed: length, payload, checksum.
    pub fn framed(req: &Request) -> Vec<u8> {
        let payload = req.encode();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame
    }
}

/// Three 1 MiB `WriteChunks` frames go wrong inside their bulk, which a
/// daemon receives into one of its chunk buffers: torn (the rest of the
/// frame is the next frame's bytes, so its checksum fails), a flipped
/// bulk byte, and a peer that hangs up halfway through the bulk. Each
/// condemns its own connection only — a healthy connection opened
/// before them serves on, never re-dialled — and the next 1 MiB write
/// on a fresh connection lands exactly its bytes. Afterwards the set
/// holds every buffer it ever allocated, and no more than its bound:
/// none was lost with a condemned connection (each row would have
/// allocated afresh), none given back twice (the free count would
/// exceed the allocations).
#[test]
fn a_chunk_frame_broken_inside_its_bulk_condemns_only_its_connection_and_keeps_its_buffer() {
    use chunk_frames::*;
    use std::io::Read;
    let (server, landed) = landing_server();
    let addr = server.local_addr().to_string();
    let healthy = TcpEndpoint::connect(&addr).unwrap();
    healthy.call(Request::new(Opcode::Ping, &b"up"[..])).unwrap();
    let frame = framed(&write_req(&vec![0x77; MIB]));
    let half = frame.len() / 2;
    let mut flipped = frame.clone();
    flipped[half] ^= 0x10;
    let rows: [(&str, Vec<u8>, bool); 3] = [
        ("torn", [&frame[..half], &frame[..]].concat(), false),
        ("flipped bulk byte", flipped, false),
        ("hang-up inside the bulk", frame[..half].to_vec(), true),
    ];
    for (round, (row, bytes, hang_up)) in rows.into_iter().enumerate() {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&bytes).unwrap();
        if hang_up {
            raw.shutdown(std::net::Shutdown::Write).unwrap();
        }
        // The daemon shuts a condemned connection down: end of stream.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(raw.read(&mut [0u8; 64]).unwrap(), 0, "{row}: the connection is condemned");

        let data: Vec<u8> = (0..MIB).map(|i| (i % 253) as u8 ^ round as u8).collect();
        let fresh = TcpEndpoint::connect(&addr).unwrap();
        fresh.call(write_req(&data)).unwrap().into_result().unwrap();
        assert!(*landed.lock().unwrap() == data, "{row}: the next write lands exactly its bytes");
        healthy.call(Request::new(Opcode::Ping, &b"still"[..])).unwrap();
    }
    assert_eq!(healthy.reconnects(), 0, "only the broken frames' connections were condemned");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (free, keep) = loop {
        let (free, keep) = server.chunk_bufs_free();
        if free as u64 == server.chunk_bufs_fresh() || std::time::Instant::now() > deadline {
            break (free, keep);
        }
        std::thread::yield_now();
    };
    assert_eq!(free as u64, server.chunk_bufs_fresh(), "every buffer is back, and back once");
    assert!(free <= keep, "{free} free buffers, bound {keep}");
    assert!(server.chunk_bufs_fresh() <= 2, "a condemned frame's buffer was reused, not lost");
    server.shutdown();
}
