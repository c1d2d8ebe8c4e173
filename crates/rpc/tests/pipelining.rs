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
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

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
        // The connection thread may read the frame just after the
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
