//! A closed connection costs the daemon — and the chaos proxy in front
//! of one — nothing for life. Its own test binary: the file-descriptor
//! count is the process's, and no other test may be opening sockets
//! while it is compared, so the tests here take turns.

use bytes::Bytes;
use gkfs_rpc::transport::Endpoint;
use gkfs_rpc::{ChaosConfig, ChaosListener, HandlerRegistry, Opcode, Request, Response, TcpEndpoint, TcpServer};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by each test for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

#[test]
fn closed_connections_leave_no_entry_and_no_fd_behind() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body));
    let server = TcpServer::bind("127.0.0.1:0", reg, 2).unwrap();
    let addr = server.local_addr().to_string();
    let cycle = |i: usize| {
        let ep = TcpEndpoint::connect(&addr).unwrap();
        let resp = ep
            .call(Request::new(Opcode::Ping, Bytes::from(format!("c{i}"))))
            .unwrap();
        assert_eq!(&resp.body[..], format!("c{i}").as_bytes());
    };
    // Until the daemon's side of every dropped connection has wound
    // down: its thread sees EOF, leaves, and takes its entry along.
    let settle = |what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.open_connections() > 0 {
            assert!(Instant::now() < deadline, "{what}: {} entries stay", server.open_connections());
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    // One cycle first: whatever the process opens once (and the thread
    // stacks it maps) is in the baseline.
    cycle(0);
    settle("warm-up");
    let before = open_fds();
    for i in 1..=200 {
        cycle(i);
    }
    settle("200 cycles");
    // A ping's reply is read by its waiter — every reply is — and a
    // dropped endpoint closes both halves of its socket itself. The
    // grace is for a slow box.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        open_fds() <= before,
        "200 connect/ping/drop cycles grew /proc/self/fd from {before} to {}",
        open_fds()
    );
    server.shutdown();
}

/// The same cycles through a quiet chaos proxy: when both of a proxied
/// connection's pumps have ended, the proxy keeps neither of its
/// streams.
#[test]
fn proxied_connections_leave_no_fd_behind() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body));
    let server = TcpServer::bind("127.0.0.1:0", reg, 2).unwrap();
    let proxy = ChaosListener::spawn(server.local_addr(), ChaosConfig::quiet(3)).unwrap();
    let addr = proxy.local_addr().to_string();
    let cycle = |i: usize| {
        let ep = TcpEndpoint::connect(&addr).unwrap();
        let resp = ep
            .call(Request::new(Opcode::Ping, Bytes::from(format!("p{i}"))))
            .unwrap();
        assert_eq!(&resp.body[..], format!("p{i}").as_bytes());
    };
    // Until the daemon has seen every proxied connection end — the
    // proxy hung up on it — and the pumps and readers have let go.
    let settle = |what: &str, before: usize| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.open_connections() > 0 || open_fds() > before {
            assert!(
                Instant::now() < deadline,
                "{what}: {} daemon entries stay, /proc/self/fd grew from {before} to {}",
                server.open_connections(),
                open_fds()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    cycle(0);
    settle("warm-up", usize::MAX);
    let before = open_fds();
    for i in 1..=100 {
        cycle(i);
    }
    settle("100 proxied cycles", before);
    proxy.shutdown();
    server.shutdown();
}
