//! A failed `accept` does not spin the daemon's loop. Its own test
//! binary: it lowers the process's descriptor limit and uses up every
//! descriptor, which no other test may see.

use bytes::Bytes;
use gkfs_rpc::transport::tcp::Recv;
use gkfs_rpc::transport::Endpoint;
use gkfs_rpc::{HandlerRegistry, Opcode, Request, Response, TcpEndpoint, TcpServer};
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;

/// Set this process's soft descriptor limit; the previous one.
fn set_fd_limit(cur: u64) -> u64 {
    let mut was = Rlimit { cur: 0, max: 0 };
    // SAFETY: `was` is a valid `struct rlimit` for the kernel to fill.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut was) }, 0);
    let now = Rlimit {
        cur: cur.min(was.max),
        max: was.max,
    };
    // SAFETY: `now` is a valid `struct rlimit`; the soft limit is within
    // the hard one.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &now) }, 0);
    was.cur
}

/// The highest descriptor this process has open.
fn highest_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .unwrap_or(0)
}

#[test]
fn an_accept_error_takes_the_listener_out_for_a_tick_and_the_connection_is_served_after() {
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body));
    let server = TcpServer::bind("127.0.0.1:0", reg, 1).unwrap();
    let addr = server.local_addr();
    // Whatever a connection costs the process once is open before the
    // limit comes down, and the warm-up's own descriptors are closed.
    TcpEndpoint::connect(&addr.to_string())
        .unwrap()
        .call(Request::new(Opcode::Ping, &b"warm"[..]))
        .unwrap();
    while server.open_connections() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let was = set_fd_limit(highest_fd() + 16);
    // Twice, a little apart: a descriptor a pool job lets go of late is
    // taken too.
    let mut filler = Vec::new();
    for _ in 0..2 {
        while let Ok(f) = std::fs::File::open("/dev/null") {
            filler.push(f);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // One descriptor back for the client's socket: the kernel completes
    // the handshake, and the daemon's accept finds none for its end.
    drop(filler.pop());
    let mut client = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let errors = server.stats().accept_errors.load(Ordering::Relaxed);
    assert!(
        (1..10).contains(&errors),
        "{errors} failed accepts in 100 ms"
    );
    drop(filler);
    let mut req = Request::new(Opcode::Ping, &b"served"[..]);
    req.id = 5;
    let mut fw = gkfs_common::wire::FrameWriter::new();
    let payload = req.encode();
    fw.segment(&payload);
    fw.write_to(&mut client).unwrap();
    let answered = client.wait(Some(Duration::from_secs(10))).unwrap();
    assert!(answered, "no answer within 10 s");
    let mut len = [0u8; 4];
    client.read_exact(&mut len).unwrap();
    let mut frame = vec![0u8; u32::from_le_bytes(len) as usize + 4];
    client.read_exact(&mut frame).unwrap();
    frame.truncate(frame.len() - 4);
    let resp = Response::decode_owned(&Bytes::from(frame)).unwrap();
    assert_eq!((resp.id, &resp.body[..]), (5, &b"served"[..]));
    set_fd_limit(was);
    server.shutdown();
}
