//! A fan-out's waiter reads its own replies. One thread submits a small
//! request to each of several daemons before it waits on any, as a
//! striped read or write does; each wait then leads its leg's
//! connection (or finds its reply parked by an earlier leader) exactly
//! as a lone call does. A chunk-sized reply is read by its waiter too:
//! no client thread is ever started to read a connection. Its own test
//! binary: the thread census is the process's, and no other test may be
//! starting threads while it is taken.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use gkfs_rpc::transport::Endpoint;
use gkfs_rpc::{HandlerRegistry, Opcode, ReplyHandle, Request, Response, TcpEndpoint, TcpServer};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const DAEMONS: usize = 4;
const ROUNDS: usize = 50;

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// `[waits_led, waits_followed]` summed over `eps`.
fn waits(eps: &[Arc<TcpEndpoint>]) -> [u64; 2] {
    let mut sum = [0; 2];
    for ep in eps {
        let w = ep.wait_stats();
        sum[0] += w.waits_led.load(Ordering::Relaxed);
        sum[1] += w.waits_followed.load(Ordering::Relaxed);
    }
    sum
}

#[test]
fn a_fan_out_s_waits_read_their_own_replies_and_start_no_reader_thread() {
    let servers: Vec<Arc<TcpServer>> = (0..DAEMONS)
        .map(|_| {
            let mut reg = HandlerRegistry::new();
            reg.register_fn(Opcode::Ping, |req| Response::ok(req.body).with_bulk(req.bulk));
            TcpServer::bind("127.0.0.1:0", reg, 2).unwrap()
        })
        .collect();
    let eps: Vec<Arc<TcpEndpoint>> = servers
        .iter()
        .map(|s| TcpEndpoint::connect(&s.local_addr().to_string()).unwrap())
        .collect();
    let before = threads();

    for round in 0..ROUNDS {
        let legs: Vec<(Vec<u8>, ReplyHandle)> = eps
            .iter()
            .enumerate()
            .map(|(d, ep)| {
                let body = format!("r{round}-d{d}").into_bytes();
                let h = ep.submit(Request::new(Opcode::Ping, Bytes::from(body.clone()))).unwrap();
                (body, h)
            })
            .collect();
        for (body, h) in legs {
            assert_eq!(&h.wait(Duration::from_secs(10)).unwrap().body[..], &body[..]);
        }
    }
    let [led, followed] = waits(&eps);
    assert_eq!(led + followed, (ROUNDS * DAEMONS) as u64, "every wait counted once");
    assert_eq!(threads(), before, "a fan-out starts no thread");

    // A chunk-sized reply is read by its waiter as any other: the lone
    // call leads, and still no thread starts.
    let chunk = Bytes::from((0..512 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let resp = eps[0]
        .call(Request::new(Opcode::Ping, &b"chunk"[..]).with_bulk(chunk.clone()))
        .unwrap();
    assert_eq!(resp.bulk, chunk);
    assert_eq!(waits(&eps), [led + 1, followed], "the chunk's waiter read it");
    assert_eq!(threads(), before, "no thread, for the connection with a large reply either");

    drop(eps);
    for s in servers {
        s.shutdown();
    }
}
