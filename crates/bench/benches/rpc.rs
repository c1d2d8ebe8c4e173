//! RPC-layer microbenchmarks: per-call overhead on both transports,
//! the handler-pool-width ablation (Margo tuning, DESIGN.md), the
//! pipelined submit/wait fan-out against the blocking baseline, the
//! retry-layer fast-path tax (EXPERIMENTS.md: ≤2 %), and the frame
//! checksum's two kernels at control-frame, small-I/O and chunk sizes.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gkfs_client::DaemonRing;
use gkfs_common::config::{ReplicationConfig, RetryConfig};
use gkfs_rpc::{
    HandlerRegistry, Opcode, ReplyHandle, Request, Response, RpcServer, TcpEndpoint, TcpServer,
};
use gkfs_rpc::transport::Endpoint;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Echo under `Ping` — a pooled row — and under `Stat`, a point op by
/// its declared class, which a TCP server answers on the connection
/// thread.
fn echo_registry() -> HandlerRegistry {
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body).with_bulk(req.bulk));
    reg.register_fn(Opcode::Stat, |req| Response::ok(req.body));
    reg
}

fn bench_inproc(c: &mut Criterion) {
    let server = RpcServer::new(echo_registry(), 4);
    let ep = server.endpoint();
    c.bench_function("rpc/inproc_roundtrip", |b| {
        b.iter(|| {
            black_box(
                ep.call(Request::new(Opcode::Ping, &b"x"[..]))
                    .unwrap(),
            );
        })
    });
    let bulk = Bytes::from(vec![7u8; 512 * 1024]);
    c.bench_function("rpc/inproc_bulk_512k", |b| {
        b.iter(|| {
            black_box(
                ep.call(Request::new(Opcode::Ping, &b""[..]).with_bulk(bulk.clone()))
                    .unwrap(),
            );
        })
    });
}

fn bench_tcp(c: &mut Criterion) {
    let server = TcpServer::bind("127.0.0.1:0", echo_registry(), 4).unwrap();
    let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
    c.bench_function("rpc/tcp_roundtrip", |b| {
        b.iter(|| {
            black_box(ep.call(Request::new(Opcode::Ping, &b"x"[..])).unwrap());
        })
    });
    // The lone point op: served inline, reply read by the caller — no
    // thread hand-off on either side (the pooled `Ping` above still
    // pays the daemon's).
    c.bench_function("rpc/tcp_roundtrip_point", |b| {
        b.iter(|| {
            black_box(ep.call(Request::new(Opcode::Stat, &b"x"[..])).unwrap());
        })
    });
    let bulk = Bytes::from(vec![7u8; 512 * 1024]);
    c.bench_function("rpc/tcp_bulk_512k", |b| {
        b.iter(|| {
            black_box(
                ep.call(Request::new(Opcode::Ping, &b""[..]).with_bulk(bulk.clone()))
                    .unwrap(),
            );
        })
    });
    server.shutdown();
}

/// Ablation: how much does the Margo-style handler pool width matter
/// under concurrent load?
fn bench_pool_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc/pool_width_8clients");
    for width in [1usize, 2, 4, 8] {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |req| {
            // Simulate ~5 µs of daemon-side work.
            let mut acc = 0u64;
            for i in 0..2_000u64 {
                acc = acc.wrapping_add(i.wrapping_mul(31));
            }
            std::hint::black_box(acc);
            Response::ok(req.body)
        });
        let server = RpcServer::new(reg, width);
        group.bench_function(format!("width{width}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for _ in 0..8 {
                        let ep = server.endpoint();
                        s.spawn(move || {
                            for _ in 0..16 {
                                ep.call(Request::new(Opcode::Ping, &b""[..])).unwrap();
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

/// The tentpole comparison: a client striping one request across 8
/// daemons, blocking scoped-thread fan-out (the old client) vs
/// pipelined submit-all-then-wait-all (the new one). The handler does
/// ~5 µs of simulated work so overlap has something to win.
fn bench_fanout(c: &mut Criterion) {
    fn busy_registry() -> HandlerRegistry {
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |req| {
            let mut acc = 0u64;
            for i in 0..2_000u64 {
                acc = acc.wrapping_add(i.wrapping_mul(31));
            }
            std::hint::black_box(acc);
            Response::ok(req.body)
        });
        reg
    }
    let servers: Vec<Arc<RpcServer>> =
        (0..8).map(|_| RpcServer::new(busy_registry(), 2)).collect();
    let eps: Vec<Arc<dyn Endpoint>> = servers
        .iter()
        .map(|s| s.endpoint() as Arc<dyn Endpoint>)
        .collect();

    let mut group = c.benchmark_group("rpc/fanout_8daemons");
    group.bench_function("blocking_scoped_threads", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for ep in &eps {
                    s.spawn(move || {
                        black_box(ep.call(Request::new(Opcode::Ping, &b"x"[..])).unwrap());
                    });
                }
            });
        })
    });
    let pipelined = |eps: &[Arc<dyn Endpoint>]| {
        let handles: Vec<ReplyHandle> = eps
            .iter()
            .map(|ep| ep.submit(Request::new(Opcode::Ping, &b"x"[..])).unwrap())
            .collect();
        for h in handles {
            black_box(h.wait(Duration::from_secs(30)).unwrap());
        }
    };
    group.bench_function("pipelined_submit_wait", |b| b.iter(|| pipelined(&eps)));
    // The same fan-out over sockets: one thread holds eight handles and
    // its waits read every reply themselves, each leading its leg's
    // connection as a lone call does.
    let tcp_servers: Vec<Arc<TcpServer>> = (0..8)
        .map(|_| TcpServer::bind("127.0.0.1:0", busy_registry(), 2).unwrap())
        .collect();
    let tcp_eps: Vec<Arc<dyn Endpoint>> = tcp_servers
        .iter()
        .map(|s| TcpEndpoint::connect(&s.local_addr().to_string()).unwrap() as Arc<dyn Endpoint>)
        .collect();
    group.bench_function("tcp_pipelined_submit_wait", |b| b.iter(|| pipelined(&tcp_eps)));
    group.finish();
    for s in tcp_servers {
        s.shutdown();
    }
}

/// Outstanding-depth sweep on one TCP connection: at depth 1 the
/// pipelined path degenerates to blocking call; at 8+ it should win by
/// overlapping daemon-side work and wire latency.
fn bench_tcp_outstanding(c: &mut Criterion) {
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| {
        let mut acc = 0u64;
        for i in 0..2_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(31));
        }
        std::hint::black_box(acc);
        Response::ok(req.body)
    });
    let server = TcpServer::bind("127.0.0.1:0", reg, 8).unwrap();
    let ep = TcpEndpoint::connect(&server.local_addr().to_string()).unwrap();
    let mut group = c.benchmark_group("rpc/tcp_outstanding");
    for depth in [1usize, 8, 32] {
        group.bench_function(format!("depth{depth}"), |b| {
            b.iter(|| {
                let handles: Vec<ReplyHandle> = (0..depth)
                    .map(|_| ep.submit(Request::new(Opcode::Ping, &b"x"[..])).unwrap())
                    .collect();
                for h in handles {
                    black_box(h.wait(Duration::from_secs(30)).unwrap());
                }
            })
        });
    }
    group.finish();
    server.shutdown();
}

/// The robustness-layer tax on the fault-free fast path: the same
/// `DaemonRing::ping` with retries disabled (single attempt, no
/// breaker, no deadline) vs the default policy (4 attempts armed,
/// breaker consulted, deadline clamped). No fault ever fires, so the
/// difference is pure bookkeeping — EXPERIMENTS.md records it at ≤2 %.
fn bench_retry_fastpath(c: &mut Criterion) {
    let make_ring = |retry: RetryConfig| {
        let server = RpcServer::new(echo_registry(), 4);
        DaemonRing::new(
            vec![server.endpoint() as Arc<dyn Endpoint>],
            retry,
            &ReplicationConfig::default(),
        )
    };
    let disabled = make_ring(RetryConfig::disabled());
    let armed = make_ring(RetryConfig::default());
    let mut group = c.benchmark_group("rpc/retry_fastpath");
    group.bench_function("ping_retry_disabled", |b| {
        b.iter(|| disabled.ping_nb(0).unwrap().wait().unwrap())
    });
    group.bench_function("ping_retry_default", |b| {
        b.iter(|| armed.ping_nb(0).unwrap().wait().unwrap())
    });
    group.finish();
}

/// The frame/WAL/SSTable checksum, one row per kernel this CPU has, at
/// the sizes the data path feeds it: a control frame (64 B — the
/// 128-bit kernel's threshold), a small-I/O payload (4 KiB), one chunk
/// (512 KiB). A row is named by the widest kernel it may dispatch to, so
/// `fold512_64b` is what a 64-byte frame costs on a 512-bit CPU: the
/// 128-bit kernel. A kernel the CPU lacks has no row.
fn bench_crc32(c: &mut Criterion) {
    use gkfs_common::crc::Kernel;
    let mut group = c.benchmark_group("crc32");
    for (label, len) in [("64b", 64usize), ("4k", 4 << 10), ("512k", 512 << 10)] {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        for kernel in Kernel::available() {
            let name = format!("{kernel:?}_{label}").to_lowercase();
            group.bench_function(name, |b| b.iter(|| kernel.update(0, black_box(&data))));
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_inproc, bench_tcp, bench_pool_width, bench_fanout, bench_tcp_outstanding, bench_retry_fastpath, bench_crc32
}
criterion_main!(benches);
