//! Manual measurement of the retry layer's fault-free fast-path tax,
//! backing the EXPERIMENTS.md "retry fast-path overhead" entry:
//!
//! ```sh
//! cargo test -p gkfs-client --release --test retry_overhead -- --ignored --nocapture
//! ```
//!
//! Compares `DaemonRing::ping` with retries disabled (single attempt,
//! no breaker, no deadline) against the default armed policy over an
//! in-process echo server — the cheapest RPC the stack can do, i.e.
//! the *worst case* for relative overhead. No fault ever fires; the
//! measured difference is pure retry-layer bookkeeping (breaker load,
//! deadline arming, health counters).

use gkfs_client::DaemonRing;
use gkfs_common::config::{ReplicationConfig, RetryConfig};
use gkfs_rpc::{Endpoint, HandlerRegistry, Opcode, Response, RpcServer};
use std::sync::Arc;
use std::time::Instant;

fn echo_ring(retry: RetryConfig) -> DaemonRing {
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body));
    let server = RpcServer::new(reg, 1);
    DaemonRing::new(
        vec![server.endpoint() as Arc<dyn Endpoint>],
        retry,
        &ReplicationConfig::default(),
    )
}

fn measure(ring: &DaemonRing, iters: u64) -> f64 {
    // Warm-up.
    for _ in 0..iters / 10 {
        ring.ping_nb(0).unwrap().wait().unwrap();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        ring.ping_nb(0).unwrap().wait().unwrap();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

#[test]
#[ignore = "manual measurement; run release with --nocapture"]
fn measure_retry_fastpath_overhead() {
    const ITERS: u64 = 200_000;
    let disabled = echo_ring(RetryConfig::disabled());
    let armed = echo_ring(RetryConfig::default());
    // Interleave rounds so frequency scaling and noise hit both arms.
    let mut d_best = f64::MAX;
    let mut a_best = f64::MAX;
    for _ in 0..5 {
        d_best = d_best.min(measure(&disabled, ITERS));
        a_best = a_best.min(measure(&armed, ITERS));
    }
    let overhead = (a_best - d_best) / d_best * 100.0;
    println!(
        "retry fast-path: disabled {d_best:.1} ns/op, default {a_best:.1} ns/op, \
         overhead {overhead:+.2} %"
    );
}
