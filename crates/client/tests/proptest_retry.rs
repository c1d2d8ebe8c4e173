//! Property tests for the retry layer, covering the two guarantees
//! the fault model promises (DESIGN.md "Fault model"):
//!
//! 1. **Deadline bound** — no operation exceeds its [`Deadline`] by
//!    more than one endpoint wait: the retry loop clamps every reply
//!    wait and every backoff sleep to the remaining budget, so the
//!    worst case is entering the final wait just before expiry.
//! 2. **Exactly-once observability** — a retried idempotent-by-
//!    tolerance op (create / remove_meta) whose reply was lost is
//!    applied exactly once on the daemon, reports success to the
//!    caller, and a genuine duplicate from another client still fails.
//!
//! Each property is a plain helper returning `Result<(), String>`.
//! `proptest!` drives it with random parameters; a deterministic
//! fixed-grid `#[test]` pins reproducible cases so the properties are
//! exercised even where the full proptest crate is unavailable.

use gkfs_client::DaemonRing;
use gkfs_common::config::{ReplicationConfig, RetryConfig};
use gkfs_common::{FileKind, GkfsError, Metadata};
use gkfs_rpc::proto::{op, CreateReq, MetaOp, PathReq};
use gkfs_rpc::{Endpoint, EndpointOptions, Fate, HandlerRegistry, Link, Opcode, Response, RpcServer};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Scheduling slack added on top of the structural bound — generous so
/// a loaded CI machine cannot flake the property.
const SLACK: Duration = Duration::from_millis(150);

/// Property 1: against an endpoint that never replies (every request
/// deterministically dropped), an op with `max_attempts` retries and an
/// op deadline must resolve within `deadline + one endpoint wait`.
fn check_deadline_bound(
    deadline_ms: u64,
    timeout_ms: u64,
    max_attempts: u32,
) -> Result<(), String> {
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body));
    let server = RpcServer::new(reg, 1);
    let ep = server.endpoint_with(
        EndpointOptions::new().with_timeout(Duration::from_millis(timeout_ms)),
    );
    // A black hole: the handler never sees the request, every wait
    // times out.
    let black_hole = Link::with_rule(ep, |_, _| Fate::LoseRequest);
    let ring = DaemonRing::new(
        vec![black_hole as Arc<dyn Endpoint>],
        RetryConfig {
            max_attempts,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
            breaker_threshold: 0,
            op_deadline_ms: deadline_ms,
            ..RetryConfig::default()
        },
        &ReplicationConfig::default(),
    );
    let t0 = Instant::now();
    let result = ring.ping_nb(0).and_then(|f| f.wait());
    let elapsed = t0.elapsed();
    if result.is_ok() {
        return Err("ping through a black hole cannot succeed".into());
    }
    let bound = Duration::from_millis(deadline_ms + timeout_ms) + SLACK;
    if elapsed > bound {
        return Err(format!(
            "op exceeded its deadline by more than one wait: elapsed {elapsed:?}, \
             deadline {deadline_ms} ms, endpoint wait {timeout_ms} ms, attempts {max_attempts}"
        ));
    }
    Ok(())
}

/// A minimal daemon that *counts applications*: Create inserts into a
/// set (Exists on duplicate), RemoveMeta removes (NotFound on miss).
struct CountingDaemon {
    server: Arc<RpcServer>,
    inserts: Arc<AtomicU64>,
    removes: Arc<AtomicU64>,
}

fn counting_daemon() -> CountingDaemon {
    let entries = Arc::new(Mutex::new(HashSet::<String>::new()));
    let inserts = Arc::new(AtomicU64::new(0));
    let removes = Arc::new(AtomicU64::new(0));
    let mut reg = HandlerRegistry::new();
    reg.register_fn(Opcode::Ping, |req| Response::ok(req.body));
    {
        let entries = Arc::clone(&entries);
        let inserts = Arc::clone(&inserts);
        reg.serve::<op::Create>(move |r| {
            if !entries.lock().unwrap().insert(r.path) {
                return Err(GkfsError::Exists);
            }
            inserts.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
    }
    {
        let entries = Arc::clone(&entries);
        let removes = Arc::clone(&removes);
        reg.serve::<op::RemoveMeta>(move |r| {
            if !entries.lock().unwrap().remove(&r.path) {
                return Err(GkfsError::NotFound);
            }
            removes.fetch_add(1, Ordering::Relaxed);
            Ok(Metadata::new_file(0))
        });
    }
    CountingDaemon {
        server: RpcServer::new(reg, 1),
        inserts,
        removes,
    }
}

fn fast_retry(max_attempts: u32) -> RetryConfig {
    RetryConfig {
        max_attempts,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        breaker_threshold: 0,
        op_deadline_ms: 5_000,
        ..RetryConfig::default()
    }
}

/// Property 2: under reply-path faults (the daemon applies the op but
/// the reply is lost every `fail_every`-th call), every create and
/// every remove still reports success, is applied exactly once, and a
/// genuine duplicate from a clean client fails.
fn check_exactly_once(fail_every: u64, n_ops: usize) -> Result<(), String> {
    let daemon = counting_daemon();
    let lost = Fate::FailReply(GkfsError::Rpc("injected reply fault".into()));
    let flaky: Arc<dyn Endpoint> = Link::with_rule(daemon.server.endpoint(), lost.every(fail_every));
    let repl = ReplicationConfig::default();
    let ring = DaemonRing::new(vec![flaky], fast_retry(4), &repl);
    let clean = DaemonRing::new(vec![daemon.server.endpoint()], fast_retry(1), &repl);

    let create = |i: usize| {
        MetaOp::Create(CreateReq {
            path: format!("/p{i}"),
            kind: FileKind::File,
            mode: 0o644,
            exclusive: true,
            now_ns: 1,
        })
    };
    let remove = |i: usize| MetaOp::Unlink(PathReq::new(format!("/p{i}")));
    for i in 0..n_ops {
        ring.meta_nb(0, create(i))
            .and_then(|f| f.wait())
            .map_err(|e| format!("create /p{i}: {e}"))?;
    }
    let inserts = daemon.inserts.load(Ordering::Relaxed);
    if inserts != n_ops as u64 {
        return Err(format!(
            "creates not exactly-once: {n_ops} ops, {inserts} applications"
        ));
    }
    // A genuine duplicate — first attempt answered, clean endpoint —
    // must still surface Exists: tolerance only covers retried
    // attempts of the same logical op.
    match clean.meta_nb(0, create(0)).and_then(|f| f.wait()) {
        Err(GkfsError::Exists) => {}
        other => return Err(format!("genuine duplicate create must fail: {other:?}")),
    }

    for i in 0..n_ops {
        ring.meta_nb(0, remove(i))
            .and_then(|f| f.wait())
            .map_err(|e| format!("remove /p{i}: {e}"))?;
    }
    let removes = daemon.removes.load(Ordering::Relaxed);
    if removes != n_ops as u64 {
        return Err(format!(
            "removes not exactly-once: {n_ops} ops, {removes} applications"
        ));
    }
    match clean.meta_nb(0, remove(0)).and_then(|f| f.wait()) {
        Err(GkfsError::NotFound) => {}
        other => return Err(format!("removing a removed entry must fail: {other:?}")),
    }
    Ok(())
}

proptest! {
    fn prop_no_op_exceeds_deadline_by_more_than_one_wait(
        deadline_ms in 20u64..60,
        timeout_ms in 5u64..25,
        attempts in 1u32..6,
    ) {
        let r = check_deadline_bound(deadline_ms, timeout_ms, attempts);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }

    fn prop_retried_idempotent_ops_are_exactly_once(
        fail_every in 2u64..6,
        n_ops in 4usize..16,
    ) {
        let r = check_exactly_once(fail_every, n_ops);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }
}

#[test]
fn deadline_bound_holds_on_fixed_grid() {
    for &(deadline_ms, timeout_ms, attempts) in &[
        (20u64, 5u64, 1u32),
        (30, 7, 6),
        (40, 10, 3),
        (50, 20, 2),
        (60, 25, 5),
    ] {
        check_deadline_bound(deadline_ms, timeout_ms, attempts).unwrap();
    }
}

#[test]
fn exactly_once_holds_on_fixed_grid() {
    for fail_every in 2..6 {
        check_exactly_once(fail_every, 12).unwrap();
    }
}
