//! Property and chaos tests for the bulk metadata plane
//! (DESIGN.md "Bulk metadata plane"):
//!
//! 1. **Batched ≡ serial** — any sequence of metadata ops applied as
//!    one `BatchMeta` frame produces the same per-op verdicts and the
//!    same final namespace as the same ops issued one unary RPC at a
//!    time — verdict for verdict, removed entry for removed entry,
//!    including the kind rule (`unlink` of a directory, `rmdir` of a
//!    file). (The daemon's batch-local overlay makes in-batch ops see
//!    their predecessors.)
//! 2. **Exactly-once under retry** — a `BatchMeta` frame whose reply
//!    is lost mid-run (the daemon applied the batch, then "died"
//!    before answering — reply-path loss is observationally the
//!    mid-batch kill) is retried by the client and every op still
//!    applies exactly once: replayed creates tolerate `Exists`,
//!    replayed unlinks tolerate `NotFound`, and a genuine duplicate
//!    from a clean client still fails.
//!
//! Each property is a plain helper returning `Result<(), String>`;
//! `proptest!` drives it with random parameters and fixed-grid
//! `#[test]`s pin reproducible cases.

use gkfs_client::{DaemonRing, GekkoClient};
use gkfs_common::config::{ReplicationConfig, RetryConfig};
use gkfs_common::{ClusterConfig, FileKind, GkfsError};
use gkfs_daemon::Daemon;
use gkfs_rpc::proto::{CreateReq, MetaOp, PathReq, TruncateMetaReq};
use gkfs_rpc::{Endpoint, Fate, Link};
use proptest::prelude::*;
use std::sync::Arc;

/// The op universe: everything `BatchMeta` carries, over a small set
/// of paths so sequences collide (create-after-create, stat-after-
/// unlink, …) often enough to exercise the overlay.
#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Mkdir(usize),
    Stat(usize),
    Unlink(usize),
    Rmdir(usize),
    Truncate(usize, u64),
}

const UNIVERSE: usize = 4;

fn path_of(i: usize) -> String {
    format!("/p{}", i % UNIVERSE)
}

fn to_meta_op(op: &Op) -> MetaOp {
    let create = |i, kind| {
        MetaOp::Create(CreateReq { path: path_of(i), kind, mode: 0o644, exclusive: true, now_ns: 1 })
    };
    match *op {
        Op::Create(i) => create(i, FileKind::File),
        Op::Mkdir(i) => create(i, FileKind::Directory),
        Op::Stat(i) => MetaOp::Stat(PathReq::new(path_of(i))),
        Op::Unlink(i) => MetaOp::Unlink(PathReq::new(path_of(i))),
        Op::Rmdir(i) => MetaOp::Rmdir(PathReq::new(path_of(i))),
        Op::Truncate(i, size) => MetaOp::TruncateMeta(TruncateMetaReq {
            path: path_of(i),
            new_size: size,
            mtime_ns: 2,
        }),
    }
}

fn one_node_ring() -> (Arc<Daemon>, DaemonRing) {
    let d = Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap();
    let ring = DaemonRing::new(
        vec![d.endpoint()],
        RetryConfig::default(),
        &ReplicationConfig::default(),
    );
    (d, ring)
}

/// Property 1: one batched frame ≡ the same ops issued serially. Both
/// protocols answer a [`MetaOp`] with the same type, so the verdicts
/// compare whole.
fn check_batched_matches_serial(ops: &[Op]) -> Result<(), String> {
    let (_db, batched) = one_node_ring();
    let (_ds, serial) = one_node_ring();

    let frame: Vec<MetaOp> = ops.iter().map(to_meta_op).collect();
    let batched_results = batched
        .batch_meta_nb(0, frame.clone().into())
        .and_then(|f| f.wait())
        .map_err(|e| format!("batch frame failed: {e}"))?;

    for (i, (op, got)) in frame.into_iter().zip(batched_results).enumerate() {
        let want = serial.meta_nb(0, op.clone()).and_then(|f| f.wait());
        if want != got {
            return Err(format!(
                "op {i} ({op:?}) diverged: unary {want:?}, batched {got:?}"
            ));
        }
    }

    // Final namespace parity: every path in the universe agrees on
    // presence, kind and size.
    for i in 0..UNIVERSE {
        let stat = MetaOp::Stat(PathReq::new(path_of(i)));
        let a = batched.meta_nb(0, stat.clone()).and_then(|f| f.wait());
        let b = serial.meta_nb(0, stat.clone()).and_then(|f| f.wait());
        if a != b {
            return Err(format!("final state of {stat:?} diverged: batched {a:?}, serial {b:?}"));
        }
    }
    Ok(())
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

/// Property 2: reply-path faults (daemon applies the frame, reply
/// lost every `fail_every`-th call) leave every batched op applied
/// exactly once, end to end through the bulk client APIs.
fn check_batch_exactly_once(fail_every: u64, n_files: usize) -> Result<(), String> {
    let daemon = Daemon::spawn(gkfs_common::DaemonConfig::default()).unwrap();
    let lost = Fate::FailReply(GkfsError::Rpc("injected reply fault".into()));
    let flaky: Arc<dyn Endpoint> = Link::with_rule(daemon.endpoint(), lost.every(fail_every));
    let config = ClusterConfig::new(1).with_retry(fast_retry(4));
    let client = GekkoClient::mount(vec![flaky], &config).map_err(|e| format!("mount: {e}"))?;
    let clean = DaemonRing::new(
        vec![daemon.endpoint()],
        fast_retry(1),
        &ReplicationConfig::default(),
    );

    let paths: Vec<String> = (0..n_files).map(|i| format!("/x{i}")).collect();
    let res = client
        .create_many(&paths, 0o644)
        .map_err(|e| format!("create_many: {e}"))?;
    for (p, r) in paths.iter().zip(&res) {
        if let Err(e) = r {
            return Err(format!("create {p} under reply loss: {e}"));
        }
    }
    // A genuine duplicate — clean ring, first attempt answered — must
    // still fail: the replay tolerance only covers retried frames.
    let dup = MetaOp::Create(CreateReq {
        path: "/x0".into(),
        kind: FileKind::File,
        mode: 0o644,
        exclusive: true,
        now_ns: 9,
    });
    match clean.meta_nb(0, dup).and_then(|f| f.wait()) {
        Err(GkfsError::Exists) => {}
        other => return Err(format!("genuine duplicate create must fail: {other:?}")),
    }
    let stats = client
        .stat_many(&paths)
        .map_err(|e| format!("stat_many: {e}"))?;
    for (p, r) in paths.iter().zip(&stats) {
        match r {
            Ok(m) if m.size == 0 => {}
            other => return Err(format!("stat {p} after batched create: {other:?}")),
        }
    }

    let res = client
        .unlink_many(&paths)
        .map_err(|e| format!("unlink_many: {e}"))?;
    for (p, r) in paths.iter().zip(&res) {
        if let Err(e) = r {
            return Err(format!("unlink {p} under reply loss: {e}"));
        }
    }
    match clean.meta_nb(0, MetaOp::Unlink(PathReq::new("/x0"))).and_then(|f| f.wait()) {
        Err(GkfsError::NotFound) => {}
        other => return Err(format!("removing a removed entry must fail: {other:?}")),
    }
    Ok(())
}

// Referenced from the `proptest!`-generated drivers; the offline
// proptest stand-in compiles them without registering tests, which
// leaves this helper looking unused to rustc.
#[allow(dead_code)]
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..UNIVERSE).prop_map(Op::Create),
        (0..UNIVERSE).prop_map(Op::Mkdir),
        (0..UNIVERSE).prop_map(Op::Stat),
        (0..UNIVERSE).prop_map(Op::Unlink),
        (0..UNIVERSE).prop_map(Op::Rmdir),
        ((0..UNIVERSE), 0u64..10_000).prop_map(|(i, s)| Op::Truncate(i, s)),
    ]
}

proptest! {
    fn prop_batched_frame_matches_serial_unary_ops(
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let r = check_batched_matches_serial(&ops);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }

    fn prop_retried_batches_apply_exactly_once(
        fail_every in 2u64..6,
        n_files in 4usize..20,
    ) {
        let r = check_batch_exactly_once(fail_every, n_files);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }
}

#[test]
fn batched_matches_serial_on_fixed_sequences() {
    let cases: Vec<Vec<Op>> = vec![
        // create / stat / duplicate create / unlink / stat-miss
        vec![
            Op::Create(0),
            Op::Stat(0),
            Op::Create(0),
            Op::Unlink(0),
            Op::Stat(0),
        ],
        // truncate before create, then after
        vec![Op::Truncate(1, 500), Op::Create(1), Op::Truncate(1, 500), Op::Stat(1)],
        // interleaved paths
        vec![
            Op::Create(0),
            Op::Create(1),
            Op::Unlink(0),
            Op::Stat(1),
            Op::Create(0),
            Op::Stat(0),
        ],
        // unlink storm over an empty namespace
        vec![Op::Unlink(0), Op::Unlink(1), Op::Unlink(2), Op::Unlink(3)],
        // the kind rule: rmdir of a file and unlink / truncate of a
        // directory are refused and leave the entry; the right remove
        // then takes it
        vec![
            Op::Create(0),
            Op::Rmdir(0),
            Op::Mkdir(1),
            Op::Unlink(1),
            Op::Truncate(1, 9),
            Op::Stat(0),
            Op::Stat(1),
            Op::Unlink(0),
            Op::Rmdir(1),
            Op::Rmdir(1),
        ],
    ];
    for ops in cases {
        check_batched_matches_serial(&ops).unwrap();
    }
}

#[test]
fn batch_exactly_once_holds_on_fixed_grid() {
    for fail_every in 2..6 {
        check_batch_exactly_once(fail_every, 12).unwrap();
    }
}
