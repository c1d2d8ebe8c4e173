//! What a metadata op allocates, pinned by count. Each row serves its
//! frames the way a daemon does — the request dispatched through
//! `build_registry`, then the reply's prefix encoded — on a warm daemon,
//! and counts the allocations made on the serving thread from round
//! 100 on (the per-thread counting allocator of the kvstore's decoder
//! fuzzers). What an op may still allocate: its decoded path, the key
//! and the record the memtable keeps, the copy a stat or an unlink
//! reads, and its share of the frame's own buffers.

use gkfs_common::{DaemonConfig, FileKind};
use gkfs_daemon::handlers::build_registry;
use gkfs_daemon::Daemon;
use gkfs_rpc::proto::{op, BatchMetaReq, CreateReq, MetaOp, PathReq, RemoveMetaReq, Rpc};
use gkfs_rpc::{HandlerRegistry, Request};

#[allow(dead_code)] // the fuzzers' mutations are not used here
#[path = "../../kvstore/tests/fuzz_harness/mod.rs"]
mod fuzz_harness;
use fuzz_harness::counted;

const ROUNDS: usize = 200;
const WARM: usize = 100;
const FRAME: usize = 32;

/// Allocations per op of each phase — create, stat, unlink — over the
/// counted rounds; `frames` builds a round's requests for one phase,
/// `FRAME` ops in all.
fn per_op(reg: &HandlerRegistry, frames: impl Fn(usize, usize) -> Vec<Request>) -> [f64; 3] {
    let mut allocs = [0usize; 3];
    for round in 0..ROUNDS {
        for (phase, counter) in allocs.iter_mut().enumerate() {
            for req in frames(round, phase) {
                let (reply, n) = counted(|| {
                    let resp = reg.dispatch(req);
                    let prefix = resp.encode_prefix();
                    (resp, prefix)
                });
                assert!(reply.0.into_result().is_ok(), "round {round} phase {phase}");
                if round >= WARM {
                    *counter += n;
                }
            }
        }
    }
    allocs.map(|n| n as f64 / ((ROUNDS - WARM) * FRAME) as f64)
}

fn path(round: usize, i: usize) -> String {
    format!("/alloc/r{round:04}/f{i:02}")
}

fn create(path: String) -> CreateReq {
    CreateReq {
        path,
        kind: FileKind::File,
        mode: 0o644,
        exclusive: true,
        now_ns: 1,
    }
}

/// Rounds of one 32-op `BatchMeta` frame per phase.
fn batched(reg: &HandlerRegistry) -> [f64; 3] {
    per_op(reg, |round, phase| {
        let ops = (0..FRAME).map(|i| {
            let p = path(round, i);
            match phase {
                0 => MetaOp::Create(create(p)),
                1 => MetaOp::Stat(PathReq { path: p }),
                _ => MetaOp::Unlink(PathReq { path: p }),
            }
        });
        vec![op::BatchMeta::request(&BatchMetaReq {
            ops: ops.collect::<Vec<_>>().into(),
        })]
    })
}

/// Rounds of 32 unary frames per phase.
fn unary(reg: &HandlerRegistry) -> [f64; 3] {
    per_op(reg, |round, phase| {
        (0..FRAME)
            .map(|i| {
                let p = path(round, i);
                match phase {
                    0 => op::Create::request(&create(p)),
                    1 => op::Stat::request(&PathReq { path: p }),
                    _ => op::RemoveMeta::request(&RemoveMetaReq {
                        path: p,
                        kind: FileKind::File,
                    }),
                }
            })
            .collect()
    })
}

fn check(row: &str, got: [f64; 3], budget: [f64; 3]) {
    eprintln!(
        "{row}: create {:.2}, stat {:.2}, unlink {:.2} allocations per op",
        got[0], got[1], got[2]
    );
    for ((name, got), budget) in ["create", "stat", "unlink"].iter().zip(got).zip(budget) {
        assert!(
            got <= budget,
            "{row}: a {name} allocated {got:.2} times per op, budget {budget}"
        );
    }
}

#[test]
fn a_metadata_op_allocates_what_the_store_keeps() {
    let d = Daemon::spawn(DaemonConfig::default()).unwrap();
    let reg = build_registry(d.backends().clone());
    check("32-op frames", batched(&reg), [4.0, 3.0, 4.0]);
    let d = Daemon::spawn(DaemonConfig::default()).unwrap();
    let reg = build_registry(d.backends().clone());
    check("unary rows", unary(&reg), [7.0, 6.0, 9.0]);
}

/// The same frames on a daemon whose store logs every commit: the WAL
/// frame is encoded into the group commit's queue in place.
#[test]
fn a_logged_metadata_op_allocates_what_the_store_keeps() {
    let dir = std::env::temp_dir().join(format!("gkfs-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DaemonConfig {
        root_dir: Some(dir.clone()),
        kv_wal: true,
        ..DaemonConfig::default()
    };
    let d = Daemon::spawn(config).unwrap();
    let reg = build_registry(d.backends().clone());
    check("32-op frames, logged", batched(&reg), [4.0, 3.0, 4.0]);
    drop((reg, d));
    std::fs::remove_dir_all(&dir).unwrap();
}
