//! Test support: a handler that answers out of order.
//!
//! Scripted faults live on the one seam between a holder and a daemon,
//! [`Link`](crate::Link) with a rule; this module's tests are that
//! rule's table. What stays here is what a link cannot do: make a
//! server answer pipelined requests out of submission order.

use crate::handler::HandlerRegistry;
use crate::message::{Opcode, Response};
use std::time::Duration;

/// Register a "sleepy echo" handler on `opcode`: each request sleeps
/// for the number of milliseconds in the first two bytes of its body
/// (little-endian u16; missing/short body = no sleep), then echoes
/// body and bulk back. With a wide handler pool this lets tests force
/// responses to complete **out of submission order** — the scenario
/// the pipelined submit/wait path must correlate correctly.
pub fn register_sleepy_echo(reg: &mut HandlerRegistry, opcode: Opcode) {
    reg.register_fn(opcode, |req| {
        let ms = if req.body.len() >= 2 {
            u16::from_le_bytes([req.body[0], req.body[1]]) as u64
        } else {
            0
        };
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
        Response::ok(req.body).with_bulk(req.bulk)
    });
}

/// Encode a sleepy-echo body: the delay prefix followed by `tag`.
pub fn sleepy_body(delay_ms: u16, tag: &[u8]) -> Vec<u8> {
    let mut body = delay_ms.to_le_bytes().to_vec();
    body.extend_from_slice(tag);
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Fate, Gate, Link, Until};
    use crate::message::{Request, Status};
    use crate::transport::inproc::RpcServer;
    use crate::transport::{Endpoint, EndpointOptions};
    use gkfs_common::GkfsError;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    /// What a submitter sees of one request.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Sees {
        /// The target's reply, as it sent it.
        Reply,
        /// A reply the link rewrote.
        Rewritten,
        /// An application error inside an `Ok` reply.
        AppError,
        /// `submit` failed with an RPC error.
        SubmitError,
        /// The wait failed at once with an RPC error.
        ReplyError,
        /// The wait ran out its timeout.
        Timeout,
    }
    use Sees::*;

    /// One rule outcome: the fate of every `every`-th request (the
    /// others pass), and what that does to the row's requests, sent one
    /// after another over one link to a counting echo.
    struct Row {
        fate: fn(&Arc<Gate>) -> Fate,
        every: u64,
        /// What the submitter sees, request by request.
        sees: &'static [Sees],
        /// Handler runs once every request is answered or given up.
        runs: u64,
        /// For a held message: handler runs while it is held. The reply
        /// must not arrive before the gate opens (or the hold elapses).
        held: Option<u64>,
        /// The least time from a submit to its outcome.
        takes: Duration,
    }

    /// A link's wait, where a timeout is expected.
    const TIMEOUT: Duration = Duration::from_millis(200);
    /// How long [`Until::Elapsed`] holds a message.
    const HOLD: Duration = Duration::from_millis(50);
    /// How long [`Fate::Stall`] stalls a submitter.
    const STALL: Duration = Duration::from_millis(20);

    fn check(row: Row) {
        let runs = Arc::new(AtomicU64::new(0));
        let mut reg = HandlerRegistry::new();
        let counter = Arc::clone(&runs);
        reg.register_fn(Opcode::Ping, move |req| {
            counter.fetch_add(1, Ordering::Relaxed);
            Response::ok(req.body)
        });
        let server = RpcServer::new(reg, 2);
        let gate = Gate::new();
        let target = server.endpoint_with(EndpointOptions::new().with_timeout(TIMEOUT));
        let link = Link::with_rule(target, (row.fate)(&gate).every(row.every));
        let mut seen = Vec::new();
        for _ in row.sees {
            let t0 = Instant::now();
            let outcome = match link.submit(Request::new(Opcode::Ping, &b"x"[..])) {
                Err(e) => {
                    assert!(matches!(e, GkfsError::Rpc(_)), "{e:?}");
                    SubmitError
                }
                Ok(mut handle) => {
                    if let Some(before) = row.held {
                        assert!(handle.wait_within(Duration::from_millis(20)).is_none(), "arrived while held");
                        assert_eq!(runs.load(Ordering::Relaxed), before, "handler runs while held");
                        gate.open();
                    }
                    match handle.wait(link.timeout()) {
                        Ok(resp) if resp.status != Status::Ok => AppError,
                        Ok(resp) if &resp.body[..] == b"x" => Reply,
                        Ok(_) => Rewritten,
                        Err(GkfsError::Timeout) => Timeout,
                        Err(e) => {
                            assert!(matches!(e, GkfsError::Rpc(_)), "{e:?}");
                            assert!(t0.elapsed() < TIMEOUT / 2, "a failed reply fails at once");
                            ReplyError
                        }
                    }
                }
            };
            assert!(t0.elapsed() >= row.takes, "{outcome:?} after {:?}", t0.elapsed());
            seen.push(outcome);
        }
        assert_eq!(seen, row.sees);
        assert_eq!(link.submitted(), row.sees.len() as u64);
        // A duplicate or a lost reply's delivery may still be running.
        let deadline = Instant::now() + Duration::from_secs(5);
        while runs.load(Ordering::Relaxed) < row.runs && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(runs.load(Ordering::Relaxed), row.runs, "handler runs");
    }

    /// One `#[test]` per row, named by the row.
    macro_rules! table {
        ($($name:ident: $row:expr;)*) => { $(#[test] fn $name() { check($row) })* };
    }

    const NOW: Duration = Duration::ZERO;
    fn rpc(what: &str) -> GkfsError {
        GkfsError::Rpc(what.into())
    }

    table! {
        pass_delivers_once: Row { fate: |_| Fate::Pass, every: 1, sees: &[Reply], runs: 1, held: None, takes: NOW };
        dead_endpoint_always_errors: Row {
            fate: |_| Fate::Refuse(rpc("daemon unreachable")), every: 1,
            sees: &[SubmitError, SubmitError, SubmitError], runs: 0, held: None, takes: NOW,
        };
        flaky_fails_on_schedule: Row {
            fate: |_| Fate::Refuse(rpc("injected fault")), every: 3,
            sees: &[Reply, Reply, SubmitError, Reply, Reply, SubmitError, Reply, Reply, SubmitError],
            runs: 6, held: None, takes: NOW,
        };
        answer_refuses_without_delivering: Row {
            fate: |_| Fate::Answer(Response::err(GkfsError::InvalidArgument("refused".into()))), every: 1,
            sees: &[AppError], runs: 0, held: None, takes: NOW,
        };
        // The property that motivates idempotency-aware retry: the
        // caller sees a failure, yet the daemon executed the request.
        flaky_reply_path_applies_op_but_loses_reply: Row {
            fate: |_| Fate::FailReply(rpc("injected reply fault")), every: 2,
            sees: &[Reply, ReplyError], runs: 2, held: None, takes: NOW,
        };
        lose_request_times_out_undelivered: Row {
            fate: |_| Fate::LoseRequest, every: 1, sees: &[Timeout], runs: 0, held: None, takes: TIMEOUT,
        };
        lose_reply_times_out_delivered: Row {
            fate: |_| Fate::LoseReply, every: 1, sees: &[Timeout], runs: 1, held: None, takes: TIMEOUT,
        };
        twice_delivers_twice_and_answers_once: Row {
            fate: |_| Fate::Twice, every: 1, sees: &[Reply], runs: 2, held: None, takes: NOW,
        };
        slow_endpoint_delays_but_succeeds: Row {
            fate: |_| Fate::Stall(STALL, Box::new(Fate::Pass)), every: 1, sees: &[Reply], runs: 1, held: None, takes: STALL,
        };
        held_request_is_delivered_when_the_gate_opens: Row {
            fate: |g| Fate::HoldRequest(Until::Opened(g.clone())), every: 1, sees: &[Reply], runs: 1, held: Some(0), takes: NOW,
        };
        held_request_is_delivered_when_its_hold_elapses: Row {
            fate: |_| Fate::HoldRequest(Until::Elapsed(HOLD)), every: 1, sees: &[Reply], runs: 1, held: Some(0), takes: HOLD,
        };
        held_reply_is_answered_when_the_gate_opens: Row {
            fate: |g| Fate::HoldReply(Until::Opened(g.clone())), every: 1, sees: &[Reply], runs: 1, held: Some(1), takes: NOW,
        };
        rewrite_changes_the_reply: Row {
            fate: |_| Fate::Rewrite(|resp| resp.body = bytes::Bytes::from_static(b"rot")), every: 1,
            sees: &[Rewritten], runs: 1, held: None, takes: NOW,
        };
    }

    #[test]
    fn inproc_timeout_fires_on_stuck_handler() {
        // A handler that never returns promptly: the endpoint's
        // timeout must fire rather than hang the client.
        let mut reg = HandlerRegistry::new();
        reg.register_fn(Opcode::Ping, |req| {
            std::thread::sleep(Duration::from_millis(300));
            Response::ok(req.body)
        });
        let server = RpcServer::new(reg, 1);
        let ep = server
            .endpoint_with(EndpointOptions::new().with_timeout(Duration::from_millis(30)));
        let t0 = std::time::Instant::now();
        let r = ep.call(Request::new(Opcode::Ping, &b""[..]));
        assert!(matches!(r, Err(GkfsError::Timeout)));
        assert!(t0.elapsed() < Duration::from_millis(200), "timed out promptly");
    }

    #[test]
    fn sleepy_echo_sleeps_and_echoes() {
        let mut reg = HandlerRegistry::new();
        register_sleepy_echo(&mut reg, Opcode::Ping);
        let server = RpcServer::new(reg, 1);
        let ep = server.endpoint();
        let body = sleepy_body(30, b"tagged");
        let t0 = std::time::Instant::now();
        let resp = ep
            .call(Request::new(Opcode::Ping, bytes::Bytes::from(body.clone())))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(&resp.body[..], &body[..]);
    }
}
