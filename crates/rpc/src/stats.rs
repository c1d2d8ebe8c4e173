//! RPC-layer counters, shared by both transports.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one endpoint or server. All relaxed — they feed
/// benchmarks and diagnostics, not control flow.
#[derive(Debug, Default)]
pub struct RpcStats {
    /// Requests accepted.
    pub requests: AtomicU64,
    /// Responses produced.
    pub responses: AtomicU64,
    /// Responses carrying an error status.
    pub errors: AtomicU64,
    /// Request body/bulk bytes a byte-stream server copied again after
    /// reading them off the socket — zero while requests are decoded as
    /// views of the received frame.
    pub request_copy_bytes: AtomicU64,
    /// Requests a TCP server's progress loop dispatched and answered
    /// itself (no thread hand-off on the daemon).
    pub served_inline: AtomicU64,
    /// Requests queued on the handler pool — every in-process request,
    /// and over TCP whatever the inline rule turned away.
    pub served_pooled: AtomicU64,
    /// Waits of a TCP server's loop that found their event while
    /// polling its epoll set (no wake-up on the daemon).
    pub spun: AtomicU64,
    /// Polling windows of a TCP server's loop that ran out before any
    /// event came; the loop parked after.
    pub spin_expired: AtomicU64,
    /// Times a TCP server's standby took the loop over from a leader
    /// whose busy window (an inline handler, its reply's write, an
    /// enqueue on a full handler queue) outlasted a tick. Not on the
    /// wire.
    pub takeovers: AtomicU64,
    /// `accept` calls of a TCP server that failed (`EMFILE`, ...); each
    /// takes the listener out of the loop's set for a tick. Not on the
    /// wire.
    pub accept_errors: AtomicU64,
}

/// How the waiters of one [`TcpEndpoint`](crate::TcpEndpoint) got their
/// replies. Client-side only: none of this crosses the wire.
#[derive(Debug, Default)]
pub struct WaitStats {
    /// Waits that read the socket themselves (took the read token at
    /// least once): no thread hand-off on the client.
    pub waits_led: AtomicU64,
    /// Waits served by another reader: a leading waiter parked the
    /// reply in their slot.
    pub waits_followed: AtomicU64,
    /// Reads of the next reply by a leading waiter whose bytes came
    /// while it polled the socket (no wake-up on the client).
    pub spun: AtomicU64,
    /// Polling windows of those waiters that ran out before the next
    /// reply came; the waiter blocked after.
    pub spin_expired: AtomicU64,
}

impl RpcStats {
    /// Record request.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Record response.
    pub fn record_response(&self, ok: bool) {
        self.responses.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = RpcStats::default();
        s.record_request();
        s.record_response(true);
        s.record_response(false);
        assert_eq!(s.requests.load(Ordering::Relaxed), 1);
        assert_eq!(s.responses.load(Ordering::Relaxed), 2);
        assert_eq!(s.errors.load(Ordering::Relaxed), 1);
    }
}
