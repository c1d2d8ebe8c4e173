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
    /// Header/body bytes moved.
    pub body_bytes: AtomicU64,
    /// Bulk payload bytes moved.
    pub bulk_bytes: AtomicU64,
    /// Request body/bulk bytes a byte-stream server copied again after
    /// reading them off the socket — zero while requests are decoded as
    /// views of the received frame.
    pub request_copy_bytes: AtomicU64,
}

impl RpcStats {
    /// Record request.
    pub fn record_request(&self, body: usize, bulk: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.body_bytes.fetch_add(body as u64, Ordering::Relaxed);
        self.bulk_bytes.fetch_add(bulk as u64, Ordering::Relaxed);
    }

    /// Record response.
    pub fn record_response(&self, ok: bool, body: usize, bulk: usize) {
        self.responses.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.body_bytes.fetch_add(body as u64, Ordering::Relaxed);
        self.bulk_bytes.fetch_add(bulk as u64, Ordering::Relaxed);
    }

    /// `(requests, responses, errors, body_bytes, bulk_bytes)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.responses.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.body_bytes.load(Ordering::Relaxed),
            self.bulk_bytes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = RpcStats::default();
        s.record_request(10, 100);
        s.record_response(true, 5, 0);
        s.record_response(false, 0, 0);
        let (req, resp, err, body, bulk) = s.snapshot();
        assert_eq!(req, 1);
        assert_eq!(resp, 2);
        assert_eq!(err, 1);
        assert_eq!(body, 15);
        assert_eq!(bulk, 100);
    }
}
