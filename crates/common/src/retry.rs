//! Deadline-aware retry: bounded backoff schedules and operation
//! deadlines.
//!
//! GekkoFS is explicitly *not* fault tolerant (paper §III-A) — but a
//! temporary file system still owes its callers **clean failure**:
//! when a daemon is slow, flaky, or dead, every operation must either
//! succeed or surface a typed [`GkfsError`] within a bounded deadline.
//! This module is the arithmetic half of that contract; the RPC and
//! client layers thread it through every fan-out:
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   *deterministic* seeded jitter. Jitter is a pure function of
//!   `(seed, salt, attempt)`, never of the wall clock, so a failing
//!   schedule replays identically under a fixed seed (the same rule
//!   the chaos harness follows).
//! * [`Deadline`] — an absolute time budget for one logical operation.
//!   Aggregate operations (striped writes, broadcasts) clamp each
//!   individual `wait` and each backoff sleep to the *remaining*
//!   budget instead of stacking per-call timeouts N deep.
//!
//! The third part of clean failure, failing fast on a daemon that is
//! gone, is each node's circuit breaker, which lives in its failure
//! detector record ([`crate::health`]).
//!
//! What is considered retryable lives on the error type itself
//! ([`GkfsError::is_retryable`]); *when* a retry is semantically safe
//! (idempotency) is the caller's decision and is documented in
//! DESIGN.md ("Fault model").
//!
//! [`GkfsError`]: crate::error::GkfsError
//! [`GkfsError::is_retryable`]: crate::error::GkfsError::is_retryable

use std::time::{Duration, Instant};

/// Bounded exponential backoff with deterministic seeded jitter.
///
/// Attempt `k` (zero-based) backs off for roughly `base * 2^k`,
/// capped at `max`, with ±25% jitter derived from
/// `(seed, salt, attempt)` — no wall-clock entropy, so schedules are
/// reproducible under a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retry.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Jitter seed. Two callers with different salts (e.g. node ids)
    /// de-synchronize even under the same seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            seed: 0x6766_6b73, // "gfks"
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after failed attempt `attempt`
    /// (zero-based). Pure function of `(self, salt, attempt)`.
    pub fn backoff(&self, salt: u64, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        // ±25% equal jitter: keep 3/4 of the exponential term, add a
        // deterministic slice of the remaining half.
        let jitter_span = nanos / 2;
        let jitter = if jitter_span == 0 {
            0
        } else {
            splitmix64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt as u64)
                % jitter_span
        };
        Duration::from_nanos(nanos - nanos / 4 + jitter)
    }
}

/// SplitMix64 — the standard 64-bit finalizer; good avalanche, no
/// state, no allocation. Used only to derive jitter deterministically.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded Fisher–Yates shuffle over the [`splitmix64`] stream: one
/// `seed`, one permutation, on every run and platform — what workload
/// drivers need for a reproducible "random" access order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// An absolute time budget for one logical operation.
///
/// `Deadline` is `Copy` and is threaded *down* through helpers: a
/// striped write creates one deadline and every per-chunk RPC wait and
/// every retry backoff clamps itself to [`Deadline::clamp`] of it, so
/// the aggregate operation cannot stack N per-call timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Some(Instant::now() + budget),
        }
    }

    /// No deadline: `clamp` is the identity, `expired` is never true.
    pub fn never() -> Deadline {
        Deadline { at: None }
    }

    /// Remaining budget; `None` if unbounded, `Some(ZERO)` if expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// True once the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.remaining() == Some(Duration::ZERO)
    }

    /// Clamp a per-call wait to the remaining budget.
    pub fn clamp(&self, d: Duration) -> Duration {
        match self.remaining() {
            None => d,
            Some(rem) => d.min(rem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let sorted: Vec<u32> = (0..100).collect();
        let shuffled = |seed| {
            let mut v = sorted.clone();
            shuffle(&mut v, seed);
            v
        };
        assert_eq!(shuffled(7), shuffled(7), "same seed, same order");
        assert_ne!(shuffled(7), shuffled(8));
        assert_ne!(shuffled(7), sorted, "it does shuffle");
        let mut back = shuffled(7);
        back.sort_unstable();
        assert_eq!(back, sorted, "nothing lost, nothing duplicated");
        shuffle::<u8>(&mut [], 1);
        shuffle(&mut [1u8], 1);
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::default();
        for attempt in 0..6 {
            for salt in [0u64, 1, 7, 0xdead] {
                assert_eq!(
                    p.backoff(salt, attempt),
                    p.backoff(salt, attempt),
                    "same (seed,salt,attempt) must give same backoff"
                );
            }
        }
        // Different salts de-synchronize the jitter.
        let schedule =
            |salt: u64| (0..4).map(|a| p.backoff(salt, a)).collect::<Vec<_>>();
        assert_ne!(schedule(1), schedule(2));
        // Different seeds give different schedules for the same salt.
        let other = RetryPolicy {
            seed: p.seed + 1,
            ..p.clone()
        };
        assert_ne!(
            (0..4).map(|a| p.backoff(9, a)).collect::<Vec<_>>(),
            (0..4).map(|a| other.backoff(9, a)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            seed: 42,
        };
        for attempt in 0..10 {
            let b = p.backoff(3, attempt);
            // 3/4 of the exponential term ≤ backoff ≤ 5/4 of it.
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt.min(16))
                .min(Duration::from_millis(80));
            assert!(b >= exp - exp / 4, "attempt {attempt}: {b:?} < floor");
            assert!(b <= exp + exp / 4, "attempt {attempt}: {b:?} > ceiling");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "real-clock cooldown windows are meaningless at interpreter speed")]
    fn deadline_clamps_and_expires() {
        let dl = Deadline::after(Duration::from_millis(40));
        assert!(!dl.expired());
        assert!(dl.clamp(Duration::from_secs(30)) <= Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(50));
        assert!(dl.expired());
        assert_eq!(dl.clamp(Duration::from_secs(30)), Duration::ZERO);
        let never = Deadline::never();
        assert!(!never.expired());
        assert_eq!(never.clamp(Duration::from_secs(7)), Duration::from_secs(7));
        assert_eq!(never.remaining(), None);
    }
}
