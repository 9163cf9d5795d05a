//! Token-bucket traffic shaping — the `tc` analogue of §3.1.
//!
//! "To ensure fairness between co-located tenants, each Faaslet applies
//! traffic shaping on its virtual network interface using tc, thus enforcing
//! ingress and egress traffic rate limits." A [`TokenBucket`] enforces a
//! rate with a burst capacity; callers either poll ([`TokenBucket::try_acquire`])
//! or block ([`TokenBucket::acquire`]). The bucket refills by the instants
//! its callers pass in, read off the cluster's clock; only the sleep in
//! `acquire` is real time.
//!
//! The bucket is unit-agnostic: the NIC shapes *bytes*, while the cluster
//! ingress tier (`faasm-gateway`) shapes *requests* through the same
//! mechanics via [`TokenBucket::per_second`] / [`TokenBucket::try_acquire_one`].

use std::time::{Duration, Instant};

use parking_lot::Mutex;

#[derive(Debug)]
struct State {
    tokens: f64,
    /// The instant of the last refill; `None` until the first call (the
    /// bucket starts full, so nothing accrues before it).
    last_refill: Option<Instant>,
}

/// A thread-safe token bucket over bytes.
#[derive(Debug)]
pub struct TokenBucket {
    /// Refill rate in bytes/second; `None` disables shaping.
    rate: Option<f64>,
    /// Maximum burst size in bytes.
    capacity: f64,
    state: Mutex<State>,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bytes_per_sec` with burst `capacity_bytes`.
    pub fn new(rate_bytes_per_sec: u64, capacity_bytes: u64) -> TokenBucket {
        TokenBucket {
            rate: Some(rate_bytes_per_sec.max(1) as f64),
            capacity: capacity_bytes.max(1) as f64,
            state: Mutex::new(State {
                tokens: capacity_bytes.max(1) as f64,
                last_refill: None,
            }),
        }
    }

    /// A bucket over discrete operations: admits `ops_per_sec` sustained
    /// with bursts of `burst` (requests, calls — any unit where one
    /// acquisition debits one token).
    pub fn per_second(ops_per_sec: u64, burst: u64) -> TokenBucket {
        TokenBucket::new(ops_per_sec, burst)
    }

    /// A bucket that never limits (shaping disabled).
    pub fn unlimited() -> TokenBucket {
        TokenBucket {
            rate: None,
            capacity: f64::MAX,
            state: Mutex::new(State {
                tokens: 0.0,
                last_refill: None,
            }),
        }
    }

    /// True if this bucket enforces a rate.
    pub fn is_limited(&self) -> bool {
        self.rate.is_some()
    }

    fn refill(&self, s: &mut State, rate: f64, now: Instant) {
        if let Some(last) = s.last_refill {
            let dt = now.saturating_duration_since(last).as_secs_f64();
            s.tokens = (s.tokens + dt * rate).min(self.capacity);
        }
        s.last_refill = Some(now);
    }

    /// Try to debit `bytes` at `now`; returns `false` if insufficient
    /// tokens are available.
    pub fn try_acquire(&self, bytes: usize, now: Instant) -> bool {
        let Some(rate) = self.rate else { return true };
        let mut s = self.state.lock();
        self.refill(&mut s, rate, now);
        if s.tokens >= bytes as f64 {
            s.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Try to debit a single token (one request/operation) at `now`.
    pub fn try_acquire_one(&self, now: Instant) -> bool {
        self.try_acquire(1, now)
    }

    /// Debit `bytes` at `now`, sleeping until the bucket permits it. Oversized
    /// requests (larger than the burst capacity) are allowed by letting the
    /// token count go negative, which models the transfer back-pressuring
    /// subsequent sends.
    pub fn acquire(&self, bytes: usize, now: Instant) {
        let Some(rate) = self.rate else { return };
        let wait = {
            let mut s = self.state.lock();
            self.refill(&mut s, rate, now);
            s.tokens -= bytes as f64;
            if s.tokens >= 0.0 {
                None
            } else {
                Some(Duration::from_secs_f64(-s.tokens / rate))
            }
        };
        if let Some(d) = wait {
            std::thread::sleep(d);
        }
    }

    /// Return one previously debited token, capped at the burst capacity.
    ///
    /// For admission pipelines with gates behind the bucket: a request that
    /// passes the rate limit but is shed by a later gate (e.g. a full
    /// queue) consumed no capacity, so charging it would double-penalise
    /// the tenant — shed at the queue *and* drained from the rate budget.
    pub fn refund_one(&self) {
        if self.rate.is_none() {
            return;
        }
        let mut s = self.state.lock();
        s.tokens = (s.tokens + 1.0).min(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_permits() {
        let b = TokenBucket::unlimited();
        assert!(!b.is_limited());
        assert!(b.try_acquire(usize::MAX / 2, Instant::now()));
        b.acquire(usize::MAX / 2, Instant::now());
    }

    #[test]
    fn burst_then_deny() {
        let b = TokenBucket::new(1, 100);
        let now = Instant::now();
        assert!(b.is_limited());
        assert!(b.try_acquire(100, now), "burst capacity available");
        assert!(!b.try_acquire(50, now), "bucket drained at 1 B/s");
    }

    #[test]
    fn refill_over_time() {
        let b = TokenBucket::new(1_000_000, 1000);
        let t0 = Instant::now();
        assert!(b.try_acquire(1000, t0));
        assert!(!b.try_acquire(1000, t0));
        assert!(!b.try_acquire(1000, t0 + Duration::from_micros(500)));
        // 5 000 bytes refilled 5 ms later, capped at capacity 1000.
        assert!(b.try_acquire(1000, t0 + Duration::from_millis(5)));
    }

    #[test]
    fn refund_restores_a_token_capped_at_capacity() {
        let now = Instant::now();
        let b = TokenBucket::per_second(1, 2);
        assert!(b.try_acquire_one(now));
        assert!(b.try_acquire_one(now));
        assert!(!b.try_acquire_one(now), "burst drained at 1/s");
        b.refund_one();
        assert!(b.try_acquire_one(now), "refunded token is usable");
        // Refunds never exceed the burst capacity.
        let full = TokenBucket::per_second(1, 1);
        full.refund_one();
        full.refund_one();
        assert!(full.try_acquire_one(now));
        assert!(!full.try_acquire_one(now), "capacity caps refunds");
        // Unlimited buckets ignore refunds.
        TokenBucket::unlimited().refund_one();
    }

    #[test]
    fn acquire_blocks_for_rate() {
        let b = TokenBucket::new(100_000, 100);
        let start = Instant::now();
        b.acquire(100, start); // drain burst
        b.acquire(1000, start); // needs 10 ms at 100 kB/s
        assert!(start.elapsed() >= Duration::from_millis(8));
    }
}
