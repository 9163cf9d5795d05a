//! The cluster's one clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cluster's time: what its leases, deadlines, TTLs, token-bucket
/// refills, guest `gettime` and span stamps read. A real clock reads the
/// system's monotonic clock; a manual one starts at the instant it is made
/// and moves only by [`Clock::advance`], so a test decides when a lease or
/// a deadline runs out instead of waiting for it. Clones share one time.
#[derive(Debug, Clone)]
pub struct Clock {
    /// Time zero of the span stamps ([`crate::Recorder::now_ns`]).
    pub(crate) epoch: Instant,
    /// A manual clock's nanoseconds past `epoch`; `None` on a real clock.
    manual: Option<Arc<AtomicU64>>,
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::real()
    }
}

impl Clock {
    /// The system's monotonic clock.
    pub fn real() -> Clock {
        Clock {
            epoch: Instant::now(),
            manual: None,
        }
    }

    /// A clock that stands still until [`Clock::advance`] moves it.
    pub fn manual() -> Clock {
        Clock {
            manual: Some(Arc::default()),
            ..Clock::real()
        }
    }

    /// The current instant.
    #[inline]
    pub fn now(&self) -> Instant {
        match &self.manual {
            None => Instant::now(),
            Some(ns) => self.epoch + Duration::from_nanos(ns.load(Ordering::Acquire)),
        }
    }

    /// Move a manual clock forward by `d`.
    ///
    /// # Panics
    ///
    /// On a real clock, which only time moves.
    pub fn advance(&self, d: Duration) {
        let ns = self.manual.as_ref().expect("only a manual clock advances");
        ns.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }
}
