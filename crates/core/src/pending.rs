//! Completion slots shared by every submit/await pair in the system.
//!
//! The runtime instance's call slots, the cluster front door and the
//! gateway's completion table are all the same data structure — a slot map
//! keyed by call/ticket id plus a condvar — differing only in two policies:
//!
//! * **store-unregistered**: whether a result arriving for an id nobody
//!   registered is parked for a later taker (the message-bus semantics:
//!   results may beat the waiter to the map) or dropped (the gateway
//!   semantics: a slot abandoned by a timed-out waiter must not leak its
//!   response).
//! * **TTL sweep**: whether fulfilled slots nobody ever claims
//!   (fire-and-forget submits) are eventually swept. Slot ages are read
//!   off the map's [`Clock`] (the cluster's); a blocking wait's timeout is
//!   real time.
//!
//! [`PendingMap`] captures both behind knobs. The runtime instance and the
//! cluster front door use a store-unregistered map over
//! [`CallResult`](faasm_sched::CallResult), keyed by call id.
//!
//! **Register-before-fulfill invariant.** Waiter-style callers must
//! [`PendingMap::register`] an id *before* the work that fulfils it is
//! dispatched; otherwise a non-storing map drops the result and the waiter
//! blocks out its timeout. The in-tree callers hold this: the instance
//! registers in `chain_call`/`submit_placed`/`submit_placed_batch` before
//! queueing or sending (the cluster front door's results arrive through
//! such a batch callback and are parked, store-unregistered), and the
//! gateway registers a ticket before admission. Callback waiters
//! ([`PendingMap::register_callback`]) are exempt — a callback registered
//! after an early fulfilment is invoked immediately when the map stores
//! unregistered results.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use faasm_telemetry::Clock;
use parking_lot::{Condvar, Mutex};

/// A completion hook invoked exactly once with the terminal value, from
/// whichever thread fulfilled it.
pub type PendingCallback<T> = Box<dyn FnOnce(T) + Send>;

/// One id's completion state.
enum Slot<T> {
    /// Registered; a blocking waiter will claim it.
    Waiting,
    /// Fulfilled at the instant, awaiting its taker; swept after the TTL
    /// (if any).
    Ready(T, Instant),
    /// A callback waiter: fulfilment invokes the hook instead of parking
    /// the value, so no thread blocks per in-flight id.
    Callback(PendingCallback<T>),
}

impl<T> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Waiting => f.write_str("Waiting"),
            Slot::Ready(..) => f.write_str("Ready"),
            Slot::Callback(_) => f.write_str("Callback"),
        }
    }
}

/// The slot map plus the bookkeeping that keeps the TTL sweep off the hot
/// path: `fulfilled` counts delivered-but-unclaimed slots (live waiters do
/// not trigger sweeps) and `last_sweep` rate-limits full-map scans.
#[derive(Debug)]
struct Slots<T> {
    map: HashMap<u64, Slot<T>>,
    fulfilled: usize,
    last_sweep: Instant,
}

/// Unclaimed fulfilled-slot count above which `fulfill` runs the TTL sweep.
const SWEEP_THRESHOLD: usize = 256;

/// Generic completion slots: id → eventual value, with blocking and
/// callback waiters. See the module docs for the two policy knobs.
#[derive(Debug)]
pub struct PendingMap<T> {
    slots: Mutex<Slots<T>>,
    cv: Condvar,
    store_unregistered: bool,
    ttl: Option<Duration>,
    clock: Clock,
}

impl<T: Send> Default for PendingMap<T> {
    fn default() -> PendingMap<T> {
        PendingMap::new(true, None, Clock::real())
    }
}

impl<T: Send> PendingMap<T> {
    /// A map with explicit policies: `store_unregistered` parks values
    /// fulfilled for ids nobody registered (message-bus semantics; such a
    /// map also keeps timed-out waiters' slots so a late value is not
    /// lost), `ttl` sweeps fulfilled-but-unclaimed slots after the given
    /// age on `clock` (fire-and-forget hygiene).
    pub fn new(store_unregistered: bool, ttl: Option<Duration>, clock: Clock) -> PendingMap<T> {
        PendingMap {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                fulfilled: 0,
                last_sweep: clock.now(),
            }),
            cv: Condvar::new(),
            store_unregistered,
            ttl,
            clock,
        }
    }

    /// Reserve a slot for an id about to be dispatched.
    pub fn register(&self, id: u64) {
        self.slots.lock().map.entry(id).or_insert(Slot::Waiting);
    }

    /// Register a callback waiter: fulfilment invokes `cb` exactly once
    /// with the value, outside the map lock. If a value is already parked
    /// for `id` (store-unregistered maps), the callback runs immediately.
    pub fn register_callback(&self, id: u64, cb: PendingCallback<T>) {
        let ready = {
            let mut slots = self.slots.lock();
            if matches!(slots.map.get(&id), Some(Slot::Ready(..))) {
                slots.fulfilled = slots.fulfilled.saturating_sub(1);
                match slots.map.remove(&id) {
                    Some(Slot::Ready(v, _)) => Some(v),
                    _ => unreachable!("checked Ready above"),
                }
            } else {
                slots.map.insert(id, Slot::Callback(cb));
                return;
            }
        };
        if let Some(v) = ready {
            cb(v);
        }
    }

    /// Deliver a value: invokes a registered callback (outside the lock),
    /// wakes a blocking waiter, or — on store-unregistered maps — parks it
    /// for a later taker. Non-storing maps drop values for unknown ids (the
    /// waiter abandoned its slot).
    pub fn fulfill(&self, id: u64, value: T) {
        let mut value = Some(value);
        let mut callback = None;
        {
            let mut slots = self.slots.lock();
            if matches!(slots.map.get(&id), Some(Slot::Callback(_))) {
                if let Some(Slot::Callback(cb)) = slots.map.remove(&id) {
                    callback = Some(cb);
                }
            } else {
                let known = slots.map.contains_key(&id);
                if known || self.store_unregistered {
                    if !matches!(slots.map.get(&id), Some(Slot::Ready(..))) {
                        slots.fulfilled += 1;
                    }
                    let v = value.take().expect("value present");
                    slots.map.insert(id, Slot::Ready(v, self.clock.now()));
                    self.cv.notify_all();
                }
            }
            // Sweep abandoned (fulfilled, never-claimed) slots — but only
            // when enough have accumulated and not more often than ttl/4,
            // so steady traffic never pays an O(n) scan per completion.
            if let Some(ttl) = self.ttl {
                if slots.fulfilled > SWEEP_THRESHOLD {
                    let now = self.clock.now();
                    if now.saturating_duration_since(slots.last_sweep) >= ttl / 4 {
                        Self::sweep_slots(&mut slots, ttl, now);
                    }
                }
            }
        }
        // Invoked outside the lock: the callback may do arbitrary work
        // (encode + fabric send) and must not hold up other completions.
        if let Some(cb) = callback {
            cb(value.take().expect("value present"));
        }
    }

    /// Take a fulfilled value without blocking.
    pub fn try_take(&self, id: u64) -> Option<T> {
        let mut slots = self.slots.lock();
        if matches!(slots.map.get(&id), Some(Slot::Ready(..))) {
            slots.fulfilled = slots.fulfilled.saturating_sub(1);
            match slots.map.remove(&id) {
                Some(Slot::Ready(v, _)) => return Some(v),
                _ => unreachable!("checked Ready above"),
            }
        }
        None
    }

    /// Block up to `timeout` for a value. On timeout, non-storing maps
    /// abandon the slot (a late value is dropped, not leaked);
    /// store-unregistered maps keep it so a later wait or take still
    /// succeeds. A non-storing map answers `None` at once for an id it
    /// does not track: nothing can ever fulfil it.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots.lock();
        loop {
            match slots.map.get(&id) {
                Some(Slot::Ready(..)) => {
                    slots.fulfilled = slots.fulfilled.saturating_sub(1);
                    match slots.map.remove(&id) {
                        Some(Slot::Ready(v, _)) => return Some(v),
                        _ => unreachable!("checked Ready above"),
                    }
                }
                None if !self.store_unregistered => return None,
                _ => {}
            }
            let now = Instant::now();
            if now >= deadline {
                if !self.store_unregistered {
                    slots.map.remove(&id);
                }
                return None;
            }
            self.cv.wait_for(&mut slots, deadline - now);
        }
    }

    /// Resolve every id still waiting — blocking or callback — with
    /// `make(id)`: what a dead connection owes the calls in flight on it.
    /// Callbacks run outside the map lock, as in [`PendingMap::fulfill`].
    pub fn fulfill_waiting(&self, make: impl Fn(u64) -> T) {
        let callbacks: Vec<(u64, PendingCallback<T>)> = {
            let mut slots = self.slots.lock();
            let Slots { map, fulfilled, .. } = &mut *slots;
            let now = self.clock.now();
            let mut callback_ids = Vec::new();
            for (id, slot) in map.iter_mut() {
                match slot {
                    Slot::Waiting => {
                        *slot = Slot::Ready(make(*id), now);
                        *fulfilled += 1;
                    }
                    Slot::Callback(_) => callback_ids.push(*id),
                    Slot::Ready(..) => {}
                }
            }
            self.cv.notify_all();
            callback_ids
                .into_iter()
                .filter_map(|id| match map.remove(&id) {
                    Some(Slot::Callback(cb)) => Some((id, cb)),
                    _ => None,
                })
                .collect()
        };
        for (id, cb) in callbacks {
            cb(make(id));
        }
    }

    /// Run the TTL sweep now (tests, shutdown): drops fulfilled slots older
    /// than the TTL. No-op on maps without one.
    pub fn sweep(&self) {
        if let Some(ttl) = self.ttl {
            Self::sweep_slots(&mut self.slots.lock(), ttl, self.clock.now());
        }
    }

    /// Slots currently tracked (waiting, fulfilled or callback).
    pub fn len(&self) -> usize {
        self.slots.lock().map.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sweep_slots(slots: &mut Slots<T>, ttl: Duration, now: Instant) {
        let stale = |at: &Instant| now.saturating_duration_since(*at) >= ttl;
        slots
            .map
            .retain(|_, slot| !matches!(slot, Slot::Ready(_, at) if stale(at)));
        slots.fulfilled = slots
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready(..)))
            .count();
        slots.last_sweep = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn store_unregistered_parks_early_results() {
        let m: PendingMap<u32> = PendingMap::new(true, None, Clock::real());
        m.fulfill(7, 70);
        assert_eq!(m.try_take(7), Some(70));
        assert_eq!(m.try_take(7), None, "taken once");
    }

    #[test]
    fn non_storing_drops_unregistered_results() {
        let m: PendingMap<u32> = PendingMap::new(false, None, Clock::real());
        m.fulfill(7, 70);
        assert_eq!(m.try_take(7), None);
        assert!(m.is_empty());
        // Registered ids are delivered.
        m.register(8);
        m.fulfill(8, 80);
        assert_eq!(m.try_take(8), Some(80));
    }

    #[test]
    fn wait_timeout_policies_differ() {
        let storing: PendingMap<u32> = PendingMap::new(true, None, Clock::real());
        storing.register(1);
        assert_eq!(storing.wait(1, Duration::from_millis(5)), None);
        // Slot survived the timeout: a late result still lands.
        storing.fulfill(1, 10);
        assert_eq!(storing.try_take(1), Some(10));

        let dropping: PendingMap<u32> = PendingMap::new(false, None, Clock::real());
        dropping.register(1);
        assert_eq!(dropping.wait(1, Duration::from_millis(5)), None);
        // Slot abandoned: the late result is dropped.
        dropping.fulfill(1, 10);
        assert_eq!(dropping.try_take(1), None);
    }

    #[test]
    fn non_storing_wait_on_an_untracked_id_answers_at_once() {
        let m: PendingMap<u32> = PendingMap::new(false, None, Clock::real());
        let t0 = Instant::now();
        assert_eq!(m.wait(1, Duration::from_secs(30)), None);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn fulfill_waiting_resolves_waiters_and_callbacks_but_not_ready_slots() {
        let m: PendingMap<u32> = PendingMap::new(false, None, Clock::real());
        m.register(1);
        m.register(2);
        m.fulfill(2, 20);
        let fired = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fired);
        m.register_callback(
            3,
            Box::new(move |v| {
                f.store(v, Ordering::Relaxed);
            }),
        );
        m.fulfill_waiting(|id| id as u32 * 100);
        assert_eq!(m.try_take(1), Some(100));
        assert_eq!(m.try_take(2), Some(20), "an answered id keeps its answer");
        assert_eq!(fired.load(Ordering::Relaxed), 300);
        assert!(m.is_empty());
    }

    #[test]
    fn callback_fires_once_from_fulfill() {
        let m: PendingMap<u32> = PendingMap::new(false, None, Clock::real());
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        m.register_callback(
            3,
            Box::new(move |v| {
                assert_eq!(v, 33);
                h.fetch_add(1, Ordering::Relaxed);
            }),
        );
        m.fulfill(3, 33);
        m.fulfill(3, 34); // second fulfilment has no slot to land in
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn callback_registered_after_parked_result_fires_immediately() {
        let m: PendingMap<u32> = PendingMap::new(true, None, Clock::real());
        m.fulfill(5, 55);
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        m.register_callback(
            5,
            Box::new(move |v| {
                assert_eq!(v, 55);
                h.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn blocking_waiter_wakes_on_fulfill() {
        let m: Arc<PendingMap<u32>> = Arc::new(PendingMap::new(true, None, Clock::real()));
        m.register(9);
        let (entered, waiting) = std::sync::mpsc::channel();
        let waiter = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                entered.send(()).unwrap();
                m.wait(9, Duration::from_secs(5))
            })
        };
        // The waiter is on its way into `wait` (or already parked there);
        // either way the value reaches it.
        waiting.recv().unwrap();
        m.fulfill(9, 99);
        assert_eq!(waiter.join().unwrap(), Some(99));
    }

    #[test]
    fn ttl_sweep_drops_only_stale_ready_slots() {
        let clock = Clock::manual();
        let ttl = Duration::from_secs(120);
        let m: PendingMap<u32> = PendingMap::new(false, Some(ttl), clock.clone());
        m.register(1); // waiting: must survive
        m.register_callback(2, Box::new(|_| {})); // callback: must survive
        m.register(3);
        m.fulfill(3, 30); // ready: sweepable once the TTL has passed
        clock.advance(ttl - Duration::from_millis(1));
        m.sweep();
        assert_eq!(m.len(), 3, "nothing is stale yet");
        clock.advance(Duration::from_millis(1));
        m.sweep();
        assert_eq!(m.len(), 2, "only the stale Ready slot is swept");
        assert_eq!(m.try_take(3), None);
    }
}
