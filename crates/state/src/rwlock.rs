//! A readers-writer lock with explicit lock/unlock operations.
//!
//! The host interface exposes `lock_state_read` / `unlock_state_read` as
//! separate calls (Tab. 2), so guard-based locks cannot model it — the lock
//! and unlock happen in different host-call activations. This lock keeps the
//! count-based state explicit and panics on misuse only in debug builds;
//! in release it saturates safely.
//!
//! The whole lock state is one atomic word, so an uncontended lock/unlock
//! pair is two atomic read-modify-writes and no syscall. The mutex and
//! condvar exist only for parking: a locker touches them after a short
//! bounded spin has failed, an unlocker only when the waiter count says
//! somebody is (or is about to be) parked.
//!
//! Every access to `word` and `waiters` is `SeqCst`. That is what rules out
//! a lost wake-up: a waiter publishes itself in `waiters` *before* its
//! re-check of `word`, an unlocker releases `word` *before* it reads
//! `waiters`, and in a single total order at least one of them sees the
//! other.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};

use parking_lot::{Condvar, Mutex};

/// Bit 0 of the lock word: a writer holds the lock.
const WRITER: usize = 1;
/// One reader in the lock word (the count lives in the bits above
/// [`WRITER`]). A writer and readers never hold the word together.
const READER: usize = 2;
/// Failed attempts before a locker parks. Critical sections under this
/// lock are one bounded memory copy, so a holder that is running is
/// usually gone within a few of these; a holder that is not (an explicit
/// `lock_state_write` across host calls, a descheduled thread) costs the
/// waiter this many spins and then a park.
const SPINS: u32 = 64;

/// An explicit (guard-free) readers-writer lock.
#[derive(Debug, Default)]
pub struct SyncRwLock {
    word: AtomicUsize,
    /// Threads inside the park path: registered before their last re-check
    /// of `word`, deregistered once they hold the lock.
    waiters: AtomicUsize,
    /// Times a locker gave up spinning and took the park path (a
    /// statistic; publishes nothing).
    parks: AtomicU64,
    park: Mutex<()>,
    cond: Condvar,
}

impl SyncRwLock {
    /// A new unlocked lock.
    pub fn new() -> SyncRwLock {
        SyncRwLock::default()
    }

    fn try_read(&self) -> bool {
        let mut s = self.word.load(SeqCst);
        while s & WRITER == 0 {
            match self
                .word
                .compare_exchange_weak(s, s + READER, SeqCst, SeqCst)
            {
                Ok(_) => return true,
                Err(now) => s = now,
            }
        }
        false
    }

    fn try_write(&self) -> bool {
        self.word.load(SeqCst) == 0
            && self
                .word
                .compare_exchange(0, WRITER, SeqCst, SeqCst)
                .is_ok()
    }

    /// Spin briefly, then park until `try_lock` succeeds.
    #[cold]
    fn lock_contended(&self, try_lock: impl Fn(&Self) -> bool) {
        for _ in 0..SPINS {
            std::hint::spin_loop();
            if try_lock(self) {
                return;
            }
        }
        self.parks.fetch_add(1, Relaxed);
        // The park mutex is held from registration to `wait`, so an
        // unlocker that saw this waiter registered cannot notify in the
        // gap between the failed re-check and the wait.
        let mut parked = self.park.lock();
        self.waiters.fetch_add(1, SeqCst);
        while !try_lock(self) {
            self.cond.wait(&mut parked);
        }
        self.waiters.fetch_sub(1, SeqCst);
    }

    /// The contended wake: runs after every release that could admit a
    /// waiter, and reaches the mutex and condvar only if one is registered.
    fn wake_waiters(&self) {
        if self.waiters.load(SeqCst) != 0 {
            drop(self.park.lock());
            self.cond.notify_all();
        }
    }

    /// Acquire a shared read lock, blocking while a writer holds the lock.
    pub fn lock_read(&self) {
        if !self.try_read() {
            self.lock_contended(Self::try_read);
        }
    }

    /// Release a read lock.
    pub fn unlock_read(&self) {
        let prev = self
            .word
            .fetch_update(SeqCst, SeqCst, |s| s.checked_sub(READER));
        debug_assert!(prev.is_ok(), "unlock_read without lock_read");
        // Only a writer waits on readers, and only the last one out admits it.
        if prev == Ok(READER) {
            self.wake_waiters();
        }
    }

    /// Acquire the exclusive write lock, blocking while readers or another
    /// writer hold the lock.
    pub fn lock_write(&self) {
        if !self.try_write() {
            self.lock_contended(Self::try_write);
        }
    }

    /// Release the write lock.
    pub fn unlock_write(&self) {
        let prev = self.word.fetch_and(!WRITER, SeqCst);
        debug_assert!(prev & WRITER != 0, "unlock_write without lock_write");
        if prev & WRITER != 0 {
            self.wake_waiters();
        }
    }

    /// Threads currently parked (or committed to parking) on this lock.
    pub fn waiters(&self) -> usize {
        self.waiters.load(SeqCst)
    }

    /// How many times a locker has given up spinning and parked.
    pub fn parks(&self) -> u64 {
        self.parks.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn readers_share() {
        let l = SyncRwLock::new();
        l.lock_read();
        l.lock_read();
        l.unlock_read();
        l.unlock_read();
    }

    /// Block until `n` threads are parked on `l`: the lock's own waiter
    /// count is the proof that the other thread reached its wait.
    fn await_waiters(l: &SyncRwLock, n: usize) {
        while l.waiters() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn writer_excludes_readers() {
        let l = Arc::new(SyncRwLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        l.lock_write();
        let l2 = Arc::clone(&l);
        let c2 = Arc::clone(&counter);
        let t = std::thread::spawn(move || {
            l2.lock_read();
            c2.store(1, Ordering::SeqCst);
            l2.unlock_read();
        });
        await_waiters(&l, 1);
        assert_eq!(counter.load(Ordering::SeqCst), 0, "reader must wait");
        l.unlock_write();
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn writer_waits_for_readers() {
        let l = Arc::new(SyncRwLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        l.lock_read();
        let l2 = Arc::clone(&l);
        let c2 = Arc::clone(&counter);
        let t = std::thread::spawn(move || {
            l2.lock_write();
            c2.store(1, Ordering::SeqCst);
            l2.unlock_write();
        });
        await_waiters(&l, 1);
        assert_eq!(counter.load(Ordering::SeqCst), 0, "writer must wait");
        l.unlock_read();
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn mutual_exclusion_of_writers() {
        let l = Arc::new(SyncRwLock::new());
        let shared = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..4 {
            let l = Arc::clone(&l);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    l.lock_write();
                    // Non-atomic read-modify-write protected by the lock.
                    let v = shared.load(Ordering::Relaxed);
                    std::hint::black_box(v);
                    shared.store(v + 1, Ordering::Relaxed);
                    l.unlock_write();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn uncontended_pairs_never_reach_the_park_path() {
        let l = SyncRwLock::new();
        for _ in 0..10_000 {
            l.lock_read();
            l.lock_read();
            l.unlock_read();
            l.unlock_read();
            l.lock_write();
            l.unlock_write();
        }
        assert_eq!(l.parks(), 0, "no waiter, so nobody parked");
        assert_eq!(l.waiters(), 0);
    }

    #[test]
    fn every_parked_waiter_is_woken_by_one_release() {
        let l = Arc::new(SyncRwLock::new());
        l.lock_write();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    l.lock_read();
                    l.unlock_read();
                })
            })
            .collect();
        let writer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.lock_write();
                l.unlock_write();
            })
        };
        await_waiters(&l, 4);
        assert_eq!(l.parks(), 4);
        l.unlock_write();
        for t in readers {
            t.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(l.waiters(), 0);
    }

    #[test]
    fn readers_and_writers_never_observe_a_torn_critical_section() {
        // Writers keep `a == b` outside their critical section and break it
        // inside; the accesses are Relaxed, so only the lock orders them.
        let l = Arc::new(SyncRwLock::new());
        let pair = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
        let start = Arc::new(std::sync::Barrier::new(6));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let (l, pair, start) = (Arc::clone(&l), Arc::clone(&pair), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..2_000 {
                        l.lock_write();
                        let v = pair.0.load(Ordering::Relaxed);
                        pair.0.store(v + 1, Ordering::Relaxed);
                        std::hint::spin_loop();
                        assert_eq!(pair.1.load(Ordering::Relaxed), v, "two writers inside");
                        pair.1.store(v + 1, Ordering::Relaxed);
                        l.unlock_write();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (l, pair, start) = (Arc::clone(&l), Arc::clone(&pair), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..2_000 {
                        l.lock_read();
                        let a = pair.0.load(Ordering::Relaxed);
                        let b = pair.1.load(Ordering::Relaxed);
                        l.unlock_read();
                        assert_eq!(a, b, "reader saw a writer mid-update");
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert_eq!(pair.0.load(Ordering::Relaxed), 4_000);
        assert_eq!(pair.1.load(Ordering::Relaxed), 4_000);
        assert_eq!(l.waiters(), 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn unlock_without_lock_saturates() {
        let l = SyncRwLock::new();
        l.unlock_read();
        l.unlock_write();
        // Still a working, unlocked lock: a writer needs the word at zero.
        l.lock_write();
        l.unlock_write();
        l.lock_read();
        l.unlock_write();
        l.unlock_read();
        assert_eq!(l.parks(), 0);
    }
}
