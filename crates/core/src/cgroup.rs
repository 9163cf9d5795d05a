//! CPU isolation: the cgroup/CFS analogue (§3.1).
//!
//! "Each function is executed by a dedicated thread of a shared runtime
//! process. This thread is assigned to a cgroup with a share of CPU equal to
//! that of all Faaslets. The Linux CFS ensures that these threads are
//! scheduled with equal CPU time."
//!
//! The FVM charges fuel per instruction and calls
//! [`faasm_fvm::CpuController::acquire_slice`] at every slice boundary. A
//! [`CgroupCpu`] implements a CFS-style fairness rule over those boundaries:
//! each member tracks a virtual runtime (total fuel granted), and a member
//! may only take a new slice when its vruntime is within one slice of the
//! minimum vruntime among *runnable* members. Threads running ahead block on
//! a condvar until the laggards catch up, so co-located Faaslets progress at
//! equal rates regardless of how the OS schedules the underlying threads.
//!
//! Runnable means *running a call*: a Faaslet's share is created parked,
//! unparked for the duration of `Faaslet::run` and parked again while the
//! Faaslet sits idle in the warm pool — an idle Faaslet's frozen vruntime
//! must not stall its siblings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use faasm_fvm::{CpuController, Trap};
use parking_lot::{Condvar, Mutex};

#[derive(Debug, Default)]
struct GroupState {
    /// vruntime (fuel granted so far) per runnable member.
    runnable: HashMap<u64, u64>,
}

impl GroupState {
    /// Make `id` runnable at the current minimum vruntime (a newcomer must
    /// not be owed the group's entire history).
    fn admit(&mut self, id: u64) {
        let start = self.runnable.values().min().copied().unwrap_or(0);
        self.runnable.insert(id, start);
    }
}

/// A CPU control group shared by the Faaslets of one runtime instance.
#[derive(Debug)]
pub struct CgroupCpu {
    state: Mutex<GroupState>,
    cond: Condvar,
    next_id: AtomicU64,
    /// Allowed lead over the slowest runnable member, in fuel units.
    tolerance: u64,
}

impl CgroupCpu {
    /// A group allowing members to lead by at most `tolerance` fuel units.
    pub fn new(tolerance: u64) -> Arc<CgroupCpu> {
        Arc::new(CgroupCpu {
            state: Mutex::new(GroupState::default()),
            cond: Condvar::new(),
            next_id: AtomicU64::new(1),
            tolerance: tolerance.max(1),
        })
    }

    /// Join the group as a runnable member.
    pub fn join(self: &Arc<CgroupCpu>) -> CgroupShare {
        let share = self.join_parked();
        share.unpark();
        share
    }

    /// Join the group parked: a member that constrains nobody until its
    /// first [`CgroupShare::unpark`].
    pub fn join_parked(self: &Arc<CgroupCpu>) -> CgroupShare {
        CgroupShare {
            group: Arc::clone(self),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of runnable members.
    pub fn runnable(&self) -> usize {
        self.state.lock().runnable.len()
    }

    /// Apply a membership change and wake the waiters it may unblock (the
    /// condvar makes no wake-up call when nobody waits, as on nearly every
    /// call).
    fn update(&self, change: impl FnOnce(&mut GroupState)) {
        change(&mut self.state.lock());
        self.cond.notify_all();
    }

    /// Leaving and parking are the same thing to the group: the member stops
    /// being runnable.
    fn park(&self, id: u64) {
        self.update(|s| {
            s.runnable.remove(&id);
        });
    }

    fn unpark(&self, id: u64) {
        self.update(|s| s.admit(id));
    }

    fn acquire(&self, id: u64, slice: u64) -> Result<(), Trap> {
        let mut s = self.state.lock();
        // A parked member runs unconstrained; this only happens through
        // misuse, so it fails safe toward progress.
        let Some(v) = s.runnable.get(&id).copied() else {
            return Ok(());
        };
        let new_v = v + slice;
        s.runnable.insert(id, new_v);
        loop {
            let min = s.runnable.values().min().copied().unwrap_or(new_v);
            if new_v <= min + self.tolerance {
                break;
            }
            self.cond.wait(&mut s);
        }
        // Our own progression may unblock siblings when we were the minimum.
        drop(s);
        self.cond.notify_all();
        Ok(())
    }
}

/// One Faaslet's membership in a [`CgroupCpu`].
#[derive(Debug)]
pub struct CgroupShare {
    group: Arc<CgroupCpu>,
    id: u64,
}

impl CgroupShare {
    /// Mark this member not-runnable (its call is over, or it is blocking on
    /// I/O or `await_call`) so it does not hold back the rest of the group.
    pub fn park(&self) {
        self.group.park(self.id);
    }

    /// Mark runnable: a call starts, or resumes after a park.
    pub fn unpark(&self) {
        self.group.unpark(self.id);
    }
}

impl CpuController for CgroupShare {
    fn acquire_slice(&self, slice: u64) -> Result<(), Trap> {
        self.group.acquire(self.id, slice)
    }
}

impl Drop for CgroupShare {
    fn drop(&mut self) {
        self.group.park(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_member_never_blocks() {
        let g = CgroupCpu::new(100);
        let m = g.join();
        for _ in 0..1000 {
            m.acquire_slice(10).unwrap();
        }
        assert_eq!(g.runnable(), 1);
        drop(m);
        assert_eq!(g.runnable(), 0);
    }

    #[test]
    fn members_progress_in_lockstep() {
        let g = CgroupCpu::new(64);
        let a = Arc::new(g.join());
        let b = Arc::new(g.join());
        let progress_a = Arc::new(AtomicU64::new(0));
        let progress_b = Arc::new(AtomicU64::new(0));

        let (pa, pb) = (Arc::clone(&progress_a), Arc::clone(&progress_b));
        let (aa, bb) = (Arc::clone(&a), Arc::clone(&b));
        let ta = std::thread::spawn(move || {
            for _ in 0..200 {
                aa.acquire_slice(64).unwrap();
                pa.fetch_add(64, Ordering::SeqCst);
            }
        });
        let tb = std::thread::spawn(move || {
            for _ in 0..200 {
                bb.acquire_slice(64).unwrap();
                pb.fetch_add(64, Ordering::SeqCst);
                // B is artificially slow: it gives its core away between
                // slices.
                for _ in 0..50 {
                    std::thread::yield_now();
                }
            }
        });
        // While both run, A cannot lead B by more than tolerance + slice.
        for _ in 0..50 {
            let da = progress_a.load(Ordering::SeqCst) as i64;
            let db = progress_b.load(Ordering::SeqCst) as i64;
            assert!(
                (da - db).abs() <= 64 * 3,
                "fuel divergence too large: a={da} b={db}"
            );
            std::thread::yield_now();
        }
        ta.join().unwrap();
        tb.join().unwrap();
    }

    #[test]
    fn parked_member_does_not_block_group() {
        let g = CgroupCpu::new(10);
        let a = g.join();
        let b = g.join();
        // B parks (blocked on await); A must be free to run far ahead.
        b.park();
        for _ in 0..100 {
            a.acquire_slice(10).unwrap();
        }
        b.unpark();
        // B rejoins at current minimum, so neither side deadlocks.
        b.acquire_slice(10).unwrap();
        a.acquire_slice(10).unwrap();
    }

    #[test]
    fn a_member_joined_parked_holds_nobody_back_until_it_runs() {
        let g = CgroupCpu::new(10);
        let a = g.join();
        let idle = g.join_parked();
        assert_eq!(g.runnable(), 1);
        // Far past the tolerance: the idle member is not in the way.
        for _ in 0..100 {
            a.acquire_slice(10).unwrap();
        }
        // Once it runs it starts at the group's minimum, owed nothing, and
        // is held to the tolerance like everyone else.
        idle.unpark();
        assert_eq!(g.runnable(), 2);
        idle.acquire_slice(10).unwrap();
        a.acquire_slice(10).unwrap();
        idle.park();
        assert_eq!(g.runnable(), 1);
        drop(idle);
        drop(a);
        assert_eq!(g.runnable(), 0);
    }

    #[test]
    fn leaving_unblocks_waiters() {
        let g = CgroupCpu::new(10);
        let a = g.join();
        let b = g.join();
        let t = std::thread::spawn(move || {
            // Run far ahead; will block on b's vruntime.
            for _ in 0..50 {
                a.acquire_slice(10).unwrap();
            }
        });
        // A has run its tolerance ahead of B and waits on B's vruntime: it
        // took the slice past it under the lock it waits with.
        let lead = |s: &GroupState| {
            let v = || s.runnable.values().copied();
            v().max().unwrap_or(0) - v().min().unwrap_or(0)
        };
        while lead(&g.state.lock()) <= 10 {
            std::thread::yield_now();
        }
        drop(b); // leave the group
        t.join().unwrap();
    }
}
