//! The closed-loop load generator: one thread keeps a fixed window of
//! requests outstanding, submitting and waiting in order.
//!
//! Closed, not open: on this 2-core box an open-loop schedule through the
//! same path did not repeat (p50 98 / 270 / 273 us over three 8 s runs at
//! 2 000 req/s) while a closed loop at window 8 repeated within 2 %; see
//! README.md.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::spans::{Span, Spans};
use crate::stats::{median, percentile};

/// The generator is one thread over one connection; both counts must fit
/// the cores the box has, so the client never competes with itself.
pub const GENERATOR_THREADS: usize = 1;

/// Above this share of a window spent inside `submit`, the numbers would
/// measure the client and not the program: the run fails.
pub const MAX_CLIENT_BUSY_SHARE: f64 = 0.8;

/// How one request ended. Anything but `Ok` counts as failed; `Shed` is
/// kept apart so `fail_share` has its cause beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Ok` status and the expected output.
    Ok,
    /// Wrong output, an error status or a transport failure.
    Failed,
    /// Refused by admission control or expired in the queue.
    Shed,
}

/// What a workload plugs into the loop.
pub trait Driver {
    type Ticket;

    /// Send request number `i` without waiting for it; returns its ticket
    /// and its op type (the request span's name).
    fn submit(&mut self, i: u64) -> (Self::Ticket, &'static str);

    /// Block until the request completes and check its output.
    fn complete(&mut self, ticket: Self::Ticket) -> Verdict;
}

/// One `Ok` request: its op, its latency from just before `submit` to
/// just after `complete` returned, and the slice it completed in.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: &'static str,
    pub latency_ns: u64,
    pub slice: usize,
}

/// One timed phase: its accounting and a sample per `Ok` request.
///
/// The phase is cut into `slices` slices of `slice_s` seconds, and a rate or
/// a percentile is the median of its per-slice values: another tenant of
/// the box taking a core for a second or two spoils the slices it overlaps
/// and leaves the reported number where it was.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: &'static str,
    pub window: usize,
    pub elapsed_s: f64,
    pub slice_s: f64,
    pub slices: usize,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub shed: u64,
    /// Share of `elapsed_s` the generator thread spent inside `submit`.
    pub client_busy_share: f64,
    pub samples: Vec<Sample>,
}

impl Phase {
    /// A phase of about `secs` seconds cut into `slices` slices.
    pub fn new(name: &'static str, window: usize, secs: f64, slices: usize) -> Phase {
        Phase {
            name,
            window,
            slice_s: secs / slices as f64,
            slices,
            ..Phase::default()
        }
    }

    /// One phase out of blocks of it that ran at different times, each
    /// block one slice. Two phases run as alternating blocks see the same
    /// stretch of wall clock, and so the same states of the box, where one
    /// after the other each would see its own half.
    pub fn from_blocks(blocks: Vec<Phase>) -> Phase {
        let first = &blocks[0];
        let mut phase = Phase::new(
            first.name,
            first.window,
            first.slice_s * blocks.len() as f64,
            blocks.len(),
        );
        let mut busy_s = 0.0;
        for (k, block) in blocks.into_iter().enumerate() {
            phase.elapsed_s += block.elapsed_s;
            busy_s += block.client_busy_share * block.elapsed_s;
            phase.sent += block.sent;
            phase.ok += block.ok;
            phase.failed += block.failed;
            phase.shed += block.shed;
            // A block's drain completes past its one slice and stays out
            // of per-slice statistics, as a continuous phase's does.
            phase
                .samples
                .extend(block.samples.into_iter().map(|s| Sample {
                    slice: if s.slice == 0 { k } else { usize::MAX },
                    ..s
                }));
        }
        phase.client_busy_share = busy_s / phase.elapsed_s;
        phase
    }

    pub fn count(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Ok => self.ok += 1,
            Verdict::Failed => self.failed += 1,
            Verdict::Shed => {
                self.failed += 1;
                self.shed += 1;
            }
        }
    }

    /// Record an `Ok` request that completed `at_s` seconds into the phase.
    pub fn sample(&mut self, op: &'static str, latency_ns: u64, at_s: f64) {
        self.samples.push(Sample {
            op,
            latency_ns,
            slice: (at_s / self.slice_s) as usize,
        });
    }

    /// Slices that lie wholly inside the phase: the last, partial one and
    /// the drain after it are left out of per-slice statistics.
    fn whole_slices(&self) -> usize {
        ((self.elapsed_s / self.slice_s) as usize).clamp(1, self.slices)
    }

    /// Correct completions per second in each whole slice.
    pub fn slice_rps(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.whole_slices()];
        for s in &self.samples {
            if let Some(count) = counts.get_mut(s.slice) {
                *count += 1.0;
            }
        }
        counts.iter_mut().for_each(|count| *count /= self.slice_s);
        counts
    }

    /// Correct completions per second: the median over the slices.
    pub fn rps(&self) -> f64 {
        median(&mut self.slice_rps())
    }

    /// The `p`-th latency percentile, in ms, of the ops named `op` (all
    /// ops for `None`): the median over the slices that saw such an op.
    pub fn percentile_ms(&self, op: Option<&str>, p: f64) -> f64 {
        let mut slices = vec![Vec::new(); self.whole_slices()];
        for s in &self.samples {
            if op.is_none_or(|op| s.op == op) {
                if let Some(slice) = slices.get_mut(s.slice) {
                    slice.push(s.latency_ns);
                }
            }
        }
        let mut per_slice: Vec<f64> = slices
            .iter_mut()
            .filter(|slice| !slice.is_empty())
            .map(|slice| percentile(slice, p) as f64 / 1e6)
            .collect();
        median(&mut per_slice)
    }
}

/// When a phase stops submitting: timed phases run for a time, warm-up
/// sends a count (so set-up time is work done, not a constant).
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    For(Duration),
    Calls(u64),
}

/// Run `driver` closed-loop at `window` outstanding requests up to `limit`,
/// then drain. With spans on, the phase is a root span, each request a
/// child of it, and each request's `submit` and `wait` children of that.
pub fn closed_loop<D: Driver>(
    name: &'static str,
    driver: &mut D,
    window: usize,
    limit: Limit,
    slices: usize,
    spans: &mut Spans,
) -> Phase {
    struct Outstanding<T> {
        ticket: T,
        op: &'static str,
        submitted: Instant,
        span: u64,
        start_ns: u64,
    }
    let secs = match limit {
        Limit::For(dur) => dur.as_secs_f64(),
        Limit::Calls(_) => f64::INFINITY,
    };
    let mut phase = Phase::new(name, window, secs, slices);
    let phase_span = spans.next_id();
    let phase_start_ns = spans.now_ns();
    let mut outstanding: VecDeque<Outstanding<D::Ticket>> = VecDeque::with_capacity(window);
    let mut busy = Duration::ZERO;
    let start = Instant::now();
    loop {
        let now = Instant::now();
        let open = match limit {
            Limit::For(dur) => now - start < dur,
            Limit::Calls(calls) => phase.sent < calls,
        };
        if open && outstanding.len() < window {
            let start_ns = spans.now_ns();
            let (ticket, op) = driver.submit(phase.sent);
            busy += now.elapsed();
            let span = spans.next_id();
            if spans.enabled() {
                spans.record(span, span, "submit", start_ns);
            }
            outstanding.push_back(Outstanding {
                ticket,
                op,
                submitted: now,
                span,
                start_ns,
            });
            phase.sent += 1;
        } else if let Some(req) = outstanding.pop_front() {
            let wait_ns = spans.now_ns();
            let verdict = driver.complete(req.ticket);
            let latency = req.submitted.elapsed();
            phase.count(verdict);
            if verdict == Verdict::Ok {
                let at_s = (req.submitted + latency - start).as_secs_f64();
                phase.sample(req.op, latency.as_nanos() as u64, at_s);
            }
            if spans.enabled() {
                spans.record(req.span, req.span, "wait", wait_ns);
                let end_ns = spans.now_ns();
                spans.push(Span {
                    id: req.span,
                    trace: req.span,
                    parent: phase_span,
                    name: req.op,
                    start_ns: req.start_ns,
                    end_ns,
                });
            }
        } else {
            break;
        }
    }
    let elapsed = start.elapsed();
    phase.elapsed_s = elapsed.as_secs_f64();
    phase.client_busy_share = busy.as_secs_f64() / phase.elapsed_s;
    let end_ns = spans.now_ns();
    spans.push(Span {
        id: phase_span,
        trace: phase_span,
        parent: 0,
        name,
        start_ns: phase_start_ns,
        end_ns,
    });
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes instantly; fails every tenth request and sheds every
    /// seventh, and checks the window is respected.
    struct Fake {
        in_flight: usize,
        max_in_flight: usize,
    }

    impl Driver for Fake {
        type Ticket = u64;

        fn submit(&mut self, i: u64) -> (u64, &'static str) {
            self.in_flight += 1;
            self.max_in_flight = self.max_in_flight.max(self.in_flight);
            (i, if i.is_multiple_of(2) { "even" } else { "odd" })
        }

        fn complete(&mut self, i: u64) -> Verdict {
            self.in_flight -= 1;
            match i {
                i if i % 10 == 9 => Verdict::Failed,
                i if i % 7 == 6 => Verdict::Shed,
                _ => Verdict::Ok,
            }
        }
    }

    #[test]
    fn a_spoiled_slice_does_not_move_the_medians() {
        let mut phase = Phase::new("t", 1, 5.0, 5);
        phase.elapsed_s = 5.5;
        // Five whole slices of 100 requests at 1 ms; in the third, half the
        // requests are lost and the rest take 50 ms. The partial sixth
        // slice and the drain are ignored.
        for slice in 0..5 {
            let (n, latency) = if slice == 2 {
                (50, 50_000_000)
            } else {
                (100, 1_000_000)
            };
            for i in 0..n {
                phase.sample("op", latency, slice as f64 + i as f64 / 100.0);
            }
        }
        phase.sample("op", 900_000_000, 5.2);
        phase.sample("op", 900_000_000, 7.0);
        assert_eq!(phase.rps(), 100.0);
        assert_eq!(phase.percentile_ms(None, 50.0), 1.0);
        assert_eq!(phase.percentile_ms(Some("op"), 99.0), 1.0);
        assert_eq!(phase.percentile_ms(Some("other"), 50.0), 0.0);
    }

    #[test]
    fn blocks_become_slices_and_their_drains_are_left_out() {
        let block = |n: u64| {
            let mut b = Phase::new("lat", 8, 1.0, 1);
            (b.elapsed_s, b.client_busy_share) = (1.1, 0.5);
            (b.sent, b.ok) = (n + 1, n + 1);
            for i in 0..n {
                b.sample("op", 1_000_000, i as f64 / n as f64);
            }
            b.sample("op", 9_000_000, 1.05);
            b
        };
        let phase = Phase::from_blocks(vec![block(100), block(300), block(200)]);
        assert_eq!(phase.slice_rps(), vec![100.0, 300.0, 200.0]);
        assert_eq!(phase.rps(), 200.0);
        assert_eq!(phase.percentile_ms(None, 100.0), 1.0);
        assert_eq!((phase.sent, phase.ok, phase.samples.len()), (603, 603, 603));
        assert!((phase.elapsed_s - 3.3).abs() < 1e-9);
        assert!((phase.client_busy_share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn window_is_held_and_every_request_is_accounted_for() {
        let mut fake = Fake {
            in_flight: 0,
            max_in_flight: 0,
        };
        // A count of calls, not a time: no assertion here may depend on
        // how long the test thread was descheduled.
        let mut spans = Spans::new(true);
        let phase = closed_loop("t", &mut fake, 8, Limit::Calls(1000), 1, &mut spans);
        assert_eq!(fake.max_in_flight, 8);
        assert_eq!(fake.in_flight, 0, "drained");
        assert_eq!(phase.sent, 1000);
        assert_eq!(phase.sent, phase.ok + phase.failed);
        assert_eq!((phase.failed, phase.shed), (228, 128));
        assert_eq!(phase.samples.len() as u64, phase.ok);
        assert!(phase.client_busy_share > 0.0 && phase.client_busy_share <= 1.0);
        assert!(phase.percentile_ms(Some("odd"), 50.0) > 0.0);
        assert!(phase.percentile_ms(None, 99.0) >= phase.percentile_ms(None, 50.0));

        // A timed phase stops submitting, drains, and lands every sample
        // in a slice or past the last one.
        let timed = closed_loop(
            "timed",
            &mut fake,
            8,
            Limit::For(Duration::from_millis(20)),
            4,
            &mut Spans::new(false),
        );
        assert_eq!(fake.in_flight, 0, "drained");
        assert!(timed.sent > 8 && timed.elapsed_s >= 0.02);
        assert_eq!(timed.slice_rps().len(), 4);
        let in_slices: f64 = timed.slice_rps().iter().sum::<f64>() * timed.slice_s;
        assert!(in_slices.round() as u64 <= timed.ok);

        // One root (the phase); every other span has a parent that exists.
        let spans = spans.into_spans();
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(spans.iter().filter(|s| s.parent == 0).count(), 1);
        assert!(spans
            .iter()
            .all(|s| s.parent == 0 || ids.contains(&s.parent)));
        assert_eq!(spans.len() as u64, 1 + 3 * phase.sent);
    }
}
