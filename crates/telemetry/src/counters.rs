//! Stat sets: every counter in the system is declared once, with
//! [`counters!`](crate::counters), and read through one call.
//!
//! A declaration lists documented field names. From that one list the macro
//! yields the live struct (a relaxed [`Counter`] per field, optionally
//! [`Hist`](crate::Hist) members), a getter per field, the `Copy + Default`
//! snapshot struct with the same public fields, `snapshot()`, `merge`,
//! `delta` and `row()` — the set as `(name, value)` pairs, which is what a
//! [`Telemetry`] snapshot is made of. Recording stays a relaxed add on a
//! struct field (`stats.hits.inc()`); names exist only on the read side.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{HistSnapshot, Recorder, SpanKind};

/// One monotonic counter. Relaxed: a statistic publishes no other data.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declare a stat set: `struct Live => Snapshot { counters }`, then
/// optionally `hists { .. }` (live [`Hist`](crate::Hist) members,
/// [`HistSnapshot`] in the snapshot) and `gauges { .. }` (snapshot-only
/// fields the owner fills in at report time — sizes, epochs; `merge` sums
/// them, `delta` keeps the later reading). Every name is written here and
/// nowhere else; see the module docs for what is generated.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $live:ident => $snap:ident {
            $( $(#[$cmeta:meta])* $counter:ident, )*
        }
        $( hists { $( $(#[$hmeta:meta])* $hist:ident, )* } )?
        $( gauges { $( $(#[$gmeta:meta])* $gauge:ident, )* } )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $live {
            $( $(#[$cmeta])* pub $counter: $crate::Counter, )*
            $($( $(#[$hmeta])* pub $hist: $crate::Hist, )*)?
        }

        impl $live {
            /// A zeroed set.
            pub fn new() -> $live {
                $live::default()
            }

            $( $(#[$cmeta])* pub fn $counter(&self) -> u64 { self.$counter.get() } )*

            /// A point-in-time copy of every member, taken in one pass:
            /// tables and exports read this, never getter by getter (those
            /// race with recording and can tabulate different instants).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $counter: self.$counter.get(), )*
                    $($( $hist: self.$hist.snapshot(), )*)?
                    $($( $gauge: 0, )*)?
                }
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $( $(#[$cmeta])* pub $counter: u64, )*
            $($( $(#[$hmeta])* pub $hist: $crate::HistSnapshot, )*)?
            $($( $(#[$gmeta])* pub $gauge: u64, )*)?
        }

        impl $snap {
            /// Add `other` in, field by field (aggregation over instances).
            pub fn merge(&mut self, other: &$snap) {
                $( self.$counter += other.$counter; )*
                $($( self.$hist.merge(&other.$hist); )*)?
                $($( self.$gauge += other.$gauge; )*)?
            }

            /// What was recorded between `earlier` and `self`.
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $counter: self.$counter - earlier.$counter, )*
                    $($( $hist: self.$hist.delta(&earlier.$hist), )*)?
                    $($( $gauge: self.$gauge, )*)?
                }
            }

            /// This set as one row of a `Telemetry` snapshot: every member
            /// under its declared name.
            pub fn row(&self, tier: &'static str, slot: usize) -> $crate::SetRow {
                $crate::SetRow {
                    tier,
                    slot,
                    counters: vec![ $( (stringify!($counter), self.$counter), )* ],
                    hists: vec![ $($( (stringify!($hist), self.$hist), )*)? ],
                    gauges: vec![ $($( (stringify!($gauge), self.$gauge), )*)? ],
                }
            }
        }
    };
}

/// One stat-set instance inside a [`Telemetry`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetRow {
    /// Which set (see the README's stat-set table).
    pub tier: &'static str,
    /// Which instance of it: the host index or the shard slot.
    pub slot: usize,
    /// `(declared name, value)` per counter, in declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(declared name, snapshot)` per histogram member.
    pub hists: Vec<(&'static str, HistSnapshot)>,
    /// `(declared name, reading)` per gauge.
    pub gauges: Vec<(&'static str, u64)>,
}

impl SetRow {
    /// The counter or gauge called `name`.
    ///
    /// # Panics
    ///
    /// When the set declares no such member: names are static
    /// declarations, so that is a typo, not a condition.
    pub fn get(&self, name: &str) -> u64 {
        let members = &mut self.counters.iter().chain(&self.gauges);
        match members.find(|(n, _)| *n == name) {
            Some((_, v)) => *v,
            None => panic!("stat set {:?} declares no {name:?}", self.tier),
        }
    }

    fn delta(&self, earlier: &SetRow) -> SetRow {
        let (mut counters, mut hists) = (self.counters.clone(), self.hists.clone());
        for ((_, now), (_, then)) in counters.iter_mut().zip(&earlier.counters) {
            *now -= then;
        }
        for ((_, now), (_, then)) in hists.iter_mut().zip(&earlier.hists) {
            *now = now.delta(then);
        }
        SetRow {
            counters,
            hists,
            ..self.clone()
        }
    }
}

/// Every stat set of one cluster plus its recorder's span histograms, read
/// in one pass. Both belong to the cluster they were read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// One row per stat-set instance.
    pub sets: Vec<SetRow>,
    /// `(span kind, histogram)` for every kind with a sample.
    pub spans: Vec<(SpanKind, HistSnapshot)>,
}

impl Telemetry {
    /// `sets` plus `recorder`'s span histograms as of now.
    pub fn capture(sets: Vec<SetRow>, recorder: &Recorder) -> Telemetry {
        let spans = SpanKind::ALL
            .iter()
            .map(|&kind| (kind, recorder.hist(kind).snapshot()))
            .filter(|(_, h)| h.count > 0)
            .collect();
        Telemetry { sets, spans }
    }

    /// The rows of one set, one per instance.
    pub fn rows<'a>(&'a self, tier: &'a str) -> impl Iterator<Item = &'a SetRow> {
        self.sets.iter().filter(move |r| r.tier == tier)
    }

    /// Counter (or gauge) `name` of set `tier`, summed over its instances;
    /// 0 when the cluster has no instance of the set (a cluster without
    /// caches has no `kvs-cache` rows). Panics as [`SetRow::get`] does.
    pub fn get(&self, tier: &str, name: &str) -> u64 {
        self.rows(tier).map(|row| row.get(name)).sum()
    }

    /// Every histogram as `(tier, name, histogram)`: the span kinds under
    /// tier `"span"` (named by [`SpanKind::as_str`]), then the stat sets'
    /// histogram members.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &str, &HistSnapshot)> {
        let spans = self.spans.iter().map(|(k, h)| ("span", k.as_str(), h));
        let members = self.sets.iter().flat_map(|row| {
            let of_row = row.hists.iter();
            of_row.map(move |(name, h)| (row.tier, *name, h))
        });
        spans.chain(members)
    }

    /// The histogram `name` of `tier` — a span kind of tier `"span"` or a
    /// member of that stat set — merged over instances.
    pub fn hist(&self, tier: &str, name: &str) -> HistSnapshot {
        let mut merged = HistSnapshot::default();
        for (_, _, h) in self.hists().filter(|h| (h.0, h.1) == (tier, name)) {
            merged.merge(h);
        }
        merged
    }

    /// What was recorded between `earlier` and `self`. A row or span
    /// histogram `earlier` lacks (a shard that joined since) is kept whole.
    pub fn delta(&self, earlier: &Telemetry) -> Telemetry {
        let sets = self.sets.iter().map(|row| {
            let same = |e: &&SetRow| (e.tier, e.slot) == (row.tier, row.slot);
            earlier
                .sets
                .iter()
                .find(same)
                .map_or_else(|| row.clone(), |then| row.delta(then))
        });
        let spans = self.spans.iter().map(|&(kind, now)| {
            let then = earlier.spans.iter().find(|e| e.0 == kind);
            (kind, then.map_or(now, |then| now.delta(&then.1)))
        });
        Telemetry {
            sets: sets.collect(),
            spans: spans.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hist;

    counters! {
        /// A set with one member of every kind.
        struct Demo => DemoSnapshot {
            /// Things done.
            done,
            /// Bytes moved.
            bytes,
        }
        hists {
            /// How long each took.
            took,
        }
        gauges {
            /// Things held right now.
            held,
        }
    }

    fn recorded(done: u64, bytes: u64, took: &[u64], held: u64) -> DemoSnapshot {
        let live = Demo::new();
        live.done.add(done);
        live.bytes.add(bytes);
        took.iter().for_each(|t| live.took.record(*t));
        assert_eq!((live.done(), live.bytes()), (done, bytes));
        DemoSnapshot {
            held,
            ..live.snapshot()
        }
    }

    #[test]
    fn a_row_lists_every_member_once_under_its_declared_name() {
        let row = recorded(1, 2, &[3], 4).row("demo", 7);
        assert_eq!((row.tier, row.slot), ("demo", 7));
        assert_eq!(row.counters, [("done", 1), ("bytes", 2)]);
        assert_eq!(row.gauges, [("held", 4)]);
        let members = row.counters.iter().chain(&row.gauges).map(|(n, _)| *n);
        let mut names: Vec<&str> = members.chain(row.hists.iter().map(|(n, _)| *n)).collect();
        names.sort_unstable();
        assert_eq!(names, ["bytes", "done", "held", "took"], "unique, complete");
    }

    #[test]
    fn delta_against_itself_is_zero_and_merge_adds_field_by_field() {
        let mut a = recorded(5, 600, &[10, 20, 30], 9);
        let zero = a.delta(&a);
        assert_eq!((zero.done, zero.bytes), (0, 0));
        assert_eq!((zero.took.count, zero.took.sum), (0, 0));
        assert!(zero.took.buckets.iter().all(|b| *b == 0));
        assert_eq!(zero.held, 9, "a gauge is a reading: delta keeps the later");
        a.merge(&recorded(2, 20, &[200, 300], 3));
        assert_eq!((a.done, a.bytes, a.held), (7, 620, 12));
        assert_eq!((a.took.count, a.took.sum), (5, 560));
        assert_eq!((a.took.min, a.took.max), (10, 300));
    }

    #[test]
    fn a_hist_members_delta_is_exactly_the_samples_in_between() {
        let (live, only_between) = (Demo::new(), Hist::new());
        [1, 50, 7_000].iter().for_each(|v| live.took.record(*v));
        let before = live.snapshot();
        for v in [3, 3, 900, 1 << 40] {
            live.took.record(v);
            only_between.record(v);
        }
        let (gained, want) = (live.snapshot().delta(&before).took, only_between.snapshot());
        assert_eq!((gained.count, gained.sum), (want.count, want.sum));
        assert_eq!(gained.buckets, want.buckets);
    }

    #[test]
    fn telemetry_sums_over_slots_and_deltas_row_by_row() {
        let of = |sets| Telemetry {
            sets,
            spans: Vec::new(),
        };
        let earlier = of(vec![recorded(1, 10, &[5], 1).row("demo", 0)]);
        // Slot 1 joined since: its row is kept whole.
        let later = of(vec![
            recorded(4, 15, &[5, 6], 2).row("demo", 0),
            recorded(10, 100, &[], 3).row("demo", 1),
        ]);
        assert_eq!(later.get("demo", "done"), 14);
        assert_eq!(later.get("demo", "held"), 5);
        assert_eq!(later.get("no-such-set", "done"), 0);
        let window = later.delta(&earlier);
        assert_eq!(window.get("demo", "done"), 3 + 10);
        assert_eq!(window.get("demo", "bytes"), 5 + 100);
        assert_eq!(window.hist("demo", "took").count, 1);
    }

    #[test]
    #[should_panic(expected = "declares no \"dnoe\"")]
    fn an_undeclared_name_is_a_panic_not_a_zero() {
        recorded(1, 1, &[], 0).row("demo", 0).get("dnoe");
    }
}
