//! The benchmark's own spans, recorded around its calls into the system
//! and kept in memory until the run ends. Spans inside the program are a
//! later change (ROADMAP item 5).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::json::Json;

/// One span. `trace` is shared by every span of one request (or one
/// coldstart round, or one SGD epoch); `parent` is 0 for a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub trace: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span sink. When off (untraced runs) every method is a branch and
/// nothing is stored, so the end-to-end numbers carry no tracing cost.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the sink was made; 0, and no clock read, when off.
    pub fn now_ns(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Reserve an id, so children can name their parent before it ends.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a finished span under a reserved id.
    pub fn push(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }

    /// Reserve an id and record a finished span under it.
    pub fn record(&mut self, trace: u64, parent: u64, name: &'static str, start_ns: u64) -> u64 {
        let id = self.next_id();
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            trace,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span id: the span's duration minus the part of its
/// interval that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Spans written out in full; the per-name totals cover every span.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// The trace of a run, as fields of its result file: per-name count, total
/// and self time over every span, then the first [`MAX_SPANS_WRITTEN`]
/// spans by id. Ids are reserved parent-first, so that prefix holds the
/// parent of every span in it.
pub fn trace_fields(mut spans: Vec<Span>) -> Vec<(String, Json)> {
    let own = self_times(&spans);
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let row = by_name.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end_ns - s.start_ns;
        row.2 += own[&s.id];
    }
    spans.sort_unstable_by_key(|s| s.id);
    let total = spans.len();
    spans.truncate(MAX_SPANS_WRITTEN);
    let mut fields = vec![("spans_recorded".into(), Json::Int(total as u64))];
    fields.push((
        "by_name".into(),
        Json::Arr(
            by_name
                .into_iter()
                .map(|(name, (count, total_ns, self_ns))| {
                    Json::obj([
                        ("name", Json::str(name)),
                        ("count", Json::Int(count)),
                        ("total_ms", Json::Num(total_ns as f64 / 1e6)),
                        ("self_ms", Json::Num(self_ns as f64 / 1e6)),
                    ])
                })
                .collect(),
        ),
    ));
    fields.push((
        "spans".into(),
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Int(s.id)),
                        ("trace", Json::Int(s.trace)),
                        ("parent", Json::Int(s.parent)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                    ])
                })
                .collect(),
        ),
    ));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            trace: 1,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..50 once, a third 60..70.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 60, 70),
            // A grandchild takes from its own parent only.
            span(5, 2, 10, 25),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 30 - 15);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&5], 15);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span(1, 0, 10, 20), span(2, 1, 0, 15), span(3, 1, 18, 40)];
        assert_eq!(self_times(&spans)[&1], 10 - 5 - 2);
    }

    #[test]
    fn an_off_sink_stores_nothing() {
        let mut off = Spans::new(false);
        off.record(1, 0, "x", 0);
        assert!(off.into_spans().is_empty());
        let mut on = Spans::new(true);
        let root = on.next_id();
        let child = on.record(7, root, "child", 0);
        assert!(child > root);
        assert_eq!(on.into_spans().len(), 1);
    }
}
