//! Telemetry exporters: span-tree and metrics rendering for `figures
//! trace` / `figures metrics`, plus machine-readable JSON dumps.
//!
//! The trace renderers read the process-global recorder registry, the
//! metrics renderers the one [`Telemetry`] snapshot `Cluster::telemetry()`
//! / `Gateway::telemetry()` return; the bench harness, the integration
//! tests and the example binaries all share them. JSON is hand-rolled (the workspace is offline; no serde):
//! the fields are all integers and tier/kind names, so escaping reduces to
//! quoting known-safe identifiers.

use faasm_telemetry::{SpanKind, SpanRecord, Telemetry};

use crate::Table;

/// One call's spans merged across tiers, as a parent→children tree.
struct TreeNode {
    tier: &'static str,
    span: SpanRecord,
    children: Vec<TreeNode>,
}

fn build_tree(trace_id: u64) -> Vec<TreeNode> {
    let spans = faasm_telemetry::trace_tree(trace_id);
    let ids: std::collections::HashSet<u64> = spans.iter().map(|(_, s)| s.span_id).collect();
    // Children sorted by start time (trace_tree already orders the flat
    // list); detach each span under its parent when the parent's span was
    // recorded, else treat it as a root (the ingress root context itself
    // has no span record — its children are the top level).
    let mut by_parent: std::collections::HashMap<u64, Vec<(&'static str, SpanRecord)>> =
        std::collections::HashMap::new();
    let mut roots = Vec::new();
    for (tier, span) in spans {
        if span.parent_id != 0 && ids.contains(&span.parent_id) {
            by_parent
                .entry(span.parent_id)
                .or_default()
                .push((tier, span));
        } else {
            roots.push((tier, span));
        }
    }
    fn attach(
        tier: &'static str,
        span: SpanRecord,
        by_parent: &mut std::collections::HashMap<u64, Vec<(&'static str, SpanRecord)>>,
    ) -> TreeNode {
        let children = by_parent
            .remove(&span.span_id)
            .unwrap_or_default()
            .into_iter()
            .map(|(t, s)| attach(t, s, by_parent))
            .collect();
        TreeNode {
            tier,
            span,
            children,
        }
    }
    roots
        .into_iter()
        .map(|(t, s)| attach(t, s, &mut by_parent))
        .collect()
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render_node(node: &TreeNode, origin_ns: u64, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    out.push_str(&format!(
        "{indent}{:<18} {:<12} +{:<10} dur {:<10} span {:016x}{}\n",
        node.span.kind.as_str(),
        format!("[{}]", node.tier),
        fmt_ns(node.span.start_ns.saturating_sub(origin_ns)),
        fmt_ns(node.span.duration_ns()),
        node.span.span_id,
        if node.span.extra != 0 {
            format!("  extra {}", node.span.extra)
        } else {
            String::new()
        },
    ));
    for child in &node.children {
        render_node(child, origin_ns, depth + 1, out);
    }
}

/// Render one trace's span tree: each line shows the span kind, owning
/// tier, start offset from the trace's first span, duration and span id.
/// Empty string when the trace id is unknown (rotated out of every ring).
pub fn render_trace_tree(trace_id: u64) -> String {
    let roots = build_tree(trace_id);
    if roots.is_empty() {
        return String::new();
    }
    let origin_ns = roots.iter().map(|n| n.span.start_ns).min().unwrap_or(0);
    let mut out = format!("trace {trace_id:016x}\n");
    for root in &roots {
        render_node(root, origin_ns, 1, &mut out);
    }
    out
}

/// One trace's spans as a JSON array (empty array when unknown).
pub fn trace_tree_json(trace_id: u64) -> String {
    let spans = faasm_telemetry::trace_tree(trace_id);
    let mut out = String::from("[");
    for (i, (tier, s)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"tier\":\"{tier}\",\"kind\":\"{}\",\"trace_id\":{},\"span_id\":{},\
             \"parent_id\":{},\"start_ns\":{},\"end_ns\":{},\"extra\":{}}}",
            s.kind.as_str(),
            s.trace_id,
            s.span_id,
            s.parent_id,
            s.start_ns,
            s.end_ns,
            s.extra
        ));
    }
    out.push(']');
    out
}

/// Print one [`Telemetry`] snapshot: every histogram with a sample (span
/// kinds per recorder tier, then stat-set members), then every non-zero
/// counter and gauge.
pub fn print_metrics_table(telemetry: &Telemetry) {
    let mut t = Table::new(&["tier", "span", "count", "mean", "p50", "p99", "max"]);
    for (tier, name, h) in telemetry.hists().filter(|(_, _, h)| h.count > 0) {
        t.row(&[
            tier.to_string(),
            name.to_string(),
            h.count.to_string(),
            fmt_ns(h.mean()),
            fmt_ns(h.percentile(50.0)),
            fmt_ns(h.percentile(99.0)),
            fmt_ns(h.max),
        ]);
    }
    t.print();
    let mut t = Table::new(&["set", "slot", "counter", "value"]);
    for row in &telemetry.sets {
        let members = row.counters.iter().chain(&row.gauges);
        for (name, value) in members.filter(|(_, v)| *v > 0) {
            let slot = row.slot.to_string();
            t.row(&[row.tier.into(), slot, name.to_string(), value.to_string()]);
        }
    }
    t.print();
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// One [`Telemetry`] snapshot as JSON: every stat-set row (counters and
/// gauges by declared name), every histogram, and each recorder tier's
/// anomaly dumps (reason + captured span count).
pub fn metrics_json(telemetry: &Telemetry) -> String {
    let sets = join(telemetry.sets.iter().map(|row| {
        let counters = row.counters.iter().chain(&row.gauges);
        format!(
            "{{\"set\":\"{}\",\"slot\":{},\"counters\":{{{}}}}}",
            row.tier,
            row.slot,
            join(counters.map(|(name, v)| format!("\"{name}\":{v}"))),
        )
    }));
    let hists = join(telemetry.hists().map(|(tier, name, h)| {
        format!(
            "{{\"tier\":\"{tier}\",\"span\":\"{name}\",\"count\":{},\"sum_ns\":{},\
             \"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            h.count,
            h.sum,
            h.min,
            h.max,
            h.mean(),
            h.percentile(50.0),
            h.percentile(99.0)
        )
    }));
    let anomalies = join(faasm_telemetry::tiers().iter().flat_map(|rec| {
        rec.anomalies().into_iter().map(|a| {
            // Reasons are generated in-tree from fixed format strings;
            // escape quotes/backslashes anyway so the dump stays valid
            // JSON if one ever embeds a key name.
            let reason = a.reason.replace('\\', "\\\\").replace('"', "\\\"");
            format!(
                "{{\"tier\":\"{}\",\"at_ns\":{},\"reason\":\"{reason}\",\"spans\":{}}}",
                rec.tier(),
                a.at_ns,
                a.spans.len()
            )
        })
    }));
    format!("{{\"sets\":[{sets}],\"hists\":[{hists}],\"anomalies\":[{anomalies}]}}")
}

/// Kinds present in one trace, for causal-coverage assertions.
pub fn trace_kinds(trace_id: u64) -> Vec<SpanKind> {
    faasm_telemetry::trace_tree(trace_id)
        .into_iter()
        .map(|(_, s)| s.kind)
        .collect()
}
