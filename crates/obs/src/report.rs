//! Report rendering: span trees, metrics tables, and the JSON export
//! consumed by `foc … --metrics-json` (and validated in CI).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::sink::span_to_json;
use crate::span::FinishedSpan;

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One node of a reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The finished span.
    pub span: FinishedSpan,
    /// Children, ordered by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Whether this subtree contains a span named `name` (the node
    /// itself included).
    pub fn contains(&self, name: &str) -> bool {
        self.span.name == name || self.children.iter().any(|c| c.contains(name))
    }
}

/// Reconstructs the span forest from a flat finish-ordered list (as
/// retained by [`crate::sink::MemorySink`]). Spans whose parent never
/// finished become roots — nothing is dropped.
pub fn build_tree(spans: &[FinishedSpan]) -> Vec<SpanNode> {
    let mut nodes: Vec<Option<SpanNode>> = spans
        .iter()
        .map(|s| {
            Some(SpanNode {
                span: s.clone(),
                children: Vec::new(),
            })
        })
        .collect();
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // Children finish before parents, so walking the finish order and
    // attaching each node to its parent (which finishes later, hence is
    // still unclaimed) builds every subtree bottom-up.
    let mut roots = Vec::new();
    for i in 0..nodes.len() {
        let node = nodes[i].take().expect("unclaimed in finish order");
        match node.span.parent.and_then(|p| index.get(&p)).copied() {
            Some(pi) if pi != i && nodes[pi].is_some() => {
                nodes[pi].as_mut().expect("checked").children.push(node);
            }
            _ => roots.push(node),
        }
    }
    fn sort_rec(ns: &mut Vec<SpanNode>) {
        ns.sort_by_key(|n| n.span.start_nanos);
        for n in ns {
            sort_rec(&mut n.children);
        }
    }
    sort_rec(&mut roots);
    roots
}

/// Estimates the `q`-quantile (`0.0 ..= 1.0`) of a bucketed histogram
/// by linear interpolation inside the bucket holding the target rank —
/// the `histogram_quantile` estimator of the Prometheus exposition the
/// same snapshots are rendered to. Observations landing in the overflow
/// (`+inf`) bucket *saturate* the estimator: the true quantile is only
/// known to be above the last finite bound, so the returned value is a
/// conservative extrapolation (double the last bound) rather than a
/// silent clamp to it — see [`quantile_detail`] when the caller must
/// distinguish a tight estimate from a saturated one. An empty
/// histogram has no quantiles at all (`None`).
pub fn quantile(h: &HistogramSnapshot, q: f64) -> Option<u64> {
    quantile_detail(h, q).map(|(v, _)| v)
}

/// Like [`quantile`], but also reports whether the target rank landed in
/// the overflow (`+inf`) bucket. `(value, true)` means the histogram's
/// range ran out below the quantile: `value` is a lower-biased guess
/// (double the last finite bound) and the true quantile may be
/// arbitrarily larger, so consumers deriving admission-control numbers
/// (retry hints, slow-query thresholds) must treat it as "at least
/// this", not "about this".
pub fn quantile_detail(h: &HistogramSnapshot, q: f64) -> Option<(u64, bool)> {
    if h.total == 0 || h.bounds.is_empty() {
        return None;
    }
    // Uniform-within-bucket interpolation at rank q·total (the
    // Prometheus convention): a lone observation reports its bucket's
    // midpoint at q = 0.5, not the bucket's upper bound.
    let target = q.clamp(0.0, 1.0) * h.total as f64;
    let mut cum = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        let prev = cum;
        cum += c as f64;
        if cum >= target && c > 0 {
            let last = *h.bounds.last()?;
            if i >= h.bounds.len() {
                // Overflow bucket: the histogram only knows the value
                // exceeds `last`. Extrapolate one doubling past the
                // range and flag the saturation.
                return Some((last.saturating_mul(2), true));
            }
            let upper = h.bounds[i] as f64;
            let lower = if i == 0 { 0.0 } else { h.bounds[i - 1] as f64 };
            let frac = (target - prev) / c as f64;
            return Some(((lower + (upper - lower) * frac).round() as u64, false));
        }
    }
    h.bounds.last().copied().map(|b| (b, false))
}

/// The standard latency-quantile triple estimated from one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Estimates p50/p95/p99 from one histogram snapshot (`None` when the
/// histogram is empty). The triple `foc explain` and the serve
/// slow-query threshold report.
pub fn quantiles(h: &HistogramSnapshot) -> Option<Quantiles> {
    Some(Quantiles {
        p50: quantile(h, 0.50)?,
        p95: quantile(h, 0.95)?,
        p99: quantile(h, 0.99)?,
    })
}

fn fmt_micros(nanos: u64) -> String {
    let micros = nanos / 1_000;
    if micros >= 10_000 {
        format!("{:.1}ms", micros as f64 / 1_000.0)
    } else {
        format!("{micros}µs")
    }
}

fn render_node(node: &SpanNode, prefix: &str, last: bool, top: bool, out: &mut String) {
    let (branch, cont) = if top {
        ("", "")
    } else if last {
        ("└─ ", "   ")
    } else {
        ("├─ ", "│  ")
    };
    let _ = write!(
        out,
        "{prefix}{branch}{} ({})",
        node.span.name,
        fmt_micros(node.span.dur_nanos)
    );
    for (k, v) in &node.span.attrs {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    let child_prefix = format!("{prefix}{cont}");
    for (i, c) in node.children.iter().enumerate() {
        render_node(c, &child_prefix, i + 1 == node.children.len(), false, out);
    }
}

/// Renders a span forest as an indented tree with durations and
/// attributes — the body of `foc explain`.
pub fn render_tree(roots: &[SpanNode]) -> String {
    let mut out = String::new();
    for r in roots {
        render_node(r, "", true, true, &mut out);
    }
    out
}

/// Renders a metrics snapshot as aligned `name  value` rows (counters,
/// then gauges, then histogram totals with their bucket spreads).
pub fn render_metrics_table(snap: &MetricsSnapshot) -> String {
    let width = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(|k| k.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    for (k, v) in &snap.counters {
        let _ = writeln!(out, "{k:<width$}  {v}");
    }
    for (k, v) in &snap.gauges {
        let _ = writeln!(out, "{k:<width$}  {v} (gauge)");
    }
    for (k, h) in &snap.histograms {
        let buckets: Vec<String> = h
            .bounds
            .iter()
            .map(|b| format!("≤{b}"))
            .chain(std::iter::once("+inf".to_string()))
            .zip(&h.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(b, c)| format!("{b}:{c}"))
            .collect();
        let q = quantiles(h)
            .map(|q| format!(" p50={} p95={} p99={}", q.p50, q.p95, q.p99))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{k:<width$}  n={} sum={}{q} [{}]",
            h.total,
            h.sum,
            buckets.join(" ")
        );
    }
    out
}

/// Self time per span name, in nanoseconds, summed over the tree: a
/// span's duration minus the union of its children's intervals.
/// Children of one parent overlap when the cover engine fans clusters
/// out over worker threads, so the covered part is their union, not
/// their sum. With sequential spans the self times partition the root's
/// wall time, and the root's own entry is the time no phase span
/// claimed.
pub fn self_times(spans: &[FinishedSpan]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_nanos, s.start_nanos + s.dur_nanos));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let (lo, hi) = (s.start_nanos, s.start_nanos + s.dur_nanos);
        let mut ivs = children.remove(&s.id).unwrap_or_default();
        ivs.sort_unstable();
        let (mut covered, mut reach) = (0u64, lo);
        for (a, b) in ivs {
            let (a, b) = (a.max(reach), b.min(hi));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name).or_default() += s.dur_nanos.saturating_sub(covered);
    }
    out
}

/// The JSON export of one evaluation session: per-span self times,
/// every registry instrument, and the span list. The schema is pinned
/// by CI: the top level always contains `phases`, `counters`, and
/// `spans`. `phases` holds [`self_times`] of `spans` as
/// `<span>_micros`; `session_micros` is the root's own, unattributed
/// time, and on one thread the entries sum to the session's wall time.
///
/// ```text
/// {
///   "engine": "cover",
///   "phases": {"cover_micros": 120, "decompose_micros": 30, …,
///              "session_micros": 12},
///   "counters": {"cover.clusters": 12, …},
///   "gauges": {"cover.peak_cluster": 25, …},
///   "histograms": {"cover.cluster_size": {"bounds": […], "counts": […],
///                   "total": 12, "sum": 133}, …},
///   "spans": [{"span": "session", "id": 0, "parent": null, …}, …]
/// }
/// ```
pub fn session_json(engine: &str, snap: &MetricsSnapshot, spans: &[FinishedSpan]) -> String {
    let phases = self_times(spans);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"engine\": \"{}\",", json_escape(engine));
    let _ = writeln!(out, "  \"phases\": {{");
    // Whole micros by cumulative truncation: each entry is within 1 µs
    // of its own value, and the entries sum to the truncated total (the
    // session's `dur_micros` on one thread) instead of falling short by
    // up to a micro per phase.
    let mut done_nanos = 0u64;
    for (i, (name, nanos)) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        let micros = (done_nanos + nanos) / 1_000 - done_nanos / 1_000;
        done_nanos += nanos;
        let _ = writeln!(out, "    \"{}_micros\": {micros}{comma}", json_escape(name));
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"counters\": {{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        let comma = if i + 1 < snap.counters.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\": {v}{comma}", json_escape(k));
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"gauges\": {{");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        let comma = if i + 1 < snap.gauges.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\": {v}{comma}", json_escape(k));
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"histograms\": {{");
    for (i, (k, h)) in snap.histograms.iter().enumerate() {
        let comma = if i + 1 < snap.histograms.len() {
            ","
        } else {
            ""
        };
        let bounds: Vec<String> = h.bounds.iter().map(|b| b.to_string()).collect();
        let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(
            out,
            "    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"total\": {}, \"sum\": {}}}{comma}",
            json_escape(k),
            bounds.join(", "),
            counts.join(", "),
            h.total,
            h.sum
        );
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", span_to_json(s));
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::span::AttrValue;

    fn spans() -> Vec<FinishedSpan> {
        // Finish order: children first.
        vec![
            FinishedSpan {
                id: 2,
                parent: Some(1),
                name: "cover",
                start_nanos: 30,
                dur_nanos: 10,
                attrs: vec![("radius", AttrValue::Int(2))],
            },
            FinishedSpan {
                id: 1,
                parent: Some(0),
                name: "eval",
                start_nanos: 20,
                dur_nanos: 50,
                attrs: vec![],
            },
            FinishedSpan {
                id: 0,
                parent: None,
                name: "session",
                start_nanos: 0,
                dur_nanos: 100,
                attrs: vec![],
            },
        ]
    }

    #[test]
    fn tree_reconstruction_nests() {
        let roots = build_tree(&spans());
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].span.name, "session");
        assert_eq!(roots[0].children[0].span.name, "eval");
        assert_eq!(roots[0].children[0].children[0].span.name, "cover");
        assert!(roots[0].contains("cover"));
        assert!(!roots[0].contains("removal"));
    }

    #[test]
    fn orphans_become_roots() {
        let mut s = spans();
        s.remove(2); // session never finished
        let roots = build_tree(&s);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].span.name, "eval");
    }

    #[test]
    fn tree_render_shows_names_and_attrs() {
        let text = render_tree(&build_tree(&spans()));
        assert!(text.contains("session"));
        assert!(text.contains("└─ cover"));
        assert!(text.contains("radius=2"));
    }

    #[test]
    fn session_json_has_required_keys_and_balances() {
        let m = Metrics::new();
        m.counter("cover.clusters").add(3);
        m.gauge("cover.peak_cluster").set(9);
        m.histogram("cover.cluster_size", &[1, 4, 16]).observe(9);
        let json = session_json("cover", &m.snapshot(), &spans());
        for key in [
            "\"phases\"",
            "\"counters\"",
            "\"spans\"",
            "\"gauges\"",
            "\"histograms\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains("\"eval_micros\": 0"));
        assert!(json.contains("\"cover.clusters\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// Phases with sub-micro remainders still sum to the session's
    /// truncated duration: 2.6 + 2.6 + 2.6 µs of self time export as
    /// 7 µs in total, not 3 × 2.
    #[test]
    fn session_json_phases_sum_to_the_session_micros() {
        let span = |id, parent, name, start_nanos, dur_nanos| FinishedSpan {
            id,
            parent,
            name,
            start_nanos,
            dur_nanos,
            attrs: vec![],
        };
        let spans = [
            span(1, Some(0), "cover", 0, 2_600),
            span(2, Some(0), "eval", 2_600, 2_600),
            span(0, None, "session", 0, 7_800),
        ];
        let json = session_json("cover", &Metrics::new().snapshot(), &spans);
        let total: u64 = json
            .lines()
            .filter(|l| l.trim_start().starts_with('"') && l.contains("_micros\": "))
            .map(|l| {
                let v = l.rsplit(": ").next().unwrap();
                v.trim_end_matches(',').parse::<u64>().unwrap()
            })
            .sum();
        assert_eq!(total, 7_800 / 1_000);
    }

    #[test]
    fn self_times_partition_nested_spans_and_union_overlaps() {
        let span = |id, parent, name, start_nanos, dur_nanos| FinishedSpan {
            id,
            parent,
            name,
            start_nanos,
            dur_nanos,
            attrs: vec![],
        };
        let t = self_times(&spans());
        assert_eq!((t["session"], t["eval"], t["cover"]), (50, 40, 10));
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "sequential spans partition the root"
        );
        // Parallel siblings overlap: the parent loses their union once.
        let par = [
            span(3, Some(1), "ball_enum", 10, 5),
            span(1, Some(0), "cluster", 10, 40),
            span(2, Some(0), "cluster", 30, 40),
            span(0, None, "session", 0, 100),
        ];
        let t = self_times(&par);
        assert_eq!(t["session"], 40);
        assert_eq!(t["cluster"], 35 + 40);
        assert_eq!(t["ball_enum"], 5);
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn metrics_table_lists_instruments() {
        let m = Metrics::new();
        m.counter("cache.hits").add(5);
        m.histogram("local.ball_size", &[1, 8]).observe(3);
        let t = render_metrics_table(&m.snapshot());
        assert!(t.contains("cache.hits"));
        assert!(t.contains("local.ball_size"));
        assert!(t.contains("n=1"));
        assert!(t.contains("p50="), "histogram rows carry quantiles: {t}");
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // 100 observations of value 5 land in the (4, 8] bucket: every
        // quantile interpolates inside that bucket's range.
        let h = {
            let m = Metrics::new();
            let hist = m.histogram("h", &[1, 2, 4, 8, 16]);
            for _ in 0..100 {
                hist.observe(5);
            }
            hist.snapshot()
        };
        let p50 = quantile(&h, 0.5).unwrap();
        assert!((4..=8).contains(&p50), "p50 {p50} outside its bucket");
        let q = quantiles(&h).unwrap();
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99, "quantiles must rise");
        assert!(q.p99 <= 8, "p99 {} above the holding bucket", q.p99);
    }

    #[test]
    fn quantile_edge_cases() {
        let m = Metrics::new();
        let empty = m.histogram("e", &[1, 2]).snapshot();
        assert_eq!(quantile(&empty, 0.5), None);
        assert_eq!(quantiles(&empty), None);
        // Overflow observations extrapolate past the last finite bound
        // instead of clamping to it, and report the saturation.
        let hist = m.histogram("o", &[1, 2]);
        hist.observe(1_000_000);
        assert_eq!(quantile(&hist.snapshot(), 0.99), Some(4));
        assert_eq!(quantile_detail(&hist.snapshot(), 0.99), Some((4, true)));
        // A single observation in the first bucket stays within it.
        let one = m.histogram("one", &[10, 20]);
        one.observe(3);
        assert_eq!(quantile_detail(&one.snapshot(), 0.5), Some((5, false)));
    }

    #[test]
    fn overflow_mass_never_reports_a_tight_in_range_quantile() {
        // Regression: with ALL mass in the +inf bucket every quantile
        // used to report exactly the last finite bound, indistinguishable
        // from a genuine in-range estimate — and the p99-derived retry
        // hint and slow-query threshold silently underestimated. The
        // estimator must now answer strictly above the range and flag it.
        let m = Metrics::new();
        let hist = m.histogram("sat", &[1, 2, 4, 8]);
        for _ in 0..50 {
            hist.observe(1_000_000);
        }
        let snap = hist.snapshot();
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            let (v, saturated) = quantile_detail(&snap, q).unwrap();
            assert!(v > 8, "q={q}: {v} not above the last finite bound");
            assert!(saturated, "q={q}: saturation not flagged");
        }
        // Mixed mass: in-range quantiles stay tight, the tail saturates.
        let mix = m.histogram("mix", &[1, 2, 4, 8]);
        for _ in 0..99 {
            mix.observe(3);
        }
        mix.observe(1_000_000);
        let snap = mix.snapshot();
        let (p50, sat50) = quantile_detail(&snap, 0.5).unwrap();
        assert!(p50 <= 4 && !sat50, "median is a tight in-range estimate");
        let (p995, sat995) = quantile_detail(&snap, 0.995).unwrap();
        assert!(p995 > 8 && sat995, "tail quantile must saturate");
    }
}
