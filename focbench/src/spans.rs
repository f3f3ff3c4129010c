//! Self time per span name, from a recorded span tree.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover. Children of one parent can overlap when
//! the cover engine fans out over worker threads, so the covered part is
//! the union of the child intervals, not their sum.

use std::collections::BTreeMap;

use foc_obs::{AttrValue, FinishedSpan};

/// One finished span of a tree, in a single time unit.
pub struct SpanRec {
    pub name: String,
    pub id: u32,
    pub parent: Option<u32>,
    pub start: u64,
    pub dur: u64,
    /// The `radius` attribute, on the spans that carry one.
    pub radius: Option<i64>,
}

impl From<&FinishedSpan> for SpanRec {
    fn from(s: &FinishedSpan) -> SpanRec {
        SpanRec {
            name: s.name.to_string(),
            id: s.id,
            parent: s.parent,
            start: s.start_nanos,
            dur: s.dur_nanos,
            radius: s.attrs.iter().find_map(|(k, v)| match v {
                AttrValue::Int(r) if *k == "radius" => Some(*r),
                _ => None,
            }),
        }
    }
}

/// Total self time per span name over one tree (ids are unique within
/// the tree).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start, s.start + s.dur));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let (lo, hi) = (s.start, s.start + s.dur);
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
        *out.entry(s.name.clone()).or_default() += s.dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of the intervals of every non-root span: the
/// wall time during which some layer span was open on some thread.
pub fn covered(spans: &[SpanRec]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| (s.start, s.start + s.dur))
        .collect();
    ivs.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (a, b) in ivs {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, id: u32, parent: Option<u32>, start: u64, dur: u64) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            id,
            parent,
            start,
            dur,
            radius: None,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            rec("session", 0, None, 0, 100),
            rec("cluster", 1, Some(0), 10, 40),
            rec("cluster", 2, Some(0), 30, 40),
            rec("ball_enum", 3, Some(1), 10, 5),
        ];
        let t = self_times(&spans);
        assert_eq!(t["session"], 40);
        assert_eq!(t["cluster"], 35 + 40);
        assert_eq!(t["ball_enum"], 5);
        assert_eq!(covered(&spans), 60);
    }
}
