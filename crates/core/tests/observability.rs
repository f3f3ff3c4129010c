//! Integration tests for the observability wiring: a cover-engine run
//! over a generated grid must populate the metrics registry (counters,
//! the cluster/ball histograms, the term cache), keep histogram totals
//! consistent with their counters, and emit a span tree whose `cover`
//! span nests under the session root. The span tree is also the only
//! phase clock, so its nesting is checked as an invariant: every span
//! lies inside its parent and, sequentially, self times add up to the
//! session's wall time.

use std::collections::HashMap;
use std::sync::Arc;

use foc_core::{EngineKind, Evaluator};
use foc_locality::TermCache;
use foc_logic::parse::{parse_formula, parse_term};
use foc_obs::{build_tree, names, self_times, FinishedSpan, MemorySink, Sink};
use foc_structures::gen::{bounded_degree, grid, random_tree, star};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cover_engine_metrics_and_span_tree() {
    let sink = MemorySink::shared();
    let ev = Evaluator::builder()
        .kind(EngineKind::Cover)
        .sink(sink.clone() as Arc<dyn Sink>)
        .build()
        .unwrap();
    let g = grid(12, 12);
    let term = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let mut session = ev.session(&g);
    let value = session.eval_ground(&term).unwrap();
    assert!(value > 0, "far pairs exist on a 12x12 grid");

    let stats = session.stats();
    assert!(stats.clusters > 0, "cover engine must form clusters");
    assert!(stats.covers_built > 0, "at least one cover must be built");
    assert!(
        stats.cache_hits + stats.cache_misses > 0,
        "term cache must be exercised"
    );

    // Histogram totals equal their counters: cluster sizes are observed
    // exactly once per removal surgery (a grid has no hub, so none),
    // ball sizes exactly once per ball.
    let snap = session.observer().metrics().snapshot();
    let cluster_hist = &snap.histograms[names::COVER_CLUSTER_SIZE];
    assert_eq!(cluster_hist.total, snap.counter(names::COVER_REMOVALS));
    assert_eq!(cluster_hist.total, stats.removals);
    let ball_hist = &snap.histograms[names::LOCAL_BALL_SIZE];
    assert_eq!(ball_hist.total, snap.counter(names::LOCAL_BALLS));
    assert_eq!(snap.counter(names::CACHE_HITS), stats.cache_hits);
    assert_eq!(snap.counter(names::CACHE_MISSES), stats.cache_misses);

    // Dropping the session finishes the root span; children finish
    // before parents, so the sink now holds a complete tree.
    drop(session);
    let tree = build_tree(&sink.spans());
    assert_eq!(tree.len(), 1, "exactly one session root");
    assert_eq!(tree[0].span.name, "session");
    assert!(
        tree[0].contains("cover"),
        "cover span must nest under the session root"
    );
    assert!(tree[0].contains("eval"), "eval phase span must be present");

    // A star's hub cluster goes through removal: one histogram
    // observation per surgery, of the cluster's order.
    let star = star(200);
    let mut session = ev.session(&star);
    session.eval_ground(&term).unwrap();
    let removals = session.stats().removals;
    assert!(removals > 0, "the hub cluster is removed");
    let snap = session.observer().metrics().snapshot();
    let cluster_hist = &snap.histograms[names::COVER_CLUSTER_SIZE];
    assert_eq!(cluster_hist.total, snap.counter(names::COVER_REMOVALS));
    assert_eq!(cluster_hist.total, removals);
}

#[test]
fn local_engine_records_balls_and_spans() {
    let sink = MemorySink::shared();
    let ev = Evaluator::builder()
        .kind(EngineKind::Local)
        .sink(sink.clone() as Arc<dyn Sink>)
        .build()
        .unwrap();
    let g = grid(8, 8);
    let term = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let mut session = ev.session(&g);
    session.eval_ground(&term).unwrap();

    let stats = session.stats();
    assert!(stats.balls > 0, "local engine enumerates balls");
    let snap = session.observer().metrics().snapshot();
    let ball_hist = &snap.histograms[names::LOCAL_BALL_SIZE];
    assert_eq!(ball_hist.total, snap.counter(names::LOCAL_BALLS));

    drop(session);
    let tree = build_tree(&sink.spans());
    assert_eq!(tree[0].span.name, "session");
    assert!(tree[0].contains("ball_enum"));
}

#[test]
fn disabled_observer_still_feeds_stats() {
    // No sink attached: spans are disabled, but the metrics registry
    // stays live so `stats()` remains a faithful typed view.
    let ev = Evaluator::builder()
        .kind(EngineKind::Cover)
        .build()
        .unwrap();
    let g = grid(10, 10);
    let term = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let mut session = ev.session(&g);
    session.eval_ground(&term).unwrap();
    let stats = session.stats();
    assert!(stats.clusters > 0);
    assert!(stats.covers_built > 0);
}

/// The benchmark's five eval queries and three shapes of its serve pool:
/// `(text, is a sentence)`. Most of them count inside a predicate or a
/// comparison, so their markers run nested `decompose` and `eval` work.
const QUERIES: [(&str, bool); 8] = [
    (
        "@even(#(x,y). !(dist(x,y) <= 2)) & exists x. #(y). (E(x,y) & #(z). E(y,z) = 1) >= 2",
        true,
    ),
    ("exists x. (#(y). E(x,y) = #(z). (#(w). E(z,w) = 2))", true),
    ("#(x,y). (!(E(x,y)) & !(x = y))", false),
    ("#(x,y). !(dist(x,y) <= 2)", false),
    ("#(x,y). (E(x,y) & #(z). E(y,z) = 1)", false),
    ("exists x. #(y). dist(x,y) <= 2 >= 13", true),
    ("#(x). (#(y). E(x,y) = 3)", false),
    ("#(x,y). dist(x,y) <= 2", false),
];

fn inputs() -> Vec<(&'static str, Structure)> {
    let mut rng = StdRng::seed_from_u64(21);
    vec![
        ("tree", random_tree(120, &mut rng)),
        ("grid", grid(10, 10)),
        ("degree3", bounded_degree(120, 3, 360, &mut rng)),
    ]
}

/// Runs one query in a traced session and returns its finished spans.
/// With `cache`, the session reads and fills that shared term cache, as
/// every `foc serve` request does.
fn traced(
    kind: EngineKind,
    threads: usize,
    a: &Structure,
    (text, sentence): (&str, bool),
    cache: Option<&Arc<TermCache>>,
) -> Vec<FinishedSpan> {
    let sink = MemorySink::shared();
    let mut builder = Evaluator::builder()
        .kind(kind)
        .threads(threads)
        .sink(sink.clone() as Arc<dyn Sink>);
    if let Some(cache) = cache {
        builder = builder.shared_cache(cache.clone());
    }
    let ev = builder.build().unwrap();
    let mut session = ev.session(a);
    if sentence {
        session
            .check_sentence(&parse_formula(text).unwrap())
            .unwrap();
    } else {
        session.eval_ground(&parse_term(text).unwrap()).unwrap();
    }
    drop(session);
    sink.spans()
}

/// Every non-root span lies inside its parent. With `sequential`, the
/// children of one span also do not overlap, and the self times sum to
/// the root's duration exactly.
fn assert_nested(spans: &[FinishedSpan], sequential: bool, ctx: &str) {
    let end = |s: &FinishedSpan| s.start_nanos + s.dur_nanos;
    let by_id: HashMap<u32, &FinishedSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let roots: Vec<&FinishedSpan> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "{ctx}: one session root");
    let mut children: HashMap<u32, Vec<&FinishedSpan>> = HashMap::new();
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = by_id[&p];
        assert!(
            parent.start_nanos <= s.start_nanos && end(s) <= end(parent),
            "{ctx}: {} [{}, {}] escapes its parent {} [{}, {}]",
            s.name,
            s.start_nanos,
            end(s),
            parent.name,
            parent.start_nanos,
            end(parent)
        );
        children.entry(p).or_default().push(s);
    }
    if !sequential {
        return;
    }
    for (p, mut kids) in children {
        kids.sort_by_key(|s| s.start_nanos);
        for w in kids.windows(2) {
            assert!(
                end(w[0]) <= w[1].start_nanos,
                "{ctx}: siblings {} and {} under {} overlap",
                w[0].name,
                w[1].name,
                by_id[&p].name
            );
        }
    }
    let total: u64 = self_times(spans).values().sum();
    assert_eq!(
        total, roots[0].dur_nanos,
        "{ctx}: self times must partition the session"
    );
}

#[test]
fn span_self_times_partition_the_session() {
    let mut timed: HashMap<&str, u64> = HashMap::new();
    for (class, a) in inputs() {
        for q in QUERIES {
            for kind in [EngineKind::Local, EngineKind::Cover] {
                let spans = traced(kind, 1, &a, q, None);
                let ctx = format!("{kind:?} on {class}: {}", q.0);
                assert_nested(&spans, true, &ctx);
                for phase in ["decompose", "eval"] {
                    assert!(
                        spans.iter().any(|s| s.name == phase),
                        "{ctx}: no {phase} span"
                    );
                    *timed.entry(phase).or_default() += self_times(&spans)[phase];
                }
                assert_nested(
                    &traced(kind, 2, &a, q, None),
                    false,
                    &format!("{ctx} (2 threads)"),
                );
                // Serve-shaped: a cold run fills a shared cache, and the
                // invariant must also hold for the warm run that hits it.
                let cache = Arc::new(TermCache::default());
                for run in ["cold", "warm"] {
                    assert_nested(
                        &traced(kind, 1, &a, q, Some(&cache)),
                        true,
                        &format!("{ctx} ({run} shared cache)"),
                    );
                }
                assert!(cache.hits() > 0, "{ctx}: the warm run must hit the cache");
            }
        }
    }
    assert!(
        timed["decompose"] > 0 && timed["eval"] > 0,
        "phases must be timed: {timed:?}"
    );
}
