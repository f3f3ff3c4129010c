//! The three Section 9 "open questions", prototyped:
//!
//! 1. SUM/AVG aggregates (`foc_core::aggregate`),
//! 2. database updates (`foc_locality::migrate_cache`, as `foc serve` runs it),
//! 3. constant-delay enumeration (`foc_core::enumerate`).
//!
//! ```text
//! cargo run --release --example extensions
//! ```

use foc_core::{EngineKind, Evaluator, SumAggregate, Weights};
use foc_locality::{migrate_cache, TermCache};
use foc_logic::build::*;
use foc_logic::Query;
use foc_structures::gen::random_tree;
use foc_structures::{DeltaStructure, TupleOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(20);
    let s = random_tree(20_000, &mut rng);
    println!("structure: random tree, n = {}", s.order());

    // ── (1) SUM/AVG ────────────────────────────────────────────────────
    // Weighted degree sum: Σ over edges (x,y) of w(y).
    let x = v("x");
    let y = v("y");
    let weights = Weights::new((0..s.order()).map(|_| rng.gen_range(0i64..100)).collect());
    let agg = SumAggregate::new(vec![x, y], y, atom("E", [x, y])).unwrap();
    let ev = Evaluator::builder()
        .kind(EngineKind::Local)
        .build()
        .unwrap();
    let t0 = Instant::now();
    let sum = ev.eval_sum(&s, &weights, &agg).unwrap();
    let avg = ev.eval_avg(&s, &weights, &agg).unwrap();
    println!(
        "\n(1) SUM over edges of w(endpoint) = {sum}; AVG = {:.2}  [{:?}]",
        avg.value().unwrap(),
        t0.elapsed()
    );

    // ── (2) database updates ──────────────────────────────────────────
    // Keep the number of close pairs (dist ≤ 2) fresh under edge updates
    // the way `foc serve` does: commit, migrate the cached term vectors
    // to the new epoch (recomputing only the dirty balls), retire the
    // old epoch, then evaluate against the migrated cache.
    let close = cnt_vec(vec![x, y], and(dist_le(x, y, 2), not(eq(x, y))));
    let cache = Arc::new(TermCache::default());
    let live = Evaluator::builder()
        .kind(EngineKind::Local)
        .shared_cache(cache.clone())
        .build()
        .unwrap();
    let mut delta = DeltaStructure::new(s.clone());
    delta.current().gaifman();
    let t0 = Instant::now();
    let initial = live.eval_ground(delta.current(), &close).unwrap();
    println!(
        "\n(2) #(x,y). dist(x,y) ≤ 2 ∧ x≠y = {initial}  [cache filled in {:?}]",
        t0.elapsed()
    );
    let mut total_recomputed = 0usize;
    let t0 = Instant::now();
    let updates = 20;
    for _ in 0..updates {
        let u = rng.gen_range(0..s.order());
        let w = rng.gen_range(0..s.order());
        if u == w {
            continue;
        }
        let ops = if rng.gen_bool(0.6) {
            [TupleOp::insert("E", &[u, w]), TupleOp::insert("E", &[w, u])]
        } else {
            [TupleOp::delete("E", &[u, w]), TupleOp::delete("E", &[w, u])]
        };
        let old = delta.snapshot();
        let info = delta.apply(&ops).unwrap();
        if info.changed > 0 {
            let stats = migrate_cache(
                &cache,
                &old,
                delta.current(),
                &info.touched,
                live.predicates(),
            );
            cache.evict_structure(old.fingerprint());
            total_recomputed += stats.recomputed;
        }
    }
    let value = live.eval_ground(delta.current(), &close).unwrap();
    println!(
        "    after {updates} random updates: value = {value}, avg {} vector entries recomputed/update (n = {})  [{:?}]",
        total_recomputed / updates,
        s.order(),
        t0.elapsed()
    );
    let cold = Evaluator::builder().build().unwrap();
    assert_eq!(
        value,
        cold.eval_ground(&delta.rebuild_from_scratch(), &close)
            .unwrap()
    );
    println!("    matches from-scratch recomputation ✓");

    // ── (3) constant-delay enumeration ────────────────────────────────
    let q = Query::new(
        vec![x],
        vec![cnt_vec(vec![y], atom("E", [x, y]))],
        tle(int(3), cnt_vec(vec![y], atom("E", [x, y]))),
    )
    .unwrap();
    let en = ev.enumerate_query(&s, &q).unwrap();
    println!(
        "\n(3) constant-delay enumeration: {} rows, preprocessing {:?}",
        en.len(),
        en.preprocessing
    );
    let t0 = Instant::now();
    let rows: Vec<_> = en.collect();
    let per_row = t0.elapsed() / rows.len().max(1) as u32;
    println!(
        "    emitted all rows at {per_row:?}/row; first: vertex {} with degree {}",
        rows[0].elems[0], rows[0].counts[0]
    );
}
