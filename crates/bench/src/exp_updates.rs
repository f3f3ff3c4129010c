//! E14 — live updates: the per-update cost of the path `foc serve`
//! runs on a write, versus a from-scratch rebuild, on a grid of ~10⁵
//! elements.
//!
//! Each single-edge toggle runs the server's writer path minus the WAL:
//! a [`DeltaStructure::apply`] of the two symmetric tuple ops (epoch
//! bump, COW relations, incremental Gaifman maintenance), then
//! [`migrate_cache`], which carries every cached value vector to the
//! new epoch and recomputes only the entries within the term's
//! exploration radius of the touched elements (the locality of change,
//! Lemma 6.1 / Remark 6.3), then [`TermCache::evict_structure`] of the
//! old epoch, then the query on a local-engine [`Evaluator`] sharing
//! that cache. The rebuild baseline pays what a non-incremental engine
//! would pay for the same freshness:
//! `DeltaStructure::rebuild_from_scratch()` plus a cold evaluation with
//! a fresh per-session cache. Both paths must agree on the value at
//! every step — the experiment asserts it.
//!
//! Besides the markdown table, the experiment writes
//! `BENCH_updates.json` to the current directory: one record per
//! update (entries recomputed, commit / migration / total delta time,
//! rebuild time, speedup) plus a summary with medians and the minimum
//! speedup. On a bounded-degree grid the dirty ball is O(1), so the
//! speedup grows linearly with the order; the full run asserts a
//! median of at least 10× at 10⁵ elements.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use foc_core::{EngineKind, Evaluator};
use foc_locality::{migrate_cache, TermCache};
use foc_logic::build::{and, cnt_vec, dist_le, eq, not, v};
use foc_logic::Symbol;
use foc_structures::gen::grid;
use foc_structures::{DeltaStructure, TupleOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

struct UpdateCell {
    op: String,
    affected: usize,
    commit_micros: u64,
    migrate_micros: u64,
    delta_micros: u64,
    rebuild_micros: u64,
}

impl UpdateCell {
    fn speedup(&self) -> f64 {
        self.rebuild_micros as f64 / (self.delta_micros as f64).max(1.0)
    }
}

fn median_by<F: Fn(&UpdateCell) -> f64>(cells: &[UpdateCell], f: F) -> f64 {
    let mut vals: Vec<f64> = cells.iter().map(f).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    if vals.is_empty() {
        0.0
    } else {
        vals[vals.len() / 2]
    }
}

fn emit_json(cells: &[UpdateCell], order: u32, quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"experiment\": \"E14 live updates: commit + cache migration vs rebuild\","
    );
    let _ = writeln!(out, "  \"engine\": \"local\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"order\": {order},");
    let _ = writeln!(out, "  \"query\": \"#(x,y). dist(x,y) <= 2 & !(x = y)\",");
    let _ = writeln!(
        out,
        "  \"note\": \"delta pays the foc serve writer path minus the WAL: DeltaStructure::apply (commit_micros), migrate_cache plus evict_structure (migrate_micros), then a shared-cache evaluation; affected is MigrationStats::recomputed; rebuild pays DeltaStructure::rebuild_from_scratch plus a cold evaluation\","
    );
    let _ = writeln!(out, "  \"updates\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"op\": \"{}\",", c.op);
        let _ = writeln!(out, "      \"affected\": {},", c.affected);
        let _ = writeln!(out, "      \"commit_micros\": {},", c.commit_micros);
        let _ = writeln!(out, "      \"migrate_micros\": {},", c.migrate_micros);
        let _ = writeln!(out, "      \"delta_micros\": {},", c.delta_micros);
        let _ = writeln!(out, "      \"rebuild_micros\": {},", c.rebuild_micros);
        let _ = writeln!(out, "      \"speedup\": {:.3}", c.speedup());
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"summary\": {{");
    let _ = writeln!(out, "    \"updates\": {},", cells.len());
    let medians = [
        ("commit", median_by(cells, |c| c.commit_micros as f64)),
        ("migrate", median_by(cells, |c| c.migrate_micros as f64)),
        ("delta", median_by(cells, |c| c.delta_micros as f64)),
        ("rebuild", median_by(cells, |c| c.rebuild_micros as f64)),
    ];
    for (name, median) in medians {
        let _ = writeln!(out, "    \"median_{name}_micros\": {median:.1},");
    }
    let _ = writeln!(
        out,
        "    \"median_speedup\": {:.3},",
        median_by(cells, UpdateCell::speedup)
    );
    let _ = writeln!(
        out,
        "    \"min_speedup\": {:.3}",
        cells
            .iter()
            .map(UpdateCell::speedup)
            .fold(f64::INFINITY, f64::min)
    );
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// E14: commit + cache migration + cached evaluation vs from-scratch
/// rebuilds. Returns the markdown table and writes `BENCH_updates.json`
/// to the working directory.
pub fn e14(quick: bool) -> Vec<Table> {
    // 317² = 100489 ≥ 10⁵ elements for the full run; the quick cell
    // keeps CI fast while preserving the shape of the experiment.
    let side: u32 = if quick { 40 } else { 317 };
    let n_updates: usize = if quick { 6 } else { 10 };
    let order = side * side;

    let (x, y) = (v("e14x"), v("e14y"));
    let term = cnt_vec(vec![x, y], and(dist_le(x, y, 2), not(eq(x, y))));
    let cache = Arc::new(TermCache::default());
    let live = Evaluator::builder()
        .kind(EngineKind::Local)
        .shared_cache(cache.clone())
        .build()
        .expect("local evaluator");
    let cold = Evaluator::builder().build().expect("default evaluator");

    let mut delta = DeltaStructure::new(grid(side, side));
    // As `foc serve` does at startup: build the Gaifman graph on the
    // delta's own snapshot (sessions evaluate a clone, so the warm-up
    // evaluation's graph would not reach it), then fill the cache.
    delta.current().gaifman();
    live.eval_ground(delta.current(), &term)
        .expect("initial evaluation");

    let mut rng = StdRng::seed_from_u64(14);
    let e = Symbol::new("E");
    let mut t = Table::new(
        format!("E14: live updates on grid({side},{side}) — serve write path vs rebuild"),
        &[
            "update",
            "op",
            "affected",
            "commit µs",
            "migrate µs",
            "delta µs",
            "rebuild µs",
            "speedup",
        ],
    );
    let mut cells = Vec::new();
    while cells.len() < n_updates {
        // A seeded single-edge toggle: insert the edge if absent, delete
        // it if present, so every update is an effective commit.
        let u = rng.gen_range(0..order);
        let w = rng.gen_range(0..order);
        if u == w {
            continue;
        }
        let (a, b) = (u.min(w), u.max(w));
        let insert = !delta.current().holds(e, &[a, b]);
        let ops = if insert {
            [TupleOp::insert("E", &[a, b]), TupleOp::insert("E", &[b, a])]
        } else {
            [TupleOp::delete("E", &[a, b]), TupleOp::delete("E", &[b, a])]
        };
        let op = format!("{}E({a},{b})", if insert { '+' } else { '-' });

        let t_delta = Instant::now();
        let old = delta.snapshot();
        let info = delta.apply(&ops).expect("toggle commits");
        let commit_micros = t_delta.elapsed().as_micros() as u64;
        let new = delta.snapshot();
        let t_migrate = Instant::now();
        let stats = migrate_cache(&cache, &old, &new, &info.touched, live.predicates());
        cache.evict_structure(old.fingerprint());
        let migrate_micros = t_migrate.elapsed().as_micros() as u64;
        let value = live.eval_ground(&new, &term).expect("cached evaluation");
        let delta_micros = t_delta.elapsed().as_micros() as u64;
        assert!(
            info.changed > 0 && stats.migrated > 0,
            "toggle stream must produce effective commits with migrated terms"
        );

        let t_rebuild = Instant::now();
        let rebuilt = delta.rebuild_from_scratch();
        let want = cold
            .eval_ground(&rebuilt, &term)
            .expect("rebuild evaluation");
        let rebuild_micros = t_rebuild.elapsed().as_micros() as u64;
        assert_eq!(
            value,
            want,
            "serve write path diverged from rebuild at update {} ({op})",
            cells.len()
        );

        let cell = UpdateCell {
            op,
            affected: stats.recomputed,
            commit_micros,
            migrate_micros,
            delta_micros,
            rebuild_micros,
        };
        t.row(vec![
            cells.len().to_string(),
            cell.op.clone(),
            cell.affected.to_string(),
            cell.commit_micros.to_string(),
            cell.migrate_micros.to_string(),
            cell.delta_micros.to_string(),
            cell.rebuild_micros.to_string(),
            format!("{:.1}x", cell.speedup()),
        ]);
        cells.push(cell);
    }

    let median_speedup = median_by(&cells, UpdateCell::speedup);
    if !quick {
        assert!(
            median_speedup >= 10.0,
            "median speedup {median_speedup:.1}x below the 10x bar at 10^5 elements"
        );
    }

    let json = emit_json(&cells, order, quick);
    match std::fs::write("BENCH_updates.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_updates.json"),
        Err(e) => eprintln!("could not write BENCH_updates.json: {e}"),
    }
    vec![t]
}
