//! E15 — anytime evaluation: answer quality versus budget.
//!
//! The deepening driver promises *graceful* degradation: a tighter
//! budget may stop at a weaker rung of the pass ladder, but the banked
//! answer it returns is sound for its tag, and giving the driver more
//! budget never makes the answer worse. This experiment measures that
//! curve on a locality-heavy counting query under the cover engine
//! (the full sample → approx → local → exact ladder): one run per fuel budget
//! in an increasing sweep, each recording the confidence tag, the
//! banked value, and quality = banked / exact ∈ [0, 1].
//!
//! Budgets are fuel-only, so every cell is deterministic — the sweep is
//! a function of the seed structure alone, not of machine speed. The
//! experiment asserts the acceptance property end to end: quality is
//! monotonically non-decreasing as the budget grows, and the unbounded
//! run is exact.
//!
//! Besides the markdown table, the experiment writes
//! `BENCH_anytime.json` to the current directory: one record per
//! budget plus a summary with the exact value and the first budget
//! that reached the exact rung.

use std::fmt::Write as _;
use std::time::Instant;

use foc_core::{Confidence, EngineKind, Error, Evaluator};
use foc_logic::build::{cnt, dist_le, not, v};
use foc_structures::gen::grid;

use crate::table::Table;

struct BudgetCell {
    fuel: Option<u64>,
    confidence: String,
    value: Option<i64>,
    quality: f64,
    passes: String,
    micros: u64,
    fuel_spent: u64,
}

fn fuel_label(fuel: Option<u64>) -> String {
    match fuel {
        Some(f) => f.to_string(),
        None => "unbounded".into(),
    }
}

fn emit_json(cells: &[BudgetCell], order: u32, exact: i64, quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"experiment\": \"E15 anytime evaluation: quality vs budget\","
    );
    let _ = writeln!(out, "  \"engine\": \"cover\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"order\": {order},");
    let _ = writeln!(out, "  \"query\": \"#(x,y). not dist<=2(x,y)\",");
    let _ = writeln!(
        out,
        "  \"note\": \"fuel-only budgets keep every cell deterministic; quality = banked value / exact value, 0 when no pass banked an answer\","
    );
    let _ = writeln!(out, "  \"budgets\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"fuel\": {},",
            c.fuel.map_or("null".into(), |f| f.to_string())
        );
        let _ = writeln!(out, "      \"confidence\": \"{}\",", c.confidence);
        let _ = writeln!(
            out,
            "      \"value\": {},",
            c.value.map_or("null".into(), |x| x.to_string())
        );
        let _ = writeln!(out, "      \"quality\": {:.4},", c.quality);
        let _ = writeln!(out, "      \"passes\": \"{}\",", c.passes);
        let _ = writeln!(out, "      \"micros\": {},", c.micros);
        let _ = writeln!(out, "      \"fuel_spent\": {}", c.fuel_spent);
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"summary\": {{");
    let _ = writeln!(out, "    \"exact_value\": {exact},");
    let _ = writeln!(out, "    \"budgets\": {},", cells.len());
    let _ = writeln!(
        out,
        "    \"first_exact_fuel\": {},",
        cells
            .iter()
            .find(|c| c.confidence == "exact")
            .map_or("null".into(), |c| fuel_label(c.fuel))
    );
    let _ = writeln!(out, "    \"quality_monotone\": true");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// E15: the quality-vs-budget curve of anytime evaluation. Returns the
/// markdown table and writes `BENCH_anytime.json` to the working
/// directory. Panics if quality ever decreases as the budget grows —
/// that is the acceptance property, checked on every run.
pub fn e15(quick: bool) -> Vec<Table> {
    let side: u32 = if quick { 10 } else { 24 };
    let order = side * side;
    let a = grid(side, side);
    let x = v("e15x");
    let y = v("e15y");
    let query = cnt([x, y], not(dist_le(x, y, 2)));

    // The exact baseline: an unbounded anytime run collapses to one
    // exact pass.
    let unbounded = Evaluator::builder()
        .kind(EngineKind::Cover)
        .build()
        .expect("the unbounded cover engine is a valid configuration");
    let exact = unbounded
        .eval_ground_anytime(&a, &query, None, None)
        .expect("unbounded run")
        .value;
    assert!(exact > 0, "the E15 query must have witnesses");

    // An increasing fuel sweep from starved (nothing banked) through
    // degraded (lower bounds, ε-bounded estimates) to exact, ending
    // unbounded.
    let budgets: Vec<Option<u64>> = if quick {
        vec![Some(300), Some(1_000), Some(3_000), Some(30_000), None]
    } else {
        vec![
            Some(300),
            Some(1_000),
            Some(3_000),
            Some(10_000),
            Some(30_000),
            Some(100_000),
            Some(1_000_000),
            None,
        ]
    };

    let mut t = Table::new(
        format!("E15: anytime quality vs fuel budget on grid({side},{side}), cover engine"),
        &[
            "fuel",
            "passes",
            "confidence",
            "value",
            "quality",
            "micros",
            "spent",
        ],
    );
    let mut cells = Vec::new();
    for fuel in budgets {
        let mut b = Evaluator::builder().kind(EngineKind::Cover);
        if let Some(f) = fuel {
            b = b.fuel(f);
        }
        let ev = b.build().expect("budgeted cover engine");
        let t0 = Instant::now();
        let cell = match ev.eval_ground_anytime(&a, &query, None, None) {
            Ok(out) => {
                let quality = (out.value as f64 / exact as f64).clamp(0.0, 1.0);
                BudgetCell {
                    fuel,
                    confidence: out.confidence.to_string(),
                    value: Some(out.value),
                    quality,
                    passes: out
                        .passes
                        .iter()
                        .map(|p| p.pass.name())
                        .collect::<Vec<_>>()
                        .join(">"),
                    micros: t0.elapsed().as_micros() as u64,
                    fuel_spent: out.fuel_spent(),
                }
            }
            Err(Error::Interrupted(i)) => BudgetCell {
                fuel,
                confidence: "none".into(),
                value: None,
                quality: 0.0,
                passes: String::new(),
                micros: t0.elapsed().as_micros() as u64,
                fuel_spent: i.fuel_spent,
            },
            Err(e) => panic!("E15 run failed: {e}"),
        };
        // A lower bound's tag promises value <= exact; re-check it here
        // where the exact value is in hand.
        if let (Some(val), "lower_bound") = (cell.value, cell.confidence.as_str()) {
            assert!(val <= exact, "lower bound {val} exceeds exact {exact}");
        }
        t.row(vec![
            fuel_label(cell.fuel),
            cell.passes.clone(),
            cell.confidence.clone(),
            cell.value.map_or("-".into(), |x| x.to_string()),
            format!("{:.3}", cell.quality),
            cell.micros.to_string(),
            cell.fuel_spent.to_string(),
        ]);
        cells.push(cell);
    }

    // The acceptance property: more budget never means a worse answer.
    for w in cells.windows(2) {
        assert!(
            w[1].quality >= w[0].quality,
            "quality regressed from {:.4} (fuel {}) to {:.4} (fuel {})",
            w[0].quality,
            fuel_label(w[0].fuel),
            w[1].quality,
            fuel_label(w[1].fuel),
        );
    }
    let last = cells.last().expect("at least one budget");
    assert_eq!(last.confidence, Confidence::Exact.to_string());
    assert!((last.quality - 1.0).abs() < f64::EPSILON);

    let json = emit_json(&cells, order, exact, quick);
    match std::fs::write("BENCH_anytime.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_anytime.json"),
        Err(e) => eprintln!("could not write BENCH_anytime.json: {e}"),
    }
    vec![t]
}
