//! E10 — the Removal Lemma (Lemmas 7.8/7.9): exhaustive semantic
//! validation of the surgery and its rewritings, plus overhead
//! measurements.

use std::collections::BTreeSet;
use std::time::Instant;

use foc_covers::removal::{new_id, remove_element, remove_formula, remove_unary_count};
use foc_eval::{Assignment, NaiveEvaluator};
use foc_logic::build::*;
use foc_logic::{Predicates, Var};
use foc_structures::gen::{bounded_degree, grid, random_tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{fmt_duration, Table};

/// E10: Removal Lemma validation and overhead.
pub fn e10(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E10 (Lemmas 7.8/7.9): removal surgery A ↦ A *_r d — correctness and overhead",
        &[
            "structure",
            "n",
            "checks",
            "mismatches",
            "‖A*d‖ / ‖A‖",
            "surgery time",
        ],
    );
    let preds = Predicates::standard();
    let x = v("e10x");
    let y = v("e10y");
    let z = v("e10z");
    let formulas = vec![
        atom("E", [x, y]),
        and(dist_le(x, y, 2), not(eq(x, y))),
        exists(z, and(atom("E", [x, z]), atom("E", [z, y]))),
        forall(z, or(not(atom("E", [x, z])), dist_le(z, y, 3))),
    ];
    let mut rng = StdRng::seed_from_u64(1010);
    let reps = if quick { 2 } else { 5 };
    let structures = vec![
        ("random tree", random_tree(24, &mut rng)),
        ("grid 5×5", grid(5, 5)),
        ("degree ≤ 3", bounded_degree(24, 3, 72, &mut rng)),
    ];
    for (name, s) in structures {
        let mut checks = 0u64;
        let mut mismatches = 0u64;
        let mut size_ratio = 0.0f64;
        let mut surgery_time = std::time::Duration::ZERO;
        for _ in 0..reps {
            let d = rng.gen_range(0..s.order());
            let t0 = Instant::now();
            let rem = remove_element(&s, d, 3);
            surgery_time += t0.elapsed();
            size_ratio += rem.size() as f64 / s.size() as f64;
            // Formula rewriting: sampled assignments.
            for f in &formulas {
                for _ in 0..40 {
                    let a = rng.gen_range(0..s.order());
                    let b = rng.gen_range(0..s.order());
                    let pairs = [(x, a), (y, b)];
                    let vset: BTreeSet<Var> = pairs
                        .iter()
                        .filter(|(_, e)| *e == d)
                        .map(|(v, _)| *v)
                        .collect();
                    let mut ev = NaiveEvaluator::new(&s, &preds);
                    let mut env = Assignment::from_pairs(pairs);
                    let want = ev.check(f, &mut env).unwrap();
                    let rewritten = remove_formula(f, &vset, 3);
                    let mut ev2 = NaiveEvaluator::new(&rem, &preds);
                    let mut env2 = Assignment::from_pairs(
                        pairs
                            .iter()
                            .filter(|(_, e)| *e != d)
                            .map(|(v, e)| (*v, new_id(d, *e))),
                    );
                    let got = ev2.check(&rewritten, &mut env2).unwrap();
                    checks += 1;
                    mismatches += u64::from(want != got);
                }
            }
            // Term rewriting (Lemma 7.9): degree terms at every element.
            let body = or(atom("E", [x, y]), dist_le(x, y, 2));
            let (when_d, when_not_d) = remove_unary_count(x, &[y], &body, 3);
            let term = cnt([y], body.clone());
            let mut ev = NaiveEvaluator::new(&s, &preds);
            let mut ev2 = NaiveEvaluator::new(&rem, &preds);
            for a in s.universe() {
                let mut env = Assignment::from_pairs([(x, a)]);
                let want = ev.eval_term(&term, &mut env).unwrap();
                let got: i64 = if a == d {
                    when_d
                        .iter()
                        .map(|rc| {
                            let tt = cnt_vec(rc.counted.clone(), rc.body.clone());
                            ev2.eval_ground(&tt).unwrap()
                        })
                        .sum()
                } else {
                    when_not_d
                        .iter()
                        .map(|rc| {
                            let tt = cnt_vec(rc.counted.clone(), rc.body.clone());
                            let mut env2 = Assignment::from_pairs([(x, new_id(d, a))]);
                            ev2.eval_term(&tt, &mut env2).unwrap()
                        })
                        .sum()
                };
                checks += 1;
                mismatches += u64::from(want != got);
            }
        }
        t.row(vec![
            name.into(),
            s.order().to_string(),
            checks.to_string(),
            mismatches.to_string(),
            format!("{:.2}", size_ratio / reps as f64),
            fmt_duration(surgery_time / reps),
        ]);
    }
    t.note(
        "The size ratio reflects the relation splitting (R̃_I) plus the S_i \
         markers; it stays a small constant, as the linear-time claim in \
         Section 7.3 requires.",
    );
    vec![t]
}
