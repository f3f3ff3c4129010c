//! Property-based tests over random structures and random formulas of
//! the separable fragment: the rewriting pipeline must agree with the
//! reference semantics *everywhere*, and the structural invariants of
//! covers and the splitter game must hold on arbitrary graphs.

use std::sync::Arc;

use foc_core::{EngineKind, Evaluator, SumAggregate, Weights};
use foc_covers::cover::build_cover;
use foc_covers::removal::{new_id, remove_element, remove_formula};
use foc_eval::{Assignment, NaiveEvaluator};
use foc_locality::decompose::decompose_ground;
use foc_locality::gnf::gaifman_nf;
use foc_logic::build::*;
use foc_logic::parse::parse_formula;
use foc_logic::{Formula, Predicates, Term, Var};
use foc_structures::gen::graph_structure;
use foc_structures::Structure;
use proptest::prelude::*;

/// A random small graph structure: `n ∈ [2, 9]`, random edge list.
fn arb_structure() -> impl Strategy<Value = Structure> {
    (
        2u32..9,
        proptest::collection::vec((0u32..9, 0u32..9), 0..14),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            graph_structure(n, &edges)
        })
}

/// Variable pool used by the formula generator.
fn pool() -> Vec<Var> {
    vec![v("p0"), v("p1"), v("p2")]
}

/// A random quantifier-free-plus-guarded formula of the separable
/// fragment over the `{E/2}` signature with free variables from `pool`.
fn arb_fragment_formula() -> impl Strategy<Value = Arc<Formula>> {
    let vars = pool();
    let leaf = {
        let vars = vars.clone();
        prop_oneof![
            (0usize..3, 0usize..3).prop_map({
                let vars = vars.clone();
                move |(i, j)| atom_vec("E", vec![vars[i], vars[j]])
            }),
            (0usize..3, 0usize..3).prop_map({
                let vars = vars.clone();
                move |(i, j)| eq(vars[i], vars[j])
            }),
            (0usize..3, 0usize..3, 1u32..4).prop_map({
                let vars = vars.clone();
                move |(i, j, d)| dist_le(vars[i], vars[j], d)
            }),
        ]
    };
    leaf.prop_recursive(3, 24, 3, move |inner| {
        let vars2 = pool();
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| or(a, b)),
            inner.clone().prop_map(not),
            // Guarded existential: ∃z (E(anchor, z) ∧ ψ[p_i := z]).
            (inner, 0usize..3, 0usize..3).prop_map(move |(body, anchor, replaced)| {
                let z = Var::fresh("q");
                let mut map = std::collections::HashMap::new();
                map.insert(vars2[replaced], z);
                let renamed = foc_logic::subst::rename_free(&body, &map);
                exists(z, and(atom_vec("E", vec![vars2[anchor], z]), renamed))
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Gaifman normal form preserves semantics on arbitrary structures
    /// and assignments (Theorem 6.7 for the fragment).
    #[test]
    fn gnf_preserves_semantics(s in arb_structure(), f in arb_fragment_formula(), seed in 0u32..100) {
        let g = match gaifman_nf(&f) {
            Ok(g) => g,
            Err(_) => return Ok(()), // outside the supported fragment: fine
        };
        let preds = Predicates::standard();
        let mut ev = NaiveEvaluator::new(&s, &preds);
        let n = s.order();
        let free: Vec<Var> = f.free_vars().into_iter().collect();
        let assignment: Vec<(Var, u32)> = free
            .iter()
            .enumerate()
            .map(|(i, &var)| (var, (seed + i as u32 * 7) % n))
            .collect();
        let mut env = Assignment::from_pairs(assignment);
        let want = ev.check(&f, &mut env).unwrap();
        let got = ev.check(&g, &mut env).unwrap();
        prop_assert_eq!(want, got, "GNF broke {} on order {}", f, n);
    }

    /// The Lemma 6.4 decomposition computes the same count as the direct
    /// semantics, for width-2 counting over random fragment bodies.
    #[test]
    fn decomposition_counts_correctly(s in arb_structure(), f in arb_fragment_formula()) {
        let vars = pool();
        let counted = &vars[..2];
        let cl = match decompose_ground(&f, counted) {
            Ok(cl) => cl,
            Err(_) => return Ok(()),
        };
        let preds = Predicates::standard();
        let term = Arc::new(Term::Count(counted.to_vec().into_boxed_slice(), f.clone()));
        // Only ground counting here: drop cases with a third free var.
        if term.free_vars().is_empty() {
            let mut ev = NaiveEvaluator::new(&s, &preds);
            let want = ev.eval_ground(&term).unwrap();
            let got = cl.eval_naive(&s, &preds, None).unwrap();
            prop_assert_eq!(want, got, "decomposition broke #{:?}.{}", counted, f);
        }
    }

    /// Local and Cover engines agree with the reference on random FOC1
    /// sentences built from random bodies.
    #[test]
    fn engines_agree_on_random_sentences(s in arb_structure(), f in arb_fragment_formula(), c in 0i64..4) {
        let vars = pool();
        // Sentence: #(p0,p1).ψ' ≥ c where ψ' closes the third variable
        // with a guarded quantifier if needed.
        let mut body = f;
        if body.free_vars().contains(&vars[2]) {
            body = exists(vars[2], and(atom_vec("E", vec![vars[0], vars[2]]), body));
        }
        let term = cnt_vec(vec![vars[0], vars[1]], body);
        let sentence = tle(int(c), term);
        prop_assume!(sentence.is_sentence());
        let naive = Evaluator::builder().kind(EngineKind::Naive).build().unwrap();
        let want = naive.check_sentence(&s, &sentence).unwrap();
        for kind in [EngineKind::Local, EngineKind::Cover] {
            let ev = Evaluator::builder().kind(kind).build().unwrap();
            let got = ev.check_sentence(&s, &sentence).unwrap();
            prop_assert_eq!(got, want, "{:?} broke {} on order {}", kind, sentence, s.order());
        }
    }

    /// Covers are valid on arbitrary graphs: N_r(a) ⊆ X(a), radius ≤ 2r.
    #[test]
    fn covers_are_always_valid(s in arb_structure(), r in 1u32..4) {
        let g = s.gaifman();
        let cov = build_cover(g, r);
        prop_assert!(cov.verify(g));
        prop_assert!(cov.max_radius(g) <= 2 * r);
        // Assignment is total.
        prop_assert_eq!(cov.assign.len(), g.n() as usize);
    }

    /// The Removal Lemma rewriting agrees with direct evaluation for
    /// random fragment formulas, elements, and assignments.
    #[test]
    fn removal_rewriting_agrees(
        s in arb_structure(),
        f in arb_fragment_formula(),
        d_seed in 0u32..100,
        a_seed in 0u32..100,
    ) {
        prop_assume!(s.order() >= 2);
        let n = s.order();
        let d = d_seed % n;
        let rem = remove_element(&s, d, 4);
        let preds = Predicates::standard();
        let free: Vec<Var> = f.free_vars().into_iter().collect();
        let assignment: Vec<(Var, u32)> = free
            .iter()
            .enumerate()
            .map(|(i, &var)| (var, (a_seed + 13 * i as u32) % n))
            .collect();
        let vset: std::collections::BTreeSet<Var> =
            assignment.iter().filter(|(_, e)| *e == d).map(|(v, _)| *v).collect();
        let mut ev = NaiveEvaluator::new(&s, &preds);
        let mut env = Assignment::from_pairs(assignment.clone());
        let want = ev.check(&f, &mut env).unwrap();
        let rewritten = remove_formula(&f, &vset, 4);
        let mut ev2 = NaiveEvaluator::new(&rem, &preds);
        let mut env2 = Assignment::from_pairs(
            assignment.iter().filter(|(_, e)| *e != d).map(|(v, e)| (*v, new_id(d, *e))),
        );
        let got = ev2.check(&rewritten, &mut env2).unwrap();
        prop_assert_eq!(want, got, "removal broke {} at d={}", f, d);
    }

    /// SUM aggregates (Section 9 prototype) agree between the naive and
    /// decomposed paths for random fragment bodies and random weights.
    #[test]
    fn sum_aggregate_agrees(s in arb_structure(), f in arb_fragment_formula(), wseed in 0u64..1000) {
        let vars = pool();
        let mut body = f;
        if body.free_vars().contains(&vars[2]) {
            body = exists(vars[2], and(atom_vec("E", vec![vars[0], vars[2]]), body));
        }
        let agg = match SumAggregate::new(vec![vars[0], vars[1]], vars[1], body) {
            Ok(a) => a,
            Err(_) => return Ok(()),
        };
        let weights = Weights::new(
            (0..s.order()).map(|e| ((e as u64 * 2654435761 + wseed) % 41) as i64 - 20).collect(),
        );
        let naive = Evaluator::builder().kind(EngineKind::Naive).build().unwrap().eval_sum(&s, &weights, &agg).unwrap();
        let local = Evaluator::builder().kind(EngineKind::Local).build().unwrap().eval_sum(&s, &weights, &agg).unwrap();
        prop_assert_eq!(naive, local, "SUM broke on order {}", s.order());
    }

    /// Constant-delay enumeration agrees with materialised query
    /// evaluation for random degree-threshold queries.
    #[test]
    fn enumeration_agrees_with_query(s in arb_structure(), c in 0i64..4) {
        let x = v("p0");
        let y = v("p1");
        let q = foc_logic::Query::new(
            vec![x],
            vec![cnt_vec(vec![y], atom_vec("E", vec![x, y]))],
            tle(int(c), cnt_vec(vec![y], atom_vec("E", vec![x, y]))),
        )
        .unwrap();
        let ev = Evaluator::builder().kind(EngineKind::Local).build().unwrap();
        let reference = ev.query(&s, &q).unwrap();
        let streamed: Vec<_> = ev.enumerate_query(&s, &q).unwrap().collect();
        prop_assert_eq!(streamed, reference.rows);
    }

    /// Printing and re-parsing is the identity on random formulas.
    #[test]
    fn print_parse_roundtrip(f in arb_fragment_formula()) {
        let printed = f.to_string();
        let reparsed = parse_formula(&printed).unwrap();
        prop_assert_eq!(&reparsed, &f, "round-trip broke {}", printed);
    }
}
