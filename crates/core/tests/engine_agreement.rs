//! Cross-engine agreement: the Local and Cover engines must compute
//! exactly what the reference semantics computes, on every structure
//! class and for all the paper's example queries.

use std::sync::Arc;

use foc_core::{EngineKind, Evaluator};
use foc_logic::build::*;
use foc_logic::parse::{parse_formula, parse_term};
use foc_logic::{Formula, Term};
use foc_structures::gen::{
    caterpillar, cycle, example_colored, graph_structure, grid, path, random_tree, star,
};
use foc_structures::{RelDecl, Structure};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn structures() -> Vec<Structure> {
    let mut rng = StdRng::seed_from_u64(2718);
    vec![
        path(14),
        cycle(11),
        star(9),
        grid(4, 4),
        caterpillar(5, 2),
        random_tree(16, &mut rng),
        graph_structure(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (4, 5),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 6),
            ],
        ),
    ]
}

fn engines() -> [Evaluator; 3] {
    [
        Evaluator::builder()
            .kind(EngineKind::Naive)
            .build()
            .unwrap(),
        Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap(),
        Evaluator::builder()
            .kind(EngineKind::Cover)
            .build()
            .unwrap(),
    ]
}

fn agree_sentence(f: &Arc<Formula>) {
    let [naive, local, cover] = engines();
    for s in structures() {
        let want = naive.check_sentence(&s, f).unwrap();
        assert_eq!(
            local.check_sentence(&s, f).unwrap(),
            want,
            "Local disagrees on {f} (order {})",
            s.order()
        );
        assert_eq!(
            cover.check_sentence(&s, f).unwrap(),
            want,
            "Cover disagrees on {f} (order {})",
            s.order()
        );
    }
}

fn agree_ground(t: &Arc<Term>) {
    let [naive, local, cover] = engines();
    for s in structures() {
        let want = naive.eval_ground(&s, t).unwrap();
        assert_eq!(
            local.eval_ground(&s, t).unwrap(),
            want,
            "Local on {t} (order {})",
            s.order()
        );
        assert_eq!(
            cover.eval_ground(&s, t).unwrap(),
            want,
            "Cover on {t} (order {})",
            s.order()
        );
    }
}

#[test]
fn example_3_2_prime_sentence() {
    // Prime(#(x).x=x + #(x,y).E(x,y)).
    let f = parse_formula("@prime(#(x). (x = x) + #(x,y). E(x,y))").unwrap();
    agree_sentence(&f);
}

#[test]
fn out_degree_ge_one() {
    // ∃y (P≥1 applied to the out-degree of y).
    let f = parse_formula("exists y. #(z). E(y,z) >= 1").unwrap();
    agree_sentence(&f);
    let g = parse_formula("exists y. !(#(z). E(y,z) >= 1)").unwrap();
    agree_sentence(&g);
}

#[test]
fn degree_counts_as_ground_terms() {
    for src in [
        "#(x,y). E(x,y)",
        "#(x). #(y). E(x,y) = 2",
        "2 * #(x,y). (E(x,y) & !(x=y)) - 3",
        "#(x,y). (dist(x,y) <= 2 & !(x = y))",
        "#(x,y). !(E(x,y))",
    ] {
        let t = parse_term(src).unwrap();
        agree_ground(&t);
    }
}

#[test]
fn nested_cardinality_conditions() {
    // "There is a vertex whose degree equals the number of leaves" —
    // #-depth 2 with a ground inner term.
    let f = parse_formula("exists x. (#(y). E(x,y) = #(z). (#(w). E(z,w) = 1))").unwrap();
    agree_sentence(&f);
}

#[test]
fn cardinality_with_boolean_structure() {
    let f =
        parse_formula("exists x. ((#(y). E(x,y) >= 2 | #(y). E(x,y) = 0) & !(#(y). E(x,y) = 1))")
            .unwrap();
    agree_sentence(&f);
}

#[test]
fn example_5_4_triangle_machinery() {
    // On the coloured digraph of Example 5.4.
    let s = example_colored();
    let x = v("x");
    let y = v("y");
    let z = v("z");
    // t_Δ(x): number of directed triangles through x.
    let t_delta = cnt_vec(
        vec![y, z],
        and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, x])]),
    );
    // t_R: number of red nodes.
    let t_red = cnt_vec(vec![x], atom_vec("R", vec![x]));
    // φ_{Δ,R}: some node participates in as many triangles as there are
    // red nodes.
    let f = exists(x, teq(t_delta.clone(), t_red.clone()));
    let [naive, local, cover] = engines();
    let want = naive.check_sentence(&s, &f).unwrap();
    assert_eq!(local.check_sentence(&s, &f).unwrap(), want);
    assert_eq!(cover.check_sentence(&s, &f).unwrap(), want);
    // Ground: t_{Δ,R} = #(x).φ_{Δ,R}(x).
    let t = cnt_vec(vec![x], teq(t_delta, t_red));
    let want_t = naive.eval_ground(&s, &t).unwrap();
    assert_eq!(local.eval_ground(&s, &t).unwrap(), want_t);
    assert_eq!(cover.eval_ground(&s, &t).unwrap(), want_t);
    // On the 3-cycle 0→1→2→0 plus pendant 3→0: nodes 0,1,2 are in one
    // triangle each, and there is exactly 1 red node — so the count is 3.
    assert_eq!(want_t, 3);
}

#[test]
fn counting_problem_corollary_5_6() {
    // |φ(A)| for φ(x,y) = E(x,y) ∧ deg(x) ≥ 2.
    let x = v("x");
    let y = v("y");
    let z = v("z");
    let phi = and(
        atom("E", [x, y]),
        tle(int(2), cnt_vec(vec![z], atom("E", [x, z]))),
    );
    let [naive, local, cover] = engines();
    for s in structures() {
        let want = naive.count(&s, &phi, &[x, y]).unwrap();
        assert_eq!(
            local.count(&s, &phi, &[x, y]).unwrap(),
            want,
            "order {}",
            s.order()
        );
        assert_eq!(
            cover.count(&s, &phi, &[x, y]).unwrap(),
            want,
            "order {}",
            s.order()
        );
    }
}

#[test]
fn model_checking_with_parameters() {
    // Theorem 5.5 interface: A ⊨ φ[ā].
    let x = v("x");
    let y = v("y");
    let phi = teq(
        cnt_vec(vec![y], atom("E", [x, y])),
        cnt_vec(
            vec![y],
            and(
                atom("E", [x, y]),
                tle(int(2), cnt_vec(vec![v("w")], atom("E", [y, v("w")]))),
            ),
        ),
    );
    let [naive, local, cover] = engines();
    for s in structures() {
        for a in [0u32, s.order() / 2, s.order() - 1] {
            let want = naive.check(&s, &phi, &[x], &[a]).unwrap();
            assert_eq!(local.check(&s, &phi, &[x], &[a]).unwrap(), want);
            assert_eq!(cover.check(&s, &phi, &[x], &[a]).unwrap(), want);
        }
    }
}

#[test]
fn term_evaluation_with_parameters() {
    let x = v("x");
    let y = v("y");
    let t = add(mul(int(3), cnt_vec(vec![y], atom("E", [x, y]))), int(-1));
    let [naive, local, cover] = engines();
    for s in structures() {
        for a in [0u32, s.order() - 1] {
            let want = naive.eval_term_at(&s, &t, &[x], &[a]).unwrap();
            assert_eq!(local.eval_term_at(&s, &t, &[x], &[a]).unwrap(), want);
            assert_eq!(cover.eval_term_at(&s, &t, &[x], &[a]).unwrap(), want);
        }
    }
}

#[test]
fn out_of_range_parameters_error_instead_of_panicking() {
    // Caller-supplied tuples are untrusted: an element id beyond the
    // universe must come back as a typed error through every public
    // parameterised entry point, on every engine.
    let x = v("x");
    let y = v("y");
    let phi = teq(cnt_vec(vec![y], atom("E", [x, y])), int(1));
    let t = cnt_vec(vec![y], atom("E", [x, y]));
    let s = path(5);
    for ev in engines() {
        for bad in [5u32, 6, u32::MAX] {
            assert!(matches!(
                ev.check(&s, &phi, &[x], &[bad]),
                Err(foc_core::Error::Eval(
                    foc_eval::EvalError::ElementOutOfRange { element, order: 5 }
                )) if element == bad
            ));
            assert!(matches!(
                ev.eval_term_at(&s, &t, &[x], &[bad]),
                Err(foc_core::Error::Eval(
                    foc_eval::EvalError::ElementOutOfRange { .. }
                ))
            ));
        }
        // In-range parameters still work.
        assert!(ev.check(&s, &phi, &[x], &[0]).is_ok());
    }
}

#[test]
fn non_foc1_is_rejected_by_decomposing_engines() {
    // ψ_E-style guard over two free variables: FOC(P) ∖ FOC1(P).
    let x = v("x");
    let y = v("y");
    let z = v("z");
    let f = exists(
        x,
        exists(
            y,
            teq(
                cnt_vec(vec![z], atom("E", [x, z])),
                cnt_vec(vec![z], atom("E", [y, z])),
            ),
        ),
    );
    let local = Evaluator::builder()
        .kind(EngineKind::Local)
        .build()
        .unwrap();
    let s = path(5);
    assert!(matches!(
        local.check_sentence(&s, &f),
        Err(foc_core::Error::NotFoc1(_))
    ));
    // The naive engine still handles it (it is complete for FOC(P))…
    // via the foc-eval reference evaluator directly.
    let p = foc_logic::Predicates::standard();
    let mut ev = foc_eval::NaiveEvaluator::new(&s, &p);
    assert!(ev.check_sentence(&f).unwrap());
}

#[test]
fn huge_distance_bound_degrades_instead_of_truncating() {
    // dist(x,y) ≤ u32::MAX yields r = 2^31, so 2r+1 no longer fits the
    // δ-formula's u32 bound. The decomposing engines must refuse (a
    // truncated bound would change the counted set) and, under the
    // default FallThrough policy, answer through the naive engine.
    let t = parse_term("#(x,y). (dist(x,y) <= 4294967295 & !(x = y))").unwrap();
    let naive = Evaluator::builder()
        .kind(EngineKind::Naive)
        .build()
        .unwrap();
    for s in structures() {
        let want = naive.eval_ground(&s, &t).unwrap();
        for kind in [EngineKind::Local, EngineKind::Cover] {
            let ev = Evaluator::builder().kind(kind).build().unwrap();
            assert_eq!(
                ev.eval_ground(&s, &t).unwrap(),
                want,
                "{kind:?} must degrade to the reference answer (order {})",
                s.order()
            );
        }
    }
    // Under Strict the capability error surfaces as RadiusTooLarge.
    let strict = Evaluator::builder()
        .kind(EngineKind::Local)
        .degrade(foc_core::DegradePolicy::Strict)
        .build()
        .unwrap();
    let s = path(6);
    assert!(matches!(
        strict.eval_ground(&s, &t),
        Err(foc_core::Error::Locality(
            foc_locality::LocalityError::RadiusTooLarge { .. }
        ))
    ));
}

#[test]
fn plan_and_stats_are_populated() {
    let f = parse_formula("exists x. #(y). E(x,y) >= 1").unwrap();
    let ev = Evaluator::builder()
        .kind(EngineKind::Local)
        .build()
        .unwrap();
    let s = grid(5, 5);
    let mut session = ev.session(&s);
    let result = session.check_sentence(&f).unwrap();
    assert!(result);
    assert_eq!(
        session.stats().markers_created,
        1,
        "one unary marker for the P≥1 guard"
    );
    assert_eq!(session.plan.len(), 1);
    assert_eq!(session.plan[0].arity, 1);
    assert!(session.plan[0].definition.contains("le") || session.plan[0].definition.contains("ge"));
    assert!(session.stats().clterms >= 1);
}

#[test]
fn queries_with_unary_head() {
    // { (x, deg(x)) : deg(x) ≥ 2 } on all classes.
    let x = v("x");
    let y = v("y");
    let q = foc_logic::Query::new(
        vec![x],
        vec![cnt_vec(vec![y], atom("E", [x, y]))],
        tle(int(2), cnt_vec(vec![y], atom("E", [x, y]))),
    )
    .unwrap();
    let [naive, local, cover] = engines();
    for s in structures() {
        let want = naive.query(&s, &q).unwrap();
        assert_eq!(local.query(&s, &q).unwrap(), want, "order {}", s.order());
        assert_eq!(cover.query(&s, &q).unwrap(), want, "order {}", s.order());
    }
}

// ---------------------------------------------------------------------------
// Parallel-vs-sequential agreement: evaluation with any thread count must be
// bit-identical to the single-threaded run — same booleans, same integers,
// element for element — with and without the memo cache. This is the
// determinism contract of the work-stealing cluster scheduler: clusters are
// distributed dynamically, but every value is written back under its element
// id, so scheduling order never shows through.

use proptest::prelude::*;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn engine_with(kind: EngineKind, threads: usize, cache: bool) -> Evaluator {
    Evaluator::builder()
        .kind(kind)
        .threads(threads)
        .cache(cache)
        .build()
        .unwrap()
}

#[test]
fn parallel_sentences_are_bit_identical() {
    let sentences = [
        parse_formula("exists x. #(y). E(x,y) >= 1").unwrap(),
        parse_formula("exists x. (#(y). E(x,y) = #(z). (#(w). E(z,w) = 1))").unwrap(),
        parse_formula("@prime(#(x). (x = x) + #(x,y). E(x,y))").unwrap(),
    ];
    for kind in [EngineKind::Local, EngineKind::Cover] {
        let baseline = engine_with(kind, 1, false);
        for s in structures() {
            for f in &sentences {
                let want = baseline.check_sentence(&s, f).unwrap();
                for threads in THREAD_SWEEP {
                    for cache in [false, true] {
                        let ev = engine_with(kind, threads, cache);
                        assert_eq!(
                            ev.check_sentence(&s, f).unwrap(),
                            want,
                            "{kind:?} threads={threads} cache={cache} on {f} (order {})",
                            s.order()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_ground_terms_are_bit_identical() {
    let terms = [
        parse_term("#(x). #(y). E(x,y) = 2").unwrap(),
        parse_term("2 * #(x,y). (E(x,y) & !(x=y)) - 3").unwrap(),
        parse_term("#(x,y). (dist(x,y) <= 2 & !(x = y))").unwrap(),
    ];
    for kind in [EngineKind::Local, EngineKind::Cover] {
        let baseline = engine_with(kind, 1, false);
        for s in structures() {
            for t in &terms {
                let want = baseline.eval_ground(&s, t).unwrap();
                for threads in THREAD_SWEEP {
                    let ev = engine_with(kind, threads, true);
                    assert_eq!(
                        ev.eval_ground(&s, t).unwrap(),
                        want,
                        "{kind:?} threads={threads} on {t} (order {})",
                        s.order()
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_query_tables_are_identical() {
    // Whole result tables — row order included — must not depend on the
    // thread count.
    let x = v("x");
    let y = v("y");
    let q = foc_logic::Query::new(
        vec![x],
        vec![cnt_vec(vec![y], atom("E", [x, y]))],
        tle(int(2), cnt_vec(vec![y], atom("E", [x, y]))),
    )
    .unwrap();
    for kind in [EngineKind::Local, EngineKind::Cover] {
        let baseline = engine_with(kind, 1, false);
        for s in structures() {
            let want = baseline.query(&s, &q).unwrap();
            for threads in THREAD_SWEEP {
                let ev = engine_with(kind, threads, true);
                assert_eq!(
                    ev.query(&s, &q).unwrap(),
                    want,
                    "{kind:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn parallel_runs_populate_structured_metrics() {
    let f = parse_formula("exists x. #(y). E(x,y) >= 1").unwrap();
    let ev = engine_with(EngineKind::Cover, 8, true);
    // The hub makes its cluster a materialised one, which the peak tracks.
    let s = star(36);
    let mut session = ev.session(&s);
    assert!(session.check_sentence(&f).unwrap());
    assert!(
        session.stats().clusters > 0,
        "cover evaluation must report clusters"
    );
    assert!(
        session.stats().peak_cluster >= 1,
        "peak cluster size must be tracked"
    );
    assert!(session.stats().covers_built > 0);
    assert!(
        session.stats().cache_misses > 0,
        "the first run populates the cache via misses"
    );
    // A marker-free term repeated in one session runs on the same
    // structure, so its second evaluation is answered from the session
    // memo at the top level: hits grow and no miss is added. (A repeated
    // *sentence* promises less: each resolution adds its own marker, so
    // its structure, and with it every memo key, is new.)
    let t = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let first = session.eval_ground(&t).unwrap();
    let (hits, misses) = (session.stats().cache_hits, session.stats().cache_misses);
    assert_eq!(session.eval_ground(&t).unwrap(), first);
    assert!(
        session.stats().cache_hits > hits,
        "the repeat must hit the memo: {:?}",
        session.stats()
    );
    assert_eq!(
        session.stats().cache_misses,
        misses,
        "the repeat must not miss: {:?}",
        session.stats()
    );
}

#[test]
fn cache_can_be_disabled() {
    let f = parse_formula("exists x. #(y). E(x,y) >= 1").unwrap();
    let ev = engine_with(EngineKind::Cover, 2, false);
    let s = grid(5, 5);
    let mut session = ev.session(&s);
    assert!(session.check_sentence(&f).unwrap());
    assert!(session.check_sentence(&f).unwrap());
    assert_eq!(session.stats().cache_hits, 0);
    assert_eq!(session.stats().cache_misses, 0);
}

/// A random small graph structure: `n ∈ [2, 10]`, random edge list.
fn arb_structure() -> impl Strategy<Value = Structure> {
    (
        2u32..11,
        proptest::collection::vec((0u32..11, 0u32..11), 0..18),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            graph_structure(n, &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// On random structures, every engine at every thread count computes
    /// the reference count, bit for bit.
    #[test]
    fn prop_parallel_counts_match_reference(s in arb_structure(), qi in 0usize..3) {
        let x = v("x");
        let y = v("y");
        let z = v("z");
        let queries = [
            // deg(x) ≥ 2 selection over pairs.
            and(atom("E", [x, y]), tle(int(2), cnt_vec(vec![z], atom("E", [x, z])))),
            // Distance-2 pairs.
            and(dist_le(x, y, 2), not(eq(x, y))),
            // Vertices whose degree equals 1, paired with their neighbour.
            and(atom("E", [x, y]), teq(cnt_vec(vec![z], atom("E", [x, z])), int(1))),
        ];
        let phi = &queries[qi];
        let naive = engine_with(EngineKind::Naive, 1, false);
        let want = naive.count(&s, phi, &[x, y]).unwrap();
        for kind in [EngineKind::Local, EngineKind::Cover] {
            for threads in THREAD_SWEEP {
                let ev = engine_with(kind, threads, true);
                prop_assert_eq!(
                    ev.count(&s, phi, &[x, y]).unwrap(),
                    want,
                    "{:?} threads={} on order {}", kind, threads, s.order()
                );
            }
        }
    }

    /// Parallel ground-term evaluation with the cache agrees with the
    /// cacheless single-thread run on random structures.
    #[test]
    fn prop_parallel_ground_terms_match(s in arb_structure()) {
        let t = parse_term("#(x). (#(y). E(x,y) >= 1) + #(x,y). (dist(x,y) <= 2 & !(x=y))").unwrap();
        let baseline = engine_with(EngineKind::Cover, 1, false).eval_ground(&s, &t).unwrap();
        for threads in THREAD_SWEEP {
            for kind in [EngineKind::Local, EngineKind::Cover] {
                let ev = engine_with(kind, threads, true);
                prop_assert_eq!(ev.eval_ground(&s, &t).unwrap(), baseline);
            }
        }
    }
}

#[test]
fn user_relation_named_s_does_not_break_cover_removal() {
    // A unary relation called `S` sits next to the removal lemma's
    // distance markers in every σ̃ the cover recursion builds; the cover
    // engine must still answer what the local engine answers.
    let s = grid(12, 12).expand(vec![(RelDecl::new("S", 1), vec![vec![0]])]);
    let t = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let [_, local, cover] = engines();
    let want = local.eval_ground(&s, &t).unwrap();
    assert_eq!(cover.eval_ground(&s, &t).unwrap(), want);
}
