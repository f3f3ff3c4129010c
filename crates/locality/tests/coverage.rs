//! Additional coverage for the Section 6 machinery: analyzer
//! conservativeness, δ-formula semantics, decomposition over expanded
//! signatures and unary relations, GNF on multi-relation structures, and
//! error paths.

use std::sync::Arc;

use foc_eval::{Assignment, NaiveEvaluator};
use foc_locality::clnf::cl_normalform;
use foc_locality::clterm::ClTerm;
use foc_locality::decompose::{decompose_ground, decompose_unary};
use foc_locality::gk::Gk;
use foc_locality::gnf::gaifman_nf;
use foc_locality::local_eval::{ClValue, LocalEvaluator};
use foc_locality::radius::locality_radius;
use foc_locality::LocalityError;
use foc_logic::build::*;
use foc_logic::{Formula, Predicates, Term, Var};
use foc_structures::gen::{graph_structure, grid, path};
use foc_structures::{Structure, StructureBuilder};

/// A structure with colours and a second binary relation, to exercise
/// multi-relation signatures through the whole pipeline.
fn rich_structure() -> Structure {
    let mut b = StructureBuilder::new();
    b.declare("E", 2);
    b.declare("F", 2);
    b.declare("Red", 1);
    b.ensure_universe(8);
    for (u, w) in [(0u32, 1u32), (1, 2), (2, 3), (5, 6)] {
        b.try_insert("E", &[u, w]).unwrap();
        b.try_insert("E", &[w, u]).unwrap();
    }
    for (u, w) in [(0u32, 2u32), (4, 5), (6, 7)] {
        b.try_insert("F", &[u, w]).unwrap();
    }
    for r in [1u32, 4, 7] {
        b.try_insert("Red", &[r]).unwrap();
    }
    b.finish()
}

#[test]
fn delta_formula_partitions_tuples() {
    // For every k ≤ 3 and r, the δ_G formulas over all G ∈ G_k partition
    // A^k: each tuple satisfies exactly one.
    let s = rich_structure();
    let p = Predicates::standard();
    let mut ev = NaiveEvaluator::new(&s, &p);
    for k in 1..=3usize {
        let vars: Vec<Var> = (0..k).map(|i| Var::new(&format!("dp{i}"))).collect();
        for r in [1u32, 3] {
            let graphs = Gk::enumerate(k).unwrap();
            let mut tuple = vec![0u32; k];
            let mut done = false;
            while !done {
                let mut matches = 0;
                for g in &graphs {
                    let delta = g.delta_formula(&vars, r);
                    let mut env =
                        Assignment::from_pairs(vars.iter().copied().zip(tuple.iter().copied()));
                    if ev.check(&delta, &mut env).unwrap() {
                        matches += 1;
                    }
                }
                assert_eq!(matches, 1, "tuple {tuple:?} at r={r}, k={k}");
                done = true;
                for slot in tuple.iter_mut() {
                    *slot += 1;
                    if *slot < s.order() {
                        done = false;
                        break;
                    }
                    *slot = 0;
                }
            }
        }
    }
}

#[test]
fn decomposition_over_multiple_relations() {
    // Bodies mixing E, F and Red, ground and unary.
    let x = v("mrx");
    let y = v("mry");
    let bodies: Vec<Arc<Formula>> = vec![
        and(atom("E", [x, y]), atom_vec("Red", vec![y])),
        and(atom("F", [x, y]), not(atom("E", [x, y]))),
        or(atom("E", [x, y]), atom("F", [x, y])),
        and(
            not(atom("F", [x, y])),
            and(atom_vec("Red", vec![x]), not(eq(x, y))),
        ),
    ];
    let s = rich_structure();
    let p = Predicates::standard();
    for body in bodies {
        let cl = decompose_ground(&body, &[x, y]).unwrap();
        let term = Arc::new(Term::Count(vec![x, y].into_boxed_slice(), body.clone()));
        let want = NaiveEvaluator::new(&s, &p).eval_ground(&term).unwrap();
        assert_eq!(cl.eval_naive(&s, &p, None).unwrap(), want, "ground {body}");
        let mut lev = LocalEvaluator::new(&s, &p);
        match lev.eval_clterm(&cl).unwrap() {
            ClValue::Scalar(got) => assert_eq!(got, want, "local {body}"),
            ClValue::Vector(_) => panic!("ground term gave a vector"),
        }
        // Unary variant.
        let clu = decompose_unary(&body, &[x, y]).unwrap();
        let tu = Arc::new(Term::Count(vec![y].into_boxed_slice(), body.clone()));
        let mut nev = NaiveEvaluator::new(&s, &p);
        let mut lev = LocalEvaluator::new(&s, &p);
        let got = lev.eval_clterm(&clu).unwrap();
        for a in s.universe() {
            let mut env = Assignment::from_pairs([(x, a)]);
            assert_eq!(
                got.at(a).unwrap(),
                nev.eval_term(&tu, &mut env).unwrap(),
                "unary {body} at {a}"
            );
        }
    }
}

#[test]
fn analyzer_rejects_global_patterns() {
    let x = v("agx");
    let z = v("agz");
    let w = v("agw");
    // Unguarded witness.
    assert!(locality_radius(&exists(z, atom_vec("Red", vec![z]))).is_err());
    // Universal quantifier without NNF.
    assert!(locality_radius(&forall(z, atom("E", [x, z]))).is_err());
    // Quantified sentence inside a Boolean combination.
    let sentence = exists(z, exists(w, atom("E", [z, w])));
    assert!(locality_radius(&and(atom_vec("Red", vec![x]), sentence)).is_err());
}

#[test]
fn analyzer_is_monotone_in_guard_width() {
    let x = v("amx");
    let z = v("amz");
    let r1 = locality_radius(&exists(z, and(dist_le(x, z, 2), atom_vec("Red", vec![z])))).unwrap();
    let r2 = locality_radius(&exists(z, and(dist_le(x, z, 6), atom_vec("Red", vec![z])))).unwrap();
    assert!(
        r2 > r1,
        "larger guards must give larger radii ({r1} vs {r2})"
    );
}

#[test]
fn gnf_on_multi_relation_structures() {
    let s = rich_structure();
    let p = Predicates::standard();
    let x = v("gmx");
    let z = v("gmz");
    // "Some red vertex is not F-related to x" — unguarded, needs the
    // far-witness machinery over a signature with three relations.
    let f = exists(
        z,
        and_all([
            atom_vec("Red", vec![z]),
            not(atom("F", [x, z])),
            not(atom("F", [z, x])),
            not(eq(x, z)),
        ]),
    );
    let g = gaifman_nf(&f).unwrap();
    let mut ev = NaiveEvaluator::new(&s, &p);
    for a in s.universe() {
        let mut env = Assignment::from_pairs([(x, a)]);
        assert_eq!(
            ev.check(&f, &mut env).unwrap(),
            ev.check(&g, &mut env).unwrap(),
            "GNF broke at {a}"
        );
    }
}

#[test]
fn clnf_counts_scattered_sentences_once() {
    // The same sentence occurring twice produces markers that evaluate
    // consistently.
    let a = v("csa");
    let b = v("csb");
    let sentence = exists(a, exists(b, and(not(atom("E", [a, b])), not(eq(a, b)))));
    let f = or(
        and(sentence.clone(), tt()),
        and(Formula::not(sentence.clone()), ff()),
    );
    let clnf = cl_normalform(&f).unwrap();
    // After GNF + extraction the matrix must only contain markers.
    assert!(clnf.matrix.free_vars().is_empty());
    let s = path(6);
    let p = Predicates::standard();
    let mut lev = LocalEvaluator::new(&s, &p);
    let mut values = foc_structures::FxHashMap::default();
    for sent in &clnf.sentences {
        let val = match lev.eval_clterm(&sent.term).unwrap() {
            ClValue::Scalar(v) => v >= 1,
            ClValue::Vector(_) => unreachable!(),
        };
        values.insert(sent.marker, val);
    }
    let resolved = clnf.resolve(&values);
    let mut ev = NaiveEvaluator::new(&s, &p);
    assert_eq!(
        ev.check_sentence(&resolved).unwrap(),
        ev.check_sentence(&f).unwrap()
    );
}

#[test]
fn decompose_rejects_oversized_free_pair_sets() {
    // Width 6 with no guards at all: 15 unconstrained pairs > the cap.
    let vars: Vec<Var> = (0..6).map(|i| Var::new(&format!("os{i}"))).collect();
    let body = tt();
    match decompose_ground(&body, &vars) {
        Err(LocalityError::TooComplex(_)) => {}
        other => panic!("expected TooComplex, got {other:?}"),
    }
}

#[test]
fn clterm_polynomial_identities() {
    // (a − a) evaluates to 0 for any basic term values.
    let x = v("pix");
    let y = v("piy");
    let cl = decompose_ground(&atom("E", [x, y]), &[x, y]).unwrap();
    let zero = ClTerm::sub(cl.clone(), cl.clone());
    let s = grid(3, 3);
    let p = Predicates::standard();
    let mut lev = LocalEvaluator::new(&s, &p);
    match lev.eval_clterm(&zero).unwrap() {
        ClValue::Scalar(v) => assert_eq!(v, 0),
        ClValue::Vector(_) => panic!("ground"),
    }
    assert_eq!(zero.num_basics(), 2 * cl.num_basics());
}

#[test]
fn local_eval_on_zero_ary_marker_bodies() {
    // 0-ary relations inside cl-term bodies (Theorem 6.10 markers) are
    // 0-local and must evaluate inside balls.
    let mut b = StructureBuilder::new();
    b.declare("E", 2);
    b.declare("Flag", 0);
    b.ensure_universe(5);
    for (u, w) in [(0u32, 1u32), (1, 2)] {
        b.try_insert("E", &[u, w]).unwrap();
        b.try_insert("E", &[w, u]).unwrap();
    }
    b.try_insert("Flag", &[]).unwrap();
    let s = b.finish();
    let x = v("zax");
    let y = v("zay");
    let body = and(atom("E", [x, y]), atom_vec("Flag", vec![]));
    let cl = decompose_ground(&body, &[x, y]).unwrap();
    let p = Predicates::standard();
    let mut lev = LocalEvaluator::new(&s, &p);
    match lev.eval_clterm(&cl).unwrap() {
        ClValue::Scalar(v) => assert_eq!(v, 4),
        ClValue::Vector(_) => panic!("ground"),
    }
}

#[test]
fn disconnected_structure_counts() {
    // Counting across components: the disconnected δ-pattern products
    // must combine values from different components.
    let s = graph_structure(9, &[(0, 1), (1, 2), (4, 5), (7, 8)]);
    let x = v("dcx");
    let y = v("dcy");
    let body = and(
        tle(int(1), cnt_vec(vec![v("dcz")], atom("E", [x, v("dcz")]))),
        not(dist_le(x, y, 3)),
    );
    // Not FO (counting guard): decompose the FO part only.
    let fo_body = and(
        exists(v("dcz"), atom("E", [x, v("dcz")])),
        not(dist_le(x, y, 3)),
    );
    let _ = body;
    let cl = decompose_ground(&fo_body, &[x, y]).unwrap();
    let p = Predicates::standard();
    let term = Arc::new(Term::Count(vec![x, y].into_boxed_slice(), fo_body.clone()));
    let want = NaiveEvaluator::new(&s, &p).eval_ground(&term).unwrap();
    assert_eq!(cl.eval_naive(&s, &p, None).unwrap(), want);
    let mut lev = LocalEvaluator::new(&s, &p);
    match lev.eval_clterm(&cl).unwrap() {
        ClValue::Scalar(got) => assert_eq!(got, want),
        ClValue::Vector(_) => panic!("ground"),
    }
}
