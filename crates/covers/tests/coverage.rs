//! Additional coverage for the Sections 7–8 machinery: covers on exotic
//! graphs, splitter strategies, removal over multi-relation signatures
//! and iterated removals, and cover-engine configuration effects.

use std::collections::BTreeSet;

use foc_covers::cover::{build_cover, cover_structure, trivial_cover};
use foc_covers::cover_eval::{max_dist_bound, CoverEvaluator};
use foc_covers::removal::{new_id, remove_element, remove_formula, tilde};
use foc_covers::splitter::{
    exact_game_value, induce_graph, play, CenterSplitter, HubSplitter, MaxDegreeConnector,
};
use foc_eval::{Assignment, NaiveEvaluator};
use foc_locality::decompose::decompose_unary;
use foc_locality::local_eval::LocalEvaluator;
use foc_logic::build::*;
use foc_logic::Predicates;
use foc_structures::gen::{caterpillar, cycle, graph_structure, grid, path, star};
use foc_structures::{Graph, StructureBuilder};

#[test]
fn covers_on_disconnected_and_single_vertex_graphs() {
    // Isolated vertices form their own clusters.
    let s = graph_structure(5, &[(0, 1)]);
    for r in [1u32, 2] {
        let cov = cover_structure(&s, r);
        assert!(cov.verify(s.gaifman()));
        // Element 4 is isolated: its cluster is {4}.
        assert_eq!(&*cov.cluster_of(s.gaifman(), 4), &[4]);
    }
    let single = graph_structure(1, &[]);
    let cov = cover_structure(&single, 3);
    assert_eq!(cov.len(), 1);
    assert!(cov.verify(single.gaifman()));
}

#[test]
fn cover_radius_zero() {
    // r = 0: every ball is a singleton; any valid cover works and the
    // least-centre rule gives singleton clusters.
    let s = path(6);
    let cov = build_cover(s.gaifman(), 0);
    assert!(cov.verify(s.gaifman()));
    assert_eq!(cov.total_weight(s.gaifman()), 6);
}

#[test]
fn splitter_strategies_both_win_on_trees() {
    let s = caterpillar(5, 2);
    let g = s.gaifman();
    for r in [1u32, 2] {
        let hub = play(g, r, &mut MaxDegreeConnector, &mut HubSplitter, 64);
        assert!(hub.splitter_won, "hub splitter lost at r={r}");
        let center = play(g, r, &mut MaxDegreeConnector, &mut CenterSplitter, 64);
        assert!(center.splitter_won, "center splitter lost at r={r}");
    }
}

#[test]
fn exact_game_monotone_in_radius() {
    // Larger radius gives Connector bigger balls: the value cannot
    // decrease... on cliques it is constant; check on a grid it does not
    // drop.
    let s = grid(3, 3);
    let v1 = exact_game_value(s.gaifman(), 1, 12).unwrap();
    let v2 = exact_game_value(s.gaifman(), 2, 12).unwrap();
    assert!(v2 >= v1, "value dropped with radius: {v1} → {v2}");
}

#[test]
fn induce_graph_roundtrip_full_set() {
    let s = cycle(7);
    let verts: Vec<u32> = (0..7).collect();
    let (sub, back) = induce_graph(s.gaifman(), &verts);
    assert_eq!(back, verts);
    assert_eq!(sub.num_edges(), s.gaifman().num_edges());
}

#[test]
fn removal_on_multi_relation_and_high_arity() {
    let mut b = StructureBuilder::new();
    b.declare("E", 2);
    b.declare("T", 3);
    b.declare("Red", 1);
    b.declare("Flag", 0);
    b.ensure_universe(6);
    for (u, w) in [(0u32, 1u32), (1, 2), (2, 3)] {
        b.try_insert("E", &[u, w]).unwrap();
        b.try_insert("E", &[w, u]).unwrap();
    }
    b.try_insert("T", &[0, 1, 2]).unwrap();
    b.try_insert("T", &[1, 1, 4]).unwrap();
    b.try_insert("Red", &[1]).unwrap();
    b.try_insert("Flag", &[]).unwrap();
    let s = b.finish();
    let rem = remove_element(&s, 1, 2);
    // T-row (1,1,4) has mask 0b011 → unary remnant [new(4)] = [3].
    let t_sym = foc_logic::Symbol::new("T");
    let split = rem.relation(tilde(t_sym, 0b011)).unwrap();
    assert_eq!(split.len(), 1);
    assert!(split.contains(&[3]));
    // The 0-ary Flag survives in its mask-0 copy.
    let flag = foc_logic::Symbol::new("Flag");
    assert!(rem.holds(tilde(flag, 0), &[]));
    // Red loses its only row to the mask-1 copy.
    let red = foc_logic::Symbol::new("Red");
    assert_eq!(rem.relation(tilde(red, 0)).unwrap().len(), 0);
    assert_eq!(rem.relation(tilde(red, 1)).unwrap().len(), 1);
}

#[test]
fn iterated_removal_agrees_semantically() {
    // Remove two elements in sequence; the doubly rewritten formula must
    // agree with direct evaluation.
    let s = grid(3, 3);
    let p = Predicates::standard();
    let x = v("irx");
    let y = v("iry");
    let f = exists(
        v("irz"),
        and(atom("E", [x, v("irz")]), atom("E", [v("irz"), y])),
    );
    let d1 = 4u32;
    let rem1 = remove_element(&s, d1, 3);
    let d2_old = 0u32; // original id 0 survives round 1
    let d2 = new_id(d1, d2_old);
    let rem2 = remove_element(&rem1, d2, 3);
    for a in s.universe() {
        for b in s.universe() {
            if a == d1 || b == d1 || a == d2_old || b == d2_old {
                continue; // both arguments survive both removals
            }
            let mut ev = NaiveEvaluator::new(&s, &p);
            let mut env = Assignment::from_pairs([(x, a), (y, b)]);
            let want = ev.check(&f, &mut env).unwrap();
            let step1 = remove_formula(&f, &BTreeSet::new(), 3);
            let step2 = remove_formula(&step1, &BTreeSet::new(), 3);
            let a2 = new_id(d2, new_id(d1, a));
            let b2 = new_id(d2, new_id(d1, b));
            let mut ev2 = NaiveEvaluator::new(&rem2, &p);
            let mut env2 = Assignment::from_pairs([(x, a2), (y, b2)]);
            let got = ev2.check(&step2, &mut env2).unwrap();
            assert_eq!(want, got, "double removal broke at ({a},{b})");
        }
    }
}

#[test]
fn cover_engine_depth_zero_equals_local() {
    let x = v("czx");
    let y = v("czy");
    let cl = decompose_unary(&and(atom("E", [x, y]), not(eq(x, y))), &[x, y]).unwrap();
    let s = grid(5, 4);
    let p = Predicates::standard();
    let mut lev = LocalEvaluator::new(&s, &p);
    let want = lev.eval_clterm(&cl).unwrap();
    let mut cev = CoverEvaluator::new(&s, &p);
    cev.config.depth = 0;
    let got = cev.eval_clterm(&cl).unwrap();
    assert_eq!(want, got);
    assert_eq!(cev.stats().removals, 0, "depth 0 must not remove");
}

/// `#(y). E(x, y)` as a unary cl-term, and its values by the local
/// engine on `s`.
fn degree_term(s: &foc_structures::Structure) -> (foc_locality::ClTerm, foc_locality::ClValue) {
    let x = v("cmx");
    let y = v("cmy");
    let cl = decompose_unary(&atom("E", [x, y]), &[x, y]).unwrap();
    let want = LocalEvaluator::new(s, &Predicates::standard())
        .eval_clterm(&cl)
        .unwrap();
    (cl, want)
}

#[test]
fn hubless_inputs_run_no_removal() {
    let p = Predicates::standard();
    for s in [grid(30, 30), path(400), caterpillar(40, 3)] {
        let (cl, want) = degree_term(&s);
        let mut cev = CoverEvaluator::new(&s, &p);
        cev.config.direct_threshold = 2;
        assert_eq!(cev.eval_clterm(&cl).unwrap(), want);
        let stats = cev.stats();
        assert!(stats.clusters > 0, "order {}", s.order());
        assert_eq!(stats.removals, 0, "order {}", s.order());
    }
}

#[test]
fn a_star_is_one_removal_on_the_whole_structure() {
    let s = star(40);
    let p = Predicates::standard();
    let (cl, want) = degree_term(&s);
    let mut cev = CoverEvaluator::new(&s, &p);
    cev.config.direct_threshold = 2;
    assert_eq!(cev.eval_clterm(&cl).unwrap(), want);
    let stats = cev.stats();
    // One cover, one cluster (the whole star), one surgery on it; the
    // surgered star has no edge left, so it is answered directly.
    assert_eq!(
        (stats.covers_built, stats.clusters, stats.removals),
        (1, 1, 1),
        "{stats:?}"
    );
    assert_eq!(stats.peak_cluster, 40);
}

#[test]
fn clusters_with_more_hubs_than_depth_are_answered_directly() {
    // Two stars of 30 leaves with adjacent hubs: every cluster at the
    // term's radius holds both hubs.
    let mut edges: Vec<(u32, u32)> = vec![(0, 1)];
    edges.extend((2..32).map(|l| (0, l)));
    edges.extend((32..62).map(|l| (1, l)));
    let s = graph_structure(62, &edges);
    let p = Predicates::standard();
    let (cl, want) = degree_term(&s);
    // Depth 1 leaves the two-hub cluster to ball enumeration; depth 2
    // lets the recursion remove both hubs.
    for (depth, removes) in [(1u32, false), (2, true)] {
        let mut cev = CoverEvaluator::new(&s, &p);
        cev.config.direct_threshold = 2;
        cev.config.depth = depth;
        assert_eq!(cev.eval_clterm(&cl).unwrap(), want, "depth {depth}");
        assert_eq!(cev.stats().removals > 0, removes, "depth {depth}");
    }
}

#[test]
fn max_dist_bound_through_quantifiers() {
    let x = v("mdx");
    let z = v("mdz");
    let f = exists(z, or(dist_le(x, z, 3), not(dist_le(z, x, 11))));
    assert_eq!(max_dist_bound(&f), 11);
    assert_eq!(max_dist_bound(&atom("E", [x, z])), 0);
}

#[test]
fn trivial_cover_members_are_self() {
    let g: &Graph = &path(5).gaifman().clone();
    let cov = trivial_cover(g, 1);
    for a in 0..5u32 {
        assert_eq!(cov.assign[a as usize], a);
        assert!(cov.cluster_of(g, a).contains(&a));
    }
}
