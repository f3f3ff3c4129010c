//! Syntactic locality analysis: computes a radius `r` such that a formula
//! is `r`-local around its free variables (Section 6.1), for the
//! separable fragment of DESIGN.md §3.
//!
//! A formula φ(x̄) is *r-local around x̄* if for all A and ā:
//! `A ⊨ φ[ā] ⟺ N_r^A(ā) ⊨ φ[ā]`. Quantifier-free formulas are 0-local;
//! `dist(x,y) ≤ d` is ⌈d/2⌉-local; Boolean combinations take the maximum;
//! and `∃y φ` is `(D + r)`-local when φ is r-local and *guards* `y`
//! within distance `D` of the other free variables (e.g. through an atom
//! containing `y` and a free variable, or a distance atom).
//!
//! The guard bound is computed by constraint propagation over the
//! conjunctive structure: atoms contribute weight-1 edges between their
//! arguments (co-occurrence in a tuple bounds Gaifman distance by 1),
//! distance atoms weight-`d` edges, equalities weight-0 edges, and
//! disjunctions take the worst branch.

use std::collections::BTreeSet;

use foc_logic::{Formula, Var};
use foc_structures::FxHashMap;

use crate::error::{LocalityError, Result};

/// Computes a locality radius for `f` around `free(f)`, or an error if
/// the formula is outside the recognisable fragment (unguarded
/// quantifier, quantified sentence subformula, counting construct).
pub fn locality_radius(f: &Formula) -> Result<u64> {
    radius(f)
}

fn radius(f: &Formula) -> Result<u64> {
    match f {
        Formula::Bool(_) | Formula::Eq(..) | Formula::Atom(_) => Ok(0),
        Formula::DistLe { d, .. } => Ok(u64::from(*d).div_ceil(2)),
        Formula::Not(g) => radius(g),
        Formula::And(gs) | Formula::Or(gs) => {
            let mut r = 0u64;
            for g in gs {
                check_no_quantified_sentence(g)?;
                r = r.max(radius(g)?);
            }
            Ok(r)
        }
        Formula::Exists(y, g) => {
            if !g.free_vars().contains(y) {
                // Vacuous quantifier over a non-empty universe.
                return radius(g);
            }
            let anchors = f.free_vars();
            if anchors.is_empty() {
                return Err(LocalityError::NotLocal(format!(
                    "sentence subformula (no anchors): exists {y}. …"
                )));
            }
            // Peel the maximal ∃-block so that variables guarded through
            // the same atom do not compound the radius per level: for
            // ∃z̄ φ with every zᵢ within Dᵢ of the anchors whenever φ
            // holds, all witnesses lie in N_D(ā) with D = max Dᵢ, and the
            // block is (D + r_φ)-local.
            let mut block = vec![*y];
            let mut matrix: &Formula = g;
            while let Formula::Exists(z, h) = matrix {
                if anchors.contains(z) || block.contains(z) {
                    break;
                }
                block.push(*z);
                matrix = h;
            }
            let inner = radius(matrix)?;
            let mut worst = 0u64;
            for z in &block {
                if !matrix.free_vars().contains(z) {
                    continue; // vacuous within the block
                }
                match guard_bound(matrix, *z, &anchors) {
                    Some(d) => worst = worst.max(d),
                    None => {
                        return Err(LocalityError::NotLocal(format!(
                            "unguarded quantifier: exists {z}. …"
                        )))
                    }
                }
            }
            // Radius composition must not saturate: an understated radius
            // makes the r-neighbourhood too small and silently changes
            // answers, so overflow here is a hard (degradable) error.
            worst
                .checked_add(inner)
                .ok_or(LocalityError::RadiusTooLarge { radius: u64::MAX })
        }
        Formula::Forall(y, _) => {
            // ∀y φ ≡ ¬∃y ¬φ: guardedness lives in the *negated* body, so
            // the caller must convert to NNF first (which turns guarded
            // universals into negated guarded existentials).
            Err(LocalityError::NotLocal(format!(
                "universal quantifier (convert to NNF first): forall {y}. …"
            )))
        }
        Formula::Pred { .. } => Err(LocalityError::NotFirstOrder(f.to_string())),
    }
}

/// Rejects subformulas that are sentences containing quantifiers: their
/// truth is a global property, so a Boolean combination containing one is
/// not local. (Sentence extraction happens upstream, in `clnf`.)
fn check_no_quantified_sentence(g: &Formula) -> Result<()> {
    if g.free_vars().is_empty() && g.quantifier_rank() > 0 {
        return Err(LocalityError::NotLocal(format!(
            "quantified sentence inside a Boolean combination: {g}"
        )));
    }
    Ok(())
}

/// An upper bound `D` such that whenever `f` holds, the Gaifman distance
/// from `target`'s value to some anchor's value is at most `D`. `None`
/// means no bound could be derived.
pub fn guard_bound(f: &Formula, target: Var, anchors: &BTreeSet<Var>) -> Option<u64> {
    if anchors.contains(&target) {
        return Some(0);
    }
    match f {
        Formula::Bool(false) => Some(0), // vacuous: false implies anything
        Formula::Eq(a, b) => {
            if (*a == target && anchors.contains(b)) || (*b == target && anchors.contains(a)) {
                Some(0)
            } else {
                None
            }
        }
        Formula::DistLe { x, y, d } => {
            if (*x == target && anchors.contains(y)) || (*y == target && anchors.contains(x)) {
                Some(u64::from(*d))
            } else {
                None
            }
        }
        Formula::Atom(a) => {
            if a.args.contains(&target) && a.args.iter().any(|v| anchors.contains(v)) {
                Some(1)
            } else {
                None
            }
        }
        Formula::And(parts) => conjunction_bound(parts, target, anchors),
        Formula::Or(parts) => {
            let mut worst = 0u64;
            for p in parts {
                worst = worst.max(guard_bound(p, target, anchors)?);
            }
            Some(worst)
        }
        Formula::Exists(z, g) => {
            if *z == target {
                return None; // the outer target is shadowed inside
            }
            let mut inner_anchors = anchors.clone();
            inner_anchors.remove(z); // the binder shadows an anchor of the same name
            guard_bound(g, target, &inner_anchors)
        }
        Formula::Not(_) | Formula::Forall(..) | Formula::Pred { .. } | Formula::Bool(true) => None,
    }
}

/// Guard-bound propagation through a conjunction: a little shortest-path
/// fixpoint over the variables, seeded with the anchors at distance 0.
fn conjunction_bound(
    parts: &[std::sync::Arc<Formula>],
    target: Var,
    anchors: &BTreeSet<Var>,
) -> Option<u64> {
    let mut bounds: FxHashMap<Var, u64> = anchors.iter().map(|&a| (a, 0)).collect();
    // Collect all variables appearing free in the conjunction.
    let mut vars: BTreeSet<Var> = BTreeSet::new();
    for p in parts.iter() {
        vars.extend(p.free_vars());
    }
    let iterations = vars.len() + 1;
    for _ in 0..iterations {
        let mut changed = false;
        for p in parts.iter() {
            // Direct literal edges.
            for (u, w, wt) in literal_edges(p) {
                changed |= relax(&mut bounds, u, w, wt);
                changed |= relax(&mut bounds, w, u, wt);
            }
            // Complex parts (disjunctions, nested quantifiers): derive a
            // bound for each still-unknown free variable relative to the
            // currently-known set.
            for v in p.free_vars() {
                if bounds.contains_key(&v) {
                    continue;
                }
                let known: BTreeSet<Var> = bounds.keys().copied().collect();
                if known.is_empty() {
                    continue;
                }
                if let Some(d) = guard_bound(p, v, &known) {
                    let base = bounds.values().copied().max().unwrap_or(0);
                    // Overflow means no representable bound exists for
                    // `v`; leaving it unbounded is sound (the caller
                    // reports NotLocal and the engine degrades), whereas
                    // a saturated bound would *understate* the distance.
                    if let Some(b) = base.checked_add(d) {
                        bounds.insert(v, b);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    bounds.get(&target).copied()
}

fn relax(bounds: &mut FxHashMap<Var, u64>, from: Var, to: Var, weight: u64) -> bool {
    let Some(&bf) = bounds.get(&from) else {
        return false;
    };
    // An overflowing path bound derives nothing: skip the relaxation
    // rather than saturate (a clamped bound would understate distance,
    // which is the unsound direction; "no bound" merely degrades).
    let Some(cand) = bf.checked_add(weight) else {
        return false;
    };
    match bounds.get(&to) {
        Some(&bt) if bt <= cand => false,
        _ => {
            bounds.insert(to, cand);
            true
        }
    }
}

/// Distance-constraint edges implied by one positive literal.
fn literal_edges(f: &Formula) -> Vec<(Var, Var, u64)> {
    match f {
        Formula::Eq(a, b) if a != b => vec![(*a, *b, 0)],
        Formula::DistLe { x, y, d } if x != y => vec![(*x, *y, u64::from(*d))],
        Formula::Atom(a) => {
            let mut edges = Vec::new();
            for i in 0..a.args.len() {
                for j in (i + 1)..a.args.len() {
                    if a.args[i] != a.args[j] {
                        edges.push((a.args[i], a.args[j], 1));
                    }
                }
            }
            edges
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_eval::{Assignment, NaiveEvaluator};
    use foc_logic::build::*;
    use foc_logic::subst::nnf;
    use foc_logic::Predicates;
    use foc_structures::gen::{cycle, grid, path, random_tree};
    use foc_structures::{BfsScratch, Structure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Semantic check that `f` really is `r`-local around its free
    /// variables on the given structure: compares truth in A with truth
    /// in the induced r-neighbourhood, over all tuples.
    fn assert_r_local(f: &Arc<Formula>, r: u64, s: &Structure) {
        let free: Vec<_> = f.free_vars().into_iter().collect();
        assert!(!free.is_empty(), "locality check needs free variables");
        let p = Predicates::standard();
        let mut scratch = BfsScratch::new();
        let k = free.len();
        let n = s.order();
        let mut tuple = vec![0u32; k];
        loop {
            // Evaluate in A.
            let mut ev = NaiveEvaluator::new(s, &p);
            let mut env = Assignment::from_pairs(free.iter().copied().zip(tuple.iter().copied()));
            let in_a = ev.check(f, &mut env).unwrap();
            // Evaluate in A[N_r(ā)].
            let ball = s.gaifman().ball(&tuple, r as u32, &mut scratch);
            let ind = s.induced(&ball);
            let mut ev2 = NaiveEvaluator::new(&ind.structure, &p);
            let mut env2 =
                Assignment::from_pairs(free.iter().copied().zip(tuple.iter().map(|e| ind.fwd[e])));
            let in_ball = ev2.check(f, &mut env2).unwrap();
            assert_eq!(
                in_a, in_ball,
                "locality violated for {f} at tuple {tuple:?} with r={r}"
            );
            // Next tuple.
            let mut i = 0;
            loop {
                if i == k {
                    return;
                }
                tuple[i] += 1;
                if tuple[i] < n {
                    break;
                }
                tuple[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn quantifier_free_is_zero_local() {
        let f = and(atom("E", [v("x"), v("y")]), not(eq(v("x"), v("y"))));
        assert_eq!(locality_radius(&f).unwrap(), 0);
    }

    #[test]
    fn dist_atom_radius() {
        let f = dist_le(v("x"), v("y"), 5);
        assert_eq!(locality_radius(&f).unwrap(), 3);
        assert_eq!(locality_radius(&dist_le(v("x"), v("y"), 4)).unwrap(), 2);
    }

    #[test]
    fn atom_guarded_exists() {
        // ∃z E(y, z): z guarded within 1 of y, body 0-local → radius 1.
        let f = exists(v("z"), atom("E", [v("y"), v("z")]));
        assert_eq!(locality_radius(&f).unwrap(), 1);
        // Two hops: ∃z (E(y,z) ∧ ∃w E(z,w)) → radius 2.
        let g = exists(
            v("z"),
            and(
                atom("E", [v("y"), v("z")]),
                exists(v("w"), atom("E", [v("z"), v("w")])),
            ),
        );
        assert_eq!(locality_radius(&g).unwrap(), 2);
    }

    #[test]
    fn dist_guarded_exists() {
        let f = exists(
            v("z"),
            and(
                dist_le(v("x"), v("z"), 3),
                atom_vec("E", vec![v("z"), v("z")]),
            ),
        );
        // guard 3 + body radius max(⌈3/2⌉, 0) = 2 → 5.
        assert_eq!(locality_radius(&f).unwrap(), 5);
    }

    #[test]
    fn unguarded_exists_rejected() {
        let f = exists(v("z"), not(atom("E", [v("x"), v("z")])));
        assert!(matches!(
            locality_radius(&f),
            Err(LocalityError::NotLocal(_))
        ));
        // A genuinely global sentence inside a conjunction.
        let g = and(
            atom_vec("P", vec![v("x")]),
            exists(v("a"), exists(v("b"), atom("E", [v("a"), v("b")]))),
        );
        assert!(matches!(
            locality_radius(&g),
            Err(LocalityError::NotLocal(_))
        ));
    }

    #[test]
    fn or_takes_worst_branch_guard() {
        // ∃z ((E(x,z)) ∨ dist(x,z) ≤ 4): guard max(1, 4) = 4.
        let f = exists(
            v("z"),
            or(atom("E", [v("x"), v("z")]), dist_le(v("x"), v("z"), 4)),
        );
        assert_eq!(locality_radius(&f).unwrap(), 4 + 2);
        // One unguarded branch poisons the guard.
        let g = exists(
            v("z"),
            or(atom("E", [v("x"), v("z")]), atom_vec("P", vec![v("z")])),
        );
        assert!(locality_radius(&g).is_err());
    }

    #[test]
    fn guard_chain_through_conjunction() {
        // ∃z₁∃z₂ (E(x,z₁) ∧ E(z₁,z₂)): z₂ within 2 of x.
        let f = exists_all(
            [v("z1"), v("z2")],
            and(atom("E", [v("x"), v("z1")]), atom("E", [v("z1"), v("z2")])),
        );
        // outer: guard(z1)=1, inner radius for ∃z2 body: guard(z2 to {x,z1}) = 1,
        // so inner radius 1, total 1 + 1 = 2.
        assert_eq!(locality_radius(&f).unwrap(), 2);
    }

    #[test]
    fn computed_radii_are_semantically_sound() {
        // Property: for several fragment formulas, the computed radius is
        // semantically valid on paths, cycles, grids and random trees.
        let formulas: Vec<Arc<Formula>> = vec![
            exists(v("z"), atom("E", [v("x"), v("z")])),
            exists(
                v("z"),
                and(
                    atom("E", [v("x"), v("z")]),
                    exists(
                        v("w"),
                        and(atom("E", [v("z"), v("w")]), not(eq(v("w"), v("x")))),
                    ),
                ),
            ),
            and(dist_le(v("x"), v("y"), 3), not(atom("E", [v("x"), v("y")]))),
            nnf(&not(exists(
                v("z"),
                and(atom("E", [v("x"), v("z")]), atom("E", [v("z"), v("y")])),
            ))),
        ];
        let mut rng = StdRng::seed_from_u64(99);
        let structures = vec![path(7), cycle(6), grid(3, 3), random_tree(8, &mut rng)];
        for f in &formulas {
            let r = locality_radius(f).unwrap();
            for s in &structures {
                assert_r_local(f, r, s);
            }
        }
    }

    #[test]
    fn nnf_negated_block_is_local_too() {
        // ¬∃z (E(x,z) ∧ E(z,y)) — a negated guarded block stays local.
        let f = nnf(&not(exists(
            v("z"),
            and(atom("E", [v("x"), v("z")]), atom("E", [v("z"), v("y")])),
        )));
        let r = locality_radius(&f).unwrap();
        assert!(r >= 1);
    }

    #[test]
    fn near_max_distance_weights_compute_exactly() {
        // dist weights max out at u32::MAX per atom; the analysis must
        // carry them exactly in u64 — no saturation, no wrap.
        let d = u32::MAX;
        let f = dist_le(v("x"), v("y"), d);
        assert_eq!(locality_radius(&f).unwrap(), u64::from(d).div_ceil(2));
        // Guard u32::MAX composed with a u32::MAX-radius body: the exact
        // u64 sum, well past u32 but nowhere near saturation.
        let g = exists(
            v("z"),
            and(dist_le(v("x"), v("z"), d), dist_le(v("z"), v("z"), d)),
        );
        assert_eq!(
            locality_radius(&g).unwrap(),
            u64::from(d) + u64::from(d).div_ceil(2)
        );
        // Chained near-max weights through a conjunction fixpoint: two
        // u32::MAX edges relax to their exact u64 sum.
        let h = exists_all(
            [v("z1"), v("z2")],
            and(dist_le(v("x"), v("z1"), d), dist_le(v("z1"), v("z2"), d)),
        );
        let r = locality_radius(&h).unwrap();
        assert_eq!(r, u64::from(d) * 2 + u64::from(d).div_ceil(2));
    }

    #[test]
    fn sql_customer_body_is_local() {
        // The Example 5.3 body: ∃xfi ∃xla ∃xci ∃xph Customer(xid,…,xco,…)
        // is 1-local around {xid, xco}.
        let body = exists_all(
            [v("xfi"), v("xla"), v("xci"), v("xph")],
            atom_vec(
                "Customer",
                vec![v("xid"), v("xfi"), v("xla"), v("xci"), v("xco"), v("xph")],
            ),
        );
        assert_eq!(locality_radius(&body).unwrap(), 1);
    }
}
