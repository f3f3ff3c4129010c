//! The Removal Lemma (Section 7.3): structure surgery `A ↦ A *_r d` and
//! the accompanying formula and term rewritings (Lemmas 7.8 and 7.9).
//!
//! `A *_r d` deletes the element `d` but remembers everything about it:
//! each relation `R` splits into relations `R̃_I` recording the tuples
//! whose `I`-positions were `d`, and unary markers `S_i` record the
//! elements at distance ≤ i from `d`. A formula φ(x̄) evaluated with some
//! arguments equal to `d` is rewritten into φ̃_I over the new signature;
//! counting terms split into sums over which counted positions hit `d`.
//! This is the recursion step of the paper's main algorithm: the splitter
//! game guarantees that repeatedly removing Splitter's vertex flattens
//! any cluster of a nowhere dense graph in λ(r) steps.

use std::collections::BTreeSet;
use std::sync::Arc;

use foc_logic::build::atom_sym;
use foc_logic::{Formula, Symbol, Var};
use foc_structures::{DistLayer, RelDecl, Signature, Structure};

/// The symbol `R̃_I` for the relation `rel` and the position set encoded
/// by `mask`: `R@<hex mask>`.
///
/// Every σ̃ name is an input name plus a suffix. The text after the last
/// `@` is the mask, which makes `(rel, mask) ↦ R@mask` injective, and a
/// marker name ([`s_marker`]) contains no `@`, so it never equals a `R̃_I`
/// name. Names in one signature therefore stay distinct at every nesting
/// depth, and equal surgeries yield equal structures.
pub fn tilde(rel: Symbol, mask: u32) -> Symbol {
    Symbol::new(&format!("{}@{:x}", rel.name(), mask))
}

/// The symbol for the distance marker `S_i`: `S#i`.
pub fn s_marker(i: u32) -> Symbol {
    Symbol::new(&format!("S#{i}"))
}

/// The id in `A *_r d` of an element `e ≠ d` of `A`: the ids above `d`
/// shift down by one.
pub fn new_id(d: u32, e: u32) -> u32 {
    e - u32::from(e > d)
}

/// The id in `A` of the element `n` of `A *_r d` (inverse of [`new_id`]).
pub fn old_id(d: u32, n: u32) -> u32 {
    n + u32::from(n >= d)
}

/// Builds `A *_r d` (the structure part of the Removal Lemma) over σ̃_r,
/// with the elements renumbered by [`new_id`]. Requires `|A| ≥ 2`.
pub fn remove_element(a: &Structure, d: u32, r: u32) -> Structure {
    assert!(a.order() >= 2, "removal needs at least two elements");
    assert!(d < a.order());
    // Relation `ri` splits into `R̃_I` at `bases[ri] + I`.
    let mut decls: Vec<RelDecl> = Vec::new();
    let mut bases: Vec<usize> = Vec::new();
    for decl in a.signature().rels() {
        let k = decl.arity;
        assert!(k <= 16, "removal supports arity ≤ 16");
        bases.push(decls.len());
        for mask in 0u32..(1 << k) {
            decls.push(RelDecl {
                name: tilde(decl.name, mask),
                arity: k - (mask.count_ones() as usize),
            });
        }
    }
    let mut rows: Vec<Vec<Vec<u32>>> = vec![Vec::new(); decls.len()];
    // Split each relation's rows by which positions equal d.
    for (ri, &base) in bases.iter().enumerate() {
        for row in a.relation_at(ri).rows() {
            let mut mask = 0usize;
            let mut rest = Vec::with_capacity(row.len());
            for (pos, &e) in row.iter().enumerate() {
                if e == d {
                    mask |= 1 << pos;
                } else {
                    rest.push(new_id(d, e));
                }
            }
            rows[base + mask].push(rest);
        }
    }
    // Distance markers S_1..S_r.
    let mut dists = DistLayer::new();
    dists.fill(a.gaifman(), d, r);
    for i in 1..=r {
        decls.push(RelDecl {
            name: s_marker(i),
            arity: 1,
        });
        rows.push(
            dists
                .ball()
                .iter()
                .filter(|&&e| e != d && dists.get(e).is_some_and(|dist| dist <= i))
                .map(|&e| vec![new_id(d, e)])
                .collect(),
        );
    }
    Structure::new(Signature::new(decls), a.order() - 1, rows)
}

/// Lemma 7.8: rewrites φ into φ̃_V such that for tuples sending exactly
/// the variables of `V` to `d`: `A ⊨ φ[ā] ⟺ A *_r d ⊨ φ̃_V[ā∖V]`.
/// Distance atoms must have bounds ≤ the marker radius `r`.
pub fn remove_formula(f: &Arc<Formula>, v: &BTreeSet<Var>, r: u32) -> Arc<Formula> {
    match &**f {
        Formula::Bool(_) => f.clone(),
        Formula::Eq(x1, x2) => {
            let in1 = v.contains(x1);
            let in2 = v.contains(x2);
            match (in1, in2) {
                (true, true) => Arc::new(Formula::Bool(true)),
                (false, false) => f.clone(),
                // One side is d, the other is an element of A ∖ {d}.
                _ => Arc::new(Formula::Bool(false)),
            }
        }
        Formula::Atom(at) => {
            let mut mask = 0u32;
            let mut rest = Vec::new();
            for (pos, var) in at.args.iter().enumerate() {
                if v.contains(var) {
                    mask |= 1 << pos;
                } else {
                    rest.push(*var);
                }
            }
            atom_sym(tilde(at.rel, mask), rest)
        }
        Formula::DistLe { x, y, d } => {
            let in1 = v.contains(x);
            let in2 = v.contains(y);
            match (in1, in2) {
                (true, true) => Arc::new(Formula::Bool(true)),
                (true, false) | (false, true) => {
                    let other = if in1 { *y } else { *x };
                    if *d == 0 {
                        // dist ≤ 0 means equality with the removed d.
                        Arc::new(Formula::Bool(false))
                    } else {
                        assert!(*d <= r, "distance atom bound {d} exceeds marker range");
                        atom_sym(s_marker(*d), vec![other])
                    }
                }
                (false, false) => {
                    // A short path may or may not pass through d.
                    let mut parts = vec![Arc::new(Formula::DistLe {
                        x: *x,
                        y: *y,
                        d: *d,
                    })];
                    for i1 in 1..*d {
                        let i2 = *d - i1;
                        assert!(
                            i1 <= r && i2 <= r,
                            "distance atom bound {d} exceeds marker range"
                        );
                        parts.push(Formula::and(vec![
                            atom_sym(s_marker(i1), vec![*x]),
                            atom_sym(s_marker(i2), vec![*y]),
                        ]));
                    }
                    Formula::or(parts)
                }
            }
        }
        Formula::Not(g) => Formula::not(remove_formula(g, v, r)),
        Formula::And(gs) => Formula::and(gs.iter().map(|g| remove_formula(g, v, r)).collect()),
        Formula::Or(gs) => Formula::or(gs.iter().map(|g| remove_formula(g, v, r)).collect()),
        Formula::Exists(x, g) => {
            // ∃x ψ ≡ ψ[x := d] ∨ ∃x≠d ψ.
            let mut with_x = v.clone();
            with_x.insert(*x);
            let mut without_x = v.clone();
            without_x.remove(x);
            Formula::or(vec![
                remove_formula(g, &with_x, r),
                Arc::new(Formula::Exists(*x, remove_formula(g, &without_x, r))),
            ])
        }
        Formula::Forall(x, g) => {
            let mut with_x = v.clone();
            with_x.insert(*x);
            let mut without_x = v.clone();
            without_x.remove(x);
            Formula::and(vec![
                remove_formula(g, &with_x, r),
                Arc::new(Formula::Forall(*x, remove_formula(g, &without_x, r))),
            ])
        }
        Formula::Pred { .. } => {
            panic!("remove_formula is defined on FO⁺ formulas only (got {f})")
        }
    }
}

/// One rewritten counting component of Lemma 7.9: counted variables and
/// the rewritten body over σ̃_r.
#[derive(Debug, Clone)]
pub struct RemovedCount {
    /// The counted variables that survive (those not pinned to `d`).
    pub counted: Vec<Var>,
    /// The rewritten body.
    pub body: Arc<Formula>,
}

/// Lemma 7.9 (b) for a unary basic term `u(x) = #(ȳ).φ(x, ȳ)`:
/// returns the ground components (for evaluating at `a = d`) and the
/// unary components (for `a ≠ d`, with `x` still free):
///
/// * `u^A[d]   = Σ_I ĝ_I^{A*d}`          (I ranges over subsets of ȳ, with x↦d)
/// * `u^A[a]   = Σ_I û_I^{A*d}[a]` for a ≠ d.
pub fn remove_unary_count(
    x: Var,
    counted: &[Var],
    body: &Arc<Formula>,
    r: u32,
) -> (Vec<RemovedCount>, Vec<RemovedCount>) {
    let mut when_d = Vec::new();
    let mut when_not_d = Vec::new();
    let k = counted.len();
    assert!(k <= 16, "counting width ≤ 16 supported");
    for mask in 0u32..(1 << k) {
        let pinned: BTreeSet<Var> = counted
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &y)| y)
            .collect();
        let survivors: Vec<Var> = counted
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) == 0)
            .map(|(_, &y)| y)
            .collect();
        // a ≠ d: x is not pinned.
        when_not_d.push(RemovedCount {
            counted: survivors.clone(),
            body: remove_formula(body, &pinned, r),
        });
        // a = d: x is pinned as well.
        let mut with_x = pinned;
        with_x.insert(x);
        when_d.push(RemovedCount {
            counted: survivors,
            body: remove_formula(body, &with_x, r),
        });
    }
    (when_d, when_not_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_eval::{Assignment, NaiveEvaluator};
    use foc_logic::build::*;
    use foc_logic::Predicates;
    use foc_structures::gen::{cycle, graph_structure, grid, path, star};
    use foc_structures::StructureBuilder;

    fn structures() -> Vec<Structure> {
        vec![
            path(6),
            cycle(5),
            star(6),
            grid(3, 2),
            graph_structure(7, &[(0, 1), (1, 2), (2, 0), (3, 4)]),
        ]
    }

    #[test]
    fn surgery_splits_relations() {
        let s = path(4); // edges 0-1,1-2,2-3 symmetric
        let b = remove_element(&s, 1, 2);
        assert_eq!(b.order(), 3);
        let e = Symbol::new("E");
        // E-rows not involving 1 survive in R̃_∅: (2,3) and (3,2), with
        // renumbering 2→1, 3→2.
        let e00 = b.relation(tilde(e, 0b00)).unwrap();
        assert_eq!(e00.len(), 2);
        assert!(e00.contains(&[1, 2]));
        // Rows (1, x) land in R̃_{0}: unary remnants {0→0, 2→1}.
        let e_first = b.relation(tilde(e, 0b01)).unwrap();
        assert_eq!(e_first.len(), 2);
        assert!(e_first.contains(&[0]));
        assert!(e_first.contains(&[1]));
        // Markers: S_1 = {0, 2} (new ids 0, 1); S_2 additionally 3 (new 2).
        let s1 = b.relation(s_marker(1)).unwrap();
        assert_eq!(s1.len(), 2);
        let s2 = b.relation(s_marker(2)).unwrap();
        assert_eq!(s2.len(), 3);
    }

    /// A user relation named `S` must not clash with the distance
    /// markers: `S̃_{0}` and `S_1` get distinct names.
    #[test]
    fn user_relation_s_does_not_collide_with_markers() {
        let mut b = StructureBuilder::new();
        b.declare("E", 2);
        b.declare("S", 1);
        b.ensure_universe(4);
        for (u, w) in [(0u32, 1u32), (1, 2), (2, 3)] {
            b.try_insert("E", &[u, w]).unwrap();
            b.try_insert("E", &[w, u]).unwrap();
        }
        b.try_insert("S", &[0]).unwrap();
        let s = b.finish();
        let rem = remove_element(&s, 0, 2);
        let user_s = Symbol::new("S");
        assert_eq!(rem.relation(tilde(user_s, 0)).unwrap().len(), 0);
        assert_eq!(rem.relation(tilde(user_s, 1)).unwrap().len(), 1);
        // S_1 = {1} → new id 0; S_2 = {1, 2} → new ids {0, 1}.
        assert_eq!(rem.relation(s_marker(1)).unwrap().len(), 1);
        assert_eq!(rem.relation(s_marker(2)).unwrap().len(), 2);
    }

    /// Removal is a pure function of `(A, d, r)`: two independent
    /// surgeries give the same fingerprint (which hashes the symbols, so
    /// the second one interned no new names).
    #[test]
    fn repeated_removal_is_deterministic() {
        for s in structures() {
            for d in s.universe() {
                let first = remove_element(&s, d, 3);
                let second = remove_element(&s, d, 3);
                assert_eq!(first.fingerprint(), second.fingerprint(), "d={d}");
            }
        }
    }

    /// Exhaustively checks Lemma 7.8 on small structures: for every
    /// formula in the list, every element d, and every assignment of the
    /// free variables, the rewriting agrees.
    #[test]
    fn formula_rewriting_agrees() {
        let x = v("x");
        let y = v("y");
        let z = v("z");
        let formulas: Vec<Arc<Formula>> = vec![
            atom("E", [x, y]),
            eq(x, y),
            dist_le(x, y, 2),
            and(atom("E", [x, y]), not(eq(x, y))),
            exists(z, and(atom("E", [x, z]), atom("E", [z, y]))),
            exists(z, not(atom("E", [x, z]))),
            forall(z, or(not(atom("E", [x, z])), dist_le(z, y, 2))),
        ];
        let p = Predicates::standard();
        for s in structures() {
            for f in &formulas {
                let free: Vec<Var> = f.free_vars().into_iter().collect();
                for d in s.universe() {
                    let rem = remove_element(&s, d, 3);
                    for a_val in s.universe() {
                        for b_val in s.universe() {
                            let vals = [a_val, b_val];
                            let env_pairs: Vec<(Var, u32)> =
                                free.iter().copied().zip(vals).collect();
                            let vset: BTreeSet<Var> = env_pairs
                                .iter()
                                .filter(|(_, e)| *e == d)
                                .map(|(v, _)| *v)
                                .collect();
                            let mut ev = NaiveEvaluator::new(&s, &p);
                            let mut env = Assignment::from_pairs(env_pairs.clone());
                            let want = ev.check(f, &mut env).unwrap();
                            let rewritten = remove_formula(f, &vset, 3);
                            let mut ev2 = NaiveEvaluator::new(&rem, &p);
                            let mut env2 = Assignment::from_pairs(
                                env_pairs
                                    .iter()
                                    .filter(|(_, e)| *e != d)
                                    .map(|(v, e)| (*v, new_id(d, *e))),
                            );
                            let got = ev2.check(&rewritten, &mut env2).unwrap();
                            assert_eq!(
                                want, got,
                                "removal disagrees for {f} at d={d}, args={vals:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Lemma 7.9 (b) on every element: the `when_d` components sum to
    /// `u[d]`, the `when_not_d` components to `u[a]`. The second body
    /// counts two variables, so with `x` at `d` or not, short paths
    /// through `d` exercise the S-marker disjunction.
    #[test]
    fn unary_count_rewriting_agrees() {
        let x = v("x");
        let y = v("y");
        let y1 = v("y1");
        let y2 = v("y2");
        let terms = [
            // u(x) = #(y). (E(x,y) ∨ dist(x,y) ≤ 2).
            (vec![y], or(atom("E", [x, y]), dist_le(x, y, 2))),
            // u(x) = #(y1,y2). dist(y1,y2) ≤ 2.
            (vec![y1, y2], dist_le(y1, y2, 2)),
        ];
        let p = Predicates::standard();
        for (counted, body) in &terms {
            for s in structures() {
                for d in s.universe() {
                    let rem = remove_element(&s, d, 3);
                    let (when_d, when_not_d) = remove_unary_count(x, counted, body, 3);
                    for a in s.universe() {
                        let mut ev = NaiveEvaluator::new(&s, &p);
                        let term = cnt_vec(counted.clone(), body.clone());
                        let mut env = Assignment::from_pairs([(x, a)]);
                        let want = ev.eval_term(&term, &mut env).unwrap();
                        let mut ev2 = NaiveEvaluator::new(&rem, &p);
                        let got: i64 = if a == d {
                            when_d
                                .iter()
                                .map(|rc| {
                                    let t = cnt_vec(rc.counted.clone(), rc.body.clone());
                                    ev2.eval_ground(&t).unwrap()
                                })
                                .sum()
                        } else {
                            when_not_d
                                .iter()
                                .map(|rc| {
                                    let t = cnt_vec(rc.counted.clone(), rc.body.clone());
                                    let mut env2 = Assignment::from_pairs([(x, new_id(d, a))]);
                                    ev2.eval_term(&t, &mut env2).unwrap()
                                })
                                .sum()
                        };
                        assert_eq!(want, got, "unary count {body} at a={a}, d={d}");
                    }
                }
            }
        }
    }

    #[test]
    fn nested_removal_does_not_collide() {
        // Path 0-1-2-3-4; removing 2 leaves 0-1 and 3-4 (new ids 0-1, 2-3)
        // with level-1 markers S_1 = {1, 2} and S_2 = {0, 1, 2, 3}.
        let s = path(5);
        let rem1 = remove_element(&s, 2, 2);
        let rem2 = remove_element(&rem1, 0, 2);
        assert!(rem2.signature().len() > rem1.signature().len());
        // Level 2 keeps each level-1 marker as its S̃_∅/S̃_{0} remnants
        // next to its own markers: distinct symbols with their own rows.
        // Removing 0 shifts the level-1 markers down to {0, 1} and
        // {0, 1, 2}; 0 was in S_2 only. The level-2 markers are {0}: only
        // the old 1 is near the removed 0.
        for (i, level1, level1_at_d) in [(1, vec![0, 1], 0), (2, vec![0, 1, 2], 1)] {
            let m = s_marker(i);
            let rows = rem2.relation(tilde(m, 0)).unwrap();
            assert_eq!(rows.len(), level1.len(), "S_{i} remnant");
            assert!(level1.iter().all(|&e| rows.contains(&[e])));
            assert_eq!(rem2.relation(tilde(m, 1)).unwrap().len(), level1_at_d);
            let level2 = rem2.relation(m).unwrap();
            assert_eq!(level2.len(), 1);
            assert!(level2.contains(&[0]));
        }
    }
}
