//! E11 — ablations of the implementation's design choices (DESIGN.md
//! §3/§5): what do forced-edge pruning, guard-atom candidates, the
//! support prefilter, and the least-centre cover rule actually buy?

use std::sync::Arc;
use std::time::Instant;

use foc_covers::cover::{build_cover, trivial_cover};
use foc_locality::decompose::{decompose_ground, decompose_ground_unpruned, decompose_unary};
use foc_locality::local_eval::{ClValue, LocalEvaluator};
use foc_logic::build::*;
use foc_logic::{Predicates, Var};
use foc_structures::gen::{grid, random_tree, sql_database, SqlDbParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt_duration, Table};

/// E11a: forced-edge pruning in the pattern enumeration of Lemma 6.4.
fn ablation_pruning() -> Table {
    let mut t = Table::new(
        "E11a: forced-edge pruning of the connectivity-pattern enumeration",
        &[
            "body",
            "k",
            "basics (pruned)",
            "basics (full)",
            "time (pruned)",
            "time (full)",
        ],
    );
    let x = v("abx");
    let y = v("aby");
    let z = v("abz");
    let w = v("abw");
    let bodies: Vec<(&str, Vec<Var>, Arc<foc_logic::Formula>)> = vec![
        ("edges", vec![x, y], atom("E", [x, y])),
        (
            "triangles",
            vec![x, y, z],
            and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, x])]),
        ),
        (
            "4-paths",
            vec![x, y, z, w],
            and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, w])]),
        ),
        (
            "SQL-style 4-atom",
            vec![x, y, z, w],
            atom_vec("R4", vec![x, y, z, w]),
        ),
    ];
    for (label, vars, body) in bodies {
        let t0 = Instant::now();
        let pruned = decompose_ground(&body, &vars);
        let tp = t0.elapsed();
        let t0 = Instant::now();
        let full = decompose_ground_unpruned(&body, &vars);
        let tf = t0.elapsed();
        t.row(vec![
            label.into(),
            vars.len().to_string(),
            pruned
                .as_ref()
                .map(|c| c.num_basics().to_string())
                .unwrap_or("—".into()),
            full.as_ref()
                .map(|c| c.num_basics().to_string())
                .unwrap_or("—".into()),
            fmt_duration(tp),
            fmt_duration(tf),
        ]);
    }
    t.note(
        "Pruning collapses conjunctive (atom-guarded) bodies to a single \
         connectivity pattern; without it the symbolic size grows with \
         2^(k choose 2) — a pure win inside the f(‖ξ‖) factor.",
    );
    t
}

/// E11b: guard-atom candidates and the support prefilter in the ball
/// evaluator, on the SQL database (hub-shaped data, where they matter
/// most).
fn ablation_candidates() -> Table {
    let mut t = Table::new(
        "E11b: ball-evaluator candidate strategies (GROUP-BY count term on the SQL database)",
        &[
            "customers",
            "full (both on)",
            "no atom candidates",
            "no support filter",
        ],
    );
    let xco = v("abco");
    let xid = v("abid");
    let body = {
        let xfi = Var::fresh("abfi");
        let xla = Var::fresh("abla");
        let xci = Var::fresh("abci");
        let xph = Var::fresh("abph");
        exists_all(
            [xfi, xla, xci, xph],
            atom_vec("Customer", vec![xid, xfi, xla, xci, xco, xph]),
        )
    };
    let cl = decompose_unary(&body, &[xco, xid]).expect("SQL body decomposes");
    let preds = Predicates::standard();
    let mut rng = StdRng::seed_from_u64(1111);
    for customers in [200u32, 800] {
        let db = sql_database(
            SqlDbParams {
                customers,
                countries: 10,
                cities: 20,
                avg_orders: 1.0,
            },
            &mut rng,
        );
        let mut cells = vec![customers.to_string()];
        let mut reference: Option<ClValue> = None;
        for (atoms, support) in [(true, true), (false, true), (true, false)] {
            let mut lev = LocalEvaluator::new(&db.structure, &preds);
            lev.use_atom_candidates = atoms;
            lev.use_support = support;
            let t0 = Instant::now();
            let val = lev.eval_clterm(&cl).expect("evaluates");
            let dt = t0.elapsed();
            match &reference {
                None => reference = Some(val),
                Some(r) => assert_eq!(*r, val, "ablation changed the result!"),
            }
            cells.push(fmt_duration(dt));
        }
        t.row(cells);
    }
    t.note(
        "Both optimisations are semantics-preserving (asserted during the \
         run). Atom candidates replace δ-ball scans by relational index \
         lookups; the support filter skips elements that cannot head a \
         satisfying tuple.",
    );
    t
}

/// E11c: least-centre cover rule vs the trivial per-element cover.
fn ablation_cover_rule(quick: bool) -> Table {
    let mut t = Table::new(
        "E11c: cover construction rule — least-centre vs trivial per-element",
        &[
            "class",
            "n",
            "r",
            "clusters (LC)",
            "Σ|X| (LC)",
            "clusters (triv)",
            "Σ|X| (triv)",
        ],
    );
    let sizes: &[u32] = if quick { &[1_000] } else { &[1_000, 8_000] };
    let mut rng = StdRng::seed_from_u64(2222);
    for &n in sizes {
        let structures = vec![
            ("tree", random_tree(n, &mut rng)),
            ("grid", {
                let side = (n as f64).sqrt().round() as u32;
                grid(side, side)
            }),
        ];
        for (class, s) in structures {
            for r in [1u32, 2] {
                let g = s.gaifman();
                let lc = build_cover(g, r);
                let tv = trivial_cover(g, r);
                assert!(lc.verify(g) && tv.verify(g));
                t.row(vec![
                    class.into(),
                    s.order().to_string(),
                    r.to_string(),
                    lc.len().to_string(),
                    lc.total_weight(g).to_string(),
                    tv.len().to_string(),
                    tv.total_weight(g).to_string(),
                ]);
            }
        }
    }
    t.note(
        "The least-centre rule (centres of a greedy r-net first) shares one \
         cluster among every element its centre claims, so there are 1.7–6× \
         fewer clusters than elements. The cover engine materialises only \
         the clusters near a hub, but every centre costs it one claim BFS. The \
         price is radius 2r instead of r: on the trees, and on the grid at \
         r = 1, the total weight Σ|X| is up to 1.3× the trivial cover's. At \
         r = 2 on the grid the net's clusters overlap so little that Σ|X| \
         is half the trivial cover's.",
    );
    t
}

/// E11: all ablations.
pub fn e11(quick: bool) -> Vec<Table> {
    vec![
        ablation_pruning(),
        ablation_candidates(),
        ablation_cover_rule(quick),
    ]
}
