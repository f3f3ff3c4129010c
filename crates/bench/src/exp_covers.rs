//! E6/E9 — the structural side of Sections 7–8: sparse neighbourhood
//! covers (Theorem 8.1) and the splitter game that characterises nowhere
//! dense classes.

use std::time::Instant;

use foc_covers::cover::cover_structure;
use foc_covers::splitter::{estimate_game_length, exact_game_value};
use foc_structures::gen::{
    bounded_degree, caterpillar, clique, gnm, grid, random_tree, star, unranked_tree,
};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt_duration, Table};

fn cover_classes(quick: bool) -> Vec<(&'static str, Vec<Structure>)> {
    let sizes: &[u32] = if quick {
        &[1_000, 4_000]
    } else {
        &[1_000, 4_000, 16_000]
    };
    let mut rng = StdRng::seed_from_u64(66);
    let mut out: Vec<(&'static str, Vec<Structure>)> = vec![
        (
            "random tree",
            sizes.iter().map(|&n| random_tree(n, &mut rng)).collect(),
        ),
        (
            "grid",
            sizes
                .iter()
                .map(|&n| {
                    let side = (n as f64).sqrt().round() as u32;
                    grid(side, side)
                })
                .collect(),
        ),
        (
            "degree ≤ 3",
            sizes
                .iter()
                .map(|&n| bounded_degree(n, 3, 3 * n as usize, &mut rng))
                .collect(),
        ),
        (
            "G(n, 2n)",
            sizes
                .iter()
                .map(|&n| gnm(n, 2 * n as usize, &mut rng))
                .collect(),
        ),
        // Hub classes: unbounded degree, still nowhere dense (trees).
        ("star", sizes.iter().map(|&n| star(n)).collect()),
        (
            "caterpillar(√n, √n)",
            sizes
                .iter()
                .map(|&n| {
                    let side = (n as f64).sqrt().round() as u32;
                    caterpillar(side, side)
                })
                .collect(),
        ),
        (
            "unranked tree (spread 0.5)",
            sizes
                .iter()
                .map(|&n| unranked_tree(n, 0.5, &mut rng))
                .collect(),
        ),
        // Somewhere dense control (kept small: quadratic size).
        (
            "clique (control)",
            vec![clique(64), clique(128), clique(256)],
        ),
    ];
    out.shrink_to_fit();
    out
}

/// E6: (r, 2r)-neighbourhood covers — validity, radius, degree, time.
/// The build time covers what the cover engine pays: the claims and the
/// clusters built with the cover (those near a hub); the degree and
/// radius columns materialise every cluster.
pub fn e6(quick: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    for r in [1u32, 2] {
        let mut t = Table::new(
            format!(
                "E6 (Theorem 8.1): ({r}, {})-neighbourhood covers — degree vs n",
                2 * r
            ),
            &[
                "class",
                "n",
                "clusters",
                "built with the cover",
                "max degree",
                "measured radius",
                "valid",
                "build time",
            ],
        );
        for (class, structures) in cover_classes(quick) {
            for s in &structures {
                let g = s.gaifman();
                let t0 = Instant::now();
                let cov = cover_structure(s, r);
                let dt = t0.elapsed();
                let valid = cov.verify(g) && cov.max_radius(g) <= 2 * r;
                t.row(vec![
                    class.into(),
                    s.order().to_string(),
                    cov.len().to_string(),
                    (0..cov.len())
                        .filter(|&i| cov.prebuilt(i).is_some())
                        .count()
                        .to_string(),
                    cov.max_degree(g).to_string(),
                    cov.max_radius(g).to_string(),
                    if valid { "✓".into() } else { "✗".into() },
                    fmt_duration(dt),
                ]);
            }
        }
        t.note(
            "On the grid and degree ≤ 3 classes the cover degree does not grow \
             with n; on random trees, G(n, 2n) and the unranked trees it grows \
             sublinearly (the theorem's n^ε, with a visible ε at r = 2 on \
             trees). The hub walks first, so a star is one cluster. Every spine \
             vertex of the caterpillar is a hub, so all its clusters are built \
             with the cover. On the clique control the single cluster spans \
             everything — the dichotomy the theory predicts.",
        );
        tables.push(t);
    }
    tables
}

/// E9: the splitter game — empirical λ̂(r) on sparse classes vs cliques,
/// with exact minimax values on small instances for calibration.
pub fn e9(quick: bool) -> Vec<Table> {
    let mut exact = Table::new(
        "E9a (Section 8): exact splitter-game values on small graphs",
        &["graph", "r", "optimal rounds"],
    );
    let mut rng = StdRng::seed_from_u64(99);
    let small: Vec<(String, Structure)> = vec![
        ("path P10".into(), foc_structures::gen::path(10)),
        ("star S9".into(), foc_structures::gen::star(9)),
        ("grid 3×4".into(), grid(3, 4)),
        ("random tree n=12".into(), random_tree(12, &mut rng)),
        ("clique K5".into(), clique(5)),
        ("clique K8".into(), clique(8)),
    ];
    for (name, s) in &small {
        for r in [1u32, 2] {
            let val = exact_game_value(s.gaifman(), r, 12)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "> 12".into());
            exact.row(vec![name.clone(), r.to_string(), val]);
        }
    }
    exact.note("On cliques the value is n (Splitter deletes one vertex per round); on trees and grids it is a small constant.");

    let mut emp = Table::new(
        "E9b: heuristic splitter-game length λ̂(r) as n grows",
        &["class", "n", "r", "rounds (heuristic)", "Splitter won"],
    );
    let sizes: &[u32] = if quick {
        &[100, 400]
    } else {
        &[100, 400, 1_600, 6_400]
    };
    let mut rng = StdRng::seed_from_u64(100);
    for &n in sizes {
        let structures: Vec<(&str, Structure)> = vec![
            ("random tree", random_tree(n, &mut rng)),
            ("grid", {
                let side = (n as f64).sqrt().round() as u32;
                grid(side, side)
            }),
            ("degree ≤ 3", bounded_degree(n, 3, 3 * n as usize, &mut rng)),
        ];
        for (class, s) in structures {
            for r in [1u32, 2] {
                let mut rng2 = StdRng::seed_from_u64(7);
                let o = estimate_game_length(s.gaifman(), r, 3, &mut rng2, 128);
                emp.row(vec![
                    class.into(),
                    n.to_string(),
                    r.to_string(),
                    o.rounds.to_string(),
                    if o.splitter_won {
                        "✓".into()
                    } else {
                        "✗ (cap)".into()
                    },
                ]);
            }
        }
    }
    // Clique control: rounds grow linearly.
    for n in [16u32, 32, 64] {
        let s = clique(n);
        let mut rng2 = StdRng::seed_from_u64(7);
        let o = estimate_game_length(s.gaifman(), 1, 1, &mut rng2, 2 * n as usize);
        emp.row(vec![
            "clique (control)".into(),
            n.to_string(),
            "1".into(),
            o.rounds.to_string(),
            if o.splitter_won {
                "✓".into()
            } else {
                "✗ (cap)".into()
            },
        ]);
    }
    emp.note(
        "λ̂(r) stays bounded as n grows on the sparse classes (they are nowhere \
         dense) and grows linearly on cliques (somewhere dense) — the paper's \
         Definition-by-splitter-game, observed.",
    );
    vec![exact, emp]
}
