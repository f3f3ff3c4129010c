//! E3/E4 — the main theorem empirically: FOC1(P) model checking and
//! counting scale almost linearly on nowhere dense classes (Theorem 5.5,
//! Corollary 5.6), while the reference evaluation is polynomially worse.

use std::time::Instant;

use foc_core::{EngineKind, Evaluator};
use foc_logic::parse::{parse_formula, parse_term};
use foc_structures::gen::{balanced_tree, bounded_degree, caterpillar, grid, random_tree, star};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fit_exponent, fmt_duration, Table};

/// A named structure-class generator.
pub(crate) type ClassGen = Box<dyn Fn(u32) -> Structure>;

/// `⌊√n⌋`, the side of the square-shaped classes.
fn side(n: u32) -> u32 {
    (n as f64).sqrt().round() as u32
}

/// E3's classes: three with small balls, and three with hubs (a star,
/// the caterpillar with √n legs on a √n spine, and the star of stars
/// `balanced_tree(√n, 2)`), each of order ≈ n. The flag marks the hub
/// classes, whose reference evaluation is cubic.
pub(crate) fn classes(rng_seed: u64) -> Vec<(&'static str, bool, ClassGen)> {
    vec![
        ("random tree", false, {
            Box::new(move |n| {
                let mut rng = StdRng::seed_from_u64(rng_seed);
                random_tree(n, &mut rng)
            })
        }),
        ("grid", false, Box::new(|n| grid(side(n), side(n)))),
        ("degree ≤ 3", false, {
            Box::new(move |n| {
                let mut rng = StdRng::seed_from_u64(rng_seed + 1);
                bounded_degree(n, 3, 3 * n as usize, &mut rng)
            })
        }),
        ("star", true, Box::new(star)),
        (
            "caterpillar(√n, √n)",
            true,
            Box::new(|n| caterpillar(side(n), side(n))),
        ),
        (
            "balanced_tree(√n, 2)",
            true,
            Box::new(|n| balanced_tree(side(n), 2)),
        ),
    ]
}

/// E3: model checking a fixed FOC1(P) sentence while n grows, with the
/// cover engine's removal count and largest materialised cluster.
pub fn e3(quick: bool) -> Vec<Table> {
    let sizes: &[u32] = if quick {
        &[500, 1_000, 2_000]
    } else {
        &[1_000, 4_000, 16_000, 64_000]
    };
    let naive_cap = if quick { 1_000 } else { 4_000 };
    // "The number of vertex pairs more than 2 apart is even, and some
    // vertex has ≥ 2 neighbours of degree 1" — cardinality conditions
    // whose naive evaluation is Θ(n²·ball).
    let sentence = parse_formula(
        "@even(#(x,y). !(dist(x,y) <= 2)) & exists x. #(y). (E(x,y) & #(z). E(y,z) = 1) >= 2",
    )
    .unwrap();
    let mut tables = Vec::new();
    for (class, hubs, make) in classes(33) {
        let mut t = Table::new(
            format!("E3 (Theorem 5.5): model checking on {class} — time vs n"),
            &[
                "n",
                "‖A‖",
                "naive",
                "local",
                "cover",
                "removals",
                "peak cluster",
                "agree",
            ],
        );
        let mut points: [Vec<(f64, f64)>; 3] = Default::default();
        let mut removals = 0;
        for &n in sizes {
            let s = make(n);
            let mut cells = vec![s.order().to_string(), s.size().to_string()];
            let mut reference: Option<bool> = None;
            let mut agree = true;
            let mut cover_stats = None;
            for (i, kind) in [EngineKind::Naive, EngineKind::Local, EngineKind::Cover]
                .into_iter()
                .enumerate()
            {
                // Naive is Θ(n²·ball), and a hub's ball is everything.
                if kind == EngineKind::Naive && (n > naive_cap || hubs && n > sizes[0]) {
                    cells.push("—".into());
                    continue;
                }
                let ev = Evaluator::builder().kind(kind).build().unwrap();
                let mut session = ev.session(&s);
                let t0 = Instant::now();
                let ans = session.check_sentence(&sentence).unwrap();
                let dt = t0.elapsed();
                match reference {
                    None => reference = Some(ans),
                    Some(r) => agree &= r == ans,
                }
                if kind == EngineKind::Cover {
                    cover_stats = Some(session.stats());
                }
                points[i].push((f64::from(s.order()), dt.as_secs_f64()));
                cells.push(fmt_duration(dt));
            }
            let stats = cover_stats.unwrap_or_default();
            removals += stats.removals;
            cells.push(stats.removals.to_string());
            cells.push(stats.peak_cluster.to_string());
            cells.push(if agree { "✓".into() } else { "✗".into() });
            t.row(cells);
        }
        let [naive, local, cover] = points.map(|p| match fit_exponent(&p) {
            a if a.is_nan() => "— (one point)".to_string(),
            a => format!("{a:.2}"),
        });
        t.note(format!(
            "fitted exponents (time ≈ c·n^α): naive α ≈ {naive}, local α ≈ {local}, \
             cover α ≈ {cover} (the paper predicts α ≈ 1 + ε for the decomposed engines)."
        ));
        if hubs && removals == 0 {
            t.note(
                "Every cluster around a hub here holds more hubs than the removal depth \
                 (1), so the cover engine answers all of them directly, by ball \
                 enumeration on the whole structure: no removal runs, and the hubs \
                 cost what they cost the local engine.",
            );
        }
        tables.push(t);
    }
    tables
}

/// E4: the counting problem |φ(A)| (Corollary 5.6) — naive vs the
/// decomposed engines, including the inclusion–exclusion showcase
/// (counting non-edges).
pub fn e4(quick: bool) -> Vec<Table> {
    let sizes: &[u32] = if quick {
        &[500, 1_000, 2_000]
    } else {
        &[1_000, 2_000, 4_000, 8_000]
    };
    let naive_cap = if quick { 1_000 } else { 4_000 };
    let terms = [
        (
            "non-edges: #(x,y). (!E(x,y) ∧ x≠y)",
            "#(x,y). (!(E(x,y)) & !(x = y))",
        ),
        (
            "far pairs: #(x,y). dist(x,y) > 2",
            "#(x,y). !(dist(x,y) <= 2)",
        ),
        (
            "deg-1 pairs: #(x,y). (E(x,y) ∧ deg(y)=1)",
            "#(x,y). (E(x,y) & #(z). E(y,z) = 1)",
        ),
    ];
    let mut tables = Vec::new();
    for (label, src) in terms {
        let term = parse_term(src).unwrap();
        let mut t = Table::new(
            format!("E4 (Corollary 5.6): counting on random trees — {label}"),
            &["n", "value", "naive", "local", "speed-up", "agree"],
        );
        let mut rng = StdRng::seed_from_u64(44);
        for &n in sizes {
            let s = random_tree(n, &mut rng);
            let local = Evaluator::builder()
                .kind(EngineKind::Local)
                .build()
                .unwrap();
            let t0 = Instant::now();
            let lv = local.eval_ground(&s, &term).unwrap();
            let lt = t0.elapsed();
            if n > naive_cap {
                t.row(vec![
                    n.to_string(),
                    lv.to_string(),
                    "—".into(),
                    fmt_duration(lt),
                    "—".into(),
                    "—".into(),
                ]);
                continue;
            }
            let naive = Evaluator::builder()
                .kind(EngineKind::Naive)
                .build()
                .unwrap();
            let t0 = Instant::now();
            let nv = naive.eval_ground(&s, &term).unwrap();
            let nt = t0.elapsed();
            t.row(vec![
                n.to_string(),
                lv.to_string(),
                fmt_duration(nt),
                fmt_duration(lt),
                format!("{:.1}×", nt.as_secs_f64() / lt.as_secs_f64().max(1e-9)),
                if nv == lv { "✓".into() } else { "✗".into() },
            ]);
        }
        tables.push(t);
    }
    tables
}
