//! # foc-bench — experiment harness and benchmarks
//!
//! The paper is a theory paper with no empirical tables; its "evaluation"
//! is a set of theorems. This crate reproduces each theorem as a
//! measurable experiment (see DESIGN.md §4 for the index):
//!
//! | Id | Claim |
//! |----|-------|
//! | E1 | Theorem 4.1 — FO on graphs ≼ FOC({P=}) on trees |
//! | E2 | Theorem 4.3 — … on strings |
//! | E3 | Theorem 5.5 — model checking is fp-almost-linear on nowhere dense classes |
//! | E4 | Corollary 5.6 — so is counting |
//! | E5 | Lemma 6.4 / Theorem 6.10 — the cl-decomposition |
//! | E6 | Theorem 8.1 — sparse neighbourhood covers |
//! | E7 | Example 5.3 — SQL COUNT workloads |
//! | E8 | Example 5.4 — triangle/colour cardinalities |
//! | E9 | Section 8 — the splitter game |
//! | E10 | Lemmas 7.8/7.9 — the Removal Lemma |
//! | E11 | ablations of this implementation's design choices |
//! | E12 | parallel cluster evaluation — thread sweep + BENCH_parallel.json |
//! | E14 | live updates — the serve write path (commit, `migrate_cache`, cached evaluation) vs rebuild + BENCH_updates.json |
//! | E15 | anytime evaluation — quality vs budget curve + BENCH_anytime.json |
//! | E16 | approximate counting — speedup vs epsilon + BENCH_approx.json |
//!
//! Run them with `cargo run --release -p foc-bench --bin experiments -- all`
//! (or a subset, e.g. `e3 e6 --quick`).

#![warn(missing_docs)]

pub mod exp_ablation;
pub mod exp_anytime;
pub mod exp_approx;
pub mod exp_covers;
pub mod exp_decompose;
pub mod exp_hardness;
pub mod exp_parallel;
pub mod exp_removal;
pub mod exp_scaling;
pub mod exp_sql;
pub mod exp_updates;
pub mod table;

use table::Table;

/// Runs one experiment by id (`"e1"` … `"e16"`; see [`ALL_EXPERIMENTS`]).
pub fn run_experiment(id: &str, quick: bool) -> Option<Vec<Table>> {
    match id {
        "e1" => Some(exp_hardness::e1(quick)),
        "e2" => Some(exp_hardness::e2(quick)),
        "e3" => Some(exp_scaling::e3(quick)),
        "e4" => Some(exp_scaling::e4(quick)),
        "e5" => Some(exp_decompose::e5(quick)),
        "e6" => Some(exp_covers::e6(quick)),
        "e7" => Some(exp_sql::e7(quick)),
        "e8" => Some(exp_sql::e8(quick)),
        "e9" => Some(exp_covers::e9(quick)),
        "e10" => Some(exp_removal::e10(quick)),
        "e11" => Some(exp_ablation::e11(quick)),
        "e12" => Some(exp_parallel::e12(quick)),
        "e14" => Some(exp_updates::e14(quick)),
        "e15" => Some(exp_anytime::e15(quick)),
        "e16" => Some(exp_approx::e16(quick)),
        _ => None,
    }
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e14", "e15", "e16",
];
