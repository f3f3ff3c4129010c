//! Interleaving fuzz for live updates: delta-maintained evaluation vs
//! rebuild-from-scratch.
//!
//! Each case draws a random query and structure (the [`crate::gen`]
//! families), wraps the structure in a [`DeltaStructure`], and then runs
//! a seeded interleaving of mutation batches and query evaluations. At
//! every query point three pipelines must agree:
//!
//! * **delta-local** — the `Local` engine over the live snapshot, with a
//!   [`TermCache`] carried across epochs by
//!   [`foc_locality::migrate_cache`] (dirty-ball recomputation only);
//! * **delta-cover** — the `Cover` engine over the live snapshot,
//!   sharing the same migrated [`TermCache`] and building its covers
//!   afresh on every evaluation;
//! * **oracle** — the naive reference evaluator over
//!   [`DeltaStructure::rebuild_from_scratch`], an epoch-0 structure
//!   rebuilt from the current tuples with no incremental state at all.
//!
//! A disagreement means the incremental machinery (COW commits, Gaifman
//! maintenance, or cache migration) corrupted state that a cold
//! evaluation would not have. The loop also cross-checks the
//! epoch-folded fingerprint: an effective commit that does not change
//! the structure fingerprint would silently poison every
//! fingerprint-keyed cache, so it is reported as a divergence too.
//!
//! Determinism contract: identical to [`crate::harness`] — control flow
//! depends only on `(seed, iterations)`, so two runs of the same
//! configuration produce byte-identical logs. Update cases are not
//! shrunk (an interleaving's failure step depends on all prior commits,
//! so dropping ops rarely preserves the failure; the full op history is
//! logged instead).

use std::io::Write;
use std::sync::Arc;

use foc_core::{EngineKind, Evaluator};
use foc_locality::{migrate_cache, TermCache};
use foc_logic::Predicates;
use foc_obs::{names, Metrics};
use foc_structures::{DeltaStructure, Structure, TupleOp};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::gen::{gen_case, GenConfig};
use crate::oracle::{classify, Outcome, QueryCase};

/// SplitMix64-style odd multiplier decorrelating per-iteration seeds
/// (same constant as the main harness, so `--updates` case *i* is
/// stable regardless of the iteration count).
const SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configuration of the update-interleaving fuzz loop.
#[derive(Debug, Clone)]
pub struct UpdatesConfig {
    /// Master seed: fixes every case and interleaving.
    pub seed: u64,
    /// Number of interleavings to run.
    pub iters: u64,
    /// Mutation-batch/query rounds per interleaving.
    pub steps: u64,
    /// Generator knobs for the base structure and the query.
    pub gen: GenConfig,
}

impl Default for UpdatesConfig {
    fn default() -> Self {
        UpdatesConfig {
            seed: 0,
            iters: 25,
            steps: 8,
            gen: GenConfig::default(),
        }
    }
}

/// Summary of an update-fuzz run.
#[derive(Debug, Default)]
pub struct UpdatesReport {
    /// Interleavings executed.
    pub cases: u64,
    /// Effective delta commits across all interleavings.
    pub commits: u64,
    /// Query points compared across all interleavings.
    pub queries: u64,
    /// Human-readable divergence records (also written to the log).
    pub divergences: Vec<String>,
}

impl UpdatesReport {
    /// `true` when every pipeline agreed at every query point.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Draws one mutation batch against `s`'s signature: 1–3 ops over the
/// declared relations, with components inside the universe (so the
/// batch always validates and any rejection is a harness bug).
pub(crate) fn gen_ops(rng: &mut StdRng, s: &Structure) -> Vec<TupleOp> {
    let rels = s.signature().rels();
    let order = s.order();
    if rels.is_empty() || order == 0 {
        return Vec::new();
    }
    let n_ops = rng.gen_range(1..=3usize);
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let decl = &rels[rng.gen_range(0..rels.len())];
        let tuple: Vec<u32> = (0..decl.arity).map(|_| rng.gen_range(0..order)).collect();
        let name = decl.name.name();
        ops.push(if rng.gen_bool(0.5) {
            TupleOp::insert(&name, &tuple)
        } else {
            TupleOp::delete(&name, &tuple)
        });
    }
    ops
}

fn eval_outcome(ev: &Evaluator, query: &QueryCase, s: &Structure) -> Outcome {
    match query {
        QueryCase::Sentence(f) => match ev.check_sentence(s, f) {
            Ok(b) => Outcome::Bool(b),
            Err(e) => Outcome::Err(classify(&e)),
        },
        QueryCase::Ground(t) => match ev.eval_ground(s, t) {
            Ok(i) => Outcome::Int(i),
            Err(e) => Outcome::Err(classify(&e)),
        },
    }
}

fn render_ops(ops: &[TupleOp]) -> String {
    ops.iter()
        .map(|o| o.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs the update-interleaving fuzz loop. Log lines are deterministic
/// for a fixed configuration.
pub fn fuzz_updates(cfg: &UpdatesConfig, metrics: &Metrics, log: &mut dyn Write) -> UpdatesReport {
    let _ = writeln!(
        log,
        "fuzz-updates seed={} iterations={} steps={}",
        cfg.seed, cfg.iters, cfg.steps
    );
    let preds = Predicates::standard();
    let mut report = UpdatesReport::default();
    let cases = metrics.counter(names::FUZZ_CASES);
    let divergences_ctr = metrics.counter(names::FUZZ_DIVERGENCES);
    for i in 0..cfg.iters {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ i.wrapping_mul(SEED_STRIDE));
        let case = gen_case(&mut rng, &cfg.gen);
        cases.inc();
        report.cases += 1;

        let mut delta = DeltaStructure::new(case.structure.clone());
        let cache = Arc::new(TermCache::default());
        let mut history: Vec<String> = Vec::new();

        let local = Evaluator::builder()
            .kind(EngineKind::Local)
            .shared_cache(cache.clone())
            .build();
        let cover = Evaluator::builder()
            .kind(EngineKind::Cover)
            .shared_cache(cache.clone())
            .build();
        let oracle = Evaluator::builder().kind(EngineKind::Naive).build();
        let (Ok(local), Ok(cover), Ok(oracle)) = (local, cover, oracle) else {
            unreachable!("static engine configurations are valid");
        };

        let mut diverge = |report: &mut UpdatesReport, step: u64, msg: String, hist: &[String]| {
            let line = format!(
                "UPDATE-DIVERGENCE seed {} iter {i} step {step} :: {msg} :: query {:?} :: ops [{}]",
                cfg.seed,
                case.query.text(),
                hist.join(" | "),
            );
            let _ = writeln!(log, "{line}");
            divergences_ctr.inc();
            report.divergences.push(line);
        };

        for step in 0..cfg.steps {
            let ops = gen_ops(&mut rng, delta.current());
            let old = delta.snapshot();
            match delta.apply(&ops) {
                Err(e) => {
                    history.push(render_ops(&ops));
                    diverge(
                        &mut report,
                        step,
                        format!("in-range batch rejected: {e}"),
                        &history,
                    );
                    continue;
                }
                Ok(info) => {
                    history.push(render_ops(&ops));
                    if info.changed > 0 {
                        report.commits += 1;
                        let new = delta.snapshot();
                        if new.fingerprint() == old.fingerprint() {
                            diverge(
                                &mut report,
                                step,
                                format!(
                                    "fingerprint stale across effective commit (epoch {})",
                                    info.epoch
                                ),
                                &history,
                            );
                        }
                        migrate_cache(&cache, &old, &new, &info.touched, &preds);
                        cache.evict_structure(old.fingerprint());
                    }
                }
            }

            let live = delta.snapshot();
            let rebuilt = delta.rebuild_from_scratch();
            report.queries += 1;
            let want = eval_outcome(&oracle, &case.query, &rebuilt);
            for (name, ev) in [("delta-local", &local), ("delta-cover", &cover)] {
                let got = eval_outcome(ev, &case.query, &live);
                if got != want {
                    diverge(
                        &mut report,
                        step,
                        format!("{name} got {got}, rebuild oracle wants {want}"),
                        &history,
                    );
                }
            }
        }
    }
    let _ = writeln!(
        log,
        "fuzz-updates done cases={} commits={} queries={} divergences={}",
        report.cases,
        report.commits,
        report.queries,
        report.divergences.len()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_interleavings_fuzz_clean() {
        let metrics = Metrics::new();
        let mut log = Vec::new();
        let cfg = UpdatesConfig {
            seed: 11,
            iters: 12,
            steps: 6,
            ..UpdatesConfig::default()
        };
        let report = fuzz_updates(&cfg, &metrics, &mut log);
        assert!(
            report.clean(),
            "divergences: {:#?}\nlog: {}",
            report.divergences,
            String::from_utf8_lossy(&log)
        );
        assert_eq!(report.cases, 12);
        assert!(report.commits > 0, "interleavings must commit");
        assert_eq!(report.queries, 12 * 6);
    }

    #[test]
    fn update_fuzz_logs_are_deterministic() {
        let run = |seed: u64| {
            let metrics = Metrics::new();
            let mut log = Vec::new();
            fuzz_updates(
                &UpdatesConfig {
                    seed,
                    iters: 5,
                    steps: 4,
                    ..UpdatesConfig::default()
                },
                &metrics,
                &mut log,
            );
            String::from_utf8(log).unwrap()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
