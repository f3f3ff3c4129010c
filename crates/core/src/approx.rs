//! Approximate counting-term evaluation with `(ε, δ)` guarantees.
//!
//! The exact engines (naive/local/cover) pay for dense inputs: the
//! cover engine's constants explode when neighbourhoods stop being
//! sparse, and the reference semantics enumerates the whole assignment
//! space. Following the approach of Dreier & Rossmanith, *Approximate
//! Evaluation of First-Order Counting Queries* (arXiv:2010.14814,
//! PAPERS.md), this module trades exactness for an explicit accuracy
//! contract: a counting term `#(x₁,…,x_k).φ` over a structure of order
//! `n` is estimated by drawing `m` assignments uniformly from the
//! `n^k`-element assignment space and scaling the hit rate back up.
//!
//! **The contract.** With `m = ⌈ln(2/δ) / (2ε²)⌉` samples, Hoeffding's
//! inequality gives `P(|estimate − exact| > ε·n^k) ≤ δ`: every answer
//! is an [`ApproxValue`] carrying the additive `error_bound = ⌈ε·n^k⌉`
//! it claims, so downstream layers (serve frames, the diff oracle, the
//! CLI) can check or display the guarantee rather than trusting a bare
//! number. When the assignment space is no larger than the sample
//! budget the estimator falls through to exhaustive enumeration — the
//! answer is then exact and the bound collapses to zero.
//!
//! **Determinism.** Sampling uses the in-tree rand shim's seeded
//! xoshiro256++ stream ([`rand::rngs::StdRng`]); the draw sequence is a
//! pure function of [`ApproxConfig::seed`], so a fuel-bounded run is
//! fully reproducible — the property the anytime ladder and the diff
//! harness rely on.

use std::sync::Arc;
use std::time::Duration;

use foc_eval::{Assignment, NaiveEvaluator};
use foc_guard::Phase;
use foc_logic::{Formula, Term, Var};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Evaluator;
use crate::error::{Error, Result};

/// The accuracy knob of the approximate counting engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Relative accuracy: the additive error bound is `ε · n^k` (a
    /// fraction of the assignment space).
    pub epsilon: f64,
    /// Failure probability: the bound holds with probability `≥ 1 − δ`.
    pub delta: f64,
    /// Seed for the sampler's deterministic stream.
    pub seed: u64,
}

impl Default for ApproxConfig {
    fn default() -> ApproxConfig {
        ApproxConfig {
            epsilon: 0.1,
            delta: 0.05,
            seed: 0x0a11_ce5e,
        }
    }
}

impl ApproxConfig {
    /// A config with the given `ε`, default `δ` and seed.
    pub fn with_epsilon(epsilon: f64) -> ApproxConfig {
        ApproxConfig {
            epsilon,
            ..ApproxConfig::default()
        }
    }

    /// Validates the knob: `ε ∈ (0, 1]`, `δ ∈ (0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(Error::Config(format!(
                "epsilon must be in (0, 1], got {}",
                self.epsilon
            )));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(Error::Config(format!(
                "delta must be in (0, 1), got {}",
                self.delta
            )));
        }
        Ok(())
    }
}

/// An estimate that carries its guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxValue {
    /// The estimated value of the counting term.
    pub estimate: i64,
    /// The additive half-width of the guarantee interval: the true
    /// value lies within `estimate ± error_bound` with probability
    /// `≥ 1 − δ` (zero when the estimator ran exhaustively).
    pub error_bound: u64,
    /// Assignments drawn and evaluated.
    pub samples: u64,
    /// Whether the assignment space was small enough to enumerate
    /// exhaustively (the answer is then exact).
    pub exhaustive: bool,
}

/// The Hoeffding sample size for one `(ε, δ)` setting:
/// `m = ⌈ln(2/δ) / (2ε²)⌉`.
pub fn sample_size(epsilon: f64, delta: f64) -> u64 {
    ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as u64
}

/// Fewest completed samples a tripped sampler needs before its widened
/// (recomputed-for-`m'`) bound is worth banking.
const MIN_PARTIAL_SAMPLES: u64 = 16;

/// Clamps a non-negative f64 into u64.
fn f64_to_u64(v: f64) -> u64 {
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v.max(0.0) as u64
    }
}

/// Clamps a non-negative f64 into i64.
fn f64_to_i64(v: f64) -> i64 {
    if v >= i64::MAX as f64 {
        i64::MAX
    } else {
        v.max(0.0) as i64
    }
}

/// What one sampler invocation did (the anytime rung's view: a trip may
/// still have banked a widened-bound estimate).
pub(crate) struct SamplerOutcome {
    /// The banked estimate, if enough samples completed.
    pub value: Option<ApproxValue>,
    /// Fuel the guarded evaluations spent.
    pub fuel_spent: u64,
    /// Samples (or exhaustive assignments) completed.
    pub done: u64,
    /// The target sample count.
    pub total: u64,
    /// The budget trip or real error that stopped the run early.
    pub error: Option<Error>,
}

impl Evaluator {
    /// Approximate evaluation of a ground counting term: a sampling
    /// estimate whose additive [`ApproxValue::error_bound`] holds with
    /// probability `≥ 1 − δ` (see the module docs for the contract).
    ///
    /// Supports integer constants (exact), top-level counts (sampled),
    /// and sums of those (bounds add); products and other shapes are
    /// [`Error::Unsupported`] — there is no sound way to propagate an
    /// additive guarantee through them. A budget trip mid-sampling
    /// returns the estimate with a *widened* bound (recomputed for the
    /// samples that did complete) once at least a handful finished,
    /// and [`Error::Interrupted`] otherwise.
    pub fn approx_count(&self, a: &Structure, t: &Arc<Term>) -> Result<ApproxValue> {
        let cfg = self.approx_config();
        cfg.validate()?;
        match &**t {
            Term::Int(v) => Ok(ApproxValue {
                estimate: *v,
                error_bound: 0,
                samples: 0,
                exhaustive: true,
            }),
            Term::Count(vars, body) if !vars.is_empty() => {
                let out = self.approx_sample(a, t, vars, body, &cfg, None);
                match (out.value, out.error) {
                    (Some(v), None) => Ok(v),
                    (Some(v), Some(Error::Interrupted(_))) => Ok(v),
                    (_, Some(e)) => Err(e),
                    (None, None) => unreachable!("sampler banked nothing without an error"),
                }
            }
            Term::Add(parts) => {
                let mut estimate: i64 = 0;
                let mut error_bound: u64 = 0;
                let mut samples: u64 = 0;
                let mut exhaustive = true;
                for p in parts {
                    let v = self.approx_count(a, p)?;
                    estimate = estimate.saturating_add(v.estimate);
                    error_bound = error_bound.saturating_add(v.error_bound);
                    samples = samples.saturating_add(v.samples);
                    exhaustive &= v.exhaustive;
                }
                Ok(ApproxValue {
                    estimate,
                    error_bound,
                    samples,
                    exhaustive,
                })
            }
            _ => Err(Error::Unsupported(
                "approximate evaluation supports counting terms, integer constants, and \
                 sums of those; products have no sound additive error propagation"
                    .into(),
            )),
        }
    }

    /// The effective `(ε, δ)` knob: the configured one, or the default.
    pub fn approx_config(&self) -> ApproxConfig {
        self.approx.unwrap_or_default()
    }

    /// One sampler run over `#(vars).body`, optionally under a pass
    /// slice `(deadline, fuel)` that overrides the engine budget (the
    /// anytime ladder's arming pattern).
    pub(crate) fn approx_sample(
        &self,
        a: &Structure,
        t: &Arc<Term>,
        vars: &[Var],
        body: &Arc<Formula>,
        cfg: &ApproxConfig,
        plan: Option<(Option<Duration>, Option<u64>)>,
    ) -> SamplerOutcome {
        let elems: Vec<u32> = a.universe().collect();
        let n = elems.len() as u64;
        let k = vars.len();
        let space = (n as f64).powi(k as i32);
        let m = sample_size(cfg.epsilon, cfg.delta);

        let mut budget = self.budget().clone();
        if let Some((deadline, fuel)) = plan {
            budget.deadline = deadline;
            budget.fuel = fuel;
        }
        let guard = budget.arm();
        let mut nev = NaiveEvaluator::new(a, self.predicates());
        nev.set_guard(guard.clone());

        if n == 0 || space <= m as f64 {
            // The assignment space fits inside the sample budget:
            // enumerate it exactly through the reference semantics.
            let total = space as u64;
            return match nev.eval_ground(t) {
                Ok(v) => SamplerOutcome {
                    value: Some(ApproxValue {
                        estimate: v,
                        error_bound: 0,
                        samples: total,
                        exhaustive: true,
                    }),
                    fuel_spent: guard.fuel_spent(),
                    done: total,
                    total,
                    error: None,
                },
                Err(e) => SamplerOutcome {
                    value: None,
                    fuel_spent: guard.fuel_spent(),
                    done: 0,
                    total,
                    error: Some(e.into()),
                },
            };
        }

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut env = Assignment::new();
        let mut hits: u64 = 0;
        let mut done: u64 = 0;
        let mut error: Option<Error> = None;
        'sampling: for _ in 0..m {
            // One fuel unit per sample: a flat body charges nothing on
            // its own, and an uncharged loop could never trip — which
            // would make the widened-bound path below unreachable and
            // the sampler's budget a fiction.
            if let Err(i) = guard.check(Phase::NaiveEval) {
                error = Some(Error::Interrupted(i));
                break 'sampling;
            }
            let mut bound: Vec<(Var, Option<u32>)> = Vec::with_capacity(k);
            for &x in vars {
                let e = elems[rng.gen_range(0..n as usize)];
                bound.push((x, env.bind(x, e)));
            }
            let r = nev.check(body, &mut env);
            for &(x, prev) in bound.iter().rev() {
                env.restore(x, prev);
            }
            match r {
                Ok(true) => {
                    hits += 1;
                    done += 1;
                }
                Ok(false) => done += 1,
                Err(e) => {
                    error = Some(e.into());
                    break 'sampling;
                }
            }
        }

        let value = if done == m {
            Some(finish(hits, done, space, cfg.epsilon))
        } else if done >= MIN_PARTIAL_SAMPLES && matches!(error, Some(Error::Interrupted(_))) {
            // The budget tripped mid-sampling: the completed prefix of
            // the stream is still an i.i.d. uniform sample, so the
            // Hoeffding bound recomputed for `done` samples —
            // `ε' = √(ln(2/δ) / (2·done))` — still holds. Wider, but
            // still a guarantee.
            let eps = ((2.0 / cfg.delta).ln() / (2.0 * done as f64)).sqrt();
            Some(finish(hits, done, space, eps))
        } else {
            None
        };
        SamplerOutcome {
            value,
            fuel_spent: guard.fuel_spent(),
            done,
            total: m,
            error,
        }
    }
}

/// Scales a hit count back to the assignment space and attaches the
/// additive bound for the given effective ε.
fn finish(hits: u64, done: u64, space: f64, epsilon: f64) -> ApproxValue {
    let estimate = f64_to_i64((hits as f64 / done as f64 * space).round());
    ApproxValue {
        estimate,
        error_bound: f64_to_u64((epsilon * space).ceil()).max(1),
        samples: done,
        exhaustive: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use foc_logic::build::{and, atom, cnt, not, v};
    use foc_structures::gen::{clique, grid};

    fn non_edges() -> Arc<Term> {
        let x = v("qx");
        let y = v("qy");
        cnt(
            [x, y],
            and(not(atom("E", [x, y])), not(foc_logic::build::eq(x, y))),
        )
    }

    #[test]
    fn sample_size_matches_hoeffding() {
        // ln(2/0.05) / (2·0.01) = 3.688…/0.02 ≈ 184.4 → 185.
        assert_eq!(sample_size(0.1, 0.05), 185);
        assert!(sample_size(0.05, 0.05) > sample_size(0.1, 0.05));
        assert!(sample_size(0.1, 0.01) > sample_size(0.1, 0.05));
    }

    #[test]
    fn small_space_is_exhaustive_and_exact() {
        let a = grid(3, 3); // 81 pairs < 185 samples
        let t = non_edges();
        let ev = Evaluator::builder().build().unwrap();
        let exact = ev.eval_ground(&a, &t).unwrap();
        let got = ev.approx_count(&a, &t).unwrap();
        assert!(got.exhaustive);
        assert_eq!(got.estimate, exact);
        assert_eq!(got.error_bound, 0);
    }

    #[test]
    fn estimate_is_within_its_claimed_bound() {
        let a = clique(40); // 1600 pairs > 185 samples
        let t = non_edges();
        let ev = Evaluator::builder()
            .kind(EngineKind::Naive)
            .build()
            .unwrap();
        let exact = ev.eval_ground(&a, &t).unwrap();
        let got = ev.approx_count(&a, &t).unwrap();
        assert!(!got.exhaustive);
        assert!(got.error_bound > 0);
        let err = (got.estimate - exact).unsigned_abs();
        assert!(
            err <= got.error_bound,
            "estimate {} vs exact {exact}: error {err} exceeds claimed bound {}",
            got.estimate,
            got.error_bound
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = clique(32);
        let t = non_edges();
        let ev = Evaluator::builder().build().unwrap();
        let a1 = ev.approx_count(&a, &t).unwrap();
        let a2 = ev.approx_count(&a, &t).unwrap();
        assert_eq!(a1, a2);
        // A different seed may (and here does) draw a different stream,
        // but stays within the shared bound of the same space.
        let ev2 = Evaluator::builder()
            .approx(ApproxConfig {
                seed: 99,
                ..ApproxConfig::default()
            })
            .build()
            .unwrap();
        let a3 = ev2.approx_count(&a, &t).unwrap();
        assert_eq!(a1.error_bound, a3.error_bound);
    }

    #[test]
    fn tighter_epsilon_means_tighter_bound_and_more_samples() {
        let a = clique(48);
        let t = non_edges();
        let loose = Evaluator::builder()
            .approx(ApproxConfig::with_epsilon(0.2))
            .build()
            .unwrap()
            .approx_count(&a, &t)
            .unwrap();
        let tight = Evaluator::builder()
            .approx(ApproxConfig::with_epsilon(0.05))
            .build()
            .unwrap()
            .approx_count(&a, &t)
            .unwrap();
        assert!(tight.error_bound < loose.error_bound);
        assert!(tight.samples > loose.samples);
    }

    #[test]
    fn unsupported_shapes_are_refused() {
        let a = grid(3, 3);
        let x = v("mx");
        let t = Arc::new(Term::Mul(vec![
            Arc::new(Term::Int(2)),
            cnt([x], atom("E", [x, x])),
        ]));
        let ev = Evaluator::builder().build().unwrap();
        assert!(matches!(
            ev.approx_count(&a, &t),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn bad_knobs_are_config_errors() {
        let a = grid(3, 3);
        let t = non_edges();
        let ev = Evaluator::builder()
            .approx(ApproxConfig {
                epsilon: 0.0,
                ..ApproxConfig::default()
            })
            .build()
            .unwrap();
        assert!(matches!(ev.approx_count(&a, &t), Err(Error::Config(_))));
    }

    #[test]
    fn fuel_trip_widens_the_bound_or_interrupts() {
        let a = clique(64);
        let t = non_edges();
        let full = Evaluator::builder().build().unwrap();
        let want = full.approx_count(&a, &t).unwrap();
        assert_eq!(want.samples, 185, "default (0.1, 0.05) sample size");

        // Fuel for some but not all samples: the completed prefix is
        // still a valid Hoeffding experiment at a wider tolerance, so
        // the sampler must return it with the widened bound (fuel is
        // deterministic, so this path — not the interrupt — is pinned).
        let ev = Evaluator::builder().fuel(100).build().unwrap();
        let got = ev
            .approx_count(&a, &t)
            .expect("≥16 completed samples must yield a widened-bound estimate");
        assert!(
            got.samples < want.samples,
            "a 100-fuel run cannot complete all {} samples",
            want.samples
        );
        assert!(
            got.error_bound > want.error_bound,
            "partial bound must widen"
        );

        // Starved below MIN_PARTIAL_SAMPLES: a bound wider than the
        // space is not an answer, so the interrupt must surface.
        let starved = Evaluator::builder().fuel(8).build().unwrap();
        match starved.approx_count(&a, &t) {
            Err(Error::Interrupted(_)) => {}
            other => panic!("expected an interrupt from an 8-fuel run, got {other:?}"),
        }
    }
}
