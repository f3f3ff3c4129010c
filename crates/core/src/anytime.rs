//! Anytime evaluation: the deepening driver.
//!
//! A tripped deadline or fuel budget used to yield
//! [`Error::Interrupted`] and discard all partial work. This module
//! turns every budget into a *quality* knob instead: the query runs
//! through progressively stronger passes, each pass banks the best
//! answer it can prove, and when the budget trips the caller receives
//! the banked answer with a [`Confidence`] tag instead of an error.
//!
//! The pass ladder, from weakest to strongest:
//!
//! 1. **`sample`** — only for a ground counting term `#(x̄).φ` with at
//!    least one counted variable: a prefix of the *assignment space*.
//!    Elements are processed one at a time, each contributing its exact
//!    sub-count over the full structure, so the accumulated tally is a
//!    sound **lower bound** (and the exact value if every element
//!    completes).
//! 2. **`approx`** — same terms only: the `(ε, δ)` estimator, tagged
//!    with its additive error bound.
//! 3. **`local`** — the full locality decomposition + ball enumeration
//!    engine (only on the cover ladder). Exact on completion.
//! 4. **`exact`** — the configured engine (usually the cover +
//!    removal recursion of Section 8.2). Exact on completion.
//!
//! Sentences and every other term run just `[local →] exact`: a
//! verdict is either proved on the whole structure or not given, so a
//! tripped budget yields [`Error::Interrupted`], never a guess.
//!
//! A [`TimeManager`] splits the request budget across the passes:
//! weighted slices for the early passes, everything that remains for
//! the final one, with per-pass cost estimates (fed back from the
//! [`CostModel`]'s live histograms) used to skip a pass whose projected
//! completion exceeds the remaining budget. The sample pass also aborts
//! its own chunking early when its projection says the full prefix
//! cannot finish in its slice.
//!
//! Determinism: with a fuel-only budget every decision in this module
//! is a function of the fuel arithmetic, so two identical runs produce
//! identical best-so-far answers and tags (wall-clock projections are
//! only consulted when a deadline is armed).

use std::sync::Arc;
use std::time::{Duration, Instant};

use foc_eval::{Assignment, NaiveEvaluator};
use foc_guard::{Confidence, Interrupt, PassPlan, Phase, SkipReason, TimeManager, TripReason};
use foc_logic::{Formula, Term, Var};
use foc_obs::{names, pow2_buckets, quantile, Counter, Histogram, Metrics};
use foc_structures::Structure;

use crate::engine::{EngineKind, Evaluator};
use crate::error::{Error, Result};

/// Fraction of the remaining budget the `sample` pass may spend.
const SAMPLE_WEIGHT: f64 = 0.3;
/// Fraction of the remaining budget the `approx` pass may spend.
const APPROX_WEIGHT: f64 = 0.2;
/// Fraction of the remaining budget the `local` pass may spend.
const LOCAL_WEIGHT: f64 = 0.4;
/// Elements the chunked sample pass processes before its projection
/// may abort the pass.
const MIN_CHUNK: u64 = 4;

/// Which rung of the pass ladder a report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Reference semantics on a sample of the work.
    Sample,
    /// The `(ε, δ)` sampling estimator over the assignment space of a
    /// ground counting term (the approximate counting engine).
    Approx,
    /// Full evaluation with the locality engine.
    Local,
    /// Full evaluation with the configured engine.
    Exact,
}

impl PassKind {
    /// The wire/rendering name: `"sample"`, `"approx"`, `"local"` or
    /// `"exact"`.
    pub fn name(&self) -> &'static str {
        match self {
            PassKind::Sample => "sample",
            PassKind::Approx => "approx",
            PassKind::Local => "local",
            PassKind::Exact => "exact",
        }
    }
}

/// How one pass ended.
#[derive(Debug, Clone)]
pub enum PassStatus {
    /// The pass ran its full computation.
    Completed,
    /// The pass's own projection said the full computation cannot fit
    /// in its slice, so it stopped early with what it had banked.
    Aborted,
    /// The pass's guard tripped.
    Tripped(Interrupt),
    /// The time manager declined to start the pass.
    Skipped(SkipReason),
    /// The pass hit a non-budget error (recorded; a later pass decides
    /// whether it is fatal).
    Errored(Error),
}

/// A best-so-far value: Boolean for sentences, integer for terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerValue {
    /// A model-checking verdict.
    Bool(bool),
    /// A counting-term value.
    Int(i64),
}

/// What one pass of a deepening run did.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// The rung.
    pub pass: PassKind,
    /// How the pass ended.
    pub status: PassStatus,
    /// The value the pass banked, if any.
    pub value: Option<AnswerValue>,
    /// The confidence of that value.
    pub confidence: Option<Confidence>,
    /// Wall time the pass spent, in microseconds.
    pub micros: u64,
    /// Fuel the pass spent.
    pub fuel_spent: u64,
    /// Work units completed (sample elements, estimator samples, or
    /// top-level cover clusters for a full pass).
    pub clusters_done: u64,
    /// Total work units of the pass.
    pub clusters_total: u64,
}

/// The outcome of a deepening run: the best answer any pass proved,
/// tagged with how much it is worth.
#[derive(Debug, Clone)]
pub struct Anytime<T> {
    /// The best-so-far answer.
    pub value: T,
    /// How trustworthy it is.
    pub confidence: Confidence,
    /// One report per pass, in ladder order.
    pub passes: Vec<PassReport>,
    /// The budget trip that prevented an exact answer, if any.
    pub interrupt: Option<Interrupt>,
}

impl<T> Anytime<T> {
    /// Total fuel spent across the passes.
    pub fn fuel_spent(&self) -> u64 {
        self.passes.iter().map(|p| p.fuel_spent).sum()
    }
}

/// Live per-pass cost history: completed-pass wall times feed the
/// histograms, and the time manager reads quantile estimates back out.
/// Share one model across requests (the server holds one per process)
/// so estimates reflect the deployed workload.
#[derive(Debug, Clone)]
pub struct CostModel {
    sample: Histogram,
    approx: Histogram,
    local: Histogram,
    exact: Histogram,
    runs: Counter,
    exact_runs: Counter,
    degraded: Counter,
    skipped: Counter,
    approx_runs: Counter,
    approx_samples: Counter,
    approx_exhaustive: Counter,
    approx_bound: Histogram,
}

/// Completed passes a histogram must hold before its estimates are
/// trusted.
const MIN_OBSERVATIONS: u64 = 3;

impl CostModel {
    /// Resolves the model's instruments from a metrics registry.
    pub fn new(m: &Metrics) -> CostModel {
        let buckets = pow2_buckets(32);
        CostModel {
            sample: m.histogram(names::ANYTIME_PASS_SAMPLE_MICROS, &buckets),
            approx: m.histogram(names::ANYTIME_PASS_APPROX_MICROS, &buckets),
            local: m.histogram(names::ANYTIME_PASS_LOCAL_MICROS, &buckets),
            exact: m.histogram(names::ANYTIME_PASS_EXACT_MICROS, &buckets),
            runs: m.counter(names::ANYTIME_RUNS),
            exact_runs: m.counter(names::ANYTIME_EXACT),
            degraded: m.counter(names::ANYTIME_DEGRADED),
            skipped: m.counter(names::ANYTIME_PASS_SKIPPED),
            approx_runs: m.counter(names::ENGINE_APPROX_RUNS),
            approx_samples: m.counter(names::ENGINE_APPROX_SAMPLES),
            approx_exhaustive: m.counter(names::ENGINE_APPROX_EXHAUSTIVE),
            approx_bound: m.histogram(names::ENGINE_APPROX_ERROR_BOUND, &buckets),
        }
    }

    fn histogram(&self, pass: PassKind) -> &Histogram {
        match pass {
            PassKind::Sample => &self.sample,
            PassKind::Approx => &self.approx,
            PassKind::Local => &self.local,
            PassKind::Exact => &self.exact,
        }
    }

    /// Records one estimator run's `engine.approx.*` facts: samples
    /// drawn, exhaustive fall-through, and the claimed error bound.
    pub fn record_approx(&self, samples: u64, error_bound: u64, exhaustive: bool) {
        self.approx_runs.inc();
        self.approx_samples.add(samples);
        if exhaustive {
            self.approx_exhaustive.inc();
        }
        self.approx_bound.observe(error_bound);
    }

    /// Records a completed pass's wall time.
    pub fn record(&self, pass: PassKind, micros: u64) {
        self.histogram(pass).observe(micros);
    }

    /// The p75 of the pass's observed wall times, once enough history
    /// exists to be worth trusting.
    pub fn estimate(&self, pass: PassKind) -> Option<Duration> {
        let h = self.histogram(pass);
        if h.count() < MIN_OBSERVATIONS {
            return None;
        }
        quantile(&h.snapshot(), 0.75).map(Duration::from_micros)
    }
}

/// The query being deepened.
#[derive(Clone, Copy)]
enum QueryRef<'q> {
    Sentence(&'q Arc<Formula>),
    Ground(&'q Arc<Term>),
}

/// What one executed (not skipped) pass produced.
struct PassRun {
    status: PassStatus,
    banked: Option<(AnswerValue, Confidence)>,
    fuel_spent: u64,
    clusters_done: u64,
    clusters_total: u64,
}

impl Evaluator {
    /// Anytime model checking: like [`Evaluator::check_sentence`], but
    /// the budget is split across the `[local →] exact` ladder. A verdict
    /// is always exact; when no full pass completes the run ends in
    /// [`Error::Interrupted`].
    pub fn check_sentence_anytime(
        &self,
        a: &Structure,
        f: &Arc<Formula>,
        model: Option<&CostModel>,
        on_pass: Option<&mut dyn FnMut(&PassReport)>,
    ) -> Result<Anytime<bool>> {
        let out = self.deepen(a, QueryRef::Sentence(f), model, on_pass)?;
        Ok(Anytime {
            value: match out.value {
                AnswerValue::Bool(b) => b,
                AnswerValue::Int(v) => v != 0,
            },
            confidence: out.confidence,
            passes: out.passes,
            interrupt: out.interrupt,
        })
    }

    /// Anytime ground-term evaluation: like [`Evaluator::eval_ground`],
    /// but a budget trip returns the best-so-far value (a sound lower
    /// bound for top-level counting terms) with its confidence tag.
    pub fn eval_ground_anytime(
        &self,
        a: &Structure,
        t: &Arc<Term>,
        model: Option<&CostModel>,
        on_pass: Option<&mut dyn FnMut(&PassReport)>,
    ) -> Result<Anytime<i64>> {
        let out = self.deepen(a, QueryRef::Ground(t), model, on_pass)?;
        Ok(Anytime {
            value: match out.value {
                AnswerValue::Int(v) => v,
                AnswerValue::Bool(b) => i64::from(b),
            },
            confidence: out.confidence,
            passes: out.passes,
            interrupt: out.interrupt,
        })
    }

    /// The deepening loop: plan a slice, run a pass, bank its answer,
    /// stop at the first exact completion or when the budget is gone.
    fn deepen(
        &self,
        a: &Structure,
        q: QueryRef<'_>,
        model: Option<&CostModel>,
        mut on_pass: Option<&mut dyn FnMut(&PassReport)>,
    ) -> Result<Anytime<AnswerValue>> {
        let mut tm = TimeManager::new(self.budget().deadline, self.budget().fuel);
        if !tm.bounded() {
            // Nothing to split: a single exact pass (a cancel token can
            // still trip it, but with no banked fallback that surfaces
            // as the interrupt it is).
            let t0 = Instant::now();
            let run = self.full_pass(a, q, self.kind(), None);
            let report = report_of(PassKind::Exact, &run, t0.elapsed());
            return match run.status {
                PassStatus::Completed => {
                    let (value, confidence) = run
                        .banked
                        .unwrap_or((AnswerValue::Int(0), Confidence::Exact));
                    if let Some(cb) = on_pass.as_deref_mut() {
                        cb(&report);
                    }
                    Ok(Anytime {
                        value,
                        confidence,
                        passes: vec![report],
                        interrupt: None,
                    })
                }
                PassStatus::Tripped(i) => Err(Error::Interrupted(i)),
                PassStatus::Errored(e) => Err(e),
                PassStatus::Aborted | PassStatus::Skipped(_) => unreachable!("full pass"),
            };
        }

        if let Some(m) = model {
            m.runs.inc();
        }
        // Only a ground counting term has sound sub-exact answers: a
        // verified lower bound from the chunked sample, then the `(ε, δ)`
        // estimator, whose explicit error guarantee ranks above it.
        let counting = match q {
            QueryRef::Ground(t) => match &**t {
                Term::Count(vars, body) if !vars.is_empty() => Some((t, &**vars, body)),
                _ => None,
            },
            QueryRef::Sentence(_) => None,
        };
        let mut ladder: Vec<(PassKind, EngineKind)> = Vec::with_capacity(4);
        if counting.is_some() {
            ladder.push((PassKind::Sample, EngineKind::Naive));
            ladder.push((PassKind::Approx, EngineKind::Naive));
        }
        if self.kind() == EngineKind::Cover {
            ladder.push((PassKind::Local, EngineKind::Local));
        }
        ladder.push((PassKind::Exact, self.kind()));

        let mut best: Option<(AnswerValue, Confidence)> = None;
        let mut reports: Vec<PassReport> = Vec::with_capacity(ladder.len());
        let mut last_trip: Option<Interrupt> = None;
        let mut last_error: Option<Error> = None;

        for (i, &(pk, ek)) in ladder.iter().enumerate() {
            let is_final = i + 1 == ladder.len();
            let weight = match pk {
                PassKind::Sample => SAMPLE_WEIGHT,
                PassKind::Approx => APPROX_WEIGHT,
                PassKind::Local => LOCAL_WEIGHT,
                PassKind::Exact => 1.0,
            };
            // A final pass with nothing banked yet runs regardless of
            // what the projection says — a slim chance beats none.
            let estimate = if is_final && best.is_none() {
                None
            } else {
                model.and_then(|m| m.estimate(pk))
            };
            let plan = match tm.plan(weight, estimate, is_final) {
                Ok(p) => p,
                Err(reason) => {
                    if let Some(m) = model {
                        m.skipped.inc();
                    }
                    let report = PassReport {
                        pass: pk,
                        status: PassStatus::Skipped(reason),
                        value: None,
                        confidence: None,
                        micros: 0,
                        fuel_spent: 0,
                        clusters_done: 0,
                        clusters_total: 0,
                    };
                    if let Some(cb) = on_pass.as_deref_mut() {
                        cb(&report);
                    }
                    reports.push(report);
                    continue;
                }
            };
            let t0 = Instant::now();
            let run = match (pk, counting) {
                (PassKind::Sample, Some((_, vars, body))) => self.sample_pass(a, vars, body, &plan),
                (PassKind::Approx, Some((t, vars, body))) => {
                    self.approx_pass(a, t, vars, body, &plan, model)
                }
                _ => self.full_pass(a, q, ek, Some(&plan)),
            };
            let elapsed = t0.elapsed();
            tm.record_fuel(run.fuel_spent);
            if matches!(run.status, PassStatus::Completed) {
                if let Some(m) = model {
                    m.record(pk, elapsed.as_micros() as u64);
                }
            }
            match &run.status {
                PassStatus::Tripped(intr) => last_trip = Some(*intr),
                PassStatus::Errored(e) => {
                    if is_final {
                        // The strongest pass failed for real: surface its
                        // error rather than masking it with a weaker
                        // pass's banked answer.
                        return Err(e.clone());
                    }
                    last_error = Some(e.clone());
                }
                _ => {}
            }
            if let Some((v, c)) = run.banked {
                let better = match &best {
                    None => true,
                    Some((_, old)) => c.rank() >= old.rank(),
                };
                if better {
                    best = Some((v, c));
                }
            }
            let done = best.as_ref().map(|(_, c)| c.is_exact()).unwrap_or(false);
            let report = report_of(pk, &run, elapsed);
            if let Some(cb) = on_pass.as_deref_mut() {
                cb(&report);
            }
            reports.push(report);
            if done {
                break;
            }
        }

        match best {
            Some((value, confidence)) => {
                if let Some(m) = model {
                    if confidence.is_exact() {
                        m.exact_runs.inc();
                    } else {
                        m.degraded.inc();
                    }
                }
                let interrupt = if confidence.is_exact() {
                    None
                } else {
                    Some(last_trip.unwrap_or_else(|| self.synthetic_trip(&tm)))
                };
                Ok(Anytime {
                    value,
                    confidence,
                    passes: reports,
                    interrupt,
                })
            }
            // Every pass that ran failed with a real error: surface it.
            None => Err(last_error.unwrap_or_else(|| {
                Error::Interrupted(last_trip.unwrap_or_else(|| self.synthetic_trip(&tm)))
            })),
        }
    }

    /// An [`Interrupt`] for runs where the time manager spent the whole
    /// budget on skipped plans before any guard could trip.
    fn synthetic_trip(&self, tm: &TimeManager) -> Interrupt {
        let reason = match tm.remaining_fuel() {
            Some(0) => TripReason::Fuel,
            _ => TripReason::Deadline,
        };
        Interrupt {
            reason,
            phase: Phase::Engine,
            fuel_spent: 0,
        }
    }

    /// One full-evaluation pass under a budget slice.
    fn full_pass(
        &self,
        a: &Structure,
        q: QueryRef<'_>,
        kind: EngineKind,
        plan: Option<&PassPlan>,
    ) -> PassRun {
        let mut ev = self.clone();
        ev.config.kind = kind;
        if let Some(p) = plan {
            ev.budget.deadline = p.deadline;
            ev.budget.fuel = p.fuel;
        }
        let mut session = ev.session(a);
        let r = match q {
            QueryRef::Sentence(f) => session.check_sentence(f).map(AnswerValue::Bool),
            QueryRef::Ground(t) => session.eval_ground(t).map(AnswerValue::Int),
        };
        let stats = session.stats();
        let fuel_spent = session.fuel_spent();
        match r {
            Ok(v) => PassRun {
                status: PassStatus::Completed,
                banked: Some((v, Confidence::Exact)),
                fuel_spent,
                clusters_done: stats.clusters_done,
                clusters_total: stats.clusters_total,
            },
            Err(Error::Interrupted(i)) => PassRun {
                status: PassStatus::Tripped(i),
                banked: None,
                fuel_spent,
                clusters_done: stats.clusters_done,
                clusters_total: stats.clusters_total,
            },
            Err(e) => PassRun {
                status: PassStatus::Errored(e),
                banked: None,
                fuel_spent,
                clusters_done: stats.clusters_done,
                clusters_total: stats.clusters_total,
            },
        }
    }

    /// The `approx` pass: the `(ε, δ)` sampling estimator over the
    /// assignment space of a ground counting term, guarded by the pass
    /// slice. Banks an [`Confidence::Approximate`]-tagged estimate on
    /// completion (exact when the space was small enough to enumerate),
    /// and a widened-bound estimate when the slice tripped mid-stream
    /// with enough samples done.
    fn approx_pass(
        &self,
        a: &Structure,
        t: &Arc<Term>,
        vars: &[Var],
        body: &Arc<Formula>,
        plan: &PassPlan,
        model: Option<&CostModel>,
    ) -> PassRun {
        let acfg = self.approx_config();
        if let Err(e) = acfg.validate() {
            return PassRun {
                status: PassStatus::Errored(e),
                banked: None,
                fuel_spent: 0,
                clusters_done: 0,
                clusters_total: 0,
            };
        }
        let out = self.approx_sample(a, t, vars, body, &acfg, Some((plan.deadline, plan.fuel)));
        let banked = out.value.map(|v| {
            if let Some(m) = model {
                m.record_approx(v.samples, v.error_bound, v.exhaustive);
            }
            let confidence = if v.exhaustive {
                Confidence::Exact
            } else {
                Confidence::Approximate {
                    error_bound: v.error_bound,
                }
            };
            (AnswerValue::Int(v.estimate), confidence)
        });
        let status = match out.error {
            None => PassStatus::Completed,
            Some(Error::Interrupted(i)) => PassStatus::Tripped(i),
            Some(e) => PassStatus::Errored(e),
        };
        PassRun {
            status,
            banked,
            fuel_spent: out.fuel_spent,
            clusters_done: out.done,
            clusters_total: out.total,
        }
    }

    /// The `sample` pass, guarded by the pass slice: chunked lower-bound
    /// accumulation for a ground counting term. Splits `#(x₁,…,x_k).φ`
    /// by the first counted variable and adds up per-element sub-counts,
    /// each computed exactly over the *full* structure — every processed
    /// element makes the banked tally a sound lower bound, and
    /// processing all of them makes it exact.
    fn sample_pass(
        &self,
        a: &Structure,
        vars: &[Var],
        body: &Arc<Formula>,
        plan: &PassPlan,
    ) -> PassRun {
        let n = u64::from(a.order());
        if n == 0 {
            // Nothing to sample; the full passes handle the degenerate
            // structure.
            return PassRun {
                status: PassStatus::Completed,
                banked: None,
                fuel_spent: 0,
                clusters_done: 0,
                clusters_total: 0,
            };
        }
        let mut budget = self.budget().clone();
        budget.deadline = plan.deadline;
        budget.fuel = plan.fuel;
        let guard = budget.arm();
        let mut nev = NaiveEvaluator::new(a, self.predicates());
        nev.set_guard(guard.clone());
        let inner: Option<Arc<Term>> = (vars.len() > 1).then(|| {
            Arc::new(Term::Count(
                vars[1..].to_vec().into_boxed_slice(),
                body.clone(),
            ))
        });
        let x0 = vars[0];
        let mut env = Assignment::new();
        let mut sum: i64 = 0;
        let mut done: u64 = 0;
        let mut status = PassStatus::Completed;
        let t0 = Instant::now();
        for e in a.universe() {
            // Projection: when even double the slice cannot cover the
            // remaining elements at the observed per-element rate, stop
            // chunking and bank what we have (wall-clock slices only —
            // fuel-only budgets stay deterministic).
            if let Some(slice) = plan.deadline {
                if done >= MIN_CHUNK {
                    let projected = t0.elapsed().mul_f64(n as f64 / done as f64);
                    if projected > slice.saturating_mul(2) {
                        status = PassStatus::Aborted;
                        break;
                    }
                }
            }
            let prev = env.bind(x0, e);
            let r = match &inner {
                Some(t) => nev.eval_term(t, &mut env),
                None => nev.check(body, &mut env).map(i64::from),
            };
            env.restore(x0, prev);
            match r {
                Ok(v) => {
                    sum = sum.saturating_add(v);
                    done += 1;
                }
                Err(e) => {
                    let err: Error = e.into();
                    status = match err {
                        Error::Interrupted(i) => PassStatus::Tripped(i),
                        other => PassStatus::Errored(other),
                    };
                    break;
                }
            }
        }
        let confidence = if done == n {
            Confidence::Exact
        } else {
            Confidence::LowerBound
        };
        PassRun {
            banked: (done > 0 || matches!(status, PassStatus::Completed))
                .then_some((AnswerValue::Int(sum), confidence)),
            status,
            fuel_spent: guard.fuel_spent(),
            clusters_done: done,
            clusters_total: n,
        }
    }
}

fn report_of(pass: PassKind, run: &PassRun, elapsed: Duration) -> PassReport {
    PassReport {
        pass,
        status: run.status.clone(),
        value: run.banked.map(|(v, _)| v),
        confidence: run.banked.map(|(_, c)| c),
        micros: elapsed.as_micros() as u64,
        fuel_spent: run.fuel_spent,
        clusters_done: run.clusters_done,
        clusters_total: run.clusters_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_logic::build::{and, atom, cnt, dist_le, exists, not, v};
    use foc_structures::gen::{grid, path};

    fn count_term() -> Arc<Term> {
        let x = v("ax");
        let y = v("ay");
        cnt([x, y], and(dist_le(x, y, 2), not(atom("E", [x, y]))))
    }

    #[test]
    fn unbounded_run_is_exact() {
        let a = grid(6, 6);
        let t = count_term();
        let ev = Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap();
        let exact = ev.eval_ground(&a, &t).unwrap();
        let out = ev.eval_ground_anytime(&a, &t, None, None).unwrap();
        assert_eq!(out.value, exact);
        assert!(out.confidence.is_exact());
        assert!(out.interrupt.is_none());
    }

    #[test]
    fn generous_budget_reaches_exact() {
        let a = grid(6, 6);
        let t = count_term();
        let ev = Evaluator::builder()
            .kind(EngineKind::Cover)
            .fuel(50_000_000)
            .build()
            .unwrap();
        let exact = Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap()
            .eval_ground(&a, &t)
            .unwrap();
        let out = ev.eval_ground_anytime(&a, &t, None, None).unwrap();
        assert_eq!(out.value, exact);
        assert!(out.confidence.is_exact(), "got {:?}", out.confidence);
    }

    #[test]
    fn tight_fuel_banks_a_lower_bound() {
        let a = grid(12, 12);
        let t = count_term();
        let ev = Evaluator::builder()
            .kind(EngineKind::Cover)
            .fuel(2_000)
            .build()
            .unwrap();
        let exact = Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap()
            .eval_ground(&a, &t)
            .unwrap();
        // Plain evaluation trips.
        assert!(matches!(ev.eval_ground(&a, &t), Err(Error::Interrupted(_))));
        // Anytime evaluation banks a guaranteed answer instead: either
        // a sound lower bound or an ε-bounded estimate, depending on
        // which rung the fuel stretched to.
        let out = ev.eval_ground_anytime(&a, &t, None, None).unwrap();
        assert!(!out.confidence.is_exact());
        match out.confidence {
            Confidence::LowerBound => {
                assert!(
                    out.value <= exact,
                    "lower bound {} > exact {exact}",
                    out.value
                );
            }
            Confidence::Approximate { error_bound } => {
                assert!(
                    (out.value - exact).unsigned_abs() <= error_bound,
                    "estimate {} strayed past ±{error_bound} of {exact}",
                    out.value
                );
            }
            other => panic!("unexpected confidence {other:?}"),
        }
        assert!(out.interrupt.is_some());
        assert!(out.passes.iter().any(|p| p.clusters_done > 0));
    }

    #[test]
    fn fuel_runs_are_deterministic() {
        let a = grid(10, 10);
        let t = count_term();
        let run = || {
            let ev = Evaluator::builder()
                .kind(EngineKind::Cover)
                .fuel(1_500)
                .build()
                .unwrap();
            ev.eval_ground_anytime(&a, &t, None, None).unwrap()
        };
        let o1 = run();
        let o2 = run();
        assert_eq!(o1.value, o2.value);
        assert_eq!(o1.confidence, o2.confidence);
    }

    #[test]
    fn sentences_never_guess() {
        // Whatever the engine and however tight the fuel, a sentence is
        // answered exactly (with the oracle's verdict) or not at all.
        let x = v("sx");
        let y = v("sy");
        let far = foc_logic::parse::parse_formula("#(x,y). !(dist(x,y) <= 2) >= 100000").unwrap();
        let cases = [
            (grid(32, 32), far),
            (path(40), exists(x, exists(y, atom("E", [x, y])))),
        ];
        for (a, f) in &cases {
            let oracle = Evaluator::builder()
                .kind(EngineKind::Local)
                .build()
                .unwrap()
                .check_sentence(a, f)
                .unwrap();
            for kind in [EngineKind::Naive, EngineKind::Local, EngineKind::Cover] {
                for fuel in [50, 2_000, 300_000] {
                    let ev = Evaluator::builder().kind(kind).fuel(fuel).build().unwrap();
                    match ev.check_sentence_anytime(a, f, None, None) {
                        Ok(out) => {
                            assert_eq!(out.confidence, Confidence::Exact, "{kind:?} fuel {fuel}");
                            assert_eq!(out.value, oracle, "{kind:?} fuel {fuel}");
                        }
                        Err(Error::Interrupted(_)) => {}
                        Err(e) => panic!("{kind:?} fuel {fuel}: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn approx_rung_banks_a_bounded_estimate() {
        // Fuel stretches past the sample and approx rungs but not the
        // full passes: the banked answer must be the ε-bounded estimate
        // (it outranks the sample rung's lower bound), and the bound
        // must actually contain the exact value.
        let a = grid(16, 16);
        let t = count_term();
        let exact = Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap()
            .eval_ground(&a, &t)
            .unwrap();
        let ev = Evaluator::builder()
            .kind(EngineKind::Cover)
            .fuel(60_000)
            .build()
            .unwrap();
        let out = ev.eval_ground_anytime(&a, &t, None, None).unwrap();
        if let Confidence::Approximate { error_bound } = out.confidence {
            assert!(error_bound > 0);
            assert!(
                (out.value - exact).unsigned_abs() <= error_bound,
                "estimate {} strayed past ±{error_bound} of {exact}",
                out.value
            );
            assert!(out
                .passes
                .iter()
                .any(|p| p.pass == PassKind::Approx && p.value.is_some()));
        } else {
            // With other fuel arithmetic the run may reach exact or stop
            // at a lower bound; what it may never do is ship an approx
            // tag without a bound or an unsound one (checked above).
            assert!(matches!(
                out.confidence,
                Confidence::Exact | Confidence::LowerBound
            ));
        }
    }

    #[test]
    fn cost_model_feeds_estimates() {
        let m = Metrics::new();
        let model = CostModel::new(&m);
        assert!(model.estimate(PassKind::Sample).is_none());
        for _ in 0..4 {
            model.record(PassKind::Sample, 1_000);
        }
        let est = model.estimate(PassKind::Sample).unwrap();
        assert!(est >= Duration::from_micros(500));
    }

    #[test]
    fn pass_reports_stream_in_ladder_order() {
        let a = grid(8, 8);
        let t = count_term();
        let ev = Evaluator::builder()
            .kind(EngineKind::Cover)
            .fuel(40_000)
            .build()
            .unwrap();
        let mut seen: Vec<&'static str> = Vec::new();
        let mut cb = |r: &PassReport| seen.push(r.pass.name());
        ev.eval_ground_anytime(&a, &t, None, Some(&mut cb)).unwrap();
        assert!(!seen.is_empty());
        let order = ["sample", "approx", "local", "exact"];
        let mut last = 0;
        for s in &seen {
            let pos = order.iter().position(|o| o == s).unwrap();
            assert!(pos >= last, "out of order: {seen:?}");
            last = pos;
        }
    }
}
