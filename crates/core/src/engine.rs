//! The FOC1(P) evaluation engines — the paper's main algorithm
//! (Theorem 5.5) behind one public API.
//!
//! Three engines share the interface:
//!
//! * [`EngineKind::Naive`] — the reference semantics (Definition 3.1),
//!   complete for all of FOC(P); the baseline of the experiments.
//! * [`EngineKind::Local`] — the Theorem 6.10 pipeline: cardinality
//!   conditions are *materialised* innermost-first as fresh unary/0-ary
//!   relations whose extensions are computed by decomposing the counting
//!   bodies into cl-terms (Lemma 6.4) and evaluating the basic cl-terms
//!   by neighbourhood exploration (Remark 6.3).
//! * [`EngineKind::Cover`] — the same pipeline, with the basic cl-terms
//!   evaluated by the Section 8.2 strategy (neighbourhood cover +
//!   splitter-removal recursion).
//!
//! Counting components whose bodies leave the separable fragment fall
//! back to the reference evaluator *for that component only*; the
//! engines are therefore complete for FOC1(P) and fast on the fragment.
//! Fall-backs are counted in [`EngineStats`].

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use foc_covers::{CoverConfig, CoverEvaluator};
use foc_eval::{eval_query, Assignment, FreeVarElim, NaiveEvaluator, QueryResult, QueryRow};
use foc_guard::{Budget, Guard, Phase, TraceContext};
use foc_locality::clnf::cl_normalform_guarded;
use foc_locality::clterm::ClTerm;
use foc_locality::decompose::{
    decompose_ground_with_radius_guarded, decompose_unary_with_radius_guarded,
};
use foc_locality::gnf::{first_sentence_atom, replace_equal};
use foc_locality::local_eval::LocalEvaluator;
use foc_locality::radius::locality_radius;
use foc_locality::ClValue;
use foc_locality::TermCache;
use foc_logic::fragment::{check_foc1, check_foc1_term};
use foc_logic::{Formula, Predicates, Query, Symbol, Term, Var};
use foc_obs::{names, Counter, Gauge, Metrics, Observer, Sink, Span, SpanHandle};
use foc_structures::{FxHashMap, RelDecl, Structure};

use crate::error::{Error, Result};

/// Validates a caller-supplied parameter tuple against the universe:
/// out-of-range ids surface as a typed error instead of a downstream
/// panic in the free-variable elimination.
fn validate_tuple(a: &Structure, tuple: &[u32]) -> Result<()> {
    for &e in tuple {
        if e >= a.order() {
            return Err(Error::Eval(foc_eval::EvalError::ElementOutOfRange {
                element: e,
                order: a.order(),
            }));
        }
    }
    Ok(())
}

/// Which evaluation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Reference semantics — complete for FOC(P), polynomial with the
    /// exponent growing with the quantifier/counting structure.
    Naive,
    /// Decomposition + ball enumeration (Remark 6.3).
    Local,
    /// Decomposition + neighbourhood covers + removal (Section 8.2).
    Cover,
}

/// What the decomposing engines do when a query trips a *capability*
/// error (the shape is outside what the strategy handles): walk down the
/// ladder cover → local → naive, or surface the error.
///
/// Only capability errors degrade. Resource interrupts
/// ([`Error::Interrupted`]), worker panics, and semantic evaluation
/// errors always surface, under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Walk the ladder: retry the failing piece with the next simpler
    /// strategy, recording each step in the `engine.degrade.*` counters.
    #[default]
    FallThrough,
    /// Surface the first capability error instead of degrading.
    Strict,
}

/// Work counters and metrics of one evaluation session.
///
/// This is a *typed view* over the session's metrics registry
/// ([`foc_obs::Metrics`]): every field is assembled from a named
/// counter or gauge by [`Session::stats`], so the same numbers are
/// available generically (for JSON export, histograms and all) through
/// [`Session::observer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Marker relations materialised (Theorem 6.10's `τ` symbols).
    pub markers_created: usize,
    /// cl-terms produced by decompositions.
    pub clterms: usize,
    /// Basic cl-terms inside those.
    pub basics: usize,
    /// Counting components that fell back to the reference evaluator.
    pub naive_fallbacks: usize,
    /// Closed subformulas resolved by recursive sentence evaluation
    /// (the evaluation-driven form of Lemma 6.5).
    pub sentences_resolved: usize,
    /// Cover clusters evaluated (cover engine), at every recursion
    /// depth.
    pub clusters: u64,
    /// Neighbourhood covers constructed (cover engine).
    pub covers_built: u64,
    /// Removal surgeries performed (cover engine).
    pub removals: u64,
    /// Order of the largest cluster handed to cluster-local evaluation.
    pub peak_cluster: u32,
    /// Memo-cache lookups that found a value (see
    /// [`foc_locality::TermCache`]). With parallel workers, racing misses
    /// on the same key can shift a few hits into misses; the evaluated
    /// *values* are unaffected.
    pub cache_hits: u64,
    /// Memo-cache lookups that missed.
    pub cache_misses: u64,
    /// Balls materialised by ball enumeration (local engine).
    pub balls: u64,
    /// Degradation-ladder steps cover → local.
    pub degrade_local: u64,
    /// Degradation-ladder steps down to the reference evaluator.
    pub degrade_naive: u64,
    /// Evaluations cut short by the resource budget.
    pub interrupted: u64,
}

/// One materialised marker of the decomposition plan (Theorem 6.10's
/// `ι(R)` entries).
#[derive(Debug, Clone)]
pub struct MarkerDef {
    /// The fresh relation symbol.
    pub symbol: Symbol,
    /// Arity (0 or 1).
    pub arity: usize,
    /// Human-readable definition (the predicate application it stands
    /// for).
    pub definition: String,
}

/// Configuration of an evaluation engine: strategy plus the execution
/// knobs shared by all entry points.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The strategy.
    pub kind: EngineKind,
    /// Worker threads for basic-cl-term evaluation (per-cluster in the
    /// cover engine, per-element in the local engine): `1` is fully
    /// sequential, `0` means "one per hardware thread". Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Memoise basic-cl-term values across the session's recursion,
    /// keyed by term structure and database content.
    pub cache: bool,
    /// Tuning for the cover engine. Its `threads` field is overridden by
    /// the engine-level `threads` knob above.
    pub cover: CoverConfig,
    /// What to do on capability errors: degrade down the engine ladder
    /// (the default) or surface them.
    pub degrade: DegradePolicy,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            kind: EngineKind::Local,
            threads: 1,
            cache: true,
            cover: CoverConfig::default(),
            degrade: DegradePolicy::default(),
        }
    }
}

/// Builder for [`Evaluator`] — the single way to construct an engine.
///
/// ```
/// use foc_core::{EngineKind, Evaluator};
/// let ev = Evaluator::builder().kind(EngineKind::Cover).threads(4).build().unwrap();
/// assert_eq!(ev.kind(), EngineKind::Cover);
/// ```
#[derive(Clone, Default)]
pub struct EvaluatorBuilder {
    config: EngineConfig,
    preds: Option<Predicates>,
    sinks: Vec<Arc<dyn Sink>>,
    budget: Budget,
    shared_cache: Option<Arc<TermCache>>,
    fault_panic_element: Option<u32>,
    approx: Option<crate::approx::ApproxConfig>,
}

impl std::fmt::Debug for EvaluatorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvaluatorBuilder")
            .field("config", &self.config)
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

impl EvaluatorBuilder {
    /// A builder with the default configuration (local engine, one
    /// thread, memo cache on, no span sinks, standard predicates).
    pub fn new() -> EvaluatorBuilder {
        EvaluatorBuilder::default()
    }

    /// Selects the evaluation strategy.
    pub fn kind(mut self, kind: EngineKind) -> EvaluatorBuilder {
        self.config.kind = kind;
        self
    }

    /// Sets the worker-thread count (`0` = one per hardware thread).
    pub fn threads(mut self, threads: usize) -> EvaluatorBuilder {
        self.config.threads = threads;
        self
    }

    /// Toggles the cross-recursion memo cache.
    pub fn cache(mut self, on: bool) -> EvaluatorBuilder {
        self.config.cache = on;
        self
    }

    /// Attaches a span sink: every session of the built engine delivers
    /// its finished spans there. Attach a [`foc_obs::StderrSink`] for
    /// the `[foc-trace]` lines, a [`foc_obs::MemorySink`] to capture the
    /// span tree in-process or a [`foc_obs::JsonLinesSink`] to stream it
    /// to a file.
    pub fn sink(mut self, sink: Arc<dyn Sink>) -> EvaluatorBuilder {
        self.sinks.push(sink);
        self
    }

    /// Replaces the cover-engine tuning.
    pub fn cover(mut self, cover: CoverConfig) -> EvaluatorBuilder {
        self.config.cover = cover;
        self
    }

    /// Replaces the whole resource budget (deadline + fuel + cancel
    /// token). The deadline clock starts per session, when evaluation
    /// begins.
    pub fn budget(mut self, budget: Budget) -> EvaluatorBuilder {
        self.budget = budget;
        self
    }

    /// Sets a wall-clock deadline per evaluation session.
    pub fn timeout(mut self, d: Duration) -> EvaluatorBuilder {
        self.budget.deadline = Some(d);
        self
    }

    /// Sets a fuel allowance per evaluation session (roughly "loop
    /// iterations across the pipeline"; deterministic, unlike wall
    /// clocks).
    pub fn fuel(mut self, fuel: u64) -> EvaluatorBuilder {
        self.budget.fuel = Some(fuel);
        self
    }

    /// Selects the capability-error policy (degrade down the engine
    /// ladder, or surface the first error).
    pub fn degrade(mut self, policy: DegradePolicy) -> EvaluatorBuilder {
        self.config.degrade = policy;
        self
    }

    /// Shares one long-lived memo cache across every session of the
    /// built engine instead of giving each session a fresh one. This is
    /// the serving configuration: values memoised by one request warm
    /// the next, and the cache's occupancy can be mirrored into a
    /// memory-watermark meter via
    /// [`foc_locality::TermCache::with_memory_meter`]. Implies
    /// `cache(true)`. Lookup counters accrue to the registry the cache
    /// was built with (if any), not to each session's.
    pub fn shared_cache(mut self, cache: Arc<TermCache>) -> EvaluatorBuilder {
        self.config.cache = true;
        self.shared_cache = Some(cache);
        self
    }

    /// Test-only fault injection: the basic-cl-term evaluators panic when
    /// they reach this element, exercising the panic-containment path.
    #[doc(hidden)]
    pub fn fault_panic_element(mut self, elem: Option<u32>) -> EvaluatorBuilder {
        self.fault_panic_element = elem;
        self
    }

    /// Arms the approximate counting engine with an explicit `(ε, δ)`
    /// knob: [`Evaluator::approx_count`] and the anytime ladder's
    /// `approx` rung sample with this accuracy instead of the default.
    pub fn approx(mut self, cfg: crate::approx::ApproxConfig) -> EvaluatorBuilder {
        self.approx = Some(cfg);
        self
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: EngineConfig) -> EvaluatorBuilder {
        self.config = config;
        self
    }

    /// Replaces the predicate collection (defaults to
    /// [`Predicates::standard`]).
    pub fn predicates(mut self, preds: Predicates) -> EvaluatorBuilder {
        self.preds = Some(preds);
        self
    }

    /// Validates the configuration and builds the engine.
    pub fn build(self) -> Result<Evaluator> {
        if self.config.threads > 4096 {
            return Err(Error::Config(format!(
                "thread count {} is not plausible hardware parallelism",
                self.config.threads
            )));
        }
        Ok(Evaluator {
            preds: self.preds.unwrap_or_else(Predicates::standard),
            config: self.config,
            sinks: self.sinks,
            budget: self.budget,
            shared_cache: self.shared_cache,
            fault_panic_element: self.fault_panic_element,
            approx: self.approx,
        })
    }
}

/// The evaluation engine: predicate oracle + strategy + tuning.
/// Constructed via [`Evaluator::builder`].
#[derive(Clone)]
pub struct Evaluator {
    /// The numerical predicate collection (the paper's P-oracle).
    pub(crate) preds: Predicates,
    /// The configuration.
    pub(crate) config: EngineConfig,
    /// Span sinks attached to every session.
    pub(crate) sinks: Vec<Arc<dyn Sink>>,
    /// Declarative resource budget, armed per session.
    pub(crate) budget: Budget,
    /// A cross-session memo cache (see
    /// [`EvaluatorBuilder::shared_cache`]); `None` gives each session a
    /// fresh cache.
    pub(crate) shared_cache: Option<Arc<TermCache>>,
    /// Test-only fault injection (see
    /// [`EvaluatorBuilder::fault_panic_element`]).
    pub(crate) fault_panic_element: Option<u32>,
    /// The explicit `(ε, δ)` knob of the approximate counting engine,
    /// when one was configured (see [`EvaluatorBuilder::approx`]).
    pub(crate) approx: Option<crate::approx::ApproxConfig>,
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("config", &self.config)
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

impl Evaluator {
    /// Starts building an engine.
    pub fn builder() -> EvaluatorBuilder {
        EvaluatorBuilder::new()
    }

    /// The configured strategy.
    pub fn kind(&self) -> EngineKind {
        self.config.kind
    }

    /// The full configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The predicate collection.
    pub fn predicates(&self) -> &Predicates {
        &self.preds
    }

    /// The configured resource budget (unlimited by default).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Starts an evaluation session on a structure (clones nothing; the
    /// session keeps its own expanded copy once markers appear).
    ///
    /// Every session gets its own observer: a fresh metrics registry
    /// and, when sinks are attached (via [`EvaluatorBuilder::sink`]), a
    /// recorded span tree rooted at a `session` span that finishes when
    /// the session drops.
    pub fn session<'a>(&'a self, a: &Structure) -> Session<'a> {
        let obs = if self.sinks.is_empty() {
            Observer::disabled()
        } else {
            Observer::with_sinks(self.sinks.clone())
        };
        let root = obs.root_span("session", &[("order", i64::from(a.order()))]);
        root.record_text("engine", format!("{:?}", self.config.kind));
        if let Some(tc) = &self.budget.trace {
            // The request identity rides the budget (see
            // `foc_guard::TraceContext`); stamping it on the session
            // root makes every captured span tree attributable to one
            // request.
            root.record_text("trace_id", tc.trace_id.clone());
            root.record_text("request_id", tc.request_id.clone());
        }
        let metrics = SessionMetrics::resolve(obs.metrics());
        let cache = self.config.cache.then(|| {
            self.shared_cache
                .clone()
                .unwrap_or_else(|| Arc::new(TermCache::default().with_metrics(obs.metrics())))
        });
        Session {
            ev: self,
            a: a.clone(),
            plan: Vec::new(),
            cache,
            metrics,
            cur: root.handle(),
            root,
            obs,
            guard: self.budget.arm(),
            interrupt_noted: std::cell::Cell::new(false),
        }
    }

    /// Model checking of an FOC1(P) sentence: `A ⊨ φ`.
    pub fn check_sentence(&self, a: &Structure, f: &Arc<Formula>) -> Result<bool> {
        self.session(a).check_sentence(f)
    }

    /// Evaluation of an FOC1(P) ground term: `t^A`.
    pub fn eval_ground(&self, a: &Structure, t: &Arc<Term>) -> Result<i64> {
        self.session(a).eval_ground(t)
    }

    /// Model checking with parameters (Theorem 5.5's interface): decides
    /// `A ⊨ φ[ā]` via the free-variable elimination of Section 5.
    pub fn check(
        &self,
        a: &Structure,
        f: &Arc<Formula>,
        vars: &[Var],
        tuple: &[u32],
    ) -> Result<bool> {
        validate_tuple(a, tuple)?;
        let elim = FreeVarElim::new(vars);
        let sentence = elim.sentence(f);
        let expanded = elim.expand(a, tuple);
        self.session(&expanded).check_sentence(&sentence)
    }

    /// Term evaluation with parameters: `t^A[ā]`.
    pub fn eval_term_at(
        &self,
        a: &Structure,
        t: &Arc<Term>,
        vars: &[Var],
        tuple: &[u32],
    ) -> Result<i64> {
        validate_tuple(a, tuple)?;
        let elim = FreeVarElim::new(vars);
        let ground = elim.ground_term(t);
        let expanded = elim.expand(a, tuple);
        self.session(&expanded).eval_ground(&ground)
    }

    /// The counting problem (Corollary 5.6): `|φ(A)|` over `vars`.
    ///
    /// ```
    /// use foc_core::{EngineKind, Evaluator};
    /// use foc_logic::parse::parse_formula;
    /// use foc_logic::Var;
    /// use foc_structures::gen::star;
    ///
    /// // Pairs (x, y) where y is a leaf adjacent to x, on a 5-star:
    /// // the hub sees 4 leaves; each leaf sees none (the hub has
    /// // degree 4, not 1).
    /// let f = parse_formula("E(x,y) & #(z). E(y,z) = 1").unwrap();
    /// let ev = Evaluator::builder().kind(EngineKind::Local).build().unwrap();
    /// let n = ev.count(&star(5), &f, &[Var::new("x"), Var::new("y")]).unwrap();
    /// assert_eq!(n, 4);
    /// ```
    pub fn count(&self, a: &Structure, f: &Arc<Formula>, vars: &[Var]) -> Result<i64> {
        let t: Arc<Term> = Arc::new(Term::Count(vars.to_vec().into_boxed_slice(), f.clone()));
        self.session(a).eval_ground(&t)
    }

    /// FOC1(P)-query evaluation (Definition 5.2). Queries with at most
    /// one head variable use the vectorised unary machinery; wider heads
    /// fall back to the reference evaluator.
    pub fn query(&self, a: &Structure, q: &Query) -> Result<QueryResult> {
        if self.config.kind == EngineKind::Naive || q.head_vars.len() > 1 {
            return Ok(eval_query(a, &self.preds, q)?);
        }
        let mut session = self.session(a);
        session.query_small(q)
    }
}

/// Resolved handles for the counters the engine itself maintains; the
/// sub-evaluators resolve their own (see `foc_obs::names`).
#[derive(Debug, Clone)]
struct SessionMetrics {
    markers: Counter,
    clterms: Counter,
    basics: Counter,
    fallbacks: Counter,
    sentences: Counter,
    degrade_local: Counter,
    degrade_naive: Counter,
    interrupted: Counter,
    clusters: Counter,
    covers_built: Counter,
    removals: Counter,
    peak_cluster: Gauge,
}

impl SessionMetrics {
    fn resolve(m: &Metrics) -> SessionMetrics {
        SessionMetrics {
            markers: m.counter(names::ENGINE_MARKERS),
            clterms: m.counter(names::ENGINE_CLTERMS),
            basics: m.counter(names::ENGINE_BASICS),
            fallbacks: m.counter(names::ENGINE_FALLBACKS),
            sentences: m.counter(names::ENGINE_SENTENCES),
            degrade_local: m.counter(names::ENGINE_DEGRADE_LOCAL),
            degrade_naive: m.counter(names::ENGINE_DEGRADE_NAIVE),
            interrupted: m.counter(names::ENGINE_INTERRUPTED),
            clusters: m.counter(names::COVER_CLUSTERS),
            covers_built: m.counter(names::COVER_BUILT),
            removals: m.counter(names::COVER_REMOVALS),
            peak_cluster: m.gauge(names::COVER_PEAK_CLUSTER),
        }
    }
}

/// A stateful evaluation session: carries the progressively expanded
/// structure, the decomposition plan, and the observability hub (the
/// metrics registry plus the span tree rooted at the `session` span).
pub struct Session<'a> {
    ev: &'a Evaluator,
    a: Structure,
    /// The markers materialised so far (Theorem 6.10's decomposition
    /// plan, in materialisation order).
    pub plan: Vec<MarkerDef>,
    /// Memo of basic-cl-term values shared across this session's whole
    /// recursion (all markers, all sentence resolutions, all clusters).
    cache: Option<Arc<TermCache>>,
    /// Engine-owned counter handles.
    metrics: SessionMetrics,
    /// The session root span; finishes when the session drops, so sinks
    /// see the complete tree afterwards.
    root: Span,
    /// The innermost open span: the parent of the next phase span and of
    /// the sub-evaluators' spans (see [`Session::in_span`]).
    cur: SpanHandle,
    /// The session's observability hub.
    obs: Arc<Observer>,
    /// The armed resource guard; clones are handed to every
    /// sub-evaluator the session creates.
    guard: Guard,
    /// Whether the session's interrupt has been recorded already (nested
    /// entry points would otherwise count one trip several times).
    interrupt_noted: std::cell::Cell<bool>,
}

impl<'a> Session<'a> {
    /// The (possibly expanded) working structure.
    pub fn structure(&self) -> &Structure {
        &self.a
    }

    /// The session's observer: the metrics registry (snapshot it for
    /// histograms and JSON export) and the attached sinks.
    pub fn observer(&self) -> &Arc<Observer> {
        &self.obs
    }

    /// The request identity this session's budget was armed with, if
    /// any (also stamped on the session root span).
    pub fn trace(&self) -> Option<&TraceContext> {
        self.guard.trace()
    }

    /// Fuel spent by this session so far (the armed guard's counter) —
    /// the anytime time manager charges each pass with this after the
    /// pass returns.
    pub fn fuel_spent(&self) -> u64 {
        self.guard.fuel_spent()
    }

    /// The session's work counters, assembled from the metrics
    /// registry.
    pub fn stats(&self) -> EngineStats {
        let snap = self.obs.metrics().snapshot();
        EngineStats {
            markers_created: snap.counter(names::ENGINE_MARKERS) as usize,
            clterms: snap.counter(names::ENGINE_CLTERMS) as usize,
            basics: snap.counter(names::ENGINE_BASICS) as usize,
            naive_fallbacks: snap.counter(names::ENGINE_FALLBACKS) as usize,
            sentences_resolved: snap.counter(names::ENGINE_SENTENCES) as usize,
            clusters: snap.counter(names::COVER_CLUSTERS),
            covers_built: snap.counter(names::COVER_BUILT),
            removals: snap.counter(names::COVER_REMOVALS),
            peak_cluster: snap.gauge(names::COVER_PEAK_CLUSTER) as u32,
            cache_hits: snap.counter(names::CACHE_HITS),
            cache_misses: snap.counter(names::CACHE_MISSES),
            balls: snap.counter(names::LOCAL_BALLS),
            degrade_local: snap.counter(names::ENGINE_DEGRADE_LOCAL),
            degrade_naive: snap.counter(names::ENGINE_DEGRADE_NAIVE),
            interrupted: snap.counter(names::ENGINE_INTERRUPTED),
        }
    }

    /// Runs `f` inside a new span `name`, a child of the innermost open
    /// span, with that new span as the parent of every span opened
    /// during `f`; the outer parent is restored whatever `f` returns.
    /// Spans therefore nest as the calls do, and their self times
    /// partition the session's wall time.
    fn in_span<R>(
        &mut self,
        name: &'static str,
        attrs: &[(&'static str, i64)],
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let span = self.cur.child(name, attrs);
        let outer = std::mem::replace(&mut self.cur, span.handle());
        let r = f(self);
        self.cur = outer;
        r
    }

    /// Notes a budget interrupt in the metrics and the span tree before
    /// the error surfaces to the caller.
    fn note_interrupt<T>(&self, r: Result<T>) -> Result<T> {
        if let Err(Error::Interrupted(i)) = &r {
            if !self.interrupt_noted.replace(true) {
                self.metrics.interrupted.inc();
                self.root.record_text("interrupted", i.to_string());
            }
        }
        r
    }

    /// One step down the degradation ladder: a capability error under
    /// [`DegradePolicy::FallThrough`] is counted and noted in the span
    /// tree, and the caller retries with the next simpler strategy
    /// (`rung`: `Local` or `Naive`). Any other error surfaces.
    fn degrade(&self, err: Error, rung: EngineKind) -> Result<()> {
        if !err.is_degradable() || self.ev.config.degrade == DegradePolicy::Strict {
            return Err(err);
        }
        let label = match rung {
            EngineKind::Local => {
                self.metrics.degrade_local.inc();
                "local"
            }
            _ => {
                self.metrics.degrade_naive.inc();
                self.metrics.fallbacks.inc();
                "naive"
            }
        };
        self.root.record_text("degrade", format!("{label}: {err}"));
        Ok(())
    }

    /// Model checking of a sentence. The decomposing engines require
    /// FOC1(P); the naive engine accepts all of FOC(P).
    pub fn check_sentence(&mut self, f: &Arc<Formula>) -> Result<bool> {
        let r = self.check_sentence_inner(f);
        self.note_interrupt(r)
    }

    fn check_sentence_inner(&mut self, f: &Arc<Formula>) -> Result<bool> {
        if self.ev.config.kind == EngineKind::Naive {
            let mut ev = NaiveEvaluator::new(&self.a, &self.ev.preds);
            ev.set_guard(self.guard.clone());
            return Ok(ev.check_sentence(f)?);
        }
        check_foc1(f).map_err(|v| Error::NotFoc1(v.to_string()))?;
        foc_eval::validate::validate_formula(f, self.a.signature(), &self.ev.preds)?;
        let fo = self.in_span("materialize", &[], |s| s.materialize_formula(f))?;
        self.eval_fo_sentence(&fo)
    }

    /// Evaluation of a ground term. The decomposing engines require
    /// FOC1(P); the naive engine accepts all of FOC(P).
    pub fn eval_ground(&mut self, t: &Arc<Term>) -> Result<i64> {
        let r = self.eval_ground_inner(t);
        self.note_interrupt(r)
    }

    fn eval_ground_inner(&mut self, t: &Arc<Term>) -> Result<i64> {
        if self.ev.config.kind == EngineKind::Naive {
            let mut ev = NaiveEvaluator::new(&self.a, &self.ev.preds);
            ev.set_guard(self.guard.clone());
            return Ok(ev.eval_ground(t)?);
        }
        check_foc1_term(t).map_err(|v| Error::NotFoc1(v.to_string()))?;
        foc_eval::validate::validate_term(t, self.a.signature(), &self.ev.preds)?;
        let fo = self.in_span("materialize", &[], |s| s.materialize_term(t))?;
        match self.eval_fo_term(&fo, None)? {
            ClValue::Scalar(v) => Ok(v),
            ClValue::Vector(_) => unreachable!("ground term produced a vector"),
        }
    }

    /// Single-head-variable query evaluation with vectorised terms.
    fn query_small(&mut self, q: &Query) -> Result<QueryResult> {
        let r = self.query_small_inner(q);
        self.note_interrupt(r)
    }

    fn query_small_inner(&mut self, q: &Query) -> Result<QueryResult> {
        foc_eval::validate::validate_query(q, self.a.signature(), &self.ev.preds)?;
        if q.head_vars.is_empty() {
            if !self.check_sentence(&q.body)? {
                return Ok(QueryResult::default());
            }
            let counts = q
                .head_terms
                .iter()
                .map(|t| self.eval_ground(t))
                .collect::<Result<Vec<_>>>()?;
            return Ok(QueryResult {
                rows: vec![QueryRow {
                    elems: vec![],
                    counts,
                }],
            });
        }
        let x = q.head_vars[0];
        let body_fo = self.materialize_foc1(&q.body)?;
        // Head terms as per-element vectors.
        let mut term_values = Vec::with_capacity(q.head_terms.len());
        for t in &q.head_terms {
            let fo = self.materialize_foc1_term(t)?;
            term_values.push(self.eval_fo_term(&fo, Some(x))?);
        }
        // Body truth per element (the body is FO over the expanded
        // structure now; candidate-driven evaluation keeps this cheap).
        let mut ev = NaiveEvaluator::new(&self.a, &self.ev.preds);
        ev.set_guard(self.guard.clone());
        let mut rows = Vec::new();
        for e in self.a.universe() {
            let mut env = Assignment::from_pairs([(x, e)]);
            if ev.check(&body_fo, &mut env)? {
                rows.push(QueryRow {
                    elems: vec![e],
                    counts: term_values
                        .iter()
                        .map(|v| v.at(e).map_err(Error::from))
                        .collect::<Result<Vec<_>>>()?,
                });
            }
        }
        Ok(QueryResult { rows })
    }

    /// Theorem 6.10, evaluation-driven: replaces every predicate
    /// application (innermost first) by a freshly materialised marker
    /// relation. The result is an FO formula over the expanded signature.
    fn materialize_formula(&mut self, f: &Arc<Formula>) -> Result<Arc<Formula>> {
        match &**f {
            Formula::Bool(_) | Formula::Eq(..) | Formula::Atom(_) | Formula::DistLe { .. } => {
                Ok(f.clone())
            }
            Formula::Not(g) => Ok(Formula::not(self.materialize_formula(g)?)),
            Formula::And(gs) => Ok(Formula::and(
                gs.iter()
                    .map(|g| self.materialize_formula(g))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Formula::Or(gs) => Ok(Formula::or(
                gs.iter()
                    .map(|g| self.materialize_formula(g))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Formula::Exists(y, g) => {
                Ok(Arc::new(Formula::Exists(*y, self.materialize_formula(g)?)))
            }
            Formula::Forall(y, g) => {
                Ok(Arc::new(Formula::Forall(*y, self.materialize_formula(g)?)))
            }
            Formula::Pred { name, args } => {
                // Inner counting terms first (they may contain deeper
                // predicate applications).
                let args: Vec<Arc<Term>> = args
                    .iter()
                    .map(|t| self.materialize_term(t))
                    .collect::<Result<Vec<_>>>()?;
                let mut free: BTreeSet<Var> = BTreeSet::new();
                for t in &args {
                    free.extend(t.free_vars());
                }
                debug_assert!(free.len() <= 1, "FOC1 checked upfront");
                let definition = format!(
                    "@{name}({})",
                    args.iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                if let Some(&x) = free.iter().next() {
                    // Unary marker: evaluate each argument per element.
                    let values: Vec<ClValue> = args
                        .iter()
                        .map(|t| self.eval_fo_term(t, Some(x)))
                        .collect::<Result<Vec<_>>>()?;
                    let marker = Var::fresh("M").symbol();
                    let mut rows = Vec::new();
                    let mut oracle_args = vec![0i64; values.len()];
                    for e in self.a.universe() {
                        self.guard.check(Phase::Materialize)?;
                        for (slot, v) in oracle_args.iter_mut().zip(&values) {
                            *slot = v.at(e)?;
                        }
                        let holds = self
                            .ev
                            .preds
                            .holds(*name, &oracle_args)
                            .ok_or(foc_eval::EvalError::UnknownPredicate(*name))?;
                        if holds {
                            rows.push(vec![e]);
                        }
                    }
                    self.a = self.a.expand(vec![(
                        RelDecl {
                            name: marker,
                            arity: 1,
                        },
                        rows,
                    )]);
                    self.plan.push(MarkerDef {
                        symbol: marker,
                        arity: 1,
                        definition,
                    });
                    self.metrics.markers.inc();
                    Ok(foc_logic::build::atom_sym(marker, vec![x]))
                } else {
                    // Ground: evaluate once and fold to a constant
                    // (equivalent to a 0-ary marker, without the relation
                    // plumbing).
                    let vals: Vec<i64> = args
                        .iter()
                        .map(|t| {
                            Ok(match self.eval_fo_term(t, None)? {
                                ClValue::Scalar(v) => v,
                                ClValue::Vector(_) => unreachable!("ground argument"),
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let holds = self
                        .ev
                        .preds
                        .holds(*name, &vals)
                        .ok_or(foc_eval::EvalError::UnknownPredicate(*name))?;
                    self.plan.push(MarkerDef {
                        symbol: Var::fresh("M0").symbol(),
                        arity: 0,
                        definition,
                    });
                    self.metrics.markers.inc();
                    Ok(Arc::new(Formula::Bool(holds)))
                }
            }
        }
    }

    fn materialize_term(&mut self, t: &Arc<Term>) -> Result<Arc<Term>> {
        match &**t {
            Term::Int(_) => Ok(t.clone()),
            Term::Count(vars, body) => Ok(Arc::new(Term::Count(
                vars.clone(),
                self.materialize_formula(body)?,
            ))),
            Term::Add(ts) => Ok(Term::add(
                ts.iter()
                    .map(|s| self.materialize_term(s))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Term::Mul(ts) => Ok(Term::mul(
                ts.iter()
                    .map(|s| self.materialize_term(s))
                    .collect::<Result<Vec<_>>>()?,
            )),
        }
    }

    /// Evaluates an FO sentence over the expanded structure: through the
    /// cl-normalform of Theorem 6.8 when possible, by reference
    /// evaluation otherwise.
    fn eval_fo_sentence(&mut self, f: &Arc<Formula>) -> Result<bool> {
        if let Formula::Bool(b) = &**f {
            return Ok(*b);
        }
        match cl_normalform_guarded(f, &self.guard) {
            Ok(clnf) => {
                let mut values: FxHashMap<Symbol, bool> = FxHashMap::default();
                for sent in &clnf.sentences {
                    let v = self.eval_clterm(&sent.term)?;
                    let truth = match v {
                        ClValue::Scalar(x) => x >= 1,
                        ClValue::Vector(_) => unreachable!("ground sentence term"),
                    };
                    values.insert(sent.marker, truth);
                }
                let resolved = clnf.resolve(&values);
                let mut ev = NaiveEvaluator::new(&self.a, &self.ev.preds);
                ev.set_guard(self.guard.clone());
                Ok(ev.check_sentence(&resolved)?)
            }
            Err(e) => {
                self.degrade(e.into(), EngineKind::Naive)?;
                let mut ev = NaiveEvaluator::new(&self.a, &self.ev.preds);
                ev.set_guard(self.guard.clone());
                Ok(ev.check_sentence(f)?)
            }
        }
    }

    /// Evaluates an FO term; `free = Some(x)` yields a per-element
    /// vector, `None` a scalar.
    fn eval_fo_term(&mut self, t: &Arc<Term>, free: Option<Var>) -> Result<ClValue> {
        match &**t {
            Term::Int(i) => Ok(ClValue::Scalar(*i)),
            Term::Add(ts) => {
                let mut acc = ClValue::Scalar(0);
                for s in ts {
                    acc = acc.add(self.eval_fo_term(s, free)?)?;
                }
                Ok(acc)
            }
            Term::Mul(ts) => {
                let mut acc = ClValue::Scalar(1);
                for s in ts {
                    acc = acc.mul(self.eval_fo_term(s, free)?)?;
                }
                Ok(acc)
            }
            Term::Count(vars, body) => {
                let body_free = body.free_vars();
                let x = free.filter(|x| body_free.contains(x) && !vars.contains(x));
                self.eval_count(vars, body, x, free)
            }
        }
    }

    /// Evaluates one counting component `#ȳ.θ` (with optional free
    /// variable `x`): resolves closed subformulas by recursive sentence
    /// evaluation (Lemma 6.5, evaluation-driven), decomposes the local
    /// remainder into cl-terms (Lemma 6.4), and evaluates those with the
    /// configured strategy. Falls back to reference evaluation outside
    /// the fragment.
    fn eval_count(
        &mut self,
        counted: &[Var],
        body: &Arc<Formula>,
        x: Option<Var>,
        requested_free: Option<Var>,
    ) -> Result<ClValue> {
        let resolved = self.resolve_sentences(body)?;
        if counted.is_empty() && x.is_none() {
            // A constant 0/1 count: there is nothing to decompose, the
            // reference evaluator folds it directly. Not a ladder step —
            // this happens under either degradation policy.
            self.metrics.fallbacks.inc();
            return self.eval_count_naive(counted, &resolved, x);
        }
        let result = self.in_span("decompose", &[], |s| -> foc_locality::Result<ClTerm> {
            let mut vars: Vec<Var> = Vec::new();
            if let Some(x) = x {
                vars.push(x);
            }
            vars.extend_from_slice(counted);
            let r = if resolved.free_vars().is_empty() {
                0
            } else {
                locality_radius(&resolved)?
            };
            if x.is_some() {
                decompose_unary_with_radius_guarded(&resolved, &vars, r, &s.guard)
            } else {
                decompose_ground_with_radius_guarded(&resolved, &vars, r, &s.guard)
            }
        });
        match result {
            Ok(cl) => {
                self.metrics.clterms.inc();
                self.metrics.basics.add(cl.num_basics() as u64);
                let v = self.eval_clterm(&cl)?;
                // A ground count requested as a vector broadcasts.
                if requested_free.is_some() && x.is_none() {
                    return Ok(ClValue::Scalar(match v {
                        ClValue::Scalar(s) => s,
                        ClValue::Vector(_) => unreachable!("ground count"),
                    }));
                }
                Ok(v)
            }
            Err(e) => {
                self.degrade(e.into(), EngineKind::Naive)?;
                self.eval_count_naive(counted, &resolved, x)
            }
        }
    }

    fn eval_count_naive(
        &mut self,
        counted: &[Var],
        body: &Arc<Formula>,
        x: Option<Var>,
    ) -> Result<ClValue> {
        let term: Arc<Term> = Arc::new(Term::Count(
            counted.to_vec().into_boxed_slice(),
            body.clone(),
        ));
        let mut ev = NaiveEvaluator::new(&self.a, &self.ev.preds);
        ev.set_guard(self.guard.clone());
        match x {
            None => {
                let mut env = Assignment::new();
                Ok(ClValue::Scalar(ev.eval_term(&term, &mut env)?))
            }
            Some(x) => {
                let mut out = Vec::with_capacity(self.a.order() as usize);
                for e in self.a.universe() {
                    let mut env = Assignment::from_pairs([(x, e)]);
                    out.push(ev.eval_term(&term, &mut env)?);
                }
                Ok(ClValue::Vector(out))
            }
        }
    }

    /// Replaces every maximal closed quantified subformula by its truth
    /// value, obtained by recursive sentence evaluation.
    fn resolve_sentences(&mut self, body: &Arc<Formula>) -> Result<Arc<Formula>> {
        let mut current = body.clone();
        while let Some(sentence) = first_sentence_atom(&current) {
            self.guard.check(Phase::Engine)?;
            let truth = self.eval_fo_sentence(&sentence)?;
            self.metrics.sentences.inc();
            current = replace_equal(&current, &sentence, truth);
        }
        Ok(current)
    }

    /// Checks that `f` is FOC1(P) and materialises its predicate
    /// applications in a `materialize` span (shared with the
    /// constant-delay enumeration).
    pub(crate) fn materialize_foc1(&mut self, f: &Arc<Formula>) -> Result<Arc<Formula>> {
        check_foc1(f).map_err(|v| Error::NotFoc1(v.to_string()))?;
        self.in_span("materialize", &[], |s| s.materialize_formula(f))
    }

    /// Term counterpart of [`Session::materialize_foc1`].
    pub(crate) fn materialize_foc1_term(&mut self, t: &Arc<Term>) -> Result<Arc<Term>> {
        check_foc1_term(t).map_err(|v| Error::NotFoc1(v.to_string()))?;
        self.in_span("materialize", &[], |s| s.materialize_term(t))
    }

    /// Evaluates an FO term as a per-element vector (crate-internal).
    pub(crate) fn eval_term_vector(&mut self, t: &Arc<Term>, x: Var) -> Result<ClValue> {
        self.eval_fo_term(t, Some(x))
    }

    /// Dispatches basic-cl-term evaluation to the configured strategy
    /// inside an `eval` span, wiring in the session cache, the thread
    /// budget, and the observer (sub-evaluator spans nest under the
    /// `eval` span; their counters land in the session registry — live
    /// for the local engine and the histograms, folded once from the
    /// cover engine's atomic snapshot for its counters).
    fn eval_clterm(&mut self, cl: &ClTerm) -> Result<ClValue> {
        let basics = cl.num_basics() as i64;
        self.in_span("eval", &[("basics", basics)], |s| match s.ev.config.kind {
            // Only reached from the enumeration preprocessing: the main
            // naive paths never decompose.
            EngineKind::Naive => s.eval_clterm_reference(cl),
            EngineKind::Local => Ok(s.local_evaluator().eval_clterm(cl)?),
            EngineKind::Cover => {
                let (r, cs) = {
                    let mut cev = CoverEvaluator::new(&s.a, &s.ev.preds);
                    cev.config = s.ev.config.cover;
                    cev.config.threads = s.ev.config.threads;
                    if let Some(cache) = &s.cache {
                        cev.set_cache(cache.clone());
                    }
                    cev.set_observer(s.cur.clone());
                    cev.set_guard(s.guard.clone());
                    cev.fault_panic_element = s.ev.fault_panic_element;
                    let r = cev.eval_clterm(cl);
                    (r, cev.stats())
                };
                // The cover evaluator's counters are atomics snapshotted
                // once here; its cluster-size histogram (and the ball
                // counters of the nested local evaluators) are recorded
                // live through the observer.
                s.metrics.clusters.add(cs.clusters);
                s.metrics.covers_built.add(cs.covers_built);
                s.metrics.removals.add(cs.removals);
                s.metrics.fallbacks.add(cs.naive_fallbacks);
                s.metrics.peak_cluster.set_max(u64::from(cs.peak_cluster));
                match r {
                    Ok(v) => Ok(v),
                    Err(e) => s.degrade_clterm(cl, e.into()),
                }
            }
        })
    }

    /// A ball-enumeration evaluator wired to the session (cache,
    /// threads, observer, guard, fault injection).
    fn local_evaluator(&self) -> LocalEvaluator<'_> {
        let mut lev = LocalEvaluator::new(&self.a, &self.ev.preds);
        lev.threads = self.ev.config.threads;
        if let Some(cache) = &self.cache {
            lev.set_cache(cache.clone());
        }
        // The observer counts balls live (workers included), so nothing
        // is folded from `lev.stats` here.
        lev.set_observer(self.cur.clone());
        lev.set_guard(self.guard.clone());
        lev.fault_panic_element = self.ev.fault_panic_element;
        lev
    }

    /// The cover engine's degradation ladder for one cl-term: retry with
    /// ball enumeration, then with the reference evaluator. Only
    /// capability errors walk down; under [`DegradePolicy::Strict`] the
    /// original error surfaces instead.
    fn degrade_clterm(&mut self, cl: &ClTerm, err: Error) -> Result<ClValue> {
        self.degrade(err, EngineKind::Local)?;
        let r = self.local_evaluator().eval_clterm(cl);
        match r {
            Ok(v) => Ok(v),
            Err(e) => {
                self.degrade(e.into(), EngineKind::Naive)?;
                self.eval_clterm_reference(cl)
            }
        }
    }

    /// Reference-semantics evaluation of a decomposed cl-term (the final
    /// rung of the ladder).
    fn eval_clterm_reference(&mut self, cl: &ClTerm) -> Result<ClValue> {
        let has_unary = cl.basics().iter().any(|b| b.unary);
        if has_unary {
            let mut out = Vec::with_capacity(self.a.order() as usize);
            for e in self.a.universe() {
                self.guard.check(Phase::Engine)?;
                out.push(cl.eval_naive(&self.a, &self.ev.preds, Some(e))?);
            }
            Ok(ClValue::Vector(out))
        } else {
            Ok(ClValue::Scalar(cl.eval_naive(
                &self.a,
                &self.ev.preds,
                None,
            )?))
        }
    }
}
