//! The differential oracle: an engine matrix evaluated against the naive
//! reference, with a comparable outcome/error taxonomy.
//!
//! The naive evaluator is the oracle — it implements Definition 3.2's
//! semantics directly, with no locality analysis, no decomposition, no
//! covers, no parallelism and no caches, so there is nothing for the
//! sophisticated machinery's bugs to hide behind. Every other engine
//! configuration must reproduce its verdict bit-for-bit, modulo two
//! deliberate escapes: a `Strict`-policy engine may *reject* a query that
//! is outside its capability (that is the documented contract of
//! [`DegradePolicy::Strict`]), and a resource interrupt aborts the
//! comparison rather than failing it.

use std::fmt;
use std::sync::Arc;

use foc_core::{ApproxConfig, CoverConfig, DegradePolicy, EngineKind, Error, Evaluator};
use foc_logic::{Formula, Term};
use foc_structures::Structure;

/// A generated (or replayed) query: a sentence to model-check or a
/// ground counting term to evaluate.
#[derive(Debug, Clone)]
pub enum QueryCase {
    /// `A ⊨ φ` for a sentence φ.
    Sentence(Arc<Formula>),
    /// `t^A` for a ground term t.
    Ground(Arc<Term>),
}

impl QueryCase {
    /// `"sentence"` or `"ground"` (the corpus `mode` field).
    pub fn mode(&self) -> &'static str {
        match self {
            QueryCase::Sentence(_) => "sentence",
            QueryCase::Ground(_) => "ground",
        }
    }

    /// The query rendered in the `foc-logic` concrete syntax.
    pub fn text(&self) -> String {
        match self {
            QueryCase::Sentence(f) => f.to_string(),
            QueryCase::Ground(t) => t.to_string(),
        }
    }
}

/// One differential test case: a query plus the database it runs on.
#[derive(Debug, Clone)]
pub struct Case {
    /// The query under test.
    pub query: QueryCase,
    /// The database under test.
    pub structure: Structure,
}

/// A comparable evaluation outcome: a value, or an error *class*. Errors
/// compare by taxonomy class (not message text) so two engines failing
/// the same way — e.g. both overflowing — agree, while an engine that
/// overflows where the oracle returns a value diverges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A model-checking verdict.
    Bool(bool),
    /// A ground-term value.
    Int(i64),
    /// An error, by taxonomy class (see [`classify`]).
    Err(String),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Bool(b) => write!(f, "{b}"),
            Outcome::Int(i) => write!(f, "{i}"),
            Outcome::Err(c) => write!(f, "error:{c}"),
        }
    }
}

/// The stable error-taxonomy class of an engine error.
pub fn classify(e: &Error) -> String {
    match e {
        Error::NotFoc1(_) => "not-foc1".into(),
        Error::Eval(ev) => format!("eval-{}", classify_eval(ev)),
        Error::Locality(l) => format!("locality-{}", classify_locality(l)),
        Error::Unsupported(_) => "unsupported".into(),
        Error::Config(_) => "config".into(),
        Error::Interrupted(_) => "interrupted".into(),
        Error::WorkerPanicked { .. } => "worker-panicked".into(),
    }
}

fn classify_eval(e: &foc_eval::EvalError) -> &'static str {
    use foc_eval::EvalError::*;
    match e {
        UnknownRelation(_) => "unknown-relation",
        RelationArity { .. } => "relation-arity",
        UnknownPredicate(_) => "unknown-predicate",
        PredicateArity { .. } => "predicate-arity",
        UnboundVariable(_) => "unbound-variable",
        ElementOutOfRange { .. } => "element-out-of-range",
        DuplicateCountVariable(_) => "duplicate-count-variable",
        Overflow => "overflow",
        Interrupted(_) => "interrupted",
    }
}

fn classify_locality(e: &foc_locality::LocalityError) -> &'static str {
    use foc_locality::LocalityError::*;
    match e {
        NotLocal(_) => "not-local",
        TooComplex(_) => "too-complex",
        NotFirstOrder(_) => "not-first-order",
        Eval(_) => "eval",
        WidthTooLarge { .. } => "width-too-large",
        RadiusTooLarge { .. } => "radius-too-large",
        WorkerPanicked { .. } => "worker-panicked",
    }
}

/// One engine configuration of the differential matrix.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Stable display name (`local-t4-cache`, …) used in logs and
    /// divergence reports.
    pub name: &'static str,
    /// Engine kind.
    pub kind: EngineKind,
    /// Worker threads.
    pub threads: usize,
    /// Memo cache on/off.
    pub cache: bool,
    /// Capability-error policy.
    pub degrade: DegradePolicy,
    /// When `Some(ε)`: ground counting terms run through the `(ε, δ)`
    /// approximate engine and are compared *tolerance-aware* — an
    /// estimate within its own claimed error bound of the oracle is
    /// agreement, and only a bound violation (the broken-guarantee
    /// class) is a divergence. Sentences still run exactly.
    pub epsilon: Option<f64>,
    /// Cover-engine tuning (`threads` is taken from the variant). The
    /// default sends every generated structure (order ≤ 14) straight to
    /// ball enumeration; a lower `direct_threshold` makes the engine
    /// build covers, and run removal surgery on the clusters that hold a
    /// hub (a vertex of degree above `max(direct_threshold, ⌊√n⌋)`):
    /// generated stars have one.
    pub cover: CoverConfig,
}

impl Variant {
    fn build(&self, case_deadline: Option<std::time::Duration>) -> Evaluator {
        let mut builder = Evaluator::builder()
            .kind(self.kind)
            .threads(self.threads)
            .cache(self.cache)
            .degrade(self.degrade)
            .cover(self.cover);
        if let Some(eps) = self.epsilon {
            builder = builder.approx(ApproxConfig::with_epsilon(eps));
        }
        if let Some(d) = case_deadline {
            builder = builder.timeout(d);
        }
        builder
            .build()
            .expect("matrix variants are valid configurations")
    }
}

/// Worker fan-out used by the `-tN` variants.
pub const MATRIX_THREADS: usize = 4;

/// The full differential matrix. The first entry is the oracle (naive,
/// single-threaded); every later entry is compared against it. All three
/// engines appear at threads 1 and [`MATRIX_THREADS`], with the memo
/// cache exercised both on and off, and both degradation policies.
/// `cover-t4-deep` lowers the cover engine's direct threshold so that
/// small generated structures still go through covers, and those with a
/// hub through two levels of the removal recursion.
pub fn engine_matrix() -> Vec<Variant> {
    use DegradePolicy::{FallThrough, Strict};
    use EngineKind::{Cover, Local, Naive};
    vec![
        Variant {
            name: "naive-t1",
            kind: Naive,
            threads: 1,
            cache: false,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "naive-t4",
            kind: Naive,
            threads: MATRIX_THREADS,
            cache: false,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "local-t1-cache",
            kind: Local,
            threads: 1,
            cache: true,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "local-t1-nocache",
            kind: Local,
            threads: 1,
            cache: false,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "local-t4-cache",
            kind: Local,
            threads: MATRIX_THREADS,
            cache: true,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "cover-t1-cache",
            kind: Cover,
            threads: 1,
            cache: true,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "cover-t4-cache",
            kind: Cover,
            threads: MATRIX_THREADS,
            cache: true,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "cover-t4-nocache",
            kind: Cover,
            threads: MATRIX_THREADS,
            cache: false,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "cover-t4-deep",
            kind: Cover,
            threads: MATRIX_THREADS,
            cache: true,
            degrade: FallThrough,
            epsilon: None,
            cover: CoverConfig {
                depth: 2,
                direct_threshold: 2,
                ..CoverConfig::default()
            },
        },
        Variant {
            name: "local-t1-strict",
            kind: Local,
            threads: 1,
            cache: true,
            degrade: Strict,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "cover-t1-strict",
            kind: Cover,
            threads: 1,
            cache: true,
            degrade: Strict,
            epsilon: None,
            cover: CoverConfig::default(),
        },
        Variant {
            name: "approx-t1",
            kind: Naive,
            threads: 1,
            cache: false,
            degrade: FallThrough,
            epsilon: Some(0.1),
            cover: CoverConfig::default(),
        },
    ]
}

/// A deliberately injected engine bug, used to validate end-to-end that
/// the harness catches, shrinks, and replays real divergences. Test-only:
/// nothing in the production path constructs a non-default value.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BugInjection {
    /// When `Some(k)`: flip the *Local* engine's sentence verdict on any
    /// structure of order ≥ k. The shrinker should then pin the
    /// structure at exactly order k.
    pub flip_local_sentence_min_order: Option<u32>,
    /// When `true`: push every approximate variant's estimate past its
    /// own claimed error bound, so the tolerance-aware comparison must
    /// flag the broken-guarantee divergence class.
    pub skew_approx_past_bound: bool,
}

impl BugInjection {
    /// `true` iff no bug is injected (the production configuration).
    pub fn is_none(&self) -> bool {
        *self == BugInjection::default()
    }
}

/// Evaluates `case` under one matrix variant (applying the injected bug,
/// if any, after the engine returns).
pub fn evaluate(variant: &Variant, case: &Case, inject: &BugInjection) -> Outcome {
    evaluate_with_deadline(variant, case, inject, None)
}

/// [`evaluate`] with a per-case wall-clock deadline armed on the engine
/// (the fuzz harness's protection against a wedged variant hanging the
/// whole sweep). A tripped deadline surfaces as
/// `Outcome::Err("interrupted")`.
pub fn evaluate_with_deadline(
    variant: &Variant,
    case: &Case,
    inject: &BugInjection,
    case_deadline: Option<std::time::Duration>,
) -> Outcome {
    evaluate_detail(variant, case, inject, case_deadline).0
}

/// [`evaluate_with_deadline`] plus the tolerance the outcome is entitled
/// to: `Some(bound)` when the variant answered through the `(ε, δ)`
/// estimator (agreement means within ±bound of the oracle), `None` for
/// an exact answer.
fn evaluate_detail(
    variant: &Variant,
    case: &Case,
    inject: &BugInjection,
    case_deadline: Option<std::time::Duration>,
) -> (Outcome, Option<u64>) {
    let ev = variant.build(case_deadline);
    let mut tolerance = None;
    let mut out = match &case.query {
        QueryCase::Sentence(f) => match ev.check_sentence(&case.structure, f) {
            Ok(b) => Outcome::Bool(b),
            Err(e) => Outcome::Err(classify(&e)),
        },
        QueryCase::Ground(t) if variant.epsilon.is_some() => {
            match ev.approx_count(&case.structure, t) {
                Ok(v) => {
                    tolerance = Some(v.error_bound);
                    Outcome::Int(v.estimate)
                }
                // The estimator refuses shapes it cannot sample (e.g.
                // products); the variant falls back to the exact path so
                // the whole matrix still adjudicates the case.
                Err(Error::Unsupported(_)) => match ev.eval_ground(&case.structure, t) {
                    Ok(i) => Outcome::Int(i),
                    Err(e) => Outcome::Err(classify(&e)),
                },
                Err(e) => Outcome::Err(classify(&e)),
            }
        }
        QueryCase::Ground(t) => match ev.eval_ground(&case.structure, t) {
            Ok(i) => Outcome::Int(i),
            Err(e) => Outcome::Err(classify(&e)),
        },
    };
    if let Some(min_order) = inject.flip_local_sentence_min_order {
        if variant.kind == EngineKind::Local && case.structure.order() >= min_order {
            if let Outcome::Bool(b) = out {
                out = Outcome::Bool(!b);
            }
        }
    }
    if inject.skew_approx_past_bound {
        if let (Outcome::Int(i), Some(bound)) = (&out, tolerance) {
            // 2·bound + 1, not bound + 1: an in-bound estimate sits
            // anywhere in [truth − bound, truth + bound], so a smaller
            // push could land a low estimate back inside the band and
            // the injection would go undetected for that seed.
            out = Outcome::Int(i.saturating_add((bound as i64) * 2).saturating_add(1));
        }
    }
    (out, tolerance)
}

/// One disagreement between a matrix variant and the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The disagreeing variant (or metamorphic check) name.
    pub variant: String,
    /// What the oracle (or the untransformed run) produced.
    pub expected: Outcome,
    /// What the variant produced.
    pub got: Outcome,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {}, got {}",
            self.variant, self.expected, self.got
        )
    }
}

/// Whether a variant's outcome is an acceptable deviation rather than a
/// divergence: `Strict` engines may reject with a capability-class
/// error, and interrupts abort the comparison.
fn acceptable(variant: &Variant, out: &Outcome) -> bool {
    match out {
        Outcome::Err(class) => {
            if class == "interrupted" {
                return true;
            }
            if variant.degrade == DegradePolicy::Strict {
                // Capability classes: the formula is outside the engine's
                // fragment, and Strict forbids walking the ladder.
                return class == "not-foc1"
                    || class == "unsupported"
                    || class.starts_with("locality-not-local")
                    || class.starts_with("locality-too-complex")
                    || class.starts_with("locality-not-first-order")
                    || class.starts_with("locality-width-too-large")
                    || class.starts_with("locality-radius-too-large");
            }
            false
        }
        _ => false,
    }
}

/// Runs the full matrix on one case. Returns the oracle outcome and
/// every divergence found (empty = all engines agree).
pub fn run_matrix(
    case: &Case,
    inject: &BugInjection,
    timing: Option<&mut dyn FnMut(&'static str, std::time::Duration)>,
) -> (Outcome, Vec<Divergence>) {
    let (oracle, divergences, _) = run_matrix_with_deadline(case, inject, timing, None);
    (oracle, divergences)
}

/// [`run_matrix`] with a per-case deadline armed on every variant. The
/// third return component counts variant runs (oracle included) the
/// deadline cut short; interrupted outcomes never count as divergences
/// (an interrupted oracle aborts the comparison entirely).
pub fn run_matrix_with_deadline(
    case: &Case,
    inject: &BugInjection,
    mut timing: Option<&mut dyn FnMut(&'static str, std::time::Duration)>,
    case_deadline: Option<std::time::Duration>,
) -> (Outcome, Vec<Divergence>, u64) {
    let matrix = engine_matrix();
    let mut timeouts = 0u64;
    let mut timed_eval = |variant: &Variant| {
        let t0 = std::time::Instant::now();
        let out = evaluate_detail(variant, case, inject, case_deadline);
        if let Some(cb) = timing.as_deref_mut() {
            cb(variant.name, t0.elapsed());
        }
        if case_deadline.is_some() && matches!(&out.0, Outcome::Err(c) if c == "interrupted") {
            timeouts += 1;
        }
        out
    };
    let (oracle, _) = timed_eval(&matrix[0]);
    let mut divergences = Vec::new();
    // An interrupted oracle cannot adjudicate anything.
    if matches!(&oracle, Outcome::Err(c) if c == "interrupted") {
        return (oracle, divergences, timeouts);
    }
    for variant in &matrix[1..] {
        let (got, tolerance) = timed_eval(variant);
        // An ε-estimate agrees when it lands within its own claimed
        // bound of the oracle; anything else must match bit-for-bit.
        let agrees = match (&oracle, &got, tolerance) {
            (Outcome::Int(o), Outcome::Int(g), Some(bound)) => g.abs_diff(*o) <= bound,
            _ => got == oracle,
        };
        if !agrees && !acceptable(variant, &got) {
            divergences.push(Divergence {
                variant: variant.name.to_string(),
                expected: oracle.clone(),
                got,
            });
        }
    }
    (oracle, divergences, timeouts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_logic::parse::{parse_formula, parse_term};
    use foc_structures::gen::{clique, path, star};

    #[test]
    fn matrix_agrees_on_simple_cases() {
        let cases = [
            Case {
                query: QueryCase::Sentence(parse_formula("exists y. #(z). E(y,z) >= 1").unwrap()),
                structure: star(5),
            },
            Case {
                query: QueryCase::Ground(parse_term("#(x,y). E(x,y)").unwrap()),
                structure: path(6),
            },
        ];
        for case in cases {
            let (oracle, div) = run_matrix(&case, &BugInjection::default(), None);
            assert!(div.is_empty(), "unexpected divergence: {div:?}");
            assert!(!matches!(oracle, Outcome::Err(_)));
        }
    }

    fn deep_variant() -> Variant {
        engine_matrix()
            .into_iter()
            .find(|v| v.name == "cover-t4-deep")
            .expect("deep cover variant in the matrix")
    }

    #[test]
    fn deep_cover_variant_runs_the_removal_recursion() {
        // Generated structures have order ≤ 14, below the default direct
        // threshold; the deep variant must still build covers, and
        // remove the hub of a star.
        let ev = deep_variant().build(None);
        let s = path(12);
        let mut session = ev.session(&s);
        let t = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
        assert_eq!(session.eval_ground(&t).unwrap(), 12 * 11 - 2 * (11 + 10));
        let stats = session.stats();
        assert!(stats.covers_built > 0, "{stats:?}");
        assert_eq!(stats.removals, 0, "a path has no hub: {stats:?}");
        let s = star(12);
        let mut session = ev.session(&s);
        let t = parse_term("#(x,y). (E(x,y) & #(z). E(y,z) = 1)").unwrap();
        assert_eq!(session.eval_ground(&t).unwrap(), 11);
        let stats = session.stats();
        assert!(stats.removals > 0, "{stats:?}");
    }

    /// Over a fixed seeded batch of generated cases, the deep variant
    /// performs removal surgery: the fuzz sweep keeps exercising it.
    #[test]
    fn deep_cover_variant_removes_on_generated_cases() {
        use rand::SeedableRng;
        let ev = deep_variant().build(None);
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let cfg = crate::gen::GenConfig::default();
        let (mut removals, mut cases) = (0u64, 0usize);
        for _ in 0..200 {
            let case = crate::gen::gen_case(&mut rng, &cfg);
            let mut session = ev.session(&case.structure);
            let _ = match &case.query {
                QueryCase::Sentence(f) => session.check_sentence(f).map(|_| ()),
                QueryCase::Ground(t) => session.eval_ground(t).map(|_| ()),
            };
            let r = session.stats().removals;
            removals += r;
            cases += usize::from(r > 0);
        }
        assert!(
            cases >= 5,
            "{cases} of 200 cases removed ({removals} removals)"
        );
    }

    #[test]
    fn injected_bug_is_flagged_on_local_variants_only() {
        let case = Case {
            query: QueryCase::Sentence(parse_formula("exists y. #(z). E(y,z) >= 1").unwrap()),
            structure: star(5),
        };
        let inject = BugInjection {
            flip_local_sentence_min_order: Some(3),
            ..BugInjection::default()
        };
        let (_, div) = run_matrix(&case, &inject, None);
        assert!(!div.is_empty(), "injected bug must surface");
        assert!(div.iter().all(|d| d.variant.starts_with("local-")));
        // Below the trigger order the bug is dormant.
        let small = Case {
            query: case.query.clone(),
            structure: path(2),
        };
        let inject_high = BugInjection {
            flip_local_sentence_min_order: Some(10),
            ..BugInjection::default()
        };
        let (_, div2) = run_matrix(&small, &inject_high, None);
        assert!(div2.is_empty());
    }

    #[test]
    fn approx_variant_is_compared_tolerance_aware() {
        // Dense enough that the estimator genuinely samples (the
        // assignment space exceeds the Hoeffding sample size): the
        // seeded estimate lands within its ±⌈ε·n^k⌉ bound of the naive
        // oracle, which counts as agreement.
        let case = Case {
            query: QueryCase::Ground(parse_term("#(x,y). E(x,y)").unwrap()),
            structure: clique(30),
        };
        let (oracle, div) = run_matrix(&case, &BugInjection::default(), None);
        assert!(matches!(oracle, Outcome::Int(_)), "oracle errs: {oracle}");
        assert!(div.is_empty(), "in-bound estimate is agreement: {div:?}");
        // An estimate past its own claimed bound is a real divergence —
        // and it is pinned on the approximate variant alone, in a
        // shrinkable (non-`meta:`/`anytime:`) class.
        let skew = BugInjection {
            skew_approx_past_bound: true,
            ..BugInjection::default()
        };
        let (_, div) = run_matrix(&case, &skew, None);
        assert!(!div.is_empty(), "bound violations must surface");
        assert!(div.iter().all(|d| d.variant == "approx-t1"), "{div:?}");
    }

    #[test]
    fn error_taxonomy_is_stable() {
        assert_eq!(classify(&Error::NotFoc1("x".into())), "not-foc1");
        assert_eq!(
            classify(&Error::Eval(foc_eval::EvalError::Overflow)),
            "eval-overflow"
        );
        assert_eq!(
            classify(&Error::Locality(
                foc_locality::LocalityError::RadiusTooLarge { radius: 9 }
            )),
            "locality-radius-too-large"
        );
    }
}
