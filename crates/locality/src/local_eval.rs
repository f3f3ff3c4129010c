//! Ball-based evaluation of basic cl-terms (Remark 6.3): because the
//! connectivity graph of a basic cl-term is connected, the value
//! `u^A[a]` only depends on the `R`-neighbourhood of `a`, with
//! `R = r_body + (k−1)·(2r+1)` (Lemma 6.1). The evaluator therefore
//! explores `N_R(a)` and backtracks over tuple extensions along the edges
//! of `G`, through the crate's ball-enumeration kernel: one plan per
//! term, distance layers for the δ-constraints, and the body compiled
//! over tuple positions.
//!
//! On classes with polynomial ball growth (bounded degree, trees, grids,
//! bounded expansion…) this yields the paper's fixed-parameter
//! almost-linear behaviour; on dense structures the balls, and hence the
//! cost, degenerate — exactly the dichotomy the theory predicts.

use std::sync::Arc;

use foc_guard::{Guard, Phase};
use foc_logic::Predicates;
use foc_obs::{names, pow2_buckets, Counter, Histogram, SpanHandle};
use foc_parallel::ParMeter;
use foc_structures::{FxHashMap, Structure};

use crate::cache::TermCache;
use crate::clterm::{BasicClTerm, ClTerm};
use crate::error::{LocalityError, Result};
use crate::kernel::{self, with_scratch, BallPlan, BallScratch};

/// Resolved observability handles of a [`LocalEvaluator`]: registry
/// counters and the span position ball-enumeration spans nest under.
/// Cloned into parallel workers so their balls land in the same
/// registry.
#[derive(Debug, Clone)]
struct LocalObs {
    parent: SpanHandle,
    balls: Counter,
    ball_elements: Counter,
    tuples: Counter,
    ball_size: Histogram,
    meter: ParMeter,
}

/// Work counters for the local evaluator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LocalStats {
    /// Balls materialised.
    pub balls: u64,
    /// Total elements across materialised balls.
    pub ball_elements: u64,
    /// Tuples fully assembled and checked against the body.
    pub tuples_checked: u64,
}

impl LocalStats {
    fn absorb(&mut self, other: LocalStats) {
        self.balls += other.balls;
        self.ball_elements += other.ball_elements;
        self.tuples_checked += other.tuples_checked;
    }
}

/// The work counters one kernel run bumps: its own [`LocalStats`], and
/// the observer's registry counters live.
pub(crate) struct Tally<'o> {
    stats: LocalStats,
    obs: Option<&'o LocalObs>,
}

impl<'o> Tally<'o> {
    fn new(obs: Option<&'o LocalObs>) -> Tally<'o> {
        Tally {
            stats: LocalStats::default(),
            obs,
        }
    }

    /// Counts one materialised ball of `elements` elements.
    pub(crate) fn note_ball(&mut self, elements: u64) {
        self.stats.balls += 1;
        self.stats.ball_elements += elements;
        if let Some(o) = self.obs {
            o.balls.inc();
            o.ball_elements.add(elements);
            o.ball_size.observe(elements);
        }
    }

    /// Counts one fully assembled tuple checked against the body.
    pub(crate) fn note_tuple(&mut self) {
        self.stats.tuples_checked += 1;
        if let Some(o) = self.obs {
            o.tuples.inc();
        }
    }
}

/// `u^A[a]` through the kernel, behind the per-element guard check and
/// the test-only fault injection.
fn count_element(
    plan: &BallPlan<'_, '_>,
    scratch: &mut BallScratch,
    guard: &Guard,
    fault: Option<u32>,
    tally: &mut Tally<'_>,
    a: u32,
) -> Result<i64> {
    guard.check(Phase::BallEnum)?;
    if fault == Some(a) {
        panic!("injected fault at element {a}");
    }
    plan.count_at(a, scratch, guard, tally)
}

/// A value of a cl-term over a structure: one integer per element for
/// unary terms, a single integer broadcast for ground ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClValue {
    /// A ground value.
    Scalar(i64),
    /// Per-element values (indexed by element id).
    Vector(Vec<i64>),
}

// `add`/`mul` are checked and fallible, so they are not `std::ops`.
#[allow(clippy::should_implement_trait)]
impl ClValue {
    /// The value at element `a` (broadcasting scalars). An element id
    /// beyond the vector's universe is a typed error, not a panic —
    /// callers may pass through ids supplied from outside the engine.
    pub fn at(&self, a: u32) -> Result<i64> {
        match self {
            ClValue::Scalar(s) => Ok(*s),
            ClValue::Vector(v) => v.get(a as usize).copied().ok_or(LocalityError::Eval(
                foc_eval::EvalError::ElementOutOfRange {
                    element: a,
                    order: v.len() as u32,
                },
            )),
        }
    }

    /// Checked pointwise addition (broadcasting scalars).
    pub fn add(self, other: ClValue) -> Result<ClValue> {
        self.combine(other, i64::checked_add)
    }

    /// Checked pointwise multiplication (broadcasting scalars).
    pub fn mul(self, other: ClValue) -> Result<ClValue> {
        self.combine(other, i64::checked_mul)
    }

    fn combine(self, other: ClValue, op: impl Fn(i64, i64) -> Option<i64>) -> Result<ClValue> {
        let overflow = || LocalityError::Eval(foc_eval::EvalError::Overflow);
        match (self, other) {
            (ClValue::Scalar(x), ClValue::Scalar(y)) => {
                Ok(ClValue::Scalar(op(x, y).ok_or_else(overflow)?))
            }
            (ClValue::Scalar(x), ClValue::Vector(ys)) => Ok(ClValue::Vector(
                ys.into_iter()
                    .map(|y| op(x, y).ok_or_else(overflow))
                    .collect::<Result<_>>()?,
            )),
            (ClValue::Vector(xs), ClValue::Scalar(y)) => Ok(ClValue::Vector(
                xs.into_iter()
                    .map(|x| op(x, y).ok_or_else(overflow))
                    .collect::<Result<_>>()?,
            )),
            (ClValue::Vector(xs), ClValue::Vector(ys)) => {
                assert_eq!(xs.len(), ys.len(), "mismatched unary value lengths");
                Ok(ClValue::Vector(
                    xs.into_iter()
                        .zip(ys)
                        .map(|(x, y)| op(x, y).ok_or_else(overflow))
                        .collect::<Result<_>>()?,
                ))
            }
        }
    }
}

/// Evaluates basic cl-terms by neighbourhood exploration.
pub struct LocalEvaluator<'a> {
    a: &'a Structure,
    preds: &'a Predicates,
    /// Derive tuple candidates from guard atoms (relational-index
    /// lookups) in addition to δ-balls. Ablation toggle for E11.
    pub use_atom_candidates: bool,
    /// Skip elements outside the guard-atom support of `y₁`. Ablation
    /// toggle for E11.
    pub use_support: bool,
    /// Worker threads for [`LocalEvaluator::eval_basic_all`]: `1` is the
    /// sequential loop, `0` means "one per hardware thread". The parallel
    /// path is bit-identical to the sequential one (elements are
    /// independent; results are written back in element order).
    pub threads: usize,
    /// Optional shared memo of basic-term values (see [`TermCache`]).
    cache: Option<Arc<TermCache>>,
    /// Optional observability handles (registry + span parent).
    obs: Option<LocalObs>,
    /// Cooperative resource guard; checked per candidate during ball
    /// enumeration and before each cache fill.
    guard: Guard,
    /// Test-only fault injection: panic while evaluating this element, to
    /// exercise the panic-isolation path. Not part of the public API.
    #[doc(hidden)]
    pub fault_panic_element: Option<u32>,
    /// Work counters.
    pub stats: LocalStats,
}

impl<'a> LocalEvaluator<'a> {
    /// Creates a local evaluator over `a`.
    pub fn new(a: &'a Structure, preds: &'a Predicates) -> LocalEvaluator<'a> {
        LocalEvaluator {
            a,
            preds,
            use_atom_candidates: true,
            use_support: true,
            threads: 1,
            cache: None,
            obs: None,
            guard: Guard::unlimited(),
            fault_panic_element: None,
            stats: LocalStats::default(),
        }
    }

    /// Attaches a shared memo cache consulted by
    /// [`LocalEvaluator::eval_basic_all`].
    pub fn set_cache(&mut self, cache: Arc<TermCache>) {
        self.cache = Some(cache);
    }

    /// Installs a cooperative resource guard, shared with every inner
    /// reference evaluator and every parallel worker this evaluator
    /// spawns.
    pub fn set_guard(&mut self, guard: Guard) {
        self.guard = guard;
    }

    /// Attaches observability: ball counters and the ball-size histogram
    /// land in `parent`'s metrics registry, and ball-enumeration spans
    /// nest under `parent`. The [`LocalStats`] struct counters keep
    /// working either way; with an observer attached the registry sees
    /// the same events live (including those of parallel workers).
    pub fn set_observer(&mut self, parent: SpanHandle) {
        let m = parent.metrics();
        self.obs = Some(LocalObs {
            balls: m.counter(names::LOCAL_BALLS),
            ball_elements: m.counter(names::LOCAL_BALL_ELEMENTS),
            tuples: m.counter(names::LOCAL_TUPLES),
            ball_size: m.histogram(names::LOCAL_BALL_SIZE, &pow2_buckets(20)),
            meter: ParMeter::from_metrics(m),
            parent,
        });
    }

    /// The exploration radius for a basic cl-term (Lemma 6.1 /
    /// Remark 6.3).
    pub fn exploration_radius(b: &BasicClTerm) -> u64 {
        let k = b.width() as u64;
        // Saturation is sound here (unlike in the radius analysis): this
        // radius only sizes the explored ball, and a *larger* ball never
        // changes answers — wrapping would shrink it, which does.
        b.body_radius
            .max(b.radius)
            .saturating_add((k - 1).saturating_mul(b.delta_bound()))
    }

    /// `u^A[a]` for all elements at once: [`LocalEvaluator::eval_basic_for`]
    /// with no demand.
    pub fn eval_basic_all(&mut self, b: &BasicClTerm) -> Result<Vec<i64>> {
        self.eval_basic_for(b, None)
    }

    /// `u^A[a]` for the elements of `demand` (sorted, unique; `None`
    /// means every element). The result has one slot per element of the
    /// universe; slots outside the demand carry no meaning (a memoised
    /// full vector may fill them). Elements outside the guard-atom
    /// support are 0 without exploring their neighbourhood.
    /// Consults the attached [`TermCache`] (a full vector serves any
    /// demand) and fans the per-element loop out over
    /// [`LocalEvaluator::threads`] workers.
    pub fn eval_basic_for(&mut self, b: &BasicClTerm, demand: Option<&[u32]>) -> Result<Vec<i64>> {
        self.guard.check(Phase::BallEnum)?;
        if let Some(cache) = self.cache.clone() {
            if let Some(vals) = cache.get(b, self.a, demand) {
                return Ok(vals);
            }
            let vals = self.eval_basic_for_uncached(b, demand)?;
            cache.insert(b, self.a, demand, vals.clone());
            return Ok(vals);
        }
        self.eval_basic_for_uncached(b, demand)
    }

    fn eval_basic_for_uncached(
        &mut self,
        b: &BasicClTerm,
        demand: Option<&[u32]>,
    ) -> Result<Vec<i64>> {
        let mut out = vec![0i64; self.a.order() as usize];
        if demand.is_some_and(|d| d.is_empty()) {
            return Ok(out);
        }
        let _span = self.obs.as_ref().map(|o| {
            o.parent.child(
                "ball_enum",
                &[
                    ("width", b.width() as i64),
                    ("order", i64::from(self.a.order())),
                ],
            )
        });
        let support = if self.use_support {
            kernel::support(b, self.a)
        } else {
            None
        };
        let elems: Vec<u32> = match (support, demand) {
            (Some(support), Some(demand)) => sorted_intersection(&support, demand),
            (Some(support), None) => support,
            (None, Some(demand)) => demand.to_vec(),
            (None, None) => self.a.universe().collect(),
        };
        let plan = BallPlan::new(b, self.a, self.preds, self.use_atom_candidates);
        let (guard, fault) = (&self.guard, self.fault_panic_element);
        let threads = foc_parallel::resolve_threads(self.threads).min(elems.len().max(1));
        if threads <= 1 {
            // Catch panics here too, so `threads = 1` gives the same
            // structured fault as the parallel path.
            let mut tally = Tally::new(self.obs.as_ref());
            let r = with_scratch(|scratch| {
                for (i, &a) in elems.iter().enumerate() {
                    out[a as usize] =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            count_element(&plan, scratch, guard, fault, &mut tally, a)
                        }))
                        .map_err(|p| {
                            LocalityError::WorkerPanicked {
                                payload: foc_parallel::panic_message(p.as_ref()),
                                item_index: i,
                            }
                        })??;
                }
                Ok(())
            });
            self.stats.absorb(tally.stats);
            return r.map(|()| out);
        }
        // Elements are independent, so fan out with per-worker state
        // (each worker thread keeps its own kernel scratch, each element
        // its own counters); values are written back under their element
        // id and the counters summed, making the result and the stats
        // independent of scheduling. Registry counters and the ball-size
        // histogram see the workers' events live. A panicking worker is
        // contained: the fan-out drains, every worker finishes, and the
        // panic surfaces as `WorkerPanicked`.
        let obs = self.obs.as_ref();
        let meter = obs.map(|o| o.meter.clone());
        let results = foc_parallel::par_map_isolated(&elems, threads, meter.as_ref(), |_, &e| {
            with_scratch(|scratch| {
                let mut tally = Tally::new(obs);
                let v = count_element(&plan, scratch, guard, fault, &mut tally, e)?;
                Ok::<(i64, LocalStats), LocalityError>((v, tally.stats))
            })
        })
        .map_err(|fault| match fault {
            foc_parallel::Fault::Error(e) => e,
            foc_parallel::Fault::Panic(p) => p.into(),
        })?;
        for (&e, (v, st)) in elems.iter().zip(results) {
            out[e as usize] = v;
            self.stats.absorb(st);
        }
        Ok(out)
    }

    /// `g^A` for a ground basic cl-term: `Σ_a u^A[a]` where `u` pins
    /// `y₁ = a` (Remark 6.3).
    pub fn eval_basic_ground(&mut self, b: &BasicClTerm) -> Result<i64> {
        let mut acc: i64 = 0;
        for v in self.eval_basic_all(b)? {
            acc = acc
                .checked_add(v)
                .ok_or(LocalityError::Eval(foc_eval::EvalError::Overflow))?;
        }
        Ok(acc)
    }

    /// Evaluates a full cl-term. Returns a scalar for ground terms and a
    /// per-element vector when any unary basic occurs. Basic-term values
    /// are cached by identity.
    pub fn eval_clterm(&mut self, t: &ClTerm) -> Result<ClValue> {
        let mut ground_cache: FxHashMap<usize, i64> = FxHashMap::default();
        let mut unary_cache: FxHashMap<usize, Arc<Vec<i64>>> = FxHashMap::default();
        self.eval_clterm_rec(t, &mut ground_cache, &mut unary_cache)
    }

    fn eval_clterm_rec(
        &mut self,
        t: &ClTerm,
        ground_cache: &mut FxHashMap<usize, i64>,
        unary_cache: &mut FxHashMap<usize, Arc<Vec<i64>>>,
    ) -> Result<ClValue> {
        match t {
            ClTerm::Int(i) => Ok(ClValue::Scalar(*i)),
            ClTerm::Basic(b) => {
                let key = Arc::as_ptr(b) as usize;
                if b.unary {
                    if let Some(v) = unary_cache.get(&key) {
                        return Ok(ClValue::Vector(v.as_ref().clone()));
                    }
                    let vals = self.eval_basic_all(b)?;
                    unary_cache.insert(key, Arc::new(vals.clone()));
                    Ok(ClValue::Vector(vals))
                } else {
                    if let Some(&v) = ground_cache.get(&key) {
                        return Ok(ClValue::Scalar(v));
                    }
                    let val = self.eval_basic_ground(b)?;
                    ground_cache.insert(key, val);
                    Ok(ClValue::Scalar(val))
                }
            }
            ClTerm::Add(ts) => {
                let mut acc = ClValue::Scalar(0);
                for s in ts {
                    let v = self.eval_clterm_rec(s, ground_cache, unary_cache)?;
                    acc = acc.add(v)?;
                }
                Ok(acc)
            }
            ClTerm::Mul(ts) => {
                let mut acc = ClValue::Scalar(1);
                for s in ts {
                    let v = self.eval_clterm_rec(s, ground_cache, unary_cache)?;
                    acc = acc.mul(v)?;
                }
                Ok(acc)
            }
        }
    }
}

/// The common elements of two sorted, duplicate-free lists.
fn sorted_intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose_ground, decompose_unary};
    use crate::gk::Gk;
    use crate::kernel::BallPlan;
    use foc_eval::Assignment;
    use foc_logic::build::*;
    use foc_logic::{Term, Var};
    use foc_structures::gen::{cycle, graph_structure, grid, path, random_tree, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc as StdArc;

    fn structures() -> Vec<Structure> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            path(8),
            cycle(7),
            star(6),
            grid(3, 3),
            random_tree(9, &mut rng),
            graph_structure(8, &[(0, 1), (1, 2), (2, 0), (5, 6)]),
        ]
    }

    /// Local ball evaluation of each basic term must agree with the
    /// reference evaluator on the full structure.
    fn check_local_vs_naive(cl: &ClTerm, s: &Structure) {
        let p = Predicates::standard();
        let mut lev = LocalEvaluator::new(s, &p);
        for b in cl.basics() {
            let term = b.to_term();
            let mut nev = foc_eval::NaiveEvaluator::new(s, &p);
            if b.unary {
                let got = lev.eval_basic_all(&b).unwrap();
                for a in s.universe() {
                    let mut env = Assignment::from_pairs([(b.vars[0], a)]);
                    let want = nev.eval_term(&term, &mut env).unwrap();
                    assert_eq!(
                        got[a as usize], want,
                        "local vs naive at {a} for {}",
                        b.body
                    );
                }
            } else {
                let want = nev.eval_ground(&term).unwrap();
                let got = lev.eval_basic_ground(&b).unwrap();
                assert_eq!(got, want, "local vs naive (ground) for {}", b.body);
            }
        }
    }

    #[test]
    fn basic_local_eval_matches_naive() {
        let y1: Var = v("y1");
        let y2: Var = v("y2");
        let bodies: Vec<StdArc<foc_logic::Formula>> = vec![
            atom("E", [y1, y2]),
            not(atom("E", [y1, y2])),
            and(dist_le(y1, y2, 2), not(eq(y1, y2))),
        ];
        for body in &bodies {
            let cl = decompose_ground(body, &[y1, y2]).unwrap();
            for s in structures() {
                check_local_vs_naive(&cl, &s);
            }
        }
    }

    /// A random quantifier-free body over `vars`: atoms over a binary
    /// `E`, a unary `P` and a ternary `T`, `=`, `dist ≤ d` with `d` up to
    /// `max_d`, and constants, under nested `!`, `&` and `|`.
    fn random_body(
        rng: &mut StdRng,
        vars: &[Var],
        depth: u32,
        max_d: u32,
    ) -> StdArc<foc_logic::Formula> {
        use rand::Rng;
        fn pick(rng: &mut StdRng, vars: &[Var]) -> Var {
            vars[rng.gen_range(0..vars.len())]
        }
        if depth == 0 || rng.gen_bool(0.3) {
            return match rng.gen_range(0..6) {
                0 => atom("E", [pick(rng, vars), pick(rng, vars)]),
                1 => atom("P", [pick(rng, vars)]),
                2 => atom("T", [pick(rng, vars), pick(rng, vars), pick(rng, vars)]),
                3 => eq(pick(rng, vars), pick(rng, vars)),
                4 => dist_le(pick(rng, vars), pick(rng, vars), rng.gen_range(0..=max_d)),
                _ => {
                    if rng.gen_bool(0.5) {
                        tt()
                    } else {
                        ff()
                    }
                }
            };
        }
        match rng.gen_range(0..3) {
            0 => not(random_body(rng, vars, depth - 1, max_d)),
            1 => and(
                random_body(rng, vars, depth - 1, max_d),
                random_body(rng, vars, depth - 1, max_d),
            ),
            _ => or(
                random_body(rng, vars, depth - 1, max_d),
                random_body(rng, vars, depth - 1, max_d),
            ),
        }
    }

    /// The fixtures plus random degree-3 graphs, each expanded with a
    /// random unary `P` and a random ternary `T`.
    fn kernel_fixtures(rng: &mut StdRng) -> Vec<Structure> {
        use foc_structures::gen::bounded_degree;
        use foc_structures::RelDecl;
        use rand::Rng;
        let mut bases = structures();
        bases.push(bounded_degree(12, 3, 40, rng));
        bases.push(bounded_degree(16, 3, 60, rng));
        bases
            .into_iter()
            .map(|s| {
                let n = s.order();
                let p = (0..n)
                    .filter(|_| rng.gen_bool(0.4))
                    .map(|e| vec![e])
                    .collect();
                // Pairs of rows agreeing on their first two columns.
                let t = (0..n)
                    .flat_map(|_| {
                        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        [
                            vec![a, b, rng.gen_range(0..n)],
                            vec![a, b, rng.gen_range(0..n)],
                        ]
                    })
                    .collect();
                s.expand(vec![(RelDecl::new("P", 1), p), (RelDecl::new("T", 3), t)])
            })
            .collect()
    }

    /// The kernel must equal the reference evaluator at every element, at
    /// one and two threads and under both candidate toggles, whether the
    /// body compiles or falls back.
    #[test]
    fn kernel_matches_naive_on_random_bodies() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(25);
        let p = Predicates::standard();
        let fixtures = kernel_fixtures(&mut rng);
        let all = [v("y1"), v("y2"), v("y3")];
        let z = v("z");
        let mut terms = Vec::new();
        for round in 0..150 {
            let k = 1 + round % 3;
            let vars = all[..k].to_vec();
            let mut g = Gk::empty(k);
            while !g.is_connected() {
                let (i, j) = (rng.gen_range(0..k), rng.gen_range(0..k));
                if i != j {
                    g.set_edge(i, j, true);
                }
            }
            let radius = rng.gen_range(0..2u64);
            let max_d = 2 * radius as u32 + 3;
            let mut body = random_body(&mut rng, &vars, 3, max_d);
            if rng.gen_bool(0.5) {
                // A conjoined positive atom makes a guard for candidates.
                let mut pick = || vars[rng.gen_range(0..k)];
                let guard = match round % 2 {
                    0 => atom("E", [pick(), pick()]),
                    _ => atom("T", [vars[0], pick(), pick()]),
                };
                body = and(guard, body);
            }
            let b = BasicClTerm::new(vars.clone(), true, g.clone(), radius, body.clone()).unwrap();
            terms.push((b, true));
            if k == 3 {
                // y1 and y3 are non-adjacent on the path, so δ puts them
                // beyond the layer cap: a bound past the cap must take
                // the bounded BFS, not read the layer.
                let path = Gk::from_edges(3, &[(0, 1), (1, 2)]);
                let d = 2 * radius as u32 + 1 + (1 + round as u32 % 2);
                let far = dist_le(vars[0], vars[2], d);
                let b = BasicClTerm::new(vars.clone(), true, path, radius, far).unwrap();
                terms.push((b, true));
                // Extending y2 by `T`'s rows leaves y3 free: the rows repeat
                // y2's candidates, which must be counted once.
                let triangle = Gk::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
                let guarded = atom("T", [vars[0], vars[1], vars[2]]);
                let b = BasicClTerm::new(vars.clone(), true, triangle, radius, guarded).unwrap();
                terms.push((b, true));
            }
            if round % 10 == 0 {
                // Quantified and predicate bodies take the reference path.
                let last = vars[k - 1];
                // Raw conjunctions: the `and` builder folds constants away.
                let conj = |f| StdArc::new(foc_logic::Formula::And(vec![body.clone(), f]));
                let quantified = conj(exists(z, atom("E", [last, z])));
                let b =
                    BasicClTerm::new(vars.clone(), true, g.clone(), radius, quantified).unwrap();
                terms.push((b, false));
                let counted = pred("even", vec![cnt([z], atom("E", [vars[0], z]))]);
                let b = BasicClTerm {
                    vars: vars.clone(),
                    unary: true,
                    graph: g,
                    radius,
                    body_radius: 1,
                    body: conj(counted),
                };
                terms.push((b, false));
            }
        }
        for s in &fixtures {
            let mut nev = foc_eval::NaiveEvaluator::new(s, &p);
            for (b, compiles) in &terms {
                assert_eq!(
                    BallPlan::new(b, s, &p, true).is_compiled(),
                    *compiles,
                    "{}",
                    b.body
                );
                let term = b.to_term();
                let want: Vec<i64> = s
                    .universe()
                    .map(|a| {
                        let mut env = Assignment::from_pairs([(b.vars[0], a)]);
                        nev.eval_term(&term, &mut env).unwrap()
                    })
                    .collect();
                for (threads, toggles) in [(1, true), (2, true), (2, false)] {
                    let mut lev = LocalEvaluator::new(s, &p);
                    lev.threads = threads;
                    lev.use_atom_candidates = toggles;
                    lev.use_support = toggles;
                    let got = lev.eval_basic_all(b).unwrap();
                    assert_eq!(got, want, "threads {threads}, body {}", b.body);
                }
            }
        }
    }

    #[test]
    fn full_clterm_pipeline_ground() {
        // End-to-end: decompose then evaluate locally; compare with the
        // reference count of the original term.
        let y1 = v("y1");
        let y2 = v("y2");
        let body = not(atom("E", [y1, y2]));
        let cl = decompose_ground(&body, &[y1, y2]).unwrap();
        let p = Predicates::standard();
        for s in structures() {
            let mut lev = LocalEvaluator::new(&s, &p);
            let got = match lev.eval_clterm(&cl).unwrap() {
                ClValue::Scalar(x) => x,
                ClValue::Vector(_) => panic!("ground term produced a vector"),
            };
            let term = StdArc::new(Term::Count(vec![y1, y2].into_boxed_slice(), body.clone()));
            let mut nev = foc_eval::NaiveEvaluator::new(&s, &p);
            assert_eq!(
                got,
                nev.eval_ground(&term).unwrap(),
                "on order {}",
                s.order()
            );
        }
    }

    #[test]
    fn full_clterm_pipeline_unary() {
        let y1 = v("y1");
        let y2 = v("y2");
        let z = v("z");
        // Number of non-neighbours y2 that share a common neighbour z with
        // y1 — a width-2 body with a guarded quantifier.
        let body = and(
            not(atom("E", [y1, y2])),
            exists(z, and(atom("E", [y1, z]), atom("E", [z, y2]))),
        );
        let cl = decompose_unary(&body, &[y1, y2]).unwrap();
        let p = Predicates::standard();
        let counted = vec![y2];
        let term = StdArc::new(Term::Count(counted.into_boxed_slice(), body.clone()));
        for s in structures() {
            let mut lev = LocalEvaluator::new(&s, &p);
            let got = match lev.eval_clterm(&cl).unwrap() {
                ClValue::Vector(vals) => vals,
                ClValue::Scalar(x) => vec![x; s.order() as usize],
            };
            let mut nev = foc_eval::NaiveEvaluator::new(&s, &p);
            for a in s.universe() {
                let mut env = Assignment::from_pairs([(y1, a)]);
                let want = nev.eval_term(&term, &mut env).unwrap();
                assert_eq!(
                    got[a as usize],
                    want,
                    "at element {a} on order {}",
                    s.order()
                );
            }
        }
    }

    #[test]
    fn triangle_body_width_three() {
        let x = v("x");
        let y = v("y");
        let z = v("z");
        let tri = and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, x])]);
        let cl = decompose_unary(&tri, &[x, y, z]).unwrap();
        let p = Predicates::standard();
        let term = StdArc::new(Term::Count(vec![y, z].into_boxed_slice(), tri.clone()));
        for s in structures() {
            let mut lev = LocalEvaluator::new(&s, &p);
            let got = lev.eval_clterm(&cl).unwrap();
            let mut nev = foc_eval::NaiveEvaluator::new(&s, &p);
            for a in s.universe() {
                let mut env = Assignment::from_pairs([(x, a)]);
                let want = nev.eval_term(&term, &mut env).unwrap();
                assert_eq!(got.at(a).unwrap(), want, "triangles at {a}");
            }
        }
    }

    #[test]
    fn stats_track_work() {
        let y1 = v("y1");
        let y2 = v("y2");
        let body = atom("E", [y1, y2]);
        let cl = decompose_ground(&body, &[y1, y2]).unwrap();
        let s = path(10);
        let p = Predicates::standard();
        let mut lev = LocalEvaluator::new(&s, &p);
        lev.eval_clterm(&cl).unwrap();
        assert!(lev.stats.balls >= 10);
        assert!(lev.stats.ball_elements > 0);
    }

    #[test]
    fn broadcast_arithmetic() {
        let v = ClValue::Vector(vec![1, 2, 3]);
        let s = ClValue::Scalar(10);
        let sum = v.clone().add(s).unwrap();
        assert_eq!(sum, ClValue::Vector(vec![11, 12, 13]));
        let prod = v.clone().mul(ClValue::Vector(vec![2, 2, 2])).unwrap();
        assert_eq!(prod, ClValue::Vector(vec![2, 4, 6]));
        assert_eq!(v.at(2).unwrap(), 3);
        assert_eq!(ClValue::Scalar(7).at(99).unwrap(), 7);
    }

    #[test]
    fn out_of_range_element_is_a_typed_error() {
        let v = ClValue::Vector(vec![1, 2, 3]);
        assert!(matches!(
            v.at(3),
            Err(LocalityError::Eval(
                foc_eval::EvalError::ElementOutOfRange {
                    element: 3,
                    order: 3
                }
            ))
        ));
    }

    #[test]
    fn overflow_is_caught() {
        let v = ClValue::Scalar(i64::MAX);
        assert!(v.add(ClValue::Scalar(1)).is_err());
    }
}
