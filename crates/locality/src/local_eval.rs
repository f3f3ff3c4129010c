//! Ball-based evaluation of basic cl-terms (Remark 6.3): because the
//! connectivity graph of a basic cl-term is connected, the value
//! `u^A[a]` only depends on the `R`-neighbourhood of `a`, with
//! `R = r_body + (k−1)·(2r+1)` (Lemma 6.1). The evaluator therefore
//! explores `N_R(a)`, builds its induced substructure once, and
//! backtracks over tuple extensions along the edges of `G`, checking the
//! δ-constraints with bounded BFS inside the ball and the local body with
//! the reference evaluator on the ball.
//!
//! On classes with polynomial ball growth (bounded degree, trees, grids,
//! bounded expansion…) this yields the paper's fixed-parameter
//! almost-linear behaviour; on dense structures the balls, and hence the
//! cost, degenerate — exactly the dichotomy the theory predicts.

use std::sync::Arc;

use foc_eval::{Assignment, NaiveEvaluator};
use foc_guard::{Guard, Phase};
use foc_logic::Predicates;
use foc_obs::{names, pow2_buckets, Counter, Histogram, SpanHandle};
use foc_parallel::ParMeter;
use foc_structures::{BfsScratch, FxHashMap, Structure};

use crate::cache::TermCache;
use crate::clterm::{BasicClTerm, ClTerm};
use crate::error::{LocalityError, Result};

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
    scratch: BfsScratch,
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
            scratch: BfsScratch::new(),
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

    /// Counts one materialised ball of `elements` elements.
    fn note_ball(&mut self, elements: u64) {
        self.stats.balls += 1;
        self.stats.ball_elements += elements;
        if let Some(o) = &self.obs {
            o.balls.inc();
            o.ball_elements.add(elements);
            o.ball_size.observe(elements);
        }
    }

    /// Counts one fully assembled tuple checked against the body.
    fn note_tuple(&mut self) {
        self.stats.tuples_checked += 1;
        if let Some(o) = &self.obs {
            o.tuples.inc();
        }
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

    /// `u^A[a]` for a unary (or ground-used-as-unary) basic cl-term: the
    /// number of extensions `(a₂,…,a_k)` with `y₁ = a` satisfying
    /// `ψ ∧ δ_G,2r+1`.
    ///
    /// The enumeration is ball-local by construction (candidates come
    /// from bounded-BFS distance maps, so only `N_R(a)` is ever touched,
    /// with `R` the exploration radius of Lemma 6.1); the body is checked
    /// directly in `A` — its value at a tuple *is* the cl-term's
    /// semantics, and the candidate-driven reference evaluator keeps that
    /// check neighbourhood-local for the separable fragment.
    pub fn eval_basic_at(&mut self, b: &BasicClTerm, a: u32) -> Result<i64> {
        self.guard.check(Phase::BallEnum)?;
        if self.fault_panic_element == Some(a) {
            panic!("injected fault at element {a}");
        }
        let k = b.width();
        if k == 1 {
            // Width-1 term: the count is 1 iff ψ holds at a.
            let mut ev = NaiveEvaluator::new(self.a, self.preds);
            ev.set_guard(self.guard.clone());
            let mut env = Assignment::from_pairs([(b.vars[0], a)]);
            self.note_tuple();
            return Ok(if ev.check(&b.body, &mut env)? { 1 } else { 0 });
        }

        // `BasicClTerm::new` validated the bound via `checked_delta_bound`.
        let bound =
            u32::try_from(b.delta_bound()).unwrap_or_else(|_| unreachable!("delta bound fits u32"));
        let order = b.graph.bfs_order();
        debug_assert_eq!(order[0], 0);

        // Bounded-BFS distance maps from every assigned value (lazy).
        let mut dist_maps: FxHashMap<u32, FxHashMap<u32, u32>> = FxHashMap::default();
        let start_map = self.a.gaifman().distances_from(a, bound, &mut self.scratch);
        self.note_ball(start_map.len() as u64);
        dist_maps.insert(a, start_map);

        let mut assigned: Vec<(usize, u32)> = vec![(0, a)]; // (graph node, value)
        let mut count: i64 = 0;
        let mut ev = NaiveEvaluator::new(self.a, self.preds);
        ev.set_guard(self.guard.clone());
        self.backtrack(
            b,
            &order,
            1,
            &mut assigned,
            &mut dist_maps,
            &mut ev,
            &mut count,
        )?;
        Ok(count)
    }

    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        &mut self,
        b: &BasicClTerm,
        order: &[usize],
        idx: usize,
        assigned: &mut Vec<(usize, u32)>,
        dist_maps: &mut FxHashMap<u32, FxHashMap<u32, u32>>,
        ev: &mut NaiveEvaluator<'_>,
        count: &mut i64,
    ) -> Result<()> {
        if idx == order.len() {
            // δ fully checked along the way; test the body.
            let mut env =
                Assignment::from_pairs(assigned.iter().map(|&(node, val)| (b.vars[node], val)));
            self.note_tuple();
            if ev.check(&b.body, &mut env)? {
                *count = count
                    .checked_add(1)
                    .ok_or(LocalityError::Eval(foc_eval::EvalError::Overflow))?;
            }
            return Ok(());
        }
        let node = order[idx];
        // `BasicClTerm::new` validated the bound via `checked_delta_bound`.
        let bound =
            u32::try_from(b.delta_bound()).unwrap_or_else(|_| unreachable!("delta bound fits u32"));
        // Candidates: preferably from a positive guard atom of the body
        // that mentions this variable together with an assigned one
        // (a relational-index lookup); otherwise from the δ-ball of an
        // assigned G-neighbour (BFS order guarantees one exists). Values
        // outside the guard atom's rows falsify the body, and values
        // outside the ball falsify δ, so both candidate sets are sound.
        let atom_cands = if self.use_atom_candidates {
            self.atom_candidates(b, node, assigned)
        } else {
            None
        };
        let candidates: Vec<u32> = match atom_cands {
            Some(c) => c,
            None => {
                let anchor = assigned
                    .iter()
                    .find(|&&(m, _)| b.graph.edge(node, m))
                    .map(|&(_, val)| val)
                    .unwrap_or_else(|| unreachable!("BFS order guarantees an assigned neighbour"));
                dist_maps
                    .get(&anchor)
                    .unwrap_or_else(|| unreachable!("anchor map materialised"))
                    .keys()
                    .copied()
                    .collect()
            }
        };
        'cand: for cand in candidates {
            self.guard.check(Phase::BallEnum)?;
            // Check the δ-constraints against every assigned node.
            for &(m, val) in assigned.iter() {
                let close = dist_maps
                    .get(&val)
                    .unwrap_or_else(|| unreachable!("assigned maps materialised"))
                    .contains_key(&cand);
                if close != b.graph.edge(node, m) {
                    continue 'cand;
                }
            }
            // A candidate's own distance map is only needed when deeper
            // tuple positions will check δ-constraints against it.
            if idx + 1 < order.len() && !dist_maps.contains_key(&cand) {
                let map = self
                    .a
                    .gaifman()
                    .distances_from(cand, bound, &mut self.scratch);
                self.note_ball(map.len() as u64);
                dist_maps.insert(cand, map);
            }
            assigned.push((node, cand));
            self.backtrack(b, order, idx + 1, assigned, dist_maps, ev, count)?;
            assigned.pop();
        }
        Ok(())
    }

    /// The *support* of `y₁`: if the body has a positive atom conjunct
    /// containing `y₁`, only elements occurring at those atom positions
    /// can have a non-zero count. `None` means "no restriction".
    fn support(&self, b: &BasicClTerm) -> Option<Vec<u32>> {
        fn find(
            f: &foc_logic::Formula,
            var: foc_logic::Var,
            s: &Structure,
            best: &mut Option<Vec<u32>>,
        ) {
            match f {
                foc_logic::Formula::And(parts) => {
                    parts.iter().for_each(|p| find(p, var, s, best));
                }
                foc_logic::Formula::Exists(z, g) if *z != var => find(g, var, s, best),
                foc_logic::Formula::Atom(at) if at.args.contains(&var) => {
                    let Some(rel) = s.relation(at.rel) else {
                        return;
                    };
                    let positions: Vec<usize> = at
                        .args
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| **v == var)
                        .map(|(i, _)| i)
                        .collect();
                    let mut vals: Vec<u32> = Vec::with_capacity(rel.len());
                    'rows: for row in rel.rows() {
                        // All positions of `var` must agree within a row.
                        let first = row[positions[0]];
                        for &p in &positions[1..] {
                            if row[p] != first {
                                continue 'rows;
                            }
                        }
                        vals.push(first);
                    }
                    vals.sort_unstable();
                    vals.dedup();
                    match best {
                        Some(cur) if cur.len() <= vals.len() => {}
                        _ => *best = Some(vals),
                    }
                }
                _ => {}
            }
        }
        let mut best = None;
        find(&b.body, b.vars[0], self.a, &mut best);
        best
    }

    /// Candidate values for tuple position `node` from a positive guard
    /// atom of the body mentioning it together with an assigned
    /// variable — a relational-index lookup instead of a ball scan.
    fn atom_candidates(
        &self,
        b: &BasicClTerm,
        node: usize,
        assigned: &[(usize, u32)],
    ) -> Option<Vec<u32>> {
        let var = b.vars[node];
        let env: FxHashMap<foc_logic::Var, u32> =
            assigned.iter().map(|&(m, val)| (b.vars[m], val)).collect();
        let mut shadowed: Vec<foc_logic::Var> = Vec::new();
        let mut best: Option<Vec<u32>> = None;
        collect_atom_candidates(&b.body, var, &env, self.a, &mut shadowed, &mut best);
        best
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
            self.support(b)
        } else {
            None
        };
        let elems: Vec<u32> = match (support, demand) {
            (Some(support), Some(demand)) => sorted_intersection(&support, demand),
            (Some(support), None) => support,
            (None, Some(demand)) => demand.to_vec(),
            (None, None) => self.a.universe().collect(),
        };
        let threads = foc_parallel::resolve_threads(self.threads).min(elems.len().max(1));
        if threads <= 1 {
            // Catch panics here too, so `threads = 1` gives the same
            // structured fault as the parallel path.
            for (i, a) in elems.into_iter().enumerate() {
                let v = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.eval_basic_at(b, a)
                }))
                .map_err(|p| LocalityError::WorkerPanicked {
                    payload: foc_parallel::panic_message(p.as_ref()),
                    item_index: i,
                })??;
                out[a as usize] = v;
            }
            return Ok(out);
        }
        // Elements are independent, so fan out with per-worker state
        // (each worker gets its own scratch and counters); values are
        // written back under their element id and the counters summed,
        // making the result and the stats independent of scheduling.
        // Workers inherit the observer clone, so registry counters and
        // the ball-size histogram see their events live. A panicking
        // worker is contained: the fan-out drains, every thread joins,
        // and the panic surfaces as `WorkerPanicked`.
        let (a, preds) = (self.a, self.preds);
        let (cands, supp) = (self.use_atom_candidates, self.use_support);
        let obs = self.obs.clone();
        let meter = self.obs.as_ref().map(|o| o.meter.clone());
        let guard = self.guard.clone();
        let fault = self.fault_panic_element;
        let results = foc_parallel::par_map_isolated(&elems, threads, meter.as_ref(), |_, &e| {
            let mut worker = LocalEvaluator::new(a, preds);
            worker.use_atom_candidates = cands;
            worker.use_support = supp;
            worker.obs = obs.clone();
            worker.guard = guard.clone();
            worker.fault_panic_element = fault;
            let v = worker.eval_basic_at(b, e)?;
            Ok::<(i64, LocalStats), LocalityError>((v, worker.stats))
        })
        .map_err(|fault| match fault {
            foc_parallel::Fault::Error(e) => e,
            foc_parallel::Fault::Panic(p) => p.into(),
        })?;
        for (&e, (v, st)) in elems.iter().zip(results) {
            out[e as usize] = v;
            self.stats.balls += st.balls;
            self.stats.ball_elements += st.ball_elements;
            self.stats.tuples_checked += st.tuples_checked;
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

/// Walks the body's conjunctive structure (through foreign existential
/// binders) looking for positive atoms that mention `var` and at least
/// one bound, unshadowed variable; collects the matching row values.
fn collect_atom_candidates(
    f: &foc_logic::Formula,
    var: foc_logic::Var,
    env: &FxHashMap<foc_logic::Var, u32>,
    s: &Structure,
    shadowed: &mut Vec<foc_logic::Var>,
    best: &mut Option<Vec<u32>>,
) {
    use foc_logic::Formula;
    let lookup = |v: foc_logic::Var, shadowed: &[foc_logic::Var]| -> Option<u32> {
        if shadowed.contains(&v) {
            None
        } else {
            env.get(&v).copied()
        }
    };
    match f {
        Formula::And(parts) => {
            for p in parts {
                collect_atom_candidates(p, var, env, s, shadowed, best);
            }
        }
        Formula::Exists(z, g) if *z != var => {
            shadowed.push(*z);
            collect_atom_candidates(g, var, env, s, shadowed, best);
            shadowed.pop();
        }
        Formula::Atom(at) if at.args.contains(&var) => {
            // Require at least one bound companion variable for
            // selectivity; otherwise the ball candidates are preferable.
            if !at
                .args
                .iter()
                .any(|v| *v != var && lookup(*v, shadowed).is_some())
            {
                return;
            }
            let Some(rel) = s.relation(at.rel) else {
                return;
            };
            // Pick any bound companion position to drive an index lookup.
            let bound_pos = at.args.iter().enumerate().find_map(|(pos, v)| {
                if *v != var {
                    lookup(*v, shadowed).map(|val| (pos, val))
                } else {
                    None
                }
            });
            let mut vals = Vec::new();
            let mut scan = |row: &[u32]| {
                let mut candidate: Option<u32> = None;
                for (pos, v) in at.args.iter().enumerate() {
                    if *v == var {
                        match candidate {
                            None => candidate = Some(row[pos]),
                            Some(c) if c == row[pos] => {}
                            Some(_) => return,
                        }
                    } else if let Some(bound) = lookup(*v, shadowed) {
                        if bound != row[pos] {
                            return;
                        }
                    }
                }
                if let Some(c) = candidate {
                    vals.push(c);
                }
            };
            match bound_pos {
                Some((0, val)) => rel.rows_with_first(val).for_each(&mut scan),
                Some((pos, val)) => rel.rows_with_value_at(pos, val).for_each(&mut scan),
                None => rel.rows().for_each(scan),
            }
            vals.sort_unstable();
            vals.dedup();
            match best {
                Some(cur) if cur.len() <= vals.len() => {}
                _ => *best = Some(vals),
            }
        }
        _ => {}
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
                for a in s.universe() {
                    let mut env = Assignment::from_pairs([(b.vars[0], a)]);
                    let want = nev.eval_term(&term, &mut env).unwrap();
                    let got = lev.eval_basic_at(&b, a).unwrap();
                    assert_eq!(got, want, "local vs naive at {a} for {}", b.body);
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
