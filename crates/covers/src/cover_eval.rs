//! The main algorithm of Section 8.2: evaluating unary basic cl-terms
//! through a sparse neighbourhood cover with splitter-removal recursion.
//!
//! For a basic cl-term `u(y₁)` with exploration radius `R`:
//!
//! 1. build an (R, 2R)-neighbourhood cover `X` of `A`;
//! 2. for every cluster `X`, restrict to `B_X = A[X]` — for the elements
//!    `a` with `X(a) = X` (the paper's `Q` marker) the value `u^{B_X}[a]`
//!    equals `u^A[a]`, because `N_R(a) ⊆ X`. Only those values are
//!    computed: every call carries a *demand* (sorted element ids of the
//!    structure at hand, `None` = all), and cluster `X` answers for
//!    `Q ∩ demand`; clusters where that is empty are skipped. A cluster
//!    goes through removal (step 3) iff it has more than
//!    `direct_threshold` elements and holds at least one and at most
//!    `depth` *hubs* — elements of Gaifman degree above
//!    `max(direct_threshold, ⌊√|A|⌋)` — whether or not it is all of
//!    `A`. Without a hub there is nothing for Splitter to remove; with
//!    more hubs than `depth` the recursion cannot flatten the cluster.
//!    Only such a cluster is materialised as `B_X`, built from the rows
//!    starting inside `X` in time proportional to the cluster, with the
//!    demand renumbered into it; the cover builds the `N_2R` ball of a
//!    centre only if a hub lies within `2R` of it. Every other cluster
//!    gains nothing from the restriction, so the assigned elements of
//!    all of them are answered together on `A` itself (step 4);
//! 3. inside a cluster, pick Splitter's vertex `d` (the cluster's
//!    max-degree element, then a hub), perform the removal surgery
//!    `B' = B_X *_r d` and rewrite the
//!    counting term via the Removal Lemma (Lemma 7.9); the rewritten
//!    counting components are decomposed again (Lemma 6.4 over the σ̃
//!    signature) and evaluated on the smaller, flatter `B'` — recursing
//!    until the depth budget is exhausted. The ground components for `d`
//!    itself run only if `d` is demanded; the unary components run at
//!    the demand minus `d`, renumbered into `B'`. Ground basics and
//!    ground components are sums over every element, so they always run
//!    with no demand;
//! 4. at the bottom — depth exhausted, a structure below
//!    `direct_threshold`, or the batch of step 2 — values are computed
//!    by ball enumeration for the demanded elements only, in one
//!    [`LocalEvaluator::eval_basic_for`] call per structure; if a
//!    rewritten body leaves the separable fragment, the reference
//!    evaluator provides a correct (slower) fallback, also only at the
//!    demanded elements.
//!
//! The recursion terminates because every removal spends one unit of the
//! depth budget; the splitter game on a nowhere dense class is won in
//! λ(2R) rounds — empirically measured in experiment E9.
//!
//! ## Parallelism and memoisation
//!
//! The clusters of step 2 are *independent*: each produces values only
//! for its own assigned elements. At the outermost structure the batch
//! of directly answered elements runs on [`CoverConfig::threads`]
//! workers inside the ball enumeration, and the removal clusters fan out
//! over as many workers ([`foc_parallel::par_map_isolated`]); both write
//! results back under their element ids — **bit-identical to the
//! sequential loop** for every thread count. Only the outermost cover
//! parallelises; the removal recursion inside a cluster stays sequential
//! so the worker count is bounded by the configuration, not by the
//! recursion tree. All mutable evaluator state is shareable: work
//! counters are atomics, the removal-plan cache and the optional
//! [`TermCache`] (content-keyed memo of basic-term values, shared with
//! the engine session and across the recursion) sit behind locks.
//!
//! Memo keys are (term, structure fingerprint, order) for full vectors,
//! plus a hash of the sorted local demand for demanded ones. A full
//! vector answers any demand; a demanded entry answers only its own
//! demand. Every structure the recursion evaluates on — the top-level
//! one and each surgered `B'` — is memoised once per (term, demand), so
//! content-equal surgered clusters demanded at the same local positions
//! share one entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use foc_eval::{Assignment, NaiveEvaluator};
use foc_guard::{Guard, Phase};
use foc_locality::cache::TermCache;
use foc_locality::clterm::{BasicClTerm, ClTerm};
use foc_locality::decompose::decompose_unary;
use foc_locality::error::Result;
use foc_locality::local_eval::{ClValue, LocalEvaluator};
use foc_logic::{Formula, Predicates, Term, Var};
use foc_obs::{names, pow2_buckets, Histogram, SpanHandle};
use foc_parallel::ParMeter;
use foc_structures::{FxHashMap, Structure};

use crate::cover::{cover_structure, hub_degree};
use crate::removal::{new_id, old_id, remove_element, remove_unary_count, RemovedCount};

/// Rewrites an interrupt's trip site to [`Phase::Cover`], the phase of
/// the per-cluster stage it escaped from. Workers poll the shared
/// budget from whatever micro-phase they are in, so the first phase to
/// cross the allowance is a scheduling accident; the stage is not.
/// Non-interrupt errors pass through untouched.
fn pin_stage_interrupt(e: foc_locality::LocalityError) -> foc_locality::LocalityError {
    match e {
        foc_locality::LocalityError::Eval(foc_eval::EvalError::Interrupted(mut i)) => {
            i.phase = Phase::Cover;
            foc_locality::LocalityError::Eval(foc_eval::EvalError::Interrupted(i))
        }
        other => other,
    }
}

/// Work counters for the cover engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoverStats {
    /// Covers constructed.
    pub covers_built: u64,
    /// Clusters processed: every cluster with a demanded assigned
    /// element, materialised or not.
    pub clusters: u64,
    /// Removal surgeries performed.
    pub removals: u64,
    /// Counting components that fell back to the reference evaluator.
    pub naive_fallbacks: u64,
    /// Order of the largest materialised cluster (one the cover built
    /// because a hub lies near its centre) or of the largest structure
    /// evaluated at the bottom of the recursion. Clusters answered in the
    /// direct batch without being built are not observed.
    pub peak_cluster: u32,
}

/// Tuning knobs for the cover engine.
#[derive(Debug, Clone, Copy)]
pub struct CoverConfig {
    /// Removal-recursion depth budget (≈ the splitter-game bound λ); a
    /// cluster with more hubs than this is answered directly.
    pub depth: u32,
    /// Structures and clusters of at most this order are evaluated
    /// directly by ball enumeration. A hub of a structure `S` is an
    /// element of degree above `max(direct_threshold, ⌊√|S|⌋)`.
    pub direct_threshold: u32,
    /// Worker threads for the per-cluster loop: `1` is the sequential
    /// loop, `0` means "one per hardware thread".
    pub threads: usize,
}

impl Default for CoverConfig {
    fn default() -> Self {
        CoverConfig {
            depth: 1,
            direct_threshold: 16,
            threads: 1,
        }
    }
}

/// Observability hooks: the span-tree position this evaluator nests
/// under, the live cluster-size histogram (observed once per removal
/// surgery, at the same site as the `removals` counter, so histogram
/// totals always equal the counter totals folded by the engine), and the
/// fan-out meter for the per-cluster loop. Cloneable so worker threads
/// carry it.
#[derive(Debug, Clone)]
struct CoverObs {
    parent: SpanHandle,
    cluster_size: Histogram,
    meter: ParMeter,
}

/// The structure-independent part of one removal step for a basic
/// cl-term: the rewriting of Lemma 7.9 and the re-decomposition of the
/// rewritten bodies (Lemma 6.4 over σ̃). Computed once per basic term
/// and reused across every cluster — the surgery itself depends on the
/// cluster, the symbols and formulas do not.
struct RemovalPlan {
    /// Marker radius: `S_1, …, S_r` cover the matrix's distance atoms.
    r: u32,
    /// Ground components for the removed element, with their (optional)
    /// decomposition using the first counted variable as the free one.
    when_d: Vec<(RemovedCount, Option<ClTerm>)>,
    /// Unary components for the surviving elements, decomposed over
    /// `[x] ++ counted`.
    when_not_d: Vec<(RemovedCount, Option<ClTerm>)>,
}

/// Atomic mirror of [`CoverStats`], so worker threads can count without
/// serialising on a lock. Every field is a sum or a max, so the snapshot
/// is independent of scheduling (hit/miss accounting of the shared
/// [`TermCache`] is the one scheduling-dependent counter, and it lives
/// in the cache itself).
#[derive(Debug, Default)]
struct SharedStats {
    covers_built: AtomicU64,
    clusters: AtomicU64,
    removals: AtomicU64,
    naive_fallbacks: AtomicU64,
    peak_cluster: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> CoverStats {
        CoverStats {
            covers_built: self.covers_built.load(Ordering::Relaxed),
            clusters: self.clusters.load(Ordering::Relaxed),
            removals: self.removals.load(Ordering::Relaxed),
            naive_fallbacks: self.naive_fallbacks.load(Ordering::Relaxed),
            peak_cluster: self.peak_cluster.load(Ordering::Relaxed) as u32,
        }
    }

    fn max_cluster(&self, order: u32) {
        self.peak_cluster
            .fetch_max(u64::from(order), Ordering::Relaxed);
    }
}

/// One hash bucket of the removal-plan cache: every basic cl-term whose
/// structural hash landed here, paired with its computed plan.
type PlanBucket = Vec<(BasicClTerm, Arc<RemovalPlan>)>;

/// Evaluates cl-terms with the cover + removal strategy of Section 8.2.
///
/// All evaluation methods take `&self`: the evaluator's mutable state
/// (counters, plan cache, memo cache) is interior and thread-safe, which
/// is what lets the per-cluster loop share one evaluator across workers.
pub struct CoverEvaluator<'a> {
    a: &'a Structure,
    preds: &'a Predicates,
    /// Configuration.
    pub config: CoverConfig,
    /// Work counters (atomic; snapshot via [`CoverEvaluator::stats`]).
    stats: SharedStats,
    /// Removal plans per basic cl-term: hash-bucketed by structural hash
    /// (so a plan computed for one `Arc` is reused by every equal term)
    /// with the actual term stored per entry — a hash collision between
    /// distinct terms gets separate slots, never a cross-read.
    plans: Mutex<FxHashMap<u64, PlanBucket>>,
    /// Optional shared memo of basic-term values (see [`TermCache`]).
    cache: Option<Arc<TermCache>>,
    /// Optional observability hooks (see [`CoverObs`]).
    obs: Option<CoverObs>,
    /// Cooperative resource guard; checked per cluster and inherited by
    /// every nested ball-enumeration / reference evaluator.
    guard: Guard,
    /// Test-only fault injection, forwarded to the top-level ball
    /// enumeration (see `LocalEvaluator::fault_panic_element`).
    #[doc(hidden)]
    pub fault_panic_element: Option<u32>,
    /// Unit-test fault injection: panic in the removal fan-out on the
    /// cluster with this index in its cover.
    #[cfg(test)]
    panic_cluster: Option<usize>,
}

impl<'a> CoverEvaluator<'a> {
    /// Creates a cover evaluator with the default configuration.
    pub fn new(a: &'a Structure, preds: &'a Predicates) -> CoverEvaluator<'a> {
        CoverEvaluator {
            a,
            preds,
            config: CoverConfig::default(),
            stats: SharedStats::default(),
            plans: Mutex::new(FxHashMap::default()),
            cache: None,
            obs: None,
            guard: Guard::unlimited(),
            fault_panic_element: None,
            #[cfg(test)]
            panic_cluster: None,
        }
    }

    /// Attaches a shared memo cache consulted for every basic-term
    /// evaluation at every recursion level.
    pub fn set_cache(&mut self, cache: Arc<TermCache>) {
        self.cache = Some(cache);
    }

    /// Installs a cooperative resource guard, shared with every nested
    /// evaluator and parallel worker.
    pub fn set_guard(&mut self, guard: Guard) {
        self.guard = guard;
    }

    /// Attaches observability: spans for cover construction, per-cluster
    /// evaluation, and removal surgeries nest under `parent`; the
    /// cluster-size histogram and the fan-out meter are resolved from
    /// the handle's metrics registry. Nested ball-enumeration
    /// evaluators inherit the observer, so their ball counters reach
    /// the same registry.
    pub fn set_observer(&mut self, parent: SpanHandle) {
        let m = parent.metrics();
        self.obs = Some(CoverObs {
            cluster_size: m.histogram(names::COVER_CLUSTER_SIZE, &pow2_buckets(20)),
            meter: ParMeter::from_metrics(m),
            parent,
        });
    }

    /// A snapshot of the work counters.
    pub fn stats(&self) -> CoverStats {
        self.stats.snapshot()
    }

    /// Evaluates a full cl-term (same interface as
    /// [`LocalEvaluator::eval_clterm`]).
    pub fn eval_clterm(&self, t: &ClTerm) -> Result<ClValue> {
        let mut unary_cache: FxHashMap<usize, Vec<i64>> = FxHashMap::default();
        let mut ground_cache: FxHashMap<usize, i64> = FxHashMap::default();
        self.eval_rec(t, &mut unary_cache, &mut ground_cache)
    }

    fn eval_rec(
        &self,
        t: &ClTerm,
        unary_cache: &mut FxHashMap<usize, Vec<i64>>,
        ground_cache: &mut FxHashMap<usize, i64>,
    ) -> Result<ClValue> {
        match t {
            ClTerm::Int(i) => Ok(ClValue::Scalar(*i)),
            ClTerm::Basic(b) => {
                let key = Arc::as_ptr(b) as usize;
                let parent = self.obs.as_ref().map(|o| o.parent.clone());
                if b.unary {
                    if let Some(vs) = unary_cache.get(&key) {
                        return Ok(ClValue::Vector(vs.clone()));
                    }
                    let vals =
                        self.eval_basic_all(b, self.a, self.config.depth, None, parent.as_ref())?;
                    unary_cache.insert(key, vals.clone());
                    Ok(ClValue::Vector(vals))
                } else {
                    if let Some(&v) = ground_cache.get(&key) {
                        return Ok(ClValue::Scalar(v));
                    }
                    // Ground basics: sum the unary view (Remark 6.3).
                    let vals =
                        self.eval_basic_all(b, self.a, self.config.depth, None, parent.as_ref())?;
                    let mut acc = 0i64;
                    for v in vals {
                        acc = acc.checked_add(v).ok_or(foc_locality::LocalityError::Eval(
                            foc_eval::EvalError::Overflow,
                        ))?;
                    }
                    ground_cache.insert(key, acc);
                    Ok(ClValue::Scalar(acc))
                }
            }
            ClTerm::Add(ts) => {
                let mut acc = ClValue::Scalar(0);
                for s in ts {
                    let v = self.eval_rec(s, unary_cache, ground_cache)?;
                    acc = acc.add(v)?;
                }
                Ok(acc)
            }
            ClTerm::Mul(ts) => {
                let mut acc = ClValue::Scalar(1);
                for s in ts {
                    let v = self.eval_rec(s, unary_cache, ground_cache)?;
                    acc = acc.mul(v)?;
                }
                Ok(acc)
            }
        }
    }

    /// `u^S[a]` at the demanded elements by ball enumeration on `s`
    /// itself, under the evaluator's guard and observer. It stays off the
    /// memo: both callers sit inside [`CoverEvaluator::eval_basic_all`],
    /// which memoises the vector it assembles.
    fn ball_enum(
        &self,
        b: &BasicClTerm,
        s: &Structure,
        threads: usize,
        demand: Option<&[u32]>,
        parent: Option<&SpanHandle>,
    ) -> Result<Vec<i64>> {
        let mut lev = LocalEvaluator::new(s, self.preds);
        lev.threads = threads;
        lev.set_guard(self.guard.clone());
        if let Some(p) = parent {
            lev.set_observer(p.clone());
        }
        // Fault injection targets original element ids, so it only makes
        // sense on the top-level structure (clusters are renumbered).
        if std::ptr::eq(s, self.a) {
            lev.fault_panic_element = self.fault_panic_element;
        }
        lev.eval_basic_for(b, demand)
    }

    /// `u^S[a]` for the demanded `a ∈ S` (sorted, unique; `None` means
    /// every element), by cover + removal (recursing on `depth`). The
    /// result has one slot per element of `S`; slots outside the demand
    /// carry no meaning (a memoised full vector may fill them).
    fn eval_basic_all(
        &self,
        b: &Arc<BasicClTerm>,
        s: &Structure,
        depth: u32,
        demand: Option<&[u32]>,
        parent: Option<&SpanHandle>,
    ) -> Result<Vec<i64>> {
        self.guard.check(Phase::Cover)?;
        if demand.is_some_and(|d| d.is_empty()) {
            return Ok(vec![0; s.order() as usize]);
        }
        if let Some(cache) = &self.cache {
            if let Some(vals) = cache.get(b, s, demand) {
                return Ok(vals);
            }
        }
        let vals = self.eval_basic_all_uncached(b, s, depth, demand, parent)?;
        if let Some(cache) = &self.cache {
            cache.insert(b, s, demand, vals.clone());
        }
        Ok(vals)
    }

    fn eval_basic_all_uncached(
        &self,
        b: &Arc<BasicClTerm>,
        s: &Structure,
        depth: u32,
        demand: Option<&[u32]>,
        parent: Option<&SpanHandle>,
    ) -> Result<Vec<i64>> {
        // Parallelise only at the outermost structure: recursive calls on
        // clusters and surgered substructures already run inside a worker.
        let top = std::ptr::eq(s, self.a);
        let threads = if top {
            foc_parallel::resolve_threads(self.config.threads)
        } else {
            1
        };
        let radius = LocalEvaluator::exploration_radius(b);
        let radius = u32::try_from(radius.min(u64::from(u32::MAX / 4))).unwrap_or(u32::MAX / 4);
        if depth == 0 || s.order() <= self.config.direct_threshold {
            self.stats.max_cluster(s.order());
            return self.ball_enum(b, s, threads, demand, parent);
        }
        let cover_span = parent.map(|p| {
            p.child(
                "cover",
                &[
                    ("radius", i64::from(radius)),
                    ("order", i64::from(s.order())),
                    ("depth", i64::from(depth)),
                ],
            )
        });
        let cover_handle = cover_span.as_ref().map(|sp| sp.handle());
        let cover = cover_structure(s, radius);
        self.stats.covers_built.fetch_add(1, Ordering::Relaxed);
        if let Some(sp) = &cover_span {
            sp.record("clusters", cover.len() as i64);
        }
        // The paper's `Q` marker, cut down to the demand: cluster `X`
        // answers for the demanded elements assigned to it, and nothing
        // else. Clusters left with no such element are skipped.
        let assigned = match demand {
            None => cover.members(),
            Some(d) => {
                let mut out = vec![Vec::new(); cover.len()];
                for &a in d {
                    out[cover.assign[a as usize] as usize].push(a);
                }
                out
            }
        };

        // A cluster that needs no removal needs no restriction either:
        // `N_R(a) ⊆ X(a)` gives `u^{B_X}[a] = u^S[a]` (Lemma 6.1), so the
        // assigned elements of all such clusters are answered by one
        // ball enumeration on `S`. Only removal clusters fan out, and
        // only a cluster with a hub near its centre was built at all.
        let mut direct: Vec<u32> = Vec::new();
        let mut removal: Vec<(usize, &[u32])> = Vec::new();
        for (idx, q) in assigned.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            self.stats.clusters.fetch_add(1, Ordering::Relaxed);
            let cluster = cover.prebuilt(idx);
            if let Some(c) = cluster {
                self.stats.max_cluster(c.len() as u32);
            }
            match cluster {
                Some(c) if self.needs_removal(s, c, depth) => removal.push((idx, c)),
                _ => direct.extend_from_slice(q),
            }
        }
        direct.sort_unstable();

        // A budget trip inside the per-cluster stage reports wherever the
        // crossing worker happened to be (cover recursion, ball
        // enumeration inside a cluster) — under threads > 1 that micro-
        // phase depends on scheduling. Pin the stage boundary's phase so
        // `Interrupt{reason, phase}` is identical across thread counts.
        let pin = |e| if top { pin_stage_interrupt(e) } else { e };

        // The batch's vector is zero outside its demand; removal clusters
        // fill in their own elements.
        let mut out = if direct.is_empty() {
            vec![0i64; s.order() as usize]
        } else {
            self.ball_enum(b, s, threads, Some(&direct), cover_handle.as_ref())
                .map_err(pin)?
        };

        // One work item per removal cluster; each yields (element, value)
        // pairs for its own elements only, so writing them back in any
        // order reproduces the sequential result exactly. A panic inside
        // a cluster is caught at every thread count and reported with the
        // cluster's index in `cover`.
        if !removal.is_empty() {
            // Compute the removal plan up front so workers find it in the
            // cache instead of racing to build it.
            self.removal_plan(b);
        }
        let meter = self.obs.as_ref().map(|o| &o.meter);
        let per_cluster =
            foc_parallel::par_map_isolated(&removal, threads, meter, |_, &(idx, cluster)| {
                #[cfg(test)]
                if self.panic_cluster == Some(idx) {
                    panic!("injected cluster fault");
                }
                self.eval_one_cluster(b, s, depth, cluster, &assigned[idx], &cover_handle)
            })
            .map_err(|fault| match fault {
                foc_parallel::Fault::Error(e) => e,
                foc_parallel::Fault::Panic(p) => foc_locality::LocalityError::WorkerPanicked {
                    payload: p.payload,
                    item_index: removal[p.item_index].0,
                },
            });
        for pairs in per_cluster.map_err(pin)? {
            for (a, v) in pairs {
                out[a as usize] = v;
            }
        }
        Ok(out)
    }

    /// Whether a materialised cluster of `s` goes through removal surgery
    /// at `depth`: it has more than `direct_threshold` elements and holds
    /// at least one and at most `depth` hubs, elements of degree above
    /// `max(direct_threshold, ⌊√|S|⌋)`.
    fn needs_removal(&self, s: &Structure, cluster: &[u32], depth: u32) -> bool {
        let g = s.gaifman();
        let threshold = self.config.direct_threshold as usize;
        let hub = threshold.max(hub_degree(g.n()));
        let hubs = cluster
            .iter()
            .filter(|&&v| g.degree(v) > hub)
            .take(depth as usize + 1)
            .count();
        cluster.len() > threshold && (1..=depth as usize).contains(&hubs)
    }

    /// One removal cluster of the per-cluster loop: evaluate the basic
    /// cl-term for the (demanded) elements `q` assigned to `cluster`,
    /// recursing through the removal machinery on the induced
    /// substructure.
    fn eval_one_cluster(
        &self,
        b: &Arc<BasicClTerm>,
        s: &Structure,
        depth: u32,
        cluster: &[u32],
        q: &[u32],
        cover_handle: &Option<SpanHandle>,
    ) -> Result<Vec<(u32, i64)>> {
        self.guard.check(Phase::Cover)?;
        let cluster_span = cover_handle.as_ref().map(|h| {
            h.child(
                "cluster",
                &[("size", cluster.len() as i64), ("assigned", q.len() as i64)],
            )
        });
        let cluster_handle = cluster_span.as_ref().map(|sp| sp.handle());
        let ind = s.induced(cluster);
        // The renumbering is monotone, so the local demand stays sorted.
        let local_q: Vec<u32> = q.iter().map(|a| ind.fwd[a]).collect();
        let vals = self.eval_cluster(
            b,
            &ind.structure,
            depth,
            Some(&local_q),
            cluster_handle.as_ref(),
        )?;
        Ok(q.iter()
            .zip(&local_q)
            .map(|(&a, &la)| (a, vals[la as usize]))
            .collect())
    }

    /// The removal plan for a basic cl-term (computed once, cached by
    /// structural hash).
    fn removal_plan(&self, b: &Arc<BasicClTerm>) -> Arc<RemovalPlan> {
        let key = b.structural_hash();
        // Worker panics are caught upstream and never hold this lock, but
        // recover from poisoning anyway: the cache holds plain data.
        if let Some(plan) = self
            .plans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|(t, _)| t == &**b))
            .map(|(_, p)| p.clone())
        {
            return plan;
        }
        let r = max_dist_bound(&b.matrix()).max(1);
        let x = b.vars[0];
        let counted: Vec<Var> = b.vars[1..].to_vec();
        let matrix = b.matrix();
        let (when_d, when_not_d) = remove_unary_count(x, &counted, &matrix, r);
        let when_d = when_d
            .into_iter()
            .map(|rc| {
                let cl = if rc.counted.is_empty() {
                    None
                } else {
                    decompose_unary(&rc.body, &rc.counted).ok()
                };
                (rc, cl)
            })
            .collect();
        let when_not_d = when_not_d
            .into_iter()
            .map(|rc| {
                let cl = if rc.counted.is_empty() {
                    None
                } else {
                    let mut vars = vec![x];
                    vars.extend_from_slice(&rc.counted);
                    decompose_unary(&rc.body, &vars).ok()
                };
                (rc, cl)
            })
            .collect();
        let plan = Arc::new(RemovalPlan {
            r,
            when_d,
            when_not_d,
        });
        // A concurrent worker may have raced us here; both plans for the
        // *same* term are identical, so keeping either is fine — but a
        // hash-colliding *different* term must get its own bucket slot,
        // never overwrite (or be served) another term's plan.
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = plans.entry(key).or_default();
        if bucket.iter().all(|(t, _)| t != &**b) {
            bucket.push(((**b).clone(), plan.clone()));
        }
        plan
    }

    /// Evaluates `u` on one cluster by one splitter removal (then the
    /// cover recursion on the surgered structure, at `depth - 1`), at the
    /// demanded elements (`None`: all of them). Clusters that need no
    /// removal never get here: [`CoverEvaluator::eval_basic_all`]
    /// answers them in its batch.
    fn eval_cluster(
        &self,
        b: &Arc<BasicClTerm>,
        cluster: &Structure,
        depth: u32,
        demand: Option<&[u32]>,
        parent: Option<&SpanHandle>,
    ) -> Result<Vec<i64>> {
        debug_assert!(
            depth > 0 && cluster.order() > 0,
            "a removal needs depth and a hub"
        );
        self.guard.check(Phase::Cover)?;
        let plan = self.removal_plan(b);
        // Splitter's move: delete the hub of the cluster (clusters with an
        // assigned element are never empty; default to 0 regardless).
        let g = cluster.gaifman();
        let d = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap_or(0);
        let removal_span = parent.map(|p| {
            p.child(
                "removal",
                &[
                    ("depth", i64::from(depth)),
                    ("order", i64::from(cluster.order())),
                    ("hub", i64::from(d)),
                ],
            )
        });
        let removal_handle = removal_span.as_ref().map(|sp| sp.handle());
        let parent = removal_handle.as_ref();
        let bprime = &remove_element(cluster, d, plan.r);
        self.stats.removals.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.cluster_size.observe(u64::from(cluster.order()));
        }

        let x = b.vars[0];
        let mut out = vec![0i64; cluster.order() as usize];

        // a = d: sum of ground components on B′ — only if d is demanded.
        let wants_d = demand.is_none_or(|dm| dm.binary_search(&d).is_ok());
        let when_d: &[_] = if wants_d { &plan.when_d } else { &[] };
        let mut at_d = 0i64;
        for (rc, cl) in when_d {
            let v = if rc.counted.is_empty() {
                let mut ev = NaiveEvaluator::new(bprime, self.preds);
                ev.set_guard(self.guard.clone());
                // Sentences outside the validated fragment default to
                // false, but a budget trip must still propagate.
                match ev.check_sentence(&rc.body) {
                    Ok(t) => i64::from(t),
                    Err(foc_eval::EvalError::Interrupted(i)) => return Err(i.into()),
                    Err(_) => 0,
                }
            } else {
                let vals =
                    self.eval_component(bprime, cl.as_ref(), None, rc, depth - 1, None, parent)?;
                let mut acc = 0i64;
                for v in vals {
                    acc = acc.checked_add(v).ok_or(foc_locality::LocalityError::Eval(
                        foc_eval::EvalError::Overflow,
                    ))?;
                }
                acc
            };
            at_d = at_d
                .checked_add(v)
                .ok_or(foc_locality::LocalityError::Eval(
                    foc_eval::EvalError::Overflow,
                ))?;
        }
        out[d as usize] = at_d;

        // a ≠ d: sum of unary components on B′, at the demand minus d,
        // renumbered into B′.
        let rest: Option<Vec<u32>> = demand.map(|dm| {
            dm.iter()
                .filter(|&&e| e != d)
                .map(|&e| new_id(d, e))
                .collect()
        });
        let rest = rest.as_deref();
        if rest.is_some_and(|r| r.is_empty()) {
            return Ok(out);
        }
        for (rc, cl) in &plan.when_not_d {
            let vals =
                self.eval_component(bprime, cl.as_ref(), Some(x), rc, depth - 1, rest, parent)?;
            for new in demanded(bprime, rest) {
                let old = old_id(d, new) as usize;
                out[old] = out[old].checked_add(vals[new as usize]).ok_or(
                    foc_locality::LocalityError::Eval(foc_eval::EvalError::Overflow),
                )?;
            }
        }
        Ok(out)
    }

    /// Evaluates one rewritten counting component on `s` at the demanded
    /// elements: decomposed per-element when a cl-term is available, by
    /// reference evaluation otherwise. For ground components
    /// (`free = None`, always with no demand) the vector is indexed by
    /// the first counted variable and summed by the caller.
    #[allow(clippy::too_many_arguments)]
    fn eval_component(
        &self,
        s: &Structure,
        cl: Option<&ClTerm>,
        free: Option<Var>,
        rc: &RemovedCount,
        depth: u32,
        demand: Option<&[u32]>,
        parent: Option<&SpanHandle>,
    ) -> Result<Vec<i64>> {
        debug_assert!(
            free.is_some() || demand.is_none(),
            "ground sums need every element"
        );
        match (cl, free) {
            (Some(cl), _) => self.eval_clterm_vector(cl, s, depth, demand, parent),
            (None, Some(x)) if rc.counted.is_empty() => {
                // Width-1: check the body per element.
                let mut ev = NaiveEvaluator::new(s, self.preds);
                ev.set_guard(self.guard.clone());
                let mut out = vec![0i64; s.order() as usize];
                for a in demanded(s, demand) {
                    let mut env = Assignment::from_pairs([(x, a)]);
                    out[a as usize] = i64::from(ev.check(&rc.body, &mut env)?);
                }
                Ok(out)
            }
            (None, free) => {
                // Outside the fragment after rewriting: reference
                // evaluator (correct, not cover-accelerated).
                self.stats.naive_fallbacks.fetch_add(1, Ordering::Relaxed);
                match free {
                    Some(x) => {
                        let term = Arc::new(Term::Count(
                            rc.counted.clone().into_boxed_slice(),
                            rc.body.clone(),
                        ));
                        let mut ev = NaiveEvaluator::new(s, self.preds);
                        ev.set_guard(self.guard.clone());
                        let mut out = vec![0i64; s.order() as usize];
                        for a in demanded(s, demand) {
                            let mut env = Assignment::from_pairs([(x, a)]);
                            out[a as usize] = ev.eval_term(&term, &mut env)?;
                        }
                        Ok(out)
                    }
                    None => {
                        // Ground: index by the first counted variable.
                        let x0 = rc.counted[0];
                        let rest: Vec<Var> = rc.counted[1..].to_vec();
                        let term = Arc::new(Term::Count(rest.into_boxed_slice(), rc.body.clone()));
                        let mut ev = NaiveEvaluator::new(s, self.preds);
                        ev.set_guard(self.guard.clone());
                        let mut out = Vec::with_capacity(s.order() as usize);
                        for a in s.universe() {
                            let mut env = Assignment::from_pairs([(x0, a)]);
                            out.push(ev.eval_term(&term, &mut env)?);
                        }
                        Ok(out)
                    }
                }
            }
        }
    }

    /// Evaluates a decomposed cl-term to a per-element vector on `s` at
    /// the demanded elements, recursing through the cover machinery for
    /// its basics. Unary basics inherit the demand; ground basics are
    /// sums over every element, so they are evaluated in full.
    fn eval_clterm_vector(
        &self,
        cl: &ClTerm,
        s: &Structure,
        depth: u32,
        demand: Option<&[u32]>,
        parent: Option<&SpanHandle>,
    ) -> Result<Vec<i64>> {
        let mut unary_vals: FxHashMap<usize, Vec<i64>> = FxHashMap::default();
        let mut ground_vals: FxHashMap<usize, i64> = FxHashMap::default();
        for basic in cl.basics() {
            let key = Arc::as_ptr(&basic) as usize;
            if basic.unary {
                if let std::collections::hash_map::Entry::Vacant(e) = unary_vals.entry(key) {
                    let vals = self.eval_basic_all(&basic, s, depth, demand, parent)?;
                    e.insert(vals);
                }
            } else if let std::collections::hash_map::Entry::Vacant(e) = ground_vals.entry(key) {
                let vals = self.eval_basic_all(&basic, s, depth, None, parent)?;
                let mut acc = 0i64;
                for v in vals {
                    acc = acc.checked_add(v).ok_or(foc_locality::LocalityError::Eval(
                        foc_eval::EvalError::Overflow,
                    ))?;
                }
                e.insert(acc);
            }
        }
        let mut out = vec![0i64; s.order() as usize];
        for a in demanded(s, demand) {
            out[a as usize] = cl.eval_with(&mut |basic| {
                let key = Arc::as_ptr(basic) as usize;
                if basic.unary {
                    Ok(unary_vals[&key][a as usize])
                } else {
                    Ok(ground_vals[&key])
                }
            })?;
        }
        Ok(out)
    }
}

/// The demanded elements of `s` in increasing order (`None`: all).
fn demanded(s: &Structure, demand: Option<&[u32]>) -> Vec<u32> {
    demand.map_or_else(|| s.universe().collect(), <[u32]>::to_vec)
}

/// The largest distance bound occurring in a formula (for sizing the
/// removal markers).
pub fn max_dist_bound(f: &Formula) -> u32 {
    match f {
        Formula::DistLe { d, .. } => *d,
        Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => max_dist_bound(g),
        Formula::And(gs) | Formula::Or(gs) => {
            gs.iter().map(|g| max_dist_bound(g)).max().unwrap_or(0)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_guard::{Budget, TripReason};
    use foc_locality::decompose::{decompose_ground, decompose_unary};
    use foc_logic::build::*;
    use foc_structures::gen::{
        bounded_degree, caterpillar, cycle, graph_structure, grid, path, random_tree, star,
        star_chain,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn structures() -> Vec<Structure> {
        let mut rng = StdRng::seed_from_u64(77);
        vec![
            path(12),
            cycle(9),
            star(8),
            grid(4, 3),
            caterpillar(4, 2),
            random_tree(14, &mut rng),
            graph_structure(10, &[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (8, 9)]),
        ]
    }

    fn check_cover_vs_local(cl: &ClTerm, depth: u32) {
        let p = Predicates::standard();
        for s in structures() {
            let mut lev = LocalEvaluator::new(&s, &p);
            let want = lev.eval_clterm(cl).unwrap();
            for threads in [1usize, 2, 8] {
                let mut cev = CoverEvaluator::new(&s, &p);
                cev.config.depth = depth;
                cev.config.direct_threshold = 4;
                cev.config.threads = threads;
                let got = cev.eval_clterm(cl).unwrap();
                match (&want, &got) {
                    (ClValue::Scalar(a), ClValue::Scalar(b)) => {
                        assert_eq!(a, b, "scalar mismatch on order {}", s.order())
                    }
                    (ClValue::Vector(a), ClValue::Vector(b)) => {
                        assert_eq!(a, b, "vector mismatch on order {}", s.order())
                    }
                    other => panic!("shape mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn cover_engine_matches_local_depth1() {
        let y1 = v("y1");
        let y2 = v("y2");
        let cl = decompose_unary(&atom("E", [y1, y2]), &[y1, y2]).unwrap();
        check_cover_vs_local(&cl, 1);
        let cl2 = decompose_unary(&not(atom("E", [y1, y2])), &[y1, y2]).unwrap();
        check_cover_vs_local(&cl2, 1);
    }

    #[test]
    fn cover_engine_matches_local_depth2() {
        let y1 = v("y1");
        let y2 = v("y2");
        let body = and(dist_le(y1, y2, 2), not(eq(y1, y2)));
        let cl = decompose_unary(&body, &[y1, y2]).unwrap();
        check_cover_vs_local(&cl, 2);
    }

    #[test]
    fn cover_engine_ground_terms() {
        let y1 = v("y1");
        let y2 = v("y2");
        let cl = decompose_ground(&not(atom("E", [y1, y2])), &[y1, y2]).unwrap();
        check_cover_vs_local(&cl, 1);
    }

    #[test]
    fn cover_engine_guarded_exists_body() {
        let y1 = v("y1");
        let y2 = v("y2");
        let z = v("z");
        let body = and(
            atom("E", [y1, y2]),
            exists(z, and(atom("E", [y2, z]), not(eq(z, y1)))),
        );
        let cl = decompose_unary(&body, &[y1, y2]).unwrap();
        check_cover_vs_local(&cl, 1);
    }

    #[test]
    fn stats_reflect_cover_usage() {
        let y1 = v("y1");
        let y2 = v("y2");
        let cl = decompose_unary(&atom("E", [y1, y2]), &[y1, y2]).unwrap();
        // The hub makes the one cluster a removal cluster.
        let s = star(36);
        let p = Predicates::standard();
        let mut cev = CoverEvaluator::new(&s, &p);
        cev.config.direct_threshold = 4;
        cev.eval_clterm(&cl).unwrap();
        let stats = cev.stats();
        assert!(stats.covers_built >= 1);
        assert!(stats.clusters >= 1);
        assert!(stats.removals >= 1);
        assert!(stats.peak_cluster >= 1);
    }

    #[test]
    fn memo_cache_is_consulted_and_sound() {
        let y1 = v("y1");
        let y2 = v("y2");
        let cl = decompose_unary(&atom("E", [y1, y2]), &[y1, y2]).unwrap();
        let s = grid(6, 6);
        let p = Predicates::standard();

        let mut plain = CoverEvaluator::new(&s, &p);
        plain.config.direct_threshold = 4;
        let want = plain.eval_clterm(&cl).unwrap();

        let cache = Arc::new(TermCache::default());
        let mut cev = CoverEvaluator::new(&s, &p);
        cev.config.direct_threshold = 4;
        cev.set_cache(cache.clone());
        let first = cev.eval_clterm(&cl).unwrap();
        assert_eq!(first, want, "cached evaluation must not change values");
        assert!(cache.misses() > 0, "first run must populate the cache");

        // A second evaluator sharing the cache answers from memory.
        let hits_before = cache.hits();
        let mut cev2 = CoverEvaluator::new(&s, &p);
        cev2.config.direct_threshold = 4;
        cev2.set_cache(cache.clone());
        let second = cev2.eval_clterm(&cl).unwrap();
        assert_eq!(second, want);
        assert!(cache.hits() > hits_before, "second run must hit the cache");
    }

    /// A random graph of order 6..22 with an explicit demand mask; vertex
    /// 0 is joined to the next `legs` vertices, so that many cases have a
    /// star-shaped hub.
    fn arb_case() -> impl proptest::prelude::Strategy<Value = (Structure, Vec<u32>, usize)> {
        use proptest::prelude::Strategy;
        (
            6u32..22,
            proptest::collection::vec((0u32..22, 0u32..22), 4..40),
            0u32..22,
            proptest::collection::vec(0u32..3, 22..23),
            0usize..4,
        )
            .prop_map(|(n, edges, legs, mask, ti)| {
                let edges: Vec<(u32, u32)> = edges
                    .into_iter()
                    .map(|(a, b)| (a % n, b % n))
                    .chain((1..=legs.min(n - 1)).map(|l| (0, l)))
                    .collect();
                let demand = (0..n).filter(|&a| mask[a as usize] == 0).collect();
                (graph_structure(n, &edges), demand, ti)
            })
    }

    fn demand_terms() -> Vec<ClTerm> {
        let y1 = v("y1");
        let y2 = v("y2");
        let z = v("z");
        vec![
            decompose_unary(&atom("E", [y1, y2]), &[y1, y2]).unwrap(),
            decompose_unary(&and(dist_le(y1, y2, 2), not(eq(y1, y2))), &[y1, y2]).unwrap(),
            decompose_unary(
                &and(
                    atom("E", [y1, y2]),
                    exists(z, and(atom("E", [y2, z]), not(eq(z, y1)))),
                ),
                &[y1, y2],
            )
            .unwrap(),
            decompose_ground(&not(atom("E", [y1, y2])), &[y1, y2]).unwrap(),
        ]
    }

    /// Demanded slots of a cover evaluation equal the local engine's
    /// values, both through the cover (`eval_basic_all`) and through one
    /// removal step on the whole structure (`eval_cluster`, whose hub is
    /// the max-degree element), at threads {1, 2, 8} and depth {1, 2},
    /// with and without a memo shared across the runs (and across the
    /// demands the caller tries, so entries for one demand must never
    /// answer another).
    fn check_demand(s: &Structure, cl: &ClTerm, demand: &[u32], cache: &Arc<TermCache>) {
        let p = Predicates::standard();
        for b in cl.basics() {
            let want = LocalEvaluator::new(s, &p).eval_basic_all(&b).unwrap();
            for threads in [1usize, 2, 8] {
                for depth in [1u32, 2] {
                    for memo in [false, true] {
                        let mut cev = CoverEvaluator::new(s, &p);
                        cev.config = CoverConfig {
                            depth,
                            direct_threshold: 2,
                            threads,
                        };
                        if memo {
                            cev.set_cache(cache.clone());
                        }
                        let via_cover = cev
                            .eval_basic_all(&b, s, depth, Some(demand), None)
                            .unwrap();
                        let via_removal =
                            cev.eval_cluster(&b, s, depth, Some(demand), None).unwrap();
                        for &a in demand {
                            let a = a as usize;
                            assert_eq!(
                                (via_cover[a], via_removal[a]),
                                (want[a], want[a]),
                                "element {a} of demand {demand:?} on order {} \
                                 (threads {threads}, depth {depth}, memo {memo}, body {})",
                                s.order(),
                                b.body
                            );
                        }
                    }
                }
            }
        }
    }

    fn hub(s: &Structure) -> u32 {
        let g = s.gaifman();
        (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap_or(0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24, ..proptest::prelude::ProptestConfig::default() })]

        #[test]
        fn demanded_cover_values_match_local(case in arb_case()) {
            let (s, demand, ti) = case;
            let cl = &demand_terms()[ti];
            let d = hub(&s);
            let with_hub: Vec<u32> = {
                let mut w = demand.clone();
                if let Err(i) = w.binary_search(&d) {
                    w.insert(i, d);
                }
                w
            };
            let without_hub: Vec<u32> = demand.iter().copied().filter(|&a| a != d).collect();
            let all: Vec<u32> = s.universe().collect();
            // Equal length and first element, different sets; the full
            // demand comes last, since its vector then serves every demand.
            let (pair_a, pair_b) = (vec![0, 1], vec![0, 2]);
            let cache = Arc::new(TermCache::default());
            for dm in [&pair_a, &pair_b, &demand, &with_hub, &without_hub, &Vec::new(), &all] {
                check_demand(&s, cl, dm, &cache);
            }
        }
    }

    /// The top-level cover radius of a basic term.
    fn cover_radius(b: &BasicClTerm) -> u32 {
        u32::try_from(LocalEvaluator::exploration_radius(b)).unwrap()
    }

    /// How many clusters of the top-level cover of `b` on `s` the
    /// evaluator answers directly and how many go through removal.
    fn cluster_kinds(cev: &CoverEvaluator<'_>, s: &Structure, b: &BasicClTerm) -> (usize, usize) {
        let cover = cover_structure(s, cover_radius(b));
        let removal = (0..cover.len())
            .filter(|&i| {
                cover
                    .prebuilt(i)
                    .is_some_and(|c| cev.needs_removal(s, c, cev.config.depth))
            })
            .count();
        (cover.len() - removal, removal)
    }

    /// Three stars of 60 leaves whose hubs are 24 apart: no cover
    /// cluster at the test terms' radii holds two hubs.
    fn three_stars() -> Structure {
        star_chain(3, 60, 24)
    }

    /// The default configuration on order-600 inputs: the hubless classes
    /// (grid, tree, degree ≤ 3) run no removal, the hub inputs (a star
    /// and three chained stars) send their hub clusters through removal
    /// and answer the rest in the batch, and every value equals the
    /// local engine's at threads {1, 2}.
    #[test]
    fn default_config_matches_local_with_direct_and_removal_clusters() {
        let mut rng = StdRng::seed_from_u64(600);
        let p = Predicates::standard();
        let inputs = [
            (grid(24, 25), false),
            (random_tree(600, &mut rng), false),
            (bounded_degree(600, 3, 1800, &mut rng), false),
            (star(600), true),
            (three_stars(), true),
        ];
        let (mut direct, mut removal) = (0usize, 0usize);
        for (s, hubs) in inputs {
            // Radius-0 basics have singleton clusters, so only some basics
            // of a hub input have a removal cluster.
            let (mut planned, mut performed) = (0usize, 0u64);
            for cl in demand_terms() {
                let cev = CoverEvaluator::new(&s, &p);
                for b in cl.basics() {
                    let (d, r) = cluster_kinds(&cev, &s, &b);
                    direct += d;
                    removal += r;
                    planned += r;
                }
                let want = LocalEvaluator::new(&s, &p).eval_clterm(&cl).unwrap();
                for threads in [1usize, 2] {
                    let mut cev = CoverEvaluator::new(&s, &p);
                    cev.config.threads = threads;
                    assert_eq!(
                        cev.eval_clterm(&cl).unwrap(),
                        want,
                        "order {}, threads {threads}",
                        s.order()
                    );
                    performed += cev.stats().removals;
                }
            }
            assert_eq!(
                (planned > 0, performed > 0),
                (hubs, hubs),
                "order {}: {planned} removal clusters, {performed} removals",
                s.order()
            );
        }
        assert!(
            direct > 0 && removal > 0,
            "{direct} direct, {removal} removal"
        );
    }

    /// The cases of the demand proptest at its configuration
    /// (`direct_threshold` 2): a star-shaped input has both cluster kinds,
    /// and its demanded values match the local engine's.
    #[test]
    fn star_shaped_demand_case_has_both_cluster_kinds() {
        let s = three_stars();
        let p = Predicates::standard();
        let mut cev = CoverEvaluator::new(&s, &p);
        cev.config.direct_threshold = 2;
        let cache = Arc::new(TermCache::default());
        let demand: Vec<u32> = s.universe().filter(|a| a % 3 != 1).collect();
        let (mut direct, mut removal) = (0usize, 0usize);
        for cl in demand_terms() {
            for b in cl.basics() {
                let (d, r) = cluster_kinds(&cev, &s, &b);
                direct += d;
                removal += r;
            }
            check_demand(&s, &cl, &demand, &cache);
        }
        assert!(
            direct > 0 && removal > 0,
            "{direct} direct, {removal} removal"
        );
    }

    /// A fuel budget that runs out inside the batch of directly answered
    /// clusters reports the cover stage at every thread count, not the
    /// ball enumeration it happened to be in.
    #[test]
    fn batch_trips_report_the_cover_phase() {
        let y1 = v("y1");
        let y2 = v("y2");
        let cl = decompose_unary(&atom("E", [y1, y2]), &[y1, y2]).unwrap();
        let b = cl.basics().into_iter().next().unwrap();
        let s = grid(16, 16);
        let p = Predicates::standard();
        // Every cluster of this cover is answered in the batch, so the
        // checks after cover construction are all the batch's.
        let cev = CoverEvaluator::new(&s, &p);
        assert_eq!(cluster_kinds(&cev, &s, &b).1, 0);
        for threads in [1usize, 2] {
            let run = |fuel: u64| {
                let guard = Budget::unlimited().with_fuel(fuel).arm();
                let mut cev = CoverEvaluator::new(&s, &p);
                cev.config.threads = threads;
                cev.set_guard(guard.clone());
                (
                    cev.eval_basic_all(&b, &s, 1, None, None),
                    guard.fuel_spent(),
                )
            };
            let (full, spent) = run(u64::MAX);
            full.unwrap();
            match run(spent / 2).0 {
                Err(foc_locality::LocalityError::Eval(foc_eval::EvalError::Interrupted(i))) => {
                    assert_eq!((i.reason, i.phase), (TripReason::Fuel, Phase::Cover));
                }
                other => panic!("threads {threads}: expected a fuel trip, got {other:?}"),
            }
        }
    }

    /// A panic inside a removal cluster surfaces as the same
    /// `WorkerPanicked` at threads {1, 2}: its `item_index` is the
    /// cluster's index in the cover, not its place in the fan-out.
    #[test]
    fn removal_cluster_panics_report_the_cluster_index() {
        let s = three_stars();
        let p = Predicates::standard();
        let probe = CoverEvaluator::new(&s, &p);
        let (b, idx) = demand_terms()
            .iter()
            .flat_map(|cl| cl.basics())
            .find_map(|b| {
                let cover = cover_structure(&s, cover_radius(&b));
                let removal: Vec<usize> = (0..cover.len())
                    .filter(|&i| {
                        cover
                            .prebuilt(i)
                            .is_some_and(|c| probe.needs_removal(&s, c, probe.config.depth))
                    })
                    .collect();
                let last = removal.len().checked_sub(1)?;
                (removal[last] != last).then(|| (b, removal[last]))
            })
            .expect("a removal cluster whose cover index differs from its position");
        for threads in [1usize, 2] {
            let mut cev = CoverEvaluator::new(&s, &p);
            cev.config.threads = threads;
            cev.panic_cluster = Some(idx);
            match cev.eval_basic_all(&b, &s, cev.config.depth, None, None) {
                Err(foc_locality::LocalityError::WorkerPanicked {
                    payload,
                    item_index,
                }) => assert_eq!(
                    (payload.as_str(), item_index),
                    ("injected cluster fault", idx),
                    "threads {threads}"
                ),
                other => panic!("threads {threads}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn demand_skips_work_outside_it() {
        // One demanded element: far fewer balls than the full vector.
        let y1 = v("y1");
        let y2 = v("y2");
        let cl = decompose_unary(&and(dist_le(y1, y2, 2), not(eq(y1, y2))), &[y1, y2]).unwrap();
        let b = cl.basics().into_iter().next().unwrap();
        let s = grid(12, 12);
        let p = Predicates::standard();
        let balls = |demand: Option<&[u32]>| {
            let root = foc_obs::Observer::disabled();
            let cev = CoverEvaluator::new(&s, &p);
            let parent = root.handle();
            cev.eval_basic_all(&b, &s, 1, demand, Some(&parent))
                .unwrap();
            root.metrics().snapshot().counter(names::LOCAL_BALLS)
        };
        let (one, full) = (balls(Some(&[70])), balls(None));
        assert!(
            one > 0 && one * 20 < full,
            "one element: {one} balls, full: {full}"
        );
    }

    #[test]
    fn max_dist_bound_walks() {
        let f = and(dist_le(v("a"), v("b"), 5), not(dist_le(v("a"), v("c"), 9)));
        assert_eq!(max_dist_bound(&f), 9);
    }
}
