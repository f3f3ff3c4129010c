//! The ball-enumeration kernel behind [`LocalEvaluator`]: Remark 6.3's
//! per-element count `u^A[a]`, planned once per basic cl-term and
//! structure, then run per element without heap allocation.
//!
//! * A [`BallPlan`] fixes everything that does not depend on the element:
//!   the BFS order of the tuple positions along `G`, each position's
//!   δ-pattern against the earlier ones, its candidate sources (positive
//!   guard atoms with an assigned companion, else an adjacent position's
//!   ball), and the body compiled to a small tree over tuple positions.
//! * A [`BallScratch`] holds one [`DistLayer`] per tuple position that
//!   later positions are checked against (epoch-stamped dense distances,
//!   so every δ-check is an array read) plus the candidate buffers. One
//!   lives with each worker thread ([`with_scratch`]) and is reused
//!   across elements, terms and cover clusters.
//! * A body with quantifiers or numerical predicates, or one that does
//!   not resolve against the structure, is checked per tuple by the
//!   reference evaluator instead. The enumeration is the same either
//!   way, and so are the guard checks (one per candidate).
//!
//! [`LocalEvaluator`]: crate::LocalEvaluator

use std::cell::Cell;

use foc_eval::{Assignment, EvalError, NaiveEvaluator};
use foc_guard::{Guard, Phase};
use foc_logic::{Formula, Predicates, Var};
use foc_structures::{BfsScratch, DistLayer, Graph, Relation, Structure};

use crate::clterm::BasicClTerm;
use crate::error::{LocalityError, Result};
use crate::local_eval::Tally;

/// Atoms up to this arity assemble their argument tuple on the stack.
const STACK_ARITY: usize = 8;

/// A quantifier-free body compiled over tuple positions.
enum Body<'s> {
    Const(bool),
    Eq(usize, usize),
    Atom {
        rel: &'s Relation,
        args: Box<[usize]>,
    },
    /// `dist(from, to) ≤ d`. `layered` iff `from` owns a distance layer
    /// whose cap covers `d`; otherwise a bounded BFS answers it.
    Dist {
        from: usize,
        to: usize,
        d: u32,
        layered: bool,
    },
    Not(Box<Body<'s>>),
    And(Vec<Body<'s>>),
    Or(Vec<Body<'s>>),
}

/// What a complete tuple is checked against.
enum Check<'s> {
    Compiled(Body<'s>),
    Naive,
}

/// How one argument of a guard atom relates to the tuple.
#[derive(Clone, Copy)]
enum Arg {
    /// The position being extended.
    Target,
    /// An assigned tuple position.
    Bound(usize),
    /// Unconstrained (unassigned, or shadowed by a quantifier).
    Free,
}

/// A positive atom conjunct mentioning a position: the values its rows
/// hold there are the position's only possible values.
struct Source<'s> {
    rel: &'s Relation,
    args: Box<[Arg]>,
    /// The first argument bound to an assigned position, which drives an
    /// index lookup, and that position; `None` scans every row.
    key: Option<(usize, usize)>,
}

/// One tuple position after the first, in BFS order.
struct Step<'s> {
    node: usize,
    /// Per earlier depth: is that position a `G`-neighbour of `node`? δ
    /// holds iff closeness matches adjacency at every earlier depth.
    adjacent: Vec<bool>,
    /// The first earlier depth adjacent to `node`; its ball supplies the
    /// candidates when no guard atom does.
    anchor: usize,
    sources: Vec<Source<'s>>,
}

/// Everything about evaluating one basic cl-term on one structure that
/// does not depend on the element.
pub(crate) struct BallPlan<'p, 's> {
    term: &'p BasicClTerm,
    a: &'s Structure,
    preds: &'p Predicates,
    graph: &'s Graph,
    /// The δ bound `2r+1`: the cap of every distance layer.
    cap: u32,
    /// Tuple positions in BFS order along `G`; `order[0] = 0`.
    order: Vec<usize>,
    /// `steps[i]` extends depth `i + 1`.
    steps: Vec<Step<'s>>,
    check: Check<'s>,
}

impl<'p, 's> BallPlan<'p, 's> {
    /// Plans `b` over `a`. With `atom_candidates` off, every position
    /// draws its candidates from a ball (the E11 ablation).
    pub(crate) fn new(
        b: &'p BasicClTerm,
        a: &'s Structure,
        preds: &'p Predicates,
        atom_candidates: bool,
    ) -> BallPlan<'p, 's> {
        // `BasicClTerm::new` validated the bound via `checked_delta_bound`.
        let cap =
            u32::try_from(b.delta_bound()).unwrap_or_else(|_| unreachable!("delta bound fits u32"));
        let order = b.graph.bfs_order();
        debug_assert_eq!(order[0], 0);
        let k = order.len();
        let steps = (1..k)
            .map(|idx| {
                let node = order[idx];
                let adjacent: Vec<bool> = order[..idx]
                    .iter()
                    .map(|&m| b.graph.edge(node, m))
                    .collect();
                let anchor = adjacent
                    .iter()
                    .position(|&adj| adj)
                    .unwrap_or_else(|| unreachable!("BFS order guarantees an earlier neighbour"));
                let mut sources = Vec::new();
                if atom_candidates {
                    let bound = |v: Var| order[..idx].iter().copied().find(|&p| b.vars[p] == v);
                    collect_sources(
                        &b.body,
                        b.vars[node],
                        &bound,
                        a,
                        &mut Vec::new(),
                        &mut sources,
                    );
                    // Without an assigned companion the ball is the
                    // better source.
                    sources.retain(|src| src.key.is_some());
                }
                Step {
                    node,
                    adjacent,
                    anchor,
                    sources,
                }
            })
            .collect();
        // Every position but the last in BFS order owns a distance layer.
        let mut layered = vec![true; k];
        layered[order[k - 1]] = false;
        let check =
            compile(&b.body, &b.vars, a, &layered, cap).map_or(Check::Naive, Check::Compiled);
        BallPlan {
            term: b,
            a,
            preds,
            graph: a.gaifman(),
            cap,
            order,
            steps,
            check,
        }
    }

    /// `true` iff tuples are checked by the compiled body, not by the
    /// reference evaluator.
    #[cfg(test)]
    pub(crate) fn is_compiled(&self) -> bool {
        matches!(self.check, Check::Compiled(_))
    }

    /// `u^A[a]`: the number of extensions `(a₂,…,a_k)` of `y₁ = a`
    /// satisfying `ψ ∧ δ_G,2r+1`. Candidates come from distance layers
    /// of cap `2r+1` around assigned values, so only `N_R(a)` is touched
    /// (Lemma 6.1).
    pub(crate) fn count_at(
        &self,
        a: u32,
        scratch: &mut BallScratch,
        guard: &Guard,
        tally: &mut Tally<'_>,
    ) -> Result<i64> {
        let k = self.order.len();
        scratch.fit(k);
        scratch.vals[0] = a;
        let mut run = Run {
            plan: self,
            s: scratch,
            guard,
            tally,
            naive: None,
            count: 0,
        };
        if k > 1 {
            run.s.layers[0].fill(self.graph, a, self.cap);
            run.tally.note_ball(run.s.layers[0].ball().len() as u64);
            run.s.slot[0] = 0;
        }
        run.extend(1)?;
        Ok(run.count)
    }
}

/// Per-worker buffers of the kernel, indexed by depth (layers, candidate
/// lists) or by tuple position (values, layer slots).
#[derive(Default)]
pub(crate) struct BallScratch {
    layers: Vec<DistLayer>,
    /// The value at each tuple position.
    vals: Vec<u32>,
    /// Per position: the depth whose layer holds the distances from its
    /// value (an earlier depth when the value repeats).
    slot: Vec<usize>,
    cands: Vec<Vec<u32>>,
    tmp: Vec<u32>,
    bfs: BfsScratch,
}

impl BallScratch {
    fn fit(&mut self, k: usize) {
        if self.vals.len() < k {
            self.layers.resize_with(k, DistLayer::new);
            self.vals.resize(k, 0);
            self.slot.resize(k, 0);
            self.cands.resize_with(k, Vec::new);
        }
    }
}

/// Writes into `best` the smallest candidate list among `sources` (the
/// first one on ties); `tmp` is scratch. `sources` must not be empty.
fn smallest(sources: &[Source<'_>], vals: &[u32], best: &mut Vec<u32>, tmp: &mut Vec<u32>) {
    sources[0].fill(vals, best);
    for src in &sources[1..] {
        src.fill(vals, tmp);
        if tmp.len() < best.len() {
            std::mem::swap(tmp, best);
        }
    }
}

/// The *support* of `y₁`: if the body has positive atom conjuncts
/// containing `y₁`, only the values they hold at `y₁`'s positions can
/// have a non-zero count; the smallest such set, sorted. `None` means
/// "no restriction".
pub(crate) fn support(b: &BasicClTerm, a: &Structure) -> Option<Vec<u32>> {
    let mut sources = Vec::new();
    collect_sources(
        &b.body,
        b.vars[0],
        &|_| None,
        a,
        &mut Vec::new(),
        &mut sources,
    );
    if sources.is_empty() {
        return None;
    }
    let mut best = Vec::new();
    smallest(&sources, &[], &mut best, &mut Vec::new());
    Some(best)
}

thread_local! {
    static SCRATCH: Cell<BallScratch> = Cell::new(BallScratch::default());
}

/// Runs `f` with this thread's kernel scratch. A nested call gets a
/// fresh one; a panic in `f` drops the scratch, which is rebuilt lazily.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut BallScratch) -> R) -> R {
    let mut scratch = SCRATCH.with(Cell::take);
    let r = f(&mut scratch);
    SCRATCH.with(|c| c.set(scratch));
    r
}

/// One element's backtracking search.
struct Run<'r, 'p, 's, 'o> {
    plan: &'r BallPlan<'p, 's>,
    s: &'r mut BallScratch,
    guard: &'r Guard,
    tally: &'r mut Tally<'o>,
    /// The reference evaluator for uncompiled bodies, made on first use.
    naive: Option<(NaiveEvaluator<'r>, Assignment)>,
    count: i64,
}

impl Run<'_, '_, '_, '_> {
    fn extend(&mut self, idx: usize) -> Result<()> {
        let plan = self.plan;
        let k = plan.order.len();
        if idx == k {
            return self.leaf();
        }
        let step = &plan.steps[idx - 1];
        // Values outside a guard atom's rows falsify the body, and values
        // outside the anchor's ball falsify δ, so either candidate set
        // is sound.
        let from_atoms = !step.sources.is_empty();
        let anchor = self.s.slot[plan.order[step.anchor]];
        let len = if from_atoms {
            let s = &mut *self.s;
            smallest(&step.sources, &s.vals, &mut s.cands[idx], &mut s.tmp);
            s.cands[idx].len()
        } else {
            self.s.layers[anchor].ball().len()
        };
        'cand: for i in 0..len {
            let cand = if from_atoms {
                self.s.cands[idx][i]
            } else {
                self.s.layers[anchor].ball()[i]
            };
            self.guard.check(Phase::BallEnum)?;
            for (j, &adjacent) in step.adjacent.iter().enumerate() {
                let layer = &self.s.layers[self.s.slot[plan.order[j]]];
                if layer.get(cand).is_some() != adjacent {
                    continue 'cand;
                }
            }
            // Later depths check δ against this value, so it needs a
            // layer — unless an earlier depth holds the same value.
            if idx + 1 < k {
                let repeat = (0..idx).find(|&j| self.s.vals[plan.order[j]] == cand);
                self.s.slot[step.node] = match repeat {
                    Some(j) => self.s.slot[plan.order[j]],
                    None => {
                        self.s.layers[idx].fill(plan.graph, cand, plan.cap);
                        self.tally.note_ball(self.s.layers[idx].ball().len() as u64);
                        idx
                    }
                };
            }
            self.s.vals[step.node] = cand;
            self.extend(idx + 1)?;
        }
        Ok(())
    }

    /// Checks the body at the complete tuple.
    fn leaf(&mut self) -> Result<()> {
        self.tally.note_tuple();
        let plan = self.plan;
        let k = plan.order.len();
        let holds = match &plan.check {
            Check::Compiled(body) => {
                let s = &mut *self.s;
                body.holds(&s.vals[..k], &s.slot, &s.layers, plan.graph, &mut s.bfs)
            }
            Check::Naive => {
                let guard = self.guard;
                let (ev, env) = self.naive.get_or_insert_with(|| {
                    let mut ev = NaiveEvaluator::new(plan.a, plan.preds);
                    ev.set_guard(guard.clone());
                    (ev, Assignment::new())
                });
                for (&v, &x) in plan.term.vars.iter().zip(&self.s.vals) {
                    env.bind(v, x);
                }
                ev.check(&plan.term.body, env)?
            }
        };
        if holds {
            self.count = self
                .count
                .checked_add(1)
                .ok_or(LocalityError::Eval(EvalError::Overflow))?;
        }
        Ok(())
    }
}

impl Body<'_> {
    fn holds(
        &self,
        vals: &[u32],
        slot: &[usize],
        layers: &[DistLayer],
        g: &Graph,
        bfs: &mut BfsScratch,
    ) -> bool {
        match self {
            Body::Const(b) => *b,
            Body::Eq(p, q) => vals[*p] == vals[*q],
            Body::Atom { rel, args } => {
                if args.len() <= STACK_ARITY {
                    let mut buf = [0u32; STACK_ARITY];
                    for (slot, &p) in buf.iter_mut().zip(args.iter()) {
                        *slot = vals[p];
                    }
                    rel.contains(&buf[..args.len()])
                } else {
                    rel.contains(&args.iter().map(|&p| vals[p]).collect::<Vec<_>>())
                }
            }
            Body::Dist {
                from,
                to,
                d,
                layered,
            } => {
                if *layered {
                    layers[slot[*from]].get(vals[*to]).is_some_and(|x| x <= *d)
                } else {
                    g.dist_le(vals[*from], vals[*to], *d, bfs)
                }
            }
            Body::Not(inner) => !inner.holds(vals, slot, layers, g, bfs),
            Body::And(parts) => parts.iter().all(|p| p.holds(vals, slot, layers, g, bfs)),
            Body::Or(parts) => parts.iter().any(|p| p.holds(vals, slot, layers, g, bfs)),
        }
    }
}

/// Compiles a quantifier-free body over the positions of `vars`; `None`
/// for a quantifier, a numerical predicate, a variable outside `vars`, or
/// an atom that does not resolve against `a`'s signature.
fn compile<'s>(
    f: &Formula,
    vars: &[Var],
    a: &'s Structure,
    layered: &[bool],
    cap: u32,
) -> Option<Body<'s>> {
    let pos = |v: Var| vars.iter().position(|&w| w == v);
    let all = |gs: &[std::sync::Arc<Formula>]| {
        gs.iter()
            .map(|g| compile(g, vars, a, layered, cap))
            .collect::<Option<Vec<_>>>()
    };
    Some(match f {
        Formula::Bool(b) => Body::Const(*b),
        Formula::Eq(x, y) => Body::Eq(pos(*x)?, pos(*y)?),
        Formula::Atom(at) => Body::Atom {
            rel: a.relation(at.rel).filter(|r| r.arity() == at.args.len())?,
            args: at.args.iter().map(|&v| pos(v)).collect::<Option<_>>()?,
        },
        Formula::DistLe { x, y, d } => {
            let (x, y) = (pos(*x)?, pos(*y)?);
            let (from, to) = if layered[x] { (x, y) } else { (y, x) };
            Body::Dist {
                from,
                to,
                d: *d,
                layered: layered[from] && *d <= cap,
            }
        }
        Formula::Not(g) => Body::Not(Box::new(compile(g, vars, a, layered, cap)?)),
        Formula::And(gs) => Body::And(all(gs)?),
        Formula::Or(gs) => Body::Or(all(gs)?),
        Formula::Exists(..) | Formula::Forall(..) | Formula::Pred { .. } => return None,
    })
}

/// Walks the body's conjunctive structure (through foreign existential
/// binders) for positive atoms that mention `var`; `bound` maps the
/// assigned variables to their tuple positions.
fn collect_sources<'s>(
    f: &Formula,
    var: Var,
    bound: &impl Fn(Var) -> Option<usize>,
    a: &'s Structure,
    shadowed: &mut Vec<Var>,
    out: &mut Vec<Source<'s>>,
) {
    match f {
        Formula::And(parts) => {
            for p in parts {
                collect_sources(p, var, bound, a, shadowed, out);
            }
        }
        Formula::Exists(z, g) if *z != var => {
            shadowed.push(*z);
            collect_sources(g, var, bound, a, shadowed, out);
            shadowed.pop();
        }
        Formula::Atom(at) if at.args.contains(&var) => {
            let args: Box<[Arg]> = at
                .args
                .iter()
                .map(|&v| match v {
                    v if v == var => Arg::Target,
                    v if shadowed.contains(&v) => Arg::Free,
                    v => bound(v).map_or(Arg::Free, Arg::Bound),
                })
                .collect();
            let key = args.iter().enumerate().find_map(|(i, arg)| match *arg {
                Arg::Bound(p) => Some((i, p)),
                _ => None,
            });
            let Some(rel) = a.relation(at.rel).filter(|r| r.arity() == args.len()) else {
                return;
            };
            out.push(Source { rel, args, key });
        }
        _ => {}
    }
}

impl Source<'_> {
    /// Writes the sorted, distinct candidate values into `out`.
    fn fill(&self, vals: &[u32], out: &mut Vec<u32>) {
        out.clear();
        let mut scan = |row: &[u32]| {
            let mut cand = None;
            for (arg, &x) in self.args.iter().zip(row) {
                match *arg {
                    Arg::Target => match cand {
                        None => cand = Some(x),
                        Some(c) if c == x => {}
                        Some(_) => return,
                    },
                    Arg::Bound(p) if vals[p] != x => return,
                    Arg::Bound(_) | Arg::Free => {}
                }
            }
            out.extend(cand);
        };
        match self.key {
            Some((0, p)) => self.rel.rows_with_first(vals[p]).for_each(&mut scan),
            Some((key, p)) => self.rel.rows_with_value_at(key, vals[p]).for_each(scan),
            None => self.rel.rows().for_each(scan),
        }
        out.sort_unstable();
        out.dedup();
    }
}
