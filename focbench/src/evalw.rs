//! The `eval-local` and `eval-cover` workloads: five FOC1(P) queries
//! (two sentences, three counting terms) on three structure classes,
//! one fresh session per (query, structure) pair, with a small stream
//! of delta commits between passes.
//!
//! Structures are generated from the seed, serialised with
//! `write_structure` and loaded back with `parse_structure` — the path
//! `foc eval file.foc` takes. Every answer is checked: `eval-local`
//! against counts taken directly over the Gaifman graph, `eval-cover`
//! against the local engine on the same inputs (which is itself checked
//! against the graph counts).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use foc_core::{EngineKind, Evaluator, EvaluatorBuilder};
use foc_covers::cover_structure;
use foc_locality::decompose_ground;
use foc_logic::parse::{parse_formula, parse_term};
use foc_logic::Term;
use foc_obs::{names, MemorySink, MetricsSnapshot, Sink};
use foc_structures::gen::{bounded_degree, grid, random_tree};
use foc_structures::io::{parse_structure, write_structure};
use foc_structures::{BfsScratch, DeltaStructure, Graph, Structure, TupleOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::{Speed, Yardstick};
use crate::report::{json_str, median, peak_rss_mib, quantile, ratio, sorted, Metrics, Outcome};
use crate::spans::{covered, self_times, SpanRec};
use crate::Args;

/// A query of the workload: sentences are model-checked, terms counted.
struct Query {
    label: &'static str,
    text: &'static str,
    sentence: bool,
}

const QUERIES: [Query; 5] = [
    Query {
        label: "e3",
        text: "@even(#(x,y). !(dist(x,y) <= 2)) & exists x. #(y). (E(x,y) & #(z). E(y,z) = 1) >= 2",
        sentence: true,
    },
    Query {
        label: "nested",
        text: "exists x. (#(y). E(x,y) = #(z). (#(w). E(z,w) = 2))",
        sentence: true,
    },
    Query {
        label: "non_edges",
        text: "#(x,y). (!(E(x,y)) & !(x = y))",
        sentence: false,
    },
    Query {
        label: "far_pairs",
        text: "#(x,y). !(dist(x,y) <= 2)",
        sentence: false,
    },
    Query {
        label: "deg1_pairs",
        text: "#(x,y). (E(x,y) & #(z). E(y,z) = 1)",
        sentence: false,
    },
];

/// Index of the far-pairs term and of the grid class: the pair whose
/// cover-vs-local gap the ROADMAP measured by hand.
const FAR_PAIRS: usize = 3;
const GRID: usize = 1;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Repetitions behind the local-engine reference walls (the base of
/// `covers.gap_vs_local`) and the direct layer timings; their median
/// counts.
const TIMING_REPS: usize = 3;
/// Edges in the toggle pool of each structure.
const TOGGLE_POOL: usize = 64;
/// A fuel allowance no query comes near: arming it makes the guard
/// count its checks without ever tripping.
const FUEL_NEVER: u64 = u64::MAX / 4;

/// The two evaluation workloads differ only in these settings.
pub struct Spec {
    pub kind: EngineKind,
    pub threads: usize,
    tree_n: u32,
    grid_side: u32,
    deg3_n: u32,
    /// Delete/re-insert pairs per structure per pass.
    toggles: usize,
}

pub const LOCAL: Spec = Spec {
    kind: EngineKind::Local,
    threads: 1,
    tree_n: 20_000,
    grid_side: 144,
    deg3_n: 20_000,
    toggles: 16,
};

pub const COVER: Spec = Spec {
    kind: EngineKind::Cover,
    threads: 2,
    tree_n: 1_024,
    grid_side: 32,
    deg3_n: 1_024,
    toggles: 48,
};

const CLASSES: [&str; 3] = ["random_tree", "grid", "degree3"];

/// The serialised inputs, generated from the seed.
fn generate(spec: &Spec, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_tree(spec.tree_n, &mut rng);
    let deg3 = bounded_degree(spec.deg3_n, 3, 3 * spec.deg3_n as usize, &mut rng);
    [tree, grid(spec.grid_side, spec.grid_side), deg3]
        .iter()
        .map(write_structure)
        .collect()
}

/// One loaded input: the delta-maintained structure plus the symmetric
/// edges the write stream toggles.
struct Loaded {
    delta: DeltaStructure,
    toggles: Vec<(u32, u32)>,
}

/// Loads every input the way `foc eval file.foc` does, and forces the
/// lazily built Gaifman graph so no query pays for it.
fn load(texts: &[String]) -> Vec<Structure> {
    texts
        .iter()
        .map(|t| {
            let s = parse_structure(t).expect("generated structures parse");
            let _ = s.gaifman();
            s
        })
        .collect()
}

/// Answers computed directly over the Gaifman graph (sentences as 0/1),
/// in `QUERIES` order.
fn graph_answers(g: &Graph) -> [i64; 5] {
    let n = i64::from(g.n());
    let deg: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
    let mut scratch = BfsScratch::new();
    let near: i64 = (0..g.n())
        .map(|v| g.ball(&[v], 2, &mut scratch).len() as i64)
        .sum();
    let far = n * n - near;
    let deg1 = deg.iter().filter(|&&d| d == 1).count() as i64;
    let deg2 = deg.iter().filter(|&&d| d == 2).count();
    let hub = (0..g.n()).any(|v| {
        g.neighbors(v)
            .iter()
            .filter(|&&w| deg[w as usize] == 1)
            .count()
            >= 2
    });
    let e3 = far % 2 == 0 && hub;
    let nested = deg.contains(&deg2);
    [
        i64::from(e3),
        i64::from(nested),
        n * (n - 1) - 2 * g.num_edges() as i64,
        far,
        deg1,
    ]
}

/// What one query call returned and cost.
struct Call {
    value: Result<i64, String>,
    start: Instant,
    wall: f64,
    parse: f64,
    registry: MetricsSnapshot,
    spans: Vec<SpanRec>,
    fuel: u64,
}

/// Parses and evaluates one query in a fresh session: the unit the
/// end-to-end times sum.
fn call(ev: &Evaluator, a: &Structure, q: &Query, sink: Option<&MemorySink>) -> Call {
    let t0 = Instant::now();
    let parsed = if q.sentence {
        parse_formula(q.text).map(Ok)
    } else {
        parse_term(q.text).map(Err)
    };
    let parse = t0.elapsed().as_secs_f64();
    let (value, registry, fuel) = {
        let mut session = ev.session(a);
        let value = match parsed {
            Ok(Ok(f)) => session
                .check_sentence(&f)
                .map(i64::from)
                .map_err(|e| e.to_string()),
            Ok(Err(t)) => session.eval_ground(&t).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        (
            value,
            session.observer().metrics().snapshot(),
            session.fuel_spent(),
        )
    };
    let wall = t0.elapsed().as_secs_f64();
    let spans = sink.map_or_else(Vec::new, |s| s.spans().iter().map(SpanRec::from).collect());
    Call {
        value,
        start: t0,
        wall,
        parse,
        registry,
        spans,
        fuel,
    }
}

/// Registry totals merged across calls: counters summed, gauges maxed,
/// histogram buckets summed.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (Vec<u64>, Vec<u64>)>,
}

impl Registry {
    fn add(&mut self, s: &MetricsSnapshot) {
        for (k, v) in &s.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &s.gauges {
            let g = self.gauges.entry(k.clone()).or_default();
            *g = (*g).max(*v);
        }
        for (k, h) in &s.histograms {
            let e = self
                .histograms
                .entry(k.clone())
                .or_insert_with(|| (h.bounds.clone(), vec![0; h.counts.len()]));
            for (acc, c) in e.1.iter_mut().zip(&h.counts) {
                *acc += c;
            }
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0) as f64
    }

    /// Largest over smallest occupied bucket bound of a histogram (the
    /// registry keeps power-of-two buckets, not raw observations).
    fn spread(&self, name: &str) -> f64 {
        let Some((bounds, counts)) = self.histograms.get(name) else {
            return 0.0;
        };
        let bound = |i: usize| bounds.get(i).or(bounds.last()).copied().unwrap_or(1) as f64;
        let occupied: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
        match (occupied.first(), occupied.last()) {
            (Some(&lo), Some(&hi)) => bound(hi) / bound(lo),
            _ => 0.0,
        }
    }
}

/// Start and seconds of repeated timings.
type Timings = Vec<(Instant, f64)>;

/// One query call, as timed.
struct CallRec {
    pair: (usize, usize),
    sentence: bool,
    start: Instant,
    wall: f64,
    parse: f64,
    /// Wall seconds during which some engine span was open (traced).
    open: f64,
    balls: f64,
}

/// Everything one pass over the (structure, query) matrix measured.
struct Pass {
    start: Instant,
    wall: f64,
    calls: Vec<CallRec>,
    /// Start and seconds of every delta commit.
    writes: Vec<(Instant, f64)>,
    registry: Registry,
    self_ns: BTreeMap<String, u64>,
    spans: usize,
    /// Radii the traced `cover` spans report.
    radii: BTreeSet<u32>,
    fuel: u64,
    attempted: u64,
    failed: u64,
}

impl Pass {
    /// Reference seconds per measured second over this pass.
    fn factor(&self, sp: &Speed) -> f64 {
        ratio(sp.scale(self.start, self.wall), self.wall)
    }

    /// Scaled summed wall time of the sentence (or term) calls.
    fn summed(&self, sp: &Speed, sentence: bool) -> f64 {
        self.calls
            .iter()
            .filter(|c| c.sentence == sentence)
            .map(|c| sp.scale(c.start, c.wall))
            .sum()
    }
}

/// What every pass needs: the workload, its inputs and answers, and
/// the yardstick the passes sample.
struct Runner<'a> {
    spec: &'a Spec,
    builder: EvaluatorBuilder,
    loaded: Vec<Loaded>,
    expected: Vec<[i64; 5]>,
    ys: Yardstick,
    passes_run: usize,
}

impl Runner<'_> {
    /// Runs the delete/re-insert stream on every structure, then every
    /// query on the resulting snapshots.
    fn run_pass(&mut self, traced: bool) -> Pass {
        let (spec, builder, expected, ys) =
            (self.spec, &self.builder, &self.expected, &mut self.ys);
        let pass_no = self.passes_run;
        self.passes_run += 1;
        let loaded = &mut self.loaded;
        let mut p = Pass {
            start: Instant::now(),
            wall: 0.0,
            calls: Vec::new(),
            writes: Vec::new(),
            registry: Registry::default(),
            self_ns: BTreeMap::new(),
            spans: 0,
            radii: BTreeSet::new(),
            fuel: 0,
            attempted: 0,
            failed: 0,
        };
        for l in loaded.iter_mut() {
            ys.mark();
            for k in 0..spec.toggles {
                let (u, v) = l.toggles[(pass_no * spec.toggles + k) % l.toggles.len()];
                for insert in [false, true] {
                    let op = |t: &[u32]| {
                        if insert {
                            TupleOp::insert("E", t)
                        } else {
                            TupleOp::delete("E", t)
                        }
                    };
                    let w0 = Instant::now();
                    let info = l.delta.apply(&[op(&[u, v]), op(&[v, u])]);
                    p.writes.push((w0, w0.elapsed().as_secs_f64()));
                    p.attempted += 1;
                    if !matches!(info, Ok(ref i) if i.changed == 2) {
                        p.failed += 1;
                    }
                }
            }
        }
        ys.mark();
        let plain = builder.clone().build().expect("valid engine configuration");
        for (ci, l) in loaded.iter().enumerate() {
            let snapshot = l.delta.snapshot();
            for (qi, q) in QUERIES.iter().enumerate() {
                let sink = traced.then(MemorySink::shared);
                let traced_ev;
                let ev = match &sink {
                    Some(s) => {
                        traced_ev = builder
                            .clone()
                            .sink(s.clone() as Arc<dyn Sink>)
                            .fuel(FUEL_NEVER)
                            .build()
                            .expect("valid engine configuration");
                        &traced_ev
                    }
                    None => &plain,
                };
                let c = call(ev, &snapshot, q, sink.as_deref());
                ys.mark();
                p.attempted += 1;
                if c.value.as_ref().ok() != Some(&expected[ci][qi]) {
                    p.failed += 1;
                    println!(
                        "MISMATCH {} {}: got {:?}, expected {}",
                        CLASSES[ci], q.label, c.value, expected[ci][qi]
                    );
                }
                p.registry.add(&c.registry);
                for (k, v) in self_times(&c.spans) {
                    *p.self_ns.entry(k).or_default() += v;
                }
                p.spans += c.spans.len();
                p.radii.extend(
                    c.spans
                        .iter()
                        .filter(|s| s.name == "cover")
                        .filter_map(|s| s.radius.and_then(|r| u32::try_from(r).ok())),
                );
                p.fuel += c.fuel;
                p.calls.push(CallRec {
                    pair: (ci, qi),
                    sentence: q.sentence,
                    start: c.start,
                    wall: c.wall,
                    parse: c.parse,
                    open: covered(&c.spans) as f64 / 1e9,
                    balls: c.registry.counter(names::LOCAL_BALLS) as f64,
                });
            }
        }
        p.wall = p.start.elapsed().as_secs_f64();
        p
    }

    /// Runs passes until the next one would overrun `budget` seconds (at
    /// least one).
    fn run_passes(&mut self, budget: f64, traced: bool) -> Vec<Pass> {
        let t0 = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            let p = self.run_pass(traced);
            passes.push(p);
            let typical = median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>());
            if t0.elapsed().as_secs_f64() + typical > budget {
                return passes;
            }
        }
    }
}

/// Median over passes of a per-pass value.
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Median scaled wall seconds of each (class, query) pair over passes.
fn pair_walls(passes: &[Pass], sp: &Speed) -> BTreeMap<(usize, usize), f64> {
    let mut all: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for c in passes.iter().flat_map(|p| &p.calls) {
        all.entry(c.pair)
            .or_default()
            .push(sp.scale(c.start, c.wall));
    }
    all.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Median of scaled timings.
fn scaled_median(sp: &Speed, samples: &[(Instant, f64)]) -> f64 {
    median(
        &samples
            .iter()
            .map(|&(t, s)| sp.scale(t, s))
            .collect::<Vec<_>>(),
    )
}

/// The local engine's answers, walls and ball counts on the same inputs
/// (the `eval-cover` reference).
struct LocalReference {
    answers: Vec<[i64; 5]>,
    walls: BTreeMap<(usize, usize), Timings>,
    balls: BTreeMap<(usize, usize), f64>,
    mismatches: u64,
}

fn local_reference(
    structures: &[Structure],
    graph: &[[i64; 5]],
    ys: &mut Yardstick,
) -> LocalReference {
    let ev = Evaluator::builder()
        .kind(EngineKind::Local)
        .threads(1)
        .build()
        .expect("valid engine configuration");
    let mut r = LocalReference {
        answers: Vec::new(),
        walls: BTreeMap::new(),
        balls: BTreeMap::new(),
        mismatches: 0,
    };
    for (ci, a) in structures.iter().enumerate() {
        let mut answers = [0i64; 5];
        for (qi, q) in QUERIES.iter().enumerate() {
            ys.mark();
            let calls: Vec<Call> = (0..TIMING_REPS)
                .map(|_| {
                    let c = call(&ev, a, q, None);
                    ys.mark();
                    c
                })
                .collect();
            let value = calls[0].value.clone().unwrap_or(i64::MIN);
            if value != graph[ci][qi] {
                r.mismatches += 1;
                println!(
                    "REFERENCE MISMATCH {} {}: local {value}, graph {}",
                    CLASSES[ci], q.label, graph[ci][qi]
                );
            }
            answers[qi] = value;
            r.walls
                .insert((ci, qi), calls.iter().map(|c| (c.start, c.wall)).collect());
            r.balls.insert(
                (ci, qi),
                calls[0].registry.counter(names::LOCAL_BALLS) as f64,
            );
        }
        r.answers.push(answers);
    }
    r
}

/// `reps` timings of `f`: start and seconds.
fn timed(reps: usize, ys: &mut Yardstick, mut f: impl FnMut()) -> Timings {
    ys.mark();
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            let secs = t0.elapsed().as_secs_f64();
            ys.mark();
            (t0, secs)
        })
        .collect()
}

/// Direct timings of two layers' entry points, outside any session:
/// `cover_structure` at every radius the traced cover spans used (on
/// every structure), and `decompose_ground` of the three counting
/// terms.
fn direct_timings(
    loaded: &[Loaded],
    radii: &BTreeSet<u32>,
    ys: &mut Yardstick,
) -> (Vec<Timings>, Vec<Timings>) {
    let cover = loaded
        .iter()
        .flat_map(|l| radii.iter().map(move |&r| (l.delta.snapshot(), r)))
        .map(|(a, r)| {
            timed(TIMING_REPS, ys, || {
                drop(std::hint::black_box(cover_structure(&a, r)))
            })
        })
        .collect();
    let decompose = QUERIES
        .iter()
        .filter(|q| !q.sentence)
        .map(|q| {
            let t = parse_term(q.text).expect("workload terms parse");
            let Term::Count(vars, body) = &*t else {
                unreachable!("workload terms are counting terms")
            };
            timed(TIMING_REPS, ys, || {
                drop(std::hint::black_box(decompose_ground(body, vars)));
            })
        })
        .collect();
    (cover, decompose)
}

/// The assertions that fail an evaluation run instead of reporting a
/// number: no query takes the reference evaluator or degrades, the
/// local workload bypasses covers and parallel fan-out, and the cover
/// workload really runs the cover engine.
fn check_validity(spec: &Spec, reg: &Registry) {
    for name in [
        names::ENGINE_FALLBACKS,
        names::ENGINE_DEGRADE_LOCAL,
        names::ENGINE_DEGRADE_NAIVE,
    ] {
        if reg.counter(name) != 0.0 {
            crate::fail(&format!("{name} is {}, must be 0", reg.counter(name)));
        }
    }
    match spec.kind {
        EngineKind::Cover if reg.counter(names::COVER_CLUSTERS) == 0.0 => {
            crate::fail("eval-cover evaluated no cover cluster")
        }
        EngineKind::Local => {
            for name in [
                names::COVER_CLUSTERS,
                names::COVER_BUILT,
                names::COVER_REMOVALS,
                names::PARALLEL_ITEMS,
            ] {
                if reg.counter(name) != 0.0 {
                    crate::fail(&format!(
                        "{name} is {} on eval-local, must be 0",
                        reg.counter(name)
                    ));
                }
            }
        }
        _ => {}
    }
}

/// Runs one evaluation workload.
pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut ys = Yardstick::new();
    let texts = generate(spec, args.seed);

    // Set-up: load every structure, several times; keep the last.
    let mut setup = Vec::new();
    let mut structures = Vec::new();
    ys.mark();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        structures = load(&texts);
        setup.push((t0, t0.elapsed().as_secs_f64()));
        ys.mark();
    }
    let resident_mib: f64 = structures
        .iter()
        .map(|s| s.resident_bytes() as f64)
        .sum::<f64>()
        / (1024.0 * 1024.0);

    // Reference answers, outside the set-up time.
    let graph: Vec<[i64; 5]> = structures
        .iter()
        .map(|s| graph_answers(s.gaifman()))
        .collect();
    let local_ref =
        (spec.kind == EngineKind::Cover).then(|| local_reference(&structures, &graph, &mut ys));
    let expected = local_ref
        .as_ref()
        .map_or_else(|| graph.clone(), |r| r.answers.clone());

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7065_7266);
    let loaded: Vec<Loaded> = structures
        .iter()
        .map(|s| {
            let g = s.gaifman();
            let edges: Vec<(u32, u32)> = (0..g.n())
                .flat_map(|u| {
                    g.neighbors(u)
                        .iter()
                        .filter(move |&&v| u < v)
                        .map(move |&v| (u, v))
                })
                .collect();
            let toggles = (0..TOGGLE_POOL)
                .map(|_| edges[rng.gen_range(0..edges.len())])
                .collect();
            Loaded {
                delta: DeltaStructure::new(s.clone()),
                toggles,
            }
        })
        .collect();

    println!(
        "provenance {}",
        crate::report::provenance(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &[
                format!("\"engine\":{}", json_str(&format!("{:?}", spec.kind))),
                format!("\"threads\":{}", spec.threads),
                format!(
                    "\"structures\":[{}]",
                    structures
                        .iter()
                        .zip(CLASSES)
                        .map(|(s, c)| format!(
                            "{{\"class\":\"{c}\",\"order\":{},\"size\":{}}}",
                            s.order(),
                            s.size()
                        ))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                format!("\"toggles_per_pass\":{}", spec.toggles * 2 * CLASSES.len()),
                "\"fsync\":\"none\"".to_string(),
            ],
        )
    );
    drop(structures);

    let mut runner = Runner {
        spec,
        builder: Evaluator::builder().kind(spec.kind).threads(spec.threads),
        loaded,
        expected,
        ys,
        passes_run: 0,
    };
    // One untimed warm-up pass: the first pass over fresh heap memory
    // runs markedly slower than the rest.
    let warm = runner.run_pass(false);
    let budget = args.seconds as f64;
    let (untraced, traced) = if args.trace {
        let u = runner.run_passes(budget / 2.0, false);
        (u, runner.run_passes(budget / 2.0, true))
    } else {
        (runner.run_passes(budget, false), Vec::new())
    };
    let radii: BTreeSet<u32> = traced
        .iter()
        .flat_map(|p| p.radii.iter().copied())
        .collect();
    let (cover_direct, decompose_direct) = if args.trace {
        direct_timings(&runner.loaded, &radii, &mut runner.ys)
    } else {
        (Vec::new(), Vec::new())
    };
    let sp = runner.ys.into_speed();

    let all = untraced.iter().chain(&traced).chain([&warm]);
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let mut failed: u64 = all.clone().map(|p| p.failed).sum();
    failed += local_ref.as_ref().map_or(0, |r| r.mismatches);

    check_validity(spec, &untraced[0].registry);

    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        println!(
            "pass {i} wall={:.3}s scaled={:.3}s check={:.3}s count={:.3}s (scaled)",
            p.wall,
            p.wall * p.factor(&sp),
            p.summed(&sp, true),
            p.summed(&sp, false)
        );
    }
    println!(
        "speed kernel_median={:.1}us reference={:.1}us",
        sp.median_kernel_s() * 1e6,
        crate::calib::REFERENCE_S * 1e6
    );
    let pairs = pair_walls(&untraced, &sp);

    let mut m = Metrics::default();
    if !args.trace {
        // A read is one query call; its latency is the median over the
        // passes, which keeps pass-to-pass noise out of the percentiles.
        for (&(ci, qi), s) in &pairs {
            println!(
                "pair {:<12} {:<10} {:>12.3} ms",
                CLASSES[ci],
                QUERIES[qi].label,
                s * 1e3
            );
        }
        let reads = sorted(pairs.values().map(|s| s * 1e3).collect());
        let writes: Vec<Vec<f64>> = untraced
            .iter()
            .map(|p| {
                sorted(
                    p.writes
                        .iter()
                        .map(|&(t, s)| sp.scale(t, s) * 1e3)
                        .collect(),
                )
            })
            .collect();
        println!(
            "samples passes={} reads={} writes={}",
            untraced.len(),
            reads.len(),
            writes.iter().map(Vec::len).sum::<usize>()
        );
        m.put("setup_s", "s", scaled_median(&sp, &setup));
        m.put("check_s", "s", per_pass(&untraced, |p| p.summed(&sp, true)));
        m.put(
            "count_s",
            "s",
            per_pass(&untraced, |p| p.summed(&sp, false)),
        );
        m.put("read_p50_ms", "ms", quantile(&reads, 0.50));
        m.put("read_p99_ms", "ms", quantile(&reads, 0.99));
        // Write percentiles: per pass, then the median over passes.
        let wq = |q: f64| median(&writes.iter().map(|w| quantile(w, q)).collect::<Vec<_>>());
        m.put("write_p50_ms", "ms", wq(0.50));
        m.put("write_p95_ms", "ms", wq(0.95));
        m.put("peak_rss_mb", "MiB", peak_rss_mib());
        return Outcome {
            attempted,
            failed,
            metrics: m,
        };
    }

    // The traced run: counts from the first untraced pass (they repeat
    // exactly at threads=1), times from the traced passes.
    let first = &untraced[0];
    let reg = &first.registry;
    let self_ms = |name: &str| {
        per_pass(&traced, |p| {
            p.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 * p.factor(&sp)
        })
    };
    let (gap, gap_far, balls_ratio, balls_ratio_far) = match &local_ref {
        Some(r) => {
            let far = (GRID, FAR_PAIRS);
            let local: BTreeMap<(usize, usize), f64> = r
                .walls
                .iter()
                .map(|(k, v)| (*k, scaled_median(&sp, v)))
                .collect();
            let cover_balls: BTreeMap<(usize, usize), f64> =
                first.calls.iter().map(|c| (c.pair, c.balls)).collect();
            (
                ratio(pairs.values().sum(), local.values().sum()),
                ratio(pairs[&far], local[&far]),
                ratio(cover_balls.values().sum(), r.balls.values().sum()),
                ratio(cover_balls[&far], r.balls[&far]),
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let direct =
        |timings: &[Timings]| -> f64 { timings.iter().map(|t| scaled_median(&sp, t)).sum() };
    let calls = (QUERIES.len() * CLASSES.len()) as f64;
    let hits = reg.counter(names::CACHE_HITS);
    let misses = reg.counter(names::CACHE_MISSES);

    m.put("structures.load_ms", "ms", scaled_median(&sp, &setup) * 1e3);
    m.put("structures.resident_mb", "MiB", resident_mib);
    m.put(
        "logic.parse_us",
        "us",
        per_pass(&untraced, |p| {
            p.calls.iter().map(|c| sp.scale(c.start, c.parse)).sum()
        }) * 1e6,
    );
    m.put("locality.decompose_ms", "ms", self_ms("decompose"));
    m.put(
        "locality.decompose_direct_us",
        "us",
        direct(&decompose_direct) * 1e6,
    );
    m.put("locality.ball_enum_ms", "ms", self_ms("ball_enum"));
    m.put("locality.balls", "count", reg.counter(names::LOCAL_BALLS));
    m.put(
        "locality.ball_elements",
        "count",
        reg.counter(names::LOCAL_BALL_ELEMENTS),
    );
    m.put(
        "locality.tuples_checked",
        "count",
        reg.counter(names::LOCAL_TUPLES),
    );
    m.put(
        "locality.cache_hit_rate",
        "ratio",
        ratio(hits, hits + misses),
    );
    m.put(
        "locality.cache_evictions",
        "count",
        reg.counter(names::CACHE_EVICTIONS),
    );
    m.put("covers.build_ms", "ms", self_ms("cover"));
    m.put("covers.build_direct_ms", "ms", direct(&cover_direct) * 1e3);
    m.put("covers.cluster_ms", "ms", self_ms("cluster"));
    m.put("covers.removal_ms", "ms", self_ms("removal"));
    m.put(
        "covers.clusters",
        "count",
        reg.counter(names::COVER_CLUSTERS),
    );
    m.put(
        "covers.removals",
        "count",
        reg.counter(names::COVER_REMOVALS),
    );
    m.put(
        "covers.peak_cluster",
        "count",
        reg.gauge(names::COVER_PEAK_CLUSTER),
    );
    m.put(
        "covers.covers_built",
        "count",
        reg.counter(names::COVER_BUILT),
    );
    m.put("covers.balls_per_local_ball", "ratio", balls_ratio);
    m.put(
        "covers.balls_per_local_ball.grid_far",
        "ratio",
        balls_ratio_far,
    );
    m.put("covers.gap_vs_local", "ratio", gap);
    m.put("covers.gap_vs_local.grid_far", "ratio", gap_far);
    m.put("core.materialize_ms", "ms", self_ms("materialize"));
    m.put("core.markers", "count", reg.counter(names::ENGINE_MARKERS));
    m.put("core.clterms", "count", reg.counter(names::ENGINE_CLTERMS));
    m.put("core.basics", "count", reg.counter(names::ENGINE_BASICS));
    m.put(
        "core.unattributed_ms",
        "ms",
        per_pass(&traced, |p| {
            p.calls
                .iter()
                .map(|c| sp.scale(c.start, (c.wall - c.parse - c.open).max(0.0)))
                .sum()
        }) * 1e3,
    );
    m.put(
        "core.naive_fallbacks",
        "count",
        reg.counter(names::ENGINE_FALLBACKS),
    );
    m.put(
        "core.degrade_steps",
        "count",
        reg.counter(names::ENGINE_DEGRADE_LOCAL) + reg.counter(names::ENGINE_DEGRADE_NAIVE),
    );
    m.put(
        "parallel.items",
        "count",
        reg.counter(names::PARALLEL_ITEMS),
    );
    m.put(
        "parallel.batches",
        "count",
        reg.counter(names::PARALLEL_BATCHES),
    );
    m.put(
        "parallel.workers",
        "count",
        reg.gauge(names::PARALLEL_WORKERS),
    );
    m.put(
        "parallel.batch_imbalance",
        "ratio",
        reg.spread(names::PARALLEL_BATCHES_PER_WORKER),
    );
    m.put(
        "guard.fuel",
        "count",
        per_pass(&traced, |p| p.fuel as f64) / calls,
    );
    m.put(
        "obs.trace_overhead",
        "ratio",
        ratio(
            per_pass(&traced, |p| p.wall * p.factor(&sp)),
            per_pass(&untraced, |p| p.wall * p.factor(&sp)),
        ),
    );
    m.put("obs.spans", "count", per_pass(&traced, |p| p.spans as f64));
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
