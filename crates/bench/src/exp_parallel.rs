//! E12 — the thread sweep of the parallel cluster scheduler: evaluating
//! cover-engine workloads at threads ∈ {1, 2, 4, 8}, verifying bit-identical
//! results against the single-threaded run, and recording wall-clock
//! speedups plus the engine's structured metrics.
//!
//! Besides the markdown table, this experiment writes `BENCH_parallel.json`
//! to the current directory: a machine-readable record with one entry per
//! (workload, thread-count) cell and a top-level `cpus` field so the
//! speedup numbers can be judged against the hardware they were measured
//! on (on a single-CPU host the sweep measures scheduling overhead, not
//! speedup — the JSON says so rather than hiding it).
//!
//! `seconds` is the median of [`REPEATS`] untraced runs. Each cell's
//! `phases_micros` comes from one extra traced repeat: the self time of every span name
//! (see [`foc_obs::self_times`]). At threads = 1 they sum to the traced
//! session's wall time; at more threads the `cluster` spans of different
//! workers overlap, so the sum can exceed it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use foc_core::{EngineKind, EngineStats, Evaluator};
use foc_logic::parse::{parse_formula, parse_term};
use foc_obs::{self_times, MemorySink, Sink};
use foc_structures::gen::{bounded_degree, grid, random_tree, star_chain};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt_duration, Table};

/// Thread counts swept by E12.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Untraced runs per cell; the cell's time is their median.
pub const REPEATS: usize = 5;

/// Stars in the hub workload: more single-hub removal clusters than the
/// largest thread count.
const STARS: u32 = 16;

struct Workload {
    label: &'static str,
    structure: Structure,
    /// `Ok` = ground term, `Err` = sentence (sign carries the answer type).
    term: Option<std::sync::Arc<foc_logic::Term>>,
    sentence: Option<std::sync::Arc<foc_logic::Formula>>,
}

/// The first three workloads have no hub, so their covers answer every
/// cluster directly; the fourth chains [`STARS`] stars by paths longer
/// than 4R, so each hub's cluster (and each path cluster that reaches a
/// hub) goes through removal surgery.
fn workloads(quick: bool) -> Vec<Workload> {
    let n: u32 = if quick { 2_000 } else { 8_000 };
    let gap = 24;
    let side = (n as f64).sqrt().round() as u32;
    let mut rng = StdRng::seed_from_u64(12);
    let tree = random_tree(n, &mut rng);
    let mut rng = StdRng::seed_from_u64(13);
    let deg3 = bounded_degree(n, 3, 3 * n as usize, &mut rng);
    vec![
        Workload {
            label: "grid: far pairs",
            structure: grid(side, side),
            term: Some(parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap()),
            sentence: None,
        },
        Workload {
            label: "tree: deg-1 pairs",
            structure: tree,
            term: Some(parse_term("#(x,y). (E(x,y) & #(z). E(y,z) = 1)").unwrap()),
            sentence: None,
        },
        Workload {
            label: "deg≤3: parity sentence",
            structure: deg3,
            term: None,
            sentence: Some(parse_formula("@even(#(x,y). !(dist(x,y) <= 2))").unwrap()),
        },
        Workload {
            label: "star chain: far pairs",
            structure: star_chain(STARS, n / STARS - gap, gap),
            term: Some(parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap()),
            sentence: None,
        },
    ]
}

/// One measured cell of the sweep, including the session's counters and
/// the span self times of a traced repeat, so the JSON record can
/// explain *where* a cell's time went, not just how long it took.
struct Cell {
    workload: &'static str,
    order: u32,
    threads: usize,
    secs: f64,
    speedup: f64,
    identical: bool,
    clusters: u64,
    covers_built: u64,
    removals: u64,
    peak_cluster: u32,
    cache_hits: u64,
    cache_misses: u64,
    balls: u64,
    /// Self time per span name of the traced repeat, in microseconds.
    phases_micros: BTreeMap<&'static str, u64>,
}

/// One session of `w` on `ev`: the answer, its wall time in seconds and
/// the session's counters. The session has dropped on return, so a sink
/// attached to `ev` holds the complete span tree.
fn evaluate(ev: &Evaluator, w: &Workload) -> (i64, f64, EngineStats) {
    let mut session = ev.session(&w.structure);
    let t0 = Instant::now();
    let value = match (&w.term, &w.sentence) {
        (Some(t), _) => session.eval_ground(t).unwrap(),
        (None, Some(f)) => session.check_sentence(f).unwrap() as i64,
        _ => unreachable!("workload has neither term nor sentence"),
    };
    (value, t0.elapsed().as_secs_f64(), session.stats())
}

fn run_cell(
    w: &Workload,
    threads: usize,
    repeats: usize,
    baseline: Option<&(i64, f64)>,
) -> (i64, Cell) {
    let builder = Evaluator::builder()
        .kind(EngineKind::Cover)
        .threads(threads);
    let ev = builder.clone().build().unwrap();
    let runs: Vec<(i64, f64, EngineStats)> = (0..repeats).map(|_| evaluate(&ev, w)).collect();
    let (value, _, stats) = runs[0];
    let mut times: Vec<f64> = runs.iter().map(|r| r.1).collect();
    times.sort_by(f64::total_cmp);
    let secs = times[times.len() / 2];
    let identical = runs.iter().all(|r| r.0 == value) && baseline.is_none_or(|(v, _)| *v == value);
    let mem = MemorySink::shared();
    evaluate(
        &builder.sink(mem.clone() as Arc<dyn Sink>).build().unwrap(),
        w,
    );
    let cell = Cell {
        workload: w.label,
        order: w.structure.order(),
        threads,
        secs,
        speedup: baseline.map_or(1.0, |(_, base)| base / secs.max(1e-12)),
        identical,
        clusters: stats.clusters,
        covers_built: stats.covers_built,
        removals: stats.removals,
        peak_cluster: stats.peak_cluster,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        balls: stats.balls,
        phases_micros: self_times(&mem.spans())
            .into_iter()
            .map(|(name, nanos)| (name, nanos / 1_000))
            .collect(),
    };
    (value, cell)
}

fn emit_json(cells: &[Cell], quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"experiment\": \"E12 parallel cluster evaluation\","
    );
    let _ = writeln!(out, "  \"engine\": \"cover\",");
    let _ = writeln!(out, "  \"cpus\": {},", foc_parallel::available_threads());
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"repeats\": {REPEATS},");
    let _ = writeln!(
        out,
        "  \"note\": \"seconds is the median of `repeats` untraced runs; speedup is wall-clock vs threads=1 on this host; with cpus=1 the sweep can only measure scheduling overhead\","
    );
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"workload\": \"{}\",",
            c.workload.replace('"', "'")
        );
        let _ = writeln!(out, "      \"order\": {},", c.order);
        let _ = writeln!(out, "      \"threads\": {},", c.threads);
        let _ = writeln!(out, "      \"seconds\": {:.6},", c.secs);
        let _ = writeln!(out, "      \"speedup_vs_1\": {:.3},", c.speedup);
        let _ = writeln!(out, "      \"identical_to_sequential\": {},", c.identical);
        let _ = writeln!(out, "      \"clusters\": {},", c.clusters);
        let _ = writeln!(out, "      \"covers_built\": {},", c.covers_built);
        let _ = writeln!(out, "      \"removals\": {},", c.removals);
        let _ = writeln!(out, "      \"peak_cluster\": {},", c.peak_cluster);
        let _ = writeln!(out, "      \"cache_hits\": {},", c.cache_hits);
        let _ = writeln!(out, "      \"cache_misses\": {},", c.cache_misses);
        let _ = writeln!(out, "      \"balls\": {},", c.balls);
        let _ = writeln!(out, "      \"phases_micros\": {{");
        for (j, (name, micros)) in c.phases_micros.iter().enumerate() {
            let comma = if j + 1 < c.phases_micros.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "        \"{name}\": {micros}{comma}");
        }
        let _ = writeln!(out, "      }}");
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// E12: the thread sweep. Returns the markdown table and writes
/// `BENCH_parallel.json` beside the working directory.
pub fn e12(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E12: parallel cluster evaluation (Cover engine) — thread sweep",
        &[
            "workload",
            "n",
            "threads",
            "time",
            "speedup",
            "identical",
            "clusters",
            "removals",
            "peak",
            "cache h/m",
        ],
    );
    let mut cells = Vec::new();
    for w in workloads(quick) {
        let mut baseline: Option<(i64, f64)> = None;
        for threads in THREADS {
            let (value, cell) = run_cell(&w, threads, REPEATS, baseline.as_ref());
            t.row(vec![
                w.label.into(),
                cell.order.to_string(),
                threads.to_string(),
                fmt_duration(std::time::Duration::from_secs_f64(cell.secs)),
                format!("{:.2}×", cell.speedup),
                if cell.identical {
                    "✓".into()
                } else {
                    "✗".into()
                },
                cell.clusters.to_string(),
                cell.removals.to_string(),
                cell.peak_cluster.to_string(),
                format!("{}/{}", cell.cache_hits, cell.cache_misses),
            ]);
            if baseline.is_none() {
                baseline = Some((value, cell.secs));
            }
            cells.push(cell);
        }
    }
    assert!(
        cells.iter().all(|c| c.identical),
        "parallel results must be bit-identical"
    );
    let json = emit_json(&cells, quick);
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => t.note("wrote BENCH_parallel.json".to_string()),
        Err(e) => t.note(format!("could not write BENCH_parallel.json: {e}")),
    }
    t.note(format!(
        "times are medians of {REPEATS} untraced runs; host has {} hardware thread(s); \
         speedups are wall-clock vs threads=1 on this host.",
        foc_parallel::available_threads()
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_well_formed() {
        let cells = vec![Cell {
            workload: "w",
            order: 10,
            threads: 2,
            secs: 0.5,
            speedup: 1.9,
            identical: true,
            clusters: 7,
            covers_built: 2,
            removals: 4,
            peak_cluster: 3,
            cache_hits: 1,
            cache_misses: 2,
            balls: 11,
            phases_micros: BTreeMap::from([("eval", 80), ("session", 20)]),
        }];
        let json = emit_json(&cells, true);
        assert!(json.contains("\"cpus\""));
        assert!(json.contains("\"speedup_vs_1\": 1.900"));
        assert!(json.contains("\"identical_to_sequential\": true"));
        assert!(json.contains("\"phases_micros\""));
        assert!(json.contains("\"session\": 20"));
        assert!(json.contains("\"balls\": 11"));
        // Balanced braces/brackets — cheap well-formedness proxy without a
        // JSON parser in the tree.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sweep_runs_and_agrees_on_tiny_inputs() {
        let w = Workload {
            label: "tiny grid",
            structure: grid(8, 8),
            term: Some(parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap()),
            sentence: None,
        };
        let (v1, c1) = run_cell(&w, 1, 1, None);
        let (v2, c2) = run_cell(&w, 4, 3, Some(&(v1, c1.secs)));
        assert_eq!(v1, v2);
        assert!(c2.identical);
        assert!(c2.clusters > 0);
        assert!(
            c1.phases_micros.contains_key("cover"),
            "traced repeat spans the cover phase"
        );
    }
}
