//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path focbench/Cargo.toml -- \
//!     --workload <eval-local|eval-cover|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it makes the separate traced run that gives the
//! per-layer metrics. Either way it checks every answer, prints a
//! provenance record and one line per metric, and ends with one JSON
//! result line. A failed validity assertion exits non-zero without a
//! result. See `focbench/README.md` for how to read the output.

mod calib;
mod evalw;
mod report;
mod servew;
mod spans;

use report::{result_line, Metrics, Outcome};

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("check_s", "s"),
    ("count_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a
/// layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("structures.load_ms", "ms"),
    ("structures.resident_mb", "MiB"),
    ("logic.parse_us", "us"),
    ("locality.decompose_ms", "ms"),
    ("locality.decompose_direct_us", "us"),
    ("locality.ball_enum_ms", "ms"),
    ("locality.balls", "count"),
    ("locality.ball_elements", "count"),
    ("locality.tuples_checked", "count"),
    ("locality.cache_hit_rate", "ratio"),
    ("locality.cache_evictions", "count"),
    ("covers.build_ms", "ms"),
    ("covers.build_direct_ms", "ms"),
    ("covers.cluster_ms", "ms"),
    ("covers.removal_ms", "ms"),
    ("covers.clusters", "count"),
    ("covers.removals", "count"),
    ("covers.peak_cluster", "count"),
    ("covers.covers_built", "count"),
    ("covers.balls_per_local_ball", "ratio"),
    ("covers.balls_per_local_ball.grid_far", "ratio"),
    ("covers.gap_vs_local", "ratio"),
    ("covers.gap_vs_local.grid_far", "ratio"),
    ("core.materialize_ms", "ms"),
    ("core.markers", "count"),
    ("core.clterms", "count"),
    ("core.basics", "count"),
    ("core.unattributed_ms", "ms"),
    ("core.naive_fallbacks", "count"),
    ("core.degrade_steps", "count"),
    ("parallel.items", "count"),
    ("parallel.batches", "count"),
    ("parallel.workers", "count"),
    ("parallel.batch_imbalance", "ratio"),
    ("guard.fuel", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.spans", "count"),
    ("serve.eval_us_p50", "us"),
    ("serve.eval_us_p99", "us"),
    ("serve.wait_us_p50", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_migrated", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.inflight_peak", "count"),
    ("serve.gen_late_ms", "ms"),
    ("wal.appends", "count"),
    ("wal.syncs", "count"),
    ("wal.checkpoints", "count"),
    ("wal.bytes_per_write", "B"),
    ("wal.ack_us_p50", "us"),
    ("wal.recover_ms", "ms"),
];

/// The command line.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["eval-local", "eval-cover", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Fails the run: a validity assertion did not hold, so no number is
/// reported.
pub fn fail(msg: &str) -> ! {
    eprintln!("focbench: assertion failed: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "focbench: {e}\nusage: focbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2)
    });
    let outcome = match args.workload {
        "eval-local" => evalw::run(&evalw::LOCAL, &args),
        "eval-cover" => evalw::run(&evalw::COVER, &args),
        _ => servew::run(&args),
    };

    // Every declared metric appears, in declared order; a layer the
    // workload bypasses reads 0.
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in &outcome.metrics.0 {
        assert!(
            declared.contains(&(m.name, m.unit)),
            "undeclared metric {} ({})",
            m.name,
            m.unit
        );
    }
    let mut ordered = Metrics::default();
    for &(name, unit) in declared {
        let value = outcome
            .metrics
            .0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
            + 0.0; // an empty float sum is -0.0

        println!("metric {name:<40} {value:>16.6} {unit}");
        ordered.put(name, unit, value);
    }
    let outcome = Outcome {
        metrics: ordered,
        ..outcome
    };
    println!(
        "operations attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    println!("{}", result_line(&outcome));
}
