//! `foc` — command-line FOC1(P) evaluation.
//!
//! ```text
//! foc check   <structure.foc> "<sentence>"      [--engine naive|local|cover] [--threads N]
//! foc eval    <structure.foc> "<ground term>"   [--engine …]
//! foc count   <structure.foc> "<formula>" --vars x,y [--engine …]
//! foc explain <structure.foc> "<sentence or ground term>" [--engine …]
//! foc stats   <structure.foc> [--cover-r N]
//! foc gen     <class> --n N [--seed S] [-o out.foc]
//!     classes: tree, grid, path, cycle, star, clique, deg3, gnm
//! foc fuzz    [--seed S] [--budget 30s | --iters N] [--corpus DIR] [--replay]
//!             [--updates [--steps N]] [--crash [--checkpoint-every N]]
//! foc serve   <structure.foc> [--port N] [--max-inflight N] [--queue N]
//!             [--mem-limit <bytes>] [--drain-timeout <ms>]
//!             [--telemetry-addr <host:port>] [--trace-log <path>]
//!             [--postmortem-dir <dir>] [--trace-sample N]
//!             [--slow-query <ms>] [--no-tracing]
//!             [--wal-dir <dir>] [--fsync always|never|interval[:ms]]
//!             [--max-frame-bytes N]
//! foc recover <wal-dir> [--structure <base.foc>] [-o out.foc]
//! foc wal     inspect <wal-dir>
//! foc top     <host:port> [--interval <ms>] [--once]
//! ```
//!
//! `foc fuzz` runs the cross-engine differential harness (`foc-diff`):
//! random FOC1(P) queries on random structures, evaluated under the
//! whole engine matrix, with metamorphic checks, shrinking, and a
//! replayable corpus. The run is deterministic for a fixed seed — a
//! `--budget` is a fixed iteration quota, not a wall-clock deadline —
//! and exits 1 when any divergence is found. With `--updates` it fuzzes
//! the live-update machinery instead: seeded interleavings of delta
//! commits and queries, comparing the local and cover engines over the
//! live snapshot (sharing one migrated term cache) against a
//! from-scratch rebuild oracle at every step. With `--crash` it sweeps
//! kill points over the `foc-wal` durability layer instead: a seeded
//! mutation workload is crashed after every single IO unit and
//! recovered, asserting recovery always lands on the last durably
//! acknowledged state.
//!
//! `foc serve --wal-dir <dir>` makes live updates crash-safe: every
//! effective commit is appended to a write-ahead log before the result
//! frame is sent (durable per `--fsync`), snapshot checkpoints bound
//! recovery replay, and a restart from the same directory recovers
//! exactly the acknowledged state. `foc recover` performs that recovery
//! offline (exit 1 on a corrupt or diverged directory); `foc wal
//! inspect` is the read-only view. SIGINT/SIGTERM trigger the same
//! graceful drain as stdin EOF.
//!
//! `foc serve` can additionally expose a telemetry listener on a
//! second socket (`--telemetry-addr`): `GET /metrics` answers in
//! Prometheus text exposition format, `GET /healthz` is drain- and
//! pressure-aware, and `GET /stats` is a one-line JSON snapshot of live
//! server state. `foc top` polls that `/stats` endpoint: one compact
//! status line per poll, or the full field table with `--once`.
//!
//! Every evaluation subcommand also accepts `--trace` (stream finished
//! spans to stderr), `--profile` (print the per-phase wall-time table),
//! and `--metrics-json <path>` (write the session's counters,
//! histograms, and span list as JSON). `foc explain` runs the query
//! with an in-memory span sink and renders the full span tree plus the
//! metrics table.
//!
//! Structure files use the line-oriented format of
//! `foc_structures::io` (see `foc gen … -o example.foc` for a sample).

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use foc_core::{DegradePolicy, EngineKind, EngineStats, Evaluator, Session};
use foc_logic::parse::{parse_formula, parse_term};
use foc_logic::Var;
use foc_obs::{
    build_tree, render_metrics_table, render_tree, session_json, MemorySink, Sink, StderrSink,
};
use foc_structures::gen as generators;
use foc_structures::io::{parse_structure, write_structure};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// CLI failure, classified for the exit code:
///
/// * `Usage` — the invocation itself is malformed; exit 2 and print the
///   usage text.
/// * `Runtime` — the invocation is fine but the work failed (missing
///   file, parse error, evaluation error); exit 1 with a one-line
///   diagnostic.
/// * `Interrupted` — the evaluation hit its resource budget; exit 3
///   with the phase and fuel spent.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
    Interrupted(foc_core::Interrupt),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Runtime(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Runtime(msg.to_string())
    }
}

impl From<foc_core::Error> for CliError {
    fn from(e: foc_core::Error) -> CliError {
        match e {
            foc_core::Error::Interrupted(i) => CliError::Interrupted(i),
            other => CliError::Runtime(other.to_string()),
        }
    }
}

type CliResult<T = ()> = Result<T, CliError>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("foc: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("foc: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Interrupted(i)) => {
            eprintln!("foc: {i}");
            ExitCode::from(3)
        }
    }
}

const USAGE: &str = "\
usage:
  foc check   <structure.foc> \"<sentence>\"      [--engine naive|local|cover] [options]
  foc eval    <structure.foc> \"<ground term>\"   [--engine ...] [options]
  foc count   <structure.foc> \"<formula>\" --vars x,y [--engine ...] [options]
  foc explain <structure.foc> \"<sentence or ground term>\" [--engine ...] [options]
  foc stats   <structure.foc> [--cover-r N]
  foc gen     <tree|grid|path|cycle|star|clique|deg3|gnm> --n N [--seed S] [-o out.foc]
  foc fuzz    [--seed S] [--budget 30s | --iters N] [--corpus DIR] [--replay]
              [--max-order N] [--no-shrink] [--no-meta] [--no-anytime]
              [--case-timeout <ms>] [--updates [--steps N]]
              [--crash [--steps N] [--checkpoint-every N]]
              [--metrics-json <path>]
  foc serve   <structure.foc> [--port N] [--max-inflight N] [--queue N]
              [--mem-limit <bytes>] [--drain-timeout <ms>] [--max-timeout <ms>]
              [--max-fuel N] [--engine ...] [--threads N] [--metrics-json <path>]
              [--telemetry-addr <host:port>] [--trace-log <path>]
              [--postmortem-dir <dir>] [--trace-sample N] [--trace-seed S]
              [--slow-query <ms>] [--no-tracing]
              [--wal-dir <dir>] [--fsync always|never|interval[:ms]]
              [--wal-checkpoint-bytes N] [--max-frame-bytes N]
              (JSON-lines over TCP; drains on stdin EOF, a \"drain\" line,
               SIGINT, or SIGTERM; exit 3 if the drain deadline
               interrupted in-flight requests)
  foc recover <wal-dir> [--structure <base.foc>] [-o out.foc]
              (recover a WAL directory offline: verify the checkpoint,
               truncate any torn log tail, replay, and report the
               recovered epoch/fingerprint; exit 1 on corruption)
  foc wal     inspect <wal-dir>
              (read-only scan: checkpoint header, per-record summaries,
               torn-tail accounting; never modifies the directory)
  foc top     <host:port> [--interval <ms>] [--once]
              (poll a serve telemetry listener's /stats endpoint)

options:
  --engine naive|local|cover   evaluation strategy (default: local)
  --threads N                  worker threads; 0 means one per hardware
                               thread (default: 1)
  --trace                      stream finished spans to stderr as
                               [foc-trace] lines
  --profile                    print the per-phase wall-time table and
                               work counters after the answer
  --metrics-json <path>        write the session's phases, counters,
                               histograms, and spans as JSON to <path>
  --timeout <ms>               wall-clock deadline for the evaluation;
                               interrupted runs exit with code 3
  --fuel <n>                   deterministic work allowance (guard
                               checks); interrupted runs exit with
                               code 3
  --strict                     surface capability errors instead of
                               degrading down the engine ladder
  --anytime                    iterative deepening (check/eval/count/
                               explain): split the budget over a ladder
                               of passes; a counting term whose budget
                               trips prints the best-so-far answer with
                               a confidence tag (exact, approx,
                               lower_bound) instead of exiting 3; a
                               sentence answers exactly or exits 3
  --approx                     answer eval/count through the (ε, δ)
                               sampling estimator: prints `estimate
                               ±bound` where the additive bound holds
                               with probability ≥ 1−δ (spaces small
                               enough to enumerate are answered
                               exactly); with --anytime the estimator
                               runs as its own ladder rung instead
  --epsilon <f>                the estimator's error fraction in (0, 1]
                               (default 0.1; the bound is ⌈ε·n^k⌉ for a
                               k-variable count over n elements)";

/// Flags that take no value (everything else consumes the next arg).
const BOOL_FLAGS: &[&str] = &[
    "--trace",
    "--profile",
    "--strict",
    "--replay",
    "--no-shrink",
    "--no-meta",
    "--no-tracing",
    "--once",
    "--anytime",
    "--no-anytime",
    "--approx",
    "--updates",
    "--crash",
];

fn run(args: &[String]) -> CliResult {
    let Some(cmd) = args.first() else {
        return Err(CliError::usage("missing subcommand"));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "check" => cmd_check(rest),
        "eval" => cmd_eval(rest),
        "count" => cmd_count(rest),
        "explain" => cmd_explain(rest),
        "stats" => cmd_stats(rest),
        "gen" => cmd_gen(rest),
        "fuzz" => cmd_fuzz(rest),
        "serve" => cmd_serve(rest),
        "recover" => cmd_recover(rest),
        "wal" => cmd_wal(rest),
        "top" => cmd_top(rest),
        other => Err(CliError::usage(format!("unknown subcommand {other:?}"))),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args.iter() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") || a == "-o" {
            skip = !BOOL_FLAGS.contains(&a.as_str());
            continue;
        }
        out.push(a);
    }
    out
}

/// Builds the engine from the shared flags, optionally attaching a span
/// sink (the in-memory sink of `foc explain` / `--metrics-json`).
fn engine_with_sink(args: &[String], sink: Option<Arc<dyn Sink>>) -> CliResult<Evaluator> {
    let kind = match flag_value(args, "--engine").unwrap_or("local") {
        "naive" => EngineKind::Naive,
        "local" => EngineKind::Local,
        "cover" => EngineKind::Cover,
        other => return Err(CliError::usage(format!("unknown engine {other:?}"))),
    };
    let threads: usize = match flag_value(args, "--threads") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --threads {v:?}")))?,
        None => 1,
    };
    let mut b = Evaluator::builder().kind(kind).threads(threads);
    if has_flag(args, "--trace") {
        b = b.sink(Arc::new(StderrSink));
    }
    if let Some(v) = flag_value(args, "--timeout") {
        let ms: u64 = v
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --timeout {v:?} (milliseconds)")))?;
        b = b.timeout(Duration::from_millis(ms));
    }
    if let Some(v) = flag_value(args, "--fuel") {
        let fuel: u64 = v
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --fuel {v:?}")))?;
        b = b.fuel(fuel);
    }
    if has_flag(args, "--strict") {
        b = b.degrade(DegradePolicy::Strict);
    }
    if has_flag(args, "--approx") || flag_value(args, "--epsilon").is_some() {
        let cfg = match flag_value(args, "--epsilon") {
            Some(v) => {
                let eps: f64 = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("invalid --epsilon {v:?}")))?;
                foc_core::ApproxConfig::with_epsilon(eps)
            }
            None => foc_core::ApproxConfig::default(),
        };
        cfg.validate().map_err(|e| CliError::usage(e.to_string()))?;
        b = b.approx(cfg);
    }
    if let Some(s) = sink {
        b = b.sink(s);
    }
    b.build().map_err(|e| CliError::Runtime(e.to_string()))
}

/// Prints the `(ε, δ)` estimator's answer: `estimate ±bound` (or the
/// plain value when the space was enumerated exactly).
fn report_approx(ev: &Evaluator, v: &foc_core::ApproxValue, elapsed: Duration) {
    if v.exhaustive {
        println!("{}", v.estimate);
        eprintln!(
            "[{:?} engine, approx: space within sample budget, enumerated exactly, {elapsed:?}]",
            ev.kind()
        );
    } else {
        println!("{} ±{}", v.estimate, v.error_bound);
        eprintln!(
            "[{:?} engine, approx: {} samples, {elapsed:?}]",
            ev.kind(),
            v.samples
        );
    }
}

/// The `--profile` report: per-phase wall time plus the work counters.
fn profile_table(stats: &EngineStats) -> String {
    let mut out = String::new();
    out.push_str("phase        micros\n");
    for (name, d) in [
        ("materialize", stats.phase.materialize),
        ("decompose", stats.phase.decompose),
        ("cover", stats.phase.cover),
        ("eval", stats.phase.eval),
    ] {
        out.push_str(&format!("{name:<12} {}\n", d.as_micros()));
    }
    out.push_str(&format!(
        "markers={} clterms={} basics={} fallbacks={} sentences={}\n",
        stats.markers_created,
        stats.clterms,
        stats.basics,
        stats.naive_fallbacks,
        stats.sentences_resolved
    ));
    out.push_str(&format!(
        "clusters={} covers={} removals={} peak_cluster={}\n",
        stats.clusters, stats.covers_built, stats.removals, stats.peak_cluster
    ));
    out.push_str(&format!(
        "cache hits/misses={}/{} balls={}\n",
        stats.cache_hits, stats.cache_misses, stats.balls
    ));
    out
}

/// Shared tail of the evaluation subcommands: snapshot the session,
/// drop it (finishing the root span), then honour `--profile` and
/// `--metrics-json`.
fn finish_session(
    args: &[String],
    ev: &Evaluator,
    session: Session<'_>,
    mem: Option<Arc<MemorySink>>,
) -> CliResult {
    let stats = session.stats();
    let snap = session.observer().metrics().snapshot();
    drop(session);
    if has_flag(args, "--profile") {
        eprint!("{}", profile_table(&stats));
    }
    if let Some(path) = flag_value(args, "--metrics-json") {
        let spans = mem.map(|m| m.spans()).unwrap_or_default();
        let phases = [
            ("materialize", stats.phase.materialize.as_micros() as u64),
            ("decompose", stats.phase.decompose.as_micros() as u64),
            ("cover", stats.phase.cover.as_micros() as u64),
            ("eval", stats.phase.eval.as_micros() as u64),
        ];
        let engine = format!("{:?}", ev.kind()).to_lowercase();
        let json = session_json(&engine, &phases, &snap, &spans);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The in-memory sink backing `--metrics-json` span capture, when asked
/// for.
fn metrics_sink(args: &[String]) -> Option<Arc<MemorySink>> {
    flag_value(args, "--metrics-json").map(|_| MemorySink::shared())
}

/// Renders the per-pass table of an `--anytime` run: one row per rung
/// of the deepening ladder, in execution order.
fn anytime_table(passes: &[foc_core::PassReport]) -> String {
    use foc_core::{AnswerValue, PassStatus};
    let mut s = String::from(
        "pass    status               value  confidence      micros      fuel  progress\n",
    );
    for p in passes {
        let status = match &p.status {
            PassStatus::Completed => "completed".to_string(),
            PassStatus::Aborted => "aborted".to_string(),
            PassStatus::Tripped(i) => format!("tripped ({})", i.reason),
            PassStatus::Skipped(r) => format!("skipped ({r})"),
            PassStatus::Errored(_) => "errored".to_string(),
        };
        let value = match p.value {
            Some(AnswerValue::Bool(b)) => b.to_string(),
            Some(AnswerValue::Int(i)) => i.to_string(),
            None => "-".to_string(),
        };
        let confidence = p
            .confidence
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".to_string());
        let progress = if p.clusters_total == 0 {
            "-".to_string()
        } else {
            format!("{}/{}", p.clusters_done, p.clusters_total)
        };
        s.push_str(&format!(
            "{:<7} {status:<20} {value:>5}  {confidence:<14} {:>7} {:>9}  {progress}\n",
            p.pass.name(),
            p.micros,
            p.fuel_spent,
        ));
    }
    s
}

/// Shared tail of an `--anytime` evaluation: print the tagged answer,
/// the one-line engine note, and (with `--profile`) the pass table. A
/// banked answer is a success — exit 0 — even when the budget tripped;
/// the deepening driver only errs when *no* pass banked anything.
fn report_anytime<T: std::fmt::Display>(
    args: &[String],
    ev: &Evaluator,
    out: &foc_core::Anytime<T>,
    elapsed: Duration,
) {
    println!("{}", out.value);
    println!("confidence: {}", out.confidence);
    match &out.interrupt {
        Some(i) => eprintln!(
            "[{:?} engine, {elapsed:?}, best-so-far after {} during {}]",
            ev.kind(),
            i.reason,
            i.phase
        ),
        None => eprintln!("[{:?} engine, {elapsed:?}]", ev.kind()),
    }
    if has_flag(args, "--profile") {
        eprint!("{}", anytime_table(&out.passes));
    }
}

fn load(path: &str) -> CliResult<Structure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(parse_structure(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn cmd_check(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [path, src] = pos.as_slice() else {
        return Err(CliError::usage(
            "check needs a structure file and a sentence",
        ));
    };
    let s = load(path)?;
    let f = parse_formula(src).map_err(|e| e.to_string())?;
    if !f.is_sentence() {
        return Err(format!(
            "formula has free variables {:?}; use `foc count` instead",
            f.free_vars()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        )
        .into());
    }
    let mem = metrics_sink(args);
    // A sentence has no count to estimate; the estimator only engages
    // through the anytime ladder's approx rung (on counting subterms of
    // future rungs) — a bare `check --approx` is a usage error.
    if has_flag(args, "--approx") && !has_flag(args, "--anytime") {
        return Err(CliError::usage(
            "check answers true/false; --approx applies to eval/count (or combine with --anytime)",
        ));
    }
    let ev = engine_with_sink(args, mem.clone().map(|m| m as Arc<dyn Sink>))?;
    if has_flag(args, "--anytime") {
        let t0 = std::time::Instant::now();
        let out = ev.check_sentence_anytime(&s, &f, None, None)?;
        report_anytime(args, &ev, &out, t0.elapsed());
        return Ok(());
    }
    let mut session = ev.session(&s);
    let t0 = std::time::Instant::now();
    let ans = session.check_sentence(&f)?;
    println!("{ans}");
    eprintln!("[{:?} engine, {:?}]", ev.kind(), t0.elapsed());
    finish_session(args, &ev, session, mem)
}

fn cmd_eval(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [path, src] = pos.as_slice() else {
        return Err(CliError::usage(
            "eval needs a structure file and a ground term",
        ));
    };
    let s = load(path)?;
    let t = parse_term(src).map_err(|e| e.to_string())?;
    if !t.is_ground() {
        return Err("term has free variables; use `foc count` for formulas".into());
    }
    let mem = metrics_sink(args);
    let ev = engine_with_sink(args, mem.clone().map(|m| m as Arc<dyn Sink>))?;
    if has_flag(args, "--anytime") {
        let t0 = std::time::Instant::now();
        let out = ev.eval_ground_anytime(&s, &t, None, None)?;
        report_anytime(args, &ev, &out, t0.elapsed());
        return Ok(());
    }
    if has_flag(args, "--approx") || flag_value(args, "--epsilon").is_some() {
        let t0 = std::time::Instant::now();
        let v = ev.approx_count(&s, &t)?;
        report_approx(&ev, &v, t0.elapsed());
        return Ok(());
    }
    let mut session = ev.session(&s);
    let t0 = std::time::Instant::now();
    let val = session.eval_ground(&t)?;
    println!("{val}");
    eprintln!("[{:?} engine, {:?}]", ev.kind(), t0.elapsed());
    finish_session(args, &ev, session, mem)
}

fn cmd_count(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [path, src] = pos.as_slice() else {
        return Err(CliError::usage(
            "count needs a structure file and a formula",
        ));
    };
    let vars: Vec<Var> = flag_value(args, "--vars")
        .ok_or_else(|| CliError::usage("count needs --vars x,y,…"))?
        .split(',')
        .map(|v| Var::new(v.trim()))
        .collect();
    let s = load(path)?;
    let f = parse_formula(src).map_err(|e| e.to_string())?;
    let mem = metrics_sink(args);
    let ev = engine_with_sink(args, mem.clone().map(|m| m as Arc<dyn Sink>))?;
    let t: Arc<foc_logic::Term> =
        Arc::new(foc_logic::Term::Count(vars.into_boxed_slice(), f.clone()));
    if has_flag(args, "--anytime") {
        let t0 = std::time::Instant::now();
        let out = ev.eval_ground_anytime(&s, &t, None, None)?;
        report_anytime(args, &ev, &out, t0.elapsed());
        return Ok(());
    }
    if has_flag(args, "--approx") || flag_value(args, "--epsilon").is_some() {
        let t0 = std::time::Instant::now();
        let v = ev.approx_count(&s, &t)?;
        report_approx(&ev, &v, t0.elapsed());
        return Ok(());
    }
    let mut session = ev.session(&s);
    let t0 = std::time::Instant::now();
    let val = session.eval_ground(&t)?;
    println!("{val}");
    eprintln!("[{:?} engine, {:?}]", ev.kind(), t0.elapsed());
    finish_session(args, &ev, session, mem)
}

/// `foc explain`: run a sentence or ground term with an in-memory span
/// sink and render the span tree, the metrics table, and the phase
/// profile. Works with every engine; the local and cover engines
/// produce the interesting trees.
fn cmd_explain(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [path, src] = pos.as_slice() else {
        return Err(CliError::usage(
            "explain needs a structure file and a sentence or ground term",
        ));
    };
    let s = load(path)?;
    let mem = MemorySink::shared();
    let ev = engine_with_sink(args, Some(mem.clone() as Arc<dyn Sink>))?;
    if has_flag(args, "--anytime") {
        return explain_anytime(&s, src, &ev, &mem);
    }
    let mut session = ev.session(&s);
    let t0 = std::time::Instant::now();
    let outcome: Result<String, foc_core::Error> = match parse_formula(src) {
        Ok(f) if f.is_sentence() => session.check_sentence(&f).map(|b| b.to_string()),
        _ => {
            let t = parse_term(src).map_err(|e| format!("not a sentence or term: {e}"))?;
            if !t.is_ground() {
                return Err("explain needs a sentence or a ground term (no free variables)".into());
            }
            session.eval_ground(&t).map(|v| v.to_string())
        }
    };
    let elapsed = t0.elapsed();
    // An interrupted run still renders the span tree and the metrics —
    // the partial trace shows which phase the budget cut short — and
    // then exits with the interrupt code.
    let (answer, interrupt) = match outcome {
        Ok(v) => (v, None),
        Err(foc_core::Error::Interrupted(i)) => (format!("interrupted ({i})"), Some(i)),
        Err(e) => return Err(e.into()),
    };
    let stats = session.stats();
    let snap = session.observer().metrics().snapshot();
    drop(session);
    println!("answer: {answer}");
    println!("engine: {:?} ({elapsed:?})", ev.kind());
    println!();
    println!("span tree:");
    print!("{}", render_tree(&build_tree(&mem.spans())));
    println!();
    println!("metrics:");
    print!("{}", render_metrics_table(&snap));
    println!();
    print!("{}", profile_table(&stats));
    if let Some(json_path) = flag_value(args, "--metrics-json") {
        let phases = [
            ("materialize", stats.phase.materialize.as_micros() as u64),
            ("decompose", stats.phase.decompose.as_micros() as u64),
            ("cover", stats.phase.cover.as_micros() as u64),
            ("eval", stats.phase.eval.as_micros() as u64),
        ];
        let engine = format!("{:?}", ev.kind()).to_lowercase();
        let json = session_json(&engine, &phases, &snap, &mem.spans());
        std::fs::write(json_path, json).map_err(|e| format!("cannot write {json_path}: {e}"))?;
        eprintln!("wrote {json_path}");
    }
    match interrupt {
        Some(i) => Err(CliError::Interrupted(i)),
        None => Ok(()),
    }
}

/// The `--anytime` arm of `foc explain`: run the deepening driver and
/// render the per-pass table in place of the single-session profile
/// (the passes run their own sessions, so there is no one phase table
/// to print). A banked answer exits 0 even when the budget tripped;
/// only a zero-progress run keeps the interrupt exit code, after still
/// rendering whatever spans the attempts produced.
fn explain_anytime(s: &Structure, src: &str, ev: &Evaluator, mem: &Arc<MemorySink>) -> CliResult {
    let t0 = std::time::Instant::now();
    let run = match parse_formula(src) {
        Ok(f) if f.is_sentence() => ev
            .check_sentence_anytime(s, &f, None, None)
            .map(|o| (o.value.to_string(), o.confidence, o.passes, o.interrupt)),
        _ => {
            let t = parse_term(src).map_err(|e| format!("not a sentence or term: {e}"))?;
            if !t.is_ground() {
                return Err("explain needs a sentence or a ground term (no free variables)".into());
            }
            ev.eval_ground_anytime(s, &t, None, None)
                .map(|o| (o.value.to_string(), o.confidence, o.passes, o.interrupt))
        }
    };
    let elapsed = t0.elapsed();
    let (answer, confidence, passes, interrupt) = match run {
        Ok(out) => out,
        Err(foc_core::Error::Interrupted(i)) => {
            println!("answer: interrupted ({i}) — no pass banked an answer");
            println!("engine: {:?} ({elapsed:?})", ev.kind());
            println!();
            println!("span tree:");
            print!("{}", render_tree(&build_tree(&mem.spans())));
            return Err(CliError::Interrupted(i));
        }
        Err(e) => return Err(e.into()),
    };
    println!("answer: {answer}");
    println!("confidence: {confidence}");
    if let Some(i) = &interrupt {
        println!("budget: {i}");
    }
    println!("engine: {:?} ({elapsed:?})", ev.kind());
    println!();
    println!("passes:");
    print!("{}", anytime_table(&passes));
    println!();
    println!("span tree:");
    print!("{}", render_tree(&build_tree(&mem.spans())));
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [path] = pos.as_slice() else {
        return Err(CliError::usage("stats needs a structure file"));
    };
    let s = load(path)?;
    let g = s.gaifman();
    println!("order |A|      = {}", s.order());
    println!("size ‖A‖       = {}", s.size());
    println!("signature      = {:?}", s.signature());
    println!("gaifman edges  = {}", g.num_edges());
    println!("max degree     = {}", g.max_degree());
    let (_, comps) = g.components();
    println!("components     = {comps}");
    let r: u32 = flag_value(args, "--cover-r")
        .unwrap_or("2")
        .parse()
        .map_err(|_| CliError::usage("--cover-r needs an integer"))?;
    let cov = foc_covers::cover::build_cover(g, r);
    println!(
        "({r},{})-cover   = {} clusters, max cover degree {}, max radius {}",
        2 * r,
        cov.clusters.len(),
        cov.max_degree(),
        cov.max_radius(g),
    );
    let mut rng = StdRng::seed_from_u64(1);
    let game = foc_covers::splitter::estimate_game_length(g, 1, 3, &mut rng, 256);
    println!(
        "splitter λ̂(1)  = {} rounds ({})",
        game.rounds,
        if game.splitter_won {
            "Splitter wins"
        } else {
            "cap reached — dense?"
        }
    );
    Ok(())
}

fn cmd_gen(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [class] = pos.as_slice() else {
        return Err(CliError::usage("gen needs a class name"));
    };
    let n: u32 = flag_value(args, "--n")
        .ok_or_else(|| CliError::usage("gen needs --n"))?
        .parse()
        .map_err(|_| CliError::usage("--n needs an integer"))?;
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| CliError::usage("--seed needs an integer"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let s = match class.as_str() {
        "tree" => generators::random_tree(n, &mut rng),
        "grid" => {
            let side = (n as f64).sqrt().round().max(1.0) as u32;
            generators::grid(side, side)
        }
        "path" => generators::path(n),
        "cycle" => generators::cycle(n.max(3)),
        "star" => generators::star(n),
        "clique" => generators::clique(n),
        "deg3" => generators::bounded_degree(n, 3, 3 * n as usize, &mut rng),
        "gnm" => generators::gnm(n, 2 * n as usize, &mut rng),
        other => return Err(CliError::usage(format!("unknown class {other:?}"))),
    };
    let text = write_structure(&s);
    match flag_value(args, "-o") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} ({} elements, size {})", path, s.order(), s.size());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `foc fuzz`: the cross-engine differential harness. Fuzzes when given
/// a budget/iteration count; replays the persisted corpus with
/// `--replay`. Stdout is deterministic for a fixed seed; any divergence
/// exits 1.
fn cmd_fuzz(args: &[String]) -> CliResult {
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| CliError::usage("--seed needs an integer"))?;
    let iters: Option<u64> = match flag_value(args, "--iters") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::usage("--iters needs an integer"))?,
        ),
        None => None,
    };
    let budget_secs: Option<u64> = match flag_value(args, "--budget") {
        Some(v) => Some(
            v.strip_suffix('s')
                .unwrap_or(v)
                .parse()
                .map_err(|_| CliError::usage(format!("invalid --budget {v:?} (try 30s)")))?,
        ),
        None => None,
    };
    let mut gen = foc_diff::GenConfig::default();
    if let Some(v) = flag_value(args, "--max-order") {
        gen.max_order = v
            .parse()
            .map_err(|_| CliError::usage("--max-order needs an integer"))?;
    }
    if has_flag(args, "--crash") {
        let mut cfg = foc_diff::CrashConfig {
            seed,
            gen,
            ..foc_diff::CrashConfig::default()
        };
        if let Some(i) = iters {
            cfg.iters = i;
        }
        if let Some(v) = flag_value(args, "--steps") {
            cfg.steps = v
                .parse()
                .map_err(|_| CliError::usage("--steps needs an integer"))?;
        }
        if let Some(v) = flag_value(args, "--checkpoint-every") {
            cfg.checkpoint_every = v
                .parse()
                .map_err(|_| CliError::usage("--checkpoint-every needs an integer"))?;
        }
        let metrics = foc_obs::Metrics::new();
        let mut stdout = std::io::stdout().lock();
        let report = foc_diff::fuzz_crash(&cfg, &metrics, &mut stdout);
        drop(stdout);
        if let Some(path) = flag_value(args, "--metrics-json") {
            let json = session_json("fuzz-crash", &[], &metrics.snapshot(), &[]);
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        return if report.clean() {
            Ok(())
        } else {
            Err(CliError::Runtime(format!(
                "{} crash-recovery violation(s) across {} kill point(s)",
                report.violations.len(),
                report.kill_points
            )))
        };
    }
    if has_flag(args, "--updates") {
        let mut cfg = foc_diff::UpdatesConfig {
            seed,
            gen,
            ..foc_diff::UpdatesConfig::default()
        };
        if let Some(i) = iters {
            cfg.iters = i;
        }
        if let Some(v) = flag_value(args, "--steps") {
            cfg.steps = v
                .parse()
                .map_err(|_| CliError::usage("--steps needs an integer"))?;
        }
        let metrics = foc_obs::Metrics::new();
        let mut stdout = std::io::stdout().lock();
        let report = foc_diff::fuzz_updates(&cfg, &metrics, &mut stdout);
        drop(stdout);
        if let Some(path) = flag_value(args, "--metrics-json") {
            let json = session_json("fuzz-updates", &[], &metrics.snapshot(), &[]);
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        return if report.clean() {
            Ok(())
        } else {
            Err(CliError::Runtime(format!(
                "{} update divergence(s) across {} interleaving(s)",
                report.divergences.len(),
                report.cases
            )))
        };
    }
    // Test-only hook (deliberately undocumented in the usage text): flip
    // the local engine's sentence verdicts on structures of order >= K,
    // to validate the catch -> shrink -> replay pipeline end to end.
    let mut injection = foc_diff::BugInjection::default();
    if let Some(v) = flag_value(args, "--inject-flip-local") {
        injection.flip_local_sentence_min_order = Some(
            v.parse()
                .map_err(|_| CliError::usage("--inject-flip-local needs an integer"))?,
        );
    }
    // Per-case deadline: `0` disables it; the default is generous enough
    // that healthy runs keep byte-identical logs.
    let case_deadline = match flag_value(args, "--case-timeout") {
        Some(v) => {
            let ms: u64 = v.parse().map_err(|_| {
                CliError::usage(format!("invalid --case-timeout {v:?} (milliseconds)"))
            })?;
            (ms > 0).then(|| Duration::from_millis(ms))
        }
        None => Some(foc_diff::DEFAULT_CASE_DEADLINE),
    };
    let cfg = foc_diff::FuzzConfig {
        seed,
        iters,
        budget_secs,
        gen,
        corpus_dir: flag_value(args, "--corpus").map(std::path::PathBuf::from),
        injection,
        metamorphic: !has_flag(args, "--no-meta"),
        anytime: !has_flag(args, "--no-anytime"),
        shrink: !has_flag(args, "--no-shrink"),
        case_deadline,
    };
    let metrics = foc_obs::Metrics::new();
    let mut stdout = std::io::stdout().lock();
    let report = if has_flag(args, "--replay") {
        if cfg.corpus_dir.is_none() {
            return Err(CliError::usage("--replay needs --corpus <dir>"));
        }
        foc_diff::replay(&cfg, &metrics, &mut stdout)
    } else {
        foc_diff::fuzz(&cfg, &metrics, &mut stdout)
    };
    drop(stdout);
    if let Some(path) = flag_value(args, "--metrics-json") {
        let json = session_json("fuzz", &[], &metrics.snapshot(), &[]);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if report.clean() {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} divergence(s) across {} case(s)",
            report.found.len(),
            report.cases
        )))
    }
}

/// `foc serve`: load the structure once, serve JSON-lines queries over
/// TCP until stdin closes (or sends a `drain` line), then drain
/// gracefully. Exit code 3 when the drain deadline passed and in-flight
/// requests had to be interrupted.
fn cmd_serve(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [path] = pos.as_slice() else {
        return Err(CliError::usage("serve needs exactly one structure file"));
    };
    let structure = load(path)?;

    let mut config = foc_serve::ServerConfig::default();
    if let Some(v) = flag_value(args, "--port") {
        let port: u16 = v
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --port {v:?}")))?;
        config.addr = format!("127.0.0.1:{port}");
    }
    let usize_flag = |flag: &str, default: usize| -> CliResult<usize> {
        match flag_value(args, flag) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("invalid {flag} {v:?}"))),
            None => Ok(default),
        }
    };
    let u64_flag = |flag: &str| -> CliResult<Option<u64>> {
        match flag_value(args, flag) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("invalid {flag} {v:?}"))),
            None => Ok(None),
        }
    };
    config.max_inflight = usize_flag("--max-inflight", config.max_inflight)?;
    config.queue = usize_flag("--queue", config.queue)?;
    config.threads = usize_flag("--threads", config.threads)?;
    config.mem_limit = u64_flag("--mem-limit")?;
    config.max_fuel = u64_flag("--max-fuel")?;
    if let Some(ms) = u64_flag("--drain-timeout")? {
        config.drain_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = u64_flag("--max-timeout")? {
        config.max_timeout = Duration::from_millis(ms);
    }
    config.engine = match flag_value(args, "--engine").unwrap_or("local") {
        "naive" => EngineKind::Naive,
        "local" => EngineKind::Local,
        "cover" => EngineKind::Cover,
        other => return Err(CliError::usage(format!("unknown engine {other:?}"))),
    };
    config.telemetry_addr = flag_value(args, "--telemetry-addr").map(str::to_string);
    config.trace_path = flag_value(args, "--trace-log").map(std::path::PathBuf::from);
    config.postmortem_dir = flag_value(args, "--postmortem-dir").map(std::path::PathBuf::from);
    config.tracing = !has_flag(args, "--no-tracing");
    if let Some(n) = u64_flag("--trace-sample")? {
        config.trace_sample = n;
    }
    if let Some(s) = u64_flag("--trace-seed")? {
        config.trace_seed = s;
    }
    if let Some(ms) = u64_flag("--slow-query")? {
        config.slow_query = Some(Duration::from_millis(ms));
    }
    config.wal_dir = flag_value(args, "--wal-dir").map(std::path::PathBuf::from);
    if let Some(v) = flag_value(args, "--fsync") {
        config.fsync = v.parse::<foc_wal::FsyncPolicy>().map_err(CliError::usage)?;
    }
    config.max_frame_bytes = usize_flag("--max-frame-bytes", config.max_frame_bytes)?;
    if let Some(b) = u64_flag("--wal-checkpoint-bytes")? {
        config.wal_checkpoint_bytes = b;
    }

    let wal_on = config.wal_dir.is_some();
    let handle = foc_serve::start(structure, config)
        .map_err(|e| CliError::Runtime(format!("cannot bind: {e}")))?;
    println!("listening on {}", handle.addr());
    if let Some(taddr) = handle.telemetry_addr() {
        println!("telemetry on {taddr}");
    }
    if wal_on {
        // Supervisors restarting after a crash read this line to learn
        // how much log tail the checkpoint left to replay.
        println!(
            "wal recovered ({} record(s) replayed)",
            handle
                .metrics()
                .counter(foc_obs::names::RECOVERY_REPLAYED)
                .get()
        );
    }
    // `println!` buffers per line, but be explicit: supervisors wait on
    // this line to learn the ephemeral port.
    std::io::stdout().flush().ok();

    // Block until something asks for the graceful drain: stdin EOF
    // (supervisor closed the pipe), an explicit "drain" line, SIGINT, or
    // SIGTERM. Stdin is read on a helper thread because a blocking
    // `read_line` cannot observe the signal flag (handlers are installed
    // with restart semantics on most platforms); the main thread polls
    // both the channel and the flag. The helper stays parked in its read
    // after a signal-triggered exit, which is fine — the process is
    // about to finish the drain and exit.
    signals::install();
    let (tx, rx) = std::sync::mpsc::channel::<Option<String>>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) => {
                    let _ = tx.send(None);
                    break;
                }
                Ok(_) => {
                    if tx.send(Some(line.trim().to_string())).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    eprintln!("foc: stdin error, draining: {e}");
                    let _ = tx.send(None);
                    break;
                }
            }
        }
    });
    loop {
        if signals::triggered() {
            eprintln!("foc: signal received, draining");
            break;
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(None) => break,
            Ok(Some(l)) if l == "drain" => break,
            Ok(Some(_)) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    let report = handle.drain();
    let snap = &report.final_metrics;
    eprintln!(
        "drained in {:?}: {} request(s) served, {} shed, {} interrupted by the drain deadline, {} connection(s) joined",
        report.drain,
        snap.counter(foc_obs::names::SERVE_REQUESTS),
        snap.counter(foc_obs::names::SERVE_SHED),
        report.interrupted,
        report.connections_joined,
    );
    if let Some(path) = flag_value(args, "--metrics-json") {
        let json = session_json("serve", &[], snap, &[]);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if report.interrupted > 0 {
        return Err(CliError::Interrupted(foc_core::Interrupt {
            reason: foc_core::TripReason::Cancelled,
            phase: foc_core::Phase::Engine,
            fuel_spent: 0,
        }));
    }
    Ok(())
}

/// SIGINT/SIGTERM handling without a signal crate: a handler that only
/// sets an atomic flag, installed through the C `signal` entry point
/// (async-signal-safe — an atomic store is on the safe list).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> isize;
    }

    extern "C" fn on_signal(_sig: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGINT and SIGTERM to the drain flag.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Whether a drain-triggering signal has arrived.
    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

/// On non-unix targets signals never trigger; stdin still drives drain.
#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn triggered() -> bool {
        false
    }
}

/// `foc recover`: recover a WAL directory offline — verify the
/// checkpoint, truncate any torn log tail, replay the surviving records
/// (each verified against its recorded fingerprint), and report the
/// recovered state. `--structure` seeds a directory that has no
/// checkpoint yet; `-o` writes the recovered structure out.
fn cmd_recover(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [dir] = pos.as_slice() else {
        return Err(CliError::usage("recover needs exactly one <wal-dir>"));
    };
    let base = match flag_value(args, "--structure") {
        Some(p) => Some(load(p)?),
        None => None,
    };
    let store = foc_wal::DirStore::open(std::path::Path::new(dir.as_str()))
        .map_err(|e| format!("cannot open {dir}: {e}"))?;
    let (_, rec) = foc_wal::Wal::recover(store, foc_wal::FsyncPolicy::Always, base)
        .map_err(|e| format!("{dir}: {e}"))?;
    println!(
        "recovered epoch {} fingerprint {:016x} ({} replayed, {} skipped, {} torn byte(s) truncated, checkpoint at epoch {})",
        rec.delta.epoch(),
        rec.fingerprint,
        rec.replayed,
        rec.skipped,
        rec.truncated_bytes,
        rec.checkpoint_epoch,
    );
    if let Some(out) = flag_value(args, "-o") {
        std::fs::write(out, write_structure(rec.delta.current()))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// `foc wal inspect`: read-only scan of a WAL directory — checkpoint
/// header, per-record summaries, and torn-tail accounting. Unlike
/// `foc recover` this never truncates anything.
fn cmd_wal(args: &[String]) -> CliResult {
    let Some(sub) = args.first() else {
        return Err(CliError::usage("wal needs a subcommand (inspect)"));
    };
    if sub != "inspect" {
        return Err(CliError::usage(format!("unknown wal subcommand {sub:?}")));
    }
    let rest = &args[1..];
    let pos = positional(rest);
    let [dir] = pos.as_slice() else {
        return Err(CliError::usage("wal inspect needs exactly one <wal-dir>"));
    };
    let mut store = foc_wal::DirStore::open(std::path::Path::new(dir.as_str()))
        .map_err(|e| format!("cannot open {dir}: {e}"))?;
    let insp = foc_wal::inspect(&mut store).map_err(|e| format!("{dir}: {e}"))?;
    match insp.checkpoint {
        Some((epoch, fp, order)) => {
            println!("checkpoint epoch {epoch} fingerprint {fp:016x} universe {order}")
        }
        None => println!("checkpoint none"),
    }
    println!(
        "log {} record(s), {} valid byte(s)",
        insp.records.len(),
        insp.valid_bytes
    );
    for (epoch, fp, ops) in &insp.records {
        println!("  record epoch {epoch} fingerprint {fp:016x} {ops} op(s)");
    }
    if insp.torn_bytes > 0 {
        println!(
            "torn tail {} byte(s): {}",
            insp.torn_bytes,
            insp.torn_reason.as_deref().unwrap_or("unknown cause")
        );
    }
    Ok(())
}

/// One hand-rolled HTTP/1.1 GET against a serve telemetry listener.
/// Returns the response body on a 200; anything else is an error with
/// the status line in the message.
fn http_get(addr: &str, path: &str) -> CliResult<String> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::Runtime(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| format!("socket setup: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: foc\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("cannot send request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {addr}"))?;
    let status_line = head.lines().next().unwrap_or("");
    if status_line.split_whitespace().nth(1) != Some("200") {
        return Err(CliError::Runtime(format!(
            "{addr}{path} answered {status_line:?}"
        )));
    }
    Ok(body.to_string())
}

/// Pulls one `"key":<number-or-bool>` field out of a one-line JSON
/// object by string scan. `/stats` carries one fractional field
/// (`cache_hit_rate`), which the strict protocol parser rejects by
/// design, so `foc top` reads fields positionally instead of parsing.
fn stats_field<'a>(stats: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let Some(at) = stats.find(&needle) else {
        return "?";
    };
    let rest = &stats[at + needle.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim()
}

/// A `/stats` body must be one complete one-line JSON object. Anything
/// else — a truncated read, an empty body, an HTML error page — gets a
/// clear one-line diagnostic and a nonzero exit instead of a table of
/// `?` placeholders.
fn validate_stats(addr: &str, body: &str) -> CliResult<()> {
    let t = body.trim();
    if t.starts_with('{') && t.ends_with('}') && t.contains("\"uptime_micros\":") {
        return Ok(());
    }
    let preview: String = t.chars().take(60).collect();
    Err(CliError::Runtime(format!(
        "truncated or malformed /stats response from {addr} ({} bytes): {preview:?}",
        t.len()
    )))
}

/// `foc top`: poll a serve telemetry listener's `/stats` endpoint and
/// print live server state — one compact line per poll, or the full
/// field table once with `--once`.
fn cmd_top(args: &[String]) -> CliResult {
    let pos = positional(args);
    let [addr] = pos.as_slice() else {
        return Err(CliError::usage(
            "top needs exactly one <host:port> (the serve --telemetry-addr)",
        ));
    };
    let interval = match flag_value(args, "--interval") {
        Some(v) => Duration::from_millis(
            v.parse()
                .map_err(|_| CliError::usage(format!("invalid --interval {v:?}")))?,
        ),
        None => Duration::from_millis(1000),
    };
    let once = has_flag(args, "--once");

    loop {
        let stats = http_get(addr, "/stats")?;
        validate_stats(addr, &stats)?;
        if once {
            // Full table: every field of the one-line JSON, one per row.
            for field in [
                "uptime_micros",
                "inflight",
                "queue_depth",
                "draining",
                "pressure",
                "epoch",
                "requests",
                "shed",
                "errors",
                "interrupted",
                "slow_queries",
                "traces_kept",
                "postmortems",
                "cache_entries",
                "cache_bytes",
                "cache_hit_rate",
                "resident_bytes",
                "peak_resident_bytes",
                "wal_enabled",
                "wal_readonly",
                "wal_last_sync_age_micros",
                "wal_bytes_since_checkpoint",
                "wal_appends",
                "wal_checkpoints",
                "frames_oversized",
                "recovery_replayed",
            ] {
                println!("{field:<22} {}", stats_field(&stats, field));
            }
            return Ok(());
        }
        let uptime_s = stats_field(&stats, "uptime_micros")
            .parse::<u64>()
            .unwrap_or(0) as f64
            / 1e6;
        // WAL health (satellite of the durability work): last-fsync age
        // and log growth since the last checkpoint, only when a WAL is
        // configured on the server.
        let wal = if stats_field(&stats, "wal_enabled") == "true" {
            format!(
                "  wal age {}us log {}B",
                stats_field(&stats, "wal_last_sync_age_micros"),
                stats_field(&stats, "wal_bytes_since_checkpoint"),
            )
        } else {
            String::new()
        };
        println!(
            "up {uptime_s:7.1}s  inflight {:>3}  queue {:>3}  req {:>6}  shed {:>4}  err {:>4}  slow {:>4}  cache {} ({} B, hit {})  pressure {}{wal}{}{}",
            stats_field(&stats, "inflight"),
            stats_field(&stats, "queue_depth"),
            stats_field(&stats, "requests"),
            stats_field(&stats, "shed"),
            stats_field(&stats, "errors"),
            stats_field(&stats, "slow_queries"),
            stats_field(&stats, "cache_entries"),
            stats_field(&stats, "cache_bytes"),
            stats_field(&stats, "cache_hit_rate"),
            stats_field(&stats, "pressure"),
            if stats_field(&stats, "wal_readonly") == "true" {
                "  WAL-READONLY"
            } else {
                ""
            },
            if stats_field(&stats, "draining") == "true" {
                "  DRAINING"
            } else {
                ""
            },
        );
        std::io::stdout().flush().ok();
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = argv(&["check", "db.foc", "true", "--engine", "naive"]);
        assert_eq!(flag_value(&args, "--engine"), Some("naive"));
        assert_eq!(flag_value(&args, "--vars"), None);
    }

    #[test]
    fn positionals_skip_flag_values() {
        let args = argv(&["db.foc", "--engine", "naive", "E(x,y)", "--vars", "x,y"]);
        let pos = positional(&args);
        assert_eq!(pos, vec!["db.foc", "E(x,y)"]);
    }

    #[test]
    fn top_boolean_flags_do_not_eat_positionals() {
        let args = argv(&["127.0.0.1:9100", "--once"]);
        assert_eq!(positional(&args), vec!["127.0.0.1:9100"]);
        let args = argv(&["db.foc", "--no-tracing", "--queue", "4"]);
        assert_eq!(positional(&args), vec!["db.foc"]);
    }

    #[test]
    fn stats_fields_are_extracted_by_scan() {
        let stats = "{\"uptime_micros\":1500000,\"inflight\":3,\"draining\":false,\"cache_hit_rate\":0.7500,\"peak_resident_bytes\":42}";
        assert_eq!(stats_field(stats, "inflight"), "3");
        assert_eq!(stats_field(stats, "draining"), "false");
        assert_eq!(stats_field(stats, "cache_hit_rate"), "0.7500");
        assert_eq!(stats_field(stats, "peak_resident_bytes"), "42");
        assert_eq!(stats_field(stats, "missing"), "?");
    }

    #[test]
    fn engine_selection() {
        assert_eq!(
            engine_with_sink(&argv(&["--engine", "cover"]), None)
                .unwrap()
                .kind(),
            EngineKind::Cover
        );
        assert_eq!(
            engine_with_sink(&argv(&[]), None).unwrap().kind(),
            EngineKind::Local
        );
        assert!(engine_with_sink(&argv(&["--engine", "warp"]), None).is_err());
    }

    #[test]
    fn boolean_flags_do_not_eat_positionals() {
        let args = argv(&["db.foc", "--profile", "E(x,y)", "--trace"]);
        let pos = positional(&args);
        assert_eq!(pos, vec!["db.foc", "E(x,y)"]);
        assert!(has_flag(&args, "--profile"));
        assert!(has_flag(&args, "--trace"));
        assert!(!has_flag(&args, "--metrics-json"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&[])).is_err());
    }

    #[test]
    fn nonexistent_structure_file_is_a_runtime_error() {
        for cmd in ["check", "eval"] {
            let query = if cmd == "check" { "true" } else { "1 + 1" };
            let r = run(&argv(&[cmd, "/nonexistent/no-such-file.foc", query]));
            match r {
                Err(CliError::Runtime(msg)) => {
                    assert!(
                        msg.contains("no-such-file.foc"),
                        "diagnostic names the file: {msg}"
                    );
                    assert!(!msg.contains('\n'), "one-line diagnostic: {msg:?}");
                }
                other => panic!("expected a runtime error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_structure_file_is_a_runtime_error() {
        let dir = std::env::temp_dir().join(format!("foc-cli-malformed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.foc");
        std::fs::write(&path, "this is not ; a structure {{{").unwrap();
        let pstr = path.to_str().unwrap().to_string();
        for cmd in ["check", "eval"] {
            let query = if cmd == "check" { "true" } else { "1 + 1" };
            let r = run(&argv(&[cmd, &pstr, query]));
            match r {
                Err(CliError::Runtime(msg)) => {
                    assert!(msg.contains("bad.foc"), "diagnostic names the file: {msg}");
                    assert!(!msg.contains('\n'), "one-line diagnostic: {msg:?}");
                }
                other => panic!("expected a runtime error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_arguments_are_usage_errors() {
        assert!(matches!(run(&argv(&["check"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            engine_with_sink(&argv(&["--timeout", "abc"]), None),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            engine_with_sink(&argv(&["--fuel", "-3"]), None),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn budget_flags_reach_the_engine() {
        let ev = engine_with_sink(&argv(&["--timeout", "250", "--fuel", "99"]), None).unwrap();
        assert_eq!(ev.budget().deadline, Some(Duration::from_millis(250)));
        assert_eq!(ev.budget().fuel, Some(99));
        assert_eq!(ev.config().degrade, DegradePolicy::FallThrough);
        let strict = engine_with_sink(&argv(&["--strict"]), None).unwrap();
        assert_eq!(strict.config().degrade, DegradePolicy::Strict);
    }

    #[test]
    fn exhausted_fuel_surfaces_as_interrupted() {
        let dir = std::env::temp_dir().join(format!("foc-cli-fuel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.foc");
        let pstr = path.to_str().unwrap().to_string();
        run(&argv(&["gen", "clique", "--n", "24", "-o", &pstr])).unwrap();
        // The count must enumerate every assignment, so tiny fuel trips.
        let r = run(&argv(&[
            "check",
            &pstr,
            "#(x,y,z). (E(x,y) & E(y,z) & E(x,z)) >= 100000",
            "--engine",
            "naive",
            "--fuel",
            "5",
        ]));
        assert!(matches!(r, Err(CliError::Interrupted(_))), "got {r:?}");
        // `--strict` with a boolean-flag position must not eat positionals.
        let r = run(&argv(&[
            "check", &pstr, "--strict", "true", "--fuel", "1000000",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fuzz_clean_run_and_usage_errors() {
        assert!(run(&argv(&[
            "fuzz",
            "--seed",
            "1",
            "--iters",
            "15",
            "--no-meta"
        ]))
        .is_ok());
        assert!(matches!(
            run(&argv(&["fuzz", "--replay"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["fuzz", "--budget", "abc"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fuzz_injected_bug_diverges_then_replays_clean_once_fixed() {
        let dir = std::env::temp_dir().join(format!("foc-cli-fuzz-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let corpus = dir.to_str().unwrap().to_string();
        // The injected flip must be caught and exit as a runtime error.
        let r = run(&argv(&[
            "fuzz",
            "--seed",
            "5",
            "--iters",
            "20",
            "--no-meta",
            "--corpus",
            &corpus,
            "--inject-flip-local",
            "3",
        ]));
        assert!(matches!(r, Err(CliError::Runtime(_))), "got {r:?}");
        // Replaying the persisted corpus with the bug still present fails…
        let r = run(&argv(&[
            "fuzz",
            "--replay",
            "--corpus",
            &corpus,
            "--no-meta",
            "--inject-flip-local",
            "3",
        ]));
        assert!(matches!(r, Err(CliError::Runtime(_))), "got {r:?}");
        // …and passes once the bug is gone.
        let r = run(&argv(&[
            "fuzz",
            "--replay",
            "--corpus",
            &corpus,
            "--no-meta",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn anytime_banks_an_answer_where_plain_interrupts() {
        let dir = std::env::temp_dir().join(format!("foc-cli-anytime-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.foc");
        let pstr = path.to_str().unwrap().to_string();
        run(&argv(&["gen", "grid", "--n", "144", "-o", &pstr])).unwrap();
        let query = "#(x,y). !(dist(x,y) <= 2)";
        // The plain run trips its fuel budget and exits 3…
        let r = run(&argv(&[
            "eval", &pstr, query, "--engine", "naive", "--fuel", "2000",
        ]));
        assert!(matches!(r, Err(CliError::Interrupted(_))), "got {r:?}");
        // …the same budget under --anytime banks a tagged answer (exit 0).
        let r = run(&argv(&[
            "eval",
            &pstr,
            query,
            "--engine",
            "naive",
            "--fuel",
            "2000",
            "--anytime",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        // `count` takes the same path through the deepening driver.
        let r = run(&argv(&[
            "count",
            &pstr,
            "!(dist(x,y) <= 2)",
            "--vars",
            "x,y",
            "--engine",
            "naive",
            "--fuel",
            "2000",
            "--anytime",
            "--profile",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        // `explain --anytime` renders the pass table and also exits 0.
        let r = run(&argv(&[
            "explain",
            &pstr,
            query,
            "--engine",
            "naive",
            "--fuel",
            "2000",
            "--anytime",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        // An unbounded anytime run is exact and exits 0 too.
        let r = run(&argv(&[
            "check",
            &pstr,
            "exists x. #(y). E(x,y) >= 4",
            "--anytime",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn approx_flags_estimate_counts_and_reject_misuse() {
        let dir = std::env::temp_dir().join(format!("foc-cli-approx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k.foc");
        let pstr = path.to_str().unwrap().to_string();
        run(&argv(&["gen", "clique", "--n", "40", "-o", &pstr])).unwrap();
        // The estimator answers eval and count; --epsilon alone implies it.
        let r = run(&argv(&["eval", &pstr, "#(x,y). E(x,y)", "--approx"]));
        assert!(r.is_ok(), "got {r:?}");
        let r = run(&argv(&[
            "count",
            &pstr,
            "E(x,y)",
            "--vars",
            "x,y",
            "--epsilon",
            "0.05",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        // Estimator knobs are validated up front…
        let r = run(&argv(&["eval", &pstr, "#(x). x = x", "--epsilon", "7"]));
        assert!(matches!(r, Err(CliError::Usage(_))), "got {r:?}");
        // …a sentence has nothing to estimate without the ladder…
        let r = run(&argv(&["check", &pstr, "exists x. E(x,x)", "--approx"]));
        assert!(matches!(r, Err(CliError::Usage(_))), "got {r:?}");
        // …but the anytime ladder accepts the knob everywhere.
        let r = run(&argv(&[
            "check",
            &pstr,
            "exists x. E(x,x)",
            "--approx",
            "--anytime",
        ]));
        assert!(r.is_ok(), "got {r:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_refused_connection_is_a_runtime_error() {
        // Bind-then-drop guarantees a port with nothing listening.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let r = run(&argv(&["top", &addr, "--once"]));
        match r {
            Err(CliError::Runtime(msg)) => {
                assert!(msg.contains("cannot connect"), "names the failure: {msg}");
                assert!(msg.contains(&addr), "names the address: {msg}");
            }
            other => panic!("expected a runtime error, got {other:?}"),
        }
    }

    #[test]
    fn top_truncated_stats_is_a_runtime_error() {
        use std::io::Read as _;
        // A fake telemetry listener that answers 200 with a cut-off body.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Read until the request head is complete before replying —
            // answering (and closing) mid-request races the client's
            // write into an EPIPE instead of the truncated-body error.
            let mut head = Vec::new();
            let mut buf = [0u8; 512];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => head.extend_from_slice(&buf[..n]),
                }
            }
            conn.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"upti")
                .unwrap();
        });
        let r = run(&argv(&["top", &addr, "--once"]));
        server.join().unwrap();
        match r {
            Err(CliError::Runtime(msg)) => {
                assert!(
                    msg.contains("truncated or malformed"),
                    "names the failure: {msg}"
                );
                assert!(!msg.contains('\n'), "one-line diagnostic: {msg:?}");
            }
            other => panic!("expected a runtime error, got {other:?}"),
        }
    }

    #[test]
    fn stats_validation_accepts_real_and_rejects_junk() {
        let good = "{\"uptime_micros\":1500000,\"inflight\":3,\"cache_hit_rate\":0.7500}";
        assert!(validate_stats("x", good).is_ok());
        for bad in ["", "{\"upti", "<html>502</html>", "{\"inflight\":3}"] {
            assert!(validate_stats("x", bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn end_to_end_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("foc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.foc");
        let pstr = path.to_str().unwrap().to_string();
        run(&argv(&["gen", "grid", "--n", "16", "-o", &pstr])).unwrap();
        run(&argv(&["stats", &pstr])).unwrap();
        run(&argv(&["check", &pstr, "exists x. #(y). E(x,y) >= 4"])).unwrap();
        run(&argv(&["eval", &pstr, "#(x,y). E(x,y)"])).unwrap();
        run(&argv(&["count", &pstr, "E(x,y)", "--vars", "x,y"])).unwrap();
        assert!(run(&argv(&["check", &pstr, "E(x,y)"])).is_err()); // free vars
        assert!(run(&argv(&["eval", &pstr, "#(y). E(x,y)"])).is_err()); // free vars
        std::fs::remove_dir_all(&dir).ok();
    }
}
