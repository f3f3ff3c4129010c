//! The `serve-mixed` workload: one `foc_serve` server over a 64×64 grid
//! (local engine, write-ahead log with `fsync: always`), driven by an
//! open-loop generator at a fixed rate over two connections.
//!
//! Nine in ten requests are reads drawn with a seeded skew from a pool
//! of 32 check/eval queries; one in ten is a 2-op `batch` frame that
//! toggles a symmetric edge pair, so every write commits an epoch,
//! appends a log record and migrates the shared cache. Each connection
//! toggles only its own edges, so the generator knows every edge's
//! state when it plans a write.
//!
//! Correctness: reads of one query at one epoch must agree; after the
//! drain a fresh server recovers the log, and every pool query is asked
//! again at the final epoch and compared with a local evaluator on the
//! benchmark's own mirror of the acknowledged writes. The recovered
//! epoch and fingerprint must equal the mirror's.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use foc_core::{EngineKind, Evaluator};
use foc_logic::parse::{parse_formula, parse_term};
use foc_obs::{names, MetricsSnapshot};
use foc_serve::{start, ServerConfig, ServerHandle};
use foc_structures::gen::grid;
use foc_structures::io::{parse_structure, write_structure};
use foc_structures::{DeltaStructure, Structure, TupleOp};
use foc_wal::{DirStore, FsyncPolicy, Wal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, peak_rss_mib, quantile, ratio, sorted, Metrics, Outcome};
use crate::spans::{covered, self_times, SpanRec};
use crate::Args;

const SIDE: u32 = 64;
/// Offered load, requests per second, across all connections. The mix
/// saturates near 290 req/s on a 2-CPU host; at half that, tail latency
/// swings with the host's speed (queueing amplifies it), so the load
/// sits near a quarter.
const RATE: f64 = 80.0;
const CONNS: usize = 2;
/// Every `WRITE_EVERY`-th request of a connection is a write (10%),
/// staggered so the two connections never write at the same moment.
const WRITE_EVERY: usize = 10;
/// Edges each connection toggles.
const EDGES_PER_CONN: usize = 32;
const SETUP_REPS: usize = 5;
/// How far behind schedule the generator may send before the run is
/// invalid.
const GEN_LATE_BOUND_MS: f64 = 250.0;
/// The end-to-end statistics are medians over slices of this length.
const SLICE: Duration = Duration::from_secs(6);
/// How long to wait for outstanding replies after the last send.
const GRACE: Duration = Duration::from_secs(10);

/// The read pool: E3/E4 shapes with distance bounds 1–3 and varied
/// thresholds (`true` = check mode). Its order is the popularity rank,
/// fixed so that every seed offers the same cost mix: cheap and
/// expensive shapes alternate down the ranks.
fn pool() -> Vec<(bool, String)> {
    let mut cheap = Vec::new();
    let mut dear = Vec::new();
    for d in 1..=3 {
        cheap.push((false, format!("#(x,y). !(dist(x,y) <= {d})")));
        cheap.push((true, format!("@even(#(x,y). !(dist(x,y) <= {d}))")));
        cheap.push((false, format!("#(x,y). dist(x,y) <= {d}")));
    }
    for (d, t) in [(1, 5), (2, 13), (3, 25), (2, 12)] {
        cheap.push((true, format!("exists x. #(y). dist(x,y) <= {d} >= {t}")));
    }
    for k in 3..=5 {
        cheap.push((true, format!("exists x. #(y). E(x,y) >= {k}")));
    }
    cheap.push((true, "@even(#(x). exists y. E(x,y))".to_string()));
    cheap.push((false, "#(x,y). (!(E(x,y)) & !(x = y))".to_string()));
    for k in 2..=4 {
        cheap.push((false, format!("#(x). (#(y). E(x,y) = {k})")));
        dear.push((false, format!("#(x,y). (E(x,y) & #(z). E(y,z) = {k})")));
        dear.push((
            true,
            format!("exists x. (#(y). E(x,y) = #(z). (#(w). E(z,w) = {k}))"),
        ));
    }
    for (k, t) in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)] {
        dear.push((
            true,
            format!("exists x. #(y). (E(x,y) & #(z). E(y,z) = {k}) >= {t}"),
        ));
    }
    // Two cheap queries, then one expensive one, down the ranks.
    let mut out = Vec::new();
    let (mut c, mut d) = (cheap.into_iter(), dear.into_iter());
    loop {
        let next: Vec<_> = [c.next(), c.next(), d.next()]
            .into_iter()
            .flatten()
            .collect();
        if next.is_empty() {
            return out;
        }
        out.extend(next);
    }
}

fn mode(check: bool) -> &'static str {
    if check {
        "check"
    } else {
        "eval"
    }
}

fn read_frame(id: &str, check: bool, query: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"mode\":\"{}\",\"query\":\"{query}\"}}\n",
        mode(check)
    )
}

fn toggle_ops(u: u32, v: u32, insert: bool) -> [TupleOp; 2] {
    if insert {
        [TupleOp::insert("E", &[u, v]), TupleOp::insert("E", &[v, u])]
    } else {
        [TupleOp::delete("E", &[u, v]), TupleOp::delete("E", &[v, u])]
    }
}

/// One planned request.
enum Op {
    Read(usize),
    Write { u: u32, v: u32, insert: bool },
}

struct Planned {
    op: Op,
    line: String,
}

/// The open-loop plan: request `j` is due at `j / RATE` seconds and goes
/// to connection `j % CONNS`.
fn plan(seed: u64, seconds: u64, pool: &[(bool, String)], g: &Structure) -> Vec<Vec<Planned>> {
    let pool_len = pool.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e12_e000);
    // Seeded draws with a fixed skew: weight 1/(rank+1).
    let weights: Vec<f64> = (0..pool_len).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();

    let gaifman = g.gaifman();
    let mut edges: Vec<(u32, u32)> = (0..gaifman.n())
        .flat_map(|u| {
            gaifman
                .neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
        .collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let mut owned: Vec<Vec<((u32, u32), bool)>> = (0..CONNS)
        .map(|c| {
            edges[c * EDGES_PER_CONN..(c + 1) * EDGES_PER_CONN]
                .iter()
                .map(|&e| (e, true))
                .collect()
        })
        .collect();

    let n = (RATE * seconds as f64) as usize;
    let mut plans: Vec<Vec<Planned>> = (0..CONNS).map(|_| Vec::new()).collect();
    for j in 0..n {
        let c = j % CONNS;
        let id = j.to_string();
        let planned = if (j / CONNS + 4 * c) % WRITE_EVERY == WRITE_EVERY - 1 {
            let k = rng.gen_range(0..EDGES_PER_CONN);
            let ((u, v), present) = owned[c][k];
            owned[c][k].1 = !present;
            let verb = if present { "delete" } else { "insert" };
            Planned {
                op: Op::Write {
                    u,
                    v,
                    insert: !present,
                },
                line: format!(
                    "{{\"id\":\"{id}\",\"mode\":\"batch\",\"ops\":[{{\"op\":\"{verb}\",\"rel\":\"E\",\"tuple\":[{u},{v}]}},{{\"op\":\"{verb}\",\"rel\":\"E\",\"tuple\":[{v},{u}]}}]}}\n"
                ),
            }
        } else {
            let mut x = rng.gen_range(0.0..total);
            let rank = weights
                .iter()
                .position(|w| {
                    x -= w;
                    x < 0.0
                })
                .unwrap_or(pool_len - 1);
            let q = rank;
            Planned {
                op: Op::Read(q),
                line: read_frame(&id, pool[q].0, &pool[q].1),
            }
        };
        plans[c].push(planned);
    }
    plans
}

/// A raw frame field: the string contents or the scalar token.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    match rest.strip_prefix('"') {
        Some(s) => s.find('"').map(|e| &s[..e]),
        None => Some(&rest[..rest.find([',', '}', ']']).unwrap_or(rest.len())]),
    }
}

fn num(line: &str, key: &str) -> Option<u64> {
    field(line, key).and_then(|v| v.parse().ok())
}

/// One reply frame, as the generator saw it.
struct Reply {
    line: String,
    at: Instant,
}

/// Sends one connection's plan on schedule and collects the replies.
/// Returns the replies by position and the worst send lateness.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    dues: &[Instant],
) -> std::io::Result<(Vec<Option<Reply>>, Duration)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let n = plan.len();
    let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
    let give_up = dues.last().copied().unwrap_or_else(Instant::now) + GRACE;
    let (mut sent, mut got) = (0usize, 0usize);
    let mut late = Duration::ZERO;
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    while got < n {
        let now = Instant::now();
        if sent < n && now >= dues[sent] {
            late = late.max(now - dues[sent]);
            stream.write_all(plan[sent].line.as_bytes())?;
            sent += 1;
            continue;
        }
        if sent == n && now >= give_up {
            break;
        }
        let wait = if sent < n { dues[sent] } else { give_up } - now;
        stream.set_read_timeout(Some(wait.max(Duration::from_micros(20))))?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => {
                let at = Instant::now();
                acc.extend_from_slice(&buf[..k]);
                while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&acc[..pos]).into_owned();
                    acc.drain(..=pos);
                    let idx = field(&line, "id")
                        .and_then(|id| id.parse::<usize>().ok())
                        .map(|j| j / CONNS);
                    if let Some(slot) = idx.and_then(|i| replies.get_mut(i)) {
                        if slot.is_none() {
                            got += 1;
                        }
                        *slot = Some(Reply { line, at });
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    Ok((replies, late))
}

/// Sends each line and waits for its reply (closed loop, untimed).
fn ask_all(addr: SocketAddr, lines: &[String]) -> std::io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut out = Vec::new();
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    for l in lines {
        stream.write_all(l.as_bytes())?;
        loop {
            if let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                out.push(String::from_utf8_lossy(&acc[..pos]).into_owned());
                acc.drain(..=pos);
                break;
            }
            match stream.read(&mut buf)? {
                0 => return Ok(out),
                k => acc.extend_from_slice(&buf[..k]),
            }
        }
    }
    Ok(out)
}

fn config(wal_dir: &Path, trace_path: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        engine: EngineKind::Local,
        threads: 1,
        tracing: trace_path.is_some(),
        trace_sample: 1,
        trace_path,
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    }
}

/// The answer text a result frame should carry for a pool query on `a`,
/// plus the reference session's engine counters.
fn reference(
    ev: &Evaluator,
    a: &Structure,
    check: bool,
    query: &str,
) -> (String, foc_core::EngineStats, MetricsSnapshot) {
    let mut session = ev.session(a);
    let value = if check {
        let f = parse_formula(query).expect("pool queries parse");
        session.check_sentence(&f).map(|b| b.to_string())
    } else {
        let t = parse_term(query).expect("pool queries parse");
        session.eval_ground(&t).map(|v| v.to_string())
    };
    (
        value.unwrap_or_else(|e| format!("error: {e}")),
        session.stats(),
        session.observer().metrics().snapshot(),
    )
}

/// A started, warmed-up server and what setting it up cost.
struct Setup {
    handle: ServerHandle,
    setup_s: f64,
    load_s: f64,
    failed: u64,
}

/// Loads the grid, starts a server on a fresh log directory and warms
/// its cache with every pool query once.
fn set_up(text: &str, dir: &Path, trace_path: Option<PathBuf>, pool: &[(bool, String)]) -> Setup {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the log directory");
    let t0 = Instant::now();
    let s = parse_structure(text).expect("generated structures parse");
    let load_s = t0.elapsed().as_secs_f64();
    let handle = start(s, config(dir, trace_path)).expect("start server");
    let lines: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(i, (check, q))| read_frame(&format!("warm{i}"), *check, q))
        .collect();
    let replies = ask_all(handle.addr(), &lines).expect("warm-up");
    let failed = pool.len() as u64
        - replies
            .iter()
            .filter(|r| field(r, "type") == Some("result"))
            .count() as u64;
    Setup {
        handle,
        setup_s: t0.elapsed().as_secs_f64(),
        load_s,
        failed,
    }
}

/// One answered request: when it was due, its latency from then, the
/// server's own `micros`, and for reads whether it was a check.
struct Timed {
    due: Instant,
    lat: f64,
    micros: f64,
    check: bool,
}

/// Everything one load window measured.
#[derive(Default)]
struct Load {
    reads: Vec<Timed>,
    writes: Vec<Timed>,
    late_ms: f64,
    /// Reads per pool query (for the parse-time estimate).
    asked: Vec<u64>,
    acked_writes: u64,
    attempted: u64,
    failed: u64,
    recover_ms: f64,
    final_metrics: MetricsSnapshot,
    /// Engine counters of the reference sessions (one cold pass over
    /// the pool), summed.
    balls: u64,
    ball_elements: u64,
    tuples_checked: u64,
    markers: u64,
    clterms: u64,
    basics: u64,
    fallbacks: u64,
    degrade: u64,
}

/// Scaled latencies in ms, ascending.
fn latencies_ms<'a>(rs: impl IntoIterator<Item = &'a Timed>) -> Vec<f64> {
    sorted(rs.into_iter().map(|r| r.lat * 1e3).collect())
}

/// The median over consecutive [`SLICE`]s of the window (by due time)
/// of a statistic of each slice's requests. A few slices hit by a host
/// stall then move the result no more than a slow pass moves an
/// evaluation workload's.
fn per_slice(rs: &[Timed], f: impl Fn(&[&Timed]) -> f64) -> f64 {
    let Some(first) = rs.iter().map(|r| r.due).min() else {
        return 0.0;
    };
    let mut slices: BTreeMap<u64, Vec<&Timed>> = BTreeMap::new();
    for r in rs {
        let k = ((r.due - first).as_secs_f64() / SLICE.as_secs_f64()) as u64;
        slices.entry(k).or_default().push(r);
    }
    median(&slices.values().map(|v| f(v)).collect::<Vec<_>>())
}

/// Runs one open-loop window against a freshly set-up server, then the
/// durability check and the final re-query.
fn run_load(
    args: &Args,
    seconds: u64,
    text: &str,
    pool: &[(bool, String)],
    dir: &Path,
    setup: Setup,
) -> Load {
    let g = parse_structure(text).expect("generated structures parse");
    // Request ids are global request numbers: connection c's k-th
    // request is number k * CONNS + c.
    let plans = plan(args.seed, seconds, pool, &g);
    let addr = setup.handle.addr();
    let start_at = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Vec<Option<Reply>>, Duration, Vec<Instant>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|c| {
                let plan = &plans[c];
                s.spawn(move || {
                    let dues: Vec<Instant> = (0..plan.len())
                        .map(|k| start_at + Duration::from_secs_f64((k * CONNS + c) as f64 / RATE))
                        .collect();
                    let (replies, late) = drive(addr, plan, &dues).expect("load connection");
                    (replies, late, dues)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread"))
            .collect()
    });
    let report = setup.handle.drain();

    let mut l = Load {
        asked: vec![0; pool.len()],
        final_metrics: report.final_metrics,
        failed: setup.failed,
        attempted: pool.len() as u64,
        ..Load::default()
    };
    let mut seen: BTreeMap<(usize, u64), String> = BTreeMap::new();
    let mut acked: Vec<(u64, u32, u32, bool)> = Vec::new();
    for (c, (replies, late, dues)) in results.iter().enumerate() {
        l.late_ms = l.late_ms.max(late.as_secs_f64() * 1e3);
        for (k, (pl, reply)) in plans[c].iter().zip(replies).enumerate() {
            l.attempted += 1;
            let Some(r) = reply
                .as_ref()
                .filter(|r| field(&r.line, "type") == Some("result"))
            else {
                l.failed += 1;
                continue;
            };
            let timed = Timed {
                due: dues[k],
                lat: r.at.saturating_duration_since(dues[k]).as_secs_f64(),
                micros: num(&r.line, "micros").unwrap_or(0) as f64,
                check: matches!(pl.op, Op::Read(q) if pool[q].0),
            };
            let epoch = num(&r.line, "epoch").unwrap_or(0);
            match pl.op {
                Op::Read(q) => {
                    l.reads.push(timed);
                    l.asked[q] += 1;
                    let value = field(&r.line, "value").unwrap_or("").to_string();
                    if let Some(prev) = seen.insert((q, epoch), value.clone()) {
                        if prev != value {
                            l.failed += 1;
                        }
                    }
                }
                Op::Write { u, v, insert } => {
                    l.writes.push(timed);
                    if num(&r.line, "changed") == Some(2) {
                        acked.push((epoch, u, v, insert));
                    } else {
                        l.failed += 1;
                    }
                }
            }
        }
    }
    l.acked_writes = acked.len() as u64;
    println!(
        "load window={seconds}s reads={} writes={} acked={} generator_late_max={:.2}ms",
        l.reads.len(),
        l.writes.len(),
        l.acked_writes,
        l.late_ms,
    );

    // The mirror: the acknowledged writes in commit (epoch) order.
    acked.sort_unstable();
    let mut mirror = DeltaStructure::new(g);
    for &(epoch, u, v, insert) in &acked {
        match mirror.apply(&toggle_ops(u, v, insert)) {
            Ok(info) if info.epoch == epoch && info.changed == 2 => {}
            _ => l.failed += 1,
        }
    }

    // Durability: a fresh server recovers the log; every pool query is
    // asked again at the final epoch and checked against the mirror.
    let t0 = Instant::now();
    let fresh = start(
        parse_structure(text).expect("generated structures parse"),
        config(dir, None),
    )
    .expect("restart on the log directory");
    l.recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let requery: Vec<String> = pool
        .iter()
        .enumerate()
        .map(|(i, (check, q))| read_frame(&format!("final{i}"), *check, q))
        .collect();
    let answers = ask_all(fresh.addr(), &requery).expect("final re-query");
    let _ = fresh.drain();
    let ev = Evaluator::builder()
        .kind(EngineKind::Local)
        .threads(1)
        .build()
        .expect("valid engine configuration");
    let snapshot = mirror.snapshot();
    for (i, (check, q)) in pool.iter().enumerate() {
        l.attempted += 1;
        let (want, stats, registry) = reference(&ev, &snapshot, *check, q);
        l.balls += registry.counter(names::LOCAL_BALLS);
        l.ball_elements += registry.counter(names::LOCAL_BALL_ELEMENTS);
        l.tuples_checked += registry.counter(names::LOCAL_TUPLES);
        l.markers += stats.markers_created as u64;
        l.clterms += stats.clterms as u64;
        l.basics += stats.basics as u64;
        l.fallbacks += stats.naive_fallbacks as u64;
        l.degrade += stats.degrade_local + stats.degrade_naive;
        let got = answers.get(i);
        let ok = got.is_some_and(|a| {
            field(a, "type") == Some("result")
                && field(a, "value") == Some(want.as_str())
                && num(a, "epoch") == Some(mirror.epoch())
        });
        if !ok {
            l.failed += 1;
            println!(
                "FINAL MISMATCH {q}: got {got:?}, want {want} at epoch {}",
                mirror.epoch()
            );
        }
    }
    let durable = DirStore::open(dir)
        .ok()
        .and_then(|store| Wal::recover(store, FsyncPolicy::Always, None).ok())
        .is_some_and(|(_, rec)| {
            rec.delta.epoch() == mirror.epoch()
                && rec.delta.current().fingerprint() == mirror.current().fingerprint()
        });
    if !durable {
        println!("DURABILITY FAILED: recovered state differs from the acknowledged writes");
        l.failed += l.acked_writes;
    }
    l
}

/// Self times per span name (µs), unattributed µs and span count over
/// the kept request traces in a trace log.
fn read_traces(path: &Path) -> (BTreeMap<String, u64>, f64, usize) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let (mut selfs, mut unattributed, mut count) = (BTreeMap::new(), 0.0, 0);
    for line in text.lines() {
        let Some(at) = line.find("\"spans\":[") else {
            continue;
        };
        let micros = num(&line[..at], "micros").unwrap_or(0) as f64;
        let spans: Vec<SpanRec> = line[at..]
            .split("{\"span\":")
            .skip(1)
            .map(|chunk| {
                let chunk = format!("{{\"span\":{chunk}");
                SpanRec {
                    name: field(&chunk, "span").unwrap_or("").to_string(),
                    id: num(&chunk, "id").unwrap_or(0) as u32,
                    parent: num(&chunk, "parent").map(|p| p as u32),
                    start: num(&chunk, "start_micros").unwrap_or(0),
                    dur: num(&chunk, "dur_micros").unwrap_or(0),
                    radius: None,
                }
            })
            .collect();
        count += spans.len();
        unattributed += (micros - covered(&spans) as f64).max(0.0);
        for (k, v) in self_times(&spans) {
            *selfs.entry(k).or_default() += v;
        }
    }
    (selfs, unattributed, count)
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Runs the serve-mixed workload.
pub fn run(args: &Args) -> Outcome {
    let text = write_structure(&grid(SIDE, SIDE));
    let pool = pool();
    let work = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join(format!("focbench-work-{}", std::process::id()));
    let wal_dir = |name: &str| work.join(name);

    {
        let g = parse_structure(&text).expect("generated structures parse");
        println!(
            "provenance {}",
            crate::report::provenance(
                args.workload,
                args.seed,
                args.seconds,
                args.trace,
                &[
                    "\"engine\":\"Local\"".to_string(),
                    "\"threads\":1".to_string(),
                    format!(
                        "\"structures\":[{{\"class\":\"grid\",\"order\":{},\"size\":{}}}]",
                        g.order(),
                        g.size()
                    ),
                    "\"fsync\":\"always\"".to_string(),
                    format!("\"offered_rps\":{RATE}"),
                    format!("\"connections\":{CONNS}"),
                    "\"loop\":\"open\"".to_string(),
                    format!("\"write_every\":{WRITE_EVERY}"),
                    format!("\"pool\":{}", pool.len()),
                ],
            )
        );
    }

    let mut m = Metrics::default();
    let outcome = if !args.trace {
        let mut setups: Vec<Setup> = (0..SETUP_REPS)
            .map(|i| set_up(&text, &wal_dir(&format!("wal{i}")), None, &pool))
            .collect();
        let setup_times: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
        let kept = setups.pop().expect("at least one set-up");
        let mut failed = 0;
        for s in setups {
            failed += s.failed;
            let _ = s.handle.drain();
        }
        let l = run_load(
            args,
            args.seconds,
            &text,
            &pool,
            &wal_dir(&format!("wal{}", SETUP_REPS - 1)),
            kept,
        );
        check_validity(&l, &work);
        println!("samples reads={} writes={}", l.reads.len(), l.writes.len());
        m.put("setup_s", "s", median(&setup_times));
        let summed = |check: bool| {
            per_slice(&l.reads, |v| {
                v.iter().filter(|r| r.check == check).map(|r| r.lat).sum()
            })
        };
        let q =
            |rs: &[Timed], p: f64| per_slice(rs, |v| quantile(&latencies_ms(v.iter().copied()), p));
        m.put("check_s", "s", summed(true));
        m.put("count_s", "s", summed(false));
        m.put("read_p50_ms", "ms", q(&l.reads, 0.50));
        m.put("read_p99_ms", "ms", q(&l.reads, 0.99));
        m.put("write_p50_ms", "ms", q(&l.writes, 0.50));
        m.put("write_p95_ms", "ms", q(&l.writes, 0.95));
        m.put("peak_rss_mb", "MiB", peak_rss_mib());
        Outcome {
            attempted: l.attempted + (SETUP_REPS as u64 - 1) * pool.len() as u64,
            failed: l.failed + failed,
            metrics: m,
        }
    } else {
        // Untraced window for the counters, then a traced one for the
        // span self times; the ratio of their mean read latencies is the
        // tracing overhead.
        let half = (args.seconds / 2).max(1);
        let s0 = set_up(&text, &wal_dir("wal-plain"), None, &pool);
        let load_s = s0.load_s;
        let plain = run_load(args, half, &text, &pool, &wal_dir("wal-plain"), s0);
        check_validity(&plain, &work);
        let trace_path = work.join("traces.jsonl");
        let s1 = set_up(
            &text,
            &wal_dir("wal-traced"),
            Some(trace_path.clone()),
            &pool,
        );
        let traced = run_load(args, half, &text, &pool, &wal_dir("wal-traced"), s1);
        check_validity(&traced, &work);
        // What the server spends parsing: each pool query's parse time,
        // timed here, times how often the window asked it.
        let parse_us: f64 = pool
            .iter()
            .zip(&plain.asked)
            .map(|((check, q), &n)| {
                let t0 = Instant::now();
                let ok = if *check {
                    parse_formula(q).is_ok()
                } else {
                    parse_term(q).is_ok()
                };
                assert!(ok, "pool queries parse");
                t0.elapsed().as_secs_f64() * 1e6 * n as f64
            })
            .sum();

        let (selfs, unattributed_us, spans) = read_traces(&trace_path);
        let self_ms = |n: &str| selfs.get(n).copied().unwrap_or(0) as f64 / 1e3;
        let fm = &plain.final_metrics;
        let hits = fm.counter(names::CACHE_HITS) as f64;
        let misses = fm.counter(names::CACHE_MISSES) as f64;
        let hit_rate = ratio(hits, hits + misses);
        let eval_us = sorted(plain.reads.iter().map(|r| r.micros).collect());
        let wait_us = sorted(
            plain
                .reads
                .iter()
                .map(|r| (r.lat * 1e6 - r.micros).max(0.0))
                .collect(),
        );
        let ack_us: Vec<f64> = plain.writes.iter().map(|r| r.micros).collect();
        let mean_read = |l: &Load| mean(&latencies_ms(&l.reads));
        let appends = fm.counter(names::SERVE_WAL_APPENDS) as f64;

        m.put("structures.load_ms", "ms", load_s * 1e3);
        m.put(
            "structures.resident_mb",
            "MiB",
            parse_structure(&text).map_or(0.0, |s| {
                let _ = s.gaifman();
                s.resident_bytes() as f64 / (1024.0 * 1024.0)
            }),
        );
        m.put("logic.parse_us", "us", parse_us);
        m.put("locality.decompose_ms", "ms", self_ms("decompose"));
        m.put("locality.ball_enum_ms", "ms", self_ms("ball_enum"));
        m.put("locality.balls", "count", plain.balls as f64);
        m.put(
            "locality.ball_elements",
            "count",
            plain.ball_elements as f64,
        );
        m.put(
            "locality.tuples_checked",
            "count",
            plain.tuples_checked as f64,
        );
        m.put("locality.cache_hit_rate", "ratio", hit_rate);
        m.put(
            "locality.cache_evictions",
            "count",
            fm.counter(names::CACHE_EVICTIONS) as f64,
        );
        m.put("core.materialize_ms", "ms", self_ms("materialize"));
        m.put("core.markers", "count", plain.markers as f64);
        m.put("core.clterms", "count", plain.clterms as f64);
        m.put("core.basics", "count", plain.basics as f64);
        m.put("core.unattributed_ms", "ms", unattributed_us / 1e3);
        m.put("core.naive_fallbacks", "count", plain.fallbacks as f64);
        m.put("core.degrade_steps", "count", plain.degrade as f64);
        m.put(
            "parallel.items",
            "count",
            fm.counter(names::PARALLEL_ITEMS) as f64,
        );
        m.put(
            "parallel.batches",
            "count",
            fm.counter(names::PARALLEL_BATCHES) as f64,
        );
        m.put(
            "obs.trace_overhead",
            "ratio",
            ratio(mean_read(&traced), mean_read(&plain)),
        );
        m.put("obs.spans", "count", spans as f64);
        m.put("serve.eval_us_p50", "us", quantile(&eval_us, 0.50));
        m.put("serve.eval_us_p99", "us", quantile(&eval_us, 0.99));
        m.put("serve.wait_us_p50", "us", quantile(&wait_us, 0.50));
        m.put("serve.wait_us_p99", "us", quantile(&wait_us, 0.99));
        m.put("serve.cache_hit_rate", "ratio", hit_rate);
        m.put(
            "serve.cache_migrated",
            "count",
            fm.counter(names::SERVE_CACHE_MIGRATED) as f64,
        );
        m.put("serve.shed", "count", fm.counter(names::SERVE_SHED) as f64);
        m.put(
            "serve.errors",
            "count",
            fm.counter(names::SERVE_ERRORS) as f64,
        );
        m.put(
            "serve.inflight_peak",
            "count",
            fm.gauge(names::SERVE_INFLIGHT_PEAK) as f64,
        );
        m.put("serve.gen_late_ms", "ms", plain.late_ms);
        m.put("wal.appends", "count", appends);
        m.put(
            "wal.syncs",
            "count",
            fm.counter(names::SERVE_WAL_SYNCS) as f64,
        );
        m.put(
            "wal.checkpoints",
            "count",
            fm.counter(names::SERVE_WAL_CHECKPOINTS) as f64,
        );
        m.put(
            "wal.bytes_per_write",
            "B",
            ratio(fm.counter(names::SERVE_WAL_BYTES) as f64, appends),
        );
        m.put("wal.ack_us_p50", "us", median(&ack_us));
        m.put("wal.recover_ms", "ms", plain.recover_ms);
        Outcome {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            metrics: m,
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

/// The assertions that fail a serve run instead of reporting a number
/// (after removing the run's scratch directory).
fn check_validity(l: &Load, work: &Path) {
    let fail = |msg: &str| {
        let _ = std::fs::remove_dir_all(work);
        crate::fail(msg)
    };
    let appends = l.final_metrics.counter(names::SERVE_WAL_APPENDS);
    if appends != l.acked_writes {
        fail(&format!(
            "wal.appends {appends} != acknowledged writes {}: some write was a no-op",
            l.acked_writes
        ));
    }
    if l.fallbacks != 0 || l.degrade != 0 {
        fail("a pool query fell back to the reference evaluator or degraded");
    }
    if l.late_ms > GEN_LATE_BOUND_MS {
        fail(&format!(
            "the generator ran {:.1} ms behind schedule (bound {GEN_LATE_BOUND_MS} ms)",
            l.late_ms
        ));
    }
}
