//! End-to-end robustness tests for the service mode (ISSUE 5,
//! satellite 4 and the acceptance criterion): misbehaving queries are
//! contained as structured error frames while concurrent well-behaved
//! clients get correct answers; drain is graceful, bounded, and leaks
//! no threads; admission is shed-not-block.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use foc_core::{EngineKind, Evaluator};
use foc_logic::parse::parse_term;
use foc_obs::names;
use foc_serve::{start, ServerConfig};
use foc_structures::gen::{clique, path};

/// A blocking JSON-lines client for the tests.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => panic!("server closed the stream while a frame was expected"),
                Ok(_) => return line.trim().to_string(),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => panic!("recv: {e}"),
            }
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(frame: &'a str, key: &str) -> Option<&'a str> {
    // Good enough for the fixed frames the server emits: find
    // `"key":` and read the raw token after it.
    let pat = format!("\"{key}\":");
    let start = frame.find(&pat)? + pat.len();
    let rest = &frame[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

/// The acceptance E2E: a panicking query, a deadline-exceeding query,
/// and a memory-watermark trip are each answered with structured error
/// frames, while a concurrent well-behaved client gets answers that
/// match the naive reference evaluator. Then the server drains cleanly.
#[test]
fn misbehaving_queries_are_contained_while_good_clients_succeed() {
    let structure = path(12);
    let handle = start(
        structure.clone(),
        ServerConfig {
            max_inflight: 4,
            queue: 8,
            engine: EngineKind::Naive,
            fault_panic_element: Some(3),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    // The independent reference answer for the well-behaved query.
    let reference = Evaluator::builder()
        .kind(EngineKind::Naive)
        .build()
        .expect("reference evaluator");
    let good_query = "#(x,y). E(x,y)";
    let expected = reference
        .eval_ground(&structure, &parse_term(good_query).expect("parse"))
        .expect("reference eval");

    let good = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        for i in 0..10 {
            let frame = c.roundtrip(&format!(
                r##"{{"id":"good-{i}","mode":"eval","query":"{good_query}","engine":"naive"}}"##
            ));
            assert_eq!(field(&frame, "type"), Some("result"), "frame: {frame}");
            assert_eq!(
                field(&frame, "value"),
                Some(expected.to_string().as_str()),
                "frame: {frame}"
            );
        }
    });
    let panicker = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        // The local engine's ball enumeration hits the injected fault
        // at element 3; the same query under the naive engine (the
        // well-behaved client's) never reaches the injection point.
        let frame = c.roundtrip(
            r##"{"id":"boom","mode":"eval","query":"#(x,y). E(x,y)","engine":"local"}"##,
        );
        assert_eq!(field(&frame, "type"), Some("error"), "frame: {frame}");
        assert_eq!(field(&frame, "class"), Some("panic"), "frame: {frame}");
        assert!(frame.contains("injected fault"), "frame: {frame}");
    });
    let deadliner = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        let frame = c.roundtrip(
            r##"{"id":"late","mode":"eval","query":"#(x,y). E(x,y)","timeout_ms":0,"engine":"naive"}"##,
        );
        assert_eq!(field(&frame, "type"), Some("error"), "frame: {frame}");
        assert_eq!(
            field(&frame, "class"),
            Some("interrupted"),
            "frame: {frame}"
        );
        assert_eq!(field(&frame, "reason"), Some("deadline"), "frame: {frame}");
    });
    let memory = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        // The server-wide byte account already holds the structure, so
        // a 1-byte request cap trips on the first guard poll.
        let frame = c.roundtrip(
            r##"{"id":"oom","mode":"eval","query":"#(x,y). E(x,y)","mem_limit_bytes":1,"engine":"naive"}"##,
        );
        assert_eq!(field(&frame, "type"), Some("error"), "frame: {frame}");
        assert_eq!(
            field(&frame, "class"),
            Some("interrupted"),
            "frame: {frame}"
        );
        assert_eq!(
            field(&frame, "reason"),
            Some("memory limit"),
            "frame: {frame}"
        );
    });

    good.join().expect("good client");
    panicker.join().expect("panic client");
    deadliner.join().expect("deadline client");
    memory.join().expect("memory client");

    let report = handle.drain();
    assert_eq!(report.interrupted, 0, "drain was clean");
    assert_eq!(report.connections_joined, 4);
    let snap = &report.final_metrics;
    assert!(snap.counter(names::SERVE_PANICS) >= 1);
    assert!(snap.counter(names::SERVE_INTERRUPTED) >= 2);
    assert_eq!(snap.counter(names::SERVE_REQUESTS), 13);
}

/// 32 concurrent clients send a few lines each, with tracing off and an
/// admission queue shorter than the client count, so some lines may be
/// shed. Every line gets exactly one terminal frame (`result` with the
/// right value, or `shed`), the server's counters agree with the
/// clients' tally, and no trace is kept. Drain then completes, notifies
/// every idle stream with a `drained` frame, joins every connection
/// thread, and interrupts nothing.
#[test]
fn graceful_drain_completes_under_32_concurrent_clients() {
    const CLIENTS: usize = 32;
    // (mode, query, value on path(8)).
    const LINES: [(&str, &str, &str); 4] = [
        ("check", "exists x. E(x,x)", "false"),
        ("check", "exists x. exists y. E(x,y)", "true"),
        ("eval", "#(x,y). E(x,y)", "14"),
        ("eval", "#(x). exists y. E(x,y)", "8"),
    ];
    let handle = start(
        path(8),
        ServerConfig {
            max_inflight: 4,
            queue: 8,
            engine: EngineKind::Naive,
            tracing: false,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();
    let answered = Arc::new(AtomicUsize::new(0));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let answered = answered.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut shed = 0u64;
                for (j, (mode, query, value)) in LINES.iter().enumerate() {
                    let id = format!("c{i}-{j}");
                    let frame = c.roundtrip(&format!(
                        r##"{{"id":"{id}","mode":"{mode}","query":"{query}"}}"##
                    ));
                    assert_eq!(field(&frame, "id"), Some(id.as_str()), "frame: {frame}");
                    match field(&frame, "type") {
                        Some("result") => {
                            assert_eq!(field(&frame, "value"), Some(*value), "frame: {frame}")
                        }
                        Some("shed") => shed += 1,
                        _ => panic!("neither result nor shed: {frame}"),
                    }
                }
                answered.fetch_add(1, Ordering::SeqCst);
                // Keep the connection open: drain must notify it with a
                // `drained` frame instead of leaving it hanging. Any
                // second frame for one line would arrive here instead.
                let bye = c.recv();
                assert_eq!(field(&bye, "type"), Some("drained"), "frame: {bye}");
                shed
            })
        })
        .collect();

    // Wait until every client has its answers, then drain.
    while answered.load(Ordering::SeqCst) < CLIENTS {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        handle.recent_traces().is_empty(),
        "tracing off must keep no traces"
    );
    let report = handle.drain();
    let shed: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();
    assert_eq!(report.interrupted, 0);
    assert_eq!(report.connections_joined, 32, "no connection thread leaks");
    let snap = &report.final_metrics;
    assert_eq!(
        snap.counter(names::SERVE_REQUESTS) + snap.counter(names::SERVE_SHED),
        (CLIENTS * LINES.len()) as u64,
        "every line is admitted or shed, exactly once"
    );
    assert_eq!(snap.counter(names::SERVE_SHED), shed);
    assert_eq!(snap.counter(names::SERVE_ERRORS), 0);
    assert_eq!(snap.counter(names::SERVE_TRACES_KEPT), 0);
}

/// Admission under overload: with one in-flight slot and no queue, a
/// long-running query makes every concurrent request shed *immediately*
/// — the bounded queue never blocks the accept loop or the clients.
/// Drain then interrupts the straggler at the drain deadline (the
/// exit-code-3 path) and sheds brand-new connections with a shed frame.
#[test]
fn overload_sheds_and_drain_interrupts_stragglers() {
    let handle = start(
        clique(40),
        ServerConfig {
            max_inflight: 1,
            queue: 0,
            engine: EngineKind::Naive,
            max_timeout: Duration::from_secs(120),
            drain_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    // A deliberately huge naive evaluation (40^4 assignments) that can
    // only end by cancellation.
    let mut slow = Client::connect(addr);
    slow.send(
        r##"{"id":"slow","mode":"eval","query":"#(x1,x2,x3,x4). (E(x1,x2) & E(x2,x3) & E(x3,x4))"}"##,
    );
    std::thread::sleep(Duration::from_millis(150));

    // While it holds the only slot: everyone else is shed, fast.
    for i in 0..3 {
        let mut c = Client::connect(addr);
        let t0 = std::time::Instant::now();
        let frame = c.roundtrip(&format!(
            r##"{{"id":"shed-{i}","mode":"check","query":"exists x. E(x,x)"}}"##
        ));
        assert_eq!(field(&frame, "type"), Some("shed"), "frame: {frame}");
        // The hint is derived (queue depth × latency p99, floored at
        // the configured base, jittered ±12.5%); with no latency
        // history yet it stays near the 50 ms base.
        let hint: u64 = field(&frame, "retry_after_ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("numeric retry_after_ms: {frame}"));
        assert!(
            (40..=62).contains(&hint),
            "hint {hint} should be near the 50 ms base: {frame}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shedding must not block behind the in-flight request"
        );
    }

    // Drain from another thread; it must first wait out the 300 ms
    // drain deadline, then cancel the slow query.
    let drainer = std::thread::spawn(move || handle.drain());
    std::thread::sleep(Duration::from_millis(100));
    // New connections during drain are refused with a shed frame.
    let mut late = Client::connect(addr);
    let frame = late.recv();
    assert_eq!(field(&frame, "type"), Some("shed"), "frame: {frame}");

    let report = drainer.join().expect("drain thread");
    assert_eq!(report.interrupted, 1, "the slow query was interrupted");
    assert!(report.final_metrics.counter(names::SERVE_SHED) >= 4);

    // The straggler's client sees a structured cancellation frame.
    let frame = slow.recv();
    assert_eq!(field(&frame, "type"), Some("error"), "frame: {frame}");
    assert_eq!(
        field(&frame, "class"),
        Some("interrupted"),
        "frame: {frame}"
    );
    assert_eq!(
        field(&frame, "reason"),
        Some("cancellation"),
        "frame: {frame}"
    );
}

/// The memory watermark walks the documented escalation ladder: shrink
/// the shared cache, stop caching, then shed — and requests are still
/// answered on the way down.
#[test]
fn memory_watermark_walks_shrink_then_cache_off_then_shed() {
    let handle = start(
        path(8),
        ServerConfig {
            engine: EngineKind::Naive,
            // The structure's resident bytes alone exceed a zero limit,
            // so every admission observes sustained pressure.
            mem_limit: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut c = Client::connect(handle.addr());

    let q = |i: usize| format!(r##"{{"id":"p{i}","mode":"check","query":"exists x. E(x,x)"}}"##);
    // Step 1: cache shrunk to half — still served.
    let f1 = c.roundtrip(&q(1));
    assert_eq!(field(&f1, "type"), Some("result"), "frame: {f1}");
    // Step 2: cache evicted and disabled — still served.
    let f2 = c.roundtrip(&q(2));
    assert_eq!(field(&f2, "type"), Some("result"), "frame: {f2}");
    // Step 3: anytime forced — still served, answer carries a
    // confidence tag (a degraded answer beats a refusal).
    let f3 = c.roundtrip(&q(3));
    assert_eq!(field(&f3, "type"), Some("result"), "frame: {f3}");
    assert!(
        field(&f3, "confidence").is_some(),
        "forced-anytime answers are confidence-tagged: {f3}"
    );
    // Step 4 and beyond: shed until the meter drops (it never does).
    let f4 = c.roundtrip(&q(4));
    assert_eq!(field(&f4, "type"), Some("shed"), "frame: {f4}");
    let f5 = c.roundtrip(&q(5));
    assert_eq!(field(&f5, "type"), Some("shed"), "frame: {f5}");

    let report = handle.drain();
    let snap = &report.final_metrics;
    assert_eq!(snap.counter(names::SERVE_PRESSURE_STEPS), 4);
    assert_eq!(snap.counter(names::SERVE_REQUESTS), 3);
    assert_eq!(snap.counter(names::SERVE_SHED), 2);
    assert_eq!(snap.counter(names::SERVE_ANYTIME), 1);
}

/// ISSUE 9 satellite: under escalating memory pressure a counting eval
/// degrades in ladder order — exact answers first, then (on the
/// forced-anytime rung, with a budget too tight for the exact rung) an
/// ε-bounded approximate answer, and only then shedding — and every
/// approximate answer carries a finite error bound that contains the
/// true count.
#[test]
fn pressure_degrades_exact_to_approximate_to_shed() {
    // Dense enough that the assignment space (3600) dwarfs the
    // Hoeffding sample size (185 at ε=0.1), so the approx rung
    // genuinely samples — and the exhaustive pass overruns the rung-3
    // fuel slice below.
    let n = 60u32;
    let structure = clique(n);
    let exact = i64::from(n) * i64::from(n - 1);
    let handle = start(
        structure,
        ServerConfig {
            engine: EngineKind::Naive,
            // The structure's resident bytes alone exceed a zero limit,
            // so every admission walks the escalation ladder one rung.
            mem_limit: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut c = Client::connect(handle.addr());

    let q = |i: usize, fuel: &str| {
        format!(r##"{{"id":"p{i}","mode":"eval","query":"#(x,y). E(x,y)"{fuel}}}"##)
    };
    // Rungs 1-2 (cache shrink, cache off): unbudgeted requests are
    // still answered exactly.
    for i in 1..=2 {
        let f = c.roundtrip(&q(i, ""));
        assert_eq!(field(&f, "type"), Some("result"), "frame: {f}");
        assert_eq!(
            field(&f, "value"),
            Some(exact.to_string().as_str()),
            "rung {i} answers exactly: {f}"
        );
    }
    // Rung 3 (anytime forced): a fuel allowance with room for the
    // sample and approx passes but not the exhaustive one leaves the
    // ε-estimate as the best banked answer — served, not shed.
    let f3 = c.roundtrip(&q(3, r#","fuel":4000"#));
    assert_eq!(field(&f3, "type"), Some("result"), "frame: {f3}");
    assert_eq!(
        field(&f3, "confidence"),
        Some("approx"),
        "the forced-anytime rung banks the ε-estimate: {f3}"
    );
    assert_eq!(field(&f3, "approx"), Some("true"), "frame: {f3}");
    let bound: i64 = field(&f3, "error_bound")
        .expect("approx frames carry their bound")
        .parse()
        .expect("finite integer bound");
    let value: i64 = field(&f3, "value").unwrap().parse().unwrap();
    assert!(bound > 0, "sampled estimates carry a finite bound: {f3}");
    assert!(
        (value - exact).abs() <= bound,
        "estimate {value} strays past ±{bound} of {exact}: {f3}"
    );
    // Rung 4 and beyond: shed until the meter drops (it never does).
    let f4 = c.roundtrip(&q(4, ""));
    assert_eq!(field(&f4, "type"), Some("shed"), "frame: {f4}");

    let report = handle.drain();
    let snap = &report.final_metrics;
    assert_eq!(snap.counter(names::SERVE_PRESSURE_STEPS), 4);
    assert_eq!(snap.counter(names::SERVE_ANYTIME), 1);
    assert!(
        snap.counter("engine.approx.runs") >= 1,
        "the approx rung records its runs"
    );
}

/// ISSUE 9 tentpole: `"approx":true` eval requests (proto 2) answer
/// with an ε-bounded estimate flagged on the wire, the bound scales
/// with the requested `epsilon_milli`, and a space small enough to
/// enumerate falls through to the exact answer.
#[test]
fn approx_eval_requests_get_bounded_estimates() {
    let n = 40u32;
    let exact = i64::from(n) * i64::from(n - 1);
    let handle = start(
        clique(n),
        ServerConfig {
            engine: EngineKind::Naive,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut c = Client::connect(handle.addr());

    let ask = |c: &mut Client, id: &str, milli: u64| {
        c.roundtrip(&format!(
            r##"{{"proto":2,"id":"{id}","mode":"eval","query":"#(x,y). E(x,y)","approx":true,"epsilon_milli":{milli}}}"##
        ))
    };
    let mut bound_at = |milli: u64| -> i64 {
        let f = ask(&mut c, &format!("a{milli}"), milli);
        assert_eq!(field(&f, "type"), Some("result"), "frame: {f}");
        assert_eq!(field(&f, "confidence"), Some("approx"), "frame: {f}");
        assert_eq!(field(&f, "approx"), Some("true"), "frame: {f}");
        let bound: i64 = field(&f, "error_bound").unwrap().parse().unwrap();
        let value: i64 = field(&f, "value").unwrap().parse().unwrap();
        assert!(
            (value - exact).abs() <= bound,
            "estimate {value} strays past ±{bound} of {exact}: {f}"
        );
        bound
    };
    // ε=0.1 → bound ⌈0.1·1600⌉ = 160; ε=0.05 halves it.
    let loose = bound_at(100);
    let tight = bound_at(50);
    assert_eq!(loose, 160);
    assert_eq!(tight, 80);

    // A single-variable count (40 assignments < 185 samples) is
    // enumerated outright: the "estimate" is the true count, tagged
    // exact.
    let f = c.roundtrip(
        r##"{"proto":2,"id":"tiny","mode":"eval","query":"#(x). x = x","approx":true}"##,
    );
    assert_eq!(field(&f, "confidence"), Some("exact"), "frame: {f}");
    assert_eq!(field(&f, "value"), Some("40"), "frame: {f}");
    handle.drain();
}

/// Malformed lines get structured `bad-request` frames (with the id
/// echoed when the JSON itself was readable) and never take down the
/// connection.
#[test]
fn bad_requests_get_structured_errors_and_the_connection_survives() {
    let handle = start(path(4), ServerConfig::default()).expect("start");
    let mut c = Client::connect(handle.addr());

    let f = c.roundtrip("this is not json");
    assert_eq!(field(&f, "type"), Some("error"), "frame: {f}");
    assert_eq!(field(&f, "class"), Some("bad-request"), "frame: {f}");
    assert_eq!(field(&f, "id"), Some("-"), "frame: {f}");

    let f = c.roundtrip(r#"{"id":"q1","mode":"warp","query":"true"}"#);
    assert_eq!(field(&f, "class"), Some("bad-request"), "frame: {f}");
    assert_eq!(field(&f, "id"), Some("q1"), "frame: {f}");

    let f = c.roundtrip(r#"{"id":"q2","mode":"check","query":"exists x. ("}"#);
    assert_eq!(field(&f, "class"), Some("parse"), "frame: {f}");

    // Still alive and correct afterwards.
    let f = c.roundtrip(r#"{"id":"q3","mode":"check","query":"exists x. E(x,x)"}"#);
    assert_eq!(field(&f, "type"), Some("result"), "frame: {f}");

    let report = handle.drain();
    assert_eq!(report.interrupted, 0);
}

/// Live updates (ISSUE 6): a writer streams batch mutations while
/// concurrent readers query. Every reader response carries the epoch it
/// evaluated under, and its value must equal a from-scratch rebuild of
/// the structure at exactly that epoch — snapshot consistency under
/// concurrent commits.
#[test]
fn concurrent_updates_are_snapshot_consistent_with_rebuilds() {
    use foc_structures::{DeltaStructure, TupleOp};

    let structure = path(16);
    // The deterministic mutation schedule: each batch toggles one
    // symmetric edge and is guaranteed effective, so batch i commits
    // epoch i+1.
    let toggles: Vec<(u32, u32, bool)> = vec![
        (0, 8, true),
        (1, 9, true),
        (2, 10, true),
        (3, 4, false),
        (1, 9, false),
        (5, 13, true),
        (7, 8, false),
        (3, 4, true),
        (6, 14, true),
        (0, 8, false),
    ];

    // Expected value per epoch, via an independent from-scratch rebuild
    // at every epoch (the oracle the acceptance criterion asks for).
    let query = "#(x,y). E(x,y)";
    let term = parse_term(query).expect("parse");
    let reference = Evaluator::builder()
        .kind(EngineKind::Naive)
        .build()
        .expect("reference");
    let mut mirror = DeltaStructure::new(structure.clone());
    let mut expected = vec![reference
        .eval_ground(&mirror.rebuild_from_scratch(), &term)
        .expect("epoch 0")];
    for &(u, v, insert) in &toggles {
        let mk = if insert {
            TupleOp::insert
        } else {
            TupleOp::delete
        };
        let info = mirror
            .apply(&[mk("E", &[u, v]), mk("E", &[v, u])])
            .expect("mirror commit");
        assert_eq!(info.epoch as usize, expected.len(), "every batch commits");
        expected.push(
            reference
                .eval_ground(&mirror.rebuild_from_scratch(), &term)
                .expect("rebuild eval"),
        );
    }

    let handle = start(
        structure,
        ServerConfig {
            max_inflight: 4,
            queue: 32,
            engine: EngineKind::Local,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();

    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        for (i, &(u, v, insert)) in toggles.iter().enumerate() {
            let op = if insert { "insert" } else { "delete" };
            let frame = c.roundtrip(&format!(
                r##"{{"proto":1,"id":"w{i}","mode":"batch","ops":[{{"op":"{op}","rel":"E","tuple":[{u},{v}]}},{{"op":"{op}","rel":"E","tuple":[{v},{u}]}}]}}"##
            ));
            assert_eq!(field(&frame, "type"), Some("result"), "frame: {frame}");
            assert_eq!(field(&frame, "proto"), Some("1"), "frame: {frame}");
            assert_eq!(
                field(&frame, "epoch"),
                Some((i + 1).to_string().as_str()),
                "frame: {frame}"
            );
            assert_eq!(field(&frame, "changed"), Some("2"), "frame: {frame}");
            // Let readers interleave between commits.
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut seen_epochs = std::collections::BTreeSet::new();
                for i in 0..30 {
                    let frame = c.roundtrip(&format!(
                        r##"{{"proto":1,"id":"r{r}-{i}","mode":"eval","query":"#(x,y). E(x,y)"}}"##
                    ));
                    assert_eq!(field(&frame, "type"), Some("result"), "frame: {frame}");
                    let epoch: usize = field(&frame, "epoch")
                        .expect("epoch on result")
                        .parse()
                        .expect("numeric epoch");
                    let value: i64 = field(&frame, "value")
                        .expect("value on result")
                        .parse()
                        .expect("numeric value");
                    assert!(epoch < expected.len(), "epoch {epoch} out of range");
                    assert_eq!(
                        value, expected[epoch],
                        "epoch {epoch} diverged from its from-scratch rebuild: {frame}"
                    );
                    seen_epochs.insert(epoch);
                }
                seen_epochs
            })
        })
        .collect();

    writer.join().expect("writer");
    let mut all_epochs = std::collections::BTreeSet::new();
    for r in readers {
        all_epochs.extend(r.join().expect("reader"));
    }
    assert!(
        !all_epochs.is_empty(),
        "readers observed at least one epoch"
    );

    // After the writer finished, a fresh read sees the final epoch.
    let mut c = Client::connect(addr);
    let frame = c.roundtrip(r##"{"proto":1,"id":"final","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    assert_eq!(field(&frame, "epoch"), Some("10"), "frame: {frame}");
    assert_eq!(
        field(&frame, "value"),
        Some(expected[10].to_string().as_str()),
        "frame: {frame}"
    );

    let report = handle.drain();
    assert_eq!(report.interrupted, 0);
    assert_eq!(report.final_metrics.counter(names::SERVE_UPDATES), 10);
    assert_eq!(
        report.final_metrics.counter(names::SERVE_TUPLES_CHANGED),
        20
    );
}

/// Protocol versioning: declaring an unknown proto gets a structured
/// `unsupported_proto` error; rejected mutations (undeclared relation,
/// arity mismatch, out-of-universe element) get `mutation` errors and
/// never bump the epoch; a no-op mutation commits nothing.
#[test]
fn proto_mismatch_and_bad_mutations_are_structured_errors() {
    let handle = start(path(6), ServerConfig::default()).expect("start");
    let mut c = Client::connect(handle.addr());

    let f = c.roundtrip(r#"{"proto":3,"id":"v","mode":"check","query":"true"}"#);
    assert_eq!(field(&f, "type"), Some("error"), "frame: {f}");
    assert_eq!(field(&f, "class"), Some("unsupported_proto"), "frame: {f}");
    assert_eq!(field(&f, "id"), Some("v"), "frame: {f}");

    // Proto 2 (the progressive dialect) is spoken.
    let f = c.roundtrip(r#"{"proto":2,"id":"v2","mode":"check","query":"true"}"#);
    assert_eq!(field(&f, "type"), Some("result"), "frame: {f}");

    let f = c.roundtrip(
        r#"{"proto":1,"id":"m1","mode":"update","op":"insert","rel":"Nope","tuple":[0,1]}"#,
    );
    assert_eq!(field(&f, "class"), Some("mutation"), "frame: {f}");
    let f = c.roundtrip(
        r#"{"proto":1,"id":"m2","mode":"update","op":"insert","rel":"E","tuple":[0,1,2]}"#,
    );
    assert_eq!(field(&f, "class"), Some("mutation"), "frame: {f}");
    let f = c.roundtrip(
        r#"{"proto":1,"id":"m3","mode":"update","op":"insert","rel":"E","tuple":[0,99]}"#,
    );
    assert_eq!(field(&f, "class"), Some("mutation"), "frame: {f}");

    // Deleting an absent tuple is accepted but commits nothing.
    let f = c.roundtrip(
        r#"{"proto":1,"id":"m4","mode":"update","op":"delete","rel":"E","tuple":[0,5]}"#,
    );
    assert_eq!(field(&f, "type"), Some("result"), "frame: {f}");
    assert_eq!(field(&f, "epoch"), Some("0"), "frame: {f}");
    assert_eq!(field(&f, "changed"), Some("0"), "frame: {f}");

    // The structure is untouched by any of the rejected mutations.
    let f = c.roundtrip(r##"{"proto":1,"id":"q","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    assert_eq!(field(&f, "value"), Some("10"), "frame: {f}");
    assert_eq!(field(&f, "epoch"), Some("0"), "frame: {f}");

    handle.drain();
}

/// One minimal HTTP GET against the telemetry listener; returns
/// `(status, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).expect("telemetry connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// ISSUE 7, satellite 3: every request-scoped response frame — result,
/// update ack, error (bad-request, panic, interrupted), shed — echoes
/// the client's `id` and carries a server-minted `trace_id`; the ids
/// are distinct across requests; and the deadline-tripped request's
/// full trace is tail-sampled without any tracing configuration.
#[test]
fn every_response_frame_echoes_id_and_trace_id() {
    let handle = start(
        path(12),
        ServerConfig {
            engine: EngineKind::Naive,
            fault_panic_element: Some(3),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut c = Client::connect(handle.addr());

    let mut trace_ids = std::collections::BTreeSet::new();
    let mut check = |frame: &str, id: &str, ty: &str| -> String {
        assert_eq!(field(frame, "type"), Some(ty), "frame: {frame}");
        assert_eq!(field(frame, "id"), Some(id), "frame: {frame}");
        let tid = field(frame, "trace_id")
            .unwrap_or_else(|| panic!("no trace_id on frame: {frame}"))
            .to_string();
        assert!(!tid.is_empty(), "empty trace_id: {frame}");
        assert!(trace_ids.insert(tid.clone()), "trace_id reused: {frame}");
        tid
    };

    // Query result.
    let f = c.roundtrip(r##"{"id":"q1","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    check(&f, "q1", "result");
    // Mutation ack.
    let f = c.roundtrip(r#"{"id":"u1","mode":"update","op":"insert","rel":"E","tuple":[0,5]}"#);
    check(&f, "u1", "result");
    // Bad request (valid JSON, bad field): the id still echoes.
    let f = c.roundtrip(r#"{"id":"b1","mode":"warp","query":"true"}"#);
    check(&f, "b1", "error");
    // Contained worker panic.
    let f = c.roundtrip(r##"{"id":"p1","mode":"eval","query":"#(x,y). E(x,y)","engine":"local"}"##);
    let tid = check(&f, "p1", "error");
    assert_eq!(field(&f, "class"), Some("panic"), "frame: {f}");
    let panic_tid = tid;
    // Deadline interruption.
    let f = c.roundtrip(r##"{"id":"d1","mode":"eval","query":"#(x,y). E(x,y)","timeout_ms":0}"##);
    let deadline_tid = check(&f, "d1", "error");
    assert_eq!(field(&f, "class"), Some("interrupted"), "frame: {f}");

    // Tail sampling needs no configuration: the panicked and the
    // deadline-tripped requests' traces were both kept, joined to the
    // frames by trace_id, carrying the query text and epoch.
    let traces = handle.recent_traces();
    let deadline_trace = traces
        .iter()
        .find(|t| t.contains(&format!("\"trace_id\":\"{deadline_tid}\"")))
        .unwrap_or_else(|| panic!("no sampled trace for {deadline_tid}: {traces:?}"));
    assert!(deadline_trace.contains("\"outcome\":\"interrupted\""));
    assert!(deadline_trace.contains("\"sampled\":\"tail\""));
    assert!(deadline_trace.contains("#(x,y). E(x,y)"), "query text kept");
    assert!(
        deadline_trace.contains("\"epoch\":1"),
        "epoch kept (post-update)"
    );
    assert!(
        traces
            .iter()
            .any(|t| t.contains(&format!("\"trace_id\":\"{panic_tid}\""))),
        "panicked request's trace kept"
    );

    // Shed frames carry the id too: hold the only slot, then overflow.
    let handle2 = start(
        clique(40),
        ServerConfig {
            max_inflight: 1,
            queue: 0,
            engine: EngineKind::Naive,
            max_timeout: Duration::from_secs(120),
            drain_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("start 2");
    let mut slow = Client::connect(handle2.addr());
    slow.send(
        r##"{"id":"slow","mode":"eval","query":"#(x1,x2,x3,x4). (E(x1,x2) & E(x2,x3) & E(x3,x4))"}"##,
    );
    std::thread::sleep(Duration::from_millis(150));
    let mut c2 = Client::connect(handle2.addr());
    let f = c2.roundtrip(r##"{"id":"s1","mode":"check","query":"exists x. E(x,x)"}"##);
    assert_eq!(field(&f, "type"), Some("shed"), "frame: {f}");
    assert_eq!(field(&f, "id"), Some("s1"), "frame: {f}");
    assert!(
        field(&f, "trace_id").is_some_and(|t| !t.is_empty()),
        "frame: {f}"
    );
    // The drain-interrupted straggler's error frame echoes ids as well.
    let drainer = std::thread::spawn(move || handle2.drain());
    let f = slow.recv();
    assert_eq!(field(&f, "type"), Some("error"), "frame: {f}");
    assert_eq!(field(&f, "id"), Some("slow"), "frame: {f}");
    assert!(
        field(&f, "trace_id").is_some_and(|t| !t.is_empty()),
        "frame: {f}"
    );
    drainer.join().expect("drain");

    handle.drain();
}

/// ISSUE 7 acceptance: `GET /metrics` returns a valid exposition while
/// 8 concurrent clients are mid-request; `/healthz` flips once drain
/// starts; `/stats` reports the live in-flight count.
#[test]
fn telemetry_scrapes_while_eight_clients_are_midrequest() {
    let handle = start(
        clique(30),
        ServerConfig {
            max_inflight: 8,
            queue: 8,
            engine: EngineKind::Naive,
            max_timeout: Duration::from_secs(120),
            drain_timeout: Duration::from_millis(300),
            telemetry_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let addr = handle.addr();
    let taddr = handle.telemetry_addr().expect("telemetry bound");

    // 8 clients, each parked in a deliberately huge naive evaluation
    // (30^4 assignments) that only drain's cancellation will end.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                c.send(&format!(
                    r##"{{"id":"busy-{i}","mode":"eval","query":"#(x1,x2,x3,x4). (E(x1,x2) & E(x2,x3) & E(x3,x4))"}}"##
                ));
                let f = c.recv();
                assert_eq!(field(&f, "type"), Some("error"), "frame: {f}");
                assert_eq!(field(&f, "class"), Some("interrupted"), "frame: {f}");
            })
        })
        .collect();

    // Wait until all 8 are actually in flight, via /stats itself.
    let t0 = std::time::Instant::now();
    loop {
        let (status, body) = http_get(taddr, "/stats");
        assert_eq!(status, 200, "/stats body: {body}");
        if field(&body, "inflight") == Some("8") {
            assert_eq!(field(&body, "pressure"), Some("0"), "stats: {body}");
            assert_eq!(field(&body, "draining"), Some("false"), "stats: {body}");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "clients never went in flight: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A healthy scrape while everyone is busy.
    let (status, body) = http_get(taddr, "/healthz");
    assert_eq!(status, 200, "healthz: {body}");
    assert!(body.contains("\"status\":\"ok\""), "healthz: {body}");

    let (status, expo) = http_get(taddr, "/metrics");
    assert_eq!(status, 200);
    assert!(expo.contains("# HELP foc_server_requests"), "expo: {expo}");
    assert!(
        expo.contains("# TYPE foc_server_inflight gauge"),
        "expo: {expo}"
    );
    assert!(
        expo.contains("foc_server_inflight 8"),
        "live gauge in exposition: {}",
        expo.lines()
            .filter(|l| l.contains("inflight"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    assert!(
        expo.contains("foc_server_latency_micros_bucket{le=\"+Inf\"}"),
        "histogram exposition: {expo}"
    );

    // Unknown routes and non-GETs are structured, not hangs.
    let (status, _) = http_get(taddr, "/nope");
    assert_eq!(status, 404);

    // Drain: /healthz flips to 503 while the listener is still up.
    let drainer = std::thread::spawn(move || handle.drain());
    let t0 = std::time::Instant::now();
    loop {
        let (status, body) = http_get(taddr, "/healthz");
        if status == 503 && body.contains("draining") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "healthz never flipped: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = drainer.join().expect("drain");
    assert_eq!(
        report.interrupted, 8,
        "all stragglers cancelled at the deadline"
    );
    assert_eq!(
        report.final_metrics.counter(names::SERVE_TELEMETRY_SCRAPES),
        1,
        "the one /metrics scrape is counted"
    );
    for c in clients {
        c.join().expect("client");
    }
}

/// ISSUE 7 acceptance: killing a worker via the fault-injection hook
/// leaves a flight-recorder postmortem file on disk whose JSON names
/// the panic and contains the ring of recent events.
#[test]
fn worker_panic_leaves_a_postmortem_file() {
    let dir = std::env::temp_dir().join(format!("foc-postmortem-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let handle = start(
        path(12),
        ServerConfig {
            engine: EngineKind::Naive,
            fault_panic_element: Some(3),
            postmortem_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut c = Client::connect(handle.addr());

    // A healthy request first, so the ring has history to dump.
    let f = c.roundtrip(r##"{"id":"warm","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    assert_eq!(field(&f, "type"), Some("result"), "frame: {f}");
    let f =
        c.roundtrip(r##"{"id":"boom","mode":"eval","query":"#(x,y). E(x,y)","engine":"local"}"##);
    assert_eq!(field(&f, "class"), Some("panic"), "frame: {f}");
    let trace_id = field(&f, "trace_id").expect("trace id").to_string();

    let dump = dir.join("foc-postmortem-panic-0.json");
    assert!(dump.exists(), "postmortem file written: {}", dump.display());
    let text = std::fs::read_to_string(&dump).expect("read dump");
    assert!(text.contains("\"reason\":"), "dump: {text}");
    assert!(text.contains("worker panic"), "dump: {text}");
    assert!(text.contains(&trace_id), "dump names the trace: {text}");
    assert!(text.contains("\"events\": ["), "dump: {text}");

    let report = handle.drain();
    assert_eq!(report.final_metrics.counter(names::SERVE_POSTMORTEMS), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Anytime acceptance (ISSUE 8): a fuel budget that makes plain
/// evaluation fail with an `interrupted` error instead yields — with
/// `"anytime":true` on proto 2 — at least one progressive `partial`
/// frame followed by exactly one terminal `result` frame whose
/// confidence tag marks the answer a sound lower bound. The partial
/// strictly precedes the final, and both bound the exact answer.
#[test]
fn anytime_requests_stream_partials_then_a_tagged_result() {
    let structure = path(200);
    let handle = start(
        structure.clone(),
        ServerConfig {
            engine: EngineKind::Cover,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut c = Client::connect(handle.addr());
    let exact = Evaluator::builder()
        .kind(EngineKind::Naive)
        .build()
        .expect("reference evaluator")
        .eval_ground(
            &structure,
            &parse_term("#(x,y). !(dist(x,y) <= 2)").expect("parse"),
        )
        .expect("reference eval");

    // Without anytime: the budget trips and the work is discarded.
    let f = c.roundtrip(
        r##"{"proto":2,"id":"plain","mode":"eval","query":"#(x,y). !(dist(x,y) <= 2)","fuel":800}"##,
    );
    assert_eq!(field(&f, "type"), Some("error"), "frame: {f}");
    assert_eq!(field(&f, "class"), Some("interrupted"), "frame: {f}");

    // With anytime: partial frame(s), then a confidence-tagged result.
    c.send(
        r##"{"proto":2,"id":"any","mode":"eval","query":"#(x,y). !(dist(x,y) <= 2)","fuel":800,"anytime":true}"##,
    );
    let mut frames = Vec::new();
    loop {
        let f = c.recv();
        let terminal = field(&f, "type") != Some("partial");
        frames.push(f);
        if terminal {
            break;
        }
    }
    let (partials, terminal) = frames.split_at(frames.len() - 1);
    assert!(
        !partials.is_empty(),
        "at least one partial frame precedes the final: {frames:?}"
    );
    for p in partials {
        assert_eq!(field(p, "type"), Some("partial"), "frame: {p}");
        assert_eq!(field(p, "id"), Some("any"), "frame: {p}");
        assert!(field(p, "pass").is_some(), "frame: {p}");
        let v: i64 = field(p, "value").unwrap().parse().expect("numeric value");
        // Each banked pass honours its own tag: an ε-estimate is within
        // its bound, every other tag is a sound lower bound.
        if field(p, "confidence") == Some("approx") {
            let b: i64 = field(p, "error_bound").unwrap().parse().unwrap();
            assert!(
                (v - exact).abs() <= b,
                "approx partial {v} strays past ±{b} of {exact}: {p}"
            );
        } else {
            assert!(v <= exact, "partial {v} bounds exact {exact}: {p}");
        }
    }
    let f = &terminal[0];
    assert_eq!(field(f, "type"), Some("result"), "frame: {f}");
    assert_eq!(field(f, "id"), Some("any"), "frame: {f}");
    assert_eq!(field(f, "proto"), Some("2"), "frame: {f}");
    // The approx rung fits its 185 samples inside this budget, and the
    // ε-estimate outranks the sample pass's lower bound.
    assert_eq!(
        field(f, "confidence"),
        Some("approx"),
        "tripped budget yields the banked ε-estimate: {f}"
    );
    assert_eq!(field(f, "approx"), Some("true"), "frame: {f}");
    let b: i64 = field(f, "error_bound").unwrap().parse().unwrap();
    let v: i64 = field(f, "value").unwrap().parse().expect("numeric value");
    assert!(
        (v - exact).abs() <= b,
        "estimate {v} strays past ±{b} of exact {exact}"
    );

    let report = handle.drain();
    assert_eq!(report.final_metrics.counter(names::SERVE_ANYTIME), 1);
    assert!(report.final_metrics.counter(names::SERVE_PARTIAL_FRAMES) >= 1);
}

/// Creates (and cleans) a unique scratch directory for WAL tests.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("foc-serve-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// ISSUE 10 tentpole: every acknowledged mutation survives a restart.
/// A server with a WAL directory acks three batches, goes away, and a
/// second server recovering from the same directory serves the exact
/// epoch and answers the first one acked.
#[test]
fn acknowledged_updates_survive_restart_via_wal() {
    let dir = wal_dir("restart");
    let first = start(
        path(16),
        ServerConfig {
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("start with wal");
    {
        let mut c = Client::connect(first.addr());
        let batches = [
            r##"{"proto":1,"id":"u1","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[0,8]}]}"##,
            r##"{"proto":1,"id":"u2","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[8,0]},{"op":"delete","rel":"E","tuple":[0,1]}]}"##,
            r##"{"proto":1,"id":"u3","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[15,2]}]}"##,
        ];
        for (i, b) in batches.iter().enumerate() {
            let f = c.roundtrip(b);
            assert_eq!(
                field(&f, "epoch"),
                Some(format!("{}", i + 1).as_str()),
                "frame: {f}"
            );
        }
        let f = c.roundtrip(r##"{"proto":1,"id":"q","mode":"eval","query":"#(x,y). E(x,y)"}"##);
        assert_eq!(field(&f, "value"), Some("32"), "frame: {f}");
    }
    // An abrupt departure: no graceful drain, just drop the handle.
    drop(first);

    let second = start(
        path(16),
        ServerConfig {
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("restart from wal");
    assert_eq!(second.metrics().counter(names::RECOVERY_RUNS).get(), 1);
    assert_eq!(second.metrics().counter(names::RECOVERY_REPLAYED).get(), 3);
    let mut c = Client::connect(second.addr());
    let f = c.roundtrip(r##"{"proto":1,"id":"q","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    assert_eq!(field(&f, "value"), Some("32"), "frame: {f}");
    assert_eq!(field(&f, "epoch"), Some("3"), "frame: {f}");
    second.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE 10, satellite 2: a request line beyond `--max-frame-bytes` is
/// answered with a structured `bad-request` frame, the connection
/// survives for the next request, and the counter ticks.
#[test]
fn oversized_frames_are_rejected_and_the_connection_survives() {
    let handle = start(
        path(8),
        ServerConfig {
            max_frame_bytes: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut c = Client::connect(handle.addr());
    let big = format!(
        r##"{{"proto":1,"id":"big","mode":"eval","query":"{}"}}"##,
        "x".repeat(4096)
    );
    let f = c.roundtrip(&big);
    assert_eq!(field(&f, "class"), Some("bad-request"), "frame: {f}");
    // The same connection keeps working after the oversized line.
    let f = c.roundtrip(r##"{"proto":1,"id":"q","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    assert_eq!(field(&f, "value"), Some("14"), "frame: {f}");
    drop(c);
    let report = handle.drain();
    assert_eq!(
        report.final_metrics.counter(names::SERVE_FRAMES_OVERSIZED),
        1
    );
}

/// ISSUE 10 tentpole + satellite 6: a WAL append failure rolls the
/// commit back, degrades the server to read-only (refusing further
/// mutations with a structured frame), keeps answering queries, turns
/// `/healthz` into a 503 — and the state recovered afterwards is
/// exactly the last *acknowledged* one.
#[test]
fn wal_append_failure_degrades_to_readonly_without_losing_acked_state() {
    let dir = wal_dir("degrade");
    let handle = start(
        path(16),
        ServerConfig {
            wal_dir: Some(dir.clone()),
            wal_fail_appends: Some(1),
            telemetry_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .expect("start with failing wal");
    let taddr = handle.telemetry_addr().expect("telemetry bound");
    let mut c = Client::connect(handle.addr());

    // First mutation is durably acked.
    let f = c.roundtrip(
        r##"{"proto":1,"id":"u1","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[0,9]}]}"##,
    );
    assert_eq!(field(&f, "epoch"), Some("1"), "frame: {f}");

    // Second mutation hits the injected IO failure: rolled back, and
    // the server walks the degrade ladder into read-only mode.
    let f = c.roundtrip(
        r##"{"proto":1,"id":"u2","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[9,0]}]}"##,
    );
    assert_eq!(field(&f, "class"), Some("read-only"), "frame: {f}");
    assert!(f.contains("wal append failed"), "frame: {f}");

    // Third mutation is refused up front, same class.
    let f = c.roundtrip(
        r##"{"proto":1,"id":"u3","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[5,9]}]}"##,
    );
    assert_eq!(field(&f, "class"), Some("read-only"), "frame: {f}");

    // Queries still get answers, at the last acknowledged epoch.
    let f = c.roundtrip(r##"{"proto":1,"id":"q","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    assert_eq!(field(&f, "value"), Some("31"), "frame: {f}");
    assert_eq!(field(&f, "epoch"), Some("1"), "frame: {f}");

    // Health reflects the degraded WAL.
    let (status, body) = http_get(taddr, "/healthz");
    assert_eq!(status, 503, "body: {body}");
    assert!(body.contains("wal-readonly"), "body: {body}");
    assert!(body.contains("\"readonly\":true"), "body: {body}");
    drop(c);
    drop(handle);

    // Recovery lands on the acked epoch 1, not the rolled-back 2.
    let recovered = start(
        path(16),
        ServerConfig {
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("recover");
    let mut c = Client::connect(recovered.addr());
    let f = c.roundtrip(r##"{"proto":1,"id":"q","mode":"eval","query":"#(x,y). E(x,y)"}"##);
    assert_eq!(field(&f, "value"), Some("31"), "frame: {f}");
    assert_eq!(field(&f, "epoch"), Some("1"), "frame: {f}");
    drop(c);
    recovered.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
