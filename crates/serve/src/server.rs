//! The resilient query server: admission control, per-request budgets,
//! panic isolation, a memory-pressure ladder, and graceful drain.
//!
//! One `std::net::TcpListener`, one accept thread (non-blocking, so it
//! can never be wedged by a slow client or a full admission queue), one
//! thread per connection. The structure is loaded once; every request
//! builds a cheap [`Evaluator`] over it, sharing one [`TermCache`]
//! across all sessions (the "warm pool" — the expensive state is the
//! memoised values, not the evaluator structs).
//!
//! Failure containment, per request:
//! * the request's deadline/fuel are clamped by the server caps and
//!   armed as a [`foc_guard::Budget`] (plus the drain [`CancelToken`]
//!   and an optional request-level memory cap against the server-wide
//!   [`MemoryMeter`]);
//! * evaluation runs under [`foc_parallel::run_isolated`], so a
//!   panicking query is answered with a structured error frame while
//!   the connection thread survives;
//! * admission is a bounded gate: over `max_inflight` requests wait in
//!   a bounded queue; over `queue` waiters, the request is shed with a
//!   `retry_after_ms` hint — nothing ever blocks unboundedly.
//!
//! Memory watermark escalation (server-wide, observed at admission):
//! shrink the shared cache to half → evict it entirely and stop caching
//! → shed requests until the meter drops below the limit. Requests can
//! additionally carry their own byte cap, which arms
//! `TripReason::Memory` on the guard and surfaces as an
//! `"interrupted"` error frame.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant, SystemTime};

use foc_core::{
    AnswerValue, ApproxConfig, Confidence, CostModel, EngineKind, Error, Evaluator, PassReport,
};
use foc_guard::{Budget, CancelToken, MemoryMeter, TraceContext, TripReason};
use foc_locality::{migrate_cache, TermCache};
use foc_logic::parse::{parse_formula, parse_term};
use foc_logic::Predicates;
use foc_obs::{
    names, pow2_buckets, quantile_detail, FlightRecorder, Gauge, Histogram, MemorySink, Metrics,
};
use foc_parallel::{run_isolated_observed, Fault};
use foc_structures::{DeltaStructure, Structure, TupleOp};
use foc_wal::{DirStore, FsyncPolicy, Wal};

use crate::protocol::{
    anytime_result_frame, drained_frame, error_frame, parse_request, partial_frame, result_frame,
    shed_frame, update_frame, Answer, Mode, Request, PROTO_PROGRESSIVE,
};
use crate::telemetry;
use crate::trace::{trace_line, TailSampler, TraceLog};

/// Server configuration. `Default` binds an ephemeral loopback port
/// with conservative caps.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Requests evaluated concurrently; more wait in the queue.
    pub max_inflight: usize,
    /// Bounded admission queue; requests beyond it are shed.
    pub queue: usize,
    /// Server-wide memory watermark in bytes (`None` = no watermark).
    pub mem_limit: Option<u64>,
    /// How long `drain` waits for in-flight work before cancelling it.
    pub drain_timeout: Duration,
    /// Cap (and default) for request-supplied deadlines.
    pub max_timeout: Duration,
    /// Cap for request-supplied fuel (`None` = unlimited default).
    pub max_fuel: Option<u64>,
    /// Default engine (requests may override the kind, never the caps).
    pub engine: EngineKind,
    /// Worker threads per evaluation.
    pub threads: usize,
    /// Capacity of the shared memo cache, in entries.
    pub cache_capacity: usize,
    /// The hint sent in shed frames.
    pub retry_after_ms: u64,
    /// Bind address for the telemetry scrape listener (`/metrics`,
    /// `/healthz`, `/stats`); `None` = no listener.
    pub telemetry_addr: Option<String>,
    /// Request-scoped tracing: capture a span tree per request and
    /// tail-sample it. `false` skips span capture entirely (trace ids
    /// are still minted and echoed on frames).
    pub tracing: bool,
    /// Keep 1 in N well-behaved traces (anomalous ones are always
    /// kept); `0` keeps anomalous traces only, `1` keeps everything.
    pub trace_sample: u64,
    /// Seed for the trace sampler (deterministic keep positions).
    pub trace_seed: u64,
    /// Slow-query threshold; `None` derives it live as 4× the p99 of
    /// the server latency histogram (once it has ≥ 64 observations).
    pub slow_query: Option<Duration>,
    /// Append kept traces as JSON-lines to this file.
    pub trace_path: Option<PathBuf>,
    /// Directory for flight-recorder postmortem dumps (`None` = the
    /// ring is kept in memory but never written to disk).
    pub postmortem_dir: Option<PathBuf>,
    /// Write-ahead-log directory (`None` = no durability: commits live
    /// only in memory). With a WAL, startup recovers the directory's
    /// checkpoint + log tail — the recovered state *replaces* the
    /// loaded structure — and every effective commit is logged before
    /// its acknowledgement frame is sent (durable per `fsync`).
    pub wal_dir: Option<PathBuf>,
    /// When an appended WAL record becomes durable (see
    /// [`FsyncPolicy`]); `always` makes every acknowledgement imply
    /// durability.
    pub fsync: FsyncPolicy,
    /// Take a snapshot checkpoint (and reset the log) once the log
    /// grows past this many bytes, bounding recovery replay time.
    pub wal_checkpoint_bytes: u64,
    /// Longest accepted request line in bytes; an oversized line is
    /// answered with a `bad-request` error frame and skipped instead of
    /// growing the read buffer unboundedly.
    pub max_frame_bytes: usize,
    /// Test-only fault injection, forwarded to the evaluator builder
    /// (see `EvaluatorBuilder::fault_panic_element`).
    #[doc(hidden)]
    pub fault_panic_element: Option<u32>,
    /// Test-only fault injection: WAL appends fail after this many
    /// succeed, exercising the read-only degrade ladder.
    #[doc(hidden)]
    pub wal_fail_appends: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 4,
            queue: 16,
            mem_limit: None,
            drain_timeout: Duration::from_secs(5),
            max_timeout: Duration::from_secs(10),
            max_fuel: None,
            engine: EngineKind::Local,
            threads: 1,
            cache_capacity: foc_locality::cache::DEFAULT_CAPACITY,
            retry_after_ms: 50,
            telemetry_addr: None,
            tracing: true,
            trace_sample: 128,
            trace_seed: 0x5eed_f0c1,
            slow_query: None,
            trace_path: None,
            postmortem_dir: None,
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            wal_checkpoint_bytes: 4 << 20,
            max_frame_bytes: 4 << 20,
            fault_panic_element: None,
            wal_fail_appends: None,
        }
    }
}

/// The admission posture the pressure ladder hands each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posture {
    /// Refuse the request with a shed frame.
    shed: bool,
    /// Let the request use the shared memo cache.
    use_cache: bool,
    /// Run queries through the anytime driver even when the client did
    /// not ask (rung 3): a degraded answer beats a refusal.
    force_anytime: bool,
}

impl Posture {
    fn normal() -> Posture {
        Posture {
            shed: false,
            use_cache: true,
            force_anytime: false,
        }
    }
}

/// Admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Evaluate now (the caller must call [`Gate::exit`] afterwards).
    Admitted,
    /// Refused: queue full, or the server is draining.
    Shed,
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    waiting: usize,
    draining: bool,
}

/// The bounded admission gate: at most `max_inflight` requests evaluate
/// at once, at most `queue` wait. Everything else is shed immediately —
/// `enter` never blocks unless a bounded queue slot was free, and drain
/// wakes every waiter.
///
/// The gate is also the single writer of the live admission gauges
/// (`server.inflight`, `server.queue_depth`, `server.inflight_peak`):
/// every transition happens under the gate mutex, so the gauges the
/// scrape endpoint exports always agree with the state the gate acts
/// on.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_inflight: usize,
    queue: usize,
    inflight_gauge: Gauge,
    inflight_peak: Gauge,
    queue_gauge: Gauge,
}

impl Gate {
    fn new(max_inflight: usize, queue: usize, metrics: &Metrics) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue,
            inflight_gauge: metrics.gauge(names::SERVE_INFLIGHT),
            inflight_peak: metrics.gauge(names::SERVE_INFLIGHT_PEAK),
            queue_gauge: metrics.gauge(names::SERVE_QUEUE_DEPTH),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn enter(&self) -> Admission {
        let mut st = self.lock();
        if st.draining {
            return Admission::Shed;
        }
        if st.inflight < self.max_inflight {
            st.inflight += 1;
            self.inflight_peak.set_max(self.inflight_gauge.inc());
            return Admission::Admitted;
        }
        if st.waiting >= self.queue {
            return Admission::Shed;
        }
        st.waiting += 1;
        self.queue_gauge.inc();
        loop {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            if st.draining {
                st.waiting -= 1;
                self.queue_gauge.dec();
                return Admission::Shed;
            }
            if st.inflight < self.max_inflight {
                st.waiting -= 1;
                self.queue_gauge.dec();
                st.inflight += 1;
                self.inflight_peak.set_max(self.inflight_gauge.inc());
                return Admission::Admitted;
            }
        }
    }

    fn exit(&self) {
        let mut st = self.lock();
        st.inflight = st.inflight.saturating_sub(1);
        self.inflight_gauge.dec();
        drop(st);
        self.cv.notify_all();
    }

    fn start_drain(&self) {
        self.lock().draining = true;
        self.cv.notify_all();
    }

    /// Waits until no request is in flight, up to `deadline`. Returns
    /// the number still in flight when it gave up (0 = clean).
    fn wait_idle(&self, deadline: Instant) -> usize {
        let mut st = self.lock();
        while st.inflight > 0 {
            let now = Instant::now();
            if now >= deadline {
                return st.inflight;
            }
            let (next, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = next;
        }
        0
    }
}

/// Everything a connection thread needs, shared by `Arc` (crate-public
/// so the telemetry listener can scrape it).
pub(crate) struct Shared {
    config: ServerConfig,
    /// The single writer: mutation requests serialise on this lock,
    /// apply their batch as a delta commit, migrate the shared caches,
    /// and publish the next snapshot.
    writer: Mutex<DeltaStructure>,
    /// The currently published snapshot. Queries clone the `Arc` at
    /// admission and evaluate against that epoch for their whole
    /// lifetime — commits never perturb an in-flight read.
    published: RwLock<Arc<Structure>>,
    preds: Predicates,
    cache: Arc<TermCache>,
    meter: MemoryMeter,
    gate: Gate,
    metrics: Metrics,
    cancel: CancelToken,
    shutdown: AtomicBool,
    /// Set at the very end of drain; tells the accept thread (which
    /// keeps shedding new connections while draining) to exit.
    accept_stop: AtomicBool,
    /// Memory-pressure ladder position: 0 = normal, 1 = cache halved,
    /// 2 = cache off, 3 = anytime forced (degraded answers over
    /// refusals), 4 = shedding.
    pressure: Mutex<u8>,
    /// Live per-pass cost history feeding the anytime time manager's
    /// slice planning, shared across every request.
    cost_model: CostModel,
    /// Peak of the server-wide byte account, for reports.
    peak_resident: AtomicU64,
    /// The server latency histogram, resolved once (also feeds the
    /// derived slow-query threshold).
    latency: Histogram,
    /// Ring of recent span closures and events, dumped as a postmortem
    /// on panic / drain interruption / shed-rung escalation.
    recorder: Arc<FlightRecorder>,
    /// Where kept traces go (in-memory ring + optional JSON-lines file).
    traces: TraceLog,
    /// The seeded 1-in-N keep decision for well-behaved requests.
    sampler: TailSampler,
    /// Server start, for uptime and trace-id minting.
    started: Instant,
    /// Per-process salt for trace ids (wall clock at startup).
    mint_seed: u64,
    trace_seq: AtomicU64,
    postmortem_seq: AtomicU64,
    /// The write-ahead log, when `--wal-dir` is configured. Appends
    /// happen under the writer lock (commit order = log order); this
    /// separate mutex only exists so the telemetry endpoints can read
    /// WAL health without contending on the writer.
    wal: Option<Mutex<WalState>>,
    /// The degrade ladder's first rung: a WAL IO failure flips this and
    /// the server refuses mutations (queries still answered) instead of
    /// acknowledging updates it cannot make durable. A second failure
    /// escalates to drain.
    wal_readonly: AtomicBool,
}

/// The WAL behind its health/append mutex, plus the test-only
/// fail-after-N fault injector.
struct WalState {
    wal: Wal<DirStore>,
    fail_appends: Option<u64>,
}

impl WalState {
    /// Appends one commit record, bumping the `server.wal.*` counters.
    fn append(
        &mut self,
        epoch: u64,
        fingerprint: u64,
        ops: &[TupleOp],
        m: &Metrics,
    ) -> std::io::Result<foc_wal::AppendInfo> {
        if let Some(left) = &mut self.fail_appends {
            if *left == 0 {
                return Err(std::io::Error::other("injected wal append failure"));
            }
            *left -= 1;
        }
        let info = self.wal.append_commit(epoch, fingerprint, ops)?;
        m.counter(names::SERVE_WAL_APPENDS).inc();
        m.counter(names::SERVE_WAL_BYTES).add(info.bytes);
        if info.synced {
            m.counter(names::SERVE_WAL_SYNCS).inc();
        }
        Ok(info)
    }
}

impl Shared {
    /// Observes the watermark at admission and walks the escalation
    /// ladder one step per over-limit observation: shrink the cache to
    /// half → evict everything and stop caching → force anytime
    /// evaluation (degraded answers beat refusals) → shed. Dropping
    /// back under the limit resets the ladder (caching resumes).
    /// Returns the admission posture for this request.
    fn apply_pressure(&self) -> Posture {
        let used = self.meter.used();
        self.peak_resident.fetch_max(used, Ordering::Relaxed);
        let Some(limit) = self.config.mem_limit else {
            return Posture::normal();
        };
        let mut level = self.pressure.lock().unwrap_or_else(|e| e.into_inner());
        if used <= limit {
            *level = 0;
            return Posture::normal();
        }
        let steps = self.metrics.counter(names::SERVE_PRESSURE_STEPS);
        match *level {
            0 => {
                *level = 1;
                steps.inc();
                let target = self.cache.len() / 2;
                self.cache.shrink_to(target);
                Posture {
                    shed: false,
                    use_cache: true,
                    force_anytime: false,
                }
            }
            1 => {
                *level = 2;
                steps.inc();
                self.cache.shrink_to(0);
                self.recorder
                    .event("pressure", "rung 2: cache evicted, caching off");
                Posture {
                    shed: false,
                    use_cache: false,
                    force_anytime: false,
                }
            }
            2 => {
                *level = 3;
                steps.inc();
                self.recorder.event(
                    "pressure",
                    "rung 3: anytime forced, queries answer best-so-far \
                     (counting evals prefer an ε-bounded estimate to a shed)",
                );
                Posture {
                    shed: false,
                    use_cache: false,
                    force_anytime: true,
                }
            }
            3 => {
                *level = 4;
                steps.inc();
                self.postmortem("pressure", "memory watermark escalated to the shed rung");
                Posture {
                    shed: true,
                    use_cache: false,
                    force_anytime: true,
                }
            }
            _ => Posture {
                shed: true,
                use_cache: false,
                force_anytime: true,
            },
        }
    }

    /// The shed hint, derived live instead of echoing a constant: the
    /// expected time for the backlog to clear — `(queue_depth + 1) ×
    /// latency p99` — floored at the configured `retry_after_ms`,
    /// capped at 5 s, with deterministic ±12.5% jitter keyed on the
    /// trace id so a shed burst's retries don't re-arrive in lockstep.
    /// Before the latency histogram has a p99, the configured value is
    /// the hint (plus jitter). A *saturated* p99 — the target rank fell
    /// in the histogram's +inf bucket, so the true p99 is only known to
    /// exceed the range — pins the hint at the cap: a backlog that slow
    /// must not be told to hurry back.
    fn retry_after_hint(&self, trace_id: &str) -> u64 {
        let depth = self.gate.lock().waiting as u64;
        let base = self.config.retry_after_ms.max(1);
        let cap = 5_000.max(base);
        let hint = match quantile_detail(&self.latency.snapshot(), 0.99) {
            Some((_, true)) => cap,
            Some((us, false)) => (depth + 1)
                .saturating_mul((us / 1_000).max(1))
                .max(base)
                .min(cap),
            None => base,
        };
        // FNV-1a over the trace id: stable across runs, different per
        // request.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in trace_id.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let spread = (hint / 4).max(1);
        hint - spread / 2 + h % spread
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The snapshot new queries are admitted under.
    fn snapshot(&self) -> Arc<Structure> {
        self.published
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Mints the request-scoped trace context: a process-unique hex
    /// trace id (startup salt + arrival sequence) paired with the
    /// client's request id.
    fn mint_trace(&self, request_id: &str) -> TraceContext {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        TraceContext::new(format!("{:08x}-{seq:x}", self.mint_seed as u32), request_id)
    }

    /// The live slow-query threshold in microseconds: the configured
    /// value, or 4× the p99 of the latency histogram once it has seen
    /// enough requests to estimate one (`u64::MAX` before that — no
    /// request is "slow" until there is a population to be slow
    /// against). When the p99 is *saturated* (its rank fell in the
    /// +inf bucket) the estimate is only a lower bound on the true p99,
    /// so no multiple of it separates outliers from the norm — the
    /// threshold stays disabled rather than tagging (and tail-sampling)
    /// essentially every request.
    fn slow_threshold_micros(&self) -> u64 {
        if let Some(d) = self.config.slow_query {
            return d.as_micros() as u64;
        }
        let h = self.latency.snapshot();
        if h.total < 64 {
            return u64::MAX;
        }
        match quantile_detail(&h, 0.99) {
            Some((_, true)) | None => u64::MAX,
            Some((p99, false)) => p99.saturating_mul(4).max(1_000),
        }
    }

    /// Records a postmortem: bumps the counter, stamps the reason into
    /// the flight-recorder ring, and — when a postmortem directory is
    /// configured — dumps the ring to
    /// `foc-postmortem-<tag>-<n>.json`. Best-effort on the file side: a
    /// failing disk must not take serving down.
    fn postmortem(&self, tag: &str, reason: &str) {
        self.metrics.counter(names::SERVE_POSTMORTEMS).inc();
        self.recorder.event("postmortem", reason);
        if let Some(dir) = &self.config.postmortem_dir {
            let n = self.postmortem_seq.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("foc-postmortem-{tag}-{n}.json"));
            let _ = self.recorder.dump_to_file(&path, reason);
        }
    }

    /// The server's metrics registry (telemetry scrape surface).
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// WAL health for the telemetry surfaces: `(last fsync age in
    /// micros, log bytes since the last checkpoint)`. `None` when no
    /// WAL is configured.
    fn wal_health(&self) -> Option<(u64, u64)> {
        let wal = self.wal.as_ref()?;
        let st = wal.lock().unwrap_or_else(|e| e.into_inner());
        Some((st.wal.unsynced_age().as_micros() as u64, st.wal.log_bytes()))
    }

    /// Whether the WAL degrade ladder has reached read-only mode.
    fn wal_is_readonly(&self) -> bool {
        self.wal_readonly.load(Ordering::Acquire)
    }

    /// Best-effort final fsync of the WAL (drain and abrupt shutdown):
    /// under the `interval`/`never` policies this is what makes the
    /// tail of acknowledged-but-unsynced records durable.
    fn wal_flush(&self) {
        if let Some(walm) = &self.wal {
            let mut ws = walm.lock().unwrap_or_else(|e| e.into_inner());
            match ws.wal.sync() {
                Ok(()) => {
                    self.metrics.counter(names::SERVE_WAL_SYNCS).inc();
                }
                Err(_) => {
                    self.metrics.counter(names::SERVE_WAL_ERRORS).inc();
                }
            }
        }
    }

    /// Walks the WAL degrade ladder one rung: the first failure flips
    /// read-only mode (mutations refused, queries served); a failure
    /// while already read-only initiates drain — the server sheds
    /// everything and waits for the operator. Never panics.
    fn wal_degrade(&self, what: &str, err: &std::io::Error) {
        self.metrics.counter(names::SERVE_WAL_ERRORS).inc();
        if !self.wal_readonly.swap(true, Ordering::AcqRel) {
            self.postmortem(
                "wal",
                &format!("wal {what} failed ({err}); entering read-only mode"),
            );
        } else {
            self.postmortem(
                "wal",
                &format!("wal {what} failed in read-only mode ({err}); draining"),
            );
            self.shutdown.store(true, Ordering::Release);
            self.gate.start_drain();
        }
    }

    /// Tells the telemetry scrape loop to exit (set at the end of
    /// drain, together with the accept loop's stop flag).
    pub(crate) fn telemetry_stop(&self) -> bool {
        self.accept_stop.load(Ordering::Acquire)
    }

    /// The `/healthz` verdict: `200` while serving (including the
    /// degraded anytime rung, which still answers every request),
    /// `503` once draining or when the pressure ladder reached the
    /// shed rung.
    pub(crate) fn healthz(&self) -> (u16, &'static str, String) {
        let pressure = *self.pressure.lock().unwrap_or_else(|e| e.into_inner());
        // WAL health rides every body when a WAL is configured: last
        // fsync age and the log bytes a recovery would have to replay.
        let wal = match self.wal_health() {
            Some((age, bytes)) => format!(
                ",\"wal\":{{\"readonly\":{},\"last_sync_age_micros\":{age},\"log_bytes_since_checkpoint\":{bytes}}}",
                self.wal_is_readonly()
            ),
            None => String::new(),
        };
        if self.draining() {
            (
                503,
                "application/json",
                format!("{{\"status\":\"draining\"{wal}}}"),
            )
        } else if self.wal_is_readonly() {
            (
                503,
                "application/json",
                format!("{{\"status\":\"wal-readonly\",\"pressure\":{pressure}{wal}}}"),
            )
        } else if pressure >= 4 {
            (
                503,
                "application/json",
                format!("{{\"status\":\"shedding\",\"pressure\":{pressure}{wal}}}"),
            )
        } else if pressure == 3 {
            (
                200,
                "application/json",
                format!("{{\"status\":\"degraded\",\"pressure\":{pressure}{wal}}}"),
            )
        } else {
            (
                200,
                "application/json",
                format!("{{\"status\":\"ok\",\"pressure\":{pressure}{wal}}}"),
            )
        }
    }

    /// The `/stats` body: live serving state as one JSON object.
    pub(crate) fn stats_json(&self) -> String {
        let (inflight, queue_depth, draining) = {
            let st = self.gate.lock();
            (st.inflight, st.waiting, st.draining)
        };
        let pressure = *self.pressure.lock().unwrap_or_else(|e| e.into_inner());
        let hits = self.cache.hits();
        let misses = self.cache.misses();
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let snap = self.metrics.snapshot();
        let (wal_age, wal_bytes) = self.wal_health().unwrap_or((0, 0));
        format!(
            "{{\"uptime_micros\":{},\"inflight\":{inflight},\"queue_depth\":{queue_depth},\"draining\":{draining},\"pressure\":{pressure},\"epoch\":{},\"requests\":{},\"shed\":{},\"errors\":{},\"interrupted\":{},\"slow_queries\":{},\"traces_kept\":{},\"postmortems\":{},\"cache_entries\":{},\"cache_bytes\":{},\"cache_hit_rate\":{hit_rate:.4},\"resident_bytes\":{},\"peak_resident_bytes\":{},\"wal_enabled\":{},\"wal_readonly\":{},\"wal_last_sync_age_micros\":{wal_age},\"wal_bytes_since_checkpoint\":{wal_bytes},\"wal_appends\":{},\"wal_checkpoints\":{},\"frames_oversized\":{},\"recovery_replayed\":{}}}",
            self.started.elapsed().as_micros(),
            self.snapshot().epoch(),
            snap.counter(names::SERVE_REQUESTS),
            snap.counter(names::SERVE_SHED),
            snap.counter(names::SERVE_ERRORS),
            snap.counter(names::SERVE_INTERRUPTED),
            snap.counter(names::SERVE_SLOW_QUERIES),
            snap.counter(names::SERVE_TRACES_KEPT),
            snap.counter(names::SERVE_POSTMORTEMS),
            self.cache.len(),
            self.cache.resident_bytes(),
            self.meter.used(),
            self.peak_resident.load(Ordering::Relaxed).max(self.meter.used()),
            self.wal.is_some(),
            self.wal_is_readonly(),
            snap.counter(names::SERVE_WAL_APPENDS),
            snap.counter(names::SERVE_WAL_CHECKPOINTS),
            snap.counter(names::SERVE_FRAMES_OVERSIZED),
            snap.counter(names::RECOVERY_REPLAYED),
        )
    }
}

/// Report returned by [`ServerHandle::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests still in flight when the drain deadline passed and the
    /// cancel token was pulled (0 = every request finished naturally).
    pub interrupted: u64,
    /// Wall time the drain took.
    pub drain: Duration,
    /// Connection threads joined (all of them — none leak).
    pub connections_joined: usize,
    /// The final flushed metrics (`server.*`, `cache.*`), taken after
    /// every thread was joined.
    pub final_metrics: foc_obs::MetricsSnapshot,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::drain`] aborts in-flight work abruptly (the cancel
/// token is pulled) — call `drain` for the graceful path.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    telemetry_addr: Option<SocketAddr>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    telemetry_thread: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Starts a server over `structure`. Returns once the listener is bound
/// (use [`ServerHandle::addr`] for the actual port).
pub fn start(structure: Structure, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let metrics = Metrics::new();
    // With a WAL directory, recover before serving: the checkpoint plus
    // the replayed log tail *replace* the loaded structure (they are
    // its durable history), and a fresh directory is seeded with an
    // initial checkpoint so the directory is self-contained from the
    // first acknowledged update on. A recovery failure — corrupt
    // checkpoint, epoch gap, fingerprint mismatch — refuses to serve.
    let (writer, wal) = match &config.wal_dir {
        Some(dir) => {
            let store = DirStore::open(dir)?;
            let (mut wal, rec) =
                Wal::recover(store, config.fsync, Some(structure)).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("wal recovery failed, refusing to serve: {e}"),
                    )
                })?;
            if !rec.had_checkpoint {
                wal.checkpoint(rec.delta.current())?;
                metrics.counter(names::SERVE_WAL_CHECKPOINTS).inc();
            }
            metrics.counter(names::RECOVERY_RUNS).inc();
            metrics.counter(names::RECOVERY_REPLAYED).add(rec.replayed);
            metrics.counter(names::RECOVERY_SKIPPED).add(rec.skipped);
            metrics
                .counter(names::RECOVERY_TRUNCATED_BYTES)
                .add(rec.truncated_bytes);
            let state = WalState {
                wal,
                fail_appends: config.wal_fail_appends,
            };
            (rec.delta, Some(Mutex::new(state)))
        }
        None => (DeltaStructure::new(structure), None),
    };
    let meter = MemoryMeter::new();
    meter.add(writer.current().resident_bytes());
    // Force the Gaifman graph now (evaluators would build it lazily on
    // the first request anyway) so its bytes are accounted up front;
    // delta commits then maintain it incrementally.
    let _ = writer.current().gaifman();
    let cache = Arc::new(
        TermCache::with_capacity(config.cache_capacity)
            .with_metrics(&metrics)
            .with_memory_meter(meter.clone()),
    );
    let published = RwLock::new(writer.snapshot());
    let traces = TraceLog::new(config.trace_path.as_deref())?;
    let mint_seed = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed)
        | 1;
    let shared = Arc::new(Shared {
        gate: Gate::new(config.max_inflight, config.queue, &metrics),
        sampler: TailSampler::new(config.trace_sample, config.trace_seed),
        config,
        writer: Mutex::new(writer),
        published,
        preds: Predicates::standard(),
        cache,
        meter,
        latency: metrics.histogram(names::SERVE_LATENCY_MICROS, &pow2_buckets(31)),
        cost_model: CostModel::new(&metrics),
        metrics,
        cancel: CancelToken::new(),
        shutdown: AtomicBool::new(false),
        accept_stop: AtomicBool::new(false),
        pressure: Mutex::new(0),
        peak_resident: AtomicU64::new(0),
        recorder: Arc::new(FlightRecorder::new(512)),
        traces,
        started: Instant::now(),
        mint_seed,
        trace_seq: AtomicU64::new(0),
        postmortem_seq: AtomicU64::new(0),
        wal,
        wal_readonly: AtomicBool::new(false),
    });
    let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let (telemetry_addr, telemetry_thread) = match shared.config.telemetry_addr.clone() {
        Some(taddr) => {
            let (a, t) = telemetry::start(&taddr, shared.clone())?;
            (Some(a), Some(t))
        }
        None => (None, None),
    };

    let accept_shared = shared.clone();
    let accept_conns = conns.clone();
    let accept_thread = std::thread::spawn(move || {
        accept_loop(&listener, &accept_shared, &accept_conns);
    });

    Ok(ServerHandle {
        shared,
        addr,
        telemetry_addr,
        accept_thread: Some(accept_thread),
        telemetry_thread,
        conns,
    })
}

/// The non-blocking accept loop. Admission decisions happen on the
/// connection threads, so nothing a client does can stall this loop; it
/// polls the shutdown flags between accepts. While the server drains,
/// new connections are still accepted but immediately refused with a
/// shed frame (so clients get a structured signal, not a hang); the
/// loop exits only once drain flips `accept_stop`.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        if shared.accept_stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining() {
                    refuse(stream, shared);
                    continue;
                }
                let conn_shared = shared.clone();
                let handle = std::thread::spawn(move || {
                    let _ = serve_connection(stream, &conn_shared);
                });
                conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Sheds a connection accepted during drain: one shed frame, then close.
/// The connection never carried a request line, so the frame's `id` is
/// the `"-"` placeholder (the trace id is still minted — the refusal is
/// observable in the flight recorder).
fn refuse(mut stream: TcpStream, shared: &Shared) {
    shared.metrics.counter(names::SERVE_SHED).inc();
    let tc = shared.mint_trace("-");
    shared
        .recorder
        .event("connection.refused", format!("trace={}", tc.trace_id));
    let _ = writeln!(
        stream,
        "{}",
        shed_frame("-", &tc.trace_id, shared.retry_after_hint(&tc.trace_id))
    );
}

/// Reads lines across read timeouts without losing partial data
/// (`BufRead::read_line` may drop buffered bytes on `WouldBlock`),
/// bounding the accumulated line at `max` bytes: an oversized line is
/// reported once and its remaining bytes are discarded up to the next
/// newline, so a hostile or confused client cannot grow the buffer
/// unboundedly.
struct LineReader<R> {
    inner: R,
    acc: Vec<u8>,
    /// Longest accepted line (`ServerConfig::max_frame_bytes`).
    max: usize,
    /// Set after an overflow: drop bytes until the next newline.
    skipping: bool,
}

enum LineEvent {
    Line(String),
    Eof,
    /// Read timeout: no complete line yet; poll the shutdown flag.
    Idle,
    /// The current line exceeded the frame bound; its bytes are being
    /// discarded. Reported exactly once per oversized line.
    Oversized,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R, max: usize) -> LineReader<R> {
        LineReader {
            inner,
            acc: Vec::new(),
            max: max.max(1),
            skipping: false,
        }
    }

    fn next(&mut self) -> LineEvent {
        loop {
            if let Some(i) = self.acc.iter().position(|&b| b == b'\n') {
                let rest = self.acc.split_off(i + 1);
                let mut line = std::mem::replace(&mut self.acc, rest);
                if self.skipping {
                    // The tail of an oversized line; drop it silently.
                    self.skipping = false;
                    continue;
                }
                line.pop(); // '\n'
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return LineEvent::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.skipping {
                self.acc.clear();
            } else if self.acc.len() > self.max {
                self.acc.clear();
                self.skipping = true;
                return LineEvent::Oversized;
            }
            let mut buf = [0u8; 4096];
            match self.inner.read(&mut buf) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.acc.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineEvent::Idle;
                }
                Err(_) => return LineEvent::Eof,
            }
        }
    }
}

/// One connection: read request lines, answer each with exactly one
/// frame, stop at EOF or drain.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    // One frame per line in each direction: Nagle only adds delayed-ACK
    // stalls to the request/response rhythm.
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = LineReader::new(BufReader::new(stream), shared.config.max_frame_bytes);
    loop {
        if shared.draining() {
            let _ = writeln!(writer, "{}", drained_frame());
            return Ok(());
        }
        match reader.next() {
            LineEvent::Eof => return Ok(()),
            LineEvent::Idle => continue,
            LineEvent::Oversized => {
                shared.metrics.counter(names::SERVE_FRAMES_OVERSIZED).inc();
                shared.metrics.counter(names::SERVE_ERRORS).inc();
                let tc = shared.mint_trace("-");
                shared.recorder.event(
                    "request.oversized",
                    format!(
                        "trace={} line exceeded {} bytes",
                        tc.trace_id, shared.config.max_frame_bytes
                    ),
                );
                let _ = writeln!(
                    writer,
                    "{}",
                    error_frame(
                        "-",
                        &tc.trace_id,
                        "bad-request",
                        None,
                        &format!(
                            "request line exceeds the {}-byte frame bound",
                            shared.config.max_frame_bytes
                        ),
                    )
                );
            }
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let mut io_err: Option<std::io::Error> = None;
                serve_line(&line, shared, &mut |frame| {
                    if io_err.is_none() {
                        if let Err(e) = writeln!(writer, "{frame}") {
                            io_err = Some(e);
                        }
                    }
                });
                if let Some(e) = io_err {
                    return Err(e);
                }
            }
        }
    }
}

/// Admission + evaluation of one request line. Frames go out through
/// `emit` as they are produced — exactly one terminal frame per line,
/// preceded by zero or more progressive `partial` frames for anytime
/// requests. Every path mints a [`TraceContext`] first, so each frame
/// the server emits for this line — partial, result, error, or shed —
/// carries the same `trace_id`.
fn serve_line(line: &str, shared: &Arc<Shared>, emit: &mut dyn FnMut(&str)) {
    let m = &shared.metrics;
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(f) => {
            let tc = shared.mint_trace(&f.id);
            m.counter(names::SERVE_ERRORS).inc();
            shared.recorder.event(
                "request.rejected",
                format!("trace={} class={}", tc.trace_id, f.class),
            );
            emit(&error_frame(&f.id, &tc.trace_id, f.class, None, &f.message));
            return;
        }
    };
    let tc = shared.mint_trace(&req.id);
    // Watermark first: under sustained pressure the ladder ends in shed,
    // which must not consume a gate slot.
    let posture = shared.apply_pressure();
    if posture.shed {
        m.counter(names::SERVE_SHED).inc();
        emit(&shed_frame(
            &req.id,
            &tc.trace_id,
            shared.retry_after_hint(&tc.trace_id),
        ));
        return;
    }
    match shared.gate.enter() {
        Admission::Shed => {
            m.counter(names::SERVE_SHED).inc();
            shared
                .recorder
                .event("request.shed", format!("trace={}", tc.trace_id));
            emit(&shed_frame(
                &req.id,
                &tc.trace_id,
                shared.retry_after_hint(&tc.trace_id),
            ));
        }
        Admission::Admitted => {
            m.counter(names::SERVE_REQUESTS).inc();
            if req.mode.is_mutation() {
                let frame = apply_update(&req, &tc, shared);
                emit(&frame);
            } else {
                // Snapshot-consistent read: the epoch is pinned here, at
                // admission, and held for the whole evaluation.
                let snapshot = shared.snapshot();
                evaluate_request(&req, &tc, posture, &snapshot, shared, emit);
            }
            shared.gate.exit();
        }
    }
}

/// Applies a mutation request: serialise on the writer lock, commit the
/// batch as one delta (made durable in the WAL, if any), migrate the
/// shared term cache to the new epoch (recomputing only dirty balls),
/// publish the snapshot, then evict the old epoch's cache entries.
/// Readers admitted before the publish keep evaluating against their
/// pinned snapshot; entries they re-insert under the evicted
/// fingerprint are bounded by the cache's capacity and age out via its
/// normal eviction.
fn apply_update(req: &Request, tc: &TraceContext, shared: &Arc<Shared>) -> String {
    let m = &shared.metrics;
    // Degrade ladder rung 1: with the WAL read-only, an update could be
    // applied but never made durable — refuse it instead of lying.
    if shared.wal.is_some() && shared.wal_is_readonly() {
        m.counter(names::SERVE_ERRORS).inc();
        return error_frame(
            &req.id,
            &tc.trace_id,
            "read-only",
            None,
            "write-ahead log degraded: server is read-only, mutations refused",
        );
    }
    let ops: Vec<TupleOp> = req
        .ops
        .iter()
        .map(|o| {
            if o.insert {
                TupleOp::insert(&o.rel, &o.tuple)
            } else {
                TupleOp::delete(&o.rel, &o.tuple)
            }
        })
        .collect();
    let t0 = Instant::now();
    let mut writer = shared.writer.lock().unwrap_or_else(|e| e.into_inner());
    let old = writer.snapshot();
    match writer.apply(&ops) {
        Err(e) => {
            m.counter(names::SERVE_ERRORS).inc();
            error_frame(&req.id, &tc.trace_id, "mutation", None, &e.to_string())
        }
        Ok(info) => {
            let epoch = info.epoch;
            if info.changed > 0 {
                let new = writer.snapshot();
                // Durable-ack: the commit record must be durable (per
                // the fsync policy) before anything — the published
                // snapshot or the acknowledgement frame — can observe
                // the commit. Appending under the writer lock makes log
                // order equal commit order.
                if let Some(walm) = &shared.wal {
                    let mut ws = walm.lock().unwrap_or_else(|e| e.into_inner());
                    if let Err(e) = ws.append(epoch, new.fingerprint(), &ops, m) {
                        // Roll the in-memory commit back: the served
                        // state must never run ahead of the log.
                        drop(ws);
                        writer.reset_to(old);
                        drop(writer);
                        shared.wal_degrade("append", &e);
                        m.counter(names::SERVE_ERRORS).inc();
                        return error_frame(
                            &req.id,
                            &tc.trace_id,
                            "read-only",
                            None,
                            &format!(
                                "wal append failed ({e}): commit rolled back, server is now read-only"
                            ),
                        );
                    }
                    // Bound recovery replay: checkpoint once the log
                    // outgrows its budget. The commit above is already
                    // durable, so a checkpoint failure degrades the
                    // ladder but still acknowledges this update.
                    if ws.wal.log_bytes() >= shared.config.wal_checkpoint_bytes {
                        match ws.wal.checkpoint(&new) {
                            Ok(()) => {
                                m.counter(names::SERVE_WAL_CHECKPOINTS).inc();
                            }
                            Err(e) => {
                                drop(ws);
                                shared.wal_degrade("checkpoint", &e);
                            }
                        }
                    }
                }
                let stats = migrate_cache(&shared.cache, &old, &new, &info.touched, &shared.preds);
                *shared.published.write().unwrap_or_else(|e| e.into_inner()) = new.clone();
                shared.cache.evict_structure(old.fingerprint());
                shared.meter.add(new.resident_bytes());
                shared.meter.sub(old.resident_bytes());
                m.counter(names::SERVE_CACHE_MIGRATED)
                    .add(stats.migrated as u64);
            }
            drop(writer);
            m.counter(names::SERVE_UPDATES).inc();
            m.counter(names::SERVE_TUPLES_CHANGED)
                .add(info.changed as u64);
            let micros = t0.elapsed().as_micros() as u64;
            shared.latency.observe(micros);
            shared.recorder.event(
                "update.commit",
                format!(
                    "trace={} epoch={epoch} changed={}",
                    tc.trace_id, info.changed
                ),
            );
            update_frame(&req.id, &tc.trace_id, req.mode, epoch, info.changed, micros)
        }
    }
}

/// Clamps the request's budget, builds the evaluator, runs it isolated,
/// and emits the response frames. Anytime requests (`"anytime":true`,
/// or any query while the pressure ladder sits on the force-anytime
/// rung) run through the deepening driver: each completed pass streams
/// a `partial` frame to proto-2 clients and the terminal result carries
/// the confidence tag. When tracing is on, the whole span tree of the
/// session is captured in a per-request [`MemorySink`] and the tail
/// sampler decides afterwards — once the outcome is known — whether to
/// keep it (always for errors / panics / interruptions / slow queries;
/// 1-in-N for the rest).
fn evaluate_request(
    req: &Request,
    tc: &TraceContext,
    posture: Posture,
    snapshot: &Arc<Structure>,
    shared: &Arc<Shared>,
    emit: &mut dyn FnMut(&str),
) {
    let cfg = &shared.config;
    let m = &shared.metrics;
    let use_cache = posture.use_cache;
    let anytime = req.anytime || posture.force_anytime;
    let deadline = match req.timeout {
        Some(t) => t.min(cfg.max_timeout),
        None => cfg.max_timeout,
    };
    let mut budget = Budget::unlimited()
        .with_deadline(deadline)
        .with_cancel(shared.cancel.clone())
        .with_trace(tc.clone());
    match (req.fuel, cfg.max_fuel) {
        (Some(f), Some(cap)) => budget = budget.with_fuel(f.min(cap)),
        (Some(f), None) => budget = budget.with_fuel(f),
        (None, Some(cap)) => budget = budget.with_fuel(cap),
        (None, None) => {}
    }
    if let Some(limit) = req.mem_limit {
        let clamped = match cfg.mem_limit {
            Some(cap) => limit.min(cap),
            None => limit,
        };
        budget = budget.with_memory(shared.meter.clone(), clamped);
    }
    let mut builder = Evaluator::builder()
        .kind(req.engine.unwrap_or(cfg.engine))
        .threads(cfg.threads)
        .budget(budget)
        .fault_panic_element(cfg.fault_panic_element);
    if req.approx {
        // The estimator knob rides the evaluator: the direct approx
        // path consumes it below, and an approx+anytime request feeds
        // the requested ε into the ladder's approx rung.
        builder = builder.approx(match req.epsilon {
            Some(eps) => ApproxConfig::with_epsilon(eps),
            None => ApproxConfig::default(),
        });
    }
    if use_cache {
        builder = builder.shared_cache(shared.cache.clone());
    } else {
        builder = builder.cache(false);
    }
    // Span capture: a per-request memory sink (the candidate trace) and
    // the server-wide flight recorder (the last-moments ring). Attached
    // only when tracing is on — sinks are what enable span recording,
    // so `tracing: false` keeps the request on the spans-disabled fast
    // path.
    let spans = cfg.tracing.then(MemorySink::shared);
    if let Some(s) = &spans {
        builder = builder.sink(s.clone()).sink(shared.recorder.clone());
    }
    let ev = match builder.build() {
        Ok(ev) => ev,
        Err(e) => {
            m.counter(names::SERVE_ERRORS).inc();
            emit(&error_frame(
                &req.id,
                &tc.trace_id,
                "config",
                None,
                &e.to_string(),
            ));
            return;
        }
    };

    if anytime {
        m.counter(names::SERVE_ANYTIME).inc();
    }
    let t0 = Instant::now();
    // A worker panic is the flight recorder's moment: dump the ring
    // before the error frame is even rendered, while the evidence of
    // what led up to it is still in the buffer.
    let outcome = run_isolated_observed(
        || {
            if anytime {
                run_query_anytime(&ev, req, snapshot, shared, tc, emit).map(|(a, c)| (a, Some(c)))
            } else if req.approx {
                run_query_approx(&ev, req, snapshot, shared).map(|(a, c)| (a, Some(c)))
            } else {
                run_query(&ev, req, snapshot).map(|a| (a, None))
            }
        },
        |p| {
            shared.postmortem(
                "panic",
                &format!("worker panic in trace {}: {}", tc.trace_id, p.payload),
            );
        },
    );
    let micros = t0.elapsed().as_micros() as u64;
    shared.latency.observe(micros);
    let (frame, outcome_label) = match outcome {
        Ok((answer, Some(confidence))) => (
            anytime_result_frame(
                req.proto,
                &req.id,
                &tc.trace_id,
                req.mode,
                answer,
                &confidence,
                snapshot.epoch(),
                micros,
            ),
            "ok",
        ),
        Ok((answer, None)) => (
            result_frame(
                &req.id,
                &tc.trace_id,
                req.mode,
                answer,
                snapshot.epoch(),
                micros,
            ),
            "ok",
        ),
        Err(Fault::Error(RequestError::Parse(msg))) => {
            m.counter(names::SERVE_ERRORS).inc();
            (
                error_frame(&req.id, &tc.trace_id, "parse", None, &msg),
                "error",
            )
        }
        Err(Fault::Error(RequestError::Engine(e))) => {
            m.counter(names::SERVE_ERRORS).inc();
            if let Error::Interrupted(i) = &e {
                m.counter(names::SERVE_INTERRUPTED).inc();
                if shared.draining() && i.reason == TripReason::Cancelled {
                    m.counter(names::SERVE_DRAIN_INTERRUPTED).inc();
                }
                (
                    error_frame(
                        &req.id,
                        &tc.trace_id,
                        "interrupted",
                        Some(&i.reason.to_string()),
                        &e.to_string(),
                    ),
                    "interrupted",
                )
            } else {
                // Panics contained below the engine boundary (the
                // evaluators' own isolation) surface as
                // `WorkerPanicked`; count them — and dump a postmortem —
                // just like the ones caught by `run_isolated` here.
                let label = if matches!(e, Error::WorkerPanicked { .. }) {
                    m.counter(names::SERVE_PANICS).inc();
                    shared.postmortem(
                        "panic",
                        &format!("worker panic in trace {}: {e}", tc.trace_id),
                    );
                    "panic"
                } else {
                    "error"
                };
                (
                    error_frame(&req.id, &tc.trace_id, classify(&e), None, &e.to_string()),
                    label,
                )
            }
        }
        Err(Fault::Panic(p)) => {
            m.counter(names::SERVE_ERRORS).inc();
            m.counter(names::SERVE_PANICS).inc();
            (
                error_frame(&req.id, &tc.trace_id, "panic", None, &p.payload),
                "panic",
            )
        }
    };
    let slow = micros >= shared.slow_threshold_micros();
    if slow {
        m.counter(names::SERVE_SLOW_QUERIES).inc();
    }
    if let Some(sink) = &spans {
        // Tail decision: anomalous outcomes are always kept, the rest
        // ride the seeded 1-in-N sampler.
        let anomalous = outcome_label != "ok" || slow;
        let sampled = if anomalous {
            "tail"
        } else if shared.sampler.keep_random() {
            "random"
        } else {
            ""
        };
        if sampled.is_empty() {
            m.counter(names::SERVE_TRACES_DROPPED).inc();
        } else {
            m.counter(names::SERVE_TRACES_KEPT).inc();
            let label = if slow && outcome_label == "ok" {
                "slow"
            } else {
                outcome_label
            };
            shared.traces.emit(trace_line(
                tc,
                req.mode.name(),
                &req.query,
                snapshot.epoch(),
                micros,
                label,
                sampled,
                &sink.spans(),
            ));
        }
    }
    emit(&frame);
}

/// Why one request failed below the panic boundary.
enum RequestError {
    Parse(String),
    Engine(Error),
}

/// The anytime query path: the deepening driver with the server's
/// shared [`CostModel`] feeding slice planning. Each pass that banked
/// an answer streams a `partial` frame to proto-2 clients (proto-1
/// requests forced onto this path by the pressure ladder stay
/// one-frame: the progressive dialect is opt-in).
fn run_query_anytime(
    ev: &Evaluator,
    req: &Request,
    a: &Structure,
    shared: &Shared,
    tc: &TraceContext,
    emit: &mut dyn FnMut(&str),
) -> Result<(Answer, Confidence), RequestError> {
    let stream = req.proto >= PROTO_PROGRESSIVE;
    let m = &shared.metrics;
    let mut on_pass = |r: &PassReport| {
        if !stream {
            return;
        }
        if let (Some(v), Some(c)) = (r.value, r.confidence.as_ref()) {
            let answer = match v {
                AnswerValue::Bool(b) => Answer::Bool(b),
                AnswerValue::Int(i) => Answer::Int(i),
            };
            m.counter(names::SERVE_PARTIAL_FRAMES).inc();
            emit(&partial_frame(
                &req.id,
                &tc.trace_id,
                req.mode,
                r.pass.name(),
                answer,
                c,
                r.micros,
            ));
        }
    };
    match req.mode {
        Mode::Check => {
            let f = parse_formula(&req.query).map_err(|e| RequestError::Parse(e.to_string()))?;
            ev.check_sentence_anytime(a, &f, Some(&shared.cost_model), Some(&mut on_pass))
                .map(|out| (Answer::Bool(out.value), out.confidence))
                .map_err(RequestError::Engine)
        }
        Mode::Eval => {
            let t = parse_term(&req.query).map_err(|e| RequestError::Parse(e.to_string()))?;
            ev.eval_ground_anytime(a, &t, Some(&shared.cost_model), Some(&mut on_pass))
                .map(|out| (Answer::Int(out.value), out.confidence))
                .map_err(RequestError::Engine)
        }
        Mode::Update | Mode::Batch => Err(RequestError::Parse(
            "mutation mode routed to the query path".to_string(),
        )),
    }
}

/// The direct approximate path (`"approx":true` without anytime): the
/// `(ε, δ)` estimator answers the counting eval with a bounded
/// estimate, recorded under the `engine.approx.*` metrics. An
/// exhaustive fallthrough (assignment space no larger than the sample
/// size) is the true count and is tagged `exact` with a zero bound.
fn run_query_approx(
    ev: &Evaluator,
    req: &Request,
    a: &Structure,
    shared: &Shared,
) -> Result<(Answer, Confidence), RequestError> {
    match req.mode {
        Mode::Eval => {
            let t = parse_term(&req.query).map_err(|e| RequestError::Parse(e.to_string()))?;
            let v = ev.approx_count(a, &t).map_err(RequestError::Engine)?;
            shared
                .cost_model
                .record_approx(v.samples, v.error_bound, v.exhaustive);
            let confidence = if v.exhaustive {
                Confidence::Exact
            } else {
                Confidence::Approximate {
                    error_bound: v.error_bound,
                }
            };
            Ok((Answer::Int(v.estimate), confidence))
        }
        // The parser refuses `approx` on every other mode.
        _ => Err(RequestError::Parse(
            "approx applies to eval requests only".to_string(),
        )),
    }
}

fn run_query(ev: &Evaluator, req: &Request, a: &Structure) -> Result<Answer, RequestError> {
    match req.mode {
        Mode::Check => {
            let f = parse_formula(&req.query).map_err(|e| RequestError::Parse(e.to_string()))?;
            ev.check_sentence(a, &f)
                .map(Answer::Bool)
                .map_err(RequestError::Engine)
        }
        Mode::Eval => {
            let t = parse_term(&req.query).map_err(|e| RequestError::Parse(e.to_string()))?;
            ev.eval_ground(a, &t)
                .map(Answer::Int)
                .map_err(RequestError::Engine)
        }
        // Mutations never reach the query path (`serve_line` routes them
        // to `apply_update` before an evaluator is built).
        Mode::Update | Mode::Batch => Err(RequestError::Parse(
            "mutation mode routed to the query path".to_string(),
        )),
    }
}

/// Stable error-class names for the error frame (aligned with the
/// differential harness's taxonomy where the classes overlap).
fn classify(e: &Error) -> &'static str {
    match e {
        Error::NotFoc1(_) => "not-foc1",
        Error::Eval(_) => "eval",
        Error::Locality(_) => "locality",
        Error::Unsupported(_) => "unsupported",
        Error::Config(_) => "config",
        Error::Interrupted(_) => "interrupted",
        Error::WorkerPanicked { .. } => "panic",
    }
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound telemetry address, when a scrape listener was
    /// configured (resolves `:0` to the actual port).
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry_addr
    }

    /// The kept traces still in the in-memory ring (one JSON line per
    /// trace, oldest first). The same lines go to
    /// `ServerConfig::trace_path` when configured.
    pub fn recent_traces(&self) -> Vec<String> {
        self.shared.traces.recent()
    }

    /// The flight recorder: the ring of recent span closures and
    /// events behind postmortem dumps.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.shared.recorder
    }

    /// The server's metrics registry (`server.*`, plus the shared
    /// cache's `cache.*` / `engine.cache.evictions` mirrors).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Current server-wide byte account (structure + cache occupancy).
    pub fn resident_bytes(&self) -> u64 {
        self.shared.meter.used()
    }

    /// Graceful drain: stop accepting, shed queued work, let in-flight
    /// requests finish until the drain deadline, then cancel whatever
    /// remains, join every thread, and flush metrics. Idempotent by
    /// construction (the handle is consumed).
    pub fn drain(mut self) -> DrainReport {
        let t0 = Instant::now();
        let m = &self.shared.metrics;
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.gate.start_drain();
        self.shared.recorder.event("drain", "drain started");
        let deadline = t0 + self.shared.config.drain_timeout;
        let leftover = self.shared.gate.wait_idle(deadline);
        if leftover > 0 {
            // Past the deadline: pull the cancel token so in-flight
            // guards trip at their next check, then wait again (briefly
            // unbounded — a guard-checked evaluation always observes the
            // token). That interruption is a postmortem moment: dump
            // the flight recorder before the evidence scrolls away.
            self.shared.postmortem(
                "drain",
                &format!("drain deadline passed with {leftover} requests in flight"),
            );
            self.shared.cancel.cancel();
            self.shared
                .gate
                .wait_idle(Instant::now() + Duration::from_secs(60));
        }
        self.shared.accept_stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.telemetry_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = {
            let mut guard = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        let connections_joined = handles.len();
        for h in handles {
            let _ = h.join();
        }
        self.shared.wal_flush();
        let drain = t0.elapsed();
        m.counter(names::SERVE_DRAIN_NANOS)
            .add(drain.as_nanos() as u64);
        let final_metrics = m.snapshot();
        DrainReport {
            interrupted: final_metrics.counter(names::SERVE_DRAIN_INTERRUPTED),
            drain,
            connections_joined,
            final_metrics,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Abrupt shutdown path (drain consumes the handle, so this only
        // runs when the handle was dropped without draining): cancel
        // everything and reap the accept thread so tests cannot leak it.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.gate.start_drain();
        self.shared.cancel.cancel();
        self.shared.accept_stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.telemetry_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = {
            let mut guard = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.shared.wal_flush();
    }
}
