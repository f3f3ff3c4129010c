//! The metric-name taxonomy shared by every instrumented crate.
//!
//! Names are `component.instrument`; every crate resolves its handles
//! through these constants so the registry, the `EngineStats` view, the
//! JSON export, and the documentation cannot drift apart.

/// Marker relations materialised (Theorem 6.10's `τ` symbols). Counter.
pub const ENGINE_MARKERS: &str = "engine.markers_created";
/// cl-terms produced by decompositions. Counter.
pub const ENGINE_CLTERMS: &str = "engine.clterms";
/// Basic cl-terms inside those. Counter.
pub const ENGINE_BASICS: &str = "engine.basics";
/// Counting components that fell back to the reference evaluator.
/// Counter.
pub const ENGINE_FALLBACKS: &str = "engine.naive_fallbacks";
/// Closed subformulas resolved by recursive sentence evaluation.
/// Counter.
pub const ENGINE_SENTENCES: &str = "engine.sentences_resolved";
/// Degradation-ladder steps from the cover engine down to ball
/// enumeration. Counter.
pub const ENGINE_DEGRADE_LOCAL: &str = "engine.degrade.local";
/// Degradation-ladder steps from a decomposing engine down to the
/// reference evaluator. Counter.
pub const ENGINE_DEGRADE_NAIVE: &str = "engine.degrade.naive";
/// Evaluations cut short by the resource budget (deadline, fuel, or
/// cancellation). Counter.
pub const ENGINE_INTERRUPTED: &str = "engine.interrupted";

/// Cover clusters evaluated: every cluster with a demanded assigned
/// element, materialised or not. Counter.
pub const COVER_CLUSTERS: &str = "cover.clusters";
/// Neighbourhood covers constructed. Counter.
pub const COVER_BUILT: &str = "cover.covers_built";
/// Removal surgeries performed. Counter.
pub const COVER_REMOVALS: &str = "cover.removals";
/// Order of the largest materialised cluster (one the cover built because
/// a hub lies near its centre) or bottom-of-recursion structure. Gauge
/// (running max).
pub const COVER_PEAK_CLUSTER: &str = "cover.peak_cluster";
/// Distribution of the orders of the clusters that went through removal
/// surgery, one observation per surgery. Histogram; its `total` equals
/// [`COVER_REMOVALS`].
pub const COVER_CLUSTER_SIZE: &str = "cover.cluster_size";

/// Memo-cache lookups that found a value. Counter.
pub const CACHE_HITS: &str = "cache.hits";
/// Memo-cache lookups that missed. Counter.
pub const CACHE_MISSES: &str = "cache.misses";
/// Memo-cache entries evicted by the CLOCK/second-chance policy.
/// Counter.
pub const CACHE_EVICTIONS: &str = "engine.cache.evictions";

/// Balls materialised by ball enumeration. Counter.
pub const LOCAL_BALLS: &str = "local.balls";
/// Total elements across materialised balls. Counter.
pub const LOCAL_BALL_ELEMENTS: &str = "local.ball_elements";
/// Tuples fully assembled and checked against a body. Counter.
pub const LOCAL_TUPLES: &str = "local.tuples_checked";
/// Distribution of ball sizes (elements per materialised ball).
/// Histogram; its `total` equals [`LOCAL_BALLS`].
pub const LOCAL_BALL_SIZE: &str = "local.ball_size";

/// Work items processed by parallel maps. Counter.
pub const PARALLEL_ITEMS: &str = "parallel.items";
/// Batches claimed from the work-stealing cursor. Counter.
pub const PARALLEL_BATCHES: &str = "parallel.batches";
/// Largest worker fan-out used. Gauge (running max).
pub const PARALLEL_WORKERS: &str = "parallel.workers";
/// Distribution of batches claimed per worker per fan-out. Histogram.
pub const PARALLEL_BATCHES_PER_WORKER: &str = "parallel.batches_per_worker";

/// Differential cases the fuzz harness generated or replayed. Counter.
pub const FUZZ_CASES: &str = "fuzz.cases";
/// Cross-engine divergences detected (before shrinking). Counter.
pub const FUZZ_DIVERGENCES: &str = "fuzz.divergences";
/// Metamorphic-identity violations detected. Counter.
pub const FUZZ_META_DIVERGENCES: &str = "fuzz.meta_divergences";
/// Shrink-predicate evaluations spent minimising divergences. Counter.
pub const FUZZ_SHRINK_ATTEMPTS: &str = "fuzz.shrink_attempts";
/// Accepted shrink steps (how much smaller cases got). Counter.
pub const FUZZ_SHRINK_STEPS: &str = "fuzz.shrink_steps";
/// Wall nanoseconds inside engine evaluations, summed over the whole
/// matrix. Counter (per-variant breakdowns use
/// `fuzz.engine_nanos.<variant>`).
pub const FUZZ_ENGINE_NANOS: &str = "fuzz.engine_nanos";
/// Prefix for per-variant wall-nanosecond counters.
pub const FUZZ_ENGINE_NANOS_PREFIX: &str = "fuzz.engine_nanos.";
/// Engine evaluations cut short by the per-case fuzz deadline. Counter.
pub const FUZZ_CASE_TIMEOUTS: &str = "fuzz.case_timeouts";
/// Anytime confidence-contract violations detected. Counter.
pub const FUZZ_ANYTIME_DIVERGENCES: &str = "fuzz.anytime_divergences";

/// Requests accepted by the server (admitted past the gate). Counter.
pub const SERVE_REQUESTS: &str = "server.requests";
/// Requests currently being evaluated. Gauge (live value, maintained by
/// `Gauge::inc`/`Gauge::dec` around each admitted request, so `/stats`
/// and the metrics export agree; the historical peak is
/// [`SERVE_INFLIGHT_PEAK`]).
pub const SERVE_INFLIGHT: &str = "server.inflight";
/// Highest concurrent in-flight count seen over the process lifetime.
/// Gauge (running max).
pub const SERVE_INFLIGHT_PEAK: &str = "server.inflight_peak";
/// Requests currently waiting in the admission queue. Gauge (live).
pub const SERVE_QUEUE_DEPTH: &str = "server.queue_depth";
/// Requests (or connections) refused with a shed frame. Counter.
pub const SERVE_SHED: &str = "server.shed";
/// Requests answered with an error frame (parse, eval, panic, or
/// interrupt). Counter.
pub const SERVE_ERRORS: &str = "server.errors";
/// Requests whose worker panicked (contained; the server kept serving).
/// Counter.
pub const SERVE_PANICS: &str = "server.panics";
/// Requests interrupted by their budget (deadline, fuel, memory, or the
/// drain cancellation). Counter.
pub const SERVE_INTERRUPTED: &str = "server.interrupted";
/// Distribution of request latencies, in microseconds. Histogram.
pub const SERVE_LATENCY_MICROS: &str = "server.latency_micros";
/// Degradation steps taken by the memory watermark (cache shrink /
/// cache off). Counter.
pub const SERVE_PRESSURE_STEPS: &str = "server.pressure_steps";
/// Mutation requests (update/batch frames) committed. Counter.
pub const SERVE_UPDATES: &str = "server.updates";
/// Tuples actually changed by committed mutations. Counter.
pub const SERVE_TUPLES_CHANGED: &str = "server.tuples_changed";
/// Cached cl-term vectors carried across epochs by delta migration.
/// Counter.
pub const SERVE_CACHE_MIGRATED: &str = "server.cache_migrated";
/// Wall nanoseconds spent draining at shutdown. Counter.
pub const SERVE_DRAIN_NANOS: &str = "server.drain_nanos";
/// In-flight requests interrupted by the drain deadline. Counter.
pub const SERVE_DRAIN_INTERRUPTED: &str = "server.drain_interrupted";

/// Request traces kept by the tail-based sampler (error, panic,
/// interrupt, slow query, or the seeded 1-in-N sample). Counter.
pub const SERVE_TRACES_KEPT: &str = "server.traces_kept";
/// Request traces dropped by the tail-based sampler. Counter.
pub const SERVE_TRACES_DROPPED: &str = "server.traces_dropped";
/// Requests whose latency exceeded the slow-query threshold. Counter.
pub const SERVE_SLOW_QUERIES: &str = "server.slow_queries";
/// Telemetry HTTP requests answered (`/metrics`, `/healthz`, `/stats`).
/// Counter.
pub const SERVE_TELEMETRY_SCRAPES: &str = "server.telemetry_scrapes";
/// Flight-recorder postmortem files written. Counter.
pub const SERVE_POSTMORTEMS: &str = "server.postmortems";

/// Deepening (anytime) runs started. Counter.
pub const ANYTIME_RUNS: &str = "anytime.runs";
/// Deepening runs that finished with an exact answer. Counter.
pub const ANYTIME_EXACT: &str = "anytime.exact";
/// Deepening runs that returned a degraded (lower-bound or approx)
/// best-so-far answer. Counter.
pub const ANYTIME_DEGRADED: &str = "anytime.degraded";
/// Deepening passes skipped by the time manager (budget exhausted or
/// projected overrun). Counter.
pub const ANYTIME_PASS_SKIPPED: &str = "anytime.pass_skipped";
/// Wall time of completed `sample` passes, in microseconds. Histogram —
/// the time manager's cost estimate for the pass.
pub const ANYTIME_PASS_SAMPLE_MICROS: &str = "anytime.pass_micros.sample";
/// Wall time of completed `local` passes, in microseconds. Histogram.
pub const ANYTIME_PASS_LOCAL_MICROS: &str = "anytime.pass_micros.local";
/// Wall time of completed `exact` passes, in microseconds. Histogram.
pub const ANYTIME_PASS_EXACT_MICROS: &str = "anytime.pass_micros.exact";
/// Wall time of completed `approx` passes, in microseconds. Histogram.
pub const ANYTIME_PASS_APPROX_MICROS: &str = "anytime.pass_micros.approx";

/// Approximate-counting estimator runs (the `(ε, δ)` sampler). Counter.
pub const ENGINE_APPROX_RUNS: &str = "engine.approx.runs";
/// Assignments the estimator drew and evaluated. Counter.
pub const ENGINE_APPROX_SAMPLES: &str = "engine.approx.samples";
/// Estimator runs that fell through to exhaustive enumeration because
/// the assignment space was no larger than the sample budget (the
/// answer is exact, error bound zero). Counter.
pub const ENGINE_APPROX_EXHAUSTIVE: &str = "engine.approx.exhaustive";
/// Distribution of claimed additive error bounds. Histogram.
pub const ENGINE_APPROX_ERROR_BOUND: &str = "engine.approx.error_bound";

/// Anytime requests served (proto 2 `anytime: true`, or forced by the
/// pressure ladder's anytime rung). Counter.
pub const SERVE_ANYTIME: &str = "server.anytime";
/// Progressive `partial` frames streamed to proto-2 clients. Counter.
pub const SERVE_PARTIAL_FRAMES: &str = "server.partial_frames";

/// Commit records appended to the write-ahead log. Counter.
pub const SERVE_WAL_APPENDS: &str = "server.wal.appends";
/// Framed bytes appended to the write-ahead log. Counter.
pub const SERVE_WAL_BYTES: &str = "server.wal.bytes";
/// Fsyncs the write-ahead log performed (per the fsync policy). Counter.
pub const SERVE_WAL_SYNCS: &str = "server.wal.syncs";
/// Snapshot checkpoints taken (log reset to empty). Counter.
pub const SERVE_WAL_CHECKPOINTS: &str = "server.wal.checkpoints";
/// WAL IO failures: each one walks the degrade ladder (read-only mode,
/// then drain). Counter.
pub const SERVE_WAL_ERRORS: &str = "server.wal.errors";
/// Request lines rejected for exceeding the frame-size bound. Counter.
pub const SERVE_FRAMES_OVERSIZED: &str = "server.frames_oversized";

/// WAL recovery runs performed at startup or by `foc recover`. Counter.
pub const RECOVERY_RUNS: &str = "recovery.runs";
/// Log records replayed onto the checkpoint during recovery. Counter.
pub const RECOVERY_REPLAYED: &str = "recovery.replayed_records";
/// Log records skipped because the checkpoint already contained their
/// epoch (the mid-checkpoint crash window). Counter.
pub const RECOVERY_SKIPPED: &str = "recovery.skipped_records";
/// Torn-tail bytes truncated from the log during recovery. Counter.
pub const RECOVERY_TRUNCATED_BYTES: &str = "recovery.truncated_bytes";
