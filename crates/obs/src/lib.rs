//! # foc-obs — structured tracing and metrics for the evaluation
//! pipeline
//!
//! The paper's Theorem 5.5 algorithm is a multi-phase engine
//! (materialise → decompose → cover → localise → splitter recursion);
//! validating its cost claims — almost-linear cluster work,
//! rank-preserving locality, Removal-Lemma surgery counts — needs more
//! than a flat counter struct. This crate provides the measurement
//! substrate the rest of the workspace wires through:
//!
//! * **Spans** ([`span`]) — a nested, explicitly-parented span tree per
//!   evaluation session, with near-zero cost when disabled;
//! * **Metrics** ([`metrics`]) — a registry of counters, gauges, and
//!   fixed-bucket histograms; `foc-core`'s `EngineStats` is a typed view
//!   over one registry snapshot;
//! * **Sinks** ([`sink`]) — pluggable destinations for finished spans:
//!   human-readable stderr, JSON-lines, and in-memory for tests;
//! * **Reports** ([`report`]) — span-tree and metrics-table rendering
//!   (the body of `foc explain`), bucket-quantile estimation, plus the
//!   `--metrics-json` export whose schema CI pins;
//! * **Exposition** ([`expo`]) — Prometheus text rendering of one
//!   metrics snapshot (the `/metrics` scrape surface of `foc serve`);
//! * **Flight recorder** ([`recorder`]) — a fixed-capacity lock-free
//!   ring of recent span closures and events, dumped as a postmortem
//!   JSON document when a serving process hits trouble;
//! * **Names** ([`names`]) — the metric-name taxonomy shared by every
//!   instrumented crate.
//!
//! The crate is dependency-free and sits below every other workspace
//! member, so any layer — the work-stealing scheduler, the term cache,
//! the cover recursion, the CLI — can record without cycles.
//!
//! ```
//! use foc_obs::{MemorySink, Observer};
//!
//! let sink = MemorySink::shared();
//! let obs = Observer::with_sinks(vec![sink.clone()]);
//! {
//!     let root = obs.root_span("session", &[]);
//!     let eval = root.handle().child("eval", &[]);
//!     let cover = eval.handle().child("cover", &[("radius", 2)]);
//!     drop(cover);
//! }
//! obs.metrics().counter("cover.clusters").add(3);
//! let tree = foc_obs::report::build_tree(&sink.spans());
//! assert!(tree[0].contains("cover"));
//! assert_eq!(obs.metrics().snapshot().counter("cover.clusters"), 3);
//! ```

#![warn(missing_docs)]

pub mod expo;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod span;

pub use expo::{prometheus_name, render_prometheus};
pub use metrics::{
    pow2_buckets, Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot,
};
pub use recorder::{FlightEvent, FlightRecorder};
pub use report::{
    build_tree, quantile, quantile_detail, quantiles, render_metrics_table, render_tree,
    self_times, session_json, Quantiles, SpanNode,
};
pub use sink::{JsonLinesSink, MemorySink, Sink, StderrSink};
pub use span::{AttrValue, FinishedSpan, Observer, Span, SpanHandle};
