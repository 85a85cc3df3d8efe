//! `pop-obs` — zero-dependency observability substrate for the
//! painting-on-placement workspace.
//!
//! Three pieces, usable separately or together:
//!
//! - **Metrics** ([`metrics`]): a process-global [`Registry`] of named
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed latency [`Histogram`]s.
//!   The record path is lock-free (one atomic RMW); registration and
//!   snapshotting take a mutex on the cold path only. Histograms keep
//!   16 sub-buckets per power of two, so reported p50/p90/p99 overstate
//!   the true quantile by at most 1/16 relative error.
//! - **Spans** ([`mod@span`] module and the [`span!`] macro): RAII guards
//!   recording `(name, fields, parent, start, end)` into per-thread
//!   bounded buffers, aggregated by [`SpanSet::tree`] into a parent/child
//!   forest with self-time vs child-time attribution. Capture is off by
//!   default; a disabled `span!` costs one relaxed load and a branch.
//! - **Reports** ([`report`]): [`RunReport::capture`] bundles the span
//!   forest, a metric snapshot, host parallelism, and wall clock into a
//!   hand-rolled JSON document (parse it back with [`json::parse`]).
//!
//! Typical wiring in a binary:
//!
//! ```
//! use std::time::Instant;
//!
//! let started = Instant::now();
//! pop_obs::enable_tracing();
//! {
//!     let _stage = pop_obs::span!("route_stage", job = 7);
//!     pop_obs::global().counter("pipeline.pairs").inc();
//! }
//! let report = pop_obs::RunReport::capture("demo", started, pop_obs::global());
//! assert!(pop_obs::find_span(&report.spans, "route_stage").is_some());
//! ```

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use report::RunReport;
pub use span::{
    disable as disable_tracing, drain as drain_spans, enable as enable_tracing,
    enabled as tracing_enabled, find_span, SpanGuard, SpanNode, SpanRecord, SpanSet,
};
