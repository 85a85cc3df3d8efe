//! Serving telemetry: every event the engine counts is one named
//! [`pop_obs`] series, recorded once and snapshotted on demand.
//!
//! The series live in a [`Registry`] the [`ServeStats`] owns — one per
//! engine, or per fleet when a front end shares the stats across its
//! engines — not in the process-global one: two services in one process
//! must not pollute each other's percentiles, and a test can assert exact
//! counts on its own engine while others serve forecasts beside it. The
//! HTTP front end keeps its `http.*` series in the same registry
//! ([`ServeStats::registry`]), so one dump covers a service end to end.
//!
//! Handles are resolved once (per-model ones at engine start-up) and the
//! record path is lock-free. [`StatsSnapshot`] stores nothing of its own:
//! batch counts are read off `serve.batch_size`, forward time off
//! `serve.forward_us`, latency mean / max / percentiles off
//! `serve.latency_us`.

use pop_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// The two series of one model label (the HTTP front end labels each
/// engine with its model's name, quantized engines with `<name>/quant`):
/// `serve.model.<label>.latency_us` takes every answered request,
/// `serve.model.<label>.failed` the ones answered with an error.
#[derive(Debug, Clone)]
pub(crate) struct PerModel {
    latency_us: Arc<Histogram>,
    failed: Arc<Counter>,
}

impl PerModel {
    pub(crate) fn record(&self, ok: bool, latency_us: u64) {
        if !ok {
            self.failed.inc();
        }
        self.latency_us.record(latency_us);
    }
}

/// The `serve.*` series shared by the queue, workers and clients. All are
/// monotone; readers take a [`StatsSnapshot`].
#[derive(Debug)]
pub struct ServeStats {
    registry: Registry,
    /// Requests accepted: queued, or run on the thread that asked.
    pub(crate) submitted: Arc<Counter>,
    /// Accepted requests that skipped the queue and ran on their caller.
    pub(crate) caller_runs: Arc<Counter>,
    /// Requests rejected with [`QueueFull`](crate::ServeError::QueueFull).
    pub(crate) rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    /// Enqueue→response latency of every answered request, microseconds.
    latency_us: Arc<Histogram>,
    /// The same, for requests answered by quantized (i8) replicas only — a
    /// separate series so a mixed fleet can compare the two replica kinds
    /// from one snapshot.
    quant_latency_us: Arc<Histogram>,
    /// Enqueue→pop wait of every request a worker took.
    pub(crate) queue_wait_us: Arc<Histogram>,
    /// Requests per forward pass.
    batch_size: Arc<Histogram>,
    /// Time inside each generator forward pass, microseconds.
    forward_us: Arc<Histogram>,
}

impl Default for ServeStats {
    fn default() -> Self {
        let registry = Registry::new();
        ServeStats {
            submitted: registry.counter("serve.submitted"),
            caller_runs: registry.counter("serve.caller_runs"),
            rejected: registry.counter("serve.rejected"),
            completed: registry.counter("serve.completed"),
            failed: registry.counter("serve.failed"),
            latency_us: registry.histogram("serve.latency_us"),
            quant_latency_us: registry.histogram("serve.quant_latency_us"),
            queue_wait_us: registry.histogram("serve.queue_wait_us"),
            batch_size: registry.histogram("serve.batch_size"),
            forward_us: registry.histogram("serve.forward_us"),
            registry,
        }
    }
}

impl ServeStats {
    /// The registry holding this instance's series — where a front end
    /// registers its own (`http.*`) and what `/v1/stats` dumps.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-model series for `label`, registered on first use. Engines
    /// with a [`model_label`](crate::EngineConfig::model_label) resolve
    /// theirs once, before their workers start (the look-up locks the
    /// registry).
    pub(crate) fn per_model(&self, label: &str) -> PerModel {
        PerModel {
            latency_us: self
                .registry
                .histogram(&format!("serve.model.{label}.latency_us")),
            failed: self
                .registry
                .counter(&format!("serve.model.{label}.failed")),
        }
    }

    pub(crate) fn record_batch(&self, batch_size: usize, forward_us: u64) {
        self.batch_size.record(batch_size as u64);
        self.forward_us.record(forward_us);
    }

    pub(crate) fn record_request_done(&self, ok: bool, latency_us: u64, quantized: bool) {
        if ok {
            self.completed.inc();
        } else {
            self.failed.inc();
        }
        self.latency_us.record(latency_us);
        if quantized {
            self.quant_latency_us.record(latency_us);
        }
    }

    /// A consistent-enough point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let latency = self.latency_us.snapshot();
        let quant_latency = self.quant_latency_us.snapshot();
        let batch_size = self.batch_size.snapshot();
        let metrics = self.registry.snapshot();
        let mut per_model: Vec<ModelStatsSnapshot> = metrics
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let label = name
                    .strip_prefix("serve.model.")?
                    .strip_suffix(".latency_us")?;
                let failed = metrics
                    .counter(&format!("serve.model.{label}.failed"))
                    .unwrap_or(0);
                Some(ModelStatsSnapshot {
                    model: label.to_string(),
                    completed: h.count.saturating_sub(failed),
                    failed,
                    mean_latency_us: h.mean(),
                    p50_latency_us: h.percentile(0.50),
                    p99_latency_us: h.percentile(0.99),
                })
            })
            .collect();
        // Series names sort by `<label>.latency_us`, not by label.
        per_model.sort_by(|a, b| a.model.cmp(&b.model));
        StatsSnapshot {
            submitted: self.submitted.get(),
            caller_runs: self.caller_runs.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            batches: batch_size.count,
            max_batch: batch_size.max,
            mean_batch_occupancy: batch_size.mean(),
            mean_latency_us: latency.mean(),
            p50_latency_us: latency.percentile(0.50),
            p99_latency_us: latency.percentile(0.99),
            max_latency_us: latency.max,
            forward_us_total: self.forward_us.sum(),
            quant_completed: quant_latency.count,
            p50_quant_latency_us: quant_latency.percentile(0.50),
            p99_quant_latency_us: quant_latency.percentile(0.99),
            per_model,
        }
    }
}

/// Point-in-time view of one model label's series.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStatsSnapshot {
    /// The engine label (`<name>` for f32, `<name>/quant` for i8 replicas).
    pub model: String,
    /// Requests this model answered successfully.
    pub completed: u64,
    /// Requests this model answered with an error.
    pub failed: u64,
    /// Mean enqueue→response latency, microseconds.
    pub mean_latency_us: f64,
    /// Median latency, microseconds (histogram bucket upper bound).
    pub p50_latency_us: u64,
    /// 99th-percentile latency, microseconds (same convention).
    pub p99_latency_us: u64,
}

/// Point-in-time view of [`ServeStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests accepted: queued, or run on the thread that asked.
    pub submitted: u64,
    /// Accepted requests that ran on their caller's thread (a blocking
    /// forecast that found the queue empty), a batch of one each.
    pub caller_runs: u64,
    /// Requests bounced with `QueueFull`.
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Largest coalesced batch.
    pub max_batch: u64,
    /// Mean requests per forward pass (the micro-batcher's figure of merit).
    pub mean_batch_occupancy: f64,
    /// Mean enqueue→response latency in microseconds.
    pub mean_latency_us: f64,
    /// Median enqueue→response latency in microseconds (histogram bucket
    /// upper bound: never understates, overstates ≤ 1/16 relative).
    pub p50_latency_us: u64,
    /// 99th-percentile enqueue→response latency in microseconds (same
    /// bucket-bound convention).
    pub p99_latency_us: u64,
    /// Worst-case single-request latency in microseconds.
    pub max_latency_us: u64,
    /// Cumulative time inside generator forwards, microseconds.
    pub forward_us_total: u64,
    /// Requests answered by quantized (i8) replicas.
    pub quant_completed: u64,
    /// Median latency of the quantized-path series, microseconds (zero
    /// while no quantized replica has answered).
    pub p50_quant_latency_us: u64,
    /// 99th-percentile latency of the quantized-path series, microseconds.
    pub p99_quant_latency_us: u64,
    /// Per-model request/latency breakdown, sorted by label. Empty unless
    /// at least one engine was started with a `model_label` (the HTTP
    /// front end labels every engine it owns).
    pub per_model: Vec<ModelStatsSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_means() {
        let s = ServeStats::default();
        s.submitted.add(10);
        s.record_batch(4, 1000);
        s.record_batch(2, 500);
        for _ in 0..4 {
            s.record_request_done(true, 100, false);
        }
        s.record_request_done(false, 300, false);
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.max_batch, 4);
        assert!((snap.mean_batch_occupancy - 3.0).abs() < 1e-9);
        assert!((snap.mean_latency_us - 140.0).abs() < 1e-9);
        assert_eq!(snap.max_latency_us, 300);
        assert_eq!(snap.forward_us_total, 1500);
    }

    #[test]
    fn empty_stats_have_zero_means() {
        let snap = ServeStats::default().snapshot();
        assert_eq!(snap.mean_batch_occupancy, 0.0);
        assert_eq!(snap.mean_latency_us, 0.0);
        assert_eq!(snap.p50_latency_us, 0);
        assert_eq!(snap.p99_latency_us, 0);
    }

    #[test]
    fn snapshot_reports_true_percentiles() {
        let s = ServeStats::default();
        // A long-tail distribution the old mean/max view hid: 98 fast
        // requests and two stragglers. The mean lands near 118 µs and max
        // at 1 ms — only the percentiles show the real service level.
        for _ in 0..98 {
            s.record_request_done(true, 100, false);
        }
        s.record_request_done(true, 1000, false);
        s.record_request_done(true, 1000, false);
        let snap = s.snapshot();
        assert!(
            (100..=107).contains(&snap.p50_latency_us),
            "p50 {} should bracket 100µs within one bucket",
            snap.p50_latency_us
        );
        assert!(
            (1000..=1063).contains(&snap.p99_latency_us),
            "p99 {} should bracket the 1ms straggler within one bucket",
            snap.p99_latency_us
        );
        assert_eq!(snap.max_latency_us, 1000);
        assert!(snap.p50_latency_us <= snap.p99_latency_us);
        assert!(snap.p99_latency_us <= snap.max_latency_us);
    }

    #[test]
    fn quantized_requests_feed_their_own_percentile_series() {
        let s = ServeStats::default();
        // f32 replicas answer slowly, the quantized replica fast — the
        // combined series must not hide the split.
        for _ in 0..10 {
            s.record_request_done(true, 2000, false);
        }
        for _ in 0..10 {
            s.record_request_done(true, 200, true);
        }
        let snap = s.snapshot();
        assert_eq!(snap.completed, 20);
        assert_eq!(snap.quant_completed, 10);
        assert!(
            (200..=213).contains(&snap.p50_quant_latency_us),
            "quantized p50 {} should bracket 200µs within one bucket",
            snap.p50_quant_latency_us
        );
        assert!(snap.p99_quant_latency_us < 2000);
        assert!(
            snap.p50_latency_us >= snap.p50_quant_latency_us,
            "combined series includes the slow f32 half"
        );
    }

    #[test]
    fn per_model_series_split_by_label_in_sorted_order() {
        let s = ServeStats::default();
        let base = s.per_model("base");
        let quant = s.per_model("base/quant");
        // Re-registration returns the same series, not a fresh one.
        assert!(Arc::ptr_eq(
            &base.latency_us,
            &s.per_model("base").latency_us
        ));
        for _ in 0..4 {
            base.record(true, 1000);
        }
        base.record(false, 3000);
        quant.record(true, 200);
        let snap = s.snapshot();
        assert_eq!(snap.per_model.len(), 2);
        let b = &snap.per_model[0];
        assert_eq!(b.model, "base");
        assert_eq!(b.completed, 4);
        assert_eq!(b.failed, 1);
        assert!((b.mean_latency_us - 1400.0).abs() < 1e-9);
        assert!(b.p50_latency_us >= 1000);
        let q = &snap.per_model[1];
        assert_eq!(q.model, "base/quant");
        assert_eq!(q.completed, 1);
        assert_eq!(q.failed, 0);
        assert!((200..=213).contains(&q.p50_latency_us));
    }

    #[test]
    fn per_model_is_empty_without_labeled_engines() {
        let s = ServeStats::default();
        s.record_request_done(true, 500, false);
        assert!(s.snapshot().per_model.is_empty());
    }

    #[test]
    fn quantized_series_is_zero_without_quantized_replicas() {
        let s = ServeStats::default();
        s.record_request_done(true, 500, false);
        let snap = s.snapshot();
        assert_eq!(snap.quant_completed, 0);
        assert_eq!(snap.p50_quant_latency_us, 0);
        assert_eq!(snap.p99_quant_latency_us, 0);
    }
}
