//! The metrics half of the substrate: named atomic counters, gauges and
//! log-bucketed latency histograms, collected in a [`Registry`].
//!
//! The record path is lock-free: handles are `Arc`s onto plain atomics, so
//! a hot loop pays one `fetch_add` per event. Registration (name → handle)
//! takes a mutex, but it happens once per call site — callers hold the
//! returned handle, not the name. [`Registry::snapshot`] reads everything
//! on demand without stopping writers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (bench hygiene; production code never calls this).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous measurement (queue depth, current cost,
/// last epoch's loss). Stores `f64` bits in one atomic, so integer and
/// floating measurements share one type.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (lock-free read-modify-write loop; contention on a
    /// gauge is a few threads at most).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Sub-bucket precision of the histogram: each power-of-two range is split
/// into `2^PRECISION_BITS` equal sub-buckets, so any recorded value lands
/// in a bucket whose width is at most `value / 2^PRECISION_BITS` — a
/// bounded ~6 % relative error at 4 bits, sharp enough to gate p99 SLOs.
const PRECISION_BITS: u32 = 4;
const SUB: u64 = 1 << PRECISION_BITS; // sub-buckets per octave
/// `SUB` exact unit buckets + `SUB` sub-buckets per octave above them.
const BUCKETS: usize = (SUB as usize) + (64 - PRECISION_BITS as usize) * SUB as usize;

/// A log-bucketed histogram of `u64` samples (conventionally microseconds).
///
/// Values below `2^PRECISION_BITS` get exact unit buckets; above that,
/// each power-of-two octave is split into `2^PRECISION_BITS` sub-buckets,
/// so the bucket containing any value spans at most a `1/2^PRECISION_BITS`
/// relative range. Recording is one atomic increment plus three counter
/// updates — no locks, no allocation. Percentiles are extracted from the
/// bucket counts on demand ([`HistogramSnapshot::percentile`]), each
/// reported as its bucket's inclusive upper bound, so the reported pXX
/// never understates the true quantile and overstates it by at most one
/// bucket's width.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of `value` (total order, contiguous).
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // 2^exp <= value
    let mantissa = (value >> (exp - PRECISION_BITS)) & (SUB - 1);
    (SUB + (exp - PRECISION_BITS) as u64 * SUB + mantissa) as usize
}

/// Inclusive upper bound of bucket `index` — the value percentiles report.
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let group = (index - SUB) / SUB;
    let mantissa = (index - SUB) % SUB;
    let exp = group + u64::from(PRECISION_BITS);
    let width = 1u64 << (exp - u64::from(PRECISION_BITS));
    (1u64 << exp) + mantissa * width + (width - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array element-by-element.
        let buckets: Box<[AtomicU64; BUCKETS]> =
            Box::new(std::array::from_fn(|_| AtomicU64::new(0)));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples recorded so far (exact, not from the buckets).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and summary stats.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Convenience: `snapshot().percentile(p)`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// Zeroes every bucket and counter.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Frozen view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `p`-quantile (`p` in `[0, 1]`), reported as the inclusive upper
    /// bound of the bucket holding the rank-`⌈p·n⌉` sample — never below
    /// the true quantile, above it by at most one bucket width
    /// (`≤ value / 2^PRECISION_BITS`). Zero for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's bound can exceed the observed max.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (exact — from the running sum, not the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, in value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global`] registry; subsystems that need isolated counters (tests, the
/// serving engine's per-instance stats) can own a private one.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use. Hold the handle;
    /// recording through it never takes the registration lock again.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// A consistent-enough point-in-time copy of every metric, sorted by
    /// name (BTreeMap order), so serialisations are deterministic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric in place. Outstanding handles stay
    /// valid (values reset, identity preserved) — bench/test hygiene.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            h.reset();
        }
    }
}

/// Frozen view of a [`Registry`], name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

/// The process-wide registry every instrumented subsystem records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            7,
            15,
            16,
            17,
            31,
            32,
            100,
            1000,
            65_535,
            1 << 40,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease: {v} -> {idx}");
            assert!(idx < BUCKETS);
            last = idx;
        }
        // Exact unit buckets below SUB.
        for v in 0..SUB {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for v in [0u64, 5, 16, 100, 12_345, 999_999, 1 << 33] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper {upper} must bound {v}");
            // The next bucket starts strictly above this one's bound.
            assert!(bucket_upper(idx + 1) > upper);
            // Relative width is bounded by the precision.
            if v >= SUB {
                assert!(upper - v <= v / SUB + 1, "width at {v}: {}", upper - v);
            }
        }
    }

    #[test]
    fn percentiles_bracket_known_distributions() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 1000);
        assert_eq!((h.sum(), snap.sum), (500_500, 500_500));
        let p50 = snap.percentile(0.50);
        let p99 = snap.percentile(0.99);
        // True quantiles are 500 and 990; the report may overstate by one
        // bucket width (~1/16) and never understate.
        assert!((500..=532).contains(&p50), "p50 {p50}");
        assert!((990..=1053).contains(&p99), "p99 {p99}");
        assert!(snap.percentile(1.0) <= 1000);
        assert!((snap.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.nonzero_buckets().is_empty());
    }

    #[test]
    fn registry_returns_shared_handles_and_snapshots_sorted() {
        let r = Registry::new();
        let a = r.counter("z.late");
        let b = r.counter("z.late");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name -> same counter");
        r.counter("a.early").inc();
        r.gauge("depth").set(4.5);
        r.histogram("lat").record(10);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.early".into(), 1), ("z.late".into(), 3)]
        );
        assert_eq!(snap.gauge("depth"), Some(4.5));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.counter("nosuch"), None);
        r.reset();
        assert_eq!(r.snapshot().counter("z.late"), Some(0));
        assert_eq!(a.get(), 0, "reset preserves handle identity");
    }

    #[test]
    fn gauge_add_accumulates() {
        let g = Gauge::default();
        g.add(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
        g.set(7.0);
        assert_eq!(g.get(), 7.0);
    }
}
