//! Sample statistics: nearest-rank percentiles, the median, and the
//! whole-window figures the end-to-end rows are taken from.

/// Exact nearest-rank percentile of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile_of(sample: &[u64], p: f64) -> u64 {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p)
}

/// Median of a float sample (mean of the two middle values for an even
/// count); 0 when empty.
pub fn median(sample: &[f64]) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// One measured window, added up over its segments, twice: as measured, and
/// in reference-host time — each segment's seconds and latencies multiplied
/// by the host speed read just before it while nothing was in flight
/// (`harness::host_speed`; 1.0 = the reference host undisturbed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// Correctly completed items.
    pub items: u64,
    pub wall_ns: u64,
    /// One sample per item, or per group of items where the workload
    /// answers in groups.
    pub latencies_ns: Vec<u64>,
    pub reference_wall_ns: f64,
    pub reference_latencies_ns: Vec<u64>,
}

impl Measured {
    /// Adds a segment that lasted `wall_ns` on a host running at `speed`,
    /// with the latencies of its correct samples, `items_per_sample` each.
    pub fn add_segment(
        &mut self,
        speed: f64,
        wall_ns: u64,
        items_per_sample: u64,
        latencies_ns: &[u64],
    ) {
        self.items += latencies_ns.len() as u64 * items_per_sample;
        self.wall_ns += wall_ns;
        self.latencies_ns.extend_from_slice(latencies_ns);
        self.reference_wall_ns += wall_ns as f64 * speed;
        self.reference_latencies_ns
            .extend(latencies_ns.iter().map(|&ns| (ns as f64 * speed) as u64));
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Correct items per second of wall time, as measured.
    pub fn rate(&self) -> f64 {
        self.items as f64 / self.wall_s().max(1e-9)
    }

    /// Correct items per second of reference-host time.
    pub fn reference_rate(&self) -> f64 {
        self.items as f64 * 1e9 / self.reference_wall_ns.max(1.0)
    }

    /// Nearest-rank latency percentile in milliseconds, as measured.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile_of(&self.latencies_ns, p) as f64 / 1e6
    }

    /// Nearest-rank latency percentile in milliseconds of reference-host
    /// time.
    pub fn reference_latency_ms(&self, p: f64) -> f64 {
        percentile_of(&self.reference_latencies_ns, p) as f64 / 1e6
    }

    /// The window's host speed: reference-host seconds ÷ seconds measured.
    pub fn speed(&self) -> f64 {
        self.reference_wall_ns / (self.wall_ns as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.90), 90);
        assert_eq!(percentile(&sorted, 0.999), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile_of(&[9, 1, 5], 0.5), 5);
        // Ten samples: p90 is the 9th, not an interpolation.
        let ten: Vec<u64> = (1..=10).map(|v| v * 10).collect();
        assert_eq!(percentile(&ten, 0.90), 90);
        assert_eq!(percentile(&ten, 0.91), 100);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segments_add_up_as_measured_and_in_reference_time() {
        let mut window = Measured::default();
        // A second at half speed, then a second at full speed.
        window.add_segment(0.5, 1_000_000_000, 2, &[4_000_000; 5]);
        window.add_segment(1.0, 1_000_000_000, 2, &[1_000_000; 10]);
        assert_eq!((window.items, window.wall_s()), (30, 2.0));
        assert_eq!(window.rate(), 15.0);
        assert_eq!((window.latency_ms(0.5), window.latency_ms(0.9)), (1.0, 4.0));
        // 1.5 s of reference-host time; the slow segment's 4 ms are 2 ms of it.
        assert_eq!(window.reference_rate(), 20.0);
        assert_eq!(window.speed(), 0.75);
        assert_eq!(
            (
                window.reference_latency_ms(0.5),
                window.reference_latency_ms(0.9)
            ),
            (1.0, 2.0)
        );
        assert_eq!(Measured::default().rate(), 0.0);
    }
}
