/// The placement cost function, VPR's `place_algorithm` option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceAlgorithm {
    /// Pure bounding-box wirelength (`bounding_box` in VPR).
    BoundingBox,
    /// Wirelength with extra weight on low-fanout (timing-critical-like)
    /// nets, standing in for VPR's `path_timing_driven` mode. Produces
    /// systematically different placements, which is all the option sweep
    /// needs from it.
    PathTiming,
}

/// Options controlling one placement run — the four knobs the paper sweeps
/// (`seed`, `ALPHA_T`, `INNER_NUM`, `place_algorithm`) plus schedule bounds.
///
/// # Example
///
/// ```
/// use pop_place::{PlaceOptions, PlaceAlgorithm};
///
/// let opts = PlaceOptions {
///     seed: 42,
///     alpha_t: 0.85,
///     inner_num: 0.5,
///     algorithm: PlaceAlgorithm::PathTiming,
///     ..PlaceOptions::default()
/// };
/// assert!(opts.alpha_t < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceOptions {
    /// RNG seed (VPR `--seed`).
    pub seed: u64,
    /// Geometric cooling factor per temperature step (VPR `ALPHA_T`),
    /// in `(0, 1)`. Lower cools faster and yields worse placements.
    pub alpha_t: f64,
    /// Scales moves per temperature: `inner_num · N^{4/3}` (VPR `INNER_NUM`).
    pub inner_num: f64,
    /// Cost function (VPR `place_algorithm`).
    pub algorithm: PlaceAlgorithm,
    /// Stop when the temperature drops below
    /// `exit_t_factor · cost / num_nets` (VPR's exit criterion).
    pub exit_t_factor: f64,
    /// Safety cap on outer (temperature) iterations.
    pub max_outer_iters: usize,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            seed: 1,
            alpha_t: 0.9,
            inner_num: 1.0,
            algorithm: PlaceAlgorithm::BoundingBox,
            exit_t_factor: 0.005,
            max_outer_iters: 256,
        }
    }
}

impl PlaceOptions {
    /// Clamps schedule parameters into their valid ranges (alpha into
    /// `[0.5, 0.99]`, inner_num positive), returning the sanitised options.
    /// Out-of-range sweep values are thereby usable without panics.
    pub fn sanitized(&self) -> PlaceOptions {
        PlaceOptions {
            alpha_t: self.alpha_t.clamp(0.5, 0.99),
            inner_num: self.inner_num.max(0.01),
            exit_t_factor: self.exit_t_factor.max(1e-9),
            max_outer_iters: self.max_outer_iters.max(1),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let o = PlaceOptions::default();
        assert!(o.alpha_t > 0.0 && o.alpha_t < 1.0);
        assert!(o.inner_num > 0.0);
    }

    #[test]
    fn sanitize_clamps() {
        let o = PlaceOptions {
            alpha_t: 1.5,
            inner_num: -3.0,
            ..Default::default()
        }
        .sanitized();
        assert_eq!(o.alpha_t, 0.99);
        assert_eq!(o.inner_num, 0.01);
    }
}
