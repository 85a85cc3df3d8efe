use crate::error::CoreError;

/// Which skip connections the U-Net generator uses — the §5.3 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkipMode {
    /// "Connect all the convolutional and deconvolutional layers" — the
    /// paper's choice (Figure 5).
    All,
    /// A single skip connection at the outermost level, the RouteNet-style
    /// variant the paper shows is insufficient (Figure 7d).
    Single,
    /// No skip connections at all.
    None,
}

/// Every knob of one experiment, from dataset generation to training.
///
/// [`ExperimentConfig::paper`] records the paper-exact values (256×256,
/// base 64 filters, 250 epochs, 200 placements per design).
/// [`ExperimentConfig::quick`] is the CPU-sized default used by the
/// benchmark harness; [`ExperimentConfig::test`] is the miniature used by
/// unit/integration tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Image side `w` (input and output are `w×w`; must be a power of two).
    pub resolution: usize,
    /// Base filter count `f` of the U-Net / discriminator (paper: 64).
    pub base_filters: usize,
    /// U-Net depth (number of downsamplings; paper: 8, to a 1×1 bottleneck).
    pub depth: usize,
    /// Skip-connection mode (paper: all).
    pub skip: SkipMode,
    /// Whether the L1 term is included (paper: yes; §5.3 ablates it).
    pub use_l1: bool,
    /// L1 weight in the generator objective (paper: 50).
    pub lambda_l1: f32,
    /// Connectivity-image weight λ in `stack(img_place, λ·img_connect)`
    /// (paper: 0.1).
    pub lambda_connect: f32,
    /// Convert `img_place` to grayscale before stacking (§5.2 ablation).
    pub grayscale_input: bool,
    /// Adam learning rate (paper: 2e-4).
    pub learning_rate: f32,
    /// Training epochs (paper: 250).
    pub epochs: usize,
    /// Placements generated per design — Table 2's `#P` (paper: 200).
    pub pairs_per_design: usize,
    /// Linear scale applied to every design preset (paper: 1.0; CPU runs
    /// shrink designs to keep routing and training tractable).
    pub design_scale: f64,
    /// Channel-width margin over the calibrated minimum (VTR-style 1.3×).
    pub channel_width_margin: f64,
    /// Site-capacity headroom of the auto-sized fabric (VPR-style 1.3 =
    /// 30 % spare sites). Scenario generation exposes this as a *target
    /// utilization*: `fabric_slack = 1 / target_utilization`, so denser
    /// fabrics produce hotter congestion distributions.
    pub fabric_slack: f64,
    /// Interior aspect ratio (width / height) of the auto-sized fabric
    /// (1.0 = square, the paper's setting). Scenario generation sweeps this
    /// to diversify placement geometry.
    pub fabric_aspect: f64,
    /// Pairs taken from the held-out design for strategy-2 fine-tuning
    /// (paper: 10).
    pub finetune_pairs: usize,
    /// Epochs of strategy-2 fine-tuning.
    pub finetune_epochs: usize,
    /// Per-pixel accuracy tolerance (per channel).
    pub tolerance: f32,
    /// Master RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's exact configuration (needs a GPU-scale budget to run).
    pub fn paper() -> Self {
        ExperimentConfig {
            resolution: 256,
            base_filters: 64,
            depth: 8,
            skip: SkipMode::All,
            use_l1: true,
            lambda_l1: 50.0,
            lambda_connect: 0.1,
            grayscale_input: false,
            learning_rate: 2e-4,
            epochs: 250,
            pairs_per_design: 200,
            design_scale: 1.0,
            channel_width_margin: 1.3,
            fabric_slack: 1.3,
            fabric_aspect: 1.0,
            finetune_pairs: 10,
            finetune_epochs: 25,
            tolerance: 16.0 / 255.0,
            seed: 1,
        }
    }

    /// CPU-sized configuration used by the benchmark harness: same model
    /// family and objective, shrunk resolution / filters / dataset.
    pub fn quick() -> Self {
        ExperimentConfig {
            resolution: 64,
            base_filters: 12,
            depth: 6,
            epochs: 12,
            pairs_per_design: 36,
            design_scale: 0.02,
            finetune_pairs: 10,
            finetune_epochs: 5,
            ..ExperimentConfig::paper()
        }
    }

    /// Miniature configuration for unit and integration tests.
    pub fn test() -> Self {
        ExperimentConfig {
            resolution: 32,
            base_filters: 4,
            depth: 4,
            epochs: 2,
            pairs_per_design: 6,
            design_scale: 0.015,
            finetune_pairs: 2,
            finetune_epochs: 1,
            ..ExperimentConfig::paper()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when the resolution is not a power
    /// of two, the depth exceeds `log2(resolution)`, or any count that must
    /// be positive is zero.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.resolution.is_power_of_two() {
            return Err(CoreError::BadConfig(format!(
                "resolution {} is not a power of two",
                self.resolution
            )));
        }
        let max_depth = self.resolution.trailing_zeros() as usize;
        if self.depth == 0 || self.depth > max_depth {
            return Err(CoreError::BadConfig(format!(
                "depth {} invalid for resolution {} (max {max_depth})",
                self.depth, self.resolution
            )));
        }
        if self.base_filters == 0 {
            return Err(CoreError::BadConfig("base_filters must be positive".into()));
        }
        if self.pairs_per_design == 0 {
            return Err(CoreError::BadConfig(
                "pairs_per_design must be positive".into(),
            ));
        }
        if !(self.lambda_connect.is_finite() && self.lambda_l1.is_finite()) {
            return Err(CoreError::BadConfig("non-finite lambda".into()));
        }
        if !(self.fabric_slack.is_finite() && self.fabric_slack >= 1.0) {
            return Err(CoreError::BadConfig(format!(
                "fabric_slack {} must be a finite value >= 1.0",
                self.fabric_slack
            )));
        }
        if !(self.fabric_aspect.is_finite() && self.fabric_aspect > 0.0) {
            return Err(CoreError::BadConfig(format!(
                "fabric_aspect {} must be positive and finite",
                self.fabric_aspect
            )));
        }
        Ok(())
    }

    /// Number of input channels after feature assembly: 3 (RGB) or 1
    /// (grayscale) for `img_place`, plus the connectivity channel.
    pub fn input_channels(&self) -> usize {
        if self.grayscale_input {
            2
        } else {
            4
        }
    }
}

impl Default for ExperimentConfig {
    /// The CPU-sized [`ExperimentConfig::quick`] configuration.
    fn default() -> Self {
        ExperimentConfig::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section5() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.resolution, 256);
        assert_eq!(c.base_filters, 64);
        assert_eq!(c.epochs, 250);
        assert_eq!(c.lambda_l1, 50.0);
        assert_eq!(c.lambda_connect, 0.1);
        assert_eq!(c.learning_rate, 2e-4);
        assert_eq!(c.pairs_per_design, 200);
        assert_eq!(c.finetune_pairs, 10);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn quick_and_test_presets_validate() {
        assert!(ExperimentConfig::quick().validate().is_ok());
        assert!(ExperimentConfig::test().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ExperimentConfig::test();
        c.resolution = 48;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::test();
        c.depth = 99;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::test();
        c.base_filters = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::test();
        c.fabric_slack = 0.8; // would undersize the fabric below demand
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::test();
        c.fabric_aspect = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn input_channels_follow_grayscale_flag() {
        let mut c = ExperimentConfig::test();
        assert_eq!(c.input_channels(), 4);
        c.grayscale_input = true;
        assert_eq!(c.input_channels(), 2);
    }
}
