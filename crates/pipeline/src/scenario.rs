//! Declarative scenario descriptions: what corpus to generate, instead of
//! hard-coded preset loops.
//!
//! A [`ScenarioSpec`] names a Table 2 design preset and the knobs that
//! matter for congestion diversity — design scale, image resolution,
//! placements per design, **target fabric utilization** (density of the
//! auto-sized grid), interior **aspect ratio**, the netlist's **net-degree
//! profile** (mean fanout + locality) and a **seed range** producing
//! several netlist variants of the same design family. [`ScenarioSpec::jobs`]
//! expands it into concrete `(SyntheticSpec, ExperimentConfig)` generation
//! jobs; the [`registry`] holds named, ready-to-run scenarios.

use crate::error::PipelineError;
use pop_core::ExperimentConfig;
use pop_netlist::{presets, SyntheticSpec};

/// One concrete generation job: a synthetic design plus the experiment
/// configuration to generate it under. Produced by [`ScenarioSpec::jobs`];
/// consumed by the pipeline (or, sequentially, by
/// `pop_core::dataset::build_design_dataset`).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignJob {
    /// Name of the scenario this job came from.
    pub scenario: String,
    /// The netlist to generate (variant seed and fanout profile applied).
    pub spec: SyntheticSpec,
    /// The data-path configuration (resolution, sweep seed, fabric
    /// density/aspect, …).
    pub config: ExperimentConfig,
}

/// A declarative description of one slice of a training/eval corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also the registry key).
    pub name: String,
    /// Table 2 design preset the netlists derive from.
    pub design: String,
    /// Linear scale applied to the preset (grid size follows design size).
    pub design_scale: f64,
    /// Image resolution (power of two).
    pub resolution: usize,
    /// Placements generated per design variant.
    pub pairs_per_design: usize,
    /// Number of netlist variants (distinct derived seeds) of the design.
    pub variants: usize,
    /// Master seed: placement-sweep base seed and variant-seed derivation.
    pub seed: u64,
    /// Target fabric utilization in `(0, 1]`; the auto-sizer provisions
    /// `1 / target_utilization` site headroom, so higher values mean
    /// denser, hotter fabrics.
    pub target_utilization: f64,
    /// Interior aspect ratio (width / height) of the fabric.
    pub aspect_ratio: f64,
    /// Mean net fanout of the generated netlists (net-degree profile).
    pub mean_fanout: f64,
    /// Sink-locality of the generated netlists in `[0, 1]`.
    pub locality: f64,
}

impl Default for ScenarioSpec {
    /// The `baseline` scenario: `diffeq2` at the test scale with the
    /// paper-default fabric (≈77 % utilization, square grid).
    fn default() -> Self {
        ScenarioSpec {
            name: "baseline".into(),
            design: "diffeq2".into(),
            design_scale: 0.015,
            resolution: 32,
            pairs_per_design: 4,
            variants: 1,
            seed: 1,
            target_utilization: 1.0 / 1.3,
            aspect_ratio: 1.0,
            mean_fanout: 3.0,
            locality: 0.75,
        }
    }
}

/// Deterministic seed mixer (FNV-1a over the inputs) for variant seeds.
fn mix_seed(base: u64, variant: u64) -> u64 {
    let mut h = pop_core::dataset::Fnv1a::new();
    h.eat(base);
    h.eat(variant);
    h.finish()
}

impl ScenarioSpec {
    /// Checks internal consistency and that the design preset exists.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadScenario`] describing the first problem.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let bad = |msg: String| Err(PipelineError::BadScenario(msg));
        if presets::by_name(&self.design).is_none() {
            return bad(format!("unknown design preset '{}'", self.design));
        }
        if !self.resolution.is_power_of_two() {
            return bad(format!(
                "resolution {} is not a power of two",
                self.resolution
            ));
        }
        if self.pairs_per_design == 0 || self.variants == 0 {
            return bad("pairs_per_design and variants must be positive".into());
        }
        if !(self.target_utilization.is_finite()
            && self.target_utilization > 0.0
            && self.target_utilization <= 1.0)
        {
            return bad(format!(
                "target_utilization {} outside (0, 1]",
                self.target_utilization
            ));
        }
        if !(self.aspect_ratio.is_finite() && self.aspect_ratio > 0.0) {
            return bad(format!(
                "aspect_ratio {} must be positive",
                self.aspect_ratio
            ));
        }
        if !(self.mean_fanout.is_finite() && self.mean_fanout >= 1.0) {
            return bad(format!("mean_fanout {} must be >= 1", self.mean_fanout));
        }
        if !(0.0..=1.0).contains(&self.locality) {
            return bad(format!("locality {} outside [0, 1]", self.locality));
        }
        if !(self.design_scale.is_finite() && self.design_scale > 0.0) {
            return bad(format!(
                "design_scale {} must be positive",
                self.design_scale
            ));
        }
        Ok(())
    }

    /// The experiment configuration this scenario generates under. The
    /// U-Net depth is shrunk to fit small resolutions so the config always
    /// validates.
    pub fn config(&self) -> ExperimentConfig {
        let base = ExperimentConfig::test();
        ExperimentConfig {
            resolution: self.resolution,
            depth: base
                .depth
                .min(self.resolution.trailing_zeros() as usize)
                .max(1),
            pairs_per_design: self.pairs_per_design,
            design_scale: self.design_scale,
            fabric_slack: 1.0 / self.target_utilization,
            fabric_aspect: self.aspect_ratio,
            seed: self.seed,
            ..base
        }
    }

    /// Expands the scenario into one [`DesignJob`] per netlist variant.
    /// Variant `v` derives its netlist seed from `(preset seed, scenario
    /// seed, v)`; multi-variant scenarios suffix design names with `-v<v>`
    /// so caches and leave-one-out splits stay distinct.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::validate`] failures.
    pub fn jobs(&self) -> Result<Vec<DesignJob>, PipelineError> {
        self.validate()?;
        let preset = presets::by_name(&self.design).expect("validated above");
        let config = self.config();
        let jobs = (0..self.variants)
            .map(|v| {
                let mut spec = preset.clone();
                spec.mean_fanout = self.mean_fanout;
                spec.locality = self.locality;
                if self.variants > 1 {
                    spec.name = format!("{}-v{v}", preset.name);
                    spec.seed = mix_seed(preset.seed ^ self.seed, v as u64);
                }
                DesignJob {
                    scenario: self.name.clone(),
                    spec,
                    config: config.clone(),
                }
            })
            .collect();
        Ok(jobs)
    }

    /// Total pairs this scenario contributes to a corpus.
    pub fn total_pairs(&self) -> usize {
        self.variants * self.pairs_per_design
    }

    /// Expands the scenario's **held-out evaluation split**: the same
    /// netlist variants as [`ScenarioSpec::jobs`] (the designs are
    /// identical — this is a placement-distribution split, not a design
    /// split), but with the placement-sweep seeds advanced past
    /// `train_epochs` full training epochs and `eval_pairs` placements per
    /// variant. Because [`advance_sweep_seeds`] is the *same* arithmetic
    /// the epoch prefetcher shifts training epochs by, the eval sweep's
    /// seed range `[seed + train_epochs·pairs, …)` is disjoint from every
    /// training epoch's range by construction.
    ///
    /// The shifted `(seed, pairs_per_design)` flow into the cache
    /// fingerprint, so the eval split gets its own `CorpusStore` entries:
    /// a warm re-run regenerates nothing and can never collide with (or be
    /// served from) a training-epoch cache entry.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::validate`] failures; `eval_pairs = 0` is
    /// rejected as a bad scenario.
    pub fn holdout_jobs(
        &self,
        eval_pairs: usize,
        train_epochs: usize,
    ) -> Result<Vec<DesignJob>, PipelineError> {
        if eval_pairs == 0 {
            return Err(PipelineError::BadScenario(
                "holdout eval_pairs must be positive".into(),
            ));
        }
        let mut jobs = self.jobs()?;
        // Shift FIRST (the shift distance is measured in *training*
        // pairs-per-epoch), then resize the sweep to the eval pair count.
        advance_sweep_seeds(&mut jobs, train_epochs);
        for job in &mut jobs {
            job.config.pairs_per_design = eval_pairs;
        }
        Ok(jobs)
    }
}

/// Advances every job's placement-sweep seed past `epochs` full epochs of
/// its scenario's sweep (`seed += epochs · pairs_per_design`) — the one
/// seed-shift arithmetic shared by the epoch prefetcher (training epoch
/// `e` shifts by `e`) and the hold-out split (which shifts past *all*
/// training epochs). Only the sweep seed moves; netlist variant seeds are
/// fixed at expansion time, so every shift re-places the same designs.
pub fn advance_sweep_seeds(jobs: &mut [DesignJob], epochs: usize) {
    for job in jobs {
        job.config.seed = job
            .config
            .seed
            .wrapping_add(epochs as u64 * job.config.pairs_per_design as u64);
    }
}

/// The named scenarios shipped with the pipeline. Each is a starting point:
/// corpora are plain `&[ScenarioSpec]` slices, so callers mix, match and
/// mutate freely.
pub fn registry() -> Vec<ScenarioSpec> {
    let base = ScenarioSpec::default();
    vec![
        // CI-sized end-to-end check: one tiny design, two placements.
        ScenarioSpec {
            name: "smoke".into(),
            design: "diffeq2".into(),
            design_scale: 0.01,
            resolution: 16,
            pairs_per_design: 2,
            ..base.clone()
        },
        // The paper-shaped default.
        base.clone(),
        // Dense fabric: 95 % target utilization → hot congestion maps.
        // The density knob only changes the auto-sized grid once the
        // design (not the minimum viable fabric) drives sizing: at the
        // test-sized default scale every slack value rounds to the same
        // minimal grid and `dense` would silently duplicate `baseline`.
        // At 0.8 the tighter headroom provably shrinks the fabric (the
        // `dense_and_wide_scenarios_produce_distinct_data` test pins it).
        ScenarioSpec {
            name: "dense".into(),
            design_scale: 0.8,
            target_utilization: 0.95,
            ..base.clone()
        },
        // Wide fabric: 2:1 interior aspect stretches channel geometry.
        // Sized like `dense` so the aspect knob shapes a real interior
        // instead of rounding away on the minimal grid.
        ScenarioSpec {
            name: "wide".into(),
            design_scale: 0.8,
            aspect_ratio: 2.0,
            ..base.clone()
        },
        // High-fanout netlists: broadcast-heavy net-degree profile.
        ScenarioSpec {
            name: "highfanout".into(),
            design: "diffeq1".into(),
            mean_fanout: 4.5,
            ..base.clone()
        },
        // Weak locality: long-range nets dominate routing demand.
        ScenarioSpec {
            name: "longrange".into(),
            design: "diffeq1".into(),
            locality: 0.3,
            ..base.clone()
        },
        // Seed-diverse: three netlist variants of one design family.
        ScenarioSpec {
            name: "variants".into(),
            design: "diffeq1".into(),
            variants: 3,
            pairs_per_design: 2,
            ..base
        },
    ]
}

/// Looks up one registry scenario by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    registry()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_scenarios_all_validate_and_resolve() {
        let all = registry();
        assert!(all.len() >= 6);
        for s in &all {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(s.config().validate().is_ok(), "{} config", s.name);
        }
        // Names are unique registry keys.
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(by_name("SMOKE").is_some());
        assert!(by_name("nosuch").is_none());
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        let ok = ScenarioSpec::default();
        assert!(ok.validate().is_ok());
        for mutate in [
            |s: &mut ScenarioSpec| s.design = "nosuch".into(),
            |s: &mut ScenarioSpec| s.resolution = 48,
            |s: &mut ScenarioSpec| s.pairs_per_design = 0,
            |s: &mut ScenarioSpec| s.variants = 0,
            |s: &mut ScenarioSpec| s.target_utilization = 0.0,
            |s: &mut ScenarioSpec| s.target_utilization = 1.5,
            |s: &mut ScenarioSpec| s.aspect_ratio = -1.0,
            |s: &mut ScenarioSpec| s.mean_fanout = 0.5,
            |s: &mut ScenarioSpec| s.locality = 1.5,
            |s: &mut ScenarioSpec| s.design_scale = 0.0,
        ] {
            let mut bad = ok.clone();
            mutate(&mut bad);
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn jobs_expand_variants_with_distinct_names_and_seeds() {
        let scenario = ScenarioSpec {
            variants: 3,
            ..ScenarioSpec::default()
        };
        let jobs = scenario.jobs().unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(scenario.total_pairs(), 12);
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.spec.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 3, "variant seeds must be distinct");
        let mut names: Vec<&str> = jobs.iter().map(|j| j.spec.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3, "variant names must be distinct");
        // Net-degree profile is applied to every variant.
        assert!(jobs.iter().all(|j| j.spec.mean_fanout == 3.0));
        // Single-variant scenarios keep the preset's name and seed so they
        // stay cache-compatible with the classic preset flow.
        let single = ScenarioSpec::default().jobs().unwrap();
        assert_eq!(single[0].spec.name, "diffeq2");
        assert_eq!(
            single[0].spec.seed,
            presets::by_name("diffeq2").unwrap().seed
        );
    }

    #[test]
    fn holdout_jobs_shift_sweep_seeds_but_never_the_designs() {
        let scenario = ScenarioSpec {
            variants: 2,
            pairs_per_design: 3,
            ..ScenarioSpec::default()
        };
        let train = scenario.jobs().unwrap();
        let eval = scenario.holdout_jobs(5, 4).unwrap();
        assert_eq!(eval.len(), train.len());
        for (t, e) in train.iter().zip(&eval) {
            // Identical netlists: a placement-distribution split, not a
            // design split.
            assert_eq!(t.spec, e.spec);
            // Sweep seed advanced past 4 epochs of 3 pairs each…
            assert_eq!(e.config.seed, t.config.seed.wrapping_add(12));
            // …and the sweep resized to the eval pair count.
            assert_eq!(e.config.pairs_per_design, 5);
        }
        // The shift matches advance_sweep_seeds (the prefetcher's epoch
        // arithmetic), so eval seeds are provably past every epoch.
        let mut shifted = scenario.jobs().unwrap();
        advance_sweep_seeds(&mut shifted, 4);
        for (s, e) in shifted.iter().zip(&eval) {
            assert_eq!(s.config.seed, e.config.seed);
        }
        // A zero-pair eval split is rejected, not silently empty.
        assert!(matches!(
            scenario.holdout_jobs(0, 1),
            Err(PipelineError::BadScenario(_))
        ));
    }

    #[test]
    fn config_maps_utilization_to_slack_and_aspect() {
        let s = ScenarioSpec {
            target_utilization: 0.5,
            aspect_ratio: 2.0,
            resolution: 16,
            ..ScenarioSpec::default()
        };
        let c = s.config();
        assert!((c.fabric_slack - 2.0).abs() < 1e-12);
        assert_eq!(c.fabric_aspect, 2.0);
        // Depth shrinks to fit the resolution.
        assert!(c.validate().is_ok());
    }
}
