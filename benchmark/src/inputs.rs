//! Seeded inputs shared by the forecasting workloads: real placements of a
//! Table-2 design and the feature tensors rastered from them.

use pop_core::dataset::DesignContext;
use pop_core::features::assemble_input;
use pop_core::ExperimentConfig;
use pop_netlist::presets;
use pop_nn::Tensor;
use pop_pipeline::{PipelineOptions, ScenarioSpec};
use pop_place::Placement;
use pop_raster::{render_connectivity, render_placement};
use std::path::Path;

/// Linear scale every workload shrinks the Table-2 presets by.
pub const DESIGN_SCALE: f64 = 0.1;

/// Pipeline workers per heavy stage.
const PIPELINE_WORKERS: usize = 2;

/// `pairs` placements of one Table-2 design at [`DESIGN_SCALE`], swept from
/// `sweep_seed`: one job of a corpus.
pub fn scenario(design: &str, resolution: usize, pairs: usize, sweep_seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("bench-{design}"),
        design: design.to_string(),
        design_scale: DESIGN_SCALE,
        resolution,
        pairs_per_design: pairs,
        seed: sweep_seed,
        ..ScenarioSpec::default()
    }
}

/// The 2-worker pipeline over a [`pop_core::dataset::CorpusStore`] at `dir`.
pub fn pipeline_options(dir: &Path) -> PipelineOptions {
    PipelineOptions::with_workers(PIPELINE_WORKERS).with_cache_dir(dir)
}

/// A prepared design plus `count` placements from its option sweep. Only
/// the sweep seed derives from `seed`: the netlist and the calibrated
/// fabric are the same for every seed, so seeds vary the inputs, not the
/// amount of work.
pub fn placed_design(
    design: &str,
    model_config: &ExperimentConfig,
    seed: u64,
    count: usize,
) -> (DesignContext, Vec<Placement>) {
    let spec = presets::by_name(design).expect("a Table-2 preset");
    let config = ExperimentConfig {
        design_scale: DESIGN_SCALE,
        pairs_per_design: count,
        seed,
        ..model_config.clone()
    };
    let ctx = DesignContext::prepare(&spec, &config).expect("the preset prepares");
    let placements = ctx
        .sweep_options()
        .iter()
        .map(|popts| ctx.place_stage(popts).expect("the preset places").0)
        .collect();
    (ctx, placements)
}

/// `stack(img_place, λ·img_connect)` of one placement — the raster layer's
/// feature path.
pub fn features(ctx: &DesignContext, placement: &Placement) -> Tensor {
    let side = ctx.config.resolution;
    let img_place = render_placement(&ctx.arch, &ctx.netlist, placement, side);
    let img_connect = render_connectivity(&ctx.arch, &ctx.netlist, placement, side);
    assemble_input(&img_place, &img_connect, &ctx.config)
}
