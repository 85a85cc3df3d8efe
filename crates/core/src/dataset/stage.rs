//! The generation stages: per-design preparation ([`DesignContext::prepare`])
//! and per-placement place → route → raster ([`DesignContext::generate_pair`]),
//! driven sequentially by [`build_design_dataset`].

use super::{DesignDataset, Pair, PairMeta};
use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::features::{assemble_target, placement_input};
use pop_arch::Arch;
use pop_netlist::{generate, Netlist, SyntheticSpec};
use pop_place::{place, sweep::SweepSpec, PlaceOptions, Placement};
use pop_raster::render_congestion;
use pop_route::{min_channel_width, route_on_graph, RouteGraph, RouteOptions, RouteResult};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Rebuilds the architecture and netlist a dataset was generated on (the
/// fabric is a deterministic function of spec + config).
///
/// The minimum-width search (a probe placement plus
/// [`min_channel_width`]) reads only the scaled spec and the two fabric
/// knobs, so it runs once per process for each value of those inputs: a
/// later call with the same ones reuses its width (counted as
/// `core.calibration.reuses`; a search as `core.calibration.searches`)
/// and returns the same fabric bit for bit. A failed search is not kept.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn design_fabric(
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
) -> Result<(Arch, Netlist, usize), CoreError> {
    let scaled = spec.scaled(config.design_scale);
    let netlist = generate(&scaled);
    let (clbs, ios, mems, mults) = netlist.site_demand();
    let auto_size = |width| {
        Arch::auto_size_with_aspect(
            clbs,
            ios,
            mems,
            mults,
            width,
            config.fabric_slack,
            config.fabric_aspect,
        )
    };
    let key = CalibrationKey::new(&scaled, config);
    let memoised = calibrations().get(&key).copied();
    let min_w = match memoised {
        Some(min_w) => {
            pop_obs::global().counter("core.calibration.reuses").inc();
            min_w
        }
        None => {
            // Searched outside the lock: two workers that miss on one key
            // at once both search and insert the same width.
            pop_obs::global().counter("core.calibration.searches").inc();
            let probe_arch = auto_size(8)?;
            let probe_placement = place(&probe_arch, &netlist, &Default::default())?;
            let (min_w, _) = min_channel_width(
                &probe_arch,
                &netlist,
                &probe_placement,
                &RouteOptions::default(),
            )?;
            calibrations().insert(key, min_w);
            min_w
        }
    };
    let width = calibrated_width(min_w, config.channel_width_margin);
    let arch = auto_size(width)?;
    Ok((arch, netlist, width))
}

/// Exactly the values the width search reads, compared by value: every
/// field of the scaled spec (floats by their bits) and the two fabric
/// knobs. The margin is applied after the lookup, so it is not in here.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct CalibrationKey {
    name: String,
    counts: [usize; 8],
    mean_fanout: u64,
    locality: u64,
    seed: u64,
    fabric_slack: u64,
    fabric_aspect: u64,
}

impl CalibrationKey {
    pub(super) fn new(scaled: &SyntheticSpec, config: &ExperimentConfig) -> Self {
        // Destructured so that a field added to the spec cannot be left out.
        let SyntheticSpec {
            name,
            luts,
            ffs,
            nets,
            inputs,
            outputs,
            memories,
            multipliers,
            luts_per_clb,
            mean_fanout,
            locality,
            seed,
        } = scaled;
        CalibrationKey {
            name: name.clone(),
            counts: [
                *luts,
                *ffs,
                *nets,
                *inputs,
                *outputs,
                *memories,
                *multipliers,
                *luts_per_clb,
            ],
            mean_fanout: mean_fanout.to_bits(),
            locality: locality.to_bits(),
            seed: *seed,
            fabric_slack: config.fabric_slack.to_bits(),
            fabric_aspect: config.fabric_aspect.to_bits(),
        }
    }
}

/// The minimum widths found so far in this process. One entry per
/// (design, scale, slack, aspect) and never evicted: a key and a `usize`.
static CALIBRATIONS: Mutex<BTreeMap<CalibrationKey, usize>> = Mutex::new(BTreeMap::new());

/// Every update is one insert, so a lock poisoned elsewhere is still good.
pub(super) fn calibrations() -> MutexGuard<'static, BTreeMap<CalibrationKey, usize>> {
    CALIBRATIONS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The channel width a fabric is built with, given the minimum width its
/// probe placement routed at: `margin` of headroom, never below 4 wires.
pub fn calibrated_width(min_width: usize, margin: f64) -> usize {
    ((min_width as f64 * margin).ceil() as usize).max(4)
}

/// The per-design state every placement of that design shares: the scaled
/// netlist, the calibrated fabric and its routing graph.
///
/// Prepared once per design ([`DesignContext::prepare`] — the
/// fabric-calibration stage, expensive the first time a process prepares
/// that design), then each placement index is materialised
/// independently via [`DesignContext::generate_pair`]. The sequential
/// [`build_design_dataset`] and the parallel `pop-pipeline` generator are
/// both thin drivers over these two calls.
#[derive(Debug, Clone)]
pub struct DesignContext {
    /// The (unscaled) spec the context was prepared from.
    pub spec: SyntheticSpec,
    /// The experiment configuration (resolution, sweep seed, λ, …).
    pub config: ExperimentConfig,
    /// Calibrated fabric.
    pub arch: Arch,
    /// The scaled netlist placed on it.
    pub netlist: Netlist,
    /// Routing-resource graph of `arch` (shared by every route call).
    pub graph: RouteGraph,
    /// Calibrated channel width of the fabric.
    pub channel_width: usize,
}

impl DesignContext {
    /// Runs the per-design stages: netlist generation, fabric calibration
    /// and routing-graph construction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for an invalid config and
    /// propagates substrate failures.
    pub fn prepare(spec: &SyntheticSpec, config: &ExperimentConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let (arch, netlist, channel_width) = design_fabric(spec, config)?;
        let graph = RouteGraph::new(&arch);
        Ok(DesignContext {
            spec: spec.clone(),
            config: config.clone(),
            arch,
            netlist,
            graph,
            channel_width,
        })
    }

    /// The deterministic placement-option sweep of this design:
    /// `config.pairs_per_design` option sets seeded from `config.seed`.
    pub fn sweep_options(&self) -> Vec<PlaceOptions> {
        let sweep = SweepSpec {
            base_seed: self.config.seed,
            ..SweepSpec::quick()
        };
        sweep.take(self.config.pairs_per_design)
    }

    /// Placement stage: anneals one placement of the design under `popts`,
    /// returning it with the wall-clock microseconds spent.
    ///
    /// # Errors
    ///
    /// Propagates placement failures.
    pub fn place_stage(&self, popts: &PlaceOptions) -> Result<(Placement, u64), CoreError> {
        // Stage timing is recorded provenance, never folded into the
        // fingerprint.
        let t0 = Instant::now();
        let placement = place(&self.arch, &self.netlist, popts)?;
        Ok((placement, t0.elapsed().as_micros() as u64))
    }

    /// Routing stage: routes a placement on the shared graph (the
    /// ground-truth collection step the paper's speedup is measured
    /// against), returning the result with the wall-clock microseconds.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn route_stage(&self, placement: &Placement) -> Result<(RouteResult, u64), CoreError> {
        // Stage timing is recorded provenance, never folded into the
        // fingerprint.
        let t1 = Instant::now();
        let routing = route_on_graph(
            &self.arch,
            &self.graph,
            &self.netlist,
            placement,
            &RouteOptions::default(),
        )?;
        Ok((routing, t1.elapsed().as_micros() as u64))
    }

    /// Rasterisation + tensor-assembly stage: renders the three images of a
    /// placed-and-routed design and assembles the training pair.
    #[allow(clippy::too_many_arguments)] // the full provenance of one pair
    pub fn raster_stage(
        &self,
        index: usize,
        popts: &PlaceOptions,
        placement: &Placement,
        routing: &RouteResult,
        place_micros: u64,
        route_micros: u64,
    ) -> Pair {
        let config = &self.config;
        let x = placement_input(&self.arch, &self.netlist, placement, config);
        let img_route = render_congestion(
            &self.arch,
            &self.netlist,
            placement,
            routing.congestion(),
            config.resolution,
        );
        let y = assemble_target(&img_route);
        Pair {
            x,
            y,
            meta: PairMeta {
                design: self.spec.name.clone(),
                index,
                place_seed: popts.seed,
                true_mean_congestion: routing.congestion().mean_utilization(),
                true_max_congestion: routing.congestion().max_utilization(),
                route_micros,
                place_micros,
            },
        }
    }

    /// Runs the per-placement stages for sweep entry `index`:
    /// [`place_stage`](DesignContext::place_stage) →
    /// [`route_stage`](DesignContext::route_stage) →
    /// [`raster_stage`](DesignContext::raster_stage).
    ///
    /// Deterministic in `(context, index, popts)` except for the wall-clock
    /// timing fields of [`PairMeta`].
    ///
    /// # Errors
    ///
    /// Propagates placement/routing failures as [`CoreError::Pipeline`].
    pub fn generate_pair(&self, index: usize, popts: &PlaceOptions) -> Result<Pair, CoreError> {
        let (placement, place_micros) = self.place_stage(popts)?;
        let (routing, route_micros) = self.route_stage(&placement)?;
        Ok(self.raster_stage(
            index,
            popts,
            &placement,
            &routing,
            place_micros,
            route_micros,
        ))
    }

    /// Assembles pairs (in sweep order) into a [`DesignDataset`].
    pub fn into_dataset(self, pairs: Vec<Pair>) -> DesignDataset {
        DesignDataset {
            name: self.spec.name,
            pairs,
            channel_width: self.channel_width,
            grid_width: self.arch.width(),
            grid_height: self.arch.height(),
        }
    }
}

/// Generates the dataset for one design preset under `config`
/// (`config.pairs_per_design` placements from the option sweep, each routed
/// and rasterised) — the sequential reference driver over
/// [`DesignContext`]; the parallel `pop-pipeline` generator produces
/// bitwise-identical output from the same stages.
///
/// # Errors
///
/// Propagates placement/routing failures as [`CoreError::Pipeline`].
pub fn build_design_dataset(
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
) -> Result<DesignDataset, CoreError> {
    let ctx = DesignContext::prepare(spec, config)?;
    let mut pairs = Vec::with_capacity(config.pairs_per_design);
    for (index, popts) in ctx.sweep_options().iter().enumerate() {
        pairs.push(ctx.generate_pair(index, popts)?);
    }
    Ok(ctx.into_dataset(pairs))
}
