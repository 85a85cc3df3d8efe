//! The paper's §5.4 applications: placement exploration for minimum
//! congestion, *constrained* placement exploration (Figure 9) and
//! real-time congestion forecasting during simulated annealing.

use crate::config::ExperimentConfig;
use crate::dataset::DesignDataset;
use crate::error::CoreError;
use crate::features::{placement_input, tensor_to_image};
use crate::forecaster::Forecaster;
use crate::trainer::Pix2Pix;
use pop_arch::Arch;
use pop_netlist::Netlist;
use pop_place::{Annealer, PlaceOptions};
use pop_raster::{Image, Layout, PixelOwner};

/// A floorplan region over which congestion is aggregated — the objectives
/// of Figure 9 ("min-congestion at the upper side / lower side /
/// right-hand side of the floor plan").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// The whole floorplan.
    Overall,
    /// Upper half of the image.
    Upper,
    /// Lower half of the image.
    Lower,
    /// Right half of the image.
    Right,
    /// Left half of the image.
    Left,
}

impl Region {
    /// Whether image pixel `(px, py)` (y down) belongs to the region.
    pub fn contains(&self, px: usize, py: usize, side: usize) -> bool {
        match self {
            Region::Overall => true,
            Region::Upper => py < side / 2,
            Region::Lower => py >= side / 2,
            Region::Right => px >= side / 2,
            Region::Left => px < side / 2,
        }
    }
}

/// Whether exploration seeks the least or the most congested placement
/// (Figure 9 includes an overall-max objective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Select the placement minimising regional congestion.
    Min,
    /// Select the placement maximising regional congestion.
    Max,
}

/// Outcome of one constrained-exploration query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationResult {
    /// Queried region.
    pub region: Region,
    /// Min or max.
    pub objective: Objective,
    /// Index (into the dataset's pairs) the model selected.
    pub chosen: usize,
    /// Regional congestion the model predicted for its choice.
    pub predicted_score: f32,
    /// True regional congestion of the chosen placement.
    pub true_score_of_chosen: f32,
    /// Index of the truly optimal placement.
    pub true_best: usize,
    /// Rank (0 = optimal) of the chosen placement under the true ordering.
    pub true_rank_of_chosen: usize,
}

/// Mean decoded channel utilisation of a heat-map image inside `region`.
pub fn region_congestion(
    grid_width: usize,
    grid_height: usize,
    img: &Image,
    region: Region,
) -> f32 {
    let layout = Layout::new(grid_width, grid_height, img.width());
    let side = img.width();
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for py in 0..img.height() {
        for px in 0..img.width() {
            if region.contains(px, py, side) {
                if let PixelOwner::Channel(_) = layout.owner(px, py) {
                    sum += pop_raster::color::utilization_from_color(img.pixel_rgb8(px, py)) as f64;
                    count += 1;
                }
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64) as f32
    }
}

/// Figure 9: for each `(region, objective)` query, forecast every placement
/// in the dataset, choose the best under the *predicted* regional
/// congestion, and report how that choice ranks under the *true* regional
/// congestion.
pub fn constrained_exploration(
    model: &mut Pix2Pix,
    ds: &DesignDataset,
    queries: &[(Region, Objective)],
) -> Vec<ExplorationResult> {
    // Forecast each placement once; score per query afterwards.
    let predicted: Vec<Image> = ds
        .pairs
        .iter()
        .map(|p| model.forecast_image(&p.x))
        .collect();
    let truth: Vec<Image> = ds.pairs.iter().map(|p| tensor_to_image(&p.y)).collect();

    let mut results = Vec::with_capacity(queries.len());
    for &(region, objective) in queries {
        let pred_scores: Vec<f32> = predicted
            .iter()
            .map(|img| region_congestion(ds.grid_width, ds.grid_height, img, region))
            .collect();
        let true_scores: Vec<f32> = truth
            .iter()
            .map(|img| region_congestion(ds.grid_width, ds.grid_height, img, region))
            .collect();
        let better = |a: f32, b: f32| match objective {
            Objective::Min => a < b,
            Objective::Max => a > b,
        };
        let argbest = |scores: &[f32]| -> usize {
            let mut best = 0;
            for i in 1..scores.len() {
                if better(scores[i], scores[best]) {
                    best = i;
                }
            }
            best
        };
        let chosen = argbest(&pred_scores);
        let true_best = argbest(&true_scores);
        let mut order: Vec<usize> = (0..true_scores.len()).collect();
        order.sort_by(|&a, &b| {
            let cmp = true_scores[a].total_cmp(&true_scores[b]);
            match objective {
                Objective::Min => cmp.then(a.cmp(&b)),
                Objective::Max => cmp.reverse().then(a.cmp(&b)),
            }
        });
        let true_rank_of_chosen = order.iter().position(|&i| i == chosen).unwrap_or(0);
        results.push(ExplorationResult {
            region,
            objective,
            chosen,
            predicted_score: pred_scores[chosen],
            true_score_of_chosen: true_scores[chosen],
            true_best,
            true_rank_of_chosen,
        });
    }
    results
}

/// One observation of the §5.4 real-time forecast: the state of the
/// annealer plus the congestion forecast at that instant.
#[derive(Debug, Clone, PartialEq)]
pub struct RealtimeSnapshot {
    /// Annealing moves performed so far.
    pub moves: u64,
    /// Placement cost at the snapshot.
    pub cost: f64,
    /// Annealer temperature at the snapshot.
    pub temperature: f64,
    /// Model-predicted mean channel congestion for the current (partial)
    /// placement.
    pub predicted_mean_congestion: f32,
}

/// Forecasts congestion *while the design is being placed*: steps the
/// annealer `snapshot_every` moves at a time, renders the in-flight
/// placement, and forecasts it — the paper's "visualizing the simulated
/// annealing placement algorithm" demo, producing the series its GIF
/// animates. Any [`Forecaster`] will do: an
/// [`ExclusiveForecaster`](crate::ExclusiveForecaster) over a
/// model, or a cheap client handle of a `pop-serve` engine that batches
/// these forecasts with everyone else's (or, with nobody else asking,
/// runs each on the annealer's own thread).
///
/// # Errors
///
/// Propagates placement construction and forecast-transport failures.
pub fn realtime_forecast_with<F: Forecaster>(
    forecaster: &F,
    arch: &Arch,
    netlist: &Netlist,
    place_options: &PlaceOptions,
    config: &ExperimentConfig,
    snapshot_every: u64,
    max_snapshots: usize,
) -> Result<Vec<RealtimeSnapshot>, CoreError> {
    let mut annealer = Annealer::new(arch, netlist, place_options)?;
    let mut out = Vec::new();
    while !annealer.is_done() && out.len() < max_snapshots {
        let stats = annealer.step(snapshot_every);
        let x = placement_input(arch, netlist, annealer.placement(), config);
        let img = forecaster.forecast_image(&x)?;
        let predicted = crate::metrics::image_mean_congestion(arch.width(), arch.height(), &img);
        out.push(RealtimeSnapshot {
            moves: stats.moves,
            cost: stats.cost,
            temperature: stats.temperature,
            predicted_mean_congestion: predicted,
        });
    }
    Ok(out)
}

/// Outcome of [`congestion_aware_place`].
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionAwarePlacement {
    /// The selected placement.
    pub placement: pop_place::Placement,
    /// Predicted mean congestion of the selected placement.
    pub predicted_congestion: f32,
    /// Predicted mean congestion of the annealer's *final* placement (what
    /// a congestion-blind flow would have shipped).
    pub final_predicted_congestion: f32,
    /// Annealer move count at which the selected snapshot was taken.
    pub selected_at_moves: u64,
    /// Total snapshots evaluated.
    pub snapshots: usize,
}

/// Congestion-aware placement — the design-closure loop the paper's
/// introduction motivates: run the annealer, forecast the congestion of
/// periodic snapshots, and ship the snapshot with the lowest *predicted*
/// congestion instead of blindly taking the final wirelength-optimal
/// placement. Routing never enters the loop.
///
/// Snapshots before `warmup_moves` are ignored (early random placements
/// forecast low congestion simply because nets are spread thin, but they
/// are not routable targets anyone would ship).
///
/// # Errors
///
/// Propagates placement construction failures.
#[allow(clippy::too_many_arguments)]
pub fn congestion_aware_place(
    model: &mut Pix2Pix,
    arch: &Arch,
    netlist: &Netlist,
    place_options: &PlaceOptions,
    config: &ExperimentConfig,
    snapshot_every: u64,
    warmup_moves: u64,
) -> Result<CongestionAwarePlacement, CoreError> {
    let mut annealer = Annealer::new(arch, netlist, place_options)?;
    let mut best: Option<(f32, pop_place::Placement, u64)> = None;
    let mut snapshots = 0usize;
    let mut last_pred = 0.0f32;
    while !annealer.is_done() {
        let stats = annealer.step(snapshot_every);
        let x = placement_input(arch, netlist, annealer.placement(), config);
        let img = model.forecast_image(&x);
        last_pred = crate::metrics::image_mean_congestion(arch.width(), arch.height(), &img);
        snapshots += 1;
        if stats.moves < warmup_moves {
            continue;
        }
        let better = match &best {
            None => true,
            Some((b, _, _)) => last_pred < *b,
        };
        if better {
            best = Some((last_pred, annealer.placement().clone(), stats.moves));
        }
    }
    let (predicted, placement, at) = best.unwrap_or_else(|| {
        (
            last_pred,
            annealer.placement().clone(),
            annealer.stats().moves,
        )
    });
    Ok(CongestionAwarePlacement {
        placement,
        predicted_congestion: predicted,
        final_predicted_congestion: last_pred,
        selected_at_moves: at,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_the_image() {
        let side = 10;
        for py in 0..side {
            for px in 0..side {
                assert!(Region::Overall.contains(px, py, side));
                assert_ne!(
                    Region::Upper.contains(px, py, side),
                    Region::Lower.contains(px, py, side)
                );
                assert_ne!(
                    Region::Left.contains(px, py, side),
                    Region::Right.contains(px, py, side)
                );
            }
        }
    }

    #[test]
    fn congestion_aware_place_returns_legal_placement() {
        use crate::dataset::{build_design_dataset, design_fabric};
        use crate::ExperimentConfig;
        let config = ExperimentConfig {
            pairs_per_design: 4,
            epochs: 2,
            ..ExperimentConfig::test()
        };
        let spec = pop_netlist::presets::by_name("diffeq1").unwrap();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let mut model = crate::Pix2Pix::new(&config, 23).unwrap();
        let _ = model.train(&ds.pairs, config.epochs);
        let (arch, netlist, _) = design_fabric(&spec, &config).unwrap();
        let result = congestion_aware_place(
            &mut model,
            &arch,
            &netlist,
            &PlaceOptions::default(),
            &config,
            1_500,
            1_500,
        )
        .unwrap();
        result.placement.verify(&arch, &netlist).unwrap();
        assert!(result.snapshots > 0);
        assert!(
            result.predicted_congestion <= result.final_predicted_congestion + 1e-6,
            "selected snapshot must not be worse than the final placement: {} vs {}",
            result.predicted_congestion,
            result.final_predicted_congestion
        );
    }

    #[test]
    fn region_congestion_distinguishes_halves() {
        use pop_arch::Arch;
        use pop_route::CongestionMap;
        let netlist = pop_netlist::generate(
            &pop_netlist::presets::by_name("diffeq2")
                .unwrap()
                .scaled(0.01),
        );
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 8, 1.3).unwrap();
        // Congest only the upper half of the grid (high y).
        let mut util = vec![0.0f32; arch.channel_count()];
        for ch in arch.channels() {
            let (_, y) = ch.midpoint();
            if y > arch.height() as f32 / 2.0 {
                util[arch.channel_index(ch)] = 1.0;
            }
        }
        let cong = CongestionMap::from_utilization(&arch, util);
        let placement = pop_place::place(&arch, &netlist, &Default::default()).unwrap();
        let img = pop_raster::render_congestion(&arch, &netlist, &placement, &cong, 64);
        // Grid-north is image-top: Upper must be much hotter than Lower.
        let upper = region_congestion(arch.width(), arch.height(), &img, Region::Upper);
        let lower = region_congestion(arch.width(), arch.height(), &img, Region::Lower);
        assert!(
            upper > lower + 0.3,
            "upper {upper} should exceed lower {lower}"
        );
    }
}
