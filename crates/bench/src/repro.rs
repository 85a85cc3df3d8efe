//! The paper's evaluation as one suite: one section per artefact (the
//! table in the crate docs), run in paper order by [`run`], the body of
//! the `repro` binary.
//!
//! One invocation shares only what is provably the same. Each design's
//! dataset is built or loaded once. `baseline_rudy` prints the cGAN
//! columns from the `table2` rows of the same run (`-` when `table2` did
//! not run). `aware_placement` reuses `fig8_losses`' `l1_all_skip` model:
//! both are `Pix2Pix::new(&config, config.seed)` trained on every OR1200
//! pair for `config.epochs`, so they hold the same bits. Every other
//! section trains its own model, so a file a section writes is the same
//! whether it runs alone or with the others.

use crate::{pct, PAPER_TABLE2};
use pop_core::apps::{
    congestion_aware_place, constrained_exploration, realtime_forecast_with, Objective, Region,
};
use pop_core::baseline::evaluate_rudy_against;
use pop_core::dataset::{build_or_load, design_fabric, leave_one_out, DesignDataset};
use pop_core::features::tensor_to_image;
use pop_core::{metrics, ExclusiveForecaster, ExperimentConfig, MetricSet, Pix2Pix, SkipMode};
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions, Placement};
use pop_raster::metrics::{mae, per_pixel_accuracy, ssim};
use pop_raster::{
    render_congestion, render_connectivity, render_floorplan, render_placement, render_routing,
    Image,
};
use pop_route::{route, RouteOptions};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every section, in paper order — the order [`run`] always uses.
const SECTIONS: [&str; 10] = [
    "table2",
    "speedup",
    "baseline_rudy",
    "fig7_ablation",
    "fig8_losses",
    "fig9_constrained",
    "sec52_grayscale",
    "realtime",
    "aware_placement",
    "figure2",
];

/// The sections `names` asks for, in paper order and each once; no names
/// means every section. An unknown name is an error listing the valid ones.
fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static str>, String> {
    if let Some(bad) = names
        .iter()
        .map(AsRef::as_ref)
        .find(|n| !SECTIONS.contains(n))
    {
        return Err(format!(
            "unknown section '{bad}'; sections are: {}",
            SECTIONS.join(", ")
        ));
    }
    Ok(SECTIONS
        .into_iter()
        .filter(|s| names.is_empty() || names.iter().any(|n| n.as_ref() == *s))
        .collect())
}

/// Runs the sections `names` asks for — every one when `names` is empty —
/// once each and in paper order (`baseline_rudy` reads `table2`'s rows,
/// `aware_placement` takes `fig8_losses`' model), building or loading
/// datasets under `cache_dir` and writing every artefact under `out_dir`.
///
/// # Errors
///
/// Returns a message listing the valid section names when a name is
/// unknown, before anything runs.
///
/// # Panics
///
/// Panics when a pipeline stage or a file write fails — this is a
/// top-level experiment runner.
pub fn run<S: AsRef<str>>(
    config: &ExperimentConfig,
    cache_dir: &Path,
    out_dir: &Path,
    names: &[S],
) -> Result<(), String> {
    let sections = select(names)?;
    std::fs::create_dir_all(out_dir).expect("create output dir");
    let mut data = Datasets {
        config,
        cache_dir,
        loaded: Vec::new(),
    };
    let mut cgan = None;
    let mut or1200 = None;
    for section in sections {
        match section {
            "table2" => cgan = Some(table2(config, data.all_designs(), out_dir)),
            "speedup" => speedup(config, data.all_designs(), out_dir),
            "baseline_rudy" => baseline_rudy(config, data.all_designs(), cgan.as_deref(), out_dir),
            "fig7_ablation" => fig7_ablation(config, data.design("OR1200"), out_dir),
            "fig8_losses" => or1200 = Some(fig8_losses(config, data.design("OR1200"), out_dir)),
            "fig9_constrained" => fig9_constrained(config, data.design("ode"), out_dir),
            "sec52_grayscale" => {
                sec52_grayscale(config, data.design("raygentop"), cache_dir, out_dir)
            }
            "realtime" => realtime(config, data.design("diffeq1"), out_dir),
            "aware_placement" => {
                aware_placement(config, data.design("OR1200"), or1200.take(), out_dir)
            }
            "figure2" => figure2(config, out_dir),
            other => unreachable!("select() admitted unknown section {other}"),
        }
    }
    Ok(())
}

/// Each design's dataset at the suite's config, built or loaded once.
struct Datasets<'a> {
    config: &'a ExperimentConfig,
    cache_dir: &'a Path,
    /// In paper order whenever [`Datasets::all_designs`] returns.
    loaded: Vec<DesignDataset>,
}

impl Datasets<'_> {
    fn design(&mut self, name: &str) -> &DesignDataset {
        let at = match self.loaded.iter().position(|d| d.name == name) {
            Some(at) => at,
            None => {
                let spec = presets::by_name(name).expect("preset");
                eprintln!(
                    "[data] {name}: building or loading (cache: {})",
                    self.cache_dir.display()
                );
                let ds = build_or_load(&spec, self.config, Some(self.cache_dir));
                self.loaded.push(ds.expect("dataset pipeline"));
                self.loaded.len() - 1
            }
        };
        &self.loaded[at]
    }

    /// All eight Table 2 datasets, in paper order (training sets are
    /// concatenated in slice order, so the order is part of the result).
    fn all_designs(&mut self) -> &[DesignDataset] {
        let order: Vec<String> = presets::all().into_iter().map(|s| s.name).collect();
        for name in &order {
            self.design(name);
        }
        self.loaded
            .sort_by_key(|d| order.iter().position(|n| *n == d.name));
        &self.loaded
    }
}

/// The three §5.3 model variants of Figures 7 and 8.
fn variants(config: &ExperimentConfig) -> [(&'static str, ExperimentConfig); 3] {
    let no_l1 = ExperimentConfig {
        use_l1: false,
        ..config.clone()
    };
    let single_skip = ExperimentConfig {
        skip: SkipMode::Single,
        ..config.clone()
    };
    [
        ("l1_all_skip", config.clone()),
        ("no_l1", no_l1),
        ("single_skip", single_skip),
    ]
}

fn write(path: &Path, contents: String) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// **Table 2**: per-design Acc.1 (leave-one-design-out per-pixel
/// accuracy), Acc.2 (after fine-tuning on the first `finetune_pairs`
/// pairs of the held-out design, scored on the rest) and Top10
/// (min-congestion retrieval by the strategy-2 model, as in the paper).
/// Returns `(design, acc2, top10)` per row for `baseline_rudy`.
fn table2(
    config: &ExperimentConfig,
    datasets: &[DesignDataset],
    out_dir: &Path,
) -> Vec<(&'static str, f32, f32)> {
    println!("\nTable 2 (scaled designs; p* = paper-reported values at full scale)");
    println!(
        "Design      #LUTs   #FF  #Nets   #P |   Acc.1   Acc.2   Top10 |  pAcc.1  pAcc.2  pTop10"
    );
    // The paper's literal Top10 (not the fraction-scaled default).
    let metric10 = MetricSet::from_config(config).with_top_count(10);
    let mut csv = String::from("design,luts,ffs,nets,pairs,acc1,acc2,top10\n");
    let mut rows = Vec::new();
    for paper in &PAPER_TABLE2 {
        let (held_out, t0) = (paper.0, Instant::now());
        let (train, test) = leave_one_out(datasets, held_out);

        // Strategy 1: train on the other designs only.
        let mut model = Pix2Pix::new(config, config.seed).expect("valid config");
        let _ = model.train_refs(&train, config.epochs);
        let acc1 = metric10
            .evaluate(&ExclusiveForecaster::new(&mut model), test)
            .expect("model and corpus share a resolution")
            .accuracy;

        // Strategy 2: fine-tune on k pairs, then one sweep over the whole
        // design feeds Acc.2 (pairs k..) and Top10 (the full ranking).
        let n = test.pairs.len();
        let k = config.finetune_pairs.min(n.saturating_sub(1));
        let _ = model.finetune(&test.pairs[..k], config.finetune_epochs);
        let forecaster = ExclusiveForecaster::new(&mut model);
        let evals = metric10
            .evaluate_pairs(&forecaster, &test.pairs, test.grid_width, test.grid_height)
            .expect("model and corpus share a resolution");
        let acc2 = metric10.summarize(&evals[k..]).accuracy;
        let top10 = metric10.summarize(&evals).top_overlap;

        let spec = presets::by_name(held_out).expect("preset");
        let stats = generate(&spec.scaled(config.design_scale)).stats();
        let (luts, ffs, nets) = (stats.luts, stats.ffs, stats.nets);
        let ours = [acc1, acc2, top10]
            .map(|x| format!("{:>7}", pct(x)))
            .join(" ");
        let theirs = [paper.5, paper.6, paper.7].map(|x| format!("{:>7}", pct(x)));
        println!(
            "{held_out:<10} {luts:>6} {ffs:>5} {nets:>6} {n:>4} | {ours} | {}   ({:.0?})",
            theirs.join(" "),
            t0.elapsed()
        );
        let _ = writeln!(
            csv,
            "{held_out},{luts},{ffs},{nets},{n},{acc1},{acc2},{top10}"
        );
        rows.push((held_out, acc2, top10));
    }
    write(&out_dir.join("table2.csv"), csv);
    rows
}

/// **§5.1 speedup**: mean routing runtime (measured while building the
/// ground truth) over mean inference time on the same machine.
fn speedup(config: &ExperimentConfig, datasets: &[DesignDataset], out_dir: &Path) {
    let mut model = Pix2Pix::new(config, config.seed).expect("valid config");
    println!("\n§5.1 speedup — routing runtime vs forecast inference");
    println!("design         route (ms)     place (ms)   inference (ms)   speedup");
    let mut csv = String::from("design,route_ms,place_ms,inference_ms,speedup\n");
    for ds in datasets {
        let pairs = ds.pairs.len() as f64;
        let route_ms: f64 = ds
            .pairs
            .iter()
            .map(|p| p.meta.route_micros as f64 / 1000.0)
            .sum();
        let place_ms: f64 = ds
            .pairs
            .iter()
            .map(|p| p.meta.place_micros as f64 / 1000.0)
            .sum();
        let (route_ms, place_ms) = (route_ms / pairs, place_ms / pairs);
        let n = ds.pairs.len().min(8);
        let t0 = Instant::now();
        for p in ds.pairs.iter().take(n) {
            let _ = model.forecast(&p.x);
        }
        let infer_ms = t0.elapsed().as_secs_f64() * 1000.0 / n as f64;
        let speedup = route_ms / infer_ms;
        let name = &ds.name;
        println!("{name:<10} {route_ms:>14.2} {place_ms:>14.2} {infer_ms:>16.2} {speedup:>8.1}x");
        let _ = writeln!(csv, "{name},{route_ms},{place_ms},{infer_ms},{speedup}");
    }
    write(&out_dir.join("speedup.csv"), csv);
}

/// RUDY, the analytical baseline, under the paper's metrics, beside the
/// cGAN's Acc.2 / Top10 from this run's `table2` rows.
fn baseline_rudy(
    config: &ExperimentConfig,
    datasets: &[DesignDataset],
    cgan: Option<&[(&str, f32, f32)]>,
    out_dir: &Path,
) {
    println!("\nBaseline: RUDY vs cGAN ('RUDY chan': routing-channel pixels only)");
    println!("design       RUDY acc  RUDY chan   RUDY t10 |  cGAN acc2   cGAN t10");
    let mut csv = String::from("design,rudy_acc,rudy_channel_acc,rudy_top10,calibration\n");
    for ds in datasets {
        let spec = presets::by_name(&ds.name).expect("preset");
        let report = evaluate_rudy_against(ds, &spec, config).expect("baseline eval");
        let (acc, chan, t10) = (
            report.per_pixel_accuracy,
            report.channel_accuracy,
            report.top10,
        );
        let (cg_acc, cg_t10) = cgan
            .and_then(|rows| rows.iter().find(|r| r.0 == ds.name))
            .map_or(("-".into(), "-".into()), |r| (pct(r.1), pct(r.2)));
        let [acc_pct, chan_pct, t10_pct] = [acc, chan, t10].map(pct);
        let name = &ds.name;
        println!(
            "{name:<10} {acc_pct:>10} {chan_pct:>10} {t10_pct:>10} | {cg_acc:>10} {cg_t10:>10}"
        );
        let _ = writeln!(csv, "{name},{acc},{chan},{t10},{}", report.calibration);
    }
    write(&out_dir.join("baseline_rudy.csv"), csv);
}

/// **Figure 7**: ground truth vs each variant's forecast of the last
/// OR1200 pair, held out of training. The paper's ordering is
/// `L1 + all skips > without L1 > single skip`.
fn fig7_ablation(config: &ExperimentConfig, ds: &DesignDataset, out_dir: &Path) {
    let dir = out_dir.join("fig7");
    std::fs::create_dir_all(&dir).expect("fig7 dir");
    let probe = ds.pairs.last().expect("non-empty dataset");
    let truth = tensor_to_image(&probe.y);
    truth.write_pnm(dir.join("truth.ppm")).expect("write truth");
    let congestion =
        |img: &Image| metrics::image_mean_congestion(ds.grid_width, ds.grid_height, img);

    println!(
        "\nFigure 7 — ablation heat maps on OR1200 (probe #{})",
        probe.meta.index
    );
    println!("variant         pixelAcc       MAE    SSIM   meanCong");
    let mut accs = Vec::new();
    for (name, cfg) in variants(config) {
        let mut model = Pix2Pix::new(&cfg, cfg.seed).expect("valid config");
        let _ = model.train(&ds.pairs[..ds.pairs.len() - 1], cfg.epochs);
        let pred = model.forecast_image(&probe.x);
        pred.write_pnm(dir.join(format!("{name}.ppm")))
            .expect("write");
        let acc = per_pixel_accuracy(&pred, &truth, cfg.tolerance).expect("shape");
        let err = mae(&pred, &truth).expect("shape");
        let structural = ssim(&pred, &truth, 8).expect("shape");
        let (acc_pct, cong) = (pct(acc), congestion(&pred));
        println!("{name:<14} {acc_pct:>9} {err:>9.4} {structural:>7.3} {cong:>10.4}");
        accs.push(acc);
    }
    let truth_cong = congestion(&truth);
    println!("truth                  -         -       - {truth_cong:>10.4}");
    let held = if accs[0] >= accs[2] {
        "holds"
    } else {
        "does not hold"
    };
    println!("paper ordering l1_all_skip >= single_skip on pixelAcc: {held}");
}

/// **Figure 8**: generator and discriminator loss curves of the three
/// variants on every OR1200 pair, one `epoch,g_loss,d_loss,l1` CSV each.
/// Returns the trained `l1_all_skip` model.
fn fig8_losses(config: &ExperimentConfig, ds: &DesignDataset, out_dir: &Path) -> Pix2Pix {
    println!(
        "\nFigure 8 — training-loss curves on OR1200 ({} epochs)",
        config.epochs
    );
    println!("variant           final G    final D   final L1   late noise");
    let mut l1_all_skip = None;
    for (name, cfg) in variants(config) {
        let mut model = Pix2Pix::new(&cfg, cfg.seed).expect("valid config");
        let history = model.train(&ds.pairs, cfg.epochs);
        write(&out_dir.join(format!("fig8_{name}.csv")), history.to_csv());
        let [g, d, l1] = [
            &history.generator_loss,
            &history.discriminator_loss,
            &history.l1,
        ]
        .map(|curve| curve.last().copied().unwrap_or(f32::NAN));
        let noise = history.late_noise();
        println!("{name:<14} {g:>10.4} {d:>10.4} {l1:>10.4} {noise:>12.5}");
        l1_all_skip.get_or_insert(model);
    }
    l1_all_skip.expect("three variants")
}

/// **Figure 9**: constrained exploration on `ode` — for each objective the
/// model (trained on ode's own sweep) picks a placement by predicted
/// regional congestion; the row says how that pick ranks under the ground
/// truth, and the Output / Truth images of the pick are written.
fn fig9_constrained(config: &ExperimentConfig, ds: &DesignDataset, out_dir: &Path) {
    let dir = out_dir.join("fig9");
    std::fs::create_dir_all(&dir).expect("fig9 dir");
    let mut model = Pix2Pix::new(config, config.seed).expect("valid config");
    let _ = model.train(&ds.pairs, config.epochs);
    let queries = [
        (Region::Overall, Objective::Max),
        (Region::Overall, Objective::Min),
        (Region::Upper, Objective::Min),
        (Region::Lower, Objective::Min),
        (Region::Right, Objective::Min),
    ];
    let results = constrained_exploration(&mut model, ds, &queries);

    println!(
        "\nFigure 9 — constrained exploration on ode ({} placements)",
        ds.pairs.len()
    );
    println!("objective               chosen  predicted       true  trueBest   trueRank");
    let mut csv =
        String::from("region,objective,chosen,predicted_score,true_score,true_best,true_rank\n");
    for r in &results {
        let (region, objective) = (r.region, r.objective);
        let (chosen, predicted) = (r.chosen, r.predicted_score);
        let (truth, best, rank) = (r.true_score_of_chosen, r.true_best, r.true_rank_of_chosen);
        let label = format!("{region:?}-{objective:?}");
        println!("{label:<22} {chosen:>7} {predicted:>10.4} {truth:>10.4} {best:>9} {rank:>10}");
        let _ = writeln!(
            csv,
            "{region:?},{objective:?},{chosen},{predicted},{truth},{best},{rank}"
        );
        let pair = &ds.pairs[chosen];
        let output = model.forecast_image(&pair.x);
        output
            .write_pnm(dir.join(format!("{label}_output.ppm")))
            .expect("write output");
        let truth = tensor_to_image(&pair.y);
        truth
            .write_pnm(dir.join(format!("{label}_truth.ppm")))
            .expect("write truth");
    }
    write(&out_dir.join("fig9.csv"), csv);
    let good = results.iter().filter(|r| r.true_rank_of_chosen < 5).count();
    println!(
        "{good}/{} choices rank in the true top-5 for their objective",
        results.len()
    );
}

/// **§5.2**: one raygentop model on RGB `img_place` inputs and one on
/// grayscale inputs (its own dataset), trained on the first three
/// quarters of the sweep and scored on the rest. The paper reports
/// grayscale at −3..−5 accuracy points, ≈ −20 % training and ≈ −50 %
/// inference time.
fn sec52_grayscale(
    config: &ExperimentConfig,
    rgb: &DesignDataset,
    cache_dir: &Path,
    out_dir: &Path,
) {
    let gray_config = ExperimentConfig {
        grayscale_input: true,
        ..config.clone()
    };
    let spec = presets::by_name("raygentop").expect("preset");
    let gray = build_or_load(&spec, &gray_config, Some(cache_dir)).expect("dataset");
    println!("\n§5.2 — colour scheme vs grayscale input (design: raygentop)");
    println!("input        pixelAcc    train (s)  infer (s/img)");
    let mut csv = String::from("input,acc,train_secs,infer_secs\n");
    let mut arms = Vec::new();
    for (input, config, ds) in [("rgb", config, rgb), ("grayscale", &gray_config, &gray)] {
        let (train, test) = ds.pairs.split_at((ds.pairs.len() * 3 / 4).max(1));
        let mut model = Pix2Pix::new(config, config.seed).expect("valid config");
        let t0 = Instant::now();
        let _ = model.train(train, config.epochs);
        let train_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let acc = metrics::evaluate_accuracy(&mut model, test, config.tolerance)
            .expect("model and corpus share a resolution");
        let infer_secs = t1.elapsed().as_secs_f64() / test.len().max(1) as f64;
        println!(
            "{input:<11} {:>9} {train_secs:>12.1} {infer_secs:>14.4}",
            pct(acc)
        );
        let _ = writeln!(csv, "{input},{acc},{train_secs},{infer_secs}");
        arms.push((acc, train_secs, infer_secs));
    }
    write(&out_dir.join("sec52.csv"), csv);
    let [(acc_rgb, t_rgb, i_rgb), (acc_gray, t_gray, i_gray)] = arms[..] else {
        unreachable!("two arms")
    };
    println!(
        "grayscale: accuracy {:+.1} pts (paper −3..−5), train {:+.0}% (paper ≈ −20%), \
         inference {:+.0}% (paper ≈ −50%)",
        (acc_gray - acc_rgb) * 100.0,
        (t_gray / t_rgb - 1.0) * 100.0,
        (i_gray / i_rgb - 1.0) * 100.0
    );
}

/// **§5.4 real-time forecast**: a model trained on the diffeq1 sweep
/// forecasts a fresh annealing run every 150 moves (the series the
/// paper's GIFs animate).
fn realtime(config: &ExperimentConfig, ds: &DesignDataset, out_dir: &Path) {
    let mut model = Pix2Pix::new(config, config.seed).expect("valid config");
    let _ = model.train(&ds.pairs, config.epochs);
    let spec = presets::by_name("diffeq1").expect("preset");
    let (arch, netlist, _) = design_fabric(&spec, config).expect("fabric");
    let options = PlaceOptions {
        seed: 0xF0E57,
        ..Default::default()
    };
    let forecaster = ExclusiveForecaster::new(&mut model);
    let snapshots = realtime_forecast_with(&forecaster, &arch, &netlist, &options, config, 150, 60);

    println!("\n§5.4 — real-time congestion forecast during annealing (diffeq1)");
    println!("     moves     place cost    temperature     predCong");
    let mut csv = String::from("moves,cost,temperature,predicted_mean_congestion\n");
    let snapshots = snapshots.expect("realtime forecast");
    for s in &snapshots {
        let (moves, cost, temp) = (s.moves, s.cost, s.temperature);
        let pred = s.predicted_mean_congestion;
        println!("{moves:>10} {cost:>14.1} {temp:>14.4} {pred:>12.4}");
        let _ = writeln!(csv, "{moves},{cost},{temp},{pred}");
    }
    write(&out_dir.join("realtime.csv"), csv);
    if let (Some(first), Some(last)) = (snapshots.first(), snapshots.last()) {
        let (f, l) = (
            first.predicted_mean_congestion,
            last.predicted_mean_congestion,
        );
        let trend = if l <= f { "falls" } else { "does not fall" };
        println!("predicted congestion {f:.4} -> {l:.4} as placement improves: {trend}");
    }
}

/// Congestion-aware placement (beyond the paper's evaluation, from its §1
/// motivation): ship the annealing snapshot with the lowest *predicted*
/// congestion, then route it and the congestion-blind final placement of
/// an identical annealing run to compare against ground truth. Trains the
/// OR1200 model unless `fig8_losses` already did.
fn aware_placement(
    config: &ExperimentConfig,
    ds: &DesignDataset,
    trained: Option<Pix2Pix>,
    out_dir: &Path,
) {
    let mut model = trained.unwrap_or_else(|| {
        let mut model = Pix2Pix::new(config, config.seed).expect("valid config");
        let _ = model.train(&ds.pairs, config.epochs);
        model
    });
    let spec = presets::by_name("OR1200").expect("preset");
    let (arch, netlist, _) = design_fabric(&spec, config).expect("fabric");
    let routed_mean = |placement: &Placement| {
        let routing = route(&arch, &netlist, placement, &RouteOptions::default());
        routing.expect("route").congestion().mean_utilization()
    };

    println!("\nCongestion-aware placement on OR1200 (forecast-guided snapshot selection)");
    println!("  seed    pred(sel)  pred(final)    true(sel)  true(final)  improved");
    let mut csv = String::from("seed,pred_selected,pred_final,true_selected,true_final,improved\n");
    let mut wins = 0;
    for seed in [901u64, 902, 903] {
        let opts = PlaceOptions {
            seed,
            ..Default::default()
        };
        let aware =
            congestion_aware_place(&mut model, &arch, &netlist, &opts, config, 2_000, 4_000)
                .expect("aware placement");
        let blind = place(&arch, &netlist, &opts).expect("blind placement");
        let (true_sel, true_blind) = (routed_mean(&aware.placement), routed_mean(&blind));
        let improved = true_sel <= true_blind;
        let (pred_sel, pred_final) = (aware.predicted_congestion, aware.final_predicted_congestion);
        let cells = [pred_sel, pred_final, true_sel, true_blind].map(|x| format!("{x:>12.4}"));
        println!("{seed:>6} {} {improved:>9}", cells.join(" "));
        wins += usize::from(improved);
        let _ = writeln!(
            csv,
            "{seed},{pred_sel},{pred_final},{true_sel},{true_blind},{improved}"
        );
    }
    write(&out_dir.join("aware_placement.csv"), csv);
    println!("forecast-guided selection matched or beat the blind flow on {wins}/3 runs");
}

/// **Figure 2**, the motivating example on diffeq1: (a) `img_floor`,
/// (b) `img_place`, (c) the routed wires, (d) `img_route` (the ground
/// truth) and (e) `|img_route − img_place|`, plus Figure 4's connectivity
/// images of two placements.
fn figure2(config: &ExperimentConfig, out_dir: &Path) {
    let spec = presets::by_name("diffeq1").expect("preset");
    let (arch, netlist, width) = design_fabric(&spec, config).expect("fabric");
    let dir = out_dir.join("figure2");
    std::fs::create_dir_all(&dir).expect("figure2 dir");
    let save = |file: &str, img: &Image| img.write_pnm(dir.join(file)).expect("write");
    let side = config.resolution.max(128); // keep the showcase images legible

    let placement = place(&arch, &netlist, &PlaceOptions::default()).expect("placement");
    let routing = route(&arch, &netlist, &placement, &RouteOptions::default()).expect("routing");
    let img_place = render_placement(&arch, &netlist, &placement, side);
    let img_route = render_congestion(&arch, &netlist, &placement, routing.congestion(), side);
    let wires = render_routing(&arch, &netlist, &placement, routing.routes(), side);
    let mut diff = Image::zeros(side, side, 3);
    let pixels = img_route.data().iter().zip(img_place.data());
    for (o, (a, b)) in diff.data_mut().iter_mut().zip(pixels) {
        *o = (a - b).abs();
    }
    save("a_img_floor.ppm", &render_floorplan(&arch, side));
    save("b_img_place.ppm", &img_place);
    save("c_routing_result.ppm", &wires);
    save("d_img_route.ppm", &img_route);
    save("e_difference.ppm", &diff);
    let seed42 = PlaceOptions {
        seed: 42,
        ..Default::default()
    };
    let placement_b = place(&arch, &netlist, &seed42).expect("placement 2");
    let connectivity = |p: &Placement| render_connectivity(&arch, &netlist, p, side);
    save("fig4_connectivity_a.pgm", &connectivity(&placement));
    save("fig4_connectivity_b.pgm", &connectivity(&placement_b));

    let outcome = if routing.success {
        "routing succeeded"
    } else {
        "overuse remains"
    };
    println!(
        "\nFigure 2 — motivating example (diffeq1 at scale {})",
        config.design_scale
    );
    println!(
        "grid {}x{} tiles, channel width factor {width} ({outcome}), peak utilisation {:.2}",
        arch.width(),
        arch.height(),
        routing.congestion().max_utilization()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_names_selects_every_section_in_paper_order() {
        assert_eq!(select::<&str>(&[]).unwrap(), SECTIONS);
    }

    #[test]
    fn sections_run_once_in_paper_order() {
        let picked = select(&["aware_placement", "table2", "fig8_losses", "table2"]).unwrap();
        assert_eq!(picked, ["table2", "fig8_losses", "aware_placement"]);
    }

    #[test]
    fn an_unknown_section_is_an_error_naming_the_valid_ones() {
        let err = select(&["table2", "table3"]).unwrap_err();
        assert!(err.contains("'table3'"), "{err}");
        for name in SECTIONS {
            assert!(err.contains(name), "{err} should list {name}");
        }
    }
}
