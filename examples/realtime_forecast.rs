//! Real-time congestion forecasting during placement (the paper's §5.4
//! demo): the annealer runs, and every few thousand moves the cGAN paints
//! the expected routing heat map of the *current*, still-moving placement.
//!
//! The forecasts are served through a `pop-serve` engine: the annealer loop
//! only holds a cheap [`ForecastClient`](pop::serve::ForecastClient), so
//! any number of concurrent placement runs could share the model while the
//! micro-batcher coalesces their requests. This one runs alone, so every
//! forecast finds the queue empty and runs on the annealer's own thread.
//!
//! Run with: `cargo run --release --example realtime_forecast`

use painting_on_placement as pop;
use pop::core::apps::realtime_forecast_with;
use pop::core::{dataset, ExperimentConfig, Pix2Pix};
use pop::netlist::presets;
use pop::place::PlaceOptions;
use pop::serve::{EngineConfig, ForecastEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ExperimentConfig {
        pairs_per_design: 8,
        epochs: 6,
        ..ExperimentConfig::test()
    };
    let spec = presets::by_name("diffeq1").expect("preset exists");
    let ds = dataset::build_design_dataset(&spec, &config)?;
    let mut model = Pix2Pix::new(&config, 17)?;
    let _ = model.train(&ds.pairs, config.epochs);

    let engine = ForecastEngine::start(model, EngineConfig::default())?;

    let (arch, netlist, _) = dataset::design_fabric(&spec, &config)?;
    let snapshots = realtime_forecast_with(
        &engine.client(),
        &arch,
        &netlist,
        &PlaceOptions {
            seed: 99,
            ..Default::default()
        },
        &config,
        100, // forecast every 100 annealing moves
        25,
    )?;

    println!("\nforecasting while the design is being placed:");
    println!(
        "{:>9} {:>13} {:>13} {:>10}",
        "moves", "place cost", "temperature", "predCong"
    );
    for s in &snapshots {
        let bar_len = (s.predicted_mean_congestion * 60.0).round() as usize;
        println!(
            "{:>9} {:>13.1} {:>13.4} {:>10.4} {}",
            s.moves,
            s.cost,
            s.temperature,
            s.predicted_mean_congestion,
            "#".repeat(bar_len.min(60)),
        );
    }
    println!(
        "\n{} snapshots — predicted congestion falls as the annealer optimises.",
        snapshots.len()
    );
    let stats = engine.shutdown();
    println!(
        "served {} forecasts in {} batches, {} on this thread (mean latency {:.1} ms)",
        stats.completed,
        stats.batches,
        stats.caller_runs,
        stats.mean_latency_us / 1e3
    );
    Ok(())
}
