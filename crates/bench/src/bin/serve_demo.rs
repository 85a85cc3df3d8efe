//! Serving-engine driver: checkpoint → registry → engine → concurrent
//! clients, printing throughput, latency and batch-occupancy telemetry.
//!
//! Exercises the whole `pop-serve` stack the way a deployment would: a
//! model is trained briefly, checkpointed to disk, loaded back through the
//! LRU [`ModelRegistry`], served by a [`ForecastEngine`], and queried by
//! several client threads at once — including one running the §5.4
//! real-time forecast app through the engine.
//!
//! Run with: `cargo run --release -p pop-bench --bin serve_demo`
//! (`POP_SCALE=test|quick` selects the model scale.)

use pop_bench::config_from_env;
use pop_core::apps::realtime_forecast_with;
use pop_core::{dataset, model_io, Pix2Pix};
use pop_netlist::presets;
use pop_nn::Tensor;
use pop_place::PlaceOptions;
use pop_serve::{EngineConfig, ForecastEngine, ModelRegistry};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = config_from_env();
    let spec = presets::by_name("diffeq1").expect("preset exists");

    println!(
        "training a {}x{} forecaster...",
        config.resolution, config.resolution
    );
    let ds = dataset::build_design_dataset(&spec, &config)?;
    let mut model = Pix2Pix::new(&config, 17)?;
    let _ = model.train(&ds.pairs, config.epochs.min(2));

    // Checkpoint → registry → engine: the deployment path.
    let ckpt = std::env::temp_dir().join("pop_serve_demo/model.ckpt");
    model_io::save_model(&mut model, &ckpt)?;
    let registry = ModelRegistry::new(4);
    let shared = registry.get_or_load(&config, &ckpt)?;
    println!("checkpoint {} loaded through the registry", ckpt.display());

    let engine = ForecastEngine::start_shared(
        &shared,
        EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
    )?;

    // Concurrent clients: raw forecast traffic plus the §5.4 realtime app.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 24;
    let started = Instant::now();
    let traffic: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = engine.client();
            let config = config.clone();
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let x = Tensor::randn(
                        [
                            1,
                            config.input_channels(),
                            config.resolution,
                            config.resolution,
                        ],
                        0.0,
                        0.5,
                        (t * PER_CLIENT + i) as u64,
                    );
                    client.forecast(&x).expect("forecast answered");
                }
            })
        })
        .collect();

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
        500,
        8,
    )?;

    for t in traffic {
        t.join().expect("client thread");
    }
    let wall = started.elapsed();
    let stats = engine.shutdown();

    println!(
        "\n{} forecasts ({} raw + {} realtime-app) in {:.2}s -> {:.1} QPS",
        stats.completed,
        CLIENTS * PER_CLIENT,
        snapshots.len(),
        wall.as_secs_f64(),
        stats.completed as f64 / wall.as_secs_f64(),
    );
    println!(
        "batches: {} (mean occupancy {:.2}, max {}), latency mean {:.1} ms / max {:.1} ms",
        stats.batches,
        stats.mean_batch_occupancy,
        stats.max_batch,
        stats.mean_latency_us / 1e3,
        stats.max_latency_us as f64 / 1e3,
    );
    println!(
        "realtime app saw congestion {:.4} -> {:.4} over {} snapshots",
        snapshots
            .first()
            .map(|s| s.predicted_mean_congestion)
            .unwrap_or(0.0),
        snapshots
            .last()
            .map(|s| s.predicted_mean_congestion)
            .unwrap_or(0.0),
        snapshots.len(),
    );
    let _ = std::fs::remove_file(&ckpt);
    Ok(())
}
