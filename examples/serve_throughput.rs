//! Many clients, one engine: the serving-side answer to the paper's
//! "forecasting is ~0.09 s/image while routing takes minutes" speedup
//! argument. Eight client threads share one [`ForecastEngine`]; the
//! micro-batcher coalesces their requests into batched generator forwards,
//! and the run prints achieved QPS and mean batch occupancy against a
//! sequential single-request baseline.
//!
//! Run with: `cargo run --release --example serve_throughput`

use painting_on_placement as pop;
use pop::core::{ExperimentConfig, Pix2Pix};
use pop::nn::Tensor;
use pop::serve::{EngineConfig, ForecastEngine};
use std::time::Instant;

const CLIENTS: usize = 8;
const PER_CLIENT: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 64×64 quick configuration — the bench acceptance shape. Weights
    // are untrained: throughput does not depend on what the model learned.
    let config = ExperimentConfig::quick();
    let total = CLIENTS * PER_CLIENT;
    let inputs: Vec<Tensor> = (0..total)
        .map(|s| {
            Tensor::randn(
                [
                    1,
                    config.input_channels(),
                    config.resolution,
                    config.resolution,
                ],
                0.0,
                0.5,
                s as u64,
            )
        })
        .collect();

    // Baseline: one exclusive model answering the same stream sequentially.
    let mut baseline = Pix2Pix::new(&config, 1)?;
    let t = Instant::now();
    for x in &inputs {
        let _ = baseline.forecast(x);
    }
    let seq_wall = t.elapsed();
    let seq_qps = total as f64 / seq_wall.as_secs_f64();
    println!("sequential baseline: {total} forecasts in {seq_wall:.2?} -> {seq_qps:.1} QPS");

    // The engine: the same traffic from CLIENTS concurrent threads.
    let engine = ForecastEngine::start(
        Pix2Pix::new(&config, 1)?,
        EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        },
    )?;
    let t = Instant::now();
    let handles: Vec<_> = inputs
        .chunks(PER_CLIENT)
        .map(|chunk| {
            let client = engine.client();
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                for x in &chunk {
                    client.forecast(x).expect("forecast answered");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let eng_wall = t.elapsed();
    let stats = engine.shutdown();
    let eng_qps = total as f64 / eng_wall.as_secs_f64();

    println!(
        "engine ({CLIENTS} clients):  {total} forecasts in {eng_wall:.2?} -> {eng_qps:.1} QPS"
    );
    println!(
        "batches: {} (mean occupancy {:.2}, max {}), mean latency {:.1} ms",
        stats.batches,
        stats.mean_batch_occupancy,
        stats.max_batch,
        stats.mean_latency_us / 1e3,
    );
    println!(
        "latency percentiles: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
        stats.p50_latency_us as f64 / 1e3,
        stats.p99_latency_us as f64 / 1e3,
        stats.max_latency_us as f64 / 1e3,
    );
    println!("speedup over sequential: {:.2}x", eng_qps / seq_qps);
    Ok(())
}
