//! Criterion bench: serving-engine throughput vs the sequential
//! single-request baseline on the paper-shaped 64×64 quick configuration.
//!
//! The acceptance claim of the `pop-serve` subsystem: coalescing concurrent
//! requests into one batched generator forward (`[N, C, 64, 64]`) yields
//! higher throughput than answering the same requests one `[1, C, 64, 64]`
//! forecast at a time. The win comes from the batched im2col+matmul path in
//! `pop-nn`, whose inner loops are `N×` longer on the small deep-layer
//! feature maps (see `linalg::matmul_nn`).

use criterion::{criterion_group, criterion_main, Criterion};
use pop_core::{ExperimentConfig, Pix2Pix};
use pop_nn::Tensor;
use pop_serve::{EngineConfig, ForecastEngine};

const REQUESTS: usize = 16;

fn inputs(config: &ExperimentConfig) -> Vec<Tensor> {
    (0..REQUESTS)
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
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let config = ExperimentConfig::quick(); // 64×64, the acceptance shape
    assert_eq!(config.resolution, 64);
    let xs = inputs(&config);

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    // Baseline: an exclusive model answering one request at a time.
    let mut sequential = Pix2Pix::new(&config, 1).expect("valid config");
    group.bench_function(format!("sequential_{REQUESTS}x64x64").as_str(), |b| {
        b.iter(|| {
            let mut last = None;
            for x in &xs {
                last = Some(sequential.forecast(x));
            }
            last
        })
    });

    // The engine: the same requests submitted together; they back up
    // behind the one worker and are coalesced into batched forwards.
    let engine = ForecastEngine::start(
        Pix2Pix::new(&config, 1).expect("valid config"),
        EngineConfig {
            max_batch: 8,
            workers: 1, // single-core container: the win is batching, not threads
            ..EngineConfig::default()
        },
    )
    .expect("engine starts");
    let client = engine.client();
    group.bench_function(format!("engine_batched_{REQUESTS}x64x64").as_str(), |b| {
        b.iter(|| {
            let pending: Vec<_> = xs
                .iter()
                .map(|x| client.submit(x).expect("queue accepts"))
                .collect();
            pending
                .into_iter()
                .map(|p| p.wait().expect("engine answers"))
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    let stats = engine.shutdown();
    println!(
        "engine served {} requests in {} batches (mean occupancy {:.2}, max {}), \
         mean latency {:.1} ms",
        stats.completed,
        stats.batches,
        stats.mean_batch_occupancy,
        stats.max_batch,
        stats.mean_latency_us / 1e3,
    );
    println!(
        "engine latency percentiles: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
        stats.p50_latency_us as f64 / 1e3,
        stats.p99_latency_us as f64 / 1e3,
        stats.max_latency_us as f64 / 1e3,
    );
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
