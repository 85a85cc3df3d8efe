//! `pop-serve` — a batched congestion-forecast serving engine.
//!
//! The paper's headline application is congestion forecasting fast enough
//! to run *inside* the placement loop (§5.4). A production deployment of
//! that idea serves many concurrent forecast streams — one per annealer,
//! per design-space-exploration worker, per user — against a handful of
//! trained checkpoints. This crate is the architectural seam for that
//! scale-out:
//!
//! The queue/pool machinery itself lives in the shared `pop-exec` crate
//! (the data-generation pipeline runs on the same substrate); this crate
//! adds the forecast-serving semantics on top:
//!
//! * [`ForecastEngine`] — a worker pool over a **bounded request queue**
//!   with a **work-conserving batcher**: each worker pops the oldest
//!   request plus up to [`EngineConfig::max_batch`] shape-compatible
//!   requests that are *already queued* — it never sleeps holding a
//!   request, so batches form exactly when workers are busy and the queue
//!   backs up — and runs them through
//!   **one** forward of the generator's inference plan
//!   ([`pop_core::InferencePlan`]: one copy of the weights per engine,
//!   shared by every worker), which reads each request from, and paints
//!   its heat map into, a tensor of its own.
//!   Inference-mode layers treat batch elements independently, so
//!   every answer is bitwise-identical to an exclusive
//!   [`Pix2Pix::forecast`](pop_core::Pix2Pix::forecast) call.
//! * [`ForecastClient`] — the cheap, cloneable blocking handle:
//!   [`forecast`](ForecastClient::forecast) for request-response,
//!   [`submit`](ForecastClient::submit) /
//!   [`try_submit`](ForecastClient::try_submit) for pipelined use with
//!   explicit backpressure ([`ServeError::QueueFull`]). A blocking
//!   forecast that finds the queue open and empty **runs on the thread
//!   that asked** (at most `workers` callers at once; counted in
//!   `serve.caller_runs`): a lone request has no batch to join, so the
//!   hand-off to a worker and back would be pure overhead. It implements
//!   [`pop_core::Forecaster`], so
//!   [`pop_core::apps::realtime_forecast_with`] can run the §5.4 demo
//!   through the engine unchanged — one caller, one snapshot at a time,
//!   which is exactly that regime.
//! * [`StatsSnapshot`] — per-request latency plus aggregate throughput /
//!   batch-occupancy counters, computed from the named `serve.*` series of
//!   the engine's own [`ServeStats`] registry.
//!
//! # Example
//!
//! ```
//! use pop_core::{ExperimentConfig, Pix2Pix};
//! use pop_nn::Tensor;
//! use pop_serve::{EngineConfig, ForecastEngine};
//!
//! let config = ExperimentConfig { resolution: 16, base_filters: 4, depth: 3,
//!                                 ..ExperimentConfig::test() };
//! let model = Pix2Pix::new(&config, 1)?;
//! let engine = ForecastEngine::start(model, EngineConfig::default())?;
//! let client = engine.client();
//!
//! let x = Tensor::randn([1, config.input_channels(), 16, 16], 0.0, 0.5, 7);
//! let heat = client.forecast(&x)?;
//! assert_eq!(heat.width(), 16);
//!
//! let stats = engine.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod engine;
mod error;
mod queue;
mod stats;

pub use engine::{EngineConfig, ForecastClient, ForecastEngine, PendingForecast};
pub use error::ServeError;
pub use stats::{ModelStatsSnapshot, ServeStats, StatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::{ExperimentConfig, Forecaster, Pix2Pix};
    use pop_nn::Tensor;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            resolution: 16,
            base_filters: 4,
            depth: 3,
            ..ExperimentConfig::test()
        }
    }

    fn tiny_model(seed: u64) -> Pix2Pix {
        Pix2Pix::new(&tiny_config(), seed).unwrap()
    }

    fn input(seed: u64) -> Tensor {
        Tensor::randn([1, tiny_config().input_channels(), 16, 16], 0.0, 0.5, seed)
    }

    #[test]
    fn batched_engine_matches_sequential_forecasts() {
        // The acceptance gate: an N>=4 batched pass through the engine
        // returns the same images as exclusive sequential calls.
        let mut reference = tiny_model(3);
        let xs: Vec<Tensor> = (0..6).map(|s| input(100 + s)).collect();
        let expected: Vec<_> = xs.iter().map(|x| reference.forecast_image(x)).collect();

        let engine = ForecastEngine::start(
            tiny_model(3),
            EngineConfig {
                max_batch: 8,
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        // Submit everything first so the batcher can coalesce, then wait.
        let pending: Vec<_> = xs.iter().map(|x| client.submit(x).unwrap()).collect();
        let got: Vec<_> = pending
            .into_iter()
            .map(|p| p.wait_image().unwrap())
            .collect();
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g, e);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
        assert!(stats.mean_batch_occupancy >= 1.0);
    }

    #[test]
    fn concurrent_identical_submissions_are_deterministic() {
        let engine = ForecastEngine::start(
            tiny_model(5),
            EngineConfig {
                max_batch: 4,
                workers: 3,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let x = input(42);
        let expected = engine.client().forecast(&x).unwrap();
        let barrier = Arc::new(Barrier::new(6));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let client = engine.client();
                let x = x.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    for _ in 0..4 {
                        out.push(client.forecast(&x).unwrap());
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for img in h.join().unwrap() {
                assert_eq!(img, expected, "every thread sees identical forecasts");
            }
        }
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 25);
    }

    #[test]
    fn try_submit_bounces_when_saturated_and_submit_blocks() {
        // One slow worker (500 ms per forward) guarantees the queue fills:
        // r0 is in flight, r1/r2 occupy the two queue slots, r3 must bounce.
        let engine = ForecastEngine::start(
            tiny_model(6),
            EngineConfig {
                max_batch: 1,
                queue_capacity: 2,
                workers: 1,
                forward_delay: Duration::from_millis(500),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let x = input(1);
        let p0 = client.try_submit(&x).unwrap();
        // Give the worker time to take r0 out of the queue.
        while engine.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let p1 = client.try_submit(&x).unwrap();
        let p2 = client.try_submit(&x).unwrap();
        let err = client.try_submit(&x).unwrap_err();
        assert_eq!(err, ServeError::QueueFull);
        assert_eq!(engine.stats().rejected, 1);
        // The blocking path rides out the backpressure instead.
        let p3 = client.submit(&x).unwrap();
        for p in [p0, p1, p2, p3] {
            p.wait_image().unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn micro_batcher_coalesces_under_load() {
        // While the single worker sleeps through the first forward, four
        // more requests arrive; they must be served as one batch.
        let engine = ForecastEngine::start(
            tiny_model(7),
            EngineConfig {
                max_batch: 8,
                queue_capacity: 16,
                workers: 1,
                forward_delay: Duration::from_millis(300),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let x = input(2);
        let first = client.submit(&x).unwrap();
        while engine.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let rest: Vec<_> = (0..4).map(|_| client.submit(&x).unwrap()).collect();
        first.wait().unwrap();
        for p in rest {
            p.wait().unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.batches, 2, "r0 alone, then the coalesced four");
        assert_eq!(stats.max_batch, 4);
        assert!((stats.mean_batch_occupancy - 2.5).abs() < 1e-9);
    }

    #[test]
    fn a_lone_forecast_never_waits_for_stragglers() {
        // `max_wait` is accepted and ignored: ten seconds of it must not
        // delay a lone blocking forecast, and a value whose deadline would
        // overflow `Instant` must not kill the worker.
        for max_wait in [Duration::from_secs(10), Duration::MAX] {
            let engine = ForecastEngine::start(
                tiny_model(13),
                EngineConfig {
                    max_wait,
                    workers: 1,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let started = std::time::Instant::now();
            engine.client().forecast(&input(9)).unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "lone forecast took {:?} with max_wait {max_wait:?}",
                started.elapsed()
            );
            let stats = engine.shutdown();
            assert_eq!((stats.completed, stats.failed), (1, 0));
        }
    }

    #[test]
    fn a_lone_blocking_forecast_runs_on_its_caller() {
        let engine = ForecastEngine::start(
            tiny_model(16),
            EngineConfig {
                workers: 1,
                forward_delay: Duration::from_millis(100),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let x = input(11);
        let caller = std::thread::spawn(move || client.forecast_tensor(&x).unwrap());
        // Accepted, and from then until it is answered nothing is queued:
        // the forward is running on the thread that asked.
        while engine.stats().submitted == 0 {
            std::thread::yield_now();
        }
        while !caller.is_finished() {
            assert_eq!(engine.queue_depth(), 0);
            std::thread::yield_now();
        }
        let mut reference = tiny_model(16);
        assert_eq!(caller.join().unwrap(), reference.forecast(&input(11)));
        let stats = engine.shutdown();
        assert_eq!((stats.submitted, stats.caller_runs), (1, 1));
        assert_eq!((stats.completed, stats.batches, stats.max_batch), (1, 1, 1));
    }

    #[test]
    fn a_blocking_forecast_joins_the_queue_behind_backlog() {
        // The worker is inside a delayed forward and two requests wait: a
        // blocking forecast must queue behind them and be batched with
        // them, not run beside the backlog.
        let engine = ForecastEngine::start(
            tiny_model(17),
            EngineConfig {
                workers: 1,
                forward_delay: Duration::from_millis(300),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let x = input(12);
        let first = client.submit(&x).unwrap();
        while engine.queue_depth() > 0 {
            std::thread::yield_now(); // until the worker holds it
        }
        let queued: Vec<_> = (0..2).map(|_| client.submit(&x).unwrap()).collect();
        let blocking = client.forecast_tensor(&x).unwrap();
        assert_eq!(first.wait().unwrap(), blocking);
        for p in queued {
            assert_eq!(p.wait().unwrap(), blocking);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.caller_runs, 0);
        assert_eq!((stats.completed, stats.batches, stats.max_batch), (4, 2, 3));
    }

    #[test]
    fn shutdown_waits_for_a_caller_run_forecast_then_the_blocking_path_refuses() {
        let engine = ForecastEngine::start(
            tiny_model(18),
            EngineConfig {
                workers: 1,
                forward_delay: Duration::from_millis(200),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let x = input(13);
        let caller = {
            let (client, x) = (client.clone(), x.clone());
            std::thread::spawn(move || client.forecast_tensor(&x))
        };
        while engine.stats().submitted == 0 {
            std::thread::yield_now(); // until the caller is inside its forward
        }
        let stats = engine.shutdown();
        assert_eq!((stats.caller_runs, stats.completed), (1, 1), "counted");
        caller.join().unwrap().expect("answered, not abandoned");
        assert_eq!(client.forecast_tensor(&x), Err(ServeError::ShuttingDown));
        assert_eq!(
            client.try_forecast_tensor(&x),
            Err(ServeError::ShuttingDown)
        );
        assert!(matches!(client.forecast(&x), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn engine_reports_queue_wait_and_batch_size() {
        // The series live in the engine's own registry, so other tests
        // serving forecasts beside this one cannot move them.
        let stats = Arc::new(ServeStats::default());
        let engine = ForecastEngine::start_with_stats(
            tiny_model(14),
            EngineConfig::default(),
            stats.clone(),
        )
        .unwrap();
        engine.client().forecast(&input(10)).unwrap();
        engine.shutdown();
        let snap = stats.registry().snapshot();
        let count = |name: &str| snap.histogram(name).map(|h| h.count);
        assert_eq!(count("serve.queue_wait_us"), Some(1), "one per request");
        assert_eq!(count("serve.batch_size"), Some(1), "one per batch");
        assert_eq!(count("serve.forward_us"), Some(1), "one per batch");
    }

    #[test]
    fn forecasts_never_reach_the_join_helper() {
        // `pop_exec::join` is the trainer's: inference must neither fork
        // nor look for the helper. No test of this crate trains, so the
        // process-wide counters stay where a serving process keeps them.
        let engine = ForecastEngine::start(
            tiny_model(15),
            EngineConfig {
                max_batch: 4,
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let pending: Vec<_> = (0..300)
            .map(|i| client.submit(&input(i)).unwrap())
            .collect();
        for p in pending {
            p.wait_image().unwrap();
        }
        assert_eq!(engine.shutdown().completed, 300);
        let snap = pop_obs::global().snapshot();
        for name in ["exec.join.forked", "exec.join.inline"] {
            assert_eq!(snap.counter(name).unwrap_or(0), 0, "{name}");
        }
    }

    #[test]
    fn bad_input_is_rejected_before_queueing() {
        let engine = ForecastEngine::start(tiny_model(8), EngineConfig::default()).unwrap();
        let client = engine.client();
        let wrong_res = Tensor::zeros([1, 4, 8, 8]);
        assert!(matches!(
            client.forecast(&wrong_res),
            Err(ServeError::BadInput(_))
        ));
        let wrong_batch = Tensor::zeros([2, 4, 16, 16]);
        assert!(matches!(
            client.try_submit(&wrong_batch),
            Err(ServeError::BadInput(_))
        ));
        assert_eq!(engine.stats().submitted, 0);
    }

    #[test]
    fn shutdown_drains_accepted_requests_then_rejects() {
        let engine = ForecastEngine::start(
            tiny_model(9),
            EngineConfig {
                workers: 1,
                forward_delay: Duration::from_millis(50),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let x = input(3);
        let pending: Vec<_> = (0..3).map(|_| client.submit(&x).unwrap()).collect();
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 3, "accepted requests are served");
        for p in pending {
            p.wait().unwrap();
        }
        assert!(matches!(client.submit(&x), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn client_serves_the_realtime_app_through_the_forecaster_trait() {
        let engine = ForecastEngine::start(tiny_model(10), EngineConfig::default()).unwrap();
        let client = engine.client();
        let x = input(4);
        let via_trait = Forecaster::forecast(&client, &x).unwrap();
        assert_eq!(via_trait, client.forecast_tensor(&x).unwrap());
    }

    #[test]
    fn quantized_engine_serves_the_snapshot_and_feeds_quant_stats() {
        // The alternate replica kind end-to-end: a quantized engine must
        // answer exactly what the snapshot answers directly, and its
        // requests must land in the quantized latency series.
        let model = tiny_model(11);
        let quant = model.quantized();
        let xs: Vec<Tensor> = (0..5).map(|s| input(200 + s)).collect();
        let expected: Vec<Tensor> = xs
            .iter()
            .map(|x| Forecaster::forecast(&quant, x).unwrap())
            .collect();

        let engine = ForecastEngine::start_quantized(
            quant,
            model.config(),
            EngineConfig {
                max_batch: 8,
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let client = engine.client();
        let pending: Vec<_> = xs.iter().map(|x| client.submit(x).unwrap()).collect();
        for (p, want) in pending.into_iter().zip(&expected) {
            assert_eq!(&p.wait().unwrap(), want);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 5);
        assert_eq!(
            stats.quant_completed, 5,
            "all answers came from i8 replicas"
        );
        assert!(stats.p50_quant_latency_us > 0);
        assert!(stats.p99_quant_latency_us >= stats.p50_quant_latency_us);
    }

    #[test]
    fn f32_engine_leaves_quant_stats_empty() {
        let engine = ForecastEngine::start(tiny_model(12), EngineConfig::default()).unwrap();
        engine.client().forecast(&input(7)).unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.quant_completed, 0);
        assert_eq!(stats.p50_quant_latency_us, 0);
    }
}
