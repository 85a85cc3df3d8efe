//! The forecast-serving engine: a worker pool draining the request queue
//! in shape-coalesced batches of whatever is already queued, plus the
//! blocking client handle.

use crate::error::ServeError;
use crate::queue::{Request, RequestQueue};
use crate::stats::{PerModel, ServeStats, StatsSnapshot};
use pop_core::features::tensor_to_image;
use pop_core::{CoreError, Forecaster, InferencePlan, Pix2Pix, QuantizedForecaster};
use pop_exec::WorkerPool;
use pop_nn::Tensor;
use pop_raster::Image;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`ForecastEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Largest batch one forward pass serves (`N` of the stacked tensor).
    pub max_batch: usize,
    /// Accepted and ignored. It was the upper bound on how long a worker
    /// might hold a batch open for stragglers; the engine no longer takes
    /// that delay at all (see [`ForecastEngine`]), so every value behaves
    /// like zero. Kept only so existing struct literals still build.
    pub max_wait: Duration,
    /// Bound of the request queue — the backpressure threshold.
    pub queue_capacity: usize,
    /// Worker threads. They share one immutable copy of the weights and
    /// keep their activations to themselves, so distinct batches run
    /// genuinely in parallel.
    pub workers: usize,
    /// Artificial delay added to every forward pass — a load-shaping /
    /// testing knob simulating a slower model (leave zero in production).
    pub forward_delay: Duration,
    /// When set, requests this engine answers also feed the per-model
    /// series of that label in [`StatsSnapshot::per_model`] — the handle a
    /// multi-engine front end (one [`ServeStats`] shared via
    /// [`ForecastEngine::start_with_stats`]) uses to split traffic by
    /// model. `None` (the default) records aggregate counters only.
    pub model_label: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        EngineConfig {
            max_batch: 8,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            workers: parallelism.min(4),
            forward_delay: Duration::ZERO,
            model_label: None,
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 || self.queue_capacity == 0 || self.workers == 0 {
            return Err(ServeError::BadConfig(
                "max_batch, queue_capacity and workers must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The input geometry the engine accepts, derived from the served model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InputSpec {
    channels: usize,
    resolution: usize,
}

/// One worker's handle on the model: the engine's one f32 inference plan,
/// shared, or a clone of the i8 snapshot (the alternate replica kind).
/// Both are immutable weights forecasting through `&self` — there is no
/// per-worker trainer or activation cache to replicate.
#[derive(Debug, Clone)]
enum Replica {
    F32(Arc<InferencePlan>),
    Quantized(QuantizedForecaster),
}

impl Replica {
    fn forecast_batch(&self, xs: &[&Tensor]) -> Result<Vec<Tensor>, ServeError> {
        match self {
            Replica::F32(plan) => Ok(plan.forecast_batch(xs)),
            // Infallible for spec-checked inputs, but the trait is
            // fallible: route any error to the requests in this batch
            // instead of panicking the worker.
            Replica::Quantized(q) => q
                .forecast_batch(xs)
                .map_err(|e| ServeError::Model(e.to_string())),
        }
    }

    fn quantized(&self) -> bool {
        matches!(self, Replica::Quantized(_))
    }
}

impl InputSpec {
    fn check(&self, x: &Tensor) -> Result<(), ServeError> {
        let want = [1, self.channels, self.resolution, self.resolution];
        if x.shape() != want {
            return Err(ServeError::BadInput(format!(
                "expected shape {:?}, got {:?}",
                want,
                x.shape()
            )));
        }
        Ok(())
    }
}

/// A multi-threaded, batching forecast server over one trained
/// [`Pix2Pix`] checkpoint.
///
/// Requests submitted through [`ForecastClient`]s land in a bounded queue;
/// each worker pops the oldest request plus any shape-compatible requests
/// *already queued* (up to [`EngineConfig::max_batch`]), stacks them along
/// the batch dimension and runs one forward of the engine's
/// [`InferencePlan`] — a single copy of the generator's weights, read out
/// of the checkpoint at start and shared by every worker — which paints
/// each request's heat map into a tensor of its own.
/// Inference-mode layers treat batch elements independently, so every
/// answer is bitwise-identical to an exclusive single-request
/// [`Pix2Pix::forecast`].
///
/// Batching is work-conserving: a worker that holds a request never sleeps
/// waiting for a second one. Batches form while every worker is busy and
/// the queue backs up — the only time a fuller batch buys anything — and a
/// lone caller blocking on one forecast at a time (the §5.4 annealer) is
/// served at once. The timed straggler window this replaces lost its A/B
/// at every concurrency measured (2-vCPU host): 2 closed-loop HTTP clients
/// went 987 → 1 880 requests/s and p50 1.98 → 0.95 ms without it; 32-deep
/// in-process rounds kept their occupancy (4.9 → 5.1, it always came from
/// backlog) while queue wait per request fell 754 → 187 µs; and per-item
/// forward time is flat in the batch size (64×64: ≈ 1.9 ms at batch 1 and
/// at batch 8), so a fuller batch had nothing left to buy with the
/// ≥ 500 µs and the timer wake-up every request paid for it.
///
/// Dropping the engine closes the queue, drains already-accepted requests
/// and joins the workers.
#[derive(Debug)]
pub struct ForecastEngine {
    queue: Arc<RequestQueue>,
    stats: Arc<ServeStats>,
    spec: InputSpec,
    config: EngineConfig,
    workers: WorkerPool,
}

impl ForecastEngine {
    /// Starts an engine serving `model`'s generator as it stands: the
    /// workers share its [`Pix2Pix::plan`], and the trainer itself
    /// (discriminator, gradients, optimiser state) is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero `max_batch`,
    /// `queue_capacity` or `workers`.
    pub fn start(model: Pix2Pix, config: EngineConfig) -> Result<Self, ServeError> {
        Self::start_with_stats(model, config, Arc::new(ServeStats::default()))
    }

    /// [`ForecastEngine::start`], recording into a caller-supplied
    /// [`ServeStats`]. A front end running several engines (one per served
    /// model) shares one stats instance across all of them so a single
    /// snapshot covers the whole fleet; set
    /// [`EngineConfig::model_label`] to keep the per-model series apart.
    ///
    /// # Errors
    ///
    /// Propagates [`ForecastEngine::start`] validation failures.
    pub fn start_with_stats(
        mut model: Pix2Pix,
        config: EngineConfig,
        stats: Arc<ServeStats>,
    ) -> Result<Self, ServeError> {
        let spec = InputSpec {
            channels: model.config().input_channels(),
            resolution: model.config().resolution,
        };
        Self::start_replicas(Replica::F32(model.plan()), spec, config, stats)
    }

    /// Starts an engine over an i8 snapshot ([`QuantizedForecaster`]) — the
    /// opt-in quantized replica kind. Every worker clones the same
    /// immutable snapshot; answers land in the quantized latency series of
    /// [`StatsSnapshot`] (`p50_quant_latency_us` / `p99_quant_latency_us`).
    ///
    /// The snapshot carries no [`pop_core::ExperimentConfig`]
    /// (it is weights-only), so the serving geometry is taken from
    /// `config_hint` — pass the config the checkpoint was trained with.
    ///
    /// # Errors
    ///
    /// Propagates [`ForecastEngine::start`] validation failures.
    pub fn start_quantized(
        model: QuantizedForecaster,
        config_hint: &pop_core::ExperimentConfig,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        Self::start_quantized_with_stats(
            model,
            config_hint,
            config,
            Arc::new(ServeStats::default()),
        )
    }

    /// [`ForecastEngine::start_quantized`] over a caller-supplied
    /// [`ServeStats`] — see [`ForecastEngine::start_with_stats`].
    ///
    /// # Errors
    ///
    /// Propagates [`ForecastEngine::start`] validation failures.
    pub fn start_quantized_with_stats(
        model: QuantizedForecaster,
        config_hint: &pop_core::ExperimentConfig,
        config: EngineConfig,
        stats: Arc<ServeStats>,
    ) -> Result<Self, ServeError> {
        let spec = InputSpec {
            channels: config_hint.input_channels(),
            resolution: config_hint.resolution,
        };
        Self::start_replicas(Replica::Quantized(model), spec, config, stats)
    }

    /// Spawns the workers, each with its own clone of `replica`.
    fn start_replicas(
        replica: Replica,
        spec: InputSpec,
        config: EngineConfig,
        stats: Arc<ServeStats>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let queue = Arc::new(RequestQueue::new(config.queue_capacity));
        // Resolved here, not in the worker: the registry look-up locks.
        let per_model = config
            .model_label
            .as_deref()
            .map(|label| stats.per_model(label));
        let workers = WorkerPool::spawn("pop-serve", config.workers, |_| {
            let replica = replica.clone();
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let cfg = config.clone();
            let per_model = per_model.clone();
            move || worker_loop(replica, queue, stats, cfg, per_model)
        });
        Ok(ForecastEngine {
            queue,
            stats,
            spec,
            config,
            workers,
        })
    }

    /// A cheap cloneable handle for submitting requests.
    pub fn client(&self) -> ForecastClient {
        ForecastClient {
            queue: Arc::clone(&self.queue),
            stats: Arc::clone(&self.stats),
            spec: self.spec,
        }
    }

    /// Live telemetry.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current request-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Graceful shutdown: stops accepting requests, serves everything
    /// already queued, joins the workers and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.close_and_join();
        self.stats.snapshot()
    }

    fn close_and_join(&mut self) {
        self.queue.close();
        let _ = self.workers.join();
    }
}

impl Drop for ForecastEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(
    model: Replica,
    queue: Arc<RequestQueue>,
    stats: Arc<ServeStats>,
    cfg: EngineConfig,
    per_model: Option<PerModel>,
) {
    let quantized = model.quantized();
    // Every answer, good or bad, leaves through here: one place counts it.
    let respond = |req: Request, answer: Result<Tensor, ServeError>| {
        let latency_us = req.enqueued.elapsed().as_micros() as u64;
        stats.record_request_done(answer.is_ok(), latency_us, quantized);
        if let Some(per_model) = &per_model {
            per_model.record(answer.is_ok(), latency_us);
        }
        let _ = req.respond.send(answer);
    };
    while let Some(batch) = queue.pop_batch(cfg.max_batch) {
        let popped = Instant::now();
        for req in &batch {
            stats
                .queue_wait_us
                .record_duration(popped.saturating_duration_since(req.enqueued));
        }
        if !cfg.forward_delay.is_zero() {
            // lint: allow(blocking) — synthetic forward-delay pacing for
            // latency experiments; zero (a no-op) in production configs.
            std::thread::sleep(cfg.forward_delay);
        }
        let inputs: Vec<&Tensor> = batch.iter().map(|r| &r.input).collect();
        let _span = pop_obs::span!("serve_batch", size = batch.len());
        let started = Instant::now();
        // A panicking forward (impossible for spec-checked inputs, but the
        // model is swappable) must not wedge the whole engine: convert it
        // into per-request errors and keep serving. A forward keeps no
        // state in the replica and trusts nothing the thread's lowering
        // workspace held before (buffers lost to the unwind are regrown),
        // so the replica stays usable afterwards.
        let outputs = std::panic::catch_unwind(AssertUnwindSafe(|| model.forecast_batch(&inputs)));
        let forward_us = started.elapsed().as_micros() as u64;
        stats.record_batch(batch.len(), forward_us);
        let outputs = outputs.unwrap_or_else(|panic| {
            let msg = panic_message(&panic);
            Err(ServeError::Model(format!("forward panicked: {msg}")))
        });
        match outputs {
            Ok(outputs) => {
                for (req, out) in batch.into_iter().zip(outputs) {
                    respond(req, Ok(out));
                }
            }
            Err(err) => {
                for req in batch {
                    respond(req, Err(err.clone()));
                }
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// A pending forecast: redeem with [`PendingForecast::wait`].
#[derive(Debug)]
#[must_use = "a pending forecast does nothing until waited on"]
pub struct PendingForecast {
    rx: mpsc::Receiver<Result<Tensor, ServeError>>,
}

impl PendingForecast {
    /// Blocks until the engine answers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] when the engine terminated
    /// before answering, or the error the worker reported.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        // lint: allow(blocking) — blocking is this API's contract (client
        // side of the request-response seam); workers reach it only
        // through the `Forecaster` trait over-approximation.
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// [`PendingForecast::wait`] decoded into an image.
    ///
    /// # Errors
    ///
    /// Propagates [`PendingForecast::wait`] failures.
    pub fn wait_image(self) -> Result<Image, ServeError> {
        // lint: allow(blocking) — see `PendingForecast::wait`.
        Ok(tensor_to_image(&self.wait()?))
    }
}

/// A cheap, cloneable, thread-safe handle onto a [`ForecastEngine`].
///
/// `forecast` is the blocking request-response call the annealer callback
/// uses; `submit`/`try_submit` expose the asynchronous and backpressure
/// halves separately.
#[derive(Debug, Clone)]
pub struct ForecastClient {
    queue: Arc<RequestQueue>,
    stats: Arc<ServeStats>,
    spec: InputSpec,
}

impl ForecastClient {
    fn make_request(&self, x: &Tensor) -> Result<(Request, PendingForecast), ServeError> {
        self.spec.check(x)?;
        let (tx, rx) = mpsc::channel();
        Ok((
            Request {
                input: x.clone(),
                enqueued: Instant::now(),
                respond: tx,
            },
            PendingForecast { rx },
        ))
    }

    /// Enqueues a forecast, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for a shape the served model cannot
    /// take and [`ServeError::ShuttingDown`] after engine shutdown.
    pub fn submit(&self, x: &Tensor) -> Result<PendingForecast, ServeError> {
        let (req, pending) = self.make_request(x)?;
        self.queue.push(req)?;
        self.stats.submitted.inc();
        Ok(pending)
    }

    /// Enqueues a forecast without blocking — the backpressure-aware path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] when the bounded queue is
    /// saturated, plus every [`ForecastClient::submit`] error.
    pub fn try_submit(&self, x: &Tensor) -> Result<PendingForecast, ServeError> {
        let (req, pending) = self.make_request(x)?;
        match self.queue.try_push(req) {
            Ok(()) => {
                self.stats.submitted.inc();
                Ok(pending)
            }
            Err(e) => {
                if e == ServeError::QueueFull {
                    self.stats.rejected.inc();
                }
                Err(e)
            }
        }
    }

    /// Blocking request-response: submit, wait, decode to an image.
    ///
    /// # Errors
    ///
    /// Propagates submission and transport failures.
    pub fn forecast(&self, x: &Tensor) -> Result<Image, ServeError> {
        self.submit(x)?.wait_image()
    }

    /// Blocking request-response returning the raw `[-1, 1]` tensor.
    ///
    /// # Errors
    ///
    /// Propagates submission and transport failures.
    pub fn forecast_tensor(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        // lint: allow(blocking) — see `PendingForecast::wait`.
        self.submit(x)?.wait()
    }
}

/// The engine client plugs directly into the §5.4 applications
/// ([`pop_core::apps::realtime_forecast_with`]): an annealer thread holds a
/// `ForecastClient` while the engine batches its snapshots with everyone
/// else's traffic.
impl Forecaster for ForecastClient {
    fn forecast(&self, x: &Tensor) -> Result<Tensor, CoreError> {
        self.forecast_tensor(x)
            .map_err(|e| CoreError::Pipeline(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::ExperimentConfig;

    fn model() -> Pix2Pix {
        let config = ExperimentConfig {
            resolution: 16,
            base_filters: 4,
            depth: 3,
            ..ExperimentConfig::test()
        };
        Pix2Pix::new(&config, 21).expect("valid test config")
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Queues `inputs` behind the client's spec check, all while the one
    /// worker is still inside the (delayed) forward of a request submitted
    /// first, so they are served as one batch. Returns the answers in order.
    fn one_batch(engine: &ForecastEngine, inputs: &[Tensor]) -> Vec<Result<Tensor, ServeError>> {
        let batches = engine.stats().batches;
        let blocker = engine
            .client()
            .submit(&inputs_of(1, 900)[0])
            .expect("submit");
        while engine.queue_depth() > 0 {
            std::thread::yield_now(); // until the worker holds the blocker
        }
        let pending: Vec<PendingForecast> = inputs
            .iter()
            .map(|x| {
                let (tx, rx) = mpsc::channel();
                let request = Request {
                    input: x.clone(),
                    enqueued: Instant::now(),
                    respond: tx,
                };
                engine.queue.push(request).expect("queue open");
                PendingForecast { rx }
            })
            .collect();
        blocker.wait().expect("blocker forecast");
        let answers = pending.into_iter().map(PendingForecast::wait).collect();
        assert_eq!(
            engine.stats().batches,
            batches + 2,
            "the blocker, then one batch of {}",
            inputs.len()
        );
        answers
    }

    fn inputs_of(n: usize, seed: u64) -> Vec<Tensor> {
        (0..n as u64)
            .map(|i| Tensor::randn([1, 4, 16, 16], 0.0, 0.5, seed + i))
            .collect()
    }

    /// An engine holds the weights once: every worker's replica is a handle
    /// on the plan the model already had, not a copy of the trainer.
    #[test]
    fn workers_share_one_plan() {
        let mut trainer = model();
        let plan = trainer.plan();
        let engine = ForecastEngine::start(
            trainer,
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .expect("engine starts");
        assert_eq!(Arc::strong_count(&plan), 3, "ours and one per worker");
        let x = &inputs_of(1, 40)[0];
        let served = engine.client().forecast_tensor(x).expect("forecast");
        assert!(same_bits(&served, &plan.forward(x)));
        drop(engine);
        assert_eq!(Arc::strong_count(&plan), 1);
    }

    /// A forward that panics part-way leaves the replica — and the
    /// lowering workspace of its thread — fit for the next batch, whatever
    /// its size relative to the poisoned one.
    #[test]
    fn a_poisoned_forward_does_not_poison_the_replica() {
        let engine = ForecastEngine::start(
            model(),
            EngineConfig {
                workers: 1,
                max_batch: 8,
                forward_delay: Duration::from_millis(150),
                ..EngineConfig::default()
            },
        )
        .expect("engine starts");
        // 12x12 passes every encoder layer (12 -> 6 -> 3 -> 1) and the
        // first decoder layer, then its 2x2 map meets the 3x3 skip
        // connection: a panic four layers into the forward.
        let poison: Vec<Tensor> = (0..3)
            .map(|i| Tensor::randn([1, 4, 12, 12], 0.0, 0.5, 70 + i))
            .collect();
        for answer in one_batch(&engine, &poison) {
            match answer {
                Err(ServeError::Model(msg)) => assert!(msg.contains("forward panicked"), "{msg}"),
                other => panic!("expected a model error, got {other:?}"),
            }
        }
        // The same replica, at batch 1, then larger and smaller than the
        // poisoned batch of 3: every answer bit-equal to a fresh model's.
        let mut fresh = model();
        for (n, seed) in [(1, 300), (5, 400), (2, 500)] {
            let inputs = inputs_of(n, seed);
            for (x, answer) in inputs.iter().zip(one_batch(&engine, &inputs)) {
                let got = answer.expect("forecast after the poisoned batch");
                assert!(same_bits(&got, &fresh.forecast(x)), "batch of {n}");
            }
        }
        let stats = engine.shutdown();
        assert_eq!((stats.failed, stats.max_batch), (3, 5));
    }
}
