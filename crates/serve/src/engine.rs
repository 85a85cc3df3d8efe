//! The forecast-serving engine: a worker pool draining the request queue
//! in shape-coalesced batches of whatever is already queued, plus the
//! blocking client handle, which runs a forecast itself when none is.

use crate::error::ServeError;
use crate::queue::{Request, RequestQueue};
use crate::stats::{PerModel, ServeStats, StatsSnapshot};
use pop_core::features::tensor_to_image;
use pop_core::{CoreError, Forecaster, InferencePlan, Pix2Pix, QuantizedForecaster};
use pop_exec::WorkerPool;
use pop_nn::Tensor;
use pop_raster::Image;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
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
    /// genuinely in parallel. As many blocking forecasts may run on their
    /// callers' threads (see [`ForecastEngine`]).
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

/// The engine's handle on the model, its f32 inference plan or the i8
/// snapshot: immutable weights, `&self` forecasts, one for all threads.
#[derive(Debug)]
enum Replica {
    F32(Arc<InferencePlan>),
    Quantized(QuantizedForecaster),
}

impl Replica {
    fn forecast_batch(&self, xs: &[&Tensor]) -> Vec<Tensor> {
        match self {
            // By path: pop-lint resolves a method on a pattern binding by
            // name alone, and blocking `Forecaster`s share this one.
            Replica::F32(plan) => InferencePlan::forecast_batch(plan, xs),
            Replica::Quantized(q) => q.forecast_stacked(xs),
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
/// the queue backs up, which is when a fuller batch pays: a forward of
/// eight costs about two thirds of eight forwards of one (quick model,
/// `BENCH_kernels.json`: 882 against 1 340 µs per image). A timed
/// straggler window lost its A/B at every concurrency measured (README,
/// "Serving over HTTP"): occupancy always came from backlog.
///
/// A *blocking* forecast ([`ForecastClient::forecast`], `forecast_tensor`,
/// `try_forecast_tensor`, the [`Forecaster`] impl) that finds the queue
/// open and empty runs the plan on the thread that asked, as a batch of
/// one: there is no batch to join, and the hand-off to a worker and back
/// cost two thread wake-ups, an input copy and a channel (32×32 model:
/// 134 µs around a 166 µs forward). At most [`EngineConfig::workers`]
/// callers do so at once; the next one, and everyone while anything is
/// queued, takes the queue, so batching from backlog, `QueueFull` and
/// shutdown are as they were and at most `2 × workers` forwards are in
/// flight. `submit` / `try_submit` always queue.
///
/// Shutdown (or drop) closes the queue, drains accepted requests, joins
/// the workers and waits for forecasts still running on their callers.
#[derive(Debug)]
pub struct ForecastEngine {
    shared: Arc<Shared>,
    workers: WorkerPool,
}

/// What an engine's workers and clients share.
#[derive(Debug)]
struct Shared {
    replica: Replica,
    spec: InputSpec,
    queue: RequestQueue,
    stats: Arc<ServeStats>,
    /// Resolved at start, not per batch: the registry look-up locks.
    per_model: Option<PerModel>,
    config: EngineConfig,
    /// Forecasts running on their callers' threads; workers never touch it.
    callers: Mutex<usize>,
    /// Signalled when `callers` falls, for shutdown.
    callers_done: Condvar,
}

/// A caller's admission to run its own forecast, given back on drop.
struct CallerTurn<'a>(&'a Shared);

impl Drop for CallerTurn<'_> {
    fn drop(&mut self) {
        *self.0.callers() -= 1;
        self.0.callers_done.notify_all();
    }
}

impl Shared {
    fn callers(&self) -> MutexGuard<'_, usize> {
        // A bare count: valid wherever a panicking holder left it.
        self.callers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits the calling thread to run one forecast itself: fewer than
    /// `workers` callers are, and the queue is open and empty. The turn is
    /// taken *before* that look, so a shutdown closing the queue after it
    /// finds the turn held and waits.
    fn caller_turn(&self) -> Option<CallerTurn<'_>> {
        let mut callers = self.callers();
        if *callers >= self.config.workers {
            return None;
        }
        *callers += 1;
        drop(callers);
        self.queue.is_open_and_empty().then_some(CallerTurn(self))
    }

    /// Serves one batch on the calling thread — a worker's, or a caller's
    /// with a batch of one: one forward over `inputs`, one answer per
    /// request, each counted here (with the queue wait and latency from its
    /// `enqueued` time) before anyone can see it.
    fn serve_batch(
        &self,
        inputs: &[&Tensor],
        enqueued: impl Iterator<Item = Instant> + Clone,
    ) -> Vec<Result<Tensor, ServeError>> {
        let taken = Instant::now();
        for at in enqueued.clone() {
            let waited = taken.saturating_duration_since(at);
            self.stats.queue_wait_us.record_duration(waited);
        }
        if !self.config.forward_delay.is_zero() {
            // lint: allow(blocking) — synthetic forward-delay pacing for
            // latency experiments; zero (a no-op) in production configs.
            std::thread::sleep(self.config.forward_delay);
        }
        let _span = pop_obs::span!("serve_batch", size = inputs.len());
        let started = Instant::now();
        // A panicking forward (impossible for spec-checked inputs, but the
        // model is swappable) becomes per-request errors. A forward keeps no
        // state in the replica and trusts nothing the thread's lowering
        // workspace held before (buffers lost to the unwind are regrown),
        // so the replica and the thread — a caller's too — stay usable.
        let outputs =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.replica.forecast_batch(inputs)));
        let forward_us = started.elapsed().as_micros() as u64;
        self.stats.record_batch(inputs.len(), forward_us);
        let (ok, quantized) = (outputs.is_ok(), self.replica.quantized());
        for at in enqueued {
            let latency_us = at.elapsed().as_micros() as u64;
            self.stats.record_request_done(ok, latency_us, quantized);
            if let Some(per_model) = &self.per_model {
                per_model.record(ok, latency_us);
            }
        }
        match outputs {
            Ok(outputs) => outputs.into_iter().map(Ok).collect(),
            Err(panic) => {
                let msg = format!("forward panicked: {}", panic_message(&panic));
                vec![Err(ServeError::Model(msg)); inputs.len()]
            }
        }
    }
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
        Self::start_replica(Replica::F32(model.plan()), spec, config, stats)
    }

    /// Starts an engine over an i8 snapshot ([`QuantizedForecaster`]) — the
    /// opt-in quantized replica kind. Every worker reads the same
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
        Self::start_replica(Replica::Quantized(model), spec, config, stats)
    }

    /// Spawns the workers over the one `replica`.
    fn start_replica(
        replica: Replica,
        spec: InputSpec,
        config: EngineConfig,
        stats: Arc<ServeStats>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let shared = Arc::new(Shared {
            replica,
            spec,
            queue: RequestQueue::new(config.queue_capacity),
            per_model: config.model_label.as_deref().map(|l| stats.per_model(l)),
            stats,
            config,
            callers: Mutex::new(0),
            callers_done: Condvar::new(),
        });
        let workers = WorkerPool::spawn("pop-serve", shared.config.workers, |_| {
            let shared = Arc::clone(&shared);
            move || worker_loop(&shared)
        });
        Ok(ForecastEngine { shared, workers })
    }

    /// A cheap cloneable handle for submitting requests.
    pub fn client(&self) -> ForecastClient {
        ForecastClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live telemetry.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// Current request-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Graceful shutdown: stops accepting requests, answers every accepted
    /// one, joins the workers and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.close_and_join();
        self.shared.stats.snapshot()
    }

    fn close_and_join(&mut self) {
        self.shared.queue.close();
        let _ = self.workers.join();
        let callers = self.shared.callers();
        drop(self.shared.callers_done.wait_while(callers, |n| *n > 0));
    }
}

impl Drop for ForecastEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(batch) = shared.queue.pop_batch(shared.config.max_batch) {
        let inputs: Vec<&Tensor> = batch.iter().map(|r| &r.input).collect();
        let answers = shared.serve_batch(&inputs, batch.iter().map(|r| r.enqueued));
        for (req, answer) in batch.into_iter().zip(answers) {
            let _ = req.respond.send(answer);
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
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// [`PendingForecast::wait`] decoded into an image.
    ///
    /// # Errors
    ///
    /// Propagates [`PendingForecast::wait`] failures.
    pub fn wait_image(self) -> Result<Image, ServeError> {
        Ok(tensor_to_image(&self.wait()?))
    }
}

/// A cheap, cloneable, thread-safe handle onto a [`ForecastEngine`].
///
/// `forecast` is the blocking request-response call the annealer callback
/// uses (run on the calling thread when the engine has no backlog — see
/// [`ForecastEngine`]); `submit`/`try_submit` expose the asynchronous and
/// backpressure halves separately and always queue.
#[derive(Debug, Clone)]
pub struct ForecastClient {
    shared: Arc<Shared>,
}

impl ForecastClient {
    fn make_request(&self, x: &Tensor) -> Result<(Request, PendingForecast), ServeError> {
        self.shared.spec.check(x)?;
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
        self.shared.queue.push(req)?;
        self.shared.stats.submitted.inc();
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
        match self.shared.queue.try_push(req) {
            Ok(()) => {
                self.shared.stats.submitted.inc();
                Ok(pending)
            }
            Err(e) => {
                if e == ServeError::QueueFull {
                    self.shared.stats.rejected.inc();
                }
                Err(e)
            }
        }
    }

    /// One forecast, start to answer: on this thread when admitted (see
    /// [`ForecastEngine`]), otherwise through the queue by way of `queue`.
    fn forecast_via(
        &self,
        x: &Tensor,
        queue: fn(&Self, &Tensor) -> Result<PendingForecast, ServeError>,
    ) -> Result<Tensor, ServeError> {
        let shared = &*self.shared;
        let Some(_turn) = shared.caller_turn() else {
            return queue(self, x)?.wait();
        };
        shared.spec.check(x)?;
        shared.stats.submitted.inc();
        shared.stats.caller_runs.inc();
        let mut answers = shared.serve_batch(&[x], std::iter::once(Instant::now()));
        answers.pop().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Blocking request-response, decoded to an image.
    ///
    /// # Errors
    ///
    /// Propagates [`ForecastClient::forecast_tensor`] failures.
    pub fn forecast(&self, x: &Tensor) -> Result<Image, ServeError> {
        Ok(tensor_to_image(&self.forecast_tensor(x)?))
    }

    /// Blocking request-response returning the raw `[-1, 1]` tensor.
    ///
    /// # Errors
    ///
    /// Every [`ForecastClient::submit`] error, and [`ServeError::Model`]
    /// for a forward that failed.
    pub fn forecast_tensor(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        self.forecast_via(x, Self::submit)
    }

    /// [`ForecastClient::forecast_tensor`] for a front end with its own
    /// backpressure answer: it never waits for queue space.
    ///
    /// # Errors
    ///
    /// As `forecast_tensor`, and [`ServeError::QueueFull`] (a rejection).
    pub fn try_forecast_tensor(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        self.forecast_via(x, Self::try_submit)
    }
}

/// The engine client plugs directly into the §5.4 applications
/// ([`pop_core::apps::realtime_forecast_with`]): an annealer thread holds a
/// `ForecastClient`, runs its own snapshots while the engine is idle and
/// has them batched with everyone else's traffic when it is not.
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
                engine.shared.queue.push(request).expect("queue open");
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

    /// An engine holds the weights once: workers and callers run the plan
    /// the model already had through one shared handle, not a copy of the
    /// trainer.
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
        // One per worker until workers and clients came to share one
        // `Replica`: a caller-run forecast needs the handle too.
        assert_eq!(Arc::strong_count(&plan), 2, "ours and the engine's");
        let x = &inputs_of(1, 40)[0];
        let served = engine.client().forecast_tensor(x).expect("forecast");
        assert!(same_bits(&served, &plan.forward(x)));
        drop(engine);
        assert_eq!(Arc::strong_count(&plan), 1);
    }

    /// Callers hold at most `workers` turns, a forecast that finds none
    /// free queues, and however many threads block on forecasts the count
    /// of them running their own never passes `workers`.
    #[test]
    fn callers_run_at_most_workers_forwards_at_once() {
        let engine = ForecastEngine::start(
            model(),
            EngineConfig {
                workers: 2,
                forward_delay: Duration::from_millis(2),
                ..EngineConfig::default()
            },
        )
        .expect("engine starts");
        let (shared, client) = (&engine.shared, engine.client());
        let x = &inputs_of(1, 50)[0];
        {
            let turns = [shared.caller_turn(), shared.caller_turn()];
            assert!(turns.iter().all(Option::is_some));
            assert!(shared.caller_turn().is_none(), "a third turn of two");
            client.forecast_tensor(x).expect("served by a worker");
            assert_eq!(engine.stats().caller_runs, 0);
        }
        assert_eq!(*shared.callers(), 0, "turns come back on drop");

        let most_at_once = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..6)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..20 {
                            client.forecast_tensor(x).expect("forecast");
                        }
                    })
                })
                .collect();
            let mut most = 0;
            while !callers.iter().all(|c| c.is_finished()) {
                most = most.max(*shared.callers());
            }
            most
        });
        assert!((1..=2).contains(&most_at_once), "{most_at_once}");
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 121);
        assert!(stats.caller_runs >= 1);
    }

    /// A forward that panics on a caller's thread is that caller's error
    /// and nobody else's problem: the plan, and the lowering workspace of
    /// the thread that unwound, serve the next forecast bit for bit.
    #[test]
    fn a_poisoned_forward_on_a_caller_is_its_error_and_its_thread_stays_usable() {
        let mut trainer = model();
        let start = |plan, resolution| {
            let spec = InputSpec {
                channels: 4,
                resolution,
            };
            let (config, stats) = (EngineConfig::default(), Arc::default());
            ForecastEngine::start_replica(Replica::F32(plan), spec, config, stats)
                .expect("engine starts")
        };
        // One plan behind two engines; the first is told it serves 12x12,
        // which the plan's layers take until the decoder's 2x2 map meets
        // the 3x3 skip connection (see the test below).
        let (lenient, engine) = (start(trainer.plan(), 12), start(trainer.plan(), 16));
        let poison = Tensor::randn([1, 4, 12, 12], 0.0, 0.5, 80);
        match lenient.client().forecast_tensor(&poison) {
            Err(ServeError::Model(msg)) => assert!(msg.contains("forward panicked"), "{msg}"),
            other => panic!("expected a model error, got {other:?}"),
        }
        let x = &inputs_of(1, 81)[0];
        let served = engine.client().forecast_tensor(x).expect("forecast");
        assert!(same_bits(&served, &model().forecast(x)));
        let (poisoned, clean) = (lenient.shutdown(), engine.shutdown());
        assert_eq!((poisoned.caller_runs, poisoned.failed), (1, 1));
        assert_eq!((clean.caller_runs, clean.completed), (1, 1));
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
