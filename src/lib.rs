//! **Painting on Placement** — a Rust reproduction of Yu & Zhang,
//! *"Painting on Placement: Forecasting Routing Congestion using Conditional
//! Generative Adversarial Nets"*, DAC 2019.
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`arch`] — FPGA fabric model (grid, columns, channels);
//! * [`netlist`] — packed netlists + the eight Table 2 design presets;
//! * [`place`] — VPR-style simulated-annealing placer and option sweep;
//! * [`route`] — PathFinder router and congestion-map extraction;
//! * [`raster`] — placement / connectivity / congestion image rendering;
//! * [`nn`] — the pure-Rust neural-network substrate;
//! * [`exec`] — the shared concurrency substrate (bounded MPMC queues,
//!   worker pools) both the serving engine and the data pipeline run on;
//! * [`obs`] — the zero-dependency observability substrate: a process
//!   global metrics registry (counters, gauges, log-bucketed latency
//!   histograms), `span!`-based tracing with self/child time attribution,
//!   and the JSON [`obs::RunReport`] binaries write via `--trace-out`;
//! * [`core`] — the paper's contribution: the cGAN congestion forecaster,
//!   its trainer, dataset pipeline, metrics and applications;
//! * [`pipeline`] — the multi-threaded scenario/data-generation
//!   pipeline: declarative [`pipeline::ScenarioSpec`] corpora, one worker
//!   pool producing bitwise-identical datasets pair-parallel, and
//!   background epoch prefetch for the trainer;
//! * [`serve`] — the batched forecast-serving engine: micro-batching
//!   worker pool, backpressured clients and serving telemetry for
//!   running many concurrent forecast streams against trained checkpoints;
//! * [`http`] — the zero-dependency HTTP/1.1 front end over [`serve`]:
//!   bounded request parsing, a JSON forecast API with bitwise-exact
//!   float transport, per-model routing, admission control mapped to
//!   HTTP semantics (`429`/`503` + `Retry-After`) and graceful drain;
//! * [`eval`] — the scenario-conditioned evaluation harness: per-scenario
//!   models trained through the streaming pipeline and scored against
//!   every scenario's held-out split, producing the K×K cross-scenario
//!   generalization matrix ([`eval::MatrixSpec`] /
//!   [`eval::evaluate_matrix`]).
//!
//! # Quickstart
//!
//! ```
//! use painting_on_placement as pop;
//!
//! // A miniature end-to-end run: generate a design, place it, route it and
//! // rasterise the paper's images.
//! let spec = pop::netlist::presets::by_name("diffeq1").unwrap().scaled(0.02);
//! let netlist = pop::netlist::generate(&spec);
//! let (clbs, ios, mems, mults) = netlist.site_demand();
//! let arch = pop::arch::Arch::auto_size(clbs, ios, mems, mults, 12, 1.3)?;
//!
//! let options = pop::place::PlaceOptions::default();
//! let placement = pop::place::place(&arch, &netlist, &options)?;
//!
//! let routing = pop::route::route(&arch, &netlist, &placement, &Default::default())?;
//! let heat = pop::raster::render_congestion(&arch, &netlist, &placement, routing.congestion(), 64);
//! assert_eq!(heat.width(), 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

//! # Generating corpora
//!
//! Training/eval corpora are described declaratively and generated
//! pair-parallel on one worker pool (bitwise-identical to the sequential
//! path):
//!
//! ```
//! use painting_on_placement as pop;
//! use pop::pipeline::{generate_corpus_with_stats, scenario, PipelineOptions};
//!
//! let smoke = scenario::by_name("smoke").unwrap();
//! let (corpus, _stats) = generate_corpus_with_stats(&[smoke], &PipelineOptions::with_workers(2))?;
//! assert_eq!(corpus[0].pairs.len(), 2);
//! # Ok::<(), pop::pipeline::PipelineError>(())
//! ```

//! # Serving forecasts
//!
//! Trained models are served through [`serve::ForecastEngine`], which
//! coalesces concurrent requests into batched forward passes:
//!
//! ```
//! use painting_on_placement as pop;
//! use pop::core::{ExperimentConfig, Pix2Pix};
//! use pop::nn::Tensor;
//! use pop::serve::{EngineConfig, ForecastEngine};
//!
//! let config = ExperimentConfig { resolution: 16, base_filters: 4, depth: 3,
//!                                 ..ExperimentConfig::test() };
//! let engine = ForecastEngine::start(Pix2Pix::new(&config, 1)?, EngineConfig::default())?;
//! let client = engine.client(); // cloneable; share freely across threads
//! let x = Tensor::randn([1, config.input_channels(), 16, 16], 0.0, 0.5, 7);
//! let heat = client.forecast(&x)?;
//! assert_eq!(heat.width(), 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use pop_arch as arch;
pub use pop_core as core;
pub use pop_eval as eval;
pub use pop_exec as exec;
pub use pop_http as http;
pub use pop_netlist as netlist;
pub use pop_nn as nn;
pub use pop_obs as obs;
pub use pop_pipeline as pipeline;
pub use pop_place as place;
pub use pop_raster as raster;
pub use pop_route as route;
pub use pop_serve as serve;
