//! The paper's contribution: forecasting routing congestion from placement
//! with a conditional GAN ("painting on placement").
//!
//! The pipeline mirrors §2–§4 of the paper:
//!
//! 1. a placed design is rendered into the input features
//!    `x = stack(img_place, λ·img_connect)` ([`features`]);
//! 2. a U-Net generator with full skip connections ([`UNetGenerator`])
//!    paints the routing heat map `G(x, z)` (Figure 5, left);
//! 3. a six-layer convolutional patch discriminator
//!    ([`PatchDiscriminator`]) judges `(x, heat-map)` pairs (Figure 5,
//!    right);
//! 4. [`Pix2Pix`] trains both with `cGAN + λ_L1·L1` (Equations 1–2 plus the
//!    §4.1 combined objective), recording the loss history that Figure 8
//!    plots;
//! 5. [`dataset`] regenerates the paper's data: placement-option sweeps,
//!    ground-truth routing, rasterisation and tensor assembly, with a disk
//!    cache;
//! 6. [`metrics`] computes Table 2's Acc.1/Acc.2 per-pixel accuracies and
//!    Top10 retrieval metric;
//! 7. [`apps`] implements §5.4: congestion-aware placement exploration,
//!    region-constrained exploration (Figure 9) and real-time forecasting
//!    during simulated annealing.
//!
//! Scale note: the paper trains at 256×256 for 250 epochs on a GPU. The
//! same code runs here on CPU; [`ExperimentConfig::paper`] records the
//! paper-exact settings while [`ExperimentConfig::quick`] (the default for
//! benches) shrinks resolution/filters/epochs so experiments finish on one
//! core. All reported comparisons are *shape* comparisons (see
//! EXPERIMENTS.md).
//!
//! # Example
//!
//! ```no_run
//! use pop_core::{dataset::build_design_dataset, ExperimentConfig, Pix2Pix};
//! use pop_netlist::presets;
//!
//! let config = ExperimentConfig::test();
//! let data = build_design_dataset(&presets::by_name("diffeq1").unwrap(), &config)?;
//! let mut model = Pix2Pix::new(&config, 1)?;
//! let history = model.train(&data.pairs, config.epochs);
//! println!("final G loss: {}", history.generator_loss.last().unwrap());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod apps;
pub mod baseline;
mod config;
pub mod dataset;
mod disc;
mod error;
pub mod features;
mod forecaster;
pub mod metrics;
pub mod model_io;
mod plan;
mod quant;
mod trainer;
mod unet;

pub use config::{ExperimentConfig, SkipMode};
pub use disc::PatchDiscriminator;
pub use error::CoreError;
pub use forecaster::{ExclusiveForecaster, Forecaster};
pub use metrics::{EvalReport, MetricSet, PairEval};
pub use plan::InferencePlan;
pub use quant::{QuantizedForecaster, QuantizedGenerator};
pub use trainer::{NoCheckpoint, Pix2Pix, StreamCheckpoint, TrainHistory};
pub use unet::UNetGenerator;
