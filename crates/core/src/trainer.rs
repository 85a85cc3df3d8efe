use crate::config::ExperimentConfig;
use crate::dataset::Pair;
use crate::disc::{DiscPass, PatchDiscriminator};
use crate::error::CoreError;
use crate::features::tensor_to_image;
use crate::plan::InferencePlan;
use crate::unet::UNetGenerator;
use pop_nn::loss::{bce_with_logits, l1_loss};
use pop_nn::{Adam, Layer, Tensor};
use pop_obs::Histogram;
use pop_raster::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-epoch training curves — the data behind the paper's Figure 8.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainHistory {
    /// Mean generator objective per epoch (`cGAN + λ_L1·L1`).
    pub generator_loss: Vec<f32>,
    /// Mean discriminator objective per epoch.
    pub discriminator_loss: Vec<f32>,
    /// Mean raw L1 distance per epoch (reported even when the L1 term is
    /// ablated from the objective).
    pub l1: Vec<f32>,
}

impl TrainHistory {
    /// Appends another history (used when fine-tuning extends a run).
    pub fn extend(&mut self, other: &TrainHistory) {
        self.generator_loss.extend_from_slice(&other.generator_loss);
        self.discriminator_loss
            .extend_from_slice(&other.discriminator_loss);
        self.l1.extend_from_slice(&other.l1);
    }

    /// Renders the curves as CSV (`epoch,g_loss,d_loss,l1`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("epoch,g_loss,d_loss,l1\n");
        for i in 0..self.generator_loss.len() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                i + 1,
                self.generator_loss[i],
                self.discriminator_loss[i],
                self.l1[i]
            ));
        }
        out
    }

    /// *Relative* mean epoch-to-epoch change of the generator loss over the
    /// last half of training — the "training noise" §5.3 discusses (smooth
    /// optimisation gives small values; ablated models give larger ones).
    /// Normalised by the mean loss level over the same window so variants
    /// with different objectives (with/without the λ·L1 term) compare
    /// fairly.
    pub fn late_noise(&self) -> f32 {
        let g = &self.generator_loss;
        if g.len() < 3 {
            return 0.0;
        }
        let start = (g.len() / 2).max(1);
        let mut diff_sum = 0.0f32;
        let mut level_sum = 0.0f32;
        let mut n = 0usize;
        for i in start..g.len() {
            diff_sum += (g[i] - g[i - 1]).abs();
            level_sum += g[i].abs();
            n += 1;
        }
        let mean_level = (level_sum / n as f32).max(1e-6);
        (diff_sum / n as f32) / mean_level
    }
}

/// The resume handshake between [`Pix2Pix::train_stream_resumable`] and a
/// resumable epoch source (e.g. `pop-pipeline`'s `TrainCheckpoint`, whose
/// `completed_epochs()` starts the epoch prefetcher where the interrupted
/// run stopped; the epochs themselves come back from the corpus store or
/// regenerate from seeds).
///
/// The contract that makes interrupted streaming runs resumable:
///
/// * the **source** consults [`completed_epochs`](StreamCheckpoint::completed_epochs)
///   and yields only epochs `completed..total`;
/// * the **trainer** acknowledges each epoch *after* the optimisation pass
///   over it finishes, via [`epoch_completed`](StreamCheckpoint::epoch_completed).
///
/// Because the acknowledgement happens on the training side (not when the
/// generator hands the epoch over), a run killed mid-epoch re-trains that
/// epoch on resume instead of silently skipping it.
///
/// The acknowledgement receives the just-trained **model** so checkpoints
/// can persist weights + optimiser state *with* the corpus position (e.g.
/// `pop-pipeline`'s `TrainCheckpoint` calls `model_io::save_checkpoint`
/// before advancing the epoch marker): a resumed run then continues from
/// the trained weights instead of silently re-initialising.
pub trait StreamCheckpoint {
    /// How many epochs an earlier (interrupted) run fully trained.
    fn completed_epochs(&self) -> usize;
    /// Called once per epoch, after training on it completed; `model` is
    /// the trainer in its post-epoch state, for weight checkpointing.
    fn epoch_completed(&mut self, epoch: usize, model: &mut Pix2Pix);
}

/// A [`StreamCheckpoint`] that remembers nothing — the no-resume default
/// behind [`Pix2Pix::train_stream`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCheckpoint;

impl StreamCheckpoint for NoCheckpoint {
    fn completed_epochs(&self) -> usize {
        0
    }
    fn epoch_completed(&mut self, _epoch: usize, _model: &mut Pix2Pix) {}
}

/// Losses of one optimisation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepLosses {
    /// Discriminator loss (mean of real and fake halves).
    pub d_loss: f32,
    /// Generator adversarial term.
    pub g_gan: f32,
    /// Raw L1 between `G(x, z)` and the truth.
    pub g_l1: f32,
}

/// Where a train step's wall clock goes: registry histograms for its four
/// phases, which add up to `train.step_us`. The phases are the fork
/// (`train.fork_us`: D's real pass, forward and backward, beside the G
/// forward followed by D's fake forward), the D fake backward and D's Adam
/// step (`train.d_fake_us`), the G step's forward and input-gradient
/// backward through D, then G's backward (`train.g_backward_us`), and G's
/// Adam step (`train.opt_g_us`).
struct StepLedger {
    phases: [Arc<Histogram>; 4],
    step: Arc<Histogram>,
}

impl StepLedger {
    /// The global registry's handles, looked up once per process.
    fn global() -> &'static StepLedger {
        static LEDGER: OnceLock<StepLedger> = OnceLock::new();
        LEDGER.get_or_init(|| {
            let obs = pop_obs::global();
            StepLedger {
                phases: [
                    obs.histogram("train.fork_us"),
                    obs.histogram("train.d_fake_us"),
                    obs.histogram("train.g_backward_us"),
                    obs.histogram("train.opt_g_us"),
                ],
                step: obs.histogram("train.step_us"),
            }
        })
    }

    /// Records one step from the time elapsed at the end of each phase.
    /// A phase's sample is the difference of two whole-µs readings, so the
    /// four phases' sums add up to `train.step_us`'s exactly.
    fn record(&self, phase_ends: [Duration; 4]) {
        let mut before = 0;
        for (histogram, end) in self.phases.iter().zip(phase_ends) {
            let end = end.as_micros() as u64;
            histogram.record(end - before);
            before = end;
        }
        self.step.record(before);
    }
}

/// The conditional GAN of §4: U-Net generator + patch discriminator trained
/// with `cL(G, D) + λ·E‖g − G(x, z)‖₁` (both Adam, paper hyper-parameters).
///
/// Train/fine-tune on [`Pair`]s, then [`Pix2Pix::forecast_image`] a heat
/// map from fresh placement features in one forward pass — the operation
/// the paper times at ~0.09 s/image against minutes of routing.
///
/// Every parameter gradient of both networks is zero between train steps.
/// [`Adam::step`] clears the gradients it reads, and
/// [`Pix2Pix::train_step`] computes no gradient that no optimiser reads, so
/// a step that follows a step zeroes nothing. Layers handed out by
/// [`Pix2Pix::generator_mut`] or [`Pix2Pix::discriminator_mut`] may be
/// left with gradients, so the next step zeroes both networks once first.
#[derive(Debug, Clone)]
pub struct Pix2Pix {
    gen: UNetGenerator,
    disc: PatchDiscriminator,
    opt_g: Adam,
    opt_d: Adam,
    config: ExperimentConfig,
    rng: StdRng,
    // The generator's inference snapshot, built by the first forecast
    // after the generator last changed: `train_step` and `generator_mut`,
    // the only `&mut` roads to it, drop the snapshot.
    plan: Option<Arc<InferencePlan>>,
    // Set when `generator_mut` / `discriminator_mut` hand out layers that
    // a caller may have run a backward through.
    grads_handed_out: bool,
    // The discriminator's activations of a step's real pass and of its
    // fake passes, kept so their buffers keep their length.
    d_real: DiscPass,
    d_fake: DiscPass,
}

impl Pix2Pix {
    /// Builds generator, discriminator and optimisers for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when the config fails validation.
    pub fn new(config: &ExperimentConfig, seed: u64) -> Result<Self, CoreError> {
        config.validate()?;
        let in_ch = config.input_channels();
        let gen = UNetGenerator::new(
            in_ch,
            3,
            config.base_filters,
            config.depth,
            config.skip,
            seed,
        );
        let disc = PatchDiscriminator::new(
            in_ch + 3,
            config.base_filters,
            config.resolution,
            seed.wrapping_add(0x0D15C),
        );
        let adam = Adam::new(config.learning_rate, 0.5, 0.999, 1e-8);
        Ok(Pix2Pix {
            gen,
            disc,
            opt_g: adam.clone(),
            opt_d: adam,
            config: config.clone(),
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x7EA1)),
            plan: None,
            grads_handed_out: false,
            d_real: DiscPass::default(),
            d_fake: DiscPass::default(),
        })
    }

    /// The experiment configuration this model was built for.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The generator (e.g. for parameter counting, or to load weights).
    pub fn generator_mut(&mut self) -> &mut UNetGenerator {
        self.plan = None;
        self.grads_handed_out = true;
        &mut self.gen
    }

    /// The generator as it stands, frozen for inference: what every
    /// `forecast*` method runs, shareable with threads that must not hold
    /// the trainer (`pop-serve`'s workers). Built on first use and kept
    /// until the generator next changes.
    pub fn plan(&mut self) -> Arc<InferencePlan> {
        let gen = &self.gen;
        Arc::clone(self.plan.get_or_insert_with(|| Arc::new(gen.plan())))
    }

    /// The discriminator.
    pub fn discriminator_mut(&mut self) -> &mut PatchDiscriminator {
        self.grads_handed_out = true;
        &mut self.disc
    }

    /// The trainer RNG's stream position (epoch shuffles + noise), for
    /// checkpointing; pair with [`Pix2Pix::set_rng_state`].
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the trainer RNG to a checkpointed stream position.
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Bias-correction step counts of the generator and discriminator
    /// optimisers (the per-parameter Adam moments live in the parameters
    /// themselves and are checkpointed alongside the weights).
    pub fn optimizer_steps(&self) -> (u64, u64) {
        (self.opt_g.steps(), self.opt_d.steps())
    }

    /// Restores the optimiser step counts from a checkpoint.
    pub fn set_optimizer_steps(&mut self, gen_steps: u64, disc_steps: u64) {
        self.opt_g.set_steps(gen_steps);
        self.opt_d.set_steps(disc_steps);
    }

    /// One cGAN optimisation step on a single `(x, truth)` pair (the paper
    /// trains with batch size 1). Records the step's wall clock and its
    /// four phases in the global registry (`train.step_us`,
    /// `train.fork_us`, `train.d_fake_us`, `train.g_backward_us`,
    /// `train.opt_g_us`).
    ///
    /// The step forks once for its critical path: D's real pass (forward
    /// and backward) runs on [`pop_exec::join`]'s helper while the caller
    /// runs G's forward and then D's forward on the fake pair. Inside the
    /// layers, the backward passes fork their two gradients, the
    /// convolutions' training forwards their output-channel rows, and the
    /// G step's input-gradient-only backward through D its `Wᵀ·dY` rows.
    /// The bits are those of the passes run one after another.
    pub fn train_step(&mut self, x: &Tensor, truth: &Tensor) -> StepLosses {
        let started = Instant::now();
        self.plan = None;
        if std::mem::take(&mut self.grads_handed_out) {
            self.gen.zero_grad();
            self.disc.zero_grad();
        }
        // ---- Discriminator step: maximise log D(x,g) + log(1-D(G(x,z))).
        //
        // The real half of it needs only `(x, truth)`, and the generator
        // forward needs only `x`, so the two run side by side, and the
        // fake pair's D forward follows the generator's on the caller. The
        // two D passes read the same weights and keep their activations
        // and batch statistics apart (`DiscPass`); the real backward adds
        // onto D's gradients, which `with_grads` moves out beside the
        // weights for the fork. G's side touches nothing of G but its
        // caches and the dropout RNG that provides z. The fake backward
        // follows the join, so D accumulates real then fake, and the
        // running statistics are committed real then fake — the
        // sequential step, bit for bit.
        let real_pair = x.concat_channels(truth);
        let (gen, d_real, d_fake) = (&mut self.gen, &mut self.d_real, &mut self.d_fake);
        let (d_real_loss, (fake, fake_pair, logits_fake)) = self.disc.with_grads(|disc, grads| {
            pop_exec::join(
                || {
                    let logits_real = disc.forward_pass(&real_pair, d_real);
                    let (d_real_loss, mut g_real) = bce_with_logits(&logits_real, 1.0);
                    g_real.scale(0.5);
                    let _ = disc.backward_pass(d_real, &g_real, Some(grads));
                    d_real_loss
                },
                || {
                    // Generator forward (training mode: dropout provides z).
                    let fake = gen.forward(x);
                    let fake_pair = x.concat_channels(&fake);
                    let logits_fake = disc.forward_pass(&fake_pair, d_fake);
                    (fake, fake_pair, logits_fake)
                },
            )
        });
        self.disc.commit(&self.d_real);
        self.disc.commit(&self.d_fake);
        let forked = started.elapsed();

        let (d_fake_loss, mut g_fake) = bce_with_logits(&logits_fake, 0.0);
        g_fake.scale(0.5);
        let d_fake = &mut self.d_fake;
        self.disc
            .with_grads(|disc, grads| disc.backward_pass(d_fake, &g_fake, Some(grads)));
        self.opt_d.step(&mut self.disc.params_mut());
        let d_stepped = started.elapsed();

        // ---- Generator step: minimise log(1-D(G(x,z))) (non-saturating
        // form: maximise log D) + λ·L1. The pass through D is for its input
        // gradient only: D's parameter gradients would be discarded.
        let logits = self.disc.forward_pass(&fake_pair, &mut self.d_fake);
        self.disc.commit(&self.d_fake);
        let (g_gan, g_grad) = bce_with_logits(&logits, 1.0);
        let d_input_grad = self.disc.backward_pass(&mut self.d_fake, &g_grad, None);
        let (_, mut fake_grad) = d_input_grad.split_channels(x.c());

        let (l1_raw, l1_grad) = l1_loss(&fake, truth);
        if self.config.use_l1 {
            let mut weighted = l1_grad;
            weighted.scale(self.config.lambda_l1);
            fake_grad.add_assign(&weighted);
        }
        let _ = self.gen.backward(&fake_grad);
        let g_backward = started.elapsed();
        self.opt_g.step(&mut self.gen.params_mut());
        StepLedger::global().record([forked, d_stepped, g_backward, started.elapsed()]);

        StepLosses {
            d_loss: 0.5 * (d_real_loss + d_fake_loss),
            g_gan,
            g_l1: l1_raw,
        }
    }

    /// Trains for `epochs` passes over `pairs` (shuffled each epoch),
    /// returning the loss history.
    pub fn train(&mut self, pairs: &[Pair], epochs: usize) -> TrainHistory {
        let refs: Vec<&Pair> = pairs.iter().collect();
        self.train_refs(&refs, epochs)
    }

    /// [`Pix2Pix::train`] over borrowed pairs — the shape produced by
    /// [`leave_one_out`](crate::dataset::leave_one_out), avoiding a copy of
    /// the training tensors.
    pub fn train_refs(&mut self, pairs: &[&Pair], epochs: usize) -> TrainHistory {
        let mut history = TrainHistory::default();
        if pairs.is_empty() {
            return history;
        }
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for _epoch in 0..epochs {
            self.train_one_epoch(pairs, &mut order, &mut history);
        }
        history
    }

    /// Trains one epoch per yielded pair set — the consumer half of a
    /// background-prefetch pipeline: while this method trains on epoch `N`,
    /// the producer (e.g. `pop_pipeline::EpochPrefetcher`) is already
    /// generating epoch `N + 1`'s pairs on its worker pools. Empty yields
    /// are skipped; the returned history has one entry per non-empty epoch.
    pub fn train_stream<I>(&mut self, epochs: I) -> TrainHistory
    where
        I: IntoIterator<Item = Vec<Pair>>,
    {
        self.train_stream_resumable(epochs, &mut NoCheckpoint)
    }

    /// [`Pix2Pix::train_stream`] with a resume handshake: epochs are
    /// numbered from `checkpoint.completed_epochs()` (the source is
    /// expected to skip epochs an interrupted run already trained) and each
    /// is acknowledged via [`StreamCheckpoint::epoch_completed`] *after*
    /// its optimisation pass finishes, so progress markers never run ahead
    /// of the actual training state.
    pub fn train_stream_resumable<I>(
        &mut self,
        epochs: I,
        checkpoint: &mut dyn StreamCheckpoint,
    ) -> TrainHistory
    where
        I: IntoIterator<Item = Vec<Pair>>,
    {
        let mut history = TrainHistory::default();
        // The shuffle order persists across equally-sized epochs, exactly
        // like `train_refs` — streaming the same pair set each epoch
        // reproduces `train` bitwise. A size change resets it.
        let mut order: Vec<usize> = Vec::new();
        let mut epoch = checkpoint.completed_epochs();
        for pairs in epochs {
            if pairs.is_empty() {
                // An empty epoch is trivially complete: acknowledge it so
                // the positional numbering stays in sync with the source's
                // epoch indexing (epoch `e` draws seeds shifted by `e`),
                // but record nothing in the history.
                checkpoint.epoch_completed(epoch, self);
                epoch += 1;
                continue;
            }
            let refs: Vec<&Pair> = pairs.iter().collect();
            if order.len() != refs.len() {
                order = (0..refs.len()).collect();
            }
            self.train_one_epoch(&refs, &mut order, &mut history);
            checkpoint.epoch_completed(epoch, self);
            epoch += 1;
        }
        history
    }

    /// Shuffles `order` with the trainer's RNG (deterministic by seed),
    /// trains one pass and appends the epoch means to `history`.
    fn train_one_epoch(
        &mut self,
        pairs: &[&Pair],
        order: &mut [usize],
        history: &mut TrainHistory,
    ) {
        let _span = pop_obs::span!(
            "train_epoch",
            epoch = history.generator_loss.len(),
            pairs = pairs.len()
        );
        let obs = pop_obs::global();
        // Fisher-Yates with the trainer's RNG: deterministic by seed.
        for i in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut sum_g = 0.0f64;
        let mut sum_d = 0.0f64;
        let mut sum_l1 = 0.0f64;
        for &idx in order.iter() {
            let losses = self.train_step(&pairs[idx].x, &pairs[idx].y);
            let g_total = losses.g_gan
                + if self.config.use_l1 {
                    self.config.lambda_l1 * losses.g_l1
                } else {
                    0.0
                };
            sum_g += g_total as f64;
            sum_d += losses.d_loss as f64;
            sum_l1 += losses.g_l1 as f64;
        }
        let n = pairs.len() as f64;
        history.generator_loss.push((sum_g / n) as f32);
        history.discriminator_loss.push((sum_d / n) as f32);
        history.l1.push((sum_l1 / n) as f32);
        obs.counter("train.epochs").inc();
        obs.counter("train.steps").add(pairs.len() as u64);
        obs.gauge("train.loss.generator").set(sum_g / n);
        obs.gauge("train.loss.discriminator").set(sum_d / n);
        obs.gauge("train.loss.l1").set(sum_l1 / n);
    }

    /// Strategy 2 of §5.1: update a trained model with a few pairs from the
    /// held-out design ("takes the advantages of transfer learning").
    pub fn finetune(&mut self, pairs: &[Pair], epochs: usize) -> TrainHistory {
        self.train(pairs, epochs)
    }

    /// Paints the routing heat map for input features (inference mode — no
    /// dropout, batch-norm running statistics).
    pub fn forecast(&mut self, x: &Tensor) -> Tensor {
        self.plan().forward(x)
    }

    /// Freezes the generator into an opt-in i8 inference snapshot: a
    /// lock-free [`QuantizedForecaster`](crate::QuantizedForecaster) with
    /// per-output-channel weight scales and batch-norm folded in. Accuracy
    /// versus this f32 model is gated by the `quantized_accuracy_gate`
    /// test (MetricSet delta on a held-out split).
    pub fn quantized(&self) -> crate::QuantizedForecaster {
        crate::QuantizedForecaster::new(self.gen.quantize())
    }

    /// [`Pix2Pix::forecast`] decoded into an image.
    pub fn forecast_image(&mut self, x: &Tensor) -> Image {
        tensor_to_image(&self.forecast(x))
    }

    /// Forecasts many `[1, C, H, W]` inputs in one batched forward pass
    /// ([`InferencePlan::forecast_batch`]). The plan treats batch elements
    /// independently, so each returned tensor is
    /// bitwise-identical to the corresponding single-input
    /// [`Pix2Pix::forecast`] — this is the compute core of the `pop-serve`
    /// micro-batcher.
    ///
    /// Returns an empty vector for an empty input slice.
    ///
    /// # Panics
    ///
    /// Panics when inputs disagree on channel/spatial dimensions.
    pub fn forecast_batch(&mut self, xs: &[&Tensor]) -> Vec<Tensor> {
        self.plan().forecast_batch(xs)
    }

    /// [`Pix2Pix::forecast_batch`] decoded into images.
    ///
    /// # Panics
    ///
    /// Panics when inputs disagree on channel/spatial dimensions.
    pub fn forecast_batch_images(&mut self, xs: &[&Tensor]) -> Vec<Image> {
        self.forecast_batch(xs)
            .iter()
            .map(tensor_to_image)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PairMeta;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            resolution: 16,
            base_filters: 4,
            depth: 3,
            epochs: 1,
            ..ExperimentConfig::test()
        }
    }

    fn synthetic_pair(cfg: &ExperimentConfig, seed: u64) -> Pair {
        // A learnable mapping: target = low-res structure of the input.
        let x = Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, seed);
        let mut y = Tensor::zeros([1, 3, 16, 16]);
        for c in 0..3 {
            for i in 0..16 {
                for j in 0..16 {
                    y.set(0, c, i, j, x.at(0, 0, i, j).tanh());
                }
            }
        }
        Pair {
            x,
            y,
            meta: PairMeta::synthetic(seed),
        }
    }

    #[test]
    fn construction_validates_config() {
        let mut bad = tiny_config();
        bad.resolution = 17;
        assert!(Pix2Pix::new(&bad, 1).is_err());
        assert!(Pix2Pix::new(&tiny_config(), 1).is_ok());
    }

    #[test]
    fn train_records_history_and_learns() {
        let cfg = tiny_config();
        let pairs: Vec<Pair> = (0..4).map(|s| synthetic_pair(&cfg, s)).collect();
        let mut model = Pix2Pix::new(&cfg, 3).unwrap();
        let history = model.train(&pairs, 6);
        assert_eq!(history.generator_loss.len(), 6);
        assert_eq!(history.discriminator_loss.len(), 6);
        // L1 should drop substantially as the generator fits.
        let first = history.l1[0];
        let last = *history.l1.last().unwrap();
        assert!(last < first, "l1 {first} -> {last}");
        assert!(history.to_csv().lines().count() == 7);
    }

    #[test]
    fn train_stream_matches_train_for_identical_epochs() {
        // Feeding the same pair set once per epoch through the streaming
        // API consumes the trainer RNG identically to `train`, so the loss
        // history is bitwise-equal.
        let cfg = tiny_config();
        let pairs: Vec<Pair> = (0..3).map(|s| synthetic_pair(&cfg, s)).collect();
        let mut batch = Pix2Pix::new(&cfg, 21).unwrap();
        let h_batch = batch.train(&pairs, 3);
        let mut stream = Pix2Pix::new(&cfg, 21).unwrap();
        let h_stream = stream.train_stream((0..3).map(|_| pairs.clone()));
        assert_eq!(h_batch, h_stream);
        // Empty yields are skipped, not recorded.
        let mut skip = Pix2Pix::new(&cfg, 22).unwrap();
        let h = skip.train_stream(vec![pairs.clone(), Vec::new(), pairs.clone()]);
        assert_eq!(h.generator_loss.len(), 2);
    }

    #[test]
    fn stream_checkpoint_acknowledges_epochs_after_training() {
        struct Recorder {
            start: usize,
            acked: Vec<usize>,
        }
        impl StreamCheckpoint for Recorder {
            fn completed_epochs(&self) -> usize {
                self.start
            }
            fn epoch_completed(&mut self, epoch: usize, _model: &mut Pix2Pix) {
                self.acked.push(epoch);
            }
        }
        let cfg = tiny_config();
        let pairs: Vec<Pair> = (0..2).map(|s| synthetic_pair(&cfg, s)).collect();
        // Fresh run: epochs numbered from 0. An empty yield is trivially
        // complete — acknowledged (keeping the source's epoch indexing in
        // sync) but absent from the history.
        let mut fresh = Recorder {
            start: 0,
            acked: Vec::new(),
        };
        let mut model = Pix2Pix::new(&cfg, 31).unwrap();
        let h = model
            .train_stream_resumable(vec![pairs.clone(), Vec::new(), pairs.clone()], &mut fresh);
        assert_eq!(fresh.acked, vec![0, 1, 2]);
        assert_eq!(h.generator_loss.len(), 2);
        // Resumed run: numbering continues where the interrupted run left
        // off (the source only yields the remaining epochs).
        let mut resumed = Recorder {
            start: 2,
            acked: Vec::new(),
        };
        let mut model2 = Pix2Pix::new(&cfg, 31).unwrap();
        let _ = model2.train_stream_resumable(vec![pairs.clone()], &mut resumed);
        assert_eq!(resumed.acked, vec![2]);
    }

    #[test]
    fn forecast_is_deterministic_and_bounded() {
        let cfg = tiny_config();
        let mut model = Pix2Pix::new(&cfg, 5).unwrap();
        let x = Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, 9);
        let a = model.forecast(&x);
        let b = model.forecast(&x);
        assert_eq!(a, b);
        let img = model.forecast_image(&x);
        assert_eq!(img.channels(), 3);
        assert!(img.data().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn batched_forecast_matches_sequential_bitwise() {
        let cfg = tiny_config();
        let pairs: Vec<Pair> = (0..2).map(|s| synthetic_pair(&cfg, s)).collect();
        let mut model = Pix2Pix::new(&cfg, 11).unwrap();
        // Train a little so batch-norm running stats are non-trivial.
        let _ = model.train(&pairs, 2);
        let xs: Vec<Tensor> = (0..5)
            .map(|s| Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, 100 + s))
            .collect();
        let sequential: Vec<Tensor> = xs.iter().map(|x| model.forecast(x)).collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let batched = model.forecast_batch(&refs);
        assert_eq!(batched.len(), 5);
        for (b, s) in batched.iter().zip(&sequential) {
            // Bitwise equality: the plan treats batch elements
            // independently.
            assert_eq!(b, s);
        }
        let images = model.forecast_batch_images(&refs);
        for (img, s) in images.iter().zip(&sequential) {
            assert_eq!(img, &tensor_to_image(s));
        }
    }

    /// `forecast` runs a plan the model keeps — until a training step or
    /// an edit through `generator_mut` changes the weights it was read
    /// from: the next forecast is then a freshly built plan's.
    #[test]
    fn the_kept_plan_never_outlives_the_weights_it_was_read_from() {
        let cfg = tiny_config();
        let pair = synthetic_pair(&cfg, 1);
        let mut model = Pix2Pix::new(&cfg, 17).unwrap();
        let x = Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, 23);
        let untrained = model.forecast(&x);
        let kept = model.plan();
        assert!(
            Arc::ptr_eq(&kept, &model.plan()),
            "forecasting keeps the plan"
        );

        model.train_step(&pair.x, &pair.y);
        assert!(!Arc::ptr_eq(&kept, &model.plan()), "a train step drops it");
        let trained = model.forecast(&x);
        assert_ne!(trained, untrained);
        assert_eq!(trained, model.generator_mut().plan().forward(&x));
        assert_eq!(kept.forward(&x), untrained, "the old plan is a snapshot");

        model.generator_mut().params_mut()[0].value.data_mut()[0] += 0.5;
        let edited = model.forecast(&x);
        assert_ne!(edited, trained);
        assert_eq!(edited, model.generator_mut().plan().forward(&x));
    }

    /// Every parameter gradient of both networks, as bits.
    fn grad_bits(model: &mut Pix2Pix) -> Vec<u32> {
        let bits = |params: Vec<&mut pop_nn::Param>| -> Vec<u32> {
            let grads = params.iter().flat_map(|p| p.grad.data());
            grads.map(|g| g.to_bits()).collect()
        };
        let mut all = bits(model.generator_mut().params_mut());
        all.extend(bits(model.discriminator_mut().params_mut()));
        all
    }

    /// Gradients are zero between steps: Adam clears what it reads, the
    /// step clears what nothing reads. A backward run through the layers
    /// `generator_mut` / `discriminator_mut` hand out leaves gradients
    /// behind, and the next step is still bit-equal to one after a model
    /// whose gradients were zeroed by hand.
    #[test]
    fn gradients_are_zero_between_steps_and_a_stray_backward_changes_nothing() {
        let cfg = tiny_config();
        let pairs: Vec<Pair> = (0..2).map(|s| synthetic_pair(&cfg, s)).collect();
        let mut zeroed = Pix2Pix::new(&cfg, 41).unwrap();
        let mut stray = zeroed.clone();
        for step in 0..4 {
            let pair = &pairs[step % 2];
            let want = zeroed.train_step(&pair.x, &pair.y);
            assert_eq!(stray.train_step(&pair.x, &pair.y), want, "step {step}");
            for model in [&mut zeroed, &mut stray] {
                assert!(
                    grad_bits(model).iter().all(|&g| g == 0),
                    "a gradient survived step {step}"
                );
                // The same forwards in both models, so dropout and
                // batch-norm state move alike; only the gradients differ.
                let gen = model.generator_mut();
                let fake = gen.forward(&pair.x);
                let _ = gen.backward(&fake);
                let disc = model.discriminator_mut();
                let logits = disc.forward(&pair.x.concat_channels(&fake));
                let _ = disc.backward(&logits);
            }
            assert!(grad_bits(&mut stray).iter().any(|&g| g != 0));
            zeroed.generator_mut().zero_grad();
            zeroed.discriminator_mut().zero_grad();
        }
        let weights = |model: &mut Pix2Pix| {
            let params = model.generator_mut().params_mut();
            let values = params.iter().flat_map(|p| p.value.data());
            values.map(|w| w.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(weights(&mut stray), weights(&mut zeroed));
    }

    /// The train step as it ran before the discriminator's passes kept
    /// their own activations: D's real pass, the G forward, D's fake pass
    /// and Adam step one after another through the layers, then the G
    /// step's full backward through D, whose parameter gradients are
    /// cleared unread.
    fn sequential_step(model: &mut Pix2Pix, x: &Tensor, truth: &Tensor) -> StepLosses {
        model.plan = None;
        let logits_real = model.disc.forward(&x.concat_channels(truth));
        let (d_real, mut g_real) = bce_with_logits(&logits_real, 1.0);
        g_real.scale(0.5);
        let _ = model.disc.backward(&g_real);
        let fake = model.gen.forward(x);
        let fake_pair = x.concat_channels(&fake);
        let logits_fake = model.disc.forward(&fake_pair);
        let (d_fake, mut g_fake) = bce_with_logits(&logits_fake, 0.0);
        g_fake.scale(0.5);
        let _ = model.disc.backward(&g_fake);
        model.opt_d.step(&mut model.disc.params_mut());

        let logits = model.disc.forward(&fake_pair);
        let (g_gan, g_grad) = bce_with_logits(&logits, 1.0);
        let d_input_grad = model.disc.backward(&g_grad);
        model.disc.zero_grad();
        let (_, mut fake_grad) = d_input_grad.split_channels(x.c());
        let (l1_raw, l1_grad) = l1_loss(&fake, truth);
        if model.config.use_l1 {
            let mut weighted = l1_grad;
            weighted.scale(model.config.lambda_l1);
            fake_grad.add_assign(&weighted);
        }
        let _ = model.gen.backward(&fake_grad);
        model.opt_g.step(&mut model.gen.params_mut());
        StepLosses {
            d_loss: 0.5 * (d_real + d_fake),
            g_gan,
            g_l1: l1_raw,
        }
    }

    /// Both networks' weights, Adam moments, gradients and running
    /// statistics, as bits.
    fn state_bits(model: &mut Pix2Pix) -> Vec<u32> {
        let mut out = Vec::new();
        for net in [&mut model.gen as &mut dyn Layer, &mut model.disc] {
            for p in net.params_mut() {
                let tensors = [&p.value, &p.m, &p.v, &p.grad];
                out.extend(tensors.iter().flat_map(|t| t.data()).map(|v| v.to_bits()));
            }
            for b in net.buffers_mut() {
                out.extend(b.iter().map(|v| v.to_bits()));
            }
        }
        out
    }

    /// Four steps of `train_step` are four sequential steps bit for bit —
    /// losses, weights, moments, gradients (zero) and running statistics —
    /// forked wherever the helper is free and with every join inline.
    #[test]
    fn train_step_is_the_sequential_step_bit_for_bit() {
        let cfg = tiny_config();
        let pairs: Vec<Pair> = (0..2).map(|s| synthetic_pair(&cfg, s)).collect();
        let run = |step: fn(&mut Pix2Pix, &Tensor, &Tensor) -> StepLosses| {
            let mut model = Pix2Pix::new(&cfg, 43).unwrap();
            let losses: Vec<StepLosses> = (0..4)
                .map(|i| step(&mut model, &pairs[i % 2].x, &pairs[i % 2].y))
                .collect();
            (losses, state_bits(&mut model))
        };
        let want = run(sequential_step);
        let ((), inline) = pop_exec::join(|| (), || run(Pix2Pix::train_step));
        assert!(inline == want, "every join inline");
        assert!(run(Pix2Pix::train_step) == want, "forked");
    }

    /// Each phase is recorded as a difference of whole-µs readings, so the
    /// phases' sums add up to the step's exactly, whatever the rounding.
    #[test]
    fn step_phases_add_up_to_the_step() {
        let ledger = StepLedger {
            phases: std::array::from_fn(|_| Arc::new(Histogram::new())),
            step: Arc::new(Histogram::new()),
        };
        for ends_ns in [[1_600, 3_200, 4_900, 7_400], [999, 1_998, 2_997, 3_996]] {
            ledger.record(ends_ns.map(Duration::from_nanos));
        }
        let sums: Vec<u64> = ledger.phases.iter().map(|h| h.sum()).collect();
        assert_eq!(sums, [1, 3, 2, 4]);
        assert_eq!(sums.iter().sum::<u64>(), ledger.step.sum());
        assert_eq!(ledger.step.count(), 2);

        let global = || pop_obs::global().snapshot();
        let count = |name: &str| global().histogram(name).map_or(0, |h| h.count);
        let before = count("train.g_backward_us");
        let cfg = tiny_config();
        let pair = synthetic_pair(&cfg, 1);
        Pix2Pix::new(&cfg, 2).unwrap().train_step(&pair.x, &pair.y);
        assert!(count("train.g_backward_us") > before);
    }

    #[test]
    fn forecast_batch_of_nothing_is_empty() {
        let mut model = Pix2Pix::new(&tiny_config(), 1).unwrap();
        assert!(model.forecast_batch(&[]).is_empty());
        assert!(model.forecast_batch_images(&[]).is_empty());
    }

    #[test]
    fn cloned_model_forecasts_identically() {
        let cfg = tiny_config();
        let mut model = Pix2Pix::new(&cfg, 13).unwrap();
        let mut twin = model.clone();
        let x = Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, 14);
        assert_eq!(model.forecast(&x), twin.forecast(&x));
    }

    #[test]
    fn ablated_l1_changes_training() {
        let cfg = tiny_config();
        let pairs: Vec<Pair> = (0..2).map(|s| synthetic_pair(&cfg, s)).collect();
        let mut with_l1 = Pix2Pix::new(&cfg, 7).unwrap();
        let h1 = with_l1.train(&pairs, 2);
        let mut no_l1_cfg = cfg.clone();
        no_l1_cfg.use_l1 = false;
        let mut without_l1 = Pix2Pix::new(&no_l1_cfg, 7).unwrap();
        let h2 = without_l1.train(&pairs, 2);
        // The generator objective differs by the λ·L1 term.
        assert!(h1.generator_loss[0] > h2.generator_loss[0]);
    }

    #[test]
    fn history_extend_and_noise() {
        let mut h = TrainHistory {
            generator_loss: vec![1.0, 0.5, 0.52, 0.51],
            discriminator_loss: vec![0.7; 4],
            l1: vec![0.2; 4],
        };
        let other = TrainHistory {
            generator_loss: vec![0.5],
            discriminator_loss: vec![0.6],
            l1: vec![0.1],
        };
        h.extend(&other);
        assert_eq!(h.generator_loss.len(), 5);
        assert!(h.late_noise() >= 0.0);
    }
}
