//! Quantized-inference forecaster: an i8 snapshot of a trained generator.
//!
//! [`Pix2Pix::quantized`](crate::Pix2Pix::quantized) freezes the generator
//! into a [`QuantizedGenerator`]: every convolution's weights quantized to
//! the signed-8-bit grid with per-output-channel scales (see
//! [`pop_nn::quant`]), batch-norm running statistics folded into the
//! quantized weights and biases, dropout dropped (inference identity).
//! The result is immutable and lock-free (`&self` forward, no activation
//! caches), so one snapshot serves any number of threads — like the f32
//! [`InferencePlan`](crate::InferencePlan), which keeps full precision.
//!
//! Accuracy is gated the same way the eval harness judges models: a
//! [`MetricSet`](crate::MetricSet) sweep over a held-out split must agree
//! with the f32 model within a small tolerance (`quantized_accuracy_gate`
//! below pins the bound CI enforces).

use crate::error::CoreError;
use crate::forecaster::Forecaster;
use pop_nn::quant::{QuantizedConv2d, QuantizedConvTranspose2d};
use pop_nn::{tanh_in_place, Tensor};

/// One quantized encoder block: conv (BN folded) → LeakyReLU.
#[derive(Debug, Clone)]
pub(crate) struct QuantEncBlock {
    pub(crate) conv: QuantizedConv2d,
    pub(crate) alpha: f32,
}

/// One quantized decoder block: deconv (BN folded) → ReLU, or → Tanh for
/// the output block. Dropout is an inference no-op and is dropped.
#[derive(Debug, Clone)]
pub(crate) struct QuantDecBlock {
    pub(crate) deconv: QuantizedConvTranspose2d,
    pub(crate) tanh: bool,
}

/// An inference-only i8 snapshot of a
/// [`UNetGenerator`](crate::UNetGenerator): same topology (skip
/// connections included), quantized convolutions, `&self` forward.
#[derive(Debug, Clone)]
pub struct QuantizedGenerator {
    enc: Vec<QuantEncBlock>,
    dec: Vec<QuantDecBlock>,
    skip_at: Vec<bool>,
    in_channels: usize,
}

impl QuantizedGenerator {
    pub(crate) fn from_parts(
        enc: Vec<QuantEncBlock>,
        dec: Vec<QuantDecBlock>,
        skip_at: Vec<bool>,
        in_channels: usize,
    ) -> Self {
        QuantizedGenerator {
            enc,
            dec,
            skip_at,
            in_channels,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of down/up levels.
    pub fn depth(&self) -> usize {
        self.enc.len()
    }

    /// Inference forward — mirrors the f32
    /// [`InferencePlan`](crate::InferencePlan) exactly (encoder stack, skip
    /// concatenation, decoder stack), with quantized convolutions.
    ///
    /// # Panics
    ///
    /// Panics when input channels disagree with the generator.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.c(), self.in_channels, "generator input channels");
        let depth = self.enc.len();
        let mut e: Vec<Tensor> = Vec::with_capacity(depth);
        let mut cur = x.clone();
        for block in &self.enc {
            let mut y = block.conv.forward(&cur);
            for v in y.data_mut() {
                if *v < 0.0 {
                    *v *= block.alpha;
                }
            }
            e.push(y.clone());
            cur = y;
        }
        let mut u = e[depth - 1].clone();
        for i in 0..depth {
            let input = if i == 0 || !self.skip_at[i] {
                u
            } else {
                u.concat_channels(&e[depth - 1 - i])
            };
            let mut y = self.dec[i].deconv.forward(&input);
            if self.dec[i].tanh {
                tanh_in_place(y.data_mut());
            } else {
                for v in y.data_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            u = y;
        }
        u
    }
}

/// A [`Forecaster`] backed by a [`QuantizedGenerator`] — the opt-in
/// quantized replica kind `pop-serve`'s registry can serve next to the
/// f32 one.
#[derive(Debug, Clone)]
pub struct QuantizedForecaster {
    gen: QuantizedGenerator,
}

impl QuantizedForecaster {
    /// Wraps a quantized generator snapshot.
    pub fn new(gen: QuantizedGenerator) -> Self {
        QuantizedForecaster { gen }
    }

    /// The underlying snapshot.
    pub fn generator(&self) -> &QuantizedGenerator {
        &self.gen
    }

    /// Heat maps for many inputs from one stacked forward — infallible,
    /// and inherent so that `pop-serve`'s replica calls it without going
    /// through the [`Forecaster`] trait (whose other implementors block).
    pub fn forecast_stacked(&self, xs: &[&Tensor]) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        self.gen.forward(&Tensor::stack_batch(xs)).split_batch()
    }
}

impl Forecaster for QuantizedForecaster {
    fn forecast(&self, x: &Tensor) -> Result<Tensor, CoreError> {
        Ok(self.gen.forward(x))
    }

    fn forecast_batch(&self, xs: &[&Tensor]) -> Result<Vec<Tensor>, CoreError> {
        Ok(self.forecast_stacked(xs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Pair, PairMeta};
    use crate::{ExclusiveForecaster, ExperimentConfig, MetricSet, Pix2Pix};

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
    fn quantized_forward_tracks_f32_generator() {
        let cfg = tiny_config();
        let mut model = Pix2Pix::new(&cfg, 21).unwrap();
        let q = model.quantized();
        let x = Tensor::randn([2, cfg.input_channels(), 16, 16], 0.0, 0.5, 22);
        let want = model.forecast(&x);
        let got = q.forecast(&x).unwrap();
        assert_eq!(got.shape(), want.shape());
        // Tanh output is in [-1, 1]; the stacked quantization error through
        // a few layers stays a small fraction of that range.
        let worst = got
            .data()
            .iter()
            .zip(want.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 0.1, "worst quantized deviation {worst}");
    }

    #[test]
    fn quantized_batch_matches_per_sample() {
        let cfg = tiny_config();
        let model = Pix2Pix::new(&cfg, 23).unwrap();
        let q = model.quantized();
        let xs: Vec<Tensor> = (0..3)
            .map(|s| Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, 30 + s))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let batched = q.forecast_batch(&refs).unwrap();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(batched[i], q.forecast(x).unwrap(), "sample {i}");
        }
    }

    /// The accuracy gate: on a held-out split, every `MetricSet` column of
    /// the quantized forecaster must sit within a small delta of the f32
    /// model's. This is the documented tolerance `BENCH_kernels.json`
    /// reports against and the CI kernels step enforces.
    #[test]
    fn quantized_accuracy_gate() {
        let cfg = tiny_config();
        let mut model = Pix2Pix::new(&cfg, 25).unwrap();
        let train: Vec<Pair> = (0..6).map(|s| synthetic_pair(&cfg, 100 + s)).collect();
        let _ = model.train(&train, 30);
        let holdout: Vec<Pair> = (0..8).map(|s| synthetic_pair(&cfg, 900 + s)).collect();

        let metrics = MetricSet::from_config(&cfg);
        let quant = model.quantized();
        let f32_report = metrics
            .evaluate_pairs(&ExclusiveForecaster::new(&mut model), &holdout, 0, 0)
            .map(|evals| metrics.summarize(&evals))
            .unwrap();
        let q_report = metrics
            .evaluate_pairs(&quant, &holdout, 0, 0)
            .map(|evals| metrics.summarize(&evals))
            .unwrap();

        let d_acc = (f32_report.accuracy - q_report.accuracy).abs();
        let d_nrms = (f32_report.nrms - q_report.nrms).abs();
        assert!(
            d_acc <= 0.02,
            "quantized accuracy delta {d_acc} exceeds 0.02 \
             (f32 {}, quantized {})",
            f32_report.accuracy,
            q_report.accuracy
        );
        assert!(
            d_nrms <= 0.02,
            "quantized NRMS delta {d_nrms} exceeds 0.02 \
             (f32 {}, quantized {})",
            f32_report.nrms,
            q_report.nrms
        );
    }
}
