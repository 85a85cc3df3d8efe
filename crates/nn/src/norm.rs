use crate::lower::Norm;
use crate::param::Param;
use crate::tensor::Tensor;
use crate::Layer;

/// What a batch-norm training forward leaves: `x̂` and `1/σ` for the
/// backward pass, and the batch statistics until
/// [`BatchNorm2d::commit`] moves the running ones by them.
///
/// [`BatchNorm2d::forward_pass`] fills one, so a caller that keeps its own
/// can run several passes of one layer at once and commit their statistics
/// in the order it chooses; the [`Layer`] impl keeps one in the layer and
/// commits at once.
#[derive(Debug, Clone, Default)]
pub struct NormCache {
    xhat: Option<Tensor>,
    inv_std: Vec<f32>,
    mean: Vec<f32>,
    var: Vec<f32>,
}

/// 2-D batch normalisation over `(N, H, W)` per channel.
///
/// Figure 5's discriminator uses "convolutional layers (with batch
/// normalization)"; the pix2pix generator batch-norms every encoder/decoder
/// block except the first and the innermost. With the paper's batch size of
/// 1 this behaves like instance normalisation, which is exactly how pix2pix
/// is trained.
///
/// The forward normalises by the batch's statistics and moves running
/// estimates of them (momentum 0.1); inference reads those out through
/// [`BatchNorm2d::inference_norm`] into a planned block's epilogue.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: NormCache,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps
    /// (`γ = 1`, `β = 0`, `ε = 1e-5`).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::full([1, channels, 1, 1], 1.0)),
            beta: Param::new(Tensor::zeros([1, channels, 1, 1])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: NormCache::default(),
        }
    }

    /// Number of channels this layer normalises.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The inference transform per channel: the running statistics and
    /// the affine, unfolded (`γ·((v − mean)·inv_std) + β`, see
    /// [`Norm::apply`]).
    pub fn inference_norm(&self) -> Vec<Norm> {
        (0..self.channels)
            .map(|c| Norm {
                mean: self.running_mean[c],
                inv_std: 1.0 / (self.running_var[c] + self.eps).sqrt(),
                gamma: self.gamma.value.data()[c],
                beta: self.beta.value.data()[c],
            })
            .collect()
    }

    /// The inference transform as a per-channel affine
    /// `y = scale·x + shift` (running statistics baked in) — what a
    /// quantized convolution folds into its weights.
    pub fn inference_affine(&self) -> (Vec<f32>, Vec<f32>) {
        let mut scale = vec![0.0f32; self.channels];
        let mut shift = vec![0.0f32; self.channels];
        for c in 0..self.channels {
            let inv_std = 1.0 / (self.running_var[c] + self.eps).sqrt();
            let g = self.gamma.value.data()[c];
            scale[c] = g * inv_std;
            shift[c] = self.beta.value.data()[c] - g * self.running_mean[c] * inv_std;
        }
        (scale, shift)
    }

    /// The training forward, normalising by the batch's statistics and
    /// reading only the affine: what the backward pass and [`Self::commit`]
    /// need goes to `cache`. The running statistics do not move.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have this layer's channel count.
    pub fn forward_pass(&self, x: &Tensor, cache: &mut NormCache) -> Tensor {
        assert_eq!(x.c(), self.channels, "channel count");
        let [n, c, h, w] = x.shape();
        let plane = h * w;
        let m = (n * h * w) as f32;
        let mut y = Tensor::zeros(x.shape());
        let mut xhat = Tensor::zeros(x.shape());
        for v in [&mut cache.inv_std, &mut cache.mean, &mut cache.var] {
            v.resize(c, 0.0);
        }
        for ci in 0..c {
            let mut sum = 0.0f64;
            for b in 0..n {
                let s = &x.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                sum += s.iter().map(|&v| v as f64).sum::<f64>();
            }
            let mean = (sum / m as f64) as f32;
            let mut var_sum = 0.0f64;
            for b in 0..n {
                let s = &x.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                var_sum += s
                    .iter()
                    .map(|&v| {
                        let d = (v - mean) as f64;
                        d * d
                    })
                    .sum::<f64>();
            }
            let var = (var_sum / m as f64) as f32;
            cache.mean[ci] = mean;
            cache.var[ci] = var;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            cache.inv_std[ci] = inv_std;
            let g = self.gamma.value.data()[ci];
            let bta = self.beta.value.data()[ci];
            for b in 0..n {
                let src = &x.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                let xh = &mut xhat.data_mut()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                for (o, &v) in xh.iter_mut().zip(src) {
                    *o = (v - mean) * inv_std;
                }
            }
            for b in 0..n {
                let xh = &xhat.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                let dst = &mut y.data_mut()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                for (o, &v) in dst.iter_mut().zip(xh) {
                    *o = g * v + bta;
                }
            }
        }
        cache.xhat = Some(xhat);
        y
    }

    /// Moves the running statistics by the batch statistics of the forward
    /// that filled `cache` (momentum 0.1).
    ///
    /// # Panics
    ///
    /// Panics when `cache` holds no forward of this layer.
    pub fn commit(&mut self, cache: &NormCache) {
        assert_eq!(cache.mean.len(), self.channels, "a forward's statistics");
        let stats = self.running_mean.iter_mut().zip(&mut self.running_var);
        for ((rm, rv), (&mean, &var)) in stats.zip(cache.mean.iter().zip(&cache.var)) {
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
            *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
        }
    }

    /// The backward pass of the forward that filled `cache`: returns the
    /// input gradient and, given `grads` (`[γ, β]`-shaped, the order of
    /// [`Layer::params_mut`]), adds the affine's gradients onto them.
    ///
    /// # Panics
    ///
    /// Panics when `cache` holds no forward.
    pub fn backward_pass(
        &self,
        cache: &mut NormCache,
        grad_out: &Tensor,
        mut grads: Option<&mut [Tensor; 2]>,
    ) -> Tensor {
        let xhat = cache
            .xhat
            .take()
            .expect("BatchNorm2d::backward called before forward");
        let [n, c, h, w] = grad_out.shape();
        let m = (n * h * w) as f32;
        let plane = h * w;
        let mut dx = Tensor::zeros(grad_out.shape());
        for ci in 0..c {
            let g = self.gamma.value.data()[ci];
            let inv_std = cache.inv_std[ci];
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for b in 0..n {
                let dy = &grad_out.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                let xh = &xhat.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                for (yv, xv) in dy.iter().zip(xh) {
                    sum_dy += *yv as f64;
                    sum_dy_xhat += (*yv as f64) * (*xv as f64);
                }
            }
            if let Some([gamma, beta]) = grads.as_deref_mut() {
                beta.data_mut()[ci] += sum_dy as f32;
                gamma.data_mut()[ci] += sum_dy_xhat as f32;
            }
            let k = g * inv_std / m;
            for b in 0..n {
                let dy = &grad_out.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                let xh = &xhat.data()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                let dst = &mut dx.data_mut()[(b * c + ci) * plane..(b * c + ci + 1) * plane];
                for ((o, &yv), &xv) in dst.iter_mut().zip(dy).zip(xh) {
                    *o = k * (m * yv - sum_dy as f32 - xv * sum_dy_xhat as f32);
                }
            }
        }
        dx
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cache = std::mem::take(&mut self.cache);
        let y = self.forward_pass(x, &mut cache);
        self.commit(&cache);
        self.cache = cache;
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cache = std::mem::take(&mut self.cache);
        let mut grads = [
            std::mem::take(&mut self.gamma.grad),
            std::mem::take(&mut self.beta.grad),
        ];
        let dx = self.backward_pass(&mut cache, grad_out, Some(&mut grads));
        [self.gamma.grad, self.beta.grad] = grads;
        self.cache = cache;
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_output_is_normalised() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn([1, 2, 8, 8], 3.0, 2.0, 5);
        let y = bn.forward(&x);
        // Per-channel mean ~0, var ~1.
        let plane = 64;
        for c in 0..2 {
            let s = &y.data()[c * plane..(c + 1) * plane];
            let mean: f32 = s.iter().sum::<f32>() / plane as f32;
            let var: f32 = s.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / plane as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Train on a fixed distribution several times to move running stats.
        for seed in 0..30 {
            let x = Tensor::randn([1, 1, 16, 16], 5.0, 1.0, seed);
            let _ = bn.forward(&x);
        }
        // Eval on the same distribution: output should be near standard.
        let x = Tensor::randn([1, 1, 16, 16], 5.0, 1.0, 99);
        let norm = bn.inference_norm()[0];
        let mean = x.data().iter().map(|&v| norm.apply(v)).sum::<f32>() / x.len() as f32;
        assert!(mean.abs() < 0.5, "eval mean {mean}");
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value.data_mut()[0] = 2.0;
        bn.beta.value.data_mut()[0] = 1.0;
        let x = Tensor::randn([1, 1, 4, 4], 0.0, 1.0, 1);
        let y = bn.forward(&x);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 1e-4, "shifted mean {mean}");
    }

    #[test]
    fn backward_shapes_and_zero_mean_grad() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn([2, 3, 4, 4], 0.0, 1.0, 2);
        let _ = bn.forward(&x);
        let dy = Tensor::randn([2, 3, 4, 4], 0.0, 1.0, 3);
        let dx = bn.backward(&dy);
        assert_eq!(dx.shape(), x.shape());
        // BN input grads are zero-mean per channel (projection property).
        let plane = 16;
        for c in 0..3 {
            let mut s = 0.0f32;
            for b in 0..2 {
                s += dx.data()[(b * 3 + c) * plane..(b * 3 + c + 1) * plane]
                    .iter()
                    .sum::<f32>();
            }
            assert!(s.abs() < 1e-3, "channel {c} grad sum {s}");
        }
    }

    #[test]
    fn single_element_stats_do_not_nan() {
        let mut bn = BatchNorm2d::new(4);
        let x = Tensor::randn([1, 4, 1, 1], 0.0, 1.0, 7);
        let y = bn.forward(&x);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let dx = bn.backward(&Tensor::full([1, 4, 1, 1], 1.0));
        assert!(dx.data().iter().all(|v| v.is_finite()));
    }
}
