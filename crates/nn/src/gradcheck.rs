//! Finite-difference gradient verification.
//!
//! Used by the test suites of this crate and of
//! [`pop-core`](../pop_core/index.html) to prove every layer's hand-written
//! backward pass against central differences. The probe loss is
//! `L = Σ y ⊙ r` for a fixed random `r`, whose exact output-gradient is `r`.

use crate::tensor::Tensor;
use crate::Layer;

/// Result of one gradient check: largest absolute and relative deviation
/// observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheck {
    /// Largest |analytic − numeric| over all probed coordinates.
    pub max_abs_err: f32,
    /// Largest |analytic − numeric| / max(|analytic|, |numeric|, 1e-4).
    pub max_rel_err: f32,
}

impl GradCheck {
    /// Whether both deviations are within tolerance.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err < tol || self.max_rel_err < tol
    }
}

fn probe_loss<L: Layer>(layer: &mut L, x: &Tensor, r: &Tensor) -> f64 {
    let y = layer.forward(x);
    assert_eq!(y.shape(), r.shape(), "probe shape");
    y.data()
        .iter()
        .zip(r.data())
        .map(|(a, b)| *a as f64 * *b as f64)
        .sum()
}

/// Checks the input gradient of `layer` at `x` against central differences
/// on `samples` evenly spaced coordinates.
///
/// The layer must be deterministic across forward calls (no dropout with
/// `p > 0`).
pub fn check_input_grad<L: Layer>(
    layer: &mut L,
    x: &Tensor,
    eps: f32,
    samples: usize,
) -> GradCheck {
    // Output-gradient probe r: fixed pseudo-random pattern.
    let y = layer.forward(x);
    let r = Tensor::randn(y.shape(), 0.0, 1.0, 0x5eed);
    // Analytic gradient.
    let _ = layer.forward(x);
    let dx = layer.backward(&r);

    let mut worst = GradCheck {
        max_abs_err: 0.0,
        max_rel_err: 0.0,
    };
    let n = x.len();
    let step = (n / samples.max(1)).max(1);
    for i in (0..n).step_by(step) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let lp = probe_loss(layer, &xp, &r);
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lm = probe_loss(layer, &xm, &r);
        let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
        let analytic = dx.data()[i];
        accumulate(&mut worst, analytic, numeric);
    }
    worst
}

/// Checks the parameter gradients of `layer` at `x` against central
/// differences on up to `samples` coordinates per parameter.
pub fn check_param_grads<L: Layer>(
    layer: &mut L,
    x: &Tensor,
    eps: f32,
    samples: usize,
) -> GradCheck {
    let y = layer.forward(x);
    let r = Tensor::randn(y.shape(), 0.0, 1.0, 0x5eed);
    layer.zero_grad();
    let _ = layer.forward(x);
    let _ = layer.backward(&r);
    let analytic: Vec<Vec<f32>> = layer
        .params_mut()
        .iter()
        .map(|p| p.grad.data().to_vec())
        .collect();

    let mut worst = GradCheck {
        max_abs_err: 0.0,
        max_rel_err: 0.0,
    };
    for (pi, grads) in analytic.iter().enumerate() {
        let plen = grads.len();
        let step = (plen / samples.max(1)).max(1);
        for i in (0..plen).step_by(step) {
            perturb(layer, pi, i, eps);
            let lp = probe_loss(layer, x, &r);
            perturb(layer, pi, i, -2.0 * eps);
            let lm = probe_loss(layer, x, &r);
            perturb(layer, pi, i, eps); // restore
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            accumulate(&mut worst, grads[i], numeric);
        }
    }
    worst
}

fn perturb<L: Layer>(layer: &mut L, pi: usize, i: usize, delta: f32) {
    let mut params = layer.params_mut();
    params[pi].value.data_mut()[i] += delta;
}

fn accumulate(worst: &mut GradCheck, analytic: f32, numeric: f32) {
    let abs = (analytic - numeric).abs();
    let rel = abs / analytic.abs().max(numeric.abs()).max(1e-4);
    worst.max_abs_err = worst.max_abs_err.max(abs);
    worst.max_rel_err = worst.max_rel_err.max(rel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, ConvTranspose2d, LeakyRelu, Relu, Tanh};

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    #[test]
    fn conv2d_gradients() {
        let mut layer = Conv2d::new(2, 3, 4, 2, 1, 11);
        let x = Tensor::randn([1, 2, 8, 8], 0.0, 1.0, 12);
        let gi = check_input_grad(&mut layer, &x, EPS, 40);
        assert!(gi.passes(TOL), "input: {gi:?}");
        let gp = check_param_grads(&mut layer, &x, EPS, 30);
        assert!(gp.passes(TOL), "params: {gp:?}");
    }

    #[test]
    fn conv_transpose2d_gradients() {
        let mut layer = ConvTranspose2d::new(3, 2, 4, 2, 1, 13);
        let x = Tensor::randn([1, 3, 4, 4], 0.0, 1.0, 14);
        let gi = check_input_grad(&mut layer, &x, EPS, 40);
        assert!(gi.passes(TOL), "input: {gi:?}");
        let gp = check_param_grads(&mut layer, &x, EPS, 30);
        assert!(gp.passes(TOL), "params: {gp:?}");
    }

    #[test]
    fn batchnorm_gradients() {
        let mut layer = BatchNorm2d::new(3);
        let x = Tensor::randn([2, 3, 5, 5], 0.5, 1.5, 15);
        let gi = check_input_grad(&mut layer, &x, EPS, 40);
        assert!(gi.passes(TOL), "input: {gi:?}");
        let gp = check_param_grads(&mut layer, &x, EPS, 12);
        assert!(gp.passes(TOL), "params: {gp:?}");
    }

    #[test]
    fn activation_gradients() {
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, 16);
        let gi = check_input_grad(&mut LeakyRelu::default(), &x, 1e-3, 30);
        assert!(gi.passes(TOL), "leaky: {gi:?}");
        let gi = check_input_grad(&mut Relu::new(), &x, 1e-3, 30);
        assert!(gi.passes(TOL), "relu: {gi:?}");
        let gi = check_input_grad(&mut Tanh::new(), &x, EPS, 30);
        assert!(gi.passes(TOL), "tanh: {gi:?}");
    }

    #[test]
    fn stride_one_conv_gradients() {
        // The discriminator's final layers use stride-1 convolutions.
        let mut layer = Conv2d::new(2, 1, 4, 1, 1, 17);
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, 18);
        let gi = check_input_grad(&mut layer, &x, EPS, 40);
        assert!(gi.passes(TOL), "input: {gi:?}");
    }
}
