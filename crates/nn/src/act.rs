use crate::tensor::Tensor;
use crate::Layer;

/// `f` applied to every element: one allocation (the output), one pass.
fn map(x: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    Tensor::from_vec(x.shape(), x.data().iter().map(|&v| f(v)).collect())
}

/// Leaky rectified linear unit, `max(x, α·x)`. The paper's encoder (and the
/// discriminator) use `α = 0.2`, the pix2pix convention.
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    alpha: f32,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with negative slope `alpha`.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu {
            alpha,
            cached_input: None,
        }
    }

    /// The negative slope.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl Default for LeakyRelu {
    /// The pix2pix slope, 0.2.
    fn default() -> Self {
        LeakyRelu::new(0.2)
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        // The input is kept only for a backward pass.
        self.cached_input = train.then(|| x.clone());
        let alpha = self.alpha;
        map(x, |v| if v < 0.0 { v * alpha } else { v })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("LeakyRelu::backward called before forward");
        let mut dx = grad_out.clone();
        for (g, xv) in dx.data_mut().iter_mut().zip(x.data()) {
            if *xv < 0.0 {
                *g *= self.alpha;
            }
        }
        dx
    }
}

/// Rectified linear unit — the decoder activation of Figure 5.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.cached_input = train.then(|| x.clone());
        map(x, |v| if v < 0.0 { 0.0 } else { v })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("Relu::backward called before forward");
        let mut dx = grad_out.clone();
        for (g, xv) in dx.data_mut().iter_mut().zip(x.data()) {
            if *xv <= 0.0 {
                *g = 0.0;
            }
        }
        dx
    }
}

/// Hyperbolic tangent — the generator's output activation (images live in
/// `[−1, 1]` during training).
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = map(x, f32::tanh);
        self.cached_output = train.then(|| y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("Tanh::backward called before forward");
        let mut dx = grad_out.clone();
        for (g, yv) in dx.data_mut().iter_mut().zip(y.data()) {
            *g *= 1.0 - yv * yv;
        }
        dx
    }
}

/// Logistic sigmoid — the discriminator's final "true/fake" squashing
/// ("followed by sigmoid function for binary classification", §4.3).
///
/// Training uses [`loss::bce_with_logits`](crate::loss::bce_with_logits)
/// *instead of* this layer for numerical stability; the layer exists for
/// inference-time probability readout.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = map(x, |v| 1.0 / (1.0 + (-v).exp()));
        self.cached_output = train.then(|| y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("Sigmoid::backward called before forward");
        let mut dx = grad_out.clone();
        for (g, yv) in dx.data_mut().iter_mut().zip(y.data()) {
            *g *= yv * (1.0 - yv);
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaky_relu_values_and_grad() {
        let mut act = LeakyRelu::new(0.2);
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-2.0, -0.5, 0.5, 2.0]);
        let y = act.forward(&x, true);
        assert_eq!(y.data(), &[-0.4, -0.1, 0.5, 2.0]);
        let g = Tensor::full([1, 1, 1, 4], 1.0);
        let dx = act.backward(&g);
        assert_eq!(dx.data(), &[0.2, 0.2, 1.0, 1.0]);
    }

    #[test]
    fn relu_values_and_grad() {
        let mut act = Relu::new();
        let x = Tensor::from_vec([1, 1, 1, 3], vec![-1.0, 0.0, 2.0]);
        let y = act.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let dx = act.backward(&Tensor::full([1, 1, 1, 3], 3.0));
        assert_eq!(dx.data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn tanh_range_and_grad() {
        let mut act = Tanh::new();
        let x = Tensor::from_vec([1, 1, 1, 3], vec![-10.0, 0.0, 10.0]);
        let y = act.forward(&x, true);
        assert!(y.data()[0] > -1.0001 && y.data()[0] < -0.999);
        assert_eq!(y.data()[1], 0.0);
        let dx = act.backward(&Tensor::full([1, 1, 1, 3], 1.0));
        // d tanh at 0 is 1; at ±10 almost 0.
        assert!((dx.data()[1] - 1.0).abs() < 1e-6);
        assert!(dx.data()[0] < 1e-6);
    }

    #[test]
    fn sigmoid_values() {
        let mut act = Sigmoid::new();
        let x = Tensor::from_vec([1, 1, 1, 3], vec![-100.0, 0.0, 100.0]);
        let y = act.forward(&x, true);
        assert!(y.data()[0] < 1e-6);
        assert_eq!(y.data()[1], 0.5);
        assert!(y.data()[2] > 1.0 - 1e-6);
        let dx = act.backward(&Tensor::full([1, 1, 1, 3], 1.0));
        assert!((dx.data()[1] - 0.25).abs() < 1e-6);
    }
}
