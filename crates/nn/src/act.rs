use crate::tensor::Tensor;
use crate::Layer;

/// `f` applied to every element: one allocation (the output), one pass.
fn map(x: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    Tensor::from_vec(x.shape(), x.data().iter().map(|&v| f(v)).collect())
}

/// A backward pass: `f(gradient, cached)` per element, into a new tensor of
/// the gradient's shape. Every output element is stored once,
/// unconditionally, so a derivative written as `if … { a } else { b }` is a
/// select the loop vectorises, not a branch on a random sign.
fn map_grad(grad: &Tensor, cached: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(grad.shape(), cached.shape(), "backward shape mismatch");
    let dx = grad.data().iter().zip(cached.data());
    Tensor::from_vec(grad.shape(), dx.map(|(&g, &c)| f(g, c)).collect())
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

impl LeakyRelu {
    /// The forward of `x`, which it keeps in `input` for the backward pass
    /// — taken by value, so a caller done with `x` hands it over uncopied.
    pub fn forward_pass(&self, x: Tensor, input: &mut Option<Tensor>) -> Tensor {
        let alpha = self.alpha;
        let y = map(&x, |v| if v < 0.0 { v * alpha } else { v });
        *input = Some(x);
        y
    }

    /// The input gradient of the forward that filled `input`.
    ///
    /// # Panics
    ///
    /// Panics when `input` holds no forward.
    pub fn backward_pass(&self, input: &mut Option<Tensor>, grad_out: &Tensor) -> Tensor {
        let x = input
            .take()
            .expect("LeakyRelu::backward called before forward");
        // The sign is read off the input, not the output: `α·x` of a
        // negative subnormal can round to `−0.0`, which is not `< 0`.
        let alpha = self.alpha;
        map_grad(grad_out, &x, |g, x| if x < 0.0 { g * alpha } else { g })
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut input = None;
        let y = self.forward_pass(x.clone(), &mut input);
        self.cached_input = input;
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut input = self.cached_input.take();
        self.backward_pass(&mut input, grad_out)
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
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_input = Some(x.clone());
        map(x, |v| if v < 0.0 { 0.0 } else { v })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("Relu::backward called before forward");
        map_grad(grad_out, &x, |g, x| if x <= 0.0 { 0.0 } else { g })
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
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = map(x, f32::tanh);
        self.cached_output = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("Tanh::backward called before forward");
        map_grad(grad_out, &y, |g, y| g * (1.0 - y * y))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `len` values that stress a sign test: ±0.0, ±∞, NaN, negative
    /// subnormals (at `−1` and `−2` ulps `0.2·x` rounds to `−0.0`), the
    /// smallest positive subnormal, `−1`, and arbitrary bit patterns.
    pub(crate) fn awkward(seed: u64, len: usize) -> Vec<f32> {
        const SPECIAL: [f32; 10] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -1.4e-45,
            -2.8e-45,
            -4.2e-45,
            1.4e-45,
            -1.0,
        ];
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 3 {
                    0 => SPECIAL[(state >> 8) as usize % SPECIAL.len()],
                    _ => f32::from_bits((state >> 32) as u32),
                }
            })
            .collect()
    }

    /// Bit patterns, every NaN as one: which of two NaN operands a product
    /// returns depends on the operand order the compiler picks, and Rust
    /// leaves a NaN result's sign and payload unspecified.
    pub(crate) fn bits(t: &Tensor) -> Vec<u32> {
        let canonical = |v: f32| if v.is_nan() { f32::NAN } else { v };
        t.data().iter().map(|&v| canonical(v).to_bits()).collect()
    }

    /// The backward loops the select form replaced: copy the gradient, then
    /// patch it element by element (for the rectifiers, under a branch).
    fn patched(grad: &Tensor, cached: &Tensor, patch: impl Fn(&mut f32, f32)) -> Tensor {
        let mut dx = grad.clone();
        for (g, &c) in dx.data_mut().iter_mut().zip(cached.data()) {
            patch(g, c);
        }
        dx
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every activation's backward equals the loop it replaced, bit
        /// for bit, at batch 1 and 2 over signed zeros, infinities, NaN
        /// and negative subnormals, in the gradient and in the input.
        #[test]
        fn backward_is_the_patching_loop_bit_for_bit(
            n in 1usize..=2,
            c in 1usize..=3,
            h in 1usize..=9,
            w in 1usize..=9,
            seed in 0u64..u64::MAX,
        ) {
            let shape = [n, c, h, w];
            let len = n * c * h * w;
            let x = Tensor::from_vec(shape, awkward(seed, len));
            let g = Tensor::from_vec(shape, awkward(seed.rotate_left(29), len));

            let mut leaky = LeakyRelu::new(0.2);
            let _ = leaky.forward(&x);
            let want = patched(&g, &x, |g, x| {
                if x < 0.0 {
                    *g *= 0.2;
                }
            });
            prop_assert_eq!(bits(&leaky.backward(&g)), bits(&want), "LeakyRelu");

            let mut relu = Relu::new();
            let _ = relu.forward(&x);
            let want = patched(&g, &x, |g, x| {
                if x <= 0.0 {
                    *g = 0.0;
                }
            });
            prop_assert_eq!(bits(&relu.backward(&g)), bits(&want), "Relu");

            let mut tanh = Tanh::new();
            let y = tanh.forward(&x);
            let want = patched(&g, &y, |g, y| *g *= 1.0 - y * y);
            prop_assert_eq!(bits(&tanh.backward(&g)), bits(&want), "Tanh");
        }
    }

    /// A negative subnormal input whose forward rounds to `−0.0` still
    /// takes the negative slope's derivative.
    #[test]
    fn leaky_relu_grad_follows_the_input_sign_not_the_output() {
        let mut act = LeakyRelu::new(0.2);
        let x = Tensor::from_vec([1, 1, 1, 2], vec![-1.4e-45, -0.0]);
        let y = act.forward(&x);
        assert_eq!(bits(&y), [(-0.0f32).to_bits(); 2]);
        let dx = act.backward(&Tensor::full([1, 1, 1, 2], 1.0));
        assert_eq!(dx.data(), &[0.2, 1.0]);
    }

    #[test]
    fn leaky_relu_values_and_grad() {
        let mut act = LeakyRelu::new(0.2);
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-2.0, -0.5, 0.5, 2.0]);
        let y = act.forward(&x);
        assert_eq!(y.data(), &[-0.4, -0.1, 0.5, 2.0]);
        let g = Tensor::full([1, 1, 1, 4], 1.0);
        let dx = act.backward(&g);
        assert_eq!(dx.data(), &[0.2, 0.2, 1.0, 1.0]);
    }

    #[test]
    fn relu_values_and_grad() {
        let mut act = Relu::new();
        let x = Tensor::from_vec([1, 1, 1, 3], vec![-1.0, 0.0, 2.0]);
        let y = act.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let dx = act.backward(&Tensor::full([1, 1, 1, 3], 3.0));
        assert_eq!(dx.data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn tanh_range_and_grad() {
        let mut act = Tanh::new();
        let x = Tensor::from_vec([1, 1, 1, 3], vec![-10.0, 0.0, 10.0]);
        let y = act.forward(&x);
        assert!(y.data()[0] > -1.0001 && y.data()[0] < -0.999);
        assert_eq!(y.data()[1], 0.0);
        let dx = act.backward(&Tensor::full([1, 1, 1, 3], 1.0));
        // d tanh at 0 is 1; at ±10 almost 0.
        assert!((dx.data()[1] - 1.0).abs() < 1e-6);
        assert!(dx.data()[0] < 1e-6);
    }
}
