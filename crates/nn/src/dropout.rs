use crate::tensor::Tensor;
use crate::Layer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout.
///
/// pix2pix (and therefore this paper's generator) provides the GAN noise
/// `z` "only in the form of dropout, applied on several layers of the
/// generator" — there is no explicit noise vector input. The first decoder
/// blocks run dropout with `p = 0.5` at training time.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer dropping with probability `p`, deterministic
    /// in `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1)");
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed ^ 0xD80),
            cached_mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        if self.p == 0.0 {
            self.cached_mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(x.shape());
        for v in mask.data_mut() {
            *v = if self.rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        let mut y = x.clone();
        for (o, m) in y.data_mut().iter_mut().zip(mask.data()) {
            *o *= m;
        }
        self.cached_mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.cached_mask.take() {
            None => grad_out.clone(),
            Some(mask) => {
                let mut dx = grad_out.clone();
                for (g, m) in dx.data_mut().iter_mut().zip(mask.data()) {
                    *g *= m;
                }
                dx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_mode_zeroes_about_p_and_rescales() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full([1, 1, 64, 64], 1.0);
        let y = d.forward(&x);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / y.len() as f32;
        assert!((0.4..0.6).contains(&frac), "drop fraction {frac}");
        // Kept values are scaled by 2.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expectation preserved.
        assert!((y.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::full([1, 1, 8, 8], 1.0);
        let y = d.forward(&x);
        let dx = d.backward(&Tensor::full([1, 1, 8, 8], 1.0));
        for (yv, gv) in y.data().iter().zip(dx.data()) {
            assert_eq!(yv, gv, "mask must match between passes");
        }
    }

    #[test]
    fn zero_probability_is_identity_even_training() {
        let mut d = Dropout::new(0.0, 5);
        let x = Tensor::randn([1, 1, 4, 4], 0.0, 1.0, 6);
        assert_eq!(d.forward(&x), x);
    }
}
