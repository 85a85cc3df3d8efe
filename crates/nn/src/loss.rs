//! Training losses for the conditional GAN objective.
//!
//! * [`bce_with_logits`] — the discriminator/generator adversarial loss
//!   (Equation 2), computed from raw logits with the numerically stable
//!   formulation so saturated discriminators do not produce infinities;
//! * [`l1_loss`] — the `λ · E‖g − G(x, z)‖₁` term that §5.3 shows is needed
//!   for clean heat maps.
//!
//! Every function returns `(scalar loss, gradient w.r.t. the first
//! argument)` with mean reduction.

use crate::tensor::Tensor;

/// Stable binary cross-entropy on logits against a constant target
/// (`1.0` = real, `0.0` = fake — the GAN labels).
///
/// `loss = mean(max(z, 0) − z·t + ln(1 + e^{−|z|}))`,
/// `∂loss/∂z = (σ(z) − t)/numel`.
pub fn bce_with_logits(logits: &Tensor, target: f32) -> (f32, Tensor) {
    let n = logits.len() as f32;
    let mut grad = Tensor::zeros(logits.shape());
    let mut total = 0.0f64;
    for (g, &z) in grad.data_mut().iter_mut().zip(logits.data()) {
        let loss = z.max(0.0) - z * target + (1.0 + (-z.abs()).exp()).ln();
        total += loss as f64;
        let sig = 1.0 / (1.0 + (-z).exp());
        *g = (sig - target) / n;
    }
    ((total / n as f64) as f32, grad)
}

/// Mean absolute error and its (sub)gradient w.r.t. `pred`.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn l1_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "l1 shape mismatch");
    let n = pred.len() as f32;
    // `−1/n` is `−(1/n)`: round-to-nearest is symmetric in sign.
    let step = 1.0 / n;
    let mut grad = Tensor::zeros(pred.shape());
    let mut total = 0.0f64;
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        total += d.abs() as f64;
        // The sign as −1, 0 or +1 (0 for NaN) from two compares, times the
        // step: no branch on the sign of a difference between two images.
        let sign = i32::from(d > 0.0) - i32::from(d < 0.0);
        *g = sign as f32 * step;
    }
    ((total / n as f64) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::tests::{awkward, bits};
    use proptest::prelude::*;

    #[test]
    fn bce_at_zero_logit() {
        let z = Tensor::zeros([1, 1, 1, 4]);
        let (loss, grad) = bce_with_logits(&z, 1.0);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
        // σ(0) − 1 = −0.5, averaged over 4.
        assert!(grad.data().iter().all(|&g| (g + 0.125).abs() < 1e-6));
    }

    #[test]
    fn bce_is_stable_for_large_logits() {
        let z = Tensor::from_vec([1, 1, 1, 2], vec![1000.0, -1000.0]);
        let (loss_real, g) = bce_with_logits(&z, 1.0);
        assert!(loss_real.is_finite());
        assert!(g.data().iter().all(|v| v.is_finite()));
        let (loss_fake, g2) = bce_with_logits(&z, 0.0);
        assert!(loss_fake.is_finite());
        assert!(g2.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let z = Tensor::from_vec([1, 1, 1, 3], vec![0.3, -0.7, 1.2]);
        let (_, grad) = bce_with_logits(&z, 1.0);
        let eps = 1e-3;
        for i in 0..3 {
            let mut zp = z.clone();
            zp.data_mut()[i] += eps;
            let mut zm = z.clone();
            zm.data_mut()[i] -= eps;
            let (lp, _) = bce_with_logits(&zp, 1.0);
            let (lm, _) = bce_with_logits(&zm, 1.0);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "i={i}: {num} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn l1_loss_values_and_grad() {
        let p = Tensor::from_vec([1, 1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let t = Tensor::from_vec([1, 1, 1, 4], vec![1.0, 0.0, 4.0, 4.0]);
        let (loss, grad) = l1_loss(&p, &t);
        assert!((loss - 0.75).abs() < 1e-6); // (0 + 2 + 1 + 0)/4
        assert_eq!(grad.data(), &[0.0, 0.25, -0.25, 0.0]);
    }

    /// The three-way branch `l1_loss`'s gradient was, kept as its oracle.
    fn l1_loss_branching(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        let n = pred.len() as f32;
        let mut grad = Tensor::zeros(pred.shape());
        let mut total = 0.0f64;
        for ((g, &p), &t) in grad
            .data_mut()
            .iter_mut()
            .zip(pred.data())
            .zip(target.data())
        {
            let d = p - t;
            total += d.abs() as f64;
            *g = if d > 0.0 {
                1.0 / n
            } else if d < 0.0 {
                -1.0 / n
            } else {
                0.0
            };
        }
        ((total / n as f64) as f32, grad)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Loss and gradient bits equal the branching loop's at batch 1
        /// and 2, over signed zeros, infinities (so `∞ − ∞`), NaN and
        /// subnormal differences.
        #[test]
        fn l1_is_the_branching_loop_bit_for_bit(
            n in 1usize..=2,
            c in 1usize..=3,
            side in 1usize..=9,
            seed in 0u64..u64::MAX,
        ) {
            let shape = [n, c, side, side];
            let len = n * c * side * side;
            let p = Tensor::from_vec(shape, awkward(seed, len));
            let mut t = Tensor::from_vec(shape, awkward(seed.rotate_left(17), len));
            // Ties too: every third target equals its prediction.
            for i in (0..len).step_by(3) {
                t.data_mut()[i] = p.data()[i];
            }
            let (loss, grad) = l1_loss(&p, &t);
            let (want_loss, want_grad) = l1_loss_branching(&p, &t);
            let loss_bits = |l: f32| bits(&Tensor::from_vec([1; 4], vec![l]));
            prop_assert_eq!(loss_bits(loss), loss_bits(want_loss));
            prop_assert_eq!(bits(&grad), bits(&want_grad));
        }
    }

    #[test]
    fn l1_identical_is_zero() {
        let p = Tensor::randn([1, 2, 3, 3], 0.0, 1.0, 8);
        let (loss, grad) = l1_loss(&p, &p);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }
}
