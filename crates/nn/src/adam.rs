use crate::param::Param;

/// The Adam optimiser with bias correction.
///
/// [`Adam::paper`] uses the paper's hyper-parameters: learning rate
/// `2·10⁻⁴`, `β₁ = 0.5`, `β₂ = 0.999`, `ε = 10⁻⁸` (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Creates an optimiser with explicit hyper-parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
        }
    }

    /// The paper's settings: `Adam(2e-4, 0.5, 0.999, 1e-8)`.
    pub fn paper() -> Self {
        Adam::new(2e-4, 0.5, 0.999, 1e-8)
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restores the step count (bias-correction position) from a
    /// checkpoint, so a resumed optimiser warms exactly where it left off.
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Applies one update to every parameter from its accumulated gradient
    /// and **clears each gradient it reads**: every `grad` is `0.0` when
    /// this returns, ready for the next accumulation, so a training loop
    /// needs no [`Layer::zero_grad`](crate::Layer::zero_grad) between steps.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        // `powi` takes an `i32`; saturate rather than wrap so a restored
        // step count above `i32::MAX` cannot turn βᵗ into β⁻ⁿ.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let bc = (1.0 - self.beta1.powi(t), 1.0 - self.beta2.powi(t));
        // `x / 1.0 == x` for every `x`, so once β₁'s correction has rounded
        // to 1.0 (β₁ = 0.5 from step 25 on) its divide is dropped and the
        // bits stay those of the divide.
        let update: fn(&Adam, (f32, f32), &mut [&mut Param]) = if bc.0 == 1.0 {
            fused::<false>
        } else {
            fused::<true>
        };
        let adam = &*self;
        let update = |params: &mut [&mut Param]| update(adam, bc, params);
        // A scalar's update reads and writes that scalar's own value,
        // moments and gradient and nothing else, so any two parts of the
        // list are independent: cut it where half the scalars lie (the
        // pass is memory-bound; a second core is a second stream).
        let total: usize = params.iter().map(|p| p.len()).sum();
        let (mut cut, mut head_len) = (0, 0);
        while cut < params.len() && 2 * head_len + params[cut].len() <= total {
            head_len += params[cut].len();
            cut += 1;
        }
        let (head, tail) = params.split_at_mut(cut);
        pop_exec::join(|| update(head), || update(tail));
    }
}

/// One pass per parameter over `(value, m, v, grad)`: the moments are
/// updated and consumed in registers, with the same per-element
/// expressions (and so the same roundings) as three separate loops, and
/// the gradient is cleared behind the read. `DIV_M` says whether β₁'s bias
/// correction still divides.
fn fused<const DIV_M: bool>(adam: &Adam, (bc1, bc2): (f32, f32), params: &mut [&mut Param]) {
    let Adam {
        lr,
        beta1,
        beta2,
        eps,
        ..
    } = *adam;
    for p in params.iter_mut() {
        let moments = p.m.data_mut().iter_mut().zip(p.v.data_mut());
        let weights = p.value.data_mut().iter_mut().zip(p.grad.data_mut());
        for ((m, v), (w, g)) in moments.zip(weights) {
            let g = std::mem::take(g);
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = if DIV_M { *m / bc1 } else { *m };
            let vhat = *v / bc2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimising f(w) = (w − 3)² with Adam converges to 3.
    #[test]
    fn converges_on_quadratic() {
        let mut p = Param::new(Tensor::zeros([1, 1, 1, 1]));
        let mut adam = Adam::new(0.1, 0.9, 0.999, 1e-8);
        for _ in 0..500 {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (w - 3.0);
            adam.step(&mut [&mut p]);
        }
        let w = p.value.data()[0];
        assert!((w - 3.0).abs() < 0.05, "w = {w}");
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step ≈ lr · sign(g).
        let mut p = Param::new(Tensor::zeros([1, 1, 1, 1]));
        p.grad.data_mut()[0] = 0.37;
        let mut adam = Adam::new(0.01, 0.9, 0.999, 1e-8);
        adam.step(&mut [&mut p]);
        let w = p.value.data()[0];
        assert!((w + 0.01).abs() < 1e-4, "w = {w}");
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn paper_hyperparameters() {
        let a = Adam::paper();
        assert_eq!(a.lr, 2e-4);
        assert_eq!(a.beta1, 0.5);
        assert_eq!(a.beta2, 0.999);
        assert_eq!(a.eps, 1e-8);
    }

    #[test]
    fn zero_grad_gives_zero_update_after_warmup() {
        let mut p = Param::new(Tensor::full([1, 1, 1, 1], 5.0));
        let mut adam = Adam::new(0.1, 0.9, 0.999, 1e-8);
        adam.step(&mut [&mut p]); // g = 0 throughout
        assert_eq!(p.value.data()[0], 5.0);
    }

    /// The three-loop formulation `step` replaced (gradient copy, one pass
    /// per moment, indexed update), kept here as the bitwise reference.
    fn three_loop_step(adam: &Adam, t: u64, p: &mut Param) {
        let bc1 = 1.0 - adam.beta1.powi(t as i32);
        let bc2 = 1.0 - adam.beta2.powi(t as i32);
        let g = p.grad.data().to_vec();
        for (mv, &gv) in p.m.data_mut().iter_mut().zip(&g) {
            *mv = adam.beta1 * *mv + (1.0 - adam.beta1) * gv;
        }
        for (vv, &gv) in p.v.data_mut().iter_mut().zip(&g) {
            *vv = adam.beta2 * *vv + (1.0 - adam.beta2) * gv * gv;
        }
        for i in 0..g.len() {
            let mhat = p.m.data()[i] / bc1;
            let vhat = p.v.data()[i] / bc2;
            p.value.data_mut()[i] -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
        }
    }

    #[test]
    fn fused_pass_is_bitwise_the_three_loop_formulation() {
        let mut fused = Param::randn([1, 10, 10, 10], 0.02, 5);
        let mut reference = fused.clone();
        let mut adam = Adam::paper();
        for step in 1..=5u64 {
            let grad = Tensor::randn([1, 10, 10, 10], 0.0, 0.3, 100 + step);
            fused.grad = grad.clone();
            reference.grad = grad;
            three_loop_step(&adam, step, &mut reference);
            adam.step(&mut [&mut fused]);
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (name, a, b) in [
                ("value", &fused.value, &reference.value),
                ("m", &fused.m, &reference.m),
                ("v", &fused.v, &reference.v),
            ] {
                assert_eq!(bits(a), bits(b), "{name} after step {step}");
            }
        }
    }

    /// With the paper's betas, steps 1..=40 cross step 25, where β₁'s
    /// correction rounds to 1.0 and its divide is dropped; resumed at step
    /// 20 000 both corrections are 1.0 (β₂'s still divides, by 1.0). Every
    /// step equals the three-loop reference bit for bit, and leaves every
    /// gradient exactly `+0.0`.
    #[test]
    fn every_correction_branch_is_the_three_loop_formulation_and_clears_grads() {
        assert_ne!(1.0 - 0.5f32.powi(24), 1.0);
        assert_eq!(1.0 - 0.5f32.powi(25), 1.0);
        assert_ne!(1.0 - 0.999f32.powi(40), 1.0);
        assert_eq!(1.0 - 0.999f32.powi(20_001), 1.0);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (mut adam, start, steps) in [(Adam::paper(), 0u64, 40u64), (Adam::paper(), 20_000, 5)] {
            let mut fused = [
                Param::randn([1, 3, 7, 7], 0.02, 5),
                Param::randn([2, 1, 4, 4], 0.02, 6),
            ];
            let mut reference = fused.clone();
            adam.set_steps(start);
            for t in start + 1..=start + steps {
                for (i, (f, r)) in fused.iter_mut().zip(&mut reference).enumerate() {
                    let grad = Tensor::randn(f.value.shape(), 0.0, 0.3, 100 * t + i as u64);
                    f.grad = grad.clone();
                    r.grad = grad;
                    three_loop_step(&adam, t, r);
                }
                adam.step(&mut fused.iter_mut().collect::<Vec<_>>());
                for (f, r) in fused.iter().zip(&reference) {
                    assert_eq!(bits(&f.value), bits(&r.value), "value after step {t}");
                    assert_eq!(bits(&f.m), bits(&r.m), "m after step {t}");
                    assert_eq!(bits(&f.v), bits(&r.v), "v after step {t}");
                    assert!(
                        f.grad.data().iter().all(|g| g.to_bits() == 0),
                        "grad not cleared after step {t}"
                    );
                }
            }
        }
    }

    /// A checkpoint can restore any `u64` step count. `t as i32` used to
    /// wrap (`u64::MAX` → `-1`), making the bias corrections `1 − β⁻¹`
    /// (−1 for β₁ = 0.5) and flipping the update's sign; the saturated cast
    /// behaves like step `i32::MAX`, where βᵗ has long underflowed to 0.
    #[test]
    fn step_count_beyond_i32_saturates_instead_of_wrapping() {
        let step_from = |t: u64| {
            let mut p = Param::new(Tensor::full([1, 1, 1, 1], 1.0));
            p.grad.data_mut()[0] = 0.5;
            let mut adam = Adam::new(0.1, 0.5, 0.999, 1e-8);
            adam.set_steps(t);
            adam.step(&mut [&mut p]);
            (adam.steps(), p.value.data()[0])
        };
        let (steps, w) = step_from(u64::MAX - 1);
        assert_eq!(steps, u64::MAX);
        assert_eq!(w, step_from(i32::MAX as u64 - 1).1);
        assert!(w < 1.0, "a positive gradient must descend, got {w}");
    }
}
