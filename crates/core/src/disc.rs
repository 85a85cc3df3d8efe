use pop_nn::{Activation, Batch, BatchMut, BatchNorm2d, Conv2d, Layer, LeakyRelu, Param, Tensor};

/// The paper's discriminator (Figure 5, right half): a stack of
/// convolutional layers with batch normalisation, ending in a patch of
/// logits — "six layers convolutional layers (with batch normalization)
/// followed by sigmoid function for binary classification".
///
/// For the paper's 256×256 input the plan is
/// `(4+3)·256² → 64·128² → 128·64² → 256·32² → 512·31² → 1·30²`:
/// three stride-2 convolutions, one stride-1, and a stride-1 projection to
/// a 30×30 patch of real/fake decisions. Smaller resolutions reduce the
/// stride-2 count so the final patch stays at least 1×1.
///
/// Training feeds the [`Layer`] forward's raw logits to
/// [`bce_with_logits`](pop_nn::loss::bce_with_logits); [`Self::probability`]
/// reads out through planned blocks ([`Conv2d::plan`]), then the sigmoid.
#[derive(Debug, Clone)]
pub struct PatchDiscriminator {
    convs: Vec<Conv2d>,
    bns: Vec<Option<BatchNorm2d>>,
    acts: Vec<Option<LeakyRelu>>,
    in_channels: usize,
}

impl PatchDiscriminator {
    /// Builds a discriminator for `in_channels`-channel inputs of side
    /// `resolution`.
    ///
    /// # Panics
    ///
    /// Panics when the resolution is below 8 pixels.
    pub fn new(in_channels: usize, base_filters: usize, resolution: usize, seed: u64) -> Self {
        assert!(resolution >= 8, "discriminator needs at least 8x8 inputs");
        // Choose the stride-2 depth so the two stride-1 k4/p1 layers that
        // follow still produce a >= 1x1 patch (needs side >= 3 after the
        // strided stack).
        let mut n_strided = 0usize;
        let mut side = resolution;
        while n_strided < 3 && side / 2 >= 3 {
            side /= 2;
            n_strided += 1;
        }

        let mut convs = Vec::new();
        let mut bns: Vec<Option<BatchNorm2d>> = Vec::new();
        let mut acts: Vec<Option<LeakyRelu>> = Vec::new();
        let mut cin = in_channels;
        for i in 0..n_strided {
            let cout = base_filters * (1 << i.min(3));
            convs.push(Conv2d::new(
                cin,
                cout,
                4,
                2,
                1,
                seed.wrapping_add(i as u64 * 13),
            ));
            bns.push((i != 0).then(|| BatchNorm2d::new(cout)));
            acts.push(Some(LeakyRelu::default()));
            cin = cout;
        }
        // Penultimate: stride-1 expansion (512 column of Figure 5).
        let cout = base_filters * (1 << n_strided.min(3));
        convs.push(Conv2d::new(cin, cout, 4, 1, 1, seed.wrapping_add(101)));
        bns.push(Some(BatchNorm2d::new(cout)));
        acts.push(Some(LeakyRelu::default()));
        // Final: stride-1 projection to one logit channel.
        convs.push(Conv2d::new(cout, 1, 4, 1, 1, seed.wrapping_add(202)));
        bns.push(None);
        acts.push(None);

        PatchDiscriminator {
            convs,
            bns,
            acts,
            in_channels,
        }
    }

    /// Number of convolutional layers.
    pub fn layer_count(&self) -> usize {
        self.convs.len()
    }

    /// Input channel count (condition + image).
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Total trainable scalars.
    pub fn parameter_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Mean real-probability of an input: sigmoid over the logit patch,
    /// averaged — the scalar "0/1" read-out of Figure 5, batch-norm by its
    /// running statistics.
    pub fn probability(&self, x: &Tensor) -> f32 {
        let mut probs = self.logits(x);
        for v in probs.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        probs.mean()
    }

    /// The inference logit patch, each block planned ([`Conv2d::plan`]).
    fn logits(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.c(), self.in_channels, "discriminator input channels");
        let mut cur = x.clone();
        for ((conv, bn), act) in self.convs.iter().zip(&self.bns).zip(&self.acts) {
            let alpha = act.as_ref().map(LeakyRelu::alpha);
            let act = alpha.map_or(Activation::Identity, Activation::LeakyRelu);
            let block = conv.plan(bn.as_ref().map(BatchNorm2d::inference_norm), act);
            let mut y = Tensor::zeros(conv.output_shape(cur.shape()));
            let (n, c, plane) = (y.n(), y.c(), y.h() * y.w());
            let out = &mut BatchMut::nchw(y.data_mut(), c, plane);
            block.forward(Batch::nchw(&cur), (cur.h(), cur.w()), n, out);
            cur = y;
        }
        cur
    }
}

impl Layer for PatchDiscriminator {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.c(), self.in_channels, "discriminator input channels");
        let mut cur = x.clone();
        for i in 0..self.convs.len() {
            cur = self.convs[i].forward(&cur);
            if let Some(bn) = &mut self.bns[i] {
                cur = bn.forward(&cur);
            }
            if let Some(act) = &mut self.acts[i] {
                cur = act.forward(&cur);
            }
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for i in (0..self.convs.len()).rev() {
            if let Some(act) = &mut self.acts[i] {
                g = act.backward(&g);
            }
            if let Some(bn) = &mut self.bns[i] {
                g = bn.backward(&g);
            }
            g = self.convs[i].backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        for c in &mut self.convs {
            out.extend(c.params_mut());
        }
        for bn in self.bns.iter_mut().flatten() {
            out.extend(bn.params_mut());
        }
        out
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut out = Vec::new();
        for bn in self.bns.iter_mut().flatten() {
            out.extend(bn.buffers_mut());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_resolution_patch_is_30x30() {
        let d = PatchDiscriminator::new(7, 64, 256, 1);
        let x = Tensor::randn([1, 7, 256, 256], 0.0, 0.1, 2);
        let y = d.logits(&x);
        assert_eq!(y.shape(), [1, 1, 30, 30], "Figure 5 output patch");
        assert_eq!(d.layer_count(), 5);
    }

    #[test]
    fn small_resolutions_stay_valid() {
        for res in [8usize, 16, 32, 64] {
            let mut d = PatchDiscriminator::new(7, 4, res, 1);
            let x = Tensor::randn([1, 7, res, res], 0.0, 0.1, 3);
            let y = d.forward(&x);
            assert!(y.h() >= 1 && y.w() >= 1, "res {res} -> {:?}", y.shape());
        }
    }

    #[test]
    fn backward_matches_input_shape() {
        let mut d = PatchDiscriminator::new(5, 4, 32, 4);
        let x = Tensor::randn([1, 5, 32, 32], 0.0, 0.5, 5);
        let y = d.forward(&x);
        let dx = d.backward(&y);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn probability_is_a_probability() {
        let d = PatchDiscriminator::new(4, 4, 16, 6);
        let x = Tensor::randn([1, 4, 16, 16], 0.0, 1.0, 7);
        let p = d.probability(&x);
        assert!((0.0..=1.0).contains(&p));
    }

    /// A discriminator after a few steps on batch-2 real / fake inputs, so
    /// that its weights, batch-norm affines and running statistics have
    /// all moved.
    fn trained(res: usize) -> PatchDiscriminator {
        use pop_nn::{loss::bce_with_logits, Adam};
        let mut d = PatchDiscriminator::new(4, 4, res, 8);
        let mut adam = Adam::new(1e-2, 0.5, 0.999, 1e-8);
        for step in 0..4u64 {
            for (target, mean, seed) in [(1.0, 0.5, 300), (0.0, -0.5, 400)] {
                let x = Tensor::randn([2, 4, res, res], mean, 1.0, seed + step);
                let logits = d.forward(&x);
                let (_, g) = bce_with_logits(&logits, target);
                let _ = d.backward(&g);
            }
            adam.step(&mut d.params_mut());
        }
        d
    }

    /// The planned readout of trained discriminators at three resolutions,
    /// a batch of two: the logit patch (FNV over its bits) and the
    /// probability, bit for bit what the layers' eval-mode forward gave
    /// before the readout was planned (captured there, debug and release
    /// alike).
    #[test]
    fn planned_readout_keeps_the_eval_forward_bits() {
        const GOLDEN: [(usize, u64, u32); 3] = [
            (16, 0x8000_be6e_d158_2e1c, 0x3efa_8deb),
            (32, 0xba3f_324b_a036_fa34, 0x3f02_bca6),
            (64, 0x42b0_4673_9a8f_244a, 0x3efe_7677),
        ];
        for (res, logits_fnv, probability) in GOLDEN {
            let x = Tensor::randn([2, 4, res, res], 0.0, 1.0, 90 + res as u64);
            let d = trained(res);
            let mut h = crate::dataset::Fnv1a::new();
            d.logits(&x)
                .data()
                .iter()
                .for_each(|v| h.eat(v.to_bits() as u64));
            assert_eq!(h.finish(), logits_fnv, "{res} px logits");
            let p = d.probability(&x);
            assert_eq!(p.to_bits(), probability, "{res} px probability {p}");
        }
    }

    /// A readout between a training forward and its backward pass leaves
    /// the step alone: the input and parameter gradients are those of the
    /// same step without it.
    #[test]
    fn readout_between_forward_and_backward_leaves_the_step_intact() {
        let x = Tensor::randn([2, 4, 16, 16], 0.0, 1.0, 11);
        let step = |readout: bool| {
            let mut d = trained(16);
            let logits = d.forward(&x);
            if readout {
                assert!((0.0..=1.0).contains(&d.probability(&x)));
            }
            let dx = d.backward(&logits);
            let mut bits: Vec<u32> = dx.data().iter().map(|v| v.to_bits()).collect();
            for p in d.params_mut() {
                bits.extend(p.grad.data().iter().map(|g| g.to_bits()));
            }
            bits
        };
        assert_eq!(step(true), step(false));
    }

    #[test]
    fn can_learn_to_separate_real_and_fake() {
        use pop_nn::{loss::bce_with_logits, Adam};
        let mut d = PatchDiscriminator::new(2, 4, 16, 8);
        let real = Tensor::full([1, 2, 16, 16], 0.8);
        let fake = Tensor::full([1, 2, 16, 16], -0.8);
        let mut adam = Adam::new(1e-3, 0.5, 0.999, 1e-8);
        for _ in 0..40 {
            d.zero_grad();
            let lr = d.forward(&real);
            let (_, g) = bce_with_logits(&lr, 1.0);
            let _ = d.backward(&g);
            let lf = d.forward(&fake);
            let (_, g) = bce_with_logits(&lf, 0.0);
            let _ = d.backward(&g);
            adam.step(&mut d.params_mut());
        }
        let p_real = d.probability(&real);
        let p_fake = d.probability(&fake);
        assert!(
            p_real > p_fake + 0.2,
            "real {p_real} should beat fake {p_fake}"
        );
    }
}
