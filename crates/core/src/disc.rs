use pop_nn::{
    Activation, Batch, BatchMut, BatchNorm2d, Conv2d, ConvCache, Layer, LeakyRelu, NormCache,
    Param, Tensor,
};

/// The activations one training pass through a [`PatchDiscriminator`]
/// keeps for its backward pass, per layer: the convolution's lowered input,
/// the batch-norm's `x̂`, `1/σ` and batch statistics, the activation's
/// input. They live here rather than in the layers, so that two passes —
/// the real pair's and the fake pair's — can run over one discriminator at
/// once. Keep one per concurrent pass and reuse it: its lowering buffers
/// keep their length from pass to pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct DiscPass {
    convs: Vec<ConvCache>,
    norms: Vec<NormCache>,
    acts: Vec<Option<Tensor>>,
}

/// A discriminator's parameter gradients, moved out of its parameters by
/// [`PatchDiscriminator::with_grads`] (no copy): per convolution
/// `[weight, bias]`, per batch-norm `[γ, β]`.
#[derive(Debug)]
pub(crate) struct DiscGrads {
    convs: Vec<[Tensor; 2]>,
    norms: Vec<Option<[Tensor; 2]>>,
}

/// The gradients of a two-parameter layer (`params_mut` order), moved out
/// of it — or, given `grads`, moved back in.
fn swap_grads(params: Vec<&mut Param>, grads: Option<[Tensor; 2]>) -> [Tensor; 2] {
    let mut grads = grads.unwrap_or_default();
    for (param, grad) in params.into_iter().zip(&mut grads) {
        std::mem::swap(&mut param.grad, grad);
    }
    grads
}

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
/// Training feeds a training pass's raw logits (the [`Layer`] forward, or
/// the trainer's passes, which keep their activations apart so that the
/// real and the fake pair's passes can run at once) to
/// [`bce_with_logits`](pop_nn::loss::bce_with_logits); [`Self::probability`]
/// reads out through planned blocks ([`Conv2d::plan`]), then the sigmoid.
#[derive(Debug, Clone)]
pub struct PatchDiscriminator {
    convs: Vec<Conv2d>,
    bns: Vec<Option<BatchNorm2d>>,
    acts: Vec<Option<LeakyRelu>>,
    in_channels: usize,
    // The pass the `Layer` impl runs.
    pass: DiscPass,
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
            pass: DiscPass::default(),
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

impl PatchDiscriminator {
    /// The training forward of `x` (batch statistics), reading only the
    /// weights: what the backward pass needs goes to `pass`, and the
    /// batch-norm running statistics wait for [`Self::commit`]. Passes with
    /// their own [`DiscPass`] may run at once.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have the discriminator's input channels.
    pub(crate) fn forward_pass(&self, x: &Tensor, pass: &mut DiscPass) -> Tensor {
        assert_eq!(x.c(), self.in_channels, "discriminator input channels");
        let layers = self.convs.len();
        pass.convs.resize_with(layers, Default::default);
        pass.norms.resize_with(layers, Default::default);
        pass.acts.resize_with(layers, Default::default);
        let mut cur: Option<Tensor> = None;
        for i in 0..layers {
            let input = cur.as_ref().unwrap_or(x);
            let mut y = self.convs[i].forward_pass(input, &mut pass.convs[i]);
            if let Some(bn) = &self.bns[i] {
                y = bn.forward_pass(&y, &mut pass.norms[i]);
            }
            if let Some(act) = &self.acts[i] {
                y = act.forward_pass(y, &mut pass.acts[i]);
            }
            cur = Some(y);
        }
        cur.expect("a discriminator has layers")
    }

    /// Moves the batch-norm running statistics by the batch statistics of
    /// the forward that filled `pass`. Commit passes in the order their
    /// forwards would have run one after another.
    pub(crate) fn commit(&mut self, pass: &DiscPass) {
        for (bn, cache) in self.bns.iter_mut().zip(&pass.norms) {
            if let Some(bn) = bn {
                bn.commit(cache);
            }
        }
    }

    /// The backward pass of the forward that filled `pass`: returns the
    /// input gradient and, given `grads`, adds every parameter gradient
    /// onto them. Without `grads` it computes the input gradient alone —
    /// no weight, bias, γ or β gradient.
    ///
    /// # Panics
    ///
    /// Panics when `pass` holds no forward.
    pub(crate) fn backward_pass(
        &self,
        pass: &mut DiscPass,
        grad_out: &Tensor,
        mut grads: Option<&mut DiscGrads>,
    ) -> Tensor {
        let mut g: Option<Tensor> = None;
        for i in (0..self.convs.len()).rev() {
            if let Some(act) = &self.acts[i] {
                g = Some(act.backward_pass(&mut pass.acts[i], g.as_ref().unwrap_or(grad_out)));
            }
            if let Some(bn) = &self.bns[i] {
                let grads = grads.as_deref_mut().and_then(|g| g.norms[i].as_mut());
                let dy = g.as_ref().unwrap_or(grad_out);
                g = Some(bn.backward_pass(&mut pass.norms[i], dy, grads));
            }
            let grads = grads.as_deref_mut().map(|g| &mut g.convs[i]);
            let dy = g.as_ref().unwrap_or(grad_out);
            g = Some(self.convs[i].backward_pass(&mut pass.convs[i], dy, grads));
        }
        g.expect("a discriminator has layers")
    }

    /// Runs `f` on this discriminator with its parameter gradients moved
    /// out beside it, then moves them back: a backward pass inside `f` adds
    /// onto the gradients while other passes read the weights.
    pub(crate) fn with_grads<R>(&mut self, f: impl FnOnce(&Self, &mut DiscGrads) -> R) -> R {
        let convs = self.convs.iter_mut();
        let norms = self.bns.iter_mut().map(Option::as_mut);
        let mut grads = DiscGrads {
            convs: convs.map(|c| swap_grads(c.params_mut(), None)).collect(),
            norms: norms
                .map(|bn| bn.map(|bn| swap_grads(bn.params_mut(), None)))
                .collect(),
        };
        let out = f(self, &mut grads);
        for (conv, g) in self.convs.iter_mut().zip(grads.convs) {
            swap_grads(conv.params_mut(), Some(g));
        }
        for (bn, g) in self.bns.iter_mut().zip(grads.norms) {
            if let (Some(bn), Some(g)) = (bn, g) {
                swap_grads(bn.params_mut(), Some(g));
            }
        }
        out
    }
}

impl Layer for PatchDiscriminator {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut pass = std::mem::take(&mut self.pass);
        let y = self.forward_pass(x, &mut pass);
        self.commit(&pass);
        self.pass = pass;
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut pass = std::mem::take(&mut self.pass);
        let dx = self.with_grads(|d, grads| d.backward_pass(&mut pass, grad_out, Some(grads)));
        self.pass = pass;
        dx
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every gradient, then — after one Adam step — every weight, Adam
    /// moment and running statistic, as bits.
    fn step_bits(d: &mut PatchDiscriminator) -> Vec<u32> {
        use pop_nn::Adam;
        let mut out: Vec<u32> = d.params_mut().iter().flat_map(|p| bits(&p.grad)).collect();
        Adam::paper().step(&mut d.params_mut());
        for p in d.params_mut() {
            out.extend([&p.value, &p.m, &p.v].into_iter().flat_map(bits));
        }
        for b in d.buffers_mut() {
            out.extend(b.iter().map(|v| v.to_bits()));
        }
        out
    }

    /// A D step as the trainer schedules it — real forward, fake forward,
    /// real backward, fake backward, each pass on its own `DiscPass`, the
    /// running statistics committed real then fake — is the sequential step
    /// through the `Layer` impl (the real pair's forward and backward, then
    /// the fake pair's), bit for bit: gradients, weights and moments after
    /// Adam, running statistics. Forked wherever the helper is free, and
    /// with every join inline.
    #[test]
    fn interleaved_passes_are_the_sequential_step_bit_for_bit() {
        use pop_nn::loss::bce_with_logits;
        let pairs = [
            (Tensor::randn([1, 4, 32, 32], 0.5, 1.0, 60), 1.0),
            (Tensor::randn([1, 4, 32, 32], -0.5, 1.0, 61), 0.0),
        ];
        let sequential = {
            let mut d = trained(32);
            for (x, target) in &pairs {
                let (_, g) = bce_with_logits(&d.forward(x), *target);
                let _ = d.backward(&g);
            }
            step_bits(&mut d)
        };
        let interleaved = || {
            let mut d = trained(32);
            let mut passes = [DiscPass::default(), DiscPass::default()];
            let logits: Vec<Tensor> = (passes.iter_mut().zip(&pairs))
                .map(|(pass, (x, _))| d.forward_pass(x, pass))
                .collect();
            passes.iter().for_each(|pass| d.commit(pass));
            d.with_grads(|d, grads| {
                for ((pass, logits), (_, target)) in passes.iter_mut().zip(&logits).zip(&pairs) {
                    let (_, g) = bce_with_logits(logits, *target);
                    let _ = d.backward_pass(pass, &g, Some(grads));
                }
            });
            step_bits(&mut d)
        };
        let ((), inline) = pop_exec::join(|| (), interleaved);
        assert!(inline == sequential, "every join inline");
        assert!(interleaved() == sequential, "forked");
    }

    /// Without gradients to add onto, a backward pass returns the input
    /// gradient `Layer::backward` returns, and adds no weight, bias, γ or
    /// β gradient; forked wherever the helper is free, and inline.
    #[test]
    fn input_gradient_only_backward_is_layer_backwards_gradient() {
        let x = Tensor::randn([1, 4, 32, 32], 0.0, 1.0, 70);
        let mut d = trained(32);
        d.zero_grad();
        let logits = d.forward(&x);
        let want = d.backward(&logits);
        let run = |d: &mut PatchDiscriminator| {
            let mut pass = DiscPass::default();
            let logits = d.forward_pass(&x, &mut pass);
            let dx = d.backward_pass(&mut pass, &logits, None);
            let zero = |p: &&mut Param| p.grad.data().iter().all(|g| g.to_bits() == 0);
            (bits(&dx), d.params_mut().iter().all(zero))
        };
        let mut fresh = trained(32);
        let ((), inline) = pop_exec::join(|| (), || run(&mut fresh));
        for (way, (dx, untouched)) in [("forked", run(&mut trained(32))), ("inline", inline)] {
            assert_eq!(dx, bits(&want), "{way}");
            assert!(untouched, "{way}: a parameter gradient moved");
        }
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
