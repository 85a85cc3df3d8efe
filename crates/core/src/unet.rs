use crate::config::SkipMode;
use crate::plan::InferencePlan;
use crate::quant::{QuantDecBlock, QuantEncBlock, QuantizedGenerator};
use pop_nn::{
    Activation, BatchNorm2d, Conv2d, ConvTranspose2d, Dropout, Layer, LeakyRelu, Param, Relu, Tanh,
    Tensor,
};

/// One encoder block: `Conv(4, stride 2, pad 1) → [BatchNorm] → LeakyReLU`.
#[derive(Debug, Clone)]
struct EncBlock {
    conv: Conv2d,
    bn: Option<BatchNorm2d>,
    act: LeakyRelu,
}

impl EncBlock {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.conv.forward(x);
        let y = match &mut self.bn {
            Some(bn) => bn.forward(&y),
            None => y,
        };
        self.act.forward(&y)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.act.backward(grad);
        let g = match &mut self.bn {
            Some(bn) => bn.backward(&g),
            None => g,
        };
        self.conv.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv.params_mut();
        if let Some(bn) = &mut self.bn {
            p.extend(bn.params_mut());
        }
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        match &mut self.bn {
            Some(bn) => bn.buffers_mut(),
            None => Vec::new(),
        }
    }
}

/// One decoder block:
/// `ConvT(4, stride 2, pad 1) → [BatchNorm] → [Dropout] → ReLU`, or
/// `ConvT → Tanh` for the output block.
#[derive(Debug, Clone)]
struct DecBlock {
    deconv: ConvTranspose2d,
    bn: Option<BatchNorm2d>,
    dropout: Option<Dropout>,
    relu: Option<Relu>,
    tanh: Option<Tanh>,
}

impl DecBlock {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.deconv.forward(x);
        let y = match &mut self.bn {
            Some(bn) => bn.forward(&y),
            None => y,
        };
        let y = match &mut self.dropout {
            Some(d) => d.forward(&y),
            None => y,
        };
        if let Some(r) = &mut self.relu {
            r.forward(&y)
        } else if let Some(t) = &mut self.tanh {
            t.forward(&y)
        } else {
            y
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = if let Some(r) = &mut self.relu {
            r.backward(grad)
        } else if let Some(t) = &mut self.tanh {
            t.backward(grad)
        } else {
            grad.clone()
        };
        let g = match &mut self.dropout {
            Some(d) => d.backward(&g),
            None => g,
        };
        let g = match &mut self.bn {
            Some(bn) => bn.backward(&g),
            None => g,
        };
        self.deconv.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.deconv.params_mut();
        if let Some(bn) = &mut self.bn {
            p.extend(bn.params_mut());
        }
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        match &mut self.bn {
            Some(bn) => bn.buffers_mut(),
            None => Vec::new(),
        }
    }
}

/// The paper's generator: a U-Net FCN (Figure 5, left half).
///
/// `depth` stride-2 convolutions halve the input down to the bottleneck,
/// then `depth` transposed convolutions paint it back up; skip connections
/// concatenate each encoder activation onto the same-resolution decoder
/// input. [`SkipMode`] selects the §5.3 ablation variants (all skips /
/// single skip / none), and dropout in the first decoder blocks provides
/// the GAN noise `z` exactly as in pix2pix.
///
/// Channel plan (base filters `f`): encoder `f, 2f, 4f, 8f, 8f, …` capped
/// at `8f` — for `depth = 8, f = 64` this is precisely the
/// `64 → 128 → 256 → 512 → 512 → 512 → 512 → 512` column of Figure 5.
#[derive(Debug, Clone)]
pub struct UNetGenerator {
    enc: Vec<EncBlock>,
    dec: Vec<DecBlock>,
    skip_at: Vec<bool>,
    enc_ch: Vec<usize>,
    dec_out_ch: Vec<usize>,
    in_channels: usize,
    out_channels: usize,
    skip_grads: Vec<Option<Tensor>>,
}

impl UNetGenerator {
    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics when `depth == 0` or `base_filters == 0` (configs should be
    /// validated through
    /// [`ExperimentConfig::validate`](crate::ExperimentConfig::validate)
    /// first).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        base_filters: usize,
        depth: usize,
        skip: SkipMode,
        seed: u64,
    ) -> Self {
        assert!(depth > 0, "depth must be positive");
        assert!(base_filters > 0, "base_filters must be positive");
        let enc_ch: Vec<usize> = (0..depth)
            .map(|i| base_filters * (1usize << i.min(3)))
            .collect();
        let skip_at: Vec<bool> = (0..depth)
            .map(|i| match skip {
                SkipMode::All => i >= 1,
                SkipMode::Single => i == depth - 1 && depth > 1,
                SkipMode::None => false,
            })
            .collect();

        let mut enc = Vec::with_capacity(depth);
        for i in 0..depth {
            let cin = if i == 0 { in_channels } else { enc_ch[i - 1] };
            enc.push(EncBlock {
                conv: Conv2d::new(
                    cin,
                    enc_ch[i],
                    4,
                    2,
                    1,
                    seed.wrapping_add(i as u64 * 31 + 1),
                ),
                bn: (i != 0 && i != depth - 1).then(|| BatchNorm2d::new(enc_ch[i])),
                act: LeakyRelu::default(),
            });
        }

        let mut dec_out_ch = Vec::with_capacity(depth);
        for i in 0..depth {
            dec_out_ch.push(if i == depth - 1 {
                out_channels
            } else {
                enc_ch[depth - 2 - i]
            });
        }
        let mut dec = Vec::with_capacity(depth);
        for i in 0..depth {
            let cin = if i == 0 {
                enc_ch[depth - 1]
            } else {
                dec_out_ch[i - 1] + if skip_at[i] { enc_ch[depth - 1 - i] } else { 0 }
            };
            let is_last = i == depth - 1;
            dec.push(DecBlock {
                deconv: ConvTranspose2d::new(
                    cin,
                    dec_out_ch[i],
                    4,
                    2,
                    1,
                    seed.wrapping_add(1000 + i as u64 * 37),
                ),
                bn: (!is_last).then(|| BatchNorm2d::new(dec_out_ch[i])),
                dropout: (!is_last && i < 3)
                    .then(|| Dropout::new(0.5, seed.wrapping_add(2000 + i as u64))),
                relu: (!is_last).then(Relu::new),
                tanh: is_last.then(Tanh::new),
            });
        }

        UNetGenerator {
            enc,
            dec,
            skip_at,
            enc_ch,
            dec_out_ch,
            in_channels,
            out_channels,
            skip_grads: Vec::new(),
        }
    }

    /// Number of down/up levels.
    pub fn depth(&self) -> usize {
        self.enc.len()
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Total trainable scalars.
    pub fn parameter_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Encoder channel widths per level (Figure 5 left column).
    pub fn encoder_channels(&self) -> &[usize] {
        &self.enc_ch
    }

    /// Decoder output channel widths per level.
    pub fn decoder_channels(&self) -> &[usize] {
        &self.dec_out_ch
    }

    /// Snapshots this generator for inference ([`InferencePlan`]): each
    /// block's weights laid out for its GEMM, its batch-norm's running
    /// statistics and affine and its activation read out, dropout dropped
    /// (inference identity). The plan's forward is this generator's layers
    /// run one by one with batch-norm by running statistics, bit for bit,
    /// through `&self`.
    pub fn plan(&self) -> InferencePlan {
        let norm = |bn: &Option<BatchNorm2d>| bn.as_ref().map(BatchNorm2d::inference_norm);
        let enc = self
            .enc
            .iter()
            .map(|b| {
                b.conv
                    .plan(norm(&b.bn), Activation::LeakyRelu(b.act.alpha()))
            })
            .collect();
        let dec = self
            .dec
            .iter()
            .map(|b| {
                let act = match (&b.relu, &b.tanh) {
                    (Some(_), _) => Activation::Relu,
                    (None, Some(_)) => Activation::Tanh,
                    (None, None) => Activation::Identity,
                };
                b.deconv.plan(norm(&b.bn), act)
            })
            .collect();
        InferencePlan::from_parts(enc, dec, self.skip_at.clone())
    }

    /// Freezes this generator into an i8 inference snapshot
    /// ([`QuantizedGenerator`]): batch-norm running statistics are folded
    /// into each convolution's weights before quantization, dropout is
    /// dropped (inference identity), activations are carried over.
    pub fn quantize(&self) -> QuantizedGenerator {
        let enc = self
            .enc
            .iter()
            .map(|b| {
                let affine = b.bn.as_ref().map(|bn| bn.inference_affine());
                QuantEncBlock {
                    conv: b
                        .conv
                        .quantize(affine.as_ref().map(|(a, s)| (a.as_slice(), s.as_slice()))),
                    alpha: b.act.alpha(),
                }
            })
            .collect();
        let dec = self
            .dec
            .iter()
            .map(|b| {
                let affine = b.bn.as_ref().map(|bn| bn.inference_affine());
                QuantDecBlock {
                    deconv: b
                        .deconv
                        .quantize(affine.as_ref().map(|(a, s)| (a.as_slice(), s.as_slice()))),
                    tanh: b.tanh.is_some(),
                }
            })
            .collect();
        QuantizedGenerator::from_parts(enc, dec, self.skip_at.clone(), self.in_channels)
    }
}

impl Layer for UNetGenerator {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.c(), self.in_channels, "generator input channels");
        let depth = self.enc.len();
        let mut e: Vec<Tensor> = Vec::with_capacity(depth);
        for block in &mut self.enc {
            let y = block.forward(e.last().unwrap_or(x));
            e.push(y);
        }
        let mut u = self.dec[0].forward(&e[depth - 1]);
        for i in 1..depth {
            u = if self.skip_at[i] {
                self.dec[i].forward(&u.concat_channels(&e[depth - 1 - i]))
            } else {
                self.dec[i].forward(&u)
            };
        }
        u
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let depth = self.enc.len();
        self.skip_grads = (0..depth).map(|_| None).collect();
        let mut g = grad_out.clone();
        for i in (0..depth).rev() {
            let gi = self.dec[i].backward(&g);
            if i == 0 {
                g = gi;
            } else if self.skip_at[i] {
                let (gu, ge) = gi.split_channels(self.dec_out_ch[i - 1]);
                self.skip_grads[depth - 1 - i] = Some(ge);
                g = gu;
            } else {
                g = gi;
            }
        }
        // g is now dL/d(e[depth-1]); walk the encoder back, merging skip
        // contributions at each level.
        for i in (0..depth).rev() {
            if let Some(sg) = self.skip_grads[i].take() {
                g.add_assign(&sg);
            }
            g = self.enc[i].backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        for b in &mut self.enc {
            out.extend(b.params_mut());
        }
        for b in &mut self.dec {
            out.extend(b.params_mut());
        }
        out
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut out = Vec::new();
        for b in &mut self.enc {
            out.extend(b.buffers_mut());
        }
        for b in &mut self.dec {
            out.extend(b.buffers_mut());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(skip: SkipMode) -> UNetGenerator {
        UNetGenerator::new(4, 3, 4, 3, skip, 11)
    }

    #[test]
    fn forward_shape_roundtrip() {
        for skip in [SkipMode::All, SkipMode::Single, SkipMode::None] {
            let mut g = tiny(skip);
            let x = Tensor::randn([1, 4, 16, 16], 0.0, 1.0, 1);
            let y = g.forward(&x);
            assert_eq!(y.shape(), [1, 3, 16, 16], "{skip:?}");
            // Output is tanh-bounded.
            assert!(y.data().iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn backward_shape_roundtrip() {
        for skip in [SkipMode::All, SkipMode::Single, SkipMode::None] {
            let mut g = tiny(skip);
            let x = Tensor::randn([1, 4, 16, 16], 0.0, 1.0, 2);
            let y = g.forward(&x);
            let dx = g.backward(&y);
            assert_eq!(dx.shape(), x.shape(), "{skip:?}");
            assert!(dx.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn paper_channel_plan_at_depth8() {
        let g = UNetGenerator::new(4, 3, 64, 8, SkipMode::All, 0);
        assert_eq!(
            g.enc_ch,
            vec![64, 128, 256, 512, 512, 512, 512, 512],
            "Figure 5 encoder channels"
        );
        assert_eq!(
            g.dec_out_ch,
            vec![512, 512, 512, 512, 256, 128, 64, 3],
            "Figure 5 decoder channels"
        );
    }

    #[test]
    fn skip_modes_have_expected_connections() {
        let all = UNetGenerator::new(4, 3, 4, 4, SkipMode::All, 0);
        assert_eq!(all.skip_at, vec![false, true, true, true]);
        let single = UNetGenerator::new(4, 3, 4, 4, SkipMode::Single, 0);
        assert_eq!(single.skip_at, vec![false, false, false, true]);
        let none = UNetGenerator::new(4, 3, 4, 4, SkipMode::None, 0);
        assert_eq!(none.skip_at, vec![false; 4]);
    }

    #[test]
    fn more_skips_mean_more_parameters() {
        let mut all = UNetGenerator::new(4, 3, 4, 4, SkipMode::All, 0);
        let mut single = UNetGenerator::new(4, 3, 4, 4, SkipMode::Single, 0);
        let mut none = UNetGenerator::new(4, 3, 4, 4, SkipMode::None, 0);
        let (a, s, n) = (
            all.parameter_count(),
            single.parameter_count(),
            none.parameter_count(),
        );
        assert!(a > s, "all {a} vs single {s}");
        assert!(s > n, "single {s} vs none {n}");
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut g = tiny(SkipMode::All);
        let x = Tensor::randn([1, 4, 16, 16], 0.0, 1.0, 3);
        let y = g.forward(&x);
        g.zero_grad();
        let _ = g.forward(&x);
        let _ = g.backward(&Tensor::full(y.shape(), 1.0));
        for (i, p) in g.params_mut().iter().enumerate() {
            let mag: f32 = p.grad.data().iter().map(|v| v.abs()).sum();
            assert!(mag > 0.0, "parameter {i} received no gradient");
        }
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        use pop_nn::{loss::l1_loss, Adam};
        let mut g = UNetGenerator::new(2, 1, 4, 2, SkipMode::All, 5);
        let x = Tensor::randn([1, 2, 8, 8], 0.0, 0.5, 6);
        let target = Tensor::full([1, 1, 8, 8], 0.5);
        let mut adam = Adam::new(2e-3, 0.5, 0.999, 1e-8);
        let (first, _) = l1_loss(&g.forward(&x), &target);
        let mut last = first;
        for _ in 0..30 {
            let y = g.forward(&x);
            let (l, grad) = l1_loss(&y, &target);
            last = l;
            g.zero_grad();
            let _ = g.backward(&grad);
            adam.step(&mut g.params_mut());
        }
        assert!(last < first * 0.7, "L1 should shrink: {first} -> {last}");
    }

    #[test]
    fn batched_eval_forward_is_bitwise_identical_to_per_sample() {
        // The serving engine's correctness hinges on this: stacking inputs
        // along the batch axis and running the plan once (dropout off,
        // batch-norm running stats) must reproduce each per-sample forward
        // bit for bit — conv/norm/activation all treat batch elements
        // independently at inference.
        for skip in [SkipMode::All, SkipMode::Single, SkipMode::None] {
            let plan = tiny(skip).plan();
            let xs: Vec<Tensor> = (0..4)
                .map(|s| Tensor::randn([1, 4, 16, 16], 0.0, 1.0, 50 + s))
                .collect();
            let singles: Vec<Tensor> = xs.iter().map(|x| plan.forward(x)).collect();
            let refs: Vec<&Tensor> = xs.iter().collect();
            let batched = plan.forward(&Tensor::stack_batch(&refs));
            assert_eq!(batched.n(), 4);
            for (i, (part, single)) in batched.split_batch().iter().zip(&singles).enumerate() {
                assert_eq!(part, single, "sample {i} diverged under {skip:?}");
            }
        }
    }

    /// A few optimisation steps, so that batch-norm statistics and affines
    /// (and the biases) are no longer their initial 0 / 1.
    fn trained(mut g: UNetGenerator, x: &Tensor) -> UNetGenerator {
        use pop_nn::Adam;
        let mut adam = Adam::new(2e-2, 0.5, 0.999, 1e-8);
        for _ in 0..3 {
            let y = g.forward(x);
            g.zero_grad();
            let _ = g.backward(&y);
            adam.step(&mut g.params_mut());
        }
        g
    }

    /// The inference forward, layer by layer, as the plan replaced it:
    /// every layer's own forward, except that each batch-norm applies its
    /// running statistics (`inference_norm`) and dropout is skipped.
    fn reference(g: &mut UNetGenerator, x: &Tensor) -> Tensor {
        fn norm(bn: &Option<BatchNorm2d>, mut y: Tensor) -> Tensor {
            if let Some(bn) = bn {
                let (norms, plane) = (bn.inference_norm(), y.h() * y.w());
                for (i, p) in y.data_mut().chunks_exact_mut(plane).enumerate() {
                    let n = norms[i % norms.len()];
                    p.iter_mut().for_each(|v| *v = n.apply(*v));
                }
            }
            y
        }
        let depth = g.enc.len();
        let mut e: Vec<Tensor> = Vec::with_capacity(depth);
        for b in &mut g.enc {
            let y = norm(&b.bn, b.conv.forward(e.last().unwrap_or(x)));
            e.push(b.act.forward(&y));
        }
        let mut u = e[depth - 1].clone();
        for (i, b) in g.dec.iter_mut().enumerate() {
            if i > 0 && g.skip_at[i] {
                u = u.concat_channels(&e[depth - 1 - i]);
            }
            let y = norm(&b.bn, b.deconv.forward(&u));
            u = match (&mut b.relu, &mut b.tanh) {
                (Some(r), _) => r.forward(&y),
                (None, Some(t)) => t.forward(&y),
                (None, None) => y,
            };
        }
        u
    }

    /// The plan against the layers it was read from, run one by one as
    /// `reference` runs them (the forward it replaced): every skip mode, a
    /// shallow generator on a non-square map and the `explore` depth, one
    /// request, a few and a full batch — per-request tensors, timed per
    /// block or not, and an NCHW batch alike, bit for bit.
    #[test]
    fn plan_is_the_layer_by_layer_inference_forward_bit_for_bit() {
        for skip in [SkipMode::All, SkipMode::Single, SkipMode::None] {
            for (depth, h, w) in [(3, 16, 24), (6, 64, 64)] {
                let warm = Tensor::randn([1, 4, h, w], 0.0, 1.0, 3);
                let mut g = trained(UNetGenerator::new(4, 3, 4, depth, skip, 11), &warm);
                let plan = g.plan();
                for batch in [1usize, 3, 8] {
                    let xs: Vec<Tensor> = (0..batch as u64)
                        .map(|s| Tensor::randn([1, 4, h, w], 0.0, 1.0, 70 + s))
                        .collect();
                    let refs: Vec<&Tensor> = xs.iter().collect();
                    let got = plan.forecast_batch(&refs);
                    assert_eq!(got.len(), batch);
                    let (timed, splits) = plan.forecast_batch_split(&refs);
                    assert_eq!(timed, got, "{skip:?} depth {depth} batch {batch} timed");
                    assert_eq!(splits.len(), 2 * depth);
                    for (i, (x, y)) in xs.iter().zip(&got).enumerate() {
                        let want = reference(&mut g, x);
                        assert_eq!(y, &want, "{skip:?} depth {depth} batch {batch} sample {i}");
                        assert_eq!(plan.forward(x), want, "{skip:?} depth {depth} alone");
                    }
                    let got_refs: Vec<&Tensor> = got.iter().collect();
                    assert_eq!(
                        plan.forward(&Tensor::stack_batch(&refs)),
                        Tensor::stack_batch(&got_refs),
                        "{skip:?} depth {depth} batch {batch} as one tensor"
                    );
                }
            }
        }
    }

    /// Without skips nothing pins the decoder's map to the encoder's: an
    /// input the encoder rounds down comes back smaller, as it did through
    /// the layers. With skips the mismatch is a panic, as it was.
    #[test]
    fn plan_keeps_the_layers_handling_of_odd_sizes() {
        let x = Tensor::randn([2, 4, 12, 12], 0.0, 1.0, 5);
        let mut g = tiny(SkipMode::None);
        let want = reference(&mut g, &x);
        assert_eq!(want.shape(), [2, 3, 8, 8]);
        assert_eq!(g.plan().forward(&x), want);
        let joined = std::panic::catch_unwind(|| tiny(SkipMode::All).plan().forward(&x));
        assert!(joined.is_err(), "a 2x2 map cannot join a 3x3 skip");
    }

    #[test]
    fn inference_is_deterministic_without_dropout() {
        let g = tiny(SkipMode::All);
        let x = Tensor::randn([1, 4, 16, 16], 0.0, 1.0, 7);
        let a = g.plan().forward(&x);
        let b = g.plan().forward(&x);
        assert_eq!(a, b);
    }
}
