use crate::im2col::{col2im, im2col};
use crate::linalg::{
    matmul_nn, matmul_nn_set_forked, matmul_nt, matmul_tn_set, matmul_tn_set_forked, TnWeights,
};
use crate::lower::{
    conv_forward, deconv_forward, Activation, Batch, BatchMut, ConvGeom, Epilogue, Finish, Norm,
    PlannedConv, PlannedDeconv,
};
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace;
use crate::Layer;

/// `db += Σ dY`: adds the sum of each channel plane of `dy` (`plane` floats
/// apiece) onto that channel's bias gradient.
fn add_plane_sums(bias_grad: &mut [f32], dy: &[f32], plane: usize) {
    for (c, g) in bias_grad.iter_mut().enumerate() {
        *g += dy[c * plane..(c + 1) * plane].iter().sum::<f32>();
    }
}

/// What a convolution's training forward leaves for its backward pass.
///
/// [`Conv2d::forward_pass`] fills one and [`Conv2d::backward_pass`]
/// consumes it, so a caller that keeps its own can run several passes of one
/// layer at once; the [`Layer`] impl keeps one in the layer.
#[derive(Debug, Clone, Default)]
pub struct ConvCache {
    // The input's shape, until a backward pass consumes it.
    input: Option<[usize; 4]>,
    // Interleaved im2col matrix of the forward: `[ckk, n·ho·wo]` with
    // sample `b` occupying columns `b·ho·wo .. (b+1)·ho·wo`. It stays at its
    // length after the backward pass, so the next forward does not zero it
    // again.
    cols: Vec<f32>,
}

/// 2-D convolution (`k×k` kernel, stride, zero padding) lowered to im2col +
/// matmul. pix2pix uses `k=4, stride=2, pad=1` throughout the encoder,
/// halving the spatial size per layer — the left column of the paper's
/// Figure 5.
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: ConvGeom,
    weight: Param,
    bias: Param,
    cache: ConvCache,
}

impl Conv2d {
    /// Creates a convolution with pix2pix initialisation (`N(0, 0.02)`).
    ///
    /// # Panics
    ///
    /// Panics when `k` or `stride` is zero.
    pub fn new(in_c: usize, out_c: usize, k: usize, stride: usize, pad: usize, seed: u64) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        Conv2d {
            geom: ConvGeom {
                in_c,
                out_c,
                k,
                stride,
                pad,
            },
            weight: Param::randn([out_c, in_c, k, k], 0.02, seed ^ 0xC0_u64),
            bias: Param::new(Tensor::zeros([1, out_c, 1, 1])),
            cache: ConvCache::default(),
        }
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, input: [usize; 4]) -> [usize; 4] {
        let (ho, wo) = self.geom.conv_out((input[2], input[3]));
        [input[0], self.geom.out_c, ho, wo]
    }

    /// Number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// i8 weight quantization with per-output-channel scales; `affine`
    /// optionally folds a following per-channel inference transform
    /// `y = a·conv + s` (batch-norm by running statistics) into the
    /// quantized weights and bias.
    pub fn quantize(&self, affine: Option<(&[f32], &[f32])>) -> crate::quant::QuantizedConv2d {
        crate::quant::QuantizedConv2d::new(
            self.geom.in_c,
            self.geom.out_c,
            self.geom.k,
            self.geom.stride,
            self.geom.pad,
            self.weight.value.data(),
            &self.bias.value.data()[..self.geom.out_c],
            affine,
        )
    }

    /// Freezes the block this convolution opens for inference: a copy of
    /// the weights and bias, with the inference batch-norm (`norm`, one
    /// entry per output channel) and the activation that follow it.
    ///
    /// # Panics
    ///
    /// Panics when `norm` does not have one entry per output channel.
    pub fn plan(&self, norm: Option<Vec<Norm>>, act: Activation) -> PlannedConv {
        PlannedConv::new(
            self.geom,
            self.weight.value.data().to_vec(),
            Finish::new(&self.bias.value.data()[..self.geom.out_c], norm, act),
        )
    }

    /// The training forward, reading only the weights: what the backward
    /// pass needs goes to `cache`. The GEMM's output-channel rows are split
    /// in whole row blocks across [`pop_exec::join`]'s helper when it is
    /// free; the bits do not depend on it.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `in_c` channels.
    pub fn forward_pass(&self, x: &Tensor, cache: &mut ConvCache) -> Tensor {
        assert_eq!(x.c(), self.geom.in_c, "input channels");
        let [n, _, h, w] = x.shape();
        let geom = self.geom;
        let mut y = Tensor::zeros(self.output_shape(x.shape()));
        let p_out = y.h() * y.w();
        // The whole batch is lowered into one matrix, the layout
        // `backward_pass` expects, reusing the cache's: `im2col` writes
        // every element, so only growth is zeroed.
        let ckk = geom.in_c * geom.k * geom.k;
        cache.cols.resize(ckk * n * p_out, 0.0);
        conv_forward(
            &geom,
            matmul_nn_set_forked,
            (self.weight.value.data(), None),
            &Epilogue::bias(&self.bias.value.data()[..geom.out_c]),
            Batch::nchw(x),
            (h, w),
            n,
            n,
            &mut cache.cols,
            &mut BatchMut::nchw(y.data_mut(), geom.out_c, p_out),
            &mut (),
        );
        cache.input = Some(x.shape());
        y
    }

    /// The backward pass of the forward that filled `cache`: returns the
    /// input gradient and, given `grads` (`[weight, bias]`-shaped, the
    /// order of [`Layer::params_mut`]), adds the parameter gradients onto
    /// them. Without `grads` it computes the input gradient alone, its
    /// `Wᵀ·dY` product split in output-row strips across
    /// [`pop_exec::join`]'s helper.
    ///
    /// # Panics
    ///
    /// Panics when `cache` holds no forward.
    pub fn backward_pass(
        &self,
        cache: &mut ConvCache,
        grad_out: &Tensor,
        mut grads: Option<&mut [Tensor; 2]>,
    ) -> Tensor {
        let shape = cache
            .input
            .take()
            .expect("Conv2d::backward called before forward");
        let [n, _, h, w] = shape;
        let [_, _, ho, wo] = grad_out.shape();
        let ckk = self.geom.in_c * self.geom.k * self.geom.k;
        let p_out = ho * wo;
        let ncols = n * p_out;
        let cached_cols = &cache.cols;
        let mut dx = Tensor::zeros(shape);
        let mut cols_scratch = workspace::take(if n > 1 { ckk * p_out } else { 0 });
        let mut dcols = workspace::take(ckk * p_out);
        let weight = self.weight.value.data();
        let (c, out_c) = ((self.geom.in_c, 1), self.geom.out_c);
        let window = (self.geom.k, self.geom.stride, self.geom.pad);
        for b in 0..n {
            let dy_n = &grad_out.data()[b * out_c * p_out..(b + 1) * out_c * p_out];
            let dx_n =
                &mut dx.data_mut()[b * self.geom.in_c * h * w..(b + 1) * self.geom.in_c * h * w];
            let dcols = &mut dcols[..ckk * p_out];
            let Some([w_grad, b_grad]) = grads.as_deref_mut() else {
                // dX = col2im(Wᵀ @ dY), nothing else.
                matmul_tn_set_forked(weight, dy_n, dcols, ckk, out_c, p_out);
                col2im(dcols, c, (h, w), window, dx_n, h * w, (p_out, 0), |_, _| {});
                continue;
            };
            // Per-sample contiguous view of the interleaved cache (the
            // cache *is* contiguous when n == 1).
            let cols_b: &[f32] = if n == 1 {
                cached_cols
            } else {
                for r in 0..ckk {
                    cols_scratch[r * p_out..(r + 1) * p_out].copy_from_slice(
                        &cached_cols[r * ncols + b * p_out..r * ncols + (b + 1) * p_out],
                    );
                }
                &cols_scratch[..ckk * p_out]
            };
            // The two gradients read the same `dY` and write disjoint
            // memory — `dcols`, this sample's `dx` and the bias gradient on
            // one side, the weight gradient on the other — so they are one
            // `join`: each side runs exactly the arithmetic it runs alone.
            // The weight gradient stays on the caller because it is the
            // heavier half at most layers (`nt` transposes an operand), and
            // the forked half is the one that starts late when the helper
            // has parked.
            let (w_grad, b_grad) = (w_grad.data_mut(), b_grad.data_mut());
            pop_exec::join(
                || {
                    // dX = col2im(Wᵀ @ dY).
                    matmul_tn_set(weight, dy_n, dcols, ckk, out_c, p_out);
                    col2im(dcols, c, (h, w), window, dx_n, h * w, (p_out, 0), |_, _| {});
                    add_plane_sums(b_grad, dy_n, p_out);
                },
                // dW += dY @ colsᵀ.
                || matmul_nt(dy_n, cols_b, w_grad, out_c, p_out, ckk),
            );
        }
        workspace::give(cols_scratch);
        workspace::give(dcols);
        dx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cache = std::mem::take(&mut self.cache);
        let y = self.forward_pass(x, &mut cache);
        self.cache = cache;
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cache = std::mem::take(&mut self.cache);
        let mut grads = [
            std::mem::take(&mut self.weight.grad),
            std::mem::take(&mut self.bias.grad),
        ];
        let dx = self.backward_pass(&mut cache, grad_out, Some(&mut grads));
        [self.weight.grad, self.bias.grad] = grads;
        self.cache = cache;
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// 2-D transposed convolution (the "deconvolutional" layers of Figure 5's
/// decoder). With `k=4, stride=2, pad=1` it exactly doubles the spatial
/// size, mirroring [`Conv2d`]'s halving.
///
/// Implemented as the adjoint of [`Conv2d`]: forward is the conv
/// backward-data pass (`col2im` of `Wᵀ·x`), so gradients line up exactly.
#[derive(Debug, Clone)]
pub struct ConvTranspose2d {
    geom: ConvGeom,
    weight: Param, // [in_c, out_c, k, k]
    bias: Param,
    cached_input: Option<Tensor>,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution with pix2pix initialisation.
    ///
    /// # Panics
    ///
    /// Panics when `k` or `stride` is zero.
    pub fn new(in_c: usize, out_c: usize, k: usize, stride: usize, pad: usize, seed: u64) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        ConvTranspose2d {
            geom: ConvGeom {
                in_c,
                out_c,
                k,
                stride,
                pad,
            },
            weight: Param::randn([in_c, out_c, k, k], 0.02, seed ^ 0xDC_u64),
            bias: Param::new(Tensor::zeros([1, out_c, 1, 1])),
            cached_input: None,
        }
    }

    /// Output spatial size: `(h − 1)·stride − 2·pad + k`.
    pub fn output_shape(&self, input: [usize; 4]) -> [usize; 4] {
        let (ho, wo) = self.geom.deconv_out((input[2], input[3]));
        [input[0], self.geom.out_c, ho, wo]
    }

    /// Number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// i8 weight quantization (per output tap row), optionally folding a
    /// per-output-channel inference affine — see [`Conv2d::quantize`].
    pub fn quantize(
        &self,
        affine: Option<(&[f32], &[f32])>,
    ) -> crate::quant::QuantizedConvTranspose2d {
        crate::quant::QuantizedConvTranspose2d::new(
            self.geom.in_c,
            self.geom.out_c,
            self.geom.k,
            self.geom.stride,
            self.geom.pad,
            self.weight.value.data(),
            &self.bias.value.data()[..self.geom.out_c],
            affine,
        )
    }

    /// Freezes the block this transposed convolution opens for inference
    /// — see [`Conv2d::plan`]; the weights are laid out for the GEMM once.
    ///
    /// # Panics
    ///
    /// Panics when `norm` does not have one entry per output channel.
    pub fn plan(&self, norm: Option<Vec<Norm>>, act: Activation) -> PlannedDeconv {
        let ckk = self.geom.out_c * self.geom.k * self.geom.k;
        PlannedDeconv::new(
            self.geom,
            TnWeights::new(self.weight.value.data(), ckk, self.geom.in_c),
            Finish::new(&self.bias.value.data()[..self.geom.out_c], norm, act),
        )
    }
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.c(), self.geom.in_c, "input channels");
        let [n, _, h, w] = x.shape();
        let mut y = Tensor::zeros(self.output_shape(x.shape()));
        let p_out = y.h() * y.w();
        // The weights move every step, so `matmul_tn` lays them out per
        // call; NCHW samples reach it as a dense matrix (one sample is
        // one, a group is interleaved into one).
        let (weight, ckk, in_c) = (
            self.weight.value.data(),
            self.geom.out_c * self.geom.k * self.geom.k,
            self.geom.in_c,
        );
        let product = |b: &[f32], ldb, cols: &mut [f32], ncols| {
            assert_eq!(ldb, ncols, "dense input matrix");
            matmul_tn_set(weight, &b[..in_c * ncols], cols, ckk, in_c, ncols);
        };
        deconv_forward(
            &self.geom,
            (product, None),
            &Epilogue::bias(&self.bias.value.data()[..self.geom.out_c]),
            Batch::nchw(x),
            (h, w),
            n,
            &mut BatchMut::nchw(y.data_mut(), self.geom.out_c, p_out),
            &mut (),
        );
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("ConvTranspose2d::backward called before forward");
        let [n, _, h, w] = x.shape();
        let [_, _, ho, wo] = grad_out.shape();
        let ckk = self.geom.out_c * self.geom.k * self.geom.k;
        let mut dx = Tensor::zeros(x.shape());
        let mut dcols = workspace::take(ckk * h * w);
        for b in 0..n {
            let dy_n = &grad_out.data()
                [b * self.geom.out_c * ho * wo..(b + 1) * self.geom.out_c * ho * wo];
            // dcols = im2col(dY), read by both gradients.
            let dcols = &mut dcols[..ckk * h * w];
            let (c, window) = (
                (self.geom.out_c, 1),
                (self.geom.k, self.geom.stride, self.geom.pad),
            );
            im2col(dy_n, ho * wo, c, (ho, wo), window, dcols, (h * w, 0));
            // As in `Conv2d::backward`: shared reads (`dcols`, `dY`, `x`,
            // the weights), disjoint writes (this sample's `dx` and
            // `bias.grad` against `weight.grad`), one `join`, the weight
            // gradient on the caller.
            let dcols = &*dcols;
            let (w_grad, b_grad) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
            let weight = self.weight.value.data();
            let x_n = &x.data()[b * self.geom.in_c * h * w..(b + 1) * self.geom.in_c * h * w];
            let dx_n =
                &mut dx.data_mut()[b * self.geom.in_c * h * w..(b + 1) * self.geom.in_c * h * w];
            let in_c = self.geom.in_c;
            pop_exec::join(
                || {
                    // dX = W @ dcols.
                    matmul_nn(weight, dcols, dx_n, in_c, ckk, h * w);
                    add_plane_sums(b_grad, dy_n, ho * wo);
                },
                // dW += x @ dcolsᵀ.
                || matmul_nt(x_n, dcols, w_grad, in_c, h * w, ckk),
            );
        }
        workspace::give(dcols);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_halves_spatial_size() {
        let mut conv = Conv2d::new(4, 8, 4, 2, 1, 1);
        let x = Tensor::randn([2, 4, 16, 16], 0.0, 1.0, 2);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), [2, 8, 8, 8]);
        assert_eq!(conv.output_shape(x.shape()), y.shape());
    }

    #[test]
    fn deconv_doubles_spatial_size() {
        let mut deconv = ConvTranspose2d::new(8, 4, 4, 2, 1, 1);
        let x = Tensor::randn([2, 8, 8, 8], 0.0, 1.0, 2);
        let y = deconv.forward(&x);
        assert_eq!(y.shape(), [2, 4, 16, 16]);
    }

    #[test]
    fn conv_backward_shapes() {
        let mut conv = Conv2d::new(3, 5, 4, 2, 1, 3);
        let x = Tensor::randn([1, 3, 8, 8], 0.0, 1.0, 4);
        let y = conv.forward(&x);
        let dx = conv.backward(&y);
        assert_eq!(dx.shape(), x.shape());
        // Gradients accumulated.
        let gw: f32 = conv.weight.grad.data().iter().map(|g| g.abs()).sum();
        assert!(gw > 0.0);
    }

    #[test]
    fn conv_known_values() {
        // 1x1 kernel, identity-ish: y = w*x + b.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        conv.weight.value.data_mut()[0] = 2.0;
        conv.bias.value.data_mut()[0] = 0.5;
        let x = Tensor::from_vec([1, 1, 1, 3], vec![1.0, 2.0, 3.0]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), &[2.5, 4.5, 6.5]);
    }

    #[test]
    fn deconv_is_adjoint_of_conv() {
        // <conv(x), y> == <x, deconv(y)> when deconv shares the conv's
        // weights (and both have zero bias).
        let (cin, cout, k, s, p) = (2, 3, 4, 2, 1);
        let mut conv = Conv2d::new(cin, cout, k, s, p, 7);
        conv.bias.value.data_mut().fill(0.0);
        let mut deconv = ConvTranspose2d::new(cout, cin, k, s, p, 8);
        deconv.bias.value.data_mut().fill(0.0);
        // Share weights: conv W is [cout, cin, k, k], deconv W is
        // [cout(=in_c), cin(=out_c), k, k] — identical memory layout.
        deconv
            .weight
            .value
            .data_mut()
            .copy_from_slice(conv.weight.value.data());

        let x = Tensor::randn([1, cin, 8, 8], 0.0, 1.0, 9);
        let y = Tensor::randn([1, cout, 4, 4], 0.0, 1.0, 10);
        let cx = conv.forward(&x);
        let dy = deconv.forward(&y);
        let lhs: f64 = cx
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(dy.data())
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn batched_forward_is_bitwise_identical_to_per_sample() {
        let mut conv = Conv2d::new(3, 5, 4, 2, 1, 11);
        let mut deconv = ConvTranspose2d::new(5, 3, 4, 2, 1, 12);
        let xs: Vec<Tensor> = (0..4)
            .map(|s| Tensor::randn([1, 3, 8, 8], 0.0, 1.0, 40 + s))
            .collect();
        let conv_singles: Vec<Tensor> = xs.iter().map(|x| conv.forward(x)).collect();
        let deconv_singles: Vec<Tensor> = conv_singles.iter().map(|y| deconv.forward(y)).collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let batch = Tensor::stack_batch(&refs);
        let conv_batched = conv.forward(&batch);
        for (i, (part, single)) in conv_batched
            .split_batch()
            .iter()
            .zip(&conv_singles)
            .enumerate()
        {
            assert_eq!(part, single, "conv sample {i}");
        }
        let deconv_batched = deconv.forward(&conv_batched);
        for (i, (part, single)) in deconv_batched
            .split_batch()
            .iter()
            .zip(&deconv_singles)
            .enumerate()
        {
            assert_eq!(part, single, "deconv sample {i}");
        }
    }

    /// One input channel: an NCHW batch is then one row of planes, which
    /// is a dense `[1, g·h·w]` matrix only by accident of there being no
    /// second row — it must take the interleaving path, not be mistaken
    /// for the channel-major layout a plan multiplies in place.
    #[test]
    fn single_channel_batches_deconvolve_like_their_samples() {
        let mut deconv = ConvTranspose2d::new(1, 3, 4, 2, 1, 14);
        for side in [1, 2] {
            let xs: Vec<Tensor> = (0..4)
                .map(|s| Tensor::randn([1, 1, side, side], 0.0, 1.0, 80 + s))
                .collect();
            let refs: Vec<&Tensor> = xs.iter().collect();
            let batched = deconv.forward(&Tensor::stack_batch(&refs));
            for (part, x) in batched.split_batch().iter().zip(&xs) {
                assert_eq!(part, &deconv.forward(x), "side {side}");
            }
        }
    }

    #[test]
    fn batched_conv_backward_matches_per_sample_gradients() {
        // Summed-gradient check: running two samples through one batched
        // forward/backward must accumulate the same dW/db (and produce the
        // same dX) as two independent single-sample passes.
        let xs: Vec<Tensor> = (0..2)
            .map(|s| Tensor::randn([1, 2, 8, 8], 0.0, 1.0, 60 + s))
            .collect();
        let mut single = Conv2d::new(2, 3, 4, 2, 1, 13);
        let mut dxs = Vec::new();
        for x in &xs {
            let y = single.forward(x);
            dxs.push(single.backward(&y));
        }
        let mut batched = Conv2d::new(2, 3, 4, 2, 1, 13);
        let refs: Vec<&Tensor> = xs.iter().collect();
        let xb = Tensor::stack_batch(&refs);
        let yb = batched.forward(&xb);
        let dxb = batched.backward(&yb);
        for (i, (part, dx)) in dxb.split_batch().iter().zip(&dxs).enumerate() {
            assert_eq!(part, dx, "dx sample {i}");
        }
        for (pb, ps) in batched.params_mut().iter().zip(single.params_mut().iter()) {
            for (a, b) in pb.grad.data().iter().zip(ps.grad.data()) {
                assert!((a - b).abs() < 1e-4, "grad {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        let g = Tensor::zeros([1, 1, 4, 4]);
        let _ = conv.backward(&g);
    }

    /// The training forward before it forked its GEMM: the same lowering
    /// through the unsplit [`crate::linalg::matmul_nn_set`].
    fn unsplit_forward(conv: &Conv2d, x: &Tensor) -> (Tensor, Vec<f32>) {
        let [n, _, h, w] = x.shape();
        let geom = conv.geom;
        let mut y = Tensor::zeros(conv.output_shape(x.shape()));
        let p_out = y.h() * y.w();
        let mut cols = vec![0.0; geom.in_c * geom.k * geom.k * n * p_out];
        conv_forward(
            &geom,
            crate::linalg::matmul_nn_set,
            (conv.weight.value.data(), None),
            &Epilogue::bias(conv.bias.value.data()),
            Batch::nchw(x),
            (h, w),
            n,
            n,
            &mut cols,
            &mut BatchMut::nchw(y.data_mut(), geom.out_c, p_out),
            &mut (),
        );
        (y, cols)
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    /// The training forward splits its output-channel rows across the
    /// join helper in whole row blocks (none below 8 channels, 4 | 4 at 8,
    /// 4 | 8 at 12, 48 | 48 at 96): output and kept lowering bit-equal to
    /// the unsplit product, at batch 1 and 3, forked wherever the helper is
    /// free and with every join inline.
    #[test]
    fn row_split_forward_is_the_unsplit_forward_bit_for_bit() {
        for out_c in [1, 4, 8, 12, 96] {
            for n in [1, 3] {
                let mut conv = Conv2d::new(5, out_c, 4, 2, 1, 20 + out_c as u64);
                let bias = Tensor::randn([1, out_c, 1, 1], 0.0, 0.1, 3);
                conv.bias.value = bias;
                let x = Tensor::randn([n, 5, 12, 12], 0.0, 1.0, 30 + n as u64);
                let (want, want_cols) = unsplit_forward(&conv, &x);
                let run = || {
                    let mut cache = ConvCache::default();
                    let y = conv.forward_pass(&x, &mut cache);
                    (bits(y.data()), bits(&cache.cols))
                };
                let ((), inline) = pop_exec::join(|| (), run);
                for (way, got) in [("forked", run()), ("inline", inline)] {
                    assert_eq!(
                        got.0,
                        bits(want.data()),
                        "{way} output, out_c {out_c}, n {n}"
                    );
                    assert_eq!(got.1, bits(&want_cols), "{way} cols, out_c {out_c}, n {n}");
                }
            }
        }
    }

    /// Without gradients to add onto, a backward pass returns the input
    /// gradient `Layer::backward` returns — its `Wᵀ·dY` rows forked or
    /// inline — and leaves every parameter gradient where it was.
    #[test]
    fn input_gradient_only_backward_is_layer_backwards_gradient() {
        for (out_c, n) in [(1, 1), (8, 1), (12, 2), (96, 1)] {
            let mut conv = Conv2d::new(6, out_c, 4, 2, 1, 40 + out_c as u64);
            let x = Tensor::randn([n, 6, 10, 10], 0.0, 1.0, 41);
            let dy = Tensor::randn(conv.output_shape(x.shape()), 0.0, 1.0, 42);
            let _ = conv.forward(&x);
            let want = conv.backward(&dy);
            let grads = [conv.weight.grad.clone(), conv.bias.grad.clone()];
            let run = || {
                let mut cache = ConvCache::default();
                let _ = conv.forward_pass(&x, &mut cache);
                bits(conv.backward_pass(&mut cache, &dy, None).data())
            };
            let ((), inline) = pop_exec::join(|| (), run);
            for (way, got) in [("forked", run()), ("inline", inline)] {
                assert_eq!(got, bits(want.data()), "{way} dx, out_c {out_c}, n {n}");
            }
            assert_eq!([conv.weight.grad.clone(), conv.bias.grad.clone()], grads);
        }
    }

    #[test]
    fn parameter_counts() {
        let conv = Conv2d::new(3, 8, 4, 2, 1, 0);
        assert_eq!(conv.parameter_count(), 8 * 3 * 16 + 8);
        let deconv = ConvTranspose2d::new(8, 3, 4, 2, 1, 0);
        assert_eq!(deconv.parameter_count(), 8 * 3 * 16 + 3);
    }
}
