use crate::im2col::{col2im, conv_out_dim, im2col_strided};
use crate::linalg::{matmul_nn, matmul_nt, matmul_tn};
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace;
use crate::Layer;

/// Floats of lowered matrix an inference matmul works on at a time
/// (512 KiB): what the lowering writes is still in L2 when the matmul
/// reads it, whatever the batch size — which also keeps the thread's
/// workspace to a few buffers of about this size.
const SLAB: usize = 1 << 17;

/// How many of `n` samples, each lowering to `per_sample` floats, go
/// through one matmul: as many as fit `SLAB`, at least one.
fn slab_group(per_sample: usize, n: usize) -> usize {
    (SLAB / per_sample.max(1)).clamp(1, n.max(1))
}

/// `db += Σ dY`: adds the sum of each channel plane of `dy` (`plane` floats
/// apiece) onto that channel's bias gradient.
fn add_plane_sums(bias_grad: &mut [f32], dy: &[f32], plane: usize) {
    for (c, g) in bias_grad.iter_mut().enumerate() {
        *g += dy[c * plane..(c + 1) * plane].iter().sum::<f32>();
    }
}

/// 2-D convolution (`k×k` kernel, stride, zero padding) lowered to im2col +
/// matmul. pix2pix uses `k=4, stride=2, pad=1` throughout the encoder,
/// halving the spatial size per layer — the left column of the paper's
/// Figure 5.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    // Interleaved im2col matrix of the last forward: `[ckk, n·ho·wo]` with
    // sample `b` occupying columns `b·ho·wo .. (b+1)·ho·wo`.
    cached_cols: Vec<f32>,
    cached_p_out: usize,
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
            in_c,
            out_c,
            k,
            stride,
            pad,
            weight: Param::randn([out_c, in_c, k, k], 0.02, seed ^ 0xC0_u64),
            bias: Param::new(Tensor::zeros([1, out_c, 1, 1])),
            cached_input: None,
            cached_cols: Vec::new(),
            cached_p_out: 0,
        }
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, input: [usize; 4]) -> [usize; 4] {
        [
            input[0],
            self.out_c,
            conv_out_dim(input[2], self.k, self.stride, self.pad),
            conv_out_dim(input[3], self.k, self.stride, self.pad),
        ]
    }

    /// Number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// i8 weight quantization with per-output-channel scales; `affine`
    /// optionally folds a following per-channel inference transform
    /// `y = a·conv + s` (batch-norm in eval mode) into the quantized
    /// weights and bias.
    pub fn quantize(&self, affine: Option<(&[f32], &[f32])>) -> crate::quant::QuantizedConv2d {
        crate::quant::QuantizedConv2d::new(
            self.in_c,
            self.out_c,
            self.k,
            self.stride,
            self.pad,
            self.weight.value.data(),
            &self.bias.value.data()[..self.out_c],
            affine,
        )
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.c(), self.in_c, "input channels");
        let [n, _, h, w] = x.shape();
        let ho = conv_out_dim(h, self.k, self.stride, self.pad);
        let wo = conv_out_dim(w, self.k, self.stride, self.pad);
        let ckk = self.in_c * self.k * self.k;
        let p_out = ho * wo;
        // Unroll samples side by side into one interleaved [ckk, g·ho·wo]
        // matrix and run a single matmul over it: each output accumulates
        // over `ckk` in the same order as a per-sample lowering, so results
        // are bitwise-identical for any batch size, while the matmul's
        // inner loop is `g×` longer — what makes micro-batched inference
        // beat single-sample calls on small feature maps. Inference lowers
        // as many samples per matmul as fit `SLAB`; training lowers the
        // whole batch, the layout `backward` expects.
        //
        // `im2col` writes every element, so the matrix is never zeroed: an
        // inference forward borrows it from the thread's workspace, a
        // training forward reuses the capacity `backward` handed back.
        let group = if train { n } else { slab_group(ckk * p_out, n) };
        let mut cols = if train {
            let mut cols = std::mem::take(&mut self.cached_cols);
            cols.resize(ckk * n * p_out, 0.0);
            cols
        } else {
            workspace::take(ckk * group * p_out)
        };
        let mut y_flat = workspace::take(self.out_c * group * p_out);
        let mut y = Vec::with_capacity(n * self.out_c * p_out);
        for first in (0..n).step_by(group.max(1)) {
            let g = group.min(n - first);
            let gcols = g * p_out;
            let (cols, y_flat) = (&mut cols[..ckk * gcols], &mut y_flat[..self.out_c * gcols]);
            for b in 0..g {
                im2col_strided(
                    &x.data()[(first + b) * self.in_c * h * w..][..self.in_c * h * w],
                    self.in_c,
                    h,
                    w,
                    self.k,
                    self.stride,
                    self.pad,
                    cols,
                    gcols,
                    b * p_out,
                );
            }
            y_flat.fill(0.0);
            matmul_nn(
                self.weight.value.data(),
                cols,
                y_flat,
                self.out_c,
                ckk,
                gcols,
            );
            // De-interleave [out_c, g·p] to NCHW and add the bias.
            for b in 0..g {
                for (c, bv) in self.bias.value.data().iter().enumerate() {
                    let src = &y_flat[c * gcols + b * p_out..][..p_out];
                    y.extend(src.iter().map(|s| s + bv));
                }
            }
        }
        workspace::give(y_flat);
        // The caches exist only for a backward pass; inference-mode
        // forwards (the serving hot path) must not retain the k²-scaled
        // im2col matrix or an input clone between requests.
        if train {
            self.cached_cols = cols;
            self.cached_p_out = p_out;
            self.cached_input = Some(x.clone());
        } else {
            workspace::give(cols);
            self.cached_cols = Vec::new();
            self.cached_input = None;
        }
        Tensor::from_vec([n, self.out_c, ho, wo], y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("Conv2d::backward called before forward");
        let [n, _, h, w] = x.shape();
        let [_, _, ho, wo] = grad_out.shape();
        let ckk = self.in_c * self.k * self.k;
        let p_out = self.cached_p_out;
        let ncols = n * p_out;
        let mut cached_cols = std::mem::take(&mut self.cached_cols);
        let mut dx = Tensor::zeros(x.shape());
        let mut cols_scratch = workspace::take(if n > 1 { ckk * p_out } else { 0 });
        let mut dcols = workspace::take(ckk * p_out);
        for b in 0..n {
            let dy_n = &grad_out.data()[b * self.out_c * ho * wo..(b + 1) * self.out_c * ho * wo];
            // Per-sample contiguous view of the interleaved cache (the
            // cache *is* contiguous when n == 1).
            let cols_b: &[f32] = if n == 1 {
                &cached_cols
            } else {
                for r in 0..ckk {
                    cols_scratch[r * p_out..(r + 1) * p_out].copy_from_slice(
                        &cached_cols[r * ncols + b * p_out..r * ncols + (b + 1) * p_out],
                    );
                }
                &cols_scratch[..ckk * p_out]
            };
            // The two gradients read the same `dY` and write disjoint
            // memory — `dcols`, this sample's `dx` and `bias.grad` on one
            // side, `weight.grad` on the other — so they are one `join`:
            // each side runs exactly the arithmetic it runs alone. The
            // weight gradient stays on the caller because it is the
            // heavier half at most layers (`nt` packs `colsᵀ` first), and
            // the forked half is the one that starts late when the helper
            // has parked.
            let (w_grad, b_grad) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
            let weight = self.weight.value.data();
            let dx_n = &mut dx.data_mut()[b * self.in_c * h * w..(b + 1) * self.in_c * h * w];
            let dcols = &mut dcols[..ckk * p_out];
            let (in_c, out_c, k, stride, pad) =
                (self.in_c, self.out_c, self.k, self.stride, self.pad);
            pop_exec::join(
                || {
                    // dX = col2im(Wᵀ @ dY).
                    dcols.fill(0.0);
                    matmul_tn(weight, dy_n, dcols, ckk, out_c, ho * wo);
                    col2im(dcols, in_c, h, w, k, stride, pad, dx_n, p_out, 0);
                    add_plane_sums(b_grad, dy_n, ho * wo);
                },
                // dW += dY @ colsᵀ.
                || matmul_nt(dy_n, cols_b, w_grad, out_c, ho * wo, ckk),
            );
        }
        workspace::give(cols_scratch);
        workspace::give(dcols);
        // Hand the matrix's capacity to the next training forward, empty:
        // outside forward → backward the layer caches nothing.
        cached_cols.clear();
        self.cached_cols = cached_cols;
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
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
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
            in_c,
            out_c,
            k,
            stride,
            pad,
            weight: Param::randn([in_c, out_c, k, k], 0.02, seed ^ 0xDC_u64),
            bias: Param::new(Tensor::zeros([1, out_c, 1, 1])),
            cached_input: None,
        }
    }

    /// Output spatial size: `(h − 1)·stride − 2·pad + k`.
    pub fn output_shape(&self, input: [usize; 4]) -> [usize; 4] {
        [
            input[0],
            self.out_c,
            (input[2] - 1) * self.stride + self.k - 2 * self.pad,
            (input[3] - 1) * self.stride + self.k - 2 * self.pad,
        ]
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
            self.in_c,
            self.out_c,
            self.k,
            self.stride,
            self.pad,
            self.weight.value.data(),
            &self.bias.value.data()[..self.out_c],
            affine,
        )
    }
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.c(), self.in_c, "input channels");
        let [n, _, h, w] = x.shape();
        let out = self.output_shape(x.shape());
        let (ho, wo) = (out[2], out[3]);
        // Sanity: the adjoint geometry must invert cleanly.
        debug_assert_eq!(conv_out_dim(ho, self.k, self.stride, self.pad), h);
        let ckk = self.out_c * self.k * self.k;
        let p_in = h * w;
        let mut y = Tensor::zeros(out);
        // Batched lowering mirrors Conv2d: interleave a group of samples
        // into one [in_c, g·h·w] matrix (one sample already is that
        // matrix), run a single `Wᵀ @ X`, then col2im each sample's column
        // block straight out of the product. Accumulation order per element
        // matches the per-sample pass exactly, so any batch size is
        // bitwise-identical.
        let group = slab_group(ckk * p_in, n);
        let mut xt_buf = workspace::take(self.in_c * group * p_in);
        let mut cols_buf = workspace::take(ckk * group * p_in);
        let sample = (self.out_c * ho * wo).max(1);
        for (gi, y_g) in y.data_mut().chunks_mut(group * sample).enumerate() {
            let (first, g) = (gi * group, y_g.len() / sample);
            let gcols = g * p_in;
            let x_g = &x.data()[first * self.in_c * p_in..][..self.in_c * gcols];
            let xt: &[f32] = if g == 1 {
                x_g
            } else {
                for (b, x_b) in x_g.chunks_exact(self.in_c * p_in).enumerate() {
                    for (c, plane) in x_b.chunks_exact(p_in).enumerate() {
                        xt_buf[c * gcols + b * p_in..][..p_in].copy_from_slice(plane);
                    }
                }
                &xt_buf[..self.in_c * gcols]
            };
            let cols = &mut cols_buf[..ckk * gcols];
            cols.fill(0.0);
            matmul_tn(self.weight.value.data(), xt, cols, ckk, self.in_c, gcols);
            for (b, y_n) in y_g.chunks_exact_mut(sample).enumerate() {
                col2im(
                    cols,
                    self.out_c,
                    ho,
                    wo,
                    self.k,
                    self.stride,
                    self.pad,
                    y_n,
                    gcols,
                    b * p_in,
                );
                for (plane, bv) in y_n
                    .chunks_exact_mut((ho * wo).max(1))
                    .zip(self.bias.value.data())
                {
                    for v in plane {
                        *v += bv;
                    }
                }
            }
        }
        workspace::give(xt_buf);
        workspace::give(cols_buf);
        self.cached_input = if train { Some(x.clone()) } else { None };
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("ConvTranspose2d::backward called before forward");
        let [n, _, h, w] = x.shape();
        let [_, _, ho, wo] = grad_out.shape();
        let ckk = self.out_c * self.k * self.k;
        let mut dx = Tensor::zeros(x.shape());
        let mut dcols = workspace::take(ckk * h * w);
        for b in 0..n {
            let dy_n = &grad_out.data()[b * self.out_c * ho * wo..(b + 1) * self.out_c * ho * wo];
            // dcols = im2col(dY), read by both gradients.
            let dcols = &mut dcols[..ckk * h * w];
            im2col_strided(
                dy_n,
                self.out_c,
                ho,
                wo,
                self.k,
                self.stride,
                self.pad,
                dcols,
                h * w,
                0,
            );
            // As in `Conv2d::backward`: shared reads (`dcols`, `dY`, `x`,
            // the weights), disjoint writes (this sample's `dx` and
            // `bias.grad` against `weight.grad`), one `join`, the weight
            // gradient on the caller.
            let dcols = &*dcols;
            let (w_grad, b_grad) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
            let weight = self.weight.value.data();
            let x_n = &x.data()[b * self.in_c * h * w..(b + 1) * self.in_c * h * w];
            let dx_n = &mut dx.data_mut()[b * self.in_c * h * w..(b + 1) * self.in_c * h * w];
            let in_c = self.in_c;
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
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), [2, 8, 8, 8]);
        assert_eq!(conv.output_shape(x.shape()), y.shape());
    }

    #[test]
    fn deconv_doubles_spatial_size() {
        let mut deconv = ConvTranspose2d::new(8, 4, 4, 2, 1, 1);
        let x = Tensor::randn([2, 8, 8, 8], 0.0, 1.0, 2);
        let y = deconv.forward(&x, true);
        assert_eq!(y.shape(), [2, 4, 16, 16]);
    }

    #[test]
    fn conv_backward_shapes() {
        let mut conv = Conv2d::new(3, 5, 4, 2, 1, 3);
        let x = Tensor::randn([1, 3, 8, 8], 0.0, 1.0, 4);
        let y = conv.forward(&x, true);
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
        let y = conv.forward(&x, true);
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
        let cx = conv.forward(&x, true);
        let dy = deconv.forward(&y, true);
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
        let conv_singles: Vec<Tensor> = xs.iter().map(|x| conv.forward(x, false)).collect();
        let deconv_singles: Vec<Tensor> = conv_singles
            .iter()
            .map(|y| deconv.forward(y, false))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let batch = Tensor::stack_batch(&refs);
        let conv_batched = conv.forward(&batch, false);
        for (i, (part, single)) in conv_batched
            .split_batch()
            .iter()
            .zip(&conv_singles)
            .enumerate()
        {
            assert_eq!(part, single, "conv sample {i}");
        }
        let deconv_batched = deconv.forward(&conv_batched, false);
        for (i, (part, single)) in deconv_batched
            .split_batch()
            .iter()
            .zip(&deconv_singles)
            .enumerate()
        {
            assert_eq!(part, single, "deconv sample {i}");
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
            let y = single.forward(x, true);
            dxs.push(single.backward(&y));
        }
        let mut batched = Conv2d::new(2, 3, 4, 2, 1, 13);
        let refs: Vec<&Tensor> = xs.iter().collect();
        let xb = Tensor::stack_batch(&refs);
        let yb = batched.forward(&xb, true);
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

    #[test]
    fn parameter_counts() {
        let conv = Conv2d::new(3, 8, 4, 2, 1, 0);
        assert_eq!(conv.parameter_count(), 8 * 3 * 16 + 8);
        let deconv = ConvTranspose2d::new(8, 3, 4, 2, 1, 0);
        assert_eq!(deconv.parameter_count(), 8 * 3 * 16 + 3);
    }
}
