//! The forward lowering of the convolution layers — `im2col`/`col2im`
//! around one GEMM per group of samples — as free functions over strided
//! views of a batch, so that the layers and an inference plan run the same
//! code: a layer passes its own weights and NCHW tensors, a plan passes
//! weights it laid out once ([`PlannedConv`], [`PlannedDeconv`]) and views
//! into the buffers it keeps between layers.
//!
//! Samples are unrolled side by side into one interleaved
//! `[c·k·k, g·ho·wo]` matrix and multiplied once: each output accumulates
//! over `c·k·k` in the same order as a per-sample lowering, so results are
//! bitwise-identical for any batch size and any grouping, while the GEMM's
//! inner loop is `g×` longer — what makes micro-batched inference beat
//! single-sample calls on small feature maps.
//!
//! What follows the GEMM — bias, then an inference batch-norm, then the
//! activation (`Epilogue`) — is applied to each output plane or row while
//! it is still in cache, with the per-element expressions of the separate
//! layers in their order, so fusing them changes no bit either.

use crate::im2col::{col2im, conv_out_dim, im2col, Pair};
use crate::linalg::{matmul_nn_set, TnWeights};
use crate::tensor::Tensor;
use crate::workspace::scratch;

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

/// The geometry of a convolution, or of the transposed convolution that is
/// its adjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel side.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
}

impl ConvGeom {
    /// The spatial size a convolution maps `(h, w)` to.
    ///
    /// # Panics
    ///
    /// Panics when the kernel does not fit the padded input.
    pub fn conv_out(&self, (h, w): (usize, usize)) -> (usize, usize) {
        (
            conv_out_dim(h, self.k, self.stride, self.pad),
            conv_out_dim(w, self.k, self.stride, self.pad),
        )
    }

    /// The spatial size a transposed convolution maps `(h, w)` to:
    /// `(d − 1)·stride − 2·pad + k` per axis.
    pub fn deconv_out(&self, (h, w): (usize, usize)) -> (usize, usize) {
        let up = |d: usize| (d - 1) * self.stride + self.k - 2 * self.pad;
        (up(h), up(w))
    }
}

/// The `[C, H, W]` samples of a batch, wherever they live.
#[derive(Debug, Clone, Copy)]
pub enum Batch<'a> {
    /// In one buffer: sample `s` starts `s · sample_stride` floats in and
    /// its channel planes are `channel_stride` apart — NCHW
    /// (`C·H·W`, `H·W`), or channel-major over the batch (`H·W`, `N·H·W`),
    /// the layout a transposed convolution multiplies without a copy.
    Strided {
        /// The planes.
        buf: &'a [f32],
        /// Floats from one sample to the next.
        sample_stride: usize,
        /// Floats from one channel plane of a sample to the next.
        channel_stride: usize,
    },
    /// One dense `[1, C, H, W]` tensor per sample.
    Tensors(&'a [&'a Tensor]),
}

impl<'a> Batch<'a> {
    /// Every sample of an `[N, C, H, W]` tensor.
    pub fn nchw(x: &'a Tensor) -> Self {
        Batch::Strided {
            buf: x.data(),
            sample_stride: x.c() * x.h() * x.w(),
            channel_stride: x.h() * x.w(),
        }
    }

    /// `n` samples laid channel-major over the batch in `buf`: row `c` of
    /// the `[C, n·plane]` matrix is every sample's channel-`c` plane.
    pub fn channel_major(buf: &'a [f32], n: usize, plane: usize) -> Self {
        Batch::Strided {
            buf,
            sample_stride: plane,
            channel_stride: n * plane,
        }
    }

    /// Sample `s` (planes of `plane` floats): the slice its first plane
    /// starts, and the distance between its planes.
    fn sample(&self, s: usize, plane: usize) -> (&'a [f32], usize) {
        match *self {
            Batch::Strided {
                buf,
                sample_stride,
                channel_stride,
            } => (&buf[s * sample_stride..], channel_stride),
            Batch::Tensors(xs) => (xs[s].data(), plane),
        }
    }

    /// Samples `first .. first + g` as the `[C, g·plane]` matrix whose row
    /// `c` is their channel-`c` planes side by side — the slice it starts
    /// and its row stride — when they already lie that way in memory.
    fn columns(&self, first: usize, g: usize, plane: usize) -> Option<(&'a [f32], usize)> {
        match *self {
            Batch::Strided {
                buf,
                sample_stride,
                channel_stride,
            } if g == 1 || (sample_stride == plane && channel_stride >= g * plane) => {
                Some((&buf[first * sample_stride..], channel_stride))
            }
            Batch::Tensors(xs) if g == 1 => Some((xs[first].data(), plane)),
            _ => None,
        }
    }
}

/// Where the samples of a batch are written; see [`Batch`].
#[derive(Debug)]
pub enum BatchMut<'a> {
    /// In one buffer, as [`Batch::Strided`].
    Strided {
        /// The planes.
        buf: &'a mut [f32],
        /// Floats from one sample to the next.
        sample_stride: usize,
        /// Floats from one channel plane of a sample to the next.
        channel_stride: usize,
    },
    /// One dense `[1, C, H, W]` tensor per sample.
    Tensors(&'a mut [Tensor]),
}

impl<'a> BatchMut<'a> {
    /// NCHW over `buf`: samples of `channels` planes of `plane` floats.
    pub fn nchw(buf: &'a mut [f32], channels: usize, plane: usize) -> Self {
        BatchMut::Strided {
            buf,
            sample_stride: channels * plane,
            channel_stride: plane,
        }
    }

    /// Channel-major over `buf`, as [`Batch::channel_major`].
    pub fn channel_major(buf: &'a mut [f32], n: usize, plane: usize) -> Self {
        BatchMut::Strided {
            buf,
            sample_stride: plane,
            channel_stride: n * plane,
        }
    }

    fn sample(&mut self, s: usize, plane: usize) -> (&mut [f32], usize) {
        match self {
            BatchMut::Strided {
                buf,
                sample_stride,
                channel_stride,
            } => (&mut buf[s * *sample_stride..], *channel_stride),
            BatchMut::Tensors(ys) => (ys[s].data_mut(), plane),
        }
    }

    /// As [`Batch::columns`].
    fn columns(&mut self, first: usize, g: usize, plane: usize) -> Option<(&mut [f32], usize)> {
        match self {
            BatchMut::Strided {
                buf,
                sample_stride,
                channel_stride,
            } if g == 1 || (*sample_stride == plane && *channel_stride >= g * plane) => {
                Some((&mut buf[first * *sample_stride..], *channel_stride))
            }
            BatchMut::Tensors(ys) if g == 1 => Some((ys[first].data_mut(), plane)),
            _ => None,
        }
    }
}

/// One channel of an inference batch-norm: the running statistics and the
/// affine, read out once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Norm {
    /// Running mean.
    pub mean: f32,
    /// `1 / sqrt(running variance + ε)`.
    pub inv_std: f32,
    /// Scale `γ`.
    pub gamma: f32,
    /// Shift `β`.
    pub beta: f32,
}

impl Norm {
    /// `γ·((v − mean)·inv_std) + β`: the expression (and rounding order)
    /// of [`BatchNorm2d`](crate::BatchNorm2d)'s forward, with the running
    /// statistics in place of the batch's.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        self.gamma * ((v - self.mean) * self.inv_std) + self.beta
    }
}

/// The activation closing a block, as the activation layers compute it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// None.
    Identity,
    /// `v` if non-negative, else `α·v`.
    LeakyRelu(f32),
    /// `v` if non-negative, else zero.
    Relu,
    /// `tanh(v)`.
    Tanh,
}

/// What happens to each output of a convolution's GEMM before it is
/// stored: the channel's bias is added, then the channel's inference
/// batch-norm applied, then the activation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Epilogue<'a> {
    /// One per output channel.
    pub(crate) bias: &'a [f32],
    /// One per output channel, when the block has a batch-norm.
    pub(crate) norm: Option<&'a [Norm]>,
    /// The block's activation.
    pub(crate) act: Activation,
}

impl<'a> Epilogue<'a> {
    /// A bare layer: bias only.
    pub(crate) fn bias(bias: &'a [f32]) -> Self {
        Epilogue {
            bias,
            norm: None,
            act: Activation::Identity,
        }
    }

    /// Finishes `row`, GEMM outputs of channel `c`, in place.
    fn apply(&self, c: usize, row: &mut [f32]) {
        let bias = self.bias[c];
        match self.norm {
            Some(norm) => {
                let norm = norm[c];
                activate(row, |s| norm.apply(s + bias), self.act);
            }
            None => activate(row, |s| s + bias, self.act),
        }
    }
}

/// The tables of an [`Epilogue`], owned by a planned block.
#[derive(Debug)]
pub(crate) struct Finish {
    bias: Vec<f32>,
    norm: Option<Vec<Norm>>,
    act: Activation,
}

impl Finish {
    /// # Panics
    ///
    /// Panics when `norm` does not have one entry per bias.
    pub(crate) fn new(bias: &[f32], norm: Option<Vec<Norm>>, act: Activation) -> Self {
        assert!(
            norm.as_ref().is_none_or(|n| n.len() == bias.len()),
            "one norm entry per output channel"
        );
        Finish {
            bias: bias.to_vec(),
            norm,
            act,
        }
    }

    fn epilogue(&self) -> Epilogue<'_> {
        Epilogue {
            bias: &self.bias,
            norm: self.norm.as_deref(),
            act: self.act,
        }
    }
}

/// `v ← act(pre(v))` over `row`, one branch-free loop per activation.
#[inline(always)]
fn activate(row: &mut [f32], pre: impl Fn(f32) -> f32, act: Activation) {
    match act {
        Activation::Identity => row.iter_mut().for_each(|v| *v = pre(*v)),
        Activation::LeakyRelu(alpha) => row.iter_mut().for_each(|v| {
            let y = pre(*v);
            *v = if y < 0.0 { y * alpha } else { y };
        }),
        Activation::Relu => row.iter_mut().for_each(|v| {
            let y = pre(*v);
            *v = if y < 0.0 { 0.0 } else { y };
        }),
        Activation::Tanh => row.iter_mut().for_each(|v| *v = pre(*v).tanh()),
    }
}

/// The overwriting GEMM a convolution forward multiplies with:
/// `(A, B, C, m, k, n)` sets `C = A @ B` ([`matmul_nn_set`], or its forked
/// twin in a training forward).
pub(crate) type Product = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// A convolution forward: `x` (`n` samples of `[in_c, h, w]`) lowered
/// `group` samples at a time into `cols` (at least `in_c·k²` rows of
/// `group·ho·wo`), multiplied by `weight` (`[out_c, in_c·k²]`) through
/// `product`, finished by `epilogue` and written to `y`. A training forward
/// passes `group = n` and keeps `cols` for its backward pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_forward(
    geom: &ConvGeom,
    product: Product,
    weight: &[f32],
    epilogue: &Epilogue<'_>,
    x: Batch<'_>,
    (h, w): (usize, usize),
    n: usize,
    group: usize,
    cols: &mut [f32],
    y: &mut BatchMut<'_>,
) {
    let (ho, wo) = geom.conv_out((h, w));
    let (ckk, p_out) = (geom.in_c * geom.k * geom.k, ho * wo);
    // `im2col` writes every element of `cols` and the GEMM every element
    // of its output, so neither is zeroed first.
    scratch(geom.out_c * group * p_out, |y_flat| {
        for first in (0..n).step_by(group.max(1)) {
            let g = group.min(n - first);
            let gcols = g * p_out;
            let (cols, y_flat) = (&mut cols[..ckk * gcols], &mut y_flat[..geom.out_c * gcols]);
            im2col_group(geom, x, (h, w), (first, g), cols);
            product(weight, cols, y_flat, geom.out_c, ckk, gcols);
            // De-interleave [out_c, g·p] into the destination's planes.
            for b in 0..g {
                let (y_b, channel_stride) = y.sample(first + b, p_out);
                for c in 0..geom.out_c {
                    let plane = &mut y_b[c * channel_stride..][..p_out];
                    plane.copy_from_slice(&y_flat[c * gcols + b * p_out..][..p_out]);
                    epilogue.apply(c, plane);
                }
            }
        }
    });
}

/// A transposed-convolution forward, the adjoint of [`conv_forward`]:
/// a group of samples (`[in_c, g·h·w]`, read in place when they lie
/// channel-major, interleaved first otherwise) is multiplied once —
/// `product(b, ldb, cols, g·h·w)` must set `cols` (`[out_c·k², g·h·w]`) to
/// `Wᵀ @ b` for `b`'s rows `ldb` apart — and the matrix gathered
/// (`col2im`) straight into the group's places in `y`, every finished
/// channel passing through `epilogue`. Accumulation order per element
/// matches a per-sample pass exactly, so any batch size is
/// bitwise-identical.
pub(crate) fn deconv_forward(
    geom: &ConvGeom,
    product: impl Fn(&[f32], usize, &mut [f32], usize),
    epilogue: &Epilogue<'_>,
    x: Batch<'_>,
    (h, w): (usize, usize),
    n: usize,
    y: &mut BatchMut<'_>,
) {
    if n == 0 {
        return;
    }
    let (ho, wo) = geom.deconv_out((h, w));
    // Sanity: the adjoint geometry must invert cleanly.
    debug_assert_eq!(geom.conv_out((ho, wo)), (h, w));
    let (ckk, p_in) = (geom.out_c * geom.k * geom.k, h * w);
    let group = slab_group(ckk * p_in, n);
    let in_place = x.columns(0, group, p_in).is_some();
    let interleaved = if in_place {
        0
    } else {
        geom.in_c * group * p_in
    };
    scratch(ckk * group * p_in, |cols| {
        scratch(interleaved, |xt| {
            for first in (0..n).step_by(group) {
                let g = group.min(n - first);
                let gcols = g * p_in;
                let (b, ldb) = match x.columns(first, g, p_in) {
                    Some(in_place) => in_place,
                    None => {
                        for s in 0..g {
                            let (x_s, channel_stride) = x.sample(first + s, p_in);
                            for c in 0..geom.in_c {
                                xt[c * gcols + s * p_in..][..p_in]
                                    .copy_from_slice(&x_s[c * channel_stride..][..p_in]);
                            }
                        }
                        (&xt[..geom.in_c * gcols], gcols)
                    }
                };
                let cols = &mut cols[..ckk * gcols];
                product(b, ldb, cols, gcols);
                col2im_group(geom, cols, (ho, wo), (first, g), y, |c, planes| {
                    epilogue.apply(c, planes)
                });
            }
        })
    });
}

/// Lowers samples `first .. first + g` of `x` (`dims` each) into `cols`,
/// the group's `[in_c·k², g·ho·wo]` matrix: in one pass where they lie
/// channel-major, a sample at a time otherwise.
fn im2col_group(geom: &ConvGeom, x: Batch<'_>, dims: Pair, (first, g): Pair, cols: &mut [f32]) {
    let (plane, (ho, wo)) = (dims.0 * dims.1, geom.conv_out(dims));
    let (window, block) = ((geom.k, geom.stride, geom.pad), ho * wo);
    let mut lower = |x, cs, b, n| {
        let at = (g * block, b * block);
        im2col(x, cs, (geom.in_c, n), dims, window, cols, at);
    };
    match x.columns(first, g, plane) {
        Some((x, cs)) => lower(x, cs, 0, g),
        None => (0..g).for_each(|b| {
            let (x, cs) = x.sample(first + b, plane);
            lower(x, cs, b, 1);
        }),
    }
}

/// The adjoint of [`im2col_group`] for a transposed convolution: `cols`
/// (`[out_c·k², g·h·w]`) gathered into samples `first .. first + g` of `y`
/// (`dims` each), every finished channel passed to `finish`.
fn col2im_group(
    geom: &ConvGeom,
    cols: &mut [f32],
    dims: Pair,
    (first, g): Pair,
    y: &mut BatchMut<'_>,
    finish: impl Fn(usize, &mut [f32]),
) {
    let (plane, (h, w)) = (dims.0 * dims.1, geom.conv_out(dims));
    let (window, block) = ((geom.k, geom.stride, geom.pad), h * w);
    let mut raise = |y: &mut [f32], cs, b, n| {
        let at = (g * block, b * block);
        col2im(cols, (geom.out_c, n), dims, window, y, cs, at, &finish);
    };
    if let Some((y, cs)) = y.columns(first, g, plane) {
        return raise(y, cs, 0, g);
    }
    for b in 0..g {
        let (y, cs) = y.sample(first + b, plane);
        raise(y, cs, b, 1);
    }
}

/// A convolution block frozen for inference: the weights, and what
/// follows the GEMM, read out of the layers once.
#[derive(Debug)]
pub struct PlannedConv {
    pub(crate) geom: ConvGeom,
    pub(crate) weight: Vec<f32>,
    pub(crate) finish: Finish,
}

impl PlannedConv {
    /// The convolution's geometry.
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    /// Runs the block on `n` samples of `[in_c, h, w]`, `dims = (h, w)`:
    /// as many samples per matmul as fit `SLAB`, the lowered matrix
    /// borrowed from the thread's workspace.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` is too small for `n` samples of that shape.
    pub fn forward(&self, x: Batch<'_>, dims: (usize, usize), n: usize, y: &mut BatchMut<'_>) {
        let (geom, epilogue) = (&self.geom, self.finish.epilogue());
        let (ho, wo) = geom.conv_out(dims);
        let per_sample = geom.in_c * geom.k * geom.k * ho * wo;
        let group = slab_group(per_sample, n);
        scratch(per_sample * group, |cols| {
            conv_forward(
                geom,
                matmul_nn_set,
                &self.weight,
                &epilogue,
                x,
                dims,
                n,
                group,
                cols,
                y,
            )
        });
    }
}

/// A transposed-convolution block frozen for inference; see
/// [`PlannedConv`]. The weights are laid out for the GEMM once
/// ([`TnWeights`]), not per forward.
#[derive(Debug)]
pub struct PlannedDeconv {
    pub(crate) geom: ConvGeom,
    pub(crate) weight: TnWeights,
    pub(crate) finish: Finish,
}

impl PlannedDeconv {
    /// The transposed convolution's geometry.
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    /// Runs the block on `n` samples of `[in_c, h, w]`, `dims = (h, w)`.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` is too small for `n` samples of that shape.
    pub fn forward(&self, x: Batch<'_>, dims: (usize, usize), n: usize, y: &mut BatchMut<'_>) {
        let product = |b: &[f32], ldb: usize, cols: &mut [f32], n: usize| {
            self.weight.product(b, ldb, cols, n)
        };
        let epilogue = self.finish.epilogue();
        deconv_forward(&self.geom, product, &epilogue, x, dims, n, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::tests::{bits, finish, for_each_tap, values, NEG_ZEROS};
    use proptest::prelude::*;
    use std::cell::RefCell;

    /// `n` samples of `c` planes of `h×w` in one of the three layouts the
    /// lowering meets — channel-major over the batch (`0`), NCHW (`1`),
    /// each planes `gap` floats further apart than dense and the gaps NaN,
    /// or one tensor per sample (`2`) — holding `dense` (`[n][c][h·w]`).
    struct Laid {
        buf: Vec<f32>,
        tensors: Vec<Tensor>,
        strides: (usize, usize),
    }

    impl Laid {
        fn new(
            layout: usize,
            dense: &[f32],
            (n, c): (usize, usize),
            (h, w): (usize, usize),
            gap: usize,
        ) -> Self {
            let plane = h * w;
            if layout == 2 {
                let tensors = dense
                    .chunks_exact(c * plane)
                    .map(|s| Tensor::from_vec([1, c, h, w], s.to_vec()))
                    .collect();
                return Laid {
                    buf: Vec::new(),
                    tensors,
                    strides: (0, 0),
                };
            }
            let strides = match layout {
                0 => (plane, n * plane + gap),
                _ => (c * (plane + gap), plane + gap),
            };
            let mut buf = vec![f32::NAN; n * c * (plane + gap)];
            for (i, v) in dense.iter().enumerate() {
                let (s, ci, p) = (i / (c * plane), i / plane % c, i % plane);
                buf[s * strides.0 + ci * strides.1 + p] = *v;
            }
            Laid {
                buf,
                tensors: Vec::new(),
                strides,
            }
        }

        fn batch<'a>(&'a self, refs: &'a [&'a Tensor]) -> Batch<'a> {
            match self.tensors.is_empty() {
                true => Batch::Strided {
                    buf: &self.buf,
                    sample_stride: self.strides.0,
                    channel_stride: self.strides.1,
                },
                false => Batch::Tensors(refs),
            }
        }

        fn batch_mut(&mut self) -> BatchMut<'_> {
            match self.tensors.is_empty() {
                true => BatchMut::Strided {
                    buf: &mut self.buf,
                    sample_stride: self.strides.0,
                    channel_stride: self.strides.1,
                },
                false => BatchMut::Tensors(&mut self.tensors),
            }
        }

        /// Every float held, gaps included.
        fn bits(&self) -> Vec<u32> {
            let tensors = self.tensors.iter().flat_map(|t| t.data());
            bits(&self.buf.iter().chain(tensors).copied().collect::<Vec<_>>())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A group of 1..=9 of a batch's samples, from each layout a batch
        /// comes in, lowered and gathered back as the layers and the plan
        /// do it — one pass over a channel-major slab, a sample at a time
        /// otherwise — against the per-element loops, bit for bit: `im2col`
        /// writes the group's matrix and reads no gap; `col2im` writes the
        /// group's samples and nothing else, each channel of the group
        /// finished once, in whole rows. One case in eight, every input is
        /// `−0.0`.
        #[test]
        fn groups_lower_bitwise_from_every_layout(
            layout in 0usize..3,
            first in 0usize..=2,
            g in 1usize..=9,
            after in 0usize..=1,
            c in 1usize..=3,
            h in 1usize..=12,
            w in 1usize..=12,
            k in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=2,
            gap in 0usize..=2,
            seed in 0u64..80_000,
        ) {
            let input = |salt: u64| if seed % 8 == 0 { NEG_ZEROS } else { seed ^ salt };
            let k = k.min(h + 2 * pad).min(w + 2 * pad);
            let geom = ConvGeom { in_c: c, out_c: c, k, stride, pad };
            let (n, plane) = (first + g + after, h * w);
            let p_out = {
                let (ho, wo) = geom.conv_out((h, w));
                ho * wo
            };
            let (rows, row_stride) = (c * k * k, g * p_out);

            let xs = values(n * c * plane, input(0));
            let laid = Laid::new(layout, &xs, (n, c), (h, w), gap);
            let refs: Vec<&Tensor> = laid.tensors.iter().collect();
            let mut want = vec![0.0; rows * row_stride];
            for b in 0..g {
                for_each_tap(c, h, w, k, stride, pad, row_stride, b * p_out, |col, pixel| {
                    want[col] = pixel.map_or(0.0, |i| xs[(first + b) * c * plane + i]);
                });
            }
            let mut got = values(rows * row_stride, seed ^ 0xC01);
            im2col_group(&geom, laid.batch(&refs), (h, w), (first, g), &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "im2col, layout {}", layout);

            let cols = values(rows * row_stride, input(0xADD));
            let mut sums = values(n * c * plane, seed ^ 0x5E7);
            let mut out = Laid::new(layout, &sums, (n, c), (h, w), gap);
            let group = &mut sums[first * c * plane..(first + g) * c * plane];
            group.fill(0.0);
            for b in 0..g {
                for_each_tap(c, h, w, k, stride, pad, row_stride, b * p_out, |col, pixel| {
                    if let Some(i) = pixel {
                        group[b * c * plane + i] += cols[col];
                    }
                });
            }
            for (i, v) in group.iter_mut().enumerate() {
                *v = finish(i / plane % c, *v);
            }
            let finished = RefCell::new(vec![0; c]);
            col2im_group(&geom, &mut cols.clone(), (h, w), (first, g), &mut out.batch_mut(), |ci, planes| {
                prop_assert_eq!(planes.len() % w, 0, "whole rows");
                finished.borrow_mut()[ci] += planes.len();
                planes.iter_mut().for_each(|v| *v = finish(ci, *v));
            });
            let want = Laid::new(layout, &sums, (n, c), (h, w), gap);
            prop_assert_eq!(out.bits(), want.bits(), "col2im, layout {}", layout);
            prop_assert_eq!(finished.into_inner(), vec![g * plane; c], "finished once");
        }
    }
}
