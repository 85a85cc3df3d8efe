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

use crate::im2col::{col2im_set, conv_out_dim, im2col_strided};
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
    /// `γ·((v − mean)·inv_std) + β`, the expression (and rounding order)
    /// of [`BatchNorm2d`](crate::BatchNorm2d)'s inference forward.
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

/// A convolution forward: `x` (`n` samples of `[in_c, h, w]`) lowered
/// `group` samples at a time into `cols` (at least `in_c·k²` rows of
/// `group·ho·wo`), multiplied by `weight` (`[out_c, in_c·k²]`), finished by
/// `epilogue` and written to `y`. A training forward passes `group = n`
/// and keeps `cols` for its backward pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_forward(
    geom: &ConvGeom,
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
            for b in 0..g {
                let (x_b, channel_stride) = x.sample(first + b, h * w);
                im2col_strided(
                    x_b,
                    channel_stride,
                    geom.in_c,
                    h,
                    w,
                    geom.k,
                    geom.stride,
                    geom.pad,
                    cols,
                    gcols,
                    b * p_out,
                );
            }
            matmul_nn_set(weight, cols, y_flat, geom.out_c, ckk, gcols);
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

/// [`conv_forward`] for inference: as many samples per matmul as fit
/// `SLAB`, the lowered matrix borrowed from the thread's workspace.
pub(crate) fn conv_inference(
    geom: &ConvGeom,
    weight: &[f32],
    epilogue: &Epilogue<'_>,
    x: Batch<'_>,
    dims: (usize, usize),
    n: usize,
    y: &mut BatchMut<'_>,
) {
    let (ho, wo) = geom.conv_out(dims);
    let per_sample = geom.in_c * geom.k * geom.k * ho * wo;
    let group = slab_group(per_sample, n);
    scratch(per_sample * group, |cols| {
        conv_forward(geom, weight, epilogue, x, dims, n, group, cols, y)
    });
}

/// A transposed-convolution forward, the adjoint of [`conv_forward`]:
/// a group of samples (`[in_c, g·h·w]`, read in place when they lie
/// channel-major, interleaved first otherwise) is multiplied once —
/// `product(b, ldb, cols, g·h·w)` must set `cols` (`[out_c·k², g·h·w]`) to
/// `Wᵀ @ b` for `b`'s rows `ldb` apart — and each sample's column block
/// gathered (`col2im`) straight into its place in `y`, every finished row
/// passing through `epilogue`. Accumulation order per element matches a
/// per-sample pass exactly, so any batch size is bitwise-identical.
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
                for s in 0..g {
                    let (y_s, channel_stride) = y.sample(first + s, ho * wo);
                    col2im_set(
                        cols,
                        geom.out_c,
                        ho,
                        wo,
                        geom.k,
                        geom.stride,
                        geom.pad,
                        y_s,
                        channel_stride,
                        gcols,
                        s * p_in,
                        |c, row| epilogue.apply(c, row),
                    );
                }
            }
        })
    });
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

    /// Runs the block on `n` samples of `[in_c, h, w]`, `dims = (h, w)`.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` is too small for `n` samples of that shape.
    pub fn forward(&self, x: Batch<'_>, dims: (usize, usize), n: usize, y: &mut BatchMut<'_>) {
        let epilogue = self.finish.epilogue();
        conv_inference(&self.geom, &self.weight, &epilogue, x, dims, n, y);
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
