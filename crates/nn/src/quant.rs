//! Opt-in `i8` weight quantization for inference.
//!
//! Weights are quantized symmetrically to the signed-8-bit grid
//! (`q = round(v / s)`, `|q| ≤ 127`) with **one scale per output row** —
//! per-output-channel for [`crate::Conv2d`], per output tap row for
//! [`crate::ConvTranspose2d`] — and activations are quantized dynamically
//! with one scale per im2col patch. The integer dot products accumulate in
//! `i32`, which is *exact* (no rounding: `127² · k` stays far below
//! `i32::MAX` for every layer shape here), so the only error is the two
//! quantization roundings; the final product is rescaled to `f32`.
//!
//! Quantized values are stored widened to `i16` and consumed through a
//! pair-interleaved 8-pixel panel (`QPanel`) whose inner product is the
//! `pmaddwd` shape: one broadcast weight pair against eight interleaved
//! activation pairs — 8 multiplies + 4 adds per SSE2 instruction, with
//! each panel load shared across two weight rows. LLVM's autovectorizer
//! does not find that shape on its own (measured: the scalar loop stays
//! scalar), so on `x86_64` — where SSE2 is the baseline ABI, no runtime
//! detection needed — the two panel dots use explicit intrinsics; every
//! other target runs a scalar kernel that, integer addition being
//! associative, is *bit-exact* with the SIMD path (pinned by test).
//!
//! The quantized layers are inference-only (`&self`, no caches) and are
//! consumed through `pop-core`'s quantized forecaster; the accuracy gate
//! lives there, next to the `MetricSet` it is judged with.

use crate::im2col::conv_out_dim;
use crate::tensor::Tensor;

/// Largest representable magnitude on the symmetric i8 grid.
pub const QMAX: f32 = 127.0;

/// Quantizes `values` onto the symmetric i8 grid (stored as `i16`),
/// returning the scale such that `v ≈ q · scale`. An all-zero (or empty)
/// input returns scale `0.0` with all-zero codes.
///
/// # Panics
///
/// Panics when `out` is shorter than `values`.
pub fn quantize_symmetric(values: &[f32], out: &mut [i16]) -> f32 {
    let maxabs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if maxabs == 0.0 {
        out[..values.len()].fill(0);
        return 0.0;
    }
    let inv = QMAX / maxabs;
    for (o, &v) in out.iter_mut().zip(values) {
        // Branchless round-half-away-from-zero: `t + ±0.5` then truncate
        // (`as` is a saturating trunc the vectorizer lowers to
        // `cvttps2dq`, where `.round()` compiles to a scalar branchy
        // sequence on baseline x86-64). Differs from `.round()` only
        // within one float ulp of an exact `.5` tie, which stays inside
        // the half-step error bound.
        let t = v * inv;
        let r = (t + 0.5f32.copysign(t)) as i32;
        *o = r.clamp(-127, 127) as i16;
    }
    maxabs / QMAX
}

/// Integer dot product of two quantized rows (i8-range values in `i16`
/// storage), accumulated exactly in `i32`.
///
/// # Panics
///
/// Panics (debug) when lengths differ.
#[inline]
pub fn dot_q(a: &[i16], b: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "quantized dot length");
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += (x as i32) * (y as i32);
    }
    acc
}

/// A pair-interleaved panel of 8 quantized input columns — the classic
/// `pmaddwd` GEMM layout. Element pairs `(2q, 2q+1)` of each column sit
/// adjacently per pixel (`[pair][pixel][2]`), so the inner product
/// `w₂q·a + w₂q₊₁·b` over a broadcast weight pair is exactly the
/// multiply-adjacent-and-add idiom, with one vertical `i32` accumulator
/// per pixel and no per-dot horizontal reduction until the panel ends.
struct QPanel {
    /// `[len/2][PW][2]` interleaved pairs, then `[PW]` tail for odd `len`.
    data: Vec<i16>,
    /// Column length (the reduction dimension).
    len: usize,
}

/// Pixel-panel width shared by the quantized layers.
const PW: usize = 8;

impl QPanel {
    fn new(len: usize) -> Self {
        QPanel {
            data: vec![0i16; len.div_ceil(2) * 2 * PW],
            len,
        }
    }

    /// Installs `col` (one pixel's quantized column) as panel column `p`.
    fn pack(&mut self, p: usize, col: &[i16]) {
        debug_assert_eq!(col.len(), self.len);
        let pairs = self.len / 2;
        for q in 0..pairs {
            self.data[(q * PW + p) * 2] = col[2 * q];
            self.data[(q * PW + p) * 2 + 1] = col[2 * q + 1];
        }
        if self.len % 2 == 1 {
            self.data[pairs * PW * 2 + p] = col[self.len - 1];
        }
    }

    /// The 8 integer dots `wrow · columnₚ`, accumulated exactly in `i32`.
    #[inline]
    fn dots(&self, wrow: &[i16]) -> [i32; PW] {
        #[cfg(target_arch = "x86_64")]
        {
            self.dots_sse2(wrow)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.dots_scalar(wrow)
        }
    }

    /// Two weight rows against the same panel: the panel loads are shared
    /// between the rows, which roughly doubles multiply throughput over
    /// two separate [`QPanel::dots`] calls (the loads, not the multiplies,
    /// bound the single-row kernel).
    #[inline]
    fn dots2(&self, w0: &[i16], w1: &[i16]) -> ([i32; PW], [i32; PW]) {
        #[cfg(target_arch = "x86_64")]
        {
            self.dots2_sse2(w0, w1)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            (self.dots_scalar(w0), self.dots_scalar(w1))
        }
    }

    /// Portable reference kernel; the SIMD paths must match it exactly
    /// (integer arithmetic — regrouping the accumulation is lossless).
    #[cfg(any(test, not(target_arch = "x86_64")))]
    fn dots_scalar(&self, wrow: &[i16]) -> [i32; PW] {
        debug_assert_eq!(wrow.len(), self.len);
        let pairs = self.len / 2;
        let mut acc = [0i32; PW];
        for q in 0..pairs {
            let w0 = wrow[2 * q] as i32;
            let w1 = wrow[2 * q + 1] as i32;
            let prow: &[i16; 2 * PW] = self.data[q * PW * 2..(q + 1) * PW * 2]
                .try_into()
                .expect("panel pair row");
            for (p, a) in acc.iter_mut().enumerate() {
                *a += w0 * prow[2 * p] as i32 + w1 * prow[2 * p + 1] as i32;
            }
        }
        self.add_odd_tail(wrow, &mut acc);
        acc
    }

    /// Adds the odd-`len` tail element (stored un-paired after the pair
    /// rows) into each pixel's accumulator.
    #[inline]
    fn add_odd_tail(&self, wrow: &[i16], acc: &mut [i32; PW]) {
        if self.len % 2 == 1 {
            let pairs = self.len / 2;
            let wl = wrow[self.len - 1] as i32;
            let tail = &self.data[pairs * PW * 2..pairs * PW * 2 + PW];
            for (a, &t) in acc.iter_mut().zip(tail) {
                *a += wl * t as i32;
            }
        }
    }

    /// `pmaddwd` kernel: broadcast each weight pair, multiply-adjacent-add
    /// against the pair-interleaved panel (8 multiplies + 4 adds per
    /// instruction), accumulate vertically in `i32`. The autovectorizer
    /// does not discover this shape from the scalar loop (measured: it
    /// stays scalar), so the two hot dots use explicit SSE2 intrinsics —
    /// unconditionally available on `x86_64`, where SSE2 is part of the
    /// baseline ABI. Integer accumulation is associative, so the result is
    /// bit-exact with [`QPanel::dots_scalar`] (pinned by test).
    #[cfg(target_arch = "x86_64")]
    fn dots_sse2(&self, wrow: &[i16]) -> [i32; PW] {
        use std::arch::x86_64::*;
        debug_assert_eq!(wrow.len(), self.len);
        let pairs = self.len / 2;
        assert!(self.data.len() >= pairs * PW * 2, "panel size");
        let mut acc = [0i32; PW];
        // SAFETY: SSE2 is baseline on x86_64; every 16-byte load reads
        // `data[q·16 .. q·16 + 16]` with `q < pairs`, in bounds by the
        // assert above; the stores write the 8-i32 `acc` array exactly.
        unsafe {
            let mut lo = _mm_setzero_si128();
            let mut hi = _mm_setzero_si128();
            for q in 0..pairs {
                let wp =
                    _mm_set1_epi32(((wrow[2 * q + 1] as i32) << 16) | (wrow[2 * q] as u16 as i32));
                let p = self.data.as_ptr().add(q * PW * 2);
                let a = _mm_loadu_si128(p as *const __m128i);
                let b = _mm_loadu_si128(p.add(PW) as *const __m128i);
                lo = _mm_add_epi32(lo, _mm_madd_epi16(wp, a));
                hi = _mm_add_epi32(hi, _mm_madd_epi16(wp, b));
            }
            _mm_storeu_si128(acc.as_mut_ptr() as *mut __m128i, lo);
            _mm_storeu_si128(acc.as_mut_ptr().add(4) as *mut __m128i, hi);
        }
        self.add_odd_tail(wrow, &mut acc);
        acc
    }

    /// Two-row `pmaddwd` kernel: identical structure to
    /// [`QPanel::dots_sse2`] with both weight pairs broadcast per panel
    /// load, so each 16-byte panel read feeds two `pmaddwd`s.
    #[cfg(target_arch = "x86_64")]
    fn dots2_sse2(&self, w0: &[i16], w1: &[i16]) -> ([i32; PW], [i32; PW]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(w0.len(), self.len);
        debug_assert_eq!(w1.len(), self.len);
        let pairs = self.len / 2;
        assert!(self.data.len() >= pairs * PW * 2, "panel size");
        let mut acc0 = [0i32; PW];
        let mut acc1 = [0i32; PW];
        // SAFETY: as in `dots_sse2` — baseline SSE2, loads bounded by the
        // assert, stores fill the two 8-i32 accumulator arrays.
        unsafe {
            let mut lo0 = _mm_setzero_si128();
            let mut hi0 = _mm_setzero_si128();
            let mut lo1 = _mm_setzero_si128();
            let mut hi1 = _mm_setzero_si128();
            for q in 0..pairs {
                let wp0 =
                    _mm_set1_epi32(((w0[2 * q + 1] as i32) << 16) | (w0[2 * q] as u16 as i32));
                let wp1 =
                    _mm_set1_epi32(((w1[2 * q + 1] as i32) << 16) | (w1[2 * q] as u16 as i32));
                let p = self.data.as_ptr().add(q * PW * 2);
                let a = _mm_loadu_si128(p as *const __m128i);
                let b = _mm_loadu_si128(p.add(PW) as *const __m128i);
                lo0 = _mm_add_epi32(lo0, _mm_madd_epi16(wp0, a));
                hi0 = _mm_add_epi32(hi0, _mm_madd_epi16(wp0, b));
                lo1 = _mm_add_epi32(lo1, _mm_madd_epi16(wp1, a));
                hi1 = _mm_add_epi32(hi1, _mm_madd_epi16(wp1, b));
            }
            _mm_storeu_si128(acc0.as_mut_ptr() as *mut __m128i, lo0);
            _mm_storeu_si128(acc0.as_mut_ptr().add(4) as *mut __m128i, hi0);
            _mm_storeu_si128(acc1.as_mut_ptr() as *mut __m128i, lo1);
            _mm_storeu_si128(acc1.as_mut_ptr().add(4) as *mut __m128i, hi1);
        }
        self.add_odd_tail(w0, &mut acc0);
        self.add_odd_tail(w1, &mut acc1);
        (acc0, acc1)
    }
}

/// An inference-only quantized [`crate::Conv2d`]: i8 weights with
/// per-output-channel scales, optional inference-affine (batch-norm)
/// folded into the scales and bias.
#[derive(Debug, Clone)]
pub struct QuantizedConv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `[out_c][in_c·k·k]` quantized (BN-folded) weight rows.
    wq: Vec<i16>,
    /// Per-output-channel dequantization scales.
    scales: Vec<f32>,
    /// Per-output-channel bias (BN shift folded in).
    bias: Vec<f32>,
}

impl QuantizedConv2d {
    /// Builds from raw f32 weights `[out_c, in_c, k, k]` and bias,
    /// folding the optional per-channel inference affine `y = a·conv + s`
    /// into the quantized rows (`a` scales row `o`, bias becomes
    /// `a·bias + s`).
    ///
    /// # Panics
    ///
    /// Panics when slice lengths do not match the dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        weight: &[f32],
        bias: &[f32],
        affine: Option<(&[f32], &[f32])>,
    ) -> Self {
        let ckk = in_c * k * k;
        assert_eq!(weight.len(), out_c * ckk, "weight size");
        assert_eq!(bias.len(), out_c, "bias size");
        let mut wq = vec![0i16; out_c * ckk];
        let mut scales = vec![0.0f32; out_c];
        let mut fbias = bias.to_vec();
        let mut row = vec![0.0f32; ckk];
        for o in 0..out_c {
            let (a, s) = match affine {
                Some((a, s)) => (a[o], s[o]),
                None => (1.0, 0.0),
            };
            for (r, &w) in row.iter_mut().zip(&weight[o * ckk..(o + 1) * ckk]) {
                *r = a * w;
            }
            scales[o] = quantize_symmetric(&row, &mut wq[o * ckk..(o + 1) * ckk]);
            fbias[o] = a * bias[o] + s;
        }
        QuantizedConv2d {
            in_c,
            out_c,
            k,
            stride,
            pad,
            wq,
            scales,
            bias: fbias,
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

    /// Gathers the receptive-field patch for output pixel `(oy, ox)` into
    /// `patch` (zero-padded borders), mirroring im2col's layout.
    #[allow(clippy::too_many_arguments)]
    fn gather_patch(
        &self,
        xb: &[f32],
        h: usize,
        w: usize,
        oy: usize,
        ox: usize,
        patch: &mut [f32],
    ) {
        let ix0 = (ox * self.stride) as isize - self.pad as isize;
        let x_interior = ix0 >= 0 && ix0 + self.k as isize <= w as isize;
        let mut idx = 0;
        for ci in 0..self.in_c {
            for ky in 0..self.k {
                let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                let row = &mut patch[idx..idx + self.k];
                if iy < 0 || iy >= h as isize {
                    row.fill(0.0);
                } else {
                    let src = &xb[(ci * h + iy as usize) * w..][..w];
                    if x_interior {
                        // Whole kernel row in bounds: one contiguous copy
                        // instead of a branch per tap.
                        row.copy_from_slice(&src[ix0 as usize..ix0 as usize + self.k]);
                    } else {
                        for (kx, slot) in row.iter_mut().enumerate() {
                            let ix = ix0 + kx as isize;
                            *slot = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                src[ix as usize]
                            };
                        }
                    }
                }
                idx += self.k;
            }
        }
    }

    /// Inference forward. Output pixels run in 8-wide `QPanel`s drawn
    /// from the global `batch × ho·wo` pixel stream (so layers with fewer
    /// than 8 pixels per image still fill panels): gather + quantize 8
    /// patches, pack them pair-interleaved, then feed weight rows through
    /// the two-row `pmaddwd` kernel — the `[out_c, ckk]` weight matrix
    /// streams once per 8 pixels and every panel load is shared between
    /// two rows. Integer accumulation is exact, so panel order does not
    /// change any output. No materialized im2col matrix.
    ///
    /// # Panics
    ///
    /// Panics when input channels disagree.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.c(), self.in_c, "input channels");
        let [n, _, h, w] = x.shape();
        let [_, _, ho, wo] = self.output_shape(x.shape());
        let ckk = self.in_c * self.k * self.k;
        let p_out = ho * wo;
        let mut y = Tensor::zeros([n, self.out_c, ho, wo]);
        let yd = y.data_mut();
        let mut patch = vec![0.0f32; ckk];
        let mut pq = vec![0i16; ckk];
        let mut panel = QPanel::new(ckk);
        let mut sx = [0.0f32; PW];
        // Panels run over the *global* pixel stream `b·p_out + pix` so
        // small-spatial layers (p_out < 8) still fill 8-wide panels across
        // batch images instead of falling back to scalar dots.
        let total = n * p_out;
        let xstride = self.in_c * h * w;
        let mut g0 = 0;
        while g0 + PW <= total {
            for (p, s) in sx.iter_mut().enumerate() {
                let (b, pix) = ((g0 + p) / p_out, (g0 + p) % p_out);
                let xb = &x.data()[b * xstride..][..xstride];
                self.gather_patch(xb, h, w, pix / wo, pix % wo, &mut patch);
                *s = quantize_symmetric(&patch, &mut pq);
                panel.pack(p, &pq);
            }
            let mut write = |o: usize, acc: [i32; PW]| {
                for (p, &a) in acc.iter().enumerate() {
                    let (b, pix) = ((g0 + p) / p_out, (g0 + p) % p_out);
                    let v = if sx[p] == 0.0 {
                        0.0
                    } else {
                        self.scales[o] * sx[p] * a as f32
                    };
                    yd[(b * self.out_c + o) * p_out + pix] = v + self.bias[o];
                }
            };
            let mut o = 0;
            while o + 2 <= self.out_c {
                let (acc0, acc1) = panel.dots2(
                    &self.wq[o * ckk..(o + 1) * ckk],
                    &self.wq[(o + 1) * ckk..(o + 2) * ckk],
                );
                write(o, acc0);
                write(o + 1, acc1);
                o += 2;
            }
            if o < self.out_c {
                write(o, panel.dots(&self.wq[o * ckk..(o + 1) * ckk]));
            }
            g0 += PW;
        }
        // Pixel tail (< 8 remaining in the whole batch): one at a time.
        for g in g0..total {
            let (b, pix) = (g / p_out, g % p_out);
            let xb = &x.data()[b * xstride..][..xstride];
            self.gather_patch(xb, h, w, pix / wo, pix % wo, &mut patch);
            let sx = quantize_symmetric(&patch, &mut pq);
            for o in 0..self.out_c {
                let v = if sx == 0.0 {
                    0.0
                } else {
                    let acc = dot_q(&self.wq[o * ckk..(o + 1) * ckk], &pq);
                    self.scales[o] * sx * acc as f32
                };
                yd[(b * self.out_c + o) * p_out + pix] = v + self.bias[o];
            }
        }
        y
    }
}

/// An inference-only quantized [`crate::ConvTranspose2d`]: the weight is
/// stored transposed (`[out_c·k·k][in_c]` rows) so the per-input-pixel
/// reduction over `in_c` is a contiguous integer dot, with one scale per
/// output tap row (channel × kernel tap) and batch-norm folded in.
#[derive(Debug, Clone)]
pub struct QuantizedConvTranspose2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `[out_c·k·k][in_c]` quantized transposed (BN-folded) weight rows.
    wq: Vec<i16>,
    /// Per-row dequantization scales.
    scales: Vec<f32>,
    /// Per-output-channel bias (BN shift folded in).
    bias: Vec<f32>,
}

impl QuantizedConvTranspose2d {
    /// Builds from raw f32 weights `[in_c, out_c, k, k]` and bias,
    /// folding the optional per-output-channel inference affine.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths do not match the dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        weight: &[f32],
        bias: &[f32],
        affine: Option<(&[f32], &[f32])>,
    ) -> Self {
        let ckk = out_c * k * k;
        assert_eq!(weight.len(), in_c * ckk, "weight size");
        assert_eq!(bias.len(), out_c, "bias size");
        let mut wq = vec![0i16; ckk * in_c];
        let mut scales = vec![0.0f32; ckk];
        let mut fbias = bias.to_vec();
        let mut row = vec![0.0f32; in_c];
        for r in 0..ckk {
            let co = r / (k * k);
            let a = affine.map(|(a, _)| a[co]).unwrap_or(1.0);
            for (ci, slot) in row.iter_mut().enumerate() {
                *slot = a * weight[ci * ckk + r];
            }
            scales[r] = quantize_symmetric(&row, &mut wq[r * in_c..(r + 1) * in_c]);
        }
        for o in 0..out_c {
            let (a, s) = match affine {
                Some((a, s)) => (a[o], s[o]),
                None => (1.0, 0.0),
            };
            fbias[o] = a * bias[o] + s;
        }
        QuantizedConvTranspose2d {
            in_c,
            out_c,
            k,
            stride,
            pad,
            wq,
            scales,
            bias: fbias,
        }
    }

    /// Output shape: `(dim − 1)·stride − 2·pad + k` per spatial axis.
    pub fn output_shape(&self, input: [usize; 4]) -> [usize; 4] {
        [
            input[0],
            self.out_c,
            (input[2] - 1) * self.stride + self.k - 2 * self.pad,
            (input[3] - 1) * self.stride + self.k - 2 * self.pad,
        ]
    }

    /// Inference forward: per input pixel, quantize its channel vector,
    /// run `out_c·k²` integer dots, and scatter-add the dequantized patch
    /// into the (bias-prefilled) output — `col2im` without the matrix.
    ///
    /// # Panics
    ///
    /// Panics when input channels disagree.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.c(), self.in_c, "input channels");
        let [n, _, h, w] = x.shape();
        let out = self.output_shape(x.shape());
        let (ho, wo) = (out[2], out[3]);
        let ckk = self.out_c * self.k * self.k;
        let p_out = ho * wo;
        let mut y = Tensor::zeros(out);
        let yd = y.data_mut();
        for b in 0..n {
            for o in 0..self.out_c {
                yd[(b * self.out_c + o) * p_out..][..p_out].fill(self.bias[o]);
            }
        }
        let mut xcol = vec![0.0f32; self.in_c];
        let mut xq = vec![0i16; self.in_c];
        let mut panel = QPanel::new(self.in_c);
        let mut sx = [0.0f32; PW];
        let mut patch = vec![0.0f32; ckk];
        // Dequantized taps for a whole panel, `[row][pixel]`-interleaved.
        let mut patch_panel = vec![0.0f32; ckk * PW];
        // 8 input pixels per panel, taken from the *global* stream
        // `b·h·w + iy·w + ix` so narrow layers (w < 8) still fill panels
        // across rows and batch images: the `[out_c·k², in_c]` weight
        // matrix streams once per panel instead of once per pixel, with
        // each row pair's 16 dots running as `pmaddwd`-shaped vertical
        // accumulators. Integer accumulation is exact, so each pixel's
        // taps are identical to the one-pixel path.
        let ic = self.in_c;
        let xstride = ic * h * w;
        let ystride = self.out_c * p_out;
        let total = n * h * w;
        let mut g0 = 0;
        while g0 + PW <= total {
            for (p, s) in sx.iter_mut().enumerate() {
                let (b, pix) = ((g0 + p) / (h * w), (g0 + p) % (h * w));
                let xb = &x.data()[b * xstride..][..xstride];
                for (ci, slot) in xcol.iter_mut().enumerate() {
                    *slot = xb[ci * h * w + pix];
                }
                *s = quantize_symmetric(&xcol, &mut xq);
                panel.pack(p, &xq);
            }
            let mut rows = patch_panel.chunks_exact_mut(2 * PW);
            let mut r = 0;
            for taps2 in &mut rows {
                let (acc0, acc1) = panel.dots2(
                    &self.wq[r * ic..(r + 1) * ic],
                    &self.wq[(r + 1) * ic..(r + 2) * ic],
                );
                let (t0, t1) = taps2.split_at_mut(PW);
                for p in 0..PW {
                    t0[p] = self.scales[r] * sx[p] * acc0[p] as f32;
                    t1[p] = self.scales[r + 1] * sx[p] * acc1[p] as f32;
                }
                r += 2;
            }
            let taps = rows.into_remainder();
            if !taps.is_empty() {
                let acc = panel.dots(&self.wq[r * ic..(r + 1) * ic]);
                for (p, tap) in taps.iter_mut().enumerate() {
                    *tap = self.scales[r] * sx[p] * acc[p] as f32;
                }
            }
            for (p, &s) in sx.iter().enumerate() {
                if s == 0.0 {
                    continue;
                }
                let (b, pix) = ((g0 + p) / (h * w), (g0 + p) % (h * w));
                let yb = &mut yd[b * ystride..][..ystride];
                self.scatter_pixel(yb, &patch_panel, p, PW, pix / w, pix % w, ho, wo);
            }
            g0 += PW;
        }
        // Pixel tail (< 8 remaining in the whole batch): one at a time.
        for g in g0..total {
            let (b, pix) = (g / (h * w), g % (h * w));
            let xb = &x.data()[b * xstride..][..xstride];
            for (ci, slot) in xcol.iter_mut().enumerate() {
                *slot = xb[ci * h * w + pix];
            }
            let sx = quantize_symmetric(&xcol, &mut xq);
            if sx == 0.0 {
                continue;
            }
            for (r, slot) in patch.iter_mut().enumerate() {
                let acc = dot_q(&self.wq[r * ic..(r + 1) * ic], &xq);
                *slot = self.scales[r] * sx * acc as f32;
            }
            let yb = &mut yd[b * ystride..][..ystride];
            self.scatter_pixel(yb, &patch, 0, 1, pix / w, pix % w, ho, wo);
        }
        y
    }

    /// Scatter-adds one input pixel's dequantized tap patch into the
    /// output. `taps` is `[row · lanes + lane]`-interleaved; `lane`/`lanes`
    /// select this pixel's column (lanes = 1 for a plain patch).
    #[allow(clippy::too_many_arguments)]
    fn scatter_pixel(
        &self,
        yb: &mut [f32],
        taps: &[f32],
        lane: usize,
        lanes: usize,
        iy: usize,
        ix: usize,
        ho: usize,
        wo: usize,
    ) {
        let ox0 = (ix * self.stride) as isize - self.pad as isize;
        let x_interior = ox0 >= 0 && ox0 + self.k as isize <= wo as isize;
        for co in 0..self.out_c {
            for ky in 0..self.k {
                let oy = (iy * self.stride + ky) as isize - self.pad as isize;
                if oy < 0 || oy >= ho as isize {
                    continue;
                }
                let dst = &mut yb[(co * ho + oy as usize) * wo..][..wo];
                let trow = ((co * self.k + ky) * self.k) * lanes + lane;
                if x_interior {
                    // Whole tap row lands in bounds: branchless strided
                    // accumulate over the k output columns.
                    let dst = &mut dst[ox0 as usize..ox0 as usize + self.k];
                    for (kx, slot) in dst.iter_mut().enumerate() {
                        *slot += taps[trow + kx * lanes];
                    }
                } else {
                    for kx in 0..self.k {
                        let oxp = ox0 + kx as isize;
                        if oxp < 0 || oxp >= wo as isize {
                            continue;
                        }
                        dst[oxp as usize] += taps[trow + kx * lanes];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, ConvTranspose2d, Layer};

    #[test]
    fn quantize_roundtrip_error_is_bounded_by_half_step() {
        let vals: Vec<f32> = (0..257).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let mut q = vec![0i16; vals.len()];
        let scale = quantize_symmetric(&vals, &mut q);
        assert!(scale > 0.0);
        for (&v, &qi) in vals.iter().zip(&q) {
            assert!((-127..=127).contains(&qi), "code {qi} out of i8 range");
            let back = qi as f32 * scale;
            assert!(
                (v - back).abs() <= scale * 0.5 + 1e-6,
                "value {v} roundtripped to {back} (scale {scale})"
            );
        }
    }

    #[test]
    fn zero_input_quantizes_to_zero_scale() {
        let mut q = vec![7i16; 4];
        let scale = quantize_symmetric(&[0.0; 4], &mut q);
        assert_eq!(scale, 0.0);
        assert_eq!(q, vec![0; 4]);
    }

    #[test]
    fn quantized_conv_tracks_f32_conv() {
        let mut conv = Conv2d::new(3, 5, 4, 2, 1, 9);
        let qconv = conv.quantize(None);
        let x = Tensor::randn([2, 3, 8, 8], 0.0, 1.0, 10);
        let want = conv.forward(&x);
        let got = qconv.forward(&x);
        assert_eq!(got.shape(), want.shape());
        let maxabs = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!(
                (a - b).abs() < 0.04 * maxabs.max(1.0),
                "quantized {a} vs f32 {b}"
            );
        }
    }

    #[test]
    fn quantized_deconv_tracks_f32_deconv() {
        let mut deconv = ConvTranspose2d::new(6, 3, 4, 2, 1, 11);
        let qdeconv = deconv.quantize(None);
        let x = Tensor::randn([2, 6, 4, 4], 0.0, 1.0, 12);
        let want = deconv.forward(&x);
        let got = qdeconv.forward(&x);
        assert_eq!(got.shape(), want.shape());
        let maxabs = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!(
                (a - b).abs() < 0.04 * maxabs.max(1.0),
                "quantized {a} vs f32 {b}"
            );
        }
    }

    #[test]
    fn affine_fold_matches_post_scaling() {
        // conv → per-channel affine must equal the folded quantized conv
        // up to quantization error.
        let mut conv = Conv2d::new(2, 3, 4, 2, 1, 13);
        let a = [0.5f32, 2.0, -1.25];
        let s = [0.1f32, -0.2, 0.3];
        let qconv = conv.quantize(Some((&a, &s)));
        let x = Tensor::randn([1, 2, 8, 8], 0.0, 1.0, 14);
        let f = conv.forward(&x);
        let mut want = f.clone();
        let [_, _, ho, wo] = f.shape();
        for c in 0..3 {
            for v in &mut want.data_mut()[c * ho * wo..(c + 1) * ho * wo] {
                *v = a[c] * *v + s[c];
            }
        }
        let got = qconv.forward(&x);
        let maxabs = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 0.04 * maxabs.max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn panel_simd_dots_match_scalar_exactly() {
        // Odd and even reduction lengths, including the pair tail.
        for len in [1usize, 2, 7, 8, 31, 96, 145] {
            let mut panel = QPanel::new(len);
            let mut col = vec![0i16; len];
            for p in 0..PW {
                for (i, c) in col.iter_mut().enumerate() {
                    *c = ((i * 31 + p * 57 + 13) % 255) as i16 - 127;
                }
                panel.pack(p, &col);
            }
            let w: Vec<i16> = (0..2 * len)
                .map(|i| ((i * 89 + 5) % 255) as i16 - 127)
                .collect();
            let (w0, w1) = w.split_at(len);
            assert_eq!(panel.dots(w0), panel.dots_scalar(w0), "len {len}");
            let (a0, a1) = panel.dots2(w0, w1);
            assert_eq!(a0, panel.dots_scalar(w0), "dots2 row0 len {len}");
            assert_eq!(a1, panel.dots_scalar(w1), "dots2 row1 len {len}");
        }
    }

    #[test]
    fn dot_q_is_exact() {
        let a: Vec<i16> = (-10..10).collect();
        let b: Vec<i16> = (0..20).map(|v| (v * 3 - 17) as i16).collect();
        let want: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
        assert_eq!(dot_q(&a, &b), want);
    }
}
