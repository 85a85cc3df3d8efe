//! `im2col`/`col2im` lowering for convolution.
//!
//! A `[C, H, W]` feature map is unrolled into a `[C·k·k, Ho·Wo]` matrix so
//! convolution becomes one matrix multiply; `col2im` is the exact adjoint
//! (scatter-add), which is what the backward-data pass and the transposed
//! convolution's forward pass need.
//!
//! Both move whole rows, never single strided elements. Tap `kx` of output
//! column `ox` touches padded image column `ox·stride + kx`; split a row
//! into its `stride` **phases** (phase `p` holds padded columns `p`,
//! `p + stride`, …) and that is `phase[kx mod stride][ox + kx div stride]`
//! — contiguous in `ox`. So `im2col` splits each image row once and every
//! tap row is a `copy_from_slice`; `col2im` accumulates contiguous slices
//! of `cols` onto the phases of a destination row and interleaves them
//! back. Stride 1 is the one-phase case of the same code.
//!
//! **Fold order of `col2im`.** The adjoint is defined as the scatter
//! `for (c, ky, kx, oy, ox): x[c, oy·s + ky − p, ox·s + kx − p] += cols[…]`.
//! A destination pixel receives at most one term per tap `(ky, kx)` (the
//! tap fixes `oy` and `ox`), so the scatter adds its terms in ascending
//! `(ky, kx)` order onto the pixel's current value. The gather below walks
//! one destination row at a time: it seeds the row's phases from the
//! destination, then for ascending `ky`, ascending `kx`, adds that tap's
//! slice — the same terms in the same order per pixel, so every output is
//! bit-identical to the scatter's (`0.0 + t₁ + t₂ + …` for a zeroed
//! destination), while distinct pixels of a phase are independent lanes
//! the compiler vectorises.

use crate::workspace;

/// Output spatial size of a convolution: `(dim + 2·pad − k)/stride + 1`.
///
/// # Panics
///
/// Panics when the kernel does not fit (`dim + 2·pad < k`) or `stride == 0`.
pub fn conv_out_dim(dim: usize, k: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(dim + 2 * pad >= k, "kernel larger than padded input");
    (dim + 2 * pad - k) / stride + 1
}

/// Unrolls one sample `x: [c, h, w]`, its channel planes `channel_stride`
/// floats apart (`h·w` when the sample is dense), into its
/// `[c·k·k, ho·wo]` matrix (zero padding outside the image), stored as the
/// columns `col_offset .. col_offset + ho·wo` of `cols`, whose rows are
/// `row_stride` long. Every element of that column block is written, so
/// `cols` need not be initialised.
///
/// This is the batched-convolution primitive: unrolling every sample of an
/// `[N, C, H, W]` batch side by side produces one `[C·k·k, N·Ho·Wo]`
/// matrix, so the whole batch runs through a single matmul whose inner
/// loop is `N×` longer — the win that makes micro-batched inference beat
/// sequential single-sample calls on small feature maps.
///
/// # Panics
///
/// Panics when `x` ends before its last plane or planes overlap, when the
/// sample's columns (`col_offset + ho·wo`) overrun `row_stride`, or when
/// `cols` is not exactly `c·k·k` rows of `row_stride`.
#[allow(clippy::too_many_arguments)]
pub fn im2col_strided(
    x: &[f32],
    channel_stride: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    cols: &mut [f32],
    row_stride: usize,
    col_offset: usize,
) {
    let ho = conv_out_dim(h, k, stride, pad);
    let wo = conv_out_dim(w, k, stride, pad);
    check_planes(x.len(), channel_stride, c, h * w);
    assert!(col_offset + ho * wo <= row_stride, "columns overrun stride");
    assert_eq!(cols.len(), c * k * k * row_stride, "cols size");
    // Slots per phase that a tap can reach, and where tap `kx` starts
    // reading inside the phase buffer.
    let plen = wo + k.saturating_sub(1) / stride;
    let tap_start = Taps::new(k, |kx| (kx % stride) * plen + kx / stride);
    // Image columns some tap reads (the rest fall off the last window).
    let used_w = ((wo - 1) * stride + k).saturating_sub(pad).min(w);
    let mut scratch = workspace::take(stride * plen);
    let phases = &mut scratch[..stride * plen];
    // Every image row lands in the same slots; the others are the zero
    // padding and stay zero from here on.
    phases.fill(0.0);
    for ci in 0..c {
        // The padded rows some window covers.
        for (py, (oy0, ky0)) in padded_rows(stride).enumerate().take((ho - 1) * stride + k) {
            match py.checked_sub(pad).filter(|&iy| iy < h) {
                Some(iy) => {
                    let row = &x[ci * channel_stride + iy * w..][..used_w];
                    split_phases(row, pad, stride, plen, phases)
                }
                None => phases.fill(0.0),
            }
            for (oy, ky) in windows(oy0, ky0, stride, k, ho) {
                for (kx, &start) in tap_start.as_slice().iter().enumerate() {
                    let row = (ci * k + ky) * k + kx;
                    cols[row * row_stride + col_offset + oy * wo..][..wo]
                        .copy_from_slice(&phases[start..start + wo]);
                }
            }
        }
    }
    workspace::give(scratch);
}

/// Kernel widths whose tap table fits on the stack (the models use 4).
const INLINE_TAPS: usize = 8;

/// One precomputed entry per kernel column. The lowering runs per sample
/// per layer, so the table lives on the stack for kernels up to
/// [`INLINE_TAPS`] wide and a steady-state forward allocates nothing
/// here; a wider kernel pays one small allocation.
struct Taps<T> {
    inline: [T; INLINE_TAPS],
    spilled: Vec<T>,
    k: usize,
}

impl<T: Copy + Default> Taps<T> {
    fn new(k: usize, entry: impl Fn(usize) -> T) -> Self {
        let mut taps = Taps {
            inline: [T::default(); INLINE_TAPS],
            spilled: Vec::new(),
            k,
        };
        if k > INLINE_TAPS {
            taps.spilled = (0..k).map(entry).collect();
        } else {
            for (kx, slot) in taps.inline[..k].iter_mut().enumerate() {
                *slot = entry(kx);
            }
        }
        taps
    }

    fn as_slice(&self) -> &[T] {
        if self.k > INLINE_TAPS {
            &self.spilled
        } else {
            &self.inline[..self.k]
        }
    }
}

/// `c` planes of `plane` floats, `channel_stride` apart, fit in `len`.
fn check_planes(len: usize, channel_stride: usize, c: usize, plane: usize) {
    assert!(channel_stride >= plane, "channel planes overlap");
    assert!(
        c == 0 || len >= (c - 1) * channel_stride + plane,
        "sample size"
    );
}

/// `(py / stride, py % stride)` for padded rows `py = 0, 1, …`, counted
/// rather than divided (this runs once per image row).
fn padded_rows(stride: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..).flat_map(move |oy0| (0..stride).map(move |ky0| (oy0, ky0)))
}

/// The windows `(oy, ky)` covering padded row `oy0·stride + ky0`
/// (`ky0 < stride`): `oy·stride + ky` equal to it with `ky < k`, `oy < ho`,
/// in ascending `ky`.
fn windows(
    oy0: usize,
    ky0: usize,
    stride: usize,
    k: usize,
    ho: usize,
) -> impl Iterator<Item = (usize, usize)> {
    std::iter::successors(Some((oy0, ky0)), move |&(oy, ky)| {
        oy.checked_sub(1).map(|oy| (oy, ky + stride))
    })
    .take_while(move |&(_, ky)| ky < k)
    .filter(move |&(oy, _)| oy < ho)
}

/// Deals `row` — whose first element sits at padded column `first` — into
/// `stride` phases of `plen` slots: padded column `j` goes to slot
/// `j / stride` of phase `j % stride`. Slots no element lands in are left
/// as they were.
fn split_phases(row: &[f32], first: usize, stride: usize, plen: usize, phases: &mut [f32]) {
    // One source, instantiated with the stride as a constant where the
    // models use it: a constant stride turns the loop into wide loads and
    // shuffles, a run-time one leaves it scalar.
    match stride {
        1 => split::<1>(row, first, 1, plen, phases),
        2 => split::<2>(row, first, 2, plen, phases),
        _ => split::<0>(row, first, stride, plen, phases),
    }
}

fn split<const S: usize>(row: &[f32], first: usize, stride: usize, plen: usize, out: &mut [f32]) {
    let stride = if S == 0 { stride } else { S };
    for p in 0..stride {
        // Phase `p` takes `row[i0]`, `row[i0 + stride]`, ….
        let i0 = (p + stride - first % stride) % stride;
        let Some(src) = row.get(i0..) else { continue };
        let dst = &mut out[p * plen + (first + i0) / stride..];
        let groups = src.chunks_exact(stride);
        if let Some(&last) = groups.remainder().first() {
            dst[groups.len()] = last;
        }
        for (slot, group) in dst.iter_mut().zip(groups) {
            *slot = group[0];
        }
    }
}

/// The inverse of [`split_phases`] for `first = 0`: reads `row` back out
/// of its phases.
fn merge_phases(row: &mut [f32], stride: usize, plen: usize, phases: &[f32]) {
    match stride {
        1 => merge::<1>(row, 1, plen, phases),
        2 => merge::<2>(row, 2, plen, phases),
        _ => merge::<0>(row, stride, plen, phases),
    }
}

fn merge<const S: usize>(row: &mut [f32], stride: usize, plen: usize, phases: &[f32]) {
    let stride = if S == 0 { stride } else { S };
    for (p, src) in phases.chunks_exact(plen).enumerate().take(stride) {
        let Some(dst) = row.get_mut(p..) else {
            continue;
        };
        let mut groups = dst.chunks_exact_mut(stride);
        let whole = groups.len();
        for (group, &v) in groups.by_ref().zip(src) {
            group[0] = v;
        }
        if let Some(last) = groups.into_remainder().first_mut() {
            *last = src[whole];
        }
    }
}

/// The half-open output-x interval `[ox_lo, ox_hi)` for which kernel tap
/// `kx` reads in-bounds input (`0 ≤ ox·stride + kx − pad < w`); outside it
/// the tap sees zero padding.
fn tap_span(w: usize, wo: usize, stride: usize, kx: usize, pad: usize) -> (usize, usize) {
    let lo = if pad > kx {
        (pad - kx).div_ceil(stride)
    } else {
        0
    };
    let hi = (w + pad)
        .checked_sub(kx + 1)
        .map(|last| (last / stride + 1).min(wo))
        .unwrap_or(0);
    (lo.min(hi), hi)
}

/// Adjoint of [`im2col_strided`]: adds the sample's column block of
/// `cols` (`c·k·k` rows of `row_stride`, the block starting at
/// `col_offset`) back onto the dense `x: [c, h, w]`, which must be
/// pre-zeroed by the caller if accumulation from a clean slate is desired.
/// Bit-identical to the scatter-add it replaces (see the module doc).
///
/// # Panics
///
/// Panics when `x` does not match `c·h·w`, when the block overruns
/// `row_stride`, or when `cols` is not exactly `c·k·k` rows of
/// `row_stride`.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    x: &mut [f32],
    row_stride: usize,
    col_offset: usize,
) {
    assert_eq!(x.len(), c * h * w, "output size");
    gather_rows(
        cols,
        (c, h, w),
        (k, stride, pad),
        x,
        h * w,
        row_stride,
        col_offset,
        true,
        |_, _| {},
    );
}

/// [`col2im`] onto a clean slate that is never written: every pixel of
/// `x` — planes `channel_stride` apart, old contents not read — becomes
/// the sum `col2im` leaves in a zeroed `x`, and each finished row of
/// channel `ci` is then handed to `finish(ci, row)` while it is still in
/// cache (a transposed convolution's bias, norm and activation).
///
/// # Panics
///
/// As [`col2im`], with `x` checked as `c` planes `channel_stride` apart.
#[allow(clippy::too_many_arguments)]
pub fn col2im_set(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    x: &mut [f32],
    channel_stride: usize,
    row_stride: usize,
    col_offset: usize,
    finish: impl Fn(usize, &mut [f32]),
) {
    check_planes(x.len(), channel_stride, c, h * w);
    gather_rows(
        cols,
        (c, h, w),
        (k, stride, pad),
        x,
        channel_stride,
        row_stride,
        col_offset,
        false,
        finish,
    );
}

/// The row gather behind [`col2im`] (`accumulate`: rows are seeded from
/// `x`) and [`col2im_set`] (seeded with zero).
#[allow(clippy::too_many_arguments)]
fn gather_rows(
    cols: &[f32],
    (c, h, w): (usize, usize, usize),
    (k, stride, pad): (usize, usize, usize),
    x: &mut [f32],
    channel_stride: usize,
    row_stride: usize,
    col_offset: usize,
    accumulate: bool,
    finish: impl Fn(usize, &mut [f32]),
) {
    let ho = conv_out_dim(h, k, stride, pad);
    let wo = conv_out_dim(w, k, stride, pad);
    assert!(col_offset + ho * wo <= row_stride, "columns overrun stride");
    assert_eq!(cols.len(), c * k * k * row_stride, "cols size");
    // Per tap `kx`: the in-bounds `ox` interval and where its first pixel
    // (`ix = ox_lo·stride + kx − pad`) sits in the row's phase buffer.
    let plen = w.div_ceil(stride);
    let taps = Taps::new(k, |kx| {
        let (lo, hi) = tap_span(w, wo, stride, kx, pad);
        let ix0 = if lo < hi { lo * stride + kx - pad } else { 0 };
        (lo, hi, (ix0 % stride) * plen + ix0 / stride)
    });
    let mut scratch = workspace::take(stride * plen);
    let phases = &mut scratch[..stride * plen];
    for ci in 0..c {
        let plane = &mut x[ci * channel_stride..][..h * w];
        // Destination row `iy` is padded row `iy + pad`.
        let rows = plane.chunks_exact_mut(w.max(1));
        for (dst, (oy0, ky0)) in rows.zip(padded_rows(stride).skip(pad)) {
            if accumulate {
                split_phases(dst, 0, stride, plen, phases);
            } else {
                phases.fill(0.0);
            }
            for (oy, ky) in windows(oy0, ky0, stride, k, ho) {
                for (kx, &(lo, hi, start)) in taps.as_slice().iter().enumerate() {
                    let row = (ci * k + ky) * k + kx;
                    let src = &cols[row * row_stride + col_offset + oy * wo..][lo..hi];
                    for (a, s) in phases[start..start + src.len()].iter_mut().zip(src) {
                        *a += *s;
                    }
                }
            }
            merge_phases(dst, stride, plen, phases);
            finish(ci, dst);
        }
    }
    workspace::give(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One sample into a matrix of exactly its own width.
    #[allow(clippy::too_many_arguments)]
    fn im2col(
        x: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
        cols: &mut [f32],
    ) {
        let ho = conv_out_dim(h, k, stride, pad);
        let wo = conv_out_dim(w, k, stride, pad);
        assert_eq!(cols.len(), c * k * k * ho * wo, "cols size");
        im2col_strided(x, h * w, c, h, w, k, stride, pad, cols, ho * wo, 0);
    }

    /// `dense: [c, plane]` with its planes moved `channel_stride` apart,
    /// the gaps filled with values no lowering may read or write.
    fn spread(dense: &[f32], c: usize, plane: usize, channel_stride: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; (c * channel_stride).max(dense.len())];
        for ci in 0..c {
            out[ci * channel_stride..][..plane].copy_from_slice(&dense[ci * plane..][..plane]);
        }
        out
    }

    /// The definition the phase-split code must reproduce bit for bit:
    /// one bounds-checked element per `(c, ky, kx, oy, ox)`, in that loop
    /// order — the order the strided gather and scatter-add loops this
    /// module used to have visited them in. `visit(col, pixel)` gets the
    /// index into `cols` and, when the tap is inside the image, into `x`.
    #[allow(clippy::too_many_arguments)]
    fn for_each_tap(
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
        row_stride: usize,
        col_offset: usize,
        mut visit: impl FnMut(usize, Option<usize>),
    ) {
        let ho = conv_out_dim(h, k, stride, pad);
        let wo = conv_out_dim(w, k, stride, pad);
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let row = (ci * k + ky) * k + kx;
                            let col = row * row_stride + col_offset + oy * wo + ox;
                            let iy = (oy * stride + ky).checked_sub(pad).filter(|&iy| iy < h);
                            let ix = (ox * stride + kx).checked_sub(pad).filter(|&ix| ix < w);
                            visit(col, iy.zip(ix).map(|(iy, ix)| (ci * h + iy) * w + ix));
                        }
                    }
                }
            }
        }
    }

    /// Deterministic values in `[-1, 1)` with exact `±0.0` sprinkled in
    /// (`0.0 + -0.0` is where a reordered fold would first show).
    fn values(len: usize, seed: u64) -> Vec<f32> {
        (0..len as u64)
            .map(|i| {
                let x = i
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed.wrapping_mul(1442695040888963407) | 1);
                match x >> 61 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => ((x >> 33) as f32 / 2.0_f32.powi(31)) - 1.0,
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Odd and even sizes, kernels wider and narrower than the stride,
        /// padding, a wide `row_stride`, a non-zero `col_offset` and planes
        /// `gap` floats further apart than dense: `im2col_strided` fills
        /// exactly its column block with exactly the gathered values,
        /// `col2im` adds onto a non-zero destination exactly what the
        /// scatter-add would, in the same order, and `col2im_set` leaves in
        /// an unread destination what the scatter-add leaves in a zeroed
        /// one, each row then finished once.
        #[test]
        fn lowering_is_bitwise_the_per_element_loops(
            c in 1usize..=5,
            h in 1usize..=19,
            w in 1usize..=19,
            k in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=2,
            before in 0usize..=5,
            after in 0usize..=5,
            gap in 0usize..=3,
            seed in 0u64..10_000,
        ) {
            let k = k.min(h + 2 * pad).min(w + 2 * pad);
            let block = conv_out_dim(h, k, stride, pad) * conv_out_dim(w, k, stride, pad);
            let (row_stride, col_offset) = (before + block + after, before);
            let x = values(c * h * w, seed);

            let mut want = values(c * k * k * row_stride, seed ^ 0xC01);
            let mut got = want.clone();
            for_each_tap(c, h, w, k, stride, pad, row_stride, col_offset, |col, pixel| {
                want[col] = pixel.map_or(0.0, |i| x[i]);
            });
            let cs = h * w + gap;
            let apart = spread(&x, c, h * w, cs);
            im2col_strided(&apart, cs, c, h, w, k, stride, pad, &mut got, row_stride, col_offset);
            prop_assert_eq!(bits(&got), bits(&want), "im2col");

            // Fresh values: what `im2col` gathered would give every pixel one
            // repeated term, and any fold order the same sum.
            let cols = values(c * k * k * row_stride, seed ^ 0xADD);
            let mut want = values(c * h * w, seed ^ 0xD57);
            let mut got = want.clone();
            for_each_tap(c, h, w, k, stride, pad, row_stride, col_offset, |col, pixel| {
                if let Some(i) = pixel {
                    want[i] += cols[col];
                }
            });
            col2im(&cols, c, h, w, k, stride, pad, &mut got, row_stride, col_offset);
            prop_assert_eq!(bits(&got), bits(&want), "col2im");

            let mut zeroed = vec![0.0; c * h * w];
            for_each_tap(c, h, w, k, stride, pad, row_stride, col_offset, |col, pixel| {
                if let Some(i) = pixel {
                    zeroed[i] += cols[col];
                }
            });
            for (ci, plane) in zeroed.chunks_exact_mut((h * w).max(1)).enumerate() {
                plane.iter_mut().for_each(|v| *v = *v * 0.5 + ci as f32);
            }
            let want = spread(&zeroed, c, h * w, cs);
            let mut got = spread(&values(c * h * w, seed ^ 0x5E7), c, h * w, cs);
            col2im_set(&cols, c, h, w, k, stride, pad, &mut got, cs, row_stride, col_offset, |ci, row| {
                row.iter_mut().for_each(|v| *v = *v * 0.5 + ci as f32);
            });
            prop_assert_eq!(bits(&got), bits(&want), "col2im_set");
        }
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(16, 4, 2, 1), 8); // pix2pix halving
        assert_eq!(conv_out_dim(5, 3, 1, 1), 5); // same-conv
        assert_eq!(conv_out_dim(4, 4, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn out_dim_rejects_oversize_kernel() {
        let _ = conv_out_dim(2, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // k=1, s=1, p=0 is a no-op reshape.
        let x: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let mut cols = vec![0.0; 12];
        im2col(&x, 3, 2, 2, 1, 1, 0, &mut cols);
        assert_eq!(cols, x);
    }

    #[test]
    fn im2col_strided_interleaves_samples() {
        // Two 1-channel 2x2 samples with k=1 (no-op unroll) side by side.
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut cols = vec![0.0; 8]; // 1 row of stride 8
        im2col_strided(&a, 4, 1, 2, 2, 1, 1, 0, &mut cols, 8, 0);
        im2col_strided(&b, 4, 1, 2, 2, 1, 1, 0, &mut cols, 8, 4);
        assert_eq!(cols, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_strided_matches_plain_im2col_per_block() {
        let (c, h, w, k, s, p) = (2, 5, 4, 3, 2, 1);
        let ho = conv_out_dim(h, k, s, p);
        let wo = conv_out_dim(w, k, s, p);
        let plane = ho * wo;
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.61).sin()).collect();
        let mut plain = vec![0.0; c * k * k * plane];
        im2col(&x, c, h, w, k, s, p, &mut plain);
        // Interleave the same sample at offset `plane` of a 3-sample-wide
        // matrix and compare block-wise.
        let mut wide = vec![-1.0; c * k * k * plane * 3];
        im2col_strided(&x, h * w, c, h, w, k, s, p, &mut wide, plane * 3, plane);
        for row in 0..c * k * k {
            assert_eq!(
                &wide[row * plane * 3 + plane..row * plane * 3 + 2 * plane],
                &plain[row * plane..(row + 1) * plane],
                "row {row}"
            );
        }
    }

    #[test]
    fn im2col_knows_padding() {
        // 1 channel, 2x2 input, k=3, s=1, p=1 -> 2x2 output positions.
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![0.0; 9 * 4];
        im2col(&x, 1, 2, 2, 3, 1, 1, &mut cols);
        // Centre tap (ky=1,kx=1) row must equal the input itself.
        let centre = &cols[4 * 4..5 * 4];
        assert_eq!(centre, &x[..]);
        // Top-left tap at output (0,0) looks at (-1,-1): zero.
        assert_eq!(cols[0], 0.0);
        // Top-left tap at output (1,1) looks at (0,0): 1.0.
        assert_eq!(cols[3], 1.0);
    }

    /// The adjoint identity `<im2col(x), y> == <x, col2im(y)>` is the exact
    /// property backward passes rely on.
    #[test]
    fn col2im_is_adjoint_of_im2col() {
        let (c, h, w, k, s, p) = (2, 5, 4, 3, 2, 1);
        let ho = conv_out_dim(h, k, s, p);
        let wo = conv_out_dim(w, k, s, p);
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..c * k * k * ho * wo)
            .map(|i| (i as f32 * 0.53).cos())
            .collect();
        let mut ix = vec![0.0; y.len()];
        im2col(&x, c, h, w, k, s, p, &mut ix);
        let lhs: f64 = ix
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let mut cy = vec![0.0; x.len()];
        col2im(&y, c, h, w, k, s, p, &mut cy, ho * wo, 0);
        let rhs: f64 = x
            .iter()
            .zip(&cy)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates() {
        let cols = vec![1.0; 9 * 4];
        let mut x = vec![0.0; 4];
        col2im(&cols, 1, 2, 2, 3, 1, 1, &mut x, 4, 0);
        // Every output position's 3x3 window covers each input pixel at
        // least once; values must be > 1 due to overlap.
        assert!(x.iter().all(|&v| v >= 2.0), "{x:?}");
    }
}
