//! `im2col`/`col2im` lowering for convolution.
//!
//! A `[C, H, W]` feature map is unrolled into a `[C·k·k, Ho·Wo]` matrix so
//! convolution becomes one matrix multiply; `col2im` is the exact adjoint
//! (scatter-add), which is what the backward-data pass and the transposed
//! convolution's forward pass need. Both take a **group** of samples whose
//! planes of one channel lie side by side (one sample, or a slab laid
//! channel-major over the batch) and move whole planes, not rows.
//!
//! **Phase planes.** Tap `(ky, kx)` of output `(oy, ox)` reads pixel
//! `(oy·s + ky − p, ox·s + kx − p)`. Each channel is dealt once into its
//! `s²` phase planes — phase `(qy, qx)` holds pixel `(iy, ix)` with
//! `iy mod s = qy`, `ix mod s = qx` at `(iy div s, ix div s)` — and then
//! that pixel is in phase `((ky − p) mod s, (kx − p) mod s)` at
//! `(oy + (ky − p) div s, ox + (kx − p) div s)`: a tap's row of the matrix
//! is one phase plane shifted by a constant, zero where the shift leaves
//! the image. At stride 1 the phase plane is the channel's own plane.
//!
//! **Runs.** Where a phase plane is `ho` rows of pitch `wo` (every
//! stride-2, k = 4, pad-1 layer of the models on even maps), a tap's whole
//! row over the group is **one** shifted copy; otherwise it is one copy per
//! output row (the discriminator's stride-1 layers). A merged copy also
//! carries entries between rows and samples whose pixel is padding; those,
//! and the padding no copy reaches, are then written zero. `im2col` only
//! moves values, so it is exact.
//!
//! **`col2im` is the mirror**: per channel each phase plane is `+0.0` plus
//! its taps' shifted blocks of the matrix in ascending `(ky, kx)`, through
//! the same runs, then interleaved into the destination once and handed to
//! `finish`. The scatter-add it replaces gives a pixel `0.0 + t₁ + t₂ + …`
//! over its in-image taps in ascending `(ky, kx)` (a tap fixes `oy` and
//! `ox`). A merged run may also add entries whose pixel is padding — under
//! a constant shift an entry that wraps into the next row or sample always
//! names a pixel outside the image — so those are zeroed first and add
//! `+0.0`. That changes no bit: under round-to-nearest a sum seeded with
//! `+0.0` is never `−0.0` (`x + y` is `−0.0` only when both are), and
//! `v + 0.0 = v` for every other `v`, NaN and ∞ included.

use crate::workspace;

/// Two sizes that travel together: `(h, w)`, `(c, g)`, `(row_stride,
/// col_offset)`, `(first, g)`.
pub(crate) type Pair = (usize, usize);

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

/// Unrolls a group of `g` samples of `c` channels of `h×w` (`dims`) into
/// their `[c·k·k, g·ho·wo]` matrix (zero padding outside the image),
/// stored as the columns `col_offset .. col_offset + g·ho·wo` of `cols`,
/// whose rows are `row_stride` long (`at = (row_stride, col_offset)`).
/// Channel `ci` of the group is the `g` dense planes at
/// `x[ci·channel_stride..]`, and sample `b` lands in the columns from
/// `col_offset + b·ho·wo`. `window` is `(k, stride, pad)`.
/// Every element of the column block is written, so `cols` need not be
/// initialised.
///
/// Unrolling a whole batch side by side produces one `[C·k·k, N·Ho·Wo]`
/// matrix, so the batch runs through a single matmul whose inner loop is
/// `N×` longer — the win that makes micro-batched inference beat
/// sequential single-sample calls on small feature maps.
///
/// # Panics
///
/// Panics when `x` ends before its last channel or channels overlap, when
/// the group's columns overrun `row_stride`, or when `cols` is not exactly
/// `c·k·k` rows of `row_stride`.
pub fn im2col(
    x: &[f32],
    channel_stride: usize,
    (c, g): (usize, usize),
    dims: (usize, usize),
    window: (usize, usize, usize),
    cols: &mut [f32],
    at: (usize, usize),
) {
    let (planes, (row_stride, col_offset)) = (Planes::new(g, dims, window), at);
    planes.check(c, (x.len(), channel_stride), (cols.len(), at));
    let mut scratch = workspace::take(planes.s * planes.s * planes.phase_len);
    for ci in 0..c {
        let src = &x[ci * channel_stride..][..planes.group];
        let phases = if planes.s == 1 {
            src
        } else {
            planes.deal(src, &mut scratch);
            &scratch[..]
        };
        for (t, (ty, tx, phase)) in planes.taps().enumerate() {
            let row = (ci * planes.k * planes.k + t) * row_stride + col_offset;
            let out = &mut cols[row..][..planes.block];
            planes.runs(ty, tx, |col, from, len| {
                out[col..col + len].copy_from_slice(&phases[phase + from..][..len]);
            });
            planes.zero_padding(ty, tx, out);
        }
    }
    workspace::give(scratch);
}

/// Adjoint of [`im2col`] onto a clean slate that is never read: every
/// pixel of the group in `x` — laid out as [`im2col`] reads it, old
/// contents not read — becomes the sum the scatter-add of the group's
/// column block of `cols` leaves in a zeroed `x` (see the module doc), and
/// each finished channel (its `g` planes) is then handed to
/// `finish(ci, planes)` while it is still in cache (a transposed
/// convolution's bias, norm and activation). Entries of the block whose
/// pixel is padding may be overwritten with zero.
///
/// # Panics
///
/// As [`im2col`], with `x` checked as the group's `c` channels
/// `channel_stride` apart.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &mut [f32],
    (c, g): (usize, usize),
    dims: (usize, usize),
    window: (usize, usize, usize),
    x: &mut [f32],
    channel_stride: usize,
    at: (usize, usize),
    finish: impl Fn(usize, &mut [f32]),
) {
    let planes = Planes::new(g, dims, window);
    planes.check(c, (x.len(), channel_stride), (cols.len(), at));
    let rows = planes.k * planes.k * at.0;
    let mut scratch = workspace::take(planes.s * planes.s * planes.phase_len);
    for (ci, taps) in cols.chunks_exact_mut(rows.max(1)).enumerate().take(c) {
        let dst = &mut x[ci * channel_stride..][..planes.group];
        if planes.s == 1 {
            planes.sum_taps(taps, at, dst);
        } else {
            planes.sum_taps(taps, at, &mut scratch);
            planes.interleave(&scratch, dst);
        }
        finish(ci, dst);
    }
    workspace::give(scratch);
}

/// Kernel widths whose tap table fits on the stack (the models use 4).
const INLINE_TAPS: usize = 8;

/// One precomputed entry per kernel row or column. The lowering runs per
/// group per layer, so the table lives on the stack for kernels up to
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

/// Where one tap reads along one axis.
#[derive(Debug, Clone, Copy, Default)]
struct AxisTap {
    /// The phase it reads: `(tap − pad) mod stride`.
    phase: usize,
    /// Output `o` reads slot `o + shift` of the phase: `(tap − pad) div
    /// stride`.
    shift: isize,
    /// The outputs `lo .. hi` whose pixel is inside the image.
    lo: usize,
    hi: usize,
}

impl AxisTap {
    /// Tap `kk` along an axis of `dim` pixels and `out` outputs.
    fn new(kk: usize, (dim, out): (usize, usize), stride: usize, pad: usize) -> Self {
        let (t, s) = (kk as isize - pad as isize, stride as isize);
        let (phase, shift) = (t.rem_euclid(s) as usize, t.div_euclid(s));
        // The phase's pixels: `phase`, `phase + stride`, … below `dim`.
        let len = ((dim + stride - 1 - phase) / stride) as isize;
        let hi = (len - shift).clamp(0, out as isize) as usize;
        let lo = ((-shift).max(0) as usize).min(hi);
        AxisTap {
            phase,
            shift,
            lo,
            hi,
        }
    }
}

/// Whether tap `(ty, tx)` reads no pixel of the image at all.
fn outside(ty: AxisTap, tx: AxisTap) -> bool {
    ty.lo == ty.hi || tx.lo == tx.hi
}

/// The taps of a `window` (`(k, stride, pad)`) over a `dims` image that
/// read at least one pixel, as bit `ky·k + kx` of a mask — `None` when
/// every tap does, or when the window is wider than [`INLINE_TAPS`] (its
/// taps do not fit the mask; it keeps them all).
pub(crate) fn inside_taps(dims: Pair, (k, s, pad): (usize, usize, usize)) -> Option<u64> {
    if k > INLINE_TAPS {
        return None;
    }
    let (ho, wo) = (
        conv_out_dim(dims.0, k, s, pad),
        conv_out_dim(dims.1, k, s, pad),
    );
    let rows = Taps::new(k, |ky| AxisTap::new(ky, (dims.0, ho), s, pad));
    let cols = Taps::new(k, |kx| AxisTap::new(kx, (dims.1, wo), s, pad));
    let mut mask = 0u64;
    for (ky, &ty) in rows.as_slice().iter().enumerate() {
        for (kx, &tx) in cols.as_slice().iter().enumerate() {
            if !outside(ty, tx) {
                mask |= 1 << (ky * k + kx);
            }
        }
    }
    (mask.count_ones() as usize != k * k).then_some(mask)
}

/// One lowering's geometry: a group of `g` samples of `h×w` through a
/// `k×k` window at stride `s`, and where every tap reads. Phase
/// `(qy, qx)` of the group is `g` planes of `hq` rows of pitch `pq`,
/// `phase_len` floats from `(qy·s + qx)·phase_len` on.
struct Planes {
    g: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    ho: usize,
    wo: usize,
    hq: usize,
    pq: usize,
    /// Floats of a channel of the group, of its block of a matrix row, and
    /// of a phase plane.
    group: usize,
    block: usize,
    phase_len: usize,
    rows: Taps<AxisTap>,
    cols: Taps<AxisTap>,
}

impl Planes {
    fn new(g: usize, (h, w): (usize, usize), (k, s, pad): (usize, usize, usize)) -> Self {
        let (ho, wo) = (conv_out_dim(h, k, s, pad), conv_out_dim(w, k, s, pad));
        let (hq, pq) = (h.div_ceil(s), w.div_ceil(s));
        Planes {
            g,
            h,
            w,
            k,
            s,
            ho,
            wo,
            hq,
            pq,
            group: g * h * w,
            block: g * ho * wo,
            phase_len: g * hq * pq,
            rows: Taps::new(k, |ky| AxisTap::new(ky, (h, ho), s, pad)),
            cols: Taps::new(k, |kx| AxisTap::new(kx, (w, wo), s, pad)),
        }
    }

    /// `c` channels `channel_stride` apart fit in `len` floats, and `cols`
    /// floats are `c·k²` rows of `row_stride` that hold the group's block
    /// at `col_offset`.
    fn check(&self, c: usize, (len, channel_stride): Pair, (cols, at): (usize, Pair)) {
        let (row_stride, col_offset) = at;
        assert!(channel_stride >= self.group, "channel planes overlap");
        let last = c.saturating_sub(1) * channel_stride;
        assert!(c == 0 || len >= last + self.group, "sample size");
        let fits = col_offset + self.block <= row_stride;
        assert!(fits, "columns overrun stride");
        assert_eq!(cols, c * self.k * self.k * row_stride, "cols size");
    }

    /// Whether a tap's row is one run over the group: the phase plane is
    /// the output plane's shape.
    fn merged(&self) -> bool {
        (self.hq, self.pq) == (self.ho, self.wo)
    }

    /// The taps in ascending `(ky, kx)`, each with where its phase plane
    /// starts.
    fn taps(&self) -> impl Iterator<Item = (AxisTap, AxisTap, usize)> + '_ {
        self.rows.as_slice().iter().flat_map(move |&ty| {
            self.cols.as_slice().iter().map(move |&tx| {
                let phase = ty.phase * self.s + tx.phase;
                (ty, tx, phase * self.phase_len)
            })
        })
    }

    /// Calls `run(col, from, len)` for each run of tap `(ty, tx)`: entries
    /// `col .. col + len` of its block of the matrix row against
    /// `from .. from + len` of its phase plane. A run spans the first to the
    /// last in-image entry of its rows.
    fn runs(&self, ty: AxisTap, tx: AxisTap, mut run: impl FnMut(usize, usize, usize)) {
        if outside(ty, tx) {
            return;
        }
        // Matrix and phase-plane index of output `(oy, ox)` of sample `b`.
        let index = |b: usize, oy: usize, ox: usize| {
            let py = oy.wrapping_add_signed(ty.shift);
            let px = ox.wrapping_add_signed(tx.shift);
            (
                (b * self.ho + oy) * self.wo + ox,
                (b * self.hq + py) * self.pq + px,
            )
        };
        if self.merged() {
            let first = index(0, ty.lo, tx.lo);
            let last = index(self.g - 1, ty.hi - 1, tx.hi - 1);
            return run(first.0, first.1, last.0 + 1 - first.0);
        }
        for b in 0..self.g {
            for oy in ty.lo..ty.hi {
                let (col, from) = index(b, oy, tx.lo);
                run(col, from, tx.hi - tx.lo);
            }
        }
    }

    /// Zeroes the entries of tap `(ty, tx)`'s block whose pixel is padding
    /// — a row or two and a column or two of each sample — one strided
    /// pass over the group per position, not a call per row or sample.
    fn zero_padding(&self, ty: AxisTap, tx: AxisTap, block: &mut [f32]) {
        if outside(ty, tx) {
            return block.fill(0.0);
        }
        let (ho, wo) = (self.ho, self.wo);
        for i in (0..ty.lo * wo).chain(ty.hi * wo..ho * wo) {
            block[i..]
                .iter_mut()
                .step_by(ho * wo)
                .for_each(|v| *v = 0.0);
        }
        for ox in (0..tx.lo).chain(tx.hi..wo) {
            block[ox..].iter_mut().step_by(wo).for_each(|v| *v = 0.0);
        }
    }

    /// Sets `phases` to `+0.0` plus each tap's block of `taps` (one
    /// channel's `k²` matrix rows, `(row_stride, col_offset)`) added
    /// through its runs, in ascending `(ky, kx)` — once the block's padding
    /// entries are zero where a run can pass over them.
    fn sum_taps(&self, taps: &mut [f32], (row_stride, col_offset): Pair, phases: &mut [f32]) {
        phases[..self.s * self.s * self.phase_len].fill(0.0);
        for (t, (ty, tx, phase)) in self.taps().enumerate() {
            let src = &mut taps[t * row_stride + col_offset..][..self.block];
            if self.merged() && !outside(ty, tx) {
                self.zero_padding(ty, tx, src);
            }
            self.runs(ty, tx, |col, to, len| {
                for (a, v) in phases[phase + to..][..len]
                    .iter_mut()
                    .zip(&src[col..col + len])
                {
                    *a += *v;
                }
            });
        }
    }

    /// Deals one channel of the group into its phase planes.
    fn deal(&self, planes: &[f32], phases: &mut [f32]) {
        self.for_rows(|row, at| {
            split_phases(
                &planes[row..][..self.w],
                self.s,
                self.phase_len,
                &mut phases[at..],
            );
        });
    }

    /// The inverse of [`Planes::deal`].
    fn interleave(&self, phases: &[f32], planes: &mut [f32]) {
        self.for_rows(|row, at| {
            merge_phases(
                &mut planes[row..][..self.w],
                self.s,
                self.phase_len,
                &phases[at..],
            );
        });
    }

    /// Calls `f(row, at)` for every image row of a channel of the group:
    /// where it starts in the group's planes, and in the first phase plane
    /// it is dealt to.
    fn for_rows(&self, mut f: impl FnMut(usize, usize)) {
        for qy in 0..self.s.min(self.h) {
            for b in 0..self.g {
                let first = (qy * self.s * self.g + b) * self.hq;
                for (t, iy) in (qy..self.h).step_by(self.s).enumerate() {
                    f((b * self.h + iy) * self.w, (first + t) * self.pq);
                }
            }
        }
    }
}

/// Deals `row` into `stride` phases `pitch` floats apart in `out`: element
/// `j` goes to slot `j div stride` of phase `j mod stride`.
fn split_phases(row: &[f32], stride: usize, pitch: usize, out: &mut [f32]) {
    if stride == 2 {
        // One pass over pairs, which the compiler turns into wide loads
        // and shuffles; a general stride stays a loop per phase.
        let (even, odd) = out.split_at_mut(pitch);
        let pairs = row.chunks_exact(2);
        if let [last] = pairs.remainder() {
            even[pairs.len()] = *last;
        }
        for ((e, o), pair) in even.iter_mut().zip(odd.iter_mut()).zip(pairs) {
            (*e, *o) = (pair[0], pair[1]);
        }
        return;
    }
    for p in 0..stride.min(row.len()) {
        for (slot, v) in out[p * pitch..]
            .iter_mut()
            .zip(row[p..].iter().step_by(stride))
        {
            *slot = *v;
        }
    }
}

/// The inverse of [`split_phases`].
fn merge_phases(row: &mut [f32], stride: usize, pitch: usize, phases: &[f32]) {
    if stride == 2 {
        let (even, odd) = phases.split_at(pitch);
        let mut pairs = row.chunks_exact_mut(2);
        let whole = pairs.len();
        for ((pair, e), o) in pairs.by_ref().zip(even).zip(odd) {
            (pair[0], pair[1]) = (*e, *o);
        }
        if let [last] = pairs.into_remainder() {
            *last = even[whole];
        }
        return;
    }
    for p in 0..stride.min(row.len()) {
        for (v, slot) in row[p..]
            .iter_mut()
            .step_by(stride)
            .zip(&phases[p * pitch..])
        {
            *v = *slot;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;

    /// One sample into a matrix of exactly its own width.
    #[allow(clippy::too_many_arguments)]
    fn im2col_dense(
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
        im2col(
            x,
            h * w,
            (c, 1),
            (h, w),
            (k, stride, pad),
            cols,
            (ho * wo, 0),
        );
    }

    /// The definition the plane lowering must reproduce bit for bit, for
    /// one sample: one bounds-checked element per `(c, ky, kx, oy, ox)`, in
    /// that loop order — the order the strided gather and scatter-add loops
    /// this module once had visited them in. `visit(col, pixel)` gets the
    /// index into `cols` and, when the tap is inside the image, into the
    /// dense sample `[c, h, w]`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_each_tap(
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
    /// (`0.0 + -0.0` is where a reordered fold would first show), or — for
    /// `seed == NEG_ZEROS` — nothing but `−0.0`.
    pub(crate) fn values(len: usize, seed: u64) -> Vec<f32> {
        if seed == NEG_ZEROS {
            return vec![-0.0; len];
        }
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

    /// The seed for which [`values`] is all `−0.0`: every sum `col2im`
    /// makes of them must come out `+0.0`.
    pub(crate) const NEG_ZEROS: u64 = u64::MAX;

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The finishing pass the tests hand `col2im`: it keeps the sign of a
    /// zero in channel 0, and applying it twice would show.
    pub(crate) fn finish(ci: usize, v: f32) -> f32 {
        v * 0.5 - ci as f32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Odd and even sizes, kernels wider and narrower than the stride,
        /// padding, groups of one to four samples at a non-zero
        /// `col_offset` of a wider matrix, and channels `gap` floats further
        /// apart than the group, the gaps NaN: `im2col` fills exactly its
        /// column block with exactly the gathered values, and `col2im`
        /// leaves in an unread destination what the scatter-add leaves in a
        /// zeroed one, each channel then finished once and the gaps neither
        /// read nor written. One case in eight, every input is `−0.0`.
        #[test]
        fn lowering_is_bitwise_the_per_element_loops(
            c in 1usize..=5,
            g in 1usize..=4,
            h in 1usize..=19,
            w in 1usize..=19,
            k in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=2,
            before in 0usize..=5,
            after in 0usize..=5,
            gap in 0usize..=3,
            seed in 0u64..80_000,
        ) {
            let input = |salt: u64| if seed % 8 == 0 { NEG_ZEROS } else { seed ^ salt };
            let k = k.min(h + 2 * pad).min(w + 2 * pad);
            let (plane, window) = (h * w, (k, stride, pad));
            let p_out = conv_out_dim(h, k, stride, pad) * conv_out_dim(w, k, stride, pad);
            let (row_stride, col_offset) = (before + g * p_out + after, before);
            // `[g][c][plane]`, laid channel-major: channel `ci`'s planes
            // side by side, `cs` floats from one channel to the next.
            let xs = values(g * c * plane, input(0));
            let cs = g * plane + gap;
            let laid = |dense: &[f32]| {
                let mut out = vec![f32::NAN; c * cs];
                for (i, v) in dense.iter().enumerate() {
                    let (b, ci, p) = (i / (c * plane), i / plane % c, i % plane);
                    out[ci * cs + b * plane + p] = *v;
                }
                out
            };

            let mut want = values(c * k * k * row_stride, seed ^ 0xC01);
            let mut got = want.clone();
            for b in 0..g {
                for_each_tap(c, h, w, k, stride, pad, row_stride, col_offset + b * p_out, |col, pixel| {
                    want[col] = pixel.map_or(0.0, |i| xs[b * c * plane + i]);
                });
            }
            im2col(&laid(&xs), cs, (c, g), (h, w), window, &mut got, (row_stride, col_offset));
            prop_assert_eq!(bits(&got), bits(&want), "im2col");

            // Fresh values: what `im2col` gathered would give every pixel one
            // repeated term, and any fold order the same sum. Outside the
            // group's block the matrix is NaN, which no sum may read.
            let mut cols = values(c * k * k * row_stride, input(0xADD));
            for row in cols.chunks_exact_mut(row_stride) {
                row[..col_offset].fill(f32::NAN);
                row[col_offset + g * p_out..].fill(f32::NAN);
            }
            let mut sums = vec![0.0; g * c * plane];
            for b in 0..g {
                for_each_tap(c, h, w, k, stride, pad, row_stride, col_offset + b * p_out, |col, pixel| {
                    if let Some(i) = pixel {
                        sums[b * c * plane + i] += cols[col];
                    }
                });
            }
            for (i, v) in sums.iter_mut().enumerate() {
                *v = finish(i / plane % c, *v);
            }
            let finished = RefCell::new(vec![0; c]);
            let mut got = laid(&values(g * c * plane, seed ^ 0x5E7));
            col2im(&mut cols, (c, g), (h, w), window, &mut got, cs, (row_stride, col_offset), |ci, planes| {
                finished.borrow_mut()[ci] += planes.len();
                planes.iter_mut().for_each(|v| *v = finish(ci, *v));
            });
            prop_assert_eq!(bits(&got), bits(&laid(&sums)), "col2im");
            prop_assert_eq!(finished.into_inner(), vec![g * plane; c], "finished once");
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
        im2col_dense(&x, 3, 2, 2, 1, 1, 0, &mut cols);
        assert_eq!(cols, x);
    }

    #[test]
    fn im2col_strided_interleaves_samples() {
        // Two 1-channel 2x2 samples with k=1 (no-op unroll) side by side,
        // one at a time or as one group.
        let ab = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut cols = vec![0.0; 8]; // 1 row of stride 8
        im2col(&ab[..4], 4, (1, 1), (2, 2), (1, 1, 0), &mut cols, (8, 0));
        im2col(&ab[4..], 4, (1, 1), (2, 2), (1, 1, 0), &mut cols, (8, 4));
        assert_eq!(cols, ab);
        let mut group = vec![0.0; 8];
        im2col(&ab, 8, (1, 2), (2, 2), (1, 1, 0), &mut group, (8, 0));
        assert_eq!(group, ab);
    }

    #[test]
    fn im2col_strided_matches_plain_im2col_per_block() {
        let (c, h, w, k, s, p) = (2, 5, 4, 3, 2, 1);
        let ho = conv_out_dim(h, k, s, p);
        let wo = conv_out_dim(w, k, s, p);
        let plane = ho * wo;
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.61).sin()).collect();
        let mut plain = vec![0.0; c * k * k * plane];
        im2col_dense(&x, c, h, w, k, s, p, &mut plain);
        // Interleave the same sample at offset `plane` of a 3-sample-wide
        // matrix and compare block-wise.
        let mut wide = vec![-1.0; c * k * k * plane * 3];
        im2col(
            &x,
            h * w,
            (c, 1),
            (h, w),
            (k, s, p),
            &mut wide,
            (plane * 3, plane),
        );
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
        im2col_dense(&x, 1, 2, 2, 3, 1, 1, &mut cols);
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
        im2col_dense(&x, c, h, w, k, s, p, &mut ix);
        let lhs: f64 = ix
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let mut cy = vec![0.0; x.len()];
        let mut y = y;
        col2im(
            &mut y,
            (c, 1),
            (h, w),
            (k, s, p),
            &mut cy,
            h * w,
            (ho * wo, 0),
            |_, _| {},
        );
        let rhs: f64 = x
            .iter()
            .zip(&cy)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates() {
        let mut cols = vec![1.0; 9 * 4];
        let mut x = vec![f32::NAN; 4];
        col2im(
            &mut cols,
            (1, 1),
            (2, 2),
            (3, 1, 1),
            &mut x,
            4,
            (4, 0),
            |_, _| {},
        );
        // Every output position's 3x3 window covers each input pixel at
        // least once; values must be > 1 due to overlap.
        assert!(x.iter().all(|&v| v >= 2.0), "{x:?}");
    }
}
