//! Minimal dense matrix kernels used by the convolution layers.
//!
//! Row-major `f32` matrices as flat slices, shaped for the autovectorizer:
//! one register-block kernel (`block_rows`: up to 4 rows × one **column
//! panel** of independent accumulators, two vector registers wide) serves
//! `nn`, `tn` and `nt`, so the innermost loop is always a fixed-width
//! bundle of independent multiply-then-adds over contiguous `B` memory —
//! the exact shape LLVM provably lowers to SIMD without intrinsics.
//!
//! **Two registers per row.** The panel width `NR` is a const parameter of
//! the kernel source: 8 lanes at the baseline (two `xmm`), 16 under AVX2
//! (two `ymm`), so a 4-row block always carries eight accumulator chains.
//! With one register per row the block had four, and the loop ran at the
//! latency of four dependent adds, not at the multiply and add ports: a
//! standalone copy of the kernel over the quick model's twelve forward
//! GEMMs at batch 5 (AVX2 host, µs per image, every variant bit-equal to
//! 4 × 8) read 969 at 4 × 8, **815 at 4 × 16**, 818 at 4 × 24, 892 at
//! 3 × 16, 1 133 at 6 × 16, 1 046 at 6 × 8 and 1 405 at 8 × 8 (the wider
//! blocks spill); an AVX-512 build read 811 at 4 × 16 and worse beyond, so
//! there is no third instantiation.
//!
//! **Bitwise contract.** Register blocking only regroups *independent*
//! output elements: each `C[i, j]` starts from a seed and adds its `k`
//! products one by one in ascending order, exactly like the scalar
//! reference, so results are bitwise-identical to a naive triple loop
//! (`tests/kernel_prop.rs` pins this across odd shapes and tails). Every
//! shape takes the panel kernel; what differs per entry point is only how
//! the operands are laid out for it, and each layout step moves values
//! without arithmetic:
//!
//! * **Column tails** (`n mod NR` columns). The tail columns of `B` and `C`
//!   are copied once per call into zero-padded `k×W` / `m×W` scratch, run
//!   through the same panel kernel at width `W`, and the real lanes copied
//!   back. `W` is the narrowest of 4, 8 and `NR` that holds the tail: the
//!   U-Net's 1×1 and 2×2 levels multiply with `n = 1` or `4`, where a
//!   16-lane panel would spend 15 or 12 of its lanes on padding. Lanes
//!   are independent outputs: the padding lanes compute `0 + a·0 + …` and
//!   are dropped, the real lanes see the same seed and the same products
//!   in the same order as in a full panel, whatever its width.
//! * **`tn` picks its layout by element count.** `A` arrives transposed,
//!   so something is transposed per call: either `Aᵀ` is packed (`m·k`
//!   elements moved, a strip of rows at a time) or the product is computed
//!   as `Cᵀ += Bᵀ·A`, lanes over the contiguous `m` axis of `A` (`n·k` for
//!   `Bᵀ` plus `2·m·n` for `Cᵀ`, seeded from and written back to `C`). The
//!   second form also streams all of `A` once per 4-row block of `Bᵀ` where
//!   the pack reads it once, and a streamed element measures about an
//!   eighth of a transposed one: `n·m·k/32` more. `matmul_tn` takes the
//!   cheaper count — the transposed output for the deconvolutions' big
//!   weight matrices against up to ~20 columns, the pack beyond. Each
//!   output still folds `k` in ascending order from its `C` seed, and
//!   `b·a` rounds exactly like `a·b`, so the choice cannot change a bit.
//!   [`TnWeights`] is the same rule for an `A` that outlives the call
//!   (inference weights): the pack happens once, not per product.
//! * **`nt` picks its layout by element count too**, for the chain
//!   `0 + a₀b₀ + … + aₖ₋₁bₖ₋₁`, then `c += acc`, that its reference pins:
//!   pack `Bᵀ` and add each finished dot onto `C` (`n·k` moved), or compute
//!   `T = B·Aᵀ` zero-seeded and add it onto `C` transposed (`m·k + 2·m·n`).
//!   The kernel streams `m·n·k/4` elements either way, so that term
//!   cancels; on the 14 weight-gradient shapes of a train step the smaller
//!   count was the faster layout every time (`12×1024×112`: 0.53×).
//! * **Overwriting products** ([`matmul_nn_set`], `matmul_tn_set`,
//!   [`TnWeights::product`]) seed with zero and store the finished chain:
//!   the bits `C += A·B` leaves in a zeroed `C`, without the pass that
//!   zeroes it.
//!
//! The old `if aik == 0.0` skip is gone: it broke the fixed-width panel
//! shape (a data-dependent branch in the hot loop defeats vectorization)
//! and, for the finite values these layers produce, adding a `±0.0`
//! product is an accumulator no-op. Kernels assume finite inputs.
//!
//! **One source, two instantiations.** The kernel (column loop, tail
//! padding and register block) is `#[inline(always)]` generic code compiled
//! twice: at the target's baseline, and on x86-64 inside a
//! `#[target_feature(enable = "avx2")]` wrapper picked per call by
//! `is_x86_feature_detected!`. AVX2 only widens the registers (and with
//! them the panel — outputs stay independent lanes): `fma` is
//! never enabled and Rust does not contract `a * b + c`, so the wide build
//! issues `vmulps` then `vaddps`, each rounding once like the scalar
//! `mulss`/`addss` — bit-exact, and a unit test runs both instantiations
//! against each other. Other targets compile the baseline only; the layout
//! steps above (transposes) are plain code outside the kernel. The `tanh`
//! kernel ([`tanh_in_place`](crate::tanh_in_place)) is instantiated the
//! same way, behind its own check.
//!
//! `matmul_nn` / `matmul_tn` additionally tile over columns so the
//! re-streamed `B` panel stays cache-resident when `n` is large — the
//! regime batched inference creates by widening `n` to `batch · ho · wo`.
//!
//! **Forked rows.** Training's overwriting products can also split their
//! output rows in two at a multiple of the row block and hand one strip to
//! [`pop_exec::join`]'s helper (`matmul_nn_set_forked`,
//! `matmul_tn_set_forked`). Rows are independent outputs, so the bits are
//! the unsplit product's whoever runs which strip; inference never forks.

use crate::workspace;
use std::sync::OnceLock;

/// Column-panel width at the target's baseline: 8 f32 lanes, two SSE
/// registers per accumulator row.
const NR_BASE: usize = 8;
/// Column-panel width under AVX2: 16 lanes, two 256-bit registers per row.
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 16;
/// Row-block height: 4 independent accumulator rows amortise each `B`
/// panel load across 4 outputs.
const MR: usize = 4;

/// How an output's chain starts and ends: seeded from `C` and stored back
/// (`C += A·B`, folding from the old value).
const ACC: u8 = 0;
/// Zero-seeded, the finished dot product added onto `C` (the `nt` chain).
const DOT: u8 = 1;
/// Zero-seeded and stored over `C`, whose old contents are never read.
const SET: u8 = 2;

/// Floats of `Aᵀ` that `matmul_tn` packs at a time (64 KiB).
const PACK: usize = 1 << 14;

/// Column-tile width targeting a ~1 MiB working panel (`rows · tile · 4`
/// bytes) so it stays inside the L2 cache; a whole number of `nr`-wide
/// panels.
fn col_tile(rows: usize, nr: usize) -> usize {
    (262_144 / rows.max(1)).max(32) / nr * nr
}

/// `C += A @ B` where `A` is `m×k`, `B` is `k×n`, `C` is `m×n`.
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub fn matmul_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    dispatch::<ACC>(a, b, n, c, m, k, n);
}

/// `C = A @ B`, shapes as in [`matmul_nn`]: every output is the
/// zero-seeded ascending fold `C += A @ B` leaves in a zeroed `C`, and the
/// old contents of `C` are not read.
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub fn matmul_nn_set(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    dispatch::<SET>(a, b, n, c, m, k, n);
}

/// Whether `Aᵀ·B` (`A` stored `k×m`, `B` `k×n`) is cheaper as
/// `Cᵀ = Bᵀ·A` than through a packed `Aᵀ` (see the module doc).
fn tn_transposes_output(m: usize, k: usize, n: usize) -> bool {
    n * k + 2 * m * n + n * m * k / 32 < m * k
}

/// `Aᵀ·B` as `Cᵀ = Bᵀ·A`, lanes over the contiguous `m` axis of the stored
/// `A` (the first `m` columns of `k` rows, `lda` floats apart): `Bᵀ` and —
/// unless the product overwrites — `Cᵀ` are transposed in, `Cᵀ` is
/// transposed back out.
#[allow(clippy::too_many_arguments)]
fn tn_by_transposed_output<const SEED: u8>(
    (a, lda): (&[f32], usize),
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let (mut bt, mut ct) = (workspace::take(n * k), workspace::take(n * m));
    transpose(b, ldb, k, n, &mut bt[..n * k]);
    if SEED != SET {
        transpose(c, n, m, n, &mut ct[..n * m]);
    }
    dispatch::<SEED>(&bt[..n * k], a, lda, &mut ct[..n * m], n, k, m);
    transpose(&ct[..n * m], m, n, m, c);
    workspace::give(bt);
    workspace::give(ct);
}

/// `C += Aᵀ @ B` where `A` is `k×m`, `B` is `k×n`, `C` is `m×n`.
///
/// Packs `Aᵀ` row-major (a cache-blocked transpose; reading `A` in place
/// would stride the inner loop by `m`, one cache line per 4 floats) and
/// runs the `nn` kernel on it, unless `Cᵀ += Bᵀ·A` is cheaper
/// (`n·k + 2·m·n + n·m·k/32 < m·k`; see the module doc). Neither layout
/// touches the per-output fold order: the bitwise contract is `matmul_nn`'s.
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub fn matmul_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    tn::<ACC>(a, b, c, m, k, n);
}

/// `C = Aᵀ @ B`, shapes as in [`matmul_tn`]: the bits [`matmul_tn`] leaves
/// in a zeroed `C`, whose old contents are not read.
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub(crate) fn matmul_tn_set(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    tn::<SET>(a, b, c, m, k, n);
}

/// `Aᵀ @ B` onto `C`, each output starting and ending as `SEED` says.
fn tn<const SEED: u8>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    tn_strip::<SEED>((a, m), b, c, m, k, n);
}

/// [`tn`] for the output rows that are the first `m` columns of `A` (`k`
/// rows, `lda` floats apart): a strip of a wider product, laid out by its
/// own shape.
fn tn_strip<const SEED: u8>(
    (a, lda): (&[f32], usize),
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if tn_transposes_output(m, k, n) {
        tn_by_transposed_output::<SEED>((a, lda), b, n, c, m, k, n);
    } else {
        // Pack and multiply a strip of output rows at a time: the kernel
        // reads the strip while it is still in cache, and the workspace
        // never holds an `m·k` copy of the weights.
        let rows = (PACK / k.max(1)).clamp(MR, m.max(MR)) / MR * MR;
        let mut at = workspace::take(rows * k);
        for (strip, c_rows) in c.chunks_mut((rows * n).max(1)).enumerate() {
            let r = c_rows.len() / n.max(1);
            transpose(&a[strip * rows..], lda, k, r, &mut at[..r * k]);
            dispatch::<SEED>(&at[..r * k], b, n, c_rows, r, k, n);
        }
        workspace::give(at);
    }
}

/// Runs `strip(first_row, rows, c_rows)` over the `m` output rows of `C`
/// (`n` floats each) split in two at half of them, rounded down to whole
/// row blocks: the upper strip forked to [`pop_exec::join`]'s helper, the
/// lower on the caller — or the whole of `C` on the caller below two row
/// blocks. Rows are independent outputs, so the bits are the unsplit
/// product's whoever runs which strip.
fn forked_rows(c: &mut [f32], m: usize, n: usize, strip: impl Fn(usize, usize, &mut [f32]) + Sync) {
    let mid = m / 2 / MR * MR;
    if mid == 0 {
        return strip(0, m, c);
    }
    let (c_lo, c_hi) = c.split_at_mut(mid * n);
    pop_exec::join(|| strip(mid, m - mid, c_hi), || strip(0, mid, c_lo));
}

/// [`matmul_nn_set`] with its output rows split across
/// [`pop_exec::join`]'s helper (see [`forked_rows`]).
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub(crate) fn matmul_nn_set_forked(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    forked_rows(c, m, n, |first, rows, c| {
        let a = &a[first * k..(first + rows) * k];
        dispatch::<SET>(a, b, n, c, rows, k, n);
    });
}

/// [`matmul_tn_set`] with its output rows split across
/// [`pop_exec::join`]'s helper (see [`forked_rows`]).
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub(crate) fn matmul_tn_set_forked(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    forked_rows(c, m, n, |first, rows, c| {
        tn_strip::<SET>((&a[first..], m), b, c, rows, k, n)
    });
}

/// An `A` (stored `k×m`) that is multiplied as `Aᵀ` many times — the
/// weights of a transposed convolution at inference. [`matmul_tn`] lays
/// `A` out per call; this keeps `A` as stored for the `Cᵀ = Bᵀ·A` form and
/// packs `Aᵀ` the first time a product is wide enough to want it, so a
/// product moves only `B` and `C`. Which form a width takes is
/// [`matmul_tn`]'s rule, and so are the bits.
#[derive(Debug)]
pub struct TnWeights {
    stored: Vec<f32>,
    packed: OnceLock<Vec<f32>>,
    m: usize,
    k: usize,
}

impl TnWeights {
    /// Copies `a` (`k×m`, row-major).
    ///
    /// # Panics
    ///
    /// Panics when `a` is not `k·m` long.
    pub fn new(a: &[f32], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), k * m, "A size");
        TnWeights {
            stored: a.to_vec(),
            packed: OnceLock::new(),
            m,
            k,
        }
    }

    /// `C = Aᵀ @ B` where `B` is `k×n` with rows `ldb` floats apart (a
    /// column block of a wider matrix) and `C` is `m×n`, dense: the bits
    /// [`matmul_tn`] leaves in a zeroed `C`. The old contents of `C` are
    /// not read.
    ///
    /// # Panics
    ///
    /// Panics when `ldb < n`, when `b` ends before the last row's `n`
    /// columns, or when `c` is not `m·n` long.
    pub fn product(&self, b: &[f32], ldb: usize, c: &mut [f32], n: usize) {
        let (m, k) = (self.m, self.k);
        assert!(ldb >= n, "B row stride");
        assert!(k == 0 || b.len() >= (k - 1) * ldb + n, "B size");
        assert_eq!(c.len(), m * n, "C size");
        if tn_transposes_output(m, k, n) {
            tn_by_transposed_output::<SET>((&self.stored, m), b, ldb, c, m, k, n);
        } else {
            let packed = self.packed.get_or_init(|| {
                let mut at = vec![0.0; m * k];
                transpose(&self.stored, m, k, m, &mut at);
                at
            });
            dispatch::<SET>(packed, b, ldb, c, m, k, n);
        }
    }
}

/// `C += A @ Bᵀ` where `A` is `m×k`, `B` is `n×k`, `C` is `m×n`.
///
/// Backward-only (weight gradients): every output is a zero-seeded dot
/// folded in ascending `k`, then one add onto `C` — through a packed `Bᵀ`,
/// or as `T = B·Aᵀ` added onto `C` transposed where that moves fewer
/// elements (see the module doc).
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub fn matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if nt_transposes_output(m, k, n) {
        let (mut at, mut t) = (workspace::take(k * m), workspace::take(n * m));
        transpose(a, k, m, k, &mut at[..k * m]);
        dispatch::<SET>(b, &at[..k * m], m, &mut t[..n * m], n, k, m);
        for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
            for (cv, tv) in c_row.iter_mut().zip(t[i..].iter().step_by(m)) {
                *cv += tv;
            }
        }
        workspace::give(at);
        workspace::give(t);
    } else {
        let mut bt = workspace::take(k * n);
        transpose(b, k, n, k, &mut bt[..k * n]);
        dispatch::<DOT>(a, &bt[..k * n], n, c, m, k, n);
        workspace::give(bt);
    }
}

/// Whether `A·Bᵀ` (`A` `m×k`, `B` `n×k`) moves fewer elements as `T = B·Aᵀ`
/// added onto `C` transposed than through a packed `Bᵀ`.
fn nt_transposes_output(m: usize, k: usize, n: usize) -> bool {
    m * k + 2 * m * n < n * k
}

/// Runs the kernel in the widest instantiation this CPU supports on `A`
/// (`m×k`, dense), `B` (`k×n`, rows `ldb` apart) and `C` (`m×n`, dense),
/// each output starting and ending as `SEED` says.
#[allow(clippy::too_many_arguments)]
fn dispatch<const SEED: u8>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `kernel_avx2` is safe code compiled for AVX2; its only
        // requirement is that the CPU supports AVX2, which the runtime
        // check on the line above has just established.
        return unsafe { kernel_avx2::<SEED>(a, b, ldb, c, m, k, n) };
    }
    // The compilation target's baseline feature set.
    nn::<NR_BASE, SEED>(a, b, ldb, c, m, k, n);
}

/// The same kernel with 256-bit registers and the panel to match;
/// callable (through `unsafe`) only once the CPU is known to support AVX2.
/// `fma` is deliberately not enabled: multiply and add stay two roundings,
/// as in the baseline.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn kernel_avx2<const SEED: u8>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nn::<NR_AVX2, SEED>(a, b, ldb, c, m, k, n);
}

/// `dst` (`cols×rows`) = the first `cols` columns of `src` (`rows` rows,
/// `ld` floats apart) transposed, in 32×32 blocks so each source cache
/// line is touched once.
fn transpose(src: &[f32], ld: usize, rows: usize, cols: usize, dst: &mut [f32]) {
    const TB: usize = 32;
    for c0 in (0..cols).step_by(TB) {
        let c1 = (c0 + TB).min(cols);
        for r0 in (0..rows).step_by(TB) {
            let r1 = (r0 + TB).min(rows);
            for c in c0..c1 {
                for r in r0..r1 {
                    dst[c * rows + r] = src[r * ld + c];
                }
            }
        }
    }
}

/// The kernel's column loop: full panels in cache-sized tiles, then the
/// zero-padded tail in the narrowest panel that holds it. This and
/// everything it calls is `#[inline(always)]` so that each caller —
/// `dispatch` at the baseline, `kernel_avx2` — compiles its own copy under
/// its own target features and panel width.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nn<const NR: usize, const SEED: u8>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let full = n - n % NR;
    // The B panel (k rows) is re-streamed for every 4-row block; tile it.
    let tile = col_tile(k, NR);
    let mut j0 = 0;
    while j0 < full {
        let j1 = (j0 + tile).min(full);
        row_blocks::<NR, SEED>(a, b, ldb, c, n, m, k, j0, j1);
        j0 = j1;
    }
    match n - full {
        0 => {}
        1..=4 => padded_tail::<4, SEED>(a, b, ldb, c, m, k, n, full),
        5..=8 if NR > 8 => padded_tail::<8, SEED>(a, b, ldb, c, m, k, n, full),
        _ => padded_tail::<NR, SEED>(a, b, ldb, c, m, k, n, full),
    }
}

/// The columns of `B` and `C` from `full` on — at most `W` — through one
/// zero-padded `W`-lane panel each (an overwriting product reads nothing
/// of C, so copies nothing in).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn padded_tail<const W: usize, const SEED: u8>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    full: usize,
) {
    let tail = n - full;
    let (mut bp, mut cp) = (workspace::take(k * W), workspace::take(m * W));
    for (kk, dst) in bp[..k * W].chunks_exact_mut(W).enumerate() {
        dst[..tail].copy_from_slice(&b[kk * ldb + full..][..tail]);
        dst[tail..].fill(0.0);
    }
    if SEED != SET {
        for (dst, src) in cp.chunks_exact_mut(W).zip(c.chunks_exact(n)) {
            dst[..tail].copy_from_slice(&src[full..]);
            dst[tail..].fill(0.0);
        }
    }
    row_blocks::<W, SEED>(a, &bp[..k * W], W, &mut cp[..m * W], W, m, k, 0, W);
    for (src, dst) in cp.chunks_exact(W).zip(c.chunks_exact_mut(n)) {
        dst[full..].copy_from_slice(&src[..tail]);
    }
    workspace::give(bp);
    workspace::give(cp);
}

/// Runs the panel kernel over every row of `A` (`m×k`) for the column
/// span `[j0, j1)` — a whole number of panels — of `B` and `C`, whose rows
/// are `ldb` and `ldc` floats apart.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_blocks<const NR: usize, const SEED: u8>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    j0: usize,
    j1: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        let rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        block_rows::<MR, NR, SEED>(&rows, b, ldb, c, ldc, i, j0, j1);
        i += MR;
    }
    while i < m {
        let rows = [&a[i * k..(i + 1) * k]];
        block_rows::<1, NR, SEED>(&rows, b, ldb, c, ldc, i, j0, j1);
        i += 1;
    }
}

/// The register-block kernel: `rows` holds R row slices of `A` (each of
/// length `k`) for output rows `i0..i0+R`; accumulates the `[j0, j1)`
/// column span of `C` one `NR`-wide register panel at a time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_rows<const R: usize, const NR: usize, const SEED: u8>(
    rows: &[&[f32]; R],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    j1: usize,
) {
    debug_assert_eq!((j1 - j0) % NR, 0, "whole panels only");
    let mut j = j0;
    while j < j1 {
        // Seed the register block so each output's accumulation chain is
        // exactly the scalar kernel's: from C (`c += a·b` in ascending k),
        // or from zero with C added (`nt`) or overwritten at the end.
        let mut acc = [[0.0f32; NR]; R];
        if SEED == ACC {
            for (r, accr) in acc.iter_mut().enumerate() {
                accr.copy_from_slice(&c[(i0 + r) * ldc + j..(i0 + r) * ldc + j + NR]);
            }
        }
        for kk in 0..rows[0].len() {
            let bp: &[f32; NR] = b[kk * ldb + j..kk * ldb + j + NR]
                .try_into()
                .expect("panel width");
            for (accr, row) in acc.iter_mut().zip(rows) {
                let av = row[kk];
                for l in 0..NR {
                    accr[l] += av * bp[l];
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let out = &mut c[(i0 + r) * ldc + j..(i0 + r) * ldc + j + NR];
            if SEED == DOT {
                for (cv, av) in out.iter_mut().zip(accr) {
                    *cv += av;
                }
            } else {
                out.copy_from_slice(accr);
            }
        }
        j += NR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; a.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = a[r * cols + c];
            }
        }
        t
    }

    fn randmat(len: usize, seed: u64) -> Vec<f32> {
        // Small deterministic pseudo-random values.
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 33) as f32 / 2.0_f32.powi(31)) - 1.0
            })
            .collect()
    }

    #[test]
    fn nn_matches_naive() {
        let (m, k, n) = (5, 7, 3);
        let a = randmat(m * k, 1);
        let b = randmat(k * n, 2);
        let mut c = vec![0.0; m * n];
        matmul_nn(&a, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn nt_matches_naive() {
        let (m, k, n) = (4, 6, 5);
        let a = randmat(m * k, 3);
        let bt = randmat(n * k, 4); // B stored as n×k
        let b = transpose(&bt, n, k); // k×n
        let mut c = vec![0.0; m * n];
        matmul_nt(&a, &bt, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn tn_matches_naive() {
        let (m, k, n) = (3, 8, 4);
        let at = randmat(k * m, 5); // A stored as k×m
        let a = transpose(&at, k, m); // m×k
        let b = randmat(k * n, 6);
        let mut c = vec![0.0; m * n];
        matmul_tn(&at, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// Shapes spanning the register-block boundaries: full 4×NR blocks,
    /// row tails, column tails, and single-row/column degenerates must all
    /// be **bitwise** equal to the naive triple loop (same per-element
    /// fold order), not merely close.
    #[test]
    fn nn_is_bitwise_identical_to_naive_across_tails() {
        for &(m, k, n) in &[
            (4, 5, 8),
            (4, 5, 16),
            (5, 3, 9),
            (7, 11, 23),
            (1, 1, 1),
            (8, 2, 7),
            (9, 13, 40),
        ] {
            let a = randmat(m * k, 7);
            let b = randmat(k * n, 8);
            let mut c = vec![0.0; m * n];
            matmul_nn(&a, &b, &mut c, m, k, n);
            let want = naive(&a, &b, m, k, n);
            assert_eq!(
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shape ({m},{k},{n})"
            );
        }
    }

    /// Runs the baseline and the AVX2 instantiation on the same operands.
    #[cfg(target_arch = "x86_64")]
    fn compare<const SEED: u8>(a: &[f32], b: &[f32], c0: &[f32], m: usize, k: usize, n: usize) {
        let mut base = c0.to_vec();
        nn::<NR_BASE, SEED>(a, b, n, &mut base, m, k, n);
        let mut wide = c0.to_vec();
        // SAFETY: the caller has checked that this CPU supports AVX2.
        unsafe { kernel_avx2::<SEED>(a, b, n, &mut wide, m, k, n) };
        assert_eq!(
            base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            wide.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "seed {SEED} shape ({m},{k},{n})"
        );
    }

    /// The baseline (8-lane panel) and the AVX2 instantiation (16-lane) are
    /// one source: on a host with AVX2 (where `dispatch` would otherwise
    /// never run the baseline) both must produce the same bits for every
    /// seed, on widths either side of each panel and between the two, and
    /// on every narrow tail (a 4-lane panel up to 4 columns, an 8-lane one
    /// up to 8) after zero, one and two full panels of either width.
    #[test]
    fn instantiations_are_bitwise_identical() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let narrow_tails = (1..=8)
                .chain(
                    [1, 2]
                        .iter()
                        .flat_map(|q| [16 * q + 1, 16 * q + 4, 16 * q + 8]),
                )
                .chain([1, 2].iter().flat_map(|q| [8 * q + 1, 8 * q + 4]))
                .map(|n| (6, 9, n));
            for &(m, k, n) in [
                (4, 5, 8),
                (4, 5, 8),
                (7, 11, 23),
                (1, 1, 1),
                (3, 9, 5),
                (96, 64, 4),
                (48, 7, 1),
                (13, 1, 29),
                (9, 13, 40),
                (33, 17, 7),
                (5, 6, 9),
                (4, 7, 15),
                (6, 5, 17),
                (7, 3, 31),
            ]
            .iter()
            .chain(&narrow_tails.collect::<Vec<_>>())
            {
                let a = randmat(m * k, 9);
                let b = randmat(k * n, 10);
                let c0 = randmat(m * n, 11);
                compare::<ACC>(&a, &b, &c0, m, k, n);
                compare::<DOT>(&a, &b, &c0, m, k, n);
                compare::<SET>(&a, &b, &c0, m, k, n);
            }
            println!("linalg: baseline and avx2 instantiations compared bit for bit");
            return;
        }
        println!("linalg: SKIPPED instantiation comparison — this CPU has no AVX2");
    }

    /// From a `C` full of NaN, the overwriting `tn` leaves the bits
    /// `matmul_tn` leaves in a zeroed one, in both of its layouts.
    #[test]
    fn tn_set_is_tn_into_zeros() {
        let shapes = [(96, 24, 7), (96, 24, 8), (3, 8, 4), (48, 7, 1), (5, 6, 40)];
        for &(m, k, n) in &shapes {
            let at = randmat(k * m, 12);
            let b = randmat(k * n, 13);
            let mut want = vec![0.0; m * n];
            matmul_tn(&at, &b, &mut want, m, k, n);
            let mut got = vec![f32::NAN; m * n];
            matmul_tn_set(&at, &b, &mut got, m, k, n);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shape ({m},{k},{n})"
            );
        }
        let layouts = shapes.map(|(m, k, n)| tn_transposes_output(m, k, n));
        assert!(layouts.contains(&true) && layouts.contains(&false));
    }

    /// The forked overwriting products split their output rows at a whole
    /// row block (none below 8 rows, 4 | 4 at 8, 4 | 8 at 12, 48 | 48 at
    /// 96) and leave the unsplit products' bits — `tn` in both of its
    /// layouts — forked wherever the helper is free and with every join
    /// inline.
    #[test]
    fn forked_products_are_the_unsplit_products() {
        for m in [1, 4, 8, 12, 96] {
            for (k, n) in [(24, 7), (24, 100), (5, 1), (300, 4)] {
                let (a, b) = (randmat(m * k, 14), randmat(k * n, 15));
                let mut want = (vec![0.0; m * n], vec![0.0; m * n]);
                matmul_nn_set(&a, &b, &mut want.0, m, k, n);
                matmul_tn_set(&a, &b, &mut want.1, m, k, n);
                let run = || {
                    let mut got = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
                    matmul_nn_set_forked(&a, &b, &mut got.0, m, k, n);
                    matmul_tn_set_forked(&a, &b, &mut got.1, m, k, n);
                    got
                };
                let ((), inline) = pop_exec::join(|| (), run);
                for (way, got) in [("forked", run()), ("inline", inline)] {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.0), bits(&want.0), "{way} nn ({m},{k},{n})");
                    assert_eq!(bits(&got.1), bits(&want.1), "{way} tn ({m},{k},{n})");
                }
            }
        }
    }

    #[test]
    fn accumulates_into_c() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        matmul_nn(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "A size")]
    fn size_checks() {
        let mut c = vec![0.0; 4];
        matmul_nn(&[1.0; 3], &[1.0; 4], &mut c, 2, 2, 2);
    }
}
