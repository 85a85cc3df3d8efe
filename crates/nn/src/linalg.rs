//! Minimal dense matrix kernels used by the convolution layers.
//!
//! Row-major `f32` matrices as flat slices, shaped for the autovectorizer:
//! one register-block kernel (`block_rows`: a block of rows × one **column
//! panel** of independent accumulators, two vector registers wide) serves
//! `nn`, `tn` and `nt`, so the innermost loop is always a fixed-width
//! bundle of independent multiply-then-adds over contiguous `B` memory —
//! the exact shape LLVM provably lowers to SIMD without intrinsics.
//!
//! **The register block, per instantiation.** The panel width `NR` and the
//! block height `MB` are const parameters of the kernel source: 4 rows ×
//! 8 lanes at the baseline (two `xmm` per row), 4 × 16 under AVX2 (two
//! `ymm`), 12 × 32 under AVX-512F (two `zmm`: 24 accumulators, 2 `B`
//! vectors and 1 broadcast, 27 of the 32 registers). Rows left over below
//! a block run through the 4-row block and then one at a time; the
//! in-place 16-lane step and the padded tails use the same heights. With
//! one register per row a 4-row block had four accumulator chains, and
//! the loop ran at the latency of four dependent adds, not at the multiply
//! and add ports: a standalone copy of the kernel over the quick model's
//! twelve forward GEMMs at batch 5 (AVX2 host, µs per image, every variant
//! bit-equal to 4 × 8) read 969 at 4 × 8, **815 at 4 × 16**, 818 at
//! 4 × 24, 892 at 3 × 16, 1 133 at 6 × 16, 1 046 at 6 × 8 and 1 405 at
//! 8 × 8 (the wider blocks spill the 16 `ymm`). On a 2-vCPU AVX-512F host
//! the same twelve GEMMs through `matmul_nn` / `matmul_tn` read 1 356 for
//! the AVX2 build, 1 096 for 4 × 16 compiled for AVX-512F and 944 for
//! 4 × 32 — but 2 128 when a tail of 9–31 columns was padded into a
//! 32-lane panel, which is what an earlier sweep had measured as "4 × 32"
//! (2 623) and why the 32-lane build once looked worse than 4 × 16. A
//! 4 × 32 block leaves 24 of the 32 `zmm` idle. Over the same twelve
//! GEMMs (min of 20 rounds alternating the three heights in one probe,
//! five runs each, on a host whose speed moved between runs) 4 × 32 read
//! 502–815 µs per image at batch 5, 8 × 32 468–731 and **12 × 32
//! 472–688**; at batch 8, `explore`'s full batches, 809–817, 723–735 and
//! **688–700** — 12 × 32 the lowest in every run but one. Whole 32-lane
//! panels gain most (batch 8, against the 4 × 32 kernel this replaced:
//! `enc3` 96×768×128 1.28–1.29×), but so do the narrow ones: 12 rows of one
//! register still give the multiplies and adds twelve independent chains
//! to interleave where 4 gave four (96×1536 against 4 columns, one
//! padded 4-lane panel: 66 → 52 µs; 20 columns: 139 → 114).
//!
//! **Rows are unrolled by hand.** The accumulator block stays in
//! registers only if every row of it is named by a constant, so the row
//! loops are the `each_row!` macro's straight-line code. Left to LLVM's
//! unroller, whether a row loop unrolled depended on the block's size and
//! on the code around each inlined copy: a rolled one kept the block in
//! stack memory with a scalar multiply, add and store per lane, ten times
//! slower — the padded 32-lane panel that kept the AVX-512F build out, the
//! `DOT` seed's padded 16-lane panel in both wide builds (kernels bench
//! `dot_tail`), and, while trying the 12-row block, the 12 × 8 and 12 × 16
//! tails. In a 32-lane panel each row's step ends at an opaque point
//! (`black_box(())`, no instruction): without it LLVM's scheduler loads
//! all twelve broadcasts before the first row's products, and 24
//! accumulators + 2 `B` vectors + 12 broadcasts spill the 32 `zmm`. The
//! narrower panels go without it: there it cost more than the spills it
//! saves (96×1536 against 4 columns: 52 µs without, 68 with).
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
//! * **Column tails** (`n mod NR` columns), by one rule (`columns`).
//!   Under the 32-lane build a tail of 16–31 columns first runs 16 of them
//!   in place through the 16-lane block. What is left is copied once per
//!   call into zero-padded `k×W` / `m×W` scratch, run through the same
//!   register block at width `W`, and the real lanes copied back. `W` is
//!   the narrowest of 4, 8 and 16 that holds it — never 32: the U-Net's
//!   1×1 and 2×2 levels multiply with `n = 1` or `4`, where a wide panel
//!   would spend most of its lanes on padding, and a padded 32-lane panel
//!   is about ten times slower than the same columns in narrower panels
//!   (batch-5 `enc4`, 96×1536×20: 2 221 µs against 163, measured when the
//!   row loop was still LLVM's to unroll and left that copy rolled; see
//!   above). Lanes are independent outputs: the padding lanes compute `0 + a·0 + …` and are
//!   dropped, the real lanes see the same seed and the same products in
//!   the same order as in a full panel, whatever its width.
//! * **`tn` picks its layout by element count.** `A` arrives transposed,
//!   so something is transposed per call: either `Aᵀ` is packed (`m·k`
//!   elements moved, a strip of rows at a time) or the product is computed
//!   as `Cᵀ += Bᵀ·A`, lanes over the contiguous `m` axis of `A` (`n·k` for
//!   `Bᵀ` plus `2·m·n` for `Cᵀ`, seeded from and written back to `C`). The
//!   second form also streams all of `A` once per row block of `Bᵀ` where
//!   the pack reads it once, and a streamed element measures about an
//!   eighth of a transposed one: `n·m·k/32` more. `matmul_tn` takes the
//!   cheaper count — the transposed output for the deconvolutions' big
//!   weight matrices against up to ~20 columns, the pack beyond. Each
//!   output still folds `k` in ascending order from its `C` seed, and
//!   `b·a` rounds exactly like `a·b`, so the choice cannot change a bit.
//!   [`TnWeights`] is the same rule for an `A` that outlives the call
//!   (inference weights): the pack happens once, not per product.
//! * **The transposed output runs `k` in blocks of `KC` = 32 rows.** Its
//!   kernel reads rows of `A` that lie `lda` floats apart — at `dec1`, 192
//!   rows 6 KiB apart, each on its own page. Walking all `k` of them for
//!   every 32-lane panel, no prefetcher saw a stream and a cold `A` missed
//!   on every line: 4–11 GF/s at batch 1, where the batch-8 GEMMs ran at
//!   60–70. Now `Bᵀ` is transposed a block at a time (`n·KC` of scratch),
//!   the first block runs with the product's seed (`SET` or `ACC`) and
//!   every later one with `ACC` on the partial `Cᵀ`. Storing and reloading
//!   an `f32` is exact, so each output still folds its `k` products in
//!   ascending order from the same seed. Within a block the panels revisit
//!   the same 32 rows, so each block of `A` streams from memory once. A
//!   probe linking both forms into one binary (2-vCPU AVX-512F host, 2 MiB
//!   L2 per core; `A` cycled over 8 MiB of copies, min of 30 alternating
//!   rounds) read, whole-`k` → blocked: batch-1 `dec1` 1536×192×4 343 →
//!   109 µs, `dec2` 768×192×16 324 → 145, batch-5 `dec1` 1536×192×20 862 →
//!   305, and the training input gradients `enc3` 768×96×16 123 → 78,
//!   `enc4` 1536×96×4 159 → 55, `enc5` 1536×96×1 104 → 41. Block sizes 8 /
//!   16 / 32 / 64 / 128 / whole read 109 / 103 / 112 / 136 / 260 / 303 µs
//!   at batch-1 `dec1`, 189 / 164 / 142 / 136 / 241 / 305 at `dec2` and
//!   101 / 88 / 76 / 78 / 96 / 101 at `enc3`: 16–64 are one plateau. The
//!   serving model's 64–128 KiB deconvolution weights, warm in L2, read
//!   the same either way (512×64×4: 7.6 whole, 7.8 blocked).
//!
//!   The layout rule's `n·m·k/32` was fitted against the whole-`k` stream,
//!   so the crossover was swept again with the blocked form and each
//!   layout forced (same probe, µs transposed / packed): `dec1` at n = 20
//!   297 / 495, 24 317 / 547, 28 394 / 509, 32 448 / 405; `dec2` at n = 16
//!   139 / 153, 24 176 / 249, 32 224 / 199; the training `dec3` forward
//!   (384×96, `Aᵀ` packed per call) at n = 32 68 / 82, 64 117 / 121;
//!   `enc2`'s input gradient (384×48) at n = 16 24 / 35, 64 74 / 61. The
//!   pack wins wherever `n` fills whole panels (32, 64) and the transposed
//!   output between them, which no constant in this count can follow: a
//!   `/48` term would buy `dec1` at 24–28 columns (batch 6–7, rare) but
//!   also flip the serving model's `dec1` (256×64×16, warm), where the
//!   transposed output reads 13.2 µs against the pack's 7.9. So the rule
//!   is unchanged; it only picks a layout, and bits hold either way.
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
//! **One source, three instantiations.** The kernel (column loop, tail
//! rule and register block) is `#[inline(always)]` generic code compiled
//! three times: at the target's baseline, and on x86-64 inside a
//! `#[target_feature(enable = "avx2")]` and a
//! `#[target_feature(enable = "avx512f")]` wrapper, the widest the CPU
//! supports picked per call by `is_x86_feature_detected!`. The wider
//! builds only widen the registers (and with them the panel and, under
//! AVX-512F, the block — outputs stay independent lanes and rows). AVX2 is compiled without `fma`; rustc's `avx512f`
//! implies `fma`, so that build may use it — but Rust never contracts
//! `a * b + c` into a fused multiply-add, so both wide builds issue
//! `vmulps` then `vaddps`, each rounding once like the scalar
//! `mulss`/`addss` (their disassembly has no `vfmadd`). That is the whole
//! guarantee, and the unit tests pin it: each wide instantiation runs
//! against the baseline, bit for bit. Other targets compile the baseline
//! only; the layout steps above (transposes) are plain code outside the
//! kernel. The `tanh` kernel ([`tanh_in_place`](crate::tanh_in_place)) is
//! instantiated the same three ways, behind its own check.
//!
//! `matmul_nn` / `matmul_tn` additionally tile over columns so the
//! re-streamed `B` panel stays cache-resident when `n` is large — the
//! regime batched inference creates by widening `n` to `batch · ho · wo`.
//!
//! **Forked rows.** Training's overwriting products can also split their
//! output rows in two at a multiple of the running instantiation's row
//! block (of 4 rows where fewer than two blocks fit) and hand one strip to
//! [`pop_exec::join`]'s helper (`matmul_nn_set_forked`,
//! `matmul_tn_set_forked`). Rows are independent outputs, so the bits are
//! the unsplit product's whoever runs which strip; inference never forks.

use crate::workspace;
use std::sync::OnceLock;

/// Column-panel width at the target's baseline: 8 f32 lanes, two SSE
/// registers per accumulator row.
const NR_BASE: usize = 8;
/// Row-block height at the baseline: 4 rows × 2 of the 16 `xmm` registers.
const MR_BASE: usize = 4;
/// Column-panel width under AVX2: 16 lanes, two 256-bit registers per row.
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 16;
/// Row-block height under AVX2: 4 rows × 2 of the 16 `ymm` registers.
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 4;
/// Column-panel width under AVX-512F: 32 lanes, two 512-bit registers per
/// row.
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 32;
/// Row-block height under AVX-512F: 12 rows × 2 of the 32 `zmm`
/// registers, plus two for the `B` panel and one broadcast.
#[cfg(target_arch = "x86_64")]
const MR_AVX512: usize = 12;
/// The short row block every instantiation runs leftover rows through
/// (then single rows): 4 rows amortise each `B` panel load across 4
/// outputs.
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

/// Rows of `A` per block of the transposed-output form (see the module
/// doc): the column panels of a block revisit the same `KC` rows, so each
/// block of `A` streams from memory once.
const KC: usize = 32;

/// `Aᵀ·B` as `Cᵀ = Bᵀ·A`, lanes over the contiguous `m` axis of the stored
/// `A` (the first `m` columns of `k` rows, `lda` floats apart), `KC` rows of
/// `A` at a time: `Bᵀ` is transposed in a block at a time and — unless the
/// product overwrites — `Cᵀ` once, and `Cᵀ` is transposed back out. The
/// first block starts each output as `SEED` says and every later one goes
/// on from the partial sum stored in `Cᵀ`, so each output still folds its
/// `k` products in ascending order.
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
    const { assert!(SEED != DOT, "a DOT chain cannot resume from a stored sum") };
    let (mut bt, mut ct) = (workspace::take(n * KC.min(k)), workspace::take(n * m));
    let ct_dense = &mut ct[..n * m];
    if SEED != SET {
        transpose(c, n, m, n, ct_dense);
    }
    // `k = 0` still runs one (empty) block, so that `SET` writes its zeros.
    for k0 in (0..k.max(1)).step_by(KC) {
        let kc = KC.min(k - k0);
        let bt = &mut bt[..n * kc];
        transpose(&b[k0 * ldb..], ldb, kc, n, bt);
        let a = &a[k0 * lda..];
        if k0 == 0 {
            dispatch::<SEED>(bt, a, lda, ct_dense, n, kc, m);
        } else {
            dispatch::<ACC>(bt, a, lda, ct_dense, n, kc, m);
        }
    }
    transpose(ct_dense, m, n, m, c);
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
pub fn matmul_tn_set(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
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
    if k == 0 {
        // No products: each output is its seed, and `A` has no strips.
        if SEED == SET {
            c.fill(0.0);
        }
    } else if tn_transposes_output(m, k, n) {
        tn_by_transposed_output::<SEED>((a, lda), b, n, c, m, k, n);
    } else {
        // Pack and multiply a strip of output rows at a time: the kernel
        // reads the strip while it is still in cache, and the workspace
        // never holds an `m·k` copy of the weights.
        let mb = block_height();
        let rows = (PACK / k.max(1)).clamp(mb, m.max(mb)) / mb * mb;
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
/// row blocks of the running instantiation — or to whole 4-row blocks where
/// `m` holds fewer than two of those: the upper strip forked to
/// [`pop_exec::join`]'s helper, the lower on the caller — or the whole of
/// `C` on the caller below two 4-row blocks. Rows are independent outputs,
/// so the bits are the unsplit product's whoever runs which strip.
fn forked_rows(c: &mut [f32], m: usize, n: usize, strip: impl Fn(usize, usize, &mut [f32]) + Sync) {
    let Some(mid) = split_row(m, block_height()) else {
        return strip(0, m, c);
    };
    let (c_lo, c_hi) = c.split_at_mut(mid * n);
    pop_exec::join(|| strip(mid, m - mid, c_hi), || strip(0, mid, c_lo));
}

/// Where [`forked_rows`] splits `m` rows under row blocks of `mb`: half of
/// them rounded down to whole `mb`-row blocks, else to whole 4-row blocks,
/// else nowhere.
fn split_row(m: usize, mb: usize) -> Option<usize> {
    [mb, MR]
        .into_iter()
        .map(|b| m / 2 / b * b)
        .find(|&mid| mid > 0)
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
        // At `k = 0` `A` is empty and a strip's first column is nowhere.
        let a = &a[first.min(a.len())..];
        tn_strip::<SET>((a, m), b, c, rows, k, n)
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

    /// The same weights for output rows `rows` alone, in that order: a
    /// product of the result is rows `rows` of this one's, bit for bit
    /// (each output row is its own fold over `k`).
    pub(crate) fn rows(&self, rows: &[usize]) -> TnWeights {
        let stored = (self.stored.chunks_exact(self.m))
            .flat_map(|a_row| rows.iter().map(|&r| a_row[r]))
            .collect();
        TnWeights {
            stored,
            packed: OnceLock::new(),
            m: rows.len(),
            k: self.k,
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
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: `kernel_avx512` is safe code compiled for AVX-512F; its
        // only requirement is that the CPU supports AVX-512F, which the
        // runtime check on the line above has just established.
        return unsafe { kernel_avx512::<SEED>(a, b, ldb, c, m, k, n) };
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `kernel_avx2` is safe code compiled for AVX2; its only
        // requirement is that the CPU supports AVX2, which the runtime
        // check on the line above has just established.
        return unsafe { kernel_avx2::<SEED>(a, b, ldb, c, m, k, n) };
    }
    // The compilation target's baseline feature set.
    nn::<NR_BASE, MR_BASE, SEED>(a, b, ldb, c, m, k, n);
}

/// The row-block height of the instantiation [`dispatch`] picks on this
/// CPU.
fn block_height() -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return MR_AVX512;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return MR_AVX2;
    }
    MR_BASE
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
    nn::<NR_AVX2, MR_AVX2, SEED>(a, b, ldb, c, m, k, n);
}

/// The same kernel with 512-bit registers and the panel to match;
/// callable (through `unsafe`) only once the CPU is known to support
/// AVX-512F. The feature implies `fma`, but Rust never contracts
/// `a * b + c`: multiply and add stay two roundings, as in the baseline.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn kernel_avx512<const SEED: u8>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nn::<NR_AVX512, MR_AVX512, SEED>(a, b, ldb, c, m, k, n);
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

/// How the kernel covers `n` columns at panel width `nr` (the tail rule of
/// the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Columns {
    /// Columns `[0, full)`: whole `nr`-lane panels, in place.
    full: usize,
    /// Columns `[full, full + step)`: one 16-lane panel in place, where a
    /// wider panel leaves 16 or more (`step` is 0 or 16).
    step: usize,
    /// The rest, `n - full - step` columns, through one zero-padded panel
    /// this many lanes wide: 4, 8 or 16, or 0 when nothing is left.
    pad: usize,
}

/// The tail rule: full panels, then at most one in-place 16-lane panel,
/// then the narrowest of 4, 8 and 16 lanes that holds what is left — so
/// no column is padded into a panel wider than 16 lanes.
#[inline(always)]
fn columns(n: usize, nr: usize) -> Columns {
    let full = n - n % nr;
    let step = if nr > 16 && n - full >= 16 { 16 } else { 0 };
    let pad = match n - full - step {
        0 => 0,
        1..=4 => 4,
        5..=8 => 8,
        _ => 16,
    };
    Columns { full, step, pad }
}

/// The kernel's column loop: full panels in cache-sized tiles, then the
/// tail by `columns`' rule. This and everything it calls is
/// `#[inline(always)]` so that each caller — `dispatch` at the baseline,
/// `kernel_avx2`, `kernel_avx512` — compiles its own copy under its own
/// target features and panel width.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nn<const NR: usize, const MB: usize, const SEED: u8>(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let Columns { full, step, pad } = columns(n, NR);
    // The B panel (k rows) is re-streamed for every row block; tile it.
    let tile = col_tile(k, NR);
    let mut j0 = 0;
    while j0 < full {
        let j1 = (j0 + tile).min(full);
        row_blocks::<NR, MB, SEED>(a, b, ldb, c, n, m, k, j0, j1);
        j0 = j1;
    }
    // `NR > 16` is a constant: narrower builds compile no 16-lane step.
    if NR > 16 && step > 0 {
        row_blocks::<16, MB, SEED>(a, b, ldb, c, n, m, k, full, full + step);
    }
    let done = full + step;
    match pad {
        0 => {}
        4 => padded_tail::<4, MB, SEED>(a, b, ldb, c, m, k, n, done),
        8 => padded_tail::<8, MB, SEED>(a, b, ldb, c, m, k, n, done),
        _ => padded_tail::<16, MB, SEED>(a, b, ldb, c, m, k, n, done),
    }
}

/// The columns of `B` and `C` from `full` on — at most `W` — through one
/// zero-padded `W`-lane panel each (an overwriting product reads nothing
/// of C, so copies nothing in).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn padded_tail<const W: usize, const MB: usize, const SEED: u8>(
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
    row_blocks::<W, MB, SEED>(a, &bp[..k * W], W, &mut cp[..m * W], W, m, k, 0, W);
    for (src, dst) in cp.chunks_exact(W).zip(c.chunks_exact_mut(n)) {
        dst[full..].copy_from_slice(&src[..tail]);
    }
    workspace::give(bp);
    workspace::give(cp);
}

/// Runs the panel kernel over every row of `A` (`m×k`) for the column
/// span `[j0, j1)` — a whole number of panels — of `B` and `C`, whose rows
/// are `ldb` and `ldc` floats apart: `MB` rows at a time, the rows left
/// over 4 and then 1 at a time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_blocks<const NR: usize, const MB: usize, const SEED: u8>(
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
    while i + MB <= m {
        block_rows::<MB, NR, SEED>(a, k, b, ldb, c, ldc, i, j0, j1);
        i += MB;
    }
    // `MB > MR` is a constant: 4-row builds compile no second 4-row loop.
    while MB > MR && i + MR <= m {
        block_rows::<MR, NR, SEED>(a, k, b, ldb, c, ldc, i, j0, j1);
        i += MR;
    }
    while i < m {
        block_rows::<1, NR, SEED>(a, k, b, ldb, c, ldc, i, j0, j1);
        i += 1;
    }
}

/// Runs `$body` once for each row index `$r` below the block height `$rows`
/// (at most [`MR_MAX`]), as straight-line code with `$r` a constant, so
/// that every row of the accumulator block stays in registers (the module
/// doc's "Rows are unrolled by hand").
macro_rules! each_row {
    ($r:ident < $rows:expr, $body:block) => {
        each_row!(@ $r < $rows, $body, 0 1 2 3 4 5 6 7 8 9 10 11)
    };
    (@ $r:ident < $rows:expr, $body:block, $($i:literal)*) => {
        $(if $i < $rows {
            let $r: usize = $i;
            $body
        })*
    };
}

/// The tallest row block `each_row!` unrolls.
const MR_MAX: usize = 12;

/// The register-block kernel: output rows `i0..i0+R` from the same rows of
/// `A` (`k` floats each); accumulates the `[j0, j1)` column span of `C` one
/// `NR`-wide register panel at a time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_rows<const R: usize, const NR: usize, const SEED: u8>(
    a: &[f32],
    k: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    j1: usize,
) {
    const { assert!(R <= MR_MAX, "each_row unrolls at most MR_MAX rows") };
    debug_assert_eq!((j1 - j0) % NR, 0, "whole panels only");
    // Each row sliced to exactly `k`, so the `k` loop's bound is every
    // row's bound.
    let mut rows: [&[f32]; R] = [&[]; R];
    each_row!(r < R, {
        rows[r] = &a[(i0 + r) * k..][..k];
    });
    let mut j = j0;
    while j < j1 {
        // Seed the register block so each output's accumulation chain is
        // exactly the scalar kernel's: from C (`c += a·b` in ascending k),
        // or from zero with C added (`nt`) or overwritten at the end.
        let mut acc = [[0.0f32; NR]; R];
        if SEED == ACC {
            each_row!(r < R, {
                acc[r].copy_from_slice(&c[(i0 + r) * ldc + j..][..NR]);
            });
        }
        for kk in 0..k {
            let bp: &[f32; NR] = b[kk * ldb + j..][..NR].try_into().expect("panel width");
            each_row!(r < R, {
                let av = rows[r][kk];
                for l in 0..NR {
                    acc[r][l] += av * bp[l];
                }
                // An opaque point between the rows of a 32-lane panel.
                // Without it LLVM's scheduler loads all twelve broadcasts
                // before the first row's products, and 24 accumulators +
                // 2 `B` vectors + 12 broadcasts spill the 32 `zmm`. In the
                // narrower panels it costs more than it saves.
                if NR > 16 {
                    std::hint::black_box(());
                }
            });
        }
        each_row!(r < R, {
            let out = &mut c[(i0 + r) * ldc + j..][..NR];
            if SEED == DOT {
                for (cv, av) in out.iter_mut().zip(&acc[r]) {
                    *cv += av;
                }
            } else {
                out.copy_from_slice(&acc[r]);
            }
        });
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

    /// A wide instantiation of the kernel, as a function pointer.
    #[cfg(target_arch = "x86_64")]
    type Kernel = unsafe fn(&[f32], &[f32], usize, &mut [f32], usize, usize, usize);

    /// Runs the baseline and a wide instantiation on the same operands.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    fn compare<const SEED: u8>(
        wide: Kernel,
        a: &[f32],
        b: &[f32],
        c0: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut base = c0.to_vec();
        nn::<NR_BASE, MR_BASE, SEED>(a, b, n, &mut base, m, k, n);
        let mut got = c0.to_vec();
        // SAFETY: the caller has checked that this CPU supports the
        // features `wide` was compiled for.
        unsafe { wide(a, b, n, &mut got, m, k, n) };
        assert_eq!(
            base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "seed {SEED} shape ({m},{k},{n})"
        );
    }

    /// [`compare`] for all three seeds on random operands of one shape,
    /// drawn from `data`.
    #[cfg(target_arch = "x86_64")]
    fn compare_seeds(wide: [Kernel; 3], &(m, k, n): &(usize, usize, usize), data: u64) {
        let a = randmat(m * k, data);
        let b = randmat(k * n, data + 1);
        let c0 = randmat(m * n, data + 2);
        compare::<ACC>(wide[0], &a, &b, &c0, m, k, n);
        compare::<DOT>(wide[1], &a, &b, &c0, m, k, n);
        compare::<SET>(wide[2], &a, &b, &c0, m, k, n);
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
            let avx2 = [kernel_avx2::<ACC>, kernel_avx2::<DOT>, kernel_avx2::<SET>];
            for shape in [
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
                compare_seeds(avx2, shape, 9);
            }
            println!("linalg: baseline and avx2 instantiations compared bit for bit");
            return;
        }
        println!("linalg: SKIPPED instantiation comparison — this CPU has no AVX2");
    }

    /// The baseline (4-row block, 8-lane panel) and the AVX-512F
    /// instantiation (12-row block, 32-lane panel) are one source too:
    /// every height from 1 to 30 rows — each remainder of the 12-, 4- and
    /// 1-row blocks — against every tail width: the padded 4-, 8- and
    /// 16-lane panels (1–15 columns), the in-place 16-lane step alone and
    /// before each padded panel (16–31), and one and two whole panels with
    /// each tail after them (32–49, 63–65, 80, 81, 95), for every seed on
    /// three draws of the operands. Then the kernel shapes that a tail
    /// padded into a 32-lane panel once made ten times slower — the
    /// batch-5 `enc4` product (96×1536×20) and the transposed-output
    /// weight gradients of `g.enc1.dw` (24×256×192 as 192×256×24) and
    /// `g.dec5.dw` (24×1024×48 as 48×1024×24).
    #[test]
    fn avx512_instantiations_are_bitwise_identical() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            let widths: Vec<usize> = (1..=49).chain(63..=65).chain([80, 81, 95]).collect();
            let named = [(96, 1536, 20), (192, 256, 24), (48, 1024, 24)];
            let avx512 = [
                kernel_avx512::<ACC>,
                kernel_avx512::<DOT>,
                kernel_avx512::<SET>,
            ];
            for data in [9, 19, 29] {
                for m in 1..=30 {
                    for &n in &widths {
                        compare_seeds(avx512, &(m, 9, n), data);
                    }
                }
            }
            for shape in named {
                compare_seeds(avx512, &shape, 9);
            }
            println!(
                "linalg: baseline and avx512 instantiations compared bit for bit at 1-30 rows \
                 x {} widths",
                widths.len()
            );
            return;
        }
        println!("linalg: SKIPPED avx512 instantiation comparison — this CPU has no AVX-512F");
    }

    /// The tail rule covers every column exactly once and pads into no
    /// panel wider than 16 lanes (nor wider than the narrowest of 4, 8
    /// and 16 that holds the rest), at each instantiation's panel width.
    #[test]
    fn tail_rule_covers_each_column_once_in_narrow_panels() {
        for nr in [8, 16, 32] {
            for n in 0..=200 {
                let Columns { full, step, pad } = columns(n, nr);
                assert!(n - full < nr, "nr {nr} n {n}: a whole panel left over");
                assert!(step == 0 || (nr > 16 && step == 16), "nr {nr} n {n}");
                // The in-place panels as `nn` runs them, then the padded
                // panel's real lanes: the columns from `full + step` on.
                let mut panels: Vec<(usize, usize)> =
                    (0..full / nr).map(|p| (p * nr, nr)).collect();
                panels.push((full, step));
                let rest = n - full - step;
                let mut seen = vec![0u8; n + 32];
                for (j0, w) in panels.into_iter().chain([(full + step, rest)]) {
                    seen[j0..j0 + w].iter_mut().for_each(|s| *s += 1);
                }
                assert!(seen[..n].iter().all(|&s| s == 1), "nr {nr} n {n}: {seen:?}");
                assert!(seen[n..].iter().all(|&s| s == 0), "nr {nr} n {n}: past n");
                assert!(rest <= pad, "nr {nr} n {n}: {rest} columns in {pad} lanes");
                assert!(pad <= 16 && pad <= nr, "nr {nr} n {n}: pad {pad}");
                let narrowest = [0, 4, 8, 16].into_iter().find(|&w| w >= rest);
                assert_eq!(Some(pad), narrowest, "nr {nr} n {n}: rest {rest}");
            }
        }
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

    /// `C` (`m×n`, dense) from `c0`, plus `Aᵀ·B` folded one product at a
    /// time in ascending `k`: `A` stored `k×m`, `B` `k×n` with rows `ldb`
    /// apart.
    #[allow(clippy::too_many_arguments)]
    fn naive_tn(
        at: &[f32],
        b: &[f32],
        ldb: usize,
        c0: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut c = c0.to_vec();
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += at[kk * m + i] * b[kk * ldb + j];
                }
            }
        }
        c
    }

    /// The transposed-output form runs `k` in blocks of `KC` rows, the
    /// first seeded as the product says and every later one with `ACC` on
    /// the partial `Cᵀ`: at `k` either side of one and two blocks (and
    /// `k = 0`, where `SET` leaves zeros), 1–20 columns and `m` on and off
    /// the 32-, 16- and 8-lane panels, it is the naive fold bit for bit —
    /// called directly under `ACC` and `SET` (the latter also with `B` a
    /// column block, `ldb > n`), and through `matmul_tn`, `matmul_tn_set`,
    /// `matmul_tn_set_forked` and `TnWeights::product`, which take it
    /// wherever their layout rule does.
    #[test]
    fn blocked_transposed_output_is_the_naive_fold() {
        /// An overwriting product, named, onto a `C` it is handed.
        type Way<'a> = (&'a str, &'a dyn Fn(&mut [f32]));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut public_layouts = 0;
        for k in [0, 1, KC - 1, KC, KC + 1, 2 * KC + 3] {
            for n in 1..=20 {
                for m in [1, 5, 8, 16, 31, 32, 45, 77] {
                    let (at, c0) = (randmat(k * m, 16), randmat(m * n, 17));
                    let ldb = n + 3;
                    let b = randmat(k * ldb, 18);
                    let dense: Vec<f32> =
                        b.chunks_exact(ldb).flat_map(|r| &r[..n]).copied().collect();
                    let acc = naive_tn(&at, &b, ldb, &c0, m, k, n);
                    let set = naive_tn(&at, &b, ldb, &vec![0.0; m * n], m, k, n);
                    let shape = format!("({m},{k},{n})");
                    public_layouts += usize::from(tn_transposes_output(m, k, n));

                    let mut got = c0.clone();
                    tn_by_transposed_output::<ACC>((&at, m), &dense, n, &mut got, m, k, n);
                    assert_eq!(bits(&got), bits(&acc), "blocked ACC {shape}");
                    let mut got = c0.clone();
                    matmul_tn(&at, &dense, &mut got, m, k, n);
                    assert_eq!(bits(&got), bits(&acc), "matmul_tn {shape}");

                    let overwriting: [Way; 5] = [
                        ("blocked SET", &|c| {
                            tn_by_transposed_output::<SET>((&at, m), &dense, n, c, m, k, n)
                        }),
                        ("blocked SET, ldb > n", &|c| {
                            tn_by_transposed_output::<SET>((&at, m), &b, ldb, c, m, k, n)
                        }),
                        ("matmul_tn_set", &|c| matmul_tn_set(&at, &dense, c, m, k, n)),
                        ("matmul_tn_set_forked", &|c| {
                            matmul_tn_set_forked(&at, &dense, c, m, k, n)
                        }),
                        ("TnWeights::product, ldb > n", &|c| {
                            TnWeights::new(&at, m, k).product(&b, ldb, c, n)
                        }),
                    ];
                    for (way, run) in overwriting {
                        let mut got = vec![f32::NAN; m * n];
                        run(&mut got);
                        assert_eq!(bits(&got), bits(&set), "{way} {shape}");
                    }
                }
            }
        }
        // The public entry points took the blocked form at some shapes.
        assert!(public_layouts > 0);
    }

    /// The forked overwriting products split their output rows at whole
    /// row blocks of the running instantiation, or at whole 4-row blocks
    /// below two of those (none below 8 rows; under 12-row blocks 4 | 4 at
    /// 8, 4 | 8 at 12, 8 | 15 at 23, 12 | 12 at 24, 48 | 48 at 96), and
    /// leave the unsplit products' bits — `tn` in both of its layouts —
    /// forked wherever the helper is free and with every join inline, at
    /// every height up to 30 rows.
    #[test]
    fn forked_products_are_the_unsplit_products() {
        let splits = |mb| [7, 8, 12, 23, 24, 36, 96].map(|m| split_row(m, mb));
        assert_eq!(
            splits(MR),
            [
                None,
                Some(4),
                Some(4),
                Some(8),
                Some(12),
                Some(16),
                Some(48)
            ]
        );
        assert_eq!(
            splits(12),
            [
                None,
                Some(4),
                Some(4),
                Some(8),
                Some(12),
                Some(12),
                Some(48)
            ]
        );
        for m in (1..=30).chain([96]) {
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
