//! Minimal dense matrix kernels used by the convolution layers.
//!
//! Row-major `f32` matrices as flat slices, shaped for the autovectorizer:
//! one register-block kernel (`block_rows`: up to 4 rows × one **8-wide
//! column panel** of independent accumulators) serves `nn`, `tn` and `nt`,
//! so the innermost loop is always a fixed-width bundle of independent
//! multiply-then-adds over contiguous `B` memory — the exact shape LLVM
//! provably lowers to SIMD without intrinsics.
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
//! * **Column tails** (`n mod 8` columns). The tail columns of `B` and `C`
//!   are copied once per call into zero-padded `k×8` / `m×8` scratch, run
//!   through the same panel kernel, and the real lanes copied back. Lanes
//!   are independent outputs: the padding lanes compute `0 + a·0 + …` and
//!   are dropped, the real lanes see the same seed and the same products
//!   in the same order as in a full panel.
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
//! * **`nt`** packs `Bᵀ` (`k×n`) once and runs the panel kernel
//!   zero-seeded, then adds the finished dot product onto `C` — the chain
//!   `0 + a₀b₀ + … + aₖ₋₁bₖ₋₁`, then `c += acc`, that the `nt` reference
//!   pins (it differs from seeding with `c`, so `nt` keeps its own rule).
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
//! `is_x86_feature_detected!`. AVX2 only widens the registers: `fma` is
//! never enabled and Rust does not contract `a * b + c`, so the wide build
//! issues `vmulps` then `vaddps`, each rounding once like the scalar
//! `mulss`/`addss` — bit-exact, and a unit test runs both instantiations
//! against each other. Other targets compile the baseline only; the layout
//! steps above (transposes) are plain code outside the kernel.
//!
//! `matmul_nn` / `matmul_tn` additionally tile over columns so the
//! re-streamed `B` panel stays cache-resident when `n` is large — the
//! regime batched inference creates by widening `n` to `batch · ho · wo`.

use crate::workspace;

/// Column-panel width: 8 f32 lanes (one AVX register, two SSE registers).
const NR: usize = 8;
/// Row-block height: 4 independent accumulator rows amortise each `B`
/// panel load across 4 outputs.
const MR: usize = 4;

/// Floats of `Aᵀ` that `matmul_tn` packs at a time (64 KiB).
const PACK: usize = 1 << 14;

/// Column-tile width targeting a ~1 MiB working panel (`rows · tile · 4`
/// bytes) so it stays inside the L2 cache; a whole number of panels.
fn col_tile(rows: usize) -> usize {
    (262_144 / rows.max(1)).max(32) / NR * NR
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
    dispatch::<false>(a, b, c, m, k, n);
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
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if n * k + 2 * m * n + n * m * k / 32 < m * k {
        let (mut bt, mut ct) = (workspace::take(n * k), workspace::take(n * m));
        transpose(b, n, k, n, &mut bt[..n * k]);
        transpose(c, n, m, n, &mut ct[..n * m]);
        dispatch::<false>(&bt[..n * k], a, &mut ct[..n * m], n, k, m);
        transpose(&ct[..n * m], m, n, m, c);
        workspace::give(bt);
        workspace::give(ct);
    } else {
        // Pack and multiply a strip of output rows at a time: the kernel
        // reads the strip while it is still in cache, and the workspace
        // never holds an `m·k` copy of the weights.
        let rows = (PACK / k.max(1)).clamp(MR, m.max(MR)) / MR * MR;
        let mut at = workspace::take(rows * k);
        for (strip, c_rows) in c.chunks_mut((rows * n).max(1)).enumerate() {
            let r = c_rows.len() / n.max(1);
            transpose(&a[strip * rows..], m, k, r, &mut at[..r * k]);
            dispatch::<false>(&at[..r * k], b, c_rows, r, k, n);
        }
        workspace::give(at);
    }
}

/// `C += A @ Bᵀ` where `A` is `m×k`, `B` is `n×k`, `C` is `m×n`.
///
/// Backward-only (weight gradients). Packs `Bᵀ` once (O(n·k) against
/// O(m·n·k) compute) and runs the panel kernel zero-seeded, adding each
/// finished dot product onto `C`: every output is still a zero-seeded dot
/// folded in ascending `k`, then one add — bitwise the scalar chain.
///
/// # Panics
///
/// Panics when slice lengths do not match the dimensions.
pub fn matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size");
    assert_eq!(c.len(), m * n, "C size");
    let mut bt = workspace::take(k * n);
    transpose(b, k, n, k, &mut bt[..k * n]);
    dispatch::<true>(a, &bt[..k * n], c, m, k, n);
    workspace::give(bt);
}

/// Runs the kernel in the widest instantiation this CPU supports:
/// `C += A @ B` with every output seeded from `C` (`ZERO = false`), or
/// `C += (0 + A @ B)` (`true`, the `nt` chain); all row-major.
fn dispatch<const ZERO: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `kernel_avx2` is safe code compiled for AVX2; its only
        // requirement is that the CPU supports AVX2, which the runtime
        // check on the line above has just established.
        return unsafe { kernel_avx2::<ZERO>(a, b, c, m, k, n) };
    }
    // The compilation target's baseline feature set.
    nn::<ZERO>(a, b, c, m, k, n);
}

/// The same kernel with 256-bit registers; callable (through `unsafe`)
/// only once the CPU is known to support AVX2. `fma` is deliberately not
/// enabled: multiply and add stay two roundings, as in the baseline.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn kernel_avx2<const ZERO: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nn::<ZERO>(a, b, c, m, k, n);
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
/// zero-padded tail. This and everything it calls is `#[inline(always)]` so
/// that each caller — `dispatch` at the baseline, `kernel_avx2` — compiles
/// its own copy under its own target features.
#[inline(always)]
fn nn<const ZERO: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let full = n - n % NR;
    // The B panel (k rows) is re-streamed for every 4-row block; tile it.
    let tile = col_tile(k);
    let mut j0 = 0;
    while j0 < full {
        let j1 = (j0 + tile).min(full);
        row_blocks::<ZERO>(a, b, n, c, n, m, k, j0, j1);
        j0 = j1;
    }
    let tail = n - full;
    if tail == 0 {
        return;
    }
    // Column tail: one zero-padded panel each of B's and C's last columns.
    let (mut bp, mut cp) = (workspace::take(k * NR), workspace::take(m * NR));
    for (dst, src) in bp.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
        dst[..tail].copy_from_slice(&src[full..]);
        dst[tail..].fill(0.0);
    }
    for (dst, src) in cp.chunks_exact_mut(NR).zip(c.chunks_exact(n)) {
        dst[..tail].copy_from_slice(&src[full..]);
        dst[tail..].fill(0.0);
    }
    row_blocks::<ZERO>(a, &bp[..k * NR], NR, &mut cp[..m * NR], NR, m, k, 0, NR);
    for (src, dst) in cp.chunks_exact(NR).zip(c.chunks_exact_mut(n)) {
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
fn row_blocks<const ZERO: bool>(
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
        block_rows::<MR, ZERO>(&rows, b, ldb, c, ldc, i, j0, j1);
        i += MR;
    }
    while i < m {
        let rows = [&a[i * k..(i + 1) * k]];
        block_rows::<1, ZERO>(&rows, b, ldb, c, ldc, i, j0, j1);
        i += 1;
    }
}

/// The register-block kernel: `rows` holds R row slices of `A` (each of
/// length `k`) for output rows `i0..i0+R`; accumulates the `[j0, j1)`
/// column span of `C` one 8-wide register panel at a time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_rows<const R: usize, const ZERO: bool>(
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
        // or from zero with C added at the end (`nt`).
        let mut acc = [[0.0f32; NR]; R];
        if !ZERO {
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
            if ZERO {
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

    /// Shapes spanning the register-block boundaries: full 4×8 blocks,
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
    fn compare<const ZERO: bool>(a: &[f32], b: &[f32], c0: &[f32], m: usize, k: usize, n: usize) {
        let mut base = c0.to_vec();
        nn::<ZERO>(a, b, &mut base, m, k, n);
        let mut wide = c0.to_vec();
        // SAFETY: the caller has checked that this CPU supports AVX2.
        unsafe { kernel_avx2::<ZERO>(a, b, &mut wide, m, k, n) };
        assert_eq!(
            base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            wide.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "zero-seeded {ZERO} shape ({m},{k},{n})"
        );
    }

    /// The baseline and the AVX2 instantiation are one source: on a host
    /// with AVX2 (where `dispatch` would otherwise never run the baseline)
    /// both must produce the same bits, on every layout path.
    #[test]
    fn instantiations_are_bitwise_identical() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            for &(m, k, n) in &[
                (4, 5, 8),
                (7, 11, 23),
                (1, 1, 1),
                (3, 9, 5),
                (96, 64, 4),
                (48, 7, 1),
                (13, 1, 29),
                (9, 13, 40),
                (33, 17, 7),
            ] {
                let a = randmat(m * k, 9);
                let b = randmat(k * n, 10);
                let c0 = randmat(m * n, 11);
                compare::<false>(&a, &b, &c0, m, k, n);
                compare::<true>(&a, &b, &c0, m, k, n);
            }
            println!("linalg: baseline and avx2 instantiations compared bit for bit");
            return;
        }
        println!("linalg: SKIPPED instantiation comparison — this CPU has no AVX2");
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
