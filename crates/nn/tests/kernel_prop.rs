//! Property tests pinning the register-blocked kernels to their scalar
//! reference semantics across arbitrary shapes — full 4×8 and 4×16 blocks
//! (the panel is 8 lanes at the baseline, 16 under AVX2), row tails,
//! column tails and degenerate single-row/column cases, with the shape
//! families a uniform draw rarely hits (`n` below a panel, `n = 8q + r`
//! and `n = 16q + r`, `m < 4`, `k = 1`, the `n < 8 ≤ m` and `n < 16 ≤ m`
//! `tn` layouts, both sides of the `tn` and `nt` layout rules, column-tile
//! seams at either width) generated explicitly — plus the quantization
//! round-trip error bound.
//!
//! The equality here is **bitwise** (`to_bits`), not approximate: the
//! kernels' contract is that register blocking regroups independent
//! outputs without changing any output's fold order (see
//! `src/linalg.rs`).

use pop_nn::linalg::{matmul_nn, matmul_nn_set, matmul_nt, matmul_tn, TnWeights};
use pop_nn::quant::{dot_q, quantize_symmetric, QMAX};
use proptest::prelude::*;

/// Scalar reference for `nn`/`tn`: each `C[i, j]` starts from the existing
/// C value and folds the `k` products in ascending order.
fn ref_accumulate(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Scalar reference for `nt` (`B` stored `n×k`): a zero-seeded dot folded
/// in ascending `k`, then added onto C — the kernel's documented chain.
fn ref_nt(a: &[f32], bt: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * bt[j * k + kk];
            }
            c[i * n + j] += acc;
        }
    }
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0; x.len()];
    for r in 0..rows {
        for cc in 0..cols {
            t[cc * rows + r] = x[r * cols + cc];
        }
    }
    t
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic filler so matrix content varies with the sampled seed but
/// needs no O(m·k) strategy machinery.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed.wrapping_mul(1442695040888963407) | 1);
            ((x >> 33) as f32 / 2.0_f32.powi(31)) - 1.0
        })
        .collect()
}

/// The overwriting products at one shape: from a `C` full of junk they
/// leave what the accumulating kernels leave in a zeroed one (`B` handed to
/// [`TnWeights::product`] as a column block of a wider matrix).
fn check_overwriting_kernels(a: &[f32], at: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut want = vec![0.0; m * n];
    ref_accumulate(a, b, &mut want, m, k, n);
    let junk = fill(m * n, 0xBAD);
    let mut got = junk.clone();
    matmul_nn_set(a, b, &mut got, m, k, n);
    assert_eq!(bits(&got), bits(&want), "nn_set shape ({m}, {k}, {n})");

    let (ldb, first) = (n + 5, 3);
    let mut wide = fill(k * ldb, 0xB16);
    for (row, src) in wide.chunks_exact_mut(ldb).zip(b.chunks_exact(n)) {
        row[first..first + n].copy_from_slice(src);
    }
    let weights = TnWeights::new(at, m, k);
    for _ in 0..2 {
        // Twice: the second product finds the layout the first one left.
        let mut got = junk.clone();
        weights.product(&wide[first..], ldb, &mut got, n);
        assert_eq!(bits(&got), bits(&want), "tn product shape ({m}, {k}, {n})");
    }
}

/// `nn`, `tn` and `nt` at one shape, each bitwise against its scalar
/// reference from a non-zero starting C.
fn check_all_kernels(m: usize, k: usize, n: usize, seed: u64) {
    let a = fill(m * k, seed);
    let at = transpose(&a, m, k);
    let b = fill(k * n, seed ^ 0xA5A5);
    let bt = transpose(&b, k, n);
    let c0 = fill(m * n, seed ^ 0x5A5A);

    let mut want = c0.clone();
    ref_accumulate(&a, &b, &mut want, m, k, n);
    let mut got = c0.clone();
    matmul_nn(&a, &b, &mut got, m, k, n);
    assert_eq!(bits(&got), bits(&want), "nn shape ({m}, {k}, {n})");
    let mut got = c0.clone();
    matmul_tn(&at, &b, &mut got, m, k, n);
    assert_eq!(bits(&got), bits(&want), "tn shape ({m}, {k}, {n})");

    let mut want = c0.clone();
    ref_nt(&a, &bt, &mut want, m, k, n);
    let mut got = c0;
    matmul_nt(&a, &bt, &mut got, m, k, n);
    assert_eq!(bits(&got), bits(&want), "nt shape ({m}, {k}, {n})");

    check_overwriting_kernels(&a, &at, &b, m, k, n);
}

/// Column tiles are a whole number of panels wide and shrink with `k`
/// (32 columns at `k ≥ 8192`): spans that cross tile seams and then end in
/// a `< 8` tail must still compose to the reference.
#[test]
fn column_tile_seams_and_tail_compose() {
    check_all_kernels(5, 8192, 70, 1);
    check_all_kernels(3, 9000, 41, 2);
}

/// At `k = 6553` a tile is 40 columns of 8-lane panels but 32 of 16-lane
/// ones: the two instantiations put their seams in different places (one
/// a multiple of 8 that is not a multiple of 16), and both end in a tail.
#[test]
fn column_tile_seams_differ_between_the_panel_widths() {
    check_all_kernels(5, 6553, 90, 3);
}

/// The tails that take a narrower panel than the instantiation's own:
/// `n = 1..=8` (the whole product one 4- or 8-lane panel; at the baseline
/// `n = 8` is a full panel) and `n = 16q + {1, 4, 8}` (full panels, then a
/// 4- or 8-lane tail under AVX2; a 4-lane tail or none at the baseline),
/// over row counts either side of a row block and depths from 1. This
/// binary runs whichever instantiation the host dispatches to; the unit
/// test `instantiations_are_bitwise_identical` runs the same tails through
/// both on an AVX2 host.
#[test]
fn narrow_tails_are_bitwise_naive() {
    let widths = (1..=8).chain((1..=3).flat_map(|q| [16 * q + 1, 16 * q + 4, 16 * q + 8]));
    for n in widths {
        for (m, k) in [(1, 1), (3, 7), (4, 16), (9, 33), (96, 24)] {
            check_all_kernels(m, k, n, (m * 131 + k * 7 + n) as u64);
        }
    }
}

/// `matmul_tn` (A stored `k×m`) against the scalar reference from a
/// non-zero C, and whether the shape takes the transposed-output layout.
fn check_tn(m: usize, k: usize, n: usize, seed: u64) -> bool {
    let at = fill(k * m, seed);
    let a = transpose(&at, k, m);
    let b = fill(k * n, seed ^ 0x33CC);
    let c0 = fill(m * n, seed ^ 0xCC33);
    let mut got = c0.clone();
    matmul_tn(&at, &b, &mut got, m, k, n);
    let mut want = c0;
    ref_accumulate(&a, &b, &mut want, m, k, n);
    assert_eq!(bits(&got), bits(&want), "tn shape ({m}, {k}, {n})");
    n * k + 2 * m * n + n * m * k / 32 < m * k
}

/// `matmul_tn` chooses between packing `Aᵀ` and computing `Cᵀ += Bᵀ·A` by
/// which moves fewer elements (`n·k + 2·m·n + n·m·k/32` against `m·k`, the
/// last term for re-streaming `A` once per row block). Both sides of
/// that rule — the boundary itself, `n < 8`, `m < 8`, `k = 1` — and every
/// deconvolution of the quick model (64×64, 12 filters, depth 6) at batch
/// 1, 5 and 8 give the reference bits.
#[test]
fn tn_layout_rule_is_bitwise_naive_on_both_sides() {
    let mut transposed = 0;
    let mut packed = 0;
    let mut check = |m, k, n| {
        if check_tn(m, k, n, (m * 31 + k * 7 + n) as u64) {
            transposed += 1;
        } else {
            packed += 1;
        }
    };
    // m·k = 96·24 = 2304 against n·(k + 2m + m·k/32) = 288·n: n = 7
    // transposes, n = 8 packs; and the neighbours of the boundary in m and k.
    for n in [1, 5, 6, 7, 8, 9, 10, 16, 40] {
        check(96, 24, n);
        check(95, 25, n);
        check(97, 23, n);
    }
    // Narrow and degenerate operands on either side.
    for (m, k, n) in [
        (3, 64, 1),
        (7, 200, 3),
        (5, 9, 2),
        (1, 1, 1),
        (1, 300, 1),
        (300, 1, 1),
        (40, 1, 5),
        (6, 1, 33),
        (200, 3, 1),
        (9, 40, 7),
    ] {
        check(m, k, n);
    }
    // (out_c·16, in_c, h·w) of the six decoder layers, times the batch.
    for batch in [1, 5, 8] {
        for (m, k, p) in [
            (1536, 96, 1),
            (1536, 192, 4),
            (768, 192, 16),
            (384, 96, 64),
            (192, 48, 256),
            (48, 24, 1024),
        ] {
            check(m, k, batch * p);
        }
    }
    assert!(
        transposed >= 10 && packed >= 10,
        "both layouts exercised ({transposed} transposed, {packed} packed)"
    );
}

/// `matmul_nt` (B stored `n×k`) against the scalar reference from a
/// non-zero C, and whether the shape takes the transposed-output layout.
fn check_nt(m: usize, k: usize, n: usize, seed: u64) -> bool {
    let a = fill(m * k, seed);
    let bt = fill(n * k, seed ^ 0x0F0F);
    let c0 = fill(m * n, seed ^ 0xF0F0);
    let mut got = c0.clone();
    matmul_nt(&a, &bt, &mut got, m, k, n);
    let mut want = c0;
    ref_nt(&a, &bt, &mut want, m, k, n);
    assert_eq!(bits(&got), bits(&want), "nt shape ({m}, {k}, {n})");
    m * k + 2 * m * n < n * k
}

/// `matmul_nt` chooses between packing `Bᵀ` and adding `T = B·Aᵀ` onto `C`
/// transposed by which moves fewer elements (`n·k` against
/// `m·k + 2·m·n`). Both sides of that rule — the boundary itself, `m = 1`,
/// `n = 1`, `k = 1` — and the fourteen weight-gradient shapes of a
/// quick-model train step give the reference bits.
#[test]
fn nt_layout_rule_is_bitwise_naive_on_both_sides() {
    let mut transposed = 0;
    let mut packed = 0;
    let mut check = |m, k, n| {
        if check_nt(m, k, n, (m * 31 + k * 7 + n) as u64) {
            transposed += 1;
        } else {
            packed += 1;
        }
    };
    // 8·40 + 16·n against 40·n: n = 13 packs, n = 14 transposes; and the
    // neighbours of the boundary in m and k.
    for n in [1, 7, 12, 13, 14, 15, 40] {
        check(8, 40, n);
        check(7, 41, n);
        check(9, 39, n);
    }
    // Narrow and degenerate operands on either side.
    for (m, k, n) in [
        (1, 1, 1),
        (1, 300, 17),
        (3, 64, 1),
        (300, 1, 5),
        (5, 200, 33),
        (40, 1, 5),
        (6, 1, 33),
        (2, 500, 9),
    ] {
        check(m, k, n);
    }
    // (out_c, ho·wo, in_c·16) of a conv, (in_c, h·w, out_c·16) of a deconv.
    for (m, k, n) in [
        (12, 1024, 64),
        (24, 256, 192),
        (48, 64, 384),
        (96, 16, 768),
        (96, 4, 1536),
        (96, 1, 1536),
        (192, 4, 1536),
        (192, 16, 768),
        (96, 64, 384),
        (48, 256, 192),
        (24, 1024, 48),
        (12, 1024, 112),
        (96, 49, 768),
        (1, 36, 1536),
    ] {
        check(m, k, n);
    }
    assert!(
        transposed >= 10 && packed >= 10,
        "both layouts exercised ({transposed} transposed, {packed} packed)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fewer than 8 columns: the whole product is one zero-padded panel
    /// (and `tn` takes its transposed-output layout once `m ≥ 8`).
    #[test]
    fn narrow_outputs_are_bitwise_naive(m in 1usize..40, k in 1usize..40, n in 1usize..=7, seed in 0u64..1000) {
        check_all_kernels(m, k, n, seed);
    }

    /// `n = 8q + r`, `r ≠ 0`: full panels followed by a padded tail.
    #[test]
    fn column_tails_are_bitwise_naive(
        m in 1usize..40,
        k in 1usize..40,
        q in 1usize..6,
        r in 1usize..=7,
        seed in 0u64..1000,
    ) {
        check_all_kernels(m, k, 8 * q + r, seed);
    }

    /// Fewer than 16 columns: under AVX2 the whole product is one
    /// zero-padded 16-lane panel, at the baseline a full panel and a tail.
    #[test]
    fn outputs_narrower_than_the_wide_panel_are_bitwise_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..=15,
        seed in 0u64..1000,
    ) {
        check_all_kernels(m, k, n, seed);
    }

    /// `n = 16q + r`, `r ≠ 0`: full 16-lane panels followed by a padded
    /// tail (two 8-lane tails' worth at most).
    #[test]
    fn column_tails_of_the_wide_panel_are_bitwise_naive(
        m in 1usize..40,
        k in 1usize..40,
        q in 1usize..4,
        r in 1usize..=15,
        seed in 0u64..1000,
    ) {
        check_all_kernels(m, k, 16 * q + r, seed);
    }

    /// `n < 16 ≤ m`: where `tn` computes `Cᵀ += Bᵀ·A`, `Cᵀ` has `m`
    /// columns — wide panels and their tail — and `n` rows; where it packs,
    /// the product is narrower than one wide panel.
    #[test]
    fn tn_below_the_wide_panel_is_bitwise_naive_in_both_layouts(
        m in 16usize..200,
        k in 1usize..40,
        n in 1usize..=15,
        seed in 0u64..1000,
    ) {
        check_all_kernels(m, k, n, seed);
    }

    /// Fewer than 4 rows: only the single-row register block runs.
    #[test]
    fn short_row_blocks_are_bitwise_naive(m in 1usize..4, k in 1usize..40, n in 1usize..80, seed in 0u64..1000) {
        check_all_kernels(m, k, n, seed);
    }

    /// `k = 1`: an outer product, one fold step per output (the 1×1
    /// bottleneck's weight gradient).
    #[test]
    fn unit_depth_is_bitwise_naive(m in 1usize..40, n in 1usize..80, seed in 0u64..1000) {
        check_all_kernels(m, 1, n, seed);
    }

    /// `n < 8 ≤ m`: `tn` computes `Cᵀ += Bᵀ·A` and transposes back; `m`
    /// reaches past a panel multiple so `Cᵀ` gets its own column tail.
    #[test]
    fn tn_transposed_output_path_is_bitwise_naive(
        m in 8usize..200,
        k in 1usize..40,
        n in 1usize..=7,
        seed in 0u64..1000,
    ) {
        check_all_kernels(m, k, n, seed);
    }

    /// `matmul_nn` is bitwise the scalar accumulate kernel for every
    /// shape, including a non-zero starting C.
    #[test]
    fn nn_is_bitwise_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0xA5A5);
        let c0 = fill(m * n, seed ^ 0x5A5A);
        let mut got = c0.clone();
        matmul_nn(&a, &b, &mut got, m, k, n);
        let mut want = c0;
        ref_accumulate(&a, &b, &mut want, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want), "shape ({}, {}, {})", m, k, n);
    }

    /// `matmul_tn` (A stored `k×m`) is bitwise the scalar accumulate
    /// kernel on the transposed A.
    #[test]
    fn tn_is_bitwise_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
        let at = fill(k * m, seed);
        let a = transpose(&at, k, m);
        let b = fill(k * n, seed ^ 0x33CC);
        let c0 = fill(m * n, seed ^ 0xCC33);
        let mut got = c0.clone();
        matmul_tn(&at, &b, &mut got, m, k, n);
        let mut want = c0;
        ref_accumulate(&a, &b, &mut want, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want), "shape ({}, {}, {})", m, k, n);
    }

    /// `matmul_nt` (B stored `n×k`) is bitwise the zero-seeded-dot-then-add
    /// scalar chain.
    #[test]
    fn nt_is_bitwise_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
        let a = fill(m * k, seed);
        let bt = fill(n * k, seed ^ 0x0F0F);
        let c0 = fill(m * n, seed ^ 0xF0F0);
        let mut got = c0.clone();
        matmul_nt(&a, &bt, &mut got, m, k, n);
        let mut want = c0;
        ref_nt(&a, &bt, &mut want, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want), "shape ({}, {}, {})", m, k, n);
    }

    /// Symmetric i8 quantization round-trips every element within half a
    /// quantization step (plus f32 rounding slack), and codes stay on the
    /// signed-8-bit grid.
    #[test]
    fn quantize_roundtrip_is_half_step_bounded(
        len in 1usize..256,
        mag in 0.01f32..50.0,
        seed in 0u64..10_000,
    ) {
        let values: Vec<f32> = fill(len, seed).iter().map(|v| v * mag).collect();
        let mut q = vec![0i16; values.len()];
        let scale = quantize_symmetric(&values, &mut q);
        let maxabs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if maxabs == 0.0 {
            prop_assert_eq!(scale, 0.0);
            prop_assert!(q.iter().all(|&c| c == 0));
        } else {
            let step = maxabs / QMAX;
            prop_assert!((scale - step).abs() <= step * 1e-6);
            for (&v, &code) in values.iter().zip(&q) {
                prop_assert!((-127..=127).contains(&code), "code {} off-grid", code);
                let back = code as f32 * scale;
                // Half a grid step, plus slack for the f32 roundings in
                // `v * inv` and `code * scale` (both proportional to scale
                // since |v| ≤ 127·scale).
                prop_assert!(
                    (back - v).abs() <= (0.5 + 1e-4) * scale + 1e-6,
                    "|{} - {}| exceeds half step {}",
                    back, v, 0.5 * scale
                );
            }
        }
    }

    /// The widened i16 dot product is exact: it equals the i64 reference
    /// for every pair of in-range code vectors.
    #[test]
    fn dot_q_matches_i64_reference(len in 0usize..512, seed in 0u64..10_000) {
        let codes = |salt: u64| -> Vec<i16> {
            fill(len, seed ^ salt)
                .iter()
                .map(|v| (v * QMAX).round() as i16)
                .collect()
        };
        let a = codes(0);
        let b = codes(0x9E37);
        let want: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
        prop_assert_eq!(dot_q(&a, &b) as i64, want);
    }
}
