//! Kernel microbench: the register-blocked `linalg` kernels vs the PR-1
//! reference kernels (embedded below, zero-skip and all) at the GEMM shapes
//! of the quick model (`ExperimentConfig::quick()`: 64×64, 4 input
//! channels, base filters 12, depth 6) at the batch sizes the system
//! actually runs — batch 8 (full serve batches), batch 1 (training,
//! `serve_http`) and batch 5 (`explore`) forwards, and the weight-gradient
//! `nt` GEMMs of one `train_step`. The forward shapes are derived from the
//! generator's own channel plan, so the table cannot drift from the model.
//! They are whole-batch widths: since inference lowers wide layers in
//! ≤ 512 KiB column groups (`pop-nn`'s `lower.rs`), the outer layers issue
//! the same `m × k` against `n / 2` … `n / 4` columns, several times.
//!
//! Around the GEMMs: `lowering` rows time `im2col` and `col2im` per layer
//! geometry at batch 1 and 8 as the inference plan runs them (a one-filter
//! `PlannedConv` / one-input-channel `PlannedDeconv` on a channel-major slab
//! keeps the block's whole lowering, in the plan's sample groups, and
//! shrinks its GEMM to a sliver), `whole_forward` rows one
//! `forecast_batch` at batch 1 / 5 / 8 (through the model's inference
//! plan, like every forecast), and the `forward_ledger`: the batch-1 and
//! batch-8 forward of the `explore` model split per block into lowering,
//! GEMM and finish µs per image (`InferencePlan::forecast_batch_split`,
//! the min of 60 rounds alternating the two batch sizes); the `codec`
//! rows, the four JSON codec calls of a `serve_http` exchange on that
//! workload's own bodies in ns per value; then one whole `train_step`
//! with the split of its wall clock the step records (`train.fork_us` …
//! `train.opt_g_us`: per-phase minima and quartiles over 60 single steps,
//! inline and joined in turn),
//! `Adam::step` against its old three-loop formulation (fresh gradients
//! every step: the step clears what it reads), end-to-end f32 vs
//! quantized `forecast_batch` throughput (the two alternated in rounds,
//! so a slow stretch of the host lands on both) and the quantization
//! accuracy delta. In full mode only, `train_step_paper` times one `train_step` at
//! the paper's size (`ExperimentConfig::paper()`, 256×256) with its split.
//!
//! A train step forks through `pop_exec::join` (D's real pass beside the
//! G forward, and inside the layers), so the training rows are measured
//! both ways: `inline` from inside the caller
//! half of an outer `join` (the helper is busy, every join the code
//! issues runs both halves on the caller — the serial path) and `joined`
//! plainly (forks when the host has a second core; `host_parallelism` is
//! in the row). `join_sites` rows do the same for one conv / deconv
//! backward at each of the generator's twelve and the discriminator's five
//! layer geometries. Each way is one uninterrupted pass over all of them,
//! the joined one after a second of train steps: a helper that has just
//! been spawned or has parked may wake on the caller's core, and a fork
//! measures nothing until the scheduler has moved one of the two.
//!
//! The artefact's `block` entry names the register block the timed
//! instantiation runs (4 rows at the baseline and under AVX2, 12 under
//! AVX-512F, × two vector registers) and carries the block-shape sweep
//! that chose it. `dot_tail` rows time `matmul_nt`'s zero-seeded dot
//! products against `matmul_nn`'s accumulating ones at 9 and 41 columns,
//! where both end in a padded 16-lane tail panel. `narrow_tn` rows time
//! the `tn` products that take the transposed-output form at narrow `n` —
//! the batch-1 and batch-5 `dec1` / `dec2` forwards and the training
//! `enc3`–`enc5` input gradients — with `A` cycled over 8 MiB of copies,
//! as a whole forward cycles the weights through the cache: the `shapes`
//! rows reuse one hot `A`, which hides how it streams.
//!
//! Emits `BENCH_kernels.json` at the workspace root and sanity-parses it
//! back. `--smoke` runs one timed pass per shape (seconds, not minutes)
//! and skips the throughput assertions — CI uses it to prove the artefact
//! stays emittable and well-formed; the committed numbers come from a full
//! run. `--note <text>` appends a line to the artefact's `notes` array
//! (used to record the lto/codegen-units before/after).
//!
//! Run with `cargo bench -p pop-bench --bench kernels [-- --smoke]`.

use pop_core::dataset::DesignContext;
use pop_core::features::{assemble_input, placement_input};
use pop_core::{ExperimentConfig, Forecaster, Pix2Pix, UNetGenerator};
use pop_http::api;
use pop_nn::linalg::{matmul_nn, matmul_nt, matmul_tn, matmul_tn_set, TnWeights};
use pop_nn::{Activation, Adam, Batch, BatchMut, Conv2d, ConvTranspose2d, Layer, Param, Tensor};
use pop_raster::{render_connectivity, render_placement};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// PR-1 reference kernels, embedded verbatim (same fold order, `ikj` loops,
// column tiling and the `== 0.0` skip) so old-vs-new is measured in one
// binary under one profile.
// ---------------------------------------------------------------------------

fn ref_col_tile(rows: usize, n: usize) -> usize {
    (262_144 / rows.max(1)).max(32).min(n.max(1))
}

fn ref_matmul_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let tile = ref_col_tile(k + m, n);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + tile).min(n);
        for i in 0..m {
            let c_row = &mut c[i * n + j0..i * n + j1];
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n + j0..kk * n + j1];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aik * bv;
                }
            }
        }
        j0 = j1;
    }
}

fn ref_matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            c[i * n + j] += acc;
        }
    }
}

fn ref_matmul_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let tile = ref_col_tile(m, n);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + tile).min(n);
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n + j0..kk * n + j1];
            for i in 0..m {
                let aki = a_row[i];
                if aki == 0.0 {
                    continue;
                }
                let c_row = &mut c[i * n + j0..i * n + j1];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aki * bv;
                }
            }
        }
        j0 = j1;
    }
}

// ---------------------------------------------------------------------------
// The GEMM inventory of the quick-config model. Encoder convs lower to `nn`
// with (m, k, n) = (out_c, in_c·4·4, b·ho·wo); decoder deconvs lower to `tn`
// with (out_c·4·4, in_c, b·h·w); weight gradients to `nt` with
// (out_c, ho·wo, in_c·4·4) for a conv and (in_c, h·w, out_c·4·4) for a
// deconv. Channel plan: enc 12,24,48,96,96,96; dec 96,96,48,24,12,3 with
// skip concats (read off pop-core's `UNetGenerator` at start-up);
// discriminator 7→12→24→48→96 (stride 1, 7×7) →1 (6×6).
// ---------------------------------------------------------------------------

struct GemmShape {
    kernel: &'static str,
    layer: String,
    /// Batch size of the forward (or of the training step) issuing it.
    batch: usize,
    /// Calls per forward / per `train_step` (the discriminator runs its
    /// backward three times a step).
    calls: usize,
    m: usize,
    k: usize,
    n: usize,
}

fn shape(
    kernel: &'static str,
    layer: &str,
    batch: usize,
    calls: usize,
    (m, k, n): (usize, usize, usize),
) -> GemmShape {
    GemmShape {
        kernel,
        layer: layer.to_string(),
        batch,
        calls,
        m,
        k,
        n,
    }
}

/// One conv / deconv layer of the generator, as the model builds it.
#[derive(Clone, Copy)]
struct LayerGeom {
    deconv: bool,
    level: usize,
    in_c: usize,
    out_c: usize,
    /// Input side length (square maps).
    side: usize,
}

impl LayerGeom {
    fn name(&self) -> String {
        format!("{}{}", if self.deconv { "dec" } else { "enc" }, self.level)
    }

    /// The forward GEMM at batch `b`: `(kernel, (m, k, n))`.
    fn forward_gemm(&self, b: usize) -> (&'static str, (usize, usize, usize)) {
        if self.deconv {
            (
                "tn",
                (self.out_c * 16, self.in_c, b * self.side * self.side),
            )
        } else {
            let out = self.side / 2;
            ("nn", (self.out_c, self.in_c * 16, b * out * out))
        }
    }

    /// The weight-gradient GEMM of a batch-1 step: `(m, k, n)` of `nt`.
    fn weight_gradient(&self) -> (usize, usize, usize) {
        if self.deconv {
            (self.in_c, self.side * self.side, self.out_c * 16)
        } else {
            let out = self.side / 2;
            (self.out_c, out * out, self.in_c * 16)
        }
    }
}

/// The twelve layers of the quick generator, read off the model itself
/// (`UNetGenerator::new(4, 3, 12, 6, All)`: every decoder level past the
/// first takes the previous level's output concatenated with a skip).
fn generator_layers(config: &ExperimentConfig) -> Vec<LayerGeom> {
    let gen = UNetGenerator::new(
        config.input_channels(),
        3,
        config.base_filters,
        config.depth,
        config.skip,
        7,
    );
    let (enc, dec) = (gen.encoder_channels(), gen.decoder_channels());
    let depth = gen.depth();
    let mut layers = Vec::with_capacity(2 * depth);
    for level in 0..depth {
        layers.push(LayerGeom {
            deconv: false,
            level,
            in_c: if level == 0 {
                gen.in_channels()
            } else {
                enc[level - 1]
            },
            out_c: enc[level],
            side: config.resolution >> level,
        });
    }
    for level in 0..depth {
        layers.push(LayerGeom {
            deconv: true,
            level,
            in_c: if level == 0 {
                enc[depth - 1]
            } else {
                dec[level - 1] + enc[depth - 1 - level]
            },
            out_c: dec[level],
            side: 1 << level,
        });
    }
    layers
}

/// The shape table: forward rows derived from `layers`, weight-gradient
/// rows written out (several coincide with discriminator shapes and share
/// a row) and checked against `layers` — a row the model does not issue
/// aborts the bench.
fn shapes(layers: &[LayerGeom]) -> Vec<GemmShape> {
    let mut table = Vec::new();
    // One batch-8 `forecast_batch`: every n is a multiple of 8. Then the
    // inner levels of a batch-1 forward (training, serve_http: n = 16, 4, 1
    // — the `< 8` column tails and `tn`'s transposed-output layout) and of
    // a batch-5 one (explore's mean batch: n = 20, 5).
    let depth = layers.len() / 2;
    for (batch, levels) in [(8, 0..depth), (1, 3..depth), (5, 4..depth)] {
        for l in layers {
            // Encoder levels count down to the bottleneck, decoder levels
            // up from it: `levels` selects by distance from the outside.
            let inward = if l.deconv {
                depth - 1 - l.level
            } else {
                l.level
            };
            if levels.contains(&inward) {
                let (kernel, mkn) = l.forward_gemm(batch);
                table.push(shape(kernel, &l.name(), batch, 1, mkn));
            }
        }
    }
    // Every weight-gradient GEMM of one batch-1 `train_step`.
    let gradients = [
        ("g.enc0.dw", 1, (12, 1024, 64)),
        ("g.enc1.dw+d.1.dw", 4, (24, 256, 192)),
        ("g.enc2.dw+d.2.dw", 4, (48, 64, 384)),
        ("g.enc3.dw", 1, (96, 16, 768)),
        ("g.enc4.dw", 1, (96, 4, 1536)),
        ("g.enc5.dw+g.dec0.dw", 2, (96, 1, 1536)),
        ("g.dec1.dw", 1, (192, 4, 1536)),
        ("g.dec2.dw", 1, (192, 16, 768)),
        ("g.dec3.dw", 1, (96, 64, 384)),
        ("g.dec4.dw", 1, (48, 256, 192)),
        ("g.dec5.dw", 1, (24, 1024, 48)),
        ("d.0.dw", 3, (12, 1024, 112)),
        ("d.3.dw", 3, (96, 49, 768)),
        ("d.4.dw", 3, (1, 36, 1536)),
    ];
    for (name, calls, mkn) in gradients {
        for part in name.split('+').filter(|part| part.starts_with("g.")) {
            let layer = layers
                .iter()
                .find(|l| format!("g.{}.dw", l.name()) == part)
                .unwrap_or_else(|| panic!("shape table names {part}, the model has no such layer"));
            assert_eq!(
                layer.weight_gradient(),
                mkn,
                "shape table row {name} disagrees with the model's {part}"
            );
        }
        table.push(shape("nt", name, 1, calls, mkn));
    }
    table
}

/// Deterministic non-zero matrix filler (zeros would let the reference
/// kernels' `== 0.0` skip fire and muddy the comparison).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed | 1);
            let v = ((x >> 33) as f32 / 2.0_f32.powi(31)) - 1.0;
            if v == 0.0 {
                0.5
            } else {
                v
            }
        })
        .collect()
}

/// Min-of-`reps` per-call seconds for `iters` back-to-back calls of `f` —
/// the robust estimator against scheduler noise on a shared host.
fn time_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Min-of-`reps` per-call seconds of each of `fs`, the reps alternating:
/// each round runs `iters` calls of every `f` in turn, so a slow stretch
/// of the host (or the frequency one loop leaves behind) lands on all of
/// them rather than on whichever ran then.
fn time_alternating<const N: usize>(
    reps: usize,
    iters: usize,
    mut fs: [&mut dyn FnMut(); N],
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (f, best) in fs.iter_mut().zip(&mut best) {
            *best = best.min(time_per_call(1, iters, &mut **f));
        }
    }
    best
}

struct ShapeResult<'a> {
    shape: &'a GemmShape,
    flops: f64,
    ref_secs: f64,
    new_secs: f64,
}

fn bench_shape(shape: &GemmShape, smoke: bool) -> ShapeResult<'_> {
    let &GemmShape {
        kernel,
        ref layer,
        batch,
        m,
        k,
        n,
        ..
    } = shape;
    let (a_len, b_len) = match kernel {
        "nn" => (m * k, k * n),
        "nt" => (m * k, n * k),
        "tn" => (k * m, k * n),
        other => unreachable!("unknown kernel {other}"),
    };
    let a = fill(a_len, 11);
    let b = fill(b_len, 22);
    let mut c_ref = vec![0.0f32; m * n];
    let mut c_new = vec![0.0f32; m * n];
    let run_ref: &dyn Fn(&mut [f32]) = &|c| match kernel {
        "nn" => ref_matmul_nn(&a, &b, c, m, k, n),
        "nt" => ref_matmul_nt(&a, &b, c, m, k, n),
        _ => ref_matmul_tn(&a, &b, c, m, k, n),
    };
    let run_new: &dyn Fn(&mut [f32]) = &|c| match kernel {
        "nn" => matmul_nn(&a, &b, c, m, k, n),
        "nt" => matmul_nt(&a, &b, c, m, k, n),
        _ => matmul_tn(&a, &b, c, m, k, n),
    };

    // Correctness checksum: same fold order ⇒ bitwise-equal outputs (the
    // exhaustive proof lives in pop-nn's identity and property tests).
    run_ref(&mut c_ref);
    run_new(&mut c_new);
    let same = c_ref
        .iter()
        .zip(&c_new)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        same,
        "{kernel}/{layer} b{batch}: new kernel diverged from reference"
    );

    // Size iterations so each measurement is long enough to trust: pilot
    // one call, target ~60 ms per timed pass (1 pass in smoke mode).
    let t0 = Instant::now();
    c_ref.fill(0.0);
    run_ref(&mut c_ref);
    let pilot = t0.elapsed().as_secs_f64().max(1e-6);
    let iters = if smoke {
        1
    } else {
        ((0.06 / pilot).ceil() as usize).clamp(2, 400)
    };
    let reps = if smoke { 1 } else { 3 };

    let ref_secs = time_per_call(reps, iters, || {
        c_ref.fill(0.0);
        run_ref(&mut c_ref);
    });
    let new_secs = time_per_call(reps, iters, || {
        c_new.fill(0.0);
        run_new(&mut c_new);
    });
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    println!(
        "b{batch} {kernel}/{layer} ({m}x{k}x{n}): ref {:.1} us {:.2} GFLOP/s, new {:.1} us \
         {:.2} GFLOP/s, {:.2}x",
        ref_secs * 1e6,
        flops / ref_secs / 1e9,
        new_secs * 1e6,
        flops / new_secs / 1e9,
        ref_secs / new_secs
    );
    ShapeResult {
        shape,
        flops,
        ref_secs,
        new_secs,
    }
}

struct LoweringResult {
    op: &'static str,
    layer: String,
    batch: usize,
    secs: f64,
}

/// `im2col` / `col2im` at one layer's geometry, as the inference plan runs
/// them: `batch` samples laid channel-major (the layout every plan layer
/// but the first reads and every one but the last writes), lowered in the
/// plan's sample groups. A `PlannedConv` with one filter lowers exactly
/// what the real block lowers and multiplies `1/out_c` of it; a
/// `PlannedDeconv` with one input channel gathers the real block's `cols`
/// out of a rank-one product. What is timed is everything the block does
/// around its GEMM — lowering, scratch buffers, bias, output layout — plus
/// that sliver of GEMM.
fn bench_lowering(l: &LayerGeom, batch: usize, smoke: bool) -> LoweringResult {
    let (dims, plane) = ((l.side, l.side), l.side * l.side);
    let (in_c, out_c, out_plane) = if l.deconv {
        (1, l.out_c, 4 * plane)
    } else {
        (l.in_c, 1, plane / 4)
    };
    let x = Tensor::randn([1, in_c, l.side, batch * l.side], 0.0, 0.5, 5);
    let input = Batch::channel_major(x.data(), batch, plane);
    let mut y = vec![0.0f32; out_c * batch * out_plane];
    let block: Box<dyn Fn(&mut BatchMut<'_>)> = if l.deconv {
        let block = ConvTranspose2d::new(1, out_c, 4, 2, 1, 3).plan(None, Activation::Identity);
        Box::new(move |y| block.forward(input, dims, batch, y))
    } else {
        let block = Conv2d::new(in_c, 1, 4, 2, 1, 3).plan(None, Activation::Identity);
        Box::new(move |y| block.forward(input, dims, batch, y))
    };
    let mut forward = || block(&mut BatchMut::channel_major(&mut y, batch, out_plane));
    let t0 = Instant::now();
    forward();
    let pilot = t0.elapsed().as_secs_f64().max(1e-6);
    let (reps, iters) = if smoke {
        (1, 1)
    } else {
        (5, ((0.02 / pilot).ceil() as usize).clamp(2, 2000))
    };
    let secs = time_per_call(reps, iters, &mut forward);
    let op = if l.deconv { "col2im" } else { "im2col" };
    println!("b{batch} {op}/{}: {:.1} us", l.name(), secs * 1e6);
    LoweringResult {
        op,
        layer: l.name(),
        batch,
        secs,
    }
}

/// Seconds per call of `matmul_nt` (the `DOT` seed through a packed `Bᵀ`)
/// and of `matmul_nn` (the `ACC` seed) on the same `m × k × n`: at
/// `n ≡ 9..15 (mod 16)` both end in a zero-padded 16-lane panel.
fn bench_dot_tail(n: usize, smoke: bool) -> (f64, f64) {
    const M: usize = 96;
    const K: usize = 512;
    let (a, b) = (fill(M * K, 31), fill(K * n, 32));
    let mut c = vec![0.0f32; M * n];
    let (reps, iters) = if smoke { (1, 1) } else { (7, 40) };
    let nt = time_per_call(reps, iters, || matmul_nt(&a, &b, &mut c, M, K, n));
    let nn = time_per_call(reps, iters, || matmul_nn(&a, &b, &mut c, M, K, n));
    println!(
        "dot tail ({M}x{K}x{n}): nt {:.1} us, nn {:.1} us, nt/nn {:.2}",
        nt * 1e6,
        nn * 1e6,
        nt / nn
    );
    (nt, nn)
}

/// Bytes of `A` a `narrow_tn` row cycles through: four times a core's
/// 2 MiB L2 on the recording host, so each call finds its `A` evicted by
/// the copies before it, as a whole forward finds a layer's weights.
const COLD_BYTES: usize = 8 << 20;

struct NarrowTnRow {
    layer: String,
    /// `product` (`TnWeights::product`, a planned deconvolution's forward)
    /// or `tn_set` (`matmul_tn_set`, a training convolution's input
    /// gradient).
    via: &'static str,
    batch: usize,
    mkn: (usize, usize, usize),
    copies: usize,
    secs: f64,
}

/// The `tn` products at narrow `n` that take the transposed-output form,
/// with `A` cold: the batch-1 and batch-5 `dec1` / `dec2` forwards through
/// `TnWeights::product` and the batch-1 training `enc3`–`enc5` input
/// gradients (`Wᵀ·dY`, `A` = the `out_c × in_c·16` weights) through
/// `matmul_tn_set`. Each row cycles its calls over enough copies of `A` to
/// fill [`COLD_BYTES`]; the `shapes` rows reuse one hot `A` and cannot see
/// how `A` streams. Min over rounds that alternate the rows.
fn bench_narrow_tn(layers: &[LayerGeom], smoke: bool) -> Vec<NarrowTnRow> {
    let layer = |name: &str| {
        let found = layers.iter().find(|l| l.name() == name);
        *found.unwrap_or_else(|| panic!("the model has no layer {name}"))
    };
    let mut rows = Vec::new();
    for batch in [1, 5] {
        for name in ["dec1", "dec2"] {
            let (_, mkn) = layer(name).forward_gemm(batch);
            rows.push((name, "product", batch, mkn));
        }
    }
    for name in ["enc3", "enc4", "enc5"] {
        let l = layer(name);
        let out = l.side / 2;
        rows.push((name, "tn_set", 1, (l.in_c * 16, l.out_c, out * out)));
    }
    let mut calls: Vec<(usize, Box<dyn FnMut()>)> = rows
        .iter()
        .map(|&(_, via, _, (m, k, n))| {
            let copies = COLD_BYTES.div_ceil(4 * m * k).max(2);
            let weights: Vec<Vec<f32>> = (0..copies).map(|i| fill(k * m, 50 + i as u64)).collect();
            let (b, mut c, mut next) = (fill(k * n, 41), vec![0.0f32; m * n], 0);
            let call: Box<dyn FnMut()> = if via == "product" {
                let weights: Vec<TnWeights> =
                    weights.iter().map(|a| TnWeights::new(a, m, k)).collect();
                Box::new(move || {
                    weights[next].product(&b, n, &mut c, n);
                    next = (next + 1) % copies;
                })
            } else {
                Box::new(move || {
                    matmul_tn_set(&weights[next], &b, &mut c, m, k, n);
                    next = (next + 1) % copies;
                })
            };
            (copies, call)
        })
        .collect();
    let rounds = if smoke { 1 } else { 30 };
    let mut best = vec![f64::INFINITY; rows.len()];
    for round in 0..=rounds {
        for ((copies, call), best) in calls.iter_mut().zip(&mut best) {
            // Twice around the copies; the first round packs and warms.
            let secs = time_per_call(1, 2 * *copies, &mut **call);
            if round > 0 {
                *best = best.min(secs);
            }
        }
    }
    let results: Vec<NarrowTnRow> = rows
        .into_iter()
        .zip(calls.iter().map(|&(copies, _)| copies))
        .zip(best)
        .map(|(((layer, via, batch, mkn), copies), secs)| NarrowTnRow {
            layer: layer.to_string(),
            via,
            batch,
            mkn,
            copies,
            secs,
        })
        .collect();
    for r in &results {
        let (m, k, n) = r.mkn;
        println!(
            "narrow tn b{} {} ({} {m}x{k}x{n}, A cold over {} copies): {:.1} us",
            r.batch,
            r.layer,
            r.via,
            r.copies,
            r.secs * 1e6
        );
    }
    results
}

/// One whole f32 `forecast_batch` of the quick model at `batch`.
fn bench_whole_forward(batch: usize, smoke: bool) -> f64 {
    let config = ExperimentConfig::quick();
    let mut model = Pix2Pix::new(&config, 7).expect("quick config");
    let res = config.resolution;
    let xs: Vec<Tensor> = (0..batch as u64)
        .map(|i| Tensor::randn([1, config.input_channels(), res, res], 0.0, 0.5, 100 + i))
        .collect();
    let refs: Vec<&Tensor> = xs.iter().collect();
    let _ = model.forecast_batch(&refs);
    let (reps, iters) = if smoke { (1, 1) } else { (7, 40 / batch + 2) };
    let secs = time_per_call(reps, iters, || {
        std::hint::black_box(model.forecast_batch(&refs));
    });
    println!(
        "whole forward (quick, batch {batch}): {:.1} us, {:.1} us per image",
        secs * 1e6,
        secs * 1e6 / batch as f64
    );
    secs
}

struct LedgerRow {
    batch: usize,
    block: String,
    /// Lowering, GEMM and finish, µs per image.
    us: [f64; 3],
}

/// The whole `forecast_batch` of the `explore` model
/// (`ExperimentConfig::quick()`, seed 11) at batch 1 and 8, split per
/// block into lowering, GEMM and finish (`InferencePlan::
/// forecast_batch_split`): `reps` rounds alternating the two batch sizes,
/// the min of each row over the rounds. A transposed convolution's finish
/// runs as a pass of its own here (inside `col2im` in a plain forward).
fn bench_forward_ledger(smoke: bool) -> Vec<LedgerRow> {
    let config = ExperimentConfig::quick();
    let mut model = Pix2Pix::new(&config, 11).expect("quick config");
    let plan = model.plan();
    let res = config.resolution;
    let inputs: Vec<Vec<Tensor>> = [1u64, 8]
        .iter()
        .map(|&batch| {
            (0..batch)
                .map(|i| Tensor::randn([1, config.input_channels(), res, res], 0.0, 0.5, 200 + i))
                .collect()
        })
        .collect();
    let batches: Vec<Vec<&Tensor>> = inputs.iter().map(|xs| xs.iter().collect()).collect();
    let depth = config.depth;
    let names: Vec<String> = (0..2 * depth)
        .map(|b| match b < depth {
            true => format!("enc{b}"),
            false => format!("dec{}", b - depth),
        })
        .collect();
    let mut best = vec![vec![[f64::INFINITY; 3]; names.len()]; batches.len()];
    let reps = if smoke { 1 } else { 60 };
    for round in 0..=reps {
        for (refs, best) in batches.iter().zip(&mut best) {
            let (_, splits) = plan.forecast_batch_split(refs);
            if round == 0 {
                continue; // the first forward at a batch size warms the workspace
            }
            for (split, best) in splits.iter().zip(best.iter_mut()) {
                let phases = [split.lower, split.gemm, split.finish];
                for (phase, best) in phases.iter().zip(best.iter_mut()) {
                    *best = best.min(phase.as_secs_f64() * 1e6 / refs.len() as f64);
                }
            }
        }
    }
    let mut rows = Vec::new();
    for (refs, best) in batches.iter().zip(best) {
        let batch = refs.len();
        for (block, us) in names.iter().zip(best) {
            println!(
                "ledger b{batch} {block}: lower {:.1} + gemm {:.1} + finish {:.1} us per image",
                us[0], us[1], us[2]
            );
            rows.push(LedgerRow {
                batch,
                block: block.clone(),
                us,
            });
        }
        let total = |i: usize| -> f64 {
            rows.iter()
                .filter(|r| r.batch == batch)
                .map(|r| r.us[i])
                .sum()
        };
        let (lower, gemm, finish) = (total(0), total(1), total(2));
        println!(
            "forward ledger, batch {batch}: lower {lower:.1} + gemm {gemm:.1} + finish {finish:.1} \
             = {:.1} us per image",
            lower + gemm + finish
        );
    }
    rows
}

struct CodecRow {
    /// The `serve_http` ledger row the call is: `client.encode`, …
    call: &'static str,
    /// `request` (features) or `response` (a forecast).
    body: &'static str,
    values: usize,
    /// Seconds per body.
    secs: f64,
}

/// The four JSON codec calls of one `serve_http` exchange, on that
/// workload's own bodies: 16 requests of SHA × 0.1 features at 32×32
/// (`assemble_input` of the placement and connectivity renderings, sweep
/// seed 1) and their forecasts by its untrained model (32×32, 8 filters,
/// depth 4, seed 11). `client.encode` renders a request, `http.decode`
/// parses one, `http.encode` renders a response (as a `String`; the
/// server writes the same bytes into its own buffer) and `client.decode`
/// parses one. Min of 40 rounds, the four calls alternating, each round
/// over all 16 bodies.
fn bench_codec(smoke: bool) -> Vec<CodecRow> {
    const BODIES: usize = 16;
    let config = ExperimentConfig {
        resolution: 32,
        base_filters: 8,
        depth: 4,
        ..ExperimentConfig::test()
    };
    let mut model = Pix2Pix::new(&config, 11).expect("the serving config");
    let spec = pop_netlist::presets::by_name("SHA").expect("a Table-2 preset");
    let design = ExperimentConfig {
        design_scale: 0.1,
        pairs_per_design: BODIES,
        seed: 1,
        ..config.clone()
    };
    let ctx = DesignContext::prepare(&spec, &design).expect("the preset prepares");
    let features: Vec<Tensor> = ctx
        .sweep_options()
        .iter()
        .map(|popts| {
            let placement = ctx.place_stage(popts).expect("the preset places").0;
            let place = render_placement(&ctx.arch, &ctx.netlist, &placement, config.resolution);
            let connect =
                render_connectivity(&ctx.arch, &ctx.netlist, &placement, config.resolution);
            assemble_input(&place, &connect, &design)
        })
        .collect();
    let forecasts: Vec<Tensor> = features.iter().map(|x| model.forecast(x)).collect();
    let requests: Vec<String> = features
        .iter()
        .map(|x| api::render_forecast_request(None, false, x.data()))
        .collect();
    let responses: Vec<String> = forecasts
        .iter()
        .map(|y| api::render_forecast_response("hot", false, y))
        .collect();
    let decoded = requests.iter().zip(&features).all(|(body, x)| {
        api::parse_forecast_request(body.as_bytes()).is_ok_and(|r| r.features == x.data())
    }) && responses
        .iter()
        .zip(&forecasts)
        .all(|(body, y)| api::parse_forecast_response(body.as_bytes()).is_ok_and(|t| t == *y));
    assert!(
        decoded,
        "a codec body did not read back as what was written"
    );
    let secs = time_alternating(
        if smoke { 1 } else { 40 },
        1,
        [
            &mut || {
                for x in &features {
                    std::hint::black_box(api::render_forecast_request(None, false, x.data()));
                }
            },
            &mut || {
                for body in &requests {
                    let _ = std::hint::black_box(api::parse_forecast_request(body.as_bytes()));
                }
            },
            &mut || {
                for y in &forecasts {
                    std::hint::black_box(api::render_forecast_response("hot", false, y));
                }
            },
            &mut || {
                for body in &responses {
                    let _ = std::hint::black_box(api::parse_forecast_response(body.as_bytes()));
                }
            },
        ],
    );
    let shapes = [
        ("client.encode", "request", features[0].data().len()),
        ("http.decode", "request", features[0].data().len()),
        ("http.encode", "response", forecasts[0].data().len()),
        ("client.decode", "response", forecasts[0].data().len()),
    ];
    shapes
        .iter()
        .zip(secs)
        .map(|(&(call, body, values), secs)| {
            let secs = secs / BODIES as f64;
            println!(
                "codec {call} ({body}, {values} values): {:.2} ns per value, {:.1} us per body",
                secs * 1e9 / values as f64,
                secs * 1e6
            );
            CodecRow {
                call,
                body,
                values,
                secs,
            }
        })
        .collect()
}

struct TanhResult {
    input: &'static str,
    /// Seconds per 64×64×3 image: `f32::tanh` per element, then the kernel.
    secs: (f64, f64),
    /// Whether the kernel stored `f32::tanh`'s bits for every element.
    bit_equal: bool,
}

/// The generator's final `tanh` over one batch-8 output of the `explore`
/// workload's model (`ExperimentConfig::quick()`, seed 11, on eight SHA
/// placements at scale 0.1, seed 1): `f32::tanh` per element against
/// `pop_nn::tanh_in_place`, on the model's real pre-activations and on an
/// even `[-3, 3]` sweep. The pre-activations are read back from the
/// forecast as `atanh` (in f64): exact up to rounding while no output
/// saturates to ±1, which the bench asserts. Both loops start from a copy
/// of the inputs, so the copy is in both rows.
fn bench_tanh(smoke: bool) -> Vec<TanhResult> {
    const BATCH: usize = 8;
    let config = ExperimentConfig::quick();
    let mut model = Pix2Pix::new(&config, 11).expect("quick config");
    let spec = pop_netlist::presets::by_name("SHA").expect("a Table-2 preset");
    let design = ExperimentConfig {
        design_scale: 0.1,
        pairs_per_design: BATCH,
        seed: 1,
        ..config.clone()
    };
    let ctx = DesignContext::prepare(&spec, &design).expect("the preset prepares");
    let xs: Vec<Tensor> = ctx
        .sweep_options()
        .iter()
        .map(|popts| {
            let placement = ctx.place_stage(popts).expect("the preset places").0;
            placement_input(&ctx.arch, &ctx.netlist, &placement, &design)
        })
        .collect();
    let refs: Vec<&Tensor> = xs.iter().collect();
    let forecast: Vec<f32> = model
        .forecast_batch(&refs)
        .iter()
        .flat_map(|y| y.data().to_vec())
        .collect();
    assert!(
        forecast.iter().all(|y| y.abs() < 1.0),
        "a saturated output has no pre-activation to read back"
    );
    let pre: Vec<f32> = forecast
        .iter()
        .map(|&y| (y as f64).atanh() as f32)
        .collect();
    let n = pre.len();
    let sweep: Vec<f32> = (0..n)
        .map(|i| (-3.0 + 6.0 * i as f64 / (n - 1) as f64) as f32)
        .collect();
    let (reps, iters) = if smoke { (1, 1) } else { (7, 200) };
    [("explore_preactivations", pre), ("sweep_-3_3", sweep)]
        .into_iter()
        .map(|(input, xs)| {
            let mut libm = xs.clone();
            libm.iter_mut().for_each(|v| *v = v.tanh());
            let mut kernel = xs.clone();
            pop_nn::tanh_in_place(&mut kernel);
            let bit_equal = libm
                .iter()
                .zip(&kernel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let libm_secs = time_per_call(reps, iters, || {
                libm.copy_from_slice(&xs);
                libm.iter_mut().for_each(|v| *v = v.tanh());
                std::hint::black_box(&mut libm);
            });
            let kernel_secs = time_per_call(reps, iters, || {
                kernel.copy_from_slice(&xs);
                pop_nn::tanh_in_place(&mut kernel);
                std::hint::black_box(&mut kernel);
            });
            let per_image = (libm_secs / BATCH as f64, kernel_secs / BATCH as f64);
            println!(
                "tanh ({input}): libm {:.1} us, kernel {:.1} us per 64x64x3 image \
                 ({:.2}x, bit-equal to f32::tanh: {bit_equal})",
                per_image.0 * 1e6,
                per_image.1 * 1e6,
                per_image.0 / per_image.1
            );
            TanhResult {
                input,
                secs: per_image,
                bit_equal,
            }
        })
        .collect()
}

struct InferenceResult {
    f32_images_per_sec: f64,
    quant_images_per_sec: f64,
    quant_speedup: f64,
    quant_max_abs_delta: f64,
}

/// End-to-end `forecast_batch` at the serve shape: f32 vs the i8-quantized
/// forecaster, same weights, same batch.
fn bench_inference(smoke: bool) -> InferenceResult {
    const BATCH: usize = 8;
    let config = ExperimentConfig::quick();
    let mut model = Pix2Pix::new(&config, 7).expect("quick config");
    let quant = model.quantized();
    let xs: Vec<Tensor> = (0..BATCH)
        .map(|i| {
            Tensor::randn(
                [
                    1,
                    config.input_channels(),
                    config.resolution,
                    config.resolution,
                ],
                0.0,
                0.5,
                100 + i as u64,
            )
        })
        .collect();
    let refs: Vec<&Tensor> = xs.iter().collect();

    let f32_out = model.forecast_batch(&refs);
    let quant_out = quant.forecast_batch(&refs).expect("quantized forecast");
    let mut max_delta = 0.0f64;
    for (f, q) in f32_out.iter().zip(&quant_out) {
        for (a, b) in f.data().iter().zip(q.data()) {
            max_delta = max_delta.max((a - b).abs() as f64);
        }
    }

    let (reps, iters) = if smoke { (1, 1) } else { (6, 3) };
    let [f32_secs, quant_secs] = time_alternating(
        reps,
        iters,
        [
            &mut || {
                let _ = model.forecast_batch(&refs);
            },
            &mut || {
                let _ = quant.forecast_batch(&refs).expect("quantized forecast");
            },
        ],
    );
    let f32_ips = BATCH as f64 / f32_secs;
    let quant_ips = BATCH as f64 / quant_secs;
    println!(
        "forecast_batch (quick, batch {BATCH}): f32 {f32_ips:.2} img/s, \
         quantized {quant_ips:.2} img/s ({:.2}x), max |Δ| {max_delta:.4}",
        quant_ips / f32_ips
    );
    InferenceResult {
        f32_images_per_sec: f32_ips,
        quant_images_per_sec: quant_ips,
        quant_speedup: quant_ips / f32_ips,
        quant_max_abs_delta: max_delta,
    }
}

struct TrainResult {
    /// `(inline, joined)` seconds of one whole `train_step`.
    train_secs: (f64, f64),
    /// `(inline, joined)` [`StepSplit`] over the alternated steps.
    split_us: (StepSplit, StepSplit),
    adam_params: usize,
    adam_ref_secs: f64,
    /// `(inline, joined)` seconds of one `Adam::step`.
    adam_secs: (f64, f64),
}

/// One join site: a layer's backward pass at one of the model's layer
/// geometries, `(inline, joined)` seconds.
struct SiteResult {
    site: &'static str,
    layer: String,
    secs: (f64, f64),
}

/// The five convolutions of the quick discriminator as
/// `(in_c, out_c, stride, input side)`, checked against the model's own
/// weight sizes (its parameter list opens with each convolution's weight
/// and bias) — a table that disagrees with `PatchDiscriminator` aborts the
/// bench.
fn discriminator_layers(
    config: &ExperimentConfig,
    model: &mut Pix2Pix,
) -> Vec<(usize, usize, usize, usize)> {
    let f = config.base_filters;
    let (cin, res) = (config.input_channels() + 3, config.resolution);
    let plan = vec![
        (cin, f, 2, res),
        (f, 2 * f, 2, res / 2),
        (2 * f, 4 * f, 2, res / 4),
        (4 * f, 8 * f, 1, res / 8),
        (8 * f, 1, 1, res / 8 - 1),
    ];
    let weights: Vec<usize> = model
        .discriminator_mut()
        .params_mut()
        .iter()
        .map(|p| p.len())
        .step_by(2)
        .take(plan.len())
        .collect();
    let planned: Vec<usize> = plan.iter().map(|&(i, o, _, _)| i * o * 16).collect();
    assert_eq!(
        weights, planned,
        "discriminator table disagrees with the model"
    );
    plan
}

/// One join site ready to time: a layer at one of the model's geometries,
/// its input and an output gradient.
struct Site {
    site: &'static str,
    name: String,
    layer: Box<dyn Layer>,
    x: Tensor,
    dy: Tensor,
}

impl Site {
    fn new(site: &'static str, name: String, mut layer: Box<dyn Layer>, x: Tensor) -> Self {
        let dy = Tensor::randn(layer.forward(&x).shape(), 0.0, 0.5, 9);
        let _ = layer.backward(&dy);
        Site {
            site,
            name,
            layer,
            x,
            dy,
        }
    }

    /// Minimum seconds of one backward over `samples`. Every sample needs
    /// its own training forward (backward consumes the cache), so the
    /// clock runs around the backward call only.
    fn backward_secs(&mut self, samples: usize) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let _ = self.layer.forward(&self.x);
            let t = Instant::now();
            std::hint::black_box(self.layer.backward(&self.dy));
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }
}

/// Conv / deconv backward at the generator's twelve and the
/// discriminator's five layer geometries.
fn join_sites(layers: &[LayerGeom], config: &ExperimentConfig, model: &mut Pix2Pix) -> Vec<Site> {
    let mut sites = Vec::new();
    for l in layers {
        let x = Tensor::randn([1, l.in_c, l.side, l.side], 0.0, 0.5, 3);
        let name = format!("g.{}", l.name());
        sites.push(if l.deconv {
            let layer = Box::new(ConvTranspose2d::new(l.in_c, l.out_c, 4, 2, 1, 5));
            Site::new("deconv_backward", name, layer, x)
        } else {
            let layer = Box::new(Conv2d::new(l.in_c, l.out_c, 4, 2, 1, 5));
            Site::new("conv_backward", name, layer, x)
        });
    }
    for (i, (in_c, out_c, stride, side)) in
        discriminator_layers(config, model).into_iter().enumerate()
    {
        let x = Tensor::randn([1, in_c, side, side], 0.0, 0.5, 3);
        let layer = Box::new(Conv2d::new(in_c, out_c, 4, stride, 1, 5));
        sites.push(Site::new("conv_backward", format!("d.{i}"), layer, x));
    }
    sites
}

/// The three-loop `Adam::step` this repository shipped until the fused
/// pass (gradient copy, one loop per moment, indexed update) — the "old"
/// side of the `adam_step` row.
fn ref_adam_step(adam: &Adam, t: i32, params: &mut [Param]) {
    let bc1 = 1.0 - adam.beta1.powi(t);
    let bc2 = 1.0 - adam.beta2.powi(t);
    for p in params.iter_mut() {
        let g = p.grad.data().to_vec();
        for (mv, &gv) in p.m.data_mut().iter_mut().zip(&g) {
            *mv = adam.beta1 * *mv + (1.0 - adam.beta1) * gv;
        }
        for (vv, &gv) in p.v.data_mut().iter_mut().zip(&g) {
            *vv = adam.beta2 * *vv + (1.0 - adam.beta2) * gv * gv;
        }
        for i in 0..g.len() {
            let mhat = p.m.data()[i] / bc1;
            let vhat = p.v.data()[i] / bc2;
            p.value.data_mut()[i] -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
        }
    }
}

/// Min-of-`reps` seconds per `Adam::step` over `params`, each step on
/// `grads` copied in outside the clock: the step clears the gradients it
/// reads, and stepping on what it left would time updates from zero
/// gradients, with moments decaying towards subnormals.
fn time_adam_step(
    reps: usize,
    iters: usize,
    adam: &mut Adam,
    params: &mut [Param],
    grads: &[Tensor],
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut elapsed = Duration::ZERO;
        for _ in 0..iters {
            for (p, g) in params.iter_mut().zip(grads) {
                p.grad.data_mut().copy_from_slice(g.data());
            }
            let mut list: Vec<&mut Param> = params.iter_mut().collect();
            let t = Instant::now();
            adam.step(&mut list);
            elapsed += t.elapsed();
        }
        best = best.min(elapsed.as_secs_f64() / iters as f64);
    }
    best
}

/// The registry histograms every `train_step` records: its four phases,
/// which add up to the last, the whole step.
const STEP_LEDGER: [&str; 5] = [
    "train.fork_us",
    "train.d_fake_us",
    "train.g_backward_us",
    "train.opt_g_us",
    "train.step_us",
];

/// `(count, sum)` of each [`STEP_LEDGER`] histogram, now.
fn step_ledger() -> [(u64, u64); 5] {
    let snapshot = pop_obs::global().snapshot();
    STEP_LEDGER.map(|name| {
        snapshot
            .histogram(name)
            .map_or((0, 0), |h| (h.count, h.sum))
    })
}

/// Mean µs per step of each [`STEP_LEDGER`] row over the steps recorded
/// since the reading `before`.
fn step_split_since(before: [(u64, u64); 5]) -> [f64; 5] {
    let after = step_ledger();
    std::array::from_fn(|i| {
        let steps = (after[i].0 - before[i].0).max(1);
        (after[i].1 - before[i].1) as f64 / steps as f64
    })
}

/// Each [`STEP_LEDGER`] row over many single steps: the minimum, and the
/// first quartile, median and third quartile, µs.
struct StepSplit {
    steps: usize,
    min: [f64; 5],
    quartiles: [[f64; 3]; 5],
}

impl StepSplit {
    /// Per-row order statistics of `steps`, each one step's split.
    fn of(steps: &[[f64; 5]]) -> Self {
        let row = |i: usize| {
            let mut v: Vec<f64> = steps.iter().map(|s| s[i]).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let at = |v: &[f64], q: f64| v.get(((v.len() - 1) as f64 * q).round() as usize).copied();
        StepSplit {
            steps: steps.len(),
            min: std::array::from_fn(|i| at(&row(i), 0.0).unwrap_or(f64::NAN)),
            quartiles: std::array::from_fn(|i| {
                let v = row(i);
                [0.25, 0.5, 0.75].map(|q| at(&v, q).unwrap_or(f64::NAN))
            }),
        }
    }
}

/// `inline` and `joined` splits of `rounds` train steps each, the two
/// alternating step by step so that a slow stretch of the host lands on
/// both, with a pause between rounds: each step's own [`STEP_LEDGER`]
/// reading.
fn alternated_step_splits(
    model: &mut Pix2Pix,
    x: &Tensor,
    truth: &Tensor,
    rounds: usize,
) -> (StepSplit, StepSplit) {
    let step = |model: &mut Pix2Pix| {
        let before = step_ledger();
        let _ = model.train_step(x, truth);
        step_split_since(before)
    };
    let (mut inline, mut joined) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let ((), split) = pop_exec::join(|| (), || step(model));
        inline.push(split);
        joined.push(step(model));
        std::thread::sleep(Duration::from_millis(2));
    }
    (StepSplit::of(&inline), StepSplit::of(&joined))
}

/// `fork 2702 + d_fake 1180 + g_backward 2338 + opt_g 590 = 6810 us`.
fn split_line(split: &[f64; 5]) -> String {
    format!(
        "fork {:.0} + d_fake {:.0} + g_backward {:.0} + opt_g {:.0} = {:.0} us",
        split[0], split[1], split[2], split[3], split[4]
    )
}

/// `{ "fork": 2702.0, …, "step": 6810.0 }`, keyed by the rows' middle names.
fn split_json(split: &[f64; 5]) -> String {
    let fields: Vec<String> = STEP_LEDGER
        .iter()
        .zip(split)
        .map(|(name, us)| {
            let key = name.trim_start_matches("train.").trim_end_matches("_us");
            format!("\"{key}\": {us:.1}")
        })
        .collect();
    format!("{{ {} }}", fields.join(", "))
}

/// `fork 2601/2702/2810 + … = 6700/6810/6950 us`: first quartile, median
/// and third quartile of each row.
fn quartiles_line(quartiles: &[[f64; 3]; 5]) -> String {
    let q = |i: usize| {
        let [a, b, c]: [f64; 3] = quartiles[i];
        format!("{a:.0}/{b:.0}/{c:.0}")
    };
    format!(
        "fork {} + d_fake {} + g_backward {} + opt_g {} = {} us",
        q(0),
        q(1),
        q(2),
        q(3),
        q(4)
    )
}

/// `{ "fork": [2601.0, 2702.0, 2810.0], … }`: each row's quartiles.
fn quartiles_json(quartiles: &[[f64; 3]; 5]) -> String {
    let fields: Vec<String> = STEP_LEDGER
        .iter()
        .zip(quartiles)
        .map(|(name, [a, b, c])| {
            let key = name.trim_start_matches("train.").trim_end_matches("_us");
            format!("\"{key}\": [{a:.1}, {b:.1}, {c:.1}]")
        })
        .collect();
    format!("{{ {} }}", fields.join(", "))
}

/// One whole batch-1 `train_step` of the quick model with the split of its
/// wall clock, `Adam::step` over the generator's parameters (old
/// three-loop formulation vs the fused pass, same gradients, bit-equal
/// weights and moments afterwards) and every join site, each inline and
/// joined.
fn bench_training(layers: &[LayerGeom], smoke: bool) -> (TrainResult, Vec<SiteResult>) {
    let config = ExperimentConfig::quick();
    let mut model = Pix2Pix::new(&config, 7).expect("quick config");
    let res = config.resolution;
    let x = Tensor::randn([1, config.input_channels(), res, res], 0.0, 0.5, 1);
    let truth = Tensor::randn([1, 3, res, res], 0.0, 0.5, 2);
    let (reps, iters, samples) = if smoke { (1, 1, 1) } else { (5, 4, 40) };

    let mut new_params: Vec<Param> = model
        .generator_mut()
        .params_mut()
        .into_iter()
        .map(|p| p.clone())
        .collect();
    let grads: Vec<Tensor> = (50..)
        .zip(&new_params)
        .map(|(seed, p)| Tensor::randn(p.value.shape(), 0.0, 0.1, seed))
        .collect();
    // The reference keeps its gradients, so it steps on `grads` every time.
    let mut ref_params = new_params.clone();
    for (p, g) in ref_params.iter_mut().zip(&grads) {
        p.grad = g.clone();
    }
    let adam_params = new_params.iter().map(Param::len).sum();
    let mut adam = Adam::paper();
    // The two passes below take `2 · reps · iters` fused steps: the
    // reference runs as many, so the two parameter sets stay comparable
    // bit for bit.
    let mut t = 0;
    let adam_ref_secs = time_per_call(2 * reps, iters, || {
        t += 1;
        ref_adam_step(&adam, t, &mut ref_params);
    });

    // One pass over everything that forks: `(train_step, adam_step,
    // sites)`, after `warm_up` of train steps.
    let mut sites = join_sites(layers, &config, &mut model);
    let mut pass = |model: &mut Pix2Pix, warm_up: Duration| {
        let started = Instant::now();
        while started.elapsed() < warm_up {
            let _ = model.train_step(&x, &truth);
        }
        let train = time_per_call(reps, iters, || {
            let _ = model.train_step(&x, &truth);
        });
        let adam = time_adam_step(reps, iters, &mut adam, &mut new_params, &grads);
        let site_secs: Vec<f64> = sites.iter_mut().map(|s| s.backward_secs(samples)).collect();
        (train, adam, site_secs)
    };
    // Inline: from the caller half of an outer join, where the helper is
    // taken. Joined: plainly, once a second of forks has given the
    // scheduler time to put the helper on a core of its own.
    let ((), inline) = pop_exec::join(|| (), || pass(&mut model, Duration::ZERO));
    let joined = pass(&mut model, Duration::from_secs(if smoke { 0 } else { 1 }));
    // The split: one step at a time, inline and joined in turn, read from
    // each step's own ledger (a mean of a few steps moved 1.5× between
    // runs of one binary).
    let split = alternated_step_splits(&mut model, &x, &truth, if smoke { 2 } else { 60 });
    let same = ref_params.iter().zip(&new_params).all(|(r, n)| {
        let cleared = n.grad.data().iter().all(|g| g.to_bits() == 0);
        r.value == n.value && r.m == n.m && r.v == n.v && cleared
    });
    assert!(
        same,
        "fused Adam diverged from the three-loop formulation or left a gradient"
    );

    println!(
        "train_step (quick, batch 1): inline {:.2} ms, joined {:.2} ms, {:.2}x; \
         adam_step ({adam_params} params): ref {:.1} us, inline {:.1} us, joined {:.1} us",
        inline.0 * 1e3,
        joined.0 * 1e3,
        inline.0 / joined.0,
        adam_ref_secs * 1e6,
        inline.1 * 1e6,
        joined.1 * 1e6,
    );
    for (way, split) in [("inline", &split.0), ("joined", &split.1)] {
        println!(
            "train_step split, {way} (min of {} steps): {}",
            split.steps,
            split_line(&split.min)
        );
        println!(
            "train_step split, {way} (q1/median/q3 of {} steps): {}",
            split.steps,
            quartiles_line(&split.quartiles)
        );
    }
    let site_rows = sites
        .iter()
        .zip(inline.2.iter().zip(&joined.2))
        .map(|(s, (&inline, &joined))| {
            println!(
                "join site {}/{}: inline {:.1} us, joined {:.1} us, {:.2}x",
                s.site,
                s.name,
                inline * 1e6,
                joined * 1e6,
                inline / joined
            );
            SiteResult {
                site: s.site,
                layer: s.name.clone(),
                secs: (inline, joined),
            }
        })
        .collect();
    let training = TrainResult {
        train_secs: (inline.0, joined.0),
        split_us: split,
        adam_params,
        adam_ref_secs,
        adam_secs: (inline.1, joined.1),
    };
    (training, site_rows)
}

/// One batch-1 `train_step` at `ExperimentConfig::paper()` (256×256, base
/// filters 64, depth 8), `(inline, joined)`: seconds and the split.
struct PaperStep {
    secs: (f64, f64),
    split_us: ([f64; 5], [f64; 5]),
}

/// The first full-size training row: one untimed step (the thread
/// workspaces and the first-touched pages grow in it, and the helper is
/// woken), then one step joined and one inline, each with the split it
/// records. Full mode only: a step takes seconds and the model ≈ 1 GB.
fn bench_paper_step() -> PaperStep {
    let config = ExperimentConfig::paper();
    let mut model = Pix2Pix::new(&config, 7).expect("paper config");
    let res = config.resolution;
    let x = Tensor::randn([1, config.input_channels(), res, res], 0.0, 0.5, 1);
    let truth = Tensor::randn([1, 3, res, res], 0.0, 0.5, 2);
    let _ = model.train_step(&x, &truth);
    let mut step = || {
        let before = step_ledger();
        let t = Instant::now();
        let _ = model.train_step(&x, &truth);
        (t.elapsed().as_secs_f64(), step_split_since(before))
    };
    let joined = step();
    let ((), inline) = pop_exec::join(|| (), step);
    println!(
        "train_step (paper, batch 1): inline {:.0} ms, joined {:.0} ms, {:.2}x",
        inline.0 * 1e3,
        joined.0 * 1e3,
        inline.0 / joined.0
    );
    for (way, split) in [("inline", &inline.1), ("joined", &joined.1)] {
        println!("train_step_paper split, {way}: {}", split_line(split));
    }
    PaperStep {
        secs: (inline.0, joined.0),
        split_us: (inline.1, joined.1),
    }
}

/// The x86 features this host reports, and which `linalg` instantiation
/// its runtime dispatch therefore picks.
fn cpu_features() -> (String, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        let mut have = vec!["sse2"];
        if std::arch::is_x86_feature_detected!("avx") {
            have.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            have.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            have.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            have.push("avx512f");
        }
        let instantiation = if have.contains(&"avx512f") {
            "avx512"
        } else if have.contains(&"avx2") {
            "avx2"
        } else {
            "baseline"
        };
        (have.join(" "), instantiation)
    }
    #[cfg(not(target_arch = "x86_64"))]
    (std::env::consts::ARCH.to_string(), "baseline")
}

/// The block-shape sweep behind `linalg`'s blocks of two registers per
/// row: a standalone copy of the kernel over the quick model's twelve
/// forward GEMMs at batch 5, µs per image, every variant bit-equal to
/// 4 × 8 — on a 2-vCPU AVX2 host (recorded when the panel was widened to
/// 16 lanes), then on a 2-vCPU AVX-512F host (when it was widened to 32),
/// where a 4 × 32 build that pads a 9–31-column tail into a 32-lane panel
/// instead of following `linalg`'s tail rule is a figure of its own. The
/// AVX-512F block heights are five runs each of a probe that alternates
/// the three builds, min of 20 rounds per run, at batch 5 and at batch 8
/// (the same twelve GEMMs, `n` scaled to the batch); the host's speed
/// moved between runs, so compare within a run.
const BLOCK_SWEEP: &str = "avx2 rows x lanes, us per image: 4x8 969, 4x16 815, 4x24 818, \
     3x16 892, 6x16 1133, 6x8 1046, 8x8 1405; avx-512f host: avx2 4x16 1356, \
     avx-512 4x16 1096, avx-512 4x32 944, avx-512 4x32 with tails padded to 32 lanes 2128; \
     avx-512 block heights, batch 5: 4x32 502 702 803 815 809, 8x32 468 686 724 731 729, \
     12x32 472 686 659 688 688; batch 8: 4x32 817 816 814 809 809, \
     8x32 735 735 734 728 723, 12x32 698 700 688 693 691";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut notes: Vec<String> = vec![format!(
        "profile.bench: lto=thin, codegen-units=1, debug=true (workspace Cargo.toml)"
    )];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--note" {
            notes.push(
                it.next()
                    .expect("--note requires a value")
                    .replace('"', "'"),
            );
        }
    }
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (features, instantiation) = cpu_features();
    println!(
        "kernels bench ({}), host parallelism {host_parallelism}, cpu features [{features}], \
         linalg instantiation {instantiation}",
        if smoke { "smoke" } else { "full" }
    );

    let layers = generator_layers(&ExperimentConfig::quick());
    let table = shapes(&layers);
    let results: Vec<ShapeResult> = table.iter().map(|s| bench_shape(s, smoke)).collect();

    // Whole-forward-pass kernel throughput: total GEMM work over total GEMM
    // time for one batch-8 forecast.
    let fwd: Vec<&ShapeResult> = results.iter().filter(|r| r.shape.batch == 8).collect();
    let fwd_flops: f64 = fwd.iter().map(|r| r.flops).sum();
    let fwd_ref: f64 = fwd.iter().map(|r| r.ref_secs).sum();
    let fwd_new: f64 = fwd.iter().map(|r| r.new_secs).sum();
    let fwd_speedup = fwd_ref / fwd_new;
    println!(
        "forward-pass GEMMs: ref {:.2} GFLOP/s, new {:.2} GFLOP/s, speedup {fwd_speedup:.2}x",
        fwd_flops / fwd_ref / 1e9,
        fwd_flops / fwd_new / 1e9
    );

    // What a `train_step` spends in its weight-gradient GEMMs.
    let bwd = results.iter().filter(|r| r.shape.kernel == "nt");
    let (bwd_ref, bwd_new) = bwd.fold((0.0, 0.0), |(r, n), s| {
        let calls = s.shape.calls as f64;
        (r + calls * s.ref_secs, n + calls * s.new_secs)
    });
    println!(
        "train_step weight-gradient GEMMs: ref {:.2} ms, new {:.2} ms, {:.2}x",
        bwd_ref * 1e3,
        bwd_new * 1e3,
        bwd_ref / bwd_new
    );

    let lowering: Vec<LoweringResult> = [1, 8]
        .iter()
        .flat_map(|&batch| layers.iter().map(move |l| (l, batch)))
        .map(|(l, batch)| bench_lowering(l, batch, smoke))
        .collect();
    for batch in [1, 8] {
        let of = |op: &str| -> f64 {
            let rows = lowering.iter().filter(|r| r.batch == batch && r.op == op);
            rows.map(|r| r.secs).sum::<f64>() * 1e6 / batch as f64
        };
        println!(
            "lowering, batch {batch}: im2col {:.1} + col2im {:.1} us per image",
            of("im2col"),
            of("col2im")
        );
    }
    let whole_forward: Vec<(usize, f64)> = [1, 5, 8]
        .iter()
        .map(|&batch| (batch, bench_whole_forward(batch, smoke)))
        .collect();
    let ledger = bench_forward_ledger(smoke);

    let dot_tail: Vec<(usize, (f64, f64))> = [9, 41]
        .iter()
        .map(|&n| (n, bench_dot_tail(n, smoke)))
        .collect();
    let narrow_tn = bench_narrow_tn(&layers, smoke);

    let tanh = bench_tanh(smoke);
    let codec = bench_codec(smoke);
    let (training, join_sites) = bench_training(&layers, smoke);
    let paper_step = (!smoke).then(bench_paper_step);
    let inference = bench_inference(smoke);

    if !smoke {
        assert!(
            fwd_speedup >= 1.3,
            "batched-inference kernel throughput must be ≥1.3x the PR-1 kernels \
             (got {fwd_speedup:.2}x)"
        );
        // The gate compares like with like: the i8 path is 128-bit SSE2
        // `pmaddwd`, so it must beat the 128-bit f32 kernels. Against the
        // AVX2 and AVX-512F f32 instantiations it has no wider counterpart
        // yet (ROADMAP "Spend the ledger" (c)); there the result is
        // reported, and a miss recorded in the artefact, instead of gated.
        if instantiation == "baseline" {
            assert!(
                inference.quant_speedup > 1.0,
                "quantized inference must beat f32 (got {:.2}x)",
                inference.quant_speedup
            );
        } else if inference.quant_speedup <= 1.0 {
            let miss = format!(
                "CLAIM NOT MET: quantized inference does not beat the {instantiation} f32 \
                 kernels ({:.2}x)",
                inference.quant_speedup
            );
            println!("{miss}");
            notes.push(miss);
        }
    }
    assert!(
        inference.quant_max_abs_delta < 0.1,
        "quantized outputs drifted from f32 (max |Δ| {:.4})",
        inference.quant_max_abs_delta
    );

    let shapes_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{ \"kernel\": \"{}\", \"layer\": \"{}\", \"batch\": {}, \"calls\": {}, \
                 \"m\": {}, \"k\": {}, \"n\": {}, \"us_ref\": {:.1}, \"us_new\": {:.1}, \
                 \"gflops_ref\": {:.4}, \"gflops_new\": {:.4}, \"speedup\": {:.4} }}",
                r.shape.kernel,
                r.shape.layer,
                r.shape.batch,
                r.shape.calls,
                r.shape.m,
                r.shape.k,
                r.shape.n,
                r.ref_secs * 1e6,
                r.new_secs * 1e6,
                r.flops / r.ref_secs / 1e9,
                r.flops / r.new_secs / 1e9,
                r.ref_secs / r.new_secs
            )
        })
        .collect();
    let lowering_json: Vec<String> = lowering
        .iter()
        .map(|r| {
            format!(
                "    {{ \"op\": \"{}\", \"layer\": \"{}\", \"batch\": {}, \"us\": {:.1} }}",
                r.op,
                r.layer,
                r.batch,
                r.secs * 1e6
            )
        })
        .collect();
    let whole_forward_json: Vec<String> = whole_forward
        .iter()
        .map(|&(batch, secs)| {
            format!(
                "    {{ \"batch\": {batch}, \"us\": {:.1}, \"us_per_image\": {:.1} }}",
                secs * 1e6,
                secs * 1e6 / batch as f64
            )
        })
        .collect();
    let ledger_json: Vec<String> = ledger
        .iter()
        .map(|r| {
            format!(
                "    {{ \"batch\": {}, \"block\": \"{}\", \"us_lower\": {:.1}, \
                 \"us_gemm\": {:.1}, \"us_finish\": {:.1} }}",
                r.batch, r.block, r.us[0], r.us[1], r.us[2]
            )
        })
        .collect();
    let dot_tail_json: Vec<String> = dot_tail
        .iter()
        .map(|&(n, (nt, nn))| {
            format!(
                "    {{ \"m\": 96, \"k\": 512, \"n\": {n}, \"us_nt\": {:.1}, \
                 \"us_nn\": {:.1}, \"nt_over_nn\": {:.4} }}",
                nt * 1e6,
                nn * 1e6,
                nt / nn
            )
        })
        .collect();
    let narrow_tn_json: Vec<String> = narrow_tn
        .iter()
        .map(|r| {
            let (m, k, n) = r.mkn;
            format!(
                "    {{ \"layer\": \"{}\", \"via\": \"{}\", \"batch\": {}, \"m\": {m}, \
                 \"k\": {k}, \"n\": {n}, \"a_copies\": {}, \"us\": {:.1} }}",
                r.layer,
                r.via,
                r.batch,
                r.copies,
                r.secs * 1e6
            )
        })
        .collect();
    let join_sites_json: Vec<String> = join_sites
        .iter()
        .map(|r| {
            format!(
                "    {{ \"site\": \"{}\", \"layer\": \"{}\", \"us_inline\": {:.1}, \
                 \"us_joined\": {:.1}, \"speedup\": {:.4} }}",
                r.site,
                r.layer,
                r.secs.0 * 1e6,
                r.secs.1 * 1e6,
                r.secs.0 / r.secs.1
            )
        })
        .collect();
    let tanh_json: Vec<String> = tanh
        .iter()
        .map(|r| {
            format!(
                "    {{ \"input\": \"{}\", \"us_per_image_libm\": {:.1}, \
                 \"us_per_image_kernel\": {:.1}, \"speedup\": {:.4}, \"bit_equal\": {} }}",
                r.input,
                r.secs.0 * 1e6,
                r.secs.1 * 1e6,
                r.secs.0 / r.secs.1,
                r.bit_equal
            )
        })
        .collect();
    let codec_json: Vec<String> = codec
        .iter()
        .map(|r| {
            format!(
                "    {{ \"call\": \"{}\", \"body\": \"{}\", \"values\": {}, \
                 \"ns_per_value\": {:.2}, \"us_per_body\": {:.1} }}",
                r.call,
                r.body,
                r.values,
                r.secs * 1e9 / r.values as f64,
                r.secs * 1e6
            )
        })
        .collect();
    let paper_step_json = paper_step.map_or(String::new(), |p| {
        format!(
            "  \"train_step_paper\": {{ \"config\": \"paper\", \"batch\": 1, \
             \"ms_inline\": {:.1}, \"ms_joined\": {:.1}, \"speedup\": {:.4}, \
             \"split_us_inline\": {}, \"split_us_joined\": {} }},\n",
            p.secs.0 * 1e3,
            p.secs.1 * 1e3,
            p.secs.0 / p.secs.1,
            split_json(&p.split_us.0),
            split_json(&p.split_us.1),
        )
    });
    let notes_json: Vec<String> = notes.iter().map(|n| format!("    \"{n}\"")).collect();
    let (block_rows, panel_lanes) = match instantiation {
        "avx512" => (12, 32),
        "avx2" => (4, 16),
        _ => (4, 8),
    };
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"smoke\": {smoke},\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"cpu_features\": \"{features}\",\n  \
         \"linalg_instantiation\": \"{instantiation}\",\n  \
         \"block\": {{ \"rows\": {block_rows}, \"panel_lanes\": {panel_lanes}, \
         \"sweep\": \"{BLOCK_SWEEP}\" }},\n  \
         \"serve_shape\": {{ \"config\": \"quick\", \"resolution\": 64, \"batch\": 8 }},\n  \
         \"shapes\": [\n{}\n  ],\n  \
         \"forward_pass\": {{ \"gflops_ref\": {:.4}, \"gflops_new\": {:.4}, \
         \"speedup\": {:.4} }},\n  \
         \"weight_gradients\": {{ \"ms_ref\": {:.4}, \"ms_new\": {:.4}, \
         \"speedup\": {:.4} }},\n  \
         \"lowering\": [\n{}\n  ],\n  \
         \"whole_forward\": [\n{}\n  ],\n  \
         \"forward_ledger\": {{ \"config\": \"quick\", \"seed\": 11, \
         \"unit\": \"us per image, min of 60 rounds alternating batch 1 and 8\", \
         \"rows\": [\n{}\n  ] }},\n  \
         \"dot_tail\": [\n{}\n  ],\n  \
         \"narrow_tn\": {{ \"a_cold_bytes\": {COLD_BYTES}, \
         \"unit\": \"us per call, min of 30 rounds alternating the rows\", \
         \"rows\": [\n{}\n  ] }},\n  \
         \"tanh\": [\n{}\n  ],\n  \
         \"codec\": {{ \"bodies\": \"serve_http: 16 SHA x 0.1 requests at 32x32 and their forecasts\", \
         \"unit\": \"min of 40 rounds alternating the four calls\", \
         \"rows\": [\n{}\n  ] }},\n  \
         \"train_step\": {{ \"config\": \"quick\", \"batch\": 1, \
         \"host_parallelism\": {host_parallelism}, \"ms_inline\": {:.4}, \
         \"ms_joined\": {:.4}, \"speedup\": {:.4}, \"split_steps\": {}, \
         \"split_us_inline\": {}, \"split_us_joined\": {}, \
         \"split_quartiles_us_inline\": {}, \"split_quartiles_us_joined\": {} }},\n{}  \
         \"adam_step\": {{ \"params\": {}, \"gradients\": \"fresh per step\", \
         \"us_ref\": {:.1}, \"us_inline\": {:.1}, \"us_joined\": {:.1}, \"speedup\": {:.4} }},\n  \
         \"join_sites\": [\n{}\n  ],\n  \
         \"inference\": {{ \"f32_images_per_sec\": {:.4}, \
         \"quant_images_per_sec\": {:.4}, \"quant_speedup\": {:.4}, \
         \"quant_max_abs_delta\": {:.6} }},\n  \
         \"notes\": [\n{}\n  ]\n}}\n",
        shapes_json.join(",\n"),
        fwd_flops / fwd_ref / 1e9,
        fwd_flops / fwd_new / 1e9,
        fwd_speedup,
        bwd_ref * 1e3,
        bwd_new * 1e3,
        bwd_ref / bwd_new,
        lowering_json.join(",\n"),
        whole_forward_json.join(",\n"),
        ledger_json.join(",\n"),
        dot_tail_json.join(",\n"),
        narrow_tn_json.join(",\n"),
        tanh_json.join(",\n"),
        codec_json.join(",\n"),
        training.train_secs.0 * 1e3,
        training.train_secs.1 * 1e3,
        training.train_secs.0 / training.train_secs.1,
        training.split_us.0.steps,
        split_json(&training.split_us.0.min),
        split_json(&training.split_us.1.min),
        quartiles_json(&training.split_us.0.quartiles),
        quartiles_json(&training.split_us.1.quartiles),
        paper_step_json,
        training.adam_params,
        training.adam_ref_secs * 1e6,
        training.adam_secs.0 * 1e6,
        training.adam_secs.1 * 1e6,
        training.adam_secs.0 / training.adam_secs.1,
        join_sites_json.join(",\n"),
        inference.f32_images_per_sec,
        inference.quant_images_per_sec,
        inference.quant_speedup,
        inference.quant_max_abs_delta,
        notes_json.join(",\n"),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&out, &json).expect("write BENCH_kernels.json");

    // Sanity-parse the artefact back: the keys CI greps for must survive a
    // write/read round trip, and every number must have serialized finite.
    let back = std::fs::read_to_string(&out).expect("read BENCH_kernels.json back");
    for key in [
        "\"bench\": \"kernels\"",
        "\"shapes\"",
        "\"forward_pass\"",
        "\"lowering\"",
        "\"op\": \"im2col\"",
        "\"op\": \"col2im\"",
        "\"whole_forward\"",
        "\"us_per_image\"",
        "\"forward_ledger\"",
        "\"us_finish\"",
        "\"dot_tail\": [",
        "\"nt_over_nn\"",
        "\"narrow_tn\"",
        "\"via\": \"tn_set\"",
        "\"tanh\": [",
        "\"us_per_image_kernel\"",
        "\"codec\": {",
        "\"call\": \"client.decode\"",
        "\"split_quartiles_us_joined\": { \"fork\": [",
        "\"batch\": 1",
        "\"train_step\"",
        "\"ms_inline\"",
        "\"ms_joined\"",
        "\"split_us_joined\": { \"fork\"",
        "\"adam_step\"",
        "\"gradients\": \"fresh per step\"",
        "\"join_sites\"",
        "\"site\": \"deconv_backward\"",
        "\"linalg_instantiation\"",
        "\"panel_lanes\"",
        "\"speedup\"",
        "\"quant_speedup\"",
        "\"notes\"",
    ] {
        assert!(back.contains(key), "artefact missing {key}");
    }
    assert!(
        !back.contains("NaN") && !back.contains(": inf") && !back.contains(": -inf"),
        "artefact contains non-finite numbers"
    );
    println!("wrote {}", out.display());
}
