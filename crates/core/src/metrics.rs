//! Evaluation metrics of §5.1 — per-pixel accuracy (Table 2 Acc.1/Acc.2),
//! Top-k min-congestion retrieval, rank correlations and an NRMS pixel
//! error — behind a **single-pass** evaluation API.
//!
//! [`MetricSet::evaluate`] runs *one* batched inference sweep over a
//! dataset (through the [`Forecaster`] contract, so a locked model, an
//! exclusive borrow and the serving engine's client all work) and feeds
//! every metric from that sweep's per-pair records ([`PairEval`]). The
//! historical shape — each metric helper re-running its own forward passes
//! — is gone; the classic entry points ([`evaluate_accuracy`],
//! [`congestion_correlation`], [`top10_accuracy`]) are thin wrappers over
//! the same pass.
//!
//! The scalar metrics are **total functions with defined edge cases**: no
//! `NaN` ever leaves this module for finite inputs. Ties, constant vectors
//! and empty/oversized `k` are all given documented values (see each
//! function), because an evaluation *matrix* aggregates thousands of these
//! values and one `NaN` cell poisons every mean downstream.

use crate::config::ExperimentConfig;
use crate::dataset::{DesignDataset, Pair};
use crate::error::CoreError;
use crate::features::tensor_to_image;
use crate::forecaster::{ExclusiveForecaster, Forecaster};
use crate::trainer::Pix2Pix;
use pop_raster::metrics::per_pixel_accuracy;
use pop_raster::{Image, Layout};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Mean per-pixel accuracy of the model's forecasts over `pairs`
/// ("per-pixel accuracy between the generated image and ground truth
/// image"), computed from one batched inference sweep.
///
/// # Errors
///
/// Returns [`CoreError::Eval`] when a pair's resolution does not match the
/// model's output (a mixed-resolution corpus), naming the offending design
/// and index — instead of aborting a whole evaluation sweep with a panic.
pub fn evaluate_accuracy(
    model: &mut Pix2Pix,
    pairs: &[Pair],
    tolerance: f32,
) -> Result<f32, CoreError> {
    let metrics = MetricSet {
        tolerance,
        ..MetricSet::default()
    };
    let forecaster = ExclusiveForecaster::new(model);
    // Grid (0, 0): accuracy needs no congestion decode.
    let evals = metrics.evaluate_pairs(&forecaster, pairs, 0, 0)?;
    Ok(metrics.summarize(&evals).accuracy)
}

/// Decodes a (predicted or true) heat-map image into a scalar congestion
/// estimate: the mean utilisation over all routing-channel pixels, read
/// back through the yellow→purple colour bar.
pub fn image_mean_congestion(grid_width: usize, grid_height: usize, img: &Image) -> f32 {
    if grid_width == 0 || grid_height == 0 {
        return 0.0;
    }
    let pixels = channel_pixels(grid_width, grid_height, img.width(), img.height());
    let mut sum = 0.0f64;
    for &(px, py) in pixels.iter() {
        sum += pop_raster::color::utilization_from_color(img.pixel_rgb8(px, py)) as f64;
    }
    if pixels.is_empty() {
        0.0
    } else {
        (sum / pixels.len() as f64) as f32
    }
}

/// The routing-channel pixels of a `width × height` image of a
/// `grid_w × grid_h` [`Layout`] (side `width`), as `(px, py)` in raster
/// order.
type ChannelPixels = Arc<[(usize, usize)]>;

/// [`ChannelPixels`] per `(grid_w, grid_h, width, height)` so far in this
/// process: a scored candidate classifies no pixel, and one geometry per
/// fabric and image size is never evicted.
static CHANNEL_PIXELS: Mutex<BTreeMap<(usize, usize, usize, usize), ChannelPixels>> =
    Mutex::new(BTreeMap::new());

/// [`ChannelPixels`] of one geometry, classified by [`Layout::owner`] the
/// first time it is asked for. Every update is one insert, so a lock
/// poisoned elsewhere is still good.
fn channel_pixels(grid_w: usize, grid_h: usize, width: usize, height: usize) -> ChannelPixels {
    let key = (grid_w, grid_h, width, height);
    let cached = CHANNEL_PIXELS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .cloned();
    cached.unwrap_or_else(|| {
        let layout = Layout::new(grid_w, grid_h, width);
        let pixels: ChannelPixels = (0..height)
            .flat_map(|py| (0..width).map(move |px| (px, py)))
            .filter(|&(px, py)| matches!(layout.owner(px, py), pop_raster::PixelOwner::Channel(_)))
            .collect();
        CHANNEL_PIXELS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, pixels.clone());
        pixels
    })
}

/// Per-pixel accuracy restricted to **routing-channel pixels** — the
/// pixels a congestion forecast actually has to *predict*. Full-image
/// accuracy (Table 2's Acc.) structurally favours analytical estimators
/// rendered through the ground-truth pipeline: their block tiles and
/// background are pixel-perfect by construction, while a generative model
/// must paint them. Restricting to the channels makes the learned-vs-
/// analytical comparison like-for-like at the detail level (the paper's
/// actual claim).
///
/// Returns `0.0` when the grid is degenerate (`0` either way) or the
/// image has no channel pixels.
///
/// # Errors
///
/// Returns [`CoreError::Eval`] when the images differ in shape.
pub fn channel_accuracy(
    grid_width: usize,
    grid_height: usize,
    pred: &Image,
    truth: &Image,
    tolerance: f32,
) -> Result<f32, CoreError> {
    if (pred.width(), pred.height(), pred.channels())
        != (truth.width(), truth.height(), truth.channels())
    {
        return Err(CoreError::Eval(format!(
            "channel accuracy: image shapes differ ({}x{}x{} vs {}x{}x{})",
            pred.width(),
            pred.height(),
            pred.channels(),
            truth.width(),
            truth.height(),
            truth.channels()
        )));
    }
    if grid_width == 0 || grid_height == 0 {
        return Ok(0.0);
    }
    let layout = Layout::new(grid_width, grid_height, pred.width());
    let mut correct = 0usize;
    let mut count = 0usize;
    for py in 0..pred.height() {
        for px in 0..pred.width() {
            if !matches!(layout.owner(px, py), pop_raster::PixelOwner::Channel(_)) {
                continue;
            }
            count += 1;
            let within = (0..pred.channels())
                .all(|ch| (pred.get(px, py, ch) - truth.get(px, py, ch)).abs() <= tolerance);
            if within {
                correct += 1;
            }
        }
    }
    if count == 0 {
        Ok(0.0)
    } else {
        Ok(correct as f32 / count as f32)
    }
}

/// Fraction of the true best-`k` elements that the predicted ranking also
/// places in its best `k` (both rankings ascending: lower = better).
/// `Top10 = 80%` in the paper means 8 of the 10 selected placements are
/// truly among the 10 least congested.
///
/// Ties are handled by *threshold sets*: an element belongs to a ranking's
/// top-`k` iff its score is ≤ the `k`-th smallest score, so every element
/// tied at the boundary is included, and the overlap is normalised by the
/// larger of the two set sizes. Membership therefore depends only on score
/// values — never on input order — which makes the metric deterministic
/// and invariant under permuting both vectors together, even for
/// tie-heavy or constant inputs (where index tie-breaking used to make the
/// result order-dependent).
///
/// Defined edge cases: `k` is clamped to the vector length; `k = 0` (or
/// empty inputs) returns `1.0` — the empty selection is vacuously perfect.
/// The result is always in `[0, 1]` and equals `1.0` whenever the two
/// score vectors are identical.
///
/// # Panics
///
/// Panics when the score slices differ in length.
pub fn top_k_overlap(pred_scores: &[f32], true_scores: &[f32], k: usize) -> f32 {
    assert_eq!(pred_scores.len(), true_scores.len(), "score count");
    let k = k.min(pred_scores.len());
    if k == 0 {
        return 1.0;
    }
    let top_set = |scores: &[f32]| -> Vec<bool> {
        let mut sorted = scores.to_vec();
        sorted.sort_by(f32::total_cmp);
        let threshold = sorted[k - 1];
        scores
            .iter()
            .map(|v| v.total_cmp(&threshold) != std::cmp::Ordering::Greater)
            .collect()
    };
    let pred_top = top_set(pred_scores);
    let true_top = top_set(true_scores);
    let hits = pred_top
        .iter()
        .zip(&true_top)
        .filter(|(p, t)| **p && **t)
        .count();
    let pred_size = pred_top.iter().filter(|p| **p).count();
    let true_size = true_top.iter().filter(|t| **t).count();
    hits as f32 / pred_size.max(true_size) as f32
}

/// Whether every element of `v` compares equal (a zero-variance vector).
fn is_constant(v: &[f32]) -> bool {
    v.windows(2)
        .all(|w| w[0].total_cmp(&w[1]) == std::cmp::Ordering::Equal)
}

/// Pearson correlation between two score vectors (how linearly the
/// predicted congestion tracks the truth across placements).
///
/// Defined edge cases: fewer than two samples, or either vector constant
/// (zero standard deviation — where the textbook formula divides by zero),
/// yield `0.0`; the result is clamped to `[-1, 1]` so floating-point drift
/// can never push a report out of range.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "score count");
    let n = a.len();
    if n < 2 || is_constant(a) || is_constant(b) {
        return 0.0;
    }
    let ma: f64 = a.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
    let mb: f64 = b.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x as f64 - ma) * (y as f64 - mb);
        va += (x as f64 - ma).powi(2);
        vb += (y as f64 - mb).powi(2);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    let r = cov / (va.sqrt() * vb.sqrt());
    if r.is_finite() {
        r.clamp(-1.0, 1.0) as f32
    } else {
        0.0
    }
}

/// Spearman rank correlation (Pearson over ranks) — the metric that
/// matters for placement *selection*: a perfectly monotone but non-linear
/// forecast still ranks placements correctly.
///
/// Tied scores receive their **average rank** (the standard fractional
/// ranking), so the result depends only on score values — permuting both
/// vectors together never changes it — and identical vectors score `1.0`
/// even when tie-heavy. Degenerate inputs follow [`pearson`]'s rules
/// (constant vector → `0.0`, result clamped to `[-1, 1]`).
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn spearman(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "score count");
    let ranks = |v: &[f32]| -> Vec<f32> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0f32; v.len()];
        let mut pos = 0;
        while pos < idx.len() {
            let mut end = pos + 1;
            while end < idx.len()
                && v[idx[end]].total_cmp(&v[idx[pos]]) == std::cmp::Ordering::Equal
            {
                end += 1;
            }
            // Average rank of the tie group [pos, end).
            let avg = (pos + end - 1) as f32 / 2.0;
            for &i in &idx[pos..end] {
                r[i] = avg;
            }
            pos = end;
        }
        r
    };
    pearson(&ranks(a), &ranks(b))
}

/// Normalised root-mean-square pixel error between a forecast and the
/// truth: RMSE divided by the truth's value range (`max − min`), the
/// resolution-independent "how far off is each pixel on average" number
/// Table 2's accuracies round away. When the truth is constant (zero
/// range) the divisor falls back to `1.0`, so the metric stays defined:
/// `nrms ≥ 0` always, and `0` exactly when the two slices match.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn nrms(pred: &[f32], truth: &[f32]) -> f32 {
    assert_eq!(pred.len(), truth.len(), "value count");
    if pred.is_empty() {
        return 0.0;
    }
    let mse: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p as f64 - t as f64).powi(2))
        .sum::<f64>()
        / pred.len() as f64;
    let (min, max) = truth.iter().fold((f32::INFINITY, f32::NEG_INFINITY), {
        |(lo, hi), &v| (lo.min(v), hi.max(v))
    });
    let range = (max - min) as f64;
    let denom = if range.is_finite() && range > 0.0 {
        range
    } else {
        1.0
    };
    (mse.sqrt() / denom) as f32
}

/// Everything one batched forward pass reveals about a single pair: the
/// per-pair records every aggregate metric is computed from. Callers that
/// need metrics over *slices* of a dataset (e.g. Table 2's Acc.2 over the
/// pairs not used for fine-tuning) slice these records instead of
/// re-running inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEval {
    /// Per-pixel accuracy of the forecast vs the routed truth.
    pub accuracy: f32,
    /// Per-pixel accuracy over routing-channel pixels only (`0.0` when
    /// the evaluation ran without fabric grid dimensions).
    pub channel_accuracy: f32,
    /// NRMS pixel error of the forecast tensor vs the truth tensor.
    pub nrms: f32,
    /// Scalar congestion decoded from the *predicted* heat map.
    pub pred_congestion: f32,
    /// Ground-truth mean congestion (from routing, via [`Pair`] meta).
    pub true_congestion: f32,
}

/// Which metrics to compute and how — the reusable evaluation policy.
///
/// One [`MetricSet::evaluate`] call runs a single batched inference sweep
/// and derives *all* metrics (accuracy, top-k overlap, Pearson, Spearman,
/// NRMS) from it; there are no per-metric forward re-runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    /// Per-pixel accuracy tolerance (per channel).
    pub tolerance: f32,
    /// Fraction of placements in the retrieval set: `k = ⌈n·fraction⌉`
    /// (at least 1) — the "top-10%" knob that scales with eval-set size.
    pub top_fraction: f64,
    /// Fixed `k` override (e.g. the paper's literal Top10); `None` uses
    /// [`MetricSet::top_fraction`].
    pub top_count: Option<usize>,
    /// Micro-batch size of the inference sweep (memory/throughput knob;
    /// the result is bitwise-independent of it).
    pub batch: usize,
}

impl Default for MetricSet {
    /// Paper-shaped defaults: 16/255 tolerance, top-10% retrieval,
    /// batches of 8.
    fn default() -> Self {
        MetricSet {
            tolerance: 16.0 / 255.0,
            top_fraction: 0.1,
            top_count: None,
            batch: 8,
        }
    }
}

impl MetricSet {
    /// A metric set using `config`'s accuracy tolerance.
    pub fn from_config(config: &ExperimentConfig) -> Self {
        MetricSet {
            tolerance: config.tolerance,
            ..MetricSet::default()
        }
    }

    /// The same metrics with a fixed top-`k` count (the paper's Top10).
    #[must_use]
    pub fn with_top_count(mut self, k: usize) -> Self {
        self.top_count = Some(k);
        self
    }

    /// The retrieval-set size for an `n`-pair evaluation.
    pub fn top_k(&self, n: usize) -> usize {
        let k = match self.top_count {
            Some(k) => k,
            None => ((n as f64 * self.top_fraction).ceil() as usize).max(1),
        };
        k.min(n)
    }

    /// The single batched inference sweep: forecasts every pair exactly
    /// once (in [`MetricSet::batch`]-sized chunks through
    /// [`Forecaster::forecast_batch`]) and extracts each pair's record.
    /// `grid_width`/`grid_height` locate the routing channels for the
    /// congestion decode; pass `(0, 0)` to skip it (accuracy-only use).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Eval`] on a model/pair resolution mismatch
    /// (naming the design and index) and propagates forecaster failures.
    pub fn evaluate_pairs(
        &self,
        model: &dyn Forecaster,
        pairs: &[Pair],
        grid_width: usize,
        grid_height: usize,
    ) -> Result<Vec<PairEval>, CoreError> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(self.batch.max(1)) {
            let xs: Vec<&pop_nn::Tensor> = chunk.iter().map(|p| &p.x).collect();
            let preds = model.forecast_batch(&xs)?;
            if preds.len() != chunk.len() {
                return Err(CoreError::Eval(format!(
                    "forecaster returned {} predictions for {} inputs",
                    preds.len(),
                    chunk.len()
                )));
            }
            for (pred, p) in preds.iter().zip(chunk) {
                let pred_img = tensor_to_image(pred);
                let truth_img = tensor_to_image(&p.y);
                let accuracy =
                    per_pixel_accuracy(&pred_img, &truth_img, self.tolerance).map_err(|e| {
                        CoreError::Eval(format!(
                            "pair {}[{}]: forecast vs truth: {e}",
                            p.meta.design, p.meta.index
                        ))
                    })?;
                out.push(PairEval {
                    accuracy,
                    channel_accuracy: channel_accuracy(
                        grid_width,
                        grid_height,
                        &pred_img,
                        &truth_img,
                        self.tolerance,
                    )?,
                    nrms: nrms(pred.data(), p.y.data()),
                    pred_congestion: image_mean_congestion(grid_width, grid_height, &pred_img),
                    true_congestion: p.meta.true_mean_congestion,
                });
            }
        }
        Ok(out)
    }

    /// Aggregates per-pair records into an [`EvalReport`] — pure
    /// arithmetic, no inference. An empty slice yields the all-zero
    /// report.
    pub fn summarize(&self, evals: &[PairEval]) -> EvalReport {
        let n = evals.len();
        if n == 0 {
            return EvalReport {
                pairs: 0,
                accuracy: 0.0,
                channel_accuracy: 0.0,
                top_overlap: 0.0,
                pearson: 0.0,
                spearman: 0.0,
                nrms: 0.0,
            };
        }
        let mean = |f: fn(&PairEval) -> f32| -> f32 {
            (evals.iter().map(|e| f(e) as f64).sum::<f64>() / n as f64) as f32
        };
        let pred: Vec<f32> = evals.iter().map(|e| e.pred_congestion).collect();
        let truth: Vec<f32> = evals.iter().map(|e| e.true_congestion).collect();
        EvalReport {
            pairs: n,
            accuracy: mean(|e| e.accuracy),
            channel_accuracy: mean(|e| e.channel_accuracy),
            top_overlap: top_k_overlap(&pred, &truth, self.top_k(n)),
            pearson: pearson(&pred, &truth),
            spearman: spearman(&pred, &truth),
            nrms: mean(|e| e.nrms),
        }
    }

    /// Evaluates `model` on a whole dataset: one batched inference sweep
    /// ([`MetricSet::evaluate_pairs`]) feeding every metric
    /// ([`MetricSet::summarize`]).
    ///
    /// # Errors
    ///
    /// Propagates [`MetricSet::evaluate_pairs`] failures.
    pub fn evaluate(
        &self,
        model: &dyn Forecaster,
        ds: &DesignDataset,
    ) -> Result<EvalReport, CoreError> {
        let evals = self.evaluate_pairs(model, &ds.pairs, ds.grid_width, ds.grid_height)?;
        Ok(self.summarize(&evals))
    }
}

/// All Table-2 metrics of one `(model, dataset)` evaluation, produced by a
/// single batched inference pass. Every field is finite for finite inputs
/// (the scalar metrics define their edge cases instead of emitting `NaN`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// How many pairs were evaluated.
    pub pairs: usize,
    /// Mean per-pixel accuracy (Table 2 "Acc.").
    pub accuracy: f32,
    /// Mean per-pixel accuracy over routing-channel pixels only — the
    /// like-for-like detail metric against analytical baselines.
    pub channel_accuracy: f32,
    /// Top-k min-congestion retrieval overlap (Table 2 "Top10", scaled to
    /// the eval-set size via [`MetricSet::top_k`]).
    pub top_overlap: f32,
    /// Pearson correlation of predicted vs routed mean congestion.
    pub pearson: f32,
    /// Spearman rank correlation of predicted vs routed mean congestion.
    pub spearman: f32,
    /// Mean NRMS pixel error (lower is better; 0 = pixel-perfect).
    pub nrms: f32,
}

impl EvalReport {
    /// Whether every metric is a finite number — the "no NaN cells"
    /// invariant evaluation matrices assert.
    pub fn is_finite(&self) -> bool {
        [
            self.accuracy,
            self.channel_accuracy,
            self.top_overlap,
            self.pearson,
            self.spearman,
            self.nrms,
        ]
        .iter()
        .all(|v| v.is_finite())
    }
}

/// Predicted-vs-true congestion correlation over a whole dataset:
/// `(pearson, spearman)` from one batched inference sweep.
///
/// # Errors
///
/// Propagates evaluation failures (resolution mismatches).
pub fn congestion_correlation(
    model: &mut Pix2Pix,
    ds: &DesignDataset,
) -> Result<(f32, f32), CoreError> {
    let report = MetricSet::default().evaluate(&ExclusiveForecaster::new(model), ds)?;
    Ok((report.pearson, report.spearman))
}

/// The Table 2 `Top10` metric: forecast every placement of the held-out
/// design, rank by predicted mean congestion, and measure overlap with the
/// ground-truth top 10.
///
/// # Errors
///
/// Propagates evaluation failures (resolution mismatches).
pub fn top10_accuracy(model: &mut Pix2Pix, ds: &DesignDataset) -> Result<f32, CoreError> {
    let report = MetricSet::default()
        .with_top_count(10)
        .evaluate(&ExclusiveForecaster::new(model), ds)?;
    Ok(report.top_overlap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_accuracy_reports_resolution_mismatch_instead_of_panicking() {
        use crate::dataset::PairMeta;
        use crate::{ExperimentConfig, Pix2Pix};
        use pop_nn::Tensor;
        let config = ExperimentConfig {
            resolution: 16,
            base_filters: 4,
            depth: 3,
            ..ExperimentConfig::test()
        };
        let mut model = Pix2Pix::new(&config, 1).unwrap();
        let ok_pair = Pair {
            x: Tensor::zeros([1, config.input_channels(), 16, 16]),
            y: Tensor::zeros([1, 3, 16, 16]),
            meta: PairMeta::synthetic(0),
        };
        assert!(evaluate_accuracy(&mut model, std::slice::from_ref(&ok_pair), 0.1).is_ok());
        // A pair rendered at a different resolution: proper error, no panic.
        let odd_pair = Pair {
            x: Tensor::zeros([1, config.input_channels(), 16, 16]),
            y: Tensor::zeros([1, 3, 8, 8]),
            meta: PairMeta::synthetic(1),
        };
        let err = evaluate_accuracy(&mut model, &[odd_pair], 0.1).unwrap_err();
        assert!(matches!(err, crate::CoreError::Eval(_)), "{err}");
        // Empty slice stays a defined 0.0, not an error.
        assert_eq!(evaluate_accuracy(&mut model, &[], 0.1).unwrap(), 0.0);
    }

    #[test]
    fn top_k_overlap_perfect_and_disjoint() {
        let truth: Vec<f32> = (0..20).map(|i| i as f32).collect();
        assert_eq!(top_k_overlap(&truth, &truth, 10), 1.0);
        let inverted: Vec<f32> = (0..20).map(|i| (19 - i) as f32).collect();
        assert_eq!(top_k_overlap(&inverted, &truth, 10), 0.0);
    }

    #[test]
    fn top_k_overlap_partial() {
        // Prediction swaps one element of the true top-2 out.
        let truth = vec![0.0, 1.0, 2.0, 3.0];
        let pred = vec![0.0, 9.0, 2.0, 3.0];
        // true top2 = {0, 1}; pred top2 = {0, 2} -> overlap 1/2.
        assert_eq!(top_k_overlap(&pred, &truth, 2), 0.5);
    }

    #[test]
    fn top_k_handles_small_sets_and_k_zero() {
        let s = vec![1.0, 0.5];
        assert_eq!(top_k_overlap(&s, &s, 10), 1.0);
        // k = 0 (and empty inputs): the empty selection is vacuously
        // perfect — identical inputs must always score 1.0.
        let empty: Vec<f32> = vec![];
        assert_eq!(top_k_overlap(&empty, &empty, 10), 1.0);
        assert_eq!(top_k_overlap(&s, &s, 0), 1.0);
    }

    #[test]
    fn top_k_overlap_is_order_independent_under_ties() {
        // Tied boundary scores used to be resolved by input index, so the
        // same score multiset could score differently after a permutation.
        let pred = vec![0.0, 0.0, 1.0];
        let truth = vec![0.0, 1.0, 0.0];
        let a = top_k_overlap(&pred, &truth, 1);
        // Same data, both vectors permuted identically (swap 0 and 1).
        let pred_p = vec![0.0, 0.0, 1.0];
        let truth_p = vec![1.0, 0.0, 0.0];
        let b = top_k_overlap(&pred_p, &truth_p, 1);
        assert_eq!(a, b);
        // Identical tie-heavy inputs are a perfect retrieval.
        let flat = vec![0.5f32; 6];
        assert_eq!(top_k_overlap(&flat, &flat, 2), 1.0);
    }

    #[test]
    fn pearson_detects_linear_relationships() {
        let a: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let b: Vec<f32> = a.iter().map(|v| 3.0 * v + 1.0).collect();
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-5);
        let c: Vec<f32> = a.iter().map(|v| -v).collect();
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-5);
    }

    #[test]
    fn spearman_is_invariant_to_monotone_warping() {
        let a: Vec<f32> = (0..20).map(|i| i as f32).collect();
        // Non-linear but monotone: Pearson < 1, Spearman = 1.
        let b: Vec<f32> = a.iter().map(|v| v.powi(3)).collect();
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-5);
        assert!(pearson(&a, &b) < 0.999);
    }

    #[test]
    fn spearman_averages_tied_ranks() {
        // [0, 1, 1, 2] vs itself must be exactly 1.0 (fractional ranks),
        // and permuting both vectors together must not change the value.
        let a = vec![0.0, 1.0, 1.0, 2.0];
        assert_eq!(spearman(&a, &a), 1.0);
        let b = vec![5.0, 3.0, 4.0, 3.0];
        let ab = spearman(&a, &b);
        let a_p = vec![1.0, 0.0, 2.0, 1.0]; // swap 0<->1, 2<->3
        let b_p = vec![3.0, 5.0, 3.0, 4.0];
        assert_eq!(spearman(&a_p, &b_p), ab);
    }

    #[test]
    fn correlations_handle_degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        let flat = vec![0.5f32; 8];
        let vary: Vec<f32> = (0..8).map(|i| i as f32).collect();
        // Constant vector: zero variance, correlation defined as exactly 0
        // (the textbook formula would divide by zero).
        assert_eq!(pearson(&flat, &vary), 0.0);
        assert_eq!(spearman(&flat, &vary), 0.0);
        // An awkward constant (inexact mean in f64) is still exactly 0.
        let awkward = vec![0.1f32; 8];
        assert_eq!(pearson(&awkward, &vary), 0.0);
    }

    #[test]
    fn nrms_is_zero_only_on_exact_match() {
        let truth = vec![0.0, 0.5, 1.0];
        assert_eq!(nrms(&truth, &truth), 0.0);
        let off = vec![0.0, 0.6, 1.0];
        assert!(nrms(&off, &truth) > 0.0);
        // Constant truth: the range fallback keeps the metric defined.
        let flat = vec![0.5f32; 4];
        assert_eq!(nrms(&flat, &flat), 0.0);
        let near = vec![0.5, 0.5, 0.5, 0.75];
        let v = nrms(&near, &flat);
        assert!(v > 0.0 && v.is_finite());
        // Empty: defined 0.0.
        assert_eq!(nrms(&[], &[]), 0.0);
    }

    #[test]
    fn image_mean_congestion_reads_colorbar() {
        use pop_arch::Arch;
        use pop_route::CongestionMap;
        let arch = Arch::builder().interior(6, 6).build().unwrap();
        // Uniform 0.5 utilisation everywhere.
        let cong = CongestionMap::from_utilization(&arch, vec![0.5; arch.channel_count()]);
        let netlist = pop_netlist::generate(
            &pop_netlist::presets::by_name("diffeq2")
                .unwrap()
                .scaled(0.01),
        );
        // A netlist that fits this fabric is needed only for rendering;
        // reuse the placement machinery.
        let (c, i, m, x) = netlist.site_demand();
        let arch2 = Arch::auto_size(c, i, m, x, 8, 1.3).unwrap();
        let cong2 = CongestionMap::from_utilization(&arch2, vec![0.5; arch2.channel_count()]);
        let placement = pop_place::place(&arch2, &netlist, &Default::default()).unwrap();
        let img = pop_raster::render_congestion(&arch2, &netlist, &placement, &cong2, 64);
        let mean = image_mean_congestion(arch2.width(), arch2.height(), &img);
        assert!((mean - 0.5).abs() < 0.03, "decoded mean {mean}");
        let _ = cong;
    }

    /// The per-pixel decode that classified every pixel on every call:
    /// what [`image_mean_congestion`] must equal bit for bit.
    fn per_pixel_mean_congestion(grid_width: usize, grid_height: usize, img: &Image) -> f32 {
        if grid_width == 0 || grid_height == 0 {
            return 0.0;
        }
        let layout = Layout::new(grid_width, grid_height, img.width());
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for py in 0..img.height() {
            for px in 0..img.width() {
                if matches!(layout.owner(px, py), pop_raster::PixelOwner::Channel(_)) {
                    sum += pop_raster::color::utilization_from_color(img.pixel_rgb8(px, py)) as f64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            (sum / count as f64) as f32
        }
    }

    /// On random images over several grids and sides — each geometry asked
    /// for twice, so the second answer comes from the cache — the cached
    /// channel pixels give the per-pixel decode's bits.
    #[test]
    fn image_mean_congestion_is_the_per_pixel_decode() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for (grid_w, grid_h, side) in [
            (6, 6, 32),
            (9, 7, 64),
            (20, 20, 64),
            (3, 11, 40),
            (0, 4, 16),
        ] {
            for _ in 0..2 {
                let data = (0..side * side * 3)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect();
                let img = Image::from_data(side, side, 3, data);
                let want = per_pixel_mean_congestion(grid_w, grid_h, &img);
                let got = image_mean_congestion(grid_w, grid_h, &img);
                assert_eq!(got.to_bits(), want.to_bits(), "{grid_w}x{grid_h} at {side}");
            }
        }
    }

    #[test]
    fn one_inference_pass_feeds_every_metric() {
        use crate::dataset::PairMeta;
        use crate::{ExclusiveForecaster, ExperimentConfig, Pix2Pix};
        use pop_nn::Tensor;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts how many tensors were actually forecast (and how many
        /// batch calls carried them) on the way to the inner model.
        struct CountingForecaster<'a> {
            inner: ExclusiveForecaster<'a>,
            batch_calls: AtomicUsize,
            tensors: AtomicUsize,
        }
        impl Forecaster for CountingForecaster<'_> {
            fn forecast(&self, x: &Tensor) -> Result<Tensor, CoreError> {
                self.batch_calls.fetch_add(1, Ordering::Relaxed);
                self.tensors.fetch_add(1, Ordering::Relaxed);
                self.inner.forecast(x)
            }
            fn forecast_batch(&self, xs: &[&Tensor]) -> Result<Vec<Tensor>, CoreError> {
                self.batch_calls.fetch_add(1, Ordering::Relaxed);
                self.tensors.fetch_add(xs.len(), Ordering::Relaxed);
                self.inner.forecast_batch(xs)
            }
        }

        let config = ExperimentConfig {
            resolution: 16,
            base_filters: 4,
            depth: 3,
            ..ExperimentConfig::test()
        };
        let pairs: Vec<Pair> = (0..5)
            .map(|s| Pair {
                x: Tensor::randn([1, config.input_channels(), 16, 16], 0.0, 0.5, s),
                y: Tensor::randn([1, 3, 16, 16], 0.0, 0.2, 100 + s),
                meta: PairMeta::synthetic(s),
            })
            .collect();
        let ds = DesignDataset {
            name: "count".into(),
            pairs,
            channel_width: 4,
            grid_width: 4,
            grid_height: 4,
        };
        let mut counted = Pix2Pix::new(&config, 9).unwrap();
        let mut model = counted.clone();
        let counter = CountingForecaster {
            inner: ExclusiveForecaster::new(&mut counted),
            batch_calls: AtomicUsize::new(0),
            tensors: AtomicUsize::new(0),
        };
        let metrics = MetricSet {
            batch: 2,
            ..MetricSet::default()
        };
        let report = metrics.evaluate(&counter, &ds).unwrap();
        // Every metric is populated from the ONE sweep: exactly one
        // forward per pair, in ceil(5/2) batch calls — not one sweep per
        // metric (5 metrics x 5 pairs would be 25).
        assert_eq!(counter.tensors.load(Ordering::Relaxed), 5);
        assert_eq!(counter.batch_calls.load(Ordering::Relaxed), 3);
        assert_eq!(report.pairs, 5);
        assert!(report.is_finite(), "{report:?}");
        // The classic wrappers ride the same single-pass machinery.
        let (p, s) = congestion_correlation(&mut model, &ds).unwrap();
        assert!((-1.0..=1.0).contains(&p) && (-1.0..=1.0).contains(&s));
        let top = top10_accuracy(&mut model, &ds).unwrap();
        assert!((0.0..=1.0).contains(&top));
    }

    #[test]
    fn summarize_slices_without_re_running_inference() {
        // Slicing the per-pair records reproduces a fresh evaluation of
        // the same slice — the contract Table 2's Acc.2 relies on.
        let evals: Vec<PairEval> = (0..6)
            .map(|i| PairEval {
                accuracy: 0.1 * i as f32,
                channel_accuracy: 0.1 * i as f32,
                nrms: 0.05 * i as f32,
                pred_congestion: 0.2 + 0.01 * i as f32,
                true_congestion: 0.2 + 0.012 * i as f32,
            })
            .collect();
        let metrics = MetricSet::default();
        let full = metrics.summarize(&evals);
        let tail = metrics.summarize(&evals[2..]);
        assert_eq!(full.pairs, 6);
        assert_eq!(tail.pairs, 4);
        assert!(tail.accuracy > full.accuracy);
        // Empty slice: the defined all-zero report, not NaN.
        let empty = metrics.summarize(&[]);
        assert_eq!(empty.pairs, 0);
        assert!(empty.is_finite());
    }
}
