//! The pre-ML baseline: RUDY analytical congestion estimation, evaluated
//! with the same metrics as the cGAN (per-pixel accuracy on the rendered
//! heat map, Top10 placement retrieval).
//!
//! The paper's premise is that learned forecasting beats analytical
//! estimation at the *detail* level while needing the same inputs. This
//! module quantifies that: [`evaluate_rudy_against`] replays the exact
//! placement sweep of a generated dataset, computes RUDY estimates, and
//! scores them against the dataset's routed ground truth.

use crate::codec::{atomic_write, Fnv1a, Put, Reader};
use crate::config::ExperimentConfig;
use crate::dataset::{design_fabric, fingerprint, DesignDataset};
use crate::error::CoreError;
use crate::features::{assemble_target, tensor_to_image};
use crate::metrics::PairEval;
use pop_netlist::SyntheticSpec;
use pop_place::{place, sweep::SweepSpec};
use pop_raster::metrics::per_pixel_accuracy;
use pop_raster::render_congestion;
use pop_route::rudy_estimate;
use std::path::{Path, PathBuf};

/// Baseline quality numbers, directly comparable to a Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineReport {
    /// Mean per-pixel accuracy of the RUDY heat maps vs the routed truth.
    /// Inflated by construction: RUDY renders through the exact
    /// ground-truth pipeline, so every block tile and background pixel is
    /// free — compare [`BaselineReport::channel_accuracy`] for the
    /// like-for-like number.
    pub per_pixel_accuracy: f32,
    /// Mean per-pixel accuracy over **routing-channel pixels only** — the
    /// pixels RUDY actually estimates, and the detail-level comparison a
    /// learned forecaster is expected to win.
    pub channel_accuracy: f32,
    /// Top10 overlap of the RUDY placement ranking vs the routed ranking.
    pub top10: f32,
    /// Calibration factor applied to the raw RUDY densities.
    pub calibration: f32,
}

/// Scores RUDY against a generated dataset's ground truth.
///
/// The dataset's placement sweep is replayed (it is deterministic in the
/// config seed), RUDY is calibrated on the *first* placement by matching
/// mean congestion — the one freebie any practitioner would grant an
/// analytical model — and every placement is then scored blind.
///
/// # Errors
///
/// Propagates substrate failures; returns [`CoreError::Pipeline`] when the
/// replayed sweep disagrees with the dataset (config mismatch).
pub fn evaluate_rudy_against(
    ds: &DesignDataset,
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
) -> Result<BaselineReport, CoreError> {
    let (evals, calibration) = rudy_pair_evals(ds, spec, config)?;
    if evals.is_empty() {
        // Match `MetricSet::summarize(&[])`: an empty evaluation is the
        // all-zero report (NOT a vacuously perfect retrieval — an empty
        // split must never look unbeatable in a baseline comparison).
        return Ok(BaselineReport {
            per_pixel_accuracy: 0.0,
            channel_accuracy: 0.0,
            top10: 0.0,
            calibration,
        });
    }
    let n = evals.len() as f64;
    let pred: Vec<f32> = evals.iter().map(|e| e.pred_congestion).collect();
    let truth: Vec<f32> = evals.iter().map(|e| e.true_congestion).collect();
    Ok(BaselineReport {
        per_pixel_accuracy: (evals.iter().map(|e| e.accuracy as f64).sum::<f64>() / n) as f32,
        channel_accuracy: (evals.iter().map(|e| e.channel_accuracy as f64).sum::<f64>() / n) as f32,
        top10: crate::metrics::top_k_overlap(&pred, &truth, 10),
        calibration,
    })
}

/// Scores RUDY with the same per-pair records ([`PairEval`]) the learned
/// models are scored with, so one
/// [`MetricSet`](crate::metrics::MetricSet) can summarise an analytical
/// baseline and a cGAN **identically** — same accuracy tolerances, same
/// retrieval-set size, same rank correlations. Returns the records plus
/// the mean-matching calibration factor.
///
/// The replay contract matches [`evaluate_rudy_against`]: the dataset's
/// placement sweep is regenerated from `config.seed` (asserted against
/// each pair's provenance), RUDY is calibrated on the first placement,
/// every placement then scored blind.
///
/// # Errors
///
/// Propagates substrate failures; returns [`CoreError::Pipeline`] when the
/// replayed sweep disagrees with the dataset (config mismatch).
pub fn rudy_pair_evals(
    ds: &DesignDataset,
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
) -> Result<(Vec<PairEval>, f32), CoreError> {
    pop_obs::global().counter("eval.baseline.replay").inc();
    let (arch, netlist, _) = design_fabric(spec, config)?;
    let sweep = SweepSpec {
        base_seed: config.seed,
        ..SweepSpec::quick()
    };
    let options = sweep.take(ds.pairs.len());

    let mut calibration = 1.0f32;
    let mut evals = Vec::with_capacity(ds.pairs.len());
    for (i, (popts, pair)) in options.iter().zip(&ds.pairs).enumerate() {
        if popts.seed != pair.meta.place_seed {
            return Err(CoreError::Pipeline(format!(
                "sweep replay mismatch at pair {i}: seed {} vs {}",
                popts.seed, pair.meta.place_seed
            )));
        }
        let placement = place(&arch, &netlist, popts)?;
        let raw = rudy_estimate(&arch, &netlist, &placement, 1.0);
        if i == 0 {
            // Mean-matching calibration on the first placement.
            let raw_mean = raw.mean_utilization();
            if raw_mean > f32::EPSILON {
                calibration = pair.meta.true_mean_congestion / raw_mean;
            }
        }
        let est = rudy_estimate(&arch, &netlist, &placement, calibration);
        let img = render_congestion(&arch, &netlist, &placement, &est, config.resolution);
        let truth_img = tensor_to_image(&pair.y);
        let est_tensor = assemble_target(&img);
        evals.push(PairEval {
            accuracy: per_pixel_accuracy(&img, &truth_img, config.tolerance)
                .map_err(|e| CoreError::Pipeline(e.to_string()))?,
            channel_accuracy: crate::metrics::channel_accuracy(
                arch.width(),
                arch.height(),
                &img,
                &truth_img,
                config.tolerance,
            )?,
            nrms: crate::metrics::nrms(est_tensor.data(), pair.y.data()),
            pred_congestion: est.mean_utilization(),
            true_congestion: pair.meta.true_mean_congestion,
        });
    }
    Ok((evals, calibration))
}

/// Baseline-record cache format magic (versioned: bump on layout change).
const BASELINE_MAGIC: &[u8; 8] = b"POPBL01\n";

/// Fingerprint of everything a cached baseline record set depends on: the
/// corpus identity (the same [`fingerprint`] that keys the pipeline's
/// dataset cache), the scoring tolerance (baked into the accuracy fields)
/// and the split's pair count.
pub fn baseline_fingerprint(
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
    n_pairs: usize,
) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(fingerprint(spec, config));
    h.eat(config.tolerance.to_bits() as u64);
    h.eat(n_pairs as u64);
    h.finish()
}

/// The cache file a baseline record set maps to:
/// `<dir>/<design>-<fingerprint:016x>.popbl` (sibling naming to the
/// corpus store's `.popds` entries).
pub fn baseline_entry_path(dir: &Path, spec: &SyntheticSpec, fp: u64) -> PathBuf {
    dir.join(format!("{}-{fp:016x}.popbl", spec.name))
}

/// Writes a baseline record file: the header `POPBL01\n ‖ fp:u64`, then
/// `calibration:f32 ‖ records:u32` and five `f32` fields per record.
/// Atomic.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_baseline_file(
    path: &Path,
    fp: u64,
    evals: &[PairEval],
    calibration: f32,
) -> std::io::Result<()> {
    atomic_write(path, |w| {
        w.put_header(BASELINE_MAGIC, fp)?;
        w.put_f32(calibration)?;
        w.put_usize(evals.len())?;
        for e in evals {
            w.put_f32s(&[
                e.accuracy,
                e.channel_accuracy,
                e.nrms,
                e.pred_congestion,
                e.true_congestion,
            ])?;
        }
        Ok(())
    })
}

/// Reads a baseline record file written by [`write_baseline_file`];
/// `None` on any mismatch or damage — a stale key, another pair count,
/// truncation, a non-finite field, trailing bytes — since the caller falls
/// back to a replay, staleness is never an error.
pub fn read_baseline_file(path: &Path, fp: u64, n_pairs: usize) -> Option<(Vec<PairEval>, f32)> {
    let mut r = Reader::open(path).ok()?;
    r.header(BASELINE_MAGIC, fp).ok()?;
    let calibration = r.f32().ok()?;
    let n = r.count(5 * 4).ok()?; // five `f32` fields per record
    if n != n_pairs {
        return None;
    }
    let mut evals = Vec::with_capacity(n);
    for _ in 0..n {
        let mut f = [0.0f32; 5];
        r.f32s_into(&mut f).ok()?;
        if f.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let [accuracy, channel_accuracy, nrms, pred_congestion, true_congestion] = f;
        evals.push(PairEval {
            accuracy,
            channel_accuracy,
            nrms,
            pred_congestion,
            true_congestion,
        });
    }
    r.finish().ok()?;
    Some((evals, calibration))
}

/// [`rudy_pair_evals`] with a persistent record cache: with a cache dir,
/// a warm run loads the scored records straight from disk — **zero
/// baseline re-anneals** — because the records are pure functions of the
/// corpus fingerprint, the scoring tolerance and the pair count (all
/// folded into [`baseline_fingerprint`]). Counts one
/// `eval.baseline.cached` on a hit and one `eval.baseline.replay` on the
/// fallback replay, so harness summaries can assert warm runs replayed
/// nothing. Cache write failures are swallowed (the records themselves
/// are still returned); a stale, damaged or non-finite entry falls back
/// to the replay.
///
/// # Errors
///
/// Propagates [`rudy_pair_evals`] failures on the replay path.
pub fn rudy_pair_evals_cached(
    ds: &DesignDataset,
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
    cache_dir: Option<&Path>,
) -> Result<(Vec<PairEval>, f32), CoreError> {
    let Some(dir) = cache_dir else {
        return rudy_pair_evals(ds, spec, config);
    };
    let fp = baseline_fingerprint(spec, config, ds.pairs.len());
    let path = baseline_entry_path(dir, spec, fp);
    if let Some(hit) = read_baseline_file(&path, fp, ds.pairs.len()) {
        pop_obs::global().counter("eval.baseline.cached").inc();
        return Ok(hit);
    }
    let (evals, calibration) = rudy_pair_evals(ds, spec, config)?;
    let _ = write_baseline_file(&path, fp, &evals, calibration);
    Ok((evals, calibration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::build_design_dataset;
    use pop_netlist::presets;

    #[test]
    fn baseline_scores_are_valid() {
        let config = ExperimentConfig {
            pairs_per_design: 4,
            ..ExperimentConfig::test()
        };
        let spec = presets::by_name("diffeq1").unwrap();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let report = evaluate_rudy_against(&ds, &spec, &config).unwrap();
        assert!((0.0..=1.0).contains(&report.per_pixel_accuracy));
        assert!((0.0..=1.0).contains(&report.channel_accuracy));
        assert!(
            report.channel_accuracy <= report.per_pixel_accuracy,
            "block tiles are free for RUDY, so restricting to channels \
             can only remove freebies ({} vs {})",
            report.channel_accuracy,
            report.per_pixel_accuracy
        );
        assert!((0.0..=1.0).contains(&report.top10));
        assert!(report.calibration > 0.0);
    }

    #[test]
    fn baseline_cache_roundtrips_and_rejects_stale_entries() {
        let config = ExperimentConfig {
            pairs_per_design: 2,
            ..ExperimentConfig::test()
        };
        let spec = presets::by_name("diffeq1").unwrap();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let dir = std::env::temp_dir().join("pop_baseline_cache_test");
        let _ = std::fs::remove_dir_all(&dir);

        // Cold: replays and stores; warm: must load the same records.
        let (cold, cal_cold) = rudy_pair_evals_cached(&ds, &spec, &config, Some(&dir)).unwrap();
        let fp = baseline_fingerprint(&spec, &config, ds.pairs.len());
        assert!(baseline_entry_path(&dir, &spec, fp).exists());
        let (warm, cal_warm) = rudy_pair_evals_cached(&ds, &spec, &config, Some(&dir)).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cal_cold, cal_warm);

        // A tolerance change must miss (accuracy bakes the tolerance in).
        let other = ExperimentConfig {
            tolerance: config.tolerance + 0.05,
            ..config.clone()
        };
        let fp_other = baseline_fingerprint(&spec, &other, ds.pairs.len());
        assert_ne!(fp, fp_other);

        // A truncated entry must fall back to the replay, then repair.
        let path = baseline_entry_path(&dir, &spec, fp);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_baseline_file(&path, fp, ds.pairs.len()).is_none());
        let (repaired, _) = rudy_pair_evals_cached(&ds, &spec, &config, Some(&dir)).unwrap();
        assert_eq!(repaired, cold);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The exact bytes of a record file written from fixed records: a
    /// moved byte would turn every cached baseline on disk into a miss.
    #[test]
    fn baseline_file_bytes_are_pinned() {
        let evals: Vec<PairEval> = (0..3)
            .map(|i| PairEval {
                accuracy: 0.5 + i as f32 / 8.0,
                channel_accuracy: 0.25 + i as f32 / 16.0,
                nrms: 1.0 / (i + 2) as f32,
                pred_congestion: 0.75 * i as f32,
                true_congestion: 0.125 + i as f32,
            })
            .collect();
        let dir = std::env::temp_dir().join("pop_baseline_golden_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("golden.popbl");
        write_baseline_file(&path, 0x0123_4567_89ab_cdef, &evals, 1.5).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut h = Fnv1a::new();
        h.eat_bytes(&bytes);
        assert_eq!((bytes.len(), h.finish()), (84, 0x8efc_71d9_b31f_97a9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_mismatch_is_detected() {
        let config = ExperimentConfig {
            pairs_per_design: 2,
            ..ExperimentConfig::test()
        };
        let spec = presets::by_name("diffeq2").unwrap();
        let mut ds = build_design_dataset(&spec, &config).unwrap();
        ds.pairs[0].meta.place_seed = 999; // corrupt provenance
        assert!(matches!(
            evaluate_rudy_against(&ds, &spec, &config),
            Err(CoreError::Pipeline(_))
        ));
    }
}
