//! The harness itself: train one model per scenario through the streaming
//! prefetch path, generate every scenario's held-out split through the
//! cache-aware pipeline, then score every `(model, split)` pairing on the
//! shared exec substrate.

use crate::error::EvalError;
use crate::report::{CellMetrics, CellStats, EvalMatrix};
use pop_core::baseline::rudy_pair_evals_cached;
use pop_core::codec::Fnv1a;
use pop_core::dataset::{DesignDataset, Pair};
use pop_core::metrics::PairEval;
use pop_core::{CoreError, EvalReport, ExclusiveForecaster, MetricSet, Pix2Pix};
use pop_exec::scoped_map;
use pop_pipeline::{
    generate_jobs_with_stats, DesignJob, EpochPrefetcher, GenStats, PipelineError, PipelineOptions,
    ScenarioSpec,
};

/// Everything one cross-scenario evaluation run needs: the scenario axis
/// plus the training, splitting, replication and fan-out knobs.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// The scenario axis: one model is trained per entry, and every model
    /// is evaluated on every entry's held-out split. All scenarios must
    /// share one image resolution (cross-evaluation feeds one scenario's
    /// images to another scenario's model).
    pub scenarios: Vec<ScenarioSpec>,
    /// Streaming training epochs per model (each epoch re-places the
    /// scenario's designs with fresh seeds, via the epoch prefetcher).
    pub train_epochs: usize,
    /// Held-out placements per design variant in each eval split; their
    /// sweep seeds sit past every training epoch
    /// ([`ScenarioSpec::holdout_jobs`]).
    pub eval_pairs: usize,
    /// Seed replicates per cell: each replicate trains from a different
    /// model-init/trainer seed on the *same* (cached) corpus, and every
    /// cell reports mean ± 95 % CI over them.
    pub replicates: usize,
    /// Eval-split pairs used for strategy-2 fine-tuning (Table 2 Acc.2).
    pub finetune_pairs: usize,
    /// Fine-tuning epochs of strategy 2.
    pub finetune_epochs: usize,
    /// The metric policy every cell is scored with.
    pub metrics: MetricSet,
    /// Corpus-generation options; set a cache dir to make warm re-runs
    /// regenerate nothing (training epochs *and* eval splits).
    pub options: PipelineOptions,
    /// Worker threads the K×K×R cell evaluations fan out over.
    pub threads: usize,
    /// Base seed of the model-init/trainer replicate derivation.
    pub seed: u64,
    /// Whether to score the RUDY analytical baseline on every eval split.
    pub baseline: bool,
    /// U-Net base filter count override for every trained model (`None` =
    /// each scenario config's default). Model capacity is a harness-level
    /// knob: it never touches the data path, so cache fingerprints — and
    /// therefore warm corpora — are unaffected by sweeping it.
    pub model_filters: Option<usize>,
}

impl MatrixSpec {
    /// A spec over `scenarios` with harness defaults: 2 training epochs,
    /// 4 eval pairs, 1 replicate, paper-style fine-tuning (2 pairs, 1
    /// epoch), default metrics/pipeline options, cell fan-out sized to
    /// the host.
    pub fn new(scenarios: Vec<ScenarioSpec>) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        MatrixSpec {
            scenarios,
            train_epochs: 2,
            eval_pairs: 4,
            replicates: 1,
            finetune_pairs: 2,
            finetune_epochs: 1,
            metrics: MetricSet::default(),
            options: PipelineOptions::default(),
            threads: parallelism.min(8),
            seed: 7,
            baseline: true,
            model_filters: None,
        }
    }

    /// Checks internal consistency: at least one scenario, unique names,
    /// every scenario valid, one shared resolution, positive epoch / pair
    /// / replicate counts.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::BadSpec`] naming the first problem, or
    /// [`EvalError::Pipeline`] for an invalid scenario.
    pub fn validate(&self) -> Result<(), EvalError> {
        let bad = |m: String| Err(EvalError::BadSpec(m));
        if self.scenarios.is_empty() {
            return bad("at least one scenario is required".into());
        }
        let mut names: Vec<&str> = self.scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return bad("scenario names must be unique (they index the matrix)".into());
        }
        for s in &self.scenarios {
            s.validate()?;
        }
        let resolution = self.scenarios[0].resolution;
        if let Some(odd) = self.scenarios.iter().find(|s| s.resolution != resolution) {
            return bad(format!(
                "all scenarios must share one resolution for cross-evaluation \
                 ({} is {}x{}, {} is {}x{})",
                self.scenarios[0].name,
                resolution,
                resolution,
                odd.name,
                odd.resolution,
                odd.resolution
            ));
        }
        if self.train_epochs == 0 {
            return bad("train_epochs must be positive".into());
        }
        if self.eval_pairs == 0 {
            return bad("eval_pairs must be positive".into());
        }
        if self.replicates == 0 {
            return bad("replicates must be positive".into());
        }
        Ok(())
    }
}

/// Replicate `r`'s model-init/trainer seed (FNV-mixed so replicates are
/// decorrelated, deterministic in `(base, r)`).
fn model_seed(base: u64, replicate: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(base);
    h.eat(replicate as u64);
    h.finish()
}

/// Trains every replicate's model on one scenario. Replicate 0 streams
/// through the epoch prefetcher (epoch `N + 1` generates — through the
/// cache-aware pipeline, its counters folded into `stats` — while epoch
/// `N` trains) and, with more replicates requested, buffers each epoch as
/// it passes; replicates `1..R` then replay the buffered corpus. Replicates
/// vary only the model/trainer seed, so the corpus is generated **once**
/// per scenario whatever the replicate count — cache dir or not.
fn train_replicates(
    scenario: &ScenarioSpec,
    spec: &MatrixSpec,
    stats: &mut GenStats,
) -> Result<Vec<Pix2Pix>, EvalError> {
    let mut config = scenario.config();
    if let Some(filters) = spec.model_filters {
        config.base_filters = filters;
    }
    let mut replicas = Vec::with_capacity(spec.replicates);
    let mut model = Pix2Pix::new(&config, model_seed(spec.seed, 0))?;
    let mut prefetcher = EpochPrefetcher::start(
        vec![scenario.clone()],
        spec.options.clone(),
        0..spec.train_epochs,
        1,
    );
    let mut gen_error: Option<PipelineError> = None;
    let mut buffered: Vec<Vec<Pair>> = Vec::new();
    let buffer = spec.replicates > 1;
    let _ = model.train_stream(prefetcher.by_ref().map_while(|r| match r {
        Ok(pairs) => {
            if buffer {
                buffered.push(pairs.clone());
            }
            Some(pairs)
        }
        Err(e) => {
            gen_error = Some(e);
            None
        }
    }));
    if let Some(e) = gen_error {
        return Err(EvalError::Pipeline(e));
    }
    stats.absorb(prefetcher.stats());
    replicas.push(model);
    for r in 1..spec.replicates {
        let mut model = Pix2Pix::new(&config, model_seed(spec.seed, r))?;
        let _ = model.train_stream(buffered.iter().cloned());
        replicas.push(model);
    }
    Ok(replicas)
}

/// One batched inference sweep of `model` over a scenario's eval split
/// (one [`MetricSet::evaluate_pairs`] call per variant dataset — each
/// variant may calibrate its own fabric — concatenated into one record
/// stream).
fn sweep(
    model: &mut Pix2Pix,
    sets: &[DesignDataset],
    metrics: &MetricSet,
) -> Result<Vec<PairEval>, CoreError> {
    let forecaster = ExclusiveForecaster::new(model);
    let mut out = Vec::new();
    for ds in sets {
        out.extend(metrics.evaluate_pairs(
            &forecaster,
            &ds.pairs,
            ds.grid_width,
            ds.grid_height,
        )?);
    }
    Ok(out)
}

/// Scores one `(trained model, eval split)` cell: strategy 1 (as-trained)
/// and strategy 2 (fine-tuned on the split's first pairs), each a single
/// batched inference sweep feeding every metric.
fn evaluate_cell(
    model: &Pix2Pix,
    eval_sets: &[DesignDataset],
    spec: &MatrixSpec,
) -> Result<CellMetrics, CoreError> {
    let total: usize = eval_sets.iter().map(|d| d.pairs.len()).sum();
    // Strategy 1: the as-trained model on the whole split.
    let mut base_model = model.clone();
    let base = spec
        .metrics
        .summarize(&sweep(&mut base_model, eval_sets, &spec.metrics)?);
    // Strategy 2: fine-tune on the split's first pairs, then ONE sweep
    // feeds Acc.2 (the remaining pairs) and the rank metrics (full split).
    let k = spec.finetune_pairs.min(total.saturating_sub(1));
    let finetune: Vec<Pair> = eval_sets
        .iter()
        .flat_map(|d| d.pairs.iter())
        .take(k)
        .cloned()
        .collect();
    let mut tuned = base_model;
    let _ = tuned.finetune(&finetune, spec.finetune_epochs);
    let evals = sweep(&mut tuned, eval_sets, &spec.metrics)?;
    let acc2 = spec.metrics.summarize(&evals[k..]).accuracy;
    let tuned_report = spec.metrics.summarize(&evals);
    Ok(CellMetrics {
        acc1: base.accuracy,
        acc2,
        chan_acc1: base.channel_accuracy,
        top: tuned_report.top_overlap,
        pearson: tuned_report.pearson,
        spearman: tuned_report.spearman,
        nrms: base.nrms,
    })
}

/// The RUDY analytical baseline over one scenario's eval split, scored
/// with the **same** [`MetricSet`] as the learned cells: RUDY's per-pair
/// records ([`rudy_pair_evals`]) are summarised exactly like a model's —
/// same accuracy tolerance (the harness's, not the generation config's),
/// same retrieval-set size, same rank correlations.
///
/// The replay re-anneals each eval placement (RUDY needs the placement
/// geometry, which the cached datasets do not store) — but only on a cold
/// split: with a cache dir configured the scored records themselves are
/// persisted per split fingerprint ([`rudy_pair_evals_cached`]), so a
/// warm run loads them from disk and re-anneals **nothing**.
fn rudy_baseline(
    jobs: &[DesignJob],
    sets: &[DesignDataset],
    metrics: &MetricSet,
    cache_dir: Option<&std::path::Path>,
) -> Result<EvalReport, CoreError> {
    let mut evals = Vec::new();
    for (job, ds) in jobs.iter().zip(sets) {
        let mut config = job.config.clone();
        config.tolerance = metrics.tolerance;
        let (mut pair_evals, _calibration) =
            rudy_pair_evals_cached(ds, &job.spec, &config, cache_dir)?;
        evals.append(&mut pair_evals);
    }
    Ok(metrics.summarize(&evals))
}

/// Runs the full cross-scenario experiment:
///
/// 1. generate every scenario's **held-out split** through the cache-aware
///    pipeline (warm runs regenerate nothing);
/// 2. train `replicates` models per scenario through the
///    [`EpochPrefetcher`] streaming path (generation counters observed);
/// 3. fan the `K×K×replicates` cell evaluations out over a
///    [`scoped_map`] worker pool — each cell is deterministic, and results
///    land by index, so the matrix is identical for every thread count;
/// 4. aggregate replicates into per-cell mean ± CI and score the RUDY
///    baseline per eval split.
///
/// # Errors
///
/// Propagates spec validation, generation, training and evaluation
/// failures.
pub fn evaluate_matrix(spec: &MatrixSpec) -> Result<EvalMatrix, EvalError> {
    spec.validate()?;
    let k = spec.scenarios.len();
    let mut stats = GenStats::default();

    // 1. Held-out splits (same designs, sweep seeds past every training
    // epoch; their jobs are kept for the RUDY sweep replay).
    let mut eval_jobs: Vec<Vec<DesignJob>> = Vec::with_capacity(k);
    let mut eval_sets: Vec<Vec<DesignDataset>> = Vec::with_capacity(k);
    for scenario in &spec.scenarios {
        let _span = pop_obs::span!("eval_holdout", scenario = &scenario.name);
        let jobs = scenario.holdout_jobs(spec.eval_pairs, spec.train_epochs)?;
        let (sets, gen) = generate_jobs_with_stats(jobs.clone(), &spec.options)?;
        stats.absorb(gen);
        eval_jobs.push(jobs);
        eval_sets.push(sets);
    }

    // 2. Per-scenario models, one per replicate, trained while the next
    // epoch generates in the background; the corpus is generated once per
    // scenario and replayed for the other replicates.
    let mut models: Vec<Vec<Pix2Pix>> = Vec::with_capacity(k);
    for scenario in &spec.scenarios {
        let _span = pop_obs::span!("eval_train", scenario = &scenario.name);
        models.push(train_replicates(scenario, spec, &mut stats)?);
    }

    // 3. Cell fan-out: all (train, eval, replicate) triples, claimed by
    // the exec pool's workers, results in deterministic index order.
    let reps = spec.replicates;
    let cell_ids: Vec<(usize, usize, usize)> = (0..k)
        .flat_map(|i| (0..k).flat_map(move |j| (0..reps).map(move |r| (i, j, r))))
        .collect();
    let outcomes = scoped_map("pop-eval-cell", spec.threads.max(1), &cell_ids, |_, ids| {
        let (i, j, r) = *ids;
        let _span = pop_obs::span!("eval_cell", train = i, eval = j, replicate = r);
        evaluate_cell(&models[i][r], &eval_sets[j], spec)
    });
    let mut per_cell: Vec<Vec<CellMetrics>> = vec![Vec::with_capacity(reps); k * k];
    for ((i, j, _), outcome) in cell_ids.iter().zip(outcomes) {
        per_cell[i * k + j].push(outcome?);
    }
    let cells: Vec<Vec<CellStats>> = (0..k)
        .map(|i| {
            (0..k)
                .map(|j| CellStats::from_replicates(&per_cell[i * k + j]))
                .collect()
        })
        .collect();

    // 4. The analytical floor each diagonal cell should beat.
    let baseline: Vec<Option<EvalReport>> = if spec.baseline {
        eval_jobs
            .iter()
            .zip(&eval_sets)
            .map(|(jobs, sets)| {
                rudy_baseline(jobs, sets, &spec.metrics, spec.options.cache_dir.as_deref())
                    .map(Some)
            })
            .collect::<Result<_, CoreError>>()?
    } else {
        vec![None; k]
    };

    Ok(EvalMatrix {
        scenarios: spec.scenarios.iter().map(|s| s.name.clone()).collect(),
        resolution: spec.scenarios[0].resolution,
        train_epochs: spec.train_epochs,
        eval_pairs: spec.eval_pairs,
        replicates: spec.replicates,
        cells,
        baseline,
        corpus: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_pipeline::scenario::by_name;

    fn tiny(name: &str, design: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            design: design.into(),
            pairs_per_design: 2,
            ..by_name("smoke").unwrap()
        }
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        let ok = MatrixSpec::new(vec![tiny("a", "diffeq2"), tiny("b", "diffeq1")]);
        assert!(ok.validate().is_ok());
        for mutate in [
            |s: &mut MatrixSpec| s.scenarios.clear(),
            |s: &mut MatrixSpec| s.scenarios[1].name = "a".into(),
            |s: &mut MatrixSpec| s.scenarios[1].resolution = 32,
            |s: &mut MatrixSpec| s.scenarios[0].design = "nosuch".into(),
            |s: &mut MatrixSpec| s.train_epochs = 0,
            |s: &mut MatrixSpec| s.eval_pairs = 0,
            |s: &mut MatrixSpec| s.replicates = 0,
        ] {
            let mut bad = ok.clone();
            mutate(&mut bad);
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn model_seeds_are_deterministic_and_distinct() {
        assert_eq!(model_seed(7, 0), model_seed(7, 0));
        assert_ne!(model_seed(7, 0), model_seed(7, 1));
        assert_ne!(model_seed(7, 0), model_seed(8, 0));
    }
}
