//! `pop-pipeline` — the multi-threaded scenario/data-generation pipeline.
//!
//! Dataset generation is the wall-clock bottleneck of every experiment:
//! routing hundreds of placements dominates experiment time. This crate
//! runs the sequential netlist → place → route → raster → tensor loop of
//! `pop_core::dataset` pair-parallel on one `pop-exec` worker pool:
//!
//! * [`ScenarioSpec`] — corpora are described *declaratively*: design
//!   preset, scale, resolution, target fabric utilization, aspect ratio,
//!   net-degree profile, seed ranges. The [`scenario::registry`] ships
//!   named scenarios ("smoke", "dense", "wide", "highfanout", …).
//! * [`generate_corpus_with_stats`] — [`PipelineOptions::workers`] threads
//!   over one work list of two task kinds: *prepare a design* (cache probe,
//!   netlist, fabric calibration) and *make a pair* (place → route →
//!   raster + tensors on one thread). Pairs are reassembled by `(job,
//!   sweep index)`, so output is **bitwise-identical** to the sequential
//!   path ([`generate_corpus_sequential`]) for identical seeds — both drive
//!   the very same `DesignContext` stage functions.
//! * [`EpochPrefetcher`] — a background iterator generating epoch `N + 1`'s
//!   pairs (fresh placement seeds every epoch) while epoch `N` trains;
//!   plug it into [`Pix2Pix::train_stream`](pop_core::Pix2Pix::train_stream).
//! * **Caching & resume** — [`PipelineOptions::cache_dir`] turns on a
//!   per-job [`CorpusStore`](pop_core::dataset::CorpusStore): warm re-runs
//!   stream straight from disk with **zero** place/route executions
//!   ([`GenStats`] proves it). A [`TrainCheckpoint`] keeps the progress
//!   marker and the model, so an interrupted `train_stream` run resumes
//!   mid-corpus and reads its remaining epochs back from the store.
//!
//! # Example
//!
//! ```
//! use pop_pipeline::{generate_corpus_with_stats, scenario, PipelineOptions};
//!
//! let smoke = scenario::by_name("smoke").unwrap();
//! let (corpus, stats) = generate_corpus_with_stats(&[smoke], &PipelineOptions::with_workers(2))?;
//! assert_eq!(corpus.len(), 1);
//! assert_eq!(corpus[0].pairs.len(), 2);
//! assert_eq!(stats.place_stage_runs, 2);
//! # Ok::<(), pop_pipeline::PipelineError>(())
//! ```

mod error;
mod prefetch;
mod run;
pub mod scenario;

pub use error::PipelineError;
pub use prefetch::{EpochPrefetcher, TrainCheckpoint};
pub use run::{
    expand, expand_holdout, generate_corpus_sequential, generate_corpus_with_stats,
    generate_holdout_with_stats, generate_jobs_with_stats, GenStats, PipelineOptions,
};
pub use scenario::{advance_sweep_seeds, DesignJob, ScenarioSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::dataset::DesignDataset;

    fn tiny(name: &str, design: &str, pairs: usize) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            design: design.into(),
            design_scale: 0.01,
            resolution: 16,
            pairs_per_design: pairs,
            ..ScenarioSpec::default()
        }
    }

    /// Asserts both corpora are identical up to wall-clock timing fields;
    /// everything else must be bitwise-equal.
    fn assert_corpora_identical(parallel: &[DesignDataset], sequential: &[DesignDataset]) {
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(sequential) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.channel_width, s.channel_width);
            assert_eq!((p.grid_width, p.grid_height), (s.grid_width, s.grid_height));
            assert_eq!(p.pairs.len(), s.pairs.len());
            for (pp, sp) in p.pairs.iter().zip(&s.pairs) {
                assert_eq!(pp.without_timings(), sp.without_timings());
            }
        }
    }

    #[test]
    fn golden_parallel_output_is_bitwise_identical_to_sequential() {
        // The acceptance gate: a multi-design, multi-scenario corpus
        // generated on 4 workers equals the sequential reference exactly.
        let scenarios = vec![
            tiny("golden-a", "diffeq2", 3),
            ScenarioSpec {
                target_utilization: 0.9,
                aspect_ratio: 2.0,
                ..tiny("golden-b", "diffeq1", 2)
            },
        ];
        let sequential = generate_corpus_sequential(&scenarios).unwrap();
        let (parallel, _) =
            generate_corpus_with_stats(&scenarios, &PipelineOptions::with_workers(4)).unwrap();
        assert_corpora_identical(&parallel, &sequential);
        // And again: the pipeline itself is deterministic run-to-run.
        let (parallel2, _) =
            generate_corpus_with_stats(&scenarios, &PipelineOptions::with_workers(3)).unwrap();
        assert_corpora_identical(&parallel2, &sequential);
    }

    #[test]
    fn a_corpus_listed_smallest_first_comes_back_in_job_order() {
        // The pipeline hands these jobs out in reverse; the datasets still
        // come back in the order they were asked for, with the sequential
        // reference's bits.
        let scenarios = vec![
            tiny("smallest-first-a", "diffeq2", 2),
            tiny("smallest-first-b", "raygentop", 2),
            tiny("smallest-first-c", "SHA", 2),
        ];
        let order: Vec<usize> = run::largest_first(expand(&scenarios).unwrap())
            .into_iter()
            .map(|(index, _)| index)
            .collect();
        assert_eq!(order, [2, 1, 0]);
        let sequential = generate_corpus_sequential(&scenarios).unwrap();
        let (parallel, _) =
            generate_corpus_with_stats(&scenarios, &PipelineOptions::with_workers(2)).unwrap();
        assert_corpora_identical(&parallel, &sequential);
    }

    #[test]
    fn variant_scenarios_expand_and_generate() {
        let scenario = ScenarioSpec {
            variants: 2,
            ..tiny("vars", "diffeq2", 2)
        };
        let (corpus, _) =
            generate_corpus_with_stats(&[scenario], &PipelineOptions::with_workers(2)).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_ne!(corpus[0].name, corpus[1].name);
        // Different netlist seeds must produce different data.
        assert_ne!(corpus[0].pairs[0].x, corpus[1].pairs[0].x);
    }

    #[test]
    fn empty_corpus_and_bad_scenarios() {
        assert!(generate_corpus_with_stats(&[], &PipelineOptions::default())
            .unwrap()
            .0
            .is_empty());
        let bad = ScenarioSpec {
            design: "nosuch".into(),
            ..ScenarioSpec::default()
        };
        assert!(matches!(
            generate_corpus_with_stats(&[bad], &PipelineOptions::default()),
            Err(PipelineError::BadScenario(_))
        ));
    }

    #[test]
    fn warm_cache_runs_execute_zero_place_route_stages() {
        let dir = std::env::temp_dir().join("pop_pipeline_warm_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let scenarios = vec![
            tiny("warm-a", "diffeq2", 2),
            ScenarioSpec {
                variants: 2,
                ..tiny("warm-b", "diffeq1", 2)
            },
        ];
        let opts = PipelineOptions::with_workers(3).with_cache_dir(&dir);

        let (cold, cold_stats) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
        assert_eq!(cold_stats.jobs, 3);
        assert_eq!(cold_stats.cache_hits, 0);
        assert_eq!(cold_stats.place_stage_runs, 6);
        assert_eq!(cold_stats.route_stage_runs, 6);

        let (warm, warm_stats) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
        assert_eq!(warm_stats.cache_hits, 3, "100% cache hits expected");
        assert_eq!(warm_stats.place_stage_runs, 0, "warm run must not place");
        assert_eq!(warm_stats.route_stage_runs, 0, "warm run must not route");
        // Cached pairs are bitwise-identical to the cold run — including
        // the wall-clock provenance, which regeneration could never
        // reproduce: the strongest possible proof the data came from disk.
        assert_eq!(cold, warm);

        // And identical to a cache-less sequential reference, timings
        // aside (the end-to-end integrity claim).
        let reference = generate_corpus_sequential(&scenarios).unwrap();
        assert_corpora_identical(&warm, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_cache_entries_self_heal() {
        let dir = std::env::temp_dir().join("pop_pipeline_poisoned_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let scenarios = vec![tiny("heal-a", "diffeq2", 2), tiny("heal-b", "diffeq1", 2)];
        let opts = PipelineOptions::with_workers(2).with_cache_dir(&dir);
        let (cold, _) = generate_corpus_with_stats(&scenarios, &opts).unwrap();

        // Truncate one entry mid-file (the classic crash-mid-write relic).
        let poisoned = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .starts_with("diffeq2")
            })
            .expect("diffeq2 cache entry");
        let bytes = std::fs::read(&poisoned).unwrap();
        std::fs::write(&poisoned, &bytes[..bytes.len() / 2]).unwrap();

        let (healed, stats) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
        assert_eq!(stats.cache_hits, 1, "intact entry still hits");
        assert_eq!(stats.place_stage_runs, 2, "only the damaged job re-runs");
        assert_corpora_identical(&healed, &cold);
        // The regenerated entry replaced the damaged one: fully warm again.
        let (_, stats2) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
        assert_eq!(stats2.cache_hits, 2);
        assert_eq!(stats2.place_stage_runs, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_budget_sweeps_the_store_during_generation() {
        let dir = std::env::temp_dir().join("pop_pipeline_cache_budget_test");
        let _ = std::fs::remove_dir_all(&dir);
        let scenarios = vec![
            tiny("budget-a", "diffeq2", 1),
            tiny("budget-b", "diffeq1", 1),
            ScenarioSpec {
                seed: 9,
                ..tiny("budget-c", "diffeq2", 1)
            },
        ];
        // A 1-byte budget keeps only each write's own entry: the store
        // ends the run with exactly one (the last-completed) job cached.
        let opts = PipelineOptions::with_workers(2)
            .with_cache_dir(&dir)
            .with_cache_budget(1);
        let (_, stats) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
        assert_eq!(stats.cache_hits, 0);
        let entries = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("popds")
            })
            .count();
        assert_eq!(entries, 1, "budget sweep must keep only the newest entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipeline_waits_on_a_foreign_claim_then_streams_the_foreign_result() {
        use pop_core::dataset::{build_design_dataset, ClaimOutcome, CorpusStore};
        let dir = std::env::temp_dir().join("pop_pipeline_claim_wait_test");
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = tiny("claimed", "diffeq2", 2);
        let job = expand(std::slice::from_ref(&scenario)).unwrap().remove(0);
        let store = CorpusStore::new(&dir);

        // A "foreign process" claims the job before our pipeline starts.
        let foreign_claim = match store.begin(&job.spec, &job.config).unwrap() {
            ClaimOutcome::Claimed(guard) => guard,
            other => panic!("expected a fresh claim, got {other:?}"),
        };

        // Our pipeline must block in the prep stage instead of duplicating
        // the foreign process's place/route work.
        let pipeline = {
            let scenario = scenario.clone();
            let opts = PipelineOptions::with_workers(2).with_cache_dir(&dir);
            std::thread::spawn(move || {
                generate_corpus_with_stats(std::slice::from_ref(&scenario), &opts).unwrap()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert!(!pipeline.is_finished(), "pipeline must wait on the claim");

        // The foreign process finishes: stores the entry, releases.
        let ds = build_design_dataset(&job.spec, &job.config).unwrap();
        store.store(&ds, &job.spec, &job.config).unwrap();
        drop(foreign_claim);

        let (corpus, stats) = pipeline.join().unwrap();
        assert_eq!(stats.cache_hits, 1, "served from the foreign result");
        assert_eq!(stats.place_stage_runs, 0, "no duplicated placement work");
        assert_eq!(stats.route_stage_runs, 0, "no duplicated routing work");
        assert_eq!(corpus[0], ds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn holdout_split_is_disjoint_from_every_training_epoch() {
        // Seed-level assertion of the hold-out contract: no placement seed
        // the streaming trainer ever saw (any epoch) appears in the eval
        // split.
        let scenario = tiny("holdout-disjoint", "diffeq2", 2);
        let train_epochs = 2;
        let epochs: Vec<_> = EpochPrefetcher::start(
            vec![scenario.clone()],
            PipelineOptions::with_workers(2),
            0..train_epochs,
            1,
        )
        .collect::<Result<_, _>>()
        .unwrap();
        let train_seeds: Vec<u64> = epochs.iter().flatten().map(|p| p.meta.place_seed).collect();
        assert_eq!(train_seeds.len(), 4, "2 epochs x 2 pairs");

        let (eval, _) = generate_holdout_with_stats(
            std::slice::from_ref(&scenario),
            3,
            train_epochs,
            &PipelineOptions::with_workers(2),
        )
        .unwrap();
        assert_eq!(eval.len(), 1);
        assert_eq!(eval[0].pairs.len(), 3, "eval split sizes independently");
        for p in &eval[0].pairs {
            assert!(
                !train_seeds.contains(&p.meta.place_seed),
                "eval placement seed {} was used for training",
                p.meta.place_seed
            );
        }
    }

    #[test]
    fn holdout_split_warm_cache_regenerates_nothing() {
        let dir = std::env::temp_dir().join("pop_pipeline_holdout_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let scenarios = vec![
            tiny("holdout-warm-a", "diffeq2", 2),
            tiny("holdout-warm-b", "diffeq1", 2),
        ];
        let opts = PipelineOptions::with_workers(2).with_cache_dir(&dir);

        // Training epoch 0 shares the store: its entries must coexist with
        // the eval split's (distinct fingerprints), never satisfy it.
        let (_, train_stats) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
        assert_eq!(train_stats.cache_hits, 0);

        let (cold, cold_stats) = generate_holdout_with_stats(&scenarios, 2, 3, &opts).unwrap();
        assert_eq!(
            cold_stats.cache_hits, 0,
            "the eval split must not be served from training entries"
        );
        assert_eq!(cold_stats.place_stage_runs, 4);

        let (warm, warm_stats) = generate_holdout_with_stats(&scenarios, 2, 3, &opts).unwrap();
        assert_eq!(warm_stats.cache_hits, 2, "100% hits on the warm re-run");
        assert_eq!(warm_stats.place_stage_runs, 0, "zero pairs regenerated");
        assert_eq!(warm_stats.route_stage_runs, 0);
        // Bitwise-identical datasets, wall-clock provenance included — the
        // proof the eval data streamed from disk.
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_failures_surface_as_core_errors() {
        // A job doctored with an invalid config fails in the prep stage
        // and must surface as the original core error, not hang.
        let mut jobs = expand(&[tiny("bad-config", "diffeq2", 2)]).unwrap();
        jobs[0].config.resolution = 48; // not a power of two
        assert!(matches!(
            generate_jobs_with_stats(jobs, &PipelineOptions::with_workers(2)),
            Err(PipelineError::Core(_))
        ));
    }

    #[test]
    fn options_default_to_available_parallelism() {
        let opts = PipelineOptions::default();
        assert!(opts.workers >= 1);
        let four = PipelineOptions::with_workers(4);
        assert_eq!(four.workers, 4);
        assert_eq!(PipelineOptions::with_workers(0).workers, 1);
    }
}
