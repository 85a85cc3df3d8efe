//! Background epoch prefetch: generate epoch `N + 1`'s pairs while epoch
//! `N` trains, and the checkpoint that makes a streamed run resumable.
//!
//! [`EpochPrefetcher`] runs the parallel corpus generator on a background
//! thread and yields one `Vec<Pair>` per epoch through a bounded channel
//! (depth = how many epochs may be pre-generated ahead of the trainer).
//! Each epoch shifts every scenario's placement-sweep seed past the
//! previous epoch's range, so the trainer sees *fresh placements of the
//! same designs* every epoch — the corpus-diversity knob the fixed-preset
//! flow never had. Feed it straight into
//! [`Pix2Pix::train_stream`](pop_core::Pix2Pix::train_stream).
//!
//! Resume keeps no copy of the data. An epoch is a set of seed-shifted
//! [`DesignJob`]s and generation is bit-deterministic, so a resumed run
//! only needs to know where it stopped: [`TrainCheckpoint`] holds the
//! progress marker and the model, and the caller starts the prefetcher at
//! `completed_epochs()`. With [`PipelineOptions::cache_dir`] set, the
//! remaining epochs stream from the store's `.popds` entries (zero
//! place/route runs, as [`EpochPrefetcher::stats`] shows); without one
//! they regenerate from seeds, bit for bit apart from timings.

use crate::error::PipelineError;
use crate::run::{expand, generate_jobs_with_stats, panic_message, GenStats, PipelineOptions};
use crate::scenario::{DesignJob, ScenarioSpec};
use pop_core::codec::atomic_write;
use pop_core::dataset::Pair;
use pop_core::{model_io, CoreError, ExperimentConfig, Pix2Pix, StreamCheckpoint};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The persistent half of a resumable streamed run: a directory holding
/// `progress` (how many epochs the trainer has fully consumed) and
/// `model.ckpt` ([`model_io::save_checkpoint`]: weights, Adam moments and
/// steps, trainer RNG position).
///
/// Each epoch acknowledgement saves the model first and only then
/// advances the marker, so the weights on disk can never run behind the
/// marker. A crash between the two costs one re-trained epoch (from the
/// saved weights); it can never silently skip an epoch or resume from
/// re-initialised weights. On resume, [`TrainCheckpoint::restore`]
/// rebuilds the model the interrupted run was training.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    dir: PathBuf,
}

impl TrainCheckpoint {
    /// A checkpoint rooted at `dir`, created on the first acknowledgement.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TrainCheckpoint { dir: dir.into() }
    }

    /// The checkpoint's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn model_path(&self) -> PathBuf {
        self.dir.join("model.ckpt")
    }

    /// Rebuilds the interrupted run's model: `Ok(Some)` when epochs were
    /// trained *and* a model checkpoint exists, `Ok(None)` otherwise — the
    /// caller should then start a fresh model **and** clear the directory
    /// so data and weights restart together.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] when an existing checkpoint cannot be
    /// loaded (corrupt, or trained with a different architecture).
    pub fn restore(&self, config: &ExperimentConfig) -> Result<Option<Pix2Pix>, CoreError> {
        let model = self.model_path();
        if self.completed_epochs() == 0 || !model.exists() {
            return Ok(None);
        }
        model_io::load_checkpoint(config, &model).map(Some)
    }
}

impl StreamCheckpoint for TrainCheckpoint {
    /// 0 for a fresh directory or a damaged marker.
    fn completed_epochs(&self) -> usize {
        std::fs::read_to_string(self.dir.join("progress"))
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    }

    fn epoch_completed(&mut self, epoch: usize, model: &mut Pix2Pix) {
        // Weights FIRST, then the progress marker (see the type docs). A
        // failed save skips the marker too: the epoch re-trains on resume
        // from the previous consistent (weights, progress) pair, and a
        // failed marker write costs the same — never a wedged run.
        let saved = model_io::save_checkpoint(model, &self.model_path()).and_then(|()| {
            atomic_write(&self.dir.join("progress"), |w| writeln!(w, "{}", epoch + 1))
                .map_err(CoreError::from)
        });
        if let Err(e) = saved {
            eprintln!(
                "pop-pipeline: training checkpoint failed \
                 (epoch {epoch} will re-train on resume): {e}"
            );
        }
    }
}

/// A background iterator of per-epoch training pairs.
///
/// The stream yields every epoch of its range, or ends in an `Err`: a
/// generation error is yielded as the item of its epoch, and a producer
/// thread that panicked before sending its whole range ends the stream
/// with [`PipelineError::Truncated`] — a short stream never reads as a
/// complete one.
///
/// Dropping the prefetcher early (e.g. the trainer stopped) disconnects
/// the channel; the generator thread notices on its next send and exits.
#[derive(Debug)]
pub struct EpochPrefetcher {
    rx: Option<mpsc::Receiver<Result<Vec<Pair>, PipelineError>>>,
    producer: Option<JoinHandle<()>>,
    stats: Arc<Mutex<GenStats>>,
    /// The epoch the next item belongs to.
    next_epoch: usize,
}

impl EpochPrefetcher {
    /// Starts generating the corpora of `epochs` from `scenarios` in the
    /// background, keeping at most `depth` finished epochs buffered.
    /// Epoch `e` uses sweep seeds shifted by `e * pairs_per_design`, so
    /// consecutive epochs draw disjoint placement seeds; a resumed run
    /// passes `completed_epochs()..total`.
    pub fn start(
        scenarios: Vec<ScenarioSpec>,
        opts: PipelineOptions,
        epochs: Range<usize>,
        depth: usize,
    ) -> Self {
        let stats = Arc::new(Mutex::new(GenStats::default()));
        let sink = Arc::clone(&stats);
        Self::spawn(epochs, depth, stats, move |epoch| {
            epoch_pairs(&scenarios, epoch, &opts, &sink)
        })
    }

    /// The stream of `produce(e)` for each `e` of `epochs`, produced on a
    /// background thread, `depth` epochs ahead at most.
    fn spawn(
        epochs: Range<usize>,
        depth: usize,
        stats: Arc<Mutex<GenStats>>,
        mut produce: impl FnMut(usize) -> Result<Vec<Pair>, PipelineError> + Send + 'static,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel(depth.max(1));
        let next_epoch = epochs.start;
        let producer = std::thread::Builder::new()
            .name("pop-pipe-prefetch".into())
            .spawn(move || {
                for epoch in epochs {
                    let result = produce(epoch);
                    let failed = result.is_err();
                    // Stop when the consumer hung up, or after delivering
                    // an error: nothing sensible follows it.
                    if tx.send(result).is_err() || failed {
                        return;
                    }
                }
            })
            .expect("failed to spawn prefetch thread");
        EpochPrefetcher {
            rx: Some(rx),
            producer: Some(producer),
            stats,
            next_epoch,
        }
    }

    /// The generation counters (jobs, cache hits, place/route stage runs)
    /// of every epoch yielded so far. This is how a streaming consumer
    /// proves the cache contract: a warm run reports 100 % hits and zero
    /// stage runs across every epoch.
    pub fn stats(&self) -> GenStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Generates one epoch's pairs, folding its counters into `stats`.
fn epoch_pairs(
    scenarios: &[ScenarioSpec],
    epoch: usize,
    opts: &PipelineOptions,
    stats: &Mutex<GenStats>,
) -> Result<Vec<Pair>, PipelineError> {
    let (datasets, gen) = generate_jobs_with_stats(shifted_jobs(scenarios, epoch)?, opts)?;
    stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .absorb(gen);
    Ok(datasets.into_iter().flat_map(|d| d.pairs).collect())
}

/// Expands scenarios into jobs whose *placement-sweep* seeds are advanced
/// past every earlier epoch (via
/// [`advance_sweep_seeds`](crate::scenario::advance_sweep_seeds) — the
/// same arithmetic the hold-out split shifts by, which is what makes eval
/// seeds provably disjoint from every training epoch). Only `config.seed`
/// shifts — the netlist variant derivation (the scenario seed) stays
/// fixed, so every epoch re-places the *same* designs rather than
/// inventing new ones.
fn shifted_jobs(scenarios: &[ScenarioSpec], epoch: usize) -> Result<Vec<DesignJob>, PipelineError> {
    let mut jobs = expand(scenarios)?;
    crate::scenario::advance_sweep_seeds(&mut jobs, epoch);
    Ok(jobs)
}

impl Iterator for EpochPrefetcher {
    type Item = Result<Vec<Pair>, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Ok(item) = self.rx.as_ref()?.recv() {
            self.next_epoch += 1;
            return Some(item);
        }
        // The producer hung up: after its whole range, after delivering an
        // error, or because it panicked.
        self.rx = None;
        let panicked = self.producer.take()?.join().err()?;
        Some(Err(PipelineError::Truncated {
            epoch: self.next_epoch,
            panic: panic_message(&*panicked),
        }))
    }
}

impl Drop for EpochPrefetcher {
    fn drop(&mut self) {
        // Disconnect first so a blocked producer send unblocks, then join.
        // A consumer that stopped listening has no use for a late panic.
        self.rx = None;
        if let Some(h) = self.producer.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::by_name;

    fn tiny() -> ScenarioSpec {
        ScenarioSpec {
            pairs_per_design: 2,
            ..by_name("smoke").unwrap()
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pop_prefetch_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A throwaway model for exercising the checkpoint's handshake
    /// directly.
    fn scratch_model() -> Pix2Pix {
        let config = pop_core::ExperimentConfig {
            resolution: 16,
            base_filters: 2,
            depth: 2,
            ..pop_core::ExperimentConfig::test()
        };
        Pix2Pix::new(&config, 1).unwrap()
    }

    fn collect(prefetcher: EpochPrefetcher) -> Vec<Vec<Pair>> {
        prefetcher.collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn epochs_arrive_in_order_with_fresh_placements() {
        let epochs = collect(EpochPrefetcher::start(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            0..2,
            1,
        ));
        assert_eq!(epochs.len(), 2);
        for pairs in &epochs {
            assert_eq!(pairs.len(), 2);
        }
        // Epoch 1 must not reuse epoch 0's placement seeds.
        let seeds0: Vec<u64> = epochs[0].iter().map(|p| p.meta.place_seed).collect();
        let seeds1: Vec<u64> = epochs[1].iter().map(|p| p.meta.place_seed).collect();
        assert!(
            seeds0.iter().all(|s| !seeds1.contains(s)),
            "{seeds0:?} vs {seeds1:?}"
        );
        // And each epoch matches a sequential build of the shifted jobs.
        let direct_pairs: Vec<_> = shifted_jobs(&[tiny()], 1)
            .unwrap()
            .iter()
            .flat_map(|job| {
                pop_core::dataset::build_design_dataset(&job.spec, &job.config)
                    .unwrap()
                    .pairs
            })
            .collect();
        for (a, b) in epochs[1].iter().zip(&direct_pairs) {
            assert_eq!(a.without_timings(), b.without_timings());
        }
    }

    #[test]
    fn epoch_shift_replaces_placements_not_designs() {
        // Multi-variant scenarios must re-place the *same* netlists each
        // epoch: the shift may only touch the placement-sweep seed.
        let scenario = ScenarioSpec {
            variants: 3,
            ..tiny()
        };
        let epoch0 = shifted_jobs(std::slice::from_ref(&scenario), 0).unwrap();
        let epoch1 = shifted_jobs(std::slice::from_ref(&scenario), 1).unwrap();
        for (a, b) in epoch0.iter().zip(&epoch1) {
            assert_eq!(
                a.spec, b.spec,
                "netlist variants must be stable across epochs"
            );
            assert_ne!(a.config.seed, b.config.seed, "sweep seeds must advance");
        }
    }

    #[test]
    fn early_drop_stops_the_producer() {
        let mut prefetcher =
            EpochPrefetcher::start(vec![tiny()], PipelineOptions::with_workers(2), 0..50, 1);
        let first = prefetcher.next().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        // Dropping after one epoch must not hang on the remaining 49.
        drop(prefetcher);
    }

    #[test]
    fn generation_failure_is_yielded_then_ends_the_stream() {
        let bad = ScenarioSpec {
            design: "nosuch".into(),
            ..tiny()
        };
        let mut prefetcher =
            EpochPrefetcher::start(vec![bad], PipelineOptions::with_workers(1), 0..3, 1);
        assert!(matches!(
            prefetcher.next(),
            Some(Err(PipelineError::BadScenario(_)))
        ));
        assert!(prefetcher.next().is_none());
    }

    #[test]
    fn a_producer_panic_ends_the_stream_in_an_error() {
        let mut prefetcher = EpochPrefetcher::spawn(0..3, 1, Arc::default(), |epoch| {
            assert_ne!(epoch, 1, "generator bug at epoch 1");
            Ok(Vec::new())
        });
        let stream = prefetcher.by_ref().collect::<Result<Vec<_>, _>>();
        assert!(prefetcher.next().is_none(), "the error ends the stream");
        match stream {
            Err(e) => {
                assert!(matches!(e, PipelineError::Truncated { epoch: 1, .. }));
                let msg = e.to_string();
                assert!(msg.contains("epoch 1"), "{msg}");
                assert!(msg.contains("generator bug at epoch 1"), "{msg}");
            }
            Ok(epochs) => panic!(
                "a stream that lost its producer read as complete, with {} of 3 epochs",
                epochs.len()
            ),
        }
    }

    #[test]
    fn killed_stream_resumes_with_the_exact_remaining_epochs() {
        // Reference: an uninterrupted 3-epoch run.
        let reference = collect(EpochPrefetcher::start(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            0..3,
            1,
        ));

        // Interrupted run: consume + train epoch 0, acknowledge it through
        // the StreamCheckpoint handshake, then "crash" (drop mid-stream).
        let mut ckpt = TrainCheckpoint::new(scratch("resume"));
        assert_eq!(ckpt.completed_epochs(), 0);
        let mut first = EpochPrefetcher::start(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            ckpt.completed_epochs()..3,
            1,
        );
        let epoch0 = first.next().unwrap().unwrap();
        for (a, b) in epoch0.iter().zip(&reference[0]) {
            assert_eq!(a.without_timings(), b.without_timings());
        }
        ckpt.epoch_completed(0, &mut scratch_model());
        drop(first);

        // Resumed run: must pick up at epoch 1 and yield exactly the
        // epochs the interrupted run would have — bitwise, timings aside.
        assert_eq!(ckpt.completed_epochs(), 1);
        let rest = collect(EpochPrefetcher::start(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            ckpt.completed_epochs()..3,
            1,
        ));
        assert_eq!(rest.len(), 2, "epoch 0 must not be regenerated");
        for (got, want) in rest.iter().zip(&reference[1..]) {
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.without_timings(), b.without_timings());
            }
        }
        // A fully-trained checkpoint yields nothing more.
        for e in 1..3 {
            ckpt.epoch_completed(e, &mut scratch_model());
        }
        assert_eq!(ckpt.completed_epochs(), 3);
        let done = EpochPrefetcher::start(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            ckpt.completed_epochs()..3,
            1,
        );
        assert!(collect(done).is_empty());
        // A mangled progress marker degrades to "start over", not an error.
        std::fs::write(ckpt.dir().join("progress"), b"not a number").unwrap();
        assert_eq!(ckpt.completed_epochs(), 0);
        let _ = std::fs::remove_dir_all(ckpt.dir());
    }

    #[test]
    fn observed_prefetch_reports_generation_stats() {
        let dir = scratch("observed");
        let opts = PipelineOptions::with_workers(2).with_cache_dir(&dir);

        let mut cold_run = EpochPrefetcher::start(vec![tiny()], opts.clone(), 0..2, 1);
        let cold: Vec<_> = cold_run.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(cold.len(), 2);
        let stats = cold_run.stats();
        assert_eq!(stats.jobs, 2, "one job per epoch");
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.place_stage_runs, 4, "2 epochs x 2 pairs");
        assert!(!stats.fully_warm());

        // Warm: the same epochs stream from the CorpusStore — the stats
        // are how streaming-path consumers prove it.
        let mut warm_run = EpochPrefetcher::start(vec![tiny()], opts, 0..2, 1);
        let warm: Vec<_> = warm_run.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(warm, cold);
        let stats = warm_run.stats();
        assert_eq!((stats.jobs, stats.cache_hits), (2, 2));
        assert!(stats.fully_warm());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_epochs_stream_back_from_the_corpus_store() {
        let dir = scratch("store_resume");
        let opts = PipelineOptions::with_workers(2).with_cache_dir(&dir);
        // Cold: three epochs generated, each written to the store.
        let cold = collect(EpochPrefetcher::start(vec![tiny()], opts.clone(), 0..3, 1));
        // A run resumed after epoch 0 reads epochs 1 and 2 back from disk.
        let mut resumed = EpochPrefetcher::start(vec![tiny()], opts, 1..3, 1);
        let rest: Vec<_> = resumed.by_ref().collect::<Result<_, _>>().unwrap();
        let stats = resumed.stats();
        assert_eq!((stats.jobs, stats.cache_hits), (2, 2));
        assert_eq!((stats.place_stage_runs, stats.route_stage_runs), (0, 0));
        // Identical pairs — including the wall-clock provenance, which
        // regeneration could never reproduce, proving the disk path.
        assert_eq!(rest, cold[1..]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
