//! Background epoch prefetch: generate epoch `N + 1`'s pairs while epoch
//! `N` trains — now with an optional **spill-to-disk ring** that makes an
//! interrupted streaming run resumable.
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
//! With an [`EpochRing`] attached ([`EpochPrefetcher::start_with_ring`]),
//! every generated epoch is spilled to disk (atomically, keyed by a
//! fingerprint of the shifted jobs) before it is handed to the trainer,
//! and the trainer acknowledges trained epochs back into the ring through
//! the [`StreamCheckpoint`] handshake
//! ([`Pix2Pix::train_stream_resumable`](pop_core::Pix2Pix::train_stream_resumable)).
//! A killed run therefore resumes *mid-corpus*: already-trained epochs are
//! skipped outright, already-generated-but-untrained epochs stream back
//! from the spill files, and only genuinely new epochs pay for place +
//! route again.

use crate::error::PipelineError;
use crate::run::{expand, generate_jobs_with_stats, GenStats, PipelineOptions};
use crate::scenario::{DesignJob, ScenarioSpec};
use pop_core::codec::{atomic_write, Fnv1a, Put, Reader};
use pop_core::dataset::{fingerprint, read_pair, write_pair, Pair, PAIR_MIN_BYTES};
use pop_core::{model_io, CoreError, ExperimentConfig, Pix2Pix, StreamCheckpoint};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

const RING_MAGIC: &[u8; 8] = b"POPRING1";

/// A bounded on-disk ring of generated epochs plus a training-progress
/// marker — the persistence half of resumable streaming.
///
/// Layout under `dir`:
///
/// * `epoch-<e>.pope` — the spilled pairs of epoch `e`, keyed by a
///   fingerprint of the epoch's (seed-shifted) generation jobs; at most
///   `capacity` of these are kept (oldest pruned first). Through
///   [`pop_core::codec`]: the header `POPRING1 ‖ key:u64`, then `epoch:u64
///   ‖ pairs:u32` and the pair records;
/// * `progress` — how many epochs the *trainer* has fully consumed,
///   advanced through the [`StreamCheckpoint`] handshake.
///
/// All writes are atomic (tmp + rename) and all reads treat damage as a
/// miss, exactly like the dataset cache: a truncated spill file costs a
/// regeneration, never a wedged stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRing {
    dir: PathBuf,
    capacity: usize,
}

impl EpochRing {
    /// A ring rooted at `dir` keeping at most `capacity` spilled epochs
    /// (minimum 1). The directory is created lazily on first write.
    pub fn new(dir: impl Into<PathBuf>, capacity: usize) -> Self {
        EpochRing {
            dir: dir.into(),
            capacity: capacity.max(1),
        }
    }

    /// The ring's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn epoch_path(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:06}.pope"))
    }

    fn progress_path(&self) -> PathBuf {
        self.dir.join("progress")
    }

    /// How many epochs a previous run fully *trained* (0 for a fresh or
    /// damaged ring).
    pub fn completed_epochs(&self) -> usize {
        std::fs::read_to_string(self.progress_path())
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    }

    /// Records that training on `epoch` finished (progress becomes
    /// `epoch + 1`) and prunes spill files the resumed stream can never
    /// need again.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the progress marker.
    pub fn mark_completed(&self, epoch: usize) -> std::io::Result<()> {
        atomic_write(&self.progress_path(), |w| writeln!(w, "{}", epoch + 1))?;
        self.prune(epoch + 1);
        Ok(())
    }

    /// Loads a spilled epoch; `None` on a miss (absent, truncated, corrupt
    /// or generated under a different scenario key — all of which mean
    /// "regenerate").
    pub fn load_epoch(&self, key: u64, epoch: usize) -> Option<Vec<Pair>> {
        let mut r = Reader::open(&self.epoch_path(epoch)).ok()?;
        r.header(RING_MAGIC, key).ok()?;
        if r.u64().ok()? != epoch as u64 {
            return None;
        }
        let n = r.count(PAIR_MIN_BYTES).ok()?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push(read_pair(&mut r).ok()?);
        }
        r.finish().ok()?;
        Some(pairs)
    }

    /// Atomically spills one epoch's pairs, then prunes the ring down to
    /// its capacity (and below the training-progress watermark).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn store_epoch(&self, key: u64, epoch: usize, pairs: &[Pair]) -> std::io::Result<()> {
        atomic_write(&self.epoch_path(epoch), |w| {
            w.put_header(RING_MAGIC, key)?;
            w.put_u64(epoch as u64)?;
            w.put_usize(pairs.len())?;
            pairs.iter().try_for_each(|p| write_pair(w, p))
        })?;
        self.prune(
            self.completed_epochs()
                .max((epoch + 1).saturating_sub(self.capacity)),
        );
        Ok(())
    }

    /// Removes spill files for epochs below `watermark` (best-effort).
    fn prune(&self, watermark: usize) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(idx) = name
                .to_str()
                .and_then(|n| n.strip_prefix("epoch-"))
                .and_then(|n| n.strip_suffix(".pope"))
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            if idx < watermark {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// The trainer-side half of the resume handshake: `train_stream_resumable`
/// starts counting at [`EpochRing::completed_epochs`] and advances the
/// ring's progress marker only *after* each epoch actually trained.
impl StreamCheckpoint for EpochRing {
    fn completed_epochs(&self) -> usize {
        EpochRing::completed_epochs(self)
    }

    fn epoch_completed(&mut self, epoch: usize, _model: &mut Pix2Pix) {
        // Data-only resume: the ring tracks the corpus position, not the
        // weights (wrap it in a [`TrainCheckpoint`] to persist both). A
        // failed marker write only costs a re-train of this epoch on the
        // next resume — never wedges the current run.
        let _ = self.mark_completed(epoch);
    }
}

/// An [`EpochRing`] plus a model-checkpoint path: the *complete* resume
/// handshake. The bare ring resumes the **data** stream but a resumed
/// trainer would still start from fresh weights — the PR 3 follow-on bug.
/// `TrainCheckpoint` closes it: each epoch acknowledgement first persists
/// the full training state ([`model_io::save_checkpoint`] — weights,
/// Adam moments/steps, trainer RNG position) and only then advances the
/// ring's progress marker, so the weights on disk can never run ahead of
/// the corpus position. On resume, [`TrainCheckpoint::restore`] rebuilds
/// the model the interrupted run was training.
///
/// Ordering contract: weights before marker. A crash between the two
/// costs one re-trained epoch (from the saved weights) — it can never
/// silently skip an epoch or resume from re-initialised weights.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    ring: EpochRing,
    model_path: PathBuf,
}

impl TrainCheckpoint {
    /// Couples `ring` with a model checkpoint at `model_path`.
    pub fn new(ring: EpochRing, model_path: impl Into<PathBuf>) -> Self {
        TrainCheckpoint {
            ring,
            model_path: model_path.into(),
        }
    }

    /// The underlying epoch ring.
    pub fn ring(&self) -> &EpochRing {
        &self.ring
    }

    /// Where the model checkpoint lives.
    pub fn model_path(&self) -> &Path {
        &self.model_path
    }

    /// Rebuilds the interrupted run's model: `Ok(Some)` when the ring has
    /// trained epochs *and* a checkpoint exists, `Ok(None)` for a fresh
    /// (or model-less, data-only) ring — the caller should then start a
    /// fresh model **and** reset the ring so data and weights restart
    /// together.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] when an existing checkpoint cannot be
    /// loaded (corrupt, or trained with a different architecture).
    pub fn restore(&self, config: &ExperimentConfig) -> Result<Option<Pix2Pix>, CoreError> {
        if self.ring.completed_epochs() == 0 || !self.model_path.exists() {
            return Ok(None);
        }
        model_io::load_checkpoint(config, &self.model_path).map(Some)
    }
}

impl StreamCheckpoint for TrainCheckpoint {
    fn completed_epochs(&self) -> usize {
        self.ring.completed_epochs()
    }

    fn epoch_completed(&mut self, epoch: usize, model: &mut Pix2Pix) {
        // Weights FIRST, then the progress marker (see the type docs). A
        // failed save skips the marker too: the epoch re-trains on resume
        // from the previous consistent (weights, progress) pair.
        match model_io::save_checkpoint(model, &self.model_path) {
            Ok(()) => {
                let _ = self.ring.mark_completed(epoch);
            }
            Err(e) => eprintln!(
                "pop-pipeline: model checkpoint failed \
                 (epoch {epoch} will re-train on resume): {e}"
            ),
        }
    }
}

/// The key a spilled epoch is stored under: folds every job fingerprint of
/// the (seed-shifted) epoch expansion together, so *any* scenario-parameter
/// change — or the epoch's own seed shift — invalidates the spill.
fn epoch_key(jobs: &[DesignJob]) -> u64 {
    let mut h = Fnv1a::new();
    for job in jobs {
        h.eat(fingerprint(&job.spec, &job.config));
    }
    h.finish()
}

/// A background iterator of per-epoch training pairs.
///
/// Dropping the prefetcher early (e.g. the trainer stopped) disconnects
/// the channel; the generator thread notices on its next send and exits.
#[derive(Debug)]
pub struct EpochPrefetcher {
    rx: Option<mpsc::Receiver<Result<Vec<Pair>, PipelineError>>>,
    producer: Option<JoinHandle<()>>,
    first_epoch: usize,
}

impl EpochPrefetcher {
    /// Starts generating `epochs` corpora from `scenarios` in the
    /// background, keeping at most `depth` finished epochs buffered.
    /// Epoch `e` uses sweep seeds shifted by `e * pairs_per_design`, so
    /// consecutive epochs draw disjoint placement seeds.
    pub fn start(
        scenarios: Vec<ScenarioSpec>,
        opts: PipelineOptions,
        epochs: usize,
        depth: usize,
    ) -> Self {
        Self::start_inner(scenarios, opts, epochs, depth, None, None)
    }

    /// [`EpochPrefetcher::start`] with a shared [`GenStats`] sink: every
    /// epoch's generation counters (jobs, cache hits, actual place/route
    /// stage executions) are folded into `stats` as the epoch completes.
    /// This is how a consumer of the *streaming* training path (e.g. the
    /// eval harness) can still prove the cache contract — a warm re-run
    /// reports 100 % hits and zero stage runs across every epoch.
    pub fn start_observed(
        scenarios: Vec<ScenarioSpec>,
        opts: PipelineOptions,
        epochs: usize,
        depth: usize,
        stats: Arc<Mutex<GenStats>>,
    ) -> Self {
        Self::start_inner(scenarios, opts, epochs, depth, None, Some(stats))
    }

    /// [`EpochPrefetcher::start`] with a spill-to-disk [`EpochRing`]: every
    /// generated epoch is persisted before it is yielded, and epochs the
    /// ring marks as already trained are skipped entirely — this is the
    /// resume path. Combined with
    /// [`Pix2Pix::train_stream_resumable`](pop_core::Pix2Pix::train_stream_resumable)
    /// (pass the same ring as the checkpoint), an interrupted `train_stream`
    /// run picks up at the first untrained epoch, streaming any
    /// already-spilled epochs straight from disk instead of regenerating
    /// from seeds.
    pub fn start_with_ring(
        scenarios: Vec<ScenarioSpec>,
        opts: PipelineOptions,
        epochs: usize,
        depth: usize,
        ring: EpochRing,
    ) -> Self {
        Self::start_inner(scenarios, opts, epochs, depth, Some(ring), None)
    }

    fn start_inner(
        scenarios: Vec<ScenarioSpec>,
        opts: PipelineOptions,
        epochs: usize,
        depth: usize,
        ring: Option<EpochRing>,
        stats: Option<Arc<Mutex<GenStats>>>,
    ) -> Self {
        let first_epoch = ring
            .as_ref()
            .map_or(0, EpochRing::completed_epochs)
            .min(epochs);
        let (tx, rx) = mpsc::sync_channel(depth.max(1));
        let producer = std::thread::Builder::new()
            .name("pop-pipe-prefetch".into())
            .spawn(move || {
                for epoch in first_epoch..epochs {
                    let result =
                        epoch_pairs(&scenarios, epoch, &opts, ring.as_ref(), stats.as_ref());
                    let failed = result.is_err();
                    if tx.send(result).is_err() {
                        return; // consumer hung up — stop generating
                    }
                    if failed {
                        return; // error delivered; nothing sensible follows
                    }
                }
            })
            .expect("failed to spawn prefetch thread");
        EpochPrefetcher {
            rx: Some(rx),
            producer: Some(producer),
            first_epoch,
        }
    }

    /// The index of the first epoch this prefetcher will yield: 0 for a
    /// fresh stream, the interrupted run's trained-epoch count when
    /// resuming from a ring.
    pub fn first_epoch(&self) -> usize {
        self.first_epoch
    }

    /// Convenience consumer: unwraps errors into the first failure and
    /// collects the remaining epochs eagerly (mostly for tests; training
    /// should iterate lazily to overlap generation with optimisation).
    ///
    /// # Errors
    ///
    /// Returns the first generation failure.
    pub fn collect_epochs(self) -> Result<Vec<Vec<Pair>>, PipelineError> {
        self.collect()
    }
}

/// Materialises one epoch: spill-ring hit if available, else a full
/// pipeline generation (spilled back to the ring before it is yielded, so
/// a consumer crash after this point costs no regeneration).
fn epoch_pairs(
    scenarios: &[ScenarioSpec],
    epoch: usize,
    opts: &PipelineOptions,
    ring: Option<&EpochRing>,
    stats: Option<&Arc<Mutex<GenStats>>>,
) -> Result<Vec<Pair>, PipelineError> {
    let jobs = shifted_jobs(scenarios, epoch)?;
    let key = epoch_key(&jobs);
    if let Some(ring) = ring {
        if let Some(pairs) = ring.load_epoch(key, epoch) {
            return Ok(pairs);
        }
    }
    let (datasets, gen) = generate_jobs_with_stats(jobs, opts)?;
    if let Some(stats) = stats {
        stats.lock().expect("prefetch stats lock").absorb(gen);
    }
    let pairs: Vec<Pair> = datasets.into_iter().flat_map(|d| d.pairs).collect();
    if let Some(ring) = ring {
        ring.store_epoch(key, epoch, &pairs)
            .map_err(|e| PipelineError::Checkpoint(format!("spill epoch {epoch}: {e}")))?;
    }
    Ok(pairs)
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
        self.rx.as_ref()?.recv().ok()
    }
}

impl Drop for EpochPrefetcher {
    fn drop(&mut self) {
        // Disconnect first so a blocked producer send unblocks, then join.
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
    use pop_core::dataset::PairMeta;
    use pop_nn::Tensor;

    fn tiny() -> ScenarioSpec {
        ScenarioSpec {
            pairs_per_design: 2,
            ..by_name("smoke").unwrap()
        }
    }

    fn tmp_ring(tag: &str, capacity: usize) -> EpochRing {
        let dir = std::env::temp_dir().join(format!("pop_ring_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        EpochRing::new(dir, capacity)
    }

    /// A throwaway model for exercising the ring's (model-agnostic)
    /// StreamCheckpoint impl directly.
    fn scratch_model() -> Pix2Pix {
        let config = pop_core::ExperimentConfig {
            resolution: 16,
            base_filters: 2,
            depth: 2,
            ..pop_core::ExperimentConfig::test()
        };
        Pix2Pix::new(&config, 1).unwrap()
    }

    fn synthetic_pairs(n: usize) -> Vec<Pair> {
        (0..n)
            .map(|i| Pair {
                x: Tensor::randn([1, 2, 4, 4], 0.0, 1.0, i as u64),
                y: Tensor::randn([1, 3, 4, 4], 0.0, 1.0, (i + 100) as u64),
                meta: PairMeta::synthetic(i as u64),
            })
            .collect()
    }

    #[test]
    fn epochs_arrive_in_order_with_fresh_placements() {
        let prefetcher =
            EpochPrefetcher::start(vec![tiny()], PipelineOptions::with_workers(2), 2, 1);
        let epochs = prefetcher.collect_epochs().unwrap();
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
            EpochPrefetcher::start(vec![tiny()], PipelineOptions::with_workers(2), 50, 1);
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
            EpochPrefetcher::start(vec![bad], PipelineOptions::with_workers(1), 3, 1);
        assert!(matches!(
            prefetcher.next(),
            Some(Err(PipelineError::BadScenario(_)))
        ));
        assert!(prefetcher.next().is_none());
    }

    #[test]
    fn ring_round_trips_and_misses_on_damage() {
        let ring = tmp_ring("roundtrip", 8);
        let pairs = synthetic_pairs(3);
        ring.store_epoch(7, 2, &pairs).unwrap();
        assert_eq!(ring.load_epoch(7, 2).unwrap(), pairs);
        // Wrong key or epoch: miss.
        assert!(ring.load_epoch(8, 2).is_none());
        assert!(ring.load_epoch(7, 3).is_none());
        // Truncation anywhere: miss, not a panic or error.
        let path = ring.dir().join("epoch-000002.pope");
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 7, 8, 19, 27, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(ring.load_epoch(7, 2).is_none(), "cut at {cut}");
        }
        // A corrupt pair count must not drive a huge allocation.
        let mut huge = bytes[..28].to_vec();
        huge[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        assert!(ring.load_epoch(7, 2).is_none());
        let _ = std::fs::remove_dir_all(ring.dir());
    }

    #[test]
    fn ring_prunes_to_capacity_and_tracks_progress() {
        let ring = tmp_ring("prune", 2);
        let pairs = synthetic_pairs(1);
        for e in 0..4 {
            ring.store_epoch(1, e, &pairs).unwrap();
        }
        // Capacity 2: epochs 0 and 1 pruned, 2 and 3 kept.
        assert!(ring.load_epoch(1, 0).is_none());
        assert!(ring.load_epoch(1, 1).is_none());
        assert!(ring.load_epoch(1, 2).is_some());
        assert!(ring.load_epoch(1, 3).is_some());
        // Progress marker round-trips and prunes consumed epochs.
        assert_eq!(ring.completed_epochs(), 0);
        ring.mark_completed(2).unwrap();
        assert_eq!(ring.completed_epochs(), 3);
        assert!(ring.load_epoch(1, 2).is_none(), "trained epochs are pruned");
        assert!(ring.load_epoch(1, 3).is_some());
        // A mangled progress file degrades to "start over", not an error.
        std::fs::write(ring.dir().join("progress"), b"not a number").unwrap();
        assert_eq!(ring.completed_epochs(), 0);
        let _ = std::fs::remove_dir_all(ring.dir());
    }

    #[test]
    fn killed_stream_resumes_with_the_exact_remaining_epochs() {
        // Reference: an uninterrupted 3-epoch run (no ring).
        let reference =
            EpochPrefetcher::start(vec![tiny()], PipelineOptions::with_workers(2), 3, 1)
                .collect_epochs()
                .unwrap();

        // Interrupted run: consume + train epoch 0, acknowledge it through
        // the StreamCheckpoint handshake, then "crash" (drop mid-stream).
        let mut ring = tmp_ring("resume", 4);
        let mut first = EpochPrefetcher::start_with_ring(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            3,
            1,
            ring.clone(),
        );
        assert_eq!(first.first_epoch(), 0);
        let epoch0 = first.next().unwrap().unwrap();
        for (a, b) in epoch0.iter().zip(&reference[0]) {
            assert_eq!(a.without_timings(), b.without_timings());
        }
        StreamCheckpoint::epoch_completed(&mut ring, 0, &mut scratch_model());
        drop(first);

        // Resumed run: must pick up at epoch 1 and yield exactly the
        // epochs the interrupted run would have — bitwise, timings aside.
        let resumed = EpochPrefetcher::start_with_ring(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            3,
            1,
            ring.clone(),
        );
        assert_eq!(resumed.first_epoch(), 1);
        let rest = resumed.collect_epochs().unwrap();
        assert_eq!(rest.len(), 2, "epoch 0 must not be regenerated");
        for (got, want) in rest.iter().zip(&reference[1..]) {
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.without_timings(), b.without_timings());
            }
        }
        // A fully-trained ring yields nothing more.
        for e in 1..3 {
            StreamCheckpoint::epoch_completed(&mut ring, e, &mut scratch_model());
        }
        let done = EpochPrefetcher::start_with_ring(
            vec![tiny()],
            PipelineOptions::with_workers(2),
            3,
            1,
            ring.clone(),
        );
        assert_eq!(done.first_epoch(), 3);
        assert!(done.collect_epochs().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(ring.dir());
    }

    #[test]
    fn observed_prefetch_reports_generation_stats() {
        let dir = std::env::temp_dir().join("pop_prefetch_observed_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PipelineOptions::with_workers(2).with_cache_dir(&dir);

        let cold_stats = Arc::new(Mutex::new(GenStats::default()));
        let cold = EpochPrefetcher::start_observed(
            vec![tiny()],
            opts.clone(),
            2,
            1,
            Arc::clone(&cold_stats),
        )
        .collect_epochs()
        .unwrap();
        assert_eq!(cold.len(), 2);
        let stats = *cold_stats.lock().unwrap();
        assert_eq!(stats.jobs, 2, "one job per epoch");
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.place_stage_runs, 4, "2 epochs x 2 pairs");
        assert!(!stats.fully_warm());

        // Warm: the same epochs stream from the CorpusStore — the stats
        // sink is how streaming-path consumers prove it.
        let warm_stats = Arc::new(Mutex::new(GenStats::default()));
        let warm =
            EpochPrefetcher::start_observed(vec![tiny()], opts, 2, 1, Arc::clone(&warm_stats))
                .collect_epochs()
                .unwrap();
        assert_eq!(warm, cold);
        let stats = *warm_stats.lock().unwrap();
        assert_eq!((stats.jobs, stats.cache_hits), (2, 2));
        assert!(stats.fully_warm());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_epochs_stream_back_from_disk() {
        let ring = tmp_ring("spill", 4);
        let scenarios = vec![tiny()];
        let jobs = shifted_jobs(&scenarios, 0).unwrap();
        let key = epoch_key(&jobs);
        // Cold: generated and spilled.
        let cold = epoch_pairs(
            &scenarios,
            0,
            &PipelineOptions::with_workers(2),
            Some(&ring),
            None,
        )
        .unwrap();
        let spilled = ring.load_epoch(key, 0).expect("epoch spilled");
        assert_eq!(spilled, cold);
        // Warm: identical pairs — including the wall-clock provenance,
        // which regeneration could never reproduce, proving the disk path.
        let warm = epoch_pairs(
            &scenarios,
            0,
            &PipelineOptions::with_workers(2),
            Some(&ring),
            None,
        )
        .unwrap();
        assert_eq!(warm, cold);
        let _ = std::fs::remove_dir_all(ring.dir());
    }
}
