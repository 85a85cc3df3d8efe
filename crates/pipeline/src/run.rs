//! The **cache-aware** corpus generator: one pool over one work list.
//!
//! Every (placement, routed truth) pair is independent of every other and
//! every step of making one is CPU-bound, so the unit of parallelism is the
//! pair, not the stage: [`PipelineOptions::workers`] threads (one
//! [`WorkerPool`]) share one work list holding two kinds of task.
//!
//! ```text
//! prepare job j    cache probe / claim → netlist + fabric calibration
//!                  → its placement sweep joins the list as pair tasks
//! make pair (j, i) place → route → raster + tensors, on one thread
//!                  → slot the pair; the job's last pair assembles the
//!                    dataset, writes the cache entry, releases the claim
//! ```
//!
//! Every task calls the *same* `pop_core::dataset::DesignContext` stage
//! functions the sequential `build_design_dataset` driver uses, and pairs
//! are reassembled by `(job, sweep index)` — so the output is
//! bitwise-identical to the sequential path for identical seeds, regardless
//! of scheduling (wall-clock `PairMeta` timings aside).
//!
//! With a [`PipelineOptions::cache_dir`] configured, a [`CorpusStore`] hit
//! (keyed by design name + scenario fingerprint) skips calibration and
//! every pair of that job. A warm re-run therefore streams straight from
//! disk — [`GenStats`] reports the hit count and how many place/route stage
//! executions actually ran, which is the observable contract ("zero on
//! warm") the integrity tests pin down.

use crate::error::PipelineError;
use crate::scenario::{DesignJob, ScenarioSpec};
use pop_core::dataset::{
    build_design_dataset, ClaimGuard, ClaimOutcome, CorpusStore, DesignContext, DesignDataset, Pair,
};
use pop_core::CoreError;
use pop_exec::WorkerPool;
use pop_place::PlaceOptions;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Tuning knobs of the parallel generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Generation threads: a run starts exactly this many, each making
    /// whole pairs (place → route → raster) and preparing designs.
    pub workers: usize,
    /// Per-job disk cache ([`CorpusStore`] root): probed before generating,
    /// written as jobs complete. `None` disables caching (always generate).
    pub cache_dir: Option<PathBuf>,
    /// Total byte budget of the cache: after each write, least-recently-
    /// used entries are evicted until the store fits. `None` = unbounded
    /// (the store otherwise grows by one file per job fingerprint forever).
    pub cache_budget: Option<u64>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        PipelineOptions::with_workers(parallelism.min(8))
    }
}

impl PipelineOptions {
    /// Options for `workers` generation threads (at least one), no cache.
    pub fn with_workers(workers: usize) -> Self {
        PipelineOptions {
            workers: workers.max(1),
            cache_dir: None,
            cache_budget: None,
        }
    }

    /// The same options with a per-job disk cache rooted at `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The same options with a total cache size budget in bytes (LRU
    /// entries beyond it are swept after each write).
    #[must_use]
    pub fn with_cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = Some(bytes);
        self
    }
}

/// What a [`generate_jobs_with_stats`] run actually executed — the
/// observable half of the cache contract. A fully warm run reports
/// `cache_hits == jobs` and **zero** place/route stage executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Jobs in the corpus.
    pub jobs: usize,
    /// Jobs served straight from the [`CorpusStore`].
    pub cache_hits: usize,
    /// Placement-stage executions (annealing runs) that actually happened.
    pub place_stage_runs: usize,
    /// Routing-stage executions that actually happened.
    pub route_stage_runs: usize,
    /// Cache writes that failed (disk full, permissions, …). The affected
    /// datasets are still delivered — a cold run never dies because its
    /// cache is sick — but the jobs will regenerate on the next run, so
    /// non-zero here means re-runs won't be fully warm.
    pub cache_write_failures: usize,
}

impl GenStats {
    /// Folds another run's counters into this one — consumers spanning
    /// many generation runs (the epoch prefetcher's epochs, the eval
    /// harness's per-scenario hold-out splits) accumulate one total.
    pub fn absorb(&mut self, other: GenStats) {
        self.jobs += other.jobs;
        self.cache_hits += other.cache_hits;
        self.place_stage_runs += other.place_stage_runs;
        self.route_stage_runs += other.route_stage_runs;
        self.cache_write_failures += other.cache_write_failures;
    }

    /// Whether this run streamed *everything* from the cache: every job a
    /// hit, zero place/route stage executions — the observable the warm
    /// re-run acceptance checks assert.
    pub fn fully_warm(&self) -> bool {
        self.cache_hits == self.jobs && self.place_stage_runs == 0 && self.route_stage_runs == 0
    }
}

/// What a worker does next.
enum Task<J, P> {
    Prepare(J),
    Pair(P),
}

/// The one work list: jobs not yet prepared and pairs ready to be made.
/// Generic over both so its hand-out and shutdown rules are testable
/// without placing or routing anything.
struct WorkList<J, P> {
    state: Mutex<ListState<J, P>>,
    changed: Condvar,
}

struct ListState<J, P> {
    jobs: VecDeque<J>,
    pairs: VecDeque<P>,
    /// Tasks handed out and not yet finished. A running prepare may still
    /// add pairs, so an empty list has only ended once this is zero.
    running: usize,
}

impl<J, P> WorkList<J, P> {
    fn new(jobs: impl IntoIterator<Item = J>) -> Self {
        WorkList {
            state: Mutex::new(ListState {
                jobs: jobs.into_iter().collect(),
                pairs: VecDeque::new(),
                running: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// Every update leaves the deques and the count valid, so a lock
    /// poisoned by a panicking worker is still good to use — and
    /// [`Running`]'s drop, which may run during that unwind, must not panic.
    fn lock(&self) -> MutexGuard<'_, ListState<J, P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until there is a task, or until the list is empty with
    /// nothing running (`None`: the worker exits). A ready pair goes before
    /// an unprepared job: that bounds the designs alive at once by the
    /// workers plus the jobs with pairs in flight, and no placement or
    /// routing result ever waits in a queue.
    fn next(&self) -> Option<(Task<J, P>, Running<'_, J, P>)> {
        let mut state = self.lock();
        loop {
            let task = match state.pairs.pop_front() {
                Some(pair) => Some(Task::Pair(pair)),
                None => state.jobs.pop_front().map(Task::Prepare),
            };
            if let Some(task) = task {
                state.running += 1;
                return Some((task, Running(self)));
            }
            if state.running == 0 {
                return None;
            }
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A handed-out task's hold on the list: while it lives the list cannot
/// end. Retiring on drop means a task that unwinds still lets every other
/// worker see the end instead of waiting on it forever.
struct Running<'a, J, P>(&'a WorkList<J, P>);

impl<J, P> Running<'_, J, P> {
    /// Adds the pair tasks a prepared job expands into.
    fn add_pairs(&self, pairs: impl IntoIterator<Item = P>) {
        self.0.lock().pairs.extend(pairs);
        self.0.changed.notify_all();
    }
}

impl<J, P> Drop for Running<'_, J, P> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        if state.running == 0 {
            self.0.changed.notify_all();
        }
    }
}

struct PairTask {
    job: usize,
    index: usize,
    ctx: Arc<DesignContext>,
    popts: PlaceOptions,
}

/// Per-job reassembly state: preparing a job parks its context here, pair
/// tasks fill sweep-index slots, and whichever worker lands the *last*
/// pair assembles the dataset (and writes the cache) right there —
/// "caches are written as jobs complete", not at the end of the run.
#[derive(Default)]
struct JobSlot {
    ctx: Option<Arc<DesignContext>>,
    pairs: Vec<Option<Pair>>,
    filled: usize,
    /// Cross-process generation claim, held from the cache miss until the
    /// entry has been written (the guard is dropped *after* the store
    /// write, so waiters always find the entry).
    claim: Option<ClaimGuard>,
    /// The job's dataset (cached or assembled) or its first failure; read
    /// in job order once the pool has joined.
    result: Option<Result<DesignDataset, CoreError>>,
}

/// Everything one generation run's workers share.
struct Run {
    list: WorkList<(usize, DesignJob), PairTask>,
    slots: Vec<Mutex<JobSlot>>,
    store: Option<CorpusStore>,
    /// Serialises cache writes: a write ends in a budget sweep, and two
    /// sweeps at once each evict the other's new entry (and over-evict,
    /// counting bytes the other already freed).
    cache_write: Mutex<()>,
    /// This run's exact ledger; the global registry's `pipeline.*`
    /// counters beside it accumulate across runs.
    ledger: Mutex<GenStats>,
}

/// Every stage call is wrapped in `catch_unwind` (stage state is immutable
/// `&self`, so unwinding cannot corrupt it): a panicking stage becomes a
/// per-job failure instead of killing the worker. This is load-bearing —
/// a run must not shrink to fewer workers than it was given because one
/// design's router hit a bug, and the failure has to land in the job's
/// slot or the caller sees `Incomplete` instead of the cause.
fn run_stage<T>(op: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)) {
        Ok(result) => result,
        Err(panic) => Err(CoreError::Pipeline(format!(
            "stage panicked: {}",
            panic_message(&*panic)
        ))),
    }
}

/// The message a panic carried (`panic!`'s `&str` or `String`).
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

impl Run {
    fn slot(&self, job: usize) -> MutexGuard<'_, JobSlot> {
        self.slots[job].lock().expect("job slot lock")
    }

    fn ledger(&self) -> MutexGuard<'_, GenStats> {
        self.ledger.lock().expect("run ledger lock")
    }

    /// The worker body: tasks until the list ends, failures into the slot.
    fn work(&self) {
        while let Some((task, running)) = self.list.next() {
            let (job, outcome) = match task {
                Task::Prepare((job, design_job)) => (
                    job,
                    self.prepare(job, &design_job)
                        .map(|pairs| running.add_pairs(pairs)),
                ),
                Task::Pair(task) => (task.job, self.make_pair(task)),
            };
            if let Err(error) = outcome {
                self.slot(job).result.get_or_insert(Err(error));
            }
        }
    }

    /// Resolves one job against the cache, or prepares its design and
    /// returns its placement sweep as pair tasks.
    fn prepare(&self, job: usize, design_job: &DesignJob) -> Result<Vec<PairTask>, CoreError> {
        // Cache resolution first: a hit skips fabric calibration AND every
        // pair of this job. On a miss, `begin` *claims* the entry (a claim
        // file created exclusively), so concurrent cold runs over one cache
        // dir wait for each other's generation instead of duplicating it —
        // the waiter is then served from the cache.
        let mut claim = None;
        if let Some(store) = &self.store {
            match store.begin(&design_job.spec, &design_job.config)? {
                ClaimOutcome::Cached(ds) => {
                    self.ledger().cache_hits += 1;
                    pop_obs::global().counter("pipeline.cache.hits").inc();
                    self.slot(job).result = Some(Ok(*ds));
                    return Ok(Vec::new());
                }
                ClaimOutcome::Claimed(guard) => {
                    pop_obs::global().counter("pipeline.cache.misses").inc();
                    claim = Some(guard);
                }
            }
        }
        // On failure `claim` (if any) drops here: a failed prepare releases
        // the entry for other processes.
        let ctx = {
            let _span = pop_obs::span!("prep", job = job, design = &design_job.spec.name);
            run_stage(|| DesignContext::prepare(&design_job.spec, &design_job.config))
        }?;
        let ctx = Arc::new(ctx);
        {
            let mut slot = self.slot(job);
            slot.ctx = Some(Arc::clone(&ctx));
            // Parked with the job so the worker that assembles it releases
            // the claim only after the cache write.
            slot.claim = claim;
        }
        Ok(ctx
            .sweep_options()
            .into_iter()
            .enumerate()
            .map(|(index, popts)| PairTask {
                job,
                index,
                ctx: Arc::clone(&ctx),
                popts,
            })
            .collect())
    }

    /// Places, routes and rasterises one pair on this thread and slots it;
    /// the job's last pair also assembles and persists the dataset.
    fn make_pair(&self, task: PairTask) -> Result<(), CoreError> {
        let (job, index) = (task.job, task.index);
        self.ledger().place_stage_runs += 1;
        let (placement, place_micros) = {
            let _span = pop_obs::span!("place_stage", job = job, pair = index);
            run_stage(|| task.ctx.place_stage(&task.popts))
        }?;
        self.ledger().route_stage_runs += 1;
        let (routing, route_micros) = {
            let _span = pop_obs::span!("route_stage", job = job, pair = index);
            run_stage(|| task.ctx.route_stage(&placement))
        }?;
        let pair = {
            let _span = pop_obs::span!("raster_stage", job = job, pair = index);
            run_stage(|| {
                Ok(task.ctx.raster_stage(
                    index,
                    &task.popts,
                    &placement,
                    &routing,
                    place_micros,
                    route_micros,
                ))
            })
        }?;
        // Release this task's context handle before assembly so the slot's
        // Arc is the last one standing on a job's final pair and try_unwrap
        // below reclaims the context without a deep clone (netlist +
        // routing graph).
        drop(task);
        pop_obs::global().counter("pipeline.pairs").inc();
        // Slot the pair in; the worker landing a job's final pair
        // assembles the dataset and persists it immediately.
        let finished = {
            let mut slot = self.slot(job);
            slot.pairs[index] = Some(pair);
            slot.filled += 1;
            (slot.filled == slot.pairs.len()).then(|| {
                (
                    slot.ctx.take(),
                    std::mem::take(&mut slot.pairs),
                    slot.claim.take(),
                )
            })
        };
        let Some((ctx, pairs, claim)) = finished else {
            return Ok(());
        };
        let ctx = ctx.ok_or_else(|| {
            CoreError::Pipeline("job completed without a prepared context".into())
        })?;
        let ctx = Arc::try_unwrap(ctx).unwrap_or_else(|arc| (*arc).clone());
        let pairs: Vec<Pair> = pairs
            .into_iter()
            .map(|p| p.expect("a full slot holds every sweep index"))
            .collect();
        let (spec, config) = (ctx.spec.clone(), ctx.config.clone());
        let ds = ctx.into_dataset(pairs);
        if let Some(store) = &self.store {
            // A sick cache must not kill a healthy generation run: the
            // dataset is delivered regardless, the failure is counted
            // (GenStats) and warned — only the *next* run pays, by
            // regenerating this job.
            let stored = {
                let _writing = self
                    .cache_write
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                store.store(&ds, &spec, &config)
            };
            if let Err(error) = stored {
                self.ledger().cache_write_failures += 1;
                pop_obs::global()
                    .counter("pipeline.cache.write_failures")
                    .inc();
                eprintln!(
                    "pop-pipeline: cache write failed for '{}' (delivering uncached): {error}",
                    spec.name
                );
            }
        }
        // Entry written (or write abandoned): release the generation claim
        // so cross-process waiters proceed.
        drop(claim);
        self.slot(job).result = Some(Ok(ds));
        Ok(())
    }
}

/// Expands scenarios into concrete generation jobs, in scenario order.
///
/// # Errors
///
/// Propagates scenario validation failures.
pub fn expand(scenarios: &[ScenarioSpec]) -> Result<Vec<DesignJob>, PipelineError> {
    let mut jobs = Vec::new();
    for s in scenarios {
        jobs.extend(s.jobs()?);
    }
    Ok(jobs)
}

/// Generates every job's dataset on [`PipelineOptions::workers`] threads,
/// returning datasets in job order plus the run's [`GenStats`] — how many
/// jobs came from the cache and how many place/route stage executions
/// actually ran.
///
/// # Errors
///
/// Returns the first stage failure in job order, or
/// [`PipelineError::Incomplete`] when a worker died without delivering.
pub fn generate_jobs_with_stats(
    jobs: Vec<DesignJob>,
    opts: &PipelineOptions,
) -> Result<(Vec<DesignDataset>, GenStats), PipelineError> {
    let njobs = jobs.len();
    if njobs == 0 {
        return Ok((Vec::new(), GenStats::default()));
    }
    let store = opts.cache_dir.as_ref().map(|dir| {
        let store = CorpusStore::new(dir);
        match opts.cache_budget {
            Some(bytes) => store.with_budget(bytes),
            None => store,
        }
    });
    let names: Vec<String> = jobs.iter().map(|j| j.spec.name.clone()).collect();
    pop_obs::global().counter("pipeline.jobs").add(njobs as u64);
    let run = Arc::new(Run {
        slots: jobs
            .iter()
            .map(|j| {
                Mutex::new(JobSlot {
                    pairs: vec![None; j.config.pairs_per_design],
                    ..JobSlot::default()
                })
            })
            .collect(),
        list: WorkList::new(jobs.into_iter().enumerate()),
        store,
        cache_write: Mutex::new(()),
        ledger: Mutex::new(GenStats {
            jobs: njobs,
            ..GenStats::default()
        }),
    });

    let mut pool = WorkerPool::spawn("pop-pipe", opts.workers.max(1), |_| {
        let run = Arc::clone(&run);
        move || run.work()
    });
    // Workers cannot die mid-task (stage panics are caught above), so
    // every job's slot holds a dataset or a failure; the `Incomplete`
    // check below is a backstop.
    let _ = pool.join();

    let mut datasets = Vec::with_capacity(njobs);
    let mut incomplete = None;
    for (slot, name) in run.slots.iter().zip(names) {
        let result = slot.lock().expect("job slot lock").result.take();
        match result {
            Some(Ok(ds)) => datasets.push(ds),
            Some(Err(error)) => return Err(PipelineError::Core(error)),
            None => incomplete = incomplete.or(Some(name)),
        }
    }
    if let Some(design) = incomplete {
        return Err(PipelineError::Incomplete { design });
    }
    let stats = *run.ledger();
    Ok((datasets, stats))
}

/// Expands every scenario's **held-out evaluation split**
/// ([`ScenarioSpec::holdout_jobs`]): same designs, placement-sweep seeds
/// advanced past `train_epochs` training epochs, `eval_pairs` placements
/// per variant — in scenario order.
///
/// # Errors
///
/// Propagates scenario validation failures.
pub fn expand_holdout(
    scenarios: &[ScenarioSpec],
    eval_pairs: usize,
    train_epochs: usize,
) -> Result<Vec<DesignJob>, PipelineError> {
    let mut jobs = Vec::new();
    for s in scenarios {
        jobs.extend(s.holdout_jobs(eval_pairs, train_epochs)?);
    }
    Ok(jobs)
}

/// Generates every scenario's held-out evaluation split on the parallel
/// pipeline ([`expand_holdout`] → [`generate_jobs_with_stats`]), datasets
/// in scenario order. The split is cache-fingerprint-aware: with a
/// [`PipelineOptions::cache_dir`] configured, a warm re-run reports 100 %
/// cache hits and executes zero place/route stages.
///
/// # Errors
///
/// Propagates scenario validation and generation failures.
pub fn generate_holdout_with_stats(
    scenarios: &[ScenarioSpec],
    eval_pairs: usize,
    train_epochs: usize,
    opts: &PipelineOptions,
) -> Result<(Vec<DesignDataset>, GenStats), PipelineError> {
    generate_jobs_with_stats(expand_holdout(scenarios, eval_pairs, train_epochs)?, opts)
}

/// Generates the corpus described by `scenarios` on the parallel pipeline:
/// [`expand`] then [`generate_jobs_with_stats`], datasets in scenario order
/// plus the run's [`GenStats`] (cache hits, actual place/route stage
/// executions) — the observable a warm-cache re-run is judged by.
///
/// # Errors
///
/// Propagates scenario validation and generation failures.
pub fn generate_corpus_with_stats(
    scenarios: &[ScenarioSpec],
    opts: &PipelineOptions,
) -> Result<(Vec<DesignDataset>, GenStats), PipelineError> {
    generate_jobs_with_stats(expand(scenarios)?, opts)
}

/// The sequential reference path: the same jobs, one
/// [`build_design_dataset`] call at a time on the calling thread. The
/// parallel pipeline's output is bitwise-identical to this (see the golden
/// determinism tests).
///
/// # Errors
///
/// Propagates scenario validation and generation failures.
pub fn generate_corpus_sequential(
    scenarios: &[ScenarioSpec],
) -> Result<Vec<DesignDataset>, PipelineError> {
    expand(scenarios)?
        .into_iter()
        .map(|job| build_design_dataset(&job.spec, &job.config).map_err(PipelineError::Core))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Fate {
        Succeeds,
        Fails,
        /// Unwinds inside the worker's `catch_unwind`, as a stage does.
        Panics,
        /// Unwinds through the worker loop and kills the thread.
        KillsWorker,
    }

    /// A job: its own fate preparing, and the fate of each of its pairs.
    type Job = (Fate, Vec<Fate>);

    fn act(fate: Fate) -> bool {
        match fate {
            Fate::Succeeds => true,
            Fate::Fails => false,
            // `resume_unwind` skips the panic hook: no backtrace noise.
            Fate::Panics | Fate::KillsWorker => resume_unwind(Box::new("task unwound")),
        }
    }

    /// Drains `jobs` on `workers` threads shaped like [`Run::work`], then
    /// asserts every worker left the list within the timeout, every job
    /// was prepared once and every pair of a prepared job made once.
    fn assert_each_task_runs_once(jobs: &[Job], workers: usize) {
        let counters = |n: usize| (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        let shared = Arc::new((
            WorkList::<(usize, Job), (usize, usize, Fate)>::new(jobs.iter().cloned().enumerate()),
            counters(jobs.len()),
            jobs.iter().map(|j| counters(j.1.len())).collect::<Vec<_>>(),
        ));
        let spawn = |_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (list, prepared, made) = (&shared.0, &shared.1, &shared.2);
                while let Some((task, running)) = list.next() {
                    let fate = match &task {
                        Task::Prepare((_, (fate, _))) | Task::Pair((_, _, fate)) => *fate,
                    };
                    let step = AssertUnwindSafe(|| match task {
                        Task::Prepare((job, (fate, pairs))) => {
                            prepared[job].fetch_add(1, Ordering::Relaxed);
                            if act(fate) {
                                let pairs = pairs.into_iter().enumerate();
                                running.add_pairs(pairs.map(|(i, fate)| (job, i, fate)));
                            }
                        }
                        Task::Pair((job, index, fate)) => {
                            made[job][index].fetch_add(1, Ordering::Relaxed);
                            act(fate);
                        }
                    });
                    if fate == Fate::KillsWorker {
                        step();
                    } else {
                        let _ = catch_unwind(step);
                    }
                }
            })
        };
        let threads: Vec<_> = (0..workers).map(spawn).collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !threads.iter().all(|t| t.is_finished()) {
            assert!(
                Instant::now() < deadline,
                "a worker never saw the end of the list"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for (id, (fate, pairs)) in jobs.iter().enumerate() {
            let count = |a: &AtomicUsize| a.load(Ordering::Relaxed);
            assert_eq!(count(&shared.1[id]), 1, "job {id} on {workers} workers");
            // A job whose prepare did not succeed expands into nothing.
            let expected = usize::from(*fate == Fate::Succeeds);
            let made: Vec<usize> = shared.2[id].iter().map(count).collect();
            assert_eq!(made, vec![expected; pairs.len()], "job {id} pairs");
        }
    }

    #[test]
    fn work_list_hands_every_task_out_once_and_every_worker_sees_the_end() {
        // xorshift64: random job → k-pairs trees with random failures.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let fate = |r: u64| {
            *[Fate::Fails, Fate::Panics]
                .get(r as usize)
                .unwrap_or(&Fate::Succeeds)
        };
        for round in 0..60 {
            let jobs: Vec<Job> = (0..next(6))
                .map(|_| (fate(next(6)), (0..next(5)).map(|_| fate(next(6))).collect()))
                .collect();
            assert_each_task_runs_once(&jobs, [1, 2, 4][round % 3]);
        }
    }

    #[test]
    fn work_list_ends_when_its_last_running_task_fails_or_unwinds() {
        use Fate::*;
        // The other workers are parked on the list while the only running
        // task fails, panics under `catch_unwind`, or takes its thread
        // down: each must wake them to an ended list, not strand them.
        for last in [Fails, Panics, KillsWorker] {
            for workers in [1, 2, 4] {
                assert_each_task_runs_once(&[(last, vec![Succeeds; 3])], workers);
                assert_each_task_runs_once(&[(Succeeds, vec![last])], workers);
                let two = [(Succeeds, vec![Succeeds, Succeeds]), (last, vec![])];
                assert_each_task_runs_once(&two, workers);
            }
        }
    }
}
