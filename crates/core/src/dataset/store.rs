//! The corpus store: one `.popds` file per job, keyed by design name and
//! scenario [`fingerprint`], with cross-process generation claims, an LRU
//! size budget, and [`build_or_load`] on top.
//!
//! File layout (through [`crate::codec`]): the header `POPDS004 ‖
//! fingerprint:u64`, then `pairs:u32 ‖ channel_width:u32 ‖ grid_width:u32
//! ‖ grid_height:u32` and the pair records.

use super::{build_design_dataset, read_pair, write_pair, DesignDataset, PAIR_MIN_BYTES};
use crate::codec::{atomic_write, nonce, Fnv1a, Put, Reader};
use crate::config::ExperimentConfig;
use crate::error::CoreError;
use pop_netlist::SyntheticSpec;
use std::fs::File;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bumped whenever the on-disk layout *or* the fingerprint recipe changes,
/// so caches written by older builds can never be silently loaded.
///
/// v4: pair records are self-contained (each carries its design name);
/// writes are atomic (tmp + rename).
///
/// v5: the fingerprint folds in a placement-strategy word (there were two
/// annealers then; it is the constant `0` now that there is one). The
/// record layout is unchanged, so `MAGIC` stays at `POPDS004`.
///
/// v6: `min_channel_width` brackets its search from the uncongested peak
/// instead of by doubling. Routability is not monotone in width, so a
/// design may calibrate to a different fabric than it did under the old
/// probe order (dcsg × 0.03: 81 → 78); a store written before that must
/// not be served as warm. Layout unchanged again.
pub const CACHE_FORMAT_VERSION: u32 = 6;

pub(super) const MAGIC: &[u8; 8] = b"POPDS004";

/// Fingerprint of everything that affects generated data: the cache format
/// version, the full synthetic spec (scenario generation varies fanout,
/// locality and seeds — not just the preset seed) and every config knob on
/// the data path (including the fabric slack/aspect scenario parameters).
///
/// Public because cache *keys* are part of the system's contract: the
/// [`CorpusStore`] names per-job cache files by it, so every streamed
/// training epoch — a set of seed-shifted jobs — has its own entries.
pub fn fingerprint(spec: &SyntheticSpec, config: &ExperimentConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(CACHE_FORMAT_VERSION as u64);
    h.eat_bytes(spec.name.as_bytes());
    h.eat(spec.luts as u64);
    h.eat(spec.ffs as u64);
    h.eat(spec.nets as u64);
    h.eat(spec.inputs as u64);
    h.eat(spec.outputs as u64);
    h.eat(spec.memories as u64);
    h.eat(spec.multipliers as u64);
    h.eat(spec.luts_per_clb as u64);
    h.eat(spec.mean_fanout.to_bits());
    h.eat(spec.locality.to_bits());
    h.eat(spec.seed);
    h.eat(config.resolution as u64);
    h.eat(config.pairs_per_design as u64);
    h.eat(config.design_scale.to_bits());
    h.eat(config.lambda_connect.to_bits() as u64);
    h.eat(u64::from(config.grayscale_input));
    h.eat(config.channel_width_margin.to_bits());
    h.eat(config.fabric_slack.to_bits());
    h.eat(config.fabric_aspect.to_bits());
    h.eat(config.seed);
    // Where the placement-strategy tag was: the one annealer left hashed
    // as 0, and dropping the word would orphan every corpus on disk.
    h.eat(0);
    h.finish()
}

/// Decodes a dataset file and hands back its open handle; any damage is
/// an error, which [`CorpusStore::load`] reads as a miss.
fn read_dataset_file(
    mut r: Reader<BufReader<File>>,
    fp: u64,
    design: &str,
) -> io::Result<(DesignDataset, File)> {
    r.header(MAGIC, fp)?;
    let n = r.count(PAIR_MIN_BYTES)?;
    let channel_width = r.u32()? as usize;
    let grid_width = r.u32()? as usize;
    let grid_height = r.u32()? as usize;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(read_pair(&mut r)?);
    }
    let ds = DesignDataset {
        name: design.to_string(),
        pairs,
        channel_width,
        grid_width,
        grid_height,
    };
    Ok((ds, r.finish()?.into_inner()))
}

/// A directory of per-job dataset caches, keyed by **design name +
/// scenario fingerprint**: a store keeps every scenario variant of the
/// same design side by side, which is what the streaming pipeline needs
/// when one corpus mixes fabrics, resolutions or sweep seeds of a single
/// design family.
///
/// Loads treat damage as a miss (so a damaged entry is regenerated rather
/// than poisoning every future run), writes are atomic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusStore {
    dir: PathBuf,
    /// Total on-disk byte budget; `None` means unbounded (no eviction).
    budget: Option<u64>,
    /// Age after which another process's claim file is considered
    /// abandoned (owner crashed) and may be broken.
    claim_stale_after: std::time::Duration,
}

/// Default staleness horizon for generation claims: generous enough that a
/// healthy job never loses its claim mid-generation, short enough that a
/// crashed owner's claim does not wedge a fleet for long.
const CLAIM_STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(600);

/// How often a waiting process re-probes a claimed entry.
const CLAIM_POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(50);

/// What [`CorpusStore::begin`] resolved a job to.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// The entry was already cached (possibly written by another process
    /// while we waited on its claim).
    Cached(Box<DesignDataset>),
    /// We own generation of this entry; finish by storing the dataset and
    /// dropping the guard (in that order).
    Claimed(ClaimGuard),
}

/// Ownership of one entry's generation, backed by an exclusively-created
/// claim file; dropping the guard releases the claim (best-effort).
#[derive(Debug)]
pub struct ClaimGuard {
    path: PathBuf,
    /// The exact content this process wrote into the claim file. Release
    /// removes the file only while it still holds this content: if the
    /// claim went stale (a very slow owner) and another process broke and
    /// re-claimed it, dropping the old guard must not delete the *new*
    /// owner's claim.
    stamp: String,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if std::fs::read_to_string(&self.path).is_ok_and(|content| content == self.stamp) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl CorpusStore {
    /// A store rooted at `dir` (created lazily on first write), unbounded.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CorpusStore {
            dir: dir.into(),
            budget: None,
            claim_stale_after: CLAIM_STALE_AFTER,
        }
    }

    /// The same store with a total size budget: after every write the
    /// least-recently-used entries are evicted until the store fits. Loads
    /// touch their entry, so hot scenarios survive the sweep.
    #[must_use]
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// The same store with a custom claim-staleness horizon (tests shrink
    /// it; production keeps the generous default).
    #[must_use]
    pub fn with_claim_stale_after(mut self, after: std::time::Duration) -> Self {
        self.claim_stale_after = after;
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured size budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The cache file this job maps to:
    /// `<dir>/<design>-<fingerprint:016x>.popds`.
    pub fn entry_path(&self, spec: &SyntheticSpec, config: &ExperimentConfig) -> PathBuf {
        self.dir.join(format!(
            "{}-{:016x}.popds",
            spec.name,
            fingerprint(spec, config)
        ))
    }

    /// Loads the cached dataset for one job; `Ok(None)` on a miss (absent,
    /// stale or damaged entry), which the caller regenerates and
    /// overwrites — a damaged cache self-heals.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] only when an existing file cannot be
    /// opened.
    pub fn load(
        &self,
        spec: &SyntheticSpec,
        config: &ExperimentConfig,
    ) -> Result<Option<DesignDataset>, CoreError> {
        let path = self.entry_path(spec, config);
        let r = match Reader::open(&path) {
            Ok(r) => r,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CoreError::Cache(format!("open {}: {e}", path.display()))),
        };
        let Ok((ds, file)) = read_dataset_file(r, fingerprint(spec, config), &spec.name) else {
            return Ok(None);
        };
        // LRU touch (best-effort) through the handle just read, so a hit
        // survives the size-budget sweep. mtime is LRU metadata only.
        let now = std::time::SystemTime::now();
        let _ = file.set_times(std::fs::FileTimes::new().set_modified(now));
        Ok(Some(ds))
    }

    /// Atomically writes one job's dataset into the store, then (with a
    /// budget configured) sweeps least-recently-used entries until the
    /// store fits. The entry just written is never evicted by its own
    /// sweep, so a store always serves at least the hottest job.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] on I/O failure writing the entry;
    /// sweep failures are swallowed (eviction is advisory).
    pub fn store(
        &self,
        ds: &DesignDataset,
        spec: &SyntheticSpec,
        config: &ExperimentConfig,
    ) -> Result<(), CoreError> {
        let path = self.entry_path(spec, config);
        atomic_write(&path, |w| {
            w.put_header(MAGIC, fingerprint(spec, config))?;
            w.put_usize(ds.pairs.len())?;
            w.put_usize(ds.channel_width)?;
            w.put_usize(ds.grid_width)?;
            w.put_usize(ds.grid_height)?;
            ds.pairs.iter().try_for_each(|p| write_pair(w, p))
        })?;
        self.sweep_protecting(Some(&path));
        Ok(())
    }

    /// Runs the size-budget sweep now (a no-op without a budget): entries
    /// are evicted oldest-modified first until the store's `.popds` bytes
    /// fit the budget. Ties break by name so the sweep is deterministic.
    pub fn sweep(&self) {
        self.sweep_protecting(None);
    }

    fn sweep_protecting(&self, keep: Option<&Path>) {
        let Some(budget) = self.budget else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        // The sweep orders evictions by mtime; entry contents and keys
        // stay time-free.
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                if path.extension().and_then(|x| x.to_str()) != Some("popds") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let modified = meta.modified().ok()?;
                Some((modified, path, meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        files.sort(); // oldest first; path breaks timestamp ties
        for (_, path, len) in files {
            if total <= budget {
                break;
            }
            if keep.is_some_and(|k| k == path) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
            }
        }
    }

    /// The claim-file path guarding one entry's generation.
    pub(super) fn claim_path(&self, spec: &SyntheticSpec, config: &ExperimentConfig) -> PathBuf {
        self.entry_path(spec, config).with_extension("claim")
    }

    /// Resolves one job against the store *with cross-process
    /// coordination*: a cache hit returns the dataset; a miss atomically
    /// claims the entry so concurrent cold runs over one cache directory
    /// do not all regenerate it. If another process holds the claim, this
    /// call **waits** — polling until the entry appears (then returns it
    /// as [`ClaimOutcome::Cached`]) or the claim is released or goes stale
    /// (then claims it). A stale claim (older than the staleness horizon —
    /// its owner crashed) is broken and taken over.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] when an existing entry cannot be
    /// opened or the claim file cannot be created for reasons other than
    /// already existing.
    pub fn begin(
        &self,
        spec: &SyntheticSpec,
        config: &ExperimentConfig,
    ) -> Result<ClaimOutcome, CoreError> {
        let claim = self.claim_path(spec, config);
        // Telemetry: how long this process sat behind another's claim
        // (zero probes on the uncontended path).
        let mut wait_start: Option<Instant> = None;
        let note_wait = |start: Option<Instant>| {
            if let Some(start) = start {
                let registry = pop_obs::global();
                registry.counter("cache.claim_waits").inc();
                registry
                    .histogram("cache.claim_wait_us")
                    .record_duration(start.elapsed());
            }
        };
        loop {
            // Probe the cache first: whoever held the claim may have
            // finished (this is the "second process waits, then streams
            // the first one's work" path).
            if let Some(ds) = self.load(spec, config)? {
                note_wait(wait_start);
                return Ok(ClaimOutcome::Cached(Box::new(ds)));
            }
            std::fs::create_dir_all(&self.dir)
                .map_err(|e| CoreError::Cache(format!("create {}: {e}", self.dir.display())))?;
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&claim)
            {
                Ok(mut file) => {
                    // Stamp the claim with this process + a nonce + its
                    // creation time: the time lets other processes judge
                    // staleness from content (mtime granularity and clock
                    // skew make content sturdier), and the full stamp lets
                    // release verify the claim is still *ours*.
                    let stamp = format!("{}.{} {}\n", std::process::id(), nonce(), unix_secs());
                    let _ = file.write_all(stamp.as_bytes());
                    note_wait(wait_start);
                    return Ok(ClaimOutcome::Claimed(ClaimGuard { path: claim, stamp }));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if self.claim_is_stale(&claim) {
                        // Owner crashed: break the claim and retry. The
                        // break is arbitrated by an atomic rename to a
                        // unique tombstone — exactly one waiter wins it
                        // (the losers' renames fail and they re-loop), so
                        // a delayed breaker can never delete the claim a
                        // *new* owner just created under the same name.
                        let tomb = claim.with_extension(format!(
                            "claim-stale.{}.{}",
                            std::process::id(),
                            nonce(),
                        ));
                        if std::fs::rename(&claim, &tomb).is_ok() {
                            let _ = std::fs::remove_file(&tomb);
                        }
                        continue;
                    }
                    // Claim-wait telemetry only.
                    wait_start.get_or_insert_with(Instant::now);
                    std::thread::sleep(CLAIM_POLL_INTERVAL);
                }
                Err(e) => return Err(CoreError::Cache(format!("claim {}: {e}", claim.display()))),
            }
        }
    }

    /// Whether the claim file at `path` is stamped further than the
    /// staleness horizon from now — behind it (the owner crashed) or ahead
    /// of it (a skewed clock; such a claim would otherwise never age) — or
    /// garbled, which also means "break it".
    fn claim_is_stale(&self, path: &Path) -> bool {
        let Ok(content) = std::fs::read_to_string(path) else {
            // Vanished: not stale, just released — the retry loop probes.
            return false;
        };
        let stamped = content
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u64>().ok());
        let Some(stamped) = stamped else {
            return true; // garbled claim: break it
        };
        unix_secs().abs_diff(stamped) > self.claim_stale_after.as_secs()
    }
}

/// Wall-clock seconds since the Unix epoch, for claim stamps and their
/// staleness: wall time, never key material.
fn unix_secs() -> u64 {
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Builds (or loads from `cache_dir`) the dataset for one preset.
///
/// # Errors
///
/// Propagates build and cache errors.
pub fn build_or_load(
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
    cache_dir: Option<&Path>,
) -> Result<DesignDataset, CoreError> {
    let Some(store) = cache_dir.map(CorpusStore::new) else {
        return build_design_dataset(spec, config);
    };
    if let Some(ds) = store.load(spec, config)? {
        return Ok(ds);
    }
    let ds = build_design_dataset(spec, config)?;
    store.store(&ds, spec, config)?;
    Ok(ds)
}
