//! Region-partitioned parallel-moves simulated annealing.
//!
//! The sequential [`Annealer`](crate::Annealer) is the wall-clock
//! bottleneck whenever a corpus has one *large* design instead of a wide
//! sweep: the pipeline's placement pool then has a single job to run and
//! every other worker idles. This module parallelises *inside* one
//! placement, the way routability-driven placers (RoutePlacer, GOALPlace)
//! treat the placer itself as the scalable component:
//!
//! 1. the fabric is partitioned into `K` vertical strips (regions), each
//!    owning whole site columns — two half-strip-shifted partitions
//!    alternate between sync rounds so strip boundaries never fossilise;
//! 2. every temperature step ("epoch") runs [`SYNC_ROUNDS`] synchronised
//!    rounds: each region proposes its share of the `INNER_NUM · N^{4/3}`
//!    move budget **confined to its own blocks and sites**, scored against
//!    a frozen start-of-round snapshot of the rest of the fabric, on a
//!    [`pop_exec::ParkingPool`] spawned once per annealer;
//! 3. each round's region outcomes merge in fixed region order (disjoint
//!    by construction) and the moved blocks' net costs are refreshed
//!    exactly; after the rounds, a sequential **exchange phase** spends
//!    the remaining budget on whole-fabric moves so blocks can migrate
//!    across region boundaries;
//! 4. temperature, range limit and the exit criterion then update from the
//!    epoch's aggregate acceptance, exactly as in the sequential schedule.
//!
//! **Determinism:** each region's move stream is driven by a SplitMix-
//! derived RNG seeded from `(seed, epoch, round, region)`, region outcomes
//! are pure functions of the round snapshot, and the merge order is fixed
//! — so the final placement depends only on `(seed, regions)`. The thread
//! count decides wall-clock, never bits; `threads = 1` *is* the reference
//! sequential execution of the same schedule.

use crate::cost::CostModel;
use crate::error::PlaceError;
use crate::kernel::{random_initial_placement, MoveKernel, SitePools};
use crate::options::{PlaceOptions, PlaceStrategy};
use crate::placement::{required_site_kind, Placement};
use crate::AnnealStats;
use pop_arch::{Arch, SiteKind};
use pop_netlist::{BlockId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Ceiling of the sequential exchange fraction — the value small designs
/// use, and the fixed fraction of the first parallel milestone. Amdahl
/// bounds the 4-thread speedup at `1 / (f + (1-f)/4)` = 2.5× for
/// `f = 0.20`.
const EXCHANGE_FRACTION_MAX: f64 = 0.20;

/// Floor of the exchange fraction: even the largest designs keep 5% of
/// the budget in whole-fabric moves so blocks can cross region boundaries.
/// At `f = 0.05` the 4-thread Amdahl ceiling rises to 3.48×.
const EXCHANGE_FRACTION_MIN: f64 = 0.05;

/// Fraction of each epoch's move budget spent in the sequential exchange
/// phase (whole-fabric moves that let blocks cross region boundaries) —
/// a pure function of `(movable, regions)`, never of timing, so it is
/// part of the `(seed, regions)` determinism contract.
///
/// Rationale: cross-boundary traffic scales with the number of boundary
/// columns (∝ `regions`) relative to the design's side length
/// (∝ `√movable`), so the fraction decays as `regions / √movable`: small
/// designs keep the proven 20% (identical schedule to the fixed-fraction
/// milestone), while large designs — exactly where the sequential phase
/// dominates wall-clock — taper toward 5%, raising the Amdahl ceiling
/// where it matters. Quality holds because a large fabric's exchange
/// budget is still huge in absolute moves and both partitions' alternating
/// boundaries co-optimise straddling nets.
fn exchange_fraction(movable: usize, regions: usize) -> f64 {
    if regions <= 1 || movable == 0 {
        EXCHANGE_FRACTION_MAX
    } else {
        (regions as f64 / (movable as f64).sqrt())
            .clamp(EXCHANGE_FRACTION_MIN, EXCHANGE_FRACTION_MAX)
    }
}

/// SplitMix64 finaliser — the per-region stream derivation of the issue's
/// determinism contract (also how the `rand` shim expands seeds).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Synchronisation rounds per temperature step: the region phase re-takes
/// its snapshot (merge + exact cost refresh) this many times per epoch, so
/// region workers never score more than `1/SYNC_ROUNDS` of a temperature's
/// moves against stale remote positions. The resync cost is O(nets) per
/// round — noise next to the move budget — and it measurably closes the
/// final-cost gap to the sequential annealer.
const SYNC_ROUNDS: u64 = 4;

/// Minimum movable blocks per region: below this, confining moves to a
/// strip starves the proposers (tiny per-kind pools, mostly no-op picks)
/// and placement quality falls off a cliff. The requested region count is
/// clamped so small designs degenerate toward one region — the parallel
/// schedule is for *large* designs; small ones never needed it.
const MIN_MOVABLE_PER_REGION: usize = 16;

/// The RNG stream seed of `(seed, epoch, round, region)` — distinct per
/// region, per sync round and per epoch, independent of thread scheduling.
fn region_stream_seed(seed: u64, epoch: usize, round: u64, region: usize) -> u64 {
    splitmix64(
        splitmix64(seed ^ splitmix64(epoch as u64 + 1) ^ splitmix64((round + 1) << 8))
            ^ (region as u64 + 1),
    )
}

/// What one region worker hands back after its slice of an epoch.
struct RegionOutcome {
    /// Blocks whose site changed, with their final (region-internal) site.
    moves: Vec<(BlockId, pop_arch::SiteId)>,
    proposed: u64,
    accepted: u64,
}

/// The fixed spatial partition: `region_of_x[x]` maps a fabric column to
/// its region; `pools[r]` holds region `r`'s move-target sites.
struct RegionMap {
    region_of_x: Vec<u32>,
    pools: Vec<SitePools>,
}

impl RegionMap {
    /// Splits the fabric into vertical strips with balanced CLB column
    /// counts; every site column (IO, memory, multiplier included) lands in
    /// exactly one strip. `k` is clamped to the CLB column count.
    ///
    /// `phase 0` is the canonical k-strip partition; `phase 1` shifts every
    /// boundary by half a strip (yielding up to `k + 1` strips). Sync
    /// rounds alternate between the two, so every phase-0 boundary is
    /// strip-interior in phase 1 — nets straddling a boundary get
    /// co-optimised on alternate rounds instead of depending solely on the
    /// exchange phase.
    fn new(arch: &Arch, k: usize, phase: usize) -> Self {
        let mut clb_cols: Vec<usize> = Vec::new();
        for s in arch.sites() {
            if s.kind == SiteKind::Clb && clb_cols.last() != Some(&s.x) {
                if let Err(i) = clb_cols.binary_search(&s.x) {
                    clb_cols.insert(i, s.x);
                }
            }
        }
        let n = clb_cols.len();
        let k = k.clamp(1, n.max(1));
        // Chunk end indices into `clb_cols` (exclusive, strictly
        // increasing, final end == n).
        let mut ends: Vec<usize> = if phase == 0 || k == 1 {
            (1..=k).map(|i| n * i / k).collect()
        } else {
            let mut v: Vec<usize> = (0..k).map(|i| n * (2 * i + 1) / (2 * k)).collect();
            v.push(n);
            v
        };
        ends.retain(|&e| e > 0);
        ends.dedup();
        let regions = ends.len();
        // Region r covers every x up to (and including) its last CLB
        // column; the final region covers the rest (right IO column
        // included).
        let hi_x: Vec<usize> = ends.iter().map(|&e| clb_cols[e - 1]).collect();
        let mut region_of_x = vec![(regions - 1) as u32; arch.width()];
        for (x, slot) in region_of_x.iter_mut().enumerate() {
            *slot = hi_x.partition_point(|&hi| hi < x).min(regions - 1) as u32;
        }
        let pools = (0..regions)
            .map(|r| {
                SitePools::from_sites(
                    arch,
                    arch.sites().iter().filter(|s| region_of_x[s.x] == r as u32),
                )
            })
            .collect();
        RegionMap { region_of_x, pools }
    }

    fn len(&self) -> usize {
        self.pools.len()
    }
}

/// Region-partitioned parallel-moves annealer — the multi-threaded
/// counterpart of [`Annealer`](crate::Annealer) behind
/// [`PlaceStrategy::ParallelRegions`].
///
/// Deterministic in `(options.seed, regions)`: the thread count only
/// changes wall-clock time (see the module docs for why). Final cost
/// tracks the sequential annealer's within a few percent on fabrics large
/// enough to partition; tiny fabrics degenerate to one region, where the
/// schedule is close to (but not bitwise) the sequential one.
///
/// # Example
///
/// ```
/// use pop_arch::Arch;
/// use pop_netlist::{presets, generate};
/// use pop_place::{ParallelAnnealer, PlaceOptions, PlaceStrategy};
///
/// let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.05));
/// let (c, i, m, x) = netlist.site_demand();
/// let arch = Arch::auto_size(c, i, m, x, 12, 1.3)?;
/// let opts = PlaceOptions {
///     strategy: PlaceStrategy::ParallelRegions { regions: 2, threads: 2 },
///     ..PlaceOptions::default()
/// };
/// let mut annealer = ParallelAnnealer::new(&arch, &netlist, &opts)?;
/// annealer.run();
/// assert!(annealer.placement().verify(&arch, &netlist).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ParallelAnnealer<'a> {
    arch: &'a Arch,
    netlist: &'a Netlist,
    options: PlaceOptions,
    kernel: MoveKernel<'a>,
    global_pools: SitePools,
    /// Alternating partitions: `maps[0]` is the canonical k-strip split,
    /// `maps[1]` (present when k > 1) the half-strip-shifted one.
    maps: Vec<RegionMap>,
    /// Persistent park/unpark workers for the per-round fan-out — spawned
    /// once per annealer instead of once per round. `None` for a
    /// single-worker schedule, whose rounds run on the calling thread.
    pool: Option<pop_exec::ParkingPool>,
    rng: StdRng, // warm-up + exchange-phase stream
    movable: Vec<BlockId>,
    temperature: f64,
    rlim: f64,
    moves_per_temp: u64,
    exchange_per_temp: u64,
    last_acceptance: f64,
    moves_total: u64,
    outer_iters: usize,
    done: bool,
}

impl std::fmt::Debug for RegionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionMap")
            .field("regions", &self.pools.len())
            .finish()
    }
}

impl<'a> ParallelAnnealer<'a> {
    /// Creates a parallel annealer with the same random initial placement
    /// and temperature calibration as the sequential annealer (both consume
    /// the seed-derived RNG identically). Region count and thread budget
    /// come from `options.strategy`; a `Sequential` strategy is treated as
    /// one region on one thread.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::InsufficientSites`] when a block kind
    /// outnumbers its sites.
    pub fn new(
        arch: &'a Arch,
        netlist: &'a Netlist,
        options: &PlaceOptions,
    ) -> Result<Self, PlaceError> {
        let options = options.sanitized();
        let (regions, threads) = match options.strategy {
            PlaceStrategy::ParallelRegions { regions, threads } => (regions, threads),
            PlaceStrategy::Sequential => (1, 1),
        };
        let mut rng = StdRng::seed_from_u64(options.seed.wrapping_mul(0x5851_f42d_4c95_7f2d));
        let placement = random_initial_placement(arch, netlist, &mut rng)?;
        let model = CostModel::new(options.algorithm);
        let kernel = MoveKernel::new(arch, netlist, model, placement);
        let global_pools = SitePools::whole_fabric(arch);

        let site_count = |k| arch.capacity(k);
        let movable: Vec<BlockId> = netlist
            .blocks()
            .iter()
            .filter(|b| site_count(required_site_kind(b.kind)) > 1)
            .map(|b| b.id)
            .collect();

        // Degenerate gracefully on small designs (see the constant's doc);
        // the clamp is a pure function of the netlist + fabric, so it
        // cannot break the (seed, regions) determinism contract.
        let regions = regions.min((movable.len() / MIN_MOVABLE_PER_REGION).max(1));
        let mut maps = vec![RegionMap::new(arch, regions, 0)];
        if maps[0].len() > 1 {
            maps.push(RegionMap::new(arch, regions, 1));
        }

        let n = netlist.blocks().len() as f64;
        let moves_per_temp = ((options.inner_num * n.powf(4.0 / 3.0)).ceil() as u64).max(16);
        let fraction = exchange_fraction(movable.len(), maps[0].len());
        let exchange_per_temp = ((moves_per_temp as f64 * fraction).ceil() as u64).max(1);

        // Spawn the round workers once; they park between rounds. A
        // single-worker schedule needs no second thread at all.
        let max_regions = maps.iter().map(RegionMap::len).max().unwrap_or(1);
        let workers = threads.min(max_regions).max(1);
        let pool = (workers > 1).then(|| pop_exec::ParkingPool::new("pop-place-region", workers));

        let mut annealer = ParallelAnnealer {
            arch,
            netlist,
            options,
            kernel,
            global_pools,
            maps,
            pool,
            rng,
            movable,
            temperature: 0.0,
            rlim: arch.width().max(arch.height()) as f64,
            moves_per_temp,
            exchange_per_temp,
            last_acceptance: 1.0,
            moves_total: 0,
            outer_iters: 0,
            done: false,
        };
        annealer.temperature = annealer.calibrate_initial_temperature();
        if annealer.movable.is_empty() || netlist.nets().is_empty() {
            annealer.done = true;
        }
        Ok(annealer)
    }

    /// The same VPR-style warm-up as the sequential annealer: one
    /// whole-fabric move per movable block, accepted unconditionally;
    /// `T0 = 20 · stddev(ΔC)`.
    fn calibrate_initial_temperature(&mut self) -> f64 {
        let rlim = self.rlim;
        if self.movable.is_empty() {
            return 1.0;
        }
        let mut deltas = Vec::with_capacity(self.movable.len());
        for i in 0..self.movable.len() {
            let block = self.movable[i];
            if let Some((delta, _, _)) =
                self.kernel
                    .propose(&mut self.rng, &self.global_pools, block, rlim)
            {
                deltas.push(delta);
            }
        }
        if deltas.is_empty() {
            return 1.0;
        }
        let mean: f64 = deltas.iter().sum::<f64>() / deltas.len() as f64;
        let var: f64 =
            deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len() as f64;
        (20.0 * var.sqrt()).max(1e-3)
    }

    /// Advances one epoch (= one temperature step): [`SYNC_ROUNDS`]
    /// parallel region rounds (snapshot → confined moves → deterministic
    /// merge → exact refresh), then the sequential exchange phase and the
    /// schedule update. Returns the stats after the step; a no-op once the
    /// schedule is done.
    pub fn step_epoch(&mut self) -> AnnealStats {
        if self.done {
            return self.stats();
        }
        let mut proposed = 0u64;
        let mut accepted = 0u64;
        let region_budget_total = self.moves_per_temp.saturating_sub(self.exchange_per_temp);
        for round in 0..SYNC_ROUNDS {
            // Largest-remainder split of the total across rounds.
            let budget = region_budget_total / SYNC_ROUNDS
                + u64::from(round < region_budget_total % SYNC_ROUNDS);
            self.region_round(round, budget, &mut proposed, &mut accepted);
        }

        // --- Sequential exchange phase: whole-fabric moves on the merged
        // state, driven by the annealer's own RNG stream.
        for _ in 0..self.exchange_per_temp {
            let block = self.movable[self.rng.gen_range(0..self.movable.len())];
            proposed += 1;
            if let Some((delta, _site, old_site)) =
                self.kernel
                    .propose(&mut self.rng, &self.global_pools, block, self.rlim)
            {
                let accept =
                    delta <= 0.0 || self.rng.gen::<f64>() < (-delta / self.temperature).exp();
                if accept {
                    accepted += 1;
                } else {
                    self.kernel.undo(block, old_site);
                }
            }
        }

        // --- Schedule update, identical to the sequential recipe.
        self.moves_total += proposed;
        let acceptance = accepted as f64 / proposed.max(1) as f64;
        self.last_acceptance = acceptance;
        self.outer_iters += 1;
        let max_dim = self.arch.width().max(self.arch.height()) as f64;
        self.rlim = (self.rlim * (1.0 - 0.44 + acceptance)).clamp(1.0, max_dim);
        self.temperature *= self.options.alpha_t;
        self.kernel.refresh_costs();
        let exit_t = self.options.exit_t_factor * self.kernel.total_cost()
            / self.netlist.nets().len().max(1) as f64;
        if self.temperature < exit_t || self.outer_iters >= self.options.max_outer_iters {
            self.done = true;
        }
        self.stats()
    }

    /// One synchronised region round: freeze a snapshot, fan `budget`
    /// confined moves out over the regions on the worker pool, merge
    /// the outcomes in fixed region order and refresh the exact costs.
    /// Workers pull region indices from a shared counter; each outcome is a
    /// pure function of `(snapshot, epoch, round, region)`, so which worker
    /// runs which region cannot leak into the result.
    fn region_round(
        &mut self,
        round: u64,
        budget_total: u64,
        proposed: &mut u64,
        accepted: &mut u64,
    ) {
        // Alternate the partition phase between rounds so phase-0 strip
        // boundaries sit strip-interior on odd rounds.
        let map = &self.maps[round as usize % self.maps.len()];
        let k = map.len();

        // Partition the movable blocks by their *current* region (blocks
        // migrate in the exchange phase, and the region set itself
        // alternates, so this is recomputed from the live placement every
        // round).
        let mut movable_by_region: Vec<Vec<BlockId>> = vec![Vec::new(); k];
        for &b in &self.movable {
            let x = self.arch.site(self.kernel.placement().site_of(b)).x;
            movable_by_region[map.region_of_x[x] as usize].push(b);
        }

        // Split the round budget proportionally to movable counts
        // (largest-remainder rounding keeps the total exact).
        let total_movable: u64 = movable_by_region.iter().map(|m| m.len() as u64).sum();
        let mut budgets = vec![0u64; k];
        let mut assigned = 0u64;
        for r in 0..k {
            budgets[r] = (budget_total * movable_by_region[r].len() as u64)
                .checked_div(total_movable)
                .unwrap_or(0);
            assigned += budgets[r];
        }
        // Top up only regions that can spend the remainder (a region with
        // no movable blocks would just burn its budget as no-op proposals).
        let mut leftover = if total_movable > 0 {
            budget_total - assigned
        } else {
            0
        };
        for (b, movable) in budgets.iter_mut().zip(&movable_by_region) {
            if leftover == 0 {
                break;
            }
            if movable.is_empty() {
                continue;
            }
            *b += 1;
            leftover -= 1;
        }

        let snapshot = self.kernel.placement().clone();
        let snapshot_costs = self.kernel.net_costs().to_vec();
        let snapshot_total = self.kernel.total_cost();
        let (arch, netlist, model) = (self.arch, self.netlist, *self.kernel.model());
        let (temperature, rlim, seed, epoch) = (
            self.temperature,
            self.rlim,
            self.options.seed,
            self.outer_iters,
        );
        let region_pools = &map.pools;
        let next = AtomicUsize::new(0);
        let outcomes: Vec<Mutex<Option<RegionOutcome>>> =
            (0..k).map(|_| Mutex::new(None)).collect();
        {
            let (snapshot, snapshot_costs) = (&snapshot, &snapshot_costs);
            let (movable_by_region, budgets, outcomes, next) =
                (&movable_by_region, &budgets, &outcomes, &next);
            // One worker's share of the round: pull region indices from the
            // shared cursor until they run out. Each outcome is a pure
            // function of (snapshot, epoch, round, region), so it does not
            // matter which worker — or the calling thread — computes it.
            let worker = move |_w: usize| loop {
                let r = next.fetch_add(1, Ordering::SeqCst);
                if r >= k {
                    break;
                }
                let outcome = run_region(
                    arch,
                    netlist,
                    model,
                    &region_pools[r],
                    &movable_by_region[r],
                    snapshot,
                    snapshot_costs,
                    snapshot_total,
                    budgets[r],
                    temperature,
                    rlim,
                    region_stream_seed(seed, epoch, round, r),
                );
                *outcomes[r].lock().expect("region outcome lock") = Some(outcome);
            };
            match &self.pool {
                Some(pool) => assert_eq!(pool.run(&worker), 0, "a region worker panicked"),
                None => worker(0),
            }
        }

        // Deterministic merge (fixed region order; regions own disjoint
        // site sets, so the concatenated batch is conflict-free), then an
        // exact *incremental* refresh of the moved blocks' nets: region
        // deltas were scored against frozen remote positions, the refresh
        // restores ground truth at O(nets touched), not O(all nets).
        let merge_started = std::time::Instant::now();
        let mut merged: Vec<(BlockId, pop_arch::SiteId)> = Vec::new();
        for slot in &outcomes {
            let outcome = slot
                .lock()
                .expect("region outcome lock")
                .take()
                .expect("every region delivers an outcome");
            *proposed += outcome.proposed;
            *accepted += outcome.accepted;
            merged.extend(outcome.moves);
        }
        self.kernel.placement_mut().apply_assignments(&merged);
        self.kernel.refresh_blocks(merged.iter().map(|&(b, _)| b));
        pop_obs::global()
            .histogram("place.region.merge_us")
            .record_duration(merge_started.elapsed());
    }

    /// Runs the schedule to completion.
    pub fn run(&mut self) {
        while !self.done {
            self.step_epoch();
        }
    }

    /// Whether the annealing schedule has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The placement in its current (possibly mid-anneal) state.
    pub fn placement(&self) -> &Placement {
        self.kernel.placement()
    }

    /// Consumes the annealer, returning the final placement.
    pub fn into_placement(self) -> Placement {
        self.kernel.into_placement()
    }

    /// The number of regions actually in use (the requested count clamped
    /// to the fabric's CLB column count; the canonical, phase-0 partition).
    pub fn regions(&self) -> usize {
        self.maps[0].len()
    }

    /// Current progress statistics.
    pub fn stats(&self) -> AnnealStats {
        AnnealStats {
            temperature: self.temperature,
            cost: self.kernel.total_cost(),
            acceptance: self.last_acceptance,
            rlim: self.rlim,
            moves: self.moves_total,
            outer_iters: self.outer_iters,
        }
    }

    /// Current total cost under the configured cost model.
    pub fn cost(&self) -> f64 {
        self.kernel.total_cost()
    }
}

/// One region's slice of an epoch: move proposals confined to the region's
/// blocks and sites, scored on a private kernel seeded from the epoch
/// snapshot. Pure in its arguments — thread scheduling cannot affect it.
#[allow(clippy::too_many_arguments)] // one epoch snapshot, spelled out
fn run_region(
    arch: &Arch,
    netlist: &Netlist,
    model: CostModel,
    pools: &SitePools,
    movable: &[BlockId],
    snapshot: &Placement,
    snapshot_costs: &[f32],
    snapshot_total: f64,
    budget: u64,
    temperature: f64,
    rlim: f64,
    stream_seed: u64,
) -> RegionOutcome {
    if movable.is_empty() || budget == 0 {
        return RegionOutcome {
            moves: Vec::new(),
            proposed: budget,
            accepted: 0,
        };
    }
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut kernel = MoveKernel::with_costs(
        arch,
        netlist,
        model,
        snapshot.clone(),
        snapshot_costs.to_vec(),
        snapshot_total,
    );
    let mut accepted = 0u64;
    for _ in 0..budget {
        let block = movable[rng.gen_range(0..movable.len())];
        if let Some((delta, _site, old_site)) = kernel.propose(&mut rng, pools, block, rlim) {
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                accepted += 1;
            } else {
                kernel.undo(block, old_site);
            }
        }
    }
    let final_placement = kernel.into_placement();
    let moves = movable
        .iter()
        .filter_map(|&b| {
            let s = final_placement.site_of(b);
            (s != snapshot.site_of(b)).then_some((b, s))
        })
        .collect();
    RegionOutcome {
        moves,
        proposed: budget,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::wirelength;
    use pop_netlist::{generate, presets};

    fn setup(scale: f64) -> (Arch, Netlist) {
        let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(scale));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 12, 1.3).unwrap();
        (arch, netlist)
    }

    fn opts(seed: u64, regions: usize, threads: usize) -> PlaceOptions {
        PlaceOptions {
            seed,
            strategy: PlaceStrategy::ParallelRegions { regions, threads },
            ..PlaceOptions::default()
        }
    }

    #[test]
    fn region_map_partitions_every_column_once() {
        let (arch, _) = setup(0.05);
        for k in [1, 2, 3, 4, 7] {
            for phase in [0, 1] {
                let map = RegionMap::new(&arch, k, phase);
                // Phase 1 shifts boundaries by half a strip and may carry
                // one extra (half-width) strip at each edge.
                assert!(map.len() >= 1 && map.len() <= k.max(1) + 1);
                assert_eq!(map.region_of_x.len(), arch.width());
                // Regions are contiguous, start at 0 and end at len-1.
                assert_eq!(map.region_of_x[0], 0);
                assert_eq!(map.region_of_x[arch.width() - 1] as usize, map.len() - 1);
                for w in map.region_of_x.windows(2) {
                    assert!(
                        w[1] == w[0] || w[1] == w[0] + 1,
                        "strips must be contiguous"
                    );
                }
                // Every site appears in exactly one region pool.
                let total: usize = map
                    .pools
                    .iter()
                    .map(|p| {
                        p.candidates(SiteKind::Clb)
                            + p.candidates(SiteKind::Io)
                            + p.candidates(SiteKind::Memory)
                            + p.candidates(SiteKind::Multiplier)
                    })
                    .sum();
                assert_eq!(total, arch.sites().len());
            }
        }
    }

    #[test]
    fn phase_one_boundaries_are_interior_to_phase_zero_strips() {
        // Wide enough that strips span several columns; on very narrow
        // fabrics integer rounding can make the phases share a boundary,
        // which is harmless (alternation just degenerates there).
        let arch = Arch::builder().interior(32, 8).build().unwrap();
        let a = RegionMap::new(&arch, 4, 0);
        let b = RegionMap::new(&arch, 4, 1);
        // Where phase 0 changes region mid-fabric, phase 1 must not (and
        // vice versa): that is the whole point of alternating.
        let boundaries = |m: &RegionMap| -> Vec<usize> {
            (1..arch.width())
                .filter(|&x| m.region_of_x[x] != m.region_of_x[x - 1])
                .collect()
        };
        let ba = boundaries(&a);
        let bb = boundaries(&b);
        assert!(
            ba.iter().all(|x| !bb.contains(x)),
            "phase-0 {ba:?} and phase-1 {bb:?} boundaries must not coincide"
        );
    }

    #[test]
    fn parallel_placement_is_legal_and_improves() {
        let (arch, netlist) = setup(0.25);
        let mut annealer = ParallelAnnealer::new(&arch, &netlist, &opts(7, 4, 2)).unwrap();
        let before = wirelength(&arch, &netlist, annealer.placement());
        annealer.run();
        annealer.placement().verify(&arch, &netlist).unwrap();
        let after = wirelength(&arch, &netlist, annealer.placement());
        assert!(
            after < before,
            "wirelength should improve: {before} -> {after}"
        );
        assert!(annealer.is_done());
        assert!(annealer.stats().outer_iters > 0);
    }

    #[test]
    fn thread_count_never_changes_the_placement() {
        // The determinism contract: (seed, regions) decides the result,
        // threads only decide wall-clock. threads=1 is the sequential
        // reference execution of the same schedule.
        let (arch, netlist) = setup(0.25);
        let place_with = |threads| {
            let mut a = ParallelAnnealer::new(&arch, &netlist, &opts(42, 3, threads)).unwrap();
            a.run();
            a.into_placement()
        };
        let one = place_with(1);
        let four = place_with(4);
        let eight = place_with(8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn same_seed_and_threads_is_bitwise_identical() {
        let (arch, netlist) = setup(0.25);
        let run = || {
            let mut a = ParallelAnnealer::new(&arch, &netlist, &opts(11, 2, 2)).unwrap();
            a.run();
            a.into_placement()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seed_and_region_count_change_the_placement() {
        let (arch, netlist) = setup(0.25);
        let place_with = |seed, regions| {
            let mut a = ParallelAnnealer::new(&arch, &netlist, &opts(seed, regions, 2)).unwrap();
            a.run();
            a.into_placement()
        };
        let base = place_with(5, 2);
        assert_ne!(base, place_with(6, 2), "seed must matter");
        assert_ne!(
            base,
            place_with(5, 3),
            "region count is part of the identity"
        );
    }

    #[test]
    fn final_cost_tracks_the_sequential_annealer() {
        let (arch, netlist) = setup(0.25);
        let model = CostModel::new(crate::PlaceAlgorithm::BoundingBox);
        let sequential = crate::place(
            &arch,
            &netlist,
            &PlaceOptions {
                seed: 3,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        let mut parallel = ParallelAnnealer::new(&arch, &netlist, &opts(3, 4, 2)).unwrap();
        parallel.run();
        let seq_cost = model.total_cost(&arch, &netlist, &sequential) as f64;
        let par_cost = model.total_cost(&arch, &netlist, parallel.placement()) as f64;
        let ratio = par_cost / seq_cost;
        assert!(
            ratio < 1.10,
            "parallel cost {par_cost:.1} vs sequential {seq_cost:.1} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn sequential_strategy_runs_as_one_region() {
        let (arch, netlist) = setup(0.02);
        let mut a = ParallelAnnealer::new(
            &arch,
            &netlist,
            &PlaceOptions {
                seed: 9,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(a.regions(), 1);
        a.run();
        a.placement().verify(&arch, &netlist).unwrap();
    }

    #[test]
    fn place_dispatches_on_strategy() {
        let (arch, netlist) = setup(0.2);
        let parallel = crate::place(&arch, &netlist, &opts(21, 2, 2)).unwrap();
        parallel.verify(&arch, &netlist).unwrap();
        // And matches a hand-driven ParallelAnnealer run exactly.
        let mut direct = ParallelAnnealer::new(&arch, &netlist, &opts(21, 2, 2)).unwrap();
        direct.run();
        assert_eq!(parallel, direct.into_placement());
    }

    #[test]
    fn tiny_fabrics_degenerate_gracefully() {
        // A tiny design cannot feed several regions; the annealer must
        // clamp to one region (the movable-count floor) and still
        // terminate legally.
        let (arch, netlist) = setup(0.01);
        let mut a = ParallelAnnealer::new(&arch, &netlist, &opts(1, 16, 4)).unwrap();
        assert_eq!(a.regions(), 1, "movable-count floor must clamp regions");
        a.run();
        a.placement().verify(&arch, &netlist).unwrap();
    }

    #[test]
    fn large_designs_keep_their_requested_regions() {
        let (arch, netlist) = setup(0.25);
        let a = ParallelAnnealer::new(&arch, &netlist, &opts(1, 3, 2)).unwrap();
        assert_eq!(a.regions(), 3);
    }

    #[test]
    fn exchange_fraction_adapts_to_design_size() {
        // Single region (or empty design): the fixed-milestone 20%.
        assert_eq!(exchange_fraction(1000, 1), EXCHANGE_FRACTION_MAX);
        assert_eq!(exchange_fraction(0, 4), EXCHANGE_FRACTION_MAX);
        // Small multi-region designs stay at the ceiling (regions/√N ≥ 0.2).
        assert_eq!(exchange_fraction(100, 4), EXCHANGE_FRACTION_MAX);
        assert_eq!(exchange_fraction(400, 4), EXCHANGE_FRACTION_MAX);
        // Large designs taper: 4 regions over 10 000 movables → the floor.
        assert_eq!(exchange_fraction(10_000, 4), EXCHANGE_FRACTION_MIN);
        // Mid-scale lands strictly between the clamps.
        let mid = exchange_fraction(2_500, 5);
        assert!((mid - 0.10).abs() < 1e-12, "5/√2500 = 0.1, got {mid}");
        // Monotone: more movables never raises the fraction.
        assert!(exchange_fraction(40_000, 4) <= exchange_fraction(10_000, 4));
    }

    #[test]
    fn round_dispatches_feed_pool_telemetry() {
        let (arch, netlist) = setup(0.25);
        let mut a = ParallelAnnealer::new(&arch, &netlist, &opts(2, 2, 2)).unwrap();
        assert!(a.pool.is_some(), "two regions on two threads use the pool");
        let before = pop_obs::global()
            .snapshot()
            .counter("exec.pool.pop-place-region.rounds")
            .unwrap_or(0);
        a.step_epoch();
        let after = pop_obs::global()
            .snapshot()
            .counter("exec.pool.pop-place-region.rounds")
            .unwrap_or(0);
        // `>=`: other tests' annealers share the counter name.
        assert!(
            after - before >= SYNC_ROUNDS,
            "one pool dispatch per sync round (saw {})",
            after - before
        );
    }
}
