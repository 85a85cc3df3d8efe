use crate::cost::CostModel;
use crate::error::PlaceError;
use crate::kernel::{random_initial_placement, MoveKernel, SitePools};
use crate::options::PlaceOptions;
use crate::placement::{required_site_kind, Placement};
use pop_arch::Arch;
use pop_netlist::{BlockId, Netlist};
use pop_obs::{Counter, Gauge, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Handles onto the global registry's annealer telemetry, resolved once
/// per annealer so the per-temperature record path never takes the
/// registration lock.
#[derive(Debug)]
struct AnnealTelemetry {
    /// Per-temperature acceptance ratio, recorded in percent.
    acceptance_pct: Arc<Histogram>,
    /// Per-temperature wall time.
    temp_us: Arc<Histogram>,
    /// Cost after the most recent completed temperature.
    cost: Arc<Gauge>,
    /// Temperature after the most recent completed step.
    temperature: Arc<Gauge>,
    proposed: Arc<Counter>,
    accepted: Arc<Counter>,
    temps: Arc<Counter>,
}

impl AnnealTelemetry {
    fn register() -> AnnealTelemetry {
        let registry = pop_obs::global();
        AnnealTelemetry {
            acceptance_pct: registry.histogram("place.acceptance_pct"),
            temp_us: registry.histogram("place.temp_us"),
            cost: registry.gauge("place.cost"),
            temperature: registry.gauge("place.temperature"),
            proposed: registry.counter("place.moves.proposed"),
            accepted: registry.counter("place.moves.accepted"),
            temps: registry.counter("place.temperatures"),
        }
    }
}

/// Progress snapshot of an annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStats {
    /// Current temperature.
    pub temperature: f64,
    /// Current total cost.
    pub cost: f64,
    /// Acceptance ratio of the last completed temperature step.
    pub acceptance: f64,
    /// Current move range limit in tiles.
    pub rlim: f64,
    /// Total proposed moves so far.
    pub moves: u64,
    /// Completed temperature (outer) iterations.
    pub outer_iters: usize,
}

/// Simulated-annealing placer with a stepping interface.
///
/// [`Annealer::run`] reproduces VPR's behaviour; [`Annealer::step`] advances
/// by a bounded number of moves so callers can observe (and, in the paper's
/// §5.4 application, *forecast congestion for*) the evolving placement.
/// The move mechanics live in the crate-internal move kernel.
///
/// # Example
///
/// ```
/// use pop_arch::Arch;
/// use pop_netlist::{presets, generate};
/// use pop_place::{Annealer, PlaceOptions};
///
/// let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.02));
/// let (c, i, m, x) = netlist.site_demand();
/// let arch = Arch::auto_size(c, i, m, x, 12, 1.3)?;
/// let mut annealer = Annealer::new(&arch, &netlist, &PlaceOptions::default())?;
/// while !annealer.is_done() {
///     annealer.step(500); // forecast on annealer.placement() here
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Annealer<'a> {
    arch: &'a Arch,
    netlist: &'a Netlist,
    options: PlaceOptions,
    kernel: MoveKernel<'a>,
    pools: SitePools,
    temperature: f64,
    rlim: f64,
    rng: StdRng,
    movable: Vec<BlockId>,
    moves_per_temp: u64,
    moves_this_temp: u64,
    accepted_this_temp: u64,
    last_acceptance: f64,
    moves_total: u64,
    outer_iters: usize,
    done: bool,
    telemetry: AnnealTelemetry,
    temp_started: Instant,
}

impl<'a> Annealer<'a> {
    /// Creates an annealer with a random initial placement and a calibrated
    /// starting temperature (20 × the standard deviation of move costs, as
    /// in VPR). Deterministic in `options.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::InsufficientSites`] when a block kind outnumbers
    /// its sites.
    pub fn new(
        arch: &'a Arch,
        netlist: &'a Netlist,
        options: &PlaceOptions,
    ) -> Result<Self, PlaceError> {
        let options = options.sanitized();
        let mut rng = StdRng::seed_from_u64(options.seed.wrapping_mul(0x5851_f42d_4c95_7f2d));
        let placement = random_initial_placement(arch, netlist, &mut rng)?;

        let model = CostModel::new(options.algorithm);
        let kernel = MoveKernel::new(arch, netlist, model, placement);
        let pools = SitePools::whole_fabric(arch);

        // Movable blocks: kinds with more than one candidate site.
        let site_count = |k| arch.capacity(k);
        let movable: Vec<BlockId> = netlist
            .blocks()
            .iter()
            .filter(|b| site_count(required_site_kind(b.kind)) > 1)
            .map(|b| b.id)
            .collect();

        let n = netlist.blocks().len() as f64;
        let moves_per_temp = ((options.inner_num * n.powf(4.0 / 3.0)).ceil() as u64).max(16);

        let mut annealer = Annealer {
            arch,
            netlist,
            options,
            kernel,
            pools,
            temperature: 0.0,
            rlim: arch.width().max(arch.height()) as f64,
            rng,
            movable,
            moves_per_temp,
            moves_this_temp: 0,
            accepted_this_temp: 0,
            last_acceptance: 1.0,
            moves_total: 0,
            outer_iters: 0,
            done: false,
            telemetry: AnnealTelemetry::register(),
            temp_started: Instant::now(),
        };

        annealer.temperature = annealer.calibrate_initial_temperature();
        if annealer.movable.is_empty() || netlist.nets().is_empty() {
            annealer.done = true;
        }
        Ok(annealer)
    }

    /// VPR-style warm-up: propose one move per movable block, accept all,
    /// and set `T0 = 20 · stddev(ΔC)`.
    fn calibrate_initial_temperature(&mut self) -> f64 {
        let rlim = self.rlim;
        let n = self.movable.len();
        if n == 0 {
            return 1.0;
        }
        let mut deltas = Vec::with_capacity(n);
        for i in 0..n {
            let block = self.movable[i];
            if let Some((delta, site, old_site)) =
                self.kernel.propose(&mut self.rng, &self.pools, block, rlim)
            {
                deltas.push(delta);
                // Accept unconditionally during warm-up.
                let _ = (site, old_site);
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

    /// Runs up to `max_moves` annealing moves, crossing temperature
    /// boundaries as needed, and returns the current stats. Returns early
    /// when the schedule completes.
    pub fn step(&mut self, max_moves: u64) -> AnnealStats {
        let mut budget = max_moves;
        while budget > 0 && !self.done {
            let block = self.movable[self.rng.gen_range(0..self.movable.len())];
            self.moves_total += 1;
            self.moves_this_temp += 1;
            budget -= 1;
            if let Some((delta, _site, old_site)) =
                self.kernel
                    .propose(&mut self.rng, &self.pools, block, self.rlim)
            {
                let accept =
                    delta <= 0.0 || self.rng.gen::<f64>() < (-delta / self.temperature).exp();
                if accept {
                    self.accepted_this_temp += 1;
                } else {
                    self.kernel.undo(block, old_site);
                }
            }
            if self.moves_this_temp >= self.moves_per_temp {
                self.end_of_temperature();
            }
        }
        self.stats()
    }

    /// Completes one temperature step: update acceptance, range limit,
    /// temperature, and the exit criterion; records the step's telemetry
    /// (acceptance, cost trajectory, per-temperature wall time) into the
    /// global registry.
    fn end_of_temperature(&mut self) {
        let acceptance = self.accepted_this_temp as f64 / self.moves_this_temp.max(1) as f64;
        self.telemetry
            .acceptance_pct
            .record((acceptance * 100.0).round() as u64);
        self.telemetry
            .temp_us
            .record_duration(self.temp_started.elapsed());
        self.telemetry.proposed.add(self.moves_this_temp);
        self.telemetry.accepted.add(self.accepted_this_temp);
        self.telemetry.temps.inc();
        self.temp_started = Instant::now();

        self.last_acceptance = acceptance;
        self.moves_this_temp = 0;
        self.accepted_this_temp = 0;
        self.outer_iters += 1;

        // VPR range-limit update: aim for 44 % acceptance.
        let max_dim = self.arch.width().max(self.arch.height()) as f64;
        self.rlim = (self.rlim * (1.0 - 0.44 + acceptance)).clamp(1.0, max_dim);
        self.temperature *= self.options.alpha_t;

        // Re-sum the exact cost to cancel accumulated float drift.
        self.kernel.resum_costs();
        self.telemetry.cost.set(self.kernel.total_cost());
        self.telemetry.temperature.set(self.temperature);

        let exit_t = self.options.exit_t_factor * self.kernel.total_cost()
            / self.netlist.nets().len().max(1) as f64;
        if self.temperature < exit_t || self.outer_iters >= self.options.max_outer_iters {
            self.done = true;
        }
    }

    /// Whether the annealing schedule has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Runs the schedule to completion.
    pub fn run(&mut self) {
        while !self.done {
            self.step(u64::from(u32::MAX));
        }
    }

    /// The placement in its current (possibly mid-anneal) state.
    pub fn placement(&self) -> &Placement {
        self.kernel.placement()
    }

    /// Consumes the annealer, returning the final placement.
    pub fn into_placement(self) -> Placement {
        self.kernel.into_placement()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::wirelength;
    use crate::options::PlaceAlgorithm;
    use pop_netlist::{generate, presets};

    fn setup() -> (Arch, Netlist) {
        let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.02));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 12, 1.3).unwrap();
        (arch, netlist)
    }

    #[test]
    fn initial_placement_is_legal() {
        let (arch, netlist) = setup();
        let annealer = Annealer::new(&arch, &netlist, &PlaceOptions::default()).unwrap();
        annealer.placement().verify(&arch, &netlist).unwrap();
    }

    #[test]
    fn annealing_keeps_placement_legal_and_reduces_wirelength() {
        let (arch, netlist) = setup();
        let mut annealer = Annealer::new(&arch, &netlist, &PlaceOptions::default()).unwrap();
        let before = wirelength(&arch, &netlist, annealer.placement());
        annealer.run();
        annealer.placement().verify(&arch, &netlist).unwrap();
        let after = wirelength(&arch, &netlist, annealer.placement());
        assert!(
            after < before,
            "wirelength should improve: {before} -> {after}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (arch, netlist) = setup();
        let opts = PlaceOptions {
            seed: 99,
            ..Default::default()
        };
        let a = crate::place(&arch, &netlist, &opts).unwrap();
        let b = crate::place(&arch, &netlist, &opts).unwrap();
        assert_eq!(a, b);
        let c = crate::place(
            &arch,
            &netlist,
            &PlaceOptions {
                seed: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn stepping_reaches_completion() {
        let (arch, netlist) = setup();
        let mut annealer = Annealer::new(&arch, &netlist, &PlaceOptions::default()).unwrap();
        let mut steps = 0;
        while !annealer.is_done() {
            annealer.step(1000);
            annealer.placement().verify(&arch, &netlist).unwrap();
            steps += 1;
            assert!(steps < 100_000, "annealer failed to terminate");
        }
        assert!(annealer.stats().outer_iters > 0);
    }

    #[test]
    fn incremental_cost_matches_recomputation() {
        let (arch, netlist) = setup();
        let mut annealer = Annealer::new(&arch, &netlist, &PlaceOptions::default()).unwrap();
        annealer.step(2000);
        let tracked = annealer.cost();
        let fresh = CostModel::new(annealer.options.algorithm).total_cost(
            &arch,
            &netlist,
            annealer.placement(),
        ) as f64;
        let rel = (tracked - fresh).abs() / fresh.max(1.0);
        assert!(rel < 1e-3, "cost drift: tracked {tracked} vs fresh {fresh}");
    }

    /// After every temperature, under both cost functions, each cached
    /// net cost is a recompute of that net on the placement and the
    /// re-summed total is the recomputed costs summed in net order, bit for
    /// bit: re-summing the cache at a temperature's end is the full
    /// recompute it replaced.
    #[test]
    fn each_temperature_ends_on_the_recomputed_costs() {
        let (arch, netlist) = setup();
        for algorithm in [PlaceAlgorithm::BoundingBox, PlaceAlgorithm::PathTiming] {
            let opts = PlaceOptions {
                algorithm,
                ..Default::default()
            };
            let model = CostModel::new(algorithm);
            let mut annealer = Annealer::new(&arch, &netlist, &opts).unwrap();
            let mut temps = 0;
            while !annealer.is_done() {
                if annealer.step(1).outer_iters == temps {
                    continue;
                }
                temps += 1;
                let p = annealer.placement();
                let fresh: Vec<f32> = netlist
                    .nets()
                    .iter()
                    .map(|n| model.net_cost(&arch, &netlist, p, n))
                    .collect();
                let bits = |v: &[f32]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(annealer.kernel.net_costs()),
                    bits(&fresh),
                    "temp {temps}"
                );
                let total = fresh.iter().fold(0.0f64, |t, &c| t + c as f64);
                assert_eq!(annealer.cost().to_bits(), total.to_bits(), "temp {temps}");
            }
            assert!(temps > 10, "{algorithm:?}: only {temps} temperatures");
        }
    }

    #[test]
    fn exit_criterion_is_satisfied_at_completion() {
        let (arch, netlist) = setup();
        let opts = PlaceOptions::default();
        let mut annealer = Annealer::new(&arch, &netlist, &opts).unwrap();
        annealer.run();
        let stats = annealer.stats();
        let exit_t = opts.exit_t_factor * stats.cost / netlist.nets().len() as f64;
        assert!(
            stats.temperature < exit_t || stats.outer_iters >= opts.max_outer_iters,
            "temperature {} vs exit {} after {} iters",
            stats.temperature,
            exit_t,
            stats.outer_iters
        );
    }

    #[test]
    fn faster_cooling_means_fewer_outer_iterations() {
        let (arch, netlist) = setup();
        let run = |alpha: f64| {
            let mut a = Annealer::new(
                &arch,
                &netlist,
                &PlaceOptions {
                    alpha_t: alpha,
                    ..Default::default()
                },
            )
            .unwrap();
            a.run();
            a.stats().outer_iters
        };
        let fast = run(0.5);
        let slow = run(0.95);
        assert!(fast < slow, "alpha 0.5 ({fast}) vs 0.95 ({slow})");
    }

    #[test]
    fn annealing_records_per_temperature_telemetry() {
        let (arch, netlist) = setup();
        let before = pop_obs::global().snapshot();
        let mut annealer = Annealer::new(&arch, &netlist, &PlaceOptions::default()).unwrap();
        annealer.run();
        let outer = annealer.stats().outer_iters as u64;
        assert!(outer > 0);
        let after = pop_obs::global().snapshot();
        // The registry is global and other tests also anneal: assert deltas.
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("place.temperatures") >= outer);
        assert!(delta("place.moves.proposed") >= delta("place.moves.accepted"));
        assert!(delta("place.moves.proposed") > 0);
        let acc = after.histogram("place.acceptance_pct").unwrap();
        assert!(acc.count >= outer);
        assert!(acc.max <= 100, "acceptance is a percentage");
        assert!(after.gauge("place.cost").unwrap() > 0.0);
    }

    #[test]
    fn netlist_without_nets_finishes_immediately() {
        let blocks = vec![pop_netlist::Block {
            id: BlockId(0),
            kind: pop_netlist::BlockKind::Clb { luts: 1, ffs: 0 },
            name: "c".into(),
        }];
        let netlist = Netlist::new("empty", blocks, vec![]).unwrap();
        let arch = Arch::builder().interior(4, 4).build().unwrap();
        let annealer = Annealer::new(&arch, &netlist, &PlaceOptions::default()).unwrap();
        assert!(annealer.is_done());
    }

    #[test]
    fn insufficient_sites_is_reported() {
        let netlist = generate(&presets::by_name("ode").unwrap().scaled(0.2));
        let arch = Arch::builder().interior(4, 4).build().unwrap();
        match Annealer::new(&arch, &netlist, &PlaceOptions::default()) {
            Err(PlaceError::InsufficientSites { .. }) => {}
            other => panic!("expected InsufficientSites, got {other:?}"),
        }
    }

    #[test]
    fn different_algorithms_differ() {
        let (arch, netlist) = setup();
        let bb = crate::place(
            &arch,
            &netlist,
            &PlaceOptions {
                algorithm: crate::PlaceAlgorithm::BoundingBox,
                ..Default::default()
            },
        )
        .unwrap();
        let pt = crate::place(
            &arch,
            &netlist,
            &PlaceOptions {
                algorithm: crate::PlaceAlgorithm::PathTiming,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(bb, pt);
    }
}
