//! The move kernel under the [`Annealer`](crate::Annealer).
//!
//! One annealing *move* — pick a same-kind target site within the range
//! limit, displace/swap, incrementally update the touched nets' costs, and
//! optionally undo. [`MoveKernel`] owns the placement + cost bookkeeping;
//! the schedule (temperature, range limit, acceptance) and the RNG stay
//! with the annealer, which passes its [`SitePools`] and RNG per call.

use crate::cost::{crossing_factor, CostModel};
use crate::error::PlaceError;
use crate::placement::{required_site_kind, Placement};
use pop_arch::{Arch, SiteId, SiteKind};
use pop_netlist::{BlockId, NetId, Netlist};
use rand::rngs::StdRng;
use rand::Rng;

/// The fabric's move-target site pools: CLB columns (sorted by x, each
/// column sorted by y) plus flat pools for the other site kinds. Built
/// once per annealer.
#[derive(Debug, Clone)]
pub(crate) struct SitePools {
    clb_cols: Vec<usize>,
    clb_col_sites: Vec<Vec<SiteId>>, // parallel to clb_cols, sorted by y
    io_sites: Vec<SiteId>,
    mem_sites: Vec<SiteId>,
    mult_sites: Vec<SiteId>,
}

impl SitePools {
    /// Pools over the entire fabric. `arch.sites()` is in ascending y
    /// within each x, which keeps every CLB column sorted.
    pub(crate) fn whole_fabric(arch: &Arch) -> Self {
        let mut clb_col_map: Vec<Vec<SiteId>> = vec![Vec::new(); arch.width()];
        let mut io_sites = Vec::new();
        let mut mem_sites = Vec::new();
        let mut mult_sites = Vec::new();
        for s in arch.sites() {
            match s.kind {
                SiteKind::Clb => clb_col_map[s.x].push(s.id),
                SiteKind::Io => io_sites.push(s.id),
                SiteKind::Memory => mem_sites.push(s.id),
                SiteKind::Multiplier => mult_sites.push(s.id),
            }
        }
        let mut clb_cols = Vec::new();
        let mut clb_col_sites = Vec::new();
        for (x, sites) in clb_col_map.into_iter().enumerate() {
            if !sites.is_empty() {
                clb_cols.push(x);
                clb_col_sites.push(sites);
            }
        }
        SitePools {
            clb_cols,
            clb_col_sites,
            io_sites,
            mem_sites,
            mult_sites,
        }
    }
}

/// One net's terminals and cost factors, as [`MoveKernel`] reads them.
#[derive(Debug, Clone, Copy)]
struct FlatNet {
    /// The net's terminals are `terms[start..end]`.
    start: u32,
    end: u32,
    /// [`CostModel::net_weight`].
    weight: f32,
    /// The `q(n)` crossing correction.
    q: f32,
}

/// Placement state plus incremental cost bookkeeping for annealing moves.
///
/// Holds the placement, every block's site centre, the nets' terminals
/// back to back, the per-net cost cache and the stamp/touched scratch used
/// to dedup affected nets. Target pool and RNG are per-call.
#[derive(Debug)]
pub(crate) struct MoveKernel<'a> {
    arch: &'a Arch,
    netlist: &'a Netlist,
    placement: Placement,
    /// [`Placement::position`] of every block, kept current by
    /// [`MoveKernel::propose`] and [`MoveKernel::undo`].
    positions: Vec<(f32, f32)>,
    nets: Vec<FlatNet>,
    /// Every net's terminals (block indices), net after net.
    terms: Vec<u32>,
    net_costs: Vec<f32>,
    total_cost: f64,
    net_stamp: Vec<u64>,
    stamp: u64,
    touched: Vec<NetId>,
    /// The touched nets' costs before the last proposal, parallel to
    /// `touched`: what [`MoveKernel::undo`] restores.
    saved: Vec<f32>,
}

impl<'a> MoveKernel<'a> {
    /// A kernel over `placement`, computing every net's cost up front.
    pub(crate) fn new(
        arch: &'a Arch,
        netlist: &'a Netlist,
        model: CostModel,
        placement: Placement,
    ) -> Self {
        let positions = (0..placement.len())
            .map(|b| placement.position(arch, BlockId(b as u32)))
            .collect();
        let mut terms = Vec::new();
        let nets = netlist
            .nets()
            .iter()
            .map(|n| {
                let start = terms.len() as u32;
                terms.extend(n.terminals().map(|b| b.0));
                FlatNet {
                    start,
                    end: terms.len() as u32,
                    weight: model.net_weight(n),
                    q: crossing_factor(n.degree()),
                }
            })
            .collect();
        let mut kernel = MoveKernel {
            arch,
            netlist,
            placement,
            positions,
            nets,
            terms,
            net_costs: vec![0.0; netlist.nets().len()],
            total_cost: 0.0,
            net_stamp: vec![0; netlist.nets().len()],
            stamp: 0,
            touched: Vec::new(),
            saved: Vec::new(),
        };
        for n in 0..kernel.nets.len() {
            kernel.net_costs[n] = kernel.net_cost(n);
        }
        kernel.resum_costs();
        kernel
    }

    /// [`CostModel::net_cost`] of net `n`, from the cached positions:
    /// `w · (q · (bb_width + bb_height))`, rounded as the model rounds it.
    #[inline]
    fn net_cost(&self, n: usize) -> f32 {
        let net = self.nets[n];
        let mut min_x = f32::MAX;
        let mut max_x = f32::MIN;
        let mut min_y = f32::MAX;
        let mut max_y = f32::MIN;
        for &b in &self.terms[net.start as usize..net.end as usize] {
            let (x, y) = self.positions[b as usize];
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        net.weight * (net.q * ((max_x - min_x) + (max_y - min_y)))
    }

    /// Proposes and applies a move of `block` to a random in-range site of
    /// its kind drawn from `pools`; returns `(delta_cost, new_site,
    /// old_site)`. The move is left applied — callers undo it to reject.
    pub(crate) fn propose(
        &mut self,
        rng: &mut StdRng,
        pools: &SitePools,
        block: BlockId,
        rlim: f64,
    ) -> Option<(f64, SiteId, SiteId)> {
        let old_site = self.placement.site_of(block);
        let target = self.pick_target(rng, pools, block, old_site, rlim)?;
        if target == old_site {
            return None;
        }
        let evicted = self.placement.block_at(target);

        // Collect affected nets (dedup by stamp).
        self.stamp += 1;
        self.touched.clear();
        for &n in self.netlist.nets_of(block) {
            if self.net_stamp[n.index()] != self.stamp {
                self.net_stamp[n.index()] = self.stamp;
                self.touched.push(n);
            }
        }
        if let Some(e) = evicted {
            for &n in self.netlist.nets_of(e) {
                if self.net_stamp[n.index()] != self.stamp {
                    self.net_stamp[n.index()] = self.stamp;
                    self.touched.push(n);
                }
            }
        }

        self.saved.clear();
        self.saved
            .extend(self.touched.iter().map(|&n| self.net_costs[n.index()]));
        let old_cost: f64 = self.saved.iter().map(|&c| c as f64).sum();
        self.placement.displace(block, target);
        let from = self.positions[block.index()];
        self.positions[block.index()] = self.arch.site(target).center();
        if let Some(e) = evicted {
            self.positions[e.index()] = from;
        }
        let mut new_cost = 0.0f64;
        for i in 0..self.touched.len() {
            let n = self.touched[i].index();
            let c = self.net_cost(n);
            self.net_costs[n] = c;
            new_cost += c as f64;
        }
        self.total_cost += new_cost - old_cost;
        Some((new_cost - old_cost, target, old_site))
    }

    /// Undoes a move previously applied by [`MoveKernel::propose`],
    /// restoring the net costs it saved: with every block back on its
    /// site, a recompute would give those values bit for bit.
    pub(crate) fn undo(&mut self, block: BlockId, old_site: SiteId) {
        let evicted = self.placement.displace(block, old_site);
        let target = self.positions[block.index()];
        self.positions[block.index()] = self.arch.site(old_site).center();
        if let Some(e) = evicted {
            self.positions[e.index()] = target;
        }
        let mut delta = 0.0f64;
        for (&n, &saved) in self.touched.iter().zip(&self.saved) {
            let n = n.index();
            delta += saved as f64 - self.net_costs[n] as f64;
            self.net_costs[n] = saved;
        }
        self.total_cost += delta;
    }

    /// Picks a random same-kind target site from `pools` within the range
    /// limit; `None` when the pool holds no site of the block's kind.
    fn pick_target(
        &self,
        rng: &mut StdRng,
        pools: &SitePools,
        block: BlockId,
        old_site: SiteId,
        rlim: f64,
    ) -> Option<SiteId> {
        let kind = required_site_kind(self.netlist.block(block).kind);
        let site = self.arch.site(old_site);
        let (cx, cy) = (site.x as f64, site.y as f64);
        let rlim = rlim.max(1.0);
        match kind {
            SiteKind::Clb => {
                if pools.clb_cols.is_empty() {
                    return None;
                }
                let tx =
                    (cx + rng.gen_range(-rlim..=rlim)).clamp(0.0, (self.arch.width() - 1) as f64);
                let ty =
                    (cy + rng.gen_range(-rlim..=rlim)).clamp(0.0, (self.arch.height() - 1) as f64);
                // Nearest CLB column to tx.
                let col_idx = match pools.clb_cols.binary_search(&(tx.round() as usize)) {
                    Ok(i) => i,
                    Err(i) => {
                        if i == 0 {
                            0
                        } else if i >= pools.clb_cols.len() {
                            pools.clb_cols.len() - 1
                        } else {
                            // pick the nearer neighbour
                            let lo = pools.clb_cols[i - 1] as f64;
                            let hi = pools.clb_cols[i] as f64;
                            if (tx - lo).abs() <= (hi - tx).abs() {
                                i - 1
                            } else {
                                i
                            }
                        }
                    }
                };
                let col = &pools.clb_col_sites[col_idx];
                let row = (ty.round() as usize).clamp(
                    self.arch.site(col[0]).y,
                    self.arch.site(col[col.len() - 1]).y,
                ) - self.arch.site(col[0]).y;
                Some(col[row.min(col.len() - 1)])
            }
            SiteKind::Io => pick_in_range(rng, self.arch, &pools.io_sites, cx, cy, rlim),
            SiteKind::Memory => pick_in_range(rng, self.arch, &pools.mem_sites, cx, cy, rlim),
            SiteKind::Multiplier => pick_in_range(rng, self.arch, &pools.mult_sites, cx, cy, rlim),
        }
    }

    /// Sets the tracked total to the cached net costs summed in net order,
    /// cancelling the float drift the per-move deltas accumulate.
    /// [`MoveKernel::propose`] and [`MoveKernel::undo`] keep every cached
    /// cost bit-equal to a recompute, so this is the total a recompute of
    /// every net would give, without the bounding boxes.
    pub(crate) fn resum_costs(&mut self) {
        let mut total = 0.0f64;
        for &c in &self.net_costs {
            total += c as f64;
        }
        self.total_cost = total;
    }

    /// The cached cost of every net, in net order.
    #[cfg(test)]
    pub(crate) fn net_costs(&self) -> &[f32] {
        &self.net_costs
    }

    /// The placement in its current state.
    pub(crate) fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Consumes the kernel, returning its placement.
    pub(crate) fn into_placement(self) -> Placement {
        self.placement
    }

    /// The tracked total cost.
    pub(crate) fn total_cost(&self) -> f64 {
        self.total_cost
    }
}

/// Picks a random site from `pool` within Chebyshev distance `rlim` of
/// `(cx, cy)`; falls back to a uniform pick when the window is empty.
fn pick_in_range(
    rng: &mut StdRng,
    arch: &Arch,
    pool: &[SiteId],
    cx: f64,
    cy: f64,
    rlim: f64,
) -> Option<SiteId> {
    if pool.is_empty() {
        return None;
    }
    for _ in 0..8 {
        let cand = pool[rng.gen_range(0..pool.len())];
        let s = arch.site(cand);
        if (s.x as f64 - cx).abs() <= rlim && (s.y as f64 - cy).abs() <= rlim {
            return Some(cand);
        }
    }
    Some(pool[rng.gen_range(0..pool.len())])
}

/// Random legal initial placement: shuffle each kind's site list and assign
/// blocks in order.
pub(crate) fn random_initial_placement(
    arch: &Arch,
    netlist: &Netlist,
    rng: &mut StdRng,
) -> Result<Placement, PlaceError> {
    let mut pools: [Vec<SiteId>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for s in arch.sites() {
        let k = match s.kind {
            SiteKind::Io => 0,
            SiteKind::Clb => 1,
            SiteKind::Memory => 2,
            SiteKind::Multiplier => 3,
        };
        pools[k].push(s.id);
    }
    for pool in &mut pools {
        for i in (1..pool.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool.swap(i, j);
        }
    }
    let mut cursors = [0usize; 4];
    let kind_name = ["io", "clb", "memory", "multiplier"];
    let mut site_of = Vec::with_capacity(netlist.blocks().len());
    let mut demand = [0usize; 4];
    for b in netlist.blocks() {
        let k = match required_site_kind(b.kind) {
            SiteKind::Io => 0,
            SiteKind::Clb => 1,
            SiteKind::Memory => 2,
            SiteKind::Multiplier => 3,
        };
        demand[k] += 1;
        if cursors[k] >= pools[k].len() {
            return Err(PlaceError::InsufficientSites {
                kind: kind_name[k],
                needed: netlist
                    .blocks()
                    .iter()
                    .filter(|bb| required_site_kind(bb.kind) == required_site_kind(b.kind))
                    .count(),
                available: pools[k].len(),
            });
        }
        site_of.push(pools[k][cursors[k]]);
        cursors[k] += 1;
    }
    Ok(Placement::from_assignment(site_of, arch.sites().len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PlaceAlgorithm;
    use pop_netlist::{generate, presets};
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The kernel as it was before it cached anything: every net cost
    /// recomputed through [`CostModel::net_cost`] on propose *and* on undo.
    struct Reference<'a> {
        arch: &'a Arch,
        netlist: &'a Netlist,
        model: CostModel,
        placement: Placement,
        net_costs: Vec<f32>,
        total_cost: f64,
        touched: Vec<NetId>,
    }

    impl<'a> Reference<'a> {
        fn new(arch: &'a Arch, netlist: &'a Netlist, model: CostModel, p: Placement) -> Self {
            let net_costs: Vec<f32> = netlist
                .nets()
                .iter()
                .map(|n| model.net_cost(arch, netlist, &p, n))
                .collect();
            let total_cost = net_costs.iter().map(|&c| c as f64).sum();
            Reference {
                arch,
                netlist,
                model,
                placement: p,
                net_costs,
                total_cost,
                touched: Vec::new(),
            }
        }

        fn cost(&self, n: NetId) -> f32 {
            let net = self.netlist.net(n);
            self.model
                .net_cost(self.arch, self.netlist, &self.placement, net)
        }

        fn apply(&mut self, block: BlockId, target: SiteId) -> f64 {
            self.touched.clear();
            let evicted = self.placement.block_at(target);
            for b in std::iter::once(block).chain(evicted) {
                for &n in self.netlist.nets_of(b) {
                    if !self.touched.contains(&n) {
                        self.touched.push(n);
                    }
                }
            }
            let old_cost: f64 = self
                .touched
                .iter()
                .map(|&n| self.net_costs[n.index()] as f64)
                .sum();
            self.placement.displace(block, target);
            let mut new_cost = 0.0f64;
            for i in 0..self.touched.len() {
                let n = self.touched[i];
                let c = self.cost(n);
                self.net_costs[n.index()] = c;
                new_cost += c as f64;
            }
            self.total_cost += new_cost - old_cost;
            new_cost - old_cost
        }

        fn undo(&mut self, block: BlockId, old_site: SiteId) {
            self.placement.displace(block, old_site);
            let mut delta = 0.0f64;
            for i in 0..self.touched.len() {
                let n = self.touched[i];
                let old = self.net_costs[n.index()] as f64;
                let c = self.cost(n);
                self.net_costs[n.index()] = c;
                delta += c as f64 - old;
            }
            self.total_cost += delta;
        }

        fn refresh(&mut self) {
            let mut total = 0.0f64;
            for i in 0..self.net_costs.len() {
                let c = self.cost(NetId(i as u32));
                self.net_costs[i] = c;
                total += c as f64;
            }
            self.total_cost = total;
        }
    }

    /// Every cache of `kernel` against a recompute on its placement, and
    /// its total against the reference's, bit for bit.
    fn assert_agrees(kernel: &MoveKernel, reference: &Reference, model: CostModel, call: &str) {
        let (arch, netlist, p) = (kernel.arch, kernel.netlist, kernel.placement());
        assert_eq!(p, &reference.placement, "after {call}: placements differ");
        for (i, net) in netlist.nets().iter().enumerate() {
            let expected = model.net_cost(arch, netlist, p, net);
            assert_eq!(
                kernel.net_costs[i].to_bits(),
                expected.to_bits(),
                "after {call}: net {i} cached {} vs {expected}",
                kernel.net_costs[i]
            );
        }
        for b in 0..p.len() {
            let expected = p.position(arch, BlockId(b as u32));
            assert_eq!(
                kernel.positions[b], expected,
                "after {call}: block {b}'s cached position"
            );
        }
        assert_eq!(
            kernel.total_cost().to_bits(),
            reference.total_cost.to_bits(),
            "after {call}: total {} vs reference {}",
            kernel.total_cost(),
            reference.total_cost
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random propose / accept / undo / refresh sequences on small
        /// diffeq1 and SHA fabrics under both cost functions: after every
        /// call each cached net cost is `CostModel::net_cost` of the
        /// current placement, each cached position is
        /// `Placement::position`, and the total is the recomputing
        /// reference's, all bit for bit.
        #[test]
        fn cached_costs_and_positions_track_a_recomputing_reference(
            design in 0usize..2,
            timing in 0usize..2,
            seed in 0u64..1_000_000,
            moves in 50usize..400,
        ) {
            let (name, scale) = [("diffeq1", 0.05), ("SHA", 0.02)][design];
            let netlist = generate(&presets::by_name(name).unwrap().scaled(scale));
            let (c, i, m, x) = netlist.site_demand();
            let arch = Arch::auto_size(c, i, m, x, 12, 1.3).unwrap();
            let algorithm = [PlaceAlgorithm::BoundingBox, PlaceAlgorithm::PathTiming][timing];
            let model = CostModel::new(algorithm);
            let mut rng = StdRng::seed_from_u64(seed);
            let placement = random_initial_placement(&arch, &netlist, &mut rng).unwrap();
            let pools = SitePools::whole_fabric(&arch);
            let mut kernel = MoveKernel::new(&arch, &netlist, model, placement.clone());
            let mut reference = Reference::new(&arch, &netlist, model, placement);
            assert_agrees(&kernel, &reference, model, "new");
            let max_rlim = arch.width().max(arch.height()) as f64;
            for _ in 0..moves {
                let block = BlockId(rng.gen_range(0..netlist.blocks().len() as u32));
                let rlim = rng.gen_range(1.0..=max_rlim);
                if let Some((delta, target, old_site)) =
                    kernel.propose(&mut rng, &pools, block, rlim)
                {
                    let expected = reference.apply(block, target);
                    assert_eq!(delta.to_bits(), expected.to_bits(), "propose delta");
                    assert_agrees(&kernel, &reference, model, "propose");
                    if rng.gen_bool(0.6) {
                        kernel.undo(block, old_site);
                        reference.undo(block, old_site);
                        assert_agrees(&kernel, &reference, model, "undo");
                    }
                }
                if rng.gen_range(0..64) == 0 {
                    kernel.resum_costs();
                    reference.refresh();
                    assert_agrees(&kernel, &reference, model, "resum_costs");
                }
            }
        }
    }
}
