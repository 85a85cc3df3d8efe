use crate::congestion::CongestionMap;
use crate::graph::RouteGraph;
use pop_arch::Arch;
use pop_netlist::{NetId, Netlist};
use pop_place::Placement;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Options for the negotiated-congestion router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOptions {
    /// Maximum rip-up-and-reroute iterations before giving up and returning
    /// the best (least-overused) routing found.
    pub max_iterations: usize,
    /// Initial present-congestion penalty factor.
    pub pres_fac_init: f32,
    /// Multiplier applied to the present-congestion factor each iteration.
    pub pres_fac_mult: f32,
    /// Historical-congestion accumulation rate.
    pub hist_fac: f32,
    /// A* aggressiveness (1.0 = admissible Dijkstra-like, >1 = greedier and
    /// faster; VPR defaults to ~1.2).
    pub astar_fac: f32,
    /// Route against this channel capacity instead of the architecture's
    /// (used by [`min_channel_width`]'s binary search).
    pub channel_width_override: Option<usize>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            max_iterations: 24,
            pres_fac_init: 0.6,
            pres_fac_mult: 1.7,
            hist_fac: 0.4,
            astar_fac: 1.2,
            channel_width_override: None,
        }
    }
}

/// Errors produced by routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A net terminal sits on a tile with no channel access (cannot happen
    /// on well-formed architectures; reported rather than panicking).
    NoChannelAccess {
        /// The unroutable net.
        net: NetId,
    },
    /// The router could not connect a net at all (disconnected graph).
    Unroutable {
        /// The unroutable net.
        net: NetId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoChannelAccess { net } => {
                write!(f, "net {net} has a terminal without channel access")
            }
            RouteError::Unroutable { net } => write!(f, "net {net} could not be routed"),
        }
    }
}

impl Error for RouteError {}

/// The routed tree of one net: the channel segments it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// Which net this tree belongs to.
    pub net: NetId,
    /// Channel-segment node indices (dense [`Arch::channel_index`] order),
    /// each counted once.
    pub nodes: Vec<u32>,
}

/// Outcome of [`route`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    routes: Vec<RoutedNet>,
    congestion: CongestionMap,
    /// Rip-up-and-reroute iterations performed.
    pub iterations: usize,
    /// Whether the final routing is overuse-free.
    pub success: bool,
    /// Number of channel segments still over capacity.
    pub overused_segments: usize,
}

impl RouteResult {
    /// The per-channel utilisation map (the paper's ground truth).
    pub fn congestion(&self) -> &CongestionMap {
        &self.congestion
    }

    /// Per-net routed trees.
    pub fn routes(&self) -> &[RoutedNet] {
        &self.routes
    }

    /// Total routed wirelength in channel segments.
    pub fn wirelength(&self) -> usize {
        self.routes.iter().map(|r| r.nodes.len()).sum()
    }
}

/// One A* heap entry packed into a `u64`: the priority's bits mapped onto
/// unsigned integers in [`f32::total_cmp`] order, above the node index.
/// Comparing keys is comparing `(priority, node)` — smallest priority
/// first, ties broken by node index for determinism — in one instruction.
#[inline]
fn heap_key(priority: f32, node: u32) -> Reverse<u64> {
    let bits = priority.to_bits();
    // Negative floats sort by descending magnitude: flip every bit.
    // Non-negative ones sort above them: flip the sign bit only.
    let ordered = bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000);
    Reverse(u64::from(ordered) << 32 | u64::from(node))
}

/// The priority half of a [`heap_key`].
#[inline]
fn key_priority(key: u64) -> u32 {
    (key >> 32) as u32
}

/// One node's A* state, valid while `stamp` is the router's search epoch.
#[derive(Clone, Copy)]
struct Visit {
    stamp: u32,
    g: f32,
    parent: u32,
    /// The ordered priority bits of the node's latest heap entry: an entry
    /// popped with other bits is stale.
    priority: u32,
}

/// One variable-length row per net, stored back to back in net order, so
/// that a copy of the whole is two `memcpy`s.
struct Rows<T> {
    items: Vec<T>,
    ends: Vec<u32>,
}

impl<T> Rows<T> {
    fn new() -> Self {
        Rows {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }

    fn row(&self, net: usize) -> &[T] {
        let lo = if net == 0 { 0 } else { self.ends[net - 1] };
        &self.items[lo as usize..self.ends[net] as usize]
    }

    /// Ends the row that the items pushed since the last call make up.
    fn end_row(&mut self) {
        self.ends.push(self.items.len() as u32);
    }

    fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }
}

/// The fabric tiles `(x, y)` of every net's terminals: its driver's, then
/// its sinks', in netlist order.
fn resolve_terminals(
    arch: &Arch,
    graph: &RouteGraph,
    netlist: &Netlist,
    placement: &Placement,
) -> Result<Rows<(u32, u32)>, RouteError> {
    let mut tiles = Rows::new();
    for net in netlist.nets() {
        for block in net.terminals() {
            let site = arch.site(placement.site_of(block));
            if graph.tile_access(site.x, site.y).is_empty() {
                return Err(RouteError::NoChannelAccess { net: net.id });
            }
            tiles.items.push((site.x as u32, site.y as u32));
        }
        tiles.end_row();
    }
    Ok(tiles)
}

/// Scratch state reused across nets within one routing pass.
struct Router<'a> {
    graph: &'a RouteGraph,
    capacity: u32,
    occupancy: Vec<u32>,
    history: Vec<f32>,
    /// [`Router::node_cost`] of every node, kept current as occupancy,
    /// history and `pres_fac` change.
    cost: Vec<f32>,
    pres_fac: f32,
    astar_fac: f32,
    // A* scratch, epoch-stamped to avoid O(V) clears per search.
    visits: Vec<Visit>,
    /// The epoch of the search a node was last a sink of.
    sink_stamp: Vec<u32>,
    epoch: u32,
    // Tree membership stamp.
    tree_stamp: Vec<u64>,
    tree_epoch: u64,
    heap: BinaryHeap<Reverse<u64>>,
    /// Per-net scratch: `(distance from the source, sink number)`.
    order: Vec<(f32, u32)>,
}

const NO_PARENT: u32 = u32::MAX;

impl<'a> Router<'a> {
    fn new(graph: &'a RouteGraph, capacity: u32, options: &RouteOptions) -> Self {
        let n = graph.node_count();
        let mut router = Router {
            graph,
            capacity,
            occupancy: vec![0; n],
            history: vec![0.0; n],
            cost: vec![0.0; n],
            pres_fac: options.pres_fac_init,
            astar_fac: options.astar_fac,
            visits: vec![
                Visit {
                    stamp: 0,
                    g: 0.0,
                    parent: NO_PARENT,
                    priority: 0,
                };
                n
            ],
            sink_stamp: vec![0; n],
            epoch: 0,
            tree_stamp: vec![0; n],
            tree_epoch: 0,
            heap: BinaryHeap::new(),
            order: Vec::new(),
        };
        router.refresh_costs();
        router
    }

    /// PathFinder node cost: `(base + history) · present-congestion factor`,
    /// where the present factor penalises occupancy that would exceed
    /// capacity.
    #[inline]
    fn node_cost(&self, node: usize) -> f32 {
        let over = (self.occupancy[node] + 1).saturating_sub(self.capacity);
        (1.0 + self.history[node]) * (1.0 + self.pres_fac * over as f32)
    }

    fn refresh_costs(&mut self) {
        for node in 0..self.cost.len() {
            self.cost[node] = self.node_cost(node);
        }
    }

    /// Adds (`+1`) or rips up (`-1`) a tree's claim on its segments.
    fn claim(&mut self, tree: &[u32], delta: i32) {
        for &n in tree {
            let n = n as usize;
            debug_assert!(
                delta >= 0 || self.occupancy[n] > 0,
                "rip-up of unclaimed segment {n}"
            );
            self.occupancy[n] = self.occupancy[n].wrapping_add_signed(delta);
            self.cost[n] = self.node_cost(n);
        }
    }

    /// Routes one net as a Steiner-ish tree: sinks are connected one at a
    /// time by A* searches seeded from the whole partial tree (VPR's net
    /// routing discipline). Appends the tree's nodes to `out`.
    fn route_net(
        &mut self,
        terminals: &[(u32, u32)],
        net: NetId,
        out: &mut Vec<u32>,
    ) -> Result<(), RouteError> {
        let graph = self.graph;
        let access = |tile: (u32, u32)| graph.tile_access(tile.0 as usize, tile.1 as usize);
        let first = out.len();
        self.tree_epoch += 1;
        let sources = access(terminals[0]);
        let sink_tiles = &terminals[1..];

        // Sort sinks by distance from the first source for stable, mostly
        // monotone tree growth.
        let src_pos = graph.position(sources[0] as usize);
        let sink_pos = |sink: u32| graph.position(access(sink_tiles[sink as usize])[0] as usize);
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..sink_tiles.len() as u32).map(|i| (manhattan(src_pos, sink_pos(i)), i)));
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        for &(_, sink) in &order {
            let sinks = access(sink_tiles[sink as usize]);
            // Already reached by the existing tree?
            if sinks
                .iter()
                .any(|&s| self.tree_stamp[s as usize] == self.tree_epoch)
            {
                continue;
            }
            let target = sink_pos(sink);

            self.next_epoch();
            self.heap.clear();
            for &s in sinks {
                self.sink_stamp[s as usize] = self.epoch;
            }

            // Seed: tree nodes at zero g (their cost is already paid),
            // otherwise the net's source access segments.
            if out.len() == first {
                for &s in sources {
                    let g = self.cost[s as usize];
                    self.push(s, g, g + self.h(s as usize, target), NO_PARENT);
                }
            } else {
                for &t in &out[first..] {
                    self.push(t, 0.0, self.h(t as usize, target), NO_PARENT);
                }
            }

            let mut found: Option<u32> = None;
            while let Some(Reverse(key)) = self.heap.pop() {
                let node = key as u32;
                let g = self.visits[node as usize].g;
                // A node's keys only fall (its g does, and h is fixed for
                // the search), so a key other than its latest is larger and
                // pops after it: the node was expanded at this g already,
                // and was no sink, or the search would have ended there.
                // Expanding it again would push nothing.
                if key_priority(key) != self.visits[node as usize].priority {
                    continue;
                }
                if self.sink_stamp[node as usize] == self.epoch {
                    found = Some(node);
                    break;
                }
                for &m in graph.neighbors(node as usize) {
                    let ng = g + self.cost[m as usize];
                    let seen = self.visits[m as usize];
                    if seen.stamp != self.epoch || ng < seen.g {
                        self.push(m, ng, ng + self.h(m as usize, target), node);
                    }
                }
            }

            let Some(mut cur) = found else {
                return Err(RouteError::Unroutable { net });
            };

            // Backtrack, appending new nodes until we rejoin the tree (or
            // exhaust the path for the first sink).
            loop {
                let c = cur as usize;
                if self.tree_stamp[c] == self.tree_epoch {
                    break;
                }
                self.tree_stamp[c] = self.tree_epoch;
                out.push(cur);
                let p = self.visits[c].parent;
                if p == NO_PARENT {
                    break;
                }
                cur = p;
            }
        }
        self.order = order;
        Ok(())
    }

    /// Starts a new search: every node's [`Visit`] becomes stale.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            for v in &mut self.visits {
                v.stamp = 0;
            }
            self.sink_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Records that `node` is reached at cost `g` from `parent` and queues
    /// it at `priority`.
    #[inline]
    fn push(&mut self, node: u32, g: f32, priority: f32, parent: u32) {
        let key = heap_key(priority, node);
        self.visits[node as usize] = Visit {
            stamp: self.epoch,
            g,
            parent,
            priority: key_priority(key.0),
        };
        self.heap.push(key);
    }

    #[inline]
    fn h(&self, node: usize, target: (f32, f32)) -> f32 {
        self.astar_fac * manhattan(self.graph.position(node), target)
    }
}

#[inline]
fn manhattan(a: (f32, f32), b: (f32, f32)) -> f32 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// What one negotiation leaves behind: its least-overused routing.
struct Negotiated {
    iterations: usize,
    overused: usize,
    /// The segments of every net's tree.
    trees: Rows<u32>,
    occupancy: Vec<u32>,
}

impl Negotiated {
    fn into_result(self, arch: &Arch, capacity: u32) -> RouteResult {
        let routes = (0..self.trees.ends.len())
            .map(|i| RoutedNet {
                net: NetId(i as u32),
                nodes: self.trees.row(i).to_vec(),
            })
            .collect();
        RouteResult {
            routes,
            congestion: CongestionMap::from_occupancy(arch, &self.occupancy, capacity as usize),
            iterations: self.iterations,
            success: self.overused == 0,
            overused_segments: self.overused,
        }
    }
}

/// The negotiated-congestion loop behind [`route_on_graph`] and every probe
/// of [`min_channel_width`]: rip up and re-route every net, in netlist
/// order, until no segment holds more than `capacity` nets or
/// `options.max_iterations` passes have run. Each pass records its
/// overused segments in the `route.overuse` histogram.
fn negotiate(
    graph: &RouteGraph,
    terminals: &Rows<(u32, u32)>,
    capacity: u32,
    options: &RouteOptions,
) -> Result<Negotiated, RouteError> {
    let overuse = pop_obs::global().histogram("route.overuse");
    let mut router = Router::new(graph, capacity, options);
    // `current` holds the last pass's trees while `next` is being routed.
    let (mut current, mut next) = (Rows::new(), Rows::new());
    let mut best = Negotiated {
        iterations: 0,
        overused: usize::MAX,
        trees: Rows::new(),
        occupancy: Vec::new(),
    };

    for iter in 0..options.max_iterations.max(1) {
        best.iterations = iter + 1;
        next.clear();
        for net in 0..terminals.ends.len() {
            if iter > 0 {
                router.claim(current.row(net), -1);
            }
            let first = next.items.len();
            router.route_net(terminals.row(net), NetId(net as u32), &mut next.items)?;
            router.claim(&next.items[first..], 1);
            next.end_row();
        }
        std::mem::swap(&mut current, &mut next);

        // Count overuse and accumulate history on hot segments.
        let mut overused = 0usize;
        for n in 0..graph.node_count() {
            let over = router.occupancy[n].saturating_sub(capacity);
            if over > 0 {
                overused += 1;
                router.history[n] += options.hist_fac * over as f32;
            }
        }
        overuse.record(overused as u64);

        if overused < best.overused {
            best.overused = overused;
            best.trees.items.clone_from(&current.items);
            best.trees.ends.clone_from(&current.ends);
            best.occupancy.clone_from(&router.occupancy);
        }
        if overused == 0 {
            break;
        }
        router.pres_fac *= options.pres_fac_mult;
        router.refresh_costs();
    }
    pop_obs::global()
        .counter("route.iterations")
        .add(best.iterations as u64);
    Ok(best)
}

/// Routes every net of a placed design with PathFinder-style negotiated
/// congestion and returns the per-channel utilisation.
///
/// Deterministic: identical inputs give identical routings.
///
/// # Errors
///
/// Returns [`RouteError`] when a net cannot reach the channel network at
/// all. Capacity overflow is *not* an error: if negotiation does not
/// converge within `options.max_iterations`, the least-overused routing is
/// returned with [`RouteResult::success`] `= false` (its congestion map
/// then legitimately shows utilisation above 1.0).
pub fn route(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    options: &RouteOptions,
) -> Result<RouteResult, RouteError> {
    let graph = RouteGraph::new(arch);
    route_on_graph(arch, &graph, netlist, placement, options)
}

/// [`route`] against a prebuilt [`RouteGraph`] (reuse the graph when routing
/// many placements of the same architecture, as dataset generation does).
pub fn route_on_graph(
    arch: &Arch,
    graph: &RouteGraph,
    netlist: &Netlist,
    placement: &Placement,
    options: &RouteOptions,
) -> Result<RouteResult, RouteError> {
    let capacity = options
        .channel_width_override
        .unwrap_or_else(|| arch.channel_width()) as u32;
    let terminals = resolve_terminals(arch, graph, netlist, placement)?;
    let run = negotiate(graph, &terminals, capacity, options)?;
    pop_obs::global()
        .counter("route.overused_segments")
        .add(run.overused as u64);
    Ok(run.into_result(arch, capacity))
}

/// Binary-searches a minimum channel width for which the placement routes
/// without overuse — VPR's "routing succeeded with a channel width factor
/// of N" (caption of the paper's Figure 2). Returns the width and the
/// successful routing at that width.
///
/// # What the returned width is
///
/// A *routability boundary*: `w` routes under `options` and `w − 1` does
/// not (or `w` is 1). It is not promised to be the smallest such `w`,
/// because negotiated routing is a heuristic and routability is not
/// monotone in width: dcsg × 0.03 on its default probe placement routes at
/// 78 and at 81 but not at 77 or 80. Which boundary a bisection lands on
/// depends on its probe order; this one starts from the bound below, and
/// the widths it returns for the presets are pinned in
/// `tests/calibration.rs`.
///
/// # The search
///
/// *Upper bound by construction.* One pass with capacity out of reach
/// (`u32::MAX`) never penalises a segment, so it routes every net at
/// uncongested cost and stops. Let `M` be the peak segment occupancy of
/// those trees. They hold at most `M` nets per segment, so they *are* an
/// overuse-free routing at width `M`: the bisection brackets `[1, M]` with
/// no doubling phase and nothing that can fail to terminate. A plain call at
/// width `M` also reproduces exactly those trees in one iteration — the
/// first iteration rips nothing up, so occupancy only grows towards the
/// uncongested one, and the only costs that differ from the uncongested
/// pass are on segments already holding `M` nets, which the remaining nets
/// avoided anyway and now find dearer still (`tests/width_search.rs`).
///
/// *Failing probes run to the end.* A probe that still has overuse after
/// `options.max_iterations` passes is a failure, and it cannot be called
/// early without changing answers: negotiation converges as late as
/// iteration 21 of 24 (ode × 0.015 at its width 39) and 24 of 24 (bfly ×
/// 0.03 at 84). What the search saves, it saves by running fewer failing
/// probes — they cost a full `max_iterations` each, successes a fraction.
///
/// # Errors
///
/// Propagates [`RouteError`] from the underlying routing attempts.
pub fn min_channel_width(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    options: &RouteOptions,
) -> Result<(usize, RouteResult), RouteError> {
    let _span = pop_obs::span!("route_min_width", nets = netlist.nets().len());
    let graph = RouteGraph::new(arch);
    let terminals = resolve_terminals(arch, &graph, netlist, placement)?;
    let (mut probes, mut failures) = (0u64, 0u64);
    let mut probe = |width: u32| {
        let run = negotiate(&graph, &terminals, width, options);
        probes += 1;
        failures += u64::from(matches!(&run, Ok(r) if r.overused > 0));
        run
    };

    // Upper bound by construction: the uncongested trees fit in their own
    // peak occupancy.
    let mut hi_run = probe(u32::MAX)?;
    let mut hi = hi_run.occupancy.iter().copied().max().unwrap_or(0).max(1);
    let mut lo = 1;
    // Invariant: hi routes, lo-1 fails (or lo is 1).
    while lo < hi {
        let mid = (lo + hi) / 2;
        let run = probe(mid)?;
        if run.overused == 0 {
            hi = mid;
            hi_run = run;
        } else {
            lo = mid + 1;
        }
    }
    let registry = pop_obs::global();
    registry.counter("route.width_probes").add(probes);
    registry.counter("route.width_probe_failures").add(failures);
    Ok((hi as usize, hi_run.into_result(arch, hi)))
}

/// Verifies that every routed net connects all of its terminals through a
/// connected set of adjacent channel segments. Used by tests and exposed
/// for downstream validation of externally-produced routings.
pub fn verify_routes(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    result: &RouteResult,
) -> Result<(), RouteError> {
    let graph = RouteGraph::new(arch);
    for routed in result.routes() {
        let net = netlist.net(routed.net);
        let in_tree: std::collections::HashSet<usize> =
            routed.nodes.iter().map(|&n| n as usize).collect();
        if in_tree.is_empty() {
            return Err(RouteError::Unroutable { net: net.id });
        }
        // Connectivity of the tree via BFS over graph adjacency.
        let start = routed.nodes[0] as usize;
        let mut seen = std::collections::HashSet::new();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for &m in graph.neighbors(n) {
                let m = m as usize;
                if in_tree.contains(&m) && seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        if seen.len() != in_tree.len() {
            return Err(RouteError::Unroutable { net: net.id });
        }
        // Every terminal's access set intersects the tree.
        for term in net.terminals() {
            let site = arch.site(placement.site_of(term));
            let acc = graph.tile_access(site.x, site.y);
            if !acc.iter().any(|&a| in_tree.contains(&(a as usize))) {
                return Err(RouteError::Unroutable { net: net.id });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_netlist::{generate, presets};
    use pop_place::{place, PlaceOptions};

    fn setup() -> (Arch, Netlist, Placement) {
        let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.02));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 16, 1.3).unwrap();
        let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
        (arch, netlist, placement)
    }

    #[test]
    fn heap_keys_order_like_total_cmp_then_node() {
        let priorities = [
            f32::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            1.000_000_1,
            7.25,
            f32::INFINITY,
            f32::NAN,
        ];
        for &a in &priorities {
            for &b in &priorities {
                for (na, nb) in [(3, 3), (3, 4), (4, 3)] {
                    // The heap pops the greatest entry: smallest priority,
                    // then smallest node.
                    let expected = b.total_cmp(&a).then(nb.cmp(&na));
                    assert_eq!(heap_key(a, na).cmp(&heap_key(b, nb)), expected);
                }
            }
        }
    }

    #[test]
    fn search_epochs_wrap_without_changing_a_route() {
        let (arch, netlist, placement) = setup();
        let graph = RouteGraph::new(&arch);
        let terminals = resolve_terminals(&arch, &graph, &netlist, &placement).unwrap();
        let options = RouteOptions::default();
        let mut router = Router::new(&graph, arch.channel_width() as u32, &options);
        let pass = |router: &mut Router| {
            let mut out = Vec::new();
            for net in 0..terminals.ends.len() {
                let row = terminals.row(net);
                router.route_net(row, NetId(net as u32), &mut out).unwrap();
            }
            out
        };
        // The second pass starts at the wrap. Every node carries the first
        // epoch after it, at a g that nothing beats: a search that trusted
        // those stamps would find no path.
        let fresh = pass(&mut router);
        let searches = router.epoch;
        for v in &mut router.visits {
            v.stamp = 1;
            v.g = f32::NEG_INFINITY;
        }
        router.epoch = u32::MAX;
        let wrapped = pass(&mut router);
        assert_eq!(router.epoch, searches, "the epoch wrapped");
        assert_eq!(wrapped, fresh);
    }

    #[test]
    fn routes_small_design_successfully() {
        let (arch, netlist, placement) = setup();
        let result = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        assert!(result.success, "overused: {}", result.overused_segments);
        assert!(result.wirelength() > 0);
        assert_eq!(result.routes().len(), netlist.nets().len());
    }

    #[test]
    fn routed_trees_connect_all_terminals() {
        let (arch, netlist, placement) = setup();
        let result = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        verify_routes(&arch, &netlist, &placement, &result).unwrap();
    }

    #[test]
    fn successful_routing_respects_capacity() {
        let (arch, netlist, placement) = setup();
        let result = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        if result.success {
            assert!(result.congestion().max_utilization() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let (arch, netlist, placement) = setup();
        let a = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        let b = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn narrow_channels_cause_overuse_but_still_return() {
        let (arch, netlist, placement) = setup();
        let opts = RouteOptions {
            channel_width_override: Some(1),
            max_iterations: 3,
            ..Default::default()
        };
        let result = route(&arch, &netlist, &placement, &opts).unwrap();
        assert!(!result.success);
        assert!(result.congestion().max_utilization() > 1.0);
    }

    #[test]
    fn min_channel_width_is_tight() {
        let (arch, netlist, placement) = setup();
        let (w, result) =
            min_channel_width(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        assert!(result.success);
        assert!(w >= 1);
        // One less must fail (tightness), unless already at 1.
        if w > 1 {
            let opts = RouteOptions {
                channel_width_override: Some(w - 1),
                ..Default::default()
            };
            let r = route(&arch, &netlist, &placement, &opts).unwrap();
            assert!(!r.success, "width {} should fail", w - 1);
        }
    }

    #[test]
    fn negotiation_reduces_overuse() {
        let (arch, netlist, placement) = setup();
        // Tight fabric: half the calibrated width.
        let tight = |iters: usize| {
            let opts = RouteOptions {
                channel_width_override: Some(6),
                max_iterations: iters,
                ..Default::default()
            };
            route(&arch, &netlist, &placement, &opts)
                .unwrap()
                .overused_segments
        };
        let first_pass = tight(1);
        let negotiated = tight(16);
        assert!(
            negotiated <= first_pass,
            "negotiation must not increase overuse: {first_pass} -> {negotiated}"
        );
    }

    #[test]
    fn wirelength_equals_sum_of_tree_sizes() {
        let (arch, netlist, placement) = setup();
        let result = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        let sum: usize = result.routes().iter().map(|r| r.nodes.len()).sum();
        assert_eq!(result.wirelength(), sum);
        // Every tree node index is in range and unique within its tree.
        for r in result.routes() {
            let mut nodes = r.nodes.clone();
            nodes.sort_unstable();
            let before = nodes.len();
            nodes.dedup();
            assert_eq!(nodes.len(), before, "net {} repeats a segment", r.net);
            assert!(nodes.iter().all(|&n| (n as usize) < arch.channel_count()));
        }
    }

    #[test]
    fn worse_placement_routes_longer() {
        let (arch, netlist, placement) = setup();
        let good = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        // A barely-annealed placement should need more wire.
        let bad_opts = PlaceOptions {
            seed: 3,
            inner_num: 0.01,
            alpha_t: 0.5,
            max_outer_iters: 2,
            ..Default::default()
        };
        let bad_placement = place(&arch, &netlist, &bad_opts).unwrap();
        let opts = RouteOptions {
            max_iterations: 8,
            ..Default::default()
        };
        let bad = route(&arch, &netlist, &bad_placement, &opts).unwrap();
        assert!(
            bad.wirelength() > good.wirelength(),
            "bad {} vs good {}",
            bad.wirelength(),
            good.wirelength()
        );
    }
}
