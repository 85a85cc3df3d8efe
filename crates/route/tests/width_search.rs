//! Properties of the channel-width search: the upper bound it starts from
//! and the boundary it returns, over small generated designs.

use pop_arch::Arch;
use pop_netlist::{generate, Netlist, SyntheticSpec};
use pop_place::{place, PlaceOptions, Placement};
use pop_route::{min_channel_width, route, RouteOptions, RouteResult};
use proptest::prelude::*;

type Design = (Arch, Netlist, Placement, RouteOptions);

/// A small design placed on a fabric sized with little slack, so that
/// segments saturate and the search has something to negotiate, and the
/// router's cost knobs.
fn arb_design() -> impl Strategy<Value = Design> {
    (
        10usize..60,  // luts
        10usize..120, // nets
        2usize..6,    // inputs
        2usize..6,    // outputs
        0u64..100_000,
        0.0f64..1.0,                // locality
        1.5f64..4.0,                // mean fanout
        (0.0f32..4.0, 1.0f32..2.0), // pres_fac_init, astar_fac
    )
        .prop_map(
            |(luts, nets, inputs, outputs, seed, locality, mean_fanout, knobs)| {
                let netlist = generate(&SyntheticSpec {
                    name: format!("search_{seed}"),
                    luts,
                    ffs: luts / 2,
                    nets,
                    inputs,
                    outputs,
                    memories: 0,
                    multipliers: 0,
                    luts_per_clb: 4,
                    mean_fanout,
                    locality,
                    seed,
                });
                let (c, i, m, x) = netlist.site_demand();
                let arch = Arch::auto_size(c, i, m, x, 8, 1.1).unwrap();
                let options = PlaceOptions {
                    seed,
                    inner_num: 0.05,
                    ..Default::default()
                };
                let placement = place(&arch, &netlist, &options).unwrap();
                let route_options = RouteOptions {
                    pres_fac_init: knobs.0,
                    astar_fac: knobs.1,
                    ..Default::default()
                };
                (arch, netlist, placement, route_options)
            },
        )
}

fn route_at(design: &Design, width: usize) -> RouteResult {
    let (arch, netlist, placement, options) = design;
    let options = RouteOptions {
        channel_width_override: Some(width),
        ..options.clone()
    };
    route(arch, netlist, placement, &options).unwrap()
}

/// The largest number of trees sharing one segment.
fn peak_occupancy(arch: &Arch, result: &RouteResult) -> usize {
    let mut occupancy = vec![0usize; arch.channel_count()];
    for tree in result.routes() {
        for &node in &tree.nodes {
            occupancy[node as usize] += 1;
        }
    }
    occupancy.into_iter().max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The search's upper bound: the peak occupancy `M` of an uncongested
    /// pass routes, in one iteration, with exactly the uncongested trees.
    #[test]
    fn uncongested_peak_routes_in_one_iteration(design in arb_design()) {
        let free = route_at(&design, u32::MAX as usize);
        prop_assert!(free.success);
        prop_assert_eq!(free.iterations, 1);
        let peak = peak_occupancy(&design.0, &free).max(1);
        let at_peak = route_at(&design, peak);
        prop_assert!(at_peak.success);
        prop_assert_eq!(at_peak.iterations, 1);
        prop_assert_eq!(at_peak.routes(), free.routes());
    }

    /// The search returns a routability boundary at or below that bound,
    /// with the routing a plain call at that width produces.
    #[test]
    fn search_returns_a_boundary(design in arb_design()) {
        let (arch, netlist, placement, options) = &design;
        let (width, result) = min_channel_width(arch, netlist, placement, options).unwrap();
        prop_assert!(result.success);
        prop_assert!(width >= 1);
        prop_assert!(width <= peak_occupancy(arch, &route_at(&design, u32::MAX as usize)).max(1));
        prop_assert_eq!(&result, &route_at(&design, width));
        prop_assert!(width == 1 || !route_at(&design, width - 1).success);
    }
}
