//! The `route.overuse` histogram: one sample per negotiation pass, each
//! the segments still overused after that pass. The registry is global to
//! the process, so this binary holds one test and nothing else routes
//! while it counts.

use pop_arch::Arch;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};
use pop_route::{route_on_graph, RouteGraph, RouteOptions};

/// `(samples, sum)` recorded in `route.overuse` so far.
fn overuse() -> (u64, u64) {
    pop_obs::global()
        .snapshot()
        .histogram("route.overuse")
        .map_or((0, 0), |h| (h.count, h.sum))
}

#[test]
fn every_negotiation_pass_records_its_overuse() {
    let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.02));
    let (c, i, m, x) = netlist.site_demand();
    let arch = Arch::auto_size(c, i, m, x, 16, 1.3).unwrap();
    let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
    let graph = RouteGraph::new(&arch);

    // A failing width runs every pass, and no pass beats the best one.
    let failing = RouteOptions {
        channel_width_override: Some(1),
        max_iterations: 5,
        ..Default::default()
    };
    let (count, sum) = overuse();
    let result = route_on_graph(&arch, &graph, &netlist, &placement, &failing).unwrap();
    assert!(!result.success);
    let (after_count, after_sum) = overuse();
    assert_eq!(after_count - count, failing.max_iterations as u64);
    assert!(after_sum - sum >= failing.max_iterations as u64 * result.overused_segments as u64);

    // A routable width records the passes it ran, up to the clean one.
    let (count, _) = overuse();
    let options = RouteOptions::default();
    let result = route_on_graph(&arch, &graph, &netlist, &placement, &options).unwrap();
    assert!(result.success);
    assert_eq!(overuse().0 - count, result.iterations as u64);
}
