//! Criterion bench: PathFinder routing and min-channel-width search.

use criterion::{criterion_group, criterion_main, Criterion};
use pop_arch::Arch;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};
use pop_route::{min_channel_width, route, route_on_graph, RouteGraph, RouteOptions};

fn bench_router(c: &mut Criterion) {
    let netlist = generate(&presets::by_name("diffeq1").unwrap().scaled(0.02));
    let (cl, io, me, mu) = netlist.site_demand();
    let arch = Arch::auto_size(cl, io, me, mu, 16, 1.3).unwrap();
    let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
    let graph = RouteGraph::new(&arch);

    let mut group = c.benchmark_group("router");
    group.sample_size(10);

    group.bench_function("route_diffeq1_x0.02", |b| {
        b.iter(|| route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap())
    });

    group.bench_function("route_prebuilt_graph", |b| {
        b.iter(|| {
            route_on_graph(
                &arch,
                &graph,
                &netlist,
                &placement,
                &RouteOptions::default(),
            )
            .unwrap()
        })
    });

    group.bench_function("min_channel_width", |b| {
        b.iter(|| min_channel_width(&arch, &netlist, &placement, &RouteOptions::default()).unwrap())
    });

    group.bench_function("build_route_graph", |b| b.iter(|| RouteGraph::new(&arch)));

    group.finish();
}

/// The corpus-scale case: at diffeq1 × 0.02 the whole width search is a few
/// milliseconds, at SHA × 0.1 (1 091 nets) it is the largest row of a cold
/// corpus, and most of it is probes that fail after every iteration.
fn bench_calibration(c: &mut Criterion) {
    let netlist = generate(&presets::by_name("SHA").unwrap().scaled(0.1));
    let (cl, io, me, mu) = netlist.site_demand();
    let arch = Arch::auto_size(cl, io, me, mu, 8, 1.3).unwrap();
    let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
    let graph = RouteGraph::new(&arch);

    let mut group = c.benchmark_group("router_sha_x0.1");
    group.sample_size(10);

    group.bench_function("min_channel_width", |b| {
        b.iter(|| min_channel_width(&arch, &netlist, &placement, &RouteOptions::default()).unwrap())
    });

    // One wire short of the calibrated 94: 24 iterations, 11 segments over.
    let failing = RouteOptions {
        channel_width_override: Some(93),
        ..Default::default()
    };
    group.bench_function("route_failing_width", |b| {
        b.iter(|| route_on_graph(&arch, &graph, &netlist, &placement, &failing).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_router, bench_calibration);
criterion_main!(benches);
