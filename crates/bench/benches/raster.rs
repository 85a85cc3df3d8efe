//! Criterion bench: image rendering (the paper's "image generator
//! implemented based on VPR") at the shape `benchmark/`'s `explore` and
//! `corpus_cold` raster — SHA × 0.1 on its 8×8 fabric, 64×64 — and at the
//! paper's 256×256.
//!
//! This bench owns two ledger rows of `BENCHMARK.json`:
//! `raster.features_us` (`features_*` here: `img_place` + `img_connect` +
//! the stack, split as `placement_*` / `connectivity_*`) and
//! `raster.target_us` (`congestion_*`). A change to `pop-raster` names the
//! row it moves here before it claims anything end to end. The whole run
//! takes about a second, so CI runs it as its own smoke.

use criterion::{criterion_group, criterion_main, Criterion};
use pop_arch::Arch;
use pop_core::features::placement_input;
use pop_core::ExperimentConfig;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};
use pop_raster::{
    grayscale, render_congestion, render_connectivity, render_floorplan, render_placement,
};
use pop_route::{route, RouteOptions};

fn bench_raster(c: &mut Criterion) {
    let netlist = generate(&presets::by_name("SHA").unwrap().scaled(0.1));
    let (cl, io, me, mu) = netlist.site_demand();
    let arch = Arch::auto_size_with_aspect(cl, io, me, mu, 8, 1.3, 1.0).unwrap();
    let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
    let routing = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
    let place_img = render_placement(&arch, &netlist, &placement, 64);
    println!(
        "SHA x 0.1: {}x{} fabric, {} blocks, {} nets, {} distinct edges",
        arch.width(),
        arch.height(),
        netlist.blocks().len(),
        netlist.nets().len(),
        netlist.edge_runs().len()
    );

    let mut group = c.benchmark_group("raster");
    group.sample_size(200);

    for side in [64usize, 256] {
        let config = ExperimentConfig {
            resolution: side,
            ..ExperimentConfig::quick()
        };
        group.bench_function(format!("floorplan_{side}"), |b| {
            b.iter(|| render_floorplan(&arch, side))
        });
        group.bench_function(format!("placement_{side}"), |b| {
            b.iter(|| render_placement(&arch, &netlist, &placement, side))
        });
        group.bench_function(format!("connectivity_{side}"), |b| {
            b.iter(|| render_connectivity(&arch, &netlist, &placement, side))
        });
        group.bench_function(format!("features_{side}"), |b| {
            b.iter(|| placement_input(&arch, &netlist, &placement, &config))
        });
        group.bench_function(format!("congestion_{side}"), |b| {
            b.iter(|| render_congestion(&arch, &netlist, &placement, routing.congestion(), side))
        });
    }
    group.bench_function("grayscale_64", |b| b.iter(|| grayscale(&place_img)));

    group.finish();
}

criterion_group!(benches, bench_raster);
criterion_main!(benches);
