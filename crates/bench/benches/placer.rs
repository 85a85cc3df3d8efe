//! Criterion bench: simulated-annealing placement at the corpus's shape.
//!
//! Owns two of `benchmark/`'s `corpus_cold` rows: `place.probe_us` (one
//! default-option anneal per design, on the width-8 probe fabric that
//! `DesignContext::prepare` calibrates against) and `place.stage_us` (the
//! sweep's anneals on the calibrated fabric, whose sites are the same).
//! Both are full anneals of the Table-2 presets at the benchmark's scale,
//! ×0.1; the rows here are SHA and raygentop under both cost functions.

use criterion::{criterion_group, criterion_main, Criterion};
use pop_arch::Arch;
use pop_netlist::{generate, presets, Netlist};
use pop_place::{place, PlaceAlgorithm, PlaceOptions};

/// One design at ×0.1 on the fabric `DesignContext::prepare` probes with:
/// 8 wires per channel, slack 1.3.
fn setup(design: &str) -> (Arch, Netlist) {
    let netlist = generate(&presets::by_name(design).unwrap().scaled(0.1));
    let (c, i, m, x) = netlist.site_demand();
    let arch = Arch::auto_size(c, i, m, x, 8, 1.3).unwrap();
    (arch, netlist)
}

fn bench_placer(c: &mut Criterion) {
    let mut group = c.benchmark_group("placer");
    group.sample_size(10);
    for design in ["SHA", "raygentop"] {
        let (arch, netlist) = setup(design);
        for (name, algorithm) in [
            ("bounding_box", PlaceAlgorithm::BoundingBox),
            ("path_timing", PlaceAlgorithm::PathTiming),
        ] {
            let options = PlaceOptions {
                algorithm,
                ..PlaceOptions::default()
            };
            group.bench_function(format!("full_anneal_{design}_x0.1_{name}"), |b| {
                b.iter(|| place(&arch, &netlist, &options).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_placer);
criterion_main!(benches);
