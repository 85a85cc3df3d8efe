//! A feature tensor allocates its answer, the hit counts and the
//! connectivity image they become, and a fixed handful of small buffers
//! (two layouts' tables, the blocks' pixel positions, the I/O port
//! counts) — the same number of allocator calls whatever the netlist: the
//! distinct edges were sorted once, by `Netlist::new`, not collected per
//! image. Counted with a `#[global_allocator]`, which is why this test has
//! a binary to itself (the counters are the calling thread's).

use pop_arch::Arch;
use pop_core::features::placement_input;
use pop_core::ExperimentConfig;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};

mod common;
use common::{heap_use, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The small buffers: two layouts (four tables each), pixel positions,
/// port counts.
const SLACK: usize = 8192;
const MAX_CALLS: usize = 16;

#[test]
fn a_feature_tensor_costs_its_answer_and_fixed_scratch() {
    let config = ExperimentConfig {
        resolution: 64,
        ..ExperimentConfig::quick()
    };
    let side = config.resolution;
    let mut calls_seen = Vec::new();
    // 3 070 edges, then 95.
    for (design, scale) in [("SHA", 0.1), ("diffeq1", 0.02)] {
        let netlist = generate(&presets::by_name(design).unwrap().scaled(scale));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size_with_aspect(c, i, m, x, 8, 1.3, 1.0).unwrap();
        let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
        let first = placement_input(&arch, &netlist, &placement, &config);
        let (bytes, calls, again) =
            heap_use(|| placement_input(&arch, &netlist, &placement, &config));
        assert_eq!(again, first);
        let answer = 4 * again.len();
        let scratch = 2 * 4 * side * side; // hit counts, `img_connect`
        assert!(
            (answer..=answer + scratch + SLACK).contains(&bytes),
            "{design}: {bytes} bytes allocated for {answer} bytes of answer"
        );
        let edges: usize = netlist.nets().iter().map(|net| net.sinks.len()).sum();
        println!("{design}: {edges} edges, {calls} calls, {bytes} bytes");
        calls_seen.push(calls);
    }
    assert!(
        calls_seen[0] == calls_seen[1] && calls_seen[0] <= MAX_CALLS,
        "allocator calls per feature tensor: {calls_seen:?}"
    );
}
