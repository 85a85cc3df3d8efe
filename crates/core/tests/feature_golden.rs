//! Golden feature tensors: FNV-1a over the `f32` bit patterns of the
//! generator input of eight sweep placements per design, captured from
//! `assemble_input(render_placement, render_connectivity)` at the commit
//! before `features::placement_input` existed and before the line walk,
//! the saturation table and the span-filled placement image. The walk
//! counts integer hits and every rewrite keeps the expressions it
//! replaces, so the tensors must stay bit-exact — in debug builds and in
//! release builds, where the walk is vectorised.

use pop_arch::Arch;
use pop_core::features::{assemble_input, placement_input};
use pop_core::ExperimentConfig;
use pop_netlist::{generate, presets};
use pop_place::{place, sweep::SweepSpec};
use pop_raster::{render_connectivity, render_placement};

const SIDE: usize = 64;
const PLACEMENTS: usize = 8;

/// `(design, grayscale_input, fnv over the eight tensors)`.
#[rustfmt::skip]
const GOLDEN: [(&str, bool, u64); 3] = [
    ("SHA", false, 0xe1ec14e9ac25e03c),
    ("raygentop", false, 0x558ddca69b9e4f3e),
    ("SHA", true, 0xf11a2dcf81a5ee14),
];

#[test]
fn placement_input_is_bit_exact() {
    for (name, grayscale_input, want) in GOLDEN {
        let netlist = generate(&presets::by_name(name).unwrap().scaled(0.1));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size_with_aspect(c, i, m, x, 8, 1.3, 1.0).unwrap();
        let config = ExperimentConfig {
            resolution: SIDE,
            grayscale_input,
            ..ExperimentConfig::quick()
        };
        let sweep = SweepSpec {
            base_seed: 7,
            ..SweepSpec::quick()
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for popts in sweep.take(PLACEMENTS) {
            let placement = place(&arch, &netlist, &popts).unwrap();
            let input = placement_input(&arch, &netlist, &placement, &config);
            let three_calls = assemble_input(
                &render_placement(&arch, &netlist, &placement, SIDE),
                &render_connectivity(&arch, &netlist, &placement, SIDE),
                &config,
            );
            assert_eq!(input, three_calls, "{name}: the one call is the three");
            let channels = if grayscale_input { 2 } else { 4 };
            assert_eq!(input.shape(), [1, channels, SIDE, SIDE]);
            for byte in input.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, want, "{name} grayscale={grayscale_input}: {h:#018x}");
    }
}
