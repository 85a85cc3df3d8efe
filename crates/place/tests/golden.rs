//! Golden placements: FNV-1a over the block → site assignment of `place()`
//! under both cost functions, captured at the commit before the
//! region-parallel annealer and `PlaceOptions::strategy` were deleted. The
//! raster golden only reaches the default options; the corpus sweep uses
//! `PathTiming` too.

use pop_arch::Arch;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceAlgorithm, PlaceOptions};

/// `(design, algorithm, assignment hash)`.
type Golden = (&'static str, PlaceAlgorithm, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 6] = [
    ("diffeq1", PlaceAlgorithm::BoundingBox, 0x41a951111be6068c),
    ("diffeq1", PlaceAlgorithm::PathTiming, 0x9dc01beaea5860e8),
    ("raygentop", PlaceAlgorithm::BoundingBox, 0x8f42cbd2d77f170b),
    ("raygentop", PlaceAlgorithm::PathTiming, 0xd247b1217b7bbef7),
    ("SHA", PlaceAlgorithm::BoundingBox, 0xb9b41bae09057489),
    ("SHA", PlaceAlgorithm::PathTiming, 0xf0b9e3d10c5a22f6),
];

#[test]
fn placements_are_bit_exact() {
    for name in ["diffeq1", "raygentop", "SHA"] {
        let netlist = generate(&presets::by_name(name).unwrap().scaled(0.1));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 12, 1.3).unwrap();
        for algorithm in [PlaceAlgorithm::BoundingBox, PlaceAlgorithm::PathTiming] {
            let options = PlaceOptions {
                algorithm,
                ..PlaceOptions::default()
            };
            let placement = place(&arch, &netlist, &options).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for block in netlist.blocks() {
                for byte in placement.site_of(block.id).0.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            let got: Golden = (name, algorithm, h);
            assert!(GOLDEN.contains(&got), "{got:x?}");
        }
    }
}
