//! Golden feature images: FNV-1a over the `f32` bit patterns of
//! `render_connectivity` and `render_placement`, captured at the commit
//! before `render_connectivity` started drawing each distinct
//! (driver block, sink block) line once with its multiplicity. Hit counts
//! are integers, so the images must stay bit-exact.

use pop_arch::Arch;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};
use pop_raster::{render_connectivity, render_placement, Image};

/// `(design, side, connectivity, placement)`.
type Golden = (&'static str, usize, u64, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 6] = [
    ("diffeq1", 32, 0x52ed7cff9793bc55, 0xbe8e47bdadb203ca),
    ("diffeq1", 64, 0x0671ad9e092909a8, 0xf874a66a831fe645),
    ("raygentop", 32, 0x2c120cbf36f22460, 0x43038f0b5ea74fcc),
    ("raygentop", 64, 0xdb20471c95e37f14, 0x59b79cb5942764f4),
    ("SHA", 32, 0x96f53ba766cc7e28, 0x6933d2a728b57236),
    ("SHA", 64, 0x34c8ceea3f7898ef, 0xd86dd894083215f5),
];

fn fnv(img: &Image) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in img.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn feature_images_are_bit_exact() {
    for name in ["diffeq1", "raygentop", "SHA"] {
        let netlist = generate(&presets::by_name(name).unwrap().scaled(0.1));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size_with_aspect(c, i, m, x, 8, 1.3, 1.0).unwrap();
        let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
        for side in [32, 64] {
            let got: Golden = (
                name,
                side,
                fnv(&render_connectivity(&arch, &netlist, &placement, side)),
                fnv(&render_placement(&arch, &netlist, &placement, side)),
            );
            assert!(GOLDEN.contains(&got), "{got:x?}");
        }
    }
}
