//! Golden routings: `(success, iterations, overused_segments, wirelength,
//! FNV-1a of the occupancy, FNV-1a of the trees)` of `route_on_graph`,
//! captured at the commit before the negotiation loop's heap key, cost
//! cache and route storage were rewritten — at a failing width, the two
//! sides of the routability boundary and a generous width per design. The
//! loop must stay bit-exact: same pops, same trees.

use pop_arch::Arch;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};
use pop_route::{route_on_graph, RouteGraph, RouteOptions};

type Golden = (&'static str, usize, bool, usize, usize, usize, u64, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 12] = [
    ("diffeq1", 15, false, 24, 23, 860, 0xb9982f73a8417131, 0xa7a282d6889fdbce),
    ("diffeq1", 30, false, 24, 9, 1221, 0xa0cbe9104d77e1fc, 0x74d5796b37783459),
    ("diffeq1", 31, true, 12, 0, 1154, 0x3b64b0adb040b6bb, 0xa2911bdb28fbb5b5),
    ("diffeq1", 62, true, 2, 0, 679, 0x0c013a6c5c0a5a0a, 0x33459ab82c093557),
    ("raygentop", 23, false, 24, 83, 3946, 0x12d63ad43baac5cf, 0xd9d32f5ba02851a0),
    ("raygentop", 45, false, 24, 2, 4570, 0x581b3ef2ab9d6955, 0x13c3d8e6488fb94b),
    ("raygentop", 46, true, 13, 0, 4540, 0x8c7dd856236fed07, 0x65916e040626c7ae),
    ("raygentop", 92, true, 2, 0, 3065, 0x509e9e5c92e707d8, 0xa82dffdcf0097032),
    ("SHA", 47, false, 24, 73, 6620, 0x1e481ff910f4a927, 0x2424b5adf36cae96),
    ("SHA", 93, false, 24, 11, 7346, 0x154c44fdb8df2b9d, 0xce418dbe283ac562),
    ("SHA", 94, true, 16, 0, 7394, 0xbfae615a0f748e81, 0x03aa53b08d0ebc6a),
    ("SHA", 188, true, 2, 0, 5708, 0xcb9c46b1753031b1, 0xe73df508cef31793),
];

fn fnv(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.flat_map(u32::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn negotiation_is_bit_exact() {
    for name in ["diffeq1", "raygentop", "SHA"] {
        let netlist = generate(&presets::by_name(name).unwrap().scaled(0.1));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size_with_aspect(c, i, m, x, 8, 1.3, 1.0).unwrap();
        let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
        let graph = RouteGraph::new(&arch);
        for golden in GOLDEN.iter().filter(|g| g.0 == name) {
            let width = golden.1;
            let options = RouteOptions {
                channel_width_override: Some(width),
                ..Default::default()
            };
            let r = route_on_graph(&arch, &graph, &netlist, &placement, &options).unwrap();
            let occupancy = r
                .congestion()
                .values()
                .iter()
                .map(|u| (u * width as f32).round() as u32);
            let trees = r
                .routes()
                .iter()
                .flat_map(|t| std::iter::once(t.nodes.len() as u32).chain(t.nodes.iter().copied()));
            let got: Golden = (
                name,
                width,
                r.success,
                r.iterations,
                r.overused_segments,
                r.wirelength(),
                fnv(occupancy),
                fnv(trees),
            );
            assert_eq!(&got, golden);
        }
    }
}
