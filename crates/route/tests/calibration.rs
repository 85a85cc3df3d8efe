//! Pins the channel widths fabric calibration lands on: `min_channel_width`
//! of every preset's default probe placement, at the scales tests, benches,
//! the benchmark and the committed artefacts use. Routability is not
//! monotone in width, so the probe order is part of the answer; these are
//! the values a store fingerprinted with the current
//! `CACHE_FORMAT_VERSION` was calibrated to.

use pop_arch::Arch;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};
use pop_route::{min_channel_width, RouteOptions};

const DESIGNS: [&str; 8] = [
    "diffeq1",
    "diffeq2",
    "raygentop",
    "SHA",
    "OR1200",
    "ode",
    "dcsg",
    "bfly",
];

/// Checks `widths[i]` for `DESIGNS[i]` at `scale` (a prefix of the designs
/// when `widths` is shorter).
fn assert_widths(scale: f64, widths: &[usize]) {
    for (name, &expected) in DESIGNS.iter().zip(widths) {
        let netlist = generate(&presets::by_name(name).unwrap().scaled(scale));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size_with_aspect(c, i, m, x, 8, 1.3, 1.0).unwrap();
        let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
        let (width, result) =
            min_channel_width(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        assert!(result.success, "{name} x{scale}");
        assert_eq!(width, expected, "{name} x{scale}");
    }
}

#[test]
fn widths_at_scale_0_015() {
    assert_widths(0.015, &[9, 6, 13, 33, 29, 39, 60, 59]);
}

#[test]
fn widths_at_scale_0_1() {
    assert_widths(0.1, &[31, 26, 46, 94]);
}

#[test]
#[ignore = "seconds in release, minutes in debug: cargo test --release -- --ignored"]
fn widths_at_scale_0_02() {
    assert_widths(0.02, &[9, 9, 14, 44, 35, 49, 67, 67]);
}

#[test]
#[ignore = "seconds in release, minutes in debug: cargo test --release -- --ignored"]
fn widths_at_scale_0_05() {
    assert_widths(0.05, &[20, 16, 29, 68, 61, 73, 112, 114]);
}
