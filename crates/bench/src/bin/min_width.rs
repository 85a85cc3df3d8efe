//! Regenerates the Figure 2 caption statistic — "Routing succeeded with a
//! channel width factor of 34" — for every design: the binary-searched
//! minimum channel width of a default placement, the calibrated width
//! (minimum × margin) the dataset fabric actually uses, and what the search
//! cost: routings probed, how many of them failed, wall time.

use pop_arch::Arch;
use pop_bench::{config_from_env, out_dir};
use pop_core::dataset::calibrated_width;
use pop_netlist::{generate, presets};
use pop_place::{place, PlaceOptions};
use pop_route::{min_channel_width, RouteOptions};
use std::time::Instant;

fn main() {
    let config = config_from_env();
    println!("\nChannel width factors (scale {})", config.design_scale);
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>10} {:>7} {:>7} {:>10}",
        "design", "grid", "min W", "used W", "wirelen", "probes", "failed", "search ms"
    );
    let mut csv = String::from(
        "design,grid,min_width,used_width,wirelength,probes,failed_probes,search_ms\n",
    );
    let counter = |name: &str| pop_obs::global().counter(name).get();
    for spec in presets::all() {
        let scaled = spec.scaled(config.design_scale);
        let netlist = generate(&scaled);
        let (c, i, m, x) = netlist.site_demand();
        // The probe fabric and the search `design_fabric` calibrates with.
        let probe =
            Arch::auto_size_with_aspect(c, i, m, x, 8, config.fabric_slack, config.fabric_aspect)
                .expect("arch");
        let placement = place(&probe, &netlist, &PlaceOptions::default()).expect("placement");
        let (probes, failed) = (
            counter("route.width_probes"),
            counter("route.width_probe_failures"),
        );
        let started = Instant::now();
        let (min_w, result) =
            min_channel_width(&probe, &netlist, &placement, &RouteOptions::default())
                .expect("width search");
        let search_ms = started.elapsed().as_secs_f64() * 1e3;
        let probes = counter("route.width_probes") - probes;
        let failed = counter("route.width_probe_failures") - failed;
        let used_w = calibrated_width(min_w, config.channel_width_margin);
        let grid = format!("{}x{}", probe.width(), probe.height());
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>10} {:>7} {:>7} {:>10.1}",
            spec.name,
            grid,
            min_w,
            used_w,
            result.wirelength(),
            probes,
            failed,
            search_ms
        );
        csv.push_str(&format!(
            "{},{grid},{min_w},{used_w},{},{probes},{failed},{search_ms:.1}\n",
            spec.name,
            result.wirelength()
        ));
    }
    std::fs::write(out_dir().join("min_width.csv"), csv).expect("write csv");
    println!("\n(the paper's diffeq1-class example routes at W=34 full-scale; scaled");
    println!(" instances concentrate traffic, so widths are design- and scale-specific)");
}
