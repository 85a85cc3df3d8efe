use crate::color;
use crate::geometry::{Layout, PixelOwner};
use crate::image::{Image, Rgb8};
use pop_arch::{Arch, TileKind};
use pop_netlist::{BlockKind, Netlist};
use pop_place::Placement;
use pop_route::CongestionMap;

/// Renders `img_floor` (Figure 2a): the empty fabric at `side × side`
/// pixels with the Table 1 colour scheme.
pub fn render_floorplan(arch: &Arch, side: usize) -> Image {
    let layout = Layout::new(arch.width(), arch.height(), side);
    let mut img = Image::filled_rgb(side, side, color::WHITE);
    for py in 0..side {
        for px in 0..side {
            let c = match layout.owner(px, py) {
                PixelOwner::Tile { x, y } => match arch.tile_kind(x, y) {
                    TileKind::Corner => color::WHITE,
                    TileKind::Io | TileKind::Clb => color::LIGHTBLUE,
                    TileKind::Memory => color::LIGHTYELLOW,
                    TileKind::Multiplier => color::PINK,
                },
                PixelOwner::Channel(_) | PixelOwner::Junction | PixelOwner::Outside => color::WHITE,
            };
            img.set_rgb8(px, py, c);
        }
    }
    img
}

/// Fills the bottom `fraction` of a tile's block rectangle with `color`
/// (partial fill renders I/O pads whose eight ports are partly used —
/// "the I/O pads may not be fully filled with black pixels").
fn fill_tile_fraction(
    img: &mut Image,
    layout: &Layout,
    x: usize,
    y: usize,
    fraction: f32,
    color: Rgb8,
) {
    let (x0, y0, x1, y1) = layout.tile_rect(x, y);
    let rows = y1 - y0;
    let filled = ((rows as f32 * fraction.clamp(0.0, 1.0)).round() as usize).min(rows);
    // Image y grows downward; "bottom of the tile" is the last rows.
    for py in (y1 - filled)..y1 {
        for px in x0..x1 {
            img.set_rgb8(px, py, color);
        }
    }
}

/// Renders `img_place` (Figure 2b): the floorplan with used CLB and I/O
/// spots blackened (partially for I/O pads, per port usage) and occupied
/// memory / multiplier sites darkened.
pub fn render_placement(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    side: usize,
) -> Image {
    let layout = Layout::new(arch.width(), arch.height(), side);
    let mut img = render_floorplan(arch, side);

    // Count used I/O ports per pad tile.
    let mut io_used = std::collections::HashMap::<(usize, usize), usize>::new();
    for block in netlist.blocks() {
        let site = arch.site(placement.site_of(block.id));
        match block.kind {
            BlockKind::Input | BlockKind::Output => {
                *io_used.entry((site.x, site.y)).or_insert(0) += 1;
            }
            BlockKind::Clb { .. } => {
                fill_tile_fraction(&mut img, &layout, site.x, site.y, 1.0, color::BLACK);
            }
            BlockKind::Memory => {
                for ty in site.y..site.y + site.height {
                    fill_tile_fraction(
                        &mut img,
                        &layout,
                        site.x,
                        ty,
                        1.0,
                        color::darken(color::LIGHTYELLOW, color::OCCUPIED_DARKEN),
                    );
                }
            }
            BlockKind::Multiplier => {
                for ty in site.y..site.y + site.height {
                    fill_tile_fraction(
                        &mut img,
                        &layout,
                        site.x,
                        ty,
                        1.0,
                        color::darken(color::PINK, color::OCCUPIED_DARKEN),
                    );
                }
            }
        }
    }
    let cap = arch.io_capacity() as f32;
    for ((x, y), used) in io_used {
        fill_tile_fraction(&mut img, &layout, x, y, used as f32 / cap, color::BLACK);
    }
    img
}

/// Renders `img_connect` (Figure 4): a one-channel image accumulating every
/// placed net edge (driver → each sink) drawn as a line between block
/// centres. Intensity saturates as `1 − exp(−hits/4)`, keeping dense
/// regions distinguishable without a data-dependent normaliser.
pub fn render_connectivity(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    side: usize,
) -> Image {
    let layout = Layout::new(arch.width(), arch.height(), side);
    // Many edges join the same two blocks, and a line's pixel walk depends
    // only on its ordered endpoints (the reverse is a different float
    // walk): draw each distinct (driver, sink) pair once, weighted by how
    // often it occurs. Pairs are packed driver-high into one `u64` so the
    // sort compares a single word.
    let mut edges: Vec<u64> = netlist
        .nets()
        .iter()
        .flat_map(|net| {
            let driver = u64::from(net.driver.0) << 32;
            net.sinks.iter().map(move |sink| driver | u64::from(sink.0))
        })
        .collect();
    edges.sort_unstable();
    let px: Vec<(f32, f32)> = netlist
        .blocks()
        .iter()
        .map(|block| {
            let (x, y) = placement.position(arch, block.id);
            layout.point_to_px(x, y)
        })
        .collect();
    let mut hits = vec![0u32; side * side];
    for run in edges.chunk_by(|a, b| a == b) {
        let (driver, sink) = ((run[0] >> 32) as usize, run[0] as u32 as usize);
        draw_line(&mut hits, side, px[driver], px[sink], run.len() as u32);
    }
    let mut img = Image::zeros(side, side, 1);
    for (i, &h) in hits.iter().enumerate() {
        if h > 0 {
            img.data_mut()[i] = 1.0 - (-(h as f32) / 4.0).exp();
        }
    }
    img
}

/// DDA line rasterisation adding `weight` to the hit count of every pixel
/// on the line (each pixel at most once per line).
fn draw_line(hits: &mut [u32], side: usize, a: (f32, f32), b: (f32, f32), weight: u32) {
    let steps = ((b.0 - a.0).abs().max((b.1 - a.1).abs()).ceil() as usize).max(1);
    let mut last = usize::MAX;
    for t in 0..=steps {
        let f = t as f32 / steps as f32;
        let x = a.0 + (b.0 - a.0) * f;
        let y = a.1 + (b.1 - a.1) * f;
        let xi = (x.floor() as isize).clamp(0, side as isize - 1) as usize;
        let yi = (y.floor() as isize).clamp(0, side as isize - 1) as usize;
        let idx = yi * side + xi;
        if idx != last {
            hits[idx] += weight;
            last = idx;
        }
    }
}

/// Renders `img_route` (Figure 2d): the placement image with every routing
/// channel pixel colourised by its utilisation on the yellow→purple bar.
/// Utilisation above 1 (an unroutable placement) saturates at purple.
pub fn render_congestion(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    congestion: &CongestionMap,
    side: usize,
) -> Image {
    let layout = Layout::new(arch.width(), arch.height(), side);
    let mut img = render_placement(arch, netlist, placement, side);
    for py in 0..side {
        for px in 0..side {
            if let PixelOwner::Channel(ch) = layout.owner(px, py) {
                let u = congestion.utilization(arch, ch);
                img.set_rgb8(px, py, color::utilization_color(u));
            }
        }
    }
    img
}

/// Renders the routing result (Figure 2c): the placement image with every
/// routed net drawn through the channel segments its tree occupies, each
/// net in a deterministic colour from a rotating palette — the colourful
/// wire plot VPR's interactive mode shows after routing.
pub fn render_routing(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    routes: &[pop_route::RoutedNet],
    side: usize,
) -> Image {
    let layout = Layout::new(arch.width(), arch.height(), side);
    let mut img = render_placement(arch, netlist, placement, side);
    // Dense channel index -> owning net colour (later nets overwrite).
    let mut wire_color: Vec<Option<Rgb8>> = vec![None; arch.channel_count()];
    for routed in routes {
        let c = net_palette_color(routed.net.index());
        for &node in &routed.nodes {
            wire_color[node as usize] = Some(c);
        }
    }
    for py in 0..side {
        for px in 0..side {
            if let PixelOwner::Channel(ch) = layout.owner(px, py) {
                if let Some(c) = wire_color[arch.channel_index(ch)] {
                    img.set_rgb8(px, py, c);
                }
            }
        }
    }
    img
}

/// A deterministic, well-spread wire colour for net `i` (golden-angle hue
/// rotation at full saturation, avoiding the Table 1 palette hues).
fn net_palette_color(i: usize) -> Rgb8 {
    let hue = (i as f32 * 137.508) % 360.0;
    let h = hue / 60.0;
    let x = 1.0 - (h % 2.0 - 1.0).abs();
    let (r, g, b) = match h as u32 {
        0 => (1.0, x, 0.0),
        1 => (x, 1.0, 0.0),
        2 => (0.0, 1.0, x),
        3 => (0.0, x, 1.0),
        4 => (x, 0.0, 1.0),
        _ => (1.0, 0.0, x),
    };
    // Keep wires dark enough to contrast with the white channels.
    let scale = 0.75;
    Rgb8::new(
        (r * scale * 255.0) as u8,
        (g * scale * 255.0) as u8,
        (b * scale * 255.0) as u8,
    )
}

/// Converts a 3-channel image to 1-channel grayscale with the BT.601
/// weights of `tf.image.rgb_to_grayscale` — the §5.2 ablation input.
///
/// # Panics
///
/// Panics if `img` does not have exactly 3 channels.
pub fn grayscale(img: &Image) -> Image {
    assert_eq!(img.channels(), 3, "grayscale expects an RGB image");
    let (w, h) = (img.width(), img.height());
    let mut out = Image::zeros(w, h, 1);
    for y in 0..h {
        for x in 0..w {
            let v = color::GRAY_WEIGHTS[0] * img.get(x, y, 0)
                + color::GRAY_WEIGHTS[1] * img.get(x, y, 1)
                + color::GRAY_WEIGHTS[2] * img.get(x, y, 2);
            out.set(x, y, 0, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_netlist::{generate, presets};
    use pop_place::{place, PlaceOptions};
    use pop_route::{route, RouteOptions};

    fn setup() -> (Arch, Netlist, Placement) {
        let netlist = generate(&presets::by_name("diffeq2").unwrap().scaled(0.02));
        let (c, i, m, x) = netlist.site_demand();
        let arch = Arch::auto_size(c, i, m, x, 16, 1.3).unwrap();
        let placement = place(&arch, &netlist, &PlaceOptions::default()).unwrap();
        (arch, netlist, placement)
    }

    fn count_color(img: &Image, c: Rgb8) -> usize {
        let mut n = 0;
        for y in 0..img.height() {
            for x in 0..img.width() {
                if img.pixel_rgb8(x, y) == c {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn floorplan_uses_table1_palette() {
        let (arch, _, _) = setup();
        let img = render_floorplan(&arch, 96);
        assert!(count_color(&img, color::WHITE) > 0, "channels/background");
        assert!(count_color(&img, color::LIGHTBLUE) > 0, "clb spots");
        // The auto-sized arch for diffeq2 has multiplier columns.
        if arch.multiplier_capacity() > 0 {
            assert!(count_color(&img, color::PINK) > 0, "multiplier column");
        }
        assert_eq!(count_color(&img, color::BLACK), 0, "nothing used yet");
    }

    #[test]
    fn placement_blackens_used_spots() {
        let (arch, netlist, placement) = setup();
        let img = render_placement(&arch, &netlist, &placement, 96);
        let black = count_color(&img, color::BLACK);
        assert!(black > 0, "used spots must be black");
        // More CLBs are free than used at 30% headroom… the floorplan keeps
        // some lightblue.
        assert!(count_color(&img, color::LIGHTBLUE) > 0);
    }

    #[test]
    fn different_placements_give_different_images() {
        let (arch, netlist, p1) = setup();
        let p2 = place(
            &arch,
            &netlist,
            &PlaceOptions {
                seed: 77,
                ..Default::default()
            },
        )
        .unwrap();
        let a = render_placement(&arch, &netlist, &p1, 64);
        let b = render_placement(&arch, &netlist, &p2, 64);
        assert!(a.mean_abs_diff(&b).unwrap() > 0.0);
    }

    #[test]
    fn connectivity_is_single_channel_and_nonempty() {
        let (arch, netlist, placement) = setup();
        let img = render_connectivity(&arch, &netlist, &placement, 64);
        assert_eq!(img.channels(), 1);
        let nonzero = img.data().iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero > 10, "lines must be drawn");
        assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn congestion_image_encodes_utilisation() {
        let (arch, netlist, placement) = setup();
        let routing = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        let side = 96;
        let img = render_congestion(&arch, &netlist, &placement, routing.congestion(), side);
        // Decode a channel pixel back and compare with the map.
        let layout = Layout::new(arch.width(), arch.height(), side);
        let mut checked = 0;
        for py in 0..side {
            for px in 0..side {
                if let crate::geometry::PixelOwner::Channel(ch) = layout.owner(px, py) {
                    let truth = routing.congestion().utilization(&arch, ch).clamp(0.0, 1.0);
                    let decoded = crate::color::utilization_from_color(img.pixel_rgb8(px, py));
                    assert!(
                        (decoded - truth).abs() < 0.02,
                        "({px},{py}) {ch:?}: {decoded} vs {truth}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn routing_overlay_draws_wires() {
        let (arch, netlist, placement) = setup();
        let routing = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        let side = 96;
        let base = render_placement(&arch, &netlist, &placement, side);
        let img = render_routing(&arch, &netlist, &placement, routing.routes(), side);
        // The overlay must differ from the bare placement (wires drawn)…
        assert!(img.mean_abs_diff(&base).unwrap() > 0.0);
        // …while non-channel pixels are untouched.
        let layout = Layout::new(arch.width(), arch.height(), side);
        for py in 0..side {
            for px in 0..side {
                if !matches!(
                    layout.owner(px, py),
                    crate::geometry::PixelOwner::Channel(_)
                ) {
                    assert_eq!(img.pixel_rgb8(px, py), base.pixel_rgb8(px, py));
                }
            }
        }
    }

    #[test]
    fn net_palette_is_deterministic_and_varied() {
        assert_eq!(net_palette_color(3), net_palette_color(3));
        let distinct: std::collections::HashSet<_> = (0..20).map(net_palette_color).collect();
        assert!(distinct.len() >= 18, "palette should spread colours");
    }

    #[test]
    fn grayscale_has_one_channel_in_range() {
        let (arch, _, _) = setup();
        let img = render_floorplan(&arch, 48);
        let gray = grayscale(&img);
        assert_eq!(gray.channels(), 1);
        assert!(gray.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // White stays bright, blue-ish dims.
        assert!(gray.get(0, 0, 0) > 0.9);
    }

    #[test]
    fn line_drawing_marks_endpoints() {
        let mut hits = vec![0u32; 64];
        draw_line(&mut hits, 8, (0.5, 0.5), (6.5, 6.5), 1);
        assert!(hits[0] > 0);
        assert!(hits[6 * 8 + 6] > 0);
        let total: u32 = hits.iter().sum();
        assert!(total >= 7);
    }
}
