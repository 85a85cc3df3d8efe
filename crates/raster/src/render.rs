use crate::color;
use crate::geometry::{Layout, PixelOwner};
use crate::image::{Image, Rgb8};
use pop_arch::{Arch, TileKind};
use pop_netlist::{BlockKind, Netlist};
use pop_place::Placement;
use pop_route::CongestionMap;
use std::sync::LazyLock;

/// Renders `img_floor` (Figure 2a): the empty fabric at `side × side`
/// pixels with the Table 1 colour scheme.
pub fn render_floorplan(arch: &Arch, side: usize) -> Image {
    floorplan(arch, &Layout::new(arch.width(), arch.height(), side))
}

/// `img_floor` on `layout`: white planes — channels, junctions, corners
/// and everything outside the fabric are white — with each coloured
/// tile's block painted over them as one rectangle.
fn floorplan(arch: &Arch, layout: &Layout) -> Image {
    let mut img = Image::filled_rgb(layout.side(), layout.side(), color::WHITE);
    layout.for_each_rect(|owner, xs, ys| {
        if let PixelOwner::Tile { x, y } = owner {
            let c = match arch.tile_kind(x, y) {
                TileKind::Corner => return,
                TileKind::Io | TileKind::Clb => color::LIGHTBLUE,
                TileKind::Memory => color::LIGHTYELLOW,
                TileKind::Multiplier => color::PINK,
            };
            img.fill_rect(xs, ys, c);
        }
    });
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
    img.fill_rect(x0..x1, y1 - filled..y1, color);
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
    let layout = &Layout::new(arch.width(), arch.height(), side);
    let mut img = floorplan(arch, layout);
    // Used I/O ports per pad tile.
    let mut io_used = vec![0u32; arch.width() * arch.height()];
    for block in netlist.blocks() {
        let site = arch.site(placement.site_of(block.id));
        let occupied = match block.kind {
            BlockKind::Input | BlockKind::Output => {
                io_used[site.y * arch.width() + site.x] += 1;
                continue;
            }
            BlockKind::Clb { .. } => color::BLACK,
            BlockKind::Memory => color::darken(color::LIGHTYELLOW, color::OCCUPIED_DARKEN),
            BlockKind::Multiplier => color::darken(color::PINK, color::OCCUPIED_DARKEN),
        };
        for ty in site.y..site.y + site.height {
            fill_tile_fraction(&mut img, layout, site.x, ty, 1.0, occupied);
        }
    }
    let cap = arch.io_capacity() as f32;
    for (tile, &used) in io_used.iter().enumerate().filter(|(_, &used)| used > 0) {
        let (x, y) = (tile % arch.width(), tile / arch.width());
        fill_tile_fraction(&mut img, layout, x, y, used as f32 / cap, color::BLACK);
    }
    img
}

/// Renders `img_connect` (Figure 4): a one-channel image accumulating every
/// placed net edge (driver → each sink) drawn as a line between block
/// centres. Intensity saturates as `1 − exp(−hits/4)`, keeping dense
/// regions distinguishable without a data-dependent normaliser.
///
/// The image is the same bits as one per-step DDA line per edge with an
/// `exp` per lit pixel, for less work. Each distinct
/// [edge run](Netlist::edge_runs) is drawn once with its multiplicity as
/// the weight: a walk depends only on its ordered endpoints, and hit
/// counts are integers. A line is walked in two phases: the pixel of
/// every step, four lanes at a time, from the DDA's own expressions in
/// its order (`t / steps`, `a + (b − a) · f` — no reciprocal, no fused
/// multiply-add) with the floor taken *after* the clamp into the image
/// (the same integer, and neither a `floorf` call nor a saturating cast);
/// then a scalar pass that skips a step on its predecessor's pixel and
/// adds the weight to the others. The saturation is read from a table of
/// that same `exp` expression; a count beyond the table evaluates it.
///
/// # Panics
///
/// Panics if a block's position is not finite (a line of more than
/// `i32::MAX` steps is a bug in the placement, not a picture).
pub fn render_connectivity(
    arch: &Arch,
    netlist: &Netlist,
    placement: &Placement,
    side: usize,
) -> Image {
    let layout = Layout::new(arch.width(), arch.height(), side);
    let px: Vec<(f32, f32)> = netlist
        .blocks()
        .iter()
        .map(|block| {
            let (x, y) = placement.position(arch, block.id);
            layout.point_to_px(x, y)
        })
        .collect();
    let mut hits = vec![0u32; side * side];
    for &(driver, sink, count) in netlist.edge_runs() {
        draw_line(&mut hits, side, px[driver.index()], px[sink.index()], count);
    }
    Image::from_data(side, side, 1, saturations(&hits))
}

/// Intensity of a pixel that `hits` lines cross: `1 − exp(−hits/4)`.
fn saturation_of(hits: u32) -> f32 {
    1.0 - (-(hits as f32) / 4.0).exp()
}

/// [`saturation_of`] the hit counts pixels commonly reach, built on first
/// use: an `exp` call per lit pixel otherwise.
static SATURATION: LazyLock<[f32; 256]> =
    LazyLock::new(|| std::array::from_fn(|hits| saturation_of(hits as u32)));

/// [`saturation_of`] each count, from the table where it holds the count.
fn saturations(hits: &[u32]) -> Vec<f32> {
    let table = &*SATURATION;
    hits.iter()
        .map(|&h| {
            table
                .get(h as usize)
                .copied()
                .unwrap_or_else(|| saturation_of(h))
        })
        .collect()
}

/// Steps the walk computes per pass over its stack buffer.
const WALK_CHUNK: usize = 64;

/// 2²³: adding it to a `v` in `[0, 2²²]` rounds `v` to an integer held in
/// the sum's mantissa bits (the `f32`s in `[2²³, 2²⁴)` are the integers).
const TWO_23: f32 = 8_388_608.0;

/// `(v.floor() as isize).clamp(0, hi)` for an integral `hi` in `[0, 2²²]`,
/// clamping first: below 0 and above `hi` both orders land on the bound,
/// and `max` drops a NaN for the 0 the saturating cast makes of it. On
/// `[0, 2²²]` the floor is "round to nearest by adding 2²³, minus one if
/// that rounded up" — lane-wise arithmetic, where `f32::floor` is a
/// `floorf` call on baseline x86-64 and the vectoriser refuses the cast.
#[inline]
fn floor_clamped(v: f32, hi: f32) -> u32 {
    let v = v.max(0.0).min(hi);
    let rounded = v + TWO_23;
    (rounded.to_bits() & 0x007f_ffff) - u32::from(rounded - TWO_23 > v)
}

/// DDA line rasterisation adding `weight` to the hit count of every pixel
/// on the line (each pixel at most once per line): per chunk of steps, a
/// loop with no dependence between steps that the compiler vectorises —
/// the `i32` counter converts to the `f32` the DDA's `usize` one did —
/// then the scalar pass ([`render_connectivity`] says why this is exact).
///
/// # Panics
///
/// Panics if the line has more than `i32::MAX` steps, which only
/// non-finite endpoints produce.
fn draw_line(hits: &mut [u32], side: usize, a: (f32, f32), b: (f32, f32), weight: u32) {
    let (dx, dy) = (b.0 - a.0, b.1 - a.1);
    let steps = (dx.abs().max(dy.abs()).ceil() as usize).max(1);
    let steps = i32::try_from(steps).expect("line endpoints are finite pixel coordinates");
    debug_assert!(hits.len() == side * side && side <= 1 << 16);
    let hi = (side - 1) as f32;
    let mut buf = [0u32; WALK_CHUNK];
    let mut last = u32::MAX;
    for base in (0..=steps).step_by(WALK_CHUNK) {
        let n = WALK_CHUNK.min((steps - base) as usize + 1);
        for (k, idx) in buf[..n].iter_mut().enumerate() {
            let f = (base + k as i32) as f32 / steps as f32;
            let x = a.0 + dx * f;
            let y = a.1 + dy * f;
            *idx = floor_clamped(y, hi) * side as u32 + floor_clamped(x, hi);
        }
        for &idx in &buf[..n] {
            if idx != last {
                hits[idx as usize] += weight;
                last = idx;
            }
        }
    }
}

/// Paints the strip of every channel `color_of` has a colour for (by
/// dense channel index) over a placement image: one look-up per strip.
fn paint_channels(img: &mut Image, arch: &Arch, color_of: impl Fn(usize) -> Option<Rgb8>) {
    Layout::new(arch.width(), arch.height(), img.width()).for_each_rect(|owner, xs, ys| {
        if let PixelOwner::Channel(ch) = owner {
            if let Some(c) = color_of(arch.channel_index(ch)) {
                img.fill_rect(xs, ys, c);
            }
        }
    });
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
    let mut img = render_placement(arch, netlist, placement, side);
    let util = congestion.values();
    paint_channels(&mut img, arch, |ch| {
        Some(color::utilization_color(util[ch]))
    });
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
    let mut img = render_placement(arch, netlist, placement, side);
    // Dense channel index -> owning net colour (later nets overwrite).
    let mut wire_color: Vec<Option<Rgb8>> = vec![None; arch.channel_count()];
    for routed in routes {
        let c = net_palette_color(routed.net.index());
        for &node in &routed.nodes {
            wire_color[node as usize] = Some(c);
        }
    }
    paint_channels(&mut img, arch, |ch| wire_color[ch]);
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
    let [wr, wg, wb] = color::GRAY_WEIGHTS;
    let (r, rest) = img.data().split_at(w * h);
    let (g, b) = rest.split_at(w * h);
    let data = r
        .iter()
        .zip(g)
        .zip(b)
        .map(|((&r, &g), &b)| wr * r + wg * g + wb * b)
        .collect();
    Image::from_data(w, h, 1, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_netlist::{generate, presets};
    use pop_place::{place, PlaceOptions};
    use pop_route::{route, RouteOptions};
    use proptest::prelude::*;

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

    /// `render_floorplan` as it was before it painted rectangles: one
    /// `owner` look-up and one `set_rgb8` per pixel.
    fn floorplan_reference(arch: &Arch, side: usize) -> Image {
        let layout = Layout::new(arch.width(), arch.height(), side);
        let mut img = Image::zeros(side, side, 3);
        for py in 0..side {
            for px in 0..side {
                let c = match layout.owner(px, py) {
                    PixelOwner::Tile { x, y } => match arch.tile_kind(x, y) {
                        TileKind::Corner => color::WHITE,
                        TileKind::Io | TileKind::Clb => color::LIGHTBLUE,
                        TileKind::Memory => color::LIGHTYELLOW,
                        TileKind::Multiplier => color::PINK,
                    },
                    _ => color::WHITE,
                };
                img.set_rgb8(px, py, c);
            }
        }
        img
    }

    /// Channel colouring as `render_congestion` and `render_routing` did
    /// it: one `owner` look-up, one colour and one `set_rgb8` per pixel.
    fn paint_channels_reference(
        img: &mut Image,
        arch: &Arch,
        color_of: impl Fn(pop_arch::ChannelId) -> Option<Rgb8>,
    ) {
        let side = img.width();
        let layout = Layout::new(arch.width(), arch.height(), side);
        for py in 0..side {
            for px in 0..side {
                if let PixelOwner::Channel(ch) = layout.owner(px, py) {
                    if let Some(c) = color_of(ch) {
                        img.set_rgb8(px, py, c);
                    }
                }
            }
        }
    }

    #[test]
    fn rectangle_fills_equal_the_per_pixel_renderings() {
        let (arch, netlist, placement) = setup();
        let routing = route(&arch, &netlist, &placement, &RouteOptions::default()).unwrap();
        let congestion = routing.congestion();
        let mut wire = vec![None; arch.channel_count()];
        for routed in routing.routes() {
            for &node in &routed.nodes {
                wire[node as usize] = Some(net_palette_color(routed.net.index()));
            }
        }
        let grid = arch.width().max(arch.height());
        // `grid` and `grid + 1` have no gutter: tiles only.
        for side in [grid, grid + 1, 2 * grid + 1, 64, 97] {
            assert_eq!(
                render_floorplan(&arch, side),
                floorplan_reference(&arch, side),
                "floorplan at {side}"
            );
            let base = render_placement(&arch, &netlist, &placement, side);
            let mut want = base.clone();
            paint_channels_reference(&mut want, &arch, |ch| {
                Some(color::utilization_color(congestion.utilization(&arch, ch)))
            });
            assert_eq!(
                render_congestion(&arch, &netlist, &placement, congestion, side),
                want,
                "congestion at {side}"
            );
            let mut want = base;
            paint_channels_reference(&mut want, &arch, |ch| wire[arch.channel_index(ch)]);
            assert_eq!(
                render_routing(&arch, &netlist, &placement, routing.routes(), side),
                want,
                "routing at {side}"
            );
        }
    }

    #[test]
    fn flat_plane_loops_equal_the_per_pixel_ones() {
        let (arch, netlist, placement) = setup();
        let img = render_placement(&arch, &netlist, &placement, 48);
        let gray = grayscale(&img);
        for y in 0..48 {
            for x in 0..48 {
                let v = color::GRAY_WEIGHTS[0] * img.get(x, y, 0)
                    + color::GRAY_WEIGHTS[1] * img.get(x, y, 1)
                    + color::GRAY_WEIGHTS[2] * img.get(x, y, 2);
                assert_eq!(gray.get(x, y, 0).to_bits(), v.to_bits(), "({x},{y})");
            }
        }
        let mut filled = Image::zeros(5, 3, 3);
        for y in 0..3 {
            for x in 0..5 {
                filled.set_rgb8(x, y, color::PINK);
            }
        }
        assert_eq!(Image::filled_rgb(5, 3, color::PINK), filled);
    }

    /// `draw_line` as it was before it became a two-phase walk — the
    /// per-step DDA, a divide, two `floor`s and two saturating casts per
    /// step: the oracle the walk is compared with, hit map for hit map.
    fn draw_line_reference(
        hits: &mut [u32],
        side: usize,
        a: (f32, f32),
        b: (f32, f32),
        weight: u32,
    ) {
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

    fn assert_same_walk(side: usize, a: (f32, f32), b: (f32, f32), weight: u32) {
        let mut want = vec![0u32; side * side];
        let mut got = want.clone();
        draw_line_reference(&mut want, side, a, b, weight);
        draw_line(&mut got, side, a, b, weight);
        assert!(got == want, "side {side}, {a:?} -> {b:?}, weight {weight}");
    }

    /// One coordinate of an endpoint: inside the image, on a pixel or
    /// image edge, outside it on either side, negative, NaN or infinite.
    fn coordinate(kind: u8, u: f32, side: usize) -> f32 {
        let s = side as f32;
        match kind {
            0 | 1 => u * s,
            2 => (u * s).round(),
            3 => [0.0, -0.0, s - 1.0, s][(u * 4.0) as usize % 4],
            4 => -s + u * 3.0 * s,
            5 => -u * s,
            6 => f32::NAN,
            _ => [f32::INFINITY, f32::NEG_INFINITY][usize::from(u < 0.5)],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn the_walk_hits_the_pixels_the_per_step_dda_hit(
            side in 8usize..=256,
            kinds in (0u8..8, 0u8..8, 0u8..8, 0u8..8),
            us in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
            shape in 0u8..4,
            weight in 1u32..1000,
        ) {
            let a = (coordinate(kinds.0, us.0, side), coordinate(kinds.1, us.1, side));
            let mut b = (coordinate(kinds.2, us.2, side), coordinate(kinds.3, us.3, side));
            // An axis with one infinite end is a line without end (the
            // oracle would walk 2⁶⁴ steps): both ends or neither.
            if a.0.is_infinite() || b.0.is_infinite() {
                b.0 = if a.0.is_infinite() { a.0 } else { us.2 };
            }
            if a.1.is_infinite() || b.1.is_infinite() {
                b.1 = if a.1.is_infinite() { a.1 } else { us.3 };
            }
            let b = match shape {
                0 => a,                                  // equal endpoints
                1 => (a.0 + us.2 - 0.5, a.1 + us.3 - 0.5), // one step
                _ => b,
            };
            assert_same_walk(side, a, b, weight);
        }
    }

    #[test]
    fn the_walk_carries_its_last_pixel_across_chunks() {
        // 257 steps: five passes over the 64-step buffer, and a shallow
        // line whose repeated pixels straddle every chunk boundary.
        for side in [64, 255, 256] {
            let s = side as f32;
            assert_same_walk(side, (0.0, 0.0), (s, s), 2);
            assert_same_walk(side, (s, 0.3), (-1.0, s / 3.0), 1);
            assert_same_walk(side, (0.25, s - 0.5), (s - 0.25, s - 1.5), 7);
            assert_same_walk(side, (3.0, 0.0), (3.4, 2.0 * s), 1);
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_line_without_end_is_refused() {
        draw_line(&mut [0; 64], 8, (1.0, 1.0), (f32::INFINITY, 2.0), 1);
    }

    #[test]
    fn cast_free_floor_is_floor_then_clamp() {
        let reference = |v: f32, hi: f32| (v.floor() as isize).clamp(0, hi as isize) as u32;
        let his = [0.0f32, 7.0, 63.0, 255.0, 4095.0, 4_194_304.0];
        let check = |v: f32| {
            for hi in his {
                assert_eq!(
                    floor_clamped(v, hi),
                    reference(v, hi),
                    "{v:?} ({:#x}), hi {hi}",
                    v.to_bits()
                );
            }
        };
        for i in 0..=4096u32 {
            let v = i as f32;
            check(v.next_down());
            check(v);
            check(v.next_up());
        }
        // Every 4099th `f32` from 0 to 2²² (and a little beyond).
        for bits in (0..=4_194_400.0f32.to_bits()).step_by(4099) {
            check(f32::from_bits(bits));
        }
        for v in [-0.0, -1e-30, -0.5, -1.0, -3.7e9, 1e9, 3.4e38] {
            check(v);
        }
        check(f32::NEG_INFINITY);
        check(f32::INFINITY);
        check(f32::NAN);
        check(-f32::NAN);
    }

    #[test]
    fn the_saturation_table_is_the_expression() {
        for (hits, &v) in SATURATION.iter().enumerate() {
            assert_eq!(v.to_bits(), saturation_of(hits as u32).to_bits(), "{hits}");
        }
        // An unlit pixel is +0.0, as when it was skipped.
        assert_eq!(SATURATION[0].to_bits(), 0);
        // Pixels with more hits than the table holds take the expression.
        let hits = [0, 1, 255, 256, 257, 1000, u32::MAX];
        let last = SATURATION.len() as u32 - 1;
        assert!(hits.contains(&last) && hits.contains(&(last + 1)));
        for (h, v) in hits.into_iter().zip(saturations(&hits)) {
            assert_eq!(v.to_bits(), saturation_of(h).to_bits(), "{h}");
        }
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
