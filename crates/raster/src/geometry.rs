use pop_arch::ChannelId;
use std::ops::Range;

/// What a pixel of the rendered image depicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PixelOwner {
    /// Inside the block of tile `(x, y)`.
    Tile {
        /// Tile x coordinate.
        x: usize,
        /// Tile y coordinate.
        y: usize,
    },
    /// Inside a routing channel strip.
    Channel(ChannelId),
    /// A switchbox corner where two channel gutters cross.
    Junction,
    /// Outside the fabric (beyond the last tile's far edges).
    Outside,
}

/// Maps the `grid_w × grid_h` tile grid onto a `side × side` pixel image.
///
/// Each tile owns the span `[line(i), line(i+1))` along each axis; the
/// trailing `gutter` pixels of a span render the routing channel that
/// separates the tile from its successor. Image rows run top-to-bottom
/// while grid rows run bottom-to-top, so `y` is flipped.
///
/// The §4.2 resolution rule ("dimension of each placement element ≥ 2×2")
/// holds whenever `side ≥ 3 · max(grid_w, grid_h)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    grid_w: usize,
    grid_h: usize,
    side: usize,
    lines_x: Vec<usize>,
    lines_y: Vec<usize>,
    gutter: usize,
    // `locate` of every pixel column / image row, filled once by `new`:
    // `owner` runs per pixel of every rendered or scored image.
    cols: Vec<(usize, bool)>,
    rows: Vec<(usize, bool)>,
}

impl Layout {
    /// Creates the layout for a grid and square image side.
    ///
    /// # Panics
    ///
    /// Panics when `side` is smaller than the grid (at least one pixel per
    /// tile is required).
    pub fn new(grid_w: usize, grid_h: usize, side: usize) -> Self {
        assert!(
            side >= grid_w && side >= grid_h,
            "side {side} too small for {grid_w}x{grid_h} grid"
        );
        let lines = |n: usize| -> Vec<usize> { (0..=n).map(|i| i * side / n).collect() };
        let lines_x = lines(grid_w);
        let lines_y = lines(grid_h);
        // Gutter: about a third of the smallest span, at least one pixel
        // (if a span is a single pixel, the tile wins and channels vanish —
        // callers should use a larger side).
        let min_span = (1..=grid_w.max(grid_h))
            .map(|i| {
                let lx = if i <= grid_w {
                    lines_x[i] - lines_x[i - 1]
                } else {
                    usize::MAX
                };
                let ly = if i <= grid_h {
                    lines_y[i] - lines_y[i - 1]
                } else {
                    usize::MAX
                };
                lx.min(ly)
            })
            .min()
            .unwrap_or(1);
        let gutter = if min_span >= 3 {
            min_span / 3
        } else {
            usize::from(min_span >= 2)
        };
        let table = |lines: &[usize]| (0..side).map(|p| Self::locate(lines, gutter, p)).collect();
        Layout {
            grid_w,
            grid_h,
            side,
            cols: table(&lines_x),
            rows: table(&lines_y),
            lines_x,
            lines_y,
            gutter,
        }
    }

    /// Image side in pixels.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Channel gutter thickness in pixels (0 when the resolution is too low
    /// to draw channels).
    pub fn gutter(&self) -> usize {
        self.gutter
    }

    /// Locates a pixel along one axis: returns `(cell_index, in_gutter)`.
    fn locate(lines: &[usize], gutter: usize, p: usize) -> (usize, bool) {
        // Binary search for the span containing p.
        let mut lo = 0usize;
        let mut hi = lines.len() - 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if lines[mid] <= p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let span_end = lines[lo + 1];
        let in_gutter = gutter > 0 && p >= span_end.saturating_sub(gutter);
        (lo, in_gutter)
    }

    /// Classifies an image pixel. `py` is an image row (0 at the top).
    pub fn owner(&self, px: usize, py: usize) -> PixelOwner {
        if px >= self.side || py >= self.side {
            return PixelOwner::Outside;
        }
        self.classify(self.cols[px], self.rows[py])
    }

    /// Calls `paint(owner, xs, ys)` for every pixel rectangle whose columns
    /// `locate` alike and whose rows do — a tile's block, a channel strip,
    /// a junction: what [`Layout::owner`] answers per pixel, per rectangle.
    pub(crate) fn for_each_rect(
        &self,
        mut paint: impl FnMut(PixelOwner, Range<usize>, Range<usize>),
    ) {
        let mut y = 0;
        for rows in self.rows.chunk_by(|a, b| a == b) {
            let mut x = 0;
            for cols in self.cols.chunk_by(|a, b| a == b) {
                let owner = self.classify(cols[0], rows[0]);
                paint(owner, x..x + cols.len(), y..y + rows.len());
                x += cols.len();
            }
            y += rows.len();
        }
    }

    /// The owner of a pixel whose column and image row `locate` to
    /// `(tx, gx)` and `(ty_img, gy_img)`.
    fn classify(&self, (tx, gx): (usize, bool), (ty_img, gy_img): (usize, bool)) -> PixelOwner {
        // Flip: image row 0 is the top of the die = highest grid y.
        let ty = self.grid_h - 1 - ty_img;
        // A y-gutter at the *end* of an image span is visually *below* the
        // tile in image space, which is grid-south: the channel above tile
        // (ty - 1), i.e. chanx(x, ty - 1).
        match (gx, gy_img) {
            (false, false) => PixelOwner::Tile { x: tx, y: ty },
            (true, false) => {
                // Vertical channel right of tile tx: chany(tx, ty).
                if tx <= self.grid_w.saturating_sub(2)
                    && ty >= 1
                    && ty <= self.grid_h.saturating_sub(2)
                {
                    PixelOwner::Channel(ChannelId::Vertical { x: tx, y: ty })
                } else {
                    PixelOwner::Outside
                }
            }
            (false, true) => {
                // Horizontal channel below tile ty in grid space.
                if ty >= 1
                    && tx >= 1
                    && tx <= self.grid_w.saturating_sub(2)
                    && ty - 1 <= self.grid_h.saturating_sub(2)
                {
                    PixelOwner::Channel(ChannelId::Horizontal { x: tx, y: ty - 1 })
                } else {
                    PixelOwner::Outside
                }
            }
            (true, true) => PixelOwner::Junction,
        }
    }

    /// Pixel rectangle `(x0, y0, x1, y1)` (exclusive ends) of the *block*
    /// part of tile `(x, y)` — the span minus its channel gutters.
    pub fn tile_rect(&self, x: usize, y: usize) -> (usize, usize, usize, usize) {
        let x0 = self.lines_x[x];
        let x1 = (self.lines_x[x + 1] - self.gutter.min(self.lines_x[x + 1] - x0 - 1)).max(x0 + 1);
        let iy = self.grid_h - 1 - y;
        let y0 = self.lines_y[iy];
        let y1 =
            (self.lines_y[iy + 1] - self.gutter.min(self.lines_y[iy + 1] - y0 - 1)).max(y0 + 1);
        (x0, y0, x1, y1)
    }

    /// Converts continuous grid coordinates (tile units, y up) to continuous
    /// pixel coordinates (y down) — used to draw connectivity lines.
    pub fn point_to_px(&self, fx: f32, fy: f32) -> (f32, f32) {
        let sx = self.side as f32 / self.grid_w as f32;
        let sy = self.side as f32 / self.grid_h as f32;
        (fx * sx, (self.grid_h as f32 - fy) * sy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pixel_is_classified() {
        let l = Layout::new(6, 6, 48);
        for py in 0..48 {
            for px in 0..48 {
                // Just must not panic; ownership must be stable.
                let a = l.owner(px, py);
                let b = l.owner(px, py);
                assert_eq!(a, b);
            }
        }
    }

    /// The tables `new` fills answer exactly what a search per pixel
    /// answers, for every pixel and one past each edge — gutter-0 layouts
    /// (`side` within a pixel of the grid) included.
    #[test]
    fn table_owner_equals_search_owner() {
        for (gw, gh) in [(1, 1), (6, 6), (8, 8), (7, 13)] {
            let grid = gw.max(gh);
            for side in [grid, grid + 1, 48, 64, 257] {
                let l = Layout::new(gw, gh, side);
                for py in 0..=side {
                    for px in 0..=side {
                        let search = if px >= side || py >= side {
                            PixelOwner::Outside
                        } else {
                            l.classify(
                                Layout::locate(&l.lines_x, l.gutter, px),
                                Layout::locate(&l.lines_y, l.gutter, py),
                            )
                        };
                        assert_eq!(l.owner(px, py), search, "{gw}x{gh} side {side} ({px},{py})");
                    }
                }
            }
        }
        assert_eq!(Layout::new(6, 6, 6).gutter(), 0);
        assert_eq!(Layout::new(7, 13, 14).gutter(), 0);
    }

    #[test]
    fn tiles_and_channels_both_present() {
        let l = Layout::new(6, 6, 48);
        let mut tiles = 0;
        let mut channels = 0;
        let mut junctions = 0;
        for py in 0..48 {
            for px in 0..48 {
                match l.owner(px, py) {
                    PixelOwner::Tile { .. } => tiles += 1,
                    PixelOwner::Channel(_) => channels += 1,
                    PixelOwner::Junction => junctions += 1,
                    PixelOwner::Outside => {}
                }
            }
        }
        assert!(tiles > channels, "tiles should dominate");
        assert!(channels > 0, "channels must be drawn");
        assert!(junctions > 0);
    }

    #[test]
    fn tile_rect_contains_only_that_tile() {
        let l = Layout::new(5, 5, 40);
        for ty in 0..5 {
            for tx in 0..5 {
                let (x0, y0, x1, y1) = l.tile_rect(tx, ty);
                assert!(x0 < x1 && y0 < y1);
                for py in y0..y1 {
                    for px in x0..x1 {
                        assert_eq!(
                            l.owner(px, py),
                            PixelOwner::Tile { x: tx, y: ty },
                            "pixel ({px},{py}) of rect for tile ({tx},{ty})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn channel_coordinates_are_valid_for_arch() {
        use pop_arch::Arch;
        let arch = Arch::builder().interior(6, 6).build().unwrap();
        let l = Layout::new(arch.width(), arch.height(), 64);
        for py in 0..64 {
            for px in 0..64 {
                if let PixelOwner::Channel(ch) = l.owner(px, py) {
                    // channel_index must not panic / go out of bounds.
                    let idx = arch.channel_index(ch);
                    assert!(idx < arch.channel_count(), "{ch:?}");
                }
            }
        }
    }

    #[test]
    fn y_axis_is_flipped() {
        let l = Layout::new(4, 4, 32);
        // Top-left image pixel belongs to the highest grid row.
        match l.owner(0, 0) {
            PixelOwner::Tile { x, y } => {
                assert_eq!(x, 0);
                assert_eq!(y, 3);
            }
            other => panic!("expected tile, got {other:?}"),
        }
        let (px, py) = l.point_to_px(0.0, 4.0);
        assert_eq!((px, py), (0.0, 0.0));
        let (_, py_bottom) = l.point_to_px(0.0, 0.0);
        assert_eq!(py_bottom, 32.0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn side_smaller_than_grid_panics() {
        let _ = Layout::new(10, 10, 8);
    }
}
