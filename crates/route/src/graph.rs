use pop_arch::{Arch, ChannelId};

/// Routing-resource graph at channel-segment granularity.
///
/// One node per channel segment of the fabric (dense indices from
/// [`Arch::channel_index`]). Two segments are adjacent iff they meet at a
/// switchbox corner; a tile's pins reach the (up to four) segments along its
/// edges. Capacity is uniform: the architecture's channel width.
///
/// Routing at segment granularity (rather than individual wires) is exactly
/// the resolution of the paper's ground truth — the heat map colours each
/// channel by `occupancy / capacity`, not by which wire a net took.
#[derive(Debug, Clone)]
pub struct RouteGraph {
    width: usize,
    node_count: usize,
    /// CSR adjacency.
    offsets: Vec<u32>,
    edges: Vec<u32>,
    /// Midpoint of each node in tile coordinates (for A* heuristics).
    positions: Vec<(f32, f32)>,
    /// Reverse map node index → channel id.
    channels: Vec<ChannelId>,
    /// CSR pin access: tile `y * width + x` reaches
    /// `access[access_offsets[t]..access_offsets[t + 1]]`.
    access_offsets: Vec<u32>,
    access: Vec<u32>,
}

impl RouteGraph {
    /// Builds the graph for an architecture.
    pub fn new(arch: &Arch) -> Self {
        let width = arch.width();
        let height = arch.height();
        let node_count = arch.channel_count();

        let mut channels = vec![ChannelId::Horizontal { x: 1, y: 0 }; node_count];
        let mut positions = vec![(0.0, 0.0); node_count];
        for ch in arch.channels() {
            let i = arch.channel_index(ch);
            channels[i] = ch;
            positions[i] = ch.midpoint();
        }

        // Collect switchbox incidences, then connect all incident pairs.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); node_count];
        for i in 0..width - 1 {
            for j in 0..height - 1 {
                let incident: Vec<u32> = switchbox(arch, i, j).collect();
                for a in 0..incident.len() {
                    for b in a + 1..incident.len() {
                        adj[incident[a] as usize].push(incident[b]);
                        adj[incident[b] as usize].push(incident[a]);
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }

        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut edges = Vec::new();
        offsets.push(0u32);
        for list in &adj {
            edges.extend_from_slice(list);
            offsets.push(edges.len() as u32);
        }

        let mut access_offsets = Vec::with_capacity(width * height + 1);
        let mut access = Vec::new();
        access_offsets.push(0u32);
        for y in 0..height {
            for x in 0..width {
                push_tile_access(arch, x, y, &mut access);
                access_offsets.push(access.len() as u32);
            }
        }

        RouteGraph {
            width,
            node_count,
            offsets,
            edges,
            positions,
            channels,
            access_offsets,
            access,
        }
    }

    /// Number of channel-segment nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Segments adjacent to `node` through switchboxes.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Midpoint of `node` in tile coordinates.
    #[inline]
    pub fn position(&self, node: usize) -> (f32, f32) {
        self.positions[node]
    }

    /// The channel id of `node`.
    #[inline]
    pub fn channel(&self, node: usize) -> ChannelId {
        self.channels[node]
    }

    /// Channel segments reachable from the pins of tile `(x, y)`, ascending
    /// on the perimeter.
    ///
    /// Interior tiles reach the segments along their four edges. Perimeter
    /// (I/O pad) tiles reach every segment incident to their corner
    /// switchboxes: pads have dedicated access wires in real fabrics, and
    /// with only one geometric edge facing the die they would otherwise
    /// funnel all their nets through a single segment.
    #[inline]
    pub fn tile_access(&self, x: usize, y: usize) -> &[u32] {
        let tile = y * self.width + x;
        let lo = self.access_offsets[tile] as usize;
        let hi = self.access_offsets[tile + 1] as usize;
        &self.access[lo..hi]
    }
}

/// Node of horizontal segment `(x, y)`, if `arch` has it.
fn chanx(arch: &Arch, x: usize, y: usize) -> Option<u32> {
    (x >= 1 && x <= arch.width() - 2 && y <= arch.height() - 2)
        .then(|| arch.channel_index(ChannelId::Horizontal { x, y }) as u32)
}

/// [`chanx`] for vertical segment `(x, y)`.
fn chany(arch: &Arch, x: usize, y: usize) -> Option<u32> {
    (x <= arch.width() - 2 && y >= 1 && y <= arch.height() - 2)
        .then(|| arch.channel_index(ChannelId::Vertical { x, y }) as u32)
}

/// Segments meeting at switchbox `S(i, j)`: the corner where the horizontal
/// channel of row `j` meets the vertical channel of column `i`.
fn switchbox(arch: &Arch, i: usize, j: usize) -> impl Iterator<Item = u32> {
    [
        chanx(arch, i, j),
        chanx(arch, i + 1, j),
        chany(arch, i, j),
        chany(arch, i, j + 1),
    ]
    .into_iter()
    .flatten()
}

/// Appends tile `(x, y)`'s access segments (see [`RouteGraph::tile_access`])
/// to `out`.
fn push_tile_access(arch: &Arch, x: usize, y: usize, out: &mut Vec<u32>) {
    let (w, h) = (arch.width(), arch.height());
    let on_edge = x == 0 || x == w - 1 || y == 0 || y == h - 1;
    if !on_edge {
        // Top edge: chanx(x, y); bottom edge: chanx(x, y-1); right edge:
        // chany(x, y); left edge: chany(x-1, y).
        let edges = [
            chanx(arch, x, y),
            chanx(arch, x, y - 1),
            chany(arch, x, y),
            chany(arch, x - 1, y),
        ];
        out.extend(edges.into_iter().flatten());
        return;
    }
    // Perimeter pad: union of segments incident to the tile's corner
    // switchboxes S(x-1, y-1), S(x, y-1), S(x-1, y), S(x, y).
    let start = out.len();
    for ci in [x.wrapping_sub(1), x] {
        for cj in [y.wrapping_sub(1), y] {
            if ci >= w - 1 || cj >= h - 1 {
                continue;
            }
            out.extend(switchbox(arch, ci, cj));
        }
    }
    let mut pad = out.split_off(start);
    pad.sort_unstable();
    pad.dedup();
    out.append(&mut pad);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> (Arch, RouteGraph) {
        let arch = Arch::builder().interior(8, 8).build().unwrap();
        let g = RouteGraph::new(&arch);
        (arch, g)
    }

    #[test]
    fn node_count_matches_arch() {
        let (arch, g) = graph();
        assert_eq!(g.node_count(), arch.channel_count());
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let (_, g) = graph();
        for n in 0..g.node_count() {
            for &m in g.neighbors(n) {
                assert_ne!(m as usize, n, "self-loop at {n}");
                assert!(
                    g.neighbors(m as usize).contains(&(n as u32)),
                    "asymmetric edge {n} -> {m}"
                );
            }
        }
    }

    #[test]
    fn neighbors_are_geometrically_close() {
        let (_, g) = graph();
        for n in 0..g.node_count() {
            let (x0, y0) = g.position(n);
            for &m in g.neighbors(n) {
                let (x1, y1) = g.position(m as usize);
                let d = (x0 - x1).abs() + (y0 - y1).abs();
                assert!(d <= 1.01, "far neighbours {n}({x0},{y0}) {m}({x1},{y1})");
            }
        }
    }

    #[test]
    fn graph_is_connected() {
        let (_, g) = graph();
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &m in g.neighbors(n) {
                if !seen[m as usize] {
                    seen[m as usize] = true;
                    count += 1;
                    stack.push(m as usize);
                }
            }
        }
        assert_eq!(count, g.node_count(), "route graph must be connected");
    }

    #[test]
    fn interior_tile_has_four_access_segments() {
        let (_, g) = graph();
        let acc = g.tile_access(4, 4);
        assert_eq!(acc.len(), 4);
        for &n in acc {
            let (x, y) = g.position(n as usize);
            let d = (x - 4.5).abs() + (y - 4.5).abs();
            assert!(d <= 0.51, "access segment not adjacent: ({x},{y})");
        }
    }

    #[test]
    fn corner_io_tiles_have_access() {
        let (arch, g) = graph();
        // Every perimeter IO tile must reach at least one channel segment.
        for x in 0..arch.width() {
            for y in 0..arch.height() {
                let kind = arch.tile_kind(x, y);
                if kind == pop_arch::TileKind::Io {
                    assert!(
                        !g.tile_access(x, y).is_empty(),
                        "io tile ({x},{y}) has no channel access"
                    );
                }
            }
        }
    }

    #[test]
    fn interior_access_is_the_four_edge_segments_and_pads_ascend() {
        let (arch, g) = graph();
        let (x, y) = (3, 5);
        let expected = [
            ChannelId::Horizontal { x, y },
            ChannelId::Horizontal { x, y: y - 1 },
            ChannelId::Vertical { x, y },
            ChannelId::Vertical { x: x - 1, y },
        ]
        .map(|ch| arch.channel_index(ch) as u32);
        assert_eq!(g.tile_access(x, y), expected);
        // Perimeter pads list their segments ascending, each once.
        let pad = g.tile_access(0, 3);
        assert!(pad.windows(2).all(|w| w[0] < w[1]), "{pad:?}");
    }
}
