use crate::options::PlaceAlgorithm;
use crate::placement::Placement;
use pop_arch::Arch;
use pop_netlist::{Net, Netlist};

/// VPR's `q(n)` crossing-correction factors for net bounding-box wirelength
/// (Cheng, "RISA: accurate and efficient placement routability modeling").
/// Index by `min(terminals, 50)`; terminals ≤ 3 need no correction.
const CROSSING: [f32; 51] = [
    1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991, 1.4493, 1.4974, 1.5455,
    1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015, 2.0379,
    2.0743, 2.1061, 2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271, 2.3583, 2.3895, 2.4187,
    2.4479, 2.4772, 2.5064, 2.5356, 2.5610, 2.5864, 2.6117, 2.6371, 2.6625, 2.6887, 2.7148, 2.7410,
    2.7671, 2.7933,
];

/// Returns `q(n)` for a net with `terminals` terminals.
pub(crate) fn crossing_factor(terminals: usize) -> f32 {
    CROSSING[terminals.min(50)]
}

/// Cost model used by the annealer: per-net weighted bounding-box
/// half-perimeter wirelength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    algorithm: PlaceAlgorithm,
}

impl CostModel {
    /// Creates the cost model for a `place_algorithm` choice.
    pub fn new(algorithm: PlaceAlgorithm) -> Self {
        CostModel { algorithm }
    }

    /// Extra weight applied to a net, distinguishing the two algorithms:
    /// `PathTiming` overweights low-fanout nets (proxy for timing-critical
    /// chains), `BoundingBox` weighs all nets equally.
    #[inline]
    pub fn net_weight(&self, net: &Net) -> f32 {
        match self.algorithm {
            PlaceAlgorithm::BoundingBox => 1.0,
            PlaceAlgorithm::PathTiming => {
                if net.degree() <= 3 {
                    1.6
                } else {
                    0.9
                }
            }
        }
    }

    /// Cost of one net under the current placement.
    #[inline]
    pub fn net_cost(&self, arch: &Arch, netlist: &Netlist, p: &Placement, net: &Net) -> f32 {
        self.net_weight(net) * net_bbox_cost(arch, netlist, p, net)
    }

    /// Total placement cost (sum of net costs).
    pub fn total_cost(&self, arch: &Arch, netlist: &Netlist, p: &Placement) -> f32 {
        netlist
            .nets()
            .iter()
            .map(|n| self.net_cost(arch, netlist, p, n))
            .sum()
    }
}

/// Half-perimeter bounding-box cost of `net` with the `q(n)` correction:
/// `q(n) · (bb_width + bb_height)` in tile units.
pub fn net_bbox_cost(arch: &Arch, _netlist: &Netlist, p: &Placement, net: &Net) -> f32 {
    let mut min_x = f32::MAX;
    let mut max_x = f32::MIN;
    let mut min_y = f32::MAX;
    let mut max_y = f32::MIN;
    for term in net.terminals() {
        let (x, y) = p.position(arch, term);
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    crossing_factor(net.degree()) * ((max_x - min_x) + (max_y - min_y))
}

/// Total uncorrected half-perimeter wirelength of a placement, a quality
/// metric independent of the annealer's weighting (used in tests/benches to
/// compare placements).
pub fn wirelength(arch: &Arch, netlist: &Netlist, p: &Placement) -> f32 {
    netlist
        .nets()
        .iter()
        .map(|net| {
            let mut min_x = f32::MAX;
            let mut max_x = f32::MIN;
            let mut min_y = f32::MAX;
            let mut max_y = f32::MIN;
            for term in net.terminals() {
                let (x, y) = p.position(arch, term);
                min_x = min_x.min(x);
                max_x = max_x.max(x);
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
            (max_x - min_x) + (max_y - min_y)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_netlist::{BlockId, NetId};

    #[test]
    fn crossing_factors_monotone() {
        for n in 1..50 {
            assert!(crossing_factor(n + 1) >= crossing_factor(n));
        }
        assert_eq!(crossing_factor(2), 1.0);
        assert_eq!(crossing_factor(500), crossing_factor(50));
    }

    #[test]
    fn path_timing_overweights_small_nets() {
        let m = CostModel::new(PlaceAlgorithm::PathTiming);
        let small = Net {
            id: NetId(0),
            driver: BlockId(0),
            sinks: vec![BlockId(1)],
        };
        let big = Net {
            id: NetId(1),
            driver: BlockId(0),
            sinks: (1..8).map(BlockId).collect(),
        };
        assert!(m.net_weight(&small) > 1.0);
        assert!(m.net_weight(&big) < 1.0);
        let bb = CostModel::new(PlaceAlgorithm::BoundingBox);
        assert_eq!(bb.net_weight(&small), 1.0);
        assert_eq!(bb.net_weight(&big), 1.0);
    }
}
