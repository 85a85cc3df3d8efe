use crate::block::{Block, BlockId, BlockKind};
use crate::net::{Net, NetId};
use crate::netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic benchmark generator.
///
/// Substitutes for the unavailable VTR BLIF benchmarks:
/// what the congestion predictor sees is the *image* of a placed design, so
/// the generator's job is to produce netlists of the right size, fanout
/// profile and spatial locality — not to be logically meaningful circuits.
///
/// Locality is modelled by laying blocks out on a hidden 1-D "affinity"
/// order and sampling net sinks at geometrically-distributed distances from
/// the driver. Annealing rediscovers this structure as 2-D locality, which
/// gives realistically non-uniform congestion that varies across placements.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Design name (also reported in Table 2 output).
    pub name: String,
    /// Total LUT budget (Table 2 `#LUTs`).
    pub luts: usize,
    /// Total flip-flop budget (Table 2 `#FF`).
    pub ffs: usize,
    /// Number of nets to generate (Table 2 `#Nets`).
    pub nets: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Memory blocks.
    pub memories: usize,
    /// Multiplier blocks.
    pub multipliers: usize,
    /// LUTs packed per CLB (VTR flagship: 10 BLEs per cluster).
    pub luts_per_clb: usize,
    /// Mean number of sinks per net (geometric distribution).
    pub mean_fanout: f64,
    /// Probability that a sink is drawn from the local neighbourhood rather
    /// than uniformly (0 = no locality, 1 = fully local).
    pub locality: f64,
    /// RNG seed; the same spec always generates the same netlist.
    pub seed: u64,
}

impl SyntheticSpec {
    /// Returns a copy scaled to `factor` of the original size (block and net
    /// budgets multiplied by `factor`, minimums preserved so the design stays
    /// well-formed). Used to shrink the paper's designs to CPU-sized
    /// instances while keeping their relative proportions.
    pub fn scaled(&self, factor: f64) -> SyntheticSpec {
        let f = factor.max(0.0);
        let scale = |v: usize, min: usize| -> usize {
            if v == 0 {
                0
            } else {
                ((v as f64 * f).round() as usize).max(min)
            }
        };
        SyntheticSpec {
            name: self.name.clone(),
            luts: scale(self.luts, self.luts_per_clb),
            ffs: scale(self.ffs, 1),
            nets: scale(self.nets, 8),
            inputs: scale(self.inputs, 2),
            outputs: scale(self.outputs, 2),
            memories: scale(self.memories, usize::from(self.memories > 0)),
            multipliers: scale(self.multipliers, usize::from(self.multipliers > 0)),
            luts_per_clb: self.luts_per_clb,
            mean_fanout: self.mean_fanout,
            locality: self.locality,
            seed: self.seed,
        }
    }

    /// Number of CLB blocks this spec packs into.
    pub fn clb_count(&self) -> usize {
        self.luts.div_ceil(self.luts_per_clb).max(1)
    }
}

/// Samples `1 + Geometric(p)` with mean `mean` (values ≥ 1, capped).
fn sample_fanout(rng: &mut StdRng, mean: f64, cap: usize) -> usize {
    let mean_extra = (mean - 1.0).max(0.0);
    let p = 1.0 / (1.0 + mean_extra);
    let mut k = 1usize;
    while k < cap && rng.gen::<f64>() > p {
        k += 1;
    }
    k
}

/// Generates the netlist described by `spec`. Deterministic in `spec.seed`.
///
/// Guarantees: block counts match the spec exactly; the net count matches
/// exactly; every net has a driver and at least one sink with no repeated
/// terminals; every primary input drives at least one net and every primary
/// output sinks at least one net (so the I/O ring is always exercised).
pub fn generate(spec: &SyntheticSpec) -> Netlist {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut blocks = Vec::new();

    let n_clb = spec.clb_count();
    // Distribute the LUT/FF budget across CLBs as evenly as possible.
    for i in 0..n_clb {
        let luts = (spec.luts * (i + 1) / n_clb - spec.luts * i / n_clb) as u16;
        let ffs = (spec.ffs * (i + 1) / n_clb - spec.ffs * i / n_clb) as u16;
        blocks.push(Block {
            id: BlockId(blocks.len() as u32),
            kind: BlockKind::Clb { luts, ffs },
            name: format!("clb_{i}"),
        });
    }
    for i in 0..spec.inputs {
        blocks.push(Block {
            id: BlockId(blocks.len() as u32),
            kind: BlockKind::Input,
            name: format!("in_{i}"),
        });
    }
    for i in 0..spec.outputs {
        blocks.push(Block {
            id: BlockId(blocks.len() as u32),
            kind: BlockKind::Output,
            name: format!("out_{i}"),
        });
    }
    for i in 0..spec.memories {
        blocks.push(Block {
            id: BlockId(blocks.len() as u32),
            kind: BlockKind::Memory,
            name: format!("mem_{i}"),
        });
    }
    for i in 0..spec.multipliers {
        blocks.push(Block {
            id: BlockId(blocks.len() as u32),
            kind: BlockKind::Multiplier,
            name: format!("mult_{i}"),
        });
    }

    let n_blocks = blocks.len();
    // Hidden affinity order: a fixed random permutation of all blocks.
    let mut order: Vec<usize> = (0..n_blocks).collect();
    for i in (1..n_blocks).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    // position_of[b] = index of block b in the affinity order.
    let mut position_of = vec![0usize; n_blocks];
    for (pos, &b) in order.iter().enumerate() {
        position_of[b] = pos;
    }

    let can_drive = |b: &Block| !matches!(b.kind, BlockKind::Output);
    let can_sink = |b: &Block| !matches!(b.kind, BlockKind::Input);
    let driver_pool: Vec<BlockId> = blocks
        .iter()
        .filter(|b| can_drive(b))
        .map(|b| b.id)
        .collect();
    let sink_pool: Vec<BlockId> = blocks
        .iter()
        .filter(|b| can_sink(b))
        .map(|b| b.id)
        .collect();

    // Pick one sink near `driver` on the affinity line (locality model), or
    // uniformly with probability 1 - locality.
    let pick_sink = |rng: &mut StdRng, driver: BlockId, taken: &[BlockId]| -> Option<BlockId> {
        for _attempt in 0..32 {
            let cand = if rng.gen::<f64>() < spec.locality {
                // Geometric hop distance along the affinity order.
                let mut d: isize = 1;
                while d < 24 && rng.gen::<f64>() > 0.35 {
                    d += 1;
                }
                if rng.gen::<bool>() {
                    d = -d;
                }
                let pos = position_of[driver.index()] as isize + d;
                let pos = pos.rem_euclid(n_blocks as isize) as usize;
                BlockId(order[pos] as u32)
            } else {
                sink_pool[rng.gen_range(0..sink_pool.len())]
            };
            let block = &blocks[cand.index()];
            // Outputs (and other pads) terminate far fewer nets than logic in
            // real designs; damp their selection so traffic does not pile up
            // on the I/O ring.
            if matches!(block.kind, BlockKind::Output) && rng.gen::<f64>() > 0.25 {
                continue;
            }
            if cand != driver && can_sink(block) && !taken.contains(&cand) {
                return Some(cand);
            }
        }
        // Dense fallback: first admissible sink.
        sink_pool
            .iter()
            .copied()
            .find(|&c| c != driver && !taken.contains(&c))
    };

    let mut nets: Vec<Net> = Vec::with_capacity(spec.nets);
    let mut output_covered = vec![false; n_blocks];
    let fanout_cap = 24.min(n_blocks.saturating_sub(1)).max(1);

    // Phase 1: every input drives a net.
    for b in &blocks {
        if nets.len() >= spec.nets {
            break;
        }
        if matches!(b.kind, BlockKind::Input) {
            let k = sample_fanout(&mut rng, spec.mean_fanout, fanout_cap);
            let mut sinks = Vec::with_capacity(k);
            for _ in 0..k {
                if let Some(s) = pick_sink(&mut rng, b.id, &sinks) {
                    sinks.push(s);
                }
            }
            if sinks.is_empty() {
                continue;
            }
            for &s in &sinks {
                output_covered[s.index()] = true;
            }
            nets.push(Net {
                id: NetId(nets.len() as u32),
                driver: b.id,
                sinks,
            });
        }
    }

    // Phase 2: every output sinks a net.
    for b in &blocks {
        if nets.len() >= spec.nets {
            break;
        }
        if matches!(b.kind, BlockKind::Output) && !output_covered[b.id.index()] {
            let driver = driver_pool[rng.gen_range(0..driver_pool.len())];
            if driver == b.id {
                continue;
            }
            nets.push(Net {
                id: NetId(nets.len() as u32),
                driver,
                sinks: vec![b.id],
            });
            output_covered[b.id.index()] = true;
        }
    }

    // Phase 3: fill the net budget with locality-biased nets.
    while nets.len() < spec.nets {
        let driver = driver_pool[rng.gen_range(0..driver_pool.len())];
        let k = sample_fanout(&mut rng, spec.mean_fanout, fanout_cap);
        let mut sinks = Vec::with_capacity(k);
        for _ in 0..k {
            if let Some(s) = pick_sink(&mut rng, driver, &sinks) {
                sinks.push(s);
            }
        }
        if sinks.is_empty() {
            continue;
        }
        nets.push(Net {
            id: NetId(nets.len() as u32),
            driver,
            sinks,
        });
    }

    Netlist::new(spec.name.clone(), blocks, nets)
        .expect("generator produces structurally valid netlists")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SyntheticSpec {
        SyntheticSpec {
            name: "tiny".into(),
            luts: 40,
            ffs: 12,
            nets: 60,
            inputs: 4,
            outputs: 4,
            memories: 1,
            multipliers: 1,
            luts_per_clb: 10,
            mean_fanout: 3.0,
            locality: 0.8,
            seed: 7,
        }
    }

    #[test]
    fn counts_match_spec() {
        let spec = tiny_spec();
        let nl = generate(&spec);
        let s = nl.stats();
        assert_eq!(s.nets, spec.nets);
        assert_eq!(s.clbs, spec.clb_count());
        assert_eq!(s.ios, spec.inputs + spec.outputs);
        assert_eq!(s.memories, 1);
        assert_eq!(s.multipliers, 1);
        assert_eq!(s.luts, spec.luts);
        assert_eq!(s.ffs, spec.ffs);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&tiny_spec());
        let b = generate(&tiny_spec());
        assert_eq!(a, b);
        let mut other = tiny_spec();
        other.seed = 8;
        let c = generate(&other);
        assert_ne!(a, c);
    }

    #[test]
    fn every_input_drives_and_every_output_sinks() {
        let nl = generate(&tiny_spec());
        for b in nl.blocks() {
            match b.kind {
                BlockKind::Input => {
                    assert!(
                        nl.nets_of(b.id).iter().any(|&n| nl.net(n).driver == b.id),
                        "input {} drives nothing",
                        b.name
                    );
                }
                BlockKind::Output => {
                    assert!(
                        nl.nets_of(b.id)
                            .iter()
                            .any(|&n| nl.net(n).sinks.contains(&b.id)),
                        "output {} sinks nothing",
                        b.name
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn scaling_shrinks_but_keeps_minimums() {
        let spec = tiny_spec().scaled(0.1);
        assert!(spec.nets >= 8);
        assert!(spec.inputs >= 2);
        assert_eq!(spec.memories, 1); // nonzero stays nonzero
        let nl = generate(&spec);
        assert_eq!(nl.stats().nets, spec.nets);
    }

    #[test]
    fn scaled_zero_counts_stay_zero() {
        let mut spec = tiny_spec();
        spec.memories = 0;
        spec.multipliers = 0;
        let scaled = spec.scaled(0.5);
        assert_eq!(scaled.memories, 0);
        assert_eq!(scaled.multipliers, 0);
    }

    #[test]
    fn fanout_sampler_respects_cap_and_min() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let k = sample_fanout(&mut rng, 3.0, 5);
            assert!((1..=5).contains(&k));
        }
    }

    #[test]
    fn mean_fanout_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 4000;
        let total: usize = (0..n).map(|_| sample_fanout(&mut rng, 3.0, 1000)).sum();
        let mean = total as f64 / n as f64;
        assert!((2.5..3.5).contains(&mean), "mean fanout {mean}");
    }
}
