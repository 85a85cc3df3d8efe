use crate::block::{Block, BlockId, BlockKind};
use crate::net::{Net, NetId};
use std::error::Error;
use std::fmt;

/// Aggregate statistics of a design, matching the columns of the paper's
/// Table 2 (`#LUTs`, `#FF`, `#Nets`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignStats {
    /// Design name (e.g. `diffeq1`).
    pub name: String,
    /// Total LUTs across all CLBs.
    pub luts: usize,
    /// Total flip-flops across all CLBs.
    pub ffs: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of CLB blocks.
    pub clbs: usize,
    /// Number of I/O blocks (inputs + outputs).
    pub ios: usize,
    /// Number of memory blocks.
    pub memories: usize,
    /// Number of multiplier blocks.
    pub multipliers: usize,
}

/// Errors produced while assembling a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net references a block id not present in the netlist.
    DanglingBlock {
        /// The offending net.
        net: NetId,
        /// The missing block id.
        block: BlockId,
    },
    /// A net has no sinks.
    EmptyNet {
        /// The offending net.
        net: NetId,
    },
    /// A net lists the same block as driver and sink, or a sink twice.
    DuplicateTerminal {
        /// The offending net.
        net: NetId,
        /// The repeated block.
        block: BlockId,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingBlock { net, block } => {
                write!(f, "net {net} references missing block {block}")
            }
            NetlistError::EmptyNet { net } => write!(f, "net {net} has no sinks"),
            NetlistError::DuplicateTerminal { net, block } => {
                write!(f, "net {net} lists block {block} more than once")
            }
        }
    }
}

impl Error for NetlistError {}

/// The packed netlist `Graph(V, E)` handed to placement.
///
/// Blocks and nets are stored densely; [`BlockId`]/[`NetId`] index them
/// directly. Construct with [`Netlist::new`], which validates the structure.
///
/// # Example
///
/// ```
/// use pop_netlist::{Netlist, Block, BlockId, BlockKind, Net, NetId};
///
/// let blocks = vec![
///     Block { id: BlockId(0), kind: BlockKind::Input, name: "a".into() },
///     Block { id: BlockId(1), kind: BlockKind::Clb { luts: 1, ffs: 0 }, name: "c".into() },
/// ];
/// let nets = vec![Net { id: NetId(0), driver: BlockId(0), sinks: vec![BlockId(1)] }];
/// let nl = Netlist::new("tiny", blocks, nets)?;
/// assert_eq!(nl.stats().nets, 1);
/// # Ok::<(), pop_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    blocks: Vec<Block>,
    nets: Vec<Net>,
    /// For each block, the nets it is a terminal of (driver or sink).
    block_nets: Vec<Vec<NetId>>,
    /// See [`Netlist::edge_runs`].
    edge_runs: Vec<(BlockId, BlockId, u32)>,
}

impl Netlist {
    /// Assembles and validates a netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if any net references an unknown block,
    /// has no sinks, or repeats a terminal.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<Block>,
        nets: Vec<Net>,
    ) -> Result<Self, NetlistError> {
        let nblocks = blocks.len();
        let mut block_nets = vec![Vec::new(); nblocks];
        for net in &nets {
            if net.sinks.is_empty() {
                return Err(NetlistError::EmptyNet { net: net.id });
            }
            let mut seen = Vec::with_capacity(net.degree());
            for term in net.terminals() {
                if term.index() >= nblocks {
                    return Err(NetlistError::DanglingBlock {
                        net: net.id,
                        block: term,
                    });
                }
                if seen.contains(&term) {
                    return Err(NetlistError::DuplicateTerminal {
                        net: net.id,
                        block: term,
                    });
                }
                seen.push(term);
                block_nets[term.index()].push(net.id);
            }
        }
        let mut edges: Vec<(BlockId, BlockId)> = nets
            .iter()
            .flat_map(|net| net.sinks.iter().map(move |&sink| (net.driver, sink)))
            .collect();
        edges.sort_unstable();
        let edge_runs = edges
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0].0, run[0].1, run.len() as u32))
            .collect();
        Ok(Netlist {
            name: name.into(),
            blocks,
            nets,
            block_nets,
            edge_runs,
        })
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All blocks, indexable by [`BlockId`].
    #[inline]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// All nets, indexable by [`NetId`].
    #[inline]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// One block by id.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// One net by id.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Nets incident to `block` (as driver or sink).
    #[inline]
    pub fn nets_of(&self, block: BlockId) -> &[NetId] {
        &self.block_nets[block.index()]
    }

    /// The distinct `(driver, sink, multiplicity)` edges, sorted by
    /// `(driver, sink)` — many nets join the same two blocks, and whoever
    /// draws or weighs edges handles each ordered pair once. Computed by
    /// [`Netlist::new`]; the multiplicities sum to the sinks of all nets.
    #[inline]
    pub fn edge_runs(&self) -> &[(BlockId, BlockId, u32)] {
        &self.edge_runs
    }

    /// Number of blocks of each kind that need placement sites, as
    /// `(clbs, ios, memories, multipliers)` — the input to
    /// [`pop_arch::Arch::auto_size`](../pop_arch/struct.Arch.html#method.auto_size).
    pub fn site_demand(&self) -> (usize, usize, usize, usize) {
        let mut clbs = 0;
        let mut ios = 0;
        let mut mems = 0;
        let mut mults = 0;
        for b in &self.blocks {
            match b.kind {
                BlockKind::Input | BlockKind::Output => ios += 1,
                BlockKind::Clb { .. } => clbs += 1,
                BlockKind::Memory => mems += 1,
                BlockKind::Multiplier => mults += 1,
            }
        }
        (clbs, ios, mems, mults)
    }

    /// Aggregate statistics (Table 2 columns).
    pub fn stats(&self) -> DesignStats {
        let (clbs, ios, memories, multipliers) = self.site_demand();
        let (mut luts, mut ffs) = (0usize, 0usize);
        for b in &self.blocks {
            if let BlockKind::Clb { luts: l, ffs: f } = b.kind {
                luts += l as usize;
                ffs += f as usize;
            }
        }
        DesignStats {
            name: self.name.clone(),
            luts,
            ffs,
            nets: self.nets.len(),
            clbs,
            ios,
            memories,
            multipliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize) -> Vec<Block> {
        (0..n)
            .map(|i| Block {
                id: BlockId(i as u32),
                kind: BlockKind::Clb { luts: 2, ffs: 1 },
                name: format!("clb_{i}"),
            })
            .collect()
    }

    #[test]
    fn valid_netlist_builds() {
        let nets = vec![Net {
            id: NetId(0),
            driver: BlockId(0),
            sinks: vec![BlockId(1), BlockId(2)],
        }];
        let nl = Netlist::new("t", blocks(3), nets).unwrap();
        assert_eq!(nl.nets_of(BlockId(0)), &[NetId(0)]);
        assert_eq!(nl.nets_of(BlockId(2)), &[NetId(0)]);
        assert_eq!(nl.stats().luts, 6);
        assert_eq!(nl.stats().ffs, 3);
    }

    #[test]
    fn edge_runs_are_the_sorted_distinct_edges_with_their_counts() {
        let net = |id: u32, driver: u32, sinks: &[u32]| Net {
            id: NetId(id),
            driver: BlockId(driver),
            sinks: sinks.iter().map(|&s| BlockId(s)).collect(),
        };
        // 2 → 0 three times, 0 → 2 (the other direction: its own run)
        // once, given out of order.
        let nets = vec![
            net(0, 2, &[3, 0]),
            net(1, 0, &[2, 1]),
            net(2, 2, &[0]),
            net(3, 2, &[0, 1]),
        ];
        let nl = Netlist::new("t", blocks(4), nets).unwrap();
        let b = BlockId;
        assert_eq!(
            nl.edge_runs(),
            &[
                (b(0), b(1), 1),
                (b(0), b(2), 1),
                (b(2), b(0), 3),
                (b(2), b(1), 1),
                (b(2), b(3), 1)
            ]
        );
        assert_eq!(nl.clone().edge_runs(), nl.edge_runs());
        let through_text = crate::text::from_text(&crate::text::to_text(&nl)).unwrap();
        assert_eq!(through_text.edge_runs(), nl.edge_runs());
        assert!(Netlist::new("t", blocks(4), vec![])
            .unwrap()
            .edge_runs()
            .is_empty());
    }

    #[test]
    fn edge_runs_of_a_generated_design_cover_every_sink_once() {
        let nl = crate::generate(&crate::presets::by_name("SHA").unwrap().scaled(0.1));
        let runs = nl.edge_runs();
        assert!(runs.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let sinks: usize = nl.nets().iter().map(|net| net.sinks.len()).sum();
        assert_eq!(runs.iter().map(|r| r.2 as usize).sum::<usize>(), sinks);
        assert!(runs.len() < sinks, "a design repeats block pairs");
        for &(driver, sink, count) in runs {
            let edges = nl
                .nets()
                .iter()
                .filter(|net| net.driver == driver)
                .filter(|net| net.sinks.contains(&sink))
                .count();
            assert_eq!(edges, count as usize, "{driver} -> {sink}");
        }
    }

    #[test]
    fn rejects_dangling_block() {
        let nets = vec![Net {
            id: NetId(0),
            driver: BlockId(0),
            sinks: vec![BlockId(9)],
        }];
        assert!(matches!(
            Netlist::new("t", blocks(2), nets),
            Err(NetlistError::DanglingBlock { .. })
        ));
    }

    #[test]
    fn rejects_empty_net() {
        let nets = vec![Net {
            id: NetId(0),
            driver: BlockId(0),
            sinks: vec![],
        }];
        assert!(matches!(
            Netlist::new("t", blocks(2), nets),
            Err(NetlistError::EmptyNet { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_terminal() {
        let nets = vec![Net {
            id: NetId(0),
            driver: BlockId(0),
            sinks: vec![BlockId(0)],
        }];
        assert!(matches!(
            Netlist::new("t", blocks(2), nets),
            Err(NetlistError::DuplicateTerminal { .. })
        ));
    }

    #[test]
    fn site_demand_counts_kinds() {
        let blocks = vec![
            Block {
                id: BlockId(0),
                kind: BlockKind::Input,
                name: "i".into(),
            },
            Block {
                id: BlockId(1),
                kind: BlockKind::Output,
                name: "o".into(),
            },
            Block {
                id: BlockId(2),
                kind: BlockKind::Memory,
                name: "m".into(),
            },
            Block {
                id: BlockId(3),
                kind: BlockKind::Multiplier,
                name: "x".into(),
            },
            Block {
                id: BlockId(4),
                kind: BlockKind::Clb { luts: 1, ffs: 1 },
                name: "c".into(),
            },
        ];
        let nl = Netlist::new("t", blocks, vec![]).unwrap();
        assert_eq!(nl.site_demand(), (1, 2, 1, 1));
    }
}
