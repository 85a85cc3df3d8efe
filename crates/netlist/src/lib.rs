//! Packed FPGA netlists and the synthetic benchmark generator.
//!
//! The paper evaluates on eight VTR designs (`diffeq1` … `bfly`). The BLIF
//! sources and VTR's packer are not available here, so this crate provides
//! a synthetic substitute:
//!
//! * [`Netlist`] — the packed netlist `Graph(V, E)`: blocks (CLBs holding
//!   several BLEs, I/O pads, memories, multipliers) and multi-terminal nets;
//! * [`SyntheticSpec`] + [`generate`] — a deterministic generator that
//!   produces netlists with a chosen LUT/FF/net budget, a geometric fanout
//!   distribution and Rent-style hierarchical locality (nets prefer blocks
//!   in the same recursive cluster, so good placements exist and congestion
//!   varies meaningfully across placements);
//! * [`presets`] — the eight paper designs with the LUT/FF/net counts of
//!   Table 2, plus a `scale` knob so tests and CPU-sized experiments can run
//!   on proportionally smaller instances.
//!
//! # Example
//!
//! ```
//! use pop_netlist::{presets, generate};
//!
//! let spec = presets::by_name("diffeq1").unwrap().scaled(0.05);
//! let netlist = generate(&spec);
//! assert!(netlist.nets().len() > 10);
//! assert_eq!(netlist.stats().name, "diffeq1");
//! ```

mod block;
mod generator;
mod net;
mod netlist;
pub mod presets;
pub mod text;

pub use block::{Block, BlockId, BlockKind};
pub use generator::{generate, SyntheticSpec};
pub use net::{Net, NetId};
pub use netlist::{DesignStats, Netlist, NetlistError};
