//! VPR-style simulated-annealing FPGA placement.
//!
//! The paper generates its training data by "sweeping the VPR placement
//! options, including `seed`, `ALPHA_T`, `INNER_NUM` and `place_algorithm`"
//! (§5, *Datasets*). This crate reimplements that placer family:
//!
//! * [`Placement`] — a legal assignment of netlist blocks to architecture
//!   sites (one block per site, kinds matching);
//! * [`PlaceOptions`] — the four swept knobs plus the annealing schedule;
//! * [`place`] — one-shot placement;
//! * [`Annealer`] — a stepping interface over the same algorithm, used by
//!   the paper's §5.4 "visualising the simulated-annealing placement
//!   algorithm" application (forecast congestion *while* placing);
//! * [`sweep`] — deterministic generation of option combinations, the
//!   dataset-generation driver behind Table 2's "#P" column.
//!
//! The annealer is the classic VPR recipe: bounding-box wirelength cost with
//! the `q(n)` crossing correction, swap/displace moves restricted to an
//! adaptive range limit, `INNER_NUM · N^{4/3}` moves per temperature, and
//! geometric cooling by `ALPHA_T`.
//!
//! # Example
//!
//! ```
//! use pop_arch::Arch;
//! use pop_netlist::{presets, generate};
//! use pop_place::{place, PlaceOptions};
//!
//! let netlist = generate(&presets::by_name("diffeq2").unwrap().scaled(0.02));
//! let (clbs, ios, mems, mults) = netlist.site_demand();
//! let arch = Arch::auto_size(clbs, ios, mems, mults, 12, 1.3)?;
//! let placement = place(&arch, &netlist, &PlaceOptions::default())?;
//! assert!(placement.verify(&arch, &netlist).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod annealer;
mod cost;
mod error;
mod kernel;
mod options;
mod placement;
pub mod sweep;

pub use annealer::{AnnealStats, Annealer};
pub use cost::{net_bbox_cost, wirelength, CostModel};
pub use error::PlaceError;
pub use options::{PlaceAlgorithm, PlaceOptions};
pub use placement::Placement;

use pop_arch::Arch;
use pop_netlist::Netlist;

/// Places `netlist` onto `arch` by running the annealing schedule to
/// completion. Deterministic in `options.seed`.
///
/// # Errors
///
/// Returns [`PlaceError::InsufficientSites`] when the architecture lacks
/// sites of some kind.
pub fn place(
    arch: &Arch,
    netlist: &Netlist,
    options: &PlaceOptions,
) -> Result<Placement, PlaceError> {
    let _span = pop_obs::span!(
        "place",
        blocks = netlist.blocks().len(),
        seed = options.seed
    );
    let mut annealer = Annealer::new(arch, netlist, options)?;
    annealer.run();
    Ok(annealer.into_placement())
}
