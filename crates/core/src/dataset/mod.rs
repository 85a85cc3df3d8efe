//! Dataset generation: the paper's §5 "Datasets" paragraph as code.
//!
//! For each design: scale the preset, generate the netlist, auto-size the
//! fabric, **calibrate the channel width** (binary-search the minimum width
//! on a probe placement, then add the VTR-style margin — this is how "the
//! ground truth images are collected with … default VPR settings" ends up
//! with a fixed, routable fabric per design), then sweep the placement
//! options, route every placement, rasterise `img_place`/`img_connect`/
//! `img_route` and assemble tensors.
//!
//! The calibration reads only the scaled spec and the fabric's slack and
//! aspect, so [`design_fabric`] keeps each width it finds for the rest of
//! the process: a design is searched once however many rounds, epochs or
//! baselines prepare it, and a reused width builds the same fabric bit for
//! bit.
//!
//! This module holds the [`Pair`] / [`DesignDataset`] types with their
//! record codec, [`augment_flips`] and [`leave_one_out`]. The stages are
//! [`DesignContext::prepare`] (the per-design half: netlist, calibration,
//! routing graph) and [`DesignContext::generate_pair`] (the per-placement
//! half: place, route, rasterise, tensors); [`build_design_dataset`] runs
//! them as a plain loop and `pop-pipeline` runs the *same* functions
//! pair-parallel, so both are bitwise-identical by construction
//! (wall-clock `PairMeta` timing fields aside; see
//! [`Pair::without_timings`]). [`CorpusStore`] caches datasets on disk
//! through [`crate::codec`], keyed by a [`fingerprint`] of *every*
//! parameter that affects the data, because routing hundreds of
//! placements dominates experiment wall-time.

use crate::codec::{Put, Reader};
use pop_nn::Tensor;
use std::io::{self, Read, Write};

mod stage;
mod store;

/// Re-exported from [`crate::codec`] for callers outside the workspace.
pub use crate::codec::Fnv1a;
pub use stage::{build_design_dataset, calibrated_width, design_fabric, DesignContext};
pub use store::{
    build_or_load, fingerprint, ClaimGuard, ClaimOutcome, CorpusStore, CACHE_FORMAT_VERSION,
};

/// Provenance and ground-truth scalars of one training pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairMeta {
    /// Design name.
    pub design: String,
    /// Index within the design's placement sweep.
    pub index: usize,
    /// Placement seed that produced this pair.
    pub place_seed: u64,
    /// Mean channel utilisation of the ground-truth routing.
    pub true_mean_congestion: f32,
    /// Peak channel utilisation of the ground-truth routing.
    pub true_max_congestion: f32,
    /// Wall-clock microseconds spent routing (the denominator of the
    /// paper's speedup metric).
    pub route_micros: u64,
    /// Wall-clock microseconds spent placing.
    pub place_micros: u64,
}

impl PairMeta {
    /// Meta for synthetic test pairs.
    pub fn synthetic(seed: u64) -> Self {
        PairMeta {
            design: "synthetic".into(),
            index: seed as usize,
            place_seed: seed,
            true_mean_congestion: 0.0,
            true_max_congestion: 0.0,
            route_micros: 0,
            place_micros: 0,
        }
    }
}

/// One training example: input features `x`, target heat map `y`, and
/// provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Generator input (`stack(img_place, λ·img_connect)` in `[-1, 1]`).
    pub x: Tensor,
    /// Ground-truth heat map in `[-1, 1]`.
    pub y: Tensor,
    /// Provenance and ground-truth scalars.
    pub meta: PairMeta,
}

impl Pair {
    /// A copy with the wall-clock `PairMeta` timing fields zeroed.
    ///
    /// Everything else in a [`Pair`] is a deterministic function of spec +
    /// config + seed; only `route_micros` / `place_micros` vary run to run.
    /// Determinism tests (and the pipeline-vs-sequential golden test)
    /// compare `without_timings` copies with plain `==`, which is then a
    /// bitwise comparison.
    pub fn without_timings(&self) -> Pair {
        Pair {
            x: self.x.clone(),
            y: self.y.clone(),
            meta: PairMeta {
                route_micros: 0,
                place_micros: 0,
                ..self.meta.clone()
            },
        }
    }
}

/// All pairs generated for one design, plus the fabric they share.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignDataset {
    /// Design name (Table 2 row).
    pub name: String,
    /// Training pairs, in sweep order.
    pub pairs: Vec<Pair>,
    /// Calibrated channel width of the fabric.
    pub channel_width: usize,
    /// Fabric grid width in tiles.
    pub grid_width: usize,
    /// Fabric grid height in tiles.
    pub grid_height: usize,
}

/// The smallest pair record (an empty name, the fixed meta fields, two
/// empty tensors): the size a pair count is checked against.
const PAIR_MIN_BYTES: u64 = 4 + 36 + 2 * 16;

/// Writes one [`Pair`] record of a `.popds` file (full provenance +
/// tensors; the record carries its own design name).
///
/// # Errors
///
/// Propagates I/O failures; an index or name length past a `u32` field
/// is `InvalidInput`.
fn write_pair(w: &mut impl Write, p: &Pair) -> io::Result<()> {
    let m = &p.meta;
    w.put_str(&m.design)?;
    w.put_usize(m.index)?;
    w.put_u64(m.place_seed)?;
    w.put_f32(m.true_mean_congestion)?;
    w.put_f32(m.true_max_congestion)?;
    w.put_u64(m.route_micros)?;
    w.put_u64(m.place_micros)?;
    w.put_tensor(&p.x)?;
    w.put_tensor(&p.y)
}

/// Reads one [`Pair`] record written by [`write_pair`]. Lengths are
/// checked against the bytes the file has left before any allocation.
///
/// # Errors
///
/// A truncated or out-of-bounds record is [`io::ErrorKind::InvalidData`].
fn read_pair(r: &mut Reader<impl Read>) -> io::Result<Pair> {
    // Fields evaluate in the order written, which is the record's order.
    let meta = PairMeta {
        design: r.string()?,
        index: r.u32()? as usize,
        place_seed: r.u64()?,
        true_mean_congestion: r.f32()?,
        true_max_congestion: r.f32()?,
        route_micros: r.u64()?,
        place_micros: r.u64()?,
    };
    let x = r.tensor()?;
    let y = r.tensor()?;
    Ok(Pair { x, y, meta })
}

/// pix2pix-style flip augmentation: returns the originals followed by
/// horizontally- and vertically-mirrored copies of every pair (input and
/// target flipped together, so the mapping stays consistent).
///
/// The paper does not augment — its dataset is large enough — but at the
/// CPU reproduction scale (few placements per design) augmentation
/// measurably steadies training; it is opt-in for that reason.
pub fn augment_flips(pairs: &[Pair]) -> Vec<Pair> {
    let mut out = Vec::with_capacity(pairs.len() * 3);
    out.extend_from_slice(pairs);
    for (flip_x, flip_label) in [(true, "hflip"), (false, "vflip")] {
        for p in pairs {
            let (x, y) = if flip_x {
                (p.x.flipped_w(), p.y.flipped_w())
            } else {
                (p.x.flipped_h(), p.y.flipped_h())
            };
            out.push(Pair {
                x,
                y,
                meta: PairMeta {
                    design: format!("{}-{flip_label}", p.meta.design),
                    ..p.meta.clone()
                },
            });
        }
    }
    out
}

/// Leave-one-design-out split (training strategy 1 of §5.1): all pairs of
/// every design except `held_out` for training, the held-out design for
/// testing.
///
/// # Panics
///
/// Panics when `held_out` does not name a dataset in `all`.
pub fn leave_one_out<'a>(
    all: &'a [DesignDataset],
    held_out: &str,
) -> (Vec<&'a Pair>, &'a DesignDataset) {
    let test = all
        .iter()
        .find(|d| d.name == held_out)
        .unwrap_or_else(|| panic!("no dataset named {held_out}"));
    let train: Vec<&Pair> = all
        .iter()
        .filter(|d| d.name != held_out)
        .flat_map(|d| d.pairs.iter())
        .collect();
    (train, test)
}

#[cfg(test)]
mod tests;
