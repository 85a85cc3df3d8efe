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
//! The stages are exposed individually — [`DesignContext::prepare`] for the
//! per-design half (netlist, calibration, routing graph) and
//! [`DesignContext::generate_pair`] for the per-placement half (place,
//! route, rasterise, tensors) — because two callers share them:
//! [`build_design_dataset`] runs them as a plain sequential loop, and the
//! `pop-pipeline` crate runs the *same* functions pair-parallel on one pool.
//! Both paths are therefore bitwise-identical by construction (wall-clock
//! `PairMeta` timing fields aside; see [`Pair::without_timings`]).
//!
//! Generated datasets are cached on disk by [`CorpusStore`] in a
//! little-endian binary format keyed by a fingerprint of *every* scenario
//! parameter that affects the data (full synthetic spec + config + cache
//! format version), because routing hundreds of placements dominates
//! experiment wall-time.

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::features::{assemble_target, placement_input};
use pop_arch::Arch;
use pop_netlist::{generate, Netlist, SyntheticSpec};
use pop_nn::Tensor;
use pop_place::{place, sweep::SweepSpec, PlaceOptions, Placement};
use pop_raster::render_congestion;
use pop_route::{min_channel_width, route_on_graph, RouteGraph, RouteOptions, RouteResult};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

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

/// Rebuilds the architecture and netlist a dataset was generated on (the
/// fabric is a deterministic function of spec + config).
///
/// # Errors
///
/// Propagates substrate errors.
pub fn design_fabric(
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
) -> Result<(Arch, Netlist, usize), CoreError> {
    let scaled = spec.scaled(config.design_scale);
    let netlist = generate(&scaled);
    let (clbs, ios, mems, mults) = netlist.site_demand();
    let auto_size = |width| {
        Arch::auto_size_with_aspect(
            clbs,
            ios,
            mems,
            mults,
            width,
            config.fabric_slack,
            config.fabric_aspect,
        )
    };
    let probe_arch = auto_size(8)?;
    let probe_placement = place(&probe_arch, &netlist, &Default::default())?;
    let (min_w, _) = min_channel_width(
        &probe_arch,
        &netlist,
        &probe_placement,
        &RouteOptions::default(),
    )?;
    let width = calibrated_width(min_w, config.channel_width_margin);
    let arch = auto_size(width)?;
    Ok((arch, netlist, width))
}

/// The channel width a fabric is built with, given the minimum width its
/// probe placement routed at: `margin` of headroom, never below 4 wires.
pub fn calibrated_width(min_width: usize, margin: f64) -> usize {
    ((min_width as f64 * margin).ceil() as usize).max(4)
}

/// The per-design state every placement of that design shares: the scaled
/// netlist, the calibrated fabric and its routing graph.
///
/// Prepared once per design ([`DesignContext::prepare`] — the expensive
/// fabric-calibration stage), then each placement index is materialised
/// independently via [`DesignContext::generate_pair`]. The sequential
/// [`build_design_dataset`] and the parallel `pop-pipeline` generator are
/// both thin drivers over these two calls.
#[derive(Debug, Clone)]
pub struct DesignContext {
    /// The (unscaled) spec the context was prepared from.
    pub spec: SyntheticSpec,
    /// The experiment configuration (resolution, sweep seed, λ, …).
    pub config: ExperimentConfig,
    /// Calibrated fabric.
    pub arch: Arch,
    /// The scaled netlist placed on it.
    pub netlist: Netlist,
    /// Routing-resource graph of `arch` (shared by every route call).
    pub graph: RouteGraph,
    /// Calibrated channel width of the fabric.
    pub channel_width: usize,
}

impl DesignContext {
    /// Runs the per-design stages: netlist generation, fabric calibration
    /// and routing-graph construction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for an invalid config and
    /// propagates substrate failures.
    pub fn prepare(spec: &SyntheticSpec, config: &ExperimentConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let (arch, netlist, channel_width) = design_fabric(spec, config)?;
        let graph = RouteGraph::new(&arch);
        Ok(DesignContext {
            spec: spec.clone(),
            config: config.clone(),
            arch,
            netlist,
            graph,
            channel_width,
        })
    }

    /// The deterministic placement-option sweep of this design:
    /// `config.pairs_per_design` option sets seeded from `config.seed`.
    pub fn sweep_options(&self) -> Vec<PlaceOptions> {
        let sweep = SweepSpec {
            base_seed: self.config.seed,
            ..SweepSpec::quick()
        };
        sweep.take(self.config.pairs_per_design)
    }

    /// Placement stage: anneals one placement of the design under `popts`,
    /// returning it with the wall-clock microseconds spent.
    ///
    /// # Errors
    ///
    /// Propagates placement failures.
    pub fn place_stage(&self, popts: &PlaceOptions) -> Result<(Placement, u64), CoreError> {
        // Stage timing is recorded provenance, never folded into the
        // fingerprint.
        let t0 = Instant::now();
        let placement = place(&self.arch, &self.netlist, popts)?;
        Ok((placement, t0.elapsed().as_micros() as u64))
    }

    /// Routing stage: routes a placement on the shared graph (the
    /// ground-truth collection step the paper's speedup is measured
    /// against), returning the result with the wall-clock microseconds.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn route_stage(&self, placement: &Placement) -> Result<(RouteResult, u64), CoreError> {
        // Stage timing is recorded provenance, never folded into the
        // fingerprint.
        let t1 = Instant::now();
        let routing = route_on_graph(
            &self.arch,
            &self.graph,
            &self.netlist,
            placement,
            &RouteOptions::default(),
        )?;
        Ok((routing, t1.elapsed().as_micros() as u64))
    }

    /// Rasterisation + tensor-assembly stage: renders the three images of a
    /// placed-and-routed design and assembles the training pair.
    #[allow(clippy::too_many_arguments)] // the full provenance of one pair
    pub fn raster_stage(
        &self,
        index: usize,
        popts: &PlaceOptions,
        placement: &Placement,
        routing: &RouteResult,
        place_micros: u64,
        route_micros: u64,
    ) -> Pair {
        let config = &self.config;
        let x = placement_input(&self.arch, &self.netlist, placement, config);
        let img_route = render_congestion(
            &self.arch,
            &self.netlist,
            placement,
            routing.congestion(),
            config.resolution,
        );
        let y = assemble_target(&img_route);
        Pair {
            x,
            y,
            meta: PairMeta {
                design: self.spec.name.clone(),
                index,
                place_seed: popts.seed,
                true_mean_congestion: routing.congestion().mean_utilization(),
                true_max_congestion: routing.congestion().max_utilization(),
                route_micros,
                place_micros,
            },
        }
    }

    /// Runs the per-placement stages for sweep entry `index`:
    /// [`place_stage`](DesignContext::place_stage) →
    /// [`route_stage`](DesignContext::route_stage) →
    /// [`raster_stage`](DesignContext::raster_stage).
    ///
    /// Deterministic in `(context, index, popts)` except for the wall-clock
    /// timing fields of [`PairMeta`].
    ///
    /// # Errors
    ///
    /// Propagates placement/routing failures as [`CoreError::Pipeline`].
    pub fn generate_pair(&self, index: usize, popts: &PlaceOptions) -> Result<Pair, CoreError> {
        let (placement, place_micros) = self.place_stage(popts)?;
        let (routing, route_micros) = self.route_stage(&placement)?;
        Ok(self.raster_stage(
            index,
            popts,
            &placement,
            &routing,
            place_micros,
            route_micros,
        ))
    }

    /// Assembles pairs (in sweep order) into a [`DesignDataset`].
    pub fn into_dataset(self, pairs: Vec<Pair>) -> DesignDataset {
        DesignDataset {
            name: self.spec.name,
            pairs,
            channel_width: self.channel_width,
            grid_width: self.arch.width(),
            grid_height: self.arch.height(),
        }
    }
}

/// Generates the dataset for one design preset under `config`
/// (`config.pairs_per_design` placements from the option sweep, each routed
/// and rasterised) — the sequential reference driver over
/// [`DesignContext`]; the parallel `pop-pipeline` generator produces
/// bitwise-identical output from the same stages.
///
/// # Errors
///
/// Propagates placement/routing failures as [`CoreError::Pipeline`].
pub fn build_design_dataset(
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
) -> Result<DesignDataset, CoreError> {
    let ctx = DesignContext::prepare(spec, config)?;
    let mut pairs = Vec::with_capacity(config.pairs_per_design);
    for (index, popts) in ctx.sweep_options().iter().enumerate() {
        pairs.push(ctx.generate_pair(index, popts)?);
    }
    Ok(ctx.into_dataset(pairs))
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

// ---------------------------------------------------------------------------
// Disk cache.
// ---------------------------------------------------------------------------

/// Bumped whenever the on-disk layout *or* the fingerprint recipe changes,
/// so caches written by older builds can never be silently loaded.
///
/// v4: pair records are self-contained (each carries its design name), so
/// the same record layout serves both `.popds` dataset files and the
/// pipeline's epoch-spill ring; writes are atomic (tmp + rename).
///
/// v5: the fingerprint folds in a placement-strategy word (there were two
/// annealers then; it is the constant `0` now that there is one). The
/// record layout is unchanged, so `MAGIC` stays at `POPDS004`.
///
/// v6: `min_channel_width` brackets its search from the uncongested peak
/// instead of by doubling. Routability is not monotone in width, so a
/// design may calibrate to a different fabric than it did under the old
/// probe order (dcsg × 0.03: 81 → 78); a store written before that must
/// not be served as warm. Layout unchanged again.
pub const CACHE_FORMAT_VERSION: u32 = 6;

const MAGIC: &[u8; 8] = b"POPDS004";

/// Decode-time bounds: a corrupt header must never drive
/// `Vec::with_capacity` (or `vec![0; n]`) to a huge allocation. Anything
/// beyond these is treated as corruption, not as a request for memory.
const MAX_PAIRS: usize = 1 << 20;
const MAX_NAME_BYTES: usize = 4096;
const MAX_TENSOR_DIM: usize = 1 << 20;
const MAX_TENSOR_ELEMS: usize = 1 << 28;

fn corrupt(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corrupt cache record: {what}"),
    )
}

/// The FNV-1a accumulator every cache key in the workspace hashes with —
/// the scenario [`fingerprint`], the pipeline's epoch-ring keys and the
/// smoke example's corpus checksum all fold through this one
/// implementation, so the constants can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// An accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in.
    pub fn eat(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a byte string in (one fold per byte).
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.eat(b as u64);
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of everything that affects generated data: the cache format
/// version, the full synthetic spec (scenario generation varies fanout,
/// locality and seeds — not just the preset seed) and every config knob on
/// the data path (including the fabric slack/aspect scenario parameters).
///
/// Public because cache *keys* are part of the system's contract: the
/// pipeline's [`CorpusStore`] names per-job cache files by it, and the
/// epoch-spill ring folds per-job fingerprints into its epoch keys.
pub fn fingerprint(spec: &SyntheticSpec, config: &ExperimentConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(CACHE_FORMAT_VERSION as u64);
    h.eat_bytes(spec.name.as_bytes());
    h.eat(spec.luts as u64);
    h.eat(spec.ffs as u64);
    h.eat(spec.nets as u64);
    h.eat(spec.inputs as u64);
    h.eat(spec.outputs as u64);
    h.eat(spec.memories as u64);
    h.eat(spec.multipliers as u64);
    h.eat(spec.luts_per_clb as u64);
    h.eat(spec.mean_fanout.to_bits());
    h.eat(spec.locality.to_bits());
    h.eat(spec.seed);
    h.eat(config.resolution as u64);
    h.eat(config.pairs_per_design as u64);
    h.eat(config.design_scale.to_bits());
    h.eat(config.lambda_connect.to_bits() as u64);
    h.eat(u64::from(config.grayscale_input));
    h.eat(config.channel_width_margin.to_bits());
    h.eat(config.fabric_slack.to_bits());
    h.eat(config.fabric_aspect.to_bits());
    h.eat(config.seed);
    // Where the placement-strategy tag was: the one annealer left hashed
    // as 0, and dropping the word would orphan every corpus on disk.
    h.eat(0);
    h.finish()
}

fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32(w: &mut impl Write, v: f32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32(r: &mut impl Read) -> std::io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn write_tensor(w: &mut impl Write, t: &Tensor) -> std::io::Result<()> {
    for d in t.shape() {
        write_u32(w, d as u32)?;
    }
    let mut bytes = Vec::with_capacity(t.len() * 4);
    for v in t.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes)
}

fn read_tensor(r: &mut impl Read) -> std::io::Result<Tensor> {
    let mut shape = [0usize; 4];
    for s in &mut shape {
        *s = read_u32(r)? as usize;
        if *s > MAX_TENSOR_DIM {
            return Err(corrupt("tensor dimension"));
        }
    }
    // Checked product: four in-bounds dims can still overflow a plain
    // multiply (2^20 each → 2^80), which must read as corruption too.
    let len = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&len| len <= MAX_TENSOR_ELEMS)
        .ok_or_else(|| corrupt("tensor element count"))?;
    let mut bytes = vec![0u8; len * 4];
    r.read_exact(&mut bytes)?;
    let data = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(Tensor::from_vec(shape, data))
}

/// Writes one [`Pair`] record (full provenance + tensors) in the cache's
/// little-endian layout. The record is self-contained — it carries its
/// design name — so the same layout serves `.popds` dataset files and the
/// pipeline's epoch-spill ring.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_pair(w: &mut impl Write, p: &Pair) -> std::io::Result<()> {
    // Enforce the reader's decode bounds at write time: a record the
    // reader would reject must fail loudly here, not become a
    // permanently-unreadable entry that silently defeats the cache.
    let name = p.meta.design.as_bytes();
    if name.len() > MAX_NAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("design name exceeds {MAX_NAME_BYTES} bytes"),
        ));
    }
    let index = u32::try_from(p.meta.index).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "pair index exceeds the cache record's u32 range",
        )
    })?;
    write_u32(w, name.len() as u32)?;
    w.write_all(name)?;
    write_u32(w, index)?;
    write_u64(w, p.meta.place_seed)?;
    write_f32(w, p.meta.true_mean_congestion)?;
    write_f32(w, p.meta.true_max_congestion)?;
    write_u64(w, p.meta.route_micros)?;
    write_u64(w, p.meta.place_micros)?;
    write_tensor(w, &p.x)?;
    write_tensor(w, &p.y)
}

/// Reads one [`Pair`] record written by [`write_pair`]. Header fields are
/// bounds-checked before any allocation, so a corrupt record fails with a
/// decode error instead of a huge `Vec` reservation.
///
/// # Errors
///
/// Propagates I/O failures; truncated or out-of-bounds records surface as
/// [`std::io::ErrorKind::UnexpectedEof`] / [`std::io::ErrorKind::InvalidData`].
pub fn read_pair(r: &mut impl Read) -> std::io::Result<Pair> {
    let name_len = read_u32(r)? as usize;
    if name_len > MAX_NAME_BYTES {
        return Err(corrupt("design name length"));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let design = String::from_utf8(name).map_err(|_| corrupt("design name utf-8"))?;
    let index = read_u32(r)? as usize;
    let place_seed = read_u64(r)?;
    let true_mean_congestion = read_f32(r)?;
    let true_max_congestion = read_f32(r)?;
    let route_micros = read_u64(r)?;
    let place_micros = read_u64(r)?;
    let x = read_tensor(r)?;
    let y = read_tensor(r)?;
    Ok(Pair {
        x,
        y,
        meta: PairMeta {
            design,
            index,
            place_seed,
            true_mean_congestion,
            true_max_congestion,
            route_micros,
            place_micros,
        },
    })
}

static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Writes `path` atomically: the content goes to a uniquely-named `.tmp`
/// sibling first and is renamed into place only after a successful flush +
/// fsync. A crash mid-write leaves (at worst) a stray `.tmp` file, never a
/// truncated cache entry with a valid magic + fingerprint. Public so every
/// cache-shaped artefact in the workspace (dataset caches, the pipeline's
/// epoch-spill ring and its progress marker) shares one durability story.
///
/// # Errors
///
/// Propagates I/O failures; on failure the temporary file is removed.
pub fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_file_name(format!(
        ".{}.{}.{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("cache"),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    let result = (|| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut w)?;
        w.flush()?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_dataset_file(path: &Path, ds: &DesignDataset, fp: u64) -> std::io::Result<()> {
    // Mirror the reader's MAX_PAIRS bound at write time: an oversized
    // dataset must fail loudly here, not become an entry the reader
    // forever rejects as corrupt (silently defeating the cache).
    if ds.pairs.len() > MAX_PAIRS {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("dataset exceeds {MAX_PAIRS} pairs"),
        ));
    }
    atomic_write(path, |w| {
        w.write_all(MAGIC)?;
        write_u64(w, fp)?;
        write_u32(w, ds.pairs.len() as u32)?;
        write_u32(w, ds.channel_width as u32)?;
        write_u32(w, ds.grid_width as u32)?;
        write_u32(w, ds.grid_height as u32)?;
        for p in &ds.pairs {
            write_pair(w, p)?;
        }
        Ok(())
    })
}

/// Parses a dataset file body; `Ok(None)` on a magic/fingerprint mismatch,
/// `Err` on truncation or a corrupt field (both of which the callers treat
/// as stale).
fn parse_dataset(
    r: &mut impl Read,
    fp: u64,
    design: &str,
) -> std::io::Result<Option<DesignDataset>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Ok(None);
    }
    if read_u64(r)? != fp {
        return Ok(None);
    }
    let n = read_u32(r)? as usize;
    if n > MAX_PAIRS {
        return Err(corrupt("pair count"));
    }
    let channel_width = read_u32(r)? as usize;
    let grid_width = read_u32(r)? as usize;
    let grid_height = read_u32(r)? as usize;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(read_pair(r)?);
    }
    Ok(Some(DesignDataset {
        name: design.to_string(),
        pairs,
        channel_width,
        grid_width,
        grid_height,
    }))
}

/// Reads a dataset cache file, treating *every* damage mode as a miss:
/// absent file, wrong magic, stale fingerprint, truncation mid-field and
/// out-of-bounds headers all yield `Ok(None)` so the caller regenerates
/// (and overwrites) the entry — a damaged cache self-heals. Only failure to
/// open an *existing* file (permissions, I/O errors) is a hard error.
fn read_dataset_file(
    path: &Path,
    fp: u64,
    design: &str,
) -> Result<Option<DesignDataset>, CoreError> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CoreError::Cache(format!("open {}: {e}", path.display()))),
    };
    let mut r = std::io::BufReader::new(file);
    Ok(parse_dataset(&mut r, fp, design).unwrap_or(None))
}

/// A directory of per-job dataset caches, keyed by **design name +
/// scenario fingerprint**: a store keeps every scenario variant of the
/// same design side by side, which is what the streaming pipeline needs
/// when one corpus mixes fabrics, resolutions or sweep seeds of a single
/// design family.
///
/// Loads treat damage as a miss (so a damaged entry is regenerated rather
/// than poisoning every future run), writes are atomic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusStore {
    dir: PathBuf,
    /// Total on-disk byte budget; `None` means unbounded (no eviction).
    budget: Option<u64>,
    /// Age after which another process's claim file is considered
    /// abandoned (owner crashed) and may be broken.
    claim_stale_after: std::time::Duration,
}

/// Default staleness horizon for generation claims: generous enough that a
/// healthy job never loses its claim mid-generation, short enough that a
/// crashed owner's claim does not wedge a fleet for long.
const CLAIM_STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(600);

/// How often a waiting process re-probes a claimed entry.
const CLAIM_POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(50);

/// What [`CorpusStore::begin`] resolved a job to.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// The entry was already cached (possibly written by another process
    /// while we waited on its claim).
    Cached(Box<DesignDataset>),
    /// We own generation of this entry; finish by storing the dataset and
    /// dropping the guard (in that order).
    Claimed(ClaimGuard),
}

/// Ownership of one entry's generation, backed by an exclusively-created
/// claim file; dropping the guard releases the claim (best-effort).
#[derive(Debug)]
pub struct ClaimGuard {
    path: PathBuf,
    /// The exact content this process wrote into the claim file. Release
    /// removes the file only while it still holds this content: if the
    /// claim went stale (a very slow owner) and another process broke and
    /// re-claimed it, dropping the old guard must not delete the *new*
    /// owner's claim.
    stamp: String,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if std::fs::read_to_string(&self.path).is_ok_and(|content| content == self.stamp) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl CorpusStore {
    /// A store rooted at `dir` (created lazily on first write), unbounded.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CorpusStore {
            dir: dir.into(),
            budget: None,
            claim_stale_after: CLAIM_STALE_AFTER,
        }
    }

    /// The same store with a total size budget: after every write the
    /// least-recently-used entries are evicted until the store fits. Loads
    /// touch their entry, so hot scenarios survive the sweep.
    #[must_use]
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// The same store with a custom claim-staleness horizon (tests shrink
    /// it; production keeps the generous default).
    #[must_use]
    pub fn with_claim_stale_after(mut self, after: std::time::Duration) -> Self {
        self.claim_stale_after = after;
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured size budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The cache file this job maps to:
    /// `<dir>/<design>-<fingerprint:016x>.popds`.
    pub fn entry_path(&self, spec: &SyntheticSpec, config: &ExperimentConfig) -> PathBuf {
        self.dir.join(format!(
            "{}-{:016x}.popds",
            spec.name,
            fingerprint(spec, config)
        ))
    }

    /// Loads the cached dataset for one job; `Ok(None)` on a miss (absent,
    /// stale or damaged entry).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] only when an existing file cannot be
    /// opened.
    pub fn load(
        &self,
        spec: &SyntheticSpec,
        config: &ExperimentConfig,
    ) -> Result<Option<DesignDataset>, CoreError> {
        let path = self.entry_path(spec, config);
        let loaded = read_dataset_file(&path, fingerprint(spec, config), &spec.name)?;
        if loaded.is_some() {
            // LRU touch (best-effort): a hit must protect its entry from
            // the size-budget sweep.
            if let Ok(file) = std::fs::File::open(&path) {
                // mtime is LRU metadata, not key material.
                let now = std::time::SystemTime::now();
                let _ = file.set_times(std::fs::FileTimes::new().set_modified(now));
            }
        }
        Ok(loaded)
    }

    /// Atomically writes one job's dataset into the store, then (with a
    /// budget configured) sweeps least-recently-used entries until the
    /// store fits. The entry just written is never evicted by its own
    /// sweep, so a store always serves at least the hottest job.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] on I/O failure writing the entry;
    /// sweep failures are swallowed (eviction is advisory).
    pub fn store(
        &self,
        ds: &DesignDataset,
        spec: &SyntheticSpec,
        config: &ExperimentConfig,
    ) -> Result<(), CoreError> {
        let path = self.entry_path(spec, config);
        write_dataset_file(&path, ds, fingerprint(spec, config))?;
        self.sweep_protecting(Some(&path));
        Ok(())
    }

    /// Runs the size-budget sweep now (a no-op without a budget): entries
    /// are evicted oldest-modified first until the store's `.popds` bytes
    /// fit the budget. Ties break by name so the sweep is deterministic.
    pub fn sweep(&self) {
        self.sweep_protecting(None);
    }

    fn sweep_protecting(&self, keep: Option<&Path>) {
        let Some(budget) = self.budget else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        // The sweep orders evictions by mtime; entry contents and keys
        // stay time-free.
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                if path.extension().and_then(|x| x.to_str()) != Some("popds") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let modified = meta.modified().ok()?;
                Some((modified, path, meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        files.sort(); // oldest first; path breaks timestamp ties
        for (_, path, len) in files {
            if total <= budget {
                break;
            }
            if keep.is_some_and(|k| k == path) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
            }
        }
    }

    /// The claim-file path guarding one entry's generation.
    fn claim_path(&self, spec: &SyntheticSpec, config: &ExperimentConfig) -> PathBuf {
        self.entry_path(spec, config).with_extension("claim")
    }

    /// Resolves one job against the store *with cross-process
    /// coordination*: a cache hit returns the dataset; a miss atomically
    /// claims the entry so concurrent cold runs over one cache directory
    /// do not all regenerate it. If another process holds the claim, this
    /// call **waits** — polling until the entry appears (then returns it
    /// as [`ClaimOutcome::Cached`]) or the claim is released or goes stale
    /// (then claims it). A stale claim (older than the staleness horizon —
    /// its owner crashed) is broken and taken over.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] when an existing entry cannot be
    /// opened or the claim file cannot be created for reasons other than
    /// already existing.
    pub fn begin(
        &self,
        spec: &SyntheticSpec,
        config: &ExperimentConfig,
    ) -> Result<ClaimOutcome, CoreError> {
        let claim = self.claim_path(spec, config);
        // Telemetry: how long this process sat behind another's claim
        // (zero probes on the uncontended path).
        let mut wait_start: Option<Instant> = None;
        let note_wait = |start: Option<Instant>| {
            if let Some(start) = start {
                let registry = pop_obs::global();
                registry.counter("cache.claim_waits").inc();
                registry
                    .histogram("cache.claim_wait_us")
                    .record_duration(start.elapsed());
            }
        };
        loop {
            // Probe the cache first: whoever held the claim may have
            // finished (this is the "second process waits, then streams
            // the first one's work" path).
            if let Some(ds) = self.load(spec, config)? {
                note_wait(wait_start);
                return Ok(ClaimOutcome::Cached(Box::new(ds)));
            }
            std::fs::create_dir_all(&self.dir)
                .map_err(|e| CoreError::Cache(format!("create {}: {e}", self.dir.display())))?;
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&claim)
            {
                Ok(mut file) => {
                    // Stamp the claim with this process + a nonce + its
                    // creation time: the time lets other processes judge
                    // staleness from content (mtime granularity and clock
                    // skew make content sturdier), and the full stamp lets
                    // release verify the claim is still *ours*.
                    // The claim stamp is wall time, not key material.
                    let now = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_secs())
                        .unwrap_or(0);
                    let nonce = TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let stamp = format!("{}.{} {}\n", std::process::id(), nonce, now);
                    let _ = file.write_all(stamp.as_bytes());
                    note_wait(wait_start);
                    return Ok(ClaimOutcome::Claimed(ClaimGuard { path: claim, stamp }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if self.claim_is_stale(&claim) {
                        // Owner crashed: break the claim and retry. The
                        // break is arbitrated by an atomic rename to a
                        // unique tombstone — exactly one waiter wins it
                        // (the losers' renames fail and they re-loop), so
                        // a delayed breaker can never delete the claim a
                        // *new* owner just created under the same name.
                        let tomb = claim.with_extension(format!(
                            "claim-stale.{}.{}",
                            std::process::id(),
                            TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                        ));
                        if std::fs::rename(&claim, &tomb).is_ok() {
                            let _ = std::fs::remove_file(&tomb);
                        }
                        continue;
                    }
                    // Claim-wait telemetry only.
                    wait_start.get_or_insert_with(std::time::Instant::now);
                    std::thread::sleep(CLAIM_POLL_INTERVAL);
                }
                Err(e) => return Err(CoreError::Cache(format!("claim {}: {e}", claim.display()))),
            }
        }
    }

    /// Whether the claim file at `path` is stamped further than the
    /// staleness horizon from now — behind it (the owner crashed) or ahead
    /// of it (a skewed clock; such a claim would otherwise never age) — or
    /// garbled, which also means "break it".
    fn claim_is_stale(&self, path: &Path) -> bool {
        let Ok(content) = std::fs::read_to_string(path) else {
            // Vanished: not stale, just released — the retry loop probes.
            return false;
        };
        let stamped = content
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u64>().ok());
        let Some(stamped) = stamped else {
            return true; // garbled claim: break it
        };
        // Stale-claim arbitration compares wall time against the stamp;
        // no fingerprint involvement.
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        now.abs_diff(stamped) > self.claim_stale_after.as_secs()
    }
}

/// Builds (or loads from `cache_dir`) the dataset for one preset.
///
/// # Errors
///
/// Propagates build and cache errors.
pub fn build_or_load(
    spec: &SyntheticSpec,
    config: &ExperimentConfig,
    cache_dir: Option<&Path>,
) -> Result<DesignDataset, CoreError> {
    let store = cache_dir.map(CorpusStore::new);
    if let Some(store) = &store {
        if let Some(ds) = store.load(spec, config)? {
            return Ok(ds);
        }
    }
    let ds = build_design_dataset(spec, config)?;
    if let Some(store) = &store {
        store.store(&ds, spec, config)?;
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_netlist::presets;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            pairs_per_design: 3,
            ..ExperimentConfig::test()
        }
    }

    #[test]
    fn build_dataset_has_expected_shapes() {
        let config = cfg();
        let ds = build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();
        assert_eq!(ds.pairs.len(), 3);
        for p in &ds.pairs {
            assert_eq!(p.x.shape(), [1, 4, 32, 32]);
            assert_eq!(p.y.shape(), [1, 3, 32, 32]);
            assert!(p.meta.true_mean_congestion > 0.0);
            assert!(p.meta.route_micros > 0);
        }
        assert!(ds.channel_width >= 4);
    }

    #[test]
    fn datasets_are_deterministic() {
        let config = cfg();
        let spec = presets::by_name("diffeq2").unwrap();
        let a = build_design_dataset(&spec, &config).unwrap();
        let b = build_design_dataset(&spec, &config).unwrap();
        // Everything but the wall-clock fields must be identical.
        assert_eq!(a.channel_width, b.channel_width);
        assert_eq!((a.grid_width, a.grid_height), (b.grid_width, b.grid_height));
        for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(pa.x, pb.x);
            assert_eq!(pa.y, pb.y);
            assert_eq!(pa.meta.place_seed, pb.meta.place_seed);
            assert_eq!(pa.meta.true_mean_congestion, pb.meta.true_mean_congestion);
        }
    }

    #[test]
    fn different_placements_have_different_congestion() {
        let config = ExperimentConfig {
            pairs_per_design: 4,
            ..cfg()
        };
        let ds = build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();
        let c0 = ds.pairs[0].meta.true_mean_congestion;
        assert!(
            ds.pairs
                .iter()
                .any(|p| (p.meta.true_mean_congestion - c0).abs() > 1e-6),
            "congestion must vary across placements"
        );
    }

    #[test]
    fn cache_roundtrip() {
        let config = cfg();
        let spec = presets::by_name("diffeq2").unwrap();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let dir = std::env::temp_dir().join("pop_core_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CorpusStore::new(&dir);
        store.store(&ds, &spec, &config).unwrap();
        let loaded = store.load(&spec, &config).unwrap().expect("cache hit");
        assert_eq!(ds, loaded);
        // Every PairMeta field survives the round trip, including the
        // wall-clock provenance (the paper's speedup denominators).
        for (orig, back) in ds.pairs.iter().zip(&loaded.pairs) {
            assert_eq!(orig.meta.design, back.meta.design);
            assert_eq!(orig.meta.index, back.meta.index);
            assert_eq!(orig.meta.place_seed, back.meta.place_seed);
            assert_eq!(
                orig.meta.true_mean_congestion.to_bits(),
                back.meta.true_mean_congestion.to_bits()
            );
            assert_eq!(
                orig.meta.true_max_congestion.to_bits(),
                back.meta.true_max_congestion.to_bits()
            );
            assert_eq!(orig.meta.route_micros, back.meta.route_micros);
            assert_eq!(orig.meta.place_micros, back.meta.place_micros);
        }
        // Stale fingerprint misses.
        let mut other = config.clone();
        other.resolution = 64;
        assert!(store.load(&spec, &other).unwrap().is_none());
    }

    #[test]
    fn cache_misses_when_any_scenario_parameter_changes() {
        let config = cfg();
        let spec = presets::by_name("diffeq2").unwrap();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let dir = std::env::temp_dir().join("pop_core_cache_scenario_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CorpusStore::new(&dir);
        store.store(&ds, &spec, &config).unwrap();

        // Spec-side scenario knobs (same design name, but the data would
        // differ): fanout profile, locality, seed, net budget.
        for mutate in [
            |s: &mut pop_netlist::SyntheticSpec| s.mean_fanout += 0.5,
            |s: &mut pop_netlist::SyntheticSpec| s.locality = 0.1,
            |s: &mut pop_netlist::SyntheticSpec| s.seed ^= 1,
            |s: &mut pop_netlist::SyntheticSpec| s.nets += 1,
        ] {
            let mut other = spec.clone();
            mutate(&mut other);
            assert!(
                store.load(&other, &config).unwrap().is_none(),
                "stale cache served for mutated spec"
            );
        }
        // Config-side scenario knobs: fabric density and aspect.
        for mutate in [
            |c: &mut ExperimentConfig| c.fabric_slack = 1.1,
            |c: &mut ExperimentConfig| c.fabric_aspect = 2.0,
            |c: &mut ExperimentConfig| c.seed += 1,
        ] {
            let mut other = config.clone();
            mutate(&mut other);
            assert!(
                store.load(&spec, &other).unwrap().is_none(),
                "stale cache served for mutated config"
            );
        }
        // The untouched scenario still hits.
        assert!(store.load(&spec, &config).unwrap().is_some());
    }

    #[test]
    fn fingerprints_outlive_the_placement_strategy_option() {
        // Captured at the commit before the config's placement-strategy
        // field was deleted: corpora written before then must stay warm.
        let spec = presets::by_name("diffeq2").unwrap();
        assert_eq!(
            fingerprint(&spec, &ExperimentConfig::test()),
            0xacbe_6007_f11e_d582
        );
    }

    #[test]
    fn staged_context_reproduces_the_dataset_driver() {
        // The invariant the parallel pipeline rests on: driving the
        // DesignContext stages by hand (in any grouping) produces the same
        // pairs as build_design_dataset.
        let config = cfg();
        let spec = presets::by_name("diffeq2").unwrap();
        let whole = build_design_dataset(&spec, &config).unwrap();
        let ctx = DesignContext::prepare(&spec, &config).unwrap();
        let opts = ctx.sweep_options();
        assert_eq!(opts.len(), config.pairs_per_design);
        // Generate out of order to prove order-independence.
        let mut staged: Vec<(usize, Pair)> = opts
            .iter()
            .enumerate()
            .rev()
            .map(|(i, o)| (i, ctx.generate_pair(i, o).unwrap()))
            .collect();
        staged.sort_by_key(|(i, _)| *i);
        for ((_, s), w) in staged.iter().zip(&whole.pairs) {
            assert_eq!(s.without_timings(), w.without_timings());
        }
        let ds = ctx.into_dataset(staged.into_iter().map(|(_, p)| p).collect());
        assert_eq!(ds.name, whole.name);
        assert_eq!(ds.channel_width, whole.channel_width);
        assert_eq!(
            (ds.grid_width, ds.grid_height),
            (whole.grid_width, whole.grid_height)
        );
    }

    #[test]
    fn without_timings_zeroes_only_the_clock_fields() {
        let config = cfg();
        let ds = build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();
        let p = &ds.pairs[0];
        let t = p.without_timings();
        assert_eq!(t.meta.route_micros, 0);
        assert_eq!(t.meta.place_micros, 0);
        assert_eq!(t.x, p.x);
        assert_eq!(t.y, p.y);
        assert_eq!(t.meta.design, p.meta.design);
        assert_eq!(t.meta.place_seed, p.meta.place_seed);
    }

    #[test]
    fn augmentation_triples_and_stays_consistent() {
        let config = cfg();
        let ds = build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();
        let aug = augment_flips(&ds.pairs);
        assert_eq!(aug.len(), ds.pairs.len() * 3);
        // The h-flipped copy of pair 0 flips back to the original.
        let flipped = &aug[ds.pairs.len()];
        assert_eq!(flipped.x.flipped_w(), ds.pairs[0].x);
        assert_eq!(flipped.y.flipped_w(), ds.pairs[0].y);
        assert!(flipped.meta.design.ends_with("hflip"));
        // Ground-truth scalars are flip-invariant and preserved.
        assert_eq!(
            flipped.meta.true_mean_congestion,
            ds.pairs[0].meta.true_mean_congestion
        );
    }

    #[test]
    fn corpus_store_keeps_scenario_variants_of_one_design_side_by_side() {
        // Two scenarios may share a design name: the store keys by
        // fingerprint too.
        let spec = presets::by_name("diffeq2").unwrap();
        let config_a = cfg();
        let config_b = ExperimentConfig {
            fabric_slack: 1.1,
            ..config_a.clone()
        };
        let ds_a = build_design_dataset(&spec, &config_a).unwrap();
        let ds_b = build_design_dataset(&spec, &config_b).unwrap();
        let dir = std::env::temp_dir().join("pop_corpus_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CorpusStore::new(&dir);
        assert_ne!(
            store.entry_path(&spec, &config_a),
            store.entry_path(&spec, &config_b)
        );
        store.store(&ds_a, &spec, &config_a).unwrap();
        store.store(&ds_b, &spec, &config_b).unwrap();
        assert_eq!(store.load(&spec, &config_a).unwrap().unwrap(), ds_a);
        assert_eq!(store.load(&spec, &config_b).unwrap().unwrap(), ds_b);
        // A third scenario misses without disturbing the other two.
        let config_c = ExperimentConfig {
            seed: 99,
            ..config_a.clone()
        };
        assert!(store.load(&spec, &config_c).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_store_budget_sweep_evicts_least_recently_used() {
        let spec = presets::by_name("diffeq2").unwrap();
        let configs: Vec<ExperimentConfig> = (0..3)
            .map(|i| ExperimentConfig {
                seed: 100 + i,
                ..cfg()
            })
            .collect();
        let datasets: Vec<DesignDataset> = configs
            .iter()
            .map(|c| build_design_dataset(&spec, c).unwrap())
            .collect();
        let dir = std::env::temp_dir().join("pop_corpus_store_budget_test");
        let _ = std::fs::remove_dir_all(&dir);

        // Write all three entries unbounded, then judge them with a
        // budget sized to hold two but not three.
        let unbounded = CorpusStore::new(&dir);
        for (c, d) in configs.iter().zip(&datasets) {
            unbounded.store(d, &spec, c).unwrap();
        }
        let entry_bytes = std::fs::metadata(unbounded.entry_path(&spec, &configs[0]))
            .unwrap()
            .len();
        let store = CorpusStore::new(&dir).with_budget(entry_bytes * 2 + entry_bytes / 2);
        assert_eq!(store.budget(), Some(entry_bytes * 2 + entry_bytes / 2));

        // Make entry ages unambiguous (mtime granularity can be coarse).
        let age = |path: &std::path::Path, secs_ago: u64| {
            let t = std::time::SystemTime::now() - std::time::Duration::from_secs(secs_ago);
            std::fs::File::open(path)
                .unwrap()
                .set_times(std::fs::FileTimes::new().set_modified(t))
                .unwrap();
        };
        age(&store.entry_path(&spec, &configs[0]), 300);
        age(&store.entry_path(&spec, &configs[1]), 200);
        age(&store.entry_path(&spec, &configs[2]), 100);

        // A load touches entry 1, making entry 0 the LRU victim.
        assert!(store.load(&spec, &configs[1]).unwrap().is_some());
        store.sweep();
        assert!(
            store.load(&spec, &configs[0]).unwrap().is_none(),
            "LRU entry must be evicted"
        );
        assert!(store.load(&spec, &configs[1]).unwrap().is_some());
        assert!(store.load(&spec, &configs[2]).unwrap().is_some());

        // A store's own sweep never evicts the entry it just wrote, even
        // under a budget smaller than one entry.
        let tiny = CorpusStore::new(&dir).with_budget(1);
        tiny.store(&datasets[0], &spec, &configs[0]).unwrap();
        assert!(tiny.load(&spec, &configs[0]).unwrap().is_some());
        assert!(tiny.load(&spec, &configs[1]).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_store_claims_serialize_concurrent_generation() {
        let spec = presets::by_name("diffeq2").unwrap();
        let config = cfg();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let dir = std::env::temp_dir().join("pop_corpus_store_claim_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CorpusStore::new(&dir);

        // First caller claims; the guard's claim file exists.
        let claim = match store.begin(&spec, &config).unwrap() {
            ClaimOutcome::Claimed(guard) => guard,
            other => panic!("fresh store must hand out a claim, got {other:?}"),
        };
        assert!(store.claim_path(&spec, &config).exists());

        // A concurrent caller (same dir, another "process") blocks until
        // the owner stores the entry and releases — then streams it from
        // disk instead of regenerating.
        let waiter = {
            let store = store.clone();
            let (spec, config) = (spec.clone(), config.clone());
            std::thread::spawn(move || store.begin(&spec, &config).unwrap())
        };
        std::thread::sleep(std::time::Duration::from_millis(120));
        assert!(!waiter.is_finished(), "waiter must block on a live claim");
        store.store(&ds, &spec, &config).unwrap();
        drop(claim);
        match waiter.join().unwrap() {
            ClaimOutcome::Cached(got) => assert_eq!(*got, ds),
            other => panic!("waiter must receive the cached entry, got {other:?}"),
        }
        assert!(
            !store.claim_path(&spec, &config).exists(),
            "dropping the guard must release the claim"
        );

        // A cached entry resolves without claiming at all.
        match store.begin(&spec, &config).unwrap() {
            ClaimOutcome::Cached(got) => assert_eq!(*got, ds),
            other => panic!("warm store must resolve to Cached, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_garbled_claims_are_broken_and_taken_over() {
        let spec = presets::by_name("diffeq2").unwrap();
        let config = cfg();
        let dir = std::env::temp_dir().join("pop_corpus_store_stale_claim_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            CorpusStore::new(&dir).with_claim_stale_after(std::time::Duration::from_secs(5));
        std::fs::create_dir_all(&dir).unwrap();

        // A claim stamped far in the past (its owner crashed): taken over.
        let old = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_secs()
            - 60;
        std::fs::write(store.claim_path(&spec, &config), format!("9999 {old}\n")).unwrap();
        match store.begin(&spec, &config).unwrap() {
            ClaimOutcome::Claimed(_) => {}
            other => panic!("stale claim must be broken, got {other:?}"),
        }

        // A garbled claim file is equally broken.
        std::fs::write(store.claim_path(&spec, &config), "not a claim").unwrap();
        match store.begin(&spec, &config).unwrap() {
            ClaimOutcome::Claimed(_) => {}
            other => panic!("garbled claim must be broken, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_claim_stamped_in_the_future_is_broken_too() {
        // A crashed owner with a skewed clock (or anything that wrote a
        // huge stamp): `now - stamp` saturates to zero, so the claim used
        // to look fresh forever and every waiter polled without end.
        let spec = presets::by_name("diffeq2").unwrap();
        let config = cfg();
        let dir = std::env::temp_dir().join("pop_corpus_store_future_claim_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            CorpusStore::new(&dir).with_claim_stale_after(std::time::Duration::from_secs(1));
        std::fs::create_dir_all(&dir).unwrap();
        let stamp = format!("1.1 {}\n", u64::MAX);
        std::fs::write(store.claim_path(&spec, &config), stamp).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(store.begin(&spec, &config)));
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(Ok(ClaimOutcome::Claimed(_))) => {}
            other => panic!("a future-stamped claim must be broken, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn releasing_a_superseded_claim_never_deletes_the_new_owners() {
        // A very slow (but alive) owner whose claim went stale and was
        // taken over must not, on release, delete the claim the *new*
        // owner now holds under the same path.
        let spec = presets::by_name("diffeq2").unwrap();
        let config = cfg();
        let dir = std::env::temp_dir().join("pop_corpus_store_superseded_claim_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CorpusStore::new(&dir);
        let slow_owner = match store.begin(&spec, &config).unwrap() {
            ClaimOutcome::Claimed(guard) => guard,
            other => panic!("fresh store must hand out a claim, got {other:?}"),
        };
        let path = store.claim_path(&spec, &config);
        // Simulate the takeover: the claim file now carries another
        // process's stamp.
        std::fs::write(&path, "4242.0 1\n").unwrap();
        drop(slow_owner);
        assert!(
            path.exists(),
            "a superseded guard must leave the new owner's claim in place"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_are_atomic_and_leave_no_temp_droppings() {
        let config = cfg();
        let spec = presets::by_name("diffeq2").unwrap();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let dir = std::env::temp_dir().join("pop_cache_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CorpusStore::new(&dir);
        store.store(&ds, &spec, &config).unwrap();
        let names: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(names, vec![store.entry_path(&spec, &config)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_cache_files_are_treated_as_stale() {
        let config = cfg();
        let spec = presets::by_name("diffeq2").unwrap();
        let ds = build_design_dataset(&spec, &config).unwrap();
        let dir = std::env::temp_dir().join("pop_cache_truncate_unit_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CorpusStore::new(&dir);
        store.store(&ds, &spec, &config).unwrap();
        let path = store.entry_path(&spec, &config);
        let bytes = std::fs::read(&path).unwrap();
        // A sample of cut points across the header and first pair record;
        // the integration suite sweeps every byte.
        for cut in [0usize, 7, 8, 15, 16, 19, 27, 31, 40, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                store.load(&spec, &config).unwrap().is_none(),
                "truncation at {cut} must be a miss, not an error"
            );
        }
        // Restoring the full file restores the hit.
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&spec, &config).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_headers_cannot_trigger_huge_allocations() {
        let config = cfg();
        let spec = presets::by_name("diffeq2").unwrap();
        let dir = std::env::temp_dir().join("pop_cache_bounds_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = CorpusStore::new(&dir);
        let path = store.entry_path(&spec, &config);
        // Valid magic + fingerprint followed by an absurd pair count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&fingerprint(&spec, &config).to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // pair count
        bytes.extend_from_slice(&[0u8; 12]); // widths
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&spec, &config).unwrap().is_none());
        // Same for a pair record claiming a gigantic tensor dimension.
        let ds = build_design_dataset(&spec, &config).unwrap();
        store.store(&ds, &spec, &config).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First tensor shape field of pair 0 sits after the dataset header
        // (32 bytes) and the pair meta (4 + name + 4 + 8 + 4 + 4 + 8 + 8).
        let shape_off = 32 + 4 + "diffeq2".len() + 36;
        bytes[shape_off..shape_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&spec, &config).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pair_records_round_trip_via_the_shared_layout() {
        let config = cfg();
        let ds = build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();
        let mut buf = Vec::new();
        for p in &ds.pairs {
            write_pair(&mut buf, p).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for p in &ds.pairs {
            assert_eq!(&read_pair(&mut r).unwrap(), p);
        }
    }

    #[test]
    fn leave_one_out_partitions() {
        let config = cfg();
        let d1 = build_design_dataset(&presets::by_name("diffeq1").unwrap(), &config).unwrap();
        let d2 = build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();
        let all = vec![d1, d2];
        let (train, test) = leave_one_out(&all, "diffeq1");
        assert_eq!(test.name, "diffeq1");
        assert_eq!(train.len(), 3);
        assert!(train.iter().all(|p| p.meta.design == "diffeq2"));
    }
}
