//! Byte goldens for the on-disk formats: a `.popds` corpus entry, a
//! `.pope` epoch spill and both checkpoint flavours, each written from
//! fixed inputs and pinned as the length and FNV-1a of its exact bytes.
//! (The `.popbl` golden lives beside its private writer in `baseline.rs`.)
//!
//! A refactor of the codecs must leave every value here untouched: a
//! moved byte orphans every cache and checkpoint already on disk. The
//! inputs carry no wall-clock fields, so the bytes are a pure function of
//! the code.

use painting_on_placement as pop;
use pop::core::dataset::{CorpusStore, DesignDataset, Pair, PairMeta};
use pop::core::{model_io, ExperimentConfig, Pix2Pix};
use pop::netlist::presets;
use pop::nn::Tensor;
use pop::pipeline::EpochRing;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a, spelled out here so the pin does not depend on the
/// workspace's own hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), fnv1a(&bytes))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pop_format_golden_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Exactly representable values, so no float formatting or libm enters.
fn tensor(channels: usize, side: usize, offset: usize) -> Tensor {
    let len = channels * side * side;
    let data = (0..len)
        .map(|k| ((k * 7 + offset) % 61) as f32 / 8.0 - 3.5)
        .collect();
    Tensor::from_vec([1, channels, side, side], data)
}

fn pairs() -> Vec<Pair> {
    (0..3)
        .map(|i| Pair {
            x: tensor(4, 8, i),
            y: tensor(3, 8, 100 + i),
            meta: PairMeta {
                design: format!("golden-{i}"),
                true_mean_congestion: 0.25 * i as f32,
                true_max_congestion: 1.5 + i as f32,
                ..PairMeta::synthetic(40 + i as u64)
            },
        })
        .collect()
}

#[test]
fn corpus_entry_bytes_are_pinned() {
    let dir = scratch("popds");
    let store = CorpusStore::new(&dir);
    let spec = presets::by_name("diffeq2").unwrap();
    let config = ExperimentConfig::test();
    let ds = DesignDataset {
        name: spec.name.clone(),
        pairs: pairs(),
        channel_width: 12,
        grid_width: 9,
        grid_height: 7,
    };
    store.store(&ds, &spec, &config).unwrap();
    assert_eq!(
        pin(&store.entry_path(&spec, &config)),
        (5_648, 0x0bda_3c90_6c1c_dcf3)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_spill_bytes_are_pinned() {
    let dir = scratch("pope");
    let ring = EpochRing::new(&dir, 4);
    ring.store_epoch(0x0123_4567_89ab_cdef, 2, &pairs())
        .unwrap();
    assert_eq!(
        pin(&dir.join("epoch-000002.pope")),
        (5_644, 0x3575_5ba4_9517_9ec8)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let dir = scratch("ckpt");
    let mut model = Pix2Pix::new(&ExperimentConfig::test(), 7).unwrap();
    let (weights, full) = (dir.join("weights.ckpt"), dir.join("full.ckpt"));
    model_io::save_model(&mut model, &weights).unwrap();
    model_io::save_checkpoint(&mut model, &full).unwrap();
    assert_eq!(pin(&weights), (148_265, 0x210e_a362_1be4_5b7f));
    assert_eq!(pin(&full), (442_937, 0xbf98_c9e8_5ca4_092e));
    let _ = std::fs::remove_dir_all(&dir);
}
