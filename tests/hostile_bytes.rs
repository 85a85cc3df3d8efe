//! One hostile-bytes harness over the four on-disk decoders — `.popds`
//! corpus entries, `.pope` epoch spills, `.popbl` baseline records and
//! model checkpoints — in the pattern of the HTTP parser and JSON reader
//! fuzz suites: one table of formats, every property run over all of
//! them.
//!
//! Damage is a miss for the three caches (the caller regenerates the
//! entry) and an `Err` for a checkpoint; it is never a panic, and never a
//! hit. Damage here means a cut at any byte, one appended byte, arbitrary
//! bytes after a valid header, and arbitrary bytes written over a valid
//! file.

use painting_on_placement as pop;
use pop::core::baseline::{read_baseline_file, write_baseline_file};
use pop::core::dataset::{CorpusStore, DesignDataset, Pair, PairMeta};
use pop::core::{model_io, ExperimentConfig, PairEval, Pix2Pix};
use pop::netlist::presets;
use pop::nn::Tensor;
use pop::pipeline::EpochRing;
use proptest::prelude::*;
use std::path::PathBuf;

/// What one decode of the file on disk came back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    Err,
}

/// One format: where its file lives, a valid file's bytes, how long the
/// header is, and the format's own decoder.
struct Format {
    name: &'static str,
    path: PathBuf,
    valid: Vec<u8>,
    header_len: usize,
    /// What damage must read as.
    damage: Outcome,
    decode: Box<dyn Fn() -> Outcome>,
}

impl Format {
    /// Decodes `bytes` as this format's file.
    fn decode(&self, bytes: &[u8]) -> Outcome {
        std::fs::write(&self.path, bytes).unwrap();
        (self.decode)()
    }
}

fn pairs() -> Vec<Pair> {
    (0..2)
        .map(|i| Pair {
            x: Tensor::randn([1, 2, 2, 2], 0.0, 1.0, i),
            y: Tensor::randn([1, 1, 2, 2], 0.0, 1.0, i + 10),
            meta: PairMeta::synthetic(i),
        })
        .collect()
}

/// The four formats, each with a valid file written under a scratch
/// directory named by `tag`.
fn formats(tag: &str) -> Vec<Format> {
    let dir = std::env::temp_dir().join(format!("pop_hostile_bytes_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);

    let store = CorpusStore::new(dir.join("store"));
    let spec = presets::by_name("diffeq2").unwrap();
    let config = ExperimentConfig::test();
    let ds = DesignDataset {
        name: spec.name.clone(),
        pairs: pairs(),
        channel_width: 6,
        grid_width: 5,
        grid_height: 4,
    };
    store.store(&ds, &spec, &config).unwrap();
    let popds = store.entry_path(&spec, &config);

    let ring = EpochRing::new(dir.join("ring"), 2);
    ring.store_epoch(7, 0, &pairs()).unwrap();
    let pope = ring.dir().join("epoch-000000.pope");

    let popbl = dir.join("baseline.popbl");
    let evals = vec![
        PairEval {
            accuracy: 0.5,
            channel_accuracy: 0.25,
            nrms: 0.125,
            pred_congestion: 0.75,
            true_congestion: 0.625,
        };
        3
    ];
    write_baseline_file(&popbl, 9, &evals, 1.5).unwrap();

    let ckpt_config = ExperimentConfig {
        resolution: 8,
        base_filters: 1,
        depth: 1,
        ..ExperimentConfig::test()
    };
    let ckpt = dir.join("model.ckpt");
    model_io::save_model(&mut Pix2Pix::new(&ckpt_config, 3).unwrap(), &ckpt).unwrap();

    let read = |path: &PathBuf| std::fs::read(path).unwrap();
    vec![
        Format {
            name: ".popds",
            valid: read(&popds),
            path: popds,
            header_len: 16,
            damage: Outcome::Miss,
            decode: Box::new(move || match store.load(&spec, &config) {
                Ok(Some(_)) => Outcome::Hit,
                Ok(None) => Outcome::Miss,
                Err(_) => Outcome::Err,
            }),
        },
        Format {
            name: ".pope",
            valid: read(&pope),
            path: pope,
            header_len: 16,
            damage: Outcome::Miss,
            decode: Box::new(move || match ring.load_epoch(7, 0) {
                Some(_) => Outcome::Hit,
                None => Outcome::Miss,
            }),
        },
        Format {
            name: ".popbl",
            valid: read(&popbl),
            path: popbl.clone(),
            header_len: 16,
            damage: Outcome::Miss,
            decode: Box::new(move || match read_baseline_file(&popbl, 9, 3) {
                Some(_) => Outcome::Hit,
                None => Outcome::Miss,
            }),
        },
        Format {
            name: "checkpoint",
            valid: read(&ckpt),
            path: ckpt.clone(),
            // Magic, configuration key and the train-state flag.
            header_len: 17,
            damage: Outcome::Err,
            decode: Box::new(
                move || match model_io::load_checkpoint(&ckpt_config, &ckpt) {
                    Ok(_) => Outcome::Hit,
                    Err(_) => Outcome::Err,
                },
            ),
        },
    ]
}

/// Runs `case` over every format and reports every format it failed
/// for, not just the first.
fn for_each_format(tag: &str, case: impl Fn(&Format) -> Result<(), String>) {
    let failed: Vec<String> = formats(tag).iter().filter_map(|f| case(f).err()).collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// `Err` naming the format when `bytes` does not decode to `want`.
fn expect(f: &Format, bytes: &[u8], want: Outcome, what: &str) -> Result<(), String> {
    let got = f.decode(bytes);
    if got == want {
        Ok(())
    } else {
        Err(format!("{} {what}: {got:?}, want {want:?}", f.name))
    }
}

#[test]
fn every_truncation_is_damage() {
    for_each_format("truncation", |f| {
        for cut in 0..f.valid.len() {
            let what = format!("cut at byte {cut} of {}", f.valid.len());
            expect(f, &f.valid[..cut], f.damage, &what)?;
        }
        expect(f, &f.valid, Outcome::Hit, "whole file")
    });
}

#[test]
fn one_appended_byte_is_damage() {
    for_each_format("appended", |f| {
        for extra in [0u8, 0xff] {
            let mut bytes = f.valid.clone();
            bytes.push(extra);
            expect(f, &bytes, f.damage, &format!("+ {extra:#04x}"))?;
        }
        expect(f, &f.valid, Outcome::Hit, "whole file")
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A valid header followed by arbitrary bytes decodes to an answer:
    /// damage, or (should the bytes happen to form a file) a hit.
    #[test]
    fn arbitrary_bytes_after_a_valid_header_are_total(
        len in 0usize..=96,
        tail in collection::vec(0u8..=255, 96),
    ) {
        for f in formats("tail") {
            let mut bytes = f.valid[..f.header_len].to_vec();
            bytes.extend_from_slice(&tail[..len]);
            let got = f.decode(&bytes);
            prop_assert!(got == f.damage || got == Outcome::Hit, "{}: {got:?}", f.name);
        }
    }

    /// Arbitrary bytes written over a valid file — into counts, shapes,
    /// names and bodies alike — decode to an answer too.
    #[test]
    fn arbitrary_bytes_over_a_valid_file_are_total(
        at in collection::vec(0usize..4096, 4),
        with in collection::vec(0u8..=255, 4),
    ) {
        for f in formats("overwrite") {
            let mut bytes = f.valid.clone();
            for (&i, &b) in at.iter().zip(&with) {
                let i = i % bytes.len();
                bytes[i] = b;
            }
            let got = f.decode(&bytes);
            prop_assert!(got == f.damage || got == Outcome::Hit, "{}: {got:?}", f.name);
        }
    }
}
