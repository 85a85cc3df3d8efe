//! Decoding an `L`-byte cache or checkpoint file allocates at most about
//! `4·L` bytes plus a small fixed slack, whatever its header claims: every
//! count is checked against the bytes the file has left before it sizes
//! an allocation. Crafted headers claim a million pairs, a gigabyte
//! tensor or a million baseline records in a few dozen bytes; valid files
//! show the bound leaves room for honest data. Counted with a
//! `#[global_allocator]`, which is why this test has a binary to itself
//! (the counters are the calling thread's).

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::{heap_use, Counting};

use painting_on_placement as pop;
use pop::core::baseline::{read_baseline_file, write_baseline_file};
use pop::core::dataset::{fingerprint, CorpusStore, DesignDataset, Pair, PairMeta};
use pop::core::{model_io, ExperimentConfig, PairEval, Pix2Pix};
use pop::netlist::presets;
use pop::nn::Tensor;
use pop::pipeline::EpochRing;
use std::path::Path;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The buffered reader's 8 KiB, plus paths and error messages.
const SLACK: usize = 16 * 1024;

/// Little-endian bytes of each value, concatenated.
fn le(fields: &[&[u8]]) -> Vec<u8> {
    fields.concat()
}

/// The fixed pair-meta fields after an empty design name: index, seed,
/// two congestions, two timings.
const META: [u8; 36] = [0; 36];

fn dims(d: [u32; 4]) -> Vec<u8> {
    d.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Writes `bytes` to `path`, then counts what `decode` allocates.
fn decode_cost(path: &Path, bytes: &[u8], decode: impl FnOnce()) -> usize {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, bytes).unwrap();
    heap_use(decode).0
}

#[test]
fn decoding_allocates_at_most_four_times_the_file() {
    let dir = std::env::temp_dir().join("pop_decode_allocs");
    let _ = std::fs::remove_dir_all(&dir);
    let mut over = Vec::new();
    let mut check = |what: &str, len: usize, bytes: usize| {
        println!("{what}: {len}-byte file, {bytes} bytes allocated");
        if bytes > 4 * len + SLACK {
            over.push(format!("{what}: {len}-byte file allocated {bytes} bytes"));
        }
    };

    // `.popds`: POPDS004 ‖ fingerprint ‖ pairs ‖ three widths ‖ records.
    let store = CorpusStore::new(dir.join("store"));
    let spec = presets::by_name("diffeq2").unwrap();
    let config = ExperimentConfig::test();
    let path = store.entry_path(&spec, &config);
    let head = |n: u32| {
        le(&[
            b"POPDS004",
            &fingerprint(&spec, &config).to_le_bytes(),
            &n.to_le_bytes(),
            &[0; 12],
        ])
    };
    let crafted = [
        ("popds: 2^20 pairs", head(1 << 20)),
        ("popds: u32::MAX pairs", head(u32::MAX)),
        (
            "popds: 2^28-element tensor",
            le(&[
                &head(1),
                &0u32.to_le_bytes(),
                &META,
                &dims([1, 1, 1 << 14, 1 << 14]),
            ]),
        ),
        (
            "popds: 4096-byte name",
            le(&[&head(1), &4096u32.to_le_bytes()]),
        ),
    ];
    for (what, bytes) in &crafted {
        let cost = decode_cost(&path, bytes, || {
            assert!(store.load(&spec, &config).unwrap().is_none(), "{what}");
        });
        check(what, bytes.len(), cost);
    }
    // The densest honest file: pairs of empty tensors, the smallest
    // record there is, so the pair vector itself is most of the cost.
    let record = le(&[&0u32.to_le_bytes(), &META, &dims([0; 4]), &dims([0; 4])]);
    let minimal = le(&[&head(1000), &record.repeat(1000)]);
    let cost = decode_cost(&path, &minimal, || {
        assert!(store.load(&spec, &config).unwrap().is_some());
    });
    check("popds: 1000 minimal pairs", minimal.len(), cost);
    let pairs: Vec<Pair> = (0..3)
        .map(|i| Pair {
            x: Tensor::randn([1, 4, 16, 16], 0.0, 1.0, i),
            y: Tensor::randn([1, 3, 16, 16], 0.0, 1.0, i + 10),
            meta: PairMeta::synthetic(i),
        })
        .collect();
    let ds = DesignDataset {
        name: spec.name.clone(),
        pairs: pairs.clone(),
        channel_width: 6,
        grid_width: 5,
        grid_height: 4,
    };
    store.store(&ds, &spec, &config).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let cost = decode_cost(&path, &valid, || {
        assert!(store.load(&spec, &config).unwrap().is_some());
    });
    check("popds: valid", valid.len(), cost);

    // `.pope`: POPRING1 ‖ key ‖ epoch ‖ pairs ‖ records.
    let ring = EpochRing::new(dir.join("ring"), 2);
    let path = ring.dir().join("epoch-000000.pope");
    let head = |n: u32| le(&[b"POPRING1", &7u64.to_le_bytes(), &[0; 8], &n.to_le_bytes()]);
    let crafted = [
        ("pope: 2^20 pairs", head(1 << 20)),
        (
            "pope: 2^28-element tensor",
            le(&[
                &head(1),
                &0u32.to_le_bytes(),
                &META,
                &dims([1 << 14, 1 << 14, 1, 1]),
            ]),
        ),
    ];
    for (what, bytes) in &crafted {
        let cost = decode_cost(&path, bytes, || {
            assert!(ring.load_epoch(7, 0).is_none(), "{what}");
        });
        check(what, bytes.len(), cost);
    }
    ring.store_epoch(7, 0, &pairs).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let cost = decode_cost(&path, &valid, || {
        assert!(ring.load_epoch(7, 0).is_some());
    });
    check("pope: valid", valid.len(), cost);

    // `.popbl`: POPBL01\n ‖ key ‖ calibration ‖ records ‖ five f32 each.
    let path = dir.join("baseline.popbl");
    let crafted = le(&[
        b"POPBL01\n",
        &9u64.to_le_bytes(),
        &[0; 4],
        &(1u32 << 20).to_le_bytes(),
    ]);
    let cost = decode_cost(&path, &crafted, || {
        assert!(read_baseline_file(&path, 9, 1 << 20).is_none());
    });
    check("popbl: 2^20 records", crafted.len(), cost);
    let evals = vec![
        PairEval {
            accuracy: 0.5,
            channel_accuracy: 0.5,
            nrms: 0.5,
            pred_congestion: 0.5,
            true_congestion: 0.5,
        };
        8
    ];
    write_baseline_file(&path, 9, &evals, 1.0).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let cost = decode_cost(&path, &valid, || {
        assert!(read_baseline_file(&path, 9, 8).is_some());
    });
    check("popbl: valid", valid.len(), cost);

    // Checkpoints: the model fixes every count, so what a load allocates
    // beyond building the model is all the file can cost.
    let model_config = ExperimentConfig {
        resolution: 8,
        base_filters: 1,
        depth: 1,
        ..ExperimentConfig::test()
    };
    let (model_cost, _, _) = heap_use(|| Pix2Pix::new(&model_config, 0).unwrap());
    let path = dir.join("model.ckpt");
    model_io::save_checkpoint(&mut Pix2Pix::new(&model_config, 1).unwrap(), &path).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let crafted = le(&[
        &valid[..17],
        &u32::MAX.to_le_bytes(),
        &u32::MAX.to_le_bytes(),
    ]);
    for (what, bytes) in [
        ("checkpoint: u32::MAX tensors", &crafted),
        ("checkpoint: valid", &valid),
    ] {
        let cost = decode_cost(&path, bytes, || {
            let loaded = model_io::load_checkpoint(&model_config, &path);
            assert_eq!(loaded.is_ok(), what.ends_with("valid"), "{what}");
        });
        check(what, bytes.len(), cost.saturating_sub(model_cost));
    }

    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        over.is_empty(),
        "over the 4·L + slack bound:\n{}",
        over.join("\n")
    );
}
