//! Integration: the dataset disk cache loads back exactly what was built,
//! misses on config changes without evicting the entry it missed, and
//! **survives crashes**: a `.popds` truncated at *any* byte (the relic of
//! a killed writer under the pre-atomic-rename format, or of disk-full
//! corruption) must read as a miss that the pipeline silently regenerates
//! — never a hard error, never a poisoned cache.

use painting_on_placement as pop;
use pop::core::dataset::{self, CorpusStore};
use pop::core::ExperimentConfig;
use pop::netlist::presets;

#[test]
fn build_or_load_is_transparent() {
    let config = ExperimentConfig {
        pairs_per_design: 3,
        ..ExperimentConfig::test()
    };
    let spec = presets::by_name("diffeq1").unwrap();
    let dir = std::env::temp_dir().join("pop_integration_cache");
    let _ = std::fs::remove_dir_all(&dir);

    let built = dataset::build_or_load(&spec, &config, Some(&dir)).unwrap();
    // Second call must hit the cache and round-trip identically.
    let loaded = dataset::build_or_load(&spec, &config, Some(&dir)).unwrap();
    assert_eq!(built, loaded);

    // Changing a data-affecting knob misses the cache entry.
    let other = ExperimentConfig {
        lambda_connect: 0.5,
        ..config.clone()
    };
    let rebuilt = dataset::build_or_load(&spec, &other, Some(&dir)).unwrap();
    assert_ne!(
        built.pairs[0].x.data(),
        rebuilt.pairs[0].x.data(),
        "λ change must alter the connectivity channel"
    );
    // Two configs of one design share the directory without evicting each
    // other: both are warm now (equal down to the recorded wall clocks).
    let store = CorpusStore::new(&dir);
    for (config, first) in [(&config, &built), (&other, &rebuilt)] {
        assert!(store.load(&spec, config).unwrap().is_some());
        let again = dataset::build_or_load(&spec, config, Some(&dir)).unwrap();
        assert_eq!(&again, first);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_is_a_miss_and_the_pipeline_regenerates() {
    // Small resolution keeps the file a few KB so sweeping every byte
    // stays fast even in debug builds.
    let config = ExperimentConfig {
        pairs_per_design: 2,
        resolution: 16,
        ..ExperimentConfig::test()
    };
    let spec = presets::by_name("diffeq2").unwrap();
    let dir = std::env::temp_dir().join("pop_integration_cache_crash");
    let _ = std::fs::remove_dir_all(&dir);
    let built = dataset::build_or_load(&spec, &config, Some(&dir)).unwrap();
    let store = CorpusStore::new(&dir);
    let path = store.entry_path(&spec, &config);
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.len() > 64, "sanity: real payload");

    // Crash injection: cut the file at every byte boundary — which covers
    // every *field* boundary of the format (magic, fingerprint, counts,
    // per-pair meta, tensor headers, tensor payloads). Every single cut
    // must load as Ok(None): regenerate, don't error, don't over-allocate.
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match store.load(&spec, &config) {
            Ok(None) => {}
            Ok(Some(_)) => panic!("truncation at byte {cut} read back as a full dataset"),
            Err(e) => panic!("truncation at byte {cut} must be a miss, got error: {e}"),
        }
        // And the build_or_load path heals the entry transparently...
        if cut == bytes.len() / 2 {
            let rebuilt = dataset::build_or_load(&spec, &config, Some(&dir)).unwrap();
            assert_eq!(rebuilt.pairs.len(), built.pairs.len());
            for (a, b) in rebuilt.pairs.iter().zip(&built.pairs) {
                assert_eq!(a.x, b.x);
                assert_eq!(a.y, b.y);
            }
            // ...after which the file is whole again; re-damage it for the
            // remaining cuts.
            assert!(store.load(&spec, &config).unwrap().is_some());
        }
    }
    // Bit-flip injection in the header: wrong magic and wrong fingerprint
    // are both plain misses.
    for flip_at in [0usize, 9] {
        let mut corrupt = bytes.clone();
        corrupt[flip_at] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(store.load(&spec, &config).unwrap().is_none());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_survives_meta_fields() {
    let config = ExperimentConfig {
        pairs_per_design: 2,
        ..ExperimentConfig::test()
    };
    let spec = presets::by_name("diffeq2").unwrap();
    let dir = std::env::temp_dir().join("pop_integration_cache2");
    let _ = std::fs::remove_dir_all(&dir);
    let built = dataset::build_or_load(&spec, &config, Some(&dir)).unwrap();
    let loaded = CorpusStore::new(&dir)
        .load(&spec, &config)
        .unwrap()
        .expect("hit");
    for (a, b) in built.pairs.iter().zip(&loaded.pairs) {
        assert_eq!(a.meta.place_seed, b.meta.place_seed);
        assert_eq!(a.meta.true_mean_congestion, b.meta.true_mean_congestion);
        assert_eq!(a.meta.route_micros, b.meta.route_micros);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
