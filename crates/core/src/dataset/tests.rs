use super::store::MAGIC;
use super::*;
use crate::config::ExperimentConfig;
use pop_netlist::presets;
use std::path::PathBuf;

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
    let store = CorpusStore::new(&dir).with_claim_stale_after(std::time::Duration::from_secs(5));
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
    let store = CorpusStore::new(&dir).with_claim_stale_after(std::time::Duration::from_secs(1));
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
    let mut r = Reader::new(buf.as_slice(), buf.len() as u64);
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
