//! Integration: the §5.2/§5.3 ablation axes are wired through the whole
//! stack — toggling them changes models and outputs in the expected
//! directions.

use painting_on_placement as pop;
use pop::core::{dataset, ExperimentConfig, Pix2Pix, SkipMode};
use pop::netlist::presets;

fn base_config() -> ExperimentConfig {
    ExperimentConfig {
        pairs_per_design: 4,
        epochs: 2,
        ..ExperimentConfig::test()
    }
}

#[test]
fn skip_modes_change_the_model() {
    let config = base_config();
    let mk = |skip: SkipMode| {
        let cfg = ExperimentConfig {
            skip,
            ..config.clone()
        };
        Pix2Pix::new(&cfg, 3).unwrap()
    };
    let mut all = mk(SkipMode::All);
    let mut single = mk(SkipMode::Single);
    let mut none = mk(SkipMode::None);
    let pa = all.generator_mut().parameter_count();
    let ps = single.generator_mut().parameter_count();
    let pn = none.generator_mut().parameter_count();
    assert!(
        pa > ps && ps > pn,
        "skips add concat width: {pa} > {ps} > {pn}"
    );
}

#[test]
fn skip_ablations_produce_different_forecasts() {
    let config = base_config();
    let ds = dataset::build_design_dataset(&presets::by_name("diffeq1").unwrap(), &config).unwrap();
    let mut outputs = Vec::new();
    for skip in [SkipMode::All, SkipMode::Single, SkipMode::None] {
        let cfg = ExperimentConfig {
            skip,
            ..config.clone()
        };
        let mut model = Pix2Pix::new(&cfg, 5).unwrap();
        let _ = model.train(&ds.pairs, 2);
        outputs.push(model.forecast(&ds.pairs[0].x));
    }
    assert_ne!(outputs[0], outputs[1]);
    assert_ne!(outputs[1], outputs[2]);
}

#[test]
fn l1_ablation_changes_objective() {
    let config = base_config();
    let ds = dataset::build_design_dataset(&presets::by_name("diffeq2").unwrap(), &config).unwrap();
    let mut with_l1 = Pix2Pix::new(&config, 7).unwrap();
    let h_with = with_l1.train(&ds.pairs, 2);

    let cfg_no = ExperimentConfig {
        use_l1: false,
        ..config.clone()
    };
    let mut without_l1 = Pix2Pix::new(&cfg_no, 7).unwrap();
    let h_without = without_l1.train(&ds.pairs, 2);

    // With L1 the generator objective carries the λ·L1 term and is larger.
    assert!(h_with.generator_loss[0] > h_without.generator_loss[0]);
    // L1 is still *recorded* in both histories.
    assert!(h_without.l1.iter().all(|&v| v > 0.0));
}

#[test]
fn grayscale_ablation_shrinks_input() {
    let config = base_config();
    let gray = ExperimentConfig {
        grayscale_input: true,
        ..config.clone()
    };
    // Fewer input channels => smaller first-layer weights.
    let mut rgb_model = Pix2Pix::new(&config, 9).unwrap();
    let mut gray_model = Pix2Pix::new(&gray, 9).unwrap();
    assert!(
        rgb_model.generator_mut().parameter_count() > gray_model.generator_mut().parameter_count()
    );
    // And the dataset produces matching tensors.
    let ds = dataset::build_design_dataset(&presets::by_name("diffeq1").unwrap(), &gray).unwrap();
    assert_eq!(ds.pairs[0].x.shape()[1], 2);
    let y = gray_model.forecast(&ds.pairs[0].x);
    assert_eq!(y.shape(), ds.pairs[0].y.shape());
}
