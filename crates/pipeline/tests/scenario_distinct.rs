//! Registry distinctness: `dense` and `wide` must generate data that
//! actually differs from `baseline` (and from each other). Historically
//! both rode the test-sized default design scale, where the fabric
//! density and aspect knobs round away on the minimal auto-sized grid —
//! three "different" scenarios silently produced one distribution. The
//! registry now sizes `dense`/`wide` large enough for their knobs to
//! bite; this test pins that with full-pipeline checksums.

use pop_arch::Arch;
use pop_core::codec::Fnv1a;
use pop_core::dataset::DesignDataset;
use pop_pipeline::{generate_corpus_sequential, scenario, ScenarioSpec};

/// One-pair, one-variant slice of a registry scenario: enough to
/// fingerprint the data distribution without sweeping placements.
fn slim(name: &str) -> ScenarioSpec {
    let mut spec = scenario::by_name(name).expect("registry scenario");
    spec.pairs_per_design = 1;
    spec.variants = 1;
    spec
}

/// The fabric the dataset prep would auto-size for a scenario, without
/// running place/route. Grid dimensions depend only on site demand,
/// slack and aspect — never on the channel width — so a fixed probe
/// width reproduces the prep's sizing exactly.
fn fabric_dims(scenario: &ScenarioSpec) -> (usize, usize) {
    let job = &scenario.jobs().expect("valid scenario")[0];
    let netlist = pop_netlist::generate(&job.spec.scaled(job.config.design_scale));
    let (clbs, ios, mems, mults) = netlist.site_demand();
    let arch = Arch::auto_size_with_aspect(
        clbs,
        ios,
        mems,
        mults,
        12,
        job.config.fabric_slack,
        job.config.fabric_aspect,
    )
    .expect("fabric fits");
    (arch.width(), arch.height())
}

fn generate(spec: &ScenarioSpec) -> DesignDataset {
    let mut corpus =
        generate_corpus_sequential(std::slice::from_ref(spec)).expect("scenario generates");
    assert_eq!(corpus.len(), 1);
    corpus.remove(0)
}

/// FNV-1a over the deterministic payload: fabric dims plus every input
/// and target value of every pair.
fn checksum(ds: &DesignDataset) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(ds.grid_width as u64);
    h.eat(ds.grid_height as u64);
    h.eat(ds.channel_width as u64);
    for p in &ds.pairs {
        for v in p.x.data().iter().chain(p.y.data()) {
            h.eat(v.to_bits() as u64);
        }
    }
    h.finish()
}

#[test]
fn dense_and_wide_scenarios_produce_distinct_data() {
    let dense_spec = slim("dense");
    let (baseline, dense, wide) = (
        generate(&slim("baseline")),
        generate(&dense_spec),
        generate(&slim("wide")),
    );

    // The sizing shortcut must agree with what the pipeline actually
    // provisioned, or the control comparison below proves nothing.
    assert_eq!(
        fabric_dims(&dense_spec),
        (dense.grid_width, dense.grid_height)
    );

    // The knob — not just the larger design scale — must change the
    // fabric: a baseline-shaped fabric at dense's own scale is bigger
    // than dense's 95 % target utilization allows.
    let control = fabric_dims(&ScenarioSpec {
        name: "baseline-at-dense-scale".into(),
        design_scale: dense_spec.design_scale,
        ..slim("baseline")
    });
    assert!(
        dense.grid_width * dense.grid_height < control.0 * control.1,
        "dense ({}x{}) must be tighter than the paper-default fabric at \
         the same scale ({}x{})",
        dense.grid_width,
        dense.grid_height,
        control.0,
        control.1,
    );
    // The aspect knob must stretch the interior, not round away.
    assert!(
        wide.grid_width > wide.grid_height,
        "wide fabric ({}x{}) must actually be wider than tall",
        wide.grid_width,
        wide.grid_height,
    );

    // The headline guarantee: three registry scenarios, three data
    // distributions — pairwise-distinct full checksums.
    let sums = [
        ("baseline", checksum(&baseline)),
        ("dense", checksum(&dense)),
        ("wide", checksum(&wide)),
    ];
    for (i, (a, sa)) in sums.iter().enumerate() {
        for (b, sb) in &sums[i + 1..] {
            assert_ne!(sa, sb, "scenarios '{a}' and '{b}' generated identical data");
        }
    }
}
