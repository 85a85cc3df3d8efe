//! Property test: for arbitrary small scenarios, the parallel pipeline is
//! bitwise-identical to the sequential reference path.

use pop_pipeline::{
    generate_corpus_sequential, generate_corpus_with_stats, PipelineOptions, ScenarioSpec,
};
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        0usize..2,   // design preset choice
        1usize..3,   // pairs per design
        1usize..3,   // netlist variants
        0u64..1000,  // master seed
        0.6f64..1.0, // target utilization
        0.5f64..2.0, // aspect ratio
        1.5f64..4.0, // mean fanout
        0.0f64..1.0, // locality
    )
        .prop_map(
            |(design, pairs, variants, seed, utilization, aspect, fanout, locality)| ScenarioSpec {
                name: format!("prop_{seed}"),
                design: ["diffeq1", "diffeq2"][design].into(),
                design_scale: 0.01,
                resolution: 16,
                pairs_per_design: pairs,
                variants,
                seed,
                target_utilization: utilization,
                aspect_ratio: aspect,
                mean_fanout: fanout,
                locality,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scheduling must never leak into the data: any valid scenario
    /// generates the same corpus on 4 workers as sequentially.
    #[test]
    fn parallel_pipeline_matches_sequential(scenario in arb_scenario()) {
        let scenarios = [scenario];
        let sequential = generate_corpus_sequential(&scenarios).unwrap();
        let (parallel, _) =
            generate_corpus_with_stats(&scenarios, &PipelineOptions::with_workers(4)).unwrap();
        prop_assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            prop_assert_eq!(&p.name, &s.name);
            prop_assert_eq!(p.channel_width, s.channel_width);
            prop_assert_eq!(p.pairs.len(), s.pairs.len());
            for (pp, sp) in p.pairs.iter().zip(&s.pairs) {
                prop_assert_eq!(pp.without_timings(), sp.without_timings());
            }
        }
    }
}
