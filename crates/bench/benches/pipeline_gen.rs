//! Corpus-generation throughput: sequential reference loop vs the staged
//! parallel pipeline vs a **warm per-job disk cache**, on a standard
//! multi-scenario corpus.
//!
//! Emits `BENCH_pipeline.json` (pairs/sec for both generation paths,
//! speedup, host parallelism, and the cold-vs-warm cache ratio) alongside
//! the human-readable report. The pipeline is embarrassingly parallel over
//! placements, so on an N-core host the 4-worker configuration approaches
//! min(4, N)× — ≥2× on 4 cores is the acceptance bar; a 1-core container
//! honestly reports ≈1×, which is why `host_parallelism` is part of the
//! artefact. The warm-cache run skips place/route entirely (asserted), so
//! its ratio is bounded by disk + decode speed, not cores.
//!
//! Run with `cargo bench -p pop-bench --bench pipeline_gen`.

use pop_arch::Arch;
use pop_netlist::{generate, presets};
use pop_pipeline::{
    generate_corpus, generate_corpus_sequential, generate_corpus_with_stats, PipelineOptions,
    ScenarioSpec,
};
use pop_place::{place, CostModel, PlaceAlgorithm, PlaceOptions, PlaceStrategy};
use std::time::Instant;

const WORKERS: usize = 4;

/// The single-large-design placement benchmark behind the `place_parallel`
/// entry: one 0.5-scale SHA placed by the sequential annealer vs the
/// region-parallel one (4 regions, 4 threads), averaged over a few seeds
/// because the annealers' seed-to-seed cost noise is itself a couple of
/// percent. The speedup is honest for *this* host (`host_parallelism` is
/// in the artefact): ≈1× on one core, ≥1.8× expected on four (the
/// sequential exchange phase bounds it at 2.5×, Amdahl).
fn place_parallel_bench(host_parallelism: usize) -> String {
    const DESIGN: &str = "SHA";
    const SCALE: f64 = 0.5;
    const REGIONS: usize = 4;
    const THREADS: usize = 4;
    const SEEDS: [u64; 3] = [1, 2, 3];

    let netlist = generate(&presets::by_name(DESIGN).unwrap().scaled(SCALE));
    let (c, i, m, x) = netlist.site_demand();
    let arch = Arch::auto_size(c, i, m, x, 12, 1.3).expect("bench fabric");
    let model = CostModel::new(PlaceAlgorithm::BoundingBox);

    let mut seq_secs = 0.0f64;
    let mut par_secs = 0.0f64;
    let mut cost_ratio_sum = 0.0f64;
    for seed in SEEDS {
        let popts = PlaceOptions {
            seed,
            ..PlaceOptions::default()
        };
        let par_opts = PlaceOptions {
            strategy: PlaceStrategy::ParallelRegions {
                regions: REGIONS,
                threads: THREADS,
            },
            ..popts.clone()
        };
        let t0 = Instant::now();
        let sequential = place(&arch, &netlist, &popts).expect("sequential placement");
        seq_secs += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let parallel = place(&arch, &netlist, &par_opts).expect("parallel placement");
        par_secs += t1.elapsed().as_secs_f64();

        parallel.verify(&arch, &netlist).expect("legal placement");
        let seq_cost = model.total_cost(&arch, &netlist, &sequential) as f64;
        let par_cost = model.total_cost(&arch, &netlist, &parallel) as f64;
        cost_ratio_sum += par_cost / seq_cost;
    }
    let speedup = seq_secs / par_secs;
    let cost_ratio = cost_ratio_sum / SEEDS.len() as f64;
    println!(
        "place_parallel ({DESIGN} x{SCALE}, {REGIONS} regions, {THREADS} threads, \
         {} seeds): sequential {seq_secs:.2} s, parallel {par_secs:.2} s, \
         speedup {speedup:.2}x, cost ratio {cost_ratio:.4}",
        SEEDS.len()
    );
    // The quality half of the acceptance criterion holds on any host; the
    // speedup half depends on cores/scheduler and is recorded, not
    // asserted.
    assert!(
        cost_ratio <= 1.02,
        "parallel final cost must stay within 2% of sequential (got {cost_ratio:.4})"
    );
    format!(
        "{{ \"design\": \"{DESIGN}\", \"scale\": {SCALE}, \"regions\": {REGIONS}, \
         \"threads\": {THREADS}, \"seeds\": {}, \"host_parallelism\": {host_parallelism}, \
         \"sequential_seconds\": {seq_secs:.4}, \"parallel_seconds\": {par_secs:.4}, \
         \"speedup\": {speedup:.4}, \"cost_ratio\": {cost_ratio:.4} }}",
        SEEDS.len()
    )
}

/// The observability tax, measured: the same pipeline corpus generated
/// with the span subscriber disabled (a disabled `span!` is one relaxed
/// load and a branch) vs enabled (full capture into per-thread rings).
/// Min-of-N wall clocks on both sides, the sides alternating — the robust
/// estimator against scheduler noise — and the delta is asserted under
/// 3 %: tracing must never be a number anyone hesitates to leave on.
fn obs_overhead_bench() -> String {
    const RUNS: usize = 15;
    // One run is ~0.12 s, and a shared host moves that by ±10 % from run
    // to run: the 3 % bound holds only for the minimum of many runs.
    let scenarios = vec![ScenarioSpec {
        name: "bench-obs".into(),
        design_scale: 0.1,
        resolution: 64,
        pairs_per_design: 24,
        ..ScenarioSpec::default()
    }];
    let opts = PipelineOptions::with_workers(WORKERS);
    let run_once = || {
        let t = Instant::now();
        let _ = generate_corpus(&scenarios, &opts).expect("obs-overhead corpus");
        t.elapsed().as_secs_f64()
    };

    // Alternate the two sides so a drift in host speed lands on both.
    let (mut noop, mut traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..RUNS {
        pop_obs::disable_tracing();
        noop = noop.min(run_once());
        pop_obs::enable_tracing();
        traced = traced.min(run_once());
        // Drain between runs so ring occupancy never caps what a run
        // records (dropped spans would make tracing look cheaper).
        let set = pop_obs::drain_spans();
        assert_eq!(set.dropped, 0, "span rings must not overflow this workload");
    }
    pop_obs::disable_tracing();

    let overhead = traced / noop - 1.0;
    println!(
        "obs overhead: noop {noop:.3} s, traced {traced:.3} s, delta {:+.2}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.03,
        "span tracing must cost < 3% of pipeline wall clock (got {:+.2}%)",
        overhead * 100.0
    );
    format!(
        "{{ \"runs\": {RUNS}, \"noop_seconds\": {noop:.4}, \
         \"traced_seconds\": {traced:.4}, \"overhead\": {overhead:.4} }}"
    )
}

/// The "standard corpus" of the acceptance criterion: three scenarios,
/// three design families, mixed fabric density/aspect — heavy enough per
/// pair (tens of milliseconds of place + route) that stage overlap, not
/// queue overhead, decides the wall clock.
fn standard_corpus() -> Vec<ScenarioSpec> {
    let base = ScenarioSpec {
        design_scale: 0.05,
        resolution: 64,
        pairs_per_design: 8,
        ..ScenarioSpec::default()
    };
    vec![
        ScenarioSpec {
            name: "bench-baseline".into(),
            design: "diffeq2".into(),
            ..base.clone()
        },
        ScenarioSpec {
            name: "bench-dense".into(),
            design: "diffeq1".into(),
            target_utilization: 0.9,
            ..base.clone()
        },
        ScenarioSpec {
            name: "bench-sha".into(),
            design: "SHA".into(),
            aspect_ratio: 2.0,
            seed: 101,
            ..base
        },
    ]
}

fn main() {
    let scenarios = standard_corpus();
    let total_pairs: usize = scenarios.iter().map(ScenarioSpec::total_pairs).sum();
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "corpus: {} scenarios, {total_pairs} pairs; host parallelism {host_parallelism}, \
         pipeline workers {WORKERS}",
        scenarios.len()
    );

    // Warm-up (page caches, allocator) on the smallest scenario.
    let warm = vec![ScenarioSpec {
        pairs_per_design: 1,
        ..scenarios[0].clone()
    }];
    let _ = generate_corpus_sequential(&warm).expect("warm-up");

    let t0 = Instant::now();
    let sequential = generate_corpus_sequential(&scenarios).expect("sequential path");
    let seq_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = generate_corpus(&scenarios, &PipelineOptions::with_workers(WORKERS))
        .expect("parallel pipeline");
    let par_secs = t1.elapsed().as_secs_f64();

    // The correctness half of the claim: identical output, bit for bit
    // (wall-clock timing metadata aside).
    let mut identical = sequential.len() == parallel.len();
    for (s, p) in sequential.iter().zip(&parallel) {
        identical &= s.name == p.name
            && s.channel_width == p.channel_width
            && s.pairs.len() == p.pairs.len()
            && s.pairs
                .iter()
                .zip(&p.pairs)
                .all(|(a, b)| a.without_timings() == b.without_timings());
    }
    assert!(
        identical,
        "pipeline output diverged from the sequential path"
    );

    let seq_pps = total_pairs as f64 / seq_secs;
    let par_pps = total_pairs as f64 / par_secs;
    let speedup = seq_secs / par_secs;
    println!("sequential: {seq_secs:.2} s ({seq_pps:.2} pairs/s)");
    println!("pipeline ({WORKERS} workers): {par_secs:.2} s ({par_pps:.2} pairs/s)");
    println!("speedup: {speedup:.2}x, outputs identical: {identical}");

    // Cache variant: a cold run through a fresh CorpusStore (generates and
    // writes per-job caches as jobs complete), then a warm re-run that
    // must stream straight from disk — 100% hits, zero place/route stage
    // executions, bitwise-identical pairs (wall-clock provenance included,
    // which regeneration could never reproduce).
    let cache_root =
        std::env::temp_dir().join(format!("pop_bench_pipeline_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    let cache_opts = PipelineOptions::with_workers(WORKERS).with_cache_dir(&cache_root);
    let t2 = Instant::now();
    let (cold, cold_stats) =
        generate_corpus_with_stats(&scenarios, &cache_opts).expect("cold cached run");
    let cold_secs = t2.elapsed().as_secs_f64();
    assert_eq!(cold_stats.cache_hits, 0, "cache dir must start empty");
    let t3 = Instant::now();
    let (warm, warm_stats) =
        generate_corpus_with_stats(&scenarios, &cache_opts).expect("warm cached run");
    let warm_secs = t3.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&cache_root);
    assert_eq!(
        warm_stats.cache_hits, warm_stats.jobs,
        "warm run must be 100% cache hits"
    );
    assert_eq!(warm_stats.place_stage_runs, 0, "warm run must not place");
    assert_eq!(warm_stats.route_stage_runs, 0, "warm run must not route");
    assert_eq!(cold, warm, "cached pairs must be bitwise-identical");
    let warm_ratio = cold_secs / warm_secs;
    println!(
        "cache: cold {cold_secs:.2} s -> warm {warm_secs:.3} s ({warm_ratio:.1}x, \
         {}/{} hits, 0 place/route runs)",
        warm_stats.cache_hits, warm_stats.jobs
    );

    // Single-large-design placement parallelism (the tentpole of PR 4).
    let place_parallel = place_parallel_bench(host_parallelism);

    // Observability tax: traced vs noop subscriber on the same corpus.
    let obs_overhead = obs_overhead_bench();

    let json = format!(
        "{{\n  \"bench\": \"pipeline_gen\",\n  \"scenarios\": {},\n  \"total_pairs\": {},\n  \
         \"host_parallelism\": {},\n  \"workers\": {},\n  \
         \"sequential\": {{ \"seconds\": {:.4}, \"pairs_per_sec\": {:.4} }},\n  \
         \"pipeline\": {{ \"seconds\": {:.4}, \"pairs_per_sec\": {:.4} }},\n  \
         \"speedup\": {:.4},\n  \"identical\": {},\n  \
         \"cache\": {{ \"cold_seconds\": {:.4}, \"warm_seconds\": {:.4}, \
         \"cold_vs_warm\": {:.4}, \"jobs\": {}, \"warm_cache_hits\": {}, \
         \"warm_place_stage_runs\": {}, \"warm_route_stage_runs\": {}, \
         \"identical\": true }},\n  \
         \"place_parallel\": {place_parallel},\n  \
         \"obs_overhead\": {obs_overhead}\n}}\n",
        scenarios.len(),
        total_pairs,
        host_parallelism,
        WORKERS,
        seq_secs,
        seq_pps,
        par_secs,
        par_pps,
        speedup,
        identical,
        cold_secs,
        warm_secs,
        warm_ratio,
        warm_stats.jobs,
        warm_stats.cache_hits,
        warm_stats.place_stage_runs,
        warm_stats.route_stage_runs,
    );
    // Anchor the artefact at the workspace root regardless of the bench
    // binary's working directory.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    std::fs::write(&out, &json).expect("write BENCH_pipeline.json");
    println!("wrote {}", out.display());
}
