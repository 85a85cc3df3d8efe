//! One pool, one work list, observed from outside: with tracing on, a
//! `with_workers(2)` run never has more than two generation spans open at
//! once (the four-stage thread pipeline ran 2 + 2 + 2 + 1 threads and
//! reached three and more), its span counts are its `GenStats`, and one
//! worker reproduces the sequential reference bit for bit.
//!
//! One `#[test]` in its own process: the span buffers and the
//! `exec.pool.*` counters are process-global.

use pop_core::dataset::DesignDataset;
use pop_pipeline::{
    generate_corpus_sequential, generate_corpus_with_stats, GenStats, PipelineOptions, ScenarioSpec,
};

const STAGES: [&str; 4] = ["prep", "place_stage", "route_stage", "raster_stage"];
const PAIRS: usize = 6;

fn scenarios() -> Vec<ScenarioSpec> {
    ["diffeq2", "diffeq1", "diffeq2"]
        .iter()
        .enumerate()
        .map(|(i, design)| ScenarioSpec {
            name: format!("one-pool-{i}"),
            design: (*design).into(),
            design_scale: 0.05,
            resolution: 16,
            pairs_per_design: PAIRS,
            seed: i as u64,
            ..ScenarioSpec::default()
        })
        .collect()
}

fn pool_threads_started() -> u64 {
    pop_obs::global()
        .snapshot()
        .counter("exec.pool.pop-pipe.workers")
        .unwrap_or(0)
}

#[test]
fn two_workers_mean_two_threads_and_one_worker_means_the_sequential_bits() {
    let scenarios = scenarios();
    let jobs = scenarios.len();
    let dir = std::env::temp_dir().join("pop_pipeline_one_pool_test");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = PipelineOptions::with_workers(2).with_cache_dir(&dir);

    pop_obs::enable_tracing();
    let _ = pop_obs::drain_spans();
    let threads_before = pool_threads_started();
    let (cold, stats) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
    let spans = pop_obs::drain_spans();
    pop_obs::disable_tracing();

    assert_eq!(pool_threads_started() - threads_before, 2);
    assert_eq!(
        stats,
        GenStats {
            jobs,
            cache_hits: 0,
            place_stage_runs: jobs * PAIRS,
            route_stage_runs: jobs * PAIRS,
            cache_write_failures: 0,
        }
    );
    assert_eq!(spans.dropped, 0);
    let count = |name: &str| spans.records.iter().filter(|r| r.name == name).count();
    assert_eq!(count("prep"), jobs);
    assert_eq!(count("place_stage"), stats.place_stage_runs);
    assert_eq!(count("route_stage"), stats.route_stage_runs);
    assert_eq!(count("raster_stage"), jobs * PAIRS);

    // Sweep-line over the stage spans: ends sort before starts at equal
    // times, so back-to-back spans on one thread never count as overlap.
    let mut edges: Vec<(u64, i32)> = spans
        .records
        .iter()
        .filter(|r| STAGES.contains(&r.name))
        .flat_map(|r| [(r.start_ns, 1), (r.end_ns, -1)])
        .collect();
    edges.sort();
    let mut open = 0;
    let mut most_open = 0;
    for (_, step) in edges {
        open += step;
        most_open = most_open.max(open);
    }
    assert!(
        most_open <= 2,
        "{most_open} stage spans open at once on a 2-worker run"
    );

    // Warm: every job a hit, nothing placed or routed, the cold bytes back.
    let (warm, warm_stats) = generate_corpus_with_stats(&scenarios, &opts).unwrap();
    assert!(warm_stats.fully_warm(), "{warm_stats:?}");
    assert_eq!(warm, cold);
    let _ = std::fs::remove_dir_all(&dir);

    // One worker is the sequential schedule run through the work list.
    let threads_before = pool_threads_started();
    let (single, _) =
        generate_corpus_with_stats(&scenarios, &PipelineOptions::with_workers(1)).unwrap();
    assert_eq!(pool_threads_started() - threads_before, 1);
    let timeless = |mut corpus: Vec<DesignDataset>| {
        let pairs = corpus.iter_mut().flat_map(|ds| ds.pairs.iter_mut());
        pairs.for_each(|pair| *pair = pair.without_timings());
        corpus
    };
    let sequential = timeless(generate_corpus_sequential(&scenarios).unwrap());
    assert_eq!(timeless(single), sequential);
    assert_eq!(timeless(cold), sequential);
}
