//! `corpus_cold` — item = one (placement, routed-congestion) pair: rounds
//! of `generate_corpus_with_stats` over [`DESIGNS`] into a cold
//! `CorpusStore`. The ground-truth path the forecaster replaces —
//! prepare/place/route-bound, no nn at all — and the write side of the
//! cache. Latency is the place + route time the stages record per pair.

use crate::harness::{
    cache_round_trips, eat_tensor, end_to_end_rows, finish_trace, handoff_us, host_speed,
    layer_rows, peak_rss_mb, timed_setups, Args, ScratchDir,
};
use crate::inputs::{features, pipeline_options, scenario};
use crate::report::Outcome;
use crate::stats::Measured;
use crate::trace::{layers, Tracer};
use pop_arch::Arch;
use pop_core::dataset::{DesignContext, DesignDataset, Fnv1a, Pair};
use pop_core::features::assemble_target;
use pop_pipeline::{expand, generate_corpus_with_stats, DesignJob, GenStats, ScenarioSpec};
use pop_raster::render_congestion;
use pop_route::{min_channel_width, RouteGraph, RouteOptions};
use std::time::{Duration, Instant};

/// The four smallest Table-2 designs. The larger ones (OR1200, ode, dcsg,
/// bfly) take 3–15 s to prepare and up to 1.5 s per pair at this scale, so
/// a round with them outlasts a whole run; they stress the same stages.
const DESIGNS: [&str; 4] = ["diffeq1", "diffeq2", "raygentop", "SHA"];
const PLACEMENTS: usize = 16;
const RESOLUTION: usize = 64;
/// Placements per design the traced pass takes through the stages one by
/// one (and the untraced pass re-generates to check the pipeline's output).
const TRACED_PLACEMENTS: usize = 4;
/// How long the host-speed reading before a round runs: about a tenth of
/// the round, which is this workload's segment.
const ROUND_PROBE: Duration = Duration::from_millis(200);
/// Designs (by position in [`DESIGNS`]) the untraced pass re-generates
/// sequentially after its timed window: the two cheapest to prepare.
const CHECKED_DESIGNS: [usize; 2] = [0, 1];

/// One round's corpus. Only the placement-sweep seed moves with `seed` and
/// `round`: netlists and fabrics are the same in every round of every run.
fn scenarios(seed: u64, round: usize) -> Vec<ScenarioSpec> {
    let sweep_seed = seed
        .wrapping_mul(1000)
        .wrapping_add((round * PLACEMENTS) as u64);
    DESIGNS
        .iter()
        .map(|design| scenario(design, RESOLUTION, PLACEMENTS, sweep_seed))
        .collect()
}

/// Set-up is a fixed job rather than a fixed time: one small design through
/// the pipeline into a fresh store, which also pages the stages in.
fn setup(args: &Args) -> ScratchDir {
    let scratch = ScratchDir::new(args, "corpus");
    let warm = scenario("diffeq2", RESOLUTION, TRACED_PLACEMENTS, args.seed);
    generate_corpus_with_stats(&[warm], &pipeline_options(&scratch.path().join("warmup")))
        .expect("the warm-up job generates");
    scratch
}

struct Round {
    datasets: Vec<DesignDataset>,
    stats: GenStats,
    wall_s: f64,
}

fn run_round(scratch: &ScratchDir, seed: u64, round: usize) -> Option<Round> {
    let dir = scratch.path().join(format!("round-{round}"));
    let started = Instant::now();
    let (datasets, stats) =
        generate_corpus_with_stats(&scenarios(seed, round), &pipeline_options(&dir)).ok()?;
    Some(Round {
        datasets,
        stats,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Pairs the round got wrong by its own counters: a cold run places and
/// routes every pair exactly once, hits nothing, and writes every entry.
fn miscounted(stats: &GenStats) -> u64 {
    let pairs = DESIGNS.len() * PLACEMENTS;
    let wrong = stats.cache_hits
        + stats.cache_write_failures
        + stats.place_stage_runs.abs_diff(pairs)
        + stats.route_stage_runs.abs_diff(pairs);
    wrong as u64
}

fn checksum(datasets: &[DesignDataset]) -> u64 {
    let mut h = Fnv1a::new();
    for pair in datasets.iter().flat_map(|ds| &ds.pairs) {
        eat_tensor(&mut h, &pair.x);
        eat_tensor(&mut h, &pair.y);
        h.eat(pair.meta.place_seed);
        h.eat(u64::from(pair.meta.true_mean_congestion.to_bits()));
    }
    h.finish()
}

/// Re-generates the first [`TRACED_PLACEMENTS`] pairs of `job` on the
/// sequential stage path and counts those `dataset` disagrees with.
fn mismatches(job: &DesignJob, dataset: &DesignDataset) -> u64 {
    let Ok(ctx) = DesignContext::prepare(&job.spec, &job.config) else {
        return TRACED_PLACEMENTS as u64;
    };
    let sweep = ctx.sweep_options();
    (0..TRACED_PLACEMENTS)
        .filter(|&i| {
            let sequential = ctx.generate_pair(i, &sweep[i]).ok();
            sequential.map(|p| p.without_timings())
                != dataset.pairs.get(i).map(Pair::without_timings)
        })
        .count() as u64
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let scratch = timed_setups(&mut outcome, || setup(args));
    if args.trace {
        traced(args, &scratch, &mut outcome);
    } else {
        untraced(args, &scratch, &mut outcome);
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome
}

fn untraced(args: &Args, scratch: &ScratchDir, outcome: &mut Outcome) {
    let pairs_per_round = DESIGNS.len() * PLACEMENTS;
    let mut measured = Measured::default();
    let mut round_walls = Vec::new();
    let mut first: Option<Round> = None;
    let started = Instant::now();
    let mut round = 0usize;
    // Whole rounds, each a segment of the window with a host-speed reading
    // before it: a run measures for at least `--seconds`.
    while round == 0 || started.elapsed().as_secs_f64() < args.seconds {
        outcome.attempted += pairs_per_round as u64;
        let speed = host_speed(ROUND_PROBE);
        match run_round(scratch, args.seed, round) {
            Some(done) => {
                outcome.failed += miscounted(&done.stats);
                let latencies_ns: Vec<u64> = done
                    .datasets
                    .iter()
                    .flat_map(|ds| &ds.pairs)
                    .map(|pair| (pair.meta.place_micros + pair.meta.route_micros) * 1000)
                    .collect();
                measured.add_segment(speed, (done.wall_s * 1e9) as u64, 1, &latencies_ns);
                round_walls.push(format!("{:.3}", done.wall_s));
                first.get_or_insert(done);
            }
            None => outcome.failed += pairs_per_round as u64,
        }
        round += 1;
    }
    end_to_end_rows(outcome, &measured);

    // Output check, after the timed window: the pipeline's pairs equal the
    // sequential stage path's, bitwise, timings aside.
    if let (Some(first), Ok(jobs)) = (&first, expand(&scenarios(args.seed, 0))) {
        for which in CHECKED_DESIGNS {
            outcome.attempted += TRACED_PLACEMENTS as u64;
            outcome.failed += mismatches(&jobs[which], &first.datasets[which]);
        }
        outcome.notes.push(format!(
            "checksum corpus_cold round0 {:016x}",
            checksum(&first.datasets)
        ));
    }
    outcome.notes.push(format!(
        "corpus_cold: {round} rounds of {pairs_per_round} pairs, round walls {} s",
        round_walls.join(" ")
    ));
}

fn traced(args: &Args, scratch: &ScratchDir, outcome: &mut Outcome) {
    let pairs_per_round = DESIGNS.len() * PLACEMENTS;
    outcome.attempted = pairs_per_round as u64;
    let Some(piped) = run_round(scratch, args.seed, 0) else {
        outcome.failed = pairs_per_round as u64;
        return;
    };
    outcome.failed = miscounted(&piped.stats);
    outcome.set(
        "pipeline.place_stage_runs",
        piped.stats.place_stage_runs as f64,
    );
    outcome.set(
        "pipeline.route_stage_runs",
        piped.stats.route_stage_runs as f64,
    );
    outcome.set("pipeline.cache_hits", piped.stats.cache_hits as f64);
    outcome.set(
        "pipeline.cache_write_failures",
        piped.stats.cache_write_failures as f64,
    );

    // The same jobs again, one stage call at a time on this thread.
    let jobs = expand(&scenarios(args.seed, 0)).expect("the scenarios expanded once already");
    let tracer = Tracer::new(true);
    let (mut iterations, mut overused, mut wirelength) = (0u64, 0u64, 0u64);
    pop_obs::enable_tracing();
    for (j, job) in jobs.iter().enumerate() {
        let root = tracer.open("design", 0, j as u64);
        let ctx = tracer.time("core.prepare", root.id, j as u64, || {
            DesignContext::prepare(&job.spec, &job.config)
        });
        let Ok(ctx) = ctx else {
            outcome.failed += TRACED_PLACEMENTS as u64;
            tracer.close(root);
            continue;
        };
        split_prepare(&tracer, root.id, j as u64, job, &ctx);

        let side = job.config.resolution;
        for (i, popts) in ctx
            .sweep_options()
            .iter()
            .enumerate()
            .take(TRACED_PLACEMENTS)
        {
            let item = (j * PLACEMENTS + i) as u64;
            outcome.attempted += 1;
            let placed = tracer.time("place.stage", root.id, item, || ctx.place_stage(popts));
            let routed = placed.and_then(|(placement, place_us)| {
                let (routing, route_us) =
                    tracer.time("route.stage", root.id, item, || ctx.route_stage(&placement))?;
                Ok((placement, place_us, routing, route_us))
            });
            let Ok((placement, place_us, routing, route_us)) = routed else {
                outcome.failed += 1;
                continue;
            };
            iterations += routing.iterations as u64;
            overused += routing.overused_segments as u64;
            wirelength += routing.wirelength() as u64;
            tracer.time("raster.features", root.id, item, || {
                drop(features(&ctx, &placement))
            });
            tracer.time("raster.target", root.id, item, || {
                let img_route = render_congestion(
                    &ctx.arch,
                    &ctx.netlist,
                    &placement,
                    routing.congestion(),
                    side,
                );
                assemble_target(&img_route)
            });
            let pair = ctx.raster_stage(i, popts, &placement, &routing, place_us, route_us);
            let piped_pair = piped.datasets[j].pairs.get(i).map(Pair::without_timings);
            outcome.failed += u64::from(piped_pair != Some(pair.without_timings()));
        }

        tracer.close(root);
    }
    pop_obs::disable_tracing();
    // The cache's write and read side on the pipeline's own datasets.
    let dir = scratch.path().join("traced-store");
    cache_round_trips(outcome, &tracer, &dir, &jobs, &piped.datasets);

    let spans = tracer.take();
    let by = layers(&spans);
    let total_us = |name: &str| by.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e3);
    // One call per design, and designs are not exchangeable: totals.
    for (span, metric) in [
        ("core.prepare", "core.prepare_us"),
        ("netlist.generate", "netlist.generate_us"),
        ("place.probe", "place.probe_us"),
        ("route.min_width", "route.min_width_us"),
        ("route.graph_build", "route.graph_build_us"),
    ] {
        outcome.set_n(metric, total_us(span), by.get(span).map_or(0, |l| l.count));
    }
    layer_rows(
        outcome,
        &by,
        &[
            ("place.stage", "place.stage_us"),
            ("route.stage", "route.stage_us"),
            ("raster.features", "raster.features_us"),
            ("raster.target", "raster.target_us"),
            ("core.cache_store", "core.cache_store_us"),
            ("core.cache_load", "core.cache_load_us"),
        ],
    );
    outcome.set("route.iterations", iterations as f64);
    outcome.set("route.overused_segments", overused as f64);
    outcome.set("route.wirelength", wirelength as f64);
    outcome.set("exec.handoff_us", handoff_us());

    // Σ sequential stage time of the whole round ÷ the pipeline's wall:
    // prepare as traced here, place + route as the pipeline's stages
    // recorded them per pair, raster at the traced mean per pair.
    let traced_pairs = by.get("raster.features").map_or(1, |l| l.count.max(1)) as f64;
    let raster_us = (total_us("raster.features") + total_us("raster.target")) / traced_pairs
        * pairs_per_round as f64;
    let (place_us, route_us) =
        piped
            .datasets
            .iter()
            .flat_map(|ds| &ds.pairs)
            .fold((0.0, 0.0), |(p, r), pair| {
                (
                    p + pair.meta.place_micros as f64,
                    r + pair.meta.route_micros as f64,
                )
            });
    let stages_us = total_us("core.prepare") + place_us + route_us + raster_us;
    outcome.set(
        "pipeline.speedup_vs_stages",
        stages_us / (piped.wall_s * 1e6),
    );
    outcome.notes.push(format!(
        "ledger corpus_cold: sequential stage time {:.2} s = prepare {:.1}% + place {:.1}% + \
         route {:.1}% + raster {:.1}%; pipeline wall {:.2} s",
        stages_us / 1e6,
        100.0 * total_us("core.prepare") / stages_us,
        100.0 * place_us / stages_us,
        100.0 * route_us / stages_us,
        100.0 * raster_us / stages_us,
        piped.wall_s
    ));
    for (j, design) in DESIGNS.iter().enumerate() {
        let prepare_us: u64 = spans
            .iter()
            .filter(|s| s.name == "core.prepare" && s.item == j as u64)
            .map(|s| (s.end_ns - s.start_ns) / 1000)
            .sum();
        outcome
            .notes
            .push(format!("core.prepare_us {design} {prepare_us}"));
    }
    outcome.notes.push(format!(
        "checksum corpus_cold round0 {:016x}",
        checksum(&piped.datasets)
    ));
    finish_trace(outcome, args, &spans, &by);
}

/// `DesignContext::prepare` again, one public step at a time (the steps
/// `pop_core::dataset::design_fabric` chains).
fn split_prepare(tracer: &Tracer, parent: u32, item: u64, job: &DesignJob, ctx: &DesignContext) {
    let config = &job.config;
    let netlist = tracer.time("netlist.generate", parent, item, || {
        pop_netlist::generate(&job.spec.scaled(config.design_scale))
    });
    let (clbs, ios, mems, mults) = netlist.site_demand();
    let probe = tracer.time("place.probe", parent, item, || {
        let arch = Arch::auto_size_with_aspect(
            clbs,
            ios,
            mems,
            mults,
            8,
            config.fabric_slack,
            config.fabric_aspect,
        )?;
        let placement = pop_place::place(&arch, &netlist, &Default::default()).ok();
        Ok::<_, pop_arch::ArchError>((arch, placement))
    });
    if let Ok((arch, Some(placement))) = probe {
        tracer.time("route.min_width", parent, item, || {
            drop(min_channel_width(
                &arch,
                &netlist,
                &placement,
                &RouteOptions::default(),
            ))
        });
    }
    tracer.time("route.graph_build", parent, item, || {
        drop(RouteGraph::new(&ctx.arch))
    });
}
