//! `explore` — item = one candidate placement scored, the paper's
//! applications (a)/(b): rounds of [`CANDIDATES`] pre-placed placements are
//! rastered, forecast through an in-process [`ForecastEngine`] (pipelined
//! submits, so batches fill) and ranked by predicted congestion. The nn- and
//! raster-bound path; it never touches `pop-http`. Closed loop, one
//! submitting thread; latency is per round (time to a ranked answer).

use crate::harness::{
    end_to_end_rows, engine_config, finish_trace, handoff_us, host_speed, kernel_rows, layer_rows,
    overhead_row, p50_us, peak_rss_mb, segments, timed_setups, Args, PROBE,
};
use crate::inputs::{features, placed_design};
use crate::report::Outcome;
use crate::stats::Measured;
use crate::trace::{layers, Tracer};
use crate::workloads::serve_http::serve_counters;
use pop_core::dataset::DesignContext;
use pop_core::features::tensor_to_image;
use pop_core::metrics::image_mean_congestion;
use pop_core::{ExperimentConfig, Pix2Pix};
use pop_nn::Tensor;
use pop_place::Placement;
use pop_serve::{ForecastClient, ForecastEngine};
use std::time::{Duration, Instant};

/// Candidate placements ranked per round.
const CANDIDATES: usize = 32;
const MODEL_SEED: u64 = 11;

/// The quick model: 64×64, 12 filters, depth 6.
fn model_config() -> ExperimentConfig {
    ExperimentConfig {
        resolution: 64,
        base_filters: 12,
        depth: 6,
        ..ExperimentConfig::quick()
    }
}

struct Setup {
    engine: ForecastEngine,
    model: Pix2Pix,
    ctx: DesignContext,
    placements: Vec<Placement>,
}

fn setup(seed: u64) -> Setup {
    let config = model_config();
    let model = Pix2Pix::new(&config, MODEL_SEED).expect("valid model config");
    let (ctx, placements) = placed_design("SHA", &config, seed, CANDIDATES);
    let engine = ForecastEngine::start(model.clone(), engine_config()).expect("engine starts");
    Setup {
        engine,
        model,
        ctx,
        placements,
    }
}

fn score(ctx: &DesignContext, heat: &Tensor) -> f32 {
    let image = tensor_to_image(heat);
    image_mean_congestion(ctx.arch.width(), ctx.arch.height(), &image)
}

/// The least congested of `(candidate, score)`; ties go to the lower
/// candidate so the answer does not depend on the order they were scored in.
fn argmin(scores: impl IntoIterator<Item = (usize, f32)>) -> usize {
    scores
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map_or(0, |best| best.0)
}

#[derive(Default)]
struct Log {
    /// Correctly scored candidates; one latency sample per correct round.
    measured: Measured,
    attempted: u64,
    failed: u64,
}

/// Runs whole rounds for `window`, in segments; between segments every
/// answer is in, the engine is idle, and this thread reads the host's speed.
fn run_window(
    setup: &Setup,
    client: &ForecastClient,
    reference: &[f32],
    tracer: &Tracer,
    window: Duration,
) -> Log {
    let mut log = Log::default();
    let best = argmin(reference.iter().copied().enumerate());
    let mut round = 0usize;
    for segment in segments(window) {
        let speed = host_speed(PROBE);
        let started = Instant::now();
        let mut latencies_ns = Vec::new();
        while started.elapsed() < segment {
            let t0 = Instant::now();
            let root = tracer.open("explore.round", 0, round as u64);
            let mut pending = Vec::with_capacity(CANDIDATES);
            for k in 0..CANDIDATES {
                // Rotate the order so batches compose differently every round.
                let which = (round + k) % CANDIDATES;
                let item = (round * CANDIDATES + k) as u64;
                let x = tracer.time("raster.features", root.id, item, || {
                    features(&setup.ctx, &setup.placements[which])
                });
                let submitted = tracer.time("serve.submit", root.id, item, || client.submit(&x));
                pending.push((which, item, submitted));
            }
            let mut scores = Vec::with_capacity(CANDIDATES);
            let failed_before = log.failed;
            for (which, item, submitted) in pending {
                log.attempted += 1;
                let heat = tracer.time("serve.wait", root.id, item, || {
                    submitted.and_then(|pending| pending.wait())
                });
                let Ok(heat) = heat else {
                    log.failed += 1; // errors and QueueFull/ShuttingDown refusals
                    continue;
                };
                let s = tracer.time("raster.score", root.id, item, || score(&setup.ctx, &heat));
                log.failed += u64::from(s.to_bits() != reference[which].to_bits());
                scores.push((which, s));
            }
            let chosen = argmin(scores);
            tracer.close(root);
            log.failed += u64::from(chosen != best);
            if log.failed == failed_before {
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
            }
            round += 1;
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        log.measured
            .add_segment(speed, wall_ns, CANDIDATES as u64, &latencies_ns);
    }
    log
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = timed_setups(&mut outcome, || setup(args.seed));
    // Harness work: the sequential, un-batched reference ranking.
    let reference: Vec<f32> = setup
        .placements
        .iter()
        .map(|p| {
            let heat = setup.model.forecast(&features(&setup.ctx, p));
            score(&setup.ctx, &heat)
        })
        .collect();
    let client = setup.engine.client();
    let off = Tracer::new(false);
    run_window(&setup, &client, &reference, &off, args.warmup());

    if !args.trace {
        let window = Duration::from_secs_f64(args.seconds);
        let log = run_window(&setup, &client, &reference, &off, window);
        outcome.attempted = log.attempted;
        outcome.failed = log.failed;
        end_to_end_rows(&mut outcome, &log.measured);
        outcome.notes.push(format!(
            "explore: {} rounds of {CANDIDATES}, best candidate {} of the sweep",
            log.measured.latencies_ns.len(),
            argmin(reference.iter().copied().enumerate())
        ));
    } else {
        traced(args, &mut setup, &client, &reference, &mut outcome);
    }

    setup.engine.shutdown();
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome
}

fn traced(
    args: &Args,
    setup: &mut Setup,
    client: &ForecastClient,
    reference: &[f32],
    outcome: &mut Outcome,
) {
    let third = Duration::from_secs_f64(args.seconds / 3.0);
    let off = Tracer::new(false);
    let on = Tracer::new(true);

    let before = setup.engine.stats();
    let plain = run_window(setup, client, reference, &off, third);
    let after = setup.engine.stats();

    pop_obs::enable_tracing();
    let spanned_before = setup.engine.stats();
    let spanned = run_window(setup, client, reference, &on, third);
    let spanned_after = setup.engine.stats();
    pop_obs::disable_tracing();

    outcome.attempted = plain.attempted + spanned.attempted;
    outcome.failed = plain.failed + spanned.failed;
    serve_counters(outcome, &before, &after, plain.measured.wall_s());

    let spans = on.take();
    let by = layers(&spans);
    let total_us = |name: &str| by.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e3);
    layer_rows(
        outcome,
        &by,
        &[
            ("raster.features", "raster.features_us"),
            ("raster.score", "raster.score_us"),
        ],
    );

    // Single-caller timings at this workload's model shape.
    let x = features(&setup.ctx, &setup.placements[0]);
    let xs: Vec<Tensor> = setup
        .placements
        .iter()
        .take(8)
        .map(|p| features(&setup.ctx, p))
        .collect();
    let eight: Vec<&Tensor> = xs.iter().collect();
    let forward_us = p50_us(100, || drop(setup.model.forecast(&x)));
    outcome.set_n("nn.forward_us", forward_us, 100);
    kernel_rows(outcome, &mut setup.model, &eight, forward_us);
    let engine_us = p50_us(200, || drop(client.forecast_tensor(&x)));
    outcome.set_n("serve.engine_us", engine_us, 200);
    outcome.set("serve.wait_us", engine_us - forward_us);
    outcome.set("exec.handoff_us", handoff_us());

    overhead_row(outcome, &plain.measured, &spanned.measured);

    // Busy time = the submitting thread outside its waits + the engine
    // workers inside forwards (the engine's own counter).
    let forward_total_us =
        (spanned_after.forward_us_total - spanned_before.forward_us_total) as f64;
    let raster_us = total_us("raster.features") + total_us("raster.score");
    let submitter_busy_us = total_us("explore.round") - total_us("serve.wait");
    let busy_us = submitter_busy_us + forward_total_us;
    outcome.notes.push(format!(
        "ledger explore: busy {:.0} us = submitter {:.0} us (raster {:.0} us, submit {:.0} us) + \
         forward {:.0} us; nn+raster {:.1}% of busy, raster {:.1}% of the submitting thread, http 0%",
        busy_us,
        submitter_busy_us,
        raster_us,
        total_us("serve.submit"),
        forward_total_us,
        100.0 * (forward_total_us + raster_us) / busy_us.max(1.0),
        100.0 * raster_us / total_us("explore.round").max(1.0),
    ));
    finish_trace(outcome, args, &spans, &by);
}
