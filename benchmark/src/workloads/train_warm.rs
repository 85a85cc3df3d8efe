//! `train_warm` — item = one `Pix2Pix::train_step` (batch 1, as in
//! pix2pix): a corpus generated and cached in set-up is read back through
//! the warm [`CorpusStore`], then trained epoch after epoch. nn forward +
//! backward + Adam: the kernels `explore` uses, used differently; and the
//! read side of the cache (the timed window opens before the load).

use crate::harness::{
    cache_round_trips, eat_tensor, end_to_end_rows, finish_trace, forward_flops, host_speed,
    layer_rows, p50_us, peak_rss_mb, segments, timed_setups, Args, ScratchDir, PROBE,
};
use crate::inputs::{pipeline_options, scenario};
use crate::report::Outcome;
use crate::stats::Measured;
use crate::trace::{layers, Tracer};
use pop_core::dataset::{DesignDataset, Fnv1a, Pair};
use pop_core::{ExperimentConfig, Pix2Pix};
use pop_nn::Layer;
use pop_pipeline::{expand, generate_corpus_with_stats, PipelineOptions, ScenarioSpec};
use std::time::{Duration, Instant};

/// 96 pairs. ISSUE 11 names OR1200 where this has diffeq2: OR1200 takes
/// 3–4 s to prepare, and set-up runs three times per process.
const DESIGNS: [&str; 4] = ["diffeq1", "diffeq2", "raygentop", "SHA"];
const PLACEMENTS: usize = 24;
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

fn scenarios(seed: u64) -> Vec<ScenarioSpec> {
    DESIGNS
        .iter()
        .map(|design| scenario(design, model_config().resolution, PLACEMENTS, seed))
        .collect()
}

struct Setup {
    scratch: ScratchDir,
    generated: Vec<DesignDataset>,
    model: Pix2Pix,
}

impl Setup {
    fn pipeline_options(&self) -> PipelineOptions {
        pipeline_options(&self.scratch.path().join("store"))
    }
}

/// Generates the corpus into a fresh store (the cold write) and builds the
/// model.
fn setup(args: &Args) -> Setup {
    let mut setup = Setup {
        scratch: ScratchDir::new(args, "train"),
        generated: Vec::new(),
        model: Pix2Pix::new(&model_config(), MODEL_SEED).expect("valid model config"),
    };
    let (generated, _) =
        generate_corpus_with_stats(&scenarios(args.seed), &setup.pipeline_options())
            .expect("the training corpus generates");
    setup.generated = generated;
    setup
}

/// A seeded Fisher–Yates shuffle (xorshift64*), so the step order — and
/// with it the loss trajectory — is a function of the seed alone.
fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        order.swap(i, (r % (i as u64 + 1)) as usize);
    }
    order
}

fn weights_fingerprint(model: &mut Pix2Pix) -> u64 {
    let mut h = Fnv1a::new();
    for param in model.generator_mut().params_mut() {
        eat_tensor(&mut h, &param.value);
    }
    h.finish()
}

#[derive(Default)]
struct Log {
    /// Steps with finite losses and their latencies; a step with a
    /// non-finite loss is `failed`, not a sample.
    measured: Measured,
    attempted: u64,
    failed: u64,
    /// Mean raw L1 of every completed epoch.
    epoch_l1: Vec<f64>,
    epoch1_fingerprint: Option<u64>,
}

/// Trains on `pairs`, epoch after epoch, for `window`, in segments with a
/// host-speed reading before each; the last epoch may be partial.
fn train(
    model: &mut Pix2Pix,
    pairs: &[&Pair],
    seed: u64,
    tracer: &Tracer,
    window: Duration,
) -> Log {
    let mut log = Log::default();
    let mut epoch = 0u64;
    let mut order = shuffled(pairs.len(), seed);
    let (mut k, mut l1_sum) = (0usize, 0.0f64);
    for segment in segments(window) {
        let speed = host_speed(PROBE);
        let started = Instant::now();
        let mut latencies_ns = Vec::new();
        while started.elapsed() < segment {
            let pair = pairs[order[k]];
            let item = epoch * pairs.len() as u64 + k as u64;
            log.attempted += 1;
            let t0 = Instant::now();
            let losses = tracer.time("nn.train_step", 0, item, || {
                model.train_step(&pair.x, &pair.y)
            });
            let latency = t0.elapsed();
            if losses.d_loss.is_finite() && losses.g_gan.is_finite() && losses.g_l1.is_finite() {
                latencies_ns.push(latency.as_nanos() as u64);
            } else {
                log.failed += 1;
            }
            l1_sum += f64::from(losses.g_l1);
            k += 1;
            if k == pairs.len() {
                log.epoch_l1.push(l1_sum / pairs.len() as f64);
                if epoch == 0 {
                    log.epoch1_fingerprint = Some(weights_fingerprint(model));
                }
                epoch += 1;
                order = shuffled(pairs.len(), seed.wrapping_add(epoch));
                (k, l1_sum) = (0, 0.0);
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        log.measured.add_segment(speed, wall_ns, 1, &latencies_ns);
    }
    log
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = timed_setups(&mut outcome, || setup(args));
    let tracer = Tracer::new(args.trace);
    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });

    // Warm-up on a throw-away replica, so the timed model's trajectory
    // does not depend on how long the warm-up ran.
    {
        let pairs: Vec<&Pair> = setup.generated.iter().flat_map(|ds| &ds.pairs).collect();
        let mut replica = setup.model.clone();
        let off = Tracer::new(false);
        train(&mut replica, &pairs, args.seed, &off, args.warmup());
    }

    if args.trace {
        pop_obs::enable_tracing();
    }
    let load_speed = host_speed(PROBE);
    let started = Instant::now();
    let loaded = tracer.time("pipeline.warm_load", 0, 0, || {
        generate_corpus_with_stats(&scenarios(args.seed), &setup.pipeline_options())
    });
    let Ok((loaded, stats)) = loaded else {
        outcome.attempted = 1;
        outcome.failed = 1;
        return outcome;
    };
    let pairs: Vec<&Pair> = loaded.iter().flat_map(|ds| &ds.pairs).collect();
    let load_ns = started.elapsed().as_nanos() as u64;
    let mut log = train(&mut setup.model, &pairs, args.seed, &tracer, window);
    // The window opened before the warm load, a segment without items:
    // items ÷ (load + steps).
    log.measured.add_segment(load_speed, load_ns, 1, &[]);
    let wall_s = log.measured.wall_s();

    outcome.attempted = log.attempted;
    outcome.failed = log.failed;
    // The warm read placed and routed nothing and returned what was stored.
    outcome.failed += u64::from(!stats.fully_warm());
    outcome.failed += u64::from(loaded != setup.generated);
    // Training trains: the last full epoch's L1 is below the first's.
    if let [first, .., last] = log.epoch_l1.as_slice() {
        outcome.failed += u64::from(last >= first);
    }
    outcome.notes.push(format!(
        "train_warm: {} steps over {} pairs in {wall_s:.3} s; epoch L1 {}",
        log.measured.items,
        pairs.len(),
        log.epoch_l1
            .iter()
            .map(|l| format!("{l:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if let Some(fingerprint) = log.epoch1_fingerprint {
        outcome.notes.push(format!(
            "fingerprint train_warm epoch1 weights {fingerprint:016x}"
        ));
    }

    if args.trace {
        pop_obs::disable_tracing();
        outcome.set("pipeline.cache_hits", stats.cache_hits as f64);
        traced(args, &mut setup, &tracer, wall_s, &mut outcome);
    } else {
        end_to_end_rows(&mut outcome, &log.measured);
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome
}

fn traced(args: &Args, setup: &mut Setup, tracer: &Tracer, wall_s: f64, outcome: &mut Outcome) {
    let jobs = expand(&scenarios(args.seed)).expect("the scenarios expanded in set-up");
    let dir = setup.scratch.path().join("traced-store");
    cache_round_trips(outcome, tracer, &dir, &jobs, &setup.generated);

    let spans = tracer.take();
    let by = layers(&spans);
    layer_rows(
        outcome,
        &by,
        &[
            ("nn.train_step", "nn.train_step_us"),
            ("core.cache_store", "core.cache_store_us"),
            ("core.cache_load", "core.cache_load_us"),
        ],
    );

    let x = &setup.generated[0].pairs[0].x;
    let model = &mut setup.model;
    let forward_us = p50_us(100, || drop(model.forecast(x)));
    outcome.set_n("nn.forward_us", forward_us, 100);
    outcome.set("nn.forward_gflops", forward_flops(model) / forward_us / 1e3);

    let total_s = |name: &str| by.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e9);
    outcome.notes.push(format!(
        "ledger train_warm: window {wall_s:.3} s = nn.train_step {:.1}% + warm corpus load {:.1}% \
         + rest {:.1}%",
        100.0 * total_s("nn.train_step") / wall_s,
        100.0 * total_s("pipeline.warm_load") / wall_s,
        100.0 * (wall_s - total_s("nn.train_step") - total_s("pipeline.warm_load")) / wall_s,
    ));
    finish_trace(outcome, args, &spans, &by);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(36, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..36).collect::<Vec<_>>());
        assert_eq!(a, shuffled(36, 7));
        assert_ne!(a, shuffled(36, 8));
        assert_ne!(a, (0..36).collect::<Vec<_>>());
    }
}
