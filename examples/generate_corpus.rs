//! End-to-end pipeline smoke: generate a scenario corpus on the
//! parallel pipeline (optionally through the per-job disk cache), check it
//! against the sequential reference, and hand the pairs to a resumable
//! streamed training run.
//!
//! ```text
//! cargo run --release --example generate_corpus [scenario] \
//!     [--cache-dir DIR] [--cache-budget BYTES] [--resume] \
//!     [--trace-out PATH]
//! ```
//!
//! * `--cache-dir DIR` — generate through a `CorpusStore` rooted at `DIR`:
//!   the first run is cold (writes per-job caches as jobs complete), a
//!   re-run is warm (100% cache hits, zero place/route stage executions)
//!   and must produce a bitwise-identical corpus checksum. The streamed
//!   training epochs are store entries too, and the training checkpoint
//!   lives in `DIR/checkpoint`. Concurrent cold runs over one `DIR`
//!   coordinate through per-entry claim files: the second process waits
//!   for the first instead of duplicating its work.
//! * `--cache-budget BYTES` — bound the store's total size (suffixes
//!   `K`/`M`/`G` accepted); least-recently-used entries are swept after
//!   each write.
//! * `--resume` — honour the checkpoint's progress marker **and** the
//!   model saved next to it: an interrupted run picks up at the first
//!   untrained epoch *with the trained weights*, streaming the remaining
//!   epochs from the store. Without the flag the checkpoint is reset and
//!   training starts from epoch 0.
//! * `--trace-out PATH` — enable span tracing and write a
//!   `pop_obs::RunReport` (span tree + metric snapshot + wall clock) to
//!   `PATH` at exit. The run self-validates the report: it parses the
//!   written file back with `pop_obs::json::parse` and, on cold runs,
//!   asserts every pipeline stage (prep/place/route/raster) recorded at
//!   least one span. The CI obs-smoke greps the printed `trace …` lines.

use painting_on_placement as pop;
use pop::core::dataset::DesignDataset;
use pop::core::{Pix2Pix, StreamCheckpoint};
use pop::pipeline::{
    generate_corpus_sequential, generate_corpus_with_stats, scenario, EpochPrefetcher,
    PipelineOptions, TrainCheckpoint,
};

/// Parses `512`, `64K`/`64KB`, `16M`/`16MB` or `1G`/`1GB` into bytes;
/// an unrecognised suffix is an error, never a silently wrong multiplier.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (digits, suffix) = s.split_at(split);
    let mult: u64 = match suffix.to_ascii_uppercase().as_str() {
        "" => 1,
        "K" | "KB" => 1 << 10,
        "M" | "MB" => 1 << 20,
        "G" | "GB" => 1 << 30,
        other => return Err(format!("bad byte suffix '{other}' in '{s}'")),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("bad byte count '{s}'"))
}

/// FNV-1a over every value of every pair, wall-clock provenance included
/// (the cache round-trips it bitwise, so cold-vs-warm runs must agree on
/// the full checksum).
fn corpus_checksum(corpus: &[DesignDataset]) -> u64 {
    let mut h = pop::core::codec::Fnv1a::new();
    for ds in corpus {
        h.eat_bytes(ds.name.as_bytes());
        h.eat(ds.channel_width as u64);
        for p in &ds.pairs {
            h.eat(p.meta.index as u64);
            h.eat(p.meta.place_seed);
            h.eat(p.meta.true_mean_congestion.to_bits() as u64);
            h.eat(p.meta.true_max_congestion.to_bits() as u64);
            h.eat(p.meta.route_micros);
            h.eat(p.meta.place_micros);
            for v in p.x.data().iter().chain(p.y.data()) {
                h.eat(v.to_bits() as u64);
            }
        }
    }
    h.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut name = "smoke".to_string();
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_budget: Option<u64> = None;
    let mut resume = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" => {
                cache_dir = Some(args.next().ok_or("--cache-dir needs a path")?.into());
            }
            "--trace-out" => {
                trace_out = Some(args.next().ok_or("--trace-out needs a path")?.into());
            }
            "--cache-budget" => {
                cache_budget = Some(parse_bytes(
                    &args.next().ok_or("--cache-budget needs a byte count")?,
                )?);
            }
            "--resume" => resume = true,
            other => name = other.to_string(),
        }
    }
    // Tracing is enabled before any pipeline work so the report's span
    // window covers corpus generation AND the streamed training epochs.
    let run_started = std::time::Instant::now();
    if trace_out.is_some() {
        pop::obs::enable_tracing();
    }

    let spec = scenario::by_name(&name)
        .ok_or_else(|| format!("unknown scenario '{name}' (see pop::pipeline::scenario)"))?;
    let spec_name = spec.name.clone();
    println!(
        "scenario '{}': design {}, {} variant(s) x {} pairs at {}x{} px",
        spec.name,
        spec.design,
        spec.variants,
        spec.pairs_per_design,
        spec.resolution,
        spec.resolution
    );

    let mut opts = PipelineOptions::with_workers(4);
    if let Some(dir) = &cache_dir {
        opts = opts.with_cache_dir(dir);
        println!("cache dir: {}", dir.display());
    }
    if let Some(bytes) = cache_budget {
        opts = opts.with_cache_budget(bytes);
        println!("cache budget: {bytes} bytes (LRU sweep after each write)");
    }
    let (corpus, stats) = generate_corpus_with_stats(std::slice::from_ref(&spec), &opts)?;
    println!(
        "cache hits: {}/{} (place-stage runs: {}, route-stage runs: {})",
        stats.cache_hits, stats.jobs, stats.place_stage_runs, stats.route_stage_runs
    );
    // The global observability counters must tell the same story as this
    // run's GenStats ledger (this is the first pipeline run in the
    // process, so the registry deltas ARE this run's totals).
    {
        let snap = pop::obs::global().snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let (hits, misses) = (
            counter("pipeline.cache.hits"),
            counter("pipeline.cache.misses"),
        );
        assert_eq!(hits, stats.cache_hits as u64, "obs hit counter vs stats");
        if cache_dir.is_some() {
            assert_eq!(
                misses,
                (stats.jobs - stats.cache_hits) as u64,
                "obs miss counter vs stats"
            );
        }
        assert_eq!(counter("pipeline.jobs"), stats.jobs as u64);
        println!("obs cache counters agree with pipeline stats (hits {hits}, misses {misses})");
    }
    let warm = stats.cache_hits == stats.jobs;
    if warm {
        assert_eq!(
            (stats.place_stage_runs, stats.route_stage_runs),
            (0, 0),
            "a fully warm run must not execute place/route stages"
        );
        println!("warm run: corpus streamed straight from disk");
    } else {
        // Cold (or partially cold) runs are cross-checked against the
        // sequential reference path pair by pair; warm runs are instead
        // pinned by the checksum, which must equal the cold run's.
        let reference = generate_corpus_sequential(std::slice::from_ref(&spec))?;
        for (p, s) in corpus.iter().zip(&reference) {
            assert_eq!(p.pairs.len(), s.pairs.len());
            for (pp, sp) in p.pairs.iter().zip(&s.pairs) {
                assert_eq!(
                    pp.without_timings(),
                    sp.without_timings(),
                    "pipeline output diverged from the sequential path"
                );
            }
        }
        println!("parallel output is bitwise-identical to the sequential path");
    }
    for ds in &corpus {
        println!(
            "  {}: {} pairs, fabric {}x{} (channel width {})",
            ds.name,
            ds.pairs.len(),
            ds.grid_width,
            ds.grid_height,
            ds.channel_width
        );
    }
    println!("corpus checksum: {:016x}", corpus_checksum(&corpus));

    // Streamed training on fresh placements per epoch, generated on the
    // prefetcher's thread. With a cache dir, `DIR/checkpoint` holds the
    // progress marker and the model, so an interrupted (or re-run) session
    // resumes from the last completed epoch; the epochs it still needs are
    // store entries, read back instead of regenerated.
    let epochs = 2;
    let config = spec.config();
    let mut checkpoint = cache_dir
        .as_ref()
        .map(|dir| TrainCheckpoint::new(dir.join("checkpoint")));
    let mut restored = None;
    if let Some(ckpt) = &checkpoint {
        if resume {
            restored = ckpt.restore(&config)?;
        }
        if restored.is_some() {
            println!(
                "model checkpoint: restored weights + optimiser state ({} epoch(s) already trained)",
                ckpt.completed_epochs()
            );
        } else {
            if resume && ckpt.completed_epochs() > 0 {
                // Trained epochs but no model (a deleted file): resuming
                // the data stream under fresh weights would silently skip
                // training, so data and weights restart together.
                println!(
                    "model checkpoint missing: clearing the training checkpoint \
                     so data and weights restart together"
                );
            }
            let _ = std::fs::remove_dir_all(ckpt.dir());
        }
    }
    let mut model = match restored {
        Some(model) => model,
        None => Pix2Pix::new(&config, 7)?,
    };
    let first = checkpoint.as_ref().map_or(0, |c| c.completed_epochs());
    if checkpoint.is_some() {
        println!("streaming training resumed at epoch {first}");
    }
    // Epoch N + 1 generates while epoch N trains; the first generation
    // error stops training and is returned.
    let mut prefetcher = EpochPrefetcher::start(vec![spec], opts, first..epochs, 1);
    let mut failed = None;
    let stream = prefetcher
        .by_ref()
        .map_while(|epoch| epoch.map_err(|e| failed = Some(e)).ok());
    let history = match &mut checkpoint {
        Some(ckpt) => model.train_stream_resumable(stream, ckpt),
        None => model.train_stream(stream),
    };
    if let Some(e) = failed {
        return Err(e.into());
    }
    let streamed = prefetcher.stats();
    println!(
        "streamed epoch stats: {}/{} cache hits (place-stage runs: {}, route-stage runs: {})",
        streamed.cache_hits, streamed.jobs, streamed.place_stage_runs, streamed.route_stage_runs
    );
    println!(
        "streamed {} training epoch(s); final G loss {:.4}",
        history.generator_loss.len(),
        history.generator_loss.last().copied().unwrap_or(f32::NAN)
    );

    if let Some(path) = &trace_out {
        let report = pop::obs::RunReport::capture(
            &format!("generate_corpus:{}", spec_name),
            run_started,
            pop::obs::global(),
        );
        report.write_json(path)?;
        // Self-validate: the written artifact must parse back with the
        // crate's own JSON reader — the same check the CI obs-smoke does.
        let text = std::fs::read_to_string(path)?;
        pop::obs::json::parse(&text).map_err(|e| format!("trace report invalid: {e}"))?;
        let span_count = |name: &str| {
            pop::obs::find_span(&report.spans, name)
                .map(|n| n.count)
                .unwrap_or(0)
        };
        let stages = [
            ("prep", span_count("prep")),
            ("place_stage", span_count("place_stage")),
            ("route_stage", span_count("route_stage")),
            ("raster_stage", span_count("raster_stage")),
            ("train_epoch", span_count("train_epoch")),
        ];
        println!(
            "trace report: {} ({} root spans, {} dropped) parses OK",
            path.display(),
            report.spans.len(),
            report.dropped_spans
        );
        let rendered: Vec<String> = stages.iter().map(|(n, c)| format!("{n}={c}")).collect();
        println!("trace stage spans: {}", rendered.join(" "));
        if !warm {
            // A cold run executed every stage at least once; the span
            // tree must show it. (Warm runs legitimately skip
            // place/route, so coverage is only asserted when cold.)
            for (name, count) in &stages {
                assert!(*count > 0, "cold run recorded no '{name}' spans");
            }
            println!("trace stage coverage: all pipeline stages recorded");
        }
    }
    Ok(())
}
