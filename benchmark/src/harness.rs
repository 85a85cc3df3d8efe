//! What the four workloads share: arguments, the fixed constants of the
//! benchmark, set-up timing, scratch directories and small measurements.

use crate::report::Outcome;
use crate::stats::{median, percentile_of, Measured};
use crate::trace::{self, Layer, Span, Tracer};
use pop_core::dataset::{CorpusStore, DesignDataset};
use pop_core::{Forecaster, Pix2Pix};
use pop_exec::BoundedQueue;
use pop_nn::Tensor;
use pop_pipeline::DesignJob;
use pop_serve::EngineConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times each workload sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// The fixed warm-up window before the first timed item (shorter only when
/// the measured window itself is, as in `--smoke`).
pub const WARMUP_S: f64 = 2.0;
/// Client threads / connections of the closed loop (≤ `nproc` = 2).
pub const CLIENTS: usize = 2;

/// The serving engine every workload starts: fixed, not a knob.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_micros(500),
        ..EngineConfig::default()
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and scratch directories go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Args {
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(WARMUP_S.min(self.seconds))
    }
}

/// Sets up [`SETUP_REPEATS`] times, dropping each state before building the
/// next; returns the last state and fills `setup_s` with the median set-up
/// time in reference-host seconds: each set-up's wall time × the mean of the
/// host-speed readings right before and right after it (the process is idle
/// at both). The median as measured is printed beside it.
pub fn timed_setups<T>(outcome: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let (mut measured, mut reference) = (Vec::new(), Vec::new());
    let mut state = None;
    let mut before = host_speed(SETUP_PROBE);
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        let secs = t.elapsed().as_secs_f64();
        let after = host_speed(SETUP_PROBE);
        measured.push(secs);
        reference.push(secs * 0.5 * (before + after));
        before = after;
    }
    outcome.set_n("setup_s", median(&reference), SETUP_REPEATS as u64);
    outcome.notes.push(format!(
        "set-up: as measured {:.3} s (median of {SETUP_REPEATS})",
        median(&measured)
    ));
    state.expect("SETUP_REPEATS is positive")
}

/// A directory under `out_dir` that is removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(args: &Args, tag: &str) -> Self {
        let dir = args
            .out_dir
            .join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable inside the checkout");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A measured window runs in segments of this length (the last may be
/// shorter). Between segments nothing is in flight and the threads that
/// drive the items read the host's speed.
pub const SEGMENT: Duration = Duration::from_millis(250);
/// How long the reading before a segment runs: a tenth of it.
pub const PROBE: Duration = Duration::from_millis(25);
/// How long the readings around a set-up run.
const SETUP_PROBE: Duration = Duration::from_millis(100);
/// Passes per second of the [`host_speed`] kernel on the sizing host of
/// README.md when undisturbed. It only fixes the unit (speed 1.0 = that
/// host): two commits built by one toolchain see the same kernel.
const REFERENCE_PASSES_PER_S: f64 = 1.0e6;

/// How fast the host runs right now, relative to the reference host: a
/// fixed arithmetic kernel (multiply-adds over an L1-resident array) timed on
/// the calling thread for `burst`. Call it only while the system under test
/// is idle — no item in flight — so the reading cannot depend on the code
/// being measured. See "Host speed" in README.md for why it exists.
pub fn host_speed(burst: Duration) -> f64 {
    const LANES: usize = 4096;
    let mut a = [1.0f32; LANES];
    let b = [1.000_1f32; LANES];
    let mut passes = 0u64;
    let started = Instant::now();
    while started.elapsed() < burst {
        for _ in 0..8 {
            for (x, y) in a.iter_mut().zip(&b) {
                *x = *x * *y + 0.5;
            }
            for x in a.iter_mut() {
                *x *= 0.5;
            }
        }
        passes += 8;
    }
    std::hint::black_box(&a);
    passes as f64 / started.elapsed().as_secs_f64() / REFERENCE_PASSES_PER_S
}

/// The segment lengths of a window: [`SEGMENT`] each, the remainder last.
pub fn segments(window: Duration) -> impl Iterator<Item = Duration> {
    let mut left = window;
    std::iter::from_fn(move || {
        let segment = left.min(SEGMENT);
        left -= segment;
        (!segment.is_zero()).then_some(segment)
    })
}

/// Fills the throughput and latency rows of the end-to-end table with the
/// whole window's figures in reference-host time: correct items ÷ seconds,
/// and the nearest-rank p50 and p90 over every latency sample. The same
/// figures as measured are printed beside them.
pub fn end_to_end_rows(outcome: &mut Outcome, window: &Measured) {
    let samples = window.latencies_ns.len() as u64;
    outcome.set_n("items_per_s", window.reference_rate(), window.items);
    outcome.set_n("item_p50_ms", window.reference_latency_ms(0.50), samples);
    outcome.set_n("item_p90_ms", window.reference_latency_ms(0.90), samples);
    outcome.notes.push(format!(
        "window: {} items in {:.3} s of wall time; as measured {:.3} items/s, p50 {:.3} ms, \
         p90 {:.3} ms (n={samples}); host speed {:.3}",
        window.items,
        window.wall_s(),
        window.rate(),
        window.latency_ms(0.50),
        window.latency_ms(0.90),
        window.speed()
    ));
}

/// Per-layer rows that are a span's median duration: `(span, metric)`.
pub fn layer_rows(
    outcome: &mut Outcome,
    by: &BTreeMap<&'static str, Layer>,
    rows: &[(&str, &'static str)],
) {
    for (span, metric) in rows {
        if let Some(layer) = by.get(span) {
            outcome.set_n(metric, layer.p50_ns as f64 / 1e3, layer.count);
        }
    }
}

/// The single-thread kernel rows at a workload's model shape, given the
/// median batch-1 forward it already took: batch-of-8 forward per image,
/// the quantized forward, and the computed operation rate.
pub fn kernel_rows(outcome: &mut Outcome, model: &mut Pix2Pix, batch: &[&Tensor], forward_us: f64) {
    outcome.set(
        "nn.forward_b8_us",
        p50_us(20, || drop(model.forecast_batch(batch))) / batch.len().max(1) as f64,
    );
    let quantized = model.quantized();
    outcome.set(
        "nn.quant_forward_us",
        p50_us(100, || drop(Forecaster::forecast(&quantized, batch[0]))),
    );
    if forward_us > 0.0 {
        outcome.set("nn.forward_gflops", forward_flops(model) / forward_us / 1e3);
    }
}

/// `obs.trace_overhead_share`: the same loop with spans off, then on.
pub fn overhead_row(outcome: &mut Outcome, plain: &Measured, spanned: &Measured) {
    let (plain, spanned) = (plain.reference_rate(), spanned.reference_rate());
    if plain > 0.0 {
        outcome.set("obs.trace_overhead_share", (plain - spanned) / plain);
    }
}

/// Ends the traced pass: prints every span name's count, total, self time
/// and median; counts this benchmark's spans plus the program's own
/// (`pop_obs`, drained here); writes the former to
/// `<out-dir>/trace-<workload>.json`.
pub fn finish_trace(
    outcome: &mut Outcome,
    args: &Args,
    spans: &[Span],
    by: &BTreeMap<&'static str, Layer>,
) {
    for (name, layer) in by {
        outcome.notes.push(format!(
            "span {name} n={} total_us={:.1} self_us={:.1} p50_us={:.1}",
            layer.count,
            layer.total_ns as f64 / 1e3,
            layer.self_ns as f64 / 1e3,
            layer.p50_ns as f64 / 1e3
        ));
    }
    pop_obs::disable_tracing();
    let in_program = pop_obs::drain_spans();
    outcome.set("obs.spans", (spans.len() + in_program.records.len()) as f64);
    outcome.set("obs.spans_dropped", in_program.dropped as f64);
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&args.workload, spans)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The cache's write and read side: stores and loads each dataset through a
/// fresh [`CorpusStore`] at `dir` under `core.cache_store` / `core.cache_load`
/// spans, checks the round trip, and fills `core.cache_bytes`.
pub fn cache_round_trips(
    outcome: &mut Outcome,
    tracer: &Tracer,
    dir: &Path,
    jobs: &[DesignJob],
    datasets: &[DesignDataset],
) {
    let store = CorpusStore::new(dir);
    let mut bytes = 0u64;
    for (j, (job, ds)) in jobs.iter().zip(datasets).enumerate() {
        let stored = tracer.time("core.cache_store", 0, j as u64, || {
            store.store(ds, &job.spec, &job.config)
        });
        let loaded = tracer.time("core.cache_load", 0, j as u64, || {
            store.load(&job.spec, &job.config)
        });
        outcome.attempted += 1;
        let round_trip = stored.is_ok() && matches!(&loaded, Ok(Some(back)) if back == ds);
        outcome.failed += u64::from(!round_trip);
        bytes += std::fs::metadata(store.entry_path(&job.spec, &job.config)).map_or(0, |m| m.len());
    }
    outcome.set("core.cache_bytes", bytes as f64);
}

/// Median microseconds of `reps` calls of `f`.
pub fn p50_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    percentile_of(&samples, 0.5) as f64 / 1e3
}

/// `exec.handoff_us`: median push→pop latency of a [`BoundedQueue`] across
/// two threads, one item in flight at a time.
pub fn handoff_us() -> f64 {
    const ROUNDS: usize = 2000;
    let there: Arc<BoundedQueue<Instant>> = Arc::new(BoundedQueue::new(1));
    let back: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(1));
    let samples = std::thread::scope(|scope| {
        let (there_rx, back_tx) = (Arc::clone(&there), Arc::clone(&back));
        scope.spawn(move || {
            while let Some(sent) = there_rx.pop() {
                if back_tx.push(sent.elapsed().as_nanos() as u64).is_err() {
                    break;
                }
            }
        });
        let mut samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            if there.push(Instant::now()).is_err() {
                break;
            }
            match back.pop() {
                Some(ns) => samples.push(ns),
                None => break,
            }
        }
        there.close();
        samples
    });
    percentile_of(&samples, 0.5) as f64 / 1e3
}

/// Floating-point operations of one generator forward at batch 1,
/// *computed* from the layer shapes (4×4 kernels, stride 2; a multiply-add
/// counts as two): not a hardware count.
pub fn forward_flops(model: &mut Pix2Pix) -> f64 {
    let resolution = model.config().resolution;
    let gen = model.generator_mut();
    let enc: Vec<usize> = gen.encoder_channels().to_vec();
    let dec: Vec<usize> = gen.decoder_channels().to_vec();
    let depth = enc.len();
    let mut flops = 0.0;
    let mut side = resolution;
    let mut cin = gen.in_channels();
    for &cout in &enc {
        side /= 2; // output side of a stride-2 convolution
        flops += (side * side * cout * cin * 16 * 2) as f64;
        cin = cout;
    }
    for (i, &cout) in dec.iter().enumerate() {
        // Full skip connections: every decoder level but the first also
        // takes the same-resolution encoder activation.
        let cin = if i == 0 {
            enc[depth - 1]
        } else {
            dec[i - 1] + enc[depth - 1 - i]
        };
        flops += (side * side * cin * cout * 16 * 2) as f64;
        side *= 2;
    }
    flops
}

/// FNV-1a over the bit patterns of a tensor — the checksum printed for
/// cross-run comparison.
pub fn eat_tensor(h: &mut pop_core::dataset::Fnv1a, t: &Tensor) {
    for v in t.data() {
        h.eat(u64::from(v.to_bits()));
    }
}

/// Bitwise tensor equality (`==` on `f32` would call `-0.0 == 0.0`).
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::ExperimentConfig;

    #[test]
    fn timed_setups_keeps_the_last_state_and_a_median() {
        let mut outcome = Outcome::default();
        let mut calls = 0;
        let state = timed_setups(&mut outcome, || {
            calls += 1;
            calls
        });
        assert_eq!((state, calls), (SETUP_REPEATS, SETUP_REPEATS));
        assert!(outcome.get("setup_s") >= 0.0);
    }

    #[test]
    fn forward_flops_counts_the_test_unet() {
        // 32×32, 4 filters, depth 4, 4 input channels:
        // enc 4→4 @16², 4→8 @8², 8→16 @4², 16→32 @2²;
        // dec 32→16 @2², (16+16)→8 @4², (8+8)→4 @8², (4+4)→3 @16².
        let mut model = Pix2Pix::new(&ExperimentConfig::test(), 1).unwrap();
        let macs = 256 * 16 + 64 * 32 + 16 * 128 + 4 * 512 // encoder
            + 4 * 512 + 16 * 256 + 64 * 64 + 256 * 24; // decoder
        assert_eq!(forward_flops(&mut model), (macs * 16 * 2) as f64);
    }

    #[test]
    fn a_window_is_cut_into_segments_with_the_remainder_last() {
        let rest = Duration::from_millis(100);
        let lengths: Vec<Duration> = segments(SEGMENT * 2 + rest).collect();
        assert_eq!(lengths, [SEGMENT, SEGMENT, rest]);
        assert_eq!(segments(Duration::ZERO).count(), 0);
        assert!(host_speed(Duration::from_millis(1)) > 0.0);
    }

    #[test]
    fn handoff_is_measured() {
        assert!(handoff_us() > 0.0);
    }

    #[test]
    fn same_bits_is_bitwise() {
        let a = Tensor::from_vec([1, 1, 1, 2], vec![0.0, 1.0]);
        let b = Tensor::from_vec([1, 1, 1, 2], vec![-0.0, 1.0]);
        assert!(same_bits(&a, &a));
        assert!(!same_bits(&a, &b));
    }
}
