//! Closed-loop HTTP serving benchmark: QPS and latency percentiles of a
//! live [`pop_http::HttpServer`] under the traffic shapes the ROADMAP
//! north star cares about — steady closed-loop load, bursty arrivals,
//! and a hot/cold model mix with quantized traffic folded in.
//!
//! Emits `BENCH_serve.json` (per-scenario QPS, p50/p99/max latency,
//! 200/429 split) and asserts the serving invariants while measuring:
//! zero transport/5xx errors, zero worker panics, and a clean drain.
//!
//! Run with `cargo bench -p pop-bench --bench serve_http [-- --ci]`.
//! `--ci` (alias `--smoke`) shrinks the model and request counts to
//! seconds of wall-clock; its noisy numbers gate only "the server
//! serves" floors, never thresholds.

use pop_bench::http_load::{self, LoadPlan};
use pop_core::{ExperimentConfig, Pix2Pix};
use pop_http::{ForecastService, HttpServer, ServerConfig};
use pop_serve::EngineConfig;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ci = args.iter().any(|a| a == "--ci" || a == "--smoke");
    let mode = if ci { "ci" } else { "full" };

    // The serve shape: small enough that the bench measures the serving
    // stack (parsing, routing, queueing, batching) rather than minutes
    // of GEMM; large enough that a forward pass dominates a syscall.
    let config = ExperimentConfig {
        resolution: if ci { 16 } else { 32 },
        base_filters: if ci { 4 } else { 8 },
        depth: if ci { 3 } else { 4 },
        ..ExperimentConfig::test()
    };
    let engine = EngineConfig {
        workers: 2,
        max_batch: 8,
        ..EngineConfig::default()
    };
    let service = ForecastService::builder()
        .engine_config(engine)
        .model_with_quantized("hot", Pix2Pix::new(&config, 11).expect("valid config"))
        .model("cold", Pix2Pix::new(&config, 12).expect("valid config"))
        .build()
        .expect("service starts");
    let server = HttpServer::start(
        service,
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr();
    let target = http_load::discover(addr).expect("server describes itself");
    assert_eq!(target.hot, "hot");
    assert_eq!(target.cold.as_deref(), Some("cold"));
    assert!(target.hot_quant, "hot model serves quantized replicas");

    let reqs = if ci { 8 } else { 64 };
    let plans = [
        // Steady closed-loop: the sustained-throughput baseline.
        LoadPlan {
            name: "steady_hot".to_string(),
            clients: 4,
            requests_per_client: reqs,
            burst: 0,
            pause: Duration::ZERO,
            cold_every: 0,
            quant_every: 0,
        },
        // Bursty arrivals: back-to-back volleys separated by idle gaps —
        // the shape that stresses the micro-batcher and the queue bound.
        LoadPlan {
            name: "bursty_hot".to_string(),
            clients: 4,
            requests_per_client: reqs,
            burst: 8,
            pause: Duration::from_millis(20),
            cold_every: 0,
            quant_every: 0,
        },
        // Production-shaped mix: mostly hot f32, every 3rd request the
        // quantized fast path, every 4th the cold model.
        LoadPlan {
            name: "hot_cold_mix".to_string(),
            clients: 4,
            requests_per_client: reqs,
            burst: 0,
            pause: Duration::ZERO,
            cold_every: 4,
            quant_every: 3,
        },
    ];

    let mut reports = Vec::new();
    for plan in &plans {
        let report = http_load::run(addr, &target, plan);
        println!("{}", http_load::summary_line(&report));
        assert_eq!(
            report.errors, 0,
            "{}: only 200/429 are acceptable under load",
            report.name
        );
        assert!(report.qps > 0.0, "{}: the server must serve", report.name);
        assert!(
            report.ok + report.rejected == report.requests,
            "{}: every request is accounted for",
            report.name
        );
        reports.push(report);
    }

    let drain = server.shutdown();
    println!(
        "drain: worker_panics {}, completed {}, rejected {}, http requests {}",
        drain.worker_panics, drain.serve.completed, drain.serve.rejected, drain.http.requests
    );
    assert_eq!(drain.worker_panics, 0, "no connection worker may panic");
    assert_eq!(drain.http.responses_5xx, 0, "no request may hit a 5xx");
    let total_ok: usize = reports.iter().map(|r| r.ok).sum();
    assert!(
        drain.serve.completed >= total_ok as u64,
        "serve-layer counters cover every completed forecast"
    );

    let json = http_load::render_bench_json(mode, config.resolution, &reports);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    println!("wrote {}", out.display());
}
