//! Standalone forecast server over HTTP — the CI http-smoke target and
//! the quickest way to poke the API with `curl`.
//!
//! Serves a `hot` model (with quantized replicas) and a `cold` model at
//! a small resolution, prints the bound address (and writes it to
//! `--port-file` for scripts), writes a ready-to-POST request body to
//! `--sample-request`, then blocks on stdin: a `drain` line — or EOF —
//! triggers the graceful shutdown, and the final `DrainReport` is
//! printed as the receipt CI greps (`clean drain: ...`).
//!
//! ```text
//! cargo run --release --bin http_serve -- --port-file port.txt --sample-request body.json
//! curl -s "http://$(cat port.txt)/healthz"
//! curl -s -X POST --data-binary @body.json "http://$(cat port.txt)/v1/forecast"
//! ```

use pop_core::{ExperimentConfig, Pix2Pix};
use pop_http::{api, ForecastService, HttpServer, ServerConfig};
use pop_nn::Tensor;
use pop_serve::EngineConfig;
use std::io::BufRead;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let resolution: usize = flag_value(&args, "--resolution")
        .map(|v| v.parse().expect("--resolution takes a number"))
        .unwrap_or(16);

    let config = ExperimentConfig {
        resolution,
        base_filters: 4,
        depth: 3,
        ..ExperimentConfig::test()
    };
    let service = ForecastService::builder()
        .engine_config(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        })
        .model_with_quantized("hot", Pix2Pix::new(&config, 11).expect("valid config"))
        .model("cold", Pix2Pix::new(&config, 12).expect("valid config"))
        .build()
        .expect("service starts");
    let server = HttpServer::start(
        service,
        ServerConfig {
            addr,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let local = server.local_addr();
    println!("listening on {local} (models: hot+quant, cold @ {resolution}x{resolution})");

    if let Some(path) = flag_value(&args, "--port-file") {
        std::fs::write(&path, local.to_string()).expect("write port file");
    }
    if let Some(path) = flag_value(&args, "--sample-request") {
        let x = Tensor::randn(
            [1, config.input_channels(), resolution, resolution],
            0.0,
            0.5,
            1,
        );
        let body = api::render_forecast_request(None, false, x.data());
        std::fs::write(&path, body).expect("write sample request");
        println!("sample forecast body -> {path}");
    }

    // Serve until the operator says drain (or closes stdin).
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(cmd) if cmd.trim() == "drain" => break,
            Ok(cmd) if cmd.trim() == "stats" => {
                let s = server.http_stats();
                println!(
                    "stats: {} requests, {} connections, 2xx {}, 4xx {}, 5xx {}",
                    s.requests, s.connections, s.responses_2xx, s.responses_4xx, s.responses_5xx
                );
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let report = server.shutdown();
    println!(
        "clean drain: worker_panics {}, requests {}, completed {}, rejected {}, failed {}",
        report.worker_panics,
        report.http.requests,
        report.serve.completed,
        report.serve.rejected,
        report.serve.failed,
    );
    assert_eq!(report.worker_panics, 0, "a worker panicked while serving");
}
