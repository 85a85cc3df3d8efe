//! Closed-loop HTTP load generator against a running forecast server
//! (`http_serve`, or anything speaking the pop-http API).
//!
//! Discovers the served models from `GET /v1/models`, then drives a
//! closed loop of keep-alive clients with optional bursts and hot/cold
//! or quantized mixes, reporting QPS and p50/p99 latency:
//!
//! ```text
//! cargo run --release --bin http_load -- --addr 127.0.0.1:8080 \
//!     --clients 8 --requests 64 --burst 8 --pause-ms 20 \
//!     --cold-every 4 --quant-every 3 --json load.json
//! ```
//!
//! The generator is *closed-loop*: each client thread owns one keep-alive
//! connection and does not send request `i+1` until request `i` is
//! answered, so measured latency includes server-side queueing and the
//! offered load adapts to what the server sustains (the steady-state QPS
//! is the throughput, not an arrival-rate guess). Bursty arrivals are
//! modeled per client — `burst` back-to-back requests, then an
//! inter-burst `pause` — and hot/cold model mixes by routing every k-th
//! request to the cold model or the quantized sibling.

use pop_http::{api, HttpClient};
use pop_nn::Tensor;
use pop_obs::{json, Histogram};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What the server offers, discovered from `GET /v1/models`.
#[derive(Debug)]
struct Target {
    /// The default model — the hot path.
    hot: String,
    /// A second registered model, when present — the cold path.
    cold: Option<String>,
    /// Whether the hot model has quantized replicas.
    hot_quant: bool,
    /// Input channels of the hot model.
    channels: usize,
    /// Input resolution of the hot model.
    resolution: usize,
}

/// Asks the server what it serves.
///
/// # Errors
///
/// Propagates transport failures; malformed documents are
/// `InvalidData`.
fn discover(addr: SocketAddr) -> std::io::Result<Target> {
    let invalid =
        |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut client = HttpClient::connect(addr)?;
    let res = client.get("/v1/models")?;
    if res.status != 200 {
        return Err(invalid(&format!("/v1/models answered {}", res.status)));
    }
    let doc = json::parse(&res.text()).map_err(|e| invalid(&format!("bad models JSON: {e}")))?;
    let hot = doc
        .get("default")
        .and_then(json::Value::as_str)
        .ok_or_else(|| invalid("missing default model"))?
        .to_string();
    let models = doc
        .get("models")
        .and_then(json::Value::as_array)
        .ok_or_else(|| invalid("missing models array"))?;
    let size = |m: &json::Value, key: &str| m.get(key).and_then(json::Value::as_u64).unwrap_or(0);
    let mut cold = None;
    let mut hot_quant = false;
    let (mut channels, mut resolution) = (0, 0);
    for m in models {
        let name = m
            .get("name")
            .and_then(json::Value::as_str)
            .unwrap_or_default();
        if name == hot {
            hot_quant = m.get("quantized").and_then(json::Value::as_bool) == Some(true);
            channels = size(m, "channels") as usize;
            resolution = size(m, "resolution") as usize;
        } else if cold.is_none() {
            cold = Some(name.to_string());
        }
    }
    if channels == 0 || resolution == 0 {
        return Err(invalid("default model reports no geometry"));
    }
    Ok(Target {
        hot,
        cold,
        hot_quant,
        channels,
        resolution,
    })
}

/// One load scenario.
#[derive(Debug)]
struct LoadPlan {
    /// Scenario label, the `"scenario"` key of the report.
    name: String,
    /// Concurrent closed-loop clients (one keep-alive connection each).
    clients: usize,
    /// Requests each client issues.
    requests_per_client: usize,
    /// Requests sent back-to-back before pausing; 0 disables bursting.
    burst: usize,
    /// Gap between bursts.
    pause: Duration,
    /// Every k-th request targets the cold model (0 = never).
    cold_every: usize,
    /// Every k-th request asks for the quantized hot sibling (0 = never).
    quant_every: usize,
}

/// What one scenario measured.
#[derive(Debug)]
struct LoadReport {
    name: String,
    clients: usize,
    requests: usize,
    /// 200s — completed forecasts.
    ok: usize,
    /// 429s — engine backpressure, the expected overload answer.
    rejected: usize,
    /// Anything else (transport failures, 5xx): must be zero.
    errors: usize,
    elapsed_s: f64,
    /// Completed forecasts per second of wall-clock.
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// Runs one closed-loop scenario to completion.
///
/// # Panics
///
/// Panics when a client cannot connect — load generation against a dead
/// server is a harness bug, not a measurement.
fn run(addr: SocketAddr, target: &Target, plan: &LoadPlan) -> LoadReport {
    // Pre-render a rotation of request bodies so serialization cost sits
    // outside the measured loop: hot f32, quantized hot, cold f32.
    let render = |model: &str, quantized: bool, seeds: std::ops::Range<u64>| -> Vec<String> {
        let shape = [1, target.channels, target.resolution, target.resolution];
        seeds
            .map(|seed| {
                let x = Tensor::randn(shape, 0.0, 0.5, seed);
                api::render_forecast_request(Some(model), quantized, x.data())
            })
            .collect()
    };
    let bodies = render(&target.hot, false, 0..4);
    let quant_bodies = match target.hot_quant {
        true => render(&target.hot, true, 4..6),
        false => Vec::new(),
    };
    let cold_bodies = match &target.cold {
        Some(cold) => render(cold, false, 6..8),
        None => Vec::new(),
    };

    // Exchange latencies of the 200s, microseconds; the percentiles the
    // summary prints are bucket upper bounds (at most 1/16 over).
    let latency_us = Histogram::new();
    let started = Instant::now();
    let (mut ok, mut rejected, mut errors) = (0usize, 0usize, 0usize);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..plan.clients)
            .map(|client_id| {
                let (bodies, quant_bodies, cold_bodies) = (&bodies, &quant_bodies, &cold_bodies);
                let latency_us = &latency_us;
                scope.spawn(move || {
                    let mut client =
                        HttpClient::connect_with_timeout(addr, Duration::from_secs(60))
                            .expect("load client connects");
                    let (mut ok, mut rejected, mut errors) = (0usize, 0usize, 0usize);
                    for i in 0..plan.requests_per_client {
                        let n = client_id + i; // de-phase clients in the mixes
                        let body = if plan.cold_every > 0
                            && !cold_bodies.is_empty()
                            && n % plan.cold_every == 0
                        {
                            &cold_bodies[n % cold_bodies.len()]
                        } else if plan.quant_every > 0
                            && !quant_bodies.is_empty()
                            && n % plan.quant_every == 0
                        {
                            &quant_bodies[n % quant_bodies.len()]
                        } else {
                            &bodies[n % bodies.len()]
                        };
                        let t0 = Instant::now();
                        match client.post_json("/v1/forecast", body) {
                            Ok(res) if res.status == 200 => {
                                ok += 1;
                                latency_us.record_duration(t0.elapsed());
                            }
                            Ok(res) if res.status == 429 => rejected += 1,
                            // The client reconnects by itself, so one
                            // fault doesn't void the rest of the loop.
                            Ok(_) | Err(_) => errors += 1,
                        }
                        if plan.burst > 0 && (i + 1) % plan.burst == 0 {
                            std::thread::sleep(plan.pause);
                        }
                    }
                    (ok, rejected, errors)
                })
            })
            .collect();
        for client in clients {
            let (o, r, e) = client.join().expect("load client thread");
            ok += o;
            rejected += r;
            errors += e;
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let latency = latency_us.snapshot();
    LoadReport {
        name: plan.name.clone(),
        clients: plan.clients,
        requests: plan.clients * plan.requests_per_client,
        ok,
        rejected,
        errors,
        elapsed_s,
        qps: ok as f64 / elapsed_s.max(1e-9),
        p50_us: latency.percentile(0.50),
        p99_us: latency.percentile(0.99),
        max_us: latency.max,
    }
}

/// The `--json` document: the scenario's report under the keys the
/// `serve_http` load artefacts have always used.
fn render_json(resolution: usize, r: &LoadReport) -> String {
    format!(
        "{{\n  \"bench\": \"serve_http\",\n  \"mode\": \"adhoc\",\n  \"resolution\": {resolution},\n  \"scenarios\": [\n    {{\"scenario\": \"{}\", \"clients\": {}, \"requests\": {}, \"ok\": {}, \"rejected\": {}, \"errors\": {}, \"elapsed_s\": {:.3}, \"qps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}\n  ]\n}}\n",
        r.name,
        r.clients,
        r.requests,
        r.ok,
        r.rejected,
        r.errors,
        r.elapsed_s,
        r.qps,
        r.p50_us,
        r.p99_us,
        r.max_us,
    )
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(addr) = flag_value(&args, "--addr") else {
        eprintln!("usage: http_load --addr HOST:PORT [--clients N] [--requests N] [--burst N] [--pause-ms N] [--cold-every N] [--quant-every N] [--name LABEL] [--json PATH]");
        std::process::exit(2);
    };
    let addr: SocketAddr = addr.parse().expect("--addr takes HOST:PORT");

    let plan = LoadPlan {
        name: flag(&args, "--name", "adhoc".to_string()),
        clients: flag(&args, "--clients", 4),
        requests_per_client: flag(&args, "--requests", 32),
        burst: flag(&args, "--burst", 0),
        pause: Duration::from_millis(flag(&args, "--pause-ms", 0)),
        cold_every: flag(&args, "--cold-every", 0),
        quant_every: flag(&args, "--quant-every", 0),
    };

    let target = discover(addr).expect("server answers /v1/models");
    println!(
        "target {addr}: hot {:?} ({}x{}x{}, quantized {}), cold {:?}",
        target.hot,
        target.channels,
        target.resolution,
        target.resolution,
        target.hot_quant,
        target.cold
    );

    let report = run(addr, &target, &plan);
    println!(
        "{}: {} clients x {} reqs -> {:.1} qps, p50 {} us, p99 {} us (ok {}, 429 {}, errors {})",
        report.name,
        plan.clients,
        plan.requests_per_client,
        report.qps,
        report.p50_us,
        report.p99_us,
        report.ok,
        report.rejected,
        report.errors
    );

    if let Some(path) = flag_value(&args, "--json") {
        std::fs::write(path, render_json(target.resolution, &report)).expect("write report json");
        println!("wrote {path}");
    }

    if report.errors > 0 {
        eprintln!("{} requests failed outside 200/429", report.errors);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_parseable_and_keyed() {
        let report = LoadReport {
            name: "steady_hot".into(),
            clients: 4,
            requests: 64,
            ok: 60,
            rejected: 4,
            errors: 0,
            elapsed_s: 1.25,
            qps: 48.0,
            p50_us: 900,
            p99_us: 4100,
            max_us: 5000,
        };
        let text = render_json(32, &report);
        let doc = pop_obs::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("bench").and_then(pop_obs::json::Value::as_str),
            Some("serve_http")
        );
        let scenarios = doc
            .get("scenarios")
            .and_then(pop_obs::json::Value::as_array)
            .unwrap();
        assert_eq!(
            scenarios[0]
                .get("qps")
                .and_then(pop_obs::json::Value::as_f64),
            Some(48.0)
        );
    }
}
