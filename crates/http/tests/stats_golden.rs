//! `/v1/stats` counts each event once. After a scripted exchange the
//! `"serve"` and `"http"` members are byte-equal (latencies masked) to
//! what the commit before the per-service registry printed for the same
//! script, every `serve.*` / `http.*` series in `"metrics"` agrees with
//! its twin in those sections, and two services in one process share no
//! series.

use pop_core::{ExperimentConfig, Pix2Pix};
use pop_http::{api, ForecastService, HttpClient, HttpServer, Request, ServerConfig};
use pop_nn::Tensor;
use pop_obs::json::{self, Value};
use pop_serve::EngineConfig;

fn service() -> ForecastService {
    ForecastService::builder()
        .engine_config(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .model_with_quantized("hot", Pix2Pix::new(&ExperimentConfig::test(), 11).unwrap())
        .build()
        .unwrap()
}

fn forecast_body(quantized: bool, seed: u64) -> String {
    let config = ExperimentConfig::test();
    let side = config.resolution;
    let x = Tensor::randn([1, config.input_channels(), side, side], 0.0, 0.5, seed);
    api::render_forecast_request(Some("hot"), quantized, x.data())
}

fn request(method: &str, path: &str, body: String) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.into_bytes(),
        keep_alive: true,
    }
}

/// Replaces the value of every latency key with `_`: the only fields of
/// the two sections that depend on the clock.
fn mask_latencies(section: &str) -> String {
    let mut out = String::new();
    let mut rest = section;
    while let Some(at) = rest.find("latency_us\": ") {
        let value = at + "latency_us\": ".len();
        out.push_str(&rest[..value]);
        out.push('_');
        let end = rest[value..].find([',', '}']).unwrap();
        rest = &rest[value + end..];
    }
    out + rest
}

/// The number at `path` in `doc`.
fn at(doc: &Value, path: &[&str]) -> f64 {
    let leaf = path.iter().fold(doc, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no {key:?} on the way to {path:?}"))
    });
    leaf.as_f64().unwrap()
}

/// Printed by this script at 155c585 (private atomics beside the registry).
const SERVE_GOLDEN: &str = r#"{"submitted": 3, "rejected": 0, "completed": 3, "failed": 0, "batches": 3, "max_batch": 1, "mean_batch_occupancy": 1.000000, "mean_latency_us": _, "p50_latency_us": _, "p99_latency_us": _, "max_latency_us": _, "quant_completed": 1, "p50_quant_latency_us": _, "p99_quant_latency_us": _, "per_model": [{"model": "hot", "stats": {"completed": 2, "failed": 0, "mean_latency_us": _, "p50_latency_us": _, "p99_latency_us": _}}, {"model": "hot/quant", "stats": {"completed": 1, "failed": 0, "mean_latency_us": _, "p50_latency_us": _, "p99_latency_us": _}}]}"#;
const HTTP_GOLDEN: &str = r#"{"connections": 1, "accept_rejected": 0, "requests": 6, "keepalive_reuses": 5, "responses_2xx": 3, "responses_4xx": 2, "responses_5xx": 0, "parse_errors": 0, "timeouts": 0, "write_errors": 0}"#;

#[test]
fn stats_sections_match_the_golden_and_count_each_event_once() {
    let server = HttpServer::start(service(), ServerConfig::default()).unwrap();
    let mut http = HttpClient::connect(server.local_addr()).unwrap();
    // 2 forecasts on `hot`, 1 on `hot/quant`, one 400, one 404 — all on
    // one keep-alive connection, one at a time.
    for (quantized, seed) in [(false, 1), (false, 2), (true, 3)] {
        let body = forecast_body(quantized, seed);
        let res = http.post_json("/v1/forecast", &body).unwrap();
        assert_eq!(res.status, 200, "{}", res.text());
    }
    let res = http.post_json("/v1/forecast", "not json").unwrap();
    assert_eq!(res.status, 400);
    assert_eq!(http.get("/nope").unwrap().status, 404);
    let text = http.get("/v1/stats").unwrap().text();

    let serve_at = text.find("{\"serve\": ").unwrap() + "{\"serve\": ".len();
    let http_at = text.find(", \"http\": ").unwrap();
    let metrics_at = text.find(", \"metrics\": ").unwrap();
    assert_eq!(mask_latencies(&text[serve_at..http_at]), SERVE_GOLDEN);
    assert_eq!(
        &text[http_at + ", \"http\": ".len()..metrics_at],
        HTTP_GOLDEN
    );

    // Count-once: a series in the dump and its twin in a section are two
    // readings of one counter, so on a quiet server they are equal.
    let doc = json::parse(&text).unwrap();
    let counter = |name: &str| at(&doc, &["metrics", "counters", name]);
    let histogram = |name: &str, stat: &str| at(&doc, &["metrics", "histograms", name, stat]);
    let serve = |key: &str| at(&doc, &["serve", key]);
    for (series, key) in [
        ("http.connections", "connections"),
        ("http.accept_rejected", "accept_rejected"),
        ("http.requests", "requests"),
        ("http.keepalive.reuses", "keepalive_reuses"),
        ("http.responses.2xx", "responses_2xx"),
        ("http.responses.4xx", "responses_4xx"),
        ("http.responses.5xx", "responses_5xx"),
        ("http.parse_errors", "parse_errors"),
        ("http.timeouts", "timeouts"),
        ("http.write_errors", "write_errors"),
    ] {
        assert_eq!(counter(series), at(&doc, &["http", key]), "{series}");
    }
    for key in ["submitted", "rejected", "completed", "failed"] {
        assert_eq!(counter(&format!("serve.{key}")), serve(key), "{key}");
    }
    let done = serve("completed") + serve("failed");
    for (series, stat, twin) in [
        ("serve.latency_us", "count", done),
        ("serve.latency_us", "p50", serve("p50_latency_us")),
        ("serve.latency_us", "p99", serve("p99_latency_us")),
        ("serve.latency_us", "max", serve("max_latency_us")),
        ("serve.queue_wait_us", "count", done),
        ("serve.quant_latency_us", "count", serve("quant_completed")),
        ("serve.batch_size", "count", serve("batches")),
        ("serve.batch_size", "max", serve("max_batch")),
        ("serve.forward_us", "count", serve("batches")),
    ] {
        assert_eq!(histogram(series, stat), twin, "{series} {stat}");
    }
    let per_model = doc.get("serve").unwrap().get("per_model").unwrap();
    for model in per_model.as_array().unwrap() {
        let label = model.get("model").unwrap().as_str().unwrap();
        let failed = at(model, &["stats", "failed"]);
        let answered = at(model, &["stats", "completed"]) + failed;
        let series = format!("serve.model.{label}");
        assert_eq!(
            histogram(&format!("{series}.latency_us"), "count"),
            answered
        );
        assert_eq!(counter(&format!("{series}.failed")), failed);
    }

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn two_services_do_not_share_series() {
    let (busy, idle) = (service(), service());
    let post = request("POST", "/v1/forecast", forecast_body(true, 5));
    for _ in 0..3 {
        assert_eq!(busy.handle(&post).status(), 200);
    }
    assert_eq!(busy.stats().completed, 3);

    let quiet = idle.stats();
    assert_eq!((quiet.submitted, quiet.completed, quiet.batches), (0, 0, 0));
    assert!(quiet.per_model.iter().all(|m| m.completed + m.failed == 0));
    let res = idle.handle(&request("GET", "/v1/stats", String::new()));
    let doc = json::parse(std::str::from_utf8(res.body()).unwrap()).unwrap();
    let mut seen = 0;
    for kind in ["counters", "gauges", "histograms"] {
        let Some(Value::Object(series)) = doc.get("metrics").unwrap().get(kind) else {
            panic!("no {kind} in the dump");
        };
        // Process-global series (`exec.*`) are shared; the rest are not.
        let own = series
            .iter()
            .filter(|(name, _)| name.starts_with("serve.") || name.starts_with("http."));
        for (name, value) in own {
            seen += 1;
            let reading = value.get("count").unwrap_or(value).as_f64().unwrap();
            assert_eq!(reading, 0.0, "{name} moved on the idle service");
        }
    }
    assert!(seen >= 9, "the idle service lists its own series ({seen})");
    busy.shutdown();
    idle.shutdown();
}
