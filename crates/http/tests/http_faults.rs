//! Fault injection against a live [`HttpServer`]: hostile clients,
//! saturation, and shutdown races. The invariant under every fault is
//! the same — the server answers with HTTP semantics (408/429/503),
//! keeps serving other clients, and drains with **zero** worker panics.

use pop_core::{ExperimentConfig, Pix2Pix};
use pop_http::{api, ForecastService};
use pop_http::{read_response, HttpClient, HttpServer, ServerConfig};
use pop_nn::Tensor;
use pop_serve::EngineConfig;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        resolution: 16,
        base_filters: 4,
        depth: 3,
        ..ExperimentConfig::test()
    }
}

fn features(seed: u64) -> Vec<f32> {
    let cfg = tiny_config();
    Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, seed)
        .data()
        .to_vec()
}

fn service(engine_config: EngineConfig) -> ForecastService {
    ForecastService::builder()
        .engine_config(engine_config)
        .model("base", Pix2Pix::new(&tiny_config(), 7).unwrap())
        .build()
        .unwrap()
}

fn fast_engine() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

#[test]
fn client_disconnect_mid_request_leaves_the_server_healthy() {
    let server = HttpServer::start(service(fast_engine()), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A client that sends a full forecast request and hangs up without
    // reading a byte of the (large) response.
    for seed in 0..3 {
        let body = api::render_forecast_request(None, false, &features(seed));
        let mut stream = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /v1/forecast HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        drop(stream); // vanish mid-exchange
    }
    // And one that hangs up mid-*request*, body never sent.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/forecast HTTP/1.1\r\nContent-Length: 5000\r\n\r\n{\"fe")
        .unwrap();
    drop(stream);

    // The server still answers a well-behaved client afterwards.
    let mut client = HttpClient::connect(addr).unwrap();
    let res = client.get("/healthz").unwrap();
    assert_eq!(res.status, 200);
    let res = client
        .post_json(
            "/v1/forecast",
            &api::render_forecast_request(None, false, &features(99)),
        )
        .unwrap();
    assert_eq!(res.status, 200, "{}", res.text());

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert!(report.http.connections >= 5);
}

#[test]
fn slowloris_request_hits_the_read_deadline_and_gets_408() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = HttpServer::start(service(fast_engine()), config).unwrap();
    let addr = server.local_addr();

    // Trickle a partial request head and then stall forever.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: slow")
        .unwrap();
    let res = read_response(&mut stream).unwrap();
    assert_eq!(res.status, 408, "stalled mid-head request times out");

    // An *idle* keep-alive connection (no buffered bytes) is closed
    // silently at the same deadline — no 408, just EOF.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(read_response(&mut idle).is_err(), "idle close has no body");

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert!(report.http.timeouts >= 2, "both deadlines were recorded");
}

#[test]
fn engine_saturation_maps_to_429_with_retry_after() {
    // One slow worker, a one-deep queue: any burst overflows.
    let engine = EngineConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 1,
        forward_delay: Duration::from_millis(300),
        ..EngineConfig::default()
    };
    let server = HttpServer::start(service(engine), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for seed in 0..clients {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let body = api::render_forecast_request(None, false, &features(seed as u64));
            let mut client =
                HttpClient::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
            barrier.wait();
            let res = client.post_json("/v1/forecast", &body).unwrap();
            let retry_after = res.header("retry-after").map(str::to_string);
            (res.status, retry_after)
        }));
    }
    let results: Vec<(u16, Option<String>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    let rejected = results.iter().filter(|(s, _)| *s == 429).count();
    assert_eq!(ok + rejected, clients, "saturation yields only 200 or 429");
    assert!(ok >= 1, "someone got through");
    assert!(
        rejected >= 1,
        "a one-deep queue must overflow under a burst"
    );
    for (status, retry_after) in &results {
        if *status == 429 {
            assert_eq!(retry_after.as_deref(), Some("1"));
        }
    }

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.serve.rejected, rejected as u64);
    assert_eq!(report.serve.completed, ok as u64);
}

#[test]
fn connection_backlog_overflow_answers_503_at_the_door() {
    // One worker and a one-deep connection queue: the worker is pinned
    // by the first (silent) connection, the queue holds one more, and
    // every connection after that is turned away with a minimal 503.
    let config = ServerConfig {
        workers: 1,
        conn_backlog: 1,
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server = HttpServer::start(service(fast_engine()), config).unwrap();
    let addr = server.local_addr();

    let pinned = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // worker adopts it
    let queued = TcpStream::connect(addr).unwrap();
    let mut overflow: Vec<TcpStream> = (0..3)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        })
        .collect();

    let mut rejected = 0;
    for stream in &mut overflow {
        if let Ok(res) = read_response(stream) {
            assert_eq!(res.status, 503);
            assert_eq!(res.header("retry-after"), Some("1"));
            rejected += 1;
        }
    }
    assert!(rejected >= 1, "a full backlog must turn connections away");

    drop(pinned);
    drop(queued);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    // `>=`: under scheduler skew the queued connection itself can lose
    // the race and be turned away before we sample it.
    assert!(report.http.accept_rejected >= rejected as u64);
}

#[test]
fn drain_during_inflight_requests_completes_them() {
    let engine = EngineConfig {
        workers: 1,
        forward_delay: Duration::from_millis(200),
        ..EngineConfig::default()
    };
    let server = HttpServer::start(service(engine), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let inflight = std::thread::spawn(move || {
        let body = api::render_forecast_request(None, false, &features(5));
        let mut client = HttpClient::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
        client.post_json("/v1/forecast", &body).unwrap()
    });
    // Let the request reach the engine, then pull the plug.
    std::thread::sleep(Duration::from_millis(80));
    let started = Instant::now();
    let report = server.shutdown();

    let res = inflight.join().unwrap();
    assert_eq!(res.status, 200, "in-flight work survives the drain");
    assert_eq!(
        res.header("connection"),
        Some("close"),
        "a draining server closes the connection after answering"
    );
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.serve.completed, 1);
    assert_eq!(report.serve.failed, 0);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain is bounded"
    );
}

#[test]
fn deeply_nested_body_gets_400_and_the_process_lives() {
    // ROADMAP open item 1: 2 MB of `[` used to recurse the JSON parser off
    // the end of the worker's stack — SIGABRT, the whole process, invisible
    // to `worker_panics`. It is a typed parse error now.
    let server = HttpServer::start(service(fast_engine()), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let bomb = "[".repeat(2 << 20);
    let mut client = HttpClient::connect(addr).unwrap();
    let res = client.post_json("/v1/forecast", &bomb).unwrap();
    assert_eq!(res.status, 400, "{}", res.text());
    assert!(res.text().contains("nesting too deep"), "{}", res.text());
    // The same bomb where a decoder skips rather than builds.
    let hidden = format!("{{\"features\": [1], \"ignored\": {bomb}");
    let res = client.post_json("/v1/forecast", &hidden).unwrap();
    assert_eq!(res.status, 400, "{}", res.text());

    // A fresh connection is served as if nothing happened.
    let mut fresh = HttpClient::connect(addr).unwrap();
    let res = fresh
        .post_json(
            "/v1/forecast",
            &api::render_forecast_request(None, false, &features(3)),
        )
        .unwrap();
    assert_eq!(res.status, 200, "{}", res.text());

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.http.responses_4xx, 2);
}
