//! `serve_http` — item = one forecast exchange over loopback HTTP/JSON
//! against an in-process [`HttpServer`]: the codec/transport-bound path.
//! Closed loop, [`CLIENTS`] keep-alive connections.

use crate::harness::{
    end_to_end_rows, engine_config, finish_trace, handoff_us, host_speed, kernel_rows, layer_rows,
    overhead_row, peak_rss_mb, same_bits, segments, timed_setups, Args, CLIENTS, PROBE,
};
use crate::inputs::{features, placed_design};
use crate::report::Outcome;
use crate::stats::{percentile_of, Measured};
use crate::trace::{layers, Span, Tracer};
use pop_core::{ExperimentConfig, Pix2Pix};
use pop_http::{
    api, read_response, ForecastService, HttpClient, HttpServer, HttpStatsSnapshot, ParserLimits,
    RequestParser, Response, ServerConfig,
};
use pop_nn::Tensor;
use pop_serve::{ForecastEngine, StatsSnapshot};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The replayed layers: span name, then the metric its median fills.
const REPLAYED: [(&str, &str); 8] = [
    ("client.encode", "client.encode_us"),
    ("client.decode", "client.decode_us"),
    ("http.parse", "http.parse_us"),
    ("http.decode", "http.decode_us"),
    ("http.encode", "http.encode_us"),
    ("http.write", "http.write_us"),
    ("serve.engine", "serve.engine_us"),
    ("nn.forward", "nn.forward_us"),
];
/// Distinct request bodies in rotation.
const BODIES: usize = 16;
const MODEL_SEED: u64 = 11;

/// The `BENCH_serve.json` shape: 32×32, 8 filters, depth 4.
fn model_config() -> ExperimentConfig {
    ExperimentConfig {
        resolution: 32,
        base_filters: 8,
        depth: 4,
        ..ExperimentConfig::test()
    }
}

struct Setup {
    server: HttpServer,
    model: Pix2Pix,
    features: Vec<Tensor>,
}

fn setup(seed: u64) -> Setup {
    let config = model_config();
    let model = Pix2Pix::new(&config, MODEL_SEED).expect("valid model config");
    let (ctx, placements) = placed_design("SHA", &config, seed, BODIES);
    let features = placements.iter().map(|p| features(&ctx, p)).collect();
    let service = ForecastService::builder()
        .engine_config(engine_config())
        .model("hot", model.clone())
        .build()
        .expect("service starts");
    let server = HttpServer::start(
        service,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds a loopback port");
    Setup {
        server,
        model,
        features,
    }
}

/// What the client connections of one window saw.
#[derive(Default)]
struct ClientLog {
    /// Correct exchanges and their latencies; the wall time is the longest
    /// any client ran (they start every segment together and stop at the
    /// same deadline).
    measured: Measured,
    attempted: u64,
    failed: u64,
    reconnects: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        let (mine, theirs) = (&mut self.measured, other.measured);
        mine.items += theirs.items;
        mine.wall_ns = mine.wall_ns.max(theirs.wall_ns);
        mine.latencies_ns.extend(theirs.latencies_ns);
        mine.reference_wall_ns = mine.reference_wall_ns.max(theirs.reference_wall_ns);
        mine.reference_latencies_ns
            .extend(theirs.reference_latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reconnects += other.reconnects;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
    }
}

fn connect(addr: SocketAddr) -> HttpClient {
    HttpClient::connect_with_timeout(addr, Duration::from_secs(60))
        .expect("the in-process server accepts")
}

/// One closed-loop client: render → POST → read → parse, checked bitwise
/// against the in-process forecast, for `window`, in segments every client
/// starts together; between segments, once every client's last exchange has
/// been answered, each reads the host's speed.
#[allow(clippy::too_many_arguments)] // one call site, all inputs distinct
fn client_loop(
    addr: SocketAddr,
    client_id: usize,
    clients: usize,
    features: &[Tensor],
    expected: &[Tensor],
    tracer: &Tracer,
    sync: &Barrier,
    window: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = connect(addr);
    let mut i = 0usize;
    for segment in segments(window) {
        sync.wait(); // nothing in flight any more
        let speed = host_speed(PROBE);
        sync.wait();
        let started = Instant::now();
        let mut latencies_ns = Vec::new();
        while started.elapsed() < segment {
            let item = client_id + i * clients;
            let which = item % features.len();
            i += 1;
            log.attempted += 1;

            let t0 = Instant::now();
            let exchange = tracer.open("client.exchange", 0, item as u64);
            let body = tracer.time("client.encode", exchange.id, item as u64, || {
                api::render_forecast_request(None, false, features[which].data())
            });
            let response = tracer.time("client.post", exchange.id, item as u64, || {
                client.post_json("/v1/forecast", &body)
            });
            let parsed = match &response {
                Ok(res) if res.status == 200 => {
                    tracer.time("client.decode", exchange.id, item as u64, || {
                        api::parse_forecast_response(&res.body).ok()
                    })
                }
                // Errors and refusals (429/503) both miss.
                _ => None,
            };
            tracer.close(exchange);
            let latency = t0.elapsed();

            match parsed {
                Some(tensor) if same_bits(&tensor, &expected[which]) => {
                    latencies_ns.push(latency.as_nanos() as u64);
                }
                _ => log.failed += 1,
            }
            // The server closes a connection after its per-connection request
            // cap (and after any error): reconnect outside the timed exchange.
            let closing = match &response {
                Ok(res) => {
                    log.bytes_in += body.len() as u64;
                    log.bytes_out += res.body.len() as u64;
                    res.header("connection") == Some("close")
                }
                Err(_) => true,
            };
            if closing {
                client = connect(addr);
                log.reconnects += 1;
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        log.measured.add_segment(speed, wall_ns, 1, &latencies_ns);
    }
    log
}

/// One measured (or warm-up) window of `clients` closed-loop connections.
struct Loaded {
    log: ClientLog,
    http_before: HttpStatsSnapshot,
    http_after: HttpStatsSnapshot,
    serve_before: StatsSnapshot,
    serve_after: StatsSnapshot,
}

fn run_window(
    setup: &Setup,
    expected: &[Tensor],
    clients: usize,
    tracer: &Tracer,
    window: Duration,
) -> Loaded {
    let sync = Barrier::new(clients);
    let addr = setup.server.local_addr();
    let http_before = setup.server.http_stats();
    let serve_before = setup.server.serve_stats();
    let mut log = ClientLog::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let (features, sync) = (&setup.features, &sync);
                scope.spawn(move || {
                    client_loop(addr, id, clients, features, expected, tracer, sync, window)
                })
            })
            .collect();
        for handle in handles {
            log.absorb(handle.join().expect("client thread"));
        }
    });
    Loaded {
        log,
        http_before,
        http_after: setup.server.http_stats(),
        serve_before,
        serve_after: setup.server.serve_stats(),
    }
}

/// The request bytes [`HttpClient::send`] puts on the wire for `body`.
fn request_frame(body: &str) -> Vec<u8> {
    let mut frame = format!(
        "POST /v1/forecast HTTP/1.1\r\nHost: pop\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Replays `count` exchanges on this thread through the public functions
/// the server and the client call, in request order, one span per layer.
/// Returns how many were replayed and how many answers were wrong.
fn replay(
    tracer: &Tracer,
    setup: &mut Setup,
    expected: &[Tensor],
    count: usize,
    budget: Duration,
) -> (u64, u64) {
    let engine =
        ForecastEngine::start(setup.model.clone(), engine_config()).expect("replay engine starts");
    let client = engine.client();
    let [_, channels, side, _] = setup.features[0].shape();
    let mut parser = RequestParser::new(ParserLimits::default());
    let started = Instant::now();
    let (mut done, mut wrong) = (0u64, 0u64);
    for i in 0..count {
        if started.elapsed() >= budget {
            break;
        }
        let item = i as u64;
        let which = i % setup.features.len();
        let root = tracer.open("replay", 0, item);
        let body = tracer.time("client.encode", root.id, item, || {
            api::render_forecast_request(None, false, setup.features[which].data())
        });
        let frame = request_frame(&body);
        let request = tracer.time("http.parse", root.id, item, || {
            parser.feed(&frame);
            parser.poll()
        });
        let Ok(Some(request)) = request else {
            wrong += 1;
            tracer.close(root);
            continue;
        };
        let input = tracer.time("http.decode", root.id, item, || {
            api::parse_forecast_request(&request.body)
                .ok()
                .map(|parsed| Tensor::from_vec([1, channels, side, side], parsed.features))
        });
        let Some(input) = input else {
            wrong += 1;
            tracer.close(root);
            continue;
        };
        let served = tracer.time("serve.engine", root.id, item, || {
            client.forecast_tensor(&input)
        });
        let direct = tracer.time("nn.forward", root.id, item, || setup.model.forecast(&input));
        let Ok(served) = served else {
            wrong += 1;
            tracer.close(root);
            continue;
        };
        let json = tracer.time("http.encode", root.id, item, || {
            api::render_forecast_response("hot", false, &served)
        });
        let wire = tracer.time("http.write", root.id, item, || {
            let mut wire = Vec::new();
            Response::json(200, json)
                .write_to(&mut wire, true)
                .expect("writing into a Vec cannot fail");
            wire
        });
        let back = read_response(&mut wire.as_slice()).ok().and_then(|res| {
            tracer.time("client.decode", root.id, item, || {
                api::parse_forecast_response(&res.body).ok()
            })
        });
        tracer.close(root);
        let right =
            back.is_some_and(|t| same_bits(&t, &direct) && same_bits(&direct, &expected[which]));
        done += 1;
        wrong += u64::from(!right);
    }
    engine.shutdown();
    (done, wrong)
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = timed_setups(&mut outcome, || setup(args.seed));
    // Harness work, not the system's set-up: the in-process reference
    // every HTTP answer is compared with.
    let expected: Vec<Tensor> = setup
        .features
        .iter()
        .map(|x| setup.model.forecast(x))
        .collect();
    let off = Tracer::new(false);
    run_window(&setup, &expected, CLIENTS, &off, args.warmup());

    if !args.trace {
        let window = run_window(
            &setup,
            &expected,
            CLIENTS,
            &off,
            Duration::from_secs_f64(args.seconds),
        );
        outcome.attempted = window.log.attempted;
        outcome.failed = window.log.failed;
        end_to_end_rows(&mut outcome, &window.log.measured);
        outcome
            .notes
            .push(format!("serve_http: {} reconnects", window.log.reconnects));
    } else {
        traced(args, &mut setup, &expected, &mut outcome);
    }

    outcome.failed += setup.server.shutdown().worker_panics as u64;
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome
}

fn traced(args: &Args, setup: &mut Setup, expected: &[Tensor], outcome: &mut Outcome) {
    let third = Duration::from_secs_f64(args.seconds / 3.0);
    let sixth = Duration::from_secs_f64(args.seconds / 6.0);
    let off = Tracer::new(false);
    let on = Tracer::new(true);

    // The same loop twice: tracing off (counters, tail latency), then on.
    let plain = run_window(setup, expected, CLIENTS, &off, third);
    pop_obs::enable_tracing();
    let spanned = run_window(setup, expected, CLIENTS, &on, third);
    pop_obs::disable_tracing();
    // One client: the exchange the replayed layers must add up to.
    let solo = run_window(setup, expected, 1, &on, sixth);
    let (replayed, wrong) = replay(
        &on,
        setup,
        expected,
        solo.log.measured.latencies_ns.len(),
        sixth,
    );

    outcome.attempted = plain.log.attempted + spanned.log.attempted + solo.log.attempted + replayed;
    outcome.failed = plain.log.failed + spanned.log.failed + solo.log.failed + wrong;

    let spans: Vec<Span> = on.take();
    let by = layers(&spans);
    let p50 = |name: &str| by.get(name).map_or(0.0, |l| l.p50_ns as f64 / 1e3);
    // Client spans come from three phases; take the replay's for the ledger
    // by restricting to children of `replay` roots.
    let replay_ids: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "replay")
        .map(|s| s.id)
        .collect();
    let replay_spans: Vec<Span> = spans
        .iter()
        .filter(|s| replay_ids.contains(&s.parent))
        .cloned()
        .collect();
    let replayed_by = layers(&replay_spans);
    let layer_us = |name: &str| replayed_by.get(name).map_or(0.0, |l| l.p50_ns as f64 / 1e3);
    layer_rows(outcome, &replayed_by, &REPLAYED);
    let forward_us = layer_us("nn.forward");
    outcome.set("serve.wait_us", layer_us("serve.engine") - forward_us);
    let solo_latencies = &solo.log.measured.latencies_ns;
    let solo_p50_us = percentile_of(solo_latencies, 0.5) as f64 / 1e3;
    // `nn.forward` is replayed beside `serve.engine`, which contains one.
    let replayed_sum: f64 = REPLAYED
        .iter()
        .filter(|(span, _)| *span != "nn.forward")
        .map(|(span, _)| layer_us(span))
        .sum();
    let residual_us = solo_p50_us - replayed_sum;
    outcome.set_n("http.residual_us", residual_us, solo_latencies.len() as u64);

    let plain_latencies = &plain.log.measured.latencies_ns;
    outcome.set_n(
        "client.exchange_p99_ms",
        percentile_of(plain_latencies, 0.99) as f64 / 1e6,
        plain_latencies.len() as u64,
    );
    outcome.set_n(
        "client.exchange_p999_ms",
        percentile_of(plain_latencies, 0.999) as f64 / 1e6,
        plain_latencies.len() as u64,
    );
    outcome.set("client.reconnects", plain.log.reconnects as f64);
    let exchanges = plain.log.attempted.max(1) as f64;
    outcome.set("http.bytes_in", plain.log.bytes_in as f64 / exchanges);
    outcome.set("http.bytes_out", plain.log.bytes_out as f64 / exchanges);
    let http = |counter: fn(&HttpStatsSnapshot) -> u64| {
        (counter(&plain.http_after) - counter(&plain.http_before)) as f64
    };
    outcome.set("http.connections", http(|s| s.connections));
    outcome.set("http.keepalive_reuses", http(|s| s.keepalive_reuses));
    outcome.set("http.responses_4xx", http(|s| s.responses_4xx));
    outcome.set("http.responses_5xx", http(|s| s.responses_5xx));
    outcome.set("http.parse_errors", http(|s| s.parse_errors));
    outcome.set("http.timeouts", http(|s| s.timeouts));
    outcome.set("http.write_errors", http(|s| s.write_errors));
    serve_counters(
        outcome,
        &plain.serve_before,
        &plain.serve_after,
        plain.log.measured.wall_s(),
    );

    let eight: Vec<&Tensor> = setup.features.iter().take(8).collect();
    kernel_rows(outcome, &mut setup.model, &eight, forward_us);
    outcome.set("exec.handoff_us", handoff_us());
    overhead_row(outcome, &plain.log.measured, &spanned.log.measured);

    let share = |us: f64| 100.0 * us / solo_p50_us.max(1e-9);
    outcome.notes.push(format!(
        "ledger serve_http: 1-client exchange p50 {solo_p50_us:.1} us (n={}); nn.forward {:.1}%, \
         client.*+http.*+residual {:.1}%, serve.wait {:.1}%, residual {:.1}%{}",
        solo_latencies.len(),
        share(forward_us),
        share(solo_p50_us - layer_us("serve.engine")),
        share(layer_us("serve.engine") - forward_us),
        share(residual_us),
        if share(residual_us) > 40.0 {
            " FLAG: residual > 40% of the exchange"
        } else {
            ""
        }
    ));
    outcome.notes.push(format!(
        "traced 2-client window: client.exchange p50 {:.1} us, client.post p50 {:.1} us",
        p50("client.exchange"),
        p50("client.post"),
    ));
    finish_trace(outcome, args, &spans, &by);
}

/// The `serve.*` counter rows from two snapshots of the engine's public
/// stats taken around a window of `wall_s` seconds.
pub fn serve_counters(
    outcome: &mut Outcome,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    wall_s: f64,
) {
    let batches = after.batches - before.batches;
    let answered = (after.completed + after.failed) - (before.completed + before.failed);
    outcome.set("serve.batches", batches as f64);
    outcome.set(
        "serve.mean_batch_occupancy",
        answered as f64 / batches.max(1) as f64,
    );
    outcome.set("serve.max_batch", after.max_batch as f64);
    outcome.set("serve.rejected", (after.rejected - before.rejected) as f64);
    outcome.set("serve.failed", (after.failed - before.failed) as f64);
    outcome.set(
        "serve.forward_busy_share",
        (after.forward_us_total - before.forward_us_total) as f64
            / (engine_config().workers as f64 * wall_s * 1e6),
    );
    // Histogram percentiles are cumulative since engine start (the warm-up
    // runs the same loop, so they describe the same regime).
    outcome.set("serve.p50_latency_us", after.p50_latency_us as f64);
    outcome.set("serve.p99_latency_us", after.p99_latency_us as f64);
}
