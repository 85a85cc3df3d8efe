//! The forecast service: named models, their engines, and HTTP routing.
//!
//! A [`ForecastService`] owns one [`ForecastEngine`] per registered model
//! (plus an optional quantized sibling per model), all recording into a
//! single shared [`ServeStats`] so `/v1/stats` covers the fleet and
//! `/v1/models` can report the per-model split. The server fronting the
//! service keeps its `http.*` series in that same registry, so the
//! `"serve"`, `"http"` and `"metrics"` members of `/v1/stats` are three
//! readings of one set of series. Routing lives in
//! [`ForecastService::handle`] — a pure `Request -> Response` function the
//! server worker pool (and any direct test) calls; it never panics: every
//! failure path is a typed error response, which is what lets pop-lint
//! root the panic-path rule here.

use crate::api::{self, ApiError, ForecastRequest};
use crate::parser::Request;
use crate::response::Response;
use crate::server::HttpStats;
use pop_core::Pix2Pix;
use pop_nn::Tensor;
use pop_obs::{json, Registry};
use pop_serve::{
    EngineConfig, ForecastClient, ForecastEngine, ServeError, ServeStats, StatsSnapshot,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One registered model: its f32 engine, the optional quantized sibling,
/// and the input geometry requests are validated against.
#[derive(Debug)]
struct ModelSlot {
    engine: ForecastEngine,
    client: ForecastClient,
    quant_engine: Option<ForecastEngine>,
    quant_client: Option<ForecastClient>,
    channels: usize,
    resolution: usize,
}

/// Builder for a [`ForecastService`]; register models, then `build`.
#[derive(Debug, Default)]
pub struct ServiceBuilder {
    engine_config: EngineConfig,
    entries: Vec<(String, Pix2Pix, bool)>,
}

impl ServiceBuilder {
    pub fn new() -> Self {
        ServiceBuilder {
            engine_config: EngineConfig::default(),
            entries: Vec::new(),
        }
    }

    /// The [`EngineConfig`] every per-model engine starts with (its
    /// `model_label` is overwritten per model).
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Registers `model` under `name`, served by f32 replicas only.
    pub fn model(mut self, name: &str, model: Pix2Pix) -> Self {
        self.entries.push((name.to_string(), model, false));
        self
    }

    /// Registers `model` under `name` with both f32 replicas and an i8
    /// quantized sibling engine (requests opt in via `"quantized": true`).
    pub fn model_with_quantized(mut self, name: &str, model: Pix2Pix) -> Self {
        self.entries.push((name.to_string(), model, true));
        self
    }

    /// Starts every engine. The first registered model is the default
    /// target of `POST /v1/forecast` when the body names none.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an empty registry or a
    /// duplicate name, and propagates engine-start failures.
    pub fn build(self) -> Result<ForecastService, ServeError> {
        let Some(first) = self.entries.first() else {
            return Err(ServeError::BadConfig(
                "a service needs at least one model".into(),
            ));
        };
        let default_model = first.0.clone();
        let stats = Arc::new(ServeStats::default());
        let mut slots: BTreeMap<String, ModelSlot> = BTreeMap::new();
        for (name, model, quantize) in self.entries {
            if slots.contains_key(&name) {
                return Err(ServeError::BadConfig(format!(
                    "duplicate model name {name:?}"
                )));
            }
            let hint = model.config().clone();
            let channels = hint.input_channels();
            let resolution = hint.resolution;
            let quant = if quantize {
                Some(model.quantized())
            } else {
                None
            };
            let mut config = self.engine_config.clone();
            config.model_label = Some(name.clone());
            let engine = ForecastEngine::start_with_stats(model, config, Arc::clone(&stats))?;
            let client = engine.client();
            let (quant_engine, quant_client) = match quant {
                Some(snapshot) => {
                    let mut config = self.engine_config.clone();
                    config.model_label = Some(format!("{name}/quant"));
                    let engine = ForecastEngine::start_quantized_with_stats(
                        snapshot,
                        &hint,
                        config,
                        Arc::clone(&stats),
                    )?;
                    let client = engine.client();
                    (Some(engine), Some(client))
                }
                None => (None, None),
            };
            slots.insert(
                name,
                ModelSlot {
                    engine,
                    client,
                    quant_engine,
                    quant_client,
                    channels,
                    resolution,
                },
            );
        }
        Ok(ForecastService {
            slots,
            stats,
            http: OnceLock::new(),
            default_model,
        })
    }
}

/// A routable fleet of forecast engines — see the module docs.
#[derive(Debug)]
pub struct ForecastService {
    slots: BTreeMap<String, ModelSlot>,
    stats: Arc<ServeStats>,
    /// Set by the server that fronts this service; `/v1/stats` answers
    /// `"http": null` while there is none.
    http: OnceLock<HttpStats>,
    default_model: String,
}

impl ForecastService {
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// The transport series, resolved from the service's registry on
    /// first use (a server start-up, never a request).
    pub(crate) fn http_stats(&self) -> &HttpStats {
        self.http
            .get_or_init(|| HttpStats::resolve(self.stats.registry()))
    }

    /// Routes one request. Infallible by construction: anything wrong
    /// becomes an error response.
    pub fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::json(
                200,
                format!("{{\"status\": \"ok\", \"models\": {}}}", self.slots.len()),
            ),
            ("GET", "/v1/models") => Response::json(200, self.render_models()),
            ("GET", "/v1/stats") => Response::json(200, self.render_stats()),
            ("POST", "/v1/forecast") => match api::parse_forecast_request(&req.body) {
                Ok(parsed) => self.answer_forecast(parsed),
                Err(e) => Response::error(e.status, &e.message),
            },
            ("POST", path) => match model_route(path) {
                Some(name) => match api::parse_forecast_request(&req.body) {
                    Ok(mut parsed) => {
                        // The path names the model; a conflicting body is
                        // a client error, an absent one is the idiom.
                        match parsed.model.as_deref() {
                            Some(other) if other != name => {
                                return Response::error(
                                    400,
                                    "body \"model\" conflicts with the path",
                                )
                            }
                            _ => parsed.model = Some(name.to_string()),
                        }
                        self.answer_forecast(parsed)
                    }
                    Err(e) => Response::error(e.status, &e.message),
                },
                None => self.method_or_not_found(&req.path),
            },
            _ => self.method_or_not_found(&req.path),
        }
    }

    fn method_or_not_found(&self, path: &str) -> Response {
        match path {
            "/healthz" | "/v1/models" | "/v1/stats" => {
                Response::error(405, "method not allowed").header("Allow", "GET")
            }
            "/v1/forecast" => Response::error(405, "method not allowed").header("Allow", "POST"),
            _ => Response::error(404, "no such route"),
        }
    }

    fn answer_forecast(&self, parsed: ForecastRequest) -> Response {
        let quantized = parsed.quantized;
        let name = match parsed.model {
            Some(name) => name,
            None => self.default_model.clone(),
        };
        let Some(slot) = self.slots.get(&name) else {
            return Response::error(404, &format!("unknown model {name:?}"));
        };
        let (client, label) = if quantized {
            match &slot.quant_client {
                Some(client) => (client, format!("{name}/quant")),
                None => {
                    return Response::error(
                        400,
                        &format!("model {name:?} has no quantized replicas"),
                    )
                }
            }
        } else {
            (&slot.client, name.clone())
        };
        let tensor = match build_input(parsed.features, slot.channels, slot.resolution) {
            Ok(t) => t,
            Err(e) => return Response::error(e.status, &e.message),
        };
        // Runs on this connection worker when the engine has no backlog.
        match client.try_forecast_tensor(&tensor) {
            Ok(out) => {
                // Rendered once, into the bytes the response owns.
                let mut body = Vec::new();
                api::write_forecast_response(&mut body, &label, quantized, &out);
                Response::json(200, body)
            }
            Err(ServeError::QueueFull) => {
                Response::error(429, "forecast queue is full").header("Retry-After", "1")
            }
            Err(ServeError::BadInput(m)) => Response::error(400, &m),
            Err(ServeError::ShuttingDown) => Response::error(503, "service is shutting down"),
            // Engine errors (including a caught forward panic) become
            // per-request 500s; the connection and the engine live on.
            Err(e) => Response::error(500, &format!("forecast failed: {e}")),
        }
    }

    fn render_models(&self) -> String {
        let snap = self.stats.snapshot();
        let mut out = String::from("{\"default\": ");
        out.push_str(&json::str_lit(&self.default_model));
        out.push_str(", \"models\": [");
        for (i, (name, slot)) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"channels\": {}, \"resolution\": {}, \"quantized\": {}, \"queue_depth\": {}, \"requests\": {}, \"quant_requests\": {}}}",
                json::str_lit(name),
                slot.channels,
                slot.resolution,
                slot.quant_client.is_some(),
                slot.engine.queue_depth(),
                render_model_stats(&snap, name),
                match &slot.quant_engine {
                    Some(_) => render_model_stats(&snap, &format!("{name}/quant")),
                    None => "null".to_string(),
                },
            ));
        }
        out.push_str("]}");
        out
    }

    fn render_stats(&self) -> String {
        let snap = self.stats.snapshot();
        let mut out = String::from("{\"serve\": ");
        out.push_str(&render_snapshot(&snap));
        out.push_str(", \"http\": ");
        match self.http.get() {
            Some(http) => out.push_str(&http.snapshot().render_json()),
            None => out.push_str("null"),
        }
        out.push_str(", \"metrics\": ");
        out.push_str(&render_metrics(self.stats.registry()));
        out.push('}');
        out
    }

    /// Point-in-time service-wide counters (all engines, both kinds).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Registered model names, sorted.
    pub fn model_names(&self) -> Vec<String> {
        self.slots.keys().cloned().collect()
    }

    /// The model `POST /v1/forecast` targets when the body names none.
    pub fn default_model(&self) -> &str {
        &self.default_model
    }

    /// A direct in-process client onto one engine — the seam the golden
    /// determinism tests compare the HTTP path against.
    pub fn client(&self, model: &str, quantized: bool) -> Option<ForecastClient> {
        let slot = self.slots.get(model)?;
        if quantized {
            slot.quant_client.clone()
        } else {
            Some(slot.client.clone())
        }
    }

    /// Current depth of one model's f32 request queue.
    pub fn queue_depth(&self, model: &str) -> Option<usize> {
        self.slots.get(model).map(|s| s.engine.queue_depth())
    }

    /// Drains and joins every engine, returning the final counters.
    pub fn shutdown(self) -> StatsSnapshot {
        for (_, slot) in self.slots {
            slot.engine.shutdown();
            if let Some(engine) = slot.quant_engine {
                engine.shutdown();
            }
        }
        self.stats.snapshot()
    }
}

/// `/v1/models/<name>/forecast` → `<name>`; the per-scenario endpoint
/// sugar over the body's `"model"` field.
fn model_route(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/v1/models/")?;
    let name = rest.strip_suffix("/forecast")?;
    if name.is_empty() || name.contains('/') {
        return None;
    }
    Some(name)
}

fn build_input(features: Vec<f32>, channels: usize, resolution: usize) -> Result<Tensor, ApiError> {
    let shape = [1, channels, resolution, resolution];
    let expected =
        api::checked_volume(shape).ok_or_else(|| ApiError::bad("model geometry overflows"))?;
    if features.len() != expected {
        return Err(ApiError::bad(format!(
            "\"features\" has {} values; model wants {expected} ({channels}x{resolution}x{resolution})",
            features.len()
        )));
    }
    Ok(Tensor::from_vec(shape, features))
}

/// One label's counters (engines register their label when they start).
fn render_model_stats(snap: &StatsSnapshot, label: &str) -> String {
    let Some(m) = snap.per_model.iter().find(|m| m.model == label) else {
        return "null".to_string();
    };
    format!(
        "{{\"completed\": {}, \"failed\": {}, \"mean_latency_us\": {}, \"p50_latency_us\": {}, \"p99_latency_us\": {}}}",
        m.completed,
        m.failed,
        json::num(m.mean_latency_us),
        m.p50_latency_us,
        m.p99_latency_us
    )
}

fn render_snapshot(snap: &StatsSnapshot) -> String {
    let mut out = format!(
        "{{\"submitted\": {}, \"rejected\": {}, \"completed\": {}, \"failed\": {}, \"batches\": {}, \"max_batch\": {}, \"mean_batch_occupancy\": {}, \"mean_latency_us\": {}, \"p50_latency_us\": {}, \"p99_latency_us\": {}, \"max_latency_us\": {}, \"quant_completed\": {}, \"p50_quant_latency_us\": {}, \"p99_quant_latency_us\": {}, \"per_model\": [",
        snap.submitted,
        snap.rejected,
        snap.completed,
        snap.failed,
        snap.batches,
        snap.max_batch,
        json::num(snap.mean_batch_occupancy),
        json::num(snap.mean_latency_us),
        snap.p50_latency_us,
        snap.p99_latency_us,
        snap.max_latency_us,
        snap.quant_completed,
        snap.p50_quant_latency_us,
        snap.p99_quant_latency_us,
    );
    for (i, m) in snap.per_model.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"model\": {}, \"stats\": {}}}",
            json::str_lit(&m.model),
            render_model_stats(snap, &m.model)
        ));
    }
    out.push_str("]}");
    out
}

/// One kind of series as a JSON object: this service's (`serve.*`,
/// `http.*`) and the process-global ones (`exec.*`, …), name-sorted.
fn render_series<T>(
    mut own: Vec<(String, T)>,
    global: Vec<(String, T)>,
    value: impl Fn(&T) -> String,
) -> String {
    own.extend(global);
    own.sort_by(|a, b| a.0.cmp(&b.0));
    let members: Vec<String> = own
        .iter()
        .map(|(name, v)| format!("{}: {}", json::str_lit(name), value(v)))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The `/v1/stats` metrics dump.
fn render_metrics(service: &Registry) -> String {
    let (own, global) = (service.snapshot(), pop_obs::global().snapshot());
    format!(
        "{{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}}",
        render_series(own.counters, global.counters, u64::to_string),
        render_series(own.gauges, global.gauges, |v| json::num(*v)),
        render_series(own.histograms, global.histograms, |h| format!(
            "{{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
            h.count,
            h.percentile(0.50),
            h.percentile(0.99),
            h.max
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::ExperimentConfig;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            resolution: 16,
            base_filters: 4,
            depth: 3,
            ..ExperimentConfig::test()
        }
    }

    fn tiny_model(seed: u64) -> Pix2Pix {
        Pix2Pix::new(&tiny_config(), seed).unwrap()
    }

    fn tiny_engine_config() -> EngineConfig {
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, body: String) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.into_bytes(),
            keep_alive: true,
        }
    }

    fn features(seed: u64) -> Vec<f32> {
        let cfg = tiny_config();
        Tensor::randn([1, cfg.input_channels(), 16, 16], 0.0, 0.5, seed)
            .data()
            .to_vec()
    }

    fn service() -> ForecastService {
        ForecastService::builder()
            .engine_config(tiny_engine_config())
            .model_with_quantized("base", tiny_model(3))
            .model("alt", tiny_model(4))
            .build()
            .unwrap()
    }

    #[test]
    fn healthz_and_models_routes_answer() {
        let svc = service();
        let res = svc.handle(&get("/healthz"));
        assert_eq!(res.status(), 200);
        let body = String::from_utf8(res.body().to_vec()).unwrap();
        assert!(body.contains("\"models\": 2"));

        let res = svc.handle(&get("/v1/models"));
        assert_eq!(res.status(), 200);
        let doc = json::parse(std::str::from_utf8(res.body()).unwrap()).unwrap();
        assert_eq!(doc.get("default").unwrap().as_str(), Some("base"));
        let models = doc.get("models").unwrap().as_array().unwrap();
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].get("name").unwrap().as_str(), Some("alt"));
        assert_eq!(models[1].get("name").unwrap().as_str(), Some("base"));
        svc.shutdown();
    }

    #[test]
    fn forecast_routes_to_the_named_model_and_reports_per_model_stats() {
        let svc = service();
        let body = api::render_forecast_request(Some("alt"), false, &features(9));
        let res = svc.handle(&post("/v1/forecast", body));
        assert_eq!(res.status(), 200);
        let out = api::parse_forecast_response(res.body()).unwrap();
        let shape = out.shape();
        assert_eq!((shape[0], shape[2], shape[3]), (1, 16, 16));

        // Default model (no "model" field) and the quantized flag.
        let body = api::render_forecast_request(None, true, &features(10));
        let res = svc.handle(&post("/v1/forecast", body));
        assert_eq!(res.status(), 200, "default model serves quantized");

        let snap = svc.stats();
        let labels: Vec<&str> = snap.per_model.iter().map(|m| m.model.as_str()).collect();
        assert!(labels.contains(&"alt"));
        assert!(labels.contains(&"base/quant"));
        svc.shutdown();
    }

    #[test]
    fn per_scenario_endpoint_sugar_routes_by_path() {
        let svc = service();
        let body = api::render_forecast_request(None, false, &features(11));
        let res = svc.handle(&post("/v1/models/alt/forecast", body));
        assert_eq!(res.status(), 200);
        // Conflicting body model is a client error.
        let body = api::render_forecast_request(Some("base"), false, &features(11));
        let res = svc.handle(&post("/v1/models/alt/forecast", body));
        assert_eq!(res.status(), 400);
        svc.shutdown();
    }

    #[test]
    fn error_routing_covers_the_4xx_family() {
        let svc = service();
        assert_eq!(svc.handle(&get("/nope")).status(), 404);
        assert_eq!(svc.handle(&get("/v1/forecast")).status(), 405);
        assert_eq!(svc.handle(&post("/healthz", String::new())).status(), 405);
        let res = svc.handle(&post("/v1/forecast", "not json".to_string()));
        assert_eq!(res.status(), 400);
        let body = api::render_forecast_request(Some("missing"), false, &features(1));
        assert_eq!(svc.handle(&post("/v1/forecast", body)).status(), 404);
        let body = api::render_forecast_request(Some("alt"), true, &features(1));
        assert_eq!(
            svc.handle(&post("/v1/forecast", body)).status(),
            400,
            "alt has no quantized replicas"
        );
        let body = api::render_forecast_request(Some("alt"), false, &[1.0, 2.0]);
        let res = svc.handle(&post("/v1/forecast", body));
        assert_eq!(res.status(), 400, "wrong feature count");
        svc.shutdown();
    }

    #[test]
    fn stats_route_reports_serve_and_metrics_sections() {
        let svc = service();
        let body = api::render_forecast_request(None, false, &features(12));
        assert_eq!(svc.handle(&post("/v1/forecast", body)).status(), 200);
        let res = svc.handle(&get("/v1/stats"));
        assert_eq!(res.status(), 200);
        let doc = json::parse(std::str::from_utf8(res.body()).unwrap()).unwrap();
        let serve = doc.get("serve").unwrap();
        assert!(serve.get("completed").unwrap().as_u64().unwrap() >= 1);
        assert!(doc.get("metrics").unwrap().get("counters").is_some());
        assert_eq!(doc.get("http"), Some(&json::Value::Null));
        // A server fronting the service counts into the same registry.
        svc.http_stats().requests.add(5);
        let res = svc.handle(&get("/v1/stats"));
        let doc = json::parse(std::str::from_utf8(res.body()).unwrap()).unwrap();
        assert_eq!(
            doc.get("http").unwrap().get("requests").unwrap().as_u64(),
            Some(5)
        );
        svc.shutdown();
    }

    #[test]
    fn a_lone_forecast_runs_on_the_thread_that_handles_it() {
        let svc = service();
        let body = api::render_forecast_request(None, false, &features(13));
        assert_eq!(svc.handle(&post("/v1/forecast", body)).status(), 200);
        assert_eq!(svc.queue_depth("base"), Some(0));
        let snap = svc.stats();
        assert_eq!((snap.submitted, snap.caller_runs, snap.batches), (1, 1, 1));
        // The new series is in the dump; the pinned sections do not grow.
        let res = svc.handle(&get("/v1/stats"));
        let doc = json::parse(std::str::from_utf8(res.body()).unwrap()).unwrap();
        let counters = doc.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("serve.caller_runs").unwrap().as_u64(), Some(1));
        assert!(doc.get("serve").unwrap().get("caller_runs").is_none());
        svc.shutdown();
    }

    #[test]
    fn builder_rejects_empty_and_duplicate_registrations() {
        assert!(matches!(
            ForecastService::builder().build(),
            Err(ServeError::BadConfig(_))
        ));
        let result = ForecastService::builder()
            .engine_config(tiny_engine_config())
            .model("m", tiny_model(1))
            .model("m", tiny_model(2))
            .build();
        assert!(matches!(result, Err(ServeError::BadConfig(_))));
    }
}
