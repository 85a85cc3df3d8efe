//! Golden determinism: a forecast requested over HTTP is **bitwise**
//! identical to the same forecast from an in-process
//! [`pop_serve::ForecastClient`] — for both the f32 engine and the i8
//! quantized sibling. This pins the whole transport stack (JSON float
//! formatting, parsing, request routing) as lossless: `fmt_f32`'s
//! shortest-repr decimals survive the f64 JSON parse exactly.

use pop_core::{ExperimentConfig, Pix2Pix};
use pop_http::{api, ForecastService, HttpClient, HttpServer, ServerConfig};
use pop_nn::Tensor;
use pop_serve::EngineConfig;

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        resolution: 16,
        base_filters: 4,
        depth: 3,
        ..ExperimentConfig::test()
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn http_forecasts_are_bitwise_identical_to_in_process() {
    let service = ForecastService::builder()
        .engine_config(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .model_with_quantized("base", Pix2Pix::new(&tiny_config(), 21).unwrap())
        .build()
        .unwrap();
    // The in-process seam: grab direct engine clients before the server
    // takes ownership of the service.
    let direct_f32 = service.client("base", false).unwrap();
    let direct_quant = service.client("base", true).unwrap();
    let server = HttpServer::start(service, ServerConfig::default()).unwrap();
    let mut http = HttpClient::connect(server.local_addr()).unwrap();

    let channels = tiny_config().input_channels();
    for seed in [1u64, 2, 3] {
        let x = Tensor::randn([1, channels, 16, 16], 0.0, 0.5, seed);
        for quantized in [false, true] {
            let direct = if quantized {
                &direct_quant
            } else {
                &direct_f32
            };
            let expected = direct.forecast_tensor(&x).unwrap();

            let body = api::render_forecast_request(Some("base"), quantized, x.data());
            let res = http.post_json("/v1/forecast", &body).unwrap();
            assert_eq!(res.status, 200, "{}", res.text());
            let label = if quantized { "base/quant" } else { "base" };
            assert!(
                res.text().contains(&format!("\"model\": \"{label}\"")),
                "response names the engine that answered"
            );
            let got = api::parse_forecast_response(&res.body).unwrap();
            assert_eq!(got.shape(), expected.shape());
            assert_eq!(
                bits(&got),
                bits(&expected),
                "HTTP and in-process forecasts diverge (seed {seed}, quantized {quantized})"
            );
        }
    }

    // The per-scenario endpoint sugar answers from the same engine, so
    // it is pinned to the same bits.
    let x = Tensor::randn([1, channels, 16, 16], 0.0, 0.5, 4);
    let expected = direct_f32.forecast_tensor(&x).unwrap();
    let body = api::render_forecast_request(None, false, x.data());
    let res = http.post_json("/v1/models/base/forecast", &body).unwrap();
    assert_eq!(res.status, 200, "{}", res.text());
    let got = api::parse_forecast_response(&res.body).unwrap();
    assert_eq!(bits(&got), bits(&expected));

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.serve.failed, 0);
}
