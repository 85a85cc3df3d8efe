//! The typed JSON bodies of the forecast API, and their codec.
//!
//! Tensors are the whole payload (4×32×32 features in, 3×32×32 congestion
//! out), so both directions go through [`pop_obs::json`]'s tree-free
//! halves: bodies are rendered by appending to one byte buffer
//! ([`json::write_f32`], no per-number `String`) and decoded by walking a
//! [`Reader`] straight into a `Vec<f32>` (no per-number `Value`).
//!
//! Floats cross the wire *exactly*. The writer emits the shortest decimal
//! that identifies the `f32` — byte for byte what `format!("{v}")` prints,
//! so at most 9 significant digits. The reader scans those digits into an
//! integer `m` and a decimal exponent `e`; with `m < 2^53` and `|e| <= 22`
//! both `m` and `10^|e|` are exact `f64`s, so a single IEEE multiply or
//! divide yields the correctly rounded `f64` of `m·10^e` — the same bits
//! `str::parse::<f64>` returns, which longer or more extreme numbers still
//! go through. That `f64` is then rounded to `f32`, and the second
//! rounding lands on the decimal's own nearest `f32` because the midpoints
//! between adjacent `f32`s are themselves `f64`s and rounding to `f64` is
//! monotone: unless the `f64` *is* a midpoint, it sits on the decimal's
//! side of every one. When it is a midpoint the decimal could be on
//! either side, and [`Reader::read_f32_array`] lets `str::parse::<f32>`
//! round it once. That case is real: the decoder this replaced rounded twice
//! unconditionally, and `0.00000000000000000000000007038531` — the
//! shortest form of `f32` `0x15AE43FD`, and the only one of the 2³² that
//! does this — came back as its neighbour. `pop-obs`'s exhaustive test
//! scans every shortest form back (`write_f32_matches_core_fmt_exhaustively`),
//! and `tests/http_golden.rs` pins bitwise HTTP-vs-in-process equality.
//!
//! Both tensor bodies cost about what their bytes cost. The writer puts
//! an exact one-digit integer (a feature map's `0`s and `1`s) down as its
//! digit. The reader's array loop scans element after element on a local
//! slice and hands an element to the per-element path only when it cannot
//! finish it exactly: more than 19 digits, an exponent past `±22`, an
//! `f32` midpoint, a value outside the normal range, or malformed input.
//! A body spelled that way (CI posts one with 21-digit mantissas) decodes
//! to the same bits, just slower.
//!
//! Accepted grammar, relative to the `Value`-tree parser this replaced:
//! numbers are strict RFC 8259 (`+1`, `01`, `1.`, `.5` are now 400s —
//! they parsed only because `str::parse` is lax), nesting beyond
//! [`json::MAX_DEPTH`] is a 400 instead of a stack overflow, and an
//! ill-typed `features`/`data`/`shape` *element* fails at once even when a
//! later duplicate key would have replaced it. Everything else is as it
//! was: unknown keys are skipped (but must be valid JSON), duplicate keys
//! are last-wins, `null` options mean "absent".

use pop_nn::Tensor;
use pop_obs::json::{self, Reader};
use std::io::Write as _;

/// Bytes reserved per rendered float: sign, `0.`, nine digits, `, `.
const BYTES_PER_FLOAT: usize = 14;

/// A request-level API failure: the HTTP status plus a message for the
/// `{"error": ...}` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    pub status: u16,
    pub message: String,
}

impl ApiError {
    pub fn bad(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status)
    }
}

impl std::error::Error for ApiError {}

impl From<json::ParseError> for ApiError {
    fn from(e: json::ParseError) -> Self {
        ApiError::bad(format!("invalid JSON: {e}"))
    }
}

/// The decoded body of `POST /v1/forecast`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastRequest {
    /// Which registered model answers; `None` selects the service default.
    pub model: Option<String>,
    /// Route to the i8 quantized replicas instead of the f32 engine.
    pub quantized: bool,
    /// The flattened `[1, C, H, W]` feature-map tensor, row-major.
    pub features: Vec<f32>,
}

/// Parses a `POST /v1/forecast` body.
///
/// # Errors
///
/// Returns a 400 [`ApiError`] for non-JSON or structurally wrong documents
/// (missing/ill-typed `features`, ill-typed options).
pub fn parse_forecast_request(body: &[u8]) -> Result<ForecastRequest, ApiError> {
    let mut r = Reader::new(body);
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        r.finish()?;
        return Err(ApiError::bad("request body must be a JSON object"));
    }
    // Each slot holds what the key's last occurrence said, a wrong type
    // included: duplicate keys are last-wins.
    let mut model = Ok(None);
    let mut quantized = Ok(false);
    let mut features = Err(ApiError::bad("\"features\" must be an array of numbers"));
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match (&*key, r.peek()) {
            ("model", Some(b'"')) => model = Ok(Some(r.read_str()?.into_owned())),
            ("model", Some(b'n')) => model = r.read_null().map(|()| Ok(None))?,
            ("model", _) => {
                r.skip_value()?;
                model = Err(ApiError::bad("\"model\" must be a string"));
            }
            ("quantized", Some(b't' | b'f')) => quantized = Ok(r.read_bool()?),
            ("quantized", Some(b'n')) => quantized = r.read_null().map(|()| Ok(false))?,
            ("quantized", _) => {
                r.skip_value()?;
                quantized = Err(ApiError::bad("\"quantized\" must be a boolean"));
            }
            ("features", Some(b'[')) => features = Ok(read_f32_vec(&mut r)?),
            ("features", _) => {
                r.skip_value()?;
                features = Err(ApiError::bad("\"features\" must be an array of numbers"));
            }
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    Ok(ForecastRequest {
        model: model?,
        quantized: quantized?,
        features: features?,
    })
}

/// Renders the `POST /v1/forecast` response body.
pub fn render_forecast_response(model: &str, quantized: bool, tensor: &Tensor) -> String {
    let mut out = Vec::new();
    write_forecast_response(&mut out, model, quantized, tensor);
    into_string(out)
}

/// [`render_forecast_response`] into a byte buffer — what the server
/// sends, with no `String` in between.
pub(crate) fn write_forecast_response(
    out: &mut Vec<u8>,
    model: &str,
    quantized: bool,
    tensor: &Tensor,
) {
    let [n, c, h, w] = tensor.shape();
    out.reserve(tensor.data().len() * BYTES_PER_FLOAT + 128);
    out.extend_from_slice(b"{\"model\": ");
    out.extend_from_slice(json::str_lit(model).as_bytes());
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        ", \"quantized\": {quantized}, \"shape\": [{n}, {c}, {h}, {w}], \"data\": "
    );
    write_f32_array(out, tensor.data());
    out.push(b'}');
}

/// Parses a forecast response back into a tensor — the client half used
/// by the golden tests and the load generator.
///
/// # Errors
///
/// Returns a 400-status [`ApiError`] for malformed documents or a
/// `shape`/`data` length mismatch.
pub fn parse_forecast_response(body: &[u8]) -> Result<Tensor, ApiError> {
    let mut r = Reader::new(body);
    let mut shape = Err(ApiError::bad("missing \"shape\""));
    let mut data = Err(ApiError::bad("missing \"data\""));
    if r.peek() == Some(b'{') {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match (&*key, r.peek()) {
                ("shape", Some(b'[')) => {
                    let (mut dims, mut rank) = ([0usize; 4], 0usize);
                    r.begin_array()?;
                    while r.next_element()? {
                        let dim = r.read_u64()? as usize;
                        if let Some(slot) = dims.get_mut(rank) {
                            *slot = dim;
                        }
                        rank += 1;
                    }
                    shape = if rank == 4 {
                        Ok(dims)
                    } else {
                        Err(ApiError::bad("\"shape\" must have 4 dimensions"))
                    };
                }
                ("shape", _) => {
                    r.skip_value()?;
                    shape = Err(ApiError::bad("missing \"shape\""));
                }
                ("data", Some(b'[')) => data = Ok(read_f32_vec(&mut r)?),
                ("data", _) => {
                    r.skip_value()?;
                    data = Err(ApiError::bad("missing \"data\""));
                }
                _ => r.skip_value()?,
            }
        }
    } else {
        r.skip_value()?;
    }
    r.finish()?;
    let (shape, data) = (shape?, data?);
    let expected =
        checked_volume(shape).ok_or_else(|| ApiError::bad("\"shape\" volume overflows"))?;
    if data.len() != expected {
        return Err(ApiError::bad(format!(
            "\"data\" has {} values, shape wants {expected}",
            data.len()
        )));
    }
    Ok(Tensor::from_vec(shape, data))
}

/// The array of numbers under the cursor, each as its nearest `f32`.
fn read_f32_vec(r: &mut Reader<'_>) -> Result<Vec<f32>, json::ParseError> {
    let mut values = Vec::new();
    r.read_f32_array(&mut values)?;
    Ok(values)
}

/// Serializes a flattened feature vector as a forecast request body.
pub fn render_forecast_request(model: Option<&str>, quantized: bool, features: &[f32]) -> String {
    let mut out = Vec::with_capacity(features.len() * BYTES_PER_FLOAT + 96);
    out.push(b'{');
    if let Some(model) = model {
        out.extend_from_slice(b"\"model\": ");
        out.extend_from_slice(json::str_lit(model).as_bytes());
        out.extend_from_slice(b", ");
    }
    if quantized {
        out.extend_from_slice(b"\"quantized\": true, ");
    }
    out.extend_from_slice(b"\"features\": ");
    write_f32_array(&mut out, features);
    out.push(b'}');
    into_string(out)
}

/// `[v, v, ...]` with every value in its shortest exact form; non-finite
/// values (which the tanh-bounded forecaster never produces) become
/// JSON `null`.
fn write_f32_array(out: &mut Vec<u8>, values: &[f32]) {
    out.push(b'[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        json::write_f32(out, *v);
    }
    out.push(b']');
}

/// The rendered bytes as a `String`: they are ASCII apart from `str_lit`'s
/// output, which is UTF-8, so the check passes and costs one scan.
fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// `n*c*h*w` without overflow, or `None`.
pub fn checked_volume(shape: [usize; 4]) -> Option<usize> {
    shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_obs::json::Value;
    use proptest::prelude::*;

    /// The request decoder this module shipped before the [`Reader`]: the
    /// whole body through [`json::parse`] into a `Value` tree, then
    /// collected. Kept as the reference the hostile-input tests compare the
    /// streaming decoder against.
    fn parse_forecast_request_via_tree(body: &[u8]) -> Result<ForecastRequest, ApiError> {
        let text =
            std::str::from_utf8(body).map_err(|_| ApiError::bad("request body is not UTF-8"))?;
        let doc = json::parse(text)?;
        if !matches!(doc, Value::Object(_)) {
            return Err(ApiError::bad("request body must be a JSON object"));
        }
        let model = match doc.get("model") {
            None | Some(Value::Null) => None,
            Some(Value::String(s)) => Some(s.clone()),
            Some(_) => return Err(ApiError::bad("\"model\" must be a string")),
        };
        let quantized = match doc.get("quantized") {
            None | Some(Value::Null) => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(ApiError::bad("\"quantized\" must be a boolean")),
        };
        let features = doc
            .get("features")
            .and_then(Value::as_array)
            .ok_or_else(|| ApiError::bad("\"features\" must be an array of numbers"))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .map(|n| n as f32)
                    .ok_or_else(|| ApiError::bad("\"features\" must contain only numbers"))
            })
            .collect::<Result<Vec<f32>, ApiError>>()?;
        Ok(ForecastRequest {
            model,
            quantized,
            features,
        })
    }

    /// Total, accepts only what the tree decoder accepts, and agrees with
    /// it bit for bit (none of these inputs is an `f32` midpoint, where the
    /// tree decoder's double rounding is the one that is wrong).
    fn assert_refines_tree_decoder(body: &[u8]) {
        let Ok(got) = parse_forecast_request(body) else {
            return;
        };
        let want = parse_forecast_request_via_tree(body)
            .unwrap_or_else(|e| panic!("{:?}: {e}", String::from_utf8_lossy(body)));
        assert_eq!((&got.model, got.quantized), (&want.model, want.quantized));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.features), bits(&want.features));
    }

    #[test]
    fn forecast_request_round_trips() {
        // The third is the one f32 whose shortest form an f64 detour bends.
        let features = vec![
            0.5f32,
            -1.25,
            f32::from_bits(0x15ae_43fd),
            f32::MIN_POSITIVE,
        ];
        let body = render_forecast_request(Some("dense"), true, &features);
        let req = parse_forecast_request(body.as_bytes()).unwrap();
        assert_eq!(req.model.as_deref(), Some("dense"));
        assert!(req.quantized);
        assert_eq!(req.features, features);
    }

    #[test]
    fn minimal_request_defaults_model_and_precision() {
        let req = parse_forecast_request(b"{\"features\": [1, 2.5]}").unwrap();
        assert_eq!(req.model, None);
        assert!(!req.quantized);
        assert_eq!(req.features, vec![1.0, 2.5]);
    }

    #[test]
    fn rendered_bodies_are_the_bytes_core_fmt_would_write() {
        // A hostile sample: subnormals, ULP neighbours, huge/tiny values.
        let samples = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::MAX,
            f32::MIN,
            1.0 + f32::EPSILON,
            0.1,
            -0.3,
            core::f32::consts::PI,
            1.234_567_9e-30,
            9.876_543e30,
        ];
        let listed: Vec<String> = samples.iter().map(|v| format!("{v}")).collect();
        let body = render_forecast_request(None, false, &samples);
        assert_eq!(body, format!("{{\"features\": [{}]}}", listed.join(", ")));
        let back = parse_forecast_request(body.as_bytes()).unwrap().features;
        for (v, back) in samples.iter().zip(&back) {
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} must survive exactly");
        }
        let t = Tensor::from_vec([1, 1, 2, 7], samples.to_vec());
        assert_eq!(
            render_forecast_response("m\"1", true, &t),
            format!(
                "{{\"model\": \"m\\\"1\", \"quantized\": true, \"shape\": [1, 1, 2, 7], \"data\": [{}]}}",
                listed.join(", ")
            )
        );
        assert_eq!(
            render_forecast_request(None, false, &[f32::NAN, 1.0]),
            "{\"features\": [null, 1]}"
        );
    }

    #[test]
    fn forecast_response_round_trips_tensors() {
        let t = Tensor::from_vec([1, 2, 2, 1], vec![0.25, -0.125, 1.0e-7, 0.99999994]);
        let body = render_forecast_response("base", false, &t);
        let back = parse_forecast_response(body.as_bytes()).unwrap();
        assert_eq!(back, t);
        assert!(body.contains("\"model\": \"base\""));
        assert!(body.contains("\"quantized\": false"));
    }

    #[test]
    fn malformed_bodies_are_400() {
        for body in [
            b"not json".as_slice(),
            b"[1, 2]",
            b"{\"features\": \"nope\"}",
            b"{\"features\": [1, \"x\"]}",
            b"{\"features\": [1], \"model\": 7}",
            b"{\"features\": [1], \"quantized\": \"yes\"}",
            b"{}",
            b"\xff\xfe",
            b"{\"features\": [NaN]}",
            b"{\"features\": [1, Infinity]}",
            b"{\"features\": [+1]}",
            b"{\"features\": [1.]}",
            b"{\"features\": [.5]}",
            b"{\"features\": [1], \"extra\": [}",
            b"{\"features\": [1]} trailing",
        ] {
            let err = parse_forecast_request(body).unwrap_err();
            assert_eq!(err.status, 400, "{err}");
        }
    }

    #[test]
    fn unknown_keys_are_skipped_and_duplicates_are_last_wins() {
        let body = br#"{"model": 7, "features": "x", "trace": {"ids": [1, {"a": null}]},
            "features": [1], "model": "m", "quantized": null, "features": [2, 3]}"#;
        let req = parse_forecast_request(body).unwrap();
        assert_eq!(req.model.as_deref(), Some("m"));
        assert!(!req.quantized);
        assert_eq!(req.features, [2.0, 3.0]);
        assert_refines_tree_decoder(body);
    }

    #[test]
    fn deep_nesting_is_a_400_not_a_stack_overflow() {
        let mut body = b"{\"features\": [1], \"x\": ".to_vec();
        body.extend(std::iter::repeat_n(b'[', 2 << 20));
        let err = parse_forecast_request(&body).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("nesting too deep"), "{err}");
        assert_eq!(parse_forecast_request(&body[25..]).unwrap_err().status, 400);
        assert_eq!(parse_forecast_response(&body).unwrap_err().status, 400);
    }

    #[test]
    fn response_parser_rejects_shape_mismatches() {
        assert!(parse_forecast_response(b"{\"shape\": [1,1,2,2], \"data\": [1,2,3]}").is_err());
        assert!(parse_forecast_response(b"{\"shape\": [1,1], \"data\": []}").is_err());
        assert!(parse_forecast_response(b"{\"data\": [1]}").is_err());
        assert!(parse_forecast_response(b"{\"shape\": [1,1,1,1.5], \"data\": [1]}").is_err());
        assert!(parse_forecast_response(b"[1]").is_err());
        // A claimed volume the data cannot back allocates nothing for it.
        let huge = b"{\"shape\": [4294967296, 4294967296, 4294967296, 1], \"data\": [1]}";
        assert!(parse_forecast_response(huge).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A valid body cut at every byte: each prefix is answered (a 400,
        /// never a panic), and agrees with the tree decoder if accepted.
        #[test]
        fn truncated_bodies_are_total(
            features in collection::vec(-2.0f32..2.0, 12),
            named in 0u8..2,
            quantized in 0u8..2,
        ) {
            let body =
                render_forecast_request((named == 1).then_some("m\u{e9}\n"), quantized == 1, &features);
            assert_refines_tree_decoder(body.as_bytes());
            prop_assert!(parse_forecast_request(body.as_bytes()).is_ok());
            for cut in 0..body.len() {
                assert_refines_tree_decoder(&body.as_bytes()[..cut]);
                prop_assert!(parse_forecast_request(&body.as_bytes()[..cut]).is_err());
            }
        }

        /// Request-shaped fragment soup: non-finite tokens, lax numbers,
        /// wrong types, repeated keys, torn brackets.
        #[test]
        fn hostile_request_soup_is_total(picks in collection::vec(0usize..28, 12), len in 1usize..=12) {
            const FRAGMENTS: [&[u8]; 28] = [
                b"{", b"}", b"[", b"]", b",", b":", b" ", b"\"features\"", b"\"model\"",
                b"\"quantized\"", b"\"other\"", b"\"features\": [1, 2.5, -3e-2]", b"\"model\": \"m\"",
                b"\"quantized\": true", b"null", b"true", b"\"s\"", b"1", b"0.25", b"NaN",
                b"Infinity", b"-Infinity", b"+1", b"1.", b".5", b"01", b"1e999", b"\xff",
            ];
            let soup: Vec<u8> = picks
                .iter()
                .take(len)
                .flat_map(|&i| FRAGMENTS[i].iter().copied())
                .collect();
            assert_refines_tree_decoder(&soup);
            let _ = parse_forecast_response(&soup);
        }

        /// Arbitrary bytes never panic either decoder.
        #[test]
        fn arbitrary_bytes_are_total(bytes in collection::vec(0u8..=255, 32)) {
            assert_refines_tree_decoder(&bytes);
            let _ = parse_forecast_response(&bytes);
        }
    }
}
