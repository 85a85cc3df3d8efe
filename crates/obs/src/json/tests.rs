//! Unit and differential tests for the JSON module. The oracles are
//! `core::fmt` / `str::parse` for numbers and [`super::oracle`] (the
//! parser this module used to ship) for documents.

use super::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

#[test]
fn parses_nested_document() {
    let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "s": "x\ny"}"#;
    let v = parse(doc).expect("parses");
    assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    assert_eq!(
        v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
        Some(-300.0)
    );
    assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
    assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
}

#[test]
fn rejects_trailing_garbage_and_truncation() {
    assert!(parse("{\"a\": 1} extra").is_err());
    assert!(parse("{\"a\": ").is_err());
    assert!(parse("[1, 2").is_err());
    assert!(parse("").is_err());
}

#[test]
fn writer_output_round_trips() {
    let lit = str_lit("line\nwith \"quotes\" and \\slash\u{1}");
    let v = parse(&lit).expect("own string literal parses");
    assert_eq!(v.as_str(), Some("line\nwith \"quotes\" and \\slash\u{1}"));
    assert_eq!(num(1.5), "1.500000");
    assert_eq!(num(f64::NAN), "null");
    let parsed = parse(&num(123.456789)).expect("number parses");
    assert!((parsed.as_f64().unwrap() - 123.456789).abs() < 1e-9);
}

#[test]
fn u64_helper_accepts_integral_numbers_only() {
    assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    assert_eq!(parse("42.5").unwrap().as_u64(), None);
    assert_eq!(parse("-1").unwrap().as_u64(), None);
    assert_eq!(Reader::new(b" 1e2 ").read_u64(), Ok(100));
    assert!(Reader::new(b"0.5").read_u64().is_err());
}

#[test]
fn numbers_are_strict_rfc_8259() {
    for lax in [
        "+1",
        "1.",
        ".5",
        "01",
        "-01",
        "-",
        "--1",
        "1e",
        "1e+",
        "1.e5",
        "-.5",
        "0x10",
        "1_000",
        "NaN",
        "Infinity",
        "-Infinity",
        "inf",
        "nan",
    ] {
        assert!(parse(lax).is_err(), "{lax} must be rejected");
        assert!(parse(&format!("[{lax}]")).is_err(), "[{lax}]");
    }
    for (text, want) in [
        ("0", 0.0),
        ("-0", -0.0),
        ("0.0", 0.0),
        ("10", 10.0),
        ("1E5", 1e5),
        ("1e-5", 1e-5),
        ("0e0", 0.0),
        ("-12.5e+1", -125.0),
        ("1e400", f64::INFINITY),
        ("123456789012345678901234567890", 1.2345678901234568e29),
        (
            "0.000000000000000000000000000000000000011754944",
            1.1754944e-38,
        ),
    ] {
        let got = parse(text).unwrap().as_f64().unwrap();
        assert_eq!(got.to_bits(), f64::to_bits(want), "{text}");
    }
}

#[test]
fn nesting_is_capped_not_recursed() {
    let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(parse(&deep(MAX_DEPTH)).is_ok());
    let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
    assert_eq!((err.offset, err.message), (MAX_DEPTH, "nesting too deep"));
    // The remote-abort body of ROADMAP open item 1: 2 MB of '['.
    assert_eq!(
        parse(&"[".repeat(2 << 20)).unwrap_err().message,
        "nesting too deep"
    );
    let mut objects = "{\"k\": ".repeat(MAX_DEPTH + 1);
    objects.push('1');
    assert_eq!(parse(&objects).unwrap_err().message, "nesting too deep");
    // skip_value enforces the same cap, and counts from where it starts.
    let doc = format!("[{}, 7]", deep(MAX_DEPTH - 1));
    let mut r = Reader::new(doc.as_bytes());
    r.begin_array().unwrap();
    assert!(r.next_element().unwrap());
    r.skip_value().unwrap();
    assert!(r.next_element().unwrap());
    assert_eq!(r.read_u64(), Ok(7));
    assert!(!r.next_element().unwrap());
    r.finish().unwrap();
    assert!(Reader::new(deep(MAX_DEPTH + 1).as_bytes())
        .skip_value()
        .is_err());
}

#[test]
fn reader_walks_a_schema_without_a_tree() {
    let doc = br#" {"name": "a\tb", "skip": {"x": [1, {"y": null}], "z": "}"}, "on": true,
        "dims": [2, 3], "data": [0.5, -1e-3, 7], "none": null} "#;
    let mut r = Reader::new(doc);
    r.begin_object().unwrap();
    let (mut name, mut on, mut dims, mut data) = (String::new(), false, Vec::new(), Vec::new());
    while let Some(key) = r.next_key().unwrap() {
        match &*key {
            "name" => name = r.read_str().unwrap().into_owned(),
            "on" => on = r.read_bool().unwrap(),
            "dims" => {
                r.begin_array().unwrap();
                while r.next_element().unwrap() {
                    dims.push(r.read_u64().unwrap());
                }
            }
            "data" => r.read_f32_array(&mut data).unwrap(),
            "none" => r.read_null().unwrap(),
            _ => r.skip_value().unwrap(),
        }
    }
    r.finish().unwrap();
    assert_eq!(name, "a\tb");
    assert!(on);
    assert_eq!(dims, [2, 3]);
    assert_eq!(data, [0.5, -1e-3, 7.0]);
}

#[test]
fn strings_borrow_unless_escaped_and_validate_utf8() {
    use std::borrow::Cow;
    let mut r = Reader::new("\"héllo\"".as_bytes());
    assert!(matches!(r.read_str().unwrap(), Cow::Borrowed("héllo")));
    let mut r = Reader::new(br#""a\u00e9\ud800\n""#);
    assert_eq!(r.read_str().unwrap(), "aé\u{fffd}\n");
    for bad in [
        b"\"\xff\"".as_slice(),
        b"\"a\\\xc3\"",
        b"\"\xc3\\n\"",
        b"\"open",
        b"\"\\u12\"",
        b"\"\\u+123\"",
        b"\"\\x\"",
    ] {
        assert!(Reader::new(bad).read_str().is_err(), "{bad:?}");
    }
}

#[test]
fn f32_array_capacity_follows_the_bytes_not_the_peer() {
    // 10^7 elements in 20 MB: total, and at most a small multiple of what
    // the elements need.
    let count = 10_000_000usize;
    let mut body = String::with_capacity(2 * count + 2);
    body.push('[');
    for i in 0..count {
        body.push_str(if i == 0 { "1" } else { ",1" });
    }
    body.push(']');
    let mut out = Vec::new();
    Reader::new(body.as_bytes())
        .read_f32_array(&mut out)
        .unwrap();
    assert_eq!(out.len(), count);
    assert!(out.capacity() <= 2 * count, "capacity {}", out.capacity());
    // A short array in a long document reserves for the array, roughly.
    let doc = format!("[1.5, 2.5]{}", " ".repeat(1 << 20));
    let mut out = Vec::new();
    Reader::new(doc.as_bytes())
        .read_f32_array(&mut out)
        .unwrap();
    assert_eq!(out, [1.5, 2.5]);
    assert!(out.capacity() <= (1 << 20) / 8 + 2);
}

/// `write_f32` against `core::fmt`, and the scanner against `str::parse`,
/// for one bit pattern. Returns whether rounding twice (decimal → `f64` →
/// `f32`) would have come back with different bits.
fn check_f32_bits(bits: u32, buf: &mut Vec<u8>) -> bool {
    let v = f32::from_bits(bits);
    if !v.is_finite() {
        return false;
    }
    buf.clear();
    write_f32(buf, v);
    let want = format!("{v}");
    assert_eq!(
        std::str::from_utf8(buf),
        Ok(want.as_str()),
        "bits {bits:#010x}"
    );
    let scanned = Reader::new(buf).read_f64().expect("own output scans");
    assert_eq!(
        scanned.to_bits(),
        want.parse::<f64>().unwrap().to_bits(),
        "{want}"
    );
    let back = Reader::new(buf).read_f32().expect("own output scans");
    assert_eq!(back.to_bits(), bits, "{want} must scan back");
    (scanned as f32).to_bits() != bits
}

#[test]
fn read_f32_rounds_once_where_f64_then_f32_rounds_twice() {
    // The one shortest form among all 2^32 (the exhaustive test counts
    // them) whose nearest f64 is an f32 midpoint: via f64 it comes back as
    // its neighbour.
    let text = "0.00000000000000000000000007038531";
    let v = f32::from_bits(0x15ae_43fd);
    assert_eq!(format!("{v}"), text);
    assert_ne!((text.parse::<f64>().unwrap() as f32).to_bits(), v.to_bits());
    assert_eq!(Reader::new(text.as_bytes()).read_f32(), Ok(v));
    // Long decimals just either side of a midpoint (1 + 2^-24), subnormal
    // and overflowing values all defer to a single correct rounding.
    for text in [
        "1.000000059604644775390625",
        "1.0000000596046447753906250000000001",
        "1.0000000596046447753906249999999999",
        "-1.000000059604644775390625e0",
        "1e-45",
        "7e-46",
        "1.1754942e-38",
        "3.4028235e38",
        "3.4028236e38",
        "3.40282357e38",
        "1e39",
        "-1e999",
        "1e-999",
    ] {
        let got = Reader::new(text.as_bytes()).read_f32().unwrap();
        assert_eq!(
            got.to_bits(),
            text.parse::<f32>().unwrap().to_bits(),
            "{text}"
        );
    }
}

#[test]
fn write_f32_matches_core_fmt_on_a_strided_sweep() {
    let mut buf = Vec::new();
    // A prime stride visits ~1M patterns spread over every exponent.
    for bits in (0..=u32::MAX).step_by(4099) {
        check_f32_bits(bits, &mut buf);
    }
    let mut specials = vec![
        0.0f32,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        f32::from_bits(1),           // smallest subnormal
        f32::from_bits(0x007f_ffff), // largest subnormal
        8_388_609.0 / 4.0,           // 2097152.25: a tie between two shortest candidates
        16_777_216.0,
        0.1,
        0.3,
        1.0e-7,
        9.999_999e-5,
    ];
    for e in -45..=38 {
        specials.push(format!("1e{e}").parse().unwrap());
    }
    for e in 1..=254u32 {
        specials.push(f32::from_bits(e << 23)); // every power of two
    }
    for v in specials {
        for neighbour in [v.to_bits().wrapping_sub(1), v.to_bits(), v.to_bits() + 1] {
            check_f32_bits(neighbour, &mut buf);
            check_f32_bits(neighbour ^ 0x8000_0000, &mut buf);
        }
    }
    buf.clear();
    write_f32(&mut buf, f32::NAN);
    write_f32(&mut buf, f32::INFINITY);
    assert_eq!(buf, b"nullnull");
}

/// Reads `doc` — `[` then the shortest forms of `bits`, comma-separated —
/// back through `read_f32_array`, which must return every pattern; then
/// empties both for the next batch.
fn check_f32_batch(doc: &mut Vec<u8>, bits: &mut Vec<u32>) {
    doc.push(b']');
    let mut back = Vec::new();
    Reader::new(doc)
        .read_f32_array(&mut back)
        .expect("own output scans");
    let back: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
    assert_eq!(back, *bits);
    doc.clear();
    doc.push(b'[');
    bits.clear();
}

/// All 2³² patterns, split over the host's cores, each read back alone and
/// again in batches through the array loop: ~25 min on 2 vCPUs in
/// release (`cargo test --release -p pop-obs -- --ignored exhaustive`).
#[test]
#[ignore = "exhaustive: every f32 bit pattern"]
fn write_f32_matches_core_fmt_exhaustively() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let mut twice_rounded_wrong: Vec<u32> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let (mut buf, mut doc, mut batch) = (Vec::new(), vec![b'['], Vec::new());
                    let mut wrong = Vec::new();
                    let (lo, hi) = ((t << 32) / threads, ((t + 1) << 32) / threads);
                    for bits in (lo..hi).map(|bits| bits as u32) {
                        if check_f32_bits(bits, &mut buf) {
                            wrong.push(bits);
                        }
                        if !f32::from_bits(bits).is_finite() {
                            continue;
                        }
                        if !batch.is_empty() {
                            doc.extend_from_slice(b", ");
                        }
                        doc.extend_from_slice(&buf);
                        batch.push(bits);
                        if batch.len() == 4096 {
                            check_f32_batch(&mut doc, &mut batch);
                        }
                    }
                    check_f32_batch(&mut doc, &mut batch);
                    wrong
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sweep thread"))
            .collect()
    });
    twice_rounded_wrong.sort_unstable();
    assert_eq!(twice_rounded_wrong, [0x15ae_43fd, 0x95ae_43fd]);
}

/// A strictly valid number in a random dialect.
fn gen_number(rng: &mut StdRng) -> String {
    let mut text = String::new();
    if rng.gen_bool(0.3) {
        text.push('-');
    }
    let int_digits = rng.gen_range(1usize..=22);
    if int_digits == 1 || rng.gen_bool(0.2) {
        text.push(char::from(b'0' + rng.gen_range(0u8..=9)));
    } else {
        text.push(char::from(b'0' + rng.gen_range(1u8..=9)));
        for _ in 1..int_digits.min(rng.gen_range(1usize..=22)) {
            text.push(char::from(b'0' + rng.gen_range(0u8..=9)));
        }
    }
    if rng.gen_bool(0.6) {
        text.push('.');
        for _ in 0..rng.gen_range(1usize..=24) {
            // Runs of zeros exercise the significant-digit count.
            let d = if rng.gen_bool(0.3) {
                0
            } else {
                rng.gen_range(0u8..=9)
            };
            text.push(char::from(b'0' + d));
        }
    }
    if rng.gen_bool(0.4) {
        text.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
        match rng.gen_range(0u8..3) {
            0 => text.push('-'),
            1 => text.push('+'),
            _ => {}
        }
        let e = if rng.gen_bool(0.1) {
            rng.gen_range(0u32..=400)
        } else {
            rng.gen_range(0u32..=30)
        };
        text.push_str(&e.to_string());
    }
    text
}

fn gen_string(rng: &mut StdRng) -> String {
    const PIECES: [&str; 14] = [
        "a", "key", " ", "é", "漢", "🦀", "\\n", "\\\"", "\\\\", "\\/", "\\u0041", "\\ud83d",
        "\\u00e9", "\u{1}",
    ];
    let mut text = String::from("\"");
    for _ in 0..rng.gen_range(0usize..6) {
        text.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
    }
    text.push('"');
    text
}

fn gen_ws(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(0usize..3) {
        out.push([' ', '\n', '\t', '\r'][rng.gen_range(0usize..4)]);
    }
}

fn gen_value(rng: &mut StdRng, depth: usize, out: &mut String) {
    gen_ws(rng, out);
    let leaf_only = depth >= 5;
    match rng.gen_range(0u8..if leaf_only { 5 } else { 8 }) {
        0 => out.push_str("null"),
        1 => out.push_str(if rng.gen_bool(0.5) { "true" } else { "false" }),
        2 | 3 => out.push_str(&gen_number(rng)),
        4 => out.push_str(&gen_string(rng)),
        5 | 6 => {
            out.push('[');
            for i in 0..rng.gen_range(0usize..5) {
                if i > 0 {
                    out.push(',');
                }
                gen_value(rng, depth + 1, out);
            }
            gen_ws(rng, out);
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.gen_range(0usize..4) {
                if i > 0 {
                    out.push(',');
                }
                gen_ws(rng, out);
                // Few distinct keys, so duplicates (last wins) occur.
                out.push_str(["\"a\"", "\"b\"", "\"a\\u0062\""][rng.gen_range(0usize..3)]);
                gen_ws(rng, out);
                out.push(':');
                gen_value(rng, depth + 1, out);
            }
            gen_ws(rng, out);
            out.push('}');
        }
    }
    gen_ws(rng, out);
}

/// The reader-built tree for raw bytes (what `parse` does past `&str`).
fn read_tree(bytes: &[u8]) -> Result<Value, ParseError> {
    let mut reader = Reader::new(bytes);
    let value = read_value(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// The property every hostile input must satisfy: the reader answers
/// (no panic), accepts only what the old parser accepted, and agrees on
/// the value; skipping accepts exactly what building accepts.
fn assert_refines_oracle(bytes: &[u8]) {
    let new = read_tree(bytes);
    let mut skipper = Reader::new(bytes);
    let skipped = skipper.skip_value().and_then(|()| skipper.finish());
    assert_eq!(
        new.is_ok(),
        skipped.is_ok(),
        "{:?}",
        String::from_utf8_lossy(bytes)
    );
    let Ok(new) = new else { return };
    let text = std::str::from_utf8(bytes).expect("accepted bytes are UTF-8");
    assert_eq!(Ok(new), oracle::parse(text), "{text:?}");
}

/// `read_f32_array` over `bytes`, then the end of the document: the bits,
/// or the first error.
fn read_f32s_by_array(bytes: &[u8]) -> Result<Vec<u32>, ParseError> {
    let mut reader = Reader::new(bytes);
    let mut out = Vec::new();
    reader.read_f32_array(&mut out)?;
    reader.finish()?;
    Ok(out.iter().map(|v| v.to_bits()).collect())
}

/// The same through the per-element path: `next_element` and `read_f32`
/// one element at a time.
fn read_f32s_by_element(bytes: &[u8]) -> Result<Vec<u32>, ParseError> {
    let mut reader = Reader::new(bytes);
    let mut out = Vec::new();
    reader.begin_array()?;
    while reader.next_element()? {
        out.push(reader.read_f32()?.to_bits());
    }
    reader.finish()?;
    Ok(out)
}

/// One element for an array-loop test, and the bits it must read back as:
/// `write_f32` output, hand-written forms past the loop's exact path, or
/// (rarely) something malformed, which has none.
fn gen_f32_element(rng: &mut StdRng) -> (String, Option<u32>) {
    const HAND_WRITTEN: [&str; 14] = [
        // 0x15AE43FD: its nearest f64 is an f32 midpoint, past the fast path.
        "0.00000000000000000000000007038531",
        // Short enough for the fast path, and their nearest f64s are f32
        // midpoints that round to even on the wrong side.
        "32.61575508117676",
        "-3.543471336364746e+01",
        "1.000000059604644775390625",
        "-1.0000000596046447753906250000000001",
        "12345678901234567890123",
        "0.1000000000000000000000000001",
        "1.5e3",
        "-2E-7",
        "7e-46",
        "3.4028236e38",
        "1e400",
        "-0.0e+0",
        "5.000000000e-01",
    ];
    const MALFORMED: [&str; 8] = ["01", "1.", "-", "+1", "1e", ".5", "\"x\"", "1.e5"];
    let text = match rng.gen_range(0u8..20) {
        0..=2 => HAND_WRITTEN[rng.gen_range(0..HAND_WRITTEN.len())].to_string(),
        3 if rng.gen_bool(0.2) => {
            return (
                MALFORMED[rng.gen_range(0..MALFORMED.len())].to_string(),
                None,
            )
        }
        4 => gen_number(rng),
        picked => {
            let bits = match picked {
                5 => rng.gen_range(0u32..0x0080_0000) | rng.gen_range(0u32..2) << 31, // subnormal or ±0
                6 => [0, 0x8000_0000, 0x3f80_0000, 0xbf80_0000][rng.gen_range(0usize..4)],
                _ => rng.gen(),
            };
            let v = f32::from_bits(bits);
            if !v.is_finite() {
                return ("0".to_string(), Some(0));
            }
            let mut text = Vec::new();
            write_f32(&mut text, v);
            return (String::from_utf8(text).expect("ASCII"), Some(bits));
        }
    };
    let bits = text.parse::<f32>().expect("a valid number").to_bits();
    (text, Some(bits))
}

/// Whether `text` is one RFC 8259 number, `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`
/// — written out here, independently of the scanner under test.
fn is_json_number(text: &str) -> bool {
    let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let rest = text.strip_prefix('-').unwrap_or(text);
    let int = digits(rest);
    if int == 0 || (int > 1 && rest.starts_with('0')) {
        return false;
    }
    let mut rest = &rest[int..];
    if let Some(frac) = rest.strip_prefix('.') {
        if digits(frac) == 0 {
            return false;
        }
        rest = &frac[digits(frac)..];
    }
    if let Some(exp) = rest.strip_prefix(['e', 'E']) {
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        if digits(exp) == 0 {
            return false;
        }
        rest = &exp[digits(exp)..];
    }
    rest.is_empty()
}

/// The next element for an array-loop test given the one before it: most
/// often a fresh one, else a short token, the previous text again, or the
/// previous text with something appended — `0.5` then `0.55`, `0.5e1`
/// or the malformed `0.5.`; `1` then `10` — which starts like a repeat
/// and is not one.
fn gen_run_element(rng: &mut StdRng, previous: Option<&str>) -> (String, Option<u32>) {
    const SHORT: [&str; 10] = [
        "0", "1", "-1", "-0", "0.5", "-0.5", "0.25", "1e5", "7", "0.1",
    ];
    const SUFFIXES: [&str; 12] = [
        "5", "0", "00", "e1", "E-2", ".5", ".", "e", "x", "-", "1.", "e+",
    ];
    let text = match (rng.gen_range(0u8..8), previous) {
        (0..=2, _) | (_, None) => return gen_f32_element(rng),
        (3 | 4, _) => SHORT[rng.gen_range(0..SHORT.len())].to_string(),
        (5 | 6, Some(previous)) => previous.to_string(),
        (_, Some(previous)) => format!("{previous}{}", SUFFIXES[rng.gen_range(0..SUFFIXES.len())]),
    };
    let bits = is_json_number(&text).then(|| text.parse::<f32>().expect("valid").to_bits());
    (text, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The array loop is the per-element path: the same bits for every
    /// element (each one `str::parse::<f32>`'s, or the pattern `write_f32`
    /// wrote), and, for the array cut at any byte, the same error — offset
    /// and message alike. Elements come in runs and near-repeats, the
    /// inputs a loop that reads a repeated token once must not misread.
    #[test]
    fn f32_array_loop_is_the_per_element_path(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = String::from("[");
        let mut want = Some(Vec::new());
        let mut previous: Option<String> = None;
        for i in 0..rng.gen_range(0usize..32) {
            if i > 0 {
                gen_ws(&mut rng, &mut doc);
                doc.push(',');
            }
            gen_ws(&mut rng, &mut doc);
            let (text, bits) = gen_run_element(&mut rng, previous.as_deref());
            doc.push_str(&text);
            previous = Some(text);
            want = want.zip(bits).map(|(mut want, bits)| {
                want.push(bits);
                want
            });
        }
        gen_ws(&mut rng, &mut doc);
        doc.push(']');
        let got = read_f32s_by_array(doc.as_bytes());
        prop_assert_eq!(&got, &read_f32s_by_element(doc.as_bytes()), "{:?}", doc);
        if let Some(want) = want {
            prop_assert_eq!(got, Ok(want), "{:?}", doc);
        } else {
            prop_assert!(got.is_err(), "{:?}", doc);
        }
        for cut in 0..doc.len() {
            let cut = &doc.as_bytes()[..cut];
            prop_assert_eq!(
                read_f32s_by_array(cut),
                read_f32s_by_element(cut),
                "{:?}", String::from_utf8_lossy(cut)
            );
        }
    }

    /// On generated documents the reader-built and the tree-built results
    /// are the same value.
    #[test]
    fn generated_documents_build_the_same_tree(seed in 0u64..u64::MAX) {
        let mut doc = String::new();
        gen_value(&mut StdRng::seed_from_u64(seed), 0, &mut doc);
        let new = parse(&doc);
        prop_assert!(new.is_ok(), "{doc:?}: {new:?}");
        prop_assert_eq!(new, oracle::parse(&doc), "{:?}", doc);
        // Every prefix is hostile input of the most likely kind.
        for cut in 0..doc.len() {
            assert_refines_oracle(&doc.as_bytes()[..cut]);
        }
    }

    /// Arbitrary bytes: total, and a refinement of the old parser.
    #[test]
    fn arbitrary_bytes_are_total(bytes in collection::vec(0u8..=255, 24)) {
        assert_refines_oracle(&bytes);
    }

    /// Fragment soup that looks like JSON: non-finite tokens, lax number
    /// forms, torn strings and brackets.
    #[test]
    fn hostile_fragment_soup_is_total(picks in collection::vec(0usize..40, 10), len in 1usize..=10) {
        const FRAGMENTS: [&[u8]; 40] = [
            b"[", b"]", b"{", b"}", b",", b":", b" ", b"\"a\"", b"\"", b"\\", b"\"\\u12", b"NaN",
            b"Infinity", b"-Infinity", b"nan", b"inf", b"+1", b"01", b"1.", b".5", b"1e", b"1e5",
            b"-0", b"0.1", b"1e400", b"-", b"true", b"false", b"null", b"nul", b"\"features\"",
            b"\xc3\xa9", b"\xff", b"\"\xc3\"", b"1", b"2.5", b"[1,2]", b"{\"a\":1}", b"1e-400",
            b"12345678901234567890123",
        ];
        let soup: Vec<u8> = picks
            .iter()
            .take(len)
            .flat_map(|&i| FRAGMENTS[i].iter().copied())
            .collect();
        assert_refines_oracle(&soup);
    }

    /// `read_f32_array` is `str::parse::<f32>` per element: one correct
    /// rounding, whatever the dialect.
    #[test]
    fn f32_arrays_are_correctly_rounded(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let numbers: Vec<String> = (0..rng.gen_range(0usize..40))
            .map(|_| gen_number(&mut rng))
            .collect();
        let mut doc = String::from("[");
        for (i, number) in numbers.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            gen_ws(&mut rng, &mut doc);
            doc.push_str(number);
            gen_ws(&mut rng, &mut doc);
        }
        doc.push(']');
        let mut got = Vec::new();
        let mut reader = Reader::new(doc.as_bytes());
        reader.read_f32_array(&mut got).unwrap();
        reader.finish().unwrap();
        let want: Vec<u32> = numbers
            .iter()
            .map(|n| n.parse::<f32>().unwrap().to_bits())
            .collect();
        prop_assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    /// Digit runs are scanned eight at a time; any length, any neighbour
    /// byte, must read like one digit at a time would.
    #[test]
    fn digit_runs_scan_the_same_at_any_length(
        value in 0u64..u64::MAX,
        len in 1usize..=19,
        zeros in 0usize..12,
        stopper in 0u8..=255,
    ) {
        let digits = value.to_string();
        let digits = &digits[..len.min(digits.len())];
        let text = format!("1{}{digits}", "0".repeat(zeros));
        let mut bytes = text.clone().into_bytes();
        if !stopper.is_ascii_digit() {
            bytes.push(stopper); // whatever follows must not be swallowed
        }
        let got = Reader::new(&bytes).read_f64();
        if matches!(stopper, b'.' | b'e' | b'E') {
            prop_assert!(got.is_err(), "{:?}", String::from_utf8_lossy(&bytes));
        } else {
            prop_assert_eq!(got.map(f64::to_bits), Ok(text.parse::<f64>().unwrap().to_bits()));
        }
    }

    /// Fast-path numbers are bit-identical to `str::parse::<f64>` on both
    /// sides of its limits, `m < 2^53` and `|e| <= 22`.
    #[test]
    fn scanned_numbers_match_str_parse(
        near in 0u64..4096,
        wide in 0u64..u64::MAX,
        exp in -26i32..=26,
        point in 0usize..20,
    ) {
        let mantissas = [(1u64 << 53) - 2048 + near, wide, wide >> 11, wide >> 40];
        for m in mantissas {
            let digits = m.to_string();
            let split = point.min(digits.len() - 1);
            // Both an integer with an exponent and a decimal point form.
            let texts = [
                format!("{m}e{exp}"),
                format!("-{}.{}E{exp}", &digits[..=split], &digits[split..]),
                format!("0.{}{digits}", "0".repeat(point)),
            ];
            for text in texts {
                let got = Reader::new(text.as_bytes()).read_f64();
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    Ok(text.parse::<f64>().unwrap().to_bits()),
                    "{}", text
                );
            }
        }
    }
}
