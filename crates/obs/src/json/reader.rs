//! The one JSON lexer: a byte-level pull reader.
//!
//! [`Reader`] walks a document in place and hands out scalars, object
//! keys and — the reason it exists — whole `f32` arrays, without building
//! anything per number. [`super::parse`] builds its [`super::Value`] tree
//! on the same methods, so there is exactly one scanner to harden:
//! [`scan_number`], a free function over a byte slice.
//!
//! [`Reader::read_f32_array`] is where a tensor body spends its time, so
//! it walks a local slice — scan, optional whitespace, `,`, repeat — and
//! writes the cursor back once per run. After a token of at most seven
//! bytes (a feature map's `0`, `1`, `-1`) it reads the elements that
//! repeat it in an inner loop: an element that starts with those bytes
//! and then a byte no number continues with is that value, unscanned. A
//! body of longer tokens (a forecast's) never enters that loop and pays
//! one compare of the token's length per element. The scanner reads a
//! one-digit integer part directly, takes the digits of a run's last
//! partial word by counting them from a mask and adding them in one
//! multiply (no byte loop of data-dependent length while eight bytes
//! remain), converts the mantissa by the signed conversion and sets the
//! sign bit without a branch. An element the scanner cannot finish exactly (more than 19
//! digits, an exponent past `±22`, a decimal whose nearest `f64` is an
//! `f32` midpoint, a value outside the `f32` normal range, anything
//! malformed) is read alone by the per-element path,
//! [`Reader::read_f32`], so results, errors and error offsets are that
//! path's (`f32_array_loop_is_the_per_element_path` pins it, on runs and
//! near-repeats too).
//!
//! It sits behind network request bodies, so nothing here indexes a
//! slice, unwraps, or recurses: the cursor is the unread tail of the
//! input, taken apart with slice patterns; nesting is an explicit counter
//! capped at [`MAX_DEPTH`]; and [`Reader::skip_value`] is a loop.

use super::ParseError;
use std::borrow::Cow;

/// Deepest container nesting accepted; deeper input is a [`ParseError`].
pub const MAX_DEPTH: usize = 64;

/// `10^0 ..= 10^22`: every power of ten an `f64` holds exactly.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A cursor over one JSON document.
///
/// Containers are walked with `begin_*` then `next_*` until it reports
/// the close; after each `true`/`Some`, read (or [`skip`](Self::skip_value))
/// exactly one value. Scalars are read by type; [`peek`](Self::peek) tells
/// a caller which to ask for.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The unread tail of the document.
    rest: &'a [u8],
    /// The document's length: error offsets are `len - rest.len()`.
    len: usize,
    depth: usize,
    /// One bit per open container, innermost lowest: set for objects.
    /// `MAX_DEPTH` is its width, which is all `skip_value` needs to know
    /// which closer to expect.
    objects: u64,
    /// The innermost container was opened and nothing in it read yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            len: bytes.len(),
            depth: 0,
            objects: 0,
            fresh: false,
        }
    }

    fn offset(&self) -> usize {
        self.len - self.rest.len()
    }

    pub(super) fn err(&self, message: &'static str) -> ParseError {
        ParseError::at(self.offset(), message)
    }

    fn eat(&mut self, b: u8) -> bool {
        match self.rest {
            [first, tail @ ..] if *first == b => {
                self.rest = tail;
                true
            }
            _ => false,
        }
    }

    /// The next non-whitespace byte, unconsumed: `{`, `[`, `"`, `t`/`f`,
    /// `n`, or the start of a number.
    pub fn peek(&mut self) -> Option<u8> {
        self.rest = skip_whitespace(self.rest);
        self.rest.first().copied()
    }

    /// Requires that only whitespace remains.
    ///
    /// # Errors
    ///
    /// `trailing input` otherwise.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing input")),
        }
    }

    fn open(&mut self, bracket: u8, expected: &'static str) -> Result<(), ParseError> {
        if self.peek() != Some(bracket) {
            return Err(self.err(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.eat(bracket);
        self.depth += 1;
        self.objects = self.objects << 1 | u64::from(bracket == b'{');
        self.fresh = true;
        Ok(())
    }

    /// Steps to the next member of the innermost container, or out of it.
    fn advance(&mut self, close: u8, expected: &'static str) -> Result<bool, ParseError> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.eat(close);
                self.depth = self.depth.saturating_sub(1);
                self.objects >>= 1;
                Ok(false)
            }
            Some(b',') if !fresh => Ok(self.eat(b',')),
            Some(_) if fresh => Ok(true),
            _ => Err(self.err(expected)),
        }
    }

    /// Consumes `{`.
    ///
    /// # Errors
    ///
    /// Anything else next, or more than [`MAX_DEPTH`] open containers.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.open(b'{', "expected object")
    }

    /// Consumes `[`.
    ///
    /// # Errors
    ///
    /// Anything else next, or more than [`MAX_DEPTH`] open containers.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.open(b'[', "expected array")
    }

    /// The next member's key, leaving the cursor on its value; `None`
    /// once `}` is consumed. Keys borrow from the input unless escaped.
    ///
    /// # Errors
    ///
    /// Missing `,`/`}`/`:` or a non-string key.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.advance(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        let key = self.read_str()?;
        self.peek();
        if !self.eat(b':') {
            return Err(self.err("expected ':'"));
        }
        Ok(Some(key))
    }

    /// Whether another element follows (cursor on it), or `]` was consumed.
    ///
    /// # Errors
    ///
    /// Missing `,`/`]`.
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        self.advance(b']', "expected ',' or ']'")
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    /// Lone or paired `\u` surrogates each decode to U+FFFD.
    ///
    /// # Errors
    ///
    /// Not a string, unterminated, a bad escape, or invalid UTF-8.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.peek();
        if !self.eat(b'"') {
            return Err(self.err("expected string"));
        }
        self.fresh = false;
        let mut unescaped: Option<String> = None;
        loop {
            // One run up to the closing quote or the next escape.
            let stop = self.rest.iter().position(|&b| b == b'"' || b == b'\\');
            let Some((run, [stopper, tail @ ..])) =
                stop.and_then(|at| self.rest.split_at_checked(at))
            else {
                self.rest = &[];
                return Err(self.err("unterminated string"));
            };
            let run = std::str::from_utf8(run).map_err(|_| self.err("invalid UTF-8 in string"))?;
            self.rest = tail;
            if *stopper == b'"' {
                return Ok(match unescaped {
                    None => Cow::Borrowed(run),
                    Some(mut text) => {
                        text.push_str(run);
                        Cow::Owned(text)
                    }
                });
            }
            let text = unescaped.get_or_insert_with(String::new);
            text.push_str(run);
            text.push(self.read_escape()?);
        }
    }

    /// The character an escape stands for; the cursor is past the `\`.
    fn read_escape(&mut self) -> Result<char, ParseError> {
        let (ch, tail) = match self.rest {
            [b'"', tail @ ..] => ('"', tail),
            [b'\\', tail @ ..] => ('\\', tail),
            [b'/', tail @ ..] => ('/', tail),
            [b'n', tail @ ..] => ('\n', tail),
            [b't', tail @ ..] => ('\t', tail),
            [b'r', tail @ ..] => ('\r', tail),
            [b'b', tail @ ..] => ('\u{8}', tail),
            [b'f', tail @ ..] => ('\u{c}', tail),
            [b'u', hex @ ..] => {
                let Some((hex, tail)) = hex.split_first_chunk::<4>() else {
                    return Err(self.err("truncated \\u escape"));
                };
                let mut code = 0u32;
                for &h in hex {
                    let digit = char::from(h)
                        .to_digit(16)
                        .ok_or(self.err("invalid \\u escape"))?;
                    code = code * 16 + digit;
                }
                (char::from_u32(code).unwrap_or('\u{fffd}'), tail)
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.rest = tail;
        Ok(ch)
    }

    fn literal(&mut self, word: &'static [u8]) -> Result<(), ParseError> {
        self.peek();
        let Some(tail) = self.rest.strip_prefix(word) else {
            return Err(self.err("invalid literal"));
        };
        self.rest = tail;
        self.fresh = false;
        Ok(())
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Anything else next.
    pub fn read_bool(&mut self) -> Result<bool, ParseError> {
        match self.peek() {
            Some(b't') => self.literal(b"true").map(|()| true),
            Some(b'f') => self.literal(b"false").map(|()| false),
            _ => Err(self.err("expected boolean")),
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// Anything else next.
    pub fn read_null(&mut self) -> Result<(), ParseError> {
        self.literal(b"null")
    }

    /// Scans one number: its nearest `f64`, and its text for the callers
    /// that must round the decimal itself.
    fn number(&mut self) -> Result<(f64, &'a [u8]), ParseError> {
        self.peek();
        let scan = scan_number(self.rest);
        let used = scan.as_ref().map_or_else(|&at| at, |scan| scan.len);
        let (text, tail) = self.rest.split_at_checked(used).unwrap_or((self.rest, &[]));
        self.rest = tail;
        let Ok(scan) = scan else {
            return Err(self.err("invalid number"));
        };
        self.fresh = false;
        let nearest = match scan.nearest {
            Some(nearest) => nearest,
            None => self.parse_text(text)?,
        };
        Ok((nearest, text))
    }

    /// `str::parse` over the text of the number just scanned — the
    /// reference conversion.
    fn parse_text<F: std::str::FromStr>(&self, text: &[u8]) -> Result<F, ParseError> {
        std::str::from_utf8(text)
            .ok()
            .and_then(|text| text.parse().ok())
            .ok_or(ParseError::at(self.offset() - text.len(), "invalid number"))
    }

    /// Reads one RFC 8259 number,
    /// `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`, as the nearest `f64`.
    ///
    /// The scanner rounds it by Clinger's fast path where that is exact;
    /// everything else goes through `str::parse` itself.
    ///
    /// # Errors
    ///
    /// Anything outside that grammar (`+1`, `01`, `1.`, `.5`, `1e`).
    pub fn read_f64(&mut self) -> Result<f64, ParseError> {
        self.number().map(|(nearest, _)| nearest)
    }

    /// Reads one number as the nearest `f32`.
    ///
    /// Rounding the nearest `f64` a second time is almost always the same
    /// thing: the midpoints between adjacent `f32`s are themselves `f64`s
    /// and rounding to `f64` is monotone, so unless that `f64` *is* a
    /// midpoint it lies on the decimal's side of every one of them. When
    /// it is one (in the `f32` normal range: its low 29 significand bits
    /// are a one then zeros) the decimal may lie on either side —
    /// `0.00000000000000000000000007038531`, the shortest form of an
    /// `f32`, does, and double rounding returns its neighbour — so
    /// `str::parse::<f32>` decides, as it does outside the normal range.
    ///
    /// # Errors
    ///
    /// As [`read_f64`](Self::read_f64).
    pub(super) fn read_f32(&mut self) -> Result<f32, ParseError> {
        let (nearest, text) = self.number()?;
        match narrow(nearest) {
            Some(v) => Ok(v),
            None => self.parse_text(text),
        }
    }

    /// Reads a number that is a non-negative integer (a count, a
    /// dimension); `1e2` and `3.0` qualify, as they always have.
    ///
    /// # Errors
    ///
    /// Not a number, or negative, fractional or above `u64::MAX`.
    pub fn read_u64(&mut self) -> Result<u64, ParseError> {
        let n = self.read_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(self.err("expected a non-negative integer"))
        }
    }

    /// Reads an array of numbers, appending each as its nearest `f32` —
    /// one correct rounding of the decimal, not two via `f64` — to `out`.
    ///
    /// Elements are read in runs over a local slice; an element a run
    /// cannot finish exactly is read alone by the per-element path, so
    /// results, errors and error offsets are that path's.
    ///
    /// Capacity follows the input: when `out` fills up it is grown to what
    /// the bytes left would hold at the density seen so far, so the
    /// allocation count does not depend on the element count and nothing
    /// is ever reserved on the peer's say-so.
    ///
    /// # Errors
    ///
    /// Not an array, or an element that is not a number.
    pub fn read_f32_array(&mut self, out: &mut Vec<f32>) -> Result<(), ParseError> {
        self.begin_array()?;
        let (start, base) = (self.rest.len(), out.len());
        while self.next_element()? {
            if !self.f32_run(out, start, base) {
                out.push(self.read_f32()?);
            }
        }
        Ok(())
    }

    /// From the cursor on an element: number, optional whitespace, `,`,
    /// repeat, for as long as [`scan_number`] finishes each number exactly
    /// and [`narrow`] takes it. The cursor is written back once. Returns
    /// `true` when the run ended after an element (a `]`, or an error for
    /// [`next_element`](Self::next_element) to raise), and `false` when it
    /// stopped on an element it could not finish, which is left unread.
    fn f32_run(&mut self, out: &mut Vec<f32>, start: usize, base: usize) -> bool {
        let mut rest = self.rest;
        let ended_after_element = 'run: loop {
            if out.len() == out.capacity() {
                // An element is at least 2 bytes (`0,`); before any has
                // been read, guess 8.
                let bytes_each = (start - rest.len())
                    .checked_div(out.len() - base)
                    .map_or(8, |n| n.max(2));
                out.reserve(rest.len() / bytes_each + 1);
            }
            let element = skip_whitespace(rest);
            let Some((v, len)) = scan_number(element)
                .ok()
                .and_then(|scan| Some((narrow(scan.nearest?)?, scan.len)))
            else {
                break false;
            };
            out.push(v);
            rest = skip_whitespace(element.get(len..).unwrap_or_default());
            match rest {
                [b',', tail @ ..] => rest = tail,
                _ => break true,
            }
            // A short token's repeats, up to the reserved capacity, are
            // its value: a feature map is mostly runs of `0`, `1`, `-1`.
            let Some(token) = ShortToken::of(element, len) else {
                continue;
            };
            while out.len() < out.capacity() {
                let element = skip_whitespace(rest);
                if !token.starts(element) {
                    break;
                }
                out.push(v);
                rest = skip_whitespace(element.get(len..).unwrap_or_default());
                match rest {
                    [b',', tail @ ..] => rest = tail,
                    _ => break 'run true,
                }
            }
        };
        self.rest = rest;
        ended_after_element
    }

    /// Skips one value of any type, validating it. Iterative: the open
    /// containers are counted, not recursed into.
    ///
    /// # Errors
    ///
    /// Whatever reading the value would have raised.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        let base = self.depth;
        loop {
            match self.peek() {
                Some(b'{') => self.begin_object()?,
                Some(b'[') => self.begin_array()?,
                Some(b'"') => {
                    self.read_str()?;
                }
                Some(b't' | b'f') => {
                    self.read_bool()?;
                }
                Some(b'n') => self.read_null()?,
                Some(_) => {
                    self.read_f64()?;
                }
                None => return Err(self.err("unexpected end of input")),
            }
            // Step to the next value inside the one being skipped,
            // closing every container that ends here.
            loop {
                if self.depth == base {
                    return Ok(());
                }
                let more = if self.objects & 1 == 1 {
                    self.next_key()?.is_some()
                } else {
                    self.next_element()?
                };
                if more {
                    break;
                }
            }
        }
    }
}

/// A token of at most seven bytes that [`Reader::f32_run`] just scanned:
/// the `0`, `1` and `-1` of a feature map, whose runs are most of it. The
/// elements after it that start with it are read from it.
struct ShortToken {
    /// Its bytes, little-endian, and the mask that keeps just them.
    bytes: u64,
    mask: u64,
    len: usize,
}

impl ShortToken {
    /// The token `element` starts with, `len` bytes, if it is short and
    /// the eight bytes are there.
    #[inline(always)]
    fn of(element: &[u8], len: usize) -> Option<ShortToken> {
        if len >= 8 {
            return None;
        }
        let word = element.first_chunk::<8>()?;
        let mask = (1u64 << (8 * len)) - 1;
        Some(ShortToken {
            bytes: u64::from_le_bytes(*word) & mask,
            mask,
            len,
        })
    }

    /// Whether `element` starts with this token and then a byte no number
    /// continues with. [`scan_number`] decides byte by byte, and after a
    /// whole token only a digit, `.`, `e` or `E` would extend it, so it
    /// would read this token again, to the same value.
    #[inline(always)]
    fn starts(&self, element: &[u8]) -> bool {
        let Some(word) = element.first_chunk::<8>().map(|w| u64::from_le_bytes(*w)) else {
            return false;
        };
        let next = (word >> (8 * self.len)) as u8;
        (word ^ self.bytes) & self.mask == 0 && !matches!(next, b'0'..=b'9' | b'.' | b'e' | b'E')
    }
}

/// `bytes` past any leading JSON whitespace.
fn skip_whitespace(mut bytes: &[u8]) -> &[u8] {
    while let [b' ' | b'\t' | b'\n' | b'\r', tail @ ..] = bytes {
        bytes = tail;
    }
    bytes
}

/// A number [`scan_number`] found.
struct Scan {
    /// How many bytes it spans.
    len: usize,
    /// Its nearest `f64` when Clinger's fast path computes it exactly;
    /// `None` leaves the rounding to `str::parse` over those bytes.
    nearest: Option<f64>,
}

/// Scans the RFC 8259 number, `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`,
/// at the front of `bytes` — the one number scanner; every reader method
/// that reads a number goes through it. `Err(at)`: the grammar fails `at`
/// bytes in.
///
/// The digits are scanned into an integer mantissa `m` and a decimal
/// exponent `e`. When `m < 2^53` and `|e| <= 22` both `m` and `10^|e|` are
/// exact `f64`s, so one IEEE multiply or divide rounds the true value
/// `m·10^e` once — the correctly rounded result, which is what
/// `str::parse::<f64>` returns (Clinger's fast path).
///
/// Always inlined: in the array loop its result then never leaves
/// registers.
#[inline(always)]
fn scan_number(bytes: &[u8]) -> Result<Scan, usize> {
    // The sign is stepped over without a branch: in a tensor it comes and
    // goes at random.
    let negative = bytes.first() == Some(&b'-');
    let mut rest = bytes.get(usize::from(negative)..).unwrap_or_default();
    let leading_zero = rest.first() == Some(&b'0');
    // A one-digit integer part (the `0` of every fraction a tensor body
    // holds) is read without the run loop.
    let (mut mantissa, mut digits) = match *rest {
        [digit @ b'0'..=b'9', ref tail @ ..] if !tail.first().is_some_and(u8::is_ascii_digit) => {
            rest = tail;
            (u64::from(digit - b'0'), 1)
        }
        _ => take_digits(&mut rest, 0),
    };
    let at = |rest: &[u8]| bytes.len() - rest.len();
    if digits == 0 || (leading_zero && digits > 1) {
        return Err(at(rest));
    }
    let mut exp10 = 0i32;
    if let [b'.', tail @ ..] = rest {
        rest = tail;
        let frac_digits;
        (mantissa, frac_digits) = take_digits(&mut rest, mantissa);
        if frac_digits == 0 {
            return Err(at(rest));
        }
        digits += frac_digits;
        exp10 = i32::try_from(frac_digits).map_or(i32::MIN, |n| -n);
    }
    if let [b'e' | b'E', tail @ ..] = rest {
        rest = tail;
        let minus = rest.first() == Some(&b'-');
        if let [b'-' | b'+', tail @ ..] = rest {
            rest = tail;
        }
        let (exponent, exp_digits) = take_digits(&mut rest, 0);
        if exp_digits == 0 {
            return Err(at(rest));
        }
        // More than 19 digits wrapped; whatever they spell, `str::parse`
        // gets to read it.
        let exponent = if exp_digits > 19 { u64::MAX } else { exponent };
        let exponent = i32::try_from(exponent).unwrap_or(i32::MAX);
        exp10 = exp10.saturating_add(if minus { -exponent } else { exponent });
    }
    let nearest = match EXACT_POW10.get(exp10.unsigned_abs() as usize) {
        Some(&pow10) if digits <= 19 && mantissa < 1 << 53 => {
            // Below 2^53, so the signed conversion is exact (and one
            // instruction, where the unsigned one is five).
            let mantissa = mantissa as i64 as f64;
            let magnitude = if exp10 < 0 {
                mantissa / pow10
            } else {
                mantissa * pow10
            };
            // The sign bit, set without a branch: `-magnitude` exactly.
            Some(f64::from_bits(
                magnitude.to_bits() | u64::from(negative) << 63,
            ))
        }
        _ => None,
    };
    Ok(Scan {
        len: at(rest),
        nearest,
    })
}

/// `10^0 ..= 10^8` as integers.
const POW10_U64: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Consumes a run of ASCII digits from the front of `rest`, appending them
/// to `mantissa` (wrapping: exact while at most 19 digits went in), and
/// returns the new mantissa and how many digits there were.
///
/// Eight bytes at a time: a word of digits is added whole; in the first
/// word that holds anything else, the digits before it are counted from a
/// mask and added in one step too, so the run's length costs no loop.
#[inline(always)]
fn take_digits(rest: &mut &[u8], mut mantissa: u64) -> (u64, usize) {
    let before = rest.len();
    while let Some((chunk, tail)) = rest.split_first_chunk::<8>() {
        let values = u64::from_le_bytes(*chunk) ^ 0x3030_3030_3030_3030;
        let others = non_digits(values);
        if others == 0 {
            mantissa = mantissa
                .wrapping_mul(100_000_000)
                .wrapping_add(eight_values(values));
            *rest = tail;
            continue;
        }
        // The digits before the first other byte, 0 ..= 7, moved to the
        // top bytes with zeros below them.
        let digits = others.trailing_zeros() as usize / 8;
        let run = values.checked_shl(64 - 8 * digits as u32).unwrap_or(0);
        mantissa = mantissa
            .wrapping_mul(POW10_U64.get(digits).copied().unwrap_or(1))
            .wrapping_add(eight_values(run));
        *rest = rest.get(digits..).unwrap_or_default();
        return (mantissa, before - rest.len());
    }
    while let [digit @ b'0'..=b'9', tail @ ..] = *rest {
        mantissa = mantissa
            .wrapping_mul(10)
            .wrapping_add(u64::from(digit - b'0'));
        *rest = tail;
    }
    (mantissa, before - rest.len())
}

/// `nearest` — the nearest `f64` to a decimal — rounded to `f32`, when
/// that is the decimal's own nearest `f32`; `None` when it may not be and
/// `str::parse::<f32>` must decide (see [`Reader::read_f32`]): an `f32`
/// midpoint, or outside the `f32` normal range.
fn narrow(nearest: f64) -> Option<f32> {
    let magnitude = nearest.abs();
    let midpoint = nearest.to_bits() & 0x1fff_ffff == 0x1000_0000;
    let normal = f64::from(f32::MIN_POSITIVE)..=f64::from(f32::MAX);
    (magnitude == 0.0 || (!midpoint && normal.contains(&magnitude))).then_some(nearest as f32)
}

/// The high bit of every byte of `values` (eight bytes XOR `0x30`, which
/// turns a digit into its value) that was not an ASCII digit. No sum
/// carries out of its byte.
fn non_digits(values: u64) -> u64 {
    (((values & 0x7f7f_7f7f_7f7f_7f7f) + 0x7676_7676_7676_7676) | values) & 0x8080_8080_8080_8080
}

/// The number eight digit values spell, the first in the lowest byte.
fn eight_values(values: u64) -> u64 {
    // Pairwise: digits → two-digit numbers → four-digit → eight-digit.
    let pairs = values.wrapping_mul(10).wrapping_add(values >> 8);
    let quads = (pairs & 0x0000_00ff_0000_00ff).wrapping_mul(100 + (1_000_000 << 32));
    let rest = ((pairs >> 16) & 0x0000_00ff_0000_00ff).wrapping_mul(1 + (10_000 << 32));
    quads.wrapping_add(rest) >> 32
}
