//! An incremental, bounded HTTP/1.1 request parser.
//!
//! The parser owns an accumulation buffer: the connection loop feeds it
//! raw socket reads ([`RequestParser::read_from`]) and polls for complete
//! requests ([`RequestParser::poll`]). Nothing here trusts the peer —
//! every limit in [`ParserLimits`] is enforced *before* the offending
//! bytes are buffered further, every malformed input becomes a typed
//! [`ParseError`] with an HTTP status, and no input can make any function
//! in this module panic (property-tested over arbitrary byte fragments in
//! `tests/parser_fuzz.rs`).
//!
//! Scope: `HTTP/1.0` and `HTTP/1.1` requests with `Content-Length` bodies
//! (or none). `Transfer-Encoding` is answered with `501 Not Implemented`
//! rather than implemented incorrectly; header obs-folding (a continuation
//! line) is rejected per RFC 7230 §3.2.4.

use std::io::Read;

/// Hard limits the parser enforces on every request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParserLimits {
    /// Largest request head (request line + headers + terminator), bytes.
    pub max_head_bytes: usize,
    /// Most header fields accepted in one request.
    pub max_headers: usize,
    /// Largest `Content-Length` accepted, bytes.
    pub max_body_bytes: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        ParserLimits {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            // Feature maps are dense float arrays: a 4×64×64 payload in
            // decimal JSON runs ~200 KiB, so leave generous headroom.
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// One parsed request. Header names are lower-cased at parse time; values
/// keep their bytes with surrounding whitespace trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this one
    /// (HTTP/1.1 default, overridden by `Connection` headers).
    pub keep_alive: bool,
}

impl Request {
    /// First value of the (lower-cased) header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed, mapped onto response statuses by
/// [`ParseError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The head outgrew [`ParserLimits::max_head_bytes`] → 431.
    HeadTooLarge,
    /// More fields than [`ParserLimits::max_headers`] → 431.
    TooManyHeaders,
    /// `Content-Length` exceeds [`ParserLimits::max_body_bytes`] → 413.
    BodyTooLarge(u64),
    /// Syntactically invalid request → 400.
    Bad(&'static str),
    /// Valid but unimplemented (`Transfer-Encoding`) → 501.
    Unsupported(&'static str),
}

impl ParseError {
    /// The HTTP status a server should answer this error with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadTooLarge | ParseError::TooManyHeaders => 431,
            ParseError::BodyTooLarge(_) => 413,
            ParseError::Bad(_) => 400,
            ParseError::Unsupported(_) => 501,
        }
    }

    /// A short human-readable reason for the error body.
    pub fn reason(&self) -> String {
        match self {
            ParseError::HeadTooLarge => "request head too large".to_string(),
            ParseError::TooManyHeaders => "too many header fields".to_string(),
            ParseError::BodyTooLarge(n) => format!("content-length {n} exceeds limit"),
            ParseError::Bad(what) => format!("malformed request: {what}"),
            ParseError::Unsupported(what) => format!("unsupported: {what}"),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.reason(), self.status())
    }
}

impl std::error::Error for ParseError {}

/// Most bytes one socket read asks for.
pub(crate) const MAX_READ: usize = 64 * 1024;
/// What a read asks for while the length of what is coming is unknown.
pub(crate) const HEAD_READ: usize = 4096;

/// Reads once from `r` into the tail of `buf` — no bounce through a stack
/// chunk — asking for `want` bytes (at least 1, at most [`MAX_READ`]).
/// Returns the byte count (0 = EOF).
pub(crate) fn read_into(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    want: usize,
) -> std::io::Result<usize> {
    let len = buf.len();
    buf.resize(len + want.clamp(1, MAX_READ), 0);
    let result = r.read(buf.get_mut(len..).unwrap_or_default());
    buf.truncate(len + result.as_ref().map_or(0, |&n| n));
    result
}

/// A request whose head is parsed and whose body may still be arriving.
#[derive(Debug)]
struct Pending {
    /// Everything the head said; `body` is filled in on completion.
    request: Request,
    /// Where the body starts in the buffer, and where the request ends.
    body_start: usize,
    total: usize,
}

/// The incremental parser: feed bytes, poll requests.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    limits: ParserLimits,
    /// The head at the front of `buf`, parsed once and kept while its body
    /// arrives: it says how many bytes are still owed.
    pending: Option<Pending>,
}

impl RequestParser {
    pub fn new(limits: ParserLimits) -> Self {
        RequestParser {
            buf: Vec::with_capacity(1024),
            limits,
            pending: None,
        }
    }

    /// Appends raw bytes (a socket read) to the accumulation buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `r` into the buffer; returns the byte count (0 =
    /// EOF). Once a head has said how long its body is, the read asks for
    /// exactly what is still owed. Lives here so connection loops never
    /// touch raw slices.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `read` error (timeouts included).
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let want = match &self.pending {
            Some(head) => head.total.saturating_sub(self.buf.len()),
            None => HEAD_READ,
        };
        read_into(r, &mut self.buf, want)
    }

    /// Bytes buffered but not yet consumed by a completed request. A
    /// non-zero value after a read timeout distinguishes a slow-trickling
    /// request (answer 408) from an idle keep-alive connection.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to parse one complete request from the buffer.
    ///
    /// Returns `Ok(Some(_))` and drains the consumed bytes (pipelined
    /// follow-up requests stay buffered), `Ok(None)` when more input is
    /// needed, and `Err(_)` when the buffered bytes can never become a
    /// valid request — the connection should answer the error and close.
    ///
    /// # Errors
    ///
    /// See [`ParseError`].
    pub fn poll(&mut self) -> Result<Option<Request>, ParseError> {
        let mut head = match self.pending.take() {
            Some(head) => head,
            None => match self.parse_head()? {
                Some(head) => head,
                None => return Ok(None),
            },
        };
        if self.buf.len() < head.total {
            self.pending = Some(head);
            return Ok(None); // body still arriving
        }
        head.request.body = self
            .buf
            .get(head.body_start..head.total)
            .unwrap_or_default()
            .to_vec();
        self.buf.drain(..head.total);
        Ok(Some(head.request))
    }

    /// Parses the head at the front of the buffer, if it is complete.
    fn parse_head(&self) -> Result<Option<Pending>, ParseError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() > self.limits.max_head_bytes {
                return Err(ParseError::HeadTooLarge);
            }
            return Ok(None);
        };
        if head_end.head_len > self.limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge);
        }
        let head = self.buf.get(..head_end.head_len).unwrap_or_default();
        let head =
            std::str::from_utf8(head).map_err(|_| ParseError::Bad("non-UTF-8 request head"))?;
        let mut lines = split_head_lines(head);
        let request_line = lines.next().ok_or(ParseError::Bad("empty request"))?;
        let (method, path, keep_alive_default) = parse_request_line(request_line)?;

        let mut headers: Vec<(String, String)> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if headers.len() >= self.limits.max_headers {
                return Err(ParseError::TooManyHeaders);
            }
            if line.starts_with(' ') || line.starts_with('\t') {
                return Err(ParseError::Bad("obsolete header folding"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(ParseError::Bad("header without ':'"))?;
            if name.is_empty() || !name.bytes().all(is_token_byte) {
                return Err(ParseError::Bad("invalid header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        if headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return Err(ParseError::Unsupported("transfer-encoding"));
        }
        let content_length = content_length(&headers)?;
        if content_length > self.limits.max_body_bytes as u64 {
            return Err(ParseError::BodyTooLarge(content_length));
        }
        let content_length = content_length as usize;

        let keep_alive = match headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.to_ascii_lowercase())
        {
            Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
            Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
            _ => keep_alive_default,
        };

        Ok(Some(Pending {
            request: Request {
                method,
                path,
                headers,
                body: Vec::new(),
                keep_alive,
            },
            body_start: head_end.consumed,
            total: head_end.consumed.saturating_add(content_length),
        }))
    }
}

/// Where the request head ends: `head_len` excludes the blank-line
/// terminator, `consumed` includes it (the body offset).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeadEnd {
    pub(crate) head_len: usize,
    pub(crate) consumed: usize,
}

/// Finds the first blank line. `\r\n\r\n` is canonical; a bare `\n\n` is
/// accepted leniently (curl never sends it, hand-typed tests do).
pub(crate) fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    let mut i = 0;
    while i < buf.len() {
        if buf.get(i) == Some(&b'\n') {
            let after_crlf = i >= 1 && buf.get(i - 1) == Some(&b'\r');
            // "\r\n\r\n": head ends before the first \r\n.
            if after_crlf && i >= 3 && buf.get(i - 3..i - 1) == Some(b"\r\n") {
                return Some(HeadEnd {
                    head_len: i - 3,
                    consumed: i + 1,
                });
            }
            // "\n\n" (either bare or "\n\r\n" mixed).
            if !after_crlf && i >= 1 && buf.get(i - 1) == Some(&b'\n') {
                return Some(HeadEnd {
                    head_len: i - 1,
                    consumed: i + 1,
                });
            }
            if after_crlf && i >= 2 && buf.get(i - 2) == Some(&b'\n') {
                return Some(HeadEnd {
                    head_len: i - 2,
                    consumed: i + 1,
                });
            }
        }
        i += 1;
    }
    None
}

/// Splits the head into lines on `\n`, trimming one trailing `\r` each.
fn split_head_lines(head: &str) -> impl Iterator<Item = &str> {
    head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l))
}

fn parse_request_line(line: &str) -> Result<(String, String, bool), ParseError> {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if parts.next().is_some() {
        return Err(ParseError::Bad("request line has extra fields"));
    }
    if method.is_empty() || method.len() > 16 || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Bad("invalid method"));
    }
    if !path.starts_with('/') || path.len() > 2048 {
        return Err(ParseError::Bad("invalid request target"));
    }
    if path.bytes().any(|b| !(0x21..=0x7e).contains(&b)) {
        return Err(ParseError::Bad("invalid request target"));
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Bad("unsupported HTTP version")),
    };
    Ok((method.to_string(), path.to_string(), keep_alive_default))
}

/// The body length the (lower-cased) `headers` declare, 0 if none: RFC
/// 9110's `1*DIGIT` only (no sign, no list), and every duplicate must say
/// the same. Requests and responses both go through it.
pub(crate) fn content_length(headers: &[(String, String)]) -> Result<u64, ParseError> {
    let mut result: Option<u64> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::Bad("invalid content-length"));
        }
        let parsed: u64 = value
            .parse()
            .map_err(|_| ParseError::Bad("invalid content-length"))?;
        match result {
            Some(prev) if prev != parsed => {
                return Err(ParseError::Bad("conflicting content-length"))
            }
            _ => result = Some(parsed),
        }
    }
    Ok(result.unwrap_or(0))
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<Request>, ParseError> {
        let mut p = RequestParser::new(ParserLimits::default());
        p.feed(bytes);
        p.poll()
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_post_with_body_and_lowercases_names() {
        let req = parse_all(
            b"POST /v1/forecast HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");
        assert_eq!(req.header("content-type"), Some("application/json"));
    }

    #[test]
    fn incremental_feeding_byte_by_byte_matches_one_shot() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let mut p = RequestParser::new(ParserLimits::default());
        let mut results = Vec::new();
        for b in raw.iter() {
            p.feed(std::slice::from_ref(b));
            if let Some(req) = p.poll().unwrap() {
                results.push(req);
            }
        }
        assert_eq!(results.len(), 1);
        assert_eq!(results, vec![parse_all(raw).unwrap().unwrap()]);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut p = RequestParser::new(ParserLimits::default());
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.poll().unwrap().unwrap().path, "/a");
        assert_eq!(p.poll().unwrap().unwrap().path, "/b");
        assert_eq!(p.poll().unwrap(), None);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse_all(b"GET /lf HTTP/1.1\nHost: y\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/lf");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn oversized_head_is_rejected_even_without_terminator() {
        let limits = ParserLimits {
            max_head_bytes: 64,
            ..ParserLimits::default()
        };
        let mut p = RequestParser::new(limits);
        p.feed(b"GET / HTTP/1.1\r\n");
        p.feed(&[b'a'; 128]);
        assert_eq!(p.poll(), Err(ParseError::HeadTooLarge));
        assert_eq!(ParseError::HeadTooLarge.status(), 431);
    }

    #[test]
    fn huge_content_length_is_rejected_before_the_body_arrives() {
        let err =
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n").unwrap_err();
        assert!(matches!(err, ParseError::BodyTooLarge(999_999_999_999)));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn malformed_inputs_map_to_400() {
        for raw in [
            b"get / HTTP/1.1\r\n\r\n".as_slice(), // lower-case method
            b"GET x HTTP/1.1\r\n\r\n",            // target without '/'
            b"GET / HTTP/2.0\r\n\r\n",            // unknown version
            b"GET / HTTP/1.1 extra\r\n\r\n",      // 4-field request line
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            b"GET / HTTP/1.1\r\nA: b\r\n c\r\n\r\n", // obs-fold
        ] {
            let err = parse_all(raw).unwrap_err();
            assert_eq!(
                err.status(),
                400,
                "{err} for {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn content_length_is_ascii_digits_only() {
        for value in ["+5", " +5", "0x5", "5,5", "5 5", "٥"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcde");
            let err = parse_all(raw.as_bytes()).unwrap_err();
            assert_eq!(err, ParseError::Bad("invalid content-length"), "{value:?}");
            assert_eq!(err.status(), 400);
        }
        let req =
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: 05\r\nContent-Length: 5\r\n\r\nabcde")
                .unwrap()
                .unwrap();
        assert_eq!(req.body, b"abcde", "equal duplicates agree");
    }

    #[test]
    fn transfer_encoding_maps_to_501() {
        let err = parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::Unsupported("transfer-encoding"));
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn truncated_body_waits_for_more_input() {
        let mut p = RequestParser::new(ParserLimits::default());
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
        assert_eq!(p.poll().unwrap(), None);
        assert!(p.buffered() > 0);
        p.feed(b"cde");
        assert_eq!(p.poll().unwrap().unwrap().body, b"abcde");
    }

    #[test]
    fn too_many_headers_is_431() {
        let limits = ParserLimits {
            max_headers: 4,
            ..ParserLimits::default()
        };
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..6 {
            raw.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let mut p = RequestParser::new(limits);
        p.feed(&raw);
        assert_eq!(p.poll(), Err(ParseError::TooManyHeaders));
    }
}
