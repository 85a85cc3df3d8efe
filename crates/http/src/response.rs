//! HTTP/1.1 response assembly and serialization.

use std::io::{ErrorKind, IoSlice, Write};

/// An HTTP response under construction. Serialization always emits
/// `Content-Length` (no chunked encoding) and an explicit `Connection`
/// header, so clients never have to guess framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A response carrying a JSON document, taking ownership of its
    /// bytes (a `String` or a `Vec<u8>`; neither is copied).
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status)
            .header("Content-Type", "application/json")
            .with_body(body.into())
    }

    /// A JSON error body `{"error": "..."}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\": {}}}", pop_obs::json::str_lit(message)),
        )
    }

    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    pub fn status(&self) -> u16 {
        self.status
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serializes the response, stamping framing headers. `keep_alive`
    /// decides the `Connection` header — the caller owns that policy.
    ///
    /// # Errors
    ///
    /// Propagates write failures (a disconnected peer).
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        write_frame(w, head.as_bytes(), &self.body)
    }
}

/// Writes `head` then `body` and flushes, gathering both into each
/// `write_vectored` call. One call, not a head-then-body write pair: over
/// a bare `TcpStream` the pair tears the message across two segments and
/// can stall ~40ms against Nagle + delayed-ACK peers. Nothing is copied
/// into a frame first.
///
/// # Errors
///
/// Propagates write failures; a writer that takes nothing is `WriteZero`.
pub(crate) fn write_frame(w: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut unwritten = &mut slices[..];
    IoSlice::advance_slices(&mut unwritten, 0);
    while !unwritten.is_empty() {
        match w.write_vectored(unwritten) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_status_headers_and_framing() {
        let r = Response::json(200, "{\"ok\": true}".to_string());
        let mut out = Vec::new();
        r.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n\r\n{\"ok\": true}"));
    }

    /// A writer that takes at most 7 bytes of the first non-empty slice
    /// per call, as `Write::write_vectored`'s default does.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        let r = Response::json(200, "{\"data\": [0.5, 1, 2]}".to_string());
        let (mut whole, mut trickled) = (Vec::new(), Trickle(Vec::new()));
        r.write_to(&mut whole, true).unwrap();
        r.write_to(&mut trickled, true).unwrap();
        assert_eq!(trickled.0, whole);
        assert!(whole.ends_with(b"\r\n\r\n{\"data\": [0.5, 1, 2]}"));
        let mut empty = Vec::new();
        write_frame(&mut empty, b"", b"").unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn close_connections_say_so() {
        let mut out = Vec::new();
        Response::error(429, "try later")
            .header("Retry-After", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\": \"try later\"}"));
    }
}
