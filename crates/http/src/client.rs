//! A minimal blocking HTTP/1.1 client — the test-harness and
//! load-generator half of the protocol. Keep-alive by default: one
//! [`HttpClient`] drives many requests over one connection, which is what
//! the closed-loop bench needs to measure server-side queueing rather
//! than connection setup.

use crate::parser::{content_length, find_head_end, read_into, HEAD_READ, MAX_READ};
use crate::response::write_frame;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of the (lower-cased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, lossily.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A blocking keep-alive connection to one server, re-opened when the
/// server says it is closing it (its per-connection request cap, a drain)
/// or an exchange fails.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    addr: SocketAddr,
    timeout: Duration,
    /// The last exchange failed or its response carried `Connection:
    /// close`: the socket behind `stream` is no good and the next
    /// [`HttpClient::send`] connects afresh.
    reconnect: bool,
}

impl HttpClient {
    /// Connects with a 5 s I/O deadline.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with an explicit read/write deadline.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Request/response traffic is latency-bound: never trade a
        // round-trip for segment coalescing.
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            addr,
            timeout,
            reconnect: false,
        })
    }

    /// Raw access, for fault-injection tests (half-writes, early close).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and malformed responses.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.send("GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and malformed responses.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.send("POST", path, Some(body))
    }

    /// Writes one request and reads one response, on a fresh connection
    /// if the previous exchange failed or announced `Connection: close`.
    ///
    /// # Errors
    ///
    /// Propagates transport (and reconnect) failures and malformed
    /// responses (`ErrorKind::InvalidData`).
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        if self.reconnect {
            *self = Self::connect_with_timeout(self.addr, self.timeout)?;
        }
        // Until a response says the connection lives on.
        self.reconnect = true;
        let body = body.unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: pop\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        // One gathered write per request: a torn head/body pair costs a
        // Nagle + delayed-ACK round-trip (~40ms) per exchange.
        write_frame(&mut self.stream, head.as_bytes(), body.as_bytes())?;
        let response = read_response(&mut self.stream)?;
        self.reconnect = response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        Ok(response)
    }
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, what.to_string())
}

/// Reads exactly one response (status line, headers, `Content-Length`
/// body) from `r`.
///
/// # Errors
///
/// `InvalidData` for malformed responses, `UnexpectedEof` for truncation,
/// plus any transport error.
pub fn read_response(r: &mut impl Read) -> std::io::Result<ClientResponse> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() > 1024 * 1024 {
            return Err(bad("response head too large"));
        }
        if read_into(r, &mut buf, HEAD_READ)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed before response head",
            ));
        }
    };
    let head = std::str::from_utf8(buf.get(..head_end.head_len).unwrap_or_default())
        .map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    if parts.next() != Some("HTTP/1.1") {
        return Err(bad("not an HTTP/1.1 response"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("missing status code"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = content_length(&headers)
        .ok()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| bad("bad content-length"))?;
    // The body gets its own buffer: what came in with the head, then what
    // is still owed, read straight into it, so no byte is moved twice. The
    // claimed length only caps the buffer: it grows, when full, by what
    // has arrived plus one read, so a peer that claims a terabyte and
    // sends ten bytes costs one read's worth.
    let arrived = buf.get(head_end.consumed..).unwrap_or_default();
    let arrived = arrived.get(..content_length).unwrap_or(arrived);
    let mut body = Vec::with_capacity(content_length.min(arrived.len() + MAX_READ));
    body.extend_from_slice(arrived);
    while body.len() < content_length {
        let owed = content_length - body.len();
        if body.len() == body.capacity() {
            body.reserve_exact(owed.min(body.len() + MAX_READ));
        }
        let room = body.capacity() - body.len();
        if read_into(r, &mut body, owed.min(room))? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForecastService, HttpServer, ServerConfig};
    use pop_core::{ExperimentConfig, Pix2Pix};

    /// The server caps requests per connection and says so in the last
    /// response; request cap + 1 used to be written into the closing
    /// socket and fail.
    #[test]
    fn reconnects_after_connection_close_and_after_a_failed_exchange() {
        let service = ForecastService::builder()
            .model("m", Pix2Pix::new(&ExperimentConfig::test(), 1).unwrap())
            .build()
            .unwrap();
        let config = ServerConfig {
            max_requests_per_conn: 3,
            ..ServerConfig::default()
        };
        let server = HttpServer::start(service, config).unwrap();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        for i in 1..=7 {
            let res = client.get("/healthz").unwrap();
            assert_eq!(res.status, 200, "request {i}");
            let last_on_connection = i % 3 == 0;
            assert_eq!(
                res.header("connection") == Some("close"),
                last_on_connection,
                "request {i}"
            );
        }
        // A failed exchange is the other reason to start afresh.
        client
            .stream_mut()
            .shutdown(std::net::Shutdown::Both)
            .unwrap();
        assert!(client.get("/healthz").is_err(), "the socket is gone");
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client); // or the drain waits out the idle connection
        let report = server.shutdown();
        assert_eq!(report.http.connections, 4, "3 + 3 + 1 + 1 requests");
        assert_eq!(report.http.requests, 8);
    }

    #[test]
    fn parses_a_serialized_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}";
        let res = read_response(&mut raw.as_slice()).unwrap();
        assert_eq!(res.status, 200);
        assert_eq!(res.header("content-type"), Some("application/json"));
        assert_eq!(res.text(), "{\"ok\":true}");
    }

    #[test]
    fn truncated_responses_are_errors_not_hangs() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        let err = read_response(&mut raw.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        let raw = b"HTTP/2 200\r\n\r\n";
        assert_eq!(
            read_response(&mut raw.as_slice()).unwrap_err().kind(),
            ErrorKind::InvalidData
        );
    }

    /// One `Content-Length` rule in both directions: the parser's.
    #[test]
    fn content_length_is_digits_and_duplicates_must_agree() {
        for raw in [
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd".as_slice(),
            b"HTTP/1.1 200 OK\r\nContent-Length: +3\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\nContent-Length: 3 3\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\nabc",
        ] {
            let err = read_response(&mut &raw[..]).unwrap_err();
            assert_eq!(
                err.kind(),
                ErrorKind::InvalidData,
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabcdef";
        assert_eq!(read_response(&mut raw.as_slice()).unwrap().body, b"abc");
    }
}
