//! The TCP front end: accept thread, connection queue, worker pool.
//!
//! An accept thread pushes inbound [`TcpStream`]s into a bounded
//! [`pop_exec::BoundedQueue`] (overload answers a minimal `503` at accept
//! time — admission control *before* a worker is committed); a
//! [`pop_exec::WorkerPool`] of connection workers drains it, each running
//! [`RequestParser`]-driven keep-alive loops with read/write deadlines.
//! Shutdown is graceful by construction: the flag stops new connections,
//! a self-connect wakes the blocking accept, the queue closes, and every
//! worker finishes its in-flight request before exiting — bounded by the
//! read deadline. Nothing on a connection path panics (pop-lint roots the
//! panic rule at every function in this file).
//!
//! Transport telemetry is the `http.*` series of [`HttpStats`], resolved
//! once at start-up from the fronted service's registry
//! ([`ForecastService::http_stats`]) — not the process-global one, so two
//! servers in one process count their own connections and a test can
//! assert exact totals. Each event is one increment; [`HttpStatsSnapshot`]
//! and the `"http"` section of `/v1/stats` are readings of those series.

use crate::parser::{ParserLimits, RequestParser};
use crate::response::Response;
use crate::service::ForecastService;
use pop_exec::{BoundedQueue, PushError, WorkerPool};
use pop_obs::{Counter, Gauge, Histogram, Registry};
use pop_serve::StatsSnapshot;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of an [`HttpServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Connection worker threads — concurrently served connections.
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this, accepts
    /// answer `503` immediately.
    pub conn_backlog: usize,
    /// Socket read deadline: bounds slow-trickle (slowloris) requests,
    /// idle keep-alive lifetime, and the shutdown drain.
    pub read_timeout: Duration,
    /// Socket write deadline.
    pub write_timeout: Duration,
    /// Requests served over one connection before it is closed.
    pub max_requests_per_conn: usize,
    /// Request parsing limits.
    pub limits: ParserLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            conn_backlog: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            limits: ParserLimits::default(),
        }
    }
}

/// The transport layer's series, as handles into the fronted service's
/// registry (see the module docs).
#[derive(Debug)]
pub(crate) struct HttpStats {
    connections: Arc<Counter>,
    accept_rejected: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    keepalive_reuses: Arc<Counter>,
    responses_2xx: Arc<Counter>,
    responses_4xx: Arc<Counter>,
    responses_5xx: Arc<Counter>,
    queue_full: Arc<Counter>,
    parse_errors: Arc<Counter>,
    timeouts: Arc<Counter>,
    write_errors: Arc<Counter>,
    request_us: Arc<Histogram>,
    active: Arc<Gauge>,
}

impl HttpStats {
    pub(crate) fn resolve(registry: &Registry) -> HttpStats {
        HttpStats {
            connections: registry.counter("http.connections"),
            accept_rejected: registry.counter("http.accept_rejected"),
            requests: registry.counter("http.requests"),
            keepalive_reuses: registry.counter("http.keepalive.reuses"),
            responses_2xx: registry.counter("http.responses.2xx"),
            responses_4xx: registry.counter("http.responses.4xx"),
            responses_5xx: registry.counter("http.responses.5xx"),
            queue_full: registry.counter("http.queue_full"),
            parse_errors: registry.counter("http.parse_errors"),
            timeouts: registry.counter("http.timeouts"),
            write_errors: registry.counter("http.write_errors"),
            request_us: registry.histogram("http.request_us"),
            active: registry.gauge("http.connections.active"),
        }
    }

    fn record_status(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }

    /// Point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> HttpStatsSnapshot {
        HttpStatsSnapshot {
            connections: self.connections.get(),
            accept_rejected: self.accept_rejected.get(),
            requests: self.requests.get(),
            keepalive_reuses: self.keepalive_reuses.get(),
            responses_2xx: self.responses_2xx.get(),
            responses_4xx: self.responses_4xx.get(),
            responses_5xx: self.responses_5xx.get(),
            parse_errors: self.parse_errors.get(),
            timeouts: self.timeouts.get(),
            write_errors: self.write_errors.get(),
        }
    }
}

/// Point-in-time reading of a server's `http.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HttpStatsSnapshot {
    pub connections: u64,
    pub accept_rejected: u64,
    pub requests: u64,
    pub keepalive_reuses: u64,
    pub responses_2xx: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
    pub parse_errors: u64,
    pub timeouts: u64,
    pub write_errors: u64,
}

impl HttpStatsSnapshot {
    /// The `"http"` section of `/v1/stats`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"connections\": {}, \"accept_rejected\": {}, \"requests\": {}, \"keepalive_reuses\": {}, \"responses_2xx\": {}, \"responses_4xx\": {}, \"responses_5xx\": {}, \"parse_errors\": {}, \"timeouts\": {}, \"write_errors\": {}}}",
            self.connections,
            self.accept_rejected,
            self.requests,
            self.keepalive_reuses,
            self.responses_2xx,
            self.responses_4xx,
            self.responses_5xx,
            self.parse_errors,
            self.timeouts,
            self.write_errors,
        )
    }
}

/// Everything [`HttpServer::shutdown`] learned while draining.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Final serve-layer counters (all engines, drained).
    pub serve: StatsSnapshot,
    /// Final transport-layer counters.
    pub http: HttpStatsSnapshot,
    /// Connection workers that panicked (the invariant: always zero).
    pub worker_panics: usize,
}

/// The HTTP/1.1 server fronting a [`ForecastService`].
#[derive(Debug)]
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<BoundedQueue<TcpStream>>,
    workers: WorkerPool,
    service: Option<Arc<ForecastService>>,
    worker_panics: usize,
}

impl HttpServer {
    /// Binds, spawns the accept thread and the connection workers, and
    /// starts serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn start(service: ForecastService, config: ServerConfig) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::named(
            config.conn_backlog.max(1),
            "http_conns",
        ));
        let service = Arc::new(service);

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("http-accept".to_string())
                .spawn(move || accept_loop(&listener, &shutdown, &conns, service.http_stats()))?
        };

        let workers = WorkerPool::spawn("http", config.workers.max(1), |_| {
            let conns = Arc::clone(&conns);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            move || {
                let stats = service.http_stats();
                while let Some(stream) = conns.pop() {
                    let _span = pop_obs::span!("http_conn");
                    stats.active.add(1.0);
                    handle_connection(stream, &service, &config, stats, &shutdown);
                    stats.active.add(-1.0);
                }
            }
        });

        Ok(HttpServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conns,
            workers,
            service: Some(service),
            worker_panics: 0,
        })
    }

    /// The bound address (the ephemeral port when configured with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live transport counters.
    pub fn http_stats(&self) -> HttpStatsSnapshot {
        match &self.service {
            Some(service) => service.http_stats().snapshot(),
            None => HttpStatsSnapshot::default(),
        }
    }

    /// Live serve-layer counters.
    pub fn serve_stats(&self) -> StatsSnapshot {
        match &self.service {
            Some(service) => service.stats(),
            None => pop_serve::ServeStats::default().snapshot(),
        }
    }

    /// Graceful drain: stop accepting, serve every in-flight request,
    /// join every thread, shut the engines down, report what happened.
    pub fn shutdown(mut self) -> DrainReport {
        self.close_and_join();
        let http = self.http_stats();
        let serve = match self.service.take().map(Arc::try_unwrap) {
            // All worker clones are gone after the join, so this is the
            // expected path: drain the engines and take final counters.
            Some(Ok(service)) => service.shutdown(),
            Some(Err(service)) => service.stats(),
            None => pop_serve::ServeStats::default().snapshot(),
        };
        DrainReport {
            serve,
            http,
            worker_panics: self.worker_panics,
        }
    }

    fn close_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway self-connection; the
        // accept loop sees the flag and exits before queueing it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.conns.close();
        self.worker_panics += self.workers.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    conns: &BoundedQueue<TcpStream>,
    stats: &HttpStats,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return; // the wake-up self-connection, or a late arrival
        }
        stats.connections.inc();
        match conns.try_push(stream) {
            Ok(()) => {}
            Err(PushError::Full(mut stream)) => {
                // Admission control at the door: answer 503 without
                // committing a worker, so overload degrades predictably.
                stats.accept_rejected.inc();
                let _ = Response::error(503, "connection backlog full")
                    .header("Retry-After", "1")
                    .write_to(&mut stream, false);
            }
            Err(PushError::Closed(_)) => return,
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    service: &ForecastService,
    config: &ServerConfig,
    stats: &HttpStats,
    shutdown: &AtomicBool,
) {
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
    {
        return;
    }
    // Answers must leave now, not after a Nagle coalescing window: a
    // keep-alive request/response exchange never benefits from delay.
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new(config.limits.clone());
    let mut served = 0usize;
    loop {
        // Drain every complete buffered request (pipelining) before the
        // next socket read.
        loop {
            match parser.poll() {
                Ok(Some(req)) => {
                    let _span = pop_obs::span!("http_request");
                    let started = Instant::now();
                    stats.requests.inc();
                    if served > 0 {
                        stats.keepalive_reuses.inc();
                    }
                    let response = service.handle(&req);
                    if response.status() == 429 {
                        stats.queue_full.inc();
                    }
                    served += 1;
                    let keep_alive = req.keep_alive
                        && served < config.max_requests_per_conn
                        && !shutdown.load(Ordering::SeqCst);
                    stats.record_status(response.status());
                    stats.request_us.record_duration(started.elapsed());
                    if response.write_to(&mut stream, keep_alive).is_err() {
                        // Peer went away mid-response: drop the
                        // connection, never the worker.
                        stats.write_errors.inc();
                        return;
                    }
                    if !keep_alive {
                        return;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    stats.parse_errors.inc();
                    stats.record_status(err.status());
                    let _ =
                        Response::error(err.status(), &err.reason()).write_to(&mut stream, false);
                    return;
                }
            }
        }
        if shutdown.load(Ordering::SeqCst) && parser.buffered() == 0 {
            return; // drained: no partial request in flight
        }
        match parser.read_from(&mut stream) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                stats.timeouts.inc();
                if parser.buffered() > 0 {
                    // A slow-trickling (slowloris-style) request hit the
                    // read deadline mid-head: answer and hang up.
                    stats.record_status(408);
                    let _ = Response::error(408, "request timed out").write_to(&mut stream, false);
                }
                return;
            }
            Err(_) => return, // reset / aborted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workers opening and closing connections together must leave the
    /// gauge at exactly zero: each edge is one `Gauge::add`, never a
    /// `load` + `set` pair that another worker's edge can fall between.
    #[test]
    fn active_connections_gauge_ends_at_zero_after_concurrent_open_close() {
        let registry = Registry::new();
        let stats = HttpStats::resolve(&registry);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        stats.active.add(1.0);
                        stats.active.add(-1.0);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("http.connections.active"), Some(0.0));
    }
}
