//! `pop-http` — a zero-dependency HTTP/1.1 front end for the forecast
//! serving engine.
//!
//! The paper's §5.4 realtime application assumes the congestion
//! forecaster is callable as a service during physical design; the
//! ROADMAP north star is a production-scale deployment of exactly that.
//! This crate promotes [`pop_serve::ForecastEngine`] from an in-process
//! library to a network-facing system, built entirely on `std::net` plus
//! the workspace's own substrate:
//!
//! * [`RequestParser`] — an incremental, bounded HTTP/1.1 request parser
//!   ([`ParserLimits`]: head size, header count, body size), hardened by
//!   property tests over arbitrary byte fragments: it never panics, and
//!   every malformed input maps to a typed [`ParseError`] with a status.
//! * [`ForecastService`] — named models (each an engine whose workers
//!   share one inference plan, plus an optional i8 quantized sibling)
//!   behind a pure
//!   `Request -> Response` router:
//!
//!   | Route | Answers |
//!   |---|---|
//!   | `POST /v1/forecast` | a forecast (body selects model + precision) |
//!   | `POST /v1/models/<name>/forecast` | per-scenario endpoint sugar |
//!   | `GET /v1/models` | registered models + per-model counters |
//!   | `GET /v1/stats` | serve + transport counters, obs metrics dump |
//!   | `GET /healthz` | liveness |
//!
//! * [`HttpServer`] — accept thread → bounded connection queue →
//!   [`pop_exec::WorkerPool`] connection workers, with read/write
//!   deadlines (slowloris defense), keep-alive, admission control at two
//!   layers (`503` when the connection backlog is full, `429` +
//!   `Retry-After` when an engine queue is — the
//!   [`try_submit`](pop_serve::ForecastClient::try_submit) backpressure
//!   path), and graceful drain ([`HttpServer::shutdown`] →
//!   [`DrainReport`]).
//! * [`HttpClient`] — the blocking keep-alive client the fault-injection
//!   tests and the closed-loop load bench drive the server with.
//!
//! Floats cross the wire bitwise-exactly (shortest-repr decimals, see
//! [`api`]), so an HTTP forecast equals the in-process one — pinned by
//! `tests/http_golden.rs`.

pub mod api;
mod client;
mod parser;
mod response;
mod server;
mod service;

pub use client::{read_response, ClientResponse, HttpClient};
pub use parser::{ParseError, ParserLimits, Request, RequestParser};
pub use response::{reason_phrase, Response};
pub use server::{DrainReport, HttpServer, HttpStatsSnapshot, ServerConfig};
pub use service::{ForecastService, ServiceBuilder};
