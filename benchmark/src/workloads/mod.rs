//! The four workloads; each runs in its own process.

pub mod corpus_cold;
pub mod explore;
pub mod serve_http;
pub mod train_warm;
