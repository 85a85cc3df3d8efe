//! The rule engines. `unsafe_audit` and `names` walk one
//! [`crate::context::FileCx`]; `determinism`, `panic_path`, `blocking`
//! and `locks` read the [`crate::graph::CallGraph`] built in
//! [`crate::lint_files`] once every file is scanned — the first three as
//! reachability analyses, `locks` from the per-fn lock facts and the
//! held locks at each call.

pub mod blocking;
pub mod determinism;
pub mod locks;
pub mod names;
pub mod panic_path;
pub mod unsafe_audit;
