//! `pop-exec` — the workspace's shared concurrency substrate.
//!
//! Two production subsystems move work between threads: the forecast
//! serving engine (`pop-serve`) and the dataset-generation pipeline
//! (`pop-pipeline`). Both are built from the same two primitives, extracted
//! here so there is exactly one queue/pool implementation to reason about:
//!
//! * [`BoundedQueue`] — a bounded multi-producer / multi-consumer queue
//!   with blocking and non-blocking enqueue (backpressure), a blocking
//!   [`pop`](BoundedQueue::pop), and the batch-coalescing
//!   [`pop_batch_by`](BoundedQueue::pop_batch_by) the serving engine's
//!   batcher is made of: it takes what is already queued and never holds
//!   an item back to wait for more. [`close`](BoundedQueue::close) stops
//!   intake while letting consumers drain — the graceful-shutdown protocol.
//! * [`WorkerPool`] — a handful of named `std::thread` workers joined on
//!   drop, so a stage cannot leak threads past its owner.
//!
//! The idiom shared by both users: producers `push` (or `try_push` and
//! treat [`PushError::Full`] as backpressure), each worker loops on a
//! blocking pop until the queue is closed *and* drained, and the owner
//! closes the queue then joins the pool.
//!
//! A third user, the region-parallel annealer in `pop-place`, needs the
//! same named-worker idiom but over *borrowed* state (architecture,
//! netlist, placement snapshots on the caller's stack); [`run_scoped`]
//! provides it via `std::thread::scope`, and [`ParkingPool`] provides the
//! persistent park/unpark variant for fan-outs dispatched thousands of
//! times per run (spawn once, park between rounds).
//!
//! A fourth, the trainer (`pop-nn`'s convolution backward and Adam pass,
//! `pop-core`'s train step), has places where a step falls into two
//! independent halves; [`join`] runs one of them on a process-wide
//! one-worker [`ParkingPool`] while the caller runs the other, and runs
//! both on the caller when that helper is absent (one core) or busy — a
//! caller-participating round of the same pool, not another pool type.

mod parked;
mod pool;
mod queue;
mod scoped;

pub use parked::{join, ParkingPool};
pub use pool::WorkerPool;
pub use queue::{BoundedQueue, PushError};
pub use scoped::{run_scoped, scoped_map};
