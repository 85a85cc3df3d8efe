//! `pop-exec` — the workspace's shared concurrency substrate: one queue
//! and three ways to put work on another thread, each kept because the
//! others cannot do its job.
//!
//! * [`BoundedQueue`] — a bounded multi-producer / multi-consumer queue
//!   with blocking and non-blocking enqueue (backpressure), a blocking
//!   [`pop`](BoundedQueue::pop), and the batch-coalescing
//!   [`pop_batch_by`](BoundedQueue::pop_batch_by) the serving engine's
//!   batcher is made of: it takes what is already queued and never holds
//!   an item back to wait for more. [`close`](BoundedQueue::close) stops
//!   intake while letting consumers drain — the graceful-shutdown protocol.
//! * [`WorkerPool`] — *owned* state, *long-lived* workers: a handful of
//!   named `std::thread`s running `'static` closures, joined on drop, so a
//!   stage (`pop-serve`'s replicas, `pop-http`'s connection workers,
//!   `pop-pipeline`'s generation workers) cannot leak threads past its
//!   owner.
//! * [`scoped_map`] — *borrowed* state, *spawn per call*: maps a slice on
//!   `std::thread::scope` workers, results in item order. For cells that
//!   run for seconds (`pop-eval`'s train-and-score matrix), where a spawn
//!   is free and a `'static` bound would force every cell to clone its
//!   inputs.
//! * [`join`] — *borrowed* state, *parked* helper, two halves: runs one
//!   closure on a process-wide helper thread while the caller runs the
//!   other, and both on the caller when the helper is absent (one core) or
//!   busy. For forks microseconds apart (`pop-nn`'s convolution backward
//!   and Adam pass, `pop-core`'s train step: ≈ 25 per step), where a spawn
//!   per fork would cost more than the fork saves.
//!
//! The idiom shared by the queue's users: producers `push` (or `try_push`
//! and treat [`PushError::Full`] as backpressure), each worker loops on a
//! blocking pop until the queue is closed *and* drained, and the owner
//! closes the queue then joins the pool.

mod parked;
mod pool;
mod queue;
mod scoped;

pub use parked::join;
pub use pool::WorkerPool;
pub use queue::{BoundedQueue, PushError};
pub use scoped::scoped_map;
