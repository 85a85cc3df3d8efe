//! The bounded MPMC request queue at the heart of the micro-batcher.
//!
//! Since the concurrency substrate moved to `pop-exec`, this module is a
//! thin domain adapter: it pins the generic [`BoundedQueue`] to
//! [`Request`] items, maps [`PushError`] onto [`ServeError`]s, and keys
//! batch coalescing by input tensor shape so one popped batch can be
//! stacked into a single `[N, C, H, W]` forward pass.
//!
//! Producers are [`ForecastClient`](crate::ForecastClient)s — `try_push`
//! bounces with [`ServeError::QueueFull`] (backpressure), `push` blocks for
//! space. Consumers are engine workers calling [`RequestQueue::pop_batch`],
//! which takes the oldest request plus up to `max_batch - 1`
//! *shape-compatible* requests that are already queued, and never holds a
//! request back to wait for more.

use crate::error::ServeError;
use pop_exec::{BoundedQueue, PushError};
use pop_nn::Tensor;
use std::sync::mpsc;
use std::time::Instant;

/// One in-flight forecast request.
#[derive(Debug)]
pub(crate) struct Request {
    /// The `[1, C, H, W]` input features.
    pub input: Tensor,
    /// When the request entered the queue (latency accounting).
    pub enqueued: Instant,
    /// Where the worker sends the painted heat map.
    pub respond: mpsc::Sender<Result<Tensor, ServeError>>,
}

fn serve_error(e: PushError<Request>) -> ServeError {
    match e {
        PushError::Full(_) => ServeError::QueueFull,
        PushError::Closed(_) => ServeError::ShuttingDown,
    }
}

/// Bounded multi-producer / multi-consumer queue with batch-coalescing pop,
/// backed by [`pop_exec::BoundedQueue`].
#[derive(Debug)]
pub(crate) struct RequestQueue {
    inner: BoundedQueue<Request>,
}

impl RequestQueue {
    pub fn new(capacity: usize) -> Self {
        RequestQueue {
            inner: BoundedQueue::new(capacity),
        }
    }

    /// Non-blocking enqueue: the backpressure path.
    pub fn try_push(&self, req: Request) -> Result<(), ServeError> {
        self.inner.try_push(req).map_err(serve_error)
    }

    /// Blocking enqueue: waits for queue space (or shutdown).
    pub fn push(&self, req: Request) -> Result<(), ServeError> {
        self.inner.push(req).map_err(serve_error)
    }

    /// Dequeues the next batch: the oldest request plus up to
    /// `max_batch - 1` further requests already queued with the same input
    /// shape. Requests with other shapes stay queued in order for a later
    /// batch.
    ///
    /// Returns `None` once the queue is closed *and* drained — the worker
    /// shutdown signal.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<Request>> {
        self.inner.pop_batch_by(max_batch, |r| r.input.shape())
    }

    /// Stops accepting new requests and wakes every waiter; queued requests
    /// remain poppable so workers drain gracefully.
    pub fn close(&self) {
        self.inner.close();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Accepting requests and holding none: no backlog for a batch to
    /// form from, so a caller that can run its own forecast loses nothing
    /// by skipping the queue.
    pub fn is_open_and_empty(&self) -> bool {
        self.inner.is_open_and_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn req(shape: [usize; 4]) -> (Request, mpsc::Receiver<Result<Tensor, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        (
            Request {
                input: Tensor::zeros(shape),
                enqueued: Instant::now(),
                respond: tx,
            },
            rx,
        )
    }

    #[test]
    fn try_push_bounces_when_saturated() {
        let q = RequestQueue::new(2);
        let (a, _ra) = req([1, 2, 4, 4]);
        let (b, _rb) = req([1, 2, 4, 4]);
        let (c, _rc) = req([1, 2, 4, 4]);
        q.try_push(a).unwrap();
        q.try_push(b).unwrap();
        assert_eq!(q.try_push(c).unwrap_err(), ServeError::QueueFull);
        assert_eq!(q.len(), 2);
        // Space frees after a pop.
        let batch = q.pop_batch(1).unwrap();
        assert_eq!(batch.len(), 1);
        let (d, _rd) = req([1, 2, 4, 4]);
        q.try_push(d).unwrap();
    }

    #[test]
    fn pop_batch_coalesces_available_requests() {
        let q = RequestQueue::new(8);
        for _ in 0..5 {
            let (r, _rx) = req([1, 2, 4, 4]);
            q.try_push(r).unwrap();
        }
        let batch = q.pop_batch(4).unwrap();
        assert_eq!(batch.len(), 4);
        let rest = q.pop_batch(4).unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn pop_batch_keeps_mismatched_shapes_for_later() {
        let q = RequestQueue::new(8);
        let (a, _ra) = req([1, 2, 4, 4]);
        let (b, _rb) = req([1, 2, 8, 8]);
        let (c, _rc) = req([1, 2, 4, 4]);
        q.try_push(a).unwrap();
        q.try_push(b).unwrap();
        q.try_push(c).unwrap();
        // First batch: the two 4x4 requests, coalesced around the front.
        let batch = q.pop_batch(4).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|r| r.input.shape() == [1, 2, 4, 4]));
        // The 8x8 request is still queued, in order.
        let batch = q.pop_batch(4).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].input.shape(), [1, 2, 8, 8]);
    }

    #[test]
    fn pop_batch_returns_a_lone_request_without_waiting() {
        // Single-threaded on purpose: nothing can push a straggler or close
        // the queue, so a pop that waited for either would never return.
        let q = RequestQueue::new(8);
        let (a, _ra) = req([1, 1, 4, 4]);
        q.try_push(a).unwrap();
        assert_eq!(q.pop_batch(8).unwrap().len(), 1);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_drains_then_signals_shutdown() {
        let q = RequestQueue::new(4);
        let (a, _ra) = req([1, 1, 4, 4]);
        q.try_push(a).unwrap();
        q.close();
        let (b, _rb) = req([1, 1, 4, 4]);
        assert_eq!(q.try_push(b).unwrap_err(), ServeError::ShuttingDown);
        // The queued request is still served...
        assert_eq!(q.pop_batch(4).unwrap().len(), 1);
        // ...and only then do consumers see shutdown.
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(RequestQueue::new(1));
        let (a, _ra) = req([1, 1, 4, 4]);
        q.try_push(a).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let (b, rx) = req([1, 1, 4, 4]);
                q.push(b).unwrap();
                rx
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        // The pusher is blocked; free a slot and it completes.
        let _ = q.pop_batch(1).unwrap();
        let _rx = pusher.join().unwrap();
        assert_eq!(q.len(), 1);
    }
}
