//! The bounded MPMC queue shared by the serving engine (requests) and the
//! HTTP front end (accepted connections).
//!
//! Producers use [`BoundedQueue::try_push`] (bounces with
//! [`PushError::Full`] — backpressure) or [`BoundedQueue::push`] (blocks
//! for space). Consumers use the blocking [`BoundedQueue::pop`] for plain
//! work distribution, or [`BoundedQueue::pop_batch_by`] to take the oldest
//! item together with up to `max_batch - 1` key-compatible items that are
//! already queued — the serving engine's batcher. Neither pop ever waits
//! while it holds an item: a batch is whatever backed up while the
//! consumers were busy, never something a consumer slept for.

use pop_obs::{Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Why an enqueue was refused. The rejected item is handed back so the
/// caller can retry, reroute or drop it explicitly.
pub enum PushError<T> {
    /// The queue is at capacity (only [`BoundedQueue::try_push`] returns
    /// this — the backpressure signal).
    Full(T),
    /// The queue was [`close`](BoundedQueue::close)d and accepts no new
    /// items.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }

    /// True for the capacity-pressure variant.
    pub fn is_full(&self) -> bool {
        matches!(self, PushError::Full(_))
    }
}

impl<T> fmt::Debug for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full(_) => write!(f, "PushError::Full(..)"),
            PushError::Closed(_) => write!(f, "PushError::Closed(..)"),
        }
    }
}

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full(_) => write!(f, "queue is full"),
            PushError::Closed(_) => write!(f, "queue is closed"),
        }
    }
}

#[derive(Debug)]
struct QueueState<T> {
    deque: VecDeque<T>,
    closed: bool,
}

/// Telemetry handles for a [`BoundedQueue::named`] queue, registered in
/// the global [`pop_obs`] registry under `exec.queue.<name>.*`: the
/// current `depth` gauge, counters of pushes/pops that had to block, and
/// a histogram of how long consumers sat idle in a blocking pop.
#[derive(Debug)]
struct QueueMetrics {
    depth: Arc<Gauge>,
    push_waits: Arc<Counter>,
    pop_waits: Arc<Counter>,
    pop_wait_us: Arc<Histogram>,
}

impl QueueMetrics {
    fn register(name: &str) -> QueueMetrics {
        let registry = pop_obs::global();
        QueueMetrics {
            depth: registry.gauge(&format!("exec.queue.{name}.depth")),
            push_waits: registry.counter(&format!("exec.queue.{name}.push_waits")),
            pop_waits: registry.counter(&format!("exec.queue.{name}.pop_waits")),
            pop_wait_us: registry.histogram(&format!("exec.queue.{name}.pop_wait_us")),
        }
    }
}

/// Bounded multi-producer / multi-consumer queue with graceful shutdown
/// and an optional batch-coalescing pop.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    metrics: Option<QueueMetrics>,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            capacity,
            state: Mutex::new(QueueState {
                deque: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            metrics: None,
        }
    }

    /// Like [`BoundedQueue::new`], but wired into the global observability
    /// registry: publishes an `exec.queue.<name>.depth` gauge, counters of
    /// blocked pushes/pops, and a `pop_wait_us` idle-time histogram.
    pub fn named(capacity: usize, name: &str) -> Self {
        let mut q = BoundedQueue::new(capacity);
        q.metrics = Some(QueueMetrics::register(name));
        q
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // A panic while holding the lock poisons it; the queue state is a
        // plain deque + flags (valid after any panic point), so recover
        // rather than cascading the panic into every producer/consumer.
        // lint: allow(blocking) — the queue mutex IS the rendezvous; every
        // critical section is a few deque ops, never a forward pass.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    fn note_depth(&self, depth: usize) {
        if let Some(m) = &self.metrics {
            m.depth.set(depth as f64);
        }
    }

    /// Non-blocking enqueue: the backpressure path.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; the item rides back in the error.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.deque.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.deque.push_back(item);
        self.note_depth(st.deque.len());
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking enqueue: waits for queue space (or shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] when the queue shuts down before (or
    /// while) waiting for space.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        // lint: allow(blocking) — bounded-queue backpressure: producers
        // park here by design until a consumer frees a slot.
        let mut st = self.lock();
        let mut waited = false;
        while !st.closed && st.deque.len() >= self.capacity {
            waited = true;
            // lint: allow(blocking) — the backpressure wait itself.
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if waited {
            if let Some(m) = &self.metrics {
                m.push_waits.inc();
            }
        }
        if st.closed {
            return Err(PushError::Closed(item));
        }
        st.deque.push_back(item);
        self.note_depth(st.deque.len());
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking dequeue of one item; `None` once the queue is closed *and*
    /// drained — the worker shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        let mut wait_start: Option<Instant> = None;
        loop {
            if let Some(item) = st.deque.pop_front() {
                self.note_depth(st.deque.len());
                drop(st);
                if let (Some(m), Some(start)) = (&self.metrics, wait_start) {
                    m.pop_waits.inc();
                    m.pop_wait_us.record_duration(start.elapsed());
                }
                self.not_full.notify_all();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            if self.metrics.is_some() {
                wait_start.get_or_insert_with(Instant::now);
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeues the next batch: the oldest item plus up to `max_batch - 1`
    /// further items *already queued* whose `key` equals the first item's.
    /// Blocks only while the queue is empty; once it holds an item it
    /// returns without waiting for more (work-conserving: batches grow
    /// when consumers are busy and the queue backs up, which is exactly
    /// when a fuller batch pays). Items with other keys stay queued in
    /// order for a later batch.
    ///
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop_batch_by<K, F>(&self, max_batch: usize, key: F) -> Option<Vec<T>>
    where
        K: PartialEq,
        F: Fn(&T) -> K,
    {
        let max_batch = max_batch.max(1);
        // lint: allow(blocking) — the consumer rendezvous: workers park
        // here between batches; this is the loop's sanctioned wait point.
        let mut st = self.lock();
        let mut wait_start: Option<Instant> = None;
        loop {
            if let Some(first) = st.deque.pop_front() {
                if let (Some(m), Some(start)) = (&self.metrics, wait_start) {
                    m.pop_waits.inc();
                    m.pop_wait_us.record_duration(start.elapsed());
                }
                let batch_key = key(&first);
                let mut batch = vec![first];
                let mut i = 0;
                while batch.len() < max_batch && i < st.deque.len() {
                    if st.deque.get(i).is_some_and(|it| key(it) == batch_key) {
                        // `remove` preserves FIFO order of the rest.
                        match st.deque.remove(i) {
                            Some(item) => batch.push(item),
                            None => break,
                        }
                    } else {
                        i += 1;
                    }
                }
                // Items this batch could not take (other keys, or past
                // `max_batch`) may remain, and the wake-up that announced
                // them may have been ours: pass it on to an idle consumer.
                let leftover = !st.deque.is_empty();
                self.note_depth(st.deque.len());
                drop(st);
                if leftover {
                    self.not_empty.notify_one();
                }
                // Freed capacity: wake blocked producers.
                self.not_full.notify_all();
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            if self.metrics.is_some() {
                wait_start.get_or_insert_with(Instant::now);
            }
            // lint: allow(blocking) — idle consumers park until work (or
            // shutdown) arrives; waking them is the producers' job.
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting new items and wakes every waiter; queued items
    /// remain poppable so consumers drain gracefully.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// True while the queue accepts items and holds none, read under one
    /// lock: what a producer able to do an item's work itself asks before
    /// it decides to skip the hand-off.
    pub fn is_open_and_empty(&self) -> bool {
        let st = self.lock();
        !st.closed && st.deque.is_empty()
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        // lint: allow(blocking) — depth probe; same few-op critical
        // section as every other queue-mutex acquisition.
        self.lock().deque.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn try_push_bounces_when_saturated_and_frees_after_pop() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let err = q.try_push(3).unwrap_err();
        assert!(err.is_full());
        assert_eq!(err.into_inner(), 3);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_drains_in_fifo_order_then_signals_shutdown() {
        let q = BoundedQueue::new(4);
        assert!(q.is_open_and_empty());
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert!(!q.is_open_and_empty(), "open, not empty");
        q.close();
        assert!(matches!(q.try_push(9), Err(PushError::Closed(9))));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(!q.is_open_and_empty(), "empty, not open");
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1u32).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2).unwrap())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        pusher.join().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn push_returns_closed_while_waiting() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1u32).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(pusher.join().unwrap(), Err(PushError::Closed(2))));
    }

    #[test]
    fn pop_batch_by_coalesces_matching_keys() {
        let q = BoundedQueue::new(8);
        for item in [4usize, 4, 8, 4, 8] {
            q.try_push(item).unwrap();
        }
        // First batch: the three 4s, coalesced around the front.
        let batch = q.pop_batch_by(4, |&v| v).unwrap();
        assert_eq!(batch, vec![4, 4, 4]);
        // The 8s are still queued, in order.
        let batch = q.pop_batch_by(4, |&v| v).unwrap();
        assert_eq!(batch, vec![8, 8]);
        q.close();
        assert!(q.pop_batch_by(4, |&v| v).is_none());
    }

    #[test]
    fn pop_batch_by_respects_max_batch() {
        let q = BoundedQueue::new(8);
        for _ in 0..5 {
            q.try_push(7u8).unwrap();
        }
        assert_eq!(q.pop_batch_by(4, |&v| v).unwrap().len(), 4);
        assert_eq!(q.pop_batch_by(4, |&v| v).unwrap().len(), 1);
    }

    #[test]
    fn pop_batch_by_returns_a_lone_item_without_waiting() {
        // No second thread exists to push a straggler or close the queue:
        // a pop that waited for either would hang this test.
        let q = BoundedQueue::new(8);
        q.try_push(1u32).unwrap();
        assert_eq!(q.pop_batch_by(8, |&v| v), Some(vec![1]));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_by_leaves_mismatched_keys_for_another_consumer() {
        let q = Arc::new(BoundedQueue::new(8));
        let idle = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch_by(4, |&v| v))
        };
        q.try_push(4usize).unwrap();
        q.try_push(8).unwrap();
        // Whichever consumer gets the lock first takes the 4 alone; the 8
        // stays queued (and is re-announced) for the other one.
        let mine = q.pop_batch_by(4, |&v| v).unwrap();
        let theirs = idle.join().unwrap().unwrap();
        assert_eq!((mine.len(), theirs.len()), (1, 1));
        let mut both = [mine[0], theirs[0]];
        both.sort_unstable();
        assert_eq!(both, [4, 8]);
    }

    #[test]
    fn named_queue_publishes_depth_and_wait_metrics() {
        let q = Arc::new(BoundedQueue::named(1, "unit-metrics"));
        q.push(1u32).unwrap();
        let snap = pop_obs::global().snapshot();
        assert_eq!(snap.gauge("exec.queue.unit-metrics.depth"), Some(1.0));

        // A blocked push and a blocked pop both count as waits.
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2).unwrap())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        pusher.join().unwrap();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        assert_eq!(q.pop(), Some(2));
        std::thread::sleep(Duration::from_millis(20));
        q.push(3).unwrap();
        assert_eq!(popper.join().unwrap(), Some(3));

        let snap = pop_obs::global().snapshot();
        assert_eq!(snap.gauge("exec.queue.unit-metrics.depth"), Some(0.0));
        assert!(snap.counter("exec.queue.unit-metrics.push_waits").unwrap() >= 1);
        assert!(snap.counter("exec.queue.unit-metrics.pop_waits").unwrap() >= 1);
        let waits = snap
            .histogram("exec.queue.unit-metrics.pop_wait_us")
            .unwrap();
        assert!(waits.count >= 1);
        assert!(
            waits.max >= 10_000,
            "popper idled >= 10ms, saw {}",
            waits.max
        );
    }

    #[test]
    fn concurrent_producers_and_consumers_move_every_item() {
        let q = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..20u64 {
                        q.push(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut want: Vec<u64> = (0..3)
            .flat_map(|p| (0..20).map(move |i| p * 100 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }
}
