//! The tracing half of the substrate: `span!` guards captured into
//! per-thread ring buffers, aggregated into a parent/child tree with
//! self-time vs child-time attribution — a poor man's flamegraph.
//!
//! Capture is off by default: the global subscriber is a no-op and an
//! inactive [`span!`](macro@crate::span) costs one relaxed atomic load and
//! one branch. [`enable`] turns capture on; each thread then appends finished
//! spans to its own bounded buffer (registered globally on first use), and
//! [`drain`] collects every thread's records for aggregation. Buffers are
//! rings in the back-pressure sense: past [`ring_capacity`] records a
//! thread stops recording and counts drops instead of growing without
//! bound — earlier records (whose parents are complete) are kept.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on records buffered per thread before drops are counted.
const RING_CAPACITY: usize = 1 << 16;

/// Records buffered per thread before further spans are dropped (counted,
/// not silently lost — [`SpanSet::dropped`] reports the total).
pub fn ring_capacity() -> usize {
    RING_CAPACITY
}

/// One finished span, as captured on its thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (`"route_stage"`).
    pub name: &'static str,
    /// Rendered `key=value` fields, empty when none were given.
    pub detail: String,
    /// Span id, unique within one capture session.
    pub id: u64,
    /// Enclosing span's id on the same thread; `0` for thread roots.
    pub parent: u64,
    /// Start offset from the capture epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the capture epoch, nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall-clock duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread capture state: the buffered records plus the open-span stack.
struct ThreadBuffer {
    records: Vec<SpanRecord>,
    dropped: u64,
}

/// Shared handle onto one thread's buffer, registered globally so `drain`
/// can reach buffers of threads that have since exited.
type SharedBuffer = Arc<Mutex<ThreadBuffer>>;

struct Subscriber {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicUsize,
    buffers: Mutex<Vec<SharedBuffer>>,
}

fn subscriber() -> &'static Subscriber {
    static SUBSCRIBER: OnceLock<Subscriber> = OnceLock::new();
    SUBSCRIBER.get_or_init(|| Subscriber {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicUsize::new(0),
        buffers: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static LOCAL: RefCell<Option<(SharedBuffer, Vec<u64>)>> = const { RefCell::new(None) };
}

/// Whether span capture is on. The one branch a disabled `span!` pays.
#[inline]
pub fn enabled() -> bool {
    subscriber().enabled.load(Ordering::Relaxed)
}

/// Turns span capture on (idempotent).
pub fn enable() {
    subscriber().enabled.store(true, Ordering::Relaxed);
}

/// Turns span capture off. Already-open spans still record on drop.
pub fn disable() {
    subscriber().enabled.store(false, Ordering::Relaxed);
}

/// Collects (and clears) every thread's captured spans.
pub fn drain() -> SpanSet {
    let sub = subscriber();
    let buffers = sub.buffers.lock().expect("span buffer registry");
    let mut records = Vec::new();
    let mut dropped = 0u64;
    for buf in buffers.iter() {
        let mut buf = buf.lock().expect("span buffer");
        records.append(&mut buf.records);
        dropped += std::mem::take(&mut buf.dropped);
    }
    records.sort_by_key(|r| (r.start_ns, r.id));
    SpanSet { records, dropped }
}

/// An RAII span: created by the [`span!`](macro@crate::span) macro, records
/// its `(name, detail, parent, start, end)` into the thread's buffer on drop.
/// Inactive guards (capture disabled at entry) do nothing.
#[derive(Debug)]
#[must_use = "a span guard measures the scope it lives in"]
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    detail: String,
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl SpanGuard {
    /// Opens a span. `detail_fn` is only invoked when capture is enabled,
    /// so field rendering costs nothing on the disabled path.
    #[inline]
    pub fn enter(name: &'static str, detail_fn: impl FnOnce() -> String) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                active: false,
                name,
                detail: String::new(),
                id: 0,
                parent: 0,
                start_ns: 0,
            };
        }
        let sub = subscriber();
        let id = sub.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let (_, stack) = local.get_or_insert_with(new_thread_state);
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        });
        SpanGuard {
            active: true,
            name,
            detail: detail_fn(),
            id,
            parent,
            start_ns: sub.epoch.elapsed().as_nanos() as u64,
        }
    }
}

fn new_thread_state() -> (SharedBuffer, Vec<u64>) {
    let sub = subscriber();
    sub.next_thread.fetch_add(1, Ordering::Relaxed);
    let buffer: SharedBuffer = Arc::new(Mutex::new(ThreadBuffer {
        records: Vec::new(),
        dropped: 0,
    }));
    sub.buffers
        .lock()
        .expect("span buffer registry")
        .push(Arc::clone(&buffer));
    (buffer, Vec::new())
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = subscriber().epoch.elapsed().as_nanos() as u64;
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let (buffer, stack) = local.get_or_insert_with(new_thread_state);
            // Guards drop in LIFO order within a thread, but be tolerant of
            // a guard outliving its scope (moved into a struct): remove by
            // id wherever it is.
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
            let mut buf = buffer.lock().expect("span buffer");
            if buf.records.len() >= RING_CAPACITY {
                buf.dropped += 1;
                return;
            }
            buf.records.push(SpanRecord {
                name: self.name,
                detail: std::mem::take(&mut self.detail),
                id: self.id,
                parent: self.parent,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Opens a [`SpanGuard`] measuring the enclosing scope. The first argument
/// is a static span name; optional `key = value` fields are rendered into
/// the span's detail string **only when capture is enabled**.
///
/// ```
/// let _guard = pop_obs::span!("route_stage", job = 3usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, String::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter($name, || {
            format!(
                concat!($(concat!(stringify!($key), "={} ")),+),
                $($value),+
            )
            .trim_end()
            .to_string()
        })
    };
}

/// Every span captured between [`enable`] and [`drain`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSet {
    /// Captured spans, sorted by start time.
    pub records: Vec<SpanRecord>,
    /// Spans dropped because a thread's ring was full.
    pub dropped: u64,
}

impl SpanSet {
    /// Aggregates the raw records into the parent/child span tree.
    pub fn tree(&self) -> Vec<SpanNode> {
        build_tree(&self.records)
    }
}

/// One aggregated node of the span tree: every captured span with the same
/// name under the same parent path, with self-time vs child-time split out.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Spans aggregated into this node.
    pub count: u64,
    /// Total wall time across those spans, nanoseconds.
    pub total_ns: u64,
    /// Wall time spent in *direct children*, nanoseconds.
    pub child_ns: u64,
    /// Children, ordered by first appearance.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time attributed to this node's own code: total minus children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Depth-first search for a descendant (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Depth-first lookup of `name` anywhere in a forest.
pub fn find_span<'a>(forest: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
    forest.iter().find_map(|n| n.find(name))
}

/// Builds the aggregated tree: records are grouped by their chain of
/// ancestor *names* (so two `route_stage` spans under different `prep`
/// spans aggregate into one node), keeping first-appearance order.
fn build_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    #[derive(Default)]
    struct Agg {
        count: u64,
        total_ns: u64,
        child_ns: u64,
        children: Vec<(String, Agg)>,
    }
    impl Agg {
        fn child(&mut self, name: &str) -> &mut Agg {
            if let Some(pos) = self.children.iter().position(|(n, _)| n == name) {
                &mut self.children[pos].1
            } else {
                self.children.push((name.to_string(), Agg::default()));
                &mut self.children.last_mut().expect("just pushed").1
            }
        }
        fn into_nodes(self) -> Vec<SpanNode> {
            self.children
                .into_iter()
                .map(|(name, agg)| {
                    let (count, total_ns, child_ns) = (agg.count, agg.total_ns, agg.child_ns);
                    SpanNode {
                        name,
                        count,
                        total_ns,
                        child_ns,
                        children: agg.into_nodes(),
                    }
                })
                .collect()
        }
    }

    // Resolve each record's name path by walking parent ids. An id index
    // first; paths memoised per record index.
    let index: std::collections::HashMap<u64, usize> =
        records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    fn path_of(
        i: usize,
        records: &[SpanRecord],
        index: &std::collections::HashMap<u64, usize>,
        memo: &mut Vec<Option<Vec<usize>>>,
    ) -> Vec<usize> {
        if let Some(p) = &memo[i] {
            return p.clone();
        }
        let mut path = match index.get(&records[i].parent) {
            Some(&pi) => path_of(pi, records, index, memo),
            None => Vec::new(),
        };
        path.push(i);
        memo[i] = Some(path.clone());
        path
    }

    let mut memo: Vec<Option<Vec<usize>>> = vec![None; records.len()];
    let mut root = Agg::default();
    for i in 0..records.len() {
        let path = path_of(i, records, &index, &mut memo);
        let mut node = &mut root;
        for &step in &path {
            node = node.child(records[step].name);
        }
        node.count += 1;
        node.total_ns += records[i].duration_ns();
        // Attribute this span's duration to its parent's child time.
        if let Some(&parent_idx) = index.get(&records[i].parent) {
            let parent_path = path_of(parent_idx, records, &index, &mut memo);
            let mut pnode = &mut root;
            for &step in &parent_path {
                pnode = pnode.child(records[step].name);
            }
            pnode.child_ns += records[i].duration_ns();
        }
    }
    root.into_nodes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // Span-capture tests share one process-global subscriber; serialise
    // them so drains don't steal each other's records.
    fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = capture_lock();
        disable();
        let _ = drain();
        {
            let _g = crate::span!("invisible");
        }
        assert!(drain().records.is_empty());
    }

    #[test]
    fn nesting_attributes_self_and_child_time() {
        let _serial = capture_lock();
        let _ = drain();
        enable();
        {
            let _outer = crate::span!("outer");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = crate::span!("inner", step = 1);
                std::thread::sleep(Duration::from_millis(8));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        disable();
        let set = drain();
        assert_eq!(set.records.len(), 2);
        assert_eq!(set.dropped, 0);
        let tree = set.tree();
        assert_eq!(tree.len(), 1, "one root");
        let outer = &tree[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        // The child's wall time is the parent's child time, and self + child
        // reconstruct the parent's total exactly (same two timestamps).
        assert_eq!(outer.child_ns, inner.total_ns);
        assert_eq!(outer.self_ns() + outer.child_ns, outer.total_ns);
        assert!(inner.total_ns >= 8_000_000, "inner >= 8ms");
        assert!(outer.self_ns() >= 6_000_000, "outer self >= 6ms");
        // Field rendering happened.
        let rec = set
            .records
            .iter()
            .find(|r| r.name == "inner")
            .expect("inner captured");
        assert_eq!(rec.detail, "step=1");
        assert!(find_span(&tree, "inner").is_some());
        assert!(find_span(&tree, "nosuch").is_none());
    }

    #[test]
    fn cross_thread_spans_become_their_own_roots() {
        let _serial = capture_lock();
        let _ = drain();
        enable();
        {
            let _main = crate::span!("driver");
            std::thread::spawn(|| {
                let _w = crate::span!("worker_stage");
                std::thread::sleep(Duration::from_millis(1));
            })
            .join()
            .expect("worker thread");
        }
        disable();
        let tree = drain().tree();
        let names: Vec<&str> = tree.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"driver"), "{names:?}");
        assert!(names.contains(&"worker_stage"), "{names:?}");
        // The worker span has no parent on its thread: it is a root, not a
        // child of `driver`.
        assert!(tree
            .iter()
            .find(|n| n.name == "driver")
            .expect("driver root")
            .children
            .is_empty());
    }

    #[test]
    fn same_name_spans_aggregate_by_path() {
        let _serial = capture_lock();
        let _ = drain();
        enable();
        for i in 0..3 {
            let _outer = crate::span!("epoch", index = i);
            let _inner = crate::span!("step");
        }
        disable();
        let tree = drain().tree();
        let epoch = find_span(&tree, "epoch").expect("epoch node");
        assert_eq!(epoch.count, 3);
        assert_eq!(epoch.children.len(), 1);
        assert_eq!(epoch.children[0].count, 3);
    }
}
