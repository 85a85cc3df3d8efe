//! The benchmark's own span recorder: spans are taken around calls into
//! each crate's public functions, kept in memory, and written out when the
//! run ends. (Spans *inside* the program are `pop_obs`'s job; the traced
//! pass turns those on too and counts them.)

use crate::stats::percentile_of;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` is the id of the span that caused this one
/// (0 for a root); spans of one item share `item`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started; hand it back to [`Tracer::close`].
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    pub id: u32,
    parent: u32,
    name: &'static str,
    item: u64,
    start_ns: u64,
}

/// Collects spans from any thread. A disabled tracer makes `open`/`close`
/// no-ops, so the untraced and the traced pass run the same loop.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: u32, item: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                item,
                start_ns: 0,
            };
        }
        Open {
            // Relaxed: the id publishes no other data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            item,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    pub fn close(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                item: open.item,
                start_ns: open.start_ns,
                end_ns,
            });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: u32, item: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent, item);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span recorder panics while holding the lock"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, in `spans` order: its duration minus the part
/// of its interval that its direct children cover (children that overlap
/// each other, or stick out of the parent, are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return duration;
            };
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// What one span name added up to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: u64,
}

/// Per-name totals, self time and median duration.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let d = s.end_ns.saturating_sub(s.start_ns);
        durations.entry(s.name).or_default().push(d);
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += d;
        layer.self_ns += self_ns;
    }
    for (name, ds) in &durations {
        if let Some(layer) = out.get_mut(name) {
            layer.p50_ns = percentile_of(ds, 0.5);
        }
    }
    out
}

/// The trace file: `{"workload": .., "spans": [{name, start_ns, end_ns,
/// parent, item, id}, ..]}`.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"spans\": [",
        pop_obs::json::str_lit(workload)
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\": {}, \"parent\": {}, \"name\": {}, \"item\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            pop_obs::json::str_lit(s.name),
            s.item,
            s.start_ns,
            s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            item: 7,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, "exchange", 0, 100),
            span(2, 1, "encode", 10, 30),
            span(3, 1, "decode", 60, 90),
            span(4, 3, "inner", 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span(1, 0, "parent", 100, 200),
            // Two children overlapping on [130, 150].
            span(2, 1, "a", 110, 150),
            span(3, 1, "b", 130, 170),
            // One child contained in another, one sticking out of the parent.
            span(4, 1, "c", 140, 145),
            span(5, 1, "d", 190, 260),
        ];
        // Covered: [110, 170] + [190, 200] = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn layers_aggregate_by_name() {
        let spans = [
            span(1, 0, "x", 0, 10),
            span(2, 0, "x", 20, 50),
            span(3, 2, "y", 25, 30),
            span(4, 0, "x", 60, 80),
        ];
        let by = layers(&spans);
        assert_eq!(
            by["x"],
            Layer {
                count: 3,
                total_ns: 60,
                self_ns: 55,
                p50_ns: 20
            }
        );
        assert_eq!(by["y"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_links_parents() {
        let off = Tracer::new(false);
        off.time("a", 0, 1, || ());
        assert!(off.take().is_empty());

        let on = Tracer::new(true);
        let parent = on.open("parent", 0, 3);
        let parent_id = parent.id;
        on.time("child", parent_id, 3, || ());
        on.close(parent);
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parent");
        assert_eq!(spans[1].parent, parent_id);
        assert!(spans.iter().all(|s| s.item == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn trace_json_parses_with_pop_obs() {
        let spans = [span(1, 0, "client.exchange", 5, 9), span(2, 1, "x", 6, 7)];
        let doc = pop_obs::json::parse(&to_json("serve_http", &spans)).unwrap();
        assert_eq!(
            doc.get("workload").and_then(|v| v.as_str()),
            Some("serve_http")
        );
        let arr = doc.get("spans").and_then(|v| v.as_array()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(arr[0].get("end_ns").and_then(|v| v.as_u64()), Some(9));
    }
}
