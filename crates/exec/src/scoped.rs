//! [`scoped_map`]: a spawn-per-call fan-out over borrowed state.
//!
//! [`WorkerPool`](crate::WorkerPool) demands `'static` closures, which is
//! right for long-lived pipeline stages but wrong for a compute phase that
//! fans out over state on the caller's stack. `std::thread::scope` gives
//! the borrow; this module adds named workers, a shared work cursor and
//! results in item order.

/// Maps `items` through `f` on `workers` scoped threads named
/// `<name>-<index>`, returning the results **in item order** regardless of
/// scheduling — the deterministic fan-out primitive for independent
/// compute cells (the eval harness runs its K×K evaluation matrix through
/// this). Workers claim items from a shared atomic cursor, so uneven
/// per-item cost balances automatically; `f` receives `(index, &item)` and
/// may borrow from the caller's stack.
///
/// With `workers <= 1` (or a single item) the map runs inline on the
/// calling thread — same results, no spawn cost.
///
/// # Panics
///
/// Propagates a panic if any worker's `f` panicked (after all workers have
/// been joined, so no work is silently lost in flight), and panics when the
/// OS refuses to spawn a thread.
pub fn scoped_map<T, R, F>(name: &str, workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = workers.min(items.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let claim_and_map = || loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let result = f(i, item);
        *slots[i].lock().expect("scoped_map slot lock") = Some(result);
    };
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn_scoped(scope, claim_and_map)
                    .expect("failed to spawn scoped worker thread")
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().err()).count()
    });
    assert_eq!(panicked, 0, "scoped_map: {panicked} worker(s) panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("scoped_map slot lock")
                .expect("scoped_map: every item maps to exactly one result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_borrow_stack_state_and_all_join() {
        let inputs: Vec<usize> = (1..=100).collect();
        let sum = AtomicUsize::new(0);
        // Borrows `inputs` and `sum` from this stack frame — exactly what
        // WorkerPool's 'static bound forbids.
        scoped_map("scoped-test", 3, &inputs, |_, v| {
            sum.fetch_add(*v, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn workers_are_named() {
        let names = scoped_map("scoped-name-test", 2, &[(), ()], |_, ()| {
            std::thread::current().name().map(str::to_owned)
        });
        for name in names {
            let name = name.expect("scoped workers are named");
            assert!(
                name == "scoped-name-test-0" || name == "scoped-name-test-1",
                "{name}"
            );
        }
    }

    #[test]
    fn scoped_map_returns_results_in_item_order() {
        let items: Vec<usize> = (0..50).collect();
        // Uneven per-item cost: late items finish first on some workers.
        let map = |i: usize, v: &usize| {
            if i.is_multiple_of(7) {
                std::thread::yield_now();
            }
            v * v
        };
        let expected: Vec<usize> = items.iter().map(|v| v * v).collect();
        for workers in [0, 1, 3, 8] {
            assert_eq!(
                scoped_map("map-test", workers, &items, map),
                expected,
                "workers = {workers}"
            );
        }
        // Empty input, and borrowing from the caller's stack.
        let empty: Vec<usize> = Vec::new();
        assert!(scoped_map("map-empty", 4, &empty, |_, v| *v).is_empty());
        let offset = 10usize;
        let shifted = scoped_map("map-borrow", 2, &items, |_, v| v + offset);
        assert_eq!(shifted[3], 13);
    }

    #[test]
    fn scoped_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            scoped_map("map-panic", 2, &items, |_, v| {
                if *v == 5 {
                    panic!("deliberate test panic");
                }
                *v
            })
        });
        assert!(result.is_err(), "a panicking cell must not vanish silently");
    }
}
