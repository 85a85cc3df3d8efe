//! Per-thread scratch for the lowering and GEMM layout buffers.
//!
//! Every conv/deconv forward needs a handful of large, short-lived `f32`
//! buffers (the `im2col` matrix, the GEMM output before it becomes NCHW,
//! packed operands). Allocating and zeroing them per layer cost more than
//! the lowering itself, so each thread keeps the few it has used and hands
//! them out again: [`take`] returns a buffer of *at least* the requested
//! length whose contents are unspecified (stale values from an earlier
//! layer — callers overwrite what they read, or `fill` what a GEMM will
//! accumulate into), [`give`] returns it.
//!
//! The pool is shared by all layers of all models on the thread, so it
//! holds as many buffers as one layer uses at once, each grown to the
//! largest request it has served — not one set per layer. Buffers keep
//! their high-water length so growing never re-zeroes what was already
//! there. A caller that unwinds before `give` simply drops its buffers;
//! the next `take` allocates afresh, and no length survives from one
//! `take` to the next, so a panicking forward cannot poison the pool.

use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A buffer with `len() ≥ len`, contents unspecified: the smallest pooled
/// one that fits, else the largest grown to fit (so a rising request
/// extends one buffer instead of leaving a trail of outgrown ones).
pub(crate) fn take(len: usize) -> Vec<f32> {
    let mut buf = POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let fits = (0..pool.len())
            .filter(|&i| pool[i].len() >= len)
            .min_by_key(|&i| pool[i].len());
        let pick = fits.or_else(|| (0..pool.len()).max_by_key(|&i| pool[i].len()));
        pick.map(|i| pool.swap_remove(i)).unwrap_or_default()
    });
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf
}

/// Returns a buffer obtained from [`take`] to this thread's pool.
pub(crate) fn give(buf: Vec<f32>) {
    POOL.with(|pool| pool.borrow_mut().push(buf));
}

/// Runs `f` on `len` floats of this thread's lowering scratch (contents
/// unspecified), borrowed for the call and handed back after it — for
/// callers that keep activations between layers: nested calls get distinct
/// buffers, and a steady-state caller allocates nothing.
pub fn scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = take(len);
    let out = f(&mut buf[..len]);
    give(buf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_best_fit_and_grown_in_place() {
        // A fresh thread: the pool starts empty whatever other tests did.
        std::thread::spawn(|| {
            let (small, big) = (take(10), take(1000));
            let (small_ptr, big_ptr) = (small.as_ptr(), big.as_ptr());
            give(big);
            give(small);
            // Best fit, not last in: the small request leaves the big
            // buffer for the big request.
            let (a, b) = (take(8), take(900));
            assert_eq!((a.as_ptr(), b.as_ptr()), (small_ptr, big_ptr));
            assert!(a.len() >= 8 && b.len() >= 900);
            give(a);
            give(b);
            // Nothing fits: the largest grows, the pool does not.
            let c = take(5000);
            assert!(c.len() >= 5000);
            give(c);
            assert_eq!(POOL.with(|p| p.borrow().len()), 2);
        })
        .join()
        .expect("pool test thread");
    }

    #[test]
    fn a_buffer_lost_to_a_panic_is_simply_regrown() {
        std::thread::spawn(|| {
            let lost = std::panic::catch_unwind(|| {
                let _held = take(64);
                panic!("forward panicked holding a buffer");
            });
            assert!(lost.is_err());
            let again = take(128);
            assert!(again.len() >= 128);
            give(again);
        })
        .join()
        .expect("pool test thread");
    }
}
