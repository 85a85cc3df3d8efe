//! A steady-state inference forward allocates its layer outputs and next
//! to nothing else: the lowering matrices and GEMM layout buffers come out
//! of `pop-nn`'s per-thread workspace, which stops growing after the first
//! forward. Counted with a `#[global_allocator]`, which is why this test
//! has a binary to itself (and a single `#[test]`: the counters are
//! process-wide).

use pop_core::{SkipMode, UNetGenerator};
use pop_nn::{Layer, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    BYTES.fetch_add(size, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// relaxed atomics that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(bytes, largest single request)` allocated while `f` runs.
fn heap_use<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    BYTES.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (
        BYTES.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
        out,
    )
}

/// Floats in every tensor one inference forward of the `explore` generator
/// (64×64 input, 12 filters, depth 6, all skips) hands from layer to
/// layer, and in the largest of them.
fn layer_output_floats(gen: &UNetGenerator, batch: usize) -> (usize, usize) {
    let depth = gen.depth();
    let (enc, dec) = (gen.encoder_channels(), gen.decoder_channels());
    let mut outputs = Vec::new();
    for (i, &ch) in enc.iter().enumerate() {
        let side = 64 >> (i + 1);
        // conv, [batch-norm], leaky-relu
        let tensors = if i == 0 || i == depth - 1 { 2 } else { 3 };
        outputs.extend(std::iter::repeat_n(batch * ch * side * side, tensors));
    }
    for (i, &ch) in dec.iter().enumerate() {
        let side = 2 << i;
        if i > 0 {
            // the skip concatenation feeding this block
            outputs.push(batch * (dec[i - 1] + enc[depth - 1 - i]) * (side / 2) * (side / 2));
        }
        // deconv, [batch-norm], [dropout's inference copy], relu or tanh
        let tensors = 2 + usize::from(i < depth - 1) + usize::from(i < 3);
        outputs.extend(std::iter::repeat_n(batch * ch * side * side, tensors));
    }
    (
        outputs.iter().sum(),
        outputs.iter().copied().max().unwrap_or(0),
    )
}

#[test]
fn steady_state_forward_allocates_its_outputs_and_little_else() {
    let mut gen = UNetGenerator::new(4, 3, 12, 6, SkipMode::All, 11);
    for batch in [1usize, 8] {
        let x = Tensor::randn([batch, 4, 64, 64], 0.0, 0.5, 40 + batch as u64);
        let (total, largest) = layer_output_floats(&gen, batch);
        // The first forward at a batch size grows the workspace.
        let first = gen.forward(&x, false);
        for round in 2..=4 {
            let (bytes, biggest, y) = heap_use(|| gen.forward(&x, false));
            assert_eq!(y, first, "batch {batch}, forward {round}");
            assert!(
                biggest <= 4 * largest,
                "batch {batch}, forward {round}: one allocation of {biggest} bytes exceeds \
                 the largest layer output ({} bytes) — a lowering matrix?",
                4 * largest
            );
            assert!(
                4 * bytes <= 5 * 4 * total,
                "batch {batch}, forward {round}: {bytes} bytes allocated for {} bytes of \
                 layer outputs",
                4 * total
            );
        }
    }
}
