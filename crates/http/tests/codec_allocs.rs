//! The forecast codec allocates per message, not per number: decoding a
//! request and encoding a response each cost a handful of heap calls
//! whatever the tensor size, and so does reading a response off the wire.
//! Counted with a `#[global_allocator]`, which is why this test has a
//! binary to itself; the counters are the calling thread's own, so nothing
//! another thread allocates is counted.

use pop_http::{api, read_response, Response};
use pop_nn::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading it allocates
    // nothing and works at any point of the thread's life.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// The largest block asked for since it was last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// thread-local cell that touches no allocator state.
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
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap calls (`alloc`, `alloc_zeroed`, `realloc`) this thread made while
/// `f` ran.
fn heap_calls<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

#[test]
fn codec_heap_calls_do_not_grow_with_the_tensor() {
    for side in [8usize, 32, 64] {
        let input = Tensor::randn([1, 4, side, side], 0.0, 0.5, 7);
        let output = Tensor::randn([1, 3, side, side], 0.0, 0.4, 8);
        let request = api::render_forecast_request(Some("hot"), false, input.data());

        let (decode, parsed) = heap_calls(|| api::parse_forecast_request(request.as_bytes()));
        let parsed = parsed.unwrap();
        assert_eq!(parsed.features, input.data(), "{side}x{side} decodes");
        assert!(
            decode <= 4,
            "{side}x{side}: decode made {decode} heap calls"
        );

        let (encode, response) =
            heap_calls(|| api::render_forecast_response("hot", false, &output));
        assert!(
            encode <= 4,
            "{side}x{side}: encode made {encode} heap calls"
        );

        let (client_encode, _) =
            heap_calls(|| api::render_forecast_request(None, false, input.data()));
        assert!(client_encode <= 4, "{side}x{side}: {client_encode}");
        let (client_decode, back) =
            heap_calls(|| api::parse_forecast_response(response.as_bytes()));
        assert_eq!(back.unwrap(), output);
        assert!(client_decode <= 4, "{side}x{side}: {client_decode}");
    }
}

/// The body of a rendered response comes back in its own buffer, read
/// straight into it: the same handful of heap calls at every size — the
/// head buffer and its one growth, the header list and its six strings,
/// the body and at most one regrowth of it.
#[test]
fn client_read_heap_calls_do_not_grow_with_the_tensor() {
    for side in [8usize, 32, 64] {
        let output = Tensor::randn([1, 3, side, side], 0.0, 0.4, 8);
        let body = api::render_forecast_response("hot", false, &output);
        let mut wire = Vec::new();
        Response::json(200, body.clone())
            .write_to(&mut wire, true)
            .unwrap();
        let (calls, response) = heap_calls(|| read_response(&mut wire.as_slice()));
        let response = response.unwrap();
        assert_eq!(response.body, body.as_bytes(), "{side}x{side} body");
        assert_eq!(response.status, 200);
        assert!(calls <= 11, "{side}x{side}: read made {calls} heap calls");
    }
}

/// A head that claims a terabyte, then ten bytes and EOF: truncation, and
/// no block larger than one read (the client's 64 KiB) past what came.
#[test]
fn a_claimed_length_reserves_nothing_beyond_what_arrives() {
    let mut wire = b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n".to_vec();
    let head = wire.len();
    wire.extend_from_slice(b"0123456789");
    LARGEST.with(|c| c.set(0));
    let (_, response) = heap_calls(|| read_response(&mut wire.as_slice()));
    assert_eq!(response.unwrap_err().kind(), ErrorKind::UnexpectedEof);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 64 * 1024 + head + 10,
        "largest block {largest} bytes"
    );
}
