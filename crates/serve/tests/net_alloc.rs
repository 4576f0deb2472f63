//! Encode-path allocation guarantee: once a frame scratch buffer has
//! grown to its steady-state size, re-encoding through the `*_into`
//! entry points performs **zero heap allocation** — measured with a
//! counting global allocator, in the style of the runtime's
//! `arena_reuse` suite.
//!
//! This is the acceptance gate for the reactor's reply path: the old
//! per-connection writer thread called `wire::encode` (a fresh `Vec`
//! per frame) and cloned the answer matrix into a `Message::Reply`;
//! the reactor borrows the answer's storage and recycles one buffer
//! per connection.

use biq_serve::net::wire::{self, Message, RejectCode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts the allocations the thread holding the suite lock makes
/// through the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counter is process-global, so a sibling test's allocations would
/// land in a measured window. Every test holds this lock for its whole
/// body, which makes the measured regions mutually exclusive at any
/// `--test-threads`; only the holder's thread counts, which keeps the
/// harness's own allocations (reporting a finished test, spawning the
/// next one) out of the window too.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Holds the suite lock and marks this thread as the counted one.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        COUNTED.with(|c| c.set(false));
    }
}

fn serial() -> Serial {
    // A failed test poisons the lock; the others still measure correctly.
    let lock = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    COUNTED.with(|c| c.set(true));
    Serial { _lock: lock }
}

#[test]
fn warmed_reply_encodes_allocate_nothing() {
    let _serial = serial();
    // The reactor's hot path: a reply frame per request, encoded from a
    // borrowed result slice into a recycled buffer.
    let data = vec![0.125f32; 512 * 4];
    let mut scratch = Vec::new();
    wire::encode_reply_into(&mut scratch, 1, 512, 4, &data); // warm-up grows the buffer
    let before = allocs();
    for req_id in 2..34u64 {
        wire::encode_reply_into(&mut scratch, req_id, 512, 4, &data);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "32 steady-state reply encodes allocated {}", after - before);
}

#[test]
fn warmed_request_encodes_allocate_nothing() {
    let _serial = serial();
    // The client's pipelined send path: op name and payload are borrowed,
    // the scratch frame is reused.
    let data = vec![0.5f32; 256 * 2];
    let mut scratch = Vec::new();
    wire::encode_request_into(&mut scratch, 1, "enc0.attn.wq", 256, 2, &data);
    let before = allocs();
    for req_id in 2..34u64 {
        wire::encode_request_into(&mut scratch, req_id, "enc0.attn.wq", 256, 2, &data);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "32 steady-state request encodes allocated {}", after - before);
}

#[test]
fn warmed_message_encodes_reuse_the_buffer() {
    let _serial = serial();
    // The general `encode_into` (admin verbs, rejects) reuses capacity
    // too: the frame bytes themselves never allocate once warm. (The
    // `Message` is pre-built here; the reactor's reject path does build
    // its message string — that is the error path, not steady state.)
    let reject =
        Message::Reject { req_id: 7, code: RejectCode::Busy, msg: "queue full".to_string() };
    let mut scratch = Vec::new();
    wire::encode_into(&mut scratch, &reject);
    let before = allocs();
    for _ in 0..32 {
        wire::encode_into(&mut scratch, &reject);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "32 steady-state reject encodes allocated {}", after - before);
}

#[test]
fn the_owned_encode_allocates_every_call() {
    let _serial = serial();
    // Contrast case documenting what the reactor path removed: `encode`
    // returns a fresh `Vec` per frame by construction.
    let data = vec![0.25f32; 64];
    let before = allocs();
    let frame = wire::encode(&Message::Reply { req_id: 1, rows: 32, cols: 2, data });
    assert!(allocs() - before > 0, "owned encode unexpectedly allocation-free");

    // And the two paths agree byte for byte.
    let mut scratch = Vec::new();
    wire::encode_reply_into(&mut scratch, 1, 32, 2, &[0.25f32; 64]);
    assert_eq!(scratch, frame);
}
