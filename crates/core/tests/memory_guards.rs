//! Heap kept per session, in bytes.
//!
//! A session keeps its primary state, its view store (one slot per node:
//! the node's last view and the key guarding reuse of its geometry) and
//! the adjacency snapshot. The kernel's transient buffers are borrowed
//! from a per-thread pool for the length of a call, so many sessions
//! stepped on one thread share one set of them. The guards below step a
//! series of 64-node, k = 1 sessions at `threads(1)` on one thread whose
//! pool is already warm, and bound:
//!
//! * the heap a session keeps after its first step, beyond what it held
//!   when built (12.3–14.1 kB over these seeds);
//! * the heap it gains over the next 23 steps (−0.8 to +0.6 kB: round
//!   records, and member ids re-sized to their rings).
//!
//! `#[global_allocator]` applies per binary, hence a binary of its own.
//! The count is per thread (allocations minus deallocations made on the
//! calling thread), so tests may run concurrently; at `threads(1)` the
//! engine's fan-out runs inline on the caller thread.

use laacad::{LaacadConfig, Session};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks the bytes live on the calling thread.
struct ByteCountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so touching it never allocates.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // Fails only during thread teardown, outside any measurement.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

fn live() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

const NODES: usize = 64;
/// Sessions measured after the warm-up one.
const SESSIONS: u64 = 8;
/// Steps after the first one.
const LATER_STEPS: usize = 23;
/// Ceiling on the heap a session keeps after its first step.
const FIRST_STEP_CEILING: i64 = 16_000;
/// Ceiling on the heap it gains over the next `LATER_STEPS` steps.
const LATER_STEPS_CEILING: i64 = 2_000;

/// A session shaped like one hosted session of the `host_stream`
/// benchmark: 64 uniform nodes, k = 1, α = 0.5, ε = 5·10⁻³.
fn session(seed: u64) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(1)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, NODES, 1))
        .alpha(0.5)
        .epsilon(5e-3)
        .max_rounds(10_000)
        .threads(1)
        .seed(seed)
        .build()
        .unwrap();
    Session::builder(config)
        .positions(sample_uniform(&region, NODES, seed))
        .region(region)
        .build()
        .unwrap()
}

#[test]
fn a_hosted_session_keeps_its_state_not_kernel_scratch() {
    // The first session on this thread warms the thread's kernel pool.
    let mut warm = session(1);
    for _ in 0..=LATER_STEPS {
        warm.step();
    }
    // Live sessions, as on a host: nothing measured is freed early.
    let mut kept = Vec::new();
    for seed in 2..2 + SESSIONS {
        let mut sim = session(seed);
        let built = live();
        sim.step();
        let first = live() - built;
        let after_first = live();
        for _ in 0..LATER_STEPS {
            sim.step();
        }
        let later = live() - after_first;
        assert!(
            first <= FIRST_STEP_CEILING,
            "seed {seed}: the first step kept {first} B (ceiling {FIRST_STEP_CEILING} B)"
        );
        assert!(
            later <= LATER_STEPS_CEILING,
            "seed {seed}: {LATER_STEPS} more steps kept {later} B \
             (ceiling {LATER_STEPS_CEILING} B)"
        );
        kept.push(sim);
    }
}
