//! Steady-state cost guards, stated as counts wherever the promise is a
//! count:
//!
//! * a Gauss–Seidel round that searches every node, and a quiescent
//!   synchronous round (zero searches, stored views replayed), both make
//!   O(1) heap allocations — a per-node allocation would show up ≥ N
//!   times;
//! * at N = 10⁵ the quiescent round stays within a generous one-second
//!   ceiling;
//! * a cold serial round at N = 10³ stays within 3× the time the engine
//!   took before its allocation-free, cached rewrite, on a 1-core
//!   reference container (a generous wall-clock guard only);
//! * telemetry off is one branch per stage: a disabled recorder gets no
//!   measurement call, and the same number of `enabled()` calls per
//!   round at N = 200 as at N = 10³.
//!
//! `#[global_allocator]` applies per binary, hence a binary of its own.
//! The count is per thread, so tests may run concurrently; at
//! `threads(1)` the engine's fan-out runs inline on the caller thread,
//! so the caller's count is the whole round's.

use laacad::telemetry::StageAccum;
use laacad::{ExecutionMode, LaacadConfig, Recorder, Session, Stage};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::time::Instant;

/// Counts every alloc, alloc_zeroed and realloc on the calling thread;
/// deallocations pass through uncounted.
struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Fails only during thread teardown, outside any measured round.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A converged round still builds its per-round decision vector.
const STEADY_ALLOC_CEILING: u64 = 16;

fn session(n: usize, k: usize, epsilon: f64, execution: ExecutionMode) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(epsilon)
        .max_rounds(1_000)
        .threads(1)
        .execution(execution)
        .build()
        .unwrap();
    Session::builder(config)
        .positions(sample_uniform(&region, n, 42))
        .region(region)
        .build()
        .unwrap()
}

/// Converges under a loose ε, then steps once more so every stored view,
/// cache entry and pooled buffer describes the final positions; then
/// measures one round as `(allocations, ring searches, seconds)`.
fn steady_round(n: usize, k: usize, execution: ExecutionMode) -> (Session, u64, usize, f64) {
    let mut sim = session(n, k, 0.05, execution);
    assert!(
        (0..60).any(|_| sim.step().report.converged),
        "warm-up did not converge (N={n}, k={k}, {execution:?})"
    );
    sim.step();
    let a0 = ALLOCATIONS.with(Cell::get);
    let t = Instant::now();
    let searches = sim.step().ring_searches;
    let dt = t.elapsed().as_secs_f64();
    (sim, ALLOCATIONS.with(Cell::get) - a0, searches, dt)
}

#[test]
fn gauss_seidel_steady_round_searches_every_node_without_allocating_per_node() {
    let (_, allocs, searches, _) = steady_round(1_000, 3, ExecutionMode::Sequential);
    assert_eq!(searches, 1_000, "a Gauss–Seidel round searches every node");
    assert!(allocs <= STEADY_ALLOC_CEILING, "{allocs} allocations");
}

#[test]
fn quiescent_round_replays_views_without_searching_or_allocating() {
    let (_, allocs, searches, _) = steady_round(1_000, 3, ExecutionMode::Synchronous);
    assert_eq!(searches, 0, "a quiescent round ran ring searches");
    assert!(allocs <= STEADY_ALLOC_CEILING, "{allocs} allocations");
}

#[test]
fn quiescent_round_at_large_n_stays_an_allocation_free_replay() {
    let (_, allocs, searches, dt) = steady_round(100_000, 1, ExecutionMode::Synchronous);
    assert_eq!(searches, 0, "a quiescent round ran ring searches");
    assert!(allocs <= STEADY_ALLOC_CEILING, "{allocs} allocations");
    assert!(dt <= 1.0, "quiescent round took {dt:.3}s (ceiling 1 s)");
}

#[test]
fn cold_serial_round_stays_within_three_times_the_reference() {
    // Serial cold-round seconds at N = 10³ of the engine with a shared
    // snapshot, incremental ring search and allocating clips.
    for (k, reference) in [(1, 0.087727), (3, 0.236937)] {
        let limit = 3.0 * reference;
        let best = (0..2)
            .map(|_| {
                let mut sim = session(1_000, k, 2e-3, ExecutionMode::Synchronous);
                let t = Instant::now();
                let moved = sim.step().report.nodes_moved;
                assert!(moved > 0, "a fresh deployment must move");
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best <= limit, "k={k}: cold round {best:.3}s > {limit:.3}s");
    }
}

/// A disabled recorder counting every call the engine makes on it.
#[derive(Debug, Default)]
struct CountingOffRecorder {
    enabled_calls: Cell<u64>,
    measurement_calls: u64,
}

impl Recorder for CountingOffRecorder {
    fn enabled(&self) -> bool {
        self.enabled_calls.set(self.enabled_calls.get() + 1);
        false
    }

    fn span(&mut self, _stage: Stage, _round: usize, _nanos: u64) {
        self.measurement_calls += 1;
    }

    fn counter(&mut self, _name: &'static str, _round: usize, _value: u64) {
        self.measurement_calls += 1;
    }

    fn kernel(&mut self, _stage: Stage, _round: usize, _accum: &StageAccum) {
        self.measurement_calls += 1;
    }

    fn round_end(&mut self, _round: usize) {
        self.measurement_calls += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `enabled()` calls in each of five cold rounds at size `n`.
fn enabled_calls_per_round(n: usize, execution: ExecutionMode) -> Vec<u64> {
    let mut sim = session(n, 3, 2e-3, execution);
    sim.set_recorder(Box::new(CountingOffRecorder::default()));
    let mut seen = 0;
    (0..5)
        .map(|_| {
            sim.step();
            let recorder = sim.recorder().unwrap().as_any();
            let recorder = recorder.downcast_ref::<CountingOffRecorder>().unwrap();
            assert_eq!(recorder.measurement_calls, 0, "N={n} {execution:?}");
            let total = recorder.enabled_calls.get();
            total - std::mem::replace(&mut seen, total)
        })
        .collect()
}

#[test]
fn disabled_recorder_costs_a_constant_number_of_branches_per_round() {
    for execution in [ExecutionMode::Synchronous, ExecutionMode::Sequential] {
        let small = enabled_calls_per_round(200, execution);
        assert!(
            small.iter().all(|&c| c > 0),
            "{execution:?}: never consulted"
        );
        assert_eq!(
            small,
            enabled_calls_per_round(1_000, execution),
            "{execution:?}: enabled() calls per round grow with N"
        );
    }
}
