//! Heap a host tick holds beyond what it returns, in bytes.
//!
//! A tick runs each session's batch on the session where it lives and
//! hands back the responses, so while it runs it should hold little more
//! than the sessions' own round buffers and the responses it is about to
//! return. The guard below hosts 64 sessions of 64 nodes at `threads: 1`,
//! queues one `Step` per session per tick, and bounds each tick's peak
//! live heap above the live heap after it returns (its responses still
//! held) by `TICK_OVERHEAD_CEILING`. A tick that moves every busy session
//! out into a work list and back peaks about 134 kB above it here.
//!
//! `#[global_allocator]` applies per binary, hence a binary of its own.
//! The count is per thread (allocations minus deallocations made on the
//! calling thread), so tests may run concurrently; at `threads: 1` the
//! host's fan-out and each session's run inline on the caller thread.

use laacad::{LaacadConfig, Session};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_serve::{Command, HostConfig, Response, SessionHost};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks the bytes live on the calling thread and their peak.
struct PeakCountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so touching them never allocates.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // Fails only during thread teardown, outside any measurement.
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn live() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// The peak since the last call, which restarts it at the live bytes.
fn take_peak() -> i64 {
    let now = live();
    PEAK_BYTES.with(|peak| peak.replace(now))
}

unsafe impl GlobalAlloc for PeakCountingAlloc {
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
        // Counted as the allocate-copy-free it may be: both blocks live
        // at once.
        add(new_size as i64);
        add(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakCountingAlloc = PeakCountingAlloc;

const SESSIONS: u64 = 64;
const NODES: usize = 64;
const TICKS: usize = 8;
/// Ceiling on a tick's peak live heap above the live heap after it
/// returns.
const TICK_OVERHEAD_CEILING: i64 = 16_000;

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
fn a_tick_holds_little_beyond_the_responses_it_returns() {
    let mut host = SessionHost::new(HostConfig {
        threads: 1,
        ..HostConfig::default()
    });
    let ids: Vec<_> = (1..=SESSIONS)
        .map(|seed| host.admit(session(seed)))
        .collect();
    for tick in 0..TICKS {
        for &id in &ids {
            host.submit(id, Command::Step).unwrap();
        }
        take_peak();
        let responses = host.tick();
        let peak = take_peak();
        let overhead = peak - live();
        assert_eq!(responses.len(), ids.len());
        assert!(responses
            .iter()
            .all(|(_, r)| matches!(r[..], [Response::Stepped(_)])));
        assert!(
            overhead <= TICK_OVERHEAD_CEILING,
            "tick {tick}: peaked {overhead} B above what it returned \
             (ceiling {TICK_OVERHEAD_CEILING} B)"
        );
        drop(responses);
    }
}
