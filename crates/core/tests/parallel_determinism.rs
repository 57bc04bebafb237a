//! The synchronous round engine must be bit-identical for every worker
//! count: Phase 1 is a pure function of the round's position snapshot
//! and of the one view store, so `threads ∈ {1, 2, 8}` may only change
//! wall-clock, never history and never the work done — every round's
//! searches, skips and cache hits included.

use laacad::{HookAction, LaacadConfig, NetworkEvent, Observer, RoundDelta, Session};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::NodeId;

/// Records every round's work fields.
#[derive(Default)]
struct WorkLog(Vec<[usize; 5]>);

impl WorkLog {
    fn push(&mut self, delta: &RoundDelta) {
        self.0.push([
            delta.ring_searches,
            delta.skipped_quiescent,
            delta.cache_hits,
            delta.cache_misses,
            delta.rho_changed,
        ]);
    }
}

impl Observer for WorkLog {
    fn on_round_end(&mut self, _session: &mut Session, delta: &RoundDelta) -> HookAction {
        self.push(delta);
        HookAction::Default
    }
}

/// Runs a 500-node deployment with mid-run dynamic events (failures,
/// insertion, a k change) for 40 rounds, long enough for rounds that
/// skip nodes and reuse stored geometry, and returns every observable
/// artifact as a byte-comparable string: per-round reports and work,
/// snapshots, final summary, work counters and final positions.
fn run_fingerprint(threads: usize) -> String {
    let region = Region::square(1.0).unwrap();
    let n = 500;
    let k = 2;
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(2e-3)
        .max_rounds(40)
        .snapshot_every(3)
        .threads(threads)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, n, 2024);
    let mut sim = Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap();
    let mut work = WorkLog::default();
    for _ in 0..4 {
        work.push(&sim.step());
    }
    sim.apply_event(NetworkEvent::FailNodes(
        (0..40).map(|i| NodeId(i * 7)).collect(),
    ))
    .unwrap();
    for _ in 0..2 {
        work.push(&sim.step());
    }
    sim.apply_event(NetworkEvent::InsertNodes(vec![
        Point::new(0.51, 0.49),
        Point::new(0.12, 0.88),
        Point::new(0.9, 0.1),
    ]))
    .unwrap();
    sim.apply_event(NetworkEvent::SetK(3)).unwrap();
    let summary = sim.run_with_observers(&mut [&mut work]);
    format!(
        "rounds={:?}\nwork={:?}\nsnapshots={:?}\nsummary={:?}\ncounters={:?}\n\
         positions={:?}\nradii={:?}",
        sim.history().rounds(),
        work.0,
        sim.history().snapshots(),
        summary,
        sim.counters(),
        sim.network().positions(),
        sim.network().sensing_radii().to_vec(),
    )
}

#[test]
fn histories_are_byte_identical_across_thread_counts() {
    let serial = run_fingerprint(1);
    assert!(serial.contains("rounds="));
    for threads in [2usize, 8] {
        let parallel = run_fingerprint(threads);
        assert!(
            serial == parallel,
            "threads={threads} diverged from serial history"
        );
    }
}
