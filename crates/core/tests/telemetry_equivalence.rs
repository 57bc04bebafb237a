//! Telemetry must be a pure observer: a session with a recorder
//! installed — or with the noop recorder — must produce byte-identical
//! histories, positions, and radii to a recorder-free run, at any
//! worker count, through a full dynamic-event run (failures + churn +
//! displacements). And because the JSONL sink records only the engine's
//! deterministic work metrics (no timestamps), its output must be
//! byte-stable across reruns.

use laacad::telemetry::validate::validate_metrics_jsonl;
use laacad::{
    LaacadConfig, NetworkEvent, NoopRecorder, Recorder, Session, SessionTelemetry,
    TelemetryRegistry,
};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::NodeId;

/// Which recorder (if any) a run installs before stepping.
#[derive(Clone, Copy)]
enum Wiring {
    None,
    Noop,
    Full,
}

fn build(threads: usize) -> Session {
    let n = 40;
    let k = 2;
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.5)
        .epsilon(1e-5)
        .max_rounds(500)
        .threads(threads)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, n, 31337);
    Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap()
}

/// The same 300-round failure+churn+displacement run the dirty-index
/// equivalence test drives, with an optional recorder installed;
/// returns the result fingerprint and whatever recorder the session
/// held.
fn run_fingerprint(threads: usize, wiring: Wiring) -> (String, Option<Box<dyn Recorder>>) {
    let mut sim = build(threads);
    match wiring {
        Wiring::None => {}
        Wiring::Noop => sim.set_recorder(Box::new(NoopRecorder)),
        Wiring::Full => sim.set_recorder(Box::new(SessionTelemetry::new())),
    }
    let mut rounds = Vec::new();
    let mut moves = Vec::new();
    for round in 1..=300usize {
        let delta = sim.step();
        rounds.push(delta.report);
        moves.push(delta.moved);
        if round == 80 {
            sim.apply_event(NetworkEvent::FailNodes(
                (0..7).map(|i| NodeId(i * 5)).collect(),
            ))
            .unwrap();
        }
        if round == 120 || round == 250 {
            let nudged: Vec<(NodeId, Point)> = [1usize, 8, 15]
                .iter()
                .filter(|&&i| i < sim.network().len())
                .map(|&i| {
                    let p = sim.network().position(NodeId(i));
                    (NodeId(i), Point::new(p.x * 0.95 + 0.02, p.y * 0.95 + 0.02))
                })
                .collect();
            sim.displace_nodes(&nudged).unwrap();
        }
        if round == 150 {
            sim.apply_event(NetworkEvent::InsertNodes(vec![
                Point::new(0.48, 0.52),
                Point::new(0.05, 0.95),
                Point::new(0.9, 0.12),
                Point::new(0.33, 0.66),
            ]))
            .unwrap();
        }
        if round == 220 {
            sim.apply_event(NetworkEvent::FailNodes(vec![NodeId(3), NodeId(11)]))
                .unwrap();
        }
    }
    sim.finalize();
    let fingerprint = format!(
        "rounds={rounds:?}\nmoves={moves:?}\npositions={:?}\nradii={:?}",
        sim.network().positions(),
        sim.network().sensing_radii().to_vec(),
    );
    (fingerprint, sim.take_recorder())
}

fn full_bundle(recorder: Option<Box<dyn Recorder>>) -> SessionTelemetry {
    recorder
        .expect("recorder was installed")
        .as_any()
        .downcast_ref::<SessionTelemetry>()
        .expect("SessionTelemetry recorder")
        .clone()
}

#[test]
fn recorder_on_or_off_is_bit_identical_at_any_thread_count() {
    let (reference, _) = run_fingerprint(1, Wiring::None);
    for (threads, wiring, label) in [
        (1, Wiring::Noop, "noop t1"),
        (1, Wiring::Full, "full t1"),
        (4, Wiring::None, "none t4"),
        (4, Wiring::Noop, "noop t4"),
        (4, Wiring::Full, "full t4"),
    ] {
        let (other, _) = run_fingerprint(threads, wiring);
        assert!(reference == other, "{label}: telemetry changed the results");
    }
}

#[test]
fn jsonl_metrics_are_byte_stable_across_reruns() {
    let (_, first) = run_fingerprint(1, Wiring::Full);
    let (_, second) = run_fingerprint(1, Wiring::Full);
    let first = full_bundle(first);
    let second = full_bundle(second);
    let doc = first.jsonl.finish();
    assert_eq!(
        doc,
        second.jsonl.finish(),
        "JSONL stream is not byte-stable"
    );
    // The engine's work metrics are bit-identical across worker counts,
    // so the deterministic stream is too — stability is not a
    // serial-only property.
    let (_, parallel) = run_fingerprint(4, Wiring::Full);
    assert_eq!(doc, full_bundle(parallel).jsonl.finish());

    // And the stream satisfies its own schema, with totals matching the
    // registry's view of the same run.
    let summary = validate_metrics_jsonl(&doc).expect("schema-valid stream");
    assert_eq!(summary.rounds, 300);
    assert_eq!(
        summary.counter_total("ring_searches"),
        first.registry.counter_total("ring_searches")
    );
    assert!(summary.counter_total("nodes_moved") > 0);
}

#[test]
fn registry_mirrors_session_counters_and_stages() {
    let mut sim = build(1);
    sim.set_recorder(Box::new(TelemetryRegistry::new()));
    let summary = sim.run(); // run() finalizes internally
    let registry = sim
        .take_recorder()
        .unwrap()
        .as_any()
        .downcast_ref::<TelemetryRegistry>()
        .cloned()
        .unwrap();
    let counters = sim.counters();
    assert_eq!(registry.rounds(), summary.rounds as u64);
    assert_eq!(
        registry.counter_total("ring_searches"),
        counters.ring_searches
    );
    assert_eq!(
        registry.counter_total("skipped_quiescent"),
        counters.skipped_quiescent
    );
    assert_eq!(registry.counter_total("cache_hits"), counters.cache_hits);
    assert_eq!(
        registry.counter_total("adjacency_rebuilds"),
        counters.adjacency_rebuilds
    );
    use laacad::Stage;
    // Every round records a whole-round span; the kernels saw one
    // observation per executed ring search.
    assert_eq!(registry.stage(Stage::Round).count, registry.rounds());
    assert_eq!(
        registry.stage(Stage::RingSearch).count,
        counters.ring_searches
    );
    assert_eq!(
        registry.stage(Stage::Geometry).count,
        counters.ring_searches
    );
    assert!(registry.stage(Stage::Classify).count > 0);
    assert!(registry.stage(Stage::MoveApply).count > 0);
    assert_eq!(registry.stage(Stage::Finalize).count, 1);
}
