//! The anchor correctness pin: in the zero-delay/zero-loss limit the
//! asynchronous message-driven executor produces the *bit-identical*
//! final deployment of the synchronous `Session` engine — same final
//! positions (by `f64::to_bits`), same sensing radii, same ρ per node,
//! same round count and per-round records, same `MessageStats` — at any
//! thread count of the sync engine.

use laacad::{compute_node_view, LaacadConfig, RoundScratch, Session};
use laacad_dist::{AsyncConfig, AsyncExecutor, FaultPlan};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::{Network, NodeId};

fn config(k: usize, gamma: f64, seed: u64) -> LaacadConfig {
    LaacadConfig::builder(k)
        .alpha(0.6)
        .epsilon(1e-3)
        .transmission_range(gamma)
        .max_rounds(400)
        .seed(seed)
        .build()
        .unwrap()
}

fn bits(positions: &[Point]) -> Vec<(u64, u64)> {
    positions
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

fn radii_bits(net: &Network) -> Vec<u64> {
    (0..net.len())
        .map(|i| net.node(NodeId(i)).sensing_radius().to_bits())
        .collect()
}

/// ρ per node at the final positions, recomputed independently of both
/// engines: a fresh kernel run over the live grid (the async finalizer
/// searches its move-patched adjacency snapshot instead) with every
/// node's cache slot cold, so each view is computed from the positions
/// alone.
fn final_rhos(net: &Network, region: &Region, config: &LaacadConfig, round: usize) -> Vec<f64> {
    let mut scratch = RoundScratch::new();
    (0..net.len())
        .map(|i| compute_node_view(net, None, NodeId(i), region, config, round, &mut scratch).rho)
        .collect()
}

fn assert_equivalent(n: usize, k: usize, gamma: f64, seed: u64, threads: usize) {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, n, seed);
    let mut cfg = config(k, gamma, seed);
    cfg.threads = threads;

    let mut session = Session::builder(cfg.clone())
        .region(region.clone())
        .positions(positions.clone())
        .build()
        .unwrap();
    let sync_summary = session.run();

    let mut exec = AsyncExecutor::new(
        cfg.clone(),
        region.clone(),
        positions,
        FaultPlan::none(),
        AsyncConfig::default(),
    )
    .unwrap();
    let report = exec.run();

    // Whole-summary equality: rounds, converged, final max/min sensing
    // radius, total MessageStats, total distance moved.
    assert_eq!(
        report.summary, sync_summary,
        "RunSummary (threads={threads})"
    );
    // Final deployment, bit for bit.
    assert_eq!(
        bits(exec.network().positions()),
        bits(session.network().positions()),
        "final positions (threads={threads})"
    );
    assert_eq!(
        radii_bits(exec.network()),
        radii_bits(session.network()),
        "final sensing radii (threads={threads})"
    );
    // Per-round records, including per-round message accounting.
    assert_eq!(
        report.rounds.as_slice(),
        session.history().rounds(),
        "round reports (threads={threads})"
    );
    // ρ per node at the final configuration.
    let sync_rhos = final_rhos(session.network(), &region, &cfg, session.rounds_executed());
    let async_bits: Vec<u64> = report.final_rhos.iter().map(|r| r.to_bits()).collect();
    let sync_bits: Vec<u64> = sync_rhos.iter().map(|r| r.to_bits()).collect();
    assert_eq!(async_bits, sync_bits, "final rho (threads={threads})");
    assert!(report.summary.converged, "run should converge");
}

#[test]
fn zero_fault_matches_sync_serial() {
    assert_equivalent(24, 1, 0.45, 42, 1);
}

#[test]
fn zero_fault_matches_sync_threaded() {
    assert_equivalent(24, 1, 0.45, 42, 4);
}

#[test]
fn zero_fault_matches_sync_k2() {
    assert_equivalent(30, 2, 0.55, 9001, 1);
    assert_equivalent(30, 2, 0.55, 9001, 4);
}

/// The zero-fault protocol exchanges exactly one hello per node round
/// plus one ack per delivered hello — no losses, duplicates, retries or
/// timeouts.
#[test]
fn zero_fault_protocol_is_clean() {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, 24, 42);
    let mut exec = AsyncExecutor::new(
        config(1, 0.45, 42),
        region,
        positions,
        FaultPlan::none(),
        AsyncConfig::default(),
    )
    .unwrap();
    let report = exec.run();
    let p = report.protocol;
    assert_eq!(p.lost, 0);
    assert_eq!(p.duplicated, 0);
    assert_eq!(p.retransmissions, 0);
    assert_eq!(p.timeouts, 0);
    assert_eq!(p.dropped_to_crashed, 0);
    assert_eq!(p.crashes, 0);
    assert_eq!(p.sent, p.delivered);
    assert!(p.acks > 0); // the reliability layer actually ran
    assert!(p.hellos >= 24); // every node round broadcasts once
    assert_eq!(p.computes, p.hellos); // every started round computes
}
