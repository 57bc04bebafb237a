//! Paper Fig. 5 from the shipped spec: 100 nodes dumped in the corner
//! of the unit square spread, for every k = 1..4, into a k-coverage
//! deployment that converges within the spec's 600-round cap, covers
//! every sample k times and keeps the sensing load balanced
//! (`r_min / R* ≥ 0.9`).
//!
//! A step is `α‖c − u‖`, not at most `αγ`: a front node whose ring sees
//! neighbours on one side only has a dominating region reaching far past
//! its ring, and its step can exceed `αγ`. The k = 1 cell pins that, so
//! nothing may come to rely on the false bound.

use laacad_scenario::{build_scenario, run_campaign, CampaignRunOptions, CampaignSpec};
use std::path::PathBuf;

fn shipped() -> CampaignSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fig5_corner.toml");
    CampaignSpec::from_path(&path).unwrap()
}

#[test]
fn corner_start_converges_to_balanced_k_coverage_for_every_k() {
    let campaign = shipped();
    let results = run_campaign(&campaign, CampaignRunOptions::default()).unwrap();
    let ks: Vec<usize> = results.iter().map(|r| r.cell.k).collect();
    assert_eq!(ks, [1, 2, 3, 4]);
    for r in &results {
        let k = r.cell.k;
        let outcome = r.outcome.as_ref().unwrap();
        let summary = &outcome.summary;
        assert!(
            summary.converged && summary.rounds <= 600,
            "k={k}: {} rounds, converged {}",
            summary.rounds,
            summary.converged
        );
        assert_eq!(outcome.coverage.covered_fraction, 1.0, "k={k}");
        assert!(outcome.coverage.min_degree >= k, "k={k}");
        let balance = summary.min_sensing_radius / summary.max_sensing_radius;
        assert!(balance >= 0.9, "k={k}: r_min / R* = {balance:.3}");
    }
}

#[test]
fn a_corner_start_moves_some_node_farther_than_alpha_gamma_in_one_round() {
    let cells = shipped().expand().unwrap();
    let cell = cells.iter().find(|c| c.k == 1).expect("a k = 1 cell");
    let (mut sim, _) = build_scenario(&cell.scenario, cell.seed).unwrap();
    let bound = sim.config().alpha * sim.config().gamma;
    let mut longest = 0.0f64;
    while !sim.is_converged() && sim.rounds_executed() < sim.config().max_rounds {
        for m in sim.step().moved {
            longest = longest.max(m.from.distance(m.to));
        }
    }
    assert!(
        longest > bound,
        "longest single move {longest:.4} is within αγ = {bound:.4}"
    );
}
