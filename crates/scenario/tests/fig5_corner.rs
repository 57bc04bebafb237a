//! Paper Fig. 5 from the shipped spec: 100 nodes dumped in the corner
//! of the unit square spread, for every k = 1..4, into a k-coverage
//! deployment that converges within the spec's 600-round cap, covers
//! every sample k times and keeps the sensing load balanced
//! (`r_min / R* ≥ 0.9`).

use laacad_scenario::{run_campaign, CampaignRunOptions, CampaignSpec};
use std::path::PathBuf;

#[test]
fn corner_start_converges_to_balanced_k_coverage_for_every_k() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fig5_corner.toml");
    let campaign = CampaignSpec::from_path(&path).unwrap();
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
