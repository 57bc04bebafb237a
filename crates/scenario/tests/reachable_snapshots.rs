//! Every state the engine reaches passes restore's validation: each
//! round's snapshot of an obstacle region (`fig8_lakes`: nodes routed
//! around holes) and of the Fig. 5 corner start (nodes on the region
//! boundary) restores, and re-snapshots to the same bytes. A reachable
//! state that fails validation means the check is wrong, not the
//! state.

use laacad::SessionBuilder;
use laacad_scenario::{build_scenario, CampaignSpec};
use std::path::PathBuf;

fn restore_every_round(stem: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{stem}.toml"));
    let campaign = CampaignSpec::from_path(&path).unwrap();
    for cell in campaign.expand().unwrap() {
        let (mut sim, _) = build_scenario(&cell.scenario, cell.seed).unwrap();
        let check = |sim: &laacad::Session| {
            let snap = sim.snapshot();
            let restored = SessionBuilder::restore(&snap).unwrap_or_else(|e| {
                panic!(
                    "{stem} cell {} round {}: {e}",
                    cell.index,
                    sim.rounds_executed()
                )
            });
            assert_eq!(restored.snapshot(), snap, "{stem} cell {}", cell.index);
        };
        check(&sim);
        while !sim.is_converged() && sim.rounds_executed() < sim.config().max_rounds {
            sim.step();
            check(&sim);
        }
        sim.finalize();
        check(&sim);
    }
}

#[test]
fn every_round_of_an_obstacle_run_restores() {
    restore_every_round("fig8_lakes");
}

#[test]
fn every_round_of_the_corner_start_restores() {
    restore_every_round("fig5_corner");
}
