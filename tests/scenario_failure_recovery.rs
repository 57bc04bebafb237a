//! Acceptance test for the scenario subsystem: the shipped
//! failure-recovery spec (kill 20% of nodes mid-run) executes end-to-end
//! through the campaign runner, produces JSONL results, and the
//! post-failure deployment re-achieves ≥ 90% k-coverage in the stored
//! CoverageReport.

use laacad_suite::laacad_scenario::{self, to_jsonl, CellResult};
use laacad_suite::prelude::*;

fn load_failure_recovery() -> CampaignSpec {
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/failure_recovery.toml"
    ));
    CampaignSpec::from_path(path).expect("shipped spec parses")
}

fn results() -> Vec<CellResult> {
    run_campaign(&load_failure_recovery(), CampaignRunOptions::default())
        .expect("campaign expands and runs")
}

#[test]
fn failure_recovery_scenario_end_to_end() {
    let results = results();
    assert_eq!(results.len(), 3, "three seeds in the shipped grid");
    for cell in &results {
        let outcome = cell.outcome.as_ref().expect("cell runs");
        // The 20% kill fired: 40 nodes → 32 survivors.
        assert_eq!(outcome.final_n, 32, "seed {}", cell.cell.seed);
        assert_eq!(outcome.events.len(), 1);
        assert_eq!(outcome.events[0].removed, 8);
        assert!(outcome.events[0].skipped.is_none());
        assert!(outcome.summary.rounds > 40, "ran past the failure round");
        // Acceptance bar: the survivors re-achieve ≥ 90% 2-coverage in
        // the stored CoverageReport.
        assert!(
            outcome.coverage.covered_fraction >= 0.90,
            "seed {}: post-failure coverage {} below 90%",
            cell.cell.seed,
            outcome.coverage.covered_fraction
        );
        assert_eq!(outcome.coverage.k, 2);
    }
}

#[test]
fn failure_recovery_metrics_are_summarized() {
    // The shipped spec probes coverage every round, so the stored round
    // series carries covered fractions and the outcome summarizes the
    // recovery of each applied event.
    let results = results();
    for cell in &results {
        let outcome = cell.outcome.as_ref().expect("cell runs");
        let probed = outcome
            .rounds
            .iter()
            .filter(|r| r.covered_fraction.is_some())
            .count();
        assert_eq!(
            probed,
            outcome.rounds.len(),
            "seed {}: every round is probed",
            cell.cell.seed
        );
        assert_eq!(outcome.recovery.len(), 1, "one applied event");
        let rec = &outcome.recovery[0];
        assert_eq!(rec.event_round, 40);
        let before = rec.coverage_before.expect("round-40 probe exists");
        assert!(
            before >= 0.9,
            "seed {}: pre-event coverage {before}",
            cell.cell.seed
        );
        let dip = rec.coverage_dip.expect("post-event rounds probed");
        assert!((0.0..=1.0).contains(&dip), "dip {dip}");
        let ttr = rec
            .time_to_recover
            .expect("survivors re-achieve the 0.9 target");
        assert!(ttr >= 1, "recovery takes at least one round");
        assert!(
            ttr + 40 <= outcome.summary.rounds,
            "recovery round within the run"
        );
    }
}

#[test]
fn failure_recovery_jsonl_is_stored_and_parseable() {
    let dir = std::env::temp_dir().join("laacad-failure-recovery-test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = laacad_scenario::ResultStore::new(&dir);
    let options = CampaignRunOptions {
        store: Some(&store),
        ..CampaignRunOptions::default()
    };
    let results = run_campaign(&load_failure_recovery(), options).expect("campaign runs");
    let jsonl_path = dir.join("failure-recovery.jsonl");
    let csv_path = dir.join("failure-recovery.csv");
    let text = std::fs::read_to_string(&jsonl_path).unwrap();
    assert_eq!(text, to_jsonl(&results));
    assert_eq!(text.lines().count(), 3);
    for line in text.lines() {
        let v = laacad_scenario::json::parse(line).expect("stored JSONL parses");
        let outcome = v.get("outcome").expect("cell succeeded");
        let covered = outcome
            .get("coverage")
            .and_then(|c| c.get("covered_fraction"))
            .and_then(|f| f.as_f64())
            .expect("coverage report stored");
        assert!(covered >= 0.90);
        assert_eq!(outcome.get("final_n").unwrap().as_i64(), Some(32));
    }
    assert!(csv_path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
