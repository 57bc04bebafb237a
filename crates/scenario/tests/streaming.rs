//! The streaming result store must be invisible in the artifacts: a
//! campaign streamed row-by-row to disk (flush per completed cell)
//! produces **byte-identical** JSONL and CSV files to [`to_jsonl`] /
//! [`to_csv`] of the same results — and the in-memory results it
//! returns match a store-less [`run_campaign`]'s exactly.

use laacad_scenario::{
    run_campaign, to_csv, to_jsonl, CampaignRunOptions, CampaignSpec, CellResult, ResultStore,
    ScenarioSpec,
};
use std::path::{Path, PathBuf};

/// Runs `campaign` into a store at `dir`; returns the JSONL and CSV
/// paths and the results.
fn run_into(campaign: &CampaignSpec, dir: &Path) -> (PathBuf, PathBuf, Vec<CellResult>) {
    let store = ResultStore::new(dir);
    let options = CampaignRunOptions {
        store: Some(&store),
        ..CampaignRunOptions::default()
    };
    let results = run_campaign(campaign, options).unwrap();
    let path = |ext: &str| dir.join(format!("{}.{ext}", campaign.name));
    (path("jsonl"), path("csv"), results)
}

fn campaign() -> CampaignSpec {
    let mut spec = ScenarioSpec::uniform("stream", 10, 1);
    spec.laacad.max_rounds = 30;
    let mut campaign = CampaignSpec::over_seeds(spec, [1, 2, 3]);
    campaign.grid.k = vec![1, 2];
    campaign
}

#[test]
fn streamed_files_are_byte_identical_to_buffered_files() {
    let campaign = campaign();
    let streamed_dir = std::env::temp_dir().join("laacad-stream-test-streamed");
    let _ = std::fs::remove_dir_all(&streamed_dir);

    let results = run_campaign(&campaign, CampaignRunOptions::default()).unwrap();

    let (sj, sc, streamed_results) = run_into(&campaign, &streamed_dir);

    assert_eq!(results, streamed_results, "in-memory results diverged");
    assert_eq!(
        to_jsonl(&results).into_bytes(),
        std::fs::read(&sj).unwrap(),
        "JSONL files diverged"
    );
    assert_eq!(
        to_csv(&results).into_bytes(),
        std::fs::read(&sc).unwrap(),
        "CSV files diverged"
    );
    let _ = std::fs::remove_dir_all(&streamed_dir);
}

#[test]
fn streamed_rows_include_failed_cells() {
    // A cell whose overrides cannot build reports its error through the
    // stream exactly like the buffered path.
    let mut campaign = campaign();
    campaign.scenario.laacad.gamma = Some(-1.0); // invalid: every cell fails
    let dir = std::env::temp_dir().join("laacad-stream-test-errors");
    let _ = std::fs::remove_dir_all(&dir);
    let (jsonl, _, results) = run_into(&campaign, &dir);
    assert!(results.iter().all(|r| r.outcome.is_err()));
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert_eq!(text.lines().count(), results.len());
    assert!(text.lines().all(|l| l.contains("\"error\"")));
    let _ = std::fs::remove_dir_all(&dir);
}
