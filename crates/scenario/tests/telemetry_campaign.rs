//! The observed campaign runner: per-cell telemetry files beside the
//! result store, a live progress feed, and — above all — results
//! byte-identical to a telemetry-free run. Also pins the shipped
//! `scenarios/telemetry_demo.toml` example (spec-level telemetry knob +
//! mixed zip/cross grid).

use laacad::telemetry::validate::validate_metrics_jsonl;
use laacad_scenario::{
    run_campaign, CampaignProgress, CampaignRunOptions, CampaignSpec, CellResult, ResultStore,
    ScenarioSpec,
};
use std::path::{Path, PathBuf};

/// Runs `campaign` into `store`; returns the JSONL and CSV paths and
/// the results.
fn run_into<'a>(
    campaign: &CampaignSpec,
    store: &'a ResultStore,
    options: CampaignRunOptions<'a>,
) -> (PathBuf, PathBuf, Vec<CellResult>) {
    let options = CampaignRunOptions {
        store: Some(store),
        ..options
    };
    let results = run_campaign(campaign, options).unwrap();
    let path = |ext: &str| store.dir().join(format!("{}.{ext}", campaign.name));
    (path("jsonl"), path("csv"), results)
}

fn campaign() -> CampaignSpec {
    let mut spec = ScenarioSpec::uniform("obs", 12, 1);
    spec.laacad.max_rounds = 40;
    let mut campaign = CampaignSpec::over_seeds(spec, [1, 2]);
    campaign.grid.k = vec![1, 2];
    campaign
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laacad-telemetry-campaign-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn telemetry_paths(dir: &Path, name: &str, index: usize) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("{name}.cell{index}.telemetry.jsonl")),
        dir.join(format!("{name}.cell{index}.trace.json")),
    )
}

#[test]
fn observed_campaign_emits_valid_per_cell_telemetry() {
    let campaign = campaign();
    let plain_dir = fresh_dir("plain");
    let observed_dir = fresh_dir("observed");

    let (pj, pc, plain) = run_into(
        &campaign,
        &ResultStore::new(&plain_dir),
        CampaignRunOptions::default(),
    );

    let mut progress: Vec<CampaignProgress> = Vec::new();
    let mut on_progress = |p: &CampaignProgress| progress.push(p.clone());
    let (oj, oc, observed) = run_into(
        &campaign,
        &ResultStore::new(&observed_dir),
        CampaignRunOptions {
            telemetry: true,
            progress: Some(&mut on_progress),
            ..CampaignRunOptions::default()
        },
    );

    // Telemetry is observational: in-memory results and the result
    // files stay byte-identical to the telemetry-free run.
    assert_eq!(plain, observed, "telemetry changed the results");
    assert_eq!(std::fs::read(&pj).unwrap(), std::fs::read(&oj).unwrap());
    assert_eq!(std::fs::read(&pc).unwrap(), std::fs::read(&oc).unwrap());

    // One metric stream + one trace per cell, both well-formed.
    for r in &observed {
        let (metrics, trace) = telemetry_paths(&observed_dir, &campaign.name, r.cell.index);
        let doc = std::fs::read_to_string(&metrics).unwrap();
        let summary = validate_metrics_jsonl(&doc).expect("schema-valid metric stream");
        let outcome = r.outcome.as_ref().unwrap();
        assert_eq!(summary.rounds, outcome.summary.rounds as u64);
        assert_eq!(
            summary.counter_total("messages_broadcast"),
            outcome.summary.messages.broadcast
        );
        assert!(summary.counter_total("ring_searches") > 0);
        let trace = std::fs::read_to_string(&trace).unwrap();
        assert!(
            trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            "not a Chrome trace-event file"
        );
        assert!(trace.contains("\"name\":\"round\""));
    }

    // The progress feed fired once per cell, in expansion order, with a
    // live throughput estimate.
    assert_eq!(progress.len(), observed.len());
    for (i, p) in progress.iter().enumerate() {
        assert_eq!(p.completed, i + 1);
        assert_eq!(p.total, observed.len());
    }
    let last = progress.last().unwrap();
    assert!(last.cells_per_minute > 0.0);
    assert_eq!(last.eta_secs, Some(0.0));

    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&observed_dir);
}

#[test]
fn metric_streams_are_byte_stable_across_reruns() {
    let campaign = campaign();
    let dir_a = fresh_dir("rerun-a");
    let dir_b = fresh_dir("rerun-b");
    for dir in [&dir_a, &dir_b] {
        run_into(
            &campaign,
            &ResultStore::new(dir),
            CampaignRunOptions {
                telemetry: true,
                ..CampaignRunOptions::default()
            },
        );
    }
    for index in 0..4 {
        let (a, _) = telemetry_paths(&dir_a, &campaign.name, index);
        let (b, _) = telemetry_paths(&dir_b, &campaign.name, index);
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "cell {index} metric stream is not byte-stable"
        );
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn spec_level_telemetry_knob_records_without_options() {
    // `laacad.telemetry = true` in the scenario is enough: a run with a
    // store and default options records those cells.
    let mut campaign = campaign();
    campaign.scenario.laacad.telemetry = true;
    let dir = fresh_dir("spec-knob");
    let (_, _, results) = run_into(
        &campaign,
        &ResultStore::new(&dir),
        CampaignRunOptions::default(),
    );
    for r in &results {
        let (metrics, trace) = telemetry_paths(&dir, &campaign.name, r.cell.index);
        assert!(metrics.exists(), "cell {} metrics missing", r.cell.index);
        assert!(trace.exists(), "cell {} trace missing", r.cell.index);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_demo_spec_loads_and_expands() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join("telemetry_demo.toml");
    let campaign = CampaignSpec::from_path(&path).unwrap();
    assert!(campaign.scenario.laacad.telemetry, "demo enables telemetry");
    let cells = campaign.expand().unwrap();
    assert_eq!(cells.len(), 8, "2 fused (n, gamma) tuples × 2 k × 2 seeds");
    // The fused axis holds (n, gamma) pairs together.
    for c in &cells {
        match c.n {
            40 => assert_eq!(c.gamma, Some(0.4)),
            90 => assert_eq!(c.gamma, Some(0.28)),
            other => panic!("unexpected n {other}"),
        }
    }
}
