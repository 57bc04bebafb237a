//! Campaign-level checkpointing: `checkpoint_every` must be purely
//! observational (same bytes as a plain run), resumable (a pre-existing
//! checkpoint file picks the cell up mid-run and still lands on
//! identical results), and self-cleaning (no `.checkpoint` files left
//! after a completed campaign). Corrupt checkpoint files are ignored
//! rather than wedging the campaign.

use laacad_scenario::{
    run_campaign, run_scenario, CampaignRunOptions, CampaignSpec, CellResult, CheckpointPolicy,
    EventAction, EventSpec, PlacementSpec, ResultStore, RunOptions, ScenarioCheckpoint,
    ScenarioSpec,
};
use std::path::PathBuf;

/// Runs `campaign` into a store at `dir`; returns the JSONL and CSV
/// paths and the results.
fn run_into(campaign: &CampaignSpec, dir: &PathBuf) -> (PathBuf, PathBuf, Vec<CellResult>) {
    let store = ResultStore::new(dir);
    let options = CampaignRunOptions {
        store: Some(&store),
        ..CampaignRunOptions::default()
    };
    let results = run_campaign(campaign, options).unwrap();
    let path = |ext: &str| dir.join(format!("{}.{ext}", campaign.name));
    (path("jsonl"), path("csv"), results)
}

/// A churny scenario so the resume path has to restore the timeline
/// hook (fired-event log + RNG stream), not just engine state.
fn churn_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::uniform("ckpt-campaign", 24, 1);
    spec.laacad.max_rounds = 60;
    spec.evaluation.round_coverage_samples = 400;
    spec.events = vec![
        EventSpec {
            round: 3,
            action: EventAction::FailFraction { fraction: 0.2 },
        },
        EventSpec {
            round: 12,
            action: EventAction::Insert {
                placement: PlacementSpec::Uniform { n: 5 },
            },
        },
        EventSpec {
            round: 20,
            action: EventAction::FailFraction { fraction: 0.1 },
        },
    ];
    spec
}

fn campaign(checkpoint_every: usize) -> CampaignSpec {
    let mut campaign = CampaignSpec::over_seeds(churn_spec(), [1, 2]);
    campaign.checkpoint_every = checkpoint_every;
    campaign
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laacad-ckpt-campaign-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpoint_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "checkpoint"))
        .collect();
    files.sort();
    files
}

#[test]
fn checkpointed_campaign_matches_plain_run_and_cleans_up() {
    let plain_dir = fresh_dir("plain");
    let ckpt_dir = fresh_dir("every7");

    let (pj, pc, plain) = run_into(&campaign(0), &plain_dir);
    let (cj, cc, ckpt) = run_into(&campaign(7), &ckpt_dir);

    assert_eq!(plain, ckpt, "checkpointing changed the results");
    assert_eq!(std::fs::read(&pj).unwrap(), std::fs::read(&cj).unwrap());
    assert_eq!(std::fs::read(&pc).unwrap(), std::fs::read(&cc).unwrap());
    assert!(
        checkpoint_files(&ckpt_dir).is_empty(),
        "completed cells must remove their checkpoint files"
    );

    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn campaign_resumes_from_existing_checkpoint_file() {
    let plain_dir = fresh_dir("resume-plain");
    let resume_dir = fresh_dir("resume");

    let (pj, pc, plain) = run_into(&campaign(0), &plain_dir);

    // Simulate a killed earlier run: capture cell 0's mid-run state
    // (seed 1, the checkpoint from round 14 — after the failure and the
    // insert fired) and plant it where the campaign looks for it.
    let spec = churn_spec();
    let mut planted: Option<Vec<u8>> = None;
    let mut sink = |ckpt: &ScenarioCheckpoint| {
        if ckpt.round() == 14 {
            planted = Some(ckpt.to_bytes());
        }
        Ok(())
    };
    let checkpoint = Some(CheckpointPolicy {
        every: 7,
        resume: None,
        sink: &mut sink,
    });
    run_scenario(
        &spec,
        1,
        RunOptions {
            checkpoint,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let planted = planted.expect("round-14 checkpoint was offered");
    std::fs::create_dir_all(&resume_dir).unwrap();
    let campaign7 = campaign(7);
    let cell0 = resume_dir.join(format!("{}.cell0.checkpoint", campaign7.name));
    std::fs::write(&cell0, &planted).unwrap();

    let (rj, rc, resumed) = run_into(&campaign7, &resume_dir);

    assert_eq!(plain, resumed, "resumed cell diverged from a fresh run");
    assert_eq!(std::fs::read(&pj).unwrap(), std::fs::read(&rj).unwrap());
    assert_eq!(std::fs::read(&pc).unwrap(), std::fs::read(&rc).unwrap());
    assert!(!cell0.exists(), "consumed checkpoint must be removed");

    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&resume_dir);
}

#[test]
fn corrupt_checkpoint_file_is_ignored_not_fatal() {
    let plain_dir = fresh_dir("corrupt-plain");
    let corrupt_dir = fresh_dir("corrupt");

    let (_, _, plain) = run_into(&campaign(0), &plain_dir);

    std::fs::create_dir_all(&corrupt_dir).unwrap();
    let campaign7 = campaign(7);
    let cell0 = corrupt_dir.join(format!("{}.cell0.checkpoint", campaign7.name));
    std::fs::write(&cell0, b"laacad-checkpoint/1\ngarbage").unwrap();

    let (_, _, results) = run_into(&campaign7, &corrupt_dir);
    assert_eq!(
        plain, results,
        "corrupt checkpoint must fall back to a fresh run"
    );
    assert!(!cell0.exists());

    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&corrupt_dir);
}
