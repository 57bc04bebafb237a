//! Campaign determinism: the same spec and seed grid must produce
//! byte-identical JSONL/CSV results, run after run, regardless of how
//! the parallel executor schedules cells.

use laacad_scenario::{
    run_campaign, to_csv, to_jsonl, CampaignRunOptions, CampaignSpec, EventAction, EventSpec,
    PlacementSpec, ScenarioSpec,
};

const SPEC: &str = r#"
name = "determinism-probe"

[scenario]
name = "determinism-probe"

[scenario.region]
kind = "named"
name = "unit_square"

[scenario.placement]
kind = "uniform"
n = 18

[scenario.laacad]
k = 1
alpha = 0.6
gamma = 0.4
max_rounds = 60

[[scenario.events]]
round = 12
action = "fail_fraction"
fraction = 0.2

[[scenario.events]]
round = 20
action = "insert"

[scenario.events.placement]
kind = "clustered"
n = 3
center = [0.5, 0.5]
radius = 0.1

[scenario.evaluation]
coverage_samples = 2000

[grid]
seeds = [1, 2, 3, 4, 5, 6]
k = [1, 2]
"#;

#[test]
fn same_campaign_same_bytes() {
    let campaign = CampaignSpec::from_toml(SPEC).expect("spec parses");
    let first = run_campaign(&campaign, CampaignRunOptions::default()).expect("first run");
    let second = run_campaign(&campaign, CampaignRunOptions::default()).expect("second run");

    let jsonl_a = to_jsonl(&first);
    let jsonl_b = to_jsonl(&second);
    assert_eq!(jsonl_a.len(), jsonl_b.len());
    assert!(jsonl_a == jsonl_b, "JSONL results differ between reruns");
    assert_eq!(to_csv(&first), to_csv(&second));

    // Sanity: the campaign actually did work — 12 cells, events fired.
    assert_eq!(jsonl_a.lines().count(), 12);
    assert!(first.iter().all(|c| c.outcome.is_ok()));
    let with_events = first
        .iter()
        .filter(|c| c.outcome.as_ref().unwrap().events.len() == 2)
        .count();
    assert_eq!(with_events, 12, "both timeline events fire in every cell");
}

#[test]
fn engine_thread_count_never_changes_results() {
    // The per-cell `threads` knob parallelizes the synchronous round
    // engine itself; JSONL stores must stay byte-identical across it.
    let campaign = CampaignSpec::from_toml(SPEC).expect("spec parses");
    let serial =
        to_jsonl(&run_campaign(&campaign, CampaignRunOptions::default()).expect("serial run"));
    for threads in [0usize, 4] {
        let mut parallel_campaign = campaign.clone();
        parallel_campaign.scenario.laacad.threads = Some(threads);
        let parallel = to_jsonl(
            &run_campaign(&parallel_campaign, CampaignRunOptions::default()).expect("parallel run"),
        );
        assert!(
            serial == parallel,
            "threads={threads} changed campaign results"
        );
    }
}

#[test]
fn different_seeds_different_results() {
    let campaign = CampaignSpec::from_toml(SPEC).expect("spec parses");
    let results = run_campaign(&campaign, CampaignRunOptions::default()).expect("run");
    let a = results[0].outcome.as_ref().unwrap();
    let b = results[1].outcome.as_ref().unwrap();
    assert_ne!(
        a.summary.max_sensing_radius, b.summary.max_sensing_radius,
        "distinct seeds must explore distinct deployments"
    );
}

#[test]
fn programmatic_and_parsed_specs_agree() {
    // The campaign of `SPEC`, built in code, equals the parsed one and
    // produces identical results.
    let mut scenario = ScenarioSpec::uniform("determinism-probe", 18, 1);
    scenario.laacad.alpha = 0.6;
    scenario.laacad.gamma = Some(0.4);
    scenario.laacad.max_rounds = 60;
    scenario.events = vec![
        EventSpec {
            round: 12,
            action: EventAction::FailFraction { fraction: 0.2 },
        },
        EventSpec {
            round: 20,
            action: EventAction::Insert {
                placement: PlacementSpec::Clustered {
                    n: 3,
                    center: (0.5, 0.5),
                    radius: 0.1,
                },
            },
        },
    ];
    scenario.evaluation.coverage_samples = 2000;
    let mut programmatic = CampaignSpec::over_seeds(scenario, 1..=6);
    programmatic.grid.k = vec![1, 2];

    let parsed = CampaignSpec::from_toml(SPEC).expect("spec parses");
    assert_eq!(programmatic, parsed);
    let a = run_campaign(&programmatic, CampaignRunOptions::default()).unwrap();
    let b = run_campaign(&parsed, CampaignRunOptions::default()).unwrap();
    assert_eq!(to_jsonl(&a), to_jsonl(&b));
}
