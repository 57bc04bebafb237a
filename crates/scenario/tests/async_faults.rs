//! The `[faults]` path through the scenario layer: spec parsing,
//! deterministic asynchronous runs with convergence-under-faults
//! metrics, fault grid axes, and the events × faults exclusion.

use laacad_scenario::{
    run_scenario, BackoffSpec, CampaignSpec, CrashSpec, DelaySpec, EventAction, EventSpec,
    FaultSpec, PartitionKindSpec, PartitionSpec, RunOptions, ScenarioSpec,
};

fn faulty_spec(name: &str, loss: f64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::uniform(name, 16, 1);
    spec.laacad.max_rounds = 400;
    spec.laacad.faults = Some(FaultSpec {
        loss,
        ..FaultSpec::default()
    });
    spec
}

/// The scenario of [`faulty_spec`] as TOML text, with `faults` as the
/// body of its `[faults]` table.
fn faulty_toml(name: &str, faults: &str) -> String {
    format!(
        "name = \"{name}\"\n[region]\nkind = \"named\"\nname = \"unit_square\"\n\
         [placement]\nkind = \"uniform\"\nn = 16\n[laacad]\nk = 1\nmax_rounds = 400\n\
         [faults]\n{faults}"
    )
}

#[test]
fn faults_parse_from_their_literal() {
    let mut spec = faulty_spec("rt", 0.1);
    {
        let f = spec.laacad.faults.as_mut().unwrap();
        f.duplicate = 0.05;
        f.jitter = 0.2;
        f.delay = DelaySpec::Exp { mean: 1.5 };
        f.max_retries = 5;
        f.crash = vec![CrashSpec {
            node: 3,
            at: 40,
            recover_at: Some(200),
        }];
    }
    let text = faulty_toml(
        "rt",
        "loss = 0.1\nduplicate = 0.05\njitter = 0.2\ndelay = \"exp\"\ndelay_mean = 1.5\n\
         max_retries = 5\n[[faults.crash]]\nnode = 3\nat = 40\nrecover_at = 200\n",
    );
    assert_eq!(
        ScenarioSpec::from_toml(&text).unwrap(),
        spec,
        "TOML:\n{text}"
    );

    // Omitted knobs take the fault-free defaults: an empty `[faults]`
    // table decodes to `FaultSpec::default()`.
    let bare = faulty_spec("bare", FaultSpec::default().loss);
    let text = faulty_toml("bare", "");
    assert_eq!(
        ScenarioSpec::from_toml(&text).unwrap(),
        bare,
        "TOML:\n{text}"
    );
}

#[test]
fn faulty_scenario_runs_deterministically_with_metrics() {
    let spec = faulty_spec("async-det", 0.1);
    let a = run_scenario(&spec, 11, RunOptions::default()).unwrap();
    let b = run_scenario(&spec, 11, RunOptions::default()).unwrap();
    assert_eq!(a, b, "same spec + seed must replay byte for byte");

    let f = a.faults.as_ref().expect("fault metrics present");
    assert!(f.protocol.lost > 0, "loss knob must drop messages");
    assert!(f.baseline_rounds > 0);
    assert!(f.message_overhead > 0.0);
    assert!(f.baseline_coverage > 0.9);
    assert!(f.coverage_dip >= 0.0);
    assert!(a.coverage.covered_fraction > 0.9);
    // The async path reports per-round series like the sync path.
    assert!(!a.rounds.is_empty());
    assert_eq!(a.final_n, 16);

    let c = run_scenario(&spec, 12, RunOptions::default()).unwrap();
    assert_ne!(a.summary.max_sensing_radius, c.summary.max_sensing_radius);
}

#[test]
fn fault_free_faults_section_still_uses_async_executor() {
    let spec = faulty_spec("async-clean", 0.0);
    let out = run_scenario(&spec, 3, RunOptions::default()).unwrap();
    let f = out.faults.as_ref().unwrap();
    assert_eq!(f.termination, "converged");
    assert_eq!(f.protocol.lost, 0);
    // Zero faults: the async run matches its own sync baseline exactly.
    assert_eq!(f.rounds, f.baseline_rounds);
    assert_eq!(f.coverage_dip, 0.0);
    assert!(out.warnings.is_empty());
}

#[test]
fn events_and_faults_are_mutually_exclusive() {
    let mut spec = faulty_spec("clash", 0.1);
    spec.events.push(EventSpec {
        round: 5,
        action: EventAction::FailFraction { fraction: 0.1 },
    });
    let err = run_scenario(&spec, 1, RunOptions::default()).unwrap_err();
    assert!(err.to_string().contains("[faults]"), "{err}");
}

#[test]
fn outcome_serializes_fault_metrics() {
    let spec = faulty_spec("json", 0.1);
    let out = run_scenario(&spec, 2, RunOptions::default()).unwrap();
    let line = out.to_value();
    let f = line.get("faults").expect("faults table serialized");
    assert!(f.get("termination").is_some());
    assert!(f.get("message_overhead").is_some());
    assert!(f.get("protocol").unwrap().get("lost").is_some());
}

#[test]
fn loss_and_delay_grid_axes_cross_and_override() {
    let mut campaign = CampaignSpec::over_seeds(faulty_spec("sweep", 0.0), [1]);
    campaign.grid.loss = vec![0.0, 0.1];
    campaign.grid.delay = vec![0.0, 2.0];
    let cells = campaign.expand().unwrap();
    assert_eq!(cells.len(), 4);
    let params: Vec<(Option<f64>, Option<f64>)> = cells.iter().map(|c| (c.loss, c.delay)).collect();
    assert_eq!(
        params,
        vec![
            (Some(0.0), Some(0.0)),
            (Some(0.0), Some(2.0)),
            (Some(0.1), Some(0.0)),
            (Some(0.1), Some(2.0)),
        ]
    );
    for cell in &cells {
        let f = cell.scenario.laacad.faults.as_ref().unwrap();
        assert_eq!(f.loss, cell.loss.unwrap());
        match cell.delay.unwrap() {
            0.0 => assert_eq!(f.delay, DelaySpec::None),
            m => assert_eq!(f.delay, DelaySpec::Exp { mean: m }),
        }
    }

    // The same grid axes, parsed from a campaign document.
    let text = r#"
name = "sweep"

[scenario]
name = "sweep"

[scenario.region]
kind = "named"
name = "unit_square"

[scenario.placement]
kind = "uniform"
n = 16

[scenario.laacad]
k = 1
max_rounds = 400

[scenario.faults]
loss = 0.0

[grid]
seeds = [1]
loss = [0.0, 0.1]
delay = [0.0, 2.0]
"#;
    assert_eq!(
        CampaignSpec::from_toml(text).unwrap(),
        campaign,
        "TOML:\n{text}"
    );
}

#[test]
fn fault_axes_without_faults_section_fail_cleanly() {
    let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("plain", 10, 1), [1]);
    campaign.grid.loss = vec![0.1];
    let err = campaign.expand().unwrap_err();
    assert!(err.to_string().contains("[faults]"), "{err}");
}

#[test]
fn partition_heal_recovers_coverage_to_baseline() {
    let mut spec = faulty_spec("heal", 0.0);
    {
        let f = spec.laacad.faults.as_mut().unwrap();
        f.partition = vec![PartitionSpec {
            kind: PartitionKindSpec::Bipartition {
                axis: 'x',
                coord: 0.5,
            },
            at: 10,
            heal_at: Some(150),
        }];
        f.probe_every = 8;
    }
    let out = run_scenario(&spec, 5, RunOptions::default()).unwrap();
    let f = out.faults.as_ref().expect("fault metrics present");

    // The probes observed the open window and measured its floor…
    let floor = f
        .partition_coverage_floor
        .expect("probes ran during the partition window");
    assert!((0.0..=1.0).contains(&floor));
    // …and the recovery time from heal to last movement is reported.
    let recovery = f.heal_recovery_ticks.expect("the partition healed");
    assert!(recovery > 0, "nodes must keep adjusting after the heal");

    // The acceptance criterion: after the heal, coverage recovers to
    // the fault-free baseline (within the evaluation's sampling noise).
    assert!(
        out.coverage.covered_fraction >= f.baseline_coverage - 0.02,
        "final coverage {} did not recover to baseline {}",
        out.coverage.covered_fraction,
        f.baseline_coverage
    );
    assert_eq!(f.protocol.corrupted, 0);
    assert!(f.protocol.partition_dropped > 0, "the partition must bite");

    // Determinism holds with partitions + probes in play.
    let again = run_scenario(&spec, 5, RunOptions::default()).unwrap();
    assert_eq!(out, again);
}

#[test]
fn validated_corruption_quarantines_and_reports() {
    let mut spec = faulty_spec("byzantine", 0.0);
    {
        let f = spec.laacad.faults.as_mut().unwrap();
        f.corruption_rate = 0.15;
    }
    let out = run_scenario(&spec, 9, RunOptions::default()).unwrap();
    let f = out.faults.as_ref().unwrap();
    assert!(
        f.protocol.corrupted > 0,
        "corruption knob must mutate hellos"
    );
    assert!(f.quarantined > 0, "validation must catch liars");
    assert_eq!(f.corrupted_accepted, 0, "validated runs absorb no lies");
    assert!(
        !out.warnings.iter().any(|w| w.contains("corrupted")),
        "validated corruption is handled, not warned about: {:?}",
        out.warnings
    );

    // The new counters ride the JSONL serialization.
    let line = out.to_value();
    let ft = line.get("faults").unwrap();
    assert!(ft.get("quarantined").is_some());
    assert!(ft.get("protocol").unwrap().get("corrupted").is_some());
}

#[test]
fn unvalidated_corruption_surfaces_divergence_warning() {
    let mut spec = faulty_spec("gullible", 0.0);
    {
        let f = spec.laacad.faults.as_mut().unwrap();
        f.corruption_rate = 0.2;
        f.corruption_validate = false;
    }
    let out = run_scenario(&spec, 9, RunOptions::default()).unwrap();
    let f = out.faults.as_ref().unwrap();
    assert!(f.corrupted_accepted > 0, "validation off must absorb lies");
    assert_eq!(f.quarantined, 0);
    assert!(
        out.warnings
            .iter()
            .any(|w| w.contains("corrupted payloads were accepted")),
        "divergence must be reported, not silent: {:?}",
        out.warnings
    );
}

#[test]
fn adaptive_backoff_and_drift_run_through_the_scenario_layer() {
    let mut spec = faulty_spec("adaptive", 0.1);
    {
        let f = spec.laacad.faults.as_mut().unwrap();
        f.backoff = BackoffSpec::Adaptive {
            cap: 64,
            jitter: 0.3,
        };
        f.drift_rate = 0.05;
        f.drift_skew = 2;
    }
    let a = run_scenario(&spec, 4, RunOptions::default()).unwrap();
    let b = run_scenario(&spec, 4, RunOptions::default()).unwrap();
    assert_eq!(a, b, "adaptive backoff + drift must stay deterministic");
    let f = a.faults.as_ref().unwrap();
    assert!(
        f.protocol.rtt_samples > 0,
        "acks must feed the RTT estimator"
    );
    assert!(a.coverage.covered_fraction > 0.9);
}
