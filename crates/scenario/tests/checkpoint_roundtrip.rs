//! The CI checkpoint/resume smoke: a 300-round failure+churn run
//! checkpointed at round 50, resumed, and diffed — the resumed outcome
//! must serialize to the very bytes of the uninterrupted run (JSONL and
//! CSV), and the checkpoint must survive a disk round-trip.

use laacad_scenario::{
    run_scenario, to_csv, to_jsonl, CampaignSpec, CellResult, CheckpointPolicy, EventAction,
    EventSpec, PlacementSpec, RunOptions, ScenarioCheckpoint, ScenarioOutcome, ScenarioSpec,
    SpecError, CHECKPOINT_MAGIC,
};

/// 40 nodes, k = 2, a 300-round budget, and a failure+churn timeline
/// spanning the checkpoint: a 25% crash before round 50, reinforcements
/// and a second failure long after it.
fn churn_300_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::uniform("ckpt-roundtrip", 40, 2);
    spec.laacad.max_rounds = 300;
    spec.evaluation.round_coverage_samples = 400;
    spec.events = vec![
        EventSpec {
            round: 30,
            action: EventAction::FailFraction { fraction: 0.25 },
        },
        EventSpec {
            round: 100,
            action: EventAction::Insert {
                placement: PlacementSpec::Uniform { n: 10 },
            },
        },
        EventSpec {
            round: 200,
            action: EventAction::FailFraction { fraction: 0.1 },
        },
    ];
    spec
}

/// Runs `spec` at `seed`, checkpointing every `every` rounds into
/// `sink`, or resuming from `resume`.
fn run_checkpointed(
    spec: &ScenarioSpec,
    seed: u64,
    every: usize,
    resume: Option<&ScenarioCheckpoint>,
    sink: &mut dyn FnMut(&ScenarioCheckpoint) -> Result<(), SpecError>,
) -> Result<ScenarioOutcome, SpecError> {
    let checkpoint = Some(CheckpointPolicy {
        every,
        resume,
        sink,
    });
    let options = RunOptions {
        checkpoint,
        ..RunOptions::default()
    };
    run_scenario(spec, seed, options)
}

/// Serializes one outcome the way the campaign result store would, so
/// "diff the JSONL" is a literal byte comparison.
fn result_bytes(spec: &ScenarioSpec, seed: u64, outcome: ScenarioOutcome) -> (String, String) {
    let campaign = CampaignSpec::over_seeds(spec.clone(), [seed]);
    let mut cell = campaign.expand().unwrap().remove(0);
    let results = [CellResult {
        cell: laacad_scenario::CellInfo {
            index: cell.index,
            scenario: std::mem::take(&mut cell.scenario.name),
            seed: cell.seed,
            n: cell.n,
            k: cell.k,
            alpha: cell.alpha,
            gamma: cell.gamma,
            loss: cell.loss,
            delay: cell.delay,
            corruption: cell.corruption,
        },
        outcome: Ok(outcome),
    }];
    (to_jsonl(&results), to_csv(&results))
}

#[test]
fn checkpoint_at_round_50_resumes_to_identical_jsonl() {
    let spec = churn_300_spec();
    let seed = 1_234;

    let plain = run_scenario(&spec, seed, RunOptions::default()).unwrap();
    assert!(
        plain.summary.rounds > 100,
        "the smoke needs a long run; got {} rounds",
        plain.summary.rounds
    );

    // Checkpoint every 50 rounds, keep the round-50 state, and push it
    // through bytes — the shape a killed process would leave on disk.
    let mut round50: Option<Vec<u8>> = None;
    let checkpointed = run_checkpointed(&spec, seed, 50, None, &mut |ckpt| {
        if ckpt.round() == 50 {
            round50 = Some(ckpt.to_bytes());
        }
        Ok(())
    })
    .unwrap();
    let bytes = round50.expect("round 50 checkpoint was offered");
    let ckpt = ScenarioCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(ckpt.round(), 50);
    let resumed = run_checkpointed(&spec, seed, 0, Some(&ckpt), &mut |_| Ok(())).unwrap();

    let (plain_jsonl, plain_csv) = result_bytes(&spec, seed, plain);
    let (ckpt_jsonl, _) = result_bytes(&spec, seed, checkpointed);
    let (resumed_jsonl, resumed_csv) = result_bytes(&spec, seed, resumed);
    assert_eq!(plain_jsonl, ckpt_jsonl, "checkpointing changed the run");
    assert_eq!(plain_jsonl, resumed_jsonl, "resume diverged from the run");
    assert_eq!(plain_csv, resumed_csv);
}

/// The checkpoint decoder and the resume path are an input boundary:
/// every single-byte flip of the header, hook and probe sections (the
/// embedded session snapshot has its own test in `laacad`) and every
/// truncation must be refused or resume to exactly the uninterrupted
/// outcome — never panic, never resume to a different answer.
#[test]
fn corrupt_and_truncated_checkpoints_never_panic() {
    let spec = churn_300_spec();
    let seed = 1_234;
    let plain = run_scenario(&spec, seed, RunOptions::default()).unwrap();
    let mut round50 = None;
    run_checkpointed(&spec, seed, 50, None, &mut |ckpt| {
        if ckpt.round() == 50 {
            round50 = Some(ckpt.to_bytes());
        }
        Ok(())
    })
    .unwrap();
    let bytes = round50.expect("round 50 checkpoint was offered");

    // Magic line, round and snapshot length form the header; the loop
    // verdict, hook and probe sections follow the embedded snapshot.
    let header = CHECKPOINT_MAGIC.len() + 16;
    let session_len = u64::from_le_bytes(bytes[header - 8..header].try_into().unwrap()) as usize;
    for at in (0..header).chain(header + session_len..bytes.len()) {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= flip;
            let Ok(ckpt) = ScenarioCheckpoint::from_bytes(&corrupt) else {
                continue;
            };
            if let Ok(resumed) = run_checkpointed(&spec, seed, 0, Some(&ckpt), &mut |_| Ok(())) {
                assert_eq!(
                    resumed, plain,
                    "byte {at} ^ {flip:#04x} resumed differently"
                );
            }
        }
    }
    for len in 0..bytes.len() {
        assert!(
            ScenarioCheckpoint::from_bytes(&bytes[..len]).is_err(),
            "a {len}-byte prefix decoded"
        );
    }
}
