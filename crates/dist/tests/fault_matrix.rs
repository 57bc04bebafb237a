//! Fault-injection behavior: the loss × delay smoke matrix (every cell
//! must converge or exhaust its budget gracefully — never panic, never
//! deadlock), byte-reproducibility from `(seed, FaultPlan)` alone, and
//! the crash/recover + budget edge cases.

use laacad::LaacadConfig;
use laacad_dist::{
    AsyncConfig, AsyncExecutor, AsyncRunReport, Axis, Backoff, Corruption, CrashEvent, DelayModel,
    Drift, FaultPlan, PartitionKind, PartitionSchedule, Termination,
};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;

fn config(seed: u64) -> LaacadConfig {
    LaacadConfig::builder(1)
        .alpha(0.6)
        .epsilon(1e-3)
        .transmission_range(0.45)
        .max_rounds(400)
        .seed(seed)
        .build()
        .unwrap()
}

/// Runs one cell with `LaacadConfig::threads` set to `threads` (which
/// the executor does not read); returns the report plus every
/// node's position and sensing-radius bits.
fn run_threads(
    seed: u64,
    n: usize,
    plan: FaultPlan,
    threads: usize,
) -> (AsyncRunReport, Vec<(u64, u64, u64)>) {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, n, seed);
    let mut cfg = config(seed);
    cfg.threads = threads;
    let mut exec =
        AsyncExecutor::new(cfg, region, positions, plan, AsyncConfig::default()).unwrap();
    let report = exec.run();
    let net = exec.network();
    let bits = net
        .positions()
        .iter()
        .zip(net.sensing_radii())
        .map(|(p, r)| (p.x.to_bits(), p.y.to_bits(), r.to_bits()))
        .collect();
    (report, bits)
}

fn run(seed: u64, n: usize, plan: FaultPlan) -> (AsyncRunReport, Vec<(u64, u64)>) {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, n, seed);
    let mut exec = AsyncExecutor::new(
        config(seed),
        region,
        positions,
        plan,
        AsyncConfig::default(),
    )
    .unwrap();
    let report = exec.run();
    let bits = exec
        .network()
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    (report, bits)
}

/// The CI smoke matrix from the issue: loss ∈ {0, 0.1} × delay ∈
/// {none, exp}. Every cell either converges or terminates gracefully on
/// a budget — and faults may slow convergence, never corrupt the run.
#[test]
fn loss_delay_matrix_converges_or_exhausts_gracefully() {
    for &loss in &[0.0, 0.1] {
        for &delay in &[DelayModel::None, DelayModel::Exp { mean: 2.0 }] {
            let plan = FaultPlan {
                loss,
                delay,
                ..FaultPlan::default()
            };
            let (report, bits) = run(1234, 20, plan);
            assert!(
                matches!(
                    report.termination,
                    Termination::Converged
                        | Termination::RoundLimit
                        | Termination::TickBudget
                        | Termination::EventBudget
                ),
                "loss={loss} delay={delay:?}: unexpected termination {:?}",
                report.termination
            );
            // The deployment is always reported and well-formed.
            assert_eq!(bits.len(), 20);
            assert_eq!(report.final_rhos.len(), 20);
            assert!(report.summary.max_sensing_radius.is_finite());
            assert!(report.summary.rounds > 0);
            if loss > 0.0 {
                assert!(report.protocol.lost > 0, "loss knob must actually drop");
            }
        }
    }
}

/// Lost probes cost retries (and possibly timeouts), not correctness:
/// a lossy run still converges to a valid deployment.
#[test]
fn loss_degrades_speed_not_correctness() {
    let plan = FaultPlan {
        loss: 0.15,
        ..FaultPlan::default()
    };
    let (report, _) = run(77, 20, plan);
    assert!(report.protocol.lost > 0);
    assert!(
        report.protocol.retransmissions > 0,
        "lost hellos must trigger the retry layer"
    );
    assert_eq!(report.termination, Termination::Converged);
}

/// Identical `(seed, plan)` pairs replay the entire run byte for byte;
/// a different seed diverges (the knobs actually randomize).
#[test]
fn fault_runs_reproduce_from_seed_and_plan() {
    let plan = FaultPlan {
        loss: 0.1,
        duplicate: 0.05,
        jitter: 0.1,
        delay: DelayModel::Exp { mean: 1.5 },
        crashes: vec![CrashEvent {
            node: 3,
            at: 40,
            recover_at: Some(400),
        }],
        ..FaultPlan::default()
    };
    let (report_a, bits_a) = run(2024, 18, plan.clone());
    let (report_b, bits_b) = run(2024, 18, plan.clone());
    assert_eq!(report_a, report_b, "same (seed, plan) must replay exactly");
    assert_eq!(bits_a, bits_b);

    let (report_c, bits_c) = run(2025, 18, plan);
    assert!(
        bits_a != bits_c || report_a.protocol != report_c.protocol,
        "different seed should perturb the run"
    );
}

/// Crash/recover: the crashed node goes silent (drawing
/// `dropped_to_crashed` deliveries) but stays physically deployed, and
/// rejoins the protocol after recovery.
#[test]
fn crash_and_recover_are_survivable() {
    let plan = FaultPlan {
        crashes: vec![CrashEvent {
            node: 2,
            at: 30,
            recover_at: Some(300),
        }],
        ..FaultPlan::default()
    };
    let (report, bits) = run(555, 16, plan);
    assert_eq!(report.protocol.crashes, 1);
    assert_eq!(report.protocol.recoveries, 1);
    assert!(report.protocol.dropped_to_crashed > 0);
    // Fail-stop is coordination-plane only: the node never leaves the
    // ground-truth network.
    assert_eq!(bits.len(), 16);
    assert!(matches!(
        report.termination,
        Termination::Converged | Termination::RoundLimit
    ));
}

/// Crashing every node with no recovery drains the queue prematurely:
/// quiescence detection reports a deadlock instead of spinning or
/// panicking.
#[test]
fn total_crash_is_reported_as_deadlock() {
    let crashes = (0..10)
        .map(|node| CrashEvent {
            node,
            at: 6,
            recover_at: None,
        })
        .collect();
    let plan = FaultPlan {
        crashes,
        ..FaultPlan::default()
    };
    let (report, _) = run(1, 10, plan);
    assert_eq!(report.termination, Termination::Deadlock);
    assert_eq!(report.protocol.crashes, 10);
    assert!(!report.summary.converged);
}

/// A tiny tick budget cuts the run mid-flight; the partial deployment
/// is finalized and reported, not panicked.
#[test]
fn tick_budget_exhaustion_is_graceful() {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, 16, 99);
    let mut exec = AsyncExecutor::new(
        config(99),
        region,
        positions,
        FaultPlan::none(),
        AsyncConfig {
            max_ticks: 25,
            ..AsyncConfig::default()
        },
    )
    .unwrap();
    let report = exec.run();
    assert_eq!(report.termination, Termination::TickBudget);
    assert!(!report.summary.converged);
    assert!(report.ticks <= 25);
    // Finalization still ran: every node has a covering sensing range.
    assert!(report.summary.max_sensing_radius > 0.0);
    assert_eq!(report.final_rhos.len(), 16);
}

/// Duplication and jitter knobs leave convergence intact (acks are
/// idempotent; reordered copies are absorbed by the retry layer).
#[test]
fn duplication_and_jitter_are_idempotent() {
    let plan = FaultPlan {
        duplicate: 0.2,
        jitter: 0.2,
        delay: DelayModel::Uniform { lo: 0, hi: 2 },
        ..FaultPlan::default()
    };
    let (report, _) = run(31337, 16, plan);
    assert!(report.protocol.duplicated > 0);
    assert_eq!(report.termination, Termination::Converged);
}

/// The adversarial fault plans exercised by the `threads` sweep:
/// every class of fault the engine models, alone and combined.
fn adversarial_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "baseline_lossy",
            FaultPlan {
                loss: 0.1,
                duplicate: 0.05,
                jitter: 0.1,
                delay: DelayModel::Exp { mean: 1.5 },
                crashes: vec![CrashEvent {
                    node: 3,
                    at: 40,
                    recover_at: Some(400),
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "corruption_validated",
            FaultPlan {
                loss: 0.05,
                corruption: Some(Corruption {
                    rate: 0.1,
                    ..Corruption::default()
                }),
                ..FaultPlan::default()
            },
        ),
        (
            "partition_heals",
            FaultPlan {
                partitions: vec![PartitionSchedule {
                    kind: PartitionKind::Bipartition {
                        axis: Axis::X,
                        at: 0.5,
                    },
                    at: 10,
                    heal_at: Some(160),
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "drifting_clocks",
            FaultPlan {
                loss: 0.05,
                drift: Some(Drift { rate: 0.2, skew: 3 }),
                ..FaultPlan::default()
            },
        ),
        (
            "everything_at_once",
            FaultPlan {
                loss: 0.08,
                duplicate: 0.03,
                jitter: 0.05,
                delay: DelayModel::Uniform { lo: 0, hi: 2 },
                crashes: vec![CrashEvent {
                    node: 1,
                    at: 60,
                    recover_at: Some(420),
                }],
                corruption: Some(Corruption {
                    rate: 0.05,
                    ..Corruption::default()
                }),
                partitions: vec![PartitionSchedule {
                    kind: PartitionKind::Links {
                        pairs: vec![(0, 2), (4, 5)],
                    },
                    at: 30,
                    heal_at: Some(200),
                }],
                drift: Some(Drift { rate: 0.1, skew: 2 }),
            },
        ),
    ]
}

/// The headline reproducibility guarantee: for every adversarial plan,
/// a run with `threads = 4` replays the `threads = 1` run byte for
/// byte: positions, sensing radii, protocol counters, round records, ρ.
/// The executor runs on one thread and does not read the knob; this
/// pins that `threads` never reaches async output.
#[test]
fn batched_event_loop_is_thread_count_invariant() {
    for (name, plan) in adversarial_plans() {
        let (report_1, bits_1) = run_threads(2024, 18, plan.clone(), 1);
        let (report_4, bits_4) = run_threads(2024, 18, plan.clone(), 4);
        assert_eq!(
            bits_1, bits_4,
            "{name}: positions/radii diverged (threads 4)"
        );
        assert_eq!(report_1, report_4, "{name}: report diverged (threads 4)");
    }
}

/// Adaptive backoff keeps the same guarantee: `(seed, plan)` determinism,
/// with `threads` never reaching the output, holds when retry timeouts
/// come from per-node RTT estimates with jittered exponential backoff.
#[test]
fn adaptive_backoff_is_thread_count_invariant() {
    let plan = FaultPlan {
        loss: 0.1,
        delay: DelayModel::Exp { mean: 1.5 },
        ..FaultPlan::default()
    };
    let proto = AsyncConfig {
        backoff: Backoff::ExponentialJittered {
            cap: 64,
            jitter: 0.3,
        },
        ..AsyncConfig::default()
    };
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, 18, 2024);
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = config(2024);
        cfg.threads = threads;
        let mut exec =
            AsyncExecutor::new(cfg, region.clone(), positions.clone(), plan.clone(), proto)
                .unwrap();
        let report = exec.run();
        let bits: Vec<(u64, u64)> = exec
            .network()
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        assert!(report.protocol.rtt_samples > 0, "estimator never fed");
        runs.push((report, bits));
    }
    assert_eq!(runs[0], runs[1]);
}

/// Crash events naming nonexistent nodes are rejected up front.
#[test]
fn invalid_crash_node_is_rejected() {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, 8, 5);
    let plan = FaultPlan {
        crashes: vec![CrashEvent {
            node: 8,
            at: 0,
            recover_at: None,
        }],
        ..FaultPlan::default()
    };
    let err = AsyncExecutor::new(config(5), region, positions, plan, AsyncConfig::default())
        .err()
        .expect("out-of-range crash target must fail");
    assert!(matches!(err, laacad::LaacadError::UnknownNode { .. }));
}
