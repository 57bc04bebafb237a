//! Adversarial-engine behavior: Byzantine payload corruption with and
//! without receiver-side validation, link partitions with healing,
//! clock drift, adaptive backoff, and the crash-while-awaiting-acks /
//! retry-exhaustion edge cases.

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

fn run_with(
    seed: u64,
    n: usize,
    plan: FaultPlan,
    proto: AsyncConfig,
) -> (AsyncRunReport, Vec<(u64, u64)>) {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, n, seed);
    let mut exec = AsyncExecutor::new(config(seed), region, positions, plan, proto).unwrap();
    let report = exec.run();
    let bits = exec
        .network()
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    (report, bits)
}

fn run(seed: u64, n: usize, plan: FaultPlan) -> (AsyncRunReport, Vec<(u64, u64)>) {
    run_with(seed, n, plan, AsyncConfig::default())
}

/// With validation on, a 10% corruption rate costs quarantines and
/// retries — never termination. The acceptance bar: the corrupted run
/// still terminates (no deadlock) and converges within 2× the
/// fault-free round count.
#[test]
fn validated_corruption_terminates_within_twice_baseline() {
    let (baseline, _) = run(7, 20, FaultPlan::none());
    assert_eq!(baseline.termination, Termination::Converged);
    let plan = FaultPlan {
        corruption: Some(Corruption {
            rate: 0.1,
            ..Corruption::default()
        }),
        ..FaultPlan::default()
    };
    let (report, _) = run(7, 20, plan);
    assert!(
        matches!(
            report.termination,
            Termination::Converged | Termination::RoundLimit
        ),
        "corrupted run must terminate, got {:?}",
        report.termination
    );
    assert!(report.protocol.corrupted > 0, "corruption knob inert");
    assert!(
        report.summary.rounds <= 2 * baseline.summary.rounds,
        "corruption blew convergence past 2x baseline: {} vs {}",
        report.summary.rounds,
        baseline.summary.rounds
    );
}

/// Validation catches implausible claims and quarantines their senders;
/// quarantined liars exhaust retries against the rejecting receiver and
/// compute with a partial neighborhood — the protocol keeps moving.
#[test]
fn quarantine_isolates_liars_without_deadlock() {
    let plan = FaultPlan {
        corruption: Some(Corruption {
            rate: 0.3,
            quarantine_ticks: 32,
            ..Corruption::default()
        }),
        ..FaultPlan::default()
    };
    let (report, _) = run(11, 20, plan);
    assert!(report.protocol.corrupted > 0);
    assert!(
        report.protocol.quarantined > 0,
        "no lie was ever implausible enough to catch"
    );
    assert!(
        matches!(
            report.termination,
            Termination::Converged | Termination::RoundLimit
        ),
        "got {:?}",
        report.termination
    );
    // Quarantine windows expire, so nothing is permanently severed.
    assert_eq!(report.protocol.corrupted_accepted, 0);
}

/// With validation off, receivers believe what they hear: absorbed lies
/// are counted in `corrupted_accepted`, so the (possible) divergence
/// from ground truth is detected and reported — never silent.
#[test]
fn unvalidated_corruption_reports_divergence() {
    let plan = FaultPlan {
        corruption: Some(Corruption {
            rate: 0.3,
            validate: false,
            ..Corruption::default()
        }),
        ..FaultPlan::default()
    };
    let (report, bits) = run(13, 20, plan);
    assert!(report.protocol.corrupted > 0);
    assert!(
        report.protocol.corrupted_accepted > 0,
        "absorbed lies must be counted, not silently believed"
    );
    assert_eq!(report.protocol.quarantined, 0, "validation was off");
    // The run still terminates with a well-formed (if perturbed)
    // deployment.
    assert!(matches!(
        report.termination,
        Termination::Converged | Termination::RoundLimit
    ));
    assert_eq!(bits.len(), 20);
    assert!(report.summary.max_sensing_radius.is_finite());
}

/// A timed bipartition heals and the deployment re-equilibrates: the
/// healed run reaches the same convergence quality as the fault-free
/// baseline (converged, comparable sensing radii), and the report pins
/// the heal tick for recovery-time accounting.
#[test]
fn partition_heal_recovers_to_baseline_quality() {
    let (baseline, _) = run(21, 18, FaultPlan::none());
    assert_eq!(baseline.termination, Termination::Converged);
    let plan = FaultPlan {
        partitions: vec![PartitionSchedule {
            kind: PartitionKind::Bipartition {
                axis: Axis::X,
                at: 0.5,
            },
            at: 10,
            heal_at: Some(150),
        }],
        ..FaultPlan::default()
    };
    let (report, _) = run(21, 18, plan);
    assert!(report.protocol.partition_dropped > 0, "partition inert");
    assert_eq!(report.last_heal_tick, Some(150));
    assert_eq!(
        report.termination,
        Termination::Converged,
        "healed run must re-converge"
    );
    assert!(report.ticks > 150, "converged before the heal?");
    // Re-equilibrated, not stuck at the island optimum: the final
    // sensing radii are in the fault-free ballpark.
    assert!(
        report.summary.max_sensing_radius <= baseline.summary.max_sensing_radius * 1.5,
        "post-heal deployment much worse than baseline: {} vs {}",
        report.summary.max_sensing_radius,
        baseline.summary.max_sensing_radius
    );
}

/// A permanent partition leaves both islands converging separately —
/// the run terminates without a heal tick.
#[test]
fn permanent_partition_still_terminates() {
    let plan = FaultPlan {
        partitions: vec![PartitionSchedule {
            kind: PartitionKind::Bipartition {
                axis: Axis::Y,
                at: 0.5,
            },
            at: 0,
            heal_at: None,
        }],
        ..FaultPlan::default()
    };
    let (report, _) = run(33, 18, plan);
    assert_eq!(report.last_heal_tick, None);
    assert!(matches!(
        report.termination,
        Termination::Converged | Termination::RoundLimit
    ));
}

/// Coverage probes observe the run at the scheduled cadence over the
/// partition window (plus the post-heal tail) without perturbing it.
#[test]
fn probes_observe_partition_windows() {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, 16, 5);
    let plan = FaultPlan {
        partitions: vec![PartitionSchedule {
            kind: PartitionKind::Bipartition {
                axis: Axis::X,
                at: 0.5,
            },
            at: 20,
            heal_at: Some(80),
        }],
        ..FaultPlan::default()
    };
    let mut exec =
        AsyncExecutor::new(config(5), region, positions, plan, AsyncConfig::default()).unwrap();
    let ticks = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = ticks.clone();
    exec.set_probe(
        10,
        Box::new(move |tick, net| {
            sink.lock().unwrap().push((tick, net.len()));
        }),
    );
    let report = exec.run();
    let ticks = ticks.lock().unwrap();
    assert!(!ticks.is_empty(), "probe never fired");
    assert!(ticks.iter().any(|&(t, _)| (20..80).contains(&t)));
    assert!(ticks.iter().any(|&(t, _)| t >= 80), "no post-heal probe");
    assert!(ticks.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(matches!(
        report.termination,
        Termination::Converged | Termination::RoundLimit
    ));
}

/// Clock drift perturbs node-local timers (observable as a different
/// tick count from the ideal-clock run) without breaking termination.
#[test]
fn clock_drift_perturbs_timing_not_correctness() {
    let base = FaultPlan {
        loss: 0.05,
        ..FaultPlan::default()
    };
    let drifted = FaultPlan {
        drift: Some(Drift { rate: 0.3, skew: 4 }),
        ..base.clone()
    };
    let (ideal, _) = run(55, 16, base);
    let (skewed, _) = run(55, 16, drifted);
    assert!(matches!(
        skewed.termination,
        Termination::Converged | Termination::RoundLimit
    ));
    assert!(
        ideal.ticks != skewed.ticks || ideal.protocol != skewed.protocol,
        "a 30% drift with skew must be observable"
    );
}

/// S3a: nodes crash mid-round while holding unacked retransmissions —
/// the whole fleet, with no recovery. The queue drains on stale epochs
/// and the run reports a deadlock, never spins or panics.
#[test]
fn crash_during_awaiting_acks_reports_deadlock() {
    // Heavy loss keeps every node in Waiting with retransmissions in
    // flight; tick 8 lands between the first compute check (tick 3) and
    // later retries, so crashes catch nodes mid-AwaitingAcks.
    let crashes = (0..12)
        .map(|node| CrashEvent {
            node,
            at: 8,
            recover_at: None,
        })
        .collect();
    let plan = FaultPlan {
        loss: 0.6,
        crashes,
        ..FaultPlan::default()
    };
    let (report, _) = run(99, 12, plan);
    assert_eq!(report.termination, Termination::Deadlock);
    assert_eq!(report.protocol.crashes, 12);
    assert!(
        report.protocol.retransmissions > 0,
        "loss at 0.6 must trigger retries before the crash"
    );
    assert!(!report.summary.converged);
}

/// S3b: a single node crashes holding unacked retransmissions while its
/// neighbors keep waiting on it — they exhaust their retries, compute
/// with a partial neighborhood (`timeouts` counts them), and the node
/// rejoins cleanly after recovery.
#[test]
fn crash_during_awaiting_acks_is_survivable_with_recovery() {
    let plan = FaultPlan {
        loss: 0.3,
        crashes: vec![CrashEvent {
            node: 0,
            at: 8,
            recover_at: Some(200),
        }],
        ..FaultPlan::default()
    };
    let (report, _) = run(17, 14, plan);
    assert_eq!(report.protocol.crashes, 1);
    assert_eq!(report.protocol.recoveries, 1);
    assert!(
        report.protocol.timeouts > 0,
        "neighbors must exhaust retries against the crashed node"
    );
    assert!(matches!(
        report.termination,
        Termination::Converged | Termination::RoundLimit
    ));
}

/// Retry exhaustion against a fully silent fleet: when every neighbor
/// is crashed the survivor burns all retries each round, computes
/// partial, and the run terminates — deadlock is reserved for the case
/// where nobody is left to make progress.
#[test]
fn retry_exhaustion_terminates_with_partial_neighborhoods() {
    let crashes = (1..10)
        .map(|node| CrashEvent {
            node,
            at: 2,
            recover_at: None,
        })
        .collect();
    let plan = FaultPlan {
        crashes,
        ..FaultPlan::default()
    };
    let (report, _) = run(3, 10, plan);
    assert!(
        matches!(
            report.termination,
            Termination::Converged | Termination::RoundLimit
        ),
        "got {:?}",
        report.termination
    );
    assert!(report.protocol.timeouts > 0, "retries never exhausted");
}

/// Fixed vs adaptive backoff at 10% loss: both policies converge; the
/// adaptive one actually feeds its estimators and the message overhead
/// difference is observable in `ProtocolStats`.
#[test]
fn adaptive_backoff_converges_and_measures_overhead() {
    let plan = FaultPlan {
        loss: 0.1,
        delay: DelayModel::Exp { mean: 1.5 },
        ..FaultPlan::default()
    };
    let (fixed, _) = run_with(27, 18, plan.clone(), AsyncConfig::default());
    let (adaptive, _) = run_with(
        27,
        18,
        plan,
        AsyncConfig {
            backoff: Backoff::ExponentialJittered {
                cap: 64,
                jitter: 0.3,
            },
            ..AsyncConfig::default()
        },
    );
    for (name, r) in [("fixed", &fixed), ("adaptive", &adaptive)] {
        assert!(
            matches!(
                r.termination,
                Termination::Converged | Termination::RoundLimit
            ),
            "{name}: {:?}",
            r.termination
        );
        assert!(r.protocol.rtt_samples > 0, "{name}: estimator never fed");
    }
    assert_ne!(
        fixed.protocol.retransmissions, adaptive.protocol.retransmissions,
        "policies must be observably different under loss"
    );
}

/// Partition link masks naming nonexistent nodes are rejected up front.
#[test]
fn invalid_partition_node_is_rejected() {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, 8, 5);
    let plan = FaultPlan {
        partitions: vec![PartitionSchedule {
            kind: PartitionKind::Links {
                pairs: vec![(0, 8)],
            },
            at: 0,
            heal_at: None,
        }],
        ..FaultPlan::default()
    };
    let err = AsyncExecutor::new(config(5), region, positions, plan, AsyncConfig::default())
        .err()
        .expect("out-of-range link mask must fail");
    assert!(matches!(err, laacad::LaacadError::UnknownNode { .. }));
}
