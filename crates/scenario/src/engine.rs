//! Executing one scenario: spec + seed → simulation → outcome.

use crate::checkpoint::ScenarioCheckpoint;
use crate::events::{AppliedEvent, TimelineHook};
use crate::spec::{ScenarioSpec, SpecError};
use crate::value::{encode, Value};
use laacad::{
    HookAction, NoopRecorder, ObservedRound, Observer, Recorder, RoundDelta, RoundReport,
    RunSummary, Session,
};
use laacad_coverage::{evaluate_coverage, CoverageReport};
use laacad_dist::{AsyncExecutor, ProtocolStats, Termination};
use laacad_wsn::energy::EnergyModel;
use laacad_wsn::Network;

/// Compact per-round metric row streamed into result files.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetric {
    /// Round index (1-based).
    pub round: usize,
    /// Maximum circumradius this round.
    pub max_circumradius: f64,
    /// Minimum circumradius this round.
    pub min_circumradius: f64,
    /// Nodes that moved.
    pub nodes_moved: usize,
    /// k-covered fraction at the end of the round (present only when
    /// `evaluation.round_coverage_samples` is non-zero).
    pub covered_fraction: Option<f64>,
}

/// Recovery summary for one applied dynamic event, derived from the
/// stored round series: how deep coverage dipped after the event and how
/// many rounds the survivors needed to climb back over the target.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySummary {
    /// Round the event fired after.
    pub event_round: usize,
    /// Short event description (mirrors the event log).
    pub action: String,
    /// Covered fraction at the event round, before the event mutated the
    /// network (`None` for round-0 events — nothing was probed yet).
    pub coverage_before: Option<f64>,
    /// `coverage_before − min(covered fraction)` over the rounds from
    /// the event until recovery (or the end of the run), clamped at 0.
    pub coverage_dip: Option<f64>,
    /// Rounds from the event to the first round at or above the
    /// recovery target (`None` when the run never got back there).
    pub time_to_recover: Option<usize>,
}

/// Derives per-event [`RecoverySummary`]s from a stored round series.
///
/// Only rounds carrying a `covered_fraction` contribute (i.e. the
/// scenario must set `evaluation.round_coverage_samples`); skipped
/// events are ignored.
fn recovery_metrics(
    rounds: &[RoundMetric],
    events: &[AppliedEvent],
    target: f64,
) -> Vec<RecoverySummary> {
    events
        .iter()
        .filter(|e| e.skipped.is_none())
        .map(|e| {
            let coverage_before = rounds
                .iter()
                .rev()
                .find(|r| r.round <= e.round)
                .and_then(|r| r.covered_fraction);
            let mut min_after: Option<f64> = None;
            let mut recovered_round: Option<usize> = None;
            for r in rounds.iter().filter(|r| r.round > e.round) {
                let Some(c) = r.covered_fraction else {
                    continue;
                };
                min_after = Some(min_after.map_or(c, |m: f64| m.min(c)));
                if c >= target {
                    recovered_round = Some(r.round);
                    break; // dip is measured up to recovery
                }
            }
            RecoverySummary {
                event_round: e.round,
                action: e.action.clone(),
                coverage_before,
                coverage_dip: match (coverage_before, min_after) {
                    (Some(b), Some(m)) => Some((b - m).max(0.0)),
                    _ => None,
                },
                time_to_recover: recovered_round.map(|r| r - e.round),
            }
        })
        .collect()
}

impl RoundMetric {
    /// The outcome row of one round's record, with its covered fraction
    /// when the round was probed.
    fn new(report: &RoundReport, covered_fraction: Option<f64>) -> RoundMetric {
        RoundMetric {
            round: report.round,
            max_circumradius: report.max_circumradius,
            min_circumradius: report.min_circumradius,
            nodes_moved: report.nodes_moved,
            covered_fraction,
        }
    }
}

/// An [`Observer`] collecting a synchronous run's per-round series, and
/// sampling k-coverage after every round when `samples` is non-zero.
/// The session keeps no round records, so this series is part of a
/// run's resumable state: the checkpoint module ([`crate::checkpoint`])
/// serializes and restores it.
pub(crate) struct RoundProbe {
    pub(crate) samples: usize,
    pub(crate) rounds: Vec<RoundMetric>,
}

impl Observer for RoundProbe {
    fn on_round_end(&mut self, sim: &mut Session, delta: &RoundDelta) -> HookAction {
        let covered = (self.samples > 0).then(|| {
            evaluate_coverage(sim.network(), sim.region(), sim.config().k, self.samples)
                .covered_fraction
        });
        self.rounds.push(RoundMetric::new(&delta.report, covered));
        HookAction::Default
    }
}

/// Convergence-under-faults metrics for a scenario that ran on the
/// asynchronous executor (i.e. carried a `[faults]` section), compared
/// against a fault-free synchronous run of the same cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// How the asynchronous run terminated
    /// ([`Termination::as_str`]).
    pub termination: String,
    /// Rounds the faulted run needed (the round limit when it never
    /// quiesced).
    pub rounds: usize,
    /// Rounds the fault-free synchronous baseline needed.
    pub baseline_rounds: usize,
    /// Virtual ticks the faulted run consumed.
    pub ticks: u64,
    /// Algorithm (ring-search) messages of the faulted run over the
    /// baseline's — >1 means faults cost extra search traffic.
    pub message_overhead: f64,
    /// k-covered fraction of the fault-free baseline deployment.
    pub baseline_coverage: f64,
    /// `baseline_coverage − covered_fraction` of the faulted run,
    /// clamped at 0 — how much coverage the faults cost.
    pub coverage_dip: f64,
    /// Validation rejections: senders quarantined for implausible
    /// hello payloads (mirror of `protocol.quarantined`, surfaced for
    /// the CSV/JSONL grids).
    pub quarantined: u64,
    /// Corrupted payloads absorbed as beliefs with validation off —
    /// non-zero means the deployment may have diverged from ground
    /// truth (also raised as an outcome warning).
    pub corrupted_accepted: u64,
    /// Minimum k-covered fraction probed while a partition was open
    /// (`None` when no partition was probed).
    pub partition_coverage_floor: Option<f64>,
    /// Ticks from the last partition heal to the last applied movement
    /// — how long the deployment kept re-equilibrating after the heal
    /// (`None` when no partition healed).
    pub heal_recovery_ticks: Option<u64>,
    /// Coordination-plane message accounting.
    pub protocol: ProtocolStats,
}

/// Everything a finished scenario run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// The seed this run used.
    pub seed: u64,
    /// Final population (after failures/insertions).
    pub final_n: usize,
    /// The run summary (rounds, convergence, R*, messages, movement).
    pub summary: RunSummary,
    /// Independent k-coverage verification at the final deployment.
    pub coverage: CoverageReport,
    /// Max per-node sensing load `max_i E(r_i)`.
    pub max_load: f64,
    /// Total sensing load `Σ_i E(r_i)`.
    pub total_load: f64,
    /// Load-balance ratio `min E / max E`.
    pub balance_ratio: f64,
    /// Events applied (or skipped) during the run.
    pub events: Vec<AppliedEvent>,
    /// Per-event recovery summaries (empty unless the scenario enables
    /// `evaluation.round_coverage_samples`).
    pub recovery: Vec<RecoverySummary>,
    /// Per-round series (Fig. 6-style).
    pub rounds: Vec<RoundMetric>,
    /// Final node positions (render-ready).
    pub final_positions: Vec<(f64, f64)>,
    /// Final per-node sensing radii (same order as positions).
    pub final_radii: Vec<f64>,
    /// The transmission range the run used.
    pub gamma: f64,
    /// Non-fatal anomalies: timeline events that never fired, fault
    /// budgets that ran out. Empty on a clean run.
    pub warnings: Vec<String>,
    /// Convergence-under-faults metrics (present only when the spec
    /// carries a `[faults]` section).
    pub faults: Option<FaultOutcome>,
}

impl ScenarioOutcome {
    /// Reconstructs the final deployment as a [`laacad_wsn::Network`]
    /// (positions + sensing radii; odometry is not carried over).
    pub fn final_network(&self) -> laacad_wsn::Network {
        let mut net = laacad_wsn::Network::from_positions(
            self.gamma,
            self.final_positions
                .iter()
                .map(|&(x, y)| laacad_geom::Point::new(x, y)),
        );
        for (i, &r) in self.final_radii.iter().enumerate() {
            net.set_sensing_radius(laacad_wsn::NodeId(i), r);
        }
        net
    }

    /// Serializes the outcome as a deterministic JSON [`Value`]
    /// (sorted keys, shortest-round-trip floats) for the JSONL store.
    pub fn to_value(&self) -> Value {
        let mut t = Value::table();
        t.insert("scenario", Value::Str(self.scenario.clone()));
        t.insert("seed", Value::Int(self.seed as i64));
        t.insert("final_n", encode::int(self.final_n));
        t.insert("rounds", encode::int(self.summary.rounds));
        t.insert("converged", Value::Bool(self.summary.converged));
        t.insert(
            "max_sensing_radius",
            Value::Float(self.summary.max_sensing_radius),
        );
        t.insert(
            "min_sensing_radius",
            Value::Float(self.summary.min_sensing_radius),
        );
        t.insert(
            "total_distance_moved",
            Value::Float(self.summary.total_distance_moved),
        );
        t.insert(
            "messages_unicast",
            Value::Int(self.summary.messages.unicast as i64),
        );
        t.insert(
            "messages_broadcast",
            Value::Int(self.summary.messages.broadcast as i64),
        );
        let mut cov = Value::table();
        cov.insert("k", encode::int(self.coverage.k));
        cov.insert("samples", encode::int(self.coverage.samples));
        cov.insert(
            "covered_fraction",
            Value::Float(self.coverage.covered_fraction),
        );
        cov.insert("min_degree", encode::int(self.coverage.min_degree));
        cov.insert("mean_degree", Value::Float(self.coverage.mean_degree));
        cov.insert("holes", encode::int(self.coverage.holes.len()));
        t.insert("coverage", cov);
        t.insert("max_load", Value::Float(self.max_load));
        t.insert("total_load", Value::Float(self.total_load));
        t.insert("balance_ratio", Value::Float(self.balance_ratio));
        t.insert(
            "events",
            Value::Array(
                self.events
                    .iter()
                    .map(|e| {
                        let mut ev = Value::table();
                        ev.insert("round", encode::int(e.round));
                        ev.insert("action", Value::Str(e.action.clone()));
                        ev.insert("removed", encode::int(e.removed));
                        ev.insert("inserted", encode::int(e.inserted));
                        if let Some(reason) = &e.skipped {
                            ev.insert("skipped", Value::Str(reason.clone()));
                        }
                        ev
                    })
                    .collect(),
            ),
        );
        t.insert(
            "final_positions",
            Value::Array(
                self.final_positions
                    .iter()
                    .map(|&p| encode::pair(p))
                    .collect(),
            ),
        );
        t.insert(
            "final_radii",
            Value::Array(self.final_radii.iter().map(|&r| Value::Float(r)).collect()),
        );
        t.insert("gamma", Value::Float(self.gamma));
        if !self.warnings.is_empty() {
            t.insert(
                "warnings",
                Value::Array(
                    self.warnings
                        .iter()
                        .map(|w| Value::Str(w.clone()))
                        .collect(),
                ),
            );
        }
        if let Some(f) = &self.faults {
            let mut ft = Value::table();
            ft.insert("termination", Value::Str(f.termination.clone()));
            ft.insert("rounds", encode::int(f.rounds));
            ft.insert("baseline_rounds", encode::int(f.baseline_rounds));
            ft.insert("ticks", Value::Int(f.ticks as i64));
            ft.insert("message_overhead", Value::Float(f.message_overhead));
            ft.insert("baseline_coverage", Value::Float(f.baseline_coverage));
            ft.insert("coverage_dip", Value::Float(f.coverage_dip));
            ft.insert("quarantined", Value::Int(f.quarantined as i64));
            ft.insert(
                "corrupted_accepted",
                Value::Int(f.corrupted_accepted as i64),
            );
            if let Some(floor) = f.partition_coverage_floor {
                ft.insert("partition_coverage_floor", Value::Float(floor));
            }
            if let Some(heal) = f.heal_recovery_ticks {
                ft.insert("heal_recovery_ticks", Value::Int(heal as i64));
            }
            let mut p = Value::table();
            p.insert("hellos", Value::Int(f.protocol.hellos as i64));
            p.insert("acks", Value::Int(f.protocol.acks as i64));
            p.insert(
                "retransmissions",
                Value::Int(f.protocol.retransmissions as i64),
            );
            p.insert("sent", Value::Int(f.protocol.sent as i64));
            p.insert("delivered", Value::Int(f.protocol.delivered as i64));
            p.insert("lost", Value::Int(f.protocol.lost as i64));
            p.insert("duplicated", Value::Int(f.protocol.duplicated as i64));
            p.insert(
                "dropped_to_crashed",
                Value::Int(f.protocol.dropped_to_crashed as i64),
            );
            p.insert("timeouts", Value::Int(f.protocol.timeouts as i64));
            p.insert("computes", Value::Int(f.protocol.computes as i64));
            p.insert("crashes", Value::Int(f.protocol.crashes as i64));
            p.insert("recoveries", Value::Int(f.protocol.recoveries as i64));
            p.insert("corrupted", Value::Int(f.protocol.corrupted as i64));
            p.insert("quarantined", Value::Int(f.protocol.quarantined as i64));
            p.insert(
                "quarantine_drops",
                Value::Int(f.protocol.quarantine_drops as i64),
            );
            p.insert(
                "corrupted_accepted",
                Value::Int(f.protocol.corrupted_accepted as i64),
            );
            p.insert(
                "partition_dropped",
                Value::Int(f.protocol.partition_dropped as i64),
            );
            p.insert("rtt_samples", Value::Int(f.protocol.rtt_samples as i64));
            ft.insert("protocol", p);
            t.insert("faults", ft);
        }
        if !self.recovery.is_empty() {
            t.insert(
                "recovery",
                Value::Array(
                    self.recovery
                        .iter()
                        .map(|r| {
                            let mut row = Value::table();
                            row.insert("event_round", encode::int(r.event_round));
                            row.insert("action", Value::Str(r.action.clone()));
                            if let Some(b) = r.coverage_before {
                                row.insert("coverage_before", Value::Float(b));
                            }
                            if let Some(d) = r.coverage_dip {
                                row.insert("coverage_dip", Value::Float(d));
                            }
                            if let Some(tr) = r.time_to_recover {
                                row.insert("time_to_recover", encode::int(tr));
                            }
                            row
                        })
                        .collect(),
                ),
            );
        }
        t.insert(
            "round_series",
            Value::Array(
                self.rounds
                    .iter()
                    .map(|r| {
                        let mut row = Value::table();
                        row.insert("round", encode::int(r.round));
                        row.insert("max_circumradius", Value::Float(r.max_circumradius));
                        row.insert("min_circumradius", Value::Float(r.min_circumradius));
                        row.insert("nodes_moved", encode::int(r.nodes_moved));
                        if let Some(c) = r.covered_fraction {
                            row.insert("covered_fraction", Value::Float(c));
                        }
                        row
                    })
                    .collect(),
            ),
        );
        t
    }
}

/// Builds the session and timeline observer for `spec` at `seed`
/// without running it (the benchmark of record uses this to construct
/// workloads).
pub fn build_scenario(
    spec: &ScenarioSpec,
    seed: u64,
) -> Result<(Session, TimelineHook), SpecError> {
    let region = spec.region.build()?;
    let initial = spec.placement.build(&region, seed)?;
    let config = spec.laacad.build(&region, initial.len(), seed)?;
    let sim = Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .map_err(|e| SpecError::Build(e.to_string()))?;
    Ok((sim, TimelineHook::new(&spec.events, seed)))
}

/// How [`run_scenario`] checkpoints: every `every`-th round (`0`
/// never) it hands a [`ScenarioCheckpoint`] to `sink`, and with
/// `resume` set it continues from that checkpoint instead of starting
/// fresh. Refused for `[faults]`-bearing specs: the asynchronous
/// executor has no snapshot support.
pub struct CheckpointPolicy<'a> {
    /// Checkpoint cadence in rounds (`0` never checkpoints).
    pub every: usize,
    /// A checkpoint to resume from instead of starting fresh.
    pub resume: Option<&'a ScenarioCheckpoint>,
    /// Receives every checkpoint; an error aborts the run.
    pub sink: &'a mut dyn FnMut(&ScenarioCheckpoint) -> Result<(), SpecError>,
}

/// What [`run_scenario`] does besides running. Every option only
/// observes: the outcome is bit-identical whatever the options.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// A telemetry recorder installed on the engine for the whole run.
    /// The run swaps it out of the slot and puts it back, carrying what
    /// it accumulated, when the run returns (on a failed build the slot
    /// is left untouched).
    pub recorder: Option<&'a mut Box<dyn Recorder>>,
    /// Mid-run checkpointing and resume.
    pub checkpoint: Option<CheckpointPolicy<'a>>,
}

/// Runs `spec` at `seed` to completion and evaluates the outcome.
///
/// Scenarios with a `[faults]` section run on the asynchronous executor
/// next to a fault-free synchronous baseline; all others run on the
/// synchronous round engine. Resuming from a checkpoint produces the
/// outcome the uninterrupted run would have produced, bit for bit.
///
/// # Errors
///
/// [`SpecError::Build`] when the region, placement or configuration
/// cannot be built, when a checkpoint policy meets a `[faults]` spec,
/// when the resume checkpoint's session snapshot fails validation or
/// disagrees with its header or the timeline; plus whatever the
/// checkpoint sink returns.
pub fn run_scenario(
    spec: &ScenarioSpec,
    seed: u64,
    options: RunOptions<'_>,
) -> Result<ScenarioOutcome, SpecError> {
    let RunOptions {
        recorder: mut slot,
        mut checkpoint,
    } = options;
    if spec.laacad.faults.is_some() {
        if checkpoint.is_some() {
            return Err(SpecError::Build(
                "scenarios with a [faults] section run on the asynchronous \
                 executor, which does not support checkpointing"
                    .into(),
            ));
        }
        return run_async_impl(spec, seed, slot);
    }
    let (mut sim, mut hook, mut probe, resumed_done) =
        match checkpoint.as_ref().and_then(|c| c.resume) {
            Some(ckpt) => ckpt.restore(spec)?,
            None => {
                let (mut sim, mut hook) = build_scenario(spec, seed)?;
                // Round-0 events act on the initial deployment, before
                // any movement.
                hook.fire_due(&mut sim, 0);
                let probe = RoundProbe {
                    samples: spec.evaluation.round_coverage_samples,
                    rounds: Vec::new(),
                };
                (sim, hook, probe, false)
            }
        };
    if let Some(r) = take_recorder(&mut slot) {
        sim.set_recorder(r);
    }
    let summary = if resumed_done {
        sim.finalize();
        Ok(sim.summarize())
    } else {
        drive_rounds(
            &mut sim,
            &mut probe,
            &mut hook,
            |sim, probe, hook, verdict| match checkpoint.as_mut() {
                Some(c) if c.every > 0 && verdict.delta.report.round % c.every == 0 => {
                    (c.sink)(&ScenarioCheckpoint::capture(sim, probe, hook, verdict))
                }
                _ => Ok(()),
            },
        )
    };
    let (outcome, recorder) = match summary {
        Ok(summary) => {
            let (outcome, recorder) = assemble_sync_outcome(sim, hook, probe, spec, seed, summary);
            (Ok(outcome), recorder)
        }
        Err(e) => (Err(e), sim.take_recorder()),
    };
    if let (Some(slot), Some(r)) = (slot, recorder) {
        *slot = r;
    }
    outcome
}

/// Moves the caller's recorder out of its [`RunOptions::recorder`]
/// slot for installation, leaving a no-op recorder in its place.
fn take_recorder(slot: &mut Option<&mut Box<dyn Recorder>>) -> Option<Box<dyn Recorder>> {
    slot.as_deref_mut()
        .map(|r| std::mem::replace(r, Box::new(NoopRecorder)))
}

/// Drives the synchronous engine loop round by round — identical
/// semantics to [`Session::run_with_observers`] with the probe/hook
/// observer pair — invoking `after_round` after each observed round
/// (where [`run_scenario`] hooks its checkpoint capture).
fn drive_rounds(
    sim: &mut Session,
    probe: &mut RoundProbe,
    hook: &mut TimelineHook,
    mut after_round: impl FnMut(
        &Session,
        &RoundProbe,
        &TimelineHook,
        &ObservedRound,
    ) -> Result<(), SpecError>,
) -> Result<RunSummary, SpecError> {
    while sim.rounds_executed() < sim.config().max_rounds {
        // Probe first: the event-round sample must see the pre-event
        // network (the timeline observer mutates it afterwards).
        let verdict = sim.step_observed(&mut [probe, hook]);
        after_round(sim, probe, hook, &verdict)?;
        if verdict.stop {
            break;
        }
        if sim.is_converged() && !verdict.keep_running {
            break;
        }
    }
    sim.finalize();
    Ok(sim.summarize())
}

/// Evaluates a finished synchronous run into its [`ScenarioOutcome`],
/// handing back the session's recorder.
fn assemble_sync_outcome(
    mut sim: Session,
    mut hook: TimelineHook,
    probe: RoundProbe,
    spec: &ScenarioSpec,
    seed: u64,
    summary: RunSummary,
) -> (ScenarioOutcome, Option<Box<dyn Recorder>>) {
    // Timeline entries beyond the executed rounds must still show up in
    // the outcome (as skipped), or the results would silently describe a
    // different scenario than the one specified.
    let mut warnings = hook.mark_unfired(summary.rounds);
    if !summary.converged {
        warnings.push(format!(
            "run stopped at round {} without converging: the max_rounds \
             budget ({}) was exhausted before ε-termination",
            summary.rounds, spec.laacad.max_rounds
        ));
    }
    let coverage = evaluate_coverage(
        sim.network(),
        sim.region(),
        sim.config().k,
        spec.evaluation.coverage_samples,
    );
    let mut outcome =
        deployment_outcome(spec, seed, sim.network(), coverage, summary, probe.rounds);
    // Without per-round probes every summary field would be None — keep
    // the documented "empty unless probing is enabled" contract instead
    // of emitting data-free rows.
    if spec.evaluation.round_coverage_samples > 0 {
        outcome.recovery =
            recovery_metrics(&outcome.rounds, hook.log(), spec.evaluation.recovery_target);
    }
    outcome.events = hook.into_log();
    outcome.warnings = warnings;
    (outcome, sim.take_recorder())
}

/// The deployment half of a [`ScenarioOutcome`], the same for both
/// engines: the final population, positions and radii, the sensing loads
/// and balance under the spec's energy model, and the per-round series.
/// Events, recovery, warnings and fault metrics start empty.
fn deployment_outcome(
    spec: &ScenarioSpec,
    seed: u64,
    net: &Network,
    coverage: CoverageReport,
    summary: RunSummary,
    rounds: Vec<RoundMetric>,
) -> ScenarioOutcome {
    let model = EnergyModel::new(std::f64::consts::PI, spec.evaluation.energy_exponent);
    ScenarioOutcome {
        scenario: spec.name.clone(),
        seed,
        final_n: net.len(),
        summary,
        coverage,
        max_load: model.max_load(net),
        total_load: model.total_load(net),
        balance_ratio: model.balance_ratio(net),
        events: Vec::new(),
        recovery: Vec::new(),
        rounds,
        final_positions: net.positions().iter().map(|p| (p.x, p.y)).collect(),
        final_radii: net.sensing_radii().to_vec(),
        gamma: net.gamma(),
        warnings: Vec::new(),
        faults: None,
    }
}

/// Runs a `[faults]`-bearing scenario on the asynchronous executor and
/// pairs it with a fault-free synchronous baseline of the same cell.
fn run_async_impl(
    spec: &ScenarioSpec,
    seed: u64,
    mut slot: Option<&mut Box<dyn Recorder>>,
) -> Result<ScenarioOutcome, SpecError> {
    let fault_spec = spec
        .laacad
        .faults
        .as_ref()
        .expect("run_async_impl is only entered when [faults] is present");
    if !spec.events.is_empty() {
        return Err(SpecError::Build(
            "scenarios with a [faults] section run on the asynchronous executor, \
             which does not support timeline [[events]]; drop one or the other"
                .into(),
        ));
    }
    let region = spec.region.build()?;
    let initial = spec.placement.build(&region, seed)?;
    let config = spec.laacad.build(&region, initial.len(), seed)?;
    let k = config.k;

    // Fault-free synchronous baseline: same region, placement and
    // config, so every gap between it and the faulted run is caused by
    // the fault plan alone.
    let mut baseline = Session::builder(config.clone())
        .region(region.clone())
        .positions(initial.clone())
        .build()
        .map_err(|e| SpecError::Build(e.to_string()))?;
    let baseline_summary = baseline.run();
    let baseline_coverage = evaluate_coverage(
        baseline.network(),
        &region,
        k,
        spec.evaluation.coverage_samples,
    );

    let (plan, proto) = fault_spec.to_plan();
    let mut exec = AsyncExecutor::new(config, region.clone(), initial, plan, proto)
        .map_err(|e| SpecError::Build(e.to_string()))?;
    if let Some(r) = take_recorder(&mut slot) {
        exec.set_recorder(r);
    }
    // Coverage probes over the partition windows: the executor calls
    // back with the ground-truth network at the scheduled ticks, and the
    // sampled series becomes the partition coverage floor + post-heal
    // recovery evidence in the outcome. Probes observe only — the run is
    // bit-identical with or without them.
    let probe_series = std::sync::Arc::new(std::sync::Mutex::new(Vec::<(u64, f64)>::new()));
    if !fault_spec.partition.is_empty() && fault_spec.probe_every > 0 {
        let sink = probe_series.clone();
        let probe_region = region.clone();
        let samples = spec.evaluation.coverage_samples;
        exec.set_probe(
            fault_spec.probe_every,
            Box::new(move |tick, net| {
                let cov = evaluate_coverage(net, &probe_region, k, samples);
                sink.lock().unwrap().push((tick, cov.covered_fraction));
            }),
        );
    }
    let report = exec.run();
    if let (Some(slot), Some(r)) = (slot, exec.take_recorder()) {
        *slot = r;
    }
    // The executor still holds the probe closure (and its Arc clone), so
    // snapshot the series rather than unwrapping it.
    let probe_series: Vec<(u64, f64)> = probe_series.lock().unwrap().clone();

    let coverage = evaluate_coverage(exec.network(), &region, k, spec.evaluation.coverage_samples);
    let mut warnings = Vec::new();
    if report.termination != Termination::Converged {
        // Name the budget that tripped (and its configured value), not
        // just the termination tag: "round_limit" alone does not tell a
        // reader what to raise.
        let budget = match report.termination {
            Termination::RoundLimit => {
                format!("the max_rounds budget ({}) ran out", spec.laacad.max_rounds)
            }
            Termination::TickBudget => {
                format!("the max_ticks budget ({}) ran out", fault_spec.max_ticks)
            }
            Termination::EventBudget => "the processed-event budget ran out".to_string(),
            Termination::Deadlock => {
                "the event queue deadlocked (no live node can make progress)".to_string()
            }
            Termination::Converged => unreachable!("guarded above"),
        };
        warnings.push(format!(
            "async run terminated by {} at round {} after {} ticks without \
             quiescing: {budget}; the reported deployment is partial",
            report.termination.as_str(),
            report.summary.rounds,
            report.ticks
        ));
    }
    if report.protocol.corrupted_accepted > 0 {
        warnings.push(format!(
            "{} corrupted payloads were accepted as beliefs (corruption_validate \
             = false): the reported deployment may have diverged from the \
             ground-truth fixed point",
            report.protocol.corrupted_accepted
        ));
    }
    // Partition coverage floor: the minimum probed coverage while any
    // partition was open (probes after the heal belong to the recovery
    // tail, not the floor).
    let partition_open_at = |tick: u64| {
        fault_spec
            .partition
            .iter()
            .any(|p| tick >= p.at && p.heal_at.is_none_or(|h| tick < h))
    };
    let partition_coverage_floor = probe_series
        .iter()
        .filter(|&&(tick, _)| partition_open_at(tick))
        .map(|&(_, c)| c)
        .fold(None, |acc: Option<f64>, c| {
            Some(acc.map_or(c, |m| m.min(c)))
        });
    let heal_recovery_ticks = report
        .last_heal_tick
        .map(|heal| report.last_move_tick.saturating_sub(heal));
    let baseline_messages =
        (baseline_summary.messages.unicast + baseline_summary.messages.broadcast) as f64;
    let async_messages =
        (report.summary.messages.unicast + report.summary.messages.broadcast) as f64;
    let faults = FaultOutcome {
        termination: report.termination.as_str().to_string(),
        rounds: report.summary.rounds,
        baseline_rounds: baseline_summary.rounds,
        ticks: report.ticks,
        message_overhead: if baseline_messages > 0.0 {
            async_messages / baseline_messages
        } else {
            1.0
        },
        baseline_coverage: baseline_coverage.covered_fraction,
        coverage_dip: (baseline_coverage.covered_fraction - coverage.covered_fraction).max(0.0),
        quarantined: report.protocol.quarantined,
        corrupted_accepted: report.protocol.corrupted_accepted,
        partition_coverage_floor,
        heal_recovery_ticks,
        protocol: report.protocol,
    };
    let mut outcome = deployment_outcome(
        spec,
        seed,
        exec.network(),
        coverage,
        report.summary,
        report
            .rounds
            .iter()
            .map(|r| RoundMetric::new(r, None))
            .collect(),
    );
    outcome.warnings = warnings;
    outcome.faults = Some(faults);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EventAction, EventSpec};

    #[test]
    fn plain_scenario_runs_and_covers() {
        let mut spec = ScenarioSpec::uniform("smoke", 16, 1);
        spec.laacad.max_rounds = 100;
        let out = run_scenario(&spec, 42, RunOptions::default()).unwrap();
        assert_eq!(out.scenario, "smoke");
        assert_eq!(out.final_n, 16);
        assert!(out.coverage.covered_fraction > 0.99, "{}", out.coverage);
        assert!(!out.rounds.is_empty());
        assert!(out.max_load >= out.total_load / 16.0);
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let mut spec = ScenarioSpec::uniform("det", 14, 1);
        spec.laacad.max_rounds = 60;
        spec.events.push(EventSpec {
            round: 10,
            action: EventAction::FailFraction { fraction: 0.15 },
        });
        let a = run_scenario(&spec, 7, RunOptions::default()).unwrap();
        let b = run_scenario(&spec, 7, RunOptions::default()).unwrap();
        assert_eq!(a, b);
        let c = run_scenario(&spec, 8, RunOptions::default()).unwrap();
        assert_ne!(a.summary.max_sensing_radius, c.summary.max_sensing_radius);
    }

    #[test]
    fn round_zero_events_act_on_the_initial_deployment() {
        let mut spec = ScenarioSpec::uniform("doa", 20, 1);
        spec.laacad.max_rounds = 1; // no time to fire anything after round 1
        spec.events.push(EventSpec {
            round: 0,
            action: EventAction::FailFraction { fraction: 0.25 },
        });
        let out = run_scenario(&spec, 5, RunOptions::default()).unwrap();
        assert_eq!(out.final_n, 15, "25% dead on arrival");
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].round, 0);
        assert_eq!(out.events[0].removed, 5);
        assert!(out.events[0].skipped.is_none());
    }

    #[test]
    fn outcome_serializes_to_json() {
        let mut spec = ScenarioSpec::uniform("json", 10, 1);
        spec.laacad.max_rounds = 30;
        let out = run_scenario(&spec, 3, RunOptions::default()).unwrap();
        let value = out.to_value();
        let line = crate::json::to_string(&value);
        assert_eq!(line, crate::json::to_string(&out.to_value()));
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(value.get("scenario").unwrap().as_str(), Some("json"));
        assert_eq!(value.get("final_n").unwrap().as_i64(), Some(10));
    }
}
