//! `async_lossy`: asynchronous message-driven cells (`laacad-dist`)
//! under 5 %, 10 % and 20 % message loss with exponential link delay,
//! run serially. One op is one cell: `AsyncExecutor::new` + `run`. Each
//! pass runs fresh cells, seeded from the workload seed.

use crate::report::{cell_set, fold_pass, median, overhead, ratio, repeat_setup, Quality, Report};
use crate::trace::{absorb_recorder, allocations, count_allocations, Tracer};
use crate::Ctx;
use laacad::{LaacadConfig, TelemetryRegistry};
use laacad_coverage::evaluate_coverage;
use laacad_dist::{AsyncConfig, AsyncExecutor, DelayModel, FaultPlan, ProtocolStats, Termination};
use laacad_geom::Point;
use laacad_region::Region;
use laacad_scenario::{AlgorithmSpec, PlacementSpec};
use std::time::Instant;

const N: usize = 64;
const LOSSES: [f64; 3] = [0.05, 0.10, 0.20];
/// Seeds per loss level in one pass.
const SEEDS: usize = 16;
/// Full passes per second of `--seconds`.
const PASSES_PER_S: f64 = 0.1;
/// Set-up repetitions before each pass and after each cell; `setup_s`
/// is the median over all of them.
const SETUP_REPS: usize = 10;
const MAX_ROUNDS: usize = 400;
const COVERAGE_SAMPLES: usize = 10_000;

/// One cell's inputs, generated from the workload seed.
struct Input {
    loss: f64,
    config: LaacadConfig,
    positions: Vec<Point>,
}

/// The cells of cell set `set`.
fn inputs(ctx: &Ctx, set: usize, region: &Region, threads: usize) -> Result<Vec<Input>, String> {
    let algorithm = AlgorithmSpec {
        k: 1,
        alpha: 0.5,
        epsilon: Some(1e-3),
        max_rounds: MAX_ROUNDS,
        threads: Some(threads),
        ..AlgorithmSpec::default()
    };
    let mut out = Vec::new();
    for (i, &loss) in LOSSES.iter().enumerate() {
        for j in 0..SEEDS {
            let seed = ctx.derive(1 + ((set * LOSSES.len() + i) * SEEDS + j) as u64);
            let positions = PlacementSpec::Uniform { n: N }
                .build(region, seed)
                .map_err(|e| e.to_string())?;
            let config = algorithm
                .build(region, N, seed)
                .map_err(|e| e.to_string())?;
            out.push(Input {
                loss,
                config,
                positions,
            });
        }
    }
    Ok(out)
}

fn plan(loss: f64) -> FaultPlan {
    FaultPlan {
        loss,
        delay: DelayModel::Exp { mean: 1.0 },
        ..FaultPlan::default()
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let threads = ctx.threads_or(1);
    let region = Region::square(1.0).map_err(|e| format!("{e:?}"))?;
    let mut setup_times = Vec::new();
    let mut setup = |set: usize| {
        repeat_setup(SETUP_REPS, &mut setup_times, || {
            inputs(ctx, set, &region, threads)
        })
    };
    let mut cells = setup(0)?;
    let mut report = Report::new("async_lossy", ctx.seed, N, "1", threads);
    report.note("cells_per_pass", cells.len());

    let passes = ctx.scaled(PASSES_PER_S, 2);
    let traced_from = if ctx.trace { 1 } else { passes };
    let mut walls = [Vec::new(), Vec::new()];
    let mut stats = ProtocolStats::default();
    let (mut events, mut allocs, mut traced_ops) = (0u64, 0u64, 0usize);
    let mut query_s = Vec::new();
    let mut seen = Vec::new();
    for pass in 0..passes {
        let traced = pass >= traced_from;
        tracer.set_on(traced);
        let set = cell_set(pass, ctx.trace);
        if pass > 0 {
            cells = setup(set)?;
        }
        let mut quality = Quality::default();
        let mut wall = 0.0;
        for (c, cell) in cells.iter().enumerate() {
            count_allocations(traced);
            let before = allocations();
            let op = tracer.open("cell", None);
            let (exec, _) = tracer.time("AsyncExecutor::new", op.id, || {
                AsyncExecutor::new(
                    cell.config.clone(),
                    region.clone(),
                    cell.positions.clone(),
                    plan(cell.loss),
                    AsyncConfig::default(),
                )
            });
            let mut exec = exec.map_err(|e| format!("cell {c}: {e}"))?;
            if traced {
                exec.set_recorder(Box::new(TelemetryRegistry::new()));
            }
            let (run, _) = tracer.time("AsyncExecutor::run", op.id, || exec.run());
            let dt = tracer.close(op);
            count_allocations(false);
            wall += dt;
            report.op_s.push(dt);
            report.attempted += 1;
            if traced {
                allocs += allocations() - before;
                traced_ops += 1;
                events += run.events_processed;
                let p = run.protocol;
                stats.sent += p.sent;
                stats.delivered += p.delivered;
                stats.lost += p.lost;
                stats.retransmissions += p.retransmissions;
                stats.timeouts += p.timeouts;
                stats.computes += p.computes;
                let mut own = TelemetryRegistry::new();
                if let Some(recorder) = exec.take_recorder() {
                    absorb_recorder(recorder, &mut own);
                }
                report.check(own.counter_total("async_messages_sent") == p.sent, || {
                    format!("cell {c}: recorder and report disagree on messages sent")
                });
            }

            // Output checks, untimed.
            report.check(run.termination == Termination::Converged, || {
                format!(
                    "cell {c} (loss {}) ended {}",
                    cell.loss,
                    run.termination.as_str()
                )
            });
            let net = exec.network();
            let t = Instant::now();
            let cov = evaluate_coverage(net, &region, 1, COVERAGE_SAMPLES);
            query_s.push(t.elapsed().as_secs_f64());
            report.check(cov.is_k_covered(), || {
                format!("cell {c} covers {} of its samples", cov.covered_fraction)
            });
            quality.add_cell(
                run.summary.rounds as u64,
                run.protocol.sent,
                net.positions(),
                net.sensing_radii(),
                cov.covered_fraction,
            );
            quality.pin(run.events_processed);
            quality.pin(run.protocol.delivered);
            quality.pin(run.protocol.lost);
            quality.pin(run.protocol.retransmissions);
            setup(set)?;
        }
        walls[usize::from(traced)].push(wall);
        fold_pass(&mut report, &mut seen, set, quality);
    }
    tracer.set_on(ctx.trace);
    report.setup_s = median(&setup_times);
    report.wall_s = walls.iter().flatten().sum();
    report.work_done = report.op_s.len() as f64;

    if ctx.trace {
        let run_s = tracer.total("AsyncExecutor::run");
        report.set("dist.new_s", tracer.total("AsyncExecutor::new"));
        report.set("dist.run_s", run_s);
        report.set("dist.events", events as f64);
        report.set("dist.events_per_s", ratio(events as f64, run_s));
        report.set("dist.sent", stats.sent as f64);
        report.set("dist.delivered", stats.delivered as f64);
        report.set("dist.lost", stats.lost as f64);
        report.set("dist.retransmissions", stats.retransmissions as f64);
        report.set("dist.timeouts", stats.timeouts as f64);
        report.set("dist.computes", stats.computes as f64);
        report.set(
            "dist.retransmit_ratio",
            ratio(stats.retransmissions as f64, stats.sent as f64),
        );
        report.set(
            "dist.events_per_compute",
            ratio(events as f64, stats.computes as f64),
        );
        report.set(
            "core.allocs_per_op",
            allocs as f64 / traced_ops.max(1) as f64,
        );
        report.set("coverage.query_s", median(&query_s));
        report.set("scenario.build_s", report.setup_s / cells.len() as f64);
        report.set("telemetry.overhead", overhead(&walls));
    }
    Ok(report)
}
