//! `corner_converge`: the shipped Fig. 5 campaign (100 nodes dumped in
//! the corner of the unit square, k = 1…4), decoded and built through
//! `laacad-scenario`, every cell stepped serially to convergence. One op
//! is one `Session::step`. Each pass adds a fresh seed derived from the
//! workload seed to the shipped one.

use crate::report::{cell_set, fold_pass, median, overhead, repeat_setup, Quality, Report};
use crate::trace::{absorb_registry, allocations, attach_registry, count_allocations, Tracer};
use crate::Ctx;
use laacad::{Session, TelemetryRegistry};
use laacad_coverage::evaluate_coverage;
use laacad_scenario::{build_scenario, CampaignSpec};
use std::time::Instant;

const SPEC_PATH: &str = "scenarios/fig5_corner.toml";
/// Full passes over the campaign per second of `--seconds`.
const PASSES_PER_S: f64 = 0.15;
/// Set-up repetitions before each pass and after each cell; `setup_s`
/// is the median over all of them.
const SETUP_REPS: usize = 10;
const EPSILON: f64 = 2e-3;
const MAX_ROUNDS: usize = 400;

/// One built cell: its session plus what the checks need.
struct Cell {
    session: Session,
    k: usize,
    max_rounds: usize,
    samples: usize,
}

/// Decodes the campaign, replaces its seeds with the shipped seed plus
/// one derived from the workload seed, and builds every cell.
fn build_cells(text: &str, extra_seed: u64, threads: usize) -> Result<Vec<Cell>, String> {
    let mut campaign = CampaignSpec::from_toml(text).map_err(|e| e.to_string())?;
    campaign.grid.seeds.push(extra_seed);
    campaign.scenario.laacad.threads = Some(threads);
    campaign.scenario.laacad.epsilon = Some(EPSILON);
    campaign.scenario.laacad.max_rounds = MAX_ROUNDS;
    let cells = campaign.expand().map_err(|e| e.to_string())?;
    cells
        .into_iter()
        .map(|cell| {
            let (session, _) =
                build_scenario(&cell.scenario, cell.seed).map_err(|e| e.to_string())?;
            Ok(Cell {
                session,
                k: cell.k,
                max_rounds: cell.scenario.laacad.max_rounds,
                samples: cell.scenario.evaluation.coverage_samples,
            })
        })
        .collect()
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let threads = ctx.threads_or(1);
    let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;

    let mut setup_times = Vec::new();
    let mut setup = |set: usize| {
        repeat_setup(SETUP_REPS, &mut setup_times, || {
            build_cells(&text, ctx.derive(1 + set as u64), threads)
        })
    };
    let mut cells = setup(0)?;
    let n = cells.first().map_or(0, |c| c.session.network().len());
    let mut report = Report::new("corner_converge", ctx.seed, n, "1-4", threads);
    report.note("cells_per_pass", cells.len());

    // Traced runs time the first pass untraced, for the overhead ratio.
    let passes = ctx.scaled(PASSES_PER_S, 2);
    let traced_from = if ctx.trace { 1 } else { passes };
    let mut registry = TelemetryRegistry::new();
    let mut walls = [Vec::new(), Vec::new()];
    let (mut allocs, mut traced_ops) = (0u64, 0usize);
    let (mut searches, mut patches) = (0u64, 0u64);
    let mut query_s = Vec::new();
    let mut seen = Vec::new();
    for pass in 0..passes {
        let traced = pass >= traced_from;
        tracer.set_on(traced);
        let set = cell_set(pass, ctx.trace);
        if pass > 0 {
            cells = setup(set)?;
        }
        // `wall_s` sums the timed steps only: finalize and the set-up
        // samples between cells stay out of it.
        let mut wall = 0.0;
        let pass_span = tracer.open("pass", None);
        for cell in &mut cells {
            attach_registry(&mut cell.session, traced);
            let cell_span = tracer.open("cell", pass_span.id);
            loop {
                count_allocations(traced);
                let before = allocations();
                let (delta, dt) =
                    tracer.time("Session::step", cell_span.id, || cell.session.step());
                count_allocations(false);
                if traced {
                    allocs += allocations() - before;
                    traced_ops += 1;
                }
                wall += dt;
                report.op_s.push(dt);
                report.attempted += 1;
                if delta.report.converged || cell.session.rounds_executed() >= cell.max_rounds {
                    break;
                }
            }
            tracer.time("Session::finalize", cell_span.id, || {
                cell.session.finalize()
            });
            tracer.close(cell_span);
            absorb_registry(&mut cell.session, &mut registry);
            setup(set)?;
        }
        tracer.close(pass_span);
        walls[usize::from(traced)].push(wall);

        // Output checks, untimed.
        let mut quality = Quality::default();
        for cell in &cells {
            let s = &cell.session;
            report.check(s.is_converged(), || {
                format!(
                    "cell k={} did not converge in {} rounds",
                    cell.k, cell.max_rounds
                )
            });
            let t = Instant::now();
            let cov = evaluate_coverage(s.network(), s.region(), cell.k, cell.samples);
            query_s.push(t.elapsed().as_secs_f64());
            report.check(cov.is_k_covered(), || {
                format!(
                    "cell k={} covers {} of its samples",
                    cell.k, cov.covered_fraction
                )
            });
            let m = s.summarize().messages;
            quality.add_cell(
                s.rounds_executed() as u64,
                m.unicast + m.broadcast,
                s.network().positions(),
                s.network().sensing_radii(),
                cov.covered_fraction,
            );
        }
        for c in cells.iter().map(|c| c.session.counters()) {
            quality.pin(c.ring_searches);
            quality.pin(c.adjacency_incremental_updates);
            if set == seen.len() {
                searches += c.ring_searches;
                patches += c.adjacency_incremental_updates;
            }
        }
        fold_pass(&mut report, &mut seen, set, quality);
    }
    report.note("ring_searches", searches);
    report.note("adjacency_patches", patches);
    tracer.set_on(ctx.trace);
    report.setup_s = median(&setup_times);
    report.wall_s = walls.iter().flatten().sum();
    report.work_done = report.op_s.len() as f64;

    if ctx.trace {
        report.engine_layers(&registry, tracer, threads);
        report.set(
            "core.allocs_per_op",
            allocs as f64 / traced_ops.max(1) as f64,
        );
        report.set("coverage.query_s", median(&query_s));
        report.set(
            "scenario.build_s",
            report.setup_s / cells.len().max(1) as f64,
        );
        report.set("telemetry.overhead", overhead(&walls));
    }
    Ok(report)
}
