//! `host_stream`: a `SessionHost` serving 512 sessions of 64 nodes on
//! two threads, tick budget 1, `Reject` policy. A closed loop: one
//! client submits one command per live session — mostly `Step`, plus a
//! seeded share of `Displace`, `QueryCoverage` and `Snapshot` — then
//! waits for `tick()`. One op is one tick; `ops_per_s` counts executed
//! commands.

use crate::report::{median, overhead, ratio, repeat_setup, same_position_bits, Quality, Report};
use crate::sys::Fnv;
use crate::trace::{
    absorb_recorder, absorb_registry, allocations, attach_registry, count_allocations, Tracer,
};
use crate::Ctx;
use laacad::{Session, SessionBuilder, Stage, TelemetryRegistry};
use laacad_coverage::evaluate_coverage;
use laacad_geom::Point;
use laacad_region::sampling::SplitMix64;
use laacad_scenario::{build_scenario, AlgorithmSpec, ScenarioSpec};
use laacad_serve::{Command, HostConfig, QueuePolicy, Response, SessionHost, SessionId};
use laacad_wsn::NodeId;
use std::time::Instant;

const SESSIONS: usize = 512;
const NODES: usize = 64;
const TICKS_PER_PASS: usize = 24;
/// Full passes per second of `--seconds`.
const PASSES_PER_S: f64 = 0.2;
/// Set-up repetitions before each pass, while no other host is live;
/// `setup_s` is the median over all of them.
const SETUP_REPS: usize = 10;
const QUEUE_CAPACITY: usize = 4;
/// The client's command mix, as cumulative shares: `Step` below the
/// first, then `Displace`, then `QueryCoverage`, the rest `Snapshot`.
/// A chosen mix, not a measured traffic profile. Of 512 sessions a tick
/// this gives on average 435 steps, 36 displacements, 26 coverage
/// queries and 15 snapshots, so every kind is sampled in every tick.
const MIX: [f64; 3] = [0.85, 0.92, 0.97];
/// Nodes moved by one `Displace` command: an eighth of a session, so a
/// displacement disturbs a neighbourhood rather than a single node.
const DISPLACED: usize = 8;
/// Grid samples of a `QueryCoverage` command and of the final check.
const COVERAGE_SAMPLES: usize = 400;
/// Rounds a session may take to settle after the stream.
const SETTLE_BUDGET: usize = 300;
/// About 14× the spec's default for 64 nodes, so a session settles in
/// about 37 rounds: it still moves through the 24-tick stream, and the
/// settle check after it stays short.
const EPSILON: f64 = 5e-3;

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        laacad: AlgorithmSpec {
            k: 1,
            alpha: 0.5,
            max_rounds: 10_000,
            epsilon: Some(EPSILON),
            threads: Some(1),
            ..AlgorithmSpec::default()
        },
        ..ScenarioSpec::uniform("host_stream", NODES, 1)
    }
}

/// Builds every session and admits it to a fresh host.
fn admit_all(
    ctx: &Ctx,
    threads: usize,
    tracer: &mut Tracer,
    build_s: &mut Vec<f64>,
) -> Result<(SessionHost, Vec<SessionId>), String> {
    let spec = spec();
    let mut host = SessionHost::new(HostConfig {
        queue_capacity: QUEUE_CAPACITY,
        policy: QueuePolicy::Reject,
        tick_budget: 1,
        threads,
    });
    if tracer.is_on() {
        host.set_recorder(Box::new(TelemetryRegistry::new()));
    }
    let mut ids = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let t = Instant::now();
        let (mut session, _) =
            build_scenario(&spec, ctx.derive(1 + i as u64)).map_err(|e| e.to_string())?;
        build_s.push(t.elapsed().as_secs_f64());
        attach_registry(&mut session, tracer.is_on());
        let (id, _) = tracer.time("SessionHost::admit", None, || host.admit(session));
        ids.push(id);
    }
    Ok((host, ids))
}

/// The next command for a session, drawn from the client's stream.
fn next_command(rng: &mut SplitMix64, session: &Session) -> Command {
    let u = rng.next_f64();
    if u < MIX[0] {
        return Command::Step;
    }
    if u < MIX[1] {
        let gamma = session.config().gamma;
        let centre = Point::new(0.5, 0.5);
        let first = (rng.next_u64() % NODES as u64) as usize;
        let moves = (0..DISPLACED)
            .map(|j| {
                let id = NodeId((first + j) % NODES);
                let p = session.network().position(id);
                let d = p.distance(centre);
                let step = (0.25 * gamma).min(d);
                (id, p.lerp(centre, step / d.max(1e-12)))
            })
            .collect();
        return Command::Displace(moves);
    }
    if u < MIX[2] {
        return Command::QueryCoverage {
            samples: COVERAGE_SAMPLES,
        };
    }
    Command::Snapshot
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let threads = ctx.threads_or(2);
    tracer.set_on(false);
    let (mut setup_times, mut build_s) = (Vec::new(), Vec::new());
    let mut hosted = Some(repeat_setup(SETUP_REPS, &mut setup_times, || {
        admit_all(ctx, threads, tracer, &mut build_s)
    })?);
    let mut report = Report::new("host_stream", ctx.seed, NODES, "1", threads);
    report.note("sessions", SESSIONS);
    report.note("ticks_per_pass", TICKS_PER_PASS);

    let passes = ctx.scaled(PASSES_PER_S, 2);
    let traced_from = if ctx.trace { 1 } else { passes };
    let mut registry = TelemetryRegistry::new();
    let mut host_registry = TelemetryRegistry::new();
    let mut walls = [Vec::new(), Vec::new()];
    let (mut executed, mut rejected, mut shed, mut depth_max) = (0u64, 0u64, 0u64, 0usize);
    let (mut allocs, mut traced_ops) = (0u64, 0usize);
    let (mut snapshot_kb, mut restore_s, mut query_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_state = None;
    for pass in 0..passes {
        let traced = pass >= traced_from;
        tracer.set_on(traced);
        crate::sys::release_freed_memory();
        let (mut host, ids) = match hosted.take() {
            Some(h) => h,
            None => repeat_setup(SETUP_REPS, &mut setup_times, || {
                admit_all(ctx, threads, tracer, &mut build_s)
            })?,
        };
        let mut rng = SplitMix64::new(ctx.derive(0xC0FFEE));
        let mut wall = 0.0;
        for tick in 0..TICKS_PER_PASS {
            let commands: Vec<Command> = ids
                .iter()
                .map(|&id| next_command(&mut rng, host.session(id).expect("live session")))
                .collect();
            let (results, submit_s) = tracer.time("SessionHost::submit", None, || {
                ids.iter()
                    .zip(commands)
                    .map(|(&id, command)| host.submit(id, command))
                    .collect::<Vec<_>>()
            });
            for r in &results {
                report.check(r.is_ok(), || {
                    format!("tick {tick}: submission refused: {r:?}")
                });
            }
            if traced {
                depth_max = depth_max.max(
                    ids.iter()
                        .filter_map(|&id| host.queue_depth(id))
                        .max()
                        .unwrap_or(0),
                );
            }
            count_allocations(traced);
            let before = allocations();
            let (responses, tick_s) = tracer.time("SessionHost::tick", None, || host.tick());
            count_allocations(false);
            if traced {
                allocs += allocations() - before;
                traced_ops += 1;
            }
            wall += submit_s + tick_s;
            report.op_s.push(tick_s);
            report.attempted += 1;

            // Output checks, untimed: every response succeeded, and every
            // snapshot restores to the session it was taken from (one
            // command per session per tick, so the session is unchanged).
            for (id, answers) in &responses {
                for answer in answers {
                    match answer {
                        Response::Failed(e) => report.check(false, || format!("{id}: {e}")),
                        Response::Snapshot(bytes) => {
                            let t = Instant::now();
                            let restored = SessionBuilder::restore(bytes);
                            let dt = t.elapsed().as_secs_f64();
                            let live = host.session(*id).expect("live session");
                            let same = restored.is_ok_and(|r| {
                                r.rounds_executed() == live.rounds_executed()
                                    && same_position_bits(
                                        r.network().positions(),
                                        live.network().positions(),
                                    )
                            });
                            report.check(same, || format!("{id}: snapshot restores differently"));
                            if traced {
                                snapshot_kb.push(bytes.len() as f64 / 1e3);
                                restore_s.push(dt);
                            }
                        }
                        // Mid-stream radii are only consistent with the
                        // positions once a session has settled.
                        Response::Coverage(c) => {
                            let settled = host.session(*id).is_some_and(|s| s.is_converged());
                            report.check(!settled || c.covered_fraction >= 1.0, || {
                                format!("{id}: settled but queried coverage {}", c.covered_fraction)
                            })
                        }
                        _ => {}
                    }
                }
            }
        }
        walls[usize::from(traced)].push(wall);
        report.work_done += host.stats().executed as f64;
        if traced {
            let stats = host.stats();
            executed += stats.executed;
            rejected += stats.rejected;
            shed += stats.shed;
            if let Some(recorder) = host.take_recorder() {
                absorb_recorder(recorder, &mut host_registry);
            }
        }

        // Retire every session. Every pass must end in the first pass's
        // state; only the first pass's sessions are then settled and
        // checked, since later passes would repeat that work exactly.
        let mut retired = Vec::with_capacity(ids.len());
        let mut state = Fnv::new();
        for &id in &ids {
            let (session, _) = tracer.time("SessionHost::retire", None, || host.retire(id));
            let mut session = session.ok_or_else(|| format!("{id} vanished"))?;
            absorb_registry(&mut session, &mut registry);
            let c = session.counters();
            state.u64(session.rounds_executed() as u64);
            state.u64(c.ring_searches);
            state.u64(c.adjacency_incremental_updates);
            for p in session.network().positions() {
                state.u64(p.x.to_bits());
                state.u64(p.y.to_bits());
            }
            retired.push((id, session));
        }
        if let Some(fp) = first_state {
            report.check(fp == state.finish(), || {
                format!("pass {pass} differs from pass 0")
            });
            continue;
        }
        first_state = Some(state.finish());
        let mut quality = Quality::default();
        for (id, mut session) in retired {
            let mut settled = session.is_converged();
            for _ in 0..SETTLE_BUDGET {
                if settled {
                    break;
                }
                settled = session.step().report.converged;
            }
            report.check(settled, || {
                format!("{id} did not settle in {SETTLE_BUDGET} rounds")
            });
            let t = Instant::now();
            let cov = evaluate_coverage(session.network(), session.region(), 1, COVERAGE_SAMPLES);
            query_s.push(t.elapsed().as_secs_f64());
            report.check(cov.is_k_covered(), || {
                format!("{id} covers {} of its samples", cov.covered_fraction)
            });
            let m = session.summarize().messages;
            quality.add_cell(
                session.rounds_executed() as u64,
                m.unicast + m.broadcast,
                session.network().positions(),
                session.network().sensing_radii(),
                cov.covered_fraction,
            );
            let c = session.counters();
            quality.pin(c.ring_searches);
            quality.pin(c.adjacency_incremental_updates);
        }
        report.quality = quality;
    }
    tracer.set_on(ctx.trace);
    report.setup_s = median(&setup_times);
    report.wall_s = walls.iter().flatten().sum();

    if ctx.trace {
        report.engine_layers(&registry, tracer, 1);
        let tick_s = tracer.total("SessionHost::tick");
        // Every traced pass admits its sessions once per set-up
        // repetition: report the time to admit one host's worth.
        let admits = tracer.count("SessionHost::admit").max(1) as f64;
        report.set(
            "serve.admit_s",
            tracer.total("SessionHost::admit") * SESSIONS as f64 / admits,
        );
        report.set("serve.submit_s", tracer.total("SessionHost::submit"));
        report.set("serve.tick_s", tick_s);
        report.set("serve.executed", executed as f64);
        report.set("serve.rejected", rejected as f64);
        report.set("serve.shed", shed as f64);
        report.set("serve.queue_depth_max", depth_max as f64);
        report.set("serve.snapshot_kb", median(&snapshot_kb));
        report.set("core.restore_s", median(&restore_s));
        report.set(
            "core.allocs_per_op",
            allocs as f64 / traced_ops.max(1) as f64,
        );
        report.set(
            "exec.host_fanout_efficiency",
            ratio(
                registry.stage(Stage::Round).total_seconds(),
                threads as f64 * tick_s,
            ),
        );
        report.check(
            host_registry.counter_total("host_commands_executed") == executed,
            || "host recorder and stats disagree on executed commands".into(),
        );
        report.set("coverage.query_s", median(&query_s));
        report.set("scenario.build_s", median(&build_s));
        report.set("telemetry.overhead", overhead(&walls));
    }
    Ok(report)
}
