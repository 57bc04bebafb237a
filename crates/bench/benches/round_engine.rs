//! End-to-end round-engine benchmark: one synchronous LAACAD round at
//! N ∈ {1 000, 4 000, 10 000}, k ∈ {1, 3}, serial vs parallel — plus the
//! PR-4 section: quiescent steady-state rounds under the dirty-node
//! index, which skips every ring search once nothing moves, with
//! allocations-per-round under a counting global allocator. The PR-6
//! section records one cold / steady / partial round at N = 10⁴ through
//! the telemetry registry and reports the per-stage wall-clock split
//! (classify / adjacency / ring search / geometry / move apply); smoke
//! mode additionally guards that an installed-but-disabled
//! [`laacad::NoopRecorder`] costs < 2% on steady-state rounds.
//!
//! Custom harness (not Criterion): a single round at N = 10⁴ is seconds,
//! not microseconds, and the result must land in a machine-readable
//! `BENCH_round_engine.json` at the workspace root to seed the perf
//! trajectory. `PRE_PR_SERIAL_SECONDS` records the engine *before* the
//! parallel/incremental rewrite and `PR2_SERIAL_SECONDS` the engine
//! before the allocation-free/cached rewrite (both measured on the same
//! single-core dev container the committed JSON was produced on);
//! rerunning on other hardware refreshes the current-engine numbers but
//! keeps those references labeled with their origin.
//!
//! The PR-8 section sweeps the memory layout (struct-of-arrays network,
//! flat dense grid, per-worker arenas) at N ∈ {10⁵, 10⁶}, k = 1: cold
//! round (serial and parallel), steady quiescent round, and the
//! 1%-movers partial-activity round with its per-stage telemetry
//! breakdown.
//!
//! Run `cargo bench -p laacad-bench --bench round_engine -- --smoke` for
//! the CI smoke mode: N = 10³ plus the N = 10⁵ layout guard, with a
//! generous (3×) wall-clock regression guard against the committed
//! reference and the zero-geometry-allocation steady-state assertions.
//! The engine's work-counter guards (quiescent rounds, partial activity)
//! are tier-1 tests in `crates/core/tests/active_set_counters.rs`.
//! `--n <N>` (or `LAACAD_BENCH_N=<N>`) caps the sweep — cells above the
//! cap are skipped, and a capped full run prints measurements without
//! rewriting the committed JSON.

use laacad::{
    ExecutionMode, LaacadConfig, NoopRecorder, Session, SessionBuilder, Stage, TelemetryRegistry,
};
use laacad_dist::{AsyncConfig, AsyncExecutor, Backoff, DelayModel, FaultPlan};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_serve::{Command, HostConfig, QueuePolicy, SessionHost};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Global allocator wrapper counting every allocation (alloc, realloc,
/// alloc_zeroed). Deallocations are passed through uncounted — the
/// interesting number is how often the hot path asks the heap for
/// memory at all.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Serial round times of the pre-rewrite engine (fresh BFS per ring
/// expansion, `vec![usize::MAX; N]` per query, recursive subdivision),
/// measured on the reference container before the PR-2 rewrite landed.
const PRE_PR_SERIAL_SECONDS: &[(usize, usize, f64)] = &[
    (1_000, 1, 0.223),
    (1_000, 3, 0.465),
    (4_000, 1, 0.829),
    (4_000, 3, 2.116),
    (10_000, 1, 2.367),
    (10_000, 3, 5.637),
];

/// Serial round times of the PR-2 engine (shared snapshot, incremental
/// ring search, allocating clips) — the committed `BENCH_round_engine.json`
/// measured on the reference container before the PR-3
/// allocation-free/cached rewrite.
const PR2_SERIAL_SECONDS: &[(usize, usize, f64)] = &[
    (1_000, 1, 0.087727),
    (1_000, 3, 0.236937),
    (4_000, 1, 0.429677),
    (4_000, 3, 1.048730),
    (10_000, 1, 0.994706),
    (10_000, 3, 2.682579),
];

const PRE_PR_REFERENCE_HOST: &str = "1-core dev container, 2026-07-29";

/// Steady-state cached round times of the PR-3 engine (ring search per
/// node per round, geometry served from the view cache) — the committed
/// `BENCH_round_engine.json` measured on the reference container before
/// the PR-4 dirty-node index landed.
const PR3_STEADY_CACHED_SECONDS: &[(usize, usize, f64)] = &[
    (1_000, 3, 0.028551),
    (4_000, 3, 0.121520),
    (10_000, 3, 0.331936),
];

/// Partial-activity rounds of the PR-4 engine — one round reacting to a
/// localized displacement of `fraction·N` nodes (corner disk, quarter-γ
/// nudges) on a converged deployment, measured on the reference
/// container at the commit before the PR-5 active-set engine landed
/// (exact reach radii + ρ warm start + incremental adjacency + the
/// subdivision/sweep kernel work). Rows are `(n, k, fraction, secs)`.
const PR4_PARTIAL_SECONDS: &[(usize, usize, f64, f64)] = &[
    (10_000, 3, 0.01, 0.078188),
    (10_000, 3, 0.10, 0.381183),
    (10_000, 3, 0.50, 1.105094),
    (4_000, 3, 0.10, 0.129466),
];

/// Smoke-mode regression guard: fail when the serial N = 10³ round is
/// more than 3× the committed reference (generous on purpose — CI boxes
/// vary; a real regression on this path is multiplicative, not 20%).
const SMOKE_GUARD_FACTOR: f64 = 3.0;

/// Steady-state allocation ceiling. A converged round still builds its
/// per-round decision vector (O(1) allocations); any polygon-vertex or
/// ring-check allocation would show up once per node, i.e. ≥ N — so a
/// small constant bound proves the geometry hot path is allocation-free.
const STEADY_ALLOC_CEILING: u64 = 16;

/// Telemetry-overhead guard: an installed [`NoopRecorder`] must cost
/// less than 2% wall-clock on steady-state rounds (plus a fixed timer
/// slack so near-zero baselines don't turn jitter into failures) — the
/// off path is one `enabled()` branch per stage, not per node.
const TELEMETRY_OVERHEAD_FACTOR: f64 = 1.02;
const TELEMETRY_OVERHEAD_SLACK_SECONDS: f64 = 0.01;

/// Smoke-mode layout guard size: one steady quiescent round at this N
/// must finish under [`SMOKE_LARGE_N_STEADY_SECONDS`] with O(1)
/// allocations — a memory-layout regression (hash-grid fallback on a
/// dense cloud, arena losing its high-water buffers) shows up here as a
/// multiplicative slowdown or an O(N) allocation count.
const SMOKE_LARGE_N: usize = 100_000;

/// Generous wall-clock bound for the smoke layout guard: a quiescent
/// round at N = 10⁵ is an O(N) stored-view replay (milliseconds on the
/// dev container), so a one-second ceiling only trips on structural
/// regressions, not CI jitter.
const SMOKE_LARGE_N_STEADY_SECONDS: f64 = 1.0;

/// The PR-8 sweep sizes (k = 1 throughout: at 10⁶ nodes the point of
/// the exercise is the layout, and k = 1 keeps the per-node search
/// small enough that grid traversal dominates).
const PR8_SWEEP: &[usize] = &[100_000, 1_000_000];

/// Acceptance bar for the flagship cell: the single round reacting to a
/// localized 1% displacement at N = 10⁶ must complete in at most this
/// many seconds on the dev container.
const PR8_PARTIAL_1M_CEILING_SECONDS: f64 = 5.0;

/// The `--n <N>` / `LAACAD_BENCH_N=<N>` sweep cap: cells above the cap
/// are skipped everywhere (main table, PR sections, the smoke layout
/// guard), so CI and quick local runs stay small while the full
/// 10⁵/10⁶ table runs uncapped.
fn bench_n_cap() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--n" {
            let v = args.next().expect("--n requires a value");
            return Some(v.parse().expect("--n takes a node count"));
        }
    }
    std::env::var("LAACAD_BENCH_N")
        .ok()
        .map(|v| v.parse().expect("LAACAD_BENCH_N takes a node count"))
}

fn pr2_reference(n: usize, k: usize) -> f64 {
    PR2_SERIAL_SECONDS
        .iter()
        .find(|&&(rn, rk, _)| rn == n && rk == k)
        .map(|&(_, _, s)| s)
        .expect("reference row exists")
}

fn pr3_steady_reference(n: usize, k: usize) -> f64 {
    PR3_STEADY_CACHED_SECONDS
        .iter()
        .find(|&&(rn, rk, _)| rn == n && rk == k)
        .map(|&(_, _, s)| s)
        .expect("reference row exists")
}

fn build(n: usize, k: usize, threads: usize, epsilon: f64) -> Session {
    build_mode(n, k, threads, epsilon, ExecutionMode::Synchronous)
}

fn build_mode(
    n: usize,
    k: usize,
    threads: usize,
    epsilon: f64,
    execution: ExecutionMode,
) -> Session {
    let region = Region::square(1.0).expect("unit square");
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(epsilon)
        .max_rounds(1_000)
        .threads(threads)
        .execution(execution)
        .build()
        .expect("valid config");
    let initial = sample_uniform(&region, n, 42);
    Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .expect("valid deployment")
}

/// Times one cold `step()` (best of `reps`; construction and index
/// build excluded, as in [`time_round`]). ε scales with the expected
/// sensing range `√(k/πN)` — at N = 10⁶ the fixed 2·10⁻³ used by the
/// small-N cells exceeds the inter-node spacing, and a fresh deployment
/// would count as already-at-target.
fn time_cold(n: usize, k: usize, threads: usize, reps: usize) -> f64 {
    let epsilon = 5e-3 * (k as f64 / (std::f64::consts::PI * n as f64)).sqrt();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut sim = build(n, k, threads, epsilon);
        let t = Instant::now();
        let delta = sim.step();
        let dt = t.elapsed().as_secs_f64();
        assert!(delta.report.nodes_moved > 0, "a fresh deployment must move");
        best = best.min(dt);
    }
    best
}

/// PR-9: `laacad-snapshot/1` serialize/deserialize latency and buffer
/// size after one cold round (so views, caches, adjacency and history
/// all carry real content).
fn snapshot_roundtrip(n: usize, k: usize) -> (f64, f64, usize) {
    let epsilon = 5e-3 * (k as f64 / (std::f64::consts::PI * n as f64)).sqrt();
    let mut sim = build(n, k, 1, epsilon);
    sim.step();
    let t = Instant::now();
    let bytes = sim.snapshot();
    let snapshot_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let restored = SessionBuilder::restore(&bytes).expect("snapshot restores");
    let restore_s = t.elapsed().as_secs_f64();
    assert_eq!(restored.rounds_executed(), sim.rounds_executed());
    (snapshot_s, restore_s, bytes.len())
}

/// PR-9: host throughput — `sessions` independent 64-node deployments
/// stepped `rounds` times each through the scheduler's tick fan-out
/// (queues preloaded so the measurement is pure scheduling + engine).
/// Returns executed session-rounds per second.
fn host_throughput(sessions: usize, rounds: usize) -> f64 {
    let region = Region::square(1.0).expect("unit square");
    let (n, k) = (64, 1);
    let mut host = SessionHost::new(HostConfig {
        queue_capacity: rounds,
        policy: QueuePolicy::Reject,
        tick_budget: 1,
        threads: 0,
    });
    let mut ids = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let config = LaacadConfig::builder(k)
            .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
            .alpha(0.6)
            .epsilon(1e-6)
            .max_rounds(10_000)
            .seed(i as u64)
            .build()
            .expect("valid config");
        let session = Session::builder(config)
            .region(region.clone())
            .positions(sample_uniform(&region, n, 1_000 + i as u64))
            .build()
            .expect("valid deployment");
        ids.push(host.admit(session));
    }
    for &id in &ids {
        for _ in 0..rounds {
            host.submit(id, Command::Step)
                .expect("queue sized for the whole run");
        }
    }
    let t = Instant::now();
    for _ in 0..rounds {
        host.tick();
    }
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(host.stats().executed, (sessions * rounds) as u64);
    (sessions * rounds) as f64 / dt
}

/// PR-10: one full asynchronous run under the batched event queue —
/// 10% loss plus exponential link delay so the retry machinery and the
/// queue both work for a living — at a fixed worker count. Returns
/// `(events per second, events processed, final position bits)`; the
/// bits let the caller assert thread-count invariance across cells.
fn async_run_throughput(n: usize, threads: usize) -> (f64, u64, Vec<(u64, u64)>) {
    let region = Region::square(1.0).expect("unit square");
    let positions = sample_uniform(&region, n, 42);
    let k = 1;
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(50)
        .seed(42)
        .threads(threads)
        .build()
        .expect("valid config");
    let plan = FaultPlan {
        loss: 0.1,
        delay: DelayModel::Exp { mean: 1.0 },
        ..FaultPlan::default()
    };
    let mut exec = AsyncExecutor::new(config, region, positions, plan, AsyncConfig::default())
        .expect("valid async deployment");
    let t = Instant::now();
    let report = exec.run();
    let dt = t.elapsed().as_secs_f64();
    let bits = exec
        .network()
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    (
        report.events_processed as f64 / dt,
        report.events_processed,
        bits,
    )
}

/// PR-10: message cost of a retransmission-backoff policy at 10% loss —
/// the raw hello/retransmission counters of one asynchronous run, for
/// the fixed-vs-adaptive overhead comparison.
fn backoff_overhead(n: usize, backoff: Backoff) -> (u64, u64, usize) {
    let region = Region::square(1.0).expect("unit square");
    let positions = sample_uniform(&region, n, 42);
    let k = 1;
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(200)
        .seed(42)
        .build()
        .expect("valid config");
    let plan = FaultPlan {
        loss: 0.1,
        ..FaultPlan::default()
    };
    let proto = AsyncConfig {
        backoff,
        ..AsyncConfig::default()
    };
    let mut exec =
        AsyncExecutor::new(config, region, positions, plan, proto).expect("valid async deployment");
    let report = exec.run();
    (
        report.protocol.sent,
        report.protocol.retransmissions,
        report.summary.rounds,
    )
}

/// Times one `step()` (best of `reps` fresh simulations; construction
/// and spatial-index build are excluded).
fn time_round(n: usize, k: usize, threads: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut sim = build(n, k, threads, 2e-3);
        let t = Instant::now();
        let delta = sim.step();
        let dt = t.elapsed().as_secs_f64();
        assert!(delta.report.nodes_moved > 0, "a fresh deployment must move");
        best = best.min(dt);
    }
    best
}

/// Steady-state serial round: run with a loose ε until the deployment
/// converges (movement per round drops below typical displacement almost
/// immediately on a uniform start), take one extra round so every cache
/// entry reflects the final positions, then time and alloc-count one
/// more round. Synchronous rounds are then quiescent (zero ring
/// searches, stored views replayed); Gauss–Seidel rounds still run
/// every node's ring search and serve its geometry from the view
/// cache. Returns `((seconds, allocations), ring searches in the timed
/// round)`.
fn steady_round(n: usize, k: usize, execution: ExecutionMode) -> ((f64, u64), usize) {
    let mut sim = build_mode(n, k, 1, 0.05, execution);
    let mut converged = false;
    for _ in 0..40 {
        let delta = sim.step();
        if delta.report.converged {
            converged = true;
            break;
        }
    }
    // The zero-ring-search assertions downstream only hold for a truly
    // quiescent deployment — an unconverged warm-up must fail loudly
    // here, not masquerade as a dirty-index regression.
    assert!(
        converged,
        "steady-state warm-up did not converge (N={n}, k={k}): measurement invalid"
    );
    sim.step(); // cache fill / pool high-water pass at the final positions
    let a0 = allocations();
    let t = Instant::now();
    let delta = sim.step();
    let dt = t.elapsed().as_secs_f64();
    ((dt, allocations() - a0), delta.ring_searches)
}

/// One partial-activity cell: converge a deployment, displace the
/// `fraction` of nodes nearest the region corner toward the center by a
/// quarter transmission range (a localized external disturbance), then
/// time the single round that reacts to it. Returns
/// `(seconds, ring searches, movers)`; `reps` fresh simulations are
/// measured and the best wall-clock kept (work counters are
/// deterministic across reps).
fn partial_round(n: usize, k: usize, fraction: f64, reps: usize) -> (f64, usize, usize) {
    let mut best = (f64::INFINITY, 0, 0);
    for rep in 0..reps {
        let (dt, searches, movers, _) = partial_round_once(n, k, fraction, false);
        if rep > 0 {
            assert_eq!(best.1, searches, "work counters must be deterministic");
        }
        if dt < best.0 || rep == 0 {
            best = (dt, searches, movers);
        }
    }
    best
}

/// With `record`, the reacting round runs under a [`TelemetryRegistry`]
/// recorder and its per-stage accumulators ride back in the fourth
/// element (the warm-up rounds are not recorded).
fn partial_round_once(
    n: usize,
    k: usize,
    fraction: f64,
    record: bool,
) -> (f64, usize, usize, Option<TelemetryRegistry>) {
    let mut sim = build(n, k, 1, 0.05);
    let mut converged = false;
    for _ in 0..60 {
        if sim.step().report.converged {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "partial-activity warm-up did not converge (N={n})"
    );
    sim.step(); // stored views now describe the final positions
    let gamma = sim.config().gamma;
    let center = laacad_geom::Point::new(0.5, 0.5);
    // The `fraction·n` nodes nearest the (0,0) corner form the perturbed
    // neighborhood — a localized disturbance, the regime the dirty-node
    // classifier is built for.
    let corner = laacad_geom::Point::new(0.0, 0.0);
    let mut order: Vec<usize> = (0..sim.network().len()).collect();
    let positions = sim.network().positions().to_vec();
    order.sort_by(|&a, &b| {
        positions[a]
            .distance_sq(corner)
            .total_cmp(&positions[b].distance_sq(corner))
            .then(a.cmp(&b))
    });
    let movers = ((n as f64 * fraction).round() as usize).max(1);
    let moves: Vec<(laacad_wsn::NodeId, laacad_geom::Point)> = order[..movers]
        .iter()
        .map(|&i| {
            let p = positions[i];
            let d = p.distance(center);
            let step = (0.25 * gamma).min(d);
            (laacad_wsn::NodeId(i), p.lerp(center, step / d.max(1e-12)))
        })
        .collect();
    let displaced = sim.displace_nodes(&moves).expect("displacement valid");
    assert_eq!(displaced, movers, "every picked node must actually move");
    if record {
        sim.set_recorder(Box::new(TelemetryRegistry::new()));
    }
    let t = Instant::now();
    let delta = sim.step();
    let dt = t.elapsed().as_secs_f64();
    if std::env::var_os("PARTIAL_VERBOSE").is_some() {
        eprintln!(
            "  [N={n} f={fraction}] searches={} hits={} misses={}",
            delta.ring_searches, delta.cache_hits, delta.cache_misses
        );
    }
    let registry = record.then(|| take_registry(&mut sim));
    (dt, delta.ring_searches, movers, registry)
}

/// Pulls the [`TelemetryRegistry`] recorder back out of a session.
fn take_registry(sim: &mut Session) -> TelemetryRegistry {
    sim.take_recorder()
        .expect("recorder installed")
        .as_any()
        .downcast_ref::<TelemetryRegistry>()
        .cloned()
        .expect("TelemetryRegistry recorder")
}

/// One PR-6 JSON row: the per-stage wall-clock totals a recorded round
/// (or rounds) accumulated in `reg`.
fn stage_row(phase: &str, reg: &TelemetryRegistry) -> String {
    format!(
        concat!(
            "      {{\"phase\": \"{}\", \"round_seconds\": {:.6}, ",
            "\"classify_seconds\": {:.6}, \"adjacency_seconds\": {:.6}, ",
            "\"ring_search_seconds\": {:.6}, \"geometry_seconds\": {:.6}, ",
            "\"move_apply_seconds\": {:.6}, \"ring_searches\": {}}}"
        ),
        phase,
        reg.stage(Stage::Round).total_seconds(),
        reg.stage(Stage::Classify).total_seconds(),
        reg.stage(Stage::Adjacency).total_seconds(),
        reg.stage(Stage::RingSearch).total_seconds(),
        reg.stage(Stage::Geometry).total_seconds(),
        reg.stage(Stage::MoveApply).total_seconds(),
        reg.stage(Stage::RingSearch).count,
    )
}

/// Times `rounds` steady-state rounds (N = 10³, k = 3, Gauss–Seidel so
/// every round does full ring-search work), best of `reps` fresh
/// deployments — optionally with a [`NoopRecorder`] installed, for the
/// telemetry-overhead guard.
fn steady_block_seconds(noop_recorder: bool, reps: usize, rounds: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut sim = build_mode(1_000, 3, 1, 0.05, ExecutionMode::Sequential);
        let mut converged = false;
        for _ in 0..40 {
            if sim.step().report.converged {
                converged = true;
                break;
            }
        }
        assert!(converged, "telemetry-overhead warm-up did not converge");
        sim.step();
        if noop_recorder {
            sim.set_recorder(Box::new(NoopRecorder));
        }
        let t = Instant::now();
        for _ in 0..rounds {
            sim.step();
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn smoke() {
    let mut failed = false;
    for &(n, k) in &[(1_000usize, 1usize), (1_000, 3)] {
        let serial = time_round(n, k, 1, 2);
        let reference = pr2_reference(n, k);
        let limit = SMOKE_GUARD_FACTOR * reference;
        let verdict = if serial <= limit { "ok" } else { "REGRESSION" };
        eprintln!(
            "smoke N={n} k={k}: serial {serial:.3}s (limit {limit:.3}s = {SMOKE_GUARD_FACTOR}× \
             committed {reference:.3}s) {verdict}"
        );
        failed |= serial > limit;
    }
    // PR-3: a Gauss–Seidel steady round runs every node's ring search
    // and serves its geometry from the view cache without touching the
    // heap per node.
    let ((dt, allocs), searches) = steady_round(1_000, 3, ExecutionMode::Sequential);
    let verdict = if allocs <= STEADY_ALLOC_CEILING {
        "ok"
    } else {
        "ALLOC REGRESSION"
    };
    eprintln!(
        "smoke steady N=1000 k=3 full search: {dt:.4}s, {searches} ring searches, {allocs} \
         allocations (ceiling {STEADY_ALLOC_CEILING}) {verdict}"
    );
    failed |= allocs > STEADY_ALLOC_CEILING;
    // PR-4: a quiescent synchronous round replays the stored views with
    // O(1) allocations.
    let ((dirty_s, dirty_allocs), searches) = steady_round(1_000, 3, ExecutionMode::Synchronous);
    let verdict = if dirty_allocs <= STEADY_ALLOC_CEILING {
        "ok"
    } else {
        "ALLOC REGRESSION"
    };
    eprintln!(
        "smoke steady N=1000 k=3 quiescent: {dirty_s:.5}s, {searches} ring searches, \
         {dirty_allocs} allocations (ceiling {STEADY_ALLOC_CEILING}) {verdict}"
    );
    failed |= dirty_allocs > STEADY_ALLOC_CEILING;
    // PR-6: an installed noop recorder must be free on the hot path —
    // 10 full-work steady rounds with and without it, best of 3.
    {
        let base = steady_block_seconds(false, 3, 10);
        let noop = steady_block_seconds(true, 3, 10);
        let limit = base * TELEMETRY_OVERHEAD_FACTOR + TELEMETRY_OVERHEAD_SLACK_SECONDS;
        let ok = noop <= limit;
        let verdict = if ok {
            "ok"
        } else {
            "TELEMETRY-OVERHEAD REGRESSION"
        };
        eprintln!(
            "smoke telemetry-overhead N=1000 k=3 (10 steady rounds): base {base:.4}s, \
             noop recorder {noop:.4}s (limit {limit:.4}s) {verdict}"
        );
        failed |= !ok;
    }
    // PR-8: the memory-layout guard. One steady quiescent round at
    // N = 10⁵ (or the `--n` cap, if smaller) must stay an O(N) replay —
    // generous wall-clock bound, O(1) allocations.
    {
        let n = bench_n_cap().map_or(SMOKE_LARGE_N, |c| c.min(SMOKE_LARGE_N));
        let ((dt, allocs), searches) = steady_round(n, 1, ExecutionMode::Synchronous);
        let ok = allocs <= STEADY_ALLOC_CEILING && dt <= SMOKE_LARGE_N_STEADY_SECONDS;
        let verdict = if ok { "ok" } else { "LAYOUT REGRESSION" };
        eprintln!(
            "smoke layout N={n} k=1 steady: {dt:.4}s (limit {SMOKE_LARGE_N_STEADY_SECONDS}s), \
             {searches} ring searches, {allocs} allocations (ceiling {STEADY_ALLOC_CEILING}) \
             {verdict}"
        );
        failed |= !ok;
    }
    if failed {
        eprintln!("round_engine smoke FAILED");
        std::process::exit(1);
    }
    eprintln!("round_engine smoke passed");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    let cap = bench_n_cap();
    let skip = |n: usize| cap.is_some_and(|c| n > c);
    let mut rows = Vec::new();
    for &(n, k, pre_pr) in PRE_PR_SERIAL_SECONDS {
        if skip(n) {
            continue;
        }
        let reps = if n <= 1_000 { 3 } else { 1 };
        let serial = time_round(n, k, 1, reps);
        let parallel = time_round(n, k, 0, reps);
        let pr2 = pr2_reference(n, k);
        eprintln!(
            "round_engine N={n} k={k}: serial {serial:.3}s, parallel({workers}) {parallel:.3}s, \
             PR-2 reference {pr2:.3}s, pre-PR reference {pre_pr:.3}s"
        );
        rows.push(format!(
            concat!(
                "    {{\"n\": {}, \"k\": {}, \"serial_seconds\": {:.6}, ",
                "\"parallel_seconds\": {:.6}, ",
                "\"pre_pr_serial_seconds_reference\": {:.6}, ",
                "\"speedup_serial_vs_pre_pr\": {:.2}, ",
                "\"speedup_parallel_vs_pre_pr\": {:.2}, ",
                "\"pr2_serial_seconds_reference\": {:.6}, ",
                "\"speedup_serial_vs_pr2\": {:.2}}}"
            ),
            n,
            k,
            serial,
            parallel,
            pre_pr,
            pre_pr / serial,
            pre_pr / parallel,
            pr2,
            pr2 / serial,
        ));
    }
    // PR-4 section: quiescent steady-state rounds under the dirty-node
    // index — zero ring searches, O(N) replay of the stored views.
    let mut pr4_rows = Vec::new();
    for &n in &[1_000usize, 4_000, 10_000] {
        if skip(n) {
            continue;
        }
        let k = 3;
        let ((dirty_s, dirty_allocs), searches) = steady_round(n, k, ExecutionMode::Synchronous);
        assert_eq!(
            searches, 0,
            "N={n}: a quiescent round under the dirty index still ran ring searches"
        );
        let pr3_steady = pr3_steady_reference(n, k);
        let speedup = pr3_steady / dirty_s;
        eprintln!(
            "round_engine pr4 N={n} k={k}: steady dirty-skip {dirty_s:.6}s \
             ({dirty_allocs} allocs, {searches} ring searches), PR-3 cached steady \
             reference {pr3_steady:.4}s, speedup {speedup:.1}x"
        );
        pr4_rows.push(format!(
            concat!(
                "      {{\"n\": {}, \"k\": {}, ",
                "\"steady_dirty_skip_seconds\": {:.6}, ",
                "\"steady_ring_searches\": {}, ",
                "\"steady_allocs\": {}, ",
                "\"pr3_steady_cached_seconds_reference\": {:.6}, ",
                "\"speedup_steady_vs_pr3_cached\": {:.2}}}"
            ),
            n, k, dirty_s, searches, dirty_allocs, pr3_steady, speedup,
        ));
    }
    // PR-5 section: partial-activity rounds — a converged deployment,
    // a localized corner displacement of 1% / 10% / 50% of the nodes,
    // and the single round that reacts to it, vs the PR-4 engine's
    // committed reference on the same workload.
    let mut pr5_rows = Vec::new();
    for &(n, k, fraction, pr4_ref) in PR4_PARTIAL_SECONDS {
        if skip(n) {
            continue;
        }
        let reps = 4;
        let (dt, searches, movers) = partial_round(n, k, fraction, reps);
        let speedup = pr4_ref / dt;
        let searched_fraction = searches as f64 / n as f64;
        eprintln!(
            "round_engine pr5 N={n} k={k} movers={movers} ({:.0}%): {dt:.4}s, \
             {searches} ring searches ({:.1}% of N), PR-4 reference {pr4_ref:.4}s, \
             speedup {speedup:.2}x",
            fraction * 100.0,
            searched_fraction * 100.0,
        );
        pr5_rows.push(format!(
            concat!(
                "      {{\"n\": {}, \"k\": {}, \"mover_fraction\": {}, ",
                "\"movers\": {}, ",
                "\"partial_round_seconds\": {:.6}, ",
                "\"ring_searches\": {}, ",
                "\"ring_search_fraction\": {:.4}, ",
                "\"pr4_partial_seconds_reference\": {:.6}, ",
                "\"speedup_vs_pr4\": {:.2}}}"
            ),
            n, k, fraction, movers, dt, searches, searched_fraction, pr4_ref, speedup,
        ));
    }
    // PR-6 section: where does a round's time actually go? One recorded
    // round per regime at N = 10⁴, k = 3 — cold (first round, every
    // node searches), steady (quiescent under the dirty index: the
    // classifier is the round), partial (reacting to a localized 10%
    // corner displacement) — through the telemetry registry.
    let mut pr6_rows = Vec::new();
    if !skip(10_000) {
        let n = 10_000;
        let k = 3;
        let mut sim = build(n, k, 1, 2e-3);
        sim.set_recorder(Box::new(TelemetryRegistry::new()));
        sim.step();
        let cold = take_registry(&mut sim);

        let mut sim = build(n, k, 1, 0.05);
        let mut converged = false;
        for _ in 0..40 {
            if sim.step().report.converged {
                converged = true;
                break;
            }
        }
        assert!(converged, "pr6 steady warm-up did not converge");
        sim.step();
        sim.set_recorder(Box::new(TelemetryRegistry::new()));
        sim.step();
        let steady = take_registry(&mut sim);

        let (_, _, _, partial) = partial_round_once(n, k, 0.10, true);
        let partial = partial.expect("recorded partial round");

        for (phase, reg) in [("cold", &cold), ("steady", &steady), ("partial", &partial)] {
            eprintln!(
                "round_engine pr6 N={n} k={k} {phase}: round {:.4}s = classify {:.4}s + \
                 adjacency {:.4}s + ring search {:.4}s + geometry {:.4}s + move apply {:.4}s \
                 ({} searches)",
                reg.stage(Stage::Round).total_seconds(),
                reg.stage(Stage::Classify).total_seconds(),
                reg.stage(Stage::Adjacency).total_seconds(),
                reg.stage(Stage::RingSearch).total_seconds(),
                reg.stage(Stage::Geometry).total_seconds(),
                reg.stage(Stage::MoveApply).total_seconds(),
                reg.stage(Stage::RingSearch).count,
            );
            pr6_rows.push(stage_row(phase, reg));
        }
    }
    // PR-8 section: the memory-layout sweep. N ∈ {10⁵, 10⁶} at k = 1 —
    // cold round (serial and parallel), one steady quiescent round, and the
    // flagship cell: the single round reacting to a localized 1%
    // displacement, recorded through the telemetry registry so the JSON
    // carries its per-stage breakdown.
    let mut pr8_rows = Vec::new();
    let mut pr8_stage_rows = Vec::new();
    for &n in PR8_SWEEP {
        if skip(n) {
            continue;
        }
        let k = 1;
        let cold_serial = time_cold(n, k, 1, 1);
        let cold_parallel = time_cold(n, k, 0, 1);
        let ((steady_s, steady_allocs), steady_searches) =
            steady_round(n, k, ExecutionMode::Synchronous);
        assert_eq!(
            steady_searches, 0,
            "N={n}: a quiescent round under the dirty index still ran ring searches"
        );
        let (partial_s, partial_searches, movers, reg) = partial_round_once(n, k, 0.01, true);
        let reg = reg.expect("recorded partial round");
        if n == 1_000_000 {
            assert!(
                partial_s <= PR8_PARTIAL_1M_CEILING_SECONDS,
                "N=10^6 1%-movers round took {partial_s:.2}s, above the \
                 {PR8_PARTIAL_1M_CEILING_SECONDS}s acceptance ceiling"
            );
        }
        eprintln!(
            "round_engine pr8 N={n} k={k}: cold serial {cold_serial:.3}s \
             / parallel({workers}) {cold_parallel:.3}s, steady {steady_s:.4}s \
             ({steady_allocs} allocs), partial 1% ({movers} movers) {partial_s:.4}s \
             ({partial_searches} ring searches)"
        );
        pr8_rows.push(format!(
            concat!(
                "      {{\"n\": {}, \"k\": {}, ",
                "\"cold_serial_seconds\": {:.6}, ",
                "\"cold_parallel_seconds\": {:.6}, ",
                "\"steady_seconds\": {:.6}, ",
                "\"steady_allocs\": {}, ",
                "\"partial_movers\": {}, ",
                "\"partial_round_seconds\": {:.6}, ",
                "\"partial_ring_searches\": {}}}"
            ),
            n,
            k,
            cold_serial,
            cold_parallel,
            steady_s,
            steady_allocs,
            movers,
            partial_s,
            partial_searches,
        ));
        pr8_stage_rows.push(stage_row(&format!("partial_n{n}"), &reg));
    }
    // PR-9 section: the serve layer. Snapshot/restore latency across
    // the N sweep, and scheduler throughput at fleet sizes.
    let mut pr9_snapshot_rows = Vec::new();
    for &n in &[10_000usize, 100_000, 1_000_000] {
        if skip(n) {
            continue;
        }
        let k = 1;
        let (snapshot_s, restore_s, bytes) = snapshot_roundtrip(n, k);
        eprintln!(
            "round_engine pr9 N={n} k={k}: snapshot {snapshot_s:.4}s, restore {restore_s:.4}s, \
             {bytes} bytes ({:.1} MB)",
            bytes as f64 / 1e6
        );
        pr9_snapshot_rows.push(format!(
            concat!(
                "      {{\"n\": {}, \"k\": {}, ",
                "\"snapshot_seconds\": {:.6}, ",
                "\"restore_seconds\": {:.6}, ",
                "\"snapshot_bytes\": {}}}"
            ),
            n, k, snapshot_s, restore_s, bytes,
        ));
    }
    let mut pr9_host_rows = Vec::new();
    for &sessions in &[64usize, 512] {
        if skip(sessions * 64) {
            continue;
        }
        let rounds = 50;
        let throughput = host_throughput(sessions, rounds);
        eprintln!(
            "round_engine pr9 host: {sessions} sessions x {rounds} rounds, \
             {throughput:.0} session-rounds/s over {workers} workers"
        );
        pr9_host_rows.push(format!(
            concat!(
                "      {{\"sessions\": {}, \"rounds_per_session\": {}, ",
                "\"nodes_per_session\": 64, ",
                "\"session_rounds_per_second\": {:.1}}}"
            ),
            sessions, rounds, throughput,
        ));
    }
    // PR-10 section: the adversarial async engine. Batched event-queue
    // throughput across thread counts (with a live thread-invariance
    // assert), and the fixed-vs-adaptive backoff message cost at 10%
    // loss.
    let mut pr10_queue_rows = Vec::new();
    for &n in &[1_000usize, 10_000] {
        if skip(n) {
            continue;
        }
        let mut serial_bits = None;
        for &threads in &[1usize, 4] {
            let (events_per_s, events, bits) = async_run_throughput(n, threads);
            match &serial_bits {
                None => serial_bits = Some(bits),
                Some(reference) => assert_eq!(
                    reference, &bits,
                    "async run diverged between 1 and {threads} threads at N={n}"
                ),
            }
            eprintln!(
                "round_engine pr10 N={n} threads={threads}: {events_per_s:.0} events/s \
                 over {events} events"
            );
            pr10_queue_rows.push(format!(
                concat!(
                    "      {{\"n\": {}, \"threads\": {}, ",
                    "\"events_processed\": {}, ",
                    "\"events_per_second\": {:.1}}}"
                ),
                n, threads, events, events_per_s,
            ));
        }
    }
    let mut pr10_backoff_rows = Vec::new();
    if !skip(1_000) {
        for (label, backoff) in [
            ("fixed", Backoff::Fixed),
            (
                "adaptive",
                Backoff::ExponentialJittered {
                    cap: 64,
                    jitter: 0.3,
                },
            ),
        ] {
            let (sent, retransmissions, rounds) = backoff_overhead(1_000, backoff);
            eprintln!(
                "round_engine pr10 backoff={label} N=1000 loss=0.1: {sent} sent, \
                 {retransmissions} retransmissions, {rounds} rounds"
            );
            pr10_backoff_rows.push(format!(
                concat!(
                    "      {{\"backoff\": \"{}\", \"n\": 1000, \"loss\": 0.1, ",
                    "\"messages_sent\": {}, ",
                    "\"retransmissions\": {}, ",
                    "\"rounds\": {}}}"
                ),
                label, sent, retransmissions, rounds,
            ));
        }
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"round_engine\",\n",
            "  \"description\": \"one synchronous LAACAD round (Phase 1 local views + Phase 2 moves)\",\n",
            "  \"parallel_workers\": {},\n",
            "  \"pre_pr_reference_host\": \"{}\",\n",
            "  \"rounds\": [\n{}\n  ],\n",
            "  \"pr4\": {{\n",
            "    \"description\": \"dirty-node index (session engine): fully quiescent steady-state rounds skip every ring search and replay stored views in O(N) — vs the PR-3 cached steady round, which still searched per node per round\",\n",
            "    \"rows\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"pr5\": {{\n",
            "    \"description\": \"active-set round engine: partially-active rounds (a converged deployment, a localized corner displacement of mover_fraction·N nodes, and the single round reacting to it) under exact reach radii, the rho warm start, the incremental adjacency index and the subdivision/sweep kernel work — vs the committed PR-4 engine reference on the identical workload; ring searches stay proportional to the perturbed set, not N\",\n",
            "    \"rows\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"pr6\": {{\n",
            "    \"description\": \"telemetry stage breakdown: per-stage wall-clock totals of one round recorded through the laacad-telemetry registry at N = 10^4, k = 3 — cold (first round, every node searches), steady (quiescent round under the dirty index: classification is the round), partial (reacting to a localized 10% corner displacement). Stage seconds include the recorder's own per-node timestamping, so the rows describe where time goes rather than serving as a regression reference; the noop-recorder <2% overhead guard runs in smoke mode\",\n",
            "    \"rows\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"pr8\": {{\n",
            "    \"description\": \"memory-layout sweep (struct-of-arrays network, flat dense CSR grid, per-worker arenas) at N in {{10^5, 10^6}}, k = 1: cold first round (serial and parallel), one steady quiescent round (O(N) stored-view replay, O(1) allocations), and the single serial round reacting to a localized 1% corner displacement. stage_rows carries the partial round's per-stage telemetry split (classification + replay dominate; ring search and geometry stay proportional to the perturbed set), recorded the same way as the pr6 rows\",\n",
            "    \"rows\": [\n{}\n    ],\n",
            "    \"stage_rows\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"pr9\": {{\n",
            "    \"description\": \"coverage-as-a-service serve layer: laacad-snapshot/2 serialize/restore wall-clock and buffer size after one cold round at N in {{10^4, 10^5, 10^6}}, k = 1 (restored sessions are bit-identical going forward — pinned by tests, not timed here), and SessionHost scheduler throughput: 64 and 512 independent 64-node sessions stepped 50 rounds each through preloaded bounded queues (tick budget 1, reject policy), reported as executed session-rounds per second over the tick fan-out\",\n",
            "    \"snapshot_rows\": [\n{}\n    ],\n",
            "    \"host_rows\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"pr10\": {{\n",
            "    \"description\": \"adversarial async engine: queue_rows times one full asynchronous run (10% loss, Exp(1) link delay, 50-round budget) under the sharded (tick, seq)-merged event queue at N in {{10^3, 10^4}} x threads in {{1, 4}}, reported as processed events per second — the 1-vs-4-thread cells are asserted bit-identical while measuring. backoff_rows compares the message cost of fixed vs adaptive (exponential + 0.3 jitter, RTT-estimated RTO) retransmission backoff on the same 10%-loss deployment at N = 10^3\",\n",
            "    \"queue_rows\": [\n{}\n    ],\n",
            "    \"backoff_rows\": [\n{}\n    ]\n",
            "  }}\n",
            "}}\n"
        ),
        workers,
        PRE_PR_REFERENCE_HOST,
        rows.join(",\n"),
        pr4_rows.join(",\n"),
        pr5_rows.join(",\n"),
        pr6_rows.join(",\n"),
        pr8_rows.join(",\n"),
        pr8_stage_rows.join(",\n"),
        pr9_snapshot_rows.join(",\n"),
        pr9_host_rows.join(",\n"),
        pr10_queue_rows.join(",\n"),
        pr10_backoff_rows.join(",\n")
    );
    if cap.is_some() {
        eprintln!("--n cap active: measurements above; committed JSON left untouched");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_round_engine.json");
    std::fs::write(path, &json).expect("write BENCH_round_engine.json");
    eprintln!("wrote {path}");
}
