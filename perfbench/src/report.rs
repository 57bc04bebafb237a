//! What one run reports: the end-to-end metrics (untraced runs), the
//! per-layer metrics (traced runs), the row metadata, and the output
//! checks that feed `failed`.

use crate::sys::{self, Fnv};
use crate::trace::Tracer;
use laacad::{Stage, TelemetryRegistry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, in output order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "ratio"),
    ("rounds", "count"),
    ("messages", "count"),
    ("max_radius", "length"),
    ("balance_jain", "ratio"),
    ("covered_fraction", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wsn.ring_search_s", "s"),
    ("wsn.ring_searches", "count"),
    ("wsn.adjacency_s", "s"),
    ("wsn.adjacency_rebuilds", "count"),
    ("wsn.adjacency_patches", "count"),
    ("geom.geometry_s", "s"),
    ("geom.geometry_per_miss_us", "us"),
    ("core.step_s", "s"),
    ("core.classify_s", "s"),
    ("core.phase1_s", "s"),
    ("core.move_apply_s", "s"),
    ("core.finalize_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.skip_ratio", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.warm_started", "count"),
    ("core.allocs_per_op", "allocs/op"),
    ("core.restore_s", "s"),
    ("exec.phase1_efficiency", "ratio"),
    ("exec.host_fanout_efficiency", "ratio"),
    ("dist.new_s", "s"),
    ("dist.run_s", "s"),
    ("dist.events", "count"),
    ("dist.events_per_s", "1/s"),
    ("dist.sent", "count"),
    ("dist.delivered", "count"),
    ("dist.lost", "count"),
    ("dist.retransmissions", "count"),
    ("dist.timeouts", "count"),
    ("dist.computes", "count"),
    ("dist.retransmit_ratio", "ratio"),
    ("dist.events_per_compute", "ratio"),
    ("serve.admit_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.tick_s", "s"),
    ("serve.executed", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.snapshot_kb", "kB"),
    ("coverage.query_s", "s"),
    ("scenario.build_s", "s"),
    ("telemetry.overhead", "ratio"),
];

/// The paper's outcome metrics, folded over every cell (deployment) a
/// workload finishes, plus a fingerprint of the exact final state.
#[derive(Debug, Clone)]
pub struct Quality {
    cells: usize,
    rounds: u64,
    messages: u64,
    max_radius_sum: f64,
    jain_sum: f64,
    covered_min: f64,
    fingerprint: Fnv,
}

impl Default for Quality {
    fn default() -> Self {
        Quality {
            cells: 0,
            rounds: 0,
            messages: 0,
            max_radius_sum: 0.0,
            jain_sum: 0.0,
            covered_min: 1.0,
            fingerprint: Fnv::new(),
        }
    }
}

impl Quality {
    /// Adds one finished deployment: its rounds, protocol messages,
    /// final positions and sensing radii, and the k-covered share of
    /// its coverage samples.
    pub fn add_cell(
        &mut self,
        rounds: u64,
        messages: u64,
        positions: &[laacad_geom::Point],
        radii: &[f64],
        covered_fraction: f64,
    ) {
        self.cells += 1;
        self.rounds += rounds;
        self.messages += messages;
        self.max_radius_sum += radii.iter().copied().fold(0.0, f64::max);
        self.jain_sum += jain(radii);
        self.covered_min = self.covered_min.min(covered_fraction);
        self.fingerprint.u64(rounds);
        self.fingerprint.u64(messages);
        for p in positions {
            self.fingerprint.u64(p.x.to_bits());
            self.fingerprint.u64(p.y.to_bits());
        }
        for r in radii {
            self.fingerprint.u64(r.to_bits());
        }
        self.fingerprint.u64(covered_fraction.to_bits());
    }

    /// Folds an extra deterministic counter into the fingerprint.
    pub fn pin(&mut self, value: u64) {
        self.fingerprint.u64(value);
    }

    /// Folds another set of finished deployments into this one.
    pub fn merge(&mut self, other: &Quality) {
        self.cells += other.cells;
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.max_radius_sum += other.max_radius_sum;
        self.jain_sum += other.jain_sum;
        self.covered_min = self.covered_min.min(other.covered_min);
        self.fingerprint.u64(other.fingerprint());
    }

    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.finish()
    }

    fn mean(&self, sum: f64) -> f64 {
        sum / self.cells.max(1) as f64
    }
}

/// Jain's fairness index `(Σr)² / (n·Σr²)` over the sensing radii.
pub fn jain(radii: &[f64]) -> f64 {
    let sum: f64 = radii.iter().sum();
    let sq: f64 = radii.iter().map(|r| r * r).sum();
    if sq == 0.0 {
        0.0
    } else {
        sum * sum / (radii.len() as f64 * sq)
    }
}

/// Whether two position sets are equal bit for bit.
pub fn same_position_bits(a: &[laacad_geom::Point], b: &[laacad_geom::Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile of `n` samples that leaves at least ten
/// samples beyond it: the first of 99.9, 99, 95, 90 and 75 that does,
/// else the exact whole percentile (never below the median).
pub fn tail_percentile(n: usize) -> f64 {
    let beyond = |p: f64| (n as f64) * (1.0 - p / 100.0) >= 10.0;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| beyond(p))
        .unwrap_or_else(|| (100.0 * (1.0 - 10.0 / n.max(1) as f64)).floor().max(50.0))
}

/// Nearest-rank percentile of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Runs a set-up `reps` times, pushing each duration onto `times`, and
/// returns the last result. Workloads sample their set-up like this at
/// several points of a run and report the median of all samples, so a
/// short set-up is not timed in one moment of a noisy host. Each build
/// is dropped before the next starts, so at most one is resident.
pub fn repeat_setup<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut built = None;
    for _ in 0..reps.max(1) {
        drop(built.take());
        let t = std::time::Instant::now();
        built = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(built.expect("at least one repetition"))
}

/// One workload run's results.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub n: usize,
    pub k: &'static str,
    pub threads: usize,
    /// Ops and output checks attempted, and how many failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Latency of every timed op, in seconds.
    pub op_s: Vec<f64>,
    /// Units of work for `ops_per_s` (ops, or executed host commands).
    pub work_done: f64,
    pub quality: Quality,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra row fields (workload shape).
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(
        workload: &'static str,
        seed: u64,
        n: usize,
        k: &'static str,
        threads: usize,
    ) -> Self {
        Report {
            workload,
            seed,
            n,
            k,
            threads,
            attempted: 0,
            failures: Vec::new(),
            setup_s: 0.0,
            wall_s: 0.0,
            op_s: Vec::new(),
            work_done: 0.0,
            quality: Quality::default(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Records one attempted op or check; `ok = false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// Fills the engine-side per-layer metrics from a merged session
    /// registry and the benchmark's own `Session::step` spans.
    pub fn engine_layers(&mut self, reg: &TelemetryRegistry, tracer: &Tracer, workers: usize) {
        let c = |name: &str| reg.counter_total(name) as f64;
        let stage_s = |stage: Stage| reg.stage(stage).total_seconds();
        let searches = c("ring_searches");
        let skipped = c("skipped_quiescent");
        let (hits, misses) = (c("cache_hits"), c("cache_misses"));
        let ring = stage_s(Stage::RingSearch);
        let geometry = stage_s(Stage::Geometry);
        let round = stage_s(Stage::Round);
        let classify = stage_s(Stage::Classify);
        let adjacency = stage_s(Stage::Adjacency);
        let move_apply = stage_s(Stage::MoveApply);
        // Phase 1 (the per-node fan-out) has no span of its own: it is
        // the self time of the round span.
        let phase1 = (round - classify - adjacency - move_apply).max(0.0);
        self.set("wsn.ring_search_s", ring);
        self.set("wsn.ring_searches", searches);
        self.set("wsn.adjacency_s", adjacency);
        self.set("wsn.adjacency_rebuilds", c("adjacency_rebuilds"));
        self.set("wsn.adjacency_patches", c("adjacency_incremental_updates"));
        self.set("geom.geometry_s", geometry);
        self.set("geom.geometry_per_miss_us", ratio(geometry * 1e6, misses));
        self.set("core.classify_s", classify);
        self.set("core.phase1_s", phase1);
        self.set("core.move_apply_s", move_apply);
        self.set("core.finalize_s", stage_s(Stage::Finalize));
        self.set("core.skip_ratio", ratio(skipped, skipped + searches));
        self.set("core.cache_hit_ratio", ratio(hits, hits + misses));
        self.set("core.warm_started", c("warm_started"));
        self.set(
            "exec.phase1_efficiency",
            ratio(ring + geometry, workers as f64 * phase1),
        );
        // Reconciliation: the stage spans partition the engine's round
        // span, and the round span sits inside the benchmark's span
        // around each `Session::step`; the rest is unattributed.
        let step = if tracer.count("Session::step") > 0 {
            tracer.total("Session::step")
        } else {
            round
        };
        self.set("core.step_s", step);
        let unattributed = step - (classify + adjacency + phase1 + move_apply);
        self.set("core.unattributed_s", unattributed);
        let slack = 1e-3 * step + 1e-6;
        self.check(
            classify + adjacency + move_apply <= round + slack && unattributed >= -slack,
            || {
                format!(
                    "stage spans do not reconcile: step {step} round {round} classify {classify} \
                     adjacency {adjacency} move_apply {move_apply}"
                )
            },
        );
    }

    /// Prints the row (metadata, every metric, the fingerprint) and then
    /// the result line, which must be the last line of stdout.
    pub fn emit(&self, traced: bool) {
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(1);
        let tail_p = tail_percentile(self.op_s.len());
        let op_ms: Vec<f64> = self.op_s.iter().map(|s| s * 1e3).collect();
        let q = &self.quality;
        let e2e: BTreeMap<&str, f64> = [
            ("setup_s", self.setup_s),
            ("wall_s", self.wall_s),
            ("op_p50_ms", median(&op_ms)),
            ("op_tail_ms", percentile(&op_ms, tail_p)),
            ("ops_per_s", ratio(self.work_done, self.wall_s)),
            ("peak_rss_mb", sys::peak_rss_mb()),
            ("ok_fraction", 1.0 - failed as f64 / attempted as f64),
            ("rounds", q.rounds as f64),
            ("messages", q.messages as f64),
            ("max_radius", q.mean(q.max_radius_sum)),
            ("balance_jain", q.mean(q.jain_sum)),
            ("covered_fraction", q.covered_min),
        ]
        .into_iter()
        .collect();

        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"row\": {{\"schema\": \"laacad-bench-row/1\", \"workload\": \"{}\", \"n\": {}, \
             \"k\": \"{}\", \"threads\": {}, \"host_cores\": {}, \"cpu_model\": \"{}\", \
             \"seed\": {}, \"commit\": \"{}\", \"traced\": {}, \"ops\": {}, \
             \"tail_percentile\": {}, \"failed_fraction\": {}, \"fingerprint\": \"{:016x}\"",
            self.workload,
            self.n,
            self.k,
            self.threads,
            sys::host_cores(),
            sys::cpu_model().replace('"', "'"),
            self.seed,
            sys::source_fingerprint(),
            traced,
            self.op_s.len(),
            tail_p,
            num(failed as f64 / attempted as f64),
            q.fingerprint(),
        );
        for (key, value) in &self.notes {
            let _ = write!(row, ", \"{key}\": \"{value}\"");
        }
        row.push_str(", \"metrics\": {");
        let mut first = true;
        for (name, unit) in END_TO_END {
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(row, "{sep}\"{name}\": [{}, \"{unit}\"]", num(e2e[name]));
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = self.layers.get(name) {
                let _ = write!(row, ", \"{name}\": [{}, \"{unit}\"]", num(*v));
            }
        }
        row.push_str("}}}");
        println!("{row}");

        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            failed == 0,
            attempted,
            failed
        );
        let mut first = true;
        let mut push = |name: &str, unit: &str, value: f64| {
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        };
        if traced {
            for (name, unit) in PER_LAYER {
                push(name, unit, self.layers.get(name).copied().unwrap_or(0.0));
            }
        } else {
            for (name, unit) in END_TO_END {
                push(name, unit, e2e[name]);
            }
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// Time of the first traced pass over time of the untraced pass, minus
/// one. Traced runs make both passes do the same work.
pub fn overhead(walls: &[Vec<f64>; 2]) -> f64 {
    match (walls[0].first(), walls[1].first()) {
        (Some(&untraced), Some(&traced)) => ratio(traced, untraced) - 1.0,
        _ => 0.0,
    }
}

/// Which set of cells pass `pass` runs. Every pass runs a fresh set, so
/// the quality metrics cover more seeds; a traced run's first traced
/// pass repeats the untraced pass's set, for `telemetry.overhead`.
pub fn cell_set(pass: usize, traced_run: bool) -> usize {
    if traced_run {
        pass.saturating_sub(1)
    } else {
        pass
    }
}

/// Folds one pass's quality into the report's: a new cell set is
/// merged; a repeated set must match its first run exactly.
pub fn fold_pass(report: &mut Report, seen: &mut Vec<u64>, set: usize, quality: Quality) {
    match seen.get(set) {
        Some(&fp) => report.check(fp == quality.fingerprint(), || {
            format!("cell set {set} does not repeat exactly")
        }),
        None => {
            seen.push(quality.fingerprint());
            report.quality.merge(&quality);
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A finite JSON number with every digit the value has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
