//! Telemetry backbone for the LAACAD round engine: a [`Recorder`] trait
//! with spans, counters, and histograms; a zero-cost [`NoopRecorder`];
//! an aggregating [`TelemetryRegistry`]; and two sinks — a
//! deterministic JSONL metric stream ([`JsonlSink`]) and a Chrome
//! trace-event exporter ([`ChromeTraceSink`]) viewable in Perfetto or
//! `chrome://tracing`.
//!
//! # Design constraints
//!
//! Telemetry only *observes*: a recorder never feeds data back into the
//! engine, so results are bit-identical with telemetry on or off (the
//! core equivalence tests pin this). The off path is a single branch
//! per stage per round — no recorder, no `Instant::now`.
//!
//! Two kinds of measurement flow through a recorder, with different
//! determinism guarantees:
//!
//! - **Work metrics** ([`Recorder::counter`]): ring searches, cache
//!   hits, nodes moved, … These are part of the engine's deterministic
//!   state, identical across reruns and thread counts. The JSONL sink
//!   records *only* these, which is why its output is byte-stable.
//! - **Wall-clock timings** ([`Recorder::span`], [`Recorder::kernel`]):
//!   real durations, different on every run. Only the Chrome trace sink
//!   and the registry's histograms carry them.
//!
//! Parallel rounds accumulate per-node kernel timings into one
//! [`WorkerBuffer`] per worker; the engine absorbs the buffers in
//! worker-index order on one thread after each fan-out, so the aggregate
//! a recorder sees does not depend on thread scheduling (histogram
//! bucket sums are order-independent, and the traversal order is fixed).

mod registry;
mod sink;
pub mod validate;

pub use registry::TelemetryRegistry;
pub use sink::{ChromeTraceSink, JsonlSink, SessionTelemetry};

use std::any::Any;
use std::fmt;

/// An engine stage a recorder can attribute time or work to.
///
/// `Round`, `Classify`, `Adjacency`, `MoveApply`, and `Finalize` are
/// timed as whole-round spans; `RingSearch` and `Geometry` are per-node
/// kernels accumulated in [`WorkerBuffer`]s during the Phase-1 fan-out
/// (their "span" is the sum of per-node time, i.e. CPU time rather than
/// fan-out wall clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// One whole engine round (`Session::step`).
    Round,
    /// Dirty-node classification against the previous round's movers.
    Classify,
    /// Adjacency snapshot refresh (full rebuild or incremental patch).
    Adjacency,
    /// Expanding-ring neighbor search (per-node kernel).
    RingSearch,
    /// Order-k subdivision, clipping, and Chebyshev-center geometry
    /// (per-node kernel).
    Geometry,
    /// Phase 2: message absorption, radius updates, and node movement.
    MoveApply,
    /// The final exact-radius replay (`Session::finalize`).
    Finalize,
}

impl Stage {
    /// Number of stages (array-index space for per-stage storage).
    pub const COUNT: usize = 7;

    /// Every stage, in engine execution order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Round,
        Stage::Classify,
        Stage::Adjacency,
        Stage::RingSearch,
        Stage::Geometry,
        Stage::MoveApply,
        Stage::Finalize,
    ];

    /// Dense index, `0..Stage::COUNT`.
    pub fn index(self) -> usize {
        match self {
            Stage::Round => 0,
            Stage::Classify => 1,
            Stage::Adjacency => 2,
            Stage::RingSearch => 3,
            Stage::Geometry => 4,
            Stage::MoveApply => 5,
            Stage::Finalize => 6,
        }
    }

    /// Stable snake_case name used in sink output and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Round => "round",
            Stage::Classify => "classify",
            Stage::Adjacency => "adjacency",
            Stage::RingSearch => "ring_search",
            Stage::Geometry => "geometry",
            Stage::MoveApply => "move_apply",
            Stage::Finalize => "finalize",
        }
    }
}

/// Number of log₂ histogram buckets in a [`StageAccum`]. Bucket `b`
/// holds observations in `[2^b, 2^(b+1))` nanoseconds; the last bucket
/// absorbs everything above (2^38 ns ≈ 4.6 min — far beyond any stage).
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Aggregated timing observations for one stage: count / total / min /
/// max plus a log₂-bucketed histogram. Merging two accumulators is sum
/// (and min/max), so the result is independent of merge order — the
/// property that makes parallel worker buffers deterministic to
/// aggregate.
#[derive(Clone, PartialEq, Eq)]
pub struct StageAccum {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed durations, in nanoseconds.
    pub total_nanos: u64,
    /// Smallest observation (`u64::MAX` while empty).
    pub min_nanos: u64,
    /// Largest observation.
    pub max_nanos: u64,
    /// Log₂ histogram: `buckets[b]` counts observations in
    /// `[2^b, 2^(b+1))` ns (clamped into the last bucket).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for StageAccum {
    fn default() -> Self {
        StageAccum {
            count: 0,
            total_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl fmt::Debug for StageAccum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The 40-bucket array drowns out the useful fields; summarize.
        f.debug_struct("StageAccum")
            .field("count", &self.count)
            .field("total_nanos", &self.total_nanos)
            .field("min_nanos", &self.min_nanos)
            .field("max_nanos", &self.max_nanos)
            .finish_non_exhaustive()
    }
}

impl StageAccum {
    /// Records one observation of `nanos`.
    pub fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
        self.buckets[Self::bucket_of(nanos)] += 1;
    }

    /// Folds `other` into `self` (order-independent).
    pub fn merge(&mut self, other: &StageAccum) {
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation in nanoseconds (0 while empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// Total time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_nanos as f64 / 1e9
    }

    fn bucket_of(nanos: u64) -> usize {
        (nanos.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Per-worker accumulation buffer for the Phase-1 kernels. The engine
/// arms one of these per worker when (and only when) an enabled
/// recorder is installed; workers record into their own buffer without
/// synchronization, and the engine drains them into one aggregate with
/// [`WorkerBuffer::absorb`] after the fan-out.
#[derive(Debug, Clone, Default)]
pub struct WorkerBuffer {
    /// Whether the kernels should time themselves this round. `false`
    /// keeps the hot path down to a single branch per kernel.
    pub enabled: bool,
    /// Expanding-ring search time, one observation per processed node.
    pub ring_search: StageAccum,
    /// Subdivision/clip/Chebyshev time, one observation per node.
    pub geometry: StageAccum,
}

impl WorkerBuffer {
    /// Resets the accumulators and sets the enabled flag for the next
    /// fan-out.
    pub fn arm(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.ring_search = StageAccum::default();
        self.geometry = StageAccum::default();
    }

    /// Folds `other`'s observations into `self` and clears `other`.
    pub fn absorb(&mut self, other: &mut WorkerBuffer) {
        self.ring_search.merge(&other.ring_search);
        self.geometry.merge(&other.geometry);
        other.ring_search = StageAccum::default();
        other.geometry = StageAccum::default();
    }
}

/// A telemetry consumer the engine reports into.
///
/// Implementations only observe — they must not influence engine
/// behavior (the telemetry equivalence tests run the engine with and
/// without a recorder and require bit-identical results).
///
/// The engine calls, per round and in this order: one [`span`] per
/// serial stage as it completes, one [`kernel`] per per-node kernel
/// stage after the fan-out's worker buffers are merged, one
/// [`counter`] per work metric, a final [`span`] for
/// [`Stage::Round`], then [`round_end`].
///
/// [`span`]: Recorder::span
/// [`kernel`]: Recorder::kernel
/// [`counter`]: Recorder::counter
/// [`round_end`]: Recorder::round_end
pub trait Recorder: fmt::Debug + Send + 'static {
    /// Whether the engine should measure at all. A `false` here (the
    /// [`NoopRecorder`]) reduces instrumentation to one branch per
    /// stage — no clock reads, no buffer arming.
    fn enabled(&self) -> bool {
        true
    }

    /// One wall-clock span: `stage` took `nanos` within `round`.
    fn span(&mut self, stage: Stage, round: usize, nanos: u64);

    /// A deterministic per-round work counter (e.g. `"ring_searches"`).
    /// Values are already per-round deltas, not running totals.
    fn counter(&mut self, name: &'static str, round: usize, value: u64);

    /// Merged per-node kernel timings for `stage` in `round`, one
    /// observation per processed node, aggregated from the round's
    /// worker buffers in worker-index order.
    fn kernel(&mut self, stage: Stage, round: usize, accum: &StageAccum);

    /// Round boundary — sinks flush their per-round record here.
    fn round_end(&mut self, round: usize);

    /// Downcast support, so callers can recover a concrete recorder
    /// (e.g. a [`TelemetryRegistry`]) from `Box<dyn Recorder>`.
    fn as_any(&self) -> &dyn Any;
}

/// The do-nothing recorder: `enabled()` is `false`, so an engine wired
/// to it skips every measurement. Exists so "telemetry off" can be
/// expressed explicitly. `laacad`'s `tests/alloc_guards.rs` counts what
/// a disabled recorder costs: no span, counter, kernel or round-end
/// call, and a per-round number of `enabled()` calls that does not
/// grow with the node count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn span(&mut self, _stage: Stage, _round: usize, _nanos: u64) {}

    fn counter(&mut self, _name: &'static str, _round: usize, _value: u64) {}

    fn kernel(&mut self, _stage: Stage, _round: usize, _accum: &StageAccum) {}

    fn round_end(&mut self, _round: usize) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_named() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(!stage.name().is_empty());
        }
    }

    #[test]
    fn accum_records_and_merges_order_independently() {
        let mut a = StageAccum::default();
        let mut b = StageAccum::default();
        for (i, nanos) in [5u64, 900, 17, 1 << 20, 3].into_iter().enumerate() {
            if i % 2 == 0 {
                a.record(nanos);
            } else {
                b.record(nanos);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.total_nanos, 5 + 900 + 17 + (1 << 20) + 3);
        assert_eq!(ab.min_nanos, 3);
        assert_eq!(ab.max_nanos, 1 << 20);
        assert_eq!(ab.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn accum_buckets_are_log2() {
        let mut a = StageAccum::default();
        a.record(0); // clamps to bucket 0
        a.record(1);
        a.record(2);
        a.record(3);
        a.record(1024);
        a.record(u64::MAX); // clamps into the last bucket
        assert_eq!(a.buckets[0], 2);
        assert_eq!(a.buckets[1], 2);
        assert_eq!(a.buckets[10], 1);
        assert_eq!(a.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn worker_buffer_absorb_drains_the_source() {
        let mut a = WorkerBuffer::default();
        let mut b = WorkerBuffer::default();
        b.ring_search.record(10);
        b.geometry.record(20);
        a.absorb(&mut b);
        assert_eq!(a.ring_search.count, 1);
        assert_eq!(a.geometry.total_nanos, 20);
        assert!(b.ring_search.is_empty() && b.geometry.is_empty());
    }

    #[test]
    fn worker_buffers_absorbed_in_turn_aggregate_and_drain() {
        let mut buffers: Vec<WorkerBuffer> = (0..4)
            .map(|worker| {
                let mut b = WorkerBuffer::default();
                b.arm(true);
                b.ring_search.record(100 * (worker + 1));
                b.geometry.record(10 * (worker + 1));
                b
            })
            .collect();
        let mut merged = WorkerBuffer::default();
        for buffer in &mut buffers {
            merged.absorb(buffer);
        }
        assert_eq!(merged.ring_search.count, 4);
        assert_eq!(merged.ring_search.total_nanos, 100 + 200 + 300 + 400);
        assert_eq!(merged.geometry.min_nanos, 10);
        assert_eq!(merged.geometry.max_nanos, 40);
        for buffer in &buffers {
            assert!(buffer.ring_search.is_empty() && buffer.geometry.is_empty());
        }
    }

    #[test]
    fn noop_recorder_is_disabled() {
        assert!(!NoopRecorder.enabled());
    }
}
