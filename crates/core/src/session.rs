//! The typed session API — Algorithm 1 as an inspectable engine.
//!
//! A [`Session`] is one LAACAD deployment run. It is built through
//! [`SessionBuilder`] and driven round by round: every
//! [`Session::step`] returns a [`RoundDelta`] describing *what changed*
//! — which nodes moved (with their old and new positions), how many
//! ring radii changed, whether the run crossed into convergence, and
//! how much work the engine actually performed (ring searches run,
//! nodes skipped as quiescent, cache hits/misses).
//!
//! The delta is not just reporting: the engine feeds it back into a
//! **dirty-node index**. Most nodes stop moving long before the last one
//! does, and every move is known exactly: each mover's old and new
//! positions. A node with neither endpoint of any move inside its
//! ρ-neighborhood (plus the multi-hop slack margin) since its previous
//! computation would re-derive exactly the same local view, so the
//! engine skips its expanding-ring search and domination sweep entirely
//! and replays the view its slot of the session's [`ViewStore`] holds.
//! The skip
//! criterion is conservative and exact — it covers every node the
//! previous search could possibly have contacted — so every round equals
//! a from-scratch recomputation of every node's view, at any worker
//! count (pinned by `tests/reference_engine.rs`). A fully quiescent
//! network steps in `O(N)` time with **zero** ring searches. No bound on
//! the step length is assumed: a step is `α‖c − u‖`, which can exceed
//! `γ` when a node's dominating region reaches far past its ring.
//!
//! A session keeps fixed-size running totals of its rounds (the round
//! count, the summed messages and the convergence latch), never a
//! per-round history, so its state does not grow with the round count.
//!
//! Rounds are synchronous by default: every node computes its dominating
//! region and Chebyshev center from the same position snapshot, then all
//! nodes move. This matches the paper's periodic (`every τ ms`)
//! execution in the regime where motion per round is small relative to
//! `τ`. [`ExecutionMode::Sequential`] models unsynchronized periodic
//! execution instead (Gauss–Seidel; the dirty index is inert there,
//! since every node may see fresh predecessor positions).
//!
//! [`ExecutionMode::Sequential`]: crate::ExecutionMode::Sequential

use crate::config::{CoordinateMode, ExecutionMode, LaacadConfig};
use crate::error::LaacadError;
use crate::hooks::{EventOutcome, HookAction, NetworkEvent};
use crate::localview::{node_view, NodeView};
use crate::observer::Observer;
use crate::protocol::RoundAggregate;
use crate::report::{RoundReport, RunSummary};
use crate::scratch::{give_back, lend_kernel, KernelScratch, ViewStore};
use laacad_exec::{parallel_for_each_slot, resolve_workers};
use laacad_geom::Point;
use laacad_region::Region;
use laacad_telemetry::{Recorder, Stage, WorkerBuffer};
use laacad_wsn::mobility::step_toward;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::{Adjacency, FlatGrid, Network, NodeId};

/// One node's movement during a round: id plus the exact positions
/// before and after the vertex step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovedNode {
    /// The node that moved.
    pub id: NodeId,
    /// Position at the start of the round.
    pub from: Point,
    /// Position after the step toward the Chebyshev center.
    pub to: Point,
}

/// Everything one [`Session::step`] changed and cost.
///
/// The per-round record the paper plots lives in [`RoundDelta::report`];
/// the remaining fields surface the engine's change tracking: the exact
/// movement set, how many ring radii changed, the convergence
/// transition, and the work accounting behind the dirty-node index.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDelta {
    /// The classic per-round record (circumradii, messages, convergence
    /// flag). The session keeps only its running totals; a caller that
    /// wants the series collects these.
    pub report: RoundReport,
    /// Every node that moved this round, with old and new positions
    /// (empty once the deployment is quiescent).
    pub moved: Vec<MovedNode>,
    /// Nodes whose final ring radius ρ differs from their stored view's:
    /// the previous round's, or the one [`Session::finalize`] stored if
    /// it ran since (every node counts on the first round).
    pub rho_changed: usize,
    /// `true` exactly when this round entered convergence (the previous
    /// round had movement, this one had none). Dynamic events leave
    /// convergence; rounds never do.
    pub newly_converged: bool,
    /// Expanding-ring searches actually executed this round.
    pub ring_searches: usize,
    /// Nodes served from the dirty-node index without any search or
    /// geometry (their ρ-neighborhood saw no movement).
    pub skipped_quiescent: usize,
    /// Among the executed searches, nodes whose geometry stage reused
    /// their stored view's disk and reach (the cross-round cache).
    pub cache_hits: usize,
    /// Executed searches that recomputed the geometry.
    pub cache_misses: usize,
    /// Nodes whose view this round came from a ring search that found
    /// no member (`messages.unicast == 0`): nodes out of radio range of
    /// every other node, which see the whole area as theirs.
    pub isolated: usize,
}

/// Verdict of one observed round ([`Session::step_observed`]): the
/// round's change set plus the combined observer [`HookAction`]s, so an
/// external run-loop driver can apply exactly the break rules of
/// [`Session::run_with_observers`].
#[derive(Debug)]
pub struct ObservedRound {
    /// What the round changed ([`Session::step`]'s return value).
    pub delta: RoundDelta,
    /// Some observer returned [`HookAction::Stop`] — the run must end.
    pub stop: bool,
    /// Some observer returned [`HookAction::KeepRunning`] — the
    /// convergence stop is overridden this round.
    pub keep_running: bool,
}

/// **Cumulative** work counters over a session's lifetime: every field
/// is a running total that each round adds to and that nothing resets
/// implicitly — they are *not* per-round values (per-round deltas live
/// on [`RoundDelta`]).
///
/// Counters are work, not state: a snapshot does not store them. A
/// session restored by [`SessionBuilder::restore`] starts them at zero,
/// and its first round is cold (`ring_searches = N`,
/// `skipped_quiescent = 0`), whatever the original would have skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCounters {
    /// Total expanding-ring searches executed.
    pub ring_searches: u64,
    /// Total nodes skipped by the dirty-node index.
    pub skipped_quiescent: u64,
    /// Total cross-round cache hits (among executed searches).
    pub cache_hits: u64,
    /// Total cross-round cache misses.
    pub cache_misses: u64,
    /// Full rebuilds of the shared adjacency snapshot.
    pub adjacency_rebuilds: u64,
    /// Incremental move-delta updates of the adjacency snapshot
    /// ([`laacad_wsn::Adjacency::apply_moves`]); fully quiescent rounds
    /// perform neither a rebuild nor an update.
    pub adjacency_incremental_updates: u64,
}

/// Builder for a [`Session`] — the target area and initial deployment
/// are named, not positional.
///
/// # Example
///
/// ```
/// use laacad::{LaacadConfig, Session};
/// use laacad_region::{sampling::sample_uniform, Region};
///
/// let region = Region::square(1.0)?;
/// let config = LaacadConfig::builder(1)
///     .transmission_range(0.3)
///     .max_rounds(40)
///     .build()?;
/// let mut session = Session::builder(config)
///     .positions(sample_uniform(&region, 12, 7))
///     .region(region)
///     .build()?;
/// let summary = session.run();
/// assert!(summary.max_sensing_radius > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: LaacadConfig,
    region: Option<Region>,
    positions: Vec<Point>,
}

impl SessionBuilder {
    /// Sets the target area.
    pub fn region(mut self, region: Region) -> Self {
        self.region = Some(region);
        self
    }

    /// Sets the initial node positions.
    pub fn positions(mut self, positions: impl IntoIterator<Item = Point>) -> Self {
        self.positions = positions.into_iter().collect();
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// [`LaacadError::IncompleteSession`] when the region was never set;
    /// otherwise the validation it shares with
    /// [`SessionBuilder::restore`] — invalid parameters, empty
    /// deployments, and initial positions outside the target area are
    /// rejected.
    pub fn build(self) -> Result<Session, LaacadError> {
        let SessionBuilder {
            config,
            region,
            positions,
        } = self;
        let region = region.ok_or(LaacadError::IncompleteSession { missing: "region" })?;
        let n = positions.len();
        Session::from_state(SessionState {
            config,
            region,
            positions,
            sensing_radii: vec![0.0; n],
            distances_moved: vec![0.0; n],
            retired_distance: 0.0,
            round: 0,
            converged: false,
            messages: MessageStats::default(),
        })
    }
}

/// A session's primary state — everything [`Session::snapshot`] stores.
/// The engine's caches (the view store, pending movers, the adjacency
/// snapshot) and its work counters are derived from it and start cold
/// in [`Session::from_state`].
#[derive(Debug)]
pub(crate) struct SessionState {
    pub(crate) config: LaacadConfig,
    pub(crate) region: Region,
    pub(crate) positions: Vec<Point>,
    pub(crate) sensing_radii: Vec<f64>,
    pub(crate) distances_moved: Vec<f64>,
    /// Odometry of nodes removed by failure events.
    pub(crate) retired_distance: f64,
    pub(crate) round: usize,
    pub(crate) converged: bool,
    /// Messages summed over every executed round.
    pub(crate) messages: MessageStats,
}

/// A LAACAD deployment session (see the [module docs](self)).
#[derive(Debug)]
pub struct Session {
    config: LaacadConfig,
    region: Region,
    net: Network,
    round: usize,
    converged: bool,
    /// Messages summed over every executed round.
    messages: MessageStats,
    /// Every node's last view and the key guarding reuse of its
    /// geometry (see [`ViewStore`]).
    store: ViewStore,
    /// Whether the store holds every node's view from the most recent
    /// Phase 1 (false until the first round and after an event). The
    /// dirty-node index replays these in synchronous oracle mode.
    has_views: bool,
    /// The Phase-1 workers: kernel buffers borrowed from the thread's
    /// pool for the length of a fan-out, empty between calls.
    workers: Vec<Worker>,
    /// Per-round one-hop snapshot shared by every worker (synchronous
    /// mode), refreshed in place when positions changed.
    adjacency: Adjacency,
    /// How `adjacency` relates to the current positions.
    adjacency_state: AdjacencyState,
    /// The movement since the stored views were computed — the
    /// changed-positions input of the dirty classification and of the
    /// adjacency patch.
    movement: Movement,
    counters: SessionCounters,
    /// Events applied since the last observer dispatch (drained by
    /// [`Session::run_with_observers`]).
    event_log: Vec<(NetworkEvent, EventOutcome)>,
    /// Installed telemetry recorder, if any. Purely observational: the
    /// engine reports spans/counters/kernel timings into it but never
    /// reads back, so results are bit-identical with or without one
    /// (pinned by `tests/telemetry_equivalence.rs`). `None` — or a
    /// recorder whose `enabled()` is `false` — reduces the
    /// instrumentation to one branch per stage.
    recorder: Option<Box<dyn Recorder>>,
}

impl Session {
    /// Starts a builder from a finished configuration.
    pub fn builder(config: LaacadConfig) -> SessionBuilder {
        SessionBuilder {
            config,
            region: None,
            positions: Vec::new(),
        }
    }

    /// The one constructor behind [`SessionBuilder::build`] and
    /// [`SessionBuilder::restore`]: validates the primary state, then
    /// starts every derived structure cold — adjacency stale, an empty
    /// view store, zero counters.
    ///
    /// # Errors
    ///
    /// * [`LaacadError::EmptyDeployment`] — no nodes;
    /// * the [`LaacadConfig::validate`] errors, including `k > N`;
    /// * [`LaacadError::NodeOutsideRegion`] — a non-finite position or
    ///   one outside the target area;
    /// * [`LaacadError::InvalidState`] — a sensing radius, distance
    ///   moved or retired distance that is negative or not finite.
    pub(crate) fn from_state(state: SessionState) -> Result<Session, LaacadError> {
        let SessionState {
            config,
            region,
            positions,
            sensing_radii,
            distances_moved,
            retired_distance,
            round,
            converged,
            messages,
        } = state;
        if positions.is_empty() {
            return Err(LaacadError::EmptyDeployment);
        }
        config.validate(positions.len())?;
        for (index, p) in positions.iter().enumerate() {
            if !(p.is_finite() && region.contains(*p)) {
                return Err(LaacadError::NodeOutsideRegion { index });
            }
        }
        let invalid = |v: f64| !(v.is_finite() && v >= 0.0);
        for (field, values) in [
            ("sensing radius", &sensing_radii),
            ("distance moved", &distances_moved),
        ] {
            if let Some(i) = values.iter().position(|&v| invalid(v)) {
                return Err(LaacadError::InvalidState {
                    what: format!("{field} of node {i}"),
                    value: values[i],
                });
            }
        }
        if invalid(retired_distance) {
            return Err(LaacadError::InvalidState {
                what: "retired distance".into(),
                value: retired_distance,
            });
        }
        let net = Network::from_parts(
            config.gamma,
            positions,
            sensing_radii,
            distances_moved,
            retired_distance,
        );
        Ok(Session {
            config,
            region,
            net,
            round,
            converged,
            messages,
            store: ViewStore::new(),
            has_views: false,
            workers: Vec::new(),
            adjacency: Adjacency::default(),
            adjacency_state: AdjacencyState::StaleFull,
            movement: Movement::default(),
            counters: SessionCounters::default(),
            event_log: Vec::new(),
            recorder: None,
        })
    }

    /// The live network (positions, sensing ranges, odometry).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The target area.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The configuration in force.
    pub fn config(&self) -> &LaacadConfig {
        &self.config
    }

    /// Rounds executed so far.
    pub fn rounds_executed(&self) -> usize {
        self.round
    }

    /// Whether the ε-termination condition has been observed.
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// Cumulative work counters (ring searches, quiescent skips, cache
    /// hits/misses) — running totals since construction, never reset
    /// by rounds or events.
    pub fn counters(&self) -> SessionCounters {
        self.counters
    }

    /// Installs a telemetry [`Recorder`], replacing any existing one.
    /// The engine reports per-stage spans, per-round work counters, and
    /// per-node kernel histograms into it; install before stepping to
    /// capture the whole run. Wire a
    /// [`NoopRecorder`](laacad_telemetry::NoopRecorder) to express
    /// "telemetry off" explicitly at (guarded) zero cost.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Removes and returns the installed recorder — e.g. to read a
    /// [`TelemetryRegistry`](laacad_telemetry::TelemetryRegistry)'s
    /// totals or write a sink's files after the run.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// The installed recorder, if any.
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.recorder.as_deref()
    }

    /// Whether stages should measure themselves this round.
    fn telemetry_on(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.enabled())
    }

    /// Reports a completed span when both telemetry and the stage timer
    /// are live (the timer is `None` whenever telemetry is off).
    fn record_span(&mut self, stage: Stage, started: Option<std::time::Instant>) {
        if let (Some(recorder), Some(started)) = (self.recorder.as_mut(), started) {
            recorder.span(stage, self.round, started.elapsed().as_nanos() as u64);
        }
    }

    /// After a fan-out: with telemetry on, merges the per-worker kernel
    /// timing buffers in worker-index order on this thread (so the
    /// aggregate does not depend on scheduling) and reports the
    /// ring-search and geometry aggregates; then hands every worker's
    /// kernel buffers back to the thread's pool. Returns the workers'
    /// ρ-change tallies, summed.
    fn return_kernels(&mut self) -> usize {
        if self.telemetry_on() {
            let mut merged = WorkerBuffer::default();
            for worker in &mut self.workers {
                merged.absorb(&mut worker.kernel.telemetry);
            }
            let round = self.round;
            if let Some(recorder) = self.recorder.as_mut() {
                recorder.kernel(Stage::RingSearch, round, &merged.ring_search);
                recorder.kernel(Stage::Geometry, round, &merged.geometry);
            }
        }
        let mut rho_changed = 0;
        for worker in self.workers.drain(..) {
            rho_changed += worker.rho_changed;
            give_back(worker.kernel);
        }
        rho_changed
    }

    /// Whether the dirty-node index may skip work in this configuration:
    /// synchronous execution with oracle coordinates (ranging noise is
    /// re-drawn per round by design, and Gauss–Seidel nodes see fresh
    /// predecessor positions).
    fn dirty_skip_active(&self) -> bool {
        self.config.execution == ExecutionMode::Synchronous
            && self.config.coordinates == CoordinateMode::Oracle
    }

    /// The worker count for shared-snapshot phases, per the `threads`
    /// knob (Gauss–Seidel execution is serial by definition).
    fn workers(&self) -> usize {
        if self.config.execution == ExecutionMode::Sequential {
            1
        } else {
            resolve_workers(self.config.threads, self.net.len())
        }
    }

    /// Before a fan-out: lends `workers` workers kernel buffers from
    /// the calling thread's pool, pre-sized for `N` and armed for kernel
    /// timing when `telemetry` is on. [`Session::return_kernels`] hands
    /// them back.
    fn lend_kernels(&mut self, workers: usize, telemetry: bool) {
        let n = self.net.len();
        self.workers.extend((0..workers.max(1)).map(|_| {
            let mut kernel = lend_kernel(n);
            kernel.telemetry.arm(telemetry);
            Worker {
                kernel,
                rho_changed: 0,
            }
        }));
    }

    /// The safe re-activation radius of a stored view: a mover outside
    /// this ball of the node cannot have influenced — and cannot now
    /// influence — the node's search or geometry.
    ///
    /// The bound is what the search *actually* touched: every contacted
    /// node (members, relays, broadcast accounting) lies within the
    /// recorded `contact_radius`, every Euclidean-filter candidate within
    /// `ρ`, and an arriving node can only join the flood by coming within
    /// one `γ` of a contacted node — hence `max(contact_radius, ρ) + γ`.
    fn safe_radius(&self, view: &NodeView) -> f64 {
        view.contact_radius.max(view.rho) + self.config.gamma + 1e-9
    }

    /// Classifies this round's work for the dirty-node index.
    ///
    /// A stored view may be replayed only if *no* node that the previous
    /// search could have contacted has moved; [`Session::safe_radius`]
    /// bounds that sphere of influence per node, and a mover is relevant
    /// if its old *or* new position falls inside it (leaving changes
    /// membership as surely as arriving). Movers are probed through a
    /// spatial index over the round's movement endpoints, so the
    /// classification costs `O(N + M)` plus the local candidates rather
    /// than `O(N·M)`. The classification runs serially before the
    /// parallel fan-out, so it is identical for every worker count.
    fn classify_dirty(&self) -> DirtyClass {
        let n = self.net.len();
        if !self.dirty_skip_active() || !self.has_views {
            return DirtyClass::AllDirty;
        }
        let moves = match &self.movement {
            Movement::Many => return DirtyClass::AllDirty,
            Movement::Few(moves) if moves.is_empty() => return DirtyClass::AllClean,
            Movement::Few(moves) => moves,
        };
        let endpoints: Vec<Point> = moves.iter().flat_map(|m| [m.from, m.to]).collect();
        // One grid over the movement endpoints, celled at the largest
        // safe radius so every per-node probe touches at most 9 cells.
        let mut max_safe = self.config.gamma;
        for view in self.store.views() {
            max_safe = max_safe.max(self.safe_radius(&view));
        }
        let grid = FlatGrid::build(&endpoints, max_safe);
        let mut mask = vec![false; n];
        for m in moves {
            mask[m.id.index()] = true;
        }
        // Bounding box of the endpoint cloud: a node farther from the box
        // than its safe radius provably has no mover in range — the
        // common case under a localized disturbance — and skips the grid
        // probe entirely.
        let bb = laacad_geom::Aabb::from_points(endpoints.iter().copied())
            .expect("movement set is non-empty");
        let (bb_min, bb_max) = (bb.min(), bb.max());
        for (i, dirty) in mask.iter_mut().enumerate() {
            if *dirty {
                continue; // movers always recompute
            }
            let p = self.net.position(NodeId(i));
            let safe = self.safe_radius(&self.store.view(i));
            let dx = (bb_min.x - p.x).max(p.x - bb_max.x).max(0.0);
            let dy = (bb_min.y - p.y).max(p.y - bb_max.y).max(0.0);
            if dx * dx + dy * dy > safe * safe {
                continue;
            }
            *dirty = grid.any_within(&endpoints, p, safe);
        }
        DirtyClass::Partial(mask)
    }

    /// Brings the shared adjacency snapshot up to date with the current
    /// positions: a no-op when fresh, a move-delta patch when the exact
    /// movement set since it was fresh is known (and small enough to be
    /// worth it), a full rebuild otherwise.
    fn refresh_adjacency(&mut self) {
        let n = self.net.len();
        match (self.adjacency_state, &self.movement) {
            (AdjacencyState::Fresh, _) => return,
            (AdjacencyState::StaleMoves, Movement::Few(moves)) if self.adjacency.len() == n => {
                self.adjacency.apply_moves(
                    &self.net,
                    moves.iter().map(|m| (m.id.index(), m.from, m.to)),
                );
                self.counters.adjacency_incremental_updates += 1;
            }
            _ => {
                self.adjacency.rebuild(&self.net);
                self.counters.adjacency_rebuilds += 1;
            }
        }
        self.adjacency_state = AdjacencyState::Fresh;
    }

    /// Executes one round of Algorithm 1, records it, and returns the
    /// full change set.
    pub fn step(&mut self) -> RoundDelta {
        // Notifications are only consumed by `run_with_observers`, which
        // drains them every iteration before stepping again; anything
        // still here was applied with nobody listening — drop it rather
        // than accumulate across a manually-stepped session's lifetime.
        self.event_log.clear();
        self.round += 1;
        let counters_before = self.counters;
        let round_started = self.telemetry_on().then(std::time::Instant::now);
        let delta = if self.config.execution == ExecutionMode::Sequential {
            self.step_sequential()
        } else {
            self.step_synchronous()
        };
        if let Some(started) = round_started {
            self.emit_round_telemetry(&delta, counters_before, started);
        }
        delta
    }

    /// Per-round telemetry epilogue: the deterministic work counters
    /// (per-round deltas — from the [`RoundDelta`] where it carries
    /// them, diffed from [`SessionCounters`] otherwise), the whole-round
    /// span, and the round boundary. Only called with telemetry on.
    fn emit_round_telemetry(
        &mut self,
        delta: &RoundDelta,
        before: SessionCounters,
        started: std::time::Instant,
    ) {
        let after = self.counters;
        let round = self.round;
        let Some(recorder) = self.recorder.as_mut() else {
            return;
        };
        recorder.counter("ring_searches", round, delta.ring_searches as u64);
        recorder.counter("skipped_quiescent", round, delta.skipped_quiescent as u64);
        recorder.counter("cache_hits", round, delta.cache_hits as u64);
        recorder.counter("cache_misses", round, delta.cache_misses as u64);
        recorder.counter("nodes_moved", round, delta.moved.len() as u64);
        recorder.counter("rho_changed", round, delta.rho_changed as u64);
        recorder.counter("isolated_nodes", round, delta.isolated as u64);
        recorder.counter("messages_unicast", round, delta.report.messages.unicast);
        recorder.counter("messages_broadcast", round, delta.report.messages.broadcast);
        recorder.counter(
            "adjacency_rebuilds",
            round,
            after.adjacency_rebuilds - before.adjacency_rebuilds,
        );
        recorder.counter(
            "adjacency_incremental_updates",
            round,
            after.adjacency_incremental_updates - before.adjacency_incremental_updates,
        );
        recorder.span(Stage::Round, round, started.elapsed().as_nanos() as u64);
        recorder.round_end(round);
    }

    /// Phase 1 at the current positions: every node the dirty-node
    /// index does not clear recomputes its view into the store, fanned
    /// out across `config.threads` workers, and every other node keeps
    /// its stored view. `telemetry` arms the kernel timing; `spans`
    /// reports the classification and adjacency-refresh spans. Returns
    /// the work done.
    fn phase1(&mut self, telemetry: bool, spans: bool) -> Phase1Work {
        let stage_started = spans.then(std::time::Instant::now);
        let dirty = self.classify_dirty();
        self.record_span(Stage::Classify, stage_started);
        let mask = match dirty {
            // Fully quiescent: no movement anywhere since the stored
            // views were computed, so every one still holds. No
            // adjacency refresh, no searches, no geometry.
            DirtyClass::AllClean => return Phase1Work::default(),
            DirtyClass::AllDirty => None,
            DirtyClass::Partial(mask) => Some(mask),
        };
        let mask = mask.as_deref();
        self.lend_kernels(self.workers(), telemetry);
        let stage_started = spans.then(std::time::Instant::now);
        self.refresh_adjacency();
        self.record_span(Stage::Adjacency, stage_started);
        let (net, region, config) = (&self.net, &self.region, &self.config);
        let (round, adjacency) = (self.round, &self.adjacency);
        let slots = self.store.slots_for(net);
        parallel_for_each_slot(&mut self.workers, slots, |worker, i, slot| {
            if mask.is_some_and(|mask| !mask[i]) {
                return;
            }
            let old_rho = slot.rho();
            let view = node_view(
                net,
                Some(adjacency),
                NodeId(i),
                region,
                config,
                round,
                &mut worker.kernel,
                slot,
            );
            worker.rho_changed += usize::from(view.rho != old_rho);
        });
        let rho_changed = self.return_kernels();
        // Work accounting: skipped nodes kept their stored views; the
        // rest ran a ring search and either hit or missed the cache.
        let mut work = Phase1Work {
            rho_changed,
            ..Phase1Work::default()
        };
        for (i, view) in self.store.views().enumerate() {
            if mask.is_none_or(|mask| mask[i]) {
                work.ring_searches += 1;
                work.cache_hits += usize::from(view.cache_hit);
            }
        }
        work
    }

    /// Synchronous (Jacobi) round: every node decides from the same
    /// position snapshot — quiescent nodes keep their stored views, the
    /// rest recompute across `config.threads` workers — then all move.
    fn step_synchronous(&mut self) -> RoundDelta {
        let telemetry = self.telemetry_on();
        let work = self.phase1(telemetry, telemetry);
        // Phase 2 in id order: every view was computed from the round's
        // snapshot, and a node's step moves only that node.
        let stage_started = telemetry.then(std::time::Instant::now);
        let mut agg = RoundAggregate::default();
        let mut moved = Vec::new();
        for i in 0..self.net.len() {
            let view = self.store.view(i);
            self.apply_view(&mut agg, NodeId(i), &view, &mut moved);
        }
        self.record_span(Stage::MoveApply, stage_started);
        if !moved.is_empty() {
            // The snapshot was fresh for this round's Phase 1 (or the
            // round was quiescent, in which case `moved` is empty), so
            // the round's movement set is the exact delta to patch it
            // with next round.
            self.adjacency_state = AdjacencyState::StaleMoves;
        }
        self.finish_round(agg, moved, work)
    }

    /// Sequential (Gauss–Seidel) round: each node computes against the
    /// live network (seeing its predecessors' fresh positions) and acts
    /// immediately. Serial by definition; the dirty-node index is inert.
    fn step_sequential(&mut self) -> RoundDelta {
        let n = self.net.len();
        // Per-node kernel timings still accumulate (one serial worker);
        // compute and movement interleave here, so the serial stages
        // (classify/adjacency/move-apply) have no spans — the Round
        // span from `step` covers the sweep.
        let telemetry = self.telemetry_on();
        self.lend_kernels(1, telemetry);
        let mut agg = RoundAggregate::default();
        let mut moved = Vec::new();
        let mut work = Phase1Work {
            ring_searches: n,
            ..Phase1Work::default()
        };
        for i in 0..n {
            let id = NodeId(i);
            let slot = &mut self.store.slots_for(&self.net)[i];
            let old_rho = slot.rho();
            // No adjacency snapshot: predecessors have already moved.
            let view = node_view(
                &self.net,
                None,
                id,
                &self.region,
                &self.config,
                self.round,
                &mut self.workers[0].kernel,
                slot,
            );
            self.workers[0].rho_changed += usize::from(view.rho != old_rho);
            work.cache_hits += usize::from(view.cache_hit);
            self.apply_view(&mut agg, id, &view, &mut moved);
        }
        work.rho_changed = self.return_kernels();
        if !moved.is_empty() || self.adjacency_state != AdjacencyState::Fresh {
            // Gauss–Seidel rounds never refresh the snapshot, so no
            // recorded delta relates a stale one (moved by this sweep or
            // by an earlier displacement) to the final positions.
            self.adjacency_state = AdjacencyState::StaleFull;
        }
        self.finish_round(agg, moved, work)
    }

    /// Algorithm 1 lines 3–6 for one node of this round: absorbs its view
    /// into the round aggregate (sensing radius included) and, when the
    /// view sends it toward a target, takes one `α` step and records the
    /// move.
    fn apply_view(
        &mut self,
        agg: &mut RoundAggregate,
        id: NodeId,
        view: &NodeView,
        moved: &mut Vec<MovedNode>,
    ) {
        if let Some(target) = agg.absorb(&mut self.net, id, view, self.config.epsilon) {
            let from = self.net.position(id);
            step_toward(
                &mut self.net,
                id,
                target,
                self.config.alpha,
                Some(&self.region),
            );
            moved.push(MovedNode {
                id,
                from,
                to: self.net.position(id),
            });
        }
    }

    /// Shared round epilogue after the round's Phase 1 did `work`. The
    /// stored views and the movement set become the dirty-node index's
    /// inputs; then the convergence latch, the running totals, the
    /// counters, and the assembled [`RoundDelta`].
    fn finish_round(
        &mut self,
        agg: RoundAggregate,
        moved: Vec<MovedNode>,
        work: Phase1Work,
    ) -> RoundDelta {
        let n = self.net.len();
        let Phase1Work {
            ring_searches,
            cache_hits,
            rho_changed,
        } = work;
        let rho_changed = if ring_searches == 0 {
            0 // every view was replayed
        } else if !self.has_views {
            n
        } else {
            rho_changed
        };
        self.has_views = true;
        self.movement.replace(&moved, n);
        let report = agg.report(self.round);
        let newly_converged = report.converged && !self.converged;
        self.converged = report.converged;
        self.messages.absorb(report.messages);
        let delta = RoundDelta {
            report,
            moved,
            rho_changed,
            newly_converged,
            ring_searches,
            skipped_quiescent: n - ring_searches,
            cache_hits,
            cache_misses: ring_searches - cache_hits,
            isolated: agg.isolated(),
        };
        self.counters.ring_searches += delta.ring_searches as u64;
        self.counters.skipped_quiescent += delta.skipped_quiescent as u64;
        self.counters.cache_hits += delta.cache_hits as u64;
        self.counters.cache_misses += delta.cache_misses as u64;
        delta
    }

    /// Runs until the ε-termination condition or the round limit, then
    /// finalizes sensing ranges (Algorithm 1 line 7).
    pub fn run(&mut self) -> RunSummary {
        self.run_with_observers(&mut [])
    }

    /// Like [`Session::run`], but dispatches every [`Observer`] callback
    /// around each round.
    ///
    /// Per round the observers see, in order: `on_round_start`, one
    /// `on_node_moved` per mover, `on_round_end` (which may mutate the
    /// session through [`Session::apply_event`]), and one
    /// `on_event_applied` per event any observer applied. The
    /// `on_round_end` verdicts combine as: any [`HookAction::Stop`]
    /// stops the run, else any [`HookAction::KeepRunning`] overrides the
    /// convergence stop (used while scenario events are still pending),
    /// else the default ε-termination rule applies.
    pub fn run_with_observers(&mut self, observers: &mut [&mut dyn Observer]) -> RunSummary {
        // Events applied before the run (e.g. round-0 scenario events)
        // predate the observers' attachment.
        self.event_log.clear();
        while self.round < self.config.max_rounds {
            let verdict = self.step_observed(observers);
            if verdict.stop {
                break;
            }
            // `self.converged`, not `delta.report.converged`: an event
            // applied by an observer this round resets the latch.
            if self.converged && !verdict.keep_running {
                break;
            }
        }
        self.finalize();
        self.summarize()
    }

    /// One round of the [`Session::run_with_observers`] loop, exposed so
    /// external drivers (checkpointed scenario runs, hosting layers) can
    /// interleave their own work between rounds while staying
    /// **bit-identical** to an uninterrupted run: the observer dispatch,
    /// verdict combination and convergence semantics are exactly those of
    /// the run loop, and neither [`Session::finalize`] nor summary
    /// construction happens here.
    ///
    /// Callers reproduce `run_with_observers` as: loop while
    /// [`Session::rounds_executed`] `< max_rounds`, break on
    /// `verdict.stop` or on [`Session::is_converged`] unless
    /// `verdict.keep_running`; then call [`Session::finalize`] once and
    /// [`Session::summarize`].
    pub fn step_observed(&mut self, observers: &mut [&mut dyn Observer]) -> ObservedRound {
        for obs in observers.iter_mut() {
            obs.on_round_start(self, self.round + 1);
        }
        let delta = self.step();
        for obs in observers.iter_mut() {
            for m in &delta.moved {
                obs.on_node_moved(self, m);
            }
        }
        let mut stop = false;
        let mut keep_running = false;
        for obs in observers.iter_mut() {
            match obs.on_round_end(self, &delta) {
                HookAction::Stop => stop = true,
                HookAction::KeepRunning => keep_running = true,
                HookAction::Default => {}
            }
        }
        let fired = std::mem::take(&mut self.event_log);
        for (event, outcome) in &fired {
            for obs in observers.iter_mut() {
                obs.on_event_applied(self, event, outcome);
            }
        }
        ObservedRound {
            delta,
            stop,
            keep_running,
        }
    }

    /// The [`RunSummary`] describing the rounds executed so far — what
    /// [`Session::run`] returns after its loop. The round count and the
    /// message totals are part of the snapshot, so a session restored
    /// from one summarizes the *whole* run, not just the rounds since
    /// restore.
    pub fn summarize(&self) -> RunSummary {
        RunSummary::new(self.round, self.messages, &self.net, self.converged)
    }

    /// Applies a dynamic [`NetworkEvent`] between rounds.
    ///
    /// Validation happens up front and failures leave the session
    /// untouched; a successful event resets the convergence latch (the
    /// deployment must re-balance) and invalidates the dirty-node index.
    ///
    /// # Errors
    ///
    /// * [`LaacadError::EmptyDeployment`] — the event would remove every node;
    /// * [`LaacadError::InvalidK`] — fewer survivors than `k`, or `SetK`
    ///   out of `1..=N`;
    /// * [`LaacadError::NodeOutsideRegion`] — an inserted position lies
    ///   outside the target area;
    /// * [`LaacadError::InvalidAlpha`] — `SetAlpha` outside `(0, 1]`.
    pub fn apply_event(&mut self, event: NetworkEvent) -> Result<EventOutcome, LaacadError> {
        let mut outcome = EventOutcome::default();
        let record = event.clone();
        match event {
            NetworkEvent::FailNodes(ids) => {
                let survivors = self.net.len() - self.net.count_present(&ids);
                if survivors == 0 {
                    return Err(LaacadError::EmptyDeployment);
                }
                if survivors < self.config.k {
                    return Err(LaacadError::InvalidK {
                        k: self.config.k,
                        n: survivors,
                    });
                }
                outcome.removed = self.net.remove_nodes(&ids);
                self.store.truncate(self.net.len());
            }
            NetworkEvent::InsertNodes(points) => {
                for (i, p) in points.iter().enumerate() {
                    if !self.region.contains(*p) {
                        return Err(LaacadError::NodeOutsideRegion { index: i });
                    }
                }
                for p in points {
                    self.net.add_node(p);
                    outcome.inserted += 1;
                }
            }
            NetworkEvent::SetK(k) => {
                if k < 1 || k > self.net.len() {
                    return Err(LaacadError::InvalidK {
                        k,
                        n: self.net.len(),
                    });
                }
                self.config.k = k;
            }
            NetworkEvent::SetAlpha(alpha) => {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(LaacadError::InvalidAlpha(alpha));
                }
                self.config.alpha = alpha;
            }
        }
        self.converged = false;
        // Any event ends the replay of the stored views (populations
        // re-index, `k` re-keys every search) and invalidates the shared
        // adjacency snapshot. The views' keys stay: a recomputed node
        // whose geometric inputs are unchanged still reuses its disk.
        self.has_views = false;
        self.movement = Movement::default();
        self.adjacency_state = AdjacencyState::StaleFull;
        self.event_log.push((record, outcome));
        Ok(outcome)
    }

    /// Displaces the listed nodes to explicit in-region positions between
    /// rounds — external disturbance (wind, collisions, a robot nudging
    /// sensors) as opposed to the algorithm's own Phase-2 motion.
    ///
    /// Unlike [`Session::apply_event`], a displacement does **not**
    /// invalidate the engine's stored per-node views wholesale: the moved
    /// nodes enter the next round's movement set exactly like Phase-2
    /// movers, so the dirty-node classifier re-activates only the
    /// perturbed neighborhood and the rest of the deployment keeps its
    /// fast path. Odometry is charged like any other movement, and the
    /// convergence latch resets when anything actually moved.
    ///
    /// Returns the number of nodes whose position changed (entries whose
    /// target equals the current position are no-ops).
    ///
    /// # Errors
    ///
    /// * [`LaacadError::UnknownNode`] — an id outside the population;
    /// * [`LaacadError::NodeOutsideRegion`] — a target outside the area
    ///   (indexed by position in `moves`).
    ///
    /// Validation happens up front; failures leave the session untouched.
    pub fn displace_nodes(&mut self, moves: &[(NodeId, Point)]) -> Result<usize, LaacadError> {
        let n = self.net.len();
        for (i, &(id, target)) in moves.iter().enumerate() {
            if id.index() >= n {
                return Err(LaacadError::UnknownNode { id: id.index(), n });
            }
            if !self.region.contains(target) {
                return Err(LaacadError::NodeOutsideRegion { index: i });
            }
        }
        let mut displaced = 0;
        for &(id, target) in moves {
            let from = self.net.position(id);
            if from == target {
                continue;
            }
            // Appending (not replacing) keeps `movement` the movement
            // since the stored views were computed, which is what the
            // dirty classifier replays against.
            self.movement.push(
                MovedNode {
                    id,
                    from,
                    to: target,
                },
                n,
            );
            displaced += 1;
        }
        if displaced > 0 {
            self.net.apply_displacements(moves);
            // A fresh (or move-delta-patchable) snapshot stays patchable
            // while `movement` holds the exact delta since it was fresh.
            if self.adjacency_state == AdjacencyState::Fresh {
                self.adjacency_state = AdjacencyState::StaleMoves;
            }
            self.converged = false;
        }
        Ok(displaced)
    }

    /// Tunes every sensing range to the minimum covering value at the
    /// final positions (`r*_i = max_{u ∈ V^k_i} ‖u − u_i‖`, Algorithm 1
    /// line 7). This is a synchronous Phase 1 without the moves, over the
    /// same store: the nodes whose stored views are stale recompute them,
    /// and every node's sensing range becomes its view's reach. Its work
    /// does not count toward the round counters. The movement set is
    /// left as it is, so a round stepped after it searches the nodes it
    /// would have searched without it, reusing the geometry stored here.
    pub fn finalize(&mut self) {
        let telemetry = self.telemetry_on();
        let stage_started = telemetry.then(std::time::Instant::now);
        self.phase1(telemetry, false);
        let n = self.net.len();
        for i in 0..n {
            self.net
                .set_sensing_radius(NodeId(i), self.store.view(i).reach);
        }
        self.record_span(Stage::Finalize, stage_started);
    }
}

/// One Phase-1 worker: kernel buffers borrowed from the thread's pool
/// for one fan-out, and how many of the nodes it computed changed ρ.
#[derive(Debug)]
struct Worker {
    kernel: Box<KernelScratch>,
    rho_changed: usize,
}

/// The work of one Phase 1.
#[derive(Debug, Clone, Copy, Default)]
struct Phase1Work {
    /// Ring searches run (nodes recomputed).
    ring_searches: usize,
    /// Of those, the nodes that reused their stored disk and reach.
    cache_hits: usize,
    /// Of those, the nodes whose ρ differs from their stored view's.
    rho_changed: usize,
}

/// The dirty-node index's verdict for one round.
#[derive(Debug, Clone)]
enum DirtyClass {
    /// No stored views (first round, post-event, Gauss–Seidel or
    /// ranging): every node recomputes.
    AllDirty,
    /// No movement since the stored views were computed: every node
    /// replays its view.
    AllClean,
    /// Per-node verdicts: `true` = recompute, `false` = replay the
    /// stored view.
    Partial(Vec<bool>),
}

/// The movement since the stored views were computed.
///
/// A large movement set is not kept: with `N/4` moves or more nearly
/// every node is dirty anyway, so the classification and the adjacency
/// patch are skipped for a full recompute and a rebuild. Purely a work
/// heuristic — recomputing a clean node reproduces its stored view
/// exactly, and a rebuilt adjacency equals a patched one.
#[derive(Debug, Clone)]
enum Movement {
    /// The exact moves, in order, fewer than `N/4` of them (a node may
    /// appear more than once).
    Few(Vec<MovedNode>),
    /// `N/4` moves or more: too many to read.
    Many,
}

impl Default for Movement {
    fn default() -> Self {
        Movement::Few(Vec::new())
    }
}

impl Movement {
    /// Whether `moves` moves among `n` nodes are few enough to keep.
    fn few(moves: usize, n: usize) -> bool {
        moves * 4 < n
    }

    /// Replaces the movement by one round's `moved` among `n` nodes,
    /// reusing the buffer of an exact set.
    fn replace(&mut self, moved: &[MovedNode], n: usize) {
        if !Movement::few(moved.len(), n) {
            *self = Movement::Many;
        } else if let Movement::Few(moves) = self {
            moves.clear();
            moves.extend_from_slice(moved);
        } else {
            *self = Movement::Few(moved.to_vec());
        }
    }

    /// Appends one move among `n` nodes.
    fn push(&mut self, moved: MovedNode, n: usize) {
        if let Movement::Few(moves) = self {
            if Movement::few(moves.len() + 1, n) {
                moves.push(moved);
            } else {
                *self = Movement::Many;
            }
        }
    }
}

/// How the shared adjacency snapshot relates to the current positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdjacencyState {
    /// Describes the current positions.
    Fresh,
    /// Stale by the moves of `Session::movement` since it was fresh —
    /// patchable via [`Adjacency::apply_moves`] while those are few.
    StaleMoves,
    /// Stale beyond patching (construction, events, Gauss–Seidel
    /// sweeps): only a full rebuild helps.
    StaleFull,
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_coverage::evaluate_coverage;
    use laacad_region::sampling::{sample_clustered, sample_uniform};

    fn quick_config(k: usize, rounds: usize) -> LaacadConfig {
        LaacadConfig::builder(k)
            .transmission_range(0.25)
            .alpha(0.5)
            .epsilon(1e-3)
            .max_rounds(rounds)
            .build()
            .unwrap()
    }

    fn session(config: LaacadConfig, region: Region, initial: Vec<Point>) -> Session {
        Session::builder(config)
            .region(region)
            .positions(initial)
            .build()
            .unwrap()
    }

    #[test]
    fn counters_are_cumulative() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 14, 21);
        let mut sim = session(quick_config(1, 50), region, initial);
        let d1 = sim.step();
        assert_eq!(sim.counters().ring_searches, d1.ring_searches as u64);
        let d2 = sim.step();
        // Cumulative: the session total is the sum of the per-round
        // deltas, not the last round's value.
        assert_eq!(
            sim.counters().ring_searches,
            (d1.ring_searches + d2.ring_searches) as u64
        );
        assert_eq!(
            sim.counters().cache_misses,
            (d1.cache_misses + d2.cache_misses) as u64
        );
    }

    #[test]
    fn run_produces_k_coverage_from_uniform_start() {
        let region = Region::square(1.0).unwrap();
        for k in 1..=2usize {
            let initial = sample_uniform(&region, 20, 99);
            let mut sim = session(quick_config(k, 80), region.clone(), initial);
            let summary = sim.run();
            assert!(summary.max_sensing_radius > 0.0);
            let report = evaluate_coverage(sim.network(), &region, k, 2000);
            assert!(
                report.covered_fraction > 0.999,
                "k={k}: {report} (summary {summary})"
            );
        }
    }

    #[test]
    fn corner_start_spreads_out() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_clustered(&region, 16, Point::new(0.1, 0.1), 0.1, 5);
        let mut sim = session(quick_config(1, 100), region.clone(), initial);
        sim.run();
        // The deployment must have expanded well beyond the corner.
        let far = sim
            .network()
            .positions()
            .iter()
            .filter(|p| p.x > 0.5 || p.y > 0.5)
            .count();
        assert!(far >= 6, "only {far} nodes left the corner");
        let report = evaluate_coverage(sim.network(), &region, 1, 2000);
        assert!(report.covered_fraction > 0.999, "{report}");
    }

    #[test]
    fn max_circumradius_non_increasing_for_alpha_one() {
        // Paper Prop. 4 byproduct: R^l is non-increasing when α = 1.
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 15, 3);
        let mut config = quick_config(2, 60);
        config.alpha = 1.0;
        // Prop. 4 assumes exact dominating regions: use a radio range that
        // keeps every ring search fully informed.
        config.gamma = 1.0;
        let mut sim = session(config, region, initial);
        let mut series = Vec::new();
        while !sim.is_converged() && sim.rounds_executed() < sim.config().max_rounds {
            let report = sim.step().report;
            series.push((report.round, report.max_circumradius));
        }
        for w in series.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-6,
                "R increased: {} -> {} at round {}",
                w[0].1,
                w[1].1,
                w[1].0
            );
        }
    }

    #[test]
    fn radii_balance_out() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 24, 11);
        // γ must exceed the converged sensing range (paper Sec. IV-C
        // assumes γ ≥ r_i), or the k-clusters disconnect the radio graph.
        let mut config = quick_config(3, 120);
        config.gamma = LaacadConfig::recommended_gamma(1.0, 24, 3);
        let mut sim = session(config, region, initial);
        let summary = sim.run();
        // Sec. V-A: min and max sensing ranges end up close for k > 2.
        assert!(
            summary.min_sensing_radius > 0.8 * summary.max_sensing_radius,
            "{summary}"
        );
    }

    #[test]
    fn a_node_out_of_radio_range_counts_as_isolated() {
        // γ = 0.25: the far node is more than γ from every other node,
        // so its ring search finds no member and gets no reply.
        let region = Region::square(1.0).unwrap();
        let initial = vec![
            Point::new(0.10, 0.10),
            Point::new(0.20, 0.10),
            Point::new(0.10, 0.20),
            Point::new(0.90, 0.90),
        ];
        let mut sim = session(quick_config(1, 10), region, initial);
        sim.set_recorder(Box::new(laacad_telemetry::TelemetryRegistry::new()));
        let delta = sim.step();
        assert_eq!(delta.isolated, 1);
        assert!(
            delta.report.messages.unicast > 0,
            "the cluster found itself"
        );
        let recorder = sim.take_recorder().unwrap();
        let registry = recorder
            .as_any()
            .downcast_ref::<laacad_telemetry::TelemetryRegistry>()
            .unwrap();
        assert_eq!(registry.counter_total("isolated_nodes"), 1);
    }

    #[test]
    fn construction_validation() {
        let region = Region::square(1.0).unwrap();
        assert!(matches!(
            Session::builder(quick_config(1, 10))
                .region(region.clone())
                .build(),
            Err(LaacadError::EmptyDeployment)
        ));
        assert!(matches!(
            Session::builder(quick_config(1, 10))
                .positions([Point::new(0.5, 0.5)])
                .build(),
            Err(LaacadError::IncompleteSession { missing: "region" })
        ));
        assert!(matches!(
            Session::builder(quick_config(5, 10))
                .region(region.clone())
                .positions(vec![Point::new(0.5, 0.5); 3])
                .build(),
            Err(LaacadError::InvalidK { .. })
        ));
        assert!(matches!(
            Session::builder(quick_config(1, 10))
                .region(region)
                .positions([Point::new(5.0, 5.0)])
                .build(),
            Err(LaacadError::NodeOutsideRegion { index: 0 })
        ));
    }

    #[test]
    fn sequential_mode_converges_and_covers() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 20, 99);
        let mut config = quick_config(2, 120);
        config.execution = ExecutionMode::Sequential;
        let mut sim = session(config, region.clone(), initial);
        let summary = sim.run();
        let report = evaluate_coverage(sim.network(), &region, 2, 2000);
        assert!(report.covered_fraction > 0.999, "{report} ({summary})");
    }

    #[test]
    fn sequential_mode_needs_no_more_rounds_than_synchronous() {
        // Gauss–Seidel sweeps use fresher information; they should not be
        // dramatically slower than Jacobi on the same workload.
        let region = Region::square(1.0).unwrap();
        let run = |mode: ExecutionMode| {
            let initial = sample_uniform(&region, 15, 5);
            let mut config = quick_config(1, 400);
            config.execution = mode;
            config.epsilon = 2e-3;
            // Keep the radio graph connected for 15 sparse nodes.
            config.gamma = LaacadConfig::recommended_gamma(1.0, 15, 1);
            let mut sim = session(config, region.clone(), initial);
            sim.run()
        };
        let sync = run(ExecutionMode::Synchronous);
        let seq = run(ExecutionMode::Sequential);
        assert!(sync.converged && seq.converged, "{sync} / {seq}");
        assert!(
            seq.rounds <= 2 * sync.rounds,
            "sequential {} vs synchronous {}",
            seq.rounds,
            sync.rounds
        );
    }

    #[test]
    fn single_node_k1_centers_itself() {
        // One node must move to the Chebyshev center of the whole square
        // (its dominating region) — the square's center.
        let region = Region::square(1.0).unwrap();
        let mut config = quick_config(1, 100);
        config.alpha = 1.0;
        config.epsilon = 1e-6;
        let mut sim = session(config, region, vec![Point::new(0.1, 0.2)]);
        let summary = sim.run();
        assert!(summary.converged);
        let p = sim.network().position(NodeId(0));
        assert!(p.approx_eq(Point::new(0.5, 0.5), 1e-3), "ended at {p}");
        // r* = half diagonal.
        assert!((summary.max_sensing_radius - (0.5f64).hypot(0.5)).abs() < 1e-3);
    }

    #[test]
    fn delta_reports_movement_and_convergence_transition() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 12, 21);
        let mut config = quick_config(1, 200);
        config.gamma = LaacadConfig::recommended_gamma(1.0, 12, 1);
        let mut sim = session(config, region, initial);
        let first = sim.step();
        assert!(!first.moved.is_empty(), "a fresh deployment must move");
        assert_eq!(first.moved.len(), first.report.nodes_moved);
        assert_eq!(first.rho_changed, 12, "every ρ counts on round 1");
        for m in &first.moved {
            assert_ne!(m.from, m.to, "mover {:?} did not move", m.id);
            assert_eq!(sim.network().position(m.id), m.to);
        }
        // Step to convergence; exactly one delta reports the transition.
        let mut transitions = 0;
        loop {
            let delta = sim.step();
            transitions += usize::from(delta.newly_converged);
            if delta.report.converged {
                break;
            }
        }
        assert_eq!(transitions, 1);
        assert!(sim.is_converged());
    }

    #[test]
    fn quiescent_rounds_run_zero_ring_searches() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 18, 4);
        let mut config = quick_config(1, 400);
        config.gamma = LaacadConfig::recommended_gamma(1.0, 18, 1);
        let mut sim = session(config, region, initial);
        while !sim.step().report.converged {}
        // The first converged round may still have executed searches
        // (it proves nothing moved); every round after it is quiescent.
        for _ in 0..5 {
            let delta = sim.step();
            assert_eq!(delta.ring_searches, 0, "quiescent round searched");
            assert_eq!(delta.skipped_quiescent, sim.network().len());
            assert_eq!(delta.rho_changed, 0);
            assert!(delta.moved.is_empty());
        }
        assert!(sim.counters().skipped_quiescent >= 5 * 18);
    }

    #[test]
    fn displacement_reactivates_locally_without_invalidating_views() {
        let region = Region::square(1.0).unwrap();
        let config = LaacadConfig::builder(1)
            .transmission_range(0.12)
            .alpha(0.6)
            .epsilon(1e-3)
            .max_rounds(600)
            .build()
            .unwrap();
        let initial = sample_uniform(&region, 200, 77);
        let mut sim = Session::builder(config)
            .region(region)
            .positions(initial)
            .build()
            .unwrap();
        while !sim.step().report.converged {}
        sim.step();
        let mover = NodeId(7);
        let from = sim.network().position(mover);
        let target = Point::new(from.x * 0.97 + 0.015, from.y * 0.97 + 0.015);
        assert_eq!(sim.displace_nodes(&[(mover, target)]).unwrap(), 1);
        assert_eq!(sim.network().position(mover), target);
        assert!(!sim.is_converged(), "displacement resets the latch");
        let before = sim.counters();
        let delta = sim.step();
        // Only the perturbed neighborhood re-activates — not everyone —
        // and the adjacency snapshot is patched, not rebuilt.
        assert!(delta.ring_searches > 0);
        assert!(
            delta.ring_searches < sim.network().len() / 2,
            "a single nudge re-activated {} of {} nodes",
            delta.ring_searches,
            sim.network().len()
        );
        let after = sim.counters();
        assert_eq!(after.adjacency_rebuilds, before.adjacency_rebuilds);
        assert_eq!(
            after.adjacency_incremental_updates,
            before.adjacency_incremental_updates + 1
        );
    }

    #[test]
    fn displacement_validation_is_atomic() {
        let region = Region::square(1.0).unwrap();
        let mut sim = session(
            quick_config(1, 10),
            region,
            vec![Point::new(0.2, 0.2), Point::new(0.8, 0.8)],
        );
        assert!(matches!(
            sim.displace_nodes(&[(NodeId(5), Point::new(0.5, 0.5))]),
            Err(LaacadError::UnknownNode { id: 5, n: 2 })
        ));
        assert!(matches!(
            sim.displace_nodes(&[
                (NodeId(0), Point::new(0.4, 0.4)),
                (NodeId(1), Point::new(5.0, 5.0)),
            ]),
            Err(LaacadError::NodeOutsideRegion { index: 1 })
        ));
        // Nothing moved.
        assert_eq!(sim.network().position(NodeId(0)), Point::new(0.2, 0.2));
        // A no-op displacement (target == current) moves nothing.
        assert_eq!(
            sim.displace_nodes(&[(NodeId(0), Point::new(0.2, 0.2))])
                .unwrap(),
            0
        );
    }

    #[test]
    fn failures_trim_the_view_store_to_the_survivors() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 16, 2);
        let mut sim = session(quick_config(1, 400), region, initial);
        sim.step();
        assert_eq!(sim.store.views().count(), 16);
        sim.apply_event(NetworkEvent::FailNodes(vec![NodeId(3), NodeId(9)]))
            .unwrap();
        assert_eq!(sim.store.views().count(), 14);
        // Kernel buffers are lent for a call, never kept by the session.
        assert!(sim.workers.is_empty());
    }

    #[test]
    fn events_reset_the_dirty_index() {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, 16, 2);
        let mut config = quick_config(1, 400);
        config.gamma = LaacadConfig::recommended_gamma(1.0, 16, 1);
        let mut sim = session(config, region, initial);
        while !sim.step().report.converged {}
        sim.step();
        sim.apply_event(NetworkEvent::FailNodes(vec![NodeId(0)]))
            .unwrap();
        assert!(!sim.is_converged());
        let delta = sim.step();
        assert_eq!(
            delta.ring_searches,
            sim.network().len(),
            "post-event round must recompute everyone"
        );
    }
}
