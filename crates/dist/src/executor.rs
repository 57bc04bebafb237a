//! The asynchronous message-driven LAACAD executor.
//!
//! Every node runs its own copy of the LAACAD state machine and talks to
//! its radio neighbors through explicit messages routed by a seeded
//! discrete-event queue. The protocol per node round:
//!
//! 1. **Hello** — broadcast a neighbor probe (carrying the sender's
//!    claimed id, position, and ρ) to the current one-hop neighborhood
//!    and arm a compute check.
//! 2. **Ack** — every node acks any hello it hears, idempotently —
//!    after validating the payload when a corruption model is active.
//! 3. **Compute** — when all acks are in (or after `max_retries`
//!    timeouts under the configured [`Backoff`] policy) the node runs
//!    the LAACAD local view: expanding-ring search, order-k subdivision,
//!    Chebyshev center — the same kernel the synchronous engine calls,
//!    searching the same one-hop block rows ([`Adjacency`]), patched on every
//!    applied move. The view then goes through the shared protocol core,
//!    [`laacad::RoundAggregate::absorb`]: it joins its round's record,
//!    sets the node's sensing range, and yields a target when the node is
//!    more than `ε` from its Chebyshev center.
//! 4. **Move** — with a target, step toward it (`α`-lerp, projected into
//!    the region) one tick later, then start the next round.
//!
//! Round reports, the run summary and the final sensing ranges come from
//! the same core ([`laacad::RoundAggregate::report`],
//! [`laacad::RunSummary::new`], [`laacad::finalize_views`]) that
//! [`laacad::Session`] calls, so the executor owns only the timing: who
//! computes when, and which messages it took. In the zero-delay/zero-loss
//! limit the slots above put every node's compute for round `r` on the
//! same tick, reading the same position snapshot the synchronous engine
//! would — the final deployment is bit-identical to
//! [`laacad::Session::run`] (see `tests/sync_equivalence.rs`). Under
//! faults, lost probes cost retry latency, not correctness: a node
//! eventually computes with whatever neighborhood information the
//! ground-truth network gives it.
//!
//! **Determinism.** Every fault draw comes from a per-node
//! [`SplitMix64`] stream derived from the seed and the node index,
//! consumed in that node's transmission order. Events live in a
//! tick-bucketed queue (the private `queue` module) that hands back
//! whole same-tick batches in push order, and the executor processes
//! them one by one on the calling thread. There is no wall-clock or OS
//! randomness anywhere, so `(seed, FaultPlan)` replays byte-identically;
//! [`LaacadConfig::threads`] is not read.

use laacad::{
    compute_node_view, finalize_views, LaacadConfig, LaacadError, NodeView, RoundAggregate,
    RoundReport, RunSummary, ViewStore,
};
use laacad_geom::Point;
use laacad_region::sampling::SplitMix64;
use laacad_region::Region;
use laacad_telemetry::Recorder;
use laacad_wsn::mobility::step_toward;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::{Adjacency, Network, NodeId};

use crate::backoff::{Backoff, RttEstimator};
use crate::fault::FaultPlan;
use crate::partition::ActivePartition;
use crate::queue::EventQueue;

/// Ticks from a round's hello broadcast to its first compute check: one
/// tick hello flight, one tick ack flight, one tick of slack so acks
/// landing on the check's own tick are already counted.
const COMPUTE_SLOT: u64 = 3;

/// Salt for the per-node link fault streams.
const LINK_SALT: u64 = 0xA57C_0FAA_17ED_D15F;
/// Salt for the clock drift/skew sampling stream.
const DRIFT_SALT: u64 = 0xD21F_7C10_CC0B_5EED;

/// A coverage probe installed via [`AsyncExecutor::set_probe`]: called
/// with the current tick and the ground-truth network at the scheduled
/// probe ticks (the executor itself stays coverage-agnostic).
pub type ProbeFn = Box<dyn FnMut(u64, &Network)>;

/// Protocol and budget knobs of the asynchronous executor (everything
/// that is *not* part of the fault model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncConfig {
    /// Ticks between compute checks while acks are missing (the
    /// retransmission timeout under [`Backoff::Fixed`], and the
    /// pre-sample fallback of the adaptive policy; clamped to ≥ 1).
    pub ack_timeout: u64,
    /// Hello retransmission rounds before a node computes with a
    /// partial neighborhood anyway.
    pub max_retries: u32,
    /// Virtual-time budget: events past this tick are not processed and
    /// the run reports [`Termination::TickBudget`] with the partial
    /// deployment.
    pub max_ticks: u64,
    /// Processed-event budget backstopping runaway fault plans
    /// ([`Termination::EventBudget`]).
    pub max_events: u64,
    /// Retransmission timeout policy.
    pub backoff: Backoff,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            ack_timeout: 4,
            max_retries: 3,
            max_ticks: 1_000_000,
            max_events: 50_000_000,
            backoff: Backoff::Fixed,
        }
    }
}

/// Why an asynchronous run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Global quiescence: every live node completed a round, with no
    /// movement, computed strictly after the last movement anywhere —
    /// the configuration is a fixed point of the local rule.
    Converged,
    /// Every live node reached the `max_rounds` limit without global
    /// quiescence.
    RoundLimit,
    /// The event queue drained while nodes were still mid-protocol —
    /// e.g. every remaining participant crashed with no recovery
    /// scheduled.
    Deadlock,
    /// The virtual-time budget ([`AsyncConfig::max_ticks`]) ran out.
    TickBudget,
    /// The processed-event budget ([`AsyncConfig::max_events`]) ran out.
    EventBudget,
}

impl Termination {
    /// Stable lowercase tag (used by scenario outcomes and JSONL).
    pub fn as_str(&self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::RoundLimit => "round_limit",
            Termination::Deadlock => "deadlock",
            Termination::TickBudget => "tick_budget",
            Termination::EventBudget => "event_budget",
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Coordination-plane message accounting, kept strictly separate from
/// the algorithm's ring-search
/// [`MessageStats`] (which must match the
/// synchronous engine exactly in the zero-fault limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolStats {
    /// Hello broadcasts initiated (one per node round).
    pub hellos: u64,
    /// Ack replies sent.
    pub acks: u64,
    /// Hello unicasts re-sent after an ack timeout.
    pub retransmissions: u64,
    /// Point-to-point message copies handed to the channel.
    pub sent: u64,
    /// Copies delivered to a live node.
    pub delivered: u64,
    /// Copies dropped by the loss knob.
    pub lost: u64,
    /// Extra copies injected by the duplication knob.
    pub duplicated: u64,
    /// Copies that arrived at a crashed node.
    pub dropped_to_crashed: u64,
    /// Rounds computed with a partial neighborhood after exhausting
    /// retries.
    pub timeouts: u64,
    /// LAACAD local-view computations executed.
    pub computes: u64,
    /// Crash events applied.
    pub crashes: u64,
    /// Recover events applied.
    pub recoveries: u64,
    /// Hello payloads mutated by the corruption model.
    pub corrupted: u64,
    /// Validation rejections: a receiver detected an implausible payload
    /// and quarantined its sender.
    pub quarantined: u64,
    /// Hellos silently ignored because their sender was under
    /// quarantine at the receiver.
    pub quarantine_drops: u64,
    /// Deviant position claims absorbed as beliefs (validation off) —
    /// non-zero means the deployment may have diverged from ground
    /// truth and callers must surface it.
    pub corrupted_accepted: u64,
    /// Copies dropped because an active partition severed the link.
    pub partition_dropped: u64,
    /// Hello→ack round-trip samples fed to the per-node RTT estimators
    /// (Karn's rule: none from retransmitted rounds).
    pub rtt_samples: u64,
}

/// Outcome of one [`AsyncExecutor::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncRunReport {
    /// Why the run stopped.
    pub termination: Termination,
    /// Sync-engine-shaped run summary (rounds, convergence flag, final
    /// sensing radii, algorithm messages, distance moved) — directly
    /// comparable with [`laacad::Session::run`]'s.
    pub summary: RunSummary,
    /// Per-round records, directly comparable with the
    /// [`RoundDelta::report`](laacad::RoundDelta::report) of each
    /// [`laacad::Session::step`].
    pub rounds: Vec<RoundReport>,
    /// Coordination-plane counters.
    pub protocol: ProtocolStats,
    /// Virtual time consumed (last processed tick).
    pub ticks: u64,
    /// Events processed.
    pub events_processed: u64,
    /// Final searching-ring radius `ρ` per node, recomputed at the final
    /// positions during finalization (the ρ-equivalence handle).
    pub final_rhos: Vec<f64>,
    /// Tick of the last partition heal processed (`None` when no
    /// partition healed). `ticks − last_heal_tick` is the post-heal
    /// recovery time when the run converged.
    pub last_heal_tick: Option<u64>,
    /// Tick of the last applied movement — together with
    /// `last_heal_tick` this bounds how long the deployment kept
    /// re-equilibrating after a heal.
    pub last_move_tick: u64,
}

/// The payload a hello carries: the sender's claimed identity, position,
/// and most recent ρ. Honest senders claim the ground truth at send
/// time; the corruption model mutates claims in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HelloClaim {
    id: usize,
    pos: Point,
    rho: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MsgKind {
    Hello { round: usize, claim: HelloClaim },
    Ack { round: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    RoundStart {
        node: usize,
        epoch: u32,
    },
    Deliver {
        to: usize,
        from: usize,
        msg: MsgKind,
    },
    ComputeCheck {
        node: usize,
        round: usize,
        attempt: u32,
        epoch: u32,
    },
    ApplyMove {
        node: usize,
        target: Point,
        epoch: u32,
    },
    Crash {
        node: usize,
    },
    Recover {
        node: usize,
    },
    PartitionStart {
        index: usize,
    },
    PartitionEnd {
        index: usize,
    },
    Probe,
}

/// A queued event. Same-tick events process in the order they were
/// scheduled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) tick: u64,
    pub(crate) kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between rounds: a `RoundStart` is queued (or the node crashed).
    Idle,
    /// Hello sent; collecting acks until the compute check fires.
    Waiting,
    /// Computed and decided to move; the `ApplyMove` is in flight.
    Moving,
    /// Hit the round limit; the node participates passively (acks,
    /// senses) but runs no further rounds.
    Done,
}

/// Sentinel for "not counted toward quiescence this movement epoch".
const NOT_COUNTED: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct NodeMachine {
    /// Round currently executing (1-based; 0 before the first).
    round: usize,
    phase: Phase,
    /// Bumped on every crash/recover; events carrying a stale epoch are
    /// ignored, which cleanly cancels a crashed node's in-flight
    /// schedule.
    epoch: u32,
    crashed: bool,
    /// Neighbor indices awaited this round, with received flags.
    expected: Vec<usize>,
    got: Vec<bool>,
    missing: usize,
    /// Highest round this node finished a compute for.
    completed: usize,
    /// Tick of that compute.
    completed_tick: u64,
    /// Whether that round decided to move (pessimistically `true` after
    /// a recovery, until the node completes a fresh round).
    moved_last: bool,
    /// ρ of the most recent compute, and of the one before it (the
    /// "stale ρ" the corruption model replays).
    rho: f64,
    prev_rho: f64,
    /// Tick of this round's hello broadcast and whether any hello was
    /// retransmitted since (Karn's rule: retransmitted rounds produce
    /// no RTT samples).
    hello_tick: u64,
    retransmitted: bool,
    /// Per-node smoothed RTT for the adaptive backoff policy.
    rtt: RttEstimator,
    /// Movement epoch in which this node was counted quiescent
    /// ([`NOT_COUNTED`] = not counted) — the O(1) quiescence ledger.
    counted_epoch: u64,
}

impl NodeMachine {
    fn new() -> Self {
        NodeMachine {
            round: 0,
            phase: Phase::Idle,
            epoch: 0,
            crashed: false,
            expected: Vec::new(),
            got: Vec::new(),
            missing: 0,
            completed: 0,
            completed_tick: 0,
            moved_last: false,
            rho: 0.0,
            prev_rho: 0.0,
            hello_tick: 0,
            retransmitted: false,
            rtt: RttEstimator::default(),
            counted_epoch: NOT_COUNTED,
        }
    }
}

/// The message-driven executor. Construct with [`AsyncExecutor::new`],
/// then [`AsyncExecutor::run`] once.
pub struct AsyncExecutor {
    config: LaacadConfig,
    region: Region,
    net: Network,
    /// One-hop CSR of `net`'s ground-truth positions, patched on every
    /// applied move — the ring searches and hello fan-outs read it
    /// instead of querying the spatial grid.
    adjacency: Adjacency,
    /// Applied moves patched into `adjacency`.
    adjacency_patches: u64,
    plan: FaultPlan,
    proto: AsyncConfig,
    /// Per-node fault streams: node `i`'s draws depend only on the seed,
    /// `i`, and how many draws `i` has made — never on the interleaving
    /// of other nodes' traffic.
    link_rngs: Vec<SplitMix64>,
    queue: EventQueue,
    now: u64,
    nodes: Vec<NodeMachine>,
    /// Every node's last view and the key guarding reuse of its
    /// geometry; each compute borrows the kernel buffers from the
    /// thread's pool.
    store: ViewStore,
    /// Computes whose geometry reused the node's stored view (the rest
    /// of [`ProtocolStats::computes`] recomputed it). A recorder counter
    /// only, not a protocol statistic.
    cache_hits: u64,
    /// Per-round records, indexed by round − 1; node computes land in
    /// the round they belong to, whenever they happen.
    rounds: Vec<RoundAggregate>,
    stats: ProtocolStats,
    recorder: Option<Box<dyn Recorder>>,
    /// Tick of the most recent applied movement anywhere (the
    /// quiescence watermark).
    last_move_tick: u64,
    /// Bumped whenever the watermark advances; invalidates the
    /// quiescence ledger in O(1) instead of rescanning every node.
    move_epoch: u64,
    /// Live nodes currently counted quiescent for `move_epoch`.
    quiescent: usize,
    live: usize,
    events_processed: u64,
    stopped: Option<Termination>,
    /// Compiled state of each partition schedule (`Some` while open).
    partitions_active: Vec<Option<ActivePartition>>,
    last_heal_tick: Option<u64>,
    /// Per-receiver quarantine ledger: `(sender, ignore_until_tick)`.
    quarantine: Vec<Vec<(usize, u64)>>,
    /// Per-receiver absorbed deviant claims (validation off):
    /// `(subject, claimed_position)`, sorted by subject.
    beliefs: Vec<Vec<(usize, Point)>>,
    /// Per-node clock rate factors (empty = ideal clocks).
    drift_rate: Vec<f64>,
    /// Per-node initial skew in ticks (empty = none).
    skew: Vec<u64>,
    bbox_center: Point,
    probe: Option<(u64, ProbeFn)>,
}

impl AsyncExecutor {
    /// Builds an executor over `positions` (validated against `region`)
    /// with the given fault plan and protocol knobs. The executor runs
    /// on the calling thread and does not read [`LaacadConfig::threads`].
    ///
    /// # Errors
    ///
    /// Propagates [`LaacadConfig::validate`] failures,
    /// [`LaacadError::NodeOutsideRegion`] for positions outside the
    /// region, and [`LaacadError::UnknownNode`] for crash events or
    /// partition link masks naming node indices that do not exist.
    pub fn new(
        config: LaacadConfig,
        region: Region,
        positions: Vec<Point>,
        plan: FaultPlan,
        proto: AsyncConfig,
    ) -> Result<Self, LaacadError> {
        let n = positions.len();
        config.validate(n)?;
        for (index, p) in positions.iter().enumerate() {
            if !region.contains(*p) {
                return Err(LaacadError::NodeOutsideRegion { index });
            }
        }
        for crash in &plan.crashes {
            if crash.node >= n {
                return Err(LaacadError::UnknownNode { id: crash.node, n });
            }
        }
        for schedule in &plan.partitions {
            if let Some(max) = schedule.max_node() {
                if max >= n {
                    return Err(LaacadError::UnknownNode { id: max, n });
                }
            }
        }
        let net = Network::from_positions(config.gamma, positions);
        let adjacency = Adjacency::build(&net);
        let seed = config.seed;
        let link_rngs = (0..n as u64)
            .map(|i| {
                SplitMix64::new(seed ^ LINK_SALT ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
            })
            .collect();
        // Clock drift/skew: sampled once per node, in id order, from a
        // dedicated stream — absent or zero drift draws nothing.
        let (drift_rate, skew) = match plan.drift {
            Some(d) if !d.is_zero() => {
                let mut rng = SplitMix64::new(seed ^ DRIFT_SALT);
                let mut rates = Vec::with_capacity(n);
                let mut skews = Vec::with_capacity(n);
                for _ in 0..n {
                    rates.push(if d.rate > 0.0 {
                        1.0 + rng.range(-d.rate, d.rate)
                    } else {
                        1.0
                    });
                    skews.push(if d.skew > 0 {
                        rng.next_u64() % (d.skew + 1)
                    } else {
                        0
                    });
                }
                (rates, skews)
            }
            _ => (Vec::new(), Vec::new()),
        };
        let corruption_on = plan.corruption.is_some_and(|c| !c.is_zero());
        let bbox_center = region.bounding_box().center();
        let partitions_active = vec![None; plan.partitions.len()];
        Ok(AsyncExecutor {
            region,
            net,
            adjacency,
            adjacency_patches: 0,
            proto: AsyncConfig {
                ack_timeout: proto.ack_timeout.max(1),
                ..proto
            },
            link_rngs,
            queue: EventQueue::default(),
            now: 0,
            nodes: (0..n).map(|_| NodeMachine::new()).collect(),
            store: ViewStore::new(),
            cache_hits: 0,
            rounds: Vec::new(),
            stats: ProtocolStats::default(),
            recorder: None,
            last_move_tick: 0,
            move_epoch: 0,
            quiescent: 0,
            live: n,
            events_processed: 0,
            stopped: None,
            partitions_active,
            last_heal_tick: None,
            quarantine: if corruption_on {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            beliefs: if corruption_on {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            drift_rate,
            skew,
            bbox_center,
            probe: None,
            config,
            plan,
        })
    }

    /// Installs a telemetry recorder; per-round compute/movement
    /// counters and the protocol totals are emitted through it when the
    /// run finishes.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Removes and returns the installed recorder.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Installs a coverage probe called every `every` ticks while a
    /// partition is open (plus a short post-heal tail), with the current
    /// tick and the ground-truth network. Probes mutate nothing, so the
    /// determinism guarantees are unaffected.
    pub fn set_probe(&mut self, every: u64, probe: ProbeFn) {
        self.probe = Some((every.max(1), probe));
    }

    /// The ground-truth network (final positions and sensing radii after
    /// [`AsyncExecutor::run`]).
    pub fn network(&self) -> &Network {
        &self.net
    }

    fn schedule(&mut self, tick: u64, kind: EventKind) {
        self.queue.push(tick, kind);
    }

    fn ensure_round(&mut self, round: usize) {
        while self.rounds.len() < round {
            self.rounds.push(RoundAggregate::default());
        }
    }

    /// A node-local duration under that node's clock rate: ideal clocks
    /// pass `d` through untouched, drifting ones scale it (never below
    /// one tick).
    fn local_ticks(&self, node: usize, d: u64) -> u64 {
        if self.drift_rate.is_empty() {
            d
        } else {
            ((d as f64) * self.drift_rate[node]).round().max(1.0) as u64
        }
    }

    /// Whether any open partition severs `from → to`.
    fn link_blocked(&self, from: usize, to: usize) -> bool {
        self.partitions_active
            .iter()
            .flatten()
            .any(|p| p.blocks(from, to))
    }

    /// One extra-latency draw for a message copy from the sender's fault
    /// stream (delay model plus reordering jitter). Guarded so a
    /// fault-free plan never touches any random stream.
    fn link_delay(&mut self, from: usize) -> u64 {
        let rng = &mut self.link_rngs[from];
        let mut extra = self.plan.delay.sample(rng);
        if self.plan.jitter > 0.0 && rng.next_f64() < self.plan.jitter {
            extra += 1 + rng.next_u64() % 3;
        }
        extra
    }

    /// The honest hello payload for `from` at the current instant.
    fn honest_hello(&self, from: usize, round: usize) -> MsgKind {
        MsgKind::Hello {
            round,
            claim: HelloClaim {
                id: from,
                pos: self.net.position(NodeId(from)),
                rho: self.nodes[from].rho,
            },
        }
    }

    /// Hands one message copy to the channel: partition masking, payload
    /// corruption, loss, delay/jitter and duplication draws happen here,
    /// in the sender's deterministic stream order.
    fn transmit(&mut self, from: usize, to: usize, mut msg: MsgKind) {
        self.stats.sent += 1;
        if self.link_blocked(from, to) {
            // A severed link carries nothing; no draws are spent on it,
            // so per-stream sequences stay independent of the schedule.
            self.stats.partition_dropped += 1;
            return;
        }
        if let MsgKind::Hello { claim, .. } = &mut msg {
            if let Some(c) = self.plan.corruption {
                if c.rate > 0.0 && self.link_rngs[from].next_f64() < c.rate {
                    self.stats.corrupted += 1;
                    match self.link_rngs[from].next_u64() % 3 {
                        0 => {
                            // Flip: mirror the claimed position across
                            // the region's bounding-box center.
                            claim.pos = Point {
                                x: 2.0 * self.bbox_center.x - claim.pos.x,
                                y: 2.0 * self.bbox_center.y - claim.pos.y,
                            };
                        }
                        1 => {
                            // Stale ρ from the sender's previous round —
                            // plausible by construction, so validation
                            // passes; it poisons the diagnostic payload,
                            // not the protocol.
                            claim.rho = self.nodes[from].prev_rho;
                        }
                        _ => {
                            // Forged identity: the liar claims to be its
                            // successor, misrouting acks when receivers
                            // believe it.
                            claim.id = (from + 1) % self.nodes.len();
                        }
                    }
                }
            }
        }
        if self.plan.loss > 0.0 && self.link_rngs[from].next_f64() < self.plan.loss {
            self.stats.lost += 1;
        } else {
            let extra = self.link_delay(from);
            self.schedule(self.now + 1 + extra, EventKind::Deliver { to, from, msg });
        }
        if self.plan.duplicate > 0.0 && self.link_rngs[from].next_f64() < self.plan.duplicate {
            self.stats.duplicated += 1;
            let extra = self.link_delay(from);
            self.schedule(self.now + 1 + extra, EventKind::Deliver { to, from, msg });
        }
    }

    /// Runs the protocol to termination and finalizes sensing ranges.
    /// Budget exhaustion and deadlock are reported, never panicked: the
    /// partial deployment is finalized and summarized the same way a
    /// converged one is.
    pub fn run(&mut self) -> AsyncRunReport {
        // Fault-plan timeline first (queued ahead of the tick-0 round
        // starts, so a tick-0 partition or crash beats the first hello),
        // then every node's first round, in id order.
        for (index, schedule) in self.plan.partitions.clone().iter().enumerate() {
            self.schedule(schedule.at, EventKind::PartitionStart { index });
            if let Some(heal) = schedule.heal_at {
                self.schedule(heal, EventKind::PartitionEnd { index });
            }
        }
        self.schedule_probes();
        for crash in self.plan.crashes.clone() {
            self.schedule(crash.at, EventKind::Crash { node: crash.node });
            if let Some(at) = crash.recover_at {
                self.schedule(at, EventKind::Recover { node: crash.node });
            }
        }
        for i in 0..self.nodes.len() {
            let at = if self.skew.is_empty() {
                0
            } else {
                self.skew[i]
            };
            self.schedule(at, EventKind::RoundStart { node: i, epoch: 0 });
        }
        let termination = self.event_loop();
        self.finish(termination)
    }

    /// Statically schedules coverage probes over the known partition
    /// windows (plus a four-interval post-heal tail). The schedule is
    /// fixed up front so probes never keep the queue alive artificially
    /// — deadlock detection still means "no node can make progress".
    fn schedule_probes(&mut self) {
        let Some((every, _)) = self.probe else {
            return;
        };
        let mut ticks: Vec<u64> = Vec::new();
        for schedule in &self.plan.partitions {
            match schedule.heal_at {
                Some(heal) => {
                    let mut t = schedule.at;
                    while t < heal {
                        ticks.push(t);
                        t = t.saturating_add(every);
                    }
                    for j in 0..=4u64 {
                        ticks.push(heal.saturating_add(j * every));
                    }
                }
                None => {
                    for j in 0..=4u64 {
                        ticks.push(schedule.at.saturating_add(j * every));
                    }
                }
            }
        }
        ticks.sort_unstable();
        ticks.dedup();
        for t in ticks {
            self.schedule(t, EventKind::Probe);
        }
    }

    fn event_loop(&mut self) -> Termination {
        let mut batch = Vec::new();
        while self.queue.pop_batch(&mut batch) {
            let tick = batch[0].tick;
            if tick > self.proto.max_ticks {
                return Termination::TickBudget;
            }
            for ev in &batch {
                if self.events_processed >= self.proto.max_events {
                    return Termination::EventBudget;
                }
                self.events_processed += 1;
                self.now = ev.tick;
                self.process(ev.kind);
                if let Some(t) = self.stopped {
                    return t;
                }
            }
        }
        // Queue drained without global quiescence: either an orderly
        // round-limit stop or a genuine deadlock (no live node has any
        // way to make progress).
        let all_done = self
            .nodes
            .iter()
            .all(|m| m.crashed || m.phase == Phase::Done);
        if self.live > 0 && all_done {
            Termination::RoundLimit
        } else {
            Termination::Deadlock
        }
    }

    fn process(&mut self, kind: EventKind) {
        match kind {
            EventKind::RoundStart { node, epoch } => self.on_round_start(node, epoch),
            EventKind::Deliver { to, from, msg } => self.on_deliver(to, from, msg),
            EventKind::ComputeCheck {
                node,
                round,
                attempt,
                epoch,
            } => self.on_compute_check(node, round, attempt, epoch),
            EventKind::ApplyMove {
                node,
                target,
                epoch,
            } => self.on_apply_move(node, target, epoch),
            EventKind::Crash { node } => self.on_crash(node),
            EventKind::Recover { node } => self.on_recover(node),
            EventKind::PartitionStart { index } => self.on_partition_start(index),
            EventKind::PartitionEnd { index } => self.on_partition_end(index),
            EventKind::Probe => self.on_probe(),
        }
    }

    fn on_partition_start(&mut self, index: usize) {
        let kind = self.plan.partitions[index].kind.clone();
        self.partitions_active[index] = Some(ActivePartition::compile(&kind, self.net.positions()));
    }

    fn on_partition_end(&mut self, index: usize) {
        if self.partitions_active[index].take().is_some() {
            self.last_heal_tick = Some(self.now);
        }
    }

    fn on_probe(&mut self) {
        if let Some((every, mut f)) = self.probe.take() {
            f(self.now, &self.net);
            self.probe = Some((every, f));
        }
    }

    fn on_round_start(&mut self, i: usize, epoch: u32) {
        {
            let m = &self.nodes[i];
            if m.crashed || m.epoch != epoch || m.phase == Phase::Done {
                return;
            }
        }
        let next_round = self.nodes[i].round + 1;
        if next_round > self.config.max_rounds {
            self.nodes[i].phase = Phase::Done;
            return;
        }
        self.ensure_round(next_round);
        {
            let m = &mut self.nodes[i];
            m.round = next_round;
            m.phase = Phase::Waiting;
            m.expected.clear();
            m.expected.extend(self.adjacency.neighbors(i));
            m.missing = m.expected.len();
            m.got.clear();
            m.got.resize(m.expected.len(), false);
            m.hello_tick = self.now;
            m.retransmitted = false;
        }
        self.stats.hellos += 1;
        let hello = self.honest_hello(i, next_round);
        for slot in 0..self.nodes[i].expected.len() {
            let j = self.nodes[i].expected[slot];
            self.transmit(i, j, hello);
        }
        let slot = self.local_ticks(i, COMPUTE_SLOT);
        self.schedule(
            self.now + slot,
            EventKind::ComputeCheck {
                node: i,
                round: next_round,
                attempt: 0,
                epoch,
            },
        );
    }

    /// Whether `from` is currently quarantined at receiver `to`.
    fn is_quarantined(&self, to: usize, from: usize) -> bool {
        self.quarantine[to]
            .iter()
            .any(|&(s, until)| s == from && self.now < until)
    }

    /// Receiver-side plausibility check on a hello payload.
    fn claim_valid(&self, to: usize, from: usize, claim: &HelloClaim) -> bool {
        let c = self.plan.corruption.expect("validation implies a model");
        if claim.id != from {
            return false;
        }
        if !claim.rho.is_finite() || claim.rho < 0.0 {
            return false;
        }
        let reach = self.net.gamma() * (1.0 + c.tolerance.max(0.0));
        claim.pos.distance(self.net.position(NodeId(to))) <= reach
    }

    /// Quarantines `from` at receiver `to` until `until`.
    fn quarantine_sender(&mut self, to: usize, from: usize, until: u64) {
        let ledger = &mut self.quarantine[to];
        if let Some(entry) = ledger.iter_mut().find(|(s, _)| *s == from) {
            entry.1 = until;
        } else {
            ledger.push((from, until));
        }
    }

    /// Absorbs a believed claim (validation off): a deviant position
    /// claim becomes a belief override fed into the receiver's next
    /// compute; a claim matching ground truth clears any stored lie
    /// about its subject (latest heard wins).
    fn absorb_claim(&mut self, to: usize, claim: &HelloClaim) {
        let subject = claim.id;
        let truth = self.net.position(NodeId(subject));
        let ledger = &mut self.beliefs[to];
        let slot = ledger.binary_search_by_key(&subject, |&(s, _)| s);
        if claim.pos.x == truth.x && claim.pos.y == truth.y {
            if let Ok(idx) = slot {
                ledger.remove(idx);
            }
            return;
        }
        match slot {
            Ok(idx) => {
                if ledger[idx].1 != claim.pos {
                    ledger[idx].1 = claim.pos;
                    self.stats.corrupted_accepted += 1;
                }
            }
            Err(idx) => {
                ledger.insert(idx, (subject, claim.pos));
                self.stats.corrupted_accepted += 1;
            }
        }
    }

    fn on_deliver(&mut self, to: usize, from: usize, msg: MsgKind) {
        if self.nodes[to].crashed {
            self.stats.dropped_to_crashed += 1;
            return;
        }
        self.stats.delivered += 1;
        match msg {
            MsgKind::Hello { round, claim } => {
                let mut ack_to = from;
                if let Some(c) = self.plan.corruption {
                    if !c.is_zero() {
                        if c.validate {
                            if self.is_quarantined(to, from) {
                                self.stats.quarantine_drops += 1;
                                return;
                            }
                            if !self.claim_valid(to, from, &claim) {
                                self.stats.quarantined += 1;
                                let until = self.now + c.quarantine_ticks.max(1);
                                self.quarantine_sender(to, from, until);
                                return;
                            }
                        } else {
                            // Gullible receiver: believe the payload —
                            // store deviant position claims and route
                            // the ack to the *claimed* identity.
                            self.absorb_claim(to, &claim);
                            ack_to = claim.id;
                        }
                    }
                }
                // Always ack, idempotently — duplicated hellos produce
                // duplicated (harmless) acks.
                self.stats.acks += 1;
                self.transmit(to, ack_to, MsgKind::Ack { round });
            }
            MsgKind::Ack { round } => {
                let now = self.now;
                let m = &mut self.nodes[to];
                if m.phase == Phase::Waiting && m.round == round {
                    if let Some(pos) = m.expected.iter().position(|&x| x == from) {
                        if !m.got[pos] {
                            m.got[pos] = true;
                            m.missing -= 1;
                            if !m.retransmitted {
                                m.rtt.observe(now - m.hello_tick);
                                self.stats.rtt_samples += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_compute_check(&mut self, i: usize, round: usize, attempt: u32, epoch: u32) {
        {
            let m = &self.nodes[i];
            if m.crashed || m.epoch != epoch || m.phase != Phase::Waiting || m.round != round {
                return;
            }
        }
        if self.nodes[i].missing > 0 && attempt < self.proto.max_retries {
            self.stats.retransmissions += self.nodes[i].missing as u64;
            self.nodes[i].retransmitted = true;
            let hello = self.honest_hello(i, round);
            // Acks only arrive through `on_deliver`, never inside
            // `transmit`, so `got` is stable across this walk.
            for slot in 0..self.nodes[i].expected.len() {
                if !self.nodes[i].got[slot] {
                    let j = self.nodes[i].expected[slot];
                    self.transmit(i, j, hello);
                }
            }
            let rto = self.nodes[i].rtt.rto(self.proto.ack_timeout);
            let timeout = self.proto.backoff.timeout(
                self.proto.ack_timeout,
                rto,
                attempt,
                &mut self.link_rngs[i],
            );
            let timeout = self.local_ticks(i, timeout);
            self.schedule(
                self.now + timeout,
                EventKind::ComputeCheck {
                    node: i,
                    round,
                    attempt: attempt + 1,
                    epoch,
                },
            );
            return;
        }
        if self.nodes[i].missing > 0 {
            self.stats.timeouts += 1;
        }
        self.compute(i, round);
    }

    /// Evaluates `i`'s local view under its absorbed belief overrides:
    /// forged claims are applied as temporary position overrides (no
    /// odometry), the kernel runs against the perturbed snapshot, and
    /// the ground truth is restored before anything else observes it.
    /// The adjacency describes the ground truth, not the overrides, so
    /// this is the one search that queries the live grid.
    fn compute_view_with_beliefs(&mut self, i: usize, round: usize) -> NodeView {
        let overrides: Vec<(usize, Point)> = self.beliefs[i]
            .iter()
            .filter(|&&(subject, _)| subject != i)
            .copied()
            .collect();
        let mut saved: Vec<(usize, Point)> = Vec::with_capacity(overrides.len());
        for &(subject, lie) in &overrides {
            let truth = self.net.override_position(NodeId(subject), lie);
            saved.push((subject, truth));
        }
        let view = compute_node_view(
            &self.net,
            None,
            NodeId(i),
            &self.region,
            &self.config,
            round,
            &mut self.store,
        );
        for &(subject, truth) in saved.iter().rev() {
            self.net.override_position(NodeId(subject), truth);
        }
        view
    }

    fn compute(&mut self, i: usize, round: usize) {
        let id = NodeId(i);
        let believes_lies = self
            .plan
            .corruption
            .is_some_and(|c| !c.validate && !c.is_zero())
            && !self.beliefs[i].is_empty();
        let view = if believes_lies {
            self.compute_view_with_beliefs(i, round)
        } else {
            compute_node_view(
                &self.net,
                Some(&self.adjacency),
                id,
                &self.region,
                &self.config,
                round,
                &mut self.store,
            )
        };
        self.stats.computes += 1;
        self.cache_hits += u64::from(view.cache_hit);
        let target = self.rounds[round - 1].absorb(&mut self.net, id, &view, self.config.epsilon);
        let epoch = {
            let m = &mut self.nodes[i];
            m.prev_rho = m.rho;
            m.rho = view.rho;
            m.completed = round;
            m.completed_tick = self.now;
            m.moved_last = target.is_some();
            m.phase = if target.is_some() {
                Phase::Moving
            } else {
                Phase::Idle
            };
            m.epoch
        };
        match target {
            Some(target) => {
                // A mover cannot stay on the quiescence ledger.
                if self.nodes[i].counted_epoch == self.move_epoch {
                    self.quiescent -= 1;
                }
                self.nodes[i].counted_epoch = NOT_COUNTED;
                let wait = self.local_ticks(i, 1);
                self.schedule(
                    self.now + wait,
                    EventKind::ApplyMove {
                        node: i,
                        target,
                        epoch,
                    },
                );
            }
            None => {
                // Count toward quiescence iff this compute happened
                // strictly after the last applied movement anywhere.
                if self.now > self.last_move_tick && self.nodes[i].counted_epoch != self.move_epoch
                {
                    self.nodes[i].counted_epoch = self.move_epoch;
                    self.quiescent += 1;
                }
                let wait = self.local_ticks(i, 2);
                self.schedule(self.now + wait, EventKind::RoundStart { node: i, epoch });
                self.check_quiescence();
            }
        }
    }

    fn on_apply_move(&mut self, i: usize, target: Point, epoch: u32) {
        {
            let m = &self.nodes[i];
            if m.crashed || m.epoch != epoch || m.phase != Phase::Moving {
                return;
            }
        }
        let from = self.net.position(NodeId(i));
        step_toward(
            &mut self.net,
            NodeId(i),
            target,
            self.config.alpha,
            Some(&self.region),
        );
        let to = self.net.position(NodeId(i));
        self.adjacency.apply_moves(&self.net, [(i, from, to)]);
        self.adjacency_patches += 1;
        self.last_move_tick = self.now;
        // Advance the movement epoch: every previously counted node's
        // compute is now stale (completed_tick ≤ the new watermark), so
        // the ledger resets in O(1).
        self.move_epoch += 1;
        self.quiescent = 0;
        self.nodes[i].phase = Phase::Idle;
        let wait = self.local_ticks(i, 1);
        self.schedule(self.now + wait, EventKind::RoundStart { node: i, epoch });
    }

    fn on_crash(&mut self, i: usize) {
        if self.nodes[i].crashed {
            return;
        }
        if self.nodes[i].counted_epoch == self.move_epoch {
            self.quiescent -= 1;
        }
        let m = &mut self.nodes[i];
        m.crashed = true;
        m.epoch += 1;
        m.counted_epoch = NOT_COUNTED;
        if m.phase != Phase::Done {
            m.phase = Phase::Idle;
        }
        m.expected.clear();
        m.got.clear();
        m.missing = 0;
        self.live -= 1;
        self.stats.crashes += 1;
        // The survivors may already be a fixed point.
        self.check_quiescence();
    }

    fn on_recover(&mut self, i: usize) {
        let m = &mut self.nodes[i];
        if !m.crashed {
            return;
        }
        m.crashed = false;
        m.epoch += 1;
        // Pessimistic until it completes a fresh round: a recovered node
        // must not count as quiescent on stale information.
        m.moved_last = true;
        m.counted_epoch = NOT_COUNTED;
        let epoch = m.epoch;
        let done = m.phase == Phase::Done;
        self.live += 1;
        self.stats.recoveries += 1;
        if !done {
            self.schedule(self.now, EventKind::RoundStart { node: i, epoch });
        }
    }

    /// Global quiescence test: every live node's most recent completed
    /// round decided not to move *and* was computed strictly after the
    /// last applied movement anywhere — i.e. every node has re-examined
    /// the final configuration and stayed put. Maintained as an O(1)
    /// ledger (`quiescent` counted nodes per movement epoch) instead of
    /// an O(N) rescan, with identical semantics. In the zero-fault limit
    /// this fires exactly when the synchronous engine's "no node moved
    /// this round" latch would.
    fn check_quiescence(&mut self) {
        if self.live > 0 && self.quiescent == self.live {
            self.stopped = Some(Termination::Converged);
        }
    }

    /// Finalizes sensing ranges at the final positions, keeping each
    /// node's final ρ, and assembles the run's report: one record per
    /// round up to the highest round any node completed a compute for
    /// (none when the run was cut before the first compute).
    fn finish(&mut self, termination: Termination) -> AsyncRunReport {
        let rounds_executed = self
            .rounds
            .iter()
            .rposition(|agg| agg.absorbed() > 0)
            .map_or(0, |idx| idx + 1);
        let final_rhos = finalize_views(
            &mut self.net,
            &self.adjacency,
            &self.region,
            &self.config,
            rounds_executed,
            &mut self.store,
        )
        .iter()
        .map(|view| view.rho)
        .collect();
        let reports: Vec<RoundReport> = self.rounds[..rounds_executed]
            .iter()
            .enumerate()
            .map(|(idx, agg)| agg.report(idx + 1))
            .collect();
        let mut messages = MessageStats::default();
        for report in &reports {
            messages.absorb(report.messages);
        }
        let summary = RunSummary::new(
            reports.len(),
            messages,
            &self.net,
            termination == Termination::Converged,
        );
        self.emit_telemetry(&reports);
        AsyncRunReport {
            termination,
            summary,
            rounds: reports,
            protocol: self.stats,
            ticks: self.now,
            events_processed: self.events_processed,
            final_rhos,
            last_heal_tick: self.last_heal_tick,
            last_move_tick: self.last_move_tick,
        }
    }

    /// Emits per-round work counters and (in the final round) the
    /// protocol totals through the installed [`Recorder`]. All values
    /// are deterministic work counts, never wall clock.
    fn emit_telemetry(&mut self, reports: &[RoundReport]) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        if !rec.enabled() {
            return;
        }
        for (agg, report) in self.rounds.iter().zip(reports) {
            let round = report.round;
            rec.counter("async_computes", round, agg.absorbed() as u64);
            rec.counter("async_nodes_moved", round, report.nodes_moved as u64);
            if round == reports.len() {
                rec.counter("async_hellos", round, self.stats.hellos);
                rec.counter("async_acks", round, self.stats.acks);
                rec.counter("async_retransmissions", round, self.stats.retransmissions);
                rec.counter("async_messages_sent", round, self.stats.sent);
                rec.counter("async_messages_delivered", round, self.stats.delivered);
                rec.counter("async_messages_lost", round, self.stats.lost);
                rec.counter("async_messages_duplicated", round, self.stats.duplicated);
                rec.counter(
                    "async_dropped_to_crashed",
                    round,
                    self.stats.dropped_to_crashed,
                );
                rec.counter("async_timeouts", round, self.stats.timeouts);
                rec.counter("async_crashes", round, self.stats.crashes);
                rec.counter("async_recoveries", round, self.stats.recoveries);
                rec.counter("async_corrupted", round, self.stats.corrupted);
                rec.counter("async_quarantined", round, self.stats.quarantined);
                rec.counter("async_quarantine_drops", round, self.stats.quarantine_drops);
                rec.counter(
                    "async_corrupted_accepted",
                    round,
                    self.stats.corrupted_accepted,
                );
                rec.counter(
                    "async_partition_dropped",
                    round,
                    self.stats.partition_dropped,
                );
                rec.counter("async_rtt_samples", round, self.stats.rtt_samples);
                rec.counter("async_ticks", round, self.now);
                rec.counter("cache_hits", round, self.cache_hits);
                rec.counter("cache_misses", round, self.stats.computes - self.cache_hits);
                rec.counter("adjacency_patches", round, self.adjacency_patches);
                rec.counter(
                    "adjacency_overflow_rebuilds",
                    round,
                    self.adjacency.overflow_rebuilds(),
                );
            }
            rec.round_end(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Corruption, CrashEvent, DelayModel, Drift};
    use crate::partition::{Axis, PartitionKind, PartitionSchedule};
    use laacad_region::sampling::sample_uniform;

    fn plans() -> Vec<(&'static str, FaultPlan)> {
        let corruption = |validate| FaultPlan {
            loss: 0.05,
            corruption: Some(Corruption {
                rate: 0.15,
                validate,
                ..Corruption::default()
            }),
            ..FaultPlan::default()
        };
        vec![
            (
                "loss_exp_delay",
                FaultPlan {
                    loss: 0.1,
                    delay: DelayModel::Exp { mean: 1.0 },
                    ..FaultPlan::default()
                },
            ),
            (
                "crash_recover",
                FaultPlan {
                    crashes: vec![CrashEvent {
                        node: 2,
                        at: 30,
                        recover_at: Some(300),
                    }],
                    ..FaultPlan::default()
                },
            ),
            (
                "healing_bipartition",
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
                "clock_drift",
                FaultPlan {
                    loss: 0.05,
                    drift: Some(Drift { rate: 0.2, skew: 3 }),
                    ..FaultPlan::default()
                },
            ),
            ("corruption_validated", corruption(true)),
            ("corruption_believed", corruption(false)),
        ]
    }

    /// The run's telemetry reports how often the adjacency was patched
    /// and how many of those patches fell back to a rebuild.
    #[test]
    fn telemetry_reports_adjacency_patches() {
        let region = Region::square(1.0).unwrap();
        let config = LaacadConfig::builder(1)
            .alpha(0.6)
            .epsilon(1e-3)
            .transmission_range(0.45)
            .seed(7)
            .build()
            .unwrap();
        let plan = plans().swap_remove(0).1;
        let positions = sample_uniform(&region, 18, 7);
        let mut exec =
            AsyncExecutor::new(config, region, positions, plan, AsyncConfig::default()).unwrap();
        exec.set_recorder(Box::new(laacad::TelemetryRegistry::new()));
        let report = exec.run();
        let recorder = exec.take_recorder().unwrap();
        let reg = recorder
            .as_any()
            .downcast_ref::<laacad::TelemetryRegistry>()
            .unwrap();
        let decided: usize = report.rounds.iter().map(|r| r.nodes_moved).sum();
        let patches = reg.counter_total("adjacency_patches");
        assert!(
            patches > 0 && patches <= decided as u64,
            "{patches} of {decided}"
        );
        assert_eq!(patches, exec.adjacency_patches);
        assert!(reg
            .counters()
            .any(|(name, total)| name == "adjacency_overflow_rebuilds"
                && total == exec.adjacency.overflow_rebuilds()));
    }

    /// The run's telemetry splits its computes into cache hits and
    /// misses, under the sync session's counter names; a lossy cell
    /// reuses some of its nodes' geometry.
    #[test]
    fn telemetry_reports_cache_hits_and_misses_over_the_computes() {
        let region = Region::square(1.0).unwrap();
        let n = 64;
        let config = LaacadConfig::builder(1)
            .alpha(0.5)
            .epsilon(5e-3)
            .transmission_range(LaacadConfig::recommended_gamma(1.0, n, 1))
            .seed(11)
            .build()
            .unwrap();
        let plan = FaultPlan {
            loss: 0.1,
            ..FaultPlan::default()
        };
        let positions = sample_uniform(&region, n, 11);
        let mut exec =
            AsyncExecutor::new(config, region, positions, plan, AsyncConfig::default()).unwrap();
        exec.set_recorder(Box::new(laacad::TelemetryRegistry::new()));
        let report = exec.run();
        let recorder = exec.take_recorder().unwrap();
        let reg = recorder
            .as_any()
            .downcast_ref::<laacad::TelemetryRegistry>()
            .unwrap();
        let (hits, misses) = (
            reg.counter_total("cache_hits"),
            reg.counter_total("cache_misses"),
        );
        assert_eq!(hits + misses, report.protocol.computes);
        assert!(hits > 0, "no hit in {} computes", report.protocol.computes);
        assert!(misses > 0);
    }

    /// The move-patched adjacency never drifts from the ground truth:
    /// after a run, every row equals a from-scratch build over the final
    /// positions, whatever the fault plan (and whatever `threads` says,
    /// which the executor does not read).
    #[test]
    fn patched_adjacency_matches_fresh_build() {
        let region = Region::square(1.0).unwrap();
        for (name, plan) in plans() {
            for threads in [1, 4] {
                let mut config = LaacadConfig::builder(1)
                    .alpha(0.6)
                    .epsilon(1e-3)
                    .transmission_range(0.45)
                    .max_rounds(400)
                    .seed(2024)
                    .build()
                    .unwrap();
                config.threads = threads;
                let positions = sample_uniform(&region, 18, 2024);
                let mut exec = AsyncExecutor::new(
                    config,
                    region.clone(),
                    positions,
                    plan.clone(),
                    AsyncConfig::default(),
                )
                .unwrap();
                let report = exec.run();
                assert!(
                    report.summary.total_distance_moved > 0.0,
                    "{name}: nothing moved, so nothing was patched"
                );
                match plan.corruption {
                    Some(c) if c.validate => {
                        assert!(report.protocol.quarantined > 0, "{name}: nothing rejected")
                    }
                    Some(_) => assert!(
                        report.protocol.corrupted_accepted > 0,
                        "{name}: no belief absorbed"
                    ),
                    None => {}
                }
                let fresh = Adjacency::build(exec.network());
                assert_eq!(exec.adjacency.len(), fresh.len(), "{name}");
                for i in 0..fresh.len() {
                    assert_eq!(
                        exec.adjacency.row(i),
                        fresh.row(i),
                        "{name}, threads {threads}: row {i}"
                    );
                }
            }
        }
    }
}
