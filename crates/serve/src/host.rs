//! The multi-session scheduler with admission control and backpressure.

use std::collections::VecDeque;

use laacad::{Recorder, Session};
use laacad_coverage::evaluate_coverage;
use laacad_exec::{parallel_for_each_slot, resolve_workers};

use crate::command::{Command, CoverageAnswer, Response, SessionId};

/// What to do when a command arrives at a full session queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Refuse the new command ([`SubmitError::QueueFull`]); the queue is
    /// untouched. The default — clients see their own overload.
    #[default]
    Reject,
    /// Drop the oldest queued command to make room — freshest-data wins,
    /// the right shape for disturbance streams where a newer
    /// displacement supersedes a stale one.
    ShedOldest,
}

/// Host scheduling and admission parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Per-session command queue bound (minimum 1).
    pub queue_capacity: usize,
    /// Full-queue behavior.
    pub policy: QueuePolicy,
    /// Commands executed per session per tick; `0` means drain the
    /// whole queue. A bounded budget keeps one chatty session from
    /// starving the batch.
    pub tick_budget: usize,
    /// Threads for the tick fan-out over sessions, the calling thread
    /// included (`0` = all cores, never more than there are sessions
    /// with queued work): at `t` the caller runs one worker and `t − 1`
    /// scoped threads run the rest. Workers claim one session at a time
    /// and run its batch where it lives; sessions are independent, so
    /// any value yields identical results.
    pub threads: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            queue_capacity: 64,
            policy: QueuePolicy::Reject,
            tick_budget: 8,
            threads: 0,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No live session under that id (never admitted, or retired).
    UnknownSession,
    /// The session's queue is at capacity under [`QueuePolicy::Reject`].
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownSession => write!(f, "unknown session"),
            SubmitError::QueueFull => write!(f, "session queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Running totals over a host's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostStats {
    /// Sessions ever admitted.
    pub admitted: u64,
    /// Sessions retired.
    pub retired: u64,
    /// Scheduling ticks run.
    pub ticks: u64,
    /// Commands accepted into queues.
    pub accepted: u64,
    /// Commands executed by ticks.
    pub executed: u64,
    /// Commands dropped by [`QueuePolicy::ShedOldest`].
    pub shed: u64,
    /// Commands refused by [`QueuePolicy::Reject`].
    pub rejected: u64,
}

/// One hosted session, its bounded command queue and the responses of
/// the batch the current tick ran on it (empty between ticks).
#[derive(Debug)]
struct Hosted {
    session: Session,
    queue: VecDeque<Command>,
    responses: Vec<Response>,
}

/// A deterministic multi-session scheduler.
///
/// The host owns N concurrent [`Session`]s, each with a bounded command
/// queue. [`SessionHost::tick`] drains every queue (up to the per-session
/// tick budget) and runs each batch on its session in place, over
/// `laacad-exec` workers that claim one session at a time. Sessions are
/// mutually independent and responses are returned in **ascending
/// session-id order**, so a tick's results are identical at any thread
/// count. The host keeps no history: a session's state is its
/// [`Session::snapshot`], and the same admissions, submissions and
/// ticks give the same responses and snapshots byte for byte.
///
/// # Example
///
/// ```
/// use laacad::{LaacadConfig, Session};
/// use laacad_region::{sampling::sample_uniform, Region};
/// use laacad_serve::{Command, HostConfig, Response, SessionHost};
///
/// let region = Region::square(1.0)?;
/// let config = LaacadConfig::builder(1)
///     .transmission_range(0.3)
///     .max_rounds(50)
///     .build()?;
/// let session = Session::builder(config)
///     .positions(sample_uniform(&region, 12, 7))
///     .region(region)
///     .build()?;
/// let mut host = SessionHost::new(HostConfig::default());
/// let id = host.admit(session);
/// host.submit(id, Command::Step)?;
/// let results = host.tick();
/// assert!(matches!(results[0].1[0], Response::Stepped(_)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SessionHost {
    config: HostConfig,
    /// Slot per [`SessionId`]; retired slots stay `None` (ids are never
    /// reused).
    slots: Vec<Option<Hosted>>,
    stats: HostStats,
    /// Stats already reported to the recorder (per-tick deltas).
    reported: HostStats,
    recorder: Option<Box<dyn Recorder>>,
}

impl SessionHost {
    /// Creates an empty host.
    pub fn new(config: HostConfig) -> Self {
        let config = HostConfig {
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        SessionHost {
            config,
            slots: Vec::new(),
            stats: HostStats::default(),
            reported: HostStats::default(),
            recorder: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Admits a session, returning its id.
    pub fn admit(&mut self, session: Session) -> SessionId {
        let id = SessionId(self.slots.len());
        self.slots.push(Some(Hosted {
            session,
            queue: VecDeque::new(),
            responses: Vec::new(),
        }));
        self.stats.admitted += 1;
        id
    }

    /// Removes a session from scheduling and returns it. Pending queued
    /// commands are dropped (counted as shed).
    pub fn retire(&mut self, id: SessionId) -> Option<Session> {
        let hosted = self.slots.get_mut(id.0)?.take()?;
        self.stats.retired += 1;
        self.stats.shed += hosted.queue.len() as u64;
        Some(hosted.session)
    }

    /// Enqueues a command for `id`, applying the admission policy at a
    /// full queue.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownSession`] for dead ids;
    /// [`SubmitError::QueueFull`] under [`QueuePolicy::Reject`] at
    /// capacity (the command did not enter the queue).
    pub fn submit(&mut self, id: SessionId, command: Command) -> Result<(), SubmitError> {
        let hosted = self
            .slots
            .get_mut(id.0)
            .and_then(|s| s.as_mut())
            .ok_or(SubmitError::UnknownSession)?;
        if hosted.queue.len() >= self.config.queue_capacity {
            match self.config.policy {
                QueuePolicy::Reject => {
                    self.stats.rejected += 1;
                    return Err(SubmitError::QueueFull);
                }
                QueuePolicy::ShedOldest => {
                    hosted.queue.pop_front();
                    self.stats.shed += 1;
                }
            }
        }
        hosted.queue.push_back(command);
        self.stats.accepted += 1;
        Ok(())
    }

    /// Runs one scheduling tick: drains up to `tick_budget` commands
    /// from every live session's queue and executes each batch on its
    /// session where it lives, the sessions spread over the exec
    /// workers. Returns `(id, responses)` for every session that
    /// executed at least one command, in id order — identical at any
    /// `threads` setting (sessions are independent, and each batch runs
    /// in queue order on its own session).
    pub fn tick(&mut self) -> Vec<(SessionId, Vec<Response>)> {
        self.stats.ticks += 1;
        let budget = if self.config.tick_budget == 0 {
            usize::MAX
        } else {
            self.config.tick_budget
        };
        let busy = self
            .slots
            .iter()
            .flatten()
            .filter(|h| !h.queue.is_empty())
            .count();
        let mut workers = vec![(); resolve_workers(self.config.threads, busy)];
        parallel_for_each_slot(&mut workers, &mut self.slots, |_, _, slot| {
            let Some(hosted) = slot.as_mut() else {
                return;
            };
            let take = hosted.queue.len().min(budget);
            if take == 0 {
                return;
            }
            hosted.responses.reserve_exact(take);
            for command in hosted.queue.drain(..take) {
                let response = Self::execute(&mut hosted.session, command);
                hosted.responses.push(response);
            }
        });
        let mut out = Vec::with_capacity(busy);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(hosted) = slot.as_mut() else {
                continue;
            };
            if !hosted.responses.is_empty() {
                self.stats.executed += hosted.responses.len() as u64;
                out.push((SessionId(i), std::mem::take(&mut hosted.responses)));
            }
        }
        self.emit_telemetry();
        out
    }

    /// Executes one command against one session.
    fn execute(session: &mut Session, command: Command) -> Response {
        match command {
            Command::Step => Response::Stepped(session.step()),
            Command::Displace(moves) => match session.displace_nodes(&moves) {
                Ok(n) => Response::Displaced(n),
                Err(e) => Response::Failed(e.to_string()),
            },
            Command::ApplyEvent(event) => match session.apply_event(event) {
                Ok(outcome) => Response::EventApplied(outcome),
                Err(e) => Response::Failed(e.to_string()),
            },
            Command::QueryCoverage { samples } => {
                let report = evaluate_coverage(
                    session.network(),
                    session.region(),
                    session.config().k,
                    samples,
                );
                Response::Coverage(CoverageAnswer {
                    k: report.k,
                    samples: report.samples,
                    covered_fraction: report.covered_fraction,
                    min_degree: report.min_degree,
                    mean_degree: report.mean_degree,
                })
            }
            Command::Snapshot => Response::Snapshot(session.snapshot()),
        }
    }

    /// Per-tick host telemetry through the standard [`Recorder`]: live
    /// session count, executed/accepted/shed/rejected deltas, and the
    /// deepest remaining queue. The tick index stands in for the round.
    fn emit_telemetry(&mut self) {
        let Some(recorder) = self.recorder.as_mut() else {
            return;
        };
        if !recorder.enabled() {
            return;
        }
        let tick = self.stats.ticks as usize;
        let live = self.slots.iter().flatten().count() as u64;
        let deepest = self
            .slots
            .iter()
            .flatten()
            .map(|h| h.queue.len() as u64)
            .max()
            .unwrap_or(0);
        recorder.counter("host_sessions_live", tick, live);
        recorder.counter(
            "host_commands_executed",
            tick,
            self.stats.executed - self.reported.executed,
        );
        recorder.counter(
            "host_commands_accepted",
            tick,
            self.stats.accepted - self.reported.accepted,
        );
        recorder.counter(
            "host_commands_shed",
            tick,
            self.stats.shed - self.reported.shed,
        );
        recorder.counter(
            "host_commands_rejected",
            tick,
            self.stats.rejected - self.reported.rejected,
        );
        recorder.counter("host_queue_depth_max", tick, deepest);
        recorder.round_end(tick);
        self.reported = self.stats;
    }

    /// Read access to a hosted session.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.slots.get(id.0)?.as_ref().map(|h| &h.session)
    }

    /// Pending queue depth of a session (`None` for dead ids).
    pub fn queue_depth(&self, id: SessionId) -> Option<usize> {
        self.slots.get(id.0)?.as_ref().map(|h| h.queue.len())
    }

    /// Number of live (admitted, not retired) sessions.
    pub fn sessions_live(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Lifetime totals.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Installs a host-level telemetry recorder (counters per tick, see
    /// [`SessionHost::tick`]); purely observational, like the engine's.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Removes and returns the installed recorder.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }
}
