//! The host's command model: what clients ask of a hosted session, what
//! they get back, and the append-only log a host run replays from.

use laacad::{EventOutcome, NetworkEvent, RoundDelta};
use laacad_geom::Point;
use laacad_wsn::NodeId;

use crate::host::HostConfig;

/// Handle to one hosted session — the dense slot index a
/// [`crate::SessionHost`] assigned at admission. Ids are never reused
/// within a host's lifetime (retired slots stay empty), so a log entry
/// naming an id is unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub usize);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// One client request against a hosted session.
///
/// Commands queue per session and execute in submission order during
/// [`crate::SessionHost::tick`]; each maps to exactly one [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one engine round ([`laacad::Session::step`]).
    Step,
    /// Externally displace nodes ([`laacad::Session::displace_nodes`]) —
    /// the disturbance-stream ingestion path.
    Displace(Vec<(NodeId, Point)>),
    /// Apply a dynamic event ([`laacad::Session::apply_event`]).
    ApplyEvent(NetworkEvent),
    /// Evaluate k-coverage over roughly `samples` grid points.
    QueryCoverage {
        /// Target sample count for the coverage grid.
        samples: usize,
    },
    /// Serialize the session ([`laacad::Session::snapshot`]).
    Snapshot,
}

/// The answer to one [`Command`], in queue order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// [`Command::Step`] — the round's change set.
    Stepped(RoundDelta),
    /// [`Command::Displace`] — nodes whose position actually changed.
    Displaced(usize),
    /// [`Command::ApplyEvent`] — nodes removed/inserted.
    EventApplied(EventOutcome),
    /// [`Command::QueryCoverage`] — the coverage verdict.
    Coverage(CoverageAnswer),
    /// [`Command::Snapshot`] — a `laacad-snapshot/3` buffer.
    Snapshot(Vec<u8>),
    /// The session rejected the command (validation failure); the
    /// session itself is untouched, per the engine's atomic-rejection
    /// contract.
    Failed(String),
}

/// Coverage metrics answering a [`Command::QueryCoverage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageAnswer {
    /// Coverage degree the query evaluated against (the session's `k`).
    pub k: usize,
    /// Grid points actually sampled.
    pub samples: usize,
    /// Fraction of sampled points covered by ≥ k sensors.
    pub covered_fraction: f64,
    /// Minimum observed coverage degree.
    pub min_degree: usize,
    /// Mean observed coverage degree.
    pub mean_degree: f64,
}

/// One entry of a host's append-only command log.
///
/// The log is self-contained: admissions carry the admitted session's
/// snapshot bytes, so [`crate::SessionHost::replay`] reconstructs the
/// whole run from the log alone — no out-of-band initial state.
/// Rejected submissions never enter the log (they never entered a
/// queue); sheds are *not* logged either, because they are a
/// deterministic function of the logged submissions and ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// A session was admitted with this snapshot as its initial state.
    Admit {
        /// `laacad-snapshot/3` bytes of the session at admission.
        snapshot: Vec<u8>,
    },
    /// A command was accepted into a session's queue.
    Submit {
        /// The target session.
        session: SessionId,
        /// The accepted command.
        command: Command,
    },
    /// A session was retired (removed from scheduling).
    Retire {
        /// The retired session.
        session: SessionId,
    },
    /// One scheduling tick ran.
    Tick,
}

/// A complete, replayable record of a host run: the host configuration
/// plus every logged entry in order.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandLog {
    /// The configuration the host ran under (queue bounds and budgets
    /// shape which commands executed when, so replay needs them).
    pub config: HostConfig,
    /// Entries in the order they happened.
    pub entries: Vec<LogEntry>,
}
