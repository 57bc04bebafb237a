//! The host's command model: what clients ask of a hosted session and
//! what they get back.

use laacad::{EventOutcome, NetworkEvent, RoundDelta};
use laacad_geom::Point;
use laacad_wsn::NodeId;

/// Handle to one hosted session — the dense slot index a
/// [`crate::SessionHost`] assigned at admission. Ids are never reused
/// within a host's lifetime (retired slots stay empty), so an id names
/// one session for good.
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
