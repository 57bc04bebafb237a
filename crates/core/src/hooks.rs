//! Dynamic network events and the observer verdict type.
//!
//! The paper's Algorithm 1 runs on a fixed node population; real
//! deployments lose nodes (hardware failure, battery depletion), gain
//! nodes (redeployment, robots-assisted recovery), and see their coverage
//! requirement change mid-mission. This module lets external drivers —
//! most prominently the `laacad-scenario` engine — mutate the network
//! *between* rounds through a typed event API, without forking the
//! algorithm: [`Session::apply_event`] performs the mutation and resets
//! the convergence latch, and [`Session::run_with_observers`] dispatches
//! the [`crate::Observer`] callbacks so events fire at the right time.
//!
//! [`Session::apply_event`]: crate::Session::apply_event
//! [`Session::run_with_observers`]: crate::Session::run_with_observers

use laacad_geom::Point;
use laacad_wsn::NodeId;

/// A mutation applied to a running deployment between rounds.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkEvent {
    /// Removes the listed nodes (crash-stop failure). Surviving nodes are
    /// re-indexed densely; odometry totals are preserved.
    FailNodes(Vec<NodeId>),
    /// Adds new nodes at the given positions (churn / redeployment).
    InsertNodes(Vec<Point>),
    /// Changes the coverage requirement `k`.
    SetK(usize),
    /// Changes the step size `α ∈ (0, 1]`.
    SetAlpha(f64),
}

/// What happened when an event was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventOutcome {
    /// Nodes removed by the event.
    pub removed: usize,
    /// Nodes inserted by the event.
    pub inserted: usize,
}

/// A hook's verdict after observing a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Defer to the default rule (stop once the ε-condition holds).
    Default,
    /// Keep stepping even if the round converged — e.g. events are still
    /// pending in a scenario timeline.
    KeepRunning,
    /// Stop the run now.
    Stop,
}
