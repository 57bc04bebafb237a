//! The protocol core: Algorithm 1's per-node step and its round
//! accounting, shared by every engine.
//!
//! LAACAD is one local rule per node: compute the dominating region, set
//! the sensing range to its reach, and step toward the Chebyshev centre
//! if it is more than `ε` away. The rule is the same whether rounds are
//! lock-step ([`crate::Session`]) or message-driven (the `laacad-dist`
//! executor), so both engines call the functions here:
//!
//! * [`RoundAggregate::absorb`] folds one node's [`NodeView`] into its
//!   round, sets the node's sensing radius and returns the target of its
//!   move, if any (Algorithm 1 lines 3–4);
//! * [`RoundAggregate::report`] turns a round into its [`RoundReport`];
//! * [`RunSummary::new`] summarizes a run from its round records;
//! * [`finalize_views`] tunes every sensing range at the final positions
//!   (Algorithm 1 line 7).
//!
//! With no faults the two engines therefore agree by construction: they
//! differ only in when each node computes, never in what it decides.

use crate::config::LaacadConfig;
use crate::history::{RoundReport, RunSummary};
use crate::localview::{compute_node_view, NodeView};
use crate::scratch::ViewStore;
use laacad_geom::Point;
use laacad_region::Region;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::{Adjacency, Network, NodeId};

/// One round's statistics, folded one node view at a time.
#[derive(Debug, Clone)]
pub struct RoundAggregate {
    max_circumradius: f64,
    /// `INFINITY` until the first disk is absorbed.
    min_circumradius: f64,
    max_reach: f64,
    max_disp: f64,
    messages: MessageStats,
    absorbed: usize,
    moved: usize,
}

impl Default for RoundAggregate {
    fn default() -> Self {
        RoundAggregate {
            max_circumradius: 0.0,
            min_circumradius: f64::INFINITY,
            max_reach: 0.0,
            max_disp: 0.0,
            messages: MessageStats::default(),
            absorbed: 0,
            moved: 0,
        }
    }
}

impl RoundAggregate {
    /// Algorithm 1 lines 3–4 for node `id`. The view's ring-search
    /// messages always count. When the view has a Chebyshev disk, its
    /// circumradius, reach and the node's displacement to the centre
    /// join the round's extremes, and the node's sensing radius becomes
    /// the reach. Returns the centre when the node is strictly more than
    /// `epsilon` from it; the caller moves the node.
    ///
    /// A view without a disk (an empty dominating region) adds only its
    /// messages: the radius and the disk statistics stay as they were.
    pub fn absorb(
        &mut self,
        net: &mut Network,
        id: NodeId,
        view: &NodeView,
        epsilon: f64,
    ) -> Option<Point> {
        self.absorbed += 1;
        self.messages.absorb(view.messages);
        let disk = view.chebyshev?;
        let displacement = net.position(id).distance(disk.center);
        self.max_circumradius = self.max_circumradius.max(disk.radius);
        self.min_circumradius = self.min_circumradius.min(disk.radius);
        self.max_reach = self.max_reach.max(view.reach);
        self.max_disp = self.max_disp.max(displacement);
        net.set_sensing_radius(id, view.reach);
        (displacement > epsilon).then(|| {
            self.moved += 1;
            disk.center
        })
    }

    /// Views absorbed so far.
    pub fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// The round's record: the circumradius and reach extremes, the
    /// largest displacement, the messages, and how many nodes were sent
    /// toward a target. A round where no node had a disk reports a
    /// minimum circumradius of 0; a round that moved no node is
    /// converged.
    pub fn report(&self, round: usize) -> RoundReport {
        RoundReport {
            round,
            max_circumradius: self.max_circumradius,
            min_circumradius: if self.min_circumradius == f64::INFINITY {
                0.0
            } else {
                self.min_circumradius
            },
            max_reach: self.max_reach,
            max_displacement_to_target: self.max_disp,
            nodes_moved: self.moved,
            messages: self.messages,
            converged: self.moved == 0,
        }
    }
}

impl RunSummary {
    /// The summary of a run whose round records are `rounds` and whose
    /// final deployment is `net`: one executed round per record, message
    /// totals over every record, and the final sensing-radius extremes
    /// and odometry of `net`.
    pub fn new(rounds: &[RoundReport], net: &Network, converged: bool) -> RunSummary {
        let mut messages = MessageStats::default();
        for report in rounds {
            messages.absorb(report.messages);
        }
        RunSummary {
            rounds: rounds.len(),
            converged,
            max_sensing_radius: net.max_sensing_radius(),
            min_sensing_radius: net.min_sensing_radius(),
            messages,
            total_distance_moved: net.total_distance_moved(),
        }
    }
}

/// Algorithm 1 line 7 for an engine without a dirty-node index:
/// recomputes every node's view at the current positions, in id order,
/// into `store`, and sets each sensing range to the minimum covering
/// value, the view's reach. The kernel never reads sensing radii, so
/// setting them as the views come in changes no view. Returns the views,
/// in id order. ([`crate::Session::finalize`] runs its own Phase 1 over
/// its store instead, recomputing only the nodes whose views are stale.)
///
/// `adjacency` must describe the current positions.
pub fn finalize_views(
    net: &mut Network,
    adjacency: &Adjacency,
    region: &Region,
    config: &LaacadConfig,
    round: usize,
    store: &mut ViewStore,
) -> Vec<NodeView> {
    (0..net.len())
        .map(|i| {
            let id = NodeId(i);
            let view = compute_node_view(net, Some(adjacency), id, region, config, round, store);
            net.set_sensing_radius(id, view.reach);
            view
        })
        .collect()
}
