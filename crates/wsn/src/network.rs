//! The sensor network container.

use crate::flat::FlatGrid;
use crate::node::{NodeId, SensorNode};
use laacad_geom::Point;

/// A WSN: a set of sensor nodes with one shared transmission range `γ`
/// (paper Sec. III-A: "All nodes have an identical transmission range γ"),
/// spatially indexed for the radius queries every LAACAD round performs.
///
/// Node state is stored **struct-of-arrays**: parallel `positions` /
/// `sensing_radius` / `distance_moved` vectors indexed by [`NodeId`], so
/// the round engine's sweeps (position snapshots, radius reductions,
/// odometry totals) stream over dense homogeneous memory instead of
/// striding through per-node structs. [`SensorNode`] survives only as a
/// by-value view at the API boundary ([`Network::node`] /
/// [`Network::nodes`]).
///
/// The spatial index is maintained **eagerly** on every mutation, so the
/// whole query surface ([`Network::one_hop_neighbors`], the multihop
/// ring machinery) works
/// through `&Network`. That is what lets the synchronous round engine
/// compute every node's local view from one shared snapshot across
/// worker threads. The index is a [`FlatGrid`] celled at `γ`; a cloud
/// too sparse for that cell (say, one far outlier) gets a coarser cell
/// with the same exact query results.
///
/// # Example
///
/// ```
/// use laacad_geom::Point;
/// use laacad_wsn::Network;
/// let mut net = Network::new(0.2);
/// let a = net.add_node(Point::new(0.0, 0.0));
/// net.move_node(a, Point::new(0.5, 0.5));
/// assert_eq!(net.position(a), Point::new(0.5, 0.5));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    positions: Vec<Point>,
    sensing_radius: Vec<f64>,
    distance_moved: Vec<f64>,
    gamma: f64,
    grid: FlatGrid,
    /// Odometry of nodes that have since been removed (kept so that
    /// movement-energy totals survive node failures).
    retired_distance: f64,
}

impl Network {
    /// Creates an empty network with transmission range `gamma`.
    ///
    /// # Panics
    ///
    /// Panics when `gamma` is not strictly positive and finite.
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "transmission range must be positive, got {gamma}"
        );
        Network {
            positions: Vec::new(),
            sensing_radius: Vec::new(),
            distance_moved: Vec::new(),
            gamma,
            grid: FlatGrid::build(&[], gamma),
            retired_distance: 0.0,
        }
    }

    /// Creates a network from initial node positions.
    pub fn from_positions(gamma: f64, positions: impl IntoIterator<Item = Point>) -> Self {
        let mut net = Network::new(gamma);
        net.positions = positions.into_iter().collect();
        net.sensing_radius = vec![0.0; net.positions.len()];
        net.distance_moved = vec![0.0; net.positions.len()];
        net.rebuild_grid();
        net
    }

    /// Rebuilds the spatial index from the current positions — the O(N)
    /// recovery path when a mutation escapes the grid's bounding box or
    /// overflows a cell.
    fn rebuild_grid(&mut self) {
        self.grid = FlatGrid::build(&self.positions, self.gamma);
    }

    /// Adds a node, returning its id. The spatial index is extended in
    /// place when it can be, rebuilt when the new point does not fit.
    pub fn add_node(&mut self, position: Point) -> NodeId {
        let id = NodeId(self.positions.len());
        self.positions.push(position);
        self.sensing_radius.push(0.0);
        self.distance_moved.push(0.0);
        if !self.grid.insert(id.0, position) {
            self.rebuild_grid();
        }
        id
    }

    /// Number of nodes `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the network has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The shared transmission range `γ`.
    #[inline]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len()).map(NodeId)
    }

    /// A by-value view of one node (see [`SensorNode`]).
    #[inline]
    pub fn node(&self, id: NodeId) -> SensorNode {
        SensorNode::view(
            id,
            self.positions[id.0],
            self.sensing_radius[id.0],
            self.distance_moved[id.0],
        )
    }

    /// Views of all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = SensorNode> + '_ {
        (0..self.len()).map(move |i| self.node(NodeId(i)))
    }

    /// Position of a node.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.0]
    }

    /// All positions, indexed by node id.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// All sensing ranges, indexed by node id.
    #[inline]
    pub fn sensing_radii(&self) -> &[f64] {
        &self.sensing_radius
    }

    /// Moves a node, maintaining odometry and the spatial index.
    pub fn move_node(&mut self, id: NodeId, target: Point) {
        let old = self.positions[id.0];
        self.distance_moved[id.0] += old.distance(target);
        self.positions[id.0] = target;
        if !self.grid.relocate(id.0, old, target) {
            self.rebuild_grid();
        }
    }

    /// Moves a batch of nodes at once, maintaining odometry and feeding
    /// the spatial index one move-delta batch ([`FlatGrid::apply_moves`])
    /// instead of per-node calls. Results are identical to calling
    /// [`Network::move_node`] per entry.
    pub fn apply_displacements(&mut self, moves: &[(NodeId, Point)]) {
        let positions = &mut self.positions;
        let distance_moved = &mut self.distance_moved;
        let ok = self.grid.apply_moves(moves.iter().map(|&(id, target)| {
            let old = positions[id.0];
            distance_moved[id.0] += old.distance(target);
            positions[id.0] = target;
            (id.0, old, target)
        }));
        if !ok {
            self.rebuild_grid();
        }
    }

    /// Repositions a node **without** touching odometry, maintaining the
    /// spatial index, and returns the previous position. The substrate
    /// for belief-perturbed evaluations (a node computing its local rule
    /// under forged neighbor claims): callers apply the claimed
    /// positions, compute, then restore the returned truth — the round
    /// trip leaves [`Network::total_distance_moved`] untouched.
    pub fn override_position(&mut self, id: NodeId, target: Point) -> Point {
        let old = self.positions[id.0];
        self.positions[id.0] = target;
        if !self.grid.relocate(id.0, old, target) {
            self.rebuild_grid();
        }
        old
    }

    /// Sets a node's sensing range.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite ranges.
    pub fn set_sensing_radius(&mut self, id: NodeId, r: f64) {
        assert!(r.is_finite() && r >= 0.0, "invalid sensing radius {r}");
        self.sensing_radius[id.0] = r;
    }

    /// Removes the given nodes (duplicates and out-of-range ids ignored),
    /// compacting the network and **reassigning node ids** so that ids
    /// remain the dense range `0..len()`. Any previously held [`NodeId`]
    /// is invalidated. The odometry of removed nodes is retained in
    /// [`Network::total_distance_moved`]. Returns the number of nodes
    /// actually removed.
    ///
    /// This is the substrate for dynamic-event scenarios (node failure,
    /// battery depletion); the LAACAD round loop itself never removes
    /// nodes.
    pub fn remove_nodes(&mut self, ids: &[NodeId]) -> usize {
        let (doomed, removing) = self.doomed_bitmap(ids);
        if removing == 0 {
            return 0;
        }
        let mut w = 0;
        for (i, &dead) in doomed.iter().enumerate() {
            if dead {
                self.retired_distance += self.distance_moved[i];
            } else {
                self.positions[w] = self.positions[i];
                self.sensing_radius[w] = self.sensing_radius[i];
                self.distance_moved[w] = self.distance_moved[i];
                w += 1;
            }
        }
        self.positions.truncate(w);
        self.sensing_radius.truncate(w);
        self.distance_moved.truncate(w);
        self.rebuild_grid();
        removing
    }

    /// Marks the distinct, in-range ids among `ids`; the count is exactly
    /// what [`Network::remove_nodes`] would remove.
    fn doomed_bitmap(&self, ids: &[NodeId]) -> (Vec<bool>, usize) {
        let n = self.positions.len();
        let mut doomed = vec![false; n];
        for id in ids {
            if id.0 < n {
                doomed[id.0] = true;
            }
        }
        let removing = doomed.iter().filter(|&&d| d).count();
        (doomed, removing)
    }

    /// Number of distinct nodes among `ids` that currently exist — the
    /// exact removal count of [`Network::remove_nodes`] on the same
    /// input, for callers that must validate survivor counts before
    /// mutating.
    pub fn count_present(&self, ids: &[NodeId]) -> usize {
        self.doomed_bitmap(ids).1
    }

    /// Ids of nodes within Euclidean distance `radius` of `q` (inclusive),
    /// including any node located exactly at `q`.
    fn nodes_within(&self, q: Point, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.grid.within_into(&self.positions, q, radius, &mut out);
        out.into_iter().map(NodeId).collect()
    }

    /// One-hop neighbors of `id`: nodes within the transmission range `γ`
    /// (the paper's `N(n_i)`), excluding the node itself.
    pub fn one_hop_neighbors(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes_within(self.positions[id.0], self.gamma)
            .into_iter()
            .filter(|&n| n != id)
            .collect()
    }

    /// Calls `f` with each one-hop neighbor of `id` (`id` excluded), in
    /// the spatial index's cell order rather than ascending — the form
    /// the adjacency rows are built from.
    pub(crate) fn for_each_one_hop(&self, id: NodeId, mut f: impl FnMut(usize)) {
        self.grid
            .for_each_within(&self.positions, self.positions[id.0], self.gamma, |i| {
                if i != id.0 {
                    f(i);
                }
            });
    }

    /// Maximum sensing range over the network — the paper's objective `R`.
    pub fn max_sensing_radius(&self) -> f64 {
        self.sensing_radius.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum sensing range over the network (reported alongside `R` in
    /// Fig. 6 to show load balance).
    pub fn min_sensing_radius(&self) -> f64 {
        self.sensing_radius
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Total distance moved by all nodes, including nodes that have since
    /// been removed (movement-energy reporting).
    pub fn total_distance_moved(&self) -> f64 {
        self.retired_distance + self.distance_moved.iter().sum::<f64>()
    }

    /// Per-node odometry, indexed by node id (snapshot serialization).
    #[inline]
    pub fn distances_moved(&self) -> &[f64] {
        &self.distance_moved
    }

    /// Odometry retired with removed nodes (snapshot serialization).
    #[inline]
    pub fn retired_distance(&self) -> f64 {
        self.retired_distance
    }

    /// Reconstructs a network from serialized struct-of-arrays state.
    /// The spatial index is rebuilt deterministically from the positions
    /// (query results do not depend on the index's cell layout, so a
    /// rebuilt index yields bit-identical behavior to the original).
    ///
    /// # Panics
    ///
    /// Panics when `gamma` is not strictly positive and finite, or when
    /// the parallel vectors disagree in length.
    pub fn from_parts(
        gamma: f64,
        positions: Vec<Point>,
        sensing_radius: Vec<f64>,
        distance_moved: Vec<f64>,
        retired_distance: f64,
    ) -> Self {
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "transmission range must be positive, got {gamma}"
        );
        assert_eq!(positions.len(), sensing_radius.len());
        assert_eq!(positions.len(), distance_moved.len());
        let grid = FlatGrid::build(&positions, gamma);
        Network {
            positions,
            sensing_radius,
            distance_moved,
            gamma,
            grid,
            retired_distance,
        }
    }
}

impl std::fmt::Display for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "network[N={}, γ={}]", self.len(), self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut net = Network::new(0.15);
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(0.1, 0.0));
        let c = net.add_node(Point::new(1.0, 1.0));
        assert_eq!(net.len(), 3);
        assert_eq!(net.one_hop_neighbors(a), vec![b]);
        assert!(net.one_hop_neighbors(c).is_empty());
        assert_eq!(net.nodes_within(Point::new(0.05, 0.0), 0.06), vec![a, b]);
    }

    #[test]
    fn movement_updates_queries() {
        let mut net = Network::new(0.15);
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(1.0, 1.0));
        assert!(net.one_hop_neighbors(a).is_empty());
        net.move_node(b, Point::new(0.1, 0.0));
        assert_eq!(net.one_hop_neighbors(a), vec![b]);
        assert!(
            (net.node(b).distance_moved() - Point::new(1.0, 1.0).distance(Point::new(0.1, 0.0)))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn radius_stats() {
        let mut net = Network::new(0.2);
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(1.0, 0.0));
        net.set_sensing_radius(a, 0.3);
        net.set_sensing_radius(b, 0.7);
        assert_eq!(net.max_sensing_radius(), 0.7);
        assert_eq!(net.min_sensing_radius(), 0.3);
        assert_eq!(net.sensing_radii(), &[0.3, 0.7]);
    }

    #[test]
    fn from_positions_builder() {
        let net = Network::from_positions(0.1, [Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        assert_eq!(net.len(), 2);
        assert_eq!(net.position(NodeId(1)), Point::new(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "transmission range")]
    fn invalid_gamma_panics() {
        let _ = Network::new(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid sensing radius")]
    fn invalid_sensing_radius_panics() {
        let mut net = Network::from_positions(0.1, [Point::ORIGIN]);
        net.set_sensing_radius(NodeId(0), f64::NAN);
    }

    #[test]
    fn remove_nodes_compacts_and_reindexes() {
        let mut net = Network::from_positions(
            0.5,
            [
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
        );
        net.move_node(NodeId(1), Point::new(1.0, 1.0)); // odometry 1.0
        net.move_node(NodeId(3), Point::new(3.0, 2.0)); // odometry 2.0
        let removed = net.remove_nodes(&[NodeId(1), NodeId(1), NodeId(99)]);
        assert_eq!(removed, 1);
        assert_eq!(net.len(), 3);
        // Survivors are reindexed densely and keep their positions.
        assert_eq!(net.position(NodeId(0)), Point::new(0.0, 0.0));
        assert_eq!(net.position(NodeId(1)), Point::new(2.0, 0.0));
        assert_eq!(net.position(NodeId(2)), Point::new(3.0, 2.0));
        for (i, node) in net.nodes().enumerate() {
            assert_eq!(node.id(), NodeId(i));
        }
        // The removed node's odometry is retained in the total.
        assert!((net.total_distance_moved() - 3.0).abs() < 1e-12);
        // Spatial queries reflect the removal.
        assert_eq!(
            net.nodes_within(Point::new(1.0, 1.0), 0.1),
            Vec::<NodeId>::new()
        );
    }

    #[test]
    fn grid_queries_match_brute_force() {
        let positions: Vec<Point> = (0..50)
            .map(|i| Point::new((i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1))
            .collect();
        let mut net = Network::from_positions(0.15, positions.iter().copied());
        for i in 0..net.len() {
            let brute: Vec<NodeId> = (0..positions.len())
                .filter(|&j| j != i && positions[j].distance(positions[i]) <= 0.15)
                .map(NodeId)
                .collect();
            assert_eq!(net.one_hop_neighbors(NodeId(i)), brute);
        }
        // Too sparse for γ-sized cells: the grid coarsens its cell and
        // still answers exactly.
        let sparse = Network::from_positions(0.1, [Point::new(0.0, 0.0), Point::new(1e3, 1e3)]);
        assert_eq!(
            sparse.nodes_within(Point::new(0.05, 0.0), 0.1),
            vec![NodeId(0)]
        );
        // A move that escapes the grid's bounding box transparently
        // rebuilds; queries stay correct.
        net.move_node(NodeId(0), Point::new(4.0, 4.0));
        assert_eq!(net.nodes_within(Point::new(4.0, 4.0), 0.1), vec![NodeId(0)]);
    }
}
