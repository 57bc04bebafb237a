//! The sensor network container.

use crate::flat::FlatGrid;
use crate::node::{NodeId, SensorNode};
use laacad_geom::Point;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// Every position write advances a **write clock** and stamps the
/// written nodes with its new value ([`Network::write_clock`],
/// [`Network::written_at`]): a node whose stamp is at most a clock value
/// read earlier has kept its position since that read. Together with the
/// network's [`Network::instance`] identity this lets a consumer cache
/// per-node results keyed by node ids instead of copied coordinates.
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
    /// Advanced once by every call that writes positions.
    clock: u64,
    /// Per node, the clock value of its latest position write.
    written: Vec<u64>,
    instance: Instance,
}

/// The identity of one network value: fresh at construction and on every
/// clone, so two networks never share one even when their clocks agree.
#[derive(Debug, PartialEq, Eq)]
struct Instance(u64);

impl Instance {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Instance(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance::fresh()
    }
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
            clock: 0,
            written: Vec::new(),
            instance: Instance::fresh(),
        }
    }

    /// Creates a network from initial node positions (one write of every
    /// node: the clock reads 1 and so does every stamp).
    pub fn from_positions(gamma: f64, positions: impl IntoIterator<Item = Point>) -> Self {
        let positions: Vec<Point> = positions.into_iter().collect();
        let n = positions.len();
        Network::from_parts(gamma, positions, vec![0.0; n], vec![0.0; n], 0.0)
    }

    /// The write clock: the number of position-writing calls since the
    /// network was built or cloned, construction counting as one.
    #[inline]
    pub fn write_clock(&self) -> u64 {
        self.clock
    }

    /// The write-clock value of `id`'s latest position write. Every node
    /// whose id a removal changed counts as written by that removal.
    #[inline]
    pub fn written_at(&self, id: NodeId) -> u64 {
        self.written[id.0]
    }

    /// This network value's identity, unique in the process: a clone or
    /// a rebuilt network gets a new one, so write-clock readings are only
    /// comparable between equal identities.
    #[inline]
    pub fn instance(&self) -> u64 {
        self.instance.0
    }

    /// Advances the write clock, returning the stamp of this write.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
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
        let stamp = self.tick();
        self.positions.push(position);
        self.sensing_radius.push(0.0);
        self.distance_moved.push(0.0);
        self.written.push(stamp);
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
        self.written[id.0] = self.tick();
        if !self.grid.relocate(id.0, old, target) {
            self.rebuild_grid();
        }
    }

    /// Moves a batch of nodes at once, maintaining odometry and feeding
    /// the spatial index one move-delta batch ([`FlatGrid::apply_moves`])
    /// instead of per-node calls. Positions, odometry and queries are
    /// identical to calling [`Network::move_node`] per entry; the write
    /// clock advances once for the whole batch.
    pub fn apply_displacements(&mut self, moves: &[(NodeId, Point)]) {
        let stamp = self.tick();
        let positions = &mut self.positions;
        let distance_moved = &mut self.distance_moved;
        let written = &mut self.written;
        let ok = self.grid.apply_moves(moves.iter().map(|&(id, target)| {
            let old = positions[id.0];
            distance_moved[id.0] += old.distance(target);
            positions[id.0] = target;
            written[id.0] = stamp;
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
    /// trip leaves [`Network::total_distance_moved`] untouched. Both
    /// writes of the round trip advance the write clock.
    pub fn override_position(&mut self, id: NodeId, target: Point) -> Point {
        let old = self.positions[id.0];
        self.positions[id.0] = target;
        self.written[id.0] = self.tick();
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
        // A survivor that changes id takes a new position at its new id.
        let stamp = self.tick();
        let mut w = 0;
        for (i, &dead) in doomed.iter().enumerate() {
            if dead {
                self.retired_distance += self.distance_moved[i];
            } else {
                if w != i {
                    self.positions[w] = self.positions[i];
                    self.sensing_radius[w] = self.sensing_radius[i];
                    self.distance_moved[w] = self.distance_moved[i];
                    self.written[w] = stamp;
                }
                w += 1;
            }
        }
        self.positions.truncate(w);
        self.sensing_radius.truncate(w);
        self.distance_moved.truncate(w);
        self.written.truncate(w);
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
    /// The write clock starts at 1 with every node stamped 1.
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
        let written = vec![1; positions.len()];
        Network {
            positions,
            sensing_radius,
            distance_moved,
            gamma,
            grid,
            retired_distance,
            clock: 1,
            written,
            instance: Instance::fresh(),
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

    /// The nodes of `net` stamped with the current write clock.
    fn stamped_now(net: &Network) -> Vec<usize> {
        (0..net.len())
            .filter(|&i| net.written_at(NodeId(i)) == net.write_clock())
            .collect()
    }

    fn line(n: usize) -> Network {
        Network::from_positions(0.5, (0..n).map(|i| Point::new(i as f64, 0.0)))
    }

    #[test]
    fn from_parts_stamps_every_node_once() {
        assert_eq!(Network::new(0.5).write_clock(), 0);
        let net = Network::from_parts(
            0.5,
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![0.0; 2],
            vec![0.0; 2],
            0.0,
        );
        assert_eq!(net.write_clock(), 1);
        assert_eq!(stamped_now(&net), vec![0, 1]);
        // A clone or a rebuilt network is a different instance.
        assert_ne!(net.clone().instance(), net.instance());
        assert_ne!(line(2).instance(), net.instance());
    }

    #[test]
    fn move_node_stamps_the_moved_node() {
        let mut net = line(3);
        let before = net.write_clock();
        net.move_node(NodeId(1), Point::new(1.0, 1.0));
        assert_eq!(net.write_clock(), before + 1);
        assert_eq!(stamped_now(&net), vec![1]);
    }

    #[test]
    fn apply_displacements_stamps_the_batch_once() {
        let mut net = line(4);
        let before = net.write_clock();
        net.apply_displacements(&[
            (NodeId(0), Point::new(0.0, 1.0)),
            (NodeId(2), Point::new(2.0, 1.0)),
        ]);
        assert_eq!(net.write_clock(), before + 1);
        assert_eq!(stamped_now(&net), vec![0, 2]);
    }

    #[test]
    fn override_round_trip_stamps_both_writes() {
        let mut net = line(3);
        let before = net.write_clock();
        let truth = net.override_position(NodeId(2), Point::new(5.0, 5.0));
        assert_eq!(net.write_clock(), before + 1);
        assert_eq!(stamped_now(&net), vec![2]);
        net.override_position(NodeId(2), truth);
        // Back at the same bits, yet written since `before`.
        assert_eq!(net.position(NodeId(2)), truth);
        assert_eq!(net.write_clock(), before + 2);
        assert_eq!(stamped_now(&net), vec![2]);
    }

    #[test]
    fn add_node_stamps_the_new_node() {
        let mut net = line(2);
        let before = net.write_clock();
        let id = net.add_node(Point::new(9.0, 9.0));
        assert_eq!(net.write_clock(), before + 1);
        assert_eq!(stamped_now(&net), vec![id.index()]);
    }

    #[test]
    fn remove_nodes_stamps_every_node_whose_id_changes() {
        let mut net = line(5);
        let before = net.write_clock();
        net.remove_nodes(&[NodeId(1), NodeId(3)]);
        assert_eq!(net.write_clock(), before + 1);
        // Old 2 and old 4 are now 1 and 2; node 0 kept its id.
        assert_eq!(stamped_now(&net), vec![1, 2]);
        assert_eq!(net.written_at(NodeId(0)), before);
        // Removing nothing writes nothing.
        net.remove_nodes(&[NodeId(7)]);
        assert_eq!(net.write_clock(), before + 1);
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
