//! Sensor nodes.

use laacad_geom::Point;

/// Identifier of a sensor node within its [`crate::Network`].
///
/// A newtype over the node's index — stable for the lifetime of the
/// network (nodes are never removed from the middle; the min-node
/// adaptation of Sec. IV-C rebuilds networks instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// A mobile sensor node: position `u_i`, tunable sensing range `r_i`, and
/// cumulative movement odometry (movement energy is a "one-time
/// investment" in the paper's model, but we account for it anyway so the
/// trade-off can be reported).
///
/// Inside a [`crate::Network`] the per-node fields live in parallel
/// struct-of-arrays vectors; `SensorNode` is the by-value **view** the
/// API hands out ([`crate::Network::node`] / [`crate::Network::nodes`]).
/// It is `Copy` — a snapshot, not a handle: mutating a view does not
/// write back into the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorNode {
    id: NodeId,
    position: Point,
    sensing_radius: f64,
    distance_moved: f64,
}

impl SensorNode {
    /// Creates a node at `position` with a zero sensing range.
    pub fn new(id: NodeId, position: Point) -> Self {
        SensorNode {
            id,
            position,
            sensing_radius: 0.0,
            distance_moved: 0.0,
        }
    }

    /// The node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current location `u_i`.
    #[inline]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Current sensing range `r_i`.
    #[inline]
    pub fn sensing_radius(&self) -> f64 {
        self.sensing_radius
    }

    /// Total distance travelled so far.
    #[inline]
    pub fn distance_moved(&self) -> f64 {
        self.distance_moved
    }

    /// Assembles a view over a network's struct-of-arrays fields.
    pub(crate) fn view(
        id: NodeId,
        position: Point,
        sensing_radius: f64,
        distance_moved: f64,
    ) -> Self {
        SensorNode {
            id,
            position,
            sensing_radius,
            distance_moved,
        }
    }

    /// Sets the sensing range.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite ranges.
    pub fn set_sensing_radius(&mut self, r: f64) {
        assert!(r.is_finite() && r >= 0.0, "invalid sensing radius {r}");
        self.sensing_radius = r;
    }

    /// Returns `true` when the node's sensing disk covers `v`
    /// (the paper's indicator `f(v, u_i, r_i)`, Eq. 1).
    pub fn covers(&self, v: Point) -> bool {
        self.position.distance_sq(v) <= self.sensing_radius * self.sensing_radius + 1e-12
    }
}

impl std::fmt::Display for SensorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{} r={:.4}",
            self.id, self.position, self.sensing_radius
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_indicator() {
        let mut n = SensorNode::new(NodeId(1), Point::new(0.0, 0.0));
        n.set_sensing_radius(1.0);
        assert!(n.covers(Point::new(0.5, 0.5)));
        assert!(n.covers(Point::new(1.0, 0.0))); // boundary
        assert!(!n.covers(Point::new(1.1, 0.0)));
    }

    #[test]
    #[should_panic(expected = "invalid sensing radius")]
    fn negative_radius_rejected() {
        let mut n = SensorNode::new(NodeId(0), Point::ORIGIN);
        n.set_sensing_radius(-1.0);
    }

    #[test]
    fn node_id_display_and_conversion() {
        let id: NodeId = 7usize.into();
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
    }
}
