//! Motion execution with step-size damping and free-space projection.
//!
//! Algorithm 1 line 5: `u_i ← u_i + α(c_i − u_i)` with step size
//! `α ∈ (0, 1]` "to avoid oscillation". When the target area has
//! obstacles, a raw step may land inside one; the executor projects the
//! landing point back into free space (the paper leaves this case open;
//! projecting is this implementation's choice).

use crate::network::Network;
use crate::node::NodeId;
use laacad_region::Region;

/// Outcome of one motion step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Distance actually travelled.
    pub moved: f64,
    /// Distance between the pre-step position and the raw target
    /// (`‖c_i − u_i‖`) — Algorithm 1's termination quantity.
    pub target_distance: f64,
    /// Whether the landing point had to be projected into free space.
    pub projected: bool,
}

/// Moves `id` one damped step toward `target`.
///
/// # Panics
///
/// Panics when `alpha` is outside `(0, 1]` (the paper's convergence proof
/// covers exactly that range, Prop. 4).
pub fn step_toward(
    net: &mut Network,
    id: NodeId,
    target: laacad_geom::Point,
    alpha: f64,
    area: Option<&Region>,
) -> StepOutcome {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "step size α must lie in (0, 1], got {alpha}"
    );
    let u = net.position(id);
    let target_distance = u.distance(target);
    let raw = u.lerp(target, alpha);
    let (landing, projected) = match area {
        Some(region) if !region.contains(raw) => (region.project(raw), true),
        _ => (raw, false),
    };
    net.move_node(id, landing);
    StepOutcome {
        moved: u.distance(landing),
        target_distance,
        projected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::{Point, Polygon};

    #[test]
    fn full_step_reaches_target() {
        let mut net = Network::from_positions(0.1, [Point::new(0.0, 0.0)]);
        let out = step_toward(&mut net, NodeId(0), Point::new(1.0, 0.0), 1.0, None);
        assert_eq!(net.position(NodeId(0)), Point::new(1.0, 0.0));
        assert!((out.moved - 1.0).abs() < 1e-12);
        assert!((out.target_distance - 1.0).abs() < 1e-12);
        assert!(!out.projected);
    }

    #[test]
    fn damped_step_moves_fractionally() {
        let mut net = Network::from_positions(0.1, [Point::new(0.0, 0.0)]);
        step_toward(&mut net, NodeId(0), Point::new(1.0, 0.0), 0.25, None);
        assert!(net
            .position(NodeId(0))
            .approx_eq(Point::new(0.25, 0.0), 1e-12));
    }

    #[test]
    fn obstacle_landing_is_projected() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let hole = Polygon::rectangle(Point::new(4.0, 4.0), Point::new(6.0, 6.0)).unwrap();
        let region = Region::with_holes(outer, vec![hole]).unwrap();
        let mut net = Network::from_positions(0.1, [Point::new(3.0, 5.0)]);
        // Full step toward the obstacle's center lands inside → projected.
        let out = step_toward(
            &mut net,
            NodeId(0),
            Point::new(5.0, 5.0),
            1.0,
            Some(&region),
        );
        assert!(out.projected);
        let p = net.position(NodeId(0));
        assert!(region.contains(p));
        // The landing point sits on the hole boundary, one unit from the
        // hole center (which edge wins the tie is an implementation detail).
        assert!(
            (p.distance(Point::new(5.0, 5.0)) - 1.0).abs() < 1e-6,
            "landed at {p}"
        );
    }

    #[test]
    #[should_panic(expected = "step size")]
    fn invalid_alpha_panics() {
        let mut net = Network::from_positions(0.1, [Point::new(0.0, 0.0)]);
        let _ = step_toward(&mut net, NodeId(0), Point::new(1.0, 0.0), 1.5, None);
    }
}
