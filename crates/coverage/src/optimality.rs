//! Optimality diagnostics for converged deployments.
//!
//! For *fixed node positions*, the order-k Voronoi partition is the
//! optimal area assignment (paper Prop. 2), and under it the minimal
//! achievable maximum sensing range is
//!
//! `R_opt(positions) = max_{v ∈ A} d_k(v)`,
//!
//! the largest k-th-nearest-node distance over the area. A correct LAACAD
//! implementation must finish with `R* = R_opt` (its partition *is* the
//! order-k diagram); the gap of `R_opt` itself below any other
//! deployment's `R` measures how good the final *positions* are.

use laacad_geom::Point;
use laacad_region::Region;
use laacad_wsn::Network;

/// The k-th smallest distance from `v` to the nodes.
///
/// # Panics
///
/// Panics when `k` exceeds the node count or is zero.
fn kth_nearest_distance(net: &Network, v: Point, k: usize) -> f64 {
    let n = net.len();
    assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ N (k={k}, N={n})");
    let mut d: Vec<f64> = net.positions().iter().map(|p| p.distance(v)).collect();
    d.sort_by(f64::total_cmp);
    d[k - 1]
}

/// `max_{v ∈ A} d_k(v)` over a sample grid — the minimal maximum sensing
/// range achievable *at the current positions* with an optimal area
/// assignment (Prop. 2).
///
/// Grid-sampled, so the result is a sharp lower estimate of the true
/// maximum (holes smaller than the grid spacing are missed).
pub fn optimal_range_bound(net: &Network, region: &Region, k: usize, samples: usize) -> f64 {
    region
        .grid_points(samples)
        .iter()
        .map(|&v| kth_nearest_distance(net, v, k))
        .fold(0.0, f64::max)
}

/// Report of a fault-tolerance probe: coverage retained after killing the
/// `failures` nodes with the *largest* sensing loads (the worst case for
/// residual coverage).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultToleranceReport {
    /// Nodes removed.
    pub failures: usize,
    /// Residual coverage degree demanded.
    pub residual_k: usize,
    /// Fraction of the area still `residual_k`-covered.
    pub covered_fraction: f64,
}

impl std::fmt::Display for FaultToleranceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "after {} failures: {:.2}% still {}-covered",
            self.failures,
            100.0 * self.covered_fraction,
            self.residual_k
        )
    }
}

/// Kills the `failures` busiest nodes and measures the remaining
/// `residual_k`-coverage — the fault-tolerance argument that motivates
/// k-coverage in the paper's introduction, made quantitative.
///
/// # Panics
///
/// Panics when `failures ≥ N`.
pub fn fault_tolerance(
    net: &Network,
    region: &Region,
    failures: usize,
    residual_k: usize,
    samples: usize,
) -> FaultToleranceReport {
    let n = net.len();
    assert!(failures < n, "cannot fail {failures} of {n} nodes");
    // Rank nodes by sensing load, kill the busiest.
    let radii = net.sensing_radii();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| radii[b].total_cmp(&radii[a]));
    let dead: std::collections::HashSet<usize> = order[..failures].iter().copied().collect();
    let mut survivor = Network::from_positions(
        net.gamma(),
        net.positions()
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, &p)| p),
    );
    for (new_idx, (_, &r)) in radii
        .iter()
        .enumerate()
        .filter(|(i, _)| !dead.contains(i))
        .enumerate()
    {
        survivor.set_sensing_radius(laacad_wsn::NodeId(new_idx), r);
    }
    let report = crate::grid::evaluate_coverage(&survivor, region, residual_k, samples);
    FaultToleranceReport {
        failures,
        residual_k,
        covered_fraction: report.covered_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_wsn::NodeId;

    fn two_node_net() -> Network {
        let mut net = Network::from_positions(1.0, [Point::new(0.25, 0.5), Point::new(0.75, 0.5)]);
        net.set_sensing_radius(NodeId(0), 0.6);
        net.set_sensing_radius(NodeId(1), 0.6);
        net
    }

    #[test]
    fn kth_nearest_is_sorted_distance() {
        let net = two_node_net();
        let v = Point::new(0.0, 0.5);
        assert!((kth_nearest_distance(&net, v, 1) - 0.25).abs() < 1e-12);
        assert!((kth_nearest_distance(&net, v, 2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn optimal_bound_for_single_node_is_farthest_corner() {
        let net = Network::from_positions(1.0, [Point::new(0.5, 0.5)]);
        let region = Region::square(1.0).unwrap();
        let bound = optimal_range_bound(&net, &region, 1, 40_000);
        // Farthest point is a corner: distance √0.5 ≈ 0.7071 (grid slightly
        // underestimates).
        assert!(
            (bound - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01,
            "bound {bound}"
        );
    }

    #[test]
    fn optimal_bound_grows_with_k() {
        let net = two_node_net();
        let region = Region::square(1.0).unwrap();
        let b1 = optimal_range_bound(&net, &region, 1, 10_000);
        let b2 = optimal_range_bound(&net, &region, 2, 10_000);
        assert!(b2 > b1);
    }

    #[test]
    fn fault_tolerance_of_redundant_pair() {
        // Both disks cover everything; losing one leaves 1-coverage.
        let mut net = Network::from_positions(1.0, [Point::new(0.5, 0.5), Point::new(0.5, 0.5)]);
        net.set_sensing_radius(NodeId(0), 0.8);
        net.set_sensing_radius(NodeId(1), 0.8);
        let region = Region::square(1.0).unwrap();
        let report = fault_tolerance(&net, &region, 1, 1, 2000);
        assert!((report.covered_fraction - 1.0).abs() < 1e-12, "{report}");
        // Demanding residual 2-coverage after one failure must fail badly.
        let report2 = fault_tolerance(&net, &region, 1, 2, 2000);
        assert_eq!(report2.covered_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot fail")]
    fn failing_everyone_panics() {
        let net = two_node_net();
        let region = Region::square(1.0).unwrap();
        let _ = fault_tolerance(&net, &region, 2, 1, 100);
    }
}
