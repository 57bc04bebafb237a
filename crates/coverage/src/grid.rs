//! Grid-sampled k-coverage verification.

use laacad_geom::Point;
use laacad_region::Region;
use laacad_wsn::Network;

/// Result of a coverage evaluation over a sample grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Coverage degree requested (`k`).
    pub k: usize,
    /// Number of grid samples inside the region.
    pub samples: usize,
    /// Fraction of samples covered by at least `k` sensors.
    pub covered_fraction: f64,
    /// Minimum coverage degree over all samples.
    pub min_degree: usize,
    /// Mean coverage degree over all samples.
    pub mean_degree: f64,
    /// Sample points with coverage degree < `k` (the coverage holes),
    /// capped at 64 entries for reporting.
    pub holes: Vec<Point>,
}

impl CoverageReport {
    /// `true` when every sample met the requested degree.
    pub fn is_k_covered(&self) -> bool {
        self.covered_fraction >= 1.0
    }
}

impl std::fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-coverage: {:.2}% of {} samples (min degree {}, mean {:.2})",
            self.k,
            100.0 * self.covered_fraction,
            self.samples,
            self.min_degree,
            self.mean_degree
        )
    }
}

/// Evaluates k-coverage of `net` over `region` with roughly
/// `target_samples` grid points.
///
/// Grid sampling can miss holes smaller than the grid spacing; the
/// experiments use ≥ 10⁴ samples, giving sub-centimetre resolution at the
/// paper's scales.
pub fn evaluate_coverage(
    net: &Network,
    region: &Region,
    k: usize,
    target_samples: usize,
) -> CoverageReport {
    let samples = region.grid_points(target_samples);
    let mut covered = 0usize;
    let mut min_degree = usize::MAX;
    let mut total_degree = 0usize;
    let mut holes = Vec::new();
    for &p in &samples {
        let degree = net.nodes().filter(|n| n.covers(p)).count();
        min_degree = min_degree.min(degree);
        total_degree += degree;
        if degree >= k {
            covered += 1;
        } else if holes.len() < 64 {
            holes.push(p);
        }
    }
    let n = samples.len().max(1);
    CoverageReport {
        k,
        samples: samples.len(),
        covered_fraction: covered as f64 / n as f64,
        min_degree: if samples.is_empty() { 0 } else { min_degree },
        mean_degree: total_degree as f64 / n as f64,
        holes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_wsn::NodeId;

    fn single_node_net(r: f64) -> Network {
        let mut net = Network::from_positions(1.0, [Point::new(0.5, 0.5)]);
        net.set_sensing_radius(NodeId(0), r);
        net
    }

    #[test]
    fn giant_disk_covers_everything() {
        let region = Region::square(1.0).unwrap();
        let net = single_node_net(1.0); // reaches every corner (√0.5 ≈ 0.707)
        let rep = evaluate_coverage(&net, &region, 1, 1000);
        assert!(rep.is_k_covered(), "{rep}");
        assert_eq!(rep.min_degree, 1);
        assert!(rep.holes.is_empty());
    }

    #[test]
    fn small_disk_leaves_holes() {
        let region = Region::square(1.0).unwrap();
        let net = single_node_net(0.3);
        let rep = evaluate_coverage(&net, &region, 1, 1000);
        assert!(!rep.is_k_covered());
        assert!(rep.covered_fraction > 0.0);
        assert!(!rep.holes.is_empty());
        // Hole fraction ≈ 1 − π·0.09 (disk fully inside the unit square).
        let expect = std::f64::consts::PI * 0.09;
        assert!((rep.covered_fraction - expect).abs() < 0.05);
    }

    #[test]
    fn k2_needs_two_disks() {
        let region = Region::square(1.0).unwrap();
        let mut net = Network::from_positions(1.0, [Point::new(0.5, 0.5), Point::new(0.5, 0.5)]);
        net.set_sensing_radius(NodeId(0), 0.8);
        let rep1 = evaluate_coverage(&net, &region, 2, 500);
        assert!(!rep1.is_k_covered(), "only one active disk");
        net.set_sensing_radius(NodeId(1), 0.8);
        let rep2 = evaluate_coverage(&net, &region, 2, 500);
        assert!(rep2.is_k_covered(), "{rep2}");
        assert_eq!(rep2.min_degree, 2);
    }

    #[test]
    fn holes_in_region_are_not_sampled() {
        let outer =
            laacad_geom::Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let hole =
            laacad_geom::Polygon::rectangle(Point::new(0.4, 0.4), Point::new(0.6, 0.6)).unwrap();
        let region = Region::with_holes(outer, vec![hole]).unwrap();
        // A disk covering everything *except* the area over the obstacle
        // still k-covers the region (the obstacle needs no coverage).
        let net = single_node_net(1.0);
        let rep = evaluate_coverage(&net, &region, 1, 2000);
        assert!(rep.is_k_covered());
    }
}
