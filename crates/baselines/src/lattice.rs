//! Regular lattice deployments.

use laacad_geom::Point;
use laacad_region::Region;

/// Triangular-lattice deployment with the given side length, clipped to
/// the region — the canonical minimum-node 1-coverage layout (side `√3·r`
/// covers with range `r`), and the regular deployment Fig. 2 assumes.
///
/// # Panics
///
/// Panics for non-positive side lengths.
pub fn triangular_lattice(region: &Region, side: f64) -> Vec<Point> {
    assert!(side > 0.0, "lattice side must be positive");
    let bb = region.bounding_box();
    let row_height = side * 3.0f64.sqrt() / 2.0;
    let mut out = Vec::new();
    let ny = (bb.height() / row_height).ceil() as usize + 1;
    let nx = (bb.width() / side).ceil() as usize + 2;
    for iy in 0..ny {
        let offset = if iy % 2 == 0 { 0.0 } else { side / 2.0 };
        for ix in 0..nx {
            let p = Point::new(
                bb.min().x + offset + ix as f64 * side - side / 2.0,
                bb.min().y + iy as f64 * row_height,
            );
            if region.contains(p) {
                out.push(p);
            }
        }
    }
    out
}

/// The node of `points` closest to the centroid of the region's bounding
/// box — Fig. 2 examines the "central node" of a lattice.
pub fn central_node(points: &[Point], region: &Region) -> Option<usize> {
    let c = region.bounding_box().center();
    points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.distance_sq(c).total_cmp(&b.1.distance_sq(c)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_lattice_has_hexagonal_neighborhoods() {
        let r = Region::square(2.0).unwrap();
        let side = 0.2;
        let pts = triangular_lattice(&r, side);
        // An interior node must have exactly 6 neighbors at distance ≈ side.
        let c = central_node(&pts, &r).unwrap();
        let near: Vec<&Point> = pts
            .iter()
            .filter(|p| {
                let d = p.distance(pts[c]);
                d > 1e-9 && d < side * 1.1
            })
            .collect();
        assert_eq!(near.len(), 6, "central node must have 6 lattice neighbors");
    }

    #[test]
    fn lattice_density_matches_theory() {
        // Triangular lattice with side s has one node per s²·√3/2 area.
        let r = Region::square(10.0).unwrap();
        let side = 0.5;
        let pts = triangular_lattice(&r, side);
        let expected = 100.0 / (side * side * 3.0f64.sqrt() / 2.0);
        let err = (pts.len() as f64 - expected).abs() / expected;
        assert!(err < 0.1, "count {} vs expected {expected}", pts.len());
    }

    #[test]
    fn coverage_with_sqrt3_rule() {
        // Side √3·r triangular lattice 1-covers the region with range r.
        use laacad_coverage::evaluate_coverage;
        use laacad_wsn::Network;
        let region = Region::square(2.0).unwrap();
        let r_sense = 0.3;
        let pts = triangular_lattice(&region, 3.0f64.sqrt() * r_sense);
        let mut net = Network::from_positions(1.0, pts.iter().copied());
        for id in net.ids().collect::<Vec<_>>() {
            net.set_sensing_radius(id, r_sense);
        }
        let report = evaluate_coverage(&net, &region, 1, 4000);
        // Boundary rows clip (the same boundary effect Table I of the
        // paper discusses); interior must be covered.
        assert!(report.covered_fraction > 0.95, "{report}");
    }

    #[test]
    fn holes_are_respected() {
        let outer =
            laacad_geom::Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap();
        let hole =
            laacad_geom::Polygon::rectangle(Point::new(1.0, 1.0), Point::new(3.0, 3.0)).unwrap();
        let region = Region::with_holes(outer, vec![hole]).unwrap();
        let pts = triangular_lattice(&region, 0.5);
        assert!(!pts
            .iter()
            .any(|p| p.x > 1.01 && p.x < 2.99 && p.y > 1.01 && p.y < 2.99));
    }
}
