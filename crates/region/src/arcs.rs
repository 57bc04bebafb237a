//! Circle ∩ region angular clipping.
//!
//! Fig. 3 of the paper: a boundary node running the Algorithm 2 ring check
//! must only verify the half-radius arc *within the target area* — the arc
//! outside `A` would never become dominated and the ring would expand
//! forever. This module computes exactly which arcs of a circle lie inside
//! a [`Region`].

use crate::Region;
use laacad_geom::angle::normalize_angle;
use laacad_geom::{Arc, Circle, Point, Vector};
use std::f64::consts::TAU;

/// Returns the arcs of `circle` whose points lie inside `region`.
///
/// The result is a set of disjoint CCW arcs; a circle fully inside yields
/// one full-circle arc, a circle fully outside yields an empty vector.
///
/// # Example
///
/// ```
/// use laacad_geom::{Circle, Point};
/// use laacad_region::{arcs::arcs_inside_region, Region};
/// let region = Region::square(10.0).unwrap();
/// // Circle centered on the left boundary: only its right half is inside.
/// let c = Circle::new(Point::new(0.0, 5.0), 1.0);
/// let arcs = arcs_inside_region(&c, &region);
/// let total: f64 = arcs.iter().map(|a| a.span()).sum();
/// assert!((total - std::f64::consts::PI).abs() < 1e-6);
/// ```
pub fn arcs_inside_region(circle: &Circle, region: &Region) -> Vec<Arc> {
    let mut out = Vec::new();
    arcs_inside_region_into(circle, region, &mut Vec::new(), &mut out);
    out
}

/// [`arcs_inside_region`] into caller-owned buffers: the result lands in
/// `out` (cleared first) with `cuts` as crossing-angle scratch — the
/// allocation-free form the ring-domination hot path uses. Results are
/// identical to the allocating form.
pub fn arcs_inside_region_into(
    circle: &Circle,
    region: &Region,
    cuts: &mut Vec<f64>,
    out: &mut Vec<Arc>,
) {
    out.clear();
    if circle.radius <= 0.0 {
        if region.contains(circle.center) {
            out.push(Arc::full());
        }
        return;
    }
    // Fast path: bounding-box disjointness.
    let bb = region.bounding_box().inflated(circle.radius);
    if !bb.contains(circle.center) {
        return;
    }

    // Collect crossing angles against every boundary edge (outer + holes).
    cuts.clear();
    for e in region.outer().edges() {
        circle.intersect_segment_angles_into(&e, cuts);
    }
    for h in region.holes() {
        for e in h.edges() {
            circle.intersect_segment_angles_into(&e, cuts);
        }
    }

    if cuts.is_empty() {
        // No boundary crossing: all-in or all-out, decided by any point.
        if region.contains(angle_zero_point(circle)) {
            out.push(Arc::full());
        }
        return;
    }

    cuts.sort_unstable_by(f64::total_cmp);
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let n = cuts.len();
    for i in 0..n {
        let a = cuts[i];
        let b = if i + 1 < n {
            cuts[i + 1]
        } else {
            cuts[0] + TAU
        };
        let span = b - a;
        if span <= 1e-12 {
            continue;
        }
        let mid = normalize_angle(a + 0.5 * span);
        if region.contains(circle.point_at(mid)) {
            out.push(Arc::new(a, span));
        }
    }
    merge_adjacent_in_place(out);
}

/// `circle.point_at(0.0)` without the trig calls: the direction
/// `(cos 0, sin 0)` is exactly `(1, 0)`.
#[inline]
fn angle_zero_point(circle: &Circle) -> Point {
    circle.center + Vector::new(1.0, 0.0) * circle.radius
}

/// Merges arcs that touch end-to-start (within tolerance) into single
/// arcs, in place (no allocation).
fn merge_adjacent_in_place(arcs: &mut Vec<Arc>) {
    if arcs.len() <= 1 {
        return;
    }
    arcs.sort_by(|x, y| x.start().total_cmp(&y.start()));
    let mut w = 0; // arcs[..w] is the merged prefix
    for i in 0..arcs.len() {
        let a = arcs[i];
        if w > 0 {
            let last = arcs[w - 1];
            let gap = normalize_angle(a.start() - last.start()) - last.span();
            if gap.abs() < 1e-9 {
                let combined = (last.span() + a.span()).min(TAU);
                arcs[w - 1] = Arc::new(last.start(), combined);
                continue;
            }
        }
        arcs[w] = a;
        w += 1;
    }
    arcs.truncate(w);
    // Wrap-around merge: last arc ending at first arc's start.
    if arcs.len() >= 2 {
        let first = arcs[0];
        let last = *arcs.last().expect("len >= 2");
        let gap = normalize_angle(first.start() - last.start()) - last.span();
        if gap.abs() < 1e-9 {
            let combined = (last.span() + first.span()).min(TAU);
            arcs[0] = Arc::new(last.start(), combined);
            arcs.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Polygon;
    use std::f64::consts::PI;

    /// Total angular measure (radians) of a set of disjoint arcs.
    fn total_span(arcs: &[Arc]) -> f64 {
        arcs.iter().map(|a| a.span()).sum()
    }

    #[test]
    fn the_angle_zero_direction_is_exact() {
        for c in [
            Circle::new(Point::new(0.3, -0.0), 0.7),
            Circle::new(Point::new(-2.5, 1e-300), 1e-9),
            Circle::new(Point::new(1e6, -7.25), 0.0),
        ] {
            let p = c.point_at(0.0);
            let q = angle_zero_point(&c);
            assert_eq!(
                (p.x.to_bits(), p.y.to_bits()),
                (q.x.to_bits(), q.y.to_bits())
            );
        }
    }

    #[test]
    fn interior_circle_is_full() {
        let r = Region::square(10.0).unwrap();
        let arcs = arcs_inside_region(&Circle::new(Point::new(5.0, 5.0), 1.0), &r);
        assert_eq!(arcs.len(), 1);
        assert!((total_span(&arcs) - TAU).abs() < 1e-12);
    }

    #[test]
    fn exterior_circle_is_empty() {
        let r = Region::square(10.0).unwrap();
        let arcs = arcs_inside_region(&Circle::new(Point::new(50.0, 50.0), 1.0), &r);
        assert!(arcs.is_empty());
    }

    #[test]
    fn corner_circle_keeps_a_quarter() {
        let r = Region::square(10.0).unwrap();
        let arcs = arcs_inside_region(&Circle::new(Point::new(0.0, 0.0), 1.0), &r);
        assert!((total_span(&arcs) - PI / 2.0).abs() < 1e-6);
        // The quarter arc is the first quadrant.
        assert!(arcs.iter().any(|a| a.contains(PI / 4.0)));
        assert!(!arcs.iter().any(|a| a.contains(PI)));
    }

    #[test]
    fn circle_over_hole_excludes_hole_arcs() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let hole = Polygon::rectangle(Point::new(4.0, 4.0), Point::new(6.0, 6.0)).unwrap();
        let r = Region::with_holes(outer, vec![hole]).unwrap();
        // Radius between the hole's edge distance (1.0) and its corner
        // distance (√2): the circle crosses each hole edge twice.
        let c = Circle::new(Point::new(5.0, 5.0), 1.2);
        let arcs = arcs_inside_region(&c, &r);
        let span = total_span(&arcs);
        assert!(span > 0.0 && span < TAU, "span {span}");
        // Axis directions (e.g. (6.2, 5)) sit inside the hole → excluded;
        // diagonal directions (5±0.85, 5±0.85) are free. Verify exactly:
        for i in 0..720 {
            let th = (i as f64 + 0.5) / 720.0 * TAU;
            let inside = r.contains(c.point_at(th));
            let in_arcs = arcs.iter().any(|a| a.contains(th));
            assert_eq!(inside, in_arcs, "θ={th}");
        }
    }

    #[test]
    fn brute_force_agreement_on_boundary_circle() {
        let r = Region::square(10.0).unwrap();
        for (cx, cy, rad) in [
            (0.0, 5.0, 2.0),
            (10.0, 10.0, 3.0),
            (5.0, 0.0, 1.0),
            (9.5, 5.0, 1.0),
        ] {
            let c = Circle::new(Point::new(cx, cy), rad);
            let arcs = arcs_inside_region(&c, &r);
            for i in 0..720 {
                let th = (i as f64 + 0.5) / 720.0 * TAU;
                let inside = r.contains(c.point_at(th));
                let in_arcs = arcs.iter().any(|a| a.contains(th));
                assert_eq!(inside, in_arcs, "center ({cx},{cy}) r {rad} θ={th}");
            }
        }
    }

    #[test]
    fn zero_radius_circle_degenerates_to_point_test() {
        let r = Region::square(10.0).unwrap();
        assert_eq!(
            arcs_inside_region(&Circle::point(Point::new(5.0, 5.0)), &r).len(),
            1
        );
        assert!(arcs_inside_region(&Circle::point(Point::new(50.0, 5.0)), &r).is_empty());
    }
}
