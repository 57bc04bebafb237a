//! Circles and disks.

use crate::point::{Point, Vector};
use crate::segment::Segment;
use crate::EPS;

/// A circle (or closed disk — containment is closed) with center and radius.
///
/// Models the omnidirectional sensing disk of a node with sensing range
/// `r_i` (paper Sec. III-A) and the searching rings of Algorithm 2.
///
/// # Example
///
/// ```
/// use laacad_geom::{Circle, Point};
/// let c = Circle::new(Point::new(0.0, 0.0), 2.0);
/// assert!(c.contains(Point::new(1.0, 1.0)));
/// assert!(!c.contains(Point::new(2.0, 2.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius (non-negative; enforced by `new`).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is negative or not finite (callers construct
    /// radii from distances, which are always valid).
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        Circle { center, radius }
    }

    /// The degenerate zero-radius circle at `p`.
    #[inline]
    pub fn point(p: Point) -> Self {
        Circle {
            center: p,
            radius: 0.0,
        }
    }

    /// Smallest circle through two points (diameter circle).
    pub fn from_diameter(a: Point, b: Point) -> Self {
        Circle {
            center: a.midpoint(b),
            radius: 0.5 * a.distance(b),
        }
    }

    /// Circumcircle of three points, or `None` when they are collinear.
    pub fn circumscribing(a: Point, b: Point, c: Point) -> Option<Self> {
        let d = 2.0 * ((b - a).cross(c - a));
        if d.abs() <= EPS * (1.0 + (b - a).norm() * (c - a).norm()) {
            return None;
        }
        let asq = a.to_vector().norm_sq();
        let bsq = b.to_vector().norm_sq();
        let csq = c.to_vector().norm_sq();
        let ux = (asq * (b.y - c.y) + bsq * (c.y - a.y) + csq * (a.y - b.y)) / d;
        let uy = (asq * (c.x - b.x) + bsq * (a.x - c.x) + csq * (b.x - a.x)) / d;
        let center = Point::new(ux, uy);
        Some(Circle {
            center,
            radius: center.distance(a),
        })
    }

    /// Closed containment with relative tolerance.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius + EPS * (1.0 + self.radius)
    }

    /// Disk area `π r²` — also the paper's sensing-energy model `E(r)`.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Point on the circle at angle `theta`.
    #[inline]
    pub fn point_at(&self, theta: f64) -> Point {
        self.center + Vector::from_angle(theta) * self.radius
    }

    /// Appends the intersection angles (on `self`) of `self`'s circle
    /// with the segment to `out`: 0–2 angles in `[0, 2π)`, the parameters
    /// of the crossing points. Used to clip ring-check circles against
    /// region boundaries. Nothing is cleared; the tangent-case
    /// deduplication only considers this segment's own crossings.
    pub fn intersect_segment_angles_into(&self, seg: &Segment, out: &mut Vec<f64>) {
        let d = seg.direction();
        let f = seg.a - self.center;
        let a = d.norm_sq();
        if a <= EPS * EPS {
            return;
        }
        let b = 2.0 * f.dot(d);
        let c = f.norm_sq() - self.radius * self.radius;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return;
        }
        let sq = disc.sqrt();
        let base = out.len();
        for t in [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)] {
            if (-1e-12..=1.0 + 1e-12).contains(&t) {
                let p = seg.point_at(t.clamp(0.0, 1.0));
                let theta = crate::angle::normalize_angle((p - self.center).angle());
                // Deduplicate the tangent case.
                if !out[base..]
                    .iter()
                    .any(|&o: &f64| crate::angle::angular_distance(o, theta) < 1e-12)
                {
                    out.push(theta);
                }
            }
        }
    }
}

impl std::fmt::Display for Circle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "circle(center {}, r {})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diameter_circle_contains_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let c = Circle::from_diameter(a, b);
        assert_eq!(c.center, Point::new(2.0, 0.0));
        assert_eq!(c.radius, 2.0);
        assert!(c.contains(a) && c.contains(b));
    }

    #[test]
    fn circumcircle_of_right_triangle() {
        let c = Circle::circumscribing(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
        )
        .unwrap();
        // Hypotenuse midpoint is the circumcenter.
        assert!(c.center.approx_eq(Point::new(1.0, 1.0), 1e-9));
        assert!((c.radius - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn collinear_points_have_no_circumcircle() {
        assert!(Circle::circumscribing(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0)
        )
        .is_none());
    }

    #[test]
    fn zero_radius_circle_contains_only_its_center() {
        let c = Circle::point(Point::new(1.0, 1.0));
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!(!c.contains(Point::new(1.1, 1.0)));
        assert_eq!(c.area(), 0.0);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn negative_radius_panics() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn segment_intersection_angles() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        // Horizontal chord through the center: crossings at 0 and π.
        let seg = Segment::new(Point::new(-2.0, 0.0), Point::new(2.0, 0.0));
        let mut angles = Vec::new();
        c.intersect_segment_angles_into(&seg, &mut angles);
        angles.sort_by(f64::total_cmp);
        assert_eq!(angles.len(), 2);
        assert!(angles[0].abs() < 1e-9);
        assert!((angles[1] - std::f64::consts::PI).abs() < 1e-9);
        // Segment that stops short of the circle: no crossings.
        let short = Segment::new(Point::new(-0.5, 0.0), Point::new(0.5, 0.0));
        let mut angles = Vec::new();
        c.intersect_segment_angles_into(&short, &mut angles);
        assert!(angles.is_empty());
    }

    #[test]
    fn point_at_is_on_circle() {
        let c = Circle::new(Point::new(2.0, -1.0), 3.0);
        for i in 0..8 {
            let p = c.point_at(i as f64);
            assert!((p.distance(c.center) - 3.0).abs() < 1e-9);
        }
    }
}
