//! Line segments.

use crate::line::Line;
use crate::point::{Point, Vector};
use crate::predicates::{orient2d, Orientation};
use crate::EPS;

/// A directed line segment from `a` to `b`.
///
/// # Example
///
/// ```
/// use laacad_geom::{Point, Segment};
/// let s = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
/// assert_eq!(s.length(), 4.0);
/// assert_eq!(s.closest_point(Point::new(2.0, 3.0)), Point::new(2.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points (which may coincide).
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// Direction vector `b − a` (not normalized).
    #[inline]
    pub fn direction(&self) -> Vector {
        self.b - self.a
    }

    /// The point `a + t (b − a)`; `t ∈ [0, 1]` stays on the segment.
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// The supporting line, or `None` for degenerate (point) segments.
    pub fn line(&self) -> Option<Line> {
        Line::through(self.a, self.b)
    }

    /// Closest point of the segment to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        let d = self.direction();
        let len_sq = d.norm_sq();
        if len_sq <= EPS * EPS {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        self.point_at(t)
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Returns `true` if `p` lies on the segment (within tolerance `tol`).
    pub fn contains(&self, p: Point, tol: f64) -> bool {
        self.distance_to_point(p) <= tol
    }

    /// Proper intersection point of two segments, if any.
    ///
    /// Returns `None` when the segments are parallel, collinear, or miss each
    /// other. Endpoint touching counts as an intersection.
    pub fn intersect(&self, other: &Segment) -> Option<Point> {
        let r = self.direction();
        let s = other.direction();
        let denom = r.cross(s);
        if denom.abs() <= EPS {
            return None;
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let tol = 1e-12;
        if (-tol..=1.0 + tol).contains(&t) && (-tol..=1.0 + tol).contains(&u) {
            Some(self.point_at(t.clamp(0.0, 1.0)))
        } else {
            None
        }
    }

    /// Returns `true` when the two segments intersect, including collinear
    /// overlap (which [`Segment::intersect`] reports as `None` because there
    /// is no unique intersection point).
    pub fn intersects(&self, other: &Segment) -> bool {
        if self.intersect(other).is_some() {
            return true;
        }
        // Collinear overlap check.
        let collinear = orient2d(self.a, self.b, other.a) == Orientation::Collinear
            && orient2d(self.a, self.b, other.b) == Orientation::Collinear;
        if !collinear {
            return false;
        }
        let tol = EPS.max(1e-12 * (1.0 + self.length() + other.length()));
        self.contains(other.a, tol)
            || self.contains(other.b, tol)
            || other.contains(self.a, tol)
            || other.contains(self.b, tol)
    }
}

impl std::fmt::Display for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} → {}]", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(s.closest_point(Point::new(-5.0, 2.0)), s.a);
        assert_eq!(s.closest_point(Point::new(9.0, -3.0)), s.b);
        assert_eq!(
            s.closest_point(Point::new(0.25, 7.0)),
            Point::new(0.25, 0.0)
        );
    }

    #[test]
    fn degenerate_segment_behaves_like_point() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.closest_point(Point::new(0.0, 0.0)), s.a);
        assert!(s.line().is_none());
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        let p = s1.intersect(&s2).unwrap();
        assert!(p.approx_eq(Point::new(1.0, 1.0), 1e-9));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(1.0, 1.0));
        assert!(s1.intersect(&s2).is_none());
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn endpoint_touch_counts() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(1.0, 0.0), Point::new(1.0, 5.0));
        assert!(s1.intersect(&s2).is_some());
    }

    #[test]
    fn collinear_overlap_detected_by_intersects() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(1.0, 0.0), Point::new(3.0, 0.0));
        assert!(s1.intersect(&s2).is_none(), "no unique point");
        assert!(s1.intersects(&s2));
        let s3 = Segment::new(Point::new(5.0, 0.0), Point::new(6.0, 0.0));
        assert!(!s1.intersects(&s3));
    }
}
