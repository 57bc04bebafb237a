//! Orientation predicates with explicit tolerance handling.
//!
//! All higher-level constructions (hulls, clipping, containment) funnel
//! through [`orient2d`] so that tolerance policy lives in exactly one place.

use crate::point::Point;
use crate::EPS;

/// The orientation of an ordered point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The triple makes a left turn.
    CounterClockwise,
    /// The triple makes a right turn.
    Clockwise,
    /// The three points are (numerically) collinear.
    Collinear,
}

impl std::fmt::Display for Orientation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Orientation::CounterClockwise => "counter-clockwise",
            Orientation::Clockwise => "clockwise",
            Orientation::Collinear => "collinear",
        };
        f.write_str(s)
    }
}

/// Signed area of the parallelogram spanned by `(b − a)` and `(c − a)`.
///
/// Positive when `a → b → c` turns counter-clockwise. This is the classic
/// `orient2d` determinant; callers that need a ternary answer should use
/// [`orient2d`] instead.
#[inline]
pub fn cross3(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

/// Ternary orientation of the triple `a → b → c` with the crate default
/// tolerance [`EPS`], scaled by the magnitude of the inputs to stay
/// meaningful both for metre- and kilometre-scale coordinates.
///
/// # Example
///
/// ```
/// use laacad_geom::{orient2d, Orientation, Point};
/// let o = orient2d(
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(1.0, 1.0),
/// );
/// assert_eq!(o, Orientation::CounterClockwise);
/// ```
#[inline]
pub fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    let det = cross3(a, b, c);
    // Scale-aware threshold: |det| is quadratic in coordinate magnitude.
    let scale = (b - a).norm() * (c - a).norm();
    let thr = EPS * (1.0 + scale);
    if det > thr {
        Orientation::CounterClockwise
    } else if det < -thr {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_of_canonical_triples() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(
            orient2d(a, b, Point::new(0.5, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(a, b, Point::new(0.5, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(orient2d(a, b, Point::new(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn orientation_is_antisymmetric() {
        let a = Point::new(0.3, 0.7);
        let b = Point::new(-1.2, 2.0);
        let c = Point::new(4.0, -0.5);
        let o1 = orient2d(a, b, c);
        let o2 = orient2d(a, c, b);
        assert_ne!(o1, o2);
        assert_ne!(o1, Orientation::Collinear);
    }

    #[test]
    fn near_collinear_detected_at_scale() {
        // Kilometre-scale coordinates, nanometre deviation: collinear.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1000.0, 1000.0);
        let c = Point::new(2000.0, 2000.0 + 1e-12);
        assert_eq!(orient2d(a, b, c), Orientation::Collinear);
    }
}
