//! Points and vectors in the Euclidean plane.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A location in the Euclidean plane.
///
/// `Point` is the coordinate type used for node locations `u_i` and for every
/// geometric construction in the reproduction. Subtracting two points yields
/// a [`Vector`]; adding a [`Vector`] to a `Point` translates it.
///
/// # Example
///
/// ```
/// use laacad_geom::{Point, Vector};
///
/// let a = Point::new(1.0, 2.0);
/// let b = a + Vector::new(3.0, -2.0);
/// assert_eq!(b, Point::new(4.0, 0.0));
/// assert!((a.distance(b) - (9.0f64 + 4.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement in the Euclidean plane.
///
/// Used for motion commands (`u_i ← u_i + α(c_i − u_i)` in Algorithm 1) and
/// for directional geometry (normals, bisector directions).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` (`‖self − other‖₂`).
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::distance`]; prefer it for comparisons (the
    /// Voronoi machinery compares distances constantly).
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let d = self - other;
        d.x * d.x + d.y * d.y
    }

    /// Midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Linear interpolation: returns `self + t · (other − self)`.
    ///
    /// `t = 0` gives `self`, `t = 1` gives `other`. Values outside `[0, 1]`
    /// extrapolate. This is exactly the motion rule of Algorithm 1 with
    /// `t = α`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// Position vector from the origin.
    #[inline]
    pub fn to_vector(self) -> Vector {
        Vector::new(self.x, self.y)
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Lexicographic comparison `(x, then y)` with total ordering of NaNs.
    ///
    /// Used to pick deterministic extremal points (hull pivots, tie-breaks).
    #[inline]
    pub fn lex_cmp(self, other: Point) -> std::cmp::Ordering {
        self.x
            .total_cmp(&other.x)
            .then_with(|| self.y.total_cmp(&other.y))
    }

    /// Returns `true` if `self` is within `tol` of `other`.
    #[inline]
    pub fn approx_eq(self, other: Point, tol: f64) -> bool {
        self.distance_sq(other) <= tol * tol
    }
}

impl Vector {
    /// The zero vector.
    pub const ZERO: Vector = Vector { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// Unit vector at angle `theta` radians from the positive x-axis.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Vector::new(theta.cos(), theta.sin())
    }

    /// Euclidean norm `‖v‖₂`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (`z` component of the 3-D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Rotates the vector by 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Vector {
        Vector::new(-self.y, self.x)
    }

    /// Angle from the positive x-axis, in `(−π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns the vector scaled to unit length, or `None` for (near-)zero
    /// vectors (norm ≤ `tol`).
    #[inline]
    pub fn normalized(self, tol: f64) -> Option<Vector> {
        let n = self.norm();
        if n <= tol {
            None
        } else {
            Some(self / n)
        }
    }

    /// Converts to a point (origin + self).
    #[inline]
    pub fn to_point(self) -> Point {
        Point::new(self.x, self.y)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl From<(f64, f64)> for Vector {
    fn from((x, y): (f64, f64)) -> Self {
        Vector::new(x, y)
    }
}

impl Sub for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign<Vector> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vector> for f64 {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: Vector) -> Vector {
        rhs * self
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

impl AddAssign for Vector {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign for Vector {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sum for Vector {
    fn sum<I: Iterator<Item = Vector>>(iter: I) -> Self {
        iter.fold(Vector::ZERO, |a, b| a + b)
    }
}

/// Centroid (arithmetic mean) of a non-empty set of points.
///
/// Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// use laacad_geom::{point::centroid, Point};
/// let c = centroid(&[Point::new(0.0, 0.0), Point::new(2.0, 4.0)]).unwrap();
/// assert_eq!(c, Point::new(1.0, 2.0));
/// ```
pub fn centroid(points: &[Point]) -> Option<Point> {
    if points.is_empty() {
        return None;
    }
    let sum: Vector = points.iter().map(|p| p.to_vector()).sum();
    Some((sum / points.len() as f64).to_point())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_arithmetic_round_trips() {
        let a = Point::new(1.5, -2.0);
        let v = Vector::new(0.5, 3.0);
        assert_eq!((a + v) - v, a);
        assert_eq!((a + v) - a, v);
        let mut b = a;
        b += v;
        b -= v;
        assert_eq!(b, a);
    }

    #[test]
    fn distance_is_symmetric_and_matches_norm() {
        let a = Point::new(3.0, 4.0);
        let b = Point::ORIGIN;
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), a.midpoint(b));
    }

    #[test]
    fn cross_sign_detects_orientation() {
        let e1 = Vector::new(1.0, 0.0);
        let e2 = Vector::new(0.0, 1.0);
        assert!(e1.cross(e2) > 0.0);
        assert!(e2.cross(e1) < 0.0);
        assert_eq!(e1.cross(e1), 0.0);
    }

    #[test]
    fn perp_rotates_ccw() {
        let v = Vector::new(1.0, 0.0);
        assert_eq!(v.perp(), Vector::new(0.0, 1.0));
        assert_eq!(v.perp().perp(), -v);
    }

    #[test]
    fn normalized_rejects_zero() {
        assert!(Vector::ZERO.normalized(1e-12).is_none());
        let u = Vector::new(3.0, 4.0).normalized(1e-12).unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_angle_is_unit() {
        for i in 0..16 {
            let th = i as f64 * 0.5;
            assert!((Vector::from_angle(th).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn centroid_empty_and_weighted() {
        assert!(centroid(&[]).is_none());
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        assert_eq!(centroid(&pts).unwrap(), Point::new(0.5, 0.5));
    }

    #[test]
    fn lex_cmp_orders_by_x_then_y() {
        use std::cmp::Ordering;
        let a = Point::new(0.0, 5.0);
        let b = Point::new(1.0, -5.0);
        let c = Point::new(0.0, 6.0);
        assert_eq!(a.lex_cmp(b), Ordering::Less);
        assert_eq!(a.lex_cmp(c), Ordering::Less);
        assert_eq!(a.lex_cmp(a), Ordering::Equal);
    }

    #[test]
    fn conversions() {
        let p: Point = (1.0, 2.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
        assert_eq!(p.to_vector().to_point(), p);
    }
}
