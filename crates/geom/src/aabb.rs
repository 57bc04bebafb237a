//! Axis-aligned bounding boxes.

use crate::point::{Point, Vector};

/// A non-empty axis-aligned bounding box.
///
/// # Example
///
/// ```
/// use laacad_geom::{Aabb, Point};
/// let b = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
/// assert_eq!(b.width(), 2.0);
/// assert!(b.contains(Point::new(1.0, 0.5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    min: Point,
    max: Point,
}

impl Aabb {
    /// Box spanned by two corners (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Tight box around a point set; `None` when empty.
    pub fn from_points(points: impl IntoIterator<Item = Point>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = Aabb {
            min: first,
            max: first,
        };
        for p in it {
            bb.min = bb.min.min(p);
            bb.max = bb.max.max(p);
        }
        Some(bb)
    }

    /// Lower-left corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Horizontal extent.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Vertical extent.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Diagonal length — a convenient size scale for tolerances.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.min.distance(self.max)
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Area (zero for degenerate boxes).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when the two boxes overlap (closed).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Smallest box containing both.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Box expanded by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Aabb {
        let m = Vector::new(margin, margin);
        Aabb::new(self.min - m, self.max + m)
    }

    /// The tolerance `scale · (1 + diagonal)` (`scale ≥ 0`), bracketed
    /// without measuring the diagonal — see [`DiagonalTol`].
    #[inline]
    pub fn diagonal_tol(&self, scale: f64) -> DiagonalTol {
        DiagonalTol::new(scale, *self)
    }
}

/// A box-scaled tolerance `tol = scale · (1 + diagonal)` that is only
/// measured when a comparison needs it.
///
/// The clip and classification kernels compare signed distances against
/// such a tolerance once per face or clip, and almost every distance is
/// far from it on one side. The diagonal lies between `max(w, h)` and
/// `w + h`; with margins that absorb the rounding of those bounds and of
/// a faithfully rounded `hypot` (`max(w, h)·(1 − 4ε)` and
/// `(w + h)·(1 + 4ε)`), and because `scale · (1 + x)` rounds monotonically
/// in `x`, [`DiagonalTol::lo`] `≤ tol ≤` [`DiagonalTol::hi`] holds for the
/// exact tolerance's bits. A comparison is then decided from the bounds,
/// and [`DiagonalTol::exact`] — `scale * (1.0 + bb.diagonal())`, the very
/// expression the kernels used before (`hypot` ignores the signs of its
/// arguments, so `w.hypot(h)` is the diagonal's bits) — is computed only
/// for a value in the band `(lo, hi]`. Boxes with an infinite or NaN
/// extent take the exact value as both bounds. Tiny extents need no
/// special case: below `2⁻⁵³` the `1 + x` rounds to 1 for every bound
/// alike.
#[derive(Debug, Clone, Copy)]
pub struct DiagonalTol {
    scale: f64,
    w: f64,
    h: f64,
    lo: f64,
    hi: f64,
}

impl DiagonalTol {
    /// Brackets `scale · (1 + bb.diagonal())`.
    fn new(scale: f64, bb: Aabb) -> Self {
        const LO: f64 = 1.0 - 4.0 * f64::EPSILON;
        const HI: f64 = 1.0 + 4.0 * f64::EPSILON;
        let (w, h) = (bb.width(), bb.height());
        let sum = w + h;
        let mut t = DiagonalTol {
            scale,
            w,
            h,
            lo: scale * (1.0 + w.max(h) * LO),
            hi: scale * (1.0 + sum * HI),
        };
        if !sum.is_finite() {
            let exact = t.exact();
            (t.lo, t.hi) = (exact, exact);
        }
        t
    }

    /// A lower bound of the tolerance.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// An upper bound of the tolerance.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The exact tolerance (measures the diagonal).
    #[inline]
    pub fn exact(&self) -> f64 {
        self.scale * (1.0 + self.w.hypot(self.h))
    }

    /// Whether `d <= tol` cannot be decided from the bounds: `d` lies in
    /// `(lo, hi]`.
    #[inline]
    pub fn ambiguous(&self, d: f64) -> bool {
        d > self.lo && d <= self.hi
    }

    /// `d <= tol`, measuring the tolerance only inside the band.
    #[inline]
    pub fn le(&self, d: f64) -> bool {
        if d <= self.lo {
            true
        } else if d > self.hi {
            false
        } else {
            d <= self.exact()
        }
    }

    /// A stand-in for the tolerance that decides `v <= tol` exactly for
    /// every `v` in `values` and its negation: the lower bound when no
    /// `|v|` falls in the band, the exact tolerance otherwise.
    pub fn stand_in(&self, values: impl IntoIterator<Item = f64>) -> f64 {
        if values.into_iter().any(|v| self.ambiguous(v.abs())) {
            self.exact()
        } else {
            self.lo
        }
    }
}

impl std::fmt::Display for Aabb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "aabb[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_normalized() {
        let b = Aabb::new(Point::new(3.0, -1.0), Point::new(1.0, 4.0));
        assert_eq!(b.min(), Point::new(1.0, -1.0));
        assert_eq!(b.max(), Point::new(3.0, 4.0));
        assert_eq!(b.width(), 2.0);
        assert_eq!(b.height(), 5.0);
        assert_eq!(b.area(), 10.0);
    }

    #[test]
    fn from_points_handles_empty_and_singleton() {
        assert!(Aabb::from_points(std::iter::empty()).is_none());
        let b = Aabb::from_points([Point::new(1.0, 2.0)]).unwrap();
        assert_eq!(b.min(), b.max());
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn intersection_and_union() {
        let a = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Aabb::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        let c = Aabb::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&c);
        assert_eq!(u.max(), Point::new(6.0, 6.0));
        assert_eq!(u.min(), Point::new(0.0, 0.0));
    }

    fn ulp_up(x: f64) -> f64 {
        if x == 0.0 {
            f64::from_bits(1)
        } else if x > 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    fn ulp_down(x: f64) -> f64 {
        -ulp_up(-x)
    }

    #[test]
    fn diagonal_tol_brackets_the_exact_tolerance_and_decides_like_it() {
        let p = Point::new;
        let inf = f64::INFINITY;
        let mut boxes = vec![
            Aabb::new(p(0.0, 0.0), p(0.0, 0.0)),
            Aabb::new(p(0.0, 0.0), p(3.0, 0.0)),
            Aabb::new(p(-2.0, 1.0), p(-2.0, 7.5)),
            Aabb::new(p(0.0, 0.0), p(1e-300, 1e-300)),
            Aabb::new(p(0.0, 0.0), p(1e-300, 0.0)),
            Aabb::new(p(0.0, 0.0), p(5e-324, 5e-324)),
            Aabb::new(p(0.0, 0.0), p(1e300, 1e300)),
            Aabb::new(p(-1e300, -1e300), p(1e300, 1e300)),
            Aabb::new(p(-f64::MAX, 0.0), p(f64::MAX, 1.0)),
            Aabb::new(p(0.0, 0.0), p(inf, 1.0)),
            Aabb::new(p(-inf, -inf), p(inf, inf)),
            Aabb {
                min: p(f64::NAN, 0.0),
                max: p(1.0, 1.0),
            },
            Aabb {
                min: p(0.0, f64::NAN),
                max: p(inf, 1.0),
            },
        ];
        // Pseudorandom boxes over many scales.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..400 {
            let scale = 10f64.powi((next() * 40.0) as i32 - 20);
            let (x, y) = (next() - 0.5, next() - 0.5);
            let (w, h) = (next() * scale, next() * scale * next());
            boxes.push(Aabb::new(p(x, y), p(x + w, y + h)));
        }
        let mut checked = 0;
        for bb in boxes {
            for scale in [1e-12, crate::EPS] {
                let t = bb.diagonal_tol(scale);
                let tol = scale * (1.0 + bb.diagonal());
                assert_eq!(t.exact().to_bits(), tol.to_bits(), "{bb:?}");
                if !tol.is_nan() {
                    assert!(t.lo() <= tol && tol <= t.hi(), "{bb:?}: {t:?} vs {tol}");
                }
                let mut values = vec![0.0, -0.0, f64::NAN, inf, -inf];
                for v in [t.lo(), t.hi(), tol] {
                    values.extend([v, ulp_up(v), ulp_down(v), -v, ulp_up(-v), ulp_down(-v)]);
                }
                for d in values {
                    assert_eq!(t.le(d), d <= tol, "{bb:?} d={d:e}");
                    // A stand-in decided from a set decides `±v <= tol`
                    // for every member.
                    let set = [d, 0.5 * d, -2.0 * d];
                    let stand_in = t.stand_in(set);
                    for v in set {
                        assert_eq!(v <= stand_in, v <= tol, "{bb:?} v={v:e}");
                        assert_eq!(-v <= stand_in, -v <= tol, "{bb:?} v={v:e}");
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 10_000, "only {checked} values checked");
    }

    #[test]
    fn inflation_and_center() {
        let a = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert_eq!(a.center(), Point::new(1.0, 1.0));
        let i = a.inflated(1.0);
        assert_eq!(i.min(), Point::new(-1.0, -1.0));
        assert_eq!(i.max(), Point::new(3.0, 3.0));
        // Touching boxes intersect (closed semantics).
        let t = Aabb::new(Point::new(2.0, 0.0), Point::new(4.0, 2.0));
        assert!(a.intersects(&t));
    }
}
