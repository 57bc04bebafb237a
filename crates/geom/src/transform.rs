//! Planar isometries and Procrustes alignment.
//!
//! When LAACAD runs on *ranging-derived* coordinates (Algorithm 2 line 4
//! builds a local coordinate system via MDS, paper ref \[28\]), the local
//! frame is an arbitrary rotation/reflection/translation of the world
//! frame. Motion targets computed locally are mapped back by aligning the
//! local coordinates of known anchors to their believed world positions —
//! the classic orthogonal **Procrustes** problem, solved in closed form in
//! 2-D below.

use crate::point::{Point, Vector};
use crate::EPS;

/// A direct or indirect planar isometry `p ↦ R·p + t` where `R` is a
/// rotation optionally composed with a reflection about the x-axis.
///
/// # Example
///
/// ```
/// use laacad_geom::transform::Isometry;
/// use laacad_geom::Point;
/// let iso = Isometry::new(
///     std::f64::consts::FRAC_PI_2,
///     false,
///     laacad_geom::Vector::new(1.0, 0.0),
/// );
/// let p = iso.apply(Point::new(1.0, 0.0));
/// assert!(p.approx_eq(Point::new(1.0, 1.0), 1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Isometry {
    /// cos of the rotation angle.
    cos: f64,
    /// sin of the rotation angle.
    sin: f64,
    /// Whether a reflection (y ↦ −y, applied before the rotation) is used.
    reflect: bool,
    /// Translation applied after the linear part.
    translation: Vector,
}

impl Isometry {
    /// Builds an isometry from rotation parameters and translation.
    pub fn new(theta: f64, reflect: bool, translation: Vector) -> Self {
        Isometry {
            cos: theta.cos(),
            sin: theta.sin(),
            reflect,
            translation,
        }
    }

    /// Applies the isometry to a point.
    pub fn apply(&self, p: Point) -> Point {
        let y = if self.reflect { -p.y } else { p.y };
        Point::new(
            self.cos * p.x - self.sin * y + self.translation.x,
            self.sin * p.x + self.cos * y + self.translation.y,
        )
    }
}

impl std::fmt::Display for Isometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "isometry(θ={:.4}{}, t={})",
            self.sin.atan2(self.cos),
            if self.reflect { ", reflected" } else { "" },
            self.translation
        )
    }
}

/// Error for Procrustes alignment failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// Source and destination have different lengths or fewer than 2 points.
    BadInput,
    /// The point sets are degenerate (all coincident), so the rotation is
    /// undetermined.
    Degenerate,
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AlignError::BadInput => "procrustes needs two equal-length sets of ≥ 2 points",
            AlignError::Degenerate => "procrustes input is degenerate (coincident points)",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AlignError {}

/// Least-squares rigid alignment of `src` onto `dst` (2-D orthogonal
/// Procrustes, reflections allowed).
///
/// Returns the isometry `T` minimizing `Σᵢ ‖T(srcᵢ) − dstᵢ‖²`.
///
/// # Errors
///
/// [`AlignError::BadInput`] for mismatched/short inputs;
/// [`AlignError::Degenerate`] when all source or destination points
/// coincide.
///
/// # Example
///
/// ```
/// use laacad_geom::transform::{procrustes, Isometry};
/// use laacad_geom::{Point, Vector};
/// let src = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 2.0)];
/// let truth = Isometry::new(1.1, false, Vector::new(3.0, -2.0));
/// let dst: Vec<Point> = src.iter().map(|&p| truth.apply(p)).collect();
/// let t = procrustes(&src, &dst).unwrap();
/// for (s, d) in src.iter().zip(&dst) {
///     assert!(t.apply(*s).approx_eq(*d, 1e-9));
/// }
/// ```
pub fn procrustes(src: &[Point], dst: &[Point]) -> Result<Isometry, AlignError> {
    if src.len() != dst.len() || src.len() < 2 {
        return Err(AlignError::BadInput);
    }
    let n = src.len() as f64;
    let cs = crate::point::centroid(src).expect("non-empty");
    let cd = crate::point::centroid(dst).expect("non-empty");
    let spread: f64 = src.iter().map(|p| p.distance_sq(cs)).sum();
    let spread_d: f64 = dst.iter().map(|p| p.distance_sq(cd)).sum();
    if spread / n <= EPS * EPS || spread_d / n <= EPS * EPS {
        return Err(AlignError::Degenerate);
    }

    let fit = |reflect: bool| -> (Isometry, f64) {
        // Accumulate cross-covariance of centered coordinates.
        let mut a = 0.0; // Σ x·x' + y·y'
        let mut b = 0.0; // Σ x·y' − y·x'
        for (s, d) in src.iter().zip(dst) {
            let mut sv = *s - cs;
            if reflect {
                sv.y = -sv.y;
            }
            let dv = *d - cd;
            a += sv.dot(dv);
            b += sv.cross(dv);
        }
        let theta = b.atan2(a);
        let lin = Isometry::new(theta, reflect, Vector::ZERO);
        // translation = cd − R·S·cs
        let t = cd - lin.apply(cs);
        let iso = Isometry::new(theta, reflect, t);
        let err: f64 = src
            .iter()
            .zip(dst)
            .map(|(s, d)| iso.apply(*s).distance_sq(*d))
            .sum();
        (iso, err)
    };

    let (direct, e1) = fit(false);
    let (mirrored, e2) = fit(true);
    Ok(if e1 <= e2 { direct } else { mirrored })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.5, 1.5),
            Point::new(-1.0, 0.7),
        ]
    }

    #[test]
    fn isometry_preserves_distance() {
        let iso = Isometry::new(2.1, true, Vector::new(5.0, 5.0));
        let pts = tri();
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let d0 = pts[i].distance(pts[j]);
                let d1 = iso.apply(pts[i]).distance(iso.apply(pts[j]));
                assert!((d0 - d1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn procrustes_recovers_direct_isometry() {
        let truth = Isometry::new(0.9, false, Vector::new(-3.0, 7.0));
        let src = tri();
        let dst: Vec<Point> = src.iter().map(|&p| truth.apply(p)).collect();
        let t = procrustes(&src, &dst).unwrap();
        assert!(!t.reflect);
        for (s, d) in src.iter().zip(&dst) {
            assert!(t.apply(*s).approx_eq(*d, 1e-9));
        }
    }

    #[test]
    fn procrustes_recovers_reflection() {
        let truth = Isometry::new(-0.4, true, Vector::new(1.0, 1.0));
        let src = tri();
        let dst: Vec<Point> = src.iter().map(|&p| truth.apply(p)).collect();
        let t = procrustes(&src, &dst).unwrap();
        assert!(t.reflect);
        for (s, d) in src.iter().zip(&dst) {
            assert!(t.apply(*s).approx_eq(*d, 1e-9));
        }
    }

    #[test]
    fn procrustes_with_noise_is_least_squares() {
        let truth = Isometry::new(0.3, false, Vector::new(0.0, 0.0));
        let src = tri();
        let mut dst: Vec<Point> = src.iter().map(|&p| truth.apply(p)).collect();
        dst[0] += Vector::new(0.05, -0.02); // small perturbation
        let t = procrustes(&src, &dst).unwrap();
        let err: f64 = src
            .iter()
            .zip(&dst)
            .map(|(s, d)| t.apply(*s).distance_sq(*d))
            .sum();
        // Residual should be on the order of the perturbation, not larger.
        assert!(err < 0.01, "err={err}");
    }

    #[test]
    fn procrustes_rejects_bad_input() {
        let a = tri();
        assert_eq!(
            procrustes(&a[..2], &a[..3]).unwrap_err(),
            AlignError::BadInput
        );
        assert_eq!(
            procrustes(&a[..1], &a[..1]).unwrap_err(),
            AlignError::BadInput
        );
        let same = vec![Point::new(1.0, 1.0); 4];
        assert_eq!(procrustes(&same, &a).unwrap_err(), AlignError::Degenerate);
    }
}
