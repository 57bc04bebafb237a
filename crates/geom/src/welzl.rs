//! Welzl's minimum-enclosing-circle algorithm.
//!
//! LAACAD moves every node to the **Chebyshev center** of its dominating
//! region (Prop. 3). Because a dominating region is a union of polygons,
//! its Chebyshev center is the center of the minimum enclosing circle of
//! the polygon vertices, which the paper computes with Welzl's algorithm
//! \[26\] — "we apply Welzl's algorithm to compute the Chebyshev center by
//! taking the vertices of the region as the input" (Sec. IV-B).
//!
//! The implementation below is the iterative move-to-front variant, which
//! is expected linear time without needing randomization (determinism keeps
//! the whole simulation reproducible under fixed seeds).

use crate::circle::Circle;
use crate::point::Point;
use crate::EPS;

/// Minimum enclosing circle of a point set.
///
/// Returns the zero-radius circle at the single input point for singletons
/// and a zero circle at the origin for an empty slice (documented
/// degenerate convention — LAACAD never queries empty regions, but the
/// total function keeps callers panic-free).
///
/// # Example
///
/// ```
/// use laacad_geom::{min_enclosing_circle, Point};
/// let square = [
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(1.0, 1.0),
///     Point::new(0.0, 1.0),
/// ];
/// let c = min_enclosing_circle(&square);
/// assert!(c.center.approx_eq(Point::new(0.5, 0.5), 1e-9));
/// assert!((c.radius - (0.5f64).hypot(0.5)).abs() < 1e-9);
/// ```
pub fn min_enclosing_circle(points: &[Point]) -> Circle {
    match points.len() {
        0 => Circle::point(Point::ORIGIN),
        1 => Circle::point(points[0]),
        _ => {
            let mut pts: Vec<Point> = points.to_vec();
            welzl_mtf(&mut pts)
        }
    }
}

/// [`min_enclosing_circle`] over a caller-owned mutable slice.
///
/// The move-to-front heuristic reorders `points` in place, so the caller
/// avoids the per-call copy of the allocating form — the round engine
/// refills one scratch vector per worker and passes it here. Results are
/// identical to [`min_enclosing_circle`] on the same input order.
pub fn min_enclosing_circle_in_place(points: &mut [Point]) -> Circle {
    match points.len() {
        0 => Circle::point(Point::ORIGIN),
        1 => Circle::point(points[0]),
        _ => welzl_mtf(points),
    }
}

/// Tolerant containment used while growing the disk.
fn inside(c: &Circle, p: Point, scale: f64) -> bool {
    c.center.distance_sq(p) <= c.radius * c.radius + EPS * (1.0 + scale)
}

/// The squared distances whose relative rounding the candidate bounds
/// cover: inside this range no square underflows or overflows.
const SAFE_SQ: std::ops::RangeInclusive<f64> = 1e-280..=1e280;

/// A candidate circle of the Welzl loop whose radius is measured only
/// when a containment test needs it.
///
/// The centre is computed exactly as [`Circle::from_diameter`] /
/// [`Circle::circumscribing`] compute it, and the radius is
/// `factor · ‖from − to‖` with the same `hypot`. Containment
/// `d² <= r·r + slack` is decided from bounds on `r·r`: with `s` the
/// squared distance `‖from − to‖²` (rounded from the same coordinate
/// differences the `hypot` takes), a faithful `hypot` puts the rounded
/// `r·r` within `factor²·s·(1 ± 8u)` (`u = 2⁻⁵³`), so
/// `factor²·s·(1 ± 16ε)` brackets it with room to spare, and
/// `x + slack` rounds monotonically in `x`. Outside the band the bounds
/// decide the test as the measured radius would; inside it the radius is
/// measured. Squared distances outside [`SAFE_SQ`] (zero, tiny, huge or
/// non-finite) measure the radius up front.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    center: Point,
    from: Point,
    to: Point,
    /// `0.5` for a diameter circle, `1.0` for a circumcircle.
    factor: f64,
    slack: f64,
    /// `r·r + slack` from the lower / upper bound of `r·r`.
    in_lo: f64,
    in_hi: f64,
    radius: Option<f64>,
}

impl Candidate {
    fn new(center: Point, from: Point, to: Point, factor: f64, slack: f64) -> Self {
        const LO: f64 = 1.0 - 16.0 * f64::EPSILON;
        const HI: f64 = 1.0 + 16.0 * f64::EPSILON;
        let sq = factor * factor * from.distance_sq(to);
        let mut c = Candidate {
            center,
            from,
            to,
            factor,
            slack,
            in_lo: sq * LO + slack,
            in_hi: sq * HI + slack,
            radius: None,
        };
        if !SAFE_SQ.contains(&sq) {
            c.measure();
        }
        c
    }

    /// [`Circle::from_diameter`]`(a, b)`.
    fn diameter(a: Point, b: Point, slack: f64) -> Self {
        Candidate::new(a.midpoint(b), a, b, 0.5, slack)
    }

    /// The exact radius; afterwards both bounds are the exact threshold.
    fn measure(&mut self) -> f64 {
        let r = self.factor * self.from.distance(self.to);
        self.radius = Some(r);
        self.in_lo = r * r + self.slack;
        self.in_hi = self.in_lo;
        r
    }

    /// `center.distance_sq(p) <= r * r + slack`.
    fn inside(&mut self, p: Point) -> bool {
        let d_sq = self.center.distance_sq(p);
        if d_sq <= self.in_lo {
            true
        } else if d_sq > self.in_hi {
            false
        } else {
            #[cfg(test)]
            tests::BAND_TESTS.with(|n| n.set(n.get() + 1));
            self.measure();
            d_sq <= self.in_lo
        }
    }

    fn into_circle(mut self) -> Circle {
        let radius = match self.radius {
            Some(r) => r,
            None => self.measure(),
        };
        Circle {
            center: self.center,
            radius,
        }
    }
}

/// Iterative Welzl with move-to-front heuristic, over [`Candidate`]s:
/// the same tests in the same order as the eagerly measured loop (kept
/// as the test reference `welzl_mtf_eager`), so the same circle.
fn welzl_mtf(pts: &mut [Point]) -> Circle {
    let scale = pts
        .iter()
        .map(|p| p.x.abs().max(p.y.abs()))
        .fold(0.0, f64::max);
    let slack = EPS * (1.0 + scale);
    let mut circle = Candidate::diameter(pts[0], pts[1], slack);
    for i in 2..pts.len() {
        if circle.inside(pts[i]) {
            continue;
        }
        // pts[i] is on the boundary of the new circle.
        circle = Candidate::diameter(pts[0], pts[i], slack);
        for j in 1..i {
            if circle.inside(pts[j]) {
                continue;
            }
            // pts[i] and pts[j] are on the boundary.
            circle = Candidate::diameter(pts[i], pts[j], slack);
            for l in 0..j {
                if circle.inside(pts[l]) {
                    continue;
                }
                // Three boundary points determine the circle.
                circle = circumcircle_or_diameter(pts[i], pts[j], pts[l], slack);
            }
            pts[..=j].rotate_right(1); // move-to-front
        }
        pts[..=i].rotate_right(1); // move-to-front
    }
    circle.into_circle()
}

/// Circumcircle of three points, falling back to the largest diameter
/// circle when they are (numerically) collinear.
fn circumcircle_or_diameter(a: Point, b: Point, c: Point, slack: f64) -> Candidate {
    if let Some(center) = circumcenter(a, b, c) {
        return Candidate::new(center, center, a, 1.0, slack);
    }
    // Collinear: the two farthest-apart points define the disk.
    let (dab, dac, dbc) = (a.distance_sq(b), a.distance_sq(c), b.distance_sq(c));
    if dab >= dac && dab >= dbc {
        Candidate::diameter(a, b, slack)
    } else if dac >= dbc {
        Candidate::diameter(a, c, slack)
    } else {
        Candidate::diameter(b, c, slack)
    }
}

/// The centre of [`Circle::circumscribing`]`(a, b, c)`, with its
/// collinearity test `|d| <= EPS·(1 + ‖b−a‖·‖c−a‖)` decided from bounds
/// on the product of norms: `0` below, and above the product of the L1
/// norms (which bound the Euclidean ones) widened by `8ε` for the
/// rounding of both products and a faithful `hypot`. Only a `|d|`
/// between the two thresholds measures the norms.
fn circumcenter(a: Point, b: Point, c: Point) -> Option<Point> {
    let (ab, ac) = (b - a, c - a);
    let d = 2.0 * ab.cross(ac);
    let ad = d.abs();
    let collinear = if ad <= EPS {
        true
    } else {
        let l1 = |v: crate::Vector| v.x.abs() + v.y.abs();
        let hi = EPS * (1.0 + l1(ab) * l1(ac) * (1.0 + 8.0 * f64::EPSILON));
        if ad > hi {
            false
        } else {
            ad <= EPS * (1.0 + ab.norm() * ac.norm())
        }
    };
    if collinear {
        return None;
    }
    let asq = a.to_vector().norm_sq();
    let bsq = b.to_vector().norm_sq();
    let csq = c.to_vector().norm_sq();
    let ux = (asq * (b.y - c.y) + bsq * (c.y - a.y) + csq * (a.y - b.y)) / d;
    let uy = (asq * (c.x - b.x) + bsq * (a.x - c.x) + csq * (b.x - a.x)) / d;
    Some(Point::new(ux, uy))
}

/// Exhaustive `O(n⁴)` minimum enclosing circle used as a test oracle.
///
/// Tries every pair (diameter circles) and every triple (circumcircles) and
/// returns the smallest circle enclosing all points. Exposed (not
/// `cfg(test)`) so property tests in *other* crates can reuse it.
pub fn min_enclosing_circle_brute(points: &[Point]) -> Circle {
    match points.len() {
        0 => return Circle::point(Point::ORIGIN),
        1 => return Circle::point(points[0]),
        _ => {}
    }
    let scale = points
        .iter()
        .map(|p| p.x.abs().max(p.y.abs()))
        .fold(0.0, f64::max);
    let mut best: Option<Circle> = None;
    let mut consider = |c: Circle| {
        if points.iter().all(|&p| inside(&c, p, scale)) && best.is_none_or(|b| c.radius < b.radius)
        {
            best = Some(c);
        }
    };
    let n = points.len();
    for i in 0..n {
        for j in i + 1..n {
            consider(Circle::from_diameter(points[i], points[j]));
            for l in j + 1..n {
                if let Some(c) = Circle::circumscribing(points[i], points[j], points[l]) {
                    consider(c);
                }
            }
        }
    }
    best.expect("at least one enclosing circle exists")
}

/// The Welzl loop with every candidate radius measured when the circle
/// is built — the form [`welzl_mtf`] replaced, kept as the reference it
/// is checked against bit for bit.
#[cfg(test)]
fn welzl_mtf_eager(pts: &mut [Point]) -> Circle {
    fn eager_circumcircle_or_diameter(a: Point, b: Point, c: Point) -> Circle {
        if let Some(circ) = Circle::circumscribing(a, b, c) {
            return circ;
        }
        let (dab, dac, dbc) = (a.distance_sq(b), a.distance_sq(c), b.distance_sq(c));
        if dab >= dac && dab >= dbc {
            Circle::from_diameter(a, b)
        } else if dac >= dbc {
            Circle::from_diameter(a, c)
        } else {
            Circle::from_diameter(b, c)
        }
    }
    let scale = pts
        .iter()
        .map(|p| p.x.abs().max(p.y.abs()))
        .fold(0.0, f64::max);
    let mut circle = Circle::from_diameter(pts[0], pts[1]);
    for i in 2..pts.len() {
        if inside(&circle, pts[i], scale) {
            continue;
        }
        circle = Circle::from_diameter(pts[0], pts[i]);
        for j in 1..i {
            if inside(&circle, pts[j], scale) {
                continue;
            }
            circle = Circle::from_diameter(pts[i], pts[j]);
            for l in 0..j {
                if inside(&circle, pts[l], scale) {
                    continue;
                }
                circle = eager_circumcircle_or_diameter(pts[i], pts[j], pts[l]);
            }
            pts[..=j].rotate_right(1);
        }
        pts[..=i].rotate_right(1);
    }
    circle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HalfPlane, Polygon, Vector};
    use std::cell::Cell;

    thread_local! {
        /// Containment tests the bounds could not decide.
        pub(super) static BAND_TESTS: Cell<usize> = const { Cell::new(0) };
    }

    /// xorshift64 in `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Runs the lazy and the eager loop on the same cloud and asserts
    /// the same circle and the same move-to-front order, bit for bit.
    fn assert_matches_eager(cloud: &[Point]) {
        if cloud.len() < 2 {
            return;
        }
        let (mut lazy, mut eager) = (cloud.to_vec(), cloud.to_vec());
        let (a, b) = (welzl_mtf(&mut lazy), welzl_mtf_eager(&mut eager));
        let bits = |c: Circle| {
            (
                c.center.x.to_bits(),
                c.center.y.to_bits(),
                c.radius.to_bits(),
            )
        };
        assert_eq!(bits(a), bits(b), "cloud {cloud:?}");
        assert_eq!(lazy, eager, "move-to-front order of {cloud:?}");
    }

    /// The convex pieces of an order-`k` bisector subdivision of the unit
    /// square around `sites[0]` — the carving the region kernel does —
    /// flattened to their vertices, shared vertices repeated.
    fn subdivision_cloud(sites: &[Point], k: usize) -> Vec<Point> {
        let u = sites[0];
        let hs: Vec<HalfPlane> = sites[1..]
            .iter()
            .filter_map(|&s| HalfPlane::closer_to(s, u))
            .collect();
        let square = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let mut out = Vec::new();
        let mut stack = vec![(square, k - 1, 0)];
        while let Some((face, budget, next)) = stack.pop() {
            if next == hs.len() {
                out.extend_from_slice(face.vertices());
                continue;
            }
            if let Some(near) = face.clip_halfplane(&hs[next].complement()) {
                stack.push((near, budget, next + 1));
            }
            if budget > 0 {
                if let Some(far) = face.clip_halfplane(&hs[next]) {
                    stack.push((far, budget - 1, next + 1));
                }
            }
        }
        out
    }

    #[test]
    fn lazy_radii_match_the_eager_loop_bit_for_bit() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut clouds: Vec<Vec<Point>> = Vec::new();
        // Random clouds with exact duplicates, over many scales.
        for trial in 0..300 {
            let scale = 10f64.powi(trial % 13 - 6);
            let n = 2 + (unit(&mut rng) * 40.0) as usize;
            let mut cloud: Vec<Point> = (0..n)
                .map(|_| Point::new(unit(&mut rng) * scale, unit(&mut rng) * scale))
                .collect();
            for _ in 0..n / 3 {
                let i = (unit(&mut rng) * cloud.len() as f64) as usize;
                cloud.push(cloud[i]);
            }
            clouds.push(cloud);
        }
        // Collinear and cocircular lattices.
        for n in 3..20 {
            let f = n as f64;
            clouds.push(
                (0..n)
                    .map(|i| Point::new(i as f64, 2.0 * i as f64))
                    .collect(),
            );
            clouds.push(
                (0..n)
                    .map(|i| Point::new(0.1 * (i % 3) as f64, 0.5))
                    .collect(),
            );
            clouds.push(
                (0..n)
                    .map(|i| Point::new(0.5, 0.5) + Vector::from_angle(i as f64 / f * 6.3) * 0.25)
                    .collect(),
            );
            clouds.push(
                (0..n * n)
                    .map(|i| Point::new((i % n) as f64 / f, (i / n) as f64 / f))
                    .collect(),
            );
        }
        // Points planted within ulps of a running circle: at the
        // distance where the containment test flips for the circle of
        // the first two points (`d² = r² + slack`), nudged a few ulps in
        // and out, and on the circle itself.
        for trial in 0..300 {
            let a = Point::new(unit(&mut rng), unit(&mut rng));
            let b = Point::new(unit(&mut rng), unit(&mut rng));
            let c = Circle::from_diameter(a, b);
            let dirs: Vec<Vector> = (0..6)
                .map(|_| Vector::from_angle(unit(&mut rng) * 6.3))
                .collect();
            let plant = |scale: f64| {
                let flip = (c.radius * c.radius + EPS * (1.0 + scale)).sqrt();
                let mut cloud = vec![a, b];
                for (j, &dir) in dirs.iter().enumerate() {
                    let ulps = (trial % 7) as i64 - 3 + j as i64;
                    let r = if j == 5 { c.radius } else { flip };
                    let r = f64::from_bits((r.to_bits() as i64 + ulps) as u64);
                    cloud.push(c.center + dir * r);
                }
                cloud
            };
            let scale_of = |cloud: &[Point]| {
                cloud
                    .iter()
                    .map(|p| p.x.abs().max(p.y.abs()))
                    .fold(0.0, f64::max)
            };
            let first = plant(scale_of(&[a, b]));
            clouds.push(plant(scale_of(&first)));
        }
        // Clouds the region kernel produces: bisector-subdivision pieces.
        for trial in 0..120 {
            let n = 3 + (unit(&mut rng) * 14.0) as usize;
            let sites: Vec<Point> = (0..n)
                .map(|_| Point::new(unit(&mut rng), unit(&mut rng)))
                .collect();
            let cloud = subdivision_cloud(&sites, 1 + trial % 4);
            clouds.push(cloud);
        }
        let total = clouds.len();
        BAND_TESTS.with(|n| n.set(0));
        for cloud in &clouds {
            assert_matches_eager(cloud);
        }
        let band = BAND_TESTS.with(Cell::get);
        assert!(total > 700, "only {total} clouds");
        assert!(
            band > 100,
            "only {band} tests measured a radius in the band"
        );
    }

    #[test]
    fn trivial_inputs() {
        assert_eq!(min_enclosing_circle(&[]).radius, 0.0);
        let p = Point::new(3.0, 4.0);
        let c = min_enclosing_circle(&[p]);
        assert_eq!(c.center, p);
        assert_eq!(c.radius, 0.0);
        let c2 = min_enclosing_circle(&[p, p, p]);
        assert!(c2.radius < 1e-9);
    }

    #[test]
    fn two_points_diameter() {
        let c = min_enclosing_circle(&[Point::new(0.0, 0.0), Point::new(2.0, 0.0)]);
        assert!(c.center.approx_eq(Point::new(1.0, 0.0), 1e-12));
        assert!((c.radius - 1.0).abs() < 1e-12);
    }

    #[test]
    fn obtuse_triangle_uses_diameter() {
        // Very obtuse triangle: min circle is the diameter of the long side.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 0.1),
        ];
        let c = min_enclosing_circle(&pts);
        assert!((c.radius - 2.0).abs() < 1e-6);
        assert!(c.center.approx_eq(Point::new(2.0, 0.0), 1e-6));
    }

    #[test]
    fn acute_triangle_uses_circumcircle() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 1.7),
        ];
        let got = min_enclosing_circle(&pts);
        let expect = Circle::circumscribing(pts[0], pts[1], pts[2]).unwrap();
        assert!(got.center.approx_eq(expect.center, 1e-9));
        assert!((got.radius - expect.radius).abs() < 1e-9);
    }

    #[test]
    fn collinear_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(3.0, 3.0),
            Point::new(2.0, 2.0),
        ];
        let c = min_enclosing_circle(&pts);
        assert!(c.center.approx_eq(Point::new(1.5, 1.5), 1e-9));
        assert!((c.radius - 1.5 * 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_grids_and_rings() {
        // Deterministic structured inputs exercising all branch depths.
        let mut sets: Vec<Vec<Point>> = Vec::new();
        let grid: Vec<Point> = (0..4)
            .flat_map(|i| (0..3).map(move |j| Point::new(i as f64, j as f64 * 1.3)))
            .collect();
        sets.push(grid);
        let ring: Vec<Point> = (0..9)
            .map(|i| {
                let th = i as f64 / 9.0 * std::f64::consts::TAU;
                Point::new(th.cos() * 2.0 + 5.0, th.sin() * 2.0 - 1.0)
            })
            .collect();
        sets.push(ring);
        for pts in sets {
            let fast = min_enclosing_circle(&pts);
            let slow = min_enclosing_circle_brute(&pts);
            assert!(
                (fast.radius - slow.radius).abs() < 1e-7,
                "fast {fast} vs brute {slow}"
            );
            for &p in &pts {
                assert!(fast.center.distance(p) <= fast.radius + 1e-7);
            }
        }
    }

    #[test]
    fn circle_encloses_all_inputs_pseudorandom() {
        // Simple LCG so this test has no dependencies.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 10.0 - 5.0
        };
        for n in [3usize, 5, 9, 17, 40] {
            let pts: Vec<Point> = (0..n).map(|_| Point::new(next(), next())).collect();
            let c = min_enclosing_circle(&pts);
            for &p in &pts {
                assert!(
                    c.center.distance(p) <= c.radius + 1e-7,
                    "point {p} escapes {c}"
                );
            }
            let brute = min_enclosing_circle_brute(&pts);
            assert!((c.radius - brute.radius).abs() < 1e-7);
        }
    }
}
