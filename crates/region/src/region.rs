//! The target area `A`: outer boundary minus obstacle holes.

use crate::decompose::convex_decomposition;
use crate::triangulate::{triangulate_with_holes, Triangle};
use laacad_geom::{Aabb, Point, Polygon};

/// A target area: one simple outer polygon minus disjoint polygonal holes
/// (the paper's obstacles, Fig. 8 — "holes represent obstacles that mobile
/// sensor nodes cannot move upon").
///
/// The region pre-computes its triangulation and a Hertel–Mehlhorn convex
/// decomposition at construction; both are shared by every node every
/// round, so the one-time cost is irrelevant.
///
/// # Example
///
/// ```
/// use laacad_region::Region;
/// let a = Region::square(1.0).unwrap();
/// assert!((a.area() - 1.0).abs() < 1e-12);
/// assert_eq!(a.convex_pieces().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Region {
    outer: Polygon,
    holes: Vec<Polygon>,
    triangles: Vec<Triangle>,
    pieces: Vec<Polygon>,
    area: f64,
}

/// Errors raised while assembling a [`Region`].
#[derive(Debug, Clone, PartialEq)]
pub enum RegionError {
    /// A hole is not strictly contained in the outer polygon.
    HoleOutsideOuter,
    /// Two holes overlap.
    OverlappingHoles,
    /// The holes consume (numerically) the entire outer area.
    EmptyInterior,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RegionError::HoleOutsideOuter => "hole extends outside the outer boundary",
            RegionError::OverlappingHoles => "holes overlap each other",
            RegionError::EmptyInterior => "holes consume the entire region",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RegionError {}

impl Region {
    /// Region bounded by a single polygon, no holes.
    pub fn new(outer: Polygon) -> Self {
        Self::with_holes(outer, Vec::new()).expect("hole-free regions are always valid")
    }

    /// Axis-aligned square `[0, side] × [0, side]`.
    ///
    /// # Errors
    ///
    /// Fails when `side` is not strictly positive (propagated from the
    /// polygon constructor).
    pub fn square(side: f64) -> Result<Self, laacad_geom::polygon::PolygonError> {
        Ok(Region::new(Polygon::rectangle(
            Point::new(0.0, 0.0),
            Point::new(side, side),
        )?))
    }

    /// Axis-aligned rectangle `[0, w] × [0, h]`.
    ///
    /// # Errors
    ///
    /// Fails when either extent is not strictly positive.
    pub fn rect(w: f64, h: f64) -> Result<Self, laacad_geom::polygon::PolygonError> {
        Ok(Region::new(Polygon::rectangle(
            Point::new(0.0, 0.0),
            Point::new(w, h),
        )?))
    }

    /// Region with obstacle holes.
    ///
    /// # Errors
    ///
    /// * [`RegionError::HoleOutsideOuter`] — a hole vertex leaves the outer
    ///   polygon;
    /// * [`RegionError::OverlappingHoles`] — two holes share interior
    ///   (vertex-in-other test);
    /// * [`RegionError::EmptyInterior`] — nothing is left to cover.
    pub fn with_holes(outer: Polygon, holes: Vec<Polygon>) -> Result<Self, RegionError> {
        for h in &holes {
            if !h.vertices().iter().all(|&v| outer.contains(v)) {
                return Err(RegionError::HoleOutsideOuter);
            }
        }
        for i in 0..holes.len() {
            for j in i + 1..holes.len() {
                let hi = &holes[i];
                let hj = &holes[j];
                let cross_ij = hi
                    .vertices()
                    .iter()
                    .any(|&v| hj.contains(v) && hj.closest_boundary_point(v).distance(v) > 1e-9);
                let cross_ji = hj
                    .vertices()
                    .iter()
                    .any(|&v| hi.contains(v) && hi.closest_boundary_point(v).distance(v) > 1e-9);
                if cross_ij || cross_ji {
                    return Err(RegionError::OverlappingHoles);
                }
            }
        }
        let area = outer.area() - holes.iter().map(|h| h.area()).sum::<f64>();
        if area <= 1e-12 {
            return Err(RegionError::EmptyInterior);
        }
        let triangles = triangulate_with_holes(&outer, &holes);
        let pieces = convex_decomposition(&triangles);
        Ok(Region {
            outer,
            holes,
            triangles,
            pieces,
            area,
        })
    }

    /// The outer boundary polygon.
    #[inline]
    pub fn outer(&self) -> &Polygon {
        &self.outer
    }

    /// The obstacle holes.
    #[inline]
    pub fn holes(&self) -> &[Polygon] {
        &self.holes
    }

    /// Free area (`outer − holes`).
    #[inline]
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Bounding box of the outer boundary.
    pub fn bounding_box(&self) -> Aabb {
        self.outer.bounding_box()
    }

    /// Diameter proxy: diagonal of the bounding box — the natural upper
    /// bound for Algorithm 2's searching-ring radius.
    pub fn diameter_bound(&self) -> f64 {
        self.bounding_box().diagonal()
    }

    /// The cached triangulation of the free area.
    #[inline]
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// The cached convex decomposition of the free area.
    ///
    /// Dominating-region computations intersect candidate cells with these
    /// pieces so that every polygon Boolean in the system stays
    /// convex–convex.
    #[inline]
    pub fn convex_pieces(&self) -> &[Polygon] {
        &self.pieces
    }

    /// Closed containment: inside the outer polygon and not strictly
    /// inside any hole (obstacle boundaries count as free — a node may
    /// stand on an obstacle's edge).
    pub fn contains(&self, p: Point) -> bool {
        if !self.outer.contains(p) {
            return false;
        }
        !self
            .holes
            .iter()
            .any(|h| h.contains(p) && h.closest_boundary_point(p).distance(p) > 1e-9)
    }

    /// Projects `p` to the nearest point of the free region.
    ///
    /// Needed when a motion target (a Chebyshev center of a non-convex
    /// dominating region) lands inside an obstacle or outside the outer
    /// boundary — the paper does not specify this case; we project.
    pub fn project(&self, p: Point) -> Point {
        if self.contains(p) {
            return p;
        }
        // Candidate projections: outer boundary and each hole boundary.
        let mut best = self.outer.closest_boundary_point(p);
        let mut best_d = best.distance_sq(p);
        for h in &self.holes {
            let q = h.closest_boundary_point(p);
            let d = q.distance_sq(p);
            if d < best_d && self.contains(q) {
                best_d = d;
                best = q;
            }
        }
        // Nudge inward if numerical noise leaves the point epsilon-outside.
        if self.contains(best) {
            best
        } else {
            let c = self.pieces[0].centroid();
            best.lerp(c, 1e-9)
        }
    }

    /// Deterministic grid of sample points inside the region, roughly
    /// `target` many (used by coverage verification).
    pub fn grid_points(&self, target: usize) -> Vec<Point> {
        let bb = self.bounding_box();
        let aspect = bb.width() / bb.height();
        let ny = ((target as f64 / aspect).sqrt()).ceil().max(1.0) as usize;
        let nx = ((target as f64 / ny as f64).ceil()).max(1.0) as usize;
        let mut out = Vec::with_capacity(target);
        for iy in 0..ny {
            for ix in 0..nx {
                let p = Point::new(
                    bb.min().x + (ix as f64 + 0.5) / nx as f64 * bb.width(),
                    bb.min().y + (iy as f64 + 0.5) / ny as f64 * bb.height(),
                );
                if self.contains(p) {
                    out.push(p);
                }
            }
        }
        out
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "region[area {:.4}, {} holes, {} convex pieces]",
            self.area,
            self.holes.len(),
            self.pieces.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_region_basics() {
        let r = Region::square(2.0).unwrap();
        assert!((r.area() - 4.0).abs() < 1e-12);
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.0, 0.0))); // boundary
        assert!(!r.contains(Point::new(2.1, 1.0)));
        assert_eq!(r.convex_pieces().len(), 1);
        assert!((r.diameter_bound() - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn holed_region_containment_and_area() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let hole = Polygon::rectangle(Point::new(4.0, 4.0), Point::new(6.0, 6.0)).unwrap();
        let r = Region::with_holes(outer, vec![hole]).unwrap();
        assert!((r.area() - 96.0).abs() < 1e-9);
        assert!(!r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(4.0, 5.0))); // hole boundary is free
        assert!(r.contains(Point::new(1.0, 1.0)));
        let pieces_area: f64 = r.convex_pieces().iter().map(|p| p.area()).sum();
        assert!((pieces_area - 96.0).abs() < 1e-9);
    }

    #[test]
    fn validation_errors() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap();
        let escaping = Polygon::rectangle(Point::new(3.0, 3.0), Point::new(5.0, 5.0)).unwrap();
        assert_eq!(
            Region::with_holes(outer.clone(), vec![escaping]).unwrap_err(),
            RegionError::HoleOutsideOuter
        );
        let h1 = Polygon::rectangle(Point::new(1.0, 1.0), Point::new(2.5, 2.5)).unwrap();
        let h2 = Polygon::rectangle(Point::new(2.0, 2.0), Point::new(3.0, 3.0)).unwrap();
        assert_eq!(
            Region::with_holes(outer, vec![h1, h2]).unwrap_err(),
            RegionError::OverlappingHoles
        );
    }

    #[test]
    fn projection_pulls_points_into_free_space() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let hole = Polygon::rectangle(Point::new(4.0, 4.0), Point::new(6.0, 6.0)).unwrap();
        let r = Region::with_holes(outer, vec![hole]).unwrap();
        // From inside an obstacle.
        let q = r.project(Point::new(5.0, 4.9));
        assert!(r.contains(q));
        assert!(q.distance(Point::new(5.0, 4.0)) < 1e-6);
        // From outside the outer boundary.
        let q2 = r.project(Point::new(15.0, 5.0));
        assert!(r.contains(q2));
        assert!(q2.approx_eq(Point::new(10.0, 5.0), 1e-9));
        // Interior points are fixed points of projection.
        let inside = Point::new(2.0, 2.0);
        assert_eq!(r.project(inside), inside);
    }

    #[test]
    fn grid_points_fall_inside_and_scale() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let hole = Polygon::rectangle(Point::new(4.0, 4.0), Point::new(6.0, 6.0)).unwrap();
        let r = Region::with_holes(outer, vec![hole]).unwrap();
        let g = r.grid_points(1000);
        assert!(g.len() > 800 && g.len() <= 1100, "got {}", g.len());
        assert!(g.iter().all(|&p| r.contains(p)));
        // Fraction of box points kept ≈ free-area fraction.
        let frac = g.len() as f64 / 1024.0;
        assert!((frac - 0.96).abs() < 0.05);
    }

    #[test]
    fn rect_region() {
        let r = Region::rect(4.0, 2.0).unwrap();
        assert!((r.area() - 8.0).abs() < 1e-12);
        assert!(r.contains(Point::new(3.9, 1.9)));
    }
}
