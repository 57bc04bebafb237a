//! Polygons with area, containment and convex clipping.
//!
//! The Voronoi machinery only ever clips *convex* polygons (cells) by
//! half-planes, which Sutherland–Hodgman handles exactly; general simple
//! polygons appear as target-area outlines and are decomposed into convex
//! pieces by `laacad-region` before any clipping happens.

use crate::aabb::Aabb;
use crate::halfplane::HalfPlane;
use crate::point::{Point, Vector};
use crate::predicates::{cross3, orient2d, Orientation};
use crate::segment::Segment;
use crate::EPS;

/// A polygon stored as a counter-clockwise vertex loop.
///
/// Invariants enforced at construction:
/// * at least 3 vertices,
/// * all coordinates finite,
/// * consecutive duplicate vertices merged,
/// * counter-clockwise orientation (input is reversed if needed),
/// * non-vanishing area.
///
/// # Example
///
/// ```
/// use laacad_geom::{Point, Polygon};
/// let sq = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(2.0, 1.0)).unwrap();
/// assert!((sq.area() - 2.0).abs() < 1e-12);
/// assert!(sq.contains(Point::new(1.0, 0.5)));
/// assert!(!sq.contains(Point::new(3.0, 0.5)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

/// Error produced when a vertex list does not form a usable polygon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three (distinct) vertices were supplied.
    TooFewVertices,
    /// A vertex had a non-finite coordinate.
    NonFiniteVertex,
    /// The vertex loop encloses (numerically) zero area.
    DegenerateArea,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolygonError::TooFewVertices => "polygon needs at least three distinct vertices",
            PolygonError::NonFiniteVertex => "polygon vertex has a non-finite coordinate",
            PolygonError::DegenerateArea => "polygon encloses zero area",
        };
        f.write_str(s)
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Builds a polygon from a vertex loop (either orientation accepted).
    ///
    /// # Errors
    ///
    /// Returns a [`PolygonError`] when the input has fewer than three
    /// distinct vertices, non-finite coordinates, or zero area.
    pub fn new(vertices: impl IntoIterator<Item = Point>) -> Result<Self, PolygonError> {
        let mut vs: Vec<Point> = Vec::new();
        for v in vertices {
            if !v.is_finite() {
                return Err(PolygonError::NonFiniteVertex);
            }
            if vs.last().is_none_or(|last| !last.approx_eq(v, EPS)) {
                vs.push(v);
            }
        }
        // Drop a duplicated closing vertex.
        while vs.len() >= 2 && vs[0].approx_eq(*vs.last().unwrap(), EPS) {
            vs.pop();
        }
        if vs.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        let signed = signed_area(&vs);
        if signed.abs() <= EPS {
            return Err(PolygonError::DegenerateArea);
        }
        if signed < 0.0 {
            vs.reverse();
        }
        Ok(Polygon { vertices: vs })
    }

    /// Axis-aligned rectangle spanned by two opposite corners.
    ///
    /// # Errors
    ///
    /// Fails with [`PolygonError::DegenerateArea`] when the corners share a
    /// coordinate.
    pub fn rectangle(a: Point, b: Point) -> Result<Self, PolygonError> {
        let lo = a.min(b);
        let hi = a.max(b);
        Polygon::new([lo, Point::new(hi.x, lo.y), hi, Point::new(lo.x, hi.y)])
    }

    /// Regular `n`-gon inscribed in the circle of radius `r` around
    /// `center`, starting at angle `phase`.
    ///
    /// Used to approximate disk-shaped search-ring caps; scaling `r` by
    /// `1 / cos(π / n)` circumscribes the circle instead.
    ///
    /// # Errors
    ///
    /// Fails for `n < 3` or non-positive radius.
    pub fn regular(center: Point, r: f64, n: usize, phase: f64) -> Result<Self, PolygonError> {
        if n < 3 || r.is_nan() || r <= 0.0 {
            return Err(PolygonError::TooFewVertices);
        }
        let pts = (0..n).map(|i| {
            let th = phase + i as f64 / n as f64 * std::f64::consts::TAU;
            center + Vector::from_angle(th) * r
        });
        Polygon::new(pts)
    }

    /// The counter-clockwise vertex loop.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: constructed polygons have ≥ 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over the directed edges of the polygon.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Enclosed area (positive).
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices)
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Area centroid.
    pub fn centroid(&self) -> Point {
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        let n = self.vertices.len();
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        // a = 2·area > 0 by the CCW invariant.
        Point::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Tight axis-aligned bounding box.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_points(self.vertices.iter().copied()).expect("polygons are non-empty")
    }

    /// Returns `true` when the vertex loop is convex (collinear runs are
    /// tolerated).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        (0..n).all(|i| {
            orient2d(
                self.vertices[i],
                self.vertices[(i + 1) % n],
                self.vertices[(i + 2) % n],
            ) != Orientation::Clockwise
        })
    }

    /// Point-in-polygon test for simple polygons (crossing number), with
    /// boundary points counted as inside.
    pub fn contains(&self, p: Point) -> bool {
        // Boundary check first for robustness near edges.
        let tol = EPS * (1.0 + self.bounding_box().diagonal());
        if self.edges().any(|e| e.contains(p, tol)) {
            return true;
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[j];
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Clips the polygon by a closed half-plane (Sutherland–Hodgman).
    ///
    /// Exact for convex subjects. Returns `None` when the intersection is
    /// empty or degenerate (zero area). For non-convex subjects the result
    /// may merge components along boundary edges — `laacad-region` avoids
    /// this by convex-decomposing first.
    ///
    /// This convenience form allocates the result; the round engine's hot
    /// path uses [`Polygon::clip_halfplane_into`] over pooled buffers.
    pub fn clip_halfplane(&self, h: &HalfPlane) -> Option<Polygon> {
        let mut out = PolygonBuf::new();
        clip_halfplane_core(&self.vertices, h, &mut out.vertices).then_some(Polygon {
            vertices: out.vertices,
        })
    }

    /// [`Polygon::clip_halfplane`] into a reusable buffer: writes the
    /// clipped vertex loop into `out` (cleared first) and returns whether
    /// the intersection is a valid polygon. The result is identical to
    /// the allocating form, vertex for vertex.
    pub fn clip_halfplane_into(&self, h: &HalfPlane, out: &mut PolygonBuf) -> bool {
        clip_halfplane_core(&self.vertices, h, &mut out.vertices)
    }

    /// Intersection with a convex polygon: successive half-plane clips by
    /// the clip polygon's edges.
    ///
    /// Exact when `clip` is convex (callers must guarantee this; debug
    /// builds assert it). Returns `None` for empty/degenerate intersections.
    ///
    /// This convenience form allocates per clip edge; the hot path uses
    /// [`Polygon::clip_convex_into`], which ping-pongs between two
    /// reusable buffers instead.
    pub fn clip_convex(&self, clip: &Polygon) -> Option<Polygon> {
        let mut out = PolygonBuf::new();
        let mut tmp = PolygonBuf::new();
        self.clip_convex_into(clip, &mut out, &mut tmp)
            .then_some(Polygon {
                vertices: out.vertices,
            })
    }

    /// [`Polygon::clip_convex`] over caller-owned buffers: the result
    /// lands in `out` (with `tmp` as the ping-pong partner) and no heap
    /// allocation happens once the buffers have grown to size.
    pub fn clip_convex_into(
        &self,
        clip: &Polygon,
        out: &mut PolygonBuf,
        tmp: &mut PolygonBuf,
    ) -> bool {
        debug_assert!(clip.is_convex(), "clip polygon must be convex");
        clip_convex_core(&self.vertices, &clip.vertices, out, tmp)
    }

    /// [`Polygon::clip_convex_into`] with the convex clip loop held in a
    /// [`PolygonBuf`] (e.g. a pooled ring-cap polygon).
    pub fn clip_convex_buf_into(
        &self,
        clip: &PolygonBuf,
        out: &mut PolygonBuf,
        tmp: &mut PolygonBuf,
    ) -> bool {
        clip_convex_core(&self.vertices, &clip.vertices, out, tmp)
    }

    /// Builds a polygon from a vertex loop already in normalized form
    /// (counter-clockwise, consecutive duplicates merged, non-degenerate)
    /// — e.g. vertices copied out of another polygon or a clip-kernel
    /// output. Debug builds assert the invariants.
    pub fn from_normalized(vertices: Vec<Point>) -> Polygon {
        debug_assert!(vertices.len() >= 3, "normalized loop needs 3+ vertices");
        debug_assert!(
            signed_area(&vertices) > EPS,
            "normalized loop must be CCW with positive area"
        );
        Polygon { vertices }
    }

    /// The vertex farthest from `p`, with its distance.
    ///
    /// For convex regions the farthest point of the *region* from any point
    /// is attained at a vertex, so this computes
    /// `max_{v ∈ region} ‖v − p‖` — the sensing range `r_i` a node needs to
    /// cover its dominating region (paper Sec. III-B).
    pub fn farthest_vertex(&self, p: Point) -> (Point, f64) {
        let mut best = (self.vertices[0], self.vertices[0].distance_sq(p));
        for &v in &self.vertices[1..] {
            let d = v.distance_sq(p);
            if d > best.1 {
                best = (v, d);
            }
        }
        (best.0, best.1.sqrt())
    }

    /// Closest point of the polygon **boundary** to `p`.
    pub fn closest_boundary_point(&self, p: Point) -> Point {
        let mut best = self.vertices[0];
        let mut best_d = f64::INFINITY;
        for e in self.edges() {
            let q = e.closest_point(p);
            let d = q.distance_sq(p);
            if d < best_d {
                best_d = d;
                best = q;
            }
        }
        best
    }

    /// Translates all vertices by `v`.
    pub fn translated(&self, v: Vector) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| p + v).collect(),
        }
    }

    /// Uniformly scales the polygon about `center`.
    ///
    /// # Panics
    ///
    /// Panics (via the constructor invariants) if `factor` is zero or not
    /// finite — callers validate their scale factors.
    pub fn scaled_about(&self, center: Point, factor: f64) -> Polygon {
        assert!(factor.is_finite() && factor != 0.0, "invalid scale factor");
        let vertices: Vec<Point> = self
            .vertices
            .iter()
            .map(|&p| center + (p - center) * factor)
            .collect();
        Polygon::new(vertices).expect("scaling preserves polygon validity")
    }
}

impl std::fmt::Display for Polygon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "polygon[{} vertices, area {:.6}]",
            self.len(),
            self.area()
        )
    }
}

/// A reusable polygon vertex buffer.
///
/// Holds either nothing (empty) or a *normalized* counter-clockwise
/// vertex loop — the same invariants as [`Polygon`], maintained by the
/// clip kernels and [`PolygonBuf::assign`]. The buffer keeps its heap
/// capacity across reuses, which is what makes the subdivision hot path
/// allocation-free in steady state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolygonBuf {
    vertices: Vec<Point>,
}

impl PolygonBuf {
    /// An empty buffer (allocates on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current vertex loop (empty when no polygon is loaded).
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the buffer holds no polygon.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.vertices.clear();
    }

    /// Loads a vertex loop, applying exactly the [`Polygon::new`]
    /// normalization (duplicate merging, orientation, degeneracy checks).
    /// Returns `false` — leaving the buffer empty — when the loop does
    /// not form a valid polygon.
    pub fn assign(&mut self, vertices: impl IntoIterator<Item = Point>) -> bool {
        self.vertices.clear();
        for v in vertices {
            if !v.is_finite() {
                self.vertices.clear();
                return false;
            }
            if self
                .vertices
                .last()
                .is_none_or(|last| !last.approx_eq(v, EPS))
            {
                self.vertices.push(v);
            }
        }
        normalize_loop(&mut self.vertices)
    }

    /// Loads a vertex loop that is already normalized (e.g. copied from a
    /// [`Polygon`] or another buffer) without re-checking.
    pub fn copy_from(&mut self, vertices: &[Point]) {
        self.vertices.clear();
        self.vertices.extend_from_slice(vertices);
    }

    /// Loads the regular `n`-gon of [`Polygon::regular`], reusing the
    /// buffer's storage. Returns `false` for invalid parameters.
    pub fn assign_regular(&mut self, center: Point, r: f64, n: usize, phase: f64) -> bool {
        if n < 3 || r.is_nan() || r <= 0.0 {
            self.vertices.clear();
            return false;
        }
        self.assign((0..n).map(|i| {
            let th = phase + i as f64 / n as f64 * std::f64::consts::TAU;
            center + Vector::from_angle(th) * r
        }))
    }

    /// [`Polygon::clip_halfplane_into`] with a buffer as the subject.
    ///
    /// # Panics
    ///
    /// Panics when the buffer is empty (no polygon loaded).
    pub fn clip_halfplane_into(&self, h: &HalfPlane, out: &mut PolygonBuf) -> bool {
        assert!(!self.is_empty(), "clip subject buffer is empty");
        clip_halfplane_core(&self.vertices, h, &mut out.vertices)
    }

    /// Splits the held polygon along `h` in one pass: `outside` receives
    /// [`PolygonBuf::clip_halfplane_into`] by `h.complement()` and
    /// `inside`, when given, the clip by `h` — each vertex for vertex
    /// what that call would write, but with the bounding box and the
    /// signed distances computed once for both sides. `dist` is a
    /// reusable scratch vector. Returns the two clips' validity flags
    /// (`inside`'s is `false` when it is `None`).
    ///
    /// # Panics
    ///
    /// Panics when the buffer is empty (no polygon loaded).
    pub fn split_halfplane_into(
        &self,
        h: &HalfPlane,
        dist: &mut Vec<f64>,
        outside: &mut PolygonBuf,
        inside: Option<&mut PolygonBuf>,
    ) -> (bool, bool) {
        assert!(!self.is_empty(), "split subject buffer is empty");
        let subject = &self.vertices;
        let tol = clip_tol(subject);
        dist.clear();
        dist.extend(subject.iter().map(|&p| h.signed_distance(p)));
        // The complement's distances are the negated ones, exactly up to
        // the sign of a zero — and a zero distance only ever feeds a
        // crossing point that merges into the vertex it sits on.
        let out_ok = clip_walk(subject, tol, |i| -dist[i], &mut outside.vertices);
        let in_ok = inside.is_some_and(|b| clip_walk(subject, tol, |i| dist[i], &mut b.vertices));
        (out_ok, in_ok)
    }

    /// Materializes the held loop as an owned [`Polygon`].
    ///
    /// Returns `None` when the buffer is empty.
    pub fn to_polygon(&self) -> Option<Polygon> {
        (!self.is_empty()).then(|| Polygon::from_normalized(self.vertices.clone()))
    }
}

/// A free list of [`PolygonBuf`]s.
///
/// The bisector subdivision acquires one buffer per live face and
/// releases it when the face is split, accepted or discarded; after the
/// first few calls every acquire is served from the free list and the
/// whole subdivision performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct PolygonPool {
    free: Vec<PolygonBuf>,
}

impl PolygonPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool (or allocates a fresh one).
    pub fn acquire(&mut self) -> PolygonBuf {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse.
    pub fn release(&mut self, mut buf: PolygonBuf) {
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

/// The Sutherland–Hodgman half-plane clip over raw vertex loops, with the
/// [`Polygon::new`] normalization applied streamingly. Writes into `out`
/// (cleared first); returns whether the result is a valid polygon.
///
/// Byte-compatible with the historical `clip_halfplane` + `Polygon::new`
/// composition: the same vertices are produced in the same order, each
/// distance is computed exactly once per vertex, and the same duplicate /
/// orientation / degeneracy rules apply.
fn clip_halfplane_core(subject: &[Point], h: &HalfPlane, out: &mut Vec<Point>) -> bool {
    out.clear();
    if subject.is_empty() {
        return false;
    }
    clip_walk(
        subject,
        clip_tol(subject),
        |i| h.signed_distance(subject[i]),
        out,
    )
}

/// The boundary tolerance of a clip: [`EPS`] scaled by the subject's
/// bounding-box diagonal.
fn clip_tol(subject: &[Point]) -> f64 {
    let bb = Aabb::from_points(subject.iter().copied()).expect("clip subject is non-empty");
    EPS * (1.0 + bb.diagonal())
}

/// The clip walk over a non-empty `subject`, with the signed distance of
/// vertex `i` given by `dist(i)` (each index is asked for once). Vertices
/// with distance `≤ tol` are kept; crossing edges contribute their
/// interpolated boundary point.
#[inline]
fn clip_walk(
    subject: &[Point],
    tol: f64,
    dist: impl Fn(usize) -> f64,
    out: &mut Vec<Point>,
) -> bool {
    out.clear();
    // Push with the constructor's finiteness check and duplicate merge.
    let push = |out: &mut Vec<Point>, v: Point| -> bool {
        if !v.is_finite() {
            return false;
        }
        if out.last().is_none_or(|last| !last.approx_eq(v, EPS)) {
            out.push(v);
        }
        true
    };
    let n = subject.len();
    let d0 = dist(0);
    let mut da = d0;
    for i in 0..n {
        let a = subject[i];
        let (b, db) = if i + 1 == n {
            (subject[0], d0)
        } else {
            (subject[i + 1], dist(i + 1))
        };
        let a_in = da <= tol;
        let b_in = db <= tol;
        if a_in && !push(out, a) {
            out.clear();
            return false;
        }
        if a_in != b_in {
            // The edge crosses the boundary; da != db by construction.
            let t = da / (da - db);
            if !push(out, a.lerp(b, t.clamp(0.0, 1.0))) {
                out.clear();
                return false;
            }
        }
        da = db;
    }
    normalize_loop(out)
}

/// Iterated half-plane clips by `clip`'s edges, ping-ponging between
/// `out` and `tmp`. The result lands in `out`.
fn clip_convex_core(
    subject: &[Point],
    clip: &[Point],
    out: &mut PolygonBuf,
    tmp: &mut PolygonBuf,
) -> bool {
    out.vertices.clear();
    out.vertices.extend_from_slice(subject);
    let n = clip.len();
    for i in 0..n {
        let next = if i + 1 == n { clip[0] } else { clip[i + 1] };
        let Some(h) = HalfPlane::left_of(clip[i], next) else {
            out.vertices.clear();
            return false;
        };
        if !clip_halfplane_core(&out.vertices, &h, &mut tmp.vertices) {
            out.vertices.clear();
            return false;
        }
        std::mem::swap(&mut out.vertices, &mut tmp.vertices);
    }
    true
}

/// The tail of the [`Polygon::new`] normalization over an already
/// duplicate-merged loop: drop the closing duplicate, reject too-few /
/// zero-area loops, enforce counter-clockwise orientation.
fn normalize_loop(vs: &mut Vec<Point>) -> bool {
    while vs.len() >= 2 && vs[0].approx_eq(*vs.last().expect("len checked"), EPS) {
        vs.pop();
    }
    if vs.len() < 3 {
        vs.clear();
        return false;
    }
    let signed = signed_area(vs);
    if signed.abs() <= EPS {
        vs.clear();
        return false;
    }
    if signed < 0.0 {
        vs.reverse();
    }
    true
}

/// Signed (shoelace) area of a vertex loop; positive for counter-clockwise.
pub fn signed_area(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    if n < 3 {
        return 0.0;
    }
    let mut s = 0.0;
    // Anchor at vertex 0 for numerical stability with large coordinates.
    let o = vertices[0];
    for i in 1..n - 1 {
        s += cross3(o, vertices[i], vertices[i + 1]);
    }
    0.5 * s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap()
    }

    #[test]
    fn construction_normalizes_orientation() {
        let cw = Polygon::new([
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(cw.area() > 0.0);
        assert!(signed_area(cw.vertices()) > 0.0);
    }

    #[test]
    fn construction_rejects_degenerates() {
        assert_eq!(
            Polygon::new([Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap_err(),
            PolygonError::TooFewVertices
        );
        assert_eq!(
            Polygon::new([
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0)
            ])
            .unwrap_err(),
            PolygonError::DegenerateArea
        );
        assert_eq!(
            Polygon::new([
                Point::new(0.0, 0.0),
                Point::new(f64::NAN, 0.0),
                Point::new(1.0, 1.0)
            ])
            .unwrap_err(),
            PolygonError::NonFiniteVertex
        );
    }

    #[test]
    fn duplicate_and_closing_vertices_are_merged() {
        let p = Polygon::new([
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0), // closing duplicate
        ])
        .unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn area_centroid_perimeter_of_square() {
        let sq = unit_square();
        assert!((sq.area() - 1.0).abs() < 1e-12);
        assert!(sq.centroid().approx_eq(Point::new(0.5, 0.5), 1e-12));
        assert!((sq.perimeter() - 4.0).abs() < 1e-12);
        assert!(sq.is_convex());
    }

    #[test]
    fn containment_inside_outside_boundary() {
        let sq = unit_square();
        assert!(sq.contains(Point::new(0.5, 0.5)));
        assert!(sq.contains(Point::new(0.0, 0.5))); // edge
        assert!(sq.contains(Point::new(1.0, 1.0))); // corner
        assert!(!sq.contains(Point::new(1.5, 0.5)));
        assert!(!sq.contains(Point::new(-0.1, -0.1)));
    }

    #[test]
    fn concave_polygon_containment() {
        // L-shape.
        let l = Polygon::new([
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap();
        assert!(!l.is_convex());
        assert!(l.contains(Point::new(0.5, 1.5)));
        assert!(l.contains(Point::new(1.5, 0.5)));
        assert!(!l.contains(Point::new(1.5, 1.5)));
        assert!((l.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clip_halfplane_halves_the_square() {
        let sq = unit_square();
        let h = HalfPlane::closer_to(Point::new(0.0, 0.5), Point::new(1.0, 0.5)).unwrap();
        let left = sq.clip_halfplane(&h).unwrap();
        assert!((left.area() - 0.5).abs() < 1e-9);
        assert!(left.contains(Point::new(0.25, 0.5)));
        assert!(!left.contains(Point::new(0.75, 0.5)));
    }

    #[test]
    fn clip_halfplane_disjoint_returns_none() {
        let sq = unit_square();
        let h = HalfPlane::closer_to(Point::new(10.0, 0.0), Point::new(-10.0, 0.0)).unwrap();
        // Half-plane of points closer to x=10 side: x >= 0 plane... compute:
        // boundary x = 0? Midpoint (0,0) normal (-1,0): {p: -x <= 0} = x >= 0.
        // The square IS inside; use the complement to get a disjoint clip.
        assert!(sq.clip_halfplane(&h.complement()).is_none());
    }

    #[test]
    fn clip_convex_intersection_area() {
        let a = unit_square();
        let b = Polygon::rectangle(Point::new(0.5, 0.5), Point::new(2.0, 2.0)).unwrap();
        let i = a.clip_convex(&b).unwrap();
        assert!((i.area() - 0.25).abs() < 1e-9);
        let far = Polygon::rectangle(Point::new(5.0, 5.0), Point::new(6.0, 6.0)).unwrap();
        assert!(a.clip_convex(&far).is_none());
    }

    #[test]
    fn regular_polygon_approximates_circle() {
        let c = Point::new(1.0, 2.0);
        let p = Polygon::regular(c, 2.0, 64, 0.0).unwrap();
        assert!(p.is_convex());
        // Area approaches π r² from below.
        let area = p.area();
        assert!(area < std::f64::consts::PI * 4.0);
        assert!(area > std::f64::consts::PI * 4.0 * 0.99);
        assert!(p.centroid().approx_eq(c, 1e-9));
    }

    #[test]
    fn farthest_vertex_and_boundary_projection() {
        let sq = unit_square();
        let (v, d) = sq.farthest_vertex(Point::new(0.0, 0.0));
        assert_eq!(v, Point::new(1.0, 1.0));
        assert!((d - 2.0f64.sqrt()).abs() < 1e-12);
        let q = sq.closest_boundary_point(Point::new(0.5, 2.0));
        assert!(q.approx_eq(Point::new(0.5, 1.0), 1e-12));
        // Interior points project to the nearest edge.
        let q2 = sq.closest_boundary_point(Point::new(0.5, 0.9));
        assert!(q2.approx_eq(Point::new(0.5, 1.0), 1e-12));
    }

    #[test]
    fn translation_and_scaling() {
        let sq = unit_square();
        let t = sq.translated(Vector::new(2.0, 3.0));
        assert!(t.centroid().approx_eq(Point::new(2.5, 3.5), 1e-12));
        assert!((t.area() - 1.0).abs() < 1e-12);
        let s = sq.scaled_about(Point::new(0.5, 0.5), 2.0);
        assert!((s.area() - 4.0).abs() < 1e-12);
        assert!(s.centroid().approx_eq(Point::new(0.5, 0.5), 1e-12));
    }

    #[test]
    fn repeated_halfplane_clips_stay_valid() {
        // Shave a hexagon down by many random-ish half-planes; area must be
        // non-increasing and polygons remain convex.
        let mut poly = Polygon::regular(Point::new(0.0, 0.0), 1.0, 6, 0.1).unwrap();
        let mut prev_area = poly.area();
        for i in 0..8 {
            let th = i as f64 * 0.7;
            let h = HalfPlane::new(Vector::from_angle(th), 0.4).unwrap();
            match poly.clip_halfplane(&h) {
                Some(p) => {
                    assert!(p.area() <= prev_area + 1e-9);
                    assert!(p.is_convex());
                    prev_area = p.area();
                    poly = p;
                }
                None => break,
            }
        }
    }
}
