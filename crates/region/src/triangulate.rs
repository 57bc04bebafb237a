//! Ear-clipping triangulation with hole bridging.
//!
//! The decomposition pipeline is: bridge holes into the outer boundary to
//! get one simple polygon → ear-clip into triangles → (optionally) merge
//! triangles into convex pieces ([`crate::decompose`]). Correctness is
//! checked by area preservation and point-location property tests.

use laacad_geom::predicates::cross3;
use laacad_geom::{Point, Polygon};

/// A triangle produced by the triangulator (counter-clockwise).
pub type Triangle = [Point; 3];

/// Signed area of a triangle (positive = counter-clockwise).
fn tri_area(t: &Triangle) -> f64 {
    0.5 * cross3(t[0], t[1], t[2])
}

/// Returns `true` when `p` is strictly inside triangle `t` (CCW).
fn strictly_inside(t: &Triangle, p: Point) -> bool {
    let eps = 1e-12;
    cross3(t[0], t[1], p) > eps && cross3(t[1], t[2], p) > eps && cross3(t[2], t[0], p) > eps
}

/// Even–odd point-in-loop test. Works on bridged loops: the two coincident
/// bridge edges flip the parity twice, which is exactly right (both sides
/// of a bridge are interior).
fn point_in_loop(vs: &[Point], p: Point) -> bool {
    let n = vs.len();
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let a = vs[i];
        let b = vs[j];
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

/// Returns `true` when the candidate diagonal `prev → next` (for the ear
/// at index `i`) is admissible: it properly crosses no loop edge, no loop
/// vertex sits in its interior, and its midpoint is inside the loop.
///
/// This direct validation is what makes ear clipping robust on *bridged*
/// loops, whose duplicated vertices defeat the usual
/// reflex-vertex-in-triangle test.
fn diagonal_is_valid(vs: &[Point], i: usize) -> bool {
    let n = vs.len();
    let prev = vs[(i + n - 1) % n];
    let next = vs[(i + 1) % n];
    let d = next - prev;
    let len_sq = d.norm_sq();
    if len_sq <= 1e-24 {
        return false;
    }
    let eps = 1e-9;
    for j in 0..n {
        // Skip the two edges incident to the clipped vertex and the two
        // edges incident to the diagonal's endpoints.
        if j == i || (j + 1) % n == i || j == (i + 1) % n || (j + 1) % n == (i + n - 1) % n {
            continue;
        }
        let a = vs[j];
        let b = vs[(j + 1) % n];
        let e = b - a;
        let denom = d.cross(e);
        let qp = a - prev;
        if denom.abs() > 1e-15 {
            let t = qp.cross(e) / denom; // position along the diagonal
            let u = qp.cross(d) / denom; // position along the edge
                                         // Proper crossing, or an edge endpoint in the diagonal interior.
            if t > eps && t < 1.0 - eps && u > -eps && u < 1.0 + eps {
                // Allow touching when the contact point coincides with a
                // diagonal endpoint (can't happen with t interior) — so any
                // hit here invalidates.
                return false;
            }
        } else {
            // Parallel: reject collinear overlap beyond a shared endpoint.
            if qp.cross(d).abs() <= 1e-12 * (1.0 + len_sq.sqrt()) {
                // Collinear; check 1-D overlap of [prev,next] and [a,b].
                let proj = |p: Point| (p - prev).dot(d) / len_sq;
                let (mut s0, mut s1) = (proj(a), proj(b));
                if s0 > s1 {
                    std::mem::swap(&mut s0, &mut s1);
                }
                if s0 < 1.0 - eps && s1 > eps {
                    return false;
                }
            }
        }
    }
    // No vertex may sit in the open diagonal (T-junction).
    for (j, &p) in vs.iter().enumerate() {
        if j == i || j == (i + 1) % n || j == (i + n - 1) % n {
            continue;
        }
        let t = (p - prev).dot(d) / len_sq;
        if t > eps && t < 1.0 - eps {
            let dist = (d.cross(p - prev)).abs() / len_sq.sqrt();
            if dist <= 1e-12 * (1.0 + len_sq.sqrt()) {
                return false;
            }
        }
    }
    // The diagonal must run through the interior.
    point_in_loop(vs, prev.midpoint(next))
}

/// Ear-clips a simple CCW vertex loop into triangles.
///
/// Robust to collinear runs (zero-area ears are clipped away). Returns an
/// empty vector when the input loop is degenerate beyond repair.
fn ear_clip(loop_vertices: &[Point]) -> Vec<Triangle> {
    let mut vs: Vec<Point> = loop_vertices.to_vec();
    let mut out: Vec<Triangle> = Vec::with_capacity(vs.len().saturating_sub(2));
    let mut guard = 0usize;
    while vs.len() > 3 {
        let n = vs.len();
        guard += 1;
        if guard > 4 * n * n {
            // Numerically stuck (should not happen on valid inputs);
            // bail with what we have rather than loop forever.
            break;
        }
        let mut clipped = false;
        for i in 0..n {
            let prev = vs[(i + n - 1) % n];
            let cur = vs[i];
            let next = vs[(i + 1) % n];
            let t = [prev, cur, next];
            let a = tri_area(&t);
            if a < -1e-12 {
                continue; // reflex corner, not an ear
            }
            if a <= 1e-12 {
                // Collinear spike/needle: remove the middle vertex.
                vs.remove(i);
                clipped = true;
                break;
            }
            // Convex corner: it is an ear iff no other vertex lies strictly
            // inside it AND the diagonal is admissible (the latter is what
            // keeps the duplicated vertices of bridged loops honest).
            let blocked = (0..n)
                .filter(|&j| j != (i + n - 1) % n && j != i && j != (i + 1) % n)
                .any(|j| strictly_inside(&t, vs[j]))
                || !diagonal_is_valid(&vs, i);
            if !blocked {
                out.push(t);
                vs.remove(i);
                clipped = true;
                break;
            }
        }
        if !clipped {
            // Fall back: drop the sharpest reflex vertex to make progress.
            // This only triggers on numerically degenerate inputs.
            let n = vs.len();
            let (idx, _) = (0..n)
                .map(|i| {
                    let a = tri_area(&[vs[(i + n - 1) % n], vs[i], vs[(i + 1) % n]]);
                    (i, a.abs())
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty loop");
            vs.remove(idx);
        }
    }
    if vs.len() == 3 {
        let t = [vs[0], vs[1], vs[2]];
        if tri_area(&t) > 1e-12 {
            out.push(t);
        }
    }
    out
}

/// Subtracts a convex polygon `b` from a convex polygon `a`, returning a
/// convex decomposition of `a \\ b`.
///
/// The classic "peel by half-planes" construction: walk `b`'s edges; the
/// part of `a` outside the current edge (but inside all previously
/// processed edges) is one convex output piece; the rest carries on. Every
/// operation is a convex half-plane clip, so this is numerically tame —
/// which is exactly why the region pipeline subtracts *hole triangles*
/// from *outer triangles* instead of ear-clipping a bridged loop (bridged
/// loops carry duplicated vertices that defeat ear tests).
///
/// # Example
///
/// ```
/// use laacad_geom::{Point, Polygon};
/// use laacad_region::triangulate::convex_difference;
/// let a = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap();
/// let b = Polygon::rectangle(Point::new(1.0, 1.0), Point::new(3.0, 3.0)).unwrap();
/// let pieces = convex_difference(&a, &b);
/// let area: f64 = pieces.iter().map(|p| p.area()).sum();
/// assert!((area - 12.0).abs() < 1e-9);
/// ```
pub fn convex_difference(a: &Polygon, b: &Polygon) -> Vec<Polygon> {
    debug_assert!(b.is_convex(), "subtrahend must be convex");
    let mut out = Vec::new();
    let mut remainder = a.clone();
    let bn = b.vertices().len();
    for i in 0..bn {
        let Some(h) = laacad_geom::HalfPlane::left_of(b.vertices()[i], b.vertices()[(i + 1) % bn])
        else {
            continue;
        };
        if let Some(outside) = remainder.clip_halfplane(&h.complement()) {
            out.push(outside);
        }
        match remainder.clip_halfplane(&h) {
            Some(r) => remainder = r,
            None => return out, // nothing of `a` is left on b's side
        }
    }
    // `remainder` is now a ∩ b — removed by the subtraction.
    out
}

/// Triangulates a polygon with holes. Returns CCW triangles whose total
/// area equals `outer.area() − Σ hole.area()`.
///
/// # Example
///
/// ```
/// use laacad_geom::{Point, Polygon};
/// use laacad_region::triangulate::triangulate_with_holes;
/// let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap();
/// let hole = Polygon::rectangle(Point::new(1.0, 1.0), Point::new(2.0, 2.0)).unwrap();
/// let tris = triangulate_with_holes(&outer, &[hole]);
/// let area: f64 = tris.iter().map(|t| {
///     0.5 * ((t[1] - t[0]).cross(t[2] - t[0]))
/// }).sum();
/// assert!((area - 15.0).abs() < 1e-9);
/// ```
pub fn triangulate_with_holes(outer: &Polygon, holes: &[Polygon]) -> Vec<Triangle> {
    let mut pieces: Vec<Polygon> = ear_clip(outer.vertices())
        .into_iter()
        .filter_map(|t| Polygon::new(t).ok())
        .collect();
    for hole in holes {
        for ht in ear_clip(hole.vertices()) {
            let Ok(hole_tri) = Polygon::new(ht) else {
                continue;
            };
            pieces = pieces
                .into_iter()
                .flat_map(|p| convex_difference(&p, &hole_tri))
                .collect();
        }
    }
    // Fan-triangulate the convex pieces back into triangles.
    let mut out: Vec<Triangle> = Vec::with_capacity(2 * pieces.len());
    for p in &pieces {
        let vs = p.vertices();
        for k in 1..vs.len() - 1 {
            let t = [vs[0], vs[k], vs[k + 1]];
            if tri_area(&t) > 1e-12 {
                out.push(t);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_area(tris: &[Triangle]) -> f64 {
        tris.iter().map(tri_area).sum()
    }

    #[test]
    fn triangle_passes_through() {
        let t = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let tris = ear_clip(&t);
        assert_eq!(tris.len(), 1);
        assert!((total_area(&tris) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn square_triangulates_into_two() {
        let sq = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(2.0, 2.0)).unwrap();
        let tris = ear_clip(sq.vertices());
        assert_eq!(tris.len(), 2);
        assert!((total_area(&tris) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn concave_polygon_area_preserved() {
        // L-shape, area 3.
        let l = Polygon::new([
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap();
        let tris = ear_clip(l.vertices());
        assert_eq!(tris.len(), 4);
        assert!((total_area(&tris) - 3.0).abs() < 1e-12);
        for t in &tris {
            assert!(tri_area(t) > 0.0, "triangles must be CCW");
        }
    }

    #[test]
    fn star_polygon_area_preserved() {
        // 5-pointed star (highly concave).
        let mut pts = Vec::new();
        for i in 0..10 {
            let th = i as f64 / 10.0 * std::f64::consts::TAU;
            let r = if i % 2 == 0 { 2.0 } else { 0.8 };
            pts.push(Point::new(r * th.cos(), r * th.sin()));
        }
        let star = Polygon::new(pts).unwrap();
        let tris = ear_clip(star.vertices());
        assert!((total_area(&tris) - star.area()).abs() < 1e-9);
        assert_eq!(tris.len(), star.len() - 2);
    }

    #[test]
    fn square_with_center_hole() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap();
        let hole = Polygon::rectangle(Point::new(1.5, 1.5), Point::new(2.5, 2.5)).unwrap();
        let tris = triangulate_with_holes(&outer, std::slice::from_ref(&hole));
        assert!((total_area(&tris) - 15.0).abs() < 1e-9);
        // No triangle's centroid may fall inside the hole.
        for t in &tris {
            let c = Point::new(
                (t[0].x + t[1].x + t[2].x) / 3.0,
                (t[0].y + t[1].y + t[2].y) / 3.0,
            );
            assert!(!hole.contains(c) || hole.closest_boundary_point(c).distance(c) < 1e-9);
        }
    }

    #[test]
    fn two_holes_area_preserved() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 6.0)).unwrap();
        let h1 = Polygon::rectangle(Point::new(1.0, 1.0), Point::new(3.0, 3.0)).unwrap();
        let h2 = Polygon::rectangle(Point::new(6.0, 2.0), Point::new(8.0, 5.0)).unwrap();
        let tris = triangulate_with_holes(&outer, &[h1, h2]);
        assert!((total_area(&tris) - (60.0 - 4.0 - 6.0)).abs() < 1e-9);
    }

    #[test]
    fn bridged_loop_is_usable_even_with_offset_hole() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(8.0, 8.0)).unwrap();
        // Hole near the right edge (bridge is short).
        let hole = Polygon::new([
            Point::new(6.0, 3.0),
            Point::new(7.0, 3.5),
            Point::new(6.5, 5.0),
        ])
        .unwrap();
        let tris = triangulate_with_holes(&outer, std::slice::from_ref(&hole));
        assert!((total_area(&tris) - (64.0 - hole.area())).abs() < 1e-9);
    }
}
