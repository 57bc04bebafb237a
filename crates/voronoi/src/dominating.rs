//! Exact dominating regions `V^k_i` via recursive bisector subdivision.
//!
//! The region `V^k_i = { v : |{ j : ‖v−u_j‖ < ‖v−u_i‖ }| ≤ k−1 }` (paper
//! Eq. 7) is carved out of a convex domain by splitting along one
//! competitor bisector at a time:
//!
//! * on the center's side of `bis(u_i, u_j)`, competitor `j` is *never*
//!   strictly closer → drop `j`;
//! * on `j`'s side it *always* is → drop `j` and charge 1 against the
//!   budget `k − 1`;
//! * faces whose budget goes negative are discarded; faces whose remaining
//!   competitor count fits in the budget are accepted wholesale.
//!
//! Every face is convex (intersection of half-planes with a convex
//! domain), so the output is a convex decomposition of `V^k_i ∩ domain`
//! whose vertices feed Welzl's algorithm directly — which is exactly what
//! Algorithm 1 needs (Chebyshev center + circumradius).

use laacad_geom::polygon::signed_area;
use laacad_geom::{
    min_enclosing_circle, min_enclosing_circle_in_place, Aabb, Circle, DiagonalTol, HalfPlane,
    Point, Polygon, PolygonBuf, PolygonPool,
};
use laacad_region::Region;

/// A node's dominating region: a set of convex polygons whose union is
/// `V^k_i ∩ domain`.
///
/// # Example
///
/// ```
/// use laacad_geom::{Point, Polygon};
/// use laacad_voronoi::dominating::dominating_region;
/// let sites = vec![Point::new(0.2, 0.5), Point::new(0.8, 0.5)];
/// let domain = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
/// let r1 = dominating_region(0, &sites, 1, &domain);
/// assert!((r1.area() - 0.5).abs() < 1e-9);   // order-1: half the square
/// let r2 = dominating_region(0, &sites, 2, &domain);
/// assert!((r2.area() - 1.0).abs() < 1e-9);   // k = N: everything
/// ```
#[derive(Debug, Clone, Default)]
pub struct DominatingRegion {
    pieces: Vec<Polygon>,
}

impl DominatingRegion {
    /// The convex pieces whose union is the region.
    #[inline]
    pub fn pieces(&self) -> &[Polygon] {
        &self.pieces
    }

    /// Returns `true` when the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Total area (pieces are interior-disjoint by construction).
    pub fn area(&self) -> f64 {
        self.pieces.iter().map(|p| p.area()).sum()
    }

    /// All piece vertices (the extreme points of the region).
    pub fn vertices(&self) -> impl Iterator<Item = Point> + '_ {
        self.pieces
            .iter()
            .flat_map(|p| p.vertices().iter().copied())
    }

    /// Membership test.
    pub fn contains(&self, p: Point) -> bool {
        self.pieces.iter().any(|piece| piece.contains(p))
    }

    /// The Chebyshev disk: center = Chebyshev center (Def. 2), radius =
    /// circumradius `R_i` of the region. Computed with Welzl's algorithm
    /// over the piece vertices, exactly as the paper prescribes
    /// (Sec. IV-B: "we apply Welzl's algorithm … taking the vertices of
    /// the region as the input").
    pub fn chebyshev_disk(&self) -> Option<Circle> {
        if self.is_empty() {
            return None;
        }
        let vs: Vec<Point> = self.vertices().collect();
        Some(min_enclosing_circle(&vs))
    }

    /// Farthest distance from `p` to the region — the sensing range `r_i`
    /// node `i` needs from position `p` to cover the whole region
    /// (`r_i = max_{v ∈ V^k_i} ‖v − u_i‖`, Sec. III-B).
    ///
    /// Returns 0 for an empty region.
    pub fn farthest_distance(&self, p: Point) -> f64 {
        self.pieces
            .iter()
            .map(|piece| piece.farthest_vertex(p).1)
            .fold(0.0, f64::max)
    }

    /// Merges another region's pieces into this one.
    pub fn extend(&mut self, other: DominatingRegion) {
        self.pieces.extend(other.pieces);
    }

    /// The Chebyshev disk and the farthest distance from `p`, computed in
    /// one pass over the piece vertices (the round engine needs both; the
    /// separate [`DominatingRegion::chebyshev_disk`] +
    /// [`DominatingRegion::farthest_distance`] calls each re-walked every
    /// vertex). One shared implementation with
    /// [`PieceSet::disk_and_farthest`].
    pub fn disk_and_farthest(&self, p: Point) -> (Option<Circle>, f64) {
        let mut welzl = Vec::new();
        disk_and_farthest_over(
            self.pieces
                .iter()
                .flat_map(|piece| piece.vertices())
                .copied(),
            p,
            &mut welzl,
        )
    }
}

/// Shared one-pass disk + farthest-distance kernel: fills `welzl` from
/// `vertices` while tracking the maximum squared distance to `p`, then
/// runs Welzl in place. Returns `(None, 0.0)` for an empty input.
fn disk_and_farthest_over(
    vertices: impl Iterator<Item = Point>,
    p: Point,
    welzl: &mut Vec<Point>,
) -> (Option<Circle>, f64) {
    welzl.clear();
    let mut far_sq: f64 = 0.0;
    for v in vertices {
        far_sq = far_sq.max(v.distance_sq(p));
        welzl.push(v);
    }
    if welzl.is_empty() {
        return (None, 0.0);
    }
    (Some(min_enclosing_circle_in_place(welzl)), far_sq.sqrt())
}

/// Flat arena of convex pieces: every vertex in one buffer, pieces as
/// ranges into it.
///
/// This is the pooled counterpart of [`DominatingRegion`]: the
/// subdivision appends accepted faces here without materializing owned
/// [`Polygon`]s, so consecutive region computations reuse one allocation.
/// Pieces appear in exactly the order (and with exactly the vertices)
/// the owned form would produce.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PieceSet {
    verts: Vec<Point>,
    /// End offset of each piece in `verts` (piece `i` spans
    /// `ends[i-1]..ends[i]`, with an implicit 0 start).
    ends: Vec<usize>,
}

impl PieceSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the set, keeping capacity.
    pub fn clear(&mut self) {
        self.verts.clear();
        self.ends.clear();
    }

    /// Number of pieces.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the set holds no pieces.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th piece's vertex loop.
    #[inline]
    pub fn piece(&self, i: usize) -> &[Point] {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.verts[lo..self.ends[i]]
    }

    /// Iterator over the piece vertex loops, in insertion order.
    pub fn pieces(&self) -> impl Iterator<Item = &[Point]> + '_ {
        (0..self.len()).map(|i| self.piece(i))
    }

    /// All piece vertices, flattened in piece order (the extreme points
    /// of the region — Welzl's input).
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.verts
    }

    /// Appends a normalized convex loop as a new piece.
    fn push_piece(&mut self, vertices: &[Point]) {
        self.verts.extend_from_slice(vertices);
        self.ends.push(self.verts.len());
    }

    /// Total area of the pieces.
    pub fn area(&self) -> f64 {
        self.pieces().map(signed_area).sum()
    }

    /// The Chebyshev disk and the farthest distance from `p`, in one pass.
    ///
    /// `welzl` is a reusable scratch vector (cleared and refilled here) —
    /// after warm-up the computation allocates nothing. Results are
    /// bit-identical to [`DominatingRegion::chebyshev_disk`] /
    /// [`DominatingRegion::farthest_distance`] on the materialized region.
    pub fn disk_and_farthest(&self, p: Point, welzl: &mut Vec<Point>) -> (Option<Circle>, f64) {
        disk_and_farthest_over(self.verts.iter().copied(), p, welzl)
    }

    /// Materializes the pieces as an owned [`DominatingRegion`].
    pub fn to_region(&self) -> DominatingRegion {
        DominatingRegion {
            pieces: self
                .pieces()
                .map(|vs| Polygon::from_normalized(vs.to_vec()))
                .collect(),
        }
    }
}

impl std::fmt::Display for DominatingRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dominating-region[{} pieces, area {:.6}]",
            self.pieces.len(),
            self.area()
        )
    }
}

/// How a competitor's bisector relates to a face.
enum Classification {
    /// The whole face is at least as close to the center: drop competitor.
    CenterSide,
    /// The whole face is strictly closer to the competitor: charge budget.
    CompetitorSide,
    /// The bisector cuts the face.
    Cuts,
}

/// Bisectors classified per pass over a face's vertices.
const LANES: usize = 4;

/// Classifies `face` against the bisectors `hs` (one per lane) from the
/// extremes of each signed distance over its vertices, taken in one
/// branch-free pass: a vertex beyond `-tol` is strictly closer to the
/// competitor, one beyond `tol` strictly closer to the center.
///
/// Each lane runs its own min/max chain over the vertices in order, with
/// [`HalfPlane::signed_distance`]'s expression, so a lane's verdict is
/// the one a single-bisector pass gives; the lanes share the vertex
/// loads and overlap their latencies. The accumulators start at `±∞` and
/// only ever take a non-NaN distance, so `if d < lo { d } else { lo }` is
/// `lo.min(d)`: a NaN distance is skipped and counts for neither side —
/// without the NaN blend `f64::min` compiles to.
///
/// The verdicts are first taken against both bounds of the tolerance
/// ([`DiagonalTol`]): `lo < -hi` implies `lo < -tol`, which implies
/// `lo < -lo`, and likewise on the other side, so where the two bounds
/// agree they give the measured tolerance's verdict. Only a batch where
/// they disagree measures it.
fn classify_batch(
    face: &[Point],
    tol: &DiagonalTol,
    hs: &[HalfPlane; LANES],
) -> [Classification; LANES] {
    let nx = hs.map(|h| h.normal().x);
    let ny = hs.map(|h| h.normal().y);
    let off = hs.map(|h| h.offset());
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    for &v in face {
        for l in 0..LANES {
            let d = nx[l] * v.x + ny[l] * v.y - off[l];
            lo[l] = if d < lo[l] { d } else { lo[l] };
            hi[l] = if d > hi[l] { d } else { hi[l] };
        }
    }
    let verdicts = |t: f64| {
        std::array::from_fn(|l| match (lo[l] < -t, hi[l] > t) {
            (true, true) => Classification::Cuts,
            (true, false) => Classification::CompetitorSide,
            (false, _) => Classification::CenterSide,
        })
    };
    let (sure, maybe) = (tol.hi(), tol.lo());
    let agree = (0..LANES)
        .all(|l| (lo[l] < -sure) == (lo[l] < -maybe) && (hi[l] > sure) == (hi[l] > maybe));
    verdicts(if agree { sure } else { tol.exact() })
}

/// The face-classification tolerance: a fixed fraction of the face's
/// bounding-box diagonal, shared by every competitor of the face and
/// measured only when a verdict needs it.
fn classify_tol(bb: &Aabb) -> DiagonalTol {
    bb.diagonal_tol(1e-12)
}

/// Reusable buffers for the bisector subdivision.
///
/// The subdivision used to be a recursive function that allocated a
/// fresh `rest`-competitor vector at every tree node; the explicit
/// worklist below stores all pending faces in one stack and all
/// competitor sublists in one bisector list. Faces live in pooled
/// [`PolygonBuf`]s ([`PolygonPool`]) and are clipped in place, so after
/// warm-up a full subdivision performs **zero** heap allocations — the
/// form the round engine's hot path relies on.
#[derive(Debug, Clone, Default)]
pub struct SubdivisionScratch {
    stack: Vec<WorkItem>,
    /// Competitor bisectors (`closer_to(competitor, center)`), loaded
    /// **once** per region computation: the bisector depends only on the
    /// competitor and the center, so recomputing it at every tree node —
    /// a normalization (square root) per classification — would repeat
    /// identical work thousands of times per node view. The first
    /// `loaded` entries are the sorted top-level list (kept across the
    /// subdivisions of one region's domain pieces); each subdivision
    /// appends its sublists behind them and truncates back.
    bisectors: Vec<HalfPlane>,
    loaded: usize,
    /// Signed distances of a face's vertices, shared by both sides of a
    /// split.
    dist: Vec<f64>,
    pool: PolygonPool,
}

impl SubdivisionScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug, Clone)]
struct WorkItem {
    face: PolygonBuf,
    budget: usize,
    /// Competitor sublist, as a range into the call's bisector list.
    lo: usize,
    hi: usize,
}

fn subdivide(
    domain: PolygonBuf,
    budget: usize,
    scratch: &mut SubdivisionScratch,
    out: &mut PieceSet,
) {
    // `scratch.bisectors[..loaded]` holds the top-level competitor list
    // (placed there by a load); deeper sublists are appended behind it.
    let stack = &mut scratch.stack;
    let bisectors = &mut scratch.bisectors;
    let pool = &mut scratch.pool;
    let dist = &mut scratch.dist;
    let loaded = scratch.loaded;
    debug_assert_eq!(bisectors.len(), loaded, "bisectors are loaded");
    stack.push(WorkItem {
        face: domain,
        budget,
        lo: 0,
        hi: loaded,
    });
    while let Some(item) = stack.pop() {
        let WorkItem {
            face,
            mut budget,
            lo,
            hi,
        } = item;
        // A face with no competitors left to resolve is accepted as-is —
        // no bounding box, no classification pass.
        if hi == lo {
            out.push_piece(face.vertices());
            pool.release(face);
            continue;
        }
        // Resolve competitors against this face, `LANES` at a time; the
        // cutting ones become the sublist for this face's children, in
        // competitor order. Verdicts are acted on in order, so a discard
        // comes at the same competitor-side verdict as one at a time
        // would give (a batch's later lanes are computed and ignored; a
        // short last batch pads with its first bisector, also ignored).
        let cut_lo = bisectors.len();
        let mut discard = false;
        let bb = Aabb::from_points(face.vertices().iter().copied()).expect("faces are non-empty");
        let tol = classify_tol(&bb);
        let mut j = lo;
        'classify: while j < hi {
            let n = (hi - j).min(LANES);
            let mut hs = [bisectors[j]; LANES];
            hs[..n].copy_from_slice(&bisectors[j..j + n]);
            let verdicts = classify_batch(face.vertices(), &tol, &hs);
            for (&h, verdict) in hs[..n].iter().zip(verdicts) {
                match verdict {
                    Classification::CenterSide => {}
                    Classification::CompetitorSide => {
                        if budget == 0 {
                            discard = true; // too many strictly-closer competitors
                            break 'classify;
                        }
                        budget -= 1;
                    }
                    Classification::Cuts => bisectors.push(h),
                }
            }
            j += n;
        }
        let cut_hi = bisectors.len();
        if discard {
            bisectors.truncate(cut_lo);
            pool.release(face);
            continue;
        }
        if cut_hi - cut_lo <= budget {
            // Even if every cutting competitor were closer everywhere,
            // the budget holds: accept the whole face.
            bisectors.truncate(cut_lo);
            out.push_piece(face.vertices());
            pool.release(face);
            continue;
        }
        // Split along the first cutting bisector; children resolve the
        // remaining cutting competitors. (LIFO stack: push the
        // center-side child first so the competitor side is processed
        // first, matching the original recursion's piece order.) `h`
        // contains the points closer to the competitor; the center side
        // is its complement.
        let h = bisectors[cut_lo];
        let mut center_side = pool.acquire();
        let mut comp_side = (budget > 0).then(|| pool.acquire());
        let (center_ok, comp_ok) =
            face.split_halfplane_into(&h, &bb, dist, &mut center_side, comp_side.as_mut());
        if center_ok {
            stack.push(WorkItem {
                face: center_side,
                budget,
                lo: cut_lo + 1,
                hi: cut_hi,
            });
        } else {
            pool.release(center_side);
        }
        if let Some(comp_side) = comp_side {
            if comp_ok {
                stack.push(WorkItem {
                    face: comp_side,
                    budget: budget - 1,
                    lo: cut_lo + 1,
                    hi: cut_hi,
                });
            } else {
                pool.release(comp_side);
            }
        }
        pool.release(face);
    }
    bisectors.truncate(loaded);
}

/// Computes the dominating region `V^k_i ∩ domain` of `sites[center]`.
///
/// `sites` lists the center and its competitors (extra points are harmless
/// — they only matter if their bisectors reach the domain). `domain` must
/// be convex; for non-convex target areas use
/// [`dominating_region_in_region`].
///
/// # Panics
///
/// Panics if `k == 0` or `center` is out of bounds.
pub fn dominating_region(
    center: usize,
    sites: &[Point],
    k: usize,
    domain: &Polygon,
) -> DominatingRegion {
    let mut pieces = PieceSet::new();
    dominating_region_pooled(
        center,
        sites,
        k,
        domain.vertices(),
        &mut SubdivisionScratch::new(),
        &mut pieces,
    );
    pieces.to_region()
}

/// The allocation-free core of [`dominating_region`]: carves
/// `V^k_i ∩ domain` through pooled polygon buffers and **appends** the
/// resulting convex pieces to `out` without materializing owned
/// polygons. `domain` is a normalized convex CCW vertex loop (e.g.
/// [`Polygon::vertices`] or a clip-kernel output). After warm-up the
/// whole computation performs zero heap allocations.
///
/// Piece order and vertex values are identical to the owned forms.
///
/// # Panics
///
/// Panics if `k == 0` or `center` is out of bounds.
pub fn dominating_region_pooled(
    center: usize,
    sites: &[Point],
    k: usize,
    domain: &[Point],
    scratch: &mut SubdivisionScratch,
    out: &mut PieceSet,
) {
    load_site_bisectors(center, sites, scratch);
    dominating_region_loaded(k, domain, scratch, out);
}

/// [`dominating_region_pooled`] against the bisectors of the last load
/// ([`load_site_bisectors`] or [`load_bisectors`]): callers carving one
/// region over several domain pieces load once, and callers that already
/// hold the bisectors skip computing them.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn dominating_region_loaded(
    k: usize,
    domain: &[Point],
    scratch: &mut SubdivisionScratch,
    out: &mut PieceSet,
) {
    assert!(k >= 1, "coverage degree k must be at least 1");
    let mut root = scratch.pool.acquire();
    root.copy_from(domain);
    subdivide(root, k - 1, scratch, out);
}

/// Loads every competitor's bisector (`closer_to(competitor, center)`)
/// for the subdivisions that follow, in split order.
///
/// Each bisector is computed once. Co-located sites have no bisector
/// (`closer_to` returns `None`) and are never strictly closer anywhere —
/// exactly the `CenterSide` verdict a per-face classification would give
/// them — so they are dropped up front.
///
/// # Panics
///
/// Panics if `center` is out of bounds.
pub fn load_site_bisectors(center: usize, sites: &[Point], scratch: &mut SubdivisionScratch) {
    let u = sites[center];
    load_bisectors(
        u,
        sites
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != center)
            .filter_map(|(_, &s)| HalfPlane::closer_to(s, u)),
        scratch,
    );
}

/// Loads precomputed competitor bisectors, each `closer_to(competitor,
/// u)` and given in competitor order, for the subdivisions that follow.
/// The list is sorted exactly as [`load_site_bisectors`] sorts it, so
/// the same competitors in the same order give the same pieces.
///
/// Near-first split order: the signed distance of a bisector at the
/// center is `+d/2` (the center lies outside the competitor's
/// half-plane), so ascending order puts the nearest competitors first.
/// Near bisectors carve the faces around the center early; the far
/// competitors then resolve as whole-face verdicts on the small faces
/// that remain. A far-first order does about twice the work (twice the
/// faces and classifications at k = 4). Ordering affects only the work
/// and the piece decomposition, never the region itself. The comparator
/// recomputes its keys (a dot product each): a buffer of precomputed
/// keys would live in every session's scratch for no measurable gain.
pub fn load_bisectors(
    u: Point,
    bisectors: impl IntoIterator<Item = HalfPlane>,
    scratch: &mut SubdivisionScratch,
) {
    scratch.bisectors.clear();
    scratch.bisectors.extend(bisectors);
    scratch
        .bisectors
        .sort_unstable_by(|a, b| a.signed_distance(u).total_cmp(&b.signed_distance(u)));
    scratch.loaded = scratch.bisectors.len();
}

/// Computes `V^k_i ∩ A` for a (possibly non-convex, holed) target area by
/// running the subdivision on each convex piece of the region's cached
/// decomposition and merging the results.
pub fn dominating_region_in_region(
    center: usize,
    sites: &[Point],
    k: usize,
    area: &Region,
) -> DominatingRegion {
    let mut out = DominatingRegion::default();
    for piece in area.convex_pieces() {
        out.extend(dominating_region(center, sites, k, piece));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::in_dominating_region;
    use laacad_region::sampling::SplitMix64;

    fn unit_domain() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap()
    }

    #[test]
    fn order1_matches_voronoi_cell() {
        let sites = vec![
            Point::new(0.2, 0.3),
            Point::new(0.7, 0.6),
            Point::new(0.4, 0.9),
            Point::new(0.9, 0.1),
        ];
        let domain = unit_domain();
        for c in 0..sites.len() {
            let dr = dominating_region(c, &sites, 1, &domain);
            let cell = crate::cell::voronoi_cell(c, &sites, &domain);
            let cell_area = cell.map(|p| p.area()).unwrap_or(0.0);
            assert!(
                (dr.area() - cell_area).abs() < 1e-9,
                "site {c}: {} vs {}",
                dr.area(),
                cell_area
            );
        }
    }

    #[test]
    fn k_equals_n_covers_domain() {
        let sites = vec![
            Point::new(0.2, 0.3),
            Point::new(0.7, 0.6),
            Point::new(0.4, 0.9),
        ];
        let domain = unit_domain();
        for c in 0..sites.len() {
            let dr = dominating_region(c, &sites, sites.len(), &domain);
            assert!((dr.area() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dominating_regions_cover_each_point_k_times() {
        // Σ_i area(V^k_i) = k · |domain| — each point belongs to exactly k
        // dominating regions (generic position).
        let sites = vec![
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.2),
            Point::new(0.5, 0.5),
            Point::new(0.2, 0.8),
            Point::new(0.8, 0.9),
        ];
        let domain = unit_domain();
        for k in 1..=4usize {
            let total: f64 = (0..sites.len())
                .map(|c| dominating_region(c, &sites, k, &domain).area())
                .sum();
            assert!((total - k as f64).abs() < 1e-6, "k={k}: total {total}");
        }
    }

    #[test]
    fn membership_matches_brute_force() {
        let mut rng = SplitMix64::new(2024);
        let sites: Vec<Point> = (0..9)
            .map(|_| Point::new(rng.next_f64(), rng.next_f64()))
            .collect();
        let domain = unit_domain();
        for k in 1..=4usize {
            for c in [0usize, 3, 8] {
                let dr = dominating_region(c, &sites, k, &domain);
                for _ in 0..400 {
                    let v = Point::new(rng.next_f64(), rng.next_f64());
                    let expect = in_dominating_region(c, &sites, k, v);
                    let got = dr.contains(v);
                    if expect != got {
                        // Tolerate only boundary points.
                        let dc = sites[c].distance(v);
                        let near_tie = sites
                            .iter()
                            .enumerate()
                            .any(|(j, s)| j != c && (s.distance(v) - dc).abs() < 1e-7);
                        assert!(near_tie, "k={k} c={c} v={v}: brute {expect} got {got}");
                    }
                }
            }
        }
    }

    #[test]
    fn colocated_cluster_shares_everything() {
        // Three co-located sites with k = 3: each dominates the whole
        // domain (none of the twins is ever strictly closer).
        let p = Point::new(0.5, 0.5);
        let sites = vec![p, p, p];
        let domain = unit_domain();
        for c in 0..3 {
            let dr = dominating_region(c, &sites, 3, &domain);
            assert!((dr.area() - 1.0).abs() < 1e-9, "site {c}");
            // Even k = 1 gives everything: strict dominance never happens.
            let dr1 = dominating_region(c, &sites, 1, &domain);
            assert!((dr1.area() - 1.0).abs() < 1e-9, "site {c} k=1");
        }
    }

    #[test]
    fn chebyshev_disk_encloses_region() {
        let sites = vec![
            Point::new(0.3, 0.4),
            Point::new(0.6, 0.7),
            Point::new(0.8, 0.2),
        ];
        let domain = unit_domain();
        let dr = dominating_region(0, &sites, 2, &domain);
        let disk = dr.chebyshev_disk().unwrap();
        for v in dr.vertices() {
            assert!(disk.center.distance(v) <= disk.radius + 1e-7);
        }
        // Circumradius from the Chebyshev center is minimal: moving the
        // center anywhere else cannot reduce the farthest distance.
        let r_at_center = dr.farthest_distance(disk.center);
        assert!((r_at_center - disk.radius).abs() < 1e-7);
        for q in [
            Point::new(disk.center.x + 0.05, disk.center.y),
            Point::new(disk.center.x, disk.center.y - 0.05),
        ] {
            assert!(dr.farthest_distance(q) >= disk.radius - 1e-9);
        }
    }

    #[test]
    fn pieces_are_interior_disjoint() {
        let mut rng = SplitMix64::new(7);
        let sites: Vec<Point> = (0..7)
            .map(|_| Point::new(rng.next_f64(), rng.next_f64()))
            .collect();
        let dr = dominating_region(2, &sites, 3, &unit_domain());
        // Monte-Carlo: no sample point may fall strictly inside 2+ pieces.
        for _ in 0..2000 {
            let v = Point::new(rng.next_f64(), rng.next_f64());
            let strictly_in = dr
                .pieces()
                .iter()
                .filter(|p| p.contains(v) && p.closest_boundary_point(v).distance(v) > 1e-9)
                .count();
            assert!(strictly_in <= 1, "{v} in {strictly_in} interiors");
        }
    }

    #[test]
    fn region_with_hole_excludes_hole_area() {
        let outer = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let hole = Polygon::rectangle(Point::new(0.4, 0.4), Point::new(0.6, 0.6)).unwrap();
        let area = Region::with_holes(outer, vec![hole]).unwrap();
        let sites = vec![Point::new(0.2, 0.5), Point::new(0.8, 0.5)];
        let dr = dominating_region_in_region(0, &sites, 2, &area);
        // k = N ⇒ V = whole free region.
        assert!((dr.area() - area.area()).abs() < 1e-6);
        assert!(!dr.contains(Point::new(0.5, 0.5)));
    }

    #[test]
    fn split_order_puts_the_nearest_competitor_first() {
        // The sort key `closer_to(s, u).signed_distance(u)` is +d/2: the
        // center lies outside every competitor's half-plane. Ascending
        // order is therefore near-first.
        let u = Point::new(0.5, 0.5);
        let sites = vec![
            Point::new(0.9, 0.1),
            u,
            Point::new(0.1, 0.95),
            Point::new(0.55, 0.45), // the nearest competitor
            Point::new(0.2, 0.6),
        ];
        let mut scratch = SubdivisionScratch::new();
        load_site_bisectors(1, &sites, &mut scratch);
        assert_eq!(
            scratch.bisectors[0],
            HalfPlane::closer_to(sites[3], u).unwrap(),
            "the first bisector belongs to the nearest competitor"
        );
        let keys: Vec<f64> = scratch
            .bisectors
            .iter()
            .map(|h| h.signed_distance(u))
            .collect();
        for (h, &key) in scratch.bisectors.iter().zip(&keys) {
            let s = sites
                .iter()
                .find(|&&s| HalfPlane::closer_to(s, u) == Some(*h))
                .unwrap();
            assert!((key - 0.5 * s.distance(u)).abs() < 1e-12, "key {key} ≠ d/2");
        }
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys {keys:?}");
    }

    #[test]
    fn bracketed_classification_matches_the_measured_tolerance() {
        let code = |c: Classification| match c {
            Classification::CenterSide => 0u8,
            Classification::CompetitorSide => 1,
            Classification::Cuts => 2,
        };
        let ulp = |x: f64, up: bool| {
            let b = x.to_bits();
            f64::from_bits(if (x > 0.0) == up { b + 1 } else { b - 1 })
        };
        // Faces spanning x ∈ [0, 1] whose y extremes are planted around
        // ±lo, ±hi and ±tol of their own box, against `{y ≤ 0}` and its
        // complement (signed distance ±y).
        let up = HalfPlane::new(laacad_geom::Vector::new(0.0, 1.0), 0.0).unwrap();
        let hs = [up, up.complement(), up, up.complement()];
        let probe = Aabb::new(Point::new(0.0, -2e-12), Point::new(1.0, 2e-12));
        let t = classify_tol(&probe);
        let mut planted = vec![0.0];
        for v in [t.lo(), t.hi(), t.exact()] {
            for w in [v, -v] {
                planted.extend([w, ulp(w, true), ulp(w, false)]);
            }
        }
        let (mut checked, mut measured) = (0, 0);
        for &a in &planted {
            for &b in &planted {
                let (y0, y1) = (a.min(b), a.max(b));
                let face = [
                    Point::new(0.0, y0),
                    Point::new(1.0, y1),
                    Point::new(0.5, y1),
                ];
                let bb = Aabb::from_points(face).unwrap();
                let tol = classify_tol(&bb);
                let exact = 1e-12 * (1.0 + bb.diagonal());
                let got = classify_batch(&face, &tol, &hs).map(code);
                let expect = hs.map(|h| {
                    let (lo, hi) = (h.signed_distance(face[0]), h.signed_distance(face[1]));
                    let (lo, hi) = (lo.min(hi), lo.max(hi));
                    code(match (lo < -exact, hi > exact) {
                        (true, true) => Classification::Cuts,
                        (true, false) => Classification::CompetitorSide,
                        (false, _) => Classification::CenterSide,
                    })
                });
                assert_eq!(got, expect, "y ∈ [{y0:e}, {y1:e}]");
                checked += 1;
                let side = |d: f64| tol.ambiguous(d.abs());
                measured += usize::from(side(y0) || side(y1));
            }
        }
        assert!(checked > 300, "only {checked} faces");
        assert!(
            measured > 50,
            "only {measured} faces needed the measured tolerance"
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let sites = vec![Point::new(0.5, 0.5)];
        let _ = dominating_region(0, &sites, 0, &unit_domain());
    }
}

/// The subdivision as it stood before the branch-free kernels: the
/// bounding-box pre-test with an early-exit vertex walk, two clip calls
/// per split and a sort comparator that recomputes its keys. The single
/// test-only reference the pooled path is checked against, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use laacad_region::sampling::SplitMix64;

    fn classify_walk(face: &[Point], bb: &Aabb, tol: f64, h: &HalfPlane) -> Classification {
        let (lo, hi) = h.signed_distance_extremes(bb);
        if lo > tol {
            return Classification::CenterSide;
        }
        if hi < -tol {
            return Classification::CompetitorSide;
        }
        let mut any_comp = false;
        let mut any_center = false;
        for &v in face {
            let d = h.signed_distance(v);
            if d < -tol {
                any_comp = true;
            } else if d > tol {
                any_center = true;
            }
            if any_comp && any_center {
                return Classification::Cuts;
            }
        }
        if any_comp {
            Classification::CompetitorSide
        } else {
            Classification::CenterSide
        }
    }

    /// How often the subdivision met the cases the four-lane batches
    /// must get right: competitor lists that leave a partial last batch,
    /// and discards at a lane with further lanes of its batch behind it.
    #[derive(Default)]
    struct BatchCases {
        partial_batches: usize,
        mid_batch_discards: usize,
    }

    fn reference_pooled(
        center: usize,
        sites: &[Point],
        k: usize,
        domain: &[Point],
        cases: &mut BatchCases,
    ) -> PieceSet {
        let u = sites[center];
        let mut bisectors: Vec<HalfPlane> = sites
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != center)
            .filter_map(|(_, &s)| HalfPlane::closer_to(s, u))
            .collect();
        bisectors.sort_unstable_by(|a, b| a.signed_distance(u).total_cmp(&b.signed_distance(u)));
        let mut root = PolygonBuf::new();
        root.copy_from(domain);
        let mut out = PieceSet::new();
        let mut stack = vec![(root, k - 1, 0, bisectors.len())];
        while let Some((face, mut budget, lo, hi)) = stack.pop() {
            if hi == lo {
                out.push_piece(face.vertices());
                continue;
            }
            let cut_lo = bisectors.len();
            let mut discard = false;
            let bb = Aabb::from_points(face.vertices().iter().copied()).unwrap();
            let tol = 1e-12 * (1.0 + bb.diagonal());
            cases.partial_batches += usize::from((hi - lo) % LANES != 0);
            for j in lo..hi {
                let c = bisectors[j];
                match classify_walk(face.vertices(), &bb, tol, &c) {
                    Classification::CenterSide => {}
                    Classification::CompetitorSide => {
                        if budget == 0 {
                            let lane = (j - lo) % LANES;
                            cases.mid_batch_discards += usize::from(lane + 1 < LANES && j + 1 < hi);
                            discard = true;
                            break;
                        }
                        budget -= 1;
                    }
                    Classification::Cuts => bisectors.push(c),
                }
            }
            let cut_hi = bisectors.len();
            if discard {
                bisectors.truncate(cut_lo);
                continue;
            }
            if cut_hi - cut_lo <= budget {
                bisectors.truncate(cut_lo);
                out.push_piece(face.vertices());
                continue;
            }
            let h = bisectors[cut_lo];
            let mut center_side = PolygonBuf::new();
            if face.clip_halfplane_into(&h.complement(), &mut center_side) {
                stack.push((center_side, budget, cut_lo + 1, cut_hi));
            }
            if budget > 0 {
                let mut comp_side = PolygonBuf::new();
                if face.clip_halfplane_into(&h, &mut comp_side) {
                    stack.push((comp_side, budget - 1, cut_lo + 1, cut_hi));
                }
            }
        }
        out
    }

    fn bits(pieces: &PieceSet) -> (Vec<(u64, u64)>, Vec<usize>) {
        let verts = pieces
            .vertices()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        (verts, pieces.ends.clone())
    }

    /// A ring-cap-like domain: a 24-gon around `c` clipped to the unit
    /// square, as the engine's search caps are.
    fn cap(c: Point, r: f64) -> Vec<Point> {
        let disk = Polygon::regular(c, r, 24, 0.1).unwrap();
        let square = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        disk.clip_convex(&square).unwrap().vertices().to_vec()
    }

    #[test]
    fn pooled_subdivision_matches_the_reference_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5EED);
        let mut scratch = SubdivisionScratch::new();
        let mut pieces = PieceSet::new();
        let square = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let mut checked = 0;
        let mut cases = BatchCases::default();
        for trial in 0..120 {
            let n = 3 + (rng.next_u64() % 30) as usize;
            let mut sites: Vec<Point> = match trial % 3 {
                // A lattice: many competitors tie on distance.
                0 => (0..n)
                    .map(|i| Point::new((i % 6) as f64 * 0.125 + 0.2, (i / 6) as f64 * 0.125 + 0.2))
                    .collect(),
                // A corner pile, as at the start of Fig. 5.
                1 => (0..n)
                    .map(|_| Point::new(0.2 * rng.next_f64(), 0.2 * rng.next_f64()))
                    .collect(),
                _ => (0..n)
                    .map(|_| Point::new(rng.next_f64(), rng.next_f64()))
                    .collect(),
            };
            sites.push(sites[0]); // a co-located twin
            let center = (rng.next_u64() % sites.len() as u64) as usize;
            let r = 0.1 + 0.5 * rng.next_f64();
            for domain in [square.vertices().to_vec(), cap(sites[center], r)] {
                for k in 1..=6 {
                    pieces.clear();
                    dominating_region_pooled(center, &sites, k, &domain, &mut scratch, &mut pieces);
                    let expect = reference_pooled(center, &sites, k, &domain, &mut cases);
                    assert_eq!(bits(&pieces), bits(&expect), "trial {trial} k {k}");
                    checked += pieces.len();
                }
            }
        }
        assert!(checked > 1000, "only {checked} pieces compared");
        assert!(
            cases.partial_batches > 1000,
            "only {} faces left a partial batch",
            cases.partial_batches
        );
        assert!(
            cases.mid_batch_discards > 100,
            "only {} discards fell inside a batch",
            cases.mid_batch_discards
        );
    }
}
