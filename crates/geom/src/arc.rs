//! Circular arcs and exact arc-coverage depth.
//!
//! Algorithm 2 (lines 5–8) asks: *is every point `v` of the circle of
//! radius `ρ/2` strictly closer to at least `k` other nodes than to the
//! center?* For each competitor the set of circle points it dominates is an
//! arc, so the question becomes the **minimum coverage depth of a circle by
//! a set of arcs** — computed exactly here, no sampling.

use crate::angle::{ccw_contains, normalize_angle};
use crate::circle::Circle;
use crate::halfplane::HalfPlane;
use std::f64::consts::TAU;

/// A counter-clockwise arc on the unit circle of directions, stored as a
/// start angle in `[0, 2π)` and a span in `[0, 2π]`.
///
/// # Example
///
/// ```
/// use laacad_geom::Arc;
/// let a = Arc::new(0.0, std::f64::consts::PI);
/// assert!(a.contains(1.0));
/// assert!(!a.contains(4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    start: f64,
    span: f64,
}

impl Arc {
    /// Creates an arc starting at `start` (radians) spanning `span` radians
    /// counter-clockwise. The span is clamped into `[0, 2π]`.
    pub fn new(start: f64, span: f64) -> Self {
        Arc {
            start: normalize_angle(start),
            span: span.clamp(0.0, TAU),
        }
    }

    /// The full circle.
    pub const fn full() -> Self {
        Arc {
            start: 0.0,
            span: TAU,
        }
    }

    /// Start angle in `[0, 2π)`.
    #[inline]
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Counter-clockwise span in `[0, 2π]`.
    #[inline]
    pub fn span(&self) -> f64 {
        self.span
    }

    /// End angle (`start + span`, not normalized; may exceed `2π`).
    #[inline]
    pub fn end(&self) -> f64 {
        self.start + self.span
    }

    /// Returns `true` when direction `theta` lies on the closed arc.
    pub fn contains(&self, theta: f64) -> bool {
        if self.span >= TAU {
            return true;
        }
        if self.span <= 0.0 {
            return false;
        }
        ccw_contains(self.start, self.end(), theta)
    }

    /// Midpoint direction of the arc.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        normalize_angle(self.start + 0.5 * self.span)
    }

    /// The arc of `circle` dominated by a half-plane: directions `θ` whose
    /// circle point `circle.point_at(θ)` lies inside `h`.
    ///
    /// Returns [`ArcSpan::Full`] / [`ArcSpan::Empty`] when the circle lies
    /// entirely inside / outside the half-plane.
    pub fn from_halfplane_on_circle(circle: &Circle, h: &HalfPlane) -> ArcSpan {
        if circle.radius <= 0.0 {
            return if h.contains(circle.center) {
                ArcSpan::Full
            } else {
                ArcSpan::Empty
            };
        }
        // point_at(θ) ∈ h  ⇔  n·c + r·cos(θ − φ) ≤ off, φ = angle of n.
        let n = h.normal();
        let q = (h.offset() - n.dot(circle.center.to_vector())) / circle.radius;
        if q >= 1.0 {
            ArcSpan::Full
        } else if q <= -1.0 {
            ArcSpan::Empty
        } else {
            let phi = n.angle();
            let half = q.acos(); // cos(θ−φ) ≤ q ⇔ θ−φ ∈ [half, 2π−half]
            ArcSpan::Partial(Arc::new(phi + half, TAU - 2.0 * half))
        }
    }
}

impl std::fmt::Display for Arc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arc[{:.4} +{:.4}]", self.start, self.span)
    }
}

/// Result of restricting a region to a circle: nothing, everything, or a
/// proper arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArcSpan {
    /// No direction qualifies.
    Empty,
    /// Every direction qualifies.
    Full,
    /// A proper sub-arc qualifies.
    Partial(Arc),
}

/// Accumulates arcs and answers *minimum coverage depth* queries exactly.
///
/// Depth is evaluated on the open intervals between arc endpoints, which is
/// the right notion for LAACAD's strict-inequality dominance arcs
/// (endpoint ties have measure zero and do not affect domination).
///
/// # Example
///
/// ```
/// use laacad_geom::{Arc, ArcCover};
/// use std::f64::consts::PI;
/// let mut cover = ArcCover::new();
/// cover.add(Arc::new(0.0, PI * 1.5));
/// cover.add(Arc::new(PI, PI * 1.5)); // together they wrap the circle
/// assert_eq!(cover.min_depth(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArcCover {
    arcs: Vec<Arc>,
    full_count: usize,
}

impl ArcCover {
    /// Creates an empty cover.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the cover for reuse, keeping its arc storage.
    pub fn clear(&mut self) {
        self.arcs.clear();
        self.full_count = 0;
    }

    /// Adds an arc (full-circle arcs are counted separately for exactness).
    pub fn add(&mut self, arc: Arc) {
        if arc.span() >= TAU {
            self.full_count += 1;
        } else if arc.span() > 0.0 {
            self.arcs.push(arc);
        }
    }

    /// Adds an [`ArcSpan`] (ignoring `Empty`).
    pub fn add_span(&mut self, span: ArcSpan) {
        match span {
            ArcSpan::Empty => {}
            ArcSpan::Full => self.full_count += 1,
            ArcSpan::Partial(a) => self.add(a),
        }
    }

    /// Exact minimum coverage depth over the whole circle.
    pub fn min_depth(&self) -> usize {
        self.sweep_min_depth(&[Arc::full()], &mut DepthScratch::default())
            .0
    }

    /// Exact minimum coverage depth over the union of `query` arcs.
    ///
    /// Returns `usize::MAX` when the query union is empty (vacuous minimum)
    /// — for the ring check this reads as "nothing left to dominate", which
    /// correctly terminates the expansion.
    pub fn min_depth_on(&self, query: &[Arc]) -> usize {
        self.sweep_min_depth(query, &mut DepthScratch::default()).0
    }

    /// [`ArcCover::min_depth_on`] over reusable sweep buffers — the
    /// allocation-free form the ring-domination hot path uses.
    pub fn min_depth_on_scratched(&self, query: &[Arc], scratch: &mut DepthScratch) -> usize {
        self.sweep_min_depth(query, scratch).0
    }

    /// [`ArcCover::min_depth_on_scratched`] for a sweep that must not lean
    /// on its tolerances: `Some(depth)` when the sweep neither merged two
    /// distinct breakpoints (the `1e-15` dedup) nor skipped an interval
    /// (the `1e-14` floor), `None` otherwise.
    ///
    /// A tolerance-free sweep of a sub-cover bounds the sweep of any
    /// super-cover from below: every arc adds 0 or 1 to the running depth
    /// at every breakpoint, so adding arcs never lowers a depth; and with
    /// distinct breakpoints more than `1e-14` apart, every interval the
    /// super-cover's sweep evaluates lies inside one the sub-cover's sweep
    /// evaluated, at least `4e-15` from its ends, where the query
    /// membership test (whose switch points sit within two ulps of the
    /// query endpoints, themselves breakpoints) gives the same answer.
    /// So a certified depth `≥ k` of a subset of arcs proves the full
    /// cover's depth `≥ k`.
    pub fn min_depth_on_certified(
        &self,
        query: &[Arc],
        scratch: &mut DepthScratch,
    ) -> Option<usize> {
        let (depth, exact) = self.sweep_min_depth(query, scratch);
        exact.then_some(depth)
    }

    /// Sweep-line minimum depth: depth is piecewise constant between arc
    /// endpoints, so one `O(M log M)` pass over the sorted endpoint events
    /// suffices. The flag is `false` when a tolerance merged two distinct
    /// breakpoints or skipped an interval (see
    /// [`ArcCover::min_depth_on_certified`]).
    fn sweep_min_depth(&self, query: &[Arc], scratch: &mut DepthScratch) -> (usize, bool) {
        let live = |a: &&Arc| a.span() > 0.0;
        if !query.iter().any(|a| a.span() > 0.0) {
            return (usize::MAX, true);
        }
        // Events: +1 where an arc begins, −1 just past its end; arcs that
        // wrap past 2π already cover angle 0 and seed the running depth.
        let events = &mut scratch.events;
        let bs = &mut scratch.bs;
        events.clear();
        bs.clear();
        let mut depth = self.full_count as i64;
        for a in &self.arcs {
            let s = a.start();
            let e = normalize_angle(a.end());
            events.push((s, 1));
            events.push((e, -1));
            if e <= s {
                depth += 1;
            }
        }
        // Unstable sorts: keys are exact angles, and events at equal (or
        // tolerance-merged) angles are summed before any depth is read,
        // so relative order of equal keys cannot affect the result — and
        // the in-place sort keeps the sweep allocation-free.
        events.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        // Breakpoints: the sorted event angles merged with 0 and the
        // query endpoints (sorted on their own — a handful of values).
        // Keys equal under `total_cmp` are bit-equal, so the merge is
        // exactly the sorted union without sorting the events twice.
        let extra = &mut scratch.extra;
        extra.clear();
        extra.push(0.0);
        for q in query.iter().filter(live) {
            extra.push(q.start());
            extra.push(normalize_angle(q.end()));
        }
        extra.sort_unstable_by(f64::total_cmp);
        let (mut i, mut j) = (0, 0);
        while i < events.len() && j < extra.len() {
            if events[i].0.total_cmp(&extra[j]).is_le() {
                bs.push(events[i].0);
                i += 1;
            } else {
                bs.push(extra[j]);
                j += 1;
            }
        }
        bs.extend(events[i..].iter().map(|&(t, _)| t));
        bs.extend_from_slice(&extra[j..]);
        let mut exact = true;
        bs.dedup_by(|a, b| {
            let merge = (*a - *b).abs() < 1e-15;
            exact &= !merge || *a == *b;
            merge
        });
        let mut best: Option<usize> = None;
        let m = bs.len();
        let mut next_event = 0;
        for i in 0..m {
            let a = bs[i];
            // Apply every event at (or dedup-merged into) this breakpoint:
            // the running depth then holds on the open interval after it.
            while next_event < events.len() && events[next_event].0 <= a + 1e-15 {
                depth += i64::from(events[next_event].1);
                next_event += 1;
            }
            let b = if i + 1 < m { bs[i + 1] } else { bs[0] + TAU };
            if b - a <= 1e-14 {
                exact = false;
                continue;
            }
            let mid = normalize_angle(0.5 * (a + b));
            if !query.iter().filter(live).any(|q| q.contains(mid)) {
                continue;
            }
            let d = depth.max(0) as usize;
            best = Some(best.map_or(d, |x| x.min(d)));
        }
        (best.unwrap_or(usize::MAX), exact)
    }

    /// Number of proper arcs added (full-circle arcs excluded).
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Returns `true` when no arc has been added at all.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty() && self.full_count == 0
    }
}

/// The dominance arcs of one circle with their endpoints kept as
/// pseudo-angles instead of angles: the trig-free form of an
/// [`ArcCover`] swept over the full circle.
///
/// [`PseudoArcCover::add_halfplane`] takes the `q` of
/// [`Arc::from_halfplane_on_circle`] (the same expression, so the same
/// `Full` / `Empty` decisions) and, for a proper arc, rotates the
/// half-plane's normal by `±acos(q)` with `cos = q` and
/// `sin = √((1 − q)(1 + q))` — not `√(1 − q²)`, which loses accuracy near
/// `|q| = 1`. Each endpoint is then mapped to the "diamond" pseudo-angle
/// in `[0, 4)`, monotone in the angle with slope between ½ and 1, so
/// pseudo-angle gaps never exceed angle gaps.
///
/// [`PseudoArcCover::min_depth_certified`] sweeps the sorted endpoints
/// and certifies the result when every gap between consecutive
/// endpoints, and from the first and last endpoint to angle 0, exceeds
/// `1e-9`. Both this form and [`ArcCover`]'s `atan2`/`acos` form place an
/// endpoint within a few `1e-15` of the same exact angle (the rotation
/// of the same normal by `acos` of the same `q`), so with gaps that wide
/// the angle sweep sees the same endpoint order and the same wrapping
/// arcs, merges no breakpoints (its `1e-15` dedup) and skips no interval
/// (its `1e-14` floor): [`ArcCover::min_depth_on_certified`] over the
/// full circle returns the same `Some(depth)`. Anything narrower, and
/// any non-finite value, is refused (`None`) and the caller runs the
/// angle sweep instead.
///
/// [`PseudoArcCover::restrict_to`] narrows the sweep to a union of query
/// arcs, as the angle sweep's `query` does: each query endpoint joins
/// the breakpoints, at the pseudo-angle of `sin_cos` of the very angle
/// the angle sweep uses as its breakpoint (within a few `1e-16` of it),
/// and the sweep reads depth only on intervals inside the query,
/// tracking membership by toggling at those endpoints. The same gap
/// test covers them, so a certified sweep puts every query endpoint in
/// the angle sweep's order among the arc endpoints, each interval's
/// midpoint at least `5e-10` from the query's ends — where the angle
/// sweep's membership test answers as the toggles do.
///
/// The cover keeps its endpoints in the event buffer of a
/// [`DepthScratch`] ([`DepthScratch::pseudo_cover`]), so a worker that
/// runs both sweeps holds one buffer for them.
#[derive(Debug)]
pub struct PseudoArcCover<'a> {
    /// `(pseudo-angle, +1 start / −1 end)`.
    events: &'a mut Vec<(f64, i32)>,
    /// Arcs that cover the whole circle.
    full_count: usize,
    /// Proper arcs whose end precedes their start (they cover angle 0).
    wrapping: usize,
    /// Whether an arc could not be represented (NaN `q`).
    refused: bool,
    /// Whether [`PseudoArcCover::restrict_to`] narrowed the sweep.
    restricted: bool,
    /// Query arcs whose end precedes their start (they cover angle 0).
    query_wrapping: usize,
}

/// Endpoint gaps (in pseudo-angle units) below which
/// [`PseudoArcCover::min_depth_certified`] refuses to certify.
const CERTIFIED_GAP: f64 = 1e-9;

/// The event kinds of a query arc's start and end in a restricted
/// [`PseudoArcCover`] (dominance arcs use `+1` and `−1`).
const QUERY_START: i32 = 2;
const QUERY_END: i32 = -2;

impl PseudoArcCover<'_> {
    /// Adds the arc [`Arc::from_halfplane_on_circle`] gives for `circle`
    /// and `h`, with pseudo-angle endpoints.
    pub fn add_halfplane(&mut self, circle: &Circle, h: &HalfPlane) {
        if circle.radius <= 0.0 {
            if h.contains(circle.center) {
                self.full_count += 1;
            }
            return;
        }
        let n = h.normal();
        let q = (h.offset() - n.dot(circle.center.to_vector())) / circle.radius;
        if q >= 1.0 {
            self.full_count += 1;
        } else if q > -1.0 {
            // cos(θ−φ) ≤ q ⇔ θ−φ ∈ [acos q, 2π − acos q]: the arc runs
            // from n rotated by +acos q to n rotated by −acos q.
            let sin = ((1.0 - q) * (1.0 + q)).sqrt();
            let start = pseudo_angle(n.x * q - n.y * sin, n.y * q + n.x * sin);
            let end = pseudo_angle(n.x * q + n.y * sin, n.y * q - n.x * sin);
            self.events.push((start, 1));
            self.events.push((end, -1));
            if end <= start {
                self.wrapping += 1;
            }
        } else if q.is_nan() {
            self.refused = true;
        }
        // q ≤ −1: the circle lies outside the half-plane.
    }

    /// Restricts the sweep to the union of the `query` arcs, which must
    /// not be the full circle (see the type docs). Arcs with no span are
    /// skipped, as the angle sweep skips them; a query arc spanning the
    /// whole circle refuses the sweep.
    pub fn restrict_to(&mut self, query: &[Arc]) {
        self.restricted = true;
        for q in query.iter().filter(|q| q.span() > 0.0) {
            if q.span() >= TAU {
                self.refused = true;
                return;
            }
            let at = |theta: f64| {
                let (sin, cos) = theta.sin_cos();
                pseudo_angle(cos, sin)
            };
            let start = at(q.start());
            let end = at(normalize_angle(q.end()));
            self.events.push((start, QUERY_START));
            self.events.push((end, QUERY_END));
            if end <= start {
                self.query_wrapping += 1;
            }
        }
    }

    /// The minimum coverage depth over the full circle, or over the
    /// query of [`PseudoArcCover::restrict_to`] (`usize::MAX` when no
    /// interval lies inside it), when the endpoints are far enough apart
    /// to certify it (see the type docs); `None` otherwise. Sorts the
    /// endpoints in place.
    pub fn min_depth_certified(&mut self) -> Option<usize> {
        if self.refused {
            return None;
        }
        self.events.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        let mut prev = 0.0;
        for &(t, _) in self.events.iter() {
            if !wide_gap(t - prev) {
                return None;
            }
            prev = t;
        }
        if !wide_gap(4.0 - prev) {
            return None;
        }
        let mut depth = (self.full_count + self.wrapping) as i64;
        let mut inside = if self.restricted {
            self.query_wrapping
        } else {
            1
        };
        let mut min = if inside > 0 { depth } else { i64::MAX };
        for &(_, delta) in self.events.iter() {
            match delta {
                QUERY_START => inside += 1,
                QUERY_END => inside -= 1,
                _ => depth += i64::from(delta),
            }
            if inside > 0 {
                min = min.min(depth);
            }
        }
        Some(if min == i64::MAX {
            usize::MAX
        } else {
            min.max(0) as usize
        })
    }
}

/// Whether a gap between endpoints is wide enough to certify (`false`
/// for NaN).
#[inline]
fn wide_gap(gap: f64) -> bool {
    gap > CERTIFIED_GAP
}

/// The "diamond" pseudo-angle of a non-zero vector: `[0, 4)`, increasing
/// counter-clockwise from the positive x axis, one unit per quadrant.
#[inline]
fn pseudo_angle(x: f64, y: f64) -> f64 {
    if y >= 0.0 {
        if x >= 0.0 {
            y / (x + y)
        } else {
            1.0 - x / (y - x)
        }
    } else if x < 0.0 {
        2.0 - y / (-x - y)
    } else {
        3.0 + x / (x - y)
    }
}

/// Reusable buffers for the [`ArcCover`] depth sweep (endpoint events,
/// query endpoints and breakpoint angles). One instance per worker makes
/// every ring-domination check allocation-free after warm-up.
#[derive(Debug, Clone, Default)]
pub struct DepthScratch {
    events: Vec<(f64, i32)>,
    extra: Vec<f64>,
    bs: Vec<f64>,
}

impl DepthScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty [`PseudoArcCover`] over this scratch's event buffer.
    pub fn pseudo_cover(&mut self) -> PseudoArcCover<'_> {
        self.events.clear();
        PseudoArcCover {
            events: &mut self.events,
            full_count: 0,
            wrapping: 0,
            refused: false,
            restricted: false,
            query_wrapping: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point, Vector};
    use std::f64::consts::PI;

    #[test]
    fn arc_containment_with_wrap() {
        let a = Arc::new(5.0, 2.0); // wraps through 0
        assert!(a.contains(5.5));
        assert!(a.contains(0.2));
        assert!(!a.contains(2.0));
        assert!(Arc::full().contains(3.0));
        assert!(!Arc::new(1.0, 0.0).contains(1.5));
    }

    #[test]
    fn halfplane_arc_cases() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        // Half-plane x ≤ 0: left half of circle, i.e. θ ∈ [π/2, 3π/2].
        let h = HalfPlane::new(Vector::new(1.0, 0.0), 0.0).unwrap();
        match Arc::from_halfplane_on_circle(&c, &h) {
            ArcSpan::Partial(a) => {
                assert!((a.start() - PI / 2.0).abs() < 1e-9);
                assert!((a.span() - PI).abs() < 1e-9);
                assert!(a.contains(PI));
                assert!(!a.contains(0.0));
            }
            other => panic!("expected partial arc, got {other:?}"),
        }
        // Half-plane x ≤ 5 contains the whole circle.
        let hf = HalfPlane::new(Vector::new(1.0, 0.0), 5.0).unwrap();
        assert_eq!(Arc::from_halfplane_on_circle(&c, &hf), ArcSpan::Full);
        // Half-plane x ≤ −5 misses it entirely.
        let he = HalfPlane::new(Vector::new(1.0, 0.0), -5.0).unwrap();
        assert_eq!(Arc::from_halfplane_on_circle(&c, &he), ArcSpan::Empty);
    }

    #[test]
    fn dominance_arc_matches_distance_comparison() {
        // Circle around node i; competitor j to the east. The dominated arc
        // must be exactly the directions where j is closer than i's center.
        let ui = Point::new(2.0, 1.0);
        let uj = Point::new(3.5, 1.0);
        let rho_half = 1.0;
        let c = Circle::new(ui, rho_half);
        let h = HalfPlane::closer_to(uj, ui).unwrap();
        let span = Arc::from_halfplane_on_circle(&c, &h);
        for i in 0..720 {
            let th = i as f64 / 720.0 * TAU;
            let v = c.point_at(th);
            let j_closer = v.distance(uj) < v.distance(ui) - 1e-12;
            let in_arc = match span {
                ArcSpan::Empty => false,
                ArcSpan::Full => true,
                ArcSpan::Partial(a) => a.contains(th),
            };
            if (v.distance(uj) - v.distance(ui)).abs() > 1e-9 {
                assert_eq!(in_arc, j_closer, "θ={th}");
            }
        }
    }

    #[test]
    fn min_depth_empty_cover_is_zero() {
        let cover = ArcCover::new();
        assert_eq!(cover.min_depth(), 0);
        assert!(cover.is_empty());
    }

    #[test]
    fn min_depth_with_gap() {
        let mut cover = ArcCover::new();
        cover.add(Arc::new(0.0, PI)); // covers upper half
        assert_eq!(cover.min_depth(), 0);
        cover.add(Arc::new(PI, PI)); // covers lower half
        assert_eq!(cover.min_depth(), 1);
    }

    #[test]
    fn full_circle_arcs_add_everywhere() {
        let mut cover = ArcCover::new();
        cover.add(Arc::full());
        cover.add(Arc::full());
        cover.add(Arc::new(1.0, 0.5));
        assert_eq!(cover.min_depth(), 2);
    }

    #[test]
    fn min_depth_on_query_subarc() {
        let mut cover = ArcCover::new();
        cover.add(Arc::new(0.0, PI));
        // Query only the covered half: min depth is 1 there.
        assert_eq!(cover.min_depth_on(&[Arc::new(0.5, 1.0)]), 1);
        // Query the uncovered half: 0.
        assert_eq!(cover.min_depth_on(&[Arc::new(PI + 0.5, 1.0)]), 0);
        // Empty query: vacuous (MAX).
        assert_eq!(cover.min_depth_on(&[]), usize::MAX);
    }

    #[test]
    fn depth_matches_brute_force_sampling() {
        let mut cover = ArcCover::new();
        let arcs = [
            Arc::new(0.3, 2.0),
            Arc::new(1.0, 4.0),
            Arc::new(5.5, 1.5), // wraps
            Arc::new(2.0, 0.7),
            Arc::new(4.0, 2.9),
        ];
        for a in arcs {
            cover.add(a);
        }
        let mut brute_min = usize::MAX;
        for i in 0..7200 {
            let th = (i as f64 + 0.5) / 7200.0 * TAU;
            let d = arcs.iter().filter(|a| a.contains(th)).count();
            brute_min = brute_min.min(d);
        }
        assert_eq!(cover.min_depth(), brute_min);

        // Random arc sets under random queries: the merged-breakpoint
        // sweep must equal the two-sort sweep exactly.
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let pool: Vec<f64> = (0..9).map(|i| i as f64 * 0.7).chain([0.0, PI]).collect();
        let mut scratch = DepthScratch::default();
        for _ in 0..3000 {
            let mut cover = ArcCover::new();
            for _ in 0..pick(&mut rng, 9) {
                let a = random_arc(&mut rng, &pool);
                cover.add(a);
                if pick(&mut rng, 5) == 0 {
                    cover.add(a); // an exact duplicate
                }
            }
            let q: Vec<Arc> = (0..1 + pick(&mut rng, 3))
                .map(|_| random_arc(&mut rng, &pool))
                .collect();
            for query in [&q[..], &[Arc::full()][..]] {
                assert_eq!(
                    cover.sweep_min_depth(query, &mut scratch).0,
                    two_sort_sweep(&cover, query),
                    "arcs {:?} query {query:?}",
                    cover.arcs
                );
            }
        }
    }

    /// The sweep as it stood before the breakpoint merge: event angles,
    /// 0 and the query endpoints sorted together in a second full sort.
    /// The test oracle for [`ArcCover::sweep_min_depth`].
    fn two_sort_sweep(cover: &ArcCover, query: &[Arc]) -> usize {
        let live = |a: &&Arc| a.span() > 0.0;
        if !query.iter().any(|a| a.span() > 0.0) {
            return usize::MAX;
        }
        let mut events = Vec::new();
        let mut depth = cover.full_count as i64;
        for a in &cover.arcs {
            let s = a.start();
            let e = normalize_angle(a.end());
            events.push((s, 1));
            events.push((e, -1));
            if e <= s {
                depth += 1;
            }
        }
        events.sort_unstable_by(|x: &(f64, i32), y| x.0.total_cmp(&y.0));
        let mut bs = vec![0.0];
        bs.extend(events.iter().map(|&(t, _)| t));
        for q in query.iter().filter(live) {
            bs.push(q.start());
            bs.push(normalize_angle(q.end()));
        }
        bs.sort_unstable_by(f64::total_cmp);
        bs.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
        let mut best: Option<usize> = None;
        let m = bs.len();
        let mut next_event = 0;
        for i in 0..m {
            let a = bs[i];
            while next_event < events.len() && events[next_event].0 <= a + 1e-15 {
                depth += i64::from(events[next_event].1);
                next_event += 1;
            }
            let b = if i + 1 < m { bs[i + 1] } else { bs[0] + TAU };
            if b - a <= 1e-14 {
                continue;
            }
            let mid = normalize_angle(0.5 * (a + b));
            if !query.iter().filter(live).any(|q| q.contains(mid)) {
                continue;
            }
            let d = depth.max(0) as usize;
            best = Some(best.map_or(d, |x| x.min(d)));
        }
        best.unwrap_or(usize::MAX)
    }

    /// xorshift64: a uniform pick from `0..n`.
    fn pick(rng: &mut u64, n: usize) -> usize {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % n as u64) as usize
    }

    /// Random arcs over a small pool of angles, so endpoints collide:
    /// wrapping, full, zero-span and duplicated arcs all appear.
    fn random_arc(rng: &mut u64, pool: &[f64]) -> Arc {
        let start = pool[pick(rng, pool.len())];
        match pick(rng, 6) {
            0 => Arc::full(),
            1 => Arc::new(start, 0.0),
            // Ends exactly on another pool angle (possibly wrapping).
            2 | 3 => Arc::new(start, normalize_angle(pool[pick(rng, pool.len())] - start)),
            _ => Arc::new(start, (pick(rng, 1000) as f64 + 0.5) / 1000.0 * TAU),
        }
    }

    #[test]
    fn certified_depth_refuses_tolerance_merges_and_skips() {
        let query = [Arc::full()];
        let mut scratch = DepthScratch::default();
        let certified = |arcs: &[Arc], scratch: &mut DepthScratch| {
            let mut cover = ArcCover::new();
            arcs.iter().for_each(|&a| cover.add(a));
            let depth = cover.min_depth_on_certified(&query, scratch);
            if let Some(d) = depth {
                assert_eq!(d, cover.min_depth());
            }
            depth
        };
        let base = [Arc::new(1.0, 2.0), Arc::new(2.5, 5.0)];
        assert_eq!(certified(&base, &mut scratch), Some(1));
        // A bit-equal endpoint merges without losing an interval.
        let twin = [base[0], base[1], Arc::new(1.0, 0.5)];
        assert!(certified(&twin, &mut scratch).is_some());
        // Two ulps apart: the dedup merges distinct breakpoints.
        let merged = [base[0], base[1], Arc::new(1.0 + 5e-16, 0.5)];
        assert_eq!(certified(&merged, &mut scratch), None);
        // 5e-15 apart: both kept, the interval between them skipped.
        let skipped = [base[0], base[1], Arc::new(1.0 + 5e-15, 0.5)];
        assert_eq!(certified(&skipped, &mut scratch), None);
    }

    #[test]
    fn add_span_variants() {
        let mut cover = ArcCover::new();
        cover.add_span(ArcSpan::Empty);
        cover.add_span(ArcSpan::Full);
        cover.add_span(ArcSpan::Partial(Arc::new(0.0, 1.0)));
        assert_eq!(cover.min_depth(), 1);
        assert_eq!(cover.len(), 1);
    }
}
