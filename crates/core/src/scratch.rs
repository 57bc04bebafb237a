//! Per-worker scratch for the round engine.
//!
//! One LAACAD round issues `N` local-view computations, each of which
//! runs an expanding-ring BFS and a bisector subdivision. All of the
//! buffers those need — the ring BFS's visited bits and frontier,
//! competitor and site vectors, the pooled subdivision worklist, the
//! cap / domain clip buffers, the Welzl scratch — live here, so a
//! worker allocates once and then computes views allocation-free for
//! the rest of the run. The synchronous engine keeps one
//! [`RoundScratch`] per worker thread; the sequential engine keeps a
//! single one.
//!
//! The scratch also owns the worker's [`LocalViewCache`]: per-node
//! entries keyed by the *exact* geometric inputs of the node's previous
//! computation (position, ring radius, ring verdict, competitor
//! positions in member order, `k`). A hit skips the subdivision and Welzl entirely; because the key
//! is exact equality, a hit returns exactly what a recomputation would.

use crate::ring::DominationScratch;
use laacad_geom::polygon::regular_directions;
use laacad_geom::{Circle, Point, PolygonBuf, Vector};
use laacad_voronoi::dominating::{PieceSet, SubdivisionScratch};
use laacad_wsn::multihop::RingScratch;

/// Reusable buffers for one worker's local-view computations.
#[derive(Debug, Clone, Default)]
pub struct RoundScratch {
    /// Incremental expanding-ring BFS state.
    pub(crate) ring: RingScratch,
    /// Ring-domination check buffers (arc query, cover, depth sweep).
    pub(crate) domination: DominationScratch,
    /// Competitor positions for the ρ/2-circle domination check (and, in
    /// oracle mode, the candidate site positions).
    pub(crate) competitors: Vec<Point>,
    /// Site list (self estimate + candidates) of the ranging and
    /// materializing paths.
    pub(crate) sites: Vec<Point>,
    /// Buffers of the region carving and its measurement.
    pub(crate) carve: CarveScratch,
    /// Cross-round per-node view cache (see [`LocalViewCache`]).
    pub(crate) view_cache: LocalViewCache,
    /// Per-worker kernel timing buffer. Armed by the session only when
    /// an enabled recorder is installed (its `enabled` flag is the
    /// single branch the kernels pay with telemetry off); drained in
    /// worker-index order after each fan-out.
    pub(crate) telemetry: laacad_telemetry::WorkerBuffer,
}

impl RoundScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the `N`-proportional buffers (the ring BFS's visited
    /// bits, `N/64` words) so the first fan-out of a round never grows
    /// them mid-computation —
    /// the session applies it to every worker before each fan-out.
    /// Purely an allocation hint; contents are untouched.
    pub fn reserve(&mut self, n: usize) {
        self.ring.reserve(n);
    }
}

/// The buffers of one region carving: the subdivision, the ring cap and
/// the clipped domains it works on, the resulting pieces and Welzl's
/// input.
#[derive(Debug, Clone, Default)]
pub(crate) struct CarveScratch {
    /// Bisector-subdivision worklist, competitor bisectors and polygon pool.
    pub(crate) subdivision: SubdivisionScratch,
    /// Region pieces of the current uncached computation.
    pub(crate) pieces: PieceSet,
    /// Welzl input scratch (refilled per disk computation).
    pub(crate) welzl: Vec<Point>,
    /// The ρ/2 ring-cap polygon of the current node.
    pub(crate) cap: PolygonBuf,
    /// Unit vertex directions and `cos(π/n)` of the cap polygons drawn
    /// so far, per vertex count.
    pub(crate) cap_shapes: CapShapes,
    /// Clip output buffer for `piece ∩ cap` domains.
    pub(crate) domain: PolygonBuf,
    /// Ping-pong partner of `domain`.
    pub(crate) domain_tmp: PolygonBuf,
}

/// The constant part of the ring-cap polygons: for each vertex count
/// `n` in use, the unit directions of
/// [`laacad_geom::Polygon::regular`]`(.., n, 0.0)` and the circumscription
/// factor `cos(π/n)`, computed once with the same calls and reused for
/// every cap — a worker meets one or two counts per run.
#[derive(Debug, Clone, Default)]
pub(crate) struct CapShapes {
    shapes: Vec<CapShape>,
}

#[derive(Debug, Clone)]
pub(crate) struct CapShape {
    /// Unit vertex directions (phase 0).
    pub(crate) dirs: Vec<Vector>,
    /// `cos(π/n)`: a polygon of circumradius `r / cos(π/n)`
    /// circumscribes the circle of radius `r`.
    pub(crate) cos_half_step: f64,
}

impl CapShapes {
    /// The shape of the `n`-vertex cap, computed on first use.
    pub(crate) fn get(&mut self, n: usize) -> &CapShape {
        let at = match self.shapes.iter().position(|s| s.dirs.len() == n) {
            Some(at) => at,
            None => {
                let mut dirs = Vec::new();
                regular_directions(n, 0.0, &mut dirs);
                self.shapes.push(CapShape {
                    dirs,
                    cos_half_step: (std::f64::consts::PI / n as f64).cos(),
                });
                self.shapes.len() - 1
            }
        };
        &self.shapes[at]
    }
}

/// Cross-round cache of per-node local views.
///
/// Entries are indexed by node id and keyed by the exact inputs of the
/// dominating-region computation. With multiple workers each worker owns
/// its own cache and nodes migrate between workers, so hits degrade
/// gracefully (a miss just recomputes — results never change); with the
/// serial default every node hits its previous round's entry as soon as
/// its neighborhood stops moving.
#[derive(Debug, Clone, Default)]
pub struct LocalViewCache {
    entries: Vec<CacheEntry>,
}

impl LocalViewCache {
    /// The entry slot for node `i`, growing the table on demand.
    pub(crate) fn slot(&mut self, i: usize) -> &mut CacheEntry {
        if self.entries.len() <= i {
            self.entries.resize_with(i + 1, CacheEntry::default);
        }
        &mut self.entries[i]
    }
}

/// One node's cached view, together with the exact-equality key that
/// guards its reuse.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    /// Whether the entry holds a computed view.
    pub(crate) valid: bool,
    // --- key ---------------------------------------------------------
    /// Coverage degree the view was computed for (`SetK` events change it
    /// mid-run).
    pub(crate) k: usize,
    /// The node's exact position.
    pub(crate) self_pos: Point,
    /// Final ring radius (determines the ρ/2 cap).
    pub(crate) rho: f64,
    /// Ring-check outcome (determines whether the cap applies under
    /// [`crate::RingCapPolicy::Exact`]).
    pub(crate) dominated: bool,
    /// Competitor positions, in the ring search's member order
    /// (ascending ids). The ids themselves are not part of the key: the
    /// geometry reads only the positions, in this order.
    pub(crate) member_pos: Vec<Point>,
    // --- cached view -------------------------------------------------
    // (The region pieces themselves are not retained: hits only ever
    // need the disk and the reach, so caching the geometry would hold
    // per-node vertex buffers per worker with zero readers.)
    /// Chebyshev disk of the region.
    pub(crate) chebyshev: Option<Circle>,
    /// Farthest distance from `self_pos` to the region.
    pub(crate) reach: f64,
}

impl Default for CacheEntry {
    fn default() -> Self {
        CacheEntry {
            valid: false,
            k: 0,
            self_pos: Point::ORIGIN,
            rho: 0.0,
            dominated: false,
            member_pos: Vec::new(),
            chebyshev: None,
            reach: 0.0,
        }
    }
}

impl CacheEntry {
    /// Whether the entry's key matches the given inputs exactly.
    pub(crate) fn matches(
        &self,
        k: usize,
        self_pos: Point,
        rho: f64,
        dominated: bool,
        member_pos: &[Point],
    ) -> bool {
        self.valid
            && self.k == k
            && self.self_pos == self_pos
            && self.rho == rho
            && self.dominated == dominated
            && self.member_pos == member_pos
    }

    /// Overwrites the key fields (the caller recomputes the view and
    /// stores the resulting disk/reach afterwards).
    pub(crate) fn store_key(
        &mut self,
        k: usize,
        self_pos: Point,
        rho: f64,
        dominated: bool,
        member_pos: &[Point],
    ) {
        self.k = k;
        self.self_pos = self_pos;
        self.rho = rho;
        self.dominated = dominated;
        self.member_pos.clear();
        self.member_pos.extend_from_slice(member_pos);
    }
}
