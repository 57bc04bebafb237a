//! Scratch for the round engine: per-thread kernel buffers and
//! per-worker view caches.
//!
//! One LAACAD round issues `N` local-view computations, each of which
//! runs an expanding-ring BFS and a bisector subdivision. All of the
//! buffers those need — the ring BFS's visited bits and frontier,
//! competitor and site vectors, the pooled subdivision worklist, the
//! cap / domain clip buffers, the Welzl scratch — form one
//! `KernelScratch`. Its contents never outlive a computation, so it
//! belongs to no session: each thread keeps a pool of them, and an
//! engine borrows one per worker for one call (a round's fan-out, a
//! finalization) and hands it back afterwards. Many sessions stepped on
//! one thread therefore share one set of buffers, and a warm thread
//! computes views allocation-free.
//!
//! What an engine does keep is a [`RoundScratch`] per worker: the
//! worker's [`LocalViewCache`] of per-node entries keyed by the inputs of
//! the node's previous computation (position, ring radius, ring verdict,
//! member ids, `k`) and the network's write clock when it was stored. A
//! hit skips the subdivision and Welzl entirely; it requires every input
//! position to be unchanged, so a hit returns exactly what a
//! recomputation would.

use crate::ring::DominationScratch;
use laacad_geom::polygon::regular_directions;
use laacad_geom::{Circle, Point, PolygonBuf, Vector};
use laacad_voronoi::dominating::{PieceSet, SubdivisionScratch};
use laacad_wsn::multihop::RingScratch;
use laacad_wsn::{Network, NodeId};
use std::cell::RefCell;

/// One worker's state across rounds: its view cache, plus the kernel
/// buffers it holds while an engine call runs.
#[derive(Debug, Clone, Default)]
pub struct RoundScratch {
    /// Cross-round per-node view cache (see [`LocalViewCache`]).
    pub(crate) view_cache: LocalViewCache,
    /// Kernel buffers borrowed from the thread's pool; `None` between
    /// calls.
    pub(crate) kernel: Option<Box<KernelScratch>>,
}

impl RoundScratch {
    /// Creates a worker state with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows kernel buffers from the calling thread's pool, unless
    /// some are held already, and pre-sizes the `N`-proportional ones
    /// (the ring BFS's visited bits, `N/64` words) so a fan-out never
    /// grows them mid-computation.
    pub(crate) fn lease(&mut self, n: usize) -> &mut KernelScratch {
        let kernel = self.kernel.get_or_insert_with(take_pooled);
        kernel.ring.reserve(n);
        kernel
    }

    /// Hands the held kernel buffers back to the calling thread's pool.
    pub(crate) fn release(&mut self) {
        if let Some(kernel) = self.kernel.take() {
            give_back(kernel);
        }
    }
}

/// Reusable buffers for one local-view computation at a time.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelScratch {
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
    /// Kernel timing buffer. Armed by the session only when an enabled
    /// recorder is installed (its `enabled` flag is the single branch
    /// the kernels pay with telemetry off); drained in worker-index
    /// order after each fan-out, and disarmed on return to the pool.
    pub(crate) telemetry: laacad_telemetry::WorkerBuffer,
}

thread_local! {
    /// Kernel buffers not lent out, per thread: as many as the thread's
    /// widest fan-out has needed at once. Boxed, so lending one moves a
    /// pointer and an idle worker slot costs a word, not a whole kernel.
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<KernelScratch>>> = const { RefCell::new(Vec::new()) };
}

/// A kernel from the calling thread's pool, or a fresh one.
fn take_pooled() -> Box<KernelScratch> {
    POOL.try_with(|pool| pool.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Returns `kernel` to the calling thread's pool (dropping it while the
/// thread tears down).
fn give_back(mut kernel: Box<KernelScratch>) {
    kernel.telemetry.enabled = false;
    let _ = POOL.try_with(|pool| pool.borrow_mut().push(kernel));
}

/// Runs `f` on kernel buffers borrowed from the calling thread's pool
/// for the one call, sized for `n` nodes.
pub(crate) fn with_pooled_kernel<R>(n: usize, f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    let mut kernel = take_pooled();
    kernel.ring.reserve(n);
    let out = f(&mut kernel);
    give_back(kernel);
    out
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
/// Entries are indexed by node id and keyed by the inputs of the
/// dominating-region computation: the scalar inputs by value, the
/// member positions by the members' ids plus the network's write clock
/// at compute time (a member written since then fails the key). The
/// cache serves one network instance and starts over when it meets
/// another. With multiple workers each worker owns its own cache and
/// nodes migrate between workers, so hits degrade gracefully (a miss
/// just recomputes — results never change); with the serial default
/// every node hits its previous round's entry as soon as its
/// neighborhood stops moving.
#[derive(Debug, Clone, Default)]
pub struct LocalViewCache {
    /// [`Network::instance`] of the network the entries describe.
    instance: u64,
    entries: Vec<CacheEntry>,
}

impl LocalViewCache {
    /// The entry slot for node `i` of `net`, growing the table to `net`'s
    /// size on demand and forgetting every entry when `net` is not the
    /// network the entries were stored against.
    pub(crate) fn slot(&mut self, net: &Network, i: usize) -> &mut CacheEntry {
        if self.instance != net.instance() {
            self.instance = net.instance();
            self.entries.clear();
        }
        if self.entries.len() <= i {
            self.entries.resize_with(net.len(), CacheEntry::default);
        }
        &mut self.entries[i]
    }

    /// Drops the entries of ids `n` and above (nodes that no longer
    /// exist after a removal).
    pub(crate) fn truncate(&mut self, n: usize) {
        self.entries.truncate(n);
    }

    /// Number of node slots held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One node's cached view, together with the key that guards its reuse.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    /// Whether the entry holds a computed view.
    pub(crate) valid: bool,
    // --- key ---------------------------------------------------------
    /// Ring-check outcome (determines whether the cap applies under
    /// [`crate::RingCapPolicy::Exact`]).
    pub(crate) dominated: bool,
    /// Coverage degree the view was computed for (`SetK` events change it
    /// mid-run).
    pub(crate) k: usize,
    /// The node's exact position.
    pub(crate) self_pos: Point,
    /// Final ring radius (determines the ρ/2 cap).
    pub(crate) rho: f64,
    /// The network's write clock when the view was computed.
    pub(crate) clock: u64,
    /// The ring's members in the search's order (ascending ids). Their
    /// positions are what the geometry reads; they are unchanged while
    /// no member is written after `clock`. Exactly as long as the ring.
    pub(crate) members: Box<[u32]>,
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
            dominated: false,
            k: 0,
            self_pos: Point::ORIGIN,
            rho: 0.0,
            clock: 0,
            members: Box::default(),
            chebyshev: None,
            reach: 0.0,
        }
    }
}

impl CacheEntry {
    /// Whether the entry's key matches the given inputs: equal scalars
    /// and member ids, and no member written since the entry was stored.
    pub(crate) fn matches(
        &self,
        net: &Network,
        k: usize,
        self_pos: Point,
        rho: f64,
        dominated: bool,
        members: &[usize],
    ) -> bool {
        self.valid
            && self.k == k
            && self.self_pos == self_pos
            && self.rho == rho
            && self.dominated == dominated
            && self.members.len() == members.len()
            && self.members.iter().zip(members).all(|(&stored, &m)| {
                stored as usize == m && net.written_at(NodeId(m)) <= self.clock
            })
    }

    /// Overwrites the key fields with the inputs of a computation at
    /// `net`'s current write clock (the caller recomputes the view and
    /// stores the resulting disk/reach afterwards). The member ids are
    /// overwritten in place when the ring kept its length and
    /// reallocated at the new length otherwise.
    pub(crate) fn store_key(
        &mut self,
        net: &Network,
        k: usize,
        self_pos: Point,
        rho: f64,
        dominated: bool,
        members: &[usize],
    ) {
        self.k = k;
        self.self_pos = self_pos;
        self.rho = rho;
        self.dominated = dominated;
        self.clock = net.write_clock();
        let ids = members.iter().map(|&m| {
            debug_assert!(m <= u32::MAX as usize, "node id {m} exceeds u32");
            m as u32
        });
        if self.members.len() == members.len() {
            for (stored, id) in self.members.iter_mut().zip(ids) {
                *stored = id;
            }
        } else {
            self.members = ids.collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_longer_member_list_of_unwritten_nodes_misses() {
        let net = Network::from_positions(0.5, (0..4).map(|i| Point::new(i as f64, 0.0)));
        let mut cache = LocalViewCache::default();
        let entry = cache.slot(&net, 0);
        entry.store_key(&net, 1, net.position(NodeId(0)), 1.0, true, &[1, 2]);
        entry.valid = true;
        let p = net.position(NodeId(0));
        assert!(entry.matches(&net, 1, p, 1.0, true, &[1, 2]));
        // Node 3 was never written after the entry, yet it is not one of
        // the members the entry describes.
        assert!(!entry.matches(&net, 1, p, 1.0, true, &[1, 2, 3]));
        assert!(!entry.matches(&net, 1, p, 1.0, true, &[1, 3]));
        assert!(!entry.matches(&net, 1, p, 1.0, true, &[1]));
    }
}
