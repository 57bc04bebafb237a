//! Scratch for the round engine: per-thread kernel buffers and the
//! per-engine view store.
//!
//! One LAACAD round issues `N` local-view computations, each of which
//! runs an expanding-ring BFS and a bisector subdivision. All of the
//! buffers those need — the ring BFS's visited bits and frontier,
//! competitor and site vectors, the pooled subdivision worklist, the
//! cap / domain clip buffers, the Welzl scratch — form one
//! `KernelScratch`. Its contents never outlive a computation, so it
//! belongs to no engine: each thread keeps a pool of them, and an
//! engine borrows one per worker for one call (a round's fan-out, a
//! finalization) and hands it back afterwards. Many sessions stepped on
//! one thread therefore share one set of buffers, and a warm thread
//! computes views allocation-free.
//!
//! What an engine does keep is one [`ViewStore`]: a slot per node
//! holding the node's last [`NodeView`] together with the key that
//! guards reuse of its geometry (`k`, the node's position, ring radius
//! and verdict, the ring's member ids and the network's write clock when
//! the view was computed). The session's dirty-node index replays a
//! clean node's slot as it is; a dirty node runs its ring search and
//! then reuses the slot's disk and reach when the key still matches. A
//! hit requires every input position to be unchanged, so it returns
//! exactly what a recomputation would. The slot of node `i` is the same
//! whichever worker computes it, so the work counters do not depend on
//! the thread count.

use crate::localview::NodeView;
use crate::ring::DominationScratch;
use laacad_geom::polygon::regular_directions;
use laacad_geom::{Point, PolygonBuf, Vector};
use laacad_voronoi::dominating::{PieceSet, SubdivisionScratch};
use laacad_wsn::multihop::RingScratch;
use laacad_wsn::{Network, NodeId};
use std::cell::RefCell;

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

/// A kernel from the calling thread's pool, or a fresh one, with its
/// `N`-proportional buffers (the ring BFS's visited bits, `N/64` words)
/// pre-sized for `n` nodes so a fan-out never grows them
/// mid-computation.
pub(crate) fn lend_kernel(n: usize) -> Box<KernelScratch> {
    let mut kernel: Box<KernelScratch> = POOL
        .try_with(|pool| pool.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    kernel.ring.reserve(n);
    kernel
}

/// Returns `kernel` to the calling thread's pool (dropping it while the
/// thread tears down).
pub(crate) fn give_back(mut kernel: Box<KernelScratch>) {
    kernel.telemetry.enabled = false;
    let _ = POOL.try_with(|pool| pool.borrow_mut().push(kernel));
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

/// One engine's per-node views, indexed by node id (see the module
/// docs).
///
/// The slots describe one network instance and start over when they
/// meet another: a clone or a rebuilt network has its own writes.
#[derive(Debug, Clone, Default)]
pub struct ViewStore {
    /// [`Network::instance`] of the network the slots describe.
    instance: u64,
    slots: Vec<ViewSlot>,
}

impl ViewStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slots of `net`'s nodes, in id order: every slot is forgotten
    /// when `net` is not the network they were stored against, and the
    /// table grows to `net`'s size on demand.
    pub(crate) fn slots_for(&mut self, net: &Network) -> &mut [ViewSlot] {
        if self.instance != net.instance() {
            self.instance = net.instance();
            self.slots.clear();
        }
        let n = net.len();
        if self.slots.len() < n {
            self.slots.resize_with(n, ViewSlot::default);
        }
        &mut self.slots[..n]
    }

    /// The stored view of node `i`.
    pub(crate) fn view(&self, i: usize) -> &NodeView {
        &self.slots[i].view
    }

    /// The stored views, in id order.
    pub(crate) fn views(&self) -> impl Iterator<Item = &NodeView> {
        self.slots.iter().map(|slot| &slot.view)
    }

    /// Drops the slots of ids `n` and above (nodes that no longer exist
    /// after a removal).
    pub(crate) fn truncate(&mut self, n: usize) {
        self.slots.truncate(n);
    }
}

/// One node's last view, together with the key that guards reuse of
/// its disk and reach.
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewSlot {
    /// The node's most recent view. Its ring radius and verdict complete
    /// the key below.
    pub(crate) view: NodeView,
    /// Whether the key describes `view` (an oracle-mode computation
    /// stored it).
    keyed: bool,
    /// Coverage degree the view was computed for (`SetK` events change it
    /// mid-run).
    k: u32,
    /// The node's exact position.
    self_pos: Point,
    /// The network's write clock when the view was computed.
    clock: u64,
    /// The ring's members in the search's order (ascending ids). Their
    /// positions are what the geometry reads; they are unchanged while
    /// no member is written after `clock`. Exactly as long as the ring.
    members: Box<[u32]>,
}

impl ViewSlot {
    /// Whether the stored disk and reach answer a computation with these
    /// inputs: equal scalars and member ids, and no member written since
    /// the view was stored.
    pub(crate) fn matches(
        &self,
        net: &Network,
        k: usize,
        self_pos: Point,
        rho: f64,
        dominated: bool,
        members: &[usize],
    ) -> bool {
        self.keyed
            && self.k as usize == k
            && self.self_pos == self_pos
            && self.view.rho == rho
            && self.view.dominated == dominated
            && self.members.len() == members.len()
            && self.members.iter().zip(members).all(|(&stored, &m)| {
                stored as usize == m && net.written_at(NodeId(m)) <= self.clock
            })
    }

    /// Stores `view`, computed from these inputs at `net`'s current write
    /// clock, under its key. The member ids are overwritten in place when
    /// the ring kept its length and reallocated at the new length
    /// otherwise.
    pub(crate) fn store_keyed(
        &mut self,
        net: &Network,
        k: usize,
        self_pos: Point,
        members: &[usize],
        view: NodeView,
    ) {
        debug_assert!(k <= u32::MAX as usize, "k = {k} exceeds u32");
        self.view = view;
        self.keyed = true;
        self.k = k as u32;
        self.self_pos = self_pos;
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

    /// Stores `view` with no key (a computation whose inputs are not
    /// only positions, as in ranging mode): it is replayed, never reused.
    pub(crate) fn store_unkeyed(&mut self, view: NodeView) {
        self.view = view;
        self.keyed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_longer_member_list_of_unwritten_nodes_misses() {
        let net = Network::from_positions(0.5, (0..4).map(|i| Point::new(i as f64, 0.0)));
        let mut store = ViewStore::new();
        let slot = &mut store.slots_for(&net)[0];
        let p = net.position(NodeId(0));
        let view = NodeView {
            rho: 1.0,
            dominated: true,
            ..NodeView::default()
        };
        slot.store_keyed(&net, 1, p, &[1, 2], view);
        assert!(slot.matches(&net, 1, p, 1.0, true, &[1, 2]));
        // Node 3 was never written after the view, yet it is not one of
        // the members the key describes.
        assert!(!slot.matches(&net, 1, p, 1.0, true, &[1, 2, 3]));
        assert!(!slot.matches(&net, 1, p, 1.0, true, &[1, 3]));
        assert!(!slot.matches(&net, 1, p, 1.0, true, &[1]));
        // An unkeyed view is never reused.
        slot.store_unkeyed(view);
        assert!(!slot.matches(&net, 1, p, 1.0, true, &[1, 2]));
    }
}
