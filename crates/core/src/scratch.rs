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
//! guards reuse of its geometry (`k`, ring radius and verdict, the
//! ring's member ids and the network's write clock when the view was
//! computed). A slot stores the view's fields flat — its scalars, the
//! disk as a centre and a radius, and one byte of flags — in 96 bytes
//! plus the member ids, and rebuilds the [`NodeView`] on read. The
//! session's dirty-node index replays a clean node's slot as it is; a
//! dirty node runs its ring search and then reuses the slot's disk and
//! reach when the key still matches. A hit requires that neither the
//! node nor a member was written since the view was stored, so every
//! input position is unchanged and the hit returns exactly what a
//! recomputation would. The slot of node `i` is the same whichever
//! worker computes it, so the work counters do not depend on the thread
//! count.

use crate::localview::NodeView;
use crate::ring::DominationScratch;
use laacad_geom::polygon::regular_directions;
use laacad_geom::{Circle, Point, PolygonBuf, Vector};
use laacad_voronoi::dominating::{PieceSet, SubdivisionScratch};
use laacad_wsn::multihop::RingScratch;
use laacad_wsn::radio::MessageStats;
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
    pub(crate) fn view(&self, i: usize) -> NodeView {
        self.slots[i].view()
    }

    /// The stored views, in id order.
    pub(crate) fn views(&self) -> impl Iterator<Item = NodeView> + '_ {
        self.slots.iter().map(ViewSlot::view)
    }

    /// Drops the slots of ids `n` and above (nodes that no longer exist
    /// after a removal).
    pub(crate) fn truncate(&mut self, n: usize) {
        self.slots.truncate(n);
    }
}

/// [`ViewSlot::flags`] bits: the view's three verdicts, whether it has a
/// disk, and whether the key describes it.
const DOMINATED: u8 = 1;
const SATURATED: u8 = 1 << 1;
const CACHE_HIT: u8 = 1 << 2;
const HAS_DISK: u8 = 1 << 3;
const KEYED: u8 = 1 << 4;

/// One node's last view, stored flat, together with the key that guards
/// reuse of its disk and reach.
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewSlot {
    /// The view's ring radius `ρ` (part of the key).
    rho: f64,
    /// The view's reach.
    reach: f64,
    /// The view's contact radius.
    contact_radius: f64,
    /// The view's ring-search messages.
    messages: MessageStats,
    /// Centre of the view's Chebyshev disk (zero without a disk).
    centre: Point,
    /// Radius of the view's Chebyshev disk (zero without a disk).
    radius: f64,
    /// The network's write clock when the view was computed.
    clock: u64,
    /// The ring's members in the search's order (ascending ids). Their
    /// positions and the node's own are what the geometry reads; they
    /// are unchanged while none of them is written after `clock`.
    /// Exactly as long as the ring.
    members: Box<[u32]>,
    /// Coverage degree the view was computed for (`SetK` events change it
    /// mid-run).
    k: u32,
    /// `DOMINATED | SATURATED | CACHE_HIT | HAS_DISK | KEYED`; the
    /// verdict bit is part of the key.
    flags: u8,
}

impl ViewSlot {
    /// The stored view.
    pub(crate) fn view(&self) -> NodeView {
        NodeView {
            rho: self.rho,
            dominated: self.flags & DOMINATED != 0,
            saturated: self.flags & SATURATED != 0,
            messages: self.messages,
            chebyshev: (self.flags & HAS_DISK != 0).then_some(Circle {
                center: self.centre,
                radius: self.radius,
            }),
            reach: self.reach,
            contact_radius: self.contact_radius,
            cache_hit: self.flags & CACHE_HIT != 0,
        }
    }

    /// The stored view's ring radius.
    pub(crate) fn rho(&self) -> f64 {
        self.rho
    }

    /// Stores `view`'s fields, with `keyed` as the key's validity.
    fn set_view(&mut self, view: NodeView, keyed: bool) {
        let disk = view.chebyshev.unwrap_or(Circle {
            center: Point::new(0.0, 0.0),
            radius: 0.0,
        });
        self.rho = view.rho;
        self.reach = view.reach;
        self.contact_radius = view.contact_radius;
        self.messages = view.messages;
        self.centre = disk.center;
        self.radius = disk.radius;
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        self.flags = bit(view.dominated, DOMINATED)
            | bit(view.saturated, SATURATED)
            | bit(view.cache_hit, CACHE_HIT)
            | bit(view.chebyshev.is_some(), HAS_DISK)
            | bit(keyed, KEYED);
    }

    /// Whether the stored disk and reach answer node `id`'s computation
    /// with these inputs: equal scalars and member ids, and neither the
    /// node nor a member written since the view was stored.
    pub(crate) fn matches(
        &self,
        net: &Network,
        id: NodeId,
        k: usize,
        rho: f64,
        dominated: bool,
        members: &[usize],
    ) -> bool {
        self.flags & KEYED != 0
            && self.k as usize == k
            && self.rho == rho
            && (self.flags & DOMINATED != 0) == dominated
            && net.written_at(id) <= self.clock
            && self.members.len() == members.len()
            && self.members.iter().zip(members).all(|(&stored, &m)| {
                stored as usize == m && net.written_at(NodeId(m)) <= self.clock
            })
    }

    /// Stores `view` with the disk and reach it reused from the stored
    /// view (a hit: the key is unchanged).
    pub(crate) fn store_hit(&mut self, view: NodeView) {
        debug_assert!(view.cache_hit && self.flags & KEYED != 0);
        self.set_view(view, true);
    }

    /// Stores `view`, computed from these inputs at `net`'s current write
    /// clock, under its key. The member ids are overwritten in place when
    /// the ring kept its length and reallocated at the new length
    /// otherwise.
    pub(crate) fn store_keyed(
        &mut self,
        net: &Network,
        k: usize,
        members: &[usize],
        view: NodeView,
    ) {
        debug_assert!(k <= u32::MAX as usize, "k = {k} exceeds u32");
        self.set_view(view, true);
        self.k = k as u32;
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
        self.set_view(view, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_node_view, LaacadConfig};
    use laacad_region::Region;

    #[test]
    fn a_longer_member_list_of_unwritten_nodes_misses() {
        let net = Network::from_positions(0.5, (0..4).map(|i| Point::new(i as f64, 0.0)));
        let mut store = ViewStore::new();
        let slot = &mut store.slots_for(&net)[0];
        let id = NodeId(0);
        let view = NodeView {
            rho: 1.0,
            dominated: true,
            ..NodeView::default()
        };
        slot.store_keyed(&net, 1, &[1, 2], view);
        assert!(slot.matches(&net, id, 1, 1.0, true, &[1, 2]));
        // Node 3 was never written after the view, yet it is not one of
        // the members the key describes.
        assert!(!slot.matches(&net, id, 1, 1.0, true, &[1, 2, 3]));
        assert!(!slot.matches(&net, id, 1, 1.0, true, &[1, 3]));
        assert!(!slot.matches(&net, id, 1, 1.0, true, &[1]));
        // An unkeyed view is never reused.
        slot.store_unkeyed(view);
        assert!(!slot.matches(&net, id, 1, 1.0, true, &[1, 2]));
    }

    #[test]
    fn a_node_moved_away_and_back_misses_its_own_view() {
        let area = Region::square(1.0).unwrap();
        let mut net = Network::from_positions(
            0.18,
            (0..9).flat_map(|i| (0..9).map(move |j| Point::new(i as f64 * 0.12, j as f64 * 0.12))),
        );
        let config = LaacadConfig::builder(2)
            .transmission_range(0.15)
            .build()
            .unwrap();
        let node = NodeId(40);
        let mut store = ViewStore::new();
        let view = |net: &Network, store: &mut ViewStore| {
            let view = compute_node_view(net, None, node, &area, &config, 0, store);
            let cold = compute_node_view(net, None, node, &area, &config, 0, &mut ViewStore::new());
            assert!(!cold.cache_hit);
            assert_eq!(view.chebyshev, cold.chebyshev);
            assert_eq!(view.reach.to_bits(), cold.reach.to_bits());
            view
        };
        view(&net, &mut store);
        assert!(view(&net, &mut store).cache_hit);
        let home = net.position(node);
        net.move_node(node, Point::new(0.9, 0.9));
        net.move_node(node, home);
        // Same bits as when the view was stored, but written since: the
        // key holds no copy of the position, only the write clock.
        assert_eq!(net.position(node), home);
        assert!(!view(&net, &mut store).cache_hit);
        assert!(view(&net, &mut store).cache_hit);
    }

    #[test]
    fn a_slot_stores_every_view_field_and_fits_in_96_bytes() {
        assert!(std::mem::size_of::<ViewSlot>() <= 96);
        let net = Network::from_positions(0.5, [Point::new(0.0, 0.0)]);
        let mut slot = ViewSlot::default();
        let full = NodeView {
            rho: 0.25,
            dominated: true,
            saturated: true,
            messages: MessageStats {
                unicast: 7,
                broadcast: 3,
            },
            chebyshev: Some(Circle {
                center: Point::new(0.125, -0.5),
                radius: 0.375,
            }),
            reach: 0.5,
            contact_radius: 0.75,
            cache_hit: true,
        };
        let empty = NodeView {
            rho: 0.5,
            ..NodeView::default()
        };
        for view in [full, empty] {
            slot.store_keyed(&net, 1, &[], view);
            assert_eq!(format!("{:?}", slot.view()), format!("{view:?}"));
            slot.store_unkeyed(view);
            assert_eq!(format!("{:?}", slot.view()), format!("{view:?}"));
        }
    }
}
