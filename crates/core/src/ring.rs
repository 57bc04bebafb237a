//! Algorithm 2 — localized `V^k_i` discovery by expanding-ring search.
//!
//! The ring radius `ρ` grows in transmission-range (`γ`) increments. After
//! each expansion the node checks the circle of radius `ρ/2` around
//! itself: expansion stops once **every** in-area point of that circle has
//! at least `k` *other* nodes strictly closer than the node itself
//! (evaluated exactly as an arc-coverage-depth query; paper lines 5–8 and
//! Prop. 1). Because dominating regions are star-shaped about their node,
//! domination of the whole circle implies `V^k_i ⊆ disk(ρ/2)`, and by
//! Lemma 1 the nodes within `ρ` then suffice to compute it exactly.
//!
//! A node whose ring saturates its connected component without achieving
//! domination is a **boundary node** (Fig. 3): its dominating region is
//! bounded by the target area itself, and — during the expansion phase —
//! optionally by the searching ring (see [`crate::RingCapPolicy`]).

use laacad_geom::{Arc, ArcCover, Circle, DepthScratch, HalfPlane, Point, PseudoArcCover, Vector};
use laacad_region::arcs::arcs_inside_region_into;
use laacad_region::Region;
use laacad_wsn::multihop::{hop_budget, RingQuery, RingScratch, DEFAULT_HOP_SLACK};
use laacad_wsn::radio::MessageStats;
use laacad_wsn::{Adjacency, Network, NodeId};
use std::f64::consts::TAU;
use std::sync::OnceLock;

/// Result of the expanding-ring search for one node.
#[derive(Debug, Clone)]
pub struct RingOutcome {
    /// Members of `N(n_i, ρ)` at termination (center excluded).
    pub candidates: Vec<NodeId>,
    /// Final ring radius `ρ`.
    pub rho: f64,
    /// Whether the ring check succeeded (`out = true` in Algorithm 2):
    /// every in-area circle point is dominated by ≥ k other nodes.
    pub dominated: bool,
    /// Whether the ring saturated the node's connected component (the
    /// boundary-node condition) or hit the `max_rho` guard.
    pub saturated: bool,
    /// Messages spent on the search.
    pub messages: MessageStats,
}

/// Reusable buffers for the ring-domination check
/// ([`circle_dominated`]): the in-area query arcs, the boundary-crossing angle scratch, the
/// competitor indices in nearest-first selection order, the competitor
/// bisectors, the dominance-arc cover and the depth-sweep buffers (which
/// also hold the pseudo-angle cover's endpoints). One instance per worker makes every
/// ring-domination check allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DominationScratch {
    query: Vec<Arc>,
    cuts: Vec<f64>,
    nearest: Vec<usize>,
    pub(crate) bisectors: MemberBisectors,
    cover: ArcCover,
    depth: DepthScratch,
}

impl DominationScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The bisectors `closer_to(competitor, center)` of one view, each
/// computed at most once and only when a check or the geometry needs it.
///
/// During the ring search the slots are aligned with the ring's member
/// list (ascending ids), which only ever grows: [`MemberBisectors::sync`]
/// re-aligns them to a longer list, keeping every slot already computed.
/// The dominance arcs of every stage read them, and in oracle mode the
/// geometry loads them instead of recomputing one bisector per site.
/// Only the member list is held (no per-node array).
#[derive(Debug, Clone, Default)]
pub(crate) struct MemberBisectors {
    /// The member ids the slots are aligned with.
    ids: Vec<usize>,
    slots: Vec<Slot>,
}

/// One competitor's bisector: not computed yet, or `closer_to`'s result
/// (`None` for a co-located competitor).
#[derive(Debug, Clone, Copy)]
enum Slot {
    Unknown,
    Known(Option<HalfPlane>),
}

impl MemberBisectors {
    /// Forgets every slot (a new view begins).
    pub(crate) fn reset(&mut self) {
        self.ids.clear();
        self.slots.clear();
    }

    /// `len` unknown slots aligned with a competitor list that is not a
    /// member list (the standalone [`circle_dominated`]).
    fn unaligned(&mut self, len: usize) {
        self.reset();
        self.slots.resize(len, Slot::Unknown);
    }

    /// Re-aligns the slots with `members`, a superset of the previous
    /// member list (both ascending): a merge from the back moves each
    /// known slot to its member's new index, new members get unknown
    /// slots. Should the lists not nest, every slot is forgotten.
    pub(crate) fn sync(&mut self, members: &[usize]) {
        if self.ids == members {
            return;
        }
        let old = self.ids.len();
        self.slots.resize(members.len().max(old), Slot::Unknown);
        let mut j = old;
        for i in (0..members.len()).rev() {
            // A kept slot moves to an index ≥ its old one, so the merge
            // never overwrites a slot it has yet to read.
            if j > 0 && j - 1 <= i && self.ids[j - 1] == members[i] {
                j -= 1;
                self.slots[i] = self.slots[j];
            } else {
                self.slots[i] = Slot::Unknown;
            }
        }
        self.slots.truncate(members.len());
        if j != 0 {
            debug_assert!(false, "ring members only ever join");
            self.slots.fill(Slot::Unknown);
        }
        self.ids.clear();
        self.ids.extend_from_slice(members);
    }

    /// The bisector of competitor `i` (at `position`) against `center`.
    pub(crate) fn get(&mut self, i: usize, center: Point, position: Point) -> Option<HalfPlane> {
        match self.slots[i] {
            Slot::Known(h) => h,
            Slot::Unknown => {
                let h = HalfPlane::closer_to(position, center);
                self.slots[i] = Slot::Known(h);
                h
            }
        }
    }
}

/// Checks whether every in-area point of `circle` has at least `k` of the
/// `competitors` strictly closer than `center` (an exact arc-depth query).
///
/// Returns `true` for the vacuous case where no part of the circle lies
/// inside the area (nothing left to dominate).
pub fn circle_dominated(
    center: Point,
    competitors: &[Point],
    circle: &Circle,
    region: &Region,
    k: usize,
) -> bool {
    let mut scratch = DominationScratch::new();
    scratch.bisectors.unaligned(competitors.len());
    settle_domination(center, competitors, circle, region, k, &mut scratch).holds()
}

/// Which step of [`circle_dominated`] settled a check, and —
/// for the sweeps — whether the pseudo-angle sweep did
/// ([`PseudoArcCover`]) or the angle sweep ([`ArcCover`]).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))] // `pseudo` is read by the tests
enum Settled {
    /// No part of the circle lies inside the area: `true`.
    Vacuous,
    /// Fewer than `k` competitors: `false`.
    TooFew,
    /// A probe point had fewer than `k` competitors closer: `false`.
    Probe,
    /// The nearest-subset sweep certified depth `≥ k`: `true`.
    Subset { pseudo: bool },
    /// The full sweep, after a subset sweep that read depth `< k`.
    Fallback { holds: bool, pseudo: bool },
    /// The full angle sweep, after an angle subset sweep that leaned on a
    /// tolerance.
    Uncertified { holds: bool },
    /// The full sweep, with too few competitors for a subset.
    Full { holds: bool, pseudo: bool },
}

impl Settled {
    fn holds(self) -> bool {
        match self {
            Settled::Vacuous | Settled::Subset { .. } => true,
            Settled::TooFew | Settled::Probe => false,
            Settled::Fallback { holds, .. }
            | Settled::Uncertified { holds }
            | Settled::Full { holds, .. } => holds,
        }
    }
}

/// Number of nearest competitors swept before the full cover, when there
/// are more than this many: `2k + 6`.
///
/// A node's `k` nearest competitors alone can leave a gap, so the subset
/// carries margin beyond `k`; on the Fig. 5 corner runs this size settles
/// about two thirds of the exact sweeps. Any subset gives the same
/// verdict, so the size moves only the work.
fn subset_len(k: usize) -> usize {
    2 * k + 6
}

/// The unit directions of the probe points on a full-circle query arc:
/// angles `0 + 2π·{½, ⅛, ⅞}`, computed once with the calls
/// [`Circle::point_at`] makes.
fn full_circle_probe_dirs() -> &'static [Vector; 3] {
    static DIRS: OnceLock<[Vector; 3]> = OnceLock::new();
    DIRS.get_or_init(|| PROBE_FRACS.map(|frac| Vector::from_angle(0.0 + TAU * frac)))
}

/// Where along each query arc the probes sit.
const PROBE_FRACS: [f64; 3] = [0.5, 0.125, 0.875];

/// Whether `query` is exactly the full circle ([`Arc::full`]), which is
/// what the in-area arcs of an interior node's circle are.
fn is_full_circle(query: &[Arc]) -> bool {
    matches!(query, [q] if *q == Arc::full())
}

/// Adds the dominance arcs of `competitors[i]` for each `i` in `which`.
/// Points of the circle exactly equidistant do not count as dominated:
/// the sweeps read depth on open intervals.
fn add_dominance_arcs(
    cover: &mut ArcCover,
    bisectors: &mut MemberBisectors,
    center: Point,
    competitors: &[Point],
    circle: &Circle,
    which: impl IntoIterator<Item = usize>,
) {
    for i in which {
        // Co-located competitors are never strictly closer.
        if let Some(h) = bisectors.get(i, center, competitors[i]) {
            cover.add_span(Arc::from_halfplane_on_circle(circle, &h));
        }
    }
}

/// [`add_dominance_arcs`] with pseudo-angle endpoints.
fn add_pseudo_arcs(
    cover: &mut PseudoArcCover<'_>,
    bisectors: &mut MemberBisectors,
    center: Point,
    competitors: &[Point],
    circle: &Circle,
    which: impl IntoIterator<Item = usize>,
) {
    for i in which {
        if let Some(h) = bisectors.get(i, center, competitors[i]) {
            cover.add_halfplane(circle, &h);
        }
    }
}

/// The body of [`circle_dominated`], reporting which step
/// settled the verdict. `scratch.bisectors` must hold one slot per
/// competitor.
///
/// After the cheap disproofs, the exact arc-depth sweep first runs on the
/// [`subset_len`] nearest competitors. Adding arcs never lowers a depth,
/// so a subset depth `≥ k` proves the full one — provided the subset
/// sweep leaned on neither of its tolerances, which could hide an
/// interval the full sweep evaluates
/// ([`ArcCover::min_depth_on_certified`]). Otherwise the remaining arcs
/// join the cover and the full sweep decides, exactly as without the
/// subset (the sweep's result does not depend on the order arcs were
/// added in).
///
/// That subset-first logic runs first on pseudo-angle arcs
/// ([`PseudoArcCover`]), restricted to the in-area query arcs when they
/// are not the full circle (a boundary node's check): a certified
/// pseudo-angle sweep returns what the certified angle sweep of the same
/// arcs over the same query returns, so its subset acceptance and full
/// verdict are the angle sweep's. Any sweep it cannot certify hands the
/// whole check to the angle sweeps.
fn settle_domination(
    center: Point,
    competitors: &[Point],
    circle: &Circle,
    region: &Region,
    k: usize,
    scratch: &mut DominationScratch,
) -> Settled {
    arcs_inside_region_into(circle, region, &mut scratch.cuts, &mut scratch.query);
    if scratch.query.is_empty() {
        return Settled::Vacuous;
    }
    // Depth is bounded by the competitor count, so fewer than `k`
    // competitors can never dominate a non-vacuous circle.
    if competitors.len() < k {
        return Settled::TooFew;
    }
    // Cheap disproof before the exact sweep: probe a few points inside
    // the in-area arcs; a probe with fewer than `k` competitors closer —
    // counted *generously*, so no competitor the sweep would credit is
    // missed — is an exact witness that the check fails. Early
    // expansions almost always fail this way, skipping their arc sweeps.
    let full = is_full_circle(&scratch.query);
    let mut probes = 0;
    for arc in scratch.query.iter() {
        if arc.span() <= 0.0 {
            continue;
        }
        for (p, frac) in PROBE_FRACS.into_iter().enumerate() {
            if probes >= 6 {
                break;
            }
            probes += 1;
            let v = if full {
                circle.center + full_circle_probe_dirs()[p] * circle.radius
            } else {
                circle.point_at(arc.start() + arc.span() * frac)
            };
            let d_sq = center.distance_sq(v);
            let guard = 1e-9 * (1.0 + d_sq);
            let mut closer = 0usize;
            for c in competitors {
                if c.distance_sq(v) < d_sq + guard {
                    closer += 1;
                    if closer >= k {
                        break;
                    }
                }
            }
            if closer < k {
                return Settled::Probe;
            }
        }
    }
    let m = subset_len(k);
    let split = competitors.len() > m;
    if split {
        let nearest = &mut scratch.nearest;
        nearest.clear();
        nearest.extend(0..competitors.len());
        nearest.select_nth_unstable_by(m, |&a, &b| {
            let d = |i: usize| center.distance_sq(competitors[i]);
            d(a).total_cmp(&d(b))
        });
    }
    if let Some(settled) = settle_pseudo(center, competitors, circle, k, split, scratch) {
        return settled;
    }
    let DominationScratch {
        query,
        nearest,
        bisectors,
        cover,
        depth,
        ..
    } = scratch;
    cover.clear();
    let certified = if split {
        let (near, far) = nearest.split_at(m);
        let near = near.iter().copied();
        add_dominance_arcs(cover, bisectors, center, competitors, circle, near);
        let subset = cover.min_depth_on_certified(query, depth);
        if subset.is_some_and(|d| d >= k) {
            return Settled::Subset { pseudo: false };
        }
        let far = far.iter().copied();
        add_dominance_arcs(cover, bisectors, center, competitors, circle, far);
        Some(subset.is_some())
    } else {
        let all = 0..competitors.len();
        add_dominance_arcs(cover, bisectors, center, competitors, circle, all);
        None
    };
    let holds = cover.min_depth_on_scratched(query, depth) >= k;
    match certified {
        Some(true) => Settled::Fallback {
            holds,
            pseudo: false,
        },
        Some(false) => Settled::Uncertified { holds },
        None => Settled::Full {
            holds,
            pseudo: false,
        },
    }
}

/// The subset-first sweep of [`settle_domination`] on pseudo-angle arcs,
/// restricted to `scratch.query` unless that is the full circle; `None`
/// when a sweep it needed could not be certified. `split` says whether
/// `scratch.nearest` holds the nearest-first selection.
fn settle_pseudo(
    center: Point,
    competitors: &[Point],
    circle: &Circle,
    k: usize,
    split: bool,
    scratch: &mut DominationScratch,
) -> Option<Settled> {
    let DominationScratch {
        query,
        nearest,
        bisectors,
        depth,
        ..
    } = scratch;
    let pseudo = &mut depth.pseudo_cover();
    if !is_full_circle(query) {
        pseudo.restrict_to(query);
    }
    if !split {
        let all = 0..competitors.len();
        add_pseudo_arcs(pseudo, bisectors, center, competitors, circle, all);
        let holds = pseudo.min_depth_certified()? >= k;
        return Some(Settled::Full {
            holds,
            pseudo: true,
        });
    }
    let (near, far) = nearest.split_at(subset_len(k));
    let near = near.iter().copied();
    add_pseudo_arcs(pseudo, bisectors, center, competitors, circle, near);
    if pseudo.min_depth_certified()? >= k {
        return Some(Settled::Subset { pseudo: true });
    }
    let far = far.iter().copied();
    add_pseudo_arcs(pseudo, bisectors, center, competitors, circle, far);
    let holds = pseudo.min_depth_certified()? >= k;
    Some(Settled::Fallback {
        holds,
        pseudo: true,
    })
}

/// Runs the expanding-ring search (Algorithm 2) for `id` with one-shot
/// scratch buffers — see [`expanding_ring_search_scratched`] for the
/// reusable-buffer form the round engine uses.
///
/// `max_rho` bounds the search; pass the region diameter for the paper's
/// semantics (the ring can always grow until the area boundary acts as
/// the natural boundary).
pub fn expanding_ring_search(
    net: &Network,
    id: NodeId,
    region: &Region,
    k: usize,
    max_rho: f64,
) -> RingOutcome {
    let mut scratch = RingScratch::new();
    let mut competitors = Vec::new();
    expanding_ring_search_scratched(
        net,
        None,
        id,
        region,
        k,
        max_rho,
        &mut scratch,
        &mut competitors,
    )
}

/// [`expanding_ring_search`] over caller-owned buffers, optionally
/// against a prebuilt one-hop [`Adjacency`] snapshot of `net`.
///
/// The search is **incremental**: each `ρ += γ` expansion resumes the
/// multi-hop BFS frontier where the previous one stopped
/// ([`RingQuery`]), instead of re-flooding from the center. Members,
/// final `ρ`, and the per-expansion [`MessageStats`] are identical to
/// the from-scratch formulation — the message accounting still charges
/// every expansion as a full re-flood, which is what the radio would do.
#[allow(clippy::too_many_arguments)]
pub fn expanding_ring_search_scratched(
    net: &Network,
    adjacency: Option<&Adjacency>,
    id: NodeId,
    region: &Region,
    k: usize,
    max_rho: f64,
    scratch: &mut RingScratch,
    competitors: &mut Vec<Point>,
) -> RingOutcome {
    let status = expanding_ring_search_status(
        net,
        adjacency,
        id,
        region,
        k,
        max_rho,
        scratch,
        competitors,
        &mut DominationScratch::new(),
    );
    RingOutcome {
        candidates: scratch.last_members().iter().map(|&m| NodeId(m)).collect(),
        rho: status.rho,
        dominated: status.dominated,
        saturated: status.saturated,
        messages: status.messages,
    }
}

/// [`RingOutcome`] without the member list — everything the round engine
/// needs by value; the members stay in the scratch
/// ([`RingScratch::last_members`]) and their positions in `competitors`,
/// both in ascending-id order, so the hot path never materializes a
/// per-node candidate vector.
#[derive(Debug, Clone, Copy)]
pub struct RingStatus {
    /// Final ring radius `ρ`.
    pub rho: f64,
    /// Whether the ring check succeeded (Algorithm 2 `out = true`).
    pub dominated: bool,
    /// Whether the search saturated the connected component / `max_rho`.
    pub saturated: bool,
    /// Messages spent on the search.
    pub messages: MessageStats,
    /// Exact maximal contact distance of the whole search: the farthest
    /// node the multi-hop BFS ever explored (members, relays, broadcast
    /// accounting — see [`RingQuery::contact_radius`]). Any node beyond
    /// this distance had no influence on the outcome, which is what lets
    /// the dirty-node classifier bound re-activation by what the search
    /// *actually* touched instead of the `ρ + (slack+1)γ` hop-path
    /// worst case.
    ///
    /// [`RingQuery::contact_radius`]: laacad_wsn::multihop::RingQuery::contact_radius
    pub contact_radius: f64,
}

/// The allocation-free core of [`expanding_ring_search_scratched`]:
/// identical search, but the member set is left in `scratch` /
/// `competitors` instead of being copied into an owned vector.
#[allow(clippy::too_many_arguments)]
pub fn expanding_ring_search_status(
    net: &Network,
    adjacency: Option<&Adjacency>,
    id: NodeId,
    region: &Region,
    k: usize,
    max_rho: f64,
    scratch: &mut RingScratch,
    competitors: &mut Vec<Point>,
    domination: &mut DominationScratch,
) -> RingStatus {
    let gamma = net.gamma();
    let center = net.position(id);
    let mut rho = 0.0;
    let mut messages = MessageStats::default();
    let mut query = match adjacency {
        Some(adj) => RingQuery::begin_indexed(net, adj, id, scratch),
        None => RingQuery::begin(net, id, scratch),
    };
    domination.bisectors.reset();
    loop {
        rho += gamma;
        let step = query.collect(rho, hop_budget(rho, gamma, DEFAULT_HOP_SLACK));
        messages.absorb(step.messages);
        let circle = Circle::new(center, rho / 2.0);
        competitors.clear();
        competitors.extend(query.members().iter().map(|&m| net.position(NodeId(m))));
        domination.bisectors.sync(query.members());
        if settle_domination(center, competitors, &circle, region, k, domination).holds() {
            let contact_radius = query.contact_radius();
            return RingStatus {
                rho,
                dominated: true,
                saturated: false,
                messages,
                contact_radius,
            };
        }
        // Saturation: the ring already contains the node's whole connected
        // component *and* widening the Euclidean filter cannot add members
        // (everything reachable is inside the ring). Further expansion is
        // futile — this is the boundary-node case. Membership is monotone
        // under expansion, so "no new members" is the old full-comparison
        // `members == last_members` check without the per-expansion clone.
        let same_as_before = step.new_members == 0;
        let euclidean_slack = rho - query.farthest_member_distance() > gamma;
        if (same_as_before && euclidean_slack) || rho >= max_rho {
            let contact_radius = query.contact_radius();
            return RingStatus {
                rho,
                dominated: false,
                saturated: true,
                messages,
                contact_radius,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_grid_network(spacing: f64, n_side: usize, gamma: f64) -> Network {
        Network::from_positions(
            gamma,
            (0..n_side).flat_map(move |i| {
                (0..n_side).map(move |j| Point::new(i as f64 * spacing, j as f64 * spacing))
            }),
        )
    }

    #[test]
    fn interior_node_terminates_quickly_for_k1() {
        let region = Region::square(1.0).unwrap();
        // 11×11 grid with 0.1 spacing fills the unit square.
        let net = dense_grid_network(0.1, 11, 0.15);
        // Center node (5,5) → id 5*11+5 = 60.
        let out = expanding_ring_search(&net, NodeId(60), &region, 1, 3.0);
        assert!(out.dominated);
        assert!(!out.saturated);
        // k=1 needs only the immediate neighborhood: ρ ≤ a few γ.
        assert!(out.rho <= 0.5, "ρ = {}", out.rho);
        assert!(!out.candidates.is_empty());
    }

    #[test]
    fn ring_grows_with_k() {
        let region = Region::square(1.0).unwrap();
        let net = dense_grid_network(0.1, 11, 0.15);
        let rho_k: Vec<f64> = (1..=4)
            .map(|k| expanding_ring_search(&net, NodeId(60), &region, k, 3.0).rho)
            .collect();
        for w in rho_k.windows(2) {
            assert!(w[1] >= w[0], "ρ must not shrink with k: {rho_k:?}");
        }
        assert!(rho_k[3] > rho_k[0], "k=4 needs a wider ring than k=1");
    }

    #[test]
    fn corner_node_is_dominated_thanks_to_area_clipping() {
        // The corner node of a dense grid: out-of-area arcs are excluded
        // from the check (Fig. 3), so the ring closes.
        let region = Region::square(1.0).unwrap();
        let net = dense_grid_network(0.1, 11, 0.15);
        let out = expanding_ring_search(&net, NodeId(0), &region, 1, 3.0);
        assert!(
            out.dominated,
            "ρ = {}, saturated = {}",
            out.rho, out.saturated
        );
    }

    #[test]
    fn sparse_cluster_saturates() {
        // Three nodes huddled in a corner of a large area: for k = 2 the
        // far side of the circle is never dominated → boundary case.
        let region = Region::square(10.0).unwrap();
        let net = Network::from_positions(
            0.3,
            [
                Point::new(0.2, 0.2),
                Point::new(0.4, 0.2),
                Point::new(0.3, 0.4),
            ],
        );
        let out = expanding_ring_search(&net, NodeId(0), &region, 2, 30.0);
        assert!(!out.dominated);
        assert!(out.saturated);
        assert_eq!(out.candidates.len(), 2);
    }

    #[test]
    fn isolated_node_saturates_immediately() {
        let region = Region::square(1.0).unwrap();
        let net = Network::from_positions(0.1, [Point::new(0.5, 0.5)]);
        let out = expanding_ring_search(&net, NodeId(0), &region, 1, 5.0);
        assert!(!out.dominated);
        assert!(out.saturated);
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn domination_check_matches_brute_force() {
        let region = Region::square(1.0).unwrap();
        let center = Point::new(0.5, 0.5);
        let competitors = [
            Point::new(0.62, 0.5),
            Point::new(0.38, 0.52),
            Point::new(0.5, 0.62),
            Point::new(0.48, 0.38),
        ];
        for k in 1..=3usize {
            for rho_half in [0.05, 0.1, 0.2, 0.4] {
                let circle = Circle::new(center, rho_half);
                let exact = circle_dominated(center, &competitors, &circle, &region, k);
                // Brute force over dense circle samples.
                let mut brute = true;
                for i in 0..1440 {
                    let th = (i as f64 + 0.5) / 1440.0 * std::f64::consts::TAU;
                    let v = circle.point_at(th);
                    if !region.contains(v) {
                        continue;
                    }
                    let closer = competitors
                        .iter()
                        .filter(|c| c.distance(v) < center.distance(v) - 1e-12)
                        .count();
                    if closer < k {
                        brute = false;
                        break;
                    }
                }
                assert_eq!(exact, brute, "k={k} ρ/2={rho_half}");
            }
        }
    }

    /// The verdict without the nearest-subset sweep: every competitor's
    /// angle arc in one cover, one exact sweep (no probes either — they
    /// are exact disproofs, so the verdict must not depend on them; no
    /// pseudo-angles and no stored bisectors).
    fn full_sweep_verdict(
        center: Point,
        competitors: &[Point],
        circle: &Circle,
        region: &Region,
        k: usize,
    ) -> bool {
        let mut query = Vec::new();
        arcs_inside_region_into(circle, region, &mut Vec::new(), &mut query);
        if query.is_empty() {
            return true;
        }
        if competitors.len() < k {
            return false;
        }
        let mut cover = ArcCover::new();
        for &c in competitors {
            if let Some(h) = HalfPlane::closer_to(c, center) {
                cover.add_span(Arc::from_halfplane_on_circle(circle, &h));
            }
        }
        cover.min_depth_on(&query) >= k
    }

    /// [`settle_domination`] as [`circle_dominated`] runs it.
    fn settle(
        center: Point,
        competitors: &[Point],
        circle: &Circle,
        region: &Region,
        k: usize,
        scratch: &mut DominationScratch,
    ) -> Settled {
        scratch.bisectors.unaligned(competitors.len());
        settle_domination(center, competitors, circle, region, k, scratch)
    }

    /// `p` rotated about `c` by `angle` radians.
    fn rotate(p: Point, c: Point, angle: f64) -> Point {
        let (s, co) = angle.sin_cos();
        let (dx, dy) = (p.x - c.x, p.y - c.y);
        Point::new(c.x + co * dx - s * dy, c.y + s * dx + co * dy)
    }

    #[test]
    fn subset_first_verdict_matches_the_full_sweep() {
        use laacad_region::sampling::SplitMix64;
        use std::f64::consts::TAU;
        let region = Region::square(1.0).unwrap();
        let mut rng = SplitMix64::new(0xD0_0D1E);
        let mut scratch = DominationScratch::new();
        let (mut subset, mut fallback, mut uncertified) = (0, 0, 0);
        for trial in 0..4000 {
            let k = 1 + trial % 4;
            let shape = (trial / 4) % 4;
            let spread = 0.08 + 0.3 * rng.next_f64();
            // Centers near an edge or a corner clip the circle by the
            // region boundary.
            let center = match (shape, trial % 3) {
                (0, _) => Point::new(0.5, 0.5),
                (_, 0) => Point::new(0.2 + 0.6 * rng.next_f64(), 0.2 + 0.6 * rng.next_f64()),
                (_, 1) => Point::new(0.02 + 0.1 * rng.next_f64(), 0.2 + 0.6 * rng.next_f64()),
                _ => Point::new(0.05 * rng.next_f64(), 0.05 * rng.next_f64()),
            };
            let mut competitors: Vec<Point> = if shape == 0 {
                // A lattice around a lattice-point center: rings of
                // equidistant competitors whose arcs tie.
                let h = spread / 3.0;
                (-3i32..=3)
                    .flat_map(|i| (-3i32..=3).map(move |j| (i, j)))
                    .filter(|&ij| ij != (0, 0))
                    .map(|(i, j)| {
                        Point::new(center.x + f64::from(i) * h, center.y + f64::from(j) * h)
                    })
                    .collect()
            } else {
                let n = subset_len(k) + 1 + (rng.next_u64() % 30) as usize;
                (0..n)
                    .map(|_| {
                        let r = spread * rng.next_f64().sqrt();
                        let a = TAU * rng.next_f64();
                        Point::new(center.x + r * a.cos(), center.y + r * a.sin())
                    })
                    .collect()
            };
            competitors.sort_by(|a, b| center.distance_sq(*a).total_cmp(&center.distance_sq(*b)));
            match shape {
                // Co-located twins of the nearest, and a competitor on the
                // center itself.
                2 => {
                    competitors.extend_from_within(..4);
                    competitors.push(center);
                }
                // Near twins of the nearest, rotated 1e-15–1e-14 rad about
                // the center: their arc endpoints fall within the sweep's
                // tolerances of the originals'.
                3 => {
                    for i in 0..4 {
                        let angle = 1e-15 * (1.0 + 9.0 * rng.next_f64());
                        competitors.push(rotate(competitors[i], center, angle));
                    }
                }
                _ => {}
            }
            let circle = Circle::new(center, spread * (0.1 + 0.9 * rng.next_f64()));
            let settled = settle(center, &competitors, &circle, &region, k, &mut scratch);
            let expect = full_sweep_verdict(center, &competitors, &circle, &region, k);
            assert_eq!(settled.holds(), expect, "trial {trial} k={k}: {settled:?}");
            match settled {
                Settled::Subset { .. } => subset += 1,
                Settled::Fallback { .. } => fallback += 1,
                Settled::Uncertified { .. } => {
                    fallback += 1;
                    uncertified += 1;
                }
                _ => {}
            }
        }
        assert!(subset > 200, "the subset settled only {subset} checks");
        assert!(
            fallback > 200,
            "only {fallback} checks fell back to the full sweep"
        );
        assert!(
            uncertified > 5,
            "only {uncertified} subset sweeps leaned on a tolerance"
        );
    }

    #[test]
    fn pseudo_angle_sweep_agrees_with_the_angle_sweep() {
        use laacad_region::sampling::SplitMix64;
        let region = Region::square(1.0).unwrap();
        let query = [Arc::full()];
        let mut rng = SplitMix64::new(0x5EED_A2C5);
        let mut depth = DepthScratch::new();
        let mut scratch = DominationScratch::new();
        let (mut certified, mut refused, mut pseudo_verdicts) = (0, 0, 0);
        for trial in 0..4000 {
            let k = 1 + trial % 4;
            let shape = (trial / 4) % 5;
            let center = Point::new(0.4 + 0.2 * rng.next_f64(), 0.4 + 0.2 * rng.next_f64());
            let spread = 0.05 + 0.2 * rng.next_f64();
            // Small enough that the circle stays inside the square: the
            // query is the full circle.
            let circle = Circle::new(center, spread * (0.2 + 0.8 * rng.next_f64()));
            let random = |rng: &mut SplitMix64, n: usize| -> Vec<Point> {
                (0..n)
                    .map(|_| {
                        let r = spread * rng.next_f64().sqrt();
                        let a = TAU * rng.next_f64();
                        Point::new(center.x + r * a.cos(), center.y + r * a.sin())
                    })
                    .collect()
            };
            let n = k + 3 + (rng.next_u64() % 24) as usize;
            let competitors: Vec<Point> = match shape {
                // Random sets.
                0 => random(&mut rng, n),
                // Co-located twins.
                1 => {
                    let mut c = random(&mut rng, n);
                    c.extend_from_within(..2);
                    c
                }
                // A lattice around a lattice-point center: equidistant
                // competitors whose arcs tie.
                2 => {
                    let h = spread / 3.0;
                    (-3i32..=3)
                        .flat_map(|i| (-3i32..=3).map(move |j| (i, j)))
                        .filter(|&ij| ij != (0, 0))
                        .map(|(i, j)| {
                            Point::new(center.x + f64::from(i) * h, center.y + f64::from(j) * h)
                        })
                        .collect()
                }
                // Near twins rotated 1e-9 … 1e-15 rad about the center:
                // endpoints that far apart.
                3 => {
                    let mut c = random(&mut rng, n);
                    for i in 0..3 {
                        let angle = 10f64.powf(-9.0 - 6.0 * rng.next_f64());
                        c.push(rotate(c[i], center, angle));
                    }
                    c
                }
                // Arcs ending at angle 0: the competitor at distance `d`
                // and angle `acos(d / 2r)` dominates up to angle 0.
                _ => {
                    let mut c = random(&mut rng, n);
                    for _ in 0..2 {
                        let d = circle.radius * (0.2 + 1.6 * rng.next_f64());
                        let a = (d / (2.0 * circle.radius)).acos();
                        let a = if rng.next_u64().is_multiple_of(2) {
                            a
                        } else {
                            -a
                        };
                        c.push(Point::new(center.x + d * a.cos(), center.y + d * a.sin()));
                    }
                    c
                }
            };
            // The pseudo-angle sweep against the angle sweep, arc for arc.
            let mut pseudo = depth.pseudo_cover();
            let mut cover = ArcCover::new();
            for &c in &competitors {
                if let Some(h) = HalfPlane::closer_to(c, center) {
                    pseudo.add_halfplane(&circle, &h);
                    cover.add_span(Arc::from_halfplane_on_circle(&circle, &h));
                }
            }
            match pseudo.min_depth_certified() {
                Some(d) => {
                    certified += 1;
                    let mut angle = DepthScratch::new();
                    assert_eq!(
                        cover.min_depth_on_certified(&query, &mut angle),
                        Some(d),
                        "trial {trial}: a certified pseudo-angle depth the angle sweep does not certify"
                    );
                }
                None => refused += 1,
            }
            // And the check as a whole against the full angle sweep.
            let settled = settle(center, &competitors, &circle, &region, k, &mut scratch);
            let expect = full_sweep_verdict(center, &competitors, &circle, &region, k);
            assert_eq!(settled.holds(), expect, "trial {trial} k={k}: {settled:?}");
            if let Settled::Subset { pseudo: true }
            | Settled::Fallback { pseudo: true, .. }
            | Settled::Full { pseudo: true, .. } = settled
            {
                pseudo_verdicts += 1;
            }
        }
        assert!(
            certified > 200,
            "only {certified} certified pseudo-angle sweeps"
        );
        assert!(refused > 200, "only {refused} sweeps fell back to angles");
        assert!(
            pseudo_verdicts > 200,
            "only {pseudo_verdicts} checks settled by pseudo-angles"
        );
    }

    #[test]
    fn restricted_pseudo_angle_sweep_agrees_with_the_angle_sweep() {
        // Boundary nodes' checks: circles crossing the unit square's
        // edges and corners, or a lake of a holed region, so the in-area
        // query is a proper (sometimes wrapping) set of arcs. Some trials
        // plant dominance-arc endpoints 1e-9 … 1e-15 rad from a query
        // endpoint or from angle 0, or put a query endpoint that close to
        // angle 0.
        use laacad_region::gallery::square_with_lakes;
        use laacad_region::sampling::SplitMix64;
        let square = Region::square(1.0).unwrap();
        let lakes = square_with_lakes();
        let mut rng = SplitMix64::new(0xB0_DA27);
        let mut depth = DepthScratch::new();
        let mut scratch = DominationScratch::new();
        let mut query = Vec::new();
        let (mut certified, mut refused, mut wrapping) = (0, 0, 0);
        let mut pseudo_verdicts = 0;
        for trial in 0..6000 {
            let k = 1 + trial % 4;
            let tiny = |rng: &mut SplitMix64| {
                let t = 10f64.powf(-9.0 - 6.0 * rng.next_f64());
                if rng.next_u64().is_multiple_of(2) {
                    t
                } else {
                    -t
                }
            };
            let spread = 0.05 + 0.2 * rng.next_f64();
            let radius = spread * (0.3 + 0.7 * rng.next_f64());
            let (region, center) = match (trial / 4) % 5 {
                // Near an edge (the left one gives wrapping queries).
                0 => {
                    let (u, v) = (0.2 + 0.6 * rng.next_f64(), radius * rng.next_f64());
                    let at = match rng.next_u64() % 4 {
                        0 => Point::new(u, v),
                        1 => Point::new(v, u),
                        2 => Point::new(u, 1.0 - v),
                        _ => Point::new(1.0 - v, u),
                    };
                    (&square, at)
                }
                // Near a corner.
                1 => {
                    let (u, v) = (radius * rng.next_f64(), radius * rng.next_f64());
                    let x = if rng.next_u64().is_multiple_of(2) {
                        u
                    } else {
                        1.0 - u
                    };
                    let y = if rng.next_u64().is_multiple_of(2) {
                        v
                    } else {
                        1.0 - v
                    };
                    (&square, Point::new(x, y))
                }
                // By the octagon lake of the holed region.
                2 => {
                    let a = TAU * rng.next_f64();
                    let d = 0.13 + radius * (0.2 + 0.9 * rng.next_f64());
                    (&lakes, Point::new(0.30 + d * a.cos(), 0.62 + d * a.sin()))
                }
                // The bottom edge within 1e-9 … 1e-15 of the circle's
                // angle-0 point: a query endpoint next to angle 0.
                3 => {
                    let y = tiny(&mut rng) * radius;
                    (&square, Point::new(0.2 + 0.6 * rng.next_f64(), y.abs()))
                }
                _ => (&lakes, Point::new(rng.next_f64(), rng.next_f64())),
            };
            let circle = Circle::new(center, radius);
            arcs_inside_region_into(&circle, region, &mut Vec::new(), &mut query);
            if query.is_empty() || is_full_circle(&query) {
                continue;
            }
            wrapping += usize::from(query.iter().any(|q| q.end() > TAU));
            let n = k + 3 + (rng.next_u64() % 24) as usize;
            let mut competitors: Vec<Point> = (0..n)
                .map(|_| {
                    let r = spread * rng.next_f64().sqrt();
                    let a = TAU * rng.next_f64();
                    Point::new(center.x + r * a.cos(), center.y + r * a.sin())
                })
                .collect();
            // A competitor at distance `radius` from the circle point at
            // `theta` has it on its bisector: its arc ends there.
            let mut plant = |rng: &mut SplitMix64, theta: f64| {
                let p = circle.point_at(theta);
                let a = TAU * rng.next_f64();
                competitors.push(Point::new(p.x + radius * a.cos(), p.y + radius * a.sin()));
            };
            match trial % 3 {
                0 => {
                    for q in query.clone() {
                        let end = if rng.next_u64().is_multiple_of(2) {
                            q.start()
                        } else {
                            q.end()
                        };
                        let delta = tiny(&mut rng);
                        plant(&mut rng, end + delta);
                    }
                }
                1 => {
                    let delta = tiny(&mut rng);
                    plant(&mut rng, delta);
                }
                _ => {}
            }
            // The restricted pseudo-angle sweep against the angle sweep.
            let mut pseudo = depth.pseudo_cover();
            pseudo.restrict_to(&query);
            let mut cover = ArcCover::new();
            for &c in &competitors {
                if let Some(h) = HalfPlane::closer_to(c, center) {
                    pseudo.add_halfplane(&circle, &h);
                    cover.add_span(Arc::from_halfplane_on_circle(&circle, &h));
                }
            }
            match pseudo.min_depth_certified() {
                Some(d) => {
                    certified += 1;
                    assert_eq!(
                        cover.min_depth_on_certified(&query, &mut DepthScratch::new()),
                        Some(d),
                        "trial {trial}: a certified pseudo-angle depth the angle sweep does not certify"
                    );
                }
                None => refused += 1,
            }
            // And the check as a whole against the full angle sweep.
            let settled = settle(center, &competitors, &circle, region, k, &mut scratch);
            let expect = full_sweep_verdict(center, &competitors, &circle, region, k);
            assert_eq!(settled.holds(), expect, "trial {trial} k={k}: {settled:?}");
            if let Settled::Subset { pseudo: true }
            | Settled::Fallback { pseudo: true, .. }
            | Settled::Full { pseudo: true, .. } = settled
            {
                pseudo_verdicts += 1;
            }
        }
        assert!(
            certified > 200,
            "only {certified} certified pseudo-angle sweeps"
        );
        assert!(refused > 200, "only {refused} sweeps fell back to angles");
        assert!(wrapping > 200, "only {wrapping} wrapping queries");
        assert!(
            pseudo_verdicts > 200,
            "only {pseudo_verdicts} checks settled by pseudo-angles"
        );
    }

    #[test]
    fn full_circle_probes_sit_where_point_at_puts_them() {
        let dirs = full_circle_probe_dirs();
        let full = Arc::full();
        for circle in [
            Circle::new(Point::new(0.5, 0.5), 0.1),
            Circle::new(Point::new(-3.0, 1e-7), 12.5),
        ] {
            for (p, frac) in PROBE_FRACS.into_iter().enumerate() {
                let expect = circle.point_at(full.start() + full.span() * frac);
                let got = circle.center + dirs[p] * circle.radius;
                assert_eq!(
                    (got.x.to_bits(), got.y.to_bits()),
                    (expect.x.to_bits(), expect.y.to_bits())
                );
            }
        }
    }

    #[test]
    fn member_bisectors_follow_a_growing_member_list() {
        use laacad_region::sampling::SplitMix64;
        let mut rng = SplitMix64::new(17);
        let center = Point::new(0.5, 0.5);
        let positions: Vec<Point> = (0..60)
            .map(|i| {
                if i % 11 == 0 {
                    center // co-located: no bisector
                } else {
                    Point::new(rng.next_f64(), rng.next_f64())
                }
            })
            .collect();
        let mut bisectors = MemberBisectors::default();
        for _ in 0..50 {
            bisectors.reset();
            let mut members: Vec<usize> = Vec::new();
            let mut computed = 0;
            while members.len() < positions.len() {
                // A few new ids join at arbitrary sorted positions.
                for _ in 0..1 + rng.next_u64() % 6 {
                    let id = (rng.next_u64() % positions.len() as u64) as usize;
                    if let Err(at) = members.binary_search(&id) {
                        members.insert(at, id);
                    }
                }
                bisectors.sync(&members);
                // Touch a random subset; every slot must hold its own
                // member's bisector, computed at most once.
                for (i, &id) in members.iter().enumerate() {
                    if rng.next_u64().is_multiple_of(3) {
                        let was_known = matches!(bisectors.slots[i], Slot::Known(_));
                        let h = bisectors.get(i, center, positions[id]);
                        computed += usize::from(!was_known);
                        assert_eq!(h, HalfPlane::closer_to(positions[id], center), "id {id}");
                    }
                }
            }
            assert!(
                computed <= positions.len(),
                "{computed} computations for 60 members"
            );
        }
    }

    #[test]
    fn colocated_competitors_do_not_dominate() {
        let region = Region::square(1.0).unwrap();
        let center = Point::new(0.5, 0.5);
        // Competitors exactly at the center: never strictly closer.
        let competitors = [center, center, center];
        let circle = Circle::new(center, 0.1);
        assert!(!circle_dominated(center, &competitors, &circle, &region, 1));
    }
}
