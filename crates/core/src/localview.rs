//! Per-node local view: dominating region + Chebyshev disk.
//!
//! Combines the expanding-ring search (Algorithm 2) with the exact
//! order-k machinery of `laacad-voronoi`, applying the ring-cap policy
//! and the chosen coordinate mode.
//!
//! Two entry points:
//!
//! * [`compute_node_view`] — the engines' hot path: carves the region
//!   through pooled buffers, computes the Chebyshev disk and the
//!   farthest distance in one vertex pass, and stores the view in the
//!   node's slot of the engine's [`ViewStore`], whose key lets a node
//!   whose geometric inputs are unchanged since its previous computation
//!   skip the subdivision entirely. Zero heap allocations in steady
//!   state (oracle mode) on a thread whose kernel buffers are warm.
//! * [`compute_local_view`] — the convenience API returning a full
//!   [`LocalView`] with an owned [`DominatingRegion`]; same geometry,
//!   materialized at the boundary.

use crate::config::{CoordinateMode, LaacadConfig, RingCapPolicy};
use crate::ring::{
    expanding_ring_search_scratched, expanding_ring_search_status, RingOutcome, RingStatus,
};
use crate::scratch::{give_back, lend_kernel, CarveScratch, KernelScratch, ViewSlot, ViewStore};
use laacad_geom::{Circle, Point};
use laacad_region::Region;
use laacad_voronoi::dominating::{
    dominating_region_loaded, load_bisectors, load_site_bisectors, DominatingRegion,
};
use laacad_wsn::localize::LocalFrame;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::{Adjacency, Network, NodeId};

/// Everything a node derives about itself in one round.
#[derive(Debug, Clone)]
pub struct LocalView {
    /// The ring-search outcome.
    pub ring: RingOutcome,
    /// `V^k_i ∩ A` (∩ ring cap, per policy).
    pub region: DominatingRegion,
    /// Chebyshev disk of the region (`None` for empty regions, which only
    /// occur if a node sits outside the area — construction prevents it).
    pub chebyshev: Option<Circle>,
    /// Estimated position the node used for itself (differs from truth
    /// only in ranging mode).
    pub self_estimate: Point,
    /// RMS localization error of the local frame (0 in oracle mode).
    pub localization_rmse: f64,
}

/// The round engine's per-node result: the ring status plus the two
/// numbers Algorithm 1 consumes — the Chebyshev disk (motion target and
/// circumradius `R_i`) and the farthest distance `r_i` from the node's
/// true position (its required sensing range). The region itself stays
/// in pooled storage and is never materialized.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeView {
    /// Final ring radius `ρ`.
    pub rho: f64,
    /// Whether the ring check succeeded.
    pub dominated: bool,
    /// Whether the search saturated (boundary node).
    pub saturated: bool,
    /// Messages spent on the ring search.
    pub messages: MessageStats,
    /// Chebyshev disk of the dominating region.
    pub chebyshev: Option<Circle>,
    /// `max_{v ∈ V^k_i} ‖v − u_i‖` from the node's true position.
    pub reach: f64,
    /// Exact maximal contact distance of the ring search — the farthest
    /// node the multi-hop BFS ever explored (see
    /// [`crate::RingStatus::contact_radius`]). The dirty-node classifier
    /// uses it as the node's true sphere of influence.
    pub contact_radius: f64,
    /// Whether the disk and reach were reused from the node's previous
    /// view (the cross-round cache).
    pub cache_hit: bool,
}

/// Computes the local view of `id` under `config`.
///
/// Pure read: the network is the shared position snapshot of the round,
/// which is what lets the synchronous engine evaluate all `N` views
/// concurrently. This form allocates fresh buffers, stores nothing and
/// returns an owned [`LocalView`]; it is meant for analysis and tests.
/// The engines go through [`compute_node_view`] and a [`ViewStore`]
/// instead.
pub fn compute_local_view(
    net: &Network,
    id: NodeId,
    area: &Region,
    config: &LaacadConfig,
    round: usize,
) -> LocalView {
    let mut s = KernelScratch::default();
    let max_rho = config.max_rho.unwrap_or(2.0 * area.diameter_bound());
    let ring = expanding_ring_search_scratched(
        net,
        None,
        id,
        area,
        config.k,
        max_rho,
        &mut s.ring,
        &mut s.competitors,
    );
    let rmse = build_sites(net, id, &ring.candidates, config, round, &mut s);
    let self_est = s.sites[0];
    load_site_bisectors(0, &s.sites, &mut s.carve.subdivision);
    let (chebyshev, _) = carve_and_measure(
        area,
        config,
        ring.rho,
        ring.dominated,
        self_est,
        self_est,
        &mut s.carve,
    );
    let region = s.carve.pieces.to_region();
    LocalView {
        ring,
        region,
        chebyshev,
        self_estimate: self_est,
        localization_rmse: rmse,
    }
}

/// The engines' hot path: like [`compute_local_view`] but over
/// reusable buffers, optionally against a prebuilt one-hop
/// [`Adjacency`] snapshot of `net` (the synchronous engine builds one
/// per round and shares it across workers; pass `None` whenever
/// positions may have changed since the snapshot, as in sequential
/// mode), without materializing the region, with the Chebyshev disk and
/// farthest distance computed in one vertex pass, and — in oracle mode —
/// with the whole geometry stage skipped whenever the node's exact inputs
/// are unchanged since the view its slot of `store` holds.
///
/// The view is stored in that slot and returned. The kernel buffers are
/// borrowed from the calling thread's pool for this one computation.
pub fn compute_node_view(
    net: &Network,
    adjacency: Option<&Adjacency>,
    id: NodeId,
    area: &Region,
    config: &LaacadConfig,
    round: usize,
    store: &mut ViewStore,
) -> NodeView {
    let slot = &mut store.slots_for(net)[id.index()];
    let mut kernel = lend_kernel(net.len());
    let view = node_view(net, adjacency, id, area, config, round, &mut kernel, slot);
    give_back(kernel);
    view
}

/// [`compute_node_view`] over the given kernel buffers, into `slot`
/// (node `id`'s slot of a store of `net`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn node_view(
    net: &Network,
    adjacency: Option<&Adjacency>,
    id: NodeId,
    area: &Region,
    config: &LaacadConfig,
    round: usize,
    scratch: &mut KernelScratch,
    slot: &mut ViewSlot,
) -> NodeView {
    let max_rho = config.max_rho.unwrap_or(2.0 * area.diameter_bound());
    // Kernel timing is armed per fan-out by the session; off, each
    // stage costs one branch. The buffer only observes — the view is
    // bit-identical either way.
    let timing = scratch.telemetry.enabled;
    let started = timing.then(std::time::Instant::now);
    let status = expanding_ring_search_status(
        net,
        adjacency,
        id,
        area,
        config.k,
        max_rho,
        &mut scratch.ring,
        &mut scratch.competitors,
        &mut scratch.domination,
    );
    if let Some(started) = started {
        scratch
            .telemetry
            .ring_search
            .record(started.elapsed().as_nanos() as u64);
    }
    let true_self = net.position(id);
    let started = timing.then(std::time::Instant::now);
    let view = geometry_stage(
        net, id, area, config, round, status, true_self, scratch, slot,
    );
    if let Some(started) = started {
        scratch
            .telemetry
            .geometry
            .record(started.elapsed().as_nanos() as u64);
    }
    view
}

/// The geometry stage of [`compute_node_view`] — everything after
/// the ring search: the cached oracle-mode lookup, or site assembly
/// plus the subdivision/clip/Chebyshev kernel. Stores the view in
/// `slot`.
#[allow(clippy::too_many_arguments)]
fn geometry_stage(
    net: &Network,
    id: NodeId,
    area: &Region,
    config: &LaacadConfig,
    round: usize,
    status: RingStatus,
    true_self: Point,
    scratch: &mut KernelScratch,
    slot: &mut ViewSlot,
) -> NodeView {
    if let CoordinateMode::Oracle = config.coordinates {
        return cached_node_view(net, id, area, config, status, scratch, slot);
    }
    // Ranging mode is uncached: it re-derives the member positions from
    // the member ids (allocating — noise is re-drawn per round by
    // design) and computes into the scratch's own piece buffer.
    let s = &mut *scratch;
    let candidates: Vec<NodeId> = s.ring.last_members().iter().map(|&m| NodeId(m)).collect();
    build_sites(net, id, &candidates, config, round, s);
    load_site_bisectors(0, &s.sites, &mut s.carve.subdivision);
    let (chebyshev, reach) = carve_and_measure(
        area,
        config,
        status.rho,
        status.dominated,
        s.sites[0],
        true_self,
        &mut s.carve,
    );
    let view = view_of(status, chebyshev, reach, false);
    slot.store_unkeyed(view);
    view
}

/// The view of a ring search `status` whose region has disk `chebyshev`
/// and reach `reach`.
fn view_of(status: RingStatus, chebyshev: Option<Circle>, reach: f64, cache_hit: bool) -> NodeView {
    NodeView {
        rho: status.rho,
        dominated: status.dominated,
        saturated: status.saturated,
        messages: status.messages,
        chebyshev,
        reach,
        contact_radius: status.contact_radius,
        cache_hit,
    }
}

/// The oracle-mode cached path of [`compute_node_view`].
fn cached_node_view(
    net: &Network,
    id: NodeId,
    area: &Region,
    config: &LaacadConfig,
    status: RingStatus,
    scratch: &mut KernelScratch,
    slot: &mut ViewSlot,
) -> NodeView {
    debug_assert_eq!(config.coordinates, CoordinateMode::Oracle);
    let true_self = net.position(id);
    let s = &mut *scratch;
    let members = s.ring.last_members();
    if slot.matches(net, id, config.k, status.rho, status.dominated, members) {
        let stored = slot.view();
        let view = view_of(status, stored.chebyshev, stored.reach, true);
        slot.store_hit(view);
        return view;
    }
    // Miss: recompute (through the scratch's piece buffer — only the
    // disk and reach are worth retaining per node) and store the view
    // under its new key. All buffers are reused, so this allocates
    // nothing after warm-up.
    //
    // The competitor bisectors against `true_self` (the ring's center)
    // are the ones the ring checks computed; the rest are computed here.
    let bisectors = &mut s.domination.bisectors;
    bisectors.sync(members);
    let competitors = &s.competitors;
    load_bisectors(
        true_self,
        (0..competitors.len()).filter_map(|i| bisectors.get(i, true_self, competitors[i])),
        &mut s.carve.subdivision,
    );
    let (chebyshev, reach) = carve_and_measure(
        area,
        config,
        status.rho,
        status.dominated,
        true_self,
        true_self,
        &mut s.carve,
    );
    let view = view_of(status, chebyshev, reach, false);
    slot.store_keyed(net, config.k, members, view);
    view
}

/// Assembles the site list (`sites[0]` = the node's own estimate) into
/// `scratch.sites` per the configured coordinate mode, returning the
/// localization RMSE (0 in oracle mode).
fn build_sites(
    net: &Network,
    id: NodeId,
    candidates: &[NodeId],
    config: &LaacadConfig,
    round: usize,
    scratch: &mut KernelScratch,
) -> f64 {
    let true_self = net.position(id);
    let mut rmse = 0.0;
    scratch.sites.clear();
    match config.coordinates {
        CoordinateMode::Oracle => {
            scratch.sites.push(true_self);
            scratch
                .sites
                .extend(candidates.iter().map(|&m| net.position(m)));
        }
        CoordinateMode::Ranging(noise) => {
            if candidates.is_empty() {
                scratch.sites.push(true_self);
            } else {
                let mut members = Vec::with_capacity(candidates.len() + 1);
                members.push(id);
                members.extend(candidates.iter().copied());
                let truth: Vec<Point> = members.iter().map(|&m| net.position(m)).collect();
                // Per-node, per-round seed keeps measurements independent.
                let seed = config
                    .seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((id.index() as u64) << 20)
                    .wrapping_add(round as u64);
                match LocalFrame::build(&members, &truth, &noise, seed) {
                    Ok(frame) => {
                        scratch
                            .sites
                            .extend(frame.local_positions().iter().map(|&p| frame.to_world(p)));
                        rmse = frame.alignment_rmse();
                    }
                    // Degenerate neighborhoods (all co-located) fall back
                    // to oracle coordinates.
                    Err(_) => {
                        scratch.sites.push(true_self);
                        scratch
                            .sites
                            .extend(candidates.iter().map(|&m| net.position(m)));
                    }
                }
            }
        }
    }
    rmse
}

/// The shared geometry tail of every view computation: carves the
/// region of the node at `self_est` against the loaded competitor
/// bisectors into `carve.pieces` (cleared first) and measures the
/// Chebyshev disk plus the farthest distance from `measure_from` in one
/// vertex pass. One body serves the cached-miss, ranging and
/// materializing paths, so the cached and materialized geometry cannot
/// drift between copies.
fn carve_and_measure(
    area: &Region,
    config: &LaacadConfig,
    rho: f64,
    dominated: bool,
    self_est: Point,
    measure_from: Point,
    carve: &mut CarveScratch,
) -> (Option<Circle>, f64) {
    carve.pieces.clear();
    carve_region(area, config, self_est, rho, dominated, carve);
    carve
        .pieces
        .disk_and_farthest(measure_from, &mut carve.welzl)
}

/// Carves `V^k_i ∩ A` (∩ the ρ/2 ring cap, per policy) into
/// `carve.pieces` through pooled buffers, against the competitor
/// bisectors already loaded into `carve.subdivision`.
fn carve_region(
    area: &Region,
    config: &LaacadConfig,
    self_est: Point,
    rho: f64,
    dominated: bool,
    carve: &mut CarveScratch,
) {
    let CarveScratch {
        subdivision,
        pieces: out,
        cap,
        cap_shapes,
        domain,
        domain_tmp,
        ..
    } = carve;
    // Ring-cap policy. The cap polygon is circumscribed (not inscribed)
    // so it never truncates the true dominating region — the
    // approximation can only *over*-estimate.
    let apply_cap = match config.ring_cap {
        RingCapPolicy::AlwaysCap => true,
        RingCapPolicy::Exact => dominated,
    };
    // When the ring check succeeded, Prop. 1 puts the region *strictly*
    // inside the open ρ/2 disk, so any circumscribed polygon of that
    // disk yields the identical intersection — the cap exists only to
    // focus the subdivision's work near the node. A coarse circumscribed
    // cap is then strictly cheaper (shorter vertex walks, cheaper
    // clips) with the same output region; the configured resolution
    // only matters when the cap actually bounds the region (saturated
    // nodes under `AlwaysCap`, where it approximates the searching
    // ring).
    let cap_vertices = if dominated {
        config.cap_vertices.min(8)
    } else {
        config.cap_vertices
    };
    let mut cap_radius = 0.0;
    let have_cap = apply_cap && {
        let shape = cap_shapes.get(cap_vertices);
        cap_radius = (rho / 2.0) / shape.cos_half_step;
        let ok = cap.assign_regular_from(self_est, cap_radius, &shape.dirs);
        debug_assert!(ok, "cap polygon is valid");
        ok
    };
    let k = config.k;
    for piece in area.convex_pieces() {
        if have_cap {
            // Interior fast path: when the cap's circumscribed disk lies
            // strictly inside this convex piece, `piece ∩ cap = cap` and
            // the cap can stand in for the clipped domain directly —
            // skipping the 64-halfplane convex clip that would otherwise
            // run per node per piece. (The cap then also misses every
            // other piece, whose clips come back empty as before.)
            if piece.contains(self_est)
                && piece.closest_boundary_point(self_est).distance(self_est) >= cap_radius + 1e-12
            {
                dominating_region_loaded(k, cap.vertices(), subdivision, out);
                continue;
            }
            if !piece.clip_convex_buf_into(cap, domain, domain_tmp) {
                continue;
            }
            dominating_region_loaded(k, domain.vertices(), subdivision, out);
        } else {
            dominating_region_loaded(k, piece.vertices(), subdivision, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_wsn::ranging::RangingNoise;

    fn grid_net(n_side: usize, spacing: f64, gamma: f64) -> Network {
        Network::from_positions(
            gamma,
            (0..n_side).flat_map(move |i| {
                (0..n_side).map(move |j| Point::new(i as f64 * spacing, j as f64 * spacing))
            }),
        )
    }

    fn cfg(k: usize) -> LaacadConfig {
        LaacadConfig::builder(k)
            .transmission_range(0.15)
            .build()
            .unwrap()
    }

    #[test]
    fn interior_node_gets_nonempty_region_with_center_inside() {
        let area = Region::square(1.0).unwrap();
        let net = grid_net(11, 0.1, 0.15);
        for k in 1..=3usize {
            let view = compute_local_view(&net, NodeId(60), &area, &cfg(k), 0);
            assert!(!view.region.is_empty(), "k={k}");
            assert!(view.region.contains(net.position(NodeId(60))), "k={k}");
            let disk = view.chebyshev.expect("non-empty region has a disk");
            assert!(disk.radius > 0.0);
        }
    }

    #[test]
    fn localized_equals_global_for_interior_nodes() {
        // Lemma 1 in action: the ring-restricted candidate set yields the
        // same dominating region as using every node in the network.
        let area = Region::square(1.0).unwrap();
        let net = grid_net(11, 0.1, 0.15);
        let id = NodeId(60);
        for k in 1..=4usize {
            let view = compute_local_view(&net, id, &area, &cfg(k), 0);
            // Global computation.
            let all: Vec<Point> = net.positions().to_vec();
            let mut reordered = vec![all[id.index()]];
            reordered.extend(
                all.iter()
                    .enumerate()
                    .filter(|&(i, _)| i != id.index())
                    .map(|(_, &p)| p),
            );
            let global =
                laacad_voronoi::dominating::dominating_region_in_region(0, &reordered, k, &area);
            assert!(
                (view.region.area() - global.area()).abs() < 1e-6,
                "k={k}: local {} vs global {}",
                view.region.area(),
                global.area()
            );
            let (lc, gc) = (view.chebyshev.unwrap(), global.chebyshev_disk().unwrap());
            assert!(lc.center.approx_eq(gc.center, 1e-6), "k={k}");
            assert!((lc.radius - gc.radius).abs() < 1e-6, "k={k}");
        }
    }

    #[test]
    fn boundary_node_region_reaches_area_boundary() {
        // Sparse cluster in a big area: the saturated boundary node's
        // region extends to the area boundary (natural-boundary policy).
        let area = Region::square(2.0).unwrap();
        let net = Network::from_positions(
            0.3,
            [
                Point::new(0.2, 0.2),
                Point::new(0.4, 0.2),
                Point::new(0.3, 0.4),
            ],
        );
        let view = compute_local_view(&net, NodeId(0), &area, &cfg(1), 0);
        assert!(view.ring.saturated);
        // Some part of the area far from the cluster belongs to node 0's
        // order-1 region? Not necessarily node 0's — but the three regions
        // together must tile the area. Check the union property instead:
        let mut total = view.region.area();
        for i in 1..3 {
            total += compute_local_view(&net, NodeId(i), &area, &cfg(1), 0)
                .region
                .area();
        }
        assert!((total - area.area()).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn always_cap_policy_bounds_the_region() {
        let area = Region::square(2.0).unwrap();
        let make_net = || {
            Network::from_positions(
                0.3,
                [
                    Point::new(0.2, 0.2),
                    Point::new(0.4, 0.2),
                    Point::new(0.3, 0.4),
                ],
            )
        };
        let mut cfg_cap = cfg(1);
        cfg_cap.ring_cap = RingCapPolicy::AlwaysCap;
        let net = make_net();
        let capped = compute_local_view(&net, NodeId(0), &area, &cfg_cap, 0);
        let net2 = make_net();
        let uncapped = compute_local_view(&net2, NodeId(0), &area, &cfg(1), 0);
        assert!(capped.region.area() <= uncapped.region.area() + 1e-9);
        // The cap really bites for this sparse scenario.
        assert!(capped.region.area() < area.area() / 2.0);
    }

    #[test]
    fn ranging_mode_approximates_oracle() {
        let area = Region::square(1.0).unwrap();
        let net = grid_net(11, 0.1, 0.15);
        let id = NodeId(60);
        let oracle = compute_local_view(&net, id, &area, &cfg(2), 0);
        let mut cfg_rng = cfg(2);
        cfg_rng.coordinates = CoordinateMode::Ranging(RangingNoise::new(0.01, 0.0));
        let ranged = compute_local_view(&net, id, &area, &cfg_rng, 0);
        assert!(ranged.localization_rmse > 0.0);
        assert!(ranged.localization_rmse < 0.05);
        let (oc, rc) = (oracle.chebyshev.unwrap(), ranged.chebyshev.unwrap());
        assert!(
            oc.center.distance(rc.center) < 0.05,
            "oracle {} vs ranged {}",
            oc.center,
            rc.center
        );
    }

    #[test]
    fn noiseless_ranging_matches_oracle_exactly() {
        let area = Region::square(1.0).unwrap();
        let net = grid_net(7, 0.15, 0.2);
        let id = NodeId(24); // center of the 7×7 grid
        let mut cfg_rng = cfg(2);
        cfg_rng.coordinates = CoordinateMode::Ranging(RangingNoise::NONE);
        let oracle = compute_local_view(&net, id, &area, &cfg(2), 0);
        let ranged = compute_local_view(&net, id, &area, &cfg_rng, 0);
        assert!((oracle.region.area() - ranged.region.area()).abs() < 1e-6);
    }

    #[test]
    fn node_view_matches_local_view_and_caches() {
        // The lean engine path must agree bit-for-bit with the
        // materializing convenience path, and a repeated computation on
        // an unchanged network must hit the cache with identical results.
        let area = Region::square(1.0).unwrap();
        let net = grid_net(9, 0.12, 0.18);
        let config = LaacadConfig::builder(2)
            .transmission_range(0.18)
            .build()
            .unwrap();
        let mut store = ViewStore::new();
        for i in [0usize, 4, 40, 44, 80] {
            let id = NodeId(i);
            let view = compute_local_view(&net, id, &area, &config, 0);
            let lean = compute_node_view(&net, None, id, &area, &config, 0, &mut store);
            assert!(!lean.cache_hit, "first computation of node {i}");
            assert_eq!(view.chebyshev, lean.chebyshev, "node {i}");
            let reach = view.region.farthest_distance(net.position(id));
            assert_eq!(reach.to_bits(), lean.reach.to_bits(), "node {i}");
            assert_eq!(view.ring.messages, lean.messages, "node {i}");
            // Second pass: identical inputs → cache hit, identical output.
            let hit = compute_node_view(&net, None, id, &area, &config, 1, &mut store);
            assert!(hit.cache_hit, "node {i}");
            assert_eq!(lean.chebyshev, hit.chebyshev, "node {i}");
            assert_eq!(lean.reach.to_bits(), hit.reach.to_bits(), "node {i}");
        }
    }

    /// `node`'s view through `store`, checked bit for bit against a
    /// cold computation at the same positions.
    fn checked_view(
        net: &Network,
        node: NodeId,
        area: &Region,
        config: &LaacadConfig,
        store: &mut ViewStore,
    ) -> NodeView {
        let view = compute_node_view(net, None, node, area, config, 0, store);
        let cold = compute_node_view(net, None, node, area, config, 0, &mut ViewStore::new());
        assert!(!cold.cache_hit);
        assert_eq!(view.chebyshev, cold.chebyshev);
        assert_eq!(view.reach.to_bits(), cold.reach.to_bits());
        view
    }

    #[test]
    fn a_member_moved_away_and_back_misses_the_cache() {
        let area = Region::square(1.0).unwrap();
        let mut net = grid_net(9, 0.12, 0.18);
        let config = cfg(2);
        let (node, member) = (NodeId(40), NodeId(41));
        let mut store = ViewStore::new();
        checked_view(&net, node, &area, &config, &mut store);
        assert!(checked_view(&net, node, &area, &config, &mut store).cache_hit);
        let home = net.position(member);
        net.move_node(member, Point::new(0.9, 0.9));
        net.move_node(member, home);
        // Same bits as when the entry was stored, but written since.
        assert_eq!(net.position(member), home);
        assert!(!checked_view(&net, node, &area, &config, &mut store).cache_hit);
        assert!(checked_view(&net, node, &area, &config, &mut store).cache_hit);
    }

    #[test]
    fn a_member_that_joins_the_ring_misses_the_cache() {
        let area = Region::square(1.0).unwrap();
        let mut net = grid_net(9, 0.12, 0.18);
        let config = cfg(2);
        let node = NodeId(40);
        let mut store = ViewStore::new();
        let before = checked_view(&net, node, &area, &config, &mut store);
        // No existing node moves: a new one appears between the node and
        // its right-hand neighbour, inside the ring.
        let p = net.position(node);
        net.add_node(Point::new(p.x + 0.05, p.y + 0.01));
        let after = checked_view(&net, node, &area, &config, &mut store);
        assert!(!after.cache_hit);
        assert_eq!(after.rho, before.rho);
        assert!(checked_view(&net, node, &area, &config, &mut store).cache_hit);
    }

    #[test]
    fn a_cache_serves_one_network_instance() {
        let area = Region::square(1.0).unwrap();
        let net = grid_net(9, 0.12, 0.18);
        let config = cfg(2);
        let mut store = ViewStore::new();
        checked_view(&net, NodeId(40), &area, &config, &mut store);
        // A clone has the same positions and clock but is another
        // network: its writes are not the original's.
        let mut twin = net.clone();
        let view = checked_view(&twin, NodeId(40), &area, &config, &mut store);
        assert!(!view.cache_hit);
        twin.move_node(NodeId(41), Point::new(0.9, 0.9));
        checked_view(&net, NodeId(40), &area, &config, &mut store);
    }
}
