//! Property tests for the WSN substrate.

use laacad_geom::transform::procrustes;
use laacad_geom::Point;
use laacad_wsn::mds::classical_mds;
use laacad_wsn::multihop::ring_neighborhood;
use laacad_wsn::{Adjacency, FlatGrid, Network, NodeId};
use proptest::prelude::*;

fn points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y)),
        min..max,
    )
}

/// Every row of a patched adjacency is well formed — blocks strictly
/// ascending, no zero mask, the node's own bit clear, its ids exactly
/// the live one-hop query — and the rows and the serialized arrays equal
/// a fresh build at the same positions, bit for bit.
fn assert_matches_build(adj: &Adjacency, net: &Network) -> Result<(), TestCaseError> {
    let fresh = Adjacency::build(net);
    prop_assert_eq!(adj.len(), fresh.len());
    for i in 0..net.len() {
        let (blocks, masks) = adj.row(i);
        prop_assert!(blocks.windows(2).all(|w| w[0] < w[1]), "row {} unsorted", i);
        prop_assert!(masks.iter().all(|&m| m != 0), "row {} has a zero mask", i);
        let live: Vec<usize> = net
            .one_hop_neighbors(NodeId(i))
            .iter()
            .map(|n| n.index())
            .collect();
        prop_assert_eq!(adj.neighbors(i).collect::<Vec<_>>(), live, "row {}", i);
        prop_assert_eq!(adj.row(i), fresh.row(i), "row {}", i);
    }
    prop_assert_eq!(adj.csr(), fresh.csr());
    Ok(())
}

/// Moves `i` to `to` and records the `(index, old, new)` delta.
fn displace(net: &mut Network, batch: &mut Vec<(usize, Point, Point)>, i: usize, to: Point) {
    let from = net.position(NodeId(i));
    net.move_node(NodeId(i), to);
    batch.push((i, from, to));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Adjacency::apply_moves` against a fresh build after every batch:
    /// clouds of 2–200 nodes (ids spanning one to four 64-id blocks, the
    /// smallest with single-entry rows) from sparse to dense, with
    /// co-located points and points exactly γ apart, single-mover
    /// batches (the async executor), multi-mover batches (sync partial
    /// rounds), a node appearing twice in one batch (`displace_nodes`
    /// then a round move), nudges and long jumps, moves next to a node
    /// of another block (opening that block in its row) and moves out
    /// of everyone's reach (emptying the mover's block from the rows of
    /// nodes it was the only neighbour of in that block).
    #[test]
    fn adjacency_patch_matches_fresh_build(
        pts in points(2, 200),
        twins in prop::collection::vec((0usize..200, 0u8..3), 0..10),
        gamma in 0.05f64..0.35,
        moves in prop::collection::vec((0usize..250, 0.0f64..1.0, 0.0f64..1.0, 0u8..8), 1..40),
    ) {
        let mut pts = pts;
        for &(i, kind) in &twins {
            let p = pts[i % pts.len()];
            pts.push(match kind {
                0 => p,
                1 => Point::new(p.x + gamma, p.y),
                _ => Point::new(p.x, p.y - gamma),
            });
        }
        let mut net = Network::from_positions(gamma, pts.iter().copied());
        let mut adj = Adjacency::build(&net);
        let n = net.len();
        let blocks = n.div_ceil(64);
        let mut batch = Vec::new();
        for &(i, x, y, mode) in &moves {
            let i = i % n;
            let here = net.position(NodeId(i));
            let other = net.position(NodeId((x * n as f64) as usize % n));
            let to = match mode {
                // A nudge, then the same node again in the same batch.
                0 => Point::new(here.x + (x - 0.5) * 0.05, here.y + (y - 0.5) * 0.05),
                // Exactly γ from another node.
                1 => Point::new(other.x + gamma, other.y),
                // Onto another node.
                2 => other,
                // Next to a node of another block.
                5 if blocks > 1 => {
                    let hop = 1 + (y * (blocks - 1) as f64) as usize % (blocks - 1);
                    let block = (i / 64 + hop) % blocks;
                    let j = block * 64 + (x * 64.0) as usize % (n - block * 64).min(64);
                    let p = net.position(NodeId(j));
                    Point::new(p.x + 0.3 * gamma, p.y)
                }
                // Out of everyone's reach.
                6 => Point::new(3.0 + x, 3.0 + y),
                // A long jump anywhere in the square.
                _ => Point::new(x, y),
            };
            displace(&mut net, &mut batch, i, to);
            if mode == 0 {
                displace(&mut net, &mut batch, i, Point::new(to.x + 0.01, to.y));
            }
            // Modes 3–6 close a batch of one or more movers.
            if (3..=6).contains(&mode) || batch.len() > 6 {
                adj.apply_moves(&net, batch.drain(..));
                assert_matches_build(&adj, &net)?;
            }
        }
        adj.apply_moves(&net, batch.drain(..));
        assert_matches_build(&adj, &net)?;
    }

    /// `FlatGrid` against brute force under any interleaving of batched
    /// moves and queries. Cells down to 0.001 and far outliers force the
    /// build to coarsen; moves reach outside the unit square, and a batch
    /// the grid refuses is answered by a rebuild, as `Network` does.
    /// `within_into` must return exactly the points within the radius;
    /// `any_within` whether one of them lies at a distance of at most
    /// the radius.
    #[test]
    fn flat_grid_matches_brute_force(
        pts in points(0, 80),
        outliers in prop::collection::vec((-1e4f64..1e4, -1e4f64..1e4), 0..3),
        moves in prop::collection::vec((0usize..90, -0.5f64..1.5, -0.5f64..1.5), 0..12),
        queries in prop::collection::vec(
            (-0.2f64..1.2, -0.2f64..1.2, 0.0f64..0.8),
            1..8,
        ),
        cell in 0.001f64..0.5,
    ) {
        let mut pts = pts;
        pts.extend(outliers.iter().map(|&(x, y)| Point::new(x, y)));
        let mut grid = FlatGrid::build(&pts, cell);
        prop_assert!(grid.cell_size() >= cell);
        let mut out = Vec::new();
        for (chunk, &(qx, qy, r)) in queries.iter().enumerate() {
            // Apply a slice of the move batch before each query.
            let lo = chunk * moves.len() / queries.len();
            let hi = (chunk + 1) * moves.len() / queries.len();
            // Dedup per batch: `from` positions are captured eagerly, so a
            // node may move at most once per `apply_moves` call (as in the
            // round engine, where each node displaces once per round).
            let mut seen = std::collections::HashSet::new();
            let batch: Vec<(usize, Point, Point)> = moves[lo..hi]
                .iter()
                .filter(|(i, _, _)| *i < pts.len() && seen.insert(*i))
                .map(|&(i, x, y)| (i, pts[i], Point::new(x, y)))
                .collect();
            let ok = grid.apply_moves(batch.iter().copied().inspect(|&(i, _, new)| {
                pts[i] = new;
            }));
            if !ok {
                grid = FlatGrid::build(&pts, cell);
            }
            let q = Point::new(qx, qy);
            let r_sq = r * r + 1e-12;
            let expect: Vec<usize> = (0..pts.len())
                .filter(|&i| pts[i].distance_sq(q) <= r_sq)
                .collect();
            grid.within_into(&pts, q, r, &mut out);
            prop_assert_eq!(&out, &expect);
            let any = expect.iter().any(|&i| pts[i].distance_sq(q).sqrt() <= r);
            prop_assert_eq!(grid.any_within(&pts, q, r), any);
        }
    }

    #[test]
    fn mds_reconstructs_geometry(pts in points(3, 20)) {
        let d: Vec<Vec<f64>> = pts
            .iter()
            .map(|a| pts.iter().map(|b| a.distance(*b)).collect())
            .collect();
        // Degenerate clouds (all nearly coincident) are rejected upstream.
        let spread = pts
            .iter()
            .flat_map(|a| pts.iter().map(move |b| a.distance(*b)))
            .fold(0.0, f64::max);
        prop_assume!(spread > 1e-3);
        let e = classical_mds(&d).unwrap();
        let t = procrustes(&e.coords, &pts);
        prop_assume!(t.is_ok());
        let t = t.unwrap();
        for (c, p) in e.coords.iter().zip(&pts) {
            prop_assert!(t.apply(*c).distance(*p) < 1e-5, "mds drift at {p}");
        }
    }

    #[test]
    fn ring_members_are_euclidean_subset(pts in points(2, 50), rho in 0.05f64..1.0) {
        let net = Network::from_positions(0.2, pts.iter().copied());
        let ring = ring_neighborhood(&net, NodeId(0), rho);
        for m in &ring.members {
            prop_assert!(net.position(*m).distance(pts[0]) <= rho + 1e-9);
            prop_assert_ne!(*m, NodeId(0));
        }
        // Members are sorted and unique (BFS + index order).
        let mut sorted = ring.members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted, ring.members.clone());
    }

    #[test]
    fn ring_grows_monotonically_with_rho(pts in points(2, 40)) {
        let net = Network::from_positions(0.25, pts.iter().copied());
        let small = ring_neighborhood(&net, NodeId(0), 0.2);
        let large = ring_neighborhood(&net, NodeId(0), 0.6);
        for m in &small.members {
            prop_assert!(large.members.contains(m), "member {m} lost on expansion");
        }
    }

    #[test]
    fn movement_odometer_is_additive(
        pts in points(1, 10),
        moves in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let mut net = Network::from_positions(0.2, pts.iter().copied());
        let mut expect = 0.0;
        let mut prev = pts[0];
        for (x, y) in moves {
            let next = Point::new(x, y);
            expect += prev.distance(next);
            net.move_node(NodeId(0), next);
            prev = next;
        }
        prop_assert!((net.node(NodeId(0)).distance_moved() - expect).abs() < 1e-9);
        prop_assert!((net.total_distance_moved() - expect).abs() < 1e-9);
    }
}

proptest! {
    // Each case patches and checks 600 snapshots of 900–1100 nodes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Herding nodes whose ids span 15 to 18 blocks, one single-mover
    /// patch at a time, into a disc smaller than γ: the herded rows gain
    /// an entry per block, grow past their slack, relocate, and finally
    /// exhaust the relocation budget, forcing counted fallback rebuilds
    /// — and every intermediate snapshot still equals a fresh build. (A
    /// row never reserves more entries than there are blocks, so a herd
    /// over fewer blocks relocates too little to spend the budget.)
    #[test]
    fn adjacency_patch_survives_slack_overflow(
        pts in points(900, 1100),
        cx in 0.2f64..0.8,
        cy in 0.2f64..0.8,
        offsets in prop::collection::vec((-0.004f64..0.004, -0.004f64..0.004), 600),
    ) {
        let mut net = Network::from_positions(0.02, pts.iter().copied());
        let mut adj = Adjacency::build(&net);
        let n = net.len();
        let mut batch = Vec::new();
        for (k, &(dx, dy)) in offsets.iter().enumerate() {
            // Spread the herd over every block.
            let i = k * 7919 % n;
            displace(&mut net, &mut batch, i, Point::new(cx + dx, cy + dy));
            adj.apply_moves(&net, batch.drain(..));
            assert_matches_build(&adj, &net)?;
        }
        prop_assert!(adj.overflow_rebuilds() > 0, "no row outgrew its slack");
    }
}
