//! The one test-only reference path for the round engine.
//!
//! The synchronous engine carries several mechanisms that exist only to
//! do less work per round: the dirty-node index with exact reach radii,
//! the ρ warm start, the cross-round local-view cache, the move-patched
//! adjacency snapshot, the flat spatial grid and the pooled classifier
//! buffers. None of them may change a result. This test steps a session
//! through a dynamic script — failures, insertions, two partial
//! displacements and a `k` change — and, in lock step, recomputes every
//! round from scratch the way Algorithm 1 states it: each node's view
//! from a clone of the round's network (no adjacency snapshot, no
//! stored view, an empty cache), sensing ranges set to the views'
//! reaches, then every node that is more than ε from its Chebyshev
//! centre takes one damped step toward it. Position bits, sensing-radius
//! bits and message totals must match the session after every round and
//! after `finalize`, at one and at four worker threads.

use laacad::{compute_node_view, ExecutionMode, LaacadConfig, NetworkEvent, RoundScratch, Session};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::mobility::step_toward;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::{Network, NodeId};

const ROUNDS: usize = 300;

fn session(threads: usize) -> Session {
    // A dense deployment with a short radio range, so a disturbance
    // stays local and the dirty-node index has far nodes to skip.
    let (n, k) = (200, 2);
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(0.12)
        .alpha(0.5)
        .epsilon(1e-3)
        .max_rounds(500)
        .threads(threads)
        .build()
        .unwrap();
    Session::builder(config)
        .positions(sample_uniform(&region, n, 31337))
        .region(region)
        .build()
        .unwrap()
}

/// One round of Algorithm 1 recomputed from scratch on a copy of the
/// session's network. Returns the network after the round and the
/// round's message total.
fn reference_round(sim: &Session) -> (Network, MessageStats) {
    let mut net = sim.network().clone();
    let (region, config) = (sim.region(), sim.config());
    let round = sim.rounds_executed() + 1;
    let views: Vec<_> = (0..net.len())
        .map(|i| {
            let mut scratch = RoundScratch::new();
            compute_node_view(&net, None, NodeId(i), region, config, round, &mut scratch)
        })
        .collect();
    let mut messages = MessageStats::default();
    for (i, view) in views.iter().enumerate() {
        messages.absorb(view.messages);
        if view.chebyshev.is_some() {
            net.set_sensing_radius(NodeId(i), view.reach);
        }
    }
    for (i, view) in views.iter().enumerate() {
        if let Some(disk) = view.chebyshev {
            let id = NodeId(i);
            if net.position(id).distance(disk.center) > config.epsilon {
                step_toward(&mut net, id, disk.center, config.alpha, Some(region));
            }
        }
    }
    (net, messages)
}

/// `finalize` recomputed from scratch: every node's sensing range
/// becomes its view's reach at the final positions.
fn reference_finalize(sim: &Session) -> Network {
    let mut net = sim.network().clone();
    let round = sim.rounds_executed();
    for i in 0..net.len() {
        let mut scratch = RoundScratch::new();
        let view = compute_node_view(
            &net,
            None,
            NodeId(i),
            sim.region(),
            sim.config(),
            round,
            &mut scratch,
        );
        net.set_sensing_radius(NodeId(i), view.reach);
    }
    net
}

fn assert_same_state(expected: &Network, sim: &Session, what: &str) {
    let bits = |net: &Network| -> Vec<(u64, u64, u64)> {
        net.positions()
            .iter()
            .zip(net.sensing_radii())
            .map(|(p, r)| (p.x.to_bits(), p.y.to_bits(), r.to_bits()))
            .collect()
    };
    assert!(
        bits(expected) == bits(sim.network()),
        "{what}: positions or sensing radii differ from the from-scratch reference"
    );
}

/// The dynamic script between rounds: a failure batch, a displacement
/// of a few nodes (twice), an insertion, a `k` change and a late
/// failure.
fn apply_script(sim: &mut Session, round: usize) {
    match round {
        80 => {
            let ids = (0..7).map(|i| NodeId(i * 5)).collect();
            sim.apply_event(NetworkEvent::FailNodes(ids)).unwrap();
        }
        120 | 250 => {
            // External disturbance: the stored views stay valid, so the
            // next round is a genuinely partially-active round. Three
            // nodes are nudged; a fourth is carried across the region,
            // arriving in a settled neighbourhood it was never part of.
            let mut moves: Vec<(NodeId, Point)> = [1usize, 8, 15]
                .iter()
                .map(|&i| {
                    let p = sim.network().position(NodeId(i));
                    (NodeId(i), Point::new(p.x * 0.95 + 0.02, p.y * 0.95 + 0.02))
                })
                .collect();
            let p = sim.network().position(NodeId(30));
            moves.push((NodeId(30), Point::new(1.0 - p.x, 1.0 - p.y)));
            sim.displace_nodes(&moves).unwrap();
        }
        150 => {
            sim.apply_event(NetworkEvent::InsertNodes(vec![
                Point::new(0.48, 0.52),
                Point::new(0.05, 0.95),
                Point::new(0.9, 0.12),
                Point::new(0.33, 0.66),
            ]))
            .unwrap();
        }
        180 => {
            sim.apply_event(NetworkEvent::SetK(3)).unwrap();
        }
        220 => {
            sim.apply_event(NetworkEvent::FailNodes(vec![NodeId(3), NodeId(11)]))
                .unwrap();
        }
        _ => {}
    }
}

fn run_in_lock_step(threads: usize) {
    let mut sim = session(threads);
    let mut skipped = 0usize;
    let mut partial_rounds = 0usize;
    for round in 1..=ROUNDS {
        let (expected, messages) = reference_round(&sim);
        let delta = sim.step();
        assert_same_state(
            &expected,
            &sim,
            &format!("threads {threads}, round {round}"),
        );
        assert_eq!(
            delta.report.messages, messages,
            "threads {threads}, round {round}: message totals differ"
        );
        skipped += delta.skipped_quiescent;
        if delta.skipped_quiescent > 0 && delta.ring_searches > 0 {
            partial_rounds += 1;
        }
        apply_script(&mut sim, round);
    }
    let expected = reference_finalize(&sim);
    sim.finalize();
    assert_same_state(&expected, &sim, &format!("threads {threads}, finalize"));
    // The comparison only means something if the engine's shortcuts
    // actually fired along the way.
    assert!(skipped > 0, "threads {threads}: no node was ever skipped");
    assert!(
        partial_rounds > 0,
        "threads {threads}: no partially-active round was exercised"
    );
    let c = sim.counters();
    assert!(
        c.cache_hits > 0 && c.warm_started > 0 && c.adjacency_incremental_updates > 0,
        "threads {threads}: a shortcut never fired: {c:?}"
    );
}

#[test]
fn serial_engine_matches_the_from_scratch_reference() {
    run_in_lock_step(1);
}

#[test]
fn parallel_engine_matches_the_from_scratch_reference() {
    run_in_lock_step(4);
}

/// Node 0's view at the positions of `net`, from scratch.
fn view_of_node_0(sim: &Session, net: &Network) -> laacad::NodeView {
    let round = sim.rounds_executed() + 1;
    let mut scratch = RoundScratch::new();
    compute_node_view(
        net,
        None,
        NodeId(0),
        sim.region(),
        sim.config(),
        round,
        &mut scratch,
    )
}

/// The `+ γ` of the dirty classifier's safe radius at work. Node 0's
/// first ring (ρ = γ) is dominated and its flood exhausts its five-node
/// cluster, so `max(contact_radius, ρ)` is γ, while its relays sit 0.06
/// away. A node from a second,
/// far cluster arrives just outside that radius but within γ of a relay:
/// it joins node 0's next flood and changes its message count. Its old
/// position is far from node 0, so only the margin re-activates node 0;
/// without it node 0 would replay its stored view and miss the new
/// messages.
#[test]
fn an_arrival_within_gamma_of_a_relay_reactivates_the_node() {
    let gamma = 0.1;
    let region = Region::square(1.0).unwrap();
    // ε beyond the region's diameter: Algorithm 1 never moves a node, so
    // the scripted arrival is the only movement.
    let config = LaacadConfig::builder(1)
        .transmission_range(gamma)
        .epsilon(2.0)
        .build()
        .unwrap();
    let x = Point::new(0.3, 0.5);
    let mut positions = vec![x];
    positions.extend(
        [(0.06, 0.0), (-0.06, 0.0), (0.0, 0.06), (0.0, -0.06)]
            .map(|(dx, dy)| Point::new(x.x + dx, x.y + dy)),
    );
    // Two more clusters, out of radio range of the first and of each
    // other: the arrival comes from the first, the second stays idle.
    positions.extend([
        Point::new(0.85, 0.85),
        Point::new(0.9, 0.9),
        Point::new(0.85, 0.9),
        Point::new(0.1, 0.1),
        Point::new(0.15, 0.1),
        Point::new(0.1, 0.15),
    ]);
    let mut sim = Session::builder(config)
        .positions(positions)
        .region(region)
        .build()
        .unwrap();
    let (expected, messages) = reference_round(&sim);
    let delta = sim.step();
    assert_same_state(&expected, &sim, "first round");
    assert_eq!(delta.report.messages, messages);
    assert!(delta.report.converged, "nothing moves");

    let (mover, arrival) = (NodeId(6), Point::new(0.42, 0.5));
    let before = view_of_node_0(&sim, sim.network());
    let reach = before.contact_radius.max(before.rho);
    let d = arrival.distance(x);
    assert!(
        reach < d && d <= reach + gamma,
        "the arrival lands in the margin: {reach} < {d} <= {reach} + γ"
    );
    assert!(sim.network().position(mover).distance(x) > reach + gamma);
    let mut after = sim.network().clone();
    after.apply_displacements(&[(mover, arrival)]);
    assert_ne!(
        view_of_node_0(&sim, &after).messages,
        before.messages,
        "the arrival joins node 0's flood"
    );

    sim.displace_nodes(&[(mover, arrival)]).unwrap();
    let (expected, messages) = reference_round(&sim);
    let delta = sim.step();
    assert!(delta.skipped_quiescent > 0, "a partially-active round");
    assert_same_state(&expected, &sim, "round after the arrival");
    assert_eq!(
        delta.report.messages, messages,
        "message totals after the arrival"
    );
}

/// A Gauss–Seidel round never refreshes the adjacency snapshot. After a
/// displacement and a sweep in which no node moves, `finalize` must
/// rebuild the snapshot rather than patch it with the sweep's (empty)
/// movement set.
#[test]
fn gauss_seidel_finalize_after_a_displacement_matches_the_reference() {
    let region = Region::square(1.0).unwrap();
    // ε beyond the region's diameter: Algorithm 1 never moves a node.
    let config = LaacadConfig::builder(1)
        .transmission_range(0.12)
        .epsilon(2.0)
        .execution(ExecutionMode::Sequential)
        .build()
        .unwrap();
    let mut sim = Session::builder(config)
        .positions(sample_uniform(&region, 200, 5))
        .region(region)
        .build()
        .unwrap();
    sim.run();
    let p = sim.network().position(NodeId(3));
    sim.displace_nodes(&[(NodeId(3), Point::new(1.0 - p.x, 1.0 - p.y))])
        .unwrap();
    assert!(sim.step().moved.is_empty(), "the sweep moves nothing");
    let expected = reference_finalize(&sim);
    sim.finalize();
    assert_same_state(&expected, &sim, "finalize after a displacement");
}
