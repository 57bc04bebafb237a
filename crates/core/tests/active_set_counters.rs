//! Work-counter guards for the synchronous engine's active set.
//!
//! `tests/reference_engine.rs` proves the shortcuts never change a
//! result; these tests prove they still save the work they exist for.
//! The counters are deterministic, so the guards are exact or
//! proportional bounds, never wall-clock ones:
//!
//! * a quiescent synchronous round runs zero ring searches, at one and
//!   at four worker threads;
//! * quiescent rounds neither rebuild nor patch the adjacency snapshot;
//! * a round reacting to 10 % localized movers re-activates under 30 %
//!   of the deployment, and the recovery from a localized failure
//!   reaches rounds that skip far nodes while the failure site
//!   searches — both with their exact per-node verdict counts pinned;
//! * the movement set is read below `⌈N/4⌉` moves and not at or above
//!   it: one mover fewer patches the adjacency and re-activates part of
//!   the deployment, `⌈N/4⌉` movers rebuild it and search every node,
//!   and so does a small displacement after a round that moved many;
//! * Gauss–Seidel rounds search every node every round (the dirty-node
//!   index never applies there);
//! * an event ends the replay of the stored views but keeps their keys,
//!   so unchanged geometry is still reused after it;
//! * every work counter is the same at every thread count: the engine
//!   keeps one view store, whichever worker computes a node;
//! * a round stepped after `finalize` searches the nodes it would have
//!   searched without it, and reuses the geometry `finalize` stored.

use laacad::{ExecutionMode, LaacadConfig, NetworkEvent, Session, SessionCounters};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::NodeId;

fn session(n: usize, k: usize, threads: usize, execution: ExecutionMode) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(0.05)
        .max_rounds(1_000)
        .threads(threads)
        .execution(execution)
        .build()
        .unwrap();
    Session::builder(config)
        .positions(sample_uniform(&region, n, 42))
        .region(region)
        .build()
        .unwrap()
}

/// The `movers` nodes nearest the (0, 0) corner, each stepping a
/// quarter of the radio range toward the centre: a localized
/// disturbance.
fn corner_moves(sim: &Session, movers: usize) -> Vec<(NodeId, Point)> {
    let gamma = sim.config().gamma;
    let (corner, center) = (Point::new(0.0, 0.0), Point::new(0.5, 0.5));
    let positions = sim.network().positions();
    let mut order: Vec<usize> = (0..positions.len()).collect();
    order.sort_by(|&a, &b| {
        positions[a]
            .distance_sq(corner)
            .total_cmp(&positions[b].distance_sq(corner))
            .then(a.cmp(&b))
    });
    order[..movers]
        .iter()
        .map(|&i| {
            let p = positions[i];
            let d = p.distance(center);
            (
                NodeId(i),
                p.lerp(center, (0.25 * gamma).min(d) / d.max(1e-12)),
            )
        })
        .collect()
}

/// Steps to convergence, then one more round so the stored views
/// describe the final positions.
fn settle(sim: &mut Session) {
    for _ in 0..60 {
        if sim.step().report.converged {
            sim.step();
            return;
        }
    }
    panic!("warm-up did not converge");
}

#[test]
fn quiescent_rounds_perform_zero_ring_searches_at_any_thread_count() {
    for threads in [1usize, 4] {
        let mut sim = session(30, 2, threads, ExecutionMode::Synchronous);
        settle(&mut sim);
        let before = sim.counters();
        for _ in 0..10 {
            let delta = sim.step();
            assert_eq!(
                delta.ring_searches, 0,
                "threads={threads}: quiescent round ran a ring search"
            );
            assert_eq!(delta.skipped_quiescent, sim.network().len());
            assert!(delta.moved.is_empty());
        }
        let after = sim.counters();
        assert_eq!(
            after.ring_searches, before.ring_searches,
            "threads={threads}: cumulative searches grew during quiescence"
        );
        assert_eq!(
            after.skipped_quiescent - before.skipped_quiescent,
            10 * sim.network().len() as u64,
            "threads={threads}"
        );
    }
}

#[test]
fn quiescent_rounds_leave_the_adjacency_snapshot_untouched() {
    let mut sim = session(1_000, 3, 1, ExecutionMode::Synchronous);
    settle(&mut sim);
    let before = sim.counters();
    for _ in 0..5 {
        sim.step();
    }
    let after = sim.counters();
    assert_eq!(after.adjacency_rebuilds, before.adjacency_rebuilds);
    assert_eq!(
        after.adjacency_incremental_updates,
        before.adjacency_incremental_updates
    );
    assert_eq!(after.ring_searches, before.ring_searches);
}

#[test]
fn localized_movers_reactivate_a_small_share_of_the_deployment() {
    let n = 4_000;
    let mut sim = session(n, 3, 1, ExecutionMode::Synchronous);
    settle(&mut sim);
    // The 10 % of nodes nearest the corner move.
    let movers = n / 10;
    let moves = corner_moves(&sim, movers);
    assert_eq!(sim.displace_nodes(&moves).unwrap(), movers);
    let delta = sim.step();
    assert!(delta.ring_searches >= movers, "every mover searches");
    assert!(
        (delta.ring_searches as f64) < 0.30 * n as f64,
        "{movers} localized movers re-activated {} of {n} nodes",
        delta.ring_searches
    );
    // The exact verdicts: re-computing a clean node reproduces its view,
    // so an over-eager classifier would pass every bound above.
    assert_eq!((delta.ring_searches, delta.skipped_quiescent), (937, 3_063));
}

#[test]
fn a_quarter_of_the_nodes_moving_counts_as_all_of_them() {
    let n: usize = 400;
    let quarter = n.div_ceil(4);
    for (movers, patched) in [(quarter - 1, true), (quarter, false)] {
        let mut sim = session(n, 1, 1, ExecutionMode::Synchronous);
        settle(&mut sim);
        assert_eq!(
            sim.displace_nodes(&corner_moves(&sim, movers)).unwrap(),
            movers
        );
        let before = sim.counters();
        let delta = sim.step();
        let after = sim.counters();
        assert_eq!(
            after.adjacency_incremental_updates - before.adjacency_incremental_updates,
            u64::from(patched),
            "{movers} movers"
        );
        assert_eq!(
            after.adjacency_rebuilds - before.adjacency_rebuilds,
            u64::from(!patched),
            "{movers} movers"
        );
        if patched {
            assert!(
                (movers..n).contains(&delta.ring_searches),
                "{movers} movers re-activated {} of {n} nodes",
                delta.ring_searches
            );
        } else {
            assert_eq!(delta.ring_searches, n, "{movers} movers");
        }
    }
}

#[test]
fn a_small_displacement_after_a_many_mover_round_still_rebuilds() {
    let n = 400;
    // Nodes packed into the lower-left quarter of the square spread out.
    let config = LaacadConfig::builder(1)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, 1))
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(1_000)
        .threads(1)
        .build()
        .unwrap();
    let mut sim = Session::builder(config)
        .positions(sample_uniform(&Region::square(0.5).unwrap(), n, 42))
        .region(Region::square(1.0).unwrap())
        .build()
        .unwrap();
    let spread = sim.step().moved.len();
    assert!(spread * 4 >= n, "the first round moved only {spread} nodes");
    // One displaced node on top of that round's moves is still too many
    // to read.
    assert_eq!(sim.displace_nodes(&corner_moves(&sim, 1)).unwrap(), 1);
    let before = sim.counters();
    let delta = sim.step();
    let after = sim.counters();
    assert_eq!(delta.ring_searches, n);
    assert_eq!(after.adjacency_rebuilds - before.adjacency_rebuilds, 1);
    assert_eq!(
        after.adjacency_incremental_updates,
        before.adjacency_incremental_updates
    );
}

#[test]
fn partial_quiescence_skips_far_nodes_only() {
    // A dense deployment with a small explicit γ keeps the dirty safety
    // radius well below the region diameter. After a localized corner
    // failure, the first round recomputes everyone (events invalidate
    // the index wholesale); once the response localizes, nodes far from
    // every mover must be skipped while the corner keeps searching.
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(1)
        .transmission_range(0.12)
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(600)
        .build()
        .unwrap();
    let mut sim = Session::builder(config)
        .positions(sample_uniform(&region, 200, 77))
        .region(region)
        .build()
        .unwrap();
    for _ in 0..600 {
        if sim.step().report.converged {
            break;
        }
    }
    assert!(sim.is_converged(), "dense 200-node run converges");
    sim.step();
    // Kill everything in the bottom-left corner disk.
    let corner = Point::new(0.1, 0.1);
    let doomed: Vec<NodeId> = sim
        .network()
        .positions()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance(corner) <= 0.15)
        .map(|(i, _)| NodeId(i))
        .collect();
    assert!(!doomed.is_empty(), "the corner holds victims");
    sim.apply_event(NetworkEvent::FailNodes(doomed)).unwrap();
    let post_event = sim.step();
    assert_eq!(
        post_event.ring_searches,
        sim.network().len(),
        "the round after an event recomputes everyone"
    );
    let mut partial = false;
    for _ in 0..200 {
        let delta = sim.step();
        assert_eq!(
            delta.skipped_quiescent + delta.ring_searches,
            sim.network().len()
        );
        if delta.skipped_quiescent > 0 && delta.ring_searches > 0 {
            // The exact verdicts of the first partially-quiescent round.
            assert_eq!((delta.ring_searches, delta.skipped_quiescent), (72, 115));
            partial = true;
            break;
        }
        if delta.report.converged && delta.ring_searches == 0 {
            break;
        }
    }
    assert!(
        partial,
        "recovery never reached a partially-quiescent round (skips alongside searches)"
    );
}

#[test]
fn gauss_seidel_rounds_search_every_node() {
    let n = 14;
    let mut sim = session(n, 1, 1, ExecutionMode::Sequential);
    settle(&mut sim);
    for _ in 0..3 {
        let delta = sim.step();
        assert_eq!(delta.ring_searches, n);
        assert_eq!(delta.skipped_quiescent, 0);
    }
}

/// A uniform k = 1 deployment of `n` nodes at `seed`, recommended γ,
/// α = 0.5 and ε = 10⁻³.
fn k1_session(n: usize, seed: u64, threads: usize) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(1)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, 1))
        .alpha(0.5)
        .epsilon(1e-3)
        .max_rounds(10_000)
        .threads(threads)
        .build()
        .unwrap();
    Session::builder(config)
        .positions(sample_uniform(&region, n, seed))
        .region(region)
        .build()
        .unwrap()
}

#[test]
fn events_end_the_replay_but_keep_the_stores_keys() {
    for threads in [1usize, 2] {
        let mut sim = k1_session(120, 3, threads);
        while !sim.step().report.converged {}
        sim.step();
        // Nothing moved: every node searches again, and every geometry
        // is reused.
        sim.apply_event(NetworkEvent::SetAlpha(0.7)).unwrap();
        let delta = sim.step();
        assert_eq!(
            (delta.ring_searches, delta.cache_hits),
            (120, 120),
            "threads {threads}: after SetAlpha"
        );
        // Node 100 fails and the 19 nodes above it take new ids, which
        // counts as a write: a node hits only when it kept its id and its
        // ring names no renumbered node.
        sim.apply_event(NetworkEvent::FailNodes(vec![NodeId(100)]))
            .unwrap();
        let delta = sim.step();
        assert_eq!(
            (delta.ring_searches, delta.cache_hits),
            (119, 19),
            "threads {threads}: after FailNodes"
        );
    }
}

#[test]
fn work_counters_do_not_depend_on_the_thread_count() {
    let expected = SessionCounters {
        ring_searches: 31_733,
        skipped_quiescent: 22_267,
        cache_hits: 14_594,
        cache_misses: 17_139,
        adjacency_rebuilds: 38,
        adjacency_incremental_updates: 108,
    };
    for threads in [1usize, 2, 2, 2, 4] {
        let mut sim = k1_session(300, 7, threads);
        for _ in 0..150 {
            sim.step();
        }
        let from = sim.network().position(NodeId(5));
        sim.displace_nodes(&[(NodeId(5), from.lerp(Point::new(0.5, 0.5), 0.1))])
            .unwrap();
        for _ in 0..30 {
            sim.step();
        }
        assert_eq!(sim.counters(), expected, "threads {threads}");
    }
}

#[test]
fn a_round_after_finalize_searches_the_same_nodes() {
    for threads in [1usize, 2] {
        let mut plain = k1_session(300, 7, threads);
        let mut finalized = k1_session(300, 7, threads);
        for sim in [&mut plain, &mut finalized] {
            for _ in 0..150 {
                sim.step();
            }
            let from = sim.network().position(NodeId(5));
            sim.displace_nodes(&[(NodeId(5), from.lerp(Point::new(0.5, 0.5), 0.1))])
                .unwrap();
            sim.step();
            sim.step();
        }
        finalized.finalize();
        let (a, b) = (plain.step(), finalized.step());
        assert_eq!(a.moved, b.moved, "threads {threads}");
        assert_eq!(
            (
                a.ring_searches,
                a.skipped_quiescent,
                a.cache_hits,
                a.cache_misses
            ),
            (173, 127, 135, 38),
            "threads {threads}: without finalize"
        );
        // The same 173 nodes search, and each finds the disk and reach
        // that `finalize` stored for its unchanged inputs.
        assert_eq!(
            (
                b.ring_searches,
                b.skipped_quiescent,
                b.cache_hits,
                b.cache_misses
            ),
            (173, 127, 173, 0),
            "threads {threads}: after finalize"
        );
    }
    // ρ changes are counted against the stored views, which `finalize`
    // refreshed at the positions the next round starts from.
    for threads in [1usize, 2] {
        let mut sim = k1_session(200, 42, threads);
        for _ in 0..3 {
            sim.step();
        }
        sim.finalize();
        let delta = sim.step();
        assert_eq!(
            (delta.ring_searches, delta.cache_hits, delta.rho_changed),
            (200, 200, 0),
            "threads {threads}"
        );
    }
}
