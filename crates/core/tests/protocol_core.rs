//! Boundary cases of the protocol core every engine calls
//! (`laacad::protocol`): the ε decision, a view without a Chebyshev
//! disk, a round in which no node has one, and the run summary.

use laacad::{NodeView, RoundAggregate, RunSummary};
use laacad_geom::{Circle, Point};
use laacad_wsn::radio::MessageStats;
use laacad_wsn::{Network, NodeId};

fn view(chebyshev: Option<Circle>, reach: f64) -> NodeView {
    NodeView {
        rho: 0.4,
        dominated: true,
        saturated: false,
        messages: MessageStats {
            unicast: 3,
            broadcast: 2,
        },
        chebyshev,
        reach,
        contact_radius: 0.5,
        cache_hit: false,
    }
}

fn one_node() -> Network {
    let mut net = Network::from_positions(0.3, [Point::new(0.2, 0.3)]);
    net.set_sensing_radius(NodeId(0), 0.125);
    net
}

#[test]
fn a_displacement_of_exactly_epsilon_stays_and_one_ulp_more_moves() {
    let center = Point::new(0.55, 0.71);
    let node = view(Some(Circle::new(center, 0.25)), 0.3);
    let mut net = one_node();
    let d = net.position(NodeId(0)).distance(center);

    let mut at_epsilon = RoundAggregate::default();
    assert_eq!(at_epsilon.absorb(&mut net, NodeId(0), &node, d), None);
    let report = at_epsilon.report(1);
    assert_eq!(report.max_displacement_to_target, d);
    assert_eq!((report.nodes_moved, report.converged), (0, true));

    // `d` is the next representable value above this ε.
    let below = f64::from_bits(d.to_bits() - 1);
    let mut above_epsilon = RoundAggregate::default();
    assert_eq!(
        above_epsilon.absorb(&mut net, NodeId(0), &node, below),
        Some(center)
    );
    let report = above_epsilon.report(1);
    assert_eq!((report.nodes_moved, report.converged), (1, false));
    // The step is the caller's: absorb sets the radius, never the position.
    assert_eq!(net.position(NodeId(0)), Point::new(0.2, 0.3));
    assert_eq!(net.sensing_radii()[0], 0.3);
}

#[test]
fn a_view_without_a_disk_adds_only_its_messages() {
    let mut net = one_node();
    let mut agg = RoundAggregate::default();
    assert_eq!(agg.absorb(&mut net, NodeId(0), &view(None, 9.0), 0.0), None);
    assert_eq!(agg.absorbed(), 1);
    assert_eq!(net.sensing_radii()[0], 0.125, "the radius is left alone");
    let report = agg.report(4);
    assert_eq!(
        report.messages,
        MessageStats {
            unicast: 3,
            broadcast: 2
        }
    );
    assert_eq!(report.max_circumradius, 0.0);
    assert_eq!(report.max_reach, 0.0);
    assert_eq!(report.max_displacement_to_target, 0.0);
}

#[test]
fn a_round_without_any_disk_reports_zero_and_converged() {
    let mut net = Network::from_positions(0.3, [Point::new(0.2, 0.3), Point::new(0.6, 0.3)]);
    for agg in [RoundAggregate::default(), {
        let mut agg = RoundAggregate::default();
        agg.absorb(&mut net, NodeId(0), &view(None, 1.0), 0.0);
        agg.absorb(&mut net, NodeId(1), &view(None, 1.0), 0.0);
        agg
    }] {
        let report = agg.report(7);
        assert_eq!(report.round, 7);
        assert_eq!(report.min_circumradius, 0.0);
        assert_eq!((report.nodes_moved, report.converged), (0, true));
    }
    // One disk anywhere makes the minimum that disk's radius.
    let mut agg = RoundAggregate::default();
    agg.absorb(&mut net, NodeId(0), &view(None, 1.0), 0.0);
    let disk = Circle::new(Point::new(0.6, 0.3), 0.2);
    agg.absorb(&mut net, NodeId(1), &view(Some(disk), 0.21), 0.0);
    assert_eq!(agg.report(7).min_circumradius, 0.2);
}

#[test]
fn a_summary_counts_one_round_per_record_and_sums_messages() {
    let net = one_node();
    let mut agg = RoundAggregate::default();
    agg.absorb(&mut net.clone(), NodeId(0), &view(None, 1.0), 0.0);
    let rounds = [agg.report(1), agg.report(2)];
    let mut messages = MessageStats::default();
    for report in &rounds {
        messages.absorb(report.messages);
    }
    let summary = RunSummary::new(rounds.len(), messages, &net, true);
    assert_eq!(summary.rounds, 2);
    assert!(summary.converged);
    assert_eq!(
        summary.messages,
        MessageStats {
            unicast: 6,
            broadcast: 4
        }
    );
    assert_eq!(summary.max_sensing_radius, 0.125);
}
