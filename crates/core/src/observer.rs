//! The typed observer API of [`Session::run_with_observers`].
//!
//! An [`Observer`] receives distinct, individually optional
//! notifications — round start, per-node movement, round end (the only
//! mutating hook), and applied dynamic events.
//!
//! [`Session::run_with_observers`]: crate::Session::run_with_observers

use crate::hooks::{EventOutcome, HookAction, NetworkEvent};
use crate::session::{MovedNode, RoundDelta, Session};

/// Typed callbacks dispatched by [`Session::run_with_observers`].
///
/// All methods default to no-ops, so an observer implements only what it
/// cares about. Per round the dispatch order is: [`Observer::on_round_start`],
/// one [`Observer::on_node_moved`] per mover, [`Observer::on_round_end`]
/// (whose [`HookAction`] verdicts steer the run loop), then one
/// [`Observer::on_event_applied`] per dynamic event any observer applied
/// during `on_round_end`.
///
/// [`Session::run_with_observers`]: crate::Session::run_with_observers
///
/// # Example
///
/// ```
/// use laacad::{HookAction, LaacadConfig, NetworkEvent, Observer, RoundDelta, Session};
/// use laacad_region::{sampling::sample_uniform, Region};
/// use laacad_wsn::NodeId;
///
/// /// Kills node 0 after round 3, then lets the run converge.
/// struct KillOne { done: bool }
/// impl Observer for KillOne {
///     fn on_round_end(&mut self, session: &mut Session, delta: &RoundDelta) -> HookAction {
///         if !self.done && delta.report.round == 3 {
///             session.apply_event(NetworkEvent::FailNodes(vec![NodeId(0)])).unwrap();
///             self.done = true;
///         }
///         if self.done { HookAction::Default } else { HookAction::KeepRunning }
///     }
/// }
///
/// let region = Region::square(1.0)?;
/// let config = LaacadConfig::builder(1)
///     .transmission_range(0.35)
///     .max_rounds(60)
///     .build()?;
/// let mut session = Session::builder(config)
///     .positions(sample_uniform(&region, 14, 9))
///     .region(region)
///     .build()?;
/// let mut observer = KillOne { done: false };
/// let summary = session.run_with_observers(&mut [&mut observer]);
/// assert_eq!(session.network().len(), 13);
/// assert!(summary.rounds > 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait Observer {
    /// Called before round `round` executes (1-based).
    fn on_round_start(&mut self, _session: &Session, _round: usize) {}

    /// Called once per node that moved this round, after all movement.
    fn on_node_moved(&mut self, _session: &Session, _moved: &MovedNode) {}

    /// Called after each executed round with the full change set. The
    /// observer may mutate the session through
    /// [`Session::apply_event`](crate::Session::apply_event); the
    /// returned verdicts combine across observers (any `Stop` stops,
    /// else any `KeepRunning` overrides the convergence stop).
    fn on_round_end(&mut self, _session: &mut Session, _delta: &RoundDelta) -> HookAction {
        HookAction::Default
    }

    /// Called once per dynamic event applied during this round's
    /// `on_round_end` dispatch (by any observer).
    fn on_event_applied(
        &mut self,
        _session: &Session,
        _event: &NetworkEvent,
        _outcome: &EventOutcome,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LaacadConfig;
    use laacad_coverage::evaluate_coverage;
    use laacad_geom::Point;
    use laacad_region::sampling::sample_uniform;
    use laacad_region::Region;
    use laacad_wsn::NodeId;

    fn config(k: usize, rounds: usize) -> LaacadConfig {
        LaacadConfig::builder(k)
            .transmission_range(0.35)
            .alpha(0.6)
            .epsilon(2e-3)
            .max_rounds(rounds)
            .build()
            .unwrap()
    }

    fn session(config: LaacadConfig, n: usize, seed: u64) -> (Session, Region) {
        let region = Region::square(1.0).unwrap();
        let initial = sample_uniform(&region, n, seed);
        let session = Session::builder(config)
            .region(region.clone())
            .positions(initial)
            .build()
            .unwrap();
        (session, region)
    }

    #[derive(Default)]
    struct Recorder {
        starts: Vec<usize>,
        ends: Vec<usize>,
        moves: usize,
        events: usize,
    }

    impl Observer for Recorder {
        fn on_round_start(&mut self, _session: &Session, round: usize) {
            self.starts.push(round);
        }

        fn on_node_moved(&mut self, session: &Session, moved: &MovedNode) {
            assert_eq!(session.network().position(moved.id), moved.to);
            self.moves += 1;
        }

        fn on_round_end(&mut self, _session: &mut Session, delta: &RoundDelta) -> HookAction {
            self.ends.push(delta.report.round);
            HookAction::Default
        }

        fn on_event_applied(
            &mut self,
            _session: &Session,
            _event: &NetworkEvent,
            _outcome: &EventOutcome,
        ) {
            self.events += 1;
        }
    }

    #[test]
    fn observers_see_every_round_and_movement() {
        let (mut sim, _region) = session(config(1, 50), 12, 5);
        let mut rec = Recorder::default();
        let summary = sim.run_with_observers(&mut [&mut rec]);
        assert_eq!(rec.starts.len(), summary.rounds);
        assert_eq!(rec.ends, rec.starts);
        assert!(rec.moves > 0, "a fresh deployment moves");
        assert_eq!(rec.events, 0);
    }

    struct StopAt(usize);

    impl Observer for StopAt {
        fn on_round_end(&mut self, _session: &mut Session, delta: &RoundDelta) -> HookAction {
            if delta.report.round >= self.0 {
                HookAction::Stop
            } else {
                HookAction::Default
            }
        }
    }

    #[test]
    fn stop_action_terminates_early() {
        let (mut sim, _region) = session(config(1, 200), 12, 6);
        let summary = sim.run_with_observers(&mut [&mut StopAt(4)]);
        assert_eq!(summary.rounds, 4);
    }

    struct FailMidRun {
        at: usize,
        fired: bool,
    }

    impl Observer for FailMidRun {
        fn on_round_end(&mut self, session: &mut Session, delta: &RoundDelta) -> HookAction {
            if !self.fired && delta.report.round == self.at {
                let doomed: Vec<NodeId> = (0..session.network().len() / 5).map(NodeId).collect();
                session
                    .apply_event(NetworkEvent::FailNodes(doomed))
                    .unwrap();
                self.fired = true;
            }
            if self.fired {
                HookAction::Default
            } else {
                HookAction::KeepRunning
            }
        }
    }

    #[test]
    fn failure_mid_run_recovers_coverage_and_notifies() {
        let (mut sim, region) = session(config(1, 150), 25, 77);
        let mut hook = FailMidRun {
            at: 12,
            fired: false,
        };
        let mut rec = Recorder::default();
        let summary = sim.run_with_observers(&mut [&mut hook, &mut rec]);
        assert!(hook.fired);
        assert_eq!(rec.events, 1, "the applied event reached every observer");
        assert_eq!(sim.network().len(), 20);
        assert!(summary.rounds > 12);
        let report = evaluate_coverage(sim.network(), &region, 1, 3000);
        assert!(report.covered_fraction > 0.99, "{report}");
    }

    #[test]
    fn insert_and_set_k_events() {
        let (mut sim, region) = session(config(1, 30), 10, 3);
        sim.step();
        let outcome = sim
            .apply_event(NetworkEvent::InsertNodes(sample_uniform(&region, 5, 4)))
            .unwrap();
        assert_eq!(outcome.inserted, 5);
        assert_eq!(sim.network().len(), 15);
        sim.apply_event(NetworkEvent::SetK(2)).unwrap();
        assert_eq!(sim.config().k, 2);
        sim.apply_event(NetworkEvent::SetAlpha(1.0)).unwrap();
        assert_eq!(sim.config().alpha, 1.0);
        let summary = sim.run();
        let report = evaluate_coverage(sim.network(), &region, 2, 3000);
        assert!(report.covered_fraction > 0.99, "{report} ({summary})");
    }

    #[test]
    fn invalid_events_are_rejected() {
        let (mut sim, _region) = session(config(1, 10), 6, 1);
        // Killing everything is rejected.
        let all: Vec<NodeId> = (0..6).map(NodeId).collect();
        assert!(sim.apply_event(NetworkEvent::FailNodes(all)).is_err());
        // k > N is rejected.
        assert!(sim.apply_event(NetworkEvent::SetK(7)).is_err());
        // α outside (0, 1] is rejected.
        assert!(sim.apply_event(NetworkEvent::SetAlpha(0.0)).is_err());
        // Out-of-region insertion is rejected and atomic (nothing added).
        let err = sim.apply_event(NetworkEvent::InsertNodes(vec![
            Point::new(0.5, 0.5),
            Point::new(9.0, 9.0),
        ]));
        assert!(err.is_err());
        assert_eq!(sim.network().len(), 6);
    }

    struct KeepAliveUntil(usize);

    impl Observer for KeepAliveUntil {
        fn on_round_end(&mut self, _session: &mut Session, delta: &RoundDelta) -> HookAction {
            if delta.report.round < self.0 {
                HookAction::KeepRunning
            } else {
                HookAction::Default
            }
        }
    }

    #[test]
    fn idle_converged_rounds_do_not_grow_the_snapshot() {
        let mut cfg = config(1, 200);
        cfg.alpha = 1.0; // converge fast, leaving a long idle tail
        cfg.epsilon = 1e-2;
        let (mut sim, _region) = session(cfg, 8, 2);
        let built = sim.snapshot().len();
        let summary = sim.run_with_observers(&mut [&mut KeepAliveUntil(120)]);
        assert!(summary.converged);
        assert!(summary.rounds >= 120, "observer kept the run alive");
        // Running totals, not one record per round, idle ones included.
        assert_eq!(sim.snapshot().len(), built);
    }

    #[test]
    fn events_reset_convergence() {
        let mut cfg = config(1, 200);
        cfg.alpha = 1.0;
        let (mut sim, _region) = session(cfg, 8, 2);
        sim.run();
        assert!(sim.is_converged());
        sim.apply_event(NetworkEvent::FailNodes(vec![NodeId(0)]))
            .unwrap();
        assert!(!sim.is_converged());
    }
}
