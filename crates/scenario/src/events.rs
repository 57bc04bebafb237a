//! Compiling the declarative event timeline into a runtime observer.
//!
//! [`TimelineHook`] implements [`laacad::Observer`]: after every round
//! it fires all due [`EventSpec`]s by translating them into concrete
//! [`laacad::NetworkEvent`]s against the live session. Randomized
//! events (`fail_fraction`, `insert` placements) draw from a dedicated
//! SplitMix64 stream seeded from the run seed, so a scenario replays
//! identically for identical seeds regardless of thread scheduling.

use crate::spec::{EventAction, EventSpec};
use laacad::{HookAction, NetworkEvent, Observer, RoundDelta, Session};
use laacad_geom::Point;
use laacad_region::sampling::SplitMix64;
use laacad_wsn::energy::EnergyModel;
use laacad_wsn::NodeId;

/// Record of one event application (or skip) during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedEvent {
    /// Round after which the event fired.
    pub round: usize,
    /// Short description of the action (e.g. `fail_fraction(0.2)`).
    pub action: String,
    /// Nodes removed.
    pub removed: usize,
    /// Nodes inserted.
    pub inserted: usize,
    /// Why the event was skipped, if it was (validation failure — e.g.
    /// killing every node — never aborts a campaign).
    pub skipped: Option<String>,
}

/// An [`Observer`] executing a scenario's event timeline.
#[derive(Debug)]
pub struct TimelineHook {
    /// Events sorted by round (stable, preserving spec order within a
    /// round).
    events: Vec<EventSpec>,
    next: usize,
    rng: SplitMix64,
    log: Vec<AppliedEvent>,
}

impl TimelineHook {
    /// Builds a hook from a spec's timeline and the run seed.
    pub fn new(events: &[EventSpec], seed: u64) -> Self {
        let mut sorted = events.to_vec();
        sorted.sort_by_key(|e| e.round);
        TimelineHook {
            events: sorted,
            next: 0,
            // Decorrelate from the placement stream (which uses the seed
            // directly).
            rng: SplitMix64::new(seed ^ 0xE7E2_7D5A_11AD_CA1D),
            log: Vec::new(),
        }
    }

    /// Events applied (and skipped) so far, in firing order.
    pub fn log(&self) -> &[AppliedEvent] {
        &self.log
    }

    /// The hook's resumable state — (next event index, RNG state, event
    /// log) — for checkpoint serialization. Feeding it back through
    /// [`TimelineHook::restore`] (with the same spec timeline) yields a
    /// hook whose subsequent firings are bit-identical to the original.
    pub fn checkpoint(&self) -> (usize, u64, &[AppliedEvent]) {
        (self.next, self.rng.state(), &self.log)
    }

    /// Rebuilds a hook mid-run from [`TimelineHook::checkpoint`] state
    /// taken after `round`. `events` must be the same spec timeline the
    /// original hook was built from; `rng_state` resumes the
    /// victim/placement stream exactly where the checkpoint left it.
    ///
    /// # Errors
    ///
    /// A description of the mismatch when the state cannot be that of a
    /// hook after `round`: `next` must count exactly the timeline
    /// entries due by `round`, and `log` must hold one entry per fired
    /// event. A cursor that lost counts would otherwise re-fire applied
    /// events.
    pub fn restore(
        events: &[EventSpec],
        round: usize,
        next: usize,
        rng_state: u64,
        log: Vec<AppliedEvent>,
    ) -> Result<Self, String> {
        let mut hook = TimelineHook::new(events, 0);
        let due = hook.events.partition_point(|e| e.round <= round);
        if next != due {
            return Err(format!(
                "event cursor {next} does not match the {due} timeline entries due by round {round}"
            ));
        }
        if log.len() != next {
            return Err(format!(
                "event log holds {} entries for {next} fired events",
                log.len()
            ));
        }
        hook.next = next;
        hook.rng = SplitMix64::new(rng_state);
        hook.log = log;
        Ok(hook)
    }

    /// Consumes the hook, returning its event log.
    pub fn into_log(self) -> Vec<AppliedEvent> {
        self.log
    }

    /// Whether every timeline entry has fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Logs every entry that never fired (the run hit its round limit or
    /// was stopped first) as skipped, so the outcome's event log always
    /// accounts for the whole timeline. Returns one human-readable
    /// warning per unfired entry; the scenario engine surfaces these in
    /// [`crate::ScenarioOutcome::warnings`] instead of dropping them.
    pub fn mark_unfired(&mut self, final_round: usize) -> Vec<String> {
        let mut warnings = Vec::new();
        while self.next < self.events.len() {
            let spec = &self.events[self.next];
            self.next += 1;
            let action = Self::describe(&spec.action);
            warnings.push(format!(
                "event `{action}` at round {} never fired: run ended at round {final_round}",
                spec.round
            ));
            self.log.push(AppliedEvent {
                round: spec.round,
                action,
                removed: 0,
                inserted: 0,
                skipped: Some(format!(
                    "run ended at round {final_round} before event round {}",
                    spec.round
                )),
            });
        }
        warnings
    }

    fn describe(action: &EventAction) -> String {
        match action {
            EventAction::FailFraction { fraction } => format!("fail_fraction({fraction})"),
            EventAction::FailNodes { ids } => format!("fail_nodes({} ids)", ids.len()),
            EventAction::FailRegion { center, radius } => {
                format!("fail_region(({}, {}), r={radius})", center.0, center.1)
            }
            EventAction::DepleteBatteries { capacity, .. } => {
                format!("deplete_batteries(capacity={capacity})")
            }
            EventAction::Insert { placement } => {
                format!("insert({} nodes)", placement.node_count())
            }
            EventAction::SetK { k } => format!("set_k({k})"),
            EventAction::SetAlpha { alpha } => format!("set_alpha({alpha})"),
        }
    }

    /// Picks `count` distinct victims uniformly without replacement
    /// (partial Fisher–Yates over the index range), returned sorted.
    fn pick_victims(&mut self, n: usize, count: usize) -> Vec<NodeId> {
        let count = count.min(n);
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = i + (self.rng.next_u64() as usize) % (n - i);
            pool.swap(i, j);
        }
        let mut victims: Vec<usize> = pool[..count].to_vec();
        victims.sort_unstable();
        victims.into_iter().map(NodeId).collect()
    }

    fn fire(&mut self, sim: &mut Session, spec_round: usize, action: EventAction) {
        let mut entry = AppliedEvent {
            round: spec_round,
            action: Self::describe(&action),
            removed: 0,
            inserted: 0,
            skipped: None,
        };
        let event: Result<NetworkEvent, String> = match action {
            EventAction::FailFraction { fraction } => {
                if !(0.0..1.0).contains(&fraction) {
                    Err(format!("fraction {fraction} outside [0, 1)"))
                } else {
                    let n = sim.network().len();
                    let count = (fraction * n as f64).round() as usize;
                    Ok(NetworkEvent::FailNodes(self.pick_victims(n, count)))
                }
            }
            EventAction::FailNodes { ids } => Ok(NetworkEvent::FailNodes(
                ids.into_iter().map(NodeId).collect(),
            )),
            EventAction::FailRegion { center, radius } => {
                let c = Point::new(center.0, center.1);
                let doomed: Vec<NodeId> = sim
                    .network()
                    .positions()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.distance(c) <= radius)
                    .map(|(i, _)| NodeId(i))
                    .collect();
                Ok(NetworkEvent::FailNodes(doomed))
            }
            EventAction::DepleteBatteries {
                capacity,
                move_cost,
                sense_cost,
                exponent,
            } => {
                let model = EnergyModel::new(1.0, exponent.max(1e-9));
                let rounds = sim.rounds_executed() as f64;
                let doomed: Vec<NodeId> = sim
                    .network()
                    .nodes()
                    .filter(|node| {
                        let spent = move_cost * node.distance_moved()
                            + sense_cost * rounds * model.energy(node.sensing_radius());
                        spent > capacity
                    })
                    .map(|node| node.id())
                    .collect();
                Ok(NetworkEvent::FailNodes(doomed))
            }
            EventAction::Insert { placement } => {
                let seed = self.rng.next_u64();
                match placement.build(sim.region(), seed) {
                    Ok(points) => Ok(NetworkEvent::InsertNodes(points)),
                    Err(e) => Err(e.to_string()),
                }
            }
            EventAction::SetK { k } => Ok(NetworkEvent::SetK(k)),
            EventAction::SetAlpha { alpha } => Ok(NetworkEvent::SetAlpha(alpha)),
        };
        match event {
            Ok(NetworkEvent::FailNodes(ids)) if ids.is_empty() => {
                // Nothing to remove (e.g. all batteries healthy) — a no-op,
                // not an error.
            }
            Ok(event) => match sim.apply_event(event) {
                Ok(outcome) => {
                    entry.removed = outcome.removed;
                    entry.inserted = outcome.inserted;
                }
                Err(e) => entry.skipped = Some(e.to_string()),
            },
            Err(reason) => entry.skipped = Some(reason),
        }
        self.log.push(entry);
    }
}

impl TimelineHook {
    /// Fires every not-yet-fired event scheduled at or before `round`.
    /// The engine calls this with `round = 0` before the first step so
    /// that round-0 events (dead-on-arrival failures, pre-run parameter
    /// changes) act before any movement.
    pub fn fire_due(&mut self, sim: &mut Session, round: usize) {
        while self.next < self.events.len() && self.events[self.next].round <= round {
            let spec = self.events[self.next].clone();
            self.next += 1;
            self.fire(sim, spec.round, spec.action);
        }
    }
}

impl Observer for TimelineHook {
    fn on_round_end(&mut self, sim: &mut Session, delta: &RoundDelta) -> HookAction {
        self.fire_due(sim, delta.report.round);
        if self.exhausted() {
            HookAction::Default
        } else {
            HookAction::KeepRunning
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgorithmSpec, ScenarioSpec};

    fn sim(n: usize, k: usize) -> Session {
        let spec = ScenarioSpec::uniform("t", n, k);
        let region = spec.region.build().unwrap();
        let initial = spec.placement.build(&region, 11).unwrap();
        let config = AlgorithmSpec {
            k,
            max_rounds: 120,
            ..AlgorithmSpec::default()
        }
        .build(&region, n, 11)
        .unwrap();
        Session::builder(config)
            .region(region)
            .positions(initial)
            .build()
            .unwrap()
    }

    #[test]
    fn fail_fraction_kills_the_right_count() {
        let mut sim = sim(30, 1);
        let events = vec![EventSpec {
            round: 2,
            action: EventAction::FailFraction { fraction: 0.2 },
        }];
        let mut hook = TimelineHook::new(&events, 5);
        sim.run_with_observers(&mut [&mut hook]);
        assert_eq!(sim.network().len(), 24);
        let log = hook.into_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].removed, 6);
        assert!(log[0].skipped.is_none());
    }

    #[test]
    fn victim_choice_is_seed_deterministic() {
        let pick = |seed: u64| {
            let mut h = TimelineHook::new(&[], seed);
            h.pick_victims(50, 10)
        };
        assert_eq!(pick(9), pick(9));
        assert_ne!(pick(9), pick(10));
        let victims = pick(9);
        assert!(victims.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
    }

    #[test]
    fn timeline_fires_in_round_order_and_keeps_running() {
        let mut s = sim(20, 1);
        let events = vec![
            EventSpec {
                round: 90,
                action: EventAction::SetAlpha { alpha: 1.0 },
            },
            EventSpec {
                round: 3,
                action: EventAction::FailFraction { fraction: 0.1 },
            },
        ];
        let mut hook = TimelineHook::new(&events, 1);
        s.run_with_observers(&mut [&mut hook]);
        // Both events fired even though the run would have converged
        // before round 90 without the KeepRunning override.
        assert!(hook.exhausted());
        let log = hook.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].round, 3);
        assert_eq!(log[1].round, 90);
        assert_eq!(s.config().alpha, 1.0);
    }

    #[test]
    fn invalid_events_are_logged_not_fatal() {
        let mut s = sim(10, 1);
        let events = vec![EventSpec {
            round: 1,
            action: EventAction::SetK { k: 99 },
        }];
        let mut hook = TimelineHook::new(&events, 1);
        s.run_with_observers(&mut [&mut hook]);
        let log = hook.log();
        assert_eq!(log.len(), 1);
        assert!(log[0].skipped.is_some());
        assert_eq!(s.config().k, 1);
    }

    #[test]
    fn unfired_events_are_logged_as_skipped() {
        let mut s = sim(12, 1);
        let events = vec![
            EventSpec {
                round: 2,
                action: EventAction::FailFraction { fraction: 0.1 },
            },
            EventSpec {
                round: 10_000, // far past max_rounds
                action: EventAction::SetK { k: 2 },
            },
        ];
        let mut hook = TimelineHook::new(&events, 3);
        let summary = s.run_with_observers(&mut [&mut hook]);
        assert!(!hook.exhausted());
        let warnings = hook.mark_unfired(summary.rounds);
        assert!(hook.exhausted());
        assert_eq!(warnings.len(), 1, "one warning per unfired event");
        assert!(warnings[0].contains("never fired"), "{}", warnings[0]);
        let log = hook.log();
        assert_eq!(log.len(), 2);
        assert!(log[0].skipped.is_none());
        let reason = log[1].skipped.as_deref().expect("second event skipped");
        assert!(reason.contains("before event round 10000"), "{reason}");
    }

    #[test]
    fn depletion_spares_fresh_nodes() {
        let mut s = sim(15, 1);
        let events = vec![EventSpec {
            round: 1,
            action: EventAction::DepleteBatteries {
                capacity: f64::MAX / 4.0,
                move_cost: 1.0,
                sense_cost: 1.0,
                exponent: 2.0,
            },
        }];
        let mut hook = TimelineHook::new(&events, 1);
        s.run_with_observers(&mut [&mut hook]);
        assert_eq!(s.network().len(), 15, "huge capacity kills nobody");
        assert_eq!(hook.log().len(), 1);
        assert_eq!(hook.log()[0].removed, 0);
    }
}
