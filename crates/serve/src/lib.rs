//! # laacad-serve — coverage-as-a-service session host
//!
//! The hosting layer that turns the LAACAD round engine into a live
//! service: long-lived [`laacad::Session`]s multiplexed behind a
//! deterministic scheduler, ingesting disturbance streams
//! ([`Command::Displace`]), answering coverage queries, and durable
//! through [`laacad::Session::snapshot`] / restore.
//!
//! Three layers:
//!
//! * **Snapshots** — the `laacad-snapshot/3` format lives in
//!   [`laacad::snapshot`]; a session's snapshot is its whole state, and
//!   the [`Command::Snapshot`] request returns it.
//! * **Scheduling** — [`SessionHost`] owns N sessions with per-session
//!   FIFO command queues, drained in ascending session-id order each
//!   [`SessionHost::tick`] and executed in parallel over `laacad-exec`
//!   workers (one worker per session; sessions are independent, so any
//!   thread count yields identical results).
//! * **Backpressure** — queues are bounded ([`HostConfig`]); a full
//!   queue either refuses the submission ([`QueuePolicy::Reject`]) or
//!   drops the oldest pending command ([`QueuePolicy::ShedOldest`]), and
//!   a per-session tick budget keeps one chatty client from starving
//!   the batch. Host health flows through the standard telemetry
//!   [`Recorder`](laacad::Recorder) as per-tick counters.
//!
//! The host keeps no command history. It is deterministic instead: the
//! same admissions, submissions and ticks give the same responses and
//! the same session snapshots, byte for byte, at any thread count
//! (pinned by `tests/host_scheduler.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod command;
mod host;

pub use command::{Command, CoverageAnswer, Response, SessionId};
pub use host::{HostConfig, HostStats, QueuePolicy, SessionHost, SubmitError};

#[cfg(test)]
mod tests {
    use super::*;
    use laacad::{LaacadConfig, NetworkEvent, Session};
    use laacad_region::{sampling::sample_uniform, Region};
    use laacad_wsn::NodeId;

    fn session(n: usize, seed: u64) -> Session {
        let region = Region::square(1.0).unwrap();
        let config = LaacadConfig::builder(1)
            .transmission_range(0.3)
            .alpha(0.6)
            .max_rounds(80)
            .build()
            .unwrap();
        Session::builder(config)
            .positions(sample_uniform(&region, n, seed))
            .region(region)
            .build()
            .unwrap()
    }

    #[test]
    fn submit_and_tick_round_trip() {
        let mut host = SessionHost::new(HostConfig::default());
        let a = host.admit(session(14, 1));
        let b = host.admit(session(14, 2));
        host.submit(a, Command::Step).unwrap();
        host.submit(b, Command::Step).unwrap();
        host.submit(b, Command::QueryCoverage { samples: 200 })
            .unwrap();
        let results = host.tick();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, a);
        assert!(matches!(results[0].1[0], Response::Stepped(_)));
        assert!(matches!(results[1].1[1], Response::Coverage(_)));
        assert_eq!(host.stats().executed, 3);
        assert_eq!(host.queue_depth(a), Some(0));
    }

    #[test]
    fn reject_policy_bounds_the_queue() {
        let mut host = SessionHost::new(HostConfig {
            queue_capacity: 2,
            policy: QueuePolicy::Reject,
            ..HostConfig::default()
        });
        let id = host.admit(session(14, 3));
        host.submit(id, Command::Step).unwrap();
        host.submit(id, Command::Step).unwrap();
        assert_eq!(
            host.submit(id, Command::Step).unwrap_err(),
            SubmitError::QueueFull
        );
        assert_eq!(host.stats().rejected, 1);
        assert_eq!(host.queue_depth(id), Some(2));
    }

    #[test]
    fn shed_policy_drops_the_oldest() {
        let mut host = SessionHost::new(HostConfig {
            queue_capacity: 2,
            policy: QueuePolicy::ShedOldest,
            ..HostConfig::default()
        });
        let id = host.admit(session(14, 4));
        host.submit(id, Command::QueryCoverage { samples: 10 })
            .unwrap();
        host.submit(id, Command::Step).unwrap();
        // Capacity 2: this sheds the coverage query, keeps both steps.
        host.submit(id, Command::Step).unwrap();
        assert_eq!(host.stats().shed, 1);
        let results = host.tick();
        assert_eq!(results[0].1.len(), 2);
        assert!(results[0]
            .1
            .iter()
            .all(|r| matches!(r, Response::Stepped(_))));
    }

    #[test]
    fn tick_budget_limits_per_session_work() {
        let mut host = SessionHost::new(HostConfig {
            tick_budget: 1,
            ..HostConfig::default()
        });
        let id = host.admit(session(14, 5));
        host.submit(id, Command::Step).unwrap();
        host.submit(id, Command::Step).unwrap();
        assert_eq!(host.tick()[0].1.len(), 1);
        assert_eq!(host.queue_depth(id), Some(1));
        assert_eq!(host.tick()[0].1.len(), 1);
        assert_eq!(host.queue_depth(id), Some(0));
    }

    #[test]
    fn failed_commands_leave_sessions_untouched() {
        let mut host = SessionHost::new(HostConfig::default());
        let id = host.admit(session(14, 6));
        let before = host.session(id).unwrap().snapshot();
        host.submit(id, Command::ApplyEvent(NetworkEvent::SetK(999)))
            .unwrap();
        host.submit(
            id,
            Command::Displace(vec![(NodeId(0), laacad_geom::Point::new(9.0, 9.0))]),
        )
        .unwrap();
        let results = host.tick();
        assert!(matches!(results[0].1[0], Response::Failed(_)));
        assert!(matches!(results[0].1[1], Response::Failed(_)));
        assert_eq!(host.session(id).unwrap().snapshot(), before);
    }

    #[test]
    fn unknown_and_retired_sessions_refuse_commands() {
        let mut host = SessionHost::new(HostConfig::default());
        let id = host.admit(session(14, 9));
        assert_eq!(
            host.submit(SessionId(5), Command::Step).unwrap_err(),
            SubmitError::UnknownSession
        );
        let retired = host.retire(id).unwrap();
        assert_eq!(retired.rounds_executed(), 0);
        assert_eq!(
            host.submit(id, Command::Step).unwrap_err(),
            SubmitError::UnknownSession
        );
        assert_eq!(host.sessions_live(), 0);
    }
}
