//! The host scheduler at fleet scale: 64 concurrent sessions, bounded
//! queues under both backpressure policies, mid-run retirements — and
//! the headline guarantee, **determinism**: one command script gives
//! the same responses and session snapshots byte for byte, run after
//! run and at any thread count.

use laacad::{LaacadConfig, NetworkEvent, Session};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_serve::{
    Command, HostConfig, HostStats, QueuePolicy, Response, SessionHost, SessionId, SubmitError,
};
use laacad_wsn::NodeId;

fn session(n: usize, k: usize, seed: u64) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(200)
        .seed(seed)
        .build()
        .unwrap();
    Session::builder(config)
        .region(region.clone())
        .positions(sample_uniform(&region, n, seed))
        .build()
        .unwrap()
}

/// A tiny deterministic stream (SplitMix64) to vary the command mix
/// without any time- or thread-dependent input.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn command(mix: &mut Mix) -> Command {
    match mix.next() % 8 {
        0 => Command::Displace(vec![(
            NodeId(0),
            Point::new(
                (mix.next() % 1000) as f64 / 1000.0,
                (mix.next() % 1000) as f64 / 1000.0,
            ),
        )]),
        1 => Command::QueryCoverage { samples: 200 },
        2 => Command::ApplyEvent(NetworkEvent::InsertNodes(vec![Point::new(
            (mix.next() % 1000) as f64 / 1000.0,
            (mix.next() % 1000) as f64 / 1000.0,
        )])),
        3 => Command::Snapshot,
        _ => Command::Step,
    }
}

/// Everything a host run yields: every tick's responses, the lifetime
/// totals and each session's final snapshot (`None` once retired).
#[derive(Debug, PartialEq)]
struct Run {
    ticks: Vec<Vec<(SessionId, Vec<Response>)>>,
    stats: HostStats,
    snapshots: Vec<Option<Vec<u8>>>,
}

/// Runs one seeded command script on a fresh host: 64 sessions, bursts
/// deeper than a 4-command queue with interleaved ticks, two
/// retirements mid-run, then ticks until every accepted command ran.
fn run_script(policy: QueuePolicy, threads: usize) -> Run {
    let mut host = SessionHost::new(HostConfig {
        queue_capacity: 4,
        policy,
        tick_budget: 2,
        threads,
    });
    let ids: Vec<SessionId> = (0..64)
        .map(|i| host.admit(session(10 + i % 5, 1 + i % 3, 9_000 + i as u64)))
        .collect();
    assert_eq!(host.sessions_live(), 64);
    let mut mix = Mix(42);
    let mut ticks = Vec::new();
    for round in 0..12u64 {
        for &id in &ids {
            if host.session(id).is_none() {
                continue;
            }
            let burst = 1 + (mix.next() % 6) as usize;
            for _ in 0..burst {
                // A refusal under `Reject` is counted in the stats.
                let _ = host.submit(id, command(&mut mix));
            }
        }
        ticks.push(host.tick());
        if round == 5 {
            host.retire(ids[7]).unwrap();
            host.retire(ids[33]).unwrap();
        }
    }
    // Drain what's left so the final states depend on every submission.
    while host.stats().executed < host.stats().accepted - host.stats().shed {
        ticks.push(host.tick());
    }
    Run {
        ticks,
        stats: host.stats(),
        snapshots: ids
            .iter()
            .map(|&id| host.session(id).map(Session::snapshot))
            .collect(),
    }
}

/// The same script twice, and at 1 and 2 worker threads, gives the same
/// responses, totals and snapshots byte for byte.
fn assert_deterministic(policy: QueuePolicy) -> Run {
    let run = run_script(policy, 1);
    assert_eq!(run, run_script(policy, 1), "{policy:?}: a rerun diverged");
    assert_eq!(
        run,
        run_script(policy, 2),
        "{policy:?}: 2 threads diverged from 1"
    );
    assert_eq!(run.stats.admitted, 64);
    assert_eq!(run.stats.retired, 2);
    assert_eq!(run.snapshots.iter().flatten().count(), 62);
    run
}

#[test]
fn shed_oldest_overload_is_deterministic_across_runs_and_threads() {
    let run = assert_deterministic(QueuePolicy::ShedOldest);
    assert!(
        run.stats.shed > 0,
        "the burst load never overflowed a queue"
    );
    assert_eq!(run.stats.rejected, 0);
}

#[test]
fn reject_policy_surfaces_backpressure_deterministically() {
    let config = HostConfig {
        queue_capacity: 2,
        policy: QueuePolicy::Reject,
        tick_budget: 0,
        threads: 1,
    };
    let mut host = SessionHost::new(config);
    let id = host.admit(session(12, 1, 7));
    host.submit(id, Command::Step).unwrap();
    host.submit(id, Command::Step).unwrap();
    assert_eq!(
        host.submit(id, Command::Step),
        Err(SubmitError::QueueFull),
        "a full queue under Reject must push back"
    );
    assert_eq!(host.queue_depth(id), Some(2));
    let results = host.tick();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].1.len(), 2, "tick_budget 0 drains the queue");
    assert!(matches!(results[0].1[0], Response::Stepped(_)));
    assert_eq!(host.stats().rejected, 1);

    // Under overload, refusals are part of the deterministic run.
    let run = assert_deterministic(QueuePolicy::Reject);
    assert!(
        run.stats.rejected > 0,
        "the burst load never filled a queue"
    );
}
