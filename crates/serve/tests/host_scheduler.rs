//! The host scheduler at fleet scale: 64 concurrent sessions, bounded
//! queues under both backpressure policies, mid-run retirements — and
//! the headline guarantee, **byte-for-byte replay** of the whole run
//! from the command log alone.

use laacad::{LaacadConfig, NetworkEvent, Session};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_serve::{
    Command, HostConfig, LogEntry, QueuePolicy, ReplayError, Response, SessionHost, SessionId,
    SubmitError,
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

#[test]
fn sixty_four_sessions_replay_byte_for_byte() {
    let config = HostConfig {
        queue_capacity: 4,
        policy: QueuePolicy::ShedOldest,
        tick_budget: 2,
        threads: 0,
    };
    let mut host = SessionHost::new(config);
    let ids: Vec<SessionId> = (0..64)
        .map(|i| host.admit(session(10 + i % 5, 1 + i % 3, 9_000 + i as u64)))
        .collect();
    assert_eq!(host.sessions_live(), 64);

    // A varied, overloaded run: bursts deeper than the queue bound (so
    // ShedOldest fires), interleaved ticks, and mid-run retirements.
    let mut mix = Mix(42);
    for round in 0..12u64 {
        for &id in &ids {
            if host.session(id).is_none() {
                continue;
            }
            let burst = 1 + (mix.next() % 6) as usize;
            for _ in 0..burst {
                host.submit(id, command(&mut mix)).unwrap();
            }
        }
        host.tick();
        if round == 5 {
            host.retire(ids[7]).unwrap();
            host.retire(ids[33]).unwrap();
        }
    }
    // Drain what's left so the final states depend on every submission.
    while host.stats().executed < host.stats().accepted - host.stats().shed {
        host.tick();
    }
    let stats = host.stats();
    assert!(stats.shed > 0, "the burst load never overflowed a queue");
    assert_eq!(stats.admitted, 64);
    assert_eq!(stats.retired, 2);
    assert_eq!(stats.rejected, 0);

    let replayed = SessionHost::replay(host.log()).expect("log replays");
    assert_eq!(replayed.stats(), stats);
    assert_eq!(replayed.log(), host.log(), "replay log must equal input");
    for &id in &ids {
        match (host.session(id), replayed.session(id)) {
            (Some(a), Some(b)) => {
                assert_eq!(a.snapshot(), b.snapshot(), "{id} diverged under replay")
            }
            (None, None) => {}
            _ => panic!("{id} live-ness diverged under replay"),
        }
    }
}

#[test]
fn reject_policy_surfaces_backpressure_and_still_replays() {
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

    // Rejected commands never entered the run, so the log replays
    // without them — to the same session bytes.
    let replayed = SessionHost::replay(host.log()).expect("log replays");
    assert_eq!(
        host.session(id).unwrap().snapshot(),
        replayed.session(id).unwrap().snapshot()
    );
    assert_eq!(replayed.stats().rejected, 0);
}

/// A replay log is an input boundary: a damaged admission snapshot, a
/// dropped, duplicated or reordered entry, and a submission or
/// retirement naming a session that does not exist (out of range, or
/// already retired) each replay to `Ok` or a typed `ReplayError` —
/// never a panic.
#[test]
fn mutated_logs_replay_or_fail_typed() {
    let config = HostConfig {
        queue_capacity: 3,
        policy: QueuePolicy::ShedOldest,
        tick_budget: 2,
        threads: 1,
    };
    let mut host = SessionHost::new(config);
    let ids: Vec<SessionId> = (0..4)
        .map(|i| host.admit(session(8 + i, 1 + i % 2, 500 + i as u64)))
        .collect();
    let mut mix = Mix(7);
    for round in 0..5 {
        for &id in &ids {
            if host.session(id).is_some() {
                for _ in 0..1 + mix.next() % 3 {
                    host.submit(id, command(&mut mix)).unwrap();
                }
            }
        }
        host.tick();
        if round == 2 {
            host.retire(ids[1]).unwrap();
        }
    }
    let log = host.log().clone();
    assert!(SessionHost::replay(&log).is_ok());
    let entries = log.entries.len();
    let with = |edit: &dyn Fn(&mut Vec<LogEntry>)| {
        let mut mutated = log.clone();
        edit(&mut mutated.entries);
        SessionHost::replay(&mutated).map(|_| ())
    };

    // Every damaged admission snapshot fails its checksum.
    for (i, entry) in log.entries.iter().enumerate() {
        let LogEntry::Admit { snapshot } = entry else {
            continue;
        };
        for at in (0..snapshot.len()).step_by(5) {
            for flip in [0x01u8, 0x80, 0xFF] {
                let result = with(&|e| {
                    if let LogEntry::Admit { snapshot } = &mut e[i] {
                        snapshot[at] ^= flip;
                    }
                });
                assert!(
                    matches!(result, Err(ReplayError::Snapshot(_))),
                    "entry {i} byte {at} ^ {flip:#04x}: {result:?}"
                );
            }
        }
    }
    // Dropped, duplicated and swapped entries: either outcome is fine;
    // reaching the next iteration proves replay did not panic.
    for i in 0..entries {
        let _ = with(&|e| {
            e.remove(i);
        });
        let _ = with(&|e| e.insert(i, e[i].clone()));
        if i + 1 < entries {
            let _ = with(&|e| e.swap(i, i + 1));
        }
    }
    // Entries naming sessions the replaying host does not have.
    let missing = |result: Result<(), ReplayError>| {
        matches!(
            result,
            Err(ReplayError::Submit(SubmitError::UnknownSession) | ReplayError::UnknownSession(_))
        )
    };
    for id in [SessionId(ids.len()), SessionId(usize::MAX), ids[1]] {
        assert!(missing(with(&|e| e.push(LogEntry::Submit {
            session: id,
            command: Command::Step,
        }))));
        assert!(missing(with(&|e| e.push(LogEntry::Retire { session: id }))));
    }
}
