//! Property test: `laacad-snapshot/4` round-trips are invisible.
//!
//! For both execution schedules (synchronous vs sequential) at 1 or 4
//! worker threads, random populations and a random checkpoint offset, a
//! session snapshotted mid-run and restored must (a) re-serialize to the
//! identical bytes and (b) step forward bit-identically to the
//! uninterrupted original — positions, per-round reports, convergence
//! state, run summary — and (c) snapshot to the same bytes as the original at the
//! end: snapshot bytes depend only on state, never on caches or
//! counters.
//!
//! The decoder is also an input boundary: every single-byte flip and
//! every truncation of a small session's snapshot is refused with a
//! typed `SnapshotError`, never a panic, and a buffer with a valid
//! checksum but impossible state (non-finite or outside-region
//! positions, negative or non-finite radii or odometry) is refused as
//! corrupt rather than restored into wrong or panicking rounds.

use laacad::{
    fnv1a64, ExecutionMode, LaacadConfig, Session, SessionBuilder, SnapshotError, SNAPSHOT_MAGIC,
};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use proptest::prelude::*;

fn session(n: usize, k: usize, seed: u64, execution: ExecutionMode, threads: usize) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(60)
        .execution(execution)
        .threads(threads)
        .seed(seed)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, n, seed);
    Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap()
}

fn position_bits(sim: &Session) -> Vec<(u64, u64)> {
    sim.network()
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn restored_sessions_step_bit_identically(
        mode in 0u8..4,
        n in 10usize..28,
        k in 1usize..4,
        seed in 0u64..1_000_000,
        offset in 0usize..12,
        extra in 1usize..10,
    ) {
        let execution = if mode & 1 != 0 {
            ExecutionMode::Sequential
        } else {
            ExecutionMode::Synchronous
        };
        let threads = if mode & 2 != 0 { 4 } else { 1 };
        let mut original = session(n, k, seed, execution, threads);
        for _ in 0..offset {
            if original.is_converged() {
                break;
            }
            original.step();
        }

        let snap = original.snapshot();
        let mut restored = SessionBuilder::restore(&snap).unwrap();
        prop_assert_eq!(
            &snap,
            &restored.snapshot(),
            "restore → snapshot must reproduce the buffer verbatim"
        );

        for _ in 0..extra {
            if original.is_converged() {
                break;
            }
            let da = original.step();
            let db = restored.step();
            prop_assert_eq!(&da.report, &db.report);
        }

        prop_assert_eq!(position_bits(&original), position_bits(&restored));
        prop_assert_eq!(original.rounds_executed(), restored.rounds_executed());
        prop_assert_eq!(original.is_converged(), restored.is_converged());
        prop_assert_eq!(original.summarize(), restored.summarize());
        prop_assert_eq!(original.snapshot(), restored.snapshot());
    }
}

#[test]
fn corrupt_and_truncated_snapshots_never_panic() {
    let mut sim = session(6, 2, 11, ExecutionMode::Synchronous, 1);
    sim.step();
    sim.step();
    let snap = sim.snapshot();
    for at in 0..snap.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bytes = snap.clone();
            bytes[at] ^= flip;
            assert!(
                SessionBuilder::restore(&bytes).is_err(),
                "byte {at} ^ {flip:#04x} restored"
            );
        }
    }
    for len in 0..snap.len() {
        assert!(
            SessionBuilder::restore(&snap[..len]).is_err(),
            "a {len}-byte prefix of a {}-byte snapshot restored",
            snap.len()
        );
    }
}

#[test]
fn version_1_snapshots_are_refused() {
    let mut sim = session(6, 1, 3, ExecutionMode::Synchronous, 1);
    sim.step();
    let snap = sim.snapshot();
    assert!(snap.starts_with(SNAPSHOT_MAGIC));
    for v in [1, 2, 3] {
        let mut old = format!("laacad-snapshot/{v}\n").into_bytes();
        old.extend_from_slice(&snap[SNAPSHOT_MAGIC.len()..]);
        assert_eq!(
            SessionBuilder::restore(&reseal(old)).unwrap_err(),
            SnapshotError::UnsupportedVersion(v)
        );
    }
}

/// Replaces the trailing checksum of an edited snapshot, so restore
/// gets past it to the state checks.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes.truncate(bytes.len() - 8);
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Byte offsets, in `sim`'s snapshot, of the retired distance and of
/// node `i`'s x coordinate, sensing radius and distance moved: the
/// network section stores the retired distance, the position count,
/// then all positions, all radii and all distances.
fn network_fields(snap: &[u8], sim: &Session, i: usize) -> [usize; 4] {
    let p = sim.network().positions()[0];
    let mut first = p.x.to_bits().to_le_bytes().to_vec();
    first.extend_from_slice(&p.y.to_bits().to_le_bytes());
    let at = snap
        .windows(16)
        .position(|w| w == first.as_slice())
        .expect("snapshot stores node 0's position");
    let n = sim.network().len();
    [
        at - 16,
        at + 16 * i,
        at + 16 * n + 8 * i,
        at + 24 * n + 8 * i,
    ]
}

/// State a valid checksum cannot vouch for: each edit restored `Ok`
/// in the format that trusted it, and then panicked (`∞`), spent every
/// round unconverged (NaN, outside the region), finalized wrong radii
/// or summarized a NaN distance moved.
#[test]
fn impossible_state_is_refused() {
    let mut sim = session(12, 2, 5, ExecutionMode::Synchronous, 1);
    for _ in 0..3 {
        sim.step();
    }
    let snap = sim.snapshot();
    assert!(SessionBuilder::restore(&snap).is_ok());
    let [retired, pos, radius, moved] = network_fields(&snap, &sim, 4);
    assert_eq!(
        &snap[radius..radius + 8],
        &sim.network().sensing_radii()[4].to_bits().to_le_bytes()
    );
    assert_eq!(
        &snap[retired..retired + 8],
        &sim.network().retired_distance().to_bits().to_le_bytes()
    );
    for (at, value, why) in [
        (pos, f64::INFINITY, "node 4 lies outside the target area"),
        (pos, f64::NAN, "node 4 lies outside the target area"),
        (pos, 50.0, "node 4 lies outside the target area"),
        (radius, -0.1, "sensing radius of node 4"),
        (radius, f64::NAN, "sensing radius of node 4"),
        (moved, -1.0, "distance moved of node 4"),
        (retired, f64::NAN, "retired distance"),
    ] {
        let mut bytes = snap.clone();
        bytes[at..at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        match SessionBuilder::restore(&reseal(bytes)).err() {
            Some(SnapshotError::Corrupt(msg)) => assert!(msg.contains(why), "{value}: {msg}"),
            other => panic!("{value} ({why}): decoded with {other:?}"),
        }
    }
    // The running totals follow the distances moved: the round count,
    // the converged flag and the summed messages, then the checksum.
    let round = network_fields(&snap, &sim, 0)[1] + 32 * sim.network().len();
    assert_eq!(&snap[round..round + 8], &3u64.to_le_bytes());
    let converged = round + 8;
    assert_eq!(snap[converged], u8::from(sim.is_converged()));
    let messages = sim.summarize().messages;
    assert_eq!(
        &snap[converged + 1..converged + 17],
        [messages.unicast, messages.broadcast]
            .map(u64::to_le_bytes)
            .concat()
    );
    assert_eq!(snap.len(), converged + 25);
    let mut bytes = snap.clone();
    bytes[converged] = 2;
    match SessionBuilder::restore(&reseal(bytes)).err() {
        Some(SnapshotError::Corrupt(msg)) => assert!(msg.contains("bool"), "{msg}"),
        other => panic!("a converged flag of 2 decoded with {other:?}"),
    }
}

/// A snapshot is state only: 32 bytes per node (position, sensing
/// radius, distance moved), plus a few hundred bytes of config, region,
/// running totals and framing — no per-node view, adjacency or cache
/// bytes, and nothing per round.
#[test]
fn snapshot_holds_only_primary_state() {
    let mut sim = session(64, 1, 7, ExecutionMode::Synchronous, 1);
    let built = sim.snapshot().len();
    while !sim.is_converged() && sim.rounds_executed() < 60 {
        sim.step();
    }
    let len = sim.snapshot().len();
    let state = 32 * sim.network().len();
    assert!(
        (state..state + 300).contains(&len),
        "{len} bytes for {state} bytes of node state"
    );
    assert_eq!(len, built, "the snapshot grew with the round count");
}
