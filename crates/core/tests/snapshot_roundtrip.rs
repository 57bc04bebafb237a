//! Property test: `laacad-snapshot/2` round-trips are invisible.
//!
//! For both execution schedules (synchronous vs sequential) at 1 or 4
//! worker threads, random populations and a random checkpoint offset, a
//! session snapshotted mid-run and restored must (a) re-serialize to the
//! identical bytes and (b) step forward bit-identically to the
//! uninterrupted original — positions, per-round reports, convergence
//! state.
//!
//! At `threads = 4` the cross-round cache *statistics* depend on atomic
//! work claiming and are excluded (the positions and reports stay exact;
//! that is the engine's documented determinism discipline).
//!
//! The decoder is also an input boundary: every single-byte flip and
//! every truncation of a small session's snapshot must come back as
//! `Ok` or a typed `SnapshotError`, never a panic, and adjacency rows
//! the move patch could not trust (asymmetric, self-listing, unsorted)
//! are refused as corrupt.

use laacad::{ExecutionMode, LaacadConfig, Session, SessionBuilder, SnapshotError, SNAPSHOT_MAGIC};
use laacad_geom::Point;
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
        prop_assert_eq!(original.history().rounds(), restored.history().rounds());
        if threads == 1 {
            // With one worker even the cache statistics and per-worker
            // cache contents are deterministic: full byte-identity.
            prop_assert_eq!(original.snapshot(), restored.snapshot());
        }
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
            // Either outcome is fine; reaching the next iteration proves
            // the decoder did not panic.
            let _ = SessionBuilder::restore(&bytes);
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

/// A 6-node path `0 – 1 – … – 5` (spacing 0.15, γ = 0.2) stepped
/// once: the stored adjacency is the path at the initial positions.
fn path_session() -> Session {
    let config = LaacadConfig::builder(1)
        .transmission_range(0.2)
        .alpha(0.6)
        .epsilon(1e-3)
        .seed(5)
        .build()
        .unwrap();
    let mut sim = Session::builder(config)
        .region(Region::square(1.0).unwrap())
        .positions(
            (0..6)
                .map(|i| Point::new(0.1 + 0.15 * i as f64, 0.5))
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    sim.step();
    sim
}

/// The CSR section of a snapshot: offsets and neighbors, each preceded
/// by its `u64` count.
fn csr_bytes(offsets: &[u32], neighbors: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    for part in [offsets, neighbors] {
        out.extend_from_slice(&(part.len() as u64).to_le_bytes());
        for &x in part {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// The move patch trusts the stored rows, so restore refuses adjacency
/// that breaks its invariants: an asymmetric edge, a row listing its
/// own node, or a row that is not strictly ascending.
#[test]
fn adjacency_breaking_patch_invariants_is_refused() {
    let snap = path_session().snapshot();
    let offsets = [0, 1, 3, 5, 7, 9, 10];
    let path = [1, 0, 2, 1, 3, 2, 4, 3, 5, 4];
    let stored = csr_bytes(&offsets, &path);
    let at = snap
        .windows(stored.len())
        .position(|w| w == stored.as_slice())
        .expect("snapshot stores the path adjacency");
    assert!(SessionBuilder::restore(&snap).is_ok());
    for (rows, why) in [
        ([2, 0, 2, 1, 3, 2, 4, 3, 5, 4], "asymmetric"),
        ([0, 0, 2, 1, 3, 2, 4, 3, 5, 4], "own node"),
        ([1, 2, 0, 1, 3, 2, 4, 3, 5, 4], "ascending"),
    ] {
        let mut bytes = snap.clone();
        bytes[at..at + stored.len()].copy_from_slice(&csr_bytes(&offsets, &rows));
        match SessionBuilder::restore(&bytes).err() {
            Some(SnapshotError::Corrupt(msg)) => assert!(msg.contains(why), "{why}: {msg}"),
            other => panic!("{why}: decoded with {other:?}"),
        }
    }
}

#[test]
fn version_1_snapshots_are_refused() {
    let mut sim = session(6, 1, 3, ExecutionMode::Synchronous, 1);
    sim.step();
    let snap = sim.snapshot();
    assert!(snap.starts_with(SNAPSHOT_MAGIC));
    let mut v1 = b"laacad-snapshot/1\n".to_vec();
    v1.extend_from_slice(&snap[SNAPSHOT_MAGIC.len()..]);
    assert_eq!(
        SessionBuilder::restore(&v1).unwrap_err(),
        SnapshotError::UnsupportedVersion(1)
    );
}
