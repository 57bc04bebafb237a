//! Versioned binary serialization of a session's primary state.
//!
//! [`Session::snapshot`] captures the state a LAACAD session actually
//! has: its configuration, the target area, the deployment (positions,
//! sensing radii, odometry), the round count, the convergence flag and
//! the run history. Each round of Algorithm 1 rebuilds every node's
//! k-order dominating region and Chebyshev centre from its neighbours'
//! current positions, so everything else the engine keeps is derived
//! from that state. [`SessionBuilder::restore`] decodes it and builds
//! the session through the same constructor as
//! [`SessionBuilder::build`], which validates it.
//!
//! # Format (`laacad-snapshot/3`)
//!
//! Hand-rolled little-endian binary, in the spirit of the byte-stable
//! telemetry JSONL schema: a magic/version line, fixed-order sections,
//! then an FNV-1a 64 checksum ([`fnv1a64`]) of everything before it.
//! Integers are `u64` LE, floats are `f64::to_bits` LE — so round-trips
//! are exact down to NaN payloads and signed zeros — booleans one byte,
//! `Option<T>` a one-byte tag followed by `T` when present. Sections, in
//! order: config, region (outer + hole vertex loops), network (retired
//! distance, positions, sensing radii, distances moved), round,
//! converged flag, and history (round reports + position snapshots).
//! The network's transmission range is the config's γ, so it is stored
//! once: a second copy could only disagree with the first.
//! Snapshot bytes depend only on that state: two sessions in the same
//! state snapshot to the same bytes, at any thread count.
//!
//! # What is deliberately not stored
//!
//! Everything the engine derives from the state and only keeps to skip
//! work: the stored per-node views and the pending movement set of the
//! dirty-node index, the adjacency snapshot, the per-worker local-view
//! caches, the spatial grid, the per-round scratch buffers and the work
//! counters ([`SessionCounters`](crate::SessionCounters)). Also left out:
//! the pending observer event log (drained at each `step`) and the
//! telemetry recorder (it never feeds back into results; callers
//! re-install one after restore). Storing the caches made a snapshot
//! 6–50× larger than the state (64 to 10⁵ nodes), and restore had to
//! trust them: a stored view that disagreed with its positions replayed
//! into wrong rounds.
//!
//! # Restore contract
//!
//! A restored session's positions, sensing radii, round reports,
//! history and convergence are **bit-identical** to the uninterrupted
//! run's, at every thread count and in both execution modes (pinned by
//! `tests/snapshot_roundtrip.rs`). Its first round is cold: it runs
//! `ring_searches = N`, `skipped_quiescent = 0` and `rho_changed = N`,
//! where the uninterrupted run may have skipped quiescent nodes. Its
//! work counters start at zero, as its recorder does.
//!
//! # Compatibility policy
//!
//! The version lives in the magic line. Readers accept exactly the
//! version they know; any layout change bumps the version. There is no
//! in-place migration — a checkpoint is only as durable as the binary
//! that wrote it. Buffers of the retired versions 1 and 2 (which also
//! stored the caches above) are refused with
//! [`SnapshotError::UnsupportedVersion`].

use crate::config::{CoordinateMode, ExecutionMode, LaacadConfig, RingCapPolicy};
use crate::history::{History, RoundReport};
use crate::session::{Session, SessionBuilder, SessionState};
use laacad_geom::polygon::signed_area;
use laacad_geom::{Point, Polygon};
use laacad_region::Region;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::ranging::RangingNoise;
use laacad_wsn::Network;

/// Magic/version line opening every snapshot.
pub const SNAPSHOT_MAGIC: &[u8] = b"laacad-snapshot/3\n";

/// The version-independent start of every snapshot's magic line.
const MAGIC_PREFIX: &[u8] = b"laacad-snapshot/";

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with a known magic/version line.
    BadMagic,
    /// The buffer is a snapshot of another format version (carried
    /// here); this reader only accepts [`SNAPSHOT_MAGIC`].
    UnsupportedVersion(u32),
    /// The buffer ended before the encoded state did.
    Truncated,
    /// Trailing bytes after the encoded state.
    TrailingBytes,
    /// The checksum does not match, or the bytes parsed but describe an
    /// impossible state.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a laacad-snapshot/3 buffer"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "laacad-snapshot/{v} is not readable (this build reads laacad-snapshot/3)"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// 64-bit FNV-1a: detects the flipped bits and torn writes a stored
/// snapshot or checkpoint can suffer (not an adversarial MAC). A
/// single changed byte always changes the hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
            None => self.u8(0),
        }
    }

    fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    fn points(&mut self, ps: &[Point]) {
        self.usize(ps.len());
        for &p in ps {
            self.point(p);
        }
    }

    fn messages(&mut self, m: MessageStats) {
        self.u64(m.unicast);
        self.u64(m.broadcast);
    }

    /// Seals the buffer with its checksum.
    fn finish(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.buf);
        self.u64(checksum);
        self.buf
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Checks the magic line and the checksum; the reader then covers
    /// the sections between them.
    fn new(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        if !buf.starts_with(SNAPSHOT_MAGIC) {
            return Err(match version(buf) {
                Some(v) => SnapshotError::UnsupportedVersion(v),
                None => SnapshotError::BadMagic,
            });
        }
        if buf.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (buf, checksum) = buf.split_at(buf.len() - 8);
        if fnv1a64(buf).to_le_bytes() != checksum {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(Reader {
            buf,
            pos: SNAPSHOT_MAGIC.len(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt("count overflows usize"))
    }

    /// A `usize` used as an element count: additionally bounded by the
    /// bytes remaining, so corrupt lengths fail cleanly instead of
    /// attempting a huge allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.saturating_mul(elem_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }

    fn point(&mut self) -> Result<Point, SnapshotError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    fn points(&mut self) -> Result<Vec<Point>, SnapshotError> {
        let n = self.count(16)?;
        (0..n).map(|_| self.point()).collect()
    }

    fn messages(&mut self) -> Result<MessageStats, SnapshotError> {
        Ok(MessageStats {
            unicast: self.u64()?,
            broadcast: self.u64()?,
        })
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(())
    }
}

fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

/// The version of a `laacad-snapshot/<v>` magic line, if `buf` starts
/// with one.
fn version(buf: &[u8]) -> Option<u32> {
    let rest = buf.strip_prefix(MAGIC_PREFIX)?;
    let line = &rest[..rest.iter().position(|&b| b == b'\n')?];
    std::str::from_utf8(line).ok()?.parse().ok()
}

// ---------------------------------------------------------------------
// Section encoders/decoders
// ---------------------------------------------------------------------

fn write_config(w: &mut Writer, c: &LaacadConfig) {
    w.usize(c.k);
    w.f64(c.alpha);
    w.f64(c.epsilon);
    w.f64(c.gamma);
    w.usize(c.max_rounds);
    w.opt_f64(c.max_rho);
    w.u8(match c.ring_cap {
        RingCapPolicy::Exact => 0,
        RingCapPolicy::AlwaysCap => 1,
    });
    w.usize(c.cap_vertices);
    match c.coordinates {
        CoordinateMode::Oracle => w.u8(0),
        CoordinateMode::Ranging(noise) => {
            w.u8(1);
            w.f64(noise.rel_sigma);
            w.f64(noise.abs_sigma);
        }
    }
    w.u8(match c.execution {
        ExecutionMode::Synchronous => 0,
        ExecutionMode::Sequential => 1,
    });
    w.opt_usize(c.snapshot_every);
    w.u64(c.seed);
    w.usize(c.threads);
}

fn read_config(r: &mut Reader) -> Result<LaacadConfig, SnapshotError> {
    let k = r.usize()?;
    let alpha = r.f64()?;
    let epsilon = r.f64()?;
    let gamma = r.f64()?;
    let max_rounds = r.usize()?;
    let max_rho = r.opt_f64()?;
    let ring_cap = match r.u8()? {
        0 => RingCapPolicy::Exact,
        1 => RingCapPolicy::AlwaysCap,
        b => return Err(corrupt(format!("bad ring_cap tag {b}"))),
    };
    let cap_vertices = r.usize()?;
    let coordinates = match r.u8()? {
        0 => CoordinateMode::Oracle,
        1 => CoordinateMode::Ranging(RangingNoise {
            rel_sigma: r.f64()?,
            abs_sigma: r.f64()?,
        }),
        b => return Err(corrupt(format!("bad coordinates tag {b}"))),
    };
    let execution = match r.u8()? {
        0 => ExecutionMode::Synchronous,
        1 => ExecutionMode::Sequential,
        b => return Err(corrupt(format!("bad execution tag {b}"))),
    };
    let snapshot_every = r.opt_usize()?;
    let seed = r.u64()?;
    let threads = r.usize()?;
    Ok(LaacadConfig {
        k,
        alpha,
        epsilon,
        gamma,
        max_rounds,
        max_rho,
        ring_cap,
        cap_vertices,
        coordinates,
        execution,
        snapshot_every,
        seed,
        threads,
    })
}

fn write_region(w: &mut Writer, region: &Region) {
    w.points(region.outer().vertices());
    w.usize(region.holes().len());
    for hole in region.holes() {
        w.points(hole.vertices());
    }
}

fn read_region(r: &mut Reader) -> Result<Region, SnapshotError> {
    let read_loop = |r: &mut Reader| -> Result<Polygon, SnapshotError> {
        let vs = r.points()?;
        if vs.len() < 3 {
            return Err(corrupt("polygon loop with fewer than 3 vertices"));
        }
        // The normalized-loop invariants `Polygon::from_normalized`
        // relies on: finite vertices, counter-clockwise, positive area.
        let normalized = vs.iter().all(|p| p.is_finite()) && signed_area(&vs) > laacad_geom::EPS;
        if !normalized {
            return Err(corrupt("polygon loop is not a normalized CCW loop"));
        }
        Ok(Polygon::from_normalized(vs))
    };
    let outer = read_loop(r)?;
    let holes = (0..r.count(3 * 16)?)
        .map(|_| read_loop(r))
        .collect::<Result<Vec<_>, _>>()?;
    // The triangulation and convex decomposition are recomputed here,
    // deterministically, from the exact same vertex loops the original
    // region was built from — so every downstream sampling/clipping
    // decision matches the uninterrupted session.
    Region::with_holes(outer, holes).map_err(|e| corrupt(format!("region rebuild failed: {e}")))
}

fn write_network(w: &mut Writer, net: &Network) {
    w.f64(net.retired_distance());
    w.points(net.positions());
    for &s in net.sensing_radii() {
        w.f64(s);
    }
    for &d in net.distances_moved() {
        w.f64(d);
    }
}

fn write_report(w: &mut Writer, rep: &RoundReport) {
    w.usize(rep.round);
    w.f64(rep.max_circumradius);
    w.f64(rep.min_circumradius);
    w.f64(rep.max_reach);
    w.f64(rep.max_displacement_to_target);
    w.usize(rep.nodes_moved);
    w.messages(rep.messages);
    w.bool(rep.converged);
}

fn read_report(r: &mut Reader) -> Result<RoundReport, SnapshotError> {
    Ok(RoundReport {
        round: r.usize()?,
        max_circumradius: r.f64()?,
        min_circumradius: r.f64()?,
        max_reach: r.f64()?,
        max_displacement_to_target: r.f64()?,
        nodes_moved: r.usize()?,
        messages: r.messages()?,
        converged: r.bool()?,
    })
}

// ---------------------------------------------------------------------
// Session entry points
// ---------------------------------------------------------------------

impl Session {
    /// Serializes the session's primary state into a
    /// `laacad-snapshot/3` buffer (see the [module docs](self)).
    ///
    /// The engine's caches and work counters, the installed telemetry
    /// [`Recorder`](laacad_telemetry::Recorder) and any event
    /// notifications pending for observers are *not* part of the
    /// snapshot; everything that determines future results is.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        write_config(&mut w, self.config());
        write_region(&mut w, self.region());
        write_network(&mut w, self.network());
        w.usize(self.rounds_executed());
        w.bool(self.is_converged());
        let history = self.history();
        w.usize(history.rounds().len());
        for rep in history.rounds() {
            write_report(&mut w, rep);
        }
        w.usize(history.snapshots().len());
        for (round, positions) in history.snapshots() {
            w.usize(*round);
            w.points(positions);
        }
        w.finish()
    }
}

impl SessionBuilder {
    /// Reconstructs a session from a [`Session::snapshot`] buffer.
    ///
    /// The state is validated and the session built exactly as
    /// [`SessionBuilder::build`] builds one, with cold caches and zero
    /// counters; its subsequent rounds are bit-identical to the
    /// uninterrupted original's. No recorder is installed — callers
    /// re-attach telemetry with [`Session::set_recorder`] if they want
    /// it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on unknown versions, a checksum mismatch,
    /// truncation, trailing bytes, or any decoded state that fails
    /// validation: non-finite or outside-region positions, negative or
    /// non-finite sensing radii or odometry, `k > N`, a round count that
    /// differs from the number of recorded rounds.
    pub fn restore(bytes: &[u8]) -> Result<Session, SnapshotError> {
        let mut r = Reader::new(bytes)?;
        let config = read_config(&mut r)?;
        let region = read_region(&mut r)?;
        let retired_distance = r.f64()?;
        let positions = r.points()?;
        let n = positions.len();
        let sensing_radii: Vec<f64> = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let distances_moved: Vec<f64> = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let round = r.usize()?;
        let converged = r.bool()?;
        let mut history = History::default();
        for _ in 0..r.count(8)? {
            history.push_round(read_report(&mut r)?);
        }
        for _ in 0..r.count(8)? {
            let round = r.usize()?;
            let positions = r.points()?;
            history.push_snapshot(round, positions);
        }
        r.finish()?;
        Session::from_state(SessionState {
            config,
            region,
            positions,
            sensing_radii,
            distances_moved,
            retired_distance,
            round,
            converged,
            history,
        })
        .map_err(|e| corrupt(format!("state rejected: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionCounters;
    use laacad_region::sampling::sample_uniform;

    fn session(n: usize, k: usize, seed: u64) -> Session {
        let region = Region::square(1.0).unwrap();
        let config = LaacadConfig::builder(k)
            .transmission_range(0.25)
            .alpha(0.6)
            .epsilon(1e-3)
            .max_rounds(120)
            .snapshot_every(10)
            .build()
            .unwrap();
        Session::builder(config)
            .positions(sample_uniform(&region, n, seed))
            .region(region)
            .build()
            .unwrap()
    }

    /// Replaces the trailing checksum of an edited buffer, so restore
    /// gets past it to the check under test.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 8);
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn snapshot_is_stable_and_restores() {
        let mut s = session(25, 2, 7);
        for _ in 0..5 {
            s.step();
        }
        let snap = s.snapshot();
        assert!(snap.starts_with(SNAPSHOT_MAGIC));
        // Snapshotting is read-only and deterministic.
        assert_eq!(snap, s.snapshot());
        let restored = SessionBuilder::restore(&snap).unwrap();
        assert_eq!(restored.rounds_executed(), s.rounds_executed());
        assert_eq!(restored.network().positions(), s.network().positions());
        // Work counters are not state: a restored session starts at zero.
        assert_eq!(restored.counters(), SessionCounters::default());
        assert_eq!(restored.history().rounds(), s.history().rounds());
        // And a restored session re-snapshots to the same bytes.
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restored_steps_match_uninterrupted() {
        let mut a = session(30, 2, 11);
        for _ in 0..4 {
            a.step();
        }
        let snap = a.snapshot();
        let mut b = SessionBuilder::restore(&snap).unwrap();
        for round in 0..6 {
            let (da, db) = (a.step(), b.step());
            assert_eq!(da.report, db.report);
            assert_eq!(da.moved, db.moved);
            assert_eq!(da.newly_converged, db.newly_converged);
            if round == 0 {
                // The restored session's first round is cold.
                let n = b.network().len();
                assert_eq!(
                    (db.ring_searches, db.skipped_quiescent, db.rho_changed),
                    (n, 0, n)
                );
            }
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn rejects_bad_magic_truncation_and_trailing() {
        let mut s = session(10, 1, 3);
        s.step();
        let snap = s.snapshot();
        assert_eq!(
            SessionBuilder::restore(b"not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        // An unsealed edit fails the checksum ...
        assert!(matches!(
            SessionBuilder::restore(&snap[..snap.len() - 3]).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // ... a resealed one reaches the structural checks.
        let mut short = snap[..snap.len() - 8].to_vec();
        short.truncate(short.len() - 3);
        short.extend_from_slice(&[0; 8]);
        assert_eq!(
            SessionBuilder::restore(&reseal(short)).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut long = snap[..snap.len() - 8].to_vec();
        long.extend_from_slice(&[0; 9]);
        assert_eq!(
            SessionBuilder::restore(&reseal(long)).unwrap_err(),
            SnapshotError::TrailingBytes
        );
    }

    #[test]
    fn rejects_corrupt_state() {
        let mut s = session(10, 1, 3);
        s.step();
        let mut snap = s.snapshot();
        // Set the k field (first u64 after the magic) to zero — an
        // invalid coverage degree.
        let at = SNAPSHOT_MAGIC.len();
        snap[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        match SessionBuilder::restore(&reseal(snap)).unwrap_err() {
            SnapshotError::Corrupt(why) => assert!(why.contains("k=0"), "{why}"),
            other => panic!("decoded with {other:?}"),
        }
    }
}
