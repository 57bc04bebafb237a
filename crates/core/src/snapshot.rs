//! Versioned binary serialization of the full engine state.
//!
//! [`Session::snapshot`] captures *everything* the round engine's future
//! behavior depends on — configuration, target area, the network's
//! struct-of-arrays vectors, the adjacency snapshot and its staleness
//! state, the dirty-node index inputs (stored views, validity flag, the
//! pending movement set), cumulative counters, the run history, and the
//! per-worker cross-round local-view caches — so that
//! [`SessionBuilder::restore`] reconstructs a session whose subsequent
//! rounds are **bit-identical** to the uninterrupted run, at any thread
//! count and either execution mode (pinned by `tests/snapshot_roundtrip.rs`).
//!
//! # Format (`laacad-snapshot/2`)
//!
//! Hand-rolled little-endian binary, in the spirit of the byte-stable
//! telemetry JSONL schema: a magic/version line followed by fixed-order
//! sections. Integers are `u64` LE (`u32` LE inside CSR arrays), floats
//! are `f64::to_bits` LE — so round-trips are exact down to NaN
//! payloads and signed zeros — booleans one byte, `Option<T>` a one-byte
//! tag followed by `T` when present. Sections, in order: config, region
//! (outer + hole vertex loops), network SoA, round/flags, stored views,
//! pending movers, adjacency (state tag + CSR), counters, history
//! (round reports + position snapshots), and per-worker cache entries.
//!
//! What is deliberately *not* serialized: spatial-grid internals (the
//! index is rebuilt deterministically from positions; query results are
//! layout-independent), every per-round scratch buffer (epoch-stamped
//! or fully reset before use), the pending observer event log (drained
//! at each `step`), and the telemetry recorder (an installed recorder
//! never feeds back into results; callers re-install one after restore).
//!
//! # Compatibility policy
//!
//! The version lives in the magic line. Readers accept exactly the
//! versions they know; any layout change bumps the version. There is no
//! in-place migration — a checkpoint is only as durable as the binary
//! that wrote it plus any binary that still carries its reader. Version 2
//! dropped version 1's engine-knob byte (config section) and spatial-grid
//! preference byte (network section); a version 1 buffer is refused with
//! [`SnapshotError::UnsupportedVersion`].

use crate::config::{CoordinateMode, ExecutionMode, LaacadConfig, RingCapPolicy};
use crate::history::{History, RoundReport};
use crate::localview::NodeView;
use crate::scratch::{CacheEntry, LocalViewCache, RoundScratch};
use crate::session::{AdjacencyState, MovedNode, Session, SessionBuilder, SessionCounters};
use laacad_geom::polygon::signed_area;
use laacad_geom::{Circle, Point, Polygon};
use laacad_region::Region;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::ranging::RangingNoise;
use laacad_wsn::{Adjacency, Network, NodeId};

/// Magic/version line opening every snapshot.
pub const SNAPSHOT_MAGIC: &[u8] = b"laacad-snapshot/2\n";

/// Magic/version line of the retired version 1 format.
const SNAPSHOT_MAGIC_V1: &[u8] = b"laacad-snapshot/1\n";

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with a known magic/version line.
    BadMagic,
    /// The buffer is a snapshot of a retired format version (carried
    /// here); this reader only accepts [`SNAPSHOT_MAGIC`].
    UnsupportedVersion(u32),
    /// The buffer ended before the encoded state did.
    Truncated,
    /// Trailing bytes after the encoded state.
    TrailingBytes,
    /// The bytes parsed but describe an impossible state.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a laacad-snapshot/2 buffer"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "laacad-snapshot/{v} is no longer readable (this build reads laacad-snapshot/2)"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

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

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
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

    fn opt_circle(&mut self, c: Option<Circle>) {
        match c {
            Some(c) => {
                self.u8(1);
                self.point(c.center);
                self.f64(c.radius);
            }
            None => self.u8(0),
        }
    }

    fn messages(&mut self, m: MessageStats) {
        self.u64(m.unicast);
        self.u64(m.broadcast);
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
    fn new(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        if buf.starts_with(SNAPSHOT_MAGIC_V1) {
            return Err(SnapshotError::UnsupportedVersion(1));
        }
        if !buf.starts_with(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic);
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

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
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

    fn opt_circle(&mut self) -> Result<Option<Circle>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let center = self.point()?;
                let radius = self.f64()?;
                Ok(Some(Circle { center, radius }))
            }
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
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

/// Validates a decoded adjacency CSR: well-formed offsets, and rows
/// that are strictly ascending, free of their own node, and symmetric
/// (`j` in row `i` iff `i` in row `j`). The move patch
/// ([`Adjacency::apply_moves`]) trusts every one of these.
fn check_adjacency_csr(offsets: &[u32], neighbors: &[u32]) -> Result<(), SnapshotError> {
    if offsets.is_empty() {
        return if neighbors.is_empty() {
            Ok(())
        } else {
            Err(corrupt("adjacency neighbors without offsets"))
        };
    }
    let rows = offsets.len() - 1;
    let well_formed = offsets[0] == 0
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && *offsets.last().unwrap() as usize == neighbors.len()
        && neighbors.iter().all(|&x| (x as usize) < rows);
    if !well_formed {
        return Err(corrupt("malformed adjacency CSR"));
    }
    let row = |i: usize| &neighbors[offsets[i] as usize..offsets[i + 1] as usize];
    for i in 0..rows {
        let r = row(i);
        if !r.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt(format!("adjacency row {i} not strictly ascending")));
        }
        if r.binary_search(&(i as u32)).is_ok() {
            return Err(corrupt(format!("adjacency row {i} lists its own node")));
        }
        if let Some(&j) = r
            .iter()
            .find(|&&j| row(j as usize).binary_search(&(i as u32)).is_err())
        {
            return Err(corrupt(format!("asymmetric adjacency edge {i} -> {j}")));
        }
    }
    Ok(())
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
    w.f64(net.gamma());
    w.f64(net.retired_distance());
    w.points(net.positions());
    for &s in net.sensing_radii() {
        w.f64(s);
    }
    for &d in net.distances_moved() {
        w.f64(d);
    }
}

fn read_network(r: &mut Reader) -> Result<Network, SnapshotError> {
    let gamma = r.f64()?;
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(corrupt(format!("invalid gamma {gamma}")));
    }
    let retired = r.f64()?;
    let positions = r.points()?;
    let n = positions.len();
    let sensing: Vec<f64> = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let moved: Vec<f64> = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
    Ok(Network::from_parts(
        gamma, positions, sensing, moved, retired,
    ))
}

fn write_view(w: &mut Writer, v: &NodeView) {
    w.f64(v.rho);
    w.usize(v.rho_stages);
    w.bool(v.dominated);
    w.bool(v.saturated);
    w.messages(v.messages);
    w.opt_circle(v.chebyshev);
    w.f64(v.reach);
    w.f64(v.contact_radius);
    w.bool(v.cache_hit);
}

fn read_view(r: &mut Reader) -> Result<NodeView, SnapshotError> {
    Ok(NodeView {
        rho: r.f64()?,
        rho_stages: r.usize()?,
        dominated: r.bool()?,
        saturated: r.bool()?,
        messages: r.messages()?,
        chebyshev: r.opt_circle()?,
        reach: r.f64()?,
        contact_radius: r.f64()?,
        cache_hit: r.bool()?,
    })
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

fn write_cache_entry(w: &mut Writer, e: &CacheEntry) {
    w.bool(e.valid);
    w.usize(e.k);
    w.point(e.self_pos);
    w.f64(e.rho);
    w.bool(e.dominated);
    w.usize(e.member_ids.len());
    for &id in &e.member_ids {
        w.usize(id);
    }
    w.points(&e.member_pos);
    w.opt_circle(e.chebyshev);
    w.f64(e.reach);
}

fn read_cache_entry(r: &mut Reader) -> Result<CacheEntry, SnapshotError> {
    let valid = r.bool()?;
    let k = r.usize()?;
    let self_pos = r.point()?;
    let rho = r.f64()?;
    let dominated = r.bool()?;
    let member_ids: Vec<usize> = (0..r.count(8)?)
        .map(|_| r.usize())
        .collect::<Result<_, _>>()?;
    let member_pos = r.points()?;
    let chebyshev = r.opt_circle()?;
    let reach = r.f64()?;
    Ok(CacheEntry {
        valid,
        k,
        self_pos,
        rho,
        dominated,
        member_ids,
        member_pos,
        chebyshev,
        reach,
    })
}

// ---------------------------------------------------------------------
// Session entry points
// ---------------------------------------------------------------------

impl Session {
    /// Serializes the full engine state into a `laacad-snapshot/2`
    /// buffer (see the [module docs](self)).
    ///
    /// The installed telemetry [`Recorder`](laacad_telemetry::Recorder)
    /// and any event notifications pending for observers are *not* part
    /// of the snapshot; everything that determines future results is.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        write_config(&mut w, &self.config);
        write_region(&mut w, &self.region);
        write_network(&mut w, &self.net);
        w.usize(self.round);
        w.bool(self.converged);
        w.bool(self.views_valid);
        w.usize(self.views.len());
        for v in &self.views {
            write_view(&mut w, v);
        }
        w.usize(self.last_movers.len());
        for m in &self.last_movers {
            w.usize(m.id.index());
            w.point(m.from);
            w.point(m.to);
        }
        w.u8(match self.adjacency_state {
            AdjacencyState::Fresh => 0,
            AdjacencyState::StaleMoves => 1,
            AdjacencyState::StaleFull => 2,
        });
        let (offsets, neighbors) = self.adjacency.csr();
        w.usize(offsets.len());
        for o in offsets {
            w.u32(o);
        }
        w.usize(neighbors.len());
        for x in neighbors {
            w.u32(x);
        }
        let c = self.counters;
        for v in [
            c.ring_searches,
            c.skipped_quiescent,
            c.cache_hits,
            c.cache_misses,
            c.adjacency_rebuilds,
            c.adjacency_incremental_updates,
            c.warm_started,
        ] {
            w.u64(v);
        }
        w.usize(self.history.rounds().len());
        for rep in self.history.rounds() {
            write_report(&mut w, rep);
        }
        w.usize(self.history.snapshots().len());
        for (round, positions) in self.history.snapshots() {
            w.usize(*round);
            w.points(positions);
        }
        // Per-worker cross-round caches, in scratch order. At one worker
        // this is the exact cache; at many the contents already depend
        // on scheduling (nodes migrate between workers), so restoring
        // them verbatim keeps exactly the guarantees an uninterrupted
        // run has — a cold entry only ever costs a recompute.
        w.usize(self.scratches.len());
        for scratch in &self.scratches {
            let entries = scratch.view_cache.entries();
            w.usize(entries.len());
            for e in entries {
                write_cache_entry(&mut w, e);
            }
        }
        w.buf
    }
}

impl SessionBuilder {
    /// Reconstructs a session from a [`Session::snapshot`] buffer.
    ///
    /// The restored session's subsequent rounds are bit-identical to
    /// the uninterrupted original's. No recorder is installed — callers
    /// re-attach telemetry with
    /// [`Session::set_recorder`] if they want it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on unknown versions, truncation, trailing
    /// bytes, or any decoded state that fails validation.
    pub fn restore(bytes: &[u8]) -> Result<Session, SnapshotError> {
        let mut r = Reader::new(bytes)?;
        let config = read_config(&mut r)?;
        let region = read_region(&mut r)?;
        let net = read_network(&mut r)?;
        let n = net.len();
        let round = r.usize()?;
        let converged = r.bool()?;
        let views_valid = r.bool()?;
        let views: Vec<NodeView> = (0..r.count(16)?)
            .map(|_| read_view(&mut r))
            .collect::<Result<_, _>>()?;
        if !views.is_empty() && views.len() != n {
            return Err(corrupt(format!(
                "{} stored views for {n} nodes",
                views.len()
            )));
        }
        let last_movers: Vec<MovedNode> = (0..r.count(40)?)
            .map(|_| -> Result<MovedNode, SnapshotError> {
                let id = r.usize()?;
                if id >= n {
                    return Err(corrupt(format!("mover id {id} out of range {n}")));
                }
                Ok(MovedNode {
                    id: NodeId(id),
                    from: r.point()?,
                    to: r.point()?,
                })
            })
            .collect::<Result<_, _>>()?;
        let adjacency_state = match r.u8()? {
            0 => AdjacencyState::Fresh,
            1 => AdjacencyState::StaleMoves,
            2 => AdjacencyState::StaleFull,
            b => return Err(corrupt(format!("bad adjacency state tag {b}"))),
        };
        let offsets: Vec<u32> = (0..r.count(4)?)
            .map(|_| r.u32())
            .collect::<Result<_, _>>()?;
        let neighbors: Vec<u32> = (0..r.count(4)?)
            .map(|_| r.u32())
            .collect::<Result<_, _>>()?;
        check_adjacency_csr(&offsets, &neighbors)?;
        let adjacency = Adjacency::from_csr(offsets, neighbors);
        let counters = SessionCounters {
            ring_searches: r.u64()?,
            skipped_quiescent: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            adjacency_rebuilds: r.u64()?,
            adjacency_incremental_updates: r.u64()?,
            warm_started: r.u64()?,
        };
        let mut history = History::default();
        for _ in 0..r.count(8)? {
            history.push_round(read_report(&mut r)?);
        }
        for _ in 0..r.count(8)? {
            let round = r.usize()?;
            let positions = r.points()?;
            history.push_snapshot(round, positions);
        }
        let scratches: Vec<RoundScratch> = (0..r.count(8)?)
            .map(|_| -> Result<RoundScratch, SnapshotError> {
                let entries: Vec<CacheEntry> = (0..r.count(8)?)
                    .map(|_| read_cache_entry(&mut r))
                    .collect::<Result<_, _>>()?;
                Ok(RoundScratch {
                    view_cache: LocalViewCache::from_entries(entries),
                    ..RoundScratch::default()
                })
            })
            .collect::<Result<_, _>>()?;
        r.finish()?;
        config
            .validate(n)
            .map_err(|e| corrupt(format!("config rejected: {e}")))?;
        if n == 0 {
            return Err(corrupt("snapshot holds an empty deployment"));
        }
        Ok(Session {
            config,
            region,
            net,
            history,
            round,
            converged,
            scratches,
            adjacency,
            adjacency_state,
            views,
            views_valid,
            last_movers,
            counters,
            event_log: Vec::new(),
            recorder: None,
            pool: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(restored.counters(), s.counters());
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
        for _ in 0..6 {
            assert_eq!(a.step(), b.step());
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
        assert_eq!(
            SessionBuilder::restore(&snap[..snap.len() - 3]).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut long = snap.clone();
        long.push(0);
        assert_eq!(
            SessionBuilder::restore(&long).unwrap_err(),
            SnapshotError::TrailingBytes
        );
    }

    #[test]
    fn rejects_corrupt_state() {
        let mut s = session(10, 1, 3);
        s.step();
        let mut snap = s.snapshot();
        // Flip the k field (first u64 after the magic) to zero — an
        // invalid coverage degree.
        let at = SNAPSHOT_MAGIC.len();
        snap[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            SessionBuilder::restore(&snap).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }
}
