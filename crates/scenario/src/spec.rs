//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] fully describes one LAACAD experiment: the target
//! region (named gallery entry, parametric square/rect, or custom polygon
//! with obstacle holes), the initial placement, the algorithm
//! configuration, a timeline of dynamic [`EventSpec`]s, and evaluation
//! settings. Specs load from TOML (see [`crate::toml`]) and build the
//! concrete [`Region`], initial positions and [`LaacadConfig`] for a
//! given seed.

use crate::value::{decode, DecodeError, Value};
use laacad::{CoordinateMode, ExecutionMode, LaacadConfig, RingCapPolicy};
use laacad_dist::{
    AsyncConfig, Axis, Backoff, Corruption, CrashEvent, DelayModel, Drift, FaultPlan,
    PartitionKind, PartitionSchedule,
};
use laacad_geom::{Point, Polygon};
use laacad_region::sampling::{sample_clustered, sample_uniform};
use laacad_region::{gallery, Region};
use std::fmt;

/// Any error arising while loading or building a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document failed to parse as TOML.
    Toml(crate::toml::TomlError),
    /// The value tree did not decode into a spec.
    Decode(DecodeError),
    /// The spec decoded but describes an unbuildable scenario.
    Build(String),
    /// A result store operation failed (streaming campaign runs).
    Io(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Toml(e) => write!(f, "{e}"),
            SpecError::Decode(e) => write!(f, "{e}"),
            SpecError::Build(m) => write!(f, "cannot build scenario: {m}"),
            SpecError::Io(m) => write!(f, "result store I/O failed: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<DecodeError> for SpecError {
    fn from(e: DecodeError) -> Self {
        SpecError::Decode(e)
    }
}

/// The target area.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionSpec {
    /// A named gallery region (see [`laacad_region::gallery`]):
    /// `unit_square`, `l_shape`, `cross`, `coast`, `lakes`, `corridor`,
    /// `forest`.
    Named(String),
    /// An axis-aligned square with the given side.
    Square {
        /// Side length.
        side: f64,
    },
    /// An axis-aligned rectangle.
    Rect {
        /// Width.
        width: f64,
        /// Height.
        height: f64,
    },
    /// A custom simple polygon with optional obstacle holes.
    Polygon {
        /// Outer boundary vertices.
        outer: Vec<(f64, f64)>,
        /// Hole polygons (obstacles).
        holes: Vec<Vec<(f64, f64)>>,
    },
}

impl RegionSpec {
    /// Builds the concrete region.
    pub fn build(&self) -> Result<Region, SpecError> {
        let build_err = |m: String| SpecError::Build(m);
        match self {
            RegionSpec::Named(name) => match name.as_str() {
                "unit_square" => Ok(gallery::unit_square()),
                "l_shape" => Ok(gallery::l_shape()),
                "cross" => Ok(gallery::cross_shape()),
                "coast" => Ok(gallery::irregular_coast()),
                "lakes" => Ok(gallery::square_with_lakes()),
                "corridor" => Ok(gallery::corridor()),
                "forest" => Ok(gallery::forest_with_lake()),
                other => Err(build_err(format!(
                    "unknown gallery region `{other}` (expected one of \
                     unit_square, l_shape, cross, coast, lakes, corridor, forest)"
                ))),
            },
            RegionSpec::Square { side } => {
                Region::square(*side).map_err(|e| build_err(e.to_string()))
            }
            RegionSpec::Rect { width, height } => {
                Region::rect(*width, *height).map_err(|e| build_err(e.to_string()))
            }
            RegionSpec::Polygon { outer, holes } => {
                let poly = |pts: &[(f64, f64)]| {
                    Polygon::new(pts.iter().map(|&(x, y)| Point::new(x, y)))
                        .map_err(|e| build_err(e.to_string()))
                };
                let outer = poly(outer)?;
                if holes.is_empty() {
                    Ok(Region::new(outer))
                } else {
                    let holes = holes
                        .iter()
                        .map(|h| poly(h))
                        .collect::<Result<Vec<_>, _>>()?;
                    Region::with_holes(outer, holes).map_err(|e| build_err(e.to_string()))
                }
            }
        }
    }

    fn from_value(v: &Value, path: &str) -> Result<Self, SpecError> {
        let kind = decode::req_str(v, "kind", path)?;
        match kind.as_str() {
            "named" => Ok(RegionSpec::Named(decode::req_str(v, "name", path)?)),
            "square" => Ok(RegionSpec::Square {
                side: decode::req_f64(v, "side", path)?,
            }),
            "rect" => Ok(RegionSpec::Rect {
                width: decode::req_f64(v, "width", path)?,
                height: decode::req_f64(v, "height", path)?,
            }),
            "polygon" => {
                let p = format!("{path}.outer");
                let outer = decode::to_pairs(
                    v.get("outer")
                        .ok_or_else(|| DecodeError::new(&p, "missing required field"))?,
                    &p,
                )?;
                let holes = match v.get("holes") {
                    None => Vec::new(),
                    Some(hs) => {
                        let hp = format!("{path}.holes");
                        hs.as_array()
                            .ok_or_else(|| DecodeError::new(&hp, "expected array of polygons"))?
                            .iter()
                            .enumerate()
                            .map(|(i, h)| decode::to_pairs(h, &format!("{hp}[{i}]")))
                            .collect::<Result<Vec<_>, _>>()?
                    }
                };
                Ok(RegionSpec::Polygon { outer, holes })
            }
            other => Err(DecodeError::new(
                format!("{path}.kind"),
                format!("unknown region kind `{other}`"),
            )
            .into()),
        }
    }
}

/// Initial node placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementSpec {
    /// `n` nodes sampled uniformly from the free area.
    Uniform {
        /// Node count.
        n: usize,
    },
    /// `n` nodes sampled from a disk around `center`, projected into the
    /// region (the paper's Fig. 5 corner dump).
    Clustered {
        /// Node count.
        n: usize,
        /// Cluster center.
        center: (f64, f64),
        /// Cluster radius.
        radius: f64,
    },
    /// Like `Clustered` with the center placed just inside the region's
    /// bounding-box minimum corner — the adversarial start of Bartolini
    /// et al.'s Push & Pull evaluations, without hard-coding coordinates.
    Corner {
        /// Node count.
        n: usize,
        /// Cluster radius.
        radius: f64,
    },
    /// Explicit positions.
    Custom {
        /// The positions.
        points: Vec<(f64, f64)>,
    },
}

impl PlacementSpec {
    /// Number of nodes this placement produces.
    pub fn node_count(&self) -> usize {
        match self {
            PlacementSpec::Uniform { n }
            | PlacementSpec::Clustered { n, .. }
            | PlacementSpec::Corner { n, .. } => *n,
            PlacementSpec::Custom { points } => points.len(),
        }
    }

    /// Returns a copy with the node count replaced (campaign grids sweep
    /// `n`). `Custom` placements reject resizing.
    pub fn with_node_count(&self, n: usize) -> Result<Self, SpecError> {
        match self {
            PlacementSpec::Uniform { .. } => Ok(PlacementSpec::Uniform { n }),
            PlacementSpec::Clustered { center, radius, .. } => Ok(PlacementSpec::Clustered {
                n,
                center: *center,
                radius: *radius,
            }),
            PlacementSpec::Corner { radius, .. } => {
                Ok(PlacementSpec::Corner { n, radius: *radius })
            }
            PlacementSpec::Custom { .. } => Err(SpecError::Build(
                "cannot sweep node count over a custom placement".into(),
            )),
        }
    }

    /// Builds the initial positions for the given seed.
    pub fn build(&self, region: &Region, seed: u64) -> Result<Vec<Point>, SpecError> {
        match self {
            PlacementSpec::Uniform { n } => Ok(sample_uniform(region, *n, seed)),
            PlacementSpec::Clustered { n, center, radius } => Ok(sample_clustered(
                region,
                *n,
                region.project(Point::new(center.0, center.1)),
                *radius,
                seed,
            )),
            PlacementSpec::Corner { n, radius } => {
                let bb = region.bounding_box();
                let center = region.project(Point::new(bb.min().x + *radius, bb.min().y + *radius));
                Ok(sample_clustered(region, *n, center, *radius, seed))
            }
            PlacementSpec::Custom { points } => {
                let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
                for (i, p) in pts.iter().enumerate() {
                    if !region.contains(*p) {
                        return Err(SpecError::Build(format!(
                            "custom placement point {i} ({}, {}) lies outside the region",
                            p.x, p.y
                        )));
                    }
                }
                Ok(pts)
            }
        }
    }

    fn from_value(v: &Value, path: &str) -> Result<Self, SpecError> {
        let kind = decode::req_str(v, "kind", path)?;
        match kind.as_str() {
            "uniform" => Ok(PlacementSpec::Uniform {
                n: decode::req_usize(v, "n", path)?,
            }),
            "clustered" => Ok(PlacementSpec::Clustered {
                n: decode::req_usize(v, "n", path)?,
                center: decode::req_pair(v, "center", path)?,
                radius: decode::req_f64(v, "radius", path)?,
            }),
            "corner" => Ok(PlacementSpec::Corner {
                n: decode::req_usize(v, "n", path)?,
                radius: decode::req_f64(v, "radius", path)?,
            }),
            "custom" => {
                let p = format!("{path}.points");
                let points = decode::to_pairs(
                    v.get("points")
                        .ok_or_else(|| DecodeError::new(&p, "missing required field"))?,
                    &p,
                )?;
                Ok(PlacementSpec::Custom { points })
            }
            other => Err(DecodeError::new(
                format!("{path}.kind"),
                format!("unknown placement kind `{other}`"),
            )
            .into()),
        }
    }
}

/// LAACAD algorithm parameters.
///
/// `gamma` and `epsilon` are optional: when omitted, the engine derives
/// them from the region and node count exactly like the experiment
/// harness does (`LaacadConfig::recommended_gamma` and an ε scaled to the
/// expected converged sensing range).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmSpec {
    /// Coverage degree `k`.
    pub k: usize,
    /// Step size `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Stopping tolerance (`None` → scaled default).
    pub epsilon: Option<f64>,
    /// Transmission range (`None` → recommended for region/n/k).
    pub gamma: Option<f64>,
    /// Round limit.
    pub max_rounds: usize,
    /// Execution schedule.
    pub execution: ExecutionMode,
    /// How nodes obtain neighbor coordinates: `coordinates = "oracle"`
    /// (exact positions, the default) or `"ranging"` (local MDS from
    /// noisy pairwise distances, with `ranging_rel` / `ranging_abs`
    /// noise sigmas).
    pub coordinates: CoordinateMode,
    /// Ring-cap policy.
    pub ring_cap: RingCapPolicy,
    /// Worker threads for the synchronous round engine (`Some(0)` = all
    /// cores). `None` keeps the engine serial — campaigns already run
    /// one cell per core, so per-cell parallelism would oversubscribe.
    /// Results are bit-identical for every value.
    pub threads: Option<usize>,
    /// Per-cell telemetry recording (default off). Honored by the
    /// campaign runner — not by [`LaacadConfig`], which telemetry never
    /// touches: when set and the campaign has a result store,
    /// [`crate::campaign::run_campaign`] installs a
    /// [`laacad::SessionTelemetry`] recorder on the cell's session and
    /// writes a JSONL metric stream plus a Chrome trace
    /// file beside the result store. Purely observational — results are
    /// byte-identical either way.
    pub telemetry: bool,
    /// Fault-injection plan (the top-level `[faults]` TOML section).
    /// When present the scenario runs on the asynchronous
    /// message-driven [`laacad_dist::AsyncExecutor`] instead of the
    /// synchronous round engine, and the outcome gains
    /// convergence-under-faults metrics.
    pub faults: Option<FaultSpec>,
}

impl Default for AlgorithmSpec {
    fn default() -> Self {
        AlgorithmSpec {
            k: 1,
            alpha: 0.5,
            epsilon: None,
            gamma: None,
            max_rounds: 300,
            execution: ExecutionMode::Synchronous,
            coordinates: CoordinateMode::Oracle,
            ring_cap: RingCapPolicy::Exact,
            threads: None,
            telemetry: false,
            faults: None,
        }
    }
}

impl AlgorithmSpec {
    /// Builds the concrete config for a region with `n` initial nodes.
    pub fn build(&self, region: &Region, n: usize, seed: u64) -> Result<LaacadConfig, SpecError> {
        let area = region.area();
        let gamma = self
            .gamma
            .unwrap_or_else(|| LaacadConfig::recommended_gamma(area, n.max(1), self.k.max(1)));
        let epsilon = self.epsilon.unwrap_or_else(|| {
            let expected_range =
                (self.k.max(1) as f64 * area / (std::f64::consts::PI * n.max(1) as f64)).sqrt();
            5e-3 * expected_range
        });
        let mut builder = LaacadConfig::builder(self.k);
        builder
            .transmission_range(gamma)
            .alpha(self.alpha)
            .epsilon(epsilon)
            .max_rounds(self.max_rounds)
            .execution(self.execution)
            .coordinates(self.coordinates)
            .ring_cap(self.ring_cap)
            .seed(seed);
        if let Some(threads) = self.threads {
            builder.threads(threads);
        }
        builder.build().map_err(|e| SpecError::Build(e.to_string()))
    }

    /// Every key the `[laacad]` table accepts.
    const KEYS: [&'static str; 12] = [
        "k",
        "alpha",
        "epsilon",
        "gamma",
        "max_rounds",
        "execution",
        "coordinates",
        "ranging_rel",
        "ranging_abs",
        "ring_cap",
        "threads",
        "telemetry",
    ];

    fn from_value(v: &Value, path: &str) -> Result<Self, SpecError> {
        let d = AlgorithmSpec::default();
        // An unknown key is refused rather than ignored, so a misspelt
        // or retired setting cannot silently run with the default.
        if let Some(table) = v.as_table() {
            if let Some(key) = table.keys().find(|k| !Self::KEYS.contains(&k.as_str())) {
                return Err(DecodeError::new(
                    format!("{path}.{key}"),
                    format!(
                        "unknown key `{key}`; accepted keys: {}",
                        Self::KEYS.join(", ")
                    ),
                )
                .into());
            }
        }
        let execution = match decode::opt_str(v, "execution", path)? {
            None => d.execution,
            Some(s) => match s.as_str() {
                "synchronous" => ExecutionMode::Synchronous,
                "sequential" => ExecutionMode::Sequential,
                other => {
                    return Err(DecodeError::new(
                        format!("{path}.execution"),
                        format!("unknown execution mode `{other}`"),
                    )
                    .into())
                }
            },
        };
        let coordinates = match decode::opt_str(v, "coordinates", path)? {
            None => d.coordinates,
            Some(s) => match s.as_str() {
                "oracle" => CoordinateMode::Oracle,
                "ranging" => {
                    let rel = decode::opt_f64(v, "ranging_rel", path)?.unwrap_or(0.0);
                    let abs = decode::opt_f64(v, "ranging_abs", path)?.unwrap_or(0.0);
                    if rel < 0.0 || abs < 0.0 {
                        return Err(DecodeError::new(
                            format!("{path}.ranging_rel"),
                            "ranging noise sigmas must be non-negative".to_string(),
                        )
                        .into());
                    }
                    CoordinateMode::Ranging(laacad_wsn::ranging::RangingNoise::new(rel, abs))
                }
                other => {
                    return Err(DecodeError::new(
                        format!("{path}.coordinates"),
                        format!("unknown coordinate mode `{other}`"),
                    )
                    .into())
                }
            },
        };
        let ring_cap = match decode::opt_str(v, "ring_cap", path)? {
            None => d.ring_cap,
            Some(s) => match s.as_str() {
                "exact" => RingCapPolicy::Exact,
                "always_cap" => RingCapPolicy::AlwaysCap,
                other => {
                    return Err(DecodeError::new(
                        format!("{path}.ring_cap"),
                        format!("unknown ring-cap policy `{other}`"),
                    )
                    .into())
                }
            },
        };
        Ok(AlgorithmSpec {
            k: decode::req_usize(v, "k", path)?,
            alpha: decode::opt_f64(v, "alpha", path)?.unwrap_or(d.alpha),
            epsilon: decode::opt_f64(v, "epsilon", path)?,
            gamma: decode::opt_f64(v, "gamma", path)?,
            max_rounds: decode::opt_usize(v, "max_rounds", path)?.unwrap_or(d.max_rounds),
            execution,
            coordinates,
            ring_cap,
            threads: decode::opt_usize(v, "threads", path)?,
            telemetry: decode::opt_bool(v, "telemetry", path)?.unwrap_or(d.telemetry),
            // Decoded from the document's top-level `faults` table by
            // `ScenarioSpec::from_value`, not from the laacad table.
            faults: None,
        })
    }
}

/// Declarative message-delay distribution (the `delay` knob of
/// [`FaultSpec`]). Extra per-hop ticks on top of the protocol's
/// one-tick base latency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DelaySpec {
    /// No extra delay (`delay = "none"`, the default).
    #[default]
    None,
    /// Constant extra delay (`delay = "fixed"`, `delay_ticks = t`).
    Fixed(u64),
    /// Uniform extra delay (`delay = "uniform"`, `delay_lo ≤ delay_hi`).
    Uniform {
        /// Minimum extra delay in ticks.
        lo: u64,
        /// Maximum extra delay in ticks (inclusive).
        hi: u64,
    },
    /// Exponential extra delay (`delay = "exp"`, `delay_mean = m > 0`).
    Exp {
        /// Mean extra delay in ticks.
        mean: f64,
    },
}

impl DelaySpec {
    fn to_model(self) -> DelayModel {
        match self {
            DelaySpec::None => DelayModel::None,
            DelaySpec::Fixed(ticks) => DelayModel::Fixed(ticks),
            DelaySpec::Uniform { lo, hi } => DelayModel::Uniform { lo, hi },
            DelaySpec::Exp { mean } => DelayModel::Exp { mean },
        }
    }
}

/// One scheduled crash (and optional recovery) in the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Node index to crash.
    pub node: usize,
    /// Tick at which the crash takes effect.
    pub at: u64,
    /// Tick of recovery (`None` = permanent).
    pub recover_at: Option<u64>,
}

/// One timed link partition (a `[[faults.partition]]` table).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// What the partition severs.
    pub kind: PartitionKindSpec,
    /// Tick at which the partition opens.
    pub at: u64,
    /// Tick at which it heals (`None` = permanent).
    pub heal_at: Option<u64>,
}

/// Declarative partition shape.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionKindSpec {
    /// Geometric bipartition (`kind = "bipartition"`, `axis = "x"|"y"`,
    /// `coord = c`): sides frozen from the positions at activation.
    Bipartition {
        /// Cut axis (`"x"` or `"y"`).
        axis: char,
        /// Cut coordinate on that axis.
        coord: f64,
    },
    /// Explicit link mask (`kind = "links"`, `pairs = [[a, b], ...]`).
    Links {
        /// Severed undirected node-index pairs.
        pairs: Vec<(usize, usize)>,
    },
}

/// Declarative retransmission-backoff policy (the `backoff` knob).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackoffSpec {
    /// Retry every `ack_timeout` ticks (`backoff = "fixed"`, the
    /// default).
    #[default]
    Fixed,
    /// Adaptive RTT-based exponential backoff (`backoff = "adaptive"`,
    /// with `backoff_cap` / `backoff_jitter`).
    Adaptive {
        /// Upper bound on a single retry timeout, in ticks.
        cap: u64,
        /// Jitter fraction in `[0, 1]`.
        jitter: f64,
    },
}

/// Declarative fault-injection knobs (the top-level `[faults]` TOML
/// section). Presence of the section switches the scenario onto the
/// asynchronous message-driven executor; every knob defaults to the
/// fault-free value, so an empty `[faults]` table runs the async
/// executor in its sync-equivalent regime.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-copy message-loss probability in `[0, 1]`.
    pub loss: f64,
    /// Per-message duplication probability in `[0, 1]`.
    pub duplicate: f64,
    /// Extra per-hop delay distribution.
    pub delay: DelaySpec,
    /// Reordering-jitter probability in `[0, 1]` (jittered copies gain
    /// 1–3 extra ticks and overtake or fall behind their neighbors).
    pub jitter: f64,
    /// Ticks between hello retransmissions while acks are missing.
    pub ack_timeout: u64,
    /// Retransmission rounds before computing with a partial
    /// neighborhood.
    pub max_retries: u32,
    /// Virtual-time budget before graceful termination.
    pub max_ticks: u64,
    /// Scheduled crash/recover events.
    pub crash: Vec<CrashSpec>,
    /// Byzantine payload-corruption probability per transmitted hello
    /// (`corruption_rate`, 0 = all payloads honest).
    pub corruption_rate: f64,
    /// Receiver-side payload validation + quarantine
    /// (`corruption_validate`, default true). With validation off,
    /// absorbed lies are counted and surfaced as an outcome warning.
    pub corruption_validate: bool,
    /// Ticks a detected liar stays quarantined (`quarantine_ticks`).
    pub quarantine_ticks: u64,
    /// Plausibility slack for claimed positions
    /// (`corruption_tolerance`).
    pub corruption_tolerance: f64,
    /// Timed link partitions (`[[faults.partition]]`).
    pub partition: Vec<PartitionSpec>,
    /// Retransmission-backoff policy.
    pub backoff: BackoffSpec,
    /// Per-node clock-rate deviation bound (`drift_rate`, 0 = ideal).
    pub drift_rate: f64,
    /// Per-node initial clock skew bound in ticks (`drift_skew`).
    pub drift_skew: u64,
    /// Coverage-probe cadence in ticks over partition windows
    /// (`probe_every`); drives the partition coverage-floor and
    /// recovery metrics in the outcome.
    pub probe_every: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        let proto = AsyncConfig::default();
        let corruption = Corruption::default();
        FaultSpec {
            loss: 0.0,
            duplicate: 0.0,
            delay: DelaySpec::None,
            jitter: 0.0,
            ack_timeout: proto.ack_timeout,
            max_retries: proto.max_retries,
            max_ticks: proto.max_ticks,
            crash: Vec::new(),
            corruption_rate: 0.0,
            corruption_validate: corruption.validate,
            quarantine_ticks: corruption.quarantine_ticks,
            corruption_tolerance: corruption.tolerance,
            partition: Vec::new(),
            backoff: BackoffSpec::Fixed,
            drift_rate: 0.0,
            drift_skew: 0,
            probe_every: 8,
        }
    }
}

impl FaultSpec {
    /// Builds the concrete executor inputs: the [`FaultPlan`] and the
    /// protocol/budget knobs.
    pub fn to_plan(&self) -> (FaultPlan, AsyncConfig) {
        let corruption = if self.corruption_rate > 0.0 || !self.corruption_validate {
            Some(Corruption {
                rate: self.corruption_rate,
                validate: self.corruption_validate,
                quarantine_ticks: self.quarantine_ticks,
                tolerance: self.corruption_tolerance,
            })
        } else {
            None
        };
        let drift = if self.drift_rate > 0.0 || self.drift_skew > 0 {
            Some(Drift {
                rate: self.drift_rate,
                skew: self.drift_skew,
            })
        } else {
            None
        };
        let plan = FaultPlan {
            loss: self.loss,
            duplicate: self.duplicate,
            delay: self.delay.to_model(),
            jitter: self.jitter,
            crashes: self
                .crash
                .iter()
                .map(|c| CrashEvent {
                    node: c.node,
                    at: c.at,
                    recover_at: c.recover_at,
                })
                .collect(),
            corruption,
            partitions: self
                .partition
                .iter()
                .map(|p| PartitionSchedule {
                    kind: match &p.kind {
                        PartitionKindSpec::Bipartition { axis, coord } => {
                            PartitionKind::Bipartition {
                                axis: if *axis == 'y' { Axis::Y } else { Axis::X },
                                at: *coord,
                            }
                        }
                        PartitionKindSpec::Links { pairs } => PartitionKind::Links {
                            pairs: pairs.clone(),
                        },
                    },
                    at: p.at,
                    heal_at: p.heal_at,
                })
                .collect(),
            drift,
        };
        let proto = AsyncConfig {
            ack_timeout: self.ack_timeout,
            max_retries: self.max_retries,
            max_ticks: self.max_ticks,
            backoff: match self.backoff {
                BackoffSpec::Fixed => Backoff::Fixed,
                BackoffSpec::Adaptive { cap, jitter } => {
                    Backoff::ExponentialJittered { cap, jitter }
                }
            },
            ..AsyncConfig::default()
        };
        (plan, proto)
    }

    fn from_value(v: &Value, path: &str) -> Result<Self, SpecError> {
        let d = FaultSpec::default();
        let delay = match decode::opt_str(v, "delay", path)? {
            None => d.delay,
            Some(s) => match s.as_str() {
                "none" => DelaySpec::None,
                "fixed" => {
                    DelaySpec::Fixed(decode::opt_usize(v, "delay_ticks", path)?.unwrap_or(1) as u64)
                }
                "uniform" => {
                    let lo = decode::opt_usize(v, "delay_lo", path)?.unwrap_or(0) as u64;
                    let hi = decode::opt_usize(v, "delay_hi", path)?.unwrap_or(1) as u64;
                    if lo > hi {
                        return Err(DecodeError::new(
                            format!("{path}.delay_lo"),
                            format!("{lo} exceeds delay_hi = {hi}"),
                        )
                        .into());
                    }
                    DelaySpec::Uniform { lo, hi }
                }
                "exp" => {
                    let mean = decode::opt_f64(v, "delay_mean", path)?.unwrap_or(1.0);
                    let at = format!("{path}.delay_mean");
                    FaultRange::MeanDelay.check(mean, &at)?;
                    // A mean of 0 would run with no delay at all.
                    if mean == 0.0 {
                        return Err(DecodeError::new(at, "must be positive, got 0").into());
                    }
                    DelaySpec::Exp { mean }
                }
                other => {
                    return Err(DecodeError::new(
                        format!("{path}.delay"),
                        format!("unknown delay model `{other}` (none|fixed|uniform|exp)"),
                    )
                    .into())
                }
            },
        };
        let crash = match v.get("crash") {
            None => Vec::new(),
            Some(cs) => {
                let p = format!("{path}.crash");
                cs.as_array()
                    .ok_or_else(|| DecodeError::new(&p, "expected array of crash tables"))?
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let cp = format!("{p}[{i}]");
                        Ok(CrashSpec {
                            node: decode::req_usize(c, "node", &cp)?,
                            at: decode::req_usize(c, "at", &cp)? as u64,
                            recover_at: decode::opt_usize(c, "recover_at", &cp)?.map(|t| t as u64),
                        })
                    })
                    .collect::<Result<Vec<_>, SpecError>>()?
            }
        };
        let partition = match v.get("partition") {
            None => Vec::new(),
            Some(ps) => {
                let p = format!("{path}.partition");
                ps.as_array()
                    .ok_or_else(|| DecodeError::new(&p, "expected array of partition tables"))?
                    .iter()
                    .enumerate()
                    .map(|(i, pv)| {
                        let pp = format!("{p}[{i}]");
                        let kind = match decode::req_str(pv, "kind", &pp)?.as_str() {
                            "bipartition" => {
                                let axis = match decode::opt_str(pv, "axis", &pp)?.as_deref() {
                                    None | Some("x") => 'x',
                                    Some("y") => 'y',
                                    Some(other) => {
                                        return Err(DecodeError::new(
                                            format!("{pp}.axis"),
                                            format!("unknown axis `{other}` (x|y)"),
                                        )
                                        .into())
                                    }
                                };
                                PartitionKindSpec::Bipartition {
                                    axis,
                                    coord: decode::req_f64(pv, "coord", &pp)?,
                                }
                            }
                            "links" => {
                                let lp = format!("{pp}.pairs");
                                let pairs = pv
                                    .get("pairs")
                                    .ok_or_else(|| DecodeError::new(&lp, "missing required field"))?
                                    .as_array()
                                    .ok_or_else(|| {
                                        DecodeError::new(&lp, "expected array of [a, b] pairs")
                                    })?
                                    .iter()
                                    .enumerate()
                                    .map(|(j, pair)| {
                                        let ep = format!("{lp}[{j}]");
                                        let arr = pair.as_array().ok_or_else(|| {
                                            DecodeError::new(&ep, "expected [a, b] pair")
                                        })?;
                                        if arr.len() != 2 {
                                            return Err(DecodeError::new(
                                                &ep,
                                                "expected exactly two node indices",
                                            )
                                            .into());
                                        }
                                        Ok((
                                            decode::to_usize(&arr[0], &format!("{ep}[0]"))?,
                                            decode::to_usize(&arr[1], &format!("{ep}[1]"))?,
                                        ))
                                    })
                                    .collect::<Result<Vec<_>, SpecError>>()?;
                                PartitionKindSpec::Links { pairs }
                            }
                            other => {
                                return Err(DecodeError::new(
                                    format!("{pp}.kind"),
                                    format!("unknown partition kind `{other}` (bipartition|links)"),
                                )
                                .into())
                            }
                        };
                        Ok(PartitionSpec {
                            kind,
                            at: decode::req_usize(pv, "at", &pp)? as u64,
                            heal_at: decode::opt_usize(pv, "heal_at", &pp)?.map(|t| t as u64),
                        })
                    })
                    .collect::<Result<Vec<_>, SpecError>>()?
            }
        };
        let backoff = match decode::opt_str(v, "backoff", path)?.as_deref() {
            None | Some("fixed") => BackoffSpec::Fixed,
            Some("adaptive") => BackoffSpec::Adaptive {
                cap: decode::opt_usize(v, "backoff_cap", path)?.unwrap_or(64) as u64,
                jitter: decode::opt_f64(v, "backoff_jitter", path)?.unwrap_or(0.0),
            },
            Some(other) => {
                return Err(DecodeError::new(
                    format!("{path}.backoff"),
                    format!("unknown backoff policy `{other}` (fixed|adaptive)"),
                )
                .into())
            }
        };
        let spec = FaultSpec {
            loss: decode::opt_f64(v, "loss", path)?.unwrap_or(d.loss),
            duplicate: decode::opt_f64(v, "duplicate", path)?.unwrap_or(d.duplicate),
            delay,
            jitter: decode::opt_f64(v, "jitter", path)?.unwrap_or(d.jitter),
            ack_timeout: decode::opt_usize(v, "ack_timeout", path)?
                .map_or(d.ack_timeout, |t| t as u64),
            max_retries: decode::opt_usize(v, "max_retries", path)?
                .map_or(d.max_retries, |r| r as u32),
            max_ticks: decode::opt_usize(v, "max_ticks", path)?.map_or(d.max_ticks, |t| t as u64),
            crash,
            corruption_rate: decode::opt_f64(v, "corruption_rate", path)?
                .unwrap_or(d.corruption_rate),
            corruption_validate: decode::opt_bool(v, "corruption_validate", path)?
                .unwrap_or(d.corruption_validate),
            quarantine_ticks: decode::opt_usize(v, "quarantine_ticks", path)?
                .map_or(d.quarantine_ticks, |t| t as u64),
            corruption_tolerance: decode::opt_f64(v, "corruption_tolerance", path)?
                .unwrap_or(d.corruption_tolerance),
            partition,
            backoff,
            drift_rate: decode::opt_f64(v, "drift_rate", path)?.unwrap_or(d.drift_rate),
            drift_skew: decode::opt_usize(v, "drift_skew", path)?
                .map_or(d.drift_skew, |t| t as u64),
            probe_every: decode::opt_usize(v, "probe_every", path)?
                .map_or(d.probe_every, |t| t as u64),
        };
        for (name, p) in [
            ("loss", spec.loss),
            ("duplicate", spec.duplicate),
            ("jitter", spec.jitter),
            ("corruption_rate", spec.corruption_rate),
        ] {
            FaultRange::Probability.check(p, &format!("{path}.{name}"))?;
        }
        if spec.drift_rate < 0.0 || spec.drift_rate >= 1.0 || spec.drift_rate.is_nan() {
            return Err(SpecError::Build(format!(
                "faults.drift_rate must be in [0, 1), got {}",
                spec.drift_rate
            )));
        }
        Ok(spec)
    }
}

/// The admissible values of a fault knob. One rule per kind of knob,
/// checked where `[faults]` is decoded and again where a campaign grid
/// overrides the knob, so neither can let through what the other
/// refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultRange {
    /// A probability in `[0, 1]` (`loss`, `duplicate`, `jitter`,
    /// `corruption_rate`).
    Probability,
    /// A mean delay in ticks: finite and `≥ 0`.
    MeanDelay,
}

impl FaultRange {
    /// Refuses `value` outside the range (NaN included) with a decode
    /// error at `path`.
    pub(crate) fn check(self, value: f64, path: &str) -> Result<(), SpecError> {
        let (ok, rule) = match self {
            FaultRange::Probability => ((0.0..=1.0).contains(&value), "a probability in [0, 1]"),
            FaultRange::MeanDelay => (
                value.is_finite() && value >= 0.0,
                "a finite delay of at least 0 ticks",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(DecodeError::new(path, format!("must be {rule}, got {value}")).into())
        }
    }
}

/// One timed entry of the dynamic-event timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Round after which the event fires (`0` = on the initial
    /// deployment, before any movement).
    pub round: usize,
    /// What happens.
    pub action: EventAction,
}

/// A dynamic event, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub enum EventAction {
    /// Kills a random fraction of the current population (crash-stop).
    FailFraction {
        /// Fraction in `(0, 1)` of nodes to kill.
        fraction: f64,
    },
    /// Kills the listed node indices (as of the event round).
    FailNodes {
        /// Indices to kill.
        ids: Vec<usize>,
    },
    /// Kills every node inside a disk (localized destruction).
    FailRegion {
        /// Disk center.
        center: (f64, f64),
        /// Disk radius.
        radius: f64,
    },
    /// Kills nodes whose cumulative energy spend exceeds their battery
    /// capacity. Spend = `move_cost · distance_moved +
    /// rounds · sense_cost · E(r_i)` with `E` the
    /// [`laacad_wsn::energy::EnergyModel`] `coefficient · r^exponent`.
    DepleteBatteries {
        /// Per-node battery capacity.
        capacity: f64,
        /// Energy per unit distance moved.
        move_cost: f64,
        /// Energy per round per unit of `E(r_i)`.
        sense_cost: f64,
        /// Energy-model exponent `η` (2 = the paper's disk-area model).
        exponent: f64,
    },
    /// Inserts new nodes (churn / robots-assisted redeployment).
    Insert {
        /// Where the reinforcements appear.
        placement: PlacementSpec,
    },
    /// Changes the coverage requirement.
    SetK {
        /// The new `k`.
        k: usize,
    },
    /// Changes the step size.
    SetAlpha {
        /// The new `α`.
        alpha: f64,
    },
}

impl EventSpec {
    fn from_value(v: &Value, path: &str) -> Result<Self, SpecError> {
        let round = decode::req_usize(v, "round", path)?;
        let action = decode::req_str(v, "action", path)?;
        let action = match action.as_str() {
            "fail_fraction" => EventAction::FailFraction {
                fraction: decode::req_f64(v, "fraction", path)?,
            },
            "fail_nodes" => {
                let p = format!("{path}.ids");
                let ids = v
                    .get("ids")
                    .ok_or_else(|| DecodeError::new(&p, "missing required field"))?
                    .as_array()
                    .ok_or_else(|| DecodeError::new(&p, "expected array of integers"))?
                    .iter()
                    .enumerate()
                    .map(|(i, id)| decode::to_usize(id, &format!("{p}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?;
                EventAction::FailNodes { ids }
            }
            "fail_region" => EventAction::FailRegion {
                center: decode::req_pair(v, "center", path)?,
                radius: decode::req_f64(v, "radius", path)?,
            },
            "deplete_batteries" => EventAction::DepleteBatteries {
                capacity: decode::req_f64(v, "capacity", path)?,
                move_cost: decode::opt_f64(v, "move_cost", path)?.unwrap_or(1.0),
                sense_cost: decode::opt_f64(v, "sense_cost", path)?.unwrap_or(1.0),
                exponent: decode::opt_f64(v, "exponent", path)?.unwrap_or(2.0),
            },
            "insert" => EventAction::Insert {
                placement: PlacementSpec::from_value(
                    v.get("placement").ok_or_else(|| {
                        DecodeError::new(format!("{path}.placement"), "missing required field")
                    })?,
                    &format!("{path}.placement"),
                )?,
            },
            "set_k" => EventAction::SetK {
                k: decode::req_usize(v, "k", path)?,
            },
            "set_alpha" => EventAction::SetAlpha {
                alpha: decode::req_f64(v, "alpha", path)?,
            },
            other => {
                return Err(DecodeError::new(
                    format!("{path}.action"),
                    format!("unknown event action `{other}`"),
                )
                .into())
            }
        };
        Ok(EventSpec { round, action })
    }
}

/// Evaluation settings.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationSpec {
    /// Grid samples for the final coverage verification.
    pub coverage_samples: usize,
    /// Energy-model exponent used for the load metrics.
    pub energy_exponent: f64,
    /// When non-zero, evaluate k-coverage with this many samples after
    /// **every** round and store the fraction in the round series —
    /// required for the recovery metrics (`time_to_recover`,
    /// `coverage_dip`) and off by default because it costs a coverage
    /// sweep per round.
    pub round_coverage_samples: usize,
    /// Covered-fraction threshold at which a post-event deployment
    /// counts as recovered (used by `time_to_recover`).
    pub recovery_target: f64,
}

impl Default for EvaluationSpec {
    fn default() -> Self {
        EvaluationSpec {
            coverage_samples: 4000,
            energy_exponent: 2.0,
            round_coverage_samples: 0,
            recovery_target: 0.95,
        }
    }
}

impl EvaluationSpec {
    fn from_value(v: &Value, path: &str) -> Result<Self, SpecError> {
        let d = EvaluationSpec::default();
        Ok(EvaluationSpec {
            coverage_samples: decode::opt_usize(v, "coverage_samples", path)?
                .unwrap_or(d.coverage_samples),
            energy_exponent: decode::opt_f64(v, "energy_exponent", path)?
                .unwrap_or(d.energy_exponent),
            round_coverage_samples: decode::opt_usize(v, "round_coverage_samples", path)?
                .unwrap_or(d.round_coverage_samples),
            recovery_target: decode::opt_f64(v, "recovery_target", path)?
                .unwrap_or(d.recovery_target),
        })
    }
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in result records and file names).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// The target area.
    pub region: RegionSpec,
    /// Initial placement.
    pub placement: PlacementSpec,
    /// Algorithm parameters.
    pub laacad: AlgorithmSpec,
    /// Dynamic-event timeline (sorted by round at build time).
    pub events: Vec<EventSpec>,
    /// Evaluation settings.
    pub evaluation: EvaluationSpec,
}

impl ScenarioSpec {
    /// A minimal uniform-placement scenario, useful as a programmatic
    /// starting point.
    pub fn uniform(name: impl Into<String>, n: usize, k: usize) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            region: RegionSpec::Named("unit_square".into()),
            placement: PlacementSpec::Uniform { n },
            laacad: AlgorithmSpec {
                k,
                ..AlgorithmSpec::default()
            },
            events: Vec::new(),
            evaluation: EvaluationSpec::default(),
        }
    }

    /// Decodes a spec from a parsed [`Value`] tree.
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let path = "scenario";
        let events = match v.get("events") {
            None => Vec::new(),
            Some(evs) => {
                let p = format!("{path}.events");
                evs.as_array()
                    .ok_or_else(|| DecodeError::new(&p, "expected array of event tables"))?
                    .iter()
                    .enumerate()
                    .map(|(i, e)| EventSpec::from_value(e, &format!("{p}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let evaluation = match v.get("evaluation") {
            None => EvaluationSpec::default(),
            Some(e) => EvaluationSpec::from_value(e, &format!("{path}.evaluation"))?,
        };
        let region = RegionSpec::from_value(
            v.get("region")
                .ok_or_else(|| DecodeError::new("scenario.region", "missing required field"))?,
            &format!("{path}.region"),
        )?;
        let placement = PlacementSpec::from_value(
            v.get("placement")
                .ok_or_else(|| DecodeError::new("scenario.placement", "missing required field"))?,
            &format!("{path}.placement"),
        )?;
        let mut laacad = AlgorithmSpec::from_value(
            v.get("laacad")
                .ok_or_else(|| DecodeError::new("scenario.laacad", "missing required field"))?,
            &format!("{path}.laacad"),
        )?;
        if let Some(f) = v.get("faults") {
            laacad.faults = Some(FaultSpec::from_value(f, "faults")?);
        }
        Ok(ScenarioSpec {
            name: decode::req_str(v, "name", path)?,
            description: decode::opt_str(v, "description", path)?.unwrap_or_default(),
            region,
            placement,
            laacad,
            events,
            evaluation,
        })
    }

    /// Parses a TOML scenario document.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let v = crate::toml::parse(text).map_err(SpecError::Toml)?;
        Self::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "failure-recovery".into(),
            description: "kill 20% mid-run".into(),
            region: RegionSpec::Named("unit_square".into()),
            placement: PlacementSpec::Uniform { n: 40 },
            laacad: AlgorithmSpec {
                k: 2,
                alpha: 0.6,
                max_rounds: 150,
                ..AlgorithmSpec::default()
            },
            events: vec![
                EventSpec {
                    round: 40,
                    action: EventAction::FailFraction { fraction: 0.2 },
                },
                EventSpec {
                    round: 60,
                    action: EventAction::Insert {
                        placement: PlacementSpec::Clustered {
                            n: 4,
                            center: (0.5, 0.5),
                            radius: 0.1,
                        },
                    },
                },
            ],
            evaluation: EvaluationSpec::default(),
        }
    }

    /// [`sample_spec`] as TOML text.
    const SAMPLE: &str = r#"
name = "failure-recovery"
description = "kill 20% mid-run"

[region]
kind = "named"
name = "unit_square"

[placement]
kind = "uniform"
n = 40

[laacad]
k = 2
alpha = 0.6
max_rounds = 150

[[events]]
round = 40
action = "fail_fraction"
fraction = 0.2

[[events]]
round = 60
action = "insert"

[events.placement]
kind = "clustered"
n = 4
center = [0.5, 0.5]
radius = 0.1
"#;

    /// A scenario document with the given `[region]` and `[placement]`
    /// bodies; `rest` continues the `[laacad]` table (`k = 1`) and may
    /// open further sections.
    fn doc(region: &str, placement: &str, rest: &str) -> String {
        format!(
            "name = \"v\"\n[region]\n{region}\n[placement]\n{placement}\n[laacad]\nk = 1\n{rest}"
        )
    }

    /// Decodes [`doc`], which must succeed.
    fn parse(region: &str, placement: &str, rest: &str) -> ScenarioSpec {
        let text = doc(region, placement, rest);
        ScenarioSpec::from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    const SQUARE: &str = "kind = \"square\"\nside = 1.0";
    const UNIFORM: &str = "kind = \"uniform\"\nn = 8";

    #[test]
    fn sample_spec_parses_from_its_literal() {
        assert_eq!(ScenarioSpec::from_toml(SAMPLE).unwrap(), sample_spec());
    }

    #[test]
    fn every_region_and_placement_parses_from_its_literal() {
        for (text, expected) in [
            (
                "kind = \"named\"\nname = \"lakes\"",
                RegionSpec::Named("lakes".into()),
            ),
            (
                "kind = \"square\"\nside = 2.5",
                RegionSpec::Square { side: 2.5 },
            ),
            (
                "kind = \"rect\"\nwidth = 3\nheight = 1.5e-1",
                RegionSpec::Rect {
                    width: 3.0,
                    height: 0.15,
                },
            ),
            (
                "kind = \"polygon\"\nouter = [[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]]",
                RegionSpec::Polygon {
                    outer: vec![(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)],
                    holes: Vec::new(),
                },
            ),
            (
                "kind = \"polygon\"\nouter = [[0.0, 0.0], [4.0, 0.0], [4.0, 3.0]]\n\
                 holes = [[[1.0, 0.5], [2.0, 0.5], [2.0, 1.0]]]",
                RegionSpec::Polygon {
                    outer: vec![(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)],
                    holes: vec![vec![(1.0, 0.5), (2.0, 0.5), (2.0, 1.0)]],
                },
            ),
        ] {
            assert_eq!(parse(text, UNIFORM, "").region, expected, "{text}");
        }
        for (text, expected) in [
            (
                "kind = \"uniform\"\nn = 12",
                PlacementSpec::Uniform { n: 12 },
            ),
            (
                "kind = \"clustered\"\nn = 5\ncenter = [0.25, 0.75]\nradius = 0.1",
                PlacementSpec::Clustered {
                    n: 5,
                    center: (0.25, 0.75),
                    radius: 0.1,
                },
            ),
            (
                "kind = \"corner\"\nn = 6\nradius = 2e-1",
                PlacementSpec::Corner { n: 6, radius: 0.2 },
            ),
            (
                "kind = \"custom\"\npoints = [[0.1, 0.2], [0.3, 0.4]]",
                PlacementSpec::Custom {
                    points: vec![(0.1, 0.2), (0.3, 0.4)],
                },
            ),
        ] {
            assert_eq!(parse(SQUARE, text, "").placement, expected, "{text}");
        }
    }

    #[test]
    fn every_event_parses_from_its_literal() {
        let events = r#"
[[events]]
round = 1
action = "fail_fraction"
fraction = 0.2

[[events]]
round = 2
action = "fail_nodes"
ids = [1, 2, 9]

[[events]]
round = 3
action = "fail_region"
center = [0.5, 0.25]
radius = 0.2

[[events]]
round = 4
action = "deplete_batteries"
capacity = 5

[[events]]
round = 5
action = "deplete_batteries"
capacity = 5.0
move_cost = 0.5
sense_cost = 2.0
exponent = 3.0

[[events]]
round = 6
action = "insert"

[events.placement]
kind = "corner"
n = 3
radius = 0.1

[[events]]
round = 7
action = "set_k"
k = 2

[[events]]
round = 0
action = "set_alpha"
alpha = 0.75
"#;
        let actions = [
            EventAction::FailFraction { fraction: 0.2 },
            EventAction::FailNodes { ids: vec![1, 2, 9] },
            EventAction::FailRegion {
                center: (0.5, 0.25),
                radius: 0.2,
            },
            EventAction::DepleteBatteries {
                capacity: 5.0,
                move_cost: 1.0,
                sense_cost: 1.0,
                exponent: 2.0,
            },
            EventAction::DepleteBatteries {
                capacity: 5.0,
                move_cost: 0.5,
                sense_cost: 2.0,
                exponent: 3.0,
            },
            EventAction::Insert {
                placement: PlacementSpec::Corner { n: 3, radius: 0.1 },
            },
            EventAction::SetK { k: 2 },
            EventAction::SetAlpha { alpha: 0.75 },
        ];
        let expected: Vec<EventSpec> = actions
            .into_iter()
            .zip([1, 2, 3, 4, 5, 6, 7, 0])
            .map(|(action, round)| EventSpec { round, action })
            .collect();
        assert_eq!(parse(SQUARE, UNIFORM, events).events, expected);
    }

    #[test]
    fn laacad_and_evaluation_keys_parse_from_their_literal() {
        let rest = "alpha = 1\nepsilon = 1e-3\ngamma = 0.3\nmax_rounds = 90\n\
                    execution = \"sequential\"\ncoordinates = \"oracle\"\n\
                    ring_cap = \"always_cap\"\nthreads = 2\n\
                    telemetry = true\n[evaluation]\ncoverage_samples = 500\n\
                    energy_exponent = 3.0\nround_coverage_samples = 100\n\
                    recovery_target = 0.9\n";
        let spec = parse(SQUARE, UNIFORM, rest);
        assert_eq!(
            spec.laacad,
            AlgorithmSpec {
                k: 1,
                alpha: 1.0,
                epsilon: Some(1e-3),
                gamma: Some(0.3),
                max_rounds: 90,
                execution: ExecutionMode::Sequential,
                coordinates: CoordinateMode::Oracle,
                ring_cap: RingCapPolicy::AlwaysCap,
                threads: Some(2),
                telemetry: true,
                faults: None,
            }
        );
        assert_eq!(
            spec.evaluation,
            EvaluationSpec {
                coverage_samples: 500,
                energy_exponent: 3.0,
                round_coverage_samples: 100,
                recovery_target: 0.9,
            }
        );
        // Omitted keys take their defaults.
        let bare = parse(SQUARE, UNIFORM, "");
        assert_eq!(bare.laacad, AlgorithmSpec::default());
        assert_eq!(bare.evaluation, EvaluationSpec::default());
        assert_eq!(bare.description, "");
    }

    #[test]
    fn every_delay_and_backoff_parses_from_its_literal() {
        let faults = |body: &str| {
            parse(SQUARE, UNIFORM, &format!("[faults]\n{body}"))
                .laacad
                .faults
                .expect("faults section")
        };
        // An empty section is the fault-free default.
        assert_eq!(faults(""), FaultSpec::default());
        for (text, expected) in [
            ("delay = \"none\"", DelaySpec::None),
            ("delay = \"fixed\"", DelaySpec::Fixed(1)),
            ("delay = \"fixed\"\ndelay_ticks = 3", DelaySpec::Fixed(3)),
            (
                "delay = \"uniform\"\ndelay_lo = 1\ndelay_hi = 4",
                DelaySpec::Uniform { lo: 1, hi: 4 },
            ),
            (
                "delay = \"uniform\"\ndelay_lo = 3\ndelay_hi = 3",
                DelaySpec::Uniform { lo: 3, hi: 3 },
            ),
            (
                "delay = \"exp\"\ndelay_mean = 2.5",
                DelaySpec::Exp { mean: 2.5 },
            ),
            (
                "delay = \"exp\"\ndelay_mean = 1e-3",
                DelaySpec::Exp { mean: 1e-3 },
            ),
            ("delay = \"exp\"", DelaySpec::Exp { mean: 1.0 }),
        ] {
            assert_eq!(faults(text).delay, expected, "{text}");
        }
        for (text, expected) in [
            ("backoff = \"fixed\"", BackoffSpec::Fixed),
            (
                "backoff = \"adaptive\"",
                BackoffSpec::Adaptive {
                    cap: 64,
                    jitter: 0.0,
                },
            ),
        ] {
            assert_eq!(faults(text).backoff, expected, "{text}");
        }
        let text = "duplicate = 0.05\njitter = 0.2\nack_timeout = 6\nmax_retries = 5\n\
                    max_ticks = 900\n[[faults.crash]]\nnode = 3\nat = 40\nrecover_at = 200\n\
                    [[faults.crash]]\nnode = 4\nat = 50\n";
        assert_eq!(
            faults(text),
            FaultSpec {
                duplicate: 0.05,
                jitter: 0.2,
                ack_timeout: 6,
                max_retries: 5,
                max_ticks: 900,
                crash: vec![
                    CrashSpec {
                        node: 3,
                        at: 40,
                        recover_at: Some(200),
                    },
                    CrashSpec {
                        node: 4,
                        at: 50,
                        recover_at: None,
                    },
                ],
                ..FaultSpec::default()
            }
        );
    }

    #[test]
    fn delay_settings_that_would_run_another_model_are_refused() {
        // An exponential delay of mean ≤ 0 would run with no delay, and a
        // uniform one with `delay_lo > delay_hi` as a fixed one.
        for (body, key) in [
            ("delay = \"exp\"\ndelay_mean = 0.0", "faults.delay_mean"),
            ("delay = \"exp\"\ndelay_mean = -2.5", "faults.delay_mean"),
            (
                "delay = \"uniform\"\ndelay_lo = 5\ndelay_hi = 2",
                "faults.delay_lo",
            ),
            ("delay = \"uniform\"\ndelay_lo = 2", "faults.delay_lo"),
        ] {
            let text = doc(SQUARE, UNIFORM, &format!("[faults]\n{body}"));
            match ScenarioSpec::from_toml(&text) {
                Err(SpecError::Decode(e)) => assert_eq!(e.path, key, "{body}"),
                other => panic!("{body}: expected a decode error at {key}, got {other:?}"),
            }
        }
    }

    #[test]
    fn adversarial_fault_knobs_parse_from_their_literal() {
        let text = format!(
            "{SAMPLE}{}",
            r#"
[faults]
loss = 0.1
corruption_rate = 0.15
corruption_validate = false
quarantine_ticks = 48
corruption_tolerance = 0.3
backoff = "adaptive"
backoff_cap = 32
backoff_jitter = 0.25
drift_rate = 0.05
drift_skew = 3
probe_every = 4

[[faults.partition]]
kind = "bipartition"
axis = "y"
coord = 0.4
at = 10
heal_at = 90

[[faults.partition]]
kind = "links"
pairs = [[0, 3], [1, 7]]
at = 20
"#
        );
        let mut spec = sample_spec();
        spec.laacad.faults = Some(FaultSpec {
            loss: 0.1,
            corruption_rate: 0.15,
            corruption_validate: false,
            quarantine_ticks: 48,
            corruption_tolerance: 0.3,
            partition: vec![
                PartitionSpec {
                    kind: PartitionKindSpec::Bipartition {
                        axis: 'y',
                        coord: 0.4,
                    },
                    at: 10,
                    heal_at: Some(90),
                },
                PartitionSpec {
                    kind: PartitionKindSpec::Links {
                        pairs: vec![(0, 3), (1, 7)],
                    },
                    at: 20,
                    heal_at: None,
                },
            ],
            backoff: BackoffSpec::Adaptive {
                cap: 32,
                jitter: 0.25,
            },
            drift_rate: 0.05,
            drift_skew: 3,
            probe_every: 4,
            ..FaultSpec::default()
        });
        assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);
        // An omitted axis cuts along x.
        let x = text.replace("axis = \"y\"\n", "");
        let back = ScenarioSpec::from_toml(&x).unwrap();
        assert_eq!(
            back.laacad.faults.unwrap().partition[0].kind,
            PartitionKindSpec::Bipartition {
                axis: 'x',
                coord: 0.4
            }
        );

        // The mapped plan carries every adversarial knob.
        let (plan, proto) = spec.laacad.faults.as_ref().unwrap().to_plan();
        let corruption = plan.corruption.expect("corruption enabled");
        assert_eq!(corruption.rate, 0.15);
        assert!(!corruption.validate);
        assert_eq!(plan.partitions.len(), 2);
        assert_eq!(
            plan.drift,
            Some(laacad_dist::Drift {
                rate: 0.05,
                skew: 3
            })
        );
        assert_eq!(
            proto.backoff,
            laacad_dist::Backoff::ExponentialJittered {
                cap: 32,
                jitter: 0.25
            }
        );
    }

    #[test]
    fn adversarial_fault_knobs_validate() {
        let base = "name = \"x\"\n[region]\nkind = \"square\"\nside = 1.0\n\
                    [placement]\nkind = \"uniform\"\nn = 8\n[laacad]\nk = 1\n";
        let bad_rate = format!("{base}[faults]\ncorruption_rate = 1.5\n");
        assert!(ScenarioSpec::from_toml(&bad_rate).is_err());
        let bad_drift = format!("{base}[faults]\ndrift_rate = 1.0\n");
        assert!(ScenarioSpec::from_toml(&bad_drift).is_err());
        let bad_backoff = format!("{base}[faults]\nbackoff = \"quadratic\"\n");
        assert!(ScenarioSpec::from_toml(&bad_backoff).is_err());
        let bad_axis = format!(
            "{base}[faults]\n[[faults.partition]]\nkind = \"bipartition\"\naxis = \"z\"\n\
             coord = 0.5\nat = 0\n"
        );
        assert!(ScenarioSpec::from_toml(&bad_axis).is_err());
    }

    #[test]
    fn coordinates_knob_parses_and_builds() {
        let rest = "coordinates = \"ranging\"\nranging_rel = 0.01\nranging_abs = 0.002\n";
        let spec = parse(SQUARE, UNIFORM, rest);
        assert_eq!(
            spec.laacad.coordinates,
            CoordinateMode::Ranging(laacad_wsn::ranging::RangingNoise::new(0.01, 0.002))
        );
        // Either sigma may be left out; it is zero then.
        let rel_only = parse(
            SQUARE,
            UNIFORM,
            "coordinates = \"ranging\"\nranging_rel = 0.01\n",
        );
        assert_eq!(
            rel_only.laacad.coordinates,
            CoordinateMode::Ranging(laacad_wsn::ranging::RangingNoise::new(0.01, 0.0))
        );
        let region = spec.region.build().unwrap();
        let config = spec.laacad.build(&region, 8, 7).unwrap();
        assert_eq!(config.coordinates, spec.laacad.coordinates);

        let bad = rest.replace("ranging_rel = 0.01", "ranging_rel = -1.0");
        assert!(ScenarioSpec::from_toml(&doc(SQUARE, UNIFORM, &bad)).is_err());
        let unknown = rest.replace("\"ranging\"", "\"gps\"");
        assert!(ScenarioSpec::from_toml(&doc(SQUARE, UNIFORM, &unknown)).is_err());
    }

    #[test]
    fn builds_region_placement_config() {
        let spec = sample_spec();
        let region = spec.region.build().unwrap();
        let pts = spec.placement.build(&region, 7).unwrap();
        assert_eq!(pts.len(), 40);
        assert!(pts.iter().all(|&p| region.contains(p)));
        let config = spec.laacad.build(&region, pts.len(), 7).unwrap();
        assert_eq!(config.k, 2);
        assert!(config.gamma > 0.0);
        assert!(config.epsilon > 0.0);
    }

    #[test]
    fn corner_placement_hugs_the_min_corner() {
        let region = RegionSpec::Named("unit_square".into()).build().unwrap();
        let pts = PlacementSpec::Corner { n: 30, radius: 0.1 }
            .build(&region, 3)
            .unwrap();
        assert!(pts.iter().all(|p| p.x < 0.35 && p.y < 0.35));
    }

    #[test]
    fn all_gallery_names_build() {
        for name in [
            "unit_square",
            "l_shape",
            "cross",
            "coast",
            "lakes",
            "corridor",
            "forest",
        ] {
            assert!(RegionSpec::Named(name.into()).build().is_ok(), "{name}");
        }
        assert!(RegionSpec::Named("atlantis".into()).build().is_err());
    }

    #[test]
    fn decode_errors_carry_paths() {
        let err = ScenarioSpec::from_toml("name = \"x\"\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("region"), "{msg}");
        let doc = "name = \"x\"\n[region]\nkind = \"sphere\"\n";
        let msg = ScenarioSpec::from_toml(doc).unwrap_err().to_string();
        assert!(msg.contains("region.kind"), "{msg}");
    }

    #[test]
    fn retired_engine_knobs_are_refused() {
        for key in [
            "cache",
            "dirty_skip",
            "exact_reach",
            "warm_start",
            "incremental_index",
            "flat_grid",
            "arena",
            "snapshot_every",
        ] {
            let toml = format!(
                "name = \"x\"\n[region]\nkind = \"named\"\nname = \"unit_square\"\n\
                 [placement]\nkind = \"uniform\"\nn = 10\n[laacad]\nk = 1\n{key} = false\n"
            );
            let result = ScenarioSpec::from_toml(&toml);
            let Err(SpecError::Decode(e)) = result else {
                panic!("`{key}` was not refused: {result:?}");
            };
            assert!(e.path.ends_with(&format!("laacad.{key}")), "{e}");
            for accepted in AlgorithmSpec::KEYS {
                assert!(e.message.contains(accepted), "{e}");
            }
        }
        // The accepted keys still decode.
        assert_eq!(ScenarioSpec::from_toml(SAMPLE).unwrap(), sample_spec());
    }

    #[test]
    fn custom_placement_outside_region_rejected() {
        let region = RegionSpec::Square { side: 1.0 }.build().unwrap();
        let placement = PlacementSpec::Custom {
            points: vec![(0.5, 0.5), (2.0, 2.0)],
        };
        assert!(placement.build(&region, 0).is_err());
    }
}
