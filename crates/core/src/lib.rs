//! # laacad — Load-bAlancing k-Area Coverage through Autonomous Deployment
//!
//! A faithful implementation of **LAACAD** (Li, Luo, Xin, Wang & He,
//! *ICDCS 2012*): mobile sensor nodes iteratively move toward the
//! Chebyshev centers of their order-k Voronoi dominating regions, driving
//! the network to a k-coverage deployment that minimizes the maximum
//! sensing range (the k-CSDP objective, paper Eq. 2–5).
//!
//! The algorithm is *localized*: each node discovers exactly the
//! neighborhood it needs through an expanding-ring search whose
//! termination condition — every point of the circle of radius `ρ/2`
//! strictly dominated by ≥ k other nodes — is evaluated exactly via arc
//! coverage (Algorithm 2). Convergence holds for any step size
//! `α ∈ (0, 1]` (paper Prop. 4) and the output is a local minimum of
//! k-CSDP (Cor. 1).
//!
//! ## Quickstart
//!
//! ```
//! use laacad::{LaacadConfig, Session};
//! use laacad_region::{sampling::sample_uniform, Region};
//!
//! let region = Region::square(1.0)?;
//! let initial = sample_uniform(&region, 30, 42);
//! let config = LaacadConfig::builder(2) // k = 2
//!     .transmission_range(0.25)
//!     .max_rounds(60)
//!     .build()?;
//! let mut session = Session::builder(config)
//!     .region(region)
//!     .positions(initial)
//!     .build()?;
//! // Drive round by round: every step reports exactly what changed.
//! let delta = session.step();
//! assert!(!delta.moved.is_empty(), "a fresh deployment moves");
//! let summary = session.run(); // continue to convergence
//! assert!(summary.rounds > 0);
//! // Every node now sits (near) the Chebyshev center of its dominating
//! // region; sensing ranges are set to the per-node circumradii.
//! assert!(session.network().max_sensing_radius() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The repository README lists the crates and the command that
//! reproduces the paper's figures and tables from the specs under
//! `scenarios/` (`cargo run --release -- scenarios/<spec>.toml`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod history;
pub mod hooks;
pub mod localview;
pub mod minnode;
pub mod observer;
pub mod protocol;
pub mod ring;
pub mod scratch;
pub mod session;
pub mod snapshot;

pub use config::{CoordinateMode, ExecutionMode, LaacadConfig, LaacadConfigBuilder, RingCapPolicy};
pub use error::LaacadError;
pub use history::{History, RoundReport, RunSummary};
pub use hooks::{EventOutcome, HookAction, NetworkEvent};
pub use localview::{compute_local_view, compute_node_view, LocalView, NodeView};
pub use minnode::{min_node_deployment, MinNodeResult};
pub use observer::Observer;
pub use protocol::{finalize_views, RoundAggregate};
pub use ring::{
    expanding_ring_search, expanding_ring_search_scratched, expanding_ring_search_status,
    DominationScratch, RingOutcome, RingStatus,
};
pub use scratch::ViewStore;
pub use session::{MovedNode, ObservedRound, RoundDelta, Session, SessionBuilder, SessionCounters};
pub use snapshot::{fnv1a64, SnapshotError, SNAPSHOT_MAGIC};

/// The telemetry layer (re-exported `laacad-telemetry`): [`Recorder`]
/// implementations plug into [`Session::set_recorder`], sinks export
/// JSONL metric streams and Chrome trace-event files. See the README's
/// "Observability" section for wiring.
pub use laacad_telemetry as telemetry;
pub use laacad_telemetry::{
    ChromeTraceSink, JsonlSink, NoopRecorder, Recorder, SessionTelemetry, Stage, TelemetryRegistry,
};
