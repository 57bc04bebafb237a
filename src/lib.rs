//! # laacad-suite — umbrella crate for the LAACAD reproduction
//!
//! Re-exports the whole workspace behind one dependency so the examples
//! and integration tests (and downstream users who want everything) can
//! write `use laacad_suite::prelude::*`. The package's binary (`cargo run --release -- <spec>...`) is the
//! command line that runs any scenario spec under `scenarios/`.
//!
//! The implementation lives in the member crates:
//!
//! * [`laacad`] — the deployment algorithm (paper Algorithms 1–2),
//! * [`laacad_geom`] — computational-geometry kernel,
//! * [`laacad_region`] — target areas with obstacles,
//! * [`laacad_voronoi`] — order-k Voronoi machinery,
//! * [`laacad_wsn`] — network substrate (radio, ranging, MDS, energy),
//! * [`laacad_coverage`] — k-coverage verification,
//! * [`laacad_baselines`] — Bai \[3\], Ammari–Das \[15\], Lloyd, lattices,
//! * [`laacad_viz`] — SVG figure rendering,
//! * [`laacad_scenario`] — declarative scenarios, dynamic events, and the
//!   parallel campaign runner,
//! * [`laacad_serve`] — coverage-as-a-service: session snapshots, the
//!   multi-session host/scheduler, command-log replay.
//!
//! # Example
//!
//! ```
//! use laacad_suite::prelude::*;
//!
//! let region = Region::square(1.0)?;
//! let config = LaacadConfig::builder(2)
//!     .transmission_range(0.4)
//!     .max_rounds(30)
//!     .build()?;
//! let initial = sample_uniform(&region, 16, 7);
//! let mut sim = Session::builder(config)
//!     .region(region.clone())
//!     .positions(initial)
//!     .build()?;
//! let summary = sim.run();
//! let report = evaluate_coverage(sim.network(), &region, 2, 2000);
//! assert!(report.covered_fraction > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use laacad;
pub use laacad_baselines;
pub use laacad_coverage;
pub use laacad_geom;
pub use laacad_region;
pub use laacad_scenario;
pub use laacad_serve;
pub use laacad_viz;
pub use laacad_voronoi;
pub use laacad_wsn;

/// The convenient flat import surface.
pub mod prelude {
    pub use laacad::{
        min_node_deployment, CoordinateMode, HookAction, LaacadConfig, LaacadError, MovedNode,
        NetworkEvent, Observer, RingCapPolicy, RoundDelta, RunSummary, Session, SessionBuilder,
    };
    pub use laacad_coverage::{evaluate_coverage, CoverageReport};
    pub use laacad_geom::{Circle, Point, Polygon, Vector};
    pub use laacad_region::sampling::{sample_clustered, sample_uniform};
    pub use laacad_region::{gallery, Region};
    pub use laacad_scenario::{
        run_campaign, run_scenario, CampaignRunOptions, CampaignSpec, CheckpointPolicy, ParamGrid,
        ResultStore, RunOptions, ScenarioCheckpoint, ScenarioOutcome, ScenarioSpec,
    };
    pub use laacad_serve::{Command, HostConfig, QueuePolicy, Response, SessionHost, SessionId};
    pub use laacad_viz::{DeploymentPlot, LineChart};
    pub use laacad_wsn::{Network, NodeId};
}
