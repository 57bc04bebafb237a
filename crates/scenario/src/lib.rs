//! # laacad-scenario — declarative scenarios, dynamic events, campaigns
//!
//! The paper evaluates LAACAD on a handful of hand-coded setups; this
//! crate turns "a setup" into data. A [`ScenarioSpec`] — written in TOML
//! or JSON (see `scenarios/` at the repository root) or built
//! programmatically — describes:
//!
//! * the **region** (named gallery entry, square/rect, or custom polygon
//!   with obstacle holes),
//! * the **initial placement** (uniform, clustered, corner-dump, custom),
//! * the **LAACAD configuration** (with `γ`/`ε` derived from the region
//!   and population when omitted),
//! * a timeline of **dynamic events** — node failures (random fraction,
//!   explicit ids, or disk-shaped destruction), battery depletion via the
//!   [`laacad_wsn::energy`] model, node insertion, and mid-run `k`/`α`
//!   changes — compiled onto the session through the
//!   [`laacad::Observer`] API,
//! * an optional **fault model** (`[faults]`: message loss, duplication,
//!   per-link delay distributions, crash/recover) that routes the run
//!   through the asynchronous message-driven executor in `laacad-dist`
//!   and reports convergence-under-faults metrics next to a fault-free
//!   baseline,
//! * and **evaluation** settings (coverage sampling, energy exponent).
//!
//! A [`CampaignSpec`] sweeps a scenario over a seed × parameter grid and
//! [`run_campaign`] executes the cells across all cores
//! ([`exec::parallel_map`]), streaming per-round metrics and final
//! [`laacad_coverage::CoverageReport`]s into a deterministic JSONL/CSV
//! [`ResultStore`]: same campaign, same bytes, every time.
//!
//! # Example
//!
//! ```
//! use laacad_scenario::{run_campaign, CampaignSpec, ScenarioSpec};
//!
//! let toml = r#"
//! name = "quick"
//! [region]
//! kind = "named"
//! name = "unit_square"
//! [placement]
//! kind = "uniform"
//! n = 12
//! [laacad]
//! k = 1
//! max_rounds = 40
//! [[events]]
//! round = 10
//! action = "fail_fraction"
//! fraction = 0.1
//! "#;
//! let spec = ScenarioSpec::from_toml(toml)?;
//! let campaign = CampaignSpec::over_seeds(spec, [1, 2]);
//! let results = run_campaign(&campaign)?;
//! assert_eq!(results.len(), 2);
//! for cell in &results {
//!     let outcome = cell.outcome.as_ref().expect("cell ran");
//!     assert!(outcome.coverage.covered_fraction > 0.9);
//!     assert_eq!(outcome.events.len(), 1); // the failure fired
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod checkpoint;
pub mod engine;
pub mod events;
pub mod exec;
pub mod json;
pub mod results;
pub mod spec;
pub mod toml;
pub mod value;

pub use campaign::{
    run_campaign, run_campaign_observed, run_campaign_streamed, CampaignCell, CampaignProgress,
    CampaignRunOptions, CampaignSpec, CellInfo, CellResult, ParamGrid, ZipSpec,
};
pub use checkpoint::{
    resume_scenario, run_scenario_checkpointed, ScenarioCheckpoint, CHECKPOINT_MAGIC,
};
pub use engine::{
    build_scenario, recovery_metrics, run_scenario, run_scenario_recorded, FaultOutcome,
    RecoverySummary, RoundMetric, ScenarioOutcome,
};
pub use events::{AppliedEvent, TimelineHook};
pub use results::{to_csv, to_jsonl, ResultStore, StreamingResultFiles};
pub use spec::{
    AlgorithmSpec, BackoffSpec, CrashSpec, DelaySpec, EvaluationSpec, EventAction, EventSpec,
    FaultSpec, PartitionKindSpec, PartitionSpec, PlacementSpec, RegionSpec, ScenarioSpec,
    SpecError,
};
pub use value::Value;
