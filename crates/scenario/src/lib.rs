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
//! Two functions run specs. [`run_scenario`] runs one cell (spec +
//! seed); its [`RunOptions`] add a telemetry recorder and a
//! [`CheckpointPolicy`]. A [`CampaignSpec`] sweeps a scenario over a
//! seed × parameter grid and [`run_campaign`] runs its cells across all
//! cores through [`run_scenario`]; its [`CampaignRunOptions`] stream
//! per-round metrics and final [`laacad_coverage::CoverageReport`]s into
//! a deterministic JSONL/CSV [`ResultStore`] (same campaign, same bytes,
//! every time), add per-cell telemetry files and report progress. The
//! options only observe: outcomes are bit-identical whatever they are.
//! The repository's command line (`cargo run --release -- <spec>...`)
//! is a thin layer over [`run_campaign`].
//!
//! # Example
//!
//! ```
//! use laacad_scenario::{
//!     run_campaign, to_jsonl, CampaignRunOptions, CampaignSpec, ResultStore, ScenarioSpec,
//! };
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
//! let dir = std::env::temp_dir().join("laacad-scenario-doc");
//! let store = ResultStore::new(&dir);
//! let options = CampaignRunOptions {
//!     store: Some(&store),
//!     ..CampaignRunOptions::default()
//! };
//! let results = run_campaign(&campaign, options)?;
//! assert_eq!(results.len(), 2);
//! for cell in &results {
//!     let outcome = cell.outcome.as_ref().expect("cell ran");
//!     assert!(outcome.coverage.covered_fraction > 0.9);
//!     assert_eq!(outcome.events.len(), 1); // the failure fired
//! }
//! // The store holds the results streamed cell by cell.
//! let jsonl = std::fs::read_to_string(dir.join("quick.jsonl"))?;
//! assert_eq!(jsonl, to_jsonl(&results));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod checkpoint;
pub mod engine;
pub mod events;
pub mod json;
pub mod results;
pub mod spec;
pub mod toml;
pub mod value;

pub use campaign::{
    run_campaign, CampaignCell, CampaignProgress, CampaignRunOptions, CampaignSpec, CellInfo,
    CellResult, ParamGrid, ZipSpec,
};
pub use checkpoint::{ScenarioCheckpoint, CHECKPOINT_MAGIC};
pub use engine::{
    build_scenario, recovery_metrics, run_scenario, CheckpointPolicy, FaultOutcome,
    RecoverySummary, RoundMetric, RunOptions, ScenarioOutcome,
};
pub use events::{AppliedEvent, TimelineHook};
pub use results::{to_csv, to_jsonl, ResultStore};
pub use spec::{
    AlgorithmSpec, BackoffSpec, CrashSpec, DelaySpec, EvaluationSpec, EventAction, EventSpec,
    FaultSpec, PartitionKindSpec, PartitionSpec, PlacementSpec, RegionSpec, ScenarioSpec,
    SpecError,
};
pub use value::Value;
