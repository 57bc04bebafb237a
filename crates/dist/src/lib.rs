//! # laacad-dist — asynchronous message-driven LAACAD execution
//!
//! LAACAD is a *distributed* algorithm, but the paper (and the
//! synchronous [`laacad::Session`] engine) only ever executes it as
//! idealized lockstep rounds. This crate closes that gap: per-node
//! LAACAD state machines exchange explicit hello/ack messages through a
//! deterministic, seeded discrete-event queue, with a pluggable
//! [`FaultPlan`] injecting per-link delay distributions, message
//! loss/duplication, reordering jitter, node crash/recover events,
//! Byzantine payload [corruption](fault::Corruption), timed
//! [link partitions](partition), and per-node clock
//! [drift](fault::Drift). Retransmissions follow a pluggable
//! [`Backoff`] policy with per-node RTT estimation.
//!
//! Two properties anchor the design:
//!
//! * **Sync equivalence.** With the fault-free plan, every node's
//!   compute for round `r` lands on the same virtual tick and reads the
//!   same position snapshot the synchronous engine would — the final
//!   deployment (positions, sensing radii, ρ, message counts, round
//!   records) is *bit-identical* to [`laacad::Session::run`].
//! * **Reproducibility.** All randomness flows from seeded per-node
//!   [`SplitMix64`](laacad_region::sampling::SplitMix64) streams
//!   consumed in each node's transmission order; `(seed, FaultPlan)`
//!   replays byte-identically, with no wall-clock anywhere. Events live
//!   in a tick-bucketed queue that hands the executor whole same-tick
//!   batches in push order, and the executor processes them one by one
//!   on the calling thread.
//!
//! ```
//! use laacad::LaacadConfig;
//! use laacad_dist::{AsyncConfig, AsyncExecutor, FaultPlan};
//! use laacad_region::{sampling::sample_uniform, Region};
//!
//! let region = Region::square(1.0).unwrap();
//! let positions = sample_uniform(&region, 12, 7);
//! let config = LaacadConfig::builder(1)
//!     .transmission_range(0.45)
//!     .build()
//!     .unwrap();
//! let mut exec = AsyncExecutor::new(
//!     config,
//!     region,
//!     positions,
//!     FaultPlan::none(),
//!     AsyncConfig::default(),
//! )
//! .unwrap();
//! let report = exec.run();
//! assert!(report.summary.rounds > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod executor;
pub mod fault;
pub mod partition;
mod queue;

pub use backoff::{Backoff, RttEstimator};
pub use executor::{
    AsyncConfig, AsyncExecutor, AsyncRunReport, ProbeFn, ProtocolStats, Termination,
};
pub use fault::{Corruption, CrashEvent, DelayModel, Drift, FaultPlan};
pub use partition::{Axis, PartitionKind, PartitionSchedule};
