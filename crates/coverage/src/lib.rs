//! # laacad-coverage — coverage & connectivity evaluation
//!
//! Verification tooling for the paper's central property (Def. 1): every
//! point of the target area `A` is covered by at least `k` sensing disks.
//!
//! * [`grid::CoverageReport`] — grid-sampled coverage-degree statistics
//!   (fraction k-covered, minimum degree, holes);
//! * [`metrics`] — sensing-range statistics and the "even clustering"
//!   cluster-size histogram behind Fig. 5's observation that nodes gather
//!   in groups of `k`;
//! * [`optimality`] — the optimal-assignment range bound of Prop. 2 and
//!   a worst-case fault-tolerance probe.
//!
//! # Example
//!
//! ```
//! use laacad_coverage::grid::evaluate_coverage;
//! use laacad_geom::Point;
//! use laacad_region::Region;
//! use laacad_wsn::Network;
//!
//! let region = Region::square(1.0).unwrap();
//! let mut net = Network::from_positions(0.5, [Point::new(0.5, 0.5)]);
//! net.set_sensing_radius(laacad_wsn::NodeId(0), 0.8); // covers most of A
//! let report = evaluate_coverage(&net, &region, 1, 2000);
//! assert!(report.covered_fraction > 0.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod grid;
pub mod metrics;
pub mod optimality;

pub use grid::{evaluate_coverage, CoverageReport};
pub use metrics::{radius_stats, RadiusStats};
pub use optimality::{fault_tolerance, optimal_range_bound, FaultToleranceReport};
