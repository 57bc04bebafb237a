//! # laacad-baselines — comparison deployments
//!
//! Everything the paper's evaluation compares against, implemented from
//! the cited constructions:
//!
//! * [`lattice`] — triangular-lattice deployments (the regular
//!   deployment behind Fig. 2's hop-count study);
//! * [`bai`] — Bai et al. \[3\], the *optimal* 2-coverage density
//!   `4π/(3√3)` and a pattern generator realizing it (Table I);
//! * [`ammari`] — Ammari & Das \[15\], whose Reuleaux-triangle lens
//!   deployments need `6k|A|/((4π−3√3)r²)` nodes for k-coverage
//!   (Table II);
//! * [`lloyd`] — a centroid-target (Lloyd) ablation of LAACAD's
//!   Chebyshev-center motion rule, the strategy of the paper's refs
//!   \[9\]/\[10\] generalized to order-k regions.
//!
//! # Example
//!
//! ```
//! // How many nodes does Bai et al.'s optimal pattern need to 2-cover
//! // 10⁴ m² with 3 m sensing range?  (Table I's N* formula.)
//! let n = laacad_baselines::bai::bai_min_nodes(1.0e4, 3.0);
//! assert!((n - 855.6).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ammari;
pub mod bai;
pub mod lattice;
pub mod lloyd;

pub use ammari::ammari_min_nodes;
pub use bai::{bai_min_nodes, bai_pattern};
pub use lattice::triangular_lattice;
pub use lloyd::{lloyd_run, LloydOutcome};
