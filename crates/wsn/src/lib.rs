//! # laacad-wsn — the wireless-sensor-network substrate
//!
//! Everything LAACAD assumes of its platform (paper Sec. III-A), built as
//! a simulation substrate:
//!
//! * [`node::SensorNode`] / [`Network`] — mobile nodes with tunable
//!   sensing ranges and an identical transmission range `γ`, stored
//!   struct-of-arrays and indexed by a uniform grid ([`flat::GridIndex`]:
//!   the dense [`flat::FlatGrid`] or the hash
//!   [`spatial::SpatialGrid`]) for O(1)-ish range queries;
//! * [`radio`] — the unit-disk communication graph, hop distances,
//!   connected components, and message accounting;
//! * [`multihop`] — the `N(n_i, ρ)` neighborhoods of Algorithm 2 (nodes
//!   within Euclidean radius `ρ`, reached within `⌈ρ/γ⌉` hops);
//! * [`ranging`] + [`mds`] + [`localize`] — noisy pairwise ranging and the
//!   classical-MDS local coordinate construction of Algorithm 2 line 4
//!   (paper ref \[28\], Shang & Ruml), mapped back with Procrustes;
//! * [`energy`] — the sensing-energy model `E(r) = π r²` (generalizable
//!   exponent) behind Fig. 7;
//! * [`mobility`] — motion execution with step-size `α` and odometry.
//!
//! # Example
//!
//! ```
//! use laacad_geom::Point;
//! use laacad_wsn::{Network, NodeId};
//!
//! let mut net = Network::new(0.15); // transmission range γ = 150 m
//! let a = net.add_node(Point::new(0.0, 0.0));
//! let b = net.add_node(Point::new(0.1, 0.0));
//! let c = net.add_node(Point::new(0.9, 0.9));
//! assert!(net.one_hop_neighbors(a).contains(&b));
//! assert!(!net.one_hop_neighbors(a).contains(&c));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod energy;
pub mod flat;
pub mod localize;
pub mod mds;
pub mod mobility;
pub mod multihop;
pub mod network;
pub mod node;
pub mod radio;
pub mod ranging;
pub mod spatial;

pub use adjacency::Adjacency;
pub use flat::{FlatGrid, GridIndex};
pub use network::Network;
pub use node::{NodeId, SensorNode};
