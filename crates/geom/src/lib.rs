//! # laacad-geom — 2-D computational-geometry kernel
//!
//! Dependency-free geometric substrate for the LAACAD reproduction
//! (ICDCS 2012). Everything the deployment algorithm needs is here:
//!
//! * [`Point`] / [`Vector`] arithmetic and [`angle`] utilities,
//! * [`Line`], [`Segment`], [`HalfPlane`] primitives with perpendicular
//!   bisectors (the building block of Voronoi regions),
//! * [`Polygon`] (convex and simple) with area/centroid/containment and
//!   Sutherland–Hodgman half-plane and convex–convex clipping,
//! * [`convex_hull`] (Andrew's monotone chain),
//! * [`Circle`] and [`min_enclosing_circle`] (Welzl's randomized algorithm
//!   — the paper computes Chebyshev centers this way, Sec. IV-B),
//! * [`arc::ArcCover`]: exact minimum coverage depth of a circle by arcs
//!   (the Algorithm 2 ring check, lines 5–8),
//! * [`transform::Isometry`] rigid motions and [`transform::procrustes`]
//!   alignment (used to map MDS-local coordinates back to motion commands).
//!
//! # Example
//!
//! ```
//! use laacad_geom::{Point, min_enclosing_circle};
//!
//! let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 1.0)];
//! let disk = min_enclosing_circle(&pts);
//! assert!((disk.center.x - 1.0).abs() < 1e-9);
//! assert!(pts.iter().all(|p| disk.contains(*p)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aabb;
pub mod angle;
pub mod arc;
pub mod circle;
pub mod halfplane;
pub mod hull;
pub mod line;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod segment;
pub mod transform;
pub mod welzl;

pub use aabb::{Aabb, DiagonalTol};
pub use angle::normalize_angle;
pub use arc::{Arc, ArcCover, ArcSpan, DepthScratch, PseudoArcCover};
pub use circle::Circle;
pub use halfplane::HalfPlane;
pub use hull::convex_hull;
pub use line::Line;
pub use point::{Point, Vector};
pub use polygon::{Polygon, PolygonBuf, PolygonPool};
pub use predicates::{orient2d, Orientation};
pub use segment::Segment;
pub use welzl::{min_enclosing_circle, min_enclosing_circle_in_place};

/// Default absolute tolerance used by the geometric predicates in this crate.
///
/// LAACAD works on kilometre-scale coordinates with metre-scale features, so
/// `1e-9` gives ~µm resolution while staying far above `f64` noise.
pub const EPS: f64 = 1e-9;
