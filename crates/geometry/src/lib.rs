//! # cd-geometry — planar geometry on the unit torus
//!
//! Section 5 of Naor & Wieder decomposes the two-dimensional space
//! `I = [0,1)²` into cells via a **planar ordinary Voronoi diagram**
//! maintained under joins/leaves of generators. This crate supplies
//! that substrate, built from scratch:
//!
//! * [`predicates`] — exact orientation and in-circle tests on an
//!   integer grid (i128 determinants: no floating-point robustness
//!   gambles in the combinatorial structure),
//! * [`delaunay`] — incremental Bowyer-Watson Delaunay triangulation
//!   (point location by walking, cavity retriangulation),
//! * [`voronoi`] — Voronoi diagrams *on the torus* via 3×3 ghost
//!   replication, exposing cell polygons and cell adjacency,
//! * [`polygon`] — convex-polygon utilities (area, centroid,
//!   separating-axis intersection tests) used to discretise the
//!   Gabber-Galil continuous expander.

#![deny(missing_docs)]

pub mod delaunay;
pub mod polygon;
pub mod predicates;
pub mod voronoi;

pub use delaunay::Delaunay;
pub use predicates::GridPoint;
pub use voronoi::TorusVoronoi;
