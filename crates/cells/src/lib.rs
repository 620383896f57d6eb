//! The NN-cells of Berchtold, Ertl, Keim, Kriegel & Seidl, *"Fast Nearest
//! Neighbor Search in High-dimensional Space"*, ICDE 1998 — the paper's
//! contribution, built offline from a serving index.
//!
//! The paper **precomputes the solution space**: every database point's
//! first-order Voronoi cell (*NN-cell*) is approximated by its minimum
//! bounding rectangle (computed by `2·d` linear programs over bisector
//! halfspaces) and the rectangles are stored in an X-tree. A
//! nearest-neighbor query is then a **point query** on that index plus a
//! distance check over the returned candidates — and because every
//! approximation is a *superset* of the true cell, the result is **exact**
//! (no false dismissals; Lemmas 1 and 2 of the paper, enforced here by
//! property tests).
//!
//! No query or write of the serving stack (`nncell-core`) reads a cell,
//! and this is the only crate besides the `nncell` facade that links the
//! LP solvers. A [`CellSet`] reads an index only through its public API
//! (points, liveness, metric) and builds its own trees.
//!
//! * [`CellSet`] — the NN-cells of one index, built with a [`CellConfig`],
//!   with the paper's cell-tree query [`CellSet::nn`],
//! * [`Strategy`] — the four constraint-selection algorithms (*Correct*,
//!   *Point*, *Sphere*, *NN-Direction*) plus the exactness-preserving
//!   *CorrectPruned* optimization,
//! * [`decompose`] — the MBR decomposition of section 3 (splitting each cell
//!   along its most oblique dimensions to cut approximation overlap),
//! * [`quality`] — the paper's overlap and quality-to-performance metrics.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
// Library code must degrade, not panic (LP fallback chain); tests may
// unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cells;
pub mod config;
pub mod decompose;
pub mod quality;
pub mod strategy;

pub use cells::{BuildProfile, CellApprox, CellSet, CellStats, IntegrityReport, PhaseTiming};
pub use config::{CellConfig, CellConfigBuilder, Strategy};
pub use quality::{
    average_overlap, expected_candidates, measured_candidates, quality_to_performance,
};
