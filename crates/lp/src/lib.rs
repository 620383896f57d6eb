//! Linear programming for Voronoi-cell approximation.
//!
//! The NN-cell approach computes, for every database point, the minimum
//! bounding rectangle of its Voronoi cell. Each of the `2·d` MBR extents is a
//! linear program ("maximize/minimize `xᵢ` subject to bisector halfspaces and
//! the data-space box"). This crate provides:
//!
//! * [`problem::Lp`] / [`problem::LpResult`] — problem and outcome types,
//! * [`simplex`] — a deterministic two-phase tableau **simplex** solver
//!   (the paper's \[Dan 66\] route; `O(m²)` memory, best for the small and
//!   medium constraint sets produced by the Point/Sphere/NN-Direction
//!   heuristics),
//! * [`seidel`] — **Seidel's randomized incremental LP** (the paper's
//!   \[Sei 90\] citation; `O(d)` extra space and expected `O(d!·m)` time —
//!   elegant for small `d`, used as cross-check and fallback),
//! * [`dual`] — **revised simplex on the dual** (`d` equality rows, `m`
//!   columns; no phase 1 thanks to the box rows) — the workhorse for the
//!   `Correct` strategy where `m ≈ N`,
//! * [`activeset`] — the paper's cited **Best & Ritter** \[BR 85\] style
//!   active-set method, exploiting the free feasible start (`P` lies inside
//!   its own cell),
//! * [`voronoi`] — the cell-extent solver assembling bisector constraints
//!   and running the `2·d` LPs, with an exactness-preserving constraint
//!   prefilter for large databases.
//!
//! All backends are cross-checked against each other by property tests.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
// Library code must degrade, not panic (the fallback chain exists for
// exactly that); tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod activeset;
pub mod dual;
pub mod problem;
pub mod seidel;
pub mod simplex;
pub mod voronoi;

pub use problem::{Lp, LpBudget, LpError, LpResult, SolverKind};
pub use voronoi::{cell_mbr, CellLpStats, CellSolve, VoronoiLp};

/// Feasibility / optimality tolerance shared by all backends.
///
/// Relative to unit-box coordinates; loose enough to survive long pivot
/// chains, tight enough that distinct Voronoi vertices at database scale
/// (nearest-neighbor distances ≳ 1e-3) are never conflated.
pub const LP_EPS: f64 = 1e-9;
