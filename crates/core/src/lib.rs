//! The NN-cell index — the contribution of Berchtold, Ertl, Keim, Kriegel &
//! Seidl, *"Fast Nearest Neighbor Search in High-dimensional Space"*,
//! ICDE 1998 — and the exact nearest-neighbor service built around it.
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
//! * [`NnCellIndex`] — the serving index: points, liveness and a point
//!   X-tree; build / query / insert / remove / persist. Queries walk the
//!   point tree ([`QueryEngine`]), bit-identical to a linear scan,
//! * [`CellSet`] — the NN-cells of one index, built offline with a
//!   [`CellConfig`], with the paper's cell-tree query [`CellSet::nn`],
//! * [`Strategy`] — the four constraint-selection algorithms (*Correct*,
//!   *Point*, *Sphere*, *NN-Direction*) plus the exactness-preserving
//!   *CorrectPruned* optimization,
//! * [`decompose`] — the MBR decomposition of section 3 (splitting each cell
//!   along its most oblique dimensions to cut approximation overlap),
//! * [`quality`] — the paper's overlap and quality-to-performance metrics.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
// Library code must degrade, not panic (LP fallback chain, typed errors);
// tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cells;
pub mod config;
pub mod decompose;
pub mod durable;
pub mod engine;
pub mod error;
pub mod index;
pub mod memtable;
pub mod metrics;
pub mod persist;
pub mod query;
pub mod quality;
pub mod scan;
pub mod shard;
pub mod snapshot;
pub mod strategy;
pub mod vfs;
pub mod wal;

pub use cells::{BuildProfile, CellApprox, CellSet, CellStats, IntegrityReport, PhaseTiming};
pub use config::{
    BuildConfig, BuildConfigBuilder, CellConfig, CellConfigBuilder, InputPolicy, Strategy,
};
pub use durable::{DurableError, RecoveryReport};
pub use engine::{QueryEngine, QueryScratch};
pub use error::Error;
pub use index::{BuildError, BuildStats, NnCellIndex, QueryResult};
pub use memtable::{FoldConfig, FoldError, FoldStatus, TailSnapshot};
pub use metrics::{EngineMetrics, IndexMetrics, SLOW_QUERY_CAPACITY};
pub use nncell_obs::{Registry, SlowQueryEntry, SlowQueryLog, Snapshot};
pub use query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
pub use shard::ShardedIndex;
pub use snapshot::SnapshotCell;
pub use nncell_lp::SolverKind;
pub use persist::PersistError;
pub use vfs::{FaultSchedule, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{read_wal, WalMetrics, WalRecord, WalReplay, WalTail, WalWriter};
pub use quality::{
    average_overlap, expected_candidates, measured_candidates, quality_to_performance,
};
pub use scan::{linear_scan_knn, linear_scan_nn};
