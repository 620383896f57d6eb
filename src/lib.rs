//! # nncell — Fast Nearest Neighbor Search in High-Dimensional Space
//!
//! A from-scratch Rust implementation of the *NN-cell* approach of
//! Berchtold, Ertl, Keim, Kriegel and Seidl (ICDE 1998): exact
//! nearest-neighbor search by **precomputing the solution space**.
//!
//! For every database point the first-order Voronoi cell (its *NN-cell*) is
//! approximated by a minimum bounding hyper-rectangle obtained from `2·d`
//! linear programs; the rectangles are stored in an X-tree, and a
//! nearest-neighbor query becomes a cheap *point query* on that index.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`geom`] — points, MBRs, halfspaces, metrics ([`nncell_geom`])
//! * [`lp`] — simplex & Seidel LP solvers, Voronoi-cell extents ([`nncell_lp`])
//! * [`index`] — R\*-tree and X-tree on a simulated page store ([`nncell_index`])
//! * [`data`] — workload generators ([`nncell_data`])
//! * [`core`] — the NN-cell index itself ([`nncell_core`])
//!
//! ## Quickstart
//!
//! ```
//! use nncell::core::{NnCellIndex, BuildConfig, Query, QueryError, Strategy};
//! use nncell::data::{UniformGenerator, Generator};
//!
//! let points = UniformGenerator::new(6).generate(500, 42);
//! let index = NnCellIndex::build(points.clone(), BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
//!
//! // The query engine is the query API: typed requests in, responses with
//! // per-query statistics out.
//! let engine = index.engine();
//! let hit = engine.execute(&Query::nn(vec![0.3; 6])).unwrap();
//! // The NN-cell result is exact: it matches a linear scan.
//! let scan = nncell::core::linear_scan_nn(&points, &[0.3; 6]).unwrap();
//! assert_eq!(hit.best, scan);
//! assert!(hit.stats.candidates >= 1);
//!
//! // Batches fan out across a thread pool, bit-identical to sequential.
//! let queries = vec![Query::nn(vec![0.7; 6]), Query::knn(vec![0.2; 6], 10)];
//! let responses = engine.batch(&queries);
//! assert_eq!(responses[1].as_ref().unwrap().len(), 10);
//!
//! // Malformed input is a typed error, not a silent `None`.
//! assert_eq!(
//!     engine.execute(&Query::nn(vec![0.5])).unwrap_err(),
//!     QueryError::DimMismatch { expected: 6, got: 1 }
//! );
//! ```
//!
//! Everything configurable hangs off [`core::BuildConfig`]: the
//! constraint-selection [`core::Strategy`], the LP backend, cell
//! decomposition, threads for the build phase, and insert-time refinement.
//! Built indexes persist with `index.save(path)` /
//! [`core::NnCellIndex::load`] (no LP reruns on load), support dynamic
//! [`core::NnCellIndex::insert`] / [`core::NnCellIndex::remove`], and work
//! with any positive-diagonal weighted Euclidean metric
//! ([`geom::WeightedEuclidean`]).
//!
//! Dynamic indexes can also run **crash-consistently**:
//! [`core::ShardedIndex::open_durable`] journals every update to a
//! write-ahead log (fsynced before acknowledgement), acknowledges it from
//! a memtable tail that a background folder applies to the cells, and
//! rotates snapshots atomically, so acknowledged updates survive
//! `kill -9` — see `DESIGN.md` §9 and `tests/crash_recovery.rs`.
//!
//! The stack is observable end to end:
//! [`core::NnCellIndex::attach_metrics`] wires query latency histograms,
//! LP/tree/WAL counters, a build-phase profiler, and a slow-query ring
//! into a lock-light [`core::Registry`] whose snapshots render Prometheus
//! text or JSON — opt-in, allocation-free on the hot path (`DESIGN.md`
//! §11).
//!
//! Runnable walkthroughs live in `examples/` (`quickstart`,
//! `image_retrieval`, `molecular_screening`, `dynamic_updates`,
//! `voronoi_2d`), and the `nncell` CLI (`crates/cli`) wraps generate /
//! build / insert / remove / recover / query / info / stats / bench flows
//! for the shell.

pub use nncell_core as core;
pub use nncell_data as data;
pub use nncell_geom as geom;
pub use nncell_index as index;
pub use nncell_lp as lp;

pub use nncell_core::error;
pub use nncell_core::Error;

/// The names almost every nncell program needs, importable in one line:
///
/// ```
/// use nncell::prelude::*;
///
/// let points = vec![
///     geom::Point::new(vec![0.2, 0.3]),
///     geom::Point::new(vec![0.7, 0.8]),
/// ];
/// # // (the prelude also exports `Point` directly)
/// let index = NnCellIndex::build(points, BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
/// let hit = index.engine().execute(&Query::nn([0.25, 0.25])).unwrap();
/// assert_eq!(hit.best.id, 0);
/// ```
pub mod prelude {
    pub use crate::geom;
    pub use nncell_core::{
        BuildConfig, ConstraintPool, Error, NnCellIndex, Query, QueryEngine, QueryResponse,
        Registry, ShardedIndex, Strategy,
    };
    pub use nncell_geom::Point;
}
