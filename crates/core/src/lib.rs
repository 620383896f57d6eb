//! The serving stack of `nncell`: an exact nearest-neighbor service over
//! a point X-tree, after Berchtold, Ertl, Keim, Kriegel & Seidl, *"Fast
//! Nearest Neighbor Search in High-dimensional Space"*, ICDE 1998.
//!
//! Every query and write goes through this crate, and none of it solves
//! an LP. The paper's NN-cells (Voronoi-cell MBRs, the constraint
//! strategies, decomposition and the quality metrics) are built offline
//! from an index by the `nncell-cells` crate.
//!
//! * [`NnCellIndex`] — the serving index: points, liveness and a point
//!   X-tree; build / query / insert / remove / persist. Queries walk the
//!   point tree ([`QueryEngine`]), bit-identical to a linear scan,
//! * [`ShardedIndex`] — the shards every `--index` path and durable
//!   directory opens as, with the journaled memtable tail and the fold
//!   ([`durable`], [`wal`], [`memtable`]),
//! * [`Query`] — typed requests (k-NN, radius, deadlines) and their
//!   per-query statistics,
//! * [`Registry`] — the metrics every layer records into.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
// Library code must degrade, not panic (typed errors, poison tolerance);
// tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod config;
pub mod durable;
pub mod engine;
pub mod error;
pub mod index;
pub mod memtable;
pub mod metrics;
pub mod persist;
pub mod query;
pub mod scan;
pub mod shard;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use config::{BuildConfig, BuildConfigBuilder, InputPolicy};
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
pub use persist::PersistError;
pub use vfs::{FaultSchedule, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{read_wal, WalMetrics, WalRecord, WalReplay, WalTail, WalWriter};
pub use scan::{linear_scan_knn, linear_scan_nn};
