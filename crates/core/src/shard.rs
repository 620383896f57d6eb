//! Sharded concurrent serving layer: S independent [`NnCellIndex`] shards
//! (each a point X-tree over its points) behind one exact query surface.
//!
//! # Partitioning and exactness
//!
//! Points are partitioned **round-robin** by global id: global id `g`
//! lives in shard `g % S` at local id `g / S` (so `global = local·S +
//! shard`, a bijection). Exact search is exact under partitioning: each
//! shard returns its exact local k nearest neighbors, and the k smallest
//! of the union — merged by `(distance, global id)` — are
//! exactly the unsharded answer, tie ordering included. The id mapping
//! preserves order: within a shard, ascending local id means ascending
//! global id, so per-shard `(dist, local id)` ordering merges into the
//! global `(dist, global id)` ordering without re-sorting.
//!
//! # Concurrency: one published snapshot per shard, one write path
//!
//! Each shard's index exists once in memory, as the immutable
//! `Arc` published in its [`SnapshotCell`]. Readers
//! ([`ShardedIndex::query`] / [`ShardedIndex::batch`], `&self`) load it and
//! run entirely on it, merging the shard's unfolded memtable tail by
//! linear scan. Every write ([`ShardedIndex::insert`] /
//! [`ShardedIndex::remove`], also `&self`) takes the same path: serialize
//! on one writer mutex, validate against snapshot + tail, journal through
//! the shard's WAL when durable, push onto the tail, acknowledge — O(1),
//! no copy. A supervised folder ([`ShardedIndex::run_folder`], or
//! [`ShardedIndex::fold_once`] / [`ShardedIndex::flush`]) clones the
//! published snapshot, applies the tail batch to the clone off-lock — one
//! point-tree insert or delete per record — and **publishes** it; that working
//! copy is the only clone the write path ever makes. Readers never block
//! on a write and never observe a half-applied mutation; a query
//! overlapping a publish simply answers from the version it loaded.
//!
//! # Durable layout
//!
//! ```text
//! dir/CURRENT        "sharded <S>"      (atomically written manifest)
//! dir/shard-0/       one journal directory (CURRENT, snapshot.G, wal.G)
//! dir/shard-1/       …
//! ```
//!
//! The top-level `CURRENT` only records the shard count; it is written
//! last at initialization (shard directories first, then the manifest via
//! the same `write_atomic` tmp+fsync+rename path), so it is the commit
//! point of the whole directory. Each shard directory keeps its own
//! generation machinery ([`crate::durable`]), so crash recovery is
//! per-shard WAL replay. A directory whose `CURRENT` holds a bare
//! generation number — the unsharded layout of earlier releases — opens
//! as one shard rooted at the directory itself. Round-robin assignment
//! makes the global id watermark recoverable: acknowledged inserts are a
//! prefix of the global id sequence, so `next_global` is the sum of
//! per-shard slot counts.

use crate::config::BuildConfig;
use crate::durable::{DurableError, Journal, RecoveryReport};
use crate::index::{
    validate_build_inputs, validate_point, BuildError, BuildStats, NnCellIndex, QueryResult,
};
use crate::memtable::{FoldConfig, FoldError, FoldStatus, Memtable, TailOp, TailSnapshot};
use crate::metrics::FoldMetrics;
use crate::persist::PersistError;
use crate::query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
use crate::snapshot::SnapshotCell;
use crate::vfs::{write_atomic, StdVfs, Vfs};
use crate::wal::WalRecord;
use nncell_geom::{DataSpace, Euclidean, Point};
use nncell_obs::Registry;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// File name of the plain (non-durable) sharded directory manifest.
const PLAIN_MANIFEST: &str = "MANIFEST";
/// Magic of the plain manifest: `nncell-sharded <S>`.
const PLAIN_MAGIC: &str = "nncell-sharded";
/// Magic of the durable `CURRENT` manifest: `sharded <S>`. Deliberately
/// not a number, so it can never be misread as the bare generation number
/// of the unsharded layout.
const DURABLE_MAGIC: &str = "sharded";
/// File name of the durable manifest (and of a shard's commit pointer).
const CURRENT: &str = "CURRENT";

/// Writer-side state, guarded by the single writer mutex.
struct Writer {
    /// One journal per shard for a durable index; empty in memory.
    journals: Vec<Journal>,
    /// The next unassigned global id. Round-robin: acknowledged ids are
    /// exactly `0..next_global`.
    next_global: usize,
}

/// Memtable-tier state: per-shard unindexed tails plus folder
/// supervision bookkeeping.
///
/// Lock order everywhere: `fold_lock` → writer mutex → tail mutexes.
/// Queries take only tail mutexes (for a bounded snapshot clone), writers
/// take writer → tail with O(1)/O(tail) holds, and the folder's clone and
/// point-tree updates happen with **no** lock held — only its freeze and
/// publish steps touch the mutexes, both O(tail) at worst.
struct TailState {
    cfg: FoldConfig,
    tails: Vec<Mutex<Memtable>>,
    /// Serializes folds, flushes, checkpoints, and metric attachment so a
    /// snapshot publish can never interleave with a generation rotation
    /// or another fold.
    fold_lock: Mutex<()>,
    /// Unfolded operations across all shards (the backpressure input).
    depth: AtomicUsize,
    degraded: AtomicBool,
    consecutive_failures: AtomicU32,
    folds: AtomicU64,
    folded_records: AtomicU64,
    failures: AtomicU64,
    metrics: Mutex<Option<FoldMetrics>>,
}

impl TailState {
    fn new(shards: usize) -> Self {
        Self {
            cfg: FoldConfig::default(),
            tails: (0..shards).map(|_| Mutex::new(Memtable::default())).collect(),
            fold_lock: Mutex::new(()),
            depth: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
            folds: AtomicU64::new(0),
            folded_records: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            metrics: Mutex::new(None),
        }
    }

    fn with_metrics(&self, f: impl FnOnce(&FoldMetrics)) {
        let guard = match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if let Some(m) = guard.as_ref() {
            f(m);
        }
    }

    fn add_depth(&self, n: usize) {
        let now = self.depth.fetch_add(n, Ordering::AcqRel) + n;
        self.with_metrics(|m| m.tail_depth.set(now as i64));
    }

    fn sub_depth(&self, n: usize) {
        let now = self.depth.fetch_sub(n, Ordering::AcqRel).saturating_sub(n);
        self.with_metrics(|m| m.tail_depth.set(now as i64));
    }

    /// The backpressure gate of both write kinds: refuses (and counts)
    /// a write while the tail is at its high-watermark.
    fn admit(&self) -> Result<(), DurableError> {
        let depth = self.depth.load(Ordering::Acquire);
        if depth >= self.cfg.tail_max {
            self.with_metrics(|m| m.backpressure.inc());
            return Err(DurableError::Backpressure {
                tail: depth,
                max: self.cfg.tail_max,
            });
        }
        Ok(())
    }

    fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::AcqRel);
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        self.with_metrics(|m| m.failures.inc());
        if streak >= self.cfg.degrade_after && !self.degraded.swap(true, Ordering::AcqRel) {
            self.with_metrics(|m| m.degraded.set(1));
        }
    }

    fn record_success(&self, records: usize, elapsed: Duration) {
        self.consecutive_failures.store(0, Ordering::Release);
        if self.degraded.swap(false, Ordering::AcqRel) {
            self.with_metrics(|m| m.degraded.set(0));
        }
        self.folds.fetch_add(1, Ordering::AcqRel);
        self.folded_records.fetch_add(records as u64, Ordering::AcqRel);
        self.with_metrics(|m| {
            m.folds.inc();
            m.folded_records.add(records as u64);
            m.latency_ns.record_duration(elapsed);
        });
    }
}

/// Poison-tolerant lock on a shard's memtable. Every critical section is
/// a handful of `Vec` pushes or a bounded clone — state stays consistent
/// even if a recording site panicked while holding the guard.
fn lock_mem(m: &Mutex<Memtable>) -> MutexGuard<'_, Memtable> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Poison-tolerant lock on the (state-free) fold serialization mutex.
fn lock_fold(m: &Mutex<()>) -> MutexGuard<'_, ()> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Sleeps for `dur` in small slices, returning early once `stop` is set —
/// keeps folder backoffs (up to the configured cap) from delaying
/// shutdown.
fn sleep_interruptible(stop: &AtomicBool, dur: Duration) {
    let mut left = dur;
    while !stop.load(Ordering::Acquire) && !left.is_zero() {
        let nap = left.min(Duration::from_millis(10));
        std::thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
}

/// S independent index shards behind one exact, concurrently servable
/// query API. See the module docs for the partitioning and snapshot
/// protocol. Built over the Euclidean metric (the durable layer's
/// contract).
///
/// All methods take `&self`: queries run on published snapshots, updates
/// serialize on an internal single-writer lock — share a `ShardedIndex`
/// (or an `Arc` of one) across threads freely.
pub struct ShardedIndex {
    dim: usize,
    cfg: BuildConfig,
    /// Published snapshots, one per shard: the only in-memory copy of
    /// each shard's index.
    snaps: Vec<SnapshotCell<NnCellIndex<Euclidean>>>,
    writer: Mutex<Writer>,
    /// Wall-clock seconds of the initial sharded build (0 for loads).
    build_seconds: f64,
    /// Points dropped by the global input validation under
    /// [`crate::InputPolicy::Skip`].
    skipped_points: usize,
    /// Per-shard reports of how each journal was opened or initialized;
    /// empty exactly when the index is in memory.
    recovery: Vec<RecoveryReport>,
    /// The memtable tier every write goes through.
    tail: TailState,
}

impl ShardedIndex {
    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    /// Builds a sharded index over `points`: global input validation
    /// (identical to [`NnCellIndex::build`], including
    /// [`crate::InputPolicy`] handling and error ids), round-robin
    /// partitioning, then one [`NnCellIndex::build`] per shard, each
    /// running in its own thread.
    ///
    /// # Errors
    /// The same [`BuildError`] contract as the unsharded build, with ids
    /// referring to positions in the global input.
    pub fn build(points: Vec<Point>, shards: usize, cfg: BuildConfig) -> Result<Self, BuildError> {
        assert!(shards >= 1, "need at least one shard");
        let Some(first) = points.first() else {
            return Err(BuildError::EmptyDatabase);
        };
        let dim = first.dim();
        let start = Instant::now();
        let (accepted, skipped) = validate_build_inputs(points, dim, cfg.input_policy)?;
        let next_global = accepted.len();
        let mut parts: Vec<Vec<Point>> = (0..shards)
            .map(|_| Vec::with_capacity(accepted.len() / shards + 1))
            .collect();
        for (g, p) in accepted.into_iter().enumerate() {
            parts[g % shards].push(p);
        }
        let built: Vec<Result<NnCellIndex<Euclidean>, BuildError>> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    let cfg = cfg.clone();
                    s.spawn(move || {
                        if part.is_empty() {
                            Ok(NnCellIndex::new(dim, cfg))
                        } else {
                            NnCellIndex::build(part, cfg)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build worker panicked"))
                .collect()
        });
        let indexes = built.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(
            dim,
            cfg,
            indexes,
            Vec::new(),
            next_global,
            start.elapsed().as_secs_f64(),
            skipped,
        ))
    }

    /// An empty sharded index of dimensionality `dim`, grown via
    /// [`Self::insert`].
    pub fn new(dim: usize, shards: usize, cfg: BuildConfig) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let indexes = (0..shards)
            .map(|_| NnCellIndex::new(dim, cfg.clone()))
            .collect();
        Self::assemble(dim, cfg, indexes, Vec::new(), 0, 0.0, 0)
    }

    /// Publishes `indexes` as the shard snapshots (moved, not copied) with
    /// their `journals` (empty for an in-memory index).
    fn assemble(
        dim: usize,
        cfg: BuildConfig,
        indexes: Vec<NnCellIndex<Euclidean>>,
        journals: Vec<Journal>,
        next_global: usize,
        build_seconds: f64,
        skipped_points: usize,
    ) -> Self {
        let shards = indexes.len();
        Self {
            dim,
            cfg,
            snaps: indexes.into_iter().map(SnapshotCell::new).collect(),
            recovery: journals.iter().map(|j| j.recovery().clone()).collect(),
            writer: Mutex::new(Writer {
                journals,
                next_global,
            }),
            build_seconds,
            skipped_points,
            tail: TailState::new(shards),
        }
    }

    /// Replaces the memtable tuning ([`FoldConfig::default`] until then):
    /// the tail high-watermark, folder pacing, and fault hooks. Call at
    /// construction time, before the index is shared.
    #[must_use]
    pub fn with_fold_config(mut self, cfg: FoldConfig) -> Self {
        self.tail.cfg = cfg;
        self
    }

    /// Journaled-but-unfolded operations across all shards.
    pub fn tail_depth(&self) -> usize {
        self.tail.depth.load(Ordering::Acquire)
    }

    /// Whether the folder has failed [`FoldConfig::degrade_after`]
    /// consecutive times. Writes keep landing in the tail (up to the
    /// high-watermark) and queries stay exact while degraded.
    pub fn is_degraded(&self) -> bool {
        self.tail.degraded.load(Ordering::Acquire)
    }

    /// A point-in-time view of the folder's health.
    pub fn fold_status(&self) -> FoldStatus {
        let ts = &self.tail;
        FoldStatus {
            tail_depth: ts.depth.load(Ordering::Acquire),
            degraded: ts.degraded.load(Ordering::Acquire),
            consecutive_failures: ts.consecutive_failures.load(Ordering::Acquire),
            folds: ts.folds.load(Ordering::Acquire),
            folded_records: ts.folded_records.load(Ordering::Acquire),
            failures: ts.failures.load(Ordering::Acquire),
        }
    }

    /// The memtable configuration.
    pub fn fold_config(&self) -> &FoldConfig {
        &self.tail.cfg
    }

    /// The writer lock. A poisoned lock is taken over: the guarded state
    /// stays valid at every step — a failed journal write poisons only
    /// that WAL, and the id watermark moves last.
    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        match self.writer.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.snaps.len()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The build configuration shards were built with.
    pub fn config(&self) -> &BuildConfig {
        &self.cfg
    }

    /// Total live points across all shards: the published snapshots plus
    /// the unfolded tails, counted under the writer lock (folds publish
    /// under it too), so acked writes are reflected before they fold.
    pub fn len(&self) -> usize {
        let _w = self.lock_writer();
        let mut total = 0usize;
        for (cell, tail) in self.snaps.iter().zip(&self.tail.tails) {
            let snap = cell.load();
            let m = lock_mem(tail);
            let snap_dead = m
                .removed_ids()
                .iter()
                .filter(|&&local| snap.is_live(local))
                .count();
            total += snap.len() + m.live_inserts() - snap_dead;
        }
        total
    }

    /// Whether no shard holds a live point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether updates are journaled through per-shard WALs.
    pub fn is_durable(&self) -> bool {
        !self.recovery.is_empty()
    }

    /// The current published snapshot of shard `i` (a stable read-only
    /// view; concurrent writes publish new versions without affecting it).
    ///
    /// # Panics
    /// Panics if `i >= num_shards()`.
    pub fn shard(&self, i: usize) -> Arc<NnCellIndex<Euclidean>> {
        self.snaps[i].load()
    }

    /// Aggregated construction counters: `seconds` is the wall clock of
    /// the initial sharded build, `skipped_points` comes from the global
    /// input validation, and `bulk_load_seconds` sums the shards' point
    /// tree loads.
    pub fn build_stats(&self) -> BuildStats {
        let mut agg = BuildStats {
            seconds: self.build_seconds,
            skipped_points: self.skipped_points,
            ..BuildStats::default()
        };
        for cell in &self.snaps {
            let s = *cell.load().build_stats();
            agg.skipped_points += s.skipped_points;
            agg.bulk_load_seconds += s.bulk_load_seconds;
        }
        agg
    }

    /// Per-shard reports of how each journal was opened (recovery) or
    /// initialized; empty for in-memory indexes.
    pub fn recovery(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Records sitting in the shards' active WALs (0 when not durable).
    pub fn wal_records(&self) -> u64 {
        self.lock_writer().journals.iter().map(Journal::wal_records).sum()
    }

    /// Attaches a metrics registry: every shard's engine, gauge, and tree
    /// series is registered under a `shard="<i>"` label (the WAL family
    /// stays unlabeled, shared as whole-index totals — see
    /// [`NnCellIndex::attach_metrics_labeled`]). The snapshots are updated
    /// in place when no reader holds them (start-up), otherwise a copy is
    /// published so concurrent readers start recording immediately.
    /// Idempotent per shard.
    pub fn attach_metrics(&self, registry: Arc<Registry>) {
        // Fold lock first (the global lock order): a fold publishing
        // concurrently would otherwise replace the metrics-attached
        // snapshots with its pre-attach working copy.
        let ts = &self.tail;
        let _fold = lock_fold(&ts.fold_lock);
        let mut w = self.lock_writer();
        for (i, cell) in self.snaps.iter().enumerate() {
            let tag = i.to_string();
            let labels: [(&str, &str); 1] = [("shard", tag.as_str())];
            cell.update(|idx| idx.attach_metrics_labeled(Arc::clone(&registry), &labels));
        }
        for j in &mut w.journals {
            j.attach_metrics(&registry);
        }
        let mut slot = match ts.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if slot.is_none() {
            let fm = FoldMetrics::register(&registry);
            // Seed with the pre-attach totals so registry values are
            // correct even when the registry arrives late.
            fm.tail_depth.set(ts.depth.load(Ordering::Acquire) as i64);
            fm.degraded
                .set(i64::from(ts.degraded.load(Ordering::Acquire)));
            fm.folds.add(ts.folds.load(Ordering::Acquire));
            fm.folded_records.add(ts.folded_records.load(Ordering::Acquire));
            fm.failures.add(ts.failures.load(Ordering::Acquire));
            *slot = Some(fm);
        }
    }

    // ------------------------------------------------------------------
    // id mapping
    // ------------------------------------------------------------------

    /// `(shard, local id)` of a global id.
    fn locate(&self, global: usize) -> (usize, usize) {
        let s = self.num_shards();
        (global % s, global / s)
    }

    /// Global id of `(shard, local id)`.
    fn global_of(&self, shard: usize, local: usize) -> usize {
        local * self.num_shards() + shard
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// The same validation [`crate::QueryEngine::execute`] applies, in the
    /// same precedence order, so a sharded index rejects malformed input
    /// identically to an unsharded one.
    fn validate_query(&self, q: &Query) -> Result<(), QueryError> {
        let p = q.point();
        if p.len() != self.dim {
            return Err(QueryError::DimMismatch {
                expected: self.dim,
                got: p.len(),
            });
        }
        if p.iter().any(|c| !c.is_finite()) {
            return Err(QueryError::NonFiniteQuery);
        }
        match q.kind() {
            QueryKind::Nearest { k: 0 } => Err(QueryError::ZeroK),
            QueryKind::Radius { radius } if !radius.is_finite() || radius < 0.0 => {
                Err(QueryError::InvalidRadius)
            }
            _ => Ok(()),
        }
    }

    /// Executes one typed query: fan out to every non-empty shard on its
    /// current snapshot, merge the per-shard answers by
    /// `(distance, global id)`. Exact, including tie ordering (see the
    /// module docs). Candidate and page counts are summed across shards.
    /// A deadline stamped on the query with [`Query::with_deadline`]
    /// governs every shard; once it passes, the fan-out stops and the
    /// query fails with [`QueryError::DeadlineExceeded`].
    ///
    /// # Errors
    /// The [`QueryError`] contract of [`crate::QueryEngine::execute`].
    pub fn query(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        self.validate_query(q)?;
        let (tails, snaps) = self.read_view();
        let per = live_shards(&snaps, &tails).map(|(i, snap, tail)| {
            // Sequential per shard: one query has no intra-shard
            // parallelism to exploit, and the fan-out itself is the
            // concurrency story (batch() adds the thread pool). One child
            // span per shard consulted; the engine's own spans nest
            // underneath it, so a trace shows the full fan-out.
            let mut span = nncell_obs::trace::child("shard.query");
            span.arg("shard", i as u64);
            let r = crate::engine::QueryEngine::sequential(snap)
                .with_tail(tail)
                .execute(q);
            (i, r)
        });
        self.merge(q.k(), per)
    }

    /// Executes a batch of typed queries: each non-empty shard runs the
    /// whole batch through its own [`crate::QueryEngine::batch`] thread
    /// pool on its current snapshot, then per-query answers are merged as
    /// in [`Self::query`]. Results come back in input order with the
    /// engine's per-query error contract; a query past its deadline comes
    /// back as [`QueryError::DeadlineExceeded`] while answers already
    /// computed are kept.
    pub fn batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        let (tails, snaps) = self.read_view();
        let mut shard_results: Vec<(usize, Vec<Result<QueryResponse, QueryError>>)> =
            live_shards(&snaps, &tails)
                .map(|(i, snap, tail)| (i, snap.engine().with_tail(tail).batch(queries)))
                .collect();
        queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                self.validate_query(q)?;
                // Each answer is moved out exactly once; the placeholder
                // left behind is never read.
                let per = shard_results.iter_mut().map(|(i, results)| {
                    (*i, std::mem::replace(&mut results[qi], Err(QueryError::EmptyIndex)))
                });
                self.merge(q.k(), per)
            })
            .collect()
    }

    /// The read view every query runs on: bounded-clone copies of every
    /// shard's unfolded tail, then the published snapshots. Tails first:
    /// an operation folded between the two reads then appears in *both*
    /// views and is deduplicated by id at merge time; reading in the other
    /// order could miss it in both. The tails may straddle a concurrent
    /// ack, which is fine — a query is only promised the writes acked
    /// before it started.
    fn read_view(&self) -> (Vec<TailSnapshot>, Vec<Arc<NnCellIndex<Euclidean>>>) {
        let tails = self.tail.tails.iter().map(|m| lock_mem(m).snapshot()).collect();
        let snaps = self.snaps.iter().map(SnapshotCell::load).collect();
        (tails, snaps)
    }

    /// Merges one query's per-shard answers: a k-way merge via a small
    /// binary heap keyed by `(distance, global id)` — each shard's list is
    /// already sorted, so the heap holds one head per shard and pops `k`
    /// times. A shard whose live set the tail has fully tombstoned
    /// ([`QueryError::EmptyIndex`]) or whose slice of a ball is empty
    /// ([`QueryError::EmptyRadius`]) contributes nothing; any other error
    /// is the query's, and stops a lazily evaluated fan-out early.
    fn merge(
        &self,
        k: usize,
        per: impl Iterator<Item = (usize, Result<QueryResponse, QueryError>)>,
    ) -> Result<QueryResponse, QueryError> {
        let mut stats = QueryStats::default();
        let mut lists: Vec<(usize, Vec<QueryResult>)> = Vec::new();
        let mut radius_empty = false;
        for (shard, resp) in per {
            let resp = match resp {
                Ok(r) => r,
                Err(QueryError::EmptyIndex) => continue,
                Err(QueryError::EmptyRadius) => {
                    radius_empty = true;
                    continue;
                }
                Err(e) => return Err(e),
            };
            stats.candidates += resp.stats.candidates;
            stats.pages += resp.stats.pages;
            stats.tail += resp.stats.tail;
            stats.nodes_pruned += resp.stats.nodes_pruned;
            stats.candidates_examined += resp.stats.candidates_examined;
            stats.candidates_aborted_early += resp.stats.candidates_aborted_early;
            lists.push((shard, resp.into_results()));
        }
        if lists.is_empty() {
            // Shards were consulted but every ball slice came back empty:
            // the radius error, not the empty-index one.
            return Err(if radius_empty {
                QueryError::EmptyRadius
            } else {
                QueryError::EmptyIndex
            });
        }

        /// Heap entry: the current head of one shard's sorted list.
        struct Head {
            dist: f64,
            gid: usize,
            slot: usize,
            pos: usize,
        }
        impl PartialEq for Head {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == CmpOrdering::Equal
            }
        }
        impl Eq for Head {}
        impl Ord for Head {
            fn cmp(&self, other: &Self) -> CmpOrdering {
                // Min-heap via Reverse at the push sites; ascending
                // (dist, global id) — the unsharded ranking order.
                self.dist
                    .total_cmp(&other.dist)
                    .then_with(|| self.gid.cmp(&other.gid))
            }
        }
        impl PartialOrd for Head {
            fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
                Some(self.cmp(other))
            }
        }

        let mut heap: BinaryHeap<std::cmp::Reverse<Head>> =
            BinaryHeap::with_capacity(lists.len());
        for (slot, (shard, list)) in lists.iter().enumerate() {
            if let Some(r) = list.first() {
                heap.push(std::cmp::Reverse(Head {
                    dist: r.dist,
                    gid: self.global_of(*shard, r.id),
                    slot,
                    pos: 0,
                }));
            }
        }
        let mut merged: Vec<QueryResult> = Vec::with_capacity(k.min(64));
        while merged.len() < k {
            let Some(std::cmp::Reverse(head)) = heap.pop() else {
                break;
            };
            merged.push(QueryResult {
                id: head.gid,
                dist: head.dist,
            });
            let (shard, list) = &lists[head.slot];
            if let Some(r) = list.get(head.pos + 1) {
                heap.push(std::cmp::Reverse(Head {
                    dist: r.dist,
                    gid: self.global_of(*shard, r.id),
                    slot: head.slot,
                    pos: head.pos + 1,
                }));
            }
        }
        let best = merged[0];
        let rest = merged[1..].to_vec();
        Ok(QueryResponse { best, rest, stats })
    }

    // ------------------------------------------------------------------
    // updates (single writer, journaled memtable tail)
    // ------------------------------------------------------------------

    /// Inserts a point: assign the next global id, validate (including a
    /// cross-shard exact-duplicate check against snapshots and tails),
    /// journal it (durable mode), and land it in the owning shard's
    /// memtable tail. Returns the global id. The ack is O(1) in the index
    /// size — no tree update, no snapshot copy; the folder indexes the point
    /// later, and queries see it immediately through the tail merge.
    ///
    /// # Errors
    /// [`DurableError::Invalid`] with the same [`BuildError`] variants an
    /// unsharded insert rejects (ids are global);
    /// [`DurableError::Persist`] when a durable shard's journal write
    /// fails; [`DurableError::Backpressure`] when the memtable tail is at
    /// its high-watermark — nothing is journaled or applied in any case.
    pub fn insert(&self, p: Point) -> Result<usize, DurableError> {
        let ts = &self.tail;
        let mut w = self.lock_writer();
        let g = w.next_global;
        validate_point(&p, g, self.dim, &DataSpace::unit(self.dim))
            .map_err(DurableError::Invalid)?;
        // The writer lock pins snapshot + tail: folds publish under it.
        for (si, (cell, tail)) in self.snaps.iter().zip(&ts.tails).enumerate() {
            let snap = cell.load();
            let m = lock_mem(tail);
            let dup = snap
                .find_live_duplicate(&p)
                // A snapshot duplicate tombstoned in the tail is dead.
                .filter(|&local| !m.is_removed(local))
                .or_else(|| m.find_live_duplicate(&p));
            if let Some(local) = dup {
                return Err(DurableError::Invalid(BuildError::DuplicatePoint {
                    id: g,
                    of: self.global_of(si, local),
                }));
            }
        }
        ts.admit()?;
        let (shard, local) = self.locate(g);
        if let Some(j) = w.journals.get_mut(shard) {
            // Journal-first: the fsync happens here, before the ack. A
            // failure leaves the tail untouched.
            j.append(&WalRecord::Insert(p.clone()))?;
        }
        lock_mem(&ts.tails[shard]).push_insert(local, p);
        ts.add_depth(1);
        w.next_global += 1;
        Ok(g)
    }

    /// Removes the point with global id `global`. Returns `false` when no
    /// such point is live (never-assigned ids included). On `true` a
    /// tombstone landed in the shard's tail (journal-first in durable
    /// mode) and queries stop returning the point immediately.
    ///
    /// # Errors
    /// Journal I/O failures in durable mode, or
    /// [`DurableError::Backpressure`] at the memtable high-watermark;
    /// nothing applied on error.
    pub fn remove(&self, global: usize) -> Result<bool, DurableError> {
        let ts = &self.tail;
        let mut w = self.lock_writer();
        if global >= w.next_global {
            return Ok(false);
        }
        let (shard, local) = self.locate(global);
        let live = {
            let snap = self.snaps[shard].load();
            let m = lock_mem(&ts.tails[shard]);
            (snap.is_live(local) && !m.is_removed(local)) || m.has_live_insert(local)
        };
        if !live {
            return Ok(false);
        }
        ts.admit()?;
        if let Some(j) = w.journals.get_mut(shard) {
            j.append(&WalRecord::Remove(local as u64))?;
        }
        lock_mem(&ts.tails[shard]).push_remove(local);
        ts.add_depth(1);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // folding (memtable → point tree, off the write path)
    // ------------------------------------------------------------------

    /// Folds every shard's frozen-plus-active tail into its index and
    /// publishes the results. Returns the number of operations folded
    /// (0 with empty tails). The clone and the point-tree updates run with
    /// no lock held; only the freeze and publish steps touch the mutexes.
    ///
    /// # Errors
    /// [`FoldError::Panicked`] when a shard's fold panicked (the batch
    /// stays frozen and merges into the next attempt; shards folded
    /// before the failing one stay folded).
    pub fn fold_once(&self) -> Result<usize, FoldError> {
        let _fold = lock_fold(&self.tail.fold_lock);
        let mut total = 0usize;
        for shard in 0..self.num_shards() {
            total += self.fold_shard(shard)?;
        }
        Ok(total)
    }

    /// Folds one shard's tail: freeze the batch, clone the published
    /// snapshot into the fold's working copy, re-apply the batch in ack
    /// order off-lock (under `catch_unwind` — a panicking fold, injected
    /// or organic, keeps the batch for retry and never corrupts the
    /// index), then publish the working copy under the writer lock. The
    /// caller holds `fold_lock`. Folding performs **zero** syscalls: the
    /// WAL already holds every record, so crash recovery never depends on
    /// fold progress and a fold can never double-apply into durable state.
    fn fold_shard(&self, shard: usize) -> Result<usize, FoldError> {
        let ts = &self.tail;
        let batch = lock_mem(&ts.tails[shard]).freeze();
        if batch.is_empty() {
            return Ok(0);
        }
        // Root span on the folder thread (head-sampled like any other
        // root); manual folds under a traced request nest as children.
        let mut span = nncell_obs::trace::root("fold.shard");
        span.arg("shard", shard as u64);
        span.arg("records", batch.len() as u64);
        let start = Instant::now();
        // Snapshots only change under fold_lock, which we hold, so `base`
        // is current and the writer lock stays free during the apply.
        let base = self.snaps[shard].load();
        let chaos = ts.cfg.fault_fold_panic.clone();
        let folded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(
                !chaos.as_ref().is_some_and(|f| f.load(Ordering::Acquire)),
                "injected fold fault"
            );
            let mut idx = (*base).clone();
            for op in &batch {
                match op {
                    TailOp::Insert { local, point } => {
                        // Re-applying a journaled op in ack order against
                        // exactly the state it was validated on must
                        // succeed; a failure here is a logic bug, and
                        // surfacing it as a caught panic degrades service
                        // instead of corrupting the index.
                        let got = idx.insert(point.clone()).unwrap_or_else(|e| {
                            panic!("fold re-apply of acked insert failed: {e}")
                        });
                        assert_eq!(got, *local, "fold slot diverged from ack-time slot");
                    }
                    TailOp::Remove { local } => {
                        idx.remove(*local);
                    }
                }
            }
            idx
        }));
        // Release the old version now: after the publish below it is
        // freed as soon as the last in-flight reader lets go of it.
        drop(base);
        let folded = match folded {
            Ok(idx) => idx,
            Err(_) => {
                ts.record_failure();
                return Err(FoldError::Panicked { shard });
            }
        };
        let records = batch.len();
        {
            // Under the writer lock, so writers and `len` see the new
            // snapshot and the trimmed tail together.
            let _w = self.lock_writer();
            self.snaps[shard].store(Arc::new(folded));
            lock_mem(&ts.tails[shard]).clear_frozen();
            ts.sub_depth(records);
        }
        ts.record_success(records, start.elapsed());
        Ok(records)
    }

    /// Folds until the tail is empty (used by clean shutdown and the CLI
    /// `flush` subcommand). Returns the total operations folded.
    ///
    /// # Errors
    /// [`FoldError`] from the first failing fold.
    pub fn flush(&self) -> Result<usize, FoldError> {
        let mut total = 0usize;
        loop {
            if self.tail_depth() == 0 {
                return Ok(total);
            }
            total += self.fold_once()?;
        }
    }

    /// The supervised folder loop: fold whenever the tail is non-empty,
    /// sleep [`FoldConfig::poll_interval`] when idle, back off
    /// exponentially (capped at [`FoldConfig::retry_cap`]) after a failed
    /// fold. Returns promptly once `stop` is set. Run it from a dedicated
    /// thread with a shared `Arc<ShardedIndex>`. All failure accounting (consecutive-failure streaks, the
    /// degraded flag, `nncell_fold_*` metrics) happens inside
    /// [`Self::fold_once`], so manual folds and the loop agree.
    pub fn run_folder(&self, stop: &AtomicBool) {
        let ts = &self.tail;
        let mut backoff = ts.cfg.retry_base;
        while !stop.load(Ordering::Acquire) {
            if ts.depth.load(Ordering::Acquire) == 0 {
                sleep_interruptible(stop, ts.cfg.poll_interval);
                continue;
            }
            match self.fold_once() {
                Ok(_) => backoff = ts.cfg.retry_base,
                Err(_) => {
                    sleep_interruptible(stop, backoff);
                    backoff = (backoff * 2).min(ts.cfg.retry_cap);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // persistence
    // ------------------------------------------------------------------

    /// Saves every shard plus a manifest into `dir` (`MANIFEST` +
    /// `shard-<i>.nncell`, all through the atomic write path), folding
    /// the memtable tail first so the files hold every ack.
    /// Point-in-time consistent: the writer lock is held across the save.
    ///
    /// # Errors
    /// I/O failures of the underlying writes.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        self.save_with_vfs(&StdVfs, dir.as_ref())
    }

    /// [`Self::save`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::save`].
    pub fn save_with_vfs(&self, vfs: &dyn Vfs, dir: &Path) -> Result<(), PersistError> {
        // Fold lock before writer lock (the global order); the tail-empty
        // check happens *under* the writer lock, so no write can sneak in
        // between the final fold and the save.
        let _fold = lock_fold(&self.tail.fold_lock);
        let _w = loop {
            let w = self.lock_writer();
            // Authoritative emptiness check under the writer lock (reads
            // the tails themselves, not the depth counter).
            if self.tail.tails.iter().all(|m| lock_mem(m).len() == 0) {
                break w;
            }
            drop(w);
            for shard in 0..self.num_shards() {
                self.fold_shard(shard).map_err(|e| {
                    PersistError::Corrupt(format!("memtable flush before save failed: {e}"))
                })?;
            }
        };
        vfs.create_dir_all(dir)?;
        for (i, cell) in self.snaps.iter().enumerate() {
            cell.load()
                .save_with_vfs(vfs, &dir.join(format!("shard-{i}.nncell")))?;
        }
        // Manifest last: a crash mid-save leaves either the old manifest
        // (old index intact) or no manifest (load fails typed), never a
        // manifest pointing at missing shard files.
        write_atomic(
            vfs,
            &dir.join(PLAIN_MANIFEST),
            format!("{PLAIN_MAGIC} {}\n", self.num_shards()).as_bytes(),
        )?;
        Ok(())
    }

    /// Loads an in-memory (non-durable) sharded index: a directory written
    /// by [`Self::save`], or a single snapshot file
    /// ([`NnCellIndex::save`]), which opens as one shard — the way
    /// [`Self::open_durable_existing`] opens the unsharded durable layout.
    ///
    /// # Errors
    /// I/O failures, a corrupt snapshot, a directory without a manifest
    /// or with a corrupt one, or shard files that disagree on
    /// dimensionality.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::load_with_vfs(&StdVfs, path.as_ref())
    }

    /// [`Self::load`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::load`].
    pub fn load_with_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Self, PersistError> {
        let manifest = path.join(PLAIN_MANIFEST);
        let indexes = if vfs.exists(&manifest) {
            let text = manifest_text(vfs.read(&manifest)?)?;
            let shards = parse_manifest(&text, PLAIN_MAGIC).ok_or_else(|| {
                PersistError::Corrupt(format!("sharded manifest holds {text:?}"))
            })?;
            (0..shards)
                .map(|i| NnCellIndex::load_with_vfs(vfs, &path.join(format!("shard-{i}.nncell"))))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            vec![NnCellIndex::load_with_vfs(vfs, path)?]
        };
        Self::assemble_loaded(indexes, Vec::new())
    }

    /// Publishes shards read from disk: checks they agree on
    /// dimensionality and takes the id watermark from their slot counts.
    fn assemble_loaded(
        indexes: Vec<NnCellIndex<Euclidean>>,
        journals: Vec<Journal>,
    ) -> Result<Self, PersistError> {
        let (dim, cfg) = check_shard_agreement(&indexes)?;
        let next_global = indexes.iter().map(|idx| idx.points().len()).sum();
        Ok(Self::assemble(dim, cfg, indexes, journals, next_global, 0.0, 0))
    }

    /// Opens a crash-consistent sharded index, initializing `dir` with
    /// `shards` empty shards of dimensionality `dim` when it holds no
    /// committed index yet. An existing directory opens as in
    /// [`Self::open_durable_existing`]; its shard count and
    /// dimensionality must match `shards` and `dim`.
    ///
    /// # Errors
    /// I/O failures, a corrupt manifest, or a shard-count/dimensionality
    /// mismatch with an existing directory.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        dim: usize,
        shards: usize,
        cfg: BuildConfig,
    ) -> Result<Self, PersistError> {
        Self::open_durable_with_vfs(Arc::new(StdVfs), dir.as_ref(), dim, shards, cfg)
    }

    /// [`Self::open_durable`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::open_durable`].
    pub fn open_durable_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        dim: usize,
        shards: usize,
        cfg: BuildConfig,
    ) -> Result<Self, PersistError> {
        assert!(shards >= 1, "need at least one shard");
        if !vfs.exists(&dir.join(CURRENT)) {
            return Self::new(dim, shards, cfg).into_durable_with_vfs(vfs, dir);
        }
        let opened = Self::open_durable_existing_with_vfs(vfs, dir)?;
        if opened.num_shards() != shards {
            return Err(PersistError::Corrupt(format!(
                "directory {dir:?} is sharded {} ways, caller expected {shards}",
                opened.num_shards()
            )));
        }
        if opened.dim() != dim {
            return Err(PersistError::Corrupt(format!(
                "durable index at {dir:?} is {}-dimensional, caller expected {dim}",
                opened.dim()
            )));
        }
        Ok(opened)
    }

    /// Opens an **existing** durable directory, taking the shard count
    /// from the top-level `CURRENT` manifest and dimensionality and
    /// configuration from the shards' committed generations. Each shard
    /// recovers independently (snapshot load + WAL replay; see
    /// [`Self::recovery`]). A `CURRENT` holding a bare generation number
    /// — the unsharded layout of earlier releases — opens as one shard
    /// rooted at `dir` itself, and stays in that layout.
    ///
    /// # Errors
    /// I/O failures, a missing or corrupt manifest, no committed shard
    /// generations, or shards that disagree on dimensionality.
    pub fn open_durable_existing(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_durable_existing_with_vfs(Arc::new(StdVfs), dir.as_ref())
    }

    /// [`Self::open_durable_existing`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::open_durable_existing`].
    pub fn open_durable_existing_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<Self, PersistError> {
        let text = manifest_text(vfs.read(&dir.join(CURRENT))?)?;
        let shard_dirs: Vec<PathBuf> = match parse_manifest(&text, DURABLE_MAGIC) {
            Some(shards) => (0..shards).map(|i| dir.join(format!("shard-{i}"))).collect(),
            None if text.trim().parse::<u64>().is_ok() => vec![dir.to_path_buf()],
            None => {
                return Err(PersistError::Corrupt(format!(
                    "CURRENT holds {text:?} (expected `{DURABLE_MAGIC} <count>` or a generation)"
                )))
            }
        };
        let mut indexes = Vec::with_capacity(shard_dirs.len());
        let mut journals = Vec::with_capacity(shard_dirs.len());
        for shard_dir in &shard_dirs {
            let (journal, idx) = Journal::open(Arc::clone(&vfs), shard_dir)?;
            indexes.push(idx);
            journals.push(journal);
        }
        Self::assemble_loaded(indexes, journals)
    }

    /// Converts an in-memory sharded index into a crash-consistent one:
    /// the memtable tail is folded, each shard's snapshot becomes the
    /// generation-0 snapshot of its own journal directory
    /// (`dir/shard-<i>/`), and the top-level `CURRENT` — written last, the
    /// commit point — records the shard count. Build stats and the fold
    /// configuration carry over; subsequent updates journal through the
    /// per-shard WALs.
    ///
    /// # Errors
    /// I/O failures, an already-initialized target directory, or calling
    /// this on an index that is already durable.
    pub fn into_durable(self, dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        self.into_durable_with_vfs(Arc::new(StdVfs), dir.as_ref())
    }

    /// [`Self::into_durable`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::into_durable`].
    pub fn into_durable_with_vfs(
        mut self,
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<Self, PersistError> {
        if self.is_durable() {
            return Err(PersistError::Corrupt(
                "index is already durable; open it in place instead".into(),
            ));
        }
        if vfs.exists(&dir.join(CURRENT)) {
            return Err(PersistError::Corrupt(format!(
                "directory {dir:?} already holds a durable index"
            )));
        }
        // We own `self` exclusively, so the tail is quiescent after this.
        self.flush().map_err(|e| {
            PersistError::Corrupt(format!("memtable flush before conversion failed: {e}"))
        })?;
        vfs.create_dir_all(dir)?;
        // Shard directories left by an interrupted conversion sit under
        // a never-committed manifest; Journal::create overwrites them.
        let journals = self
            .snaps
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                Journal::create(Arc::clone(&vfs), &dir.join(format!("shard-{i}")), &cell.load())
            })
            .collect::<Result<Vec<_>, _>>()?;
        write_atomic(
            vfs.as_ref(),
            &dir.join(CURRENT),
            format!("{DURABLE_MAGIC} {}\n", journals.len()).as_bytes(),
        )?;
        self.recovery = journals.iter().map(|j| j.recovery().clone()).collect();
        match self.writer.get_mut() {
            Ok(w) => w.journals = journals,
            Err(p) => p.into_inner().journals = journals,
        }
        Ok(self)
    }

    /// Checkpoints every durable shard (snapshot + fresh WAL + `CURRENT`
    /// flip, per shard). A no-op for in-memory indexes.
    ///
    /// The fresh WAL is seeded with the shard's unfolded tail (one batched
    /// fsync) before the `CURRENT` flip, preserving the invariant *disk
    /// snapshot + disk WAL ≡ published snapshot + tail*: a checkpoint
    /// taken while the folder is behind (or broken) still recovers every
    /// acked write, and because folding performs no syscalls, nothing can
    /// double-apply.
    ///
    /// # Errors
    /// I/O failures; already-checkpointed shards stay checkpointed, the
    /// failing shard keeps its previous generation intact.
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        // Fold lock first: a checkpoint interleaved with an in-flight
        // fold could otherwise snapshot an index missing the frozen batch
        // while seeding the WAL without it either.
        let _fold = lock_fold(&self.tail.fold_lock);
        let mut w = self.lock_writer();
        for (i, journal) in w.journals.iter_mut().enumerate() {
            let tail = lock_mem(&self.tail.tails[i]).wal_records();
            journal.checkpoint(&self.snaps[i].load(), &tail)?;
        }
        Ok(())
    }

    /// Folds what it can and checkpoints every durable shard, consuming
    /// the handle — the clean-shutdown path. Replay debt is zero when the
    /// final flush folds everything; a tail stranded by a broken folder
    /// is re-journaled by the checkpoint and replayed on the next open.
    ///
    /// # Errors
    /// See [`Self::checkpoint`].
    pub fn close(self) -> Result<(), PersistError> {
        // Best-effort fold: a degraded folder must not block shutdown.
        let _ = self.flush();
        self.checkpoint()
    }
}

/// The shards a query consults, each with the tail its engine merges: a
/// shard with neither live indexed points nor tail operations has nothing
/// to contribute and is skipped.
fn live_shards<'v>(
    snaps: &'v [Arc<NnCellIndex<Euclidean>>],
    tails: &'v [TailSnapshot],
) -> impl Iterator<Item = (usize, &'v NnCellIndex<Euclidean>, &'v TailSnapshot)> {
    snaps
        .iter()
        .zip(tails)
        .enumerate()
        .filter(|(_, (snap, tail))| !snap.is_empty() || !tail.is_empty())
        .map(|(i, (snap, tail))| (i, snap.as_ref(), tail))
}

/// UTF-8-decodes a manifest file.
fn manifest_text(bytes: Vec<u8>) -> Result<String, PersistError> {
    String::from_utf8(bytes)
        .map_err(|_| PersistError::Corrupt("sharded manifest is not UTF-8".into()))
}

/// Parses `"<magic> <count>"`, requiring `count >= 1`.
fn parse_manifest(text: &str, magic: &str) -> Option<usize> {
    let rest = text.trim().strip_prefix(magic)?;
    let count: usize = rest.trim().parse().ok()?;
    (count >= 1).then_some(count)
}

/// Every shard must agree on dimensionality and configuration; returns
/// the common `(dim, cfg)`.
fn check_shard_agreement(
    indexes: &[NnCellIndex<Euclidean>],
) -> Result<(usize, BuildConfig), PersistError> {
    let first = indexes
        .first()
        .ok_or_else(|| PersistError::Corrupt("sharded manifest names zero shards".into()))?;
    let dim = first.dim();
    for (i, idx) in indexes.iter().enumerate().skip(1) {
        if idx.dim() != dim {
            return Err(PersistError::Corrupt(format!(
                "shard {i} is {}-dimensional, shard 0 is {dim}-dimensional",
                idx.dim()
            )));
        }
    }
    Ok((dim, first.config().clone()))
}
