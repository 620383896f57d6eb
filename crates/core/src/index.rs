//! The serving index: points, liveness and the point X-tree, with exact
//! queries and dynamic updates. NN-cells are built offline from it
//! ([`crate::CellSet`]).

use crate::config::{BuildConfig, InputPolicy};
use crate::engine::QueryEngine;
use crate::metrics::{EngineMetrics, IndexMetrics};
use nncell_geom::{DataSpace, Euclidean, Mbr, Metric, Point};
use nncell_index::{IoStats, TreeConfig, TreeMetrics, XTree};
use nncell_obs::Registry;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// STR bulk-load fill fraction: nearly packed (reads dominate a built
/// index), with a little slack so early dynamic inserts don't split every
/// touched leaf.
pub(crate) const STR_FILL: f64 = 0.9;

/// An exact nearest-neighbor answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryResult {
    /// Index of the winning database point.
    pub id: usize,
    /// Its distance to the query.
    pub dist: f64,
}

/// Counters describing one index construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Wall-clock build time in seconds.
    pub seconds: f64,
    /// Invalid input points dropped under [`InputPolicy::Skip`].
    pub skipped_points: usize,
    /// Seconds spent STR-loading the point tree.
    pub bulk_load_seconds: f64,
}

/// Failures of index construction or dynamic updates.
#[derive(Debug)]
pub enum BuildError {
    /// `build` was called with no points (use [`NnCellIndex::new`] +
    /// [`NnCellIndex::insert`] to grow from empty).
    EmptyDatabase,
    /// A point's dimensionality disagrees with the index.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Offending dimensionality.
        got: usize,
    },
    /// A point has a NaN or infinite coordinate.
    NonFinitePoint {
        /// Input position of the offending point.
        id: usize,
    },
    /// A point lies outside the data space (cells are clipped to it, so an
    /// outside point could not be represented faithfully).
    OutOfDataSpace {
        /// Input position of the offending point.
        id: usize,
    },
    /// A point is a bit-exact duplicate of an earlier point. Duplicates
    /// share one Voronoi cell, making "the" nearest neighbor ambiguous and
    /// their bisector degenerate (zero normal).
    DuplicatePoint {
        /// Input position of the offending point.
        id: usize,
        /// Input position of the earlier identical point.
        of: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyDatabase => write!(f, "cannot build from an empty point set"),
            BuildError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            BuildError::NonFinitePoint { id } => {
                write!(f, "point {id} has a NaN or infinite coordinate")
            }
            BuildError::OutOfDataSpace { id } => {
                write!(f, "point {id} lies outside the data space")
            }
            BuildError::DuplicatePoint { id, of } => {
                write!(f, "point {id} is an exact duplicate of point {of}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The serving index over a (weighted) Euclidean metric: the points, a
/// row-major copy of them, the liveness mask and the point X-tree that
/// every query walks ([`Self::engine`] + [`crate::Query`]).
///
/// The paper's NN-cells are not part of it: [`crate::CellSet::build`]
/// derives them from an index when a bench or a quality measurement
/// needs them.
pub struct NnCellIndex<M: Metric = Euclidean> {
    cfg: BuildConfig,
    points: Vec<Point>,
    /// Row-major copy of `points` (`n × d`), kept in sync by every mutation.
    /// Queries read this layout: candidate distance evaluations walk
    /// contiguous memory instead of chasing one `Box<[f64]>` per point,
    /// and all query threads share the one read-only buffer.
    points_flat: Vec<f64>,
    alive: Vec<bool>,
    live_count: usize,
    point_tree: XTree,
    metric: M,
    space: DataSpace,
    build_stats: BuildStats,
    /// Registry bindings; `None` until [`Self::attach_metrics`] — every
    /// recording site is a no-op without them.
    metrics: Option<IndexMetrics>,
}

impl NnCellIndex<Euclidean> {
    /// Builds the index over `points` with the Euclidean metric.
    ///
    /// # Errors
    /// [`BuildError::EmptyDatabase`] for an empty input, or the typed
    /// validation error of the first invalid point (see
    /// [`crate::InputPolicy`]).
    pub fn build(points: Vec<Point>, cfg: BuildConfig) -> Result<Self, BuildError> {
        Self::build_with_metric(points, cfg, Euclidean)
    }

    /// An empty Euclidean index of dimensionality `dim`, grown via
    /// [`Self::insert`].
    pub fn new(dim: usize, cfg: BuildConfig) -> Self {
        Self::new_with_metric(dim, cfg, Euclidean)
    }
}

impl<M: Metric> NnCellIndex<M> {
    /// An empty index with an explicit metric.
    pub fn new_with_metric(dim: usize, cfg: BuildConfig, metric: M) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        let point_tree = XTree::with_config(point_tree_config(dim, &cfg));
        Self {
            cfg,
            points: Vec::new(),
            points_flat: Vec::new(),
            alive: Vec::new(),
            live_count: 0,
            point_tree,
            metric,
            space: DataSpace::unit(dim),
            build_stats: BuildStats::default(),
            metrics: None,
        }
    }

    /// Builds the index over `points` with an explicit metric.
    ///
    /// # Errors
    /// See [`NnCellIndex::build`].
    pub fn build_with_metric(
        points: Vec<Point>,
        cfg: BuildConfig,
        metric: M,
    ) -> Result<Self, BuildError> {
        let Some(first) = points.first() else {
            return Err(BuildError::EmptyDatabase);
        };
        let dim = first.dim();
        let start = Instant::now();
        let (accepted, skipped) = validate_build_inputs(points, dim, cfg.input_policy)?;
        let alive = vec![true; accepted.len()];
        let mut idx = Self::from_parts(dim, cfg, metric, accepted, alive);
        idx.build_stats.skipped_points = skipped;
        idx.build_stats.seconds = start.elapsed().as_secs_f64();
        Ok(idx)
    }

    /// An index over `points` with liveness `alive`, its point tree
    /// STR-bulk-loaded from the live points: O(N log N) sorts instead of
    /// one X-tree insert (with splits) per point. Build and load both come
    /// through here. Later dynamic inserts go through the X-tree overflow
    /// cascade.
    pub(crate) fn from_parts(
        dim: usize,
        cfg: BuildConfig,
        metric: M,
        points: Vec<Point>,
        alive: Vec<bool>,
    ) -> Self {
        debug_assert_eq!(points.len(), alive.len());
        let mut idx = Self::new_with_metric(dim, cfg, metric);
        let load_start = Instant::now();
        let items: Vec<(Mbr, u64)> = points
            .iter()
            .enumerate()
            .filter(|&(i, _)| alive[i])
            .map(|(i, p)| (Mbr::from_point(p.as_slice()), i as u64))
            .collect();
        if !items.is_empty() {
            idx.point_tree = XTree::bulk_load(point_tree_config(dim, &idx.cfg), items, STR_FILL);
        }
        idx.build_stats.bulk_load_seconds = load_start.elapsed().as_secs_f64();
        idx.points_flat = points.iter().flat_map(|p| p.as_slice()).copied().collect();
        idx.live_count = alive.iter().filter(|a| **a).count();
        idx.points = points;
        idx.alive = alive;
        idx
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// The build configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.cfg
    }

    /// All stored points (including removed slots; check [`Self::is_live`]).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Whether point `id` is live.
    pub fn is_live(&self, id: usize) -> bool {
        self.alive.get(id).copied().unwrap_or(false)
    }

    /// Construction counters.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Cost counters of the point X-tree (what queries and updates pay).
    pub fn point_tree_stats(&self) -> IoStats {
        self.point_tree.stats()
    }

    /// Resets the point tree's cost counters.
    pub fn reset_stats(&self) {
        self.point_tree.reset_stats();
    }

    /// Enables a simulated LRU page cache of `pages` pages on the point
    /// tree (0 disables) — the structure queries read.
    pub fn enable_cache(&self, pages: usize) {
        self.point_tree.enable_cache(pages);
    }

    // ------------------------------------------------------------------
    // observability
    // ------------------------------------------------------------------

    /// Attaches a metrics registry to this index: query latency, candidate
    /// and page histograms, the slow-query ring, the live-point gauge and
    /// the point tree's I/O counters all start recording into `registry`.
    /// Idempotent — a second call is a no-op (the first registry wins).
    pub fn attach_metrics(&mut self, registry: Arc<Registry>) {
        self.attach_metrics_labeled(registry, &[]);
    }

    /// Like [`Self::attach_metrics`] but every series carries the given
    /// label set (e.g. `shard="2"` — see [`nncell_obs::format_labels`]).
    pub fn attach_metrics_labeled(&mut self, registry: Arc<Registry>, labels: &[(&str, &str)]) {
        if self.metrics.is_some() {
            return;
        }
        let m = IndexMetrics::register_labeled(registry.clone(), self.dim(), labels);
        self.point_tree
            .bind_metrics(TreeMetrics::register_labeled(&registry, "point_tree", labels));
        self.metrics = Some(m);
        self.refresh_gauges();
    }

    /// The attached metrics bundle, if any.
    pub fn metrics(&self) -> Option<&IndexMetrics> {
        self.metrics.as_ref()
    }

    /// Query-path handles for the engine (`None` without a registry).
    pub(crate) fn engine_metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.as_ref().map(IndexMetrics::engine)
    }

    /// Re-publishes the structural gauges after a mutation.
    fn refresh_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.live_points.set(self.live_count as i64);
        }
    }

    // ------------------------------------------------------------------
    // queries (execution lives in the QueryEngine)
    // ------------------------------------------------------------------

    /// A parallel [`QueryEngine`] session over this index — the query API.
    /// Engines are free to construct (they borrow the index) and any number
    /// may run concurrently.
    pub fn engine(&self) -> QueryEngine<'_, M> {
        QueryEngine::new(self)
    }

    // ------------------------------------------------------------------
    // engine plumbing (read-only views shared by all query threads)
    // ------------------------------------------------------------------

    /// The point X-tree every query walks.
    pub(crate) fn point_tree(&self) -> &XTree {
        &self.point_tree
    }

    /// The liveness mask, indexed by point id.
    pub(crate) fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The metric in use.
    pub(crate) fn metric(&self) -> &M {
        &self.metric
    }

    /// The data space points must lie in.
    pub(crate) fn space(&self) -> &DataSpace {
        &self.space
    }

    /// Row `id` of the flat point layout.
    #[inline]
    pub(crate) fn flat_point(&self, id: usize) -> &[f64] {
        let d = self.space.dim();
        &self.points_flat[id * d..(id + 1) * d]
    }

    // ------------------------------------------------------------------
    // dynamic updates
    // ------------------------------------------------------------------

    /// Inserts a new point: validation plus one point-tree insert.
    ///
    /// Returns the new point's id.
    ///
    /// # Errors
    /// Rejects invalid points with the matching [`BuildError`] variant —
    /// wrong dimensionality, NaN/∞ coordinates, outside the data space, or a
    /// bit-exact duplicate of a live point (regardless of
    /// [`InputPolicy`]: an insert must return an id, so there is nothing to
    /// skip to).
    pub fn insert(&mut self, p: Point) -> Result<usize, BuildError> {
        self.validate_insert(&p)?;
        let id = self.points.len();
        self.point_tree.insert_point(&p, id as u64);
        self.points_flat.extend_from_slice(p.as_slice());
        self.points.push(p);
        self.alive.push(true);
        self.live_count += 1;
        self.refresh_gauges();
        Ok(id)
    }

    /// The checks [`Self::insert`] would apply to `p`, without mutating
    /// anything: dimensionality, finiteness, data-space membership, and the
    /// exact-duplicate check against the nearest live point. The WAL layer
    /// calls this *before* journaling so invalid points never reach the log.
    ///
    /// # Errors
    /// The same [`BuildError`] variants `insert` would return.
    pub fn validate_insert(&self, p: &Point) -> Result<(), BuildError> {
        let id = self.points.len();
        validate_point(p, id, self.dim(), &self.space)?;
        if let Some(of) = self.find_live_duplicate(p) {
            return Err(BuildError::DuplicatePoint { id, of });
        }
        Ok(())
    }

    /// The id of a live point bit-identical to `p`, if one exists. A
    /// bit-identical point is at metric distance zero from its twin, so the
    /// nearest live point suffices as the only candidate. Shared by
    /// [`Self::validate_insert`] and the cross-shard duplicate check of
    /// [`crate::ShardedIndex`].
    pub(crate) fn find_live_duplicate(&self, p: &Point) -> Option<usize> {
        if self.live_count == 0 {
            return None;
        }
        let nn = self
            .point_tree
            .knn_best_first(p, 1)
            .into_iter()
            .find(|n| self.alive[n.id as usize])?;
        let of = nn.id as usize;
        (self.points[of].as_slice() == p.as_slice()).then_some(of)
    }

    /// Removes point `id`: one point-tree delete. Its slot stays (ids are
    /// never reused).
    ///
    /// Returns `false` when `id` was not live.
    pub fn remove(&mut self, id: usize) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.alive[id] = false;
        self.live_count -= 1;
        let removed = self
            .point_tree
            .delete(&Mbr::from_point(&self.points[id]), id as u64);
        debug_assert!(removed, "point tree out of sync");
        self.refresh_gauges();
        true
    }
}

/// Deep copy used by the fold's working copy ([`crate::ShardedIndex`]):
/// point storage and the tree arena are cloned, and an attached metrics
/// bundle keeps recording
/// into the same registry series (every handle is an `Arc`; cloning never
/// re-seeds a counter).
impl<M: Metric> Clone for NnCellIndex<M> {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            points: self.points.clone(),
            points_flat: self.points_flat.clone(),
            alive: self.alive.clone(),
            live_count: self.live_count,
            point_tree: self.point_tree.clone(),
            metric: self.metric.clone(),
            space: self.space.clone(),
            build_stats: self.build_stats,
            metrics: self.metrics.clone(),
        }
    }
}

/// The point tree's configuration: point leaves, the configured block size.
fn point_tree_config(dim: usize, cfg: &BuildConfig) -> TreeConfig {
    TreeConfig::xtree(dim)
        .with_block_size(cfg.block_size)
        .with_point_leaves(true)
}

/// Input validation shared by the unsharded and sharded builds: NaN/∞,
/// dimensionality, data-space membership, bit-exact duplicates. Under
/// [`InputPolicy::Skip`] offenders are dropped and counted; ids are assigned
/// to the survivors in input order. Returns `(accepted, skipped)`.
pub(crate) fn validate_build_inputs(
    points: Vec<Point>,
    dim: usize,
    policy: InputPolicy,
) -> Result<(Vec<Point>, usize), BuildError> {
    let space = DataSpace::unit(dim);
    let mut accepted: Vec<Point> = Vec::with_capacity(points.len());
    let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(points.len());
    let mut first_seen: Vec<usize> = Vec::with_capacity(points.len());
    let mut skipped = 0usize;
    for (id, p) in points.into_iter().enumerate() {
        let verdict = validate_point(&p, id, dim, &space).and_then(|()| {
            let bits: Vec<u64> = p.as_slice().iter().map(|c| c.to_bits()).collect();
            if seen.insert(bits) {
                Ok(())
            } else {
                let of = accepted
                    .iter()
                    .position(|q| q.as_slice() == p.as_slice())
                    .map(|i| first_seen[i])
                    .unwrap_or(id);
                Err(BuildError::DuplicatePoint { id, of })
            }
        });
        match (verdict, policy) {
            (Ok(()), _) => {
                accepted.push(p);
                first_seen.push(id);
            }
            (Err(e), InputPolicy::Reject) => return Err(e),
            (Err(_), InputPolicy::Skip) => skipped += 1,
        }
    }
    if accepted.is_empty() {
        return Err(BuildError::EmptyDatabase);
    }
    Ok((accepted, skipped))
}

/// Validates one input point (dimensionality, finiteness, data-space
/// membership). Duplicate detection happens at the call sites, which have
/// the surrounding point set.
pub(crate) fn validate_point(
    p: &Point,
    id: usize,
    dim: usize,
    space: &DataSpace,
) -> Result<(), BuildError> {
    if p.dim() != dim {
        return Err(BuildError::DimensionMismatch {
            expected: dim,
            got: p.dim(),
        });
    }
    if p.as_slice().iter().any(|c| !c.is_finite()) {
        return Err(BuildError::NonFinitePoint { id });
    }
    if !space.contains(p.as_slice()) {
        return Err(BuildError::OutOfDataSpace { id });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::query::Query;
    use crate::scan::linear_scan_nn;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// NN through the typed engine, with the old shim's `Option` shape.
    fn nn<M: Metric>(idx: &NnCellIndex<M>, q: &[f64]) -> Option<QueryResult> {
        QueryEngine::sequential(idx)
            .execute(&Query::nn(q))
            .ok()
            .map(|r| r.best)
    }

    /// k-NN through the typed engine; empty on any query error.
    fn knn<M: Metric>(idx: &NnCellIndex<M>, q: &[f64], k: usize) -> Vec<QueryResult> {
        QueryEngine::sequential(idx)
            .execute(&Query::knn(q, k))
            .map(crate::query::QueryResponse::into_results)
            .unwrap_or_default()
    }

    fn uniform(n: usize, d: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>()))
            .collect()
    }

    fn queries(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    fn assert_exact<M: Metric>(idx: &NnCellIndex<M>, pts: &[Point], qs: &[Vec<f64>]) {
        for q in qs {
            let got = nn(idx, q).expect("non-empty");
            let want = linear_scan_nn(pts, q).unwrap();
            // Distances must agree exactly (ids may differ only on perfect
            // ties, which have probability zero for random data).
            assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "q={q:?}: got ({}, {}), want ({}, {})",
                got.id,
                got.dist,
                want.id,
                want.dist
            );
            assert_eq!(got.id, want.id, "q={q:?}");
        }
    }

    #[test]
    fn dynamic_inserts_stay_exact() {
        let mut pts = uniform(60, 3, 7);
        let extra = uniform(30, 3, 8);
        let cfg = BuildConfig::default();
        let mut idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
        for p in extra {
            idx.insert(p.clone()).unwrap();
            pts.push(p);
        }
        assert_eq!(idx.len(), 90);
        assert_exact(&idx, &pts, &queries(40, 3, 9));
    }

    #[test]
    fn removals_stay_exact() {
        let pts = uniform(80, 2, 13);
        let cfg = BuildConfig::default();
        let mut idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
        let mut live: Vec<Point> = pts.clone();
        let mut removed = std::collections::HashSet::new();
        for id in [3usize, 17, 42, 55, 7, 0] {
            assert!(idx.remove(id));
            removed.insert(id);
        }
        assert!(!idx.remove(3), "double remove is a no-op");
        live = live
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(idx.len(), live.len());
        // Compare distances against a scan of the survivors.
        for q in queries(50, 2, 14) {
            let got = nn(&idx, &q).unwrap();
            let want = linear_scan_nn(&live, &q).unwrap();
            assert!((got.dist - want.dist).abs() < 1e-9, "q={q:?}");
            assert!(!removed.contains(&got.id), "returned a removed point");
        }
    }

    #[test]
    fn grow_from_empty() {
        let cfg = BuildConfig::default();
        let mut idx = NnCellIndex::new(3, cfg);
        assert!(idx.is_empty());
        assert!(nn(&idx, &[0.5; 3]).is_none());
        let pts = uniform(40, 3, 15);
        for p in &pts {
            idx.insert(p.clone()).unwrap();
        }
        assert_exact(&idx, &pts, &queries(30, 3, 16));
    }

    #[test]
    fn remove_everything() {
        let pts = uniform(20, 2, 17);
        let mut idx = NnCellIndex::build(pts, BuildConfig::default()).unwrap();
        for id in 0..20 {
            assert!(idx.remove(id));
        }
        assert!(idx.is_empty());
        assert!(nn(&idx, &[0.5, 0.5]).is_none());
    }

    #[test]
    fn out_of_space_queries_stay_exact() {
        let pts = uniform(50, 2, 18);
        let idx = NnCellIndex::build(pts.clone(), BuildConfig::default()).unwrap();
        let q = [1.5, -0.2];
        let got = nn(&idx, &q).unwrap();
        let want = linear_scan_nn(&pts, &q).unwrap();
        assert_eq!(got.id, want.id);
    }

    #[test]
    fn build_errors() {
        assert!(matches!(
            NnCellIndex::build(vec![], BuildConfig::default()),
            Err(BuildError::EmptyDatabase)
        ));
        let ragged = vec![Point::new(vec![0.1, 0.2]), Point::new(vec![0.1, 0.2, 0.3])];
        assert!(matches!(
            NnCellIndex::build(ragged, BuildConfig::default()),
            Err(BuildError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
        let mut idx = NnCellIndex::new(2, BuildConfig::default());
        assert!(matches!(
            idx.insert(Point::new(vec![0.1; 5])),
            Err(BuildError::DimensionMismatch {
                expected: 2,
                got: 5
            })
        ));
    }

    #[test]
    fn invalid_points_are_typed_errors() {
        let cfg = || BuildConfig::default();
        // One NaN point.
        let mut pts = uniform(10, 2, 40);
        pts.push(Point::new(vec![f64::NAN, 0.5]));
        assert!(matches!(
            NnCellIndex::build(pts, cfg()),
            Err(BuildError::NonFinitePoint { id: 10 })
        ));
        // One out-of-space point.
        let mut pts = uniform(10, 2, 41);
        pts.push(Point::new(vec![1.5, 0.5]));
        assert!(matches!(
            NnCellIndex::build(pts, cfg()),
            Err(BuildError::OutOfDataSpace { id: 10 })
        ));
        // One bit-exact duplicate.
        let mut pts = uniform(10, 2, 42);
        pts.push(pts[3].clone());
        assert!(matches!(
            NnCellIndex::build(pts, cfg()),
            Err(BuildError::DuplicatePoint { id: 10, of: 3 })
        ));
        // Dynamic insert rejects the same classes.
        let mut idx = NnCellIndex::build(uniform(10, 2, 43), cfg()).unwrap();
        assert!(matches!(
            idx.insert(Point::new(vec![f64::INFINITY, 0.1])),
            Err(BuildError::NonFinitePoint { .. })
        ));
        assert!(matches!(
            idx.insert(Point::new(vec![-0.1, 0.1])),
            Err(BuildError::OutOfDataSpace { .. })
        ));
        let twin = idx.points()[4].clone();
        assert!(matches!(
            idx.insert(twin),
            Err(BuildError::DuplicatePoint { of: 4, .. })
        ));
        assert_eq!(idx.len(), 10, "rejected inserts must not grow the index");
    }

    #[test]
    fn skip_policy_drops_invalid_points_and_stays_exact() {
        use crate::config::InputPolicy;
        let mut pts = uniform(40, 2, 44);
        pts.insert(7, Point::new(vec![f64::NAN, 0.5]));
        pts.insert(19, pts[0].clone());
        pts.push(Point::new(vec![2.0, 2.0]));
        let idx = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder().input_policy(InputPolicy::Skip).build(),
        )
        .unwrap();
        assert_eq!(idx.len(), 40);
        assert_eq!(idx.build_stats().skipped_points, 3);
        let survivors: Vec<Point> = pts
            .into_iter()
            .filter(|p| {
                p.as_slice().iter().all(|c| c.is_finite())
                    && p.as_slice().iter().all(|c| (0.0..=1.0).contains(c))
            })
            .collect();
        // Duplicate of pts[0] survived the coordinate filters but not the
        // build; dedup the reference set the same way.
        let mut seen = std::collections::HashSet::new();
        let survivors: Vec<Point> = survivors
            .into_iter()
            .filter(|p| {
                seen.insert(
                    p.as_slice()
                        .iter()
                        .map(|c| c.to_bits())
                        .collect::<Vec<u64>>(),
                )
            })
            .collect();
        assert_exact(&idx, &survivors, &queries(30, 2, 45));
    }

    #[test]
    fn malformed_queries_return_empty_not_panic() {
        let pts = uniform(30, 2, 46);
        let idx = NnCellIndex::build(pts, BuildConfig::default()).unwrap();
        assert!(nn(&idx, &[0.5]).is_none(), "wrong dimension");
        assert!(nn(&idx, &[0.5, 0.5, 0.5]).is_none());
        assert!(nn(&idx, &[f64::NAN, 0.5]).is_none());
        assert!(nn(&idx, &[0.5, f64::INFINITY]).is_none());
        assert!(knn(&idx, &[0.5], 3).is_empty());
        assert!(knn(&idx, &[f64::NAN, 0.5], 3).is_empty());
        // Sane queries still work afterwards.
        assert!(nn(&idx, &[0.5, 0.5]).is_some());
    }

    #[test]
    fn knn_exact_from_index() {
        let pts = uniform(100, 3, 19);
        let idx = NnCellIndex::build(pts.clone(), BuildConfig::default()).unwrap();
        let q = [0.3, 0.7, 0.5];
        let top5 = knn(&idx, &q, 5);
        assert_eq!(top5.len(), 5);
        assert_eq!(top5[0].id, nn(&idx, &q).unwrap().id);
        for w in top5.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        // Exactness against a scan, for several k and queries.
        let qs = queries(20, 3, 77);
        for q in &qs {
            for k in [2usize, 5, 20, 99, 150] {
                let got = knn(&idx, q, k);
                let want = crate::scan::linear_scan_knn(idx.points(), q, k.min(idx.len()));
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g.dist - w.dist).abs() < 1e-9, "k={k} q={q:?}");
                }
            }
        }
    }

    #[test]
    fn weighted_metric_supported() {
        use nncell_geom::WeightedEuclidean;
        let pts = uniform(70, 3, 20);
        let metric = WeightedEuclidean::new(vec![4.0, 1.0, 0.25]);
        let idx = NnCellIndex::build_with_metric(
            pts.clone(),
            BuildConfig::default(),
            metric.clone(),
        )
        .unwrap();
        for q in queries(40, 3, 21) {
            let got = nn(&idx, &q).unwrap();
            let want = pts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    metric
                        .dist_sq(&q, a)
                        .partial_cmp(&metric.dist_sq(&q, b))
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(got.id, want, "weighted NN mismatch at q={q:?}");
        }
    }
}
