//! The NN-cell index: build, exact queries, dynamic updates.

use crate::config::{BuildConfig, ConstraintPool, InputPolicy, Strategy};
use crate::decompose::decompose_cell;
use crate::engine::QueryEngine;
use crate::metrics::{EngineMetrics, IndexMetrics};
use crate::strategy::{gather_rival_ids, nearest_rivals, GatherScratch};
use nncell_geom::{DataSpace, Euclidean, Mbr, Metric, Point};
use nncell_index::{IoStats, TreeConfig, TreeMetrics, XTree};
use nncell_lp::{CellLpStats, LpMetrics, VoronoiLp};
use nncell_obs::Registry;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Bits of the cell-tree item id reserved for the piece index; the rest is
/// the point id. Decomposition budgets are tiny (≤ ~10 pieces), so 10 bits
/// is generous.
pub(crate) const PIECE_BITS: u32 = 10;
pub(crate) const MAX_PIECES: usize = 1 << PIECE_BITS;

/// STR bulk-load fill fraction for the build's point tree: nearly packed
/// (reads dominate a built index), with a little slack so early dynamic
/// inserts don't split every touched leaf.
const STR_FILL: f64 = 0.9;

/// Page budget for the approximate-kNN constraint-pool probe. Generous —
/// the probe is exact whenever the best-first search finishes within it —
/// yet a constant, which is the point: gathering stays O(log N + k) pages
/// instead of the strategies' O(N)-ish scans.
fn pool_page_budget(k: usize) -> usize {
    64 + 4 * k
}

/// One computed cell: pieces, LP counters, candidate count, phase timings.
type CellComputation = (Vec<Mbr>, CellLpStats, usize, CellTimings);

/// An exact nearest-neighbor answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryResult {
    /// Index of the winning database point.
    pub id: usize,
    /// Its distance to the query.
    pub dist: f64,
}

/// One point's stored approximation: the MBR pieces of its NN-cell.
#[derive(Clone, Debug, Default)]
pub struct CellApprox {
    /// Piece MBRs (one element when decomposition is off). Empty for
    /// removed points.
    pub pieces: Vec<Mbr>,
}

impl CellApprox {
    /// Total volume of the pieces (the paper's quality measure counts this
    /// against the data-space volume).
    pub fn volume(&self) -> f64 {
        self.pieces.iter().map(Mbr::volume).sum()
    }
}

/// Counters describing one index construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Aggregate LP work.
    pub lp: CellLpStats,
    /// Total rival candidates fed into bisector construction.
    pub candidates: usize,
    /// Wall-clock build time in seconds.
    pub seconds: f64,
    /// Invalid input points dropped under [`InputPolicy::Skip`].
    pub skipped_points: usize,
    /// Cells whose first-attempt pooled solve
    /// ([`crate::ConstraintPool::ApproxKnn`]) came back degenerate —
    /// infeasible or clamped — and was redone against the exhaustive pool.
    /// Always 0 under [`crate::ConstraintPool::Exhaustive`].
    pub pool_fallback_cells: usize,
    /// Cells re-solved after a dynamic insert because the new point's
    /// bisector provably cut their stored approximation.
    pub insert_refreshes: usize,
    /// Sphere-prefilter candidates the exact bisector-cut test dismissed on
    /// insert (their approximation lies strictly on their own side of the
    /// new bisector, so a re-solve could not change it).
    pub insert_refreshes_skipped: usize,
    /// Per-phase wall-clock profile (constraint selection, LP solves,
    /// decomposition, bulk load) with per-batch timings.
    pub profile: BuildProfile,
}

/// Wall-clock accumulator for one build phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTiming {
    /// Total nanoseconds spent in the phase.
    pub nanos: u64,
    /// Times the phase ran (once per cell for the per-cell phases; once per
    /// build for bulk load).
    pub calls: u64,
}

impl PhaseTiming {
    fn add(&mut self, nanos: u64) {
        self.nanos += nanos;
        self.calls += 1;
    }

    /// Total time in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Per-phase build profile, exposed via [`BuildStats::profile`] and reported
/// by the CLI `build` and `stats` subcommands.
///
/// Dynamic updates keep accruing into the per-cell phases (insert and
/// refresh recompute cells through the same path), so the profile describes
/// the index's lifetime LP effort, not just the initial build. Batch
/// counters describe the initial build's worker chunks only.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildProfile {
    /// Rival gathering and bisector assembly (for *CorrectPruned*, includes
    /// the rough pre-solve that bounds the candidate set).
    pub constraint_selection: PhaseTiming,
    /// The `2·d` extent LPs per cell.
    pub lp_solve: PhaseTiming,
    /// MBR decomposition (zero calls when decomposition is off).
    pub decomposition: PhaseTiming,
    /// Tree population: point-tree inserts plus cell-piece stores.
    pub bulk_load: PhaseTiming,
    /// Cell-computation batches (worker chunks; 1 for a sequential build).
    pub batches: u64,
    /// Total nanoseconds across batches (≈ sum of worker wall-clocks).
    pub batch_total_nanos: u64,
    /// Slowest single batch in nanoseconds (the build's critical path).
    pub batch_max_nanos: u64,
}

impl BuildProfile {
    fn absorb_cell(&mut self, t: CellTimings) {
        self.constraint_selection.add(t.constraint_ns);
        self.lp_solve.add(t.lp_ns);
        if t.decomposed {
            self.decomposition.add(t.decomp_ns);
        }
    }

    fn record_batch(&mut self, nanos: u64) {
        self.batches += 1;
        self.batch_total_nanos += nanos;
        self.batch_max_nanos = self.batch_max_nanos.max(nanos);
    }
}

/// Phase timings of one cell computation (build-profiler plumbing), plus
/// whether the pooled first attempt had to be redone exhaustively.
#[derive(Clone, Copy, Debug, Default)]
struct CellTimings {
    constraint_ns: u64,
    lp_ns: u64,
    decomp_ns: u64,
    decomposed: bool,
    pool_fellback: bool,
}

/// Outcome of [`NnCellIndex::verify_integrity`].
#[derive(Clone, Debug, Default)]
pub struct IntegrityReport {
    /// Live cells examined.
    pub checked_cells: usize,
    /// Ids whose stored approximation fails an invariant: no pieces, a
    /// non-finite or wrong-dimension piece, no piece containing the
    /// generating point, or a piece entirely outside the data space.
    pub bad_cells: Vec<usize>,
}

impl IntegrityReport {
    /// Whether every checked cell passed.
    pub fn is_ok(&self) -> bool {
        self.bad_cells.is_empty()
    }
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

/// The NN-cell index over a (weighted) Euclidean metric.
///
/// See the crate docs for the approach; in short: `2·d` LPs per point
/// approximate its Voronoi cell by an MBR (optionally decomposed), the MBRs
/// live in an X-tree, and a nearest-neighbor query
/// ([`Self::engine`] + [`crate::Query::nn`]) is a point query plus a
/// distance check — exact by construction.
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
    cells: Vec<CellApprox>,
    point_tree: XTree,
    cell_tree: XTree,
    vlp: VoronoiLp<M>,
    build_stats: BuildStats,
    fallback_queries: std::sync::atomic::AtomicU64,
    /// Registry bindings; `None` until [`Self::attach_metrics`] — every
    /// recording site is a no-op without them.
    metrics: Option<IndexMetrics>,
}

impl NnCellIndex<Euclidean> {
    /// Builds the index over `points` with the Euclidean metric.
    ///
    /// # Errors
    /// [`BuildError::EmptyDatabase`] for an empty input,
    /// [`BuildError::DimensionMismatch`] on ragged input, or an LP failure.
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
        assert!(
            cfg.decompose_pieces.unwrap_or(1) <= MAX_PIECES,
            "decomposition budget exceeds {MAX_PIECES}"
        );
        let space = DataSpace::unit(dim);
        let vlp = VoronoiLp::new(metric, space, cfg.solver).with_budget(cfg.lp_budget);
        let point_tree = XTree::with_config(
            TreeConfig::xtree(dim)
                .with_block_size(cfg.block_size)
                .with_point_leaves(true),
        );
        let cell_tree = XTree::with_config(TreeConfig::xtree(dim).with_block_size(cfg.block_size));
        Self {
            cfg,
            points: Vec::new(),
            points_flat: Vec::new(),
            alive: Vec::new(),
            live_count: 0,
            cells: Vec::new(),
            point_tree,
            cell_tree,
            vlp,
            build_stats: BuildStats::default(),
            fallback_queries: std::sync::atomic::AtomicU64::new(0),
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
        let mut idx = Self::new_with_metric(dim, cfg, metric);
        idx.build_stats.skipped_points = skipped;
        // Phase 1: the data-point tree (the strategies and the pooled
        // probe query it). STR bulk loading replaces the old per-point
        // insert loop: O(N log N) sorts instead of O(N log N) page touches
        // with splits, and the packed, near-overlap-free leaves make every
        // later probe cheaper. Later dynamic inserts still go through the
        // X-tree overflow cascade.
        let load_start = Instant::now();
        if !accepted.is_empty() {
            let items: Vec<(Mbr, u64)> = accepted
                .iter()
                .enumerate()
                .map(|(i, p)| (Mbr::from_point(p.as_slice()), i as u64))
                .collect();
            idx.point_tree = XTree::bulk_load(
                TreeConfig::xtree(dim)
                    .with_block_size(idx.cfg.block_size)
                    .with_point_leaves(true),
                items,
                STR_FILL,
            );
        }
        let mut load_nanos = elapsed_nanos(load_start);
        idx.points = accepted;
        idx.rebuild_flat();
        idx.alive = vec![true; idx.points.len()];
        idx.live_count = idx.points.len();
        idx.cells = vec![CellApprox::default(); idx.points.len()];
        // Phase 2: one cell approximation per point. Cells are independent
        // given the (now read-only) point tree, so this fans out across
        // `cfg.threads` workers; results are stored sequentially afterwards.
        let n = idx.points.len();
        let threads = idx.cfg.threads.clamp(1, n.max(1));
        let results: Vec<CellComputation> = if threads == 1 {
            let batch_start = Instant::now();
            let mut scratch = GatherScratch::new();
            let r = (0..n)
                .map(|id| idx.compute_cell_pieces(id, &mut scratch))
                .collect();
            idx.build_stats
                .profile
                .record_batch(elapsed_nanos(batch_start));
            r
        } else {
            let idx_ref = &idx;
            let chunk = n.div_ceil(threads);
            let partials: Vec<(Vec<(usize, CellComputation)>, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        s.spawn(move || {
                            let batch_start = Instant::now();
                            let lo = w * chunk;
                            let hi = ((w + 1) * chunk).min(n);
                            let mut scratch = GatherScratch::new();
                            let part: Vec<(usize, CellComputation)> = (lo..hi)
                                .map(|id| (id, idx_ref.compute_cell_pieces(id, &mut scratch)))
                                .collect();
                            (part, elapsed_nanos(batch_start))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("cell worker panicked"))
                    .collect()
            });
            let mut collected: Vec<Option<CellComputation>> = (0..n).map(|_| None).collect();
            for (part, batch_nanos) in partials {
                if !part.is_empty() {
                    idx.build_stats.profile.record_batch(batch_nanos);
                }
                for (id, r) in part {
                    collected[id] = Some(r);
                }
            }
            collected
                .into_iter()
                .map(|r| r.expect("every id covered by exactly one worker"))
                .collect()
        };
        // STR bulk load for the cell tree as well: per-piece inserts into
        // an X-tree of heavily overlapping high-d cell MBRs degrade
        // super-linearly (supernodes grow, and every insert walks them),
        // which measurably dominated large builds. Packing the finished
        // pieces once is O(N log N) and the query path is tree-shape
        // agnostic, so answers are unchanged.
        let store_start = Instant::now();
        let mut cell_items: Vec<(Mbr, u64)> = Vec::with_capacity(results.len());
        for (id, (pieces, stats, cands, timings)) in results.into_iter().enumerate() {
            idx.build_stats.lp.merge(stats);
            idx.build_stats.candidates += cands;
            idx.build_stats.pool_fallback_cells += timings.pool_fellback as usize;
            idx.build_stats.profile.absorb_cell(timings);
            debug_assert!(pieces.len() <= MAX_PIECES);
            for (piece_idx, mbr) in pieces.iter().enumerate() {
                let key = ((id as u64) << PIECE_BITS) | piece_idx as u64;
                cell_items.push((mbr.clone(), key));
            }
            idx.cells[id] = CellApprox { pieces };
        }
        if !cell_items.is_empty() {
            idx.cell_tree = XTree::bulk_load(
                TreeConfig::xtree(dim).with_block_size(idx.cfg.block_size),
                cell_items,
                STR_FILL,
            );
        }
        load_nanos += elapsed_nanos(store_start);
        idx.build_stats.profile.bulk_load.add(load_nanos);
        idx.build_stats.seconds = start.elapsed().as_secs_f64();
        Ok(idx)
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
        self.vlp.space().dim()
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

    /// The stored approximation of point `id`'s NN-cell.
    pub fn cell(&self, id: usize) -> Option<&CellApprox> {
        if self.is_live(id) {
            self.cells.get(id)
        } else {
            None
        }
    }

    /// Construction counters.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Cost counters of the cell X-tree (what queries pay).
    pub fn cell_tree_stats(&self) -> IoStats {
        self.cell_tree.stats()
    }

    /// Cost counters of the data-point X-tree (what builds/updates pay).
    pub fn point_tree_stats(&self) -> IoStats {
        self.point_tree.stats()
    }

    /// Number of queries that fell back to a scan (queries outside the unit
    /// data space; always exact, never expected for in-space queries).
    pub fn fallback_queries(&self) -> u64 {
        self.fallback_queries
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn count_fallback(&self) {
        self.fallback_queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Resets both trees' cost counters.
    pub fn reset_stats(&self) {
        self.cell_tree.reset_stats();
        self.point_tree.reset_stats();
    }

    // ------------------------------------------------------------------
    // observability
    // ------------------------------------------------------------------

    /// Attaches a metrics registry to this index: query latency, candidate
    /// and page histograms, the slow-query ring, tree I/O counters, and the
    /// LP aggregates all start recording into `registry`. Idempotent — a
    /// second call is a no-op (the first registry wins).
    ///
    /// The [`CellLpStats`]-mirrored counters (`nncell_lp_calls_total` & co.)
    /// are seeded with the build totals, so the registry agrees with
    /// [`Self::build_stats`] from the first snapshot on; the tree counters
    /// are seeded the same way inside `nncell_index::CostTracker`.
    pub fn attach_metrics(&mut self, registry: Arc<Registry>) {
        self.attach_metrics_labeled(registry, &[]);
    }

    /// Like [`Self::attach_metrics`] but the engine, gauge, and tree series
    /// carry the given label set (e.g. `shard="2"` — see
    /// [`nncell_obs::format_labels`]). The LP solver-chain and
    /// [`CellLpStats`] mirror counters stay unlabeled: per-shard builds sum
    /// into exactly the unsharded totals, so one shared family preserves
    /// the registry == `build_stats().lp` invariant.
    pub fn attach_metrics_labeled(&mut self, registry: Arc<Registry>, labels: &[(&str, &str)]) {
        if self.metrics.is_some() {
            return;
        }
        let m = IndexMetrics::register_labeled(registry.clone(), self.dim(), labels);
        m.seed_lp_totals(&self.build_stats.lp);
        self.cell_tree
            .bind_metrics(TreeMetrics::register_labeled(&registry, "cell_tree", labels));
        self.point_tree
            .bind_metrics(TreeMetrics::register_labeled(&registry, "point_tree", labels));
        self.vlp.set_metrics(LpMetrics::register(&registry));
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
            m.cell_tree_pages.set(self.cell_tree.total_pages() as i64);
        }
    }

    /// Mirrors one per-cell LP delta into the registry (no-op without one).
    fn record_lp_delta(&self, delta: &CellLpStats) {
        if let Some(m) = &self.metrics {
            m.record_lp_stats(delta);
        }
    }

    /// Enables a simulated LRU page cache of `pages` pages on the cell tree
    /// (0 disables) — the structure queries actually read.
    pub fn enable_cache(&self, pages: usize) {
        self.cell_tree.enable_cache(pages);
    }

    /// Total simulated pages occupied by the cell X-tree.
    pub fn cell_tree_pages(&self) -> u64 {
        self.cell_tree.total_pages()
    }

    /// Total pieces stored in the cell tree.
    pub fn total_pieces(&self) -> usize {
        self.cells.iter().map(|c| c.pieces.len()).sum()
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

    /// The cell X-tree (read-only view for query execution).
    pub(crate) fn cell_tree(&self) -> &XTree {
        &self.cell_tree
    }

    /// The liveness mask, indexed by point id.
    /// The data-point tree (radius queries ride its sphere path).
    pub(crate) fn point_tree(&self) -> &XTree {
        &self.point_tree
    }

    pub(crate) fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The metric in use.
    pub(crate) fn metric(&self) -> &M {
        self.vlp.metric()
    }

    /// The data space cells are clipped to.
    pub(crate) fn space(&self) -> &nncell_geom::DataSpace {
        self.vlp.space()
    }

    /// Row `id` of the flat point layout.
    #[inline]
    pub(crate) fn flat_point(&self, id: usize) -> &[f64] {
        let d = self.vlp.space().dim();
        &self.points_flat[id * d..(id + 1) * d]
    }

    /// Rebuilds the flat layout from `points` (bulk build / load).
    fn rebuild_flat(&mut self) {
        self.points_flat.clear();
        self.points_flat
            .reserve(self.points.len() * self.vlp.space().dim());
        for p in &self.points {
            self.points_flat.extend_from_slice(p.as_slice());
        }
    }

    // ------------------------------------------------------------------
    // integrity
    // ------------------------------------------------------------------

    /// Checks the structural invariants of every live cell approximation:
    /// each must have at least one piece, every piece must be finite, of the
    /// right dimensionality, and overlap the data space, and at least one
    /// piece must contain the generating point (the point lies in its own
    /// cell, and the pieces cover the cell — Lemma 2's covering property).
    ///
    /// A cell that fails any of these could cause a false dismissal, which
    /// is exactly what the NN-cell guarantee forbids. [`Self::repair`]
    /// recomputes offending cells from the stored points.
    pub fn verify_integrity(&self) -> IntegrityReport {
        const TOL: f64 = 1e-9;
        let d = self.dim();
        let space = self.vlp.space();
        let mut report = IntegrityReport::default();
        for id in 0..self.points.len() {
            if !self.is_live(id) {
                continue;
            }
            report.checked_cells += 1;
            let p = &self.points[id];
            let pieces = &self.cells[id].pieces;
            let structurally_sound = !pieces.is_empty()
                && pieces.iter().all(|m| {
                    m.dim() == d
                        && (0..d).all(|i| {
                            m.lo()[i].is_finite()
                                && m.hi()[i].is_finite()
                                // Overlaps the data space (cells are clipped
                                // to it, so a disjoint piece is garbage).
                                && m.lo()[i] <= space.hi(i) + TOL
                                && m.hi()[i] >= space.lo(i) - TOL
                        })
                });
            let covers_point = structurally_sound
                && pieces.iter().any(|m| {
                    (0..d).all(|i| p[i] >= m.lo()[i] - TOL && p[i] <= m.hi()[i] + TOL)
                });
            if !covers_point {
                report.bad_cells.push(id);
            }
        }
        report
    }

    /// Recomputes every cell [`Self::verify_integrity`] flags, restoring the
    /// superset invariant from the stored points. Returns the number of
    /// cells repaired.
    pub fn repair(&mut self) -> usize {
        let bad = self.verify_integrity().bad_cells;
        let mut scratch = GatherScratch::new();
        for &id in &bad {
            self.refresh_cell(id, &mut scratch);
        }
        bad.len()
    }

    // ------------------------------------------------------------------
    // dynamic updates
    // ------------------------------------------------------------------

    /// Inserts a new point, computing its cell and (when
    /// [`BuildConfig::refine_on_insert`] is set) re-tightening the affected
    /// neighbor cells. Exactness holds either way: existing approximations
    /// stay supersets of their (shrunken) true cells.
    ///
    /// Returns the new point's id.
    ///
    /// # Errors
    /// Rejects invalid points with the matching [`BuildError`] variant —
    /// wrong dimensionality, NaN/∞ coordinates, outside the data space, or a
    /// bit-exact duplicate of a live point (regardless of
    /// [`InputPolicy`]: an insert must return an id, so there is nothing to
    /// skip to). LP trouble never fails an insert; it degrades to the
    /// data-space clamp.
    pub fn insert(&mut self, p: Point) -> Result<usize, BuildError> {
        self.validate_insert(&p)?;
        let id = self.points.len();
        self.point_tree.insert_point(&p, id as u64);
        self.points_flat.extend_from_slice(p.as_slice());
        self.points.push(p);
        self.alive.push(true);
        self.cells.push(CellApprox::default());
        self.live_count += 1;

        let mut scratch = GatherScratch::new();
        let (pieces, stats, cands, timings) = self.compute_cell_pieces(id, &mut scratch);
        self.build_stats.lp.merge(stats);
        self.build_stats.candidates += cands;
        self.build_stats.pool_fallback_cells += timings.pool_fellback as usize;
        self.build_stats.profile.absorb_cell(timings);
        self.record_lp_delta(&stats);
        self.store_cell(id, pieces);

        if self.cfg.refine_on_insert && self.live_count > 1 {
            // The cells that must shrink are those the new point's bisectors
            // cut; all of them lie within twice the new point's NN distance
            // sphere (conservative, and refinement is a quality matter only).
            let nn = self
                .point_tree
                .knn_best_first(&self.points[id], 2)
                .into_iter()
                .find(|n| n.id != id as u64);
            if let Some(nn) = nn {
                let r = 2.0 * nn.dist;
                let mut affected: Vec<usize> = self
                    .cell_tree
                    .sphere_query(&self.points[id], r)
                    .into_iter()
                    .map(|h| (h >> PIECE_BITS) as usize)
                    .filter(|&pid| pid != id && self.alive[pid])
                    .collect();
                affected.sort_unstable();
                affected.dedup();
                // Incremental re-solve: of the sphere-prefilter candidates,
                // only cells whose stored approximation the new bisector
                // actually cuts are dirty. The cut test is exact and O(d)
                // per piece — the difference of squared distances is linear
                // in x, so its minimum over a box is attained corner-wise —
                // and a clean (uncut) approximation cannot change under a
                // re-solve: the polytope is inside the box, so the new
                // constraint is inactive over all of it.
                let q = self.points[id].clone();
                for pid in affected {
                    let cut = self.cells[pid].pieces.iter().any(|m| {
                        bisector_cuts_mbr(
                            self.vlp.metric(),
                            q.as_slice(),
                            self.points[pid].as_slice(),
                            m,
                        )
                    });
                    if cut {
                        self.build_stats.insert_refreshes += 1;
                        self.refresh_cell(pid, &mut scratch);
                    } else {
                        self.build_stats.insert_refreshes_skipped += 1;
                    }
                }
            }
        }
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
        validate_point(p, id, self.dim(), self.vlp.space())?;
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

    /// Removes point `id`. The cells that bordered it are recomputed — when
    /// a rival disappears, neighbor cells *grow*, so skipping this step
    /// would break exactness (unlike on insert).
    ///
    /// Returns `false` when `id` was not live. Infallible: recomputation
    /// rides the LP fallback chain, which terminally clamps rather than
    /// fails.
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
        let old = std::mem::take(&mut self.cells[id]);
        for (piece_idx, mbr) in old.pieces.iter().enumerate() {
            let key = ((id as u64) << PIECE_BITS) | piece_idx as u64;
            let removed = self.cell_tree.delete(mbr, key);
            debug_assert!(removed, "cell tree out of sync");
        }
        if self.live_count == 0 {
            self.refresh_gauges();
            return true;
        }
        // Every cell that could gain region intersects the removed cell's
        // approximation (Voronoi neighbors share a face; approximations are
        // supersets).
        if let Some(union) = Mbr::union_all(old.pieces.iter()) {
            let mut affected: Vec<usize> = self
                .cell_tree
                .window_query(&union)
                .into_iter()
                .map(|h| (h >> PIECE_BITS) as usize)
                .filter(|&pid| self.alive[pid])
                .collect();
            affected.sort_unstable();
            affected.dedup();
            let mut scratch = GatherScratch::new();
            for pid in affected {
                self.refresh_cell(pid, &mut scratch);
            }
        }
        self.refresh_gauges();
        true
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Computes the (possibly decomposed) approximation of `id`'s cell.
    /// Infallible: LP breakdowns degrade to the data-space clamp inside
    /// [`VoronoiLp`], which keeps the approximation a superset (Lemma 1).
    ///
    /// Under [`ConstraintPool::ApproxKnn`] the first attempt runs the
    /// `2·d` LPs against the point's approximate k-nearest neighbors only
    /// (probed from the point tree); a degenerate outcome — infeasible or
    /// clamped, the "pool too tight" signal — falls back to the exhaustive
    /// strategy gathering below and is counted in
    /// [`BuildStats::pool_fallback_cells`].
    fn compute_cell_pieces(&self, id: usize, scratch: &mut GatherScratch) -> CellComputation {
        let p = &self.points[id];
        let d = self.dim();
        let seed = self.cfg.seed ^ ((id as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut stats = CellLpStats::default();
        let mut timings = CellTimings::default();

        if let ConstraintPool::ApproxKnn { .. } = self.cfg.pool {
            let k = self.cfg.effective_pool_k(d);
            if self.live_count > k + 1 {
                let phase_start = Instant::now();
                // k+1 because the probe finds the point itself first.
                let (near, _proven) = self.point_tree.approx_knn(p, k + 1, pool_page_budget(k));
                let rivals: Vec<usize> = near
                    .iter()
                    .map(|n| n.id as usize)
                    .filter(|&j| j != id && self.alive[j])
                    .collect();
                let cons = self
                    .vlp
                    .bisectors(p, rivals.iter().map(|&j| self.points[j].as_slice()));
                let n_cands = cons.len();
                timings.constraint_ns = elapsed_nanos(phase_start);

                let phase_start = Instant::now();
                let (solve, degenerate) =
                    self.vlp.extents_pooled(&cons, p, self.cfg.solver, seed);
                stats.merge(solve.stats);
                timings.lp_ns = elapsed_nanos(phase_start);
                if !degenerate {
                    let pieces = self.finish_pieces(&cons, &solve, seed, &mut stats, &mut timings);
                    return (pieces, stats, n_cands, timings);
                }
                // Pool too tight: keep the failed attempt's LP accounting
                // and redo the cell with exhaustive gathering.
                timings.pool_fellback = true;
            }
        }

        let phase_start = Instant::now();
        let cons = if self.cfg.strategy == Strategy::CorrectPruned && self.live_count > 4 * d + 1 {
            // Exactness-preserving two-step prune (see nncell-lp docs):
            // 1. rough superset MBR from the 4·d nearest rivals;
            // 2. only rivals within twice the rough box's max corner
            //    distance can have a bisector cutting that box, so a tree
            //    sphere query bounds the candidate set without scanning N;
            // 3. the per-bisector prune drops the rest.
            let near = nearest_rivals(p, id, &self.point_tree, 4 * d);
            let near_cons = self
                .vlp
                .bisectors(p, near.iter().map(|&j| self.points[j].as_slice()));
            // A data point is strictly inside its own cell, so the LPs are
            // feasible; a numerically contradictory outcome falls back to
            // the warm-started solve (still a superset).
            let rough = self
                .vlp
                .extents(&near_cons, seed ^ ROUGH_SALT)
                .unwrap_or_else(|| self.vlp.extents_from(&near_cons, p, seed ^ ROUGH_SALT));
            stats.merge(rough.stats);
            // Max metric distance from p to the rough box (corner-wise),
            // then converted conservatively to a Euclidean tree-query radius
            // via the smallest metric weight.
            let mut max_d2 = 0.0;
            let mut w_min = f64::INFINITY;
            for i in 0..d {
                let dd = (p[i] - rough.mbr.lo()[i])
                    .abs()
                    .max((p[i] - rough.mbr.hi()[i]).abs());
                let w = self.vlp.metric().weight(i);
                max_d2 += w * dd * dd;
                w_min = w_min.min(w);
            }
            let r_cut = 2.0 * max_d2.sqrt() / w_min.sqrt();
            let mut rivals: Vec<usize> = self
                .point_tree
                .sphere_query(p, r_cut)
                .into_iter()
                .map(|x| x as usize)
                .filter(|&j| j != id && self.alive[j])
                .collect();
            rivals.sort_unstable();
            rivals.dedup();
            let all = self
                .vlp
                .bisectors(p, rivals.iter().map(|&j| self.points[j].as_slice()));
            VoronoiLp::<M>::prune_constraints(all, &rough.mbr)
        } else {
            let rivals = gather_rival_ids(
                &self.cfg,
                id,
                &self.points,
                &self.alive,
                &self.point_tree,
                self.live_count,
                scratch,
            );
            self.vlp
                .bisectors(p, rivals.iter().map(|&j| self.points[j].as_slice()))
        };
        let n_cands = cons.len();
        timings.constraint_ns += elapsed_nanos(phase_start);

        // The Best–Ritter active-set backend wants a feasible start; the
        // data point is one (it lies strictly inside its own cell).
        let phase_start = Instant::now();
        let solve = if self.cfg.solver == nncell_lp::SolverKind::ActiveSet {
            self.vlp.extents_from(&cons, p, seed)
        } else {
            // A data point's cell cannot be empty; `None` only on numerical
            // contradiction, where the warm-started path still yields a
            // valid superset.
            self.vlp
                .extents(&cons, seed)
                .unwrap_or_else(|| self.vlp.extents_from(&cons, p, seed))
        };
        stats.merge(solve.stats);
        timings.lp_ns += elapsed_nanos(phase_start);

        let pieces = self.finish_pieces(&cons, &solve, seed, &mut stats, &mut timings);
        (pieces, stats, n_cands, timings)
    }

    /// Shared tail of both gathering paths: optional decomposition of a
    /// solved cell into its piece MBRs.
    fn finish_pieces(
        &self,
        cons: &[nncell_geom::Halfspace],
        solve: &nncell_lp::CellSolve,
        seed: u64,
        stats: &mut CellLpStats,
        timings: &mut CellTimings,
    ) -> Vec<Mbr> {
        match self.cfg.decompose_pieces {
            Some(k) if k > 1 => {
                let phase_start = Instant::now();
                let (pieces, dstats) = decompose_cell(&self.vlp, cons, solve, k, seed);
                stats.merge(dstats);
                timings.decomp_ns += elapsed_nanos(phase_start);
                timings.decomposed = true;
                pieces
            }
            _ => vec![solve.mbr.clone()],
        }
    }

    /// Replaces `id`'s stored pieces in the cell tree.
    fn store_cell(&mut self, id: usize, pieces: Vec<Mbr>) {
        debug_assert!(pieces.len() <= MAX_PIECES);
        for (piece_idx, mbr) in pieces.iter().enumerate() {
            let key = ((id as u64) << PIECE_BITS) | piece_idx as u64;
            self.cell_tree.insert(mbr.clone(), key);
        }
        self.cells[id] = CellApprox { pieces };
    }

    /// Loader plumbing: registers a persisted point in the point tree.
    pub(crate) fn point_tree_insert(&mut self, p: &Point, id: usize) {
        self.point_tree.insert_point(p, id as u64);
    }

    /// Loader plumbing: installs persisted points and cell pieces without
    /// running any LP.
    pub(crate) fn install_cells(
        &mut self,
        points: Vec<Point>,
        alive: Vec<bool>,
        all_pieces: Vec<Vec<Mbr>>,
    ) {
        debug_assert_eq!(points.len(), alive.len());
        debug_assert_eq!(points.len(), all_pieces.len());
        self.live_count = alive.iter().filter(|a| **a).count();
        self.points = points;
        self.rebuild_flat();
        self.alive = alive;
        self.cells = vec![CellApprox::default(); self.points.len()];
        // Same STR bulk load as the build path: loading reruns zero LPs,
        // so tree packing is all this costs — and per-piece inserts into
        // the overlap-heavy cell tree are the super-linear part.
        let dim = self.dim();
        let mut cell_items: Vec<(Mbr, u64)> = Vec::with_capacity(all_pieces.len());
        for (id, pieces) in all_pieces.into_iter().enumerate() {
            if self.alive[id] {
                debug_assert!(pieces.len() <= MAX_PIECES);
                for (piece_idx, mbr) in pieces.iter().enumerate() {
                    let key = ((id as u64) << PIECE_BITS) | piece_idx as u64;
                    cell_items.push((mbr.clone(), key));
                }
                self.cells[id] = CellApprox { pieces };
            }
        }
        if !cell_items.is_empty() {
            self.cell_tree = XTree::bulk_load(
                TreeConfig::xtree(dim).with_block_size(self.cfg.block_size),
                cell_items,
                STR_FILL,
            );
        }
    }

    fn refresh_cell(&mut self, id: usize, scratch: &mut GatherScratch) {
        let (pieces, stats, cands, timings) = self.compute_cell_pieces(id, scratch);
        self.build_stats.lp.merge(stats);
        self.build_stats.candidates += cands;
        self.build_stats.pool_fallback_cells += timings.pool_fellback as usize;
        self.build_stats.profile.absorb_cell(timings);
        self.record_lp_delta(&stats);
        let old = std::mem::take(&mut self.cells[id]);
        for (piece_idx, mbr) in old.pieces.iter().enumerate() {
            let key = ((id as u64) << PIECE_BITS) | piece_idx as u64;
            let removed = self.cell_tree.delete(mbr, key);
            debug_assert!(removed, "cell tree out of sync during refresh");
        }
        self.store_cell(id, pieces);
    }
}

/// Deep copy used by the copy-on-write shard snapshots
/// ([`crate::ShardedIndex`]): point storage and both tree arenas are
/// cloned, the fallback counter's value is carried over, and an attached
/// metrics bundle keeps recording into the same registry series (every
/// handle is an `Arc`; cloning never re-seeds a counter).
impl<M: Metric> Clone for NnCellIndex<M> {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            points: self.points.clone(),
            points_flat: self.points_flat.clone(),
            alive: self.alive.clone(),
            live_count: self.live_count,
            cells: self.cells.clone(),
            point_tree: self.point_tree.clone(),
            cell_tree: self.cell_tree.clone(),
            vlp: self.vlp.clone(),
            build_stats: self.build_stats,
            fallback_queries: std::sync::atomic::AtomicU64::new(
                self.fallback_queries
                    .load(std::sync::atomic::Ordering::Relaxed),
            ),
            metrics: self.metrics.clone(),
        }
    }
}

/// Seed salt distinguishing the CorrectPruned rough solve from the final
/// solve ("rough" in ASCII).
const ROUGH_SALT: u64 = 0x726f756768;

/// Elapsed nanoseconds since `start`, saturating into `u64` (≈ 584 years).
fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether the bisector between a newly inserted point `q` and a cell
/// owner `p` can cut the box `mbr` — i.e. some x in the box is at least as
/// close to `q` as to `p`.
///
/// The (weighted) difference of squared distances
/// `f(x) = Σᵢ wᵢ·[(xᵢ−qᵢ)² − (xᵢ−pᵢ)²] = Σᵢ wᵢ·[2xᵢ(pᵢ−qᵢ) + qᵢ²−pᵢ²]`
/// is *linear* in x, so its minimum over an axis-aligned box is attained
/// corner-wise per dimension: O(d), exact, no LP. If that minimum is
/// positive, the whole box — and therefore the cell polytope inside it —
/// lies strictly on `p`'s side of the bisector, so re-solving the cell
/// with `q`'s constraint added cannot change it (the constraint is
/// inactive over the entire feasible region). The epsilon keeps the test
/// conservative: near-tangent boxes refresh rather than skip.
pub(crate) fn bisector_cuts_mbr<M: Metric>(metric: &M, q: &[f64], p: &[f64], mbr: &Mbr) -> bool {
    let mut min_f = 0.0;
    for i in 0..q.len() {
        let w = metric.weight(i);
        let a = 2.0 * w * (p[i] - q[i]);
        let x = if a > 0.0 { mbr.lo()[i] } else { mbr.hi()[i] };
        min_f += a * x + w * (q[i] * q[i] - p[i] * p[i]);
    }
    min_f <= 1e-9
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
    fn every_strategy_is_exact_lemma2() {
        let pts = uniform(120, 3, 1);
        let qs = queries(60, 3, 2);
        for strategy in [
            Strategy::Correct,
            Strategy::CorrectPruned,
            Strategy::Point,
            Strategy::Sphere,
            Strategy::NnDirection,
        ] {
            let idx = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(strategy).build()).unwrap();
            assert_exact(&idx, &pts, &qs);
            assert_eq!(
                idx.fallback_queries(),
                0,
                "{strategy:?}: in-space queries must not fall back"
            );
        }
    }

    #[test]
    fn decomposition_preserves_exactness() {
        let pts = uniform(100, 4, 3);
        let qs = queries(50, 4, 4);
        for pieces in [2usize, 4, 8] {
            let cfg = BuildConfig::builder().strategy(Strategy::CorrectPruned).decompose_pieces(pieces).build();
            let idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
            assert_exact(&idx, &pts, &qs);
        }
    }

    #[test]
    fn correct_pruned_matches_correct_mbrs_lemma1_tightness() {
        let pts = uniform(80, 3, 5);
        let a = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::Correct).build()).unwrap();
        let b = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::CorrectPruned).build()).unwrap();
        for id in 0..pts.len() {
            let ma = &a.cell(id).unwrap().pieces[0];
            let mb = &b.cell(id).unwrap().pieces[0];
            for i in 0..3 {
                assert!(
                    (ma.lo()[i] - mb.lo()[i]).abs() < 1e-7
                        && (ma.hi()[i] - mb.hi()[i]).abs() < 1e-7,
                    "cell {id} dim {i}: pruned {mb:?} != correct {ma:?}"
                );
            }
        }
    }

    #[test]
    fn heuristic_cells_contain_correct_cells_lemma1() {
        let pts = uniform(90, 2, 6);
        let correct = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::Correct).build()).unwrap();
        for strategy in [Strategy::Point, Strategy::Sphere, Strategy::NnDirection] {
            let idx = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(strategy).build()).unwrap();
            for id in 0..pts.len() {
                let exact = &correct.cell(id).unwrap().pieces[0];
                let appr = &idx.cell(id).unwrap().pieces[0];
                assert!(
                    appr.contains_mbr(exact),
                    "{strategy:?}: cell {id} approx {appr:?} !⊇ exact {exact:?}"
                );
            }
        }
    }

    #[test]
    fn dynamic_inserts_stay_exact() {
        let mut pts = uniform(60, 3, 7);
        let extra = uniform(30, 3, 8);
        let cfg = BuildConfig::builder().strategy(Strategy::Sphere).build();
        let mut idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
        for p in extra {
            idx.insert(p.clone()).unwrap();
            pts.push(p);
        }
        assert_eq!(idx.len(), 90);
        assert_exact(&idx, &pts, &queries(40, 3, 9));
    }

    #[test]
    fn inserts_without_refinement_stay_exact() {
        let mut pts = uniform(50, 2, 10);
        let cfg = BuildConfig::builder().strategy(Strategy::NnDirection).refine_on_insert(false).build();
        let mut idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
        for p in uniform(25, 2, 11) {
            idx.insert(p.clone()).unwrap();
            pts.push(p);
        }
        assert_exact(&idx, &pts, &queries(40, 2, 12));
    }

    #[test]
    fn removals_recompute_neighbors_and_stay_exact() {
        let pts = uniform(80, 2, 13);
        let cfg = BuildConfig::builder().strategy(Strategy::CorrectPruned).build();
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
        let cfg = BuildConfig::builder().strategy(Strategy::Sphere).build();
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
        let mut idx = NnCellIndex::build(pts, BuildConfig::builder().strategy(Strategy::Correct).build()).unwrap();
        for id in 0..20 {
            assert!(idx.remove(id));
        }
        assert!(idx.is_empty());
        assert!(nn(&idx, &[0.5, 0.5]).is_none());
    }

    #[test]
    fn out_of_space_queries_fall_back_but_stay_exact() {
        let pts = uniform(50, 2, 18);
        let idx = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
        let q = [1.5, -0.2];
        let got = nn(&idx, &q).unwrap();
        let want = linear_scan_nn(&pts, &q).unwrap();
        assert_eq!(got.id, want.id);
        assert_eq!(idx.fallback_queries(), 1);
    }

    #[test]
    fn build_errors() {
        assert!(matches!(
            NnCellIndex::build(vec![], BuildConfig::builder().strategy(Strategy::Correct).build()),
            Err(BuildError::EmptyDatabase)
        ));
        let ragged = vec![Point::new(vec![0.1, 0.2]), Point::new(vec![0.1, 0.2, 0.3])];
        assert!(matches!(
            NnCellIndex::build(ragged, BuildConfig::builder().strategy(Strategy::Correct).build()),
            Err(BuildError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
        let mut idx = NnCellIndex::new(2, BuildConfig::builder().strategy(Strategy::Correct).build());
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
        let cfg = || BuildConfig::builder().strategy(Strategy::Correct).build();
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
            BuildConfig::builder().strategy(Strategy::Sphere).input_policy(InputPolicy::Skip).build(),
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
        let idx = NnCellIndex::build(pts, BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
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
    fn forced_lp_failure_build_stays_exact_via_clamp() {
        // Iteration budget 1 starves every backend on every LP, so every
        // extent terminally clamps to the data space. The cells are then the
        // fattest possible supersets — still supersets (Lemma 1), so 100
        // random queries must agree with the linear scan exactly.
        let pts = uniform(80, 3, 47);
        let cfg = BuildConfig::builder().strategy(Strategy::Sphere).lp_max_iterations(1).build();
        let idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
        let st = idx.build_stats();
        assert!(
            st.lp.clamped_extents > 0,
            "budget 1 must clamp: {:?}",
            st.lp
        );
        assert_exact(&idx, &pts, &queries(100, 3, 48));
    }

    #[test]
    fn knn_exact_from_cell_index() {
        let pts = uniform(100, 3, 19);
        let idx = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
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
            BuildConfig::builder().strategy(Strategy::CorrectPruned).build(),
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

    #[test]
    fn build_stats_populated() {
        let pts = uniform(40, 2, 22);
        let idx = NnCellIndex::build(pts, BuildConfig::builder().strategy(Strategy::Correct).build()).unwrap();
        let st = idx.build_stats();
        assert_eq!(st.lp.lp_calls, 40 * 4, "2d LPs per point");
        assert_eq!(st.candidates, 40 * 39);
        assert!(st.seconds > 0.0);
        assert_eq!(idx.total_pieces(), 40);
    }

    #[test]
    fn active_set_backend_matches_other_solvers() {
        use nncell_lp::SolverKind;
        let pts = uniform(60, 3, 29);
        let a = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder().strategy(Strategy::Correct).solver(SolverKind::ActiveSet).build(),
        )
        .unwrap();
        let b = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder().strategy(Strategy::Correct).solver(SolverKind::DualSimplex).build(),
        )
        .unwrap();
        for id in 0..pts.len() {
            let ma = &a.cell(id).unwrap().pieces[0];
            let mb = &b.cell(id).unwrap().pieces[0];
            for k in 0..3 {
                assert!(
                    (ma.lo()[k] - mb.lo()[k]).abs() < 1e-6
                        && (ma.hi()[k] - mb.hi()[k]).abs() < 1e-6,
                    "active-set vs dual disagree on cell {id}"
                );
            }
        }
        assert_exact(&a, &pts, &queries(30, 3, 30));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let pts = uniform(80, 3, 23);
        let seq = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::Sphere).seed(3).build())
            .unwrap();
        let par = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder().strategy(Strategy::Sphere)
                .seed(3)
                .threads(4).build(),
        )
        .unwrap();
        for id in 0..pts.len() {
            let a = &seq.cell(id).unwrap().pieces;
            let b = &par.cell(id).unwrap().pieces;
            assert_eq!(a.len(), b.len(), "cell {id} piece count");
            for (ma, mb) in a.iter().zip(b.iter()) {
                for k in 0..3 {
                    assert!(
                        (ma.lo()[k] - mb.lo()[k]).abs() < 1e-12
                            && (ma.hi()[k] - mb.hi()[k]).abs() < 1e-12,
                        "parallel build must be bit-identical (seeded)"
                    );
                }
            }
        }
        assert_exact(&par, &pts, &queries(30, 3, 24));
    }

    #[test]
    fn grid_data_produces_tiling_cells() {
        // 4x4 exact grid: cells tile the space, zero overlap, one candidate
        // per query.
        let mut pts = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                pts.push(Point::new(vec![
                    (2 * i + 1) as f64 / 8.0,
                    (2 * j + 1) as f64 / 8.0,
                ]));
            }
        }
        let idx = NnCellIndex::build(pts, BuildConfig::builder().strategy(Strategy::Correct).build()).unwrap();
        let cells: Vec<CellApprox> = (0..16).map(|i| idx.cell(i).unwrap().clone()).collect();
        let total: f64 = cells.iter().map(CellApprox::volume).sum();
        assert!((total - 1.0).abs() < 1e-6, "grid cells must tile: {total}");
        // Cell overlap (the paper's quality measure) is reported by the
        // quality module, independent of the engine's traversal stats.
        let m = crate::quality::measured_candidates(&idx, &[vec![0.3, 0.6]]);
        assert_eq!(m, 1.0, "grid point query returns exactly one cell");
        // The engine still answers exactly, with consistent work counters.
        let resp = QueryEngine::sequential(&idx)
            .execute(&Query::nn(vec![0.3, 0.6]))
            .unwrap();
        assert_eq!(
            resp.stats.candidates + resp.stats.candidates_aborted_early,
            resp.stats.candidates_examined,
            "work counters must be sum-consistent"
        );
    }

    #[test]
    fn pooled_build_cuts_constraint_candidates() {
        let pts = uniform(400, 4, 21);
        // The all-pairs strategy is what the pool replaces: n-1 bisector
        // candidates per cell versus ~k from the approximate-neighbor
        // probe. (NnDirection already gathers few candidates — its cost
        // is the O(n) scan per cell, which the pool also removes.)
        let cfg_ex = BuildConfig::builder().strategy(Strategy::CorrectPruned).seed(3);
        let ex = NnCellIndex::build(pts.clone(), cfg_ex.build()).unwrap();
        let po = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder()
                .strategy(Strategy::CorrectPruned)
                .constraint_pool(ConstraintPool::ApproxKnn { k: 16 })
                .seed(3)
                .build(),
        )
        .unwrap();
        assert!(
            po.build_stats().candidates < ex.build_stats().candidates / 10,
            "pooled candidates {} not well below exhaustive {}",
            po.build_stats().candidates,
            ex.build_stats().candidates
        );
        // Fallbacks are the exception, not the rule, on benign data.
        assert!(
            po.build_stats().pool_fallback_cells <= pts.len() / 4,
            "{} of {} cells fell back to the exhaustive pool",
            po.build_stats().pool_fallback_cells,
            pts.len()
        );
        assert_exact(&po, &pts, &queries(20, 4, 5));
    }

    #[test]
    fn incremental_insert_skips_uncut_cells() {
        let mut pts = uniform(300, 2, 9);
        let idx_cfg = BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .constraint_pool(ConstraintPool::ApproxKnn { k: 8 })
            .seed(4)
            .build();
        let extra = pts.split_off(280);
        let mut idx = NnCellIndex::build(pts.clone(), idx_cfg).unwrap();
        for p in extra {
            pts.push(p.clone());
            idx.insert(p).unwrap();
        }
        let s = idx.build_stats();
        // The bisector-cut test must prune at least part of the sphere
        // prefilter's affected set; both counters see traffic.
        assert!(s.insert_refreshes > 0, "no refreshes recorded");
        assert!(
            s.insert_refreshes_skipped > 0,
            "the O(d) bisector-cut test never skipped a cell \
             ({} refreshes)",
            s.insert_refreshes
        );
        assert_exact(&idx, &pts, &queries(20, 2, 6));
    }
}
