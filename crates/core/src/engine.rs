//! The throughput-grade query engine: parallel batch execution with
//! reusable per-thread scratch state.
//!
//! [`QueryEngine`] is a cheap, read-only session over a built
//! [`NnCellIndex`]. It owns no data — it borrows the index (including the
//! cache-friendly flat point layout the index maintains) — so constructing
//! one is free, and any number of engines can query one index concurrently.
//!
//! Execution model:
//!
//! * [`QueryEngine::execute`] answers one [`Query`] on the calling thread.
//! * [`QueryEngine::batch`] fans a query slice out across a configurable
//!   number of worker threads. Workers *steal work* at chunk granularity
//!   from a shared atomic cursor, so an expensive straggler query cannot
//!   idle the rest of the pool.
//! * Each worker carries one [`QueryScratch`] — candidate id buffer,
//!   ranked-distance buffer, tree traversal stack — reused across every
//!   query it executes. Once warm, the per-query path performs **zero heap
//!   allocations** for `k = 1` (and exactly one — the `rest` vector of the
//!   response — for `k > 1`); this is property-checked by a counting
//!   allocator in `crates/core/tests/alloc_free.rs`.
//!
//! Nearest-neighbor kernels (see `DESIGN.md` §17): a **MINDIST-ordered
//! best-first traversal** of the point X-tree streams candidates to this
//! engine in roughly ascending distance; the engine refines each candidate
//! with the **early-abort** distance kernel
//! ([`nncell_geom::dist_sq_early_abort`]) against its running k-th-best
//! distance and hands the shrunk bound back to the traversal, which prunes
//! every MBR whose MINDIST exceeds it before the node is ever read. The
//! pruning work is reported per query in [`QueryStats`] (`nodes_pruned`,
//! `candidates_examined`, `candidates_aborted_early`).
//!
//! Results are **bit-identical** regardless of thread count, and identical
//! to a linear scan: every completed distance evaluation uses the same
//! auto-vectorizable kernel ([`nncell_geom::dist_sq`] — the early-abort
//! variant is bit-identical whenever it completes), distance ties break by
//! ascending point id, and the abort/prune bounds carry a relative slop so
//! floating-point differences between MBR MINDIST accumulation and the
//! kernel can never skip a true answer.
//!
//! There is no scan branch: the walk is exact for any finite query point,
//! inside or outside the data space, and for `k ≥` the live count it
//! evaluates every live point with the same kernel and `(dist, id)` order
//! a linear scan uses.

use crate::index::{NnCellIndex, QueryResult};
use crate::query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
use nncell_geom::{Euclidean, Metric};
use nncell_index::{BestFirstScratch, ItemId, PageId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Relative slop applied to squared-distance pruning/abort bounds. It
/// absorbs the rounding difference between an MBR's MINDIST accumulation
/// and the distance kernel (~1 ulp each), so a bound comparison can only
/// ever be *less* aggressive than the exact comparison it stands in for —
/// a few extra candidates survive to full evaluation, never the reverse.
const BOUND_SLOP: f64 = 1.0 + 1e-12;

/// One worker-produced chunk of batch results, keyed by its input offset.
type BatchPart = (usize, Vec<Result<QueryResponse, QueryError>>);

/// Reusable per-thread query state. All buffers grow to a high-water mark
/// and are then reused allocation-free; one scratch must not be shared
/// between threads (each [`QueryEngine::batch`] worker owns its own).
#[derive(Default)]
pub struct QueryScratch {
    /// Raw point-tree hits of the radius kernel's sphere gather.
    hits: Vec<ItemId>,
    /// Tree traversal stack (radius kernel).
    stack: Vec<PageId>,
    /// Running k-best `(id, dist)` buffer, ascending by `(dist, id)`.
    ranked: Vec<QueryResult>,
    /// Priority-queue scratch of the MINDIST-ordered best-first traversal.
    bf: BestFirstScratch,
}

impl QueryScratch {
    /// A fresh (cold) scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A read-only, thread-safe query session over a built [`NnCellIndex`].
///
/// ```
/// use nncell_core::{BuildConfig, NnCellIndex, Query, QueryEngine};
/// use nncell_geom::Point;
/// let pts = (0..50)
///     .map(|i| Point::new(vec![(i as f64 + 0.5) / 50.0, ((i * 7 % 50) as f64 + 0.5) / 50.0]))
///     .collect();
/// let index = NnCellIndex::build(pts, BuildConfig::default()).unwrap();
/// let engine = QueryEngine::new(&index);
/// let responses = engine.batch(&[Query::nn([0.2, 0.3]), Query::knn([0.8, 0.1], 5)]);
/// let nn = responses[0].as_ref().unwrap();
/// println!("#{} at {:.3} ({} candidates)", nn.best.id, nn.best.dist, nn.stats.candidates);
/// assert_eq!(responses[1].as_ref().unwrap().len(), 5);
/// ```
pub struct QueryEngine<'a, M: Metric = Euclidean> {
    index: &'a NnCellIndex<M>,
    threads: usize,
    /// When false, this engine skips metric recording even if the index has
    /// a registry attached (overhead A/B runs; see the bench).
    record_metrics: bool,
    /// Optional unindexed memtable tail merged into every answer (see
    /// [`QueryEngine::with_tail`]).
    tail: Option<&'a crate::memtable::TailSnapshot>,
}

impl<'a, M: Metric> QueryEngine<'a, M> {
    /// An engine using every available hardware thread for batches.
    pub fn new(index: &'a NnCellIndex<M>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            index,
            threads,
            record_metrics: true,
            tail: None,
        }
    }

    /// An engine that executes batches on the calling thread only.
    pub fn sequential(index: &'a NnCellIndex<M>) -> Self {
        Self {
            index,
            threads: 1,
            record_metrics: true,
            tail: None,
        }
    }

    /// Overrides the batch worker-thread count (≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Disables metric recording for this engine even when the index has a
    /// registry attached — the control arm of overhead measurements.
    pub fn without_metrics(mut self) -> Self {
        self.record_metrics = false;
        self
    }

    /// Merges an unindexed memtable tail into every answer: the indexed
    /// kernel is over-fetched by the tail's tombstone count, tombstoned
    /// ids are filtered out, live tail points are brought in by a
    /// deadline-aware linear scan, and the union is re-ranked by
    /// `(distance, id)`. Exactness is a covering argument — every live
    /// point is either in the index or in the tail —
    /// and the extra work is counted in [`QueryStats::tail`]. With an
    /// empty tail the plain (zero-allocation) path runs unchanged.
    pub fn with_tail(mut self, tail: &'a crate::memtable::TailSnapshot) -> Self {
        self.tail = Some(tail);
        self
    }

    /// The configured batch worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The index this engine reads.
    pub fn index(&self) -> &'a NnCellIndex<M> {
        self.index
    }

    // ------------------------------------------------------------------
    // execution
    // ------------------------------------------------------------------

    /// Executes one query with a private, cold scratch. For steady-state
    /// throughput prefer [`Self::batch`] or [`Self::execute_with`], which
    /// reuse warm buffers.
    pub fn execute(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        self.execute_with(&mut QueryScratch::new(), q)
    }

    /// Executes one query reusing the caller's scratch buffers. Once the
    /// scratch is warm this path performs no heap allocations for `k = 1` —
    /// with or without an attached metrics registry (recording is a handful
    /// of relaxed atomics; the slow-query ring copies into preallocated
    /// slots).
    pub fn execute_with(
        &self,
        scratch: &mut QueryScratch,
        q: &Query,
    ) -> Result<QueryResponse, QueryError> {
        // Inert (one thread-local read) unless this thread is inside a
        // sampled trace; the guard closes when the function returns.
        let mut span = nncell_obs::trace::child("engine.query");
        let metrics = if self.record_metrics {
            self.index.engine_metrics()
        } else {
            None
        };
        let Some(m) = metrics else {
            let result = self.execute_inner(scratch, q);
            if let Ok(resp) = &result {
                span.arg("candidates", resp.stats.candidates as u64);
                span.arg("pages", resp.stats.pages);
                span.arg("nodes_pruned", resp.stats.nodes_pruned);
                span.arg("examined", resp.stats.candidates_examined as u64);
                span.arg("aborted_early", resp.stats.candidates_aborted_early as u64);
            }
            return result;
        };
        let start = std::time::Instant::now();
        let result = self.execute_inner(scratch, q);
        let latency_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        m.queries.inc();
        match &result {
            Ok(resp) => {
                m.latency_ns.record(latency_ns);
                m.candidates.record(resp.stats.candidates as u64);
                m.pages.record(resp.stats.pages);
                m.nodes_pruned.record(resp.stats.nodes_pruned);
                m.candidates_examined
                    .record(resp.stats.candidates_examined as u64);
                m.aborted_early
                    .record(resp.stats.candidates_aborted_early as u64);
                span.arg("candidates", resp.stats.candidates as u64);
                span.arg("pages", resp.stats.pages);
                span.arg("nodes_pruned", resp.stats.nodes_pruned);
                span.arg("examined", resp.stats.candidates_examined as u64);
                span.arg("aborted_early", resp.stats.candidates_aborted_early as u64);
                // The slow log's `k` column is the requested neighbor
                // count; a radius query has none, so it records 0 rather
                // than the sentinel `usize::MAX` that `Query::k` returns.
                let logged_k = match q.kind() {
                    QueryKind::Nearest { k } => k,
                    QueryKind::Radius { .. } => 0,
                };
                // Slow-query exemplar: stamp the active trace id (0 when
                // untraced) so a tripped slow-log entry links to its span
                // timeline in the flight recorder.
                m.slow.record(
                    latency_ns,
                    q.point(),
                    logged_k,
                    resp.stats.candidates,
                    resp.stats.pages as usize,
                    nncell_obs::trace::current_trace_id(),
                );
            }
            Err(_) => m.query_errors.inc(),
        }
        result
    }

    /// The uninstrumented execution path shared by both arms.
    fn execute_inner(
        &self,
        scratch: &mut QueryScratch,
        q: &Query,
    ) -> Result<QueryResponse, QueryError> {
        let idx = self.index;
        let dim = idx.dim();
        let p = q.point();
        if p.len() != dim {
            return Err(QueryError::DimMismatch {
                expected: dim,
                got: p.len(),
            });
        }
        if p.iter().any(|c| !c.is_finite()) {
            return Err(QueryError::NonFiniteQuery);
        }
        match q.kind() {
            QueryKind::Nearest { k: 0 } => return Err(QueryError::ZeroK),
            QueryKind::Radius { radius } if !radius.is_finite() || radius < 0.0 => {
                return Err(QueryError::InvalidRadius)
            }
            _ => {}
        }
        let deadline = q.deadline();
        let tail = self.tail.filter(|t| !t.is_empty());
        if idx.is_empty() && tail.is_none_or(|t| t.inserts.is_empty()) {
            return Err(QueryError::EmptyIndex);
        }
        if out_of_budget(deadline) {
            return Err(QueryError::DeadlineExceeded);
        }
        if let Some(tail) = tail {
            return self.run_with_tail(scratch, q, tail);
        }
        match q.kind() {
            QueryKind::Nearest { k } => self.run_knn(scratch, p, k, deadline),
            QueryKind::Radius { radius } => self.run_radius(scratch, p, radius),
        }
    }

    /// Either kernel merged with a non-empty memtable tail. The indexed
    /// side answers first, minus the ids the tail tombstoned: a k-NN query
    /// asks it for `k + tombstones` neighbors, because at most that many of
    /// its top results can be knocked out, so the survivors still contain
    /// the true indexed top-k; a radius query keeps its whole ball. Tail
    /// inserts are then scanned linearly (bounded by the configured tail
    /// high-watermark, budget-checked), the union is re-ranked by
    /// `(distance, id)` and cut to `k` (a radius query is uncut). An id
    /// present on both sides — a fold published between the tail copy and
    /// the snapshot load — sorts adjacently (same point, bit-identical
    /// distance) and is deduplicated, so the race cannot double-count.
    fn run_with_tail(
        &self,
        scratch: &mut QueryScratch,
        q: &Query,
        tail: &crate::memtable::TailSnapshot,
    ) -> Result<QueryResponse, QueryError> {
        let idx = self.index;
        let p = q.point();
        let deadline = q.deadline();
        // A k-NN query keeps every tail point (an unbounded ball); the cut
        // to k comes after the re-rank.
        let (radius, empty) = match q.kind() {
            QueryKind::Nearest { .. } => (f64::INFINITY, QueryError::EmptyIndex),
            QueryKind::Radius { radius } => (radius, QueryError::EmptyRadius),
        };
        let mut stats = QueryStats::default();
        let mut merged: Vec<QueryResult> = Vec::new();
        if !idx.is_empty() {
            let indexed = match q.kind() {
                QueryKind::Nearest { k } => {
                    self.run_knn(scratch, p, k.saturating_add(tail.removed.len()), deadline)
                }
                QueryKind::Radius { radius } => self.run_radius(scratch, p, radius),
            };
            match indexed {
                Ok(resp) => {
                    stats = resp.stats;
                    merged = resp.into_results();
                }
                // An empty indexed ball can still be filled by the tail.
                Err(QueryError::EmptyRadius) => {}
                Err(e) => return Err(e),
            }
            if !tail.removed.is_empty() {
                merged.retain(|r| !tail.removed.contains(&r.id));
            }
        }
        let mut tspan = nncell_obs::trace::child("engine.tail_merge");
        tspan.arg("tail", tail.inserts.len() as u64);
        let metric = idx.metric();
        merged.reserve(tail.inserts.len());
        for (i, (id, pt)) in tail.inserts.iter().enumerate() {
            if i % 256 == 255 && out_of_budget(deadline) {
                return Err(QueryError::DeadlineExceeded);
            }
            let dist = metric.dist(p, pt.as_slice());
            if dist <= radius {
                merged.push(QueryResult { id: *id, dist });
            }
        }
        stats.candidates += tail.inserts.len();
        stats.tail = tail.inserts.len();
        merged.sort_unstable_by(cmp_results);
        merged.dedup_by(|a, b| a.id == b.id);
        merged.truncate(q.k());
        drop(tspan);
        let mut it = merged.into_iter();
        match it.next() {
            // Every indexed point tombstoned and no tail inserts (or none
            // inside the ball): the answer is genuinely empty.
            None => Err(empty),
            Some(best) => Ok(QueryResponse {
                best,
                rest: it.collect(),
                stats,
            }),
        }
    }

    /// Executes a query slice across the configured thread pool, returning
    /// one result per query **in input order**. Results are bit-identical
    /// for every thread count (queries are independent; each is executed
    /// exactly once).
    ///
    /// Workers claim fixed-size chunks from an atomic cursor
    /// (work-stealing), each reusing its own warm [`QueryScratch`].
    pub fn batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        let n = queries.len();
        let threads = self.threads.min(n.max(1));
        if threads <= 1 {
            let mut scratch = QueryScratch::new();
            return queries
                .iter()
                .map(|q| self.execute_with(&mut scratch, q))
                .collect();
        }
        // Chunks small enough that stragglers rebalance, big enough that
        // the cursor and the merge lock stay cold.
        let chunk = (n / (threads * 4)).clamp(1, 1024);
        let n_chunks = n.div_ceil(chunk);
        let cursor = AtomicUsize::new(0);
        let parts: Mutex<Vec<BatchPart>> = Mutex::new(Vec::with_capacity(n_chunks));
        // Workers inherit the spawner's trace context (if any) so their
        // per-query spans parent under the same request trace.
        let trace_ctx = nncell_obs::trace::current();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let _trace = nncell_obs::trace::adopt(trace_ctx);
                    let mut scratch = QueryScratch::new();
                    loop {
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let lo = ci * chunk;
                        let hi = (lo + chunk).min(n);
                        let part: Vec<_> = queries[lo..hi]
                            .iter()
                            .map(|q| self.execute_with(&mut scratch, q))
                            .collect();
                        parts.lock().expect("batch merge lock").push((lo, part));
                    }
                });
            }
        });
        let mut parts = parts.into_inner().expect("batch merge lock");
        parts.sort_unstable_by_key(|(lo, _)| *lo);
        let mut out = Vec::with_capacity(n);
        for (_, part) in parts {
            out.extend(part);
        }
        out
    }

    // ------------------------------------------------------------------
    // the two query kernels
    // ------------------------------------------------------------------

    /// Exact k-NN (including `k = 1`) by MINDIST-ordered best-first
    /// traversal of the **point** X-tree with early-abort refinement.
    ///
    /// The traversal ([`nncell_index::Tree::best_first_stream_with`])
    /// expands directory pages in ascending MINDIST order and streams leaf
    /// items to the closure below, which evaluates each live candidate with
    /// the early-abort kernel against the current k-th-best distance and
    /// hands the shrunk bound back for page pruning. Exactness: a page is
    /// pruned only when its MINDIST **strictly** exceeds the slopped bound
    /// `(kth_dist)² · BOUND_SLOP / w_min` (the `w_min` division converts a
    /// weighted-metric bound into the tree's Euclidean geometry, since
    /// `d²_w(q, x) ≥ w_min · ‖q − x‖²`), so every point that could tie or
    /// beat the k-th result is evaluated exactly — with the same kernel,
    /// in the same `(dist, id)` order, as the linear scan. MINDIST bounds
    /// hold for any query point, so the walk is exact outside the data
    /// space too; with `k ≥` the live count the k-th-best bound never
    /// forms, nothing is pruned or aborted, and every live point is
    /// evaluated.
    ///
    /// The query's budget (if any) is checked every 128 streamed items;
    /// an expired budget aborts the traversal and surfaces as
    /// [`QueryError::DeadlineExceeded`] instead of hogging the worker.
    fn run_knn(
        &self,
        scratch: &mut QueryScratch,
        p: &[f64],
        k: usize,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryResponse, QueryError> {
        let idx = self.index;
        let metric = idx.metric();
        let alive = idx.alive();
        let mut w_min = f64::INFINITY;
        for i in 0..idx.dim() {
            w_min = w_min.min(metric.weight(i));
        }
        let QueryScratch { ranked, bf, .. } = scratch;
        ranked.clear();
        let mut examined = 0usize;
        let mut aborted = 0usize;
        let mut visits = 0u32;
        let mut deadline_hit = false;
        // Squared-distance bounds: `abort_bound` cuts kernel evaluations
        // short, `tree_bound` (its Euclidean relaxation) prunes pages.
        let mut abort_bound = f64::INFINITY;
        let mut tree_bound = f64::INFINITY;
        let tstats = idx.point_tree().best_first_stream_with(p, bf, |item| {
            visits += 1;
            if visits.is_multiple_of(128) && out_of_budget(deadline) {
                deadline_hit = true;
                return f64::NEG_INFINITY; // abort the whole traversal
            }
            // Point-tree items carry raw point ids (no piece encoding).
            let id = item as usize;
            if !alive[id] {
                return tree_bound;
            }
            examined += 1;
            match metric.dist_sq_early_abort(p, idx.flat_point(id), abort_bound) {
                None => aborted += 1, // provably beyond the k-th best
                Some(d2) => {
                    let r = QueryResult { id, dist: d2.sqrt() };
                    if ranked.len() < k {
                        // No bound exists before the k-th result, so the
                        // first k are collected unordered and sorted once
                        // — which keeps `k ≥` the live count a sort, not
                        // a quadratic run of sorted inserts.
                        ranked.push(r);
                        if ranked.len() < k {
                            return tree_bound;
                        }
                        ranked.sort_unstable_by(cmp_results);
                    } else if cmp_results(&r, &ranked[k - 1]) == std::cmp::Ordering::Less {
                        ranked.pop();
                        let pos =
                            ranked.partition_point(|x| cmp_results(x, &r) == std::cmp::Ordering::Less);
                        ranked.insert(pos, r);
                    } else {
                        return tree_bound;
                    }
                    let b = ranked[k - 1].dist;
                    abort_bound = (b * b) * BOUND_SLOP;
                    tree_bound = abort_bound / w_min;
                }
            }
            tree_bound
        });
        if deadline_hit {
            return Err(QueryError::DeadlineExceeded);
        }
        // Fewer than k live points: the fill phase never sorted.
        if ranked.len() < k {
            ranked.sort_unstable_by(cmp_results);
        }
        if ranked.is_empty() {
            // Unreachable while the tree and alive-mask agree (the caller
            // checked that live points exist), but the library contract is
            // degrade-not-panic.
            return Err(QueryError::EmptyIndex);
        }
        Ok(QueryResponse {
            best: ranked[0],
            rest: ranked[1..].to_vec(),
            stats: QueryStats {
                candidates: examined - aborted,
                pages: tstats.pages,
                tail: 0,
                nodes_pruned: tstats.nodes_pruned,
                candidates_examined: examined,
                candidates_aborted_early: aborted,
            },
        })
    }

    /// Exact radius query, riding the point tree:
    /// one sphere query collects every stored point whose Euclidean
    /// distance can be within the ball, then the exact metric filter keeps
    /// `dist ≤ r`. The point tree holds every live point directly, and its
    /// sphere query is exact for *any* center, including centers outside
    /// the data space.
    fn run_radius(
        &self,
        scratch: &mut QueryScratch,
        p: &[f64],
        r: f64,
    ) -> Result<QueryResponse, QueryError> {
        let idx = self.index;
        let metric = idx.metric();
        // The tree prunes in Euclidean geometry; a weighted-metric ball of
        // radius r is contained in the Euclidean ball of radius
        // r / sqrt(min weight). The tiny inflation keeps boundary points
        // (dist == r exactly) from being pruned by the tree's own
        // floating-point arithmetic.
        let mut w_min = f64::INFINITY;
        for i in 0..idx.dim() {
            w_min = w_min.min(metric.weight(i));
        }
        let tree_r = (r / w_min.sqrt()) * (1.0 + 1e-9) + 1e-12;
        let pages =
            idx.point_tree()
                .sphere_query_with(p, tree_r, &mut scratch.stack, &mut scratch.hits);
        let alive = idx.alive();
        let mut out: Vec<QueryResult> = Vec::new();
        let mut examined = 0usize;
        let mut aborted = 0usize;
        // Squared abort bound for the ball: a partial sum already beyond
        // `r²` (plus slop, so an exact-boundary point is never cut) proves
        // the point is outside and the kernel can stop early.
        let abort_bound = (r * r) * BOUND_SLOP;
        for &h in scratch.hits.iter() {
            // Point-tree items carry raw point ids (no piece encoding).
            let id = h as usize;
            if !alive[id] {
                continue;
            }
            examined += 1;
            match metric.dist_sq_early_abort(p, idx.flat_point(id), abort_bound) {
                None => aborted += 1, // provably outside the ball
                Some(d2) => {
                    let dist = d2.sqrt();
                    if dist <= r {
                        out.push(QueryResult { id, dist });
                    }
                }
            }
        }
        out.sort_unstable_by(cmp_results);
        let stats = QueryStats {
            candidates: examined - aborted,
            pages,
            tail: 0,
            nodes_pruned: 0,
            candidates_examined: examined,
            candidates_aborted_early: aborted,
        };
        let mut it = out.into_iter();
        match it.next() {
            None => Err(QueryError::EmptyRadius),
            Some(best) => Ok(QueryResponse {
                best,
                rest: it.collect(),
                stats,
            }),
        }
    }
}

/// Whether the (optional) deadline has passed.
fn out_of_budget(deadline: Option<std::time::Instant>) -> bool {
    deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// The one result ordering every exact path uses: ascending `(dist, id)`
/// with [`f64::total_cmp`] — the exact ordering of
/// [`crate::scan::linear_scan_knn`], which makes results bit-identical to
/// the linear scan and independent of candidate arrival order.
fn cmp_results(a: &QueryResult, b: &QueryResult) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}
