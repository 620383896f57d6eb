//! NN-cells: the paper's precomputed solution space, built offline from a
//! serving index.
//!
//! [`CellSet::build`] approximates every live point's first-order Voronoi
//! cell (its *NN-cell*) by the MBR of `2·d` linear programs over bisector
//! constraints (optionally decomposed into pieces, section 3) and packs the
//! pieces into an STR-loaded X-tree. [`CellSet::nn`] is the paper's query:
//! a point query on that tree plus a distance check over the candidates —
//! exact because every approximation is a superset of its true cell
//! (Lemmas 1 and 2).
//!
//! A `CellSet` is a read-only snapshot of one index at one moment. It
//! reads the index only through its public API — points, liveness and
//! metric — and STR-loads its own point X-tree over the live points for
//! the rival gather, so the serving layout can change without touching
//! it. No query of the serving path reads a `CellSet`; the paper's figure
//! benches, the [`crate::quality`] metrics and the examples build one
//! when they need cells.

use crate::config::{CellConfig, Strategy};
use crate::decompose::decompose_cell;
use crate::strategy::{gather_rival_ids, nearest_rivals, GatherScratch};
use nncell_core::{NnCellIndex, QueryResult};
use nncell_geom::{DataSpace, Halfspace, Mbr, Metric, Point};
use nncell_index::{IoStats, ItemId, PageId, TreeConfig, XTree};
use nncell_lp::{CellLpStats, CellSolve, VoronoiLp};
use std::time::Instant;

/// STR bulk-load fill fraction of both trees, the same packing the
/// serving index loads its point tree with, so a freshly built index and
/// the gather see the same pages.
const STR_FILL: f64 = 0.9;

/// Bits of the cell-tree item id reserved for the piece index; the rest is
/// the point id. Decomposition budgets are tiny (≤ ~10 pieces), so 10 bits
/// is generous.
const PIECE_BITS: u32 = 10;
/// The largest decomposition budget the cell-tree ids can address.
const MAX_PIECES: usize = 1 << PIECE_BITS;

/// Seed salt distinguishing the CorrectPruned rough solve from the final
/// solve ("rough" in ASCII).
const ROUGH_SALT: u64 = 0x726f756768;

/// One computed cell: pieces, LP counters, candidate count, phase timings.
type CellComputation = (Vec<Mbr>, CellLpStats, usize, CellTimings);

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
}

/// Per-phase profile of one [`CellSet::build`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildProfile {
    /// Rival gathering and bisector assembly (for *CorrectPruned*, includes
    /// the rough pre-solve that bounds the candidate set).
    pub constraint_selection: PhaseTiming,
    /// The `2·d` extent LPs per cell.
    pub lp_solve: PhaseTiming,
    /// MBR decomposition (zero calls when decomposition is off).
    pub decomposition: PhaseTiming,
    /// STR packing of the cell pieces into the cell tree.
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

/// Phase timings of one cell computation (build-profiler plumbing).
#[derive(Clone, Copy, Debug, Default)]
struct CellTimings {
    constraint_ns: u64,
    lp_ns: u64,
    decomp_ns: u64,
    decomposed: bool,
}

/// Counters describing one [`CellSet::build`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CellStats {
    /// Aggregate LP work.
    pub lp: CellLpStats,
    /// Total rival candidates fed into bisector construction.
    pub candidates: usize,
    /// Wall-clock build time in seconds.
    pub seconds: f64,
    /// Per-phase wall-clock profile with per-batch timings.
    pub profile: BuildProfile,
}

/// Outcome of [`CellSet::verify_integrity`].
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

/// The NN-cell approximations of one index's live points, with the X-tree
/// that stores their pieces. See the module docs.
pub struct CellSet {
    cells: Vec<CellApprox>,
    tree: XTree,
    stats: CellStats,
    /// `(slots, live)` of the index at build time. Any insert or remove
    /// changes one of them, so [`Self::nn`] can tell stale cells apart.
    shape: (usize, usize),
}

impl CellSet {
    /// Approximates the NN-cell of every live point of `index`.
    /// Infallible: LP breakdowns degrade to the data-space clamp, which
    /// keeps every approximation a superset (Lemma 1).
    ///
    /// Cells are independent given the read-only gather tree, so the
    /// computation fans out across `cfg.threads` workers.
    ///
    /// # Panics
    /// Panics if `cfg.decompose_pieces` exceeds 1024, the most pieces the
    /// cell-tree item ids can address.
    pub fn build<M: Metric>(index: &NnCellIndex<M>, cfg: CellConfig) -> Self {
        assert!(
            cfg.decompose_pieces.unwrap_or(1) <= MAX_PIECES,
            "decomposition budget exceeds {MAX_PIECES}"
        );
        let start = Instant::now();
        let d = index.dim();
        let points = index.points();
        let n = points.len();
        let alive: Vec<bool> = (0..n).map(|id| index.is_live(id)).collect();
        // The rivals are gathered from a point tree over the live points,
        // packed here rather than borrowed from the index.
        let tree_cfg = TreeConfig::xtree(d).with_block_size(cfg.block_size);
        let point_tree = packed_tree(
            tree_cfg.clone().with_point_leaves(true),
            (0..n)
                .filter(|&id| alive[id])
                .map(|id| (Mbr::from_point(points[id].as_slice()), id as u64))
                .collect(),
        );
        let builder = Builder {
            points,
            alive: &alive,
            live: index.len(),
            point_tree: &point_tree,
            vlp: VoronoiLp::new(index.metric().clone(), DataSpace::unit(d), cfg.solver)
                .with_budget(cfg.lp_budget),
            cfg: &cfg,
        };
        let threads = cfg.threads.clamp(1, n.max(1));
        let builder = &builder;
        let chunk = n.div_ceil(threads).max(1);
        // Worker `w` computes the live ids of chunk `w`, in order, so the
        // parts joined in worker order are in id order.
        let parts: Vec<(Vec<(usize, CellComputation)>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || {
                        let batch_start = Instant::now();
                        let mut scratch = GatherScratch::new();
                        let part: Vec<(usize, CellComputation)> = (w * chunk
                            ..((w + 1) * chunk).min(n))
                            .filter(|&id| builder.alive[id])
                            .map(|id| (id, builder.compute_cell_pieces(id, &mut scratch)))
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
        // STR bulk load: per-piece inserts into an X-tree of heavily
        // overlapping high-d cell MBRs degrade super-linearly (supernodes
        // grow, and every insert walks them). Packing the finished pieces
        // once is O(N log N).
        let store_start = Instant::now();
        let mut stats = CellStats::default();
        let mut cells = vec![CellApprox::default(); n];
        let mut items: Vec<(Mbr, ItemId)> = Vec::with_capacity(n);
        for (part, batch_nanos) in parts {
            if !part.is_empty() {
                stats.profile.record_batch(batch_nanos);
            }
            for (id, (pieces, lp, cands, timings)) in part {
                stats.lp.merge(lp);
                stats.candidates += cands;
                stats.profile.absorb_cell(timings);
                for (piece_idx, mbr) in pieces.iter().enumerate() {
                    items.push((mbr.clone(), piece_key(id, piece_idx)));
                }
                cells[id] = CellApprox { pieces };
            }
        }
        let tree = packed_tree(tree_cfg, items);
        stats.profile.bulk_load.add(elapsed_nanos(store_start));
        stats.seconds = start.elapsed().as_secs_f64();
        Self {
            cells,
            tree,
            stats,
            shape: (n, index.len()),
        }
    }

    /// The stored approximation of point `id`'s NN-cell (`None` for ids
    /// that were not live at build time).
    pub fn cell(&self, id: usize) -> Option<&CellApprox> {
        self.cells.get(id).filter(|c| !c.pieces.is_empty())
    }

    /// The approximations of every live point, in id order.
    pub fn live_cells(&self) -> Vec<CellApprox> {
        self.cells
            .iter()
            .filter(|c| !c.pieces.is_empty())
            .cloned()
            .collect()
    }

    /// Construction counters.
    pub fn stats(&self) -> &CellStats {
        &self.stats
    }

    /// Total pieces stored in the cell tree.
    pub fn total_pieces(&self) -> usize {
        self.cells.iter().map(|c| c.pieces.len()).sum()
    }

    /// Cost counters of the cell X-tree (what [`Self::nn`] pays).
    pub fn cell_tree_stats(&self) -> IoStats {
        self.tree.stats()
    }

    /// Total simulated pages occupied by the cell X-tree.
    pub fn cell_tree_pages(&self) -> u64 {
        self.tree.total_pages()
    }

    /// Resets the cell tree's cost counters.
    pub fn reset_stats(&self) {
        self.tree.reset_stats();
    }

    /// Enables a simulated LRU page cache of `pages` pages on the cell tree
    /// (0 disables).
    pub fn enable_cache(&self, pages: usize) {
        self.tree.enable_cache(pages);
    }

    /// The ids of the live cells whose approximation contains `q`, sorted
    /// and deduplicated (several pieces of one cell count once). The
    /// buffers are reused across calls.
    pub(crate) fn candidates_into(
        &self,
        q: &[f64],
        stack: &mut Vec<PageId>,
        hits: &mut Vec<ItemId>,
        out: &mut Vec<usize>,
    ) {
        self.tree.point_query_with(q, stack, hits);
        out.clear();
        out.extend(hits.iter().map(|&h| (h >> PIECE_BITS) as usize));
        out.sort_unstable();
        out.dedup();
    }

    /// Exact nearest neighbor of `q` the paper's way: a point query on the
    /// cell tree, then early-abort refinement over the candidates in id
    /// order, ties broken by `(dist, id)`. `None` for an empty index or a
    /// malformed query (wrong dimensionality, NaN/∞).
    ///
    /// When no cell contains `q` (it lies outside the data space) or the
    /// index changed since [`Self::build`], the cells prove nothing and
    /// the answer comes from an exact scan instead.
    pub fn nn<M: Metric>(&self, index: &NnCellIndex<M>, q: &[f64]) -> Option<QueryResult> {
        if index.is_empty() || q.len() != index.dim() || q.iter().any(|c| !c.is_finite()) {
            return None;
        }
        let mut ids = Vec::new();
        if self.shape == (index.points().len(), index.len()) {
            self.candidates_into(q, &mut Vec::new(), &mut Vec::new(), &mut ids);
        }
        if ids.is_empty() {
            ids.extend((0..index.points().len()).filter(|&id| index.is_live(id)));
        }
        let (metric, points) = (index.metric(), index.points());
        let mut best: Option<(usize, f64)> = None;
        for id in ids {
            let bound = best.map_or(f64::INFINITY, |b| b.1);
            if let Some(d2) = metric.dist_sq_early_abort(q, points[id].as_slice(), bound) {
                if d2 < bound {
                    best = Some((id, d2));
                }
            }
        }
        best.map(|(id, d2)| QueryResult {
            id,
            dist: d2.sqrt(),
        })
    }

    /// Checks the structural invariants of every live cell approximation:
    /// each must have at least one piece, every piece must be finite, of the
    /// right dimensionality, and overlap the data space, and at least one
    /// piece must contain the generating point (the point lies in its own
    /// cell, and the pieces cover the cell — Lemma 2's covering property).
    /// A cell that fails any of these could cause a false dismissal.
    pub fn verify_integrity<M: Metric>(&self, index: &NnCellIndex<M>) -> IntegrityReport {
        const TOL: f64 = 1e-9;
        let d = index.dim();
        let space = DataSpace::unit(d);
        let mut report = IntegrityReport::default();
        for (id, cell) in self.cells.iter().enumerate() {
            if !index.is_live(id) {
                continue;
            }
            report.checked_cells += 1;
            let p = &index.points()[id];
            let pieces = &cell.pieces;
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
                && pieces
                    .iter()
                    .any(|m| (0..d).all(|i| p[i] >= m.lo()[i] - TOL && p[i] <= m.hi()[i] + TOL));
            if !covers_point {
                report.bad_cells.push(id);
            }
        }
        report
    }
}

/// An X-tree STR-packed with `items` (an empty tree when there are none).
fn packed_tree(cfg: TreeConfig, items: Vec<(Mbr, ItemId)>) -> XTree {
    if items.is_empty() {
        XTree::with_config(cfg)
    } else {
        XTree::bulk_load(cfg, items, STR_FILL)
    }
}

/// The cell-tree item id of piece `piece_idx` of point `id`'s cell.
fn piece_key(id: usize, piece_idx: usize) -> ItemId {
    debug_assert!(piece_idx < MAX_PIECES);
    ((id as u64) << PIECE_BITS) | piece_idx as u64
}

/// Everything one cell computation reads: the index's point slots and
/// liveness, the gather tree over the live points, the LP solver, and the
/// configuration. Shared read-only by the build workers.
struct Builder<'a, M: Metric> {
    points: &'a [Point],
    alive: &'a [bool],
    /// Live points at build time (sizes the Sphere radius).
    live: usize,
    point_tree: &'a XTree,
    vlp: VoronoiLp<M>,
    cfg: &'a CellConfig,
}

impl<M: Metric> Builder<'_, M> {
    /// Computes the (possibly decomposed) approximation of `id`'s cell.
    /// Infallible: LP breakdowns degrade to the data-space clamp inside
    /// [`VoronoiLp`], which keeps the approximation a superset (Lemma 1).
    fn compute_cell_pieces(&self, id: usize, scratch: &mut GatherScratch) -> CellComputation {
        let points = self.points;
        let p = &points[id];
        let d = p.dim();
        let seed = self.cfg.seed ^ ((id as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut stats = CellLpStats::default();
        let mut timings = CellTimings::default();

        let phase_start = Instant::now();
        let cons = if self.cfg.strategy == Strategy::CorrectPruned && self.live > 4 * d + 1 {
            // Exactness-preserving two-step prune (see nncell-lp docs):
            // 1. rough superset MBR from the 4·d nearest rivals;
            // 2. only rivals within twice the rough box's max corner
            //    distance can have a bisector cutting that box, so a tree
            //    sphere query bounds the candidate set without scanning N;
            // 3. the per-bisector prune drops the rest.
            let near = nearest_rivals(p, id, self.point_tree, 4 * d);
            let near_cons = self
                .vlp
                .bisectors(p, near.iter().map(|&j| points[j].as_slice()));
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
                .bisectors(p, rivals.iter().map(|&j| points[j].as_slice()));
            VoronoiLp::<M>::prune_constraints(all, &rough.mbr)
        } else {
            let rivals = gather_rival_ids(
                self.cfg,
                id,
                points,
                self.alive,
                self.point_tree,
                self.live,
                scratch,
            );
            self.vlp
                .bisectors(p, rivals.iter().map(|&j| points[j].as_slice()))
        };
        let n_cands = cons.len();
        timings.constraint_ns = elapsed_nanos(phase_start);

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
        timings.lp_ns = elapsed_nanos(phase_start);

        let pieces = self.finish_pieces(&cons, &solve, seed, &mut stats, &mut timings);
        (pieces, stats, n_cands, timings)
    }

    /// Optional decomposition of a solved cell into its piece MBRs.
    fn finish_pieces(
        &self,
        cons: &[Halfspace],
        solve: &CellSolve,
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
}

/// Elapsed nanoseconds since `start`, saturating into `u64` (≈ 584 years).
fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncell_core::{linear_scan_nn, BuildConfig};
    use nncell_lp::SolverKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// An index over `pts` and its cells under `cfg`.
    fn build(pts: &[Point], cfg: CellConfig) -> (NnCellIndex, CellSet) {
        let idx = NnCellIndex::build(pts.to_vec(), BuildConfig::default()).unwrap();
        let cells = CellSet::build(&idx, cfg);
        (idx, cells)
    }

    fn strategy(s: Strategy) -> CellConfig {
        CellConfig::builder().strategy(s).build()
    }

    /// The cell query agrees with the scan, id and distance bits.
    fn assert_exact(idx: &NnCellIndex, cells: &CellSet, pts: &[Point], qs: &[Vec<f64>]) {
        for q in qs {
            let got = cells.nn(idx, q).expect("non-empty");
            let want = linear_scan_nn(pts, q).unwrap();
            assert_eq!(got.id, want.id, "q={q:?}");
            assert_eq!(got.dist.to_bits(), want.dist.to_bits(), "q={q:?}");
        }
    }

    #[test]
    fn correct_pruned_matches_correct_mbrs_lemma1_tightness() {
        let pts = uniform(80, 3, 5);
        let (_, a) = build(&pts, strategy(Strategy::Correct));
        let (_, b) = build(&pts, strategy(Strategy::CorrectPruned));
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
        let (_, correct) = build(&pts, strategy(Strategy::Correct));
        for s in [Strategy::Point, Strategy::Sphere, Strategy::NnDirection] {
            let (_, cells) = build(&pts, strategy(s));
            for id in 0..pts.len() {
                let exact = &correct.cell(id).unwrap().pieces[0];
                let appr = &cells.cell(id).unwrap().pieces[0];
                assert!(
                    appr.contains_mbr(exact),
                    "{s:?}: cell {id} approx {appr:?} !⊇ exact {exact:?}"
                );
            }
        }
    }

    #[test]
    fn forced_lp_failure_build_stays_exact_via_clamp() {
        // Iteration budget 1 starves every backend on every LP, so every
        // extent terminally clamps to the data space. The cells are then the
        // fattest possible supersets — still supersets (Lemma 1), so 100
        // random queries must agree with the linear scan exactly.
        let pts = uniform(80, 3, 47);
        let cfg = CellConfig::builder()
            .strategy(Strategy::Sphere)
            .lp_max_iterations(1)
            .build();
        let (idx, cells) = build(&pts, cfg);
        let st = cells.stats();
        assert!(
            st.lp.clamped_extents > 0,
            "budget 1 must clamp: {:?}",
            st.lp
        );
        assert_exact(&idx, &cells, &pts, &queries(100, 3, 48));
    }

    #[test]
    fn build_stats_populated() {
        let pts = uniform(40, 2, 22);
        let (_, cells) = build(&pts, strategy(Strategy::Correct));
        let st = cells.stats();
        assert_eq!(st.lp.lp_calls, 40 * 4, "2d LPs per point");
        assert_eq!(st.candidates, 40 * 39);
        assert!(st.seconds > 0.0);
        assert_eq!(st.profile.lp_solve.calls, 40);
        assert_eq!(cells.total_pieces(), 40);
    }

    #[test]
    fn active_set_backend_matches_other_solvers() {
        let pts = uniform(60, 3, 29);
        let solver = |k| {
            CellConfig::builder()
                .strategy(Strategy::Correct)
                .solver(k)
                .build()
        };
        let (idx, a) = build(&pts, solver(SolverKind::ActiveSet));
        let (_, b) = build(&pts, solver(SolverKind::DualSimplex));
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
        assert_exact(&idx, &a, &pts, &queries(30, 3, 30));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let pts = uniform(80, 3, 23);
        let cfg = CellConfig::builder().strategy(Strategy::Sphere).seed(3);
        let (_, seq) = build(&pts, cfg.clone().build());
        let (idx, par) = build(&pts, cfg.threads(4).build());
        for id in 0..pts.len() {
            let a = &seq.cell(id).unwrap().pieces;
            let b = &par.cell(id).unwrap().pieces;
            assert_eq!(
                a, b,
                "parallel build must be bit-identical (seeded), cell {id}"
            );
        }
        assert_eq!(par.stats().profile.batches, 4);
        assert_exact(&idx, &par, &pts, &queries(30, 3, 24));
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
        let (idx, cells) = build(&pts, strategy(Strategy::Correct));
        let total: f64 = cells.live_cells().iter().map(CellApprox::volume).sum();
        assert!((total - 1.0).abs() < 1e-6, "grid cells must tile: {total}");
        let m = crate::quality::measured_candidates(&cells, &[vec![0.3, 0.6]]);
        assert_eq!(m, 1.0, "grid point query returns exactly one cell");
        assert!(cells.verify_integrity(&idx).is_ok());
    }

    #[test]
    fn cells_skip_dead_points_and_stale_cells_fall_back_to_a_scan() {
        let pts = uniform(60, 2, 31);
        let mut idx = NnCellIndex::build(pts.clone(), BuildConfig::default()).unwrap();
        assert!(idx.remove(7));
        let cells = CellSet::build(&idx, CellConfig::default());
        assert!(cells.cell(7).is_none());
        assert_eq!(cells.verify_integrity(&idx).checked_cells, 59);
        let live: Vec<Point> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i == 7 {
                    Point::new(vec![9.0, 9.0])
                } else {
                    p.clone()
                }
            })
            .collect();
        assert_exact(&idx, &cells, &live, &queries(40, 2, 32));
        // The index moves on; the cells no longer describe it, and answers
        // stay exact through the scan.
        let far = idx.insert(Point::new(vec![0.999, 0.001])).unwrap();
        assert_eq!(cells.nn(&idx, &[0.999, 0.001]).unwrap().id, far);
        // Malformed queries are `None`, out-of-space queries scan.
        assert!(cells.nn(&idx, &[0.5]).is_none());
        assert!(cells.nn(&idx, &[f64::NAN, 0.5]).is_none());
        assert!(cells.nn(&idx, &[1.5, -0.2]).is_some());
    }
}
