//! Constraint-selection strategies (the paper's figure 3).
//!
//! Determining a cell's MBR needs a linear program per extent; the cost is
//! driven by how many bisector constraints enter it. Each strategy picks the
//! rival points whose bisectors are used. By Lemma 1, *any* subset yields a
//! superset approximation, so every strategy preserves exact query answers.

use crate::config::{BuildConfig, Strategy};
use nncell_geom::Point;
use nncell_index::{BestFirstScratch, Tree, XTree};

/// Collects the rival point ids whose bisectors constrain the cell of point
/// `id` under the configured strategy.
///
/// `tree` is the data-point X-tree (ids are point indices); dead points are
/// absent from it. `live_count` sizes the Sphere radius heuristic.
pub(crate) fn gather_rival_ids(
    cfg: &BuildConfig,
    id: usize,
    points: &[Point],
    alive: &[bool],
    tree: &XTree,
    live_count: usize,
    scratch: &mut GatherScratch,
) -> Vec<usize> {
    let p = &points[id];
    let d = p.dim();
    let mut ids: Vec<usize> = match cfg.strategy {
        Strategy::Correct | Strategy::CorrectPruned => {
            (0..points.len()).filter(|&j| j != id && alive[j]).collect()
        }
        Strategy::Point => tree
            .page_point_query(p)
            .into_iter()
            .map(|x| x as usize)
            .collect(),
        Strategy::Sphere => {
            let r = cfg.effective_sphere_radius(live_count, d);
            tree.page_sphere_query(p, r)
                .into_iter()
                .map(|x| x as usize)
                .collect()
        }
        Strategy::NnDirection => nn_direction_candidates(p, id, points, tree, scratch),
    };
    ids.sort_unstable();
    ids.dedup();
    ids.retain(|&j| j != id && alive[j]);
    ids
}

/// Reusable buffers for gathering one cell's rivals: the best-first heap
/// and the running bests of the NN-Direction walk. One per build worker
/// (or per write call), so gathering a cell allocates nothing once warm.
#[derive(Default)]
pub(crate) struct GatherScratch {
    bf: BestFirstScratch,
    /// Per open axis halfspace, slot `2·dim` for `x[dim] > p[dim]` and
    /// `2·dim + 1` for `x[dim] < p[dim]`: the `(d², id)`-least point seen,
    /// or [`EMPTY`] while the halfspace has none.
    sides: Vec<(f64, usize)>,
    /// The `k` least `(d², id)` pairs seen, ascending.
    near: Vec<(f64, usize)>,
}

/// Marks a halfspace slot that holds no point yet.
const EMPTY: (f64, usize) = (f64::INFINITY, usize::MAX);

/// Strict `(d², id)` order: the NN-Direction tie rule.
fn before(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl GatherScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// One MINDIST-ordered walk of `tree` from `p` that finds, by
    /// `(d², id)`, the nearest point in each of the `2·d` open axis
    /// halfspaces (a point with `x[dim] == p[dim]` lies in neither) and
    /// the `k` nearest points overall. `tree` stores point `j` of
    /// `points` under item id `j`.
    ///
    /// The walk's bound is the largest of the `2·d + 1` running bounds (each
    /// halfspace best and the `k`-th nearest), infinite until all are
    /// filled. A page whose MINDIST² exceeds it holds no point that could
    /// improve any of them, so pruning it loses nothing. Squared distances
    /// are summed sequentially, bit-identical to `Mbr::min_dist_sq` on a
    /// point entry, so the orderings match the tree's own.
    pub(crate) fn walk_directions(&mut self, tree: &Tree, points: &[Point], p: &[f64], k: usize) {
        let Self { bf, sides, near } = self;
        sides.clear();
        sides.resize(2 * p.len(), EMPTY);
        near.clear();
        let mut bound = f64::INFINITY;
        tree.best_first_stream_with(p, bf, |item| {
            let j = item as usize;
            let x = points[j].as_slice();
            let mut d2 = 0.0;
            for (a, b) in x.iter().zip(p) {
                let t = a - b;
                d2 += t * t;
            }
            if d2 > bound {
                return bound;
            }
            let cand = (d2, j);
            let mut changed = false;
            for (i, (a, b)) in x.iter().zip(p).enumerate() {
                let slot = if a > b {
                    2 * i
                } else if a < b {
                    2 * i + 1
                } else {
                    continue;
                };
                if before(cand, sides[slot]) {
                    sides[slot] = cand;
                    changed = true;
                }
            }
            if near.len() < k || before(cand, near[k - 1]) {
                let at = near.partition_point(|&e| before(e, cand));
                near.insert(at, cand);
                near.truncate(k);
                changed = true;
            }
            if changed && near.len() == k {
                bound = sides.iter().fold(near[k - 1].0, |m, s| m.max(s.0));
            }
            bound
        });
    }

    /// The nearest point in halfspace `sign·(x[dim] − p[dim]) > 0` found by
    /// the last walk, as `(d², id)`.
    #[cfg(test)]
    pub(crate) fn side(&self, dim: usize, positive: bool) -> Option<(f64, usize)> {
        let s = self.sides[2 * dim + usize::from(!positive)];
        (s.1 != usize::MAX).then_some(s)
    }
}

/// The `4·d` NN-Direction candidates: per axis direction the nearest point
/// in that halfspace, plus (from the `8·d` nearest neighbors) the point with
/// the smallest angular deviation from that axis direction. One tree walk
/// ([`GatherScratch::walk_directions`]) finds both.
fn nn_direction_candidates(
    p: &Point,
    id: usize,
    points: &[Point],
    tree: &Tree,
    scratch: &mut GatherScratch,
) -> Vec<usize> {
    let d = p.dim();
    scratch.walk_directions(tree, points, p, 8 * d + 1);
    let mut out: Vec<usize> = scratch
        .sides
        .iter()
        .filter(|s| s.1 != usize::MAX)
        .map(|s| s.1)
        .collect();
    // Axis-deviation candidates among the 8·d nearest neighbors: for each
    // signed axis, the neighbor whose offset vector has the largest cosine
    // with that axis.
    for dim in 0..d {
        for sign in [1.0f64, -1.0] {
            let mut best: Option<(usize, f64)> = None;
            for &(_, j) in &scratch.near {
                if j == id {
                    continue;
                }
                let q = &points[j];
                let len = nncell_geom::dist(p, q);
                if len <= 0.0 {
                    continue;
                }
                let cos = sign * (q[dim] - p[dim]) / len;
                if cos > 0.0 && best.is_none_or(|(_, c)| cos > c) {
                    best = Some((j, cos));
                }
            }
            if let Some((j, _)) = best {
                out.push(j);
            }
        }
    }
    out
}

/// The `4·d + 1` nearest rivals, used to seed the CorrectPruned rough MBR.
pub(crate) fn nearest_rivals(p: &Point, id: usize, tree: &XTree, k: usize) -> Vec<usize> {
    tree.knn_best_first(p, k + 1)
        .into_iter()
        .map(|n| n.id as usize)
        .filter(|&j| j != id)
        .take(k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, d: usize, seed: u64) -> (Vec<Point>, Vec<bool>, XTree) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>()))
            .collect();
        let mut tree = XTree::for_points(d);
        for (i, p) in points.iter().enumerate() {
            tree.insert_point(p, i as u64);
        }
        let alive = vec![true; n];
        (points, alive, tree)
    }

    fn rivals(
        cfg: &BuildConfig,
        id: usize,
        points: &[Point],
        alive: &[bool],
        tree: &XTree,
        live: usize,
    ) -> Vec<usize> {
        gather_rival_ids(cfg, id, points, alive, tree, live, &mut GatherScratch::new())
    }

    #[test]
    fn correct_returns_everyone_else() {
        let (points, alive, tree) = setup(50, 3, 1);
        let cfg = BuildConfig::builder().strategy(Strategy::Correct).build();
        let ids = rivals(&cfg, 7, &points, &alive, &tree, 50);
        assert_eq!(ids.len(), 49);
        assert!(!ids.contains(&7));
    }

    #[test]
    fn correct_skips_dead_points() {
        let (points, mut alive, tree) = setup(20, 2, 2);
        alive[3] = false;
        alive[4] = false;
        let cfg = BuildConfig::builder().strategy(Strategy::Correct).build();
        let ids = rivals(&cfg, 0, &points, &alive, &tree, 18);
        assert_eq!(ids.len(), 17);
        assert!(!ids.contains(&3) && !ids.contains(&4));
    }

    #[test]
    fn point_strategy_returns_page_mates() {
        let (points, alive, tree) = setup(200, 4, 3);
        let cfg = BuildConfig::builder().strategy(Strategy::Point).build();
        let ids = rivals(&cfg, 11, &points, &alive, &tree, 200);
        // At minimum the other points of 11's own leaf page qualify; the set
        // must never contain the point itself.
        assert!(!ids.contains(&11));
        assert!(!ids.is_empty(), "a 200-point page region holds neighbors");
    }

    #[test]
    fn sphere_candidates_grow_with_radius() {
        let (points, alive, tree) = setup(300, 3, 4);
        let small = BuildConfig::builder().strategy(Strategy::Sphere).sphere_radius(0.05).build();
        let large = BuildConfig::builder().strategy(Strategy::Sphere).sphere_radius(0.5).build();
        let a = rivals(&small, 5, &points, &alive, &tree, 300).len();
        let b = rivals(&large, 5, &points, &alive, &tree, 300).len();
        assert!(a <= b, "sphere candidates must be monotone in radius");
        assert!(b > 0);
    }

    #[test]
    fn nn_direction_is_small_and_directional() {
        let d = 4;
        let (points, alive, tree) = setup(400, d, 5);
        let cfg = BuildConfig::builder().strategy(Strategy::NnDirection).build();
        let ids = rivals(&cfg, 42, &points, &alive, &tree, 400);
        assert!(!ids.is_empty());
        assert!(
            ids.len() <= 4 * d,
            "NN-Direction is a constant-size set: {} > {}",
            ids.len(),
            4 * d
        );
        // Every axis direction with a point on that side is represented.
        let p = &points[42];
        for dim in 0..d {
            for sign in [1.0f64, -1.0] {
                let side_exists = points
                    .iter()
                    .enumerate()
                    .any(|(j, q)| j != 42 && sign * (q[dim] - p[dim]) > 0.0);
                if side_exists {
                    assert!(
                        ids.iter().any(|&j| {
                            let q = &points[j];
                            sign * (q[dim] - p[dim]) > 0.0
                        }),
                        "no candidate on side ({dim}, {sign})"
                    );
                }
            }
        }
    }

    #[test]
    fn halfspace_nearest_matches_filtered_scan() {
        use nncell_geom::{dist_sq, Mbr};
        use nncell_index::TreeConfig;
        let mut rng = SmallRng::seed_from_u64(21);
        let points: Vec<Point> = (0..250)
            .map(|_| Point::new((0..4).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>()))
            .collect();
        let mut t = Tree::new(TreeConfig::rstar(4).with_point_leaves(true));
        for (i, p) in points.iter().enumerate() {
            t.insert(Mbr::from_point(p), i as u64);
        }
        let q = [0.5, 0.4, 0.6, 0.5];
        let mut g = GatherScratch::new();
        g.walk_directions(&t, &points, &q, 9);
        for dim in 0..4 {
            for positive in [true, false] {
                let want = points
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        if positive {
                            p[dim] > q[dim]
                        } else {
                            p[dim] < q[dim]
                        }
                    })
                    .min_by(|(_, a), (_, b)| dist_sq(&q, a).total_cmp(&dist_sq(&q, b)))
                    .map(|(i, _)| i);
                assert_eq!(
                    g.side(dim, positive).map(|s| s.1),
                    want,
                    "dim {dim} positive {positive}"
                );
            }
        }
    }

    #[test]
    fn halfspace_nearest_none_when_empty_side() {
        let points = vec![Point::new(vec![0.2, 0.2])];
        let mut tree = XTree::for_points(2);
        tree.insert_point(&points[0], 0);
        let mut g = GatherScratch::new();
        g.walk_directions(&tree, &points, &[0.5, 0.5], 5);
        assert!(g.side(0, true).is_none());
        assert_eq!(g.side(0, false).map(|s| s.1), Some(0));
        assert_eq!(g.near.len(), 1);
    }

    #[test]
    fn nearest_rivals_excludes_self_and_is_sorted_by_distance() {
        let (points, _, tree) = setup(100, 3, 6);
        let ids = nearest_rivals(&points[10], 10, &tree, 12);
        assert_eq!(ids.len(), 12);
        assert!(!ids.contains(&10));
        let d0 = nncell_geom::dist(&points[10], &points[ids[0]]);
        let dl = nncell_geom::dist(&points[10], &points[ids[11]]);
        assert!(d0 <= dl);
    }
}

/// The one-pass gather against a brute-force `(d², id)` oracle: every
/// halfspace minimum and the exact top-`k`, on lattice data (mass ties and
/// points on halfspace boundaries) and on trees that have seen removes.
#[cfg(test)]
mod proptests {
    use super::GatherScratch;
    use nncell_geom::{Mbr, Point};
    use nncell_index::Tree;
    use nncell_index::TreeConfig;
    use proptest::prelude::*;

    /// Dimensionalities covering small trees up to the d=16 scan regime.
    const DIMS: [usize; 5] = [1, 2, 3, 8, 16];

    /// A coarse grid: equal distances and equal coordinates are common.
    fn lattice_coord() -> impl Strategy<Value = f64> {
        (0..=4u32).prop_map(|v| v as f64 / 4.0)
    }

    fn sequential_d2(a: &[f64], b: &[f64]) -> f64 {
        let mut s = 0.0;
        for (x, y) in a.iter().zip(b) {
            let t = x - y;
            s += t * t;
        }
        s
    }

    /// Brute force over the live points: per halfspace the `(d², id)`
    /// minimum, and the `k` least `(d², id)` pairs.
    #[allow(clippy::type_complexity)]
    fn oracle(
        points: &[Point],
        live: &[bool],
        q: &[f64],
        k: usize,
    ) -> (Vec<Option<(f64, usize)>>, Vec<(f64, usize)>) {
        let mut all: Vec<(f64, usize)> = (0..points.len())
            .filter(|&j| live[j])
            .map(|j| (sequential_d2(&points[j], q), j))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let sides = (0..q.len())
            .flat_map(|dim| [true, false].map(|positive| (dim, positive)))
            .map(|(dim, positive)| {
                all.iter().copied().find(|&(_, j)| {
                    let x = points[j][dim];
                    if positive {
                        x > q[dim]
                    } else {
                        x < q[dim]
                    }
                })
            })
            .collect();
        all.truncate(k);
        (sides, all)
    }

    fn check(
        tree: &Tree,
        points: &[Point],
        live: &[bool],
        q: &[f64],
        k: usize,
    ) -> Result<(), String> {
        let mut g = GatherScratch::new();
        // Twice through one scratch: a warm scratch must not leak state.
        for _ in 0..2 {
            g.walk_directions(tree, points, q, k);
            let (sides, near) = oracle(points, live, q, k);
            for dim in 0..q.len() {
                for (s, positive) in [true, false].into_iter().enumerate() {
                    let want = sides[2 * dim + s];
                    let got = g.side(dim, positive);
                    if got.map(|v| (v.0.to_bits(), v.1)) != want.map(|v| (v.0.to_bits(), v.1)) {
                        return Err(format!("side ({dim}, {positive}): {got:?} != {want:?}"));
                    }
                }
            }
            let got: Vec<(u64, usize)> = g.near.iter().map(|v| (v.0.to_bits(), v.1)).collect();
            let want: Vec<(u64, usize)> = near.iter().map(|v| (v.0.to_bits(), v.1)).collect();
            if got != want {
                return Err(format!("top-{k}: {:?} != {:?}", g.near, near));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn one_pass_gather_matches_brute_force(
            di in 0usize..DIMS.len(),
            raw in prop::collection::vec(prop::collection::vec(lattice_coord(), 16), 1..160),
            removes in prop::collection::vec(0usize..160, 0..60),
            qi in 0usize..160,
            on_lattice in prop::bool::ANY,
            jitter in prop::collection::vec(lattice_coord(), 16),
        ) {
            let d = DIMS[di];
            let mut points: Vec<Point> = Vec::new();
            for r in &raw {
                let p = &r[..d];
                if points.iter().all(|x| x.as_slice() != p) {
                    points.push(Point::new(p.to_vec()));
                }
            }
            let n = points.len();
            // Tiny pages, so even small inputs give a tree with real depth.
            let mut tree = Tree::new(TreeConfig::xtree(d).with_point_leaves(true).with_block_size(256));
            for (i, p) in points.iter().enumerate() {
                tree.insert(Mbr::from_point(p), i as u64);
            }
            let mut live = vec![true; n];
            for &r in &removes {
                let j = r % n;
                if live[j] && live.iter().filter(|&&l| l).count() > 1 {
                    prop_assert!(tree.delete(&Mbr::from_point(&points[j]), j as u64));
                    live[j] = false;
                }
            }
            // The query is either a stored point (its cell's own walk, with
            // many rivals on its halfspace boundaries) or a lattice
            // midpoint that still shares coordinates with stored points.
            let q: Vec<f64> = if on_lattice {
                points[qi % n].as_slice().to_vec()
            } else {
                jitter[..d].iter().map(|v| v + 0.125 * (qi % 2) as f64).collect()
            };
            for k in [1, 8 * d + 1, n + 3] {
                let r = check(&tree, &points, &live, &q, k);
                prop_assert!(r.is_ok(), "d={} n={} k={}: {}", d, n, k, r.unwrap_err());
            }
        }
    }
}
