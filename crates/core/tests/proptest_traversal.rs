//! Property tests of the MINDIST-ordered best-first traversal and the
//! early-abort kernel: every exact query path must stay **bit-identical**
//! to the linear scan — same ids, same distance bits, same order — for
//! NN, k-NN, and radius queries, across dimensionalities that exercise
//! every lane-remainder width of the 4-accumulator kernel (`d mod 4` in
//! {0, 1, 2, 3}) and on lattice data that mass-produces distance ties.
//!
//! Plus the [`nncell_core::QueryStats`] counter contract: the pruning
//! counters are sum-consistent (`examined == candidates + aborted`) and
//! the evaluation work grows monotonically with `k`.

use nncell_core::{
    linear_scan_knn, BuildConfig, NnCellIndex, Query, QueryEngine, QueryError, QueryResponse,
    ShardedIndex,
};
use nncell_geom::{dist, dist_sq, Point};
use proptest::prelude::*;

/// Dimensionalities covering every `d % 4` remainder of the kernel's
/// 4-lane chunking, plus a multi-chunk width.
const DIMS: [usize; 5] = [1, 2, 3, 4, 8];

/// Lattice coordinate: a coarse grid, so many point pairs land at exactly
/// equal distances from a query and the `(dist, id)` tie-break is what
/// actually decides the result order.
fn lattice_coord() -> impl Strategy<Value = f64> {
    (0..=8u32).prop_map(|v| v as f64 / 8.0)
}

fn lattice_points(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(lattice_coord(), d), min..max).prop_filter_map(
        "distinct points",
        |pts| {
            for (i, p) in pts.iter().enumerate() {
                for q in pts.iter().skip(i + 1) {
                    if dist_sq(p, q) == 0.0 {
                        return None;
                    }
                }
            }
            Some(pts.into_iter().map(Point::new).collect())
        },
    )
}

fn build(pts: Vec<Point>) -> NnCellIndex {
    NnCellIndex::build(pts, BuildConfig::default()).unwrap()
}

/// Exact equality including the distance **bits** — the contract is
/// bit-identity with the scan, not approximate agreement.
fn assert_bit_identical(got: &QueryResponse, want: &[nncell_core::QueryResult]) {
    let got: Vec<_> = got.iter().collect();
    assert_eq!(got.len(), want.len(), "result count diverged from scan");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "result id diverged from scan");
        assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "distance bits diverged from scan on id {}",
            g.id
        );
    }
}

/// The counter contract every successful response must satisfy.
fn assert_counters(resp: &QueryResponse, n: usize) {
    let s = &resp.stats;
    assert_eq!(
        s.candidates + s.candidates_aborted_early,
        s.candidates_examined,
        "examined must equal completed + aborted"
    );
    assert!(
        s.candidates_examined <= n,
        "cannot examine more live points than exist"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn knn_is_bit_identical_to_linear_scan_all_lane_widths(
        dim_pick in 0usize..DIMS.len(),
        seed_pts in prop::collection::vec(prop::collection::vec(lattice_coord(), 8), 6..40),
        queries in prop::collection::vec(prop::collection::vec(lattice_coord(), 8), 6),
        k in 1usize..7,
    ) {
        let d = DIMS[dim_pick];
        // One 8-d point pool, truncated per dimension pick (keeps the
        // strategy simple while covering every remainder width).
        let mut pts: Vec<Vec<f64>> = seed_pts.iter().map(|p| p[..d].to_vec()).collect();
        pts.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        prop_assume!(pts.len() > 2);
        let pts: Vec<Point> = pts.into_iter().map(Point::new).collect();
        let idx = build(pts.clone());
        let engine = QueryEngine::sequential(&idx);
        for q in &queries {
            let q = &q[..d];
            let resp = engine.execute(&Query::knn(q, k)).unwrap();
            let want = linear_scan_knn(&pts, q, k);
            assert_bit_identical(&resp, &want);
            assert_counters(&resp, pts.len());
        }
    }

    #[test]
    fn nn_ties_resolve_to_lowest_id_like_the_scan(
        pts in lattice_points(2, 4, 40),
        queries in prop::collection::vec(prop::collection::vec(lattice_coord(), 2), 8),
    ) {
        // Lattice query points sitting *on* the lattice maximize exact
        // distance ties; the winner must be the scan's (lowest id).
        let idx = build(pts.clone());
        let engine = QueryEngine::sequential(&idx);
        for q in &queries {
            let resp = engine.execute(&Query::nn(q.clone())).unwrap();
            let want = linear_scan_knn(&pts, q, 1);
            assert_bit_identical(&resp, &want);
            assert_counters(&resp, pts.len());
        }
    }

    #[test]
    fn radius_is_bit_identical_to_linear_scan(
        pts in lattice_points(3, 4, 40),
        center in prop::collection::vec(lattice_coord(), 3),
        r in (0..=16u32).prop_map(|v| v as f64 / 8.0),
    ) {
        let idx = build(pts.clone());
        let engine = QueryEngine::sequential(&idx);
        // The scan's view of the ball, in (dist, id) order.
        let mut want: Vec<nncell_core::QueryResult> = pts
            .iter()
            .enumerate()
            .map(|(id, p)| nncell_core::QueryResult { id, dist: dist(&center, p) })
            .filter(|x| x.dist <= r)
            .collect();
        want.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        match engine.execute(&Query::radius(center.clone(), r)) {
            Ok(resp) => {
                assert_bit_identical(&resp, &want);
                assert_counters(&resp, pts.len());
            }
            Err(QueryError::EmptyRadius) => assert!(want.is_empty(), "ball was not empty"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

/// Query coordinate on the lattice's 1/8 grid, but over `[-1, 2]`: most
/// query points land outside the unit cube the data lives in.
fn wide_coord() -> impl Strategy<Value = f64> {
    (-8..=16i32).prop_map(|v| f64::from(v) / 8.0)
}

/// The scan's answer over the live points only: `pts` ranked by
/// `(dist, id)`, dead ids dropped, cut to `k`.
fn live_scan(pts: &[Point], dead: &[usize], q: &[f64], k: usize) -> Vec<nncell_core::QueryResult> {
    let mut all = linear_scan_knn(pts, q, pts.len());
    all.retain(|r| !dead.contains(&r.id));
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The one tree walk answers where a scan branch used to: centres
    /// outside the unit cube, and `k` at or past the live count. The
    /// unsharded engine (with removed points) and `ShardedIndex` with
    /// S ∈ {1, 3} — the last points inserted and a few removed, so every
    /// answer also merges a non-empty memtable tail — must all match the
    /// linear scan over the live points bit for bit, through `query` and
    /// `batch`, for k-NN and radius queries alike.
    #[test]
    fn walk_is_exact_outside_the_cube_and_for_k_past_live(
        dim_pick in 0usize..DIMS.len(),
        seed_pts in prop::collection::vec(prop::collection::vec(lattice_coord(), 8), 8..40),
        centres in prop::collection::vec(prop::collection::vec(wide_coord(), 8), 4),
        tail_inserts in 1usize..6,
        removes in prop::collection::vec(0usize..64, 0..4),
        r_eighths in 0u32..24,
    ) {
        let d = DIMS[dim_pick];
        let mut pts: Vec<Vec<f64>> = seed_pts.iter().map(|p| p[..d].to_vec()).collect();
        pts.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        prop_assume!(pts.len() > tail_inserts + 2);
        let pts: Vec<Point> = pts.into_iter().map(Point::new).collect();
        let mut dead: Vec<usize> = removes.iter().map(|r| r % pts.len()).collect();
        dead.sort_unstable();
        dead.dedup();
        prop_assume!(dead.len() < pts.len());
        let live = pts.len() - dead.len();

        let mut idx = build(pts.clone());
        for &id in &dead {
            prop_assert!(idx.remove(id));
        }
        let base = pts.len() - tail_inserts;
        let sharded: Vec<ShardedIndex> = [1usize, 3]
            .iter()
            .map(|&s| {
                let sh = ShardedIndex::build(pts[..base].to_vec(), s, BuildConfig::default()).unwrap();
                for (g, p) in pts.iter().enumerate().skip(base) {
                    assert_eq!(sh.insert(p.clone()).unwrap(), g);
                }
                for &id in &dead {
                    assert!(sh.remove(id).unwrap());
                }
                assert!(sh.tail_depth() > 0, "the tail must be non-empty");
                sh
            })
            .collect();

        let engine = QueryEngine::sequential(&idx);
        let r = f64::from(r_eighths) / 8.0;
        for c in &centres {
            let c = &c[..d];
            let mut queries: Vec<(Query, Vec<nncell_core::QueryResult>)> = [1, live, live + 3]
                .iter()
                .map(|&k| (Query::knn(c, k), live_scan(&pts, &dead, c, k)))
                .collect();
            let mut ball = live_scan(&pts, &dead, c, live);
            ball.retain(|x| x.dist <= r);
            queries.push((Query::radius(c, r), ball));
            let batch: Vec<Query> = queries.iter().map(|(q, _)| q.clone()).collect();
            let batched: Vec<_> = sharded.iter().map(|sh| sh.batch(&batch)).collect();
            for (qi, (q, want)) in queries.iter().enumerate() {
                let mut answers = vec![engine.execute(q)];
                for (sh, b) in sharded.iter().zip(&batched) {
                    answers.push(sh.query(q));
                    answers.push(b[qi].clone());
                }
                for got in answers {
                    match got {
                        Ok(resp) => assert_bit_identical(&resp, want),
                        Err(QueryError::EmptyRadius) => prop_assert!(want.is_empty(), "{:?}", q),
                        Err(e) => panic!("{q:?}: unexpected error {e}"),
                    }
                }
            }
        }
    }
}

/// Fine-grid coordinates (1/1000 steps): few exact ties, unlike the lattice.
fn coord() -> impl Strategy<Value = f64> {
    (0..=1000u32).prop_map(|v| v as f64 / 1000.0)
}

fn point_set(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), d), min..max).prop_filter_map(
        "distinct points",
        |pts| {
            for (i, p) in pts.iter().enumerate() {
                for q in pts.iter().skip(i + 1) {
                    if dist_sq(p, q) <= 1e-9 {
                        return None;
                    }
                }
            }
            Some(pts.into_iter().map(Point::new).collect())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `Query::radius` against a linear scan, on the unsharded and the
    /// sharded surface: same ids, bit-equal distances, ascending
    /// `(dist, id)`; an empty ball is the typed `EmptyRadius`.
    #[test]
    fn radius_matches_linear_scan(
        pts in point_set(3, 5, 40),
        centers in prop::collection::vec(prop::collection::vec(coord(), 3), 4),
        r_milli in 0u32..900,
    ) {
        let r = r_milli as f64 / 1000.0;
        let idx = build(pts.clone());
        let engine = QueryEngine::sequential(&idx);
        let sharded = ShardedIndex::build(pts.clone(), 3, BuildConfig::default()).unwrap();
        for c in &centers {
            let mut want = linear_scan_knn(&pts, c, pts.len());
            want.retain(|x| x.dist <= r);
            let got = engine.execute(&Query::radius(c.clone(), r));
            let got_sharded = sharded.query(&Query::radius(c.clone(), r));
            if want.is_empty() {
                prop_assert_eq!(got.unwrap_err(), QueryError::EmptyRadius);
                prop_assert_eq!(got_sharded.unwrap_err(), QueryError::EmptyRadius);
                continue;
            }
            let want_ids: Vec<(usize, u64)> =
                want.iter().map(|x| (x.id, x.dist.to_bits())).collect();
            let got_ids: Vec<(usize, u64)> = got
                .unwrap()
                .iter()
                .map(|x| (x.id, x.dist.to_bits()))
                .collect();
            prop_assert_eq!(&want_ids, &got_ids, "unsharded ball at {:?} r={}", c, r);
            let shard_ids: Vec<(usize, u64)> = got_sharded
                .unwrap()
                .iter()
                .map(|x| (x.id, x.dist.to_bits()))
                .collect();
            prop_assert_eq!(&want_ids, &shard_ids, "sharded ball at {:?} r={}", c, r);
        }
    }
}

/// An already-expired per-request budget surfaces as `DeadlineExceeded`
/// through the new `Query::with_deadline` builder.
#[test]
fn expired_query_deadline_rejects() {
    let pts: Vec<Point> = (0..64)
        .map(|i| Point::new(vec![(i % 8) as f64 / 8.0 + 0.06, (i / 8) as f64 / 8.0 + 0.06]))
        .collect();
    let idx = build(pts);
    let engine = QueryEngine::sequential(&idx);
    let stale = std::time::Instant::now() - std::time::Duration::from_millis(1);
    let err = engine
        .execute(&Query::knn([0.5, 0.5], 3).with_deadline(stale))
        .unwrap_err();
    assert!(matches!(err, QueryError::DeadlineExceeded));
}

/// A generous per-request budget lets the query through with the same
/// answer as an undecorated one.
#[test]
fn generous_query_deadline_is_honored() {
    let pts: Vec<Point> = (0..64)
        .map(|i| Point::new(vec![(i % 8) as f64 / 8.0 + 0.06, (i / 8) as f64 / 8.0 + 0.06]))
        .collect();
    let idx = build(pts);
    let engine = QueryEngine::sequential(&idx);
    let generous = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let plain = engine.execute(&Query::knn([0.5, 0.5], 3)).unwrap();
    let timed = engine
        .execute(&Query::knn([0.5, 0.5], 3).with_deadline(generous))
        .unwrap();
    assert_eq!(timed, plain);
}

/// Growing `k` can only weaken the abort bound, so the evaluation work
/// (`candidates_examined`) must be monotone non-decreasing in `k` — and
/// every response individually sum-consistent.
#[test]
fn counters_are_sum_consistent_and_monotone_in_k() {
    let pts: Vec<Point> = (0..400)
        .map(|i| {
            let x = (i % 20) as f64 / 20.0 + 0.013;
            let y = (i / 20) as f64 / 20.0 + 0.017;
            Point::new(vec![x, y])
        })
        .collect();
    let idx = build(pts);
    let engine = QueryEngine::sequential(&idx);
    let mut last_examined = 0usize;
    for k in [1usize, 2, 4, 8, 16, 64] {
        let resp = engine.execute(&Query::knn([0.41, 0.53], k)).unwrap();
        assert_counters(&resp, 400);
        assert!(
            resp.stats.candidates_examined >= last_examined,
            "examined work shrank from {last_examined} to {} at k={k}",
            resp.stats.candidates_examined
        );
        assert!(resp.stats.candidates >= k, "need at least k completed evals");
        last_examined = resp.stats.candidates_examined;
    }
}
