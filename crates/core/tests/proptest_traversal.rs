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
    Strategy as BuildStrategy,
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
    NnCellIndex::build(
        pts,
        BuildConfig::builder()
            .strategy(BuildStrategy::Sphere)
            .seed(7)
            .build(),
    )
    .unwrap()
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
    if s.fallback {
        assert_eq!(s.candidates_aborted_early, 0, "the scan never aborts");
    }
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
