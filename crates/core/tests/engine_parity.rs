//! The query engine's core contract, property-checked:
//!
//! * `QueryEngine::batch` is **bit-identical** for 1, 2, and N worker
//!   threads, and identical to a linear scan — including
//!   duplicate-distance tie-breaking (ascending point id).
//! * Concurrent readers are safe: batches racing `reset_stats` /
//!   `enable_cache` from another thread still return exact answers.

use nncell_core::{
    linear_scan_knn, linear_scan_nn, BuildConfig, NnCellIndex, Query, QueryError,
    Strategy as BuildStrategy,
};
use nncell_geom::{dist_sq, Point};
use proptest::prelude::*;

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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One batch, three thread counts, one linear scan — all bit-identical
    /// (not approximately equal: `==` on every field).
    #[test]
    fn batch_is_bit_identical_across_thread_counts_and_to_scan(
        pts in point_set(3, 4, 40),
        queries in prop::collection::vec(prop::collection::vec(coord(), 3), 12),
        k in 1usize..6,
        strat_pick in 0usize..4,
    ) {
        let strategy = BuildStrategy::ALL[strat_pick];
        let index = NnCellIndex::build(
            pts.clone(),
            BuildConfig::default(),
        ).unwrap();
        let batch: Vec<Query> = queries
            .iter()
            .map(|q| Query::knn(q.clone(), k))
            .collect();

        let seq = index.engine().with_threads(1).batch(&batch);
        let two = index.engine().with_threads(2).batch(&batch);
        let many = index.engine().with_threads(8).batch(&batch);
        prop_assert_eq!(&seq, &two, "{:?}: 2 threads diverged", strategy);
        prop_assert_eq!(&seq, &many, "{:?}: 8 threads diverged", strategy);

        for (q, r) in queries.iter().zip(&seq) {
            let r = r.as_ref().unwrap();
            // Ground truth, including tie order (stable sort, ascending id).
            let want = linear_scan_knn(&pts, q, k);
            let got: Vec<_> = r.iter().collect();
            prop_assert_eq!(&got, &want, "{:?} k={} q={:?}", strategy, k, q);
            prop_assert_eq!(r.best, linear_scan_nn(&pts, q).unwrap());
        }
    }

    /// Ties on purpose: queries at lattice midpoints of a regular grid have
    /// 2·d equidistant neighbors; the winner must be the lowest id, and the
    /// k-NN order must be ascending `(dist, id)` — exactly the linear scan.
    #[test]
    fn duplicate_distances_break_ties_by_ascending_id(
        grid_n in 3usize..6,
        k in 2usize..7,
    ) {
        let mut pts = Vec::new();
        for i in 0..grid_n {
            for j in 0..grid_n {
                pts.push(Point::new(vec![
                    (i as f64 + 0.5) / grid_n as f64,
                    (j as f64 + 0.5) / grid_n as f64,
                ]));
            }
        }
        let index = NnCellIndex::build(
            pts.clone(),
            BuildConfig::default(),
        ).unwrap();
        let engine = index.engine().with_threads(4);
        // Cell centers (1 candidate), edge midpoints (2 equidistant),
        // vertices (4 equidistant).
        let mut queries = Vec::new();
        for i in 1..grid_n {
            let c = i as f64 / grid_n as f64;
            queries.push(Query::knn(vec![c, c], k));
            queries.push(Query::knn(vec![c, (i as f64 - 0.5) / grid_n as f64], k));
        }
        for (q, r) in queries.iter().zip(engine.batch(&queries)) {
            let r = r.unwrap();
            let got: Vec<_> = r.iter().collect();
            let want = linear_scan_knn(&pts, q.point(), k);
            prop_assert_eq!(&got, &want, "tie order diverged at {:?}", q.point());
        }
    }
}

/// Batches racing `reset_stats` and `enable_cache` from other threads stay
/// exact: those mutators are `&self` (atomics + a mutex-guarded LRU), and
/// the engine only reads index data they never touch.
#[test]
fn batch_races_reset_stats_and_enable_cache() {
    let pts: Vec<Point> = (0..300)
        .map(|i| {
            Point::new(vec![
                ((i * 37) % 300) as f64 / 300.0 + 0.001,
                ((i * 91) % 300) as f64 / 300.0 + 0.001,
            ])
        })
        .collect();
    let index =
        NnCellIndex::build(pts.clone(), BuildConfig::default())
            .unwrap();
    let queries: Vec<Query> = (0..400)
        .map(|i| {
            Query::knn(
                vec![
                    ((i * 13) % 400) as f64 / 400.0,
                    ((i * 29) % 400) as f64 / 400.0,
                ],
                1 + i % 4,
            )
        })
        .collect();
    let expected = index.engine().with_threads(1).batch(&queries);

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Two chaos threads: one flips the page cache on and off, one
        // resets the cost counters, both as fast as they can.
        s.spawn(|| {
            let mut on = false;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                index.enable_cache(if on { 64 } else { 0 });
                on = !on;
            }
        });
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                index.reset_stats();
            }
        });
        // Reader threads: repeated parallel batches must stay exact while
        // the chaos threads run. Join them, then stop the chaos.
        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..10 {
                        let got = index.engine().with_threads(4).batch(&queries);
                        assert_eq!(got.len(), expected.len());
                        for (g, e) in got.iter().zip(&expected) {
                            let (g, e) = (g.as_ref().unwrap(), e.as_ref().unwrap());
                            // Stats (pages) legitimately race the cache
                            // toggle; the *answers* must not.
                            assert_eq!(g.best, e.best);
                            assert_eq!(g.rest, e.rest);
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader thread panicked");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}

/// The typed error contract, end to end.
#[test]
fn typed_errors_replace_silent_none() {
    let pts: Vec<Point> = (0..10)
        .map(|i| Point::new(vec![(i as f64 + 0.5) / 10.0, (i as f64 + 0.5) / 10.0]))
        .collect();
    let index = NnCellIndex::build(
        pts,
        BuildConfig::default(),
    )
    .unwrap();
    let engine = index.engine();
    assert_eq!(
        engine.execute(&Query::nn([0.5])).unwrap_err(),
        QueryError::DimMismatch {
            expected: 2,
            got: 1
        }
    );
    assert_eq!(
        engine.execute(&Query::nn([0.5, f64::INFINITY])).unwrap_err(),
        QueryError::NonFiniteQuery
    );
    assert_eq!(
        engine.execute(&Query::knn([0.5, 0.5], 0)).unwrap_err(),
        QueryError::ZeroK
    );
    let empty = NnCellIndex::new(2, BuildConfig::default());
    assert_eq!(
        empty.engine().execute(&Query::nn([0.5, 0.5])).unwrap_err(),
        QueryError::EmptyIndex
    );
}

#[test]
fn radius_query_contract() {
    let pts: Vec<Point> = (0..10)
        .map(|i| Point::new(vec![(i as f64 + 0.5) / 10.0, 0.5]))
        .collect();
    let index = NnCellIndex::build(
        pts,
        BuildConfig::default(),
    )
    .unwrap();
    let engine = index.engine();
    // Ball around 0.45 with r = 0.11 holds exactly ids 3, 4, 5.
    let resp = engine
        .execute(&Query::radius([0.45, 0.5], 0.11))
        .unwrap();
    let ids: Vec<usize> = resp.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec![4, 3, 5], "ascending (dist, id) inside the ball");
    assert!(resp.iter().all(|r| r.dist <= 0.11));
    // Boundary-inclusive: points at exactly r stay in (0.25 and 0.5 are
    // exactly representable, so both distances are exactly 0.25).
    let boundary = NnCellIndex::build(
        vec![
            Point::new(vec![0.25, 0.5]),
            Point::new(vec![0.75, 0.5]),
            Point::new(vec![0.5, 0.125]),
        ],
        BuildConfig::default(),
    )
    .unwrap();
    let resp = boundary
        .engine()
        .execute(&Query::radius([0.5, 0.5], 0.25))
        .unwrap();
    let ids: Vec<usize> = resp.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec![0, 1], "dist == r is inside the closed ball");
    // Out-of-space centers ride the point tree like any other.
    let resp = engine.execute(&Query::radius([-0.4, 0.5], 0.5)).unwrap();
    assert_eq!(resp.best.id, 0);
    // Typed failures.
    assert_eq!(
        engine
            .execute(&Query::radius([0.5, 0.5], f64::NAN))
            .unwrap_err(),
        QueryError::InvalidRadius
    );
    assert_eq!(
        engine
            .execute(&Query::radius([0.5, 0.5], -0.1))
            .unwrap_err(),
        QueryError::InvalidRadius
    );
    assert_eq!(
        engine
            .execute(&Query::radius([0.0, 0.0], 0.01))
            .unwrap_err(),
        QueryError::EmptyRadius
    );
    // r = 0 is a valid degenerate ball: only an exact hit answers.
    assert_eq!(
        engine
            .execute(&Query::radius([0.05, 0.5], 0.0))
            .unwrap()
            .best
            .id,
        0
    );
}
