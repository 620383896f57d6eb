//! Property tests for degenerate inputs the validation layer must handle
//! (exact duplicates): the index either returns a typed error or agrees
//! with a linear scan — never a panic, never a wrong answer. The
//! degenerate geometries that break naive LP pipelines are checked on the
//! NN-cells, in `nncell-cells`' own `proptest_degenerate`.

use nncell_core::{
    linear_scan_nn, BuildConfig, BuildError, InputPolicy, NnCellIndex, Query, QueryEngine,
};
use nncell_geom::Point;
use proptest::prelude::*;

/// NN through the typed engine, with the removed shim's `Option` shape.
fn nn(idx: &NnCellIndex, q: &[f64]) -> Option<nncell_core::QueryResult> {
    QueryEngine::sequential(idx)
        .execute(&Query::nn(q))
        .ok()
        .map(|r| r.best)
}

fn coord() -> impl Strategy<Value = f64> {
    (0..=1000u32).prop_map(|v| v as f64 / 1000.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact duplicates: rejected with a typed error under the default
    /// policy, silently dropped under `Skip` — and the skipping build still
    /// answers exactly.
    #[test]
    fn duplicates_reject_or_skip_exactly(
        xy in prop::collection::vec((coord(), coord()), 3..15),
        dup_picks in prop::collection::vec(0usize..15, 1..5),
        queries in prop::collection::vec(prop::collection::vec(coord(), 2), 6),
    ) {
        let mut base: Vec<Point> = xy.iter().map(|&(x, y)| Point::new(vec![x, y])).collect();
        base.sort_by(|p, q| p.as_slice()[0]
            .total_cmp(&q.as_slice()[0])
            .then(p.as_slice()[1].total_cmp(&q.as_slice()[1])));
        base.dedup_by(|p, q| p.as_slice() == q.as_slice());
        prop_assume!(base.len() >= 2);
        let mut with_dups = base.clone();
        let mut n_dups = 0usize;
        for &k in &dup_picks {
            with_dups.push(base[k % base.len()].clone());
            n_dups += 1;
        }

        // Default policy: typed rejection naming the duplicate.
        match NnCellIndex::build(with_dups.clone(), BuildConfig::default()) {
            Err(BuildError::DuplicatePoint { id, of }) => {
                prop_assert!(id >= base.len() && of < id);
                prop_assert_eq!(
                    with_dups[id].as_slice(),
                    with_dups[of].as_slice()
                );
            }
            Err(other) => prop_assert!(false, "expected DuplicatePoint, got {other}"),
            Ok(_) => prop_assert!(false, "duplicate input accepted under Reject policy"),
        }

        // Skip policy: duplicates recorded and dropped, result exact.
        let index = NnCellIndex::build(
            with_dups,
            BuildConfig::builder().input_policy(InputPolicy::Skip).build(),
        )
        .unwrap();
        prop_assert_eq!(index.build_stats().skipped_points, n_dups);
        prop_assert_eq!(index.len(), base.len());
        for q in &queries {
            let got = nn(&index, q).unwrap();
            let want = linear_scan_nn(&base, q).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "skip-policy inexact at {q:?}"
            );
        }
    }
}
