//! Property tests for degenerate geometry that breaks naive LP pipelines
//! (collinear sites, constant coordinates, one dimension). In every case
//! the NN-cells built from the index answer like a linear scan: never a
//! panic, never a wrong answer.

use nncell_cells::{CellConfig, CellSet, Strategy as BuildStrategy};
use nncell_core::{linear_scan_nn, BuildConfig, NnCellIndex};
use nncell_geom::{dist_sq, Point};
use proptest::prelude::*;

/// An index over `pts` with its NN-cells built under `cfg`.
fn with_cells(pts: &[Point], cfg: CellConfig) -> (NnCellIndex, CellSet) {
    let index = NnCellIndex::build(pts.to_vec(), BuildConfig::default()).unwrap();
    let cells = CellSet::build(&index, cfg);
    (index, cells)
}

/// A seeded config for `strategy`.
fn cell_cfg(strategy: BuildStrategy, seed: u64) -> CellConfig {
    CellConfig::builder().strategy(strategy).seed(seed).build()
}

fn coord() -> impl Strategy<Value = f64> {
    (0..=1000u32).prop_map(|v| v as f64 / 1000.0)
}

/// Distinct scalars in `[0,1]`, at least `min` of them.
fn distinct_scalars(min: usize, max: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(coord(), min..max).prop_filter_map("distinct scalars", move |mut v| {
        v.sort_by(f64::total_cmp);
        v.dedup();
        (v.len() >= min).then_some(v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// d = 1: every bisector is a single split coordinate; cells are
    /// intervals. The smallest interesting dimensionality must work.
    #[test]
    fn one_dimensional_inputs_agree_with_scan(
        xs in distinct_scalars(2, 25),
        queries in prop::collection::vec(coord(), 8),
        strat_pick in 0usize..4,
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::new(vec![x])).collect();
        let strategy = BuildStrategy::ALL[strat_pick];
        let (index, cells) = with_cells(&pts, cell_cfg(strategy, 5));
        for &q in &queries {
            let got = cells.nn(&index, &[q]).unwrap();
            let want = linear_scan_nn(&pts, &[q]).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "{strategy:?} d=1 inexact at {q}"
            );
        }
    }

    /// Collinear sites: all bisectors are parallel, so every Voronoi cell
    /// is an unbounded slab that only the data-space bounds close. The LP
    /// must not report these as unbounded failures.
    #[test]
    fn collinear_points_agree_with_scan(
        ts in distinct_scalars(2, 20),
        queries in prop::collection::vec(prop::collection::vec(coord(), 3), 8),
        decompose in prop::bool::ANY,
    ) {
        // Points on the segment (0.1,0.2,0.3) → (0.9,0.8,0.6).
        let a = [0.1, 0.2, 0.3];
        let b = [0.9, 0.8, 0.6];
        let pts: Vec<Point> = ts
            .iter()
            .map(|&t| Point::new((0..3).map(|i| a[i] + t * (b[i] - a[i])).collect::<Vec<_>>()))
            .collect();
        let mut cfg = CellConfig::builder().strategy(BuildStrategy::Sphere).seed(6);
        if decompose {
            cfg = cfg.decompose_pieces(3);
        }
        let (index, cells) = with_cells(&pts, cfg.build());
        for q in &queries {
            let got = cells.nn(&index, q).unwrap();
            let want = linear_scan_nn(&pts, q).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "collinear inexact at {q:?}"
            );
        }
    }

    /// A coordinate shared by every point: all bisectors are parallel to
    /// that axis, so each cell spans the full data space along it.
    #[test]
    fn constant_coordinate_agrees_with_scan(
        xy in prop::collection::vec((coord(), coord()), 3..20),
        queries in prop::collection::vec(prop::collection::vec(coord(), 3), 8),
        strat_pick in 0usize..4,
    ) {
        let mut pts: Vec<Point> = xy
            .iter()
            .map(|&(x, y)| Point::new(vec![x, 0.5, y]))
            .collect();
        pts.sort_by(|p, q| p.as_slice()[0]
            .total_cmp(&q.as_slice()[0])
            .then(p.as_slice()[2].total_cmp(&q.as_slice()[2])));
        pts.dedup_by(|p, q| dist_sq(p, q) <= 1e-12);
        prop_assume!(pts.len() >= 2);
        let strategy = BuildStrategy::ALL[strat_pick];
        let (index, cells) = with_cells(&pts, cell_cfg(strategy, 8));
        for q in &queries {
            let got = cells.nn(&index, q).unwrap();
            let want = linear_scan_nn(&pts, q).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "{strategy:?} constant-coordinate inexact at {q:?}"
            );
        }
    }
}
