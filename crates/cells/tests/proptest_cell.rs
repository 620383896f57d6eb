//! Property-based tests of the paper's two lemmas on NN-cells
//! ([`CellSet`]), plus dynamic updates of the serving index.

use nncell_cells::{CellConfig, CellSet, Strategy as BuildStrategy};
use nncell_core::{linear_scan_nn, BuildConfig, NnCellIndex, Query, QueryEngine};
use nncell_geom::{dist_sq, Point};
use proptest::prelude::*;

/// Every strategy, the exactness-preserving CorrectPruned included.
const STRATEGIES: [BuildStrategy; 5] = [
    BuildStrategy::Correct,
    BuildStrategy::CorrectPruned,
    BuildStrategy::Point,
    BuildStrategy::Sphere,
    BuildStrategy::NnDirection,
];

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

/// A coarse grid: queries on it sit on many cell boundaries at once, so
/// exact distance ties are common and `(dist, id)` decides.
fn lattice_coord() -> impl Strategy<Value = f64> {
    (0..=8u32).prop_map(|v| v as f64 / 8.0)
}

fn distinct(pts: Vec<Vec<f64>>) -> Option<Vec<Point>> {
    for (i, p) in pts.iter().enumerate() {
        for q in pts.iter().skip(i + 1) {
            if dist_sq(p, q) <= 1e-9 {
                return None;
            }
        }
    }
    Some(pts.into_iter().map(Point::new).collect())
}

fn point_set(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), d), min..max)
        .prop_filter_map("distinct points", distinct)
}

fn lattice_set(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(lattice_coord(), d), min..max)
        .prop_filter_map("distinct points", distinct)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lemma 2, tested directly on the cells: the cell-tree point query
    /// plus refinement answers exactly like the scan — same id, same
    /// distance bits — for every strategy, with and without
    /// decomposition, with queries on lattice ties, and with dead slots
    /// (removed before the cells are built, so the gather's own tree must
    /// skip them).
    #[test]
    fn lemma2_cell_query_is_bit_identical_to_scan(
        pts in lattice_set(3, 3, 30),
        queries in prop::collection::vec(prop::collection::vec(lattice_coord(), 3), 8),
        strat_pick in 0usize..STRATEGIES.len(),
        decompose in prop::bool::ANY,
        removes in prop::collection::vec(0usize..30, 0..6),
    ) {
        let strategy = STRATEGIES[strat_pick];
        let mut cfg = CellConfig::builder().strategy(strategy).seed(17);
        if decompose {
            cfg = cfg.decompose_pieces(4);
        }
        let mut index = NnCellIndex::build(pts.clone(), BuildConfig::default()).unwrap();
        // The scan reference keeps every id in place; a dead slot becomes
        // a point outside the unit cube, which no lattice query is nearest
        // to or tied with.
        let mut reference = pts.clone();
        for &r in &removes {
            let id = r % pts.len();
            if index.len() > 1 && index.remove(id) {
                reference[id] = Point::new(vec![9.0; 3]);
            }
        }
        let cells = CellSet::build(&index, cfg.build());
        for q in &queries {
            let got = cells.nn(&index, q).unwrap();
            let want = linear_scan_nn(&reference, q).unwrap();
            prop_assert_eq!(
                (got.id, got.dist.to_bits()),
                (want.id, want.dist.to_bits()),
                "{:?} decompose={} q={:?}", strategy, decompose, q
            );
        }
    }

    #[test]
    fn lemma1_heuristics_contain_correct(
        pts in point_set(2, 3, 20),
        strat_pick in 0usize..3,
    ) {
        let heuristic = [BuildStrategy::Point, BuildStrategy::Sphere, BuildStrategy::NnDirection][strat_pick];
        let index = NnCellIndex::build(pts.clone(), BuildConfig::default()).unwrap();
        let cells = |s| CellSet::build(&index, CellConfig::builder().strategy(s).build());
        let correct = cells(BuildStrategy::Correct);
        let approx = cells(heuristic);
        for i in 0..pts.len() {
            let exact = &correct.cell(i).unwrap().pieces[0];
            let loose = &approx.cell(i).unwrap().pieces[0];
            prop_assert!(
                loose.contains_mbr(exact),
                "{heuristic:?} violates Lemma 1 on cell {i}: {loose:?} !⊇ {exact:?}"
            );
        }
    }

    #[test]
    fn dynamic_insert_remove_exact(
        initial in point_set(2, 4, 20),
        extra in point_set(2, 1, 8),
        del_pick in prop::collection::vec(0usize..20, 0..6),
        queries in prop::collection::vec(prop::collection::vec(coord(), 2), 6),
    ) {
        let mut index = NnCellIndex::build(initial.clone(), BuildConfig::default()).unwrap();
        let mut live: Vec<(usize, Point)> =
            initial.iter().cloned().enumerate().collect();
        // Interleave inserts and removals.
        for (step, p) in extra.iter().enumerate() {
            // Skip exact duplicates of anything live (distinctness assumption).
            if live.iter().any(|(_, q)| dist_sq(p, q) <= 1e-9) {
                continue;
            }
            let id = index.insert(p.clone()).unwrap();
            live.push((id, p.clone()));
            if let Some(&k) = del_pick.get(step) {
                if !live.is_empty() {
                    let pos = k % live.len();
                    let (victim, _) = live[pos];
                    prop_assert!(index.remove(victim));
                    live.remove(pos);
                }
            }
        }
        let reference: Vec<Point> = live.iter().map(|(_, p)| p.clone()).collect();
        for q in &queries {
            match (nn(&index, q), linear_scan_nn(&reference, q)) {
                (Some(got), Some(want)) => prop_assert!(
                    (got.dist - want.dist).abs() < 1e-9,
                    "dynamic mix inexact at {q:?}"
                ),
                (None, None) => {}
                (a, b) => prop_assert!(false, "emptiness disagreement: {a:?} vs {b:?}"),
            }
        }
    }
}
