//! Build-profile checks: every phase of [`CellSet::build`] is timed and
//! counted once per cell (or once per build), batch by batch.

use nncell_cells::{CellConfig, CellSet};
use nncell_core::{BuildConfig, NnCellIndex};
use nncell_geom::Point;

fn grid(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new(vec![
                ((i * 37) % n) as f64 / n as f64 + 0.003,
                ((i * 113) % n) as f64 / n as f64 + 0.003,
            ])
        })
        .collect()
}

fn cfg() -> BuildConfig {
    BuildConfig::default()
}

#[test]
fn build_profile_times_every_phase() {
    let index = NnCellIndex::build(grid(80), cfg()).unwrap();
    let cells = CellSet::build(&index, CellConfig::builder().seed(3).threads(2).build());
    let profile = cells.stats().profile;
    assert_eq!(profile.constraint_selection.calls, 80);
    assert_eq!(profile.lp_solve.calls, 80);
    assert!(profile.lp_solve.nanos > 0);
    assert_eq!(profile.decomposition.calls, 0); // decomposition off
    assert_eq!(profile.bulk_load.calls, 1);
    assert_eq!(profile.batches, 2);
    assert!(profile.batch_max_nanos <= profile.batch_total_nanos);
    assert!(profile.batch_max_nanos > 0);
}
