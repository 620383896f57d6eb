//! Phase breakdown of the NN-Direction cell build at a few sizes — the
//! quick diagnostic for "where did the build time go" (constraint
//! gathering, LP solves, decomposition, or tree packing). This is the tool that
//! caught the cell tree's super-linear per-piece insert phase; keep it
//! around for the next scaling cliff.
//!
//! ```sh
//! cargo run --release -p nncell-bench --example profile_build
//! ```

use nncell_cells::{CellConfig, CellSet, Strategy};
use nncell_core::{BuildConfig, NnCellIndex};
use nncell_data::{Generator, UniformGenerator};
use std::time::Instant;

fn main() {
    let d = 8;
    for n in [8_000usize, 16_000, 32_000] {
        let pts = UniformGenerator::new(d).generate(n, 7);
        let cfg = CellConfig::builder()
            .strategy(Strategy::NnDirection)
            .seed(7)
            .build();
        let idx = NnCellIndex::build(pts, BuildConfig::default()).expect("build");
        let t0 = Instant::now();
        let cells = CellSet::build(&idx, cfg);
        let total = t0.elapsed().as_secs_f64();
        let p = &cells.stats().profile;
        println!(
            "n={n}: total {total:.2}s | constraint {:.2}s | lp {:.2}s | decomp {:.2}s | \
             tree packing {:.2}s",
            p.constraint_selection.nanos as f64 / 1e9,
            p.lp_solve.nanos as f64 / 1e9,
            p.decomposition.nanos as f64 / 1e9,
            p.bulk_load.nanos as f64 / 1e9,
        );
    }
}
