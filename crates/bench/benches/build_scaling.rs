//! Build-time scaling of the serving index against the paper's NN-cells,
//! written as JSON for CI trend tracking (`BENCH_build_scaling.json`).
//!
//! Two series per database size:
//!
//! * **serving** — [`NnCellIndex::build`]: input validation plus one STR
//!   bulk load of the point X-tree. This is all a query or write needs.
//! * **cells** — [`CellSet::build`] with the `NnDirection` strategy over
//!   that index: one pruned tree walk gathers each cell's rivals, then
//!   `2·d` LPs per cell and an STR load of the cell tree. No query of the
//!   serving path reads it; the figure benches and quality measurements
//!   do.
//!
//! Every build is parity-checked before its time is accepted: the engine
//! and the cell query must both agree with a linear scan on a probe set.
//!
//! Env overrides: `NNCELL_BUILD_NS` (comma list, default
//! `8000,32000,128000`), `NNCELL_DIM` (default 8), `NNCELL_THREADS` (cell
//! build workers, default 1), `NNCELL_BENCH_OUT`.

use nncell_bench::{env_usize, timed};
use nncell_cells::{CellConfig, CellSet, Strategy};
use nncell_core::{linear_scan_nn, BuildConfig, NnCellIndex, Query, QueryEngine};
use nncell_data::{Generator, UniformGenerator};

fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Exactness spot check: the engine and the cell query must both agree
/// with a linear scan, id and distance bits.
fn assert_exact(idx: &NnCellIndex, cells: &CellSet, pts: &[nncell_geom::Point], d: usize) {
    let probes = UniformGenerator::new(d).generate(64, 99);
    let engine = QueryEngine::sequential(idx);
    for q in &probes {
        let want = linear_scan_nn(pts, q.as_slice()).expect("non-empty");
        let got = engine
            .execute(&Query::nn(q.as_slice()))
            .expect("probe")
            .best;
        assert_eq!(got, want, "serving index lost exactness");
        assert_eq!(cells.nn(idx, q.as_slice()), Some(want), "cells lost exactness");
    }
}

fn main() {
    let sizes = env_usize_list("NNCELL_BUILD_NS", &[8_000, 32_000, 128_000]);
    let d = env_usize("NNCELL_DIM", 8);
    let threads = env_usize("NNCELL_THREADS", 1);
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_build_scaling.json").to_string()
    });
    println!("# Build scaling (d={d}, {threads} cell-build thread(s))");
    let cell_cfg = CellConfig::builder()
        .strategy(Strategy::NnDirection)
        .seed(7)
        .threads(threads)
        .build();

    let mut rows: Vec<String> = Vec::new();
    for &n in &sizes {
        let pts = UniformGenerator::new(d).generate(n, 7);
        let (idx, serving_s) =
            timed(|| NnCellIndex::build(pts.clone(), BuildConfig::default()).expect("build"));
        let (cells, cells_s) = timed(|| CellSet::build(&idx, cell_cfg.clone()));
        assert_exact(&idx, &cells, &pts, d);
        println!(
            "n={n}: serving build {serving_s:.3}s — NN-Direction cells {cells_s:.2}s ({:.0}x)",
            cells_s / serving_s
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"serving_seconds\": {serving_s:.4}, \
             \"cells_seconds\": {cells_s:.3}}}"
        ));
    }

    let json = format!(
        "{{\n  \"dim\": {d},\n  \"threads\": {threads},\n  \"strategy\": \"nn-direction\",\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
