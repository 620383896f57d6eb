//! Ablation: decomposition depth vs candidate count vs cost — the
//! experiment behind the default of no decomposition for
//! `decompose_pieces`.
//!
//! Sweeps `decompose_pieces ∈ {1, 2, 4, 8}` over one fixed-seed index and
//! reports, per depth: NN-cell build time, cell-tree candidates per point
//! query (the paper's overlap-driven number, via
//! [`nncell_cells::measured_candidates`]), and the cell query's
//! throughput.
//!
//! What the sweep shows — and why the default is **no decomposition**:
//! deeper decomposition does cut cell-tree candidates (fig. 13's claim,
//! reproduced here), but it multiplies the cell build time. The serving
//! engine walks the point tree and never reads cells, so the trade only
//! matters to the paper's cell query ([`nncell_cells::CellSet::nn`]),
//! whose throughput the sweep reports beside the candidate count.
//!
//! Smoke-scale defaults (overridable via `NNCELL_N`, `NNCELL_DIM`,
//! `NNCELL_QUERIES`, `NNCELL_PIECES_SWEEP`, `NNCELL_BENCH_OUT`); the
//! JSON lands in `BENCH_ablation_decompose.json` for CI trend tracking.

use nncell_bench::{as_queries, env_usize, print_table, timed};
use nncell_cells::{measured_candidates, CellConfig, CellSet, Strategy};
use nncell_core::{BuildConfig, NnCellIndex};
use nncell_data::{Generator, UniformGenerator};

fn main() {
    let n = env_usize("NNCELL_N", 2000);
    let d = env_usize("NNCELL_DIM", 8);
    let n_q = env_usize("NNCELL_QUERIES", 1000);
    let sweep: Vec<usize> = std::env::var("NNCELL_PIECES_SWEEP")
        .map(|s| {
            s.split(',')
                .map(|v| v.trim().parse().expect("piece count"))
                .collect()
        })
        .unwrap_or_else(|_| vec![1, 2, 4, 8]);
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_ablation_decompose.json"
        )
        .to_string()
    });
    println!("# Ablation — decomposition depth (N={n}, d={d}, {n_q} queries)");

    let points = UniformGenerator::new(d).generate(n, 7);
    let raw_queries = as_queries(UniformGenerator::new(d).generate(n_q, 8));
    let index = NnCellIndex::build(points, BuildConfig::default()).expect("build");

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut baseline: Option<Vec<_>> = None;
    for &pieces in &sweep {
        let mut cfg = CellConfig::builder().strategy(Strategy::NnDirection).seed(7);
        if pieces > 1 {
            cfg = cfg.decompose_pieces(pieces);
        }
        let (cells, build_s) = timed(|| CellSet::build(&index, cfg.build()));
        let cell_cands = measured_candidates(&cells, &raw_queries);
        let (resp, query_s) = timed(|| {
            raw_queries
                .iter()
                .map(|q| cells.nn(&index, q).expect("well-formed query"))
                .collect::<Vec<_>>()
        });
        let qps = n_q as f64 / query_s;

        // Decomposition must not change answers: every depth is exact, so
        // bit-identical to the undecomposed run.
        match &baseline {
            None => baseline = Some(resp),
            Some(base) => assert_eq!(
                *base, resp,
                "pieces={pieces} diverged from the undecomposed answers"
            ),
        }

        rows.push(vec![
            pieces.to_string(),
            format!("{build_s:.2}s"),
            format!("{cell_cands:.1}"),
            format!("{qps:.0}"),
        ]);
        entries.push(format!(
            "    {{\"pieces\": {pieces}, \"build_seconds\": {build_s:.3}, \
             \"cell_candidates\": {cell_cands:.4}, \"cell_qps\": {qps:.2}}}"
        ));
    }

    print_table(
        "Decomposition depth: cell build cost vs cell candidates vs cell query",
        &["pieces", "cell build", "cell cands/query", "cell q/s"],
        &rows,
    );
    println!(
        "\ncost-model conclusion: decomposition shrinks cell-tree candidates but \
         multiplies the cell build time, and the serving engine never reads \
         cells — so the default stays decompose_pieces = unset."
    );

    let json = format!(
        "{{\n  \"n\": {n},\n  \"dim\": {d},\n  \"queries\": {n_q},\n  \"sweep\": [\n{}\n  ],\n  \
         \"default\": \"no decomposition — cell build cost scales with pieces and \
         the serving engine never reads cells\"\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
