//! Sharded serving-layer throughput: build time and batch QPS at shard
//! counts S ∈ {1, 2, 4} on one fixed-seed workload, written as JSON for
//! CI trend tracking (`BENCH_sharded.json`).
//!
//! Every sharded pass is asserted bit-identical to the S = 1 pass — the
//! sharded index's exactness contract (same ids, same distance bits, same
//! ranking) is load-bearing for this bench, not just for the proptests.
//!
//! Defaults are sized for real hardware; CI runs a smoke scale via the
//! usual env overrides (`NNCELL_N`, `NNCELL_DIM`, `NNCELL_QUERIES`,
//! `NNCELL_SHARD_COUNTS` as a comma list, `NNCELL_BENCH_OUT` for the
//! JSON path).

use nncell_bench::{env_usize, timed};
use nncell_core::{BuildConfig, Query, QueryResponse, ShardedIndex};
use nncell_data::{Generator, UniformGenerator};

fn shard_counts() -> Vec<usize> {
    match std::env::var("NNCELL_SHARD_COUNTS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("NNCELL_SHARD_COUNTS holds counts"))
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

fn assert_bit_identical(a: &[Result<QueryResponse, nncell_core::QueryError>], b: &[Result<QueryResponse, nncell_core::QueryError>], s: usize) {
    assert_eq!(a.len(), b.len());
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        let (ra, rb) = (ra.as_ref().expect("query ok"), rb.as_ref().expect("query ok"));
        let va: Vec<_> = ra.iter().collect();
        let vb: Vec<_> = rb.iter().collect();
        assert_eq!(va.len(), vb.len(), "S={s} query {i}");
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.id, y.id, "S={s} query {i}");
            assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "S={s} query {i}");
        }
    }
}

fn main() {
    let n = env_usize("NNCELL_N", 40_000);
    let d = env_usize("NNCELL_DIM", 16);
    let n_q = env_usize("NNCELL_QUERIES", 4_000);
    let counts = shard_counts();
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded.json").to_string()
    });
    println!("# Sharded serving layer (N={n}, d={d}, {n_q} queries, S={counts:?})");

    let points = UniformGenerator::new(d).generate(n, 7);
    let queries: Vec<Query> = UniformGenerator::new(d)
        .generate(n_q, 8)
        .iter()
        .map(|p| Query::nn(p.as_slice()))
        .collect();

    let mut baseline: Option<Vec<Result<QueryResponse, nncell_core::QueryError>>> = None;
    let mut rows = Vec::new();
    for &s in &counts {
        let cfg = BuildConfig::default();
        let (index, build_s) = timed(|| {
            ShardedIndex::build(points.clone(), s, cfg).expect("sharded build")
        });
        index.batch(&queries[..n_q.min(256)]); // warm-up
        let (results, q_s) = timed(|| index.batch(&queries));
        match &baseline {
            Some(base) => assert_bit_identical(base, &results, s),
            None => baseline = Some(results),
        }
        let qps = n_q as f64 / q_s;
        println!("S={s}: built in {build_s:.2}s, {qps:.0} q/s (merged, exact)");
        rows.push(format!(
            "    {{\"shards\": {s}, \"build_seconds\": {build_s:.3}, \"qps\": {qps:.2}}}"
        ));
    }

    let json = format!(
        "{{\n  \"n\": {n},\n  \"dim\": {d},\n  \"queries\": {n_q},\n  \"runs\": [\n{}\n  ],\n  \
         \"bit_identical\": true\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
