//! The in-process pass of a traced run: loads the built index into this
//! process and times each layer's public entry point on the same query
//! pool the server answered.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use nncell_core::{Query, QueryEngine, ShardedIndex};

use crate::oracle::Inputs;

pub struct Layers {
    /// `ShardedIndex::query`, µs per query.
    pub shard_query_us: f64,
    /// `QueryEngine::execute` summed over the shards, µs per query.
    pub engine_query_us: f64,
    /// Summed over the shards, per query.
    pub examined: f64,
    pub completed: f64,
    pub aborted: f64,
    pub pages: f64,
    pub nodes_pruned: f64,
    pub live_points: usize,
    /// `dist_sq_early_abort` run to completion, ns per evaluation.
    pub kernel_ns: f64,
    /// `nncell_server::json::parse` of a `/query` body, µs per body.
    pub json_parse_us: f64,
}

/// Runs `f` once to warm caches, then repeatedly until `budget` has
/// elapsed (at least once), and returns seconds per timed pass.
fn per_pass(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed() < budget {
        f();
        passes += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(passes)
}

pub fn measure(
    dir: &Path,
    inputs: &Inputs,
    k: usize,
    bodies: &[Vec<u8>],
    budget: Duration,
) -> Result<Layers, String> {
    let index = ShardedIndex::load(dir).map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let queries: Vec<Query> = inputs
        .pool
        .iter()
        .map(|q| Query::knn(q.clone(), k))
        .collect();
    let n = queries.len() as f64;

    let shards: Vec<_> = (0..index.num_shards()).map(|i| index.shard(i)).collect();
    let engines: Vec<QueryEngine<'_, _>> =
        shards.iter().map(|s| QueryEngine::sequential(s)).collect();
    // The sharded query and the per-shard engines are timed back to back
    // on each query, so their difference (fan-out and merge) is not
    // swamped by drift between two separate passes.
    let mut timed = (0u128, 0u128, 0u32);
    let pass = |timed: &mut (u128, u128, u32)| {
        for q in &queries {
            let t0 = Instant::now();
            black_box(index.query(black_box(q)).map(|r| r.best.id).ok());
            let t1 = Instant::now();
            for e in &engines {
                black_box(e.execute(black_box(q)).map(|r| r.best.id).ok());
            }
            timed.0 += (t1 - t0).as_nanos();
            timed.1 += t1.elapsed().as_nanos();
        }
        timed.2 += 1;
    };
    pass(&mut (0, 0, 0)); // warm caches and lazily built state
    let start = Instant::now();
    while timed.2 == 0 || start.elapsed() < budget {
        pass(&mut timed);
    }
    let per_query = f64::from(timed.2) * n;
    let (mut examined, mut completed, mut aborted, mut pages, mut pruned) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for q in &queries {
        for e in &engines {
            let s = e
                .execute(q)
                .map_err(|err| format!("in-process query failed: {err}"))?
                .stats;
            examined += s.candidates_examined as f64;
            completed += s.candidates as f64;
            aborted += s.candidates_aborted_early as f64;
            pages += s.pages as f64;
            pruned += s.nodes_pruned as f64;
        }
    }

    // Full evaluations (an infinite bound never aborts) over a slice of
    // the data, so the figure is the kernel's cost per distance at this d.
    let points = &inputs.base[..inputs.base.len().min(2048)];
    let probes = &inputs.pool[..inputs.pool.len().min(64)];
    let kernel_pass = per_pass(budget, || {
        let mut acc = 0.0;
        for q in probes {
            for p in points {
                acc += nncell_geom::dist_sq_early_abort(black_box(q), black_box(p), f64::INFINITY)
                    .unwrap_or(0.0);
            }
        }
        black_box(acc);
    });

    let texts: Vec<&str> = bodies
        .iter()
        .map(|b| std::str::from_utf8(b).map_err(|_| "query body is not UTF-8".to_string()))
        .collect::<Result<_, _>>()?;
    let parse_pass = per_pass(budget, || {
        for t in &texts {
            black_box(nncell_server::json::parse(black_box(t)).is_ok());
        }
    });

    Ok(Layers {
        shard_query_us: timed.0 as f64 / per_query / 1e3,
        engine_query_us: timed.1 as f64 / per_query / 1e3,
        examined: examined / n,
        completed: completed / n,
        aborted: aborted / n,
        pages: pages / n,
        nodes_pruned: pruned / n,
        live_points: index.len(),
        kernel_ns: kernel_pass / (probes.len() * points.len()) as f64 * 1e9,
        json_parse_us: parse_pass / texts.len() as f64 * 1e6,
    })
}
