//! End-to-end observability checks: with a registry attached, every counter
//! and histogram in the snapshot agrees with the ground truth the engine and
//! index already report (`QueryResponse` stats, the live count, the point
//! tree's cost counters, the recovery report) — the registry is a mirror,
//! never a second opinion.

use nncell_core::{
    BuildConfig, CellConfig, CellSet, NnCellIndex, Query, QueryScratch, Registry, ShardedIndex,
};
use nncell_geom::Point;
use std::sync::Arc;

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
fn registry_counters_agree_with_engine_totals() {
    let mut index = NnCellIndex::build(grid(120), cfg()).unwrap();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    // Attaching twice is a harmless no-op.
    index.attach_metrics(registry.clone());

    // Mixed workload: in-space queries, a k-NN, an out-of-space query,
    // and two malformed queries.
    let queries = vec![
        Query::nn([0.21, 0.34]),
        Query::nn([0.91, 0.13]),
        Query::knn(vec![0.4, 0.6], 5),
        Query::nn([2.5, 2.5]), // out of space: the same tree walk
        Query::nn([f64::NAN, 0.2]),
        Query::knn(vec![0.1, 0.2, 0.3], 2), // dim mismatch
    ];
    let engine = index.engine().with_threads(1);
    let mut scratch = QueryScratch::new();
    let results: Vec<_> = queries
        .iter()
        .map(|q| engine.execute_with(&mut scratch, q))
        .collect();

    let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let errors = results.iter().filter(|r| r.is_err()).count() as u64;
    let total_candidates: u64 = ok.iter().map(|r| r.stats.candidates as u64).sum();
    let total_pages: u64 = ok.iter().map(|r| r.stats.pages).sum();

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("nncell_queries_total"),
        Some(queries.len() as u64)
    );
    assert_eq!(snap.counter("nncell_query_errors_total"), Some(errors));
    let latency = snap.histogram("nncell_query_latency_ns").unwrap();
    assert_eq!(latency.count(), ok.len() as u64);
    assert!(latency.sum > 0);
    let candidates = snap.histogram("nncell_query_candidates").unwrap();
    assert_eq!(candidates.count(), ok.len() as u64);
    assert_eq!(candidates.sum, total_candidates);
    let pages = snap.histogram("nncell_query_pages").unwrap();
    assert_eq!(pages.sum, total_pages);

    // Structural gauges match the accessors, and the point tree's page
    // counter mirrors its cost tracker's lifetime total.
    assert_eq!(snap.gauge("nncell_live_points"), Some(index.len() as i64));
    assert_eq!(
        snap.counter("nncell_point_tree_page_reads_total"),
        Some(index.point_tree_stats().page_reads)
    );

    // Dynamic updates keep the gauge in sync.
    let id = index.insert(Point::new(vec![0.511, 0.377])).unwrap();
    assert_eq!(registry.snapshot().gauge("nncell_live_points"), Some(index.len() as i64));
    index.remove(id);
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("nncell_live_points"), Some(index.len() as i64));

    // Both render targets name every metric.
    let prom = snap.to_prometheus();
    let json = snap.to_json();
    for name in [
        "nncell_queries_total",
        "nncell_query_latency_ns",
        "nncell_live_points",
        "nncell_point_tree_page_reads_total",
    ] {
        assert!(prom.contains(name), "prometheus output missing {name}");
        assert!(json.contains(name), "json output missing {name}");
    }
}

#[test]
fn engine_without_metrics_records_nothing() {
    let mut index = NnCellIndex::build(grid(60), cfg()).unwrap();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let engine = index.engine().with_threads(1).without_metrics();
    engine.execute(&Query::nn([0.3, 0.4])).unwrap();
    assert_eq!(registry.snapshot().counter("nncell_queries_total"), Some(0));
}

#[test]
fn slow_query_ring_captures_over_threshold_queries() {
    let mut index = NnCellIndex::build(grid(60), cfg()).unwrap();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let slow = Arc::clone(index.metrics().unwrap().engine().slow_log());
    slow.set_threshold_ns(0); // capture everything
    let engine = index.engine().with_threads(1);
    engine.execute(&Query::knn(vec![0.42, 0.17], 3)).unwrap();
    engine.execute(&Query::nn([0.8, 0.8])).unwrap();
    assert_eq!(slow.total_seen(), 2);
    let entries = slow.drain();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].k, 3);
    assert_eq!(entries[0].point, vec![0.42, 0.17]);
    assert!(entries[0].candidates > 0);
    // Errors never reach the ring.
    assert!(engine.execute(&Query::nn([f64::NAN, 0.0])).is_err());
    assert_eq!(slow.total_seen(), 2);
}

#[test]
fn durable_stack_reports_wal_and_rotation_counters() {
    let dir = std::env::temp_dir().join(format!(
        "nncell-metrics-durable-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let d = ShardedIndex::open_durable(&dir, 2, 1, cfg()).unwrap();
    let registry = Registry::new();
    d.attach_metrics(registry.clone());
    for i in 0..6 {
        d.insert(Point::new(vec![
            (i as f64 + 0.5) / 7.0,
            ((i * 3 % 7) as f64 + 0.5) / 7.0,
        ]))
        .unwrap();
    }
    d.remove(0).unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("nncell_wal_appends_total"), Some(7));
    assert_eq!(snap.counter("nncell_wal_fsyncs_total"), Some(7));
    assert_eq!(snap.counter("nncell_wal_replayed_total"), Some(0));
    assert_eq!(snap.counter("nncell_snapshot_rotations_total"), Some(0));

    // Checkpoint rotates the WAL; the fresh writer stays instrumented.
    d.flush().unwrap();
    d.checkpoint().unwrap();
    d.insert(Point::new(vec![0.93, 0.61])).unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("nncell_snapshot_rotations_total"), Some(1));
    assert_eq!(snap.counter("nncell_wal_appends_total"), Some(8));
    drop(d);

    // Reopen: the replay counters are seeded from the recovery report.
    let d = ShardedIndex::open_durable_existing(&dir).unwrap();
    let registry = Registry::new();
    d.attach_metrics(registry.clone());
    let snap = registry.snapshot();
    assert_eq!(d.recovery()[0].replayed, 1);
    assert_eq!(snap.counter("nncell_wal_replayed_total"), Some(1));
    assert_eq!(snap.counter("nncell_wal_replay_dropped_total"), Some(0));
    assert_eq!(
        snap.gauge("nncell_live_points{shard=\"0\"}"),
        Some(d.len() as i64)
    );

    let _ = std::fs::remove_dir_all(&dir);
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
