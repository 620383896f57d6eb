//! Trace propagation through the index stack: a sampled trace started
//! above a [`ShardedIndex`] query must come out of the flight recorder
//! as one unbroken tree — the same trace id on the per-shard fan-out
//! spans, the engine spans underneath them, batch workers on other
//! threads, and the WAL append on the write path. Slow-query entries
//! must carry the trace id as an exemplar.

use nncell_core::{BuildConfig, NnCellIndex, Query, Registry, ShardedIndex, Strategy};
use nncell_geom::Point;
use nncell_obs::trace;
use nncell_obs::SpanContext;
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
    BuildConfig::builder().strategy(Strategy::Sphere).seed(11).build()
}

/// Spans recorded for one trace, oldest-first.
fn spans_of(trace_id: u128) -> Vec<nncell_obs::SpanRecord> {
    trace::flight()
        .snapshot()
        .into_iter()
        .filter(|r| r.trace == trace_id)
        .collect()
}

/// A forced root: the sampled upstream context makes recording
/// unconditional, so these tests are independent of the global sampling
/// rate (and of each other — each uses its own trace id).
fn forced_root(trace_id: u128) -> nncell_obs::SpanGuard {
    trace::init();
    trace::root_from(
        "test.request",
        Some(SpanContext {
            trace: trace_id,
            span: 0x1,
            sampled: true,
        }),
    )
}

#[test]
fn sharded_fanout_carries_the_trace_id_per_shard() {
    const TRACE: u128 = 0x7e57_0001;
    let idx = ShardedIndex::build(grid(60), 3, cfg()).unwrap();

    let root_span;
    {
        let root = forced_root(TRACE);
        root_span = root.context().expect("recording").span;
        idx.query(&Query::knn(vec![0.4, 0.6], 3)).unwrap();
    }

    let spans = spans_of(TRACE);
    let root = spans
        .iter()
        .find(|r| r.name == "test.request")
        .expect("root recorded");
    assert_eq!(root.span, root_span);

    // One child span per shard consulted, all under the root interval.
    let shard_spans: Vec<_> = spans.iter().filter(|r| r.name == "shard.query").collect();
    assert_eq!(shard_spans.len(), 3, "one span per shard");
    let mut seen_shards: Vec<u64> = shard_spans
        .iter()
        .map(|s| {
            assert_eq!(s.parent, root.span, "shard span hangs off the root");
            assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
            s.live_args()
                .iter()
                .find(|(k, _)| *k == "shard")
                .map(|&(_, v)| v)
                .expect("shard arg")
        })
        .collect();
    seen_shards.sort_unstable();
    assert_eq!(seen_shards, vec![0, 1, 2]);

    // The engine spans nest under the shard spans, same trace.
    let engine_spans: Vec<_> = spans.iter().filter(|r| r.name == "engine.query").collect();
    assert_eq!(engine_spans.len(), 3);
    for e in engine_spans {
        assert!(
            shard_spans.iter().any(|s| s.span == e.parent),
            "engine span parented by a shard span"
        );
    }
}

#[test]
fn batch_workers_adopt_the_callers_trace() {
    const TRACE: u128 = 0x7e57_0002;
    let index = NnCellIndex::build(grid(60), cfg()).unwrap();
    let queries: Vec<Query> = (0..4)
        .map(|i| Query::knn(vec![0.2 + 0.1 * i as f64, 0.5], 2))
        .collect();

    {
        let _root = forced_root(TRACE);
        // Two worker threads: the engine snapshots the caller's context
        // and adopts it on each worker, so spans recorded off-thread
        // still land in this trace.
        index.engine().with_threads(2).batch(&queries);
    }

    let spans = spans_of(TRACE);
    let engine_spans = spans.iter().filter(|r| r.name == "engine.query").count();
    assert_eq!(engine_spans, 4, "every batch query traced");
}

#[test]
fn wal_append_joins_the_write_trace() {
    const TRACE: u128 = 0x7e57_0003;
    let dir = std::env::temp_dir().join(format!("nncell-trace-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = ShardedIndex::open_durable(&dir, 2, 1, cfg()).unwrap();

    {
        let _root = forced_root(TRACE);
        d.insert(Point::new(vec![0.25, 0.75])).unwrap();
    }

    let spans = spans_of(TRACE);
    let wal = spans
        .iter()
        .find(|r| r.name == "wal.append")
        .expect("wal append traced");
    assert!(
        wal.live_args().iter().any(|&(k, v)| k == "bytes" && v > 0),
        "frame size recorded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_log_entries_carry_the_trace_exemplar() {
    let mut index = NnCellIndex::build(grid(60), cfg()).unwrap();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let slow = Arc::clone(index.metrics().unwrap().engine().slow_log());
    slow.set_threshold_ns(0); // capture everything
    let engine = index.engine().with_threads(1);

    // Untraced query first: exemplar must be zero, not garbage.
    engine.execute(&Query::nn([0.8, 0.8])).unwrap();

    const TRACE: u128 = 0x7e57_0004;
    {
        let _root = forced_root(TRACE);
        engine.execute(&Query::knn(vec![0.42, 0.17], 3)).unwrap();
    }

    let entries = slow.drain();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].trace_id, 0, "untraced query has no exemplar");
    assert_eq!(entries[1].trace_id, TRACE, "traced query links its trace");
}
