//! Proves the engine's steady-state allocation contract with a counting
//! global allocator: once a worker's [`nncell_core::QueryScratch`] is warm,
//! `execute_with` performs **zero** heap allocations for `k = 1` queries and
//! exactly one (the response's `rest` vector) for `k > 1` — and the same
//! holds with a **live metrics registry attached**, slow-query ring armed at
//! threshold 0 (every query takes the ring's copy path). Because the query
//! path is threaded with tracing span sites, this is also the proof that
//! tracing with sampling off (the default) allocates nothing.
//!
//! The counter is gated by an `AtomicBool` so the surrounding test harness
//! (and index construction) does not pollute the count. This file contains a
//! single `#[test]` — a second test running concurrently in this binary
//! would allocate while the gate is open.

use nncell_core::{BuildConfig, NnCellIndex, Query, QueryScratch, Registry};
use nncell_geom::Point;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter open and returns how many allocations it made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warm_scratch_queries_do_not_allocate() {
    let pts: Vec<Point> = (0..400)
        .map(|i| {
            Point::new(vec![
                ((i * 37) % 400) as f64 / 400.0 + 0.001,
                ((i * 113) % 400) as f64 / 400.0 + 0.001,
                ((i * 59) % 400) as f64 / 400.0 + 0.001,
            ])
        })
        .collect();
    let mut index =
        NnCellIndex::build(pts, BuildConfig::default()).unwrap();
    let nn_queries: Vec<Query> = (0..64)
        .map(|i| {
            Query::nn(vec![
                ((i * 7) % 64) as f64 / 64.0 + 0.004,
                ((i * 19) % 64) as f64 / 64.0 + 0.004,
                ((i * 31) % 64) as f64 / 64.0 + 0.004,
            ])
        })
        .collect();
    let knn_queries: Vec<Query> = nn_queries
        .iter()
        .map(|q| Query::knn(q.point().to_vec(), 5))
        .collect();

    // The engine's query path carries tracing span sites (engine.query,
    // knn growth, MINDIST rank, scan fallback). With sampling disabled —
    // the default this test runs under — every site must stay an inert
    // thread-local flag read, so the zero-alloc assertions below are
    // also the tracing-off overhead proof.
    assert_eq!(
        nncell_obs::trace::sampling(),
        0,
        "tracing must be disabled for the zero-alloc contract"
    );

    let mut scratch = QueryScratch::new();
    {
        let engine = index.engine().with_threads(1);
        // Warm-up pass: buffers grow to their high-water mark.
        for q in nn_queries.iter().chain(&knn_queries) {
            engine.execute_with(&mut scratch, q).unwrap();
            assert!(
                !engine.execute_with(&mut scratch, q).unwrap().stats.fallback,
                "fallback would scan via a fresh Vec; this test wants the hot path"
            );
        }

        // Steady state, k = 1: zero heap allocations.
        let allocs = count_allocs(|| {
            for q in &nn_queries {
                let r = engine.execute_with(&mut scratch, q).unwrap();
                assert!(r.rest.is_empty());
                std::hint::black_box(&r);
            }
        });
        assert_eq!(
            allocs, 0,
            "k=1 steady state must not allocate ({allocs} allocations over {} queries)",
            nn_queries.len()
        );

        // Steady state, k > 1: exactly the response's `rest` vector per query.
        let allocs = count_allocs(|| {
            for q in &knn_queries {
                let r = engine.execute_with(&mut scratch, q).unwrap();
                assert_eq!(r.len(), 5);
                std::hint::black_box(&r);
            }
        });
        assert!(
            allocs <= knn_queries.len() as u64,
            "k>1 steady state allocates at most the `rest` vector per query \
             ({allocs} allocations over {} queries)",
            knn_queries.len()
        );
    }

    // Same contract with a live registry: latency/candidate/page recording
    // is relaxed atomics, and the slow-query ring (armed at threshold 0 so
    // *every* query takes the capture path) copies into preallocated slots.
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let metrics_engine = index.engine().with_threads(1);
    index
        .metrics()
        .expect("registry just attached")
        .engine()
        .slow_log()
        .set_threshold_ns(0);
    // One warm-up pass through the instrumented path (first recording of a
    // histogram bucket touches no heap either, but keep symmetry).
    for q in &nn_queries {
        metrics_engine.execute_with(&mut scratch, q).unwrap();
    }
    let allocs = count_allocs(|| {
        for q in &nn_queries {
            let r = metrics_engine.execute_with(&mut scratch, q).unwrap();
            assert!(r.rest.is_empty());
            std::hint::black_box(&r);
        }
    });
    assert_eq!(
        allocs, 0,
        "k=1 steady state with a live registry and armed slow-query ring \
         must not allocate ({allocs} allocations over {} queries)",
        nn_queries.len()
    );
    // The recording actually happened: counters saw every instrumented query.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("nncell_queries_total"),
        Some(2 * nn_queries.len() as u64)
    );
    let slow = index
        .metrics()
        .expect("registry attached")
        .engine()
        .slow_log();
    assert_eq!(slow.total_seen(), 2 * nn_queries.len() as u64);
    assert!(!slow.drain().is_empty());
}
