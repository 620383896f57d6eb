//! ShardedIndex parity: for any shard count the sharded index must be
//! bit-identical to the unsharded one — same ids, same distance bits,
//! same ranking, tie ordering included.
//!
//! Points are drawn from a deliberately coarse lattice so equidistant
//! rivals (ties) are common and the merge's `(distance, global id)`
//! ordering is actually exercised, not vacuously satisfied.

use nncell_core::{
    linear_scan_knn, BuildConfig, FoldConfig, NnCellIndex, Query, QueryEngine, QueryResponse,
    ShardedIndex,
};
use nncell_geom::{dist, dist_sq, Point};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Coarse lattice coordinate: 9 levels per axis ⇒ frequent exact ties.
fn coarse_coord() -> impl Strategy<Value = f64> {
    (0..=8u32).prop_map(|v| v as f64 / 8.0)
}

fn lattice_points(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coarse_coord(), d), min..max).prop_filter_map(
        "distinct points",
        |pts| {
            for (i, p) in pts.iter().enumerate() {
                for q in pts.iter().skip(i + 1) {
                    if dist_sq(p, q) == 0.0 {
                        return None;
                    }
                }
            }
            Some(pts.into_iter().map(Point::new).collect())
        },
    )
}

/// Full-response equality: winner, ranking, ids, and distance *bits*.
fn assert_bit_identical(
    sharded: &QueryResponse,
    whole: &QueryResponse,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let s: Vec<_> = sharded.iter().collect();
    let w: Vec<_> = whole.iter().collect();
    prop_assert_eq!(s.len(), w.len(), "result count: {}", ctx);
    for (rank, (a, b)) in s.iter().zip(&w).enumerate() {
        prop_assert_eq!(a.id, b.id, "id at rank {}: {}", rank, ctx);
        prop_assert_eq!(
            a.dist.to_bits(),
            b.dist.to_bits(),
            "distance bits at rank {}: {}",
            rank,
            ctx
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_nn_and_knn_match_unsharded(
        pts in lattice_points(2, 4, 26),
        queries in prop::collection::vec(prop::collection::vec(coarse_coord(), 2), 5),
        shards in 1usize..=4,
        k in 1usize..=6,
    ) {
        let cfg = BuildConfig::default();
        let whole = NnCellIndex::build(pts.clone(), cfg.clone()).unwrap();
        let engine = QueryEngine::sequential(&whole);
        let sharded = ShardedIndex::build(pts.clone(), shards, cfg).unwrap();
        prop_assert_eq!(sharded.len(), pts.len());
        let k = k.min(pts.len());
        for q in &queries {
            let ctx = format!("S={shards} q={q:?}");
            let nn_q = Query::nn(q.clone());
            assert_bit_identical(
                &sharded.query(&nn_q).unwrap(),
                &engine.execute(&nn_q).unwrap(),
                &ctx,
            )?;
            let knn_q = Query::knn(q.clone(), k);
            assert_bit_identical(
                &sharded.query(&knn_q).unwrap(),
                &engine.execute(&knn_q).unwrap(),
                &ctx,
            )?;
        }
        // The batch path merges the same way.
        let batch: Vec<Query> = queries.iter().map(|q| Query::knn(q.clone(), k)).collect();
        for (sr, q) in sharded.batch(&batch).into_iter().zip(&batch) {
            assert_bit_identical(&sr.unwrap(), &engine.execute(q).unwrap(), "batch")?;
        }
    }

    #[test]
    fn sharded_then_inserted_matches_rebuilt_whole(
        pts in lattice_points(3, 6, 20),
        shards in 2usize..=4,
    ) {
        // Build from a prefix, insert the rest dynamically: global ids must
        // still equal input positions and answers must match a fresh
        // unsharded build of the full set.
        let cfg = BuildConfig::default();
        let split = pts.len() / 2;
        let sharded =
            ShardedIndex::build(pts[..split].to_vec(), shards, cfg.clone()).unwrap();
        for (g, p) in pts.iter().enumerate().skip(split) {
            let got = sharded.query(&Query::nn(p.as_slice())).unwrap();
            prop_assert!(got.best.id < g, "pre-insert winner must be an older point");
            let assigned = sharded.insert(p.clone()).unwrap();
            prop_assert_eq!(assigned, g, "round-robin ids track input positions");
        }
        let whole = NnCellIndex::build(pts.clone(), cfg).unwrap();
        let engine = QueryEngine::sequential(&whole);
        // Once with the inserts in the memtable tail, once folded.
        for stage in ["tail", "folded"] {
            if stage == "folded" {
                sharded.flush().unwrap();
                prop_assert_eq!(sharded.tail_depth(), 0);
            }
            for (g, p) in pts.iter().enumerate() {
                let q = Query::nn(p.as_slice());
                let got = sharded.query(&q).unwrap();
                prop_assert_eq!(got.best.id, g, "every point is its own nearest neighbor");
                assert_bit_identical(&got, &engine.execute(&q).unwrap(), stage)?;
            }
        }
    }
}

/// Distinct deterministic points on a 100×100 lattice, off the boundary.
fn grid_point(i: usize) -> Point {
    Point::new(vec![
        (i % 97) as f64 / 100.0 + 0.005,
        (i / 97 % 97) as f64 / 100.0 + 0.005,
    ])
}

#[test]
fn save_load_round_trips_through_a_manifest() {
    let pts: Vec<Point> = (0..17).map(grid_point).collect();
    let cfg = BuildConfig::default();
    let sharded = ShardedIndex::build(pts.clone(), 3, cfg).unwrap();
    let dir = std::env::temp_dir().join(format!("nncell_shard_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    sharded.save(&dir).unwrap();
    assert_eq!(
        std::fs::read_to_string(dir.join("MANIFEST")).unwrap(),
        "nncell-sharded 3\n",
        "`ShardedIndex::load` tells a sharded directory by this manifest"
    );
    let loaded = ShardedIndex::load(&dir).unwrap();
    assert_eq!(loaded.num_shards(), 3);
    assert_eq!(loaded.len(), pts.len());
    for (g, p) in pts.iter().enumerate() {
        let r = loaded.query(&Query::nn(p.as_slice())).unwrap();
        assert_eq!(r.best.id, g, "global ids survive the round trip");
    }
    // Inserts keep numbering where the save left off.
    assert_eq!(loaded.insert(grid_point(17)).unwrap(), 17);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_shards_recover_acknowledged_updates() {
    use nncell_core::{FaultSchedule, FaultVfs, PersistError, Vfs};
    use std::path::PathBuf;
    use std::sync::Arc;

    let fault = FaultVfs::new(FaultSchedule::none(11));
    let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
    let dir = PathBuf::from("/db");
    let cfg = || BuildConfig::default();

    let sharded =
        ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, 3, cfg()).unwrap();
    assert!(sharded.is_durable());
    for i in 0..11 {
        assert_eq!(sharded.insert(grid_point(i)).unwrap(), i);
    }
    assert!(sharded.remove(4).unwrap());
    assert!(sharded.wal_records() > 0, "updates must be journaled");
    drop(sharded); // crash: no checkpoint, no close — WAL replay must cover it

    let recovered =
        ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, 3, cfg()).unwrap();
    assert_eq!(recovered.len(), 10);
    assert_eq!(recovered.recovery().len(), 3);
    for i in 0..11 {
        if i == 4 {
            continue;
        }
        let p = grid_point(i);
        let r = recovered.query(&Query::nn(p.as_slice())).unwrap();
        assert_eq!(r.best.id, i, "acknowledged insert {i} must survive the crash");
    }
    // Numbering resumes after the recovered watermark.
    assert_eq!(recovered.insert(grid_point(11)).unwrap(), 11);
    recovered.close().unwrap();

    // A shard-count mismatch is a typed corruption, not silent resharding.
    match ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, 4, cfg()) {
        Err(PersistError::Corrupt(_)) => {}
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("shard-count mismatch must not open"),
    }
}

#[test]
fn queries_run_concurrently_with_inserts() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Deterministic distinct points in the unit square via an LCG.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut coord = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX >> 1) as f64
    };
    let pts: Vec<Point> = (0..64)
        .map(|_| Point::new(vec![coord(), coord(), coord()]))
        .collect();

    let cfg = BuildConfig::default();
    let sharded = ShardedIndex::build(pts[..8].to_vec(), 3, cfg).unwrap();
    let stop = AtomicBool::new(false);
    // Tail acks outrun thread startup; the barrier makes every reader
    // overlap the writes and the fold publishes.
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for reader in 0..2 {
            let (sharded, stop, start) = (&sharded, &stop, &start);
            let probe = pts[reader].as_slice().to_vec();
            s.spawn(move || {
                start.wait();
                loop {
                    // Readers must never block, error, or observe a
                    // half-applied insert: every response is a live point.
                    let r = sharded.query(&Query::nn(probe.clone())).unwrap();
                    assert!(r.best.dist.is_finite());
                    assert!(r.best.id < 64, "id {} was never assigned", r.best.id);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        start.wait();
        for p in &pts[8..] {
            sharded.insert(p.clone()).unwrap();
        }
        // Folds publish snapshots under the readers.
        sharded.flush().unwrap();
        assert!(sharded.remove(10).unwrap());
        assert!(sharded.remove(33).unwrap());
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(sharded.len(), 62);
    // Quiesced: every live point answers itself.
    for (g, p) in pts.iter().enumerate() {
        if g == 10 || g == 33 {
            continue;
        }
        let r = sharded.query(&Query::nn(p.as_slice())).unwrap();
        assert_eq!(r.best.id, g, "point {g} must be its own nearest neighbor");
    }
}

/// Deterministic distinct points in the unit cube via an LCG.
fn lcg_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut coord = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX >> 1) as f64
    };
    (0..n)
        .map(|_| Point::new(vec![coord(), coord(), coord()]))
        .collect()
}

/// A remove-only writer racing parity-checking readers: every concurrent
/// answer must be explainable by some monotone prefix of the removal
/// sequence, with linear-scan agreement on distance *bits*.
///
/// The writer deletes ids `0..n_remove` ascending and publishes a
/// watermark *after* each acked remove. A reader brackets each query with
/// watermark loads `w0`/`w1`; monotone removal then pins what the query
/// could have observed:
///
/// * ids `< w0` were dead before the query started — none may appear;
/// * ids `> w1` could not have been removed during the query — any such
///   point strictly closer (by the merge's `(distance, id)` order) than
///   the worst returned result would have won, so none may exist outside
///   the response, and a short response (fewer than `k` results) must
///   contain every one of them.
fn assert_remove_during_query_parity(idx: &ShardedIndex, pts: &[Point], n_remove: usize) {
    use std::cmp::Ordering as Cmp;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let n = pts.len();
    let watermark = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Memtable removes are journal-only and outrun thread startup; the
    // barrier makes sure every reader brackets at least the storm's tail.
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        {
            let (idx, stop) = (&idx, &stop);
            s.spawn(move || idx.run_folder(stop));
        }
        for reader in 0..2 {
            // Probe near a survivor so the live set is never empty.
            let probe: Vec<f64> = pts[n - 1 - reader].as_slice().to_vec();
            let (idx, watermark, stop, pts, start) = (&idx, &watermark, &stop, &pts, &start);
            s.spawn(move || {
                let strictly_closer = |d: f64, id: usize, worst_d: f64, worst_id: usize| {
                    d.total_cmp(&worst_d).then(id.cmp(&worst_id)) == Cmp::Less
                };
                let mut served = 0usize;
                start.wait();
                loop {
                    let k = 1 + served % 3;
                    let w0 = watermark.load(Ordering::Acquire);
                    let resp = idx.query(&Query::knn(probe.clone(), k)).unwrap();
                    let w1 = watermark.load(Ordering::Acquire);
                    served += 1;

                    let results: Vec<_> = resp.iter().collect();
                    assert!(
                        !results.is_empty() && results.len() <= k,
                        "k={k} returned {} results",
                        results.len()
                    );
                    for w in results.windows(2) {
                        assert!(
                            strictly_closer(w[0].dist, w[0].id, w[1].dist, w[1].id),
                            "response not strictly ordered: {:?} vs {:?}",
                            (w[0].dist, w[0].id),
                            (w[1].dist, w[1].id)
                        );
                    }
                    for r in &results {
                        assert!(r.id < n, "id {} was never assigned", r.id);
                        assert!(
                            r.id >= w0,
                            "id {} was removed before the query started (w0={w0})",
                            r.id
                        );
                        let want = dist(&probe, pts[r.id].as_slice());
                        assert_eq!(
                            r.dist.to_bits(),
                            want.to_bits(),
                            "id {}: distance {} diverged from the linear-scan metric {}",
                            r.id,
                            r.dist,
                            want
                        );
                    }
                    // Sandwich: points the writer provably never touched
                    // during the query window behave as in an offline scan.
                    let worst = results.last().expect("nonempty");
                    for pid in (w1 + 1).min(n)..n {
                        if results.iter().any(|r| r.id == pid) {
                            continue;
                        }
                        assert_eq!(
                            results.len(),
                            k,
                            "short response omitted live id {pid} (w1={w1})"
                        );
                        let d = dist(&probe, pts[pid].as_slice());
                        assert!(
                            !strictly_closer(d, pid, worst.dist, worst.id),
                            "live id {pid} at {d} beats returned worst \
                             ({}, id {}) yet was omitted (w0={w0}, w1={w1})",
                            worst.dist,
                            worst.id
                        );
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                assert!(served > 0, "reader never ran");
            });
        }
        start.wait();
        for id in 0..n_remove {
            assert!(idx.remove(id).unwrap(), "id {id} was live");
            watermark.store(id + 1, Ordering::Release);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });

    // Quiesced: bit-exact linear-scan parity over the survivors.
    assert_eq!(idx.len(), n - n_remove);
    let survivors: Vec<Point> = pts[n_remove..].to_vec();
    let probe: Vec<f64> = vec![0.5, 0.5, 0.5];
    for k in [1, 3, 7] {
        let got = idx.query(&Query::knn(probe.clone(), k)).unwrap();
        let want = linear_scan_knn(&survivors, &probe, k);
        assert_eq!(got.iter().count(), want.len(), "k={k}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, n_remove + w.id, "k={k}: ranking diverged");
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "k={k}: distance bits");
        }
    }
}

#[test]
fn removes_race_queries_with_linear_scan_parity() {
    let pts = lcg_points(160, 0x5eed_0007);
    let cfg = BuildConfig::default();
    let sharded = ShardedIndex::build(pts.clone(), 3, cfg).unwrap();
    assert_remove_during_query_parity(&sharded, &pts, 150);
}

#[test]
fn removes_race_queries_through_the_memtable_tail() {
    let pts = lcg_points(160, 0x5eed_0011);
    let cfg = BuildConfig::default();
    // Seed the cells with a prefix, push the rest through the tail, then
    // race the same removal storm against a live folder: the merge must
    // stay indistinguishable from a fully built index.
    let sharded = ShardedIndex::build(pts[..16].to_vec(), 3, cfg)
        .unwrap()
        .with_fold_config(FoldConfig::default());
    for (i, p) in pts.iter().enumerate().skip(16) {
        assert_eq!(sharded.insert(p.clone()).unwrap(), i);
    }
    assert_remove_during_query_parity(&sharded, &pts, 150);
}
