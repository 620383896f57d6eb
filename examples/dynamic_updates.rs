//! Dynamic updates: inserts and removals are point-tree updates, and every
//! query stays exact — and with the write-ahead log the updates survive a
//! crash, demonstrated at the end by dropping a durable index without a
//! checkpoint and recovering it. NN-cells, which the paper maintains on
//! every update, are built offline from a snapshot instead
//! (`CellSet::build`), so no write pays for them.
//!
//! ```sh
//! cargo run --release --example dynamic_updates
//! ```

use nncell::core::{linear_scan_nn, BuildConfig, NnCellIndex, Query, ShardedIndex};
use nncell::data::{ClusteredGenerator, Generator, UniformGenerator};
use nncell::geom::Point;

fn main() {
    let dim = 4;
    let initial = UniformGenerator::new(dim).generate(500, 10);
    let arrivals = ClusteredGenerator::new(dim, 3, 0.05).generate(200, 11);
    let queries: Vec<Vec<f64>> = UniformGenerator::new(dim)
        .generate(100, 12)
        .into_iter()
        .map(Point::into_vec)
        .collect();

    println!("initial build: {} points", initial.len());
    let mut index = NnCellIndex::build(initial.clone(), BuildConfig::default()).expect("build");
    let mut reference: Vec<Point> = initial;

    println!("inserting {} clustered arrivals ...", arrivals.len());
    for p in arrivals {
        index.insert(p.clone()).expect("insert");
        reference.push(p);
    }
    verify(&index, &reference, &queries, "after inserts");

    println!("removing every fifth point ...");
    let doomed: Vec<usize> = (0..reference.len()).step_by(5).collect();
    for &id in &doomed {
        assert!(index.remove(id));
    }
    let survivors: Vec<Point> = reference
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, p)| p.clone())
        .collect();
    // Query answers must now match a scan over the survivors only.
    let engine = index.engine();
    for q in &queries {
        let got = engine.execute(&Query::nn(q.clone())).unwrap().best;
        let want = linear_scan_nn(&survivors, q).unwrap();
        assert!(
            (got.dist - want.dist).abs() < 1e-9,
            "removed point answered at q={q:?}"
        );
    }
    println!(
        "after removals: {} live points, all {} queries exact",
        index.len(),
        queries.len()
    );

    // ---- Durability: journaled updates survive a crash. ----
    //
    // A durable index journals every write to its WAL (fsynced before the
    // ack) and parks it in a small memtable tail; a folder later inserts
    // the tail into the point tree. Build one over the survivors, apply more
    // updates — folding only some of them — then simulate a crash by
    // dropping the handle WITHOUT a checkpoint or close. Reopening replays
    // the journal and every query answer is unchanged.
    let dir = std::env::temp_dir().join(format!("nncell_dynamic_wal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    println!("\nopening WAL-backed index at {} ...", dir.display());
    let durable = ShardedIndex::build(survivors.clone(), 1, BuildConfig::default())
        .expect("build")
    .into_durable(&dir)
    .expect("create durable dir");

    let late_arrivals = UniformGenerator::new(dim).generate(40, 13);
    let first_new_id = survivors.len();
    for (i, p) in late_arrivals.iter().enumerate() {
        durable.insert(p.clone()).expect("journaled insert");
        if i == late_arrivals.len() / 2 {
            durable.flush().expect("fold the tail into the point tree");
        }
    }
    assert!(durable.remove(first_new_id).expect("journaled remove"));
    let mut expected: Vec<Option<Point>> = survivors.into_iter().map(Some).collect();
    expected.extend(late_arrivals.iter().cloned().map(Some));
    expected[first_new_id] = None;
    let expected_answers: Vec<Option<usize>> = queries
        .iter()
        .map(|q| durable.query(&Query::nn(q.clone())).ok().map(|r| r.best.id))
        .collect();
    println!(
        "journaled {} updates ({} records pending replay, {} still unfolded) — \
         crashing without checkpoint",
        late_arrivals.len() + 1,
        durable.wal_records(),
        durable.tail_depth()
    );
    drop(durable); // the crash: no checkpoint, no close

    let recovered = ShardedIndex::open_durable_existing(&dir).expect("recover");
    let report = &recovered.recovery()[0];
    println!(
        "recovered generation {}: {} records replayed, {} live points",
        report.generation,
        report.replayed,
        recovered.len()
    );
    let shard = recovered.shard(0);
    for (i, slot) in expected.iter().enumerate() {
        match slot {
            Some(p) => assert!(
                shard.is_live(i) && shard.points()[i].as_slice() == p.as_slice(),
                "point #{i} lost in the crash"
            ),
            None => assert!(!shard.is_live(i), "removed point #{i} resurrected"),
        }
    }
    for (q, want) in queries.iter().zip(&expected_answers) {
        let got = recovered
            .query(&Query::nn(q.clone()))
            .ok()
            .map(|r| r.best.id);
        assert_eq!(&got, want, "query answer changed across the crash at q={q:?}");
    }
    println!(
        "all {} queries answer identically after recovery",
        queries.len()
    );
    recovered.close().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

fn verify(index: &NnCellIndex, reference: &[Point], queries: &[Vec<f64>], label: &str) {
    let batch: Vec<Query> = queries.iter().map(|q| Query::nn(q.clone())).collect();
    for (q, got) in queries.iter().zip(index.engine().batch(&batch)) {
        let got = got.expect("well-formed query").best;
        let want = linear_scan_nn(reference, q).unwrap();
        assert_eq!(got.id, want.id, "{label}: mismatch at q={q:?}");
    }
    println!(
        "{label}: {} points, all {} queries exact",
        index.len(),
        queries.len()
    );
}
