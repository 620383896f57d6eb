//! The headline durability proof: kill the process at **every** syscall of
//! a randomized insert/remove/checkpoint workload and demand that recovery
//! always produces a prefix-consistent index.
//!
//! Protocol. The workload runs once fault-free against the deterministic
//! in-memory [`FaultVfs`] to count its syscalls `T`. It is then re-run `T`
//! times, crashing at syscall `k` for every `k < T`; each crashed file
//! system is materialized into its post-crash survivor (unsynced bytes
//! torn to a seeded prefix, unsynced directory entries gone) and recovered
//! with [`ShardedIndex::open_durable_with_vfs`]. Every write of the
//! workload takes the one write path — journal, memtable tail, ack — with
//! folds interleaved deterministically. The recovered index must
//!
//! 1. open without error or panic,
//! 2. hold exactly the state after some *prefix* of the workload — at
//!    least every acknowledged operation (no lost updates, no resurrected
//!    removals), at most one unacknowledged in-flight operation whose WAL
//!    record reached the disk before the crash,
//! 3. answer every probe query identically to a linear scan over its own
//!    live points (Lemma 1 exactness survives recovery).
//!
//! The sweeps cover one shard (the layout's directory initialization),
//! two shards with every write left in the tail until shutdown, and three
//! shards.
//!
//! The fault schedule seed is fixed for reproducibility and overridable
//! via `NNCELL_FAULT_SEED` (ci.sh pins it; set it locally to explore other
//! tear patterns).

use nncell::core::durable::DurableError;
use nncell::core::vfs::{FaultSchedule, FaultVfs, Vfs};
use nncell::core::{
    linear_scan_nn, BuildConfig, FoldConfig, NnCellIndex, Query, ShardedIndex,
};
use nncell::geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;

const DIM: usize = 2;

fn fault_seed() -> u64 {
    std::env::var("NNCELL_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C_C0DE)
}

fn cfg() -> BuildConfig {
    BuildConfig::default()
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Point),
    Remove(usize),
    Checkpoint,
}

/// A fixed random workload: mostly inserts, a mix of removes (live ids,
/// already-dead ids, ids never assigned), occasional checkpoints.
fn workload(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut assigned = 0usize;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_f64();
        if roll < 0.55 || assigned == 0 {
            let coords: Vec<f64> = (0..DIM).map(|_| rng.gen_f64()).collect();
            ops.push(Op::Insert(Point::new(coords)));
            assigned += 1;
        } else if roll < 0.85 {
            // +2 so some removes target ids that were never assigned.
            ops.push(Op::Remove(rng.gen_range(0..assigned + 2)));
        } else {
            ops.push(Op::Checkpoint);
        }
    }
    ops
}

/// Logical index states after each op prefix: slot `i` of a state is the
/// point with global id `i`, `None` once removed. Mirrors
/// [`ShardedIndex`] semantics exactly (ids are assigned by insertion
/// order; removes of non-live ids are no-ops; checkpoints change
/// nothing).
fn model_states(ops: &[Op]) -> Vec<Vec<Option<Point>>> {
    let mut state: Vec<Option<Point>> = Vec::new();
    let mut states = vec![state.clone()];
    for op in ops {
        match op {
            Op::Insert(p) => state.push(Some(p.clone())),
            Op::Remove(id) => {
                if *id < state.len() {
                    state[*id] = None;
                }
            }
            Op::Checkpoint => {}
        }
        states.push(state.clone());
    }
    states
}

/// One sweep's shape: the shard count, plus how often the workload folds
/// the memtable tail (`None`: never before the final `close`, so every
/// checkpoint re-journals the whole tail).
#[derive(Clone, Copy)]
struct Sweep {
    shards: usize,
    fold_every: Option<usize>,
}

impl Sweep {
    fn open(&self, vfs: Arc<dyn Vfs>, dir: &Path) -> Result<ShardedIndex, nncell::core::PersistError> {
        ShardedIndex::open_durable_with_vfs(vfs, dir, DIM, self.shards, cfg())
    }

    /// Runs the workload until completion or the first crash-induced
    /// error; returns how many ops were acknowledged (`Ok`). The final
    /// `close` is attempted but not counted — it changes no logical
    /// state. Folding is asserted to make **zero** syscalls — the property
    /// that makes fold crash-consistency trivial: disk state never depends
    /// on fold progress, so recovery is pure WAL replay and can neither
    /// lose an acked write to a crashed fold nor double-apply a folded one.
    fn run(&self, fault: &FaultVfs, dir: &Path, ops: &[Op]) -> usize {
        let s = match self.open(Arc::new(fault.clone()), dir) {
            Ok(s) => s.with_fold_config(FoldConfig {
                tail_max: 1 << 20,
                ..FoldConfig::default()
            }),
            Err(_) => return 0,
        };
        let mut acked = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let ok = match op {
                Op::Insert(p) => match s.insert(p.clone()) {
                    Ok(_) => true,
                    Err(DurableError::Invalid(e)) => {
                        panic!("workload points are valid by construction: {e}")
                    }
                    Err(DurableError::Backpressure { .. }) => {
                        panic!("tail_max is far above the workload length")
                    }
                    Err(DurableError::Persist(_)) => false,
                },
                Op::Remove(id) => s.remove(*id).is_ok(),
                Op::Checkpoint => s.checkpoint().is_ok(),
            };
            if !ok {
                return acked;
            }
            acked += 1;
            if self.fold_every.is_some_and(|n| i % n == n - 1) {
                let before = fault.ops();
                s.fold_once().expect("no chaos configured — folds cannot fail");
                assert_eq!(fault.ops(), before, "folding must make zero syscalls");
            }
        }
        let _ = s.close();
        acked
    }

    /// The sweep: one crash point per syscall of the whole workload.
    fn check_every_crash_point(&self, seed: u64, dir: &str, len: usize) {
        let dir = Path::new(dir);
        let ops = workload(seed, len);
        let states = model_states(&ops);

        // Fault-free baseline: count syscalls, check the final state.
        let clean = FaultVfs::new(FaultSchedule::none(seed));
        let acked = self.run(&clean, dir, &ops);
        assert_eq!(acked, ops.len(), "fault-free run must acknowledge every op");
        let total_ops = clean.ops();
        assert!(!clean.crashed());
        assert!(
            total_ops >= 60,
            "workload shrank to {total_ops} syscalls — the sweep no longer proves much"
        );
        let reopened = self
            .open(Arc::new(clean.survivor(FaultSchedule::none(seed))), dir)
            .expect("clean reopen");
        assert!(
            states_equal(&live_slots(&reopened), &states[ops.len()]),
            "fault-free run must end in the full-workload state"
        );

        // Crash at every syscall.
        for k in 0..total_ops {
            let fault = FaultVfs::new(FaultSchedule::crash_at(seed, k));
            let acked = self.run(&fault, dir, &ops);
            assert!(
                fault.crashed(),
                "crash point {k} < {total_ops} must have fired"
            );

            let survivor = fault.survivor(FaultSchedule::none(seed.wrapping_add(k)));
            let recovered = self
                .open(Arc::new(survivor), dir)
                .unwrap_or_else(|e| panic!("crash point {k}: recovery failed: {e}"));

            // The manifest can never claim a shard layout that does not
            // exist on disk (manifest-last ordering): recovery reopened
            // all S shards or it would have errored above.
            assert_eq!(recovered.num_shards(), self.shards, "crash point {k}");
            assert_eq!(recovered.recovery().len(), self.shards, "crash point {k}");

            // Prefix consistency across the *global* id space, bit-identical
            // points: every acked write survives (journal-before-ack), no
            // shard resurrects a removed point from a stale generation,
            // nothing double-applies (folds never touch disk), at most one
            // in-flight op beyond the acks.
            let got = live_slots(&recovered);
            let lo = &states[acked];
            let hi = &states[(acked + 1).min(ops.len())];
            assert!(
                states_equal(&got, lo) || states_equal(&got, hi),
                "crash point {k}: recovered state matches neither the state after \
                 the {acked} acknowledged ops nor one in-flight op beyond it\n\
                 recovered: {} slots, expected {} or {} slots",
                got.len(),
                lo.len(),
                hi.len()
            );
            assert_queries_exact(&recovered, &format!("crash point {k}"));
        }
    }
}

/// Global live slots of a freshly opened index (its tail is empty: open
/// replays the WAL into the cells). Inserts are strictly round-robin
/// (global id `g` lives in shard `g % S` at local slot `g / S`), so the
/// global view reassembles from the per-shard arrays.
fn live_slots(idx: &ShardedIndex) -> Vec<Option<Point>> {
    assert_eq!(idx.tail_depth(), 0, "a freshly opened index has no tail");
    let shards = idx.num_shards();
    let handles: Vec<_> = (0..shards).map(|i| idx.shard(i)).collect();
    let total: usize = handles.iter().map(|h| h.points().len()).sum();
    (0..total)
        .map(|g| {
            let h = &handles[g % shards];
            let local = g / shards;
            h.is_live(local).then(|| h.points()[local].clone())
        })
        .collect()
}

fn states_equal(a: &[Option<Point>], b: &[Option<Point>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(p), Some(q)) => p.as_slice() == q.as_slice(),
            (None, None) => true,
            _ => false,
        })
}

/// Every recovered query must agree with a linear scan over the recovered
/// live set — exactness is not allowed to degrade across a crash.
fn assert_queries_exact(idx: &ShardedIndex, tag: &str) {
    let live: Vec<Point> = live_slots(idx).into_iter().flatten().collect();
    for k in 0..12 {
        let q: Vec<f64> = (0..DIM)
            .map(|j| ((k * 17 + j * 29) % 100) as f64 / 100.0)
            .collect();
        let got = idx.query(&Query::nn(q.clone())).ok().map(|r| r.best);
        match (got, linear_scan_nn(&live, &q)) {
            (Some(got), Some(want)) => assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "{tag}: query {q:?} returned dist {} but scan found {}",
                got.dist,
                want.dist
            ),
            (None, None) => {}
            (got, want) => panic!("{tag}: query {q:?} disagreement: {got:?} vs {want:?}"),
        }
    }
}

/// One shard: crash points land in the directory initialization (shard
/// journal first, manifest last), WAL appends, tail-aware checkpoints,
/// and around folds.
#[test]
fn every_crash_point_recovers_a_prefix_consistent_index() {
    Sweep {
        shards: 1,
        fold_every: Some(3),
    }
    .check_every_crash_point(fault_seed(), "/db", 28);
}

/// Two shards, no fold before shutdown: every acked write lives only in
/// the WAL and the tail, so each checkpoint must re-journal the whole
/// unfolded tail into the fresh WAL before its `CURRENT` flip, and
/// crashing between one shard's checkpoint and the next's must neither
/// resurrect a shard's old generation into the global answer nor lose an
/// acked op in another shard.
#[test]
fn every_crash_point_recovers_a_prefix_consistent_sharded_index() {
    Sweep {
        shards: 2,
        fold_every: None,
    }
    .check_every_crash_point(fault_seed().wrapping_mul(5), "/sharded-db", 18);
}

/// Three shards with folds every third op: crash points land inside
/// per-shard WAL appends, tail-aware checkpoints taken with a mix of
/// folded and unfolded state, and the top-level "sharded S" manifest
/// write.
#[test]
fn every_crash_point_recovers_the_memtable_write_path() {
    Sweep {
        shards: 3,
        fold_every: Some(3),
    }
    .check_every_crash_point(fault_seed().wrapping_mul(11), "/memtable-db", 18);
}

/// Snapshot saves are atomic under crashes too: killing `save_with_vfs` at
/// every syscall leaves either the intact old file or the intact new file,
/// never a torn hybrid (satellite of the same protocol, exercised through
/// the public persistence API rather than the WAL layer).
#[test]
fn snapshot_save_is_crash_atomic() {
    let seed = fault_seed().wrapping_mul(3);
    let old_pts: Vec<Point> = (0..12)
        .map(|i| Point::new(vec![i as f64 / 13.0 + 0.01, (i * 7 % 13) as f64 / 13.0 + 0.01]))
        .collect();
    let new_pts: Vec<Point> = (0..20)
        .map(|i| Point::new(vec![(i * 5 % 21) as f64 / 21.0 + 0.01, i as f64 / 21.0 + 0.01]))
        .collect();
    let old_index = NnCellIndex::build(old_pts.clone(), cfg()).expect("build old");
    let new_index = NnCellIndex::build(new_pts.clone(), cfg()).expect("build new");
    let path = Path::new("/snap/index.nncell");

    // Count syscalls of the overwrite.
    let clean = FaultVfs::new(FaultSchedule::none(seed));
    old_index.save_with_vfs(&clean, path).expect("seed save");
    let before = clean.ops();
    new_index.save_with_vfs(&clean, path).expect("overwrite");
    let total = clean.ops() - before;

    for k in 0..total {
        let fault = FaultVfs::new(FaultSchedule::none(seed));
        old_index.save_with_vfs(&fault, path).expect("seed save");
        let crash_op = fault.ops() + k;
        // Re-arm with a crash inside the overwrite only.
        let fault = {
            let armed = FaultVfs::new(FaultSchedule::crash_at(seed, crash_op));
            old_index.save_with_vfs(&armed, path).expect("seed save");
            armed
        };
        let res = new_index.save_with_vfs(&fault, path);
        assert!(res.is_err(), "crash at overwrite op {k} must surface");

        let survivor = fault.survivor(FaultSchedule::none(seed.wrapping_add(k)));
        let loaded = NnCellIndex::load_with_vfs(&survivor, path)
            .unwrap_or_else(|e| panic!("crash at overwrite op {k}: load failed: {e}"));
        let n = loaded.len();
        assert!(
            n == old_pts.len() || n == new_pts.len(),
            "crash at overwrite op {k}: torn snapshot with {n} points"
        );
    }
}
