//! Crash-consistent journaling for one shard: WAL + atomic snapshot
//! rotation.
//!
//! A durable shard lives in a directory and is, at every instant, fully
//! described by three kinds of file:
//!
//! ```text
//! dir/CURRENT            — ASCII generation number G; the commit pointer
//! dir/snapshot.G.nncell  — checksummed NNCELL03 snapshot of generation G
//! dir/wal.G.log          — WAL of updates on top of snapshot G
//! ```
//!
//! A shard's `Journal` owns only that on-disk half. The shard's one in-memory
//! copy is the snapshot [`crate::ShardedIndex`] publishes; the journal
//! never holds an index of its own.
//!
//! **Update protocol** ([`crate::ShardedIndex::insert`] / `remove`):
//! validate → journal the record to `wal.G.log` and fsync → push it onto
//! the shard's memtable tail → acknowledge. An acknowledged update is
//! therefore always durable; an unacknowledged one may or may not survive
//! a crash (both outcomes are consistent). The background fold applies
//! the tail to the point tree with **zero** syscalls, so disk state never
//! depends on fold progress.
//!
//! **Checkpoint protocol** (`Journal::checkpoint`): write `snapshot.G+1`
//! from the published snapshot (tmp + fsync + rename + dir sync), create
//! `wal.G+1` seeded with the still-unfolded tail (one batched fsync, dir
//! synced), then *commit* by atomically rewriting `CURRENT` to `G+1`, and
//! finally delete the generation-`G` files. The `CURRENT` rename is the
//! single commit point: a crash strictly before it recovers generation `G`
//! (whose snapshot and WAL are untouched — nothing is deleted until after
//! the commit), a crash after it recovers `G+1`. There is no interleaving
//! in which a removed point can be resurrected or an acknowledged update
//! lost — the sweeps in `tests/crash_recovery.rs` kill the process at
//! every syscall of a randomized workload and check exactly that, plus
//! exactness of every query against a linear scan over the recovered
//! point set.
//!
//! **Recovery** (`Journal::open`): read `CURRENT`, load the snapshot it
//! names (the cell-bearing snapshots of earlier releases load with their
//! cells dropped), replay the WAL prefix (a torn or corrupt tail is
//! dropped — it can only hold unacknowledged bytes), and, if the tail was dirty,
//! immediately rotate to a fresh generation so new appends never land
//! after damaged bytes. Stale files from older generations or interrupted
//! checkpoints are swept up.

use crate::index::{BuildError, NnCellIndex};
use crate::persist::PersistError;
use crate::vfs::{write_atomic, Vfs};
use crate::wal::{read_wal, WalRecord, WalTail, WalWriter};
use nncell_geom::Euclidean;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Failures of durable updates: either the update itself is invalid, or
/// the journal could not be made durable.
#[derive(Debug)]
pub enum DurableError {
    /// The point failed [`NnCellIndex::validate_insert`]-style validation;
    /// nothing was journaled and nothing changed.
    Invalid(BuildError),
    /// Journaling failed (I/O or a poisoned WAL); nothing reached the
    /// memtable tail — the update is not acknowledged.
    Persist(PersistError),
    /// The memtable tail is at its high-watermark (the background folder
    /// is behind or degraded). Nothing was journaled; the write is safe to
    /// retry after a backoff. The serving layer maps it to HTTP 429 +
    /// `Retry-After`.
    Backpressure {
        /// Unfolded tail operations at rejection time.
        tail: usize,
        /// The configured high-watermark ([`crate::FoldConfig::tail_max`]).
        max: usize,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Invalid(e) => write!(f, "invalid update: {e}"),
            DurableError::Persist(e) => write!(f, "journaling failed: {e}"),
            DurableError::Backpressure { tail, max } => write!(
                f,
                "write backpressure: memtable tail at {tail}/{max} unfolded operations; \
                 retry after a backoff"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<BuildError> for DurableError {
    fn from(e: BuildError) -> Self {
        DurableError::Invalid(e)
    }
}

impl From<PersistError> for DurableError {
    fn from(e: PersistError) -> Self {
        DurableError::Persist(e)
    }
}

/// What recovery found when the directory was opened.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Generation the index recovered *from* (what `CURRENT` named).
    pub generation: u64,
    /// WAL records replayed successfully.
    pub replayed: usize,
    /// Records whose replay was a no-op (e.g. a remove of an id that a
    /// deterministically failing insert never produced). Always 0 for WALs
    /// written by this crate.
    pub skipped: usize,
    /// Condition of the WAL tail.
    pub wal_tail: WalTail,
    /// Whether recovery rotated to a fresh generation because the tail was
    /// dirty (new appends must never follow damaged bytes).
    pub rotated: bool,
    /// Whether the directory was empty and a fresh generation 0 was
    /// initialized.
    pub initialized: bool,
}

/// The on-disk half of one durable shard: its WAL, generation counter,
/// and recovery bookkeeping. See the module docs for the protocol.
pub(crate) struct Journal {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    wal: WalWriter,
    generation: u64,
    recovery: RecoveryReport,
    metrics: Option<DurableMetrics>,
}

/// Registry handles kept by the durability layer itself. The WAL handles
/// are retained so every rotation's fresh [`WalWriter`] can be re-bound.
struct DurableMetrics {
    wal: crate::wal::WalMetrics,
    /// `nncell_snapshot_rotations_total` — checkpoints plus the dirty-tail
    /// rotation recovery may perform at open.
    snapshot_rotations: Arc<nncell_obs::Counter>,
}

fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}.nncell"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.log"))
}

/// The generation a file name belongs to, if it is a generation file.
fn file_generation(name: &str) -> Option<u64> {
    if let Some(rest) = name.strip_prefix("snapshot.") {
        return rest.strip_suffix(".nncell")?.parse().ok();
    }
    if let Some(rest) = name.strip_prefix("wal.") {
        return rest.strip_suffix(".log")?.parse().ok();
    }
    None
}

/// Writes the complete on-disk state of `generation` — a snapshot of
/// `index` plus a fresh WAL holding the journaled-but-unfolded `tail`
/// records (one batched fsync) — and commits it by atomically rewriting
/// `CURRENT`. Returns the open WAL writer. The `CURRENT` rewrite is the
/// commit point; a crash anywhere earlier leaves the previous generation
/// fully intact, and replay of the committed one reconstructs
/// snapshot + tail, so an acked write stays durable even while the
/// folder is broken.
fn commit_generation(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    index: &NnCellIndex<Euclidean>,
    generation: u64,
    tail: &[WalRecord],
) -> Result<WalWriter, PersistError> {
    index.save_with_vfs(vfs.as_ref(), &snapshot_path(dir, generation))?;
    let mut wal = WalWriter::create(vfs.as_ref(), &wal_path(dir, generation))?;
    wal.append_batch(tail)?;
    vfs.sync_dir(dir)?;
    write_atomic(
        vfs.as_ref(),
        &current_path(dir),
        format!("{generation}\n").as_bytes(),
    )?;
    Ok(wal)
}

/// Best-effort sweep of files no generation references: older snapshots
/// and WALs, and `.tmp` leftovers of interrupted atomic writes. Failures
/// are ignored — stale files are harmless and retried next open.
fn sweep_stale(vfs: &Arc<dyn Vfs>, dir: &Path, keep: u64) {
    let Ok(entries) = vfs.list_dir(dir) else {
        return;
    };
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let stale = name.ends_with(".tmp") || file_generation(name).is_some_and(|g| g != keep);
        if stale {
            let _ = vfs.remove_file(&path);
        }
    }
}

impl Journal {
    /// Initializes `dir` with `index` as the generation-0 snapshot (empty
    /// WAL). Generation files already in `dir` are overwritten: callers
    /// only initialize directories whose enclosing manifest was never
    /// committed, so nothing there was ever acknowledged.
    pub(crate) fn create(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        index: &NnCellIndex<Euclidean>,
    ) -> Result<Self, PersistError> {
        vfs.create_dir_all(dir)?;
        let generation = 0;
        let wal = commit_generation(&vfs, dir, index, generation, &[])?;
        sweep_stale(&vfs, dir, generation);
        Ok(Journal {
            vfs,
            dir: dir.to_path_buf(),
            wal,
            generation,
            recovery: RecoveryReport {
                generation,
                replayed: 0,
                skipped: 0,
                wal_tail: WalTail::Clean,
                rotated: false,
                initialized: true,
            },
            metrics: None,
        })
    }

    /// Opens an existing durable directory and returns its journal plus
    /// the recovered index (committed snapshot + replayed WAL prefix).
    /// The committed generation is the sole authority on dimensionality
    /// and configuration.
    ///
    /// # Errors
    /// I/O failures, no committed generation, or a corrupt snapshot.
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<(Self, NnCellIndex<Euclidean>), PersistError> {
        let bytes = vfs.read(&current_path(dir))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| PersistError::Corrupt("CURRENT is not UTF-8".into()))?;
        let generation: u64 = text
            .trim()
            .parse()
            .map_err(|_| PersistError::Corrupt(format!("CURRENT holds {text:?}, not a generation")))?;

        let mut index =
            NnCellIndex::load_with_vfs(vfs.as_ref(), &snapshot_path(dir, generation))?;
        let replay = read_wal(vfs.as_ref(), &wal_path(dir, generation))?;
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        for rec in &replay.records {
            let applied = match rec {
                WalRecord::Insert(p) => index.insert(p.clone()).is_ok(),
                WalRecord::Remove(id) => index.remove(*id as usize),
            };
            if applied {
                replayed += 1;
            } else {
                // Deterministic no-op: replay reproduces exactly what the
                // original (failed) application did, keeping states equal.
                skipped += 1;
            }
        }

        let (wal, active_generation, rotated) = if replay.tail == WalTail::Clean {
            let wal = WalWriter::open_append(
                vfs.as_ref(),
                &wal_path(dir, generation),
                replay.records.len() as u64,
            )?;
            (wal, generation, false)
        } else {
            // Damaged tail: never append after it. Rotate to a fresh
            // generation built from the recovered in-memory state.
            let next = generation + 1;
            let wal = commit_generation(&vfs, dir, &index, next, &[])?;
            (wal, next, true)
        };
        sweep_stale(&vfs, dir, active_generation);
        let journal = Journal {
            vfs,
            dir: dir.to_path_buf(),
            wal,
            generation: active_generation,
            recovery: RecoveryReport {
                generation,
                replayed,
                skipped,
                wal_tail: replay.tail,
                rotated,
                initialized: false,
            },
            metrics: None,
        };
        Ok((journal, index))
    }

    /// Attaches WAL append/fsync counters, replay counters seeded from
    /// this journal's [`RecoveryReport`], and a snapshot-rotation counter.
    /// The series are unlabeled: the shards of one index share them as
    /// whole-stack totals. Idempotent.
    pub(crate) fn attach_metrics(&mut self, registry: &nncell_obs::Registry) {
        if self.metrics.is_some() {
            return;
        }
        let wal_metrics = crate::wal::WalMetrics::register(registry);
        self.wal.set_metrics(wal_metrics.clone());
        // Recovery already happened; publish what it found.
        registry
            .counter("nncell_wal_replayed_total")
            .add(self.recovery.replayed as u64);
        let dropped = self.recovery.skipped as u64
            + u64::from(self.recovery.wal_tail != WalTail::Clean);
        registry
            .counter("nncell_wal_replay_dropped_total")
            .add(dropped);
        let snapshot_rotations = registry.counter("nncell_snapshot_rotations_total");
        snapshot_rotations.add(u64::from(self.recovery.rotated));
        self.metrics = Some(DurableMetrics {
            wal: wal_metrics,
            snapshot_rotations,
        });
    }

    /// What recovery found when this journal was opened.
    pub(crate) fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Records sitting in the active WAL (replayed + appended since the
    /// last checkpoint) — the replay debt a crash right now would incur.
    pub(crate) fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Journals one record durably (fsynced before returning). The caller
    /// pushes the matching operation onto the shard's memtable tail only
    /// on success, keeping the journaled suffix and the tail in lockstep.
    ///
    /// # Errors
    /// Journal I/O failures; nothing is acknowledged.
    pub(crate) fn append(&mut self, rec: &WalRecord) -> Result<(), PersistError> {
        self.wal.append(rec)
    }

    /// Rotates to a fresh generation: snapshot `index` (the shard's
    /// published snapshot), re-journal the unfolded `tail` into the fresh
    /// WAL, commit via `CURRENT`, sweep the old files. Replay debt after
    /// the rotation is exactly `tail.len()` records; also the only way out
    /// of a poisoned WAL.
    ///
    /// # Errors
    /// I/O failures. On error the previous generation remains committed
    /// and intact; the journal stays usable (checkpoint can be retried).
    pub(crate) fn checkpoint(
        &mut self,
        index: &NnCellIndex<Euclidean>,
        tail: &[WalRecord],
    ) -> Result<(), PersistError> {
        let next = self.generation + 1;
        self.wal = commit_generation(&self.vfs, &self.dir, index, next, tail)?;
        if let Some(m) = &self.metrics {
            self.wal.set_metrics(m.wal.clone());
            m.snapshot_rotations.inc();
        }
        self.generation = next;
        sweep_stale(&self.vfs, &self.dir, next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use crate::query::{Query, QueryError};
    use crate::scan::linear_scan_nn;
    use crate::vfs::{FaultSchedule, FaultVfs};
    use crate::ShardedIndex;
    use nncell_geom::Point;

    fn cfg() -> BuildConfig {
        BuildConfig::default()
    }

    fn grid_point(i: usize) -> Point {
        // Distinct points on a 100×100 lattice, away from the boundary.
        Point::new(vec![
            (i % 97) as f64 / 100.0 + 0.005,
            (i / 97 % 97) as f64 / 100.0 + 0.005,
        ])
    }

    fn mem_vfs() -> (Arc<dyn Vfs>, PathBuf) {
        let fault = FaultVfs::new(FaultSchedule::none(11));
        (Arc::new(fault), PathBuf::from("/db"))
    }

    /// A fresh (or reopened) one-shard durable index at `dir`.
    fn open(vfs: &Arc<dyn Vfs>, dir: &Path) -> ShardedIndex {
        ShardedIndex::open_durable_with_vfs(Arc::clone(vfs), dir, 2, 1, cfg()).unwrap()
    }

    /// Queries of the recovered index agree with a scan over its points.
    fn assert_self_consistent(idx: &ShardedIndex) {
        let shard = idx.shard(0);
        let live: Vec<Point> = (0..shard.points().len())
            .filter(|&i| shard.is_live(i))
            .map(|i| shard.points()[i].clone())
            .collect();
        for k in 0..30 {
            let q = vec![(k as f64 * 7.3) % 1.0, (k as f64 * 3.7) % 1.0];
            let got = idx.query(&Query::nn(q.clone())).ok().map(|r| r.best);
            match (got, linear_scan_nn(&live, &q)) {
                (Some(got), Some(want)) => {
                    assert!((got.dist - want.dist).abs() < 1e-9, "q={q:?}")
                }
                (None, None) => {}
                (got, want) => panic!("q={q:?}: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn typed_queries_behave_like_a_plain_engine() {
        let (vfs, dir) = mem_vfs();
        let d = open(&vfs, &dir);
        // Empty index: typed, not silent.
        assert_eq!(
            d.query(&Query::nn([0.5, 0.5])).unwrap_err(),
            QueryError::EmptyIndex
        );
        for i in 0..12 {
            d.insert(grid_point(i)).unwrap();
        }
        // Malformed input gets the same variants as QueryEngine::execute,
        // whether the points sit in the tail or in the point tree.
        for folded in [false, true] {
            if folded {
                d.flush().unwrap();
            }
            assert_eq!(
                d.query(&Query::nn([0.5])).unwrap_err(),
                QueryError::DimMismatch {
                    expected: 2,
                    got: 1
                }
            );
            assert_eq!(
                d.query(&Query::nn([f64::NAN, 0.5])).unwrap_err(),
                QueryError::NonFiniteQuery
            );
            assert_eq!(
                d.query(&Query::knn([0.5, 0.5], 0)).unwrap_err(),
                QueryError::ZeroK
            );
        }
        // Well-formed queries agree with the engine over the same shard.
        let want = d.shard(0).engine().execute(&Query::knn([0.31, 0.22], 3)).unwrap();
        let got = d.query(&Query::knn([0.31, 0.22], 3)).unwrap();
        assert_eq!(got.iter().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());
        for r in d.batch(&[Query::nn([0.31, 0.22]), Query::nn([0.9, 0.1])]) {
            r.unwrap();
        }
    }

    #[test]
    fn drop_without_checkpoint_recovers_every_acknowledged_update() {
        let (vfs, dir) = mem_vfs();
        let d = open(&vfs, &dir);
        assert!(d.recovery()[0].initialized);
        for i in 0..20 {
            d.insert(grid_point(i)).unwrap();
        }
        // Fold part of the writes: recovery must not care which were.
        d.flush().unwrap();
        assert!(d.remove(3).unwrap());
        assert!(d.remove(11).unwrap());
        assert!(!d.remove(3).unwrap(), "double remove journals nothing");
        assert_eq!(d.wal_records(), 22);
        drop(d); // crash: no checkpoint, no close

        let d = open(&vfs, &dir);
        let rec = &d.recovery()[0];
        assert!(!rec.initialized);
        assert_eq!(rec.replayed, 22);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.wal_tail, WalTail::Clean);
        assert_eq!(d.len(), 18);
        assert!(!d.shard(0).is_live(3) && !d.shard(0).is_live(11));
        assert_self_consistent(&d);
    }

    #[test]
    fn checkpoint_rotates_generation_and_clears_replay_debt() {
        let (vfs, dir) = mem_vfs();
        let shard_dir = dir.join("shard-0");
        let d = open(&vfs, &dir);
        for i in 0..10 {
            d.insert(grid_point(i)).unwrap();
        }
        d.flush().unwrap();
        d.checkpoint().unwrap();
        assert_eq!(d.wal_records(), 0);
        // Generation-0 files were swept; generation-1 files exist.
        assert!(!vfs.exists(&snapshot_path(&shard_dir, 0)));
        assert!(!vfs.exists(&wal_path(&shard_dir, 0)));
        assert!(vfs.exists(&snapshot_path(&shard_dir, 1)));

        d.insert(grid_point(10)).unwrap();
        drop(d);
        let d = open(&vfs, &dir);
        assert_eq!(d.recovery()[0].generation, 1);
        assert_eq!(d.recovery()[0].replayed, 1, "only post-checkpoint records replay");
        assert_eq!(d.len(), 11);
        assert_self_consistent(&d);
    }

    #[test]
    fn checkpoint_rejournals_the_unfolded_tail() {
        let (vfs, dir) = mem_vfs();
        let d = open(&vfs, &dir);
        for i in 0..6 {
            d.insert(grid_point(i)).unwrap();
        }
        d.flush().unwrap();
        d.insert(grid_point(6)).unwrap();
        assert!(d.remove(2).unwrap());
        // Two acked writes still in the tail: the checkpoint snapshots the
        // folded index and carries the tail into the fresh WAL.
        d.checkpoint().unwrap();
        assert_eq!(d.wal_records(), 2);
        drop(d);
        let d = open(&vfs, &dir);
        assert_eq!(d.recovery()[0].generation, 1);
        assert_eq!(d.recovery()[0].replayed, 2);
        assert_eq!(d.len(), 6);
        assert!(!d.shard(0).is_live(2));
        assert_self_consistent(&d);
    }

    #[test]
    fn close_leaves_zero_replay_debt() {
        let (vfs, dir) = mem_vfs();
        let d = open(&vfs, &dir);
        for i in 0..8 {
            d.insert(grid_point(i)).unwrap();
        }
        d.close().unwrap();
        let d = open(&vfs, &dir);
        assert_eq!(d.recovery()[0].replayed, 0);
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn damaged_wal_tail_is_dropped_and_generation_rotated() {
        let (vfs, dir) = mem_vfs();
        let shard_dir = dir.join("shard-0");
        let d = open(&vfs, &dir);
        for i in 0..6 {
            d.insert(grid_point(i)).unwrap();
        }
        drop(d);
        // Stomp garbage after the acknowledged records — a torn in-flight
        // append a crash left behind.
        let mut f = vfs.open_append(&wal_path(&shard_dir, 0)).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        f.sync().unwrap();
        drop(f);

        let d = open(&vfs, &dir);
        assert_eq!(d.recovery()[0].replayed, 6);
        assert!(matches!(d.recovery()[0].wal_tail, WalTail::Truncated { .. }));
        assert!(d.recovery()[0].rotated);
        assert!(vfs.exists(&wal_path(&shard_dir, 1)));
        assert_eq!(d.len(), 6);
        // The rotated state is clean: reopening replays nothing.
        drop(d);
        let d = open(&vfs, &dir);
        assert_eq!(d.recovery()[0].wal_tail, WalTail::Clean);
        assert_eq!(d.recovery()[0].replayed, 0);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn invalid_inserts_journal_nothing() {
        let (vfs, dir) = mem_vfs();
        let d = open(&vfs, &dir);
        d.insert(grid_point(0)).unwrap();
        let before = d.wal_records();
        assert!(matches!(
            d.insert(grid_point(0)),
            Err(DurableError::Invalid(BuildError::DuplicatePoint { .. }))
        ));
        d.flush().unwrap();
        assert!(matches!(
            d.insert(grid_point(0)),
            Err(DurableError::Invalid(BuildError::DuplicatePoint { .. }))
        ));
        assert!(matches!(
            d.insert(Point::new(vec![f64::NAN, 0.5])),
            Err(DurableError::Invalid(BuildError::NonFinitePoint { .. }))
        ));
        assert!(matches!(
            d.insert(Point::new(vec![0.5])),
            Err(DurableError::Invalid(BuildError::DimensionMismatch { .. }))
        ));
        assert_eq!(d.wal_records(), before, "rejected updates must not reach the WAL");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn create_from_built_index_and_reopen() {
        let (vfs, dir) = mem_vfs();
        let pts: Vec<Point> = (0..25).map(grid_point).collect();
        let built = ShardedIndex::build(pts, 1, cfg()).unwrap();
        let d = built.into_durable_with_vfs(Arc::clone(&vfs), &dir).unwrap();
        assert_eq!(d.len(), 25);
        drop(d);
        // A second conversion into the same directory must refuse.
        let again = ShardedIndex::build(vec![grid_point(0)], 1, cfg()).unwrap();
        assert!(matches!(
            again.into_durable_with_vfs(Arc::clone(&vfs), &dir),
            Err(PersistError::Corrupt(_))
        ));
        let d = ShardedIndex::open_durable_existing_with_vfs(Arc::clone(&vfs), &dir).unwrap();
        assert_eq!(d.len(), 25);
        assert_self_consistent(&d);
    }

    #[test]
    fn dimension_mismatch_on_open_is_typed() {
        let (vfs, dir) = mem_vfs();
        drop(open(&vfs, &dir));
        assert!(matches!(
            ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 3, 1, cfg()),
            Err(PersistError::Corrupt(_))
        ));
    }

    /// A directory in the unsharded layout of earlier releases —
    /// `CURRENT` holding a bare generation number, the generation files
    /// beside it — opens as one shard rooted at the directory itself and
    /// recovers every journaled write bit-identically.
    #[test]
    fn unsharded_layout_opens_as_one_shard() {
        let (vfs, dir) = mem_vfs();
        let pts: Vec<Point> = (0..9).map(grid_point).collect();
        let mut reference = NnCellIndex::build(pts, cfg()).unwrap();
        let mut journal = Journal::create(Arc::clone(&vfs), &dir, &reference).unwrap();
        for rec in [
            WalRecord::Insert(grid_point(9)),
            WalRecord::Remove(4),
            WalRecord::Insert(grid_point(10)),
            WalRecord::Remove(9),
        ] {
            journal.append(&rec).unwrap();
            match rec {
                WalRecord::Insert(p) => {
                    reference.insert(p).unwrap();
                }
                WalRecord::Remove(id) => assert!(reference.remove(id as usize)),
            }
        }
        drop(journal); // crash: no checkpoint
        assert_eq!(ShardedIndex::manifest_shards(&dir), None);

        let d = ShardedIndex::open_durable_existing_with_vfs(Arc::clone(&vfs), &dir).unwrap();
        assert_eq!(d.num_shards(), 1);
        assert_eq!(d.recovery()[0].replayed, 4);
        let got = d.shard(0);
        assert_eq!(got.points().len(), reference.points().len());
        for i in 0..reference.points().len() {
            assert_eq!(got.is_live(i), reference.is_live(i), "liveness of {i}");
            assert_eq!(got.points()[i].as_slice(), reference.points()[i].as_slice());
        }
        // It takes new writes, which recover too.
        assert_eq!(d.insert(grid_point(11)).unwrap(), 11);
        d.checkpoint().unwrap();
        drop(d);
        let d = ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, 1, cfg()).unwrap();
        assert_eq!(d.len(), 10);
        assert!(vfs.exists(&snapshot_path(&dir, 1)), "stays in its own layout");
        assert_self_consistent(&d);
    }

    /// A two-shard directory as earlier releases wrote it: each shard's
    /// snapshot is a cell-bearing `NNCELL02` file, with journaled writes
    /// on top. It opens, replays every record, and serves bit-identically
    /// to an in-memory index that took the same writes; its next
    /// checkpoint writes the current format.
    #[test]
    fn cell_bearing_sharded_directory_opens_replays_and_serves() {
        use crate::persist::legacy_file_bytes;
        use crate::vfs::write_atomic;
        let (vfs, dir) = mem_vfs();
        let reference = ShardedIndex::build((0..18).map(grid_point).collect(), 2, cfg()).unwrap();
        // Global id g lives in shard g % 2 at local id g / 2.
        let writes = [
            (0, WalRecord::Insert(grid_point(18))), // global 18
            (1, WalRecord::Insert(grid_point(19))), // global 19
            (0, WalRecord::Remove(2)),              // global 4
            (1, WalRecord::Remove(3)),              // global 7
        ];
        for i in 0..2 {
            let shard_dir = dir.join(format!("shard-{i}"));
            let mut journal =
                Journal::create(Arc::clone(&vfs), &shard_dir, &reference.shard(i)).unwrap();
            let legacy = legacy_file_bytes(&reference.shard(i), true);
            write_atomic(vfs.as_ref(), &snapshot_path(&shard_dir, 0), &legacy).unwrap();
            for (shard, rec) in &writes {
                if *shard == i {
                    journal.append(rec).unwrap();
                }
            }
        }
        write_atomic(vfs.as_ref(), &dir.join("CURRENT"), b"sharded 2\n").unwrap();
        assert_eq!(reference.insert(grid_point(18)).unwrap(), 18);
        assert_eq!(reference.insert(grid_point(19)).unwrap(), 19);
        assert!(reference.remove(4).unwrap() && reference.remove(7).unwrap());
        reference.flush().unwrap();

        let d = ShardedIndex::open_durable_existing_with_vfs(Arc::clone(&vfs), &dir).unwrap();
        assert_eq!(d.num_shards(), 2);
        assert_eq!(d.recovery().iter().map(|r| r.replayed).sum::<usize>(), 4);
        assert_eq!(d.len(), reference.len());
        for i in 0..2 {
            let (got, want) = (d.shard(i), reference.shard(i));
            assert_eq!(got.points().len(), want.points().len());
            for id in 0..want.points().len() {
                assert_eq!(got.is_live(id), want.is_live(id), "shard {i} liveness of {id}");
                assert_eq!(got.points()[id].as_slice(), want.points()[id].as_slice());
            }
        }
        let bits = |idx: &ShardedIndex, q: &Query| -> Vec<(usize, u64)> {
            idx.query(q).unwrap().iter().map(|r| (r.id, r.dist.to_bits())).collect()
        };
        for k in 0..20 {
            let q = vec![(k as f64 * 0.137) % 1.0, (k as f64 * 0.291) % 1.0];
            for query in [Query::nn(q.clone()), Query::knn(q, 4)] {
                assert_eq!(bits(&d, &query), bits(&reference, &query));
            }
        }
        // New writes land; the checkpoint rewrites each snapshot in the
        // current format, which reopens with the same state.
        assert_eq!(d.insert(grid_point(20)).unwrap(), 20);
        d.checkpoint().unwrap();
        drop(d);
        let snap = vfs.read(&snapshot_path(&dir.join("shard-0"), 1)).unwrap();
        assert_eq!(&snap[..8], b"NNCELL03");
        let d = ShardedIndex::open_durable_existing_with_vfs(Arc::clone(&vfs), &dir).unwrap();
        assert_eq!(d.len(), reference.len() + 1);
        assert_self_consistent_sharded(&d);
    }

    /// Queries of a sharded index agree with a scan over all its shards'
    /// live points (distances; ids are global).
    fn assert_self_consistent_sharded(idx: &ShardedIndex) {
        let live: Vec<Point> = (0..idx.num_shards())
            .flat_map(|i| {
                let shard = idx.shard(i);
                (0..shard.points().len())
                    .filter(|&j| shard.is_live(j))
                    .map(|j| shard.points()[j].clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        for k in 0..30 {
            let q = vec![(k as f64 * 7.3) % 1.0, (k as f64 * 3.7) % 1.0];
            let got = idx.query(&Query::nn(q.clone())).unwrap().best;
            let want = linear_scan_nn(&live, &q).unwrap();
            assert_eq!(got.dist.to_bits(), want.dist.to_bits(), "q={q:?}");
        }
    }

    #[test]
    fn std_vfs_full_cycle_on_real_files() {
        let dir = std::env::temp_dir().join(format!("nncell_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let d = ShardedIndex::open_durable(&dir, 2, 1, cfg()).unwrap();
        for i in 0..12 {
            d.insert(grid_point(i)).unwrap();
        }
        assert!(d.remove(5).unwrap());
        d.flush().unwrap();
        d.checkpoint().unwrap();
        d.insert(grid_point(12)).unwrap();
        drop(d); // crash after one post-checkpoint insert

        let d = ShardedIndex::open_durable(&dir, 2, 1, cfg()).unwrap();
        assert_eq!(d.len(), 12);
        assert!(!d.shard(0).is_live(5));
        assert_eq!(d.recovery()[0].replayed, 1);
        assert_self_consistent(&d);
        d.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
