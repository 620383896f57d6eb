//! Virtual file system — the seam between persistence and the disk.
//!
//! Everything the persistence layer does to a disk (create, append, read,
//! fsync, rename, directory sync, unlink) goes through the [`Vfs`] trait.
//! Production code uses [`StdVfs`], a thin veneer over `std::fs`. Tests use
//! [`FaultVfs`], a deterministic in-memory file system with an explicit
//! *durability model*: it distinguishes what a live process observes from
//! what would survive a power cut, and it can inject faults — a crash at
//! any chosen syscall, torn writes (a seeded prefix of unsynced bytes
//! survives), fsync failures, and short reads — from a seeded
//! [`FaultSchedule`]. That is what lets the crash-recovery property test
//! kill the "process" at *every* syscall of a workload and prove recovery
//! at each one.
//!
//! The durability model of [`FaultVfs`] mirrors POSIX semantics the way
//! journaling databases assume them:
//!
//! * `write` lands in the page cache (the *volatile* image) — a crash may
//!   keep any prefix of the bytes written since the last `sync` (a torn
//!   write), never a suffix and never reordered bytes;
//! * `sync` on a file makes its *contents* durable, not its name;
//! * a created or renamed *name* becomes durable only when its parent
//!   directory is synced ([`Vfs::sync_dir`]);
//! * `create` over an existing name truncates destructively — the old
//!   contents are gone even on crash. This is exactly the hazard the
//!   tmp+fsync+rename discipline in [`write_atomic`] exists to avoid, and
//!   the model punishes in-place overwriting accordingly.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// One open file: sequential writes plus fsync.
///
/// `Send` so a shard's journal (which owns its WAL file) can sit behind
/// the single-writer mutex of a [`crate::ShardedIndex`] and be driven
/// from any thread.
pub trait VfsFile: Send {
    /// Appends `buf` at the end of the file.
    ///
    /// # Errors
    /// Underlying I/O failures, including injected ones.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Forces the file *contents* to durable storage (`fsync`). Does not
    /// make a newly created name durable — sync the directory for that.
    ///
    /// # Errors
    /// Underlying I/O failures, including injected ones.
    fn sync(&mut self) -> io::Result<()>;
}

/// The file-system operations the persistence layer is allowed to use.
///
/// Object-safe so `Arc<dyn Vfs>` threads through the durable layer
/// ([`crate::durable`]).
pub trait Vfs: Send + Sync {
    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    /// Underlying I/O failures, including injected ones.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens an existing `path` for appending.
    ///
    /// # Errors
    /// Missing file or underlying I/O failures.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Reads the entire file.
    ///
    /// # Errors
    /// Missing file or underlying I/O failures. A [`FaultVfs`] short read
    /// returns a *prefix* without error — callers must treat structural
    /// validation, not byte counts, as the authority on completeness.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Whether `path` currently names a file.
    fn exists(&self, path: &Path) -> bool;

    /// Atomically renames `from` to `to` (replacing `to` if present). The
    /// new name is durable only after [`Vfs::sync_dir`] on the parent.
    ///
    /// # Errors
    /// Missing source or underlying I/O failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Unlinks `path`.
    ///
    /// # Errors
    /// Missing file or underlying I/O failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Makes the name set of `dir` (creations, renames, unlinks) durable.
    ///
    /// # Errors
    /// Underlying I/O failures, including injected ones.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Creates `dir` and its ancestors.
    ///
    /// # Errors
    /// Underlying I/O failures.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// The files directly inside `dir`.
    ///
    /// # Errors
    /// Missing directory or underlying I/O failures.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The parent directory to sync for `path` (`.` for bare file names).
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Writes `bytes` to `path` crash-safely: a sibling temp file is written
/// and fsynced, renamed over `path`, and the directory is synced. A crash
/// at any step leaves either the old file or the new file — never a torn
/// mixture, and never nothing.
///
/// # Errors
/// Underlying I/O failures; on error the destination is untouched (a stale
/// `.tmp` sibling may remain and is ignored/cleaned by readers).
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync()?;
    }
    vfs.rename(&tmp, path)?;
    vfs.sync_dir(parent_dir(path))
}

// ----------------------------------------------------------------------
// StdVfs
// ----------------------------------------------------------------------

/// The production [`Vfs`]: real files via `std::fs`, real `fsync`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories; directory durability is
        // best-effort there. On POSIX this is the real fsync(dirfd).
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// FaultVfs
// ----------------------------------------------------------------------

/// What faults to inject, and when. All decisions derive from `seed` and
/// the explicit op lists, so a failing schedule replays exactly.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Seed for the torn-write and short-read length draws.
    pub seed: u64,
    /// Kill the process at this 0-based syscall index: the op fails with
    /// [`io::ErrorKind::Other`] and every later op fails too. Use
    /// [`FaultVfs::survivor`] afterwards to materialize what a reboot sees.
    pub crash_at_op: Option<u64>,
    /// Syscall indices whose `sync`/`sync_dir` call fails (the process
    /// survives, but nothing new became durable).
    pub fail_sync_ops: Vec<u64>,
    /// Syscall indices whose `read` returns a seeded *prefix* of the file.
    pub short_read_ops: Vec<u64>,
}

impl FaultSchedule {
    /// A fault-free schedule (for op counting and baseline runs).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A schedule that crashes at syscall `op`.
    pub fn crash_at(seed: u64, op: u64) -> Self {
        Self {
            seed,
            crash_at_op: Some(op),
            ..Self::default()
        }
    }
}

/// splitmix64 — the deterministic bit source for torn/short lengths.
/// (No `rand` dependency: nncell-core uses it only in tests otherwise.)
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Default)]
struct Inode {
    /// What the live process reads back (page cache included).
    current: Vec<u8>,
    /// Byte count guaranteed durable by the last successful `sync`.
    synced_len: usize,
}

#[derive(Default)]
struct FaultState {
    inodes: Vec<Inode>,
    /// Name → inode as the live process sees it.
    live: BTreeMap<PathBuf, usize>,
    /// Name → inode as a reboot would see it (committed by `sync_dir`).
    durable: BTreeMap<PathBuf, usize>,
    dirs: std::collections::BTreeSet<PathBuf>,
    ops: u64,
    dead: bool,
    schedule: FaultSchedule,
    rng: u64,
}

impl FaultState {
    /// Advances the syscall clock; injects the scheduled crash.
    fn step(&mut self) -> io::Result<u64> {
        if self.dead {
            return Err(io::Error::other("injected crash: process is dead"));
        }
        let op = self.ops;
        self.ops += 1;
        if self.schedule.crash_at_op == Some(op) {
            self.dead = true;
            return Err(io::Error::other(format!("injected crash at op {op}")));
        }
        Ok(op)
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng);
        mix64(self.rng)
    }

    fn resolve(&self, path: &Path) -> io::Result<usize> {
        self.live
            .get(path)
            .copied()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path:?} not found")))
    }
}

/// Deterministic in-memory [`Vfs`] with fault injection. See the module
/// docs for the durability model. Clones share one file system.
#[derive(Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

fn lock(state: &Arc<Mutex<FaultState>>) -> std::sync::MutexGuard<'_, FaultState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FaultVfs {
    /// An empty file system governed by `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        let rng = schedule.seed ^ 0xa076_1d64_78bd_642f;
        Self {
            state: Arc::new(Mutex::new(FaultState {
                rng,
                schedule,
                ..FaultState::default()
            })),
        }
    }

    /// Total syscalls issued so far (the crash-point space).
    pub fn ops(&self) -> u64 {
        lock(&self.state).ops
    }

    /// Whether the scheduled crash has fired.
    pub fn crashed(&self) -> bool {
        lock(&self.state).dead
    }

    /// Materializes the state a reboot would observe — durable names only,
    /// each file cut to its synced length plus a seeded torn-write prefix
    /// of the unsynced suffix — as a fresh, live [`FaultVfs`] governed by
    /// `schedule`. Deterministic for a given (seed, crash op) pair.
    pub fn survivor(&self, schedule: FaultSchedule) -> FaultVfs {
        let mut st = lock(&self.state);
        let mut inodes = Vec::new();
        let mut durable = BTreeMap::new();
        // Deterministic iteration (BTreeMap) keeps torn-length draws stable.
        let entries: Vec<(PathBuf, usize)> =
            st.durable.iter().map(|(p, &i)| (p.clone(), i)).collect();
        for (path, ino) in entries {
            let inode = st.inodes[ino].clone();
            let unsynced = inode.current.len() - inode.synced_len;
            let torn = if unsynced == 0 {
                0
            } else {
                (st.next_u64() % (unsynced as u64 + 1)) as usize
            };
            let mut current = inode.current;
            current.truncate(inode.synced_len + torn);
            let id = inodes.len();
            inodes.push(Inode {
                synced_len: current.len(),
                current,
            });
            durable.insert(path, id);
        }
        let rng = schedule.seed ^ mix64(st.ops);
        FaultVfs {
            state: Arc::new(Mutex::new(FaultState {
                live: durable.clone(),
                durable,
                inodes,
                dirs: st.dirs.clone(),
                ops: 0,
                dead: false,
                schedule,
                rng,
            })),
        }
    }
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    ino: usize,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.step()?;
        st.inodes[self.ino].current.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = lock(&self.state);
        let op = st.step()?;
        if st.schedule.fail_sync_ops.contains(&op) {
            return Err(io::Error::other(format!("injected fsync failure at op {op}")));
        }
        st.inodes[self.ino].synced_len = st.inodes[self.ino].current.len();
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = lock(&self.state);
        st.step()?;
        let ino = st.inodes.len();
        st.inodes.push(Inode::default());
        st.live.insert(path.to_path_buf(), ino);
        // O_TRUNC of an existing durable name destroys the old contents
        // immediately — the new (empty, unsynced) inode takes its place in
        // the durable namespace too. A brand-new name stays volatile until
        // the directory is synced.
        if st.durable.contains_key(path) {
            st.durable.insert(path.to_path_buf(), ino);
        }
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            ino,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = lock(&self.state);
        st.step()?;
        let ino = st.resolve(path)?;
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            ino,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = lock(&self.state);
        let op = st.step()?;
        let ino = st.resolve(path)?;
        let mut bytes = st.inodes[ino].current.clone();
        if st.schedule.short_read_ops.contains(&op) && !bytes.is_empty() {
            let keep = (st.next_u64() % bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        Ok(bytes)
    }

    fn exists(&self, path: &Path) -> bool {
        let st = lock(&self.state);
        !st.dead && (st.live.contains_key(path) || st.dirs.contains(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.step()?;
        let ino = st.resolve(from)?;
        st.live.remove(from);
        st.live.insert(to.to_path_buf(), ino);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.step()?;
        st.resolve(path)?;
        st.live.remove(path);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        let op = st.step()?;
        if st.schedule.fail_sync_ops.contains(&op) {
            return Err(io::Error::other(format!("injected fsync failure at op {op}")));
        }
        // Commit this directory's live name set to the durable namespace:
        // creations, renames, and unlinks all become crash-visible.
        let live: Vec<(PathBuf, usize)> = st
            .live
            .iter()
            .filter(|(p, _)| parent_dir(p) == dir)
            .map(|(p, &i)| (p.clone(), i))
            .collect();
        let stale: Vec<PathBuf> = st
            .durable
            .keys()
            .filter(|p| parent_dir(p) == dir && !st.live.contains_key(*p))
            .cloned()
            .collect();
        for p in stale {
            st.durable.remove(&p);
        }
        for (p, i) in live {
            st.durable.insert(p, i);
        }
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.step()?;
        st.dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut st = lock(&self.state);
        st.step()?;
        Ok(st
            .live
            .keys()
            .filter(|p| parent_dir(p) == dir)
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn unsynced_writes_may_tear_on_crash() {
        let vfs = FaultVfs::new(FaultSchedule::none(1));
        vfs.create_dir_all(&p("/db")).unwrap();
        let mut f = vfs.create(&p("/db/a")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(&p("/db")).unwrap();
        f.write_all(b"-volatile").unwrap();
        drop(f);
        let after = vfs.survivor(FaultSchedule::none(2));
        let bytes = after.read(&p("/db/a")).unwrap();
        // The synced prefix always survives; the unsynced suffix may tear
        // anywhere but never reorders.
        assert!(bytes.starts_with(b"durable"), "{bytes:?}");
        assert!(bytes.len() <= b"durable-volatile".len());
        assert_eq!(&bytes[..], &b"durable-volatile"[..bytes.len()]);
    }

    #[test]
    fn unsynced_directory_entries_vanish_on_crash() {
        let vfs = FaultVfs::new(FaultSchedule::none(3));
        vfs.create_dir_all(&p("/db")).unwrap();
        let mut f = vfs.create(&p("/db/new")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync().unwrap(); // file contents durable, name is not
        drop(f);
        let after = vfs.survivor(FaultSchedule::none(4));
        assert!(!after.exists(&p("/db/new")), "unsynced name survived");
    }

    #[test]
    fn rename_without_dir_sync_is_volatile_with_it_durable() {
        let vfs = FaultVfs::new(FaultSchedule::none(5));
        vfs.create_dir_all(&p("/db")).unwrap();
        for (name, content) in [("CURRENT", "old"), ("CURRENT.tmp", "new")] {
            let mut f = vfs.create(&p(&format!("/db/{name}"))).unwrap();
            f.write_all(content.as_bytes()).unwrap();
            f.sync().unwrap();
        }
        vfs.sync_dir(&p("/db")).unwrap();
        vfs.rename(&p("/db/CURRENT.tmp"), &p("/db/CURRENT")).unwrap();

        // Crash before the directory sync: the old name mapping survives.
        let before = vfs.survivor(FaultSchedule::none(6));
        assert_eq!(before.read(&p("/db/CURRENT")).unwrap(), b"old");
        assert!(before.exists(&p("/db/CURRENT.tmp")));

        // After the directory sync the rename is committed.
        vfs.sync_dir(&p("/db")).unwrap();
        let after = vfs.survivor(FaultSchedule::none(7));
        assert_eq!(after.read(&p("/db/CURRENT")).unwrap(), b"new");
        assert!(!after.exists(&p("/db/CURRENT.tmp")));
    }

    #[test]
    fn in_place_truncation_destroys_old_contents() {
        let vfs = FaultVfs::new(FaultSchedule::none(8));
        vfs.create_dir_all(&p("/db")).unwrap();
        let mut f = vfs.create(&p("/db/a")).unwrap();
        f.write_all(b"precious").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(&p("/db")).unwrap();
        // The hazard write_atomic avoids: re-creating the same name.
        let _clobber = vfs.create(&p("/db/a")).unwrap();
        let after = vfs.survivor(FaultSchedule::none(9));
        assert_ne!(
            after.read(&p("/db/a")).unwrap(),
            b"precious",
            "O_TRUNC must not preserve the old file"
        );
    }

    #[test]
    fn write_atomic_survives_crash_at_every_op_with_old_or_new() {
        // Count the fault-free ops first, then crash at each one.
        let count = {
            let vfs = FaultVfs::new(FaultSchedule::none(10));
            setup_old(&vfs);
            let base = vfs.ops();
            write_atomic(&vfs, &p("/db/f"), b"NEW").unwrap();
            (base, vfs.ops())
        };
        for k in count.0..count.1 {
            let vfs = FaultVfs::new(FaultSchedule::crash_at(10, k));
            setup_old(&vfs);
            let res = write_atomic(&vfs, &p("/db/f"), b"NEW");
            assert!(res.is_err(), "crash at op {k} must surface");
            let after = vfs.survivor(FaultSchedule::none(11));
            let bytes = after.read(&p("/db/f")).unwrap();
            assert!(
                bytes == b"OLD" || bytes == b"NEW",
                "crash at op {k}: torn destination {bytes:?}"
            );
        }

        fn setup_old(vfs: &FaultVfs) {
            vfs.create_dir_all(&p("/db")).unwrap();
            let mut f = vfs.create(&p("/db/f")).unwrap();
            f.write_all(b"OLD").unwrap();
            f.sync().unwrap();
            vfs.sync_dir(&p("/db")).unwrap();
        }
    }

    #[test]
    fn injected_fsync_failure_is_an_error_not_durability() {
        let vfs = FaultVfs::new(FaultSchedule::none(12));
        vfs.create_dir_all(&p("/db")).unwrap();
        let mut f = vfs.create(&p("/db/a")).unwrap();
        f.write_all(b"abc").unwrap();
        // Find the op index of the sync by counting: ops so far +1 is it.
        let sync_op = vfs.ops();
        drop(f);
        let vfs = FaultVfs::new(FaultSchedule {
            seed: 12,
            fail_sync_ops: vec![sync_op],
            ..FaultSchedule::default()
        });
        vfs.create_dir_all(&p("/db")).unwrap();
        let mut f = vfs.create(&p("/db/a")).unwrap();
        f.write_all(b"abc").unwrap();
        assert!(f.sync().is_err(), "scheduled fsync failure");
        // The process survives and can retry.
        f.sync().unwrap();
    }

    #[test]
    fn short_reads_return_a_prefix() {
        let vfs = FaultVfs::new(FaultSchedule::none(13));
        let mut f = vfs.create(&p("a")).unwrap();
        f.write_all(b"0123456789").unwrap();
        drop(f);
        let read_op = vfs.ops();
        let vfs2 = FaultVfs::new(FaultSchedule {
            seed: 13,
            short_read_ops: vec![read_op],
            ..FaultSchedule::default()
        });
        let mut f = vfs2.create(&p("a")).unwrap();
        f.write_all(b"0123456789").unwrap();
        drop(f);
        let bytes = vfs2.read(&p("a")).unwrap();
        assert!(bytes.len() < 10, "short read must truncate");
        assert_eq!(&bytes[..], &b"0123456789"[..bytes.len()]);
        // Same schedule, same result: determinism.
        let vfs3 = FaultVfs::new(FaultSchedule {
            seed: 13,
            short_read_ops: vec![read_op],
            ..FaultSchedule::default()
        });
        let mut f = vfs3.create(&p("a")).unwrap();
        f.write_all(b"0123456789").unwrap();
        drop(f);
        assert_eq!(vfs3.read(&p("a")).unwrap(), bytes);
    }

    #[test]
    fn std_vfs_atomic_write_roundtrips() {
        let dir = std::env::temp_dir().join(format!("nncell_vfs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        write_atomic(&StdVfs, &path, b"one").unwrap();
        assert_eq!(StdVfs.read(&path).unwrap(), b"one");
        write_atomic(&StdVfs, &path, b"two").unwrap();
        assert_eq!(StdVfs.read(&path).unwrap(), b"two");
        assert!(StdVfs.list_dir(&dir).unwrap().contains(&path));
        StdVfs.remove_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
