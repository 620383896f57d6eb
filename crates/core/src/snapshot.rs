//! Copy-on-write snapshot handle — a hand-rolled `Arc`-swap.
//!
//! The sharded serving layer ([`crate::ShardedIndex`]) needs readers to
//! proceed concurrently with writers without ever observing a
//! half-mutated index. The protocol is copy-on-write publication: the
//! folder clones the published index, applies a batch of writes, and
//! *publishes* the new version by swapping an `Arc`; readers grab the
//! current `Arc` once and run the whole query on that immutable version.
//!
//! With no external dependencies available, the swap is built from a
//! `Mutex<Arc<T>>` held only for the duration of an `Arc` clone or
//! store — a handful of nanoseconds, never across a query or a build.
//! Readers therefore never block on index mutation work, only on the
//! pointer exchange itself (the same guarantee a lock-free `ArcSwap`
//! gives, minus the last few nanoseconds of the load — irrelevant next
//! to a millisecond-scale LP-backed query).

use std::sync::{Arc, Mutex};

/// A shared slot holding the current published version of a value.
///
/// [`SnapshotCell::load`] returns the version current at the call
/// instant; a concurrent [`SnapshotCell::store`] affects only later
/// loads. Loaded `Arc`s keep their version alive for as long as the
/// reader holds them, so a publish never invalidates an in-flight read.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// A cell publishing `value` as the initial version.
    pub fn new(value: T) -> Self {
        Self {
            slot: Mutex::new(Arc::new(value)),
        }
    }

    /// The currently published version. Lock-clone-unlock: the mutex is
    /// held only for the `Arc` refcount bump.
    pub fn load(&self) -> Arc<T> {
        let guard = match self.slot.lock() {
            Ok(g) => g,
            // A poisoned slot still holds a valid Arc (stores are a single
            // assignment); serving reads beats propagating the panic.
            Err(p) => p.into_inner(),
        };
        Arc::clone(&guard)
    }

    /// Publishes `next` as the new current version. Readers holding a
    /// previously loaded `Arc` are unaffected.
    pub fn store(&self, next: Arc<T>) {
        let mut guard = match self.slot.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *guard = next;
    }

    /// Mutates the published version in place when no reader holds it,
    /// or publishes a mutated clone otherwise (`Arc::make_mut`). Stores
    /// serialize behind the slot mutex for the duration of `f`.
    pub(crate) fn update(&self, f: impl FnOnce(&mut T))
    where
        T: Clone,
    {
        let mut guard = match self.slot.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        f(Arc::make_mut(&mut guard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn load_returns_last_store() {
        let cell = SnapshotCell::new(1u64);
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn readers_keep_their_version_across_a_publish() {
        let cell = SnapshotCell::new(String::from("v0"));
        let held = cell.load();
        cell.store(Arc::new(String::from("v1")));
        assert_eq!(*held, "v0", "an in-flight read survives the publish");
        assert_eq!(*cell.load(), "v1");
    }

    /// The one way the slot mutex can actually poison: `store` drops the
    /// *previous* version while holding the guard, and a panicking `Drop`
    /// unwinds through the lock. The cell must keep serving: the slot
    /// still holds a valid `Arc` (the store's single assignment completed
    /// or never started), so `load` and later `store`s take over the
    /// poisoned lock instead of propagating the panic.
    #[test]
    fn poisoned_cell_still_loads_and_stores() {
        struct Grenade {
            armed: bool,
            version: u64,
        }
        impl Drop for Grenade {
            fn drop(&mut self) {
                if self.armed && !std::thread::panicking() {
                    panic!("drop of displaced version panics under the slot lock");
                }
            }
        }

        let cell = SnapshotCell::new(Grenade {
            armed: true,
            version: 0,
        });
        // No reader holds v0, so publishing v1 drops v0 inside `store`,
        // panicking while the guard is held and poisoning the mutex.
        let publish = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.store(Arc::new(Grenade {
                armed: false,
                version: 1,
            }));
        }));
        assert!(publish.is_err(), "the displaced version's drop must panic");

        // Reads after the poisoning panic still serve the published value.
        let held = cell.load();
        assert_eq!(held.version, 1, "poisoned cell serves the last publish");

        // The single writer also recovers: a later publish succeeds and
        // becomes visible, with the earlier reader unaffected.
        cell.store(Arc::new(Grenade {
            armed: false,
            version: 2,
        }));
        assert_eq!(cell.load().version, 2);
        assert_eq!(held.version, 1, "in-flight read survives the publish");
    }

    #[test]
    fn concurrent_loads_and_stores_only_see_published_versions() {
        // Versions are monotonically numbered; a reader must never see a
        // number going backwards relative to its own previous load.
        let cell = Arc::new(SnapshotCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "version went backwards: {v} < {last}");
                        last = v;
                    }
                });
            }
            for v in 1..=2_000u64 {
                cell.store(Arc::new(v));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*cell.load(), 2_000);
    }
}
