//! Epoch-published roots for the VM's security configuration.
//!
//! The policy and the security manager used to live behind single
//! `RwLock`s that every access check read-locked and every reload
//! write-locked. Under an exec storm the root becomes the hottest lock in
//! the VM, and with a fair rwlock one queued writer stalls every subsequent
//! reader behind it (writer-starvation turned reader-starvation). The
//! [`EpochCell`] here replaces that: readers clone the published `Arc` out
//! of a per-thread *stripe*, and a publisher rewrites all stripes in turn
//! without ever queueing behind the read side.
//!
//! Concretely, the cell holds `STRIPES` copies of the published
//! `Option<Arc<T>>`, each behind its own mutex. A reader locks only the
//! stripe assigned to its thread (one thread-local read + one uncontended
//! lock + one refcount increment), so readers on different threads never
//! touch the same lock and a reload never waits on more than one in-flight
//! clone per stripe. A publisher serializes against other publishers, then
//! installs the new value stripe by stripe; when [`EpochCell::store`]
//! returns, every subsequent [`EpochCell::load`] observes the new value.
//!
//! During publication a reader may still observe the *previous* value from
//! a not-yet-rewritten stripe. That window is sound for the security roots
//! because of the decision-cache discipline: `access_check` captures the
//! cache epoch **before** consulting the policy, and every
//! `set_policy`/`set_security_manager` bumps the epoch only **after** its
//! `store` completes. (The running user is not a root: `access_check`
//! reads it from the calling thread's `AppContext`, and it keys every
//! cached decision, so a `setUser` needs no epoch.) A walk that read the old value
//! therefore captured a pre-bump epoch, and its cache insert can never
//! serve a post-reload lookup.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Stripe count; a power of two. Eight stripes keep eight concurrently
/// checking threads off each other's cache lines without making a reload
/// rewrite an unreasonable number of slots.
const STRIPES: usize = 8;

static NEXT_READER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The stripe this thread reads from, assigned round-robin on first
    /// use so concurrent readers spread across the stripes.
    static READER_STRIPE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn reader_stripe() -> usize {
    READER_STRIPE.with(|slot| match slot.get() {
        Some(idx) => idx,
        None => {
            let idx = NEXT_READER.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            slot.set(Some(idx));
            idx
        }
    })
}

/// A striped, epoch-published `Option<Arc<T>>` cell: lock-free-read in the
/// sense that readers never contend with each other or queue behind a
/// publisher — see the module docs for the protocol and its interaction
/// with the decision cache.
pub(crate) struct EpochCell<T: ?Sized> {
    stripes: [Mutex<Option<Arc<T>>>; STRIPES],
    /// Serializes publishers; never taken by readers.
    writer: Mutex<()>,
    /// Completed publications, for tests and diagnostics.
    version: AtomicU64,
}

impl<T: ?Sized> EpochCell<T> {
    /// Creates a cell publishing `initial`.
    pub(crate) fn new(initial: Option<Arc<T>>) -> EpochCell<T> {
        EpochCell {
            stripes: std::array::from_fn(|_| Mutex::new(initial.clone())),
            writer: Mutex::new(()),
            version: AtomicU64::new(0),
        }
    }

    /// Clones the published value out of the calling thread's stripe.
    pub(crate) fn load(&self) -> Option<Arc<T>> {
        self.stripes[reader_stripe()].lock().clone()
    }

    /// Publishes `value`. Once this returns, every subsequent
    /// [`EpochCell::load`] on any thread observes it. Publishers serialize
    /// with each other but never queue behind readers: each stripe lock is
    /// only ever held for the duration of one `Arc` clone.
    pub(crate) fn store(&self, value: Option<Arc<T>>) {
        let _publish = self.writer.lock();
        for stripe in &self.stripes {
            *stripe.lock() = value.clone();
        }
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Number of completed publications.
    #[cfg(test)]
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn load_sees_the_initial_and_stored_values() {
        let cell: EpochCell<u32> = EpochCell::new(Some(Arc::new(1)));
        assert_eq!(cell.load().as_deref(), Some(&1));
        cell.store(Some(Arc::new(2)));
        assert_eq!(cell.load().as_deref(), Some(&2));
        cell.store(None);
        assert!(cell.load().is_none());
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn empty_cell_loads_none() {
        let cell: EpochCell<String> = EpochCell::new(None);
        assert!(cell.load().is_none());
    }

    #[test]
    fn unsized_values_are_supported() {
        type Resolver = dyn Fn() -> u32 + Send + Sync;
        let cell: EpochCell<Resolver> = EpochCell::new(None);
        cell.store(Some(Arc::new(|| 7)));
        assert_eq!(cell.load().map(|f| f()), Some(7));
    }

    #[test]
    fn every_thread_observes_a_completed_store() {
        let cell: Arc<EpochCell<u64>> = Arc::new(EpochCell::new(Some(Arc::new(0))));
        cell.store(Some(Arc::new(42)));
        let handles: Vec<_> = (0..2 * STRIPES)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || *cell.load().expect("published"))
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 42);
        }
    }

    #[test]
    fn stores_complete_while_readers_hammer_the_cell() {
        // The writer-starvation regression: with a fair rwlock, spinning
        // readers can keep a writer queued indefinitely. Here publications
        // must keep completing under sustained read pressure.
        let cell: Arc<EpochCell<u64>> = Arc::new(EpochCell::new(Some(Arc::new(0))));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..8)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let seen = *cell.load().expect("published");
                        assert!(seen >= last, "published values are monotone");
                        last = seen;
                    }
                })
            })
            .collect();
        let started = Instant::now();
        for i in 1..=100 {
            cell.store(Some(Arc::new(i)));
        }
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(cell.version(), 100);
        assert!(
            elapsed < Duration::from_secs(5),
            "100 publications took {elapsed:?} under read pressure"
        );
    }
}
