//! Per-thread publication of the current call location for the sampling
//! profiler.
//!
//! Each thread that executes attributable code owns a
//! [`ThreadLoc`](jmp_obs::ThreadLoc) slot registered with the VM's
//! [`Profiler`]. A frame transition pushes or pops one interned label id in
//! place ([`ThreadLoc::push`]/[`ThreadLoc::pop`]): a few plain stores,
//! whatever the depth, with no lock, no allocation and no refcount that
//! another thread touches. The profiler's sampler thread reads a coherent
//! stack at any instant through the slot's sequence count, without
//! stopping the world.
//!
//! Frames come from two places: [`crate::stack::call_as`] publishes the
//! class name of natively-executing library code ([`frame`], interned
//! through a per-thread cache), and the `jbc` interpreter publishes
//! `Class.method` per interpreted call through the slot [`thread_slot`]
//! hands it. Pushing is gated on [`Profiler::sampling_enabled`] (one atomic
//! load) and is a no-op on threads with no reachable profiler; a frame
//! pushed while sampling was on is popped even if sampling is off by then.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use jmp_obs::{Profiler, ThreadLoc};

/// Class labels one thread caches for [`frame`]; past this the cache starts
/// over (the profiler keeps its ids, so re-interning costs a lookup).
const CACHED_LABELS: usize = 1024;

enum LocState {
    /// No profiler resolved on this thread yet; each push retries, so a
    /// thread that later enters a VM starts publishing.
    Unresolved,
    /// Registered with the profiler.
    Active {
        profiler: Profiler,
        slot: Arc<ThreadLoc>,
        /// `call_as` class labels already interned with `profiler`.
        labels: HashMap<Box<str>, u32>,
    },
}

thread_local! {
    static LOC: RefCell<LocState> = const { RefCell::new(LocState::Unresolved) };
}

/// Runs `f` on the thread's registered profiler and slot, registering them
/// first if need be. `hint` supplies a profiler when no VM is current on the
/// thread (benches, embedding); otherwise the ambient
/// [`Vm::current`](crate::Vm::current) profiler is used. `None` when no
/// profiler is reachable.
fn with_active<R>(
    hint: Option<&Profiler>,
    f: impl FnOnce(&Profiler, &Arc<ThreadLoc>, &mut HashMap<Box<str>, u32>) -> R,
) -> Option<R> {
    LOC.with(|loc| {
        let mut state = loc.borrow_mut();
        if let LocState::Unresolved = &*state {
            let profiler = hint
                .cloned()
                .or_else(|| crate::Vm::current().map(|vm| vm.obs().profiler().clone()))?;
            let app = crate::thread::current_app_context().map(|ctx| ctx.app_id());
            let slot = profiler.register_thread(app);
            *state = LocState::Active {
                profiler,
                slot,
                labels: HashMap::new(),
            };
        }
        match &mut *state {
            LocState::Active {
                profiler,
                slot,
                labels,
            } => Some(f(profiler, slot, labels)),
            LocState::Unresolved => None,
        }
    })
}

/// The thread's profiler and slot, for a publisher that pushes many
/// frames (the interpreter takes them once per run). `None` when no
/// profiler is reachable.
pub(crate) fn thread_slot(hint: Option<&Profiler>) -> Option<(Profiler, Arc<ThreadLoc>)> {
    with_active(hint, |profiler, slot, _| {
        (profiler.clone(), Arc::clone(slot))
    })
}

/// Pushes `name` (a class label) onto the thread's published stack,
/// returning a guard that pops it on drop. When no profiler is reachable or
/// sampling is disabled the guard is a no-op.
pub(crate) fn frame(name: &str, hint: Option<&Profiler>) -> FrameGuard {
    let pushed = with_active(hint, |profiler, slot, labels| {
        if !profiler.sampling_enabled() {
            return false;
        }
        let id = match labels.get(name) {
            Some(&id) => id,
            None => {
                if labels.len() >= CACHED_LABELS {
                    labels.clear();
                }
                let id = profiler.intern(name);
                labels.insert(name.into(), id);
                id
            }
        };
        slot.push(id);
        true
    });
    FrameGuard {
        pushed: pushed.unwrap_or(false),
    }
}

/// Drops the thread's location state (spawn-wrapper teardown). The
/// profiler's weak registry entry dies with the slot and is pruned on the
/// next sampling pass.
pub(crate) fn clear() {
    LOC.with(|loc| *loc.borrow_mut() = LocState::Unresolved);
}

/// Pops the frame pushed by [`frame`] when dropped (no-op if nothing was
/// pushed).
pub(crate) struct FrameGuard {
    pushed: bool,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        LOC.with(|loc| {
            if let LocState::Active { slot, .. } = &*loc.borrow() {
                slot.pop();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_publish_and_pop_with_an_explicit_profiler() {
        let profiler = Profiler::new();
        {
            let _a = frame("Outer", Some(&profiler));
            let _b = frame("Outer.inner", Some(&profiler));
            assert!(profiler.sample_once(1_000) >= 1);
            let report = profiler.report();
            assert!(report.vm.stacks.keys().any(|k| k == "Outer;Outer.inner"));
        }
        let (_, slot) = thread_slot(None).expect("registered");
        assert_eq!(slot.depth(), 0, "both guards popped");
        clear();
    }

    #[test]
    fn a_frame_pushed_while_sampling_pops_after_sampling_stops() {
        let profiler = Profiler::new();
        let guard = frame("Held", Some(&profiler));
        let (_, slot) = thread_slot(None).expect("registered");
        assert_eq!(slot.depth(), 1);
        profiler.set_sampling(false);
        let skipped = frame("Skipped", Some(&profiler));
        assert_eq!(slot.depth(), 1, "nothing pushed while sampling is off");
        drop(skipped);
        drop(guard);
        assert_eq!(slot.depth(), 0);
        clear();
    }

    #[test]
    fn no_profiler_means_noop_guards() {
        clear();
        let guard = frame("Nothing", None);
        assert!(!guard.pushed);
    }
}
