use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::VmError;
use crate::thread::ThreadId;
use crate::Result;

static NEXT_GROUP_ID: AtomicU64 = AtomicU64::new(1);

/// The sweep threshold's floor: a parent with few live children sweeps
/// once it holds twice this many entries, not on every push.
const MIN_CHILDREN_SWEPT: usize = 8;

/// A hook run when a group's subtree runs out of non-daemon threads (see
/// [`ThreadGroup::set_empty_hook`]).
pub(crate) type EmptyHook = Arc<dyn Fn() + Send + Sync>;

/// Identifier of a [`ThreadGroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tg:{}", self.0)
    }
}

#[derive(Default)]
struct GroupState {
    /// Thread ids registered directly in this group.
    local_threads: HashSet<ThreadId>,
    /// Non-daemon threads in this group's entire subtree.
    nondaemon_in_subtree: usize,
    /// All threads (daemon + non-daemon) in this group's subtree.
    threads_in_subtree: usize,
    /// Child groups (weak: a group dies when its last handle drops). Dead
    /// entries are swept when a push finds the vector doubled since the
    /// last sweep, so it stays proportional to the live children.
    children: Vec<Weak<GroupInner>>,
    /// `children.len()` right after the last sweep.
    children_swept: usize,
    /// Destroyed groups accept no new threads or children.
    destroyed: bool,
    /// Invoked (outside the lock) when `nondaemon_in_subtree` falls to zero.
    empty_hook: Option<EmptyHook>,
}

struct GroupInner {
    id: GroupId,
    name: String,
    parent: Option<ThreadGroup>,
    state: Mutex<GroupState>,
    nondaemon_zero: Condvar,
}

/// A node in the thread-group tree.
///
/// This is the paper's unit of application identity: "we define an
/// application to be a set of threads", delimited by a thread group; "the new
/// application is allowed to create threads only in its own thread group"
/// (paper §5.1, Fig 3). Groups count the non-daemon threads in their subtree,
/// which gives both the JVM-exit rule (Fig 1, on the root group) and the
/// application-exit rule (paper Feature 1, on the application's group).
///
/// `ThreadGroup` is a cheap handle; clones refer to the same group.
#[derive(Clone)]
pub struct ThreadGroup {
    inner: Arc<GroupInner>,
}

impl ThreadGroup {
    /// Creates a root group (no parent).
    pub fn new_root(name: impl Into<String>) -> ThreadGroup {
        ThreadGroup {
            inner: Arc::new(GroupInner {
                id: GroupId(NEXT_GROUP_ID.fetch_add(1, Ordering::Relaxed)),
                name: name.into(),
                parent: None,
                state: Mutex::new(GroupState::default()),
                nondaemon_zero: Condvar::new(),
            }),
        }
    }

    /// Creates a child group of `self`.
    ///
    /// # Errors
    ///
    /// [`VmError::IllegalState`] if this group has been destroyed.
    pub fn new_child(&self, name: impl Into<String>) -> Result<ThreadGroup> {
        let child = ThreadGroup {
            inner: Arc::new(GroupInner {
                id: GroupId(NEXT_GROUP_ID.fetch_add(1, Ordering::Relaxed)),
                name: name.into(),
                parent: Some(self.clone()),
                state: Mutex::new(GroupState::default()),
                nondaemon_zero: Condvar::new(),
            }),
        };
        let mut state = self.inner.state.lock();
        if state.destroyed {
            return Err(VmError::illegal_state(format!(
                "thread group {} is destroyed",
                self.inner.name
            )));
        }
        if state.children.len() >= 2 * state.children_swept.max(MIN_CHILDREN_SWEPT) {
            state.children.retain(|child| child.strong_count() > 0);
            state.children_swept = state.children.len();
        }
        state.children.push(Arc::downgrade(&child.inner));
        Ok(child)
    }

    /// The group's identifier.
    pub fn id(&self) -> GroupId {
        self.inner.id
    }

    /// The group's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The parent group, if any.
    pub fn parent(&self) -> Option<&ThreadGroup> {
        self.inner.parent.as_ref()
    }

    /// Returns `true` if `self` and `other` are the same group.
    pub fn same_group(&self, other: &ThreadGroup) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Returns `true` if `self` is `other` or an ancestor of `other` — the
    /// relation the paper's system security manager bases thread and
    /// thread-group access on (§5.6).
    pub fn is_ancestor_of(&self, other: &ThreadGroup) -> bool {
        let mut cursor = Some(other.clone());
        while let Some(group) = cursor {
            if self.same_group(&group) {
                return true;
            }
            cursor = group.inner.parent.clone();
        }
        false
    }

    /// Registers a thread in this group, updating subtree counts up the
    /// ancestor chain. Low-level bookkeeping: [`crate::Vm`]'s thread spawner
    /// calls this; it is public for alternative runtimes layered on the
    /// group tree (and for property tests over the counting invariants).
    ///
    /// # Errors
    ///
    /// [`VmError::IllegalState`] if the group is destroyed.
    pub fn register_thread(&self, id: ThreadId, daemon: bool) -> Result<()> {
        {
            let mut state = self.inner.state.lock();
            if state.destroyed {
                return Err(VmError::illegal_state(format!(
                    "thread group {} is destroyed",
                    self.inner.name
                )));
            }
            state.local_threads.insert(id);
        }
        let mut cursor = Some(self.clone());
        while let Some(group) = cursor {
            let mut state = group.inner.state.lock();
            state.threads_in_subtree += 1;
            if !daemon {
                state.nondaemon_in_subtree += 1;
            }
            cursor = group.inner.parent.clone();
        }
        Ok(())
    }

    /// Removes a thread from this group, updating counts and firing
    /// empty-hooks / waking waiters on groups whose non-daemon count reaches
    /// zero. Low-level counterpart of [`ThreadGroup::register_thread`].
    pub fn deregister_thread(&self, id: ThreadId, daemon: bool) {
        // Hooks run outside all group locks: they typically schedule
        // application teardown, which itself takes group locks.
        for hook in self.release_thread(id, daemon) {
            hook();
        }
    }

    /// The bookkeeping half of [`ThreadGroup::deregister_thread`]: removes
    /// the thread and updates the counts, but returns the empty hooks due
    /// instead of running them, for a caller that must first drop its own
    /// group handles (the exiting thread itself).
    pub(crate) fn release_thread(&self, id: ThreadId, daemon: bool) -> Vec<EmptyHook> {
        self.inner.state.lock().local_threads.remove(&id);
        let mut hooks = Vec::new();
        let mut cursor = Some(self.clone());
        while let Some(group) = cursor {
            {
                let mut state = group.inner.state.lock();
                state.threads_in_subtree = state.threads_in_subtree.saturating_sub(1);
                if !daemon {
                    state.nondaemon_in_subtree = state.nondaemon_in_subtree.saturating_sub(1);
                    if state.nondaemon_in_subtree == 0 {
                        group.inner.nondaemon_zero.notify_all();
                        if let Some(hook) = &state.empty_hook {
                            hooks.push(Arc::clone(hook));
                        }
                    }
                }
            }
            cursor = group.inner.parent.clone();
        }
        hooks
    }

    /// Installs a hook invoked whenever the subtree's non-daemon count drops
    /// to zero. The multi-processing layer uses this for the paper's rule
    /// "the JVM will call the exit method as soon as there are only daemon
    /// threads left in the application's thread group" (§5.1).
    pub fn set_empty_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        self.inner.state.lock().empty_hook = Some(hook);
    }

    /// Non-daemon threads currently in this group's subtree.
    pub fn nondaemon_count(&self) -> usize {
        self.inner.state.lock().nondaemon_in_subtree
    }

    /// All threads currently in this group's subtree.
    pub fn thread_count(&self) -> usize {
        self.inner.state.lock().threads_in_subtree
    }

    /// Thread ids registered directly in this group (not in children).
    pub fn local_thread_ids(&self) -> Vec<ThreadId> {
        let mut ids: Vec<ThreadId> = self
            .inner
            .state
            .lock()
            .local_threads
            .iter()
            .copied()
            .collect();
        ids.sort();
        ids
    }

    /// Live child groups.
    pub fn children(&self) -> Vec<ThreadGroup> {
        self.inner
            .state
            .lock()
            .children
            .iter()
            .filter_map(|w| w.upgrade().map(|inner| ThreadGroup { inner }))
            .collect()
    }

    /// Blocks until the subtree's non-daemon count is zero or `timeout`
    /// elapses. Returns `true` if the count reached zero.
    ///
    /// This is a low-level wait without interruption semantics; callers that
    /// must remain interruptible (anything running on a VM thread) should
    /// call it with a short timeout in a loop, checking
    /// [`crate::thread::check_interrupt`] between rounds — which is exactly
    /// what [`crate::Vm::await_termination`] and the application layer do.
    pub fn wait_nondaemon_zero(&self, timeout: Duration) -> bool {
        let mut state = self.inner.state.lock();
        if state.nondaemon_in_subtree == 0 {
            return true;
        }
        self.inner.nondaemon_zero.wait_for(&mut state, timeout);
        state.nondaemon_in_subtree == 0
    }

    /// Marks the group destroyed: no new threads or child groups may be
    /// added. Existing threads are unaffected (stopping them is the
    /// application layer's job).
    pub fn destroy(&self) {
        self.inner.state.lock().destroyed = true;
    }

    /// Returns `true` if [`ThreadGroup::destroy`] has been called.
    pub fn is_destroyed(&self) -> bool {
        self.inner.state.lock().destroyed
    }
}

impl fmt::Debug for ThreadGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("ThreadGroup")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("nondaemon_in_subtree", &state.nondaemon_in_subtree)
            .field("threads_in_subtree", &state.threads_in_subtree)
            .field("destroyed", &state.destroyed)
            .finish()
    }
}

impl fmt::Display for ThreadGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.inner.name, self.inner.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tid(n: u64) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn ancestor_relation() {
        let root = ThreadGroup::new_root("system");
        let main = root.new_child("main").unwrap();
        let app = main.new_child("app-1").unwrap();

        assert!(root.is_ancestor_of(&root));
        assert!(root.is_ancestor_of(&app));
        assert!(main.is_ancestor_of(&app));
        assert!(!app.is_ancestor_of(&main));
        assert!(!main.is_ancestor_of(&root));

        let sibling = main.new_child("app-2").unwrap();
        assert!(!app.is_ancestor_of(&sibling));
        assert!(!sibling.is_ancestor_of(&app));
    }

    #[test]
    fn counts_propagate_to_ancestors() {
        let root = ThreadGroup::new_root("system");
        let app = root.new_child("app").unwrap();

        app.register_thread(tid(1), false).unwrap();
        app.register_thread(tid(2), true).unwrap();
        assert_eq!(app.nondaemon_count(), 1);
        assert_eq!(app.thread_count(), 2);
        assert_eq!(root.nondaemon_count(), 1);
        assert_eq!(root.thread_count(), 2);

        app.deregister_thread(tid(1), false);
        assert_eq!(app.nondaemon_count(), 0);
        assert_eq!(root.nondaemon_count(), 0);
        assert_eq!(root.thread_count(), 1);
    }

    #[test]
    fn daemon_threads_do_not_keep_group_alive() {
        // Fig 1: only non-daemon threads matter for exit.
        let root = ThreadGroup::new_root("system");
        root.register_thread(tid(1), true).unwrap();
        assert!(root.wait_nondaemon_zero(Duration::from_millis(1)));
    }

    #[test]
    fn empty_hook_fires_on_last_nondaemon_exit() {
        let root = ThreadGroup::new_root("system");
        let app = root.new_child("app").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        app.set_empty_hook(Arc::new(move || {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));

        app.register_thread(tid(1), false).unwrap();
        app.register_thread(tid(2), false).unwrap();
        app.deregister_thread(tid(1), false);
        assert_eq!(fired.load(Ordering::SeqCst), 0, "one non-daemon remains");
        app.deregister_thread(tid(2), false);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hook_on_parent_does_not_fire_while_child_has_threads() {
        let root = ThreadGroup::new_root("system");
        let a = root.new_child("a").unwrap();
        let b = root.new_child("b").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        root.set_empty_hook(Arc::new(move || {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));
        a.register_thread(tid(1), false).unwrap();
        b.register_thread(tid(2), false).unwrap();
        a.deregister_thread(tid(1), false);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        b.deregister_thread(tid(2), false);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn destroyed_group_rejects_new_threads_and_children() {
        let root = ThreadGroup::new_root("system");
        let app = root.new_child("app").unwrap();
        app.destroy();
        assert!(app.is_destroyed());
        assert!(app.register_thread(tid(1), false).is_err());
        assert!(app.new_child("sub").is_err());
        // The parent is unaffected.
        root.register_thread(tid(2), false).unwrap();
    }

    #[test]
    fn wait_nondaemon_zero_blocks_until_exit() {
        let root = ThreadGroup::new_root("system");
        root.register_thread(tid(1), false).unwrap();
        assert!(!root.wait_nondaemon_zero(Duration::from_millis(5)));

        let root2 = root.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            root2.deregister_thread(tid(1), false);
        });
        assert!(root.wait_nondaemon_zero(Duration::from_secs(5)));
        handle.join().unwrap();
    }

    #[test]
    fn children_enumeration_sees_live_groups_only() {
        let root = ThreadGroup::new_root("system");
        let _a = root.new_child("a").unwrap();
        {
            let _b = root.new_child("b").unwrap();
            assert_eq!(root.children().len(), 2);
        }
        // `b`'s last handle dropped; the weak ref no longer upgrades.
        assert_eq!(root.children().len(), 1);
        assert_eq!(root.children()[0].name(), "a");
    }

    #[test]
    fn dead_children_are_swept_as_groups_come_and_go() {
        // An application's group is a child of `main` that dies at reap;
        // ten thousand of them must not leave ten thousand dead entries.
        let root = ThreadGroup::new_root("system");
        let kept: Vec<ThreadGroup> = (0..3)
            .map(|i| root.new_child(format!("kept-{i}")).unwrap())
            .collect();
        for i in 0..10_000 {
            drop(root.new_child(format!("app-{i}")).unwrap());
            let entries = root.inner.state.lock().children.len();
            assert!(entries <= 2 * MIN_CHILDREN_SWEPT + 1, "{entries} entries");
        }
        let names: Vec<String> = root
            .children()
            .iter()
            .map(|g| g.name().to_string())
            .collect();
        assert_eq!(names, ["kept-0", "kept-1", "kept-2"]);
        drop(kept);
        assert!(root.children().is_empty());
    }

    #[test]
    fn local_thread_ids_sorted() {
        let g = ThreadGroup::new_root("g");
        g.register_thread(tid(5), false).unwrap();
        g.register_thread(tid(3), true).unwrap();
        assert_eq!(g.local_thread_ids(), vec![tid(3), tid(5)]);
    }
}
