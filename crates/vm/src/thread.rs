use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::context::AppContext;
use crate::error::VmError;
use crate::group::ThreadGroup;
use crate::Result;

/// Identifier of a VM thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t:{}", self.0)
    }
}

/// Poll interval for host-side wait loops that sit outside the interrupt
/// machinery (e.g. [`crate::Vm::await_termination`] rounds). The blocking
/// primitives themselves — event queues, pipes, and since the control-plane
/// scale-out also `sleep`/`join` — do not poll: they block for real and are
/// woken explicitly through an [interrupt waker]
/// (`register_interrupt_waker`). A parked fleet of 10,000 applications
/// sleeping in `jmp_vm::thread::sleep` costs zero wakeups (and, parked on
/// its per-thread sleep channels rather than in futex waits, leaves the
/// kernel's futex tables alone); with the old 5 ms poll it cost 2 million timer
/// fires a second.
pub const BLOCK_POLL: Duration = Duration::from_millis(5);

/// A callback invoked when the thread it is registered on is interrupted.
/// Blocking primitives register one that acquires their state lock and
/// notifies their condition variable, turning cooperative interruption into
/// an immediate wakeup instead of a ≤[`BLOCK_POLL`] poll.
pub type InterruptWaker = Arc<dyn Fn() + Send + Sync>;

/// Process-wide cap on sleep socketpairs (two fds each), sized to leave
/// headroom under common `RLIMIT_NOFILE` settings. Sleepers beyond the cap
/// fall back to bounded nanosleep chunks.
const SLEEP_CHANNEL_CAP: usize = 8_192;

/// Chunk bound for the capped fallback: interruption is observed at the
/// next chunk boundary, comfortably inside the reaper's 2 s join timeout.
const SLEEP_FALLBACK_CHUNK: Duration = Duration::from_millis(500);

/// Live [`SleepChannel`] count against [`SLEEP_CHANNEL_CAP`].
static SLEEP_CHANNELS: AtomicUsize = AtomicUsize::new(0);

/// The parking spot of a sleeping VM thread: a socketpair the sleeper
/// blocks on with a read timeout, and that the interrupt waker writes one
/// byte into to wake it.
///
/// Why not a condition variable: a condvar wait is a futex wait, and a
/// fleet of thousands of threads parked in futexes degrades *every* futex
/// operation in the process — the kernel's futex hash buckets walk long
/// waiter chains, measured here as a condvar handoff going from ~4 µs with
/// an empty fleet to ~170 µs with 10,000 parked sleepers, whichever
/// addresses the waiters park on. Threads blocked in a socket read sit on
/// per-socket wait queues instead and leave the futex tables alone, so the
/// same handoff stays flat at any fleet size. One channel is created per
/// thread on first sleep and lives until the thread dies.
#[cfg(unix)]
struct SleepChannel {
    rx: std::os::unix::net::UnixStream,
    tx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl SleepChannel {
    /// Claims an fd-budget slot and builds the socketpair; `None` when the
    /// cap is reached or the pair cannot be created.
    fn claim() -> Option<Arc<SleepChannel>> {
        SLEEP_CHANNELS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < SLEEP_CHANNEL_CAP).then_some(n + 1)
            })
            .ok()?;
        match std::os::unix::net::UnixStream::pair() {
            Ok((rx, tx)) => {
                // A full buffer must never block the interrupting thread.
                let _ = tx.set_nonblocking(true);
                Some(Arc::new(SleepChannel { rx, tx }))
            }
            Err(_) => {
                SLEEP_CHANNELS.fetch_sub(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Wakes the parked owner (called from the interrupting thread).
    fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1]);
    }

    /// Discards wake bytes from earlier sleeps. The caller re-checks the
    /// interrupt flag *after* draining and before [`Self::block`]: the
    /// interrupter sets the flag before writing, so a wake drained here is
    /// always visible as the flag, and a wake arriving later is a byte the
    /// blocking read returns on.
    fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 16];
        let _ = self.rx.set_nonblocking(true);
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        let _ = self.rx.set_nonblocking(false);
    }

    /// Parks for up to `remaining` or until a wake byte arrives.
    fn block(&self, remaining: Duration) {
        use std::io::Read;
        if self
            .rx
            .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
            .is_err()
        {
            std::thread::sleep(remaining.min(SLEEP_FALLBACK_CHUNK));
            return;
        }
        let mut buf = [0u8; 16];
        match (&self.rx).read(&mut buf) {
            Ok(n) if n > 0 => {}
            Ok(_) => {
                // EOF cannot happen while we hold `tx`; don't spin on it.
                std::thread::sleep(remaining.min(SLEEP_FALLBACK_CHUNK));
            }
            Err(_) => {} // timeout (or EINTR): the caller re-checks the clock
        }
    }
}

#[cfg(unix)]
impl Drop for SleepChannel {
    fn drop(&mut self) {
        SLEEP_CHANNELS.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(not(unix))]
struct SleepChannel;

#[cfg(not(unix))]
impl SleepChannel {
    fn claim() -> Option<Arc<SleepChannel>> {
        None
    }
    fn wake(&self) {}
    fn drain(&self) {}
    fn block(&self, _remaining: Duration) {}
}

#[derive(Debug)]
enum RunState {
    Running,
    /// Finished; `Some(msg)` if the thread body panicked.
    Finished(Option<String>),
}

pub(crate) struct ThreadCtl {
    pub(crate) id: ThreadId,
    pub(crate) name: String,
    pub(crate) daemon: bool,
    pub(crate) group: ThreadGroup,
    /// The owning application's context, set at spawn (inherited from the
    /// spawning thread unless overridden). `None` for system threads.
    pub(crate) app: Option<Arc<AppContext>>,
    interrupted: AtomicBool,
    state: Mutex<RunState>,
    finished: Condvar,
    /// Wakers to invoke on interruption, keyed for O(1)ish removal. The
    /// interrupting thread snapshots the list and calls each waker *after*
    /// releasing this lock, so wakers may freely take their own locks.
    wakers: Mutex<Vec<(u64, InterruptWaker)>>,
    next_waker: AtomicU64,
    /// The thread's sleep parking spot, created on first [`sleep`]. `None`
    /// until then, and stays `None` past [`SLEEP_CHANNEL_CAP`].
    sleep_channel: Mutex<Option<Arc<SleepChannel>>>,
}

impl ThreadCtl {
    pub(crate) fn new(
        id: ThreadId,
        name: String,
        daemon: bool,
        group: ThreadGroup,
        app: Option<Arc<AppContext>>,
    ) -> Arc<ThreadCtl> {
        Arc::new(ThreadCtl {
            id,
            name,
            daemon,
            group,
            app,
            interrupted: AtomicBool::new(false),
            state: Mutex::new(RunState::Running),
            finished: Condvar::new(),
            wakers: Mutex::new(Vec::new()),
            next_waker: AtomicU64::new(1),
            sleep_channel: Mutex::new(None),
        })
    }

    /// The thread's sleep channel, claimed on first use. Re-attempts the
    /// claim on later sleeps if the cap was full the first time.
    fn sleep_channel(&self) -> Option<Arc<SleepChannel>> {
        let mut slot = self.sleep_channel.lock();
        if slot.is_none() {
            *slot = SleepChannel::claim();
        }
        slot.clone()
    }

    fn add_waker(self: &Arc<ThreadCtl>, waker: InterruptWaker) -> u64 {
        let id = self.next_waker.fetch_add(1, Ordering::Relaxed);
        self.wakers.lock().push((id, waker));
        id
    }

    fn remove_waker(&self, id: u64) {
        self.wakers.lock().retain(|(wid, _)| *wid != id);
    }

    pub(crate) fn mark_finished(&self, panic_message: Option<String>) {
        *self.state.lock() = RunState::Finished(panic_message);
        self.finished.notify_all();
    }
}

/// A handle to a thread managed by the runtime.
///
/// VM threads are real OS threads with extra bookkeeping: a [`ThreadGroup`]
/// membership, a daemon flag (Fig 1), and a *cooperative interruption* flag.
/// All blocking runtime primitives are interruption points; a thread blocked
/// in one returns [`VmError::Interrupted`] shortly after
/// interruption — this is how the application layer implements "stop all
/// threads" during teardown (paper §5.1) without unsafe thread killing.
///
/// Handles are cheap clones referring to the same thread.
#[derive(Clone)]
pub struct VmThread {
    ctl: Arc<ThreadCtl>,
}

impl VmThread {
    pub(crate) fn from_ctl(ctl: Arc<ThreadCtl>) -> VmThread {
        VmThread { ctl }
    }

    #[cfg(test)]
    pub(crate) fn ctl(&self) -> &Arc<ThreadCtl> {
        &self.ctl
    }

    /// The thread's id.
    pub fn id(&self) -> ThreadId {
        self.ctl.id
    }

    /// The thread's name.
    pub fn name(&self) -> &str {
        &self.ctl.name
    }

    /// Whether the thread is a daemon (Fig 1: daemon threads do not keep the
    /// VM alive).
    pub fn is_daemon(&self) -> bool {
        self.ctl.daemon
    }

    /// The group the thread belongs to.
    pub fn group(&self) -> &ThreadGroup {
        &self.ctl.group
    }

    /// The application context the thread runs under, if any.
    pub fn app_context(&self) -> Option<Arc<AppContext>> {
        self.ctl.app.clone()
    }

    /// Returns `true` while the thread body is still executing.
    pub fn is_alive(&self) -> bool {
        matches!(*self.ctl.state.lock(), RunState::Running)
    }

    /// Returns `true` if the thread has been interrupted.
    pub fn is_interrupted(&self) -> bool {
        self.ctl.interrupted.load(Ordering::SeqCst)
    }

    /// Sets the interruption flag without any access-control check.
    ///
    /// Public callers go through [`crate::Vm::interrupt_thread`], which first
    /// consults the installed security manager (the paper's system security
    /// manager protects threads of one application from another, §5.6).
    pub(crate) fn interrupt_raw(&self) {
        self.ctl.interrupted.store(true, Ordering::SeqCst);
        // Snapshot outside the lock so wakers may take their own locks
        // (an interrupt waker typically locks a queue/pipe state mutex to
        // close the check-then-wait race before notifying).
        let wakers: Vec<InterruptWaker> = self
            .ctl
            .wakers
            .lock()
            .iter()
            .map(|(_, w)| Arc::clone(w))
            .collect();
        for waker in wakers {
            waker();
        }
    }

    /// Waits for the thread to finish.
    ///
    /// # Errors
    ///
    /// [`VmError::Interrupted`] if the *calling* thread is interrupted while
    /// waiting; [`VmError::ThreadPanicked`] if the joined thread's body
    /// panicked.
    pub fn join(&self) -> Result<()> {
        // Interrupting the *caller* must wake this wait immediately: the
        // waker locks the target's state mutex before notifying, so a
        // notification can never land between the interrupt check below
        // and the wait.
        let target = Arc::clone(&self.ctl);
        let _waker = register_interrupt_waker(Arc::new(move || {
            let _state = target.state.lock();
            target.finished.notify_all();
        }));
        let mut state = self.ctl.state.lock();
        loop {
            match &*state {
                RunState::Finished(None) => return Ok(()),
                RunState::Finished(Some(_)) => {
                    return Err(VmError::ThreadPanicked {
                        thread: self.ctl.name.clone(),
                    })
                }
                RunState::Running => {
                    if current_interrupted() {
                        return Err(VmError::Interrupted);
                    }
                    self.ctl.finished.wait(&mut state);
                }
            }
        }
    }

    /// Waits for the thread to finish, up to `timeout`. Returns `true` if it
    /// finished (even by panicking).
    pub fn join_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.ctl.state.lock();
        loop {
            if matches!(*state, RunState::Finished(_)) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // One wait for the whole remainder: `mark_finished` notifies.
            self.ctl.finished.wait_for(&mut state, deadline - now);
        }
    }
}

impl fmt::Debug for VmThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmThread")
            .field("id", &self.ctl.id)
            .field("name", &self.ctl.name)
            .field("daemon", &self.ctl.daemon)
            .field("group", &self.ctl.group.name())
            .field("alive", &self.is_alive())
            .field("interrupted", &self.is_interrupted())
            .finish()
    }
}

impl fmt::Display for VmThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.ctl.name, self.ctl.id)
    }
}

// ---------------------------------------------------------------------------
// Current-thread state
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<Arc<ThreadCtl>>> = const { RefCell::new(None) };
}

/// Binds `ctl` as the current VM thread for the duration of the returned
/// guard (installed by the spawn wrapper in `vm.rs`).
pub(crate) fn enter_thread(ctl: Arc<ThreadCtl>) -> CurrentGuard {
    CURRENT.with(|c| *c.borrow_mut() = Some(ctl));
    CurrentGuard(())
}

pub(crate) struct CurrentGuard(());

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

/// The current VM thread, or `None` when called from a plain OS thread that
/// the runtime does not manage.
pub fn current() -> Option<VmThread> {
    CURRENT.with(|c| c.borrow().clone().map(VmThread::from_ctl))
}

/// The current VM thread's id, if on a VM thread.
pub fn current_id() -> Option<ThreadId> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctl| ctl.id))
}

/// The application context of the current thread: the single ownership
/// record every layer reads instead of re-deriving app identity through
/// thread→group walks. `None` on system threads and plain OS threads.
pub fn current_app_context() -> Option<Arc<AppContext>> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(|ctl| ctl.app.clone()))
}

/// Returns `true` if the current thread is a VM thread whose interruption
/// flag is set. Plain OS threads are never interrupted.
pub fn current_interrupted() -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|ctl| ctl.interrupted.load(Ordering::SeqCst))
    })
}

/// Fails with [`VmError::Interrupted`] if the current thread has been
/// interrupted. The flag is *not* cleared: once an application is being torn
/// down, every subsequent blocking call should keep failing. (Deviation from
/// Java, where `InterruptedException` clears the flag; stickiness is what
/// teardown wants, and nothing in the paper depends on re-arming.)
///
/// # Errors
///
/// [`VmError::Interrupted`] when the flag is set.
pub fn check_interrupt() -> Result<()> {
    if current_interrupted() {
        Err(VmError::Interrupted)
    } else {
        Ok(())
    }
}

/// Test-only: runs `f` with the calling thread bound to a VM thread whose
/// interruption flag is already set — for asserting that interpreter
/// safepoints observe interruption without cross-thread timing.
#[cfg(test)]
pub(crate) fn with_interrupted_for_test<T>(f: impl FnOnce() -> T) -> T {
    let ctl = ThreadCtl::new(
        ThreadId(u64::MAX),
        "interrupted-test".into(),
        false,
        ThreadGroup::new_root("test"),
        None,
    );
    VmThread::from_ctl(Arc::clone(&ctl)).interrupt_raw();
    let _guard = enter_thread(ctl);
    f()
}

/// Deregisters an interrupt waker on drop. Returned by
/// [`register_interrupt_waker`]; hold it for exactly the region where the
/// waker's notification is wanted (typically across a condvar wait loop).
#[must_use = "dropping the guard deregisters the waker immediately"]
pub struct InterruptWakerGuard {
    ctl: Option<(Arc<ThreadCtl>, u64)>,
}

impl Drop for InterruptWakerGuard {
    fn drop(&mut self) {
        if let Some((ctl, id)) = self.ctl.take() {
            ctl.remove_waker(id);
        }
    }
}

impl fmt::Debug for InterruptWakerGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InterruptWakerGuard")
            .field("registered", &self.ctl.is_some())
            .finish()
    }
}

/// Registers `waker` to fire when the *current* thread is interrupted,
/// until the returned guard is dropped. On a plain OS thread (which the
/// runtime never interrupts) this is a no-op guard.
///
/// Blocking primitives use this to wait on their condition variable without
/// a timeout: the waker acquires the primitive's state lock and notifies,
/// which cannot be lost as long as the caller re-checks
/// [`check_interrupt`] under that same lock before every wait.
pub fn register_interrupt_waker(waker: InterruptWaker) -> InterruptWakerGuard {
    let ctl = CURRENT.with(|c| c.borrow().clone());
    InterruptWakerGuard {
        ctl: ctl.map(|ctl| {
            let id = ctl.add_waker(waker);
            (ctl, id)
        }),
    }
}

/// Sleeps for `duration`, waking early with an error if interrupted.
///
/// # Errors
///
/// [`VmError::Interrupted`] if the current thread is interrupted before the
/// duration elapses.
pub fn sleep(duration: Duration) -> Result<()> {
    let deadline = Instant::now() + duration;
    let Some(ctl) = CURRENT.with(|c| c.borrow().clone()) else {
        // Plain OS threads are never interrupted: one real sleep.
        std::thread::sleep(duration);
        return Ok(());
    };
    // Park on the thread's sleep channel — a socket read, *not* a condvar
    // wait — so a fleet of thousands of sleeping applications neither
    // costs wakeups (no BLOCK_POLL chunking) nor crowds the kernel's
    // futex tables (see [`SleepChannel`]; the E19 storm measures exactly
    // this). Past the channel cap, bounded nanosleep chunks: still no
    // futex waiter, interruption seen at the next chunk boundary.
    let channel = ctl.sleep_channel();
    let _waker = channel.as_ref().map(|chan| {
        let chan = Arc::clone(chan);
        register_interrupt_waker(Arc::new(move || chan.wake()))
    });
    loop {
        if ctl.interrupted.load(Ordering::SeqCst) {
            return Err(VmError::Interrupted);
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(());
        }
        let remaining = deadline - now;
        match &channel {
            Some(chan) => {
                chan.drain();
                // The interrupter sets the flag before writing the wake
                // byte: re-checking here after the drain means a wake can
                // never be lost between the check and the blocking read.
                if ctl.interrupted.load(Ordering::SeqCst) {
                    return Err(VmError::Interrupted);
                }
                chan.block(remaining);
            }
            None => std::thread::sleep(remaining.min(SLEEP_FALLBACK_CHUNK)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    fn sleep_channel_wake_unblocks_and_drain_discards_stale_bytes() {
        let chan = SleepChannel::claim().expect("claim under cap");
        // A wake byte written before the park unblocks it immediately.
        chan.wake();
        let start = Instant::now();
        chan.block(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1), "wake byte lost");
        // Draining discards the stale wake: the next park runs to timeout.
        chan.wake();
        chan.drain();
        let start = Instant::now();
        chan.block(Duration::from_millis(60));
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "stale byte not drained"
        );
    }

    fn test_ctl(id: u64, daemon: bool) -> Arc<ThreadCtl> {
        ThreadCtl::new(
            ThreadId(id),
            format!("test-{id}"),
            daemon,
            ThreadGroup::new_root("g"),
            None,
        )
    }

    #[test]
    fn handle_reports_metadata() {
        let t = VmThread::from_ctl(test_ctl(7, true));
        assert_eq!(t.id(), ThreadId(7));
        assert_eq!(t.name(), "test-7");
        assert!(t.is_daemon());
        assert!(t.is_alive());
        assert!(!t.is_interrupted());
    }

    #[test]
    fn join_returns_after_finish() {
        let ctl = test_ctl(1, false);
        let t = VmThread::from_ctl(Arc::clone(&ctl));
        let waiter = std::thread::spawn(move || t.join());
        std::thread::sleep(Duration::from_millis(10));
        ctl.mark_finished(None);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn join_surfaces_panics() {
        let ctl = test_ctl(2, false);
        ctl.mark_finished(Some("boom".into()));
        let t = VmThread::from_ctl(ctl);
        assert!(matches!(
            t.join().unwrap_err(),
            VmError::ThreadPanicked { .. }
        ));
        assert!(!t.is_alive());
    }

    #[test]
    fn join_timeout_expires() {
        let t = VmThread::from_ctl(test_ctl(3, false));
        assert!(!t.join_timeout(Duration::from_millis(10)));
        t.ctl().mark_finished(None);
        assert!(t.join_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn os_threads_are_never_interrupted() {
        assert!(current().is_none());
        assert!(!current_interrupted());
        check_interrupt().unwrap();
    }

    #[test]
    fn enter_thread_binds_current() {
        let ctl = test_ctl(4, false);
        {
            let _guard = enter_thread(Arc::clone(&ctl));
            assert_eq!(current_id(), Some(ThreadId(4)));
            let t = current().unwrap();
            t.interrupt_raw();
            assert!(current_interrupted());
            assert!(check_interrupt().is_err());
        }
        assert!(current().is_none());
    }

    #[test]
    fn sleep_is_interruptible() {
        let ctl = test_ctl(5, false);
        let handle = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                let _guard = enter_thread(ctl);
                let start = Instant::now();
                let result = sleep(Duration::from_secs(60));
                (result, start.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        VmThread::from_ctl(ctl).interrupt_raw();
        let (result, elapsed) = handle.join().unwrap();
        assert!(matches!(result.unwrap_err(), VmError::Interrupted));
        assert!(elapsed < Duration::from_secs(5));
    }

    #[test]
    fn interrupt_fires_registered_wakers_once_registered() {
        let ctl = test_ctl(6, false);
        let fired = Arc::new(AtomicBool::new(false));
        let handle = {
            let ctl = Arc::clone(&ctl);
            let fired = Arc::clone(&fired);
            std::thread::spawn(move || {
                let _guard = enter_thread(ctl);
                let fired2 = Arc::clone(&fired);
                let guard = register_interrupt_waker(Arc::new(move || {
                    fired2.store(true, Ordering::SeqCst);
                }));
                while !current_interrupted() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop(guard);
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        VmThread::from_ctl(Arc::clone(&ctl)).interrupt_raw();
        handle.join().unwrap();
        assert!(fired.load(Ordering::SeqCst), "waker fires on interrupt");
        // After the guard dropped, another interrupt finds no wakers.
        assert!(ctl.wakers.lock().is_empty(), "guard deregisters");
    }

    #[test]
    fn os_threads_get_noop_waker_guards() {
        let guard = register_interrupt_waker(Arc::new(|| {}));
        assert!(guard.ctl.is_none());
    }

    #[test]
    fn sleep_completes_without_interruption() {
        let start = Instant::now();
        sleep(Duration::from_millis(15)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(14));
    }
}
