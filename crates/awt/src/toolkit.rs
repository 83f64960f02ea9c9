use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jmp_security::Permission;
use jmp_vm::{Result, ThreadGroup, Vm, VmThread};
use parking_lot::{Mutex, RwLock};

use crate::component::{ComponentKind, Window, WindowInner};
use crate::display::{ClientId, DisplayServer};
use crate::event::{Event, EventKind, WindowId};
use crate::queue::EventQueue;

/// How events are dispatched to listeners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// The original JDK architecture (paper §3.2, Fig 2): **one** event
    /// queue and **one** dispatcher thread execute *all* callbacks of *all*
    /// applications. The dispatcher (and the X-connection thread) start on
    /// demand, in whatever thread group happens to be current at the first
    /// window — reproducing the problem the paper's Feature 6 names.
    Legacy,
    /// The paper's redesign (§5.4, Fig 4): per-application event queues;
    /// each application's events are dispatched by a non-daemon thread in
    /// *that application's* thread group, and the X-connection thread lives
    /// in the system group.
    PerApplication,
}

/// Observer invoked after each delivered event with the owning window's
/// application tag and the queue-to-listener latency (the measurement behind
/// experiment E2, and the feed for the per-application GUI metrics).
pub type DispatchObserver = Arc<dyn Fn(&Event, u64, Duration) + Send + Sync>;

/// The tag used for the shared queue in [`DispatchMode::Legacy`].
const LEGACY_TAG: u64 = 0;

/// Most events moved per lock acquisition by the input forwarder and per
/// queue drain by a dispatcher. Large enough to amortise the lock under
/// load, small enough that a burst cannot monopolise a dispatcher between
/// heartbeats.
const DISPATCH_BATCH: usize = 64;

pub(crate) struct ToolkitInner {
    vm: Vm,
    display: DisplayServer,
    client: ClientId,
    mode: DispatchMode,
    windows: RwLock<HashMap<WindowId, Arc<WindowInner>>>,
    queues: Mutex<HashMap<u64, EventQueue>>,
    dispatchers: Mutex<HashMap<u64, VmThread>>,
    input_thread: Mutex<Option<VmThread>>,
    inbox: Mutex<Option<EventQueue>>,
    observers: RwLock<Vec<DispatchObserver>>,
}

/// The windowing toolkit: the AWT of this runtime.
///
/// One toolkit connects one VM to a [`DisplayServer`]. Applications create
/// [`Window`]s through it (requiring `AWTPermission("showWindow")`); input
/// injected at the display flows through the toolkit's X-connection thread
/// into an [`EventQueue`] and is delivered to listeners by a dispatcher
/// thread. *Which* queue and *whose* dispatcher depend on the
/// [`DispatchMode`] — the difference between the paper's Fig 2 and Fig 4.
#[derive(Clone)]
pub struct Toolkit {
    inner: Arc<ToolkitInner>,
}

impl Toolkit {
    /// Connects a toolkit for `vm` to `display`.
    pub fn connect(vm: Vm, display: DisplayServer, mode: DispatchMode) -> Toolkit {
        // The display wire is an EventQueue wired to the VM-wide counters,
        // so paint/move bursts coalescing at the display boundary (before
        // any per-application queue sees them) are still accounted for.
        let metrics = vm.obs().vm_metrics();
        let inbox = EventQueue::with_counters(
            Some(metrics.counter("events.coalesced")),
            Some(metrics.counter("events.dropped")),
        );
        let client = display.connect_with(inbox.clone());
        Toolkit {
            inner: Arc::new(ToolkitInner {
                vm,
                display,
                client,
                mode,
                windows: RwLock::new(HashMap::new()),
                queues: Mutex::new(HashMap::new()),
                dispatchers: Mutex::new(HashMap::new()),
                input_thread: Mutex::new(None),
                inbox: Mutex::new(Some(inbox)),
                observers: RwLock::new(Vec::new()),
            }),
        }
    }

    /// The dispatch mode.
    pub fn mode(&self) -> DispatchMode {
        self.inner.mode
    }

    /// The VM this toolkit serves.
    pub fn vm(&self) -> &Vm {
        &self.inner.vm
    }

    /// The display this toolkit renders to.
    pub fn display(&self) -> &DisplayServer {
        &self.inner.display
    }

    /// Replaces all dispatch-latency observers with `observer` (benches,
    /// which want exclusive readings).
    pub fn set_dispatch_observer(&self, observer: DispatchObserver) {
        let mut observers = self.inner.observers.write();
        observers.clear();
        observers.push(observer);
    }

    /// Adds a dispatch-latency observer alongside any already installed —
    /// the multi-processing runtime uses this so its metrics feed coexists
    /// with bench observers.
    pub fn add_dispatch_observer(&self, observer: DispatchObserver) {
        self.inner.observers.write().push(observer);
    }

    fn queue_tag_for(&self, window_tag: u64) -> u64 {
        match self.inner.mode {
            DispatchMode::Legacy => LEGACY_TAG,
            DispatchMode::PerApplication => window_tag,
        }
    }

    /// Creates a window owned by the current application. Requires
    /// `AWTPermission("showWindow")`. Starts the X-connection thread and the
    /// appropriate dispatcher on first use (see [`DispatchMode`]).
    ///
    /// # Errors
    ///
    /// [`jmp_vm::VmError::Security`] if the permission is denied; spawn
    /// errors if the VM is shutting down.
    pub fn create_window(&self, title: &str) -> Result<Window> {
        self.inner
            .vm
            .check_permission(&Permission::awt("showWindow"))?;
        // The window's tag is the id of the creating thread's application
        // context, or 0 for a thread that belongs to no application.
        let tag = jmp_vm::thread::current_app_context().map_or(0, |ctx| ctx.app_id());
        self.ensure_input_thread()?;
        self.ensure_dispatcher(self.queue_tag_for(tag))?;
        let id = self.inner.display.create_window(self.inner.client, title);
        let window = WindowInner::new(id, title.to_string(), tag);
        self.inner.windows.write().insert(id, Arc::clone(&window));
        Ok(Window {
            inner: window,
            toolkit: self.clone(),
        })
    }

    /// Re-obtains a handle to an open window by id.
    pub fn window(&self, id: WindowId) -> Option<Window> {
        self.inner.windows.read().get(&id).map(|inner| Window {
            inner: Arc::clone(inner),
            toolkit: self.clone(),
        })
    }

    /// Ids of open windows belonging to application `tag`, sorted.
    pub fn windows_of_app(&self, tag: u64) -> Vec<WindowId> {
        let mut ids: Vec<WindowId> = self
            .inner
            .windows
            .read()
            .values()
            .filter(|w| w.tag == tag)
            .map(|w| w.id)
            .collect();
        ids.sort();
        ids
    }

    /// Total open windows.
    pub fn window_count(&self) -> usize {
        self.inner.windows.read().len()
    }

    pub(crate) fn close_window(&self, id: WindowId) {
        let removed = self.inner.windows.write().remove(&id);
        if let Some(window) = removed {
            window
                .closed
                .store(true, std::sync::atomic::Ordering::SeqCst);
            window.drop_listeners();
            self.inner.display.destroy_window(id);
        }
    }

    /// Closes every window of application `tag` and (in
    /// [`DispatchMode::PerApplication`]) retires its queue and dispatcher —
    /// the toolkit half of application teardown ("close all windows that are
    /// associated with the application", paper §5.1).
    pub fn close_app(&self, tag: u64) {
        for id in self.windows_of_app(tag) {
            self.close_window(id);
        }
        if self.inner.mode == DispatchMode::PerApplication {
            if let Some(queue) = self.inner.queues.lock().remove(&tag) {
                queue.close();
            }
            self.inner.dispatchers.lock().remove(&tag);
        }
    }

    /// The event queue serving application `tag`, if one exists yet.
    pub fn queue_of(&self, tag: u64) -> Option<EventQueue> {
        self.inner
            .queues
            .lock()
            .get(&self.queue_tag_for(tag))
            .cloned()
    }

    /// The dispatcher thread serving application `tag`, if started.
    pub fn dispatcher_of(&self, tag: u64) -> Option<VmThread> {
        self.inner
            .dispatchers
            .lock()
            .get(&self.queue_tag_for(tag))
            .cloned()
    }

    /// The X-connection thread, if started.
    pub fn input_thread(&self) -> Option<VmThread> {
        self.inner.input_thread.lock().clone()
    }

    /// Runs `f` with the toolkit's (system-code) authority: the toolkit is
    /// part of the runtime, so its internal thread management must not be
    /// limited by whichever application happens to call into it — the same
    /// privilege-assertion pattern as the paper's Font example (§5.6).
    fn as_system<R>(f: impl FnOnce() -> R) -> R {
        let domain = Arc::new(jmp_security::ProtectionDomain::system());
        jmp_vm::stack::call_as("jmp.awt.Toolkit", domain, || {
            jmp_vm::stack::do_privileged(f)
        })
    }

    fn ensure_input_thread(&self) -> Result<()> {
        let mut slot = self.inner.input_thread.lock();
        if slot.is_some() {
            return Ok(());
        }
        let inbox = {
            let mut guard = self.inner.inbox.lock();
            guard.take().ok_or_else(|| {
                jmp_vm::VmError::illegal_state("toolkit input thread previously failed to start")
            })?
        };
        let toolkit = self.clone();
        // PerApplication (the paper's fix, §5.4): the thread that talks to
        // the display server is a *system* thread, in the system group.
        // Legacy (the paper's complaint, Feature 6): it starts in whatever
        // group is current — i.e. the first application to open a window.
        let builder = self
            .inner
            .vm
            .thread_builder()
            .name("awt-input")
            .daemon(true)
            // The X-connection thread serves the whole VM for its lifetime;
            // charging it to whichever application opened the first window
            // would leak a thread slot that application can never drain.
            .detached();
        let builder = match self.inner.mode {
            DispatchMode::PerApplication => builder.group(self.input_group()),
            DispatchMode::Legacy => builder,
        };
        let thread = Toolkit::as_system(|| builder.spawn(move |_vm| toolkit.input_loop(&inbox)))?;
        *slot = Some(thread);
        Ok(())
    }

    fn input_group(&self) -> ThreadGroup {
        self.inner.vm.system_group().clone()
    }

    fn input_loop(&self, inbox: &EventQueue) {
        // The X-connection thread is a system helper: watchdogged so a hang
        // in routing is as visible as a hung dispatcher. While the display
        // is quiet it parks and blocks for real — zero periodic wakeups —
        // waking only on input, disconnect, or interruption, and forwarding
        // each burst as one batch.
        let watchdogs = self.inner.vm.obs().watchdogs().clone();
        let heartbeat = watchdogs.register("awt-input", None);
        loop {
            let drained = inbox.drain_observed(DISPATCH_BATCH, |parked| {
                if parked {
                    heartbeat.park();
                } else {
                    heartbeat.unpark();
                }
            });
            match drained {
                Ok(batch) if batch.is_empty() => break, // display hung up
                Ok(mut batch) => {
                    heartbeat.beat();
                    self.route_batch(&mut batch);
                }
                Err(_) => break, // interrupted: teardown
            }
        }
        watchdogs.deregister("awt-input");
    }

    /// Routes a burst of display events to their queues: "when an event
    /// occurs in a GUI element, the enclosing window and its application are
    /// found; then the AWT event is put on the particular event queue of
    /// that application" (paper §5.4). Consecutive events bound for the same
    /// queue are published with one [`EventQueue::push_batch`] — one lock
    /// acquisition and at most one dispatcher wakeup per run, with
    /// cross-queue ordering preserved. Drains `events`.
    fn route_batch(&self, events: &mut Vec<Event>) {
        let mut run: Vec<Event> = Vec::new();
        let mut run_queue: Option<(u64, EventQueue)> = None;
        for event in events.drain(..) {
            let Some(window) = self.inner.windows.read().get(&event.window).cloned() else {
                continue; // window closed while the event was in flight
            };
            let queue_tag = self.queue_tag_for(window.tag);
            match &run_queue {
                Some((tag, _)) if *tag == queue_tag => run.push(event),
                _ => {
                    if let Some((_, queue)) = run_queue.take() {
                        queue.push_batch(run.drain(..));
                    }
                    let queue = self.inner.queues.lock().get(&queue_tag).cloned();
                    if let Some(queue) = queue {
                        run.push(event);
                        run_queue = Some((queue_tag, queue));
                    }
                }
            }
        }
        if let Some((_, queue)) = run_queue {
            queue.push_batch(run.drain(..));
        }
    }

    fn ensure_dispatcher(&self, queue_tag: u64) -> Result<()> {
        {
            let queues = self.inner.queues.lock();
            if queues.contains_key(&queue_tag) {
                return Ok(());
            }
        }
        // Queues feed the VM-wide coalescing/drop counters so `vmstat`
        // accounts for every event that was merged away or lost post-close.
        // In PerApplication mode the queue is owned by the application
        // opening its first window: every buffered slot is charged against
        // that application's ledger (quota `queued.events`). The legacy
        // shared queue has no single owner and stays unaccounted.
        let metrics = self.inner.vm.obs().vm_metrics();
        let owner = match self.inner.mode {
            DispatchMode::PerApplication => jmp_vm::thread::current_app_context(),
            DispatchMode::Legacy => None,
        };
        let queue = EventQueue::with_owner(
            Some(metrics.counter("events.coalesced")),
            Some(metrics.counter("events.dropped")),
            owner,
        );
        self.inner.queues.lock().insert(queue_tag, queue.clone());
        // The dispatcher spawns in the *current* thread's group: for
        // PerApplication this is the application opening its first window
        // (paper §5.4: a non-daemon thread in the application's group); for
        // Legacy it is whichever application got here first (Fig 2).
        let toolkit = self.clone();
        let name = match self.inner.mode {
            DispatchMode::Legacy => "awt-dispatch".to_string(),
            DispatchMode::PerApplication => format!("awt-dispatch-{queue_tag}"),
        };
        let watchdog_name = name.clone();
        let thread = self
            .inner
            .vm
            .thread_builder()
            .name(name)
            .daemon(false)
            .spawn(move |_vm| toolkit.dispatch_loop(&queue, &watchdog_name, queue_tag))?;
        self.inner.dispatchers.lock().insert(queue_tag, thread);
        Ok(())
    }

    fn dispatch_loop(&self, queue: &EventQueue, watchdog_name: &str, queue_tag: u64) {
        // Heartbeat discipline: *parked* while blocked on an empty queue
        // (idle ≠ stalled, and an idle dispatcher costs zero wakeups),
        // beating once per delivered event — so only a dispatcher stuck
        // *inside a listener* goes silent past the stall threshold.
        let watchdogs = self.inner.vm.obs().watchdogs().clone();
        let app = (queue_tag != LEGACY_TAG).then_some(queue_tag);
        let heartbeat = watchdogs.register(watchdog_name, app);
        loop {
            let drained = queue.drain_observed(DISPATCH_BATCH, |parked| {
                if parked {
                    heartbeat.park();
                } else {
                    heartbeat.unpark();
                }
            });
            match drained {
                Ok(batch) if batch.is_empty() => break, // closed and drained
                Ok(batch) => {
                    for event in batch {
                        heartbeat.beat();
                        self.dispatch(event);
                    }
                }
                Err(_) => break, // interrupted: application teardown
            }
        }
        watchdogs.deregister(watchdog_name);
    }

    /// Delivers one event to its listeners (on the calling dispatcher
    /// thread — the thread identity applications observe in callbacks).
    fn dispatch(&self, event: Event) {
        let Some(window) = self.inner.windows.read().get(&event.window).cloned() else {
            return;
        };
        // Dispatch runs under the event's trace context when it carries one
        // (the thread that posted the event), else under the dispatcher's
        // own inherited context; the span makes the enqueue→dispatch hop
        // visible either way.
        let prev_trace = match event.trace {
            Some(ctx) => jmp_obs::trace::swap(Some(ctx)),
            None => jmp_obs::trace::current(),
        };
        let span = self.inner.vm.obs().recorder().begin(
            jmp_obs::SpanCategory::Dispatch,
            format!("dispatch:{event}"),
            jmp_vm::thread::current_app_context().map(|ctx| ctx.app_id()),
        );
        match (&event.kind, event.component) {
            (EventKind::WindowClosing, _) => {
                let listeners = window.closing_listeners.read().clone();
                for listener in listeners {
                    listener(&event);
                }
            }
            (EventKind::KeyTyped(c), Some(component_id)) => {
                if let Some(record) = window.component(component_id) {
                    if record.kind == ComponentKind::TextField {
                        record.text.lock().push(*c);
                    }
                    let listeners = record.listeners.read().clone();
                    for listener in listeners {
                        listener(&event);
                    }
                }
            }
            (_, Some(component_id)) => {
                if let Some(record) = window.component(component_id) {
                    let listeners = record.listeners.read().clone();
                    for listener in listeners {
                        listener(&event);
                    }
                }
            }
            (_, None) => {}
        }
        let observers = self.inner.observers.read().clone();
        if !observers.is_empty() {
            let latency = event.injected_at.elapsed();
            for observer in &observers {
                observer(&event, window.tag, latency);
            }
        }
        drop(span);
        jmp_obs::trace::install(prev_trace);
    }

    /// Waits until `predicate` is true or `timeout` elapses, polling — a
    /// test/bench helper for asserting on asynchronous dispatch.
    pub fn wait_until(timeout: Duration, predicate: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if predicate() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        predicate()
    }
}

impl fmt::Debug for Toolkit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Toolkit")
            .field("mode", &self.inner.mode)
            .field("client", &self.inner.client)
            .field("windows", &self.window_count())
            .field("queues", &self.inner.queues.lock().len())
            .finish()
    }
}
