//! # jmp-awt
//!
//! A simulated windowing stack for the jmproc runtime: a [`DisplayServer`]
//! standing in for the X server, and a [`Toolkit`] standing in for the AWT.
//!
//! Its purpose is to reproduce the event-dispatching story of Balfanz &
//! Gong (ICDCS 1998): the original single-dispatcher architecture (paper
//! §3.2, Fig 2 — [`DispatchMode::Legacy`]) and the multi-processing redesign
//! with per-application event queues and dispatcher threads (paper §5.4,
//! Fig 4 — [`DispatchMode::PerApplication`]). Tests and benches inject
//! synthetic input at the display and observe *which thread, in which thread
//! group,* executes the callbacks, and with what latency.
//!
//! # Example
//!
//! ```
//! use jmp_awt::{DispatchMode, DisplayServer, Toolkit};
//! use jmp_vm::Vm;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let vm = Vm::new();
//! let display = DisplayServer::new();
//! let toolkit = Toolkit::connect(vm.clone(), display.clone(), DispatchMode::PerApplication);
//!
//! let window = toolkit.create_window("demo")?;
//! let button = window.add_button("Save");
//! let clicks = Arc::new(AtomicUsize::new(0));
//! let counter = Arc::clone(&clicks);
//! window.on_action(button, move |_event| {
//!     counter.fetch_add(1, Ordering::SeqCst);
//! });
//!
//! display.inject_action(window.id(), button)?;
//! assert!(Toolkit::wait_until(Duration::from_secs(2), || {
//!     clicks.load(Ordering::SeqCst) == 1
//! }));
//! # vm.exit_unchecked(0);
//! # Ok::<(), jmp_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod display;
mod event;
mod queue;
mod toolkit;

pub use component::{ComponentKind, Listener, Window};
pub use display::{ClientId, DisplayServer};
pub use event::{ComponentId, Event, EventKind, WindowId};
pub use queue::EventQueue;
pub use toolkit::{DispatchMode, DispatchObserver, Toolkit};

#[cfg(test)]
mod tests {
    use super::*;
    use jmp_vm::{thread, AppContext, Vm};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn setup(mode: DispatchMode) -> (Vm, DisplayServer, Toolkit) {
        let vm = Vm::new();
        let display = DisplayServer::new();
        let toolkit = Toolkit::connect(vm.clone(), display.clone(), mode);
        (vm, display, toolkit)
    }

    /// Creates a window on a VM thread carrying application `app`'s
    /// context, whose id the toolkit reads as the window's tag.
    fn create_window_as(vm: &Vm, toolkit: &Toolkit, app: u64, title: &'static str) -> Window {
        let ctx = AppContext::new(app, title, "alice", vm.obs().clone());
        let ((created, window), toolkit) = (std::sync::mpsc::channel(), toolkit.clone());
        vm.thread_builder()
            .app_context(ctx)
            .spawn(move |_| created.send(toolkit.create_window(title).unwrap()).unwrap())
            .unwrap();
        window.recv().unwrap()
    }

    #[test]
    fn button_click_reaches_listener() {
        let (vm, display, toolkit) = setup(DispatchMode::PerApplication);
        let window = toolkit.create_window("app").unwrap();
        let button = window.add_button("Go");
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        window.on_action(button, move |_| {
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        display.inject_action(window.id(), button).unwrap();
        display.inject_action(window.id(), button).unwrap();
        assert!(Toolkit::wait_until(Duration::from_secs(2), || hits
            .load(Ordering::SeqCst)
            == 2));
        vm.exit_unchecked(0);
    }

    #[test]
    fn typed_keys_accumulate_in_text_field() {
        let (vm, display, toolkit) = setup(DispatchMode::PerApplication);
        let window = toolkit.create_window("editor").unwrap();
        let field = window.add_text_field();
        display.inject_text(window.id(), field, "hello").unwrap();
        assert!(Toolkit::wait_until(Duration::from_secs(2), || window
            .text_of(field)
            .as_deref()
            == Some("hello")));
        vm.exit_unchecked(0);
    }

    #[test]
    fn callbacks_run_on_dispatcher_thread_in_app_group() {
        // Fig 4: the dispatching thread belongs to the application's group.
        let (vm, display, toolkit) = setup(DispatchMode::PerApplication);
        let app_group = vm.main_group().new_child("app-7").unwrap();
        let toolkit2 = toolkit.clone();
        let display2 = display.clone();
        let observed = Arc::new(parking_lot::Mutex::new(None));
        let observed2 = Arc::clone(&observed);
        let t = vm
            .thread_builder()
            .group(app_group.clone())
            .name("app-main")
            .spawn(move |_| {
                let window = toolkit2.create_window("w").unwrap();
                let button = window.add_button("b");
                window.on_action(button, move |_| {
                    *observed2.lock() = thread::current().map(|t| t.group().clone());
                });
                display2.inject_action(window.id(), button).unwrap();
            })
            .unwrap();
        t.join().unwrap();
        assert!(Toolkit::wait_until(Duration::from_secs(2), || observed
            .lock()
            .is_some()));
        let group = observed.lock().clone().unwrap();
        assert!(
            app_group.same_group(&group),
            "dispatcher must run in the app's group, got {}",
            group.name()
        );
        // And the X-connection thread lives in the system group (§5.4).
        let input = toolkit.input_thread().unwrap();
        assert!(vm.system_group().same_group(input.group()));
        vm.exit_unchecked(0);
    }

    #[test]
    fn legacy_mode_shares_one_dispatcher() {
        // Fig 2: both apps' callbacks run on the same thread, and that
        // thread sits in the first app's group.
        let (vm, display, toolkit) = setup(DispatchMode::Legacy);
        let group_a = vm.main_group().new_child("app-a").unwrap();
        let group_b = vm.main_group().new_child("app-b").unwrap();

        let seen: Arc<parking_lot::Mutex<Vec<jmp_vm::ThreadId>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));

        let make_app = |group: jmp_vm::ThreadGroup, title: &'static str| {
            let toolkit = toolkit.clone();
            let display = display.clone();
            let seen = Arc::clone(&seen);
            vm.thread_builder()
                .group(group)
                .name(title)
                .spawn(move |_| {
                    let window = toolkit.create_window(title).unwrap();
                    let button = window.add_button("b");
                    let seen2 = Arc::clone(&seen);
                    window.on_action(button, move |_| {
                        seen2.lock().push(thread::current().unwrap().id());
                    });
                    display.inject_action(window.id(), button).unwrap();
                })
                .unwrap()
        };
        make_app(group_a.clone(), "first").join().unwrap();
        make_app(group_b, "second").join().unwrap();

        assert!(Toolkit::wait_until(Duration::from_secs(2), || seen
            .lock()
            .len()
            == 2));
        let ids = seen.lock().clone();
        assert_eq!(ids[0], ids[1], "legacy mode: a single dispatcher thread");

        let dispatcher = toolkit.dispatcher_of(0).unwrap();
        assert!(
            group_a.same_group(dispatcher.group()),
            "legacy dispatcher lands in the first app's group (the paper's complaint)"
        );
        vm.exit_unchecked(0);
    }

    #[test]
    fn per_app_mode_uses_distinct_dispatchers_and_queues() {
        let (vm, display, toolkit) = setup(DispatchMode::PerApplication);
        let w1 = create_window_as(&vm, &toolkit, 1, "one");
        let w2 = create_window_as(&vm, &toolkit, 2, "two");
        assert_eq!(w1.app_tag(), 1);
        assert_eq!(w2.app_tag(), 2);

        let q1 = toolkit.queue_of(1).unwrap();
        let q2 = toolkit.queue_of(2).unwrap();
        assert!(!q1.same_queue(&q2));
        let d1 = toolkit.dispatcher_of(1).unwrap();
        let d2 = toolkit.dispatcher_of(2).unwrap();
        assert_ne!(d1.id(), d2.id());

        // Events for app 2 flow through q2 only.
        let b2 = w2.add_button("x");
        display.inject_action(w2.id(), b2).unwrap();
        assert!(Toolkit::wait_until(Duration::from_secs(2), || q2
            .total_dequeued()
            == 1));
        assert_eq!(q1.total_enqueued(), 0);
        vm.exit_unchecked(0);
    }

    #[test]
    fn close_app_retires_windows_and_queue() {
        let (vm, display, toolkit) = setup(DispatchMode::PerApplication);
        let window = create_window_as(&vm, &toolkit, 5, "to-close");
        assert_eq!(toolkit.window_count(), 1);
        assert_eq!(display.window_count(), 1);
        let queue = toolkit.queue_of(5).unwrap();

        toolkit.close_app(5);
        assert!(window.is_closed());
        assert_eq!(toolkit.window_count(), 0);
        assert_eq!(display.window_count(), 0);
        assert!(queue.is_closed());
        // The dispatcher drains and exits.
        let dispatcher = toolkit.dispatcher_of(5);
        assert!(dispatcher.is_none());
        vm.exit_unchecked(0);
    }

    #[test]
    fn window_closing_listener_fires() {
        let (vm, display, toolkit) = setup(DispatchMode::PerApplication);
        let window = toolkit.create_window("closable").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        window.on_closing(move |_| {
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        display.inject_close(window.id()).unwrap();
        assert!(Toolkit::wait_until(Duration::from_secs(2), || fired
            .load(Ordering::SeqCst)
            == 1));
        vm.exit_unchecked(0);
    }

    #[test]
    fn show_window_requires_awt_permission() {
        use jmp_security::{CodeSource, ProtectionDomain};
        let (vm, _display, toolkit) = setup(DispatchMode::PerApplication);
        let untrusted = Arc::new(ProtectionDomain::untrusted(CodeSource::remote(
            "http://evil/x",
        )));
        let denied = jmp_vm::stack::call_as("Evil", untrusted, || toolkit.create_window("nope"));
        assert!(denied.unwrap_err().is_security());
        assert_eq!(toolkit.window_count(), 0);
        vm.exit_unchecked(0);
    }

    #[test]
    fn labels_and_menu_items() {
        let (vm, _display, toolkit) = setup(DispatchMode::PerApplication);
        let window = toolkit.create_window("menus").unwrap();
        let save = window.add_menu_item("Save File");
        let label = window.add_label("status: ok");
        assert_eq!(window.label_of(save).as_deref(), Some("Save File"));
        assert_eq!(window.label_of(label).as_deref(), Some("status: ok"));
        window.set_text(window.add_text_field(), "preset");
        vm.exit_unchecked(0);
    }

    #[test]
    fn dispatch_observer_sees_latency() {
        let (vm, display, toolkit) = setup(DispatchMode::PerApplication);
        let samples = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let samples2 = Arc::clone(&samples);
        toolkit.set_dispatch_observer(Arc::new(move |_event, _tag, latency| {
            samples2.lock().push(latency);
        }));
        let window = toolkit.create_window("timed").unwrap();
        let button = window.add_button("b");
        display.inject_action(window.id(), button).unwrap();
        assert!(Toolkit::wait_until(Duration::from_secs(2), || !samples
            .lock()
            .is_empty()));
        vm.exit_unchecked(0);
    }
}
