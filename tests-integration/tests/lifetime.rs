//! E1 (Fig 1) integration: VM and application lifetimes follow non-daemon
//! threads, including the AWT dispatcher case of paper §5.4.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use jmp_awt::{DispatchMode, Toolkit};
use jmp_core::{AppStatus, Application, MpRuntime};
use jmp_obs::EventKind;
use jmp_vm::AppContext;
use tests_integration::{policy, register_app, runtime};

#[test]
fn vm_exits_when_main_returns_and_no_nondaemons_remain() {
    let vm = jmp_vm::Vm::new();
    vm.material()
        .register(
            jmp_vm::ClassDef::builder("Quick").main(|_| Ok(())).build(),
            jmp_security::CodeSource::local("file:/sys/classes"),
        )
        .unwrap();
    let start = Instant::now();
    assert_eq!(vm.run("Quick", vec![]).unwrap(), 0);
    assert!(start.elapsed() < Duration::from_secs(5));
}

#[test]
fn app_with_only_daemons_left_is_reaped() {
    let rt = runtime();
    static DAEMON_STARTED: AtomicUsize = AtomicUsize::new(0);
    register_app(&rt, "daemons", |_| {
        let vm = jmp_vm::Vm::current().unwrap();
        vm.thread_builder()
            .name("background")
            .daemon(true)
            .spawn(|_| {
                DAEMON_STARTED.fetch_add(1, Ordering::SeqCst);
                let _ = jmp_vm::thread::sleep(Duration::from_secs(600));
            })?;
        // Give the daemon a moment to start, then return from main.
        jmp_vm::thread::sleep(Duration::from_millis(20))
    });
    let app = rt.launch_as("alice", "daemons", &[]).unwrap();
    let start = Instant::now();
    assert_eq!(app.wait_for().unwrap(), 0);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "daemon threads must not keep the application alive (Fig 1)"
    );
    assert_eq!(DAEMON_STARTED.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn awt_application_lives_until_explicit_exit() {
    // Paper §5.4: the per-app dispatcher is non-daemon, so "an application
    // that does use the AWT has to call Application.exit() to finish."
    let rt = MpRuntime::builder()
        .policy(policy())
        .user("alice", "apw")
        .gui(DispatchMode::PerApplication)
        .build()
        .unwrap();
    register_app(&rt, "awtapp", |_| {
        let window = jmp_core::gui::create_window("hold")?;
        let quit = window.add_button("quit");
        window.on_action(quit, |_| {
            let _ = Application::exit(42);
        });
        Ok(()) // main returns; the dispatcher keeps the app alive
    });
    let app = rt.launch_as("alice", "awtapp", &[]).unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    // main has long returned, but the app is still running.
    std::thread::sleep(Duration::from_millis(80));
    assert!(matches!(app.status(), AppStatus::Running));

    // Click quit: the callback calls Application::exit(42).
    let win = toolkit.windows_of_app(app.id().0)[0];
    rt.display()
        .unwrap()
        .inject_action(win, jmp_awt::ComponentId(1))
        .unwrap();
    assert_eq!(app.wait_for().unwrap(), 42);
    assert_eq!(toolkit.window_count(), 0, "teardown closed the window");
    rt.shutdown();
}

#[test]
fn reaper_interrupts_blocked_threads() {
    let rt = runtime();
    static UNBLOCKED: AtomicUsize = AtomicUsize::new(0);
    register_app(&rt, "blocked", |_| {
        let vm = jmp_vm::Vm::current().unwrap();
        // A thread blocked forever on a pipe read.
        let (_writer, reader) = jmp_vm::io::pipe(8);
        vm.thread_builder().name("reader").spawn(move |_| {
            let mut buf = [0u8; 1];
            if reader.read(&mut buf).is_err() {
                UNBLOCKED.fetch_add(1, Ordering::SeqCst);
            }
        })?;
        jmp_vm::thread::sleep(Duration::from_millis(20))?;
        Application::exit(0).map_err(jmp_vm::VmError::from)
    });
    let app = rt.launch_as("alice", "blocked", &[]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 0);
    assert_eq!(
        UNBLOCKED.load(Ordering::SeqCst),
        1,
        "teardown must unstick threads blocked in runtime primitives"
    );
    rt.shutdown();
}

#[test]
fn stop_is_idempotent_and_wait_for_is_reentrant() {
    let rt = runtime();
    register_app(&rt, "longrun", |_| {
        jmp_vm::thread::sleep(Duration::from_secs(600))
    });
    let app = rt.launch_as("alice", "longrun", &[]).unwrap();
    app.stop(5).unwrap();
    app.stop(9).unwrap(); // second request is ignored
    assert_eq!(app.wait_for().unwrap(), 5);
    assert_eq!(app.wait_for().unwrap(), 5, "wait_for after finish returns");
    assert!(matches!(app.status(), AppStatus::Finished(5)));
    rt.shutdown();
}

#[test]
fn reaped_applications_are_freed() {
    // Paper §5.1: the reaper "will eventually clean up the application".
    // Once reaped, nothing in the runtime keeps an application's context,
    // loader, `System` class or thread group alive — however it ended.
    static PIPED: Mutex<Vec<Weak<AppContext>>> = Mutex::new(Vec::new());
    let rt = runtime();
    register_app(&rt, "returns", |_| Ok(()));
    register_app(&rt, "exits", |args| {
        let code = args[0].parse().expect("numeric code");
        Application::exit(code).map_err(jmp_vm::VmError::from)
    });
    register_app(&rt, "parks", |_| {
        jmp_vm::thread::sleep(Duration::from_secs(600))
    });
    // The sink of a shell pipeline records its own context: the shell,
    // not the test, launches it.
    register_app(&rt, "drain", |_| {
        let app = Application::current().expect("on an application");
        PIPED.lock().unwrap().push(Arc::downgrade(app.context()));
        while app.stdin().read_line()?.is_some() {}
        Ok(())
    });
    register_app(&rt, "pipeline", |_| {
        jmp_shell::Shell::new()
            .execute_line("echo ping | drain")
            .map(drop)
            .map_err(jmp_vm::VmError::from)
    });

    let mut contexts = Vec::new();
    for round in 0..20 {
        let code = round.to_string();
        for (class, args) in [
            ("returns", vec![]),
            ("exits", vec![code.as_str()]),
            ("pipeline", vec![]),
        ] {
            let app = rt.launch_as("alice", class, &args).unwrap();
            contexts.push(Arc::downgrade(app.context()));
            app.wait_for().unwrap();
        }
        let parked = rt.launch_as("bob", "parks", &[]).unwrap();
        contexts.push(Arc::downgrade(parked.context()));
        parked.stop(round).unwrap();
        assert_eq!(parked.wait_for().unwrap(), round);
    }
    contexts.extend(PIPED.lock().unwrap().drain(..));
    assert_eq!(
        contexts.len(),
        100,
        "20 rounds of 4 launches + 20 pipeline sinks"
    );

    // Reaps run in order on the one reaper thread: once a later
    // application's reap is published, every earlier reap has finished.
    let events = rt.vm().obs().sink().subscribe();
    let last = rt.launch_as("alice", "returns", &[]).unwrap();
    let last_id = last.id().0;
    drop(last);
    loop {
        let event = events
            .recv_timeout(Duration::from_secs(30))
            .expect("the last reap is published");
        if event.kind == EventKind::AppReap && event.app == Some(last_id) {
            break;
        }
    }

    let resident: Vec<String> = contexts
        .iter()
        .filter_map(Weak::upgrade)
        .map(|ctx| format!("{}#{}", ctx.name(), ctx.app_id()))
        .collect();
    assert!(
        resident.is_empty(),
        "reaped applications still resident: {resident:?}"
    );
    // The last application's own reap publishes while it still holds the
    // application, so only its group may still be listed.
    let own_group = format!("app-{last_id}:");
    let stale: Vec<String> = rt
        .vm()
        .main_group()
        .children()
        .iter()
        .filter(|group| group.is_destroyed() && !group.name().starts_with(&own_group))
        .map(|group| group.name().to_string())
        .collect();
    assert!(stale.is_empty(), "reaped groups still listed: {stale:?}");
    rt.shutdown();
}

#[test]
fn a_shut_down_runtime_is_freed() {
    // Everything a runtime owns — the VM, its class material, the network,
    // the toolkit — must go once it is shut down and every handle is
    // dropped. A class body holds `marker`, so the marker's count tells
    // whether the VM's class material was freed.
    let marker = Arc::new(());
    let rt = MpRuntime::builder()
        .policy(policy())
        .user("alice", "apw")
        .gui(DispatchMode::PerApplication)
        .build()
        .unwrap();
    jmp_shell::install(&rt).unwrap();
    let held = Arc::clone(&marker);
    register_app(&rt, "holder", move |_| {
        let _held = &held;
        Ok(())
    });
    assert_eq!(Arc::strong_count(&marker), 2);

    // An editor whose Save listener holds its own window, stopped with
    // its window closed.
    let edit = rt
        .launch_as("alice", "edit", &["/home/alice/doc.txt"])
        .unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || {
        let threads = edit.threads();
        toolkit.window_count() == 1
            && threads.len() == 1
            && threads[0].name().starts_with("awt-dispatch")
    }));
    edit.stop(0).unwrap();
    edit.wait_for().unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 0));

    rt.shutdown();
    drop((edit, toolkit, rt));
    assert_eq!(
        Arc::strong_count(&marker),
        1,
        "the shut-down runtime's VM still holds its class material"
    );
}
