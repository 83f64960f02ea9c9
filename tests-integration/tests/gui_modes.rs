//! The strongest form of the paper's Feature 6/7 complaint, demonstrated:
//! under legacy (Fig 2) dispatching, the shared dispatcher thread lives in
//! whichever application opened a window first — so tearing *that*
//! application down silently kills event delivery for everyone else.
//! Per-application dispatching (Fig 4) keeps applications independent.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jmp_awt::{ComponentId, DispatchMode, Toolkit};
use jmp_core::MpRuntime;
use jmp_security::Policy;

fn gui_runtime(mode: DispatchMode) -> MpRuntime {
    let text = format!(
        "{}\n{}",
        jmp_shell::default_policy_text(),
        r#"
        grant user "alice" { permission file "/home/alice/-" "read,write,delete"; };
        grant user "bob"   { permission file "/home/bob/-" "read,write,delete"; };
        "#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&text).unwrap())
        .user("alice", "apw")
        .user("bob", "bpw")
        .gui(mode)
        .build()
        .unwrap();
    jmp_shell::install(&rt).unwrap();
    rt
}

/// Registers the two GUI apps; app B's button counts its clicks in
/// `clicks_b`. Each scenario owns its counter, so scenarios running in
/// parallel test threads cannot see each other's clicks.
fn register_gui_apps(rt: &MpRuntime, clicks_b: Arc<AtomicUsize>) {
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("guiA")
                .main(|_| {
                    let w = jmp_core::gui::create_window("A")?;
                    w.add_button("a");
                    jmp_vm::thread::sleep(Duration::from_secs(600))
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/guiA"),
        )
        .unwrap();
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("guiB")
                .main(move |_| {
                    let w = jmp_core::gui::create_window("B")?;
                    let b = w.add_button("b");
                    let clicks_b = Arc::clone(&clicks_b);
                    w.on_action(b, move |_| {
                        clicks_b.fetch_add(1, Ordering::SeqCst);
                    });
                    jmp_vm::thread::sleep(Duration::from_secs(600))
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/guiB"),
        )
        .unwrap();
}

fn run_scenario(mode: DispatchMode) -> (usize, usize) {
    let clicks_b = Arc::new(AtomicUsize::new(0));
    let rt = gui_runtime(mode);
    register_gui_apps(&rt, Arc::clone(&clicks_b));
    let display = rt.display().unwrap().clone();
    let toolkit = rt.toolkit().unwrap().clone();

    // A opens its window FIRST (so in legacy mode the dispatcher lands in
    // A's group), then B.
    let app_a = rt.launch_as("alice", "guiA", &[]).unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    let app_b = rt.launch_as("bob", "guiB", &[]).unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 2));
    let win_b = toolkit.windows_of_app(app_b.id().0)[0];
    let button_b = ComponentId(1);

    // Sanity: B's button works while A is alive.
    display.inject_action(win_b, button_b).unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || {
        clicks_b.load(Ordering::SeqCst) == 1
    }));
    let before = clicks_b.load(Ordering::SeqCst);

    // Kill A; then click B's button a few more times.
    app_a.stop(0).unwrap();
    app_a.wait_for().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..3 {
        let _ = display.inject_action(win_b, button_b);
        std::thread::sleep(Duration::from_millis(10));
    }
    // Give delivery a moment either way.
    Toolkit::wait_until(Duration::from_millis(400), || {
        clicks_b.load(Ordering::SeqCst) >= before + 3
    });
    let after = clicks_b.load(Ordering::SeqCst);
    app_b.stop(0).unwrap();
    let _ = app_b.wait_for();
    rt.shutdown();
    (before, after)
}

#[test]
fn legacy_dispatcher_dies_with_the_first_app() {
    let (before, after) = run_scenario(DispatchMode::Legacy);
    assert_eq!(
        after, before,
        "after killing app A, app B's events are no longer delivered under \
         the legacy shared dispatcher (the Fig 2 pathology)"
    );
}

#[test]
fn per_app_dispatchers_survive_a_neighbors_death() {
    let (before, after) = run_scenario(DispatchMode::PerApplication);
    assert_eq!(
        after,
        before + 3,
        "killing app A must not affect app B's event delivery (Fig 4)"
    );
}
