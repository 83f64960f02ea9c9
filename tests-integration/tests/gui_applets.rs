//! GUI applets: interpreted mobile code building windows and handling
//! events — the full §6.3 appletviewer experience. The crucial security
//! property: an `on_action` callback re-enters the interpreter *inside the
//! applet's frame*, so even on the event-dispatcher thread the applet keeps
//! its sandbox.

use std::time::Duration;

use jmp_awt::{ComponentId, DispatchMode, Toolkit};
use jmp_core::MpRuntime;
use jmp_security::Policy;
use jmp_shell::publish_applet;

/// The callback needs the window/field handles; `jbc` has no globals, so the
/// test uses fixed handle values: the first window an applet opens gets the
/// toolkit's next window id. To keep the applet robust, this variant stores
/// state in the text field itself and hard-codes handles 1 (window) and 1
/// (field) — valid because the test uses a fresh runtime where the applet's
/// window is the first ever created.
const COUNTER_APPLET_FIXED: &str = r#"
    class Counter
    method main/0 locals=3
        push_str "Counter"
        native create_window/1
        store 0
        load 0
        native add_text_field/1
        store 1
        load 0
        load 1
        push_int 0
        native set_text/3
        pop
        load 0
        push_str "increment"
        native add_button/2
        store 2
        load 0
        load 2
        push_str "on_click"
        native on_action/3
        pop
        load 0
        return_value

    method on_click/1 locals=2
        ; current = int(text_of(window=1, field=1))  — parse via arithmetic:
        ; text_of returns a string; Concat-based math won't work, so keep a
        ; count by appending one '*' per click instead.
        push_int 1
        push_int 1
        native text_of/2
        push_str "*"
        concat
        store 1
        push_int 1
        push_int 1
        load 1
        native set_text/3
        return_value
"#;

/// An evil GUI applet: the button callback tries to read the user's file.
const EVIL_GUI_APPLET: &str = r#"
    class EvilGui
    method main/0 locals=2
        push_str "Innocent Looking"
        native create_window/1
        store 0
        load 0
        push_str "click me"
        native add_button/2
        store 1
        load 0
        load 1
        push_str "steal"
        native on_action/3
        pop
        push_int 0
        return_value

    method steal/1 locals=0
        push_str "/home/alice/secret.txt"
        native read_file/1
        native println/1
        return
"#;

fn gui_runtime() -> MpRuntime {
    let text = format!(
        "{}\n{}",
        jmp_shell::default_policy_text(),
        r#"grant user "alice" { permission file "/home/alice/-" "read,write,delete"; };"#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&text).unwrap())
        .user("alice", "apw")
        .gui(DispatchMode::PerApplication)
        .build()
        .unwrap();
    jmp_shell::install(&rt).unwrap();
    rt
}

#[test]
fn applet_builds_a_working_gui() {
    let rt = gui_runtime();
    publish_applet(
        &rt,
        "applets.example.com",
        "/counter.jbc",
        COUNTER_APPLET_FIXED,
    )
    .unwrap();
    let viewer = rt
        .launch_as(
            "alice",
            "appletviewer",
            &["http://applets.example.com/counter.jbc"],
        )
        .unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    let display = rt.display().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    // The window exists before the applet fills in the field and registers
    // its listener; the viewer prints the applet's return value after main
    // returns.
    assert!(Toolkit::wait_until(Duration::from_secs(5), || {
        rt.console_output().contains("applet returned:")
    }));
    let window_id = toolkit.windows_of_app(viewer.id().0)[0];
    let window = toolkit.window(window_id).unwrap();
    assert_eq!(window.title(), "Counter");

    // Components: text field = 1, button = 2.
    let field = ComponentId(1);
    let button = ComponentId(2);
    assert_eq!(window.text_of(field).as_deref(), Some("0"));
    for _ in 0..3 {
        display.inject_action(window_id, button).unwrap();
    }
    assert!(
        Toolkit::wait_until(Duration::from_secs(5), || {
            window.text_of(field).as_deref() == Some("0***")
        }),
        "three clicks must append three marks, got {:?}",
        window.text_of(field)
    );

    // Closing the window ends the viewer application (§6.3 semantics).
    display.inject_close(window_id).unwrap();
    assert_eq!(viewer.wait_for().unwrap(), 0);
    assert_eq!(toolkit.window_count(), 0);
    rt.shutdown();
}

#[test]
fn gui_callback_keeps_the_applet_sandbox() {
    let rt = gui_runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/secret.txt", b"precious", alice.id())
        .unwrap();
    publish_applet(&rt, "applets.example.com", "/evilgui.jbc", EVIL_GUI_APPLET).unwrap();

    let viewer = rt
        .launch_as(
            "alice",
            "appletviewer",
            &["http://applets.example.com/evilgui.jbc"],
        )
        .unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    let display = rt.display().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    // Wait for main to return, i.e. for the listener to be registered.
    assert!(Toolkit::wait_until(Duration::from_secs(5), || {
        rt.console_output().contains("applet returned:")
    }));
    let window_id = toolkit.windows_of_app(viewer.id().0)[0];

    // Click the bait button: the callback runs on the dispatcher thread but
    // inside the applet's frame — the read must be denied.
    display.inject_action(window_id, ComponentId(1)).unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || {
        rt.console_output().contains("applet callback failed")
    }));
    let console = rt.console_output();
    assert!(
        console.contains("security exception"),
        "callback denial must be a SecurityException: {console}"
    );
    assert!(!console.contains("precious"));

    display.inject_close(window_id).unwrap();
    viewer.wait_for().unwrap();
    rt.shutdown();
}

#[test]
fn unknown_callback_method_is_rejected_at_registration() {
    let rt = gui_runtime();
    publish_applet(
        &rt,
        "applets.example.com",
        "/badcb.jbc",
        r#"
        class BadCb
        method main/0 locals=2
            push_str "w"
            native create_window/1
            store 0
            load 0
            push_str "b"
            native add_button/2
            store 1
            load 0
            load 1
            push_str "no_such_method"
            native on_action/3
            pop
            return
        "#,
    )
    .unwrap();
    let viewer = rt
        .launch_as(
            "alice",
            "appletviewer",
            &["http://applets.example.com/badcb.jbc"],
        )
        .unwrap();
    // The applet traps during main; the viewer reports and exits... except
    // the dispatcher (created by the window) keeps the app alive. Close it.
    let toolkit = rt.toolkit().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || {
        rt.console_output().contains("no_such_method")
    }));
    if let Some(&win) = toolkit.windows_of_app(viewer.id().0).first() {
        rt.display().unwrap().inject_close(win).unwrap();
    }
    viewer.wait_for().unwrap();
    rt.shutdown();
}
