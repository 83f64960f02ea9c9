//! Causal tracing integration: one trace id survives exec → AWT
//! post/dispatch → pipe write/read; the watchdog flags a blocked
//! dispatcher; the `traceVm` permission gates the flight recorder; and a
//! denial's bounded incident record still shows how the app got there.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use jmp_awt::{ComponentId, DispatchMode, Toolkit};
use jmp_core::MpRuntime;
use jmp_obs::{EventKind, SpanCategory, INCIDENT_SPANS};
use jmp_security::{FileActions, Permission, Policy};
use tests_integration::{register_app, runtime};

fn gui_runtime(mode: DispatchMode) -> MpRuntime {
    let text = format!(
        "{}\n{}",
        jmp_shell::default_policy_text(),
        r#"
        grant user "alice" { permission file "/home/alice/-" "read,write,delete"; };
        "#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&text).unwrap())
        .user("alice", "apw")
        .gui(mode)
        .build()
        .unwrap();
    jmp_shell::install(&rt).unwrap();
    rt
}

static CLICKS: AtomicUsize = AtomicUsize::new(0);
static TRACER_DONE: AtomicUsize = AtomicUsize::new(0);

#[test]
fn one_trace_id_survives_exec_dispatch_and_pipe() {
    // An application execs (rooting a trace), opens a window (permission
    // check), posts an action to itself (AWT enqueue→dispatch), and pushes
    // bytes through a pipe (write→read). Every span the flight recorder
    // collects along the way must carry the exec's trace id: causality
    // survives the thread, queue, and pipe handoffs.
    CLICKS.store(0, Ordering::SeqCst);
    let rt = gui_runtime(DispatchMode::PerApplication);
    register_app(&rt, "tracer", |_| {
        let window = jmp_core::gui::create_window("tracer")?;
        let button = window.add_button("go");
        window.on_action(button, |_| {
            CLICKS.fetch_add(1, Ordering::SeqCst);
        });
        // Post an event to our own window: the event carries this thread's
        // trace context across the queue to the dispatcher.
        let toolkit = jmp_core::gui::toolkit()?;
        toolkit.display().inject_action(window.id(), button)?;
        assert!(Toolkit::wait_until(Duration::from_secs(5), || {
            CLICKS.load(Ordering::SeqCst) == 1
        }));
        // Pipe hop: the write stamps the pipe with our context, the read
        // rides it.
        let (out, input) = jmp_core::pipes::make_pipe()?;
        out.write(b"payload")?;
        let mut buf = [0u8; 16];
        input.read(&mut buf)?;
        TRACER_DONE.store(1, Ordering::SeqCst);
        // The per-application dispatcher keeps the group non-empty, so park
        // until the test stops us.
        jmp_vm::thread::sleep(Duration::from_secs(600))
    });
    let app = rt.launch_as("alice", "tracer", &[]).unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || {
        TRACER_DONE.load(Ordering::SeqCst) == 1
    }));
    app.stop(0).unwrap();
    let _ = app.wait_for();

    // The whole ring, not an incident record: this thread is in no trace.
    let spans = rt.vm().obs().recorder().spans();
    let exec = spans
        .iter()
        .find(|s| s.category == SpanCategory::Exec && s.name.contains("tracer"))
        .expect("the exec span is on the record");
    let trace = exec.trace_id;
    for category in [
        SpanCategory::Dispatch,
        SpanCategory::Pipe,
        SpanCategory::Check,
    ] {
        assert!(
            spans
                .iter()
                .any(|s| s.category == category && s.trace_id == trace),
            "a {category} span carries the exec's trace id; got {spans:?}"
        );
    }
    // Both pipe ends are linked: the read span sits under the writer's
    // context.
    let write = spans
        .iter()
        .find(|s| s.name == "pipe.write" && s.trace_id == trace)
        .expect("pipe.write recorded");
    let read = spans
        .iter()
        .find(|s| s.name == "pipe.read" && s.trace_id == trace)
        .expect("pipe.read recorded");
    assert_eq!(write.parent, read.parent);
    rt.shutdown();
}

#[test]
fn watchdog_flags_a_blocked_dispatcher() {
    // A listener that wedges its dispatcher thread goes silent past the
    // stall threshold; the watchdog raises an event, bumps the metric, and
    // the stall shows in the registry rows.
    let rt = gui_runtime(DispatchMode::PerApplication);
    rt.vm()
        .obs()
        .watchdogs()
        .set_threshold(Duration::from_millis(200));
    register_app(&rt, "freezer", |_| {
        let window = jmp_core::gui::create_window("freezer")?;
        let button = window.add_button("wedge");
        window.on_action(button, |_| {
            // Block the dispatcher well past the threshold (interruptible,
            // so teardown still works).
            let _ = jmp_vm::thread::sleep(Duration::from_millis(800));
        });
        jmp_vm::thread::sleep(Duration::from_secs(600))
    });
    let app = rt.launch_as("alice", "freezer", &[]).unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    let window = toolkit.windows_of_app(app.id().0)[0];
    rt.display()
        .unwrap()
        .inject_action(window, ComponentId(1))
        .unwrap();

    let hub = rt.vm().obs().clone();
    assert!(
        Toolkit::wait_until(Duration::from_secs(5), || {
            hub.vm_metrics().counter("watchdog.stalls").get() >= 1
        }),
        "the stalled dispatcher is detected within the threshold"
    );
    let stall_events: Vec<_> = hub
        .sink()
        .recent()
        .into_iter()
        .filter(|e| e.kind == EventKind::Watchdog)
        .collect();
    assert!(
        !stall_events.is_empty(),
        "the stall lands on the event stream"
    );
    assert_eq!(stall_events[0].app, Some(app.id().0));
    assert!(
        hub.watchdogs()
            .rows()
            .iter()
            .any(|row| row.stalled && row.name.contains("awt-dispatch")),
        "the registry row shows the stalled dispatcher"
    );
    app.stop(0).unwrap();
    let _ = app.wait_for();
    rt.shutdown();
}

#[test]
fn trace_vm_permission_gates_the_recorder() {
    // Steering or exporting the flight recorder sees every application's
    // spans, so it demands RuntimePermission("traceVm") — granted to the
    // `system` account by the default policy, refused (and audited) for
    // ordinary users.
    let rt = runtime();
    register_app(&rt, "peeker", |_| {
        let rt = jmp_core::MpRuntime::current().unwrap();
        assert!(
            jmp_core::obs::chrome_trace(&rt).is_err(),
            "the export is gated"
        );
        assert!(
            jmp_core::obs::set_tracing(&rt, false).is_err(),
            "steering is gated"
        );
        Ok(())
    });
    rt.launch_as("bob", "peeker", &[])
        .unwrap()
        .wait_for()
        .unwrap();
    assert!(
        rt.vm()
            .obs()
            .audit_query(Some("bob"), None)
            .iter()
            .any(|r| r.permission.contains("traceVm")),
        "the refusal is audited"
    );

    register_app(&rt, "exporter", |_| {
        let rt = jmp_core::MpRuntime::current().unwrap();
        let json = jmp_core::obs::chrome_trace(&rt).expect("system may export");
        assert!(json.contains("traceEvents"));
        assert!(jmp_core::obs::tracing_enabled(&rt).expect("system may ask"));
        Ok(())
    });
    rt.launch_as("system", "exporter", &[])
        .unwrap()
        .wait_for()
        .unwrap();
    rt.shutdown();
}

#[test]
fn denials_carry_the_flight_record() {
    // A denial's audit record arrives with the recorder ring at the moment
    // of refusal — the dump-on-denial flight record.
    let rt = runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/secret.txt", b"private", alice.id())
        .unwrap();
    register_app(&rt, "snoop2", |_| {
        assert!(jmp_core::files::read("/home/alice/secret.txt").is_err());
        Ok(())
    });
    rt.launch_as("bob", "snoop2", &[])
        .unwrap()
        .wait_for()
        .unwrap();
    let denials = rt.vm().obs().audit_query(Some("bob"), None);
    assert_eq!(denials.len(), 1);
    assert!(
        !denials[0].trace.is_empty(),
        "the flight record rides the audit entry: {denials:?}"
    );
    assert!(
        denials[0]
            .trace
            .iter()
            .any(|s| s.category == SpanCategory::Exec && s.name.contains("snoop2")),
        "the record shows how we got here (the exec span): {:?}",
        denials[0].trace
    );
    rt.shutdown();
}

#[test]
fn denials_carry_the_exec_span_after_ten_thousand_warm_checks() {
    // Warm hits leave no span, so an application that hammers a granted
    // check cannot flood its own exec span out of the ring before it is
    // denied: the incident record still shows how it got there, and holds
    // at most INCIDENT_SPANS spans.
    let rt = runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/secret.txt", b"private", alice.id())
        .unwrap();
    register_app(&rt, "snoop3", |_| {
        let rt = MpRuntime::current().expect("on-runtime");
        let own = Permission::file("/home/bob/notes.txt", FileActions::READ);
        for _ in 0..10_000 {
            rt.vm().check_permission(&own)?;
        }
        assert!(jmp_core::files::read("/home/alice/secret.txt").is_err());
        Ok(())
    });
    rt.launch_as("bob", "snoop3", &[])
        .unwrap()
        .wait_for()
        .unwrap();
    let denials = rt.vm().obs().audit_query(Some("bob"), None);
    assert_eq!(denials.len(), 1);
    let record = &denials[0].trace;
    assert!(record.len() <= INCIDENT_SPANS, "{} spans", record.len());
    assert!(
        record
            .iter()
            .any(|s| s.category == SpanCategory::Exec && s.name.contains("snoop3")),
        "the exec span survives 10,000 warm checks: {record:?}"
    );
    rt.shutdown();
}
