//! Data-plane integration: the ring pipe and the batched/coalescing event
//! queue exercised across crate boundaries — byte-exactness under seam
//! pressure, short-write accounting, end-to-end paint coalescing, dropped
//! events surfacing in `vmstat`, parked (not stalled) idle dispatchers, and
//! span exactness for traced pipes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use jmp_awt::{DispatchMode, Event, EventKind, Toolkit, WindowId};
use jmp_core::MpRuntime;
use jmp_obs::SpanCategory;
use jmp_security::Policy;
use jmp_shell::spawn_session;
use jmp_vm::io::{pipe, pipe_traced};
use jmp_vm::VmError;

fn gui_runtime() -> MpRuntime {
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
        .gui(DispatchMode::PerApplication)
        .build()
        .unwrap();
    jmp_shell::install(&rt).unwrap();
    rt
}

fn register_window_app(rt: &MpRuntime, name: &str) {
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder(name)
                .main(|_| {
                    let w = jmp_core::gui::create_window("data-plane")?;
                    w.add_button("b");
                    jmp_vm::thread::sleep(Duration::from_secs(600))
                })
                .build(),
            jmp_security::CodeSource::local(format!("file:/apps/{name}")),
        )
        .unwrap();
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(131).wrapping_add(i as u64 >> 7) as u8)
        .collect()
}

/// A deliberately seam-hostile ring (odd 13-byte capacity, chunk sizes
/// coprime with it) stays byte-exact across 100 KiB moved between two VM
/// threads.
#[test]
fn ring_pipe_is_byte_exact_under_seam_pressure() {
    let rt = tests_integration::runtime();
    let (writer, reader) = pipe(13);
    let data = pattern(100 * 1024);
    let expected = data.clone();

    let producer = rt
        .vm()
        .thread_builder()
        .name("seam-writer")
        .spawn(move |_| {
            let mut offset = 0;
            let mut step = 1;
            while offset < data.len() {
                let n = step.min(data.len() - offset);
                writer.write_all(&data[offset..offset + n]).unwrap();
                offset += n;
                step = step % 37 + 1;
            }
            writer.close();
        })
        .unwrap();

    let mut received = Vec::new();
    let mut buf = [0u8; 29];
    loop {
        let n = reader.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        received.extend_from_slice(&buf[..n]);
    }
    producer.join().unwrap();
    assert_eq!(received, expected);
    rt.shutdown();
}

/// The degenerate ring: capacity one still moves every byte, in order.
#[test]
fn capacity_one_pipe_moves_every_byte() {
    let rt = tests_integration::runtime();
    let (writer, reader) = pipe(1);
    let data = pattern(1000);
    let expected = data.clone();
    let producer = rt
        .vm()
        .thread_builder()
        .name("one-byte-writer")
        .spawn(move |_| {
            writer.write_all(&data).unwrap();
            writer.close();
        })
        .unwrap();
    let mut received = Vec::new();
    let mut buf = [0u8; 64];
    loop {
        let n = reader.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        received.extend_from_slice(&buf[..n]);
    }
    producer.join().unwrap();
    assert_eq!(received, expected);
    rt.shutdown();
}

/// Regression (satellite 2): a `write_all` cut short by the reader closing
/// reports how many bytes were accepted before the failure, both in the
/// variant payload and in the rendered message.
#[test]
fn short_write_reports_accepted_bytes() {
    let rt = tests_integration::runtime();
    let (writer, reader) = pipe(4);
    let (tx, rx) = std::sync::mpsc::channel();
    let producer = rt
        .vm()
        .thread_builder()
        .name("short-writer")
        .spawn(move |_| {
            let _ = tx.send(writer.write_all(&[7u8; 10]));
        })
        .unwrap();
    // Take the first buffered chunk, then hang up with the writer mid-call.
    let mut buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        got += reader.read(&mut buf[got..]).unwrap();
    }
    reader.close();
    let err = rx.recv().unwrap().unwrap_err();
    producer.join().unwrap();
    let message = err.to_string();
    match err {
        VmError::ShortWrite { accepted, cause } => {
            assert!(
                (4..10).contains(&accepted),
                "made progress but did not finish: {accepted}"
            );
            assert!(matches!(cause.as_ref(), VmError::StreamClosed));
            assert!(message.contains(&format!("{accepted} bytes accepted")));
        }
        other => panic!("expected ShortWrite, got {other:?}"),
    }
    rt.shutdown();
}

/// Traced pipes record exactly one `pipe.write` span per call (however many
/// blocking rounds it takes) and charge `pipe.read` to the writer's trace,
/// so the write→read link lines up.
#[test]
fn traced_pipe_spans_are_exact_and_linked() {
    let rt = tests_integration::runtime();
    let recorder = rt.vm().obs().recorder().clone();
    let (writer, reader) = pipe_traced(8, None, Some(recorder.clone()));

    let producer = rt
        .vm()
        .thread_builder()
        .name("traced-writer")
        .spawn(move |_| {
            let exec = recorder.begin(SpanCategory::Exec, "exec:producer", None);
            // 32 bytes through an 8-byte pipe: four blocking rounds, one call.
            writer.write_all(&[1u8; 32]).unwrap();
            drop(exec);
            jmp_obs::trace::clear();
            writer.close();
        })
        .unwrap();

    let mut sunk = 0;
    let mut buf = [0u8; 8];
    loop {
        let n = reader.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        sunk += n;
    }
    producer.join().unwrap();
    assert_eq!(sunk, 32);

    let spans = rt.vm().obs().recorder().spans();
    let writes: Vec<_> = spans.iter().filter(|s| s.name == "pipe.write").collect();
    let reads: Vec<_> = spans.iter().filter(|s| s.name == "pipe.read").collect();
    assert_eq!(writes.len(), 1, "one span per write_all call: {spans:#?}");
    assert!(!reads.is_empty());
    for read in &reads {
        assert_eq!(
            read.trace_id, writes[0].trace_id,
            "reads are charged to the writer's trace"
        );
    }
    rt.shutdown();
}

/// A paint storm injected at the display collapses before dispatch and the
/// merges land in the VM-wide `events.coalesced` rollup counter.
#[test]
fn paint_storms_coalesce_end_to_end() {
    let rt = gui_runtime();
    register_window_app(&rt, "painter");
    let app = rt.launch_as("alice", "painter", &[]).unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    let display = rt.display().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    let window = toolkit.windows_of_app(app.id().0)[0];

    // Storm until a merge is observed (batching makes back-to-back paints
    // adjacent somewhere — the display wire or the app queue — virtually
    // immediately; the loop just makes the test schedule-proof).
    let mut merged = 0;
    for _ in 0..20 {
        for _ in 0..1000 {
            display.inject_paint(window, None).unwrap();
        }
        let rollup = jmp_core::obs::vm_rollup(&rt).unwrap();
        merged = rollup
            .counters
            .get("events.coalesced")
            .copied()
            .unwrap_or(0);
        if merged > 0 {
            break;
        }
    }
    assert!(merged > 0, "a 20k-paint storm must coalesce somewhere");
    app.stop(0).unwrap();
    let _ = app.wait_for();
    rt.shutdown();
}

/// Satellite 1: pushes to a closed (torn-down) application queue are counted
/// as dropped, and the counter surfaces in the shell's `vmstat`.
#[test]
fn post_close_pushes_surface_as_dropped_in_vmstat() {
    let rt = gui_runtime();
    register_window_app(&rt, "dropper");
    let app = rt.launch_as("alice", "dropper", &[]).unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    let tag = app.id().0;
    let queue = toolkit.queue_of(tag).unwrap();

    app.stop(0).unwrap();
    app.wait_for().unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || queue.is_closed()));
    // A late event from a racing producer: dropped, not delivered.
    queue.push(Event::new(WindowId(999), None, EventKind::Paint));
    assert_eq!(queue.total_dropped(), 1);
    let rollup = jmp_core::obs::vm_rollup(&rt).unwrap();
    assert!(rollup.counters.get("events.dropped").copied().unwrap_or(0) >= 1);

    // And the operator can see it: a system-account shell's vmstat prints
    // the rollup counter (readMetrics is granted to `system` only).
    let (terminal, session) = spawn_session(&rt, "shell", &[]).unwrap();
    for line in ["vmstat", "quit"] {
        terminal.type_line(line).unwrap();
    }
    terminal.type_eof();
    session.wait_for().unwrap();
    let screen = terminal.screen_text();
    assert!(
        screen.contains("events.dropped"),
        "vmstat lists the drop counter:\n{screen}"
    );
    rt.shutdown();
}

static CLICKS: AtomicUsize = AtomicUsize::new(0);

/// Idle dispatchers park: the watchdog reports them parked (not stalled),
/// they accrue zero idle wakeups, and they still dispatch promptly when an
/// event finally arrives.
#[test]
fn idle_dispatchers_park_without_wakeups() {
    CLICKS.store(0, Ordering::SeqCst);
    let rt = gui_runtime();
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("clicker")
                .main(|_| {
                    let w = jmp_core::gui::create_window("idle")?;
                    let b = w.add_button("go");
                    w.on_action(b, |_| {
                        CLICKS.fetch_add(1, Ordering::SeqCst);
                    });
                    jmp_vm::thread::sleep(Duration::from_secs(600))
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/clicker"),
        )
        .unwrap();
    let app = rt.launch_as("alice", "clicker", &[]).unwrap();
    let toolkit = rt.toolkit().unwrap().clone();
    let display = rt.display().unwrap().clone();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || toolkit
        .window_count()
        == 1));
    let tag = app.id().0;
    let queue = toolkit.queue_of(tag).unwrap();

    // Let everything go idle, then look at the watchdog table: the
    // dispatcher and the input thread sit parked, nobody is stalled, and
    // the idle interval cost zero queue wakeups.
    std::thread::sleep(Duration::from_millis(150));
    let rows = jmp_core::obs::watchdog_rows(&rt).unwrap();
    let dispatcher = rows
        .iter()
        .find(|r| r.name.contains("dispatch") && r.app == Some(tag))
        .unwrap_or_else(|| panic!("dispatcher row present: {rows:#?}"));
    assert!(dispatcher.parked, "idle dispatcher parks: {dispatcher:#?}");
    assert!(
        !dispatcher.stalled,
        "parked is not stalled: {dispatcher:#?}"
    );
    let input = rows.iter().find(|r| r.name == "awt-input").unwrap();
    assert!(input.parked && !input.stalled);
    assert_eq!(queue.idle_wakeups(), 0, "idle must cost zero wakeups");

    // Parked, not dead: a click still lands.
    let window = toolkit.windows_of_app(tag)[0];
    display
        .inject_action(window, jmp_awt::ComponentId(1))
        .unwrap();
    assert!(Toolkit::wait_until(Duration::from_secs(5), || CLICKS
        .load(Ordering::SeqCst)
        == 1));
    app.stop(0).unwrap();
    let _ = app.wait_for();
    rt.shutdown();
}
