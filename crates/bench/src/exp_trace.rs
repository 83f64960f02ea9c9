//! E12: tracing overhead — the flight recorder on vs off on the two hot
//! paths it instruments (security access checks and AWT event dispatch)
//! and at a bare span site — plus the Chrome `trace_event` export of a
//! scripted scenario (`e12-chrome-trace.json`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jmp_awt::{DispatchMode, Toolkit};
use jmp_obs::{trace, FlightRecorder, SpanCategory, TraceCtx};
use jmp_security::Permission;

use crate::harness::{
    per_call_minima, register_app, round_minima, standard_runtime, time_ns, ARM_ROUNDS,
};
use crate::table::{fmt_ns, Table};
use crate::{Artifact, Report};

/// Granted permission checks per loop.
const CHECKS: u32 = 20_000;
/// Rounds of the access-check arms: each times a recorder-off loop, then a
/// recorder-on loop.
const CHECK_ROUNDS: usize = 7;
/// Events pushed through the dispatcher per measurement.
const EVENTS: usize = 400;
/// Calls per round of the span-site arms.
const SPAN_CALLS: u32 = 2_000;

static CHECK_NS: Mutex<[f64; 2]> = Mutex::new([0.0; 2]);
static DISPATCH_NS: AtomicU64 = AtomicU64::new(0);
static DELIVERED: AtomicUsize = AtomicUsize::new(0);
static SAMPLE_CLICKS: AtomicUsize = AtomicUsize::new(0);
static SAMPLE_DONE: AtomicUsize = AtomicUsize::new(0);

/// Per-check cost of `Vm::check_permission` with the recorder off and on,
/// `[off_ns, on_ns]`: both arms run in one application thread (which
/// carries a trace context, so the recorder-on path really records), one
/// loop each per round, and each arm keeps its round minimum.
fn measured_check_ns() -> [f64; 2] {
    let rt = standard_runtime(None);
    *CHECK_NS.lock().expect("unpoisoned") = [0.0; 2];
    register_app(&rt, "checker", |_| {
        let rt = jmp_core::MpRuntime::current().expect("on-runtime");
        let permission = Permission::runtime("execApplication");
        let arm = |tracing: bool| {
            rt.vm().obs().recorder().set_enabled(tracing);
            time_ns(|| {
                for _ in 0..CHECKS {
                    rt.vm()
                        .check_permission(&permission)
                        .expect("the checker holds execApplication");
                }
            }) / f64::from(CHECKS)
        };
        let best = round_minima(CHECK_ROUNDS, || [arm(false), arm(true)]);
        *CHECK_NS.lock().expect("unpoisoned") = best;
        Ok(())
    });
    rt.launch_as("alice", "checker", &[])
        .expect("checker launches")
        .wait_for()
        .expect("checker finishes");
    rt.shutdown();
    let best = *CHECK_NS.lock().expect("unpoisoned");
    assert!(best.iter().all(|&ns| ns > 0.0), "the checker ran: {best:?}");
    best
}

/// Per-event cost of posting an action to our own window and having the
/// per-application dispatcher deliver it (queue hop + listener fan-out,
/// spanned when tracing is on).
fn measured_dispatch_ns(tracing: bool) -> f64 {
    let rt = standard_runtime(Some(DispatchMode::PerApplication));
    rt.vm().obs().recorder().set_enabled(tracing);
    DISPATCH_NS.store(0, Ordering::SeqCst);
    DELIVERED.store(0, Ordering::SeqCst);
    register_app(&rt, "pump", |_| {
        let window = jmp_core::gui::create_window("pump")?;
        let button = window.add_button("b");
        window.on_action(button, |_| {
            DELIVERED.fetch_add(1, Ordering::SeqCst);
        });
        let toolkit = jmp_core::gui::toolkit()?;
        let start = Instant::now();
        for _ in 0..EVENTS {
            toolkit.display().inject_action(window.id(), button)?;
        }
        assert!(Toolkit::wait_until(Duration::from_secs(30), || {
            DELIVERED.load(Ordering::SeqCst) == EVENTS
        }));
        DISPATCH_NS.store(start.elapsed().as_nanos() as u64, Ordering::SeqCst);
        // The per-application dispatcher keeps the group alive; park until
        // the harness stops us.
        jmp_vm::thread::sleep(Duration::from_secs(600))
    });
    let app = rt.launch_as("alice", "pump", &[]).expect("pump launches");
    assert!(Toolkit::wait_until(Duration::from_secs(60), || {
        DISPATCH_NS.load(Ordering::SeqCst) > 0
    }));
    app.stop(0).expect("pump stops");
    let _ = app.wait_for();
    rt.shutdown();
    DISPATCH_NS.load(Ordering::SeqCst) as f64 / EVENTS as f64
}

/// E12: the experiment table, plus `e12-chrome-trace.json` (see
/// [`chrome_trace_sample`]).
pub fn e12_trace_overhead() -> Report {
    let mut table = Table::new(
        "E12",
        "tracing on vs off — per-op cost of the instrumented hot paths",
        &["path", "recorder off", "recorder on", "delta"],
    );
    let mut row = |name: &str, off: f64, on: f64| {
        let pct = if off > 0.0 {
            (on / off - 1.0) * 100.0
        } else {
            0.0
        };
        table.rowd(&[
            name.to_string(),
            fmt_ns(off),
            fmt_ns(on),
            format!("{pct:+.1}%"),
        ]);
    };
    let [check_off, check_on] = measured_check_ns();
    row("granted access check", check_off, check_on);
    row(
        "AWT post→dispatch",
        measured_dispatch_ns(false),
        measured_dispatch_ns(true),
    );

    // A bare span site under an installed trace context: a finished span
    // recorded into a live and a disabled ring, and a disabled `begin`.
    let (live, off) = (FlightRecorder::new(2048), FlightRecorder::new(2048));
    off.set_enabled(false);
    trace::install(Some(TraceCtx {
        trace_id: 1,
        parent_span: 1,
    }));
    let span = |recorder: &FlightRecorder| {
        recorder.record_latency(SpanCategory::Check, "span", Some(1), 250);
    };
    let [off_ns, on_ns, begin_ns] = per_call_minima(
        ARM_ROUNDS,
        SPAN_CALLS,
        [&mut || span(&off), &mut || span(&live), &mut || {
            assert!(off.begin(SpanCategory::Exec, "span", None).is_none());
        }],
    );
    trace::clear();
    row("span site: record_latency", off_ns, on_ns);
    table.rowd(&["span site: begin", &fmt_ns(begin_ns), "-", "-"]);
    table.note("recorder off must cost ~one relaxed atomic load per span site;");
    table.note("recorder on pays one ring push (mutex + VecDeque) per span.");
    table.note(format!(
        "access-check row: round minima of {CHECK_ROUNDS} rounds x {CHECKS} checks per arm, \
         both arms in one application thread."
    ));
    table.note(format!(
        "span-site rows: round minima of {ARM_ROUNDS} rounds x {SPAN_CALLS} calls per arm."
    ));
    Report {
        tables: vec![table],
        artifacts: vec![Artifact {
            name: "e12-chrome-trace.json",
            contents: chrome_trace_sample(),
        }],
    }
}

/// Runs a small scripted scenario — exec, a window action posted to the
/// application's own queue, and a pipe round-trip — and exports the flight
/// recorder's ring as Chrome `trace_event` JSON. The export spans at least
/// the exec, dispatch, and pipe categories, all under one trace id.
pub fn chrome_trace_sample() -> String {
    let rt = standard_runtime(Some(DispatchMode::PerApplication));
    SAMPLE_CLICKS.store(0, Ordering::SeqCst);
    SAMPLE_DONE.store(0, Ordering::SeqCst);
    register_app(&rt, "sample", |_| {
        let window = jmp_core::gui::create_window("sample")?;
        let button = window.add_button("go");
        window.on_action(button, |_| {
            SAMPLE_CLICKS.fetch_add(1, Ordering::SeqCst);
        });
        let toolkit = jmp_core::gui::toolkit()?;
        toolkit.display().inject_action(window.id(), button)?;
        assert!(Toolkit::wait_until(Duration::from_secs(10), || {
            SAMPLE_CLICKS.load(Ordering::SeqCst) == 1
        }));
        let (out, input) = jmp_core::pipes::make_pipe()?;
        out.write(b"sample-payload")?;
        let mut buf = [0u8; 32];
        input.read(&mut buf)?;
        SAMPLE_DONE.store(1, Ordering::SeqCst);
        jmp_vm::thread::sleep(Duration::from_secs(600))
    });
    let app = rt
        .launch_as("alice", "sample", &[])
        .expect("sample launches");
    assert!(Toolkit::wait_until(Duration::from_secs(30), || {
        SAMPLE_DONE.load(Ordering::SeqCst) == 1
    }));
    let json = rt.vm().obs().recorder().export_chrome_trace();
    app.stop(0).expect("sample stops");
    let _ = app.wait_for();
    rt.shutdown();
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_sample_covers_three_categories() {
        let json = chrome_trace_sample();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("export is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(serde_json::Value::as_seq)
            .expect("traceEvents array")
            .to_vec();
        for category in ["exec", "dispatch", "pipe"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("cat").and_then(serde_json::Value::as_str) == Some(category)),
                "the sample covers the {category} category"
            );
        }
    }
}
