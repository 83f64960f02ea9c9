//! E4 (Fig 5 / §5.5): per-application `System` classes over shared
//! `SystemProperties`, and what the re-load costs. E10 (§5.1):
//! stream-close ownership.

use std::sync::Arc;

use jmp_core::{pipes, Application, MpRuntime, SYSTEM_CLASS, SYSTEM_PROPERTIES_CLASS};
use jmp_vm::io::{InStream, IoToken, MemSink, OutStream};
use parking_lot::Mutex;

use crate::harness::{per_call_minima, register_app, standard_runtime, ARM_ROUNDS};
use crate::table::{fmt_ns, Table};

/// Calls per round of the E4c arms.
const ARM_CALLS: u32 = 500;

/// E4c: the §5.5 re-load against plain delegation, per call. The reload
/// arm builds a fresh child loader and defines `System` in it with new
/// statics — what every application launch pays.
fn reload_cost_table(rt: &MpRuntime) -> Table {
    let system_loader = rt.vm().system_loader();
    let delegating = system_loader.new_child("delegating");
    delegating.load_class(SYSTEM_CLASS).expect("System loads");
    let [lookup_ns, reload_ns] = per_call_minima(
        ARM_ROUNDS,
        ARM_CALLS,
        [
            &mut || drop(delegating.load_class(SYSTEM_CLASS).expect("delegates")),
            &mut || {
                let reloading = system_loader.new_child("reloading");
                reloading.add_reload(SYSTEM_CLASS);
                drop(reloading.load_class(SYSTEM_CLASS).expect("reloads"));
            },
        ],
    );
    let mut table = Table::new(
        "E4c",
        "§5.5 — per-app System re-load vs delegated lookup, per call",
        &["resolution of java.lang.System", "per call"],
    );
    table.rowd(&["delegated lookup (shared class)", &fmt_ns(lookup_ns)]);
    table.rowd(&["re-load: fresh loader + definition", &fmt_ns(reload_ns)]);
    table.note(format!(
        "round minima of {ARM_ROUNDS} rounds x {ARM_CALLS} calls per arm. shape: the re-load \
         costs well above the lookup, and both well below an application launch (E5a)"
    ));
    table
}

/// E4: class identities and state separation.
pub fn e4_system_reload() -> Vec<Table> {
    let rt = standard_runtime(None);
    let observed: Arc<Mutex<Vec<(u64, String, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let observed2 = Arc::clone(&observed);
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("sysprobe")
                .main(move |_| {
                    let app = Application::current().unwrap();
                    let sys = app.system_class().id().to_string();
                    let props = app
                        .loader()
                        .load_class(SYSTEM_PROPERTIES_CLASS)
                        .unwrap()
                        .id()
                        .to_string();
                    observed2.lock().push((app.id().0, sys, props));
                    Ok(())
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/sysprobe"),
        )
        .unwrap();
    for user in ["alice", "bob", "alice"] {
        rt.launch_as(user, "sysprobe", &[])
            .unwrap()
            .wait_for()
            .unwrap();
    }

    let mut identity = Table::new(
        "E4a",
        "Fig 5 — per-app System class, shared SystemProperties class",
        &["app", "System class identity", "SystemProperties identity"],
    );
    let rows = observed.lock().clone();
    for (app, sys, props) in &rows {
        identity.rowd(&[format!("app:{app}"), sys.clone(), props.clone()]);
    }
    let distinct_system = rows
        .iter()
        .map(|(_, s, _)| s.clone())
        .collect::<std::collections::HashSet<_>>()
        .len();
    let distinct_props = rows
        .iter()
        .map(|(_, _, p)| p.clone())
        .collect::<std::collections::HashSet<_>>()
        .len();
    identity.note(format!(
        "shape: {} apps -> {} distinct System classes (one each), {} SystemProperties class (shared).",
        rows.len(),
        distinct_system,
        distinct_props
    ));

    // Stream separation: each app writes to its own System.out.
    let sink_a = MemSink::new();
    let sink_b = MemSink::new();
    register_app(&rt, "printer", |args| {
        jmp_core::jsystem::println(&format!("output-of-{}", args[0]))?;
        Ok(())
    });
    let launch_with_sink = |label: &str, sink: &MemSink| {
        let out = OutStream::new(Arc::new(sink.clone()), IoToken::SYSTEM);
        rt.launch_with(
            "alice",
            "printer",
            &[label],
            Some(InStream::null(IoToken::SYSTEM)),
            Some(out.clone()),
            Some(out),
        )
        .unwrap()
        .wait_for()
        .unwrap();
    };
    launch_with_sink("A", &sink_a);
    launch_with_sink("B", &sink_b);
    let mut streams = Table::new(
        "E4b",
        "Per-application standard streams",
        &["app", "its System.out received"],
    );
    streams.rowd(&["A", sink_a.contents_string().trim()]);
    streams.rowd(&["B", sink_b.contents_string().trim()]);
    streams.note("shape: no cross-talk — A's output never appears on B's stream.");

    let cost = reload_cost_table(&rt);
    rt.shutdown();
    vec![identity, streams, cost]
}

/// E10: the §5.1 stream-close ownership rule.
pub fn e10_stream_ownership() -> Vec<Table> {
    let rt = standard_runtime(None);
    let mut table = Table::new(
        "E10",
        "§5.1 — applications may only close streams they opened",
        &["action", "outcome"],
    );

    let outcomes: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let outcomes2 = Arc::clone(&outcomes);
    let leaked: Arc<Mutex<Option<InStream>>> = Arc::new(Mutex::new(None));
    let leaked2 = Arc::clone(&leaked);
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("streamdemo")
                .main(move |_| {
                    let app = Application::current().unwrap();
                    let mut log = outcomes2.lock();
                    // 1. Closing the inherited stdout must fail.
                    let err = app.stdout().close(app.io_token()).unwrap_err();
                    log.push((
                        "application closes its INHERITED stdout".into(),
                        format!("rejected: {err}"),
                    ));
                    // 2. A pipe the app opened itself is closable by it.
                    let (out, input) = pipes::make_pipe().unwrap();
                    out.close(app.io_token()).unwrap();
                    log.push((
                        "application closes a pipe it OPENED".into(),
                        "allowed".into(),
                    ));
                    // 3. Leak the read end; the reaper must close it.
                    *leaked2.lock() = Some(input);
                    Ok(())
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/streamdemo"),
        )
        .unwrap();
    let app = rt.launch_as("alice", "streamdemo", &[]).unwrap();
    app.wait_for().unwrap();
    for (action, outcome) in outcomes.lock().iter() {
        table.rowd(&[action.clone(), outcome.clone()]);
    }
    let reaper_closed = leaked.lock().as_ref().is_some_and(InStream::is_closed);
    table.rowd(&[
        "reaper closes application-owned streams at teardown".to_string(),
        format!("closed: {reaper_closed}"),
    ]);
    // The shared console stream survived the application's lifetime.
    let console_alive = {
        register_app(&rt, "after", |_| {
            jmp_core::jsystem::println("console survives").map_err(Into::into)
        });
        rt.launch_as("bob", "after", &[])
            .unwrap()
            .wait_for()
            .unwrap();
        rt.console_output().contains("console survives")
    };
    table.rowd(&[
        "shared console stream survives another app's teardown".to_string(),
        format!("usable: {console_alive}"),
    ]);
    table.note("shape: inherited streams rejected, owned streams closable, reaper cleans up,");
    table.note("and co-tenants keep their shared device (the paper's terminal scenario).");
    rt.shutdown();
    vec![table]
}
