//! E11: the observability hub end to end — a scripted session generates
//! security checks, a denial, pipe traffic and application lifecycle
//! events, and the hub's snapshot is checked (and exported in
//! `experiments-run.json`) — plus what the hooks cost per call.

use std::sync::Arc;
use std::time::Duration;

use jmp_obs::{CacheOutcome, Counter, EventKind, EventSink, HubSnapshot, ObsHub, ProfileReport};
use jmp_security::{
    AccessController, CodeSource, Permission, PermissionCollection, ProtectionDomain,
};
use jmp_shell::spawn_login_session;
use jmp_vm::{stack, Vm};

use crate::harness::{per_call_minima, standard_runtime, ARM_ROUNDS};
use crate::table::{fmt_ns, Table};

/// Calls per round of the hook-cost arms.
const ARM_CALLS: u32 = 2_000;

/// Runs the scripted session and samples the hub while the session is
/// still live (reaping an application drops its per-app registry, so the
/// snapshot must be taken before `quit`).
fn scripted_session() -> (Vec<Table>, HubSnapshot, ProfileReport) {
    let rt = standard_runtime(None);
    let bob = rt.users().lookup("bob").expect("bob exists");
    rt.vfs()
        .write("/home/bob/secret.txt", b"s3cr3t", bob.id())
        .expect("bob's file lands");

    let (terminal, session) = spawn_login_session(&rt).expect("session starts");
    for line in [
        "alice",
        "apw",
        "echo pipe-payload | wc",
        "cat /home/bob/secret.txt",
        "top",
    ] {
        terminal.type_line(line).expect("typing works");
    }
    // `top` is alice's last command and she is denied; once its refusal is
    // on screen every earlier command has finished too.
    let settled = jmp_awt::Toolkit::wait_until(Duration::from_secs(10), || {
        terminal.screen_text().contains("top: ")
    });
    assert!(settled, "session script did not settle");

    // The harness thread is trusted (empty stack), so the gated read-out
    // grants here even though alice was just refused the same call.
    let snapshot = jmp_core::obs::vm_snapshot(&rt).expect("harness may read metrics");
    let rollup = jmp_core::obs::vm_rollup(&rt).expect("harness may read metrics");
    let audit = jmp_core::obs::audit_records(&rt, None, None).expect("harness may read audit");
    let rows = jmp_core::obs::top_rows(&rt).expect("harness may read top");
    let profile = jmp_core::obs::profile_report(&rt).expect("harness may read the profile");

    terminal.type_line("quit").expect("typing works");
    terminal.type_eof();
    session.wait_for().expect("session ends");
    rt.shutdown();

    let counter = |name: &str| rollup.counters.get(name).copied().unwrap_or(0);
    let mut table = Table::new(
        "E11",
        "observability — one audited session, hub totals",
        &["check", "outcome"],
    );
    let checks: &[(&str, bool)] = &[
        ("security checks counted", counter("security.checks") > 0),
        ("denials counted", counter("security.denied") > 0),
        ("applications execed", counter("apps.execed") > 0),
        ("pipe bytes charged", counter("pipe.bytes") > 0),
        ("classes defined", counter("classes.defined") > 0),
        ("check latency histogram populated", {
            rollup
                .histograms
                .get("security.check_ns")
                .is_some_and(|h| h.count > 0)
        }),
        ("events published", snapshot.events_published > 0),
        (
            "alice's denied file read audited",
            audit
                .iter()
                .any(|r| r.user.as_deref() == Some("alice") && r.permission.contains("/home/bob")),
        ),
        (
            "alice's denied top audited",
            audit.iter().any(|r| {
                r.user.as_deref() == Some("alice") && r.permission.contains("readMetrics")
            }),
        ),
        (
            "per-application registries live",
            !snapshot.apps.is_empty() && rows.iter().any(|r| r.name == "shell"),
        ),
    ];
    for (name, ok) in checks {
        table.rowd(&[
            (*name).to_string(),
            if *ok { "ok" } else { "FAILED" }.to_string(),
        ]);
    }
    table.note(format!(
        "rollup: checks={} denied={} execed={} pipe.bytes={} events={} audited={}",
        counter("security.checks"),
        counter("security.denied"),
        counter("apps.execed"),
        counter("pipe.bytes"),
        snapshot.events_published,
        snapshot.audit_total,
    ));
    (vec![table], snapshot, profile)
}

/// E11: the session's checks, then the per-call cost of the hooks: an
/// event publish and the hub's granted-check accounting, each with the
/// event sink live and disabled, and a granted check through the
/// instrumented `Vm` chokepoint against the bare controller walk it wraps.
pub fn e11_observability() -> Vec<Table> {
    let mut tables = scripted_session().0;
    let (live_sink, off_sink) = (EventSink::new(1024), EventSink::disabled());
    let (live_hub, off_hub) = (ObsHub::new(), ObsHub::with_sink(EventSink::disabled()));
    // The warm-hit record, as `Vm::access_check` makes it for an app thread.
    let app_checks = Counter::new();
    let account = |hub: &ObsHub| {
        hub.record_access_hit(CacheOutcome::Hit, Some(&app_checks), None);
    };
    let vm = Vm::new();
    let demand = Permission::runtime("benchPermission");
    let trusted = Arc::new(ProtectionDomain::new(
        CodeSource::local("file:/sys/bench"),
        PermissionCollection::all_permissions(),
    ));
    let costs = stack::call_as("Bench", trusted, || {
        per_call_minima(
            ARM_ROUNDS,
            ARM_CALLS,
            [
                &mut || live_sink.publish(EventKind::ClassDefined, Some(1), None, "Bench"),
                &mut || off_sink.publish(EventKind::ClassDefined, Some(1), None, "Bench"),
                &mut || account(&live_hub),
                &mut || account(&off_hub),
                &mut || vm.check_permission(&demand).expect("trusted"),
                &mut || {
                    AccessController::check(&stack::current_access_context(), &demand)
                        .expect("trusted")
                },
            ],
        )
    });
    vm.exit_unchecked(0);
    let arms = [
        "cost: event publish, sink live",
        "cost: event publish, sink disabled",
        "cost: granted-check accounting, sink live",
        "cost: granted-check accounting, sink disabled",
        "cost: granted check, instrumented Vm chokepoint",
        "cost: granted check, bare controller walk",
    ];
    let table = &mut tables[0];
    for (arm, ns) in arms.into_iter().zip(costs) {
        table.rowd(&[arm.to_string(), fmt_ns(ns)]);
    }
    table.note(format!(
        "cost rows: round minima of {ARM_ROUNDS} rounds x {ARM_CALLS} calls per arm. shape: a \
         disabled publish is one atomic load; accounting is the same with the sink on or off \
         (granted checks publish nothing); the instrumented check pays that accounting, and \
         the decision cache, on top of the walk"
    ));
    tables
}

/// The metrics snapshot and profiler report `experiments-run.json` embeds
/// alongside the tables.
pub fn session_snapshot() -> (HubSnapshot, ProfileReport) {
    let (_, snapshot, profile) = scripted_session();
    (snapshot, profile)
}
