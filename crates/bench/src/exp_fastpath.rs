//! E13: the access-control fast path — what domain interning, the indexed
//! policy, and the VM-wide decision cache buy on the §5 chokepoint.
//!
//! Tables: cold-vs-warm per-check latency (the cache's headline number),
//! the hit rate a real multi-application workload achieves, what a
//! mid-workload policy reload costs (invalidation plus the first cold
//! re-check) — together with the correctness rows that make the cache
//! trustworthy: a grant added by the reload is honored and a revoked grant
//! is denied on the very next check — the parts of a check, and (E13e,
//! `BENCH_E13.json`) the chokepoint's bookkeeping where it runs: inside an
//! application thread with a running user and a trace context.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jmp_obs::{trace, SpanCategory, TraceCtx};

use jmp_security::{
    interned_domain_count, AccessContext, AccessController, CodeSource, FileActions, Permission,
    PermissionCollection, Policy, ProtectionDomain,
};
use jmp_vm::{stack, AppContext, Vm};

use crate::harness::{
    median, per_call_minima, register_app, round_minima, standard_runtime, time_ns, ARM_ROUNDS,
};
use crate::table::{fmt_ns, ok, Table};
use crate::Report;

/// Cold iterations (each preceded by a cache flush) and warm iterations,
/// per measurement pass; the best of [`PASSES`] passes is reported
/// (minimum-of-passes is the standard noise-robust latency estimator).
const COLD_ITERS: u32 = 2_000;
const WARM_ITERS: u32 = 50_000;
const PASSES: usize = 3;
/// Calls per round of the E13d arms and the E13e warm-check arm.
const ARM_CALLS: u32 = 1_000;
/// Warm hits E13e counts the spans of.
const APP_HITS: u32 = 10_000;
/// Refused checks E13e times one at a time.
const APP_DENIALS: usize = 600;

/// Runs `f` under a stack of `domains` (oldest first), like nested
/// application frames. Shared with E17, which re-measures the same warm
/// path with the demand ledger toggled.
pub(crate) fn with_frames<R>(domains: &[Arc<ProtectionDomain>], f: impl FnOnce() -> R) -> R {
    match domains.split_first() {
        None => f(),
        Some((domain, rest)) => {
            stack::call_as("Bench", Arc::clone(domain), || with_frames(rest, f))
        }
    }
}

/// The benchmark policy: a spread of file grants so the cold walk exercises
/// the permission index, all covering the demand used in the measurement.
pub(crate) fn bench_policy() -> Policy {
    let mut policy = Policy::new();
    policy.grant_code(
        CodeSource::local("file:/apps/-"),
        vec![
            Permission::file("/data/-", FileActions::READ),
            Permission::file("/tmp/-", FileActions::ALL),
            Permission::file("/etc/app.conf", FileActions::READ),
            Permission::runtime("queuePrintJob"),
        ],
    );
    policy
}

/// A stack of `n` distinct application domains resolved against `policy`.
pub(crate) fn bench_domains(vm: &Vm, n: usize) -> Vec<Arc<ProtectionDomain>> {
    (0..n)
        .map(|i| {
            let source = CodeSource::local(format!("file:/apps/bench{i}"));
            let permissions = vm.policy().permissions_for(&source);
            Arc::new(ProtectionDomain::new(source, permissions))
        })
        .collect()
}

/// E13 table 1: per-check latency with the decision cache cold (flushed
/// before every check) and warm, across stack depths.
fn latency_table() -> Table {
    let mut table = Table::new(
        "E13a",
        "access fast path — per-check latency, cold vs warm decision cache",
        &[
            "stack depth",
            "cold (full walk)",
            "warm (cached)",
            "speedup",
        ],
    );
    let demand = Permission::file("/data/report.txt", FileActions::READ);
    for depth in [1usize, 4, 8, 16, 24] {
        let vm = Vm::builder().policy(bench_policy()).build();
        let domains = bench_domains(&vm, depth);
        let [cold_ns, warm_ns] = with_frames(&domains, || {
            // Prime once so lazy structures (permission indexes, interned
            // ids) are built before either measurement.
            vm.access_check(&demand).expect("policy grants the demand");
            let check = || {
                vm.access_check(&demand).expect("granted");
            };
            round_minima(PASSES, || {
                let mut cold_total = 0.0;
                for _ in 0..COLD_ITERS {
                    vm.flush_access_cache();
                    cold_total += time_ns(check);
                }
                check(); // re-prime
                let warm_total = time_ns(|| (0..WARM_ITERS).for_each(|_| check()));
                [
                    cold_total / f64::from(COLD_ITERS),
                    warm_total / f64::from(WARM_ITERS),
                ]
            })
        });
        table.rowd(&[
            depth.to_string(),
            fmt_ns(cold_ns),
            fmt_ns(warm_ns),
            format!("{:.1}x", cold_ns / warm_ns),
        ]);
    }
    table.note("cold = decision cache flushed before every check (context snapshot +");
    table.note("full dedup walk over the indexed policy); warm = generation-memoized");
    table.note("fingerprint probe + one cache lookup. shape: warm is O(1) — flat in");
    table.note("stack depth — so the speedup grows linearly with depth, passing 5x");
    table.note("around depth 8 and 10x by depth 24. the truly cold first-check-after-");
    table.note("reload (E13c) is costlier still: the flushed number re-uses warm");
    table.note("per-domain grant indexes.");
    table.note(format!(
        "interned protection domains process-wide: {}",
        interned_domain_count()
    ));
    table
}

/// E13 table 2: the hit rate a real workload achieves — the standard
/// two-user runtime launching a batch of applications.
fn hit_rate_table() -> Table {
    let rt = standard_runtime(None);
    for _ in 0..8 {
        let app = rt.launch_as("alice", "echo", &["warm"]).expect("launches");
        app.wait_for().expect("echo exits");
    }
    let rollup = jmp_core::obs::vm_rollup(&rt).expect("harness may read metrics");
    rt.shutdown();
    let counter = |name: &str| rollup.counters.get(name).copied().unwrap_or(0);
    let (hits, misses, bypass) = (
        counter("access.cache.hits"),
        counter("access.cache.misses"),
        counter("access.cache.bypass"),
    );
    let eligible = hits + misses;
    let rate = if eligible == 0 {
        0.0
    } else {
        100.0 * hits as f64 / eligible as f64
    };
    let mut table = Table::new(
        "E13b",
        "access fast path — cache hit rate, 8 echo launches by alice",
        &["counter", "value"],
    );
    table.rowd(&["access.cache.hits", hits.to_string().as_str()]);
    table.rowd(&["access.cache.misses", misses.to_string().as_str()]);
    table.rowd(&["access.cache.bypass", bypass.to_string().as_str()]);
    table.rowd(&[
        "hit rate (hits / (hits+misses))",
        format!("{rate:.0}%").as_str(),
    ]);
    table.note("bypass counts trusted empty-stack checks and denials (denials always");
    table.note("re-walk so the audit record names the exact refusing domain). shape:");
    table.note("repeated launches of the same application re-use cached decisions.");
    table
}

/// E13 table 3: a mid-workload policy reload — invalidation cost, the first
/// cold re-check, and the correctness rows (new grant honored, revoked
/// grant denied) driven through the user-grant path, which consults the
/// live policy on every walk.
fn reload_table() -> Table {
    let mut before = bench_policy();
    before.grant_user("alice", vec![Permission::file("/a", FileActions::READ)]);
    let mut after = bench_policy();
    after.grant_user("alice", vec![Permission::file("/b", FileActions::READ)]);

    let vm = Vm::builder().policy(before).build();
    // The checks run for alice: the access check reads the running user
    // from the application context its thread carries.
    let alice = AppContext::new(1, "Editor", "alice", vm.obs().clone());
    let (rows, table) = std::sync::mpsc::channel();
    vm.thread_builder()
        .app_context(alice)
        .spawn(move |vm| rows.send(reload_rows(&vm, after)).expect("E13c table"))
        .expect("spawn the E13c thread");
    table.recv().expect("E13c table")
}

/// The E13c steps, run on alice's application thread.
fn reload_rows(vm: &Vm, after: Policy) -> Table {
    // One exercising domain: code-source grants stay fixed, user grants
    // track the live policy.
    let source = CodeSource::local("file:/apps/editor");
    let mut permissions = vm.policy().permissions_for(&source);
    permissions.add(Permission::exercise_user_permissions());
    let editor = Arc::new(ProtectionDomain::new(source, permissions));

    let read_a = Permission::file("/a", FileActions::READ);
    let read_b = Permission::file("/b", FileActions::READ);
    let steady = Permission::file("/data/report.txt", FileActions::READ);

    let mut table = Table::new(
        "E13c",
        "access fast path — mid-workload policy reload",
        &["step", "result"],
    );
    stack::call_as("Editor", Arc::clone(&editor), || {
        vm.access_check(&read_a).expect("granted before reload");
        vm.access_check(&steady).expect("granted before reload");
        // Warm both decisions.
        for _ in 0..100 {
            vm.access_check(&steady).expect("granted");
        }
    });
    // The reload happens outside the editor's frame, on a trusted (empty)
    // stack, like an administrator re-reading the policy file mid-workload.
    let start = Instant::now();
    vm.set_policy(after).expect("trusted harness reloads");
    let reload_ns = start.elapsed().as_nanos() as f64;
    table.rowd(&[
        "set_policy (parse-free swap + epoch bump)",
        fmt_ns(reload_ns).as_str(),
    ]);
    stack::call_as("Editor", editor, || {
        let start = Instant::now();
        let first = vm.access_check(&steady);
        let cold_ns = start.elapsed().as_nanos() as f64;
        table.rowd(&[
            "first post-reload check (cold re-derive)",
            format!("{} ({})", ok(first.is_ok()), fmt_ns(cold_ns)).as_str(),
        ]);
        let start = Instant::now();
        let second = vm.access_check(&steady);
        let warm_ns = start.elapsed().as_nanos() as f64;
        table.rowd(&[
            "second post-reload check (warm again)",
            format!("{} ({})", ok(second.is_ok()), fmt_ns(warm_ns)).as_str(),
        ]);
        table.rowd(&[
            "grant added by reload honored (/b)",
            ok(vm.access_check(&read_b).is_ok()),
        ]);
        table.rowd(&[
            "grant revoked by reload denied (/a)",
            ok(vm.access_check(&read_a).is_err()),
        ]);
    });
    let metrics = vm.obs().vm_metrics();
    let invalidations = metrics.counter("access.cache.invalidations").get();
    table.rowd(&[
        "access.cache.invalidations",
        invalidations.to_string().as_str(),
    ]);
    table.note("the reload is one Arc swap plus an epoch bump — no sweep over cached");
    table.note("entries; every stale decision dies at once and the next check of each");
    table.note("(context, demand, user) triple re-derives under the new policy.");
    table
}

/// E13 table 4: the parts of a check, one call at a time — the memoized
/// fingerprint probe against the context snapshot it replaces, the §5.3
/// user-grant combination, a `doPrivileged` frame cutting a deep walk
/// short, and one frame push.
fn parts_table() -> Table {
    let vm = Vm::builder().policy(bench_policy()).build();
    let domains = bench_domains(&vm, 8);
    let trusted = Arc::new(ProtectionDomain::new(
        CodeSource::local("file:/sys/bench"),
        PermissionCollection::all_permissions(),
    ));
    let exercising = Arc::new(ProtectionDomain::new(
        CodeSource::local("file:/apps/bench"),
        [Permission::exercise_user_permissions()]
            .into_iter()
            .collect(),
    ));
    let stack_of = |domain: &Arc<ProtectionDomain>, depth| {
        AccessContext::from_domains(vec![Arc::clone(domain); depth])
    };
    let (code_only, user_routed) = (stack_of(&trusted, 8), stack_of(&exercising, 8));
    let deep = stack_of(&trusted, 64);
    let privileged = stack_of(&trusted, 63).with_frame(Arc::clone(&trusted), true);
    let mut policy = Policy::new();
    let home = Permission::file("/home/alice/bench.txt", FileActions::READ);
    policy.grant_user(
        "alice",
        vec![Permission::file("/home/alice/-", FileActions::ALL)],
    );
    let tmp = Permission::file("/tmp/bench.txt", FileActions::READ);
    let granted = "the context grants the demand";
    let costs = with_frames(&domains, || {
        per_call_minima(
            ARM_ROUNDS,
            ARM_CALLS,
            [
                &mut || {
                    black_box(stack::probe_fingerprint());
                },
                &mut || {
                    black_box(stack::current_access_context().fingerprint());
                },
                &mut || {
                    AccessController::check_with(&code_only, &home, None, &policy).expect(granted)
                },
                &mut || {
                    AccessController::check_with(&user_routed, &home, Some("alice"), &policy)
                        .expect(granted)
                },
                &mut || AccessController::check(&deep, &tmp).expect(granted),
                &mut || AccessController::check(&privileged, &tmp).expect(granted),
                &mut || stack::call_as("Bench", Arc::clone(&trusted), || {}),
            ],
        )
    });
    let mut table = Table::new(
        "E13d",
        "access fast path — the parts of a check, per call",
        &["arm", "per call"],
    );
    let arms = [
        "fingerprint probe (memoized), 8 frames",
        "context snapshot + fingerprint, 8 frames",
        "code-source grant, 8-frame walk",
        "code + user grant (§5.3), 8-frame walk",
        "64-frame walk",
        "64-frame walk, doPrivileged frame on top",
        "frame push + pop (call_as)",
    ];
    for (arm, ns) in arms.into_iter().zip(costs) {
        table.rowd(&[arm.to_string(), fmt_ns(ns)]);
    }
    table.note(format!(
        "round minima of {ARM_ROUNDS} interleaved rounds x {ARM_CALLS} calls per arm."
    ));
    table.note("shape: the probe costs a fraction of the snapshot it replaces; the user path");
    table.note("adds a policy probe; a privileged frame on top flattens the 64-frame walk.");
    table
}

/// The `BENCH_E13.json` summary: the chokepoint measured in an
/// application thread running as a user inside a trace.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E13Summary {
    /// Per-call minimum of a granted, cached `check_permission` (ns).
    pub warm_check_app_ns: f64,
    /// Median of the refused checks, each with a full flight ring (µs).
    pub denied_check_app_us: f64,
    /// Spans the flight recorder took over the warm hits.
    pub warm_hit_spans: u64,
    /// Most spans in any retained audit record after the denials.
    pub incident_spans_max: usize,
    /// Whether the last denial's record holds the application's exec span.
    pub exec_span_kept: bool,
}

/// What the E13e application measured on its own thread.
struct AppThread {
    warm_ns: f64,
    denied_us: f64,
    warm_hit_spans: u64,
}

/// E13 table 5: the chokepoint in an application thread. Alice's
/// application warms a grant, counts the spans [`APP_HITS`] hits leave,
/// times the warm check, then times [`APP_DENIALS`] refused reads of bob's
/// file. The ring is filled from a foreign trace before the application
/// starts, so every denial meets a full ring, and the application's exec
/// span is newer than every filler span.
fn app_thread_table() -> (Table, E13Summary) {
    let rt = standard_runtime(None);
    let hub = rt.vm().obs().clone();
    let filler = TraceCtx {
        trace_id: trace::next_id(),
        parent_span: 0,
    };
    for _ in 0..hub.recorder().capacity() {
        hub.recorder()
            .record_with_ctx(SpanCategory::Pipe, "filler", filler, None, 1_000);
    }
    let measured = Arc::new(Mutex::new(None));
    let out = Arc::clone(&measured);
    register_app(&rt, "e13app", move |_| {
        let rt = jmp_core::MpRuntime::current().expect("on-runtime");
        let vm = rt.vm();
        let recorder = vm.obs().recorder();
        assert!(
            trace::current().is_some(),
            "the app runs in its exec's trace"
        );
        let granted = Permission::file("/home/alice/notes.txt", FileActions::READ);
        let refused = Permission::file("/home/bob/secret.txt", FileActions::READ);
        vm.check_permission(&granted)?;
        let before = recorder.recorded();
        for _ in 0..APP_HITS {
            vm.check_permission(&granted)?;
        }
        let warm_hit_spans = recorder.recorded() - before;
        let [warm_ns] = per_call_minima(
            ARM_ROUNDS,
            ARM_CALLS,
            [&mut || vm.check_permission(&granted).expect("granted")],
        );
        let mut denied_us: Vec<f64> = (0..APP_DENIALS)
            .map(|_| {
                let refusal = || {
                    vm.check_permission(&refused).expect_err("refused");
                };
                time_ns(refusal) / 1e3
            })
            .collect();
        *out.lock().expect("one writer") = Some(AppThread {
            warm_ns,
            denied_us: median(&mut denied_us),
            warm_hit_spans,
        });
        Ok(())
    });
    rt.launch_as("alice", "e13app", &[])
        .expect("the app launches")
        .wait_for()
        .expect("the app finishes");
    let records = hub.audit_query(Some("alice"), None);
    rt.shutdown();
    let run = measured
        .lock()
        .expect("one writer")
        .take()
        .expect("the app measured");
    let summary = E13Summary {
        warm_check_app_ns: run.warm_ns,
        denied_check_app_us: run.denied_us,
        warm_hit_spans: run.warm_hit_spans,
        incident_spans_max: records.iter().map(|r| r.trace.len()).max().unwrap_or(0),
        exec_span_kept: records.last().is_some_and(|r| {
            r.trace
                .iter()
                .any(|s| s.category == SpanCategory::Exec && s.name.contains("e13app"))
        }),
    };
    let mut table = Table::new(
        "E13e",
        "access fast path — the chokepoint in an application thread (user + trace)",
        &["measure", "value", "gate"],
    );
    table.rowd(&[
        "warm check, per call".to_string(),
        fmt_ns(summary.warm_check_app_ns),
        "<= 400 ns".to_string(),
    ]);
    table.rowd(&[
        format!("refused check, ring full, median of {APP_DENIALS}"),
        fmt_ns(summary.denied_check_app_us * 1e3),
        "<= 50 us".to_string(),
    ]);
    table.rowd(&[
        format!("spans recorded over {APP_HITS} warm hits"),
        summary.warm_hit_spans.to_string(),
        ok(summary.warm_hit_spans == 0).to_string(),
    ]);
    table.rowd(&[
        format!(
            "most spans in one audit record ({} retained)",
            records.len()
        ),
        summary.incident_spans_max.to_string(),
        ok(summary.incident_spans_max <= jmp_obs::INCIDENT_SPANS).to_string(),
    ]);
    table.rowd(&[
        "last record holds the app's exec span".to_string(),
        summary.exec_span_kept.to_string(),
        ok(summary.exec_span_kept).to_string(),
    ]);
    table.note(format!(
        "warm check: round minima of {ARM_ROUNDS} rounds x {ARM_CALLS} calls. a hit bumps"
    ));
    table.note("counters only (VM-wide, and the app's through a handle its context caches),");
    table.note("reads the clock one check in 64, and records no span; a denial's audit");
    table.note("record is its trace's ancestor chain plus newest spans, at most 64.");
    (table, summary)
}

/// E13: the experiment tables plus `BENCH_E13.json`.
pub fn e13_access_fastpath() -> Report {
    let (app_thread, summary) = app_thread_table();
    Report::bench(
        "BENCH_E13.json",
        &summary,
        vec![
            latency_table(),
            hit_rate_table(),
            reload_table(),
            parts_table(),
            app_thread,
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_runs_and_warm_beats_cold() {
        let _serial = crate::harness::latency_test_guard();
        let report = e13_access_fastpath();
        let tables = &report.tables;
        assert_eq!(tables.len(), 5);
        // Every functional row in the reload and app-thread tables must be ok.
        assert!(
            !tables
                .iter()
                .any(|t| t.rows.iter().flatten().any(|c| c.contains("FAILED"))),
            "E13 functional rows failed: {tables:?}"
        );
        let summary: E13Summary = report.summary("BENCH_E13.json");
        assert_eq!(summary.warm_hit_spans, 0);
        assert!(summary.incident_spans_max <= jmp_obs::INCIDENT_SPANS);
        assert!(summary.incident_spans_max > 0, "denials carry a record");
        assert!(summary.exec_span_kept);
    }
}
