//! E16: the always-on profiler — baseline opcode mix of two concurrent
//! applications with distinct workloads, the sampled stacks the VM
//! profiler thread collects for them, and the accounting overhead.
//!
//! Four tables:
//!
//! * **E16a** — per-view opcode accounting: instructions, apportioned
//!   cost, and the busiest opcodes, VM-wide and for each application
//!   (arithmetic-heavy `cruncher` vs string/native-heavy `mixer` — the
//!   mixes must differ, or attribution is broken). A churn phase then runs
//!   more interpreted applications than the profiler keeps reaped views
//!   for, and counts the reaped views a report still holds (the CI gate
//!   is ≤ [`REAPED_VIEWS`]).
//! * **E16b** — sampled collapsed stacks per view: distinct stacks and the
//!   heaviest stack with its sampled weight.
//! * **E16c** — accounting overhead on a direct interpreter (no VM):
//!   per-instruction cost with accounting off vs on, interleaved runs,
//!   round minima. The CI gate on the exported summary is ≤5% (release
//!   build).
//! * **E16d** — sampling overhead on recursive code: `fib(16)` (3,193
//!   interpreted calls) on two interpreters with accounting on, one
//!   publishing a frame per call and return, interleaved rounds, round
//!   minima. The CI gate is ≤25%.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jmp_core::AppId;
use jmp_obs::{ProfileReport, Profiler, REAPED_VIEWS};
use jmp_vm::interp::{assemble, Interpreter, NativeHost, NoNatives, Value};

use crate::exp_interp::FIB;
use crate::harness::{
    await_earlier_reaps, per_call_minima, register_app, standard_runtime, wire_insns, SUM_LOOP,
};
use crate::table::Table;
use crate::{Artifact, Report};

/// String/native-heavy workload: `concat` and `native` dominated.
const MIX: &str = r#"
    class Mix
    method main/1 locals=2
    loop:
        load 0
        push_int 0
        gt
        jump_if_false done
        push_str "x="
        load 0
        concat
        store 1
        push_int 1
        native ping/1
        pop
        load 0
        push_int 1
        sub
        store 0
        jump loop
    done:
        load 1
        return_value
"#;

/// Iterations per interpreter run inside the applications.
const APP_N: i64 = 5_000;
/// Stack samples (beyond the pre-run baseline) to wait for before
/// stopping the applications; at the 10ms default interval this bounds
/// the scenario to a few hundred milliseconds.
const SAMPLES_WANTED: u64 = 8;
/// Hard cap on the scenario, for loaded machines.
const SCENARIO_TIMEOUT: Duration = Duration::from_secs(20);

/// Short interpreted applications the churn phase runs and reaps: more
/// than the profiler keeps reaped views for.
const CHURN_APPS: usize = REAPED_VIEWS + 16;

/// The churn phase's application: a 100-iteration counting loop.
const CHURN: &str = r#"
    class Churn
    method main/0 locals=1
        push_int 0
        store 0
    loop:
        load 0
        push_int 1
        add
        store 0
        load 0
        push_int 100
        lt
        jump_if_true loop
        load 0
        return_value
"#;

/// Interleaved off/on rounds for the overhead measurement. Each round is
/// a few hundred microseconds, so a generous count is cheap and gives
/// the round minima plenty of chances to land on a quiet slice.
const OVERHEAD_ROUNDS: usize = 41;
/// Iterations per overhead run.
const OVERHEAD_N: i64 = 40_000;

/// `fib` argument for the sampling overhead: 3,193 calls per run.
const SAMPLING_FIB_N: i64 = 16;
/// Interleaved off/on rounds for the sampling overhead. A round is about
/// 0.2 ms, so many rounds are cheap, and they give both arms' minima a
/// chance to land in the same quiet slice when the host's speed drifts.
const SAMPLING_ROUNDS: usize = 101;

static STOP: AtomicBool = AtomicBool::new(false);

/// A native host that answers every call with `1`, unchecked.
pub(crate) struct Ping;
impl NativeHost for Ping {
    fn invoke(&self, _name: &str, _args: Vec<Value>) -> jmp_vm::Result<Value> {
        Ok(Value::Int(1))
    }
}

/// Scalar results of E16, exported as `BENCH_E16.json` for CI gates.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E16Summary {
    /// Instructions accounted VM-wide.
    pub vm_instructions: u64,
    /// Applications with their own profile view.
    pub apps_profiled: usize,
    /// Interpreted applications the churn phase ran and reaped.
    pub churn_apps: usize,
    /// Views of reaped applications a report holds after the churn phase
    /// (the CI gate is ≤ [`REAPED_VIEWS`]).
    pub retained_app_views: usize,
    /// The VM-wide busiest opcode by apportioned cost.
    pub top_opcode: String,
    /// Distinct collapsed stacks sampled VM-wide.
    pub distinct_stacks: usize,
    /// Stack samples the profiler thread took during the scenario.
    pub samples_taken: u64,
    /// Accounting batches flushed at safepoints.
    pub flushes: u64,
    /// Round-minimum per-instruction cost with accounting off (ns).
    pub accounting_off_ns: f64,
    /// Round-minimum per-instruction cost with accounting on (ns).
    pub accounting_on_ns: f64,
    /// `(on/off - 1) * 100` — the CI gate is ≤5% on release builds.
    pub overhead_pct: f64,
    /// Round-minimum `fib(16)` run with sampling off (µs; accounting on).
    pub sampling_off_us: f64,
    /// Round-minimum `fib(16)` run with sampling on (µs; accounting on).
    pub sampling_on_us: f64,
    /// `(on/off - 1) * 100` — the CI gate is ≤25%.
    pub sampling_overhead_pct: f64,
}

/// `BENCH_E16.json`: the scalar summary, the full [`ProfileReport`] of the
/// scenario, and its flamegraph.pl collapsed-stack rendering (also written
/// alone as `e16-flame.txt`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E16Artifacts {
    /// Scalar summary (CI gates).
    pub summary: E16Summary,
    /// The full profile report of the two-application scenario.
    pub report: ProfileReport,
    /// VM-wide flamegraph.pl collapsed-stack text.
    pub flamegraph: String,
}

/// Runs the two-application scenario and returns the profile report taken
/// after both applications finished, then the churn phase, returning how
/// many reaped applications' views the report after it holds.
fn scenario_report() -> (ProfileReport, usize) {
    let rt = standard_runtime(None);
    let profiler = rt.vm().obs().profiler().clone();
    profiler.reset();
    let samples_base = profiler.samples_taken();
    STOP.store(false, Ordering::SeqCst);

    let crunch_image = Arc::new(assemble(SUM_LOOP).expect("sum assembles"));
    register_app(&rt, "cruncher", move |_| {
        let interp = Interpreter::new(Arc::clone(&crunch_image), Arc::new(NoNatives))?;
        while !STOP.load(Ordering::SeqCst) {
            interp.run("main", vec![Value::Int(APP_N)])?;
        }
        Ok(())
    });
    let mix_image = Arc::new(assemble(MIX).expect("mix assembles"));
    register_app(&rt, "mixer", move |_| {
        let interp = Interpreter::new(Arc::clone(&mix_image), Arc::new(Ping))?;
        while !STOP.load(Ordering::SeqCst) {
            interp.run("main", vec![Value::Int(APP_N)])?;
        }
        Ok(())
    });

    let cruncher = rt
        .launch_as("alice", "cruncher", &[])
        .expect("cruncher launches");
    let mixer = rt.launch_as("bob", "mixer", &[]).expect("mixer launches");

    // Let the VM profiler thread observe both applications' stacks, then
    // stop them.
    let deadline = Instant::now() + SCENARIO_TIMEOUT;
    while profiler.samples_taken() < samples_base + SAMPLES_WANTED && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    STOP.store(true, Ordering::SeqCst);
    cruncher.wait_for().expect("cruncher finishes");
    mixer.wait_for().expect("mixer finishes");

    // Read through the permission-gated facade (the harness thread has an
    // empty stack, i.e. full host trust) so the gate is exercised too.
    let report = jmp_core::obs::profile_report(&rt).expect("host context reads the profile");

    // Churn: every reaped application's view beyond the newest
    // `REAPED_VIEWS` must be dropped.
    let churn = assemble(CHURN).expect("churn assembles");
    for _ in 0..CHURN_APPS {
        let app = rt
            .launch_image("alice", churn.clone(), &[])
            .expect("churn app launches");
        app.wait_for().expect("churn app finishes");
    }
    await_earlier_reaps(&rt);
    let retained = jmp_core::obs::profile_report(&rt)
        .expect("host context reads the profile")
        .apps
        .iter()
        .filter(|view| {
            view.app
                .is_some_and(|id| rt.application(AppId(id)).is_none())
        })
        .count();
    rt.shutdown();
    (report, retained)
}

/// Measures per-instruction cost with accounting off vs on, on a direct
/// interpreter with an explicit profiler (no VM), interleaved rounds.
/// Returns the `[off_ns, on_ns]` round *minima*: scheduler noise only
/// ever adds time, so the minimum estimates the intrinsic cost and keeps
/// the CI overhead gate stable on loaded machines (medians were seen
/// drifting several percent run to run under background load).
fn measured_overhead() -> [f64; 2] {
    let image = Arc::new(assemble(SUM_LOOP).expect("sum assembles"));
    let off_profiler = Profiler::new();
    off_profiler.set_enabled(false);
    let off = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives))
        .expect("off interpreter builds")
        .with_profiler(off_profiler);
    let on_profiler = Profiler::new();
    on_profiler.set_sampling(false);
    let on = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives))
        .expect("on interpreter builds")
        .with_profiler(on_profiler);

    let run = |i: &Interpreter| i.run("main", vec![Value::Int(OVERHEAD_N)]).expect("runs");
    // Warm-up, and count the instructions one run executes.
    run(&off);
    run(&on);
    let insns_per_run = wire_insns(off.stats(), || drop(run(&off))) as f64;

    let arms: [&mut dyn FnMut(); 2] = [&mut || drop(run(&off)), &mut || drop(run(&on))];
    per_call_minima(OVERHEAD_ROUNDS, 1, arms).map(|ns| ns / insns_per_run)
}

/// Times recursive `fib` with stack sampling off vs on (accounting on in
/// both), on direct interpreters with explicit profilers, interleaved
/// rounds. Returns the `[off_ns, on_ns]` per-run round minima. With no
/// sampler thread attached, the difference is what publishing a frame per
/// interpreted call and return costs.
fn measured_sampling_overhead() -> [f64; 2] {
    let image = Arc::new(assemble(FIB).expect("fib assembles"));
    let off_profiler = Profiler::new();
    off_profiler.set_sampling(false);
    let off = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives))
        .expect("off interpreter builds")
        .with_profiler(off_profiler);
    let on = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives))
        .expect("on interpreter builds")
        .with_profiler(Profiler::new());
    let run = |i: &Interpreter| {
        i.run("main", vec![Value::Int(SAMPLING_FIB_N)])
            .expect("runs")
    };
    run(&off);
    run(&on);
    let arms: [&mut dyn FnMut(); 2] = [&mut || drop(run(&off)), &mut || drop(run(&on))];
    per_call_minima(SAMPLING_ROUNDS, 1, arms)
}

/// `(on / off - 1) * 100`, or 0 without a baseline.
fn overhead(off: f64, on: f64) -> f64 {
    if off > 0.0 {
        (on / off - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Runs E16: the tables plus `BENCH_E16.json` and `e16-flame.txt`.
pub fn e16_profile() -> Report {
    let (report, retained_app_views) = scenario_report();
    let [off_ns, on_ns] = measured_overhead();
    let overhead_pct = overhead(off_ns, on_ns);
    let [sampling_off_ns, sampling_on_ns] = measured_sampling_overhead();
    let sampling_overhead_pct = overhead(sampling_off_ns, sampling_on_ns);

    let mut e16a = Table::new(
        "E16a",
        "per-opcode accounting — two concurrent applications, distinct mixes",
        &["view", "instructions", "cost ms", "busiest opcodes (count)"],
    );
    let views: Vec<&jmp_obs::ProfileView> = std::iter::once(&report.vm)
        .chain(report.apps.iter())
        .collect();
    for view in &views {
        let busiest: Vec<String> = view
            .top_opcodes(3)
            .iter()
            .map(|o| format!("{} ({})", o.opcode, o.count))
            .collect();
        e16a.rowd(&[
            view.label.clone(),
            view.instructions.to_string(),
            format!("{:.2}", view.cost_ns as f64 / 1e6),
            busiest.join(", "),
        ]);
    }
    e16a.note("cost is wall time apportioned over the batch by opcode weight;");
    e16a.note("the two applications must show different dominant opcodes.");
    e16a.note(format!(
        "after {CHURN_APPS} more interpreted apps ran and were reaped, a report holds \
         {retained_app_views} reaped apps' views (at most {REAPED_VIEWS} are kept)."
    ));

    let mut e16b = Table::new(
        "E16b",
        "sampled collapsed stacks (profiler thread, 10ms interval)",
        &["view", "stacks", "heaviest stack", "weight us"],
    );
    for view in &views {
        let heaviest = view.stacks.iter().max_by_key(|(_, w)| **w);
        e16b.rowd(&[
            view.label.clone(),
            view.stacks.len().to_string(),
            heaviest.map_or_else(|| "-".to_string(), |(k, _)| k.clone()),
            heaviest.map_or_else(|| "0".to_string(), |(_, w)| w.to_string()),
        ]);
    }
    e16b.note("stack keys are flamegraph.pl collapsed frames (Class;Class.method).");

    let mut e16c = Table::new(
        "E16c",
        "accounting overhead on the interpreter hot loop (no VM)",
        &["accounting off", "accounting on", "delta"],
    );
    e16c.rowd(&[
        format!("{off_ns:.1} ns/insn"),
        format!("{on_ns:.1} ns/insn"),
        format!("{overhead_pct:+.1}%"),
    ]);
    e16c.note("interleaved runs, round minima; the CI budget is +5% on release builds.");

    let mut e16d = Table::new(
        "E16d",
        "sampling overhead on recursive calls (no VM, accounting on)",
        &["workload", "sampling off", "sampling on", "delta"],
    );
    e16d.rowd(&[
        format!("fib({SAMPLING_FIB_N})"),
        format!("{:.1} us", sampling_off_ns / 1e3),
        format!("{:.1} us", sampling_on_ns / 1e3),
        format!("{sampling_overhead_pct:+.1}%"),
    ]);
    e16d.note("one frame pushed per interpreted call and popped per return;");
    e16d.note("interleaved runs, round minima; the CI budget is +25%.");

    let top_opcode = report
        .vm
        .opcodes
        .first()
        .map_or_else(String::new, |o| o.opcode.clone());
    let summary = E16Summary {
        vm_instructions: report.vm.instructions,
        apps_profiled: report.apps.len(),
        churn_apps: CHURN_APPS,
        retained_app_views,
        top_opcode,
        distinct_stacks: report.vm.stacks.len(),
        samples_taken: report.samples_taken,
        flushes: report.flushes,
        accounting_off_ns: off_ns,
        accounting_on_ns: on_ns,
        overhead_pct,
        sampling_off_us: sampling_off_ns / 1e3,
        sampling_on_us: sampling_on_ns / 1e3,
        sampling_overhead_pct,
    };
    let flamegraph = report.flamegraph(None);
    let artifacts = vec![
        Artifact {
            name: "e16-flame.txt",
            contents: flamegraph.clone(),
        },
        Artifact::json(
            "BENCH_E16.json",
            &E16Artifacts {
                summary,
                report,
                flamegraph,
            },
        ),
    ];
    Report {
        tables: vec![e16a, e16b, e16c, e16d],
        artifacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_profiles_both_apps_and_exports() {
        let _serial = crate::harness::latency_test_guard();
        let e16 = e16_profile();
        assert_eq!(e16.tables.len(), 4);
        let artifacts: E16Artifacts =
            serde_json::from_str(e16.artifact("BENCH_E16.json")).expect("BENCH_E16.json parses");
        assert_eq!(e16.artifact("e16-flame.txt"), artifacts.flamegraph);
        let summary = &artifacts.summary;
        assert!(summary.vm_instructions > 0, "opcodes were accounted");
        assert_eq!(summary.apps_profiled, 2, "both applications got views");
        assert_eq!(
            summary.retained_app_views, REAPED_VIEWS,
            "the newest reaped views are kept, the older dropped"
        );
        assert!(summary.samples_taken > 0, "the profiler thread sampled");
        assert!(
            summary.distinct_stacks > 0,
            "sampled stacks reached the report"
        );
        // The two workloads must be distinguishable: the mixer's view
        // accounts concat/native work the cruncher never executes.
        let mixer = artifacts
            .report
            .apps
            .iter()
            .find(|v| {
                v.opcodes
                    .iter()
                    .any(|o| o.opcode == "concat" && o.count > 0)
            })
            .expect("one view is concat-heavy");
        assert!(mixer
            .opcodes
            .iter()
            .any(|o| o.opcode == "native" && o.count > 0));
        // Flamegraph lines are "stack weight".
        assert!(!artifacts.flamegraph.is_empty());
        for line in artifacts.flamegraph.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("collapsed-stack line");
            assert!(!stack.is_empty());
            weight.parse::<u64>().expect("numeric weight");
        }
        // The report round-trips through JSON (as BENCH_E16.json embeds it).
        let json = serde_json::to_string(&artifacts.report).expect("report serializes");
        let back: ProfileReport = serde_json::from_str(&json).expect("report deserializes");
        assert_eq!(back.vm.instructions, summary.vm_instructions);
    }
}
