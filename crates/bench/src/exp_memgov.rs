//! E20: memory governance end to end — bomb containment, checkpoint/restore
//! fidelity, and the hot-loop cost of always-on heap accounting.
//!
//! Four tables:
//!
//! * **E20a** — victim exec→exit latency beside a pack of memory bombs
//!   (doubling-concat loops rebuilding multi-MiB strings): alone
//!   (baseline), bombs uncapped (degradation demonstrated), and bombs under
//!   a `limit.memory` quota (containment: the acceptance gate is ≤1.1x of
//!   baseline — the bombs die at their first over-cap charge).
//! * **E20b** — enforcement accounting for the capped run: typed denials on
//!   the `memory.denied`/`quota.denied` counters, audited denials for the
//!   hostile user, recorded breaches, and every ledger drained to zero
//!   after the reap.
//! * **E20c** — checkpoint/restore fidelity: the differential corpus run
//!   split at several checkpoint points (plain vs park+resume must agree on
//!   results, traps, and instruction counts — CI gates on zero
//!   divergence), plus a whole-application migrate (checkpoint on one
//!   `MpRuntime`, restore on a second) whose console output must be
//!   byte-identical with id, user, and limits preserved.
//! * **E20d** — hot-loop accounting overhead: the same pre-decoded sum loop
//!   interleaved on a detached VM thread (memory governance inert — the
//!   PR-8 baseline behaviour; profiler and safepoints identical) and on a
//!   VM thread carrying an [`AppContext`] (arena slabs, samples, and
//!   prepays billed to the ledger). Round minima; the acceptance gate is
//!   ≤5% added cost per wire instruction.

use std::sync::mpsc;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use jmp_core::MpRuntime;
use jmp_security::Policy;
use jmp_vm::interp::{assemble, difftest, ClassImage, Interpreter, NoNatives, Value};
use jmp_vm::{AppContext, ResourceKind, Vm};

use crate::harness::{await_earlier_reaps, median, round_minima, wire_insns, SUM_LOOP};
use crate::table::{ok, Table};
use crate::Report;

/// Victim launches measured per scenario (median reported).
const VICTIM_RUNS: usize = 24;
/// Doublings per bomb rebuild: 16B × 2^18 = 4MiB per string.
const BOMB_DOUBLINGS: i64 = 18;
/// Rebuilds per bomb: ~2GiB of copying per bomb when uncapped.
const BOMB_REBUILDS: i64 = 256;
/// The hostile user's memory cap in the contained scenario (256KiB): the
/// first rebuild's prepay crosses it within a few doublings.
const BOMB_CAP: u64 = 256 * 1024;
/// Interleaved plain/governed rounds for the overhead measurement. Rounds
/// are ~0.4ms each; a large count keeps the per-side minima stable on a
/// contended single-core box.
const OVERHEAD_ROUNDS: usize = 101;
/// Sum-loop argument for the overhead measurement (~0.4M wire insns/run).
const OVERHEAD_N: i64 = 30_000;
/// Checkpoint split points for the differential sweep: entry, early,
/// mid-loop, and both sides of the safepoint boundary.
const CKPT_SPLITS: [u64; 5] = [0, 33, 1023, 1024, 1025];

/// The bomb policy: standard users plus hostile `mallory`; with `capped`
/// on, mallory's memory is quota'd.
fn bomb_policy(capped: bool) -> Policy {
    let limit = if capped {
        format!(r#"grant user "mallory" {{ permission resource "limit.memory:{BOMB_CAP}"; }};"#)
    } else {
        String::new()
    };
    let text = format!(
        "{}\n{}\n{limit}",
        jmp_shell::default_policy_text(),
        r#"
        grant user "alice" {
            permission file "/home/alice/-" "read,write,delete";
        };
        "#
    );
    Policy::parse(&text).expect("bomb policy parses")
}

fn bomb_runtime(capped: bool) -> MpRuntime {
    let rt = MpRuntime::builder()
        .policy(bomb_policy(capped))
        .user("alice", "apw")
        .user("mallory", "mpw")
        .build()
        .expect("runtime builds");
    jmp_shell::install(&rt).expect("tools install");
    rt
}

/// The victim: a short interpreted image (exec→exit is the measured unit),
/// touching the same arena/ledger paths the bombs contend on.
fn victim_image() -> ClassImage {
    assemble(
        "class Victim\n\
         method main/0 locals=2\n\
         push_int 0\n  store 0\n  push_int 0\n  store 1\n\
         loop:\n\
         load 0\n  load 1\n  add\n  store 0\n\
         load 1\n  push_int 1\n  add\n  store 1\n\
         load 1\n  push_int 2000\n  lt\n  jump_if_true loop\n\
         load 0\n  return_value\n",
    )
    .expect("victim assembles")
}

/// The bomb: rebuild a 4MiB string by doubling concat, `BOMB_REBUILDS`
/// times. Uncapped it is a sustained memory/bandwidth hog; capped, the
/// prepay on an early doubling is denied and the run traps.
fn bomb_image() -> ClassImage {
    assemble(&format!(
        "class Bomb\n\
         method main/0 locals=3\n\
         push_int 0\n  store 2\n\
         outer:\n\
         push_str \"aaaaaaaaaaaaaaaa\"\n  store 0\n\
         push_int 0\n  store 1\n\
         inner:\n\
         load 0\n  load 0\n  concat\n  store 0\n\
         load 1\n  push_int 1\n  add\n  store 1\n\
         load 1\n  push_int {BOMB_DOUBLINGS}\n  lt\n  jump_if_true inner\n\
         load 2\n  push_int 1\n  add\n  store 2\n\
         load 2\n  push_int {BOMB_REBUILDS}\n  lt\n  jump_if_true outer\n\
         push_int 0\n  return_value\n",
    ))
    .expect("bomb assembles")
}

/// One bomb-scenario run's measurements.
struct Outcome {
    victim_ms: f64,
    memory_denied: u64,
    quota_denied: u64,
    audited: usize,
    breaches: u64,
    drained: bool,
    /// Reaped applications whose `AppContext` outlived their reap.
    resident: usize,
}

/// Runs one scenario: optionally a pack of bombs as `mallory`, then the
/// victim latency series, then the accounting.
fn run_scenario(capped: bool, bombs: bool) -> Outcome {
    let rt = bomb_runtime(capped);
    let n_bombs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 12);

    let mut bomb_apps = Vec::new();
    if bombs {
        for _ in 0..n_bombs {
            bomb_apps.push(
                rt.launch_image("mallory", bomb_image(), &[])
                    .expect("bomb launches"),
            );
        }
        // Let the pack ramp (or, capped, die) before measuring.
        std::thread::sleep(Duration::from_millis(30));
    }

    let mut latencies = Vec::with_capacity(VICTIM_RUNS);
    let mut victim_contexts = Vec::new();
    for _ in 0..VICTIM_RUNS {
        let start = Instant::now();
        let victim = rt
            .launch_image("alice", victim_image(), &[])
            .expect("victim launches");
        assert_eq!(victim.wait_for().unwrap(), 0, "victim exits cleanly");
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        victim_contexts.push(Arc::clone(victim.context()));
    }
    let victim_ms = median(&mut latencies);

    let mut contexts = victim_contexts;
    for bomb in &bomb_apps {
        contexts.push(Arc::clone(bomb.context()));
    }
    for bomb in bomb_apps {
        // Uncapped bombs run to completion; capped ones trapped long ago.
        let _ = bomb.wait_for();
    }
    assert!(rt.await_idle(Duration::from_secs(30)), "runtime settles");

    let metrics = rt.vm().obs().vm_metrics();
    let memory_denied = metrics.counter("memory.denied").get();
    let quota_denied = metrics.counter("quota.denied").get();
    let audited = rt
        .vm()
        .obs()
        .audit_query(Some("mallory"), None)
        .iter()
        .filter(|r| r.permission.contains("memory"))
        .count();
    let breaches = contexts.iter().map(|ctx| ctx.breaches()).sum();
    let drained = jmp_awt::Toolkit::wait_until(Duration::from_secs(5), || {
        contexts.iter().all(|ctx| ctx.ledger().is_drained())
    });
    // Reap frees the application: once the last handle here is gone and
    // every reap has run, no context may still be alive.
    let reaped: Vec<Weak<AppContext>> = contexts.iter().map(Arc::downgrade).collect();
    drop(contexts);
    await_earlier_reaps(&rt);
    let resident = reaped.iter().filter(|ctx| ctx.strong_count() > 0).count();
    rt.shutdown();
    Outcome {
        victim_ms,
        memory_denied,
        quota_denied,
        audited,
        breaches,
        drained,
        resident,
    }
}

/// The whole-application migrate: checkpoint a mid-loop interpreted app on
/// one runtime, restore on a second, compare the console line against an
/// uninterrupted run. Returns (identical, id_preserved, limits_preserved).
fn migrate_roundtrip() -> (bool, bool, bool) {
    let spinner = || {
        assemble(
            "class Spinner\n\
             method main/0 locals=2\n\
             push_int 0\n  store 0\n  push_int 0\n  store 1\n\
             loop:\n\
             load 0\n  load 1\n  add\n  store 0\n\
             load 1\n  push_int 1\n  add\n  store 1\n\
             load 1\n  push_int 200000\n  lt\n  jump_if_true loop\n\
             load 0\n  return_value\n",
        )
        .expect("spinner assembles")
    };
    // The uninterrupted run: its `=> <value>` line is the reference.
    let plain = MpRuntime::builder().user("alice", "pw").build().unwrap();
    let app = plain.launch_image("alice", spinner(), &[]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 0);
    let reference = plain
        .console_output()
        .lines()
        .find(|l| l.starts_with("=> "))
        .expect("plain run prints its result")
        .to_string();
    plain.shutdown();

    // Checkpoint mid-loop on runtime one (the sticky request parks the
    // interpreter at its first safepoint), restore on runtime two.
    let rt1 = MpRuntime::builder().user("alice", "pw").build().unwrap();
    let app = rt1.launch_image("alice", spinner(), &[]).unwrap();
    let id = app.id();
    app.context().limits().set(ResourceKind::Memory, 64 << 20);
    let bytes = rt1.checkpoint_app(id).expect("checkpoint parks the app");
    assert!(rt1.await_idle(Duration::from_secs(10)));
    rt1.shutdown();

    let rt2 = MpRuntime::builder().user("alice", "pw").build().unwrap();
    let restored = rt2.restore_app(&bytes).expect("restore runs");
    let id_preserved = restored.id() == id && restored.user().name() == "alice";
    assert_eq!(restored.wait_for().unwrap(), 0);
    // Read the limit after exit: the restored main applies it on startup.
    let limits_preserved = restored.context().limits().get(ResourceKind::Memory) == 64 << 20;
    let identical = rt2.console_output().lines().any(|l| l == reference);
    rt2.shutdown();
    (identical, id_preserved, limits_preserved)
}

/// One timing worker: an interpreter pinned to its own VM thread,
/// re-running the workload on request and reporting elapsed nanoseconds.
struct TimedWorker {
    req_tx: mpsc::Sender<()>,
    res_rx: mpsc::Receiver<f64>,
    thread: jmp_vm::VmThread,
}

impl TimedWorker {
    fn spawn(builder: jmp_vm::ThreadBuilder, image: Arc<ClassImage>) -> TimedWorker {
        let (req_tx, req_rx) = mpsc::channel::<()>();
        let (res_tx, res_rx) = mpsc::channel::<f64>();
        let thread = builder
            .spawn(move |_| {
                let interp = Interpreter::new(image, Arc::new(NoNatives)).expect("verifies");
                interp
                    .run("main", vec![Value::Int(OVERHEAD_N)])
                    .expect("warms");
                while req_rx.recv().is_ok() {
                    let t = Instant::now();
                    interp
                        .run("main", vec![Value::Int(OVERHEAD_N)])
                        .expect("runs");
                    let _ = res_tx.send(t.elapsed().as_nanos() as f64);
                }
            })
            .expect("timing worker spawns");
        TimedWorker {
            req_tx,
            res_rx,
            thread,
        }
    }

    fn round_ns(&self) -> f64 {
        self.req_tx.send(()).expect("worker alive");
        self.res_rx.recv().expect("worker round returns")
    }

    fn finish(self) {
        drop(self.req_tx);
        self.thread.join_timeout(Duration::from_secs(10));
    }
}

/// The overhead measurement: the same sum loop on two VM threads — one
/// detached (no [`AppContext`]: memory governance inert, everything else,
/// the profiler included, identical) and one carrying a context (every
/// slab growth, sample, and prepay billed to the ledger). Rounds
/// interleave; minima isolate the accounting cost. Returns (wire
/// insns/run, plain ns/insn, governed ns/insn).
fn measure_overhead() -> (u64, f64, f64) {
    let image = Arc::new(assemble(SUM_LOOP).expect("sum assembles"));
    let vm = Vm::builder().build();
    let ctx = AppContext::new(9_000, "memgov-bench", "alice", vm.obs().clone());

    // Count wire instructions once with a throwaway interpreter.
    let counter = Interpreter::new(Arc::clone(&image), Arc::new(NoNatives)).expect("verifies");
    let run_insns = wire_insns(counter.stats(), || {
        counter
            .run("main", vec![Value::Int(OVERHEAD_N)])
            .expect("counts");
    });

    let plain = TimedWorker::spawn(
        vm.thread_builder().name("memgov-plain").detached(),
        Arc::clone(&image),
    );
    let governed = TimedWorker::spawn(
        vm.thread_builder()
            .name("memgov-governed")
            .app_context(Arc::clone(&ctx)),
        Arc::clone(&image),
    );

    let insns = run_insns as f64;
    let [plain_best, governed_best] = round_minima(OVERHEAD_ROUNDS, || {
        [plain.round_ns() / insns, governed.round_ns() / insns]
    });
    plain.finish();
    governed.finish();
    vm.exit_unchecked(0);
    (run_insns, plain_best, governed_best)
}

/// Scalar results of E20, exported as `BENCH_E20.json` for CI gates.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E20Summary {
    /// Victim exec→exit median, no bombs (ms).
    pub baseline_victim_ms: f64,
    /// Victim median beside the uncapped bomb pack (ms).
    pub uncapped_victim_ms: f64,
    /// Victim median beside the memory-capped bomb pack (ms).
    pub capped_victim_ms: f64,
    /// `uncapped_victim_ms / baseline_victim_ms` — the damage shown.
    pub uncapped_ratio: f64,
    /// `capped_victim_ms / baseline_victim_ms` — the CI gate is ≤1.1x.
    pub capped_ratio: f64,
    /// `memory.denied` counter after the capped run (≥1 gated).
    pub memory_denied: u64,
    /// `quota.denied` counter after the capped run (≥1 gated).
    pub quota_denied: u64,
    /// Audited `memory` denials attributed to the hostile user (≥1 gated).
    pub audited_denials: usize,
    /// Breaches recorded across all ledgers in the capped run.
    pub hostile_breaches: u64,
    /// Every ledger drained to zero after the capped run (gated).
    pub ledgers_drained: bool,
    /// Reaped applications of the capped run whose `AppContext` is still
    /// alive once every reap has finished (0 gated).
    pub reaped_apps_resident: usize,
    /// Differential corpus comparisons run (cases × split points).
    pub ckpt_comparisons: usize,
    /// Checkpoint/restore divergences from plain runs (0 gated).
    pub ckpt_divergences: usize,
    /// Migrated console output byte-identical to the uninterrupted run.
    pub roundtrip_identical: bool,
    /// Application id and user preserved across the migrate.
    pub roundtrip_id_preserved: bool,
    /// Resource limits preserved across the migrate.
    pub roundtrip_limits_preserved: bool,
    /// Sum-loop wire instructions per overhead-measurement run.
    pub overhead_wire_insns: u64,
    /// Round-minimum ns/insn on a detached (ungoverned) VM thread.
    pub plain_ns_per_insn: f64,
    /// Round-minimum ns/insn on an [`AppContext`]-carrying thread.
    pub governed_ns_per_insn: f64,
    /// `(governed/plain − 1) × 100` — the CI gate is ≤5%.
    pub accounting_overhead_pct: f64,
}

/// Runs E20: the tables plus `BENCH_E20.json`.
pub fn e20_memgov() -> Report {
    // -- E20a/E20b: bomb containment -----------------------------------
    let baseline = run_scenario(false, false);
    let uncapped = run_scenario(false, true);
    let capped = run_scenario(true, true);
    let uncapped_ratio = uncapped.victim_ms / baseline.victim_ms;
    let capped_ratio = capped.victim_ms / baseline.victim_ms;

    let mut e20a = Table::new(
        "E20a",
        "victim exec→exit latency beside a memory-bomb pack",
        &["scenario", "victims", "median ms", "vs baseline", "verdict"],
    );
    e20a.rowd(&[
        "alone (no bombs)".to_string(),
        format!("{VICTIM_RUNS}"),
        format!("{:.2}", baseline.victim_ms),
        "1.0x".to_string(),
        "baseline".to_string(),
    ]);
    e20a.rowd(&[
        "bomb pack, memory uncapped".to_string(),
        format!("{VICTIM_RUNS}"),
        format!("{:.2}", uncapped.victim_ms),
        format!("{uncapped_ratio:.2}x"),
        "unbounded".to_string(),
    ]);
    e20a.rowd(&[
        "bomb pack, limit.memory applied".to_string(),
        format!("{VICTIM_RUNS}"),
        format!("{:.2}", capped.victim_ms),
        format!("{capped_ratio:.2}x"),
        ok(capped_ratio <= 1.1).to_string(),
    ]);
    e20a.note(format!(
        "bombs: one per core (4..=12), each rebuilding a {}MiB string by doubling \
         concat {BOMB_REBUILDS} times; capped, the first over-cap prepay traps the run",
        (16 << BOMB_DOUBLINGS) >> 20,
    ));
    e20a.note("acceptance: capped victim median <= 1.1x the no-bomb baseline");

    let mut e20b = Table::new(
        "E20b",
        "memory-quota enforcement accounting (capped bomb pack)",
        &["check", "value", "verdict"],
    );
    e20b.rowd(&[
        "memory.denied counter".to_string(),
        format!("{}", capped.memory_denied),
        ok(capped.memory_denied >= 1).to_string(),
    ]);
    e20b.rowd(&[
        "quota.denied counter".to_string(),
        format!("{}", capped.quota_denied),
        ok(capped.quota_denied >= 1).to_string(),
    ]);
    e20b.rowd(&[
        "audited memory denials for mallory".to_string(),
        format!("{}", capped.audited),
        ok(capped.audited >= 1).to_string(),
    ]);
    e20b.rowd(&[
        "breaches recorded".to_string(),
        format!("{}", capped.breaches),
        ok(capped.breaches >= 1).to_string(),
    ]);
    e20b.rowd(&[
        "all ledgers drained after reap".to_string(),
        format!("{}", capped.drained),
        ok(capped.drained).to_string(),
    ]);
    e20b.rowd(&[
        "reaped apps still resident".to_string(),
        format!("{}", capped.resident),
        ok(capped.resident == 0).to_string(),
    ]);
    e20b.note("a denied charge fails typed (QuotaExceeded{memory}), lands in the audit");
    e20b.note("trail, bumps both counters, and the reaped ledgers read exactly zero");

    // -- E20c: checkpoint/restore fidelity -----------------------------
    let (ckpt_comparisons, divergences) = difftest::run_all_checkpointed(&CKPT_SPLITS);
    let (identical, id_preserved, limits_preserved) = migrate_roundtrip();
    let mut e20c = Table::new(
        "E20c",
        "checkpoint/restore fidelity — corpus sweep + whole-app migrate",
        &["check", "value", "verdict"],
    );
    e20c.rowd(&[
        "corpus comparisons (cases x splits)".to_string(),
        format!("{ckpt_comparisons}"),
        ok(ckpt_comparisons >= 200).to_string(),
    ]);
    e20c.rowd(&[
        "divergences vs plain runs".to_string(),
        format!("{}", divergences.len()),
        if divergences.is_empty() {
            "ok".to_string()
        } else {
            format!("FAILED: {}", divergences[0])
        },
    ]);
    e20c.rowd(&[
        "migrated output byte-identical".to_string(),
        format!("{identical}"),
        ok(identical).to_string(),
    ]);
    e20c.rowd(&[
        "app id + user preserved".to_string(),
        format!("{id_preserved}"),
        ok(id_preserved).to_string(),
    ]);
    e20c.rowd(&[
        "limits preserved".to_string(),
        format!("{limits_preserved}"),
        ok(limits_preserved).to_string(),
    ]);
    e20c.note("each comparison: plain run vs park-at-split + resume-on-fresh-interpreter;");
    e20c.note("results, trap text, and cumulative instruction counts must all match.");
    e20c.note("the migrate checkpoints mid-loop on one MpRuntime, restores on a second.");

    // -- E20d: accounting overhead --------------------------------------
    let (overhead_wire_insns, plain_ns, governed_ns) = measure_overhead();
    let overhead_pct = (governed_ns / plain_ns - 1.0) * 100.0;
    let mut e20d = Table::new(
        "E20d",
        "hot-loop cost of always-on memory accounting (sum loop)",
        &[
            "wire insns/run",
            "plain ns/insn",
            "governed ns/insn",
            "overhead",
            "verdict",
        ],
    );
    e20d.rowd(&[
        overhead_wire_insns.to_string(),
        format!("{plain_ns:.2}"),
        format!("{governed_ns:.2}"),
        format!("{overhead_pct:.1}%"),
        ok(overhead_pct <= 5.0).to_string(),
    ]);
    e20d.note("interleaved rounds, round minima: the identical pre-decoded engine on a");
    e20d.note("detached VM thread (governance inert, profiler identical) vs an");
    e20d.note("AppContext-carrying thread (slabs, samples, prepays billed). gate: <=5%.");

    let summary = E20Summary {
        baseline_victim_ms: baseline.victim_ms,
        uncapped_victim_ms: uncapped.victim_ms,
        capped_victim_ms: capped.victim_ms,
        uncapped_ratio,
        capped_ratio,
        memory_denied: capped.memory_denied,
        quota_denied: capped.quota_denied,
        audited_denials: capped.audited,
        hostile_breaches: capped.breaches,
        ledgers_drained: capped.drained,
        reaped_apps_resident: capped.resident,
        ckpt_comparisons,
        ckpt_divergences: divergences.len(),
        roundtrip_identical: identical,
        roundtrip_id_preserved: id_preserved,
        roundtrip_limits_preserved: limits_preserved,
        overhead_wire_insns,
        plain_ns_per_insn: plain_ns,
        governed_ns_per_insn: governed_ns,
        accounting_overhead_pct: overhead_pct,
    };
    Report::bench("BENCH_E20.json", &summary, vec![e20a, e20b, e20c, e20d])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_contains_the_bomb_and_migrates_faithfully() {
        let _serial = crate::harness::latency_test_guard();
        let report = e20_memgov();
        let tables = &report.tables;
        let summary: E20Summary = report.summary("BENCH_E20.json");
        assert_eq!(tables.len(), 4);
        // Deterministic checks are asserted tight even in debug builds.
        assert_eq!(summary.ckpt_divergences, 0, "checkpoint sweep diverged");
        assert!(summary.ckpt_comparisons >= 200);
        assert!(summary.roundtrip_identical, "migrated output differs");
        assert!(summary.roundtrip_id_preserved);
        assert!(summary.roundtrip_limits_preserved);
        assert!(summary.memory_denied >= 1);
        assert!(summary.quota_denied >= 1);
        assert!(summary.audited_denials >= 1);
        assert!(summary.ledgers_drained);
        assert_eq!(
            summary.reaped_apps_resident, 0,
            "reaped apps still resident"
        );
    }
}
