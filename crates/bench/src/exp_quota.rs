//! E15: resource-quota containment under an exec storm — three hostile
//! applications (a thread bomb, a pipe flood, and an event storm against a
//! stalling listener) run beside a victim that repeatedly execs and exits,
//! with the per-application resource quotas switched on and off.
//!
//! Two tables:
//!
//! * **E15a** — victim exec→exit latency: alone (baseline), under the storm
//!   with no quotas, and under the storm with the hostile user capped. The
//!   acceptance gate is the capped run staying within 2x of the baseline.
//! * **E15b** — enforcement accounting for the capped run: `quota.denied`,
//!   audited denials for the hostile user, recorded breaches, and every
//!   ledger draining to zero after the storm.
//! * **E15c** — the ledger charge path every allocation pays, one call at
//!   a time: granted alone, granted beside three sibling threads on the
//!   same slot, and denied.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jmp_awt::{ComponentId, DispatchMode, Toolkit};
use jmp_core::MpRuntime;
use jmp_security::Policy;
use jmp_vm::{AppContext, ResourceKind};

use crate::harness::{median, per_call_minima, register_app, ARM_ROUNDS};
use crate::table::{fmt_ns, ok, Table};
use crate::Report;

/// Victim launches measured per scenario (median reported).
const VICTIM_RUNS: usize = 24;
/// Busy-work floor inside the victim, so launch jitter does not dominate.
const VICTIM_WORK: Duration = Duration::from_micros(300);

/// Bomber threads the thread-bomb app runs in parallel.
const BOMBERS: usize = 4;
/// Spawn attempts per bomber.
const BOMB_ATTEMPTS: usize = 700;
/// How long each successfully spawned worker holds its thread slot. The
/// bomb attacks the resource the ledger governs — live thread slots and the
/// spawn path — not CPU time, so workers sleep rather than spin.
const BOMB_WORK: Duration = Duration::from_millis(20);
/// Pacing between spawn attempts.
const BOMB_PACE: Duration = Duration::from_micros(100);
/// Backoff after a denied spawn (keeps breach counts bounded).
const BOMB_BACKOFF: Duration = Duration::from_micros(200);

/// Pipes the flood app tries to fill and hold.
const FLOOD_PIPES: usize = 12;
/// Capacity of each flood pipe.
const FLOOD_PIPE_CAPACITY: usize = 64 * 1024;
/// Chunk size of each flood write.
const FLOOD_CHUNK: usize = 4 * 1024;
/// Post-fill one-byte nudge writes (denied every time once over quota).
const FLOOD_NUDGES: usize = 600;

/// Actions injected at the storm app's stalling listener.
const STORM_EVENTS: u32 = 800;
/// How long the storm app's listener stalls per delivered action.
const STORM_STALL: Duration = Duration::from_micros(500);

/// Calls per round of the E15c arms.
const ARM_CALLS: u32 = 2_000;

/// The storm policy: the standard experiment users plus the hostile user
/// `mallory`; with `quotas` on, mallory's grants cap every ledger resource.
fn storm_policy(quotas: bool) -> Policy {
    let limits = if quotas {
        r#"
        grant user "mallory" {
            permission resource "limit.threads:8";
            permission resource "limit.pipe.bytes:16384";
            permission resource "limit.queued.events:32";
            permission resource "limit.handles:16";
        };
        "#
    } else {
        ""
    };
    let text = format!(
        "{}\n{}\n{limits}",
        jmp_shell::default_policy_text(),
        r#"
        grant user "alice" {
            permission file "/home/alice/-" "read,write,delete";
        };
        "#
    );
    Policy::parse(&text).expect("storm policy parses")
}

fn storm_runtime(quotas: bool) -> MpRuntime {
    let rt = MpRuntime::builder()
        .policy(storm_policy(quotas))
        .user("alice", "apw")
        .user("mallory", "mpw")
        .gui(DispatchMode::PerApplication)
        .build()
        .expect("runtime builds");
    jmp_shell::install(&rt).expect("tools install");
    rt
}

/// Registers the victim: a short exec→exit program with a fixed busy-work
/// floor and one pipe round-trip, touching the allocation paths the storm
/// contends on.
fn register_victim(rt: &MpRuntime) {
    register_app(rt, "victim", |_| {
        let deadline = Instant::now() + VICTIM_WORK;
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        let (out, input) = jmp_core::pipes::make_pipe()?;
        out.write(b"victim-roundtrip")?;
        let mut buf = [0u8; 16];
        let mut got = 0;
        while got < buf.len() {
            got += input.read(&mut buf[got..])?;
        }
        Ok(())
    });
}

/// Registers the hostile trio. Every loop is bounded (so breach counts stay
/// below the hard-breach threshold and scenarios terminate) and watches
/// `stop`.
fn register_hostiles(rt: &MpRuntime, stop: &Arc<AtomicBool>) {
    // Thread bomb: parallel bombers spawning short-lived busy workers as
    // fast as the runtime lets them.
    let stop_bomb = Arc::clone(stop);
    register_app(rt, "bomb", move |_| {
        let vm = jmp_vm::Vm::current().unwrap();
        let stop = Arc::clone(&stop_bomb);
        let bombers: Vec<_> = (0..BOMBERS)
            .map(|i| {
                let stop = Arc::clone(&stop);
                vm.thread_builder()
                    .name(format!("bomber-{i}"))
                    .spawn(move |vm| {
                        let mut denied = 0u64;
                        for _ in 0..BOMB_ATTEMPTS {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            match vm.thread_builder().spawn(|_| {
                                let _ = jmp_vm::thread::sleep(BOMB_WORK);
                            }) {
                                Ok(_worker) => {
                                    let _ = jmp_vm::thread::sleep(BOMB_PACE);
                                }
                                Err(_) => {
                                    denied += 1;
                                    let _ = jmp_vm::thread::sleep(BOMB_BACKOFF);
                                }
                            }
                        }
                        std::hint::black_box(denied);
                    })
            })
            .collect();
        for bomber in bombers.into_iter().flatten() {
            bomber.join_timeout(Duration::from_secs(10));
        }
        Ok(())
    });

    // Pipe flood: fill pipes without ever reading them, hold the buffers,
    // and keep nudging until told to stop.
    let stop_flood = Arc::clone(stop);
    register_app(rt, "flood", move |_| {
        let mut denied = 0u64;
        let chunk = vec![0xddu8; FLOOD_CHUNK];
        let mut pipes = Vec::new();
        'fill: for _ in 0..FLOOD_PIPES {
            if stop_flood.load(Ordering::Relaxed) {
                break;
            }
            let Ok((out, input)) = jmp_core::pipes::make_pipe_with_capacity(FLOOD_PIPE_CAPACITY)
            else {
                denied += 1;
                let _ = jmp_vm::thread::sleep(Duration::from_micros(200));
                continue;
            };
            // Stop one chunk short of the capacity so an unquota'd write
            // never blocks (nothing ever reads these pipes).
            let mut buffered = 0;
            while buffered + FLOOD_CHUNK < FLOOD_PIPE_CAPACITY {
                if stop_flood.load(Ordering::Relaxed) {
                    pipes.push((out, input));
                    break 'fill;
                }
                match out.write(&chunk) {
                    Ok(()) => buffered += FLOOD_CHUNK,
                    Err(_) => {
                        denied += 1;
                        let _ = jmp_vm::thread::sleep(Duration::from_micros(200));
                        break;
                    }
                }
            }
            pipes.push((out, input));
        }
        let mut nudges = 0;
        while !stop_flood.load(Ordering::Relaxed) && nudges < FLOOD_NUDGES {
            if let Some((out, _)) = pipes.first() {
                if out.write(&[0u8]).is_err() {
                    denied += 1;
                }
            }
            nudges += 1;
            let _ = jmp_vm::thread::sleep(Duration::from_millis(1));
        }
        std::hint::black_box(denied);
        Ok(())
    });

    // Event storm target: a window whose action listener stalls, so
    // injected actions pile up in the owned queue instead of draining.
    register_app(rt, "storm", move |_| {
        let window = jmp_core::gui::create_window("storm")?;
        let button = window.add_button("spin");
        window.on_action(button, move |_| {
            let _ = jmp_vm::thread::sleep(STORM_STALL);
        });
        // Stay alive until the scenario stops the app (§5.4 idiom).
        let _ = jmp_vm::thread::sleep(Duration::from_secs(600));
        Ok(())
    });
}

/// One scenario run's measurements.
struct Outcome {
    /// Median victim exec→exit latency, milliseconds.
    victim_ms: f64,
    /// VM-wide `quota.denied` counter at the end of the run.
    quota_denied: u64,
    /// Audit records attributed to the hostile user.
    audited: usize,
    /// Recorded quota breaches summed over the hostile applications.
    breaches: u64,
    /// Whether every application ledger drained to zero after the storm.
    drained: bool,
}

/// Runs one scenario: optionally launch the hostile trio as `mallory`, then
/// measure victim launches, then tear the storm down and audit the wreckage.
fn run_scenario(quotas: bool, attackers: bool) -> Outcome {
    let rt = storm_runtime(quotas);
    let stop = Arc::new(AtomicBool::new(false));
    register_victim(&rt);
    register_hostiles(&rt, &stop);

    let mut contexts: Vec<Arc<AppContext>> = Vec::new();
    let mut hostile_contexts: Vec<Arc<AppContext>> = Vec::new();
    let mut waiters = Vec::new();
    let mut storm_app = None;
    let mut injector = None;
    if attackers {
        let bomb = rt.launch_as("mallory", "bomb", &[]).unwrap();
        let flood = rt.launch_as("mallory", "flood", &[]).unwrap();
        let storm = rt.launch_as("mallory", "storm", &[]).unwrap();
        let toolkit = rt.toolkit().unwrap().clone();
        assert!(
            Toolkit::wait_until(Duration::from_secs(5), || toolkit.window_count() == 1),
            "storm window opens"
        );
        let window = toolkit.windows_of_app(storm.id().0)[0];
        let display = rt.display().unwrap().clone();
        let stop_injector = Arc::clone(&stop);
        injector = Some(std::thread::spawn(move || {
            let mut injected = 0u32;
            while !stop_injector.load(Ordering::Relaxed) && injected < STORM_EVENTS {
                if display.inject_action(window, ComponentId(1)).is_err() {
                    break;
                }
                injected += 1;
                if injected.is_multiple_of(64) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }));
        for app in [&bomb, &flood, &storm] {
            hostile_contexts.push(Arc::clone(app.context()));
            contexts.push(Arc::clone(app.context()));
        }
        waiters.push(bomb);
        waiters.push(flood);
        storm_app = Some(storm);
        // Let the storm ramp before measuring.
        std::thread::sleep(Duration::from_millis(30));
    }

    let mut latencies = Vec::with_capacity(VICTIM_RUNS);
    for _ in 0..VICTIM_RUNS {
        let start = Instant::now();
        let victim = rt.launch_as("alice", "victim", &[]).unwrap();
        assert_eq!(victim.wait_for().unwrap(), 0, "victim exits cleanly");
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        contexts.push(Arc::clone(victim.context()));
    }
    let victim_ms = median(&mut latencies);

    stop.store(true, Ordering::Relaxed);
    if let Some(injector) = injector {
        injector.join().expect("injector joins");
    }
    for app in waiters {
        assert_eq!(app.wait_for().unwrap(), 0, "hostile app exits on stop");
    }
    if let Some(storm) = storm_app {
        storm.stop(0).expect("storm app stops");
        let _ = storm.wait_for();
    }
    assert!(rt.await_idle(Duration::from_secs(10)), "runtime settles");

    let quota_denied = rt.vm().obs().vm_metrics().counter("quota.denied").get();
    let audited = rt.vm().obs().audit_query(Some("mallory"), None).len();
    let breaches = hostile_contexts.iter().map(|ctx| ctx.breaches()).sum();
    // Teardown is asynchronous past await_idle (a dispatcher can still be
    // unwinding); poll the ledgers rather than sampling them once.
    let drained = Toolkit::wait_until(Duration::from_secs(5), || {
        contexts.iter().all(|ctx| ctx.ledger().is_drained())
    });
    rt.shutdown();
    Outcome {
        victim_ms,
        quota_denied,
        audited,
        breaches,
        drained,
    }
}

/// E15c: the ledger charge path in isolation. The contended arm runs in a
/// second pass, beside three sibling threads charging the same slot; they
/// stop and are joined before the table is built.
fn charge_table() -> Table {
    let context = || AppContext::new(1, "Bench", "alice", jmp_obs::ObsHub::new());
    let (alone, shared, capped) = (context(), context(), context());
    capped.limits().set(ResourceKind::Threads, 0);
    let pair = |ctx: &AppContext| {
        ctx.try_charge(ResourceKind::PipeBytes, 64)
            .expect("under the limit");
        ctx.uncharge(ResourceKind::PipeBytes, 64);
    };
    let [alone_ns, denied_ns] = per_call_minima(
        ARM_ROUNDS,
        ARM_CALLS,
        [&mut || pair(&alone), &mut || {
            capped
                .try_charge(ResourceKind::Threads, 1)
                .expect_err("over the limit");
        }],
    );
    let stop = AtomicBool::new(false);
    let [contended_ns] = std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    pair(&shared);
                }
            });
        }
        let costs = per_call_minima(ARM_ROUNDS, ARM_CALLS, [&mut || pair(&shared)]);
        stop.store(true, Ordering::Relaxed);
        costs
    });
    let mut table = Table::new(
        "E15c",
        "ledger charge path, per call",
        &["charge", "per call"],
    );
    for (arm, ns) in [
        ("granted charge + uncharge", alone_ns),
        ("the same, 3 sibling threads on the slot", contended_ns),
        ("denied charge (rollback, breach, audit)", denied_ns),
    ] {
        table.rowd(&[arm.to_string(), fmt_ns(ns)]);
    }
    table.note(format!(
        "round minima of {ARM_ROUNDS} rounds x {ARM_CALLS} calls per arm. shape: a granted \
         pair is two relaxed atomics; contention costs a small factor; a denial is heavier, \
         paid only by the app over its limit"
    ));
    table
}

/// Machine-readable summary of the E15 run (`BENCH_E15.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E15Summary {
    /// Victim exec→exit median, no attackers, quotas off (ms).
    pub baseline_victim_ms: f64,
    /// Victim exec→exit median under the storm with quotas off (ms).
    pub storm_off_victim_ms: f64,
    /// Victim exec→exit median under the storm with quotas on (ms).
    pub storm_on_victim_ms: f64,
    /// `storm_on_victim_ms / baseline_victim_ms` — the containment ratio.
    pub victim_ratio: f64,
    /// VM-wide `quota.denied` counter after the quotas-on storm.
    pub quota_denied: u64,
    /// Audit records attributed to the hostile user in the quotas-on storm.
    pub audited_denials: usize,
    /// Breaches recorded across the hostile applications (quotas on).
    pub hostile_breaches: u64,
    /// Every ledger drained to zero after the quotas-on storm.
    pub ledgers_drained: bool,
}

/// Runs E15: the tables plus `BENCH_E15.json`.
pub fn e15_quota_storm() -> Report {
    let baseline = run_scenario(false, false);
    let storm_off = run_scenario(false, true);
    let storm_on = run_scenario(true, true);
    let ratio = storm_on.victim_ms / baseline.victim_ms;

    let mut e15a = Table::new(
        "E15a",
        "victim exec→exit latency under a hostile exec storm",
        &["scenario", "victims", "median ms", "vs baseline", "verdict"],
    );
    e15a.rowd(&[
        "alone (no attackers, quotas off)".to_string(),
        format!("{VICTIM_RUNS}"),
        format!("{:.2}", baseline.victim_ms),
        "1.0x".to_string(),
        "baseline".to_string(),
    ]);
    e15a.rowd(&[
        "storm, quotas off".to_string(),
        format!("{VICTIM_RUNS}"),
        format!("{:.2}", storm_off.victim_ms),
        format!("{:.1}x", storm_off.victim_ms / baseline.victim_ms),
        "unbounded".to_string(),
    ]);
    e15a.rowd(&[
        "storm, hostile user capped".to_string(),
        format!("{VICTIM_RUNS}"),
        format!("{:.2}", storm_on.victim_ms),
        format!("{ratio:.1}x"),
        ok(ratio <= 2.0).to_string(),
    ]);
    e15a.note(format!(
        "storm: {BOMBERS} bombers x {BOMB_ATTEMPTS} thread spawns, {FLOOD_PIPES} unread pipes \
         filled to {FLOOD_PIPE_CAPACITY}B, {STORM_EVENTS} actions at a {STORM_STALL:?}-stall \
         listener; victim does {VICTIM_WORK:?} of work plus one pipe round-trip"
    ));
    e15a.note("acceptance: capped-storm victim latency <= 2x the no-attacker baseline");

    let mut e15b = Table::new(
        "E15b",
        "quota enforcement accounting (storm with hostile user capped)",
        &["check", "value", "verdict"],
    );
    e15b.rowd(&[
        "vm quota.denied counter".to_string(),
        format!("{}", storm_on.quota_denied),
        ok(storm_on.quota_denied > 0).to_string(),
    ]);
    e15b.rowd(&[
        "audited denials for user mallory".to_string(),
        format!("{}", storm_on.audited),
        ok(storm_on.audited > 0).to_string(),
    ]);
    e15b.rowd(&[
        "breaches recorded on hostile ledgers".to_string(),
        format!("{}", storm_on.breaches),
        ok(storm_on.breaches > 0).to_string(),
    ]);
    e15b.rowd(&[
        "all ledgers drained after the storm".to_string(),
        format!("{}", storm_on.drained),
        ok(storm_on.drained).to_string(),
    ]);
    e15b.note(
        "every refused allocation fails with a typed QuotaExceeded, lands in the audit \
         trail, and bumps quota.denied; the ledgers read zero once the storm is reaped",
    );

    let summary = E15Summary {
        baseline_victim_ms: baseline.victim_ms,
        storm_off_victim_ms: storm_off.victim_ms,
        storm_on_victim_ms: storm_on.victim_ms,
        victim_ratio: ratio,
        quota_denied: storm_on.quota_denied,
        audited_denials: storm_on.audited,
        hostile_breaches: storm_on.breaches,
        ledgers_drained: storm_on.drained,
    };
    Report::bench("BENCH_E15.json", &summary, vec![e15a, e15b, charge_table()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_meets_the_acceptance_thresholds() {
        let _serial = crate::harness::latency_test_guard();
        let report = e15_quota_storm();
        let tables = &report.tables;
        let summary: E15Summary = report.summary("BENCH_E15.json");
        assert_eq!(tables.len(), 3);
        let e15b = &tables[1];
        assert!(
            !e15b.rows.iter().flatten().any(|c| c.contains("FAILED")),
            "all enforcement verdicts ok: {e15b:#?}"
        );
        assert!(summary.quota_denied > 0);
        assert!(summary.audited_denials > 0);
        assert!(summary.ledgers_drained);
    }
}
