//! Shared setup for the experiments: a standard two-user runtime with the
//! paper's policy and all §6 tools installed, the sum-loop program, and
//! the timing estimators every table uses.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use jmp_awt::DispatchMode;
use jmp_core::MpRuntime;
use jmp_security::Policy;
use jmp_vm::interp::{assemble, InterpStats};

/// Serializes latency-sensitive experiment unit tests (E13–E17) within the
/// test binary: each measures wall-clock thresholds (victim containment,
/// warm-check overhead, profiler tax) that parallel sibling tests running
/// storms on the same cores can push past their acceptance bounds.
pub fn latency_test_guard() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Interleaved round minima, the timing estimator the experiments share.
/// Each of `rounds` rounds calls `round`, which runs every arm once, in a
/// fixed order, and returns one normalized sample per arm; the result is
/// each arm's minimum. Scheduler noise only ever adds time, so the minimum
/// estimates the intrinsic cost and stays stable on loaded machines where
/// medians drift.
pub fn round_minima<const N: usize>(
    rounds: usize,
    mut round: impl FnMut() -> [f64; N],
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (best, sample) in best.iter_mut().zip(round()) {
            *best = best.min(sample);
        }
    }
    best
}

/// Rounds of the per-call arms an experiment runs after its gated
/// measurements.
pub const ARM_ROUNDS: usize = 5;

/// [`round_minima`] over per-call costs: each round calls every arm
/// `calls` times, in arm order, and the result is each arm's minimum
/// nanoseconds per call.
pub fn per_call_minima<const N: usize>(
    rounds: usize,
    calls: u32,
    mut arms: [&mut dyn FnMut(); N],
) -> [f64; N] {
    round_minima(rounds, || {
        arms.each_mut()
            .map(|arm| time_ns(|| (0..calls).for_each(|_| arm())) / f64::from(calls))
    })
}

/// The median as the experiments read it: `samples[len / 2]` once sorted,
/// the upper middle element when the length is even.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    samples[samples.len() / 2]
}

/// Wall-clock nanoseconds one call of `f` takes.
pub fn time_ns(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// The arithmetic sum loop `main(n) = n + (n-1) + ... + 1`: 17 wire
/// instructions, 13 per iteration, every body instruction fusable. E16,
/// E18 and E20 time it.
pub const SUM_LOOP: &str = r#"
    class Sum
    method main/1 locals=2
        push_int 0
        store 1
    loop:
        load 0
        push_int 0
        gt
        jump_if_false done
        load 1
        load 0
        add
        store 1
        load 0
        push_int 1
        sub
        store 0
        jump loop
    done:
        load 1
        return_value
"#;

/// Wire instructions one call of `run` executes, read as the change in
/// the engine's `stats` around it.
pub fn wire_insns(stats: &InterpStats, run: impl FnOnce()) -> u64 {
    let before = stats.instructions();
    run();
    stats.instructions() - before
}

/// The standard experiment policy: the shell's defaults plus the paper's
/// per-user home-directory grants (§5.3 rules 3 and 4) and the backup rule
/// (rule 2).
pub fn experiment_policy() -> Policy {
    let text = format!(
        "{}\n{}",
        jmp_shell::default_policy_text(),
        r#"
        grant codeBase "file:/apps/backup" {
            permission file "<<ALL FILES>>" "read";
        };
        grant user "alice" {
            permission file "/home/alice" "read";
            permission file "/home/alice/-" "read,write,execute,delete";
        };
        grant user "bob" {
            permission file "/home/bob" "read";
            permission file "/home/bob/-" "read,write,execute,delete";
        };
        "#
    );
    Policy::parse(&text).expect("experiment policy parses")
}

/// Builds the standard runtime: users alice/bob, the experiment policy, the
/// §6 tools installed, and optionally a GUI in the given dispatch mode.
pub fn standard_runtime(gui: Option<DispatchMode>) -> MpRuntime {
    let mut builder = MpRuntime::builder()
        .policy(experiment_policy())
        .user("alice", "apw")
        .user("bob", "bpw");
    if let Some(mode) = gui {
        builder = builder.gui(mode);
    }
    let rt = builder.build().expect("runtime builds");
    jmp_shell::install(&rt).expect("tools install");
    rt
}

/// Blocks until every reap queued so far has finished. Reaps run in order
/// on the runtime's one reaper thread, so once a trivial application
/// launched now (as `alice`) has its `AppReap` published, every earlier
/// application is fully torn down: its registry and profile view retired,
/// its handles dropped.
pub fn await_earlier_reaps(rt: &MpRuntime) {
    let events = rt.vm().obs().sink().subscribe();
    let image = assemble("class Barrier\nmethod main/0 locals=0\n  push_int 0\n  return_value\n")
        .expect("barrier assembles");
    let id = rt
        .launch_image("alice", image, &[])
        .expect("barrier launches")
        .id()
        .0;
    loop {
        let event = events
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the barrier's reap is published");
        if event.kind == jmp_obs::EventKind::AppReap && event.app == Some(id) {
            return;
        }
    }
}

/// Registers a one-off native class in `rt` under `file:/apps/<name>`.
pub fn register_app(
    rt: &MpRuntime,
    name: &str,
    main: impl Fn(Vec<String>) -> jmp_vm::Result<()> + Send + Sync + 'static,
) {
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder(name).main(main).build(),
            jmp_security::CodeSource::local(format!("file:/apps/{name}")),
        )
        .expect("app registers");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_minima_keeps_each_arms_minimum_in_arm_order() {
        let mut samples = [[3.0, 9.0], [1.0, 8.0], [2.0, 7.0]].into_iter();
        let mut calls = 0;
        let best = round_minima(3, || {
            calls += 1;
            samples.next().expect("one sample set per round")
        });
        assert_eq!(best, [1.0, 7.0]);
        assert_eq!(calls, 3);
    }

    #[test]
    fn per_call_minima_calls_every_arm_and_keeps_its_per_call_minimum_in_arm_order() {
        let (mut fast, mut slow) = (0, 0);
        let [fast_ns, slow_ns] = per_call_minima(
            3,
            4,
            [&mut || fast += 1, &mut || {
                slow += 1;
                // The first round's calls are slow; the minimum is a later
                // round's 1 ms per call.
                let ms = if slow <= 4 { 20 } else { 1 };
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }],
        );
        assert_eq!((fast, slow), (12, 12));
        assert!((1e6..20e6).contains(&slow_ns), "{slow_ns}");
        assert!(fast_ns < slow_ns, "{fast_ns} vs {slow_ns}");
    }

    #[test]
    fn median_reads_the_upper_middle_sample() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    #[test]
    fn standard_runtime_builds_and_runs_echo() {
        let rt = standard_runtime(None);
        let app = rt.launch_as("alice", "echo", &["ping"]).unwrap();
        app.wait_for().unwrap();
        assert!(rt.console_output().contains("ping"));
        rt.shutdown();
    }
}
