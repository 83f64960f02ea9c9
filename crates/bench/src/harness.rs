//! Shared setup for experiments and benches: a standard two-user runtime
//! with the paper's policy and all §6 tools installed.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use jmp_awt::DispatchMode;
use jmp_core::MpRuntime;
use jmp_security::Policy;

/// Serializes latency-sensitive experiment unit tests (E13–E17) within the
/// test binary: each measures wall-clock thresholds (victim containment,
/// warm-check overhead, profiler tax) that parallel sibling tests running
/// storms on the same cores can push past their acceptance bounds.
pub fn latency_test_guard() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Interleaved round minima, the timing estimator the E13, E16, E17,
/// E18 and E20 tables share. Each of `rounds` rounds calls `round`, which
/// runs every arm once, in a fixed order, and returns one normalized
/// sample per arm; the result is each arm's minimum. Scheduler noise only
/// ever adds time, so the minimum estimates the intrinsic cost and stays
/// stable on loaded machines where medians drift.
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

/// Wall-clock nanoseconds one call of `f` takes.
pub fn time_ns(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
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
    fn standard_runtime_builds_and_runs_echo() {
        let rt = standard_runtime(None);
        let app = rt.launch_as("alice", "echo", &["ping"]).unwrap();
        app.wait_for().unwrap();
        assert!(rt.console_output().contains("ping"));
        rt.shutdown();
    }
}
