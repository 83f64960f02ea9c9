//! `jmpbench`: the jmproc benchmark.
//!
//! A seeded, closed-loop load generator with two clients (each waits for its
//! operation to finish before starting the next) that drives the public API
//! of jmp-core, jmp-shell, jmp-awt and jmp-vm the way users do, and checks
//! every output. Three workloads:
//!
//! * `terminal` — one op is a login session on a fresh terminal: four to
//!   eight typed-ahead commands (pipelines, redirects, `ls`, `mkdir`+`cd`,
//!   `whoami`, sometimes a refused cross-user read), `quit`, EOF. About one
//!   session in ten is preceded by an administrator provisioning a new
//!   account.
//! * `applet_gui` — one op is `appletviewer <url>` on a GUI applet: wait
//!   for `ready`, click one to five times, close the window. Some applets
//!   are hostile and their reads must be refused. Idle editors stay
//!   resident as a desktop.
//! * `applet_compute` — one op is `appletviewer <url> <n>` on a compute
//!   kernel (sum loop, recursive fib, string build, checked natives).
//!
//! ```text
//! jmpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` first runs the
//! untraced run as a child process (same seed, same length), then a traced
//! run that times the benchmark's own calls into each layer, replays each
//! operation's inputs through the layers' entry points, and prints the
//! per-layer metrics; its spans go to `jmpbench/traces/`. Every metric is
//! printed with its unit and direction; the last line is one JSON object.
//! The exit code is non-zero on any wrong output.

mod applets;
mod harness;
mod ops;
mod report;
mod sys;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ops::{Client, ClientOutcome, Failure, OpRecord, Tally, CLIENTS};
use report::quantile;
use trace::{Breakdown, Spans};
use world::{Workload, World};

/// Operations each client runs before the measured window opens. Warm-up
/// operations count as attempts (and failures) but not in latency,
/// throughput or retained memory. A fixed amount of work rather than a fixed
/// time, so that the memory it leaves behind (`peak_rss_mb`) does not depend
/// on how fast the host ran it.
const WARMUP_OPS: usize = 400;
/// Set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 7;
/// The measured window is cut into rounds of this length, and each timing
/// metric is computed per round and reported at the least-disturbed quartile
/// of rounds. On a shared host, outside load slows the program for seconds
/// to a minute at a time, by up to half, and it only ever adds time: this
/// reading ignores any episode that covers less than three quarters of the
/// window, where a percentile over the pooled run is set by the worst one.
const ROUND: Duration = Duration::from_millis(500);
/// Least-disturbed quartile of rounds: the 25th percentile of a per-round
/// cost, the 75th of a per-round rate.
const CALM: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("jmpbench: {err}");
            eprintln!(
                "usage: jmpbench --workload <terminal|applet_gui|applet_compute> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let code = run(&args, started);
    use std::io::Write;
    let _ = std::io::stdout().flush();
    // VM daemon threads do not outlive the process.
    std::process::exit(code);
}

/// Untraced op latency, as the `--trace 1` run needs it.
struct Untraced {
    p50_ms: f64,
    mean_ms: f64,
}

const UNTRACED_TAG: &str = "untraced-op-ms";

/// Runs the untraced run in a child process and reads its op latency.
fn untraced_child(args: &Args) -> Result<Untraced, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("untraced run failed: {}", output.status));
    }
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(UNTRACED_TAG))
        .ok_or("untraced run printed no latency")?;
    let mut fields = line.split_whitespace().map(|f| f.parse::<f64>());
    match (fields.next(), fields.next()) {
        (Some(Ok(p50_ms)), Some(Ok(mean_ms))) => Ok(Untraced { p50_ms, mean_ms }),
        _ => Err(format!("bad untraced line {line:?}")),
    }
}

struct Reading {
    at: Instant,
    cpu: Duration,
    rss_kib: u64,
    counters: Counters,
}

/// Program counters read through `jmp_core::obs`.
#[derive(Clone, Copy, Default)]
struct Counters {
    audit_total: u64,
    faulted: u64,
    quota_denied: u64,
    denied: u64,
    hits: u64,
    misses: u64,
    losses: u64,
}

fn counters(rt: &jmp_core::MpRuntime) -> Counters {
    let snapshot = jmp_core::obs::vm_snapshot(rt).expect("host reads metrics");
    let rollup = jmp_core::obs::vm_rollup(rt).expect("host reads metrics");
    let c = |name: &str| rollup.counters.get(name).copied().unwrap_or(0);
    Counters {
        audit_total: snapshot.audit_total,
        faulted: c("apps.faulted"),
        quota_denied: c("quota.denied"),
        denied: c("security.denied"),
        hits: c("access.cache.hits"),
        misses: c("access.cache.misses"),
        losses: snapshot.events_dropped + snapshot.spans_dropped + c("demands.dropped"),
    }
}

fn reading(rt: &jmp_core::MpRuntime) -> Reading {
    Reading {
        at: Instant::now(),
        cpu: sys::process_cpu(),
        rss_kib: sys::status_kib("VmRSS"),
        counters: counters(rt),
    }
}

/// Per-round values of the timing metrics, over the rounds that saw ops.
struct RoundStats {
    p50: Vec<f64>,
    p90: Vec<f64>,
    rate: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl RoundStats {
    fn new(
        measured: &[&&OpRecord],
        boundaries: &[OnceLock<Reading>],
        last: &Reading,
    ) -> RoundStats {
        let mut stats = RoundStats {
            p50: Vec::new(),
            p90: Vec::new(),
            rate: Vec::new(),
            cpu_ms: Vec::new(),
        };
        for (r, start) in boundaries.iter().enumerate() {
            let Some(start) = start.get() else { continue };
            let end = boundaries[r + 1..]
                .iter()
                .find_map(OnceLock::get)
                .unwrap_or(last);
            // A failed op misses every latency limit.
            let latencies: Vec<f64> = measured
                .iter()
                .filter(|o| o.round == Some(r))
                .map(|o| match o.failure {
                    None => o.latency.as_secs_f64() * 1e3,
                    Some(_) => f64::INFINITY,
                })
                .collect();
            let ok = latencies.iter().filter(|l| l.is_finite()).count().max(1) as f64;
            stats.p50.push(quantile(&latencies, 0.5));
            stats.p90.push(quantile(&latencies, 0.9));
            stats.rate.push(ok / (end.at - start.at).as_secs_f64());
            stats
                .cpu_ms
                .push((end.cpu - start.cpu).as_secs_f64() * 1e3 / ok);
        }
        stats
    }
}

fn run(args: &Args, started: Instant) -> i32 {
    let untraced = if args.trace {
        match untraced_child(args) {
            Ok(u) => Some(u),
            Err(err) => {
                eprintln!("jmpbench: {err}");
                return 1;
            }
        }
    } else {
        None
    };

    // Set-up, timed several times (once when traced: setup_s is an
    // untraced metric); the last world is the one measured.
    let setup_rounds = if args.trace { 1 } else { SETUP_ROUNDS };
    let mut setups = Vec::with_capacity(setup_rounds);
    let mut from = started;
    let world = loop {
        let world = World::build(args.workload, args.seed, args.trace);
        setups.push(from.elapsed().as_secs_f64());
        if setups.len() == setup_rounds {
            break world;
        }
        world.teardown();
        from = Instant::now();
    };
    let nops = args.trace.then(|| harness::NopClock::install(&world.rt));
    let (deadlines, deadline_thread) = harness::Deadlines::start();
    let before = counters(&world.rt);

    let epoch = Instant::now();
    let rounds = ((args.seconds as u128 * 1000 / ROUND.as_millis()) as usize).max(1);
    let boundaries: Vec<OnceLock<Reading>> = (0..rounds).map(|_| OnceLock::new()).collect();
    let warm_peak_kib = OnceLock::new();
    let warmed = std::sync::Barrier::new(CLIENTS);
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (world, deadlines, boundaries) = (&world, &*deadlines, &boundaries);
                let (warm_peak_kib, warmed) = (&warm_peak_kib, &warmed);
                let nops = nops.clone();
                scope.spawn(move || {
                    let spans = Spans::new(epoch, args.trace);
                    let mut client = Client::new(world, deadlines, id, args.seed, spans, nops);
                    let mut records = Vec::new();
                    for _ in 0..WARMUP_OPS {
                        records.push(client.run_op(None));
                    }
                    // The measured window opens once every client is warm;
                    // its first reading is the baseline.
                    if warmed.wait().is_leader() {
                        let _ = warm_peak_kib.set(sys::status_kib("VmHWM"));
                        let _ = boundaries[0].set(reading(&world.rt));
                    }
                    warmed.wait();
                    let start = boundaries[0].get().expect("the window is open").at;
                    let end = start + Duration::from_secs(args.seconds);
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let r = ((now - start).as_nanos() / ROUND.as_nanos()) as usize;
                        let r = r.min(rounds - 1);
                        boundaries[r].get_or_init(|| reading(&world.rt));
                        records.push(client.run_op(Some(r)));
                    }
                    client.finish(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let last = reading(&world.rt);
    let end_peak_kib = sys::status_kib("VmHWM");
    let warm_peak_kib = *warm_peak_kib.get().expect("the window opened");
    deadlines.stop();
    deadline_thread
        .join()
        .expect("deadline timer exits cleanly");
    let baseline = boundaries[0]
        .get()
        .expect("the run reached its measured window");

    // -- accounting --------------------------------------------------------------
    let records: Vec<&OpRecord> = outcomes.iter().flat_map(|o| &o.records).collect();
    let attempted = records.len() as u64;
    let kinds = |kind: Failure| records.iter().filter(|r| r.failure == Some(kind)).count() as u64;
    let (errors, deadlines_missed, wrong) = (
        kinds(Failure::Error),
        kinds(Failure::Deadline),
        kinds(Failure::Wrong),
    );
    let failed = errors + deadlines_missed + wrong;
    let measured: Vec<&&OpRecord> = records.iter().filter(|r| r.round.is_some()).collect();
    let ok: Vec<f64> = measured
        .iter()
        .filter(|r| r.failure.is_none())
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    let ok_ops = ok.len().max(1) as f64;
    let mean = ok.iter().sum::<f64>() / ok_ops;
    let per_round = RoundStats::new(&measured, &boundaries, &last);
    let p50 = quantile(&per_round.p50, CALM);

    let issued: u64 = outcomes.iter().map(|o| o.denials).sum();
    let audited = (last.counters.audit_total - before.audit_total)
        - (last.counters.faulted - before.faulted)
        - (last.counters.quota_denied - before.quota_denied);
    let mismatches: u64 = outcomes.iter().map(|o| o.mismatches).sum();
    // Set-up defines the programs the operations launch, so operations never
    // race to define one; the traced run measures that race on its own.
    let races_lost = match args.trace {
        false => Ok(0),
        true => {
            harness::first_use_race(&world.rt, args.workload.programs()[0], harness::RACE_TRIALS)
        }
    };
    let desktop_ok = world.teardown();
    for outcome in &outcomes {
        for line in &outcome.diagnostics {
            eprintln!("jmpbench: {line}");
        }
    }
    if audited != issued {
        eprintln!("jmpbench: {audited} denials audited, {issued} issued");
    }
    if mismatches > 0 {
        eprintln!("jmpbench: {mismatches} replayed calls disagreed with the op");
    }
    if !desktop_ok {
        eprintln!("jmpbench: a resident desktop application died");
    }
    if let Err(err) = &races_lost {
        eprintln!("jmpbench: {err}");
    }
    let correct =
        wrong == 0 && audited == issued && mismatches == 0 && desktop_ok && races_lost.is_ok();
    println!(
        "# {} seed {} for {}s (+{} warm-up ops per client), {} clients, trace {}: {} ops \
         attempted ({} measured, {} ok), failed {} (error {}, deadline {}, wrong output {}), \
         denials issued {} audited {}; VmHWM {:.1} MB after warm-up, {:.1} MB at the end",
        args.workload.name(),
        args.seed,
        args.seconds,
        WARMUP_OPS,
        CLIENTS,
        u8::from(args.trace),
        attempted,
        measured.len(),
        ok.len(),
        failed,
        errors,
        deadlines_missed,
        wrong,
        issued,
        audited,
        warm_peak_kib as f64 / 1024.0,
        end_peak_kib as f64 / 1024.0
    );

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let catalogue = match &untraced {
        None => {
            println!("{UNTRACED_TAG} {p50} {mean}");
            values.insert("setup_s", quantile(&setups, 0.5));
            values.insert("op_ms_p50", p50);
            values.insert("op_ms_p90", quantile(&per_round.p90, CALM));
            values.insert("ops_per_s", quantile(&per_round.rate, 1.0 - CALM));
            values.insert("cpu_ms_per_op", quantile(&per_round.cpu_ms, CALM));
            values.insert("peak_rss_mb", warm_peak_kib as f64 / 1024.0);
            values.insert(
                "retained_kb_per_op",
                (last.rss_kib as f64 - baseline.rss_kib as f64) / measured.len().max(1) as f64,
            );
            report::END_TO_END
        }
        Some(untraced) => {
            let mut breakdown = Breakdown::default();
            let mut tally = Tally::default();
            let mut all_spans = Vec::new();
            for outcome in outcomes {
                breakdown.add_client(&outcome.spans, &outcome.measured);
                tally.merge(outcome.tally);
                all_spans.push(outcome.spans);
            }
            let path = std::path::PathBuf::from(format!(
                "jmpbench/traces/{}-seed{}.tsv",
                args.workload.name(),
                args.seed
            ));
            if let Err(err) = trace::write_spans(&path, &all_spans) {
                eprintln!("jmpbench: writing {}: {err}", path.display());
                return 1;
            }
            layer_values(&mut values, &breakdown, &tally, ok_ops);
            let self_total: f64 = trace::LAYERS
                .iter()
                .map(|layer| values[self_metric(layer)])
                .sum();
            let (b, l) = (&baseline.counters, &last.counters);
            let (hits, misses) = (l.hits - b.hits, l.misses - b.misses);
            values.insert(
                "security.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            values.insert("security.denials", (l.denied - b.denied) as f64);
            values.insert("obs.audit_records", (l.audit_total - b.audit_total) as f64);
            values.insert("obs.losses", (l.losses - b.losses) as f64);
            values.insert("unattributed_ms", untraced.mean_ms - self_total);
            values.insert("trace_overhead_pct", (p50 / untraced.p50_ms - 1.0) * 100.0);
            values.insert(
                "vm.classes.first_use_races_lost",
                races_lost.unwrap_or(0) as f64,
            );
            values.insert("ops.failed_error", errors as f64);
            values.insert("ops.failed_deadline", deadlines_missed as f64);
            values.insert("ops.failed_wrong", wrong as f64);
            print_layer_table(&breakdown, ok_ops, untraced, p50, self_total);
            report::PER_LAYER
        }
    };
    report::emit(catalogue, &values, correct, attempted, failed);
    if correct {
        0
    } else {
        1
    }
}

fn self_metric(layer: &str) -> &'static str {
    report::PER_LAYER
        .iter()
        .find(|m| m.name.strip_suffix(".self_ms") == Some(layer))
        .map(|m| m.name)
        .expect("every layer has a self-time metric")
}

fn layer_values(
    values: &mut BTreeMap<&'static str, f64>,
    breakdown: &Breakdown,
    tally: &Tally,
    ops: f64,
) {
    let us = |name: &str| breakdown.median_ns(name) / 1e3;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    values.insert("shell.parse_us", us("shell.parse"));
    values.insert("shell.fetch_us", us("shell.fetch"));
    values.insert("core.exec_us", us("core.exec"));
    values.insert("core.reap_us", us("core.reap"));
    values.insert("core.login_us", us("core.login"));
    values.insert("core.launches", tally.launches as f64 / ops);
    values.insert(
        "security.check_warm_ns",
        breakdown.median_ns("security.check_warm"),
    );
    values.insert("security.check_cold_us", us("security.check_cold"));
    values.insert("security.check_denied_us", us("security.check_denied"));
    values.insert("security.provision_us", us("admin.provision"));
    values.insert("vm.classes.decode_us", us("vm.classes.decode"));
    values.insert("vm.classes.compile_us", us("vm.classes.compile"));
    values.insert("vm.classes.define_us", us("vm.classes.define"));
    values.insert("vm.interp.run_us", us("vm.interp.run"));
    values.insert(
        "vm.interp.ns_per_insn",
        ratio(tally.interp_ns, tally.interp_insns),
    );
    values.insert(
        "vm.interp.sum_ns_per_insn",
        ratio(tally.sum_ns, tally.sum_insns),
    );
    values.insert("vm.interp.insns", tally.interp_insns as f64 / ops);
    values.insert(
        "vm.interp.dispatch_ratio",
        ratio(tally.interp_dispatches, tally.interp_insns),
    );
    values.insert("vm.interp.native_calls", tally.interp_natives as f64 / ops);
    values.insert("vm.io.pipe_us", us("vm.io.pipe"));
    values.insert("vm.io.bytes", tally.pipe_bytes as f64 / ops);
    values.insert(
        "vm.thread.spawn_us",
        report::quantile_u64(&tally.spawn_join_ns, 0.5) / 1e3,
    );
    values.insert("vfs.read_us", us("vfs.read"));
    values.insert("vfs.write_us", us("vfs.write"));
    values.insert("awt.window_us", us("awt.window"));
    values.insert(
        "awt.dispatch_us",
        report::quantile_u64(&tally.dispatch_ns, 0.5) / 1e3,
    );
    values.insert("awt.click_rtt_us", us("awt.click"));
    values.insert("awt.events", tally.awt_events as f64 / ops);
    for layer in trace::LAYERS {
        let self_ns = breakdown.layers.get(layer).map_or(0, |t| t.self_ns);
        values.insert(self_metric(layer), self_ns as f64 / ops / 1e6);
    }
}

fn print_layer_table(
    breakdown: &Breakdown,
    ops: f64,
    untraced: &Untraced,
    traced_p50: f64,
    self_total: f64,
) {
    println!(
        "# per op over {ops} traced ops (untraced op mean {:.4} ms, p50 {:.4} ms; traced p50 {:.4} ms)",
        untraced.mean_ms, untraced.p50_ms, traced_p50
    );
    println!(
        "# {:<12} {:>10} {:>12} {:>12}",
        "layer", "spans", "busy_ms", "self_ms"
    );
    for layer in trace::LAYERS {
        let totals = breakdown.layers.get(layer).copied().unwrap_or_default();
        let self_ms = totals.self_ns as f64 / ops / 1e6;
        println!(
            "# {:<12} {:>10.3} {:>12.4} {:>12.4}",
            layer,
            totals.count as f64 / ops,
            totals.busy_ns as f64 / ops / 1e6,
            self_ms
        );
    }
    println!(
        "# {:<12} {:>10} {:>12} {:>12.4}",
        "unattributed",
        "",
        "",
        untraced.mean_ms - self_total
    );
    println!(
        "# {:<12} {:>10} {:>12} {:>12.4}",
        "(waits)",
        "",
        "",
        breakdown.container_self_ns as f64 / ops / 1e6
    );
    for (name, samples) in &breakdown.samples {
        println!(
            "# span {:<24} n={:<8} p50={:.3}us p90={:.3}us",
            name,
            samples.len(),
            report::quantile_u64(samples, 0.5) / 1e3,
            report::quantile_u64(samples, 0.9) / 1e3
        );
    }
}
