//! Metric catalogue, statistics, and the result line.

/// Linear-interpolated quantile of `values` (any order).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if hi == lo || sorted[hi].is_infinite() {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn quantile_u64(values: &[u64], q: f64) -> f64 {
    let values: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    quantile(&values, q)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub what: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        what,
    }
}

/// End-to-end metrics, from untraced runs.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "start to first op, median of 7 set-ups"),
    m("op_ms_p50", "ms", "lower", "op latency median, best-quartile round"),
    m("op_ms_p90", "ms", "lower", "op latency p90, best-quartile round"),
    m("ops_per_s", "1/s", "higher", "completed ops/s, best-quartile round"),
    m("cpu_ms_per_op", "ms", "lower", "process CPU per op, best-quartile round"),
    m("peak_rss_mb", "MB", "lower", "VmHWM after set-up and a fixed warm-up"),
    m("retained_kb_per_op", "KB", "lower", "VmRSS growth after warm-up per op"),
];

/// Per-layer metrics, from the traced run.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    m("shell.parse_us", "us", "lower", "parser::parse_line per typed line"),
    m("shell.fetch_us", "us", "lower", "SimNetwork::fetch of the applet"),
    m("core.exec_us", "us", "lower", "MpRuntime::launch_with"),
    m("core.reap_us", "us", "lower", "exit signal to wait_for returning"),
    m("core.login_us", "us", "lower", "login::login as the op's user"),
    m("core.launches", "count", "lower", "applications launched per op"),
    m("security.check_warm_ns", "ns", "lower", "check_permission, cached"),
    m("security.check_cold_us", "us", "lower", "check_permission, uncached"),
    m("security.check_denied_us", "us", "lower", "check_permission, refused"),
    m("security.provision_us", "us", "lower", "provision_user_policy"),
    m("security.cache_hit_ratio", "ratio", "higher", "access.cache hits/(hits+misses)"),
    m("security.denials", "count", "lower", "security.denied in the window"),
    m("vm.classes.decode_us", "us", "lower", "ClassImage::from_wire"),
    m("vm.classes.compile_us", "us", "lower", "CompiledImage::compile"),
    m("vm.classes.define_us", "us", "lower", "ClassLoader::define_class"),
    m("vm.classes.first_use_races_lost", "count", "lower", "load_class races lost of 2000"),
    m("vm.interp.run_us", "us", "lower", "Interpreter::run per call"),
    m("vm.interp.ns_per_insn", "ns", "lower", "run time per wire insn"),
    m("vm.interp.sum_ns_per_insn", "ns", "lower", "E18 sum loop, per wire insn"),
    m("vm.interp.insns", "count", "lower", "wire instructions per op"),
    m("vm.interp.dispatch_ratio", "ratio", "lower", "dispatches per wire insn"),
    m("vm.interp.native_calls", "count", "lower", "native calls per op"),
    m("vm.io.pipe_us", "us", "lower", "io::pipe write+read per hop"),
    m("vm.io.bytes", "B", "lower", "pipeline bytes per op"),
    m("vm.thread.spawn_us", "us", "lower", "ThreadBuilder::spawn + join"),
    m("vfs.read_us", "us", "lower", "Vfs::read of the op's files"),
    m("vfs.write_us", "us", "lower", "Vfs::write of the op's files"),
    m("awt.window_us", "us", "lower", "gui::create_window"),
    m("awt.dispatch_us", "us", "lower", "dispatch-observer latency"),
    m("awt.click_rtt_us", "us", "lower", "inject_action to callback output"),
    m("awt.events", "count", "lower", "clicks dispatched per op"),
    m("obs.audit_records", "count", "lower", "audit records in the window"),
    m("obs.losses", "count", "lower", "sink/recorder/demand drops"),
    m("shell.self_ms", "ms", "lower", "layer self time per op"),
    m("core.self_ms", "ms", "lower", "layer self time per op"),
    m("security.self_ms", "ms", "lower", "layer self time per op"),
    m("vm.classes.self_ms", "ms", "lower", "layer self time per op"),
    m("vm.interp.self_ms", "ms", "lower", "layer self time per op"),
    m("vm.io.self_ms", "ms", "lower", "layer self time per op"),
    m("vm.thread.self_ms", "ms", "lower", "layer self time per op"),
    m("vfs.self_ms", "ms", "lower", "layer self time per op"),
    m("awt.self_ms", "ms", "lower", "layer self time per op"),
    m("unattributed_ms", "ms", "lower", "untraced mean minus layer self times"),
    m("trace_overhead_pct", "%", "lower", "traced over untraced p50, minus 100"),
    m("ops.failed_error", "count", "lower", "failed ops: error"),
    m("ops.failed_deadline", "count", "lower", "failed ops: deadline"),
    m("ops.failed_wrong", "count", "lower", "failed ops: wrong output"),
];

/// Prints every metric with its name, value, unit and direction, then the
/// result line: one JSON object, last on standard output.
pub fn emit(
    catalogue: &[Metric],
    values: &std::collections::BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    for metric in catalogue {
        println!(
            "{:<28} {:>16.6} {:<6} ({} is better) {}",
            metric.name, values[metric.name], metric.unit, metric.better, metric.what
        );
    }
    let fields: Vec<String> = catalogue
        .iter()
        .map(|metric| {
            let value = values[metric.name];
            // JSON has no infinity; a latency percentile that lands on
            // failed ops (which miss every limit) reads as the largest float.
            let value = if value.is_finite() { value } else { f64::MAX };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}
