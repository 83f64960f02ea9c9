//! The shell (paper §6.1).
//!
//! "The shell executes an infinite loop in which it reads in a command line
//! (provided by a terminal), interprets it, and possibly launches one or
//! more applications... The shell that we implemented uses pipes between
//! applications and input/output redirection. Normally, the input and output
//! streams of the applications that the shell launches are not changed (and,
//! hence, are the same as the shell's). However, in the case of pipes or
//! input/output redirection, the shell temporarily changes its own standard
//! input and output streams (to point to the appropriate pipe or file
//! streams) before each application is launched... Afterwards, the shell's
//! streams are re-set to their original values."

use jmp_core::{files, jsystem, pipes, Application, Error, MpRuntime};
use jmp_vm::io::{InStream, OutStream};
use jmp_vm::{Result, VmError};
use parking_lot::Mutex;

use crate::parser::{parse_line, Command, Stage};
use crate::terminal::Terminal;

/// One backgrounded pipeline.
struct Job {
    id: usize,
    line: String,
    apps: Vec<Application>,
}

/// The interactive shell state for one session.
pub struct Shell {
    jobs: Mutex<Vec<Job>>,
    next_job: Mutex<usize>,
}

impl Default for Shell {
    fn default() -> Shell {
        Shell::new()
    }
}

impl Shell {
    /// Creates a shell with no jobs.
    pub fn new() -> Shell {
        Shell {
            jobs: Mutex::new(Vec::new()),
            next_job: Mutex::new(1),
        }
    }

    /// The shell application's `main`: the read–interpret–launch loop.
    ///
    /// # Errors
    ///
    /// Only fatal stream failures; command errors are printed and the loop
    /// continues, like any shell.
    pub fn run(&self) -> Result<()> {
        let app = Application::current()
            .ok_or_else(|| VmError::illegal_state("shell must run as an application"))?;
        let stdin = app.stdin();
        let terminal = Terminal::from_stdin(&stdin);
        loop {
            let prompt = format!("{}@jmp:{}$ ", app.user().name(), app.cwd());
            let line = match &terminal {
                Some(term) => term.read_string(&prompt)?,
                None => stdin.read_line()?,
            };
            let Some(line) = line else {
                return Ok(()); // end of input: session over
            };
            match self.execute_line(&line) {
                Ok(ControlFlow::Continue) => {}
                Ok(ControlFlow::Quit) => return Ok(()),
                Err(Error::Interrupted) => return Ok(()),
                Err(err) => {
                    let _ = jsystem::eprintln(&format!("shell: {err}"));
                }
            }
        }
    }

    /// Executes one input line (sequence of `;`-separated commands).
    ///
    /// # Errors
    ///
    /// Parse and launch failures (printed by [`Shell::run`]).
    pub fn execute_line(&self, line: &str) -> std::result::Result<ControlFlow, Error> {
        for command in parse_line(line)? {
            if let ControlFlow::Quit = self.execute_command(&command, line)? {
                return Ok(ControlFlow::Quit);
            }
        }
        Ok(ControlFlow::Continue)
    }

    fn execute_command(
        &self,
        command: &Command,
        line: &str,
    ) -> std::result::Result<ControlFlow, Error> {
        // Builtins apply only to plain single-stage foreground commands.
        if command.stages.len() == 1 && !command.background {
            let stage = &command.stages[0];
            if stage.stdin_from.is_none() && stage.stdout_to.is_none() {
                match self.builtin(stage)? {
                    Builtin::Handled => return Ok(ControlFlow::Continue),
                    Builtin::Quit => return Ok(ControlFlow::Quit),
                    Builtin::NotBuiltin => {}
                }
            }
        }
        // Causal root for everything this command sets in motion: execs,
        // checks, pipe traffic, and AWT dispatches launched below all hang
        // off this span (or its children) in the flight record.
        let span = MpRuntime::current().and_then(|rt| {
            rt.vm().obs().recorder().begin(
                jmp_obs::SpanCategory::Command,
                format!("sh:{line}"),
                jmp_vm::thread::current_app_context().map(|ctx| ctx.app_id()),
            )
        });
        let outcome = self.run_pipeline(command, line);
        drop(span);
        outcome?;
        Ok(ControlFlow::Continue)
    }

    fn builtin(&self, stage: &Stage) -> std::result::Result<Builtin, Error> {
        match stage.program.as_str() {
            "quit" | "exit" | "logout" => Ok(Builtin::Quit),
            "cd" => {
                let target = match stage.args.first() {
                    Some(dir) => dir.clone(),
                    None => Application::current()
                        .map(|app| app.user().home().to_string())
                        .unwrap_or_else(|| "/".to_string()),
                };
                if let Err(e) = Application::set_cwd(&target) {
                    jsystem::eprintln(&format!("cd: {e}"))?;
                }
                Ok(Builtin::Handled)
            }
            "jobs" => {
                let jobs = self.jobs.lock();
                for job in jobs.iter() {
                    let running = job
                        .apps
                        .iter()
                        .filter(|a| !matches!(a.status(), jmp_core::AppStatus::Finished(_)))
                        .count();
                    jsystem::println(&format!("[{}] {} ({} running)", job.id, job.line, running))?;
                }
                Ok(Builtin::Handled)
            }
            "history" => {
                if let Some(term) = Application::current()
                    .map(|app| app.stdin())
                    .as_ref()
                    .and_then(Terminal::from_stdin)
                {
                    for (i, entry) in term.history().iter().enumerate() {
                        jsystem::println(&format!("{:>4}  {entry}", i + 1))?;
                    }
                }
                Ok(Builtin::Handled)
            }
            "help" => {
                jsystem::println(
                    "builtins: cd pwd jobs history top vmstat audit trace profile \
                     policyinfer ulimit migrate ps -l help quit; \
                     programs: ls cat echo head wc grep ps kill sleep touch \
                     mkdir rm cp mv whoami su passwd login appletviewer edit",
                )?;
                Ok(Builtin::Handled)
            }
            "top" => {
                self.top()?;
                Ok(Builtin::Handled)
            }
            "vmstat" => {
                self.vmstat()?;
                Ok(Builtin::Handled)
            }
            "audit" => {
                self.audit(&stage.args)?;
                Ok(Builtin::Handled)
            }
            // `ps -l` (the ledger view) is a permission-gated builtin; plain
            // `ps` falls through to the unprivileged program.
            "ps" if stage.args.first().map(String::as_str) == Some("-l") => {
                self.ps_ledger()?;
                Ok(Builtin::Handled)
            }
            "ulimit" => {
                self.ulimit(&stage.args)?;
                Ok(Builtin::Handled)
            }
            "migrate" => {
                self.migrate(&stage.args)?;
                Ok(Builtin::Handled)
            }
            "trace" => {
                self.trace(&stage.args)?;
                Ok(Builtin::Handled)
            }
            "profile" => {
                self.profile(&stage.args)?;
                Ok(Builtin::Handled)
            }
            "policyinfer" => {
                self.policyinfer(&stage.args)?;
                Ok(Builtin::Handled)
            }
            _ => Ok(Builtin::NotBuiltin),
        }
    }

    /// The `top` builtin: the live per-application metric table
    /// (`RuntimePermission("readMetrics")`-gated; a denial is printed — and
    /// audited — rather than killing the session).
    fn top(&self) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let rows = match jmp_core::obs::top_rows(&rt) {
            Ok(rows) => rows,
            Err(err) => {
                jsystem::eprintln(&format!("top: {err}"))?;
                return Ok(());
            }
        };
        jsystem::println(&format!(
            "{:>4} {:<16} {:<10} {:>4} {:>4} {:>4} {:>6} {:>7} {:>6} {:>6} {:>7} {:>9}",
            "ID",
            "NAME",
            "USER",
            "THR",
            "WIN",
            "STR",
            "QDEPTH",
            "CHECKS",
            "DENIED",
            "DISP",
            "CLASSES",
            "PIPE-B",
        ))?;
        for row in rows {
            jsystem::println(&format!(
                "{:>4} {:<16} {:<10} {:>4} {:>4} {:>4} {:>6} {:>7} {:>6} {:>6} {:>7} {:>9}",
                row.id,
                row.name,
                row.user,
                row.threads,
                row.windows,
                row.streams,
                row.queue_depth,
                row.checks,
                row.denied,
                row.dispatched,
                row.classes,
                row.pipe_bytes,
            ))?;
        }
        Ok(())
    }

    /// The `ps -l` builtin: one ledger row per application — live resource
    /// usage against quota, straight off each application's `AppContext`
    /// (`RuntimePermission("readMetrics")`-gated like `top`/`vmstat`).
    fn ps_ledger(&self) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let rows = match jmp_core::obs::ledger_rows(&rt) {
            Ok(rows) => rows,
            Err(err) => {
                jsystem::eprintln(&format!("ps: {err}"))?;
                return Ok(());
            }
        };
        jsystem::println(&format!(
            "{:>4} {:<16} {:<10} {:>12} {:>16} {:>14} {:>10} {:>16} {:>7}",
            "ID", "NAME", "USER", "THREADS", "PIPE-BYTES", "EVENTS", "HANDLES", "MEMORY", "BREACH",
        ))?;
        for row in rows {
            let cells: Vec<String> = row
                .resources
                .iter()
                .map(|(kind, used, limit)| fmt_quota(*kind, *used, *limit))
                .collect();
            jsystem::println(&format!(
                "{:>4} {:<16} {:<10} {:>12} {:>16} {:>14} {:>10} {:>16} {:>7}",
                row.id,
                row.name,
                row.user,
                cells.first().map_or("-", String::as_str),
                cells.get(1).map_or("-", String::as_str),
                cells.get(2).map_or("-", String::as_str),
                cells.get(3).map_or("-", String::as_str),
                cells.get(4).map_or("-", String::as_str),
                row.breaches,
            ))?;
        }
        Ok(())
    }

    /// The `ulimit` builtin: with no arguments, prints the current
    /// application's ledger against its quotas; `ulimit <resource> <limit>`
    /// re-quotas the current application and
    /// `ulimit <app-id> <resource> <limit>` another one — both through
    /// [`MpRuntime::set_limits`], i.e. gated by
    /// `ResourcePermission("setLimits")`.
    fn ulimit(&self, args: &[String]) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let app = Application::current().ok_or(Error::NotAnApplication)?;
        match args {
            [] => {
                let ctx = app.context();
                for &kind in jmp_vm::RESOURCE_KINDS.iter() {
                    jsystem::println(&format!(
                        "{:<16} {}",
                        kind.as_str(),
                        fmt_quota(kind, ctx.ledger().get(kind), ctx.limits().get(kind)),
                    ))?;
                }
                Ok(())
            }
            [resource, limit] => self.set_limit(&rt, app.id(), resource, limit),
            [id, resource, limit] => match id.parse::<u64>() {
                Ok(id) => self.set_limit(&rt, jmp_core::AppId(id), resource, limit),
                Err(_) => {
                    jsystem::eprintln("ulimit: expected a numeric application id")?;
                    Ok(())
                }
            },
            _ => {
                jsystem::eprintln(
                    "ulimit: usage: ulimit [[app-id] <resource> <limit>] \
                     (resources: threads pipe.bytes queued.events handles memory)",
                )?;
                Ok(())
            }
        }
    }

    /// The `migrate` builtin — the two halves of an application migration:
    ///
    /// * `migrate <app-id> <file>` checkpoints the running application to a
    ///   versioned snapshot file (written with the shell user's authority,
    ///   so ordinary file access control applies);
    /// * `migrate restore <file>` restores a snapshot file as a running
    ///   application, preserving its id, user, limits, and progress.
    ///
    /// Carrying the file between two VMs is the migration; both halves are
    /// gated by `RuntimePermission("checkpointApplication")`, and a denial
    /// is printed (and audited) rather than killing the session.
    fn migrate(&self, args: &[String]) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        match args {
            [sub, path] if sub == "restore" => {
                let bytes = match files::read(path) {
                    Ok(bytes) => bytes,
                    Err(err) => {
                        jsystem::eprintln(&format!("migrate: {err}"))?;
                        return Ok(());
                    }
                };
                match rt.restore_app(&bytes) {
                    Ok(app) => jsystem::println(&format!(
                        "restored app {} ({}) as {}",
                        app.id().0,
                        app.name(),
                        app.user().name(),
                    ))?,
                    Err(err) => jsystem::eprintln(&format!("migrate: {err}"))?,
                }
                Ok(())
            }
            [id, path] => {
                let Ok(id) = id.parse::<u64>() else {
                    jsystem::eprintln("migrate: expected a numeric application id")?;
                    return Ok(());
                };
                match rt.checkpoint_app(jmp_core::AppId(id)) {
                    Ok(bytes) => {
                        let len = bytes.len();
                        if let Err(err) = files::write(path, &bytes) {
                            jsystem::eprintln(&format!("migrate: {err}"))?;
                        } else {
                            jsystem::println(&format!(
                                "checkpointed app {id} to {path} ({len} bytes)"
                            ))?;
                        }
                    }
                    Err(err) => jsystem::eprintln(&format!("migrate: {err}"))?,
                }
                Ok(())
            }
            _ => {
                jsystem::eprintln(
                    "migrate: usage: migrate <app-id> <file> | migrate restore <file>",
                )?;
                Ok(())
            }
        }
    }

    fn set_limit(
        &self,
        rt: &MpRuntime,
        id: jmp_core::AppId,
        resource: &str,
        limit: &str,
    ) -> std::result::Result<(), Error> {
        let Some(kind) = jmp_vm::ResourceKind::parse(resource) else {
            jsystem::eprintln(&format!(
                "ulimit: unknown resource {resource} \
                 (resources: threads pipe.bytes queued.events handles memory)"
            ))?;
            return Ok(());
        };
        let limit = match limit {
            "unlimited" => u64::MAX,
            other => match other.parse::<u64>() {
                Ok(limit) => limit,
                Err(_) => {
                    jsystem::eprintln("ulimit: the limit must be a number or `unlimited`")?;
                    return Ok(());
                }
            },
        };
        match rt.set_limits(id, kind, limit) {
            Ok(()) => jsystem::println(&format!(
                "app {} {} limit set to {}",
                id.0,
                kind.as_str(),
                if limit == u64::MAX {
                    "unlimited".to_string()
                } else {
                    limit.to_string()
                },
            ))?,
            Err(err) => jsystem::eprintln(&format!("ulimit: {err}"))?,
        }
        Ok(())
    }

    /// The `vmstat` builtin: the VM-wide rollup (counters summed and
    /// histograms merged across the VM registry and every live application),
    /// plus the event-sink and audit-log accounting.
    fn vmstat(&self) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let snapshot = match jmp_core::obs::vm_snapshot(&rt) {
            Ok(snapshot) => snapshot,
            Err(err) => {
                jsystem::eprintln(&format!("vmstat: {err}"))?;
                return Ok(());
            }
        };
        let rollup = jmp_core::obs::vm_rollup(&rt)?;
        for (name, value) in &rollup.counters {
            jsystem::println(&format!("{name:<24} {value}"))?;
        }
        for (name, value) in &snapshot.vm.gauges {
            jsystem::println(&format!("{name:<24} {value}"))?;
        }
        for (name, hist) in &rollup.histograms {
            jsystem::println(&format!("{name:<24} {}", hist.render_compact()))?;
        }
        // `sink.`-prefixed: the observability event sink's own accounting,
        // distinct from the GUI data-plane counters (`events.coalesced`,
        // `events.dropped`) printed from the rollup above.
        jsystem::println(&format!(
            "sink.events.published    {}",
            snapshot.events_published
        ))?;
        jsystem::println(&format!(
            "sink.events.dropped      {}",
            snapshot.events_dropped
        ))?;
        jsystem::println(&format!(
            "audit.total              {}",
            snapshot.audit_total
        ))?;
        jsystem::println(&format!(
            "spans.recorded           {}",
            snapshot.spans_recorded
        ))?;
        jsystem::println(&format!(
            "spans.dropped            {}",
            snapshot.spans_dropped
        ))?;
        let ledgers = jmp_core::obs::ledger_rows(&rt)?;
        if !ledgers.is_empty() {
            jsystem::println("ledgers:")?;
            for row in &ledgers {
                let cells: Vec<String> = row
                    .resources
                    .iter()
                    .map(|(kind, used, limit)| {
                        format!("{}={}", kind.as_str(), fmt_quota(*kind, *used, *limit))
                    })
                    .collect();
                jsystem::println(&format!(
                    "  {:>4} {:<16} {} breaches={}",
                    row.id,
                    row.name,
                    cells.join(" "),
                    row.breaches,
                ))?;
            }
        }
        let watchdogs = jmp_core::obs::watchdog_rows(&rt)?;
        if !watchdogs.is_empty() {
            jsystem::println("watchdogs:")?;
            for row in &watchdogs {
                jsystem::println(&format!(
                    "  {:<24} app={:<4} last-beat={:>6}ms beats={:<8} {}",
                    row.name,
                    row.app.map_or_else(|| "-".to_string(), |id| id.to_string()),
                    row.age_ms,
                    row.beats,
                    if row.stalled {
                        "STALLED"
                    } else if row.parked {
                        "parked"
                    } else {
                        "ok"
                    },
                ))?;
            }
        }
        // The demand ledger's busiest rows. Needs `readDemands` on top of
        // `readMetrics`; silently omitted (the denial is still audited)
        // so vmstat stays useful to metrics-only readers. The demands.*
        // counters themselves print with the rollup above.
        if let Ok(rows) = jmp_core::obs::demand_rows(&rt, None, None) {
            if !rows.is_empty() {
                let mut rows = rows;
                rows.sort_by_key(|r| std::cmp::Reverse(r.granted + r.denied));
                jsystem::println("demands:")?;
                for row in rows.iter().take(5) {
                    jsystem::println(&format!(
                        "  {:<24} user={:<10} granted={:<8} denied={:<6} {}{}",
                        row.source,
                        row.user.as_deref().unwrap_or("-"),
                        row.granted,
                        row.denied,
                        row.permission,
                        if row.via_user { " (via user)" } else { "" },
                    ))?;
                }
            }
        }
        // Top opcodes from the VM profiler. Needs `readProfile` on top of
        // `readMetrics`; silently omitted (the denial is still audited)
        // so vmstat stays useful to metrics-only readers.
        if let Ok(report) = jmp_core::obs::profile_report(&rt) {
            let top = report.vm.top_opcodes(5);
            if !top.is_empty() {
                jsystem::println("top opcodes:")?;
                for op in top {
                    jsystem::println(&format!(
                        "  {:<16} count={:<10} cost={}ns p50={}/p95={}/p99={}",
                        op.opcode, op.count, op.cost_ns, op.p50_ns, op.p95_ns, op.p99_ns,
                    ))?;
                }
            }
        }
        Ok(())
    }

    /// The `trace` builtin: `trace on|off` steers the VM-wide flight
    /// recorder, `trace dump [file]` exports its ring as Chrome
    /// `trace_event` JSON, and `trace` alone reports the current state.
    /// `RuntimePermission("traceVm")`-gated; a denial is printed — and
    /// audited — rather than killing the session.
    fn trace(&self, args: &[String]) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        match args.first().map(String::as_str) {
            Some("on") => match jmp_core::obs::set_tracing(&rt, true) {
                Ok(()) => jsystem::println("tracing on")?,
                Err(err) => jsystem::eprintln(&format!("trace: {err}"))?,
            },
            Some("off") => match jmp_core::obs::set_tracing(&rt, false) {
                Ok(()) => jsystem::println("tracing off")?,
                Err(err) => jsystem::eprintln(&format!("trace: {err}"))?,
            },
            Some("dump") => {
                let json = match jmp_core::obs::chrome_trace(&rt) {
                    Ok(json) => json,
                    Err(err) => {
                        jsystem::eprintln(&format!("trace: {err}"))?;
                        return Ok(());
                    }
                };
                match args.get(1) {
                    Some(path) => match jmp_core::files::write(path, json.as_bytes()) {
                        Ok(()) => jsystem::println(&format!("trace written to {path}"))?,
                        Err(err) => jsystem::eprintln(&format!("trace: {err}"))?,
                    },
                    None => jsystem::println(&json)?,
                }
            }
            None | Some("status") => match jmp_core::obs::tracing_enabled(&rt) {
                Ok(true) => jsystem::println("tracing on")?,
                Ok(false) => jsystem::println("tracing off")?,
                Err(err) => jsystem::eprintln(&format!("trace: {err}"))?,
            },
            Some(other) => {
                jsystem::eprintln(&format!(
                    "trace: unknown argument {other} (usage: trace [on|off|dump [file]|status])"
                ))?;
            }
        }
        Ok(())
    }

    /// The `profile` builtin: `profile on|off` steers the VM profiler
    /// (opcode accounting *and* stack sampling), `profile report [--app
    /// <id>] [--json]` prints per-opcode accounting and sampled-stack
    /// weights (`--json` emits the full [`jmp_obs::ProfileReport`] as JSON),
    /// `profile flame [--app <id>] [file]` exports flamegraph.pl
    /// collapsed-stack text, `profile reset` starts a fresh window, and
    /// `profile`/`profile status` reports the current switch.
    /// `RuntimePermission("readProfile")`-gated; a denial is printed — and
    /// audited — rather than killing the session.
    fn profile(&self, args: &[String]) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let mut app: Option<u64> = None;
        let mut json = false;
        let mut rest: Vec<&str> = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if arg == "--app" {
                match iter.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(id)) => app = Some(id),
                    _ => {
                        jsystem::eprintln("profile: --app expects an application id")?;
                        return Ok(());
                    }
                }
            } else if arg == "--json" {
                json = true;
            } else {
                rest.push(arg.as_str());
            }
        }
        match rest.first().copied() {
            Some("on") => match jmp_core::obs::set_profiling(&rt, true) {
                Ok(()) => jsystem::println("profiling on")?,
                Err(err) => jsystem::eprintln(&format!("profile: {err}"))?,
            },
            Some("off") => match jmp_core::obs::set_profiling(&rt, false) {
                Ok(()) => jsystem::println("profiling off")?,
                Err(err) => jsystem::eprintln(&format!("profile: {err}"))?,
            },
            Some("report") => {
                let report = match jmp_core::obs::profile_report(&rt) {
                    Ok(report) => report,
                    Err(err) => {
                        jsystem::eprintln(&format!("profile: {err}"))?;
                        return Ok(());
                    }
                };
                if json {
                    match serde_json::to_string_pretty(&report) {
                        Ok(text) => jsystem::println(&text)?,
                        Err(err) => jsystem::eprintln(&format!("profile: {err}"))?,
                    }
                    return Ok(());
                }
                jsystem::println(&format!(
                    "profile: accounting={} sampling={} flushes={} samples={}",
                    if report.accounting_enabled {
                        "on"
                    } else {
                        "off"
                    },
                    if report.sampling_enabled { "on" } else { "off" },
                    report.flushes,
                    report.samples_taken,
                ))?;
                let views: Vec<&jmp_obs::ProfileView> = match app {
                    Some(id) => report.view(Some(id)).into_iter().collect(),
                    None => std::iter::once(&report.vm)
                        .chain(report.apps.iter())
                        .collect(),
                };
                if app.is_some() && views.is_empty() {
                    jsystem::eprintln("profile: no samples for that application yet")?;
                }
                for view in views {
                    jsystem::println(&format!(
                        "{}: instructions={} cost={}ns stacks={}",
                        view.label,
                        view.instructions,
                        view.cost_ns,
                        view.stacks.len(),
                    ))?;
                    for op in view.top_opcodes(10) {
                        jsystem::println(&format!(
                            "  {:<16} count={:<10} cost={}ns p50={}/p95={}/p99={}",
                            op.opcode, op.count, op.cost_ns, op.p50_ns, op.p95_ns, op.p99_ns,
                        ))?;
                    }
                }
            }
            Some("flame") => {
                let text = match jmp_core::obs::profile_flame(&rt, app) {
                    Ok(text) => text,
                    Err(err) => {
                        jsystem::eprintln(&format!("profile: {err}"))?;
                        return Ok(());
                    }
                };
                match rest.get(1) {
                    Some(path) => match jmp_core::files::write(path, text.as_bytes()) {
                        Ok(()) => jsystem::println(&format!("flamegraph written to {path}"))?,
                        Err(err) => jsystem::eprintln(&format!("profile: {err}"))?,
                    },
                    None => jsystem::println(&text)?,
                }
            }
            Some("reset") => match jmp_core::obs::reset_profile(&rt) {
                Ok(()) => jsystem::println("profile window reset")?,
                Err(err) => jsystem::eprintln(&format!("profile: {err}"))?,
            },
            None | Some("status") => match jmp_core::obs::profiling_enabled(&rt) {
                Ok(true) => jsystem::println("profiling on")?,
                Ok(false) => jsystem::println("profiling off")?,
                Err(err) => jsystem::eprintln(&format!("profile: {err}"))?,
            },
            Some(other) => {
                jsystem::eprintln(&format!(
                    "profile: unknown argument {other} \
                     (usage: profile [on|off|report|flame [file]|reset|status] \
                     [--app <id>] [--json])"
                ))?;
            }
        }
        Ok(())
    }

    /// The `audit` builtin: `audit [-u user] [-a app-id] [--json]` lists
    /// recent permission denials (`RuntimePermission("readAuditLog")`-gated).
    /// `--json` prints the records as a JSON array for scripts and the CI
    /// harness instead of the human table.
    fn audit(&self, args: &[String]) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let mut user: Option<String> = None;
        let mut app: Option<u64> = None;
        let mut json = false;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "-u" => user = iter.next().cloned(),
                "-a" => match iter.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(id)) => app = Some(id),
                    _ => {
                        jsystem::eprintln("audit: -a expects an application id")?;
                        return Ok(());
                    }
                },
                "--json" => json = true,
                other => {
                    jsystem::eprintln(&format!(
                        "audit: unknown argument {other} \
                         (usage: audit [-u user] [-a app-id] [--json])"
                    ))?;
                    return Ok(());
                }
            }
        }
        let records = match jmp_core::obs::audit_records(&rt, user.as_deref(), app) {
            Ok(records) => records,
            Err(err) => {
                jsystem::eprintln(&format!("audit: {err}"))?;
                return Ok(());
            }
        };
        if json {
            match serde_json::to_string_pretty(&records) {
                Ok(text) => jsystem::println(&text)?,
                Err(err) => jsystem::eprintln(&format!("audit: {err}"))?,
            }
            return Ok(());
        }
        for record in &records {
            jsystem::println(&format!(
                "#{:<4} +{:>6}ms user={:<10} app={:<4} {} [{}]",
                record.seq,
                record.at_ms,
                record.user.as_deref().unwrap_or("-"),
                record
                    .app
                    .map_or_else(|| "-".to_string(), |id| id.to_string()),
                record.permission,
                record.context,
            ))?;
        }
        jsystem::println(&format!("{} denial(s)", records.len()))?;
        Ok(())
    }

    /// The `policyinfer` builtin — the demand observatory's front end:
    ///
    /// * `policyinfer [report] [--app <id>] [--user <name>] [--json]` —
    ///   the demand ledger's rows (`RuntimePermission("readDemands")`);
    /// * `policyinfer emit [file]` — run least-privilege inference and print
    ///   (or write) the resulting policy file
    ///   (`RuntimePermission("inferPolicy")`);
    /// * `policyinfer diff [--json]` — the over-grant report: installed
    ///   grant entries never exercised by any observed demand;
    /// * `policyinfer reset` — clear the ledger for a fresh window;
    /// * `policyinfer on|off` — toggle demand recording.
    ///
    /// A denial is printed — and audited — rather than killing the session.
    fn policyinfer(&self, args: &[String]) -> std::result::Result<(), Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let mut app: Option<u64> = None;
        let mut user: Option<String> = None;
        let mut json = false;
        let mut rest: Vec<&str> = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--app" => match iter.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(id)) => app = Some(id),
                    _ => {
                        jsystem::eprintln("policyinfer: --app expects an application id")?;
                        return Ok(());
                    }
                },
                "--user" => match iter.next() {
                    Some(name) => user = Some(name.clone()),
                    None => {
                        jsystem::eprintln("policyinfer: --user expects a user name")?;
                        return Ok(());
                    }
                },
                "--json" => json = true,
                other => rest.push(other),
            }
        }
        match rest.first().copied() {
            None | Some("report") => {
                let rows = match jmp_core::obs::demand_rows(&rt, app, user.as_deref()) {
                    Ok(rows) => rows,
                    Err(err) => {
                        jsystem::eprintln(&format!("policyinfer: {err}"))?;
                        return Ok(());
                    }
                };
                if json {
                    match serde_json::to_string_pretty(&rows) {
                        Ok(text) => jsystem::println(&text)?,
                        Err(err) => jsystem::eprintln(&format!("policyinfer: {err}"))?,
                    }
                    return Ok(());
                }
                jsystem::println(&format!(
                    "{:<24} {:<10} {:>8} {:>6} {:>4} {}",
                    "SOURCE", "USER", "GRANTED", "DENIED", "VIA", "PERMISSION",
                ))?;
                for row in &rows {
                    jsystem::println(&format!(
                        "{:<24} {:<10} {:>8} {:>6} {:>4} {}",
                        row.source,
                        row.user.as_deref().unwrap_or("-"),
                        row.granted,
                        row.denied,
                        if row.via_user { "user" } else { "code" },
                        row.permission,
                    ))?;
                }
                jsystem::println(&format!("{} demand row(s)", rows.len()))?;
            }
            Some("emit") => {
                let policy = match jmp_core::obs::inferred_policy(&rt) {
                    Ok(policy) => policy,
                    Err(err) => {
                        jsystem::eprintln(&format!("policyinfer: {err}"))?;
                        return Ok(());
                    }
                };
                let rows = jmp_core::obs::demand_rows(&rt, None, None)
                    .map(|rows| rows.len())
                    .unwrap_or(0);
                let text = jmp_security::emit_policy_text(
                    &policy,
                    &format!("derived from {rows} demand-ledger rows"),
                );
                match rest.get(1) {
                    Some(path) => match jmp_core::files::write(path, text.as_bytes()) {
                        Ok(()) => jsystem::println(&format!("inferred policy written to {path}"))?,
                        Err(err) => jsystem::eprintln(&format!("policyinfer: {err}"))?,
                    },
                    None => jsystem::println(&text)?,
                }
            }
            Some("diff") => {
                let diff = match jmp_core::obs::policy_diff(&rt) {
                    Ok(diff) => diff,
                    Err(err) => {
                        jsystem::eprintln(&format!("policyinfer: {err}"))?;
                        return Ok(());
                    }
                };
                if json {
                    match serde_json::to_string_pretty(&diff) {
                        Ok(text) => jsystem::println(&text)?,
                        Err(err) => jsystem::eprintln(&format!("policyinfer: {err}"))?,
                    }
                    return Ok(());
                }
                let unused = diff.iter().filter(|r| !r.exercised && !r.config).count();
                for row in &diff {
                    jsystem::println(&format!(
                        "{:<10} {} :: {}",
                        if row.config {
                            "config"
                        } else if row.exercised {
                            "exercised"
                        } else {
                            "UNUSED"
                        },
                        row.target,
                        row.permission,
                    ))?;
                }
                jsystem::println(&format!(
                    "{} grant entr(ies), {unused} unexercised",
                    diff.len()
                ))?;
            }
            Some("reset") => match jmp_core::obs::reset_demands(&rt) {
                Ok(()) => jsystem::println("demand ledger reset")?,
                Err(err) => jsystem::eprintln(&format!("policyinfer: {err}"))?,
            },
            Some("on") => match jmp_core::obs::set_demand_recording(&rt, true) {
                Ok(()) => jsystem::println("demand recording on")?,
                Err(err) => jsystem::eprintln(&format!("policyinfer: {err}"))?,
            },
            Some("off") => match jmp_core::obs::set_demand_recording(&rt, false) {
                Ok(()) => jsystem::println("demand recording off")?,
                Err(err) => jsystem::eprintln(&format!("policyinfer: {err}"))?,
            },
            Some(other) => {
                jsystem::eprintln(&format!(
                    "policyinfer: unknown argument {other} \
                     (usage: policyinfer [report|emit [file]|diff|reset|on|off] \
                     [--app <id>] [--user <name>] [--json])"
                ))?;
            }
        }
        Ok(())
    }

    /// Launches a pipeline: the paper's stream-swapping dance. Returns the
    /// launched applications (empty for unknown commands).
    fn run_pipeline(
        &self,
        command: &Command,
        line: &str,
    ) -> std::result::Result<Vec<Application>, Error> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        // `command not found` beats a ClassNotFound stack trace.
        for stage in &command.stages {
            if !rt.vm().material().contains(&stage.program) {
                jsystem::eprintln(&format!("shell: {}: command not found", stage.program))?;
                return Ok(Vec::new());
            }
        }
        let shell_app = Application::current().ok_or(Error::NotAnApplication)?;
        let saved_in = shell_app.stdin();
        let saved_out = shell_app.stdout();
        let saved_err = shell_app.stderr();

        let n = command.stages.len();
        let mut apps: Vec<Application> = Vec::with_capacity(n);
        // The write end the shell created for each stage's stdout (closed by
        // the shell once that stage finishes — "it is the shell's
        // responsibility to close those streams", §5.1).
        let mut created_writers: Vec<Option<OutStream>> = Vec::with_capacity(n);
        let mut prev_reader: Option<InStream> = None;
        let mut created_readers: Vec<InStream> = Vec::new();
        let launch_result = (|| -> std::result::Result<(), Error> {
            for (i, stage) in command.stages.iter().enumerate() {
                let stdin = match (&stage.stdin_from, prev_reader.take()) {
                    (Some(path), _) => {
                        let s = files::open_in(path)?;
                        created_readers.push(s.clone());
                        s
                    }
                    (None, Some(reader)) => reader,
                    (None, None) => saved_in.clone(),
                };
                let (stdout, writer) = match &stage.stdout_to {
                    Some(redirect) => {
                        let s = files::open_out(&redirect.path, redirect.append)?;
                        (s.clone(), Some(s))
                    }
                    None if i + 1 < n => {
                        let (w, r) = pipes::make_pipe()?;
                        prev_reader = Some(r);
                        (w.clone(), Some(w))
                    }
                    None => (saved_out.clone(), None),
                };
                // Temporarily adopt the child's streams so exec inherits them.
                Application::set_streams(Some(stdin), Some(stdout), Some(saved_err.clone()))?;
                let launched = Application::exec(&stage.program, &to_refs(&stage.args));
                // Restore before handling any error.
                Application::set_streams(
                    Some(saved_in.clone()),
                    Some(saved_out.clone()),
                    Some(saved_err.clone()),
                )?;
                apps.push(launched?);
                created_writers.push(writer);
            }
            Ok(())
        })();
        // Always restore, even if a stage failed to launch mid-way.
        Application::set_streams(Some(saved_in), Some(saved_out), Some(saved_err))?;
        launch_result?;

        if command.background {
            let id = {
                let mut next = self.next_job.lock();
                let id = *next;
                *next += 1;
                id
            };
            jsystem::println(&format!("[{id}] started"))?;
            self.jobs.lock().push(Job {
                id,
                line: line.trim().to_string(),
                apps: apps.clone(),
            });
            // A watcher closes the created pipe ends as stages finish.
            let token = shell_app.io_token();
            let watch_apps = apps.clone();
            let vm = rt.vm().clone();
            vm.thread_builder()
                .name(format!("job-{id}-watcher"))
                .daemon(true)
                .spawn(move |_| {
                    for (app, writer) in watch_apps.iter().zip(created_writers) {
                        let _ = app.wait_for();
                        if let Some(writer) = writer {
                            let _ = writer.close(token);
                        }
                    }
                })
                .map_err(Error::from)?;
        } else {
            let token = shell_app.io_token();
            for (app, writer) in apps.iter().zip(created_writers) {
                app.wait_for()?;
                // Close the pipe/file write end we created for this stage so
                // the next stage sees end-of-file.
                if let Some(writer) = writer {
                    let _ = writer.close(token);
                }
            }
            for reader in created_readers {
                let _ = reader.close(token);
            }
        }
        Ok(apps)
    }
}

fn to_refs(args: &[String]) -> Vec<&str> {
    args.iter().map(String::as_str).collect()
}

/// Renders `used/limit` for `kind`, with an unlimited quota shown as `-`
/// and byte-denominated resources (memory, pipe bytes) in human units.
fn fmt_quota(kind: jmp_vm::ResourceKind, used: u64, limit: u64) -> String {
    let render = |n: u64| {
        if kind.is_bytes() {
            fmt_bytes(n)
        } else {
            n.to_string()
        }
    };
    if limit == u64::MAX {
        format!("{}/-", render(used))
    } else {
        format!("{}/{}", render(used), render(limit))
    }
}

/// Renders a byte count in human units: `777B`, `4.0KiB`, `1.5MiB`, `2.0GiB`.
fn fmt_bytes(n: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    match n {
        0..=1023 => format!("{n}B"),
        KIB..=1048575 => format!("{:.1}KiB", n as f64 / KIB as f64),
        MIB..=1073741823 => format!("{:.1}MiB", n as f64 / MIB as f64),
        _ => format!("{:.1}GiB", n as f64 / GIB as f64),
    }
}

/// Whether the shell loop should continue after a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFlow {
    /// Keep reading.
    Continue,
    /// `quit`/`exit` was entered.
    Quit,
}

#[allow(clippy::enum_variant_names)]
enum Builtin {
    Handled,
    Quit,
    NotBuiltin,
}

/// The `shell` class's `main`.
pub fn shell_main(_args: Vec<String>) -> Result<()> {
    Shell::new().run()
}
