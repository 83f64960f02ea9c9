//! Permission-gated read-out of the VM's observability hub.
//!
//! Writing into the hub is free — the runtime instruments itself everywhere.
//! Reading it back *out* is an information flow between mutually-suspicious
//! applications (what Alice's editor is doing is none of Bob's business),
//! so every function here first passes a permission check through the same
//! stack-inspecting access controller the hub observes:
//!
//! * `RuntimePermission("readMetrics")` — [`top_rows`], [`vm_snapshot`],
//!   [`vm_rollup`], [`watchdog_rows`];
//! * `RuntimePermission("readAuditLog")` — [`audit_records`];
//! * `RuntimePermission("traceVm")` — [`set_tracing`], [`tracing_enabled`],
//!   [`chrome_trace`] (the flight recorder sees *every* application's spans,
//!   so both steering it and exporting it are privileged);
//! * `RuntimePermission("readProfile")` — [`set_profiling`],
//!   [`profiling_enabled`], [`profile_report`], [`profile_flame`],
//!   [`reset_profile`] (opcode mixes and sampled stacks reveal what another
//!   application is computing, so the profiler read-out is privileged too);
//! * `RuntimePermission("readDemands")` — [`demand_rows`] (the demand ledger
//!   names every permission every application exercised: a capability map of
//!   the whole VM);
//! * `RuntimePermission("inferPolicy")` — [`inferred_policy`],
//!   [`policy_diff`], [`reset_demands`], [`set_demand_recording`] (deriving
//!   or clearing policy evidence shapes future policy decisions, a step
//!   beyond merely reading it).
//!
//! All are typically granted per *user* (`grant user "admin" { permission
//! runtime readMetrics; }`), exercised through the §5.3 mechanism by any
//! program whose code source holds `exerciseUserPermissions`. A denied
//! read-out is itself a denial: it lands in the audit trail like any other.

use jmp_obs::{AuditRecord, DemandRow, HubSnapshot, ProfileReport, RegistrySnapshot, WatchdogRow};
use jmp_security::{ObservedDemand, Permission, Policy, PolicyDiffRow};
use jmp_vm::{ResourceKind, RESOURCE_KINDS};

use crate::runtime::MpRuntime;
use crate::Result;

/// One application's row in the `top` table: identity, point-in-time
/// resource gauges, and cumulative activity counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopRow {
    /// Application id.
    pub id: u64,
    /// Main class name.
    pub name: String,
    /// Running user.
    pub user: String,
    /// Live threads in the application's group.
    pub threads: i64,
    /// Open windows owned by the application.
    pub windows: i64,
    /// Streams the application opened and still owns.
    pub streams: i64,
    /// Events waiting in the application's AWT queue.
    pub queue_depth: i64,
    /// Permission checks charged to the application.
    pub checks: u64,
    /// Denied permission checks.
    pub denied: u64,
    /// GUI events dispatched to the application's listeners.
    pub dispatched: u64,
    /// Classes the application's loader defined (including re-loads).
    pub classes: u64,
    /// Bytes written through pipes the application created.
    pub pipe_bytes: u64,
}

/// One application's row in the resource-ledger table (the shell's `ps -l`
/// and the `vmstat` ledger section): live usage against quota for every
/// [`ResourceKind`], read straight off the application's
/// [`jmp_vm::AppContext`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRow {
    /// Application id.
    pub id: u64,
    /// Main class name.
    pub name: String,
    /// Running user.
    pub user: String,
    /// `(resource, used, limit)` in [`RESOURCE_KINDS`] order; a limit of
    /// `u64::MAX` means unlimited.
    pub resources: Vec<(ResourceKind, u64, u64)>,
    /// Charges denied so far (quota breaches).
    pub breaches: u64,
}

/// The per-application resource ledgers, one row per running application,
/// sorted by id.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readMetrics")` — another application's resource
/// footprint is as private as its metrics.
pub fn ledger_rows(rt: &MpRuntime) -> Result<Vec<LedgerRow>> {
    rt.vm()
        .check_permission(&Permission::runtime("readMetrics"))?;
    Ok(rt
        .applications()
        .iter()
        .map(|app| {
            let ctx = app.context();
            LedgerRow {
                id: app.id().0,
                name: app.name().to_string(),
                user: app.user().name().to_string(),
                resources: RESOURCE_KINDS
                    .iter()
                    .map(|&kind| (kind, ctx.ledger().get(kind), ctx.limits().get(kind)))
                    .collect(),
                breaches: ctx.breaches(),
            }
        })
        .collect())
}

/// Re-computes the point-in-time gauges the hub cannot maintain eventfully
/// (thread counts, open windows, queue depths) from the live runtime tables.
fn refresh_gauges(rt: &MpRuntime) {
    let hub = rt.vm().obs();
    let vm_metrics = hub.vm_metrics();
    vm_metrics
        .gauge("threads.live")
        .set(rt.vm().thread_count() as i64);
    vm_metrics
        .gauge("apps.running")
        .set(rt.application_count() as i64);
    if let Some(toolkit) = rt.toolkit() {
        vm_metrics
            .gauge("windows.open")
            .set(toolkit.window_count() as i64);
    }
    for app in rt.applications() {
        // `existing_app_registry`, not the get-or-create variant: an
        // application reaped between the sweep above and this point has had
        // its registry retired; re-creating it would resurrect a drained
        // ledger and double-count the app in the rollup (live *and* retired).
        let Some(registry) = hub.existing_app_registry(app.id().0) else {
            continue;
        };
        registry
            .gauge("threads.live")
            .set(app.threads().len() as i64);
        registry
            .gauge("streams.open")
            .set(app.owned_stream_count() as i64);
        if let Some(toolkit) = rt.toolkit() {
            registry
                .gauge("windows.open")
                .set(toolkit.windows_of_app(app.id().0).len() as i64);
            registry.gauge("gui.queue_depth").set(
                toolkit
                    .queue_of(app.id().0)
                    .map_or(0, |queue| queue.len() as i64),
            );
        }
    }
}

/// The live per-application metric table behind the shell's `top` builtin,
/// one row per running application, sorted by id.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readMetrics")`.
pub fn top_rows(rt: &MpRuntime) -> Result<Vec<TopRow>> {
    rt.vm()
        .check_permission(&Permission::runtime("readMetrics"))?;
    refresh_gauges(rt);
    let hub = rt.vm().obs();
    let gauge = |snap: &RegistrySnapshot, name: &str| snap.gauges.get(name).copied().unwrap_or(0);
    let counter =
        |snap: &RegistrySnapshot, name: &str| snap.counters.get(name).copied().unwrap_or(0);
    Ok(rt
        .applications()
        .iter()
        .filter_map(|app| {
            // Skip applications reaped since the sweep: their registries are
            // retired, and get-or-create here would resurrect them (see
            // `refresh_gauges`).
            let snap = hub.existing_app_registry(app.id().0)?.snapshot();
            Some(TopRow {
                id: app.id().0,
                name: app.name().to_string(),
                user: app.user().name().to_string(),
                threads: gauge(&snap, "threads.live"),
                windows: gauge(&snap, "windows.open"),
                streams: gauge(&snap, "streams.open"),
                queue_depth: gauge(&snap, "gui.queue_depth"),
                checks: counter(&snap, "security.checks"),
                denied: counter(&snap, "security.denied"),
                dispatched: counter(&snap, "gui.dispatched"),
                classes: counter(&snap, "classes.defined"),
                pipe_bytes: counter(&snap, "pipe.bytes"),
            })
        })
        .collect())
}

/// A full serializable snapshot of the hub (gauges refreshed first) — what
/// `experiments --out DIR` embeds in `experiments-run.json` and `vmstat`
/// prints from.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readMetrics")`.
pub fn vm_snapshot(rt: &MpRuntime) -> Result<HubSnapshot> {
    rt.vm()
        .check_permission(&Permission::runtime("readMetrics"))?;
    refresh_gauges(rt);
    Ok(rt.vm().obs().snapshot())
}

/// The VM-wide rollup: the VM registry merged with every live application
/// registry (counters sum, histograms merge).
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readMetrics")`.
pub fn vm_rollup(rt: &MpRuntime) -> Result<RegistrySnapshot> {
    rt.vm()
        .check_permission(&Permission::runtime("readMetrics"))?;
    refresh_gauges(rt);
    Ok(rt.vm().obs().rollup())
}

/// Recent permission denials, optionally filtered by user and/or
/// application id — the shell's `audit` builtin.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readAuditLog")`.
pub fn audit_records(
    rt: &MpRuntime,
    user: Option<&str>,
    app: Option<u64>,
) -> Result<Vec<AuditRecord>> {
    rt.vm()
        .check_permission(&Permission::runtime("readAuditLog"))?;
    Ok(rt.vm().obs().audit_query(user, app))
}

/// Turns the VM-wide flight recorder on or off — the shell's
/// `trace on|off`. The recorder is on by default; turning it off reduces
/// every span site to a single atomic load.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("traceVm")` — the refusal is audited like any other.
pub fn set_tracing(rt: &MpRuntime, enabled: bool) -> Result<()> {
    rt.vm().check_permission(&Permission::runtime("traceVm"))?;
    rt.vm().obs().recorder().set_enabled(enabled);
    Ok(())
}

/// Whether the flight recorder is currently recording.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("traceVm")`.
pub fn tracing_enabled(rt: &MpRuntime) -> Result<bool> {
    rt.vm().check_permission(&Permission::runtime("traceVm"))?;
    Ok(rt.vm().obs().recorder().is_enabled())
}

/// Exports the flight recorder's current ring as Chrome `trace_event` JSON
/// (load in `chrome://tracing` or Perfetto) — the shell's `trace dump`.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("traceVm")`: the ring holds spans from *every*
/// application, so exporting it is a cross-application information flow.
pub fn chrome_trace(rt: &MpRuntime) -> Result<String> {
    rt.vm().check_permission(&Permission::runtime("traceVm"))?;
    Ok(rt.vm().obs().export_chrome_trace())
}

/// Turns the profiler (opcode accounting *and* stack sampling) on or off —
/// the shell's `profile on|off`. Both are on by default; off reduces the
/// interpreter's accounting to a safepoint-cadence atomic load and frame
/// publication to one atomic load per call.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readProfile")` — the refusal is audited like any
/// other.
pub fn set_profiling(rt: &MpRuntime, enabled: bool) -> Result<()> {
    rt.vm()
        .check_permission(&Permission::runtime("readProfile"))?;
    rt.vm().obs().profiler().set_enabled(enabled);
    Ok(())
}

/// Whether the profiler is currently collecting (either mode).
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readProfile")`.
pub fn profiling_enabled(rt: &MpRuntime) -> Result<bool> {
    rt.vm()
        .check_permission(&Permission::runtime("readProfile"))?;
    Ok(rt.vm().obs().profiler().is_enabled())
}

/// A point-in-time [`ProfileReport`]: per-opcode counts, apportioned cost
/// quantiles, and weighted collapsed stacks, VM-wide and per application —
/// the shell's `profile report` and the `vmstat` top-opcodes section.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readProfile")`: the report covers *every*
/// application, so reading it is a cross-application information flow.
pub fn profile_report(rt: &MpRuntime) -> Result<ProfileReport> {
    rt.vm()
        .check_permission(&Permission::runtime("readProfile"))?;
    Ok(rt.vm().obs().profiler().report())
}

/// Renders the sampled stacks as flamegraph.pl collapsed-stack text
/// (`stack;frames weight` per line), VM-wide or for one application — the
/// shell's `profile flame [--app <id>]`.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readProfile")`.
pub fn profile_flame(rt: &MpRuntime, app: Option<u64>) -> Result<String> {
    rt.vm()
        .check_permission(&Permission::runtime("readProfile"))?;
    Ok(rt.vm().obs().profiler().report().flamegraph(app))
}

/// Discards accumulated profile tallies, stacks, and sample events,
/// starting a fresh observation window (enable switches and the installed
/// opcode model survive) — the shell's `profile reset`.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readProfile")`.
pub fn reset_profile(rt: &MpRuntime) -> Result<()> {
    rt.vm()
        .check_permission(&Permission::runtime("readProfile"))?;
    rt.vm().obs().profiler().reset();
    Ok(())
}

/// The watchdog table — one row per registered dispatcher/system-helper
/// heartbeat — behind the `vmstat` watchdog section.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readMetrics")`.
pub fn watchdog_rows(rt: &MpRuntime) -> Result<Vec<WatchdogRow>> {
    rt.vm()
        .check_permission(&Permission::runtime("readMetrics"))?;
    Ok(rt.vm().obs().watchdogs().rows())
}

/// The demand ledger's rows, optionally filtered by application id and/or
/// user — the shell's `policyinfer report` and the `vmstat` demands
/// section.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("readDemands")`: the ledger names every permission
/// every application exercised, a capability map of the whole VM.
pub fn demand_rows(rt: &MpRuntime, app: Option<u64>, user: Option<&str>) -> Result<Vec<DemandRow>> {
    rt.vm()
        .check_permission(&Permission::runtime("readDemands"))?;
    Ok(rt
        .vm()
        .obs()
        .demands()
        .rows()
        .into_iter()
        .filter(|row| app.is_none_or(|id| row.app == Some(id)))
        .filter(|row| user.is_none_or(|u| row.user.as_deref() == Some(u)))
        .collect())
}

/// Parses ledger rows back into typed demands for the inference engine.
/// Rows whose permission text fails to parse (impossible for rows the VM
/// wrote, possible for a truncated import) are skipped.
fn observed_demands(rows: &[DemandRow]) -> Vec<ObservedDemand> {
    rows.iter()
        .filter_map(|row| {
            let permission = Policy::parse_permission_entry(&row.permission).ok()?;
            Some(ObservedDemand {
                source: row.source.clone(),
                user: row.user.clone(),
                permission,
                granted: row.granted,
                denied: row.denied,
                via_user: row.via_user,
            })
        })
        .collect()
}

/// Runs least-privilege inference over the current demand ledger: the
/// minimal policy covering every granted demand observed so far, with
/// `resource "limit.*"` user grants carried from the installed policy —
/// the shell's `policyinfer emit`.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("inferPolicy")`.
pub fn inferred_policy(rt: &MpRuntime) -> Result<Policy> {
    rt.vm()
        .check_permission(&Permission::runtime("inferPolicy"))?;
    let rows = rt.vm().obs().demands().rows();
    Ok(jmp_security::infer_policy(
        &observed_demands(&rows),
        &rt.vm().policy(),
    ))
}

/// The over-grant report: every installed grant entry, flagged with whether
/// any observed demand exercised it — the shell's `policyinfer diff`.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("inferPolicy")`.
pub fn policy_diff(rt: &MpRuntime) -> Result<Vec<PolicyDiffRow>> {
    rt.vm()
        .check_permission(&Permission::runtime("inferPolicy"))?;
    let rows = rt.vm().obs().demands().rows();
    Ok(jmp_security::diff_policy(
        &rt.vm().policy(),
        &observed_demands(&rows),
    ))
}

/// Clears the demand ledger (and the decision cache holding its cells),
/// starting a fresh observation window — the shell's `policyinfer reset`.
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("inferPolicy")`.
pub fn reset_demands(rt: &MpRuntime) -> Result<()> {
    rt.vm()
        .check_permission(&Permission::runtime("inferPolicy"))?;
    rt.vm().reset_demands();
    Ok(())
}

/// Turns demand recording on or off (it is on — "always-on" — by default;
/// off reduces the ledger's warm-path cost to one relaxed load).
///
/// # Errors
///
/// [`crate::Error::Security`] unless the caller holds
/// `RuntimePermission("inferPolicy")`.
pub fn set_demand_recording(rt: &MpRuntime, enabled: bool) -> Result<()> {
    rt.vm()
        .check_permission(&Permission::runtime("inferPolicy"))?;
    rt.vm().obs().demands().set_enabled(enabled);
    Ok(())
}
