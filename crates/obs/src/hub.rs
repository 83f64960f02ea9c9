//! [`ObsHub`]: the single observability object the VM owns.
//!
//! The hub composes the substrate pieces — event sink, metrics registries,
//! audit log, flight recorder, profiler, watchdogs — behind one handle.
//! It is told which application a record belongs to and never asks: the
//! VM reads the id off the calling thread's application context and
//! passes it in, so the hub knows nothing about threads or the runtime's
//! application table.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::audit::{self, AuditLog, AuditRecord};
use crate::demand::{self, DemandLedger};
use crate::metrics::{Counter, Histogram, MetricsRegistry, RegistrySnapshot};
use crate::profile::{self, Profiler};
use crate::recorder::{self, FlightRecorder};
use crate::sink::{self, EventKind, EventSink};
use crate::watchdog::WatchdogRegistry;

/// The hub's shared monotonic clock. Every timestamped substrate piece —
/// event sink, audit log, flight recorder, watchdogs — is stamped against
/// one origin, so an event's `at_ms`, a denial's `at_ms`, and a span's
/// `start_us` are directly comparable. (Before this existed, the sink and
/// the audit log each took their own `Instant::now()` at construction and
/// drifted by the construction skew.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsClock {
    origin: Instant,
}

impl ObsClock {
    /// A clock whose origin is now.
    pub fn new() -> ObsClock {
        ObsClock {
            origin: Instant::now(),
        }
    }

    /// Milliseconds since the clock's origin.
    pub fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// Microseconds since the clock's origin.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Milliseconds between the clock's origin and an [`Instant`] the caller
    /// already holds — pure arithmetic, no clock read, so hot paths that
    /// took a timestamp anyway (the access-check chokepoint) can stamp
    /// records for free. An instant before the origin clamps to zero.
    pub fn millis_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_millis() as u64
    }
}

impl Default for ObsClock {
    fn default() -> ObsClock {
        ObsClock::new()
    }
}

/// How the VM's permission decision cache participated in one access check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the decision cache without walking the stack's domains.
    Hit,
    /// Looked up, absent — the full walk ran and (if granted) seeded the
    /// cache.
    Miss,
    /// The cache was not consulted: an empty (fully-trusted) stack, a
    /// denial re-derivation, or a caller outside the cached fast path.
    Bypass,
}

impl CacheOutcome {
    /// The span name recorded for a check with this outcome, e.g.
    /// `access-check:miss`. The suffix doubles as a span attribute so trace
    /// consumers (E11/E12, `vmstat`) can split cold checks from denials
    /// (the VM's warm hits leave no span; see [`ObsHub::record_access_hit`]).
    pub fn span_name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "access-check:hit",
            CacheOutcome::Miss => "access-check:miss",
            CacheOutcome::Bypass => "access-check:bypass",
        }
    }
}

/// Number of shards in the per-application registry table. Application ids
/// are sequential, so `id % APP_SHARDS` spreads them uniformly; a power of
/// two keeps the fold to a mask.
const APP_SHARDS: usize = 16;

/// One shard of the per-application registry table: the live registries
/// whose ids hash here, plus the retired totals of reaped applications from
/// the same shard. Both live under ONE lock so [`ObsHub::remove_app`]
/// retires a registry atomically — a concurrent [`ObsHub::rollup`] reading
/// this shard sees each application exactly once, live *xor* retired, never
/// both and never neither.
struct AppShard {
    live: BTreeMap<u64, Arc<MetricsRegistry>>,
    retired: RegistrySnapshot,
}

struct HubInner {
    clock: ObsClock,
    sink: EventSink,
    audit: AuditLog,
    recorder: FlightRecorder,
    profiler: Profiler,
    watchdogs: WatchdogRegistry,
    vm: Arc<MetricsRegistry>,
    // The per-application registries, sharded by id so reaps, lookups and
    // attribution on different applications never queue on one table lock
    // (the control-plane scale-out mirror of the runtime's sharded app
    // registry).
    apps: [RwLock<AppShard>; APP_SHARDS],
    // The security chokepoint runs on every permission check; its VM-wide
    // instruments are resolved once here so the hot path never touches the
    // registry's name map.
    checks: Arc<Counter>,
    denied: Arc<Counter>,
    check_ns: Arc<Histogram>,
    check_depth: Arc<Histogram>,
    // Decision-cache accounting for the access-check fast path: hits serve
    // from the VM-wide cache, misses fall through to the full walk, bypasses
    // never consult the cache (empty stack or a denial re-derivation), and
    // invalidations count epoch bumps (policy and security-manager
    // changes).
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_bypass: Arc<Counter>,
    cache_invalidations: Arc<Counter>,
    // Watchdog stalls are rare; the counter is still resolved once because
    // the checker thread runs every poll interval.
    stalls: Arc<Counter>,
    // The permission-demand ledger: every access-check outcome lands here,
    // keyed by (app, code source, user, permission). Always on; the VM
    // caches its cells next to access decisions so warm checks only bump
    // atomics.
    demands: DemandLedger,
}

/// The composed observability hub. Cheap handle; clones share state.
#[derive(Clone)]
pub struct ObsHub {
    inner: Arc<HubInner>,
}

impl Default for ObsHub {
    fn default() -> ObsHub {
        ObsHub::new()
    }
}

impl ObsHub {
    /// Creates a hub with an enabled event sink and default capacities.
    pub fn new() -> ObsHub {
        ObsHub::with_sink(EventSink::new(sink::DEFAULT_CAPACITY))
    }

    /// Creates a hub around a caller-supplied sink — pass
    /// [`EventSink::disabled`] to measure the instrumented-but-off baseline.
    /// The sink's clock becomes the hub's shared clock: the audit log, the
    /// flight recorder, and the watchdogs are all stamped against it.
    pub fn with_sink(sink: EventSink) -> ObsHub {
        let clock = sink.clock();
        let vm = Arc::new(MetricsRegistry::new("vm"));
        ObsHub {
            inner: Arc::new(HubInner {
                clock,
                audit: AuditLog::with_clock(audit::DEFAULT_CAPACITY, clock),
                recorder: FlightRecorder::with_clock(recorder::DEFAULT_CAPACITY, clock, true),
                profiler: Profiler::with_clock(clock),
                watchdogs: WatchdogRegistry::with_clock(clock),
                sink,
                checks: vm.counter("security.checks"),
                denied: vm.counter("security.denied"),
                check_ns: vm.histogram("security.check_ns"),
                check_depth: vm.histogram("security.check_depth"),
                cache_hits: vm.counter("access.cache.hits"),
                cache_misses: vm.counter("access.cache.misses"),
                cache_bypass: vm.counter("access.cache.bypass"),
                cache_invalidations: vm.counter("access.cache.invalidations"),
                stalls: vm.counter("watchdog.stalls"),
                demands: DemandLedger::with_instruments(
                    demand::DEFAULT_CAPACITY,
                    vm.counter("demands.recorded"),
                    vm.counter("demands.dropped"),
                    vm.counter("demands.unique"),
                ),
                vm,
                apps: std::array::from_fn(|_| {
                    RwLock::new(AppShard {
                        live: BTreeMap::new(),
                        retired: RegistrySnapshot::empty("retired"),
                    })
                }),
            }),
        }
    }

    /// The shared monotonic clock every hub timestamp is measured against.
    pub fn clock(&self) -> ObsClock {
        self.inner.clock
    }

    /// The event stream.
    pub fn sink(&self) -> &EventSink {
        &self.inner.sink
    }

    /// The denial log.
    pub fn audit(&self) -> &AuditLog {
        &self.inner.audit
    }

    /// The span flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// The always-on VM profiler (per-opcode accounting + stack sampling).
    pub fn profiler(&self) -> &Profiler {
        &self.inner.profiler
    }

    /// The dispatcher/helper heartbeat registry.
    pub fn watchdogs(&self) -> &WatchdogRegistry {
        &self.inner.watchdogs
    }

    /// The permission-demand ledger.
    pub fn demands(&self) -> &DemandLedger {
        &self.inner.demands
    }

    /// Exports the flight recorder's spans *and* the profiler's retained
    /// samples as one Chrome `trace_event` document — the samples land as
    /// instant events on the same per-application `pid` rows as the spans.
    pub fn export_chrome_trace(&self) -> String {
        let mut events = self.inner.recorder.chrome_events();
        events.extend(self.inner.profiler.chrome_events());
        profile::chrome_trace_doc(events)
    }

    /// The VM-wide registry (metrics not attributable to one application).
    pub fn vm_metrics(&self) -> &Arc<MetricsRegistry> {
        &self.inner.vm
    }

    /// The shard holding application `id`'s registry.
    fn app_shard(&self, id: u64) -> &RwLock<AppShard> {
        &self.inner.apps[(id as usize) % APP_SHARDS]
    }

    /// Gets or creates the metrics registry for application `id`; `label`
    /// names the registry on first creation (e.g. the program name).
    pub fn app_registry(&self, id: u64, label: &str) -> Arc<MetricsRegistry> {
        let shard = self.app_shard(id);
        if let Some(registry) = shard.read().live.get(&id) {
            return Arc::clone(registry);
        }
        Arc::clone(
            shard
                .write()
                .live
                .entry(id)
                .or_insert_with(|| Arc::new(MetricsRegistry::new(format!("{id}:{label}")))),
        )
    }

    /// The registry for application `id`, if it exists.
    pub fn existing_app_registry(&self, id: u64) -> Option<Arc<MetricsRegistry>> {
        self.app_shard(id).read().live.get(&id).map(Arc::clone)
    }

    /// Retires application `id` at reap: drops its registry and retires its
    /// profile view ([`Profiler::retire_app`]). Its counters stop appearing
    /// in snapshots; its per-application-only totals are folded into the
    /// retired pool so the [`ObsHub::rollup`] never shrinks. The removal and
    /// the fold happen under ONE shard write lock, so a rollup racing the
    /// reap counts the application exactly once — it can never observe the
    /// registry gone from the live table but not yet merged into the
    /// retired pool.
    pub fn remove_app(&self, id: u64) {
        {
            let mut shard = self.app_shard(id).write();
            if let Some(registry) = shard.live.remove(&id) {
                let snapshot = registry.snapshot();
                shard.retired.merge(&snapshot);
            }
        }
        self.inner.profiler.retire_app(id);
    }

    /// Live per-application registries, in application-id order. Collected
    /// shard by shard — no lock spans the whole table.
    pub fn app_registries(&self) -> Vec<(u64, Arc<MetricsRegistry>)> {
        let mut out = Vec::new();
        for shard in &self.inner.apps {
            let guard = shard.read();
            out.extend(
                guard
                    .live
                    .iter()
                    .map(|(id, registry)| (*id, Arc::clone(registry))),
            );
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The chokepoint's record of a check answered without a walk: a
    /// decision-cache hit ([`CacheOutcome::Hit`]) or a trusted empty-stack
    /// bypass ([`CacheOutcome::Bypass`]). It bumps `security.checks` and
    /// the `access.cache.*` counter VM-wide, and `app_checks` — the calling
    /// application's `security.checks`, a handle the caller cached when its
    /// application context was built. It looks nothing up by name and
    /// leaves no span: a warm hit explains nothing a trace
    /// needs. `sample` carries `(latency_ns, depth)` for the checks whose
    /// clock the caller read (one in 64 per thread); only those feed
    /// `security.check_ns` and `security.check_depth`.
    pub fn record_access_hit(
        &self,
        cache: CacheOutcome,
        app_checks: Option<&Counter>,
        sample: Option<(u64, usize)>,
    ) {
        self.inner.checks.inc();
        self.cache_counter(cache).inc();
        if let Some(checks) = app_checks {
            checks.inc();
        }
        if let Some((latency_ns, depth)) = sample {
            self.inner.check_ns.record(latency_ns);
            self.inner.check_depth.record(depth as u64);
        }
    }

    fn cache_counter(&self, cache: CacheOutcome) -> &Counter {
        match cache {
            CacheOutcome::Hit => &self.inner.cache_hits,
            CacheOutcome::Miss => &self.inner.cache_misses,
            CacheOutcome::Bypass => &self.inner.cache_bypass,
        }
    }

    /// The chokepoint's record of a check that walked the stack: a miss
    /// or a denial. Counts and times it VM-wide and against `app`, the
    /// calling application, and leaves a `check` span inside a traced
    /// request.
    /// `denial` is `None` for a granted check; a denial passes the
    /// permission and the refusing-domain message, which additionally land
    /// in the audit log (with the flight recorder's incident record) and
    /// the event stream.
    /// `cache` says how the decision cache participated — it feeds the
    /// `access.cache.*` counters and suffixes the span name so traces show
    /// which checks ran the slow path.
    pub fn record_access_check(
        &self,
        denial: Option<(&str, &str)>,
        depth: usize,
        app: Option<u64>,
        user: Option<&str>,
        latency_ns: u64,
        cache: CacheOutcome,
    ) {
        self.inner.checks.inc();
        self.inner.check_ns.record(latency_ns);
        self.inner.check_depth.record(depth as u64);
        self.cache_counter(cache).inc();
        if let Some(registry) = app.and_then(|id| self.existing_app_registry(id)) {
            registry.counter("security.checks").inc();
            if denial.is_some() {
                registry.counter("security.denied").inc();
            }
        }
        // Inside a traced request, the check also leaves a span (the
        // recorder skips untraced threads itself). The cache outcome rides
        // in the span name as a poor man's attribute.
        self.inner.recorder.record_latency(
            recorder::SpanCategory::Check,
            cache.span_name(),
            app,
            latency_ns,
        );
        if let Some((permission, context)) = denial {
            self.inner.denied.inc();
            // A denial is an incident: the audit record carries the flight
            // recorder's incident record, the causal history that led here.
            self.inner.audit.record_with_dump(
                user.map(str::to_owned),
                app,
                permission,
                context,
                self.inner.recorder.dump(),
            );
            self.inner.sink.publish(
                EventKind::AccessDenied,
                app,
                user.map(str::to_owned),
                permission,
            );
        }
    }

    /// Records one decision-cache invalidation (an epoch bump: `set_policy`
    /// or `set_security_manager` killed every cached decision at once).
    pub fn record_access_cache_invalidation(&self) {
        self.inner.cache_invalidations.inc();
    }

    /// Records a refused allocation — a resource-quota denial — as an
    /// audited incident, mirroring how permission denials are treated: a
    /// VM-wide and per-app `quota.denied` counter bump, an audit record
    /// carrying the flight recorder's incident record, and a
    /// [`EventKind::QuotaDenied`] event on the sink. The incident record is
    /// bounded ([`FlightRecorder::dump`]), so an application storming its
    /// own quota pays for its own trace, not for the VM's whole history.
    pub fn record_quota_denial(&self, app: u64, user: Option<&str>, resource: &str, limit: u64) {
        self.inner.vm.counter("quota.denied").inc();
        if let Some(registry) = self.existing_app_registry(app) {
            registry.counter("quota.denied").inc();
        }
        let detail = format!("{resource} limit {limit}");
        self.inner.audit.record_with_dump(
            user.map(str::to_owned),
            Some(app),
            format!("resource \"{resource}\""),
            format!("quota exceeded: {detail}"),
            self.inner.recorder.dump(),
        );
        self.inner.sink.publish(
            EventKind::QuotaDenied,
            Some(app),
            user.map(str::to_owned),
            detail,
        );
    }

    /// Records an application fault (its main thread returned an error) as
    /// an audited incident carrying the flight record, mirroring how
    /// denials are treated.
    pub fn record_app_fault(&self, app: Option<u64>, user: Option<&str>, error: &str) {
        self.inner.vm.counter("apps.faulted").inc();
        self.inner.audit.record_with_dump(
            user.map(str::to_owned),
            app,
            "(application fault)",
            error,
            self.inner.recorder.dump(),
        );
    }

    /// One watchdog checker pass: any heartbeat newly past the stall
    /// threshold raises a [`EventKind::Watchdog`] event, bumps the VM-wide
    /// `watchdog.stalls` counter, and is charged to the stalled
    /// dispatcher's application when it has one. Returns how many new
    /// stalls fired.
    pub fn check_watchdogs(&self) -> usize {
        let stalled = self.inner.watchdogs.check();
        for row in &stalled {
            // Publish before counting: whoever sees the counter move (a
            // test, an operator's `vmstat`) then finds the event too.
            self.inner.sink.publish(
                EventKind::Watchdog,
                row.app,
                None,
                format!("{} stalled, last beat {}ms ago", row.name, row.age_ms),
            );
            self.inner.stalls.inc();
            if let Some(registry) = row.app.and_then(|id| self.existing_app_registry(id)) {
                registry.counter("watchdog.stalls").inc();
            }
        }
        stalled.len()
    }

    /// The VM-wide rollup. For any metric the VM registry maintains itself
    /// (`security.checks`, `gui.dispatched`, ...) the VM value is
    /// authoritative — it already includes every application's activity, so
    /// summing the per-application copies in would double-count. Metrics
    /// kept *only* per application (e.g. `pipe.bytes`) are summed across
    /// live registries and the retired pool of reaped applications. Gauges,
    /// being point-in-time, are not rolled up.
    pub fn rollup(&self) -> RegistrySnapshot {
        // The warm demand-bump path never touches the shared instrument;
        // derive `demands.recorded` from the cells at export time.
        self.inner.demands.sync_instruments();
        let mut rolled = self.inner.vm.snapshot();
        let vm_counters: Vec<String> = rolled.counters.keys().cloned().collect();
        let vm_histograms: Vec<String> = rolled.histograms.keys().cloned().collect();
        let fold = |snap: &RegistrySnapshot, rolled: &mut RegistrySnapshot| {
            for (name, value) in &snap.counters {
                if !vm_counters.contains(name) {
                    *rolled.counters.entry(name.clone()).or_insert(0) += value;
                }
            }
            for (name, hist) in &snap.histograms {
                if !vm_histograms.contains(name) {
                    rolled
                        .histograms
                        .entry(name.clone())
                        .and_modify(|h| h.merge(hist))
                        .or_insert_with(|| hist.clone());
                }
            }
        };
        // Fold each shard under its own read lock: the reap path retires a
        // registry under the same lock, so within a shard every application
        // contributes exactly once — live xor retired.
        for shard in &self.inner.apps {
            let guard = shard.read();
            fold(&guard.retired, &mut rolled);
            for registry in guard.live.values() {
                fold(&registry.snapshot(), &mut rolled);
            }
        }
        rolled
    }

    /// A serializable point-in-time snapshot of everything the hub holds.
    pub fn snapshot(&self) -> HubSnapshot {
        self.inner.demands.sync_instruments();
        let apps = self
            .app_registries()
            .into_iter()
            .map(|(_, registry)| {
                let snap = registry.snapshot();
                (snap.name.clone(), snap)
            })
            .collect();
        HubSnapshot {
            vm: self.inner.vm.snapshot(),
            apps,
            events_published: self.inner.sink.published(),
            events_dropped: self.inner.sink.dropped(),
            audit_total: self.inner.audit.total(),
            spans_recorded: self.inner.recorder.recorded(),
            spans_dropped: self.inner.recorder.dropped(),
        }
    }

    /// Recent audit records filtered by user and/or app — see
    /// [`AuditLog::query`].
    pub fn audit_query(&self, user: Option<&str>, app: Option<u64>) -> Vec<AuditRecord> {
        self.inner.audit.query(user, app)
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field("sink", &self.inner.sink)
            .field("audit", &self.inner.audit)
            .field(
                "apps",
                &self
                    .inner
                    .apps
                    .iter()
                    .map(|shard| shard.read().live.len())
                    .sum::<usize>(),
            )
            .finish()
    }
}

/// Point-in-time export of the hub: the VM registry, every per-application
/// registry (keyed by registry name, `"<id>:<label>"`), and the stream and
/// audit totals. This is what `experiments --out DIR` embeds in
/// `experiments-run.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HubSnapshot {
    /// The VM-wide registry.
    pub vm: RegistrySnapshot,
    /// Per-application registries keyed by name.
    pub apps: BTreeMap<String, RegistrySnapshot>,
    /// Total events published to the sink.
    pub events_published: u64,
    /// Events rotated out of the full ring.
    pub events_dropped: u64,
    /// Total permission denials audited.
    pub audit_total: u64,
    /// Total spans recorded by the flight recorder.
    pub spans_recorded: u64,
    /// Spans rotated out of the full recorder ring.
    pub spans_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_check_attributes_to_current_app() {
        let hub = ObsHub::new();
        hub.app_registry(3, "ps");
        hub.record_access_check(None, 4, Some(3), Some("alice"), 250, CacheOutcome::Hit);
        hub.record_access_check(
            Some(("(file /home/alice/notes read)", "file:/apps/cat")),
            6,
            Some(3),
            Some("bob"),
            900,
            CacheOutcome::Bypass,
        );
        assert_eq!(hub.vm_metrics().counter("security.checks").get(), 2);
        assert_eq!(hub.vm_metrics().counter("security.denied").get(), 1);
        assert_eq!(hub.vm_metrics().counter("access.cache.hits").get(), 1);
        assert_eq!(hub.vm_metrics().counter("access.cache.bypass").get(), 1);
        assert_eq!(hub.vm_metrics().counter("access.cache.misses").get(), 0);
        let app = hub.existing_app_registry(3).unwrap();
        assert_eq!(app.counter("security.checks").get(), 2);
        assert_eq!(app.counter("security.denied").get(), 1);
        let denials = hub.audit_query(Some("bob"), Some(3));
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].permission, "(file /home/alice/notes read)");
        assert_eq!(denials[0].context, "file:/apps/cat");
        let events = hub.sink().recent();
        assert_eq!(events.len(), 1, "only the denial hits the event stream");
        assert_eq!(events[0].kind, EventKind::AccessDenied);
    }

    #[test]
    fn warm_hits_count_vm_wide_and_per_app_and_leave_no_span() {
        const HITS: u64 = 1_000;
        let hub = ObsHub::new();
        let app_checks = hub.app_registry(3, "ps").counter("security.checks");
        let exec = hub
            .recorder()
            .begin(crate::SpanCategory::Exec, "exec:ps", None)
            .unwrap();
        let recorded = hub.recorder().recorded();
        for hit in 0..HITS {
            let sample = (hit % 64 == 0).then_some((250, 4));
            hub.record_access_hit(CacheOutcome::Hit, Some(&app_checks), sample);
        }
        let vm = hub.vm_metrics();
        assert_eq!(vm.counter("security.checks").get(), HITS);
        assert_eq!(vm.counter("access.cache.hits").get(), HITS);
        let app = hub.existing_app_registry(3).unwrap();
        assert_eq!(app.counter("security.checks").get(), HITS);
        assert_eq!(hub.recorder().recorded(), recorded, "hits leave no span");
        assert!(hub.recorder().spans().is_empty());
        assert_eq!(vm.histogram("security.check_ns").count(), HITS.div_ceil(64));
        assert_eq!(
            vm.histogram("security.check_depth").count(),
            HITS.div_ceil(64)
        );
        drop(exec);
        crate::trace::clear();
    }

    #[test]
    fn rollup_sums_vm_and_app_counters() {
        let hub = ObsHub::new();
        hub.vm_metrics().counter("classes.defined").add(5);
        hub.app_registry(1, "sh").counter("pipe.bytes").add(7);
        hub.app_registry(2, "ps").counter("pipe.bytes").add(3);
        let rolled = hub.rollup();
        assert_eq!(rolled.counters["classes.defined"], 5);
        assert_eq!(rolled.counters["pipe.bytes"], 10);
    }

    #[test]
    fn rollup_never_double_counts_vm_maintained_metrics() {
        // The chokepoint bumps both the VM counter and the per-app copy;
        // the rollup must report the VM total, not the sum of both.
        let hub = ObsHub::new();
        hub.app_registry(1, "cat");
        hub.record_access_check(None, 2, Some(1), None, 100, CacheOutcome::Miss);
        hub.record_access_check(
            Some(("(runtime x)", "ctx")),
            2,
            Some(1),
            Some("bob"),
            100,
            CacheOutcome::Bypass,
        );
        let rolled = hub.rollup();
        assert_eq!(rolled.counters["security.checks"], 2);
        assert_eq!(rolled.counters["security.denied"], 1);
    }

    #[test]
    fn reaped_app_totals_are_retained_in_the_rollup() {
        let hub = ObsHub::new();
        hub.app_registry(1, "sh").counter("pipe.bytes").add(40);
        hub.remove_app(1);
        assert!(hub.snapshot().apps.is_empty());
        assert_eq!(hub.rollup().counters["pipe.bytes"], 40);
    }

    #[test]
    fn rollup_racing_reaps_counts_each_app_exactly_once() {
        // The reap path retires a registry under the same shard lock that
        // removes it from the live table, so a rollup running concurrently
        // with reaps must see every application exactly once: with one unit
        // of `pipe.bytes` per app, every intermediate rollup sums to the
        // full total — never less (app vanished mid-retire), never more
        // (app counted live *and* retired).
        let hub = ObsHub::new();
        const APPS: u64 = 200;
        for id in 0..APPS {
            hub.app_registry(id, "storm").counter("pipe.bytes").inc();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let hub = hub.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observed = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    observed.push(hub.rollup().counters["pipe.bytes"]);
                }
                observed
            })
        };
        for id in 0..APPS {
            hub.remove_app(id);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let observed = reader.join().unwrap();
        assert!(
            observed.iter().all(|&total| total == APPS),
            "a rollup lost or duplicated an app mid-reap: {observed:?}"
        );
        assert_eq!(hub.rollup().counters["pipe.bytes"], APPS);
    }

    #[test]
    fn remove_app_drops_it_from_snapshots() {
        let hub = ObsHub::new();
        hub.app_registry(1, "sh").counter("x").inc();
        hub.app_registry(2, "ps").counter("x").inc();
        assert_eq!(hub.snapshot().apps.len(), 2);
        hub.remove_app(1);
        let snap = hub.snapshot();
        assert_eq!(snap.apps.len(), 1);
        assert!(snap.apps.contains_key("2:ps"));
    }

    #[test]
    fn sink_audit_recorder_and_watchdogs_share_one_clock() {
        // The satellite fix: one epoch, not one per substrate piece.
        let hub = ObsHub::new();
        assert_eq!(hub.sink().clock(), hub.clock());
        assert_eq!(hub.audit().clock(), hub.clock());
        assert_eq!(hub.recorder().clock(), hub.clock());
    }

    #[test]
    fn denial_inside_a_trace_carries_the_flight_record() {
        let hub = ObsHub::new();
        let span = hub
            .recorder()
            .begin(crate::SpanCategory::Exec, "exec:snoop", None)
            .unwrap();
        let trace_id = span.trace_id();
        hub.record_access_check(
            Some(("(file /home/alice/x read)", "file:/apps/snoop")),
            5,
            None,
            Some("bob"),
            700,
            CacheOutcome::Bypass,
        );
        drop(span);
        crate::trace::clear();
        let denials = hub.audit_query(Some("bob"), None);
        assert_eq!(denials.len(), 1);
        let dump = &denials[0].trace;
        assert!(!dump.is_empty(), "the denial carries the span ring");
        assert!(
            dump.iter()
                .any(|s| s.category == crate::SpanCategory::Check && s.trace_id == trace_id),
            "the refused check itself is in the dump: {dump:?}"
        );
    }

    #[test]
    fn app_fault_is_audited_with_the_flight_record() {
        let hub = ObsHub::new();
        hub.record_app_fault(Some(9), Some("alice"), "I/O error: pipe closed");
        assert_eq!(hub.vm_metrics().counter("apps.faulted").get(), 1);
        let records = hub.audit_query(None, Some(9));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].permission, "(application fault)");
        assert_eq!(records[0].context, "I/O error: pipe closed");
    }

    #[test]
    fn watchdog_stall_raises_event_and_metric() {
        let hub = ObsHub::new();
        hub.app_registry(4, "gui");
        hub.watchdogs()
            .set_threshold(std::time::Duration::from_millis(10));
        hub.watchdogs().register("awt-dispatch-4", Some(4));
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert_eq!(hub.check_watchdogs(), 1);
        assert_eq!(hub.vm_metrics().counter("watchdog.stalls").get(), 1);
        assert_eq!(
            hub.existing_app_registry(4)
                .unwrap()
                .counter("watchdog.stalls")
                .get(),
            1
        );
        let events = hub.sink().recent();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Watchdog);
        assert_eq!(events[0].app, Some(4));
        assert!(events[0].detail.contains("awt-dispatch-4"));
        // The latch: no second event until it beats and stalls again.
        assert_eq!(hub.check_watchdogs(), 0);
    }

    #[test]
    fn combined_chrome_export_interleaves_spans_and_samples() {
        let hub = ObsHub::new();
        crate::trace::clear();
        {
            let _span = hub
                .recorder()
                .begin(crate::SpanCategory::Exec, "exec:sh", None);
        }
        crate::trace::clear();
        let loc = hub.profiler().register_thread(Some(2));
        loc.push(hub.profiler().intern("Applet.main"));
        hub.profiler().sample_once(10_000);
        let json = hub.export_chrome_trace();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap().to_vec();
        let cats: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
            .collect();
        assert!(cats.contains(&"exec"), "{cats:?}");
        assert!(cats.contains(&"profile"), "{cats:?}");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let hub = ObsHub::new();
        hub.vm_metrics().histogram("security.check_ns").record(300);
        hub.app_registry(4, "mc").gauge("threads.live").set(2);
        hub.sink().publish(EventKind::AppExec, Some(4), None, "mc");
        let snap = hub.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HubSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.events_published, 1);
    }
}
