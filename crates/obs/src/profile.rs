//! `jmp-prof`: the always-on VM profiler.
//!
//! Two collection modes share one report model:
//!
//! * **Exact per-opcode accounting.** The interpreter keeps a thread-local
//!   tally (one array increment per dispatched instruction) and flushes it
//!   here at safepoints as a *block*: per-opcode execution counts plus the
//!   wall time the whole batch took. The profiler apportions the batch's
//!   time across its opcodes by the installed weight model (see
//!   [`Profiler::install_model`]) and feeds the per-execution estimate into
//!   a per-opcode [`Histogram`], so reports carry p50/p95/p99 cost alongside
//!   exact counts. Each block is attributed to the owning application (the
//!   `AppContext` the executing thread carries) and to the VM-wide view.
//!
//! * **Sampled stacks.** Each interpreter thread publishes its current
//!   method/frame stack into a [`ThreadLoc`] slot. Publication never blocks:
//!   the publisher replaces the slot's contents under a `try_lock`, so a
//!   collision with the sampler drops one update and the next frame
//!   transition re-publishes the full stack. A VM profiler thread calls
//!   [`Profiler::sample_once`] periodically, folding every live slot into
//!   weighted collapsed stacks (flamegraph.pl's `a;b;c weight` form) and a
//!   bounded ring of Chrome trace instant events.
//!
//!   The tick is **two-tier** so its cost tracks *activity*, not fleet
//!   size. A slot that republished since the last tick is scanned and
//!   sampled normally. A slot whose stack has not moved is sampled one
//!   last time and then *demoted*: it leaves the scan set and joins a
//!   settled population counted per `(app, collapsed stack)`. Settled
//!   threads keep accruing weight — in tick units, materialised into the
//!   view tables lazily on report or when the slot republishes — but cost
//!   the tick nothing. Ten thousand parked service mains blocked in the
//!   same frame are one settled entry, not ten thousand scans every 10 ms;
//!   re-sampling an unchanged stack adds no information, so none is lost.
//!
//! A live application's view grows with its work. When the application is
//! reaped, [`Profiler::retire_app`] freezes its view into a FIFO of the
//! [`REAPED_VIEWS`] most recently reaped; an older view is dropped, and the
//! VM-wide view, which counted every block, is all that remains of it. A
//! thread slot or settled population still holding a retired view bills
//! only the VM-wide view from then on, so nothing re-creates it.
//!
//! Writing into the profiler is free of permission checks, like the rest of
//! the hub; reading a [`ProfileReport`] back out is gated behind
//! `RuntimePermission("readProfile")` in the runtime layer, because one
//! application's opcode mix is another's side channel.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::hub::ObsClock;
use crate::metrics::Histogram;
use crate::trace;

/// How often the VM profiler thread samples published stacks.
pub const DEFAULT_SAMPLE_INTERVAL_MS: u64 = 10;

/// Recent samples retained for the Chrome trace export.
const MAX_SAMPLE_EVENTS: usize = 2048;

/// Stack-buffer size for the per-flush weighted-share apportionment in
/// [`Profiler::record_block`] — comfortably above any opcode-set size.
const MAX_OPCODE_SHARES: usize = 64;

/// Distinct collapsed stacks retained per view; the tail folds into
/// `"(overflow)"` so a stack-key explosion cannot grow without bound.
const MAX_STACKS: usize = 512;

/// Reaped applications whose views reports keep, newest last. A view costs
/// about 30 KB once its application has run interpreted code, so keeping
/// every reaped application's would grow without bound.
pub const REAPED_VIEWS: usize = 64;

/// One thread's published "current location": the frame stack the sampler
/// reads. Created by [`Profiler::register_thread`]; the owning thread keeps
/// the only strong reference besides the registry, so slot lifetime follows
/// thread lifetime.
pub struct ThreadLoc {
    thread: u64,
    app: Option<u64>,
    /// The application's view, resolved at registration so the sampler
    /// bills it without a lookup — and cannot re-create it once retired.
    view: Option<AppTable>,
    frames: Mutex<Vec<Arc<str>>>,
    /// Whether the slot is currently in the sampler's scan set. Entered on
    /// the first non-empty publication — a thread that never interprets
    /// never enrolls — and left again when the stack settles.
    enrolled: AtomicBool,
    /// Set by every publication, cleared by the sampler tick. Still clear
    /// at the next tick means the stack has not moved: the slot is demoted
    /// from per-tick scanning into the settled population.
    dirty: AtomicBool,
    /// The collapsed stack key this slot is settled under, if demoted.
    settled: Mutex<Option<String>>,
    registry: Weak<ProfilerInner>,
    me: Weak<ThreadLoc>,
}

impl ThreadLoc {
    /// The registering thread's stable trace ordinal.
    pub fn thread(&self) -> u64 {
        self.thread
    }

    /// The application the thread's work bills to (`None` = VM bucket).
    pub fn app(&self) -> Option<u64> {
        self.app
    }

    /// Replaces the published stack wholesale. Publisher-side wait-free: a
    /// `try_lock` miss (the sampler is mid-read) drops this update, and the
    /// next frame transition publishes the then-current stack. The first
    /// non-empty publication enrolls the slot in the sampler's scan set —
    /// until then the sampler does not know the thread exists, which is
    /// what keeps the per-tick cost proportional to interpreting threads
    /// rather than to the whole fleet.
    pub fn publish(&self, frames: &[Arc<str>]) {
        let published = if let Some(mut slot) = self.frames.try_lock() {
            slot.clear();
            slot.extend(frames.iter().cloned());
            !slot.is_empty()
        } else {
            return;
        };
        self.dirty.store(true, Ordering::Relaxed);
        // A settled slot that moves rejoins the scan set; its owed idle
        // weight is materialised under the *old* key first. The settled
        // guard is released before touching the scan list — the sampler
        // takes those locks in the opposite order.
        if let Some(key) = self.settled.lock().take() {
            if let Some(registry) = self.registry.upgrade() {
                unsettle(&registry, self.app, key);
            }
        }
        if published && !self.enrolled.swap(true, Ordering::Relaxed) {
            if let Some(registry) = self.registry.upgrade() {
                registry.threads.lock().push(self.me.clone());
            }
        }
    }
}

impl Drop for ThreadLoc {
    fn drop(&mut self) {
        // A settled thread that exits takes its count out of the settled
        // population (after materialising what it is owed).
        if let Some(key) = self.settled.get_mut().take() {
            if let Some(registry) = self.registry.upgrade() {
                unsettle(&registry, self.app, key);
            }
        }
    }
}

impl std::fmt::Debug for ThreadLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadLoc")
            .field("thread", &self.thread)
            .field("app", &self.app)
            .finish()
    }
}

/// The opcode name/weight model, installed once by the interpreter layer.
#[derive(Default)]
struct OpcodeModel {
    names: Vec<String>,
    weights: Vec<u64>,
}

/// One view's accumulation: per-opcode tallies plus collapsed stacks.
#[derive(Default)]
struct ViewTable {
    counts: Vec<u64>,
    cost_ns: Vec<u64>,
    hists: Vec<Histogram>,
    stacks: BTreeMap<String, u64>,
    /// Set when the view's application is reaped: the table is frozen and
    /// ignores further blocks and samples.
    retired: bool,
}

/// One application's view, shared by the registry and whatever bills it.
type AppTable = Arc<Mutex<ViewTable>>;

/// The per-application views: live applications' by id, and the
/// [`REAPED_VIEWS`] most recently retired, oldest first.
#[derive(Default)]
struct AppViews {
    live: BTreeMap<u64, AppTable>,
    reaped: VecDeque<(u64, AppTable)>,
}

impl ViewTable {
    fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0) && self.stacks.is_empty()
    }

    fn ensure(&mut self, len: usize) {
        if self.counts.len() < len {
            self.counts.resize(len, 0);
            self.cost_ns.resize(len, 0);
            self.hists.resize_with(len, Histogram::new);
        }
    }

    fn add_block(&mut self, counts: &[u64], shares: &[u64]) {
        if self.retired {
            return;
        }
        self.ensure(counts.len());
        for (i, (&count, &share)) in counts.iter().zip(shares.iter()).enumerate() {
            if count == 0 {
                continue;
            }
            self.counts[i] += count;
            self.cost_ns[i] += share;
            self.hists[i].record(share / count);
        }
    }

    fn add_sample(&mut self, key: &str, weight_us: u64) {
        if self.retired {
            return;
        }
        if self.stacks.len() >= MAX_STACKS && !self.stacks.contains_key(key) {
            *self.stacks.entry("(overflow)".to_string()).or_insert(0) += weight_us;
            return;
        }
        *self.stacks.entry(key.to_string()).or_insert(0) += weight_us;
    }
}

/// One retained sample, for the Chrome trace export.
struct SampleEvent {
    ts_us: u64,
    thread: u64,
    app: Option<u64>,
    stack: String,
    top: String,
}

/// One settled population: `count` demoted threads share this exact
/// collapsed stack and have accrued nothing since `settle_tick`. Their
/// owed weight (`count × elapsed ticks × tick interval`) is materialised
/// into the view tables lazily — on report, or when a member republishes
/// or exits — so the population costs the sampler tick nothing.
struct SettledEntry {
    count: u64,
    settle_tick: u64,
    /// The members' application view (`None` = VM bucket only).
    view: Option<AppTable>,
}

struct ProfilerInner {
    accounting: AtomicBool,
    sampling: AtomicBool,
    clock: ObsClock,
    model: RwLock<OpcodeModel>,
    vm: Mutex<ViewTable>,
    apps: RwLock<AppViews>,
    threads: Mutex<Vec<Weak<ThreadLoc>>>,
    settled: Mutex<BTreeMap<(Option<u64>, String), SettledEntry>>,
    tick: AtomicU64,
    last_interval: AtomicU64,
    flushes: AtomicU64,
    samples: AtomicU64,
    events: Mutex<VecDeque<SampleEvent>>,
}

/// Brings `entry` up to the current tick: adds its owed weight to the VM
/// and per-app view tables and rebases `settle_tick`. Takes table locks
/// only — never `threads` or `settled` (the caller may hold either).
fn materialize(inner: &ProfilerInner, key: &str, entry: &mut SettledEntry) {
    let tick = inner.tick.load(Ordering::Relaxed);
    let owed_ticks = tick.saturating_sub(entry.settle_tick);
    entry.settle_tick = tick;
    if owed_ticks == 0 || entry.count == 0 {
        return;
    }
    let weight = owed_ticks * entry.count * inner.last_interval.load(Ordering::Relaxed);
    inner.vm.lock().add_sample(key, weight);
    if let Some(view) = &entry.view {
        view.lock().add_sample(key, weight);
    }
    inner
        .samples
        .fetch_add(owed_ticks * entry.count, Ordering::Relaxed);
}

/// Removes one thread from the settled population under `key`, first
/// materialising what the entry is owed.
fn unsettle(inner: &ProfilerInner, app: Option<u64>, key: String) {
    let mut settled = inner.settled.lock();
    let map_key = (app, key);
    if let Some(entry) = settled.get_mut(&map_key) {
        materialize(inner, &map_key.1, entry);
        entry.count -= 1;
        if entry.count == 0 {
            settled.remove(&map_key);
        }
    }
}

/// `app`'s live view, created on first use. An id that comes back after
/// its view was retired (a checkpoint restored under its old id) starts a
/// fresh view, which replaces the retired one.
fn inner_app_table(inner: &ProfilerInner, app: u64) -> AppTable {
    if let Some(table) = inner.apps.read().live.get(&app) {
        return Arc::clone(table);
    }
    let mut views = inner.apps.write();
    if !views.live.contains_key(&app) {
        views.reaped.retain(|(id, _)| *id != app);
    }
    Arc::clone(views.live.entry(app).or_default())
}

/// The profiler. Cheap handle; clones share state. Both collection modes
/// are on by default — "always-on" is the point, and the accounting path is
/// budgeted at ≤5% interpreter overhead (experiment E16 gates it; E16c
/// times the accounting path per call).
#[derive(Clone)]
pub struct Profiler {
    inner: Arc<ProfilerInner>,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    /// Creates a profiler on its own clock (the hub re-bases profilers onto
    /// its shared clock).
    pub fn new() -> Profiler {
        Profiler::with_clock(ObsClock::new())
    }

    /// Creates a profiler stamping samples with `clock`.
    pub fn with_clock(clock: ObsClock) -> Profiler {
        Profiler {
            inner: Arc::new(ProfilerInner {
                accounting: AtomicBool::new(true),
                sampling: AtomicBool::new(true),
                clock,
                model: RwLock::new(OpcodeModel::default()),
                vm: Mutex::new(ViewTable::default()),
                apps: RwLock::new(AppViews::default()),
                threads: Mutex::new(Vec::new()),
                settled: Mutex::new(BTreeMap::new()),
                tick: AtomicU64::new(0),
                last_interval: AtomicU64::new(DEFAULT_SAMPLE_INTERVAL_MS * 1_000),
                flushes: AtomicU64::new(0),
                samples: AtomicU64::new(0),
                events: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Whether per-opcode accounting is on (one relaxed load — the
    /// interpreter re-reads this at safepoints, not per instruction).
    pub fn accounting_enabled(&self) -> bool {
        self.inner.accounting.load(Ordering::Relaxed)
    }

    /// Turns per-opcode accounting on or off.
    pub fn set_accounting(&self, enabled: bool) {
        self.inner.accounting.store(enabled, Ordering::Relaxed);
    }

    /// Whether stack sampling is on.
    pub fn sampling_enabled(&self) -> bool {
        self.inner.sampling.load(Ordering::Relaxed)
    }

    /// Turns stack sampling on or off (the sampler thread keeps running and
    /// re-checks per tick; publishers stop publishing).
    pub fn set_sampling(&self, enabled: bool) {
        self.inner.sampling.store(enabled, Ordering::Relaxed);
    }

    /// Turns both collection modes on or off — the shell's
    /// `profile on|off`.
    pub fn set_enabled(&self, enabled: bool) {
        self.set_accounting(enabled);
        self.set_sampling(enabled);
    }

    /// Whether either collection mode is on.
    pub fn is_enabled(&self) -> bool {
        self.accounting_enabled() || self.sampling_enabled()
    }

    /// Installs the opcode name/weight model reports resolve indices
    /// against. Idempotent: the first non-empty installation wins, so the
    /// interpreter can call this on every run cheaply.
    pub fn install_model(&self, names: &[&str], weights: &[u64]) {
        if !self.inner.model.read().names.is_empty() {
            return;
        }
        let mut model = self.inner.model.write();
        if model.names.is_empty() {
            model.names = names.iter().map(|n| n.to_string()).collect();
            model.weights = weights.to_vec();
        }
    }

    /// Accepts one flushed accounting block: per-opcode execution counts
    /// (index = opcode) and the wall time the batch took. The batch's time
    /// is apportioned across its opcodes by the installed weights; the
    /// per-execution estimate feeds each opcode's cost histogram. Billed to
    /// `app`'s view when given, and always to the VM-wide view.
    pub fn record_block(&self, app: Option<u64>, counts: &[u64], elapsed_ns: u64) {
        if !self.accounting_enabled() {
            return;
        }
        let model = self.inner.model.read();
        let weight = |i: usize| model.weights.get(i).copied().unwrap_or(1).max(1);
        let total_weight: u128 = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| u128::from(c) * u128::from(weight(i)))
            .sum();
        if total_weight == 0 {
            return;
        }
        // Apportion into a stack buffer: this runs on every interpreter
        // flush, so it must not allocate or divide per opcode. Opcode sets
        // larger than the buffer (none today) fall back to the unweighted
        // tail; f64 rounding loses at most a few ns per batch.
        let scale = elapsed_ns as f64 / total_weight as f64;
        let mut shares = [0u64; MAX_OPCODE_SHARES];
        let n = counts.len().min(MAX_OPCODE_SHARES);
        for (i, share) in shares.iter_mut().enumerate().take(n) {
            if counts[i] > 0 {
                *share = (counts[i] as f64 * weight(i) as f64 * scale) as u64;
            }
        }
        drop(model);
        self.inner.vm.lock().add_block(&counts[..n], &shares[..n]);
        if let Some(app) = app {
            inner_app_table(&self.inner, app)
                .lock()
                .add_block(&counts[..n], &shares[..n]);
        }
        self.inner.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers the calling thread's location slot, billed to `app`
    /// (`None` = the VM bucket, e.g. detached threads). The returned slot
    /// is what the thread publishes its frame stack into; dropping it
    /// (thread exit) retires the slot at the next sampler tick. The slot
    /// only enters the sampler's scan set on its first non-empty
    /// [`ThreadLoc::publish`]: threads that never run interpreted code —
    /// e.g. ten thousand parked service mains — add nothing to the tick.
    pub fn register_thread(&self, app: Option<u64>) -> Arc<ThreadLoc> {
        Arc::new_cyclic(|me| ThreadLoc {
            thread: trace::thread_ordinal(),
            app,
            view: app.map(|app| inner_app_table(&self.inner, app)),
            frames: Mutex::new(Vec::new()),
            enrolled: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            settled: Mutex::new(None),
            registry: Arc::downgrade(&self.inner),
            me: me.clone(),
        })
    }

    /// Takes one sampling pass over the *active* scan set, weighting each
    /// observed stack by `interval_us` (the time since the previous pass).
    /// A slot that did not republish since the last tick is sampled one
    /// final time and demoted to the settled population; it rejoins the
    /// scan on its next publication. Returns how many threads were scanned
    /// on-stack this tick (settled threads accrue out of band). Called by
    /// the VM profiler thread; a no-op while sampling is off.
    pub fn sample_once(&self, interval_us: u64) -> usize {
        if !self.sampling_enabled() {
            return 0;
        }
        let inner = &*self.inner;
        inner.last_interval.store(interval_us, Ordering::Relaxed);
        let tick = inner.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sampled = 0;
        // The scan set holds only recently-active threads, so the table
        // work can stay under the scan lock; publishers touch it solely on
        // enrollment, after releasing every other profiler lock.
        let mut threads = inner.threads.lock();
        let mut keep = Vec::with_capacity(threads.len());
        for weak in threads.drain(..) {
            let Some(loc) = weak.upgrade() else { continue };
            let frames = loc.frames.lock().clone();
            let dirty = loc.dirty.swap(false, Ordering::Relaxed);
            if frames.is_empty() {
                // A cleared stack costs nothing to keep for one quiet
                // tick; after that the slot leaves the scan until it
                // publishes again.
                if dirty {
                    keep.push(weak);
                } else {
                    loc.enrolled.store(false, Ordering::Relaxed);
                }
                continue;
            }
            let key = frames
                .iter()
                .map(|f| f.as_ref())
                .collect::<Vec<&str>>()
                .join(";");
            inner.vm.lock().add_sample(&key, interval_us);
            if let Some(view) = &loc.view {
                view.lock().add_sample(&key, interval_us);
            }
            let top = frames.last().map_or(String::new(), |f| f.to_string());
            let mut events = inner.events.lock();
            if events.len() >= MAX_SAMPLE_EVENTS {
                events.pop_front();
            }
            events.push_back(SampleEvent {
                ts_us: inner.clock.now_us(),
                thread: loc.thread,
                app: loc.app,
                stack: key.clone(),
                top,
            });
            drop(events);
            inner.samples.fetch_add(1, Ordering::Relaxed);
            sampled += 1;
            if dirty {
                keep.push(weak);
                continue;
            }
            // Unchanged since the last tick: demote. Accrual starts at the
            // *next* tick — this one was just sampled directly.
            {
                let mut settled = inner.settled.lock();
                let entry = settled
                    .entry((loc.app, key.clone()))
                    .or_insert_with(|| SettledEntry {
                        count: 0,
                        settle_tick: tick,
                        view: loc.view.clone(),
                    });
                materialize(inner, &key, entry);
                entry.count += 1;
                *loc.settled.lock() = Some(key);
            }
            loc.enrolled.store(false, Ordering::Relaxed);
            // Close the demotion race: a publication that slipped in after
            // the dirty check would otherwise strand a moving thread in
            // the settled population.
            if loc.dirty.load(Ordering::Relaxed) {
                if let Some(key) = loc.settled.lock().take() {
                    unsettle(inner, loc.app, key);
                }
                loc.enrolled.store(true, Ordering::Relaxed);
                keep.push(weak);
            }
        }
        *threads = keep;
        sampled
    }

    /// Brings every settled population up to the current tick so reports
    /// see the full accrued weight.
    fn materialize_settled(&self) {
        let inner = &*self.inner;
        let mut settled = inner.settled.lock();
        for ((_, key), entry) in settled.iter_mut() {
            materialize(inner, key, entry);
        }
    }

    /// Accounting blocks flushed so far.
    pub fn flushes(&self) -> u64 {
        self.inner.flushes.load(Ordering::Relaxed)
    }

    /// Stack samples taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.inner.samples.load(Ordering::Relaxed)
    }

    /// Snapshots everything collected so far into a [`ProfileReport`].
    pub fn report(&self) -> ProfileReport {
        self.materialize_settled();
        let model = self.inner.model.read();
        let vm = render_view(None, &self.inner.vm.lock(), &model);
        let views = self.inner.apps.read();
        let mut apps: Vec<ProfileView> = views
            .live
            .iter()
            .chain(views.reaped.iter().map(|(id, table)| (id, table)))
            .filter_map(|(&id, table)| {
                let table = table.lock();
                (!table.is_empty()).then(|| render_view(Some(id), &table, &model))
            })
            .collect();
        drop(views);
        apps.sort_by_key(|view| view.app);
        ProfileReport {
            at_ms: self.inner.clock.now_ms(),
            accounting_enabled: self.accounting_enabled(),
            sampling_enabled: self.sampling_enabled(),
            flushes: self.flushes(),
            samples_taken: self.samples_taken(),
            vm,
            apps,
        }
    }

    /// The retained samples as Chrome `trace_event` instant events, for the
    /// hub's combined export: each sample lands on the owning application's
    /// `pid` row next to the flight recorder's spans.
    pub fn chrome_events(&self) -> Vec<serde_json::Value> {
        let entry = |key: &str, value: serde_json::Value| (key.to_owned(), value);
        self.inner
            .events
            .lock()
            .iter()
            .map(|event| {
                serde_json::Value::Map(vec![
                    entry("name", event.top.serialize_value()),
                    entry("cat", "profile".serialize_value()),
                    entry("ph", "i".serialize_value()),
                    entry("ts", event.ts_us.serialize_value()),
                    entry("pid", event.app.unwrap_or(0).serialize_value()),
                    entry("tid", event.thread.serialize_value()),
                    entry("s", "t".serialize_value()),
                    entry(
                        "args",
                        serde_json::Value::Map(vec![entry("stack", event.stack.serialize_value())]),
                    ),
                ])
            })
            .collect()
    }

    /// Retires `app`'s view at reap: the view is frozen, joins the
    /// [`REAPED_VIEWS`] most recently retired (the oldest beyond them is
    /// dropped), and whatever still holds it — a straggling thread slot, a
    /// settled population — bills only the VM-wide view from now on.
    pub fn retire_app(&self, app: u64) {
        let mut views = self.inner.apps.write();
        let Some(table) = views.live.remove(&app) else {
            return;
        };
        let mut frozen = table.lock();
        frozen.retired = true;
        if frozen.is_empty() {
            return;
        }
        drop(frozen);
        views.reaped.push_back((app, table));
        if views.reaped.len() > REAPED_VIEWS {
            views.reaped.pop_front();
        }
    }

    /// Drops everything collected (tallies, stacks, retained samples,
    /// retired views, the flush/sample totals). Enablement, the opcode
    /// model, and registered thread slots survive — `profile reset` starts
    /// a fresh window, it does not tear the profiler down.
    pub fn reset(&self) {
        // The settled *population* survives a reset (it is who exists, not
        // what was collected), but its accrual rebases onto the new window.
        let tick = self.inner.tick.load(Ordering::Relaxed);
        for entry in self.inner.settled.lock().values_mut() {
            entry.settle_tick = tick;
        }
        *self.inner.vm.lock() = ViewTable::default();
        // Live views are cleared in place: thread slots and settled
        // populations hold them and keep billing them.
        let mut views = self.inner.apps.write();
        for table in views.live.values() {
            *table.lock() = ViewTable::default();
        }
        views.reaped.clear();
        drop(views);
        self.inner.events.lock().clear();
        self.inner.flushes.store(0, Ordering::Relaxed);
        self.inner.samples.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("accounting", &self.accounting_enabled())
            .field("sampling", &self.sampling_enabled())
            .field("flushes", &self.flushes())
            .field("samples", &self.samples_taken())
            .finish()
    }
}

fn render_view(app: Option<u64>, table: &ViewTable, model: &OpcodeModel) -> ProfileView {
    let mut opcodes: Vec<OpcodeProfile> = table
        .counts
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, &count)| {
            let snap = table.hists[i].snapshot();
            let qs = snap.quantiles(&[0.5, 0.95, 0.99]);
            OpcodeProfile {
                opcode: model
                    .names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("op{i}")),
                count,
                cost_ns: table.cost_ns[i],
                p50_ns: qs[0],
                p95_ns: qs[1],
                p99_ns: qs[2],
            }
        })
        .collect();
    opcodes.sort_by(|a, b| b.count.cmp(&a.count).then(a.opcode.cmp(&b.opcode)));
    ProfileView {
        label: app.map_or_else(|| "vm".to_string(), |id| format!("app-{id}")),
        app,
        instructions: table.counts.iter().sum(),
        cost_ns: table.cost_ns.iter().sum(),
        opcodes,
        stacks: table.stacks.clone(),
    }
}

/// Wraps Chrome `trace_event` values into the standard document form.
pub(crate) fn chrome_trace_doc(events: Vec<serde_json::Value>) -> String {
    let entry = |key: &str, value: serde_json::Value| (key.to_owned(), value);
    let doc = serde_json::Value::Map(vec![
        entry("traceEvents", serde_json::Value::Seq(events)),
        entry("displayTimeUnit", "ms".serialize_value()),
    ]);
    serde_json::to_string_pretty(&doc).expect("chrome trace serializes")
}

/// One opcode's row in a [`ProfileView`]: exact count, apportioned
/// cumulative cost, and the per-execution cost distribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpcodeProfile {
    /// Opcode mnemonic (`add`, `native`, ...).
    pub opcode: String,
    /// Exact execution count.
    pub count: u64,
    /// Cumulative apportioned cost in nanoseconds.
    pub cost_ns: u64,
    /// Median per-execution cost estimate (ns).
    pub p50_ns: u64,
    /// 95th-percentile per-execution cost estimate (ns).
    pub p95_ns: u64,
    /// 99th-percentile per-execution cost estimate (ns).
    pub p99_ns: u64,
}

/// One attribution scope's profile: the VM-wide view or one application's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileView {
    /// `"vm"` or `"app-<id>"`.
    pub label: String,
    /// The application this view bills to; `None` for the VM-wide view.
    pub app: Option<u64>,
    /// Total instructions accounted to this view.
    pub instructions: u64,
    /// Total apportioned cost in nanoseconds.
    pub cost_ns: u64,
    /// Per-opcode rows, busiest first (zero-count opcodes omitted).
    pub opcodes: Vec<OpcodeProfile>,
    /// Weighted collapsed stacks: `frame;frame;frame` → sampled µs.
    pub stacks: BTreeMap<String, u64>,
}

impl ProfileView {
    /// The `n` busiest opcode rows.
    pub fn top_opcodes(&self, n: usize) -> &[OpcodeProfile] {
        &self.opcodes[..self.opcodes.len().min(n)]
    }
}

/// A point-in-time snapshot of everything both collection modes gathered:
/// the VM-wide view plus one view per application that executed interpreted
/// code and is live or among the [`REAPED_VIEWS`] most recently reaped.
/// Serializable — `experiments --out DIR` writes one of these into
/// `BENCH_E16.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Capture time, ms on the hub clock.
    pub at_ms: u64,
    /// Whether per-opcode accounting was on at capture.
    pub accounting_enabled: bool,
    /// Whether stack sampling was on at capture.
    pub sampling_enabled: bool,
    /// Accounting blocks flushed since start/reset.
    pub flushes: u64,
    /// Stack samples taken since start/reset.
    pub samples_taken: u64,
    /// The VM-wide view (every thread, detached work included).
    pub vm: ProfileView,
    /// Per-application views, live and recently reaped, in application-id
    /// order.
    pub apps: Vec<ProfileView>,
}

impl ProfileReport {
    /// The view for `app`, or the VM-wide view when `None`.
    pub fn view(&self, app: Option<u64>) -> Option<&ProfileView> {
        match app {
            Some(id) => self.apps.iter().find(|v| v.app == Some(id)),
            None => Some(&self.vm),
        }
    }

    /// Renders a view's collapsed stacks as flamegraph.pl-compatible text:
    /// one `frame;frame;frame weight` line per distinct stack. An unknown
    /// app id (or one with no samples) renders as the empty string.
    pub fn flamegraph(&self, app: Option<u64>) -> String {
        let Some(view) = self.view(app) else {
            return String::new();
        };
        let mut out = String::new();
        for (stack, weight) in &view.stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(p: &Profiler) {
        p.install_model(&["alpha", "beta", "gamma"], &[1, 1, 10]);
    }

    #[test]
    fn blocks_bill_the_app_and_the_vm() {
        let p = Profiler::new();
        model(&p);
        p.record_block(Some(7), &[10, 0, 10], 1_100);
        p.record_block(None, &[5, 5, 0], 100);
        let report = p.report();
        assert_eq!(report.vm.instructions, 30);
        let app7 = report.view(Some(7)).unwrap();
        assert_eq!(app7.instructions, 20);
        assert_eq!(app7.label, "app-7");
        assert_eq!(report.flushes, 2);
        // The weighted apportionment gives gamma (weight 10) the lion's
        // share of app 7's 1.1µs batch.
        let gamma = app7.opcodes.iter().find(|o| o.opcode == "gamma").unwrap();
        let alpha = app7.opcodes.iter().find(|o| o.opcode == "alpha").unwrap();
        assert_eq!(gamma.count, 10);
        assert_eq!(gamma.cost_ns, 1_000);
        assert_eq!(alpha.cost_ns, 100);
        assert!(gamma.p50_ns >= alpha.p50_ns);
        // Rows come busiest-first and totals add up.
        assert!(report.vm.opcodes[0].count >= report.vm.opcodes[1].count);
        assert_eq!(report.vm.cost_ns, 1_200);
    }

    #[test]
    fn disabled_accounting_drops_blocks() {
        let p = Profiler::new();
        model(&p);
        p.set_accounting(false);
        p.record_block(Some(1), &[100, 0, 0], 500);
        assert_eq!(p.report().vm.instructions, 0);
        assert!(p.report().apps.is_empty());
    }

    #[test]
    fn sampler_collects_weighted_collapsed_stacks() {
        let p = Profiler::new();
        let loc = p.register_thread(Some(3));
        loc.publish(&[Arc::from("Applet.main"), Arc::from("Applet.tick")]);
        assert_eq!(p.sample_once(10_000), 1);
        assert_eq!(p.sample_once(10_000), 1);
        loc.publish(&[Arc::from("Applet.main")]);
        assert_eq!(p.sample_once(10_000), 1);
        let report = p.report();
        assert_eq!(report.samples_taken, 3);
        assert_eq!(report.vm.stacks["Applet.main;Applet.tick"], 20_000);
        assert_eq!(report.view(Some(3)).unwrap().stacks["Applet.main"], 10_000);
        let flame = report.flamegraph(Some(3));
        assert!(flame.contains("Applet.main;Applet.tick 20000\n"), "{flame}");
        assert_eq!(report.flamegraph(Some(99)), "");
        // Empty stacks are not sampled; a dropped slot retires.
        loc.publish(&[]);
        assert_eq!(p.sample_once(10_000), 0);
        drop(loc);
        assert_eq!(p.sample_once(10_000), 0);
    }

    #[test]
    fn settled_threads_leave_the_scan_but_keep_accruing() {
        let p = Profiler::new();
        let locs: Vec<_> = (0..100)
            .map(|i| {
                let loc = p.register_thread(Some(i));
                loc.publish(&[Arc::from("Svc.main")]);
                loc
            })
            .collect();
        assert_eq!(p.sample_once(10_000), 100); // freshly published: scanned
        assert_eq!(p.sample_once(10_000), 100); // unchanged: sampled once more, demoted
        assert_eq!(p.sample_once(10_000), 0); // the parked fleet is out of the scan
        assert_eq!(p.sample_once(10_000), 0);
        // Report materialises the settled accrual: 2 scanned + 2 settled
        // ticks per thread, identical totals to scanning every tick.
        let report = p.report();
        assert_eq!(report.vm.stacks["Svc.main"], 100 * 4 * 10_000);
        assert_eq!(report.view(Some(7)).unwrap().stacks["Svc.main"], 4 * 10_000);
        // Republication re-enters the scan under the new key.
        locs[0].publish(&[Arc::from("Svc.main"), Arc::from("Svc.work")]);
        assert_eq!(p.sample_once(10_000), 1);
        // Exiting settled threads drain the population cleanly.
        drop(locs);
        assert_eq!(p.sample_once(10_000), 0);
    }

    #[test]
    fn sampling_off_is_a_no_op() {
        let p = Profiler::new();
        let loc = p.register_thread(None);
        loc.publish(&[Arc::from("X.m")]);
        p.set_sampling(false);
        assert_eq!(p.sample_once(10_000), 0);
        assert_eq!(p.samples_taken(), 0);
    }

    #[test]
    fn chrome_events_are_instant_profile_events() {
        let p = Profiler::new();
        let loc = p.register_thread(Some(4));
        loc.publish(&[Arc::from("A.main"), Arc::from("A.work")]);
        p.sample_once(5_000);
        let json = chrome_trace_doc(p.chrome_events());
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap().to_vec();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(events[0].get("cat").unwrap().as_str(), Some("profile"));
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("A.work"));
    }

    #[test]
    fn reset_starts_a_fresh_window() {
        let p = Profiler::new();
        model(&p);
        p.record_block(Some(1), &[3, 0, 0], 100);
        let loc = p.register_thread(Some(1));
        loc.publish(&[Arc::from("A.main")]);
        p.sample_once(1_000);
        p.reset();
        let report = p.report();
        assert_eq!(report.vm.instructions, 0);
        assert!(report.apps.is_empty());
        assert_eq!(report.flushes, 0);
        assert_eq!(report.samples_taken, 0);
        assert!(p.chrome_events().is_empty());
        // The slot survives a reset: sampling keeps working.
        assert_eq!(p.sample_once(1_000), 1);
    }

    #[test]
    fn reaped_views_keep_a_window_of_the_newest() {
        let p = Profiler::new();
        model(&p);
        let live = 1_000;
        p.record_block(Some(live), &[1, 0, 0], 10);
        for app in 0..200 {
            p.record_block(Some(app), &[app + 1, 0, 1], 100);
        }
        let before = p.report();
        assert_eq!(before.apps.len(), 201);
        for app in 0..200 {
            p.retire_app(app);
        }
        let after = p.report();
        // The live view plus the 64 most recently reaped, in id order.
        let ids: Vec<u64> = after.apps.iter().filter_map(|v| v.app).collect();
        let newest: Vec<u64> = (200 - REAPED_VIEWS as u64..200).chain([live]).collect();
        assert_eq!(ids, newest);
        assert_eq!(after.view(Some(199)), before.view(Some(199)));
        assert_eq!(after.view(Some(live)), before.view(Some(live)));
        assert_eq!(after.vm, before.vm, "the VM-wide view counts every block");
        // The live app's reap pushes the oldest reaped view out.
        p.retire_app(live);
        let ids: Vec<u64> = p.report().apps.iter().filter_map(|v| v.app).collect();
        let newest: Vec<u64> = (201 - REAPED_VIEWS as u64..200).chain([live]).collect();
        assert_eq!(ids, newest);
        p.reset();
        assert!(p.report().apps.is_empty(), "reset clears the window");
    }

    #[test]
    fn late_samples_and_settled_exits_do_not_revive_a_retired_view() {
        let p = Profiler::new();
        model(&p);
        let moving = p.register_thread(Some(1));
        let parked = p.register_thread(Some(1));
        let work = [Arc::from("A.main"), Arc::from("A.work")];
        moving.publish(&work);
        parked.publish(&[Arc::from("A.main")]);
        assert_eq!(p.sample_once(10_000), 2);
        moving.publish(&work);
        // `parked` did not move: sampled once more and settled.
        assert_eq!(p.sample_once(10_000), 2);
        let before = p.report().view(Some(1)).cloned().expect("app 1 has a view");
        p.retire_app(1);
        // Inside the window the view stays as it was at retirement: the
        // moving thread's tick and the settled accrual bill the VM only.
        moving.publish(&work);
        assert_eq!(p.sample_once(10_000), 1);
        let report = p.report();
        assert_eq!(report.view(Some(1)), Some(&before));
        assert_eq!(report.vm.stacks["A.main"], 3 * 10_000);
        // Past the window the view is gone, and neither a tick nor the
        // settled thread's exit brings it back.
        for app in 2..2 + REAPED_VIEWS as u64 {
            p.record_block(Some(app), &[1, 0, 0], 10);
            p.retire_app(app);
        }
        assert!(p.report().view(Some(1)).is_none());
        moving.publish(&work);
        assert_eq!(p.sample_once(10_000), 1);
        drop(parked);
        drop(moving);
        let report = p.report();
        assert!(report.view(Some(1)).is_none());
        assert_eq!(report.apps.len(), REAPED_VIEWS);
        assert_eq!(report.vm.stacks["A.main;A.work"], 4 * 10_000);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let p = Profiler::new();
        model(&p);
        p.record_block(Some(2), &[1, 2, 3], 600);
        let loc = p.register_thread(Some(2));
        loc.publish(&[Arc::from("B.main")]);
        p.sample_once(10_000);
        let report = p.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn model_installation_is_first_wins() {
        let p = Profiler::new();
        p.install_model(&["a"], &[1]);
        p.install_model(&["b", "c"], &[2, 2]);
        p.record_block(None, &[1], 10);
        assert_eq!(p.report().vm.opcodes[0].opcode, "a");
    }
}
