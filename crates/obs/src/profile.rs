//! `jmp-prof`: the always-on VM profiler.
//!
//! Two collection modes share one report model:
//!
//! * **Exact per-opcode accounting.** The interpreter counts basic-block
//!   entries (one add per block, see `jmp_vm::interp`) and, at safepoints,
//!   expands them through each block's static opcode histogram into
//!   per-opcode execution counts, which it flushes here as a *block*:
//!   per-opcode counts plus the wall time the whole batch took. The
//!   profiler apportions the batch's time across its opcodes by the
//!   installed weight model (see [`Profiler::install_model`]) and feeds the
//!   per-execution estimate into a per-opcode [`Histogram`], so reports
//!   carry p50/p95/p99 cost alongside exact counts. Each block is
//!   attributed to the owning application (the `AppContext` the executing
//!   thread carries) and to the VM-wide view.
//!
//! * **Sampled stacks.** Each thread that runs attributable code owns a
//!   [`ThreadLoc`] slot and pushes and pops its frames in place: a call
//!   stores one interned label id ([`Profiler::intern`]) into a fixed slot
//!   array, a return lowers the depth, and a per-slot sequence count (odd
//!   while the owner writes) lets the sampler read a coherent stack without
//!   a lock; a read that overlaps a write is retried. The publisher takes
//!   no lock, allocates nothing and touches no shared refcount. A VM
//!   profiler thread calls [`Profiler::sample_once`] periodically, folding
//!   every live slot into weighted collapsed stacks (flamegraph.pl's
//!   `a;b;c weight` form) and a bounded ring of Chrome trace instant events.
//!
//!   The tick is **two-tier** so its cost tracks *activity*, not fleet
//!   size. A slot whose sequence count moved since the last tick is
//!   scanned and sampled normally. A slot whose stack has not moved is
//!   sampled one last time and then *demoted*: it leaves the scan set and
//!   joins a settled population counted per `(app, collapsed stack)`.
//!   Settled threads keep accruing weight — in tick units, materialised
//!   into the view tables lazily on report or when the slot moves — but
//!   cost the tick nothing. Ten thousand parked service mains blocked in
//!   the same frame are one settled entry, not ten thousand scans every
//!   10 ms; re-sampling an unchanged stack adds no information, so none is
//!   lost.
//!
//! A live application's view is created by its first flushed block or its
//! first sample, not when one of its threads registers a slot, so an
//! application that never runs interpreted code and is never caught
//! on-stack costs the profiler nothing. When the application is reaped,
//! [`Profiler::retire_app`] freezes its view into a FIFO of the
//! [`REAPED_VIEWS`] most recently reaped; an older view is dropped, and the
//! VM-wide view, which counted every block, is all that remains of it. A
//! thread slot or settled population still holding a retired view bills
//! only the VM-wide view from then on, and a slot first sampled after its
//! application's reap bills only the VM-wide view too, so nothing
//! re-creates a retired view.
//!
//! Writing into the profiler is free of permission checks, like the rest of
//! the hub; reading a [`ProfileReport`] back out is gated behind
//! `RuntimePermission("readProfile")` in the runtime layer, because one
//! application's opcode mix is another's side channel.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
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

/// Frames one [`ThreadLoc`] stores. A deeper stack keeps counting its
/// depth; the sampler reads its outermost `MAX_FRAMES` frames.
const MAX_FRAMES: usize = 128;

/// Distinct frame labels the profiler interns. Past this, new labels share
/// the `"(overflow)"` label (id 0), so label growth is bounded like the
/// stack tables.
const MAX_LABELS: usize = 1 << 16;

/// Retirements remembered by application id, so a slot first sampled after
/// its application's reap can tell. A slot that registered before the
/// oldest remembered retirement and finds no view bills the VM only.
const RETIRED_IDS: usize = 4096;

/// Attempts the sampler makes to read a slot whose owner keeps writing it;
/// after that the slot is skipped for this tick.
const READ_ATTEMPTS: usize = 4;

/// [`ThreadLoc::state`]: the slot is outside the scan set.
const IDLE: u8 = 0;
/// [`ThreadLoc::state`]: the slot is in the sampler's scan set.
const SCANNED: u8 = 1;
/// [`ThreadLoc::state`]: the slot is demoted into a settled population.
const SETTLED: u8 = 2;

/// One thread's published "current location": the frame stack the sampler
/// reads. Created by [`Profiler::register_thread`]; the owning thread keeps
/// the only strong reference besides the registry, so slot lifetime follows
/// thread lifetime.
///
/// Only the owning thread calls [`ThreadLoc::push`] and [`ThreadLoc::pop`]:
/// each writes one frame slot and the depth between two bumps of a
/// sequence count, and costs a few plain stores and one load of the slot's
/// scan state. Enrolling in the scan set (the first frame) and leaving a
/// settled population are the only publisher paths that take a lock.
pub struct ThreadLoc {
    thread: u64,
    app: Option<u64>,
    /// The profiler's retirement count when the slot registered: a
    /// retirement of `app` after it means the application is gone.
    born: u64,
    /// The application's view, resolved by the sampler on the slot's first
    /// sample (`None` until then) — so the sampler bills it without a
    /// lookup afterwards, and cannot re-create it once retired.
    view: Mutex<Option<Option<AppTable>>>,
    /// Even while the stack is stable, odd while the owner rewrites it.
    seq: AtomicU64,
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_FRAMES],
    /// [`IDLE`], [`SCANNED`] or [`SETTLED`]. The owner's fast path reads
    /// it once per push or pop and takes the slow path unless `SCANNED`.
    state: AtomicU8,
    /// The sequence count the sampler read at its last tick. Unchanged at
    /// the next tick means the stack has not moved: the slot is demoted
    /// from per-tick scanning into the settled population.
    seen: AtomicU64,
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

    /// Frames currently pushed.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Pushes the frame `label` (an id from [`Profiler::intern`]). Owner
    /// thread only. The first frame enrolls the slot in the sampler's scan
    /// set — until then the sampler does not know the thread exists, which
    /// keeps the per-tick cost proportional to interpreting threads rather
    /// than to the whole fleet.
    pub fn push(&self, label: u32) {
        let depth = self.depth.load(Ordering::Relaxed);
        let seq = self.begin_write();
        if let Some(frame) = self.frames.get(depth) {
            frame.store(label, Ordering::Relaxed);
        }
        self.depth.store(depth + 1, Ordering::Relaxed);
        self.end_write(seq);
    }

    /// Pops the newest frame. Owner thread only.
    pub fn pop(&self) {
        let depth = self.depth.load(Ordering::Relaxed);
        let seq = self.begin_write();
        self.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        self.end_write(seq);
    }

    /// Marks the slot as being written (odd sequence count). The owner is
    /// the only writer of `seq`, `depth` and `frames`; its release fence
    /// here and its release store in [`ThreadLoc::end_write`] pair with the
    /// sampler's acquire load and acquire fence in `read_stack`, so a read
    /// that saw any store of this write also sees the sequence count move
    /// and is retried.
    fn begin_write(&self) -> u64 {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        seq
    }

    /// Publishes the write (even sequence count) and, if the slot is not
    /// in the scan set, enrolls or unsettles it.
    fn end_write(&self, seq: u64) {
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
        if self.state.load(Ordering::Relaxed) != SCANNED {
            self.attend();
        }
    }

    /// The publisher's slow path. A settled slot that moves leaves its
    /// settled population, materialising its owed idle weight under the
    /// *old* key first; a slot with frames rejoins the scan set. The
    /// settled guard is released before touching the scan list — the
    /// sampler takes those locks in the opposite order.
    #[cold]
    fn attend(&self) {
        let Some(registry) = self.registry.upgrade() else {
            return;
        };
        let key = self.settled.lock().take();
        if let Some(key) = key {
            unsettle(&registry, self.app, key);
        }
        if self.depth.load(Ordering::Relaxed) == 0 {
            let _ = self
                .state
                .compare_exchange(SETTLED, IDLE, Ordering::AcqRel, Ordering::Relaxed);
        } else if self.state.swap(SCANNED, Ordering::AcqRel) != SCANNED {
            registry.threads.lock().push(self.me.clone());
        }
    }

    /// Reads a coherent copy of the stack into `out` and returns the
    /// sequence count it was read at, or `None` if the owner kept writing
    /// through every attempt.
    fn read_stack(&self, out: &mut Vec<u32>) -> Option<u64> {
        self.read_stack_between(out, || {})
    }

    /// [`ThreadLoc::read_stack`], running `between` after each attempt
    /// reads the depth and before it reads the frames: where a test lands
    /// an owner's write to check that the read is retried, not torn.
    fn read_stack_between(&self, out: &mut Vec<u32>, mut between: impl FnMut()) -> Option<u64> {
        for _ in 0..READ_ATTEMPTS {
            let seq = self.seq.load(Ordering::Acquire);
            if seq & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed).min(MAX_FRAMES);
            between();
            out.clear();
            out.extend(
                self.frames[..depth]
                    .iter()
                    .map(|f| f.load(Ordering::Relaxed)),
            );
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == seq {
                return Some(seq);
            }
        }
        None
    }

    /// Whether the owner wrote since the sampler read sequence count `seq`.
    fn moved_since(&self, seq: u64) -> bool {
        self.seq.load(Ordering::Acquire) != seq
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
            .field("depth", &self.depth())
            .finish()
    }
}

/// The interned frame labels: id → name for the sampler, name → id for
/// [`Profiler::intern`]. Id 0 is `"(overflow)"`.
struct Labels {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl Default for Labels {
    fn default() -> Labels {
        let overflow: Arc<str> = Arc::from("(overflow)");
        Labels {
            names: vec![Arc::clone(&overflow)],
            ids: HashMap::from([(overflow, 0)]),
        }
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
    /// The [`RETIRED_IDS`] most recent retirements, oldest first, as
    /// `(app, retirement number)`.
    retired: VecDeque<(u64, u64)>,
    /// The retirement number of the newest retirement `retired` has
    /// forgotten (0 = none).
    forgotten: u64,
}

impl AppViews {
    /// Whether `app` may have been retired after a slot registered at
    /// retirement count `born`: a remembered retirement of it since then,
    /// or any forgotten one (which cannot be ruled out).
    fn retired_since(&self, app: u64, born: u64) -> bool {
        self.forgotten > born
            || self
                .retired
                .iter()
                .any(|&(id, number)| id == app && number > born)
    }
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
/// into the view tables lazily — on report, or when a member moves
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
    labels: RwLock<Labels>,
    vm: Mutex<ViewTable>,
    apps: RwLock<AppViews>,
    /// Applications retired so far; bumped under the `apps` write lock.
    retirements: AtomicU64,
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

/// Moves `loc` out of the scan set into `to` ([`IDLE`] or [`SETTLED`]),
/// unless its owner wrote after the sampler read sequence count `seq`:
/// then the slot is moving, stays (or is put back) in the scan set, and
/// `false` is returned. This narrows the demotion race: a push that
/// slipped in after the read would otherwise strand a moving thread outside
/// the scan. (A push whose scan-state load overtakes the sampler's store is
/// still missed; the slot then leaves its population at the owner's next
/// push or pop.) If the owner's own slow path already put the slot back, it
/// re-enrolls it itself, and `true` is returned so the sampler does not add
/// it twice.
fn leave_scan(loc: &ThreadLoc, seq: u64, to: u8) -> bool {
    loc.state.store(to, Ordering::SeqCst);
    if !loc.moved_since(seq) {
        return true;
    }
    loc.state
        .compare_exchange(to, SCANNED, Ordering::AcqRel, Ordering::Relaxed)
        .is_err()
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

/// The view `loc`'s samples bill, resolved on its first sample: its
/// application's live view (created if need be), or none — the VM bucket
/// only — for a detached thread or an application retired since the slot
/// registered.
fn slot_view(inner: &ProfilerInner, loc: &ThreadLoc) -> Option<AppTable> {
    let app = loc.app?;
    let mut view = loc.view.lock();
    if let Some(resolved) = &*view {
        return resolved.clone();
    }
    let resolved = {
        let mut views = inner.apps.write();
        if let Some(table) = views.live.get(&app) {
            Some(Arc::clone(table))
        } else if views.retired_since(app, loc.born) {
            None
        } else {
            views.reaped.retain(|(id, _)| *id != app);
            Some(Arc::clone(views.live.entry(app).or_default()))
        }
    };
    *view = Some(resolved.clone());
    resolved
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
                labels: RwLock::new(Labels::default()),
                vm: Mutex::new(ViewTable::default()),
                apps: RwLock::new(AppViews::default()),
                retirements: AtomicU64::new(0),
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
    /// re-checks per tick; threads stop pushing frames, and pop the ones
    /// they pushed while it was on).
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

    /// Interns a frame label (`Class` or `Class.method`) and returns its
    /// id for [`ThreadLoc::push`]. Ids are stable for the profiler's
    /// lifetime ([`Profiler::reset`] keeps them); callers cache them, so a
    /// label is interned once, not once per call.
    pub fn intern(&self, label: &str) -> u32 {
        if let Some(&id) = self.inner.labels.read().ids.get(label) {
            return id;
        }
        let mut labels = self.inner.labels.write();
        if let Some(&id) = labels.ids.get(label) {
            return id;
        }
        if labels.names.len() >= MAX_LABELS {
            return 0;
        }
        let id = labels.names.len() as u32;
        let name: Arc<str> = Arc::from(label);
        labels.names.push(Arc::clone(&name));
        labels.ids.insert(name, id);
        id
    }

    /// Registers the calling thread's location slot, billed to `app`
    /// (`None` = the VM bucket, e.g. detached threads). The returned slot
    /// is what the thread pushes its frames into; dropping it (thread exit)
    /// retires the slot at the next sampler tick. The slot only enters the
    /// sampler's scan set on its first [`ThreadLoc::push`], and the
    /// application's view is only created by its first block or sample:
    /// threads that never run interpreted code — e.g. ten thousand parked
    /// service mains — add nothing to the tick or to the view tables.
    pub fn register_thread(&self, app: Option<u64>) -> Arc<ThreadLoc> {
        Arc::new_cyclic(|me| ThreadLoc {
            thread: trace::thread_ordinal(),
            app,
            born: self.inner.retirements.load(Ordering::Acquire),
            view: Mutex::new(None),
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            state: AtomicU8::new(IDLE),
            seen: AtomicU64::new(0),
            settled: Mutex::new(None),
            registry: Arc::downgrade(&self.inner),
            me: me.clone(),
        })
    }

    /// Takes one sampling pass over the *active* scan set, weighting each
    /// observed stack by `interval_us` (the time since the previous pass).
    /// A slot that did not move since the last tick is sampled one final
    /// time and demoted to the settled population; it rejoins the scan on
    /// its next push or pop. Returns how many threads were scanned
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
        let mut ids = Vec::with_capacity(MAX_FRAMES);
        // The scan set holds only recently-active threads, so the table
        // work can stay under the scan lock; publishers touch it solely on
        // enrollment, after releasing every other profiler lock.
        let mut threads = inner.threads.lock();
        let mut keep = Vec::with_capacity(threads.len());
        for weak in threads.drain(..) {
            let Some(loc) = weak.upgrade() else { continue };
            let Some(seq) = loc.read_stack(&mut ids) else {
                // The owner is mid-write on every attempt: it is moving,
                // so it stays in the scan and is read next tick.
                keep.push(weak);
                continue;
            };
            let dirty = loc.seen.swap(seq, Ordering::Relaxed) != seq;
            if ids.is_empty() {
                // A cleared stack costs nothing to keep for one quiet
                // tick; after that the slot leaves the scan until its
                // next push.
                if dirty || !leave_scan(&loc, seq, IDLE) {
                    keep.push(weak);
                }
                continue;
            }
            let (key, top) = {
                let labels = inner.labels.read();
                let name = |id: &u32| labels.names.get(*id as usize).map_or("?", |n| &**n);
                let key = ids.iter().map(name).collect::<Vec<&str>>().join(";");
                let top = ids.last().map_or(String::new(), |id| name(id).to_string());
                (key, top)
            };
            let view = slot_view(inner, &loc);
            inner.vm.lock().add_sample(&key, interval_us);
            if let Some(view) = &view {
                view.lock().add_sample(&key, interval_us);
            }
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
                        view,
                    });
                materialize(inner, &key, entry);
                entry.count += 1;
                *loc.settled.lock() = Some(key);
            }
            if !leave_scan(&loc, seq, SETTLED) {
                let key = loc.settled.lock().take();
                if let Some(key) = key {
                    unsettle(inner, loc.app, key);
                }
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
        let number = self.inner.retirements.fetch_add(1, Ordering::AcqRel) + 1;
        views.retired.push_back((app, number));
        if views.retired.len() > RETIRED_IDS {
            if let Some((_, forgotten)) = views.retired.pop_front() {
                views.forgotten = forgotten;
            }
        }
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

    /// Replaces `loc`'s stack with `frames`, as the owner's returns and
    /// calls would.
    fn set_stack(p: &Profiler, loc: &ThreadLoc, frames: &[&str]) {
        while loc.depth() > 0 {
            loc.pop();
        }
        for frame in frames {
            loc.push(p.intern(frame));
        }
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
        set_stack(&p, &loc, &["Applet.main", "Applet.tick"]);
        assert_eq!(p.sample_once(10_000), 1);
        assert_eq!(p.sample_once(10_000), 1);
        set_stack(&p, &loc, &["Applet.main"]);
        assert_eq!(p.sample_once(10_000), 1);
        let report = p.report();
        assert_eq!(report.samples_taken, 3);
        assert_eq!(report.vm.stacks["Applet.main;Applet.tick"], 20_000);
        assert_eq!(report.view(Some(3)).unwrap().stacks["Applet.main"], 10_000);
        let flame = report.flamegraph(Some(3));
        assert!(flame.contains("Applet.main;Applet.tick 20000\n"), "{flame}");
        assert_eq!(report.flamegraph(Some(99)), "");
        // Empty stacks are not sampled; a dropped slot retires.
        set_stack(&p, &loc, &[]);
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
                set_stack(&p, &loc, &["Svc.main"]);
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
        set_stack(&p, &locs[0], &["Svc.main", "Svc.work"]);
        assert_eq!(p.sample_once(10_000), 1);
        // Exiting settled threads drain the population cleanly.
        drop(locs);
        assert_eq!(p.sample_once(10_000), 0);
    }

    #[test]
    fn sampling_off_is_a_no_op() {
        let p = Profiler::new();
        let loc = p.register_thread(None);
        set_stack(&p, &loc, &["X.m"]);
        p.set_sampling(false);
        assert_eq!(p.sample_once(10_000), 0);
        assert_eq!(p.samples_taken(), 0);
    }

    #[test]
    fn chrome_events_are_instant_profile_events() {
        let p = Profiler::new();
        let loc = p.register_thread(Some(4));
        set_stack(&p, &loc, &["A.main", "A.work"]);
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
        set_stack(&p, &loc, &["A.main"]);
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
        let work = ["A.main", "A.work"];
        set_stack(&p, &moving, &work);
        set_stack(&p, &parked, &["A.main"]);
        assert_eq!(p.sample_once(10_000), 2);
        set_stack(&p, &moving, &work);
        // `parked` did not move: sampled once more and settled.
        assert_eq!(p.sample_once(10_000), 2);
        let before = p.report().view(Some(1)).cloned().expect("app 1 has a view");
        p.retire_app(1);
        // Inside the window the view stays as it was at retirement: the
        // moving thread's tick and the settled accrual bill the VM only.
        set_stack(&p, &moving, &work);
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
        set_stack(&p, &moving, &work);
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
        set_stack(&p, &loc, &["B.main"]);
        p.sample_once(10_000);
        let report = p.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn registering_a_thread_creates_no_view() {
        let p = Profiler::new();
        let loc = p.register_thread(Some(5));
        set_stack(&p, &loc, &["Svc.main"]);
        set_stack(&p, &loc, &[]);
        assert!(p.inner.apps.read().live.is_empty(), "no block, no sample");
        set_stack(&p, &loc, &["Svc.main"]);
        assert_eq!(p.sample_once(10_000), 1);
        assert_eq!(p.report().view(Some(5)).unwrap().stacks["Svc.main"], 10_000);
    }

    #[test]
    fn a_slot_first_sampled_after_its_app_retired_bills_only_the_vm() {
        let p = Profiler::new();
        let loc = p.register_thread(Some(8));
        p.retire_app(8);
        set_stack(&p, &loc, &["Late.main"]);
        assert_eq!(p.sample_once(10_000), 1);
        let report = p.report();
        assert!(report.view(Some(8)).is_none());
        assert_eq!(report.vm.stacks["Late.main"], 10_000);
        // A slot registered after the retirement belongs to an id that
        // came back (a restore under its old id) and starts a fresh view.
        let back = p.register_thread(Some(8));
        set_stack(&p, &back, &["Back.main"]);
        assert_eq!(p.sample_once(10_000), 2);
        assert_eq!(
            p.report().view(Some(8)).unwrap().stacks["Back.main"],
            10_000
        );
    }

    #[test]
    fn labels_intern_once() {
        let p = Profiler::new();
        let a = p.intern("A.main");
        assert_eq!(p.intern("A.main"), a);
        assert_ne!(p.intern("B.main"), a);
        p.reset();
        assert_eq!(p.intern("A.main"), a, "reset keeps label ids");
    }

    #[test]
    fn frames_deeper_than_the_slot_keep_their_depth() {
        let p = Profiler::new();
        let loc = p.register_thread(None);
        let id = p.intern("R.deep");
        for _ in 0..MAX_FRAMES + 10 {
            loc.push(id);
        }
        assert_eq!(loc.depth(), MAX_FRAMES + 10);
        assert_eq!(p.sample_once(10_000), 1);
        let key = vec!["R.deep"; MAX_FRAMES].join(";");
        assert_eq!(p.report().vm.stacks[&key], 10_000);
        for _ in 0..MAX_FRAMES + 10 {
            loc.pop();
        }
        assert_eq!(loc.depth(), 0);
    }

    #[test]
    fn a_read_overlapping_a_write_is_retried_not_torn() {
        // main;a;b becomes main;c between the read of the depth (3) and the
        // reads of the frames, leaving b behind in the third slot: a read
        // that trusted the depth would report main;c;b, which never existed.
        let p = Profiler::new();
        let loc = p.register_thread(None);
        let [main, a, b, c] = ["T.main", "T.a", "T.b", "T.c"].map(|l| p.intern(l));
        for id in [main, a, b] {
            loc.push(id);
        }
        let mut first = true;
        let mut out = Vec::new();
        let read = loc.read_stack_between(&mut out, || {
            if std::mem::take(&mut first) {
                loc.pop();
                loc.pop();
                loc.push(c);
            }
        });
        assert!(read.is_some());
        assert_eq!(out, [main, c]);
        // An owner that writes through every attempt gets skipped this
        // tick, never misread.
        let read = loc.read_stack_between(&mut out, || {
            loc.push(a);
            loc.pop();
        });
        assert_eq!(read, None);
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
