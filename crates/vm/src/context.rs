//! Per-application ownership and resource accounting.
//!
//! The paper's multi-processing model (§2, §4) puts many mutually-suspicious
//! applications in one VM, which makes "which application owns this thread /
//! buffer / queue slot?" the load-bearing question of every layer. Before
//! this module, the answer was derived five different ways (thread→group
//! walks, two runtime hash maps, observability resolvers, queue tags, user
//! lookups). [`AppContext`] is the single ownership record: every VM thread
//! carries an `Arc<AppContext>` set at spawn, and every allocation path
//! charges the context's [`ResourceLedger`].
//!
//! On top of the unified ledger sit **quotas**: a [`ResourceLimits`] table
//! (per-resource ceilings, `u64::MAX` = unlimited) checked at charge time.
//! An over-limit allocation fails with
//! [`VmError::QuotaExceeded`](crate::VmError::QuotaExceeded), is counted
//! (`quota.denied`) and audited through the observability hub, and — only
//! after repeated breaches past the hard-breach threshold — escalates to a
//! termination hook the runtime wires to its reaper. Everything here is
//! lock-free atomics: charge/uncharge sit on the pipe-write and
//! event-enqueue hot paths.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use jmp_obs::ObsHub;
use parking_lot::{Mutex, RwLock};

use crate::error::VmError;
use crate::group::GroupId;
use crate::interp::Value;
use crate::snapshot::InterpSnapshot;

/// The resources the ledger accounts, one atomic slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Live VM threads owned by the application.
    Threads,
    /// Bytes currently buffered in the application's pipes.
    PipeBytes,
    /// Events currently queued on the application's event queue.
    QueuedEvents,
    /// Open handles: owned streams plus published shared entries.
    Handles,
    /// Bytes of governed heap: interpreter value arenas and strings,
    /// compiled class-image footprints, pipe ring buffers, and queued
    /// event slots.
    Memory,
}

/// All resource kinds, in display order.
pub const RESOURCE_KINDS: [ResourceKind; 5] = [
    ResourceKind::Threads,
    ResourceKind::PipeBytes,
    ResourceKind::QueuedEvents,
    ResourceKind::Handles,
    ResourceKind::Memory,
];

impl ResourceKind {
    /// Stable dotted name, used in metrics, audit records, policy limit
    /// overrides (`limit.threads:256`), and the shell `ulimit` builtin.
    pub fn as_str(self) -> &'static str {
        match self {
            ResourceKind::Threads => "threads",
            ResourceKind::PipeBytes => "pipe.bytes",
            ResourceKind::QueuedEvents => "queued.events",
            ResourceKind::Handles => "handles",
            ResourceKind::Memory => "memory",
        }
    }

    /// Parses the stable name back to a kind.
    pub fn parse(name: &str) -> Option<ResourceKind> {
        RESOURCE_KINDS.iter().copied().find(|k| k.as_str() == name)
    }

    fn index(self) -> usize {
        match self {
            ResourceKind::Threads => 0,
            ResourceKind::PipeBytes => 1,
            ResourceKind::QueuedEvents => 2,
            ResourceKind::Handles => 3,
            ResourceKind::Memory => 4,
        }
    }

    /// `true` for kinds whose unit is bytes (rendered with KiB/MiB units
    /// by the shell ledger views).
    pub fn is_bytes(self) -> bool {
        matches!(self, ResourceKind::PipeBytes | ResourceKind::Memory)
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Lock-free live-usage accounting, one [`AtomicU64`] per resource.
///
/// The ledger tracks *current* usage, not cumulative totals (those live in
/// the metrics registries). Every charge has a matching uncharge on the
/// release path, so a quiescent application's ledger reads zero — the
/// exactness property the integration tests pin down.
#[derive(Debug, Default)]
pub struct ResourceLedger {
    slots: [AtomicU64; 5],
}

impl ResourceLedger {
    /// Creates an empty ledger.
    pub fn new() -> ResourceLedger {
        ResourceLedger::default()
    }

    /// Current usage of `kind`.
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.slots[kind.index()].load(Ordering::Relaxed)
    }

    /// Unconditionally records `amount` more of `kind` (no quota check);
    /// returns the new usage. Quota-checked paths go through
    /// [`AppContext::try_charge`] instead.
    pub fn charge(&self, kind: ResourceKind, amount: u64) -> u64 {
        self.slots[kind.index()].fetch_add(amount, Ordering::Relaxed) + amount
    }

    /// Releases `amount` of `kind`, saturating at zero (a stray double
    /// release must not wrap the ledger to `u64::MAX` and wedge the app).
    pub fn uncharge(&self, kind: ResourceKind, amount: u64) {
        let slot = &self.slots[kind.index()];
        let mut current = slot.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(amount);
            match slot.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// `true` if every slot reads zero.
    pub fn is_drained(&self) -> bool {
        RESOURCE_KINDS.iter().all(|&k| self.get(k) == 0)
    }
}

/// Default hard-breach threshold: an application is escalated to the
/// reaper only after this many quota denials. High enough that transient
/// over-limit bursts merely fail, low enough that a hostile loop hammering
/// a quota is eventually terminated rather than audited forever.
pub const DEFAULT_HARD_BREACH_THRESHOLD: u64 = 4096;

/// Per-resource ceilings plus the hard-breach escalation threshold, all
/// atomics so `setLimits` takes effect without locking the hot path.
/// `u64::MAX` means unlimited.
#[derive(Debug)]
pub struct ResourceLimits {
    slots: [AtomicU64; 5],
    hard_breach_threshold: AtomicU64,
}

impl Default for ResourceLimits {
    fn default() -> ResourceLimits {
        ResourceLimits {
            slots: [
                AtomicU64::new(u64::MAX),
                AtomicU64::new(u64::MAX),
                AtomicU64::new(u64::MAX),
                AtomicU64::new(u64::MAX),
                AtomicU64::new(u64::MAX),
            ],
            hard_breach_threshold: AtomicU64::new(DEFAULT_HARD_BREACH_THRESHOLD),
        }
    }
}

impl ResourceLimits {
    /// All-unlimited limits (the quotas-off configuration).
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// Current ceiling for `kind` (`u64::MAX` = unlimited).
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.slots[kind.index()].load(Ordering::Relaxed)
    }

    /// Sets the ceiling for `kind`. Takes effect on the next charge; usage
    /// already above the new ceiling is not clawed back, further charges
    /// simply fail.
    pub fn set(&self, kind: ResourceKind, limit: u64) {
        self.slots[kind.index()].store(limit, Ordering::Relaxed);
    }

    /// The number of quota denials after which the owner is escalated to
    /// termination.
    pub fn hard_breach_threshold(&self) -> u64 {
        self.hard_breach_threshold.load(Ordering::Relaxed)
    }

    /// Sets the hard-breach threshold (`u64::MAX` disables escalation).
    pub fn set_hard_breach_threshold(&self, threshold: u64) {
        self.hard_breach_threshold
            .store(threshold, Ordering::Relaxed);
    }
}

/// The termination hook invoked when an application crosses its hard-breach
/// threshold; the runtime wires this to its reaper.
pub type HardBreachHook = Box<dyn Fn(&AppContext) + Send + Sync>;

/// How many freed interpreter arenas the per-app pool keeps for reuse —
/// the one arena pool: every interpreter run the runtime makes is
/// attributed to an application.
pub const APP_ARENA_POOL_CAP: usize = 8;

/// The single per-application ownership record: identity (app id, user,
/// root thread group) plus live resource accounting ([`ResourceLedger`])
/// and quotas ([`ResourceLimits`]).
///
/// One context is interned per application by the multi-processing runtime;
/// every thread the application owns carries an `Arc` to it (see
/// [`thread::current_app_context`](crate::thread::current_app_context)),
/// so attribution anywhere in the VM is a pointer load, not a walk.
pub struct AppContext {
    app_id: u64,
    name: String,
    user: RwLock<String>,
    group: GroupId,
    ledger: ResourceLedger,
    limits: ResourceLimits,
    breaches: AtomicU64,
    hub: ObsHub,
    hard_breach_hook: OnceLock<HardBreachHook>,
    escalated: AtomicU64,
    /// VM-wide cumulative counters for the memory dimension, cached at
    /// construction so the (batched) charge path is one `Arc` deref.
    mem_charged: Arc<jmp_obs::Counter>,
    mem_denied: Arc<jmp_obs::Counter>,
    /// Freed interpreter value arenas, kept charged for O(1) reuse; each
    /// entry carries the `Memory` bytes still charged for it.
    arena_pool: Mutex<Vec<(Vec<Value>, u64)>>,
    arena_reuses: AtomicU64,
    /// `Memory` bytes charged to allocations that outlive any single
    /// interpreter run (pooled arenas, class-image footprints). Reclaimed
    /// in one bulk uncharge by [`AppContext::reclaim_memory`] at reap.
    resident: AtomicU64,
    checkpoint_requested: AtomicU64,
    snapshot_slot: Mutex<Option<InterpSnapshot>>,
}

impl fmt::Debug for AppContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppContext")
            .field("app_id", &self.app_id)
            .field("name", &self.name)
            .field("user", &*self.user.read())
            .field("group", &self.group)
            .finish_non_exhaustive()
    }
}

impl AppContext {
    /// Creates a context for application `app_id` rooted at `group`,
    /// reporting denials through `hub`.
    pub fn new(
        app_id: u64,
        name: impl Into<String>,
        user: impl Into<String>,
        group: GroupId,
        hub: ObsHub,
    ) -> Arc<AppContext> {
        let mem_charged = hub.vm_metrics().counter("memory.charged");
        let mem_denied = hub.vm_metrics().counter("memory.denied");
        Arc::new(AppContext {
            app_id,
            name: name.into(),
            user: RwLock::new(user.into()),
            group,
            ledger: ResourceLedger::new(),
            limits: ResourceLimits::default(),
            breaches: AtomicU64::new(0),
            hub,
            hard_breach_hook: OnceLock::new(),
            escalated: AtomicU64::new(0),
            mem_charged,
            mem_denied,
            arena_pool: Mutex::new(Vec::new()),
            arena_reuses: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            checkpoint_requested: AtomicU64::new(0),
            snapshot_slot: Mutex::new(None),
        })
    }

    /// The application id.
    pub fn app_id(&self) -> u64 {
        self.app_id
    }

    /// The application's display name (its main class).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The user the application currently runs as.
    pub fn user(&self) -> String {
        self.user.read().clone()
    }

    /// Updates the recorded user (mirrors `Application::set_user`).
    pub fn set_user(&self, user: impl Into<String>) {
        *self.user.write() = user.into();
    }

    /// The application's root thread group.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The live-usage ledger.
    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    /// The quota table.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// Total quota denials so far.
    pub fn breaches(&self) -> u64 {
        self.breaches.load(Ordering::Relaxed)
    }

    /// Installs the hard-breach termination hook. First installation wins;
    /// the runtime installs exactly one at application spawn.
    pub fn set_hard_breach_hook(&self, hook: HardBreachHook) {
        let _ = self.hard_breach_hook.set(hook);
    }

    /// Attempts to charge `amount` of `kind` against the quota.
    ///
    /// On success the ledger is increased and `Ok(())` returned. Over the
    /// ceiling, the charge is rolled back and the denial is counted
    /// (`quota.denied`), audited with a flight-recorder dump, and — past
    /// the hard-breach threshold — escalated to the termination hook.
    ///
    /// # Errors
    ///
    /// [`VmError::QuotaExceeded`] when the new usage would exceed the limit.
    pub fn try_charge(&self, kind: ResourceKind, amount: u64) -> Result<(), VmError> {
        let limit = self.limits.get(kind);
        let slot = &self.ledger.slots[kind.index()];
        let used = slot.fetch_add(amount, Ordering::Relaxed);
        if used.saturating_add(amount) <= limit {
            if kind == ResourceKind::Memory {
                self.mem_charged.add(amount);
            }
            return Ok(());
        }
        slot.fetch_sub(amount, Ordering::Relaxed);
        self.record_breach(kind, limit);
        Err(VmError::QuotaExceeded {
            app: self.app_id,
            resource: kind.as_str(),
            limit,
        })
    }

    /// Releases `amount` of `kind` (see [`ResourceLedger::uncharge`]).
    pub fn uncharge(&self, kind: ResourceKind, amount: u64) {
        self.ledger.uncharge(kind, amount);
    }

    /// Checks out a pooled interpreter arena, if one is available. Returns
    /// the (cleared) arena and the `Memory` bytes still charged for it —
    /// ownership of that charge transfers to the run, which settles it via
    /// [`AppContext::put_arena`] or an uncharge.
    pub fn take_arena(&self) -> Option<(Vec<Value>, u64)> {
        let taken = self.arena_pool.lock().pop();
        if let Some((_, bytes)) = &taken {
            self.arena_reuses.fetch_add(1, Ordering::Relaxed);
            self.resident.fetch_sub(*bytes, Ordering::Relaxed);
        }
        taken
    }

    /// Returns a cleared arena (with `charged` bytes of `Memory` still on
    /// the ledger) to the per-app pool. A full pool drops the arena and
    /// releases its charge instead.
    pub fn put_arena(&self, arena: Vec<Value>, charged: u64) {
        debug_assert!(arena.is_empty(), "pooled arenas must be cleared");
        let mut pool = self.arena_pool.lock();
        if pool.len() < APP_ARENA_POOL_CAP {
            self.resident.fetch_add(charged, Ordering::Relaxed);
            pool.push((arena, charged));
        } else {
            drop(pool);
            self.uncharge(ResourceKind::Memory, charged);
        }
    }

    /// Charges `bytes` of `Memory` that outlive any single interpreter run
    /// (class-image footprints); released in bulk by
    /// [`AppContext::reclaim_memory`] at reap.
    ///
    /// # Errors
    ///
    /// [`VmError::QuotaExceeded`] when the charge would exceed the limit.
    pub fn charge_resident(&self, bytes: u64) -> Result<(), VmError> {
        self.try_charge(ResourceKind::Memory, bytes)?;
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// `Memory` bytes currently held by resident allocations (pooled
    /// arenas + charged class images).
    pub fn resident_memory(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// How many times a freed arena was reused from the pool.
    pub fn arena_reuses(&self) -> u64 {
        self.arena_reuses.load(Ordering::Relaxed)
    }

    /// Drops all resident allocations (pooled arenas, image footprints) and
    /// releases their `Memory` charge in one bulk uncharge — the O(1)
    /// reclaim the reaper relies on. Returns the bytes freed.
    pub fn reclaim_memory(&self) -> u64 {
        self.arena_pool.lock().clear();
        let freed = self.resident.swap(0, Ordering::Relaxed);
        self.uncharge(ResourceKind::Memory, freed);
        freed
    }

    /// Asks the application's interpreter to park at its next safepoint and
    /// deposit an [`InterpSnapshot`] (see [`AppContext::take_snapshot`]).
    pub fn request_checkpoint(&self) {
        self.checkpoint_requested.store(1, Ordering::Release);
    }

    /// `true` once a checkpoint has been requested and not yet cleared.
    pub fn checkpoint_requested(&self) -> bool {
        self.checkpoint_requested.load(Ordering::Acquire) != 0
    }

    /// Clears a pending checkpoint request (restore paths call this so the
    /// resumed run is not immediately re-parked).
    pub fn clear_checkpoint_request(&self) {
        self.checkpoint_requested.store(0, Ordering::Release);
    }

    /// Deposits the snapshot produced by a parked interpreter run.
    pub fn deposit_snapshot(&self, snapshot: InterpSnapshot) {
        *self.snapshot_slot.lock() = Some(snapshot);
    }

    /// Takes the deposited snapshot, if any.
    pub fn take_snapshot(&self) -> Option<InterpSnapshot> {
        self.snapshot_slot.lock().take()
    }

    fn record_breach(&self, kind: ResourceKind, limit: u64) {
        if kind == ResourceKind::Memory {
            self.mem_denied.add(1);
        }
        let user = self.user();
        let breaches = self.breaches.fetch_add(1, Ordering::Relaxed) + 1;
        // Power-of-two sampling for the flight-recorder dump: the first few
        // breaches get full forensics, a storm of them cannot weaponise the
        // (expensive) ring snapshot against the rest of the VM.
        self.hub.record_quota_denial(
            self.app_id,
            Some(&user),
            kind.as_str(),
            limit,
            breaches.is_power_of_two(),
        );
        let threshold = self.limits.hard_breach_threshold();
        if breaches >= threshold && self.escalated.swap(1, Ordering::Relaxed) == 0 {
            if let Some(hook) = self.hard_breach_hook.get() {
                hook(self);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Arc<AppContext> {
        AppContext::new(7, "Demo", "alice", GroupId(3), ObsHub::new())
    }

    #[test]
    fn ledger_charges_and_drains() {
        let ctx = ctx();
        ctx.try_charge(ResourceKind::Threads, 2).unwrap();
        ctx.try_charge(ResourceKind::PipeBytes, 100).unwrap();
        assert_eq!(ctx.ledger().get(ResourceKind::Threads), 2);
        assert_eq!(ctx.ledger().get(ResourceKind::PipeBytes), 100);
        assert!(!ctx.ledger().is_drained());
        ctx.uncharge(ResourceKind::Threads, 2);
        ctx.uncharge(ResourceKind::PipeBytes, 100);
        assert!(ctx.ledger().is_drained());
    }

    #[test]
    fn uncharge_saturates_at_zero() {
        let ctx = ctx();
        ctx.uncharge(ResourceKind::Handles, 5);
        assert_eq!(ctx.ledger().get(ResourceKind::Handles), 0);
    }

    #[test]
    fn over_limit_charge_fails_and_rolls_back() {
        let ctx = ctx();
        ctx.limits().set(ResourceKind::QueuedEvents, 3);
        ctx.try_charge(ResourceKind::QueuedEvents, 3).unwrap();
        let err = ctx.try_charge(ResourceKind::QueuedEvents, 1).unwrap_err();
        match err {
            VmError::QuotaExceeded {
                app,
                resource,
                limit,
            } => {
                assert_eq!(app, 7);
                assert_eq!(resource, "queued.events");
                assert_eq!(limit, 3);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // The failed charge must not stick.
        assert_eq!(ctx.ledger().get(ResourceKind::QueuedEvents), 3);
        assert_eq!(ctx.breaches(), 1);
    }

    #[test]
    fn hard_breach_threshold_fires_hook_once() {
        let ctx = ctx();
        ctx.limits().set(ResourceKind::Threads, 0);
        ctx.limits().set_hard_breach_threshold(3);
        let fired = Arc::new(AtomicU64::new(0));
        let observed = fired.clone();
        ctx.set_hard_breach_hook(Box::new(move |c| {
            assert_eq!(c.app_id(), 7);
            observed.fetch_add(1, Ordering::Relaxed);
        }));
        for _ in 0..5 {
            let _ = ctx.try_charge(ResourceKind::Threads, 1);
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1, "hook fires exactly once");
        assert_eq!(ctx.breaches(), 5);
    }

    #[test]
    fn memory_denials_bump_typed_counters() {
        let hub = ObsHub::new();
        let ctx = AppContext::new(11, "Bomb", "mallory", GroupId(5), hub.clone());
        ctx.limits().set(ResourceKind::Memory, 1024);
        ctx.try_charge(ResourceKind::Memory, 1000).unwrap();
        assert_eq!(hub.vm_metrics().counter("memory.charged").get(), 1000);
        assert!(ctx.try_charge(ResourceKind::Memory, 100).is_err());
        assert_eq!(hub.vm_metrics().counter("memory.denied").get(), 1);
        // The denied charge must not have been counted as charged.
        assert_eq!(hub.vm_metrics().counter("memory.charged").get(), 1000);
    }

    #[test]
    fn arena_pool_keeps_charge_resident_and_reclaims_in_bulk() {
        let ctx = ctx();
        ctx.try_charge(ResourceKind::Memory, 512).unwrap();
        ctx.put_arena(Vec::new(), 512);
        assert_eq!(ctx.resident_memory(), 512);
        assert_eq!(ctx.ledger().get(ResourceKind::Memory), 512);
        // Checkout transfers the charge back to the run.
        let (arena, charged) = ctx.take_arena().expect("pooled arena");
        assert!(arena.is_empty());
        assert_eq!(charged, 512);
        assert_eq!(ctx.arena_reuses(), 1);
        assert_eq!(ctx.resident_memory(), 0);
        ctx.put_arena(arena, charged);
        // Reap path: one bulk uncharge drains the ledger to zero.
        assert_eq!(ctx.reclaim_memory(), 512);
        assert!(ctx.ledger().is_drained());
        assert!(ctx.take_arena().is_none());
    }

    #[test]
    fn checkpoint_request_and_snapshot_slot_roundtrip() {
        let ctx = ctx();
        assert!(!ctx.checkpoint_requested());
        ctx.request_checkpoint();
        assert!(ctx.checkpoint_requested());
        ctx.clear_checkpoint_request();
        assert!(!ctx.checkpoint_requested());
        assert!(ctx.take_snapshot().is_none());
    }

    #[test]
    fn resource_kind_name_roundtrip() {
        for kind in RESOURCE_KINDS {
            assert_eq!(ResourceKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ResourceKind::parse("nope"), None);
    }

    #[test]
    fn denials_are_counted_and_audited() {
        let hub = ObsHub::new();
        let ctx = AppContext::new(9, "Evil", "mallory", GroupId(4), hub.clone());
        hub.app_registry(9, "Evil");
        ctx.limits().set(ResourceKind::PipeBytes, 10);
        assert!(ctx.try_charge(ResourceKind::PipeBytes, 11).is_err());
        assert_eq!(hub.vm_metrics().counter("quota.denied").get(), 1);
        let records = hub.audit_query(None, Some(9));
        assert_eq!(records.len(), 1);
        assert!(records[0].permission.contains("pipe.bytes"));
        assert_eq!(records[0].user.as_deref(), Some("mallory"));
    }
}
