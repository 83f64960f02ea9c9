//! The VM-wide permission decision cache.
//!
//! Stack-inspection checks are highly cacheable: the set of domains on a
//! stack, the demanded permission, and the running user fully determine the
//! decision, and all three change far more slowly than checks are issued.
//! [`DecisionCache`] memoizes **granted** decisions keyed by
//! `(context fingerprint, demand, running user)`; denials are deliberately
//! never cached, so every denial re-runs the full walk and re-derives the
//! exact refusing-domain audit message (the audit-exactness invariant).
//!
//! Invalidation is the [`EpochCache`] protocol: anything that can change a
//! decision — `set_policy`, `set_security_manager`, a user-resolver change
//! — bumps the epoch, which kills every stale entry at once without a
//! sweep, and entries are *inserted* with the epoch captured **before** the
//! policy walk began, so a reload that races a concurrent walk invalidates
//! the in-flight result too.

use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use jmp_obs::{DemandCell, DemandLedger};
use jmp_security::{ContextFingerprint, EpochCache, Permission};

/// Key of one cached decision: the fingerprint of the visible domain set
/// plus a hash of `(demand, running user)`. Keeping the demand hashed (not
/// cloned) keeps the hot path allocation-free; a 64+64-bit collision is
/// vanishingly unlikely and the worst case re-runs a sound walk.
type Key = (u64, u64);

/// A fast multiply-xor hasher (FxHash-style) for the hot path. The warm
/// check hashes the demanded permission once and the 128-bit key once per
/// lookup; a keyed SipHash there costs more than the lookup itself, and the
/// cache needs no DoS resistance — a collision merely re-runs a sound walk.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// An epoch-invalidated map of granted access-control decisions. Each entry
/// carries the demand-ledger cell recorded during the original walk (when
/// the ledger accepted the demand): a warm hit bumps the cell directly, so
/// the always-on demand ledger costs the hot path no hashing and no
/// strings.
#[derive(Debug, Default)]
pub struct DecisionCache {
    grants: EpochCache<Key, Option<Arc<DemandCell>>, BuildHasherDefault<FxHasher>>,
}

fn demand_key(demand: &Permission, user: Option<&str>) -> u64 {
    let mut hasher = FxHasher::default();
    demand.hash(&mut hasher);
    user.hash(&mut hasher);
    hasher.finish()
}

/// Bumps a hit's demand-ledger cell, if the walk recorded one.
fn bump(cell: &Option<Arc<DemandCell>>, ledger: &DemandLedger) {
    if let Some(cell) = cell {
        if ledger.enabled() {
            ledger.bump(cell, true);
        }
    }
}

impl DecisionCache {
    /// Creates an empty cache at epoch 0.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    /// The current epoch. Capture it **before** walking the policy, and pass
    /// the captured value to [`DecisionCache::insert_granted`].
    pub fn epoch(&self) -> u64 {
        self.grants.epoch()
    }

    /// Bumps the epoch, logically discarding every cached decision.
    pub fn invalidate(&self) {
        self.grants.invalidate();
    }

    /// Looks up a granted decision for this exact `(context, demand, user)`
    /// triple derived under the current epoch; `true` means granted. On a
    /// hit, the demand-ledger cell captured during the original walk (if
    /// any) is bumped through `ledger` while the shard guard is held —
    /// handing the `Arc` out instead would cost the hot path a clone+drop
    /// pair of shared-cache-line RMWs, roughly doubling the always-on
    /// ledger's warm cost.
    pub fn lookup_granted(
        &self,
        fingerprint: ContextFingerprint,
        demand: &Permission,
        user: Option<&str>,
        ledger: &DemandLedger,
    ) -> bool {
        let key = (fingerprint.hash, demand_key(demand, user));
        self.grants
            .get_with(&key, |cell| bump(cell, ledger))
            .is_some()
    }

    /// Like [`DecisionCache::lookup_granted`], but on a hit also returns a
    /// clone of the stored demand cell so the caller can populate a
    /// [`NativeSiteCache`]. Used only when a native call site is active —
    /// the extra `Arc` clone is paid once to warm the site, after which the
    /// site hit path skips this probe entirely.
    pub(crate) fn lookup_granted_with_cell(
        &self,
        fingerprint: ContextFingerprint,
        demand: &Permission,
        user: Option<&str>,
        ledger: &DemandLedger,
    ) -> Option<Option<Arc<DemandCell>>> {
        let key = (fingerprint.hash, demand_key(demand, user));
        self.grants.get_with(&key, |cell| {
            bump(cell, ledger);
            cell.clone()
        })
    }

    /// Records a granted decision derived while the epoch was
    /// `derived_epoch`, carrying the demand-ledger cell (if any) the walk
    /// recorded. A stale insert (the epoch moved during the walk) is stored
    /// but can never match a future lookup, so a policy reload racing a walk
    /// never resurrects a pre-reload decision.
    pub fn insert_granted(
        &self,
        fingerprint: ContextFingerprint,
        demand: &Permission,
        user: Option<&str>,
        derived_epoch: u64,
        demand_cell: Option<Arc<DemandCell>>,
    ) {
        let key = (fingerprint.hash, demand_key(demand, user));
        self.grants.insert(key, derived_epoch, demand_cell);
    }
}

/// A per-`CallNative`-site monomorphic inline cache over the shared
/// [`DecisionCache`].
///
/// The compiled interpreter allocates one of these per `CallNative` site at
/// pre-decode time and pushes it onto a thread-local *active site* stack for
/// the duration of the host invocation. When the security manager then runs
/// an access check on behalf of that native call, it consults the active
/// site first: a warm site holds the `(epoch, fingerprint, demand, user)`
/// quadruple of the last grant issued through this call site, so the steady
/// state — the same applet calling the same native under the same policy —
/// costs one fingerprint compare instead of a sharded map probe.
///
/// Invalidation is inherited from the shared cache: the stored epoch is the
/// [`DecisionCache::epoch`] the grant was derived under, so any policy /
/// security-manager / user-resolver change that bumps the epoch silently
/// kills every site cache at once. Denials are never stored (the
/// audit-exactness invariant), and `try_lock` is used on both paths so a
/// contended site degrades to the shared cache instead of blocking.
#[derive(Debug, Default)]
pub(crate) struct NativeSiteCache {
    grant: parking_lot::Mutex<Option<SiteGrant>>,
}

/// The last grant issued through one native call site.
#[derive(Debug)]
struct SiteGrant {
    epoch: u64,
    fingerprint: ContextFingerprint,
    demand: u64,
    demand_cell: Option<Arc<DemandCell>>,
}

impl NativeSiteCache {
    /// Creates an empty (cold) site cache.
    pub(crate) fn new() -> NativeSiteCache {
        NativeSiteCache::default()
    }

    /// `true` if the site's cached grant matches this exact
    /// `(epoch, fingerprint, demand-key)` triple. On a hit, the stored
    /// demand-ledger cell is bumped (same contract as
    /// [`DecisionCache::lookup_granted`]).
    fn check(
        &self,
        epoch: u64,
        fingerprint: ContextFingerprint,
        demand: u64,
        ledger: &DemandLedger,
    ) -> bool {
        let Some(guard) = self.grant.try_lock() else {
            return false;
        };
        let Some(grant) = guard.as_ref() else {
            return false;
        };
        if grant.epoch != epoch || grant.fingerprint != fingerprint || grant.demand != demand {
            return false;
        }
        bump(&grant.demand_cell, ledger);
        true
    }

    /// Stores a grant derived under `epoch` (captured before the walk, same
    /// staleness discipline as [`DecisionCache::insert_granted`]).
    fn store(
        &self,
        epoch: u64,
        fingerprint: ContextFingerprint,
        demand: u64,
        demand_cell: Option<Arc<DemandCell>>,
    ) {
        if let Some(mut guard) = self.grant.try_lock() {
            *guard = Some(SiteGrant {
                epoch,
                fingerprint,
                demand,
                demand_cell,
            });
        }
    }
}

thread_local! {
    /// The stack of native call sites currently being invoked on this
    /// thread. Nested entries happen when a native re-enters the
    /// interpreter; the innermost site owns any checks issued.
    static ACTIVE_SITES: std::cell::RefCell<Vec<Arc<NativeSiteCache>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Marks `site` as the active native call site until the guard drops.
pub(crate) fn enter_native_site(site: &Arc<NativeSiteCache>) -> NativeSiteGuard {
    ACTIVE_SITES.with(|s| s.borrow_mut().push(Arc::clone(site)));
    NativeSiteGuard { _priv: () }
}

/// RAII guard for [`enter_native_site`]; pops the site on drop.
pub(crate) struct NativeSiteGuard {
    _priv: (),
}

impl Drop for NativeSiteGuard {
    fn drop(&mut self) {
        ACTIVE_SITES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// `true` if an access check issued right now would run on behalf of a
/// native call site (cheap: one thread-local read).
pub(crate) fn has_active_site() -> bool {
    ACTIVE_SITES.with(|s| !s.borrow().is_empty())
}

/// Consults the active site's inline cache; `true` means this exact
/// `(epoch, context, demand, user)` was the last grant issued through the
/// site. `false` when no site is active or the site is cold/stale.
pub(crate) fn site_check(
    epoch: u64,
    fingerprint: ContextFingerprint,
    demand: &Permission,
    user: Option<&str>,
    ledger: &DemandLedger,
) -> bool {
    ACTIVE_SITES.with(|s| {
        s.borrow()
            .last()
            .is_some_and(|site| site.check(epoch, fingerprint, demand_key(demand, user), ledger))
    })
}

/// Records a grant into the active site's inline cache (no-op when no site
/// is active).
pub(crate) fn site_store(
    epoch: u64,
    fingerprint: ContextFingerprint,
    demand: &Permission,
    user: Option<&str>,
    demand_cell: Option<Arc<DemandCell>>,
) {
    ACTIVE_SITES.with(|s| {
        if let Some(site) = s.borrow().last() {
            site.store(epoch, fingerprint, demand_key(demand, user), demand_cell);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmp_security::{FileActions, EPOCH_SHARD_CAP, SHARDS};

    fn fp(hash: u64) -> ContextFingerprint {
        ContextFingerprint { hash, unique: 1 }
    }

    fn ledger() -> DemandLedger {
        DemandLedger::new(8)
    }

    #[test]
    fn key_covers_fingerprint_demand_and_user() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let read = Permission::file("/a", FileActions::READ);
        let write = Permission::file("/a", FileActions::WRITE);
        cache.insert_granted(fp(1), &read, Some("alice"), cache.epoch(), None);
        assert!(cache.lookup_granted(fp(1), &read, Some("alice"), &ledger));
        assert!(!cache.lookup_granted(fp(2), &read, Some("alice"), &ledger));
        assert!(!cache.lookup_granted(fp(1), &write, Some("alice"), &ledger));
        assert!(!cache.lookup_granted(fp(1), &read, Some("bob"), &ledger));
        assert!(!cache.lookup_granted(fp(1), &read, None, &ledger));
    }

    #[test]
    fn hit_bumps_the_stored_demand_cell() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        let cell = ledger
            .record(
                None,
                "file:/apps/x",
                None,
                "permission runtime \"x\"",
                true,
                false,
                1,
            )
            .unwrap();
        cache.insert_granted(fp(1), &demand, None, cache.epoch(), Some(Arc::clone(&cell)));
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
        let rows = ledger.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].granted, 3, "1 record + 2 warm hits");

        // A disabled ledger stops the bump-through but not the hit.
        ledger.set_enabled(false);
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
        ledger.set_enabled(true);
        assert_eq!(ledger.rows()[0].granted, 3);
    }

    #[test]
    fn full_shard_clears_and_keeps_accepting() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        // One more distinct key than the cache can hold drives at least one
        // shard past its cap.
        let keys = (SHARDS * EPOCH_SHARD_CAP) as u64 + 1;
        for i in 0..keys {
            cache.insert_granted(fp(i), &demand, None, cache.epoch(), None);
        }
        // The overflow cleared a shard (dropping its earlier entries) but
        // later inserts still land and serve.
        let served = (0..keys)
            .filter(|&i| cache.lookup_granted(fp(i), &demand, None, &ledger))
            .count() as u64;
        assert!(served < keys, "no shard was cleared");
        assert!(cache.lookup_granted(fp(keys - 1), &demand, None, &ledger));
    }

    #[test]
    fn stale_insert_never_serves_lookups() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        // A walker captured the epoch, then a reload raced it.
        let captured = cache.epoch();
        cache.invalidate();
        cache.insert_granted(fp(1), &demand, None, captured, None);
        assert!(
            !cache.lookup_granted(fp(1), &demand, None, &ledger),
            "pre-reload decision must not survive the reload"
        );
        // A post-reload derivation does serve.
        cache.insert_granted(fp(1), &demand, None, cache.epoch(), None);
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
    }

    #[test]
    fn site_cache_hits_only_on_exact_quadruple() {
        let ledger = ledger();
        let site = NativeSiteCache::new();
        let demand = Permission::file("/a", FileActions::READ);
        let other = Permission::file("/a", FileActions::WRITE);
        let key = demand_key(&demand, Some("alice"));
        assert!(!site.check(0, fp(1), key, &ledger), "cold site misses");
        site.store(0, fp(1), key, None);
        assert!(site.check(0, fp(1), key, &ledger));
        assert!(!site.check(1, fp(1), key, &ledger), "epoch bump kills it");
        assert!(!site.check(0, fp(2), key, &ledger), "other context misses");
        assert!(
            !site.check(0, fp(1), demand_key(&other, Some("alice")), &ledger),
            "other demand misses"
        );
        assert!(
            !site.check(0, fp(1), demand_key(&demand, Some("bob")), &ledger),
            "other user misses"
        );
    }

    #[test]
    fn site_hit_bumps_the_stored_demand_cell() {
        let ledger = ledger();
        let site = NativeSiteCache::new();
        let demand = Permission::runtime("x");
        let cell = ledger
            .record(
                None,
                "file:/apps/x",
                None,
                "permission runtime \"x\"",
                true,
                false,
                1,
            )
            .unwrap();
        let key = demand_key(&demand, None);
        site.store(0, fp(1), key, Some(Arc::clone(&cell)));
        assert!(site.check(0, fp(1), key, &ledger));
        assert!(site.check(0, fp(1), key, &ledger));
        assert_eq!(ledger.rows()[0].granted, 3, "1 record + 2 site hits");
    }

    #[test]
    fn active_site_stack_nests_and_unwinds() {
        let ledger = ledger();
        let demand = Permission::runtime("x");
        let outer = Arc::new(NativeSiteCache::new());
        let inner = Arc::new(NativeSiteCache::new());
        assert!(!has_active_site());
        assert!(!site_check(0, fp(1), &demand, None, &ledger));
        {
            let _g1 = enter_native_site(&outer);
            assert!(has_active_site());
            site_store(0, fp(1), &demand, None, None);
            assert!(site_check(0, fp(1), &demand, None, &ledger));
            {
                // A nested native (host re-enters the interpreter) owns the
                // checks while active; the outer grant is invisible.
                let _g2 = enter_native_site(&inner);
                assert!(!site_check(0, fp(1), &demand, None, &ledger));
            }
            assert!(site_check(0, fp(1), &demand, None, &ledger));
        }
        assert!(!has_active_site());
    }

    #[test]
    fn lookup_with_cell_returns_the_stored_cell() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        assert!(cache
            .lookup_granted_with_cell(fp(1), &demand, None, &ledger)
            .is_none());
        let cell = ledger
            .record(
                None,
                "file:/apps/x",
                None,
                "permission runtime \"x\"",
                true,
                false,
                1,
            )
            .unwrap();
        cache.insert_granted(fp(1), &demand, None, cache.epoch(), Some(Arc::clone(&cell)));
        let got = cache
            .lookup_granted_with_cell(fp(1), &demand, None, &ledger)
            .expect("hit");
        assert!(got.is_some_and(|c| Arc::ptr_eq(&c, &cell)));
        cache.invalidate();
        assert!(cache
            .lookup_granted_with_cell(fp(1), &demand, None, &ledger)
            .is_none());
    }
}
