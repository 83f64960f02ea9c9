//! The lazy per-user grant store.
//!
//! The resident [`Policy`](crate::Policy) keeps every grant of its policy
//! text in memory, which is right for the handful of hand-written grants a
//! desktop carries — and wrong for a deployment provisioning a million
//! users, where "parse the policy" must not mean "intern a million grant
//! blocks". [`LazyUserStore`] splits that: user grants live behind a
//! [`GrantSource`] (a vfs directory of per-user policy files, a synthetic
//! template, anything), and a user's permissions are loaded, parsed, and
//! indexed **on first demand**, then cached in an [`EpochCache`].
//!
//! Invalidation follows the cache's epoch protocol, as the VM decision
//! cache does: [`LazyUserStore::invalidate`] (called on `set_policy`) bumps
//! the epoch, killing every cached user at once, and the epoch is captured
//! **before** the source is consulted, so a reload racing an in-flight load
//! can never resurrect pre-reload grants. Negative results are cached too —
//! a user with no provisioned grants costs one source probe, not one per
//! check. Resident entries stay bounded at `SHARDS * EPOCH_SHARD_CAP` no
//! matter how many users are provisioned.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::index::PermissionIndex;
use crate::permission::Permission;
use crate::policy::Policy;
use crate::shard::EpochCache;

/// Where per-user grants come from. Implementations are expected to be
/// cheap to probe for absent users and tolerant of concurrent reads; the
/// store never writes.
pub trait GrantSource: Send + Sync {
    /// Returns the policy text holding `user`'s grants (any text accepted
    /// by [`Policy::parse`]; only its `grant user "<user>" { ... }` blocks
    /// are used), or `None` if the user has no provisioned grants.
    fn load_user(&self, user: &str) -> Option<String>;

    /// Number of users this source provisions grants for, if known. Used
    /// for reporting (resident vs provisioned), never for correctness.
    fn provisioned_users(&self) -> Option<u64> {
        None
    }
}

/// The loaded, indexed grants of one user.
pub struct UserGrants {
    permissions: Vec<Permission>,
    index: PermissionIndex,
}

impl UserGrants {
    fn build(permissions: Vec<Permission>) -> UserGrants {
        let index = PermissionIndex::build(permissions.iter());
        UserGrants { permissions, index }
    }

    /// Returns `true` if one of the user's stored grants implies `demand`.
    pub fn implies(&self, demand: &Permission) -> bool {
        self.index.implies(demand)
    }

    /// The stored permissions, in declaration order.
    pub fn permissions(&self) -> &[Permission] {
        &self.permissions
    }

    /// `true` when the user has no stored grants (a cached negative).
    pub fn is_empty(&self) -> bool {
        self.permissions.is_empty()
    }
}

impl fmt::Debug for UserGrants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserGrants")
            .field("permissions", &self.permissions.len())
            .finish()
    }
}

/// A bounded, epoch-invalidated cache of per-user grants over a
/// [`GrantSource`]. See the module docs for the protocol.
pub struct LazyUserStore {
    source: Arc<dyn GrantSource>,
    /// SipHash-keyed: user names come from outside.
    users: EpochCache<String, Arc<UserGrants>>,
    /// Completed source loads (including negative probes), for tests and
    /// the E19 report.
    loads: AtomicU64,
}

impl LazyUserStore {
    /// Creates a store over `source`.
    pub fn new(source: Arc<dyn GrantSource>) -> LazyUserStore {
        LazyUserStore {
            source,
            users: EpochCache::default(),
            loads: AtomicU64::new(0),
        }
    }

    /// The current store epoch.
    pub fn epoch(&self) -> u64 {
        self.users.epoch()
    }

    /// Bumps the epoch, logically discarding every cached user. Called by
    /// the VM on `set_policy` so a policy reload re-reads the source.
    pub fn invalidate(&self) {
        self.users.invalidate();
    }

    /// Users currently resident in the cache (stale entries included until
    /// their shard overflows or they are re-loaded).
    pub fn resident_users(&self) -> usize {
        self.users.resident()
    }

    /// Completed source loads, negative probes included.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Users the underlying source provisions, if it knows.
    pub fn provisioned_users(&self) -> Option<u64> {
        self.source.provisioned_users()
    }

    /// The grants of `user`, loading and interning them on first demand.
    /// Returns a cached negative (empty) entry for users the source does
    /// not provision, so absent users cost one probe, not one per check.
    pub fn lookup(&self, user: &str) -> Arc<UserGrants> {
        // Capture the epoch *before* consulting the source: an invalidate
        // racing this load then makes the inserted entry stale.
        let epoch = self.users.epoch();
        if let Some(grants) = self.users.get_with(user, Arc::clone) {
            return grants;
        }
        // Load outside any lock — the source may read the vfs.
        let permissions = self
            .source
            .load_user(user)
            .and_then(|text| Policy::parse(&text).ok())
            .map(|policy| {
                policy
                    .permissions_for_user(user)
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        self.loads.fetch_add(1, Ordering::Relaxed);
        let grants = Arc::new(UserGrants::build(permissions));
        self.users
            .insert(user.to_string(), epoch, Arc::clone(&grants));
        grants
    }
}

impl fmt::Debug for LazyUserStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyUserStore")
            .field("epoch", &self.epoch())
            .field("resident_users", &self.resident_users())
            .field("loads", &self.loads())
            .finish_non_exhaustive()
    }
}

/// A synthetic [`GrantSource`] provisioning `count` users named
/// `<prefix>0 .. <prefix>{count-1}`, each receiving `template` with every
/// `${user}` replaced by the user's name. This is how an experiment
/// provisions a million users in O(1) memory: the users exist as a rule,
/// not as a million resident grant objects.
pub struct TemplateGrantSource {
    prefix: String,
    count: u64,
    template: String,
}

impl TemplateGrantSource {
    /// Creates a template source; see the type docs for the naming rule.
    pub fn new(
        prefix: impl Into<String>,
        count: u64,
        template: impl Into<String>,
    ) -> TemplateGrantSource {
        TemplateGrantSource {
            prefix: prefix.into(),
            count,
            template: template.into(),
        }
    }
}

impl GrantSource for TemplateGrantSource {
    fn load_user(&self, user: &str) -> Option<String> {
        let index: u64 = user.strip_prefix(&self.prefix)?.parse().ok()?;
        if index >= self.count {
            return None;
        }
        Some(self.template.replace("${user}", user))
    }

    fn provisioned_users(&self) -> Option<u64> {
        Some(self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permission::FileActions;
    use crate::shard::{EPOCH_SHARD_CAP, SHARDS};

    fn template_store(count: u64) -> LazyUserStore {
        LazyUserStore::new(Arc::new(TemplateGrantSource::new(
            "u",
            count,
            r#"grant user "${user}" { permission file "/home/${user}/-" "read,write"; };"#,
        )))
    }

    #[test]
    fn grants_load_on_first_demand_and_cache() {
        let store = template_store(1_000_000);
        assert_eq!(store.provisioned_users(), Some(1_000_000));
        assert_eq!(store.resident_users(), 0, "nothing resident up front");
        let demand = Permission::file("/home/u42/notes", FileActions::READ);
        let grants = store.lookup("u42");
        assert!(grants.implies(&demand));
        assert!(!grants.implies(&Permission::file("/home/u43/notes", FileActions::READ)));
        assert_eq!(store.loads(), 1);
        // Warm lookups do not touch the source again.
        assert!(store.lookup("u42").implies(&demand));
        assert_eq!(store.loads(), 1);
        assert_eq!(store.resident_users(), 1);
    }

    #[test]
    fn absent_users_cache_a_negative() {
        let store = template_store(10);
        assert!(store.lookup("u99").is_empty());
        assert!(store.lookup("eve").is_empty());
        assert_eq!(store.loads(), 2);
        // Re-probing the same absent users is served from the cache.
        assert!(store.lookup("u99").is_empty());
        assert!(store.lookup("eve").is_empty());
        assert_eq!(store.loads(), 2);
    }

    #[test]
    fn invalidate_forces_a_reload() {
        let store = template_store(10);
        let demand = Permission::file("/home/u3/x", FileActions::WRITE);
        assert!(store.lookup("u3").implies(&demand));
        assert_eq!(store.loads(), 1);
        store.invalidate();
        assert!(store.lookup("u3").implies(&demand), "reload is identical");
        assert_eq!(store.loads(), 2, "the stale entry was not served");
    }

    #[test]
    fn invalidate_racing_a_load_kills_the_inflight_entry() {
        // The source invalidates the store from inside its first load, so
        // the invalidate lands after `lookup` captured the epoch and before
        // it inserts: that entry is stale and must not serve.
        struct InvalidatingOnce {
            inner: TemplateGrantSource,
            store: std::sync::OnceLock<std::sync::Weak<LazyUserStore>>,
            calls: AtomicU64,
        }
        impl GrantSource for InvalidatingOnce {
            fn load_user(&self, user: &str) -> Option<String> {
                if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    if let Some(store) = self.store.get().and_then(|s| s.upgrade()) {
                        store.invalidate();
                    }
                }
                self.inner.load_user(user)
            }
        }
        let source = Arc::new(InvalidatingOnce {
            inner: TemplateGrantSource::new("u", 10, r#"grant user "${user}" { };"#),
            store: std::sync::OnceLock::new(),
            calls: AtomicU64::new(0),
        });
        let store = Arc::new(LazyUserStore::new(
            Arc::clone(&source) as Arc<dyn GrantSource>
        ));
        source.store.set(Arc::downgrade(&store)).unwrap();
        store.lookup("u1");
        assert_eq!(store.epoch(), 1, "the load raced an invalidate");
        // The in-flight entry carries the pre-invalidate epoch: this lookup
        // must go back to the source.
        store.lookup("u1");
        assert_eq!(source.calls.load(Ordering::Relaxed), 2);
        // The reload was derived under the current epoch and does serve.
        store.lookup("u1");
        assert_eq!(source.calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn overflowing_a_shard_clears_it_and_reloads_identically() {
        // Only u0 is provisioned, so the flood of other users costs a
        // negative probe each. One more distinct user than the cache can
        // hold forces at least one shard past its cap.
        struct OnlyU0;
        impl GrantSource for OnlyU0 {
            fn load_user(&self, user: &str) -> Option<String> {
                (user == "u0").then(|| {
                    r#"grant user "u0" { permission file "/home/u0/-" "read"; };"#.to_string()
                })
            }
        }
        let store = LazyUserStore::new(Arc::new(OnlyU0));
        let demand = Permission::file("/home/u0/f", FileActions::READ);
        assert!(store.lookup("u0").implies(&demand));
        let capacity = SHARDS * EPOCH_SHARD_CAP;
        for i in 1..=capacity {
            store.lookup(&format!("u{i}"));
        }
        assert_eq!(store.loads(), capacity as u64 + 1);
        assert!(
            store.resident_users() < capacity + 1,
            "a full shard was cleared: {} resident",
            store.resident_users()
        );
        // u0 may have been cleared; either way the re-load is exact.
        assert!(store.lookup("u0").implies(&demand));
    }

    #[test]
    fn unparseable_source_text_reads_as_no_grants() {
        struct Broken;
        impl GrantSource for Broken {
            fn load_user(&self, _user: &str) -> Option<String> {
                Some("grant garbage {{{".to_string())
            }
        }
        let store = LazyUserStore::new(Arc::new(Broken));
        assert!(store.lookup("anyone").is_empty());
    }

    #[test]
    fn template_source_only_matches_its_namespace() {
        let source = TemplateGrantSource::new("user", 5, "x");
        assert!(source.load_user("user0").is_some());
        assert!(source.load_user("user4").is_some());
        assert!(source.load_user("user5").is_none());
        assert!(source.load_user("user-1").is_none());
        assert!(source.load_user("alice").is_none());
        assert!(source.load_user("userx").is_none());
    }
}
