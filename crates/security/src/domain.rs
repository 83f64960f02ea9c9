use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::code_source::CodeSource;
use crate::index::PermissionIndex;
use crate::intern::{self, DomainId, InternedDomain};
use crate::permission::Permission;

/// A heterogeneous set of granted permissions with an `implies` query
/// (JDK `PermissionCollection`).
///
/// The grant list is lazily compiled into a [`PermissionIndex`] on first
/// query, replacing the linear scan with kind- and target-keyed lookups;
/// mutation resets the index.
#[derive(Debug, Default)]
pub struct PermissionCollection {
    grants: Vec<Permission>,
    /// Lazily-built query index over `grants`. Intentionally excluded from
    /// `Clone`/`PartialEq`/serde: it is a pure function of `grants`.
    index: OnceLock<PermissionIndex>,
}

impl PermissionCollection {
    /// Creates an empty collection (grants nothing).
    pub fn new() -> PermissionCollection {
        PermissionCollection::default()
    }

    /// Creates a collection granting everything.
    pub fn all_permissions() -> PermissionCollection {
        PermissionCollection::from_grants(vec![Permission::All])
    }

    fn from_grants(grants: Vec<Permission>) -> PermissionCollection {
        PermissionCollection {
            grants,
            index: OnceLock::new(),
        }
    }

    /// Adds a permission to the collection.
    pub fn add(&mut self, permission: Permission) {
        self.grants.push(permission);
        self.index.take();
    }

    /// Returns `true` if any granted permission implies `demand`.
    pub fn implies(&self, demand: &Permission) -> bool {
        self.index().implies(demand)
    }

    fn index(&self) -> &PermissionIndex {
        self.index
            .get_or_init(|| PermissionIndex::build(&self.grants))
    }

    /// Returns `true` if no permissions are granted.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Number of granted permissions (not a measure of power: one
    /// `AllPermission` beats any number of file grants).
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// Iterates over the granted permissions.
    pub fn iter(&self) -> std::slice::Iter<'_, Permission> {
        self.grants.iter()
    }
}

impl Clone for PermissionCollection {
    fn clone(&self) -> PermissionCollection {
        PermissionCollection::from_grants(self.grants.clone())
    }
}

impl PartialEq for PermissionCollection {
    fn eq(&self, other: &PermissionCollection) -> bool {
        self.grants == other.grants
    }
}

impl Eq for PermissionCollection {}

impl Serialize for PermissionCollection {
    fn serialize_value(&self) -> Value {
        Value::Map(vec![("grants".to_string(), self.grants.serialize_value())])
    }
}

impl Deserialize for PermissionCollection {
    fn deserialize_value(value: &Value) -> Result<PermissionCollection, DeError> {
        let entries = value
            .as_map()
            .ok_or_else(|| DeError::custom("expected map for PermissionCollection"))?;
        Ok(PermissionCollection::from_grants(serde::field_from_map(
            entries, "grants",
        )?))
    }
}

impl FromIterator<Permission> for PermissionCollection {
    fn from_iter<I: IntoIterator<Item = Permission>>(iter: I) -> Self {
        PermissionCollection::from_grants(iter.into_iter().collect())
    }
}

impl Extend<Permission> for PermissionCollection {
    fn extend<I: IntoIterator<Item = Permission>>(&mut self, iter: I) {
        self.grants.extend(iter);
        self.index.take();
    }
}

impl<'a> IntoIterator for &'a PermissionCollection {
    type Item = &'a Permission;
    type IntoIter = std::slice::Iter<'a, Permission>;
    fn into_iter(self) -> Self::IntoIter {
        self.grants.iter()
    }
}

impl fmt::Display for PermissionCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.grants.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

thread_local! {
    /// Counts every `Display` formatting of a [`ProtectionDomain`] on this
    /// thread. Denial messages are the only hot-path consumer, so tests use
    /// this to prove the granted path formats nothing. Thread-local so
    /// concurrently-running tests cannot perturb each other's counts.
    static DOMAIN_DISPLAY_FORMATS: Cell<u64> = const { Cell::new(0) };
}

/// Number of times a [`ProtectionDomain`] has been `Display`-formatted on
/// the calling thread.
///
/// A test/diagnostic hook for the invariant that granted access checks never
/// build denial strings; not part of the stable API.
#[doc(hidden)]
pub fn domain_display_format_count() -> u64 {
    DOMAIN_DISPLAY_FORMATS.with(Cell::get)
}

/// The permissions granted to a [`CodeSource`] when its classes were defined
/// (JDK 1.2 `ProtectionDomain`).
///
/// In the JDK 1.2 architecture a class is assigned its protection domain at
/// class-definition time, by resolving the policy against the class's code
/// source; every stack frame executing that class's code carries the domain.
///
/// Domains are interned on first use: equal `(code source, grants)` pairs
/// share one [`DomainId`] and one fingerprint term, which is what an
/// [`AccessContext`](crate::AccessContext) fingerprint is built from.
#[derive(Debug, Clone)]
pub struct ProtectionDomain {
    code_source: CodeSource,
    permissions: PermissionCollection,
    /// Lazily-resolved intern record; a pure function of the other fields,
    /// so clones may carry it and equality ignores it.
    interned: OnceLock<Arc<InternedDomain>>,
}

impl ProtectionDomain {
    /// Creates a domain for `code_source` holding `permissions`.
    pub fn new(code_source: CodeSource, permissions: PermissionCollection) -> ProtectionDomain {
        ProtectionDomain {
            code_source,
            permissions,
            interned: OnceLock::new(),
        }
    }

    /// A fully-privileged domain for runtime-internal ("system") code.
    pub fn system() -> ProtectionDomain {
        ProtectionDomain::new(
            CodeSource::local("file:/sys/-"),
            PermissionCollection::all_permissions(),
        )
    }

    /// A domain granting nothing, for completely untrusted code.
    pub fn untrusted(code_source: CodeSource) -> ProtectionDomain {
        ProtectionDomain::new(code_source, PermissionCollection::new())
    }

    /// The code source this domain was created for.
    pub fn code_source(&self) -> &CodeSource {
        &self.code_source
    }

    /// The statically-bound permissions.
    pub fn permissions(&self) -> &PermissionCollection {
        &self.permissions
    }

    /// The interned id of this domain. Equal domains always share an id.
    pub fn id(&self) -> DomainId {
        self.interned().id()
    }

    /// The shared intern record (id, fingerprint term).
    pub(crate) fn interned(&self) -> &Arc<InternedDomain> {
        self.interned.get_or_init(|| intern::intern(self))
    }

    /// Returns `true` if the domain's static permissions imply `demand`:
    /// one probe of the grant list's [`PermissionIndex`].
    pub fn implies(&self, demand: &Permission) -> bool {
        self.permissions.implies(demand)
    }
}

impl PartialEq for ProtectionDomain {
    fn eq(&self, other: &ProtectionDomain) -> bool {
        self.code_source == other.code_source && self.permissions == other.permissions
    }
}

impl Eq for ProtectionDomain {}

impl fmt::Display for ProtectionDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        DOMAIN_DISPLAY_FORMATS.with(|count| count.set(count.get() + 1));
        write!(f, "domain[{}]", self.code_source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permission::{FileActions, Permission};

    #[test]
    fn empty_collection_implies_nothing() {
        let pc = PermissionCollection::new();
        assert!(pc.is_empty());
        assert!(!pc.implies(&Permission::runtime("exitVM")));
    }

    #[test]
    fn collection_union_semantics() {
        let pc: PermissionCollection = [
            Permission::file("/a/-", FileActions::READ),
            Permission::file("/a/x", FileActions::WRITE),
        ]
        .into_iter()
        .collect();
        assert!(pc.implies(&Permission::file("/a/deep/y", FileActions::READ)));
        assert!(pc.implies(&Permission::file("/a/x", FileActions::WRITE)));
        // Union of permissions does NOT merge actions across grants:
        assert!(!pc.implies(&Permission::file(
            "/a/deep/y",
            FileActions {
                read: true,
                write: true,
                ..FileActions::default()
            }
        )));
    }

    #[test]
    fn all_permissions_collection() {
        let pc = PermissionCollection::all_permissions();
        assert!(pc.implies(&Permission::All));
        assert!(pc.implies(&Permission::runtime("anything")));
    }

    #[test]
    fn system_domain_is_all_powerful() {
        let sys = ProtectionDomain::system();
        assert!(sys.implies(&Permission::All));
    }

    #[test]
    fn untrusted_domain_grants_nothing() {
        let d = ProtectionDomain::untrusted(CodeSource::remote("http://evil/x"));
        assert!(!d.implies(&Permission::file("/tmp/x", FileActions::READ)));
        assert_eq!(d.code_source().url(), "http://evil/x");
    }

    #[test]
    fn extend_and_iterate() {
        let mut pc = PermissionCollection::new();
        pc.extend([Permission::runtime("a"), Permission::runtime("b")]);
        assert_eq!(pc.len(), 2);
        let names: Vec<String> = pc.iter().map(|p| p.to_string()).collect();
        assert!(names[0].contains("\"a\""));
        assert!(names[1].contains("\"b\""));
    }

    #[test]
    fn mutation_resets_the_query_index() {
        let mut pc = PermissionCollection::new();
        assert!(!pc.implies(&Permission::runtime("late")));
        pc.add(Permission::runtime("late"));
        assert!(pc.implies(&Permission::runtime("late")));
        assert!(!pc.implies(&Permission::runtime("later")));
        pc.extend([Permission::runtime("later")]);
        assert!(pc.implies(&Permission::runtime("later")));
    }

    #[test]
    fn clone_and_equality_ignore_the_index() {
        let mut pc = PermissionCollection::new();
        pc.add(Permission::runtime("x"));
        // Build the index on one side only.
        assert!(pc.implies(&Permission::runtime("x")));
        let fresh: PermissionCollection = [Permission::runtime("x")].into_iter().collect();
        assert_eq!(pc, fresh);
        let cloned = pc.clone();
        assert_eq!(cloned, pc);
        assert!(cloned.implies(&Permission::runtime("x")));
    }

    #[test]
    fn collection_serde_roundtrip() {
        let pc: PermissionCollection = [
            Permission::file("/a/-", FileActions::READ),
            Permission::runtime("exitVM"),
        ]
        .into_iter()
        .collect();
        let value = pc.serialize_value();
        let back = PermissionCollection::deserialize_value(&value).unwrap();
        assert_eq!(pc, back);
    }

    #[test]
    fn display_formats() {
        let mut pc = PermissionCollection::new();
        pc.add(Permission::runtime("exitVM"));
        assert!(pc.to_string().contains("exitVM"));
        let d = ProtectionDomain::new(CodeSource::local("file:/x"), pc);
        assert!(d.to_string().contains("file:/x"));
    }

    #[test]
    fn display_is_counted() {
        let d = ProtectionDomain::system();
        let before = domain_display_format_count();
        let _ = d.to_string();
        assert!(domain_display_format_count() > before);
    }
}
