//! Hash-consed interning of [`ProtectionDomain`]s.
//!
//! Two domains with the same code source and the same grant list are the
//! *same* domain for access-control purposes, no matter how many `Arc`s or
//! clones of them float around the VM. The [`DomainRegistry`] assigns each
//! distinct `(code source, grants)` pair a small stable [`DomainId`], so an
//! [`AccessContext`](crate::AccessContext) reduces to a deduplicated
//! id-*set* with a stable order-insensitive 64-bit fingerprint (the stack
//! walk ANDs over the set of visible domains, so order and multiplicity are
//! irrelevant to the decision).
//!
//! Interning is lazy: the registry is consulted the first time a domain's
//! [`id`](crate::ProtectionDomain::id) is needed (typically on its first
//! access check) and the result is cached in the domain via `OnceLock`, so
//! the warm path never takes the registry lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

use crate::code_source::CodeSource;
use crate::permission::Permission;
use crate::ProtectionDomain;

/// A small stable handle for an interned protection domain.
///
/// Equal `(code source, grants)` pairs always receive the same id within a
/// process; ids are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u64);

impl DomainId {
    /// The raw id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// The registry's record for one distinct domain: its id and its
/// precomputed fingerprint term.
#[derive(Debug)]
pub struct InternedDomain {
    id: DomainId,
    /// This domain's contribution to a context fingerprint: the id passed
    /// through a 64-bit avalanche so that XOR-combining terms of distinct
    /// id-sets produces well-spread fingerprints.
    fingerprint_term: u64,
}

impl InternedDomain {
    /// The interned id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The domain's XOR-combinable fingerprint contribution.
    pub fn fingerprint_term(&self) -> u64 {
        self.fingerprint_term
    }
}

fn avalanche(x: u64) -> u64 {
    // DefaultHasher (SipHash-1-3 with fixed keys) is deterministic within a
    // process, which is all a fingerprint term needs.
    let mut hasher = DefaultHasher::new();
    x.hash(&mut hasher);
    hasher.finish()
}

/// Identity of a domain for interning purposes: its code source plus its
/// full static permission set.
type InternKey = (CodeSource, Vec<Permission>);

/// The process-wide hash-consing table.
#[derive(Debug, Default)]
struct DomainRegistry {
    map: RwLock<HashMap<InternKey, Arc<InternedDomain>>>,
}

impl DomainRegistry {
    fn intern(&self, domain: &ProtectionDomain) -> Arc<InternedDomain> {
        let key = (
            domain.code_source().clone(),
            domain.permissions().iter().cloned().collect::<Vec<_>>(),
        );
        if let Some(found) = self.map.read().expect("domain registry poisoned").get(&key) {
            return Arc::clone(found);
        }
        let mut map = self.map.write().expect("domain registry poisoned");
        if let Some(found) = map.get(&key) {
            return Arc::clone(found);
        }
        let id = DomainId(map.len() as u64 + 1);
        let interned = Arc::new(InternedDomain {
            id,
            fingerprint_term: avalanche(id.0),
        });
        map.insert(key, Arc::clone(&interned));
        interned
    }

    fn len(&self) -> usize {
        self.map.read().expect("domain registry poisoned").len()
    }
}

fn registry() -> &'static DomainRegistry {
    static REGISTRY: OnceLock<DomainRegistry> = OnceLock::new();
    REGISTRY.get_or_init(DomainRegistry::default)
}

/// Interns `domain`, returning the shared record (called from
/// `ProtectionDomain::interned` under its `OnceLock`).
pub(crate) fn intern(domain: &ProtectionDomain) -> Arc<InternedDomain> {
    registry().intern(domain)
}

/// Number of distinct domains interned so far in this process.
pub fn interned_domain_count() -> usize {
    registry().len()
}

/// The identity of the domain *set* visible to a stack walk: an
/// order-insensitive 64-bit hash plus the number of distinct domains.
///
/// `unique == 0` means the walk saw no domains at all (an empty stack, i.e.
/// only runtime-internal code) — fully trusted, and never worth caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextFingerprint {
    /// Order-insensitive hash of the visible id-set.
    pub hash: u64,
    /// Number of distinct visible domains.
    pub unique: usize,
}

/// Incrementally folds the domains visible to a stack walk into a
/// deduplicated id-set plus an order-insensitive 64-bit fingerprint.
///
/// Duplicate ids are skipped (the decision ANDs over the *set* of visible
/// domains) and the combining operator is XOR over per-id avalanche terms,
/// so permutations of the same set always fingerprint identically. The
/// first 16 distinct ids live inline on the stack; deeper sets spill to a
/// heap vector.
#[derive(Debug)]
pub struct FingerprintBuilder {
    inline: [DomainId; 16],
    len: usize,
    spill: Vec<DomainId>,
    acc: u64,
}

impl Default for FingerprintBuilder {
    fn default() -> FingerprintBuilder {
        FingerprintBuilder::new()
    }
}

impl FingerprintBuilder {
    /// An empty builder.
    pub fn new() -> FingerprintBuilder {
        FingerprintBuilder {
            inline: [DomainId(0); 16],
            len: 0,
            spill: Vec::new(),
            acc: 0,
        }
    }

    fn contains(&self, id: DomainId) -> bool {
        self.inline[..self.len.min(16)].contains(&id) || self.spill.contains(&id)
    }

    /// Adds one visible domain; returns `true` if its id was not seen yet.
    pub fn add(&mut self, domain: &ProtectionDomain) -> bool {
        let interned = domain.interned();
        if self.contains(interned.id()) {
            return false;
        }
        if self.len < 16 {
            self.inline[self.len] = interned.id();
        } else {
            self.spill.push(interned.id());
        }
        self.len += 1;
        self.acc ^= interned.fingerprint_term();
        true
    }

    /// Number of distinct domains added. Zero means the walk saw only an
    /// empty stack — fully trusted, no cache entry needed.
    pub fn unique(&self) -> usize {
        self.len
    }

    /// The finished fingerprint: the XOR accumulator re-avalanched together
    /// with the set size, so `{a}` and `{a, b, c}` cannot collide merely by
    /// terms cancelling out.
    ///
    /// Uses the splitmix64 finalizer rather than a hash function: this runs
    /// on every warm access check (the per-term avalanche already paid the
    /// SipHash cost once, at intern time), and an arithmetic mix keeps the
    /// probe allocation- and hashing-free.
    pub fn finish(&self) -> u64 {
        let mut x = self
            .acc
            .wrapping_add((self.len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// The finished fingerprint paired with the distinct-domain count.
    pub fn fingerprint(&self) -> ContextFingerprint {
        ContextFingerprint {
            hash: self.finish(),
            unique: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain(url: &str, perms: Vec<Permission>) -> ProtectionDomain {
        ProtectionDomain::new(CodeSource::local(url), perms.into_iter().collect())
    }

    #[test]
    fn equal_domains_intern_to_the_same_id() {
        let a = domain("file:/intern/a", vec![Permission::runtime("x")]);
        let b = domain("file:/intern/a", vec![Permission::runtime("x")]);
        assert_eq!(a.id(), b.id());
        // Clones share the already-resolved intern record.
        assert_eq!(a.clone().id(), a.id());
    }

    #[test]
    fn distinct_domains_get_distinct_ids() {
        let a = domain("file:/intern/b", vec![]);
        let by_url = domain("file:/intern/c", vec![]);
        let by_grants = domain("file:/intern/b", vec![Permission::runtime("x")]);
        assert_ne!(a.id(), by_url.id());
        assert_ne!(a.id(), by_grants.id());
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_deduplicating() {
        let a = domain("file:/intern/fp-a", vec![]);
        let b = domain("file:/intern/fp-b", vec![]);

        let mut ab = FingerprintBuilder::new();
        assert!(ab.add(&a));
        assert!(ab.add(&b));
        let mut ba = FingerprintBuilder::new();
        ba.add(&b);
        ba.add(&a);
        assert_eq!(ab.finish(), ba.finish());
        assert_eq!(ab.unique(), 2);

        // Duplicates neither change the fingerprint nor the unique count.
        let mut aab = FingerprintBuilder::new();
        aab.add(&a);
        assert!(!aab.add(&a));
        aab.add(&b);
        assert_eq!(aab.finish(), ab.finish());
        assert_eq!(aab.unique(), 2);
    }

    #[test]
    fn subset_fingerprints_do_not_alias() {
        let a = domain("file:/intern/sub-a", vec![]);
        let b = domain("file:/intern/sub-b", vec![]);
        let mut just_a = FingerprintBuilder::new();
        just_a.add(&a);
        let mut both = FingerprintBuilder::new();
        both.add(&a);
        both.add(&b);
        assert_ne!(just_a.finish(), both.finish());
    }

    #[test]
    fn builder_spills_past_inline_capacity() {
        let mut forward = FingerprintBuilder::new();
        let mut reverse = FingerprintBuilder::new();
        let domains: Vec<ProtectionDomain> = (0..40)
            .map(|i| domain(&format!("file:/intern/spill-{i}"), vec![]))
            .collect();
        for d in &domains {
            forward.add(d);
        }
        for d in domains.iter().rev() {
            reverse.add(d);
        }
        assert_eq!(forward.unique(), 40);
        assert_eq!(forward.finish(), reverse.finish());
        // Re-adding an inline-range and a spill-range id is still a dedup hit.
        assert!(!forward.add(&domains[0]));
        assert!(!forward.add(&domains[39]));
    }
}
