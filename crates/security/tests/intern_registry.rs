//! The process-wide interning registry only grows, and re-interning an
//! equal domain leaves it unchanged. This test reads the global count
//! twice, so it lives in its own test binary: in the library's unit-test
//! binary, sibling tests intern new domains concurrently and move the
//! count between the two reads.

use jmp_security::{interned_domain_count, CodeSource, Permission, ProtectionDomain};

fn domain(url: &str, perms: Vec<Permission>) -> ProtectionDomain {
    ProtectionDomain::new(CodeSource::local(url), perms.into_iter().collect())
}

#[test]
fn registry_count_is_monotone() {
    let before = interned_domain_count();
    let _ = domain("file:/intern/count-probe", vec![]).id();
    assert!(interned_domain_count() > before);
    let again = interned_domain_count();
    let _ = domain("file:/intern/count-probe", vec![]).id();
    assert_eq!(interned_domain_count(), again);
}
