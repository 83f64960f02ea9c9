//! # jmp-security
//!
//! A faithful, self-contained reimplementation of the **JDK 1.2 security
//! architecture** (Gong et al., *Going Beyond the Sandbox*, USENIX ITS 1997)
//! as required by Balfanz & Gong, *Experience with Secure Multi-Processing in
//! Java* (ICDCS 1998), extended with the paper's **user-based access control**
//! (paper §5.3).
//!
//! The pieces:
//!
//! * [`Permission`] — a typed permission lattice with an `implies` relation
//!   ([`Permission::implies`]), covering files, sockets, runtime targets,
//!   properties, AWT targets and the paper's new *user permission*.
//! * [`CodeSource`] — where code came from (a URL) and who signed it.
//! * [`ProtectionDomain`] — the permissions granted to a code source when its
//!   classes were defined.
//! * [`Policy`] — a parsed policy configuration, read from a textual syntax
//!   close to the JDK 1.2 policy-file format, extended with
//!   `grant user "alice" { ... }` blocks (paper §5.3).
//! * [`AccessController`] — the stack-inspection algorithm: a permission is
//!   granted only if **every** protection domain on the call stack implies it,
//!   where a `doPrivileged` frame stops the walk, and where a domain that holds
//!   [`UserPermission`](Permission::User)`("exerciseUserPermissions")` may
//!   additionally exercise the permissions granted to the *running user*.
//! * [`UserRegistry`] — users, password authentication, home directories
//!   (paper §5.2, Feature 3/4).
//! * [`ShardedMap`] and [`EpochCache`] — the one sharded map behind the
//!   runtime's registries, the VM's decision cache and the lazy per-user
//!   grant store ([`LazyUserStore`]).
//!
//! # Example
//!
//! ```
//! use jmp_security::{
//!     AccessContext, AccessController, CodeSource, FileActions, Permission, Policy,
//!     ProtectionDomain,
//! };
//! use std::sync::Arc;
//!
//! let policy = Policy::parse(
//!     r#"
//!     grant codeBase "file:/apps/-" {
//!         permission user "exerciseUserPermissions";
//!     };
//!     grant user "alice" {
//!         permission file "/home/alice/-" "read,write";
//!     };
//!     "#,
//! )?;
//!
//! let editor_source = CodeSource::local("file:/apps/editor");
//! let editor_domain = Arc::new(ProtectionDomain::new(
//!     editor_source.clone(),
//!     policy.permissions_for(&editor_source),
//! ));
//!
//! // A call stack containing only the editor's domain, run by alice:
//! let ctx = AccessContext::from_domains(vec![editor_domain]);
//! let read_alice = Permission::file("/home/alice/notes.txt", FileActions::READ);
//! AccessController::check_with(&ctx, &read_alice, Some("alice"), &policy)?;
//! // ... but run by bob, the same code may not touch alice's files:
//! assert!(AccessController::check_with(&ctx, &read_alice, Some("bob"), &policy).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod code_source;
mod domain;
mod error;
mod index;
mod infer;
mod intern;
mod permission;
mod policy;
mod principal;
mod shard;
mod store;

pub use access::{AccessContext, AccessController, DomainEntry, GrantRoute};
pub use code_source::CodeSource;
#[doc(hidden)]
pub use domain::domain_display_format_count;
pub use domain::{PermissionCollection, ProtectionDomain};
pub use error::SecurityError;
pub use index::PermissionIndex;
pub use infer::{
    diff_policy, emit_policy_text, grant_count, infer_policy, ObservedDemand, PolicyDiffRow,
};
pub use intern::{interned_domain_count, ContextFingerprint, DomainId, FingerprintBuilder};
pub use permission::{FileActions, Permission, PropertyActions, SocketActions};
pub use policy::{Grant, GrantTarget, Policy};
pub use principal::{User, UserId, UserRegistry};
pub use shard::{EpochCache, ShardedMap, EPOCH_SHARD_CAP, SHARDS};
pub use store::{GrantSource, LazyUserStore, TemplateGrantSource, UserGrants};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, SecurityError>;
