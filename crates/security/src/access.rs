use std::fmt;
use std::sync::Arc;

use crate::domain::ProtectionDomain;
use crate::error::SecurityError;
use crate::intern::{ContextFingerprint, FingerprintBuilder};
use crate::permission::Permission;
use crate::policy::Policy;
use crate::Result;

/// One stack frame's contribution to an access-control decision: the
/// protection domain of the class executing in that frame, and whether the
/// frame was entered through `doPrivileged`.
#[derive(Debug, Clone)]
pub struct DomainEntry {
    /// The protection domain of the code executing in the frame.
    pub domain: Arc<ProtectionDomain>,
    /// `true` if this frame marks a `doPrivileged` boundary: the stack walk
    /// stops after checking this frame's domain.
    pub privileged: bool,
}

/// A snapshot of the protection domains on a thread's call stack, newest
/// frame first (JDK 1.2 `AccessControlContext`).
///
/// A context may carry an *inherited* parent context: when a thread is
/// created, the JDK captures the creating thread's context and consults it
/// below the new thread's own frames. [`AccessContext::inherit`] reproduces
/// this.
#[derive(Debug, Clone, Default)]
pub struct AccessContext {
    /// Domain entries, newest first.
    entries: Vec<DomainEntry>,
    /// Context captured from the creating thread, consulted after (below)
    /// `entries` unless a privileged frame stops the walk first.
    inherited: Option<Arc<AccessContext>>,
}

impl AccessContext {
    /// An empty context. An empty stack means only runtime-internal code is
    /// executing, which is fully trusted — checks against it succeed.
    pub fn empty() -> AccessContext {
        AccessContext::default()
    }

    /// Builds a context from unprivileged domains, newest first.
    pub fn from_domains(domains: Vec<Arc<ProtectionDomain>>) -> AccessContext {
        AccessContext {
            entries: domains
                .into_iter()
                .map(|domain| DomainEntry {
                    domain,
                    privileged: false,
                })
                .collect(),
            inherited: None,
        }
    }

    /// Builds a context from explicit entries, newest first.
    pub fn from_entries(entries: Vec<DomainEntry>) -> AccessContext {
        AccessContext {
            entries,
            inherited: None,
        }
    }

    /// Returns a copy of this context with `parent` attached as the inherited
    /// (thread-creation-time) context.
    pub fn inherit(mut self, parent: Arc<AccessContext>) -> AccessContext {
        self.inherited = Some(parent);
        self
    }

    /// Returns a new context with one more (newest) frame on top.
    pub fn with_frame(&self, domain: Arc<ProtectionDomain>, privileged: bool) -> AccessContext {
        let mut entries = Vec::with_capacity(self.entries.len() + 1);
        entries.push(DomainEntry { domain, privileged });
        entries.extend(self.entries.iter().cloned());
        AccessContext {
            entries,
            inherited: self.inherited.clone(),
        }
    }

    /// The entries of this context (newest first), excluding inherited ones.
    pub fn entries(&self) -> &[DomainEntry] {
        &self.entries
    }

    /// The inherited parent context, if any.
    pub fn inherited(&self) -> Option<&Arc<AccessContext>> {
        self.inherited.as_ref()
    }

    /// Total number of domain entries that a full (unprivileged) walk would
    /// visit, including inherited frames.
    pub fn depth(&self) -> usize {
        self.entries.len() + self.inherited.as_ref().map_or(0, |p| p.depth())
    }

    /// The fingerprint of the domain set an access-control walk of this
    /// context would actually visit.
    ///
    /// Respects `doPrivileged` truncation — frames below (older than) a
    /// privileged frame contribute nothing, so a truncated context can never
    /// alias the fingerprint of the full stack it was cut from (unless the
    /// hidden frames add no *new* domains, in which case the decisions are
    /// identical anyway). Order-insensitive and duplicate-insensitive, which
    /// is sound because the decision ANDs one predicate over the *set* of
    /// visible domains.
    pub fn fingerprint(&self) -> ContextFingerprint {
        let mut builder = FingerprintBuilder::new();
        let mut current = Some(self);
        'walk: while let Some(c) = current {
            for entry in &c.entries {
                builder.add(&entry.domain);
                if entry.privileged {
                    break 'walk;
                }
            }
            current = c.inherited.as_deref();
        }
        builder.fingerprint()
    }
}

impl fmt::Display for AccessContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}{}", e.domain, if e.privileged { "!" } else { "" })?;
        }
        if let Some(parent) = &self.inherited {
            write!(f, " <- {parent}")?;
        }
        write!(f, "]")
    }
}

/// How one distinct visible domain participated in an access-control walk:
/// the demand observatory's raw material. Produced by
/// [`AccessController::check_with_routes`] on the slow (full-walk) path so
/// the demand ledger can attribute a demand to every domain that had to
/// satisfy it — and, for grants, record *which rule* satisfied it (the
/// domain's own permissions or the running user's, paper §5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantRoute {
    /// The domain's code-source URL.
    pub source: String,
    /// The demand was satisfied through the running user's policy grants
    /// (the domain held `exerciseUserPermissions`), not the domain's own.
    pub via_user: bool,
    /// This domain refused the demand — it is the one a denial names.
    pub refused: bool,
}

/// The stack-inspection access controller (JDK 1.2 `AccessController`),
/// extended with the paper's user-based access control (§5.3).
///
/// The decision algorithm, per [`AccessController::check_with`]:
/// walk the stack newest→oldest; *every* visited domain must satisfy the
/// demanded permission; a `doPrivileged` frame is the last one visited.
/// A domain satisfies a demand if it implies the permission directly, **or**
/// if it holds `UserPermission("exerciseUserPermissions")` and the policy
/// grants the permission to the current running user.
#[derive(Debug)]
pub struct AccessController(());

impl AccessController {
    /// Checks `demand` against `ctx`, combining code-source permissions with
    /// the permissions the `policy` grants to `running_user` (paper §5.3).
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::AccessDenied`] naming the first domain on the
    /// stack that satisfies neither the code-source nor the user rule.
    pub fn check_with(
        ctx: &AccessContext,
        demand: &Permission,
        running_user: Option<&str>,
        policy: &Policy,
    ) -> Result<()> {
        // Pre-compute whether the running user is granted the demand at all;
        // only consulted for domains holding the exercise permission.
        let user_granted = running_user.is_some_and(|u| policy.user_implies(u, demand));
        AccessController::walk(ctx, demand, user_granted, None)
    }

    /// [`AccessController::check_with`], additionally reporting how each
    /// distinct visible domain satisfied (or refused) the demand.
    ///
    /// The walk is the same AND-over-distinct-domains with `doPrivileged`
    /// truncation; the decision is identical to `check_with`. Along the way
    /// one [`GrantRoute`] is pushed per distinct *policy-dependent* domain:
    /// fully-trusted domains (those statically implying [`Permission::All`],
    /// like the runtime's system domain) are skipped, because no policy
    /// grant is needed — or derivable — for them. On a denial, the refusing
    /// domain's route (with `refused: true`) is the last one pushed.
    ///
    /// Route sources are code-source URL clones; the granted path still
    /// formats no domain display strings.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::AccessDenied`] exactly when
    /// [`AccessController::check_with`] would.
    pub fn check_with_routes(
        ctx: &AccessContext,
        demand: &Permission,
        running_user: Option<&str>,
        policy: &Policy,
        routes: &mut Vec<GrantRoute>,
    ) -> Result<()> {
        let user_granted = running_user.is_some_and(|u| policy.user_implies(u, demand));
        AccessController::walk(ctx, demand, user_granted, Some(routes))
    }

    /// Checks `demand` using code-source permissions only (no user
    /// combination). Equivalent to [`AccessController::check_with`] with no
    /// running user — no policy is consulted at all.
    ///
    /// # Errors
    ///
    /// Returns [`SecurityError::AccessDenied`] naming the refusing domain.
    pub fn check(ctx: &AccessContext, demand: &Permission) -> Result<()> {
        AccessController::walk(ctx, demand, false, None)
    }

    /// The one stack walk: every *distinct* visible domain must satisfy the
    /// demand, where `user_granted` says the running user's policy grants
    /// cover it (so domains holding the exercise permission pass). When
    /// handed `routes`, it records one [`GrantRoute`] per distinct
    /// policy-dependent domain (see [`AccessController::check_with_routes`]).
    ///
    /// Duplicate domains are checked once — sound because the walk is a pure
    /// AND over visited domains — and dedup preserves first-occurrence order,
    /// so the refusing domain named in a denial is exactly the one the
    /// un-deduplicated walk would have named. The denial message is built
    /// only on the error branch; the granted path formats nothing.
    fn walk(
        ctx: &AccessContext,
        demand: &Permission,
        user_granted: bool,
        mut routes: Option<&mut Vec<GrantRoute>>,
    ) -> Result<()> {
        let mut exercise: Option<Permission> = None;
        let mut seen = FingerprintBuilder::new();
        let mut current = Some(ctx);
        while let Some(c) = current {
            for entry in &c.entries {
                // A statically all-powerful domain passes any demand; it
                // only needs telling apart when routes are recorded.
                let visit = seen.add(&entry.domain)
                    && !(routes.is_some() && entry.domain.implies(&Permission::All));
                if visit {
                    let code_ok = entry.domain.implies(demand);
                    let user_ok = !code_ok && user_granted && {
                        let exercise =
                            exercise.get_or_insert_with(Permission::exercise_user_permissions);
                        entry.domain.implies(exercise)
                    };
                    if let Some(routes) = routes.as_deref_mut() {
                        routes.push(GrantRoute {
                            source: entry.domain.code_source().url().to_string(),
                            via_user: user_ok,
                            refused: !code_ok && !user_ok,
                        });
                    }
                    if !code_ok && !user_ok {
                        return Err(SecurityError::denied(demand, entry.domain.to_string()));
                    }
                }
                if entry.privileged {
                    return Ok(());
                }
            }
            current = c.inherited.as_deref();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code_source::CodeSource;

    use crate::permission::FileActions;

    fn domain(url: &str, perms: Vec<Permission>) -> Arc<ProtectionDomain> {
        Arc::new(ProtectionDomain::new(
            CodeSource::local(url),
            perms.into_iter().collect(),
        ))
    }

    fn read_tmp() -> Permission {
        Permission::file("/tmp/x", FileActions::READ)
    }

    #[test]
    fn empty_context_is_fully_trusted() {
        AccessController::check(&AccessContext::empty(), &Permission::All).unwrap();
    }

    #[test]
    fn every_domain_on_stack_must_agree() {
        let trusted = domain("file:/sys/a", vec![Permission::All]);
        let untrusted = domain("http://evil/x", vec![]);

        // trusted alone: ok.
        let ctx = AccessContext::from_domains(vec![trusted.clone()]);
        AccessController::check(&ctx, &read_tmp()).unwrap();

        // untrusted anywhere on the stack: denied.
        let ctx = AccessContext::from_domains(vec![trusted.clone(), untrusted.clone()]);
        let err = AccessController::check(&ctx, &read_tmp()).unwrap_err();
        assert!(err.to_string().contains("http://evil/x"));

        let ctx = AccessContext::from_domains(vec![untrusted, trusted]);
        AccessController::check(&ctx, &read_tmp()).unwrap_err();
    }

    #[test]
    fn do_privileged_stops_the_walk() {
        let trusted = domain("file:/sys/a", vec![Permission::All]);
        let untrusted = domain("http://evil/x", vec![]);
        // Stack (newest first): trusted(privileged) above untrusted.
        let ctx = AccessContext::from_entries(vec![
            DomainEntry {
                domain: trusted.clone(),
                privileged: true,
            },
            DomainEntry {
                domain: untrusted.clone(),
                privileged: false,
            },
        ]);
        AccessController::check(&ctx, &read_tmp()).unwrap();

        // But a privileged frame below untrusted code does not help the
        // untrusted code above it (the luring-attack property).
        let ctx = AccessContext::from_entries(vec![
            DomainEntry {
                domain: untrusted,
                privileged: false,
            },
            DomainEntry {
                domain: trusted,
                privileged: true,
            },
        ]);
        AccessController::check(&ctx, &read_tmp()).unwrap_err();
    }

    #[test]
    fn privileged_frame_must_itself_hold_the_permission() {
        let weak = domain("file:/apps/weak", vec![]);
        let ctx = AccessContext::from_entries(vec![DomainEntry {
            domain: weak,
            privileged: true,
        }]);
        AccessController::check(&ctx, &read_tmp()).unwrap_err();
    }

    #[test]
    fn user_grants_are_combined_for_exercising_domains() {
        let mut policy = Policy::new();
        policy.grant_user(
            "alice",
            vec![Permission::file("/home/alice/-", FileActions::ALL)],
        );
        let editor = domain(
            "file:/apps/editor",
            vec![Permission::exercise_user_permissions()],
        );
        let ctx = AccessContext::from_domains(vec![editor]);
        let alice_file = Permission::file("/home/alice/notes", FileActions::READ);

        AccessController::check_with(&ctx, &alice_file, Some("alice"), &policy).unwrap();
        AccessController::check_with(&ctx, &alice_file, Some("bob"), &policy).unwrap_err();
        AccessController::check_with(&ctx, &alice_file, None, &policy).unwrap_err();
    }

    #[test]
    fn non_exercising_code_cannot_use_user_grants() {
        // Paper §5.3: remote code (applets) does not get the user permission,
        // so it may not touch the running user's files even when run by them.
        let mut policy = Policy::new();
        policy.grant_user(
            "alice",
            vec![Permission::file("/home/alice/-", FileActions::ALL)],
        );
        let applet = domain("http://applets.example.com/x", vec![]);
        let ctx = AccessContext::from_domains(vec![applet]);
        let alice_file = Permission::file("/home/alice/notes", FileActions::READ);
        AccessController::check_with(&ctx, &alice_file, Some("alice"), &policy).unwrap_err();
    }

    #[test]
    fn mixed_stack_applet_above_editor_is_denied() {
        // Even if the editor could exercise alice's permissions, an applet
        // frame above it poisons the stack.
        let mut policy = Policy::new();
        policy.grant_user(
            "alice",
            vec![Permission::file("/home/alice/-", FileActions::ALL)],
        );
        let editor = domain(
            "file:/apps/editor",
            vec![Permission::exercise_user_permissions()],
        );
        let applet = domain("http://applets.example.com/x", vec![]);
        let ctx = AccessContext::from_domains(vec![applet, editor]);
        let alice_file = Permission::file("/home/alice/notes", FileActions::READ);
        AccessController::check_with(&ctx, &alice_file, Some("alice"), &policy).unwrap_err();
    }

    #[test]
    fn inherited_context_is_consulted() {
        let trusted = domain("file:/sys/a", vec![Permission::All]);
        let untrusted = domain("http://evil/x", vec![]);
        // New thread runs only trusted frames, but was created by a thread
        // whose stack contained untrusted code.
        let parent = Arc::new(AccessContext::from_domains(vec![untrusted]));
        let ctx = AccessContext::from_domains(vec![trusted.clone()]).inherit(parent);
        AccessController::check(&ctx, &read_tmp()).unwrap_err();

        // A doPrivileged frame in the child stops before the inherited part.
        let parent = Arc::new(AccessContext::from_domains(vec![domain(
            "http://evil/x",
            vec![],
        )]));
        let ctx = AccessContext::from_entries(vec![DomainEntry {
            domain: trusted,
            privileged: true,
        }])
        .inherit(parent);
        AccessController::check(&ctx, &read_tmp()).unwrap();
    }

    #[test]
    fn with_frame_pushes_newest() {
        let a = domain("file:/a", vec![Permission::All]);
        let b = domain("file:/b", vec![]);
        let ctx = AccessContext::from_domains(vec![a]).with_frame(b, false);
        assert_eq!(ctx.entries().len(), 2);
        assert_eq!(ctx.entries()[0].domain.code_source().url(), "file:/b");
        assert_eq!(ctx.depth(), 2);
    }

    #[test]
    fn fingerprint_ignores_order_and_duplicates() {
        let a = domain("file:/fp/a", vec![Permission::All]);
        let b = domain("file:/fp/b", vec![]);
        let ab = AccessContext::from_domains(vec![a.clone(), b.clone()]);
        let ba = AccessContext::from_domains(vec![b.clone(), a.clone()]);
        let aab = AccessContext::from_domains(vec![a.clone(), a.clone(), b.clone()]);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        assert_eq!(ab.fingerprint(), aab.fingerprint());
        assert_eq!(ab.fingerprint().unique, 2);
        assert_ne!(
            ab.fingerprint(),
            AccessContext::from_domains(vec![a]).fingerprint()
        );
    }

    #[test]
    fn fingerprint_respects_privileged_truncation() {
        let trusted = domain("file:/fp/trusted", vec![Permission::All]);
        let below = domain("file:/fp/below", vec![]);
        let truncated = AccessContext::from_entries(vec![
            DomainEntry {
                domain: trusted.clone(),
                privileged: true,
            },
            DomainEntry {
                domain: below.clone(),
                privileged: false,
            },
        ]);
        let full = AccessContext::from_entries(vec![
            DomainEntry {
                domain: trusted.clone(),
                privileged: false,
            },
            DomainEntry {
                domain: below,
                privileged: false,
            },
        ]);
        // The truncated walk sees {trusted} only.
        assert_eq!(truncated.fingerprint().unique, 1);
        assert_ne!(truncated.fingerprint(), full.fingerprint());
        assert_eq!(
            truncated.fingerprint(),
            AccessContext::from_domains(vec![trusted]).fingerprint()
        );
    }

    #[test]
    fn fingerprint_covers_inherited_frames() {
        let a = domain("file:/fp/inh-a", vec![Permission::All]);
        let b = domain("file:/fp/inh-b", vec![Permission::All]);
        let parent = Arc::new(AccessContext::from_domains(vec![b.clone()]));
        let inherited = AccessContext::from_domains(vec![a.clone()]).inherit(parent);
        let flat = AccessContext::from_domains(vec![a.clone(), b]);
        assert_eq!(inherited.fingerprint(), flat.fingerprint());
        assert_ne!(
            inherited.fingerprint(),
            AccessContext::from_domains(vec![a]).fingerprint()
        );
    }

    #[test]
    fn empty_context_fingerprint_is_unique_zero() {
        assert_eq!(AccessContext::empty().fingerprint().unique, 0);
    }

    #[test]
    fn granted_checks_format_no_domain_strings() {
        let d = domain("file:/fmt/granted", vec![Permission::All]);
        let ctx = AccessContext::from_domains(vec![d.clone(), d]);
        let before = crate::domain::domain_display_format_count();
        for _ in 0..100 {
            AccessController::check(&ctx, &read_tmp()).unwrap();
        }
        assert_eq!(
            crate::domain::domain_display_format_count(),
            before,
            "the Ok path must not build denial strings"
        );
        // A denial does format (exactly the refusing domain).
        let denied_ctx = AccessContext::from_domains(vec![domain("file:/fmt/denied", vec![])]);
        AccessController::check(&denied_ctx, &read_tmp()).unwrap_err();
        assert_eq!(
            crate::domain::domain_display_format_count(),
            before + 1,
            "a denial formats exactly the refusing domain"
        );
    }

    #[test]
    fn duplicate_domains_are_checked_once_and_denials_name_first_refuser() {
        let open = domain("file:/dup/open", vec![Permission::All]);
        let first = domain("http://dup/first", vec![]);
        let second = domain("http://dup/second", vec![]);
        let ctx =
            AccessContext::from_domains(vec![open.clone(), first.clone(), open, second, first]);
        let err = AccessController::check(&ctx, &read_tmp()).unwrap_err();
        assert!(
            err.to_string().contains("http://dup/first"),
            "dedup must preserve the first refusing domain: {err}"
        );
    }

    #[test]
    fn routes_report_code_and_user_rules_and_skip_trusted_domains() {
        let mut policy = Policy::new();
        policy.grant_user(
            "alice",
            vec![Permission::file("/home/alice/-", FileActions::ALL)],
        );
        let system = domain("file:/sys/-", vec![Permission::All]);
        let editor = domain(
            "file:/apps/editor",
            vec![
                Permission::exercise_user_permissions(),
                Permission::file("/tmp/-", FileActions::READ),
            ],
        );
        let ctx = AccessContext::from_domains(vec![editor.clone(), system.clone()]);

        // Code route: the editor's own grant covers /tmp.
        let mut routes = Vec::new();
        let tmp = Permission::file("/tmp/x", FileActions::READ);
        AccessController::check_with_routes(&ctx, &tmp, Some("alice"), &policy, &mut routes)
            .unwrap();
        assert_eq!(
            routes,
            vec![GrantRoute {
                source: "file:/apps/editor".into(),
                via_user: false,
                refused: false,
            }],
            "the all-powerful system domain leaves no route"
        );

        // User route: alice's grant carries the editor.
        let mut routes = Vec::new();
        let alice_file = Permission::file("/home/alice/notes", FileActions::READ);
        AccessController::check_with_routes(&ctx, &alice_file, Some("alice"), &policy, &mut routes)
            .unwrap();
        assert_eq!(routes.len(), 1);
        assert!(routes[0].via_user && !routes[0].refused);

        // Denial: the refusing route is pushed last, and the decision
        // matches check_with.
        let mut routes = Vec::new();
        let err = AccessController::check_with_routes(
            &ctx,
            &alice_file,
            Some("bob"),
            &policy,
            &mut routes,
        )
        .unwrap_err();
        assert!(err.to_string().contains("file:/apps/editor"));
        let last = routes.last().unwrap();
        assert!(last.refused);
        assert_eq!(last.source, "file:/apps/editor");
        assert!(
            AccessController::check_with(&ctx, &alice_file, Some("bob"), &policy).is_err(),
            "routes walk and plain walk agree"
        );
    }

    #[test]
    fn routes_respect_privileged_truncation_and_dedup() {
        let below = domain("http://evil/x", vec![]);
        let priv_app = domain(
            "file:/apps/priv",
            vec![Permission::file("/tmp/x", FileActions::READ)],
        );
        let ctx = AccessContext::from_entries(vec![
            DomainEntry {
                domain: priv_app.clone(),
                privileged: true,
            },
            DomainEntry {
                domain: below,
                privileged: false,
            },
        ]);
        let mut routes = Vec::new();
        AccessController::check_with_routes(&ctx, &read_tmp(), None, &Policy::new(), &mut routes)
            .unwrap();
        assert_eq!(routes.len(), 1, "frames below doPrivileged are invisible");
        assert_eq!(routes[0].source, "file:/apps/priv");

        // Duplicates contribute one route.
        let b = domain(
            "file:/apps/other",
            vec![Permission::file("/tmp/x", FileActions::READ)],
        );
        let ctx = AccessContext::from_domains(vec![b.clone(), b.clone(), b]);
        let mut routes = Vec::new();
        AccessController::check_with_routes(&ctx, &read_tmp(), None, &Policy::new(), &mut routes)
            .unwrap();
        assert_eq!(routes.len(), 1);
    }

    #[test]
    fn display_marks_privileged_frames() {
        let a = domain("file:/a", vec![]);
        let ctx = AccessContext::from_entries(vec![DomainEntry {
            domain: a,
            privileged: true,
        }]);
        assert!(ctx.to_string().contains('!'));
    }
}
