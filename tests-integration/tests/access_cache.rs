//! The decision cache under adversarial conditions: mid-workload policy
//! reloads, `doPrivileged`-truncated contexts, concurrent check/reload
//! races, and the audit-exactness invariant (a warm cache must never change
//! what a denial says).

use std::sync::mpsc;
use std::sync::Arc;

use jmp_security::{AccessContext, CodeSource, FileActions, Permission, Policy, ProtectionDomain};
use jmp_vm::{stack, AppContext, ThreadBuilder, Vm};
use tests_integration::{register_app, runtime};

/// A VM thread run by alice: the access check reads the running user from
/// the application context the thread carries.
fn as_alice(vm: &Vm) -> ThreadBuilder {
    let ctx = AppContext::new(1, "Editor", "alice", vm.obs().clone());
    vm.thread_builder().app_context(ctx)
}

/// Runs `body` on a thread run by alice and waits for it.
fn run_as_alice(vm: &Vm, body: impl FnOnce(Vm) + Send + 'static) {
    as_alice(vm).spawn(body).unwrap().join().unwrap();
}

fn code_domain(vm: &Vm, url: &str) -> Arc<ProtectionDomain> {
    let source = CodeSource::local(url);
    let permissions = vm.policy().permissions_for(&source);
    Arc::new(ProtectionDomain::new(source, permissions))
}

fn exercising_domain(vm: &Vm, url: &str) -> Arc<ProtectionDomain> {
    let source = CodeSource::local(url);
    let mut permissions = vm.policy().permissions_for(&source);
    permissions.add(Permission::exercise_user_permissions());
    Arc::new(ProtectionDomain::new(source, permissions))
}

fn user_policy(user: &str, paths: &[&str]) -> Policy {
    let mut policy = Policy::new();
    policy.grant_user(
        user,
        paths
            .iter()
            .map(|p| Permission::file(*p, FileActions::READ))
            .collect(),
    );
    policy
}

/// A reload mid-workload: grants added by the new policy are honored on the
/// very next check, revoked grants are denied — even though the old
/// decisions were warm in the cache. Driven through the user-grant path,
/// which consults the live policy on every walk.
#[test]
fn reload_honors_new_grants_and_revokes_old_ones() {
    let vm = Vm::builder().policy(user_policy("alice", &["/a"])).build();
    let editor = exercising_domain(&vm, "file:/apps/editor");
    let read_a = Permission::file("/a", FileActions::READ);
    let read_b = Permission::file("/b", FileActions::READ);

    run_as_alice(&vm, move |vm| {
        stack::call_as("Editor", Arc::clone(&editor), || {
            // Warm the /a decision thoroughly.
            for _ in 0..10 {
                vm.access_check(&read_a).unwrap();
            }
            vm.access_check(&read_b).unwrap_err();
        });
        // The reload runs outside the editor's frame (a trusted stack).
        vm.set_policy(user_policy("alice", &["/b"])).unwrap();
        stack::call_as("Editor", editor, || {
            vm.access_check(&read_b).unwrap();
            vm.access_check(&read_a).unwrap_err();
        });
    });
}

/// A `doPrivileged`-truncated context must never alias the full stack it
/// was cut from: a decision granted under truncation (evil frames hidden)
/// must not be served from the cache when the evil frame is visible.
#[test]
fn privileged_truncation_never_aliases_the_full_stack() {
    let mut policy = Policy::new();
    policy.grant_code(
        CodeSource::local("file:/sys/font"),
        vec![Permission::file("/fonts/-", FileActions::READ)],
    );
    let vm = Vm::builder().policy(policy).build();
    let font = code_domain(&vm, "file:/sys/font");
    let evil = Arc::new(ProtectionDomain::untrusted(CodeSource::remote(
        "http://evil/x",
    )));
    let demand = Permission::file("/fonts/arial.ttf", FileActions::READ);

    stack::call_as("Evil", evil, || {
        stack::call_as("Font", Arc::clone(&font), || {
            // Privileged: the evil caller is hidden; granted — and cached
            // under the truncated fingerprint.
            for _ in 0..10 {
                stack::do_privileged(|| vm.access_check(&demand).unwrap());
            }
            // Unprivileged from the same spot: the evil frame is visible, so
            // the cached truncated decision must not apply.
            vm.access_check(&demand).unwrap_err();
        });
    });
    // The truncated grant also must not leak onto a bare font-only stack
    // cache entry and vice versa (they happen to decide the same way here,
    // but the fingerprints must differ when the visible sets differ).
    let ctx_font_only = AccessContext::from_domains(vec![font]);
    assert_eq!(ctx_font_only.fingerprint().unique, 1);
}

/// Hammers the cache from many checker threads while the policy is
/// reloaded concurrently. Invariants: a permission granted by every policy
/// version is never spuriously denied, and after the final reload the
/// flipped permission settles to exactly what the final policy says.
#[test]
fn concurrent_checks_and_reloads_stay_consistent() {
    const CHECKERS: usize = 4;
    const CHECKS_PER_THREAD: usize = 2_000;
    const RELOADS: usize = 200;

    // "/stable" is granted by every policy version; "/flip" alternates.
    let policy_with = user_policy("alice", &["/stable", "/flip"]);
    let policy_without = user_policy("alice", &["/stable"]);

    let vm = Vm::builder().policy(policy_with.clone()).build();
    let editor = exercising_domain(&vm, "file:/apps/editor");
    let stable = Permission::file("/stable", FileActions::READ);
    let flip = Permission::file("/flip", FileActions::READ);

    let (tx, rx) = mpsc::channel::<String>();
    let mut checkers = Vec::new();
    for i in 0..CHECKERS {
        let editor = Arc::clone(&editor);
        let stable = stable.clone();
        let flip = flip.clone();
        let tx = tx.clone();
        checkers.push(
            as_alice(&vm)
                .name(format!("checker-{i}"))
                .spawn(move |vm| {
                    stack::call_as("Editor", editor, || {
                        for _ in 0..CHECKS_PER_THREAD {
                            if vm.access_check(&stable).is_err() {
                                let _ = tx.send("stable grant spuriously denied".into());
                                return;
                            }
                            // Result depends on which policy is live; only
                            // crashes/deadlocks would be bugs here.
                            let _ = vm.access_check(&flip);
                        }
                    });
                })
                .unwrap(),
        );
    }
    drop(tx);
    for i in 0..RELOADS {
        let next = if i % 2 == 0 {
            policy_without.clone()
        } else {
            policy_with.clone()
        };
        vm.set_policy(next).unwrap();
    }
    for checker in checkers {
        checker.join().unwrap();
    }
    if let Ok(failure) = rx.try_recv() {
        panic!("{failure}");
    }
    // Settle on each final policy in turn and verify cached state obeys it.
    run_as_alice(&vm, move |vm| {
        vm.set_policy(policy_without).unwrap();
        stack::call_as("Editor", Arc::clone(&editor), || {
            vm.access_check(&stable).unwrap();
            vm.access_check(&flip).unwrap_err();
        });
        vm.set_policy(policy_with).unwrap();
        stack::call_as("Editor", editor, || {
            vm.access_check(&stable).unwrap();
            vm.access_check(&flip).unwrap();
        });
    });
}

/// Audit exactness, warm and cold: the denial record produced after a long
/// warm streak names exactly the same refusing domain as the first (cold)
/// denial, and warm granted checks add no audit records at all.
#[test]
fn warm_cache_never_changes_what_denials_say() {
    let mut policy = Policy::new();
    policy.grant_code(
        CodeSource::local("file:/apps/ok"),
        vec![Permission::file("/data/-", FileActions::READ)],
    );
    let vm = Vm::builder().policy(policy).build();
    let ok = code_domain(&vm, "file:/apps/ok");
    let granted = Permission::file("/data/x", FileActions::READ);
    let denied = Permission::file("/secret/x", FileActions::READ);

    stack::call_as("Ok", ok, || {
        vm.access_check(&denied).unwrap_err(); // cold denial
        for _ in 0..50 {
            vm.access_check(&granted).unwrap(); // warm streak
        }
        vm.access_check(&denied).unwrap_err(); // denial after warm streak
    });
    let records = vm.obs().audit().recent();
    assert_eq!(records.len(), 2, "only the two denials are audited");
    assert_eq!(
        records[0].context, records[1].context,
        "warm cache must not change the refusing-domain message"
    );
    assert!(
        records[0].context.contains("file:/apps/ok"),
        "the refusing domain is named exactly: {}",
        records[0].context
    );
    let metrics = vm.obs().vm_metrics();
    assert_eq!(metrics.counter("access.cache.hits").get(), 49);
    assert_eq!(metrics.counter("access.cache.misses").get(), 1);
    // Both denials bypassed the cache (denials are never cached).
    assert_eq!(metrics.counter("access.cache.bypass").get(), 2);
}

/// The full multi-processing stack still enforces user separation with the
/// cache in the loop: the same warm application code flips decisions when
/// the running user differs (the user is part of the cache key).
#[test]
fn cache_key_separates_users_in_the_real_runtime() {
    let rt = runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/a.txt", b"A", alice.id())
        .unwrap();

    register_app(&rt, "rereader", |_| {
        for _ in 0..10 {
            let _ = jmp_core::files::read("/home/alice/a.txt");
        }
        Ok(())
    });
    // Alice warms grants for her context; bob runs the same code and must
    // be denied despite the warm cache.
    rt.launch_as("alice", "rereader", &[])
        .unwrap()
        .wait_for()
        .unwrap();
    rt.launch_as("bob", "rereader", &[])
        .unwrap()
        .wait_for()
        .unwrap();
    let audit = jmp_core::obs::audit_records(&rt, None, None).unwrap();
    assert!(
        audit
            .iter()
            .any(|r| r.user.as_deref() == Some("bob") && r.permission.contains("/home/alice")),
        "bob's denial must be audited even when alice warmed the cache"
    );
    assert!(
        !audit
            .iter()
            .any(|r| r.user.as_deref() == Some("alice") && r.permission.contains("a.txt")),
        "alice was granted; no audit record for her reads"
    );
    rt.shutdown();
}
