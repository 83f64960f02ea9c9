//! E6 (§5.3) integration: user-based access control composed with
//! code-source policy, across real applications and the real VFS.

use std::sync::Arc;

use jmp_core::{files, login, Application};
use jmp_security::{FileActions, Permission};
use parking_lot::Mutex;
use tests_integration::{register_app, runtime};

#[test]
fn same_code_different_users_different_rights() {
    let rt = runtime();
    let alice = rt.users().lookup("alice").unwrap();
    let bob = rt.users().lookup("bob").unwrap();
    rt.vfs()
        .write("/home/alice/a.txt", b"A", alice.id())
        .unwrap();
    rt.vfs().write("/home/bob/b.txt", b"B", bob.id()).unwrap();

    let results: Arc<Mutex<Vec<(String, bool, bool)>>> = Arc::new(Mutex::new(Vec::new()));
    let results2 = Arc::clone(&results);
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("matrix")
                .main(move |_| {
                    let me = Application::current().unwrap().user().name().to_string();
                    results2.lock().push((
                        me,
                        files::read("/home/alice/a.txt").is_ok(),
                        files::read("/home/bob/b.txt").is_ok(),
                    ));
                    Ok(())
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/matrix"),
        )
        .unwrap();
    for user in ["alice", "bob"] {
        rt.launch_as(user, "matrix", &[])
            .unwrap()
            .wait_for()
            .unwrap();
    }
    assert_eq!(
        *results.lock(),
        vec![
            ("alice".to_string(), true, false),
            ("bob".to_string(), false, true)
        ]
    );
    rt.shutdown();
}

#[test]
fn rights_follow_a_mid_flight_user_change() {
    // §5.2: after login re-binds the user, subsequent checks use the new
    // user's grants — same application, same code.
    let rt = runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/a.txt", b"A", alice.id())
        .unwrap();

    static PHASES: Mutex<Vec<(bool, bool)>> = Mutex::new(Vec::new());
    // Needs the setUser grant, which the default policy binds to the exact
    // code source "file:/apps/login" — two classes may share a code source,
    // so register the probe right there.
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("chameleon")
                .main(|_| {
                    let before = files::read("/home/alice/a.txt").is_ok();
                    login::login("alice", "apw").map_err(jmp_vm::VmError::from)?;
                    let after = files::read("/home/alice/a.txt").is_ok();
                    PHASES.lock().push((before, after));
                    Ok(())
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/login"),
        )
        .unwrap();
    let app = rt.launch_as("bob", "chameleon", &[]).unwrap();
    app.wait_for().unwrap();
    let phases = PHASES.lock();
    let (before, after) = phases.first().expect("probe ran");
    assert!(!before, "as bob, alice's file is unreadable");
    assert!(after, "after login as alice, it is readable");
    rt.shutdown();
}

#[test]
fn a_warm_grant_does_not_survive_a_user_switch() {
    // The decision cache is keyed by the running user, which a check reads
    // from the application context without copying it. Once `login`
    // switches alice to bob, the very next check of the path alice was
    // just granted from the cache must be denied.
    let rt = runtime();
    static PHASES: Mutex<Vec<(bool, u64, bool)>> = Mutex::new(Vec::new());
    // Registered under the exact code source that holds `setUser`.
    rt.vm()
        .material()
        .register(
            jmp_vm::ClassDef::builder("switcher")
                .main(|_| {
                    let rt = jmp_core::MpRuntime::current().expect("on-runtime");
                    let vm = rt.vm();
                    let hits = || vm.obs().vm_metrics().counter("access.cache.hits").get();
                    let read = Permission::file("/home/alice/a.txt", FileActions::READ);
                    vm.check_permission(&read)?;
                    let before = hits();
                    let warm = (0..3).all(|_| vm.check_permission(&read).is_ok());
                    let warm_hits = hits() - before;
                    login::login("bob", "bpw").map_err(jmp_vm::VmError::from)?;
                    let after = vm.check_permission(&read).is_ok();
                    PHASES.lock().push((warm, warm_hits, after));
                    Ok(())
                })
                .build(),
            jmp_security::CodeSource::local("file:/apps/login"),
        )
        .unwrap();
    rt.launch_as("alice", "switcher", &[])
        .unwrap()
        .wait_for()
        .unwrap();
    let phases = PHASES.lock();
    let (warm, warm_hits, after) = *phases.first().expect("probe ran");
    assert!(warm, "as alice, her own file is readable");
    assert!(warm_hits >= 3, "the repeats were cache hits ({warm_hits})");
    assert!(!after, "as bob, the next check of the same path is denied");
    assert!(rt
        .vm()
        .obs()
        .audit_query(Some("bob"), None)
        .iter()
        .any(|r| r.permission.contains("/home/alice/a.txt")));
    rt.shutdown();
}

#[test]
fn policy_grants_are_code_source_exact_and_recursive() {
    let rt = runtime();
    // default policy: "file:/apps/login" (exact) holds setUser;
    // "file:/apps/-" (recursive) does not.
    let policy = rt.vm().policy();
    let set_user = jmp_security::Permission::runtime("setUser");
    assert!(policy
        .permissions_for(&jmp_security::CodeSource::local("file:/apps/login"))
        .implies(&set_user));
    assert!(!policy
        .permissions_for(&jmp_security::CodeSource::local("file:/apps/editor"))
        .implies(&set_user));
    rt.shutdown();
}

#[test]
fn user_grants_do_not_apply_without_a_running_user_match() {
    let rt = runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/a.txt", b"A", alice.id())
        .unwrap();
    static OUTCOME: Mutex<Option<bool>> = Mutex::new(None);
    register_app(&rt, "sysprobe2", |_| {
        *OUTCOME.lock() = Some(files::read("/home/alice/a.txt").is_ok());
        Ok(())
    });
    // Run as the system account: no `grant user "system"` exists, so the
    // exercise-user permission contributes nothing...
    let app = rt.launch("sysprobe2", &[]).unwrap();
    app.wait_for().unwrap();
    // ...but note the O/S layer would have allowed it (uid 0); the denial
    // comes from the runtime policy.
    assert_eq!(*OUTCOME.lock(), Some(false));
    rt.shutdown();
}
