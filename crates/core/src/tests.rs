//! In-crate tests for the multi-processing runtime. Cross-crate scenario
//! tests (shell sessions, appletviewer, full experiment reproductions) live
//! in `tests-integration`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jmp_security::{CodeSource, Policy};
use jmp_vm::ClassDef;

use crate::application::{AppStatus, Application};
use crate::error::Error;
use crate::runtime::MpRuntime;
use crate::{files, jsystem, login, pipes};

/// The paper's §5.3 example policy, plus the housekeeping grants local
/// applications need (exec, I/O redirection, property reads, windows).
pub(crate) const TEST_POLICY: &str = r#"
    // Rule 1: all local applications can exercise their running users'
    // permissions, and get the usual local-app conveniences.
    grant codeBase "file:/apps/-" {
        permission user "exerciseUserPermissions";
        permission runtime "execApplication";
        permission runtime "setIO";
        permission property "*" "read";
        permission awt "showWindow";
        permission file "/tmp/-" "read,write,delete";
        permission file "/tmp" "read";
    };

    // Rule 2: the backup application can read all files.
    grant codeBase "file:/apps/backup" {
        permission file "<<ALL FILES>>" "read";
    };

    // The login program may set its application's user (paper section 5.2).
    grant codeBase "file:/apps/login" {
        permission runtime "setUser";
    };

    // Rules 3 and 4: Alice and Bob own their home directories.
    grant user "alice" {
        permission file "/home/alice" "read";
        permission file "/home/alice/-" "read,write,execute,delete";
    };
    grant user "bob" {
        permission file "/home/bob" "read";
        permission file "/home/bob/-" "read,write,execute,delete";
    };
"#;

pub(crate) fn runtime() -> MpRuntime {
    MpRuntime::builder()
        .policy(Policy::parse(TEST_POLICY).expect("test policy parses"))
        .user("alice", "apw")
        .user("bob", "bpw")
        .build()
        .expect("runtime builds")
}

fn register(
    rt: &MpRuntime,
    name: &str,
    source: &str,
    main: impl Fn(Vec<String>) -> jmp_vm::Result<()> + Send + Sync + 'static,
) {
    rt.vm()
        .material()
        .register(
            ClassDef::builder(name).main(main).build(),
            CodeSource::local(source),
        )
        .expect("class registers");
}

#[test]
fn application_runs_and_finishes() {
    let rt = runtime();
    static RAN: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Hello", "file:/apps/hello", |args| {
        assert_eq!(args, vec!["x".to_string()]);
        RAN.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch("Hello", &["x"]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 0);
    assert_eq!(RAN.load(Ordering::SeqCst), 1);
    assert!(matches!(app.status(), AppStatus::Finished(0)));
    assert!(rt.await_idle(Duration::from_secs(5)));
    rt.shutdown();
}

#[test]
fn two_instances_are_distinct_applications() {
    // Fig 3: threads distinguish two instances of the same program.
    let rt = runtime();
    register(&rt, "Instance", "file:/apps/instance", |_| {
        let app = Application::current().unwrap();
        jsystem::println(&format!("id={}", app.id().0)).unwrap();
        Ok(())
    });
    let a = rt.launch("Instance", &[]).unwrap();
    let b = rt.launch("Instance", &[]).unwrap();
    assert_ne!(a.id(), b.id());
    assert!(!a.group().same_group(b.group()));
    a.wait_for().unwrap();
    b.wait_for().unwrap();
    let console = rt.console_output();
    assert!(console.contains(&format!("id={}", a.id().0)));
    assert!(console.contains(&format!("id={}", b.id().0)));
    rt.shutdown();
}

#[test]
fn explicit_exit_stops_all_app_threads() {
    let rt = runtime();
    static WORKER_INTERRUPTED: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Exiter", "file:/apps/exiter", |_| {
        let vm = jmp_vm::Vm::current().unwrap();
        // A worker that would run forever.
        vm.thread_builder()
            .name("worker")
            .spawn(|_| {
                if jmp_vm::thread::sleep(Duration::from_secs(600)).is_err() {
                    WORKER_INTERRUPTED.fetch_add(1, Ordering::SeqCst);
                }
            })
            .unwrap();
        Application::exit(7).expect("exit from an application");
        Ok(())
    });
    let app = rt.launch("Exiter", &[]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 7);
    assert_eq!(WORKER_INTERRUPTED.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn app_ends_when_last_nondaemon_thread_ends() {
    // Paper §5.1: no explicit exit() needed; the runtime calls it when only
    // daemon threads remain in the application's group.
    let rt = runtime();
    static ORDER: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Forked", "file:/apps/forked", |_| {
        let vm = jmp_vm::Vm::current().unwrap();
        vm.thread_builder()
            .name("late-worker")
            .spawn(|_| {
                jmp_vm::thread::sleep(Duration::from_millis(80)).unwrap();
                ORDER.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        // main returns immediately; the worker keeps the app alive.
        Ok(())
    });
    let app = rt.launch("Forked", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(
        ORDER.load(Ordering::SeqCst),
        1,
        "application must not finish before its non-daemon worker"
    );
    rt.shutdown();
}

#[test]
fn each_application_gets_its_own_system_class() {
    // Fig 5 / §5.5.
    let rt = runtime();
    let ids = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let ids2 = Arc::clone(&ids);
    rt.vm()
        .material()
        .register(
            ClassDef::builder("SysProbe")
                .main(move |_| {
                    let class = jsystem::system_class().unwrap();
                    let props_class = Application::current()
                        .unwrap()
                        .loader()
                        .load_class(crate::SYSTEM_PROPERTIES_CLASS)
                        .unwrap();
                    ids2.lock()
                        .push((class.id().clone(), props_class.id().clone()));
                    Ok(())
                })
                .build(),
            CodeSource::local("file:/apps/sysprobe"),
        )
        .unwrap();
    let a = rt.launch("SysProbe", &[]).unwrap();
    a.wait_for().unwrap();
    let b = rt.launch("SysProbe", &[]).unwrap();
    b.wait_for().unwrap();

    let ids = ids.lock();
    assert_eq!(ids.len(), 2);
    let (sys_a, props_a) = &ids[0];
    let (sys_b, props_b) = &ids[1];
    assert_eq!(sys_a.name, sys_b.name, "same class name");
    assert_ne!(
        sys_a, sys_b,
        "different defining loaders => different classes"
    );
    assert_eq!(
        props_a, props_b,
        "SystemProperties is shared between all applications (Fig 5)"
    );
    rt.shutdown();
}

#[test]
fn system_properties_are_shared_but_streams_are_not() {
    let rt = runtime();
    static SAW: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Writer", "file:/apps/writer", |_| {
        jsystem::println("from-writer").unwrap();
        Ok(())
    });
    register(&rt, "Reader", "file:/apps/reader", |_| {
        // Shared property written by the host below is visible here.
        if jsystem::property("shared.flag").unwrap().as_deref() == Some("on") {
            SAW.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    });
    rt.vm().properties().set("shared.flag", "on");

    let sink = jmp_vm::io::MemSink::new();
    let out = jmp_vm::io::OutStream::new(Arc::new(sink.clone()), jmp_vm::io::IoToken(999));
    let writer = {
        // Launch Writer with a private stdout.
        let user = rt.system_user();
        let spec = crate::application::ExecSpec {
            class_name: "Writer".into(),
            args: vec![],
            user,
            cwd: "/".into(),
            stdin: jmp_vm::io::InStream::null(jmp_vm::io::IoToken(999)),
            stdout: out.clone(),
            stderr: out,
            properties: rt.vm().properties().overlay(),
            forced_id: None,
        };
        crate::application::spawn_app(&rt, spec).unwrap()
    };
    let reader = rt.launch("Reader", &[]).unwrap();
    writer.wait_for().unwrap();
    reader.wait_for().unwrap();

    assert!(sink.contents_string().contains("from-writer"));
    assert!(
        !rt.console_output().contains("from-writer"),
        "writer's stdout was private: per-app System.out (Fig 5)"
    );
    assert_eq!(SAW.load(Ordering::SeqCst), 1, "shared SystemProperties");
    rt.shutdown();
}

#[test]
fn child_inherits_parent_state() {
    // §5.1: "the current application-wide state of the parent is inherited
    // by the child."
    let rt = runtime();
    static CHECKS: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Child", "file:/apps/child", |_| {
        let app = Application::current().unwrap();
        assert_eq!(app.user().name(), "alice");
        assert_eq!(app.cwd(), "/tmp");
        assert_eq!(app.properties().get("custom.key").as_deref(), Some("v"));
        CHECKS.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    register(&rt, "Parent", "file:/apps/parent", |_| {
        let app = Application::current().unwrap();
        Application::set_cwd("/tmp").unwrap();
        app.properties().set("custom.key", "v");
        let child = Application::exec("Child", &[]).unwrap();
        child.wait_for().unwrap();
        Ok(())
    });
    let parent = rt.launch_as("alice", "Parent", &[]).unwrap();
    parent.wait_for().unwrap();
    assert_eq!(CHECKS.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn user_based_file_access_matrix() {
    // Experiment E6: the paper's four policy rules in action.
    let rt = runtime();
    rt.vfs()
        .write(
            "/home/alice/notes.txt",
            b"alice's notes",
            rt.users().lookup("alice").unwrap().id(),
        )
        .unwrap();
    rt.vfs()
        .write(
            "/home/bob/secret.txt",
            b"bob's secret",
            rt.users().lookup("bob").unwrap().id(),
        )
        .unwrap();

    static RESULTS: parking_lot::Mutex<Vec<(String, bool, bool)>> =
        parking_lot::Mutex::new(Vec::new());
    register(&rt, "Editor", "file:/apps/editor", |_| {
        let me = Application::current().unwrap().user().name().to_string();
        let alice_ok = files::read("/home/alice/notes.txt").is_ok();
        let bob_ok = files::read("/home/bob/secret.txt").is_ok();
        RESULTS.lock().push((me, alice_ok, bob_ok));
        Ok(())
    });

    for user in ["alice", "bob"] {
        let app = rt.launch_as(user, "Editor", &[]).unwrap();
        app.wait_for().unwrap();
    }
    let results = RESULTS.lock();
    assert_eq!(
        *results,
        vec![
            ("alice".to_string(), true, false),
            ("bob".to_string(), false, true),
        ],
        "the same editor code gets each running user's permissions and no more"
    );
    rt.shutdown();
}

#[test]
fn backup_reads_all_but_writes_nothing() {
    let rt = runtime();
    rt.vfs()
        .write(
            "/home/alice/notes.txt",
            b"data",
            rt.users().lookup("alice").unwrap().id(),
        )
        .unwrap();
    static OK: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Backup", "file:/apps/backup", |_| {
        // Rule 2: reads everything (code-source grant, no user involved)...
        assert_eq!(files::read("/home/alice/notes.txt").unwrap(), b"data");
        // ...but cannot write.
        assert!(files::write("/home/alice/notes.txt", b"clobber")
            .unwrap_err()
            .is_security());
        OK.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    // Run as the system account (like a root backup daemon): the read works
    // through the *code-source* grant, no user grant involved; the write is
    // still denied by the runtime policy even though the O/S would allow it.
    let app = rt.launch("Backup", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn os_denial_is_file_not_found_policy_denial_is_security() {
    // The paper's Feature 3 distinction, end to end.
    let rt = runtime();
    rt.vfs()
        .write(
            "/home/bob/secret.txt",
            b"x",
            rt.users().lookup("bob").unwrap().id(),
        )
        .unwrap();
    static OK: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Prober", "file:/apps/prober", |_| {
        // Policy denies /etc to this app entirely => SecurityException.
        let err = files::read("/etc/anything").unwrap_err();
        assert!(err.is_security(), "policy layer: {err}");
        // Policy allows alice's user grants only for /home/alice; for
        // /home/bob the *policy* already denies. To reach the O/S layer we
        // probe a path the policy allows but the O/S hides: /tmp is granted
        // to the code source, so make a file the O/S denies.
        OK.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch_as("alice", "Prober", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK.load(Ordering::SeqCst), 1);

    // O/S layer: bob's private /tmp file, policy-granted to the app's code
    // source, still hidden by mode bits => FileNotFound.
    let bob = rt.users().lookup("bob").unwrap();
    rt.vfs().write("/tmp/bobs", b"x", bob.id()).unwrap();
    rt.vfs()
        .chmod("/tmp/bobs", jmp_vfs::Mode::FILE_PRIVATE, bob.id())
        .unwrap();
    static OK2: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Prober2", "file:/apps/prober2", |_| {
        let err = files::read("/tmp/bobs").unwrap_err();
        assert!(err.is_file_not_found(), "O/S layer: {err}");
        assert!(!err.is_security());
        OK2.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch_as("alice", "Prober2", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK2.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn remote_code_cannot_exec_applications() {
    let rt = runtime();
    static DENIED: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Victim", "file:/apps/victim", |_| Ok(()));
    // An "applet": registered from a remote code source with no grants.
    rt.vm()
        .material()
        .register(
            ClassDef::builder("Applet")
                .main(|_| {
                    let err = Application::exec("Victim", &[]).unwrap_err();
                    assert!(err.is_security());
                    DENIED.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .build(),
            CodeSource::remote("http://applets.example.com/Applet"),
        )
        .unwrap();
    let app = rt.launch_as("alice", "Applet", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(DENIED.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn login_program_changes_running_user() {
    // §5.2: the privilege belongs to the login *program's code source*.
    let rt = runtime();
    static OK: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Login", "file:/apps/login", |_| {
        let before = Application::current().unwrap().user().name().to_string();
        assert_eq!(before, "system");
        assert!(matches!(
            login::login("alice", "wrong"),
            Err(Error::AuthenticationFailed { .. })
        ));
        let user = login::login("alice", "apw").unwrap();
        assert_eq!(user.name(), "alice");
        let app = Application::current().unwrap();
        assert_eq!(app.user().name(), "alice");
        assert_eq!(app.cwd(), "/home/alice");
        OK.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch("Login", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK.load(Ordering::SeqCst), 1);

    // The same call from a program without the grant fails.
    static DENIED: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "FakeLogin", "file:/apps/fakelogin", |_| {
        let err = login::login("alice", "apw").unwrap_err();
        assert!(err.is_security(), "{err}");
        DENIED.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch("FakeLogin", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(DENIED.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn inherited_streams_cannot_be_closed_by_child() {
    // §5.1 / E10.
    let rt = runtime();
    static OK: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Closer", "file:/apps/closer", |_| {
        let app = Application::current().unwrap();
        let out = app.stdout();
        let err = out.close(app.io_token()).unwrap_err();
        assert!(matches!(err, jmp_vm::VmError::NotStreamOwner));
        // Still usable afterwards.
        jsystem::println("still alive").unwrap();
        OK.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch("Closer", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK.load(Ordering::SeqCst), 1);
    assert!(rt.console_output().contains("still alive"));
    rt.shutdown();
}

#[test]
fn owned_pipes_are_closed_at_teardown() {
    let rt = runtime();
    let captured: Arc<parking_lot::Mutex<Option<jmp_vm::io::InStream>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let captured2 = Arc::clone(&captured);
    rt.vm()
        .material()
        .register(
            ClassDef::builder("PipeMaker")
                .main(move |_| {
                    let (out, input) = pipes::make_pipe().unwrap();
                    out.println("payload").unwrap();
                    *captured2.lock() = Some(input);
                    Ok(())
                })
                .build(),
            CodeSource::local("file:/apps/pipemaker"),
        )
        .unwrap();
    let app = rt.launch("PipeMaker", &[]).unwrap();
    app.wait_for().unwrap();
    let input = captured.lock().take().unwrap();
    assert!(
        input.is_closed(),
        "application-owned streams are closed by the reaper"
    );
    rt.shutdown();
}

#[test]
fn stop_foreign_application_requires_privilege() {
    let rt = runtime();
    register(&rt, "LongRunner", "file:/apps/longrunner", |_| {
        let _ = jmp_vm::thread::sleep(Duration::from_secs(600));
        Ok(())
    });
    static DENIED: AtomicUsize = AtomicUsize::new(0);
    let target = rt.launch_as("bob", "LongRunner", &[]).unwrap();
    let target2 = target.clone();
    rt.vm()
        .material()
        .register(
            ClassDef::builder("Killer")
                .main(move |_| {
                    let err = target2.stop(1).unwrap_err();
                    assert!(err.is_security());
                    DENIED.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .build(),
            CodeSource::local("file:/apps/killer"),
        )
        .unwrap();
    let killer = rt.launch_as("alice", "Killer", &[]).unwrap();
    killer.wait_for().unwrap();
    assert_eq!(DENIED.load(Ordering::SeqCst), 1);
    assert!(matches!(target.status(), AppStatus::Running));

    // The host (trusted) can stop it.
    target.stop(9).unwrap();
    assert_eq!(target.wait_for().unwrap(), 9);
    rt.shutdown();
}

#[test]
fn app_security_manager_is_never_consulted_by_system_code() {
    // §5.6: the paper's key observation about multiple security managers.
    let rt = runtime();
    static APP_SM_CALLS: AtomicUsize = AtomicUsize::new(0);
    struct CountingSm;
    impl jmp_vm::SecurityManager for CountingSm {
        fn check_permission(
            &self,
            _vm: &jmp_vm::Vm,
            _perm: &jmp_security::Permission,
        ) -> jmp_vm::Result<()> {
            APP_SM_CALLS.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }
    static OK: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "SmApp", "file:/apps/smapp", |_| {
        jsystem::set_security_manager(Arc::new(CountingSm)).unwrap();
        assert!(jsystem::security_manager().unwrap().is_some());
        // A sensitive operation: the SYSTEM security manager handles it; the
        // application's own manager is not consulted.
        files::write("/tmp/smapp.txt", b"x").unwrap();
        assert_eq!(APP_SM_CALLS.load(Ordering::SeqCst), 0);
        OK.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch("SmApp", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn ps_style_thread_listing() {
    let rt = runtime();
    register(&rt, "Spawner", "file:/apps/spawner", |_| {
        let vm = jmp_vm::Vm::current().unwrap();
        for i in 0..3 {
            vm.thread_builder()
                .name(format!("w{i}"))
                .spawn(|_| {
                    let _ = jmp_vm::thread::sleep(Duration::from_millis(200));
                })
                .unwrap();
        }
        jmp_vm::thread::sleep(Duration::from_millis(50)).unwrap();
        let app = Application::current().unwrap();
        assert!(app.threads().len() >= 4, "main + 3 workers");
        Ok(())
    });
    let app = rt.launch("Spawner", &[]).unwrap();
    app.wait_for().unwrap();
    rt.shutdown();
}

#[test]
fn cwd_relative_file_operations() {
    let rt = runtime();
    static OK: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Relative", "file:/apps/relative", |_| {
        Application::set_cwd("/tmp").unwrap();
        files::write("rel.txt", b"hello").unwrap();
        assert_eq!(files::read("/tmp/rel.txt").unwrap(), b"hello");
        assert_eq!(files::read("rel.txt").unwrap(), b"hello");
        assert_eq!(files::absolute("sub/../rel.txt").unwrap(), "/tmp/rel.txt");
        files::delete("rel.txt").unwrap();
        assert!(!files::exists("rel.txt").unwrap());
        OK.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch_as("alice", "Relative", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn streaming_file_io() {
    let rt = runtime();
    static OK: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Streamer", "file:/apps/streamer", |_| {
        let out = files::open_out("/tmp/stream.txt", false).unwrap();
        out.println("line one").unwrap();
        out.println("line two").unwrap();
        let input = files::open_in("/tmp/stream.txt").unwrap();
        assert_eq!(input.read_line().unwrap().as_deref(), Some("line one"));
        assert_eq!(input.read_line().unwrap().as_deref(), Some("line two"));
        assert_eq!(input.read_line().unwrap(), None);
        // Appending.
        let out = files::open_out("/tmp/stream.txt", true).unwrap();
        out.println("line three").unwrap();
        assert!(files::read_string("/tmp/stream.txt")
            .unwrap()
            .ends_with("line three\n"));
        OK.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let app = rt.launch_as("alice", "Streamer", &[]).unwrap();
    app.wait_for().unwrap();
    assert_eq!(OK.load(Ordering::SeqCst), 1);
    rt.shutdown();
}

#[test]
fn exec_off_application_is_rejected() {
    let _rt = runtime();
    assert!(matches!(
        Application::exec("X", &[]),
        Err(Error::NotAnApplication)
    ));
    assert!(matches!(Application::exit(0), Err(Error::NotAnApplication)));
}

#[test]
fn policy_file_is_recorded_and_reparseable() {
    let rt = runtime();
    let text = rt
        .vfs()
        .read("/etc/java.policy", jmp_security::UserId(0))
        .unwrap();
    let parsed = Policy::parse(&String::from_utf8_lossy(&text)).unwrap();
    assert_eq!(parsed, *rt.vm().policy());
    // World-readable: any user may inspect the policy.
    let alice = rt.users().lookup("alice").unwrap();
    assert!(rt.vfs().read("/etc/java.policy", alice.id()).is_ok());
    rt.shutdown();
}

#[test]
fn launch_unknown_user_fails() {
    let rt = runtime();
    assert!(rt.launch_as("ghost", "X", &[]).is_err());
    rt.shutdown();
}

#[test]
fn unknown_class_reports_on_stderr() {
    let rt = runtime();
    let app = rt.launch("NoSuchClass", &[]).unwrap();
    app.wait_for().unwrap();
    assert!(rt.console_output().contains("class not found: NoSuchClass"));
    rt.shutdown();
}

#[test]
fn reaper_post_close_send_is_a_counted_noop() {
    // An application exit racing runtime drop must neither enqueue (the
    // reaper is gone) nor vanish silently: it lands on `reaper.dropped`.
    let rt = runtime();
    let queue = Arc::clone(&rt.inner.reap_queue);
    let dropped = rt.vm().obs().vm_metrics().counter("reaper.dropped");
    assert_eq!(dropped.get(), 0);
    queue.close();
    queue.send(crate::AppId(7));
    queue.send(crate::AppId(8));
    assert_eq!(dropped.get(), 2);
    rt.shutdown();
}

#[test]
fn app_context_carries_identity_and_defaults() {
    let rt = MpRuntime::builder()
        .policy(Policy::parse(TEST_POLICY).expect("test policy parses"))
        .user("alice", "apw")
        .resource_limit(jmp_vm::ResourceKind::Threads, 16)
        .build()
        .expect("runtime builds");
    register(&rt, "Ctx", "file:/apps/ctx", |_| {
        let ctx = jmp_vm::thread::current_app_context().expect("main carries the context");
        let app = Application::current().unwrap();
        assert_eq!(ctx.app_id(), app.id().0);
        assert_eq!(&*ctx.user(), "alice");
        assert_eq!(ctx.limits().get(jmp_vm::ResourceKind::Threads), 16);
        // The main thread itself is on the ledger.
        assert_eq!(ctx.ledger().get(jmp_vm::ResourceKind::Threads), 1);
        Ok(())
    });
    let app = rt.launch_as("alice", "Ctx", &[]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 0);
    // After the reap every charge is back.
    assert!(rt.await_idle(Duration::from_secs(5)));
    assert!(app.context().ledger().is_drained());
    rt.shutdown();
}

#[test]
fn a_detached_thread_belongs_to_no_application() {
    // Identity is the context a thread carries, not the group it sits in:
    // a `detached()` helper stays in its spawner's group, yet it is no
    // application's and bills no ledger.
    let rt = runtime();
    static SEEN: std::sync::Mutex<Option<(bool, bool, u64)>> = std::sync::Mutex::new(None);
    register(&rt, "Detacher", "file:/apps/detacher", |_| {
        let app = Application::current().expect("main belongs to its application");
        let (group, (report, reported)) = (app.group().clone(), std::sync::mpsc::channel());
        let (release, released) = std::sync::mpsc::channel::<()>();
        let vm = jmp_vm::Vm::current().unwrap();
        vm.thread_builder().detached().spawn(move |_| {
            let in_group = jmp_vm::thread::current()
                .unwrap()
                .group()
                .same_group(&group);
            let _ = report.send((in_group, Application::current().is_none()));
            let _ = released.recv(); // alive until main has read the ledger
        })?;
        let (in_group, no_app) = reported.recv().expect("the helper reports");
        let threads = app.context().ledger().get(jmp_vm::ResourceKind::Threads);
        *SEEN.lock().unwrap() = Some((in_group, no_app, threads));
        drop(release);
        Ok(())
    });
    assert_eq!(rt.launch("Detacher", &[]).unwrap().wait_for().unwrap(), 0);
    let seen = SEEN.lock().unwrap().take();
    assert_eq!(
        seen,
        Some((true, true, 1)),
        "(in its group, no app, threads charged)"
    );
    rt.shutdown();
}

#[test]
fn policy_limit_grants_override_defaults() {
    let policy = format!(
        "{TEST_POLICY}\n{}",
        r#"grant user "bob" { permission resource "limit.threads:3"; };"#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&policy).expect("policy parses"))
        .user("alice", "apw")
        .user("bob", "bpw")
        .resource_limit(jmp_vm::ResourceKind::Threads, 64)
        .build()
        .expect("runtime builds");
    register(&rt, "Idle", "file:/apps/idle", |_| Ok(()));
    let alice = rt.launch_as("alice", "Idle", &[]).unwrap();
    let bob = rt.launch_as("bob", "Idle", &[]).unwrap();
    assert_eq!(
        alice.context().limits().get(jmp_vm::ResourceKind::Threads),
        64
    );
    assert_eq!(bob.context().limits().get(jmp_vm::ResourceKind::Threads), 3);
    alice.wait_for().unwrap();
    bob.wait_for().unwrap();
    rt.shutdown();
}

#[test]
fn thread_quota_denies_spawn_and_counts_the_denial() {
    let policy = format!(
        "{TEST_POLICY}\n{}",
        r#"grant user "bob" { permission resource "limit.threads:2"; };"#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&policy).expect("policy parses"))
        .user("bob", "bpw")
        .build()
        .expect("runtime builds");
    static DENIED: AtomicUsize = AtomicUsize::new(0);
    register(&rt, "Bomb", "file:/apps/bomb", |_| {
        // Main is 1 of 2; the first extra thread fits, the second must be
        // denied with a typed QuotaExceeded.
        let vm = jmp_vm::Vm::current().unwrap();
        let first = vm
            .thread_builder()
            .name("b1")
            .spawn(|_| {
                let _ = jmp_vm::thread::sleep(Duration::from_millis(500));
            })
            .expect("within quota");
        let err = vm
            .thread_builder()
            .name("b2")
            .spawn(|_| {})
            .expect_err("over quota");
        assert!(err.is_quota_exceeded(), "{err}");
        DENIED.fetch_add(1, Ordering::SeqCst);
        first.join_timeout(Duration::from_secs(5));
        Ok(())
    });
    let app = rt.launch_as("bob", "Bomb", &[]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 0);
    assert_eq!(DENIED.load(Ordering::SeqCst), 1);
    // The denial is counted VM-wide and audited.
    assert!(rt.vm().obs().vm_metrics().counter("quota.denied").get() >= 1);
    let audited = rt.vm().obs().audit_query(Some("bob"), None);
    assert!(
        audited.iter().any(|r| r.permission.contains("threads")),
        "{audited:?}"
    );
    assert!(rt.await_idle(Duration::from_secs(5)));
    assert!(app.context().ledger().is_drained());
    rt.shutdown();
}

#[test]
fn set_limits_is_gated_by_resource_permission() {
    let rt = runtime();
    register(&rt, "Limiter", "file:/apps/limiter", |_| {
        let rt = MpRuntime::current().unwrap();
        let app = Application::current().unwrap();
        // The test policy does not grant ResourcePermission("setLimits").
        let err = rt
            .set_limits(app.id(), jmp_vm::ResourceKind::Handles, 5)
            .expect_err("setLimits must be gated");
        assert!(err.is_security(), "{err}");
        Ok(())
    });
    let app = rt.launch_as("alice", "Limiter", &[]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 0);
    // The host (trusted, off-stack) may set limits directly.
    register(&rt, "Sleepy", "file:/apps/sleepy", |_| {
        jmp_vm::thread::sleep(Duration::from_secs(600))
    });
    let sleepy = rt.launch_as("alice", "Sleepy", &[]).unwrap();
    rt.set_limits(sleepy.id(), jmp_vm::ResourceKind::Handles, 5)
        .expect("host sets limits");
    assert_eq!(
        sleepy.context().limits().get(jmp_vm::ResourceKind::Handles),
        5
    );
    sleepy.stop(0).unwrap();
    rt.shutdown();
}

#[test]
fn handles_quota_bounds_owned_streams() {
    let policy = format!(
        "{TEST_POLICY}\n{}",
        r#"grant user "alice" { permission resource "limit.handles:2"; };"#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&policy).expect("policy parses"))
        .user("alice", "apw")
        .build()
        .expect("runtime builds");
    register(&rt, "Opener", "file:/apps/opener", |_| {
        // A pipe takes two handles (both ends); a second pipe must be
        // denied over the handles quota.
        let _pipe = pipes::make_pipe().expect("within quota");
        let err = pipes::make_pipe().expect_err("over quota");
        assert!(
            matches!(err, Error::Vm(ref e) if e.is_quota_exceeded()),
            "{err}"
        );
        Ok(())
    });
    let app = rt.launch_as("alice", "Opener", &[]).unwrap();
    assert_eq!(app.wait_for().unwrap(), 0);
    assert!(rt.await_idle(Duration::from_secs(5)));
    assert!(app.context().ledger().is_drained());
    rt.shutdown();
}

#[test]
fn repeated_hard_breaches_terminate_the_app() {
    let policy = format!(
        "{TEST_POLICY}\n{}",
        r#"grant user "bob" { permission resource "limit.threads:1"; };"#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&policy).expect("policy parses"))
        .user("bob", "bpw")
        .build()
        .expect("runtime builds");
    register(&rt, "Breacher", "file:/apps/breacher", |_| {
        let app = Application::current().unwrap();
        // Tighten the escalation threshold, then breach past it.
        app.context().limits().set_hard_breach_threshold(3);
        let vm = jmp_vm::Vm::current().unwrap();
        for _ in 0..8 {
            let _ = vm.thread_builder().name("x").spawn(|_| {});
        }
        // The hook has scheduled us for the reaper; block until it stops us.
        let _ = jmp_vm::thread::sleep(Duration::from_secs(600));
        Ok(())
    });
    let app = rt.launch_as("bob", "Breacher", &[]).unwrap();
    let code = app.wait_for().unwrap();
    assert_eq!(code, 134, "hard-breach escalation reaps with code 134");
    assert!(rt.await_idle(Duration::from_secs(5)));
    rt.shutdown();
}
