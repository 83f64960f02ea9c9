//! Shell/terminal/appletviewer scenario tests — paper §6 end to end.

use std::time::Duration;

use jmp_core::MpRuntime;
use jmp_security::Policy;

use crate::{default_policy_text, install, publish_applet, spawn_login_session};

fn policy_with_users() -> Policy {
    let text = format!(
        "{}\n{}",
        default_policy_text(),
        r#"
        grant user "alice" {
            permission file "/home/alice" "read";
            permission file "/home/alice/-" "read,write,execute,delete";
        };
        grant user "bob" {
            permission file "/home/bob" "read";
            permission file "/home/bob/-" "read,write,execute,delete";
        };
        "#
    );
    Policy::parse(&text).expect("session policy parses")
}

fn session_runtime() -> MpRuntime {
    let rt = MpRuntime::builder()
        .policy(policy_with_users())
        .user("alice", "apw")
        .user("bob", "bpw")
        .build()
        .expect("runtime builds");
    install(&rt).expect("tools install");
    rt
}

/// Runs a scripted terminal session through `login` and returns the final
/// screen contents.
fn run_session_script(rt: &MpRuntime, lines: &[&str]) -> String {
    let (terminal, session) = spawn_login_session(rt).expect("session starts");
    for line in lines {
        terminal.type_line(line).expect("typing works");
    }
    terminal.type_eof();
    session.wait_for().expect("session ends");
    terminal.screen_text()
}

#[test]
fn login_shell_whoami_pwd() {
    let rt = session_runtime();
    let screen = run_session_script(&rt, &["alice", "apw", "whoami", "pwd", "quit"]);
    assert!(screen.contains("login: alice"));
    assert!(
        !screen.contains("apw"),
        "password must not echo: {screen:?}"
    );
    assert!(screen.contains("Welcome, alice."));
    assert!(screen.contains("alice@jmp:/home/alice$ "));
    assert!(screen.contains("\nalice\n"));
    assert!(screen.contains("\n/home/alice\n"));
    rt.shutdown();
}

#[test]
fn failed_login_reprompts() {
    let rt = session_runtime();
    let screen = run_session_script(&rt, &["alice", "WRONG", "alice", "apw", "quit"]);
    assert!(screen.contains("login incorrect"));
    assert!(screen.contains("Welcome, alice."));
    rt.shutdown();
}

#[test]
fn files_and_redirection() {
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "echo hello world > greeting.txt",
            "cat greeting.txt",
            "ls",
            "quit",
        ],
    );
    assert!(screen.contains("hello world"));
    assert!(screen.contains("greeting.txt"));
    // The file landed in alice's home, owned by alice.
    let alice = rt.users().lookup("alice").unwrap();
    assert_eq!(
        rt.vfs()
            .read("/home/alice/greeting.txt", alice.id())
            .unwrap(),
        b"hello world\n"
    );
    rt.shutdown();
}

#[test]
fn pipelines_connect_applications() {
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "echo one > f.txt",
            "echo two-match >> f.txt",
            "echo three-match >> f.txt",
            "cat f.txt | grep match | wc",
            "quit",
        ],
    );
    // grep keeps 2 lines; wc prints "2 2 <bytes>".
    assert!(
        screen.contains("\n2 2 "),
        "pipeline output missing: {screen:?}"
    );
    rt.shutdown();
}

#[test]
fn input_redirection_and_append() {
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "echo alpha > data.txt",
            "wc < data.txt",
            "quit",
        ],
    );
    assert!(screen.contains("\n1 1 6\n"), "{screen:?}");
    rt.shutdown();
}

#[test]
fn background_jobs_and_sequencing() {
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "sleep 300 &",
            "jobs",
            "echo done ; echo again",
            "quit",
        ],
    );
    assert!(screen.contains("[1] started"));
    assert!(screen.contains("sleep 300"));
    assert!(screen.contains("\ndone\n"));
    assert!(screen.contains("\nagain\n"));
    rt.shutdown();
}

#[test]
fn command_not_found() {
    let rt = session_runtime();
    let screen = run_session_script(&rt, &["alice", "apw", "frobnicate", "quit"]);
    assert!(screen.contains("frobnicate: command not found"));
    rt.shutdown();
}

#[test]
fn cd_and_relative_paths() {
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "mkdir projects",
            "cd projects",
            "pwd",
            "cd ..",
            "pwd",
            "cd /no/such/dir",
            "quit",
        ],
    );
    assert!(screen.contains("/home/alice/projects"));
    assert!(screen.contains("cd: "), "bad cd reports an error");
    rt.shutdown();
}

#[test]
fn user_isolation_at_the_shell() {
    // Alice cannot read bob's home; the error is FileNotFound (O/S hides
    // it — paper Feature 3), not a hang or a crash.
    let rt = session_runtime();
    let bob = rt.users().lookup("bob").unwrap();
    rt.vfs()
        .write("/home/bob/secret.txt", b"s3cr3t", bob.id())
        .unwrap();
    let screen = run_session_script(&rt, &["alice", "apw", "cat /home/bob/secret.txt", "quit"]);
    assert!(screen.contains("cat: "), "{screen:?}");
    assert!(!screen.contains("s3cr3t"));
    rt.shutdown();
}

#[test]
fn su_switches_user_for_child_shell() {
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "whoami",
            "su bob bpw",
            "whoami",
            "quit",   // ends bob's shell
            "whoami", // back in alice's shell? NOTE: su re-bound the su app only
            "quit",
        ],
    );
    assert!(screen.contains("now running as bob"));
    assert!(screen.contains("\nbob\n"));
    rt.shutdown();
}

#[test]
fn history_builtin_lists_terminal_history() {
    let rt = session_runtime();
    let screen = run_session_script(&rt, &["alice", "apw", "echo first", "history", "quit"]);
    assert!(screen.contains("echo first"));
    rt.shutdown();
}

#[test]
fn ps_and_kill() {
    let rt = session_runtime();
    let (terminal, session) = spawn_login_session(&rt).unwrap();
    terminal.type_line("alice").unwrap();
    terminal.type_line("apw").unwrap();
    terminal.type_line("sleep 60000 &").unwrap();
    terminal.type_line("ps").unwrap();
    // Wait for ps's row for the sleeper. The echoed command line
    // `sleep 60000 &` shows up first, before the sleeper is launched; only
    // a ps row ends with the application name.
    let found = jmp_awt::Toolkit::wait_until(Duration::from_secs(5), || {
        terminal
            .screen_text()
            .lines()
            .any(|line| line.ends_with(" sleep"))
    });
    assert!(
        found,
        "ps must list the sleeper: {}",
        terminal.screen_text()
    );
    let sleeper = rt
        .applications()
        .into_iter()
        .find(|a| a.name() == "sleep")
        .expect("sleeper is running");
    terminal
        .type_line(&format!("kill {}", sleeper.id().0))
        .unwrap();
    let gone = jmp_awt::Toolkit::wait_until(Duration::from_secs(5), || {
        rt.applications().iter().all(|a| a.name() != "sleep")
    });
    assert!(gone, "kill must stop the sleeper");
    terminal.type_line("quit").unwrap();
    terminal.type_eof();
    session.wait_for().unwrap();
    rt.shutdown();
}

#[test]
fn concurrent_sessions_for_two_users() {
    // The paper's core scenario: Alice and Bob, simultaneously, one VM.
    let rt = session_runtime();
    let (term_a, sess_a) = spawn_login_session(&rt).unwrap();
    let (term_b, sess_b) = spawn_login_session(&rt).unwrap();
    term_a.type_line("alice").unwrap();
    term_a.type_line("apw").unwrap();
    term_b.type_line("bob").unwrap();
    term_b.type_line("bpw").unwrap();
    term_a.type_line("echo from-alice > a.txt").unwrap();
    term_b.type_line("echo from-bob > b.txt").unwrap();
    term_a.type_line("whoami").unwrap();
    term_b.type_line("whoami").unwrap();
    for t in [&term_a, &term_b] {
        t.type_line("quit").unwrap();
        t.type_eof();
    }
    sess_a.wait_for().unwrap();
    sess_b.wait_for().unwrap();

    let alice = rt.users().lookup("alice").unwrap();
    let bob = rt.users().lookup("bob").unwrap();
    assert_eq!(
        rt.vfs().read("/home/alice/a.txt", alice.id()).unwrap(),
        b"from-alice\n"
    );
    assert_eq!(
        rt.vfs().read("/home/bob/b.txt", bob.id()).unwrap(),
        b"from-bob\n"
    );
    assert!(term_a.screen_text().contains("\nalice\n"));
    assert!(term_b.screen_text().contains("\nbob\n"));
    assert!(!term_a.screen_text().contains("from-bob"));
    rt.shutdown();
}

#[test]
fn env_chmod_chown_hostname() {
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "hostname",
            "env",
            "touch visible.txt",
            "chmod 600 visible.txt",
            "ls -l visible.txt",
            "chown bob visible.txt",
            "chown nosuchuser visible.txt",
            "quit",
        ],
    );
    assert!(screen.contains("jmp-mp"), "hostname prints the VM name");
    assert!(
        screen.contains("os.name=jmpos"),
        "env lists inherited properties"
    );
    assert!(screen.contains("-rw----"), "chmod 600 reflected in ls -l");
    assert!(screen.contains("chown: unknown user"), "bad chown reports");
    // The successful chown actually transferred ownership.
    let bob = rt.users().lookup("bob").unwrap();
    let info = rt
        .vfs()
        .stat("/home/alice/visible.txt", jmp_security::UserId(0))
        .unwrap();
    assert_eq!(info.owner, bob.id());
    rt.shutdown();
}

#[test]
fn top_vmstat_audit_for_the_system_account() {
    // The default policy grants `system` readMetrics/readAuditLog, so a
    // shell running as the bootstrap account can use all three builtins.
    let rt = session_runtime();
    let (terminal, session) = crate::spawn_session(&rt, "shell", &[]).unwrap();
    terminal.type_line("top").unwrap();
    terminal.type_line("vmstat").unwrap();
    terminal.type_line("audit").unwrap();
    terminal.type_line("quit").unwrap();
    terminal.type_eof();
    session.wait_for().unwrap();
    let screen = terminal.screen_text();
    assert!(
        screen.contains("CHECKS"),
        "top prints its header: {screen:?}"
    );
    assert!(screen.contains("shell"), "top lists the shell itself");
    assert!(
        screen.contains("security.checks"),
        "vmstat prints the rollup counters: {screen:?}"
    );
    assert!(screen.contains("events.published"));
    assert!(
        screen.contains("access.cache.hits") && screen.contains("access.cache.misses"),
        "vmstat surfaces the decision-cache hit/miss counters: {screen:?}"
    );
    assert!(screen.contains("denial(s)"), "audit prints a summary line");
    rt.shutdown();
}

#[test]
fn vmstat_demands_and_policyinfer_for_the_system_account() {
    // An ordinary session generates demand traffic (granted file accesses
    // plus one denied probe), then a system shell reads the observatory:
    // vmstat's demands counters and section, and the policyinfer builtin.
    let rt = session_runtime();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "touch /home/alice/notes.txt",
            "cat /home/alice/notes.txt",
            "cat /home/bob/private.txt",
            "quit",
        ],
    );
    assert!(screen.contains("Welcome, alice."));

    let (terminal, session) = crate::spawn_session(&rt, "shell", &[]).unwrap();
    terminal.type_line("vmstat").unwrap();
    terminal.type_line("policyinfer").unwrap();
    terminal.type_line("policyinfer diff").unwrap();
    terminal.type_line("quit").unwrap();
    terminal.type_eof();
    session.wait_for().unwrap();
    let screen = terminal.screen_text();
    assert!(
        screen.contains("demands.recorded") && screen.contains("demands.unique"),
        "vmstat surfaces the ledger counters: {screen:?}"
    );
    assert!(
        screen.contains("demands:"),
        "vmstat prints the hottest demand rows: {screen:?}"
    );
    assert!(
        screen.contains("demand row(s)"),
        "policyinfer prints the ledger report: {screen:?}"
    );
    assert!(
        screen.contains("unexercised"),
        "policyinfer diff prints the over-grant summary: {screen:?}"
    );
    // The counters the screen showed are real: the rollup agrees the ledger
    // recorded the session's demands.
    let rollup = rt.vm().obs().rollup();
    let recorded = rollup.counters["demands.recorded"];
    let unique = rollup.counters["demands.unique"];
    assert!(recorded > 0, "session traffic was recorded");
    assert!(
        (1..=recorded).contains(&unique),
        "distinct rows bounded by observations: unique={unique} recorded={recorded}"
    );
    assert_eq!(rollup.counters["demands.dropped"], 0);
    // The denied probe is in the ledger for inference to see.
    let denied: u64 = rt
        .vm()
        .obs()
        .demands()
        .rows()
        .iter()
        .map(|row| row.denied)
        .sum();
    assert!(denied > 0, "alice's denied probe landed in the ledger");
    rt.shutdown();
}

#[test]
fn top_and_audit_denied_for_ordinary_users_and_audited() {
    // Alice holds neither readMetrics nor readAuditLog: both builtins
    // refuse (without killing the session), and the refusals themselves
    // land in the audit trail.
    let rt = session_runtime();
    let screen = run_session_script(&rt, &["alice", "apw", "top", "audit", "whoami", "quit"]);
    assert!(
        screen.contains("top: "),
        "top reports the denial: {screen:?}"
    );
    assert!(screen.contains("audit: "), "audit reports the denial");
    assert!(
        screen.contains("\nalice\n"),
        "the session survives both denials"
    );
    let denials = rt.vm().obs().audit_query(Some("alice"), None);
    assert!(
        denials.iter().any(|r| r.permission.contains("readMetrics")),
        "alice's denied `top` is audited: {denials:?}"
    );
    assert!(
        denials
            .iter()
            .any(|r| r.permission.contains("readAuditLog")),
        "alice's denied `audit` is audited: {denials:?}"
    );
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Appletviewer (§6.3)
// ---------------------------------------------------------------------------

const HELLO_APPLET: &str = r#"
    class HelloApplet
    method main/0 locals=0
        push_str "hello from mobile code"
        native println/1
        pop
        return
"#;

const EVIL_APPLET: &str = r#"
    class EvilApplet
    method main/0 locals=0
        push_str "/home/alice/secret.txt"
        native read_file/1
        native println/1
        pop
        return
"#;

const PHONE_HOME_APPLET: &str = r#"
    class PhoneHome
    method main/0 locals=0
        push_str "applets.example.com"
        native connect/1
        pop
        push_str "other.example.com"
        native connect/1
        pop
        return
"#;

#[test]
fn applet_runs_in_sandbox() {
    let rt = session_runtime();
    publish_applet(&rt, "applets.example.com", "/hello.jbc", HELLO_APPLET).unwrap();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "appletviewer http://applets.example.com/hello.jbc",
            "quit",
        ],
    );
    assert!(screen.contains("hello from mobile code"), "{screen:?}");
    rt.shutdown();
}

#[test]
fn applet_cannot_read_user_files_even_when_run_by_owner() {
    // Paper §5.3: "would not allow applets to access files belonging to the
    // user running the web browser."
    let rt = session_runtime();
    let alice = rt.users().lookup("alice").unwrap();
    rt.vfs()
        .write("/home/alice/secret.txt", b"private", alice.id())
        .unwrap();
    publish_applet(&rt, "applets.example.com", "/evil.jbc", EVIL_APPLET).unwrap();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "appletviewer http://applets.example.com/evil.jbc",
            "quit",
        ],
    );
    assert!(
        screen.contains("applet failed") && screen.contains("security"),
        "the applet must die with a SecurityException: {screen:?}"
    );
    assert!(!screen.contains("private"));
    rt.shutdown();
}

#[test]
fn applet_may_connect_back_to_origin_only() {
    let rt = session_runtime();
    let network = crate::SimNetwork::of(&rt).unwrap();
    network.publish("other.example.com", "/x", b"exists".to_vec());
    publish_applet(&rt, "applets.example.com", "/phone.jbc", PHONE_HOME_APPLET).unwrap();
    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            "appletviewer http://applets.example.com/phone.jbc",
            "quit",
        ],
    );
    // First connect (origin) succeeds; second (foreign host) raises a
    // SecurityException that kills the applet.
    assert!(
        screen.contains("applet failed") && screen.contains("security"),
        "{screen:?}"
    );
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// The GUI editor (Alice/Bob example)
// ---------------------------------------------------------------------------

#[test]
fn editor_saves_as_the_right_user_with_per_app_dispatch() {
    use jmp_awt::DispatchMode;
    let rt = MpRuntime::builder()
        .policy(policy_with_users())
        .user("alice", "apw")
        .user("bob", "bpw")
        .gui(DispatchMode::PerApplication)
        .build()
        .unwrap();
    install(&rt).unwrap();
    let display = rt.display().unwrap().clone();
    let toolkit = rt.toolkit().unwrap().clone();

    // Alice and Bob each run the same editor on their own file.
    let alice_app = rt
        .launch_as("alice", "edit", &["/home/alice/doc.txt"])
        .unwrap();
    let bob_app = rt.launch_as("bob", "edit", &["/home/bob/doc.txt"]).unwrap();
    // `edit_main` registers the Save listener only after its window
    // appears. Wait until each editor's main has returned — its dispatcher
    // is then its only live thread — so no injected click beats a listener.
    let main_returned = |app: &jmp_core::Application| {
        let threads = app.threads();
        threads.len() == 1 && threads[0].name().starts_with("awt-dispatch")
    };
    assert!(jmp_awt::Toolkit::wait_until(Duration::from_secs(5), || {
        toolkit.window_count() == 2 && main_returned(&alice_app) && main_returned(&bob_app)
    }));

    let win_of = |app: &jmp_core::Application| {
        let ids = toolkit.windows_of_app(app.id().0);
        assert_eq!(ids.len(), 1);
        toolkit.window(ids[0]).unwrap()
    };
    let alice_win = win_of(&alice_app);
    let bob_win = win_of(&bob_app);

    // Type different text into each editor and hit Save File. Components
    // were added in order: text field (1), Save File (2), Quit (3).
    let field = jmp_awt::ComponentId(1);
    display
        .inject_text(alice_win.id(), field, "alice writes")
        .unwrap();
    display
        .inject_text(bob_win.id(), field, "bob writes")
        .unwrap();
    // Save = menu item 2.
    display
        .inject_action(alice_win.id(), jmp_awt::ComponentId(2))
        .unwrap();
    display
        .inject_action(bob_win.id(), jmp_awt::ComponentId(2))
        .unwrap();

    let alice = rt.users().lookup("alice").unwrap();
    let bob = rt.users().lookup("bob").unwrap();
    assert!(jmp_awt::Toolkit::wait_until(Duration::from_secs(5), || {
        rt.vfs().exists("/home/alice/doc.txt", alice.id())
            && rt.vfs().exists("/home/bob/doc.txt", bob.id())
    }));
    assert_eq!(
        rt.vfs().read("/home/alice/doc.txt", alice.id()).unwrap(),
        b"alice writes"
    );
    assert_eq!(
        rt.vfs().read("/home/bob/doc.txt", bob.id()).unwrap(),
        b"bob writes"
    );
    // Each file is owned by its author — the saves ran as the right user.
    assert_eq!(
        rt.vfs()
            .stat("/home/alice/doc.txt", alice.id())
            .unwrap()
            .owner,
        alice.id()
    );
    assert_eq!(
        rt.vfs().stat("/home/bob/doc.txt", bob.id()).unwrap().owner,
        bob.id()
    );

    // Quit both editors via the menu (item 3).
    display
        .inject_action(alice_win.id(), jmp_awt::ComponentId(3))
        .unwrap();
    display
        .inject_action(bob_win.id(), jmp_awt::ComponentId(3))
        .unwrap();
    alice_app.wait_for().unwrap();
    bob_app.wait_for().unwrap();
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// migrate: checkpoint/restore from the shell
// ---------------------------------------------------------------------------

#[test]
fn migrate_checkpoints_an_image_app_to_a_file_and_restores_it() {
    // Alice gets the operator privilege for this session (the default
    // policy reserves `checkpointApplication` for the system account).
    let text = format!(
        "{}\n{}",
        default_policy_text(),
        r#"
        grant user "alice" {
            permission file "/home/alice" "read";
            permission file "/home/alice/-" "read,write,execute,delete";
            permission runtime "checkpointApplication";
            permission runtime "readMetrics";
        };
        "#
    );
    let rt = MpRuntime::builder()
        .policy(Policy::parse(&text).expect("policy parses"))
        .user("alice", "apw")
        .build()
        .expect("runtime builds");
    install(&rt).expect("tools install");

    // A long-running interpreted image: the checkpoint lands mid-loop.
    let image = jmp_vm::interp::assemble(
        "class Spinner\n\
         method main/0 locals=2\n\
         push_int 0\n  store 0\n  push_int 0\n  store 1\n\
         loop:\n\
         load 0\n  load 1\n  add\n  store 0\n\
         load 1\n  push_int 1\n  add\n  store 1\n\
         load 1\n  push_int 50000000\n  lt\n  jump_if_true loop\n\
         load 0\n  return_value\n",
    )
    .expect("assembles");
    let app = rt.launch_image("alice", image, &[]).expect("launches");
    let id = app.id();

    let screen = run_session_script(
        &rt,
        &[
            "alice",
            "apw",
            &format!("migrate {} snap.img", id.0),
            "migrate restore snap.img",
            "ps -l",
            "quit",
        ],
    );
    assert!(
        screen.contains(&format!("checkpointed app {} to snap.img", id.0)),
        "checkpoint half works: {screen:?}"
    );
    assert!(
        screen.contains(&format!("restored app {} (Spinner) as alice", id.0)),
        "restore half works (id preserved): {screen:?}"
    );
    assert!(
        screen.contains("MEMORY"),
        "ps -l shows the memory column: {screen:?}"
    );
    // The snapshot file landed in alice's home, owned by alice.
    let alice = rt.users().lookup("alice").unwrap();
    assert!(rt.vfs().exists("/home/alice/snap.img", alice.id()));
    // The restored application is running again under its old identity.
    let restored = rt.application(id).expect("restored app is registered");
    assert_eq!(restored.user().name(), "alice");
    restored.stop(0).unwrap();
    rt.shutdown();
}

#[test]
fn migrate_is_denied_without_the_checkpoint_permission() {
    let rt = session_runtime();
    let screen = run_session_script(&rt, &["alice", "apw", "migrate 1 snap.img", "quit"]);
    assert!(
        screen.contains("migrate: security exception"),
        "the denial is printed, not fatal: {screen:?}"
    );
    rt.shutdown();
}
