//! One client of the closed loop: generates each operation from its seed,
//! drives the program through its public API, checks every output, and —
//! in the traced run — replays the operation's inputs through each layer's
//! entry points.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jmp_awt::{ComponentId, WindowId};
use jmp_core::{files, jsystem, login, Application, MpRuntime};
use jmp_security::{
    CodeSource, FileActions, Permission, PermissionCollection, PropertyActions, SocketActions,
};
use jmp_shell::SimNetwork;
use jmp_vm::interp::{ClassImage, Interpreter, NativeHost, Value};
use jmp_vm::{ClassDef, VmError};

use crate::applets::{self, Kernel, KERNELS};
use crate::harness::{null_in, null_out, Deadlines, NopClock, OpOutput, Probe, STDERR, STDOUT};
use crate::sys::Rng;
use crate::trace::{Spans, Timed, NO_PARENT};
use crate::world::{self, account, notes_path, password, user_policy, Workload, World, ACCOUNTS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The program returned an error or an application faulted.
    Error,
    /// A wait on the program outlived its deadline.
    Deadline,
    /// The program produced a wrong output.
    Wrong,
}

/// Per-layer quantities the traced run counts over measured operations
/// (the timings themselves are spans).
#[derive(Default)]
pub struct Tally {
    pub launches: u64,
    pub awt_events: u64,
    pub dispatch_ns: Vec<u64>,
    pub spawn_join_ns: Vec<u64>,
    pub interp_ns: u64,
    pub interp_insns: u64,
    pub interp_dispatches: u64,
    pub interp_natives: u64,
    pub sum_ns: u64,
    pub sum_insns: u64,
    pub pipe_bytes: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.launches += other.launches;
        self.awt_events += other.awt_events;
        self.dispatch_ns.extend(other.dispatch_ns);
        self.spawn_join_ns.extend(other.spawn_join_ns);
        self.interp_ns += other.interp_ns;
        self.interp_insns += other.interp_insns;
        self.interp_dispatches += other.interp_dispatches;
        self.interp_natives += other.interp_natives;
        self.sum_ns += other.sum_ns;
        self.sum_insns += other.sum_insns;
        self.pipe_bytes += other.pipe_bytes;
    }
}

pub struct OpRecord {
    pub latency: Duration,
    pub failure: Option<Failure>,
    /// The measured round the op started in; `None` during warm-up.
    pub round: Option<usize>,
}

/// Everything a client hands back when its loop ends.
pub struct ClientOutcome {
    pub records: Vec<OpRecord>,
    pub spans: Vec<crate::trace::Span>,
    /// Measured, successful operations (the traced run's span filter).
    pub measured: HashSet<u64>,
    pub denials: u64,
    pub mismatches: u64,
    pub tally: Tally,
    pub diagnostics: Vec<String>,
}

/// Operation ids are unique across clients: client `c` uses `c, c+2, ...`.
pub const CLIENTS: usize = 2;

pub struct Client<'w> {
    world: &'w World,
    deadlines: &'w Deadlines,
    id: usize,
    rng: Rng,
    spans: Spans,
    measured_ops: HashSet<u64>,
    probe: Option<Probe>,
    nops: Option<Arc<NopClock>>,
    /// Model of each of this client's accounts' home directory listing.
    homes: HashMap<usize, BTreeSet<String>>,
    hostile_published: HashSet<usize>,
    /// Replayed checks already made since the last admin write, keyed by
    /// user, frame and demand; a check not in the set is cold.
    seen_checks: (u64, HashSet<String>),
    next_op: u64,
    new_accounts: u64,
    denials_issued: u64,
    replay_mismatches: u64,
    tally: Tally,
    diagnostics: Vec<String>,
}

impl<'w> Client<'w> {
    pub fn new(
        world: &'w World,
        deadlines: &'w Deadlines,
        id: usize,
        seed: u64,
        spans: Spans,
        nops: Option<Arc<NopClock>>,
    ) -> Client<'w> {
        let probe = spans
            .on()
            .then(|| Probe::launch(&world.rt, id, &account(id)));
        Client {
            world,
            deadlines,
            id,
            rng: Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (id as u64 + 1)),
            spans,
            measured_ops: HashSet::new(),
            probe,
            nops,
            homes: HashMap::new(),
            hostile_published: HashSet::new(),
            seen_checks: (0, HashSet::new()),
            next_op: id as u64,
            new_accounts: 0,
            denials_issued: 0,
            replay_mismatches: 0,
            tally: Tally::default(),
            diagnostics: Vec::new(),
        }
    }

    pub fn finish(self, records: Vec<OpRecord>) -> ClientOutcome {
        if let Some(probe) = self.probe {
            probe.stop();
        }
        ClientOutcome {
            records,
            spans: self.spans.buf,
            measured: self.measured_ops,
            denials: self.denials_issued,
            mismatches: self.replay_mismatches,
            tally: self.tally,
            diagnostics: self.diagnostics,
        }
    }

    fn rt(&self) -> &'w MpRuntime {
        &self.world.rt
    }

    /// This client's half of the accounts: no two clients ever run the same
    /// user at once, so each user's files evolve deterministically.
    fn draw_user(&mut self) -> usize {
        CLIENTS * self.rng.below((ACCOUNTS / CLIENTS) as u64) as usize + self.id
    }

    fn note(&mut self, op: u64, what: String) {
        if self.diagnostics.len() < 8 {
            self.diagnostics.push(format!("op {op}: {what}"));
        }
    }

    /// Runs one operation; `round` places it in the measured window
    /// (warm-up operations count as attempts and failures only).
    pub fn run_op(&mut self, round: Option<usize>) -> OpRecord {
        let measured = round.is_some();
        let op = self.next_op;
        self.next_op += CLIENTS as u64;
        let (latency, failure) = match self.world.workload {
            Workload::Terminal => self.terminal_op(op, measured),
            Workload::AppletGui => self.gui_op(op, measured),
            Workload::AppletCompute => self.compute_op(op, measured),
        };
        if measured && failure.is_none() && self.spans.on() {
            self.measured_ops.insert(op);
        }
        OpRecord {
            latency,
            failure,
            round,
        }
    }

    /// Waits for `app` under a failure deadline, recording the reap span
    /// (the app's exit signal to `wait_for` returning) under `parent`.
    fn wait_app(&mut self, app: &Application, parent: u32, op: u64) -> Option<i32> {
        let deadline = World::deadline();
        let code = self.deadlines.wait_for(app, deadline);
        let returned = Instant::now();
        if let (Some(exits), Some(_)) = (&self.world.exits, code) {
            if let Some(exited) = exits.take(app.id().0, deadline) {
                self.spans
                    .add("core.reap", exited.min(returned), returned, parent, op);
            }
        }
        code
    }

    fn audit_before(&self) -> u64 {
        self.rt().vm().obs().audit().total()
    }

    /// Audited denials of `permission_part` for `user` since `since`.
    fn audited(&self, user: &str, permission_part: &str, since: u64) -> usize {
        jmp_core::obs::audit_records(self.rt(), Some(user), None)
            .expect("host may read the audit log")
            .iter()
            .filter(|r| r.seq >= since && r.permission.contains(permission_part))
            .count()
    }

    // -- terminal --------------------------------------------------------------

    fn home_listing(&mut self, user: usize) -> &mut BTreeSet<String> {
        let rt = &self.world.rt;
        let system = self.world.system_uid;
        self.homes.entry(user).or_insert_with(|| {
            rt.vfs()
                .list_dir(&format!("/home/{}", account(user)), system)
                .expect("list home")
                .into_iter()
                .map(|e| e.name)
                .collect()
        })
    }

    fn terminal_op(&mut self, op: u64, measured: bool) -> (Duration, Option<Failure>) {
        let ui = self.draw_user();
        // About one session in ten is preceded by an administrator
        // provisioning a new account, which invalidates the lazy grant store
        // and flushes the decision cache under the other client's feet.
        if self.rng.chance(1, 10) {
            let name = format!("n{}x{:06}", self.id, self.new_accounts);
            self.new_accounts += 1;
            let span = self.spans.open("admin.provision", NO_PARENT, op);
            let provisioned = self.rt().provision_user_policy(&name, &user_policy(&name));
            self.spans.close(span);
            self.world
                .provisions
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if let Err(err) = provisioned {
                self.note(op, format!("provision failed: {err}"));
                return (Duration::ZERO, Some(Failure::Error));
            }
        }
        let listing = self.home_listing(ui).clone();
        let session = Session::generate(&mut self.rng, ui, op, &listing, &self.world.notes);
        let audit_since = self.audit_before();

        let t0 = Instant::now();
        let root = self.spans.open("op", NO_PARENT, op);
        let span = self.spans.open("core.exec", root, op);
        let launched = jmp_shell::spawn_login_session(self.rt());
        self.spans.close(span);
        let (terminal, app) = match launched {
            Ok(pair) => pair,
            Err(err) => {
                self.spans.close(root);
                self.note(op, format!("login session failed to launch: {err}"));
                return (t0.elapsed(), Some(Failure::Error));
            }
        };
        let span = self.spans.open("shell.type", root, op);
        for line in &session.typed {
            // The keyboard accepts typed-ahead input until the session
            // reads it; a closed keyboard means the session died.
            let _ = terminal.type_line(line);
        }
        terminal.type_eof();
        self.spans.close(span);
        let wait = self.spans.open("wait.session", root, op);
        let code = self.wait_app(&app, wait, op);
        self.spans.close(wait);
        self.spans.close(root);
        let latency = t0.elapsed();

        let screen = terminal.screen_text();
        let failure = if code.is_none() {
            Some(Failure::Deadline)
        } else if screen.contains("Exception in thread") {
            Some(Failure::Error)
        } else if let Err(why) = session.check(&screen) {
            self.note(op, why);
            Some(Failure::Wrong)
        } else if let Err(why) = self.check_files(&session, audit_since) {
            self.note(op, why);
            Some(Failure::Wrong)
        } else {
            None
        };
        // A failed session may have stopped before its refused read: count
        // the refusals it made.
        self.denials_issued += match (&session.denied_path, failure) {
            (Some(victim), Some(_)) => self.audited(&account(ui), victim, audit_since) as u64,
            (denied, None) => u64::from(denied.is_some()),
            (None, Some(_)) => 0,
        };
        match failure {
            None => {
                self.home_listing(ui)
                    .extend(session.new_entries.iter().cloned());
                if measured && self.spans.on() {
                    self.replay_terminal(op, wait, &session);
                }
            }
            Some(kind) => {
                if kind == Failure::Error {
                    self.note(op, format!("session error: {}", last_lines(&screen)));
                }
                // Re-read the listing: a failed session may have stopped
                // anywhere.
                self.homes.remove(&ui);
            }
        }
        (latency, failure)
    }

    /// The session's effects outside the screen: the redirected file holds
    /// what was echoed into it, and the refused read was audited once.
    fn check_files(&self, session: &Session, audit_since: u64) -> Result<(), String> {
        if let Some((path, content)) = session.writes.last() {
            let stored = self
                .rt()
                .vfs()
                .read(path, self.world.system_uid)
                .map_err(|e| format!("reading back {path}: {e}"))?;
            if stored != content.as_bytes() {
                return Err(format!(
                    "{path} holds {:?}, expected {content:?}",
                    String::from_utf8_lossy(&stored)
                ));
            }
        }
        if let Some(victim) = &session.denied_path {
            let n = self.audited(&account(session.user), victim, audit_since);
            if n != 1 {
                return Err(format!("denied read of {victim} audited {n} times"));
            }
        }
        Ok(())
    }

    fn replay_terminal(&mut self, op: u64, wait: u32, session: &Session) {
        let rt = self.rt().clone();
        let user = account(session.user);
        let uid = rt.users().lookup(&user).expect("account").id();

        // Login and the session's permission demands, from an application
        // context running as the session's user.
        let labels = self.label_checks(&user, "shell", &session.demands);
        let vm = rt.vm().clone();
        let demands = session.demands.clone();
        let (login_user, pw) = (user.clone(), password(session.user));
        let (batch, mismatches) = self.probe().run(move || {
            let (timed, outcome) = Timed::run("core.login", || login::login(&login_user, &pw));
            let mut batch = vec![timed];
            let mut mismatches = u64::from(outcome.is_err());
            for ((perm, expect_denied), cold) in demands.iter().zip(labels) {
                let (t, result) = check(&vm, perm, cold);
                mismatches += u64::from(result.is_err() != *expect_denied);
                batch.push(t);
            }
            (batch, mismatches)
        });
        self.replay_mismatches += mismatches;
        self.denials_issued += u64::from(session.denied_path.is_some());
        for timed in &batch {
            self.spans.add_timed(timed, wait, op);
        }

        for line in &session.shell_lines {
            let (timed, parsed) = Timed::run("shell.parse", || jmp_shell::parser::parse_line(line));
            self.replay_mismatches += u64::from(parsed.is_err());
            self.spans.add_timed(&timed, wait, op);
        }
        for path in &session.reads {
            let (timed, read) = Timed::run("vfs.read", || rt.vfs().read(path, uid));
            self.replay_mismatches += u64::from(read.is_err());
            self.spans.add_timed(&timed, wait, op);
        }
        for (path, content) in &session.writes {
            let (timed, written) = Timed::run("vfs.write", || {
                rt.vfs().write(path, content.as_bytes(), uid)
            });
            self.replay_mismatches += u64::from(written.is_err());
            self.spans.add_timed(&timed, wait, op);
        }
        for bytes in &session.pipes {
            let (timed, ok) = Timed::run("vm.io.pipe", || pipe_through(bytes));
            self.replay_mismatches += u64::from(!ok);
            self.tally.pipe_bytes += bytes.len() as u64;
            self.spans.add_timed(&timed, wait, op);
        }
        for _ in &session.launches {
            self.replay_launch(&user, wait, op);
        }
        self.tally.launches += session.launches.len() as u64;
    }

    fn probe(&self) -> &Probe {
        self.probe.as_ref().expect("traced runs have a probe")
    }

    /// Cold/warm labels for replayed demands: cold when this probe has not
    /// made the same check since the last admin write flushed the caches.
    fn label_checks(
        &mut self,
        user: &str,
        frame: &str,
        demands: &[(Permission, bool)],
    ) -> Vec<bool> {
        let generation = self
            .world
            .provisions
            .load(std::sync::atomic::Ordering::SeqCst);
        if self.seen_checks.0 != generation {
            self.seen_checks = (generation, HashSet::new());
        }
        demands
            .iter()
            .map(|(perm, _)| self.seen_checks.1.insert(format!("{user}|{frame}|{perm}")))
            .collect()
    }

    /// One launch and reap through the host API, of a program that returns
    /// at once: `core.exec` (with the VM thread spawn it contains) and
    /// `core.reap` (its `main` returning to `wait_for` returning).
    fn replay_launch(&mut self, user: &str, parent: u32, op: u64) {
        let rt = self.rt().clone();
        let nops = Arc::clone(
            self.nops
                .as_ref()
                .expect("traced runs install the nop program"),
        );
        let start = Instant::now();
        let launched = rt.launch_with(
            user,
            crate::harness::NOP_CLASS,
            &[],
            Some(null_in()),
            Some(null_out()),
            Some(null_out()),
        );
        let end = Instant::now();
        let exec = self.spans.add("core.exec", start, end, parent, op);
        let Ok(app) = launched else {
            self.replay_mismatches += 1;
            return;
        };
        // The main-thread spawn inside exec, replayed on its own into the
        // probe's group and context, the way exec spawns it.
        let probe_app = self.probe().app().clone();
        let builder = rt
            .vm()
            .thread_builder()
            .name("jmpbench-spawn")
            .group(probe_app.group().clone())
            .app_context(Arc::clone(probe_app.context()));
        let (spawn, join, ok) = spawn_and_join(builder);
        self.replay_mismatches += u64::from(!ok);
        self.tally.spawn_join_ns.push(nanos(&spawn) + nanos(&join));
        self.spans.add_timed(&spawn, exec, op);
        self.spans.add_timed(&join, parent, op);
        match self.deadlines.wait_for(&app, World::deadline()) {
            Some(0) => {
                let returned = Instant::now();
                match nops.take(app.id().0) {
                    Some(done) => {
                        self.spans.add("core.reap", done, returned, parent, op);
                    }
                    None => self.replay_mismatches += 1,
                }
            }
            _ => self.replay_mismatches += 1,
        }
    }

    // -- applets ---------------------------------------------------------------

    fn gui_op(&mut self, op: u64, measured: bool) -> (Duration, Option<Failure>) {
        let ui = self.draw_user();
        let user = account(ui);
        let hostile = self.rng.chance(1, 5);
        let (url, applet) = if hostile {
            if self.hostile_published.insert(ui) {
                applets::publish_hostile(self.rt(), &user);
            }
            (applets::hostile_url(&user), None)
        } else {
            let applet = self.rng.pick(&self.world.gui_catalogue).clone();
            (applet.url.clone(), Some(applet))
        };
        let buttons = applet.as_ref().map_or(1, |a| a.buttons);
        let clicks: Vec<usize> = (0..self.rng.range(1, 5))
            .map(|_| self.rng.below(buttons as u64) as usize)
            .collect();
        let audit_since = self.audit_before();
        let output = OpOutput::new();
        let display = self.rt().display().expect("GUI runtime").clone();

        let t0 = Instant::now();
        let root = self.spans.open("op", NO_PARENT, op);
        let span = self.spans.open("core.exec", root, op);
        let launched = self.rt().launch_with(
            &user,
            "appletviewer",
            &[url.as_str()],
            Some(null_in()),
            Some(output.stream(STDOUT)),
            Some(output.stream(STDERR)),
        );
        self.spans.close(span);
        let app = match launched {
            Ok(app) => app,
            Err(err) => {
                self.spans.close(root);
                self.note(op, format!("appletviewer failed to launch: {err}"));
                return (t0.elapsed(), Some(Failure::Error));
            }
        };
        let deadline = World::deadline();
        let ready_span = self.spans.open("wait.ready", root, op);
        let ready = output.next_line(deadline);
        self.spans.close(ready_span);
        let mut failure = None;
        let mut click_spans = Vec::new();
        let mut clicked = Vec::new();
        let layout = match &ready {
            Some((STDOUT, line)) => parse_ready(line, buttons),
            _ => None,
        };
        match layout {
            None => {
                failure = Some(if ready.is_none() {
                    Failure::Deadline
                } else {
                    Failure::Error
                });
                self.note(op, format!("applet not ready: {ready:?}"));
            }
            Some((window, comps)) => {
                for &button in &clicks {
                    let comp = comps[button];
                    clicked.push(comp);
                    let span = self.spans.open("awt.click", root, op);
                    let injected = display.inject_action(WindowId(window), ComponentId(comp));
                    let line = output.next_line(deadline);
                    self.spans.close(span);
                    click_spans.push(span);
                    let good = injected.is_ok()
                        && match (&applet, &line) {
                            (Some(a), Some((STDOUT, text))) => *text == a.click_line(comp),
                            (None, Some((STDERR, text))) => {
                                text.starts_with("applet callback failed:")
                                    && text.contains(&notes_path(&user))
                            }
                            _ => false,
                        };
                    if !good {
                        failure = Some(if line.is_none() {
                            Failure::Deadline
                        } else {
                            Failure::Wrong
                        });
                        self.note(op, format!("click on {comp}: {line:?}"));
                        break;
                    }
                }
                let _ = display.inject_close(WindowId(window));
            }
        }
        if failure.is_some() {
            let _ = app.stop(1);
        }
        let wait = self.spans.open("wait.exit", root, op);
        let code = self.wait_app(&app, wait, op);
        self.spans.close(wait);
        self.spans.close(root);
        let latency = t0.elapsed();

        if failure.is_none() {
            let rest = output.rest();
            failure = if code != Some(0) {
                Some(Failure::Deadline)
            } else if !rest.is_empty() {
                self.note(op, format!("unexpected output {rest:?}"));
                Some(Failure::Wrong)
            } else if hostile
                && self.audited(&user, &notes_path(&user), audit_since) != clicks.len()
            {
                self.note(op, "hostile reads not all audited".into());
                Some(Failure::Wrong)
            } else {
                None
            };
        }
        // A failed op may have stopped before some of its hostile clicks.
        self.denials_issued += match (hostile, failure) {
            (false, _) => 0,
            (true, None) => clicks.len() as u64,
            (true, Some(_)) => self.audited(&user, &notes_path(&user), audit_since) as u64,
        };
        if let Some(log) = &self.world.dispatch {
            let latencies = log.take(app.id().0);
            if measured && failure.is_none() {
                self.tally.awt_events += latencies.len() as u64;
                self.tally.dispatch_ns.extend(latencies);
            }
        }
        if failure.is_none() && measured && self.spans.on() {
            let plan = AppletReplay {
                url,
                user,
                gui: Some(GuiReplay {
                    clicks: clicked,
                    hostile,
                }),
                kernel: None,
            };
            self.replay_applet(op, plan, ready_span, &click_spans);
            self.tally.launches += 1;
        }
        (latency, failure)
    }

    fn compute_op(&mut self, op: u64, measured: bool) -> (Duration, Option<Failure>) {
        let ui = self.draw_user();
        let user = account(ui);
        let kernel = *self.rng.pick(&KERNELS);
        let n = kernel.size(&mut self.rng);
        let url = kernel.url();
        let n_arg = n.to_string();
        let output = OpOutput::new();

        let t0 = Instant::now();
        let root = self.spans.open("op", NO_PARENT, op);
        let span = self.spans.open("core.exec", root, op);
        let launched = self.rt().launch_with(
            &user,
            "appletviewer",
            &[url.as_str(), n_arg.as_str()],
            Some(null_in()),
            Some(output.stream(STDOUT)),
            Some(output.stream(STDERR)),
        );
        self.spans.close(span);
        let app = match launched {
            Ok(app) => app,
            Err(err) => {
                self.spans.close(root);
                self.note(op, format!("appletviewer failed to launch: {err}"));
                return (t0.elapsed(), Some(Failure::Error));
            }
        };
        let wait = self.spans.open("wait.exit", root, op);
        let code = self.wait_app(&app, wait, op);
        self.spans.close(wait);
        self.spans.close(root);
        let latency = t0.elapsed();

        let rest = output.rest();
        let expected = vec![(STDOUT, format!("applet returned: {}", kernel.expected(n)))];
        let failure = if code.is_none() {
            Some(Failure::Deadline)
        } else if rest == expected {
            None
        } else if rest.iter().any(|(s, _)| *s == STDERR) {
            self.note(op, format!("{} {n}: {rest:?}", kernel.name()));
            Some(Failure::Error)
        } else {
            self.note(op, format!("{} {n}: {rest:?}", kernel.name()));
            Some(Failure::Wrong)
        };
        if failure.is_none() && measured && self.spans.on() {
            let plan = AppletReplay {
                url,
                user,
                gui: None,
                kernel: Some((kernel, n)),
            };
            self.replay_applet(op, plan, wait, &[]);
            self.tally.launches += 1;
        }
        (latency, failure)
    }

    /// Replays an applet operation on the probe: fetch, decode, pre-decode,
    /// define through an applet loader, the permission demands with the
    /// applet's domain on the stack, the window, the VM threads, and the
    /// interpreted code — each under the span whose interval hid it.
    fn replay_applet(&mut self, op: u64, plan: AppletReplay, before: u32, clicks: &[u32]) {
        let host = SimNetwork::parse_url(&plan.url).expect("published URL").0;
        let viewer: Vec<(Permission, bool)> = vec![
            (Permission::socket(&host, SocketActions::CONNECT), false),
            (Permission::runtime("createClassLoader"), false),
        ];
        let mut applet: Vec<(Permission, bool)> = Vec::new();
        match (&plan.gui, &plan.kernel) {
            (Some(gui), _) => {
                applet.push((Permission::awt("showWindow"), false));
                if gui.hostile {
                    for _ in &gui.clicks {
                        applet.push((
                            Permission::file(notes_path(&plan.user), FileActions::READ),
                            true,
                        ));
                    }
                }
            }
            (None, Some((Kernel::Natives, _))) => {
                applet.push((Permission::socket(&host, SocketActions::CONNECT), false));
                applet.push((Permission::file(world::TMP_FILE, FileActions::READ), false));
                applet.push((
                    Permission::property("java.version", PropertyActions::READ),
                    false,
                ));
            }
            _ => {}
        }
        let probe_user = account(self.id);
        let viewer_cold = self.label_checks(&probe_user, "viewer", &viewer);
        let applet_cold = self.label_checks(&probe_user, &plan.url, &applet);
        let denials = applet.iter().filter(|(_, d)| *d).count() as u64;
        let rt = self.rt().clone();
        let net = Arc::clone(&self.world.net);
        let outcome = self.probe().run(move || {
            replay_applet_on_probe(rt, net, plan, viewer, viewer_cold, applet, applet_cold)
        });
        self.denials_issued += denials;
        self.replay_mismatches += outcome.mismatches;
        self.tally.spawn_join_ns.extend(outcome.spawn_join_ns);
        for (timed, slot) in &outcome.batch {
            let parent = match slot {
                Slot::Before => before,
                Slot::Click(i) => clicks[*i],
            };
            self.spans.add_timed(timed, parent, op);
        }
        if let Some(stats) = outcome.interp {
            self.tally.interp_ns += stats.ns;
            self.tally.interp_insns += stats.insns;
            self.tally.interp_dispatches += stats.dispatches;
            self.tally.interp_natives += stats.natives;
            if stats.sum {
                self.tally.sum_ns += stats.ns;
                self.tally.sum_insns += stats.insns;
            }
        }
    }
}

fn last_lines(screen: &str) -> String {
    let lines: Vec<&str> = screen.lines().collect();
    lines[lines.len().saturating_sub(3)..].join(" | ")
}

/// Parses `ready <window> <component>...` with exactly `buttons` components.
fn parse_ready(line: &str, buttons: usize) -> Option<(u64, Vec<u64>)> {
    let mut words = line.strip_prefix("ready ")?.split(' ');
    let window = words.next()?.parse().ok()?;
    let comps: Vec<u64> = words.map(|w| w.parse().ok()).collect::<Option<_>>()?;
    (comps.len() == buttons).then_some((window, comps))
}

/// A timed `Vm::check_permission`, named by its outcome: denied, or cold or
/// warm as labelled by the caller.
fn check(vm: &jmp_vm::Vm, perm: &Permission, cold: bool) -> (Timed, jmp_vm::Result<()>) {
    let (mut timed, result) = Timed::run("security.check_warm", || vm.check_permission(perm));
    timed.name = match (&result, cold) {
        (Err(_), _) => "security.check_denied",
        (Ok(()), true) => "security.check_cold",
        (Ok(()), false) => "security.check_warm",
    };
    (timed, result)
}

fn nanos(timed: &Timed) -> u64 {
    (timed.end - timed.start).as_nanos() as u64
}

/// `ThreadBuilder::spawn` of an empty VM thread, then its join. The halves
/// are timed apart: exec contains the spawn, while the new thread's
/// start-up and exit happen later, inside the operation's wait.
fn spawn_and_join(builder: jmp_vm::ThreadBuilder) -> (Timed, Timed, bool) {
    let (spawn, thread) = Timed::run("vm.thread.spawn", || builder.spawn(|_| {}));
    let (join, joined) = Timed::run("vm.thread.join", || thread.map(|t| t.join()));
    (spawn, join, matches!(joined, Ok(Ok(()))))
}

/// Writes `bytes` through a fresh VM pipe and reads them back, the way one
/// pipeline hop moves them; `true` if they arrive intact.
fn pipe_through(bytes: &[u8]) -> bool {
    let capacity = jmp_vm::io::DEFAULT_PIPE_CAPACITY;
    let (writer, reader) = jmp_vm::io::pipe(capacity);
    let mut got = Vec::with_capacity(bytes.len());
    let mut buf = vec![0u8; capacity];
    for chunk in bytes.chunks(capacity / 2) {
        if writer.write_all(chunk).is_err() {
            return false;
        }
        let want = got.len() + chunk.len();
        while got.len() < want {
            match reader.read(&mut buf) {
                Ok(0) | Err(_) => return false,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
    }
    got == bytes
}

// -- terminal sessions ----------------------------------------------------------

/// What a transcript segment must look like.
enum Piece {
    Exact(String),
    /// One line starting `prefix` and naming `path`: a refused read.
    Denial {
        prefix: &'static str,
        path: String,
    },
}

/// A generated login session: what is typed, what the screen must show,
/// and the inputs its replay pushes through each layer.
struct Session {
    user: usize,
    typed: Vec<String>,
    expect: Vec<Piece>,
    shell_lines: Vec<String>,
    demands: Vec<(Permission, bool)>,
    reads: Vec<String>,
    writes: Vec<(String, String)>,
    pipes: Vec<Vec<u8>>,
    launches: Vec<&'static str>,
    /// The other user's file this session tries to read, if it does.
    denied_path: Option<String>,
    new_entries: Vec<String>,
}

fn wc_line(text: &str) -> String {
    format!(
        "{} {} {}\n",
        text.lines().count(),
        text.split_whitespace().count(),
        text.len()
    )
}

#[derive(Clone, Copy)]
enum Cmd {
    Pipeline,
    EchoNew,
    EchoAppend,
    Wc,
    Ls,
    MkdirCd,
    Whoami,
}

const MENU: [Cmd; 7] = [
    Cmd::Pipeline,
    Cmd::EchoNew,
    Cmd::EchoAppend,
    Cmd::Wc,
    Cmd::Ls,
    Cmd::MkdirCd,
    Cmd::Whoami,
];

impl Session {
    fn generate(
        rng: &mut Rng,
        ui: usize,
        op: u64,
        listing: &BTreeSet<String>,
        notes: &[String],
    ) -> Session {
        let user = account(ui);
        let home = format!("/home/{user}");
        let notes_file = notes_path(&user);
        let notes_text = &notes[ui];
        let mut s = Session {
            user: ui,
            typed: vec![user.clone(), password(ui)],
            expect: vec![Piece::Exact(format!(
                "login: {user}\nPassword: \nWelcome, {user}.\n"
            ))],
            shell_lines: Vec::new(),
            demands: vec![(Permission::runtime("execApplication"), false)],
            reads: Vec::new(),
            writes: Vec::new(),
            pipes: Vec::new(),
            launches: vec!["login", "shell"],
            denied_path: None,
            new_entries: Vec::new(),
        };
        let mut listing = listing.clone();
        let mut cwd = home.clone();
        let mut out_file: Option<(String, String)> = None;
        let mut made_dir = false;
        let commands = rng.range(4, 8);
        // A seeded minority of sessions also tries to read another user's
        // notes, which must be refused, printed and audited.
        let denied_at = rng.chance(3, 20).then(|| rng.below(commands));
        for i in 0..commands {
            let mut lines: Vec<(String, Piece)> = Vec::new();
            let exec = |s: &mut Session, program: &'static str| {
                s.launches.push(program);
                s.demands
                    .push((Permission::runtime("execApplication"), false));
                s.demands.push((Permission::runtime("setIO"), false));
            };
            if denied_at == Some(i) {
                let mut victim = rng.below(ACCOUNTS as u64) as usize;
                if victim == ui {
                    victim = (victim + 1) % ACCOUNTS;
                }
                let path = notes_path(&account(victim));
                exec(&mut s, "cat");
                s.demands
                    .push((Permission::file(&path, FileActions::READ), true));
                s.denied_path = Some(path.clone());
                lines.push((
                    format!("cat {path}"),
                    Piece::Denial {
                        prefix: "cat: ",
                        path,
                    },
                ));
            } else {
                let mut cmd = *rng.pick(&MENU);
                if matches!(cmd, Cmd::EchoAppend) && out_file.is_none() {
                    cmd = Cmd::EchoNew;
                }
                if matches!(cmd, Cmd::MkdirCd) && made_dir {
                    cmd = Cmd::Whoami;
                }
                match cmd {
                    Cmd::Pipeline => {
                        let pattern = *rng.pick(&world::WORDS);
                        let matched: String = notes_text
                            .lines()
                            .filter(|l| l.contains(pattern))
                            .map(|l| format!("{l}\n"))
                            .collect();
                        for program in ["cat", "grep", "wc"] {
                            exec(&mut s, program);
                        }
                        s.demands
                            .push((Permission::file(&notes_file, FileActions::READ), false));
                        s.reads.push(notes_file.clone());
                        s.pipes.push(notes_text.as_bytes().to_vec());
                        s.pipes.push(matched.as_bytes().to_vec());
                        lines.push((
                            format!("cat {notes_file} | grep {pattern} | wc"),
                            Piece::Exact(wc_line(&matched)),
                        ));
                    }
                    Cmd::EchoNew | Cmd::EchoAppend => {
                        let words: Vec<&str> = (0..rng.range(1, 4))
                            .map(|_| *rng.pick(&world::WORDS))
                            .collect();
                        let words = words.join(" ");
                        let append = matches!(cmd, Cmd::EchoAppend);
                        let (path, mut content) = out_file
                            .take()
                            .unwrap_or_else(|| (format!("{home}/o{op}.txt"), String::new()));
                        if !append {
                            content.clear();
                        }
                        content.push_str(&words);
                        content.push('\n');
                        exec(&mut s, "echo");
                        s.demands
                            .push((Permission::file(&path, FileActions::WRITE), false));
                        s.writes.push((path.clone(), content.clone()));
                        let name = format!("o{op}.txt");
                        if listing.insert(name.clone()) {
                            s.new_entries.push(name);
                        }
                        let arrow = if append { ">>" } else { ">" };
                        lines.push((
                            format!("echo {words} {arrow} {path}"),
                            Piece::Exact(String::new()),
                        ));
                        out_file = Some((path, content));
                    }
                    Cmd::Wc => {
                        let (path, text) = match &out_file {
                            Some((path, text)) if rng.chance(1, 2) => (path.clone(), text.clone()),
                            _ => (notes_file.clone(), notes_text.clone()),
                        };
                        exec(&mut s, "wc");
                        s.demands
                            .push((Permission::file(&path, FileActions::READ), false));
                        s.reads.push(path.clone());
                        lines.push((format!("wc < {path}"), Piece::Exact(wc_line(&text))));
                    }
                    Cmd::Ls => {
                        exec(&mut s, "ls");
                        s.demands
                            .push((Permission::file(&cwd, FileActions::READ), false));
                        let shown: String = if cwd == home {
                            listing.iter().map(|name| format!("{name}\n")).collect()
                        } else {
                            String::new()
                        };
                        lines.push(("ls".into(), Piece::Exact(shown)));
                    }
                    Cmd::MkdirCd => {
                        made_dir = true;
                        let dir = format!("s{op}");
                        exec(&mut s, "mkdir");
                        s.demands.push((
                            Permission::file(format!("{home}/{dir}"), FileActions::WRITE),
                            false,
                        ));
                        listing.insert(dir.clone());
                        s.new_entries.push(dir.clone());
                        lines.push((format!("mkdir {dir}"), Piece::Exact(String::new())));
                        lines.push((format!("cd {dir}"), Piece::Exact(String::new())));
                    }
                    Cmd::Whoami => {
                        exec(&mut s, "whoami");
                        lines.push(("whoami".into(), Piece::Exact(format!("{user}\n"))));
                    }
                }
            }
            for (line, output) in lines {
                s.expect
                    .push(Piece::Exact(format!("{user}@jmp:{cwd}$ {line}\n")));
                if let Some(dir) = line.strip_prefix("cd ") {
                    cwd = format!("{home}/{dir}");
                }
                s.expect.push(output);
                s.shell_lines.push(line.clone());
                s.typed.push(line);
            }
        }
        s.expect.push(Piece::Exact(format!(
            "{user}@jmp:{cwd}$ quit\nlogged out\nlogin: "
        )));
        s.shell_lines.push("quit".into());
        s.typed.push("quit".into());
        s
    }

    /// Matches the whole screen against the expected transcript.
    fn check(&self, screen: &str) -> Result<(), String> {
        let mut rest = screen;
        for piece in &self.expect {
            match piece {
                Piece::Exact(text) => match rest.strip_prefix(text.as_str()) {
                    Some(after) => rest = after,
                    None => {
                        return Err(format!(
                            "expected {text:?}, screen has {:?}",
                            rest.chars().take(text.len() + 40).collect::<String>()
                        ))
                    }
                },
                Piece::Denial { prefix, path } => {
                    let end = rest.find('\n').map_or(rest.len(), |i| i + 1);
                    let line = &rest[..end];
                    if !(line.starts_with(prefix) && line.contains(path.as_str())) {
                        return Err(format!("expected a refused read of {path}, got {line:?}"));
                    }
                    rest = &rest[end..];
                }
            }
        }
        if rest.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected trailing output {rest:?}"))
        }
    }
}

// -- applet replays ---------------------------------------------------------------

struct GuiReplay {
    clicks: Vec<u64>,
    hostile: bool,
}

struct AppletReplay {
    url: String,
    user: String,
    gui: Option<GuiReplay>,
    kernel: Option<(Kernel, i64)>,
}

#[derive(Clone, Copy)]
enum Slot {
    /// Work done before the applet is ready (or, for kernels, before exit).
    Before,
    /// Work done inside click `i`'s round trip.
    Click(usize),
}

struct InterpSample {
    ns: u64,
    insns: u64,
    dispatches: u64,
    natives: u64,
    sum: bool,
}

struct ReplayOutcome {
    batch: Vec<(Timed, Slot)>,
    mismatches: u64,
    spawn_join_ns: Vec<u64>,
    interp: Option<InterpSample>,
}

/// The applet natives the replayed interpreter may call, through the same
/// checked APIs the appletviewer's host uses; output is discarded.
struct ReplayHost {
    rt: MpRuntime,
    net: Arc<SimNetwork>,
}

impl NativeHost for ReplayHost {
    fn invoke(&self, name: &str, args: Vec<Value>) -> jmp_vm::Result<Value> {
        if let Some(result) = jmp_vm::interp::invoke_pure(name, &args) {
            return result;
        }
        match (name, args.as_slice()) {
            ("println" | "print", [_]) => Ok(Value::Null),
            ("connect", [Value::Str(host)]) => {
                self.net.connect(&self.rt, host)?;
                Ok(Value::Bool(true))
            }
            ("read_file", [Value::Str(path)]) => Ok(Value::str(files::read_string(path)?)),
            ("get_property", [Value::Str(key)]) => {
                Ok(jsystem::property(key)?.map_or(Value::Null, Value::str))
            }
            _ => Err(VmError::trap(format!("replay: unexpected native {name}"))),
        }
    }
}

fn replay_applet_on_probe(
    rt: MpRuntime,
    net: Arc<SimNetwork>,
    plan: AppletReplay,
    viewer: Vec<(Permission, bool)>,
    viewer_cold: Vec<bool>,
    applet: Vec<(Permission, bool)>,
    applet_cold: Vec<bool>,
) -> ReplayOutcome {
    let vm = rt.vm().clone();
    let mut batch = Vec::new();
    let mut mismatches = 0u64;
    let mut interp = None;
    let (timed, wire) = Timed::run("shell.fetch", || net.fetch(&rt, &plan.url));
    batch.push((timed, Slot::Before));
    let Ok(wire) = wire else {
        return ReplayOutcome {
            batch,
            mismatches: 1,
            spawn_join_ns: Vec::new(),
            interp,
        };
    };
    let (timed, image) = Timed::run("vm.classes.decode", || ClassImage::from_wire(&wire));
    batch.push((timed, Slot::Before));
    let image = image.expect("published image decodes");
    let def = ClassDef::builder(&image.name).image(image).build();
    let (timed, compiled) = Timed::run("vm.classes.compile", || {
        def.compiled().expect("interpreted material")
    });
    batch.push((timed, Slot::Before));
    let compiled = compiled.expect("published image verifies");
    // The applet class loader's sandbox, as the appletviewer builds it.
    let policy_vm = vm.clone();
    let loader = vm.system_loader().new_child_with_resolver(
        format!("replay:{}", plan.url),
        Arc::new(move |source: &CodeSource| {
            let mut perms: PermissionCollection = policy_vm.policy().permissions_for(source);
            if let Some(host) = source.host() {
                perms.add(Permission::socket(host, SocketActions::CONNECT));
            }
            perms.add(Permission::awt("showWindow"));
            perms
        }),
    );
    let (timed, class) = Timed::run("vm.classes.define", || {
        loader.define_class(Arc::clone(&def), CodeSource::remote(&plan.url))
    });
    batch.push((timed, Slot::Before));
    let class = class.expect("fresh loader defines the applet");

    for ((perm, expect_denied), cold) in viewer.iter().zip(viewer_cold) {
        let (timed, result) = check(&vm, perm, cold);
        mismatches += u64::from(result.is_err() != *expect_denied);
        batch.push((timed, Slot::Before));
    }
    let mut denied_clicks = 0;
    for ((perm, expect_denied), cold) in applet.iter().zip(applet_cold) {
        let (timed, result) = class.call(|| check(&vm, perm, cold));
        mismatches += u64::from(result.is_err() != *expect_denied);
        let slot = if *expect_denied {
            denied_clicks += 1;
            Slot::Click(denied_clicks - 1)
        } else {
            Slot::Before
        };
        batch.push((timed, slot));
    }

    // The viewer's main thread, plus the dispatcher a window starts.
    let threads = if plan.gui.is_some() { 2 } else { 1 };
    let mut spawn_join_ns = Vec::new();
    for _ in 0..threads {
        let (spawn, join, ok) = spawn_and_join(vm.thread_builder().name("jmpbench-spawn"));
        mismatches += u64::from(!ok);
        spawn_join_ns.push(nanos(&spawn) + nanos(&join));
        batch.push((spawn, Slot::Before));
        batch.push((join, Slot::Before));
    }

    if plan.gui.is_some() {
        let title = image_title(&plan.url);
        let (timed, window) = Timed::run("awt.window", || {
            class.call(|| jmp_core::gui::create_window(&title))
        });
        batch.push((timed, Slot::Before));
        match window {
            Ok(window) => window.close(),
            Err(_) => mismatches += 1,
        }
    }

    let host: Arc<dyn NativeHost> = Arc::new(ReplayHost {
        rt: rt.clone(),
        net: Arc::clone(&net),
    });
    let interpreter = Interpreter::from_compiled(compiled, host).with_fuel(10_000_000);
    let mut run = |method: &str, args: Vec<Value>, slot: Slot| -> jmp_vm::Result<Value> {
        let stats = interpreter.stats();
        let before = (
            stats.instructions(),
            stats.dispatches(),
            stats.native_calls(),
        );
        let (timed, result) = Timed::run("vm.interp.run", || {
            class.call(|| interpreter.run(method, args))
        });
        let ns = (timed.end - timed.start).as_nanos() as u64;
        let sample = interp.get_or_insert(InterpSample {
            ns: 0,
            insns: 0,
            dispatches: 0,
            natives: 0,
            sum: false,
        });
        sample.ns += ns;
        sample.insns += stats.instructions() - before.0;
        sample.dispatches += stats.dispatches() - before.1;
        sample.natives += stats.native_calls() - before.2;
        batch.push((timed, slot));
        result
    };
    match (&plan.gui, plan.kernel) {
        (Some(gui), _) => {
            if !gui.hostile {
                for (i, comp) in gui.clicks.iter().enumerate() {
                    let ok = run("on_click", vec![Value::Int(*comp as i64)], Slot::Click(i));
                    mismatches += u64::from(ok.is_err());
                }
            }
        }
        (None, Some((kernel, n))) => {
            let result = run("main", vec![Value::str(n.to_string())], Slot::Before);
            mismatches += u64::from(result != Ok(Value::Int(kernel.expected(n))));
            if let Some(sample) = interp.as_mut() {
                sample.sum = kernel == Kernel::Sum;
            }
        }
        (None, None) => {}
    }
    ReplayOutcome {
        batch,
        mismatches,
        spawn_join_ns,
        interp,
    }
}

fn image_title(url: &str) -> String {
    url.rsplit('/').next().unwrap_or(url).to_string()
}
