//! Set-up: the runtime every workload drives, its accounts and files, the
//! published applets, the resident desktop, and the observers the traced
//! run attaches from outside.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use jmp_awt::{DispatchMode, EventKind as AwtEventKind};
use jmp_core::{Application, MpRuntime};
use jmp_obs::EventKind;
use jmp_security::{Policy, UserId};
use jmp_shell::SimNetwork;

use crate::sys::Rng;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Terminal,
    AppletGui,
    AppletCompute,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "terminal" => Some(Workload::Terminal),
            "applet_gui" => Some(Workload::AppletGui),
            "applet_compute" => Some(Workload::AppletCompute),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Terminal => "terminal",
            Workload::AppletGui => "applet_gui",
            Workload::AppletCompute => "applet_compute",
        }
    }

    /// The programs this workload's operations launch by class name; the
    /// first is the one every operation starts with.
    pub fn programs(self) -> &'static [&'static str] {
        match self {
            Workload::Terminal => &[
                "login", "shell", "cat", "grep", "wc", "echo", "ls", "mkdir", "whoami",
            ],
            Workload::AppletGui => &["appletviewer", "edit"],
            Workload::AppletCompute => &["appletviewer"],
        }
    }
}

/// Accounts with grants in `/etc/policy.d`, enough that a run meets many
/// users for the first time (cold grant loads) and many again (warm).
pub const ACCOUNTS: usize = 2000;
/// Idle GUI applications resident during `applet_gui`.
pub const DESKTOP_APPS: usize = 12;
/// Host serving the GUI applet catalogue and the hostile applets.
pub const GUI_HOST: &str = "applets.example.com";
pub const EVIL_HOST: &str = "evil.example.com";
/// Host serving the compute kernels; its code source holds the `/tmp` and
/// property grants the checked-native kernel exercises.
pub const COMPUTE_HOST: &str = "compute.example.com";
/// World-readable file the checked-native kernel reads.
pub const TMP_FILE: &str = "/tmp/jmpbench.dat";
pub const PROBE_SOURCE: &str = "file:/apps/jmpbench-probe";

pub fn account(i: usize) -> String {
    format!("u{i:04}")
}

pub fn password(i: usize) -> String {
    format!("pw{i:04}")
}

pub fn notes_path(user: &str) -> String {
    format!("/home/{user}/notes.txt")
}

/// Per-user grant file text, as an administrator would provision it.
pub fn user_policy(user: &str) -> String {
    format!(
        "grant user \"{user}\" {{\n    permission file \"/home/{user}\" \"read\";\n    \
         permission file \"/home/{user}/-\" \"read,write,delete\";\n}};\n"
    )
}

/// Words the notes files are made of; the grep patterns are drawn from the
/// same list, so pipelines match a seeded share of lines.
pub const WORDS: [&str; 16] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa",
];

fn notes_text(rng: &mut Rng) -> String {
    let mut text = String::new();
    for _ in 0..rng.range(6, 24) {
        let words: Vec<&str> = (0..rng.range(2, 9)).map(|_| *rng.pick(&WORDS)).collect();
        text.push_str(&words.join(" "));
        text.push('\n');
    }
    text
}

fn bench_policy() -> String {
    format!(
        "{}\n\
         // The benchmark's replay probe stands in for the login program and\n\
         // the appletviewer when it re-runs an operation's inputs.\n\
         grant codeBase \"{PROBE_SOURCE}\" {{\n\
             permission runtime \"setUser\";\n\
             permission runtime \"createClassLoader\";\n\
             permission socket \"*\" \"connect\";\n\
         }};\n\
         grant codeBase \"http://{COMPUTE_HOST}/-\" {{\n\
             permission file \"/tmp/-\" \"read\";\n\
             permission property \"*\" \"read\";\n\
         }};\n",
        jmp_shell::default_policy_text()
    )
}

/// AppExit events, stamped when the benchmark's subscriber receives them:
/// the application's own completion signal, seen from outside.
pub struct ExitClock {
    seen: Mutex<HashMap<u64, Instant>>,
    cv: Condvar,
}

impl ExitClock {
    /// Blocks until application `app`'s exit has been seen (or `deadline`).
    pub fn take(&self, app: u64, deadline: Instant) -> Option<Instant> {
        let mut seen = self.seen.lock().expect("exit clock lock");
        loop {
            if let Some(at) = seen.remove(&app) {
                return Some(at);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            seen = self
                .cv
                .wait_timeout(seen, deadline - now)
                .expect("exit clock lock")
                .0;
        }
    }
}

/// Per-application GUI dispatch latencies from the toolkit's observer.
#[derive(Default)]
pub struct DispatchLog {
    latencies: Mutex<HashMap<u64, Vec<u64>>>,
}

impl DispatchLog {
    pub fn take(&self, app: u64) -> Vec<u64> {
        self.latencies
            .lock()
            .expect("dispatch log lock")
            .remove(&app)
            .unwrap_or_default()
    }
}

pub struct World {
    pub rt: MpRuntime,
    pub net: Arc<SimNetwork>,
    pub workload: Workload,
    pub system_uid: UserId,
    /// Contents of each account's `notes.txt`.
    pub notes: Vec<String>,
    pub gui_catalogue: Vec<crate::applets::GuiApplet>,
    pub desktop: Vec<Application>,
    /// Bumped by every admin write; replayed checks first seen after a bump
    /// are cold.
    pub provisions: AtomicU64,
    pub exits: Option<Arc<ExitClock>>,
    exit_thread: Option<std::thread::JoinHandle<()>>,
    pub dispatch: Option<Arc<DispatchLog>>,
}

impl World {
    pub fn build(workload: Workload, seed: u64, traced: bool) -> World {
        let mut rng = Rng::new(seed ^ 0x0005_EED0_F5E7);
        let mut builder = MpRuntime::builder()
            .policy(Policy::parse(&bench_policy()).expect("benchmark policy parses"));
        for i in 0..ACCOUNTS {
            builder = builder.user(&account(i), &password(i));
        }
        if workload == Workload::AppletGui {
            builder = builder.gui(DispatchMode::PerApplication);
        }
        let rt = builder.build().expect("runtime builds");
        jmp_shell::install(&rt).expect("shell tools install");
        // The system loader defines a program the first time any application
        // runs it, and two first uses at once can lose a definition to the
        // loader's check-then-define race (measured on its own by
        // `harness::first_use_race`). A long-running VM has run its tools
        // before; so does this one, during set-up, so that no operation
        // depends on which client reached a program first.
        for program in workload.programs() {
            rt.vm()
                .system_loader()
                .load_class(program)
                .expect("installed program loads");
        }
        let net = SimNetwork::of(&rt).expect("network installed");
        let system_uid = rt.system_user().id();

        let mut notes = Vec::with_capacity(ACCOUNTS);
        for i in 0..ACCOUNTS {
            let user = account(i);
            rt.provision_user_policy(&user, &user_policy(&user))
                .expect("provision account grants");
            let text = notes_text(&mut rng);
            let path = notes_path(&user);
            let uid = rt.users().lookup(&user).expect("account exists").id();
            rt.vfs()
                .write(&path, text.as_bytes(), system_uid)
                .expect("write notes");
            rt.vfs().chown(&path, uid, system_uid).expect("chown notes");
            notes.push(text);
        }
        rt.vfs()
            .write(TMP_FILE, crate::applets::TMP_TEXT.as_bytes(), system_uid)
            .expect("write tmp file");

        let gui_catalogue = match workload {
            Workload::AppletGui => crate::applets::publish_gui_catalogue(&rt),
            Workload::AppletCompute => {
                crate::applets::publish_kernels(&rt);
                Vec::new()
            }
            Workload::Terminal => Vec::new(),
        };

        let desktop = if workload == Workload::AppletGui {
            (0..DESKTOP_APPS)
                .map(|i| {
                    let user = account(i);
                    let notes = notes_path(&user);
                    rt.launch_with(
                        &user,
                        "edit",
                        &[notes.as_str()],
                        Some(crate::harness::null_in()),
                        None,
                        None,
                    )
                    .expect("launch desktop editor")
                })
                .collect()
        } else {
            Vec::new()
        };

        let (exits, exit_thread) = if traced {
            let clock = Arc::new(ExitClock {
                seen: Mutex::new(HashMap::new()),
                cv: Condvar::new(),
            });
            let rx = rt.vm().obs().sink().subscribe();
            let sink_clock = Arc::clone(&clock);
            let thread = std::thread::Builder::new()
                .name("jmpbench-exits".into())
                .spawn(move || {
                    while let Ok(event) = rx.recv() {
                        let at = Instant::now();
                        if event.kind != EventKind::AppExit {
                            continue;
                        }
                        let Some(app) = event.app else {
                            // The benchmark's own stop marker.
                            return;
                        };
                        sink_clock
                            .seen
                            .lock()
                            .expect("exit clock lock")
                            .insert(app, at);
                        sink_clock.cv.notify_all();
                    }
                })
                .expect("spawn exit subscriber");
            (Some(clock), Some(thread))
        } else {
            (None, None)
        };

        let dispatch = match (traced, rt.toolkit()) {
            (true, Some(toolkit)) => {
                let log = Arc::new(DispatchLog::default());
                let observer_log = Arc::clone(&log);
                toolkit.add_dispatch_observer(Arc::new(move |event, tag, latency| {
                    if event.kind == AwtEventKind::Action {
                        observer_log
                            .latencies
                            .lock()
                            .expect("dispatch log lock")
                            .entry(tag)
                            .or_default()
                            .push(latency.as_nanos() as u64);
                    }
                }));
                Some(log)
            }
            _ => None,
        };

        World {
            rt,
            net,
            workload,
            system_uid,
            notes,
            gui_catalogue,
            desktop,
            provisions: AtomicU64::new(0),
            exits,
            exit_thread,
            dispatch,
        }
    }

    /// Closes the desktop, stops the exit subscriber, and shuts the VM down.
    /// Returns `false` if a desktop application had died or lost its window
    /// during the run.
    pub fn teardown(mut self) -> bool {
        let mut desktop_ok = true;
        for app in &self.desktop {
            let windows = self
                .rt
                .toolkit()
                .map_or(0, |toolkit| toolkit.windows_of_app(app.id().0).len());
            desktop_ok &= app.status() == jmp_core::AppStatus::Running && windows == 1;
            let _ = app.stop(0);
            let _ = app.wait_for();
        }
        if let Some(thread) = self.exit_thread.take() {
            self.rt
                .vm()
                .obs()
                .sink()
                .publish(EventKind::AppExit, None, None, "jmpbench stop");
            thread.join().expect("exit subscriber exits cleanly");
        }
        self.rt.shutdown();
        desktop_ok
    }

    /// Deadline for any single wait on the program: a failure bound, never
    /// a pacing delay.
    pub fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }
}
