//! Event-driven plumbing between the benchmark and the program: an output
//! device the benchmark owns, failure deadlines for `wait_for`, the replay
//! probe application, and the class loader's first-use race probe.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use jmp_core::{Application, MpRuntime};
use jmp_security::{CodeSource, PermissionCollection};
use jmp_vm::io::{InStream, IoToken, OutStream, WriteDevice};
use jmp_vm::{ClassDef, ClassLoader, DomainResolver, VmError};

use crate::world::PROBE_SOURCE;

pub const STDOUT: u8 = 1;
pub const STDERR: u8 = 2;

#[derive(Default)]
struct OutputState {
    lines: std::collections::VecDeque<(u8, String)>,
    partial: [Vec<u8>; 2],
}

/// A standard-output/-error device owned by the benchmark. Complete lines
/// are queued in arrival order and wake the waiting client through a
/// condvar, so readiness and click completion are events, not polls.
#[derive(Default)]
pub struct OpOutput {
    state: Mutex<OutputState>,
    cv: Condvar,
}

struct Tap {
    output: Arc<OpOutput>,
    stream: u8,
}

impl WriteDevice for Tap {
    fn write(&self, data: &[u8]) -> jmp_vm::Result<()> {
        let mut state = self.output.state.lock().expect("output lock");
        let slot = (self.stream - 1) as usize;
        state.partial[slot].extend_from_slice(data);
        let mut woke = false;
        while let Some(nl) = state.partial[slot].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = state.partial[slot].drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            state.lines.push_back((self.stream, text));
            woke = true;
        }
        drop(state);
        if woke {
            self.output.cv.notify_all();
        }
        Ok(())
    }
}

impl OpOutput {
    pub fn new() -> Arc<OpOutput> {
        Arc::new(OpOutput::default())
    }

    pub fn stream(self: &Arc<OpOutput>, stream: u8) -> OutStream {
        OutStream::new(
            Arc::new(Tap {
                output: Arc::clone(self),
                stream,
            }),
            IoToken::SYSTEM,
        )
    }

    /// The next complete line from either stream, or `None` at `deadline`.
    pub fn next_line(&self, deadline: Instant) -> Option<(u8, String)> {
        let mut state = self.state.lock().expect("output lock");
        loop {
            if let Some(line) = state.lines.pop_front() {
                return Some(line);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("output lock")
                .0;
        }
    }

    /// Lines not yet consumed, plus any unterminated tail.
    pub fn rest(&self) -> Vec<(u8, String)> {
        let mut state = self.state.lock().expect("output lock");
        let mut rest: Vec<(u8, String)> = state.lines.drain(..).collect();
        for (i, partial) in state.partial.iter_mut().enumerate() {
            if !partial.is_empty() {
                rest.push((i as u8 + 1, String::from_utf8_lossy(partial).into_owned()));
                partial.clear();
            }
        }
        rest
    }
}

pub fn null_in() -> InStream {
    InStream::null(IoToken::SYSTEM)
}

pub fn null_out() -> OutStream {
    OutStream::null(IoToken::SYSTEM)
}

#[derive(Default)]
struct DeadlineState {
    armed: BTreeMap<(Instant, u64), Application>,
    fired: std::collections::HashSet<u64>,
    stop: bool,
}

/// Failure deadlines for `Application::wait_for`: one timer thread stops an
/// application whose operation outlives its deadline, which makes the
/// blocked `wait_for` return. A timeout here only ever marks a failure.
pub struct Deadlines {
    state: Mutex<DeadlineState>,
    cv: Condvar,
    next: AtomicU64,
}

impl Deadlines {
    pub fn start() -> (Arc<Deadlines>, std::thread::JoinHandle<()>) {
        let deadlines = Arc::new(Deadlines {
            state: Mutex::new(DeadlineState::default()),
            cv: Condvar::new(),
            next: AtomicU64::new(0),
        });
        let timer = Arc::clone(&deadlines);
        let thread = std::thread::Builder::new()
            .name("jmpbench-deadlines".into())
            .spawn(move || timer.run())
            .expect("spawn deadline timer");
        (deadlines, thread)
    }

    fn run(&self) {
        let mut state = self.state.lock().expect("deadline lock");
        loop {
            if state.stop {
                return;
            }
            let now = Instant::now();
            let earliest = state.armed.keys().next().copied();
            match earliest {
                None => state = self.cv.wait(state).expect("deadline lock"),
                Some(key) if key.0 <= now => {
                    let app = state.armed.remove(&key).expect("armed entry");
                    state.fired.insert(key.1);
                    let _ = app.stop(137);
                }
                Some(key) => {
                    state = self
                        .cv
                        .wait_timeout(state, key.0 - now)
                        .expect("deadline lock")
                        .0
                }
            }
        }
    }

    /// Blocks in `app.wait_for()` with `deadline` as the failure bound.
    /// Returns the exit code, or `None` if the deadline stopped the app.
    pub fn wait_for(&self, app: &Application, deadline: Instant) -> Option<i32> {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        self.state
            .lock()
            .expect("deadline lock")
            .armed
            .insert((deadline, seq), app.clone());
        self.cv.notify_all();
        let code = app.wait_for();
        let mut state = self.state.lock().expect("deadline lock");
        state.armed.remove(&(deadline, seq));
        let fired = state.fired.remove(&seq);
        match code {
            Ok(code) if !fired => Some(code),
            _ => None,
        }
    }

    pub fn stop(&self) {
        self.state.lock().expect("deadline lock").stop = true;
        self.cv.notify_all();
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// A long-lived application owned by the benchmark, on whose main thread
/// replays run: calls that need an application context (a running user, a
/// protection domain on the stack) execute there exactly as they would in
/// the program.
pub struct Probe {
    tx: Option<mpsc::Sender<Job>>,
    app: Application,
}

impl Probe {
    pub fn launch(rt: &MpRuntime, client: usize, user: &str) -> Probe {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Mutex::new(rx);
        let class = format!("jmpbench.Probe{client}");
        rt.vm()
            .material()
            .register(
                ClassDef::builder(&class)
                    .main(move |_| loop {
                        let job = rx.lock().expect("probe queue lock").recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => return Ok(()),
                        }
                    })
                    .build(),
                CodeSource::local(PROBE_SOURCE),
            )
            .expect("register probe class");
        let app = rt
            .launch_with(
                user,
                &class,
                &[],
                Some(null_in()),
                Some(null_out()),
                Some(null_out()),
            )
            .expect("launch probe");
        Probe { tx: Some(tx), app }
    }

    pub fn app(&self) -> &Application {
        &self.app
    }

    /// Runs `f` on the probe's main thread and returns its result.
    pub fn run<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (rtx, rrx) = mpsc::sync_channel(1);
        self.tx
            .as_ref()
            .expect("probe running")
            .send(Box::new(move || {
                let _ = rtx.send(f());
            }))
            .expect("probe alive");
        rrx.recv().expect("probe answered")
    }

    /// Ends the probe. Its main returns once the job channel closes, but a
    /// window replay leaves a (non-daemon) dispatcher thread behind, so the
    /// application is stopped as a GUI application must be.
    pub fn stop(mut self) {
        self.tx = None;
        let _ = self.app.stop(0);
        let _ = self.app.wait_for();
    }
}

/// Stamps taken by the benchmark's no-op program as its `main` returns: the
/// completion signal for replayed launches.
#[derive(Default)]
pub struct NopClock {
    done: Mutex<HashMap<u64, Instant>>,
}

pub const NOP_CLASS: &str = "jmpbench.Nop";

impl NopClock {
    pub fn install(rt: &MpRuntime) -> Arc<NopClock> {
        let clock = Arc::new(NopClock::default());
        let stamps = Arc::clone(&clock);
        rt.vm()
            .material()
            .register(
                ClassDef::builder(NOP_CLASS)
                    .main(move |_| {
                        let app = Application::current().expect("nop runs as an application");
                        stamps
                            .done
                            .lock()
                            .expect("nop clock lock")
                            .insert(app.id().0, Instant::now());
                        Ok(())
                    })
                    .build(),
                CodeSource::local(PROBE_SOURCE),
            )
            .expect("register nop class");
        clock
    }

    pub fn take(&self, app: u64) -> Option<Instant> {
        self.done.lock().expect("nop clock lock").remove(&app)
    }
}

/// Trials of the first-use race probe.
pub const RACE_TRIALS: usize = 2000;

/// The class loader's first-use race, measured directly: `trials` times, a
/// fresh system loader over the runtime's class material, and two threads
/// released together into `ClassLoader::load_class(class)`, the way two
/// sessions start the same program for the first time. Returns the number
/// of trials in which one of them failed with the loader's "already
/// defines" linkage error; any other outcome is an error.
pub fn first_use_race(rt: &MpRuntime, class: &str, trials: usize) -> Result<u64, String> {
    let resolver: DomainResolver = Arc::new(|_: &CodeSource| PermissionCollection::new());
    let loaders: Vec<ClassLoader> = (0..trials)
        .map(|_| {
            ClassLoader::new_system(
                "system",
                Arc::clone(rt.vm().material()),
                Arc::clone(&resolver),
            )
        })
        .collect();
    // A spinning start line: a parked thread would wake microseconds after
    // the other, long after its definition is done.
    let arrived = AtomicUsize::new(0);
    let outcomes: Vec<Vec<Result<(), VmError>>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let (loaders, arrived) = (&loaders, &arrived);
                scope.spawn(move || {
                    let mut results = Vec::with_capacity(loaders.len());
                    for (trial, loader) in loaders.iter().enumerate() {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let mut spins = 0u32;
                        while arrived.load(Ordering::SeqCst) < 2 * (trial + 1) {
                            spins += 1;
                            if spins.is_multiple_of(1024) {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        results.push(loader.load_class(class).map(|_| ()));
                    }
                    results
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|racer| racer.join().expect("race probe thread"))
            .collect()
    });
    let mut lost = 0;
    for (trial, pair) in outcomes[0].iter().zip(&outcomes[1]).enumerate() {
        match pair {
            (Ok(()), Ok(())) => {}
            (Err(VmError::Linkage { .. }), Ok(())) | (Ok(()), Err(VmError::Linkage { .. })) => {
                lost += 1
            }
            (a, b) => return Err(format!("first-use race trial {trial}: {a:?} / {b:?}")),
        }
    }
    Ok(lost)
}
