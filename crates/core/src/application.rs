use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

use jmp_obs::EventKind;
use jmp_security::{Permission, User};
use jmp_vm::io::{InStream, IoToken, OutStream};
use jmp_vm::stack;
use jmp_vm::thread::BLOCK_POLL;
use jmp_vm::{AppContext, Class, ClassLoader, Properties, ResourceKind, ThreadGroup, VmThread};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::Error;
use crate::runtime::{MpRuntime, RtInner, SYSTEM_CLASS};
use crate::Result;

/// Identifier of an application within the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u64);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app:{}", self.0)
    }
}

/// Lifecycle of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStatus {
    /// Threads are running.
    Running,
    /// Exit requested; the reaper is tearing the application down.
    Exiting,
    /// All done; carries the exit code.
    Finished(i32),
}

/// A stream the application opened itself and must therefore close at
/// teardown (the converse of the paper's rule that *inherited* streams must
/// not be closed, §5.1).
pub(crate) enum OwnedStream {
    In(InStream),
    Out(OutStream),
}

pub(crate) struct AppInner {
    id: AppId,
    name: String,
    /// The single ownership record shared with every layer that charges the
    /// application for resources — threads, pipes, event queues, handles.
    context: Arc<AppContext>,
    group: ThreadGroup,
    loader: ClassLoader,
    system_class: Class,
    user: RwLock<User>,
    cwd: RwLock<String>,
    properties: Properties,
    io_token: IoToken,
    owned_streams: Mutex<Vec<OwnedStream>>,
    status: Mutex<AppStatus>,
    status_cv: Condvar,
    /// Exit code requested by the first `exit`/`stop` call; finalized by the
    /// reaper.
    pending_code: std::sync::atomic::AtomicI32,
    rt: Weak<RtInner>,
}

/// An application: "a set of Java threads" (paper §5.1, Fig 3), delimited by
/// a thread group, carrying per-application state — the running user,
/// standard streams, a current working directory, and properties — and its
/// own re-loaded `System` class (Fig 5).
///
/// Cheap handle; clones refer to the same application.
#[derive(Clone)]
pub struct Application {
    inner: Arc<AppInner>,
}

/// Everything needed to start an application (computed from the parent
/// application's state, which the child inherits — paper §5.1).
pub(crate) struct ExecSpec {
    pub class_name: String,
    pub args: Vec<String>,
    pub user: User,
    pub cwd: String,
    pub stdin: InStream,
    pub stdout: OutStream,
    pub stderr: OutStream,
    pub properties: Properties,
    /// Reuse this application id if it is free (checkpoint/restore keeps
    /// the original identity across a migration); `None` allocates fresh.
    pub forced_id: Option<AppId>,
}

impl Application {
    /// The application the current thread belongs to, if any.
    pub fn current() -> Option<Application> {
        MpRuntime::current()?.app_of_current_thread()
    }

    /// Launches `class_name` as a new concurrent application, inheriting the
    /// calling application's user, working directory, streams, and
    /// properties (paper §5.1). The call returns immediately; use
    /// [`Application::wait_for`] to block until it finishes — the paper's
    ///
    /// ```text
    /// Application app = Application.exec("MyClass", args);
    /// app.waitFor();
    /// ```
    ///
    /// Requires `RuntimePermission("execApplication")` — which the example
    /// policies grant to local applications but not to applets.
    ///
    /// # Errors
    ///
    /// [`Error::NotAnApplication`] off-application (hosts use
    /// [`MpRuntime::launch`]); [`Error::Security`] without the permission;
    /// class-resolution errors surface from the new application's `main`
    /// thread, not here (matching `exec` semantics).
    pub fn exec(class_name: &str, args: &[&str]) -> Result<Application> {
        let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
        let parent = rt.app_of_current_thread().ok_or(Error::NotAnApplication)?;
        rt.vm()
            .check_permission(&Permission::runtime("execApplication"))?;
        let spec = ExecSpec {
            class_name: class_name.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
            user: parent.user(),
            cwd: parent.cwd(),
            stdin: parent.stdin(),
            stdout: parent.stdout(),
            stderr: parent.stderr(),
            properties: parent.properties().overlay(),
            forced_id: None,
        };
        spawn_app(&rt, spec)
    }

    /// Requests termination of the *current* application and blocks until
    /// the reaper stops this thread — the paper's `Application.exit(0)`:
    /// "find the application instance that corresponds to the currently
    /// running thread, schedule that application for destruction, and block
    /// the current thread" (§5.1).
    ///
    /// Returns `Ok(())` once the teardown interruption arrives, so callers
    /// can `Application::exit(0)?; return Ok(())` from `main`.
    ///
    /// # Errors
    ///
    /// [`Error::NotAnApplication`] off-application.
    pub fn exit(code: i32) -> Result<()> {
        let app = Application::current().ok_or(Error::NotAnApplication)?;
        app.request_exit(code);
        // Block until the reaper interrupts us.
        loop {
            if jmp_vm::thread::sleep(Duration::from_millis(50)).is_err() {
                return Ok(());
            }
        }
    }

    /// Requests termination of this application (may target another
    /// application — the `kill` path). Access is governed by the paper's
    /// ancestor rule: a thread may stop an application whose group it is an
    /// ancestor of; otherwise it needs
    /// `RuntimePermission("stopApplication")`.
    ///
    /// # Errors
    ///
    /// [`Error::Security`] when the rule denies.
    pub fn stop(&self, code: i32) -> Result<()> {
        let allowed = match jmp_vm::thread::current() {
            // Host threads are trusted.
            None => true,
            Some(current) => current.group().is_ancestor_of(&self.inner.group),
        };
        if !allowed {
            if let Some(rt) = self.runtime() {
                rt.vm()
                    .check_permission(&Permission::runtime("stopApplication"))?;
            }
        }
        self.request_exit(code);
        Ok(())
    }

    /// Blocks until the application finishes; returns its exit code — the
    /// paper's `app.waitFor()`.
    ///
    /// # Errors
    ///
    /// [`Error::Interrupted`] if the waiting thread is interrupted.
    pub fn wait_for(&self) -> Result<i32> {
        let mut status = self.inner.status.lock();
        loop {
            if let AppStatus::Finished(code) = *status {
                return Ok(code);
            }
            if jmp_vm::thread::current_interrupted() {
                return Err(Error::Interrupted);
            }
            self.inner.status_cv.wait_for(&mut status, BLOCK_POLL);
        }
    }

    /// Non-blocking status.
    pub fn status(&self) -> AppStatus {
        *self.inner.status.lock()
    }

    /// The application id.
    pub fn id(&self) -> AppId {
        self.inner.id
    }

    /// The main class name the application was started with.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The application's thread group (the set-of-threads identity, Fig 3).
    pub fn group(&self) -> &ThreadGroup {
        &self.inner.group
    }

    /// The application's class loader (with `java.lang.System` on its
    /// re-load list, §5.5).
    pub fn loader(&self) -> &ClassLoader {
        &self.inner.loader
    }

    /// This application's own definition of the `System` class.
    pub fn system_class(&self) -> &Class {
        &self.inner.system_class
    }

    /// The application's ownership record: identity, live resource ledger,
    /// and quotas — what every allocation path charges against.
    pub fn context(&self) -> &Arc<AppContext> {
        &self.inner.context
    }

    /// The user running this application (paper §5.2).
    pub fn user(&self) -> User {
        self.inner.user.read().clone()
    }

    /// Changes the *current* application's running user. "Special
    /// privileges are needed to set the user, and these privileges are not
    /// normally granted to applications" (§5.2): requires
    /// `RuntimePermission("setUser")` — which the policy can grant to the
    /// `login` program's *code source*, so it works regardless of who runs
    /// it.
    ///
    /// # Errors
    ///
    /// [`Error::Security`] without the permission;
    /// [`Error::NotAnApplication`] off-application.
    pub fn set_user(user: User) -> Result<()> {
        let app = Application::current().ok_or(Error::NotAnApplication)?;
        let rt = app.runtime().ok_or(Error::NotAnApplication)?;
        rt.vm().check_permission(&Permission::runtime("setUser"))?;
        // The context mirrors the user (attribution reads it lock-free), and
        // the quota table is re-derived for the new user's policy grants.
        app.inner.context.set_user(user.name());
        rt.apply_user_limits(&app.inner.context, user.name());
        *app.inner.user.write() = user;
        Ok(())
    }

    /// The application's current working directory.
    pub fn cwd(&self) -> String {
        self.inner.cwd.read().clone()
    }

    /// Changes the *current* application's working directory (the shell's
    /// `cd` builtin). The path is normalized against the current directory.
    ///
    /// # Errors
    ///
    /// [`Error::NotAnApplication`] off-application;
    /// [`Error::FileNotFound`] if the target is not a reachable directory.
    pub fn set_cwd(path: &str) -> Result<()> {
        let app = Application::current().ok_or(Error::NotAnApplication)?;
        let rt = app.runtime().ok_or(Error::NotAnApplication)?;
        let absolute = jmp_vfs::join(&app.cwd(), path);
        let info = rt.vfs().stat(&absolute, app.user().id())?;
        if info.kind != jmp_vfs::FileKind::Directory {
            return Err(Error::Io {
                message: format!("not a directory: {absolute}"),
            });
        }
        *app.inner.cwd.write() = absolute;
        Ok(())
    }

    /// The per-application properties (inherited from the parent at exec,
    /// §5.1). Distinct from the JVM-wide *system* properties, which live in
    /// the shared `SystemProperties` class (§5.5).
    pub fn properties(&self) -> &Properties {
        &self.inner.properties
    }

    /// The application's standard input (its own `System.in`).
    pub fn stdin(&self) -> InStream {
        self.inner
            .system_class
            .static_as::<InStream>("in")
            .map(|s| (*s).clone())
            .expect("System.in is installed at exec")
    }

    /// The application's standard output (its own `System.out`).
    pub fn stdout(&self) -> OutStream {
        self.inner
            .system_class
            .static_as::<OutStream>("out")
            .map(|s| (*s).clone())
            .expect("System.out is installed at exec")
    }

    /// The application's standard error (its own `System.err`).
    pub fn stderr(&self) -> OutStream {
        self.inner
            .system_class
            .static_as::<OutStream>("err")
            .map(|s| (*s).clone())
            .expect("System.err is installed at exec")
    }

    /// Replaces the *current* application's standard streams (the shell's
    /// redirection mechanism: it "temporarily changes its own standard input
    /// and output streams before each application is launched", §6.1).
    /// Requires `RuntimePermission("setIO")`.
    ///
    /// # Errors
    ///
    /// [`Error::Security`] without the permission;
    /// [`Error::NotAnApplication`] off-application.
    pub fn set_streams(
        stdin: Option<InStream>,
        stdout: Option<OutStream>,
        stderr: Option<OutStream>,
    ) -> Result<()> {
        let app = Application::current().ok_or(Error::NotAnApplication)?;
        let rt = app.runtime().ok_or(Error::NotAnApplication)?;
        rt.vm().check_permission(&Permission::runtime("setIO"))?;
        if let Some(stdin) = stdin {
            app.inner.system_class.set_static("in", Arc::new(stdin));
        }
        if let Some(stdout) = stdout {
            app.inner.system_class.set_static("out", Arc::new(stdout));
        }
        if let Some(stderr) = stderr {
            app.inner.system_class.set_static("err", Arc::new(stderr));
        }
        Ok(())
    }

    /// The close-ownership token for streams this application opens
    /// (paper §5.1).
    pub fn io_token(&self) -> IoToken {
        self.inner.io_token
    }

    /// Records a stream opened by this application, to be closed at
    /// teardown. Each registration costs one `handles` quota slot, released
    /// when the reaper closes the stream.
    ///
    /// # Errors
    ///
    /// [`jmp_vm::VmError::QuotaExceeded`] over the `handles` quota.
    pub(crate) fn register_owned_in(&self, stream: InStream) -> Result<()> {
        self.inner.context.try_charge(ResourceKind::Handles, 1)?;
        self.inner
            .owned_streams
            .lock()
            .push(OwnedStream::In(stream));
        Ok(())
    }

    /// Records an output stream opened by this application.
    ///
    /// # Errors
    ///
    /// [`jmp_vm::VmError::QuotaExceeded`] over the `handles` quota.
    pub(crate) fn register_owned_out(&self, stream: OutStream) -> Result<()> {
        self.inner.context.try_charge(ResourceKind::Handles, 1)?;
        self.inner
            .owned_streams
            .lock()
            .push(OwnedStream::Out(stream));
        Ok(())
    }

    /// Live threads belonging to this application (for `ps`).
    ///
    /// Walks the application's own group subtree rather than filtering the
    /// VM-wide thread table: the reaper calls this on every teardown, and a
    /// global sweep would make each exit cost O(live threads in the whole
    /// fleet) — the control-plane scaling this module is built to avoid.
    pub fn threads(&self) -> Vec<VmThread> {
        let Some(rt) = self.runtime() else {
            return Vec::new();
        };
        let vm = rt.vm();
        let mut threads = Vec::new();
        let mut groups = vec![self.inner.group.clone()];
        while let Some(group) = groups.pop() {
            for id in group.local_thread_ids() {
                if let Some(thread) = vm.find_thread(id) {
                    threads.push(thread);
                }
            }
            groups.extend(group.children());
        }
        threads.sort_by_key(VmThread::id);
        threads
    }

    pub(crate) fn runtime(&self) -> Option<MpRuntime> {
        self.inner.rt.upgrade().map(|inner| MpRuntime { inner })
    }

    pub(crate) fn request_exit(&self, code: i32) {
        {
            let mut status = self.inner.status.lock();
            if *status != AppStatus::Running {
                return;
            }
            *status = AppStatus::Exiting;
            // Stash the requested code in the pending slot via the condvar
            // round-trip: the reaper finalizes with this code.
            self.inner.pending_code.store(code, Ordering::SeqCst);
        }
        if let Some(rt) = self.runtime() {
            // Begin the cooperative stop here rather than when the reaper
            // dequeues the app: the group stops admitting threads and every
            // live thread gets its interrupt immediately, so a large fleet's
            // teardown latencies overlap instead of serializing behind the
            // reaper (which still interrupts and joins as before — by then
            // the threads are normally already gone).
            self.inner.group.destroy();
            for thread in self.threads() {
                let _ = rt.vm().interrupt_thread(&thread);
            }
            rt.vm().obs().sink().publish(
                EventKind::AppExit,
                Some(self.inner.id.0),
                Some(self.user().name().to_string()),
                code.to_string(),
            );
            rt.inner.reap_queue.send(self.inner.id);
        }
    }

    /// Number of streams this application opened and still owns (closed at
    /// teardown; the `streams.open` gauge in `top`).
    pub fn owned_stream_count(&self) -> usize {
        self.inner.owned_streams.lock().len()
    }
}

impl fmt::Debug for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Application")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("user", &self.user().name().to_string())
            .field("status", &self.status())
            .field("threads", &self.inner.group.thread_count())
            .finish()
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.inner.name, self.inner.id.0)
    }
}

/// Creates, registers and starts an application from `spec` — the body of
/// `Application.exec` (paper §5.1): create a thread group, instantiate the
/// application state from the parent's, re-load the `System` class through a
/// fresh loader, then call the class's `main` on a new thread in the new
/// group via reflection.
pub(crate) fn spawn_app(rt: &MpRuntime, spec: ExecSpec) -> Result<Application> {
    let inner_rt = &rt.inner;
    let sys_domain = Arc::clone(&inner_rt.sys_domain);
    // Everything below is runtime-internal work performed with system
    // authority, independent of who asked (the exec permission was already
    // checked against the caller).
    stack::call_as("jmp.Application", sys_domain, || {
        stack::do_privileged(|| {
            let id = match spec.forced_id {
                // A restored application keeps its checkpointed id when it
                // is free here; bump the allocator past it so fresh ids
                // never collide with it later.
                Some(want) if rt.application(want).is_none() => {
                    inner_rt
                        .next_app_id
                        .fetch_max(want.0 + 1, Ordering::Relaxed);
                    want
                }
                _ => AppId(inner_rt.next_app_id.fetch_add(1, Ordering::Relaxed)),
            };
            let group = inner_rt
                .vm
                .main_group()
                .new_child(format!("app-{}:{}", id.0, spec.class_name))?;
            let loader = inner_rt
                .vm
                .create_loader(&format!("app-{}", id.0), inner_rt.vm.system_loader())?;
            loader.add_reload(SYSTEM_CLASS);
            let system_class = loader.load_class(SYSTEM_CLASS)?;
            system_class.set_static("in", Arc::new(spec.stdin));
            system_class.set_static("out", Arc::new(spec.stdout));
            system_class.set_static("err", Arc::new(spec.stderr));

            // The ownership record, interned here once per application:
            // quotas come from the VM defaults overridden by the user's
            // policy grants, and crossing the hard-breach threshold
            // schedules the application for the existing reaper.
            let context = AppContext::new(
                id.0,
                spec.class_name.clone(),
                spec.user.name(),
                group.id(),
                inner_rt.vm.obs().clone(),
            );
            rt.apply_user_limits(&context, spec.user.name());
            let breach_rt: Weak<RtInner> = Arc::downgrade(inner_rt);
            context.set_hard_breach_hook(Box::new(move |ctx| {
                let Some(inner) = breach_rt.upgrade() else {
                    return;
                };
                let rt = MpRuntime { inner };
                if let Some(app) = rt.application(AppId(ctx.app_id())) {
                    app.request_exit(134);
                }
            }));

            let app = Application {
                inner: Arc::new(AppInner {
                    id,
                    name: spec.class_name.clone(),
                    context: Arc::clone(&context),
                    group: group.clone(),
                    loader: loader.clone(),
                    system_class,
                    user: RwLock::new(spec.user),
                    cwd: RwLock::new(spec.cwd),
                    properties: spec.properties,
                    io_token: IoToken(inner_rt.next_io_token.fetch_add(1, Ordering::Relaxed)),
                    owned_streams: Mutex::new(Vec::new()),
                    status: Mutex::new(AppStatus::Running),
                    status_cv: Condvar::new(),
                    pending_code: std::sync::atomic::AtomicI32::new(0),
                    rt: Arc::downgrade(inner_rt),
                }),
            };
            inner_rt.apps_by_group.insert(group.id(), id);
            inner_rt.apps_by_id.insert(id, app.clone());

            // Observability: the application's metrics registry exists from
            // exec to reap; the exec itself goes on the event stream.
            let hub = inner_rt.vm.obs();
            hub.app_registry(id.0, app.name());
            hub.vm_metrics().counter("apps.execed").inc();
            hub.sink().publish(
                EventKind::AppExec,
                Some(id.0),
                Some(app.user().name().to_string()),
                app.name().to_string(),
            );

            // Natural end (paper §5.1): "the JVM will call the exit method as
            // soon as there are only daemon threads left in the application's
            // thread group."
            let hook_app = app.clone();
            group.set_empty_hook(Arc::new(move || {
                hook_app.request_exit(0);
            }));

            // The main thread: runs `main` via "reflection" (dynamic class
            // lookup through the application's loader).
            let main_app = app.clone();
            let args = spec.args;
            let class_name = spec.class_name;
            // Causal root: while this guard lives, the main thread spawned
            // below inherits the exec span's child context, so everything the
            // application goes on to do hangs off this exec.
            let exec_span = hub.recorder().begin(
                jmp_obs::SpanCategory::Exec,
                format!("exec:{class_name}#{}", id.0),
            );
            let spawned = inner_rt
                .vm
                .thread_builder()
                .name(format!("main:{class_name}"))
                .group(group.clone())
                .app_context(Arc::clone(&context))
                .daemon(false)
                .spawn(move |_vm| {
                    let outcome = main_app
                        .loader()
                        .load_class(&class_name)
                        .and_then(|class| class.run_main(args));
                    if let Err(err) = outcome {
                        // Uncaught exceptions go to the application's stderr…
                        let _ = main_app
                            .stderr()
                            .println(&format!("Exception in thread \"main\": {err}"));
                        // …and onto the audit trail with the flight record at
                        // the moment of the fault.
                        if let Some(rt) = main_app.runtime() {
                            let user = main_app.user();
                            rt.vm().obs().record_app_fault(
                                Some(main_app.id().0),
                                Some(user.name()),
                                &err.to_string(),
                            );
                        }
                    }
                });
            drop(exec_span);
            if let Err(err) = spawned {
                // Roll the half-born application back out of the registries.
                inner_rt.apps_by_group.remove(&group.id());
                inner_rt.apps_by_id.remove(&id);
                group.destroy();
                return Err(err.into());
            }
            Ok(app)
        })
    })
}

/// Tears an application down — the reaper body (paper §5.1: "a background
/// thread will eventually clean up the application, stop all threads, and
/// close all windows that are associated with the application").
pub(crate) fn reap(rt: &MpRuntime, id: AppId) {
    let Some(app) = rt.application(id) else {
        return;
    };

    // 1. Close the application's windows and retire its event machinery.
    if let Some(toolkit) = rt.toolkit() {
        toolkit.close_app(id.0);
    }

    // 2. Stop all threads (cooperative interruption; every blocking runtime
    //    primitive is an interruption point).
    app.inner.group.destroy();
    let threads = app.threads();
    for thread in &threads {
        let _ = rt.vm().interrupt_thread(thread);
    }
    for thread in &threads {
        thread.join_timeout(Duration::from_secs(2));
    }

    // 3. Close the streams the application opened — and only those; the
    //    inherited standard streams are shared with other applications and
    //    must survive (§5.1). Each close releases the handle charged at
    //    registration, so the ledger drains with the teardown.
    let token = app.inner.io_token;
    let mut released_handles = 0;
    for owned in app.inner.owned_streams.lock().drain(..) {
        released_handles += 1;
        match owned {
            OwnedStream::In(s) => {
                let _ = s.close(token);
            }
            OwnedStream::Out(s) => {
                let _ = s.close(token);
            }
        }
    }
    app.inner
        .context
        .uncharge(ResourceKind::Handles, released_handles);

    // 4. Drop the application's shared-object exports (§8 extension):
    //    exports do not outlive their publisher.
    crate::shared::drop_exports_of(rt, id);

    // 4b. Reclaim the application's resident memory in O(1): the pooled
    //     interpreter arenas and any charged image footprints are released
    //     in one swap, so the memory ledger provably drains to zero at reap
    //     no matter how the application exited.
    app.inner.context.reclaim_memory();

    // 5. Deregister, then finalize: whoever observes `Finished` (a
    //    checkpoint about to restore under the same id) finds the id free.
    rt.inner.apps_by_group.remove(&app.inner.group.id());
    rt.inner.apps_by_id.remove(&id);
    let code = app.inner.pending_code.load(Ordering::SeqCst);
    {
        let mut status = app.inner.status.lock();
        *status = AppStatus::Finished(code);
        app.inner.status_cv.notify_all();
    }

    // 6. Retire the application's metrics registry and record the reap.
    let hub = rt.vm().obs();
    hub.vm_metrics().counter("apps.reaped").inc();
    hub.sink().publish(
        EventKind::AppReap,
        Some(id.0),
        Some(app.user().name().to_string()),
        code.to_string(),
    );
    hub.remove_app(id.0);
}
