use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock, Weak};

use jmp_awt::{DispatchMode, DisplayServer, Toolkit};
use jmp_security::{Permission, Policy, ProtectionDomain, ShardedMap, User, UserRegistry};
use jmp_vfs::{Mode, Vfs};
use jmp_vm::io::{InStream, IoToken, MemSink, OutStream};
use jmp_vm::thread::BLOCK_POLL;
use jmp_vm::{AppContext, ClassDef, ResourceKind, Vm};
use parking_lot::{Condvar, Mutex};

use crate::application::{AppId, Application};
use crate::sys_sm::SystemSecurityManager;
use crate::Result;

/// Extension key under which the runtime registers itself with the VM.
pub(crate) const EXTENSION_KEY: &str = "jmp.mpruntime";

/// The longest [`MpRuntime::shutdown`] waits for the VM's threads to
/// finish after interrupting them.
const SHUTDOWN_GRACE: std::time::Duration = std::time::Duration::from_secs(5);

/// Name of the per-application re-loaded system class (paper §5.5).
pub const SYSTEM_CLASS: &str = "java.lang.System";

/// Name of the shared system-properties class (paper §5.5, Fig 5).
pub const SYSTEM_PROPERTIES_CLASS: &str = "jmp.SystemProperties";

/// The reaper's work queue: application ids awaiting teardown. A blocking
/// queue in the style of the data-plane primitives — the reaper sleeps for
/// real (no periodic poll) and is woken by a send, a close (runtime drop),
/// or thread interruption (VM shutdown) via the interrupt waker.
pub(crate) struct ReapQueue {
    state: Mutex<(std::collections::VecDeque<AppId>, bool)>,
    cvar: Condvar,
    /// Counts ids enqueued after close — an exit racing the runtime's own
    /// drop must be a *counted* no-op (the reaper analogue of the event
    /// queues' `events.dropped`), not a silent one.
    dropped: OnceLock<Arc<jmp_obs::Counter>>,
}

impl ReapQueue {
    fn new() -> Arc<ReapQueue> {
        Arc::new(ReapQueue {
            state: Mutex::new((std::collections::VecDeque::new(), false)),
            cvar: Condvar::new(),
            dropped: OnceLock::new(),
        })
    }

    fn set_dropped_counter(&self, counter: Arc<jmp_obs::Counter>) {
        let _ = self.dropped.set(counter);
    }

    pub(crate) fn send(&self, id: AppId) {
        let mut state = self.state.lock();
        if state.1 {
            drop(state);
            if let Some(counter) = self.dropped.get() {
                counter.inc();
            }
            return;
        }
        state.0.push_back(id);
        self.cvar.notify_one();
    }

    pub(crate) fn close(&self) {
        self.state.lock().1 = true;
        self.cvar.notify_all();
    }

    /// Blocks for the next id; `None` once closed-and-drained or when the
    /// calling VM thread is interrupted.
    fn recv(self: &Arc<ReapQueue>) -> Option<AppId> {
        let waker = {
            let queue = Arc::clone(self);
            jmp_vm::thread::register_interrupt_waker(Arc::new(move || {
                let _state = queue.state.lock();
                queue.cvar.notify_all();
            }))
        };
        let _waker = waker;
        let mut state = self.state.lock();
        loop {
            if let Some(id) = state.0.pop_front() {
                return Some(id);
            }
            if state.1 || jmp_vm::thread::check_interrupt().is_err() {
                return None;
            }
            self.cvar.wait(&mut state);
        }
    }
}

pub(crate) struct RtInner {
    pub(crate) vm: Vm,
    pub(crate) vfs: Arc<Vfs>,
    pub(crate) users: Arc<UserRegistry>,
    pub(crate) sys_domain: Arc<ProtectionDomain>,
    /// The application registry, sharded by id hash: spawns and reaps on
    /// different shards proceed concurrently, and `ps`-style sweeps
    /// ([`MpRuntime::applications`]) read shard by shard without ever
    /// blocking a spawn behind a whole-map lock.
    pub(crate) apps_by_id: ShardedMap<AppId, Application>,
    /// VM-wide default quotas applied to every application at exec, before
    /// the per-user `resource "limit.<resource>:<n>"` policy overrides.
    pub(crate) default_limits: Vec<(ResourceKind, u64)>,
    pub(crate) next_app_id: AtomicU64,
    pub(crate) next_io_token: AtomicU64,
    pub(crate) reap_queue: Arc<ReapQueue>,
    pub(crate) toolkit: Option<Toolkit>,
    pub(crate) display: Option<DisplayServer>,
    pub(crate) console: MemSink,
    pub(crate) default_stdin: InStream,
    pub(crate) default_stdout: OutStream,
    pub(crate) default_stderr: OutStream,
    /// The shared-object registry (§8 future work; see [`crate::shared`]),
    /// sharded by name hash like the application tables.
    pub(crate) shared: ShardedMap<String, crate::shared::SharedEntry>,
}

impl Drop for RtInner {
    fn drop(&mut self) {
        // Wake the (blocked, parked) reaper so it exits when the runtime is
        // dropped without a VM shutdown — the reaper holds its own Arc to
        // the queue, so close is the only signal it would otherwise miss.
        self.reap_queue.close();
    }
}

/// The multi-processing runtime: the paper's prototype, assembled.
///
/// Owns a [`Vm`], a virtual filesystem, the user registry, optionally a
/// display + toolkit, and the table of running [`Application`]s. Building it
/// performs the bootstrap the paper describes: registering the re-loadable
/// `System` class material, installing the system security manager (§5.6),
/// and starting the background reaper that cleans up exiting applications
/// (§5.1). User-based access control (§5.3) needs no hook: every
/// application thread carries its [`AppContext`], and the VM reads the
/// running user from it.
///
/// Cheap handle; clones refer to the same runtime.
#[derive(Clone)]
pub struct MpRuntime {
    pub(crate) inner: Arc<RtInner>,
}

/// Configures and builds an [`MpRuntime`].
pub struct MpRuntimeBuilder {
    policy: Policy,
    users: Vec<(String, String)>,
    gui: Option<(DisplayServer, DispatchMode)>,
    vm_name: String,
    limits: Vec<(ResourceKind, u64)>,
}

impl MpRuntimeBuilder {
    /// Sets the security policy (see [`Policy::parse`] for the format,
    /// including the paper's `grant user` extension).
    pub fn policy(mut self, policy: Policy) -> MpRuntimeBuilder {
        self.policy = policy;
        self
    }

    /// Adds a user account (home directory `/home/<name>` is created and
    /// made private, like `adduser`).
    pub fn user(mut self, name: &str, password: &str) -> MpRuntimeBuilder {
        self.users.push((name.to_string(), password.to_string()));
        self
    }

    /// Names the underlying VM.
    pub fn vm_name(mut self, name: impl Into<String>) -> MpRuntimeBuilder {
        self.vm_name = name.into();
        self
    }

    /// Attaches a windowing stack in the given dispatch mode, creating a
    /// fresh [`DisplayServer`].
    pub fn gui(mut self, mode: DispatchMode) -> MpRuntimeBuilder {
        self.gui = Some((DisplayServer::new(), mode));
        self
    }

    /// Attaches a windowing stack on an existing display.
    pub fn display(mut self, display: DisplayServer, mode: DispatchMode) -> MpRuntimeBuilder {
        self.gui = Some((display, mode));
        self
    }

    /// Sets a VM-wide default quota for `kind`, applied to every application
    /// at exec. Per-user `resource "limit.<resource>:<n>"` policy grants and
    /// [`MpRuntime::set_limits`] both override it.
    pub fn resource_limit(mut self, kind: ResourceKind, limit: u64) -> MpRuntimeBuilder {
        self.limits.push((kind, limit));
        self
    }

    /// Builds and bootstraps the runtime.
    ///
    /// # Errors
    ///
    /// Propagates VM bootstrap failures (duplicate user names, class
    /// registration conflicts).
    pub fn build(self) -> Result<MpRuntime> {
        // -- users and filesystem -------------------------------------------
        let user_pairs: Vec<(&str, &str)> = self
            .users
            .iter()
            .map(|(n, p)| (n.as_str(), p.as_str()))
            .collect();
        let users = UserRegistry::with_users(&user_pairs);
        let system_uid = users.lookup("system").expect("bootstrap account").id();

        let vfs = Arc::new(Vfs::new());
        for dir in ["/home", "/tmp", "/etc", "/apps", "/sys"] {
            vfs.mkdirs(dir, system_uid)?;
        }
        vfs.chmod("/tmp", Mode::WORLD_WRITABLE, system_uid)?;
        // Record the active policy where users can read it (the paper: "a
        // policy that can be specified by the user"; the JDK keeps it in a
        // policy file). World-readable, root-owned.
        vfs.write(
            "/etc/java.policy",
            self.policy.to_string().as_bytes(),
            system_uid,
        )?;
        // The lazy half of the policy: per-user grant files under
        // /etc/policy.d, loaded on first demand and interned in a bounded
        // cache (see `crate::policy_store`). The resident policy stays the
        // root of authority; the store only answers user queries the
        // resident grants don't.
        vfs.mkdirs(crate::policy_store::USER_POLICY_DIR, system_uid)?;
        let user_store = Arc::new(jmp_security::LazyUserStore::new(Arc::new(
            crate::policy_store::VfsGrantSource::new(Arc::clone(&vfs), system_uid),
        )));
        let policy = self.policy.with_user_store(user_store);
        for (name, _) in &self.users {
            let user = users.lookup(name).expect("just registered");
            let home = user.home().to_string();
            vfs.mkdirs(&home, system_uid)?;
            vfs.chown(&home, user.id(), system_uid)?;
            vfs.chmod(&home, Mode::DIR_PRIVATE, system_uid)?;
        }

        // -- VM and class material ------------------------------------------
        let vm = Vm::builder().name(self.vm_name).policy(policy).build();
        vm.material().register(
            ClassDef::builder(SYSTEM_CLASS)
                .static_slot("in")
                .static_slot("out")
                .static_slot("err")
                .static_slot("securityManager")
                .build(),
            jmp_security::CodeSource::local("file:/sys/classes"),
        )?;
        vm.material().register(
            ClassDef::builder(SYSTEM_PROPERTIES_CLASS)
                .static_slot("table")
                .build(),
            jmp_security::CodeSource::local("file:/sys/classes"),
        )?;
        // Define the shared SystemProperties once, in the system loader, and
        // point its statics at the VM-wide property table (Fig 5).
        let sysprops = vm.system_loader().load_class(SYSTEM_PROPERTIES_CLASS)?;
        sysprops.set_static("table", Arc::new(vm.properties().clone()));

        // -- default console -------------------------------------------------
        let console = MemSink::new();
        let default_stdin = InStream::null(IoToken::SYSTEM);
        let default_stdout = OutStream::new(Arc::new(console.clone()), IoToken::SYSTEM);
        let default_stderr = OutStream::new(Arc::new(console.clone()), IoToken::SYSTEM);

        // -- GUI --------------------------------------------------------------
        let (display, toolkit) = match self.gui {
            Some((display, mode)) => {
                let toolkit = Toolkit::connect(vm.clone(), display.clone(), mode);
                (Some(display), Some(toolkit))
            }
            None => (None, None),
        };

        let reap_queue = ReapQueue::new();
        reap_queue.set_dropped_counter(vm.obs().vm_metrics().counter("reaper.dropped"));
        let inner = Arc::new(RtInner {
            vm: vm.clone(),
            vfs,
            users,
            sys_domain: Arc::new(ProtectionDomain::system()),
            apps_by_id: ShardedMap::default(),
            default_limits: self.limits,
            next_app_id: AtomicU64::new(1),
            next_io_token: AtomicU64::new(1),
            reap_queue: Arc::clone(&reap_queue),
            toolkit,
            display,
            console,
            default_stdin,
            default_stdout,
            default_stderr,
            shared: ShardedMap::default(),
        });
        let rt = MpRuntime {
            inner: Arc::clone(&inner),
        };

        // -- install the multi-processing hooks (host context: fully trusted)
        // The VM finds its runtime through a `Weak`: the runtime owns the
        // VM, so a strong reference here would keep both alive forever.
        vm.set_extension(
            EXTENSION_KEY,
            Arc::new(Arc::downgrade(&inner)) as Arc<dyn std::any::Any + Send + Sync>,
        )?;
        vm.set_security_manager(Arc::new(SystemSecurityManager::new()))?;
        if let Some(toolkit) = &rt.inner.toolkit {
            // Feed GUI dispatch counts and latencies into the hub, VM-wide
            // and per application (§5.4's per-application queues make the
            // per-app numbers meaningful).
            let hub = vm.obs().clone();
            toolkit.add_dispatch_observer(Arc::new(move |_event, tag, latency| {
                let ns = latency.as_nanos() as u64;
                hub.vm_metrics().counter("gui.dispatched").inc();
                hub.vm_metrics().histogram("gui.dispatch_ns").record(ns);
                if let Some(registry) = hub.existing_app_registry(tag) {
                    registry.counter("gui.dispatched").inc();
                    registry.histogram("gui.dispatch_ns").record(ns);
                }
            }));
        }
        rt.start_reaper(reap_queue)?;
        rt.start_watchdog_checker()?;
        rt.start_profile_sampler()?;
        Ok(rt)
    }
}

impl MpRuntime {
    /// Starts building a runtime.
    pub fn builder() -> MpRuntimeBuilder {
        MpRuntimeBuilder {
            policy: Policy::new(),
            users: Vec::new(),
            gui: None,
            vm_name: "jmp-mp".into(),
            limits: Vec::new(),
        }
    }

    /// The runtime attached to the current VM thread's VM, if any.
    pub fn current() -> Option<MpRuntime> {
        let vm = Vm::current()?;
        MpRuntime::of_vm(&vm)
    }

    /// The runtime attached to `vm`, if one was built on it and a handle
    /// to it is still live.
    pub fn of_vm(vm: &Vm) -> Option<MpRuntime> {
        vm.extension::<Weak<RtInner>>(EXTENSION_KEY)?
            .upgrade()
            .map(|inner| MpRuntime { inner })
    }

    /// The underlying VM.
    pub fn vm(&self) -> &Vm {
        &self.inner.vm
    }

    /// The virtual filesystem.
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.inner.vfs
    }

    /// The user registry.
    pub fn users(&self) -> &Arc<UserRegistry> {
        &self.inner.users
    }

    /// The windowing toolkit, if the runtime was built with a GUI.
    pub fn toolkit(&self) -> Option<&Toolkit> {
        self.inner.toolkit.as_ref()
    }

    /// The display server, if the runtime was built with a GUI.
    pub fn display(&self) -> Option<&DisplayServer> {
        self.inner.display.as_ref()
    }

    /// Everything written to the default console (applications launched
    /// without stream overrides write here).
    pub fn console_output(&self) -> String {
        self.inner.console.contents_string()
    }

    /// Clears the captured console.
    pub fn clear_console(&self) {
        self.inner.console.clear();
    }

    /// Writes (or replaces) `user`'s lazy policy file under
    /// [`crate::USER_POLICY_DIR`] and invalidates the store's cache, so the
    /// grants take effect on the next access check that asks about the user.
    /// `text` is ordinary policy syntax; only its `grant user "<user>"`
    /// blocks matter. Requires `RuntimePermission("setPolicy")`, the same
    /// privilege as replacing the resident policy.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Security`] without the permission; filesystem errors
    /// propagate from the underlying write.
    pub fn provision_user_policy(&self, user: &str, text: &str) -> Result<()> {
        self.inner
            .vm
            .check_permission(&Permission::runtime("setPolicy"))?;
        let system = self.system_user().id();
        self.inner.vfs.write(
            &format!("{}/{user}.policy", crate::policy_store::USER_POLICY_DIR),
            text.as_bytes(),
            system,
        )?;
        // Same ordering as `Vm::set_policy`: kill the stored grants first,
        // then bump the decision-cache epoch — a check racing this call
        // either re-walks (sees the new file) or serves a decision cached
        // under the old epoch, which the bump below retires.
        self.inner.vm.policy().invalidate_user_store();
        self.inner.vm.flush_access_cache();
        Ok(())
    }

    /// The `system` account.
    pub fn system_user(&self) -> User {
        self.inner
            .users
            .lookup("system")
            .expect("bootstrap account")
    }

    /// Launches `class_name` as a new application owned by the `system`
    /// user, with default streams — the host-level entry point (what the
    /// bootstrap uses to start `login` or a shell).
    ///
    /// # Errors
    ///
    /// [`crate::Error::Vm`] wrapping `ClassNotFound` for unknown classes.
    pub fn launch(&self, class_name: &str, args: &[&str]) -> Result<Application> {
        self.launch_as("system", class_name, args)
    }

    /// Launches `class_name` as a new application running as `user_name`.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Security`] wrapping `UnknownUser` if the account does not
    /// exist; otherwise as [`MpRuntime::launch`].
    pub fn launch_as(
        &self,
        user_name: &str,
        class_name: &str,
        args: &[&str],
    ) -> Result<Application> {
        self.launch_with(user_name, class_name, args, None, None, None)
    }

    /// Launches with explicit standard streams — how a terminal session is
    /// wired up: the login application gets the terminal's streams, and
    /// everything it execs inherits them (paper §6.2).
    ///
    /// # Errors
    ///
    /// As [`MpRuntime::launch_as`].
    pub fn launch_with(
        &self,
        user_name: &str,
        class_name: &str,
        args: &[&str],
        stdin: Option<InStream>,
        stdout: Option<OutStream>,
        stderr: Option<OutStream>,
    ) -> Result<Application> {
        let user = self.inner.users.lookup(user_name)?;
        let spec = crate::application::ExecSpec {
            class_name: class_name.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
            user: user.clone(),
            cwd: if user.home().is_empty() {
                "/".to_string()
            } else {
                user.home().to_string()
            },
            stdin: stdin.unwrap_or_else(|| self.inner.default_stdin.clone()),
            stdout: stdout.unwrap_or_else(|| self.inner.default_stdout.clone()),
            stderr: stderr.unwrap_or_else(|| self.inner.default_stderr.clone()),
            properties: self.inner.vm.properties().overlay(),
            forced_id: None,
        };
        crate::application::spawn_app(self, spec)
    }

    /// The application the current thread belongs to: the one whose
    /// [`AppContext`] the thread has carried since spawn. A thread with no
    /// context — a system helper, or one spawned
    /// [`detached`](jmp_vm::ThreadBuilder::detached) — belongs to none,
    /// whatever thread group it sits in.
    pub fn app_of_current_thread(&self) -> Option<Application> {
        let ctx = jmp_vm::thread::current_app_context()?;
        self.application(AppId(ctx.app_id()))
    }

    /// Applies the runtime's default quotas, then the per-user
    /// `resource "limit.<resource>:<n>"` grants from the policy, to `ctx` —
    /// the limit table consulted at exec and again at `setUser`.
    pub(crate) fn apply_user_limits(&self, ctx: &AppContext, user: &str) {
        for (kind, limit) in &self.inner.default_limits {
            ctx.limits().set(*kind, *limit);
        }
        let policy = self.inner.vm.policy();
        for permission in policy.permissions_for_user(user).iter() {
            let Permission::Resource(target) = permission else {
                continue;
            };
            let Some(spec) = target.strip_prefix("limit.") else {
                continue;
            };
            let Some((resource, value)) = spec.rsplit_once(':') else {
                continue;
            };
            if let (Some(kind), Ok(limit)) = (ResourceKind::parse(resource), value.parse::<u64>()) {
                ctx.limits().set(kind, limit);
            }
        }
    }

    /// Sets one of `app`'s resource quotas. Requires
    /// `ResourcePermission("setLimits")` — the shell's `ulimit` path.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Security`] without the permission; [`crate::Error::Io`]
    /// if no such application is running.
    pub fn set_limits(&self, id: AppId, kind: ResourceKind, limit: u64) -> Result<()> {
        self.inner
            .vm
            .check_permission(&Permission::resource(Permission::SET_LIMITS))?;
        let app = self.application(id).ok_or_else(|| crate::Error::Io {
            message: format!("no such application: {}", id.0),
        })?;
        app.context().limits().set(kind, limit);
        self.inner.vm.obs().vm_metrics().counter("limits.set").inc();
        Ok(())
    }

    /// All running applications, sorted by id. Collected shard by shard —
    /// the sweep behind `ps`/`top`/`vmstat` holds no lock that could block
    /// a concurrent spawn or reap on another shard.
    pub fn applications(&self) -> Vec<Application> {
        let mut apps = self.inner.apps_by_id.values();
        apps.sort_by_key(Application::id);
        apps
    }

    /// Looks up a running application by id (one shard lock, briefly).
    pub fn application(&self, id: AppId) -> Option<Application> {
        self.inner.apps_by_id.get(&id)
    }

    /// Number of running applications.
    pub fn application_count(&self) -> usize {
        self.inner.apps_by_id.len()
    }

    /// Blocks until no applications remain or `timeout` elapses. Returns
    /// `true` when idle.
    pub fn await_idle(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.application_count() == 0 {
                return true;
            }
            std::thread::sleep(BLOCK_POLL);
        }
        self.application_count() == 0
    }

    /// Stops the whole runtime (VM shutdown): interrupts every VM thread
    /// and waits, up to five seconds in all, for them to finish, so
    /// that no runtime thread still holds the VM once this returns. The
    /// runtime is freed when the last handle to it is dropped — on the
    /// dropping thread, not on a runtime thread still unwinding. A thread
    /// calling this from inside the VM is not waited for.
    pub fn shutdown(&self) {
        let vm = &self.inner.vm;
        vm.exit_unchecked(0);
        let me = jmp_vm::thread::current_id();
        let deadline = std::time::Instant::now() + SHUTDOWN_GRACE;
        for thread in vm.threads() {
            if Some(thread.id()) != me {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                thread.join_timeout(left);
            }
        }
    }

    fn start_reaper(&self, queue: Arc<ReapQueue>) -> Result<()> {
        let weak = Arc::downgrade(&self.inner);
        let watchdogs = self.inner.vm.obs().watchdogs().clone();
        self.inner
            .vm
            .thread_builder()
            .name("app-reaper")
            .group(self.inner.vm.system_group().clone())
            .daemon(true)
            .spawn(move |_vm| {
                // The reaper is a system helper: parked while waiting for
                // work (idle ≠ stalled, no periodic wakeups), beating per
                // teardown — so only a reap that wedges shows up as a stall.
                let heartbeat = watchdogs.register("app-reaper", None);
                loop {
                    heartbeat.park();
                    let next = queue.recv();
                    heartbeat.unpark();
                    let Some(app_id) = next else { break };
                    let Some(inner) = weak.upgrade() else { break };
                    crate::application::reap(&MpRuntime { inner }, app_id);
                }
                watchdogs.deregister("app-reaper");
            })?;
        Ok(())
    }

    /// Starts the background thread that polls the watchdog registry and
    /// raises stall events (see [`jmp_obs::ObsHub::check_watchdogs`]).
    fn start_watchdog_checker(&self) -> Result<()> {
        let weak = Arc::downgrade(&self.inner);
        self.inner
            .vm
            .thread_builder()
            .name("vm-watchdog")
            .group(self.inner.vm.system_group().clone())
            .daemon(true)
            .spawn(move |_vm| loop {
                {
                    let Some(inner) = weak.upgrade() else { return };
                    inner.vm.obs().check_watchdogs();
                }
                if jmp_vm::thread::sleep(std::time::Duration::from_millis(50)).is_err() {
                    return;
                }
            })?;
        Ok(())
    }

    /// Starts the VM profiler thread: every
    /// [`jmp_obs::profile::DEFAULT_SAMPLE_INTERVAL_MS`] it snapshots each
    /// registered thread's published call location into weighted collapsed
    /// stacks (see [`jmp_obs::Profiler::sample_once`]). A no-op tick while
    /// sampling is disabled.
    fn start_profile_sampler(&self) -> Result<()> {
        let weak = Arc::downgrade(&self.inner);
        let interval_ms = jmp_obs::profile::DEFAULT_SAMPLE_INTERVAL_MS;
        self.inner
            .vm
            .thread_builder()
            .name("vm-profiler")
            .group(self.inner.vm.system_group().clone())
            .daemon(true)
            .spawn(move |_vm| loop {
                {
                    let Some(inner) = weak.upgrade() else { return };
                    inner.vm.obs().profiler().sample_once(interval_ms * 1_000);
                }
                if jmp_vm::thread::sleep(std::time::Duration::from_millis(interval_ms)).is_err() {
                    return;
                }
            })?;
        Ok(())
    }
}

impl fmt::Debug for MpRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpRuntime")
            .field("vm", &self.inner.vm.name())
            .field("applications", &self.application_count())
            .field("users", &self.inner.users.len())
            .field("gui", &self.inner.toolkit.is_some())
            .finish()
    }
}
