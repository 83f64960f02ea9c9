use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jmp_obs::{CacheOutcome, EventKind, ObsHub};
use jmp_security::{AccessController, Permission, Policy};
use parking_lot::{Mutex, RwLock};

use crate::classes::{Class, ClassLoader, MaterialRegistry};
use crate::context::{AppContext, ResourceKind};
use crate::decision_cache::DecisionCache;
use crate::epoch_cell::EpochCell;
use crate::error::VmError;
use crate::group::ThreadGroup;
use crate::properties::Properties;
use crate::stack;
use crate::thread::{self, ThreadCtl, ThreadId, VmThread};
use crate::Result;

/// Resolves the *running user* for the current thread — installed by the
/// multi-processing layer, which maps the current thread to its application
/// and the application to its user (paper §5.2/§5.3). Without a resolver,
/// checks proceed with no user (pure code-source policy, as in stock JDK).
pub type UserResolver = Arc<dyn Fn() -> Option<String> + Send + Sync>;

/// The security manager interface consulted by runtime services (paper
/// §3.3). The multi-processing layer installs its *system security manager*
/// implementing the §5.6 rules; with none installed, thread and member
/// checks are permitted and permission checks fall back to pure stack
/// inspection, matching a stock JVM run without a security manager.
pub trait SecurityManager: Send + Sync {
    /// General permission check (`SecurityManager.checkPermission`).
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] to deny.
    fn check_permission(&self, vm: &Vm, perm: &Permission) -> Result<()>;

    /// May the current thread manipulate (interrupt/join-control) `target`?
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] to deny.
    fn check_thread_access(&self, vm: &Vm, target: &VmThread) -> Result<()> {
        let _ = (vm, target);
        Ok(())
    }

    /// May the current thread create threads in / manipulate `group`?
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] to deny.
    fn check_thread_group_access(&self, vm: &Vm, group: &ThreadGroup) -> Result<()> {
        let _ = (vm, group);
        Ok(())
    }

    /// May the current thread reflectively access non-public members of
    /// `class`? (Paper §5.6: public members are free, non-public members
    /// need permission.)
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] to deny.
    fn check_member_access(&self, vm: &Vm, class: &Class) -> Result<()> {
        let _ = (vm, class);
        Ok(())
    }
}

struct VmInner {
    name: String,
    extensions: RwLock<HashMap<String, Arc<dyn std::any::Any + Send + Sync>>>,
    // The three security roots are epoch-published: every access check
    // reads them, every reload rewrites them, and a single RwLock here is
    // the hottest lock in the VM under an exec storm (see `epoch_cell`).
    policy: Arc<EpochCell<Policy>>,
    properties: Properties,
    material: Arc<MaterialRegistry>,
    system_loader: ClassLoader,
    system_group: ThreadGroup,
    main_group: ThreadGroup,
    threads: RwLock<HashMap<ThreadId, VmThread>>,
    next_thread_id: AtomicU64,
    security_manager: EpochCell<dyn SecurityManager>,
    user_resolver: EpochCell<dyn Fn() -> Option<String> + Send + Sync>,
    decisions: DecisionCache,
    obs: ObsHub,
    shutdown: AtomicBool,
    shutdown_at: Mutex<Option<Instant>>,
    exit_code: Mutex<Option<i32>>,
}

/// The virtual machine: thread and group bookkeeping, the class system, the
/// system properties, the policy, and the Fig-1 lifetime rule ("once all
/// non-daemon threads of an application have finished, the JVM exits").
///
/// Cheap handle; clones refer to the same VM.
#[derive(Clone)]
pub struct Vm {
    inner: Arc<VmInner>,
}

/// Configures and builds a [`Vm`].
pub struct VmBuilder {
    name: String,
    policy: Policy,
    properties: Vec<(String, String)>,
}

impl VmBuilder {
    /// Sets the VM's display name.
    pub fn name(mut self, name: impl Into<String>) -> VmBuilder {
        self.name = name.into();
        self
    }

    /// Sets the security policy.
    pub fn policy(mut self, policy: Policy) -> VmBuilder {
        self.policy = policy;
        self
    }

    /// Overrides or adds a system property.
    pub fn property(mut self, key: impl Into<String>, value: impl Into<String>) -> VmBuilder {
        self.properties.push((key.into(), value.into()));
        self
    }

    /// Builds the VM: creates the `system` root group, the `main` group
    /// beneath it, and the system class loader whose protection domains are
    /// resolved against the policy at class-definition time.
    pub fn build(self) -> Vm {
        let policy = Arc::new(EpochCell::new(Some(Arc::new(self.policy))));
        let resolver_policy = Arc::clone(&policy);
        let material = Arc::new(MaterialRegistry::new());
        let system_loader = ClassLoader::new_system(
            "system",
            Arc::clone(&material),
            Arc::new(move |source| {
                resolver_policy
                    .load()
                    .expect("policy root is always published")
                    .permissions_for(source)
            }),
        );
        let system_group = ThreadGroup::new_root("system");
        let main_group = system_group
            .new_child("main")
            .expect("fresh root group cannot be destroyed");
        let properties = Properties::system_defaults();
        for (k, v) in self.properties {
            properties.set(k, v);
        }
        let obs = ObsHub::new();
        let obs_for_loader = obs.clone();
        system_loader.set_define_observer(Arc::new(move |name, via_reload| {
            let vm_metrics = obs_for_loader.vm_metrics();
            vm_metrics.counter("classes.defined").inc();
            let kind = if via_reload {
                vm_metrics.counter("classes.reloaded").inc();
                EventKind::ClassReloaded
            } else {
                EventKind::ClassDefined
            };
            let app = obs_for_loader.current_app();
            if let Some(registry) = app.and_then(|id| obs_for_loader.existing_app_registry(id)) {
                registry.counter("classes.defined").inc();
                if via_reload {
                    registry.counter("classes.reloaded").inc();
                }
            }
            obs_for_loader.sink().publish(kind, app, None, name);
        }));
        Vm {
            inner: Arc::new(VmInner {
                name: self.name,
                extensions: RwLock::new(HashMap::new()),
                policy,
                properties,
                material,
                system_loader,
                system_group,
                main_group,
                threads: RwLock::new(HashMap::new()),
                next_thread_id: AtomicU64::new(1),
                security_manager: EpochCell::new(None),
                user_resolver: EpochCell::new(None),
                decisions: DecisionCache::new(),
                obs,
                shutdown: AtomicBool::new(false),
                shutdown_at: Mutex::new(None),
                exit_code: Mutex::new(None),
            }),
        }
    }
}

thread_local! {
    static CURRENT_VM: RefCell<Option<Vm>> = const { RefCell::new(None) };
}

impl Vm {
    /// Starts building a VM.
    pub fn builder() -> VmBuilder {
        VmBuilder {
            name: "jmp".into(),
            policy: Policy::new(),
            properties: Vec::new(),
        }
    }

    /// Builds a VM with defaults (empty policy, default properties).
    pub fn new() -> Vm {
        Vm::builder().build()
    }

    /// The VM executing on the current thread, if this is a VM thread.
    pub fn current() -> Option<Vm> {
        CURRENT_VM.with(|c| c.borrow().clone())
    }

    /// The VM's display name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Returns `true` if `other` is a handle to the same VM.
    pub fn same_vm(&self, other: &Vm) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Attaches a named extension object to the VM. Used by higher layers
    /// (e.g. the multi-processing runtime) to make themselves discoverable
    /// from any VM thread via [`Vm::current`]. Requires
    /// `RuntimePermission("setVmExtension")`.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] if the caller lacks the permission.
    pub fn set_extension(
        &self,
        name: impl Into<String>,
        value: Arc<dyn std::any::Any + Send + Sync>,
    ) -> Result<()> {
        self.check_permission(&Permission::runtime("setVmExtension"))?;
        self.inner.extensions.write().insert(name.into(), value);
        Ok(())
    }

    /// Fetches a typed extension previously attached with
    /// [`Vm::set_extension`].
    pub fn extension<T: Send + Sync + 'static>(&self, name: &str) -> Option<Arc<T>> {
        self.inner
            .extensions
            .read()
            .get(name)
            .cloned()?
            .downcast::<T>()
            .ok()
    }

    /// The VM's observability hub: the event stream, the per-application
    /// metrics registries, and the security audit trail. Reading it is free
    /// at this layer; the multi-processing runtime gates read-out behind
    /// `RuntimePermission("readMetrics")` / `RuntimePermission("readAuditLog")`.
    pub fn obs(&self) -> &ObsHub {
        &self.inner.obs
    }

    // -- policy & security ---------------------------------------------------

    /// The current security policy.
    pub fn policy(&self) -> Arc<Policy> {
        self.inner
            .policy
            .load()
            .expect("policy root is always published")
    }

    /// Replaces the policy. Requires `RuntimePermission("setPolicy")`.
    ///
    /// The publication never queues behind in-flight checks (the policy
    /// root is striped per reader thread), so a reload completes even while every other thread
    /// spins on cold checks. Any lazily cached per-user grants attached to
    /// the incoming policy are invalidated before it is published, and the
    /// decision-cache epoch is bumped after — together with the
    /// capture-epoch-before-walk rule in [`Vm::access_check`], no
    /// pre-reload decision or grant set can serve a post-reload check.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] if the caller lacks the permission.
    pub fn set_policy(&self, policy: Policy) -> Result<()> {
        self.check_permission(&Permission::runtime("setPolicy"))?;
        policy.invalidate_user_store();
        self.inner.policy.store(Some(Arc::new(policy)));
        self.flush_access_cache();
        Ok(())
    }

    /// Drops every cached access-control decision by bumping the cache
    /// epoch. Called automatically by [`Vm::set_policy`],
    /// [`Vm::set_security_manager`] and [`Vm::set_user_resolver`]; exposed
    /// for benchmarks and tests that need a cold cache on an unchanged
    /// policy.
    pub fn flush_access_cache(&self) {
        self.inner.decisions.invalidate();
        self.inner.obs.record_access_cache_invalidation();
    }

    /// Pure stack-inspection check against the policy, combining user-based
    /// grants (paper §5.3) via the installed user resolver. This is what
    /// security-manager implementations delegate to — the analogue of
    /// `AccessController.checkPermission`.
    ///
    /// The warm path is O(1): the stack is reduced to a [fingerprint of the
    /// visible domain set](stack::probe_fingerprint) without snapshotting a
    /// context, and a granted decision cached for `(fingerprint, demand,
    /// running user)` under the current policy epoch is returned directly.
    /// Denials are never cached — every denial re-runs the full walk so the
    /// audit record names exactly the refusing domain.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] naming the refusing domain.
    pub fn access_check(&self, perm: &Permission) -> Result<()> {
        let started = Instant::now();
        let (fingerprint, depth) = stack::probe_fingerprint();
        if fingerprint.unique == 0 {
            // Empty visible domain set: only runtime-internal code executes,
            // which is fully trusted. No context, no policy, no cache.
            let latency_ns = started.elapsed().as_nanos() as u64;
            self.inner.obs.record_access_check(
                "",
                None,
                depth,
                None,
                latency_ns,
                CacheOutcome::Bypass,
            );
            return Ok(());
        }
        // Capture the epoch before consulting anything the epoch guards
        // (user resolver, policy): if a reload races this check, the stale
        // insert below can never serve a post-reload lookup.
        let epoch = self.inner.decisions.epoch();
        let user = self.current_user();
        // Per-site inline cache: when this check was triggered from inside
        // an interpreted `CallNative` site, the site remembers its last
        // grant, so a warm repeat is answered by one epoch/fingerprint
        // compare — before even hashing into the shared decision cache.
        if crate::decision_cache::site_check(
            epoch,
            fingerprint,
            perm,
            user.as_deref(),
            self.inner.obs.demands(),
        ) {
            let latency_ns = started.elapsed().as_nanos() as u64;
            self.inner.obs.record_access_check(
                "",
                None,
                depth,
                user.as_deref(),
                latency_ns,
                CacheOutcome::Hit,
            );
            return Ok(());
        }
        // A hit also bumps the demand-ledger cell captured when the decision
        // was first derived (one relaxed fetch_add inside the lookup), so
        // the always-on ledger adds no hashing, strings, or clock here.
        // With a native site active, the hit additionally primes the site's
        // inline cache (carrying the cell along) for the next repeat.
        let shared_hit = if crate::decision_cache::has_active_site() {
            match self.inner.decisions.lookup_granted_with_cell(
                fingerprint,
                perm,
                user.as_deref(),
                self.inner.obs.demands(),
            ) {
                Some(cell) => {
                    crate::decision_cache::site_store(
                        epoch,
                        fingerprint,
                        perm,
                        user.as_deref(),
                        cell,
                    );
                    true
                }
                None => false,
            }
        } else {
            self.inner.decisions.lookup_granted(
                fingerprint,
                perm,
                user.as_deref(),
                self.inner.obs.demands(),
            )
        };
        if shared_hit {
            let latency_ns = started.elapsed().as_nanos() as u64;
            self.inner.obs.record_access_check(
                "",
                None,
                depth,
                user.as_deref(),
                latency_ns,
                CacheOutcome::Hit,
            );
            return Ok(());
        }
        let ctx = stack::current_access_context();
        let ledger = self.inner.obs.demands();
        let mut routes = Vec::new();
        let result = if ledger.enabled() {
            AccessController::check_with_routes(
                &ctx,
                perm,
                user.as_deref(),
                &self.policy(),
                &mut routes,
            )
        } else {
            AccessController::check_with(&ctx, perm, user.as_deref(), &self.policy())
        };
        let latency_ns = started.elapsed().as_nanos() as u64;
        // The hub only reads the permission/context strings on a denial, so
        // the granted (hot) path skips both display allocations. The demand
        // ledger *does* format the permission here — but only on the slow
        // (full-walk) path, never on a warm hit.
        match &result {
            Ok(()) => {
                let demand_cell = if routes.is_empty() {
                    // Every visible domain was fully trusted: no policy
                    // grant was exercised, so there is nothing to infer.
                    None
                } else {
                    let at_ms = self.inner.obs.clock().millis_of(started);
                    let app = self.inner.obs.current_app();
                    let permission = perm.to_string();
                    let mut first_cell = None;
                    for route in &routes {
                        let cell = ledger.record(
                            app,
                            &route.source,
                            user.as_deref(),
                            &permission,
                            true,
                            route.via_user,
                            at_ms,
                        );
                        // Warm hits bump only the first route's cell; rows
                        // for further domains on the same stack keep their
                        // first-walk counts (existence, not exact totals, is
                        // what inference needs from them).
                        if first_cell.is_none() {
                            first_cell = cell;
                        }
                    }
                    first_cell
                };
                self.inner.decisions.insert_granted(
                    fingerprint,
                    perm,
                    user.as_deref(),
                    epoch,
                    demand_cell.clone(),
                );
                // Prime the triggering native call site's inline cache
                // (no-op when the check came from outside the interpreter).
                crate::decision_cache::site_store(
                    epoch,
                    fingerprint,
                    perm,
                    user.as_deref(),
                    demand_cell,
                );
                self.inner.obs.record_access_check(
                    "",
                    None,
                    depth,
                    user.as_deref(),
                    latency_ns,
                    CacheOutcome::Miss,
                );
            }
            Err(err) => {
                if let Some(refused) = routes.iter().find(|r| r.refused) {
                    ledger.record(
                        self.inner.obs.current_app(),
                        &refused.source,
                        user.as_deref(),
                        &perm.to_string(),
                        false,
                        false,
                        self.inner.obs.clock().millis_of(started),
                    );
                }
                self.inner.obs.record_access_check(
                    &perm.to_string(),
                    Some(&err.to_string()),
                    depth,
                    user.as_deref(),
                    latency_ns,
                    CacheOutcome::Bypass,
                );
            }
        }
        result?;
        Ok(())
    }

    /// Clears the demand ledger and flushes the access cache. The flush is
    /// mandatory, not hygiene: cached decisions hold `Arc` handles to ledger
    /// cells, and bumping a cell from a cleared ledger would count demands
    /// into rows no report can see.
    pub fn reset_demands(&self) {
        self.inner.obs.demands().reset();
        self.flush_access_cache();
    }

    /// Full permission check: consults the installed security manager, or
    /// falls back to [`Vm::access_check`] when none is installed.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] to deny.
    pub fn check_permission(&self, perm: &Permission) -> Result<()> {
        match self.inner.security_manager.load() {
            Some(sm) => sm.check_permission(self, perm),
            None => self.access_check(perm),
        }
    }

    /// The installed security manager, if any.
    pub fn security_manager(&self) -> Option<Arc<dyn SecurityManager>> {
        self.inner.security_manager.load()
    }

    /// Installs a security manager. Requires
    /// `RuntimePermission("setSecurityManager")`.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] if the caller lacks the permission.
    pub fn set_security_manager(&self, sm: Arc<dyn SecurityManager>) -> Result<()> {
        self.check_permission(&Permission::runtime("setSecurityManager"))?;
        self.inner.security_manager.store(Some(sm));
        self.flush_access_cache();
        Ok(())
    }

    /// The running user for the current thread, per the installed resolver.
    pub fn current_user(&self) -> Option<String> {
        self.inner.user_resolver.load().and_then(|r| r())
    }

    /// Installs the user resolver. Requires
    /// `RuntimePermission("setUserResolver")`.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] if the caller lacks the permission.
    pub fn set_user_resolver(&self, resolver: UserResolver) -> Result<()> {
        self.check_permission(&Permission::runtime("setUserResolver"))?;
        self.inner.user_resolver.store(Some(resolver));
        self.flush_access_cache();
        Ok(())
    }

    // -- classes -------------------------------------------------------------

    /// The shared class-material registry (the "class path").
    pub fn material(&self) -> &Arc<MaterialRegistry> {
        &self.inner.material
    }

    /// The system class loader.
    pub fn system_loader(&self) -> &ClassLoader {
        &self.inner.system_loader
    }

    /// Creates a child class loader of `parent`. Requires
    /// `RuntimePermission("createClassLoader")`.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] if the caller lacks the permission.
    pub fn create_loader(&self, name: &str, parent: &ClassLoader) -> Result<ClassLoader> {
        self.check_permission(&Permission::runtime("createClassLoader"))?;
        Ok(parent.new_child(name))
    }

    // -- properties ----------------------------------------------------------

    /// The JVM-wide system properties (shared by all applications; see the
    /// paper's `SystemProperties` discussion, §5.5 and Fig 5).
    pub fn properties(&self) -> &Properties {
        &self.inner.properties
    }

    // -- groups & threads ----------------------------------------------------

    /// The root (`system`) thread group: runtime helper threads live here,
    /// not in any application's group (paper Feature 6 / §5.4).
    pub fn system_group(&self) -> &ThreadGroup {
        &self.inner.system_group
    }

    /// The `main` group, beneath which application groups are created.
    pub fn main_group(&self) -> &ThreadGroup {
        &self.inner.main_group
    }

    /// Starts configuring a new VM thread.
    pub fn thread_builder(&self) -> ThreadBuilder {
        ThreadBuilder {
            vm: self.clone(),
            name: None,
            group: None,
            daemon: false,
            app: None,
            detach_app: false,
        }
    }

    /// Live threads, sorted by id.
    pub fn threads(&self) -> Vec<VmThread> {
        let mut threads: Vec<VmThread> = self.inner.threads.read().values().cloned().collect();
        threads.sort_by_key(VmThread::id);
        threads
    }

    /// Looks up a live thread by id.
    pub fn find_thread(&self, id: ThreadId) -> Option<VmThread> {
        self.inner.threads.read().get(&id).cloned()
    }

    /// Number of live threads.
    pub fn thread_count(&self) -> usize {
        self.inner.threads.read().len()
    }

    /// Interrupts `target`, after consulting the security manager's
    /// thread-access rule (paper §5.6).
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] if access to the target thread is denied.
    pub fn interrupt_thread(&self, target: &VmThread) -> Result<()> {
        if let Some(sm) = self.security_manager() {
            sm.check_thread_access(self, target)?;
        }
        target.interrupt_raw();
        Ok(())
    }

    // -- running applications (single-application mode, paper §3.1) ----------

    /// Loads `class_name` through the system loader and spawns a non-daemon
    /// thread in the `main` group running its `main(args)` — what `java
    /// MyClass` does (paper §3.1). If `main` returns an error the thread
    /// panics with it, surfacing through [`VmThread::join`].
    ///
    /// # Errors
    ///
    /// [`VmError::ClassNotFound`]/[`VmError::NoMainMethod`] for bad classes;
    /// spawn errors otherwise.
    pub fn run_class(&self, class_name: &str, args: Vec<String>) -> Result<VmThread> {
        let class = self.inner.system_loader.load_class(class_name)?;
        let thread_name = format!("main:{class_name}");
        self.thread_builder()
            .name(thread_name)
            .group(self.inner.main_group.clone())
            .spawn(move |_vm| {
                if let Err(err) = class.run_main(args) {
                    panic!("uncaught exception in main: {err}");
                }
            })
    }

    /// Runs `class_name` to completion: [`Vm::run_class`] followed by
    /// [`Vm::await_termination`].
    ///
    /// # Errors
    ///
    /// As [`Vm::run_class`].
    pub fn run(&self, class_name: &str, args: Vec<String>) -> Result<i32> {
        self.run_class(class_name, args)?;
        Ok(self.await_termination())
    }

    /// Blocks until no non-daemon threads remain anywhere in the VM (Fig 1),
    /// or until a [`Vm::exit`] grace period expires. Returns the exit code
    /// (0 unless [`Vm::exit`] supplied one).
    pub fn await_termination(&self) -> i32 {
        const EXIT_GRACE: Duration = Duration::from_secs(2);
        loop {
            if self
                .inner
                .system_group
                .wait_nondaemon_zero(Duration::from_millis(20))
            {
                break;
            }
            if self.inner.shutdown.load(Ordering::SeqCst) {
                let expired = self
                    .inner
                    .shutdown_at
                    .lock()
                    .is_none_or(|at| at.elapsed() > EXIT_GRACE);
                if expired {
                    break;
                }
            }
        }
        self.inner.exit_code.lock().unwrap_or(0)
    }

    /// Returns `true` once [`Vm::exit`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stops the VM: requires `RuntimePermission("exitVM")` — the check whose
    /// *absence* of scoping the paper criticizes ("an application can exit
    /// the virtual machine by calling `System.exit()`, since the 'system' is
    /// the same as the application", §4). The multi-processing layer maps
    /// applications' exits to `Application.exit` instead and reserves this
    /// for the system.
    ///
    /// # Errors
    ///
    /// [`VmError::Security`] if the caller lacks the permission.
    pub fn exit(&self, code: i32) -> Result<()> {
        self.check_permission(&Permission::runtime("exitVM"))?;
        self.exit_unchecked(code);
        Ok(())
    }

    /// Stops the VM without a permission check (bootstrap/host use).
    pub fn exit_unchecked(&self, code: i32) {
        {
            let mut exit_code = self.inner.exit_code.lock();
            if exit_code.is_none() {
                *exit_code = Some(code);
            }
        }
        if !self.inner.shutdown.swap(true, Ordering::SeqCst) {
            *self.inner.shutdown_at.lock() = Some(Instant::now());
        }
        for thread in self.threads() {
            thread.interrupt_raw();
        }
    }
}

impl Default for Vm {
    fn default() -> Vm {
        Vm::new()
    }
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("name", &self.inner.name)
            .field("threads", &self.thread_count())
            .field("nondaemon", &self.inner.system_group.nondaemon_count())
            .field("shutdown", &self.is_shutdown())
            .finish()
    }
}

/// Builder for VM threads (see [`Vm::thread_builder`]).
pub struct ThreadBuilder {
    vm: Vm,
    name: Option<String>,
    group: Option<ThreadGroup>,
    daemon: bool,
    app: Option<Arc<AppContext>>,
    detach_app: bool,
}

impl ThreadBuilder {
    /// Names the thread.
    pub fn name(mut self, name: impl Into<String>) -> ThreadBuilder {
        self.name = Some(name.into());
        self
    }

    /// Puts the thread in `group`. Defaults to the spawning VM thread's
    /// group ("created in whatever thread group happens to be current",
    /// paper §4), or the `main` group when spawning from a non-VM thread.
    pub fn group(mut self, group: ThreadGroup) -> ThreadBuilder {
        self.group = Some(group);
        self
    }

    /// Marks the thread daemon (default: non-daemon).
    pub fn daemon(mut self, daemon: bool) -> ThreadBuilder {
        self.daemon = daemon;
        self
    }

    /// Runs the thread under `app`'s ownership: the thread carries the
    /// context (readable via [`thread::current_app_context`]) and counts
    /// against the application's thread quota. Defaults to the spawning
    /// thread's own context, so application threads propagate ownership to
    /// everything they spawn.
    pub fn app_context(mut self, app: Arc<AppContext>) -> ThreadBuilder {
        self.app = Some(app);
        self
    }

    /// Detaches the thread from application ownership even when spawned by
    /// an application thread: it carries no [`AppContext`] and is charged to
    /// no ledger. For runtime-infrastructure threads (the toolkit's
    /// X-connection thread, watchdogs) that happen to be started lazily from
    /// whatever application touched the facility first — billing a VM-lifetime
    /// helper to that application would leak a thread slot the application
    /// can never drain.
    pub fn detached(mut self) -> ThreadBuilder {
        self.detach_app = true;
        self
    }

    /// Spawns the thread. The body receives the VM handle; its protection
    /// context inherits the spawning thread's access-control context, as in
    /// the JDK.
    ///
    /// # Errors
    ///
    /// [`VmError::VmShutdown`] if the VM is stopping;
    /// [`VmError::Security`] if the security manager denies access to the
    /// target group; [`VmError::IllegalState`] if the group is destroyed.
    pub fn spawn(self, body: impl FnOnce(Vm) + Send + 'static) -> Result<VmThread> {
        let vm = self.vm;
        if vm.inner.shutdown.load(Ordering::SeqCst) {
            return Err(VmError::VmShutdown);
        }
        let group = match self.group {
            Some(group) => group,
            None => match thread::current() {
                Some(current) => current.group().clone(),
                None => vm.inner.main_group.clone(),
            },
        };
        if let Some(sm) = vm.security_manager() {
            sm.check_thread_group_access(&vm, &group)?;
        }
        // Ownership propagates: a thread spawned by an application thread
        // belongs to that application unless explicitly re-homed or detached.
        let app = if self.detach_app {
            None
        } else {
            self.app.or_else(thread::current_app_context)
        };
        if let Some(app) = &app {
            app.try_charge(ResourceKind::Threads, 1)?;
        }
        let id = ThreadId(vm.inner.next_thread_id.fetch_add(1, Ordering::Relaxed));
        let name = self.name.unwrap_or_else(|| format!("thread-{}", id.0));
        let ctl = ThreadCtl::new(id, name.clone(), self.daemon, group.clone(), app.clone());
        if let Err(err) = group.register_thread(id, self.daemon) {
            if let Some(app) = &app {
                app.uncharge(ResourceKind::Threads, 1);
            }
            return Err(err);
        }
        let handle = VmThread::from_ctl(Arc::clone(&ctl));
        vm.inner.threads.write().insert(id, handle.clone());

        let inherited = stack::capture_context();
        // Like the access-control context, the trace context crosses the
        // spawn: work the child does stays causally attached to the trace
        // that requested it.
        let inherited_trace = jmp_obs::trace::current();
        let vm_for_thread = vm.clone();
        let daemon = self.daemon;
        let spawn_result = std::thread::Builder::new().name(name).spawn(move || {
            let _guard = thread::enter_thread(Arc::clone(&ctl));
            CURRENT_VM.with(|c| *c.borrow_mut() = Some(vm_for_thread.clone()));
            stack::set_inherited(inherited);
            jmp_obs::trace::install(inherited_trace);
            let outcome = catch_unwind(AssertUnwindSafe(|| body(vm_for_thread.clone())));
            let panic_message = outcome.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "unknown panic".to_string())
            });
            jmp_obs::trace::clear();
            stack::clear();
            crate::profloc::clear();
            CURRENT_VM.with(|c| *c.borrow_mut() = None);
            vm_for_thread.inner.threads.write().remove(&id);
            // Release the ledger slot *before* deregistering: the group's
            // empty hook can trigger a reap that observes the ledger, and a
            // drained app must read as drained by then.
            if let Some(app) = &ctl.app {
                app.uncharge(ResourceKind::Threads, 1);
            }
            group.deregister_thread(id, daemon);
            ctl.mark_finished(panic_message);
        });
        match spawn_result {
            Ok(_join) => Ok(handle),
            Err(err) => {
                // Roll back bookkeeping if the OS refused the thread.
                vm.inner.threads.write().remove(&id);
                handle.group().deregister_thread(id, daemon);
                if let Some(app) = &app {
                    app.uncharge(ResourceKind::Threads, 1);
                }
                Err(VmError::Io {
                    message: format!("OS thread spawn failed: {err}"),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassDef;
    use jmp_security::CodeSource;
    use std::sync::atomic::AtomicUsize;

    fn vm_with_class(
        name: &str,
        main: impl Fn(Vec<String>) -> Result<()> + Send + Sync + 'static,
    ) -> Vm {
        let vm = Vm::builder().name("test-vm").build();
        vm.material()
            .register(
                ClassDef::builder(name).main(main).build(),
                CodeSource::local("file:/sys/classes"),
            )
            .unwrap();
        vm
    }

    #[test]
    fn run_class_to_completion() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let vm = vm_with_class("Hello", |args| {
            assert_eq!(args, vec!["world".to_string()]);
            RAN.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let code = vm.run("Hello", vec!["world".into()]).unwrap();
        assert_eq!(code, 0);
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
        assert_eq!(vm.thread_count(), 0);
    }

    #[test]
    fn vm_stays_alive_while_nondaemon_runs() {
        let vm = vm_with_class("Sleeper", |_| {
            thread::sleep(Duration::from_millis(50))?;
            Ok(())
        });
        let start = Instant::now();
        vm.run("Sleeper", vec![]).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn daemon_threads_do_not_block_termination() {
        // Fig 1: the VM exits even though a daemon thread still runs.
        let vm = vm_with_class("SpawnsDaemon", |_| {
            let vm = Vm::current().expect("on a VM thread");
            vm.thread_builder()
                .name("background")
                .daemon(true)
                .spawn(|_| {
                    // Runs "forever" — until the VM stops caring.
                    let _ = thread::sleep(Duration::from_secs(600));
                })
                .unwrap();
            Ok(())
        });
        let start = Instant::now();
        vm.run("SpawnsDaemon", vec![]).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "daemon thread must not keep the VM alive"
        );
    }

    #[test]
    fn nondaemon_spawned_thread_keeps_vm_alive() {
        static DONE: AtomicUsize = AtomicUsize::new(0);
        let vm = vm_with_class("SpawnsWorker", |_| {
            let vm = Vm::current().unwrap();
            vm.thread_builder()
                .name("worker")
                .spawn(|_| {
                    thread::sleep(Duration::from_millis(60)).unwrap();
                    DONE.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            Ok(())
        });
        vm.run("SpawnsWorker", vec![]).unwrap();
        assert_eq!(
            DONE.load(Ordering::SeqCst),
            1,
            "VM must wait for the non-daemon worker (Fig 1)"
        );
    }

    #[test]
    fn spawned_thread_inherits_group_of_spawner() {
        let vm = Vm::new();
        let custom = vm.main_group().new_child("custom").unwrap();
        let vm2 = vm.clone();
        let t = vm
            .thread_builder()
            .group(custom.clone())
            .name("outer")
            .spawn(move |_| {
                let inner = vm2.thread_builder().name("inner").spawn(|_| {}).unwrap();
                assert_eq!(inner.group().name(), "custom");
                inner.join().unwrap();
            })
            .unwrap();
        t.join().unwrap();
        assert!(custom.same_group(t.group()));
    }

    #[test]
    fn exit_interrupts_everything() {
        let vm = vm_with_class("Stuck", |_| {
            // Blocks forever unless interrupted.
            match thread::sleep(Duration::from_secs(600)) {
                Err(VmError::Interrupted) => Ok(()),
                other => panic!("expected interruption, got {other:?}"),
            }
        });
        let t = vm.run_class("Stuck", vec![]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        vm.exit_unchecked(3);
        assert_eq!(vm.await_termination(), 3);
        t.join().unwrap();
    }

    #[test]
    fn exit_requires_permission_for_untrusted_code() {
        let vm = Vm::new();
        // On a plain OS thread the stack is empty => trusted; simulate an
        // untrusted caller with an explicit frame.
        let untrusted = Arc::new(jmp_security::ProtectionDomain::untrusted(
            CodeSource::remote("http://evil/x"),
        ));
        let denied = stack::call_as("Evil", untrusted, || vm.exit(1));
        assert!(denied.unwrap_err().is_security());
        assert!(!vm.is_shutdown());
        // Trusted (empty stack) callers may exit.
        vm.exit(0).unwrap();
        assert!(vm.is_shutdown());
    }

    #[test]
    fn run_class_missing_is_class_not_found() {
        let vm = Vm::new();
        assert!(matches!(
            vm.run_class("Nope", vec![]).unwrap_err(),
            VmError::ClassNotFound { .. }
        ));
    }

    #[test]
    fn main_error_surfaces_as_thread_panic() {
        let vm = vm_with_class("Fails", |_| Err(VmError::illegal_state("deliberate")));
        let t = vm.run_class("Fails", vec![]).unwrap();
        assert!(matches!(
            t.join().unwrap_err(),
            VmError::ThreadPanicked { .. }
        ));
        vm.await_termination();
    }

    #[test]
    fn spawn_after_shutdown_is_rejected() {
        let vm = Vm::new();
        vm.exit_unchecked(0);
        assert!(matches!(
            vm.thread_builder().spawn(|_| {}).unwrap_err(),
            VmError::VmShutdown
        ));
    }

    #[test]
    fn current_vm_is_visible_inside_threads() {
        let vm = Vm::new();
        let vm2 = vm.clone();
        let t = vm
            .thread_builder()
            .spawn(move |vm_arg| {
                assert!(vm_arg.same_vm(&Vm::current().unwrap()));
                assert!(vm_arg.same_vm(&vm2));
            })
            .unwrap();
        t.join().unwrap();
        assert!(Vm::current().is_none(), "not set on non-VM threads");
    }

    #[test]
    fn threads_listing_and_lookup() {
        let vm = Vm::new();
        let t = vm
            .thread_builder()
            .name("lister")
            .spawn(|_| {
                thread::sleep(Duration::from_millis(50)).unwrap();
            })
            .unwrap();
        assert_eq!(vm.thread_count(), 1);
        assert_eq!(vm.threads()[0].name(), "lister");
        assert!(vm.find_thread(t.id()).is_some());
        t.join().unwrap();
        assert_eq!(vm.thread_count(), 0);
        assert!(vm.find_thread(t.id()).is_none());
    }

    #[test]
    fn security_manager_gates_thread_spawn_and_interrupt() {
        struct DenyAll;
        impl SecurityManager for DenyAll {
            fn check_permission(&self, _vm: &Vm, perm: &Permission) -> Result<()> {
                // Allow installing the manager itself and misc checks.
                if matches!(perm, Permission::Runtime(t) if t == "setSecurityManager") {
                    Ok(())
                } else {
                    Err(VmError::Security(jmp_security::SecurityError::denied(
                        perm, "DenyAll",
                    )))
                }
            }
            fn check_thread_access(&self, _vm: &Vm, target: &VmThread) -> Result<()> {
                Err(VmError::Security(jmp_security::SecurityError::denied(
                    &Permission::runtime("modifyThread"),
                    format!("DenyAll for {}", target.name()),
                )))
            }
            fn check_thread_group_access(&self, _vm: &Vm, _group: &ThreadGroup) -> Result<()> {
                Err(VmError::Security(jmp_security::SecurityError::denied(
                    &Permission::runtime("modifyThreadGroup"),
                    "DenyAll",
                )))
            }
        }
        let vm = Vm::new();
        let victim = vm
            .thread_builder()
            .name("victim")
            .daemon(true)
            .spawn(|_| {
                let _ = thread::sleep(Duration::from_secs(600));
            })
            .unwrap();
        vm.set_security_manager(Arc::new(DenyAll)).unwrap();
        assert!(vm.thread_builder().spawn(|_| {}).unwrap_err().is_security());
        assert!(vm.interrupt_thread(&victim).unwrap_err().is_security());
        assert!(!victim.is_interrupted());
        victim.interrupt_raw();
    }

    #[test]
    fn user_resolver_feeds_access_checks() {
        use jmp_security::{FileActions, PermissionCollection};
        let mut policy = Policy::new();
        policy.grant_user(
            "alice",
            vec![Permission::file("/home/alice/-", FileActions::ALL)],
        );
        policy.grant_code(
            CodeSource::local("file:/apps/-"),
            vec![Permission::exercise_user_permissions()],
        );
        let vm = Vm::builder().policy(policy).build();
        vm.set_user_resolver(Arc::new(|| Some("alice".to_string())))
            .unwrap();

        let editor = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::local("file:/apps/editor"),
            vm.policy()
                .permissions_for(&CodeSource::local("file:/apps/editor")),
        ));
        let alice_file = Permission::file("/home/alice/notes", FileActions::READ);
        stack::call_as("Editor", editor, || {
            vm.check_permission(&alice_file).unwrap();
            vm.check_permission(&Permission::file("/home/bob/notes", FileActions::READ))
                .unwrap_err();
        });

        // Untrusted code can't exercise alice's grants.
        let applet = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::remote("http://applets/x"),
            PermissionCollection::new(),
        ));
        stack::call_as("Applet", applet, || {
            assert!(vm.check_permission(&alice_file).unwrap_err().is_security());
        });
    }

    #[test]
    fn extensions_are_typed_and_permission_gated() {
        let vm = Vm::new();
        vm.set_extension("answer", Arc::new(42u32)).unwrap();
        assert_eq!(*vm.extension::<u32>("answer").unwrap(), 42);
        assert!(vm.extension::<String>("answer").is_none(), "typed lookup");
        assert!(vm.extension::<u32>("missing").is_none());

        // Untrusted code may not attach extensions.
        let untrusted = Arc::new(jmp_security::ProtectionDomain::untrusted(
            CodeSource::remote("http://evil/x"),
        ));
        let denied = stack::call_as("Evil", untrusted, || {
            vm.set_extension("evil", Arc::new(1u8))
        });
        assert!(denied.unwrap_err().is_security());
        assert!(vm.extension::<u8>("evil").is_none());
    }

    #[test]
    fn create_loader_requires_permission() {
        let vm = Vm::new();
        // Trusted (host) context: allowed.
        let child = vm.create_loader("child", vm.system_loader()).unwrap();
        assert_eq!(child.parent().unwrap().id(), vm.system_loader().id());
        // Untrusted frame: denied.
        let untrusted = Arc::new(jmp_security::ProtectionDomain::untrusted(
            CodeSource::remote("http://evil/x"),
        ));
        let denied = stack::call_as("Evil", untrusted, || {
            vm.create_loader("evil", vm.system_loader())
        });
        assert!(denied.unwrap_err().is_security());
    }

    #[test]
    fn set_policy_requires_permission() {
        let vm = Vm::new();
        let untrusted = Arc::new(jmp_security::ProtectionDomain::untrusted(
            CodeSource::remote("http://evil/x"),
        ));
        let denied = stack::call_as("Evil", untrusted, || vm.set_policy(Policy::new()));
        assert!(denied.unwrap_err().is_security());
        // Host context may replace the policy.
        let mut policy = Policy::new();
        policy.grant_user("alice", vec![Permission::runtime("x")]);
        vm.set_policy(policy).unwrap();
        assert!(vm.policy().user_implies("alice", &Permission::runtime("x")));
    }

    #[test]
    fn access_checks_feed_the_obs_hub() {
        let vm = Vm::new();
        // Empty stack => trusted => granted.
        vm.check_permission(&Permission::runtime("harmless"))
            .unwrap();
        let untrusted = Arc::new(jmp_security::ProtectionDomain::untrusted(
            CodeSource::remote("http://evil/x"),
        ));
        stack::call_as("Evil", untrusted, || {
            assert!(vm
                .check_permission(&Permission::runtime("forbidden"))
                .is_err());
        });
        let metrics = vm.obs().vm_metrics();
        assert_eq!(metrics.counter("security.checks").get(), 2);
        assert_eq!(metrics.counter("security.denied").get(), 1);
        assert_eq!(metrics.histogram("security.check_ns").count(), 2);
        let denials = vm.obs().audit().recent();
        assert_eq!(denials.len(), 1, "only the denial is audited");
        assert!(denials[0].permission.contains("forbidden"));
        let events = vm.obs().sink().recent();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::AccessDenied);
    }

    #[test]
    fn warm_checks_hit_the_decision_cache() {
        use jmp_security::FileActions;
        let mut policy = Policy::new();
        policy.grant_code(
            CodeSource::local("file:/apps/-"),
            vec![Permission::file("/data/-", FileActions::READ)],
        );
        let vm = Vm::builder().policy(policy).build();
        let app = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::local("file:/apps/reader"),
            vm.policy()
                .permissions_for(&CodeSource::local("file:/apps/reader")),
        ));
        let demand = Permission::file("/data/report", FileActions::READ);
        stack::call_as("Reader", app, || {
            for _ in 0..5 {
                vm.access_check(&demand).unwrap();
            }
        });
        let metrics = vm.obs().vm_metrics();
        assert_eq!(metrics.counter("access.cache.misses").get(), 1);
        assert_eq!(metrics.counter("access.cache.hits").get(), 4);
        assert_eq!(metrics.counter("security.checks").get(), 5);
    }

    #[test]
    fn native_call_sites_answer_warm_checks_from_their_inline_cache() {
        use jmp_security::FileActions;
        let mut policy = Policy::new();
        policy.grant_code(
            CodeSource::remote("http://applets/-"),
            vec![Permission::file("/data/-", FileActions::READ)],
        );
        let vm = Vm::builder().policy(policy).build();
        let applet = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::remote("http://applets/clock"),
            vm.policy()
                .permissions_for(&CodeSource::remote("http://applets/clock")),
        ));
        let demand = Permission::file("/data/report", FileActions::READ);
        let site = Arc::new(crate::decision_cache::NativeSiteCache::new());
        stack::call_as("Applet", Arc::clone(&applet), || {
            for _ in 0..5 {
                // One guard per call, exactly like the interpreter's
                // CALL_NATIVE dispatch arm.
                let _active = crate::decision_cache::enter_native_site(&site);
                vm.access_check(&demand).unwrap();
            }
            // After the first full walk primed it, the site is warm: the
            // next check through it is answered by the inline compare alone.
            let _active = crate::decision_cache::enter_native_site(&site);
            let (fingerprint, _) = stack::probe_fingerprint();
            assert!(crate::decision_cache::site_check(
                vm.inner.decisions.epoch(),
                fingerprint,
                &demand,
                None,
                vm.obs().demands(),
            ));
        });
        let metrics = vm.obs().vm_metrics();
        assert_eq!(metrics.counter("access.cache.misses").get(), 1);
        assert_eq!(metrics.counter("access.cache.hits").get(), 4);
        // Inline-cache hits keep feeding the always-on demand ledger.
        let rows = vm.obs().demands().rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].granted, 6, "1 walk + 4 warm checks + 1 probe");
        // An epoch bump (policy/manager/resolver change) kills the site's
        // cached grant along with the shared cache.
        vm.inner.decisions.invalidate();
        stack::call_as("Applet", applet, || {
            let _active = crate::decision_cache::enter_native_site(&site);
            let (fingerprint, _) = stack::probe_fingerprint();
            assert!(!crate::decision_cache::site_check(
                vm.inner.decisions.epoch(),
                fingerprint,
                &demand,
                None,
                vm.obs().demands(),
            ));
        });
    }

    #[test]
    fn demand_ledger_records_routes_and_warm_hits() {
        use jmp_security::FileActions;
        let mut policy = Policy::new();
        policy.grant_code(
            CodeSource::local("file:/apps/-"),
            vec![Permission::file("/data/-", FileActions::READ)],
        );
        let vm = Vm::builder().policy(policy).build();
        let app = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::local("file:/apps/reader"),
            vm.policy()
                .permissions_for(&CodeSource::local("file:/apps/reader")),
        ));
        let demand = Permission::file("/data/report", FileActions::READ);
        let forbidden = Permission::file("/etc/shadow", FileActions::READ);
        stack::call_as("Reader", Arc::clone(&app), || {
            for _ in 0..5 {
                vm.access_check(&demand).unwrap();
            }
            vm.access_check(&forbidden).unwrap_err();
        });
        let rows = vm.obs().demands().rows();
        let granted = rows
            .iter()
            .find(|r| r.permission.contains("/data/report"))
            .unwrap();
        assert_eq!(granted.source, "file:/apps/reader");
        assert_eq!(granted.granted, 5, "1 full walk + 4 warm bumps");
        assert_eq!(granted.denied, 0);
        assert!(!granted.via_user);
        let denied = rows
            .iter()
            .find(|r| r.permission.contains("/etc/shadow"))
            .unwrap();
        assert_eq!(denied.source, "file:/apps/reader");
        assert_eq!(denied.granted, 0);
        assert_eq!(denied.denied, 1);
        // The `demands.recorded` instrument is derived at export time; a
        // rollup syncs it (the vmstat path).
        assert_eq!(vm.obs().rollup().counters["demands.recorded"], 6);
        assert_eq!(vm.obs().vm_metrics().counter("demands.unique").get(), 2);

        // Reset clears the rows *and* the decision cache, so the next check
        // re-records rather than bumping an orphaned cell.
        vm.reset_demands();
        assert!(vm.obs().demands().rows().is_empty());
        stack::call_as("Reader", app, || {
            vm.access_check(&demand).unwrap();
        });
        let rows = vm.obs().demands().rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].granted, 1);
    }

    #[test]
    fn demand_ledger_routes_user_grants_and_honors_disable() {
        use jmp_security::FileActions;
        let mut policy = Policy::new();
        policy.grant_user(
            "alice",
            vec![Permission::file("/home/alice/-", FileActions::ALL)],
        );
        policy.grant_code(
            CodeSource::local("file:/apps/-"),
            vec![Permission::exercise_user_permissions()],
        );
        let vm = Vm::builder().policy(policy).build();
        vm.set_user_resolver(Arc::new(|| Some("alice".to_string())))
            .unwrap();
        let editor = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::local("file:/apps/editor"),
            vm.policy()
                .permissions_for(&CodeSource::local("file:/apps/editor")),
        ));
        let alice_file = Permission::file("/home/alice/notes", FileActions::READ);
        stack::call_as("Editor", Arc::clone(&editor), || {
            vm.access_check(&alice_file).unwrap();
        });
        let rows = vm.obs().demands().rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].via_user, "grant went through alice's permissions");
        assert_eq!(rows[0].user.as_deref(), Some("alice"));
        assert_eq!(rows[0].source, "file:/apps/editor");

        // A disabled ledger records nothing — not even on full walks.
        vm.reset_demands();
        vm.obs().demands().set_enabled(false);
        stack::call_as("Editor", editor, || {
            vm.access_check(&alice_file).unwrap();
            vm.access_check(&alice_file).unwrap();
        });
        assert!(vm.obs().demands().rows().is_empty());
        // The pre-reset observation stays in the monotone total; the
        // disabled checks added nothing.
        assert_eq!(vm.obs().demands().recorded(), 1);
        assert_eq!(vm.obs().rollup().counters["demands.recorded"], 1);
    }

    #[test]
    fn policy_reload_invalidates_cached_decisions() {
        use jmp_security::FileActions;
        let grant = |targets: &[&str]| {
            let mut policy = Policy::new();
            for target in targets {
                policy.grant_code(
                    CodeSource::local("file:/apps/-"),
                    vec![Permission::file(*target, FileActions::READ)],
                );
            }
            policy
        };
        let vm = Vm::builder().policy(grant(&["/a"])).build();
        let app = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::local("file:/apps/x"),
            vm.policy()
                .permissions_for(&CodeSource::local("file:/apps/x")),
        ));
        let read_a = Permission::file("/a", FileActions::READ);
        let read_b = Permission::file("/b", FileActions::READ);
        stack::call_as("App", Arc::clone(&app), || {
            vm.access_check(&read_a).unwrap();
            vm.access_check(&read_a).unwrap(); // cached
            vm.access_check(&read_b).unwrap_err();
        });
        // Note the domain keeps its *old* permission collection (resolved at
        // definition time, as in the JDK) — the reload is visible through
        // the user/policy walk only for domains re-resolved afterwards. Here
        // we re-resolve to model a freshly defined class.
        vm.set_policy(grant(&["/b"])).unwrap();
        assert_eq!(
            vm.obs()
                .vm_metrics()
                .counter("access.cache.invalidations")
                .get(),
            1
        );
        let app2 = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::local("file:/apps/x"),
            vm.policy()
                .permissions_for(&CodeSource::local("file:/apps/x")),
        ));
        stack::call_as("App", app2, || {
            // Revoked grant is denied even though the old decision was
            // cached; new grant is honored.
            vm.access_check(&read_b).unwrap();
            vm.access_check(&read_a).unwrap_err();
        });
    }

    #[test]
    fn flush_access_cache_forces_cold_rechecks() {
        let vm = Vm::new();
        let trusted = Arc::new(jmp_security::ProtectionDomain::new(
            CodeSource::local("file:/sys"),
            [Permission::All].into_iter().collect(),
        ));
        let demand = Permission::runtime("anything");
        stack::call_as("Sys", trusted, || {
            vm.access_check(&demand).unwrap();
            vm.access_check(&demand).unwrap();
            vm.flush_access_cache();
            vm.access_check(&demand).unwrap();
        });
        let metrics = vm.obs().vm_metrics();
        assert_eq!(metrics.counter("access.cache.misses").get(), 2);
        assert_eq!(metrics.counter("access.cache.hits").get(), 1);
        assert_eq!(metrics.counter("access.cache.invalidations").get(), 1);
    }

    #[test]
    fn policy_reload_completes_under_cold_check_pressure() {
        // The writer-starvation regression (satellite of the control-plane
        // scale-out): with the old fair RwLock root, 32 threads spinning on
        // cold checks could queue a reload indefinitely. The epoch cell
        // never queues the publisher behind readers, so 50 back-to-back
        // reloads must complete promptly under full read pressure.
        use jmp_security::FileActions;
        let vm = Vm::new();
        let stop = Arc::new(AtomicBool::new(false));
        let checkers: Vec<_> = (0..32)
            .map(|t| {
                let vm = vm.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let trusted = Arc::new(jmp_security::ProtectionDomain::new(
                        CodeSource::local("file:/sys"),
                        [Permission::All].into_iter().collect(),
                    ));
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // A fresh target every iteration keeps the decision
                        // cache cold, so every check consults the policy
                        // root and the user resolver.
                        let demand =
                            Permission::file(format!("/tmp/spin-{t}/{i}"), FileActions::READ);
                        stack::call_as("Spinner", Arc::clone(&trusted), || {
                            vm.access_check(&demand).unwrap();
                        });
                        i += 1;
                    }
                })
            })
            .collect();
        let started = Instant::now();
        for _ in 0..50 {
            let mut policy = Policy::new();
            policy.grant_user("alice", vec![Permission::runtime("x")]);
            vm.set_policy(policy).unwrap();
        }
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for checker in checkers {
            checker.join().unwrap();
        }
        assert!(
            vm.policy().user_implies("alice", &Permission::runtime("x")),
            "the last reload is visible"
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "50 reloads took {elapsed:?} under 32-thread cold-check pressure"
        );
    }

    #[test]
    fn class_definitions_feed_the_obs_hub() {
        let vm = vm_with_class("Observed", |_| Ok(()));
        vm.system_loader().load_class("Observed").unwrap();
        let metrics = vm.obs().vm_metrics();
        assert_eq!(metrics.counter("classes.defined").get(), 1);
        assert_eq!(metrics.counter("classes.reloaded").get(), 0);

        // A child re-defining off its re-load list counts as a reload and
        // the inherited observer still fires (§5.5).
        let child = vm.system_loader().new_child("app-1");
        child.add_reload("Observed");
        child.load_class("Observed").unwrap();
        assert_eq!(metrics.counter("classes.defined").get(), 2);
        assert_eq!(metrics.counter("classes.reloaded").get(), 1);
        let kinds: Vec<_> = vm.obs().sink().recent().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::ClassDefined, EventKind::ClassReloaded]
        );
    }

    #[test]
    fn exit_code_first_writer_wins() {
        let vm = Vm::new();
        vm.exit_unchecked(7);
        vm.exit_unchecked(9);
        assert_eq!(vm.await_termination(), 7);
    }
}
