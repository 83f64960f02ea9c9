use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jmp_security::{CodeSource, PermissionCollection, ProtectionDomain};
use parking_lot::RwLock;

use super::class::Class;
use super::def::ClassDef;
use super::registry::MaterialRegistry;
use crate::error::VmError;
use crate::Result;

static NEXT_LOADER_ID: AtomicU64 = AtomicU64::new(1);

/// Identifier of a class loader. Part of every [`ClassId`](super::ClassId).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoaderId(pub u64);

impl fmt::Display for LoaderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ld:{}", self.0)
    }
}

/// Resolves the permissions to grant a code source at class-definition time
/// (normally `policy.permissions_for(source)`, possibly with loader-specific
/// additions — the appletviewer's loader grants connect-back permission this
/// way, paper §6.3).
pub type DomainResolver = Arc<dyn Fn(&CodeSource) -> PermissionCollection + Send + Sync>;

/// Called after every successful class definition with the class name and
/// whether it was a *local* re-definition off the loader's re-load list
/// (§5.5). Installed by the VM to feed the observability hub; children
/// created after installation inherit the observer.
pub type DefineObserver = Arc<dyn Fn(&str, bool) + Send + Sync>;

struct LoaderInner {
    id: LoaderId,
    name: String,
    parent: Option<ClassLoader>,
    registry: Arc<MaterialRegistry>,
    resolver: DomainResolver,
    /// Class names this loader defines locally instead of delegating —
    /// the paper's re-load list (§5.5).
    reload: RwLock<HashSet<String>>,
    defined: RwLock<HashMap<String, Class>>,
    observer: RwLock<Option<DefineObserver>>,
}

/// A class loader: defines classes from material, creating a namespace.
///
/// Loading follows parent delegation (as in the JDK), *except* for names on
/// the loader's re-load list, which are defined locally even though the same
/// material is visible to the parent — the mechanism behind the paper's
/// per-application `System` class (§5.5).
///
/// Cheap handle; clones refer to the same loader.
#[derive(Clone)]
pub struct ClassLoader {
    inner: Arc<LoaderInner>,
}

impl ClassLoader {
    /// Creates a root (system) loader over `registry`, resolving protection
    /// domains with `resolver`.
    pub fn new_system(
        name: impl Into<String>,
        registry: Arc<MaterialRegistry>,
        resolver: DomainResolver,
    ) -> ClassLoader {
        ClassLoader {
            inner: Arc::new(LoaderInner {
                id: LoaderId(NEXT_LOADER_ID.fetch_add(1, Ordering::Relaxed)),
                name: name.into(),
                parent: None,
                registry,
                resolver,
                reload: RwLock::new(HashSet::new()),
                defined: RwLock::new(HashMap::new()),
                observer: RwLock::new(None),
            }),
        }
    }

    /// Creates a child loader delegating to `self`, with the same registry
    /// and resolver.
    pub fn new_child(&self, name: impl Into<String>) -> ClassLoader {
        self.new_child_with_resolver(name, Arc::clone(&self.inner.resolver))
    }

    /// Creates a child loader with a custom domain resolver (e.g. the
    /// applet class loader granting extra permissions to the applets it
    /// loads).
    pub fn new_child_with_resolver(
        &self,
        name: impl Into<String>,
        resolver: DomainResolver,
    ) -> ClassLoader {
        ClassLoader {
            inner: Arc::new(LoaderInner {
                id: LoaderId(NEXT_LOADER_ID.fetch_add(1, Ordering::Relaxed)),
                name: name.into(),
                parent: Some(self.clone()),
                registry: Arc::clone(&self.inner.registry),
                resolver,
                reload: RwLock::new(HashSet::new()),
                defined: RwLock::new(HashMap::new()),
                observer: RwLock::new(self.inner.observer.read().clone()),
            }),
        }
    }

    /// Installs the definition observer on this loader (and, via
    /// inheritance, on children created from now on).
    pub fn set_define_observer(&self, observer: DefineObserver) {
        *self.inner.observer.write() = Some(observer);
    }

    /// The loader's id.
    pub fn id(&self) -> LoaderId {
        self.inner.id
    }

    /// The loader's name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The parent loader, if any.
    pub fn parent(&self) -> Option<&ClassLoader> {
        self.inner.parent.as_ref()
    }

    /// Adds `class_name` to the re-load list: this loader will define the
    /// class locally from shared material instead of delegating to its
    /// parent (paper §5.5).
    pub fn add_reload(&self, class_name: impl Into<String>) {
        self.inner.reload.write().insert(class_name.into());
    }

    /// Returns `true` if `class_name` is on the re-load list.
    pub fn reloads(&self, class_name: &str) -> bool {
        self.inner.reload.read().contains(class_name)
    }

    /// Loads a class: returns the already-defined class, or defines it
    /// locally if on the re-load list, or delegates to the parent, or (for a
    /// root loader) defines it from the registry. Concurrent first uses of
    /// one name all receive the single class the first of them defined.
    ///
    /// # Errors
    ///
    /// [`VmError::ClassNotFound`] if no material with that name exists.
    pub fn load_class(&self, name: &str) -> Result<Class> {
        if let Some(class) = self.inner.defined.read().get(name) {
            return Ok(class.clone());
        }
        if self.reloads(name) {
            return self.define_from_registry(name);
        }
        match &self.inner.parent {
            Some(parent) => parent.load_class(name),
            None => self.define_from_registry(name),
        }
    }

    fn define_from_registry(&self, name: &str) -> Result<Class> {
        let (def, source) =
            self.inner
                .registry
                .get(name)
                .ok_or_else(|| VmError::ClassNotFound {
                    name: name.to_string(),
                })?;
        self.define(def, source, true)
    }

    /// Defines a class in this loader from explicit material and code
    /// source — the analogue of `ClassLoader.defineClass`, used e.g. by the
    /// applet loader for class images fetched over the network.
    ///
    /// # Errors
    ///
    /// [`VmError::Linkage`] if this loader already defined the name.
    pub fn define_class(&self, def: Arc<ClassDef>, source: CodeSource) -> Result<Class> {
        self.define(def, source, false)
    }

    /// Defines `def` unless this loader already holds the name, in which
    /// case `adopt_existing` picks the outcome: the registry path returns
    /// the class a concurrent first use defined, an explicit define refuses.
    fn define(
        &self,
        def: Arc<ClassDef>,
        source: CodeSource,
        adopt_existing: bool,
    ) -> Result<Class> {
        // Pre-decode interpreted material now (cached on the def, shared by
        // every later interpreter over it), outside the `defined` lock —
        // defining a class is the JVM's verify/link moment, and doing it
        // here keeps first execution on the fast path. A verification
        // failure is deliberately not raised here: it surfaces exactly as
        // before, when something tries to *run* the class.
        let _ = def.compiled();
        let class = {
            let mut defined = self.inner.defined.write();
            if let Some(existing) = defined.get(def.name()) {
                if adopt_existing {
                    return Ok(existing.clone());
                }
                return Err(VmError::Linkage {
                    message: format!(
                        "loader {} already defines class {:?}",
                        self.inner.name,
                        def.name()
                    ),
                });
            }
            let permissions = (self.inner.resolver)(&source);
            let domain = Arc::new(ProtectionDomain::new(source, permissions));
            let class = Class::define(Arc::clone(&def), self.inner.id, domain);
            defined.insert(def.name().to_string(), class.clone());
            class
        };
        // Outside the `defined` lock: the observer may inspect the loader.
        let observer = self.inner.observer.read().clone();
        if let Some(observer) = observer {
            observer(class.name(), self.reloads(class.name()));
        }
        Ok(class)
    }

    /// The class with `name` if *this* loader defined it (no delegation).
    pub fn find_defined(&self, name: &str) -> Option<Class> {
        self.inner.defined.read().get(name).cloned()
    }

    /// Names of all classes defined by this loader, sorted.
    pub fn defined_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.defined.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The material registry this loader reads from.
    pub fn registry(&self) -> &Arc<MaterialRegistry> {
        &self.inner.registry
    }
}

impl fmt::Debug for ClassLoader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassLoader")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field(
                "parent",
                &self.inner.parent.as_ref().map(|p| p.name().to_string()),
            )
            .field("defined", &self.defined_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<MaterialRegistry>, ClassLoader) {
        let registry = Arc::new(MaterialRegistry::new());
        registry
            .register(
                ClassDef::builder("java.lang.System")
                    .static_slot("out")
                    .build(),
                CodeSource::local("file:/sys/classes"),
            )
            .unwrap();
        registry
            .register(
                ClassDef::builder("Helper").build(),
                CodeSource::local("file:/sys/classes"),
            )
            .unwrap();
        let resolver: DomainResolver = Arc::new(|_source| PermissionCollection::all_permissions());
        let system = ClassLoader::new_system("system", Arc::clone(&registry), resolver);
        (registry, system)
    }

    #[test]
    fn load_is_idempotent() {
        let (_reg, system) = setup();
        let a = system.load_class("java.lang.System").unwrap();
        let b = system.load_class("java.lang.System").unwrap();
        assert!(a.same_class(&b));
    }

    #[test]
    fn children_delegate_to_parent_by_default() {
        let (_reg, system) = setup();
        let child = system.new_child("app-1");
        let from_child = child.load_class("Helper").unwrap();
        let from_parent = system.load_class("Helper").unwrap();
        assert!(from_child.same_class(&from_parent));
        assert_eq!(from_child.loader(), system.id());
        assert!(child.find_defined("Helper").is_none(), "defined by parent");
    }

    #[test]
    fn reload_list_creates_per_loader_definitions() {
        // The paper's §5.5 mechanism in miniature.
        let (_reg, system) = setup();
        let sys_class = system.load_class("java.lang.System").unwrap();

        let app1 = system.new_child("app-1");
        app1.add_reload("java.lang.System");
        let app2 = system.new_child("app-2");
        app2.add_reload("java.lang.System");

        let c1 = app1.load_class("java.lang.System").unwrap();
        let c2 = app2.load_class("java.lang.System").unwrap();

        assert!(!c1.same_class(&c2));
        assert!(!c1.same_class(&sys_class));
        assert!(c1.same_material(&c2), "same class material");
        assert_eq!(c1.name(), c2.name());

        c1.set_static("out", Arc::new(1u32));
        c2.set_static("out", Arc::new(2u32));
        assert_eq!(*c1.static_as::<u32>("out").unwrap(), 1);
        assert_eq!(*c2.static_as::<u32>("out").unwrap(), 2);

        // Non-reloaded classes are still shared.
        let h1 = app1.load_class("Helper").unwrap();
        let h2 = app2.load_class("Helper").unwrap();
        assert!(h1.same_class(&h2));
    }

    #[test]
    fn missing_material_is_class_not_found() {
        let (_reg, system) = setup();
        assert!(matches!(
            system.load_class("NoSuchClass").unwrap_err(),
            VmError::ClassNotFound { .. }
        ));
    }

    #[test]
    fn concurrent_first_uses_share_one_definition() {
        // Two sessions starting the same program for the first time: both
        // miss `defined`, and the one that defines second must receive the
        // winner's class, not a linkage error.
        let (registry, _) = setup();
        let resolver: DomainResolver = Arc::new(|_source| PermissionCollection::new());
        for trial in 0..500 {
            let system =
                ClassLoader::new_system("system", Arc::clone(&registry), Arc::clone(&resolver));
            let start = std::sync::Barrier::new(2);
            let racer = || {
                start.wait();
                system.load_class("Helper")
            };
            let (a, b) = std::thread::scope(|scope| {
                let a = scope.spawn(racer);
                let b = scope.spawn(racer);
                (a.join().unwrap(), b.join().unwrap())
            });
            let (a, b) = match (a, b) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => panic!("trial {trial}: {a:?} / {b:?}"),
            };
            assert!(a.same_class(&b), "trial {trial}: two definitions");
        }
    }

    #[test]
    fn define_class_rejects_duplicates_per_loader() {
        let (_reg, system) = setup();
        let def = ClassDef::builder("Applet").build();
        let source = CodeSource::remote("http://host/applets/");
        system
            .define_class(Arc::clone(&def), source.clone())
            .unwrap();
        assert!(matches!(
            system.define_class(def, source).unwrap_err(),
            VmError::Linkage { .. }
        ));
    }

    #[test]
    fn resolver_assigns_domains_at_definition() {
        let registry = Arc::new(MaterialRegistry::new());
        registry
            .register(
                ClassDef::builder("X").build(),
                CodeSource::local("file:/apps/x"),
            )
            .unwrap();
        let resolver: DomainResolver = Arc::new(|source| {
            let mut perms = PermissionCollection::new();
            if source.url().starts_with("file:/apps/") {
                perms.add(jmp_security::Permission::runtime("appMarker"));
            }
            perms
        });
        let loader = ClassLoader::new_system("s", registry, resolver);
        let class = loader.load_class("X").unwrap();
        assert!(class
            .domain()
            .implies(&jmp_security::Permission::runtime("appMarker")));
        assert!(!class.domain().implies(&jmp_security::Permission::All));
    }

    #[test]
    fn custom_child_resolver_grants_extras() {
        let (_reg, system) = setup();
        let applet_resolver: DomainResolver = Arc::new(|source| {
            let mut perms = PermissionCollection::new();
            if let Some(host) = source.host() {
                perms.add(jmp_security::Permission::socket(
                    host,
                    jmp_security::SocketActions::CONNECT,
                ));
            }
            perms
        });
        let applet_loader = system.new_child_with_resolver("applets", applet_resolver);
        let class = applet_loader
            .define_class(
                ClassDef::builder("Game").build(),
                CodeSource::remote("http://games.example.com/Game"),
            )
            .unwrap();
        assert!(class.domain().implies(&jmp_security::Permission::socket(
            "games.example.com",
            jmp_security::SocketActions::CONNECT
        )));
        assert!(!class.domain().implies(&jmp_security::Permission::socket(
            "other.example.com",
            jmp_security::SocketActions::CONNECT
        )));
    }

    #[test]
    fn defined_names_listing() {
        let (_reg, system) = setup();
        system.load_class("Helper").unwrap();
        system.load_class("java.lang.System").unwrap();
        assert_eq!(
            system.defined_names(),
            vec!["Helper".to_string(), "java.lang.System".to_string()]
        );
    }
}
