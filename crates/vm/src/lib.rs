//! # jmp-vm
//!
//! A miniature managed runtime — the substrate the multi-processing
//! architecture of Balfanz & Gong, *Experience with Secure Multi-Processing
//! in Java* (ICDCS 1998), is built on. Rust has no JVM, so this crate
//! provides the JVM properties the paper's mechanisms actually rely on:
//!
//! * **Threads and thread groups** ([`VmThread`], [`ThreadGroup`]) with
//!   daemon/non-daemon accounting and the Fig-1 lifetime rule: the VM exits
//!   when the last non-daemon thread finishes ([`Vm::await_termination`]).
//! * **Explicit call-stack frames** ([`stack`]) carrying protection domains,
//!   so JDK 1.2-style stack inspection (`jmp-security`) works over native
//!   Rust code, including `doPrivileged` and inherited thread contexts.
//! * **A class system** ([`ClassLoader`], [`Class`], [`MaterialRegistry`])
//!   where class identity is *(loader, name)* and every definition gets its
//!   own statics table — the property behind the paper's per-application
//!   re-loaded `System` class (§5.5).
//! * **Streams and pipes** ([`io`]) with the paper's ownership-restricted
//!   close semantics (§5.1).
//! * **A verified bytecode interpreter** ([`interp`]) so untrusted mobile
//!   code (applets, §6.3) stays *data* executed under the security manager
//!   rather than compiled-in Rust.
//! * **System properties** ([`Properties`]), a swappable
//!   [`SecurityManager`], and the per-application [`AppContext`] every
//!   thread carries, so the multi-processing layer can install the paper's
//!   system security manager and per-application users.
//!
//! # Example: the Fig-1 lifetime
//!
//! ```
//! use jmp_vm::{ClassDef, Vm};
//! use jmp_security::CodeSource;
//!
//! let vm = Vm::builder().name("demo").build();
//! vm.material().register(
//!     ClassDef::builder("Hello")
//!         .main(|args| {
//!             assert_eq!(args, vec!["world".to_string()]);
//!             Ok(())
//!         })
//!         .build(),
//!     CodeSource::local("file:/sys/classes"),
//! )?;
//! // Like `java Hello world`: runs main on a non-daemon thread and waits
//! // until no non-daemon threads remain.
//! let exit_code = vm.run("Hello", vec!["world".into()])?;
//! assert_eq!(exit_code, 0);
//! # Ok::<(), jmp_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classes;
/// Per-application ownership records, resource ledgers, and quota limits.
pub mod context;
mod decision_cache;
mod epoch_cell;
mod error;
mod group;
pub mod interp;
pub mod io;
mod profloc;
mod properties;
/// Versioned checkpoint images for parked interpreter runs
/// (checkpoint/restore/migrate).
pub mod snapshot;
pub mod stack;
/// VM threads: daemon flags, interruption, joins, and the current-thread
/// helpers blocking primitives build on.
pub mod thread;
mod vm;

pub use classes::{
    Class, ClassDef, ClassDefBuilder, ClassId, ClassLoader, DefineObserver, DomainResolver,
    LoaderId, MaterialRegistry, NativeMain, StaticValue,
};
pub use context::{
    AppContext, ResourceKind, ResourceLedger, ResourceLimits, APP_ARENA_POOL_CAP, RESOURCE_KINDS,
};
pub use error::VmError;
pub use group::{GroupId, ThreadGroup};
pub use properties::Properties;
pub use snapshot::{FrameSnap, InterpSnapshot, SNAPSHOT_VERSION};
pub use thread::{ThreadId, VmThread};
pub use vm::{SecurityManager, ThreadBuilder, Vm, VmBuilder};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, VmError>;
