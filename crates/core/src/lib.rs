//! # jmp-core
//!
//! The primary contribution of Balfanz & Gong, *Experience with Secure
//! Multi-Processing in Java* (ICDCS 1998), reproduced on the `jmp-vm`
//! substrate: a **multi-processing, multi-user runtime** in which many
//! mutually-suspicious applications, run by different users, share one
//! virtual machine.
//!
//! The paper's nine features map onto this crate as follows:
//!
//! * **F1/F2 — applications**: [`Application`] is a set of threads delimited
//!   by a thread group; [`Application::exec`] launches, the group's
//!   non-daemon accounting ends it, a background reaper cleans it up.
//! * **F3/F4 — users & login**: every application carries a running
//!   [`User`](jmp_security::User) inherited at exec; [`login::login`]
//!   re-binds it with the `setUser` privilege granted to the login
//!   *program's code source*.
//! * **F5 — user-based access control**: every application thread carries
//!   its [`AppContext`](jmp_vm::AppContext), whose running user the access
//!   controller combines with code-source grants through
//!   `grant user "alice" { ... }` policy blocks (§5.3).
//! * **F6/F7 — multi-application-aware system code & events**: system helper
//!   threads live in the system group; with a GUI attached, each
//!   application gets its own event queue and dispatcher thread (§5.4).
//! * **F8 — application vs system state**: each application gets its own
//!   re-loaded `System` class (streams, app security manager) while the
//!   shared `SystemProperties` class carries JVM-wide state ([`jsystem`],
//!   §5.5, Fig 5).
//! * **F9 — security managers**: the VM-wide
//!   [`SystemSecurityManager`] implements the §5.6 rules; application
//!   security managers are application-private and never consulted by
//!   system code.
//!
//! # Quickstart
//!
//! ```
//! use jmp_core::{MpRuntime, Application};
//! use jmp_security::CodeSource;
//! use jmp_vm::ClassDef;
//!
//! let rt = MpRuntime::builder().user("alice", "sesame").build()?;
//! rt.vm().material().register(
//!     ClassDef::builder("Hello")
//!         .main(|_args| {
//!             jmp_core::jsystem::println("hello from an application")?;
//!             Ok(())
//!         })
//!         .build(),
//!     CodeSource::local("file:/apps/hello"),
//! )?;
//! let app = rt.launch_as("alice", "Hello", &[])?;
//! assert_eq!(app.wait_for()?, 0);
//! assert!(rt.console_output().contains("hello from an application"));
//! # rt.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod application;
mod error;
pub mod files;
pub mod gui;
pub mod imagerun;
pub mod login;
pub mod obs;
pub mod pipes;
mod policy_store;
mod runtime;
pub mod shared;
pub mod snapshot;
mod sys_sm;
pub mod jsystem {
    //! Facade over the per-application `System` class (see `system_ns`).
    pub use crate::system_ns::*;
}
mod system_ns;

pub use application::{AppId, AppStatus, Application};
pub use error::Error;
pub use imagerun::StdImageHost;
pub use policy_store::{VfsGrantSource, USER_POLICY_DIR};
pub use runtime::{MpRuntime, MpRuntimeBuilder, SYSTEM_CLASS, SYSTEM_PROPERTIES_CLASS};
pub use snapshot::{AppSnapshot, SnapEvent, SnapFile, APP_SNAPSHOT_VERSION};
pub use sys_sm::SystemSecurityManager;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests;
