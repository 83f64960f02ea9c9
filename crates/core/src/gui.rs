//! Application-facing GUI helpers.
//!
//! The toolkit tags a window with the id of the creating thread's
//! [`AppContext`](jmp_vm::AppContext), so a window created here is recorded
//! as belonging to the creating application (paper §5.4), its events land
//! on that application's queue, and application teardown closes it (§5.1).

use jmp_awt::{Toolkit, Window};

use crate::error::Error;
use crate::runtime::MpRuntime;
use crate::Result;

/// The runtime's toolkit.
///
/// # Errors
///
/// [`Error::NotAnApplication`] off-VM; [`Error::Io`] if the runtime was
/// built without a GUI.
pub fn toolkit() -> Result<Toolkit> {
    let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
    rt.toolkit().cloned().ok_or(Error::Io {
        message: "this runtime has no windowing stack".into(),
    })
}

/// Opens a window owned by the current application. Requires
/// `AWTPermission("showWindow")`.
///
/// # Errors
///
/// [`Error::Security`] without the permission; [`Error::Io`] without a GUI.
pub fn create_window(title: &str) -> Result<Window> {
    Ok(toolkit()?.create_window(title)?)
}
