//! Launching interpreted class images as first-class applications.
//!
//! The paper's mobile code is a serialized [`ClassImage`] interpreted under
//! the owning application's authority. This module wires an image into the
//! ordinary application lifecycle: [`MpRuntime::launch_image`] registers
//! the image as runnable class material whose native `main` interprets it
//! on the application's main thread, with three memory-governance hooks the
//! interpreter alone cannot provide:
//!
//! * the pre-decoded image's footprint is charged to the application's
//!   `memory` ledger as *resident* bytes, released only at reap;
//! * the interpreter runs on a thread carrying the application's
//!   [`AppContext`](jmp_vm::AppContext), so its value arenas come from (and
//!   return to) the per-application arena pool and every heap sample bills
//!   the application;
//! * a checkpoint request against the context parks the interpreter at the
//!   next safepoint; the run then ends *cleanly* (the continuation is on
//!   the context, not lost in an error path) and the application exits,
//!   leaving the reaper to reclaim its memory in O(1).
//!
//! Restores re-enter through the same door: `resume_image_main` builds a
//! `main` that resumes a deposited [`jmp_vm::InterpSnapshot`] instead of
//! starting fresh.

use std::sync::Arc;

use jmp_security::CodeSource;
use jmp_vm::interp::{ClassImage, CompiledImage, Interpreter, NativeHost, Value};
use jmp_vm::{ClassDef, InterpSnapshot, VmError};

use crate::application::Application;
use crate::runtime::MpRuntime;
use crate::{files, jsystem, Result};

/// Code-source URL under which launched images are registered.
const IMAGE_SOURCE: &str = "file:/apps/images";

/// The native services exposed to interpreted application images: console
/// output through the application's own `System` streams and checked file
/// access — every call performs the ordinary security checks with the
/// image's frame on the stack. Pure stdlib helpers come from
/// [`jmp_vm::interp::invoke_pure`].
pub struct StdImageHost;

impl NativeHost for StdImageHost {
    fn invoke(&self, name: &str, args: Vec<Value>) -> jmp_vm::Result<Value> {
        if let Some(result) = jmp_vm::interp::invoke_pure(name, &args) {
            return result;
        }
        match (name, args.as_slice()) {
            ("print", [value]) => {
                jsystem::print(&value.display_string())?;
                Ok(Value::Null)
            }
            ("println", [value]) => {
                jsystem::println(&value.display_string())?;
                Ok(Value::Null)
            }
            ("read_file", [Value::Str(path)]) => {
                let text = files::read_string(path)?;
                Ok(Value::str(text))
            }
            ("write_file", [Value::Str(path), content]) => {
                files::write(path, content.display_string().as_bytes())?;
                Ok(Value::Null)
            }
            ("delete_file", [Value::Str(path)]) => {
                files::delete(path)?;
                Ok(Value::Null)
            }
            ("get_property", [Value::Str(key)]) => match jsystem::property(key)? {
                Some(v) => Ok(Value::str(v)),
                None => Ok(Value::Null),
            },
            _ => Err(VmError::trap(format!(
                "unknown native {name}/{}",
                args.len()
            ))),
        }
    }
}

/// The shared body of a fresh run and a resumed run: charge the image
/// footprint as resident memory, interpret on the current (application)
/// thread, print the result to the application's stdout, and treat a
/// checkpoint park as a clean exit (the continuation is already deposited
/// on the application's context).
fn interpret(
    compiled: &Arc<CompiledImage>,
    args: &[String],
    resume: Option<&InterpSnapshot>,
) -> jmp_vm::Result<()> {
    if let Some(ctx) = jmp_vm::thread::current_app_context() {
        // Resident for the application's lifetime: released by
        // `reclaim_memory` at reap, not when `main` returns.
        ctx.charge_resident(compiled.footprint_bytes())?;
    }
    let host: Arc<dyn NativeHost> = Arc::new(StdImageHost);
    let interpreter = Interpreter::from_compiled(Arc::clone(compiled), host);
    let outcome = match resume {
        Some(snap) => interpreter.resume(snap),
        None => {
            let values: Vec<Value> = args.iter().map(Value::str).collect();
            interpreter.run("main", values)
        }
    };
    match outcome {
        Ok(value) => {
            // The observable output a restored run must reproduce exactly.
            jsystem::println(&format!("=> {}", value.display_string()))?;
            Ok(())
        }
        // Parked for checkpoint: the snapshot sits on the AppContext; the
        // application exits cleanly and the checkpointer collects it.
        Err(VmError::Checkpointed) => Ok(()),
        Err(err) => Err(err),
    }
}

/// Builds runnable class material for a fresh run of `image`.
///
/// # Errors
///
/// [`VmError::Verification`] if the image is rejected.
pub(crate) fn image_main(image: ClassImage) -> Result<Arc<ClassDef>> {
    let name = image.name.clone();
    let probe = ClassDef::builder(&name).image(image.clone()).build();
    let compiled = probe.compiled().expect("material carries an image")?;
    Ok(ClassDef::builder(&name)
        .image(image)
        .main(move |args| interpret(&compiled, &args, None))
        .build())
}

/// Builds runnable class material that resumes `snap` instead of starting
/// `main` from scratch. The snapshot's embedded image is recompiled here —
/// deterministically, so frame pcs and method indices stay valid — and
/// re-verified on this VM before anything runs. `limits` (the checkpointed
/// application's resource limits) is re-applied to the new application's
/// context before the first charge, overriding whatever the target
/// runtime's policy would grant, so a migrated application keeps its
/// original ceilings.
///
/// # Errors
///
/// [`VmError::Verification`] if the embedded image is rejected;
/// [`VmError::Trap`] if the continuation fails
/// [`InterpSnapshot::validate`].
pub(crate) fn resume_image_main(
    snap: InterpSnapshot,
    limits: Vec<(jmp_vm::ResourceKind, u64)>,
) -> Result<Arc<ClassDef>> {
    let name = snap.image.name.clone();
    let probe = ClassDef::builder(&name).image(snap.image.clone()).build();
    let compiled = probe.compiled().expect("material carries an image")?;
    snap.validate(&compiled)?;
    let image = snap.image.clone();
    Ok(ClassDef::builder(&name)
        .image(image)
        .main(move |_args| {
            if let Some(ctx) = jmp_vm::thread::current_app_context() {
                for (kind, limit) in &limits {
                    ctx.limits().set(*kind, *limit);
                }
            }
            interpret(&compiled, &[], Some(&snap))
        })
        .build())
}

impl MpRuntime {
    /// Launches `image` as a new application owned by `user_name`,
    /// interpreting its `main` with `args` (as string values) under the
    /// application's authority and memory quota. The image's pre-decoded
    /// footprint is charged to the application's `memory` ledger for its
    /// whole lifetime; the final value of `main` is printed to the
    /// application's stdout as `=> <value>`.
    ///
    /// Registers (or replaces) class material named after the image, then
    /// launches it like any other application.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Vm`] wrapping a verification failure for a bad
    /// image; unknown users as [`MpRuntime::launch_as`].
    pub fn launch_image(
        &self,
        user_name: &str,
        image: ClassImage,
        args: &[&str],
    ) -> Result<Application> {
        let def = image_main(image)?;
        let name = def.name().to_string();
        self.vm()
            .material()
            .register_replacing(def, CodeSource::local(IMAGE_SOURCE));
        self.launch_as(user_name, &name, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmp_vm::interp::assemble;
    use jmp_vm::ResourceKind;

    fn sum_image() -> ClassImage {
        assemble(
            "class Sum\n\
             method main/0 locals=2\n\
             ; sum 0..99 into local 0, counter in local 1\n\
             push_int 0\n  store 0\n  push_int 0\n  store 1\n\
             loop:\n\
             load 0\n  load 1\n  add\n  store 0\n\
             load 1\n  push_int 1\n  add\n  store 1\n\
             load 1\n  push_int 100\n  lt\n  jump_if_true loop\n\
             load 0\n  return_value\n",
        )
        .expect("assembles")
    }

    #[test]
    fn launch_image_runs_to_completion_and_prints_the_result() {
        let rt = MpRuntime::builder().user("alice", "pw").build().unwrap();
        let app = rt.launch_image("alice", sum_image(), &[]).unwrap();
        assert_eq!(app.wait_for().unwrap(), 0);
        assert!(
            rt.applications().is_empty() || rt.await_idle(std::time::Duration::from_secs(5)),
            "the application is reaped"
        );
        assert!(
            rt.console_output().contains("=> 4950"),
            "got: {}",
            rt.console_output()
        );
        rt.shutdown();
    }

    #[test]
    fn image_footprint_is_charged_resident_and_reclaimed_at_reap() {
        let rt = MpRuntime::builder().user("bob", "pw").build().unwrap();
        let app = rt.launch_image("bob", sum_image(), &[]).unwrap();
        let ctx = Arc::clone(app.context());
        app.wait_for().unwrap();
        assert!(
            rt.await_idle(std::time::Duration::from_secs(5)),
            "the application is reaped"
        );
        assert_eq!(
            ctx.ledger().get(ResourceKind::Memory),
            0,
            "resident image bytes drain at reap"
        );
        assert!(ctx.ledger().is_drained());
        rt.shutdown();
    }
}
