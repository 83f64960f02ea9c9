//! Whole-application checkpoint images: checkpoint, restore, migrate.
//!
//! The interpreter layer parks a run at a safepoint and serializes its
//! continuation as an [`InterpSnapshot`] (see `jmp_vm::snapshot`). This
//! module wraps that continuation with everything the *application* around
//! it owns — identity (id, name, user), working directory, resource
//! limits, the home-directory vfs subtree, and the pending event queue in
//! reduced form — into a versioned [`AppSnapshot`] byte image.
//!
//! [`MpRuntime::checkpoint_app`] quiesces a running application: it raises
//! the checkpoint flag on the application's context, the interpreter parks
//! at its next safepoint (≤ one safepoint interval away), the application
//! exits cleanly and is reaped (its memory ledger drains to zero), and the
//! deposited continuation is collected and packaged.
//! [`MpRuntime::restore_app`] runs the inverse on any runtime — the same
//! VM or a different one — re-creating the vfs subtree, re-registering the
//! embedded image (re-verified on the target), and resuming the
//! interpreter mid-method with the original id, user, limits, and
//! cumulative instruction accounting, so the resumed run's observable
//! output is byte-identical to an uninterrupted one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jmp_security::{CodeSource, FileActions, Permission, SecurityError};
use jmp_vm::thread::BLOCK_POLL;
use jmp_vm::{InterpSnapshot, ResourceKind, RESOURCE_KINDS};
use serde::{Deserialize, Serialize};

use crate::application::{AppId, AppStatus, Application, ExecSpec};
use crate::runtime::MpRuntime;
use crate::{Error, Result};

/// Current application-snapshot wire-format version.
pub const APP_SNAPSHOT_VERSION: u32 = 1;

/// Magic prefix on every serialized application snapshot.
pub const APP_SNAPSHOT_MAGIC: &[u8; 8] = b"JMPAPPS\0";

/// How long [`MpRuntime::checkpoint_app`] waits for the target to park and
/// be reaped before giving up. Parks land within one safepoint interval
/// (1024 wire instructions), so this bound is generous — it exists for
/// applications that are not interpreting at all.
pub const CHECKPOINT_TIMEOUT: Duration = Duration::from_secs(10);

/// One captured file of the application's home subtree. Contents and path
/// only; modes are re-derived on restore (owner-written files), which
/// `docs/checkpoint.md` calls out as a non-captured dimension.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapFile {
    /// Absolute vfs path.
    pub path: String,
    /// File contents.
    pub data: Vec<u8>,
}

/// One pending event, in reduced form: enough to audit what was in flight
/// at checkpoint time. Events reference live window handles that do not
/// exist on the restoring VM, so they are recorded, not replayed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapEvent {
    /// The target window's id on the checkpointed VM.
    pub window: u64,
    /// The target component, if any.
    pub component: Option<u64>,
    /// Debug rendering of the event kind.
    pub kind: String,
    /// How many bursts were coalesced into this slot.
    pub coalesced: u64,
}

/// A quiesced application, ready to restore on this VM or another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSnapshot {
    /// Wire-format version ([`APP_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The application id, preserved across restore when free on the
    /// target runtime.
    pub app_id: u64,
    /// The application (class) name.
    pub name: String,
    /// The owning user; must exist on the restoring runtime.
    pub user: String,
    /// Working directory at checkpoint.
    pub cwd: String,
    /// Resource limits by stable resource name (`u64::MAX` = unlimited).
    pub limits: Vec<(String, u64)>,
    /// Captured home-subtree files.
    pub files: Vec<SnapFile>,
    /// Pending events at park, reduced (recorded, not replayed).
    pub events: Vec<SnapEvent>,
    /// The parked interpreter continuation.
    pub interp: InterpSnapshot,
}

impl AppSnapshot {
    /// Serializes to the versioned byte format (magic + version header,
    /// JSON body).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if encoding fails.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let body = serde_json::to_vec(self).map_err(|e| Error::Io {
            message: format!("app snapshot encode: {e}"),
        })?;
        let mut out = Vec::with_capacity(APP_SNAPSHOT_MAGIC.len() + 4 + body.len());
        out.extend_from_slice(APP_SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Decodes a snapshot produced by [`AppSnapshot::to_bytes`], rejecting
    /// bad magic and unknown versions.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on a malformed image or unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<AppSnapshot> {
        let header = APP_SNAPSHOT_MAGIC.len() + 4;
        if bytes.len() < header || &bytes[..APP_SNAPSHOT_MAGIC.len()] != APP_SNAPSHOT_MAGIC {
            return Err(Error::Io {
                message: "app snapshot decode: bad magic".into(),
            });
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&bytes[APP_SNAPSHOT_MAGIC.len()..header]);
        let version = u32::from_le_bytes(ver);
        if version != APP_SNAPSHOT_VERSION {
            return Err(Error::Io {
                message: format!(
                    "app snapshot decode: version {version} unsupported \
                     (expected {APP_SNAPSHOT_VERSION})"
                ),
            });
        }
        serde_json::from_slice(&bytes[header..]).map_err(|e| Error::Io {
            message: format!("app snapshot decode: {e}"),
        })
    }
}

/// Recursively captures every regular file under `root` (as the system
/// user — checkpoint is a privileged operation).
/// Refuses a snapshot file that would land outside `home`: its path must be
/// normalized (absolute, no `.`, `..` or empty components) and lie strictly
/// under the home directory — the subtree the checkpoint side collects.
/// The bytes come from another VM, and restore writes with system
/// authority.
fn check_home_path(path: &str, home: &str) -> Result<()> {
    let inside = path
        .strip_prefix(home)
        .is_some_and(|rest| home == "/" || rest.starts_with('/'));
    if jmp_vfs::normalize(path) == path && path != home && inside {
        return Ok(());
    }
    Err(Error::Security(SecurityError::AccessDenied {
        permission: Box::new(Permission::file(path, FileActions::WRITE)),
        denied_by: format!("snapshot file outside {home}"),
    }))
}

fn collect_subtree(rt: &MpRuntime, root: &str) -> Result<Vec<SnapFile>> {
    let system = rt.system_user().id();
    let vfs = rt.vfs();
    let mut out = Vec::new();
    let mut stack = vec![root.to_string()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = vfs.list_dir(&dir, system) else {
            continue; // root may not exist (user without a home)
        };
        for entry in entries {
            let path = if dir.ends_with('/') {
                format!("{dir}{}", entry.name)
            } else {
                format!("{dir}/{}", entry.name)
            };
            match entry.info.kind {
                jmp_vfs::FileKind::Directory => stack.push(path),
                jmp_vfs::FileKind::File => out.push(SnapFile {
                    data: vfs.read(&path, system)?,
                    path,
                }),
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

impl MpRuntime {
    /// Checkpoints the running application `id`: requests a safepoint park,
    /// waits for the application to quiesce and be reaped (which drains its
    /// memory ledger), and packages the deposited interpreter continuation
    /// with the application's identity, limits, home subtree, and pending
    /// events into a versioned byte image.
    ///
    /// Requires `RuntimePermission("checkpointApplication")` (host threads
    /// are trusted).
    ///
    /// # Errors
    ///
    /// [`Error::Security`] without the permission; [`Error::Io`] if no such
    /// application is running, or if it finishes without parking (it was
    /// not interpreting an image, or completed before the request landed)
    /// within [`CHECKPOINT_TIMEOUT`].
    pub fn checkpoint_app(&self, id: AppId) -> Result<Vec<u8>> {
        self.vm()
            .check_permission(&Permission::runtime("checkpointApplication"))?;
        let app = self.application(id).ok_or_else(|| Error::Io {
            message: format!("no such application: {}", id.0),
        })?;
        let ctx = Arc::clone(app.context());
        let user = app.user();
        let name = app.name().to_string();
        let cwd = app.cwd();
        // Grab the event queue handle *before* teardown drops it, so the
        // pending tail can be captured after the park.
        let queue = self.toolkit().and_then(|t| t.queue_of(id.0));

        ctx.request_checkpoint();
        let deadline = Instant::now() + CHECKPOINT_TIMEOUT;
        while !matches!(app.status(), AppStatus::Finished(_)) {
            if Instant::now() >= deadline {
                return Err(Error::Io {
                    message: format!("application {} did not park for checkpoint", id.0),
                });
            }
            std::thread::sleep(BLOCK_POLL);
        }
        let interp = ctx.take_snapshot().ok_or_else(|| Error::Io {
            message: format!(
                "application {} finished without parking (not an interpreted image?)",
                id.0
            ),
        })?;
        let mut events = Vec::new();
        if let Some(queue) = queue {
            while let Some(event) = queue.try_pop() {
                events.push(SnapEvent {
                    window: event.window.0,
                    component: event.component.map(|c| c.0),
                    kind: format!("{:?}", event.kind),
                    coalesced: u64::from(event.coalesced),
                });
            }
        }
        let limits = RESOURCE_KINDS
            .iter()
            .map(|kind| (kind.as_str().to_string(), ctx.limits().get(*kind)))
            .collect();
        let snap = AppSnapshot {
            version: APP_SNAPSHOT_VERSION,
            app_id: id.0,
            name,
            user: user.name().to_string(),
            cwd,
            limits,
            files: collect_subtree(self, user.home())?,
            events,
            interp,
        };
        self.vm()
            .obs()
            .vm_metrics()
            .counter("apps.checkpointed")
            .inc();
        snap.to_bytes()
    }

    /// Restores a checkpointed application from `bytes` on this runtime —
    /// the receiving half of migration. Re-creates the captured home
    /// subtree (owned by the user), re-registers and re-verifies the
    /// embedded class image, and launches an application that *resumes* the
    /// parked continuation with the original id (when free here), user,
    /// working directory, and resource limits. The resumed run reproduces
    /// the uninterrupted run's observable output and instruction counts
    /// exactly.
    ///
    /// Requires `RuntimePermission("checkpointApplication")`; the snapshot
    /// user must exist on this runtime.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on a malformed or version-mismatched image;
    /// [`Error::Security`] without the permission, for an unknown user, or
    /// for a file whose path is not normalized or lies outside the user's
    /// home;
    /// [`Error::Vm`] if the embedded image fails verification here or the
    /// continuation fails [`InterpSnapshot::validate`]. A refused snapshot
    /// leaves the vfs, the ledgers and `apps.restored` untouched.
    pub fn restore_app(&self, bytes: &[u8]) -> Result<Application> {
        self.vm()
            .check_permission(&Permission::runtime("checkpointApplication"))?;
        let snap = AppSnapshot::from_bytes(bytes)?;
        let user = self.users().lookup(&snap.user)?;
        for file in &snap.files {
            check_home_path(&file.path, user.home())?;
        }
        let limits: Vec<(ResourceKind, u64)> = snap
            .limits
            .iter()
            .filter_map(|(name, limit)| ResourceKind::parse(name).map(|kind| (kind, *limit)))
            .collect();
        // Verify the image and validate the continuation before anything
        // lands: a refused snapshot writes no file and spawns nothing.
        let def = crate::imagerun::resume_image_main(snap.interp, limits)?;
        let system = self.system_user().id();
        for file in &snap.files {
            let dir = jmp_vfs::dirname(&file.path);
            if !dir.is_empty() {
                self.vfs().mkdirs(dir, system)?;
            }
            self.vfs().write(&file.path, &file.data, system)?;
            self.vfs().chown(&file.path, user.id(), system)?;
        }
        let (name, app_id) = (snap.name, snap.app_id);
        self.vm()
            .material()
            .register_replacing(def, CodeSource::local("file:/apps/images"));
        let spec = ExecSpec {
            class_name: name,
            args: Vec::new(),
            user,
            cwd: snap.cwd,
            stdin: self.inner.default_stdin.clone(),
            stdout: self.inner.default_stdout.clone(),
            stderr: self.inner.default_stderr.clone(),
            properties: self.vm().properties().overlay(),
            forced_id: Some(AppId(app_id)),
        };
        let app = crate::application::spawn_app(self, spec)?;
        self.vm().obs().vm_metrics().counter("apps.restored").inc();
        Ok(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> AppSnapshot {
        let image = jmp_vm::interp::assemble(
            "class T\nmethod main/0 locals=1\n  push_int 1\n  return_value\n",
        )
        .unwrap();
        AppSnapshot {
            version: APP_SNAPSHOT_VERSION,
            app_id: 7,
            name: "T".into(),
            user: "alice".into(),
            cwd: "/home/alice".into(),
            limits: vec![("memory".into(), 1 << 20)],
            files: vec![SnapFile {
                path: "/home/alice/notes.txt".into(),
                data: b"hello".to_vec(),
            }],
            events: vec![SnapEvent {
                window: 3,
                component: None,
                kind: "Paint".into(),
                coalesced: 2,
            }],
            interp: InterpSnapshot {
                version: jmp_vm::SNAPSHOT_VERSION,
                image,
                entry: "main".into(),
                frames: Vec::new(),
                method: 0,
                pc: 0,
                base: 0,
                sp: 1,
                arena: vec![jmp_vm::interp::Value::Int(1)],
                fuel: None,
                instructions: 1,
                dispatches: 1,
                method_calls: 1,
                native_calls: 0,
            },
        }
    }

    fn long_sum_image() -> jmp_vm::interp::ClassImage {
        jmp_vm::interp::assemble(
            "class LongSum\n\
             method main/0 locals=2\n\
             ; sum 0..99999 — long enough that an immediate checkpoint\n\
             ; request parks the run mid-loop at an early safepoint\n\
             push_int 0\n  store 0\n  push_int 0\n  store 1\n\
             loop:\n\
             load 0\n  load 1\n  add\n  store 0\n\
             load 1\n  push_int 1\n  add\n  store 1\n\
             load 1\n  push_int 100000\n  lt\n  jump_if_true loop\n\
             load 0\n  return_value\n",
        )
        .expect("assembles")
    }

    #[test]
    fn checkpoint_restore_on_a_second_vm_reproduces_the_plain_run() {
        // The uninterrupted run, for the differential baseline.
        let plain = MpRuntime::builder().user("alice", "pw").build().unwrap();
        let app = plain.launch_image("alice", long_sum_image(), &[]).unwrap();
        assert_eq!(app.wait_for().unwrap(), 0);
        let expected = "=> 4999950000";
        assert!(plain.console_output().contains(expected));
        plain.shutdown();

        // Checkpoint mid-loop on VM one. The request lands before the
        // interpreter reaches its first safepoint, so the park is
        // deterministic and genuinely mid-method.
        let rt1 = MpRuntime::builder().user("alice", "pw").build().unwrap();
        let system = rt1.system_user().id();
        rt1.vfs()
            .write("/home/alice/notes.txt", b"carry me", system)
            .unwrap();
        let app = rt1.launch_image("alice", long_sum_image(), &[]).unwrap();
        let id = app.id();
        let ctx = Arc::clone(app.context());
        ctx.limits().set(ResourceKind::Memory, 64 << 20);
        let bytes = rt1.checkpoint_app(id).unwrap();
        assert!(
            rt1.await_idle(Duration::from_secs(5)),
            "the parked application is reaped"
        );
        assert!(ctx.ledger().is_drained(), "ledger drains after checkpoint");
        assert!(
            !rt1.console_output().contains("=>"),
            "the parked run printed nothing"
        );
        rt1.shutdown();

        // Restore on VM two: identity, limits, files, and output carry.
        let rt2 = MpRuntime::builder().user("alice", "pw").build().unwrap();
        let restored = rt2.restore_app(&bytes).unwrap();
        assert_eq!(restored.id(), id, "the application id migrates");
        assert_eq!(restored.user().name(), "alice");
        assert_eq!(restored.wait_for().unwrap(), 0);
        // Read the limit after exit: the restored main applies it on startup.
        assert_eq!(
            restored.context().limits().get(ResourceKind::Memory),
            64 << 20,
            "checkpointed limits override the target policy"
        );
        assert!(
            rt2.console_output().contains(expected),
            "restored output matches the uninterrupted run; got: {}",
            rt2.console_output()
        );
        assert_eq!(
            rt2.vfs().read("/home/alice/notes.txt", system).unwrap(),
            b"carry me",
            "the home subtree migrates"
        );
        rt2.shutdown();
    }

    #[test]
    fn a_tampered_continuation_is_refused_before_anything_lands() {
        let rt = MpRuntime::builder().user("alice", "pw").build().unwrap();
        let metrics = Arc::clone(rt.vm().obs().vm_metrics());
        let charged = metrics.counter("memory.charged").get();
        // `main` parked at `push_int 1` over its two-slot frame.
        let mut good = snap();
        good.interp.arena.push(jmp_vm::interp::Value::Null);
        let mut bad = good.clone();
        bad.interp.sp = u32::MAX;
        let err = rt.restore_app(&bad.to_bytes().unwrap()).unwrap_err();
        assert!(
            matches!(err, Error::Vm(jmp_vm::VmError::Trap { .. })),
            "{err:?}"
        );
        let system = rt.system_user().id();
        assert!(!rt.vfs().exists("/home/alice/notes.txt", system));
        assert!(rt.applications().is_empty());
        for (counter, before) in [
            ("apps.restored", 0),
            ("apps.execed", 0),
            ("memory.charged", charged),
        ] {
            assert_eq!(metrics.counter(counter).get(), before, "{counter}");
        }
        // Untampered, the same snapshot restores.
        let app = rt.restore_app(&good.to_bytes().unwrap()).unwrap();
        assert_eq!(app.wait_for().unwrap(), 0);
        assert!(rt.vfs().exists("/home/alice/notes.txt", system));
        rt.shutdown();
    }

    /// Restores a valid snapshot for alice carrying one extra file at
    /// `path`, and checks that the restore is refused with a security
    /// error before anything lands: no file written anywhere, no
    /// application, and `apps.restored`, `apps.execed` and
    /// `memory.charged` unchanged.
    fn assert_refused_with_nothing_landed(path: &str) {
        let rt = MpRuntime::builder()
            .user("alice", "pw")
            .user("bob", "pw")
            .build()
            .unwrap();
        let metrics = Arc::clone(rt.vm().obs().vm_metrics());
        let charged = metrics.counter("memory.charged").get();
        let system = rt.system_user().id();
        let mut hostile = snap();
        hostile.interp.arena.push(jmp_vm::interp::Value::Null);
        hostile.files.push(SnapFile {
            path: path.into(),
            data: b"grant user \"alice\" { permission all; };".to_vec(),
        });
        let err = rt.restore_app(&hostile.to_bytes().unwrap()).unwrap_err();
        assert!(err.is_security(), "{path}: {err:?}");
        for written in [
            path,
            "/home/bob/notes",
            "/etc/policy.d/alice.policy",
            "/home/alice/notes.txt",
        ] {
            assert!(!rt.vfs().exists(written, system), "{path} wrote {written}");
        }
        assert!(rt.applications().is_empty());
        for (counter, before) in [
            ("apps.restored", 0),
            ("apps.execed", 0),
            ("memory.charged", charged),
        ] {
            assert_eq!(metrics.counter(counter).get(), before, "{counter}");
        }
        rt.shutdown();
    }

    #[test]
    fn a_snapshot_file_outside_the_home_is_refused() {
        // Once the lazy user store loaded it, this file granted alice
        // `setPolicy`.
        assert_refused_with_nothing_landed("/etc/policy.d/alice.policy");
    }

    #[test]
    fn a_snapshot_path_walking_out_of_the_home_is_refused() {
        assert_refused_with_nothing_landed("/home/alice/../bob/notes");
    }

    #[test]
    fn home_paths_must_be_normalized_and_inside() {
        for ok in ["/home/alice/notes.txt", "/home/alice/a/b"] {
            assert!(check_home_path(ok, "/home/alice").is_ok(), "{ok}");
        }
        for bad in [
            "/home/alice",
            "/home/alicex/notes",
            "/home/alice/./notes",
            "/home/alice//notes",
            "/home/alice/notes/",
            "home/alice/notes",
            "/etc/passwd",
        ] {
            assert!(check_home_path(bad, "/home/alice").is_err(), "{bad}");
        }
        assert!(
            check_home_path("/etc/motd", "/").is_ok(),
            "the root home holds everything"
        );
    }

    #[test]
    fn restore_on_the_same_vm_allocates_a_fresh_id_when_taken() {
        let rt = MpRuntime::builder().user("bob", "pw").build().unwrap();
        let app = rt.launch_image("bob", long_sum_image(), &[]).unwrap();
        let id = app.id();
        let bytes = rt.checkpoint_app(id).unwrap();
        assert!(rt.await_idle(Duration::from_secs(5)));

        // First restore gets the original id back (it is free again);
        // checkpointing it again and double-restoring forces a collision.
        let first = rt.restore_app(&bytes).unwrap();
        assert_eq!(first.id(), id);
        assert_eq!(first.wait_for().unwrap(), 0);
        assert!(rt.await_idle(Duration::from_secs(5)));
        let a = rt.restore_app(&bytes).unwrap();
        let b = rt.restore_app(&bytes).unwrap();
        assert_ne!(a.id(), b.id(), "a taken id falls back to fresh allocation");
        a.wait_for().unwrap();
        b.wait_for().unwrap();
        assert!(
            rt.console_output().matches("=> 4999950000").count() >= 3,
            "every restore completes the sum"
        );
        rt.shutdown();
    }

    #[test]
    fn app_snapshot_bytes_roundtrip() {
        let s = snap();
        let bytes = s.to_bytes().unwrap();
        assert_eq!(&bytes[..APP_SNAPSHOT_MAGIC.len()], APP_SNAPSHOT_MAGIC);
        let back = AppSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn app_snapshot_rejects_bad_magic_and_version() {
        let s = snap();
        let mut bytes = s.to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(AppSnapshot::from_bytes(&bytes).is_err());
        let mut vbytes = s.to_bytes().unwrap();
        vbytes[APP_SNAPSHOT_MAGIC.len()] = 99;
        let err = AppSnapshot::from_bytes(&vbytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
