//! Checkpoint images for quiesced interpreter runs.
//!
//! The multi-processing runtime makes an application's entire state a
//! movable object (ROADMAP item 2, and the migration primitive the
//! *Remote Playground* pool needs): the interpreter parks at a safepoint
//! — an op boundary where no instruction is half-charged — and serializes
//! its continuation as an [`InterpSnapshot`]. The snapshot embeds the
//! mobile-code [`ClassImage`](crate::interp::ClassImage) itself (class-define-time compilation is
//! deterministic, so the restoring VM recompiles to the identical op
//! stream), every live frame, the value arena, the remaining fuel, and the
//! cumulative instruction accounting — enough for a resumed run to produce
//! byte-identical results *and* identical instruction counts, which the
//! differential corpus in `interp::difftest` pins down.
//!
//! The byte format is versioned: a fixed magic + version header followed
//! by a self-describing JSON body. Decoders reject unknown versions rather
//! than guessing.

use serde::{Deserialize, Serialize};

use crate::error::VmError;
use crate::interp::{ClassImage, Value};

/// Current snapshot wire-format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic prefix on every serialized snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"JMPSNAP\0";

/// One suspended interpreter frame: indices into the deterministically
/// recompiled [`CompiledImage`](crate::interp::CompiledImage).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameSnap {
    /// Method index of the caller frame.
    pub method: u32,
    /// Resume pc inside the caller (the op after its CALL).
    pub pc: u32,
    /// Arena base slot of the caller frame.
    pub base: u32,
}

/// A parked interpreter continuation: everything needed to resume the run
/// on this VM or another one with identical observable behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterpSnapshot {
    /// Wire-format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The mobile-code class image; recompiled (deterministically) on
    /// restore, so op-level pcs and method indices stay valid.
    pub image: ClassImage,
    /// The entry method name the run was started with.
    pub entry: String,
    /// Suspended caller frames, outermost first.
    pub frames: Vec<FrameSnap>,
    /// Method index of the innermost (executing) frame.
    pub method: u32,
    /// The op index the resumed run dispatches next (the parked op:
    /// uncharged and unexecuted at park time).
    pub pc: u32,
    /// Arena base slot of the executing frame.
    pub base: u32,
    /// Arena operand-stack top of the executing frame.
    pub sp: u32,
    /// The value arena: locals and operand stacks of every live frame.
    pub arena: Vec<Value>,
    /// Remaining fuel, if the run was fuel-limited.
    pub fuel: Option<u64>,
    /// Cumulative wire instructions retired before the park; pre-seeded
    /// into the resuming interpreter so safepoint cadence and final
    /// instruction counts match an unparked run exactly.
    pub instructions: u64,
    /// Cumulative dispatch count at park.
    pub dispatches: u64,
    /// Cumulative method calls at park.
    pub method_calls: u64,
    /// Cumulative native calls at park.
    pub native_calls: u64,
}

impl InterpSnapshot {
    /// Serializes to the versioned byte format (magic + version header,
    /// JSON body).
    ///
    /// # Errors
    ///
    /// [`VmError::Io`] if encoding fails.
    pub fn to_bytes(&self) -> Result<Vec<u8>, VmError> {
        let body = serde_json::to_vec(self).map_err(|e| VmError::Io {
            message: format!("snapshot encode: {e}"),
        })?;
        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 4 + body.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Decodes a snapshot produced by [`InterpSnapshot::to_bytes`],
    /// rejecting bad magic and unknown versions.
    ///
    /// # Errors
    ///
    /// [`VmError::Io`] on a malformed image or unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<InterpSnapshot, VmError> {
        let header = SNAPSHOT_MAGIC.len() + 4;
        if bytes.len() < header || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(VmError::Io {
                message: "snapshot decode: bad magic".into(),
            });
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&bytes[SNAPSHOT_MAGIC.len()..header]);
        let version = u32::from_le_bytes(ver);
        if version != SNAPSHOT_VERSION {
            return Err(VmError::Io {
                message: format!(
                    "snapshot decode: version {version} unsupported (expected {SNAPSHOT_VERSION})"
                ),
            });
        }
        let snap: InterpSnapshot =
            serde_json::from_slice(&bytes[header..]).map_err(|e| VmError::Io {
                message: format!("snapshot decode: {e}"),
            })?;
        if snap.version != version {
            return Err(VmError::Io {
                message: "snapshot decode: header/body version mismatch".into(),
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::assemble;

    fn snap() -> InterpSnapshot {
        let image = assemble(
            "class Loop\nmethod main/0 locals=1\n  push_int 0\n  store 0\n  load 0\n  return_value\n",
        )
        .expect("assembles");
        InterpSnapshot {
            version: SNAPSHOT_VERSION,
            image,
            entry: "main".into(),
            frames: vec![FrameSnap {
                method: 0,
                pc: 2,
                base: 0,
            }],
            method: 0,
            pc: 1,
            base: 0,
            sp: 3,
            arena: vec![Value::Int(7), Value::Null, Value::str("hello")],
            fuel: Some(1000),
            instructions: 2048,
            dispatches: 1800,
            method_calls: 1,
            native_calls: 0,
        }
    }

    #[test]
    fn snapshot_bytes_roundtrip() {
        let s = snap();
        let bytes = s.to_bytes().unwrap();
        assert_eq!(&bytes[..SNAPSHOT_MAGIC.len()], SNAPSHOT_MAGIC);
        let back = InterpSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn snapshot_rejects_bad_magic_and_version() {
        let s = snap();
        let mut bytes = s.to_bytes().unwrap();
        assert!(InterpSnapshot::from_bytes(&bytes[..4]).is_err());
        bytes[0] = b'X';
        assert!(InterpSnapshot::from_bytes(&bytes).is_err());
        let mut vbytes = s.to_bytes().unwrap();
        vbytes[SNAPSHOT_MAGIC.len()] = 99;
        let err = InterpSnapshot::from_bytes(&vbytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
