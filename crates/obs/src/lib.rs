//! # jmp-obs
//!
//! The observability substrate for the jmproc runtime: VM-wide tracing,
//! per-application metrics, and the security audit trail.
//!
//! The paper (Balfanz & Gong, ICDCS 1998) runs many mutually-suspicious
//! applications inside one JVM; once `ps`-style multiplexing exists, the
//! natural next questions are operational: *what is each application doing,
//! and who was denied what?* This crate answers them with three small,
//! dependency-light pieces:
//!
//! * **Events** ([`EventSink`]) — a bounded ring buffer of structured
//!   [`Event`]s (application lifecycle, class definition, access denials)
//!   with subscriber fan-out over channels. Publishing never blocks the hot
//!   path: a full ring drops the oldest event and counts it, and a disabled
//!   sink ([`EventSink::disabled`]) costs exactly one atomic load.
//! * **Metrics** ([`MetricsRegistry`]) — [`Counter`]s, [`Gauge`]s and
//!   log2-bucketed [`Histogram`]s, grouped per application and rolled up
//!   VM-wide, all exportable as JSON through `serde`.
//! * **Audit** ([`AuditLog`]) — every *denied* permission check, with the
//!   demanded permission, the refusing protection domain, the effective
//!   user, and the owning application.
//! * **Spans** ([`FlightRecorder`], [`trace`]) — causal spans carrying a
//!   [`TraceCtx`] across application boundaries (`exec`, AWT dispatch, pipe
//!   I/O, access checks) into an always-on bounded flight record that is
//!   attached to audit incidents and exports as Chrome `trace_event` JSON.
//! * **Watchdogs** ([`WatchdogRegistry`]) — per-dispatcher heartbeats with
//!   stall detection, surfacing hung event-dispatch and helper threads.
//! * **Profiles** ([`Profiler`], [`profile`]) — always-on per-opcode
//!   interpreter accounting (exact counts, apportioned cost quantiles) and
//!   sampled per-thread stacks, per application and VM-wide, exporting as
//!   [`ProfileReport`] JSON, flamegraph.pl collapsed-stack text, and Chrome
//!   trace instant events.
//!
//! [`ObsHub`] composes the pieces around one shared [`ObsClock`] and is
//! what the VM attaches; higher layers (`jmp-vm`, `jmp-core`, the shell's
//! `top`/`vmstat`/`audit`/`trace` builtins) only ever talk to the hub.
//! Reading any of it back *out* is permission-gated by the runtime
//! (`RuntimePermission("readMetrics")` / `RuntimePermission("readAuditLog")`
//! / `RuntimePermission("traceVm")`) — observability obeys the same
//! security model it observes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod demand;
mod hub;
mod metrics;
pub mod profile;
mod recorder;
mod sink;
pub mod trace;
mod watchdog;

pub use audit::{AuditLog, AuditRecord};
pub use demand::{DemandCell, DemandLedger, DemandRow};
pub use hub::{CacheOutcome, HubSnapshot, ObsClock, ObsHub};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use profile::{OpcodeProfile, ProfileReport, ProfileView, Profiler, ThreadLoc, REAPED_VIEWS};
pub use recorder::{FlightRecorder, Span, SpanCategory, SpanGuard, INCIDENT_SPANS};
pub use sink::{Event, EventKind, EventSink};
pub use trace::TraceCtx;
pub use watchdog::{Heartbeat, WatchdogRegistry, WatchdogRow};
