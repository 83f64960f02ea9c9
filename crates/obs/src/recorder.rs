//! The flight recorder: an always-on bounded ring of completed [`Span`]s.
//!
//! Spans are the "what happened, when, caused by what" counterpart to the
//! event sink's lifecycle stream. The recorder is written on the hot path,
//! so it follows the sink's discipline: recording into a *disabled*
//! recorder is one relaxed atomic load and returns; an enabled recorder
//! takes one short mutex to rotate the ring. Nothing here blocks on
//! readers, and nothing is gated — permission gating (the
//! `RuntimePermission("traceVm")` read-out) lives in the runtime layer,
//! because writing a span must stay free for the code being observed.
//!
//! The ring doubles as the *flight record*: when a permission check is
//! denied, a quota refuses an allocation, or an application faults, the hub
//! attaches an incident record ([`FlightRecorder::dump`]) to the audit
//! entry, so the incident arrives with the causal history that led to it.
//! The record is bounded at [`INCIDENT_SPANS`] and scoped to the denying
//! thread's trace: its ancestor chain — including spans still *open* at
//! that moment, with their duration so far, because the exec span that
//! spawned the offending thread may not have completed yet — then the
//! trace's most recent completed spans. The whole ring exports as Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto.

use std::collections::{HashMap, VecDeque};
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::hub::ObsClock;
use crate::trace::{self, TraceCtx};

/// Default number of completed spans retained.
pub const DEFAULT_CAPACITY: usize = 2048;

/// Most spans one incident record ([`FlightRecorder::dump`]) carries. The
/// audit log retains 512 records, so incident history is bounded at
/// 32,768 spans however many denials the VM sees.
pub const INCIDENT_SPANS: usize = 64;

/// Which boundary a span covers. These are the chrome export's `cat`
/// values; the acceptance bar for the export is that at least the
/// exec/dispatch/pipe categories appear in a traced session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanCategory {
    /// A shell command line, root of everything the line causes.
    Command,
    /// `Application.exec` — spawning the new thread-group subtree.
    Exec,
    /// One AWT event's dispatch on a dispatcher thread.
    Dispatch,
    /// A pipe write or read crossing an application boundary.
    Pipe,
    /// One security access check inside a traced request.
    Check,
}

impl SpanCategory {
    /// The kebab-case name used in the chrome export's `cat` field.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanCategory::Command => "command",
            SpanCategory::Exec => "exec",
            SpanCategory::Dispatch => "dispatch",
            SpanCategory::Pipe => "pipe",
            SpanCategory::Check => "check",
        }
    }
}

impl std::fmt::Display for SpanCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed span in the flight record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// VM-unique span id.
    pub id: u64,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// The parent span id; `0` marks a trace root.
    pub parent: u64,
    /// The boundary this span covers.
    pub category: SpanCategory,
    /// Human-readable label (`exec:shell`, `pipe.read`, ...).
    pub name: String,
    /// The application charged with the work, when attributable.
    pub app: Option<u64>,
    /// Stable ordinal of the recording thread.
    pub thread: u64,
    /// Microseconds since the hub clock's origin.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

struct RecorderInner {
    enabled: AtomicBool,
    capacity: usize,
    clock: ObsClock,
    recorded: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Spans>,
}

/// The completed ring and the open spans under ONE lock, so closing a span
/// (open → ring) is atomic with respect to an incident read: a dump sees a
/// closing span in exactly one of the two places, never neither, never
/// both.
#[derive(Default)]
struct Spans {
    ring: VecDeque<Span>,
    /// Spans begun but not yet completed, keyed by span id; bounded by the
    /// number of live [`SpanGuard`]s.
    open: HashMap<u64, Span>,
}

impl Spans {
    /// Appends a completed span, rotating the oldest out of a full ring.
    /// Returns `true` when a span was dropped.
    fn push(&mut self, span: Span, capacity: usize) -> bool {
        let full = self.ring.len() >= capacity;
        if full {
            self.ring.pop_front();
        }
        self.ring.push_back(span);
        full
    }

    /// The incident record of trace `ctx`: the ancestor chain of
    /// `ctx.parent_span`, then the trace's newest completed spans, at most
    /// [`INCIDENT_SPANS`] in all. One reverse scan of the ring collects the
    /// trace's spans by reference; only the spans kept are cloned.
    fn incident(&self, ctx: TraceCtx, now_us: u64) -> Vec<Span> {
        let in_trace: Vec<&Span> = self
            .ring
            .iter()
            .rev()
            .filter(|span| span.trace_id == ctx.trace_id)
            .collect();
        let mut record = Vec::new();
        let mut ancestor = ctx.parent_span;
        while ancestor != 0 && record.len() < INCIDENT_SPANS {
            if let Some(open) = self.open.get(&ancestor) {
                let mut span = open.clone();
                span.dur_us = now_us.saturating_sub(span.start_us);
                record.push(span);
            } else if let Some(done) = in_trace.iter().find(|span| span.id == ancestor) {
                record.push((*done).clone());
            } else {
                // Evicted, or not a span of this recorder: the chain ends.
                break;
            }
            ancestor = record.last().map_or(0, |span| span.parent);
        }
        let chain = record.len();
        for span in in_trace {
            if record.len() >= INCIDENT_SPANS {
                break;
            }
            if !record[..chain].iter().any(|kept| kept.id == span.id) {
                record.push(span.clone());
            }
        }
        record
    }
}

/// The bounded span ring. Cheap handle; clones share the recorder.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates an enabled recorder retaining `capacity` completed spans,
    /// on its own clock (the hub re-bases recorders onto its shared clock).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_clock(capacity, ObsClock::new(), true)
    }

    /// Creates a recorder on an explicit clock and enablement state.
    pub fn with_clock(capacity: usize, clock: ObsClock, enabled: bool) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(enabled),
                capacity: capacity.max(1),
                clock,
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                spans: Mutex::new(Spans::default()),
            }),
        }
    }

    /// Whether span recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns span recording on or off. The retained ring is kept either
    /// way, so an incident dump still shows the history from before a
    /// `trace off`.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The clock spans are stamped with.
    pub fn clock(&self) -> ObsClock {
        self.inner.clock
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total spans ever recorded (including since-rotated ones).
    pub fn recorded(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Spans rotated out of a full ring.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Opens a scoped span. Returns `None` when recording is off. While the
    /// guard lives, the calling thread's [`TraceCtx`] points at the new
    /// span, so children (spawned threads, posted events, nested checks)
    /// attach under it; dropping the guard records the completed span and
    /// restores the previous context. A thread with no current context
    /// roots a fresh trace — this is how a shell command or an `exec` from
    /// an untraced caller starts one. `app` is the application charged
    /// with the span's work — the caller's own, read off the context its
    /// thread carries.
    pub fn begin(
        &self,
        category: SpanCategory,
        name: impl Into<String>,
        app: Option<u64>,
    ) -> Option<SpanGuard> {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let prev = trace::current();
        let (trace_id, parent) = match prev {
            Some(ctx) => (ctx.trace_id, ctx.parent_span),
            None => (trace::next_id(), 0),
        };
        let id = trace::next_id();
        trace::install(Some(TraceCtx {
            trace_id,
            parent_span: id,
        }));
        let name = name.into();
        let start_us = self.inner.clock.now_us();
        self.inner.spans.lock().open.insert(
            id,
            Span {
                id,
                trace_id,
                parent,
                category,
                name: name.clone(),
                app,
                thread: trace::thread_ordinal(),
                start_us,
                dur_us: 0,
            },
        );
        Some(SpanGuard {
            recorder: self.clone(),
            prev,
            id,
            trace_id,
            parent,
            category,
            name,
            app,
            start_us,
        })
    }

    /// A start timestamp for a span measured by the caller — microseconds
    /// on the shared hub clock, so caller-measured spans sort on the same
    /// timeline as every other span, sample, and audit record — or `None`
    /// when recording is off (so the disabled path never reads the clock).
    pub fn timer(&self) -> Option<u64> {
        if self.inner.enabled.load(Ordering::Relaxed) {
            Some(self.inner.clock.now_us())
        } else {
            None
        }
    }

    /// Nanoseconds elapsed since a [`FlightRecorder::timer`] start, read on
    /// the same clock (µs resolution).
    pub fn elapsed_ns(&self, start_us: u64) -> u64 {
        self.inner.clock.now_us().saturating_sub(start_us) * 1_000
    }

    /// Records an already-finished span of `latency_ns` ending now, under
    /// the calling thread's context. A thread outside any trace records
    /// nothing — per-check spans exist to explain traced requests, not to
    /// re-count every check the metrics already count.
    pub fn record_latency(
        &self,
        category: SpanCategory,
        name: &str,
        app: Option<u64>,
        latency_ns: u64,
    ) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let Some(ctx) = trace::current() else {
            return;
        };
        self.record_with_ctx(category, name, ctx, app, latency_ns);
    }

    /// Records an already-finished span under an explicit context — the
    /// cross-boundary half of a handoff (a pipe read runs under the
    /// *writer's* context, carried by the pipe).
    pub fn record_with_ctx(
        &self,
        category: SpanCategory,
        name: &str,
        ctx: TraceCtx,
        app: Option<u64>,
        latency_ns: u64,
    ) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let dur_us = latency_ns / 1_000;
        let now = self.inner.clock.now_us();
        self.push(
            Span {
                id: trace::next_id(),
                trace_id: ctx.trace_id,
                parent: ctx.parent_span,
                category,
                name: name.to_owned(),
                app,
                thread: trace::thread_ordinal(),
                start_us: now.saturating_sub(dur_us),
                dur_us,
            },
            false,
        );
    }

    /// Records a completed span; `was_open` when it closes a
    /// [`SpanGuard`], whose open entry leaves under the same lock.
    fn push(&self, span: Span, was_open: bool) {
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
        let dropped = {
            let mut spans = self.inner.spans.lock();
            if was_open {
                spans.open.remove(&span.id);
            }
            spans.push(span, self.inner.capacity)
        };
        if dropped {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The retained completed spans, oldest first — the whole ring, for
    /// exports and tests. Incidents read [`FlightRecorder::dump`] instead.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().ring.iter().cloned().collect()
    }

    /// The incident record for a denial, quota refusal or fault on the
    /// calling thread: at most [`INCIDENT_SPANS`] spans, sorted by start.
    /// Inside a trace it holds the thread's ancestor chain — its parent
    /// span, that span's parent, and so on, whether still open (stamped
    /// with its duration so far) or already in the ring — then the trace's
    /// most recent completed spans. Open ancestors matter: a denial early
    /// in an application's `main` can race the spawner still inside its
    /// `exec` span, and the record must show that exec regardless of which
    /// side wins. A thread outside any trace gets the ring's newest spans.
    ///
    /// One reverse scan of the ring under its lock; nothing outside the
    /// record is cloned and the ring is never sorted.
    pub fn dump(&self) -> Vec<Span> {
        let now = self.inner.clock.now_us();
        let spans = self.inner.spans.lock();
        let mut record = match trace::current() {
            Some(ctx) => spans.incident(ctx, now),
            None => spans
                .ring
                .iter()
                .rev()
                .take(INCIDENT_SPANS)
                .cloned()
                .collect(),
        };
        drop(spans);
        record.sort_by_key(|span| (span.start_us, span.id));
        record
    }

    /// Empties the ring (keeps totals). Used by experiments that want the
    /// export of one isolated scenario.
    pub fn clear(&self) {
        self.inner.spans.lock().ring.clear();
    }

    /// Exports the retained spans as Chrome `trace_event` JSON — load the
    /// string as a file in `chrome://tracing` or <https://ui.perfetto.dev>.
    /// Spans become complete (`"ph":"X"`) events; `pid` is the owning
    /// application (0 = system), `tid` the recording thread's ordinal.
    pub fn export_chrome_trace(&self) -> String {
        crate::profile::chrome_trace_doc(self.chrome_events())
    }

    /// The retained spans as individual Chrome `trace_event` values, for
    /// callers that merge them with other event sources (the hub's combined
    /// export interleaves these with profiler samples).
    pub fn chrome_events(&self) -> Vec<serde_json::Value> {
        let entry = |key: &str, value: serde_json::Value| (key.to_owned(), value);
        self.spans()
            .into_iter()
            .map(|span| {
                serde_json::Value::Map(vec![
                    entry("name", span.name.serialize_value()),
                    entry("cat", span.category.as_str().serialize_value()),
                    entry("ph", "X".serialize_value()),
                    entry("ts", span.start_us.serialize_value()),
                    entry("dur", span.dur_us.serialize_value()),
                    entry("pid", span.app.unwrap_or(0).serialize_value()),
                    entry("tid", span.thread.serialize_value()),
                    entry(
                        "args",
                        serde_json::Value::Map(vec![
                            entry("trace_id", span.trace_id.serialize_value()),
                            entry("span_id", span.id.serialize_value()),
                            entry("parent_span", span.parent.serialize_value()),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.inner.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// An open span: completes (records itself) on drop and restores the
/// thread's previous trace context.
pub struct SpanGuard {
    recorder: FlightRecorder,
    prev: Option<TraceCtx>,
    id: u64,
    trace_id: u64,
    parent: u64,
    category: SpanCategory,
    name: String,
    app: Option<u64>,
    start_us: u64,
}

impl SpanGuard {
    /// The trace this span roots or extends.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's id (children name it as their parent).
    pub fn span_id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let start_us = self.start_us;
        let end_us = self.recorder.inner.clock.now_us();
        self.recorder.push(
            Span {
                id: self.id,
                trace_id: self.trace_id,
                parent: self.parent,
                category: self.category,
                name: mem::take(&mut self.name),
                app: self.app,
                thread: trace::thread_ordinal(),
                start_us,
                dur_us: end_us.saturating_sub(start_us),
            },
            true,
        );
        trace::install(self.prev);
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("trace_id", &self.trace_id)
            .field("span_id", &self.id)
            .field("category", &self.category)
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = FlightRecorder::with_clock(8, ObsClock::new(), false);
        trace::install(Some(TraceCtx {
            trace_id: 1,
            parent_span: 0,
        }));
        recorder.record_latency(SpanCategory::Check, "access-check", None, 500);
        assert!(recorder.begin(SpanCategory::Exec, "exec:x", None).is_none());
        assert_eq!(recorder.recorded(), 0);
        assert!(recorder.spans().is_empty());
        trace::clear();
    }

    #[test]
    fn begin_nests_children_and_restores_context() {
        let recorder = FlightRecorder::new(16);
        trace::clear();
        let outer = recorder.begin(SpanCategory::Exec, "exec:sh", None).unwrap();
        let trace_id = outer.trace_id();
        let outer_span = outer.span_id();
        assert_eq!(
            trace::current(),
            Some(TraceCtx {
                trace_id,
                parent_span: outer_span
            })
        );
        let inner = recorder
            .begin(SpanCategory::Dispatch, "dispatch:w1", None)
            .unwrap();
        assert_eq!(inner.trace_id(), trace_id, "children share the trace");
        drop(inner);
        drop(outer);
        assert_eq!(trace::current(), None, "root restores to untraced");
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].category, SpanCategory::Dispatch);
        assert_eq!(spans[0].parent, outer_span, "child points at its parent");
        assert_eq!(spans[1].parent, 0, "the root has no parent");
        assert!(spans.iter().all(|s| s.trace_id == trace_id));
    }

    #[test]
    fn untraced_latency_records_are_skipped() {
        let recorder = FlightRecorder::new(8);
        trace::clear();
        recorder.record_latency(SpanCategory::Check, "access-check", None, 100);
        assert_eq!(recorder.recorded(), 0, "no context, no span");
    }

    #[test]
    fn ring_rotates_and_counts_drops() {
        let recorder = FlightRecorder::new(2);
        let ctx = TraceCtx {
            trace_id: trace::next_id(),
            parent_span: 0,
        };
        for i in 0..5 {
            recorder.record_with_ctx(SpanCategory::Pipe, &format!("w{i}"), ctx, None, 1_000);
        }
        assert_eq!(recorder.recorded(), 5);
        assert_eq!(recorder.dropped(), 3);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "w4");
    }

    #[test]
    fn chrome_export_is_valid_json_with_categories() {
        let recorder = FlightRecorder::new(16);
        trace::clear();
        {
            let _exec = recorder.begin(SpanCategory::Exec, "exec:sh", None);
            let ctx = trace::current().unwrap();
            recorder.record_with_ctx(SpanCategory::Pipe, "pipe.read", ctx, Some(2), 2_000);
            recorder.record_latency(SpanCategory::Dispatch, "dispatch:w", Some(2), 1_000);
        }
        trace::clear();
        let json = recorder.export_chrome_trace();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap().to_vec();
        assert_eq!(events.len(), 3);
        let cats: std::collections::BTreeSet<String> = events
            .iter()
            .map(|e| e.get("cat").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert!(
            cats.contains("exec") && cats.contains("pipe") && cats.contains("dispatch"),
            "all three boundary categories appear: {cats:?}"
        );
        assert!(events
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() == Some("X")));
    }

    #[test]
    fn dump_includes_open_spans_exactly_once() {
        let recorder = FlightRecorder::new(16);
        trace::clear();
        let exec = recorder
            .begin(SpanCategory::Exec, "exec:app", None)
            .unwrap();
        recorder.record_latency(SpanCategory::Check, "access-check:bypass", None, 1_000);
        // The incident dump sees the still-open exec span...
        let dump = recorder.dump();
        assert_eq!(dump.len(), 2, "{dump:?}");
        assert!(dump
            .iter()
            .any(|s| s.category == SpanCategory::Exec && s.name == "exec:app"));
        // ...but the completed-span ring does not.
        assert_eq!(recorder.spans().len(), 1);
        drop(exec);
        trace::clear();
        // Once completed, the span appears once, not twice.
        let dump = recorder.dump();
        assert_eq!(dump.len(), 2, "{dump:?}");
        assert_eq!(
            dump.iter()
                .filter(|s| s.category == SpanCategory::Exec)
                .count(),
            1
        );
    }

    #[test]
    fn a_span_closing_during_a_dump_appears_exactly_once() {
        // One thread closes spans while another dumps under each closing
        // span's context: whichever side wins the race, the dump holds the
        // span exactly once — open with its duration so far, or completed.
        const ROUNDS: usize = 2_000;
        let recorder = FlightRecorder::new(2 * ROUNDS);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = std::sync::mpsc::channel();
        let closer = {
            let recorder = recorder.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let span = recorder.begin(SpanCategory::Exec, format!("exec:{i}"), None);
                    let span = span.expect("recording is on");
                    tx.send(TraceCtx {
                        trace_id: span.trace_id(),
                        parent_span: span.span_id(),
                    })
                    .expect("dumper listens");
                    barrier.wait();
                    drop(span);
                }
            })
        };
        for _ in 0..ROUNDS {
            let ctx = rx.recv().expect("closer sends");
            trace::install(Some(ctx));
            barrier.wait();
            let dump = recorder.dump();
            let seen = dump.iter().filter(|s| s.id == ctx.parent_span).count();
            assert_eq!(seen, 1, "span {} in {dump:?}", ctx.parent_span);
        }
        trace::clear();
        closer.join().expect("closer finishes");
        let ring = recorder.spans();
        let ids: std::collections::HashSet<u64> = ring.iter().map(|s| s.id).collect();
        assert_eq!(
            (ring.len(), ids.len()),
            (ROUNDS, ROUNDS),
            "each closed once"
        );
    }

    #[test]
    fn incident_record_is_the_ancestor_chain_then_the_newest_trace_spans() {
        let recorder = FlightRecorder::new(DEFAULT_CAPACITY);
        trace::clear();
        let command = recorder.begin(SpanCategory::Command, "cmd", None).unwrap();
        let exec = recorder
            .begin(SpanCategory::Exec, "exec:app", None)
            .unwrap();
        let app_ctx = trace::current().unwrap();
        drop(exec);
        // A foreign trace and 500 spans of this one push the closed exec
        // far behind the newest spans.
        let foreign = TraceCtx {
            trace_id: trace::next_id(),
            parent_span: 0,
        };
        for i in 0..500 {
            recorder.record_with_ctx(SpanCategory::Pipe, &format!("p{i}"), app_ctx, None, 1_000);
            recorder.record_with_ctx(SpanCategory::Pipe, "foreign", foreign, None, 1_000);
        }
        trace::install(Some(app_ctx));
        let dump = recorder.dump();
        assert_eq!(dump.len(), INCIDENT_SPANS);
        assert!(dump.iter().all(|s| s.trace_id == app_ctx.trace_id));
        assert!(
            dump.iter().any(|s| s.name == "exec:app"),
            "closed parent kept"
        );
        assert!(
            dump.iter().any(|s| s.name == "cmd"),
            "open grandparent kept"
        );
        assert!(dump.iter().any(|s| s.name == "p499"), "newest span kept");
        assert!(!dump.iter().any(|s| s.name == "p400"), "older spans cut");
        assert!(dump.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        // Outside any trace: the ring's newest spans, whatever their trace.
        trace::clear();
        let dump = recorder.dump();
        assert_eq!(dump.len(), INCIDENT_SPANS);
        assert!(dump.iter().any(|s| s.name == "foreign"));
        assert!(!dump.iter().any(|s| s.name == "exec:app"));
        drop(command);
        trace::clear();
    }

    #[test]
    fn spans_roundtrip_through_json() {
        let span = Span {
            id: 7,
            trace_id: 3,
            parent: 5,
            category: SpanCategory::Pipe,
            name: "pipe.write".into(),
            app: Some(4),
            thread: 2,
            start_us: 1_000,
            dur_us: 40,
        };
        let json = serde_json::to_string(&span).unwrap();
        let back: Span = serde_json::from_str(&json).unwrap();
        assert_eq!(back, span);
    }
}
