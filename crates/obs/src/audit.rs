//! The security audit trail: a bounded log of *denied* permission checks.
//!
//! The paper's multi-user model (§5.3) makes "who was denied what" the
//! question an administrator actually asks; grants are policy, denials are
//! incidents. The log therefore records denials only — a successful check
//! leaves a histogram sample, not an audit record.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::hub::ObsClock;
use crate::recorder::Span;

/// Default number of denial records retained.
pub const DEFAULT_CAPACITY: usize = 512;

/// One audited incident: a denied permission check, or an application
/// fault recorded through the same trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Denial order (per log, starting at 0).
    pub seq: u64,
    /// Milliseconds on the log's clock (the hub's shared clock, so
    /// directly comparable with event and span timestamps).
    pub at_ms: u64,
    /// The effective user at check time, when known.
    pub user: Option<String>,
    /// The application whose stack failed the check, when attributable.
    pub app: Option<u64>,
    /// Display form of the demanded permission.
    pub permission: String,
    /// Why it was refused — the protection domain (or message) that did not
    /// imply the demand.
    pub context: String,
    /// The flight recorder's incident record at incident time — the
    /// causal history that led to the denial or fault, at most
    /// [`INCIDENT_SPANS`](crate::INCIDENT_SPANS) spans of the
    /// denying thread's trace. Empty when nothing was traced.
    pub trace: Vec<Span>,
}

struct LogInner {
    capacity: usize,
    clock: ObsClock,
    total: AtomicU64,
    ring: Mutex<VecDeque<AuditRecord>>,
}

/// The bounded denial log. Cheap handle; clones share the log.
#[derive(Clone)]
pub struct AuditLog {
    inner: Arc<LogInner>,
}

impl AuditLog {
    /// Creates a log retaining the most recent `capacity` denials, on its
    /// own fresh clock.
    pub fn new(capacity: usize) -> AuditLog {
        AuditLog::with_clock(capacity, ObsClock::new())
    }

    /// Creates a log stamping records against an explicit clock (the hub's
    /// shared clock).
    pub fn with_clock(capacity: usize, clock: ObsClock) -> AuditLog {
        AuditLog {
            inner: Arc::new(LogInner {
                capacity: capacity.max(1),
                clock,
                total: AtomicU64::new(0),
                ring: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// The clock records are stamped with.
    pub fn clock(&self) -> ObsClock {
        self.inner.clock
    }

    /// Records a denial. Oldest records rotate out when full; `total`
    /// keeps counting regardless.
    pub fn record(
        &self,
        user: Option<String>,
        app: Option<u64>,
        permission: impl Into<String>,
        context: impl Into<String>,
    ) {
        self.record_with_dump(user, app, permission, context, Vec::new());
    }

    /// Records a denial carrying a flight-recorder dump — the incident
    /// record taken at incident time.
    pub fn record_with_dump(
        &self,
        user: Option<String>,
        app: Option<u64>,
        permission: impl Into<String>,
        context: impl Into<String>,
        trace: Vec<Span>,
    ) {
        let record = AuditRecord {
            seq: self.inner.total.fetch_add(1, Ordering::Relaxed),
            at_ms: self.inner.clock.now_ms(),
            user,
            app,
            permission: permission.into(),
            context: context.into(),
            trace,
        };
        let mut ring = self.inner.ring.lock();
        if ring.len() >= self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Total denials ever recorded, including since-rotated ones.
    pub fn total(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }

    /// The retained denials, oldest first.
    pub fn recent(&self) -> Vec<AuditRecord> {
        self.inner.ring.lock().iter().cloned().collect()
    }

    /// Retained denials filtered by user and/or application; `None` matches
    /// everything on that axis.
    pub fn query(&self, user: Option<&str>, app: Option<u64>) -> Vec<AuditRecord> {
        self.inner
            .ring
            .lock()
            .iter()
            .filter(|r| user.is_none_or(|u| r.user.as_deref() == Some(u)))
            .filter(|r| app.is_none_or(|a| r.app == Some(a)))
            .cloned()
            .collect()
    }
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("capacity", &self.inner.capacity)
            .field("total", &self.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_queries_by_user_and_app() {
        let log = AuditLog::new(16);
        log.record(
            Some("bob".into()),
            Some(2),
            "(file /home/alice/- read)",
            "d1",
        );
        log.record(Some("alice".into()), Some(1), "(runtime setUser)", "d2");
        log.record(Some("bob".into()), Some(3), "(runtime readMetrics)", "d3");
        assert_eq!(log.total(), 3);
        let bobs = log.query(Some("bob"), None);
        assert_eq!(bobs.len(), 2);
        assert!(bobs.iter().all(|r| r.user.as_deref() == Some("bob")));
        let app3 = log.query(None, Some(3));
        assert_eq!(app3.len(), 1);
        assert_eq!(app3[0].permission, "(runtime readMetrics)");
        assert_eq!(log.query(Some("bob"), Some(2)).len(), 1);
        assert_eq!(log.query(Some("carol"), None).len(), 0);
    }

    #[test]
    fn rotation_keeps_total_counting() {
        let log = AuditLog::new(2);
        for i in 0..5 {
            log.record(None, None, format!("p{i}"), "");
        }
        assert_eq!(log.total(), 5);
        let recent = log.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].permission, "p3");
        assert_eq!(recent[1].seq, 4);
    }

    #[test]
    fn dump_rides_the_record() {
        let log = AuditLog::new(4);
        let span = Span {
            id: 11,
            trace_id: 3,
            parent: 0,
            category: crate::SpanCategory::Exec,
            name: "exec:snoop".into(),
            app: Some(2),
            thread: 1,
            start_us: 500,
            dur_us: 80,
        };
        log.record_with_dump(
            Some("bob".into()),
            Some(2),
            "(file /home/alice/x read)",
            "file:/apps/snoop",
            vec![span.clone()],
        );
        let record = log.recent().remove(0);
        assert_eq!(record.trace, vec![span]);
        // Plain records carry an empty dump.
        log.record(None, None, "(runtime x)", "");
        assert!(log.recent()[1].trace.is_empty());
    }

    #[test]
    fn records_roundtrip_through_json() {
        let log = AuditLog::new(4);
        log.record(
            Some("bob".into()),
            Some(7),
            "(awt showWindow)",
            "file:/apps/ps",
        );
        let record = log.recent().remove(0);
        let json = serde_json::to_string(&record).unwrap();
        let back: AuditRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }
}
