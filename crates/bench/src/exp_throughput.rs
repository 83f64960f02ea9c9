//! E14: data-plane throughput — the batched/coalescing event queue and the
//! ring-buffer pipe against in-run emulations of the seed algorithms (a
//! `VecDeque<u8>` pipe and a one-event-per-lock queue, both re-checking on
//! 5 ms [`BLOCK_POLL`] ticks instead of blocking on a notification).
//!
//! Three tables:
//!
//! * **E14a** — pipe MB/s, seed emulation vs ring pipe, same chunk size and
//!   capacity, same run.
//! * **E14b** — events/sec through the queue with a fixed per-delivered
//!   "repaint" cost, seed emulation vs `push_batch`/`drain` + coalescing.
//! * **E14c** — idle wakeups over a fixed window: the polling loop vs a
//!   parked [`EventQueue`] consumer, plus the live runtime's watchdog rows
//!   showing its blocked helpers as *parked*, not stalled.
//! * **E14d** — the primitives one call at a time: a 4 KiB ring copy,
//!   aligned and straddling the seam, and a 64-event burst coalesced,
//!   batched, and pushed one event per lock.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jmp_awt::{Event, EventKind, EventQueue, WindowId};
use jmp_vm::io::{pipe, PipeReader, PipeWriter};
use jmp_vm::thread::BLOCK_POLL;
use parking_lot::{Condvar, Mutex};

use crate::harness::{per_call_minima, standard_runtime, ARM_ROUNDS};
use crate::table::{fmt_ns, ok, Table};
use crate::Report;

/// Chunk size both pipe variants write and read with.
const PIPE_CHUNK: usize = 4 * 1024;
/// Pipe capacity for both variants.
const PIPE_CAPACITY: usize = 16 * 1024;
/// Bytes pushed through the seed-emulation pipe (polls make it slow).
const LEGACY_PIPE_BYTES: usize = 1024 * 1024;
/// Bytes pushed through the ring pipe.
const RING_PIPE_BYTES: usize = 8 * 1024 * 1024;

/// Events injected per queue variant.
const EVENT_TOTAL: usize = 100_000;
/// Burst length: consecutive paints for one window (coalescible).
const EVENT_BURST: usize = 50;
/// Windows the bursts cycle over.
const EVENT_WINDOWS: u64 = 4;
/// Consumer batch size for the new queue (the toolkit's dispatch batch).
const DRAIN_BATCH: usize = 64;

/// How long the idle-wakeup probes sit with nothing to do.
const IDLE_WINDOW: Duration = Duration::from_millis(100);

/// Calls per round of the E14d arms.
const ARM_CALLS: u32 = 300;

// ---------------------------------------------------------------------------
// Seed emulations. Both re-check state on a BLOCK_POLL (5 ms) tick with no
// notification from the other side — the pre-change idle behaviour this PR
// removed — and move data one element per loop step.
// ---------------------------------------------------------------------------

struct LegacyPipe {
    state: Mutex<(VecDeque<u8>, bool)>,
    tick: Condvar,
    capacity: usize,
}

impl LegacyPipe {
    fn new(capacity: usize) -> Arc<LegacyPipe> {
        Arc::new(LegacyPipe {
            state: Mutex::new((VecDeque::new(), false)),
            tick: Condvar::new(),
            capacity,
        })
    }

    fn write_all(&self, data: &[u8]) {
        let mut offset = 0;
        while offset < data.len() {
            let mut state = self.state.lock();
            while state.0.len() < self.capacity && offset < data.len() {
                state.0.push_back(data[offset]);
                offset += 1;
            }
            if offset < data.len() {
                self.tick.wait_for(&mut state, BLOCK_POLL);
            }
        }
    }

    fn read(&self, buf: &mut [u8]) -> usize {
        loop {
            let mut state = self.state.lock();
            if !state.0.is_empty() {
                let mut n = 0;
                while n < buf.len() {
                    match state.0.pop_front() {
                        Some(byte) => {
                            buf[n] = byte;
                            n += 1;
                        }
                        None => break,
                    }
                }
                return n;
            }
            if state.1 {
                return 0;
            }
            self.tick.wait_for(&mut state, BLOCK_POLL);
        }
    }

    fn close(&self) {
        self.state.lock().1 = true;
    }
}

struct LegacyQueue {
    state: Mutex<(VecDeque<Event>, bool)>,
    tick: Condvar,
}

impl LegacyQueue {
    fn new() -> Arc<LegacyQueue> {
        Arc::new(LegacyQueue {
            state: Mutex::new((VecDeque::new(), false)),
            tick: Condvar::new(),
        })
    }

    fn push(&self, event: Event) {
        self.state.lock().0.push_back(event);
    }

    fn pop(&self) -> Option<Event> {
        loop {
            let mut state = self.state.lock();
            if let Some(event) = state.0.pop_front() {
                return Some(event);
            }
            if state.1 {
                return None;
            }
            self.tick.wait_for(&mut state, BLOCK_POLL);
        }
    }

    fn close(&self) {
        self.state.lock().1 = true;
    }
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Pushes `total` bytes through the seed-emulation pipe; returns MB/s.
fn legacy_pipe_mbps(total: usize) -> f64 {
    let pipe = LegacyPipe::new(PIPE_CAPACITY);
    let writer = Arc::clone(&pipe);
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        let chunk = vec![0xa5u8; PIPE_CHUNK];
        let mut sent = 0;
        while sent < total {
            let n = PIPE_CHUNK.min(total - sent);
            writer.write_all(&chunk[..n]);
            sent += n;
        }
        writer.close();
    });
    let mut buf = vec![0u8; PIPE_CHUNK];
    let mut received = 0;
    loop {
        let n = pipe.read(&mut buf);
        if n == 0 {
            break;
        }
        received += n;
    }
    producer.join().expect("legacy pipe writer");
    assert_eq!(received, total, "legacy pipe delivers every byte");
    mbps(total, start.elapsed())
}

/// Pushes `total` bytes through the ring pipe; returns MB/s.
fn ring_pipe_mbps(total: usize) -> f64 {
    let (writer, reader) = pipe(PIPE_CAPACITY);
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        let chunk = vec![0xa5u8; PIPE_CHUNK];
        let mut sent = 0;
        while sent < total {
            let n = PIPE_CHUNK.min(total - sent);
            writer.write_all(&chunk[..n]).expect("ring pipe write");
            sent += n;
        }
        writer.close();
    });
    let mut buf = vec![0u8; PIPE_CHUNK];
    let mut received = 0;
    loop {
        let n = reader.read(&mut buf).expect("ring pipe read");
        if n == 0 {
            break;
        }
        received += n;
    }
    producer.join().expect("ring pipe writer");
    assert_eq!(received, total, "ring pipe delivers every byte");
    mbps(total, start.elapsed())
}

fn mbps(bytes: usize, elapsed: Duration) -> f64 {
    (bytes as f64 / (1024.0 * 1024.0)) / elapsed.as_secs_f64()
}

/// The fixed per-delivered-event cost: a stand-in repaint touching a small
/// back-buffer. Coalescing pays off exactly because this work is skipped
/// for merged events.
fn handle_event(event: &Event, scratch: &mut [u8]) -> u64 {
    let seed = event.window.0 as u8;
    let mut acc = 0u64;
    for (i, byte) in scratch.iter_mut().enumerate() {
        *byte = byte.wrapping_add(seed ^ i as u8);
        acc = acc.wrapping_add(u64::from(*byte));
    }
    std::hint::black_box(acc)
}

/// The E14b event stream: bursts of consecutive paints, cycling windows
/// between bursts (so only within-burst events may merge).
fn event_stream() -> Vec<Event> {
    (0..EVENT_TOTAL)
        .map(|i| {
            let window = WindowId(1 + (i / EVENT_BURST) as u64 % EVENT_WINDOWS);
            Event::new(window, None, EventKind::Paint)
        })
        .collect()
}

/// One event per lock on both sides, no coalescing; returns
/// (events/sec over injected events, delivered count).
fn legacy_events_per_sec() -> (f64, u64) {
    let queue = LegacyQueue::new();
    let producer_queue = Arc::clone(&queue);
    let events = event_stream();
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        for event in events {
            producer_queue.push(event);
        }
        producer_queue.close();
    });
    let mut scratch = vec![0u8; 256];
    let mut delivered = 0u64;
    while let Some(event) = queue.pop() {
        handle_event(&event, &mut scratch);
        delivered += 1;
    }
    producer.join().expect("legacy queue producer");
    assert_eq!(delivered as usize, EVENT_TOTAL);
    (
        EVENT_TOTAL as f64 / start.elapsed().as_secs_f64(),
        delivered,
    )
}

/// Batched push + batched drain + coalescing; returns
/// (events/sec over injected events, delivered count, merged count).
fn batched_events_per_sec() -> (f64, u64, u64) {
    let queue = EventQueue::new();
    let producer_queue = queue.clone();
    let events = event_stream();
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        let mut events = events;
        for burst in events.chunks_mut(EVENT_BURST) {
            producer_queue.push_batch(burst.iter().cloned());
        }
        producer_queue.close();
    });
    let mut scratch = vec![0u8; 256];
    let mut delivered = 0u64;
    loop {
        let batch = queue.drain(DRAIN_BATCH).expect("drain");
        if batch.is_empty() {
            break;
        }
        for event in &batch {
            handle_event(event, &mut scratch);
            delivered += 1;
        }
    }
    producer.join().expect("batched queue producer");
    let merged = queue.total_coalesced();
    assert_eq!(delivered + merged, EVENT_TOTAL as u64);
    (
        EVENT_TOTAL as f64 / start.elapsed().as_secs_f64(),
        delivered,
        merged,
    )
}

/// Counts wakeups of a seed-style poll loop over [`IDLE_WINDOW`] with
/// nothing to do.
fn legacy_idle_wakeups() -> u64 {
    let queue = LegacyQueue::new();
    let mut wakeups = 0u64;
    let start = Instant::now();
    while start.elapsed() < IDLE_WINDOW {
        let mut state = queue.state.lock();
        if state.0.pop_front().is_some() || state.1 {
            break;
        }
        queue.tick.wait_for(&mut state, BLOCK_POLL);
        wakeups += 1;
    }
    wakeups
}

/// Parks a consumer on an empty [`EventQueue`] for [`IDLE_WINDOW`] and
/// returns the queue's idle-wakeup count (expected: zero).
fn parked_idle_wakeups() -> u64 {
    let queue = EventQueue::new();
    let consumer_queue = queue.clone();
    let consumer =
        std::thread::spawn(
            move || {
                while !consumer_queue.drain(DRAIN_BATCH).expect("drain").is_empty() {}
            },
        );
    std::thread::sleep(IDLE_WINDOW);
    queue.close();
    consumer.join().expect("parked consumer");
    queue.idle_wakeups()
}

/// One 4 KiB chunk written into the ring and read straight back out, so
/// the writer never blocks.
fn ring_copy((writer, reader): (PipeWriter, PipeReader)) -> impl FnMut() {
    let chunk = [0x5au8; PIPE_CHUNK];
    let mut buf = [0u8; PIPE_CHUNK];
    move || {
        writer.write(&chunk).expect("ring pipe write");
        reader.read(&mut buf).expect("ring pipe read");
    }
}

/// E14d: the primitives one call at a time. A capacity of 4.5 KiB makes
/// most copies straddle the ring's seam (two `copy_from_slice`s); the
/// three burst shapes are a coalescible batch (one delivery), a batch
/// that cannot merge, and one lock per event.
fn primitives_table() -> Table {
    let burst = |kind| vec![Event::new(WindowId(1), None, kind); DRAIN_BATCH];
    let (paints, actions) = (burst(EventKind::Paint), burst(EventKind::Action));
    let queue = EventQueue::new();
    let drain = |queue: &EventQueue| drop(queue.drain(DRAIN_BATCH).expect("drain"));
    let costs = per_call_minima(
        ARM_ROUNDS,
        ARM_CALLS,
        [
            &mut ring_copy(pipe(4 * PIPE_CHUNK)),
            &mut ring_copy(pipe(PIPE_CHUNK + 512)),
            &mut || {
                queue.push_batch(paints.iter().cloned());
                drain(&queue);
            },
            &mut || {
                queue.push_batch(actions.iter().cloned());
                drain(&queue);
            },
            &mut || {
                actions.iter().cloned().for_each(|event| queue.push(event));
                (0..DRAIN_BATCH).for_each(|_| assert!(queue.try_pop().is_some()));
            },
        ],
    );
    let mut table = Table::new(
        "E14d",
        "data-plane primitives, per call",
        &["primitive", "per call"],
    );
    let arms = [
        "4 KiB ring copy, aligned",
        "4 KiB ring copy, straddling the seam",
        "64 paints: push_batch + drain (coalesced)",
        "64 actions: push_batch + drain",
        "64 actions: push + try_pop each",
    ];
    for (arm, ns) in arms.into_iter().zip(costs) {
        table.rowd(&[arm.to_string(), fmt_ns(ns)]);
    }
    table.note(format!(
        "round minima of {ARM_ROUNDS} interleaved rounds x {ARM_CALLS} calls per arm; \
         each burst call includes cloning its 64 events"
    ));
    table.note("shape: seam ≈ aligned (≤2 memcpy either way); batched ≪ one lock per event");
    table
}

// ---------------------------------------------------------------------------
// The experiment.
// ---------------------------------------------------------------------------

/// Machine-readable summary of the E14 run (`BENCH_E14.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E14Summary {
    /// Seed-emulation pipe throughput, MB/s.
    pub legacy_pipe_mbps: f64,
    /// Ring pipe throughput, MB/s.
    pub ring_pipe_mbps: f64,
    /// Ring / legacy pipe speedup.
    pub pipe_speedup: f64,
    /// Seed-emulation queue throughput, injected events/sec.
    pub legacy_events_per_sec: f64,
    /// Batched+coalescing queue throughput, injected events/sec.
    pub batched_events_per_sec: f64,
    /// Batched / legacy events speedup.
    pub events_speedup: f64,
    /// Events merged away by coalescing in the batched run.
    pub events_coalesced: u64,
    /// Wakeups of the 5 ms poll loop over the idle window.
    pub legacy_idle_wakeups: u64,
    /// Idle wakeups of a parked queue consumer over the same window.
    pub parked_idle_wakeups: u64,
    /// Runtime helper heartbeats reported as parked while blocked.
    pub parked_watchdog_rows: usize,
}

/// Runs E14: the tables plus `BENCH_E14.json`.
pub fn e14_data_plane() -> Report {
    // E14a: pipe throughput. The legacy emulation runs once (its polls
    // dominate); the ring pipe takes the best of three passes.
    let legacy_mbps = legacy_pipe_mbps(LEGACY_PIPE_BYTES);
    let ring_mbps = (0..3)
        .map(|_| ring_pipe_mbps(RING_PIPE_BYTES))
        .fold(0.0f64, f64::max);
    let pipe_speedup = ring_mbps / legacy_mbps;

    let mut e14a = Table::new(
        "E14a",
        "pipe throughput (seed emulation vs ring buffer, same run)",
        &[
            "pipe", "bytes", "chunk", "capacity", "MB/s", "speedup", "verdict",
        ],
    );
    e14a.rowd(&[
        "seed emulation (VecDeque + 5ms poll)".to_string(),
        format!("{}", LEGACY_PIPE_BYTES),
        format!("{PIPE_CHUNK}"),
        format!("{PIPE_CAPACITY}"),
        format!("{legacy_mbps:.2}"),
        "1.0x".to_string(),
        "baseline".to_string(),
    ]);
    e14a.rowd(&[
        "ring buffer (blocking, ≤2 memcpy)".to_string(),
        format!("{}", RING_PIPE_BYTES),
        format!("{PIPE_CHUNK}"),
        format!("{PIPE_CAPACITY}"),
        format!("{ring_mbps:.2}"),
        format!("{pipe_speedup:.1}x"),
        ok(pipe_speedup >= 3.0).to_string(),
    ]);
    e14a.note(
        "both variants move writer->reader across threads with the same chunk \
         and capacity; MB/s normalises the differing totals",
    );
    e14a.note("acceptance: ring pipe >= 3x the seed emulation");

    // E14b: event throughput with a fixed per-delivered repaint cost.
    let (legacy_eps, legacy_delivered) = legacy_events_per_sec();
    let (batched_eps, delivered, merged) = batched_events_per_sec();
    let events_speedup = batched_eps / legacy_eps;

    let mut e14b = Table::new(
        "E14b",
        "event throughput (one-per-lock vs batched + coalescing, same run)",
        &[
            "queue",
            "injected",
            "delivered",
            "merged",
            "events/s",
            "speedup",
            "verdict",
        ],
    );
    e14b.rowd(&[
        "seed emulation (lock per event, 5ms poll)".to_string(),
        format!("{EVENT_TOTAL}"),
        format!("{legacy_delivered}"),
        "0".to_string(),
        format!("{legacy_eps:.0}"),
        "1.0x".to_string(),
        "baseline".to_string(),
    ]);
    e14b.rowd(&[
        format!("push_batch + drain({DRAIN_BATCH}) + coalescing"),
        format!("{EVENT_TOTAL}"),
        format!("{delivered}"),
        format!("{merged}"),
        format!("{batched_eps:.0}"),
        format!("{events_speedup:.1}x"),
        ok(events_speedup >= 2.0).to_string(),
    ]);
    e14b.note(format!(
        "stream: bursts of {EVENT_BURST} consecutive paints cycling {EVENT_WINDOWS} windows; \
         each delivered event pays a fixed repaint cost, so merged events are work saved"
    ));
    e14b.note("acceptance: batched queue >= 2x the seed emulation (injected events/sec)");

    // E14c: idle wakeups, plus the live runtime's parked watchdog rows.
    let poll_wakeups = legacy_idle_wakeups();
    let parked_wakeups = parked_idle_wakeups();
    let rt = standard_runtime(None);
    // Give the runtime's helper threads (e.g. the app reaper) a moment to
    // reach their blocking waits and park their heartbeats.
    std::thread::sleep(Duration::from_millis(30));
    let rows = jmp_core::obs::watchdog_rows(&rt).expect("watchdog rows");
    let parked_rows = rows.iter().filter(|r| r.parked && !r.stalled).count();
    rt.shutdown();

    let mut e14c = Table::new(
        "E14c",
        "idle cost (wakeups over a 100ms idle window)",
        &["path", "wakeups", "verdict"],
    );
    e14c.rowd(&[
        "seed emulation (5ms poll tick)".to_string(),
        format!("{poll_wakeups}"),
        ok(poll_wakeups >= 10).to_string(),
    ]);
    e14c.rowd(&[
        "event queue consumer (parked)".to_string(),
        format!("{parked_wakeups}"),
        ok(parked_wakeups == 0).to_string(),
    ]);
    e14c.rowd(&[
        "runtime helpers (watchdog rows parked)".to_string(),
        format!("{parked_rows}"),
        ok(parked_rows >= 1).to_string(),
    ]);
    e14c.note(
        "a parked heartbeat tells the watchdog the thread is idle by design, \
         so zero wakeups does not read as a stall",
    );
    e14c.note("acceptance: zero periodic wakeups for an idle queue consumer");

    let summary = E14Summary {
        legacy_pipe_mbps: legacy_mbps,
        ring_pipe_mbps: ring_mbps,
        pipe_speedup,
        legacy_events_per_sec: legacy_eps,
        batched_events_per_sec: batched_eps,
        events_speedup,
        events_coalesced: merged,
        legacy_idle_wakeups: poll_wakeups,
        parked_idle_wakeups: parked_wakeups,
        parked_watchdog_rows: parked_rows,
    };
    let e14d = primitives_table();
    Report::bench("BENCH_E14.json", &summary, vec![e14a, e14b, e14c, e14d])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_meets_the_acceptance_thresholds() {
        let _serial = crate::harness::latency_test_guard();
        let report = e14_data_plane();
        let tables = &report.tables;
        let summary: E14Summary = report.summary("BENCH_E14.json");
        assert_eq!(tables.len(), 4);
        assert!(
            !tables
                .iter()
                .any(|t| t.rows.iter().flatten().any(|c| c.contains("FAILED"))),
            "all verdicts ok: {tables:#?}"
        );
        assert!(
            summary.pipe_speedup >= 3.0,
            "pipe speedup {:.1}x",
            summary.pipe_speedup
        );
        assert!(
            summary.events_speedup >= 2.0,
            "events speedup {:.1}x",
            summary.events_speedup
        );
        assert_eq!(summary.parked_idle_wakeups, 0);
        assert!(summary.events_coalesced > 0);
    }
}
