use std::sync::Arc;

use jmp_obs::{trace, Counter, FlightRecorder, SpanCategory, TraceCtx};
use parking_lot::{Condvar, Mutex};

use crate::context::{AppContext, ResourceKind};
use crate::error::VmError;
use crate::thread::{check_interrupt, register_interrupt_waker, InterruptWakerGuard};
use crate::Result;

/// Default pipe capacity, matching the conventional Unix pipe buffer.
pub const DEFAULT_PIPE_CAPACITY: usize = 65536;

/// A fixed-capacity contiguous ring buffer of bytes. Every transfer in or
/// out is at most two `copy_from_slice` segments (the seam wrap), so moving
/// a 64 KiB chunk costs two memcpys instead of 65536 `VecDeque` pops.
#[derive(Debug)]
struct Ring {
    buf: Box<[u8]>,
    /// Index of the next byte to read.
    head: usize,
    /// Bytes currently buffered.
    len: usize,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Ring {
        Ring {
            buf: vec![0u8; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.buf.len()
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies as much of `data` as fits; returns the byte count accepted.
    fn write_from(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.capacity() - self.len);
        if n == 0 {
            return 0;
        }
        let tail = (self.head + self.len) % self.capacity();
        let first = n.min(self.capacity() - tail);
        self.buf[tail..tail + first].copy_from_slice(&data[..first]);
        if n > first {
            self.buf[..n - first].copy_from_slice(&data[first..n]);
        }
        self.len += n;
        n
    }

    /// Copies up to `out.len()` buffered bytes into `out`; returns the count.
    fn read_into(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.len);
        if n == 0 {
            return 0;
        }
        let first = n.min(self.capacity() - self.head);
        out[..first].copy_from_slice(&self.buf[self.head..self.head + first]);
        if n > first {
            out[first..n].copy_from_slice(&self.buf[..n - first]);
        }
        self.head = (self.head + n) % self.capacity();
        self.len -= n;
        n
    }
}

#[derive(Debug)]
struct PipeState {
    ring: Ring,
    write_closed: bool,
    read_closed: bool,
    /// The trace context of the most recent traced writer. A pipe is a
    /// causal boundary: the reader's `pipe.read` span is charged to the
    /// *writer's* trace, because that is the request whose data it is.
    trace: Option<TraceCtx>,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
    /// Counts bytes accepted by the write end (see [`pipe_observed`]).
    /// Bumped once per write call with the whole accepted count, not per
    /// retry iteration.
    bytes: Option<Arc<Counter>>,
    /// Records write/read spans when tracing (see [`pipe_traced`]).
    recorder: Option<FlightRecorder>,
    /// The owning application (see [`pipe_owned`]): buffered bytes are
    /// charged to its `pipe.bytes` ledger slot on acceptance and released
    /// on drain, reader close, or pipe drop. The ring allocation itself is
    /// charged to the owner's `memory` slot for the pipe's whole lifetime.
    owner: Option<Arc<AppContext>>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Both ends are gone; whatever is still buffered can never be
        // drained, so release its ledger charge here. The reader-close path
        // clears the ring as it uncharges, so this cannot double-release.
        if let Some(owner) = &self.owner {
            let residual = self.state.get_mut().ring.len;
            if residual > 0 {
                owner.uncharge(ResourceKind::PipeBytes, residual as u64);
            }
            // The ring buffer itself is freed with the pipe: release the
            // capacity bytes charged at creation.
            let capacity = self.state.get_mut().ring.capacity();
            owner.uncharge(ResourceKind::Memory, capacity as u64);
        }
    }
}

impl Shared {
    /// The interrupt waker for a thread blocked on this pipe: take the state
    /// lock (so a notify can never be lost between the blocked thread's
    /// interrupt check and its wait) and wake both sides.
    fn waker(self: &Arc<Shared>) -> crate::thread::InterruptWaker {
        let shared = Arc::clone(self);
        Arc::new(move || {
            let _state = shared.state.lock();
            shared.readable.notify_all();
            shared.writable.notify_all();
        })
    }
}

/// Creates an in-memory pipe with the given buffer capacity.
///
/// This is the single-address-space IPC primitive the paper's shell builds
/// pipelines from (§6.1), and the in-VM side of experiment E5b (in-VM pipe
/// vs cross-process pipe). Reads and writes block, waking on data/space, on
/// close of the other end, or on interruption of the calling VM thread —
/// a blocked thread performs **no** periodic wakeups.
pub fn pipe(capacity: usize) -> (PipeWriter, PipeReader) {
    pipe_observed(capacity, None)
}

/// [`pipe`], plus an optional byte counter incremented by the number of
/// bytes each write accepts. The multi-processing layer passes the
/// VM-wide `pipe.bytes` counter here so shell pipelines show up in
/// `vmstat` without the pipe knowing anything about metrics naming.
pub fn pipe_observed(capacity: usize, bytes: Option<Arc<Counter>>) -> (PipeWriter, PipeReader) {
    pipe_traced(capacity, bytes, None)
}

/// [`pipe_observed`], plus an optional flight recorder. A traced writer
/// leaves a `pipe.write` span and stamps the pipe with its [`TraceCtx`];
/// the next read leaves a `pipe.read` span *under the writer's context* —
/// the cross-boundary link — and a reader thread that has no trace of its
/// own adopts the writer's, so causality survives the handoff. One span is
/// recorded per read/write *call*, covering however many blocking rounds
/// the call needed.
pub fn pipe_traced(
    capacity: usize,
    bytes: Option<Arc<Counter>>,
    recorder: Option<FlightRecorder>,
) -> (PipeWriter, PipeReader) {
    pipe_owned(capacity, bytes, recorder, None).expect("an ownerless pipe charges no quota")
}

/// [`pipe_traced`], plus an optional owning [`AppContext`]. Bytes buffered
/// in the pipe are charged against the owner's `pipe.bytes` quota at
/// charge time: a write that would push the application past its limit
/// fails with [`VmError::QuotaExceeded`] instead of buffering (a partial
/// `write_all` surfaces it as a [`VmError::ShortWrite`] cause). Drained,
/// discarded (reader close), and dropped bytes release their charge, so a
/// quiescent application's `pipe.bytes` ledger reads zero.
///
/// The ring buffer allocation itself — `capacity` bytes, live for the
/// pipe's whole lifetime — is charged against the owner's `memory` quota
/// up front and released when the last end drops, so an application at its
/// heap cap cannot mint fresh kernel-side buffers either.
///
/// # Errors
///
/// [`VmError::QuotaExceeded`] if charging the ring capacity to the owner's
/// `memory` quota fails; the pipe is not created.
pub fn pipe_owned(
    capacity: usize,
    bytes: Option<Arc<Counter>>,
    recorder: Option<FlightRecorder>,
    owner: Option<Arc<AppContext>>,
) -> Result<(PipeWriter, PipeReader)> {
    let capacity = capacity.max(1);
    if let Some(owner) = &owner {
        owner.try_charge(ResourceKind::Memory, capacity as u64)?;
    }
    let shared = Arc::new(Shared {
        state: Mutex::new(PipeState {
            ring: Ring::with_capacity(capacity),
            write_closed: false,
            read_closed: false,
            trace: None,
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
        bytes,
        recorder,
        owner,
    });
    Ok((
        PipeWriter {
            shared: Arc::clone(&shared),
        },
        PipeReader { shared },
    ))
}

/// The read end of a [`pipe`]. Cloning shares the same channel.
#[derive(Debug, Clone)]
pub struct PipeReader {
    shared: Arc<Shared>,
}

/// The write end of a [`pipe`]. Cloning shares the same channel.
#[derive(Debug, Clone)]
pub struct PipeWriter {
    shared: Arc<Shared>,
}

impl PipeReader {
    /// Reads up to `buf.len()` bytes, blocking while the pipe is empty and
    /// the write end is open. Returns `Ok(0)` at end-of-file (write end
    /// closed and buffer drained).
    ///
    /// # Errors
    ///
    /// [`VmError::Interrupted`] if the calling VM thread is interrupted;
    /// [`VmError::StreamClosed`] if this read end was closed.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize> {
        self.read_vectored(&mut [buf])
    }

    /// Vectored read: drains buffered bytes across `bufs` in order under a
    /// single lock acquisition, blocking (like [`PipeReader::read`]) only
    /// while nothing at all is buffered. Used by bulk consumers (shell
    /// pipelines, `read_to_end`) to take everything available per wakeup
    /// instead of one slice per lock round-trip.
    ///
    /// # Errors
    ///
    /// As [`PipeReader::read`].
    pub fn read_vectored(&self, bufs: &mut [&mut [u8]]) -> Result<usize> {
        let wanted: usize = bufs.iter().map(|b| b.len()).sum();
        if wanted == 0 {
            return Ok(0);
        }
        let timer = self.shared.recorder.as_ref().and_then(|r| r.timer());
        let mut waker: Option<InterruptWakerGuard> = None;
        let mut state = self.shared.state.lock();
        loop {
            if state.read_closed {
                return Err(VmError::StreamClosed);
            }
            if !state.ring.is_empty() {
                let mut total = 0;
                for buf in bufs.iter_mut() {
                    let n = state.ring.read_into(buf);
                    total += n;
                    if n < buf.len() {
                        break;
                    }
                }
                self.shared.writable.notify_all();
                if let Some(owner) = &self.shared.owner {
                    owner.uncharge(ResourceKind::PipeBytes, total as u64);
                }
                if let (Some(recorder), Some(ctx)) = (&self.shared.recorder, state.trace) {
                    // Charge the read to the writer's trace; an untraced
                    // reader thread adopts that context outright, so the
                    // trace follows the data to whatever the reader does
                    // next.
                    if trace::current().is_none() {
                        trace::install(Some(ctx));
                    }
                    let latency = timer.map_or(0, |t| recorder.elapsed_ns(t));
                    recorder.record_with_ctx(SpanCategory::Pipe, "pipe.read", ctx, None, latency);
                }
                return Ok(total);
            }
            if state.write_closed {
                return Ok(0);
            }
            // Block for real: register the interrupt waker (once) before the
            // final interrupt check so an interrupt between check and wait is
            // delivered as a notify under our lock, never lost.
            if waker.is_none() {
                waker = Some(register_interrupt_waker(self.shared.waker()));
            }
            check_interrupt()?;
            self.shared.readable.wait(&mut state);
        }
    }

    /// Closes the read end. Subsequent writes to the other end fail with
    /// [`VmError::StreamClosed`] (the analogue of `EPIPE`).
    pub fn close(&self) {
        let mut state = self.shared.state.lock();
        state.read_closed = true;
        // Buffered bytes can never be drained now; discard them and release
        // their ledger charge so the owner is not billed for dead data.
        let residual = state.ring.len;
        if residual > 0 {
            state.ring.head = 0;
            state.ring.len = 0;
            if let Some(owner) = &self.shared.owner {
                owner.uncharge(ResourceKind::PipeBytes, residual as u64);
            }
        }
        self.shared.writable.notify_all();
        self.shared.readable.notify_all();
    }

    /// Bytes currently buffered.
    pub fn available(&self) -> usize {
        self.shared.state.lock().ring.len
    }
}

impl PipeWriter {
    /// Writes as much of `data` as fits, blocking while the buffer is full.
    /// Returns the number of bytes accepted (at least 1 for non-empty
    /// input on success).
    ///
    /// # Errors
    ///
    /// [`VmError::StreamClosed`] if either end is closed;
    /// [`VmError::Interrupted`] on interruption.
    pub fn write(&self, data: &[u8]) -> Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        match self.write_internal(data, false) {
            (n, _) if n > 0 => Ok(n),
            (_, Some(err)) => Err(err),
            (_, None) => unreachable!("write_internal returns bytes or an error"),
        }
    }

    /// Writes all of `data`, blocking as needed. The byte counter and the
    /// `pipe.write` span are recorded **once for the whole call** — one
    /// syscall-equivalent — no matter how many buffer-full rounds it took.
    ///
    /// # Errors
    ///
    /// [`VmError::StreamClosed`] / [`VmError::Interrupted`] if the failure
    /// struck before any byte was accepted; [`VmError::ShortWrite`] (carrying
    /// the accepted count and the underlying cause) if the reader closed or
    /// the writer was interrupted part-way through.
    pub fn write_all(&self, data: &[u8]) -> Result<()> {
        match self.write_internal(data, true) {
            (_, None) => Ok(()),
            (0, Some(err)) => Err(err),
            (accepted, Some(err)) => Err(VmError::ShortWrite {
                accepted,
                cause: Box::new(err),
            }),
        }
    }

    /// The single write loop behind [`PipeWriter::write`] and
    /// [`PipeWriter::write_all`]: pushes chunks into the ring under one span
    /// and one counter update per call. Returns the accepted byte count and
    /// the terminating error, if any.
    fn write_internal(&self, data: &[u8], all: bool) -> (usize, Option<VmError>) {
        if data.is_empty() {
            return (0, None);
        }
        let timer = self.shared.recorder.as_ref().and_then(|r| r.timer());
        let mut accepted = 0usize;
        let mut waker: Option<InterruptWakerGuard> = None;
        let mut state = self.shared.state.lock();
        let error = loop {
            if state.write_closed || state.read_closed {
                break Some(VmError::StreamClosed);
            }
            // Size the chunk to the free ring space first so a quota charge
            // covers exactly the bytes about to be accepted.
            let space = state.ring.capacity() - state.ring.len;
            let want = (data.len() - accepted).min(space);
            if want > 0 {
                if let Some(owner) = &self.shared.owner {
                    if let Err(err) = owner.try_charge(ResourceKind::PipeBytes, want as u64) {
                        break Some(err);
                    }
                }
                let n = state.ring.write_from(&data[accepted..accepted + want]);
                debug_assert_eq!(n, want, "a sized chunk is accepted whole");
                accepted += n;
                self.shared.readable.notify_all();
                if accepted == data.len() || !all {
                    break None;
                }
                continue;
            }
            if waker.is_none() {
                waker = Some(register_interrupt_waker(self.shared.waker()));
            }
            if let Err(err) = check_interrupt() {
                break Some(err);
            }
            self.shared.writable.wait(&mut state);
        };
        if accepted > 0 {
            if let Some(bytes) = &self.shared.bytes {
                bytes.add(accepted as u64);
            }
            if let Some(recorder) = &self.shared.recorder {
                // Stamp the pipe with the writer's context (kept until a
                // later traced write replaces it) and leave one write span
                // for the whole call.
                if let Some(ctx) = trace::current() {
                    state.trace = Some(ctx);
                }
                let latency = timer.map_or(0, |t| recorder.elapsed_ns(t));
                recorder.record_latency(SpanCategory::Pipe, "pipe.write", None, latency);
            }
        }
        (accepted, error)
    }

    /// Closes the write end. Readers drain the buffer, then see end-of-file.
    pub fn close(&self) {
        let mut state = self.shared.state.lock();
        state.write_closed = true;
        self.shared.readable.notify_all();
        self.shared.writable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn roundtrip_small() {
        let (w, r) = pipe(16);
        w.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }

    #[test]
    fn eof_after_writer_close() {
        let (w, r) = pipe(16);
        w.write_all(b"xy").unwrap();
        w.close();
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(r.read(&mut buf).unwrap(), 0, "eof");
        assert_eq!(r.read(&mut buf).unwrap(), 0, "eof is sticky");
    }

    #[test]
    fn write_to_closed_reader_is_epipe() {
        let (w, r) = pipe(16);
        r.close();
        assert!(matches!(w.write(b"x").unwrap_err(), VmError::StreamClosed));
    }

    #[test]
    fn read_after_close_fails() {
        let (_w, r) = pipe(16);
        r.close();
        let mut buf = [0u8; 4];
        assert!(matches!(
            r.read(&mut buf).unwrap_err(),
            VmError::StreamClosed
        ));
    }

    #[test]
    fn observed_pipe_counts_accepted_bytes() {
        let bytes = Arc::new(Counter::new());
        let (w, r) = pipe_observed(16, Some(Arc::clone(&bytes)));
        w.write_all(b"hello").unwrap();
        w.write_all(b" world").unwrap();
        assert_eq!(bytes.get(), 11);
        let mut buf = [0u8; 16];
        r.read(&mut buf).unwrap();
        assert_eq!(bytes.get(), 11, "reads do not double-count");
    }

    #[test]
    fn write_all_counts_bytes_once_even_when_it_blocks() {
        let bytes = Arc::new(Counter::new());
        let (w, r) = pipe_observed(4, Some(Arc::clone(&bytes)));
        let writer = std::thread::spawn(move || w.write_all(b"0123456789"));
        std::thread::sleep(Duration::from_millis(10));
        let mut got = Vec::new();
        let mut buf = [0u8; 3];
        while got.len() < 10 {
            let n = r.read(&mut buf).unwrap();
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap().unwrap();
        assert_eq!(bytes.get(), 10, "one counter update for the whole call");
    }

    #[test]
    fn write_all_reports_accepted_bytes_on_epipe() {
        // Partial-write-then-close: capacity 4 accepts 4 of 10 bytes, then
        // the reader closes; the short-write error carries the count.
        let (w, r) = pipe(4);
        let writer = std::thread::spawn(move || w.write_all(b"0123456789"));
        std::thread::sleep(Duration::from_millis(20));
        r.close();
        let err = writer.join().unwrap().unwrap_err();
        match err {
            VmError::ShortWrite { accepted, cause } => {
                assert_eq!(accepted, 4, "the buffered prefix was accepted");
                assert!(matches!(*cause, VmError::StreamClosed));
            }
            other => panic!("expected ShortWrite, got {other:?}"),
        }
    }

    #[test]
    fn write_all_to_closed_reader_with_nothing_accepted_is_plain_epipe() {
        let (w, r) = pipe(4);
        r.close();
        assert!(matches!(
            w.write_all(b"x").unwrap_err(),
            VmError::StreamClosed
        ));
    }

    #[test]
    fn traced_pipe_carries_the_writer_context_to_the_reader() {
        let recorder = FlightRecorder::new(32);
        let (w, r) = pipe_traced(16, None, Some(recorder.clone()));
        trace::clear();
        let exec = recorder
            .begin(SpanCategory::Exec, "exec:writer", None)
            .unwrap();
        let trace_id = exec.trace_id();
        w.write_all(b"payload").unwrap();
        drop(exec);
        trace::clear();

        // Read from a fresh, untraced thread: the writer's context crosses.
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 16];
            let n = r.read(&mut buf).unwrap();
            (n, trace::current())
        });
        let (n, adopted) = reader.join().unwrap();
        assert_eq!(n, 7);
        assert_eq!(
            adopted.map(|c| c.trace_id),
            Some(trace_id),
            "the untraced reader adopts the writer's trace"
        );
        let spans = recorder.spans();
        let write = spans.iter().find(|s| s.name == "pipe.write").unwrap();
        let read = spans.iter().find(|s| s.name == "pipe.read").unwrap();
        assert_eq!(write.trace_id, trace_id);
        assert_eq!(read.trace_id, trace_id, "one trace across the boundary");
        assert_eq!(
            read.parent, write.parent,
            "both spans hang off the writer's span"
        );
    }

    #[test]
    fn blocking_write_all_records_exactly_one_span() {
        let recorder = FlightRecorder::new(64);
        let (w, r) = pipe_traced(4, None, Some(recorder.clone()));
        // 12 bytes through a 4-byte ring: three buffer-full rounds, one span.
        // The trace context is thread-local, so the writer roots it itself.
        let writer_recorder = recorder.clone();
        let writer = std::thread::spawn(move || {
            let exec = writer_recorder
                .begin(SpanCategory::Exec, "exec:writer", None)
                .unwrap();
            w.write_all(b"0123456789ab").unwrap();
            drop(exec);
            trace::clear();
        });
        std::thread::sleep(Duration::from_millis(10));
        let mut got = Vec::new();
        let mut buf = [0u8; 4];
        while got.len() < 12 {
            let n = r.read(&mut buf).unwrap();
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        trace::clear();
        let spans = recorder.spans();
        let writes = spans.iter().filter(|s| s.name == "pipe.write").count();
        assert_eq!(writes, 1, "one span per write_all call, not per retry");
    }

    #[test]
    fn untraced_pipes_record_nothing() {
        let recorder = FlightRecorder::new(8);
        let (w, r) = pipe_traced(16, None, Some(recorder.clone()));
        trace::clear();
        w.write_all(b"x").unwrap();
        let mut buf = [0u8; 4];
        r.read(&mut buf).unwrap();
        assert_eq!(recorder.recorded(), 0, "no context, no spans");
        assert_eq!(trace::current(), None, "nothing to adopt");
    }

    #[test]
    fn backpressure_blocks_and_releases() {
        let (w, r) = pipe(4);
        w.write_all(b"1234").unwrap();
        let writer = std::thread::spawn(move || w.write_all(b"5678"));
        std::thread::sleep(Duration::from_millis(10));
        let mut buf = [0u8; 8];
        let n = r.read(&mut buf).unwrap();
        assert!(n > 0);
        // Drain the rest so the writer finishes.
        let mut total = n;
        while total < 8 {
            total += r.read(&mut buf).unwrap();
        }
        writer.join().unwrap().unwrap();
        assert_eq!(total, 8);
    }

    #[test]
    fn large_transfer_through_small_buffer() {
        let (w, r) = pipe(7);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        let writer = std::thread::spawn(move || {
            w.write_all(&payload).unwrap();
            w.close();
        });
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn wraparound_straddles_the_seam() {
        // Fill, half-drain, refill: the second write must wrap around the
        // seam and read back intact.
        let (w, r) = pipe(8);
        w.write_all(b"abcdefgh").unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(r.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf, b"abcde");
        w.write_all(b"12345").unwrap(); // 3 fit before the seam, 2 after
        let mut rest = [0u8; 8];
        let n = r.read(&mut rest).unwrap();
        assert_eq!(&rest[..n], b"fgh12345");
    }

    #[test]
    fn capacity_one_pipe_moves_every_byte() {
        let (w, r) = pipe(1);
        let writer = std::thread::spawn(move || {
            w.write_all(b"tiny ring").unwrap();
            w.close();
        });
        let mut got = Vec::new();
        let mut buf = [0u8; 4];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        assert_eq!(got, b"tiny ring");
    }

    #[test]
    fn read_vectored_drains_across_buffers_in_one_call() {
        let (w, r) = pipe(32);
        w.write_all(b"hello world!").unwrap();
        let mut a = [0u8; 5];
        let mut b = [0u8; 5];
        let mut c = [0u8; 5];
        let n = r.read_vectored(&mut [&mut a, &mut b, &mut c]).unwrap();
        assert_eq!(n, 12);
        assert_eq!(&a, b"hello");
        assert_eq!(&b, b" worl");
        assert_eq!(&c[..2], b"d!");
    }

    #[test]
    fn empty_rw_are_noops() {
        let (w, r) = pipe(4);
        assert_eq!(w.write(b"").unwrap(), 0);
        let mut empty: [u8; 0] = [];
        assert_eq!(r.read(&mut empty).unwrap(), 0);
        assert_eq!(r.read_vectored(&mut []).unwrap(), 0);
    }

    #[test]
    fn available_reports_buffered_bytes() {
        let (w, r) = pipe(16);
        assert_eq!(r.available(), 0);
        w.write_all(b"abc").unwrap();
        assert_eq!(r.available(), 3);
    }

    #[test]
    fn ring_unit_wraparound() {
        let mut ring = Ring::with_capacity(4);
        assert_eq!(ring.write_from(b"abc"), 3);
        let mut out = [0u8; 2];
        assert_eq!(ring.read_into(&mut out), 2);
        assert_eq!(&out, b"ab");
        // head=2, len=1; writing 3 more straddles the seam.
        assert_eq!(ring.write_from(b"xyz"), 3);
        let mut all = [0u8; 4];
        assert_eq!(ring.read_into(&mut all), 4);
        assert_eq!(&all, b"cxyz");
        assert!(ring.is_empty());
    }

    #[test]
    fn owned_pipe_charges_and_drains_the_ledger() {
        let owner = AppContext::new(1, "A", "alice", jmp_obs::ObsHub::new());
        let (w, r) = pipe_owned(16, None, None, Some(Arc::clone(&owner))).unwrap();
        assert_eq!(
            owner.ledger().get(ResourceKind::Memory),
            16,
            "the ring allocation is charged at creation"
        );
        w.write_all(b"hello").unwrap();
        assert_eq!(owner.ledger().get(ResourceKind::PipeBytes), 5);
        let mut buf = [0u8; 16];
        r.read(&mut buf).unwrap();
        assert_eq!(owner.ledger().get(ResourceKind::PipeBytes), 0);
        drop((w, r));
        assert!(owner.ledger().is_drained(), "ring memory released on drop");
    }

    #[test]
    fn owned_pipe_creation_respects_the_memory_quota() {
        let owner = AppContext::new(9, "I", "ivan", jmp_obs::ObsHub::new());
        owner.limits().set(ResourceKind::Memory, 8);
        let err = pipe_owned(16, None, None, Some(Arc::clone(&owner))).unwrap_err();
        assert!(err.is_quota_exceeded(), "got {err:?}");
        assert!(
            owner.ledger().is_drained(),
            "the refused charge rolled back"
        );
        let (w, r) = pipe_owned(8, None, None, Some(Arc::clone(&owner))).unwrap();
        drop((w, r));
        assert!(owner.ledger().is_drained());
    }

    #[test]
    fn owned_pipe_over_quota_write_fails_without_buffering() {
        let owner = AppContext::new(2, "B", "bob", jmp_obs::ObsHub::new());
        owner.limits().set(ResourceKind::PipeBytes, 4);
        let (w, r) = pipe_owned(16, None, None, Some(Arc::clone(&owner))).unwrap();
        w.write_all(b"1234").unwrap();
        let err = w.write_all(b"5").unwrap_err();
        assert!(err.is_quota_exceeded(), "got {err:?}");
        assert_eq!(r.available(), 4, "the refused byte was not buffered");
        assert_eq!(owner.ledger().get(ResourceKind::PipeBytes), 4);
        // Draining frees quota for further writes.
        let mut buf = [0u8; 8];
        r.read(&mut buf).unwrap();
        w.write_all(b"5678").unwrap();
        assert_eq!(owner.ledger().get(ResourceKind::PipeBytes), 4);
    }

    #[test]
    fn reader_close_releases_residual_charges() {
        let owner = AppContext::new(3, "C", "carol", jmp_obs::ObsHub::new());
        let (w, r) = pipe_owned(16, None, None, Some(Arc::clone(&owner))).unwrap();
        w.write_all(b"stranded").unwrap();
        r.close();
        assert_eq!(
            owner.ledger().get(ResourceKind::PipeBytes),
            0,
            "discarded bytes release their charge"
        );
        drop((w, r));
        assert!(owner.ledger().is_drained(), "drop does not double-release");
    }

    #[test]
    fn dropping_an_undrained_pipe_releases_charges() {
        let owner = AppContext::new(4, "D", "dave", jmp_obs::ObsHub::new());
        let (w, r) = pipe_owned(16, None, None, Some(Arc::clone(&owner))).unwrap();
        w.write_all(b"leftover").unwrap();
        drop((w, r));
        assert!(owner.ledger().is_drained());
    }

    #[test]
    fn concurrent_stress_small_ring() {
        // Concurrent writer/reader through a seam-heavy 13-byte ring with
        // mismatched chunk sizes; every byte must arrive in order.
        let (w, r) = pipe(13);
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        let expected = payload.clone();
        let writer = std::thread::spawn(move || {
            let mut off = 0;
            let mut step = 1;
            while off < payload.len() {
                let end = (off + step).min(payload.len());
                w.write_all(&payload[off..end]).unwrap();
                off = end;
                step = step % 31 + 1;
            }
            w.close();
        });
        let mut got = Vec::new();
        let mut buf = [0u8; 17];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        assert_eq!(got, expected);
    }
}
