use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use jmp_obs::Counter;
use jmp_vm::context::{AppContext, ResourceKind};
use jmp_vm::thread::{check_interrupt, register_interrupt_waker, InterruptWakerGuard};
use jmp_vm::Result;
use parking_lot::{Condvar, Mutex};

use crate::event::Event;

/// Ledger bytes charged per occupied queue slot: the in-memory size of one
/// [`Event`]. Charged to the owner's `memory` quota alongside the slot's
/// `queued.events` charge, so an event storm shows up in the heap ledger
/// too, not only in the slot count.
const EVENT_BYTES: u64 = std::mem::size_of::<Event>() as u64;

#[derive(Default)]
struct QueueState {
    events: VecDeque<Event>,
    closed: bool,
    /// Total events ever accepted (merged events count individually).
    enqueued: u64,
    /// Total events ever handed to a consumer.
    dequeued: u64,
    /// Events absorbed into a predecessor by coalescing.
    coalesced: u64,
    /// Events posted after close and discarded.
    dropped: u64,
    /// Condvar wakeups that found no work — on an idle queue this stays
    /// flat, which is exactly what experiment E14 asserts (the legacy
    /// 5 ms poll bumped an equivalent every tick).
    idle_wakeups: u64,
}

impl QueueState {
    /// Whether [`QueueState::accept`] would merge `event` into the current
    /// tail rather than append it. Kept in lockstep with the merge branch
    /// of `accept`: quota charging asks this first, because a merged event
    /// occupies no new queue slot and must not be charged (or denied) one.
    fn would_coalesce(&self, event: &Event) -> bool {
        if !event.kind.is_coalescible() {
            return false;
        }
        match self.events.back() {
            Some(tail) => {
                tail.window == event.window
                    && tail.component == event.component
                    && tail.kind.same_coalescing_class(&event.kind)
            }
            None => false,
        }
    }

    /// Appends `event`, merging it into the tail when the AWT coalescing
    /// rule allows (same window, same component, same coalescible kind
    /// class). Returns `true` if the event merged rather than appended.
    fn accept(&mut self, event: Event) -> bool {
        self.enqueued += 1;
        if event.kind.is_coalescible() {
            if let Some(tail) = self.events.back_mut() {
                if tail.window == event.window
                    && tail.component == event.component
                    && tail.kind.same_coalescing_class(&event.kind)
                {
                    // Newest kind/payload wins; the oldest injection stamp is
                    // kept so delivery latency covers the whole burst.
                    tail.coalesced += event.coalesced + 1;
                    tail.kind = event.kind;
                    if event.trace.is_some() {
                        tail.trace = event.trace;
                    }
                    self.coalesced += 1;
                    return true;
                }
            }
        }
        self.events.push_back(event);
        false
    }
}

#[derive(Default)]
struct Inner {
    state: Mutex<QueueState>,
    cvar: Condvar,
    /// VM-wide `events.coalesced` counter, when the queue is observed.
    coalesced: Option<Arc<Counter>>,
    /// VM-wide `events.dropped` counter (post-close and over-quota pushes),
    /// when observed.
    dropped: Option<Arc<Counter>>,
    /// The owning application: each *appended* event is charged one
    /// `queued.events` ledger slot plus [`EVENT_BYTES`] of `memory`,
    /// released on dequeue (or queue drop). Coalesced-away events never
    /// occupy a slot and are never charged.
    owner: Option<Arc<AppContext>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Last handle gone with events still queued (e.g. the dispatcher
        // died before draining a closed queue): release their charges.
        if let Some(owner) = &self.owner {
            let residual = self.state.get_mut().events.len();
            if residual > 0 {
                owner.uncharge(ResourceKind::QueuedEvents, residual as u64);
                owner.uncharge(ResourceKind::Memory, residual as u64 * EVENT_BYTES);
            }
        }
    }
}

impl Inner {
    /// The interrupt waker for a consumer blocked on this queue: take the
    /// state lock (so the notify cannot race the consumer between its
    /// interrupt check and its wait) and wake everyone.
    fn waker(self: &Arc<Inner>) -> jmp_vm::thread::InterruptWaker {
        let inner = Arc::clone(self);
        Arc::new(move || {
            let _state = inner.state.lock();
            inner.cvar.notify_all();
        })
    }
}

/// A blocking FIFO of [`Event`]s — the AWT event queue of paper §3.2.
///
/// In the legacy architecture (Fig 2) there is exactly one; in the
/// multi-processing redesign (Fig 4) "every application has its own event
/// queue and a thread in the application's thread group delivers the
/// events."
///
/// Throughput-oriented: producers [`push_batch`](EventQueue::push_batch)
/// under one lock acquisition, consumers [`drain`](EventQueue::drain) up to
/// N events per wakeup, consecutive paint/mouse-move events for the same
/// target coalesce AWT-style, and a blocked consumer performs **no**
/// periodic wakeups — it sleeps until a push, a close, or an interrupt.
///
/// Cheap handle; clones share the queue.
#[derive(Clone, Default)]
pub struct EventQueue {
    inner: Arc<Inner>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Creates an empty queue wired to VM-wide counters: `coalesced` is
    /// bumped per event absorbed by coalescing, `dropped` per event
    /// discarded because the queue was already closed.
    pub fn with_counters(
        coalesced: Option<Arc<Counter>>,
        dropped: Option<Arc<Counter>>,
    ) -> EventQueue {
        EventQueue::with_owner(coalesced, dropped, None)
    }

    /// [`EventQueue::with_counters`], plus an optional owning
    /// [`AppContext`]. Each event that occupies a queue slot is charged
    /// against the owner's `queued.events` quota *and* `EVENT_BYTES` of its
    /// `memory` quota; an over-quota push (either ledger) is dropped and
    /// counted exactly like a post-close push (the storm is the attacker's
    /// problem, not the dispatcher's), with the denial audited by the
    /// context. Dequeued and dropped-at-teardown events release both
    /// charges; coalesced-away events never held any.
    pub fn with_owner(
        coalesced: Option<Arc<Counter>>,
        dropped: Option<Arc<Counter>>,
        owner: Option<Arc<AppContext>>,
    ) -> EventQueue {
        EventQueue {
            inner: Arc::new(Inner {
                state: Mutex::new(QueueState::default()),
                cvar: Condvar::new(),
                coalesced,
                dropped,
                owner,
            }),
        }
    }

    /// Enqueues an event, coalescing it into the queue tail when the AWT
    /// rule allows. Events posted to a closed queue are dropped (the
    /// application is being torn down; nothing can deliver them) and
    /// counted in [`EventQueue::total_dropped`].
    pub fn push(&self, event: Event) {
        self.push_batch(std::iter::once(event));
    }

    /// Enqueues a batch of events under a single lock acquisition, applying
    /// the same per-event coalescing as [`EventQueue::push`]. This is the
    /// producer half of batched dispatch: the input thread forwards each
    /// burst of display traffic as one batch instead of one lock+notify
    /// round-trip per event.
    pub fn push_batch(&self, events: impl IntoIterator<Item = Event>) {
        let mut state = self.inner.state.lock();
        let mut pushed = 0u64;
        let mut merged = 0u64;
        let mut discarded = 0u64;
        for event in events {
            if state.closed {
                state.dropped += 1;
                discarded += 1;
                continue;
            }
            // Only an event about to occupy a new slot is charged; a merge
            // reuses the tail's slot (and its existing charges). A slot
            // costs one `queued.events` unit and `EVENT_BYTES` of `memory`;
            // if the memory charge is refused the slot charge is rolled
            // back so both ledgers stay consistent.
            if !state.would_coalesce(&event) {
                if let Some(owner) = &self.inner.owner {
                    if owner.try_charge(ResourceKind::QueuedEvents, 1).is_err() {
                        state.dropped += 1;
                        discarded += 1;
                        continue;
                    }
                    if owner.try_charge(ResourceKind::Memory, EVENT_BYTES).is_err() {
                        owner.uncharge(ResourceKind::QueuedEvents, 1);
                        state.dropped += 1;
                        discarded += 1;
                        continue;
                    }
                }
            }
            if state.accept(event) {
                merged += 1;
            } else {
                pushed += 1;
            }
        }
        if pushed > 0 {
            self.inner.cvar.notify_one();
        }
        drop(state);
        if merged > 0 {
            if let Some(counter) = &self.inner.coalesced {
                counter.add(merged);
            }
        }
        if discarded > 0 {
            if let Some(counter) = &self.inner.dropped {
                counter.add(discarded);
            }
        }
    }

    /// Dequeues the next event, blocking while the queue is empty. Returns
    /// `Ok(None)` once the queue is closed and drained.
    ///
    /// # Errors
    ///
    /// [`jmp_vm::VmError::Interrupted`] if the calling VM thread is interrupted —
    /// how a dispatcher thread gets unstuck at application teardown.
    pub fn pop(&self) -> Result<Option<Event>> {
        Ok(self.drain(1)?.pop())
    }

    /// Dequeues up to `max` events under one lock acquisition, blocking
    /// while the queue is empty. Returns an empty vec once the queue is
    /// closed and drained.
    ///
    /// # Errors
    ///
    /// As [`EventQueue::pop`].
    pub fn drain(&self, max: usize) -> Result<Vec<Event>> {
        self.drain_observed(max, |_| {})
    }

    /// [`EventQueue::drain`], invoking `idle(true)` just before the
    /// consumer blocks and `idle(false)` when it wakes to work (or to
    /// close). Dispatcher threads hang their watchdog heartbeat's
    /// park/unpark here, so an idle dispatcher reads as *parked* — not
    /// stalled — without any periodic heartbeat traffic.
    ///
    /// # Errors
    ///
    /// As [`EventQueue::pop`].
    pub fn drain_observed(&self, max: usize, idle: impl Fn(bool)) -> Result<Vec<Event>> {
        let max = max.max(1);
        let mut waker: Option<InterruptWakerGuard> = None;
        let mut parked = false;
        let mut state = self.inner.state.lock();
        loop {
            if !state.events.is_empty() {
                if parked {
                    idle(false);
                }
                let take = max.min(state.events.len());
                let batch: Vec<Event> = state.events.drain(..take).collect();
                state.dequeued += batch.len() as u64;
                if let Some(owner) = &self.inner.owner {
                    owner.uncharge(ResourceKind::QueuedEvents, batch.len() as u64);
                    owner.uncharge(ResourceKind::Memory, batch.len() as u64 * EVENT_BYTES);
                }
                if state.events.is_empty() {
                    // Other blocked consumers (multi-consumer queues exist in
                    // tests) would now sleep forever on a notify_one that we
                    // consumed; nothing to do — push notifies again.
                } else {
                    self.inner.cvar.notify_one();
                }
                return Ok(batch);
            }
            if state.closed {
                if parked {
                    idle(false);
                }
                return Ok(Vec::new());
            }
            // Block for real: register the interrupt waker (once) before the
            // final interrupt check so an interrupt between check and wait is
            // delivered as a notify under our lock, never lost.
            if waker.is_none() {
                waker = Some(register_interrupt_waker(self.inner.waker()));
            }
            if let Err(err) = check_interrupt() {
                if parked {
                    idle(false);
                }
                return Err(err);
            }
            if !parked {
                idle(true);
                parked = true;
            } else {
                // A wakeup that found no work. Idle queues never take this
                // branch — there is no periodic timer to wake them.
                state.idle_wakeups += 1;
            }
            self.inner.cvar.wait(&mut state);
        }
    }

    /// Dequeues the next event without blocking; `None` if the queue is
    /// empty (regardless of closed state).
    pub fn try_pop(&self) -> Option<Event> {
        let mut state = self.inner.state.lock();
        let event = state.events.pop_front();
        if event.is_some() {
            state.dequeued += 1;
            if let Some(owner) = &self.inner.owner {
                owner.uncharge(ResourceKind::QueuedEvents, 1);
                owner.uncharge(ResourceKind::Memory, EVENT_BYTES);
            }
        }
        event
    }

    /// Closes the queue: pending events remain poppable, new pushes are
    /// dropped (and counted), and blocked poppers see `None`/empty after
    /// draining.
    pub fn close(&self) {
        let mut state = self.inner.state.lock();
        state.closed = true;
        self.inner.cvar.notify_all();
    }

    /// Returns `true` once closed.
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }

    /// Events currently waiting.
    pub fn len(&self) -> usize {
        self.inner.state.lock().events.len()
    }

    /// Returns `true` if no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever accepted (coalesced-away events included).
    pub fn total_enqueued(&self) -> u64 {
        self.inner.state.lock().enqueued
    }

    /// Total events ever handed to a consumer.
    pub fn total_dequeued(&self) -> u64 {
        self.inner.state.lock().dequeued
    }

    /// Total events absorbed into a predecessor by coalescing.
    pub fn total_coalesced(&self) -> u64 {
        self.inner.state.lock().coalesced
    }

    /// Total post-close pushes discarded.
    pub fn total_dropped(&self) -> u64 {
        self.inner.state.lock().dropped
    }

    /// Condvar wakeups that found no work. An idle queue accumulates zero —
    /// the figure experiment E14c reports against the legacy 5 ms poll.
    pub fn idle_wakeups(&self) -> u64 {
        self.inner.state.lock().idle_wakeups
    }

    /// Returns `true` if `other` is a handle to the same queue.
    pub fn same_queue(&self, other: &EventQueue) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("EventQueue")
            .field("pending", &state.events.len())
            .field("closed", &state.closed)
            .field("enqueued", &state.enqueued)
            .field("coalesced", &state.coalesced)
            .field("dropped", &state.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComponentId, EventKind, WindowId};
    use std::time::Duration;

    fn ev(n: u64) -> Event {
        Event::new(WindowId(n), None, EventKind::Action)
    }

    fn paint(n: u64) -> Event {
        Event::new(WindowId(n), None, EventKind::Paint)
    }

    #[test]
    fn fifo_order() {
        let q = EventQueue::new();
        q.push(ev(1));
        q.push(ev(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().unwrap().window, WindowId(1));
        assert_eq!(q.pop().unwrap().unwrap().window, WindowId(2));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_none() {
        let q = EventQueue::new();
        q.push(ev(1));
        q.close();
        q.push(ev(2)); // dropped
        assert_eq!(q.pop().unwrap().unwrap().window, WindowId(1));
        assert!(q.pop().unwrap().is_none());
        assert!(q.is_closed());
        assert_eq!(q.total_enqueued(), 1);
        assert_eq!(q.total_dropped(), 1, "the post-close push is counted");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = EventQueue::new();
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.pop().unwrap().unwrap().window);
        std::thread::sleep(Duration::from_millis(20));
        q.push(ev(9));
        assert_eq!(handle.join().unwrap(), WindowId(9));
        assert_eq!(q.total_dequeued(), 1);
    }

    #[test]
    fn clones_share_state() {
        let q = EventQueue::new();
        let q2 = q.clone();
        assert!(q.same_queue(&q2));
        q2.push(ev(1));
        assert_eq!(q.len(), 1);
        let other = EventQueue::new();
        assert!(!q.same_queue(&other));
    }

    #[test]
    fn drain_takes_up_to_max_in_one_call() {
        let q = EventQueue::new();
        q.push_batch((1..=5).map(ev));
        let batch = q.drain(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].window, WindowId(1));
        assert_eq!(batch[2].window, WindowId(3));
        assert_eq!(q.drain(10).unwrap().len(), 2);
    }

    #[test]
    fn consecutive_paints_for_same_window_coalesce() {
        let q = EventQueue::new();
        q.push(paint(1));
        q.push(paint(1));
        q.push(paint(1));
        assert_eq!(q.len(), 1, "three paints collapse into one");
        assert_eq!(q.total_enqueued(), 3, "all three were accepted");
        assert_eq!(q.total_coalesced(), 2);
        let merged = q.pop().unwrap().unwrap();
        assert_eq!(merged.coalesced, 2, "merged count rides on the event");
        assert!(merged.to_string().contains("(x3)"));
    }

    #[test]
    fn mouse_moves_keep_newest_position_and_oldest_stamp() {
        let q = EventQueue::new();
        let first = Event::new(WindowId(1), None, EventKind::MouseMoved { x: 1, y: 1 });
        let oldest = first.injected_at;
        q.push(first);
        std::thread::sleep(Duration::from_millis(2));
        q.push(Event::new(
            WindowId(1),
            None,
            EventKind::MouseMoved { x: 7, y: 8 },
        ));
        let merged = q.pop().unwrap().unwrap();
        assert_eq!(merged.kind, EventKind::MouseMoved { x: 7, y: 8 });
        assert_eq!(merged.injected_at, oldest, "latency spans the burst");
    }

    #[test]
    fn non_adjacent_events_never_merge() {
        let q = EventQueue::new();
        q.push(paint(1));
        q.push(ev(1)); // an Action in between blocks the merge
        q.push(paint(1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.total_coalesced(), 0);
    }

    #[test]
    fn cross_window_and_cross_component_paints_do_not_merge() {
        let q = EventQueue::new();
        q.push(paint(1));
        q.push(paint(2)); // different window
        q.push(Event::new(
            WindowId(2),
            Some(ComponentId(1)),
            EventKind::Paint,
        ));
        q.push(Event::new(
            WindowId(2),
            Some(ComponentId(2)),
            EventKind::Paint,
        ));
        assert_eq!(q.len(), 4);
        // Ordering across windows is preserved verbatim.
        let batch = q.drain(4).unwrap();
        assert_eq!(batch[0].window, WindowId(1));
        assert_eq!(batch[1].window, WindowId(2));
        assert_eq!(q.total_coalesced(), 0);
    }

    #[test]
    fn paint_and_mouse_move_are_different_classes() {
        let q = EventQueue::new();
        q.push(paint(1));
        q.push(Event::new(
            WindowId(1),
            None,
            EventKind::MouseMoved { x: 0, y: 0 },
        ));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn push_batch_coalesces_within_the_batch() {
        let q = EventQueue::new();
        q.push_batch(vec![paint(1), paint(1), ev(2), paint(3), paint(3)]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.total_coalesced(), 2);
    }

    #[test]
    fn counters_observe_coalesced_and_dropped() {
        let coalesced = Arc::new(Counter::new());
        let dropped = Arc::new(Counter::new());
        let q = EventQueue::with_counters(Some(Arc::clone(&coalesced)), Some(Arc::clone(&dropped)));
        q.push(paint(1));
        q.push(paint(1));
        assert_eq!(coalesced.get(), 1);
        q.close();
        q.push(ev(2));
        q.push_batch(vec![ev(3), ev(4)]);
        assert_eq!(dropped.get(), 3);
        assert_eq!(q.total_dropped(), 3);
    }

    #[test]
    fn idle_queue_accumulates_no_wakeups() {
        let q = EventQueue::new();
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.drain(8).unwrap());
        // Long enough that the legacy 5 ms poll would have woken ~20 times.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(q.idle_wakeups(), 0, "a blocked consumer sleeps for real");
        q.push(ev(1));
        assert_eq!(consumer.join().unwrap().len(), 1);
        assert_eq!(q.idle_wakeups(), 0);
    }

    #[test]
    fn drain_observed_parks_and_unparks_around_the_wait() {
        use std::sync::atomic::{AtomicI32, Ordering};
        let q = EventQueue::new();
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || {
            let depth = AtomicI32::new(0);
            let batch = q2
                .drain_observed(4, |parked| {
                    depth.fetch_add(if parked { 1 } else { -1 }, Ordering::SeqCst);
                })
                .unwrap();
            (batch.len(), depth.load(Ordering::SeqCst))
        });
        std::thread::sleep(Duration::from_millis(20));
        q.push(ev(1));
        let (n, depth) = consumer.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(depth, 0, "every park is matched by an unpark");
    }

    fn owner(id: u64) -> Arc<AppContext> {
        AppContext::new(id, "App", "alice", jmp_obs::ObsHub::new())
    }

    #[test]
    fn owned_queue_charges_slots_and_drains_to_zero() {
        let app = owner(1);
        let q = EventQueue::with_owner(None, None, Some(Arc::clone(&app)));
        q.push_batch((1..=4).map(ev));
        assert_eq!(app.ledger().get(ResourceKind::QueuedEvents), 4);
        assert_eq!(q.drain(2).unwrap().len(), 2);
        assert_eq!(app.ledger().get(ResourceKind::QueuedEvents), 2);
        q.try_pop().unwrap();
        q.try_pop().unwrap();
        assert!(app.ledger().is_drained());
    }

    #[test]
    fn coalesced_events_do_not_leak_charges() {
        let app = owner(2);
        let q = EventQueue::with_owner(None, None, Some(Arc::clone(&app)));
        q.push_batch(vec![paint(1), paint(1), paint(1)]);
        assert_eq!(q.len(), 1);
        assert_eq!(
            app.ledger().get(ResourceKind::QueuedEvents),
            1,
            "three coalesced paints hold one slot and one charge"
        );
        q.drain(8).unwrap();
        assert!(app.ledger().is_drained());
    }

    #[test]
    fn over_quota_pushes_are_dropped_and_counted() {
        let app = owner(3);
        app.limits().set(ResourceKind::QueuedEvents, 2);
        let dropped = Arc::new(Counter::new());
        let q = EventQueue::with_owner(None, Some(Arc::clone(&dropped)), Some(Arc::clone(&app)));
        q.push_batch((1..=5).map(ev));
        assert_eq!(q.len(), 2, "the queue holds exactly the quota");
        assert_eq!(q.total_dropped(), 3);
        assert_eq!(dropped.get(), 3);
        assert_eq!(app.breaches(), 3, "each refused push is a recorded breach");
        // Coalescible traffic onto the full queue still merges for free.
        let app2 = owner(4);
        app2.limits().set(ResourceKind::QueuedEvents, 1);
        let q2 = EventQueue::with_owner(None, None, Some(Arc::clone(&app2)));
        q2.push(paint(1));
        q2.push(paint(1));
        assert_eq!(q2.len(), 1);
        assert_eq!(app2.breaches(), 0, "a merge needs no new slot");
        q.drain(8).unwrap();
        q2.drain(8).unwrap();
        assert!(app.ledger().is_drained());
        assert!(app2.ledger().is_drained());
    }

    #[test]
    fn queue_slots_charge_event_bytes_to_the_memory_ledger() {
        let app = owner(6);
        let q = EventQueue::with_owner(None, None, Some(Arc::clone(&app)));
        q.push_batch((1..=3).map(ev));
        assert_eq!(app.ledger().get(ResourceKind::Memory), 3 * EVENT_BYTES);
        q.drain(8).unwrap();
        assert!(app.ledger().is_drained());
    }

    #[test]
    fn memory_quota_denial_rolls_back_the_slot_charge() {
        let app = owner(7);
        // Room for exactly two events' worth of bytes.
        app.limits().set(ResourceKind::Memory, 2 * EVENT_BYTES);
        let dropped = Arc::new(Counter::new());
        let q = EventQueue::with_owner(None, Some(Arc::clone(&dropped)), Some(Arc::clone(&app)));
        q.push_batch((1..=5).map(ev));
        assert_eq!(q.len(), 2, "the queue holds exactly the memory quota");
        assert_eq!(dropped.get(), 3);
        assert_eq!(
            app.ledger().get(ResourceKind::QueuedEvents),
            2,
            "refused pushes rolled their slot charge back"
        );
        q.drain(8).unwrap();
        assert!(app.ledger().is_drained());
    }

    #[test]
    fn dropping_an_undrained_queue_releases_charges() {
        let app = owner(5);
        let q = EventQueue::with_owner(None, None, Some(Arc::clone(&app)));
        q.push_batch((1..=3).map(ev));
        q.close();
        drop(q);
        assert!(app.ledger().is_drained());
    }

    #[test]
    fn interrupt_unblocks_a_drained_consumer_without_polling() {
        // Run inside a VM thread so interruption applies; the consumer must
        // wake promptly via the interrupt waker, not a poll interval.
        let vm = jmp_vm::Vm::new();
        let q = EventQueue::new();
        let q2 = q.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = vm
            .thread_builder()
            .name("consumer")
            .spawn(move |_vm| {
                tx.send(q2.drain(4)).unwrap();
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        vm.interrupt_thread(&handle).unwrap();
        let result = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(result.unwrap_err().is_interrupted());
        handle.join().unwrap();
    }
}
