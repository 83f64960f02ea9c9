//! The `jbc` execution engine: a pre-decoded fast dispatch loop.
//!
//! [`Interpreter::run`] executes the compiled form ([`CompiledImage`]): a
//! flat `Vec<Op>` per method with interned string constants, resolved call
//! targets, fused superinstructions, and an explicit call-frame stack over
//! one contiguous reusable value arena (no Rust-stack recursion, no
//! per-call allocations in the steady state). Instruction accounting is
//! batched in locals and flushed to the shared [`InterpStats`] atomics at
//! the existing 1024-instruction safepoints; fuel is charged per dispatched
//! op (by its fused cost) rather than one atomic RMW per wire instruction.
//!
//! The executable specification it is tested against is the seed engine,
//! [`Seed`](super::difftest::Seed): the original recursive `match`-loop
//! over the wire [`Insn`](super::Insn) form, which lives outside the
//! production path. The differential corpus ([`super::difftest`]) and
//! experiment E18 run both engines over the same images and assert
//! identical results, traps, and counters. Semantics — trap messages and
//! ordering, the cumulative 1024-instruction safepoint cadence, fuel
//! charging, call-depth limits — are defined by the seed loop and
//! replicated exactly by the fast loop (fused ops charge their component
//! count, so fusion is invisible to fuel, accounting, and preemption).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jmp_obs::{Profiler, ThreadLoc};
use parking_lot::Mutex;

use super::compile::{
    block_end, is_conditional, never_falls_through, op, CompiledImage, CompiledMethod, Op,
};
use super::image::{ClassImage, Value, OPCODE_COUNT, OPCODE_NAMES, OPCODE_WEIGHTS};
use crate::context::{AppContext, ResourceKind};
use crate::error::VmError;
use crate::snapshot::{FrameSnap, InterpSnapshot, SNAPSHOT_VERSION};
use crate::thread::check_interrupt;
use crate::Result;

/// The runtime services an interpreted class may invoke via
/// [`Insn::CallNative`](super::Insn::CallNative).
///
/// Implementations perform the ordinary security checks — when the host is
/// consulted, the interpreted class's protection domain is on the caller's
/// stack (the host runs inside `Class::call`), so stack inspection sees the
/// mobile code and a `SecurityException` propagates as a [`VmError`].
pub trait NativeHost: Send + Sync {
    /// Invokes the native operation `name` with `args` (in call order).
    ///
    /// # Errors
    ///
    /// [`VmError::Trap`] for unknown natives or bad arguments;
    /// [`VmError::Security`] for denied operations; any other [`VmError`]
    /// the operation raises.
    fn invoke(&self, name: &str, args: Vec<Value>) -> Result<Value>;
}

/// A host that provides only the pure stdlib natives
/// ([`invoke_pure`](super::invoke_pure)); anything else traps. Useful for
/// pure-compute images and for tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoNatives;

impl NativeHost for NoNatives {
    fn invoke(&self, name: &str, args: Vec<Value>) -> Result<Value> {
        match super::stdlib::invoke_pure(name, &args) {
            Some(result) => result,
            None => Err(VmError::trap(format!("no such native: {name}"))),
        }
    }
}

/// Execution counters, for the interpreter experiment (E18).
///
/// `instructions` counts *wire* instructions (a fused superinstruction
/// charges its component count), so the number is engine-independent;
/// `dispatches` counts ops the fast loop dispatched (0 for the
/// [`Seed`](super::difftest::Seed)) — the gap between the two is the
/// fusion win.
#[derive(Debug, Default)]
pub struct InterpStats {
    pub(super) instructions: AtomicU64,
    dispatches: AtomicU64,
    pub(super) native_calls: AtomicU64,
    pub(super) method_calls: AtomicU64,
}

impl InterpStats {
    /// Wire instructions executed so far (fused ops count their
    /// components).
    pub fn instructions(&self) -> u64 {
        self.instructions.load(Ordering::Relaxed)
    }

    /// Compiled ops dispatched so far (0 for seed runs).
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Native invocations so far.
    pub fn native_calls(&self) -> u64 {
        self.native_calls.load(Ordering::Relaxed)
    }

    /// Intra-class method calls so far.
    pub fn method_calls(&self) -> u64 {
        self.method_calls.load(Ordering::Relaxed)
    }

    /// Drains `pending` into the shared atomics. Called at safepoints,
    /// before native calls, and at run exit — never per instruction.
    fn flush_pending(&self, pending: &mut Pending) {
        if pending.instructions > 0 {
            self.instructions
                .fetch_add(pending.instructions, Ordering::Relaxed);
            pending.instructions = 0;
        }
        if pending.dispatches > 0 {
            self.dispatches
                .fetch_add(pending.dispatches, Ordering::Relaxed);
            pending.dispatches = 0;
        }
        if pending.native_calls > 0 {
            self.native_calls
                .fetch_add(pending.native_calls, Ordering::Relaxed);
            pending.native_calls = 0;
        }
        if pending.method_calls > 0 {
            self.method_calls
                .fetch_add(pending.method_calls, Ordering::Relaxed);
            pending.method_calls = 0;
        }
    }
}

/// Run-local counter batch. The seed loop paid one contended atomic RMW
/// per wire instruction; the fast loop accumulates here and flushes at
/// safepoint granularity.
#[derive(Debug, Default)]
struct Pending {
    instructions: u64,
    dispatches: u64,
    native_calls: u64,
    method_calls: u64,
}

/// How often the interpreter polls for interruption (in wire instructions).
/// Doubles as the profiler's safepoint: the block counts accumulated in
/// [`ProfTally`] re-read the accounting switch here and are pushed to the
/// [`Profiler`] every [`PROFILE_FLUSH_SAFEPOINTS`]th visit. The cadence is
/// measured on the interpreter's *cumulative* instruction counter, so it is
/// preserved across nested and repeated runs — and exactly matches the
/// seed loop's.
pub(super) const INTERRUPT_CHECK_EVERY: u64 = 1024;

/// Per-run opcode accounting, flushed to the VM [`Profiler`] at
/// safepoints.
///
/// The dispatch loop adds one to a counter per taken jump (the branch op's
/// own counter) and per call (the callee's entry counter), and nothing per
/// op. While accounting is off it holds an empty counter slice, so the
/// add's own bounds check skips it; `active` is re-read from the profiler
/// only at safepoints, so toggles take effect within
/// `INTERRUPT_CHECK_EVERY` instructions. A flush walks each method that
/// ran, in code order, and derives how often each basic block was entered:
/// from its counters where control jumped or called in, and — where it
/// fell in after a branch not taken, a call or a native — as the previous
/// block's executions less its taken exits. The entries expand through
/// each block's static histogram into exact per-opcode counts.
///
/// The derivation assumes that every block entered runs to its end and
/// that every call returns. Where a run does otherwise — it starts or
/// resumes mid-block, stops early (a trap, fuel exhaustion, an interrupt, a
/// checkpoint park), or is flushed mid-block with calls still open — the
/// difference is an arrival correction: extra (or fewer) arrivals at an op
/// that no counter records. Batch wall time is apportioned across the
/// batch's opcodes by the profiler using the installed weight model;
/// superinstruction weights are their components' sums, so fusion does not
/// skew attribution.
struct ProfTally {
    profiler: Option<Profiler>,
    app: Option<u64>,
    active: bool,
    /// Method entries, then taken branch edges ([`CompiledImage`]'s
    /// counter ids); empty without a profiler.
    counts: Vec<u64>,
    /// Arrival corrections: `(method, op, arrivals)`, one entry per op.
    arrivals: Vec<(usize, usize, i64)>,
    /// Per-block entries of the method being derived (flush scratch).
    entered: Vec<i64>,
    safepoints: u32,
    started: Instant,
}

/// The batch is pushed every Nth safepoint (256 × 1024 instructions, about
/// 0.2–0.4 ms of interpreted work), not at every one: `record_block`'s
/// locks and apportionment cost about 0.7 µs, and 1.1–1.2 µs when two
/// threads flush at once, which this cadence keeps near 0.5 % of the work
/// between flushes. The accounting switch is still re-read at *every*
/// safepoint, so toggle latency stays at `INTERRUPT_CHECK_EVERY`
/// instructions; every run also flushes when it ends.
const PROFILE_FLUSH_SAFEPOINTS: u32 = 256;

impl ProfTally {
    /// Resolves the profiler: an explicit one (benches, embedding) wins,
    /// otherwise the ambient VM's. Installs the opcode name/weight model on
    /// first contact (first-wins, idempotent).
    fn new(explicit: Option<&Profiler>, ci: &CompiledImage) -> ProfTally {
        let profiler = explicit
            .cloned()
            .or_else(|| crate::Vm::current().map(|vm| vm.obs().profiler().clone()));
        let app = crate::thread::current_app_context().map(|ctx| ctx.app_id());
        let (active, counts) = match &profiler {
            Some(p) => {
                p.install_model(&OPCODE_NAMES, &OPCODE_WEIGHTS);
                (p.accounting_enabled(), vec![0; ci.counter_count()])
            }
            None => (false, Vec::new()),
        };
        ProfTally {
            profiler,
            app,
            active,
            counts,
            arrivals: Vec::new(),
            entered: Vec::new(),
            safepoints: 0,
            started: Instant::now(),
        }
    }

    /// The counters for the dispatch loop to add to: the real ones while
    /// accounting is on, an empty slice while it is off.
    fn lend_counts(&mut self) -> Vec<u64> {
        if self.active {
            std::mem::take(&mut self.counts)
        } else {
            Vec::new()
        }
    }

    /// Takes back what [`ProfTally::lend_counts`] handed out.
    fn return_counts(&mut self, counts: Vec<u64>) {
        if !counts.is_empty() {
            self.counts = counts;
        }
    }

    /// Records `n` arrivals at op `at` of method `method` that no counter
    /// sees.
    fn arrive(&mut self, method: usize, at: usize, n: i64) {
        match self
            .arrivals
            .iter()
            .position(|&(m, op, _)| (m, op) == (method, at))
        {
            Some(i) => {
                self.arrivals[i].2 += n;
                if self.arrivals[i].2 == 0 {
                    self.arrivals.swap_remove(i);
                }
            }
            None => self.arrivals.push((method, at, n)),
        }
    }

    /// `n` arrivals at op `at` of `method` (the op being charged) and at
    /// the return point of every open call in `frames`: the run starts
    /// there (`n = 1`), or a batch boundary moves them from one batch to
    /// the next.
    fn arrive_in_flight(&mut self, method: usize, at: usize, frames: &[FrameState], n: i64) {
        self.arrive(method, at, n);
        for f in frames {
            self.arrive(f.method as usize, f.pc as usize, n);
        }
    }

    /// The run stops at op `at` of `method` with `frames` open: op `at`
    /// ran (and trapped) if `ran`, or was stopped before running (fuel, an
    /// interrupt, a park); nothing after it ran, and no open call returns.
    fn leave_at(
        &mut self,
        ci: &CompiledImage,
        method: usize,
        at: usize,
        ran: bool,
        frames: &[FrameState],
    ) {
        if !self.active {
            return;
        }
        if !ran {
            self.arrive(method, at, -1);
        } else if !never_falls_through(ci.methods()[method].code[at].code) {
            self.arrive(method, at + 1, -1);
        }
        for f in frames {
            self.arrive(f.method as usize, f.pc as usize, -1);
        }
    }

    /// Safepoint while op `at` of `method` is being charged, with `frames`
    /// open: re-read the accounting switch, and push the batch on every
    /// [`PROFILE_FLUSH_SAFEPOINTS`]th visit. The batch ends before op
    /// `at`; what is in flight moves to the next one.
    fn at_safepoint(
        &mut self,
        ci: &CompiledImage,
        method: usize,
        at: usize,
        frames: &[FrameState],
    ) {
        let Some(on) = self.profiler.as_ref().map(Profiler::accounting_enabled) else {
            return;
        };
        self.safepoints = self.safepoints.wrapping_add(1);
        if self.active && self.safepoints.is_multiple_of(PROFILE_FLUSH_SAFEPOINTS) {
            self.arrive_in_flight(method, at, frames, -1);
            self.flush(ci);
            self.arrive_in_flight(method, at, frames, 1);
        }
        if !on {
            self.counts.fill(0);
            self.arrivals.clear();
        } else if !self.active {
            self.arrive_in_flight(method, at, frames, 1);
        }
        self.active = on;
    }

    /// Derives block entries, expands them into per-opcode counts, pushes
    /// the batch (if any) to the profiler, and restarts the batch timer.
    fn flush(&mut self, ci: &CompiledImage) {
        if self.profiler.is_none() {
            return;
        }
        let mut totals = [0i64; OPCODE_COUNT];
        for (mi, method) in ci.methods().iter().enumerate() {
            let ran = self.counts[mi] != 0
                || method
                    .edges
                    .iter()
                    .any(|&(c, _)| self.counts[usize::from(c)] != 0)
                || self.arrivals.iter().any(|&(m, _, _)| m == mi);
            if ran {
                self.derive(mi, method, &mut totals);
            }
        }
        self.counts.fill(0);
        self.arrivals.clear();
        debug_assert!(totals.iter().all(|&t| t >= 0), "{totals:?}");
        let counts = totals.map(|t| t.max(0) as u64);
        if counts.iter().any(|&c| c > 0) {
            let elapsed = self.started.elapsed().as_nanos() as u64;
            if let Some(profiler) = &self.profiler {
                profiler.record_block(self.app, &counts, elapsed);
            }
        }
        self.started = Instant::now();
    }

    /// Adds one method's executed ops to `totals`, walking its blocks in
    /// code order with `flow`, the entries falling into the next block.
    fn derive(&mut self, mi: usize, method: &CompiledMethod, totals: &mut [i64; OPCODE_COUNT]) {
        let counts = &self.counts;
        let entered = &mut self.entered;
        entered.clear();
        entered.resize(method.blocks.len(), 0);
        entered[0] = counts[mi] as i64;
        for &(counter, target) in method.edges.iter() {
            entered[usize::from(target)] += counts[usize::from(counter)] as i64;
        }
        // Corrections: each arrival runs its op to the block's end, and
        // moves the executions of that block's end op.
        let mut extra: Vec<(usize, i64)> = Vec::new();
        for &(_, at, n) in self.arrivals.iter().filter(|&&(m, _, _)| m == mi) {
            let end = block_end(&method.code, at);
            for o in &method.code[at..=end] {
                totals[usize::from(o.code)] += n;
            }
            extra.push((end, n));
        }
        let (mut flow, mut executions) = (0i64, 0i64);
        for (b, block) in method.blocks.iter().enumerate() {
            if block.falls_in {
                entered[b] += flow;
                executions = 0;
            }
            executions += entered[b];
            for &(code, n) in method.histogram(block) {
                totals[usize::from(code)] += entered[b] * i64::from(n);
            }
            if method.blocks.get(b + 1).is_none_or(|next| next.falls_in) {
                let end = usize::from(block.end);
                let ran = executions
                    + extra
                        .iter()
                        .filter(|&&(e, _)| e == end)
                        .map(|&(_, n)| n)
                        .sum::<i64>();
                let last = method.code[end];
                flow = if never_falls_through(last.code) {
                    0
                } else if is_conditional(last.code) {
                    ran - counts[usize::from(last.ctr)] as i64
                } else {
                    ran
                };
            }
        }
    }
}

/// Per-run frame publication for the sampling profiler: one label pushed
/// in place per interpreted call and popped per return, into the thread's
/// [`ThreadLoc`] slot. The slot and the label ids are resolved on the
/// first push, so a run with sampling off resolves nothing.
struct Frames {
    profiler: Option<Profiler>,
    /// The thread's profiler and slot (the label ids are interned there).
    slot: Option<(Profiler, Arc<ThreadLoc>)>,
    /// Each method's label id, `u32::MAX` until first pushed.
    labels: Vec<u32>,
    /// Frames this run pushed and has not popped.
    pushed: usize,
}

impl Frames {
    fn new(profiler: Option<&Profiler>) -> Frames {
        Frames {
            profiler: profiler.cloned(),
            slot: None,
            labels: Vec::new(),
            pushed: 0,
        }
    }

    /// Pushes `method`'s frame if sampling is on; returns whether it did
    /// (so the matching return pops it even if sampling is off by then).
    fn push(&mut self, ci: &CompiledImage, method: usize) -> bool {
        if !self
            .profiler
            .as_ref()
            .is_some_and(Profiler::sampling_enabled)
        {
            return false;
        }
        if self.slot.is_none() {
            self.slot = crate::profloc::thread_slot(self.profiler.as_ref());
            self.labels = vec![u32::MAX; ci.methods().len()];
        }
        let Some((profiler, slot)) = &self.slot else {
            return false;
        };
        let label = &mut self.labels[method];
        if *label == u32::MAX {
            *label = profiler.intern(&ci.methods()[method].qualified);
        }
        slot.push(*label);
        self.pushed += 1;
        true
    }

    fn pop(&mut self) {
        if let Some((_, slot)) = &self.slot {
            slot.pop();
            self.pushed -= 1;
        }
    }
}

impl Drop for Frames {
    fn drop(&mut self) {
        while self.pushed > 0 {
            self.pop();
        }
    }
}

/// Maximum intra-class call depth. The fast loop's frames live on the heap
/// (no host-stack recursion), but the limit is part of the observable
/// semantics the seed loop defined, so both engines enforce the same bound.
pub(super) const MAX_CALL_DEPTH: usize = 64;

/// A caller's registers, saved across an intra-class call by the fast
/// loop's explicit frame stack.
struct FrameState {
    method: u32,
    pc: u32,
    base: u32,
    /// Whether the *callee* pushed a profiler frame (popped on return).
    callee_pushed: bool,
}

/// Bytes one arena slot occupies, for the `Memory` quota.
const VAL_BYTES: u64 = std::mem::size_of::<Value>() as u64;

/// Strings at or above this size are charged at the allocating op rather
/// than waiting for the next safepoint sample, so a doubling concat bomb
/// cannot balloon inside one 1024-instruction window.
const STR_PREPAY_BYTES: u64 = 4096;

/// Run-local memory governance for application-attributed runs.
///
/// The hot loop stays 1 compare + 1 subtract: the arena slab is charged
/// only when it grows (entry and CALL resizes), string bytes are sampled
/// from the arena at the existing 1024-instruction safepoints (live bytes,
/// not cumulative allocation), and only large allocations prepay at the
/// allocating op. `charged` is what this run currently holds on the
/// ledger; settlement at run exit either returns the (cleared) arena to
/// the per-app pool with its slab charge resident, or releases everything.
struct MemGov {
    ctx: Arc<AppContext>,
    /// `Memory` bytes currently charged for this run.
    charged: u64,
    /// Portion of `charged` covering the arena slab itself.
    arena_bytes: u64,
}

impl MemGov {
    /// Charges any growth of the arena slab (capacity × slot size).
    fn ensure_arena(&mut self, arena: &Vec<Value>) -> Result<()> {
        let bytes = arena.capacity() as u64 * VAL_BYTES;
        if bytes > self.arena_bytes {
            let delta = bytes - self.arena_bytes;
            self.ctx.try_charge(ResourceKind::Memory, delta)?;
            self.arena_bytes = bytes;
            self.charged += delta;
        }
        Ok(())
    }

    /// Eagerly charges a large allocation at the allocating op.
    fn prepay(&mut self, bytes: u64) -> Result<()> {
        self.ctx.try_charge(ResourceKind::Memory, bytes)?;
        self.charged += bytes;
        Ok(())
    }

    /// Safepoint sample: reconciles `charged` to the slab plus the string
    /// bytes actually live in the arena (shrinking as well as growing, so
    /// a legitimate long-running app is billed its working set, not its
    /// cumulative allocation).
    fn sample(&mut self, arena: &[Value]) -> Result<()> {
        let live = self.arena_bytes + arena.iter().map(Value::heap_bytes).sum::<u64>();
        if live > self.charged {
            self.ctx
                .try_charge(ResourceKind::Memory, live - self.charged)?;
            self.charged = live;
        } else if self.charged > live {
            self.ctx.uncharge(ResourceKind::Memory, self.charged - live);
            self.charged = live;
        }
        Ok(())
    }

    /// Run exit: the cleared arena returns to the per-app pool, keeping
    /// its slab charge resident; everything transient is released.
    fn settle_pool(self, arena: Vec<Value>) {
        self.ctx
            .uncharge(ResourceKind::Memory, self.charged - self.arena_bytes);
        self.ctx.put_arena(arena, self.arena_bytes);
    }

    /// Park/teardown: the arena left the governed heap (moved into a
    /// snapshot); the whole charge is released.
    fn settle_drop(self) {
        self.ctx.uncharge(ResourceKind::Memory, self.charged);
    }
}

/// A prepared continuation for [`Interpreter::exec`]: either a fresh entry
/// frame ([`Interpreter::run`]) or a restored one
/// ([`Interpreter::resume`]).
struct StartState {
    entry: String,
    arena: Vec<Value>,
    /// `Memory` bytes already charged for `arena` (per-app pool checkout).
    arena_charged: u64,
    frames: Vec<FrameState>,
    mi: usize,
    base: usize,
    sp: usize,
    pc: usize,
    fuel: u64,
}

/// The `jbc` interpreter for one verified, pre-decoded [`ClassImage`].
///
/// Construction verifies and compiles the image (or adopts an existing
/// [`CompiledImage`] via [`Interpreter::from_compiled`]);
/// [`Interpreter::run`] executes a method on the fast dispatch loop.
/// Interpreted code is preemptible: every `INTERRUPT_CHECK_EVERY` (1024)
/// wire instructions the thread's interruption flag is polled, so a runaway
/// applet is still stoppable by application teardown — something native
/// code can only promise cooperatively. An optional *fuel* bound aborts
/// execution after a fixed instruction budget.
pub struct Interpreter {
    compiled: Arc<CompiledImage>,
    host: Arc<dyn NativeHost>,
    stats: InterpStats,
    fuel: Option<u64>,
    profiler: Option<Profiler>,
    /// Cumulative instruction count at which to park for a checkpoint
    /// (`u64::MAX` = never). One-shot: cleared when the park fires.
    checkpoint_at: AtomicU64,
    /// Where a park triggered by [`Interpreter::with_checkpoint_at`]
    /// deposits its snapshot (context-requested parks deposit on the
    /// [`AppContext`] instead).
    snapshot_slot: Mutex<Option<InterpSnapshot>>,
}

impl std::fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("class", &self.compiled.image().name)
            .field("fuel", &self.fuel)
            .field("instructions", &self.stats.instructions())
            .finish()
    }
}

impl Interpreter {
    /// Creates an interpreter over `image`, verifying and pre-decoding it
    /// first.
    ///
    /// # Errors
    ///
    /// [`VmError::Verification`] if the image is rejected.
    pub fn new(image: Arc<ClassImage>, host: Arc<dyn NativeHost>) -> Result<Interpreter> {
        let compiled = Arc::new(CompiledImage::compile(image)?);
        Ok(Interpreter::from_compiled(compiled, host))
    }

    /// Creates an interpreter over an already-compiled image — the
    /// class-define-time path: [`ClassDef`](crate::classes::ClassDef)
    /// compiles once and every execution adopts the shared form.
    pub fn from_compiled(compiled: Arc<CompiledImage>, host: Arc<dyn NativeHost>) -> Interpreter {
        Interpreter {
            compiled,
            host,
            stats: InterpStats::default(),
            fuel: None,
            profiler: None,
            checkpoint_at: AtomicU64::new(u64::MAX),
            snapshot_slot: Mutex::new(None),
        }
    }

    /// Limits execution to `fuel` instructions per [`Interpreter::run`]
    /// call chain; exceeding it traps.
    pub fn with_fuel(mut self, fuel: u64) -> Interpreter {
        self.fuel = Some(fuel);
        self
    }

    /// Directs opcode accounting and stack sampling to `profiler` instead
    /// of the ambient VM's ([`Vm::current`](crate::Vm::current)) — for
    /// benches and embedding without a VM.
    pub fn with_profiler(mut self, profiler: Profiler) -> Interpreter {
        self.profiler = Some(profiler);
        self
    }

    /// Parks the run at the first op boundary at or after cumulative wire
    /// instruction `n`: the run returns [`VmError::Checkpointed`] and the
    /// continuation is available via [`Interpreter::take_snapshot`].
    /// One-shot — the trigger clears when it fires, so a
    /// [`Interpreter::resume`] on the same interpreter runs to completion.
    pub fn with_checkpoint_at(self, n: u64) -> Interpreter {
        self.checkpoint_at.store(n, Ordering::Relaxed);
        self
    }

    /// Takes the snapshot deposited by a [`Interpreter::with_checkpoint_at`]
    /// park, if one fired.
    pub fn take_snapshot(&self) -> Option<InterpSnapshot> {
        self.snapshot_slot.lock().take()
    }

    /// Execution counters.
    pub fn stats(&self) -> &InterpStats {
        &self.stats
    }

    /// The class image being interpreted.
    pub fn image(&self) -> &Arc<ClassImage> {
        self.compiled.image()
    }

    /// The pre-decoded form being executed.
    pub fn compiled(&self) -> &Arc<CompiledImage> {
        &self.compiled
    }

    /// Runs `method` with `args` on the fast dispatch loop.
    ///
    /// # Errors
    ///
    /// [`VmError::Trap`] on runtime faults (unknown method, type mismatch,
    /// division by zero, fuel exhaustion, call-depth overflow);
    /// [`VmError::Interrupted`] if the thread is interrupted mid-run; plus
    /// anything the [`NativeHost`] raises.
    pub fn run(&self, method: &str, args: Vec<Value>) -> Result<Value> {
        let mut prof = ProfTally::new(self.profiler.as_ref(), &self.compiled);
        let result = self.run_compiled(method, args, &mut prof);
        prof.flush(&self.compiled);
        result
    }

    /// Prepares a fresh entry frame for `method` and hands it to the
    /// dispatch loop ([`Interpreter::exec`]).
    fn run_compiled(
        &self,
        method: &str,
        mut args: Vec<Value>,
        prof: &mut ProfTally,
    ) -> Result<Value> {
        let ci: &CompiledImage = &self.compiled;
        let methods = ci.methods();
        let Some(entry) = ci.method_index(method) else {
            return Err(VmError::trap(format!("no such method: {method}")));
        };
        if args.len() != usize::from(methods[entry].params) {
            return Err(VmError::trap(format!(
                "method {method} takes {} args, got {}",
                methods[entry].params,
                args.len()
            )));
        }

        // Application-attributed runs — every run the runtime makes — check
        // their arena out of the per-app pool (the `Memory` charge for a
        // pooled slab transfers with it); unattributed runs (benches,
        // difftest) allocate a fresh one.
        let (mut arena, arena_charged) = crate::thread::current_app_context()
            .and_then(|ctx| ctx.take_arena())
            .unwrap_or_default();
        arena.resize(methods[entry].frame_size as usize, Value::Null);
        let sp = usize::from(methods[entry].locals);
        for (slot, arg) in args.drain(..).enumerate() {
            arena[slot] = arg;
        }
        self.exec(
            StartState {
                entry: method.to_string(),
                arena,
                arena_charged,
                frames: Vec::new(),
                mi: entry,
                base: 0,
                sp,
                pc: 0,
                fuel: self.fuel.unwrap_or(u64::MAX),
            },
            prof,
        )
    }

    /// Resumes a parked continuation (see [`Interpreter::with_checkpoint_at`]
    /// and [`AppContext::request_checkpoint`]) with identical observable
    /// behaviour to the run that parked: the cumulative counters are
    /// pre-seeded so safepoint cadence, fuel, and final instruction counts
    /// match an unparked run exactly. Restored frames are not re-published
    /// to the sampling profiler (attribution resumes at the next call).
    ///
    /// # Errors
    ///
    /// [`VmError::Trap`] if the snapshot fails
    /// [`InterpSnapshot::validate`] against this class image; otherwise
    /// exactly [`Interpreter::run`].
    pub fn resume(&self, snap: &InterpSnapshot) -> Result<Value> {
        let mut prof = ProfTally::new(self.profiler.as_ref(), &self.compiled);
        let result = self.resume_compiled(snap, &mut prof);
        prof.flush(&self.compiled);
        result
    }

    fn resume_compiled(&self, snap: &InterpSnapshot, prof: &mut ProfTally) -> Result<Value> {
        snap.validate(&self.compiled)?;
        self.stats
            .instructions
            .store(snap.instructions, Ordering::Relaxed);
        self.stats
            .dispatches
            .store(snap.dispatches, Ordering::Relaxed);
        self.stats
            .method_calls
            .store(snap.method_calls, Ordering::Relaxed);
        self.stats
            .native_calls
            .store(snap.native_calls, Ordering::Relaxed);
        let frames = snap
            .frames
            .iter()
            .map(|f| FrameState {
                method: f.method,
                pc: f.pc,
                base: f.base,
                callee_pushed: false,
            })
            .collect();
        self.exec(
            StartState {
                entry: snap.entry.clone(),
                arena: snap.arena.clone(),
                arena_charged: 0,
                frames,
                mi: snap.method as usize,
                base: snap.base as usize,
                sp: snap.sp as usize,
                pc: snap.pc as usize,
                fuel: snap.fuel.unwrap_or(u64::MAX),
            },
            prof,
        )
    }

    /// The fast dispatch loop: explicit frames over one reusable arena.
    ///
    /// Arena layout per frame: `[base .. base+locals)` are the local
    /// slots, `[base+locals .. base+frame_size)` the operand stack (sized
    /// by the verifier's proven `max_stack`, so pushes never bounds-grow).
    /// A callee's `base` is the caller's `sp - argc`: the pushed arguments
    /// are already its first locals in call order, so calls move no values
    /// at all.
    #[allow(clippy::too_many_lines)]
    fn exec(&self, start: StartState, prof: &mut ProfTally) -> Result<Value> {
        let ci: &CompiledImage = &self.compiled;
        let methods = ci.methods();
        let StartState {
            entry,
            mut arena,
            arena_charged,
            mut frames,
            mut mi,
            mut base,
            mut sp,
            mut pc,
            fuel: fuel_start,
        } = start;
        let mut code: &[Op] = &methods[mi].code;
        let mut published = Frames::new(prof.profiler.as_ref());
        published.push(ci, mi);

        // Memory governance (application-attributed runs only): charge the
        // entry slab before dispatching anything.
        let app = crate::thread::current_app_context();
        let mut gov = app.as_ref().map(|ctx| MemGov {
            ctx: Arc::clone(ctx),
            charged: arena_charged,
            arena_bytes: arena_charged,
        });
        if let Err(err) = gov.as_mut().map_or(Ok(()), |g| g.ensure_arena(&arena)) {
            drop(published);
            arena.clear();
            if let Some(g) = gov {
                g.settle_pool(arena);
            }
            return Err(err);
        }

        // Charging state. `until_check` counts wire instructions down to
        // the next safepoint on the interpreter's *cumulative* counter —
        // the same cadence the seed loop derives from its per-instruction
        // `fetch_add`. Fuel is run-local, like the seed's `budget`.
        let mut pending = Pending::default();
        let mut until_check =
            INTERRUPT_CHECK_EVERY - (self.stats.instructions() % INTERRUPT_CHECK_EVERY);
        let fueled = fuel_start != u64::MAX;
        let mut fuel: u64 = fuel_start;
        // Checkpoint countdown: wire instructions until the requested park
        // point (`u64::MAX` = no trigger). Folded into `slack` exactly
        // like fuel, so the fast path stays 1 compare + 1 subtract; a
        // context-requested checkpoint is polled at safepoints and parks
        // at the following op boundary.
        let mut ckpt: u64 = {
            let at = self.checkpoint_at.load(Ordering::Relaxed);
            if at == u64::MAX {
                u64::MAX
            } else {
                at.saturating_sub(self.stats.instructions())
            }
        };
        let mut want_ckpt = false;
        // The headrooms merged into one counter for the hot path: `slack`
        // components can be charged without reaching a safepoint boundary
        // (`until_check` must stay ≥ 1), running out of fuel, or crossing
        // a requested checkpoint; `slack_base - slack` is what the slow
        // path reconciles back into the real counters before charging
        // component-wise.
        let mut slack = (until_check - 1).min(fuel).min(ckpt);
        let mut slack_base = slack;
        // Batched-counter shadows kept out of `pending` so the fast path
        // touches only registers: the wire-instruction charge is derived
        // from `slack_base - slack` and dispatches from `dispatched`, both
        // folded back into `pending` at reconcile points (slow-path entry,
        // native calls, run exit). `trap_refund` carries a fused op's
        // never-reached tail components out to the exit reconcile.
        let mut dispatched: u64 = 0;
        let mut trap_refund: u64 = 0;
        macro_rules! reconcile {
            () => {{
                pending.instructions += slack_base - slack;
                slack_base = slack;
                pending.dispatches += dispatched;
                dispatched = 0;
            }};
        }
        // Opcode accounting: one add per taken jump (to the branch op's
        // counter) and per call (to the callee's entry counter); the flush
        // derives everything else. The run's start, and for a resume its
        // open calls, are arrivals no counter sees. `unrun` marks an op the
        // slow path stopped before running, so the exit corrects for the
        // right op.
        if prof.active {
            prof.arrive_in_flight(mi, pc, &frames, 1);
        }
        let mut counts = prof.lend_counts();
        macro_rules! count {
            ($counter:expr) => {
                if let Some(n) = counts.get_mut(usize::from($counter)) {
                    *n += 1;
                }
            };
        }
        let mut unrun: Option<usize> = None;

        let outcome: Result<Value> = 'run: loop {
            let o = code[pc];
            pc += 1;
            let cost = u64::from(o.cost);
            if slack >= cost {
                // Fast path: no safepoint boundary inside this op and
                // enough fuel for every component.
                slack -= cost;
            } else {
                // Slow path: charge component-wise in exact seed order —
                // count, then (at a boundary) safepoint + interrupt poll,
                // then the fuel check — so a trap attributes to the same
                // wire instruction the seed loop would pick.
                let spent = slack_base - slack;
                reconcile!();
                until_check -= spent;
                fuel -= spent;
                ckpt = ckpt.saturating_sub(spent);
                // Park for a checkpoint *before* charging the current op:
                // it is uncharged and unexecuted, so the snapshot resumes
                // by re-dispatching it and the cumulative counters match
                // an unparked run exactly. Only op boundaries park — no
                // instruction is ever half-charged in a snapshot.
                if want_ckpt || ckpt < cost {
                    pc -= 1;
                    unrun = Some(pc);
                    self.stats.flush_pending(&mut pending);
                    self.checkpoint_at.store(u64::MAX, Ordering::Relaxed);
                    let snap = InterpSnapshot {
                        version: SNAPSHOT_VERSION,
                        image: (**ci.image()).clone(),
                        entry: entry.clone(),
                        frames: frames
                            .iter()
                            .map(|f| FrameSnap {
                                method: f.method,
                                pc: f.pc,
                                base: f.base,
                            })
                            .collect(),
                        method: mi as u32,
                        pc: pc as u32,
                        base: base as u32,
                        sp: sp as u32,
                        arena: std::mem::take(&mut arena),
                        fuel: fueled.then_some(fuel),
                        instructions: self.stats.instructions(),
                        dispatches: self.stats.dispatches(),
                        method_calls: self.stats.method_calls(),
                        native_calls: self.stats.native_calls(),
                    };
                    match (&app, want_ckpt) {
                        (Some(ctx), true) => {
                            ctx.clear_checkpoint_request();
                            ctx.deposit_snapshot(snap);
                        }
                        _ => *self.snapshot_slot.lock() = Some(snap),
                    }
                    break 'run Err(VmError::Checkpointed);
                }
                let mut trapped: Option<VmError> = None;
                for _ in 0..o.cost {
                    pending.instructions += 1;
                    until_check -= 1;
                    if until_check == 0 {
                        until_check = INTERRUPT_CHECK_EVERY;
                        self.stats.flush_pending(&mut pending);
                        prof.return_counts(std::mem::take(&mut counts));
                        prof.at_safepoint(ci, mi, pc - 1, &frames);
                        counts = prof.lend_counts();
                        if let Err(err) = check_interrupt() {
                            trapped = Some(err);
                            break;
                        }
                        // Safepoint services beyond the seed's: reconcile
                        // the memory charge to the live working set, and
                        // poll for a context-requested checkpoint (parks
                        // at the next op boundary).
                        if let Some(g) = gov.as_mut() {
                            if let Err(err) = g.sample(&arena) {
                                trapped = Some(err);
                                break;
                            }
                        }
                        if let Some(ctx) = &app {
                            if ctx.checkpoint_requested() {
                                want_ckpt = true;
                            }
                        }
                    }
                    if fuel == 0 {
                        trapped = Some(VmError::trap("fuel exhausted"));
                        break;
                    }
                    fuel -= 1;
                }
                if let Some(err) = trapped {
                    unrun = Some(pc - 1);
                    break 'run Err(err);
                }
                ckpt = ckpt.saturating_sub(cost);
                // The component loop leaves `until_check` ≥ 1 (a boundary
                // resets it to the full interval mid-iteration).
                slack = (until_check - 1).min(fuel).min(ckpt);
                if want_ckpt {
                    slack = 0;
                }
                slack_base = slack;
            }
            dispatched += 1;

            // Pop a value, leaving `Null` so the slot holds no stale Arc.
            macro_rules! pop_take {
                () => {{
                    sp -= 1;
                    std::mem::replace(&mut arena[sp], Value::Null)
                }};
            }
            // Read an int at an arena index; on type mismatch, trap with
            // the seed's message. `$refund` is the number of *tail*
            // components of a fused op the seed loop would never have
            // reached (it traps at the compute component), keeping the
            // instruction count seed-identical even for mid-pattern traps.
            macro_rules! int_at {
                ($idx:expr) => {
                    int_at!($idx, 0)
                };
                ($idx:expr, $refund:expr) => {
                    match &arena[$idx] {
                        Value::Int(v) => *v,
                        other => {
                            trap_refund = $refund;
                            break 'run Err(expected_int(other));
                        }
                    }
                };
            }

            match o.code {
                op::PUSH_INT => {
                    arena[sp] = Value::Int(o.k);
                    sp += 1;
                }
                op::PUSH_STR => {
                    arena[sp] = Value::Str(Arc::clone(ci.pool_str(o.t)));
                    sp += 1;
                }
                op::PUSH_BOOL => {
                    arena[sp] = Value::Bool(o.a != 0);
                    sp += 1;
                }
                op::PUSH_NULL => {
                    arena[sp] = Value::Null;
                    sp += 1;
                }
                op::LOAD => {
                    arena[sp] = arena[base + usize::from(o.a)].clone();
                    sp += 1;
                }
                op::STORE => {
                    let v = pop_take!();
                    arena[base + usize::from(o.a)] = v;
                }
                op::POP => {
                    sp -= 1;
                    arena[sp] = Value::Null;
                }
                op::DUP => {
                    arena[sp] = arena[sp - 1].clone();
                    sp += 1;
                }
                op::SWAP => {
                    arena.swap(sp - 1, sp - 2);
                }
                op::ADD => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    arena[sp - 2] = Value::Int(a.wrapping_add(b));
                    sp -= 1;
                }
                op::SUB => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    arena[sp - 2] = Value::Int(a.wrapping_sub(b));
                    sp -= 1;
                }
                op::MUL => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    arena[sp - 2] = Value::Int(a.wrapping_mul(b));
                    sp -= 1;
                }
                op::DIV | op::REM => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    if b == 0 {
                        break 'run Err(VmError::trap("division by zero"));
                    }
                    arena[sp - 2] = Value::Int(if o.code == op::REM {
                        a.wrapping_rem(b)
                    } else {
                        a.wrapping_div(b)
                    });
                    sp -= 1;
                }
                op::NEG => {
                    let v = int_at!(sp - 1);
                    arena[sp - 1] = Value::Int(v.wrapping_neg());
                }
                op::CONCAT => {
                    let joined = Value::concat(&arena[sp - 2], &arena[sp - 1]);
                    // Large results prepay their bytes at the allocating
                    // op (small ones are picked up by the safepoint
                    // sample): a doubling concat bomb is denied at the
                    // allocation that crosses the quota, not 1024
                    // instructions later.
                    if let Some(g) = gov.as_mut() {
                        let bytes = joined.heap_bytes();
                        if bytes >= STR_PREPAY_BYTES {
                            if let Err(err) = g.prepay(bytes) {
                                break 'run Err(err);
                            }
                        }
                    }
                    arena[sp - 2] = joined;
                    arena[sp - 1] = Value::Null;
                    sp -= 1;
                }
                op::EQ | op::NE => {
                    let eq = arena[sp - 2] == arena[sp - 1];
                    arena[sp - 2] = Value::Bool(if o.code == op::EQ { eq } else { !eq });
                    arena[sp - 1] = Value::Null;
                    sp -= 1;
                }
                op::LT => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    arena[sp - 2] = Value::Bool(a < b);
                    sp -= 1;
                }
                op::LE => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    arena[sp - 2] = Value::Bool(a <= b);
                    sp -= 1;
                }
                op::GT => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    arena[sp - 2] = Value::Bool(a > b);
                    sp -= 1;
                }
                op::GE => {
                    let b = int_at!(sp - 1);
                    let a = int_at!(sp - 2);
                    arena[sp - 2] = Value::Bool(a >= b);
                    sp -= 1;
                }
                op::AND | op::OR => {
                    let b = arena[sp - 1].is_truthy();
                    let a = arena[sp - 2].is_truthy();
                    arena[sp - 2] = Value::Bool(if o.code == op::AND { a && b } else { a || b });
                    arena[sp - 1] = Value::Null;
                    sp -= 1;
                }
                op::NOT => {
                    let t = arena[sp - 1].is_truthy();
                    arena[sp - 1] = Value::Bool(!t);
                }
                op::JUMP => {
                    pc = usize::from(o.t);
                    count!(o.ctr);
                }
                op::JUMP_IF_FALSE => {
                    if !pop_take!().is_truthy() {
                        pc = usize::from(o.t);
                        count!(o.ctr);
                    }
                }
                op::JUMP_IF_TRUE => {
                    if pop_take!().is_truthy() {
                        pc = usize::from(o.t);
                        count!(o.ctr);
                    }
                }
                op::CALL => {
                    pending.method_calls += 1;
                    if frames.len() + 1 >= MAX_CALL_DEPTH {
                        break 'run Err(VmError::trap(format!(
                            "call depth exceeds {MAX_CALL_DEPTH}"
                        )));
                    }
                    let callee = usize::from(o.t);
                    let cm = &methods[callee];
                    let argc = usize::from(o.a);
                    // The pushed args are already the callee's first
                    // locals, in call order.
                    let callee_base = sp - argc;
                    let need = callee_base + cm.frame_size as usize;
                    if arena.len() < need {
                        arena.resize(need, Value::Null);
                        if let Some(g) = gov.as_mut() {
                            if let Err(err) = g.ensure_arena(&arena) {
                                break 'run Err(err);
                            }
                        }
                    }
                    // Non-parameter locals must start Null (the arena may
                    // hold stale values from earlier frames).
                    for slot in &mut arena[callee_base + argc..callee_base + usize::from(cm.locals)]
                    {
                        *slot = Value::Null;
                    }
                    frames.push(FrameState {
                        method: mi as u32,
                        pc: pc as u32,
                        base: base as u32,
                        callee_pushed: published.push(ci, callee),
                    });
                    mi = callee;
                    base = callee_base;
                    sp = callee_base + usize::from(cm.locals);
                    code = &cm.code;
                    pc = 0;
                    count!(o.t);
                }
                op::CALL_NATIVE => {
                    pending.native_calls += 1;
                    let argc = usize::from(o.a);
                    let site = ci.site(o.t);
                    let args_start = sp - argc;
                    let mut call_args = Vec::with_capacity(argc);
                    for slot in &mut arena[args_start..sp] {
                        call_args.push(std::mem::replace(slot, Value::Null));
                    }
                    sp = args_start;
                    // Keep the shared counters fresh across the host call
                    // (a native may observe stats or re-enter the
                    // interpreter), and mark this site active so access
                    // checks it triggers hit its inline cache.
                    reconcile!();
                    self.stats.flush_pending(&mut pending);
                    let result = {
                        let _active = crate::decision_cache::enter_native_site(&site.cache);
                        self.host.invoke(&site.name, call_args)
                    };
                    match result {
                        Ok(v) => {
                            arena[sp] = v;
                            sp += 1;
                        }
                        Err(err) => break 'run Err(err),
                    }
                }
                op::RETURN | op::RETURN_VALUE => {
                    let result = if o.code == op::RETURN_VALUE {
                        pop_take!()
                    } else {
                        Value::Null
                    };
                    match frames.pop() {
                        None => break 'run Ok(result),
                        Some(f) => {
                            if f.callee_pushed {
                                published.pop();
                            }
                            // The callee's base is where the caller's args
                            // started; the result lands there.
                            let ret_slot = base;
                            mi = f.method as usize;
                            base = f.base as usize;
                            code = &methods[mi].code;
                            pc = f.pc as usize;
                            arena[ret_slot] = result;
                            sp = ret_slot + 1;
                        }
                    }
                }
                // Superinstructions. Operand-read order mirrors the seed's
                // pop order (top of stack / second load first), so type
                // mismatch traps report the same value.
                op::LOAD2_ADD | op::LOAD2_SUB | op::LOAD2_MUL => {
                    let b = int_at!(base + usize::from(o.b), 0);
                    let a = int_at!(base + usize::from(o.a), 0);
                    arena[sp] = Value::Int(match o.code {
                        op::LOAD2_ADD => a.wrapping_add(b),
                        op::LOAD2_SUB => a.wrapping_sub(b),
                        _ => a.wrapping_mul(b),
                    });
                    sp += 1;
                }
                op::LT_JF | op::LE_JF | op::GT_JF | op::GE_JF => {
                    let b = int_at!(sp - 1, 1);
                    let a = int_at!(sp - 2, 1);
                    sp -= 2;
                    let cond = match o.code {
                        op::LT_JF => a < b,
                        op::LE_JF => a <= b,
                        op::GT_JF => a > b,
                        _ => a >= b,
                    };
                    if !cond {
                        pc = usize::from(o.t);
                        count!(o.ctr);
                    }
                }
                op::EQ_JF | op::NE_JF => {
                    let eq = arena[sp - 2] == arena[sp - 1];
                    arena[sp - 1] = Value::Null;
                    arena[sp - 2] = Value::Null;
                    sp -= 2;
                    let cond = if o.code == op::EQ_JF { eq } else { !eq };
                    if !cond {
                        pc = usize::from(o.t);
                        count!(o.ctr);
                    }
                }
                op::LOAD_ADDI | op::LOAD_SUBI => {
                    let a = int_at!(base + usize::from(o.a), 0);
                    arena[sp] = Value::Int(if o.code == op::LOAD_ADDI {
                        a.wrapping_add(o.k)
                    } else {
                        a.wrapping_sub(o.k)
                    });
                    sp += 1;
                }
                op::LOAD_STORE => {
                    arena[base + usize::from(o.b)] = arena[base + usize::from(o.a)].clone();
                }
                op::ADDI_STORE | op::SUBI_STORE => {
                    let a = int_at!(base + usize::from(o.a), 1);
                    arena[base + usize::from(o.b)] = Value::Int(if o.code == op::ADDI_STORE {
                        a.wrapping_add(o.k)
                    } else {
                        a.wrapping_sub(o.k)
                    });
                }
                op::ADD2_STORE => {
                    let b = int_at!(base + usize::from(o.b), 1);
                    let a = int_at!(base + usize::from(o.a), 1);
                    arena[usize::from(o.t) + base] = Value::Int(a.wrapping_add(b));
                }
                op::LTI_JF | op::LEI_JF | op::GTI_JF | op::GEI_JF => {
                    let a = int_at!(base + usize::from(o.a), 1);
                    let cond = match o.code {
                        op::LTI_JF => a < o.k,
                        op::LEI_JF => a <= o.k,
                        op::GTI_JF => a > o.k,
                        _ => a >= o.k,
                    };
                    if !cond {
                        pc = usize::from(o.t);
                        count!(o.ctr);
                    }
                }
                op::EQI_JF => {
                    if arena[base + usize::from(o.a)] != Value::Int(o.k) {
                        pc = usize::from(o.t);
                        count!(o.ctr);
                    }
                }
                op::NEI_JF => {
                    if arena[base + usize::from(o.a)] == Value::Int(o.k) {
                        pc = usize::from(o.t);
                        count!(o.ctr);
                    }
                }
                op::ADDI_STORE_JUMP | op::SUBI_STORE_JUMP => {
                    // Seed traps at the add/sub (3rd component); the store
                    // and the jump are never counted.
                    let a = int_at!(base + usize::from(o.a), 2);
                    arena[base + usize::from(o.b)] = Value::Int(if o.code == op::ADDI_STORE_JUMP {
                        a.wrapping_add(o.k)
                    } else {
                        a.wrapping_sub(o.k)
                    });
                    pc = usize::from(o.t);
                    count!(o.ctr);
                }
                other => unreachable!("invalid compiled opcode {other}"),
            }
        };

        // Fold the register shadows back in; the trapping op's full cost
        // is in by now (via slack on the fast path, component-wise on the
        // slow path), so subtracting the refund cannot underflow.
        pending.instructions += slack_base - slack;
        pending.dispatches += dispatched;
        pending.instructions -= trap_refund;
        self.stats.flush_pending(&mut pending);
        prof.return_counts(counts);
        if outcome.is_err() {
            match unrun {
                Some(at) => prof.leave_at(ci, mi, at, false, &frames),
                None => prof.leave_at(ci, mi, pc - 1, true, &frames),
            }
        }
        drop(published);
        let parked = matches!(outcome, Err(VmError::Checkpointed));
        arena.clear();
        match gov {
            // A parked run's arena moved into the snapshot — release its
            // whole charge; otherwise the slab returns to the per-app pool
            // with its charge resident (reclaimed in bulk at reap).
            Some(g) if parked => g.settle_drop(),
            Some(g) => g.settle_pool(arena),
            None => {}
        }
        outcome
    }
}

/// The trap both engines raise when an operand is not an integer.
pub(super) fn expected_int(other: &Value) -> VmError {
    VmError::trap(format!("expected int, got {other}"))
}

impl InterpSnapshot {
    /// Checks that this continuation fits `image`, the class recompiled
    /// from the snapshot's own image, so that resuming it indexes nothing
    /// outside the code or the arena: a snapshot may come from another VM,
    /// and the dispatch loop indexes the arena unchecked. There must be
    /// fewer frames than `MAX_CALL_DEPTH` (64). Every frame's method and
    /// `pc` must be in range at an op some path reaches, and its
    /// `base + frame_size` must lie inside the arena. Frame bases ascend:
    /// each caller's `pc` follows a `CALL` of the next frame's method, whose
    /// frame starts where the call's arguments did. `sp` must lie inside
    /// the executing frame's operand stack, at the depth the verifier
    /// proved for the parked op.
    ///
    /// # Errors
    ///
    /// [`VmError::Trap`] naming the first frame that breaks a rule.
    pub fn validate(&self, image: &CompiledImage) -> Result<()> {
        if self.image.name != image.image().name {
            return Err(VmError::trap(format!(
                "snapshot of class {} cannot resume on {}",
                self.image.name,
                image.image().name
            )));
        }
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(VmError::trap("snapshot frames exceed the call depth"));
        }
        let executing = FrameSnap {
            method: self.method,
            pc: self.pc,
            base: self.base,
        };
        let chain: Vec<&FrameSnap> = self.frames.iter().chain([&executing]).collect();
        for (at, frame) in chain.iter().enumerate() {
            let (pc, base) = (frame.pc as usize, frame.base as usize);
            let method = image.methods().get(frame.method as usize);
            let Some((method, Some(depth))) =
                method.and_then(|m| Some((m, *m.entry_depth.get(pc)?)))
            else {
                return Err(VmError::trap(format!(
                    "snapshot frame {at} is out of range"
                )));
            };
            // Where this frame's stack top stands when it runs again.
            let top = base + usize::from(method.locals) + usize::from(depth);
            let linked = match chain.get(at + 1) {
                // The return value lands where the callee's frame began.
                Some(callee) => {
                    pc.checked_sub(1).is_some_and(|call| {
                        let o = method.code[call];
                        o.code == op::CALL && u32::from(o.t) == callee.method
                    }) && callee.base as usize + 1 == top
                }
                None => self.sp as usize == top,
            };
            if !linked || base + method.frame_size as usize > self.arena.len() {
                return Err(VmError::trap(format!(
                    "snapshot frame {at} does not fit its caller, stack or arena"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::difftest::Seed;
    use crate::interp::image::{Insn, MethodImage};

    fn interp(image: ClassImage) -> Interpreter {
        Interpreter::new(Arc::new(image), Arc::new(NoNatives)).unwrap()
    }

    fn seed(image: ClassImage) -> Seed {
        Seed::new(Arc::new(image), Arc::new(NoNatives)).unwrap()
    }

    fn single(code: Vec<Insn>, params: u8, locals: u8) -> ClassImage {
        ClassImage {
            name: "T".into(),
            methods: vec![MethodImage {
                name: "main".into(),
                params,
                locals,
                code,
            }],
        }
    }

    #[test]
    fn arithmetic() {
        let i = interp(single(
            vec![
                Insn::PushInt(7),
                Insn::PushInt(3),
                Insn::Mul, // 21
                Insn::PushInt(1),
                Insn::Sub, // 20
                Insn::PushInt(6),
                Insn::Div, // 3
                Insn::ReturnValue,
            ],
            0,
            0,
        ));
        assert_eq!(i.run("main", vec![]).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_traps() {
        let i = interp(single(
            vec![
                Insn::PushInt(1),
                Insn::PushInt(0),
                Insn::Div,
                Insn::ReturnValue,
            ],
            0,
            0,
        ));
        assert!(matches!(
            i.run("main", vec![]).unwrap_err(),
            VmError::Trap { .. }
        ));
    }

    #[test]
    fn loop_sums_one_to_ten() {
        // locals: 0 = i, 1 = sum
        let code = vec![
            Insn::PushInt(1),
            Insn::Store(0), // i = 1
            Insn::PushInt(0),
            Insn::Store(1), // sum = 0
            Insn::Load(0),  // 4: loop head
            Insn::PushInt(10),
            Insn::Le,
            Insn::JumpIfFalse(17),
            Insn::Load(1),
            Insn::Load(0),
            Insn::Add,
            Insn::Store(1),
            Insn::Load(0),
            Insn::PushInt(1),
            Insn::Add,
            Insn::Store(0),
            Insn::Jump(4),
            Insn::Load(1), // 17
            Insn::ReturnValue,
        ];
        let i = interp(single(code, 0, 2));
        assert_eq!(i.run("main", vec![]).unwrap(), Value::Int(55));
        assert!(i.stats().instructions() > 50);
        assert!(
            i.stats().dispatches() < i.stats().instructions(),
            "fusion must dispatch fewer ops than wire instructions: {} vs {}",
            i.stats().dispatches(),
            i.stats().instructions()
        );
    }

    #[test]
    fn method_calls_pass_args_in_order() {
        let image = ClassImage {
            name: "T".into(),
            methods: vec![
                MethodImage {
                    name: "main".into(),
                    params: 0,
                    locals: 0,
                    code: vec![
                        Insn::PushInt(10),
                        Insn::PushInt(3),
                        Insn::Call {
                            method: "sub".into(),
                            argc: 2,
                        },
                        Insn::ReturnValue,
                    ],
                },
                MethodImage {
                    name: "sub".into(),
                    params: 2,
                    locals: 2,
                    code: vec![Insn::Load(0), Insn::Load(1), Insn::Sub, Insn::ReturnValue],
                },
            ],
        };
        let i = interp(image);
        assert_eq!(i.run("main", vec![]).unwrap(), Value::Int(7));
        assert_eq!(i.stats().method_calls(), 1);
    }

    #[test]
    fn recursion_with_depth_limit() {
        let image = ClassImage {
            name: "T".into(),
            methods: vec![MethodImage {
                name: "forever".into(),
                params: 0,
                locals: 0,
                code: vec![
                    Insn::Call {
                        method: "forever".into(),
                        argc: 0,
                    },
                    Insn::ReturnValue,
                ],
            }],
        };
        let i = interp(image);
        let err = i.run("forever", vec![]).unwrap_err();
        assert!(err.to_string().contains("call depth"));
    }

    #[test]
    fn fuel_bounds_runaway_code() {
        let i = Interpreter::new(
            Arc::new(single(vec![Insn::Jump(0)], 0, 0)),
            Arc::new(NoNatives),
        )
        .unwrap()
        .with_fuel(10_000);
        let err = i.run("main", vec![]).unwrap_err();
        assert!(err.to_string().contains("fuel"));
    }

    #[test]
    fn natives_receive_args_in_call_order() {
        struct Recorder(Mutex<Vec<(String, Vec<Value>)>>);
        impl NativeHost for Recorder {
            fn invoke(&self, name: &str, args: Vec<Value>) -> Result<Value> {
                self.0.lock().push((name.to_string(), args));
                Ok(Value::Int(99))
            }
        }
        let host = Arc::new(Recorder(Mutex::new(Vec::new())));
        let image = single(
            vec![
                Insn::PushStr("hello".into()),
                Insn::PushInt(5),
                Insn::CallNative {
                    name: "print2".into(),
                    argc: 2,
                },
                Insn::ReturnValue,
            ],
            0,
            0,
        );
        let i =
            Interpreter::new(Arc::new(image), Arc::clone(&host) as Arc<dyn NativeHost>).unwrap();
        assert_eq!(i.run("main", vec![]).unwrap(), Value::Int(99));
        let calls = host.0.lock();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].0, "print2");
        assert_eq!(calls[0].1, vec![Value::str("hello"), Value::Int(5)]);
        assert_eq!(i.stats().native_calls(), 1);
    }

    #[test]
    fn unknown_native_traps() {
        let i = interp(single(
            vec![
                Insn::CallNative {
                    name: "missing".into(),
                    argc: 0,
                },
                Insn::ReturnValue,
            ],
            0,
            0,
        ));
        assert!(i
            .run("main", vec![])
            .unwrap_err()
            .to_string()
            .contains("missing"));
    }

    #[test]
    fn string_ops() {
        let i = interp(single(
            vec![
                Insn::PushStr("x=".into()),
                Insn::PushInt(42),
                Insn::Concat,
                Insn::ReturnValue,
            ],
            0,
            0,
        ));
        assert_eq!(i.run("main", vec![]).unwrap(), Value::str("x=42"));
    }

    #[test]
    fn comparisons_and_bools() {
        let i = interp(single(
            vec![
                Insn::PushInt(3),
                Insn::PushInt(5),
                Insn::Lt, // true
                Insn::PushBool(false),
                Insn::Or,  // true
                Insn::Not, // false
                Insn::ReturnValue,
            ],
            0,
            0,
        ));
        assert_eq!(i.run("main", vec![]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn wrong_arg_count_traps() {
        let i = interp(single(vec![Insn::Return], 2, 2));
        assert!(i
            .run("main", vec![Value::Int(1)])
            .unwrap_err()
            .to_string()
            .contains("takes 2"));
    }

    fn sum_loop() -> Vec<Insn> {
        // locals: 0 = i, 1 = sum
        vec![
            Insn::PushInt(1),
            Insn::Store(0),
            Insn::PushInt(0),
            Insn::Store(1),
            Insn::Load(0), // 4: loop head
            Insn::PushInt(500),
            Insn::Le,
            Insn::JumpIfFalse(17),
            Insn::Load(1),
            Insn::Load(0),
            Insn::Add,
            Insn::Store(1),
            Insn::Load(0),
            Insn::PushInt(1),
            Insn::Add,
            Insn::Store(0),
            Insn::Jump(4),
            Insn::Load(1), // 17
            Insn::ReturnValue,
        ]
    }

    #[test]
    fn opcode_accounting_bills_an_explicit_profiler() {
        let profiler = jmp_obs::Profiler::new();
        let i = interp(single(sum_loop(), 0, 2)).with_profiler(profiler.clone());
        assert_eq!(i.run("main", vec![]).unwrap(), Value::Int(125_250));
        let report = profiler.report();
        // Every dispatched op is tallied once (accounting was on for the
        // whole run); the wire-instruction counter is strictly larger
        // because fused ops charge their component count.
        assert_eq!(report.vm.instructions, i.stats().dispatches());
        assert!(i.stats().instructions() > i.stats().dispatches());
        // The loop body fuses: its adds surface as superinstructions with
        // component-sum weights, keeping attribution truthful.
        let fused_adds: u64 = report
            .vm
            .opcodes
            .iter()
            .filter(|o| o.opcode == "add2_store" || o.opcode == "addi_store_jump")
            .map(|o| o.count)
            .sum();
        assert!(
            fused_adds >= 1000,
            "two fused adds per iteration: {fused_adds}"
        );
        assert!(report.flushes >= 1);
    }

    #[test]
    fn block_counts_match_dispatches_when_runs_stop_early_or_span_flushes() {
        // Every dispatched op is counted exactly once: through a trap with
        // calls open, an interrupt, flushes taken deep in a recursion, and a
        // park and resume.
        let counted = |profiler: &jmp_obs::Profiler| profiler.report().vm.instructions;
        let profiler = jmp_obs::Profiler::new();
        let fib = interp(recursive_fib())
            .with_fuel(5_000)
            .with_profiler(profiler.clone());
        let err = fib.run("fib", vec![Value::Int(20)]).unwrap_err();
        assert!(err.to_string().contains("fuel"), "{err}");
        assert_eq!(counted(&profiler), fib.stats().dispatches());

        let profiler = jmp_obs::Profiler::new();
        let forever = interp(single(vec![Insn::Jump(0)], 0, 0)).with_profiler(profiler.clone());
        let err = crate::thread::with_interrupted_for_test(|| forever.run("main", vec![]));
        assert!(matches!(err, Err(VmError::Interrupted)));
        assert_eq!(counted(&profiler), forever.stats().dispatches());

        let profiler = jmp_obs::Profiler::new();
        let deep = interp(recursive_fib()).with_profiler(profiler.clone());
        assert_eq!(
            deep.run("fib", vec![Value::Int(22)]).unwrap(),
            Value::Int(17_711)
        );
        assert!(profiler.flushes() > 1, "flushed mid-run");
        assert_eq!(counted(&profiler), deep.stats().dispatches());

        let profiler = jmp_obs::Profiler::new();
        let parked = interp(recursive_fib())
            .with_profiler(profiler.clone())
            .with_checkpoint_at(150_000);
        assert!(matches!(
            parked.run("fib", vec![Value::Int(20)]),
            Err(VmError::Checkpointed)
        ));
        let snap = parked.take_snapshot().expect("parked");
        assert_eq!(parked.resume(&snap).unwrap(), Value::Int(6_765));
        assert_eq!(counted(&profiler), parked.stats().dispatches());
        crate::profloc::clear();
    }

    #[test]
    fn accounting_toggle_takes_effect_at_safepoints() {
        let profiler = jmp_obs::Profiler::new();
        profiler.set_accounting(false);
        let i = interp(single(sum_loop(), 0, 2)).with_profiler(profiler.clone());
        i.run("main", vec![]).unwrap();
        assert_eq!(profiler.report().vm.instructions, 0);
        profiler.set_accounting(true);
        i.run("main", vec![]).unwrap();
        assert!(profiler.report().vm.instructions > 0);
    }

    #[test]
    fn interpreted_frames_reach_the_sampler() {
        // Sample from *inside* a native call, while the interpreted frames
        // are live and published — deterministic, no cross-thread timing.
        struct SampleHost(jmp_obs::Profiler);
        impl NativeHost for SampleHost {
            fn invoke(&self, _name: &str, _args: Vec<Value>) -> Result<Value> {
                self.0.sample_once(1_000);
                Ok(Value::Null)
            }
        }
        let profiler = jmp_obs::Profiler::new();
        let image = ClassImage {
            name: "Deep".into(),
            methods: vec![
                MethodImage {
                    name: "main".into(),
                    params: 0,
                    locals: 0,
                    code: vec![
                        Insn::Call {
                            method: "leaf".into(),
                            argc: 0,
                        },
                        Insn::ReturnValue,
                    ],
                },
                MethodImage {
                    name: "leaf".into(),
                    params: 0,
                    locals: 0,
                    code: vec![
                        Insn::CallNative {
                            name: "snap".into(),
                            argc: 0,
                        },
                        Insn::ReturnValue,
                    ],
                },
            ],
        };
        let i = Interpreter::new(Arc::new(image), Arc::new(SampleHost(profiler.clone())))
            .unwrap()
            .with_profiler(profiler.clone());
        i.run("main", vec![]).unwrap();
        let report = profiler.report();
        assert!(
            report.vm.stacks.keys().any(|k| k == "Deep.main;Deep.leaf"),
            "stacks: {:?}",
            report.vm.stacks.keys().collect::<Vec<_>>()
        );
        crate::profloc::clear();
    }

    #[test]
    fn interpreter_rejects_unverifiable_images() {
        let bad = single(vec![Insn::Add, Insn::Return], 0, 0);
        assert!(matches!(
            Interpreter::new(Arc::new(bad), Arc::new(NoNatives)).unwrap_err(),
            VmError::Verification { .. }
        ));
    }

    #[test]
    fn seed_and_compiled_agree_on_the_sum_loop() {
        let a = interp(single(sum_loop(), 0, 2));
        let b = seed(single(sum_loop(), 0, 2));
        assert_eq!(
            a.run("main", vec![]).unwrap(),
            b.run("main", vec![]).unwrap()
        );
        assert_eq!(a.stats().instructions(), b.stats().instructions());
    }

    #[test]
    fn fused_type_mismatch_matches_seed_trap_and_accounting() {
        // local 0 arrives as a string; the loop body's addi_store pattern
        // traps at its Add component. Both engines must report the same
        // message and have charged the same number of wire instructions.
        let code = vec![
            Insn::Load(0),
            Insn::PushInt(1),
            Insn::Add,
            Insn::Store(0),
            Insn::Return,
        ];
        let fast = interp(single(code.clone(), 1, 1));
        let spec = seed(single(code, 1, 1));
        let fast_err = fast.run("main", vec![Value::str("oops")]).unwrap_err();
        let seed_err = spec.run("main", vec![Value::str("oops")]).unwrap_err();
        assert_eq!(fast_err.to_string(), seed_err.to_string());
        assert!(fast_err.to_string().contains("expected int, got"));
        assert_eq!(fast.stats().instructions(), spec.stats().instructions());
    }

    #[test]
    fn arena_is_reused_across_runs() {
        // Unattributed runs allocate a fresh arena; repeated runs on one
        // interpreter must not leak state between them.
        let i = interp(single(sum_loop(), 0, 2));
        for _ in 0..5 {
            assert_eq!(i.run("main", vec![]).unwrap(), Value::Int(125_250));
        }
        // Deep call chains also unwind cleanly.
        let fib = ClassImage {
            name: "F".into(),
            methods: vec![MethodImage {
                name: "fib".into(),
                params: 1,
                locals: 1,
                code: vec![
                    Insn::Load(0),
                    Insn::PushInt(2),
                    Insn::Lt,
                    Insn::JumpIfFalse(6),
                    Insn::Load(0),
                    Insn::ReturnValue,
                    Insn::Load(0), // 6
                    Insn::PushInt(1),
                    Insn::Sub,
                    Insn::Call {
                        method: "fib".into(),
                        argc: 1,
                    },
                    Insn::Load(0),
                    Insn::PushInt(2),
                    Insn::Sub,
                    Insn::Call {
                        method: "fib".into(),
                        argc: 1,
                    },
                    Insn::Add,
                    Insn::ReturnValue,
                ],
            }],
        };
        let i = interp(fib);
        assert_eq!(i.run("fib", vec![Value::Int(15)]).unwrap(), Value::Int(610));
        assert_eq!(
            i.run("fib", vec![Value::Int(10)]).unwrap(),
            Value::Int(55),
            "second run starts from a clean arena"
        );
    }

    #[test]
    fn checkpoint_resume_matches_plain_run_exactly() {
        // Plain run.
        let plain = interp(single(sum_loop(), 0, 2));
        let expect = plain.run("main", vec![]).unwrap();
        let expect_insns = plain.stats().instructions();
        let expect_dispatches = plain.stats().dispatches();

        // Park mid-loop, serialize, restore on a *fresh* interpreter (as a
        // second VM would), resume.
        let parked = interp(single(sum_loop(), 0, 2)).with_checkpoint_at(expect_insns / 2);
        let err = parked.run("main", vec![]).unwrap_err();
        assert!(matches!(err, VmError::Checkpointed), "got {err:?}");
        let snap = parked.take_snapshot().expect("snapshot deposited");
        assert!(snap.instructions < expect_insns, "parked mid-run");
        let bytes = snap.to_bytes().unwrap();
        let snap = crate::snapshot::InterpSnapshot::from_bytes(&bytes).unwrap();
        let restored = Interpreter::new(Arc::new(snap.image.clone()), Arc::new(NoNatives)).unwrap();
        assert_eq!(restored.resume(&snap).unwrap(), expect);
        assert_eq!(restored.stats().instructions(), expect_insns);
        assert_eq!(restored.stats().dispatches(), expect_dispatches);

        // The parked interpreter itself can also resume (trigger is
        // one-shot).
        assert_eq!(parked.resume(&snap).unwrap(), expect);
        assert_eq!(parked.stats().instructions(), expect_insns);
    }

    /// Recursive `fib(n)`: `fib(n - 1) + fib(n - 2)`, with a frame per
    /// call, so a mid-run park holds caller frames.
    fn recursive_fib() -> ClassImage {
        ClassImage {
            name: "F".into(),
            methods: vec![MethodImage {
                name: "fib".into(),
                params: 1,
                locals: 1,
                code: vec![
                    Insn::Load(0),
                    Insn::PushInt(2),
                    Insn::Lt,
                    Insn::JumpIfFalse(6),
                    Insn::Load(0),
                    Insn::ReturnValue,
                    Insn::Load(0), // 6
                    Insn::PushInt(1),
                    Insn::Sub,
                    Insn::Call {
                        method: "fib".into(),
                        argc: 1,
                    },
                    Insn::Load(0),
                    Insn::PushInt(2),
                    Insn::Sub,
                    Insn::Call {
                        method: "fib".into(),
                        argc: 1,
                    },
                    Insn::Add,
                    Insn::ReturnValue,
                ],
            }],
        }
    }

    #[test]
    fn checkpoint_preserves_call_frames_and_fuel() {
        let fib = recursive_fib();
        let plain = interp(fib.clone());
        let expect = plain.run("fib", vec![Value::Int(14)]).unwrap();
        let expect_insns = plain.stats().instructions();
        let expect_calls = plain.stats().method_calls();

        let parked = interp(fib)
            .with_fuel(1_000_000)
            .with_checkpoint_at(expect_insns / 3);
        let err = parked.run("fib", vec![Value::Int(14)]).unwrap_err();
        assert!(matches!(err, VmError::Checkpointed));
        let snap = parked.take_snapshot().expect("snapshot");
        assert!(!snap.frames.is_empty(), "parked inside the recursion");
        assert!(snap.fuel.is_some(), "fuel budget travels with the snapshot");
        let restored = Interpreter::new(Arc::new(snap.image.clone()), Arc::new(NoNatives)).unwrap();
        assert_eq!(restored.resume(&snap).unwrap(), expect);
        assert_eq!(restored.stats().instructions(), expect_insns);
        assert_eq!(restored.stats().method_calls(), expect_calls);
    }

    #[test]
    fn tampered_snapshots_return_traps_not_panics() {
        // A snapshot may come from another VM, and the dispatch loop
        // indexes the arena unchecked. The four tamperings after the foreign
        // class panicked on an arena index inside `exec` before resume
        // validated its input; every one must now be refused with a trap.
        let plain = interp(recursive_fib());
        let expect = plain.run("fib", vec![Value::Int(12)]).unwrap();
        let parked = interp(recursive_fib()).with_checkpoint_at(plain.stats().instructions() / 2);
        parked.run("fib", vec![Value::Int(12)]).unwrap_err();
        let snap = parked.take_snapshot().expect("snapshot");
        assert!(snap.frames.len() >= 2, "parked inside the recursion");
        type Tamper = fn(&mut InterpSnapshot);
        let tamperings: [(&str, Tamper); 9] = [
            ("a foreign class", |s| s.image.name = "Other".into()),
            ("a huge sp", |s| s.sp = u32::MAX),
            ("a huge base", |s| s.base = u32::MAX),
            ("an empty arena", |s| s.arena.clear()),
            ("a huge caller base", |s| s.frames[0].base = u32::MAX),
            ("frames past the call depth", |s| {
                let outer = s.frames[0].clone();
                s.frames.resize(MAX_CALL_DEPTH, outer);
            }),
            ("a caller method out of range", |s| s.frames[1].method = 7),
            ("descending frame bases", |s| s.base = s.frames[0].base),
            ("sp off the parked op's stack depth", |s| s.sp -= 1),
        ];
        let restored = interp(recursive_fib());
        for (what, tamper) in tamperings {
            let mut bad = snap.clone();
            tamper(&mut bad);
            let outcome = restored.resume(&bad);
            assert!(
                matches!(outcome, Err(VmError::Trap { .. })),
                "{what}: {outcome:?}"
            );
        }
        assert_eq!(restored.resume(&snap).unwrap(), expect);
    }

    #[test]
    fn checkpoint_past_end_runs_to_completion() {
        let i = interp(single(sum_loop(), 0, 2)).with_checkpoint_at(u64::MAX - 1);
        assert_eq!(i.run("main", vec![]).unwrap(), Value::Int(125_250));
        assert!(i.take_snapshot().is_none());
    }

    #[test]
    fn interrupt_preempts_both_engines_at_the_same_safepoint() {
        // Pre-set the interruption flag on this (non-VM) test thread via a
        // scoped VM thread context, then run an infinite loop: both engines
        // must stop at the first safepoint — cumulative instruction 1024 —
        // with `Interrupted`.
        let forever = || single(vec![Insn::Jump(0)], 0, 0);
        let fast = interp(forever());
        let spec = seed(forever());
        let fast_err =
            crate::thread::with_interrupted_for_test(|| fast.run("main", vec![])).unwrap_err();
        let seed_err =
            crate::thread::with_interrupted_for_test(|| spec.run("main", vec![])).unwrap_err();
        for (engine, err, instructions) in [
            ("compiled", fast_err, fast.stats().instructions()),
            ("seed", seed_err, spec.stats().instructions()),
        ] {
            assert!(matches!(err, VmError::Interrupted), "{engine}: {err:?}");
            assert_eq!(
                instructions, INTERRUPT_CHECK_EVERY,
                "{engine} stopped at the first safepoint"
            );
        }
    }
}
