//! The seed engine and the differential corpus: runs every case on both
//! interpreter engines — the fast dispatch loop ([`Interpreter::run`]) and
//! the seed reference loop ([`Seed::run`]) — and reports any observable
//! divergence.
//!
//! The fast loop is an aggressive rework (pre-decoding, superinstruction
//! fusion, frame reuse, batched accounting), so "same semantics" is not
//! obvious from the code; this corpus makes it checked. A case diverges if
//! the two engines differ in *any* of: the result value, the error (trap
//! message, security denial, interruption), the shared execution counters
//! (`instructions`, `method_calls`, `native_calls` — `dispatches` is
//! engine-specific by design), or the per-opcode counts the profiler
//! derives from basic-block counters, checked against a per-op reference
//! count taken from the seed's own per-instruction trace. The corpus
//! deliberately concentrates on
//! the rework's risk areas: traps raised *inside* fused superinstructions,
//! fuel exhaustion at and around safepoint boundaries, call-depth limits,
//! and native dispatch.
//!
//! Used three ways: `cargo test` runs the whole corpus
//! (`tests::corpus_has_zero_divergence`), experiment E18 re-runs it in the
//! bench binary and reports the case/divergence counts in its JSON (CI
//! gates on zero), and new fusion patterns get corpus cases alongside
//! their decoder.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use jmp_obs::Profiler;

use super::compile::CompiledImage;
use super::image::{ClassImage, Insn, MethodImage, Value, OPCODE_NAMES};
use super::machine::{
    expected_int, InterpStats, Interpreter, NativeHost, NoNatives, INTERRUPT_CHECK_EVERY,
    MAX_CALL_DEPTH,
};
use crate::error::VmError;
use crate::thread::check_interrupt;
use crate::Result;

/// The seed interpreter: the original recursive `match`-loop over the wire
/// [`Insn`] form, kept as the executable specification of `jbc` semantics
/// outside the production path.
///
/// It is a pure specification — no profiler, no memory governance, no
/// checkpoints — but it still pays the seed costs (one relaxed atomic RMW
/// per wire instruction, fresh locals/stack vectors per call), so E18 can
/// time it as an honest in-run baseline for [`Interpreter::run`].
pub struct Seed {
    image: Arc<ClassImage>,
    host: Arc<dyn NativeHost>,
    fuel: Option<u64>,
    stats: InterpStats,
}

impl Seed {
    /// Creates a seed interpreter over `image`, verifying it first.
    ///
    /// # Errors
    ///
    /// [`VmError::Verification`] if the image is rejected.
    pub fn new(image: Arc<ClassImage>, host: Arc<dyn NativeHost>) -> Result<Seed> {
        super::verify(&image)?;
        Ok(Seed {
            image,
            host,
            fuel: None,
            stats: InterpStats::default(),
        })
    }

    /// Limits execution to `fuel` instructions per [`Seed::run`] call
    /// chain; exceeding it traps.
    pub fn with_fuel(mut self, fuel: u64) -> Seed {
        self.fuel = Some(fuel);
        self
    }

    /// Execution counters (`dispatches` stays 0).
    pub fn stats(&self) -> &InterpStats {
        &self.stats
    }

    /// Runs `method` with `args`.
    ///
    /// # Errors
    ///
    /// Identical to [`Interpreter::run`].
    pub fn run(&self, method: &str, args: Vec<Value>) -> Result<Value> {
        let mut budget = self.fuel;
        self.run_method(method, args, 0, &mut budget, &mut ())
    }

    /// Like [`Seed::run`], reporting every wire instruction to `trace`.
    fn run_traced(&self, method: &str, args: Vec<Value>, trace: &mut WireTrace) -> Result<Value> {
        let mut budget = self.fuel;
        self.run_method(method, args, 0, &mut budget, trace)
    }

    fn run_method<T: SeedTrace>(
        &self,
        method: &str,
        args: Vec<Value>,
        depth: usize,
        budget: &mut Option<u64>,
        trace: &mut T,
    ) -> Result<Value> {
        if depth >= MAX_CALL_DEPTH {
            return Err(VmError::trap(format!(
                "call depth exceeds {MAX_CALL_DEPTH}"
            )));
        }
        let (index, m) = self
            .image
            .methods
            .iter()
            .enumerate()
            .find(|(_, m)| m.name == method)
            .ok_or_else(|| VmError::trap(format!("no such method: {method}")))?;
        if args.len() != usize::from(m.params) {
            return Err(VmError::trap(format!(
                "method {method} takes {} args, got {}",
                m.params,
                args.len()
            )));
        }
        let mut locals = vec![Value::Null; usize::from(m.locals)];
        locals[..args.len()].clone_from_slice(&args);
        let mut stack: Vec<Value> = Vec::with_capacity(8);
        let mut pc: usize = 0;
        loop {
            trace.charging(index, pc);
            let count = self.stats.instructions.fetch_add(1, Ordering::Relaxed) + 1;
            if count.is_multiple_of(INTERRUPT_CHECK_EVERY) {
                check_interrupt()?;
            }
            if let Some(fuel) = budget {
                if *fuel == 0 {
                    return Err(VmError::trap("fuel exhausted"));
                }
                *fuel -= 1;
            }
            trace.running(index, pc);
            // The verifier guarantees pc validity and stack discipline; the
            // underflow traps below are unreachable for verified images.
            let insn = &m.code[pc];
            pc += 1;
            match insn {
                Insn::PushInt(v) => stack.push(Value::Int(*v)),
                Insn::PushStr(s) => stack.push(Value::str(s)),
                Insn::PushBool(b) => stack.push(Value::Bool(*b)),
                Insn::PushNull => stack.push(Value::Null),
                Insn::Load(slot) => stack.push(locals[usize::from(*slot)].clone()),
                Insn::Store(slot) => {
                    locals[usize::from(*slot)] = pop(&mut stack)?;
                }
                Insn::Pop => {
                    pop(&mut stack)?;
                }
                Insn::Dup => {
                    let top = stack
                        .last()
                        .cloned()
                        .ok_or_else(|| VmError::trap("dup on empty stack"))?;
                    stack.push(top);
                }
                Insn::Swap => {
                    let a = pop(&mut stack)?;
                    let b = pop(&mut stack)?;
                    stack.push(a);
                    stack.push(b);
                }
                Insn::Add => binary_int(&mut stack, |a, b| a.wrapping_add(b))?,
                Insn::Sub => binary_int(&mut stack, |a, b| a.wrapping_sub(b))?,
                Insn::Mul => binary_int(&mut stack, |a, b| a.wrapping_mul(b))?,
                Insn::Div => checked_div(&mut stack, false)?,
                Insn::Rem => checked_div(&mut stack, true)?,
                Insn::Neg => {
                    let v = pop_int(&mut stack)?;
                    stack.push(Value::Int(v.wrapping_neg()));
                }
                Insn::Concat => {
                    let b = pop(&mut stack)?;
                    let a = pop(&mut stack)?;
                    stack.push(Value::concat(&a, &b));
                }
                Insn::Eq => binary_cmp(&mut stack, |a, b| a == b)?,
                Insn::Ne => binary_cmp(&mut stack, |a, b| a != b)?,
                Insn::Lt => binary_int_cmp(&mut stack, |a, b| a < b)?,
                Insn::Le => binary_int_cmp(&mut stack, |a, b| a <= b)?,
                Insn::Gt => binary_int_cmp(&mut stack, |a, b| a > b)?,
                Insn::Ge => binary_int_cmp(&mut stack, |a, b| a >= b)?,
                Insn::And => binary_bool(&mut stack, |a, b| a && b)?,
                Insn::Or => binary_bool(&mut stack, |a, b| a || b)?,
                Insn::Not => {
                    let v = pop(&mut stack)?;
                    stack.push(Value::Bool(!v.is_truthy()));
                }
                Insn::Jump(t) => pc = usize::from(*t),
                Insn::JumpIfFalse(t) => {
                    if !pop(&mut stack)?.is_truthy() {
                        pc = usize::from(*t);
                    }
                }
                Insn::JumpIfTrue(t) => {
                    if pop(&mut stack)?.is_truthy() {
                        pc = usize::from(*t);
                    }
                }
                Insn::Call {
                    method: callee,
                    argc,
                } => {
                    self.stats.method_calls.fetch_add(1, Ordering::Relaxed);
                    let mut call_args = split_args(&mut stack, *argc)?;
                    call_args.reverse();
                    let result = self.run_method(callee, call_args, depth + 1, budget, trace)?;
                    stack.push(result);
                }
                Insn::CallNative { name, argc } => {
                    self.stats.native_calls.fetch_add(1, Ordering::Relaxed);
                    let mut call_args = split_args(&mut stack, *argc)?;
                    call_args.reverse();
                    let result = self.host.invoke(name, call_args)?;
                    stack.push(result);
                }
                Insn::Return => return Ok(Value::Null),
                Insn::ReturnValue => return pop(&mut stack),
            }
        }
    }
}

/// What the seed loop reports about each wire instruction; `()` reports
/// nothing and compiles away.
trait SeedTrace {
    /// Wire instruction `pc` of method `method` is about to be charged.
    fn charging(&mut self, method: usize, pc: usize);
    /// It passed its safepoint and fuel checks and runs.
    fn running(&mut self, method: usize, pc: usize);
}

impl SeedTrace for () {
    #[inline(always)]
    fn charging(&mut self, _: usize, _: usize) {}
    #[inline(always)]
    fn running(&mut self, _: usize, _: usize) {}
}

/// Per wire instruction run counts, and the last one charged.
#[derive(Default)]
struct WireTrace {
    runs: Vec<Vec<u64>>,
    last: (usize, usize),
}

impl SeedTrace for WireTrace {
    fn charging(&mut self, method: usize, pc: usize) {
        self.last = (method, pc);
    }

    fn running(&mut self, method: usize, pc: usize) {
        self.runs[method][pc] += 1;
    }
}

/// The reference per-opcode counts for `case`: each compiled op runs as
/// often as the seed ran the wire instruction it starts with, less the one
/// run that stopped inside it for fuel or an interrupt (the compiled loop
/// charges an op's components before running it, so that op never runs
/// there; a trap inside a fused op still counts it, as the seed ran its
/// first component). Keyed by opcode name, zero counts omitted.
fn reference_opcode_counts(case: &DiffCase) -> Vec<(String, u64)> {
    let image = Arc::new(case.image.clone());
    let seed = Seed::new(Arc::clone(&image), Arc::new(NoNatives)).expect("corpus images verify");
    let seed = match case.fuel {
        Some(f) => seed.with_fuel(f),
        None => seed,
    };
    let mut trace = WireTrace {
        runs: image
            .methods
            .iter()
            .map(|m| vec![0; m.code.len()])
            .collect(),
        last: (0, 0),
    };
    let outcome = seed.run_traced(&case.method, case.args.clone(), &mut trace);
    let stopped_mid_op = match &outcome {
        Err(VmError::Interrupted) => true,
        Err(err) => err.to_string().contains("fuel exhausted"),
        Ok(_) => false,
    };
    let compiled = CompiledImage::compile(image).expect("corpus images verify");
    let mut counts = vec![0u64; OPCODE_NAMES.len()];
    for (mi, method) in compiled.methods().iter().enumerate() {
        let mut wire = 0;
        for o in &method.code {
            let mut runs = trace.runs[mi][wire];
            let (last_method, last_pc) = trace.last;
            if stopped_mid_op
                && last_method == mi
                && (wire + 1..wire + usize::from(o.cost)).contains(&last_pc)
            {
                runs -= 1;
            }
            counts[usize::from(o.code)] += runs;
            wire += usize::from(o.cost);
        }
    }
    opcode_counts(
        counts
            .into_iter()
            .enumerate()
            .map(|(code, n)| (OPCODE_NAMES[code], n)),
    )
}

/// A profiler's VM-wide per-opcode counts, keyed by opcode name, zero
/// counts omitted.
fn profiled_opcode_counts(profiler: &Profiler) -> Vec<(String, u64)> {
    let report = profiler.report();
    opcode_counts(
        report
            .vm
            .opcodes
            .iter()
            .map(|o| (o.opcode.as_str(), o.count)),
    )
}

fn opcode_counts<'a>(counts: impl Iterator<Item = (&'a str, u64)>) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = counts
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| (name.to_string(), n))
        .collect();
    counts.sort();
    counts
}

/// A profiler for accounting only: the corpus checks counts, not stacks.
fn accounting_profiler() -> Profiler {
    let profiler = Profiler::new();
    profiler.set_sampling(false);
    profiler
}

fn pop(stack: &mut Vec<Value>) -> Result<Value> {
    stack
        .pop()
        .ok_or_else(|| VmError::trap("operand stack underflow"))
}

fn pop_int(stack: &mut Vec<Value>) -> Result<i64> {
    match pop(stack)? {
        Value::Int(v) => Ok(v),
        other => Err(expected_int(&other)),
    }
}

fn binary_int(stack: &mut Vec<Value>, f: impl Fn(i64, i64) -> i64) -> Result<()> {
    let b = pop_int(stack)?;
    let a = pop_int(stack)?;
    stack.push(Value::Int(f(a, b)));
    Ok(())
}

fn checked_div(stack: &mut Vec<Value>, rem: bool) -> Result<()> {
    let b = pop_int(stack)?;
    let a = pop_int(stack)?;
    if b == 0 {
        return Err(VmError::trap("division by zero"));
    }
    stack.push(Value::Int(if rem {
        a.wrapping_rem(b)
    } else {
        a.wrapping_div(b)
    }));
    Ok(())
}

fn binary_int_cmp(stack: &mut Vec<Value>, f: impl Fn(i64, i64) -> bool) -> Result<()> {
    let b = pop_int(stack)?;
    let a = pop_int(stack)?;
    stack.push(Value::Bool(f(a, b)));
    Ok(())
}

fn binary_cmp(stack: &mut Vec<Value>, f: impl Fn(&Value, &Value) -> bool) -> Result<()> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    stack.push(Value::Bool(f(&a, &b)));
    Ok(())
}

fn binary_bool(stack: &mut Vec<Value>, f: impl Fn(bool, bool) -> bool) -> Result<()> {
    let b = pop(stack)?.is_truthy();
    let a = pop(stack)?.is_truthy();
    stack.push(Value::Bool(f(a, b)));
    Ok(())
}

fn split_args(stack: &mut Vec<Value>, argc: u8) -> Result<Vec<Value>> {
    let mut args = Vec::with_capacity(usize::from(argc));
    for _ in 0..argc {
        args.push(pop(stack)?);
    }
    Ok(args)
}

/// One differential case: a program plus the entry call to make.
pub struct DiffCase {
    /// Case label, used in divergence reports.
    pub name: String,
    /// The image both engines execute.
    pub image: ClassImage,
    /// Entry method name.
    pub method: String,
    /// Entry arguments.
    pub args: Vec<Value>,
    /// Optional fuel bound applied to both engines.
    pub fuel: Option<u64>,
}

/// One observable difference between the engines on a case.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The diverging case's name.
    pub case: String,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.case, self.detail)
    }
}

fn single(name: &str, code: Vec<Insn>, params: u8, locals: u8) -> ClassImage {
    ClassImage {
        name: name.into(),
        methods: vec![MethodImage {
            name: "main".into(),
            params,
            locals,
            code,
        }],
    }
}

fn case(name: &str, image: ClassImage, args: Vec<Value>) -> DiffCase {
    DiffCase {
        name: name.into(),
        image,
        method: "main".into(),
        args,
        fuel: None,
    }
}

/// The canonical counting loop: `sum = 1 + 2 + ... + n`. Its body fuses
/// into `lei_jf; add2_store; addi_store; jump`, making it the densest
/// superinstruction exercise in the corpus.
fn sum_loop(n: i64) -> Vec<Insn> {
    vec![
        Insn::PushInt(1),
        Insn::Store(0),
        Insn::PushInt(0),
        Insn::Store(1),
        Insn::Load(0), // 4: loop head
        Insn::PushInt(n),
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

fn fib_image() -> ClassImage {
    ClassImage {
        name: "Fib".into(),
        methods: vec![MethodImage {
            name: "main".into(),
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
                    method: "main".into(),
                    argc: 1,
                },
                Insn::Load(0),
                Insn::PushInt(2),
                Insn::Sub,
                Insn::Call {
                    method: "main".into(),
                    argc: 1,
                },
                Insn::Add,
                Insn::ReturnValue,
            ],
        }],
    }
}

/// Builds the full corpus. Deterministic: the same cases in the same order
/// every call.
#[allow(clippy::too_many_lines, clippy::vec_init_then_push)]
pub fn corpus() -> Vec<DiffCase> {
    let mut cases = Vec::new();

    cases.push(case(
        "arith_mix",
        single(
            "Arith",
            vec![
                Insn::PushInt(7),
                Insn::PushInt(3),
                Insn::Mul, // 21
                Insn::PushInt(5),
                Insn::Swap, // 5, 21
                Insn::Rem,  // 5 % 21 = 5
                Insn::Neg,  // -5
                Insn::Dup,
                Insn::Sub, // 0
                Insn::PushInt(9),
                Insn::Add, // 9
                Insn::PushInt(2),
                Insn::Div, // 4
                Insn::ReturnValue,
            ],
            0,
            0,
        ),
        vec![],
    ));

    cases.push(case(
        "sum_loop_500",
        single("Sum", sum_loop(500), 0, 2),
        vec![],
    ));

    cases.push(DiffCase {
        name: "fib_12".into(),
        image: fib_image(),
        method: "main".into(),
        args: vec![Value::Int(12)],
        fuel: None,
    });

    // String building: interning (repeated literal) + concat in a loop.
    cases.push(case(
        "string_build",
        single(
            "Str",
            vec![
                Insn::PushStr("".into()),
                Insn::Store(1),
                Insn::PushInt(0),
                Insn::Store(0),
                Insn::Load(0), // 4: loop head
                Insn::PushInt(20),
                Insn::Lt,
                Insn::JumpIfFalse(19),
                Insn::Load(1),
                Insn::PushStr("ab".into()),
                Insn::Concat,
                Insn::Load(0),
                Insn::Concat,
                Insn::Store(1),
                Insn::Load(0),
                Insn::PushInt(1),
                Insn::Add,
                Insn::Store(0),
                Insn::Jump(4),
                Insn::Load(1), // 19
                Insn::ReturnValue,
            ],
            0,
            2,
        ),
        vec![],
    ));

    // Truthiness, mixed-type eq/ne, and jump_if_true.
    cases.push(case(
        "bools_and_eq",
        single(
            "Bools",
            vec![
                Insn::PushStr("x".into()),
                Insn::PushInt(1),
                Insn::Eq, // false: kinds differ
                Insn::JumpIfTrue(8),
                Insn::PushNull,
                Insn::PushBool(false),
                Insn::Ne, // true
                Insn::ReturnValue,
                Insn::PushInt(99), // 8: only reached if Eq were true
                Insn::ReturnValue,
            ],
            0,
            0,
        ),
        vec![],
    ));

    // Trap: division and remainder by zero (unfused ops).
    for (name, op) in [("div_by_zero", Insn::Div), ("rem_by_zero", Insn::Rem)] {
        cases.push(case(
            name,
            single(
                "Div0",
                vec![Insn::PushInt(1), Insn::PushInt(0), op, Insn::ReturnValue],
                0,
                0,
            ),
            vec![],
        ));
    }

    // Trap: type mismatch on an unfused Add (operand order in the message).
    cases.push(case(
        "type_mismatch_unfused",
        single(
            "TypeU",
            vec![
                Insn::PushStr("s".into()),
                Insn::PushInt(1),
                Insn::Add,
                Insn::ReturnValue,
            ],
            0,
            0,
        ),
        vec![],
    ));

    // Traps *inside* fused superinstructions: the engine must report the
    // same message and have charged the same instruction count as the seed
    // loop trapping mid-pattern. A string argument poisons local 0.
    let poison = vec![Value::str("poison")];
    cases.push(case(
        "fused_addi_store_mismatch",
        single(
            "FA",
            vec![
                Insn::Load(0),
                Insn::PushInt(1),
                Insn::Add,
                Insn::Store(0),
                Insn::Return,
            ],
            1,
            1,
        ),
        poison.clone(),
    ));
    cases.push(case(
        "fused_lti_jf_mismatch",
        single(
            "FL",
            vec![
                Insn::Load(0),
                Insn::PushInt(10),
                Insn::Lt,
                Insn::JumpIfFalse(5),
                Insn::Return,
                Insn::Return, // 5
            ],
            1,
            1,
        ),
        poison.clone(),
    ));
    cases.push(case(
        "fused_add2_store_mismatch",
        single(
            "F2",
            vec![
                Insn::Load(0),
                Insn::Load(1),
                Insn::Add,
                Insn::Store(1),
                Insn::Return,
            ],
            1,
            2,
        ),
        poison.clone(),
    ));
    cases.push(case(
        "fused_load2_mul_mismatch",
        single(
            "FM",
            vec![Insn::Load(1), Insn::Load(0), Insn::Mul, Insn::ReturnValue],
            1,
            2,
        ),
        poison.clone(),
    ));
    cases.push(case(
        "fused_lt_jf_pair_mismatch",
        single(
            "FP",
            vec![
                Insn::PushInt(1),
                Insn::Load(0),
                Insn::Lt,
                Insn::JumpIfFalse(5),
                Insn::Return,
                Insn::Return, // 5
            ],
            1,
            1,
        ),
        poison.clone(),
    ));
    // The loop-tail quint: poison traps at the Sub (3rd component); the
    // Store and the fused back edge must never be charged.
    cases.push(case(
        "fused_subi_store_jump_mismatch",
        single(
            "FJ",
            vec![
                Insn::Load(0),
                Insn::PushInt(1),
                Insn::Sub,
                Insn::Store(0),
                Insn::Jump(0),
                Insn::Return, // 5: unreachable
            ],
            1,
            1,
        ),
        poison.clone(),
    ));
    // eqi_jf / nei_jf never trap on type mismatch — they must *branch*
    // identically when the local is not an int.
    cases.push(case(
        "fused_eqi_jf_non_int",
        single(
            "FE",
            vec![
                Insn::Load(0),
                Insn::PushInt(7),
                Insn::Eq,
                Insn::JumpIfFalse(6),
                Insn::PushInt(1),
                Insn::ReturnValue,
                Insn::PushInt(2), // 6
                Insn::ReturnValue,
            ],
            1,
            1,
        ),
        poison,
    ));

    // Trap: call depth (infinite self-recursion).
    cases.push(case(
        "call_depth_overflow",
        single(
            "Deep",
            vec![
                Insn::Call {
                    method: "main".into(),
                    argc: 0,
                },
                Insn::ReturnValue,
            ],
            0,
            0,
        ),
        vec![],
    ));

    // Depth exactly at the limit minus one: must *succeed* on both.
    cases.push(DiffCase {
        name: "call_depth_at_limit".into(),
        image: ClassImage {
            name: "Depth".into(),
            methods: vec![MethodImage {
                name: "main".into(),
                params: 1,
                locals: 1,
                code: vec![
                    Insn::Load(0),
                    Insn::PushInt(0),
                    Insn::Le,
                    Insn::JumpIfFalse(6),
                    Insn::Load(0),
                    Insn::ReturnValue,
                    Insn::Load(0), // 6
                    Insn::PushInt(1),
                    Insn::Sub,
                    Insn::Call {
                        method: "main".into(),
                        argc: 1,
                    },
                    Insn::ReturnValue,
                ],
            }],
        },
        method: "main".into(),
        args: vec![Value::Int(62)],
        fuel: None,
    });

    // Natives: the pure stdlib through NoNatives, and an unknown one.
    cases.push(case(
        "stdlib_natives",
        single(
            "Std",
            vec![
                Insn::PushStr(" Mixed Case ".into()),
                Insn::CallNative {
                    name: "trim".into(),
                    argc: 1,
                },
                Insn::CallNative {
                    name: "to_upper".into(),
                    argc: 1,
                },
                Insn::CallNative {
                    name: "str_len".into(),
                    argc: 1,
                },
                Insn::PushStr("42".into()),
                Insn::CallNative {
                    name: "parse_int".into(),
                    argc: 1,
                },
                Insn::CallNative {
                    name: "min".into(),
                    argc: 2,
                },
                Insn::ReturnValue,
            ],
            0,
            0,
        ),
        vec![],
    ));
    cases.push(case(
        "unknown_native",
        single(
            "NoNat",
            vec![
                Insn::CallNative {
                    name: "launch_missiles".into(),
                    argc: 0,
                },
                Insn::ReturnValue,
            ],
            0,
            0,
        ),
        vec![],
    ));

    // Entry errors: unknown method and arity mismatch.
    cases.push(DiffCase {
        name: "entry_unknown_method".into(),
        image: single("E1", vec![Insn::Return], 0, 0),
        method: "absent".into(),
        args: vec![],
        fuel: None,
    });
    cases.push(DiffCase {
        name: "entry_arity_mismatch".into(),
        image: single("E2", vec![Insn::Return], 2, 2),
        method: "main".into(),
        args: vec![Value::Int(1)],
        fuel: None,
    });

    // Fuel sweep over the fused loop: exhaustion must hit the same wire
    // instruction on both engines, including exactly at and around the
    // 1024-instruction safepoint boundary and mid-superinstruction.
    for fuel in [
        0u64, 1, 2, 3, 5, 7, 11, 13, 50, 100, 1023, 1024, 1025, 2048, 4000,
    ] {
        cases.push(DiffCase {
            name: format!("fuel_{fuel}_sum_loop"),
            image: single("Fuel", sum_loop(500), 0, 2),
            method: "main".into(),
            args: vec![],
            fuel: Some(fuel),
        });
    }
    // Fine sweep across one loop iteration's worth of instructions, so every
    // component position inside every fused op gets hit at least once.
    for fuel in 30..60u64 {
        cases.push(DiffCase {
            name: format!("fuel_{fuel}_fine"),
            image: single("Fuel", sum_loop(500), 0, 2),
            method: "main".into(),
            args: vec![],
            fuel: Some(fuel),
        });
    }
    // Fuel through recursion: charging must agree across call frames.
    for fuel in [64u64, 200, 500] {
        cases.push(DiffCase {
            name: format!("fuel_{fuel}_fib"),
            image: fib_image(),
            method: "main".into(),
            args: vec![Value::Int(10)],
            fuel: Some(fuel),
        });
    }

    cases
}

fn outcome_label(result: &crate::Result<Value>) -> String {
    match result {
        Ok(v) => format!("ok: {v:?}"),
        Err(VmError::Interrupted) => "interrupted".to_string(),
        Err(e) => format!("err: {e}"),
    }
}

/// The engine-independent counters on which two runs differ, one line each.
fn counter_diffs((a, x): (&str, &InterpStats), (b, y): (&str, &InterpStats)) -> Vec<String> {
    [
        ("instructions", x.instructions(), y.instructions()),
        ("method_calls", x.method_calls(), y.method_calls()),
        ("native_calls", x.native_calls(), y.native_calls()),
    ]
    .into_iter()
    .filter(|(_, p, q)| p != q)
    .map(|(what, p, q)| format!("{what}: {a} {p} vs {b} {q}"))
    .collect()
}

/// A fresh fast-loop interpreter for `case`, with its fuel bound, billing
/// opcode counts to `profiler`.
fn interpreter(case: &DiffCase, profiler: &Profiler) -> Interpreter {
    let i = Interpreter::new(Arc::new(case.image.clone()), Arc::new(NoNatives))
        .expect("corpus images verify")
        .with_profiler(profiler.clone());
    match case.fuel {
        Some(f) => i.with_fuel(f),
        None => i,
    }
}

/// Runs one case on both engines (each fresh, so counters start equal) and
/// returns the divergences it produced.
pub fn run_case(case: &DiffCase) -> Vec<Divergence> {
    let profiler = accounting_profiler();
    let fast = interpreter(case, &profiler);
    let seed =
        Seed::new(Arc::new(case.image.clone()), Arc::new(NoNatives)).expect("corpus images verify");
    let seed = match case.fuel {
        Some(f) => seed.with_fuel(f),
        None => seed,
    };
    let fast_result = fast.run(&case.method, case.args.clone());
    let seed_result = seed.run(&case.method, case.args.clone());

    let mut divergences = Vec::new();
    let mut diverge = |detail: String| {
        divergences.push(Divergence {
            case: case.name.clone(),
            detail,
        });
    };

    let (fast_label, seed_label) = (outcome_label(&fast_result), outcome_label(&seed_result));
    if fast_label != seed_label {
        diverge(format!(
            "outcome: fast [{fast_label}] vs seed [{seed_label}]"
        ));
    }
    for detail in counter_diffs(("fast", fast.stats()), ("seed", seed.stats())) {
        diverge(detail);
    }
    if fast.stats().dispatches() > fast.stats().instructions() {
        diverge(format!(
            "dispatches {} exceed instructions {}",
            fast.stats().dispatches(),
            fast.stats().instructions()
        ));
    }
    let (counted, reference) = (
        profiled_opcode_counts(&profiler),
        reference_opcode_counts(case),
    );
    if counted != reference {
        diverge(format!(
            "opcode counts: blocks {counted:?} vs per-op reference {reference:?}"
        ));
    }
    divergences
}

/// Runs the whole corpus; returns `(cases_run, divergences)`.
pub fn run_all() -> (usize, Vec<Divergence>) {
    let cases = corpus();
    let mut divergences = Vec::new();
    for case in &cases {
        divergences.extend(run_case(case));
    }
    (cases.len(), divergences)
}

/// Runs one case twice — plain, and split into a checkpoint at cumulative
/// wire instruction `at` plus a restore on a *fresh* interpreter — and
/// returns any observable divergence: result value, trap message, or the
/// cumulative execution counters (`instructions`, `method_calls`,
/// `native_calls`), which the resume pre-seeds so a split run must land on
/// exactly the plain run's totals.
///
/// A checkpoint past the end of the run (or a case that errors before the
/// first safepoint-aligned op boundary) never fires; the split run then
/// degenerates to a plain run and is compared as such.
pub fn run_case_checkpointed(case: &DiffCase, at: u64) -> Vec<Divergence> {
    let plain_profiler = accounting_profiler();
    let plain = interpreter(case, &plain_profiler);
    let plain_result = plain.run(&case.method, case.args.clone());

    let split_profiler = accounting_profiler();
    let first = interpreter(case, &split_profiler).with_checkpoint_at(at);
    let first_result = first.run(&case.method, case.args.clone());
    // The interpreter whose outcome and counters stand for the split run:
    // the restoring one if the park fired, the first one otherwise.
    let (split_result, split_stats_of) = match first_result {
        Err(VmError::Checkpointed) => {
            let snap = first
                .take_snapshot()
                .expect("a checkpointed run deposits its continuation");
            // Restore on a fresh interpreter, as a migration would; fuel
            // and cumulative counters travel inside the snapshot.
            let second = Interpreter::new(Arc::new(case.image.clone()), Arc::new(NoNatives))
                .expect("corpus images verify")
                .with_profiler(split_profiler.clone());
            let result = second.resume(&snap);
            (result, second)
        }
        other => (other, first),
    };

    let mut divergences = Vec::new();
    let mut diverge = |detail: String| {
        divergences.push(Divergence {
            case: format!("{}@ckpt{at}", case.name),
            detail,
        });
    };
    let (plain_label, split_label) = (outcome_label(&plain_result), outcome_label(&split_result));
    if plain_label != split_label {
        diverge(format!(
            "outcome: plain [{plain_label}] vs split [{split_label}]"
        ));
    }
    for detail in counter_diffs(("plain", plain.stats()), ("split", split_stats_of.stats())) {
        diverge(detail);
    }
    let (plain_counts, split_counts) = (
        profiled_opcode_counts(&plain_profiler),
        profiled_opcode_counts(&split_profiler),
    );
    if plain_counts != split_counts {
        diverge(format!(
            "opcode counts: plain {plain_counts:?} vs split {split_counts:?}"
        ));
    }
    divergences
}

/// Runs the whole corpus through [`run_case_checkpointed`] at every split
/// point in `ats`; returns `(comparisons_run, divergences)`.
pub fn run_all_checkpointed(ats: &[u64]) -> (usize, Vec<Divergence>) {
    let cases = corpus();
    let mut divergences = Vec::new();
    let mut comparisons = 0;
    for case in &cases {
        for &at in ats {
            comparisons += 1;
            divergences.extend(run_case_checkpointed(case, at));
        }
    }
    (comparisons, divergences)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_zero_divergence() {
        let (cases, divergences) = run_all();
        assert!(cases >= 40, "corpus stays substantial: {cases} cases");
        assert!(
            divergences.is_empty(),
            "engines diverged:\n{}",
            divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn corpus_covers_every_superinstruction_trap_family() {
        let names: Vec<String> = corpus().into_iter().map(|c| c.name).collect();
        for required in [
            "fused_addi_store_mismatch",
            "fused_lti_jf_mismatch",
            "fused_add2_store_mismatch",
            "fused_load2_mul_mismatch",
            "fused_lt_jf_pair_mismatch",
            "fused_subi_store_jump_mismatch",
            "fused_eqi_jf_non_int",
            "call_depth_overflow",
            "div_by_zero",
            "fuel_1024_sum_loop",
        ] {
            assert!(
                names.iter().any(|n| n == required),
                "corpus lost case {required}"
            );
        }
    }

    #[test]
    fn checkpoint_restore_matches_plain_across_the_corpus() {
        // Split points cover: before the first op, early, mid-loop, both
        // sides of the 1024-instruction safepoint boundary, and past the
        // end of most cases (where the park never fires and the split run
        // degenerates to a plain one).
        let ats = [0u64, 1, 7, 33, 100, 1023, 1024, 1025, 5000];
        let (comparisons, divergences) = run_all_checkpointed(&ats);
        assert!(
            comparisons >= 400,
            "the sweep stays substantial: {comparisons} comparisons"
        );
        assert!(
            divergences.is_empty(),
            "checkpoint/restore diverged from plain runs:\n{}",
            divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn a_mid_loop_checkpoint_actually_fires_and_parks() {
        // Guard against the sweep silently degenerating: at split 100 the
        // canonical sum loop must really park, deposit a continuation, and
        // resume to the exact plain result.
        let case = corpus()
            .into_iter()
            .find(|c| c.name == "sum_loop_500")
            .unwrap();
        let interp = Interpreter::new(Arc::new(case.image.clone()), Arc::new(NoNatives))
            .unwrap()
            .with_checkpoint_at(100);
        let result = interp.run(&case.method, case.args.clone());
        assert!(matches!(result, Err(VmError::Checkpointed)));
        let snap = interp.take_snapshot().expect("continuation deposited");
        // The park lands at the op boundary just before the split point
        // (the op that would cross it stays uncharged), so the snapshot
        // sits within one fused op's width below 100.
        assert!(
            snap.instructions >= 90 && snap.instructions <= 100,
            "parked mid-run at {}",
            snap.instructions
        );
        let second = Interpreter::new(Arc::new(case.image.clone()), Arc::new(NoNatives)).unwrap();
        assert_eq!(second.resume(&snap).unwrap(), Value::Int(125_250));
    }

    #[test]
    fn fuel_sweep_traps_at_identical_points() {
        // Spot-check one boundary case end to end: fuel 1024 must trap
        // with "fuel exhausted" on both engines at instruction 1025
        // (1024 charged + the one that found the tank empty).
        let case = corpus()
            .into_iter()
            .find(|c| c.name == "fuel_1024_sum_loop")
            .unwrap();
        assert!(run_case(&case).is_empty());
    }
}
