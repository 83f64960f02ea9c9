//! The `jbc` pre-decoder: compiles a verified [`ClassImage`] into the flat
//! form the fast dispatch loop executes.
//!
//! Compilation happens once, at class-define time, and does four things the
//! seed `match`-loop paid for on every executed instruction:
//!
//! * **String interning** — every `PushStr` literal becomes one `Arc<str>`
//!   in a per-image constant pool; execution clones the `Arc` instead of
//!   re-allocating `Arc::from(&str)` each time.
//! * **Reference resolution** — jump targets are rewritten from wire
//!   instruction indices to compiled-op indices, and `Call` sites from
//!   string-keyed `image.method(name)` scans to method indices. Each
//!   `CallNative` site gets its own [`NativeSiteCache`] inline cache wired
//!   to the decision cache.
//! * **Superinstruction fusion** — common adjacent pairs/triples/quads/
//!   quints (`Load+Load+<intop>`, `<cmp>+JumpIfFalse`, `Load+PushInt+Add`,
//!   `Load+Store`, their `...+Store` / `...+JumpIfFalse` extensions, and
//!   the `Load+PushInt+Add/Sub+Store+Jump` loop tail)
//!   fuse into one [`Op`], cutting dispatches per loop iteration by ~4x.
//!   Fusion never crosses a jump-target boundary: an op only swallows
//!   successors no branch can land on, so control flow is preserved
//!   exactly.
//! * **Frame sizing** — each method records `locals + max_stack` (from the
//!   verifier's abstract interpretation), so the interpreter can run every
//!   frame inside one contiguous reusable arena with no per-push bounds
//!   growth.
//! * **Basic blocks** — a block starts at a method entry, at a jump target,
//!   or after any branch, call or return, and runs to the next branch,
//!   call or return. Each method keeps its blocks with their static
//!   histograms of compiled op codes, and each branch op carries the id of
//!   a counter for its taken edge (method entries have counters too). The
//!   interpreter's opcode accounting adds one to a counter per taken jump
//!   and per call, and a flush derives every block's entries from them —
//!   an entry by falling in (a branch not taken, a return to the op after
//!   the call) is the previous block's executions less its taken exits —
//!   and expands the entries through the histograms into exact per-opcode
//!   counts. A jump target reached by falling through from a plain op lies
//!   inside the block before it: that block's entries already count the
//!   ops they share, and the target's own block counts only the entries
//!   that jump there.
//!
//! The compiled form is a cache of the wire image: semantics (including
//! trap messages, instruction accounting, fuel, and safepoint cadence) are
//! defined by the seed loop and checked against it by the differential
//! corpus in [`super::difftest`].

use std::collections::HashMap;
use std::sync::Arc;

use super::image::{ClassImage, Insn};
use super::verify::verify_facts;
use crate::decision_cache::NativeSiteCache;
use crate::error::VmError;
use crate::Result;

/// Compiled opcode bytes. `0..BASE_OPCODE_COUNT` mirror [`Insn::opcode`]
/// exactly; the rest are superinstructions, in `OPCODE_NAMES` order.
pub(crate) mod op {
    pub const PUSH_INT: u8 = 0;
    pub const PUSH_STR: u8 = 1;
    pub const PUSH_BOOL: u8 = 2;
    pub const PUSH_NULL: u8 = 3;
    pub const LOAD: u8 = 4;
    pub const STORE: u8 = 5;
    pub const POP: u8 = 6;
    pub const DUP: u8 = 7;
    pub const SWAP: u8 = 8;
    pub const ADD: u8 = 9;
    pub const SUB: u8 = 10;
    pub const MUL: u8 = 11;
    pub const DIV: u8 = 12;
    pub const REM: u8 = 13;
    pub const NEG: u8 = 14;
    pub const CONCAT: u8 = 15;
    pub const EQ: u8 = 16;
    pub const NE: u8 = 17;
    pub const LT: u8 = 18;
    pub const LE: u8 = 19;
    pub const GT: u8 = 20;
    pub const GE: u8 = 21;
    pub const AND: u8 = 22;
    pub const OR: u8 = 23;
    pub const NOT: u8 = 24;
    pub const JUMP: u8 = 25;
    pub const JUMP_IF_FALSE: u8 = 26;
    pub const JUMP_IF_TRUE: u8 = 27;
    pub const CALL: u8 = 28;
    pub const CALL_NATIVE: u8 = 29;
    pub const RETURN: u8 = 30;
    pub const RETURN_VALUE: u8 = 31;
    // Superinstructions. Operand conventions: `a`/`b` are local slots,
    // `k` an integer constant, `t` a branch target, third slot, or index.
    pub const LOAD2_ADD: u8 = 32; // push locals[a] + locals[b]
    pub const LOAD2_SUB: u8 = 33;
    pub const LOAD2_MUL: u8 = 34;
    pub const LT_JF: u8 = 35; // pop b, pop a; if !(a < b) jump t
    pub const LE_JF: u8 = 36;
    pub const GT_JF: u8 = 37;
    pub const GE_JF: u8 = 38;
    pub const EQ_JF: u8 = 39;
    pub const NE_JF: u8 = 40;
    pub const LOAD_ADDI: u8 = 41; // push locals[a] + k
    pub const LOAD_SUBI: u8 = 42;
    pub const LOAD_STORE: u8 = 43; // locals[b] = locals[a]
    pub const ADDI_STORE: u8 = 44; // locals[b] = locals[a] + k
    pub const SUBI_STORE: u8 = 45;
    pub const ADD2_STORE: u8 = 46; // locals[t] = locals[a] + locals[b]
    pub const LTI_JF: u8 = 47; // if !(locals[a] < k) jump t
    pub const LEI_JF: u8 = 48;
    pub const GTI_JF: u8 = 49;
    pub const GEI_JF: u8 = 50;
    pub const EQI_JF: u8 = 51;
    pub const NEI_JF: u8 = 52;
    pub const ADDI_STORE_JUMP: u8 = 53; // locals[b] = locals[a] + k; jump t
    pub const SUBI_STORE_JUMP: u8 = 54;
}

/// One pre-decoded instruction: a fixed 16-byte cell the dispatch loop
/// reads with one load and no pointer chasing.
///
/// Field use varies by opcode: `a`/`b` hold local slots or an argc, `t` a
/// resolved branch target / method index / pool index / native-site index /
/// third local slot, `k` an integer constant. `cost` is how many wire
/// instructions this op stands for — the unit in which fuel, instruction
/// accounting, and the 1024-instruction safepoint cadence are charged, so
/// fusion is invisible to all three. `ctr` is, on a branch op, the
/// image-wide id of the counter its taken edge adds to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub code: u8,
    pub a: u8,
    pub b: u8,
    pub cost: u8,
    pub t: u16,
    pub ctr: u16,
    pub k: i64,
}

impl Op {
    fn plain(code: u8) -> Op {
        Op {
            code,
            a: 0,
            b: 0,
            cost: 1,
            t: 0,
            ctr: 0,
            k: 0,
        }
    }
}

/// `true` for ops whose `t` is a branch target (needing pc remapping).
fn is_branch(code: u8) -> bool {
    matches!(code, op::JUMP | op::JUMP_IF_FALSE | op::JUMP_IF_TRUE)
        || (op::LT_JF..=op::NE_JF).contains(&code)
        || (op::LTI_JF..=op::NEI_JF).contains(&code)
        || matches!(code, op::ADDI_STORE_JUMP | op::SUBI_STORE_JUMP)
}

/// `true` for ops that end a basic block: branches, calls and returns.
pub(crate) fn ends_block(code: u8) -> bool {
    is_branch(code)
        || matches!(
            code,
            op::CALL | op::CALL_NATIVE | op::RETURN | op::RETURN_VALUE
        )
}

/// `true` for branch ops that may fall through: the conditional ones.
pub(crate) fn is_conditional(code: u8) -> bool {
    is_branch(code) && !never_falls_through(code)
}

/// `true` for ops after which control never falls through to the next op:
/// unconditional jumps and returns.
pub(crate) fn never_falls_through(code: u8) -> bool {
    matches!(
        code,
        op::JUMP | op::ADDI_STORE_JUMP | op::SUBI_STORE_JUMP | op::RETURN | op::RETURN_VALUE
    )
}

/// The index of the op that ends the block containing op `at`: the first
/// branch, call or return at or after it.
pub(crate) fn block_end(code: &[Op], at: usize) -> usize {
    code[at..]
        .iter()
        .position(|o| ends_block(o.code))
        .map_or(code.len() - 1, |n| at + n)
}

/// One compiled method: flat ops plus the frame geometry the arena
/// interpreter needs.
#[derive(Debug)]
pub(crate) struct CompiledMethod {
    /// `"Class.method"`, precomputed so publishing a profloc frame costs an
    /// `Arc` clone instead of a `format!` per call.
    pub qualified: Arc<str>,
    /// Declared parameter count.
    pub params: u8,
    /// Declared local-slot count.
    pub locals: u16,
    /// `locals + max_stack` (the verifier's proven operand-stack bound):
    /// the arena cells one frame of this method needs.
    pub frame_size: u32,
    /// The pre-decoded code.
    pub code: Vec<Op>,
    /// The verifier's operand-stack depth on entry to each op, `None` where
    /// no path reaches: what a snapshot's `sp` is validated against.
    pub entry_depth: Vec<Option<u16>>,
    /// The basic blocks, in code order.
    pub blocks: Box<[Block]>,
    /// The blocks' static histograms, back to back: `(op code, count)`.
    pub histograms: Box<[(u8, u32)]>,
    /// Each branch op's taken edge, in code order: `(counter, index of the
    /// target's block)`.
    pub edges: Box<[(u16, u16)]>,
}

impl CompiledMethod {
    /// Block `block`'s static histogram: `(op code, count)` over its ops.
    pub(crate) fn histogram(&self, block: &Block) -> &[(u8, u32)] {
        &self.histograms[block.histogram.0 as usize..block.histogram.1 as usize]
    }
}

/// One basic block of a [`CompiledMethod`]: from its leader to the op that
/// ends it (a branch, call or return).
#[derive(Debug)]
pub(crate) struct Block {
    /// The op that ends the block.
    pub end: u16,
    /// `true` when the op before the leader ends a block (or the leader is
    /// the method's first op): control falls into this block from there.
    /// Blocks that do not fall in lie inside the block before them.
    pub falls_in: bool,
    /// The block's range in [`CompiledMethod::histograms`].
    pub histogram: (u32, u32),
}

/// A method's ops and their entry depths.
type Ops = (Vec<Op>, Vec<Option<u16>>);

/// A method's basic blocks, their histograms, and its branch ops' taken
/// edges.
type BlocksAndEdges = (Box<[Block]>, Box<[(u8, u32)]>, Box<[(u16, u16)]>);

/// One `CallNative` site: the resolved name plus the site's inline cache
/// into the permission decision cache.
#[derive(Debug)]
pub(crate) struct NativeSite {
    /// The native operation name.
    pub name: Arc<str>,
    /// The per-site monomorphic grant cache.
    pub cache: Arc<NativeSiteCache>,
}

/// A verified, pre-decoded class image — the unit the fast dispatch loop
/// executes and what [`ClassDef`](crate::classes::ClassDef) caches per
/// defined class.
///
/// Compiling implies verifying: a `CompiledImage` exists only for images
/// that passed the [`verify`](super::verify) checks, and the compiled form
/// preserves wire semantics exactly (checked by [`super::difftest`]).
pub struct CompiledImage {
    image: Arc<ClassImage>,
    methods: Vec<CompiledMethod>,
    by_name: HashMap<String, usize>,
    pool: Vec<Arc<str>>,
    sites: Vec<NativeSite>,
    /// Accounting counters: one per method entry (ids `0..methods`), then
    /// one per branch op's taken edge.
    counters: usize,
}

impl std::fmt::Debug for CompiledImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledImage")
            .field("class", &self.image.name)
            .field("methods", &self.methods.len())
            .field("pool", &self.pool.len())
            .field("sites", &self.sites.len())
            .field("counters", &self.counters)
            .finish()
    }
}

impl CompiledImage {
    /// Verifies and pre-decodes `image`.
    ///
    /// # Errors
    ///
    /// [`VmError::Verification`] if the image fails verification or exceeds
    /// compiled-form limits (methods, string constants, or native sites
    /// beyond `u16::MAX`).
    pub fn compile(image: Arc<ClassImage>) -> Result<CompiledImage> {
        let facts = verify_facts(&image)?;
        let limit = |what: &str| VmError::Verification {
            class: image.name.clone(),
            message: format!("too many {what} for the compiled form (max {})", u16::MAX),
        };
        if image.methods.len() > usize::from(u16::MAX) {
            return Err(limit("methods"));
        }
        let mut ctx = Cx {
            image: &image,
            pool: Vec::new(),
            pool_index: HashMap::new(),
            sites: Vec::new(),
        };
        let mut methods = Vec::with_capacity(image.methods.len());
        let mut by_name: HashMap<String, usize> = HashMap::new();
        let mut counters = image.methods.len();
        for (index, (m, fact)) in image.methods.iter().zip(&facts).enumerate() {
            let (mut code, entry_depth) = compile_code(&m.code, &fact.depth_at, &mut ctx)?;
            let (blocks, histograms, edges) = find_blocks(&mut code, &mut counters);
            let locals = u16::from(m.locals);
            methods.push(CompiledMethod {
                qualified: Arc::from(format!("{}.{}", image.name, m.name).as_str()),
                params: m.params,
                locals,
                frame_size: u32::from(locals) + fact.max_stack as u32,
                code,
                entry_depth,
                blocks,
                histograms,
                edges,
            });
            // First definition wins, matching `ClassImage::method`'s
            // first-match scan.
            by_name.entry(m.name.clone()).or_insert(index);
        }
        if ctx.pool.len() > usize::from(u16::MAX) {
            return Err(limit("string constants"));
        }
        if ctx.sites.len() > usize::from(u16::MAX) {
            return Err(limit("native call sites"));
        }
        if counters > usize::from(u16::MAX) + 1 {
            return Err(limit("branches"));
        }
        let (pool, sites) = (ctx.pool, ctx.sites);
        Ok(CompiledImage {
            image,
            methods,
            by_name,
            pool,
            sites,
            counters,
        })
    }

    /// The wire image this was compiled from.
    pub fn image(&self) -> &Arc<ClassImage> {
        &self.image
    }

    /// Approximate resident bytes of the pre-decoded form: ops, interned
    /// pool strings, native-site names, and method labels. Charged against
    /// the defining application's `Memory` quota (and released in bulk at
    /// reap), so hostile code cannot balloon the VM by defining classes.
    pub fn footprint_bytes(&self) -> u64 {
        let ops: usize = self
            .methods
            .iter()
            .map(|m| {
                m.code.len() * std::mem::size_of::<Op>()
                    + m.qualified.len()
                    + std::mem::size_of_val(&*m.blocks)
                    + std::mem::size_of_val(&*m.histograms)
                    + std::mem::size_of_val(&*m.edges)
            })
            .sum();
        let pool: usize = self.pool.iter().map(|s| s.len()).sum();
        let sites: usize = self.sites.iter().map(|s| s.name.len()).sum();
        (ops + pool + sites) as u64
    }

    pub(crate) fn methods(&self) -> &[CompiledMethod] {
        &self.methods
    }

    pub(crate) fn method_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    pub(crate) fn pool_str(&self, index: u16) -> &Arc<str> {
        &self.pool[usize::from(index)]
    }

    pub(crate) fn site(&self, index: u16) -> &NativeSite {
        &self.sites[usize::from(index)]
    }

    /// Accounting counters: method entries, then taken branch edges.
    pub(crate) fn counter_count(&self) -> usize {
        self.counters
    }

    #[cfg(test)]
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }
}

/// Shared per-image compile state: the string pool and native-site table.
struct Cx<'a> {
    image: &'a ClassImage,
    pool: Vec<Arc<str>>,
    pool_index: HashMap<String, u16>,
    sites: Vec<NativeSite>,
}

impl Cx<'_> {
    fn intern(&mut self, s: &str) -> u16 {
        if let Some(&idx) = self.pool_index.get(s) {
            return idx;
        }
        // Over-length pools are rejected after compilation; saturate here.
        let idx = self.pool.len().min(usize::from(u16::MAX)) as u16;
        self.pool.push(Arc::from(s));
        self.pool_index.insert(s.to_string(), idx);
        idx
    }

    fn site(&mut self, name: &str) -> u16 {
        let idx = self.sites.len().min(usize::from(u16::MAX)) as u16;
        self.sites.push(NativeSite {
            name: Arc::from(name),
            cache: Arc::new(NativeSiteCache::new()),
        });
        idx
    }

    fn method_index(&self, name: &str) -> u16 {
        // The verifier proved the callee exists; first match, like
        // `ClassImage::method`.
        self.image
            .methods
            .iter()
            .position(|m| m.name == name)
            .expect("verified call target exists") as u16
    }
}

/// For comparison opcodes, the distance from the base compare to its fused
/// `<cmp>+JumpIfFalse` / `Load+PushInt+<cmp>+JumpIfFalse` forms: the six
/// compares `Eq..Ge` occupy opcodes 16..=21 and both fused families keep
/// the same relative order (`lt,le,gt,ge,eq,ne` after reordering below).
fn cmp_jf_opcode(cmp: &Insn) -> Option<u8> {
    Some(match cmp {
        Insn::Lt => op::LT_JF,
        Insn::Le => op::LE_JF,
        Insn::Gt => op::GT_JF,
        Insn::Ge => op::GE_JF,
        Insn::Eq => op::EQ_JF,
        Insn::Ne => op::NE_JF,
        _ => return None,
    })
}

fn cmpi_jf_opcode(cmp: &Insn) -> Option<u8> {
    Some(match cmp {
        Insn::Lt => op::LTI_JF,
        Insn::Le => op::LEI_JF,
        Insn::Gt => op::GTI_JF,
        Insn::Ge => op::GEI_JF,
        Insn::Eq => op::EQI_JF,
        Insn::Ne => op::NEI_JF,
        _ => return None,
    })
}

/// Pre-decodes one method, returning its ops and each op's entry depth.
fn compile_code(code: &[Insn], depth_at: &[Option<u16>], ctx: &mut Cx<'_>) -> Result<Ops> {
    let len = code.len();
    // The fusion boundary rule: a fused op may only swallow wire pcs no
    // branch can land on. (The verifier already proved all targets are
    // in-bounds.)
    let mut is_target = vec![false; len];
    for insn in code {
        if let Insn::Jump(t) | Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t) = insn {
            is_target[usize::from(*t)] = true;
        }
    }

    let mut ops: Vec<Op> = Vec::with_capacity(len);
    let mut entry_depth = Vec::with_capacity(len);
    // Wire pc -> compiled index, for branch retargeting. Interior pcs of a
    // fused op map to the op itself; the boundary rule guarantees no branch
    // ever uses those entries.
    let mut pc_map = vec![0u16; len];
    let mut pc = 0;
    while pc < len {
        let here = ops.len() as u16;
        let (op, consumed) = fuse(code, pc, &is_target, ctx);
        for entry in &mut pc_map[pc..pc + consumed] {
            *entry = here;
        }
        ops.push(op);
        entry_depth.push(depth_at[pc]);
        pc += consumed;
    }
    if ops.len() > usize::from(u16::MAX) {
        return Err(VmError::Verification {
            class: ctx.image.name.clone(),
            message: format!("method too long for the compiled form (max {})", u16::MAX),
        });
    }
    // Second pass: retarget branches from wire pcs to compiled indices.
    for op in &mut ops {
        if is_branch(op.code) {
            op.t = pc_map[usize::from(op.t)];
        }
    }
    Ok((ops, entry_depth))
}

/// Finds one method's basic blocks and gives each branch op the next
/// counter id from `counters` for its taken edge. Ids past `u16::MAX` wrap
/// here; `compile` rejects such images. Runs at class-define time, so it
/// allocates only the method's own tables.
fn find_blocks(code: &mut [Op], counters: &mut usize) -> BlocksAndEdges {
    // Each op's block index + 1 if it leads a block, else 0.
    let mut leads = vec![0u16; code.len()];
    leads[0] = 1;
    let mut branches = 0;
    for (at, o) in code.iter().enumerate() {
        if is_branch(o.code) {
            leads[usize::from(o.t)] = 1;
            branches += 1;
        }
        if ends_block(o.code) && at + 1 < code.len() {
            leads[at + 1] = 1;
        }
    }
    let mut blocks = Vec::with_capacity(leads.iter().filter(|&&l| l != 0).count());
    let mut histograms: Vec<(u8, u32)> = Vec::with_capacity(code.len());
    let mut tally = [0u32; 256];
    let mut end = 0;
    for at in 0..code.len() {
        if leads[at] == 0 {
            continue;
        }
        if at == 0 || at > end {
            end = block_end(code, at);
        }
        let start = histograms.len();
        for o in &code[at..=end] {
            let n = &mut tally[usize::from(o.code)];
            if *n == 0 {
                histograms.push((o.code, 0));
            }
            *n += 1;
        }
        for entry in &mut histograms[start..] {
            entry.1 = std::mem::take(&mut tally[usize::from(entry.0)]);
        }
        blocks.push(Block {
            end: end as u16,
            falls_in: at == 0 || ends_block(code[at - 1].code),
            histogram: (start as u32, histograms.len() as u32),
        });
        leads[at] = blocks.len() as u16;
    }
    let mut edges = Vec::with_capacity(branches);
    for o in code.iter_mut().filter(|o| is_branch(o.code)) {
        o.ctr = *counters as u16;
        edges.push((o.ctr, leads[usize::from(o.t)] - 1));
        *counters += 1;
    }
    (
        blocks.into_boxed_slice(),
        histograms.into_boxed_slice(),
        edges.into_boxed_slice(),
    )
}

/// Decodes (and greedily fuses, longest pattern first) the instruction(s)
/// at `pc`, returning the op and how many wire instructions it consumed.
fn fuse(code: &[Insn], pc: usize, is_target: &[bool], ctx: &mut Cx<'_>) -> (Op, usize) {
    // `pc + i` may be swallowed only if it exists and no branch lands on it.
    let free = |i: usize| pc + i < code.len() && !is_target[pc + i];

    // Quints: the canonical counting-loop tail — bump a local by a
    // constant, then take the back edge — collapses to one dispatch.
    if free(1) && free(2) && free(3) && free(4) {
        if let (
            Insn::Load(a),
            Insn::PushInt(k),
            addsub @ (Insn::Add | Insn::Sub),
            Insn::Store(b),
            Insn::Jump(t),
        ) = (
            &code[pc],
            &code[pc + 1],
            &code[pc + 2],
            &code[pc + 3],
            &code[pc + 4],
        ) {
            let fused = if matches!(addsub, Insn::Add) {
                op::ADDI_STORE_JUMP
            } else {
                op::SUBI_STORE_JUMP
            };
            return (
                Op {
                    code: fused,
                    a: *a,
                    b: *b,
                    cost: 5,
                    t: *t,
                    ctr: 0,
                    k: *k,
                },
                5,
            );
        }
    }

    // Quads.
    if free(1) && free(2) && free(3) {
        match (&code[pc], &code[pc + 1], &code[pc + 2], &code[pc + 3]) {
            (Insn::Load(a), Insn::PushInt(k), Insn::Add, Insn::Store(b)) => {
                return (
                    Op {
                        code: op::ADDI_STORE,
                        a: *a,
                        b: *b,
                        cost: 4,
                        t: 0,
                        ctr: 0,
                        k: *k,
                    },
                    4,
                );
            }
            (Insn::Load(a), Insn::PushInt(k), Insn::Sub, Insn::Store(b)) => {
                return (
                    Op {
                        code: op::SUBI_STORE,
                        a: *a,
                        b: *b,
                        cost: 4,
                        t: 0,
                        ctr: 0,
                        k: *k,
                    },
                    4,
                );
            }
            (Insn::Load(a), Insn::Load(b), Insn::Add, Insn::Store(c)) => {
                return (
                    Op {
                        code: op::ADD2_STORE,
                        a: *a,
                        b: *b,
                        cost: 4,
                        t: u16::from(*c),
                        ctr: 0,
                        k: 0,
                    },
                    4,
                );
            }
            (Insn::Load(a), Insn::PushInt(k), cmp, Insn::JumpIfFalse(t)) => {
                if let Some(fused) = cmpi_jf_opcode(cmp) {
                    return (
                        Op {
                            code: fused,
                            a: *a,
                            b: 0,
                            cost: 4,
                            t: *t,
                            ctr: 0,
                            k: *k,
                        },
                        4,
                    );
                }
            }
            _ => {}
        }
    }

    // Triples.
    if free(1) && free(2) {
        match (&code[pc], &code[pc + 1], &code[pc + 2]) {
            (Insn::Load(a), Insn::Load(b), intop @ (Insn::Add | Insn::Sub | Insn::Mul)) => {
                let fused = match intop {
                    Insn::Add => op::LOAD2_ADD,
                    Insn::Sub => op::LOAD2_SUB,
                    _ => op::LOAD2_MUL,
                };
                return (
                    Op {
                        code: fused,
                        a: *a,
                        b: *b,
                        cost: 3,
                        t: 0,
                        ctr: 0,
                        k: 0,
                    },
                    3,
                );
            }
            (Insn::Load(a), Insn::PushInt(k), addsub @ (Insn::Add | Insn::Sub)) => {
                let fused = if matches!(addsub, Insn::Add) {
                    op::LOAD_ADDI
                } else {
                    op::LOAD_SUBI
                };
                return (
                    Op {
                        code: fused,
                        a: *a,
                        b: 0,
                        cost: 3,
                        t: 0,
                        ctr: 0,
                        k: *k,
                    },
                    3,
                );
            }
            _ => {}
        }
    }

    // Pairs.
    if free(1) {
        if let (cmp, Insn::JumpIfFalse(t)) = (&code[pc], &code[pc + 1]) {
            if let Some(fused) = cmp_jf_opcode(cmp) {
                return (
                    Op {
                        code: fused,
                        a: 0,
                        b: 0,
                        cost: 2,
                        t: *t,
                        ctr: 0,
                        k: 0,
                    },
                    2,
                );
            }
        }
        if let (Insn::Load(a), Insn::Store(b)) = (&code[pc], &code[pc + 1]) {
            return (
                Op {
                    code: op::LOAD_STORE,
                    a: *a,
                    b: *b,
                    cost: 2,
                    t: 0,
                    ctr: 0,
                    k: 0,
                },
                2,
            );
        }
    }

    // Singles: a direct transcription of the wire instruction.
    let op = match &code[pc] {
        Insn::PushInt(v) => Op {
            k: *v,
            ..Op::plain(op::PUSH_INT)
        },
        Insn::PushStr(s) => Op {
            t: ctx.intern(s),
            ..Op::plain(op::PUSH_STR)
        },
        Insn::PushBool(b) => Op {
            a: u8::from(*b),
            ..Op::plain(op::PUSH_BOOL)
        },
        Insn::PushNull => Op::plain(op::PUSH_NULL),
        Insn::Load(slot) => Op {
            a: *slot,
            ..Op::plain(op::LOAD)
        },
        Insn::Store(slot) => Op {
            a: *slot,
            ..Op::plain(op::STORE)
        },
        Insn::Pop => Op::plain(op::POP),
        Insn::Dup => Op::plain(op::DUP),
        Insn::Swap => Op::plain(op::SWAP),
        Insn::Add => Op::plain(op::ADD),
        Insn::Sub => Op::plain(op::SUB),
        Insn::Mul => Op::plain(op::MUL),
        Insn::Div => Op::plain(op::DIV),
        Insn::Rem => Op::plain(op::REM),
        Insn::Neg => Op::plain(op::NEG),
        Insn::Concat => Op::plain(op::CONCAT),
        Insn::Eq => Op::plain(op::EQ),
        Insn::Ne => Op::plain(op::NE),
        Insn::Lt => Op::plain(op::LT),
        Insn::Le => Op::plain(op::LE),
        Insn::Gt => Op::plain(op::GT),
        Insn::Ge => Op::plain(op::GE),
        Insn::And => Op::plain(op::AND),
        Insn::Or => Op::plain(op::OR),
        Insn::Not => Op::plain(op::NOT),
        Insn::Jump(t) => Op {
            t: *t,
            ..Op::plain(op::JUMP)
        },
        Insn::JumpIfFalse(t) => Op {
            t: *t,
            ..Op::plain(op::JUMP_IF_FALSE)
        },
        Insn::JumpIfTrue(t) => Op {
            t: *t,
            ..Op::plain(op::JUMP_IF_TRUE)
        },
        Insn::Call { method, argc } => Op {
            a: *argc,
            t: ctx.method_index(method),
            ..Op::plain(op::CALL)
        },
        Insn::CallNative { name, argc } => Op {
            a: *argc,
            t: ctx.site(name),
            ..Op::plain(op::CALL_NATIVE)
        },
        Insn::Return => Op::plain(op::RETURN),
        Insn::ReturnValue => Op::plain(op::RETURN_VALUE),
    };
    (op, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::image::MethodImage;

    fn compile_single(code: Vec<Insn>, params: u8, locals: u8) -> CompiledImage {
        CompiledImage::compile(Arc::new(ClassImage {
            name: "T".into(),
            methods: vec![MethodImage {
                name: "main".into(),
                params,
                locals,
                code,
            }],
        }))
        .unwrap()
    }

    fn sum_loop() -> Vec<Insn> {
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
    fn sum_loop_fuses_to_three_ops_per_iteration() {
        let ci = compile_single(sum_loop(), 0, 2);
        let codes: Vec<u8> = ci.methods()[0].code.iter().map(|o| o.code).collect();
        // Loop head (4) is a jump target, so fusion starts fresh there:
        // [Load 0; PushInt 500; Le; JumpIfFalse]   -> lei_jf,
        // [Load 1; Load 0; Add; Store 1]           -> add2_store,
        // [Load 0; PushInt 1; Add; Store 0; Jump]  -> addi_store_jump.
        assert_eq!(
            codes,
            vec![
                op::PUSH_INT,
                op::STORE,
                op::PUSH_INT,
                op::STORE,
                op::LEI_JF,
                op::ADD2_STORE,
                op::ADDI_STORE_JUMP,
                op::LOAD,
                op::RETURN_VALUE,
            ]
        );
        // Costs must sum to the wire instruction count: fusion is invisible
        // to fuel, accounting, and safepoints.
        let total: u32 = ci.methods()[0].code.iter().map(|o| u32::from(o.cost)).sum();
        assert_eq!(total, sum_loop().len() as u32);
    }

    #[test]
    fn branch_targets_are_retargeted_to_compiled_indices() {
        let ci = compile_single(sum_loop(), 0, 2);
        let code = &ci.methods()[0].code;
        // The back edge (wire Jump(4), fused into the loop tail) must land
        // on the lei_jf at compiled index 4, and the exit branch on the
        // Load at compiled index 7.
        assert_eq!(code[6].code, op::ADDI_STORE_JUMP);
        assert_eq!(code[6].t, 4);
        assert_eq!(code[4].code, op::LEI_JF);
        assert_eq!(code[4].t, 7);
        assert_eq!(code[7].code, op::LOAD);
    }

    #[test]
    fn targeted_back_edge_blocks_the_loop_tail_quint() {
        // A `continue`-style branch lands directly on the back-edge Jump:
        // the quint may not swallow it, so the tail stays a quad + Jump.
        let code = vec![
            Insn::PushInt(3),
            Insn::Store(0),
            Insn::Load(0), // 2: loop head
            Insn::PushInt(0),
            Insn::Gt,
            Insn::JumpIfFalse(12),
            Insn::Load(0),
            Insn::PushInt(1),
            Insn::Sub,
            Insn::Store(0),
            Insn::Jump(2), // 10: also a branch target
            Insn::Jump(10),
            Insn::Return, // 12
        ];
        let ci = compile_single(code, 0, 1);
        let codes: Vec<u8> = ci.methods()[0].code.iter().map(|o| o.code).collect();
        assert!(!codes.contains(&op::SUBI_STORE_JUMP), "{codes:?}");
        assert!(codes.contains(&op::SUBI_STORE), "{codes:?}");
    }

    #[test]
    fn fusion_never_crosses_a_jump_target_boundary() {
        // A branch lands *between* Load and Store — the pair must not fuse.
        let code = vec![
            Insn::PushInt(7),
            Insn::Jump(3),  // target: the Store below, entered at depth 1
            Insn::Load(0),  // unreachable fall-path producer
            Insn::Store(1), // 3: jump target
            Insn::Load(1),
            Insn::ReturnValue,
        ];
        let ci = compile_single(code, 0, 2);
        let codes: Vec<u8> = ci.methods()[0].code.iter().map(|o| o.code).collect();
        assert!(
            !codes.contains(&op::LOAD_STORE),
            "Load at pc 2 must not swallow the branch-target Store at pc 3: {codes:?}"
        );
        assert_eq!(
            codes,
            vec![
                op::PUSH_INT,
                op::JUMP,
                op::LOAD,
                op::STORE,
                op::LOAD,
                op::RETURN_VALUE
            ]
        );
    }

    #[test]
    fn mid_quad_target_blocks_only_the_long_fusion() {
        // A branch lands on the Add of [Load; PushInt; Add; Store]: the quad
        // and triple are illegal, but [Load; PushInt] has no pair pattern,
        // so everything decodes unfused except the legal tail.
        let code = vec![
            Insn::PushInt(5),
            Insn::Store(0),
            Insn::Load(0),
            Insn::PushInt(1),
            Insn::Jump(7), // joins the Add below at depth 2
            Insn::Load(0), // unreachable fall-path copy of the operands
            Insn::PushInt(1),
            Insn::Add, // 7: jump target
            Insn::Store(0),
            Insn::Load(0),
            Insn::ReturnValue,
        ];
        let ci = compile_single(code, 0, 1);
        let codes: Vec<u8> = ci.methods()[0].code.iter().map(|o| o.code).collect();
        assert!(!codes.contains(&op::ADDI_STORE), "{codes:?}");
        assert!(!codes.contains(&op::LOAD_ADDI), "{codes:?}");
        assert!(codes.contains(&op::LOAD), "{codes:?}");
    }

    #[test]
    fn string_literals_intern_into_one_pool_entry() {
        let ci = compile_single(
            vec![
                Insn::PushStr("hello".into()),
                Insn::Pop,
                Insn::PushStr("hello".into()),
                Insn::Pop,
                Insn::PushStr("world".into()),
                Insn::Pop,
                Insn::Return,
            ],
            0,
            0,
        );
        assert_eq!(ci.pool_len(), 2);
        let code = &ci.methods()[0].code;
        assert_eq!(code[0].t, code[2].t, "same literal, same pool slot");
        assert_ne!(code[0].t, code[4].t);
    }

    #[test]
    fn calls_resolve_to_method_indices_and_natives_get_sites() {
        let ci = CompiledImage::compile(Arc::new(ClassImage {
            name: "T".into(),
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
                        Insn::Pop,
                        Insn::CallNative {
                            name: "print".into(),
                            argc: 0,
                        },
                        Insn::Pop,
                        Insn::CallNative {
                            name: "print".into(),
                            argc: 0,
                        },
                        Insn::ReturnValue,
                    ],
                },
                MethodImage {
                    name: "leaf".into(),
                    params: 0,
                    locals: 0,
                    code: vec![Insn::PushNull, Insn::ReturnValue],
                },
            ],
        }))
        .unwrap();
        let code = &ci.methods()[0].code;
        assert_eq!(code[0].code, op::CALL);
        assert_eq!(usize::from(code[0].t), 1, "resolved to leaf's index");
        // Each CallNative occurrence is its own site (per-site inline
        // caches), even for the same native name.
        assert_eq!(code[2].code, op::CALL_NATIVE);
        assert_eq!(code[4].code, op::CALL_NATIVE);
        assert_ne!(code[2].t, code[4].t);
        assert_eq!(&*ci.site(code[2].t).name, "print");
        assert!(!Arc::ptr_eq(
            &ci.site(code[2].t).cache,
            &ci.site(code[4].t).cache
        ));
    }

    #[test]
    fn frame_size_combines_locals_and_proven_stack_depth() {
        let ci = compile_single(
            vec![
                Insn::PushInt(1),
                Insn::PushInt(2),
                Insn::PushInt(3),
                Insn::Add,
                Insn::Add,
                Insn::ReturnValue,
            ],
            0,
            2,
        );
        let m = &ci.methods()[0];
        assert_eq!(m.locals, 2);
        assert_eq!(m.frame_size, 5, "2 locals + proven max stack depth 3");
        assert_eq!(&*m.qualified, "T.main");
    }

    #[test]
    fn first_method_definition_wins_name_lookup() {
        let ci = CompiledImage::compile(Arc::new(ClassImage {
            name: "T".into(),
            methods: vec![
                MethodImage {
                    name: "dup".into(),
                    params: 0,
                    locals: 0,
                    code: vec![Insn::PushInt(1), Insn::ReturnValue],
                },
                MethodImage {
                    name: "dup".into(),
                    params: 0,
                    locals: 0,
                    code: vec![Insn::PushInt(2), Insn::ReturnValue],
                },
            ],
        }))
        .unwrap();
        assert_eq!(ci.method_index("dup"), Some(0));
        assert_eq!(ci.method_index("missing"), None);
    }

    #[test]
    fn compile_rejects_unverifiable_images() {
        let err = CompiledImage::compile(Arc::new(ClassImage {
            name: "T".into(),
            methods: vec![MethodImage {
                name: "main".into(),
                params: 0,
                locals: 0,
                code: vec![Insn::Add, Insn::Return],
            }],
        }))
        .unwrap_err();
        assert!(matches!(err, VmError::Verification { .. }));
    }
}
