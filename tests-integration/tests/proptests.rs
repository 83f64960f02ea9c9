//! Property-style tests over the core data structures and invariants:
//! the permission lattice, policy round-trips, path normalization, the VFS
//! against a model, thread-group accounting, and — most importantly — the
//! `jbc` verifier's soundness contract.
//!
//! Originally written with `proptest`; this build environment has no
//! registry access, so the same properties are exercised with a seeded
//! SplitMix64 generator — deterministic, still hundreds of cases each.

use std::collections::HashMap;

/// SplitMix64: tiny, seedable, good enough for structured case generation.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// A lowercase word of 1..=max_len characters.
    fn word(&mut self, max_len: u64) -> String {
        let len = 1 + self.below(max_len);
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }

    /// 1..5 path components joined by `/` (no leading slash).
    fn path_components(&mut self) -> String {
        let n = 1 + self.below(4);
        (0..n).map(|_| self.word(6)).collect::<Vec<_>>().join("/")
    }

    fn file_actions(&mut self) -> jmp_security::FileActions {
        jmp_security::FileActions {
            read: self.bool(),
            write: self.bool(),
            execute: self.bool(),
            delete: self.bool(),
        }
    }
}

// ---------------------------------------------------------------------------
// Permissions
// ---------------------------------------------------------------------------

#[test]
fn recursive_file_grant_implies_everything_under_it() {
    let mut g = Gen::new(0xA11CE);
    for _ in 0..256 {
        let base_path = format!("/{}", g.path_components());
        let deep_path = format!("{base_path}/{}", g.path_components());
        let actions = g.file_actions();
        let grant = jmp_security::Permission::file(format!("{base_path}/-"), actions);
        let demand = jmp_security::Permission::file(&deep_path, actions);
        assert!(
            grant.implies(&demand),
            "{base_path}/- must imply {deep_path}"
        );
        // ...but never the base directory itself, and never a sibling.
        assert!(!grant.implies(&jmp_security::Permission::file(&base_path, actions)));
        let sibling = format!("{base_path}x/file");
        assert!(!grant.implies(&jmp_security::Permission::file(sibling, actions)));
    }
}

#[test]
fn action_superset_is_monotone() {
    let mut g = Gen::new(0xB0B);
    for _ in 0..256 {
        let path = format!("/{}", g.path_components());
        let a = g.file_actions();
        let b = g.file_actions();
        let union = a.union(b);
        let grant = jmp_security::Permission::file(&path, union);
        assert!(grant.implies(&jmp_security::Permission::file(&path, a)));
        assert!(grant.implies(&jmp_security::Permission::file(&path, b)));
        // And implication requires containment:
        let grant_a = jmp_security::Permission::file(&path, a);
        let demand_b = jmp_security::Permission::file(&path, b);
        assert_eq!(grant_a.implies(&demand_b), a.contains(b));
    }
}

#[test]
fn all_permission_implies_any_file() {
    let mut g = Gen::new(0xCAFE);
    for _ in 0..256 {
        let p =
            jmp_security::Permission::file(format!("/{}", g.path_components()), g.file_actions());
        assert!(jmp_security::Permission::All.implies(&p));
        assert!(p.implies(&p), "reflexivity");
    }
}

// ---------------------------------------------------------------------------
// Policy round-trip
// ---------------------------------------------------------------------------

fn gen_permission(g: &mut Gen) -> jmp_security::Permission {
    match g.below(5) {
        0 => jmp_security::Permission::All,
        1 => {
            // Non-empty action set.
            let mut actions = g.file_actions();
            if actions == jmp_security::FileActions::default() {
                actions.read = true;
            }
            jmp_security::Permission::file(format!("/{}", g.path_components()), actions)
        }
        2 => jmp_security::Permission::runtime(g.word(8)),
        3 => jmp_security::Permission::awt(g.word(8)),
        _ => jmp_security::Permission::user(g.word(8)),
    }
}

#[test]
fn policy_display_reparse_roundtrip() {
    let mut g = Gen::new(0xD00D);
    for _ in 0..128 {
        let mut policy = jmp_security::Policy::new();
        for _ in 0..g.below(5) {
            let target = if g.bool() {
                jmp_security::GrantTarget::User(g.word(8))
            } else {
                jmp_security::GrantTarget::Code(jmp_security::CodeSource::local(format!(
                    "file:/{}",
                    g.path_components()
                )))
            };
            let permissions = (0..g.below(4)).map(|_| gen_permission(&mut g)).collect();
            policy.add_grant(jmp_security::Grant {
                target,
                permissions,
            });
        }
        let reparsed = jmp_security::Policy::parse(&policy.to_string()).unwrap();
        assert_eq!(policy, reparsed);
    }
}

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

fn gen_pathish(g: &mut Gen, max_len: u64, alphabet: &[u8]) -> String {
    let len = g.below(max_len + 1);
    (0..len)
        .map(|_| char::from(alphabet[g.below(alphabet.len() as u64) as usize]))
        .collect()
}

#[test]
fn normalize_is_idempotent() {
    let mut g = Gen::new(0x9A7);
    let alphabet: Vec<u8> = (b'a'..=b'e').chain([b'/', b'.']).collect();
    for _ in 0..512 {
        let raw = gen_pathish(&mut g, 30, &alphabet);
        let once = jmp_vfs::normalize(&raw);
        assert_eq!(jmp_vfs::normalize(&once), once, "input {raw:?}");
        assert!(once.starts_with('/'));
        assert!(!once.contains("//"));
        assert!(!once.split('/').any(|c| c == "." || c == ".."));
    }
}

#[test]
fn join_of_normalized_is_stable() {
    let mut g = Gen::new(0x901E);
    let base_alphabet: Vec<u8> = (b'a'..=b'e').chain([b'/']).collect();
    let rel_alphabet: Vec<u8> = (b'a'..=b'e').chain([b'/', b'.']).collect();
    for _ in 0..512 {
        let base = jmp_vfs::normalize(&gen_pathish(&mut g, 16, &base_alphabet));
        let rel = gen_pathish(&mut g, 16, &rel_alphabet);
        let joined = jmp_vfs::join(&base, &rel);
        assert_eq!(
            jmp_vfs::normalize(&joined),
            joined,
            "base {base:?} rel {rel:?}"
        );
        // Joining an absolute path ignores the base entirely.
        assert_eq!(jmp_vfs::join(&base, &joined), joined);
    }
}

// ---------------------------------------------------------------------------
// VFS vs. a model
// ---------------------------------------------------------------------------

#[test]
fn vfs_matches_a_hashmap_model() {
    let mut g = Gen::new(0xF5);
    for _ in 0..128 {
        let fs = jmp_vfs::Vfs::new();
        let root = jmp_security::UserId(0);
        fs.mkdirs("/m", root).unwrap();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        let path = |f: u64| format!("/m/f{f}");

        for _ in 0..g.below(40) {
            match g.below(4) {
                0 => {
                    let f = g.below(8);
                    let data: Vec<u8> = (0..g.below(16)).map(|_| g.next_u64() as u8).collect();
                    fs.write(&path(f), &data, root).unwrap();
                    model.insert(path(f), data);
                }
                1 => {
                    let f = g.below(8);
                    let data: Vec<u8> = (0..g.below(16)).map(|_| g.next_u64() as u8).collect();
                    fs.append(&path(f), &data, root).unwrap();
                    model.entry(path(f)).or_default().extend_from_slice(&data);
                }
                2 => {
                    let f = g.below(8);
                    let fs_result = fs.remove(&path(f), root).is_ok();
                    let model_result = model.remove(&path(f)).is_some();
                    assert_eq!(fs_result, model_result);
                }
                _ => {
                    let (a, b) = (g.below(8), g.below(8));
                    let fs_result = fs.rename(&path(a), &path(b), root).is_ok();
                    let can =
                        model.contains_key(&path(a)) && !model.contains_key(&path(b)) && a != b;
                    assert_eq!(fs_result, can);
                    if can {
                        let data = model.remove(&path(a)).unwrap();
                        model.insert(path(b), data);
                    }
                }
            }
        }
        // Final state equivalence.
        for f in 0u64..8 {
            let p = path(f);
            match model.get(&p) {
                Some(expected) => assert_eq!(&fs.read(&p, root).unwrap(), expected),
                None => assert!(!fs.exists(&p, root)),
            }
        }
        let listed = fs.list_dir("/m", root).unwrap().len();
        assert_eq!(listed, model.len());
    }
}

// ---------------------------------------------------------------------------
// Thread-group accounting
// ---------------------------------------------------------------------------

#[test]
fn group_counts_are_consistent() {
    let mut g = Gen::new(0x6E0);
    for _ in 0..128 {
        let root = jmp_vm::ThreadGroup::new_root("root");
        let children = [
            root.new_child("a").unwrap(),
            root.new_child("b").unwrap(),
            root.new_child("a/x").unwrap(),
        ];
        let mut live: Vec<(usize, bool, jmp_vm::ThreadId)> = Vec::new();
        for next_id in 0..g.below(30) {
            let which = g.below(3) as usize;
            let daemon = g.bool();
            let id = jmp_vm::ThreadId(next_id);
            children[which].register_thread(id, daemon).unwrap();
            live.push((which, daemon, id));
            // Occasionally retire the oldest.
            if live.len() > 4 {
                let (w, d, id) = live.remove(0);
                children[w].deregister_thread(id, d);
            }
        }
        // Invariant: the root's counts equal the sum over the live set.
        let nondaemon = live.iter().filter(|(_, d, _)| !*d).count();
        assert_eq!(root.nondaemon_count(), nondaemon);
        assert_eq!(root.thread_count(), live.len());
        // Drain; counts return to zero.
        for (w, d, id) in live {
            children[w].deregister_thread(id, d);
        }
        assert_eq!(root.nondaemon_count(), 0);
        assert_eq!(root.thread_count(), 0);
    }
}

// ---------------------------------------------------------------------------
// Access checks: warm decisions follow the context's user
// ---------------------------------------------------------------------------

/// The access check reads the running user from the application context
/// its thread carries and keys cached decisions by it, with no epoch
/// behind the user. Over generated interleavings of `setUser`, swaps
/// between two policies that differ in one user grant, and checks, every
/// outcome, warm or cold, equals a cold walk for the context's current
/// user under the current policy.
#[test]
fn warm_decisions_follow_the_context_user() {
    use jmp_security::{AccessContext, AccessController, CodeSource, FileActions, Permission};
    use std::sync::Arc;
    const USERS: [&str; 3] = ["alice", "bob", "carol"];
    const WORDS: [&str; 3] = ["notes", "todo", "mail"];
    let read = |path: &str| Permission::file(path, FileActions::READ);
    let mut own = jmp_security::Policy::new();
    for user in USERS {
        own.grant_user(user, vec![read(&format!("/home/{user}/-"))]);
    }
    let mut shared = own.clone();
    shared.grant_user("bob", vec![read("/home/carol/-")]);
    let policies = [own, shared];

    let mut warm_hits = 0;
    for seed in 0..200u64 {
        let vm = jmp_vm::Vm::builder().policy(policies[0].clone()).build();
        let ctx = jmp_vm::AppContext::new(1, "Editor", "alice", vm.obs().clone());
        let (policies, app) = (policies.clone(), Arc::clone(&ctx));
        let body = move |vm: jmp_vm::Vm| {
            let mut g = Gen::new(0x05E7_0000 + seed);
            let editor = Arc::new(jmp_security::ProtectionDomain::new(
                CodeSource::local("file:/apps/editor"),
                [Permission::exercise_user_permissions()]
                    .into_iter()
                    .collect(),
            ));
            let cold = AccessContext::from_domains(vec![Arc::clone(&editor)]);
            let mut live = 0;
            for step in 0..100 {
                // Checks dominate, so warm hits pile up between switches.
                match g.below(6) {
                    0 => app.set_user(USERS[g.below(3) as usize]),
                    1 => {
                        live = g.below(2) as usize;
                        vm.set_policy(policies[live].clone()).unwrap();
                    }
                    _ => {
                        let owner = USERS[g.below(3) as usize];
                        let demand = read(&format!("/home/{owner}/{}", WORDS[g.below(3) as usize]));
                        let user = app.user();
                        let check = || vm.access_check(&demand).is_ok();
                        let got = jmp_vm::stack::call_as("Editor", Arc::clone(&editor), check);
                        let want = AccessController::check_with(
                            &cold,
                            &demand,
                            Some(&user),
                            &policies[live],
                        );
                        let at =
                            format!("seed {seed} step {step}: {user}, {demand}, policy {live}");
                        assert_eq!(got, want.is_ok(), "{at}");
                    }
                }
            }
        };
        let checker = vm.thread_builder().app_context(ctx).spawn(body).unwrap();
        checker.join().expect("every check agrees with a cold walk");
        warm_hits += vm.obs().vm_metrics().counter("access.cache.hits").get();
    }
    assert!(warm_hits > 100, "too few warm hits: {warm_hits}");
}

// ---------------------------------------------------------------------------
// Shell parser: rendered commands re-parse to the same structure
// ---------------------------------------------------------------------------

fn gen_word(g: &mut Gen) -> String {
    let alphabet = b"abcdefgh0123._/-";
    let len = 1 + g.below(8);
    (0..len)
        .map(|_| char::from(alphabet[g.below(alphabet.len() as u64) as usize]))
        .collect()
}

fn gen_stage(g: &mut Gen) -> jmp_shell::parser::Stage {
    jmp_shell::parser::Stage {
        program: gen_word(g),
        args: (0..g.below(3)).map(|_| gen_word(g)).collect(),
        stdin_from: g.bool().then(|| gen_word(g)),
        stdout_to: g.bool().then(|| jmp_shell::parser::Redirect {
            path: gen_word(g),
            append: g.bool(),
        }),
    }
}

fn render_stage(stage: &jmp_shell::parser::Stage) -> String {
    let mut out = stage.program.clone();
    for arg in &stage.args {
        out.push(' ');
        out.push_str(arg);
    }
    if let Some(path) = &stage.stdin_from {
        out.push_str(" < ");
        out.push_str(path);
    }
    if let Some(redirect) = &stage.stdout_to {
        out.push_str(if redirect.append { " >> " } else { " > " });
        out.push_str(&redirect.path);
    }
    out
}

#[test]
fn rendered_commands_reparse_identically() {
    let mut g = Gen::new(0x5E11);
    for _ in 0..256 {
        let stages: Vec<_> = (0..1 + g.below(3)).map(|_| gen_stage(&mut g)).collect();
        let background = g.bool();
        let line = format!(
            "{}{}",
            stages
                .iter()
                .map(render_stage)
                .collect::<Vec<_>>()
                .join(" | "),
            if background { " &" } else { "" }
        );
        let parsed = jmp_shell::parser::parse_line(&line).unwrap();
        assert_eq!(parsed.len(), 1, "line {line:?}");
        assert_eq!(&parsed[0].stages, &stages, "line {line:?}");
        assert_eq!(parsed[0].background, background);
    }
}

// ---------------------------------------------------------------------------
// Interpreter vs. a model: compiled expressions evaluate identically
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
}

impl Expr {
    fn eval(&self) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            Expr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            Expr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            Expr::Neg(a) => a.eval().wrapping_neg(),
        }
    }

    /// Post-order compilation to `jbc` stack code.
    fn compile(&self, out: &mut Vec<jmp_vm::interp::Insn>) {
        use jmp_vm::interp::Insn;
        match self {
            Expr::Const(v) => out.push(Insn::PushInt(*v)),
            Expr::Add(a, b) => {
                a.compile(out);
                b.compile(out);
                out.push(Insn::Add);
            }
            Expr::Sub(a, b) => {
                a.compile(out);
                b.compile(out);
                out.push(Insn::Sub);
            }
            Expr::Mul(a, b) => {
                a.compile(out);
                b.compile(out);
                out.push(Insn::Mul);
            }
            Expr::Neg(a) => {
                a.compile(out);
                out.push(Insn::Neg);
            }
        }
    }
}

fn gen_expr(g: &mut Gen, depth: u64) -> Expr {
    if depth == 0 || g.below(4) == 0 {
        return Expr::Const(g.i64_in(-1000, 1000));
    }
    match g.below(4) {
        0 => Expr::Add(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        1 => Expr::Sub(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        2 => Expr::Mul(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        _ => Expr::Neg(Box::new(gen_expr(g, depth - 1))),
    }
}

#[test]
fn compiled_expressions_evaluate_like_the_model() {
    use jmp_vm::interp::{ClassImage, Insn, Interpreter, MethodImage, NoNatives, Value};
    let mut g = Gen::new(0xE47);
    for _ in 0..256 {
        let expr = gen_expr(&mut g, 5);
        let mut code = Vec::new();
        expr.compile(&mut code);
        code.push(Insn::ReturnValue);
        let image = ClassImage {
            name: "Expr".into(),
            methods: vec![MethodImage {
                name: "main".into(),
                params: 0,
                locals: 0,
                code,
            }],
        };
        // Anything the compiler emits must verify...
        jmp_vm::interp::verify(&image).unwrap();
        // ...and evaluate exactly like the model (wrapping semantics).
        let interp =
            Interpreter::new(std::sync::Arc::new(image), std::sync::Arc::new(NoNatives)).unwrap();
        assert_eq!(interp.run("main", vec![]).unwrap(), Value::Int(expr.eval()));
    }
}

// ---------------------------------------------------------------------------
// Verifier soundness
// ---------------------------------------------------------------------------

/// A raw instruction spec: `(opcode selector, int payload, jump payload)`.
/// Mapped to a concrete [`Insn`](jmp_vm::interp::Insn) once the final code
/// length is known (jump targets are taken modulo the length).
type InsnSpec = (u8, i64, u16);

fn build_insn(spec: InsnSpec, code_len: usize, locals: u8) -> jmp_vm::interp::Insn {
    use jmp_vm::interp::Insn;
    let (op, int, jump) = spec;
    let target = (jump as usize % code_len) as u16;
    let slot = (int.unsigned_abs() as u8) % locals.max(1);
    match op % 21 {
        0 => Insn::PushInt(int),
        1 => Insn::PushNull,
        2 => Insn::PushBool(int % 2 == 0),
        3 => Insn::Load(slot),
        4 => Insn::Store(slot),
        5 => Insn::Pop,
        6 => Insn::Dup,
        7 => Insn::Swap,
        8 => Insn::Add,
        9 => Insn::Sub,
        10 => Insn::Mul,
        11 => Insn::Neg,
        12 => Insn::Concat,
        13 => Insn::Eq,
        14 => Insn::Lt,
        15 => Insn::Not,
        16 => Insn::Jump(target),
        17 => Insn::JumpIfFalse(target),
        18 => Insn::JumpIfTrue(target),
        19 => Insn::Return,
        _ => Insn::ReturnValue,
    }
}

/// The verifier's contract: if it accepts an image, interpretation must
/// never fault on *machine-safety* grounds (stack underflow, bad slot,
/// falling off the code). Resource traps (fuel) are fine; type
/// mismatches (int ops on strings) trap safely and are also fine — what
/// must never happen is an internal panic or an underflow trap.
#[test]
fn verified_images_never_underflow() {
    use jmp_vm::interp::{ClassImage, Interpreter, MethodImage, NoNatives};
    let mut g = Gen::new(0x50F7);
    for _ in 0..512 {
        let locals = 2u8;
        let len = 1 + g.below(13) as usize;
        let code: Vec<_> = (0..len)
            .map(|_| {
                let spec: InsnSpec = (g.next_u64() as u8, g.i64_in(-8, 8), g.next_u64() as u16);
                build_insn(spec, len, locals)
            })
            .collect();
        let image = ClassImage {
            name: "Fuzz".into(),
            methods: vec![MethodImage {
                name: "main".into(),
                params: 0,
                locals,
                code,
            }],
        };
        if jmp_vm::interp::verify(&image).is_ok() {
            let interp =
                Interpreter::new(std::sync::Arc::new(image), std::sync::Arc::new(NoNatives))
                    .unwrap()
                    .with_fuel(5_000);
            match interp.run("main", vec![]) {
                Ok(_) => {}
                Err(jmp_vm::VmError::Trap { message }) => {
                    assert!(
                        !message.contains("underflow") && !message.contains("empty stack"),
                        "verified code must not underflow: {message}"
                    );
                }
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
    }
}
