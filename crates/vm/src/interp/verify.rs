//! The `jbc` verifier: static checks that make interpreting untrusted
//! images safe.
//!
//! Mirrors the role of the JVM bytecode verifier in the Java security
//! story — memory safety of mobile code must not depend on the code being
//! honest (paper §5.1: Java "relies on the type system to provide basic
//! memory protection"). The verifier rejects an image unless, for every
//! method:
//!
//! * every jump target is a valid instruction index;
//! * every `Load`/`Store` slot index is within the declared locals;
//! * `params ≤ locals`;
//! * every intra-class `Call` names an existing method with matching arity;
//! * the operand-stack depth is consistent: by abstract interpretation over
//!   all paths, each instruction sees one well-defined entry depth, never
//!   pops an empty stack, and never exceeds [`MAX_STACK`];
//! * execution cannot fall off the end of the code.

use std::collections::VecDeque;

use super::image::{ClassImage, Insn, MethodImage};
use crate::error::VmError;
use crate::Result;

/// Maximum operand-stack depth a verified method may need.
pub const MAX_STACK: usize = 256;

/// Per-method facts the verifier proves, consumed by the pre-decoder
/// ([`super::CompiledImage`]) to size call frames exactly and to check a
/// snapshot's stack pointers.
#[derive(Debug, Clone)]
pub(crate) struct MethodFacts {
    /// The maximum operand-stack depth any reachable path needs
    /// (≤ [`MAX_STACK`]).
    pub max_stack: usize,
    /// The operand-stack depth on entry to each wire instruction; `None`
    /// for instructions no path reaches.
    pub depth_at: Vec<Option<u16>>,
}

/// Verifies every method of `image`.
///
/// # Errors
///
/// [`VmError::Verification`] describing the first offending method and
/// instruction.
pub fn verify(image: &ClassImage) -> Result<()> {
    verify_facts(image).map(|_| ())
}

/// Verifies every method and returns the proven [`MethodFacts`], in method
/// order.
///
/// # Errors
///
/// [`VmError::Verification`] describing the first offending method and
/// instruction.
pub(crate) fn verify_facts(image: &ClassImage) -> Result<Vec<MethodFacts>> {
    let mut facts = Vec::with_capacity(image.methods.len());
    for method in &image.methods {
        let fact = verify_method(image, method).map_err(|message| VmError::Verification {
            class: image.name.clone(),
            message: format!("method {:?}: {message}", method.name),
        })?;
        facts.push(fact);
    }
    Ok(facts)
}

fn verify_method(
    image: &ClassImage,
    method: &MethodImage,
) -> std::result::Result<MethodFacts, String> {
    if method.params > method.locals {
        return Err(format!(
            "declares {} params but only {} locals",
            method.params, method.locals
        ));
    }
    if method.code.is_empty() {
        return Err("empty code".to_string());
    }
    let len = method.code.len();

    // Static per-instruction checks.
    for (pc, insn) in method.code.iter().enumerate() {
        match insn {
            Insn::Jump(t) | Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t)
                if usize::from(*t) >= len =>
            {
                return Err(format!(
                    "pc {pc}: jump target {t} out of bounds (len {len})"
                ));
            }
            Insn::Load(slot) | Insn::Store(slot) if *slot >= method.locals => {
                return Err(format!(
                    "pc {pc}: local slot {slot} out of bounds (locals {})",
                    method.locals
                ));
            }
            Insn::Call { method: name, argc } => {
                let callee = image
                    .method(name)
                    .ok_or_else(|| format!("pc {pc}: call to unknown method {name:?}"))?;
                if callee.params != *argc {
                    return Err(format!(
                        "pc {pc}: call to {name:?} with {argc} args but it takes {}",
                        callee.params
                    ));
                }
            }
            _ => {}
        }
    }

    // Abstract interpretation of stack depth over all reachable paths.
    let mut depth_at: Vec<Option<i32>> = vec![None; len];
    let mut max_stack: i32 = 0;
    let mut work: VecDeque<(usize, i32)> = VecDeque::new();
    work.push_back((0, 0));
    while let Some((pc, depth)) = work.pop_front() {
        if pc >= len {
            return Err("execution can fall off the end of the code".to_string());
        }
        match depth_at[pc] {
            Some(existing) if existing == depth => continue,
            Some(existing) => {
                return Err(format!(
                    "pc {pc}: inconsistent stack depth ({existing} vs {depth})"
                ))
            }
            None => depth_at[pc] = Some(depth),
        }
        let insn = &method.code[pc];
        let pops = insn.pops() as i32;
        if depth < pops {
            return Err(format!(
                "pc {pc}: {insn:?} pops {pops} but stack depth is {depth}"
            ));
        }
        let next_depth = depth + insn.stack_delta();
        if next_depth as usize > MAX_STACK {
            return Err(format!("pc {pc}: stack depth exceeds {MAX_STACK}"));
        }
        // Pops precede pushes in every instruction, so the transient peak
        // inside one instruction never exceeds its entry or exit depth.
        max_stack = max_stack.max(depth).max(next_depth);
        match insn {
            Insn::Return | Insn::ReturnValue => {}
            Insn::Jump(t) => work.push_back((usize::from(*t), next_depth)),
            Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t) => {
                work.push_back((usize::from(*t), next_depth));
                work.push_back((pc + 1, next_depth));
            }
            _ => work.push_back((pc + 1, next_depth)),
        }
    }
    Ok(MethodFacts {
        max_stack: max_stack.max(0) as usize,
        depth_at: depth_at
            .into_iter()
            .map(|depth| depth.map(|d| d as u16))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_with(code: Vec<Insn>, params: u8, locals: u8) -> ClassImage {
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
    fn accepts_simple_program() {
        let image = image_with(
            vec![
                Insn::PushInt(1),
                Insn::PushInt(2),
                Insn::Add,
                Insn::ReturnValue,
            ],
            0,
            0,
        );
        verify(&image).unwrap();
    }

    #[test]
    fn rejects_stack_underflow() {
        let image = image_with(vec![Insn::Add, Insn::Return], 0, 0);
        let err = verify(&image).unwrap_err();
        assert!(err.to_string().contains("pops"), "{err}");
    }

    #[test]
    fn rejects_out_of_bounds_jump() {
        let image = image_with(vec![Insn::Jump(99)], 0, 0);
        assert!(verify(&image)
            .unwrap_err()
            .to_string()
            .contains("out of bounds"));
    }

    #[test]
    fn rejects_bad_local_slot() {
        let image = image_with(vec![Insn::Load(3), Insn::Return], 0, 2);
        assert!(verify(&image).unwrap_err().to_string().contains("slot 3"));
    }

    #[test]
    fn rejects_params_exceeding_locals() {
        let image = image_with(vec![Insn::Return], 3, 1);
        assert!(verify(&image).unwrap_err().to_string().contains("params"));
    }

    #[test]
    fn rejects_falling_off_the_end() {
        let image = image_with(vec![Insn::PushInt(1), Insn::Pop], 0, 0);
        assert!(verify(&image)
            .unwrap_err()
            .to_string()
            .contains("fall off the end"));
    }

    #[test]
    fn rejects_inconsistent_depths() {
        // Two paths reach pc 4 with different stack depths.
        let image = image_with(
            vec![
                Insn::PushBool(true), // 0: depth 0 -> 1
                Insn::JumpIfFalse(3), // 1: -> 0, branch to 3 or fall to 2
                Insn::PushInt(1),     // 2: 0 -> 1
                Insn::PushInt(2),     // 3: reached with depth 0 (from 1) or 1 (from 2)
                Insn::Return,         // 4
            ],
            0,
            0,
        );
        assert!(verify(&image)
            .unwrap_err()
            .to_string()
            .contains("inconsistent"));
    }

    #[test]
    fn rejects_unknown_call_and_bad_arity() {
        let image = image_with(
            vec![Insn::Call {
                method: "nope".into(),
                argc: 0,
            }],
            0,
            0,
        );
        assert!(verify(&image)
            .unwrap_err()
            .to_string()
            .contains("unknown method"));

        let image = ClassImage {
            name: "T".into(),
            methods: vec![
                MethodImage {
                    name: "main".into(),
                    params: 0,
                    locals: 0,
                    code: vec![
                        Insn::PushInt(1),
                        Insn::Call {
                            method: "helper".into(),
                            argc: 1,
                        },
                        Insn::ReturnValue,
                    ],
                },
                MethodImage {
                    name: "helper".into(),
                    params: 2,
                    locals: 2,
                    code: vec![Insn::PushNull, Insn::ReturnValue],
                },
            ],
        };
        assert!(verify(&image).unwrap_err().to_string().contains("takes 2"));
    }

    #[test]
    fn accepts_loops() {
        // A counting loop: stack depth is consistent around the back edge.
        let image = image_with(
            vec![
                Insn::PushInt(0),      // 0
                Insn::Store(0),        // 1
                Insn::Load(0),         // 2 <- loop head
                Insn::PushInt(10),     // 3
                Insn::Lt,              // 4
                Insn::JumpIfFalse(10), // 5
                Insn::Load(0),         // 6
                Insn::PushInt(1),      // 7
                Insn::Add,             // 8
                Insn::Store(0),        // 9 ... falls to 10? no: jump back
                Insn::Return,          // 10
            ],
            0,
            1,
        );
        // Insert the back edge: replace pc 9's fallthrough with an explicit
        // jump after the store. Easier: append jump.
        let mut code = image.methods[0].code.clone();
        code[9] = Insn::Store(0);
        code.insert(10, Insn::Jump(2));
        // Return moves to index 11; fix branch target.
        code[5] = Insn::JumpIfFalse(11);
        let image = image_with(code, 0, 1);
        verify(&image).unwrap();
    }

    #[test]
    fn rejects_empty_method() {
        let image = image_with(vec![], 0, 0);
        assert!(verify(&image).unwrap_err().to_string().contains("empty"));
    }

    #[test]
    fn facts_report_max_operand_depth() {
        let image = image_with(
            vec![
                Insn::PushInt(1),
                Insn::PushInt(2),
                Insn::PushInt(3), // peak depth 3
                Insn::Add,
                Insn::Add,
                Insn::ReturnValue,
            ],
            0,
            0,
        );
        let facts = verify_facts(&image).unwrap();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].max_stack, 3);

        let image = image_with(vec![Insn::Return], 0, 0);
        assert_eq!(verify_facts(&image).unwrap()[0].max_stack, 0);
    }
}
