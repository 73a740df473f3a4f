//! Fusion-oracle tests: the superinstruction peephole must be invisible
//! except in speed — same values, bit-identical allocation counters —
//! and the compact op word must stay compact.

use fj_ast::{Binder, Expr, JoinDef, NameSupply, PrimOp, Type};
use fj_eval::{EvalMode, Value};
use fj_testkit::{build_closed, runner, Config};
use fj_vm::{compile_with, run_program, CompileOpts, Op};

const VM_FUEL: u64 = 50_000_000;

const ALL_MODES: [EvalMode; 3] = [
    EvalMode::CallByValue,
    EvalMode::CallByName,
    EvalMode::CallByNeed,
];

fn int() -> Type {
    Type::con0("Int")
}

/// joinrec loop(acc, n) = if n < 1 then acc else jump loop (acc+n) (n-1)
/// in jump loop 0 `limit` — the canonical hot loop the fusion pass
/// targets (Load/Prim/Jump traffic).
fn sum_loop(limit: i64) -> Expr {
    let mut s = NameSupply::new();
    let j = s.fresh("loop");
    let acc = s.fresh("acc");
    let n = s.fresh("n");
    let def = JoinDef {
        name: j.clone(),
        ty_params: vec![],
        params: vec![
            Binder::new(acc.clone(), int()),
            Binder::new(n.clone(), int()),
        ],
        body: Expr::ite(
            Expr::prim2(PrimOp::Lt, Expr::var(&n), Expr::Lit(1)),
            Expr::var(&acc),
            Expr::jump(
                &j,
                vec![],
                vec![
                    Expr::prim2(PrimOp::Add, Expr::var(&acc), Expr::var(&n)),
                    Expr::prim2(PrimOp::Sub, Expr::var(&n), Expr::Lit(1)),
                ],
                int(),
            ),
        ),
    };
    Expr::joinrec(
        vec![def],
        Expr::jump(&j, vec![], vec![Expr::Lit(0), Expr::Lit(limit)], int()),
    )
}

/// The tentpole's layout claim: the hot instruction word is a small
/// fixed-size `Copy` value. `PushInt(i64)` forces 8-byte alignment, so
/// 16 bytes (discriminant + payload) is the floor — and the assert
/// keeps anyone from accidentally fattening a variant past it.
#[test]
fn op_word_is_16_bytes() {
    assert_eq!(std::mem::size_of::<Op>(), 16);
    assert_eq!(std::mem::size_of::<Option<Op>>(), 16);
}

/// Cloning a compiled program must share the code and side tables, not
/// copy them: `Program::clone` is a refcount bump.
#[test]
fn program_clone_shares_code_via_arc() {
    let e = sum_loop(100);
    let prog = compile_with(&e, EvalMode::CallByValue, CompileOpts { fuse: true }).unwrap();
    let cloned = prog.clone();
    assert!(
        std::sync::Arc::ptr_eq(&prog.code, &cloned.code),
        "clone must share the Arc'd code block"
    );
}

/// The peephole actually fires on the canonical loop: the fused stream
/// is strictly shorter and contains at least one superinstruction.
#[test]
fn fusion_shrinks_the_hot_loop_stream() {
    let e = sum_loop(1000);
    let unfused = compile_with(&e, EvalMode::CallByValue, CompileOpts { fuse: false }).unwrap();
    let fused = compile_with(&e, EvalMode::CallByValue, CompileOpts { fuse: true }).unwrap();
    assert!(!unfused.fused);
    assert!(fused.fused);
    assert!(
        fused.code.ops.len() < unfused.code.ops.len(),
        "fusion must shrink the stream: {} -> {}",
        unfused.code.ops.len(),
        fused.code.ops.len()
    );
    let supers = fused.code.ops.iter().filter(|op| op.opcode() >= 20).count();
    assert!(supers > 0, "expected fused superinstructions in the stream");
}

/// Exact-count oracle on the canonical loop: the fused stream charges
/// the same counters as the unfused stream, down to the last jump, and
/// the loop stays allocation-free.
#[test]
fn fused_counters_exact_on_join_loop() {
    // Lazy modes force the accumulator thunk chain quadratically, so the
    // all-modes parity check runs a short loop; the exact-count check
    // below runs the long one by value (the bench configuration).
    let short = sum_loop(1000);
    for mode in ALL_MODES {
        let unfused = compile_with(&short, mode, CompileOpts { fuse: false }).unwrap();
        let fused = compile_with(&short, mode, CompileOpts { fuse: true }).unwrap();
        let u = run_program(&unfused, VM_FUEL).unwrap();
        let f = run_program(&fused, VM_FUEL).unwrap();
        assert_eq!(f.value, Value::Int(500_500));
        assert_eq!(u.value, f.value, "{mode:?}");
        assert_eq!(
            u.metrics.backend_counters(),
            f.metrics.backend_counters(),
            "{mode:?}: fusion changed the counters"
        );
    }
    let e = sum_loop(100_000);
    let unfused = compile_with(&e, EvalMode::CallByValue, CompileOpts { fuse: false }).unwrap();
    let fused = compile_with(&e, EvalMode::CallByValue, CompileOpts { fuse: true }).unwrap();
    let u = run_program(&unfused, VM_FUEL).unwrap();
    let f = run_program(&fused, VM_FUEL).unwrap();
    assert_eq!(f.value, Value::Int(5_000_050_000));
    assert_eq!(u.value, f.value);
    assert_eq!(f.metrics.jumps, 100_001);
    assert_eq!(u.metrics.jumps, f.metrics.jumps);
    assert_eq!(f.metrics.total_allocs(), 0, "fused jumps must not allocate");
    assert_eq!(u.metrics.total_allocs(), 0);
}

/// Pairwise fusion oracle over generated programs: value and all four
/// shared counters agree between the fused and unfused streams in every
/// evaluation mode.
#[test]
fn fused_vs_unfused_generated_programs() {
    runner::check_with(
        Config {
            cases: 200,
            ..Config::default()
        },
        "fused vm agrees with unfused vm on generated programs",
        |g| {
            let (_d, e) = build_closed(g);
            for mode in ALL_MODES {
                let unfused = compile_with(&e, mode, CompileOpts { fuse: false })
                    .map_err(|err| format!("{mode:?}: compile: {err}"))?;
                let fused = compile_with(&e, mode, CompileOpts { fuse: true })
                    .map_err(|err| format!("{mode:?}: compile: {err}"))?;
                let u = run_program(&unfused, VM_FUEL);
                let f = run_program(&fused, VM_FUEL);
                match (u, f) {
                    (Ok(u), Ok(f)) => {
                        if u.value != f.value {
                            return Err(format!(
                                "{mode:?}: fusion changed the value: {} vs {}\n{e}",
                                u.value, f.value
                            ));
                        }
                        let (a, b) = (u.metrics.backend_counters(), f.metrics.backend_counters());
                        if a != b {
                            return Err(format!(
                                "{mode:?}: fusion changed (let, arg, con, jumps): \
                                 unfused {a:?} vs fused {b:?}\n{e}"
                            ));
                        }
                    }
                    (Err(ue), Err(fe)) => {
                        let (u, f) = (ue.to_string(), fe.to_string());
                        if u != f {
                            return Err(format!(
                                "{mode:?}: fusion changed the error: {u} vs {f}\n{e}"
                            ));
                        }
                    }
                    (u, f) => {
                        return Err(format!("{mode:?}: outcome mismatch: {u:?} vs {f:?}\n{e}"))
                    }
                }
            }
            Ok(())
        },
    );
}
