//! Differential tests: the bytecode VM against the Fig. 3 machine.
//!
//! The contract is strict — same value AND same allocation metrics
//! (`let`/`arg`/`con` units and the jump count). `steps` and
//! `max_stack` are backend-specific and excluded. Every term is compiled
//! twice, with and without the superinstruction peephole, and each
//! stream is held to the machine.

use fj_ast::{Binder, Expr, JoinDef, NameSupply, PrimOp, Type};
use fj_eval::{EvalMode, MachineError, Outcome, Value};
use fj_testkit::{build_closed, runner, Config};
use fj_vm::{compile_with, run_program, CompileOpts, VmError};

const MACHINE_FUEL: u64 = 5_000_000;
const VM_FUEL: u64 = 50_000_000;

const ALL_MODES: [EvalMode; 3] = [
    EvalMode::CallByValue,
    EvalMode::CallByName,
    EvalMode::CallByNeed,
];

/// Compile `e` with fusion on or off and run it on the VM.
fn vm_run(e: &Expr, mode: EvalMode, fuse: bool) -> Result<Outcome, VmError> {
    let prog = compile_with(e, mode, CompileOpts { fuse }).map_err(VmError::Compile)?;
    run_program(&prog, VM_FUEL)
}

/// Run the machine and both VM streams and demand agreement on outcome
/// class, value, and allocation metrics.
fn assert_parity(e: &Expr, mode: EvalMode) -> Result<(), String> {
    let m = fj_eval::run(e, mode, MACHINE_FUEL);
    for fuse in [false, true] {
        match (&m, vm_run(e, mode, fuse)) {
            (Ok(m), Ok(v)) => {
                if m.value != v.value {
                    return Err(format!(
                        "{mode:?} fuse={fuse}: value mismatch: machine {} vs vm {}\n{e}",
                        m.value, v.value
                    ));
                }
                let (a, b) = (m.metrics.backend_counters(), v.metrics.backend_counters());
                if a != b {
                    return Err(format!(
                        "{mode:?} fuse={fuse}: (let, arg, con, jumps) mismatch: \
                         machine {a:?} vs vm {b:?}\n{e}"
                    ));
                }
            }
            (Err(MachineError::DivideByZero), Err(VmError::DivideByZero))
            | (Err(MachineError::OutOfFuel), Err(VmError::OutOfFuel))
            | (Err(MachineError::Stuck(_)), Err(VmError::Stuck(_))) => {}
            (m, v) => {
                return Err(format!(
                    "{mode:?} fuse={fuse}: outcome mismatch: {m:?} vs {v:?}\n{e}"
                ))
            }
        }
    }
    Ok(())
}

fn int() -> Type {
    Type::con0("Int")
}

/// ISSUE acceptance: 200 generated closed programs, equal values and
/// equal heap-allocation metrics, in every evaluation mode.
#[test]
fn generated_programs_agree_with_machine() {
    runner::check_with(
        Config {
            cases: 200,
            ..Config::default()
        },
        "vm agrees with machine on generated programs",
        |g| {
            let (_d, e) = build_closed(g);
            for mode in ALL_MODES {
                assert_parity(&e, mode)?;
            }
            Ok(())
        },
    );
}

/// The tentpole's headline invariant, as an exact-count test: a join
/// loop taking N jumps performs ZERO heap allocation on both backends —
/// a jump is a branch plus a stack truncation, nothing else.
#[test]
fn jump_is_allocation_free() {
    let mut s = NameSupply::new();
    let j = s.fresh("loop");
    let x = s.fresh("x");
    // joinrec loop(x) = if x < 1000 then jump loop (x+1) else x
    // in jump loop 0
    let def = JoinDef {
        name: j.clone(),
        ty_params: vec![],
        params: vec![Binder::new(x.clone(), int())],
        body: Expr::ite(
            Expr::prim2(PrimOp::Lt, Expr::var(&x), Expr::Lit(1000)),
            Expr::jump(
                &j,
                vec![],
                vec![Expr::prim2(PrimOp::Add, Expr::var(&x), Expr::Lit(1))],
                int(),
            ),
            Expr::var(&x),
        ),
    };
    let e = Expr::joinrec(vec![def], Expr::jump(&j, vec![], vec![Expr::Lit(0)], int()));
    for mode in ALL_MODES {
        let m = fj_eval::run(&e, mode, MACHINE_FUEL).unwrap();
        for fuse in [false, true] {
            let v = vm_run(&e, mode, fuse).unwrap();
            assert_eq!(v.value, Value::Int(1000));
            assert_eq!(v.value, m.value);
            // 1 entry jump + 1000 loop jumps.
            assert_eq!(v.metrics.jumps, 1001, "{mode:?} fuse={fuse}");
            assert_eq!(v.metrics.jumps, m.metrics.jumps, "{mode:?} fuse={fuse}");
            assert_eq!(
                v.metrics.total_allocs(),
                m.metrics.total_allocs(),
                "{mode:?} fuse={fuse}: allocation parity"
            );
        }
    }
    // The headline exact count: by value (the bench configuration), the
    // 1001 jumps perform zero heap allocation — each is a branch plus a
    // stack truncation. (Lazy modes charge the non-atomic argument
    // `x+1` one `arg` thunk per jump, exactly as the machine does.)
    for fuse in [false, true] {
        let v = vm_run(&e, EvalMode::CallByValue, fuse).unwrap();
        assert_eq!(v.metrics.total_allocs(), 0, "vm jump must not allocate");
    }
}

/// Hand-picked shapes the generator reaches rarely: recursive lets,
/// higher-order results, nested constructors, case defaults, literal
/// alternatives, shadowing, unused joins, jump-under-case.
#[test]
fn targeted_shapes_agree_with_machine() {
    let mut s = NameSupply::new();
    let f = s.fresh("f");
    let g = s.fresh("g");
    let x = s.fresh("x");
    let y = s.fresh("y");
    let j = s.fresh("j");
    let b = |n: &fj_ast::Name| Binder::new(n.clone(), int());

    let cases: Vec<Expr> = vec![
        // letrec even/odd-style loop through a lambda.
        Expr::letrec(
            vec![(
                b(&f),
                Expr::lam(
                    b(&x),
                    Expr::ite(
                        Expr::prim2(PrimOp::Lt, Expr::var(&x), Expr::Lit(10)),
                        Expr::app(
                            Expr::var(&f),
                            Expr::prim2(PrimOp::Add, Expr::var(&x), Expr::Lit(1)),
                        ),
                        Expr::var(&x),
                    ),
                ),
            )],
            Expr::app(Expr::var(&f), Expr::Lit(0)),
        ),
        // A let-bound closure applied twice (arg + let charging).
        Expr::let1(
            b(&g),
            Expr::lam(
                b(&x),
                Expr::prim2(PrimOp::Mul, Expr::var(&x), Expr::var(&x)),
            ),
            Expr::prim2(
                PrimOp::Add,
                Expr::app(Expr::var(&g), Expr::Lit(3)),
                Expr::app(Expr::var(&g), Expr::Lit(4)),
            ),
        ),
        // Nested constructor scrutinized twice (per-projection thunks).
        Expr::let1(
            b(&y),
            Expr::Con(
                fj_ast::Ident::new("Pair"),
                vec![],
                vec![
                    Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
                    Expr::Lit(7),
                ],
            ),
            Expr::case(
                Expr::var(&y),
                vec![fj_ast::Alt {
                    con: fj_ast::AltCon::Con(fj_ast::Ident::new("Pair")),
                    binders: vec![b(&x), b(&f)],
                    rhs: Expr::case(
                        Expr::var(&y),
                        vec![fj_ast::Alt {
                            con: fj_ast::AltCon::Con(fj_ast::Ident::new("Pair")),
                            binders: vec![b(&g), b(&j)],
                            rhs: Expr::prim2(PrimOp::Add, Expr::var(&x), Expr::var(&g)),
                        }],
                    ),
                }],
            ),
        ),
        // Literal alternatives with a default.
        Expr::case(
            Expr::prim2(PrimOp::Add, Expr::Lit(2), Expr::Lit(2)),
            vec![
                fj_ast::Alt::simple(fj_ast::AltCon::Lit(3), Expr::Lit(30)),
                fj_ast::Alt::simple(fj_ast::AltCon::Lit(4), Expr::Lit(40)),
                fj_ast::Alt::simple(fj_ast::AltCon::Default, Expr::Lit(0)),
            ],
        ),
        // Unused join point around a value.
        Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![b(&x)],
                body: Expr::var(&x),
            },
            Expr::Lit(5),
        ),
        // Jump from one arm, plain value from the other (merge point).
        Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![b(&x)],
                body: Expr::prim2(PrimOp::Mul, Expr::var(&x), Expr::Lit(2)),
            },
            Expr::prim2(
                PrimOp::Add,
                Expr::ite(
                    Expr::prim2(PrimOp::Lt, Expr::Lit(1), Expr::Lit(2)),
                    Expr::jump(&j, vec![], vec![Expr::Lit(21)], int()),
                    Expr::Lit(0),
                ),
                Expr::Lit(0),
            ),
        ),
        // Shadowing: inner let reuses an outer slot's name.
        Expr::let1(
            b(&x),
            Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(1)),
            Expr::let1(
                b(&x),
                Expr::prim2(PrimOp::Mul, Expr::var(&x), Expr::Lit(10)),
                Expr::var(&x),
            ),
        ),
        // Division by zero surfaces identically.
        Expr::prim2(
            PrimOp::Div,
            Expr::Lit(1),
            Expr::prim2(PrimOp::Sub, Expr::Lit(2), Expr::Lit(2)),
        ),
        // A function value as the program result.
        Expr::let1(b(&f), Expr::lam(b(&x), Expr::var(&x)), Expr::var(&f)),
        // Data result with lazy fields (deep force at the boundary).
        Expr::Con(
            fj_ast::Ident::new("Pair"),
            vec![],
            vec![
                Expr::prim2(PrimOp::Add, Expr::Lit(20), Expr::Lit(1)),
                Expr::Con(
                    fj_ast::Ident::new("Just"),
                    vec![],
                    vec![Expr::prim2(PrimOp::Mul, Expr::Lit(2), Expr::Lit(3))],
                ),
            ],
        ),
        // letrec with a constructor cell and an alias in the group.
        Expr::letrec(
            vec![
                (
                    b(&y),
                    Expr::Con(fj_ast::Ident::new("Just"), vec![], vec![Expr::Lit(9)]),
                ),
                (b(&x), Expr::var(&y)),
            ],
            Expr::case(
                Expr::var(&x),
                vec![
                    fj_ast::Alt {
                        con: fj_ast::AltCon::Con(fj_ast::Ident::new("Just")),
                        binders: vec![b(&g)],
                        rhs: Expr::var(&g),
                    },
                    fj_ast::Alt::simple(fj_ast::AltCon::Default, Expr::Lit(0)),
                ],
            ),
        ),
    ];
    for e in &cases {
        for mode in ALL_MODES {
            if let Err(msg) = assert_parity(e, mode) {
                panic!("{msg}");
            }
        }
    }
}

/// Deep recursion through joins must not overflow the VM (frames are a
/// heap vector, not the Rust stack) and must match the machine's count.
#[test]
fn long_join_loop_matches_machine_counters() {
    let mut s = NameSupply::new();
    let j = s.fresh("loop");
    let acc = s.fresh("acc");
    let n = s.fresh("n");
    // joinrec loop(acc, n) = if n < 1 then acc
    //                        else jump loop (acc+n) (n-1)
    // in jump loop 0 100000      (sum 1..=100000)
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
    let e = Expr::joinrec(
        vec![def],
        Expr::jump(&j, vec![], vec![Expr::Lit(0), Expr::Lit(100_000)], int()),
    );
    let m = fj_eval::run(&e, EvalMode::CallByValue, MACHINE_FUEL).unwrap();
    for fuse in [false, true] {
        let v = vm_run(&e, EvalMode::CallByValue, fuse).unwrap();
        assert_eq!(v.value, Value::Int(5_000_050_000));
        assert_eq!(m.value, v.value);
        assert_eq!(m.metrics.jumps, v.metrics.jumps);
        assert_eq!(v.metrics.total_allocs(), 0);
    }
}
