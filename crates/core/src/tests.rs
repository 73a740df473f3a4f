//! Whole-optimizer tests: the paper's worked examples, run end-to-end
//! through the pipeline and validated against the abstract machine and
//! Core Lint.

use crate::{contify, contify_counting, erase, optimize, simplify, OptConfig, SimplOpts};
use fj_ast::{
    alpha_eq, Alt, AltCon, Binder, DataEnv, Dsl, Expr, Ident, JoinDef, NameSupply, PrimOp, Type,
};
use fj_check::lint;
use fj_eval::{run, run_int, EvalMode, Value};

const FUEL: u64 = 2_000_000;

fn modes() -> [EvalMode; 3] {
    [
        EvalMode::CallByName,
        EvalMode::CallByNeed,
        EvalMode::CallByValue,
    ]
}

/// Optimize with lint-between-passes forced on and check observational
/// equivalence in all modes; returns the optimized term.
fn optimize_checked(e: &Expr, dsl: &mut Dsl, cfg: &OptConfig) -> Expr {
    let cfg = cfg.clone().with_lint(true);
    lint(e, &dsl.data_env).unwrap_or_else(|err| panic!("input ill-typed: {err}\n{e}"));
    let out = optimize(e, &dsl.data_env, &mut dsl.supply, &cfg)
        .unwrap_or_else(|err| panic!("optimize failed: {err}"));
    for mode in modes() {
        let a = run(e, mode, FUEL).unwrap_or_else(|er| panic!("{mode:?} before: {er}\n{e}"));
        let b = run(&out, mode, FUEL).unwrap_or_else(|er| panic!("{mode:?} after: {er}\n{out}"));
        assert_eq!(a.value, b.value, "{mode:?}\nbefore:\n{e}\nafter:\n{out}");
    }
    out
}

/// Sec. 2's `null as = isNothing (mHead as)` after inlining: a case of a
/// case, which must collapse to a single case.
fn null_program(d: &mut Dsl) -> (Binder, Expr) {
    let as_ = d.binder("as", d.list_ty(Type::Int));
    let nil_rhs = d.nothing(Type::Int);
    let inner = d.case_list(Type::Int, Expr::var(&as_.name), nil_rhs, |d2, h, _| {
        d2.just(Type::Int, Expr::var(h))
    });
    let outer = d.case_maybe(Type::Int, inner, Expr::bool(true), |_, _| Expr::bool(false));
    (as_.clone(), Expr::lam(as_, outer))
}

#[test]
fn case_of_case_collapses_null() {
    let mut d = Dsl::new();
    let (_, program) = null_program(&mut d);
    let out = optimize_checked(&program, &mut d, &OptConfig::join_points());

    // Expected: \as. case as of { Nil -> True; Cons h t -> False }
    let expected = {
        let mut d2 = Dsl::new();
        let as2 = d2.binder("as", d2.list_ty(Type::Int));
        let body = d2.case_list(
            Type::Int,
            Expr::var(&as2.name),
            Expr::bool(true),
            |_, _, _| Expr::bool(false),
        );
        Expr::lam(as2, body)
    };
    assert!(
        alpha_eq(&out, &expected),
        "got:\n{out}\nexpected:\n{expected}"
    );
}

/// Sec. 2's BIG example: when the outer case's branches are large, the
/// simplifier shares them through a join point instead of duplicating.
#[test]
fn big_branches_become_shared_join_point() {
    let mut d = Dsl::new();
    let v = d.binder("v", Type::bool());
    // big(i) — an expression over x big enough to exceed dup_size.
    let big = |x: Expr| {
        let mut acc = x;
        for i in 0..12 {
            acc = Expr::prim2(PrimOp::Add, acc, Expr::Lit(i));
        }
        acc
    };
    let x = d.binder("x", Type::Int);
    // case (case v of True -> Just 1; False -> Nothing) of
    //   Nothing -> BIG1; Just x -> BIG2(x)
    let inner = Expr::ite(
        Expr::var(&v.name),
        d.just(Type::Int, Expr::Lit(1)),
        d.nothing(Type::Int),
    );
    let outer = Expr::case(
        inner,
        vec![
            Alt::simple(AltCon::Con(Ident::new("Nothing")), big(Expr::Lit(100))),
            Alt {
                con: AltCon::Con(Ident::new("Just")),
                binders: vec![x.clone()],
                rhs: big(Expr::var(&x.name)),
            },
        ],
    );
    let program = Expr::lam(v, outer);
    let out = optimize_checked(&program, &mut d, &OptConfig::join_points());
    // After case-of-case both branches reduce to direct code; since the
    // scrutinee v is a variable, the simplified form is a single case on v
    // (the Just/Nothing cells are gone entirely).
    let mut cons = 0usize;
    out.walk(&mut |e| {
        if matches!(e, Expr::Con(c, _, _) if c.as_str() == "Just" || c.as_str() == "Nothing") {
            cons += 1;
        }
    });
    assert_eq!(cons, 0, "Maybe cells must be gone:\n{out}");
}

/// The paper's central de-optimization: in baseline mode, case-of-case on
/// a join point destroys it; in join-points mode it survives. We observe
/// the difference in machine allocations.
#[test]
fn join_point_preserved_vs_destroyed() {
    // Program sketch (Sec. 2):
    //   \v. case (join j x = BIG in case v of
    //               A -> jump j 1 | B -> jump j 2 | C -> True) of
    //       True -> False ; False -> True
    // We encode A|B|C as Int cases on v, with an actual join in the input.
    let build = |d: &mut Dsl| {
        let v = d.binder("v", Type::Int);
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        // BIG: big enough not to be inlined (multi-use, size > threshold).
        let mut big = Expr::var(&x.name);
        for i in 0..30 {
            big = Expr::prim2(PrimOp::Add, big, Expr::Lit(i));
        }
        let big = Expr::prim2(PrimOp::Gt, big, Expr::Lit(200));
        let inner = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x],
                body: big,
            },
            Expr::case(
                Expr::var(&v.name),
                vec![
                    Alt::simple(
                        AltCon::Lit(0),
                        Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::bool()),
                    ),
                    Alt::simple(
                        AltCon::Lit(1),
                        Expr::jump(&j, vec![], vec![Expr::Lit(2)], Type::bool()),
                    ),
                    Alt::simple(AltCon::Default, Expr::bool(true)),
                ],
            ),
        );
        let outer = Expr::ite(inner, Expr::bool(false), Expr::bool(true));
        Expr::lam(v, outer)
    };

    let mut d1 = Dsl::new();
    let prog1 = build(&mut d1);
    lint(&prog1, &d1.data_env).unwrap();
    let cfg = OptConfig::join_points().with_lint(true);
    let joined = optimize(&prog1, &d1.data_env, &mut d1.supply, &cfg).unwrap();

    // In the join-points output, the join must still exist (it is
    // multi-use and big) and the outer case must have been consumed into
    // its right-hand side (jfloat), so the body's jumps are direct.
    assert!(joined.has_join_or_jump(), "join must survive:\n{joined}");

    // Semantics: identical on every input that reaches each branch.
    for v in [0_i64, 1, 7] {
        let before = Expr::app(prog1.clone(), Expr::Lit(v));
        let after = Expr::app(joined.clone(), Expr::Lit(v));
        for mode in modes() {
            let a = run(&before, mode, FUEL).unwrap().value;
            let b = run(&after, mode, FUEL).unwrap().value;
            assert_eq!(a, b, "{mode:?} at v={v}");
        }
    }
}

/// Sec. 5's `find`/`any`: contification turns the local loop into a
/// recursive join point, and the consumer's case then fuses into the
/// loop's return points.
#[test]
fn find_any_contifies_and_fuses() {
    let mut d = Dsl::new();
    // any p xs = case (let rec go xs = case xs of
    //                     Nil -> Nothing
    //                     Cons y ys -> if y > 3 then Just y else go ys
    //                  in go xs0) of
    //              Nothing -> False; Just _ -> True
    let xs0 = d.int_list(&[1, 2, 3, 4, 5]);
    let maybe_int = d.maybe_ty(Type::Int);
    let list_int = d.list_ty(Type::Int);
    let find = d.letrec_loop(
        "go",
        vec![("xs", list_int)],
        maybe_int,
        |d2, go, ps| {
            let nil_rhs = d2.nothing(Type::Int);
            d2.case_list(Type::Int, Expr::var(&ps[0]), nil_rhs, |d3, y, ys| {
                Expr::ite(
                    Expr::prim2(PrimOp::Gt, Expr::var(y), Expr::Lit(3)),
                    d3.just(Type::Int, Expr::var(y)),
                    Expr::app(Expr::var(go), Expr::var(ys)),
                )
            })
        },
        |_, go| Expr::app(Expr::var(go), xs0),
    );
    let program = d.case_maybe(Type::Int, find, Expr::bool(false), |_, _| Expr::bool(true));

    // Contification alone converts go.
    let (contified, n) = contify_counting(&program);
    assert_eq!(n, 1, "go must contify:\n{contified}");
    assert!(lint(&contified, &d.data_env).is_ok());

    // Full pipeline: the loop is a join, the consumer's case is gone from
    // around it, and the loop allocates nothing but the input list.
    let out = optimize_checked(&program, &mut d, &OptConfig::join_points());
    assert!(out.has_join_or_jump(), "loop must be a join point:\n{out}");
    let joined = run(&out, EvalMode::CallByValue, FUEL).unwrap();
    assert_eq!(joined.value, Value::Con(Ident::new("True"), vec![]));
    // No Maybe constructors remain: the case fused into the loop.
    let mut maybes = 0usize;
    out.walk(&mut |e| {
        if matches!(e, Expr::Con(c, _, _) if c.as_str() == "Just" || c.as_str() == "Nothing") {
            maybes += 1;
        }
    });
    assert_eq!(maybes, 0, "Maybe cells must fuse away:\n{out}");
}

/// Non-tail calls must not contify.
#[test]
fn non_tail_call_not_contified() {
    let mut d = Dsl::new();
    let f = d.binder("f", Type::fun(Type::Int, Type::Int));
    let x = d.binder("x", Type::Int);
    // let f = \x. x + 1 in f (f 1)   — inner call is an argument.
    let e = Expr::let1(
        f.clone(),
        Expr::lam(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
        ),
        Expr::app(
            Expr::var(&f.name),
            Expr::app(Expr::var(&f.name), Expr::Lit(1)),
        ),
    );
    let (out, n) = contify_counting(&e);
    assert_eq!(n, 0, "must not contify:\n{out}");
}

/// The return-type proviso: a function whose body type differs from the
/// let body's type cannot become a join point.
#[test]
fn return_type_mismatch_not_contified() {
    let mut d = Dsl::new();
    let f = d.binder("f", Type::fun(Type::Int, Type::Int));
    let x = d.binder("x", Type::Int);
    // let f = \x. x in (f 1) > 0   — the call is not in tail position
    // (it is a primop operand), and the types differ (Int vs Bool).
    let e = Expr::let1(
        f.clone(),
        Expr::lam(x.clone(), Expr::var(&x.name)),
        Expr::prim2(
            PrimOp::Gt,
            Expr::app(Expr::var(&f.name), Expr::Lit(1)),
            Expr::Lit(0),
        ),
    );
    let (_, n) = contify_counting(&e);
    assert_eq!(n, 0);
}

/// Jumps to `label` anywhere in `e`.
fn jumps_to(e: &Expr, label: &Binder) -> usize {
    let mut n = 0;
    e.walk(&mut |e| {
        if matches!(e, Expr::Jump(j, ..) if *j == label.name) {
            n += 1;
        }
    });
    n
}

/// The typing proviso alone: `f : ∀a. a → a` is tail-called, saturated,
/// in an `Int` context, but its result type mentions its own type
/// parameter, so it stays a `let`.
#[test]
fn polymorphic_result_type_not_contified() {
    let mut d = Dsl::new();
    let a = d.name("a");
    let f = d.binder(
        "f",
        Type::forall(
            a.clone(),
            Type::fun(Type::Var(a.clone()), Type::Var(a.clone())),
        ),
    );
    let x = d.binder("x", Type::Var(a.clone()));
    // let f = Λa. λx:a. x in f @Int 5
    let e = Expr::let1(
        f.clone(),
        Expr::ty_lam(a, Expr::lam(x.clone(), Expr::var(&x.name))),
        Expr::app(Expr::ty_app(Expr::var(&f.name), Type::Int), Expr::Lit(5)),
    );
    lint(&e, &d.data_env).unwrap();
    let (out, n) = contify_counting(&e);
    assert_eq!(n, 0, "must not contify:\n{out}");
    assert!(matches!(out, Expr::Let(..)), "got:\n{out}");
}

/// A polymorphic function whose result type does not mention its type
/// parameter contifies, whatever the type arguments of its calls.
#[test]
fn polymorphic_argument_contifies() {
    let mut d = Dsl::new();
    let a = d.name("a");
    let f = d.binder(
        "f",
        Type::forall(a.clone(), Type::fun(Type::Var(a.clone()), Type::Int)),
    );
    let x = d.binder("x", Type::Var(a.clone()));
    // let f = Λa. λx:a. 7 in if True then f @Int 5 else f @Bool False
    let e = Expr::let1(
        f.clone(),
        Expr::ty_lam(a, Expr::lam(x, Expr::Lit(7))),
        Expr::ite(
            Expr::bool(true),
            Expr::app(Expr::ty_app(Expr::var(&f.name), Type::Int), Expr::Lit(5)),
            Expr::app(
                Expr::ty_app(Expr::var(&f.name), Type::bool()),
                Expr::bool(false),
            ),
        ),
    );
    lint(&e, &d.data_env).unwrap();
    let (out, n) = contify_counting(&e);
    assert_eq!(n, 1, "f must contify:\n{out}");
    assert!(matches!(out, Expr::Join(..)), "got:\n{out}");
    assert_eq!(jumps_to(&out, &f), 2, "both calls become jumps:\n{out}");
    lint(&out, &d.data_env).unwrap();
    assert_eq!(run_int(&out, EvalMode::CallByValue, FUEL).unwrap(), 7);
}

/// A recursive group with a type parameter and a polymorphic self tail
/// call becomes a recursive join point.
#[test]
fn polymorphic_letrec_contifies() {
    let mut d = Dsl::new();
    let a = d.name("a");
    let go = d.binder(
        "go",
        Type::forall(
            a.clone(),
            Type::funs([Type::Var(a.clone()), Type::Int], Type::Int),
        ),
    );
    let x = d.binder("x", Type::Var(a.clone()));
    let k = d.binder("k", Type::Int);
    // let rec go = Λa. λx:a. λk:Int.
    //                if k <= 0 then k else go @Int k (k - 1)
    // in go @Bool True 10
    let rhs = Expr::ty_lam(
        a,
        Expr::lams(
            [x, k.clone()],
            Expr::ite(
                Expr::prim2(PrimOp::Le, Expr::var(&k.name), Expr::Lit(0)),
                Expr::var(&k.name),
                Expr::apps(
                    Expr::ty_app(Expr::var(&go.name), Type::Int),
                    [
                        Expr::var(&k.name),
                        Expr::prim2(PrimOp::Sub, Expr::var(&k.name), Expr::Lit(1)),
                    ],
                ),
            ),
        ),
    );
    let e = Expr::letrec(
        vec![(go.clone(), rhs)],
        Expr::apps(
            Expr::ty_app(Expr::var(&go.name), Type::bool()),
            [Expr::bool(true), Expr::Lit(10)],
        ),
    );
    lint(&e, &d.data_env).unwrap();
    let (out, n) = contify_counting(&e);
    assert_eq!(n, 1, "go must contify:\n{out}");
    assert!(
        matches!(&out, Expr::Join(jb, _) if jb.is_rec()),
        "got:\n{out}"
    );
    assert_eq!(jumps_to(&out, &go), 2, "both calls become jumps:\n{out}");
    lint(&out, &d.data_env).unwrap();
    assert_eq!(run_int(&out, EvalMode::CallByValue, FUEL).unwrap(), 0);
}

/// A function the `let` body never calls is not a candidate: without a
/// call, nothing ties its result type to the body's, so it is left for
/// the simplifier's `drop`. The effect is observable only in pipelines
/// with no later simplify pass (`OptConfig::none()` and
/// `OptConfig::join_points_without(Pass::Simplify)`): there such a
/// binding keeps one `let` allocation if it is evaluated.
#[test]
fn dead_function_stays_let() {
    let mut d = Dsl::new();
    let unused = d.binder("unused", Type::fun(Type::Int, Type::Int));
    let x = d.binder("x", Type::Int);
    // let unused = λx. x + 1 in 42
    let e = Expr::let1(
        unused,
        Expr::lam(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
        ),
        Expr::Lit(42),
    );
    let (out, n) = contify_counting(&e);
    assert_eq!(n, 0, "dead binding must not contify:\n{out}");
    assert!(matches!(out, Expr::Let(..)), "got:\n{out}");
}

/// The Moby staging (Sec. 4): Float In + contify + simplify achieves the
/// local-CPS effect for a function used only inside a case scrutinee.
#[test]
fn moby_staging_contifies_through_context() {
    let mut d = Dsl::new();
    let f = d.binder("f", Type::fun(Type::Int, Type::Int));
    let x = d.binder("x", Type::Int);
    // let f x = x * 2 in case (case v of {0 -> f 3; _ -> f 4}) of ...
    let v = d.binder("v", Type::Int);
    let inner = Expr::case(
        Expr::var(&v.name),
        vec![
            Alt::simple(AltCon::Lit(0), Expr::app(Expr::var(&f.name), Expr::Lit(3))),
            Alt::simple(AltCon::Default, Expr::app(Expr::var(&f.name), Expr::Lit(4))),
        ],
    );
    let program = Expr::app(
        Expr::lam(
            v,
            Expr::let1(
                f,
                Expr::lam(
                    x.clone(),
                    Expr::prim2(PrimOp::Mul, Expr::var(&x.name), Expr::Lit(2)),
                ),
                Expr::case(
                    inner,
                    vec![
                        Alt::simple(AltCon::Lit(6), Expr::Lit(60)),
                        Alt::simple(AltCon::Default, Expr::Lit(0)),
                    ],
                ),
            ),
        ),
        Expr::Lit(0),
    );
    let out = optimize_checked(&program, &mut d, &OptConfig::join_points());
    assert_eq!(run_int(&out, EvalMode::CallByName, FUEL).unwrap(), 60);
}

/// Baseline vs join-points on a loop+consumer program: the joined version
/// allocates strictly less on the machine.
#[test]
fn pipeline_reduces_allocations_vs_baseline() {
    let build = |d: &mut Dsl, n: i64| {
        let list = {
            let xs: Vec<i64> = (1..=n).collect();
            d.int_list(&xs)
        };
        let maybe_int = d.maybe_ty(Type::Int);
        let list_int = d.list_ty(Type::Int);
        let find = d.letrec_loop(
            "go",
            vec![("xs", list_int)],
            maybe_int,
            |d2, go, ps| {
                let nil_rhs = d2.nothing(Type::Int);
                d2.case_list(Type::Int, Expr::var(&ps[0]), nil_rhs, |d3, y, ys| {
                    Expr::ite(
                        Expr::prim2(PrimOp::Gt, Expr::var(y), Expr::Lit(1_000_000)),
                        d3.just(Type::Int, Expr::var(y)),
                        Expr::app(Expr::var(go), Expr::var(ys)),
                    )
                })
            },
            |_, go| Expr::app(Expr::var(go), list),
        );
        d.case_maybe(Type::Int, find, Expr::Lit(0), |_, x| Expr::var(x))
    };

    let mut d1 = Dsl::new();
    let p1 = build(&mut d1, 50);
    let joined = optimize_checked(&p1, &mut d1, &OptConfig::join_points());

    let mut d2 = Dsl::new();
    let p2 = build(&mut d2, 50);
    let base = optimize_checked(&p2, &mut d2, &OptConfig::baseline());

    let mj = run(&joined, EvalMode::CallByValue, FUEL).unwrap();
    let mb = run(&base, EvalMode::CallByValue, FUEL).unwrap();
    assert_eq!(mj.value, mb.value);
    assert!(
        mj.metrics.total_allocs() <= mb.metrics.total_allocs(),
        "join points must not allocate more: {} vs {}",
        mj.metrics,
        mb.metrics
    );
}

/// Erasure (Theorem 5): produces a join-free, lint-clean, observationally
/// equivalent System F term.
#[test]
fn erasure_is_sound() {
    let mut d = Dsl::new();
    let programs: Vec<Expr> = vec![
        {
            // Simple join.
            let j = d.name("j");
            let x = d.binder("x", Type::Int);
            Expr::join1(
                JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![x.clone()],
                    body: Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
                },
                Expr::ite(
                    Expr::bool(true),
                    Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::Int),
                    Expr::jump(&j, vec![], vec![Expr::Lit(2)], Type::Int),
                ),
            )
        },
        {
            // Recursive join loop.
            d.joinrec_loop(
                "go",
                vec![("n", Type::Int), ("acc", Type::Int)],
                |_, go, ps| {
                    Expr::ite(
                        Expr::prim2(PrimOp::Le, Expr::var(&ps[0]), Expr::Lit(0)),
                        Expr::var(&ps[1]),
                        Expr::jump(
                            go,
                            vec![],
                            vec![
                                Expr::prim2(PrimOp::Sub, Expr::var(&ps[0]), Expr::Lit(1)),
                                Expr::prim2(PrimOp::Add, Expr::var(&ps[1]), Expr::var(&ps[0])),
                            ],
                            Type::Int,
                        ),
                    )
                },
                |_, go| Expr::jump(go, vec![], vec![Expr::Lit(10), Expr::Lit(0)], Type::Int),
            )
        },
        {
            // Zero-parameter join (gets a Unit dummy).
            let j = d.name("j");
            Expr::join1(
                JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![],
                    body: Expr::Lit(9),
                },
                Expr::ite(
                    Expr::bool(false),
                    Expr::Lit(1),
                    Expr::jump(&j, vec![], vec![], Type::Int),
                ),
            )
        },
        {
            // Jump in non-tail position (the paper's Sec. 6 example needs
            // abort before decontifying).
            let j = d.name("j");
            let x = d.binder("x", Type::Int);
            Expr::join1(
                JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![x.clone()],
                    body: Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
                },
                Expr::app(
                    Expr::jump(
                        &j,
                        vec![],
                        vec![Expr::Lit(1)],
                        Type::fun(Type::Int, Type::Int),
                    ),
                    Expr::Lit(2),
                ),
            )
        },
    ];

    for p in programs {
        lint(&p, &d.data_env).unwrap_or_else(|e| panic!("input: {e}\n{p}"));
        let erased = erase(&p, &d.data_env, &mut d.supply).unwrap();
        assert!(!erased.has_join_or_jump(), "must be join-free:\n{erased}");
        lint(&erased, &d.data_env).unwrap_or_else(|e| panic!("erased ill-typed: {e}\n{erased}"));
        for mode in modes() {
            let a = run(&p, mode, FUEL).unwrap().value;
            let b = run(&erased, mode, FUEL).unwrap().value;
            assert_eq!(a, b, "{mode:?}\nbefore:\n{p}\nafter:\n{erased}");
        }
    }
}

/// `simplify` is idempotent at its fixpoint.
#[test]
fn simplify_reaches_fixpoint() {
    let mut d = Dsl::new();
    let (_, program) = null_program(&mut d);
    let opts = SimplOpts::default();
    let once = simplify(&program, &d.data_env, &mut d.supply, &opts).unwrap();
    let twice = simplify(&once, &d.data_env, &mut d.supply, &opts).unwrap();
    assert!(alpha_eq(&once, &twice), "\nonce:\n{once}\ntwice:\n{twice}");
}

/// Constant folding composes with case-of-literal.
#[test]
fn constant_folding_through_cases() {
    let mut d = Dsl::new();
    let e = Expr::case(
        Expr::prim2(PrimOp::Mul, Expr::Lit(6), Expr::Lit(7)),
        vec![
            Alt::simple(AltCon::Lit(42), Expr::Lit(1)),
            Alt::simple(AltCon::Default, Expr::Lit(0)),
        ],
    );
    let out = optimize_checked(&e, &mut d, &OptConfig::join_points());
    assert!(alpha_eq(&out, &Expr::Lit(1)), "got:\n{out}");
}

/// Sanity for the helpers: bare `contify` on a let that must convert.
#[test]
fn contify_simple_tail_function() {
    let mut d = Dsl::new();
    let f = d.binder("f", Type::fun(Type::Int, Type::Int));
    let x = d.binder("x", Type::Int);
    // let f = \x. x + 1 in case b of True -> f 1; False -> f 2
    let e = Expr::let1(
        f.clone(),
        Expr::lam(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
        ),
        Expr::ite(
            Expr::bool(true),
            Expr::app(Expr::var(&f.name), Expr::Lit(1)),
            Expr::app(Expr::var(&f.name), Expr::Lit(2)),
        ),
    );
    let out = contify(&e);
    assert!(matches!(out, Expr::Join(..)), "got:\n{out}");
    lint(&out, &d.data_env).unwrap();
    assert_eq!(run_int(&out, EvalMode::CallByName, FUEL).unwrap(), 2);
}

#[test]
fn data_env_available() {
    let env = DataEnv::prelude();
    assert!(env.datatype(&Ident::new("Bool")).is_ok());
    let _ = NameSupply::new();
}

/// Commuting-normal form (Sec. 6): the simplifier establishes it, and
/// the checker recognizes tail vs non-tail jumps correctly.
#[test]
fn commuting_normal_form_detection() {
    use crate::{is_commuting_normal, simplify_once, SimplOpts};
    let mut d = Dsl::new();
    let j = d.name("j");
    let x = d.binder("x", Type::Int);
    // Tail-shaped: join j x = x + 1 in if b then jump j 1 else 0
    let tail_shaped = Expr::join1(
        JoinDef {
            name: j.clone(),
            ty_params: vec![],
            params: vec![x.clone()],
            body: Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
        },
        Expr::ite(
            Expr::bool(true),
            Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::Int),
            Expr::Lit(0),
        ),
    );
    assert!(is_commuting_normal(&tail_shaped));

    // Non-tail: (jump j 1 (Int -> Int)) 2 — jump in function position.
    let j2 = d.name("j");
    let y = d.binder("y", Type::Int);
    let non_tail = Expr::join1(
        JoinDef {
            name: j2.clone(),
            ty_params: vec![],
            params: vec![y.clone()],
            body: Expr::prim2(PrimOp::Add, Expr::var(&y.name), Expr::Lit(1)),
        },
        Expr::app(
            Expr::jump(
                &j2,
                vec![],
                vec![Expr::Lit(1)],
                Type::fun(Type::Int, Type::Int),
            ),
            Expr::Lit(2),
        ),
    );
    assert!(!is_commuting_normal(&non_tail));

    // One simplifier round reaches commuting-normal form (Lemma 4's
    // constructive content).
    let norm = simplify_once(&non_tail, &d.data_env, &mut d.supply, &SimplOpts::default()).unwrap();
    assert!(is_commuting_normal(&norm), "not normal:\n{norm}");
    assert_eq!(run_int(&norm, EvalMode::CallByName, FUEL).unwrap(), 2);
}

/// Jump in a case scrutinee is non-tail; the simplifier aborts the case.
#[test]
fn scrutinee_jump_aborts() {
    use crate::{is_commuting_normal, simplify_once, SimplOpts};
    let mut d = Dsl::new();
    let j = d.name("j");
    let x = d.binder("x", Type::Int);
    let e = Expr::join1(
        JoinDef {
            name: j.clone(),
            ty_params: vec![],
            params: vec![x.clone()],
            body: Expr::var(&x.name),
        },
        Expr::case(
            Expr::jump(&j, vec![], vec![Expr::Lit(5)], Type::bool()),
            vec![
                Alt::simple(AltCon::Con(Ident::new("True")), Expr::Lit(1)),
                Alt::simple(AltCon::Con(Ident::new("False")), Expr::Lit(0)),
            ],
        ),
    );
    lint(&e, &d.data_env).unwrap();
    assert!(!is_commuting_normal(&e));
    let norm = simplify_once(&e, &d.data_env, &mut d.supply, &SimplOpts::default()).unwrap();
    assert!(is_commuting_normal(&norm));
    // The case was dead code (the scrutinee never returns): result is 5.
    assert_eq!(run_int(&norm, EvalMode::CallByName, FUEL).unwrap(), 5);
    assert_eq!(run_int(&e, EvalMode::CallByName, FUEL).unwrap(), 5);
}

// ---- resilient pipeline -------------------------------------------------

mod resilient {
    use super::{modes, null_program, FUEL};
    use crate::guard::RollbackReason;
    use crate::{
        optimize_resilient, optimize_with_report, OptConfig, OptError, Pass, PassOutcome, PassTap,
    };
    use fj_ast::{alpha_eq, Binder, Dsl, Expr, LetBind, Name, Type};
    use fj_eval::run;
    use std::time::Duration;

    /// A tap that panics when it reaches the pass at `index`.
    fn panic_tap(index: usize) -> PassTap {
        PassTap::new(move |ctx, res| {
            if ctx.index == index {
                panic!("test tap: deliberate panic");
            }
            res
        })
    }

    #[test]
    fn rolled_back_pass_leaves_term_alpha_equal_exact_count() {
        let mut d = Dsl::new();
        let (_, program) = null_program(&mut d);
        let cfg = OptConfig {
            passes: vec![Pass::Simplify],
            ..OptConfig::join_points()
        }
        .with_tap(panic_tap(0));
        let (out, report) = optimize_resilient(&program, &d.data_env, &mut d.supply, &cfg).unwrap();
        assert!(alpha_eq(&out, &program), "rollback must restore the input");
        assert_eq!(report.passes.len(), 1, "exactly one pass recorded");
        let p = &report.passes[0];
        assert!(
            matches!(p.outcome, PassOutcome::RolledBack(RollbackReason::Panic(_))),
            "got {:?}",
            p.outcome
        );
        assert_eq!(p.rewrites.total(), 0, "a rolled-back pass fired nothing");
        assert_eq!(report.rolled_back().count(), 1);
        assert!(!report.all_applied());
        assert_eq!(report.census_after, report.census_before);
    }

    #[test]
    fn resilient_matches_strict_when_nothing_fails() {
        let mut d = Dsl::new();
        let (_, program) = null_program(&mut d);
        let cfg = OptConfig::join_points().with_lint(true);
        let mut s1 = d.supply.clone();
        let mut s2 = d.supply.clone();
        let (strict, strict_report) =
            optimize_with_report(&program, &d.data_env, &mut s1, &cfg).unwrap();
        let (resil, resil_report) =
            optimize_resilient(&program, &d.data_env, &mut s2, &cfg).unwrap();
        assert!(alpha_eq(&strict, &resil));
        assert!(resil_report.all_applied());
        assert_eq!(strict_report.totals(), resil_report.totals());
        assert_eq!(strict_report.passes.len(), resil_report.passes.len());
    }

    #[test]
    fn pipeline_continues_after_midpipeline_panic() {
        let mut d = Dsl::new();
        let (_, program) = null_program(&mut d);
        let cfg = OptConfig::join_points().with_tap(panic_tap(3));
        let (out, report) = optimize_resilient(&program, &d.data_env, &mut d.supply, &cfg).unwrap();
        assert_eq!(report.rolled_back().count(), 1);
        let bad = report.rolled_back().next().unwrap();
        assert_eq!(bad.pass, report.passes[3].pass);
        // The other passes still did their job and the output still runs.
        for mode in modes() {
            let a = run(&program, mode, FUEL).unwrap();
            let b = run(&out, mode, FUEL).unwrap();
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn growth_budget_rolls_back_a_bloating_pass() {
        let mut d = Dsl::new();
        let (_, program) = null_program(&mut d);
        // A tap that wraps pass 0's output in hundreds of well-typed
        // `let pad_i = 1 in …` shells: lint-clean, but way past budget.
        let bloat = PassTap::new(move |ctx, res| {
            if ctx.index != 0 {
                return res;
            }
            res.map(|(mut e, rw)| {
                for i in 0..400u64 {
                    let pad = Binder::new(Name::with_id("pad", 8_000_000_000 + i), Type::Int);
                    e = Expr::Let(
                        LetBind::NonRec(pad, Expr::share(Expr::Lit(1))),
                        Expr::share(e),
                    );
                }
                (e, rw)
            })
        });
        let cfg = OptConfig::join_points()
            .with_tap(bloat)
            .with_max_growth(3.0);
        let (out, report) = optimize_resilient(&program, &d.data_env, &mut d.supply, &cfg).unwrap();
        let bad = &report.passes[0];
        assert!(
            matches!(
                bad.outcome,
                PassOutcome::RolledBack(RollbackReason::GrowthBudget { .. })
            ),
            "got {:?}",
            bad.outcome
        );
        // Later passes proceed from the un-bloated term.
        assert!(
            out.size() < 300,
            "bloat was rolled back (size {})",
            out.size()
        );
    }

    #[test]
    fn pass_budget_skips_the_rest_of_the_pipeline() {
        let mut d = Dsl::new();
        let (_, program) = null_program(&mut d);
        let cfg = OptConfig::join_points().with_max_passes(2);
        let (_, report) = optimize_resilient(&program, &d.data_env, &mut d.supply, &cfg).unwrap();
        let total = cfg.passes.len();
        assert_eq!(report.passes.len(), total);
        assert!(report.passes[0].outcome.is_applied());
        assert!(report.passes[1].outcome.is_applied());
        for p in &report.passes[2..] {
            assert!(
                matches!(
                    p.outcome,
                    PassOutcome::RolledBack(RollbackReason::PassBudget { max_passes: 2 })
                ),
                "got {:?}",
                p.outcome
            );
        }
    }

    #[test]
    fn deadline_rolls_back_a_spinning_pass() {
        let mut d = Dsl::new();
        let (_, program) = null_program(&mut d);
        let spin = PassTap::new(move |ctx, res| {
            if ctx.index == 0 {
                while !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            res
        });
        let cfg = OptConfig::join_points()
            .with_tap(spin)
            .with_pass_deadline(Duration::from_millis(40));
        let (out, report) = optimize_resilient(&program, &d.data_env, &mut d.supply, &cfg).unwrap();
        assert!(
            matches!(
                report.passes[0].outcome,
                PassOutcome::RolledBack(RollbackReason::DeadlineExceeded { .. })
            ),
            "got {:?}",
            report.passes[0].outcome
        );
        assert!(report.passes[1..].iter().all(|p| p.outcome.is_applied()));
        for mode in modes() {
            assert_eq!(
                run(&program, mode, FUEL).unwrap().value,
                run(&out, mode, FUEL).unwrap().value
            );
        }
    }

    #[test]
    fn strict_pipeline_fails_fast_on_blown_budget() {
        let mut d = Dsl::new();
        let (_, program) = null_program(&mut d);
        let cfg = OptConfig::join_points().with_max_passes(0);
        let err = optimize_with_report(&program, &d.data_env, &mut d.supply, &cfg).unwrap_err();
        assert!(matches!(err, OptError::Budget { .. }), "got {err}");
    }
}

// ---- subtree sharing ----------------------------------------------------

/// The copy-on-write contract behind the pipeline's O(1) snapshots: a
/// pipeline that keeps nothing must hand back a term whose subtrees are
/// the *same allocations* as the input's, and a plain `clone` must be a
/// reference-count bump below the root rather than a deep copy.
mod sharing {
    use super::{modes, null_program, FUEL};
    use crate::{optimize_resilient, OptConfig, PassTap};
    use fj_ast::{alpha_eq, Expr};
    use fj_eval::run;
    use std::sync::Arc;

    /// Destructure the root lambda, returning its body `Arc`.
    fn lam_body(e: &Expr) -> &Arc<Expr> {
        match e {
            Expr::Lam(_, body) => body,
            other => panic!("expected a lambda, got {other}"),
        }
    }

    #[test]
    fn clone_shares_subtrees() {
        let mut d = fj_ast::Dsl::new();
        let (_, program) = null_program(&mut d);
        let copy = program.clone();
        assert!(
            Arc::ptr_eq(lam_body(&program), lam_body(&copy)),
            "clone must share subtree allocations, not deep-copy"
        );
    }

    #[test]
    fn full_rollback_returns_pointer_identical_subtrees() {
        let mut d = fj_ast::Dsl::new();
        let (_, program) = null_program(&mut d);
        // A tap that discards every pass's output forces a rollback at
        // every step; the pipeline must come back to the input snapshot.
        let always_panic = PassTap::new(|_, _| panic!("test tap: discard every pass"));
        let cfg = OptConfig::join_points().with_tap(always_panic);
        let (out, report) = optimize_resilient(&program, &d.data_env, &mut d.supply, &cfg).unwrap();
        assert_eq!(report.rolled_back().count(), report.passes.len());
        assert!(alpha_eq(&out, &program));
        assert!(
            Arc::ptr_eq(lam_body(&program), lam_body(&out)),
            "rollback snapshot must be the input's own subtrees, not a deep clone"
        );
        for mode in modes() {
            assert_eq!(
                run(&program, mode, FUEL).unwrap().value,
                run(&out, mode, FUEL).unwrap().value
            );
        }
    }
}
