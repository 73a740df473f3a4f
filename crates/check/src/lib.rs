//! # fj-check — the System F_J type system (Fig. 2)
//!
//! The paper's typing judgement `Γ; Δ ⊢ e : τ` carries two environments:
//! Γ for ordinary (term and type) variables and Δ for join-point labels.
//! Δ is **reset to ε** in every premise whose runtime evaluation context is
//! not statically known — function arguments, lambda bodies, constructor
//! fields, `let` right-hand sides — which is exactly what makes "adjust the
//! stack and jump" a sound compilation strategy for jumps.
//!
//! The crate plays the role of GHC's *Core Lint* (paper Sec. 7): it is run
//! between optimizer passes in this repository's test suite, so a pass that
//! destroys a join point (the failure mode motivating the whole paper)
//! fails loudly instead of silently de-optimizing. [`lint`] is the only
//! checker. Passes that need the type of a subterm mid-rewrite call
//! [`type_of`], which checks nothing: every binder and every jump carries
//! its type, so a well-typed term's type can be read off its tail spine.
//!
//! ## Example
//!
//! ```
//! use fj_ast::{DataEnv, Dsl, Expr, JoinDef, PrimOp, Type};
//! use fj_check::lint;
//!
//! let mut dsl = Dsl::new();
//! let j = dsl.name("j");
//! let x = dsl.binder("x", Type::Int);
//! let body = Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1));
//! let term = Expr::join1(
//!     JoinDef { name: j.clone(), ty_params: vec![], params: vec![x], body },
//!     Expr::jump(&j, vec![], vec![Expr::Lit(41)], Type::Int),
//! );
//! let ty = lint(&term, &dsl.data_env)?;
//! assert_eq!(ty, Type::Int);
//! # Ok::<(), fj_check::LintError>(())
//! ```

#![warn(missing_docs)]

mod env;
mod lint;

pub use lint::{lint, type_of, LintError, LintErrorKind};

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::{Alt, AltCon, Binder, DataEnv, Dsl, Expr, Ident, JoinDef, PrimOp, Type};
    use std::collections::HashMap;

    fn ok(e: &Expr, env: &DataEnv) -> Type {
        match lint(e, env) {
            Ok(t) => t,
            Err(err) => panic!("expected well-typed, got: {err}\nterm:\n{e}"),
        }
    }

    fn bad(e: &Expr, env: &DataEnv) -> LintError {
        match lint(e, env) {
            Ok(t) => panic!("expected lint failure, got type {t}\nterm:\n{e}"),
            Err(err) => err,
        }
    }

    #[test]
    fn literals_and_prims() {
        let d = Dsl::new();
        assert_eq!(ok(&Expr::Lit(3), &d.data_env), Type::Int);
        let e = Expr::prim2(PrimOp::Lt, Expr::Lit(1), Expr::Lit(2));
        assert_eq!(ok(&e, &d.data_env), Type::bool());
    }

    #[test]
    fn lambda_and_application() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let f = Expr::lam(x.clone(), Expr::var(&x.name));
        assert_eq!(ok(&f, &d.data_env), Type::fun(Type::Int, Type::Int));
        let app = Expr::app(f, Expr::Lit(1));
        assert_eq!(ok(&app, &d.data_env), Type::Int);
    }

    #[test]
    fn wrong_argument_type_rejected() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let f = Expr::lam(x, Expr::Lit(0));
        let app = Expr::app(f, Expr::bool(true));
        let e = bad(&app, &d.data_env);
        assert!(matches!(e.kind, LintErrorKind::Mismatch { .. }));
    }

    #[test]
    fn polymorphic_identity() {
        let mut d = Dsl::new();
        let a = d.name("a");
        let x = d.binder("x", Type::Var(a.clone()));
        let id = Expr::ty_lam(a.clone(), Expr::lam(x.clone(), Expr::var(&x.name)));
        let t = ok(&id, &d.data_env);
        assert!(t.alpha_eq(&Type::forall(
            a.clone(),
            Type::fun(Type::Var(a.clone()), Type::Var(a))
        )));
        let inst = Expr::app(Expr::ty_app(id, Type::Int), Expr::Lit(5));
        assert_eq!(ok(&inst, &d.data_env), Type::Int);
    }

    #[test]
    fn constructors_and_case() {
        let mut d = Dsl::new();
        let scrut = d.just(Type::Int, Expr::Lit(4));
        let e = d.case_maybe(Type::Int, scrut, Expr::Lit(0), |_, x| Expr::var(x));
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    #[test]
    fn non_exhaustive_case_rejected() {
        let d = Dsl::new();
        let e = Expr::case(
            Expr::bool(true),
            vec![Alt::simple(AltCon::Con(Ident::new("True")), Expr::Lit(1))],
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::NonExhaustiveCase);
    }

    #[test]
    fn default_makes_exhaustive() {
        let d = Dsl::new();
        let e = Expr::case(
            Expr::bool(true),
            vec![
                Alt::simple(AltCon::Con(Ident::new("True")), Expr::Lit(1)),
                Alt::simple(AltCon::Default, Expr::Lit(0)),
            ],
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    #[test]
    fn literal_case_needs_default() {
        let d = Dsl::new();
        let no_default = Expr::case(
            Expr::Lit(1),
            vec![Alt::simple(AltCon::Lit(1), Expr::Lit(10))],
        );
        assert_eq!(
            bad(&no_default, &d.data_env).kind,
            LintErrorKind::NonExhaustiveCase
        );
        let with_default = Expr::case(
            Expr::Lit(1),
            vec![
                Alt::simple(AltCon::Lit(1), Expr::Lit(10)),
                Alt::simple(AltCon::Default, Expr::Lit(0)),
            ],
        );
        assert_eq!(ok(&with_default, &d.data_env), Type::Int);
    }

    /// The basic well-typed join: `join j x = x + 1 in jump j 41 Int`.
    #[test]
    fn simple_join_and_jump() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x.clone()],
                body: Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
            },
            Expr::jump(&j, vec![], vec![Expr::Lit(41)], Type::Int),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// Paper Sec. 3: `join j x = RHS in f (jump j True Int)` is ILL-typed —
    /// the jump sits in an argument position where Δ has been reset.
    #[test]
    fn jump_in_argument_position_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let f = d.binder("f", Type::fun(Type::Int, Type::Int));
        let x = d.binder("x", Type::bool());
        let join_body = Expr::app(
            Expr::var(&f.name),
            Expr::jump(&j, vec![], vec![Expr::bool(true)], Type::Int),
        );
        let e = Expr::lam(
            f,
            Expr::join1(
                JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![x],
                    body: Expr::Lit(0),
                },
                join_body,
            ),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// Paper Sec. 3: the function part of an application KEEPS Δ, so
    /// `(jump j True C2C) 'x'` is well-typed inside the join's body.
    #[test]
    fn jump_in_function_position_accepted() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::bool());
        // join j (x:Bool) = 0 in (jump j True (Int -> Int)) 7  : Int
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x],
                body: Expr::Lit(0),
            },
            Expr::app(
                Expr::jump(
                    &j,
                    vec![],
                    vec![Expr::bool(true)],
                    Type::fun(Type::Int, Type::Int),
                ),
                Expr::Lit(7),
            ),
        );
        // The jump annotation claims Int -> Int; applying to 7 gives Int,
        // matching the join RHS type Int.
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// Paper Sec. 3 "Gotcha!": a join whose RHS type differs from the body
    /// type is rejected by JBIND.
    #[test]
    fn join_result_mismatch_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        // join j = True in jump-free body of type Int
        let e = Expr::join1(
            JoinDef {
                name: j,
                ty_params: vec![],
                params: vec![],
                body: Expr::bool(true),
            },
            Expr::Lit(4),
        );
        let err = bad(&e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::JoinResultMismatch { .. }));
    }

    /// The callcc encoding (paper Sec. 9) must NOT type: a label free under
    /// a lambda.
    #[test]
    fn jump_under_lambda_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let y = d.binder("y", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x.clone()],
                body: Expr::var(&x.name),
            },
            // body: (\y. jump j y Int) 5  — jump under a lambda: rejected.
            Expr::app(
                Expr::lam(
                    y.clone(),
                    Expr::jump(&j, vec![], vec![Expr::var(&y.name)], Type::Int),
                ),
                Expr::Lit(5),
            ),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// Jumps survive in case scrutinees and branches (both keep Δ).
    #[test]
    fn jump_in_scrutinee_and_branches() {
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
                Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::bool()),
                vec![
                    Alt::simple(
                        AltCon::Con(Ident::new("True")),
                        Expr::jump(&j, vec![], vec![Expr::Lit(2)], Type::Int),
                    ),
                    Alt::simple(AltCon::Con(Ident::new("False")), Expr::Lit(0)),
                ],
            ),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// A polymorphic join point: `join j @a (x:a) = jump-free in …`.
    #[test]
    fn polymorphic_join() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let a = d.name("a");
        let x = Binder::new(d.name("x"), Type::Var(a.clone()));
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![a.clone()],
                params: vec![x],
                body: Expr::Lit(0),
            },
            Expr::jump(&j, vec![Type::bool()], vec![Expr::bool(false)], Type::Int),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
        // Wrong instantiation: passing a Bool where `a := Bool` but the
        // parameter was declared Int.
        let bad_e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![a],
                params: vec![Binder::new(d.name("x"), Type::Int)],
                body: Expr::Lit(0),
            },
            Expr::jump(&j, vec![Type::bool()], vec![Expr::bool(false)], Type::Int),
        );
        let err = bad(&bad_e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::Mismatch { .. }));
    }

    /// Recursive join points scope over their own right-hand sides.
    #[test]
    fn recursive_join_loop() {
        let mut d = Dsl::new();
        let env = d.data_env.clone();
        let e = d.joinrec_loop(
            "go",
            vec![("n", Type::Int)],
            |_, go, ps| {
                Expr::ite(
                    Expr::prim2(PrimOp::Le, Expr::var(&ps[0]), Expr::Lit(0)),
                    Expr::Lit(0),
                    Expr::jump(
                        go,
                        vec![],
                        vec![Expr::prim2(PrimOp::Sub, Expr::var(&ps[0]), Expr::Lit(1))],
                        Type::Int,
                    ),
                )
            },
            |_, go| Expr::jump(go, vec![], vec![Expr::Lit(10)], Type::Int),
        );
        assert_eq!(ok(&e, &env), Type::Int);
    }

    /// A NON-recursive join must not see itself (its own jump is unbound).
    #[test]
    fn nonrec_join_cannot_self_jump() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::jump(&j, vec![], vec![], Type::Int),
            },
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// Jumps with wrong arity are rejected.
    #[test]
    fn jump_arity_mismatch() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x],
                body: Expr::Lit(0),
            },
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let err = bad(&e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::Arity { .. }));
    }

    /// `let` right-hand sides reset Δ: a jump there is rejected.
    #[test]
    fn jump_in_let_rhs_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let v = d.binder("v", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::Lit(0),
            },
            Expr::let1(
                v.clone(),
                Expr::jump(&j, vec![], vec![], Type::Int),
                Expr::var(&v.name),
            ),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// …but `let` *bodies* keep Δ.
    #[test]
    fn jump_in_let_body_accepted() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let v = d.binder("v", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::Lit(0),
            },
            Expr::let1(v, Expr::Lit(5), Expr::jump(&j, vec![], vec![], Type::Int)),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// `type_of` accepts jumps to out-of-fragment labels: a jump's type is
    /// its annotation.
    #[test]
    fn type_of_is_lenient_about_labels() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let e = Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::bool());
        assert!(lint(&e, &d.data_env).is_err());
        let t = type_of(&e, &d.data_env, &HashMap::new()).unwrap();
        assert_eq!(t, Type::bool());
    }

    /// A variable on the spine must be spine-bound or in the lookup.
    #[test]
    fn type_of_still_requires_vars() {
        let mut d = Dsl::new();
        let x = d.name("x");
        let e = Expr::var(&x);
        assert!(type_of(&e, &d.data_env, &HashMap::new()).is_err());
        let types = HashMap::from([(x, Type::Int)]);
        assert_eq!(type_of(&e, &d.data_env, &types).unwrap(), Type::Int);
    }

    /// Arguments, constructor fields and every `case` alternative but the
    /// first are off the spine: `type_of` never looks at them, so an
    /// unknown variable or an ill-typed term there does not matter.
    #[test]
    fn type_of_never_visits_off_spine_subterms() {
        let mut d = Dsl::new();
        let none = HashMap::new();
        let x = d.binder("x", Type::Int);
        let y = d.name("y");
        let app = Expr::app(Expr::lam(x.clone(), Expr::var(&x.name)), Expr::var(&y));
        assert_eq!(type_of(&app, &d.data_env, &none).unwrap(), Type::Int);
        let just = d.just(Type::Int, Expr::var(&y));
        assert_eq!(
            type_of(&just, &d.data_env, &none).unwrap(),
            d.maybe_ty(Type::Int)
        );
        let case = Expr::case(
            Expr::bool(true),
            vec![
                Alt::simple(AltCon::Con(Ident::new("True")), Expr::Lit(1)),
                Alt::simple(
                    AltCon::Con(Ident::new("False")),
                    Expr::app(Expr::Lit(1), Expr::Lit(2)),
                ),
            ],
        );
        assert_eq!(type_of(&case, &d.data_env, &none).unwrap(), Type::Int);
    }

    /// Binders crossed on the spine type their own variables, with no help
    /// from the lookup.
    #[test]
    fn type_of_spine_binders_type_their_variables() {
        let mut d = Dsl::new();
        let none = HashMap::new();
        let z = d.binder("z", Type::Int);
        let let_z = Expr::let1(z.clone(), Expr::Lit(1), Expr::var(&z.name));
        assert_eq!(type_of(&let_z, &d.data_env, &none).unwrap(), Type::Int);
        let x = d.binder("x", Type::Int);
        let id = Expr::lam(x.clone(), Expr::var(&x.name));
        assert_eq!(
            type_of(&id, &d.data_env, &none).unwrap(),
            Type::fun(Type::Int, Type::Int)
        );
        let xs = d.name("xs");
        let h = d.binder("h", Type::Int);
        let t = d.binder("t", d.list_ty(Type::Int));
        let head = Expr::case(
            Expr::var(&xs),
            vec![Alt {
                con: AltCon::Con(Ident::new("Cons")),
                binders: vec![h.clone(), t],
                rhs: Expr::var(&h.name),
            }],
        );
        let types = HashMap::from([(xs, d.list_ty(Type::Int))]);
        assert_eq!(type_of(&head, &d.data_env, &types).unwrap(), Type::Int);
    }

    /// The error path breadcrumbs name the binders on the way to the
    /// fault, so a rollback reason (or a user diagnostic) points at the
    /// actual culprit binding, not just "somewhere in the term".
    #[test]
    fn error_path_names_the_culprit_binder() {
        let mut d = Dsl::new();
        let outer = d.binder("outer", Type::Int);
        let culprit = d.binder("culprit", Type::Int);
        let ghost = d.name("ghost");
        // let outer = 1 in let culprit = ghost in culprit
        //                                 ^^^^^ unbound
        let e = Expr::let1(
            outer.clone(),
            Expr::Lit(1),
            Expr::let1(culprit.clone(), Expr::var(&ghost), Expr::var(&culprit.name)),
        );
        let err = bad(&e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::UnboundVar(_)), "{err:?}");
        let outer_step = format!("let {} body", outer.name);
        let culprit_step = format!("let {} rhs", culprit.name);
        assert_eq!(err.path, vec![outer_step, culprit_step], "{err}");
        // And the rendered diagnostic carries the trail.
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("let {} rhs", culprit.name)),
            "diagnostic lost the breadcrumb: {msg}"
        );
    }
}
