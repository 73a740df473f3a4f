//! The Float In pass: move `let` bindings inward, toward their use sites.
//!
//! This is the `float` axiom applied right-to-left. Its job in the join
//! story (paper Sec. 4) is to turn
//!
//! ```text
//! let f x = rhs in E[… f y … f z …]
//! ```
//!
//! into `E[let f x = rhs in … f y … f z …]`, after which the calls to `f`
//! are tail calls and *contification applies* — the pipeline then matches
//! Moby's local CPS conversion "in stages".
//!
//! Per the paper's Sec. 7 notes, the pass:
//!
//! * never moves a binding **into a lambda** (that would duplicate work
//!   under call-by-name);
//! * never touches `join` bindings, and never pushes a `let` into a
//!   position that would **un-saturate** a jump or call;
//! * only sinks into a `case` branch when exactly one branch uses the
//!   binding (sinking into several duplicates code).

use fj_ast::{mentions_any, Expr, LetBind, Name};

/// Apply Float In over a whole term.
pub fn float_in(e: &Expr) -> Expr {
    float_in_counting(e).0
}

/// As [`float_in`], also reporting how many `let` bindings actually moved
/// inward (each sinking step counts once, so a binding that travels past
/// two constructs counts twice — it is a rewrite-firing count, matching
/// the other counters of [`crate::RewriteStats`]).
pub fn float_in_counting(e: &Expr) -> (Expr, u64) {
    let mut moved = 0u64;
    let out = go(e, &mut moved).unwrap_or_else(|| e.clone());
    (out, moved)
}

/// Float In below `e`, bottom-up; `None` when no binding moves.
fn go(e: &Expr, moved: &mut u64) -> Option<Expr> {
    crate::guard::poll();
    let mapped = e.map_children(|c| go(c, moved));
    let Expr::Let(bind, body) = mapped.as_ref().unwrap_or(e) else {
        return mapped;
    };
    sink(bind, body, moved).or(mapped)
}

/// Push `let bind` as deep into `body` as safely possible; a recursive
/// group moves intact. `None` when it cannot move at all.
fn sink(bind: &LetBind, body: &Expr, moved: &mut u64) -> Option<Expr> {
    // Short-circuiting occurrence scans — sound under the optimizer's
    // globally-unique-binders invariant (see `mentions_any`); no
    // free-variable set is built per query.
    let names: Vec<Name> = bind.binders().iter().map(|b| b.name.clone()).collect();
    let uses = |e: &Expr| mentions_any(e, &names);
    // Sink one level further down, or stop right here.
    let mut sink_or_stop = |e: &Expr| {
        sink(bind, e, moved).unwrap_or_else(|| Expr::Let(bind.clone(), Expr::share(e.clone())))
    };
    match body {
        // case e of alts: sink into the scrutinee, or into the single
        // branch that uses the binding.
        Expr::Case(s, alts) => {
            let in_scrut = uses(s);
            let using: Vec<usize> = alts
                .iter()
                .enumerate()
                .filter(|(_, a)| uses(&a.rhs))
                .map(|(i, _)| i)
                .collect();
            if in_scrut && using.is_empty() {
                let s2 = sink_or_stop(s);
                *moved += 1;
                return Some(Expr::case(s2, alts.clone()));
            }
            if in_scrut || using.len() != 1 {
                return None;
            }
            let mut alts2 = alts.clone();
            alts2[using[0]].rhs = sink_or_stop(&alts[using[0]].rhs);
            *moved += 1;
            Some(Expr::Case(s.clone(), alts2))
        }
        // let x = r in body: sink past it when r doesn't use the binding —
        // but only when the binding keeps travelling below. Swapping two
        // adjacent independent bindings is not progress, and committing
        // the swap unconditionally would flip their order on every pass
        // (the pipeline would never observe a Float In fixpoint).
        Expr::Let(bind2, body2) => {
            if bind2.pairs().iter().any(|(_, r)| uses(r)) {
                return None;
            }
            let sunk = sink(bind, body2, moved)?;
            *moved += 1;
            Some(Expr::Let(bind2.clone(), Expr::share(sunk)))
        }
        // join j … = d in body: sink past the join into its body when the
        // binding isn't used by any definition. Never sink INTO a join
        // definition: a join RHS runs once per jump, so moving work there
        // duplicates it (the same reason we never sink into lambdas).
        Expr::Join(jb, body2) => {
            if jb.defs().iter().any(|d| uses(&d.body)) || !uses(body2) {
                return None;
            }
            let sunk = sink_or_stop(body2);
            *moved += 1;
            Some(Expr::Join(jb.clone(), Expr::share(sunk)))
        }
        // f a: sink a non-recursive binding into the function part (an
        // evaluation-context hole). Never into the argument (sharing) and
        // never in a way that could separate a function from its
        // arguments (un-saturation).
        Expr::App(f, a)
            if !bind.is_rec() && uses(f) && !uses(a) && !matches!(&**f, Expr::Var(_)) =>
        {
            let f2 = sink_or_stop(f);
            *moved += 1;
            Some(Expr::App(Expr::share(f2), a.clone()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::{AltCon, Dsl, PrimOp, Type};
    use fj_eval::{run_int, EvalMode};

    #[test]
    fn sinks_into_single_branch() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        // let x = 1 + 2 in if True then x else 0
        let e = Expr::let1(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
            Expr::ite(Expr::bool(true), Expr::var(&x.name), Expr::Lit(0)),
        );
        let r = float_in(&e);
        // The let moved inside the True branch.
        match &r {
            Expr::Case(_, alts) => {
                assert!(matches!(alts[0].rhs, Expr::Let(..)), "got:\n{r}");
                assert!(matches!(alts[1].rhs, Expr::Lit(0)));
            }
            other => panic!("expected case at top, got:\n{other}"),
        }
        assert_eq!(run_int(&r, EvalMode::CallByName, 10_000).unwrap(), 3);
    }

    #[test]
    fn does_not_sink_into_multiple_branches() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let e = Expr::let1(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
            Expr::ite(Expr::bool(true), Expr::var(&x.name), Expr::var(&x.name)),
        );
        let r = float_in(&e);
        assert!(matches!(r, Expr::Let(..)), "must stay outside:\n{r}");
    }

    #[test]
    fn does_not_sink_into_lambda() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let y = d.binder("y", Type::Int);
        let e = Expr::let1(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
            Expr::lam(y, Expr::var(&x.name)),
        );
        let r = float_in(&e);
        assert!(
            matches!(r, Expr::Let(..)),
            "must stay outside lambdas:\n{r}"
        );
    }

    /// The Moby staging example (Sec. 4): float a function definition
    /// inward past an evaluation context so its calls become tail calls.
    #[test]
    fn float_in_exposes_tail_calls() {
        let mut d = Dsl::new();
        let f = d.binder("f", Type::fun(Type::Int, Type::Int));
        let x = d.binder("x", Type::Int);
        // let f = \x. x + 1 in case (f 1) of { 2 -> 10; _ -> 20 }
        //    — f is used (only) in the scrutinee; Float In moves the
        //      binding into the scrutinee position.
        let e = Expr::let1(
            f.clone(),
            Expr::lam(
                x.clone(),
                Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
            ),
            Expr::case(
                Expr::app(Expr::var(&f.name), Expr::Lit(1)),
                vec![
                    fj_ast::Alt::simple(AltCon::Lit(2), Expr::Lit(10)),
                    fj_ast::Alt::simple(AltCon::Default, Expr::Lit(20)),
                ],
            ),
        );
        let r = float_in(&e);
        match &r {
            Expr::Case(s, _) => assert!(matches!(&**s, Expr::Let(..)), "got:\n{r}"),
            other => panic!("expected case at top, got:\n{other}"),
        }
        assert_eq!(run_int(&r, EvalMode::CallByName, 10_000).unwrap(), 10);
    }

    #[test]
    fn rec_group_sinks_into_branch() {
        let mut d = Dsl::new();
        let loop_e = d.letrec_loop(
            "go",
            vec![("n", Type::Int)],
            Type::Int,
            |_, go, ps| {
                Expr::ite(
                    Expr::prim2(PrimOp::Le, Expr::var(&ps[0]), Expr::Lit(0)),
                    Expr::Lit(0),
                    Expr::app(
                        Expr::var(go),
                        Expr::prim2(PrimOp::Sub, Expr::var(&ps[0]), Expr::Lit(1)),
                    ),
                )
            },
            |_, go| Expr::app(Expr::var(go), Expr::Lit(3)),
        );
        // if True then <loop> else 7 — with the letrec pre-hoisted outside.
        match loop_e {
            Expr::Let(bind, body) => {
                let LetBind::Rec(binds) = bind else {
                    panic!("rec expected")
                };
                let outer = Expr::ite(Expr::bool(true), Expr::unshare(body), Expr::Lit(7));
                let e = Expr::letrec(binds, outer);
                let r = float_in(&e);
                match &r {
                    Expr::Case(_, alts) => {
                        assert!(matches!(alts[0].rhs, Expr::Let(..)), "got:\n{r}");
                    }
                    other => panic!("expected case, got:\n{other}"),
                }
                assert_eq!(run_int(&r, EvalMode::CallByName, 10_000).unwrap(), 0);
            }
            other => panic!("expected letrec, got:\n{other}"),
        }
    }
}
