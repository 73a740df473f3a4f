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

use fj_ast::{mentions_any, Alt, Binder, Expr, LetBind, Name};

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
    let out = go(e, &mut moved);
    (out, moved)
}

fn go(e: &Expr, moved: &mut u64) -> Expr {
    crate::guard::poll();
    match e {
        Expr::Var(_) | Expr::Lit(_) => e.clone(),
        Expr::Prim(op, args) => Expr::Prim(*op, args.iter().map(|a| go(a, moved)).collect()),
        Expr::Con(c, tys, args) => Expr::Con(
            c.clone(),
            tys.clone(),
            args.iter().map(|a| go(a, moved)).collect(),
        ),
        Expr::Lam(b, body) => Expr::lam(b.clone(), go(body, moved)),
        Expr::TyLam(a, body) => Expr::ty_lam(a.clone(), go(body, moved)),
        Expr::App(f, a) => Expr::app(go(f, moved), go(a, moved)),
        Expr::TyApp(f, t) => Expr::ty_app(go(f, moved), t.clone()),
        Expr::Case(s, alts) => Expr::case(
            go(s, moved),
            alts.iter()
                .map(|a| Alt {
                    con: a.con.clone(),
                    binders: a.binders.clone(),
                    rhs: go(&a.rhs, moved),
                })
                .collect(),
        ),
        Expr::Join(jb, body) => {
            let mut jb2 = jb.clone();
            for d in jb2.defs_mut() {
                d.body = go(&d.body, moved);
            }
            Expr::Join(jb2, Expr::share(go(body, moved)))
        }
        Expr::Jump(j, tys, args, res) => Expr::Jump(
            j.clone(),
            tys.clone(),
            args.iter().map(|a| go(a, moved)).collect(),
            res.clone(),
        ),
        Expr::Let(bind, body) => match bind {
            LetBind::NonRec(b, rhs) => {
                let rhs2 = go(rhs, moved);
                let body2 = go(body, moved);
                sink(b.clone(), rhs2, body2, moved)
            }
            LetBind::Rec(binds) => {
                let binds2: Vec<(Binder, Expr)> = binds
                    .iter()
                    .map(|(b, rhs)| (b.clone(), go(rhs, moved)))
                    .collect();
                let body2 = go(body, moved);
                sink_rec(binds2, body2, moved)
            }
        },
    }
}

fn uses(e: &Expr, names: &[&Binder]) -> bool {
    // Short-circuiting occurrence scan — sound under the optimizer's
    // globally-unique-binders invariant (see `mentions_any`); no
    // free-variable set is built per query.
    let names: Vec<Name> = names.iter().map(|b| b.name.clone()).collect();
    mentions_any(e, &names)
}

/// Push `let b = rhs` as deep into `body` as safely possible.
fn sink(b: Binder, rhs: Expr, body: Expr, moved: &mut u64) -> Expr {
    let names = [&b];
    match body {
        // case e of alts: sink into the scrutinee, or into the single
        // branch that uses the binding.
        Expr::Case(s, alts) => {
            let in_scrut = uses(&s, &names);
            let using: Vec<usize> = alts
                .iter()
                .enumerate()
                .filter(|(_, a)| uses(&a.rhs, &names))
                .map(|(i, _)| i)
                .collect();
            if in_scrut && using.is_empty() {
                *moved += 1;
                return Expr::case(sink(b, rhs, Expr::unshare(s), moved), alts);
            }
            if !in_scrut && using.len() == 1 {
                let target = using[0];
                *moved += 1;
                let alts2: Vec<Alt> = alts
                    .into_iter()
                    .enumerate()
                    .map(|(i, a)| {
                        if i == target {
                            Alt {
                                con: a.con.clone(),
                                binders: a.binders.clone(),
                                rhs: sink(b.clone(), rhs.clone(), a.rhs, moved),
                            }
                        } else {
                            a
                        }
                    })
                    .collect();
                return Expr::case(Expr::unshare(s), alts2);
            }
            Expr::let1(b, rhs, Expr::Case(s, alts))
        }
        // let x = r in body: sink past it when r doesn't use b — but only
        // when the binding keeps travelling below. Swapping two adjacent
        // independent bindings is not progress, and committing the swap
        // unconditionally would flip their order on every pass (the
        // pipeline would never observe a Float In fixpoint).
        Expr::Let(bind2, body2) => {
            let rhs_uses = bind2.pairs().iter().any(|(_, r)| uses(r, &names));
            if !rhs_uses {
                let before = *moved;
                let sunk = sink(b.clone(), rhs.clone(), (*body2).clone(), moved);
                if *moved > before {
                    *moved += 1;
                    return Expr::Let(bind2, Expr::share(sunk));
                }
            }
            Expr::let1(b, rhs, Expr::Let(bind2, body2))
        }
        // join j … = d in body: sink past the join into its body when the
        // binding isn't used by any definition. Never sink INTO a join
        // definition: a join RHS runs once per jump, so moving work there
        // duplicates it (the same reason we never sink into lambdas).
        Expr::Join(jb, body2) => {
            let defs_use = jb.defs().iter().any(|d| uses(&d.body, &names));
            if !defs_use && uses(&body2, &names) {
                *moved += 1;
                return Expr::Join(jb, Expr::share(sink(b, rhs, Expr::unshare(body2), moved)));
            }
            Expr::let1(b, rhs, Expr::Join(jb, body2))
        }
        // f a: sink into the function part (an evaluation-context hole).
        // Never into the argument (sharing) and never in a way that could
        // separate a function from its arguments (un-saturation).
        Expr::App(f, a) => {
            if uses(&f, &names) && !uses(&a, &names) && !matches!(&*f, Expr::Var(_)) {
                *moved += 1;
                Expr::app(sink(b, rhs, Expr::unshare(f), moved), Expr::unshare(a))
            } else {
                Expr::let1(b, rhs, Expr::App(f, a))
            }
        }
        other => Expr::let1(b, rhs, other),
    }
}

/// Push a recursive group inward (same rules, moving the group intact).
fn sink_rec(binds: Vec<(Binder, Expr)>, body: Expr, moved: &mut u64) -> Expr {
    let binders: Vec<&Binder> = binds.iter().map(|(b, _)| b).collect();
    match body {
        Expr::Case(s, alts) => {
            let in_scrut = uses(&s, &binders);
            let using: Vec<usize> = alts
                .iter()
                .enumerate()
                .filter(|(_, a)| uses(&a.rhs, &binders))
                .map(|(i, _)| i)
                .collect();
            if in_scrut && using.is_empty() {
                *moved += 1;
                return Expr::case(sink_rec(binds, Expr::unshare(s), moved), alts);
            }
            if !in_scrut && using.len() == 1 {
                let target = using[0];
                *moved += 1;
                let alts2: Vec<Alt> = alts
                    .into_iter()
                    .enumerate()
                    .map(|(i, a)| {
                        if i == target {
                            Alt {
                                con: a.con.clone(),
                                binders: a.binders.clone(),
                                rhs: sink_rec(binds.clone(), a.rhs, moved),
                            }
                        } else {
                            a
                        }
                    })
                    .collect();
                return Expr::case(Expr::unshare(s), alts2);
            }
            Expr::letrec(binds, Expr::Case(s, alts))
        }
        // As in `sink`: only hop past an independent binding when the
        // group keeps travelling below — a bare order swap is not
        // progress and would ping-pong between passes.
        Expr::Let(bind2, body2) => {
            let rhs_uses = bind2.pairs().iter().any(|(_, r)| uses(r, &binders));
            if !rhs_uses {
                let before = *moved;
                let sunk = sink_rec(binds.clone(), (*body2).clone(), moved);
                if *moved > before {
                    *moved += 1;
                    return Expr::Let(bind2, Expr::share(sunk));
                }
            }
            Expr::letrec(binds, Expr::Let(bind2, body2))
        }
        Expr::Join(jb, body2) => {
            // As in `sink`: never move bindings into join definitions.
            let defs_use = jb.defs().iter().any(|d| uses(&d.body, &binders));
            if !defs_use && uses(&body2, &binders) {
                *moved += 1;
                return Expr::Join(
                    jb,
                    Expr::share(sink_rec(binds, Expr::unshare(body2), moved)),
                );
            }
            Expr::letrec(binds, Expr::Join(jb, body2))
        }
        other => Expr::letrec(binds, other),
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
