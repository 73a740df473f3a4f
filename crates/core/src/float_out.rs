//! The Float Out pass: move `let` bindings outward (let-floating).
//!
//! A simplified rendition of GHC's full-laziness transform [Peyton Jones,
//! Partain & Santos 1996]: a `let` binding whose right-hand side does not
//! mention the enclosing lambda's binder is hoisted above the lambda, so
//! it is allocated once instead of once per call.
//!
//! Per the paper's Sec. 7 notes, **`join` bindings are left alone**:
//! "Moving a join binding outwards … risks destroying the join point, so
//! we modified Float Out to leave join bindings alone in most cases."
//! This pass therefore only ever moves `let`s, and never moves one out of
//! a join body (which could turn a tail call shape into a captured one).

use fj_ast::{occurs_free, Expr, LetBind};

/// Apply Float Out over a whole term.
pub fn float_out(e: &Expr) -> Expr {
    float_out_counting(e).0
}

/// As [`float_out`], also counting the `let` bindings hoisted past a
/// lambda (for pass-level reporting).
pub fn float_out_counting(e: &Expr) -> (Expr, u64) {
    let mut hoisted = 0u64;
    let out = go(e, &mut hoisted).unwrap_or_else(|| e.clone());
    (out, hoisted)
}

/// Float Out below `e`, bottom-up; `None` when nothing is hoisted.
fn go(e: &Expr, hoisted: &mut u64) -> Option<Expr> {
    crate::guard::poll();
    let mapped = e.map_children(|c| go(c, hoisted));
    let Expr::Lam(b, body) = mapped.as_ref().unwrap_or(e) else {
        return mapped;
    };
    // Peel the leading non-recursive `let`s whose right-hand sides do not
    // use the lambda's binder.
    let mut floated = Vec::new();
    let mut rest = body;
    while let Expr::Let(LetBind::NonRec(fb, rhs), inner) = &**rest {
        if occurs_free(&b.name, rhs) {
            break;
        }
        floated.push((fb, rhs));
        rest = inner;
    }
    if floated.is_empty() {
        return mapped;
    }
    *hoisted += floated.len() as u64;
    let lam = Expr::Lam(b.clone(), rest.clone());
    Some(floated.into_iter().rev().fold(lam, |acc, (fb, rhs)| {
        Expr::Let(LetBind::NonRec(fb.clone(), rhs.clone()), Expr::share(acc))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::{Dsl, PrimOp, Type};
    use fj_eval::{run, run_int, EvalMode};

    #[test]
    fn hoists_invariant_binding_out_of_lambda() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let k = d.binder("k", Type::Int);
        // \x. let k = 1 + 2 in x + k   ⇒   let k = 1 + 2 in \x. x + k
        let e = Expr::lam(
            x.clone(),
            Expr::let1(
                k.clone(),
                Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
                Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::var(&k.name)),
            ),
        );
        let r = float_out(&e);
        assert!(matches!(r, Expr::Let(..)), "binding must hoist:\n{r}");
        let apply = Expr::app(r, Expr::Lit(10));
        assert_eq!(run_int(&apply, EvalMode::CallByName, 10_000).unwrap(), 13);
    }

    #[test]
    fn keeps_dependent_binding_inside() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let k = d.binder("k", Type::Int);
        let e = Expr::lam(
            x.clone(),
            Expr::let1(
                k.clone(),
                Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(2)),
                Expr::var(&k.name),
            ),
        );
        let r = float_out(&e);
        assert!(
            matches!(r, Expr::Lam(..)),
            "dependent binding must stay:\n{r}"
        );
    }

    #[test]
    fn join_bindings_never_move() {
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
            |_, go| Expr::jump(go, vec![], vec![Expr::Lit(5)], Type::Int),
        );
        let r = float_out(&e);
        assert!(matches!(r, Expr::Join(..)));
        assert!(fj_check::lint(&r, &env).is_ok());
        assert_eq!(
            run(&r, EvalMode::CallByValue, 10_000)
                .unwrap()
                .metrics
                .total_allocs(),
            0
        );
    }

    #[test]
    fn hoist_reduces_per_call_allocation() {
        let mut d = Dsl::new();
        let f = d.binder("f", Type::fun(Type::Int, Type::Int));
        let x = d.binder("x", Type::Int);
        let k = d.binder("k", Type::fun(Type::Int, Type::Int));
        let y = d.binder("y", Type::Int);
        // let f = \x. let k = \y. y + 1 in k x in f 1 + f 2
        let e = Expr::let1(
            f.clone(),
            Expr::lam(
                x.clone(),
                Expr::let1(
                    k.clone(),
                    Expr::lam(
                        y.clone(),
                        Expr::prim2(PrimOp::Add, Expr::var(&y.name), Expr::Lit(1)),
                    ),
                    Expr::app(Expr::var(&k.name), Expr::var(&x.name)),
                ),
            ),
            Expr::prim2(
                PrimOp::Add,
                Expr::app(Expr::var(&f.name), Expr::Lit(1)),
                Expr::app(Expr::var(&f.name), Expr::Lit(2)),
            ),
        );
        let r = float_out(&e);
        let before = run(&e, EvalMode::CallByValue, 100_000).unwrap();
        let after = run(&r, EvalMode::CallByValue, 100_000).unwrap();
        assert_eq!(before.value, after.value);
        assert!(
            after.metrics.total_allocs() < before.metrics.total_allocs(),
            "hoisting should save the per-call closure: {} vs {}",
            after.metrics,
            before.metrics
        );
    }
}
