//! Common-subexpression elimination.
//!
//! The paper's Sec. 8 argues for direct style over CPS partly because
//! "some transformations are much harder in CPS. For example, consider
//! common sub-expression elimination (CSE). In `f (g x) (g x)`, the
//! common sub-expression is easy to see. But it is much harder to find
//! in the CPS version." This pass is that argument made executable: a
//! straightforward top-down CSE over F_J that would indeed be awkward
//! over `letcont`-style code.
//!
//! The pass works on *pure* F_J (everything here is pure):
//!
//! * while traversing, keep a map from α-fingerprints of previously
//!   `let`-bound right-hand sides to their binders, and replace any
//!   later binding with an equal RHS by a reference to the first;
//! * additionally, if the two operands of an application/primop are
//!   syntactically equal non-trivial subexpressions, bind the first
//!   occurrence and reuse it (the `f (g x) (g x)` case).
//!
//! Scope discipline: a memoized binding is only reusable while its
//! binder is in scope, so the table is keyed per traversal path (we
//! thread an immutable-ish map, extended downward only). Expressions
//! under lambdas, join definitions, and case alternatives get their own
//! extension of the outer table (hoisting *out* of binders is Float
//! Out's job, not CSE's). Jumps and joins need no special handling —
//! another small direct-style dividend.

use fj_ast::FxHashMap;
use fj_ast::{alpha_fingerprint, free_vars, Binder, Expr, LetBind, Name, NameSupply, Type};

/// Result of running [`cse`]: the rewritten term and how many
/// subexpressions were deduplicated.
#[derive(Debug)]
pub struct CseOutcome {
    /// The rewritten term.
    pub expr: Expr,
    /// Number of replaced occurrences.
    pub replaced: usize,
}

/// Run common-subexpression elimination.
pub fn cse(e: &Expr, supply: &mut NameSupply) -> CseOutcome {
    let mut c = Cse {
        supply,
        replaced: 0,
    };
    let expr = c.go(e, &mut Memo::default()).unwrap_or_else(|| e.clone());
    CseOutcome {
        expr,
        replaced: c.replaced,
    }
}

/// Memoized expressions available in the current scope:
/// fingerprint → (binder name, binder type).
#[derive(Clone, Default)]
struct Memo {
    map: FxHashMap<u64, (Name, Type)>,
    /// Names bound since the memo was captured — entries whose expression
    /// mentions variables bound later must not be reused, but since we
    /// only *add* entries at `let` sites (whose RHS is in scope exactly
    /// where the memo flows), freshly-bound case/lambda binders instead
    /// *invalidate* nothing; we simply avoid adding entries that mention
    /// them out of scope by construction.
    _private: (),
}

struct Cse<'s> {
    supply: &'s mut NameSupply,
    replaced: usize,
}

/// Is an expression worth memoizing? Atoms and nullary constructors are
/// cheaper than a variable reference is worth; anything else counts.
fn worthwhile(e: &Expr) -> bool {
    match e {
        Expr::Var(_) | Expr::Lit(_) => false,
        Expr::Con(_, _, args) => !args.is_empty(),
        Expr::Lam(..) | Expr::TyLam(..) => false, // sharing closures changes nothing
        Expr::Jump(..) => false,                  // control, not value
        _ => e.size() >= 3,
    }
}

impl Cse<'_> {
    /// CSE below `e`; `None` when nothing below is replaced.
    fn go(&mut self, e: &Expr, memo: &mut Memo) -> Option<Expr> {
        crate::guard::poll();
        match e {
            // The `f (g x) (g x)` case: equal sizable operands share.
            Expr::Prim(op, args)
                if args.len() == 2
                    && worthwhile(&args[0])
                    && alpha_fingerprint(&args[0]) == alpha_fingerprint(&args[1]) =>
            {
                self.replaced += 1;
                let shared = self.go(&args[0], memo).unwrap_or_else(|| args[0].clone());
                let b = Binder::new(self.supply.fresh("cse"), Type::Int);
                let v = Expr::var(&b.name);
                Some(Expr::let1(b, shared, Expr::Prim(*op, vec![v.clone(), v])))
            }
            Expr::Let(LetBind::NonRec(b, rhs), body) => {
                let mut rhs2 = self.go(rhs, memo);
                let rhs_now = rhs2.as_ref().unwrap_or(rhs);
                // The memo entry this binding adds for its body, and the
                // entry it displaces (put back after the body walk: no
                // whole-map clone per binding).
                let mut scoped = None;
                if worthwhile(rhs_now) {
                    let fp = alpha_fingerprint(rhs_now);
                    match memo.map.get(&fp) {
                        Some((prev, prev_ty)) if prev_ty.alpha_eq(&b.ty) => {
                            // let x = E in C[x]  where  E was bound to
                            // `prev` before: rebind x to the variable.
                            self.replaced += 1;
                            rhs2 = Some(Expr::var(prev));
                        }
                        _ => {
                            // The RHS cannot mention the binder itself:
                            // the binding is non-recursive.
                            debug_assert!(!free_vars(rhs_now).contains(&b.name));
                            let entry = (b.name.clone(), b.ty.clone());
                            scoped = Some((fp, memo.map.insert(fp, entry)));
                        }
                    }
                }
                let body2 = self.go(body, memo);
                if let Some((fp, displaced)) = scoped {
                    match displaced {
                        Some(prev) => memo.map.insert(fp, prev),
                        None => memo.map.remove(&fp),
                    };
                }
                // `map_children` visits the right-hand side, then the body.
                let mut results = [rhs2, body2].into_iter();
                e.map_children(|_| results.next().flatten())
            }
            _ => e.map_children(|c| self.go(c, memo)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::{Dsl, PrimOp};
    use fj_eval::{run_int, EvalMode};

    const FUEL: u64 = 1_000_000;

    #[test]
    fn shares_equal_let_rhs() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let y = d.binder("y", Type::Int);
        // let x = 1+2 in let y = 1+2 in x * y
        let e = Expr::let1(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
            Expr::let1(
                y.clone(),
                Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
                Expr::prim2(PrimOp::Mul, Expr::var(&x.name), Expr::var(&y.name)),
            ),
        );
        let out = cse(&e, &mut d.supply);
        assert_eq!(out.replaced, 1, "{}", out.expr);
        assert_eq!(run_int(&out.expr, EvalMode::CallByName, FUEL).unwrap(), 9);
        // The second binding is now just a variable copy.
        match &out.expr {
            Expr::Let(_, body) => match &**body {
                Expr::Let(LetBind::NonRec(_, rhs), _) => {
                    assert!(matches!(&**rhs, Expr::Var(_)), "{}", out.expr)
                }
                other => panic!("expected inner let, got {other}"),
            },
            other => panic!("expected let, got {other}"),
        }
    }

    #[test]
    fn shares_twin_primop_operands() {
        let mut d = Dsl::new();
        let g = d.binder("g", Type::fun(Type::Int, Type::Int));
        let x = d.binder("x", Type::Int);
        // (\g. g 5 + g 5) (\x. x * 2) — the paper's `f (g x) (g x)`.
        let e = Expr::app(
            Expr::lam(
                g.clone(),
                Expr::prim2(
                    PrimOp::Add,
                    Expr::app(Expr::var(&g.name), Expr::Lit(5)),
                    Expr::app(Expr::var(&g.name), Expr::Lit(5)),
                ),
            ),
            Expr::lam(
                x.clone(),
                Expr::prim2(PrimOp::Mul, Expr::var(&x.name), Expr::Lit(2)),
            ),
        );
        let out = cse(&e, &mut d.supply);
        assert_eq!(out.replaced, 1, "{}", out.expr);
        assert_eq!(run_int(&out.expr, EvalMode::CallByName, FUEL).unwrap(), 20);
    }

    #[test]
    fn respects_types_and_triviality() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let y = d.binder("y", Type::Int);
        // Trivial RHSs are not shared (no gain).
        let e = Expr::let1(
            x,
            Expr::Lit(5),
            Expr::let1(y.clone(), Expr::Lit(5), Expr::var(&y.name)),
        );
        let out = cse(&e, &mut d.supply);
        assert_eq!(out.replaced, 0);
    }

    #[test]
    fn scope_blocks_reuse_across_lambdas_is_still_sound() {
        // The memo flows into lambdas (the binding is still in scope).
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let f = d.binder("f", Type::fun(Type::Int, Type::Int));
        let a = d.binder("a", Type::Int);
        // let x = 3*7 in let f = \a. let y = 3*7 in y + a in f x
        let y = d.binder("y", Type::Int);
        let e = Expr::let1(
            x.clone(),
            Expr::prim2(PrimOp::Mul, Expr::Lit(3), Expr::Lit(7)),
            Expr::let1(
                f.clone(),
                Expr::lam(
                    a.clone(),
                    Expr::let1(
                        y.clone(),
                        Expr::prim2(PrimOp::Mul, Expr::Lit(3), Expr::Lit(7)),
                        Expr::prim2(PrimOp::Add, Expr::var(&y.name), Expr::var(&a.name)),
                    ),
                ),
                Expr::app(Expr::var(&f.name), Expr::var(&x.name)),
            ),
        );
        let out = cse(&e, &mut d.supply);
        assert_eq!(out.replaced, 1, "{}", out.expr);
        assert_eq!(run_int(&out.expr, EvalMode::CallByName, FUEL).unwrap(), 42);
    }

    #[test]
    fn join_bodies_participate() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let p = d.binder("p", Type::Int);
        let x = d.binder("x", Type::Int);
        let y = d.binder("y", Type::Int);
        let e = Expr::let1(
            x.clone(),
            Expr::prim2(PrimOp::Mul, Expr::Lit(6), Expr::Lit(7)),
            Expr::join1(
                fj_ast::JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![p.clone()],
                    body: Expr::let1(
                        y.clone(),
                        Expr::prim2(PrimOp::Mul, Expr::Lit(6), Expr::Lit(7)),
                        Expr::prim2(PrimOp::Add, Expr::var(&y.name), Expr::var(&p.name)),
                    ),
                },
                Expr::jump(&j, vec![], vec![Expr::var(&x.name)], Type::Int),
            ),
        );
        let out = cse(&e, &mut d.supply);
        assert_eq!(out.replaced, 1, "{}", out.expr);
        assert_eq!(run_int(&out.expr, EvalMode::CallByName, FUEL).unwrap(), 84);
    }
}
