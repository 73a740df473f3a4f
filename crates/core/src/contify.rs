//! Contification (paper Sec. 4, Fig. 5): inferring join points.
//!
//! A `let`-bound function all of whose calls are *saturated tail calls*
//! can be turned into a join point — its calls into jumps — without
//! changing the meaning of the program: when a jump fires, there is
//! nothing on the stack to discard. The paper's algorithm is deliberately
//! simple ("we *only look for tail calls*", unlike Fluet–Weeks or
//! Kennedy); in concert with the simplifier and Float In it covers the
//! same ground as Moby's local CPS conversion.
//!
//! Side conditions, straight from Fig. 5:
//!
//! * every occurrence of `f` (or, for a recursive group, of any `fᵢ`) is a
//!   call with exactly the right number of type and value arguments,
//!   sitting in a **tail position** of the `let` body (for recursive
//!   groups, also of each right-hand side);
//! * `f` does not occur in the arguments of those calls, in case
//!   scrutinees, in other bindings' right-hand sides, or under lambdas;
//! * the result type of `f`'s body equals the type of the `let` body —
//!   contification "can fail to occur if some function f is polymorphic
//!   in its return type".
//!
//! The typing proviso is read off `f`'s annotation `∀a⃗. σ⃗ → τ`, with as
//! many `∀`s and arrows peeled as the right-hand side has type and value
//! parameters: `τ` must not mention the `a⃗` (and, in a recursive group,
//! must be the same for every member). A saturated call then has type
//! `τ` whatever its type arguments, so a tail call in the `let` body
//! makes `τ` the body's type, and `τ` annotates the new jumps. No type is
//! reconstructed. A group the `let` body never calls is therefore not a
//! candidate: it is dead, and the simplifier's `drop` removes it.

use fj_ast::{mentions_any, Alt, Binder, Expr, JoinBind, JoinDef, LetBind, Name, SpineArg, Type};

/// Run contification over a whole term, bottom-up, converting every
/// eligible `let` into a `join`.
pub fn contify(e: &Expr) -> Expr {
    contify_counting(e).0
}

/// Like [`contify`], also reporting how many bindings were converted.
pub fn contify_counting(e: &Expr) -> (Expr, usize) {
    let mut converted = 0;
    let out = go(e, &mut converted);
    (out, converted)
}

/// The η-shape of a candidate: `Λa⃗. λ(x:σ)⃗. u`.
struct FunShape<'a> {
    ty_params: Vec<Name>,
    params: Vec<Binder>,
    body: &'a Expr,
}

fn decompose_fun(rhs: &Expr) -> FunShape<'_> {
    let mut ty_params = Vec::new();
    let mut cur = rhs;
    while let Expr::TyLam(a, b) = cur {
        ty_params.push(a.clone());
        cur = b;
    }
    let mut params = Vec::new();
    while let Expr::Lam(b, body) = cur {
        params.push(b.clone());
        cur = body;
    }
    FunShape {
        ty_params,
        params,
        body: cur,
    }
}

/// The Fig. 5 typing proviso for one candidate: peel `n_ty` `∀`s and
/// `n_val` arrows off its annotation, and return what is left if it
/// mentions none of the peeled type variables.
fn result_ty(ty: &Type, n_ty: usize, n_val: usize) -> Option<&Type> {
    let mut peeled = Vec::with_capacity(n_ty);
    let mut t = ty;
    for _ in 0..n_ty {
        let Type::Forall(a, body) = t else {
            return None;
        };
        peeled.push(a);
        t = body;
    }
    for _ in 0..n_val {
        let Type::Fun(_, res) = t else { return None };
        t = res;
    }
    let fvs = t.free_vars();
    (!peeled.iter().any(|a| fvs.contains(a))).then_some(t)
}

fn go(e: &Expr, converted: &mut usize) -> Expr {
    crate::guard::poll();
    let mut sub = |e: &Expr| go(e, converted);
    match e {
        Expr::Var(_) | Expr::Lit(_) => e.clone(),
        Expr::Prim(op, args) => Expr::Prim(*op, args.iter().map(&mut sub).collect()),
        Expr::Con(c, tys, args) => {
            Expr::Con(c.clone(), tys.clone(), args.iter().map(&mut sub).collect())
        }
        Expr::Lam(b, body) => Expr::lam(b.clone(), sub(body)),
        Expr::TyLam(a, body) => Expr::ty_lam(a.clone(), sub(body)),
        Expr::App(f, a) => Expr::app(sub(f), sub(a)),
        Expr::TyApp(f, t) => Expr::ty_app(sub(f), t.clone()),
        Expr::Case(s, alts) => {
            let s2 = sub(s);
            let alts2 = alts
                .iter()
                .map(|alt| Alt {
                    con: alt.con.clone(),
                    binders: alt.binders.clone(),
                    rhs: sub(&alt.rhs),
                })
                .collect();
            Expr::case(s2, alts2)
        }
        Expr::Join(jb, body) => {
            let mut jb2 = jb.clone();
            for d in jb2.defs_mut() {
                d.body = sub(&d.body);
            }
            Expr::Join(jb2, Expr::share(sub(body)))
        }
        Expr::Jump(j, tys, args, res) => Expr::Jump(
            j.clone(),
            tys.clone(),
            args.iter().map(&mut sub).collect(),
            res.clone(),
        ),
        Expr::Let(bind, body) => {
            // Children first: inner contifications can expose outer ones.
            let bind2 = match bind {
                LetBind::NonRec(b, rhs) => LetBind::NonRec(b.clone(), Expr::share(sub(rhs))),
                LetBind::Rec(binds) => {
                    LetBind::Rec(binds.iter().map(|(b, rhs)| (b.clone(), sub(rhs))).collect())
                }
            };
            let body2 = sub(body);
            match try_contify(&bind2, &body2) {
                Some(joined) => {
                    *converted += 1;
                    joined
                }
                None => Expr::Let(bind2, Expr::share(body2)),
            }
        }
    }
}

/// The `join` that `let bind in body` becomes, or `None` if the group is
/// not a candidate. Shape and annotation are checked before any walk.
fn try_contify(bind: &LetBind, body: &Expr) -> Option<Expr> {
    let shapes: Vec<(&Binder, FunShape)> = bind
        .pairs()
        .into_iter()
        .map(|(b, rhs)| (b, decompose_fun(rhs)))
        .collect();
    // Only functions are candidates (a 0-ary "join" would trade
    // call-by-need sharing for re-evaluation).
    if shapes.iter().any(|(_, s)| s.params.is_empty()) {
        return None;
    }
    let mut res_ty: Option<&Type> = None;
    for (b, s) in &shapes {
        let t = result_ty(&b.ty, s.ty_params.len(), s.params.len())?;
        if res_ty.is_some_and(|r| !r.alpha_eq(t)) {
            return None;
        }
        res_ty = Some(t);
    }
    let targets = Targets::new(
        shapes
            .iter()
            .map(|(b, s)| (b.name.clone(), s.ty_params.len(), s.params.len()))
            .collect(),
        res_ty?.clone(),
    );
    // Without a call in the body nothing ties `τ` to the body's type.
    if !targets.mentions(body) {
        return None;
    }
    let new_body = tailify(body, &targets)?;
    let mut defs = Vec::with_capacity(shapes.len());
    for (b, s) in shapes {
        // A recursive group's right-hand sides must tailify too; a
        // non-recursive `f` must not occur in its own.
        let def_body = if bind.is_rec() {
            tailify(s.body, &targets)?
        } else if targets.mentions(s.body) {
            return None;
        } else {
            s.body.clone()
        };
        defs.push(JoinDef {
            name: b.name.clone(),
            ty_params: s.ty_params,
            params: s.params,
            body: def_body,
        });
    }
    Some(match bind {
        LetBind::NonRec(..) => Expr::join1(defs.pop()?, new_body),
        LetBind::Rec(_) => Expr::Join(JoinBind::Rec(defs), Expr::share(new_body)),
    })
}

struct Targets {
    /// (name, number of type params, number of value params).
    arities: Vec<(Name, usize, usize)>,
    /// The candidate names alone, for occurrence scans.
    names: Vec<Name>,
    /// Result-type annotation for the new jumps.
    res_ty: Type,
}

impl Targets {
    fn new(arities: Vec<(Name, usize, usize)>, res_ty: Type) -> Targets {
        let names = arities.iter().map(|(n, _, _)| n.clone()).collect();
        Targets {
            arities,
            names,
            res_ty,
        }
    }

    fn arity_of(&self, n: &Name) -> Option<(usize, usize)> {
        self.arities
            .iter()
            .find(|(m, _, _)| m == n)
            .map(|(_, t, v)| (*t, *v))
    }

    fn mentions(&self, e: &Expr) -> bool {
        // Short-circuiting scan; no free-variable set per query.
        mentions_any(e, &self.names)
    }
}

/// Match `f @φ₁…@φₖ e₁…eₘ` with exactly the expected arity.
fn match_call(e: &Expr, targets: &Targets) -> Option<(Name, Vec<Type>, Vec<Expr>)> {
    let (head, spine) = e.collect_app_spine();
    let Expr::Var(f) = head else { return None };
    let (n_ty, n_val) = targets.arity_of(f)?;
    if spine.len() != n_ty + n_val {
        return None;
    }
    let mut tys = Vec::with_capacity(n_ty);
    let mut args = Vec::with_capacity(n_val);
    for (i, s) in spine.into_iter().enumerate() {
        match s {
            SpineArg::Ty(t) if i < n_ty => tys.push(t.clone()),
            SpineArg::Term(a) if i >= n_ty => args.push(a.clone()),
            _ => return None,
        }
    }
    Some((f.clone(), tys, args))
}

/// The paper's `tail` function: walk the tail contexts of `e`, turning
/// saturated calls to the targets into jumps; fail (`None`) if any target
/// occurs anywhere else.
fn tailify(e: &Expr, targets: &Targets) -> Option<Expr> {
    if let Some((f, tys, args)) = match_call(e, targets) {
        // Arguments must not mention any target (typing forbids it anyway).
        if args.iter().any(|a| targets.mentions(a)) {
            return None;
        }
        return Some(Expr::jump(&f, tys, args, targets.res_ty.clone()));
    }
    match e {
        Expr::Case(s, alts) => {
            if targets.mentions(s) {
                return None;
            }
            let alts2 = alts
                .iter()
                .map(|a| {
                    Some(Alt {
                        con: a.con.clone(),
                        binders: a.binders.clone(),
                        rhs: tailify(&a.rhs, targets)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Expr::case((**s).clone(), alts2))
        }
        Expr::Let(bind, body) => {
            for (_, rhs) in bind.pairs() {
                if targets.mentions(rhs) {
                    return None;
                }
            }
            Some(Expr::Let(
                bind.clone(),
                Expr::share(tailify(body, targets)?),
            ))
        }
        Expr::Join(jb, body) => {
            let mut jb2 = jb.clone();
            for d in jb2.defs_mut() {
                d.body = tailify(&d.body, targets)?;
            }
            Some(Expr::Join(jb2, Expr::share(tailify(body, targets)?)))
        }
        other => {
            if targets.mentions(other) {
                None
            } else {
                Some(other.clone())
            }
        }
    }
}
