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

use crate::OptError;
use fj_ast::{
    mentions_any, occurs_free, Alt, Binder, DataEnv, Expr, JoinBind, JoinDef, LetBind, Name,
    SpineArg, Type,
};
use fj_check::{type_of, Gamma};

/// Run contification over a whole term, bottom-up, converting every
/// eligible `let` into a `join`.
///
/// # Errors
///
/// Returns [`OptError::Type`] if type reconstruction fails (ill-typed
/// input).
pub fn contify(e: &Expr, data_env: &DataEnv) -> Result<Expr, OptError> {
    let mut c = Contifier {
        data_env,
        gamma: Gamma::new(),
        converted: 0,
    };
    c.go(e)
}

/// Like [`contify`], also reporting how many bindings were converted.
///
/// # Errors
///
/// As [`contify`].
pub fn contify_counting(e: &Expr, data_env: &DataEnv) -> Result<(Expr, usize), OptError> {
    let mut c = Contifier {
        data_env,
        gamma: Gamma::new(),
        converted: 0,
    };
    let out = c.go(e)?;
    Ok((out, c.converted))
}

/// The η-shape of a candidate: `Λa⃗. λ(x:σ)⃗. u`.
struct FunShape {
    ty_params: Vec<Name>,
    params: Vec<Binder>,
    body: Expr,
}

fn decompose_fun(rhs: &Expr) -> FunShape {
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
        body: cur.clone(),
    }
}

struct Contifier<'a> {
    data_env: &'a DataEnv,
    /// Γ for every binder seen so far, maintained incrementally (binders
    /// are globally unique, so the environment only grows and is never
    /// rebuilt per `ty_of` query).
    gamma: Gamma,
    converted: usize,
}

impl Contifier<'_> {
    fn record(&mut self, b: &Binder) {
        self.gamma.bind_var(b.name.clone(), b.ty.clone());
    }

    fn ty_of(&self, e: &Expr) -> Result<Type, OptError> {
        type_of(e, self.data_env, &self.gamma).map_err(OptError::Type)
    }

    fn go(&mut self, e: &Expr) -> Result<Expr, OptError> {
        crate::guard::poll();
        match e {
            Expr::Var(_) | Expr::Lit(_) => Ok(e.clone()),
            Expr::Prim(op, args) => Ok(Expr::Prim(
                *op,
                args.iter().map(|a| self.go(a)).collect::<Result<_, _>>()?,
            )),
            Expr::Con(c, tys, args) => Ok(Expr::Con(
                c.clone(),
                tys.clone(),
                args.iter().map(|a| self.go(a)).collect::<Result<_, _>>()?,
            )),
            Expr::Lam(b, body) => {
                self.record(b);
                Ok(Expr::lam(b.clone(), self.go(body)?))
            }
            Expr::TyLam(a, body) => Ok(Expr::ty_lam(a.clone(), self.go(body)?)),
            Expr::App(f, a) => Ok(Expr::app(self.go(f)?, self.go(a)?)),
            Expr::TyApp(f, t) => Ok(Expr::ty_app(self.go(f)?, t.clone())),
            Expr::Case(s, alts) => {
                let s2 = self.go(s)?;
                let alts2 = alts
                    .iter()
                    .map(|alt| {
                        for b in &alt.binders {
                            self.record(b);
                        }
                        Ok(Alt {
                            con: alt.con.clone(),
                            binders: alt.binders.clone(),
                            rhs: self.go(&alt.rhs)?,
                        })
                    })
                    .collect::<Result<_, OptError>>()?;
                Ok(Expr::case(s2, alts2))
            }
            Expr::Join(jb, body) => {
                let mut jb2 = jb.clone();
                for d in jb2.defs_mut() {
                    for p in &d.params {
                        self.record(p);
                    }
                    d.body = self.go(&d.body)?;
                }
                Ok(Expr::Join(jb2, Expr::share(self.go(body)?)))
            }
            Expr::Jump(j, tys, args, res) => Ok(Expr::Jump(
                j.clone(),
                tys.clone(),
                args.iter().map(|a| self.go(a)).collect::<Result<_, _>>()?,
                res.clone(),
            )),
            Expr::Let(bind, body) => {
                for b in bind.binders() {
                    self.record(b);
                }
                // Children first: inner contifications can expose outer ones.
                let bind2 = match bind {
                    LetBind::NonRec(b, rhs) => {
                        LetBind::NonRec(b.clone(), Expr::share(self.go(rhs)?))
                    }
                    LetBind::Rec(binds) => LetBind::Rec(
                        binds
                            .iter()
                            .map(|(b, rhs)| Ok((b.clone(), self.go(rhs)?)))
                            .collect::<Result<_, OptError>>()?,
                    ),
                };
                let body2 = self.go(body)?;
                self.try_contify(&bind2, &body2)
            }
        }
    }

    fn try_contify(&mut self, bind: &LetBind, body: &Expr) -> Result<Expr, OptError> {
        match bind {
            LetBind::NonRec(b, rhs) => {
                let shape = decompose_fun(rhs);
                // Only functions are candidates (a 0-ary "join" would
                // trade call-by-need sharing for re-evaluation).
                if shape.params.is_empty() {
                    return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                }
                for p in &shape.params {
                    self.record(p);
                }
                // f must not occur in its own RHS (non-recursive).
                if occurs_free(&b.name, rhs) {
                    return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                }
                let Some(res_ty) = self.contifiable_result_ty(
                    &[(b.name.clone(), shape.ty_params.len(), shape.params.len())],
                    std::slice::from_ref(&shape.body),
                    body,
                )?
                else {
                    return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                };
                let targets = Targets::new(
                    vec![(b.name.clone(), shape.ty_params.len(), shape.params.len())],
                    res_ty,
                );
                let Some(new_body) = tailify(body, &targets) else {
                    return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                };
                self.converted += 1;
                let def = JoinDef {
                    name: b.name.clone(),
                    ty_params: shape.ty_params,
                    params: shape.params,
                    body: shape.body,
                };
                Ok(Expr::join1(def, new_body))
            }
            LetBind::Rec(binds) => {
                let shapes: Vec<(Name, FunShape)> = binds
                    .iter()
                    .map(|(b, rhs)| (b.name.clone(), decompose_fun(rhs)))
                    .collect();
                if shapes.iter().any(|(_, s)| s.params.is_empty()) {
                    return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                }
                for (_, s) in &shapes {
                    for p in &s.params {
                        self.record(p);
                    }
                }
                let arities: Vec<(Name, usize, usize)> = shapes
                    .iter()
                    .map(|(n, s)| (n.clone(), s.ty_params.len(), s.params.len()))
                    .collect();
                let rhs_bodies: Vec<Expr> = shapes.iter().map(|(_, s)| s.body.clone()).collect();
                let Some(res_ty) = self.contifiable_result_ty(&arities, &rhs_bodies, body)? else {
                    return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                };
                let targets = Targets::new(arities, res_ty);
                // Every RHS body and the let body must tailify.
                let mut new_defs = Vec::with_capacity(shapes.len());
                for (name, shape) in shapes {
                    let Some(new_rhs_body) = tailify(&shape.body, &targets) else {
                        return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                    };
                    new_defs.push(JoinDef {
                        name,
                        ty_params: shape.ty_params,
                        params: shape.params,
                        body: new_rhs_body,
                    });
                }
                let Some(new_body) = tailify(body, &targets) else {
                    return Ok(Expr::Let(bind.clone(), Expr::share(body.clone())));
                };
                self.converted += 1;
                Ok(Expr::Join(JoinBind::Rec(new_defs), Expr::share(new_body)))
            }
        }
    }

    /// The Fig. 5 typing proviso: each candidate's body type must equal the
    /// `let` body's type (else the function is "polymorphic in its return
    /// type" relative to the context and cannot be a join point). Returns
    /// the shared result type, or `None` if the condition fails.
    ///
    /// Candidates with polymorphic parameters are typed with their own
    /// type variables in scope; `type_of` is lenient about those.
    fn contifiable_result_ty(
        &mut self,
        arities: &[(Name, usize, usize)],
        rhs_bodies: &[Expr],
        body: &Expr,
    ) -> Result<Option<Type>, OptError> {
        let _ = arities;
        let body_ty = match self.ty_of(body) {
            Ok(t) => t,
            Err(_) => return Ok(None),
        };
        for rhs_body in rhs_bodies {
            match self.ty_of(rhs_body) {
                Ok(t) if t.alpha_eq(&body_ty) => {}
                _ => return Ok(None),
            }
        }
        Ok(Some(body_ty))
    }
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
