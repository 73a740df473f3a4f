//! Lowering: surface syntax → System F_J.
//!
//! The surface language is explicitly typed (annotations on every binder,
//! explicit `@ty` instantiation), so lowering is name resolution plus a
//! little local type reconstruction: `case` field binders get their types
//! by reading the (already lowered, annotated) scrutinee's type off its
//! spine with `fj_check::type_of` and instantiating the constructor's
//! fields. Nothing is inferred and nothing is checked: callers run
//! `fj_check::lint` on the lowered program.

use crate::ast::{BinOp, SAlt, SBinder, SData, SExpr, SJoinDef, SPat, SProgram, STy};
use crate::token::Pos;
use crate::SurfaceError;
use fj_ast::{Alt, AltCon, Binder, DataEnv, Expr, Ident, JoinDef, Name, NameSupply, PrimOp, Type};
use fj_check::type_of;
use std::collections::HashMap;

/// The output of lowering a program.
#[derive(Debug)]
pub struct Lowered {
    /// Prelude plus the program's own `data` declarations.
    pub data_env: DataEnv,
    /// The whole program as one expression
    /// (`let def₁ = … in … let defₙ = … in main`).
    pub expr: Expr,
    /// The name supply, positioned after all lowering-created names
    /// (hand to the optimizer).
    pub supply: NameSupply,
}

/// Lower a parsed program. The program must contain a `def main`.
///
/// # Errors
///
/// Returns [`SurfaceError::Lower`] for unbound names, unknown or
/// unsaturated constructors, and malformed declarations.
pub fn lower_program(p: &SProgram) -> Result<Lowered, SurfaceError> {
    let mut lw = Lowerer {
        data_env: DataEnv::prelude(),
        supply: NameSupply::new(),
        types: HashMap::new(),
        pending: HashMap::new(),
    };
    for d in &p.datas {
        lw.pending.insert(d.name.clone(), d.params.len());
    }
    for d in &p.datas {
        lw.declare_data(d)?;
    }
    lw.pending.clear();

    let mut scope = Scope::default();
    let mut defs: Vec<(Binder, Expr)> = Vec::new();
    let mut main: Option<Name> = None;
    for d in &p.defs {
        let ty = lw.lower_ty(&d.ty, &scope, d.pos)?;
        let body = lw.lower_expr(&d.body, &scope)?;
        let name = lw.supply.fresh(&d.name);
        lw.types.insert(name.clone(), ty.clone());
        scope.vars.insert(d.name.clone(), name.clone());
        if d.name == "main" {
            main = Some(name.clone());
        }
        defs.push((Binder::new(name, ty), body));
    }
    let Some(main) = main else {
        return Err(SurfaceError::Lower {
            pos: Pos { line: 1, col: 1 },
            msg: "program has no `def main`".into(),
        });
    };
    let expr = defs
        .into_iter()
        .rev()
        .fold(Expr::var(&main), |acc, (b, rhs)| Expr::let1(b, rhs, acc));
    Ok(Lowered {
        data_env: lw.data_env,
        expr,
        supply: lw.supply,
    })
}

/// Lower a standalone expression against the prelude (handy in tests and
/// examples). No top-level defs are in scope.
///
/// # Errors
///
/// As [`lower_program`].
pub fn lower_expr(e: &SExpr) -> Result<Lowered, SurfaceError> {
    let mut lw = Lowerer {
        data_env: DataEnv::prelude(),
        supply: NameSupply::new(),
        types: HashMap::new(),
        pending: HashMap::new(),
    };
    let expr = lw.lower_expr(e, &Scope::default())?;
    Ok(Lowered {
        data_env: lw.data_env,
        expr,
        supply: lw.supply,
    })
}

/// Lower a cache-entry payload: `data` declarations plus one bare
/// expression, against the prelude. Unlike [`lower_program`] there is no
/// `def main` wrapper, so the result is exactly the expression's lowering
/// — which is what lets the persistent cache α-verify a reloaded term
/// against the in-memory one.
///
/// # Errors
///
/// As [`lower_program`].
pub fn lower_entry(datas: &[SData], e: &SExpr) -> Result<Lowered, SurfaceError> {
    let mut lw = Lowerer {
        data_env: DataEnv::prelude(),
        supply: NameSupply::new(),
        types: HashMap::new(),
        pending: HashMap::new(),
    };
    for d in datas {
        lw.pending.insert(d.name.clone(), d.params.len());
    }
    for d in datas {
        lw.declare_data(d)?;
    }
    lw.pending.clear();
    let expr = lw.lower_expr(e, &Scope::default())?;
    Ok(Lowered {
        data_env: lw.data_env,
        expr,
        supply: lw.supply,
    })
}

#[derive(Clone, Debug, Default)]
struct Scope {
    vars: HashMap<String, Name>,
    tyvars: HashMap<String, Name>,
    /// Join-point labels live in their own namespace: a label is only
    /// reachable through `jump`, never as a value.
    joins: HashMap<String, Name>,
}

struct Lowerer {
    data_env: DataEnv,
    supply: NameSupply,
    types: HashMap<Name, Type>,
    /// Headers of datatypes currently being declared (name → arity), so
    /// recursive and mutually recursive field types resolve.
    pending: HashMap<String, usize>,
}

impl Lowerer {
    fn declare_data(&mut self, d: &SData) -> Result<(), SurfaceError> {
        let mut scope = Scope::default();
        let ty_vars: Vec<Name> = d
            .params
            .iter()
            .map(|p| {
                let n = self.supply.fresh(p);
                scope.tyvars.insert(p.clone(), n.clone());
                n
            })
            .collect();
        let mut ctors = Vec::new();
        for (cname, fields) in &d.ctors {
            let mut tys = Vec::new();
            for f in fields {
                tys.push(self.lower_ty(f, &scope, d.pos)?);
            }
            ctors.push((Ident::new(cname), tys));
        }
        self.data_env
            .declare(Ident::new(&d.name), ty_vars, ctors)
            .map_err(|e| SurfaceError::Lower {
                pos: d.pos,
                msg: e.to_string(),
            })
    }

    fn lower_ty(&mut self, t: &STy, scope: &Scope, pos: Pos) -> Result<Type, SurfaceError> {
        match t {
            STy::Var(v) => scope
                .tyvars
                .get(v)
                .map(|n| Type::Var(n.clone()))
                .ok_or_else(|| SurfaceError::Lower {
                    pos,
                    msg: format!("type variable `{v}` is not in scope"),
                }),
            STy::Con(name, args) => {
                if name == "Int" {
                    if args.is_empty() {
                        return Ok(Type::Int);
                    }
                    return Err(SurfaceError::Lower {
                        pos,
                        msg: "Int takes no type arguments".into(),
                    });
                }
                let arity = match self.pending.get(name) {
                    Some(a) => *a,
                    None => self
                        .data_env
                        .datatype(&Ident::new(name))
                        .map_err(|e| SurfaceError::Lower {
                            pos,
                            msg: e.to_string(),
                        })?
                        .ty_vars
                        .len(),
                };
                if arity != args.len() {
                    return Err(SurfaceError::Lower {
                        pos,
                        msg: format!(
                            "type constructor `{name}` expects {arity} arguments, got {}",
                            args.len()
                        ),
                    });
                }
                let args2 = args
                    .iter()
                    .map(|a| self.lower_ty(a, scope, pos))
                    .collect::<Result<_, _>>()?;
                Ok(Type::Con(Ident::new(name), args2))
            }
            STy::Fun(a, b) => Ok(Type::fun(
                self.lower_ty(a, scope, pos)?,
                self.lower_ty(b, scope, pos)?,
            )),
            STy::Forall(v, body) => {
                let n = self.supply.fresh(v);
                let mut s2 = scope.clone();
                s2.tyvars.insert(v.clone(), n.clone());
                Ok(Type::forall(n, self.lower_ty(body, &s2, pos)?))
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn lower_expr(&mut self, e: &SExpr, scope: &Scope) -> Result<Expr, SurfaceError> {
        match e {
            SExpr::Lit(n) => Ok(Expr::Lit(*n)),
            SExpr::Var(x, pos) => {
                scope
                    .vars
                    .get(x)
                    .map(Expr::var)
                    .ok_or_else(|| SurfaceError::Lower {
                        pos: *pos,
                        msg: format!("variable `{x}` is not in scope"),
                    })
            }
            SExpr::Con(c, pos) => self.lower_con(c, &[], &[], scope, *pos),
            SExpr::App(..) | SExpr::TyApp(..) => self.lower_app(e, scope),
            SExpr::Lam(binders, body) => {
                let mut s2 = scope.clone();
                let mut lowered: Vec<LoweredBinder> = Vec::new();
                for b in binders {
                    match b {
                        SBinder::Ty(a) => {
                            let n = self.supply.fresh(a);
                            s2.tyvars.insert(a.clone(), n.clone());
                            lowered.push(LoweredBinder::Ty(n));
                        }
                        SBinder::Val(x, t) => {
                            let ty = self.lower_ty(t, &s2, Pos { line: 0, col: 0 })?;
                            let n = self.supply.fresh(x);
                            s2.vars.insert(x.clone(), n.clone());
                            self.types.insert(n.clone(), ty.clone());
                            lowered.push(LoweredBinder::Val(Binder::new(n, ty)));
                        }
                    }
                }
                let mut out = self.lower_expr(body, &s2)?;
                for b in lowered.into_iter().rev() {
                    out = match b {
                        LoweredBinder::Ty(a) => Expr::ty_lam(a, out),
                        LoweredBinder::Val(b) => Expr::lam(b, out),
                    };
                }
                Ok(out)
            }
            SExpr::Let(x, t, rhs, body, pos) => {
                let ty = self.lower_ty(t, scope, *pos)?;
                let rhs2 = self.lower_expr(rhs, scope)?;
                let n = self.supply.fresh(x);
                self.types.insert(n.clone(), ty.clone());
                let mut s2 = scope.clone();
                s2.vars.insert(x.clone(), n.clone());
                let body2 = self.lower_expr(body, &s2)?;
                Ok(Expr::let1(Binder::new(n, ty), rhs2, body2))
            }
            SExpr::LetRec(binds, body, pos) => {
                let mut s2 = scope.clone();
                let mut binders = Vec::new();
                for (x, t, _) in binds {
                    let ty = self.lower_ty(t, scope, *pos)?;
                    let n = self.supply.fresh(x);
                    self.types.insert(n.clone(), ty.clone());
                    s2.vars.insert(x.clone(), n.clone());
                    binders.push(Binder::new(n, ty));
                }
                let mut lowered = Vec::new();
                for (b, (_, _, rhs)) in binders.into_iter().zip(binds) {
                    lowered.push((b, self.lower_expr(rhs, &s2)?));
                }
                let body2 = self.lower_expr(body, &s2)?;
                Ok(Expr::letrec(lowered, body2))
            }
            SExpr::Case(scrut, alts, pos) => self.lower_case(scrut, alts, scope, *pos),
            SExpr::If(c, t, f) => Ok(Expr::ite(
                self.lower_expr(c, scope)?,
                self.lower_expr(t, scope)?,
                self.lower_expr(f, scope)?,
            )),
            SExpr::BinOp(op, a, b) => {
                let pa = self.lower_expr(a, scope)?;
                let pb = self.lower_expr(b, scope)?;
                Ok(Expr::prim2(lower_op(*op), pa, pb))
            }
            // A negated literal *is* the negative literal (the grammar
            // has no negative integer token); folding it here makes
            // unparse → lower the identity on constant-folded optimizer
            // output, which the persistent cache's α-verification needs.
            SExpr::Neg(a) => match a.as_ref() {
                SExpr::Lit(n) if n.checked_neg().is_some() => Ok(Expr::Lit(-n)),
                _ => Ok(Expr::prim2(
                    PrimOp::Sub,
                    Expr::Lit(0),
                    self.lower_expr(a, scope)?,
                )),
            },
            SExpr::Join(rec, defs, body, pos) => self.lower_join(*rec, defs, body, scope, *pos),
            SExpr::Jump(label, tys, args, ret, pos) => {
                let j = scope
                    .joins
                    .get(label)
                    .cloned()
                    .ok_or_else(|| SurfaceError::Lower {
                        pos: *pos,
                        msg: format!("join point `{label}` is not in scope"),
                    })?;
                let tys2 = tys
                    .iter()
                    .map(|t| self.lower_ty(t, scope, *pos))
                    .collect::<Result<Vec<_>, _>>()?;
                let args2 = args
                    .iter()
                    .map(|a| self.lower_expr(a, scope))
                    .collect::<Result<Vec<_>, _>>()?;
                let ret2 = self.lower_ty(ret, scope, *pos)?;
                Ok(Expr::jump(&j, tys2, args2, ret2))
            }
        }
    }

    fn lower_join(
        &mut self,
        rec: bool,
        defs: &[SJoinDef],
        body: &SExpr,
        scope: &Scope,
        pos: Pos,
    ) -> Result<Expr, SurfaceError> {
        let labels: Vec<Name> = defs.iter().map(|d| self.supply.fresh(&d.name)).collect();
        // Recursive groups see their own labels; non-recursive bodies
        // don't (mirrors `let` vs `letrec`).
        let mut def_scope = scope.clone();
        if rec {
            for (d, n) in defs.iter().zip(&labels) {
                def_scope.joins.insert(d.name.clone(), n.clone());
            }
        }
        let mut jdefs = Vec::new();
        for (d, label) in defs.iter().zip(&labels) {
            let mut s2 = def_scope.clone();
            let mut ty_params = Vec::new();
            let mut params = Vec::new();
            for b in &d.binders {
                match b {
                    SBinder::Ty(a) => {
                        if !params.is_empty() {
                            return Err(SurfaceError::Lower {
                                pos,
                                msg: format!(
                                    "join `{}`: type parameters must precede value parameters",
                                    d.name
                                ),
                            });
                        }
                        let n = self.supply.fresh(a);
                        s2.tyvars.insert(a.clone(), n.clone());
                        ty_params.push(n);
                    }
                    SBinder::Val(x, t) => {
                        let ty = self.lower_ty(t, &s2, pos)?;
                        let n = self.supply.fresh(x);
                        s2.vars.insert(x.clone(), n.clone());
                        self.types.insert(n.clone(), ty.clone());
                        params.push(Binder::new(n, ty));
                    }
                }
            }
            let body2 = self.lower_expr(&d.body, &s2)?;
            jdefs.push(JoinDef {
                name: label.clone(),
                ty_params,
                params,
                body: body2,
            });
        }
        let mut s_body = scope.clone();
        for (d, n) in defs.iter().zip(&labels) {
            s_body.joins.insert(d.name.clone(), n.clone());
        }
        let body2 = self.lower_expr(body, &s_body)?;
        if rec {
            Ok(Expr::joinrec(jdefs, body2))
        } else {
            let def = jdefs.pop().ok_or_else(|| SurfaceError::Lower {
                pos,
                msg: "join needs a definition".into(),
            })?;
            Ok(Expr::join1(def, body2))
        }
    }

    /// Lower an application spine. Constructor heads must be saturated
    /// (`C @ty… arg…` with exactly the declared counts).
    fn lower_app(&mut self, e: &SExpr, scope: &Scope) -> Result<Expr, SurfaceError> {
        // Collect the spine.
        let mut tys_rev: Vec<&STy> = Vec::new();
        let mut args_rev: Vec<&SExpr> = Vec::new();
        let mut head = e;
        loop {
            match head {
                SExpr::App(f, a) => {
                    args_rev.push(a);
                    head = f;
                }
                SExpr::TyApp(f, t) => {
                    tys_rev.push(t);
                    head = f;
                }
                _ => break,
            }
        }
        if let SExpr::Con(c, pos) = head {
            // For constructors the spine must be @tys… then args….
            let tys: Vec<&STy> = tys_rev.into_iter().rev().collect();
            let args: Vec<&SExpr> = args_rev.into_iter().rev().collect();
            return self.lower_con(c, &tys, &args, scope, *pos);
        }
        // Ordinary application: rebuild left-to-right in source order.
        // (We must preserve interleaving of @ty and value arguments.)
        fn rebuild(lw: &mut Lowerer, e: &SExpr, scope: &Scope) -> Result<Expr, SurfaceError> {
            match e {
                SExpr::App(f, a) => {
                    let f2 = rebuild(lw, f, scope)?;
                    let a2 = lw.lower_expr(a, scope)?;
                    Ok(Expr::app(f2, a2))
                }
                SExpr::TyApp(f, t) => {
                    let f2 = rebuild(lw, f, scope)?;
                    let t2 = lw.lower_ty(t, scope, Pos { line: 0, col: 0 })?;
                    Ok(Expr::ty_app(f2, t2))
                }
                other => lw.lower_expr(other, scope),
            }
        }
        rebuild(self, e, scope)
    }

    fn lower_con(
        &mut self,
        c: &str,
        tys: &[&STy],
        args: &[&SExpr],
        scope: &Scope,
        pos: Pos,
    ) -> Result<Expr, SurfaceError> {
        let ident = Ident::new(c);
        let owner = self
            .data_env
            .owner_of(&ident)
            .map_err(|e| SurfaceError::Lower {
                pos,
                msg: e.to_string(),
            })?
            .clone();
        let con = self
            .data_env
            .constructor(&ident)
            .map_err(|e| SurfaceError::Lower {
                pos,
                msg: e.to_string(),
            })?;
        let n_fields = con.fields.len();
        if owner.ty_vars.len() != tys.len() {
            return Err(SurfaceError::Lower {
                pos,
                msg: format!(
                    "constructor `{c}` needs {} type argument(s) (`@ty`), got {}",
                    owner.ty_vars.len(),
                    tys.len()
                ),
            });
        }
        if n_fields != args.len() {
            return Err(SurfaceError::Lower {
                pos,
                msg: format!(
                    "constructor `{c}` must be saturated: expected {} field(s), got {}",
                    n_fields,
                    args.len()
                ),
            });
        }
        let tys2 = tys
            .iter()
            .map(|t| self.lower_ty(t, scope, pos))
            .collect::<Result<Vec<_>, _>>()?;
        let args2 = args
            .iter()
            .map(|a| self.lower_expr(a, scope))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Expr::Con(ident, tys2, args2))
    }

    fn lower_case(
        &mut self,
        scrut: &SExpr,
        alts: &[SAlt],
        scope: &Scope,
        pos: Pos,
    ) -> Result<Expr, SurfaceError> {
        let scrut2 = self.lower_expr(scrut, scope)?;
        // Read the scrutinee's type off its annotations so field binders
        // can be annotated.
        let scrut_ty =
            type_of(&scrut2, &self.data_env, &self.types).map_err(|e| SurfaceError::Lower {
                pos,
                msg: format!("cannot type case scrutinee: {e}"),
            })?;
        let mut out = Vec::new();
        for alt in alts {
            match &alt.pat {
                SPat::Wild => out.push(Alt::simple(
                    AltCon::Default,
                    self.lower_expr(&alt.rhs, scope)?,
                )),
                SPat::Lit(n) => out.push(Alt::simple(
                    AltCon::Lit(*n),
                    self.lower_expr(&alt.rhs, scope)?,
                )),
                SPat::Con(cname, fields) => {
                    let ident = Ident::new(cname);
                    let Type::Con(_, ty_args) = &scrut_ty else {
                        return Err(SurfaceError::Lower {
                            pos: alt.pos,
                            msg: format!(
                                "constructor pattern `{cname}` against scrutinee of type {scrut_ty}"
                            ),
                        });
                    };
                    let (field_tys, _) =
                        self.data_env.instantiate(&ident, ty_args).map_err(|e| {
                            SurfaceError::Lower {
                                pos: alt.pos,
                                msg: e.to_string(),
                            }
                        })?;
                    if field_tys.len() != fields.len() {
                        return Err(SurfaceError::Lower {
                            pos: alt.pos,
                            msg: format!(
                                "pattern `{cname}` binds {} field(s), constructor has {}",
                                fields.len(),
                                field_tys.len()
                            ),
                        });
                    }
                    let mut s2 = scope.clone();
                    let binders: Vec<Binder> = fields
                        .iter()
                        .zip(field_tys)
                        .map(|(f, t)| {
                            let n = self.supply.fresh(f);
                            s2.vars.insert(f.clone(), n.clone());
                            self.types.insert(n.clone(), t.clone());
                            Binder::new(n, t)
                        })
                        .collect();
                    let rhs = self.lower_expr(&alt.rhs, &s2)?;
                    out.push(Alt {
                        con: AltCon::Con(ident),
                        binders,
                        rhs,
                    });
                }
            }
        }
        Ok(Expr::case(scrut2, out))
    }
}

enum LoweredBinder {
    Ty(Name),
    Val(Binder),
}

fn lower_op(op: BinOp) -> PrimOp {
    match op {
        BinOp::Add => PrimOp::Add,
        BinOp::Sub => PrimOp::Sub,
        BinOp::Mul => PrimOp::Mul,
        BinOp::Div => PrimOp::Div,
        BinOp::Rem => PrimOp::Rem,
        BinOp::Eq => PrimOp::Eq,
        BinOp::Ne => PrimOp::Ne,
        BinOp::Lt => PrimOp::Lt,
        BinOp::Le => PrimOp::Le,
        BinOp::Gt => PrimOp::Gt,
        BinOp::Ge => PrimOp::Ge,
    }
}
