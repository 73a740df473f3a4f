//! Erasure to System F (paper Sec. 6, Theorem 5).
//!
//! Every well-typed F_J term is equal (in the equational theory) to a
//! join-free System F term. The construction: first normalize so that
//! every jump is a *tail call* of its join point — the paper's
//! commuting-normal form, reached by iterating `commute` and `abort`,
//! which is exactly what one simplifier round does (its `abort` behaviour
//! discards any evaluation context wrapped around a jump) — then apply
//! `contify` right-to-left: each `join` becomes a `let`-bound function
//! and each jump a saturated call.
//!
//! Zero-parameter join points get a dummy `Unit` parameter, per the
//! paper's footnote: "the dummy unit parameter is not necessary in a lazy
//! language, but it is in a call-by-value language" — adding it keeps the
//! erased program faithful under *all three* of our machine's modes.

use crate::simplify::{simplify_once, SimplOpts};
use crate::OptError;
use fj_ast::{Binder, DataEnv, Expr, Ident, JoinDef, Name, NameSupply, Type};
use fj_check::type_of;
use std::collections::{HashMap, HashSet};

/// Erase all join points and jumps, producing a plain System F term.
///
/// # Errors
///
/// Returns [`OptError`] if normalization or type reconstruction fails, or
/// [`OptError::Internal`] if a jump survives in a non-tail position
/// (which the type system should make impossible).
pub fn erase(e: &Expr, data_env: &DataEnv, supply: &mut NameSupply) -> Result<Expr, OptError> {
    // One simplifier round reaches commuting-normal form: every jump ends
    // up in tail position relative to its join binding.
    let opts = SimplOpts::default();
    let norm = simplify_once(e, data_env, supply, &opts)?;
    debug_assert!(
        is_commuting_normal(&norm),
        "simplifier must establish commuting-normal form:\n{norm}"
    );
    let mut er = Eraser {
        data_env,
        supply,
        types: HashMap::new(),
        nullary: HashSet::new(),
        error: None,
    };
    let erased = er.go(&norm);
    if let Some(err) = er.error {
        return Err(err);
    }
    let erased = erased.unwrap_or(norm);
    if erased.has_join_or_jump() {
        return Err(OptError::Internal(
            "erasure left a join or jump behind".into(),
        ));
    }
    Ok(erased)
}

/// Is every jump in `e` a *tail call* of its join point — i.e. is `e` in
/// the paper's **commuting-normal form** (Sec. 6)? Erasure requires this;
/// one simplifier round establishes it (`commute` + `abort`).
///
/// In tail positions (case branches, let bodies, join bodies and
/// right-hand sides) any jump is fine. Everywhere else (scrutinees,
/// function positions, arguments, lambda bodies) a jump is only
/// acceptable if its target join point is bound *inside* that subtree —
/// jumping to an outer label from there would discard context.
pub fn is_commuting_normal(e: &Expr) -> bool {
    use std::collections::HashSet as Set;

    fn tail(e: &Expr) -> bool {
        match e {
            Expr::Jump(_, _, args, _) => args.iter().all(|a| island(a, &mut Set::new())),
            Expr::Case(s, alts) => island(s, &mut Set::new()) && alts.iter().all(|a| tail(&a.rhs)),
            Expr::Let(bind, body) => {
                bind.pairs().iter().all(|(_, r)| island(r, &mut Set::new())) && tail(body)
            }
            Expr::Join(jb, body) => jb.defs().iter().all(|d| tail(&d.body)) && tail(body),
            Expr::Lam(_, b) | Expr::TyLam(_, b) => island(b, &mut Set::new()),
            Expr::Var(_) | Expr::Lit(_) => true,
            Expr::Prim(_, args) | Expr::Con(_, _, args) => {
                args.iter().all(|a| island(a, &mut Set::new()))
            }
            Expr::App(f, a) => island(f, &mut Set::new()) && island(a, &mut Set::new()),
            Expr::TyApp(f, _) => island(f, &mut Set::new()),
        }
    }

    /// Inside a non-tail subtree: jumps may only target labels bound
    /// within the subtree (`bound`).
    fn island(e: &Expr, bound: &mut Set<Name>) -> bool {
        match e {
            Expr::Var(_) | Expr::Lit(_) => true,
            Expr::Jump(j, _, args, _) => bound.contains(j) && args.iter().all(|a| island(a, bound)),
            Expr::Prim(_, args) | Expr::Con(_, _, args) => args.iter().all(|a| island(a, bound)),
            Expr::Lam(_, b) | Expr::TyLam(_, b) => island(b, bound),
            Expr::App(f, a) => island(f, bound) && island(a, bound),
            Expr::TyApp(f, _) => island(f, bound),
            Expr::Case(s, alts) => island(s, bound) && alts.iter().all(|a| island(&a.rhs, bound)),
            Expr::Let(bind, body) => {
                bind.pairs().iter().all(|(_, r)| island(r, bound)) && island(body, bound)
            }
            Expr::Join(jb, body) => {
                let labels: Vec<Name> = jb.labels().into_iter().cloned().collect();
                let defs_ok = if jb.is_rec() {
                    for l in &labels {
                        bound.insert(l.clone());
                    }
                    jb.defs().iter().all(|d| island(&d.body, bound))
                } else {
                    let ok = jb.defs().iter().all(|d| island(&d.body, bound));
                    for l in &labels {
                        bound.insert(l.clone());
                    }
                    ok
                };
                let body_ok = island(body, bound);
                for l in &labels {
                    bound.remove(l);
                }
                defs_ok && body_ok
            }
        }
    }

    tail(e)
}

fn unit_ty() -> Type {
    Type::con0("Unit")
}

fn unit_val() -> Expr {
    Expr::Con(Ident::new("MkUnit"), vec![], vec![])
}

struct Eraser<'a> {
    data_env: &'a DataEnv,
    supply: &'a mut NameSupply,
    types: HashMap<Name, Type>,
    /// Labels lowered with a dummy unit parameter.
    nullary: HashSet<Name>,
    /// The first failure; once set, the walk stops changing anything.
    error: Option<OptError>,
}

impl Eraser<'_> {
    fn record(&mut self, b: &Binder) {
        self.types.insert(b.name.clone(), b.ty.clone());
    }

    /// Erase below `e`; `None` when `e` has no join point or jump.
    fn go(&mut self, e: &Expr) -> Option<Expr> {
        if self.error.is_some() {
            return None;
        }
        match e {
            Expr::Join(jb, body) => {
                // The functions' shared result type ρ is the type of the
                // join body (rule JBIND forces every RHS to match it),
                // read off the body's spine.
                for d in jb.defs() {
                    for p in &d.params {
                        self.record(p);
                    }
                }
                let rho = match type_of(body, self.data_env, &self.types) {
                    Ok(rho) => rho,
                    Err(err) => {
                        self.error = Some(OptError::Type(err));
                        return None;
                    }
                };
                // Declare the group's function types before lowering the
                // (possibly mutually recursive) right-hand sides.
                for d in jb.defs() {
                    let fn_ty = self.fn_type(d, &rho);
                    self.types.insert(d.name.clone(), fn_ty);
                    if d.params.is_empty() {
                        self.nullary.insert(d.name.clone());
                    }
                }
                let mut let_binds = Vec::with_capacity(jb.defs().len());
                for d in jb.defs() {
                    let fn_ty = self.types[&d.name].clone();
                    let rhs = self.lower_def(d);
                    let_binds.push((Binder::new(d.name.clone(), fn_ty), rhs));
                }
                let body2 = self.go_or_keep(body);
                return Some(if jb.is_rec() {
                    Expr::letrec(let_binds, body2)
                } else {
                    let (b, rhs) = let_binds.into_iter().next().expect("nonrec has one def");
                    Expr::let1(b, rhs, body2)
                });
            }
            Expr::Jump(j, tys, args, _) => {
                let mut call = Expr::var(j);
                for t in tys {
                    call = Expr::ty_app(call, t.clone());
                }
                if self.nullary.contains(j) {
                    call = Expr::app(call, unit_val());
                } else {
                    for a in args {
                        call = Expr::app(call, self.go_or_keep(a));
                    }
                }
                return Some(call);
            }
            // Every other node records its binders and erases below.
            Expr::Lam(b, _) => self.record(b),
            Expr::Case(_, alts) => {
                for b in alts.iter().flat_map(|a| &a.binders) {
                    self.record(b);
                }
            }
            Expr::Let(bind, _) => {
                for b in bind.binders() {
                    self.record(b);
                }
            }
            _ => {}
        }
        e.map_children(|c| self.go(c))
    }

    fn go_or_keep(&mut self, e: &Expr) -> Expr {
        self.go(e).unwrap_or_else(|| e.clone())
    }

    /// `∀a⃗. σ⃗ → ρ` (with a Unit parameter when σ⃗ is empty).
    fn fn_type(&self, d: &JoinDef, rho: &Type) -> Type {
        let param_tys: Vec<Type> = if d.params.is_empty() {
            vec![unit_ty()]
        } else {
            d.params.iter().map(|p| p.ty.clone()).collect()
        };
        let core = Type::funs(param_tys, rho.clone());
        d.ty_params
            .iter()
            .rev()
            .fold(core, |acc, a| Type::forall(a.clone(), acc))
    }

    /// `Λa⃗. λ(x:σ)⃗. body`, with the dummy unit parameter when needed.
    fn lower_def(&mut self, d: &JoinDef) -> Expr {
        let body2 = self.go_or_keep(&d.body);
        let params = if d.params.is_empty() {
            vec![Binder::new(self.supply.fresh("unit"), unit_ty())]
        } else {
            d.params.clone()
        };
        let fun_body = Expr::lams(params, body2);
        d.ty_params
            .iter()
            .rev()
            .fold(fun_body, |acc, a| Expr::ty_lam(a.clone(), acc))
    }
}
