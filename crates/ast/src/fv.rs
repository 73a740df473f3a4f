//! Free-variable analyses: term variables and join labels.
//!
//! The contification analysis (paper Sec. 4) is "essentially a free-variable
//! analysis"; these sets are its raw material, and the scoping side
//! conditions of the rewrite axioms (`drop`, `float`, …) are phrased in
//! terms of them.

use crate::expr::{Expr, LetBind};
use crate::name::Name;
use std::collections::HashSet;

/// Free *term* variables of an expression (join labels excluded).
pub fn free_vars(e: &Expr) -> HashSet<Name> {
    let mut out = HashSet::new();
    vars_into(e, &mut HashSet::new(), &mut out);
    out
}

/// Free *join labels* of an expression.
pub fn free_labels(e: &Expr) -> HashSet<Name> {
    let mut out = HashSet::new();
    labels_into(e, &mut HashSet::new(), &mut out);
    out
}

/// Does `x` occur free (as a term variable) in `e`?
pub fn occurs_free(x: &Name, e: &Expr) -> bool {
    mentions_any(e, std::slice::from_ref(x))
}

/// Does any of `names` occur (as a term-variable reference) anywhere in
/// `e`?
///
/// Under the optimizer's globally-unique-binders invariant an occurrence
/// of a name in `names` can only ever refer to the binder the caller has
/// in hand — no inner binder can shadow it — so a short-circuiting scan
/// for `Var` nodes replaces building the full free-variable set per
/// query. (On arbitrary shadowed terms this is a conservative
/// over-approximation of "occurs free": it may say `true` for a
/// shadowed, bound occurrence, never `false` for a free one.)
pub fn mentions_any(e: &Expr, names: &[Name]) -> bool {
    match e {
        Expr::Var(x) => names.contains(x),
        Expr::Lit(_) => false,
        Expr::Prim(_, args) | Expr::Con(_, _, args) | Expr::Jump(_, _, args, _) => {
            args.iter().any(|a| mentions_any(a, names))
        }
        Expr::Lam(_, body) | Expr::TyLam(_, body) => mentions_any(body, names),
        Expr::App(f, a) => mentions_any(f, names) || mentions_any(a, names),
        Expr::TyApp(f, _) => mentions_any(f, names),
        Expr::Case(s, alts) => {
            mentions_any(s, names) || alts.iter().any(|alt| mentions_any(&alt.rhs, names))
        }
        Expr::Let(bind, body) => {
            let in_rhs = match bind {
                LetBind::NonRec(_, rhs) => mentions_any(rhs, names),
                LetBind::Rec(binds) => binds.iter().any(|(_, rhs)| mentions_any(rhs, names)),
            };
            in_rhs || mentions_any(body, names)
        }
        Expr::Join(jb, body) => {
            jb.defs().iter().any(|d| mentions_any(&d.body, names)) || mentions_any(body, names)
        }
    }
}

/// Does a jump targeting `label` occur anywhere in `e`?
///
/// The same unique-binders shortcut as [`mentions_any`], for the label
/// namespace: no inner join can rebind `label`, so a short-circuiting scan
/// for `Jump` nodes replaces building the full free-label set per query.
/// (On arbitrary shadowed terms this over-approximates "occurs free",
/// never under-approximates.)
pub fn mentions_label(e: &Expr, label: &Name) -> bool {
    match e {
        Expr::Var(_) | Expr::Lit(_) => false,
        Expr::Prim(_, args) | Expr::Con(_, _, args) => {
            args.iter().any(|a| mentions_label(a, label))
        }
        Expr::Lam(_, body) | Expr::TyLam(_, body) => mentions_label(body, label),
        Expr::App(f, a) => mentions_label(f, label) || mentions_label(a, label),
        Expr::TyApp(f, _) => mentions_label(f, label),
        Expr::Case(s, alts) => {
            mentions_label(s, label) || alts.iter().any(|alt| mentions_label(&alt.rhs, label))
        }
        Expr::Let(bind, body) => {
            let in_rhs = match bind {
                LetBind::NonRec(_, rhs) => mentions_label(rhs, label),
                LetBind::Rec(binds) => binds.iter().any(|(_, rhs)| mentions_label(rhs, label)),
            };
            in_rhs || mentions_label(body, label)
        }
        Expr::Join(jb, body) => {
            jb.defs().iter().any(|d| mentions_label(&d.body, label)) || mentions_label(body, label)
        }
        Expr::Jump(j, _, args, _) => j == label || args.iter().any(|a| mentions_label(a, label)),
    }
}

fn vars_into(e: &Expr, bound: &mut HashSet<Name>, out: &mut HashSet<Name>) {
    match e {
        Expr::Var(x) => {
            if !bound.contains(x) {
                out.insert(x.clone());
            }
        }
        Expr::Lit(_) => {}
        Expr::Prim(_, args) | Expr::Con(_, _, args) => {
            for a in args {
                vars_into(a, bound, out);
            }
        }
        Expr::Lam(b, body) => {
            let added = bound.insert(b.name.clone());
            vars_into(body, bound, out);
            if added {
                bound.remove(&b.name);
            }
        }
        Expr::TyLam(_, body) => vars_into(body, bound, out),
        Expr::App(f, a) => {
            vars_into(f, bound, out);
            vars_into(a, bound, out);
        }
        Expr::TyApp(f, _) => vars_into(f, bound, out),
        Expr::Case(s, alts) => {
            vars_into(s, bound, out);
            for alt in alts {
                let added: Vec<bool> = alt
                    .binders
                    .iter()
                    .map(|b| bound.insert(b.name.clone()))
                    .collect();
                vars_into(&alt.rhs, bound, out);
                for (b, was_added) in alt.binders.iter().zip(added) {
                    if was_added {
                        bound.remove(&b.name);
                    }
                }
            }
        }
        Expr::Let(bind, body) => match bind {
            LetBind::NonRec(b, rhs) => {
                vars_into(rhs, bound, out);
                let added = bound.insert(b.name.clone());
                vars_into(body, bound, out);
                if added {
                    bound.remove(&b.name);
                }
            }
            LetBind::Rec(binds) => {
                let added: Vec<bool> = binds
                    .iter()
                    .map(|(b, _)| bound.insert(b.name.clone()))
                    .collect();
                for (_, rhs) in binds {
                    vars_into(rhs, bound, out);
                }
                vars_into(body, bound, out);
                for ((b, _), was_added) in binds.iter().zip(added) {
                    if was_added {
                        bound.remove(&b.name);
                    }
                }
            }
        },
        Expr::Join(jb, body) => {
            // Labels live in a separate namespace (Δ vs Γ); join parameters
            // bind term variables within each definition's body only.
            for d in jb.defs() {
                let added: Vec<bool> = d
                    .params
                    .iter()
                    .map(|b| bound.insert(b.name.clone()))
                    .collect();
                vars_into(&d.body, bound, out);
                for (b, was_added) in d.params.iter().zip(added) {
                    if was_added {
                        bound.remove(&b.name);
                    }
                }
            }
            vars_into(body, bound, out);
        }
        Expr::Jump(_, _, args, _) => {
            for a in args {
                vars_into(a, bound, out);
            }
        }
    }
}

fn labels_into(e: &Expr, bound: &mut HashSet<Name>, out: &mut HashSet<Name>) {
    match e {
        Expr::Var(_) | Expr::Lit(_) => {}
        Expr::Prim(_, args) | Expr::Con(_, _, args) => {
            for a in args {
                labels_into(a, bound, out);
            }
        }
        Expr::Lam(_, body) | Expr::TyLam(_, body) => labels_into(body, bound, out),
        Expr::App(f, a) => {
            labels_into(f, bound, out);
            labels_into(a, bound, out);
        }
        Expr::TyApp(f, _) => labels_into(f, bound, out),
        Expr::Case(s, alts) => {
            labels_into(s, bound, out);
            for alt in alts {
                labels_into(&alt.rhs, bound, out);
            }
        }
        Expr::Let(bind, body) => {
            for (_, rhs) in bind.pairs() {
                labels_into(rhs, bound, out);
            }
            labels_into(body, bound, out);
        }
        Expr::Join(jb, body) => {
            let is_rec = jb.is_rec();
            let labels: Vec<Name> = jb.labels().into_iter().cloned().collect();
            if is_rec {
                let added: Vec<bool> = labels.iter().map(|l| bound.insert(l.clone())).collect();
                for d in jb.defs() {
                    labels_into(&d.body, bound, out);
                }
                labels_into(body, bound, out);
                for (l, was_added) in labels.iter().zip(added) {
                    if was_added {
                        bound.remove(l);
                    }
                }
            } else {
                for d in jb.defs() {
                    labels_into(&d.body, bound, out);
                }
                let added: Vec<bool> = labels.iter().map(|l| bound.insert(l.clone())).collect();
                labels_into(body, bound, out);
                for (l, was_added) in labels.iter().zip(added) {
                    if was_added {
                        bound.remove(l);
                    }
                }
            }
        }
        Expr::Jump(j, _, args, _) => {
            if !bound.contains(j) {
                out.insert(j.clone());
            }
            for a in args {
                labels_into(a, bound, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Binder, JoinDef};
    use crate::name::NameSupply;
    use crate::ty::Type;

    #[test]
    fn lambda_binds() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let y = s.fresh("y");
        let e = Expr::lam(
            Binder::new(x.clone(), Type::Int),
            Expr::app(Expr::var(&x), Expr::var(&y)),
        );
        let fv = free_vars(&e);
        assert!(!fv.contains(&x));
        assert!(fv.contains(&y));
    }

    #[test]
    fn letrec_binds_in_rhs() {
        let mut s = NameSupply::new();
        let f = s.fresh("f");
        let e = Expr::letrec(
            vec![(
                Binder::new(f.clone(), Type::fun(Type::Int, Type::Int)),
                Expr::var(&f),
            )],
            Expr::var(&f),
        );
        assert!(free_vars(&e).is_empty());
    }

    #[test]
    fn join_labels_are_separate_namespace() {
        let mut s = NameSupply::new();
        let j = s.fresh("j");
        let x = s.fresh("x");
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![Binder::new(x.clone(), Type::Int)],
                body: Expr::var(&x),
            },
            Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::Int),
        );
        assert!(free_labels(&e).is_empty());
        assert!(free_vars(&e).is_empty());
    }

    #[test]
    fn nonrec_join_body_label_escapes_rhs() {
        // join j x = jump j2 ... in ...: j2 is free; j is not free in body.
        let mut s = NameSupply::new();
        let j = s.fresh("j");
        let j2 = s.fresh("j2");
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::jump(&j2, vec![], vec![], Type::Int),
            },
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let labels = free_labels(&e);
        assert!(labels.contains(&j2));
        assert!(!labels.contains(&j));
    }

    #[test]
    fn nonrec_join_is_not_self_scoped() {
        // join j = jump j ... in 0: the inner jump's j is FREE (non-recursive join).
        let mut s = NameSupply::new();
        let j = s.fresh("j");
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::jump(&j, vec![], vec![], Type::Int),
            },
            Expr::Lit(0),
        );
        assert!(free_labels(&e).contains(&j));
    }

    #[test]
    fn rec_join_is_self_scoped() {
        let mut s = NameSupply::new();
        let j = s.fresh("j");
        let e = Expr::joinrec(
            vec![JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::jump(&j, vec![], vec![], Type::Int),
            }],
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        assert!(free_labels(&e).is_empty());
    }

    #[test]
    fn shadowing_same_name() {
        // \x. (\x. x) x : outer x free only via the final application arg.
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let inner = Expr::lam(Binder::new(x.clone(), Type::Int), Expr::var(&x));
        let e = Expr::app(inner, Expr::var(&x));
        let fv = free_vars(&e);
        assert!(fv.contains(&x));
    }
}
