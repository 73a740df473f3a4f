//! α-equivalence of System F_J terms.
//!
//! The optimizer freshens binders aggressively, so "did this pass change
//! anything?" must be asked up to renaming of bound names; tests likewise
//! compare expected and actual optimizer output with [`alpha_eq`].

use crate::expr::{Expr, LetBind};
use crate::name::Name;
use crate::ty::Type;
use std::collections::HashMap;

/// Are two terms equal up to consistent renaming of bound term variables,
/// type variables, and join labels?
pub fn alpha_eq(a: &Expr, b: &Expr) -> bool {
    let mut env = Env::default();
    go(a, b, &mut env)
}

#[derive(Default)]
struct Env {
    /// left-name → right-name, for binders in scope (terms, tyvars, labels
    /// share the map: uniques never collide across namespaces in practice,
    /// and a mismatch in namespace makes the terms structurally unequal
    /// before the map is consulted).
    map: Vec<(Name, Name)>,
}

impl Env {
    fn push(&mut self, l: &Name, r: &Name) {
        self.map.push((l.clone(), r.clone()));
    }
    fn pop_n(&mut self, n: usize) {
        self.map.truncate(self.map.len() - n);
    }
    fn matches(&self, l: &Name, r: &Name) -> bool {
        for (a, b) in self.map.iter().rev() {
            if a == l || b == r {
                return a == l && b == r;
            }
        }
        l == r
    }
}

fn ty_eq(a: &Type, b: &Type, env: &mut Env) -> bool {
    match (a, b) {
        (Type::Var(x), Type::Var(y)) => env.matches(x, y),
        (Type::Con(c1, a1), Type::Con(c2, a2)) => {
            c1 == c2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| ty_eq(x, y, env))
        }
        (Type::Fun(a1, r1), Type::Fun(a2, r2)) => ty_eq(a1, a2, env) && ty_eq(r1, r2, env),
        (Type::Forall(x, b1), Type::Forall(y, b2)) => {
            env.push(x, y);
            let ok = ty_eq(b1, b2, env);
            env.pop_n(1);
            ok
        }
        (Type::Int, Type::Int) => true,
        _ => false,
    }
}

#[allow(clippy::too_many_lines)]
fn go(a: &Expr, b: &Expr, env: &mut Env) -> bool {
    match (a, b) {
        (Expr::Var(x), Expr::Var(y)) => env.matches(x, y),
        (Expr::Lit(m), Expr::Lit(n)) => m == n,
        (Expr::Prim(o1, a1), Expr::Prim(o2, a2)) => {
            o1 == o2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| go(x, y, env))
        }
        (Expr::Lam(b1, e1), Expr::Lam(b2, e2)) => {
            if !ty_eq(&b1.ty, &b2.ty, env) {
                return false;
            }
            env.push(&b1.name, &b2.name);
            let ok = go(e1, e2, env);
            env.pop_n(1);
            ok
        }
        (Expr::TyLam(a1, e1), Expr::TyLam(a2, e2)) => {
            env.push(a1, a2);
            let ok = go(e1, e2, env);
            env.pop_n(1);
            ok
        }
        (Expr::App(f1, x1), Expr::App(f2, x2)) => go(f1, f2, env) && go(x1, x2, env),
        (Expr::TyApp(f1, t1), Expr::TyApp(f2, t2)) => go(f1, f2, env) && ty_eq(t1, t2, env),
        (Expr::Con(c1, t1, e1), Expr::Con(c2, t2, e2)) => {
            c1 == c2
                && t1.len() == t2.len()
                && t1.iter().zip(t2).all(|(x, y)| ty_eq(x, y, env))
                && e1.len() == e2.len()
                && e1.iter().zip(e2).all(|(x, y)| go(x, y, env))
        }
        (Expr::Case(s1, alts1), Expr::Case(s2, alts2)) => {
            if !go(s1, s2, env) || alts1.len() != alts2.len() {
                return false;
            }
            alts1.iter().zip(alts2).all(|(x, y)| {
                if x.con != y.con || x.binders.len() != y.binders.len() {
                    return false;
                }
                for (bx, by) in x.binders.iter().zip(&y.binders) {
                    if !ty_eq(&bx.ty, &by.ty, env) {
                        return false;
                    }
                }
                for (bx, by) in x.binders.iter().zip(&y.binders) {
                    env.push(&bx.name, &by.name);
                }
                let ok = go(&x.rhs, &y.rhs, env);
                env.pop_n(x.binders.len());
                ok
            })
        }
        (Expr::Let(b1, e1), Expr::Let(b2, e2)) => match (b1, b2) {
            (LetBind::NonRec(x1, r1), LetBind::NonRec(x2, r2)) => {
                if !ty_eq(&x1.ty, &x2.ty, env) || !go(r1, r2, env) {
                    return false;
                }
                env.push(&x1.name, &x2.name);
                let ok = go(e1, e2, env);
                env.pop_n(1);
                ok
            }
            (LetBind::Rec(g1), LetBind::Rec(g2)) => {
                if g1.len() != g2.len() {
                    return false;
                }
                for ((x1, _), (x2, _)) in g1.iter().zip(g2) {
                    if !ty_eq(&x1.ty, &x2.ty, env) {
                        return false;
                    }
                    env.push(&x1.name, &x2.name);
                }
                let ok =
                    g1.iter().zip(g2).all(|((_, r1), (_, r2))| go(r1, r2, env)) && go(e1, e2, env);
                env.pop_n(g1.len());
                ok
            }
            _ => false,
        },
        (Expr::Join(j1, e1), Expr::Join(j2, e2)) => {
            let (d1, d2) = (j1.defs(), j2.defs());
            if j1.is_rec() != j2.is_rec() || d1.len() != d2.len() {
                return false;
            }
            let is_rec = j1.is_rec();
            if is_rec {
                for (a, b) in d1.iter().zip(d2) {
                    env.push(&a.name, &b.name);
                }
            }
            let mut ok = true;
            for (da, db) in d1.iter().zip(d2) {
                if da.ty_params.len() != db.ty_params.len() || da.params.len() != db.params.len() {
                    ok = false;
                    break;
                }
                let mut pushed = 0;
                for (ta, tb) in da.ty_params.iter().zip(&db.ty_params) {
                    env.push(ta, tb);
                    pushed += 1;
                }
                let tys_ok = da
                    .params
                    .iter()
                    .zip(&db.params)
                    .all(|(pa, pb)| ty_eq(&pa.ty, &pb.ty, env));
                for (pa, pb) in da.params.iter().zip(&db.params) {
                    env.push(&pa.name, &pb.name);
                    pushed += 1;
                }
                let body_ok = tys_ok && go(&da.body, &db.body, env);
                env.pop_n(pushed);
                if !body_ok {
                    ok = false;
                    break;
                }
            }
            if ok {
                if !is_rec {
                    for (a, b) in d1.iter().zip(d2) {
                        env.push(&a.name, &b.name);
                    }
                }
                ok = go(e1, e2, env);
                if !is_rec {
                    env.pop_n(d1.len());
                }
            }
            if is_rec {
                env.pop_n(d1.len());
            }
            ok
        }
        (Expr::Jump(x, t1, a1, r1), Expr::Jump(y, t2, a2, r2)) => {
            env.matches(x, y)
                && t1.len() == t2.len()
                && t1.iter().zip(t2).all(|(p, q)| ty_eq(p, q, env))
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(p, q)| go(p, q, env))
                && ty_eq(r1, r2, env)
        }
        _ => false,
    }
}

/// A canonical structural hash key that is invariant under α-renaming —
/// cheap fixpoint detection for optimizer rounds.
pub fn alpha_fingerprint(e: &Expr) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut next = 0u64;
    let mut map: HashMap<Name, u64> = HashMap::new();
    fingerprint(e, &mut map, &mut next, &mut h);
    h.finish()
}

fn fp_name(
    n: &Name,
    map: &mut HashMap<Name, u64>,
    _next: &mut u64,
    h: &mut impl std::hash::Hasher,
) {
    use std::hash::Hash;
    match map.get(n) {
        Some(ix) => ix.hash(h),
        None => {
            // Free name: hash its identity.
            u64::MAX.hash(h);
            n.id().hash(h);
        }
    }
}

fn bind_name(n: &Name, map: &mut HashMap<Name, u64>, next: &mut u64) -> Option<u64> {
    let prev = map.insert(n.clone(), *next);
    *next += 1;
    prev
}

fn fp_ty(t: &Type, map: &mut HashMap<Name, u64>, next: &mut u64, h: &mut impl std::hash::Hasher) {
    use std::hash::Hash;
    match t {
        Type::Var(a) => {
            0u8.hash(h);
            fp_name(a, map, next, h);
        }
        Type::Con(c, args) => {
            1u8.hash(h);
            c.as_str().hash(h);
            for a in args {
                fp_ty(a, map, next, h);
            }
        }
        Type::Fun(a, b) => {
            2u8.hash(h);
            fp_ty(a, map, next, h);
            fp_ty(b, map, next, h);
        }
        Type::Forall(a, b) => {
            3u8.hash(h);
            let prev = bind_name(a, map, next);
            fp_ty(b, map, next, h);
            restore(a, prev, map);
        }
        Type::Int => 4u8.hash(h),
    }
}

fn restore(n: &Name, prev: Option<u64>, map: &mut HashMap<Name, u64>) {
    match prev {
        Some(v) => {
            map.insert(n.clone(), v);
        }
        None => {
            map.remove(n);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn fingerprint(
    e: &Expr,
    map: &mut HashMap<Name, u64>,
    next: &mut u64,
    h: &mut impl std::hash::Hasher,
) {
    use std::hash::Hash;
    match e {
        Expr::Var(x) => {
            10u8.hash(h);
            fp_name(x, map, next, h);
        }
        Expr::Lit(n) => {
            11u8.hash(h);
            n.hash(h);
        }
        Expr::Prim(op, args) => {
            12u8.hash(h);
            op.hash(h);
            for a in args {
                fingerprint(a, map, next, h);
            }
        }
        Expr::Lam(b, body) => {
            13u8.hash(h);
            fp_ty(&b.ty, map, next, h);
            let prev = bind_name(&b.name, map, next);
            fingerprint(body, map, next, h);
            restore(&b.name, prev, map);
        }
        Expr::TyLam(a, body) => {
            14u8.hash(h);
            let prev = bind_name(a, map, next);
            fingerprint(body, map, next, h);
            restore(a, prev, map);
        }
        Expr::App(f, x) => {
            15u8.hash(h);
            fingerprint(f, map, next, h);
            fingerprint(x, map, next, h);
        }
        Expr::TyApp(f, t) => {
            16u8.hash(h);
            fingerprint(f, map, next, h);
            fp_ty(t, map, next, h);
        }
        Expr::Con(c, tys, args) => {
            17u8.hash(h);
            c.as_str().hash(h);
            for t in tys {
                fp_ty(t, map, next, h);
            }
            for a in args {
                fingerprint(a, map, next, h);
            }
        }
        Expr::Case(s, alts) => {
            18u8.hash(h);
            fingerprint(s, map, next, h);
            for alt in alts {
                match &alt.con {
                    crate::expr::AltCon::Con(c) => {
                        0u8.hash(h);
                        c.as_str().hash(h);
                    }
                    crate::expr::AltCon::Lit(n) => {
                        1u8.hash(h);
                        n.hash(h);
                    }
                    crate::expr::AltCon::Default => 2u8.hash(h),
                }
                let prevs: Vec<_> = alt
                    .binders
                    .iter()
                    .map(|b| {
                        fp_ty(&b.ty, map, next, h);
                        (b.name.clone(), bind_name(&b.name, map, next))
                    })
                    .collect();
                fingerprint(&alt.rhs, map, next, h);
                for (n, prev) in prevs.into_iter().rev() {
                    restore(&n, prev, map);
                }
            }
        }
        Expr::Let(bind, body) => {
            19u8.hash(h);
            match bind {
                LetBind::NonRec(b, rhs) => {
                    fp_ty(&b.ty, map, next, h);
                    fingerprint(rhs, map, next, h);
                    let prev = bind_name(&b.name, map, next);
                    fingerprint(body, map, next, h);
                    restore(&b.name, prev, map);
                }
                LetBind::Rec(binds) => {
                    let prevs: Vec<_> = binds
                        .iter()
                        .map(|(b, _)| {
                            fp_ty(&b.ty, map, next, h);
                            (b.name.clone(), bind_name(&b.name, map, next))
                        })
                        .collect();
                    for (_, rhs) in binds {
                        fingerprint(rhs, map, next, h);
                    }
                    fingerprint(body, map, next, h);
                    for (n, prev) in prevs.into_iter().rev() {
                        restore(&n, prev, map);
                    }
                }
            }
        }
        Expr::Join(jb, body) => {
            20u8.hash(h);
            jb.is_rec().hash(h);
            let is_rec = jb.is_rec();
            let label_prevs: Vec<_> = if is_rec {
                jb.defs()
                    .iter()
                    .map(|d| (d.name.clone(), bind_name(&d.name, map, next)))
                    .collect()
            } else {
                Vec::new()
            };
            for d in jb.defs() {
                let mut prevs: Vec<(Name, Option<u64>)> = Vec::new();
                for a in &d.ty_params {
                    prevs.push((a.clone(), bind_name(a, map, next)));
                }
                for p in &d.params {
                    fp_ty(&p.ty, map, next, h);
                    prevs.push((p.name.clone(), bind_name(&p.name, map, next)));
                }
                fingerprint(&d.body, map, next, h);
                for (n, prev) in prevs.into_iter().rev() {
                    restore(&n, prev, map);
                }
            }
            let body_prevs: Vec<_> = if is_rec {
                Vec::new()
            } else {
                jb.defs()
                    .iter()
                    .map(|d| (d.name.clone(), bind_name(&d.name, map, next)))
                    .collect()
            };
            fingerprint(body, map, next, h);
            for (n, prev) in body_prevs.into_iter().rev() {
                restore(&n, prev, map);
            }
            for (n, prev) in label_prevs.into_iter().rev() {
                restore(&n, prev, map);
            }
        }
        Expr::Jump(j, tys, args, res) => {
            21u8.hash(h);
            fp_name(j, map, next, h);
            for t in tys {
                fp_ty(t, map, next, h);
            }
            for a in args {
                fingerprint(a, map, next, h);
            }
            fp_ty(res, map, next, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Binder, PrimOp};
    use crate::name::NameSupply;
    use crate::subst::freshen;

    #[test]
    fn alpha_eq_after_freshen() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let e = Expr::lam(
            Binder::new(x.clone(), Type::Int),
            Expr::prim2(PrimOp::Add, Expr::var(&x), Expr::Lit(1)),
        );
        let f = freshen(&e, &mut s);
        assert_ne!(e, f, "freshen must rename");
        assert!(alpha_eq(&e, &f));
        assert_eq!(alpha_fingerprint(&e), alpha_fingerprint(&f));
    }

    #[test]
    fn different_structure_not_equal() {
        let a = Expr::Lit(1);
        let b = Expr::Lit(2);
        assert!(!alpha_eq(&a, &b));
        assert_ne!(alpha_fingerprint(&a), alpha_fingerprint(&b));
    }

    #[test]
    fn free_vars_must_match_exactly() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let y = s.fresh("y");
        assert!(!alpha_eq(&Expr::var(&x), &Expr::var(&y)));
        assert!(alpha_eq(&Expr::var(&x), &Expr::var(&x)));
    }

    #[test]
    fn binder_types_matter() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let e1 = Expr::lam(Binder::new(x.clone(), Type::Int), Expr::Lit(0));
        let e2 = Expr::lam(Binder::new(x, Type::bool()), Expr::Lit(0));
        assert!(!alpha_eq(&e1, &e2));
    }

    /// The exact shape `fj serve` introduces: a term is built on one
    /// thread, then compared, fingerprinted, and substituted into on
    /// another, where every `Ident` has its own allocation. This pins
    /// comparison by spelling end to end: alpha-equivalence,
    /// fingerprints, and substitution must all be thread-blind.
    #[test]
    fn alpha_and_subst_are_thread_blind() {
        use crate::expr::PrimOp;
        use crate::subst::subst_term;

        // Constructor applications force `Ident` comparisons (`Just`,
        // `Nothing` against the case alternatives), not just `Name`s.
        let build = |supply: &mut NameSupply| {
            let x = supply.fresh("x");
            let scrut = Expr::Con(
                crate::name::Ident::new("Just"),
                vec![Type::Int],
                vec![Expr::var(&x)],
            );
            Expr::lam(
                Binder::new(x, Type::Int),
                Expr::Case(
                    std::sync::Arc::new(scrut),
                    vec![
                        crate::expr::Alt {
                            con: crate::expr::AltCon::Con(crate::name::Ident::new("Nothing")),
                            binders: vec![],
                            rhs: Expr::Lit(0),
                        },
                        crate::expr::Alt {
                            con: crate::expr::AltCon::Con(crate::name::Ident::new("Just")),
                            binders: vec![Binder::new(Name::with_id("y", 99_999), Type::Int)],
                            rhs: Expr::prim2(
                                PrimOp::Add,
                                Expr::var(&Name::with_id("y", 99_999)),
                                Expr::Lit(1),
                            ),
                        },
                    ],
                ),
            )
        };
        let local = build(&mut NameSupply::new());
        let (remote, remote_fp) = std::thread::spawn(move || {
            let e = build(&mut NameSupply::new());
            let fp = alpha_fingerprint(&e);
            (e, fp)
        })
        .join()
        .unwrap();
        assert!(alpha_eq(&local, &remote), "cross-thread alpha_eq broke");
        assert_eq!(
            alpha_fingerprint(&local),
            remote_fp,
            "alpha_fingerprint differs across threads"
        );
        // Substitute into the remote-built term on this thread: binder
        // handling (freshening included) must not depend on which thread
        // minted the names.
        let mut s = NameSupply::starting_at(200_000);
        let free = Name::with_id("free", 150_000);
        let body = Expr::app(remote, Expr::var(&free));
        let substituted = subst_term(&body, &free, &Expr::Lit(42), &mut s);
        let expected = {
            let l = build(&mut NameSupply::new());
            Expr::app(l, Expr::Lit(42))
        };
        assert!(
            alpha_eq(&substituted, &expected),
            "cross-thread substitution produced a different term"
        );
    }

    #[test]
    fn join_alpha_eq_with_renamed_label() {
        let mut s = NameSupply::new();
        let mk = |s: &mut NameSupply| {
            let j = s.fresh("j");
            Expr::join1(
                crate::expr::JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![],
                    body: Expr::Lit(1),
                },
                Expr::jump(&j, vec![], vec![], Type::Int),
            )
        };
        let a = mk(&mut s);
        let b = mk(&mut s);
        assert!(alpha_eq(&a, &b));
        assert_eq!(alpha_fingerprint(&a), alpha_fingerprint(&b));
    }
}
