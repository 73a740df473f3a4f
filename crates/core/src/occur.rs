//! Occurrence analysis.
//!
//! GHC's "occurrence analyser" runs before every simplifier pass; the
//! paper's contification analysis piggy-backs on it (Sec. 7: "we run it
//! frequently, whenever the so-called occurrence analyzer runs"). We track,
//! per binder:
//!
//! * how many syntactic occurrences it has (0 / 1 / many),
//! * whether any occurrence is under a lambda (inlining a once-used binding
//!   into a lambda body can duplicate *work* under call-by-name, so the
//!   simplifier refuses), and
//! * for join labels, how many jumps target them.

use fj_ast::FxHashMap;
use fj_ast::{Expr, LetBind, Name};

/// How often a binder occurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OccCount {
    /// Never — dead code.
    Dead,
    /// Exactly once.
    Once,
    /// More than once.
    Many,
}

/// Occurrence information for one binder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OccInfo {
    /// Occurrence count.
    pub count: OccCount,
    /// Does any occurrence sit under a lambda (relative to the binding)?
    pub under_lambda: bool,
}

/// Occurrence map for every variable and label in a term.
///
/// Binders the analysis walked past get an entry even at zero occurrences;
/// a name with **no entry at all** was not analyzed (e.g. it was freshened
/// into existence mid-pass) and is conservatively reported as
/// [`OccCount::Many`].
#[derive(Clone, Debug, Default)]
pub struct OccMap {
    map: FxHashMap<Name, (usize, bool)>,
}

impl OccMap {
    /// Info for a name (see the type-level note about unanalyzed names).
    pub fn info(&self, n: &Name) -> OccInfo {
        match self.map.get(n) {
            None => OccInfo {
                count: OccCount::Many,
                under_lambda: true,
            },
            Some((0, _)) => OccInfo {
                count: OccCount::Dead,
                under_lambda: false,
            },
            Some((1, l)) => OccInfo {
                count: OccCount::Once,
                under_lambda: *l,
            },
            Some((_, l)) => OccInfo {
                count: OccCount::Many,
                under_lambda: *l,
            },
        }
    }

    /// Raw occurrence count; unanalyzed names report `usize::MAX`.
    pub fn count(&self, n: &Name) -> usize {
        self.map.get(n).map_or(usize::MAX, |(c, _)| *c)
    }

    fn record(&mut self, n: &Name, in_lambda: bool) {
        let e = self.map.entry(n.clone()).or_insert((0, false));
        e.0 += 1;
        e.1 |= in_lambda;
    }

    fn declare(&mut self, n: &Name) {
        self.map.entry(n.clone()).or_insert((0, false));
    }
}

/// Analyze a whole term. Occurrences of both term variables and join
/// labels are recorded; binders themselves are not occurrences.
pub fn analyze(e: &Expr) -> OccMap {
    let mut m = OccMap::default();
    go(e, false, &mut m);
    m
}

fn go(e: &Expr, in_lambda: bool, m: &mut OccMap) {
    crate::guard::poll();
    match e {
        Expr::Var(x) => m.record(x, in_lambda),
        Expr::Lit(_) => {}
        Expr::Prim(_, args) | Expr::Con(_, _, args) => {
            for a in args {
                go(a, in_lambda, m);
            }
        }
        Expr::Lam(b, body) => {
            m.declare(&b.name);
            go(body, true, m);
        }
        Expr::TyLam(_, body) => go(body, in_lambda, m),
        Expr::App(f, a) => {
            go(f, in_lambda, m);
            go(a, in_lambda, m);
        }
        Expr::TyApp(f, _) => go(f, in_lambda, m),
        Expr::Case(s, alts) => {
            go(s, in_lambda, m);
            for alt in alts {
                for b in &alt.binders {
                    m.declare(&b.name);
                }
                go(&alt.rhs, in_lambda, m);
            }
        }
        Expr::Let(bind, body) => {
            for b in bind.binders() {
                m.declare(&b.name);
            }
            match bind {
                LetBind::NonRec(_, rhs) => go(rhs, in_lambda, m),
                LetBind::Rec(binds) => {
                    // A recursive RHS may run many times; occurrences
                    // inside are work-duplicating to inline into.
                    for (_, rhs) in binds {
                        go(rhs, true, m);
                    }
                }
            }
            go(body, in_lambda, m);
        }
        Expr::Join(jb, body) => {
            for d in jb.defs() {
                m.declare(&d.name);
                for p in &d.params {
                    m.declare(&p.name);
                }
                // A join RHS runs once per jump — for *work*-duplication
                // purposes it behaves like a function body.
                go(&d.body, true, m);
            }
            go(body, in_lambda, m);
        }
        Expr::Jump(j, _, args, _) => {
            m.record(j, in_lambda);
            for a in args {
                go(a, in_lambda, m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::{Binder, Dsl, JoinDef, PrimOp, Type};

    #[test]
    fn counts_occurrences() {
        let mut d = Dsl::new();
        let x = d.name("x");
        let y = d.name("y");
        let e = Expr::prim2(
            PrimOp::Add,
            Expr::var(&x),
            Expr::prim2(PrimOp::Add, Expr::var(&x), Expr::var(&y)),
        );
        let m = analyze(&e);
        assert_eq!(m.info(&x).count, OccCount::Many);
        assert_eq!(m.info(&y).count, OccCount::Once);
        assert_eq!(m.info(&d.name("zzz")).count, OccCount::Many); // unanalyzed
    }

    #[test]
    fn lambda_marks_work_duplication() {
        let mut d = Dsl::new();
        let x = d.name("x");
        let b = d.binder("b", Type::Int);
        let e = Expr::lam(b, Expr::var(&x));
        let m = analyze(&e);
        let info = m.info(&x);
        assert_eq!(info.count, OccCount::Once);
        assert!(info.under_lambda);
    }

    #[test]
    fn join_rhs_counts_as_work_context() {
        let mut d = Dsl::new();
        let x = d.name("x");
        let j = d.name("j");
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::var(&x),
            },
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let m = analyze(&e);
        // A join RHS may run once per jump: inlining work into it is not
        // "once"-safe.
        assert!(m.info(&x).under_lambda);
        assert_eq!(m.info(&j).count, OccCount::Once);
    }

    #[test]
    fn jumps_count_label_occurrences() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let e = Expr::ite(
            Expr::bool(true),
            Expr::jump(&j, vec![], vec![], Type::Int),
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let m = analyze(&e);
        assert_eq!(m.info(&j).count, OccCount::Many);
    }

    #[test]
    fn binder_is_not_an_occurrence() {
        let mut d = Dsl::new();
        let b = d.binder("x", Type::Int);
        let name = b.name.clone();
        let e = Expr::lam(b, Expr::Lit(1));
        let m = analyze(&e);
        assert_eq!(m.info(&name).count, OccCount::Dead);
        let _ = Binder::new(d.name("unused"), Type::Int);
    }
}
