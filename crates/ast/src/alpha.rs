//! α-equivalence of System F_J terms, decided by one canonical form.
//!
//! The optimizer freshens binders aggressively, so "did this pass change
//! anything?" must be asked up to renaming of bound names; tests likewise
//! compare expected and actual optimizer output with [`alpha_eq`], and the
//! compile cache keys and verifies its entries the same way.
//!
//! [`AlphaForm::of`] is the one walk. It writes a term as a sequence of
//! words that two terms share exactly when they are equal up to a
//! consistent renaming of bound term variables, type variables and join
//! labels (Fig. 1's three binder namespaces). [`alpha_eq`] is equality of
//! two forms and [`alpha_fingerprint`] is the hash of one.
//!
//! The form is exact and prefix-free:
//!
//! * a bound name is written as its binder's de Bruijn level — the
//!   binder's index, in binding order, among the binders in scope — so an
//!   inner binder shadows an outer one of the same name until its scope
//!   ends; a free name is written as its [`Name::id`];
//! * constructor and type-constructor names are spelled out byte for
//!   byte, not hashed;
//! * every list (fields, type arguments, alternatives, binders, group
//!   members) is prefixed with its length;
//! * expression, type and alternative nodes open with tags from disjoint
//!   sets, and a name occurrence's tag says whether it is bound or free.
//!
//! Scoping follows the typing rules: a binder's type is written before
//! the binder is bound; a `let rec` or `join rec` group is bound before
//! its right-hand sides; a non-recursive join's label is bound after its
//! definition; a join point's type parameters are bound before the
//! parameter types that mention them.

use crate::expr::{AltCon, Expr, LetBind};
use crate::fxhash::FxHasher;
use crate::name::{Ident, Name};
use crate::ty::Type;
use std::hash::Hasher;

/// Are two terms equal up to consistent renaming of bound term variables,
/// type variables, and join labels?
pub fn alpha_eq(a: &Expr, b: &Expr) -> bool {
    AlphaForm::of(a) == AlphaForm::of(b)
}

/// A structural hash that is invariant under α-renaming: the hash of the
/// term's [`AlphaForm`], folded as the walk writes it, without building
/// the form. α-equal terms always get the same fingerprint; different ones
/// can collide, so a caller that must be sound compares forms.
pub fn alpha_fingerprint(e: &Expr) -> u64 {
    write(e, FxHasher::default()).finish()
}

/// A term's α-canonical form (see the module docs): equal for two terms
/// exactly when they are α-equivalent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlphaForm(Vec<u64>);

impl AlphaForm {
    /// Write `e` in canonical form.
    pub fn of(e: &Expr) -> Self {
        AlphaForm(write(e, Vec::with_capacity(256)))
    }

    /// The hash of the form: [`alpha_fingerprint`] of the term it was
    /// written from.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        for &w in &self.0 {
            h.word(w);
        }
        h.finish()
    }
}

/// Run the walk over `e`, writing its form into `out`.
fn write<S: Sink>(e: &Expr, out: S) -> S {
    let mut w = Writer {
        out,
        scope: Vec::new(),
    };
    w.expr(e);
    w.out
}

/// Where the walk writes its words: a form in memory, or straight into
/// the fingerprint's hash. Both see the same words in the same order.
trait Sink {
    fn word(&mut self, w: u64);
}

impl Sink for Vec<u64> {
    fn word(&mut self, w: u64) {
        self.push(w);
    }
}

impl Sink for FxHasher {
    fn word(&mut self, w: u64) {
        self.write_u64(w);
    }
}

/// The opening word of every node. Expression, type and alternative tags
/// are disjoint; a name occurrence has a bound and a free tag.
#[derive(Clone, Copy)]
enum Tag {
    Var,
    FreeVar,
    Lit,
    Prim,
    Lam,
    TyLam,
    App,
    TyApp,
    Con,
    Case,
    Let,
    LetRec,
    Join,
    JoinRec,
    Jump,
    FreeJump,
    TyVar,
    FreeTyVar,
    TyCon,
    Fun,
    Forall,
    Int,
    ConAlt,
    LitAlt,
    DefaultAlt,
}

/// The walk: where its words go and the binders in scope, by id.
struct Writer<S> {
    out: S,
    scope: Vec<u64>,
}

impl<S: Sink> Writer<S> {
    fn tag(&mut self, tag: Tag) {
        self.out.word(tag as u64);
    }

    fn len(&mut self, n: usize) {
        self.out.word(n as u64);
    }

    /// A name occurrence: `bound` and the level of its innermost binder,
    /// or `free` and its id.
    fn name(&mut self, n: &Name, bound: Tag, free: Tag) {
        match self.scope.iter().rposition(|&id| id == n.id()) {
            Some(level) => {
                self.tag(bound);
                self.out.word(level as u64);
            }
            None => {
                self.tag(free);
                self.out.word(n.id());
            }
        }
    }

    fn bind(&mut self, n: &Name) {
        self.scope.push(n.id());
    }

    /// A constructor name, spelled out: its byte length, then its bytes
    /// eight to a word.
    fn ident(&mut self, c: &Ident) {
        let bytes = c.as_str().as_bytes();
        self.len(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.out.word(u64::from_le_bytes(word));
        }
    }

    fn tys(&mut self, ts: &[Type]) {
        self.len(ts.len());
        for t in ts {
            self.ty(t);
        }
    }

    fn exprs(&mut self, es: &[Expr]) {
        self.len(es.len());
        for e in es {
            self.expr(e);
        }
    }

    fn ty(&mut self, t: &Type) {
        match t {
            Type::Var(a) => self.name(a, Tag::TyVar, Tag::FreeTyVar),
            Type::Con(c, args) => {
                self.tag(Tag::TyCon);
                self.ident(c);
                self.tys(args);
            }
            Type::Fun(a, r) => {
                self.tag(Tag::Fun);
                self.ty(a);
                self.ty(r);
            }
            Type::Forall(a, body) => {
                self.tag(Tag::Forall);
                self.bind(a);
                self.ty(body);
                self.scope.pop();
            }
            Type::Int => self.tag(Tag::Int),
        }
    }

    fn expr(&mut self, e: &Expr) {
        let mark = self.scope.len();
        match e {
            Expr::Var(x) => self.name(x, Tag::Var, Tag::FreeVar),
            Expr::Lit(n) => {
                self.tag(Tag::Lit);
                self.out.word(*n as u64);
            }
            Expr::Prim(op, args) => {
                self.tag(Tag::Prim);
                self.out.word(*op as u64);
                self.exprs(args);
            }
            Expr::Lam(b, body) => {
                self.tag(Tag::Lam);
                self.ty(&b.ty);
                self.bind(&b.name);
                self.expr(body);
            }
            Expr::TyLam(a, body) => {
                self.tag(Tag::TyLam);
                self.bind(a);
                self.expr(body);
            }
            Expr::App(f, x) => {
                self.tag(Tag::App);
                self.expr(f);
                self.expr(x);
            }
            Expr::TyApp(f, t) => {
                self.tag(Tag::TyApp);
                self.expr(f);
                self.ty(t);
            }
            Expr::Con(c, tys, args) => {
                self.tag(Tag::Con);
                self.ident(c);
                self.tys(tys);
                self.exprs(args);
            }
            Expr::Case(scrut, alts) => {
                self.tag(Tag::Case);
                self.expr(scrut);
                self.len(alts.len());
                for alt in alts {
                    match &alt.con {
                        AltCon::Con(c) => {
                            self.tag(Tag::ConAlt);
                            self.ident(c);
                        }
                        AltCon::Lit(n) => {
                            self.tag(Tag::LitAlt);
                            self.out.word(*n as u64);
                        }
                        AltCon::Default => self.tag(Tag::DefaultAlt),
                    }
                    self.len(alt.binders.len());
                    for b in &alt.binders {
                        self.ty(&b.ty);
                    }
                    for b in &alt.binders {
                        self.bind(&b.name);
                    }
                    self.expr(&alt.rhs);
                    self.scope.truncate(mark);
                }
            }
            Expr::Let(LetBind::NonRec(b, rhs), body) => {
                self.tag(Tag::Let);
                self.ty(&b.ty);
                self.expr(rhs);
                self.bind(&b.name);
                self.expr(body);
            }
            Expr::Let(LetBind::Rec(group), body) => {
                self.tag(Tag::LetRec);
                self.len(group.len());
                for (b, _) in group {
                    self.ty(&b.ty);
                    self.bind(&b.name);
                }
                for (_, rhs) in group {
                    self.expr(rhs);
                }
                self.expr(body);
            }
            Expr::Join(jb, body) => {
                let defs = jb.defs();
                if jb.is_rec() {
                    self.tag(Tag::JoinRec);
                    self.len(defs.len());
                    for d in defs {
                        self.bind(&d.name);
                    }
                } else {
                    self.tag(Tag::Join);
                }
                for d in defs {
                    let outer = self.scope.len();
                    self.len(d.ty_params.len());
                    for a in &d.ty_params {
                        self.bind(a);
                    }
                    self.len(d.params.len());
                    for p in &d.params {
                        self.ty(&p.ty);
                    }
                    for p in &d.params {
                        self.bind(&p.name);
                    }
                    self.expr(&d.body);
                    self.scope.truncate(outer);
                }
                if !jb.is_rec() {
                    for d in defs {
                        self.bind(&d.name);
                    }
                }
                self.expr(body);
            }
            Expr::Jump(j, tys, args, res) => {
                self.name(j, Tag::Jump, Tag::FreeJump);
                self.tys(tys);
                self.exprs(args);
                self.ty(res);
            }
        }
        self.scope.truncate(mark);
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
        // The streamed fingerprint is the hash of the form in memory.
        assert_eq!(alpha_fingerprint(&e), AlphaForm::of(&e).fingerprint());
    }

    #[test]
    fn different_structure_not_equal() {
        let a = Expr::Lit(1);
        let b = Expr::Lit(2);
        assert!(!alpha_eq(&a, &b));
        assert_ne!(alpha_fingerprint(&a), alpha_fingerprint(&b));
    }

    /// Lists are length-prefixed, so a field or an alternative that moves
    /// across a nesting boundary changes the form: `K (L 1) 2` against
    /// `K (L 1 2)`, and an alternative moved between two nested cases.
    #[test]
    fn list_boundaries_are_part_of_the_form() {
        use crate::expr::Alt;
        let con = |c: &str, args: Vec<Expr>| Expr::Con(Ident::new(c), vec![], args);
        let alt = |c: &str, rhs: Expr| Alt::simple(AltCon::Con(Ident::new(c)), rhs);
        let (x, y) = (Expr::var(&Name::with_id("x", 1)), Name::with_id("y", 2));
        let inner = |alts| Expr::case(Expr::var(&y), alts);
        let pairs = [
            (
                con("K", vec![con("L", vec![Expr::Lit(1)]), Expr::Lit(2)]),
                con("K", vec![con("L", vec![Expr::Lit(1), Expr::Lit(2)])]),
            ),
            (
                Expr::case(
                    x.clone(),
                    vec![
                        alt("A", inner(vec![alt("B", Expr::Lit(1))])),
                        alt("C", Expr::Lit(2)),
                    ],
                ),
                Expr::case(
                    x,
                    vec![alt(
                        "A",
                        inner(vec![alt("B", Expr::Lit(1)), alt("C", Expr::Lit(2))]),
                    )],
                ),
            ),
        ];
        for (a, b) in &pairs {
            assert!(!alpha_eq(a, b), "{a} vs {b}");
            assert_ne!(alpha_fingerprint(a), alpha_fingerprint(b), "{a} vs {b}");
        }
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
