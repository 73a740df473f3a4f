//! Terms of System F_J (Fig. 1 of the paper).
//!
//! The two highlighted constructs are [`Expr::Join`] — a join-point binding
//! `join j a⃗ (x:σ)⃗ = e in u` — and [`Expr::Jump`] — `jump j φ⃗ e⃗ τ`, which
//! transfers control to a join point, discarding the evaluation context up
//! to its binding.
//!
//! Unlike GHC (which flags join points on the identifier, Sec. 7 of the
//! paper), we give them distinct constructors: in Rust an enum variant is
//! the idiomatic rendering, and it turns "accidentally destroyed a join
//! point" into a shape the passes must handle explicitly.
//!
//! Extensions relative to the paper's Fig. 1, both present in real GHC Core:
//! integer literals ([`Expr::Lit`]) and saturated primitive operations
//! ([`Expr::Prim`]). Case alternatives may match literals and may include a
//! default ([`AltCon`]).
//!
//! ## Subtree sharing
//!
//! Subtrees are held behind [`Arc`], not `Box`, so cloning a term for a
//! rollback snapshot is a reference-count bump. A traversal written on
//! [`Expr::map_children`] returns "unchanged" for an untouched subtree
//! and rebuilds only the nodes on a path that changed; every other child
//! is the input's *same* pointer, and `Arc::ptr_eq` on it is a sound
//! "nothing changed below here" witness (names are globally unique, so a
//! shared subtree cannot mean two different things in two positions).
//! Contification, Float In, Float Out, CSE and erasure are written that
//! way, so a run of one of them that changes nothing allocates nothing.
//! The simplifier still rebuilds every node it visits. `Arc` rather than
//! `Rc` because terms cross threads: the compile service's batch
//! `compile` fans whole pipelines out over `par_map`, and its worker pool
//! shares cached terms.
//!
//! [`Expr::map_children`] visits children in evaluation order: function
//! before argument, scrutinee before alternatives, right-hand sides
//! before body, join definitions before body, and vector elements left
//! to right. Passes rely on that order: their rewrite counters and CSE's
//! fresh names come out the same as in a hand-written traversal.

use crate::name::{Ident, Name};
use crate::ty::Type;
use std::fmt;
use std::sync::Arc;

/// A typed term binder `x : σ`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Binder {
    /// The bound name.
    pub name: Name,
    /// Its annotated type.
    pub ty: Type,
}

impl Binder {
    /// Construct a binder.
    pub fn new(name: Name, ty: Type) -> Self {
        Binder { name, ty }
    }
}

impl fmt::Display for Binder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} : {})", self.name, self.ty)
    }
}

/// Saturated primitive operations over `Int` (GHC Core's primops).
///
/// Comparison operators return the `Bool` *datatype* (constructors `True`
/// and `False`), so their results can drive `case` — exactly how GHC wraps
/// `Int#` comparisons.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrimOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (truncating). Division by zero is a machine error.
    Div,
    /// Integer remainder. Remainder by zero is a machine error.
    Rem,
    /// Equality test, returns `Bool`.
    Eq,
    /// Inequality test, returns `Bool`.
    Ne,
    /// Less-than, returns `Bool`.
    Lt,
    /// Less-or-equal, returns `Bool`.
    Le,
    /// Greater-than, returns `Bool`.
    Gt,
    /// Greater-or-equal, returns `Bool`.
    Ge,
}

impl PrimOp {
    /// Number of `Int` operands (all current primops are binary).
    pub fn arity(self) -> usize {
        2
    }

    /// The result type of the operation.
    pub fn result_type(self) -> Type {
        match self {
            PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Rem => Type::Int,
            _ => Type::bool(),
        }
    }

    /// Evaluate on literal operands; `None` for division/remainder by zero.
    pub fn eval(self, a: i64, b: i64) -> Option<PrimResult> {
        Some(match self {
            PrimOp::Add => PrimResult::Int(a.wrapping_add(b)),
            PrimOp::Sub => PrimResult::Int(a.wrapping_sub(b)),
            PrimOp::Mul => PrimResult::Int(a.wrapping_mul(b)),
            PrimOp::Div => {
                if b == 0 {
                    return None;
                }
                PrimResult::Int(a.wrapping_div(b))
            }
            PrimOp::Rem => {
                if b == 0 {
                    return None;
                }
                PrimResult::Int(a.wrapping_rem(b))
            }
            PrimOp::Eq => PrimResult::Bool(a == b),
            PrimOp::Ne => PrimResult::Bool(a != b),
            PrimOp::Lt => PrimResult::Bool(a < b),
            PrimOp::Le => PrimResult::Bool(a <= b),
            PrimOp::Gt => PrimResult::Bool(a > b),
            PrimOp::Ge => PrimResult::Bool(a >= b),
        })
    }

    /// The source spelling, e.g. `+#`.
    pub fn symbol(self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Rem => "%",
            PrimOp::Eq => "==",
            PrimOp::Ne => "/=",
            PrimOp::Lt => "<",
            PrimOp::Le => "<=",
            PrimOp::Gt => ">",
            PrimOp::Ge => ">=",
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Result of constant-folding a [`PrimOp`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrimResult {
    /// An integer result.
    Int(i64),
    /// A boolean result (to be injected as the `True`/`False` constructor).
    Bool(bool),
}

/// What a case alternative matches.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AltCon {
    /// A data constructor pattern `K x⃗`.
    Con(Ident),
    /// An integer literal pattern.
    Lit(i64),
    /// The default alternative `_`.
    Default,
}

impl fmt::Display for AltCon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AltCon::Con(c) => write!(f, "{c}"),
            AltCon::Lit(n) => write!(f, "{n}"),
            AltCon::Default => write!(f, "_"),
        }
    }
}

/// A case alternative `K (x:σ)⃗ → u`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alt {
    /// The pattern head.
    pub con: AltCon,
    /// Field binders (empty unless `con` is a constructor with fields).
    pub binders: Vec<Binder>,
    /// Right-hand side.
    pub rhs: Expr,
}

impl Alt {
    /// An alternative with no field binders.
    pub fn simple(con: AltCon, rhs: Expr) -> Self {
        Alt {
            con,
            binders: Vec::new(),
            rhs,
        }
    }
}

/// A value binding: `let x:τ = e` or `let rec (x:τ = e)⃗`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LetBind {
    /// A non-recursive binding.
    NonRec(Binder, Arc<Expr>),
    /// A mutually recursive group.
    Rec(Vec<(Binder, Expr)>),
}

impl LetBind {
    /// All binders of the group.
    pub fn binders(&self) -> Vec<&Binder> {
        match self {
            LetBind::NonRec(b, _) => vec![b],
            LetBind::Rec(bs) => bs.iter().map(|(b, _)| b).collect(),
        }
    }

    /// All (binder, rhs) pairs.
    pub fn pairs(&self) -> Vec<(&Binder, &Expr)> {
        match self {
            LetBind::NonRec(b, e) => vec![(b, &**e)],
            LetBind::Rec(bs) => bs.iter().map(|(b, e)| (b, e)).collect(),
        }
    }

    /// Is this a recursive group?
    pub fn is_rec(&self) -> bool {
        matches!(self, LetBind::Rec(_))
    }
}

/// One join-point definition `j a⃗ (x:σ)⃗ = e`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JoinDef {
    /// The label.
    pub name: Name,
    /// Bound type parameters `a⃗`.
    pub ty_params: Vec<Name>,
    /// Bound value parameters `(x:σ)⃗`.
    pub params: Vec<Binder>,
    /// The body.
    pub body: Expr,
}

impl JoinDef {
    /// The label's type per rule JBIND: `∀a⃗. σ⃗ → ∀r.r`.
    pub fn label_type(&self) -> Type {
        let core = Type::funs(self.params.iter().map(|b| b.ty.clone()), Type::bot());
        self.ty_params
            .iter()
            .rev()
            .fold(core, |acc, a| Type::forall(a.clone(), acc))
    }

    /// Total number of parameters (type + value); jumps must be saturated.
    pub fn arity(&self) -> (usize, usize) {
        (self.ty_params.len(), self.params.len())
    }
}

/// A join binding: one definition or a recursive group.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JoinBind {
    /// A non-recursive join point.
    NonRec(Arc<JoinDef>),
    /// A recursive group of join points.
    Rec(Vec<JoinDef>),
}

impl JoinBind {
    /// All definitions in the group.
    pub fn defs(&self) -> &[JoinDef] {
        match self {
            JoinBind::NonRec(d) => std::slice::from_ref(&**d),
            JoinBind::Rec(ds) => ds,
        }
    }

    /// Mutable access to all definitions in the group (copy-on-write for
    /// a shared non-recursive definition).
    pub fn defs_mut(&mut self) -> &mut [JoinDef] {
        match self {
            JoinBind::NonRec(d) => std::slice::from_mut(Arc::make_mut(d)),
            JoinBind::Rec(ds) => ds,
        }
    }

    /// Is this a recursive group?
    pub fn is_rec(&self) -> bool {
        matches!(self, JoinBind::Rec(_))
    }

    /// Labels bound by the group.
    pub fn labels(&self) -> Vec<&Name> {
        self.defs().iter().map(|d| &d.name).collect()
    }
}

/// A System F_J term.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// A term variable.
    Var(Name),
    /// An integer literal.
    Lit(i64),
    /// A saturated primitive operation.
    Prim(PrimOp, Vec<Expr>),
    /// `λ(x:σ). e`.
    Lam(Binder, Arc<Expr>),
    /// Application `e u`.
    App(Arc<Expr>, Arc<Expr>),
    /// `Λa. e`.
    TyLam(Name, Arc<Expr>),
    /// Type application `e φ`.
    TyApp(Arc<Expr>, Type),
    /// Saturated data construction `K φ⃗ e⃗`.
    Con(Ident, Vec<Type>, Vec<Expr>),
    /// `case e of alt⃗`.
    Case(Arc<Expr>, Vec<Alt>),
    /// `let vb in e`.
    Let(LetBind, Arc<Expr>),
    /// `join jb in u` — the join-point binding (paper Fig. 1, highlighted).
    Join(JoinBind, Arc<Expr>),
    /// `jump j φ⃗ e⃗ τ` — invoke a join point, discarding the evaluation
    /// context. The trailing `τ` is the *result-type annotation*: a jump may
    /// be given any type (rule JUMP), and `abort` retargets it.
    Jump(Name, Vec<Type>, Vec<Expr>, Type),
}

impl Expr {
    /// A variable reference.
    pub fn var(n: &Name) -> Expr {
        Expr::Var(n.clone())
    }

    /// Wrap a term in the shared subtree pointer.
    pub fn share(e: Expr) -> Arc<Expr> {
        Arc::new(e)
    }

    /// Take ownership of a shared subtree: free when this is the only
    /// reference, a one-node-deep clone otherwise (children stay shared).
    pub fn unshare(e: Arc<Expr>) -> Expr {
        Arc::try_unwrap(e).unwrap_or_else(|shared| (*shared).clone())
    }

    /// `λ(x:σ). e`.
    pub fn lam(b: Binder, body: Expr) -> Expr {
        Expr::Lam(b, Arc::new(body))
    }

    /// Nested λ over several binders.
    pub fn lams(bs: impl IntoIterator<Item = Binder>, body: Expr) -> Expr {
        let bs: Vec<Binder> = bs.into_iter().collect();
        bs.into_iter().rev().fold(body, |acc, b| Expr::lam(b, acc))
    }

    /// Application `f a`.
    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Arc::new(f), Arc::new(a))
    }

    /// Application to several arguments.
    pub fn apps(f: Expr, args: impl IntoIterator<Item = Expr>) -> Expr {
        args.into_iter().fold(f, Expr::app)
    }

    /// `Λa. e`.
    pub fn ty_lam(a: Name, body: Expr) -> Expr {
        Expr::TyLam(a, Arc::new(body))
    }

    /// Type application `e φ`.
    pub fn ty_app(e: Expr, t: Type) -> Expr {
        Expr::TyApp(Arc::new(e), t)
    }

    /// `case e of alts`.
    pub fn case(scrut: Expr, alts: Vec<Alt>) -> Expr {
        Expr::Case(Arc::new(scrut), alts)
    }

    /// Non-recursive `let`.
    pub fn let1(b: Binder, rhs: Expr, body: Expr) -> Expr {
        Expr::Let(LetBind::NonRec(b, Arc::new(rhs)), Arc::new(body))
    }

    /// Recursive `let`.
    pub fn letrec(binds: Vec<(Binder, Expr)>, body: Expr) -> Expr {
        Expr::Let(LetBind::Rec(binds), Arc::new(body))
    }

    /// Non-recursive `join`.
    pub fn join1(def: JoinDef, body: Expr) -> Expr {
        Expr::Join(JoinBind::NonRec(Arc::new(def)), Arc::new(body))
    }

    /// Recursive `join`.
    pub fn joinrec(defs: Vec<JoinDef>, body: Expr) -> Expr {
        Expr::Join(JoinBind::Rec(defs), Arc::new(body))
    }

    /// A jump with its result-type annotation.
    pub fn jump(j: &Name, tys: Vec<Type>, args: Vec<Expr>, res: Type) -> Expr {
        Expr::Jump(j.clone(), tys, args, res)
    }

    /// A saturated binary primop.
    pub fn prim2(op: PrimOp, a: Expr, b: Expr) -> Expr {
        Expr::Prim(op, vec![a, b])
    }

    /// The `True`/`False` constructors.
    pub fn bool(b: bool) -> Expr {
        Expr::Con(Ident::new(if b { "True" } else { "False" }), vec![], vec![])
    }

    /// `if c then t else f`, desugared to a Bool case.
    pub fn ite(c: Expr, t: Expr, f: Expr) -> Expr {
        Expr::case(
            c,
            vec![
                Alt::simple(AltCon::Con(Ident::new("True")), t),
                Alt::simple(AltCon::Con(Ident::new("False")), f),
            ],
        )
    }

    /// Is this expression *atomic* (a variable or literal)? Atoms are
    /// duplicated freely by the optimizer and allocate nothing.
    pub fn is_atom(&self) -> bool {
        matches!(self, Expr::Var(_) | Expr::Lit(_))
    }

    /// Is this an *answer* per Fig. 1: `λx.e`, `Λa.e`, or `K φ⃗ v⃗`?
    /// (Literals are answers too in our extended calculus.)
    pub fn is_answer(&self) -> bool {
        matches!(
            self,
            Expr::Lam(..) | Expr::TyLam(..) | Expr::Con(..) | Expr::Lit(_)
        )
    }

    /// Split a spine of value/type applications:
    /// `f @t1 x @t2 y` ⇒ (`f`, [t1 @, x, t2 @, y…]) in order.
    pub fn collect_app_spine(&self) -> (&Expr, Vec<SpineArg<'_>>) {
        let mut args = Vec::new();
        let mut e = self;
        loop {
            match e {
                Expr::App(f, a) => {
                    args.push(SpineArg::Term(a));
                    e = f;
                }
                Expr::TyApp(f, t) => {
                    args.push(SpineArg::Ty(t));
                    e = f;
                }
                _ => break,
            }
        }
        args.reverse();
        (e, args)
    }

    /// Count AST nodes — the optimizer's "size" for inlining decisions.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Pre-order traversal calling `f` on every subexpression.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Var(_) | Expr::Lit(_) => {}
            Expr::Prim(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Lam(_, b) | Expr::TyLam(_, b) => b.walk(f),
            Expr::App(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::TyApp(a, _) => a.walk(f),
            Expr::Con(_, _, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case(s, alts) => {
                s.walk(f);
                for alt in alts {
                    alt.rhs.walk(f);
                }
            }
            Expr::Let(b, body) => {
                match b {
                    LetBind::NonRec(_, rhs) => rhs.walk(f),
                    LetBind::Rec(bs) => {
                        for (_, rhs) in bs {
                            rhs.walk(f);
                        }
                    }
                }
                body.walk(f);
            }
            Expr::Join(jb, body) => {
                for d in jb.defs() {
                    d.body.walk(f);
                }
                body.walk(f);
            }
            Expr::Jump(_, _, args, _) => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// Rebuild this node with `f` applied to each immediate subterm, in
    /// evaluation order (see the module docs). `f` returns `None` for a
    /// child it leaves unchanged. When every call returns `None`, so does
    /// this method, and nothing is allocated; otherwise the result is one
    /// new node whose untouched `Arc` children are the input's own.
    pub fn map_children(&self, mut f: impl FnMut(&Expr) -> Option<Expr>) -> Option<Expr> {
        Some(match self {
            Expr::Var(_) | Expr::Lit(_) => return None,
            Expr::Prim(op, args) => Expr::Prim(*op, map_slice(args, f)?),
            Expr::Lam(b, body) => Expr::Lam(b.clone(), Arc::new(f(body)?)),
            Expr::TyLam(a, body) => Expr::TyLam(a.clone(), Arc::new(f(body)?)),
            Expr::TyApp(fun, t) => Expr::TyApp(Arc::new(f(fun)?), t.clone()),
            Expr::Con(c, tys, args) => Expr::Con(c.clone(), tys.clone(), map_slice(args, f)?),
            Expr::Jump(j, tys, args, res) => {
                Expr::Jump(j.clone(), tys.clone(), map_slice(args, f)?, res.clone())
            }
            Expr::App(fun, arg) => {
                let (fun2, arg2) = (f(fun).map(Arc::new), f(arg).map(Arc::new));
                if fun2.is_none() && arg2.is_none() {
                    return None;
                }
                Expr::App(
                    fun2.unwrap_or_else(|| fun.clone()),
                    arg2.unwrap_or_else(|| arg.clone()),
                )
            }
            Expr::Case(s, alts) => {
                let s2 = f(s).map(Arc::new);
                let alts2 = map_slice(alts, |a| {
                    f(&a.rhs).map(|rhs| Alt {
                        con: a.con.clone(),
                        binders: a.binders.clone(),
                        rhs,
                    })
                });
                if s2.is_none() && alts2.is_none() {
                    return None;
                }
                Expr::Case(
                    s2.unwrap_or_else(|| s.clone()),
                    alts2.unwrap_or_else(|| alts.clone()),
                )
            }
            Expr::Let(bind, body) => {
                let bind2 = match bind {
                    LetBind::NonRec(b, rhs) => f(rhs).map(|r| LetBind::NonRec(b.clone(), r.into())),
                    LetBind::Rec(bs) => {
                        map_slice(bs, |(b, rhs)| Some((b.clone(), f(rhs)?))).map(LetBind::Rec)
                    }
                };
                let body2 = f(body).map(Arc::new);
                if bind2.is_none() && body2.is_none() {
                    return None;
                }
                Expr::Let(
                    bind2.unwrap_or_else(|| bind.clone()),
                    body2.unwrap_or_else(|| body.clone()),
                )
            }
            Expr::Join(jb, body) => {
                let jb2 = match jb {
                    JoinBind::NonRec(d) => map_def(d, &mut f).map(|d| JoinBind::NonRec(d.into())),
                    JoinBind::Rec(ds) => map_slice(ds, |d| map_def(d, &mut f)).map(JoinBind::Rec),
                };
                let body2 = f(body).map(Arc::new);
                if jb2.is_none() && body2.is_none() {
                    return None;
                }
                Expr::Join(
                    jb2.unwrap_or_else(|| jb.clone()),
                    body2.unwrap_or_else(|| body.clone()),
                )
            }
        })
    }

    /// Does the expression contain any `join`/`jump` node? Erasure
    /// (Theorem 5) must produce a term for which this is `false`.
    pub fn has_join_or_jump(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Join(..) | Expr::Jump(..)) {
                found = true;
            }
        });
        found
    }
}

/// Map `f` over `xs` left to right: `None` when every call returned
/// `None`, else the whole vector with the untouched elements cloned.
/// Nothing is allocated before the first change. This and [`map_def`]
/// are out of line to keep `map_children`'s frame, which every level of
/// a traversal pays, small.
#[inline(never)]
fn map_slice<T: Clone>(xs: &[T], mut f: impl FnMut(&T) -> Option<T>) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, x) in xs.iter().enumerate() {
        match (f(x), &mut out) {
            (Some(y), Some(v)) => v.push(y),
            (Some(y), None) => {
                let mut v = Vec::with_capacity(xs.len());
                v.extend_from_slice(&xs[..i]);
                v.push(y);
                out = Some(v);
            }
            (None, Some(v)) => v.push(x.clone()),
            (None, None) => {}
        }
    }
    out
}

/// A join definition with `f` applied to its body.
#[inline(never)]
fn map_def(d: &JoinDef, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Option<JoinDef> {
    f(&d.body).map(|body| JoinDef {
        name: d.name.clone(),
        ty_params: d.ty_params.clone(),
        params: d.params.clone(),
        body,
    })
}

/// One argument on an application spine (see [`Expr::collect_app_spine`]).
#[derive(Clone, Copy, Debug)]
pub enum SpineArg<'a> {
    /// A term argument.
    Term(&'a Expr),
    /// A type argument.
    Ty(&'a Type),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NameSupply;

    fn b(s: &mut NameSupply, n: &str) -> Binder {
        Binder::new(s.fresh(n), Type::Int)
    }

    #[test]
    fn lams_and_apps_invert() {
        let mut s = NameSupply::new();
        let x = b(&mut s, "x");
        let y = b(&mut s, "y");
        let body = Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::var(&y.name));
        let f = Expr::lams([x, y], body);
        let applied = Expr::apps(f, [Expr::Lit(1), Expr::Lit(2)]);
        let (head, spine) = applied.collect_app_spine();
        assert!(matches!(head, Expr::Lam(..)));
        assert_eq!(spine.len(), 2);
    }

    #[test]
    fn join_label_type_shape() {
        let mut s = NameSupply::new();
        let a = s.fresh("a");
        let j = JoinDef {
            name: s.fresh("j"),
            ty_params: vec![a.clone()],
            params: vec![Binder::new(s.fresh("x"), Type::Var(a.clone()))],
            body: Expr::Lit(0),
        };
        // ∀a. a -> ∀r.r
        let t = j.label_type();
        match t {
            Type::Forall(a2, inner) => {
                assert_eq!(a2, a);
                match *inner {
                    Type::Fun(arg, res) => {
                        assert_eq!(*arg, Type::Var(a));
                        assert!(res.is_bot());
                    }
                    other => panic!("expected function type, got {other}"),
                }
            }
            other => panic!("expected forall, got {other}"),
        }
    }

    #[test]
    fn primop_folding() {
        assert_eq!(PrimOp::Add.eval(2, 3), Some(PrimResult::Int(5)));
        assert_eq!(PrimOp::Lt.eval(2, 3), Some(PrimResult::Bool(true)));
        assert_eq!(PrimOp::Div.eval(1, 0), None);
        assert_eq!(PrimOp::Rem.eval(7, 3), Some(PrimResult::Int(1)));
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn answers_and_atoms() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        assert!(Expr::var(&x).is_atom());
        assert!(Expr::Lit(3).is_atom());
        assert!(Expr::bool(true).is_answer());
        assert!(!Expr::app(Expr::var(&x), Expr::Lit(1)).is_answer());
    }

    #[test]
    fn has_join_detects_jumps() {
        let mut s = NameSupply::new();
        let j = s.fresh("j");
        let e = Expr::jump(&j, vec![], vec![], Type::Int);
        assert!(e.has_join_or_jump());
        assert!(!Expr::Lit(1).has_join_or_jump());
    }

    /// One term per variant (both shapes of `let` and `join`), each with
    /// several children where the variant allows it.
    fn one_of_each(s: &mut NameSupply) -> Vec<Expr> {
        let x = b(s, "x");
        let j = s.fresh("j");
        let def = |name: &Name, n: i64| JoinDef {
            name: name.clone(),
            ty_params: vec![],
            params: vec![],
            body: Expr::Lit(n),
        };
        let a = s.fresh("a");
        vec![
            Expr::var(&x.name),
            Expr::Lit(0),
            Expr::prim2(PrimOp::Add, Expr::Lit(1), Expr::Lit(2)),
            Expr::lam(x.clone(), Expr::Lit(1)),
            Expr::app(Expr::Lit(1), Expr::Lit(2)),
            Expr::ty_lam(a, Expr::Lit(1)),
            Expr::ty_app(Expr::Lit(1), Type::Int),
            Expr::Con(Ident::new("Pair"), vec![], vec![Expr::Lit(1), Expr::Lit(2)]),
            Expr::case(
                Expr::Lit(1),
                vec![
                    Alt::simple(AltCon::Lit(0), Expr::Lit(2)),
                    Alt::simple(AltCon::Default, Expr::Lit(3)),
                ],
            ),
            Expr::let1(x.clone(), Expr::Lit(1), Expr::Lit(2)),
            Expr::letrec(
                vec![(x.clone(), Expr::Lit(1)), (b(s, "y"), Expr::Lit(2))],
                Expr::Lit(3),
            ),
            Expr::join1(def(&j, 1), Expr::Lit(2)),
            Expr::joinrec(vec![def(&j, 1), def(&s.fresh("k"), 2)], Expr::Lit(3)),
            Expr::jump(&j, vec![], vec![Expr::Lit(1), Expr::Lit(2)], Type::Int),
        ]
    }

    /// The `Arc`-held children of a node, including a non-recursive
    /// join's shared definition (as its body's address).
    fn arc_children(e: &Expr) -> Vec<*const Expr> {
        match e {
            Expr::Lam(_, c) | Expr::TyLam(_, c) | Expr::TyApp(c, _) | Expr::Case(c, _) => {
                vec![Arc::as_ptr(c)]
            }
            Expr::App(f, a) => vec![Arc::as_ptr(f), Arc::as_ptr(a)],
            Expr::Let(LetBind::NonRec(_, rhs), body) => vec![Arc::as_ptr(rhs), Arc::as_ptr(body)],
            Expr::Join(JoinBind::NonRec(d), body) => {
                vec![&d.body as *const Expr, Arc::as_ptr(body)]
            }
            Expr::Let(_, body) | Expr::Join(_, body) => vec![Arc::as_ptr(body)],
            _ => vec![],
        }
    }

    fn children(e: &Expr) -> Vec<Expr> {
        let mut out = Vec::new();
        assert!(e
            .map_children(|c| {
                out.push(c.clone());
                None
            })
            .is_none());
        out
    }

    #[test]
    fn map_children_with_no_change_is_none_for_every_variant() {
        let mut s = NameSupply::new();
        for e in one_of_each(&mut s) {
            let mut calls = 0;
            let out = e.map_children(|_| {
                calls += 1;
                None
            });
            assert!(out.is_none(), "{e}");
            // Every child here is a leaf, so the node has size - 1 of them.
            assert_eq!(calls, e.size() - 1, "{e}");
        }
    }

    #[test]
    fn map_children_shares_every_untouched_arc_child() {
        let mut s = NameSupply::new();
        for e in one_of_each(&mut s) {
            let kids = children(&e);
            for target in 0..kids.len() {
                let mut i = 0;
                let out = e
                    .map_children(|_| {
                        i += 1;
                        (i - 1 == target).then_some(Expr::Lit(99))
                    })
                    .expect("one child changed");
                let mut expected = kids.clone();
                expected[target] = Expr::Lit(99);
                assert_eq!(children(&out), expected, "{e}");
                let (before, after) = (arc_children(&e), arc_children(&out));
                let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
                assert!(
                    moved <= 1,
                    "{e}: {moved} untouched Arc children were copied"
                );
            }
        }
    }

    #[test]
    fn map_children_visits_in_evaluation_order() {
        let mut s = NameSupply::new();
        let (x, f, g) = (b(&mut s, "x"), b(&mut s, "f"), b(&mut s, "g"));
        let (j, k) = (s.fresh("j"), s.fresh("k"));
        // letrec f = λx. x + 1; g = 2
        // in joinrec j = f 3; k = 4
        // in case 5 of { 6 → jump j 7; _ → g }
        let e = Expr::letrec(
            vec![
                (
                    f.clone(),
                    Expr::lam(
                        x.clone(),
                        Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
                    ),
                ),
                (g.clone(), Expr::Lit(2)),
            ],
            Expr::joinrec(
                vec![
                    JoinDef {
                        name: j.clone(),
                        ty_params: vec![],
                        params: vec![],
                        body: Expr::app(Expr::var(&f.name), Expr::Lit(3)),
                    },
                    JoinDef {
                        name: k,
                        ty_params: vec![],
                        params: vec![],
                        body: Expr::Lit(4),
                    },
                ],
                Expr::case(
                    Expr::Lit(5),
                    vec![
                        Alt::simple(
                            AltCon::Lit(6),
                            Expr::jump(&j, vec![], vec![Expr::Lit(7)], Type::Int),
                        ),
                        Alt::simple(AltCon::Default, Expr::var(&g.name)),
                    ],
                ),
            ),
        );
        fn visit(e: &Expr, log: &mut Vec<String>) {
            let _ = e.map_children(|c| {
                log.push(match c {
                    Expr::Lit(n) => n.to_string(),
                    Expr::Var(v) => v.text().to_string(),
                    Expr::Lam(..) => "λ".into(),
                    Expr::Prim(op, _) => op.symbol().into(),
                    Expr::App(..) => "app".into(),
                    Expr::Join(..) => "join".into(),
                    Expr::Case(..) => "case".into(),
                    Expr::Jump(..) => "jump".into(),
                    other => panic!("unexpected child {other}"),
                });
                visit(c, log);
                None
            });
        }
        let mut log = Vec::new();
        visit(&e, &mut log);
        let expected = [
            "λ", "+", "x", "1", "2", "join", "app", "f", "3", "4", "case", "5", "jump", "7", "g",
        ];
        assert_eq!(log, expected);
    }

    #[test]
    fn ite_desugars_to_bool_case() {
        let e = Expr::ite(Expr::bool(true), Expr::Lit(1), Expr::Lit(2));
        match e {
            Expr::Case(_, alts) => {
                assert_eq!(alts.len(), 2);
                assert_eq!(alts[0].con, AltCon::Con(Ident::new("True")));
            }
            other => panic!("expected case, got {other:?}"),
        }
    }
}
