//! The System F_J type checker — GHC's "Core Lint" for our calculus.
//!
//! This is a direct transliteration of Fig. 2 of the paper. The checker is
//! run after every optimizer pass in tests (paper Sec. 7: "Core Lint …
//! forensically identified several existing Core-to-Core passes that were
//! destroying join points"); any pass that breaks the Δ discipline — e.g.
//! by letting a jump escape into a lambda or an argument — fails here.

use crate::env::{Delta, Gamma, JoinSig};
use fj_ast::{AltCon, Binder, DataEnv, Expr, Ident, JoinBind, LetBind, Name, PrimOp, Type};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasher;

/// Why a term failed to lint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintErrorKind {
    /// A term variable is not in Γ.
    UnboundVar(Name),
    /// A type variable is not in scope.
    UnboundTyVar(Name),
    /// A label is not in Δ — either truly unbound, or a jump in a position
    /// where Δ was reset (the paper's "jumps are not side effects" rule).
    UnboundLabel(Name),
    /// Expected one type, found another.
    Mismatch {
        /// What the context required.
        expected: Type,
        /// What the term actually had.
        found: Type,
        /// Where (human-readable).
        context: &'static str,
    },
    /// A non-function was applied.
    NotAFunction(Type),
    /// A non-∀ was type-applied.
    NotPolymorphic(Type),
    /// `case` scrutinee with constructor alternatives isn't a datatype.
    NotADatatype(Type),
    /// Constructor alternative doesn't belong to the scrutinee's datatype.
    WrongDatatype {
        /// The constructor in the alternative.
        con: Ident,
        /// The scrutinee's type constructor.
        scrutinee: Ident,
    },
    /// A constructor or jump applied to the wrong number of arguments.
    Arity {
        /// What was being applied.
        what: String,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        got: usize,
    },
    /// Case alternatives are missing and there is no default.
    NonExhaustiveCase,
    /// A case expression with no alternatives at all.
    EmptyCase,
    /// Duplicate alternative for the same constructor/literal.
    DuplicateAlt,
    /// Alternative field binder count doesn't match the constructor.
    FieldCount {
        /// The constructor.
        con: Ident,
        /// Declared field count.
        expected: usize,
        /// Binder count in the alternative.
        got: usize,
    },
    /// A datatype error (unknown constructor, arity, …).
    Data(fj_ast::DataEnvError),
    /// Primop applied to the wrong number of arguments.
    PrimArity(PrimOp, usize),
    /// A join point's RHS type differs from the join body's type
    /// (rule JBIND's crucial premise).
    JoinResultMismatch {
        /// The label.
        label: Name,
        /// The body's type (what the RHS must match).
        body_ty: Type,
        /// The RHS's type.
        rhs_ty: Type,
    },
}

impl fmt::Display for LintErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintErrorKind::UnboundVar(x) => write!(f, "unbound variable {x}"),
            LintErrorKind::UnboundTyVar(a) => write!(f, "unbound type variable {a}"),
            LintErrorKind::UnboundLabel(j) => {
                write!(
                    f,
                    "label {j} not in scope (jump outside its join's tail context?)"
                )
            }
            LintErrorKind::Mismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            LintErrorKind::NotAFunction(t) => write!(f, "applied non-function of type {t}"),
            LintErrorKind::NotPolymorphic(t) => {
                write!(f, "type-applied non-polymorphic type {t}")
            }
            LintErrorKind::NotADatatype(t) => write!(f, "case scrutinee has type {t}"),
            LintErrorKind::WrongDatatype { con, scrutinee } => {
                write!(
                    f,
                    "constructor {con} does not belong to datatype {scrutinee}"
                )
            }
            LintErrorKind::Arity {
                what,
                expected,
                got,
            } => {
                write!(f, "{what} expects {expected} arguments, got {got}")
            }
            LintErrorKind::NonExhaustiveCase => write!(f, "non-exhaustive case alternatives"),
            LintErrorKind::EmptyCase => write!(f, "case with no alternatives"),
            LintErrorKind::DuplicateAlt => write!(f, "duplicate case alternative"),
            LintErrorKind::FieldCount { con, expected, got } => {
                write!(
                    f,
                    "constructor {con} has {expected} fields, pattern binds {got}"
                )
            }
            LintErrorKind::Data(e) => write!(f, "{e}"),
            LintErrorKind::PrimArity(op, got) => {
                write!(f, "primop {op} expects 2 arguments, got {got}")
            }
            LintErrorKind::JoinResultMismatch {
                label,
                body_ty,
                rhs_ty,
            } => write!(
                f,
                "join point {label} returns {rhs_ty} but the join body returns {body_ty}"
            ),
        }
    }
}

/// A lint failure, with a breadcrumb trail to the offending subterm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// What went wrong.
    pub kind: LintErrorKind,
    /// Path from the root to the error site (outermost first). Binding
    /// steps name the binder they pass through (`let s_12 rhs`,
    /// `lambda x_3 body`, `case alt Cons`, …) so a rollback reason in
    /// `fj report` points at the actual culprit.
    pub path: Vec<String>,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.path.is_empty() {
            write!(f, " (at {})", self.path.join(" > "))?;
        }
        Ok(())
    }
}

impl std::error::Error for LintError {}

impl From<fj_ast::DataEnvError> for LintError {
    fn from(e: fj_ast::DataEnvError) -> Self {
        LintError {
            kind: LintErrorKind::Data(e),
            path: Vec::new(),
        }
    }
}

fn err(kind: LintErrorKind) -> LintError {
    LintError {
        kind,
        path: Vec::new(),
    }
}

fn at(label: impl Into<String>, r: Result<Type, LintError>) -> Result<Type, LintError> {
    r.map_err(|mut e| {
        e.path.insert(0, label.into());
        e
    })
}

/// Type-check a closed term against a datatype environment.
///
/// # Errors
///
/// Returns the first [`LintError`] encountered, with a path to the site.
pub fn lint(e: &Expr, data_env: &DataEnv) -> Result<Type, LintError> {
    Checker { data_env }.infer(e, &Gamma::new(), &Delta::empty())
}

/// The type of a term assumed well-typed, read off its annotations.
///
/// System F_J is explicitly typed, so a term's type is fixed by its tail
/// spine: each binder's body, the first `case` alternative and the
/// function of each application, down to a variable, a literal, a primop,
/// a constructor (its datatype) or a jump (its annotation). Nothing off
/// the spine is visited and nothing is checked; [`lint`] is the checker.
/// Binders crossed on the spine type their own variables, and `types`
/// types every other variable.
///
/// # Errors
///
/// Returns a [`LintError`] when the spine itself cannot be typed: a
/// variable that is neither spine-bound nor in `types`, an unknown
/// constructor, an empty `case`, or an application whose function type
/// has the wrong shape.
pub fn type_of<S: BuildHasher>(
    e: &Expr,
    data_env: &DataEnv,
    types: &HashMap<Name, Type, S>,
) -> Result<Type, LintError> {
    fn spine<'e, S: BuildHasher>(
        e: &'e Expr,
        data_env: &DataEnv,
        types: &HashMap<Name, Type, S>,
        bound: &mut Vec<&'e Binder>,
    ) -> Result<Type, LintError> {
        let go = |e: &'e Expr, bound: &mut Vec<&'e Binder>| spine(e, data_env, types, bound);
        match e {
            Expr::Var(x) => bound
                .iter()
                .rev()
                .find(|b| b.name == *x)
                .map(|b| &b.ty)
                .or_else(|| types.get(x))
                .cloned()
                .ok_or_else(|| err(LintErrorKind::UnboundVar(x.clone()))),
            Expr::Lit(_) => Ok(Type::Int),
            Expr::Prim(op, _) => Ok(op.result_type()),
            Expr::Con(c, tys, _) => Ok(Type::Con(data_env.owner_of(c)?.name.clone(), tys.clone())),
            Expr::Jump(.., res_ty) => Ok(res_ty.clone()),
            Expr::Lam(b, body) => {
                bound.push(b);
                Ok(Type::fun(b.ty.clone(), go(body, bound)?))
            }
            Expr::TyLam(a, body) => Ok(Type::forall(a.clone(), go(body, bound)?)),
            Expr::App(f, _) => match go(f, bound)? {
                Type::Fun(_, res) => Ok(*res),
                other => Err(err(LintErrorKind::NotAFunction(other))),
            },
            Expr::TyApp(f, phi) => match go(f, bound)? {
                Type::Forall(a, body) => Ok(body.subst1(&a, phi)),
                other => Err(err(LintErrorKind::NotPolymorphic(other))),
            },
            Expr::Let(LetBind::NonRec(b, _), body) => {
                bound.push(b);
                go(body, bound)
            }
            Expr::Let(LetBind::Rec(binds), body) => {
                bound.extend(binds.iter().map(|(b, _)| b));
                go(body, bound)
            }
            Expr::Join(_, body) => go(body, bound),
            Expr::Case(_, alts) => {
                let alt = alts.first().ok_or_else(|| err(LintErrorKind::EmptyCase))?;
                bound.extend(&alt.binders);
                go(&alt.rhs, bound)
            }
        }
    }
    spine(e, data_env, types, &mut Vec::new())
}

struct Checker<'a> {
    data_env: &'a DataEnv,
}

impl Checker<'_> {
    /// Check that a type is well-formed under Γ: free type variables in
    /// scope, datatype applications saturated.
    fn wf_type(&self, t: &Type, gamma: &Gamma) -> Result<(), LintError> {
        match t {
            Type::Var(a) => {
                if gamma.has_tyvar(a) {
                    Ok(())
                } else {
                    Err(err(LintErrorKind::UnboundTyVar(a.clone())))
                }
            }
            Type::Con(tc, args) => {
                let dt = self.data_env.datatype(tc)?;
                if dt.ty_vars.len() != args.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("type constructor {tc}"),
                        expected: dt.ty_vars.len(),
                        got: args.len(),
                    }));
                }
                for a in args {
                    self.wf_type(a, gamma)?;
                }
                Ok(())
            }
            Type::Fun(a, b) => {
                self.wf_type(a, gamma)?;
                self.wf_type(b, gamma)
            }
            Type::Forall(a, body) => {
                let mut g = gamma.clone();
                g.bind_tyvar(a.clone());
                self.wf_type(body, &g)
            }
            Type::Int => Ok(()),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn infer(&self, e: &Expr, gamma: &Gamma, delta: &Delta) -> Result<Type, LintError> {
        match e {
            Expr::Var(x) => gamma
                .var(x)
                .cloned()
                .ok_or_else(|| err(LintErrorKind::UnboundVar(x.clone()))),
            Expr::Lit(_) => Ok(Type::Int),
            Expr::Prim(op, args) => {
                if args.len() != op.arity() {
                    return Err(err(LintErrorKind::PrimArity(*op, args.len())));
                }
                for a in args {
                    // Δ reset: primop operands are strict argument positions.
                    let t = at("primop operand", self.infer(a, gamma, &Delta::empty()))?;
                    if t != Type::Int {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: Type::Int,
                            found: t,
                            context: "primop operand",
                        }));
                    }
                }
                Ok(op.result_type())
            }
            Expr::Lam(b, body) => {
                self.wf_type(&b.ty, gamma)?;
                let mut g = gamma.clone();
                g.bind_var(b.name.clone(), b.ty.clone());
                // Δ reset: a lambda may be called anywhere, so its body
                // cannot jump to enclosing join points.
                let body_ty = at(
                    format!("lambda {} body", b.name),
                    self.infer(body, &g, &Delta::empty()),
                )?;
                Ok(Type::fun(b.ty.clone(), body_ty))
            }
            Expr::TyLam(a, body) => {
                let mut g = gamma.clone();
                g.bind_tyvar(a.clone());
                let body_ty = at(
                    format!("type-lambda {a} body"),
                    self.infer(body, &g, &Delta::empty()),
                )?;
                Ok(Type::forall(a.clone(), body_ty))
            }
            Expr::App(f, x) => {
                // Δ propagates into the *function* part (evaluation context)
                // but is reset in the argument (rule APP).
                let f_ty = at("function", self.infer(f, gamma, delta))?;
                let x_ty = at("argument", self.infer(x, gamma, &Delta::empty()))?;
                match f_ty {
                    Type::Fun(a, b) => {
                        if a.alpha_eq(&x_ty) {
                            Ok(*b)
                        } else {
                            Err(err(LintErrorKind::Mismatch {
                                expected: *a,
                                found: x_ty,
                                context: "application argument",
                            }))
                        }
                    }
                    other => Err(err(LintErrorKind::NotAFunction(other))),
                }
            }
            Expr::TyApp(f, phi) => {
                self.wf_type(phi, gamma)?;
                let f_ty = at("type application head", self.infer(f, gamma, delta))?;
                match f_ty {
                    Type::Forall(a, body) => Ok(body.subst1(&a, phi)),
                    other => Err(err(LintErrorKind::NotPolymorphic(other))),
                }
            }
            Expr::Con(c, tys, args) => {
                for t in tys {
                    self.wf_type(t, gamma)?;
                }
                let (fields, result) = self.data_env.instantiate(c, tys)?;
                if fields.len() != args.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("constructor {c}"),
                        expected: fields.len(),
                        got: args.len(),
                    }));
                }
                for (field_ty, arg) in fields.iter().zip(args) {
                    // Δ reset: constructor arguments are stored, not run.
                    let t = at("constructor field", self.infer(arg, gamma, &Delta::empty()))?;
                    if !t.alpha_eq(field_ty) {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: field_ty.clone(),
                            found: t,
                            context: "constructor field",
                        }));
                    }
                }
                Ok(result)
            }
            Expr::Case(scrut, alts) => {
                // Δ propagates into the scrutinee (evaluation context) AND
                // the branches (tail context).
                let scrut_ty = at("case scrutinee", self.infer(scrut, gamma, delta))?;
                self.check_alts(&scrut_ty, alts, gamma, delta)
            }
            Expr::Let(bind, body) => {
                match bind {
                    LetBind::NonRec(b, rhs) => {
                        self.wf_type(&b.ty, gamma)?;
                        // Δ reset in the RHS of a value binding.
                        let rhs_ty = at(
                            format!("let {} rhs", b.name),
                            self.infer(rhs, gamma, &Delta::empty()),
                        )?;
                        if !rhs_ty.alpha_eq(&b.ty) {
                            return Err(err(LintErrorKind::Mismatch {
                                expected: b.ty.clone(),
                                found: rhs_ty,
                                context: "let binding",
                            }));
                        }
                        let mut g = gamma.clone();
                        g.bind_var(b.name.clone(), b.ty.clone());
                        at(format!("let {} body", b.name), self.infer(body, &g, delta))
                    }
                    LetBind::Rec(binds) => {
                        let mut g = gamma.clone();
                        for (b, _) in binds {
                            self.wf_type(&b.ty, gamma)?;
                            g.bind_var(b.name.clone(), b.ty.clone());
                        }
                        for (b, rhs) in binds {
                            let rhs_ty = at(
                                format!("letrec {} rhs", b.name),
                                self.infer(rhs, &g, &Delta::empty()),
                            )?;
                            if !rhs_ty.alpha_eq(&b.ty) {
                                return Err(err(LintErrorKind::Mismatch {
                                    expected: b.ty.clone(),
                                    found: rhs_ty,
                                    context: "letrec binding",
                                }));
                            }
                        }
                        at("letrec body", self.infer(body, &g, delta))
                    }
                }
            }
            Expr::Join(jb, body) => self.check_join(jb, body, gamma, delta),
            Expr::Jump(j, tys, args, res_ty) => {
                self.wf_type(res_ty, gamma)?;
                let Some(sig) = delta.get(j).cloned() else {
                    return Err(err(LintErrorKind::UnboundLabel(j.clone())));
                };
                if sig.ty_params.len() != tys.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("jump to {j} (type arguments)"),
                        expected: sig.ty_params.len(),
                        got: tys.len(),
                    }));
                }
                if sig.param_tys.len() != args.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("jump to {j}"),
                        expected: sig.param_tys.len(),
                        got: args.len(),
                    }));
                }
                for t in tys {
                    self.wf_type(t, gamma)?;
                }
                let inst: fj_ast::FxHashMap<Name, Type> = sig
                    .ty_params
                    .iter()
                    .cloned()
                    .zip(tys.iter().cloned())
                    .collect();
                for (pt, arg) in sig.param_tys.iter().zip(args) {
                    let expected = pt.subst(&inst);
                    // Δ reset: jump arguments are argument positions.
                    let t = at("jump argument", self.infer(arg, gamma, &Delta::empty()))?;
                    if !t.alpha_eq(&expected) {
                        return Err(err(LintErrorKind::Mismatch {
                            expected,
                            found: t,
                            context: "jump argument",
                        }));
                    }
                }
                // A jump has whatever type its annotation claims (rule JUMP);
                // JBIND is what pins down what join points actually return.
                Ok(res_ty.clone())
            }
        }
    }

    fn check_join(
        &self,
        jb: &JoinBind,
        body: &Expr,
        gamma: &Gamma,
        delta: &Delta,
    ) -> Result<Type, LintError> {
        let mut delta_body = delta.clone();
        for d in jb.defs() {
            delta_body.bind(
                d.name.clone(),
                JoinSig {
                    ty_params: d.ty_params.clone(),
                    param_tys: d.params.iter().map(|p| p.ty.clone()).collect(),
                },
            );
        }
        // Non-recursive join RHSs see the *outer* Δ (they are tail contexts
        // of enclosing joins); recursive ones also see the group (RJBIND).
        let delta_rhs = if jb.is_rec() { &delta_body } else { delta };
        let body_ty = at("join body", self.infer(body, gamma, &delta_body))?;
        for d in jb.defs() {
            let mut g = gamma.clone();
            for a in &d.ty_params {
                g.bind_tyvar(a.clone());
            }
            for p in &d.params {
                self.wf_type(&p.ty, &g)?;
                g.bind_var(p.name.clone(), p.ty.clone());
            }
            let rhs_ty = at(
                format!("join {} rhs", d.name),
                self.infer(&d.body, &g, delta_rhs),
            )?;
            if !rhs_ty.alpha_eq(&body_ty) {
                return Err(err(LintErrorKind::JoinResultMismatch {
                    label: d.name.clone(),
                    body_ty,
                    rhs_ty,
                }));
            }
        }
        Ok(body_ty)
    }

    fn check_alts(
        &self,
        scrut_ty: &Type,
        alts: &[fj_ast::Alt],
        gamma: &Gamma,
        delta: &Delta,
    ) -> Result<Type, LintError> {
        if alts.is_empty() {
            return Err(err(LintErrorKind::EmptyCase));
        }
        let mut result_ty: Option<Type> = None;
        let mut seen_cons: HashSet<Ident> = HashSet::new();
        let mut seen_lits: HashSet<i64> = HashSet::new();
        let mut has_default = false;

        for alt in alts {
            let mut g = gamma.clone();
            match &alt.con {
                AltCon::Default => {
                    if has_default {
                        return Err(err(LintErrorKind::DuplicateAlt));
                    }
                    has_default = true;
                    if !alt.binders.is_empty() {
                        return Err(err(LintErrorKind::FieldCount {
                            con: Ident::new("_"),
                            expected: 0,
                            got: alt.binders.len(),
                        }));
                    }
                }
                AltCon::Lit(n) => {
                    if *scrut_ty != Type::Int {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: Type::Int,
                            found: scrut_ty.clone(),
                            context: "literal case scrutinee",
                        }));
                    }
                    if !seen_lits.insert(*n) {
                        return Err(err(LintErrorKind::DuplicateAlt));
                    }
                    if !alt.binders.is_empty() {
                        return Err(err(LintErrorKind::FieldCount {
                            con: Ident::new("literal"),
                            expected: 0,
                            got: alt.binders.len(),
                        }));
                    }
                }
                AltCon::Con(c) => {
                    let Type::Con(tc, ty_args) = scrut_ty else {
                        return Err(err(LintErrorKind::NotADatatype(scrut_ty.clone())));
                    };
                    let owner = self.data_env.owner_of(c)?;
                    if &owner.name != tc {
                        return Err(err(LintErrorKind::WrongDatatype {
                            con: c.clone(),
                            scrutinee: tc.clone(),
                        }));
                    }
                    if !seen_cons.insert(c.clone()) {
                        return Err(err(LintErrorKind::DuplicateAlt));
                    }
                    let (fields, _) = self.data_env.instantiate(c, ty_args)?;
                    if fields.len() != alt.binders.len() {
                        return Err(err(LintErrorKind::FieldCount {
                            con: c.clone(),
                            expected: fields.len(),
                            got: alt.binders.len(),
                        }));
                    }
                    for (field_ty, b) in fields.iter().zip(&alt.binders) {
                        if !b.ty.alpha_eq(field_ty) {
                            return Err(err(LintErrorKind::Mismatch {
                                expected: field_ty.clone(),
                                found: b.ty.clone(),
                                context: "case field binder",
                            }));
                        }
                        g.bind_var(b.name.clone(), b.ty.clone());
                    }
                }
            }
            // Δ propagates into branches: they are tail contexts.
            let alt_label = match &alt.con {
                AltCon::Con(c) => format!("case alt {c}"),
                AltCon::Lit(n) => format!("case alt {n}"),
                AltCon::Default => "case alt _".to_string(),
            };
            let rhs_ty = at(alt_label, self.infer(&alt.rhs, &g, delta))?;
            match &result_ty {
                None => result_ty = Some(rhs_ty),
                Some(t) => {
                    if !t.alpha_eq(&rhs_ty) {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: t.clone(),
                            found: rhs_ty,
                            context: "case alternatives",
                        }));
                    }
                }
            }
        }

        // Exhaustiveness.
        if !has_default {
            match scrut_ty {
                Type::Con(tc, _) => {
                    let dt = self.data_env.datatype(tc)?;
                    if seen_cons.len() != dt.ctors.len() {
                        return Err(err(LintErrorKind::NonExhaustiveCase));
                    }
                }
                Type::Int => return Err(err(LintErrorKind::NonExhaustiveCase)),
                _ => return Err(err(LintErrorKind::NotADatatype(scrut_ty.clone()))),
            }
        }

        Ok(result_ty.expect("alts nonempty"))
    }
}
