//! The Simplifier — GHC's workhorse pass, for System F_J.
//!
//! Like GHC's simplifier (paper Sec. 7), this is "a tail-recursive
//! traversal that builds up a representation of the evaluation context as
//! it goes": [`Cont`] is the reified context `E`. The paper's axioms map
//! onto the traversal as follows:
//!
//! * `β`, `β_τ`, `case` — a lambda/type-lambda/constructor meeting the
//!   matching continuation reduces on the spot;
//! * `inline`/`drop` — occurrence-directed inlining of `let` bindings;
//! * `float`/`casefloat` — the pending continuation is pushed into `let`
//!   bodies and duplicated into `case` branches (with a fresh **join
//!   point** shared between branches when the context is too big to copy —
//!   footnote 5: "the Simplifier regularly creates join points to share
//!   evaluation contexts");
//! * **`jfloat`** — "when traversing a join-point binding, copy the
//!   evaluation context into the right-hand side";
//! * **`abort`** — "when traversing a jump, throw away the evaluation
//!   context";
//! * `jinline`/`jdrop` — once-used or tiny join points are inlined at
//!   their jumps and dead ones dropped.
//!
//! ## Semantics note
//!
//! Dead-code elimination (`drop`) follows the paper's lazy semantics: a
//! dead binding is removed even if its right-hand side would diverge.
//! Under the machine's call-by-value mode this can turn a diverging
//! program into a terminating one (never the reverse); all benchmarks
//! and tests in this repository are total, so the modes agree.
//!
//! ## Baseline mode
//!
//! With [`SimplOpts::join_points`] off the simplifier models GHC *before*
//! the paper: shared contexts become ordinary `let`-bound functions (which
//! the back end must heap-allocate), and a pending context is **not**
//! pushed into `join` bindings — reproducing exactly the "destroyed join
//! point" de-optimization of Sec. 2.

use crate::occur::{analyze, OccCount, OccMap};
use crate::stats::RewriteStats;
use crate::OptError;
use fj_ast::{
    alpha_fingerprint, free_labels, mentions_label, Alt, AltCon, Binder, DataEnv, Expr, FxHashMap,
    JoinBind, JoinDef, LetBind, Name, NameSupply, PrimResult, Type,
};
use fj_check::type_of;

/// Inline multi-use value bindings (and tiny join points) up to this size.
const INLINE_SIZE: usize = 24;
/// Duplicate a continuation into case branches up to this size; bigger
/// contexts are shared through a fresh join point (or a `let`-bound
/// function in baseline mode).
const DUP_SIZE: usize = 18;
/// Maximum simplifier rounds before settling.
const MAX_ROUNDS: usize = 6;

/// The simplifier's one setting.
#[derive(Clone, Debug)]
pub struct SimplOpts {
    /// Exploit join points (`jfloat`/`abort`, join-point context sharing).
    /// Off = the paper's baseline compiler.
    pub join_points: bool,
}

impl Default for SimplOpts {
    fn default() -> Self {
        SimplOpts { join_points: true }
    }
}

impl SimplOpts {
    /// The paper's baseline: joins treated like lets, contexts shared via
    /// `let`-bound functions.
    pub fn baseline() -> Self {
        SimplOpts { join_points: false }
    }
}

/// One simplifier round.
///
/// # Errors
///
/// Returns [`OptError`] if the input is ill-typed in a way the traversal
/// trips over (run the linter first for a precise report).
pub fn simplify_once(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    opts: &SimplOpts,
) -> Result<Expr, OptError> {
    let mut scratch = RewriteStats::default();
    simplify_once_changed(e, data_env, supply, opts, &mut scratch).map(|(e, _)| e)
}

/// As [`simplify_once`], also accumulating rewrite-firing counters into
/// `stats` (the per-pass observability of [`crate::PipelineReport`]) and
/// reporting whether the round rewrote anything at all. The flag covers
/// rewrites the counters do not (e.g. trivial-atom substitution), so
/// `changed == false` is a sound witness that the output is the input,
/// which the pipeline uses to skip re-lint, census, and repeat runs of
/// the same pass.
///
/// # Errors
///
/// As [`simplify_once`].
pub fn simplify_once_changed(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    opts: &SimplOpts,
    stats: &mut RewriteStats,
) -> Result<(Expr, bool), OptError> {
    let occ = analyze(e);
    let mut s = Simplifier {
        data_env,
        supply,
        opts,
        occ,
        types: FxHashMap::default(),
        subst: FxHashMap::default(),
        join_inline: FxHashMap::default(),
        changed: false,
        stats,
    };
    let out = s.simpl(e, Cont::Stop)?;
    let changed = s.changed;
    Ok((out, changed))
}

/// Run simplifier rounds until the term stops changing (α-fingerprint) or
/// the round limit is hit.
///
/// # Errors
///
/// As [`simplify_once`].
pub fn simplify(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    opts: &SimplOpts,
) -> Result<Expr, OptError> {
    let mut stats = RewriteStats::default();
    let mut cur = e.clone();
    // The fingerprint of `cur`, computed lazily: a round that reports
    // `changed == false` exits without fingerprinting anything at all.
    let mut fp = None;
    for _ in 0..MAX_ROUNDS {
        let (next, changed) = simplify_once_changed(&cur, data_env, supply, opts, &mut stats)?;
        if !changed {
            break;
        }
        let prev = fp.unwrap_or_else(|| alpha_fingerprint(&cur));
        let nfp = alpha_fingerprint(&next);
        cur = next;
        if nfp == prev {
            break;
        }
        fp = Some(nfp);
    }
    Ok(cur)
}

/// The reified evaluation context `E`, innermost frame first.
#[derive(Clone, Debug)]
enum Cont {
    /// `□` — nothing pending.
    Stop,
    /// `□ arg` (argument already simplified).
    ApplyTo(Expr, Box<Cont>),
    /// `□ τ`.
    ApplyToTy(Type, Box<Cont>),
    /// `case □ of alts` (alternatives not yet simplified).
    Select(Vec<Alt>, Box<Cont>),
}

impl Cont {
    fn is_stop(&self) -> bool {
        matches!(self, Cont::Stop)
    }

    /// Syntactic weight, for duplication decisions.
    fn size(&self) -> usize {
        match self {
            Cont::Stop => 0,
            Cont::ApplyTo(e, r) => e.size() + r.size(),
            Cont::ApplyToTy(_, r) => 1 + r.size(),
            Cont::Select(alts, r) => {
                alts.iter().map(|a| a.rhs.size() + 1).sum::<usize>() + r.size()
            }
        }
    }
}

/// Shared-context bindings produced by `mk_dupable`, to wrap around the
/// expression whose branches now invoke them.
enum Wrapper {
    Join(JoinDef),
    Let(Binder, Expr),
}

fn wrap_all(wrappers: Vec<Wrapper>, e: Expr) -> Expr {
    wrappers.into_iter().rev().fold(e, |acc, w| match w {
        Wrapper::Join(def) => Expr::join1(def, acc),
        Wrapper::Let(b, rhs) => Expr::let1(b, rhs, acc),
    })
}

struct Simplifier<'a> {
    data_env: &'a DataEnv,
    supply: &'a mut NameSupply,
    opts: &'a SimplOpts,
    occ: OccMap,
    /// The type of every binder recorded on the way down. Binders are
    /// globally unique, so the map only grows; `ty_of` reads from it the
    /// variables that its spine walk does not bind itself.
    types: FxHashMap<Name, Type>,
    /// Pending value inlinings: binder ↦ simplified RHS.
    subst: FxHashMap<Name, Expr>,
    /// Pending join-point inlinings: label ↦ simplified definition.
    join_inline: FxHashMap<Name, JoinDef>,
    changed: bool,
    /// Rewrite-firing counters for this round (pipeline observability).
    stats: &'a mut RewriteStats,
}

impl Simplifier<'_> {
    fn record(&mut self, b: &Binder) {
        self.types.insert(b.name.clone(), b.ty.clone());
    }

    fn ty_of(&self, e: &Expr) -> Result<Type, OptError> {
        type_of(e, self.data_env, &self.types).map_err(OptError::Type)
    }

    /// The type of a `case` with these alternatives: its first one's.
    fn alts_ty(&mut self, alts: &[Alt]) -> Result<Type, OptError> {
        let alt = alts
            .first()
            .ok_or_else(|| OptError::Internal("empty case".into()))?;
        for b in &alt.binders {
            self.record(b);
        }
        self.ty_of(&alt.rhs)
    }

    /// The type of `cont[hole]` given the hole's type.
    fn cont_result_ty(&mut self, cont: &Cont, input: &Type) -> Result<Type, OptError> {
        match cont {
            Cont::Stop => Ok(input.clone()),
            Cont::ApplyTo(_, r) => match input {
                Type::Fun(_, b) => self.cont_result_ty(r, b),
                other => Err(OptError::Internal(format!(
                    "applied context to non-function type {other}"
                ))),
            },
            Cont::ApplyToTy(t, r) => match input {
                Type::Forall(a, body) => {
                    let inst = body.subst1(a, t);
                    self.cont_result_ty(r, &inst)
                }
                other => Err(OptError::Internal(format!(
                    "type-applied context to non-forall type {other}"
                ))),
            },
            Cont::Select(alts, r) => {
                let t = self.alts_ty(alts)?;
                self.cont_result_ty(r, &t)
            }
        }
    }

    /// Make a continuation cheap to duplicate into several branches.
    ///
    /// This follows the paper's Sec. 2 recipe: each *large* case
    /// alternative inside the pending context is bound as a join point
    /// (`let j1 () = BIG1; j2 x = BIG2 …`, except they really are joins
    /// here) so the case itself stays small enough to copy — which is
    /// what lets a known-constructor branch cancel against it. Large
    /// arguments are shared through `let`s. In baseline mode the shared
    /// alternatives become ordinary `let`-bound functions, reproducing
    /// the heap-allocating behaviour of GHC before the paper.
    ///
    /// `hole_ty` is the type of the expression that will be plugged in.
    fn mk_dupable(&mut self, cont: Cont, hole_ty: &Type) -> Result<(Cont, Vec<Wrapper>), OptError> {
        if cont.size() <= DUP_SIZE {
            return Ok((cont, Vec::new()));
        }
        match cont {
            Cont::Stop => Ok((cont, Vec::new())),
            Cont::ApplyTo(arg, rest) => {
                let rest_hole = self
                    .cont_result_ty(&Cont::ApplyTo(arg.clone(), Box::new(Cont::Stop)), hole_ty)?;
                let (dup_rest, mut ws) = self.mk_dupable(*rest, &rest_hole)?;
                let arg2 = if arg.size() > DUP_SIZE {
                    let arg_ty = self.ty_of(&arg)?;
                    let a = Binder::new(self.supply.fresh("sa"), arg_ty);
                    self.record(&a);
                    self.changed = true;
                    self.stats.shared_contexts += 1;
                    ws.push(Wrapper::Let(a.clone(), arg));
                    Expr::var(&a.name)
                } else {
                    arg
                };
                Ok((Cont::ApplyTo(arg2, Box::new(dup_rest)), ws))
            }
            Cont::ApplyToTy(t, rest) => {
                let rest_hole = self
                    .cont_result_ty(&Cont::ApplyToTy(t.clone(), Box::new(Cont::Stop)), hole_ty)?;
                let (dup_rest, ws) = self.mk_dupable(*rest, &rest_hole)?;
                Ok((Cont::ApplyToTy(t, Box::new(dup_rest)), ws))
            }
            Cont::Select(alts, rest) => {
                let alt_ty = self.alts_ty(&alts)?;
                let (dup_rest, mut ws) = self.mk_dupable(*rest, &alt_ty)?;
                let res_final = self.cont_result_ty(&dup_rest, &alt_ty)?;
                let mut alts2 = Vec::with_capacity(alts.len());
                for alt in alts {
                    if alt.rhs.size() <= DUP_SIZE {
                        alts2.push(alt);
                        continue;
                    }
                    self.changed = true;
                    // Bind the big alternative as a join point over its
                    // field binders; the alternative becomes a jump.
                    let fresh_params: Vec<Binder> = alt
                        .binders
                        .iter()
                        .map(|b| {
                            let nb = Binder::new(self.supply.fresh_like(&b.name), b.ty.clone());
                            self.record(&nb);
                            nb
                        })
                        .collect();
                    let renamed = fj_ast::subst_terms(
                        &alt.rhs,
                        alt.binders
                            .iter()
                            .zip(&fresh_params)
                            .map(|(b, nb)| (b.name.clone(), Expr::var(&nb.name))),
                        self.supply,
                    );
                    let arg_vars: Vec<Expr> =
                        alt.binders.iter().map(|b| Expr::var(&b.name)).collect();
                    self.stats.shared_contexts += 1;
                    if self.opts.join_points {
                        // The join body absorbs the dupable context. That
                        // is sound *only* because the alternative becomes
                        // a jump: when the surrounding context is later
                        // pushed into the branches, the jump aborts it,
                        // so it is never applied twice.
                        let shared_body = self.simpl(&renamed, dup_rest.clone())?;
                        let j = self.supply.fresh("j");
                        ws.push(Wrapper::Join(JoinDef {
                            name: j.clone(),
                            ty_params: vec![],
                            params: fresh_params,
                            body: shared_body,
                        }));
                        alts2.push(Alt {
                            con: alt.con.clone(),
                            binders: alt.binders.clone(),
                            rhs: Expr::jump(&j, vec![], arg_vars, res_final.clone()),
                        });
                    } else {
                        // Baseline: an ordinary function (heap-allocated
                        // closure); zero-field alternatives share a thunk.
                        // The body must NOT absorb the context here — an
                        // ordinary call cannot abort the context that is
                        // later pushed into its branch, so absorbing it
                        // would apply it twice (and break typing). The
                        // function returns the hole type, and the context
                        // is duplicated around the call at each use.
                        let shared_body = self.simpl(&renamed, Cont::Stop)?;
                        let f_name = self.supply.fresh("sc");
                        let (f_ty, rhs_fun, call) = if fresh_params.is_empty() {
                            (alt_ty.clone(), shared_body, Expr::var(&f_name))
                        } else {
                            let f_ty = Type::funs(
                                fresh_params.iter().map(|b| b.ty.clone()),
                                alt_ty.clone(),
                            );
                            let fun = Expr::lams(fresh_params, shared_body);
                            let call = Expr::apps(Expr::var(&f_name), arg_vars);
                            (f_ty, fun, call)
                        };
                        let fb = Binder::new(f_name, f_ty);
                        self.record(&fb);
                        ws.push(Wrapper::Let(fb, rhs_fun));
                        alts2.push(Alt {
                            con: alt.con.clone(),
                            binders: alt.binders.clone(),
                            rhs: call,
                        });
                    }
                }
                Ok((Cont::Select(alts2, Box::new(dup_rest)), ws))
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn simpl(&mut self, e: &Expr, cont: Cont) -> Result<Expr, OptError> {
        crate::guard::poll();
        match e {
            Expr::Var(x) => {
                if let Some(img) = self.subst.get(x).cloned() {
                    self.changed = true;
                    self.stats.inline += 1;
                    let copy = fj_ast::freshen(&img, self.supply);
                    return self.simpl(&copy, cont);
                }
                self.apply_cont(Expr::var(x), cont)
            }
            Expr::Lit(_) => self.apply_cont(e.clone(), cont),
            Expr::Prim(op, args) => {
                let args2: Vec<Expr> = args
                    .iter()
                    .map(|a| self.simpl(a, Cont::Stop))
                    .collect::<Result<_, _>>()?;
                if let [Expr::Lit(a), Expr::Lit(b)] = args2.as_slice() {
                    if let Some(folded) = op.eval(*a, *b) {
                        self.changed = true;
                        self.stats.const_fold += 1;
                        let v = match folded {
                            PrimResult::Int(n) => Expr::Lit(n),
                            PrimResult::Bool(b) => Expr::bool(b),
                        };
                        return self.apply_cont(v, cont);
                    }
                }
                self.apply_cont(Expr::Prim(*op, args2), cont)
            }
            Expr::Lam(b, body) => match cont {
                Cont::ApplyTo(arg, rest) => {
                    // β: (λx.e) v  ⇒  let x = v in e, then the let logic
                    // decides whether to substitute or keep the binding.
                    self.changed = true;
                    self.stats.beta += 1;
                    self.record(b);
                    self.simpl_let_body(b.clone(), arg, body, *rest)
                }
                _ => {
                    self.record(b);
                    let body2 = self.simpl(body, Cont::Stop)?;
                    self.apply_cont(Expr::lam(b.clone(), body2), cont)
                }
            },
            Expr::TyLam(a, body) => match cont {
                Cont::ApplyToTy(t, rest) => {
                    self.changed = true;
                    self.stats.beta += 1;
                    let inst = fj_ast::subst_ty_in_expr(body, a, &t, self.supply);
                    self.simpl(&inst, *rest)
                }
                _ => {
                    let body2 = self.simpl(body, Cont::Stop)?;
                    self.apply_cont(Expr::ty_lam(a.clone(), body2), cont)
                }
            },
            Expr::App(f, a) => {
                let a2 = self.simpl(a, Cont::Stop)?;
                self.simpl(f, Cont::ApplyTo(a2, Box::new(cont)))
            }
            Expr::TyApp(f, t) => self.simpl(f, Cont::ApplyToTy(t.clone(), Box::new(cont))),
            Expr::Con(c, tys, args) => {
                let args2: Vec<Expr> = args
                    .iter()
                    .map(|a| self.simpl(a, Cont::Stop))
                    .collect::<Result<_, _>>()?;
                self.apply_cont(Expr::Con(c.clone(), tys.clone(), args2), cont)
            }
            Expr::Case(s, alts) => self.simpl(s, Cont::Select(alts.clone(), Box::new(cont))),
            Expr::Let(bind, body) => self.simpl_let(bind, body, cont),
            Expr::Join(jb, body) => self.simpl_join(jb, body, cont),
            Expr::Jump(j, tys, args, res) => {
                let args2: Vec<Expr> = args
                    .iter()
                    .map(|a| self.simpl(a, Cont::Stop))
                    .collect::<Result<_, _>>()?;
                // `abort`: the context dies here; retarget the annotation.
                let res2 = if cont.is_stop() {
                    res.clone()
                } else {
                    self.changed = true;
                    self.stats.abort += 1;
                    self.cont_result_ty(&cont, res)?
                };
                if let Some(def) = self.join_inline.get(j).cloned() {
                    // `jinline` at a (contextually) tail jump: the inlined
                    // body already absorbed the surrounding context via
                    // jfloat, so the aborted continuation is not lost.
                    self.changed = true;
                    self.stats.join_inline += 1;
                    let mut inlined = def.body.clone();
                    for (b, arg) in def.params.iter().zip(args2.iter()).rev() {
                        inlined = Expr::let1(b.clone(), arg.clone(), inlined);
                    }
                    let mut s = fj_ast::Subst::new(self.supply);
                    for (a, t) in def.ty_params.iter().zip(tys.iter()) {
                        s = s.bind_ty(a.clone(), t.clone());
                    }
                    let inlined = s.apply(&inlined);
                    return self.simpl(&inlined, Cont::Stop);
                }
                Ok(Expr::Jump(j.clone(), tys.clone(), args2, res2))
            }
        }
    }

    /// A head that cannot interact further meets the continuation.
    #[allow(clippy::too_many_lines)]
    fn apply_cont(&mut self, head: Expr, cont: Cont) -> Result<Expr, OptError> {
        match cont {
            Cont::Stop => Ok(head),
            Cont::ApplyTo(a, rest) => self.apply_cont(Expr::app(head, a), *rest),
            Cont::ApplyToTy(t, rest) => self.apply_cont(Expr::ty_app(head, t), *rest),
            Cont::Select(alts, rest) => match &head {
                // The `case` axiom: a constructor or literal scrutinee
                // selects its alternative immediately.
                Expr::Con(c, _, args) => {
                    let alt = alts
                        .iter()
                        .find(|a| matches!(&a.con, AltCon::Con(c2) if c2 == c))
                        .or_else(|| alts.iter().find(|a| a.con == AltCon::Default))
                        .ok_or_else(|| OptError::Internal(format!("no alternative for {c}")))?;
                    self.changed = true;
                    self.stats.known_case += 1;
                    let mut rhs = alt.rhs.clone();
                    for (b, v) in alt.binders.iter().zip(args.iter()).rev() {
                        rhs = Expr::let1(b.clone(), v.clone(), rhs);
                    }
                    self.simpl(&rhs, *rest)
                }
                Expr::Lit(n) => {
                    let alt = alts
                        .iter()
                        .find(|a| matches!(&a.con, AltCon::Lit(m) if m == n))
                        .or_else(|| alts.iter().find(|a| a.con == AltCon::Default))
                        .ok_or_else(|| {
                            OptError::Internal(format!("no alternative for literal {n}"))
                        })?;
                    self.changed = true;
                    self.stats.known_case += 1;
                    let rhs = alt.rhs.clone();
                    self.simpl(&rhs, *rest)
                }
                _ => {
                    // Neutral scrutinee: rebuild the case, pushing the rest
                    // of the context into the branches (casefloat /
                    // case-of-case), sharing it when it is too big.
                    let hole_ty = self.alts_ty(&alts)?;
                    let n_branches = alts.len();
                    let (dup, wrappers) = if n_branches > 1 {
                        self.mk_dupable(*rest, &hole_ty)?
                    } else {
                        (*rest, Vec::new())
                    };
                    if !dup.is_stop() {
                        // casefloat: the pending context is copied into
                        // every branch of the residual case.
                        self.changed = true;
                        self.stats.case_of_case += 1;
                    }
                    let mut alts2 = Vec::with_capacity(alts.len());
                    for alt in alts {
                        for b in &alt.binders {
                            self.record(b);
                        }
                        let rhs2 = self.simpl(&alt.rhs, dup.clone())?;
                        alts2.push(Alt {
                            con: alt.con.clone(),
                            binders: alt.binders.clone(),
                            rhs: rhs2,
                        });
                    }
                    Ok(wrap_all(wrappers, Expr::case(head, alts2)))
                }
            },
        }
    }

    fn simpl_let(&mut self, bind: &LetBind, body: &Expr, cont: Cont) -> Result<Expr, OptError> {
        match bind {
            LetBind::NonRec(b, rhs) => {
                self.record(b);
                let rhs2 = self.simpl(rhs, Cont::Stop)?;
                self.simpl_let_body(b.clone(), rhs2, body, cont)
            }
            LetBind::Rec(binds) => {
                for (b, _) in binds {
                    self.record(b);
                }
                // Dead-group elimination.
                let group_dead = binds
                    .iter()
                    .all(|(b, _)| self.occ.info(&b.name).count == OccCount::Dead);
                if group_dead {
                    self.changed = true;
                    self.stats.dead_drop += 1;
                    return self.simpl(body, cont);
                }
                let binds2: Vec<(Binder, Expr)> = binds
                    .iter()
                    .map(|(b, rhs)| Ok((b.clone(), self.simpl(rhs, Cont::Stop)?)))
                    .collect::<Result<_, OptError>>()?;
                // `float`: the pending context moves into the body.
                if !cont.is_stop() {
                    self.changed = true;
                }
                let body2 = self.simpl(body, cont)?;
                Ok(Expr::letrec(binds2, body2))
            }
        }
    }

    /// Decide the fate of a non-recursive binding whose RHS is simplified.
    fn simpl_let_body(
        &mut self,
        b: Binder,
        rhs: Expr,
        body: &Expr,
        cont: Cont,
    ) -> Result<Expr, OptError> {
        let trivial = rhs.is_atom() || matches!(&rhs, Expr::Con(_, _, args) if args.is_empty());
        if trivial {
            self.changed = true;
            self.subst.insert(b.name, rhs);
            return self.simpl(body, cont);
        }
        let info = self.occ.info(&b.name);
        match info.count {
            OccCount::Dead => {
                self.changed = true;
                self.stats.dead_drop += 1;
                self.simpl(body, cont)
            }
            OccCount::Once if !info.under_lambda => {
                self.subst.insert(b.name, rhs);
                self.changed = true;
                self.simpl(body, cont)
            }
            // A once-used *function value* moves freely even into a work
            // context: evaluating a lambda costs nothing and the code is
            // not duplicated. (Constructor answers stay put — rebuilding
            // a cell per loop iteration would be new work.)
            OccCount::Once if matches!(rhs, Expr::Lam(..) | Expr::TyLam(..)) => {
                self.subst.insert(b.name, rhs);
                self.changed = true;
                self.simpl(body, cont)
            }
            _ => {
                // Multi-use (or once under a lambda): inline only
                // *function* values small enough that code growth is
                // acceptable — copying a lambda duplicates neither work
                // nor allocation. Constructor cells stay shared: inlining
                // `let x = Just e` into several sites would rebuild the
                // cell at each one.
                if matches!(&rhs, Expr::Lam(..) | Expr::TyLam(..)) && rhs.size() <= INLINE_SIZE {
                    self.changed = true;
                    self.subst.insert(b.name, rhs);
                    return self.simpl(body, cont);
                }
                // Keep the binding; `float` the context into the body.
                if !cont.is_stop() {
                    self.changed = true;
                }
                let body2 = self.simpl(body, cont)?;
                Ok(Expr::let1(b, rhs, body2))
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn simpl_join(&mut self, jb: &JoinBind, body: &Expr, cont: Cont) -> Result<Expr, OptError> {
        for d in jb.defs() {
            for p in &d.params {
                self.record(p);
            }
        }
        // jdrop on entry: no jump in the body targets the group. The
        // occurrence analysis already counted jumps per label (the fused
        // occurrence+simplify walk), so a non-recursive join needs no
        // free-label traversal here: a zero count is a sound dead witness
        // (unanalyzed labels — freshened copies — report `usize::MAX`).
        // Recursive groups still walk: self-jumps in the definitions must
        // not keep the group alive.
        let any_live = match jb {
            JoinBind::NonRec(d) => self.occ.count(&d.name) != 0,
            JoinBind::Rec(_) => {
                let body_labels = free_labels(body);
                jb.labels().iter().any(|l| body_labels.contains(*l))
            }
        };
        if !any_live {
            self.changed = true;
            self.stats.dead_drop += 1;
            return self.simpl(body, cont);
        }

        if !self.opts.join_points {
            // Baseline: do NOT push the context into the join (no jfloat).
            // The context wraps the whole join expression, exactly the
            // motivating de-optimization of Sec. 2.
            let defs2: Vec<JoinDef> = jb
                .defs()
                .iter()
                .map(|d| {
                    Ok(JoinDef {
                        name: d.name.clone(),
                        ty_params: d.ty_params.clone(),
                        params: d.params.clone(),
                        body: self.simpl(&d.body, Cont::Stop)?,
                    })
                })
                .collect::<Result<_, OptError>>()?;
            let body2 = self.simpl(body, Cont::Stop)?;
            let jb2 = if jb.is_rec() {
                JoinBind::Rec(defs2)
            } else {
                JoinBind::NonRec(std::sync::Arc::new(
                    defs2.into_iter().next().expect("nonrec join has one def"),
                ))
            };
            return self.apply_cont(Expr::Join(jb2, Expr::share(body2)), cont);
        }

        // jfloat: duplicate the pending context into each RHS and the body.
        let hole_ty = self.ty_of(body)?;
        let (dup, wrappers) = self.mk_dupable(cont, &hole_ty)?;
        if !dup.is_stop() {
            self.changed = true;
            self.stats.jfloat += 1;
        }

        let defs2: Vec<JoinDef> = jb
            .defs()
            .iter()
            .map(|d| {
                Ok(JoinDef {
                    name: d.name.clone(),
                    ty_params: d.ty_params.clone(),
                    params: d.params.clone(),
                    body: self.simpl(&d.body, dup.clone())?,
                })
            })
            .collect::<Result<_, OptError>>()?;

        // jinline: a non-recursive join used exactly once (or tiny) is
        // inlined at its jumps while the body is simplified.
        if let JoinBind::NonRec(orig) = jb {
            let occ = self.occ.info(&orig.name);
            let def2 = defs2.into_iter().next().expect("nonrec join has one def");
            let small = def2.body.size() <= INLINE_SIZE;
            if occ.count == OccCount::Once || small {
                self.join_inline.insert(orig.name.clone(), def2.clone());
                let body2 = self.simpl(body, dup)?;
                let result = if mentions_label(&body2, &orig.name) {
                    Expr::join1(def2, body2)
                } else {
                    self.changed = true;
                    self.stats.dead_drop += 1;
                    body2
                };
                return Ok(wrap_all(wrappers, result));
            }
            let body2 = self.simpl(body, dup)?;
            let result = if mentions_label(&body2, &def2.name) {
                Expr::join1(def2, body2)
            } else {
                self.changed = true;
                self.stats.dead_drop += 1;
                body2
            };
            return Ok(wrap_all(wrappers, result));
        }

        let body2 = self.simpl(body, dup)?;
        // Drop dead defs from the recursive group.
        let mut live = free_labels(&body2);
        for d in &defs2 {
            live.extend(free_labels(&d.body));
        }
        let kept: Vec<JoinDef> = defs2
            .into_iter()
            .filter(|d| live.contains(&d.name))
            .collect();
        let result = if kept.is_empty() {
            self.changed = true;
            self.stats.dead_drop += 1;
            body2
        } else {
            Expr::Join(JoinBind::Rec(kept), Expr::share(body2))
        };
        Ok(wrap_all(wrappers, result))
    }
}
