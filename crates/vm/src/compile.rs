//! Lowering: well-typed F_J terms to flat bytecode.
//!
//! The compiler resolves every variable to a frame-relative slot and
//! every join label to a code address plus a static environment depth.
//! The latter is what the Lint discipline buys us: a `jump` may occur
//! only in Δ-preserving contexts (tail positions, case branches,
//! scrutinees, function heads, `let`/`join` bodies), and none of those
//! contexts leaves extra operand-stack entries behind — so every jump
//! site sits at exactly the operand depth of its target join point, and
//! [`Op::Jump`] needs no runtime stack scan at all. The compiler tracks
//! both depths statically and `debug_assert`s the invariant at every
//! jump it emits.
//!
//! The metrics-charging policy of the Fig. 3 machine (which values cost
//! a `let`/`arg`/`con` unit, and — the paper's point — that joins and
//! jumps cost *nothing*) is decided here at compile time and baked into
//! the instruction flags; see the per-construct comments.

use crate::ops::{CaseTable, ChargeKind, Code, JumpSpec, Op, Program, RecBinding};
use fj_ast::{Alt, AltCon, Binder, Expr, Ident, JoinBind, LetBind, Name};
use fj_ast::{FxHashMap, FxHashSet};
use fj_eval::{is_cheap, EvalMode};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Interned tag of the `True` constructor (fixed, so [`Op::Prim`] can
/// build booleans without a lookup).
pub const TAG_TRUE: u32 = 0;
/// Interned tag of the `False` constructor.
pub const TAG_FALSE: u32 = 1;

/// Why a term could not be lowered (all impossible on Lint-clean input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A free term variable with no binding in scope.
    UnboundVar(Name),
    /// A jump to a label bound in no enclosing join.
    UnboundLabel(Name),
    /// A shape the backend does not support.
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnboundVar(x) => write!(f, "unbound variable {x}"),
            CompileError::UnboundLabel(j) => write!(f, "unbound join label {j}"),
            CompileError::Unsupported(msg) => write!(f, "unsupported term: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// What a name resolves to. Cheap right-hand sides (atoms, nullary
/// constructors) are aliased at compile time — the machine substitutes
/// them inline for free, and so do we.
#[derive(Clone, Debug)]
enum Binding {
    Slot(u16),
    Lit(i64),
    Con0(u32),
}

/// A join label's static data: code entry, slot depth at its definition
/// point, arity, and (for assertions) the operand depth shared by the
/// join body and every legal jump site.
#[derive(Clone, Debug)]
struct JoinInfo {
    label: u32,
    env_keep: u16,
    arity: u16,
    operand_depth: u16,
}

/// Where an expression's value goes.
#[derive(Clone, Copy, Debug)]
enum Cont {
    /// Leave it on the operand stack; code continues.
    Fall,
    /// Return it to the calling frame (tail position).
    Ret,
    /// Branch to a merge point, first restoring the slot depth the merge
    /// was declared at (paths from different case arms bind different
    /// numbers of slots).
    Goto {
        label: u32,
        env_depth: u16,
        operand_depth: u16,
    },
}

/// Whether control can proceed past an expression, or it always jumps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    /// The value is delivered to the continuation.
    Leaves,
    /// Every path ends in a `jump`; code after this point is dead and is
    /// not emitted.
    Diverges,
}

/// A code object queued for emission.
struct PendingBody {
    label: u32,
    scope: Vec<(Name, Binding)>,
    env_depth: u16,
    kind: BodyKind,
}

enum BodyKind {
    /// Evaluate the expression and return it.
    Eval(Expr),
    /// Rebuild a pre-charged recursive constructor cell (the machine
    /// charges `letrec x = K …` once at its bind step; each rebuild is
    /// free, so the recipe's root build carries no charge).
    ConRecipe(Expr),
}

const UNBOUND: u32 = u32::MAX;

/// A nested code object's compile-time scope (see
/// [`Compiler::capture_scope`]).
type CaptureScope = (Vec<u16>, Vec<(Name, Binding)>);

struct Compiler {
    mode: EvalMode,
    ops: Vec<Op>,
    labels: Vec<u32>,
    tags: FxHashMap<Ident, u32>,
    idents: Vec<Ident>,
    cases: Vec<CaseTable>,
    captures: Vec<Box<[u16]>>,
    capture_ids: FxHashMap<Vec<u16>, u32>,
    rec_groups: Vec<Box<[RecBinding]>>,
    jump_specs: Vec<JumpSpec>,
    pending: VecDeque<PendingBody>,
    uses_thunks: bool,
    // Per-code-object state:
    scope: Vec<(Name, Binding)>,
    joins: Vec<(Name, JoinInfo)>,
    env_depth: u16,
    depth: u16,
}

/// Compile-time options. The only knob is the fusion peephole, on by
/// default; the differential suites compile every term both ways.
#[derive(Clone, Copy, Debug)]
pub struct CompileOpts {
    /// Run the superinstruction peephole over the finalized stream.
    pub fuse: bool,
}

impl Default for CompileOpts {
    fn default() -> Self {
        CompileOpts { fuse: true }
    }
}

/// Compile a closed, Lint-clean term for one evaluation mode. Laziness
/// and the allocation-charging policy differ per mode, so the mode is
/// baked into the program. Fusion is on; use [`compile_with`] to turn it
/// off (the fuzz farm and the differential suites compile both ways and
/// diff them).
///
/// # Errors
///
/// Returns a [`CompileError`] on unbound variables or labels — both
/// impossible for terms accepted by `fj_check::lint`.
pub fn compile(e: &Expr, mode: EvalMode) -> Result<Program, CompileError> {
    compile_with(e, mode, CompileOpts::default())
}

/// As [`compile`], with explicit [`CompileOpts`].
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with(e: &Expr, mode: EvalMode, opts: CompileOpts) -> Result<Program, CompileError> {
    let mut c = Compiler {
        mode,
        ops: vec![Op::Halt],
        labels: Vec::new(),
        tags: FxHashMap::default(),
        idents: Vec::new(),
        cases: Vec::new(),
        captures: Vec::new(),
        capture_ids: FxHashMap::default(),
        rec_groups: Vec::new(),
        jump_specs: Vec::new(),
        pending: VecDeque::new(),
        uses_thunks: false,
        scope: Vec::new(),
        joins: Vec::new(),
        env_depth: 0,
        depth: 0,
    };
    assert_eq!(c.intern(&Ident::new("True")), TAG_TRUE);
    assert_eq!(c.intern(&Ident::new("False")), TAG_FALSE);
    let mut entry = c.ops.len() as u32;
    c.compile_eval(e, Cont::Ret)?;
    while let Some(p) = c.pending.pop_front() {
        c.bind_label(p.label);
        c.scope = p.scope;
        c.joins.clear();
        c.env_depth = p.env_depth;
        c.depth = 0;
        match p.kind {
            BodyKind::Eval(body) => {
                c.compile_eval(&body, Cont::Ret)?;
            }
            BodyKind::ConRecipe(con) => {
                let Expr::Con(ident, _, fields) = &con else {
                    unreachable!("ConRecipe bodies are constructors");
                };
                c.compile_con(ident, fields, false)?;
                c.ops.push(Op::Ret);
            }
        }
    }
    c.finalize();
    let Compiler {
        mut ops,
        idents,
        mut cases,
        captures,
        mut rec_groups,
        mut jump_specs,
        uses_thunks,
        ..
    } = c;
    if opts.fuse {
        fuse(
            &mut ops,
            &mut cases,
            &mut rec_groups,
            &mut jump_specs,
            &mut entry,
            uses_thunks,
        );
    }
    Ok(Program {
        code: Arc::new(Code {
            ops,
            cases,
            captures,
            rec_groups,
            jump_specs,
            idents,
            entry,
        }),
        mode,
        uses_thunks,
        fused: opts.fuse,
    })
}

/// Free *term* variables of `e`, in first-use order. Join labels are a
/// separate namespace (only `jump` refers to them) and never count.
fn free_term_vars(e: &Expr) -> Vec<Name> {
    fn go(e: &Expr, bound: &mut Vec<Name>, seen: &mut FxHashSet<Name>, acc: &mut Vec<Name>) {
        match e {
            Expr::Var(x) => {
                if !bound.contains(x) && seen.insert(x.clone()) {
                    acc.push(x.clone());
                }
            }
            Expr::Lit(_) => {}
            Expr::Prim(_, args) | Expr::Jump(_, _, args, _) => {
                for a in args {
                    go(a, bound, seen, acc);
                }
            }
            Expr::Lam(b, body) => {
                bound.push(b.name.clone());
                go(body, bound, seen, acc);
                bound.pop();
            }
            Expr::App(f, a) => {
                go(f, bound, seen, acc);
                go(a, bound, seen, acc);
            }
            Expr::TyLam(_, body) => go(body, bound, seen, acc),
            Expr::TyApp(f, _) => go(f, bound, seen, acc),
            Expr::Con(_, _, fields) => {
                for f in fields {
                    go(f, bound, seen, acc);
                }
            }
            Expr::Case(s, alts) => {
                go(s, bound, seen, acc);
                for alt in alts {
                    let mark = bound.len();
                    bound.extend(alt.binders.iter().map(|b| b.name.clone()));
                    go(&alt.rhs, bound, seen, acc);
                    bound.truncate(mark);
                }
            }
            Expr::Let(LetBind::NonRec(b, rhs), body) => {
                go(rhs, bound, seen, acc);
                bound.push(b.name.clone());
                go(body, bound, seen, acc);
                bound.pop();
            }
            Expr::Let(LetBind::Rec(binds), body) => {
                let mark = bound.len();
                bound.extend(binds.iter().map(|(b, _)| b.name.clone()));
                for (_, rhs) in binds {
                    go(rhs, bound, seen, acc);
                }
                go(body, bound, seen, acc);
                bound.truncate(mark);
            }
            Expr::Join(jb, body) => {
                for def in jb.defs() {
                    let mark = bound.len();
                    bound.extend(def.params.iter().map(|b| b.name.clone()));
                    go(&def.body, bound, seen, acc);
                    bound.truncate(mark);
                }
                go(body, bound, seen, acc);
            }
        }
    }
    let mut acc = Vec::new();
    go(e, &mut Vec::new(), &mut FxHashSet::default(), &mut acc);
    acc
}

impl Compiler {
    fn intern(&mut self, c: &Ident) -> u32 {
        if let Some(&t) = self.tags.get(c) {
            return t;
        }
        let t = self.idents.len() as u32;
        self.idents.push(c.clone());
        self.tags.insert(c.clone(), t);
        t
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(UNBOUND);
        (self.labels.len() - 1) as u32
    }

    fn bind_label(&mut self, l: u32) {
        debug_assert_eq!(self.labels[l as usize], UNBOUND, "label bound twice");
        self.labels[l as usize] = self.ops.len() as u32;
    }

    fn resolve(&self, x: &Name) -> Result<Binding, CompileError> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == x)
            .map(|(_, b)| b.clone())
            .ok_or_else(|| CompileError::UnboundVar(x.clone()))
    }

    /// Push a variable's value. `force` distinguishes evaluation
    /// positions (the machine focuses the variable, entering thunks)
    /// from alias positions (arguments, fields: the machine substitutes
    /// the name and shares the heap cell untouched).
    fn load_var(&mut self, x: &Name, force: bool) -> Result<(), CompileError> {
        match self.resolve(x)? {
            Binding::Slot(i) => self
                .ops
                .push(if force { Op::LoadForce(i) } else { Op::Load(i) }),
            Binding::Lit(n) => self.ops.push(Op::PushInt(n)),
            Binding::Con0(tag) => self.ops.push(Op::MkCon {
                tag,
                arity: 0,
                charge: false,
            }),
        }
        self.depth += 1;
        Ok(())
    }

    /// Finish a `Leaves` path: hand the stacked value to the
    /// continuation.
    fn leave(&mut self, cont: Cont) {
        match cont {
            Cont::Fall => {}
            Cont::Ret => self.ops.push(Op::Ret),
            Cont::Goto {
                label,
                env_depth,
                operand_depth,
            } => {
                debug_assert_eq!(self.depth, operand_depth + 1, "merge depth mismatch");
                if self.env_depth > env_depth {
                    self.ops.push(Op::PopEnv(self.env_depth - env_depth));
                }
                self.ops.push(Op::Goto(label));
            }
        }
    }

    /// Compile `e` so its weak-head value reaches `cont`. Returns whether
    /// any path actually does (or every path jumps away).
    #[allow(clippy::too_many_lines)]
    fn compile_eval(&mut self, e: &Expr, cont: Cont) -> Result<Flow, CompileError> {
        match e {
            Expr::Lit(n) => {
                self.ops.push(Op::PushInt(*n));
                self.depth += 1;
                self.leave(cont);
                Ok(Flow::Leaves)
            }
            Expr::Var(x) => {
                self.load_var(x, true)?;
                self.leave(cont);
                Ok(Flow::Leaves)
            }
            Expr::Lam(..) | Expr::TyLam(..) => {
                self.emit_closure(e)?;
                self.leave(cont);
                Ok(Flow::Leaves)
            }
            Expr::Con(c, _, fields) => {
                // An evaluated-position constructor always charges its
                // root cell: the machine counts it either at focus time
                // or at its ConArgs completion step.
                self.compile_con(&c.clone(), fields, true)?;
                self.leave(cont);
                Ok(Flow::Leaves)
            }
            Expr::Prim(op, args) => {
                if args.len() != 2 {
                    return Err(CompileError::Unsupported(format!(
                        "primop {op} with {} operands",
                        args.len()
                    )));
                }
                // Operands are Δ-resetting, so neither can diverge.
                if self.compile_eval(&args[0], Cont::Fall)? == Flow::Diverges {
                    return Ok(Flow::Diverges);
                }
                if self.compile_eval(&args[1], Cont::Fall)? == Flow::Diverges {
                    return Ok(Flow::Diverges);
                }
                self.ops.push(Op::Prim(*op));
                self.depth -= 1;
                self.leave(cont);
                Ok(Flow::Leaves)
            }
            Expr::App(f, a) => {
                // The machine evaluates the function head first, then
                // the argument (strict modes) — same order here.
                if self.compile_eval(f, Cont::Fall)? == Flow::Diverges {
                    return Ok(Flow::Diverges);
                }
                let charge_arg = !is_cheap(a);
                self.compile_arg(a)?;
                self.depth -= 2;
                if matches!(cont, Cont::Ret) {
                    self.ops.push(Op::TailCall { charge_arg });
                    self.depth += 1;
                } else {
                    self.ops.push(Op::Call { charge_arg });
                    self.depth += 1;
                    self.leave(cont);
                }
                Ok(Flow::Leaves)
            }
            Expr::TyApp(f, _) => {
                if self.compile_eval(f, Cont::Fall)? == Flow::Diverges {
                    return Ok(Flow::Diverges);
                }
                if matches!(cont, Cont::Ret) {
                    self.ops.push(Op::TailCallTy);
                } else {
                    self.ops.push(Op::CallTy);
                    self.leave(cont);
                }
                Ok(Flow::Leaves)
            }
            Expr::Case(s, alts) => self.compile_case(s, alts, cont),
            Expr::Let(bind, body) => self.compile_let(bind, body, cont),
            Expr::Join(jb, body) => self.compile_join(jb, body, cont),
            Expr::Jump(j, _, args, _) => {
                self.compile_jump(j, args)?;
                Ok(Flow::Diverges)
            }
        }
    }

    /// Compile one argument (function application or jump). The charging
    /// decision — cheap arguments are free, anything else charges an
    /// `arg` unit iff its value is a closure — lives in the call site's
    /// flag; this only builds the value (or thunk, in lazy modes).
    fn compile_arg(&mut self, a: &Expr) -> Result<(), CompileError> {
        match a {
            Expr::Var(x) => return self.load_var(x, false),
            Expr::Lit(n) => {
                self.ops.push(Op::PushInt(*n));
            }
            Expr::Con(c, _, fields) if fields.is_empty() => {
                let tag = self.intern(c);
                self.ops.push(Op::MkCon {
                    tag,
                    arity: 0,
                    charge: false,
                });
            }
            Expr::Lam(..) | Expr::TyLam(..) => {
                self.emit_closure(a)?;
                return Ok(());
            }
            _ if self.mode == EvalMode::CallByValue => {
                if self.mode.is_answer(a) {
                    // Answer-shaped constructor: bound as-is, charging
                    // its cell at the bind (`store_binding` on an
                    // unevaluated cell).
                    let Expr::Con(c, _, fields) = a else {
                        unreachable!("non-atom CBV answers are constructors");
                    };
                    self.compile_con(&c.clone(), fields, true)?;
                } else {
                    let flow = self.compile_eval(a, Cont::Fall)?;
                    debug_assert_eq!(flow, Flow::Leaves, "arguments are Δ-resetting");
                }
                return Ok(());
            }
            Expr::Con(c, _, fields) => {
                // Lazy modes: constructors are answers; the cell binds
                // unevaluated and charges one `con` unit.
                self.compile_con(&c.clone(), fields, true)?;
                return Ok(());
            }
            _ => {
                // Lazy modes: a thunk, charged one `arg` unit now.
                self.emit_thunk(a, ChargeKind::Arg, false)?;
                return Ok(());
            }
        }
        self.depth += 1;
        Ok(())
    }

    /// Build a constructor value. `root_charge` is false only for nested
    /// nodes of answer-shaped cells and for `letrec` recipes — the
    /// machine never focuses those nodes, so they never count.
    fn compile_con(
        &mut self,
        c: &Ident,
        fields: &[Expr],
        root_charge: bool,
    ) -> Result<(), CompileError> {
        let tag = self.intern(c);
        let arity = fields.len();
        if self.mode == EvalMode::CallByValue
            && !fields.iter().all(|f| f.is_atom() || self.mode.is_answer(f))
        {
            // Strict, non-answer cell: every field is evaluated to WHNF
            // left to right (the ConArgs frames), then the completed
            // cell charges once.
            for f in fields {
                let flow = self.compile_eval(f, Cont::Fall)?;
                debug_assert_eq!(flow, Flow::Leaves, "fields are Δ-resetting");
            }
            debug_assert!(root_charge, "non-answer cells always charge at completion");
        } else {
            // Answer-shaped (always, in lazy modes): the cell is built
            // as-is. Nested constructors are never focused by the
            // machine, so they build uncharged.
            for f in fields {
                self.compile_quoted_field(f)?;
            }
        }
        self.ops.push(Op::MkCon {
            tag,
            arity: arity as u16,
            charge: root_charge && arity > 0,
        });
        self.depth = self.depth - arity as u16 + 1;
        Ok(())
    }

    /// One field of an answer-shaped (or lazy) constructor cell.
    fn compile_quoted_field(&mut self, f: &Expr) -> Result<(), CompileError> {
        match f {
            Expr::Var(x) => self.load_var(x, false),
            Expr::Lit(n) => {
                self.ops.push(Op::PushInt(*n));
                self.depth += 1;
                Ok(())
            }
            Expr::Lam(..) | Expr::TyLam(..) => self.emit_closure(f),
            Expr::Con(c, _, fs) => self.compile_con(&c.clone(), fs, false),
            _ => {
                debug_assert_ne!(
                    self.mode,
                    EvalMode::CallByValue,
                    "CBV answer cells have answer fields"
                );
                // Lazy field: a free thunk. The machine builds one per
                // case projection; `per_projection` makes call-by-need
                // clone a fresh pending cell each time, so forcing
                // counts match exactly.
                self.emit_thunk(f, ChargeKind::Free, true)
            }
        }
    }

    /// Emit a closure build for a `λ`/`Λ` literal, queueing its body.
    fn emit_closure(&mut self, e: &Expr) -> Result<(), CompileError> {
        let (caps, mut body_scope) = self.capture_scope(e)?;
        let n_caps = caps.len() as u16;
        let label = self.new_label();
        let body = match e {
            Expr::Lam(b, body) => {
                body_scope.push((b.name.clone(), Binding::Slot(n_caps)));
                self.pending.push_back(PendingBody {
                    label,
                    scope: body_scope,
                    env_depth: n_caps + 1,
                    kind: BodyKind::Eval((**body).clone()),
                });
                return self.finish_closure(label, caps);
            }
            Expr::TyLam(_, body) => (**body).clone(),
            _ => unreachable!("emit_closure on non-lambda"),
        };
        self.pending.push_back(PendingBody {
            label,
            scope: body_scope,
            env_depth: n_caps,
            kind: BodyKind::Eval(body),
        });
        self.finish_closure(label, caps)
    }

    fn finish_closure(&mut self, label: u32, caps: Vec<u16>) -> Result<(), CompileError> {
        let caps = self.intern_caps(caps);
        self.ops.push(Op::MkClosure { label, caps });
        self.depth += 1;
        Ok(())
    }

    /// Intern a capture list into the shared side table (identical lists
    /// — the empty list above all — share one entry).
    fn intern_caps(&mut self, caps: Vec<u16>) -> u32 {
        if let Some(&id) = self.capture_ids.get(&caps) {
            return id;
        }
        let id = self.captures.len() as u32;
        self.captures.push(caps.clone().into_boxed_slice());
        self.capture_ids.insert(caps, id);
        id
    }

    /// Emit a thunk build over `e`, queueing its code.
    fn emit_thunk(
        &mut self,
        e: &Expr,
        charge: ChargeKind,
        per_projection: bool,
    ) -> Result<(), CompileError> {
        let (caps, body_scope) = self.capture_scope(e)?;
        let label = self.new_label();
        self.pending.push_back(PendingBody {
            label,
            env_depth: caps.len() as u16,
            scope: body_scope,
            kind: BodyKind::Eval(e.clone()),
        });
        let caps = self.intern_caps(caps);
        self.ops.push(Op::MkThunk {
            label,
            caps,
            charge,
            per_projection,
        });
        self.depth += 1;
        self.uses_thunks = true;
        Ok(())
    }

    /// Compute the capture list for a nested code object: free variables
    /// resolving to slots are captured in order; compile-time aliases
    /// (literals, nullary constructors) carry over without capture.
    fn capture_scope(&mut self, e: &Expr) -> Result<CaptureScope, CompileError> {
        let mut caps: Vec<u16> = Vec::new();
        let mut scope: Vec<(Name, Binding)> = Vec::new();
        for v in free_term_vars(e) {
            match self.resolve(&v)? {
                Binding::Slot(i) => {
                    scope.push((v, Binding::Slot(caps.len() as u16)));
                    caps.push(i);
                }
                b => scope.push((v, b)),
            }
        }
        Ok((caps, scope))
    }

    /// Turn a `Fall` continuation into a merge label; pass others through.
    fn merge_cont(&mut self, cont: Cont) -> (Cont, Option<u32>) {
        match cont {
            Cont::Fall => {
                let label = self.new_label();
                (
                    Cont::Goto {
                        label,
                        env_depth: self.env_depth,
                        operand_depth: self.depth,
                    },
                    Some(label),
                )
            }
            other => (other, None),
        }
    }

    fn compile_case(&mut self, s: &Expr, alts: &[Alt], cont: Cont) -> Result<Flow, CompileError> {
        if self.compile_eval(s, Cont::Fall)? == Flow::Diverges {
            return Ok(Flow::Diverges);
        }
        self.depth -= 1; // Case pops the scrutinee.
        let entry_env = self.env_depth;
        let entry_depth = self.depth;
        let (inner, merge) = self.merge_cont(cont);
        let mut con_arms: Vec<(u32, u32, u16)> = Vec::new();
        let mut lit_arms: Vec<(i64, u32)> = Vec::new();
        let mut default = None;
        let mut arms: Vec<(u32, &Alt)> = Vec::new();
        for alt in alts {
            let label = self.new_label();
            match &alt.con {
                AltCon::Con(c) => {
                    let tag = self.intern(c);
                    con_arms.push((tag, label, alt.binders.len() as u16));
                }
                AltCon::Lit(n) => lit_arms.push((*n, label)),
                AltCon::Default => {
                    if default.is_none() {
                        default = Some(label);
                    }
                }
            }
            arms.push((label, alt));
        }
        let table = self.cases.len() as u32;
        self.cases.push(CaseTable {
            con_arms: con_arms.into_boxed_slice(),
            lit_arms: lit_arms.into_boxed_slice(),
            default,
        });
        self.ops.push(Op::Case(table));
        let scope_mark = self.scope.len();
        let mut any_leaves = false;
        for (label, alt) in arms {
            self.bind_label(label);
            self.env_depth = entry_env;
            self.depth = entry_depth;
            // Field binders become fresh slots (pushed by the Case op;
            // free, as in the machine — the cell already paid).
            for (i, b) in alt.binders.iter().enumerate() {
                self.scope
                    .push((b.name.clone(), Binding::Slot(entry_env + i as u16)));
            }
            self.env_depth += alt.binders.len() as u16;
            if self.compile_eval(&alt.rhs, inner)? == Flow::Leaves {
                any_leaves = true;
            }
            self.scope.truncate(scope_mark);
        }
        if let Some(label) = merge {
            if any_leaves {
                self.bind_label(label);
                self.env_depth = entry_env;
                self.depth = entry_depth + 1;
            }
        }
        Ok(if any_leaves {
            Flow::Leaves
        } else {
            Flow::Diverges
        })
    }

    fn compile_let(
        &mut self,
        bind: &LetBind,
        body: &Expr,
        cont: Cont,
    ) -> Result<Flow, CompileError> {
        match bind {
            LetBind::NonRec(b, rhs) => {
                if is_cheap(rhs) {
                    // The machine substitutes cheap right-hand sides
                    // inline for free; we alias at compile time.
                    let alias = match &**rhs {
                        Expr::Var(x) => self.resolve(x)?,
                        Expr::Lit(n) => Binding::Lit(*n),
                        Expr::Con(c, _, _) => {
                            let tag = self.intern(c);
                            Binding::Con0(tag)
                        }
                        _ => unreachable!("cheap is atom or nullary con"),
                    };
                    self.scope.push((b.name.clone(), alias));
                    let flow = self.compile_eval(body, cont)?;
                    self.scope.pop();
                    return Ok(flow);
                }
                self.compile_let_rhs(rhs)?;
                self.ops.push(Op::Bind { charge_let: true });
                self.depth -= 1;
                self.scope
                    .push((b.name.clone(), Binding::Slot(self.env_depth)));
                self.env_depth += 1;
                let flow = self.compile_eval(body, cont)?;
                self.scope.pop();
                Ok(flow)
            }
            LetBind::Rec(binds) => self.compile_letrec(binds, body, cont),
        }
    }

    /// A non-cheap, non-recursive `let` right-hand side, on the stack.
    fn compile_let_rhs(&mut self, rhs: &Expr) -> Result<(), CompileError> {
        match rhs {
            Expr::Lam(..) | Expr::TyLam(..) => self.emit_closure(rhs),
            Expr::Con(c, _, fields) if self.mode.is_answer(rhs) => {
                // Answer cell bound unevaluated: one `con` unit.
                self.compile_con(&c.clone(), fields, true)
            }
            _ if self.mode == EvalMode::CallByValue => {
                // Strict `let`: evaluate, then bind (LetStrict frame).
                let flow = self.compile_eval(rhs, Cont::Fall)?;
                debug_assert_eq!(flow, Flow::Leaves, "let RHS is Δ-resetting");
                Ok(())
            }
            _ => self.emit_thunk(rhs, ChargeKind::Let, false),
        }
    }

    fn compile_letrec(
        &mut self,
        binds: &[(Binder, Expr)],
        body: &Expr,
        cont: Cont,
    ) -> Result<Flow, CompileError> {
        // Bind every name to its future slot first: right-hand sides see
        // the whole group (and capture siblings through backpatching).
        let scope_mark = self.scope.len();
        let base = self.env_depth;
        for (i, (b, _)) in binds.iter().enumerate() {
            self.scope
                .push((b.name.clone(), Binding::Slot(base + i as u16)));
        }
        self.env_depth += binds.len() as u16;
        let mut specs: Vec<RecBinding> = Vec::with_capacity(binds.len());
        for (_, rhs) in binds {
            let spec = match rhs {
                Expr::Lit(n) => RecBinding::Int(*n),
                Expr::Lam(..) | Expr::TyLam(..) => {
                    let (caps, mut body_scope) = self.capture_scope(rhs)?;
                    let n_caps = caps.len() as u16;
                    let label = self.new_label();
                    let (env_depth, body_expr) = match rhs {
                        Expr::Lam(b2, body2) => {
                            body_scope.push((b2.name.clone(), Binding::Slot(n_caps)));
                            (n_caps + 1, (**body2).clone())
                        }
                        Expr::TyLam(_, body2) => (n_caps, (**body2).clone()),
                        _ => unreachable!(),
                    };
                    self.pending.push_back(PendingBody {
                        label,
                        scope: body_scope,
                        env_depth,
                        kind: BodyKind::Eval(body_expr),
                    });
                    RecBinding::Closure {
                        label,
                        captures: caps.into_boxed_slice(),
                    }
                }
                Expr::Con(_, _, fields) if self.mode.is_answer(rhs) => {
                    // Pre-built cell: charged `con` at the bind (unless
                    // nullary, which is free), rebuilt uncharged on
                    // demand — cyclic cells stay cyclic through the
                    // thunk indirection, like the machine's heap names.
                    let (caps, body_scope) = self.capture_scope(rhs)?;
                    let label = self.new_label();
                    self.pending.push_back(PendingBody {
                        label,
                        env_depth: caps.len() as u16,
                        scope: body_scope,
                        kind: BodyKind::ConRecipe(rhs.clone()),
                    });
                    self.uses_thunks = true;
                    RecBinding::Thunk {
                        label,
                        captures: caps.into_boxed_slice(),
                        charge: if fields.is_empty() {
                            ChargeKind::Free
                        } else {
                            ChargeKind::Con
                        },
                    }
                }
                _ => {
                    // Anything else — including atoms, which the machine
                    // does *not* inline in recursive groups — becomes a
                    // thunk charged one `let` unit.
                    let (caps, body_scope) = self.capture_scope(rhs)?;
                    let label = self.new_label();
                    self.pending.push_back(PendingBody {
                        label,
                        env_depth: caps.len() as u16,
                        scope: body_scope,
                        kind: BodyKind::Eval(rhs.clone()),
                    });
                    self.uses_thunks = true;
                    RecBinding::Thunk {
                        label,
                        captures: caps.into_boxed_slice(),
                        charge: ChargeKind::Let,
                    }
                }
            };
            specs.push(spec);
        }
        let group = self.rec_groups.len() as u32;
        self.rec_groups.push(specs.into_boxed_slice());
        self.ops.push(Op::LetRec(group));
        let flow = self.compile_eval(body, cont)?;
        self.scope.truncate(scope_mark);
        Ok(flow)
    }

    fn compile_join(
        &mut self,
        jb: &JoinBind,
        body: &Expr,
        cont: Cont,
    ) -> Result<Flow, CompileError> {
        let entry_env = self.env_depth;
        let entry_depth = self.depth;
        let (inner, merge) = self.merge_cont(cont);
        let joins_mark = self.joins.len();
        let mut infos: Vec<JoinInfo> = Vec::with_capacity(jb.defs().len());
        for def in jb.defs() {
            let label = self.new_label();
            let info = JoinInfo {
                label,
                env_keep: entry_env,
                arity: def.params.len() as u16,
                operand_depth: entry_depth,
            };
            infos.push(info.clone());
            self.joins.push((def.name.clone(), info));
        }
        let mut any_leaves = self.compile_eval(body, inner)? == Flow::Leaves;
        // Recursive join bodies may jump to the whole group; a
        // non-recursive body must not see its own label.
        if !jb.is_rec() {
            self.joins.truncate(joins_mark);
        }
        let scope_mark = self.scope.len();
        for (def, info) in jb.defs().iter().zip(&infos) {
            self.bind_label(info.label);
            self.env_depth = entry_env;
            self.depth = entry_depth;
            for (k, p) in def.params.iter().enumerate() {
                self.scope
                    .push((p.name.clone(), Binding::Slot(entry_env + k as u16)));
            }
            self.env_depth += def.params.len() as u16;
            if self.compile_eval(&def.body, inner)? == Flow::Leaves {
                any_leaves = true;
            }
            self.scope.truncate(scope_mark);
        }
        self.joins.truncate(joins_mark);
        if let Some(label) = merge {
            if any_leaves {
                self.bind_label(label);
                self.env_depth = entry_env;
                self.depth = entry_depth + 1;
            }
        }
        Ok(if any_leaves {
            Flow::Leaves
        } else {
            Flow::Diverges
        })
    }

    fn compile_jump(&mut self, j: &Name, args: &[Expr]) -> Result<(), CompileError> {
        let info = self
            .joins
            .iter()
            .rev()
            .find(|(n, _)| n == j)
            .map(|(_, i)| i.clone())
            .ok_or_else(|| CompileError::UnboundLabel(j.clone()))?;
        if args.len() > 64 {
            return Err(CompileError::Unsupported(format!(
                "jump arity {} exceeds 64",
                args.len()
            )));
        }
        let mut mask = 0u64;
        for (i, a) in args.iter().enumerate() {
            self.compile_arg(a)?;
            if !is_cheap(a) {
                mask |= 1 << i;
            }
        }
        debug_assert_eq!(
            self.depth - args.len() as u16,
            info.operand_depth,
            "jump site and join point must share an operand depth"
        );
        debug_assert_eq!(info.arity as usize, args.len(), "jumps are saturated");
        if mask == 0 {
            // The paper's common case: a charge-free jump stays a single
            // 16-byte word.
            self.ops.push(Op::Jump {
                target: info.label,
                env_keep: info.env_keep,
                arity: info.arity,
            });
        } else {
            let spec = self.jump_specs.len() as u32;
            self.jump_specs.push(JumpSpec {
                target: info.label,
                env_keep: info.env_keep,
                arity: info.arity,
                charge_mask: mask,
            });
            self.ops.push(Op::JumpCharged(spec));
        }
        self.depth = info.operand_depth;
        Ok(())
    }

    /// Rewrite every label id into an absolute instruction index, in the
    /// instruction stream and in every side table.
    fn finalize(&mut self) {
        let labels = &self.labels;
        let fix = |l: &mut u32| {
            let t = labels[*l as usize];
            debug_assert_ne!(t, UNBOUND, "referenced label never bound");
            *l = t;
        };
        for op in &mut self.ops {
            match op {
                Op::MkClosure { label, .. } | Op::MkThunk { label, .. } | Op::Goto(label) => {
                    fix(label);
                }
                Op::Jump { target, .. } => fix(target),
                _ => {}
            }
        }
        for table in &mut self.cases {
            for (_, t, _) in table.con_arms.iter_mut() {
                fix(t);
            }
            for (_, t) in table.lit_arms.iter_mut() {
                fix(t);
            }
            if let Some(d) = &mut table.default {
                fix(d);
            }
        }
        for group in &mut self.rec_groups {
            for spec in group.iter_mut() {
                match spec {
                    RecBinding::Closure { label, .. } | RecBinding::Thunk { label, .. } => {
                        fix(label);
                    }
                    RecBinding::Int(_) => {}
                }
            }
        }
        for spec in &mut self.jump_specs {
            fix(&mut spec.target);
        }
    }
}

/// The superinstruction peephole.
///
/// Runs over the *finalized* stream (every `u32` is already an absolute
/// instruction index). The pass is in three steps:
///
/// 1. Without thunks, `LoadForce` degenerates to `Load` — the force
///    check can never fire — so it is rewritten first, which lets the
///    evaluation-position loads participate in fusion. (With thunks a
///    `LoadForce` may *enter* the thunk mid-instruction and return to
///    the following op, so it is never fused.)
/// 2. A branch-target map: no fusion window may contain a branch target
///    (or a call/force return address) anywhere but its first slot,
///    since control could re-enter the middle of the fused word.
/// 3. A left-to-right scan replacing matched windows (longest pattern
///    first) with one fused op, then a compaction that squeezes the
///    consumed slots out and remaps every code reference — stream,
///    side tables, and entry — so the dispatch loop runs over a dense
///    array with no dead words.
///
/// The fused set was chosen from `fj report --vm-ops` pair/triple
/// histograms over the nofib suite; see DESIGN.md. Each fused op
/// charges the metrics counters exactly as its expansion (the fused
/// jumps still count `jumps`; none of the fusable ops allocate), which
/// the differential suites and the fuzz farm's fused-vs-unfused route
/// check on every run.
fn fuse(
    ops: &mut Vec<Op>,
    cases: &mut [CaseTable],
    rec_groups: &mut [Box<[RecBinding]>],
    jump_specs: &mut [JumpSpec],
    entry: &mut u32,
    uses_thunks: bool,
) {
    if !uses_thunks {
        for op in ops.iter_mut() {
            if let Op::LoadForce(i) = *op {
                *op = Op::Load(i);
            }
        }
    }

    let n = ops.len();
    let mut is_target = vec![false; n];
    // The Halt sentinel: every root frame returns to instruction 0.
    is_target[0] = true;
    is_target[*entry as usize] = true;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::MkClosure { label, .. } | Op::MkThunk { label, .. } | Op::Goto(label) => {
                is_target[label as usize] = true;
            }
            Op::Jump { target, .. } => is_target[target as usize] = true,
            Op::JumpCharged(s) => is_target[jump_specs[s as usize].target as usize] = true,
            Op::Case(t) => {
                let table = &cases[t as usize];
                for &(_, arm, _) in table.con_arms.iter() {
                    is_target[arm as usize] = true;
                }
                for &(_, arm) in table.lit_arms.iter() {
                    is_target[arm as usize] = true;
                }
                if let Some(d) = table.default {
                    is_target[d as usize] = true;
                }
            }
            Op::LetRec(g) => {
                for spec in rec_groups[g as usize].iter() {
                    match spec {
                        RecBinding::Closure { label, .. } | RecBinding::Thunk { label, .. } => {
                            is_target[*label as usize] = true;
                        }
                        RecBinding::Int(_) => {}
                    }
                }
            }
            // The instruction after a call is its return address; after a
            // LoadForce, a pending thunk's frame returns there too.
            Op::Call { .. } | Op::CallTy | Op::LoadForce(_) if i + 1 < n => {
                is_target[i + 1] = true;
            }
            _ => {}
        }
    }

    let mut consumed = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if consumed[i] {
            i += 1;
            continue;
        }
        let free2 = i + 1 < n && !is_target[i + 1];
        let free3 = free2 && i + 2 < n && !is_target[i + 2];
        let free4 = free3 && i + 3 < n && !is_target[i + 3];
        let fused = 'pick: {
            if let Op::Load(a) = ops[i] {
                if free4 {
                    if let (Op::PushInt(v), Op::Prim(p), Op::Case(t)) =
                        (ops[i + 1], ops[i + 2], ops[i + 3])
                    {
                        if let Ok(n16) = i16::try_from(v) {
                            break 'pick Some((
                                Op::LoadIntPrimCase {
                                    a,
                                    n: n16,
                                    op: p,
                                    table: t,
                                },
                                4,
                            ));
                        }
                    }
                    if let (Op::Load(b), Op::Prim(p), Op::Case(t)) =
                        (ops[i + 1], ops[i + 2], ops[i + 3])
                    {
                        break 'pick Some((
                            Op::LoadLoadPrimCase {
                                a,
                                b,
                                op: p,
                                table: t,
                            },
                            4,
                        ));
                    }
                }
                if free3 {
                    if let (Op::Load(b), Op::Prim(p)) = (ops[i + 1], ops[i + 2]) {
                        break 'pick Some((Op::LoadLoadPrim { a, b, op: p }, 3));
                    }
                    if let (Op::PushInt(v), Op::Prim(p)) = (ops[i + 1], ops[i + 2]) {
                        if let Ok(n32) = i32::try_from(v) {
                            break 'pick Some((Op::LoadIntPrim { a, n: n32, op: p }, 3));
                        }
                    }
                    if let (
                        Op::Load(b),
                        Op::Jump {
                            target,
                            env_keep,
                            arity: 2,
                        },
                    ) = (ops[i + 1], ops[i + 2])
                    {
                        break 'pick Some((
                            Op::LoadLoadJump {
                                a,
                                b,
                                target,
                                env_keep,
                            },
                            3,
                        ));
                    }
                }
                if free2 {
                    match ops[i + 1] {
                        Op::Jump {
                            target,
                            env_keep,
                            arity: 1,
                        } => {
                            break 'pick Some((
                                Op::LoadJump {
                                    a,
                                    target,
                                    env_keep,
                                },
                                2,
                            ))
                        }
                        Op::Case(t) => break 'pick Some((Op::LoadCase { slot: a, table: t }, 2)),
                        Op::Ret => break 'pick Some((Op::LoadRet(a), 2)),
                        Op::Prim(p) => break 'pick Some((Op::LoadPrim { b: a, op: p }, 2)),
                        _ => {}
                    }
                }
            } else if free2 {
                match (ops[i], ops[i + 1]) {
                    (Op::PushInt(v), Op::Prim(p)) => {
                        if let Ok(n32) = i32::try_from(v) {
                            break 'pick Some((Op::IntPrim { n: n32, op: p }, 2));
                        }
                    }
                    (Op::Prim(p), Op::Case(t)) => {
                        break 'pick Some((Op::PrimCase { op: p, table: t }, 2))
                    }
                    _ => {}
                }
            }
            None
        };
        if let Some((op, len)) = fused {
            ops[i] = op;
            for slot in consumed.iter_mut().take(i + len).skip(i + 1) {
                *slot = true;
            }
            i += len;
        } else {
            i += 1;
        }
    }

    // Compaction: drop the consumed slots, remap every code reference.
    let mut map = vec![0u32; n];
    let mut out: Vec<Op> = Vec::with_capacity(n);
    for i in 0..n {
        map[i] = out.len() as u32;
        if !consumed[i] {
            out.push(ops[i]);
        }
    }
    let remap = |t: &mut u32| {
        debug_assert!(!consumed[*t as usize], "branch target was fused away");
        *t = map[*t as usize];
    };
    for op in &mut out {
        match op {
            Op::MkClosure { label, .. } | Op::MkThunk { label, .. } | Op::Goto(label) => {
                remap(label);
            }
            Op::Jump { target, .. }
            | Op::LoadJump { target, .. }
            | Op::LoadLoadJump { target, .. } => remap(target),
            _ => {}
        }
    }
    for table in cases.iter_mut() {
        for (_, t, _) in table.con_arms.iter_mut() {
            remap(t);
        }
        for (_, t) in table.lit_arms.iter_mut() {
            remap(t);
        }
        if let Some(d) = &mut table.default {
            remap(d);
        }
    }
    for group in rec_groups.iter_mut() {
        for spec in group.iter_mut() {
            match spec {
                RecBinding::Closure { label, .. } | RecBinding::Thunk { label, .. } => {
                    remap(label);
                }
                RecBinding::Int(_) => {}
            }
        }
    }
    for spec in jump_specs.iter_mut() {
        remap(&mut spec.target);
    }
    remap(entry);
    *ops = out;
}
