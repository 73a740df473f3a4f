//! The System F_J abstract machine (Fig. 3 of the paper).
//!
//! A configuration is `⟨e; s; Σ⟩`: a focus expression, a stack of frames,
//! and a heap of bindings. The rules are transliterated from the paper:
//!
//! * `push` — move an evaluation frame (argument, type argument, case,
//!   join binding) onto the stack;
//! * `β` / `β_τ` — bind an argument and enter a (type) lambda;
//! * `bind` — allocate `let` bindings in the heap Σ;
//! * `look` — dereference a variable (with an update frame under
//!   call-by-need);
//! * `case` — select an alternative and bind its fields;
//! * `jump` — **pop the stack down to the join point's frame, discarding
//!   everything in between** (the rule that makes jumps "adjust the stack
//!   and jump"), leaving the `join` frame in place for recursive jumps;
//! * `ans` — drop a join frame once an answer reaches it (its bindings are
//!   dead code at that point).
//!
//! Join points are *stack-allocated*: a `join` binding pushes a frame and
//! allocates nothing in Σ. That asymmetry with `let` is what the paper's
//! benchmark numbers measure, and [`Metrics`](crate::Metrics) counts it.
//!
//! Three evaluation modes are provided: call-by-name (the paper's Fig. 3),
//! call-by-need (standard update frames), and call-by-value (strict
//! arguments, strict `let`, as sketched in the paper's Sec. 10). The
//! benchmark harness uses call-by-value, matching the paper's remark that
//! everything applies equally to a strict language; the soundness test
//! suite exercises all three.

use crate::metrics::Metrics;
use fj_ast::{
    Alt, AltCon, Expr, Ident, JoinBind, LetBind, Name, NameSupply, PrimOp, PrimResult, Subst, Type,
};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The machine polls its wall-clock deadline every `DEADLINE_CHECK_MASK
/// + 1` steps (a power of two so the check is a cheap bit-test), and the
/// VM every `DEADLINE_CHECK_MASK + 1` instructions.
pub const DEADLINE_CHECK_MASK: u64 = 0xFFF;

/// Evaluation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvalMode {
    /// Call-by-name: arguments bound unevaluated, re-evaluated per use
    /// (the paper's Fig. 3).
    CallByName,
    /// Call-by-need: call-by-name plus update frames (sharing).
    CallByNeed,
    /// Call-by-value: arguments and `let` right-hand sides evaluated
    /// before binding; constructors build evaluated cells.
    CallByValue,
}

impl EvalMode {
    const ALL: [EvalMode; 3] = [
        EvalMode::CallByName,
        EvalMode::CallByNeed,
        EvalMode::CallByValue,
    ];

    /// The name `mode` and `--mode` take.
    pub fn name(self) -> &'static str {
        match self {
            EvalMode::CallByName => "name",
            EvalMode::CallByNeed => "need",
            EvalMode::CallByValue => "value",
        }
    }

    /// The mode a `mode` or `--mode` value denotes; `None` for an unknown
    /// name.
    pub fn parse(name: &str) -> Option<EvalMode> {
        EvalMode::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Is `e` an answer under this mode? Under call-by-value a
    /// constructor is one only when its fields are atoms or answers. With
    /// [`is_cheap`], this decides which values charge a `let`, `arg` or
    /// `con` unit, on the machine and on the VM alike.
    pub fn is_answer(self, e: &Expr) -> bool {
        match e {
            Expr::Lam(..) | Expr::TyLam(..) | Expr::Lit(_) => true,
            Expr::Con(_, _, args) => {
                self != EvalMode::CallByValue
                    || args.iter().all(|a| self.is_answer(a) || a.is_atom())
            }
            _ => false,
        }
    }
}

/// Is an expression freely duplicable (variable, literal, nullary
/// constructor)? Such operands are substituted inline and never charge.
pub fn is_cheap(e: &Expr) -> bool {
    e.is_atom() || matches!(e, Expr::Con(_, _, args) if args.is_empty())
}

/// Why a run did not produce an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// The step budget was exhausted (possibly a diverging program).
    OutOfFuel,
    /// The wall-clock deadline passed (possibly a diverging program).
    /// Only produced when a deadline was configured via
    /// [`run_with_limits`] or [`Machine::with_deadline`].
    Timeout {
        /// The configured wall-clock limit.
        limit: Duration,
    },
    /// A variable had no heap binding.
    UnboundVar(Name),
    /// A jump found no matching join frame on the stack.
    NoJoinFrame(Name),
    /// Division or remainder by zero.
    DivideByZero,
    /// The machine reached a configuration no rule covers.
    Stuck(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfFuel => write!(f, "step budget exhausted"),
            MachineError::Timeout { limit } => {
                write!(f, "wall-clock deadline exhausted ({limit:?})")
            }
            MachineError::UnboundVar(x) => write!(f, "unbound variable {x} at runtime"),
            MachineError::NoJoinFrame(j) => write!(f, "no join frame for label {j}"),
            MachineError::DivideByZero => write!(f, "division by zero"),
            MachineError::Stuck(msg) => write!(f, "machine stuck: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Recover ownership of a shared expression: free when the `Rc` is
/// unique (the common case for program text), one structural clone when
/// it still aliases a heap binding.
fn take(e: Rc<Expr>) -> Expr {
    Rc::try_unwrap(e).unwrap_or_else(|rc| (*rc).clone())
}

/// A fully forced, observable result value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A saturated constructor of forced fields.
    Con(Ident, Vec<Value>),
    /// A function value (not inspectable).
    Closure,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Con(c, fields) if fields.is_empty() => write!(f, "{c}"),
            Value::Con(c, fields) => {
                write!(f, "({c}")?;
                for v in fields {
                    write!(f, " {v}")?;
                }
                write!(f, ")")
            }
            Value::Closure => write!(f, "<closure>"),
        }
    }
}

/// The result of a successful run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The fully forced result.
    pub value: Value,
    /// Counters from the run proper (deep forcing of the final value is
    /// *excluded* so lazy-structure materialization doesn't distort the
    /// allocation comparison).
    pub metrics: Metrics,
}

/// Run a closed term to a deeply forced value.
///
/// # Errors
///
/// Returns a [`MachineError`] on divergence past `fuel` steps, runtime
/// type errors (stuck states), or arithmetic faults.
pub fn run(e: &Expr, mode: EvalMode, fuel: u64) -> Result<Outcome, MachineError> {
    run_with_limits(e, mode, fuel, None)
}

/// As [`run`], with an additional optional wall-clock deadline: a
/// divergent (or merely slow) program stops with
/// [`MachineError::Timeout`] once the deadline passes, mirroring the
/// VM's `run_with_limits`. The deadline is checked every
/// [`DEADLINE_CHECK_MASK`]` + 1` steps so the hot loop stays cheap.
///
/// # Errors
///
/// As [`run`], plus [`MachineError::Timeout`].
pub fn run_with_limits(
    e: &Expr,
    mode: EvalMode,
    fuel: u64,
    deadline: Option<Duration>,
) -> Result<Outcome, MachineError> {
    let mut m = Machine::new(mode, fuel);
    if let Some(limit) = deadline {
        m = m.with_deadline(limit);
    }
    let answer = m.eval(e.clone())?;
    let metrics = m.metrics;
    let value = m.deep_force(answer, 64)?;
    Ok(Outcome { value, metrics })
}

/// Convenience: run and expect an integer result.
///
/// # Errors
///
/// As [`run`], plus a `Stuck` error if the result is not an integer.
pub fn run_int(e: &Expr, mode: EvalMode, fuel: u64) -> Result<i64, MachineError> {
    match run(e, mode, fuel)?.value {
        Value::Int(n) => Ok(n),
        other => Err(MachineError::Stuck(format!(
            "expected Int result, got {other}"
        ))),
    }
}

/// A heap binding. Payloads are shared (`Rc`) so `look` hands out an
/// alias instead of deep-cloning the stored term; a structural clone
/// happens only if the alias later needs to be taken apart while the
/// heap still holds it.
#[derive(Debug)]
enum HeapObj {
    Thunk(Rc<Expr>),
    Value(Rc<Expr>),
}

#[derive(Debug)]
enum Frame {
    /// `□ e` — pending argument.
    AppArg(Expr),
    /// CBV: the function answer, while its argument is evaluated in focus.
    AppFun(Rc<Expr>),
    /// `□ τ`.
    TyArg(Type),
    /// `case □ of alts`.
    Case(Vec<Alt>),
    /// `join jb in □`. Shared so `jump` can borrow the matched definition
    /// without cloning the whole group on every loop iteration.
    Join(Rc<JoinBind>),
    /// Call-by-need update.
    Update(Name),
    /// Evaluating the left primop operand; right pending.
    PrimL(PrimOp, Expr),
    /// Left operand known; evaluating the right.
    PrimR(PrimOp, i64),
    /// CBV: evaluating constructor fields left to right.
    ConArgs {
        con: Ident,
        tys: Vec<Type>,
        done: Vec<Expr>,
        pending: Vec<Expr>,
    },
    /// CBV: evaluating jump arguments before transferring control.
    JumpArgs {
        label: Name,
        tys: Vec<Type>,
        done: Vec<Expr>,
        pending: Vec<Expr>,
        res: Type,
    },
    /// CBV: strict `let` — binder name and body, waiting on the RHS.
    LetStrict(fj_ast::Binder, Expr),
}

/// The machine itself. Most callers want [`run`]; the struct is public so
/// benchmarks can drive it incrementally and read [`Machine::metrics`].
#[derive(Debug)]
pub struct Machine {
    mode: EvalMode,
    fuel: u64,
    /// Wall-clock cut-off and the limit it came from (for the error).
    deadline: Option<(Instant, Duration)>,
    heap: HashMap<Name, HeapObj>,
    stack: Vec<Frame>,
    supply: NameSupply,
    /// Counters for the run so far.
    pub metrics: Metrics,
    /// True when the current focus answer came from the heap (already
    /// counted) rather than from evaluating program text.
    focus_reused: bool,
}

impl Machine {
    /// A fresh machine.
    pub fn new(mode: EvalMode, fuel: u64) -> Self {
        Machine {
            mode,
            fuel,
            deadline: None,
            heap: HashMap::new(),
            stack: Vec::new(),
            supply: NameSupply::starting_at(1_000_000_000),
            metrics: Metrics::default(),
            focus_reused: false,
        }
    }

    /// Give the machine a wall-clock deadline, starting now.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some((Instant::now() + limit, limit));
        self
    }

    fn spend(&mut self) -> Result<(), MachineError> {
        if self.fuel == 0 {
            return Err(MachineError::OutOfFuel);
        }
        self.fuel -= 1;
        self.metrics.steps += 1;
        if self.metrics.steps & DEADLINE_CHECK_MASK == 0 {
            if let Some((cutoff, limit)) = self.deadline {
                if Instant::now() >= cutoff {
                    return Err(MachineError::Timeout { limit });
                }
            }
        }
        if self.stack.len() > self.metrics.max_stack {
            self.metrics.max_stack = self.stack.len();
        }
        Ok(())
    }

    /// Store one binding in the heap and charge the metrics policy:
    ///
    /// * closures (`λ`/`Λ` answers): one unit against `src`;
    /// * pre-built constructor cells arriving *unevaluated from program
    ///   text*: one `con` unit (their build point);
    /// * already-evaluated answers (call-by-value): free — they were
    ///   charged when the focus built them;
    /// * anything else: a thunk, one unit against `src`.
    fn store_binding(&mut self, fresh: Name, e: Expr, src: Charge, evaluated: bool) {
        if self.mode.is_answer(&e) {
            match &e {
                Expr::Lam(..) | Expr::TyLam(..) => self.charge(src),
                Expr::Con(_, _, args) if !args.is_empty() && !evaluated => {
                    self.metrics.con_allocs += 1;
                }
                _ => {}
            }
            self.heap.insert(fresh, HeapObj::Value(Rc::new(e)));
        } else {
            self.charge(src);
            self.heap.insert(fresh, HeapObj::Thunk(Rc::new(e)));
        }
    }

    fn charge(&mut self, src: Charge) {
        match src {
            Charge::Let => self.metrics.let_allocs += 1,
            Charge::Arg => self.metrics.arg_allocs += 1,
            Charge::Free => {}
        }
    }

    /// Bind `params ↦ args` with fresh names and return `body` with the
    /// parameters renamed; cheap arguments are substituted inline.
    fn bind_params(
        &mut self,
        params: impl IntoIterator<Item = (Name, Expr)>,
        body: &Expr,
        ty_params: impl IntoIterator<Item = (Name, Type)>,
        src: Charge,
        evaluated: bool,
    ) -> Expr {
        let params: Vec<(Name, Expr)> = params.into_iter().collect();
        let mut renames: Vec<(Name, Expr)> = Vec::new();
        let mut binds: Vec<(Name, Expr)> = Vec::new();
        for (p, arg) in params {
            if is_cheap(&arg) {
                renames.push((p, arg));
            } else {
                let fresh = self.supply.fresh_like(&p);
                renames.push((p, Expr::Var(fresh.clone())));
                binds.push((fresh, arg));
            }
        }
        let body2 = {
            let mut subst = Subst::new(&mut self.supply);
            for (p, img) in renames {
                subst = subst.bind_term(p, img);
            }
            for (a, t) in ty_params {
                subst = subst.bind_ty(a, t);
            }
            subst.apply(body)
        };
        for (fresh, arg) in binds {
            self.store_binding(fresh, arg, src, evaluated);
        }
        body2
    }

    /// Evaluate to an answer (weak head normal form).
    ///
    /// # Errors
    ///
    /// See [`run`].
    pub fn eval(&mut self, start: Expr) -> Result<Expr, MachineError> {
        let answer = self.eval_shared(Rc::new(start))?;
        Ok(take(answer))
    }

    /// The evaluation loop proper, over a shared focus. Answers looked up
    /// from the heap stay aliased until something needs to take them apart.
    fn eval_shared(&mut self, start: Rc<Expr>) -> Result<Rc<Expr>, MachineError> {
        let base_stack = self.stack.len();
        let mut focus = start;
        loop {
            self.spend()?;
            if self.mode.is_answer(&focus) {
                // Charge constructor allocation the first time this cell is
                // built from program text.
                if !self.focus_reused {
                    if let Expr::Con(_, _, args) = &*focus {
                        if !args.is_empty() {
                            self.metrics.con_allocs += 1;
                        }
                    }
                }
                // Mark handled: from here on this answer is a built value.
                self.focus_reused = true;
                if self.stack.len() == base_stack {
                    return Ok(focus);
                }
                let frame = self.stack.pop().expect("stack above base");
                focus = self.consume(focus, frame)?;
                continue;
            }
            self.focus_reused = false;
            focus = self.dispatch(focus)?;
        }
    }

    /// An answer meets the top frame.
    #[allow(clippy::too_many_lines)]
    fn consume(&mut self, answer: Rc<Expr>, frame: Frame) -> Result<Rc<Expr>, MachineError> {
        match frame {
            Frame::AppArg(arg) => match &*answer {
                Expr::Lam(b, body) => {
                    if self.mode == EvalMode::CallByValue
                        && !(arg.is_atom() || self.mode.is_answer(&arg))
                    {
                        // Evaluate the argument first.
                        self.stack.push(Frame::AppFun(Rc::clone(&answer)));
                        self.focus_reused = false;
                        Ok(Rc::new(arg))
                    } else {
                        let name = b.name.clone();
                        Ok(Rc::new(self.bind_params(
                            [(name, arg)],
                            body,
                            [],
                            Charge::Arg,
                            false,
                        )))
                    }
                }
                other => Err(MachineError::Stuck(format!(
                    "applied non-function answer: {other}"
                ))),
            },
            Frame::AppFun(fun) => match &*fun {
                Expr::Lam(b, body) => {
                    let name = b.name.clone();
                    let arg = take(answer);
                    Ok(Rc::new(self.bind_params(
                        [(name, arg)],
                        body,
                        [],
                        Charge::Arg,
                        true,
                    )))
                }
                other => Err(MachineError::Stuck(format!(
                    "AppFun frame holds non-lambda: {other}"
                ))),
            },
            Frame::TyArg(t) => match &*answer {
                Expr::TyLam(a, body) => Ok(Rc::new(self.bind_params(
                    [],
                    body,
                    [(a.clone(), t)],
                    Charge::Free,
                    false,
                ))),
                other => Err(MachineError::Stuck(format!(
                    "type-applied non-type-lambda: {other}"
                ))),
            },
            Frame::Case(alts) => self.select_alt(&answer, alts),
            Frame::Join(_) => {
                // `ans` rule: the join binding is dead once an answer
                // reaches it.
                self.focus_reused = true;
                Ok(answer)
            }
            Frame::Update(x) => {
                self.heap.insert(x, HeapObj::Value(Rc::clone(&answer)));
                self.focus_reused = true;
                Ok(answer)
            }
            Frame::PrimL(op, rhs) => match &*answer {
                Expr::Lit(a) => {
                    self.stack.push(Frame::PrimR(op, *a));
                    self.focus_reused = false;
                    Ok(Rc::new(rhs))
                }
                other => Err(MachineError::Stuck(format!(
                    "primop operand not an integer: {other}"
                ))),
            },
            Frame::PrimR(op, a) => match &*answer {
                Expr::Lit(b) => match op.eval(a, *b) {
                    Some(PrimResult::Int(n)) => Ok(Rc::new(Expr::Lit(n))),
                    Some(PrimResult::Bool(v)) => Ok(Rc::new(Expr::bool(v))),
                    None => Err(MachineError::DivideByZero),
                },
                other => Err(MachineError::Stuck(format!(
                    "primop operand not an integer: {other}"
                ))),
            },
            Frame::ConArgs {
                con,
                tys,
                mut done,
                mut pending,
            } => {
                done.push(take(answer));
                if let Some(next) = pending.pop() {
                    self.stack.push(Frame::ConArgs {
                        con,
                        tys,
                        done,
                        pending,
                    });
                    self.focus_reused = false;
                    Ok(Rc::new(next))
                } else {
                    // Freshly completed cell: charge it here (the focus
                    // answer path would see focus_reused=true).
                    if !done.is_empty() {
                        self.metrics.con_allocs += 1;
                    }
                    self.focus_reused = true;
                    Ok(Rc::new(Expr::Con(con, tys, done)))
                }
            }
            Frame::JumpArgs {
                label,
                tys,
                mut done,
                mut pending,
                res,
            } => {
                done.push(take(answer));
                while let Some(next) = pending.pop() {
                    if next.is_atom() {
                        done.push(next);
                    } else {
                        self.stack.push(Frame::JumpArgs {
                            label,
                            tys,
                            done,
                            pending,
                            res,
                        });
                        self.focus_reused = false;
                        return Ok(Rc::new(next));
                    }
                }
                self.perform_jump(&label, tys, done, true)
            }
            Frame::LetStrict(b, body) => {
                let arg = take(answer);
                Ok(Rc::new(self.bind_params(
                    [(b.name, arg)],
                    &body,
                    [],
                    Charge::Let,
                    true,
                )))
            }
        }
    }

    /// A non-answer in focus: apply the matching `push`/`bind`/`look`/
    /// `jump` rule.
    #[allow(clippy::too_many_lines)]
    fn dispatch(&mut self, focus: Rc<Expr>) -> Result<Rc<Expr>, MachineError> {
        // Regain ownership to deconstruct: free for program text (unique),
        // one structural clone when the focus aliases a heap thunk — the
        // cost the pre-sharing machine paid eagerly at every `look`.
        match take(focus) {
            Expr::Var(x) => match self.heap.get(&x) {
                Some(HeapObj::Value(v)) => {
                    let v = Rc::clone(v);
                    self.focus_reused = true;
                    Ok(v)
                }
                Some(HeapObj::Thunk(e)) => {
                    let e = Rc::clone(e);
                    if self.mode == EvalMode::CallByNeed {
                        self.stack.push(Frame::Update(x));
                    }
                    Ok(e)
                }
                None => Err(MachineError::UnboundVar(x)),
            },
            Expr::App(f, a) => {
                self.stack.push(Frame::AppArg(Expr::unshare(a)));
                Ok(Rc::new(Expr::unshare(f)))
            }
            Expr::TyApp(f, t) => {
                self.stack.push(Frame::TyArg(t));
                Ok(Rc::new(Expr::unshare(f)))
            }
            Expr::Prim(op, mut args) => {
                if args.len() != 2 {
                    return Err(MachineError::Stuck(format!(
                        "primop {op} with {} operands",
                        args.len()
                    )));
                }
                let b = args.pop().expect("two operands");
                let a = args.pop().expect("two operands");
                self.stack.push(Frame::PrimL(op, b));
                Ok(Rc::new(a))
            }
            Expr::Case(s, alts) => {
                self.stack.push(Frame::Case(alts));
                Ok(Rc::new(Expr::unshare(s)))
            }
            Expr::Let(bind, body) => self.bind_let(bind, Expr::unshare(body)).map(Rc::new),
            Expr::Join(jb, body) => {
                self.stack.push(Frame::Join(Rc::new(jb)));
                Ok(Rc::new(Expr::unshare(body)))
            }
            Expr::Jump(j, tys, args, res) => {
                if self.mode == EvalMode::CallByValue
                    && args
                        .iter()
                        .any(|a| !(a.is_atom() || self.mode.is_answer(a)))
                {
                    let mut pending: Vec<Expr> = args;
                    pending.reverse();
                    let mut done = Vec::new();
                    // Atoms pass through untouched (forcing them here would
                    // copy heap values inline for nothing).
                    while let Some(next) = pending.pop() {
                        if next.is_atom() {
                            done.push(next);
                        } else {
                            self.stack.push(Frame::JumpArgs {
                                label: j,
                                tys,
                                done,
                                pending,
                                res,
                            });
                            self.focus_reused = false;
                            return Ok(Rc::new(next));
                        }
                    }
                    self.perform_jump(&j, tys, done, true)
                } else {
                    self.perform_jump(&j, tys, args, false)
                }
            }
            // CBV constructors with unevaluated fields.
            Expr::Con(c, tys, args) => {
                debug_assert_eq!(self.mode, EvalMode::CallByValue);
                let mut pending: Vec<Expr> = args;
                pending.reverse();
                match pending.pop() {
                    Some(first) => {
                        self.stack.push(Frame::ConArgs {
                            con: c,
                            tys,
                            done: Vec::new(),
                            pending,
                        });
                        Ok(Rc::new(first))
                    }
                    None => Ok(Rc::new(Expr::Con(c, tys, Vec::new()))),
                }
            }
            other => Err(MachineError::Stuck(format!("no rule for focus: {other}"))),
        }
    }

    fn bind_let(&mut self, bind: LetBind, body: Expr) -> Result<Expr, MachineError> {
        match bind {
            LetBind::NonRec(b, rhs) => {
                if self.mode == EvalMode::CallByValue
                    && !(self.mode.is_answer(&rhs) || rhs.is_atom())
                {
                    self.stack.push(Frame::LetStrict(b, body));
                    Ok(Expr::unshare(rhs))
                } else {
                    Ok(self.bind_params(
                        [(b.name, Expr::unshare(rhs))],
                        &body,
                        [],
                        Charge::Let,
                        false,
                    ))
                }
            }
            LetBind::Rec(binds) => {
                // Allocate the whole group, with the group names renamed
                // consistently in all right-hand sides and the body.
                let fresh: Vec<Name> = binds
                    .iter()
                    .map(|(b, _)| self.supply.fresh_like(&b.name))
                    .collect();
                let rename = |this: &mut Self, e: &Expr| {
                    let mut s = Subst::new(&mut this.supply);
                    for ((b, _), f) in binds.iter().zip(&fresh) {
                        s = s.bind_term(b.name.clone(), Expr::Var(f.clone()));
                    }
                    s.apply(e)
                };
                let rhss: Vec<Expr> = binds.iter().map(|(_, rhs)| rename(self, rhs)).collect();
                let body2 = rename(self, &body);
                for (f, rhs) in fresh.into_iter().zip(rhss) {
                    self.store_binding(f, rhs, Charge::Let, false);
                }
                Ok(body2)
            }
        }
    }

    fn select_alt(&mut self, answer: &Expr, mut alts: Vec<Alt>) -> Result<Rc<Expr>, MachineError> {
        match answer {
            Expr::Con(c, _, args) => {
                let idx = alts
                    .iter()
                    .position(|a| matches!(&a.con, AltCon::Con(c2) if c2 == c))
                    .or_else(|| alts.iter().position(|a| a.con == AltCon::Default));
                let Some(idx) = idx else {
                    return Err(MachineError::Stuck(format!(
                        "no case alternative for constructor {c}"
                    )));
                };
                // Move the selected alternative out; the discarded ones are
                // dropped with the frame, and the taken branch is never
                // cloned.
                let alt = alts.swap_remove(idx);
                if alt.con == AltCon::Default {
                    self.focus_reused = false;
                    return Ok(Rc::new(alt.rhs));
                }
                if alt.binders.len() != args.len() {
                    return Err(MachineError::Stuck(format!(
                        "field arity mismatch scrutinizing {c}"
                    )));
                }
                // Field bindings are free: the constructor paid for them.
                let pairs: Vec<(Name, Expr)> = alt
                    .binders
                    .iter()
                    .map(|b| b.name.clone())
                    .zip(args.iter().cloned())
                    .collect();
                let rhs = self.bind_params(pairs, &alt.rhs, [], Charge::Free, true);
                self.focus_reused = false;
                Ok(Rc::new(rhs))
            }
            Expr::Lit(n) => {
                let idx = alts
                    .iter()
                    .position(|a| matches!(&a.con, AltCon::Lit(m) if m == n))
                    .or_else(|| alts.iter().position(|a| a.con == AltCon::Default));
                let Some(idx) = idx else {
                    return Err(MachineError::Stuck(format!(
                        "no case alternative for literal {n}"
                    )));
                };
                self.focus_reused = false;
                Ok(Rc::new(alts.swap_remove(idx).rhs))
            }
            other => Err(MachineError::Stuck(format!(
                "case scrutinee is not data: {other}"
            ))),
        }
    }

    /// The `jump` rule: pop to the join frame binding `label` (leaving the
    /// frame in place), bind the parameters, and enter the body.
    fn perform_jump(
        &mut self,
        label: &Name,
        tys: Vec<Type>,
        args: Vec<Expr>,
        evaluated: bool,
    ) -> Result<Rc<Expr>, MachineError> {
        self.metrics.jumps += 1;
        loop {
            match self.stack.last() {
                None => return Err(MachineError::NoJoinFrame(label.clone())),
                Some(Frame::Join(jb)) => {
                    if jb.defs().iter().any(|d| &d.name == label) {
                        // Alias the group (cheap) so the matched definition
                        // can be borrowed across `bind_params` without
                        // cloning its body on every recursive jump.
                        let jb = Rc::clone(jb);
                        let def = jb
                            .defs()
                            .iter()
                            .find(|d| &d.name == label)
                            .expect("label found above");
                        let pairs: Vec<(Name, Expr)> = def
                            .params
                            .iter()
                            .map(|b| b.name.clone())
                            .zip(args)
                            .collect();
                        let ty_pairs: Vec<(Name, Type)> =
                            def.ty_params.iter().cloned().zip(tys).collect();
                        let body =
                            self.bind_params(pairs, &def.body, ty_pairs, Charge::Arg, evaluated);
                        self.focus_reused = false;
                        return Ok(Rc::new(body));
                    }
                    // A join frame for some other group: discard it too.
                    self.stack.pop();
                }
                Some(_) => {
                    self.stack.pop();
                }
            }
        }
    }

    /// Force an answer into a deep [`Value`], recursing through
    /// constructor fields (bounded by `depth` to keep cyclic structures
    /// from spinning).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from forcing fields.
    pub fn deep_force(&mut self, answer: Expr, depth: usize) -> Result<Value, MachineError> {
        if depth == 0 {
            return Err(MachineError::Stuck("deep_force depth exhausted".into()));
        }
        match answer {
            Expr::Lit(n) => Ok(Value::Int(n)),
            Expr::Lam(..) | Expr::TyLam(..) => Ok(Value::Closure),
            Expr::Con(c, _, args) => {
                let mut fields = Vec::with_capacity(args.len());
                for a in args {
                    let v = self.eval(a)?;
                    fields.push(self.deep_force(v, depth - 1)?);
                }
                Ok(Value::Con(c, fields))
            }
            other => {
                let v = self.eval(other)?;
                self.deep_force(v, depth - 1)
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Charge {
    Let,
    Arg,
    Free,
}
