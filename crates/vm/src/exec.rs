//! The bytecode interpreter.
//!
//! A run holds three growable arrays — operand stack, slot stack
//! (environments of all live frames, concatenated), and call-frame
//! stack — and a program counter. No names exist at runtime: variables
//! are frame-relative slot loads, and a `jump` is a slot-stack
//! truncation plus a branch (see [`Op::Jump`]), which is the paper's
//! cost model executed literally.
//!
//! The dispatch loop streams over fixed 16-byte op words (wide payloads
//! live in the [`Code`] side tables) and handles the fused
//! superinstructions the peephole emits; both facts are invisible to
//! the metrics. Counters are charged exactly as the Fig. 3 machine
//! charges them; the policy was decided at compile time and sits in the
//! instruction flags, so the interpreter only tests "is this value a
//! closure" where the machine's `store_binding` would.
//!
//! The loop is generic over a [`Tracer`]: the normal entry points pass
//! a no-op tracer that monomorphizes away, while
//! [`run_program_profiled`] threads an [`OpProfile`] through to collect
//! the opcode/pair/triple histograms behind `fj report --vm-ops`.

use crate::ops::{CaseTable, ChargeKind, Code, Op, Program, RecBinding};
use crate::profile::OpProfile;
use crate::value::{ClosureCell, ThunkCell, ThunkState, VmError, VmValue};
use fj_ast::PrimOp;
use fj_eval::{EvalMode, Metrics, Outcome, Value, DEADLINE_CHECK_MASK};
use std::cell::RefCell;
use std::rc::Rc;

/// Instruction index of the always-present `Halt` (the compiler reserves
/// slot 0 for it; sentinel frames return here).
const HALT_IP: u32 = 0;

struct FrameV {
    ret_ip: u32,
    env_base: usize,
    update: Option<Rc<ThunkCell>>,
}

/// A per-dispatch observation hook. The production tracer is a no-op
/// zero-sized type, so the generic loop compiles to the plain
/// interpreter; the profiling tracer feeds [`OpProfile`].
pub trait Tracer {
    /// Called once per dispatched instruction with its opcode index.
    fn trace(&mut self, opcode: u8);
}

/// The production tracer: does nothing, costs nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn trace(&mut self, _opcode: u8) {}
}

impl Tracer for OpProfile {
    #[inline]
    fn trace(&mut self, opcode: u8) {
        self.record(opcode);
    }
}

/// Interpreter state for one program.
pub struct Vm<'p> {
    prog: &'p Program,
    fuel: u64,
    /// Wall-clock cut-off and the limit it came from (for the error).
    deadline: Option<(std::time::Instant, std::time::Duration)>,
    metrics: Metrics,
    stack: Vec<VmValue>,
    env: Vec<VmValue>,
    frames: Vec<FrameV>,
    base: usize,
    empty_fields: Rc<Vec<VmValue>>,
    /// Every cell a `LetRec` allocated. Backpatching makes each one part
    /// of a reference cycle, which `Drop` breaks when the run ends.
    rec_cells: Vec<VmValue>,
}

impl Drop for Vm<'_> {
    fn drop(&mut self) {
        for cell in &self.rec_cells {
            let (env, memo) = match cell {
                VmValue::Closure(c) => (&c.env, None),
                VmValue::Thunk(t) => (&t.env, Some(&t.state)),
                _ => continue,
            };
            // Every borrow of a cell ends with the frame that took it, so
            // these never fail; the `try_` forms keep `drop` panic-free.
            if let Ok(mut env) = env.try_borrow_mut() {
                env.clear();
            }
            if let Some(Ok(mut memo)) = memo.map(RefCell::try_borrow_mut) {
                *memo = ThunkState::Pending;
            }
        }
    }
}

/// Run a compiled program to a deeply forced value.
///
/// `fuel` bounds the number of instructions executed (a finer unit than
/// the machine's transition count — pass a proportionally larger budget).
///
/// # Errors
///
/// [`VmError::OutOfFuel`] past the budget, [`VmError::DivideByZero`] on
/// arithmetic faults, [`VmError::Stuck`] on runtime type errors.
pub fn run_program(prog: &Program, fuel: u64) -> Result<Outcome, VmError> {
    run_program_with_limits(prog, fuel, None)
}

/// As [`run_program`], with an additional optional wall-clock deadline:
/// the run stops with [`VmError::Timeout`] once the deadline passes,
/// mirroring the machine's `run_with_limits`.
///
/// # Errors
///
/// As [`run_program`], plus [`VmError::Timeout`].
pub fn run_program_with_limits(
    prog: &Program,
    fuel: u64,
    deadline: Option<std::time::Duration>,
) -> Result<Outcome, VmError> {
    let mut vm = Vm::new(prog, fuel, deadline);
    let answer = vm.run_code(prog.entry(), Vec::new(), None, &mut NoTrace)?;
    // Deep forcing is excluded from the counters, as in the machine.
    let metrics = vm.metrics;
    let value = vm.deep(&answer, 64)?;
    Ok(Outcome { value, metrics })
}

/// As [`run_program`], additionally collecting an opcode histogram
/// (dispatch counts plus hot pairs and triples) for `fj report
/// --vm-ops`. The deep-forcing epilogue is excluded from the profile,
/// as it is from the counters.
///
/// # Errors
///
/// As [`run_program`].
pub fn run_program_profiled(prog: &Program, fuel: u64) -> Result<(Outcome, OpProfile), VmError> {
    let mut vm = Vm::new(prog, fuel, None);
    let mut profile = OpProfile::default();
    let answer = vm.run_code(prog.entry(), Vec::new(), None, &mut profile)?;
    let metrics = vm.metrics;
    let value = vm.deep(&answer, 64)?;
    Ok((Outcome { value, metrics }, profile))
}

impl<'p> Vm<'p> {
    fn new(prog: &'p Program, fuel: u64, deadline: Option<std::time::Duration>) -> Self {
        Vm {
            prog,
            fuel,
            deadline: deadline.map(|limit| (std::time::Instant::now() + limit, limit)),
            metrics: Metrics::default(),
            stack: Vec::with_capacity(64),
            env: Vec::with_capacity(256),
            frames: Vec::with_capacity(64),
            base: 0,
            empty_fields: Rc::new(Vec::new()),
            rec_cells: Vec::new(),
        }
    }

    /// Execute one code object to completion: push a sentinel frame that
    /// returns to `Halt`, seed its environment, and loop.
    fn run_code<T: Tracer>(
        &mut self,
        entry: u32,
        frame_env: Vec<VmValue>,
        update: Option<Rc<ThunkCell>>,
        tracer: &mut T,
    ) -> Result<VmValue, VmError> {
        let env_base = self.env.len();
        self.frames.push(FrameV {
            ret_ip: HALT_IP,
            env_base,
            update,
        });
        self.env.extend(frame_env);
        self.base = env_base;
        self.exec_loop(entry, tracer)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_loop<T: Tracer>(&mut self, mut ip: u32, tracer: &mut T) -> Result<VmValue, VmError> {
        let prog = self.prog;
        let code: &Code = &prog.code;
        let ops = &code.ops;
        let lazy_fields = prog.uses_thunks && prog.mode == EvalMode::CallByNeed;
        loop {
            if self.fuel == 0 {
                return Err(VmError::OutOfFuel);
            }
            self.fuel -= 1;
            self.metrics.steps += 1;
            if self.metrics.steps & DEADLINE_CHECK_MASK == 0 {
                if let Some((cutoff, limit)) = self.deadline {
                    if std::time::Instant::now() >= cutoff {
                        return Err(VmError::Timeout { limit });
                    }
                }
            }
            let op = ops[ip as usize];
            tracer.trace(op.opcode());
            ip += 1;
            match op {
                Op::PushInt(n) => self.stack.push(VmValue::Int(n)),
                Op::Load(i) => self.stack.push(self.env[self.base + i as usize].clone()),
                Op::LoadForce(i) => {
                    let v = self.env[self.base + i as usize].clone();
                    if let VmValue::Thunk(cell) = v {
                        let forced = cell.state.borrow().clone();
                        match forced {
                            ThunkState::Forced(w) => self.stack.push(w),
                            ThunkState::Pending => {
                                // Enter the thunk: a plain call whose
                                // frame optionally updates on return.
                                let update =
                                    (prog.mode == EvalMode::CallByNeed).then(|| cell.clone());
                                let env_base = self.env.len();
                                self.frames.push(FrameV {
                                    ret_ip: ip,
                                    env_base,
                                    update,
                                });
                                if self.frames.len() > self.metrics.max_stack {
                                    self.metrics.max_stack = self.frames.len();
                                }
                                self.env.extend(cell.env.borrow().iter().cloned());
                                self.base = env_base;
                                ip = cell.label;
                            }
                        }
                    } else {
                        self.stack.push(v);
                    }
                }
                Op::MkCon { tag, arity, charge } => {
                    let v = if arity == 0 {
                        VmValue::Con(tag, self.empty_fields.clone())
                    } else {
                        let split = self.stack.len() - arity as usize;
                        VmValue::Con(tag, Rc::new(self.stack.split_off(split)))
                    };
                    if charge {
                        self.metrics.con_allocs += 1;
                    }
                    self.stack.push(v);
                }
                Op::MkClosure { label, caps } => {
                    let cap: Vec<VmValue> = code.captures[caps as usize]
                        .iter()
                        .map(|&i| self.env[self.base + i as usize].clone())
                        .collect();
                    self.stack.push(VmValue::Closure(Rc::new(ClosureCell {
                        label,
                        env: RefCell::new(cap),
                    })));
                }
                Op::MkThunk {
                    label,
                    caps,
                    charge,
                    per_projection,
                } => {
                    let cap: Vec<VmValue> = code.captures[caps as usize]
                        .iter()
                        .map(|&i| self.env[self.base + i as usize].clone())
                        .collect();
                    self.charge(charge);
                    self.stack.push(VmValue::Thunk(Rc::new(ThunkCell {
                        label,
                        env: RefCell::new(cap),
                        state: RefCell::new(ThunkState::Pending),
                        per_projection,
                    })));
                }
                Op::LetRec(group) => {
                    let specs = &code.rec_groups[group as usize];
                    // Phase 1: allocate every cell with an empty capture
                    // environment and bind it as a slot.
                    for spec in specs.iter() {
                        match spec {
                            RecBinding::Closure { label, .. } => {
                                self.metrics.let_allocs += 1;
                                self.env.push(VmValue::Closure(Rc::new(ClosureCell {
                                    label: *label,
                                    env: RefCell::new(Vec::new()),
                                })));
                            }
                            RecBinding::Thunk { label, charge, .. } => {
                                self.charge(*charge);
                                self.env.push(VmValue::Thunk(Rc::new(ThunkCell {
                                    label: *label,
                                    env: RefCell::new(Vec::new()),
                                    state: RefCell::new(ThunkState::Pending),
                                    per_projection: false,
                                })));
                            }
                            RecBinding::Int(n) => {
                                self.env.push(VmValue::Int(*n));
                            }
                        }
                    }
                    // Phase 2: fill the captures — siblings now exist.
                    let group_base = self.env.len() - specs.len();
                    for (k, spec) in specs.iter().enumerate() {
                        let captures = match spec {
                            RecBinding::Closure { captures, .. }
                            | RecBinding::Thunk { captures, .. } => captures,
                            RecBinding::Int(_) => continue,
                        };
                        let vals: Vec<VmValue> = captures
                            .iter()
                            .map(|&i| self.env[self.base + i as usize].clone())
                            .collect();
                        let cell = &self.env[group_base + k];
                        match cell {
                            VmValue::Closure(c) => *c.env.borrow_mut() = vals,
                            VmValue::Thunk(t) => *t.env.borrow_mut() = vals,
                            _ => unreachable!("phase 1 pushed a cell here"),
                        }
                        self.rec_cells.push(cell.clone());
                    }
                }
                Op::Bind { charge_let } => {
                    let v = self.stack.pop().expect("bind underflow");
                    if charge_let && v.is_closure() {
                        self.metrics.let_allocs += 1;
                    }
                    self.env.push(v);
                }
                Op::PopEnv(n) => {
                    let keep = self.env.len() - n as usize;
                    self.env.truncate(keep);
                }
                Op::Call { charge_arg } | Op::TailCall { charge_arg } => {
                    let tail = matches!(op, Op::TailCall { .. });
                    let arg = self.stack.pop().expect("call underflow");
                    let fun = self.stack.pop().expect("call underflow");
                    if charge_arg && arg.is_closure() {
                        self.metrics.arg_allocs += 1;
                    }
                    let VmValue::Closure(cell) = fun else {
                        return Err(VmError::Stuck("application of a non-function".into()));
                    };
                    if tail {
                        self.env.truncate(self.base);
                    } else {
                        let env_base = self.env.len();
                        self.frames.push(FrameV {
                            ret_ip: ip,
                            env_base,
                            update: None,
                        });
                        if self.frames.len() > self.metrics.max_stack {
                            self.metrics.max_stack = self.frames.len();
                        }
                        self.base = env_base;
                    }
                    self.env.extend(cell.env.borrow().iter().cloned());
                    self.env.push(arg);
                    ip = cell.label;
                }
                Op::CallTy | Op::TailCallTy => {
                    let tail = matches!(op, Op::TailCallTy);
                    let fun = self.stack.pop().expect("tyapp underflow");
                    let VmValue::Closure(cell) = fun else {
                        return Err(VmError::Stuck("type application of a non-function".into()));
                    };
                    if tail {
                        self.env.truncate(self.base);
                    } else {
                        let env_base = self.env.len();
                        self.frames.push(FrameV {
                            ret_ip: ip,
                            env_base,
                            update: None,
                        });
                        if self.frames.len() > self.metrics.max_stack {
                            self.metrics.max_stack = self.frames.len();
                        }
                        self.base = env_base;
                    }
                    self.env.extend(cell.env.borrow().iter().cloned());
                    ip = cell.label;
                }
                Op::Ret => {
                    let v = self.stack.pop().expect("ret underflow");
                    self.do_ret(v, &mut ip);
                }
                Op::Goto(target) => ip = target,
                Op::Jump {
                    target,
                    env_keep,
                    arity,
                } => {
                    // The paper's rule, literally: no heap cell, no
                    // substitution — truncate the slot stack to the join
                    // point's static depth, move the arguments in, branch.
                    self.metrics.jumps += 1;
                    let split = self.stack.len() - arity as usize;
                    self.env.truncate(self.base + env_keep as usize);
                    self.env.extend(self.stack.drain(split..));
                    ip = target;
                }
                Op::JumpCharged(spec) => {
                    let spec = &code.jump_specs[spec as usize];
                    self.metrics.jumps += 1;
                    let arity = spec.arity as usize;
                    let split = self.stack.len() - arity;
                    for i in 0..arity {
                        if spec.charge_mask & (1 << i) != 0 && self.stack[split + i].is_closure() {
                            self.metrics.arg_allocs += 1;
                        }
                    }
                    self.env.truncate(self.base + spec.env_keep as usize);
                    self.env.extend(self.stack.drain(split..));
                    ip = spec.target;
                }
                Op::Case(table) => {
                    let scrut = self.stack.pop().expect("case underflow");
                    self.dispatch_case(scrut, &code.cases[table as usize], lazy_fields, &mut ip)?;
                }
                Op::Prim(p) => {
                    let b = self.stack.pop().expect("prim underflow");
                    let a = self.stack.pop().expect("prim underflow");
                    let (VmValue::Int(a), VmValue::Int(b)) = (a, b) else {
                        return Err(VmError::Stuck("primop operand not an integer".into()));
                    };
                    let v = self.prim_value(p, a, b)?;
                    self.stack.push(v);
                }
                Op::Halt => {
                    return Ok(self.stack.pop().expect("halt without an answer"));
                }

                // ----------------------------------------------------------
                // Fused superinstructions. Each is semantically the exact
                // sequence it replaced (same values, same errors, same
                // counters); only the dispatch and operand-stack traffic
                // are collapsed.
                // ----------------------------------------------------------
                Op::LoadRet(i) => {
                    let v = self.env[self.base + i as usize].clone();
                    self.do_ret(v, &mut ip);
                }
                Op::LoadLoadPrim { a, b, op } => {
                    let ia = Self::slot_int(&self.env[self.base + a as usize])?;
                    let ib = Self::slot_int(&self.env[self.base + b as usize])?;
                    let v = self.prim_value(op, ia, ib)?;
                    self.stack.push(v);
                }
                Op::LoadIntPrim { a, n, op } => {
                    let ia = Self::slot_int(&self.env[self.base + a as usize])?;
                    let v = self.prim_value(op, ia, i64::from(n))?;
                    self.stack.push(v);
                }
                Op::IntPrim { n, op } => {
                    let a = self.stack.pop().expect("prim underflow");
                    let ia = Self::slot_int(&a)?;
                    let v = self.prim_value(op, ia, i64::from(n))?;
                    self.stack.push(v);
                }
                Op::LoadPrim { b, op } => {
                    let a = self.stack.pop().expect("prim underflow");
                    let ia = Self::slot_int(&a)?;
                    let ib = Self::slot_int(&self.env[self.base + b as usize])?;
                    let v = self.prim_value(op, ia, ib)?;
                    self.stack.push(v);
                }
                Op::PrimCase { op, table } => {
                    let b = self.stack.pop().expect("prim underflow");
                    let a = self.stack.pop().expect("prim underflow");
                    let (VmValue::Int(a), VmValue::Int(b)) = (a, b) else {
                        return Err(VmError::Stuck("primop operand not an integer".into()));
                    };
                    let scrut = self.prim_value(op, a, b)?;
                    self.dispatch_case(scrut, &code.cases[table as usize], lazy_fields, &mut ip)?;
                }
                Op::LoadIntPrimCase { a, n, op, table } => {
                    let ia = Self::slot_int(&self.env[self.base + a as usize])?;
                    let scrut = self.prim_value(op, ia, i64::from(n))?;
                    self.dispatch_case(scrut, &code.cases[table as usize], lazy_fields, &mut ip)?;
                }
                Op::LoadLoadPrimCase { a, b, op, table } => {
                    let ia = Self::slot_int(&self.env[self.base + a as usize])?;
                    let ib = Self::slot_int(&self.env[self.base + b as usize])?;
                    let scrut = self.prim_value(op, ia, ib)?;
                    self.dispatch_case(scrut, &code.cases[table as usize], lazy_fields, &mut ip)?;
                }
                Op::LoadCase { slot, table } => {
                    let scrut = self.env[self.base + slot as usize].clone();
                    self.dispatch_case(scrut, &code.cases[table as usize], lazy_fields, &mut ip)?;
                }
                Op::LoadJump {
                    a,
                    target,
                    env_keep,
                } => {
                    self.metrics.jumps += 1;
                    // Read before truncating: the argument slot may sit
                    // above the join's kept depth.
                    let v = self.env[self.base + a as usize].clone();
                    self.env.truncate(self.base + env_keep as usize);
                    self.env.push(v);
                    ip = target;
                }
                Op::LoadLoadJump {
                    a,
                    b,
                    target,
                    env_keep,
                } => {
                    self.metrics.jumps += 1;
                    let va = self.env[self.base + a as usize].clone();
                    let vb = self.env[self.base + b as usize].clone();
                    self.env.truncate(self.base + env_keep as usize);
                    self.env.push(va);
                    self.env.push(vb);
                    ip = target;
                }
            }
        }
    }

    /// Shared `Ret` epilogue (also the tail of [`Op::LoadRet`]).
    #[inline]
    fn do_ret(&mut self, v: VmValue, ip: &mut u32) {
        let f = self.frames.pop().expect("ret without frame");
        self.env.truncate(f.env_base);
        if let Some(cell) = f.update {
            *cell.state.borrow_mut() = ThunkState::Forced(v.clone());
        }
        self.stack.push(v);
        *ip = f.ret_ip;
        self.base = self.frames.last().map_or(0, |fr| fr.env_base);
    }

    /// An integer operand of a fused primitive (same error as the
    /// unfused `Prim` would raise).
    #[inline]
    fn slot_int(v: &VmValue) -> Result<i64, VmError> {
        match v {
            VmValue::Int(n) => Ok(*n),
            _ => Err(VmError::Stuck("primop operand not an integer".into())),
        }
    }

    /// Apply a primitive to two integers, producing the value the
    /// unfused `Prim` would push (booleans are free nullary cells).
    #[inline]
    fn prim_value(&self, p: PrimOp, a: i64, b: i64) -> Result<VmValue, VmError> {
        match p.eval(a, b) {
            Some(fj_ast::PrimResult::Int(n)) => Ok(VmValue::Int(n)),
            Some(fj_ast::PrimResult::Bool(v)) => {
                let tag = if v {
                    crate::compile::TAG_TRUE
                } else {
                    crate::compile::TAG_FALSE
                };
                Ok(VmValue::Con(tag, self.empty_fields.clone()))
            }
            None => Err(VmError::DivideByZero),
        }
    }

    /// Branch through a case table on an already-popped scrutinee
    /// (shared by `Case` and every fused `…Case` variant).
    fn dispatch_case(
        &mut self,
        scrut: VmValue,
        table: &CaseTable,
        lazy_fields: bool,
        ip: &mut u32,
    ) -> Result<(), VmError> {
        match scrut {
            VmValue::Con(tag, fields) => {
                let arm = table.con_arms.iter().find(|(t, _, _)| *t == tag).copied();
                if let Some((_, target, binder_count)) = arm {
                    if binder_count as usize != fields.len() {
                        return Err(VmError::Stuck(format!(
                            "constructor arity mismatch in case: {} has {} fields, pattern binds {}",
                            self.prog.code.idents[tag as usize],
                            fields.len(),
                            binder_count
                        )));
                    }
                    for f in fields.iter() {
                        // Call-by-need projects a *fresh* pending thunk
                        // per scrutinize, as the machine does; the clone
                        // is shared from then on.
                        let v = match f {
                            VmValue::Thunk(cell) if lazy_fields && cell.per_projection => {
                                VmValue::Thunk(Rc::new(ThunkCell {
                                    label: cell.label,
                                    env: RefCell::new(cell.env.borrow().clone()),
                                    state: RefCell::new(ThunkState::Pending),
                                    per_projection: false,
                                }))
                            }
                            other => other.clone(),
                        };
                        self.env.push(v);
                    }
                    *ip = target;
                } else if let Some(d) = table.default {
                    *ip = d;
                } else {
                    return Err(VmError::Stuck(format!(
                        "no case alternative matches {}",
                        self.prog.code.idents[tag as usize]
                    )));
                }
            }
            VmValue::Int(n) => {
                if let Some((_, target)) = table.lit_arms.iter().find(|(v, _)| *v == n) {
                    *ip = *target;
                } else if let Some(d) = table.default {
                    *ip = d;
                } else {
                    return Err(VmError::Stuck(format!(
                        "no case alternative matches literal {n}"
                    )));
                }
            }
            _ => {
                return Err(VmError::Stuck("case scrutinee is not data".into()));
            }
        }
        Ok(())
    }

    fn charge(&mut self, kind: ChargeKind) {
        match kind {
            ChargeKind::Let => self.metrics.let_allocs += 1,
            ChargeKind::Arg => self.metrics.arg_allocs += 1,
            ChargeKind::Con => self.metrics.con_allocs += 1,
            ChargeKind::Free => {}
        }
    }

    /// Force a thunk cell to weak-head normal form (a nested run;
    /// call-by-need memoizes via the sentinel frame's update slot).
    fn force_cell(&mut self, cell: &Rc<ThunkCell>) -> Result<VmValue, VmError> {
        let state = cell.state.borrow().clone();
        match state {
            ThunkState::Forced(v) => Ok(v),
            ThunkState::Pending => {
                let captured = cell.env.borrow().clone();
                let update = (self.prog.mode == EvalMode::CallByNeed).then(|| cell.clone());
                self.run_code(cell.label, captured, update, &mut NoTrace)
            }
        }
    }

    /// Mirror of the machine's `deep_force`: force to depth-bounded
    /// normal form for observation. Field forcing happens at the parent
    /// depth; each structural level consumes one unit.
    fn deep(&mut self, v: &VmValue, depth: usize) -> Result<Value, VmError> {
        if depth == 0 {
            return Err(VmError::Stuck("deep_force depth exhausted".into()));
        }
        match v {
            VmValue::Int(n) => Ok(Value::Int(*n)),
            VmValue::Closure(_) => Ok(Value::Closure),
            VmValue::Con(tag, fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for f in fields.iter() {
                    let w = match f {
                        VmValue::Thunk(cell) => self.force_cell(cell)?,
                        other => other.clone(),
                    };
                    out.push(self.deep(&w, depth - 1)?);
                }
                Ok(Value::Con(
                    self.prog.code.idents[*tag as usize].clone(),
                    out,
                ))
            }
            VmValue::Thunk(cell) => {
                let w = self.force_cell(cell)?;
                self.deep(&w, depth - 1)
            }
        }
    }
}
