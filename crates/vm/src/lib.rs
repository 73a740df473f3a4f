//! A flat, jump-threaded bytecode backend for System F_J.
//!
//! The Fig. 3 machine in `fj-eval` demonstrates the paper's cost model
//! by *simulation*: it walks the term tree, substitutes names, and
//! matches join frames at runtime. This crate makes the model literal.
//! A [`compile`] pass resolves every variable to a frame-relative slot
//! and every join point to a code label plus a static stack mark, and
//! [`run_program`] executes the result on an interpreter where
//! `jump` is exactly what Section 4 of the paper promises: truncate the
//! stack, branch — no closure, no heap cell, no name.
//!
//! The backend preserves the machine's [`Metrics`](fj_eval::Metrics)
//! contract bit-for-bit (`let`/`arg`/`con` allocation units and the
//! jump count; `steps` and `max_stack` are backend-specific), so
//! Table-1 style comparisons hold across backends and the differential
//! oracle can demand equality.
//!
//! ```
//! use fj_ast::{Binder, Expr, NameSupply, Type};
//! let mut supply = NameSupply::new();
//! let x = supply.fresh("x");
//! let e = Expr::app(
//!     Expr::lam(Binder::new(x.clone(), Type::con0("Int")), Expr::Var(x)),
//!     Expr::Lit(21),
//! );
//! let out = fj_vm::run(&e, fj_eval::EvalMode::CallByValue, 1_000).unwrap();
//! assert_eq!(out.value, fj_eval::Value::Int(21));
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod exec;
pub mod ops;
pub mod profile;
pub mod value;

pub use compile::{compile, compile_with, CompileError, CompileOpts};
pub use exec::{run_program, run_program_profiled, run_program_with_limits};
pub use ops::{Code, Op, Program};
pub use profile::OpProfile;
pub use value::VmError;

use fj_ast::Expr;
use fj_eval::{EvalMode, Outcome};

/// Compile and run a closed term: the one-call counterpart of
/// [`fj_eval::run`], returning the same [`Outcome`] shape.
///
/// `fuel` bounds executed *instructions*, a finer unit than machine
/// transitions; budget roughly 10× the machine's step budget.
///
/// # Errors
///
/// [`VmError::Compile`] on unlowered terms (unbound names — impossible
/// for Lint-clean input), otherwise the interpreter's runtime errors.
pub fn run(e: &Expr, mode: EvalMode, fuel: u64) -> Result<Outcome, VmError> {
    let prog = compile(e, mode).map_err(VmError::Compile)?;
    run_program(&prog, fuel)
}

/// As [`run`], with an additional optional wall-clock deadline, mirroring
/// [`fj_eval::run_with_limits`] so the two backends report timeouts
/// consistently.
///
/// # Errors
///
/// As [`run`], plus [`VmError::Timeout`] past the deadline.
pub fn run_with_limits(
    e: &Expr,
    mode: EvalMode,
    fuel: u64,
    deadline: Option<std::time::Duration>,
) -> Result<Outcome, VmError> {
    let prog = compile(e, mode).map_err(VmError::Compile)?;
    run_program_with_limits(&prog, fuel, deadline)
}
