//! # fj-eval — the System F_J abstract machine (Fig. 3)
//!
//! An interpreter for System F_J terms in the style of the paper's
//! operational semantics: configurations ⟨e; s; Σ⟩ with a frame stack and
//! a heap. Join points are stack-allocated frames; jumps pop the stack to
//! their binding. Three evaluation modes (call-by-name, call-by-need,
//! call-by-value) and the allocation accounting the paper's evaluation is
//! based on ([`Metrics`]).
//!
//! ## Example
//!
//! ```
//! use fj_ast::{Dsl, Expr, PrimOp, Type};
//! use fj_eval::{run_int, EvalMode};
//!
//! let e = Expr::prim2(PrimOp::Mul, Expr::Lit(6), Expr::Lit(7));
//! assert_eq!(run_int(&e, EvalMode::CallByName, 1_000)?, 42);
//! # Ok::<(), fj_eval::MachineError>(())
//! ```

#![warn(missing_docs)]

mod machine;
mod metrics;

pub use machine::{
    is_cheap, run, run_int, run_with_limits, EvalMode, Machine, MachineError, Outcome, Value,
    DEADLINE_CHECK_MASK,
};
pub use metrics::Metrics;

#[cfg(test)]
mod tests;
