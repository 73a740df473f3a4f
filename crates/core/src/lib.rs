//! # fj-core — the optimizer from "Compiling without continuations"
//!
//! The paper's primary contribution, as a library:
//!
//! * [`axioms`] — the equational theory of Fig. 4, one rewrite at a time;
//! * [`occur`] — the occurrence analysis feeding inlining decisions;
//! * [`simplify`] — a GHC-style Simplifier threading a reified evaluation
//!   context, implementing case-of-case, inlining, and the two new
//!   behaviours the paper adds for join points: **`jfloat`** (copy the
//!   context into a join's right-hand side) and **`abort`** (discard the
//!   context at a jump);
//! * [`contify`](fn@contify) — Fig. 5's inference of join points from
//!   tail-called `let` bindings;
//! * [`float_in`](fn@float_in) / [`float_out`](fn@float_out) — the
//!   join-point-preserving floating passes of Sec. 7;
//! * [`erase`](fn@erase) — Theorem 5's erasure back to System F;
//! * [`cse`](fn@cse) — common-subexpression elimination, the Sec. 8
//!   "easy in direct style, hard in CPS" example, made executable;
//! * pass orchestration ([`optimize_with_report`], strict or resilient per
//!   [`OptConfig::recovery`]) with the two experimental presets:
//!   [`OptConfig::join_points`] (the paper) and [`OptConfig::baseline`]
//!   (GHC before the paper).
//!
//! ## Example: the `case`-of-`case` cascade from Sec. 2
//!
//! ```
//! use fj_ast::{Dsl, Expr, Type};
//! use fj_core::{optimize_with_report, OptConfig};
//!
//! let mut dsl = Dsl::new();
//! // null as = case (case as of { Nil -> Nothing; Cons p _ -> Just p })
//! //           of { Nothing -> True; Just _ -> False }
//! let as_ = dsl.binder("as", dsl.list_ty(Type::Int));
//! let nil_rhs = dsl.nothing(Type::Int);
//! let inner = dsl.case_list(
//!     Type::Int,
//!     Expr::var(&as_.name),
//!     nil_rhs,
//!     |d, h, _| d.just(Type::Int, Expr::var(h)),
//! );
//! let outer = dsl.case_maybe(Type::Int, inner, Expr::bool(true), |_, _| {
//!     Expr::bool(false)
//! });
//! let program = Expr::lam(as_, outer);
//!
//! let mut supply = dsl.supply;
//! let (optimized, _report) = optimize_with_report(
//!     &program,
//!     &dsl.data_env,
//!     &mut supply,
//!     &OptConfig::join_points(),
//! )?;
//! // The Nothing/Just shuffle is gone: one case, straight to True/False.
//! assert!(optimized.size() < program.size());
//! # Ok::<(), fj_core::OptError>(())
//! ```

#![warn(missing_docs)]

pub mod axioms;
pub mod cache;
mod contify;
mod cse;
mod erase;
mod float_in;
mod float_out;
pub mod guard;
pub mod occur;
pub mod simplify;
pub mod stats;

mod par;
mod pipeline;

#[cfg(test)]
mod tests;

pub use cache::{
    optimize_cached, CacheKey, CacheStats, CacheStore, DiskLoad, OptCache, StoredEntry,
    DEFAULT_CACHE_BYTES, DEFAULT_SHARDS,
};
pub use contify::{contify, contify_counting};
pub use cse::{cse, CseOutcome};
pub use erase::{erase, is_commuting_normal};
pub use float_in::{float_in, float_in_counting};
pub use float_out::{float_out, float_out_counting};
pub use guard::{panic_message, quiet_panics, PassCtx, PassResult, PassTap, RollbackReason};
pub use par::par_map;
pub use pipeline::{apply_pass, optimize_with_report, OptConfig, Pass, Recovery};
pub use simplify::{simplify, simplify_once, SimplOpts};
pub use stats::{Census, PassOutcome, PassStats, PipelineReport, RewriteStats};

use fj_check::LintError;
use std::fmt;

/// Why an optimizer pass failed.
#[derive(Clone, Debug)]
pub enum OptError {
    /// Type reconstruction failed (the input was ill-typed).
    Type(LintError),
    /// A pass produced ill-typed output; the pass name, Lint's complaint,
    /// and a pretty-printed dump of the offending term (the paper's
    /// "forensic" workflow for catching join-destroying passes).
    LintAfterPass {
        /// The offending pass.
        pass: &'static str,
        /// What Lint found.
        error: Box<LintError>,
        /// Pretty-printed output of the pass.
        dump: String,
    },
    /// A pass blew a configured budget (per-pass deadline, growth factor,
    /// or total pass count) in a fail-fast pipeline. The resilient
    /// pipeline records the same condition as a rollback instead.
    Budget {
        /// The offending pass.
        pass: &'static str,
        /// Which budget family was breached.
        kind: BudgetKind,
        /// Which budget, and by how much.
        reason: String,
    },
    /// An internal invariant was broken.
    Internal(String),
}

/// Which budget an [`OptError::Budget`] breached, structured so drivers
/// can classify without parsing the reason string. A growth breach is the
/// optimizer *refusing a term* (the CLI's exit-code family 4); the
/// wall-clock and pass-count budgets are resource exhaustion (family 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The per-pass wall-clock deadline (`OptConfig::pass_deadline`).
    Deadline,
    /// The term-size growth factor (`OptConfig::max_growth`).
    Growth,
    /// The executed-pass count (`OptConfig::max_passes`).
    Passes,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Type(e) => write!(f, "ill-typed input: {e}"),
            OptError::LintAfterPass { pass, error, dump } => {
                write!(
                    f,
                    "pass `{pass}` broke typing: {error}\n--- dump ---\n{dump}"
                )
            }
            OptError::Budget { pass, reason, .. } => {
                write!(f, "pass `{pass}` blew its budget: {reason}")
            }
            OptError::Internal(msg) => write!(f, "internal optimizer error: {msg}"),
        }
    }
}

impl std::error::Error for OptError {}

impl From<LintError> for OptError {
    fn from(e: LintError) -> Self {
        OptError::Type(e)
    }
}
