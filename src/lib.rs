//! # system-fj — "Compiling without continuations", in Rust
//!
//! A full reproduction of Maurer, Downen, Ariola & Peyton Jones,
//! *Compiling without continuations* (PLDI 2017): **System F_J**, a
//! direct-style intermediate language with **join points** and **jumps**,
//! together with its type system, abstract machine, optimizer
//! (simplifier, contification, floating, erasure), a surface language,
//! a stream-fusion library, and the paper's full evaluation harness.
//!
//! This crate is a facade: it re-exports the workspace members under
//! stable paths. See the individual crates for detail:
//!
//! * [`ast`] — System F_J syntax (Fig. 1), names, substitution;
//! * [`check`] — the Γ;Δ type system / Core Lint (Fig. 2);
//! * [`eval`] — the abstract machine (Fig. 3) with allocation accounting;
//! * [`core`] — the optimizer: equational theory (Fig. 4), simplifier,
//!   contification (Fig. 5), floating, erasure (Thm. 5);
//! * [`surface`] — a mini-Haskell frontend;
//! * [`fusion`] — skip-less vs skip-ful stream fusion (Sec. 5);
//! * [`nofib`] — the Table-1 benchmark suite and harness;
//! * [`vm`] — the flat jump-threaded bytecode backend (`--backend vm`),
//!   where a jump is literally a branch plus a stack truncation;
//! * [`server`] — `fj serve`: a sharded compile service over
//!   newline-delimited JSON with a content-addressed optimization cache.
//!
//! ## Quickstart
//!
//! ```
//! use system_fj::surface::compile;
//! use system_fj::core::{optimize_with_report, OptConfig};
//! use system_fj::eval::{run, EvalMode};
//!
//! let mut p = compile(
//!     "def main : Int =
//!        letrec go : Int -> Int -> Int =
//!          \\(n : Int) (acc : Int) ->
//!            if n <= 0 then acc else go (n - 1) (acc + n)
//!        in go 100 0;",
//! )?;
//! // `OptConfig::recovery` picks strict (the default) or resilient.
//! let cfg = OptConfig::join_points();
//! let (opt, report) = optimize_with_report(&p.expr, &p.data_env, &mut p.supply, &cfg)?;
//! assert!(report.all_applied());
//! let out = run(&opt, EvalMode::CallByValue, 1_000_000)?;
//! assert_eq!(out.value.to_string(), "5050");
//! assert_eq!(out.metrics.total_allocs(), 0); // the loop became a join point
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

/// System F_J abstract syntax (re-export of `fj-ast`).
pub use fj_ast as ast;
/// The type system / Core Lint (re-export of `fj-check`).
pub use fj_check as check;
/// The optimizer (re-export of `fj-core`).
pub use fj_core as core;
/// The abstract machine (re-export of `fj-eval`).
pub use fj_eval as eval;
/// Stream fusion (re-export of `fj-fusion`).
pub use fj_fusion as fusion;
/// The benchmark suite (re-export of `fj-nofib`).
pub use fj_nofib as nofib;
/// The compile service (re-export of `fj-server`).
pub use fj_server as server;
/// The surface language (re-export of `fj-surface`).
pub use fj_surface as surface;
/// The property-testing kit and fuzz farm (re-export of `fj-testkit`).
pub use fj_testkit as testkit;
/// The bytecode execution backend (re-export of `fj-vm`).
pub use fj_vm as vm;
