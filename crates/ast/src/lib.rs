//! # fj-ast — System F_J abstract syntax
//!
//! The syntax of **System F_J** from *“Compiling without continuations”*
//! (Maurer, Downen, Ariola, Peyton Jones; PLDI 2017), Fig. 1: a
//! direct-style, explicitly typed λ-calculus with datatypes and `case`,
//! extended with **join points** ([`Expr::Join`]) and **jumps**
//! ([`Expr::Jump`]).
//!
//! This crate provides:
//!
//! * the term and type representations ([`Expr`], [`Type`], [`JoinBind`], …),
//! * GHC-style [`Name`]s with a fresh-name supply ([`NameSupply`]),
//! * the datatype environment ([`DataEnv`]) with the prelude types used
//!   throughout the repository,
//! * free-variable analyses ([`free_vars`], [`free_labels`]),
//! * capture-avoiding, binder-freshening substitution ([`Subst`], [`freshen`]),
//! * α-equivalence ([`alpha_eq`]) and α-fingerprints
//!   ([`alpha_fingerprint`]), both read off one canonical form
//!   ([`AlphaForm`]), and a Core-dump-style pretty printer ([`pretty`]),
//! * a term-building DSL ([`Dsl`]) used by examples and benchmarks.
//!
//! ## Example
//!
//! Build `join j (x:Int) = x + 1 in jump j 41 Int` and print it:
//!
//! ```
//! use fj_ast::{Dsl, Expr, JoinDef, PrimOp, Type};
//!
//! let mut dsl = Dsl::new();
//! let j = dsl.name("j");
//! let x = dsl.binder("x", Type::Int);
//! let body = Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1));
//! let term = Expr::join1(
//!     JoinDef { name: j.clone(), ty_params: vec![], params: vec![x], body },
//!     Expr::jump(&j, vec![], vec![Expr::Lit(41)], Type::Int),
//! );
//! assert!(term.has_join_or_jump());
//! println!("{term}");
//! ```

#![warn(missing_docs)]

mod alpha;
mod builder;
mod data_env;
mod expr;
mod fv;
pub mod fxhash;
mod name;
mod pretty;
mod subst;
mod ty;

pub use alpha::{alpha_eq, alpha_fingerprint, AlphaForm};
pub use builder::Dsl;
pub use data_env::{DataCon, DataEnv, DataEnvError, DataType};
pub use expr::{
    Alt, AltCon, Binder, Expr, JoinBind, JoinDef, LetBind, PrimOp, PrimResult, SpineArg,
};
pub use fv::{free_labels, free_vars, mentions_any, mentions_label, occurs_free};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use name::{Ident, Name, NameSupply, FIRST_PROGRAM_ID};
pub use pretty::pretty;
pub use subst::{freshen, subst_term, subst_terms, subst_ty_in_expr, subst_tys_in_expr, Subst};
pub use ty::Type;
