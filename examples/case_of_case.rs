//! The paper's Sec. 2 worked example: case-of-case, the code-bloat
//! problem, and join points as the fix.
//!
//! Builds `case (case v of …) of {Nothing -> BIG1; Just x -> BIG2}`
//! with deliberately large outer branches and prints the optimizer's
//! output in both modes: the paper's pipeline shares the big branches
//! through **join points** (`join j1/j2 … jump`), while the baseline
//! shares them through heap-allocated functions.
//!
//! ```text
//! cargo run --example case_of_case
//! ```

use system_fj::ast::{Alt, AltCon, Dsl, Expr, Ident, PrimOp, Type};
use system_fj::check::lint;
use system_fj::core::{optimize_with_report, OptConfig};

fn big(x: Expr) -> Expr {
    let mut acc = x;
    for i in 0..12 {
        acc = Expr::prim2(PrimOp::Add, acc, Expr::Lit(i));
    }
    acc
}

fn build(d: &mut Dsl) -> Expr {
    let v = d.binder("v", Type::bool());
    let x = d.binder("x", Type::Int);
    // the inner case: case v of { True -> Just 1; False -> Nothing }
    let inner = Expr::ite(
        Expr::var(&v.name),
        d.just(Type::Int, Expr::Lit(1)),
        d.nothing(Type::Int),
    );
    // the outer case with BIG branches
    let outer = Expr::case(
        inner,
        vec![
            Alt::simple(AltCon::Con(Ident::new("Nothing")), big(Expr::Lit(100))),
            Alt {
                con: AltCon::Con(Ident::new("Just")),
                binders: vec![x.clone()],
                rhs: big(Expr::var(&x.name)),
            },
        ],
    );
    Expr::lam(v, outer)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut d = Dsl::new();
    let program = build(&mut d);
    lint(&program, &d.data_env)?;
    println!("--- input (case of case, BIG branches) ---\n{program}\n");

    let mut d1 = Dsl::new();
    let p1 = build(&mut d1);
    let (joined, _) =
        optimize_with_report(&p1, &d1.data_env, &mut d1.supply, &OptConfig::join_points())?;
    println!("--- join-points pipeline ---\n{joined}\n");

    let mut d2 = Dsl::new();
    let p2 = build(&mut d2);
    let (base, _) =
        optimize_with_report(&p2, &d2.data_env, &mut d2.supply, &OptConfig::baseline())?;
    println!("--- baseline pipeline ---\n{base}\n");

    println!("Note how the join-points output scrutinizes `v` directly —");
    println!("the Just/Nothing cells are gone — while any shared big branch");
    println!("is a `join`, compiled as a jump, not a closure.");
    Ok(())
}
