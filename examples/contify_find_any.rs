//! Sec. 4–5: contification and the `find`/`any` fusion.
//!
//! `find` has a local recursive loop `go`; `any` is `case find … of`.
//! Contification turns `go` into a recursive **join point**, and the
//! commuting conversion (`jfloat`) then moves `any`'s case to the loop's
//! return points: the `Maybe` disappears entirely.
//!
//! ```text
//! cargo run --example contify_find_any
//! ```

use system_fj::ast::{Dsl, Expr, PrimOp, Type};
use system_fj::check::lint;
use system_fj::core::{contify_counting, optimize, OptConfig};
use system_fj::eval::{run, EvalMode};

fn build(d: &mut Dsl, n: i64) -> Expr {
    // find (> 3) [1 % 3, 2 % 3, …]  consumed by  any = case … of
    let xs: Vec<i64> = (1..=n).map(|i| i % 3).collect();
    let list = d.int_list(&xs);
    let maybe_int = d.maybe_ty(Type::Int);
    let list_int = d.list_ty(Type::Int);
    let find = d.letrec_loop(
        "go",
        vec![("xs", list_int)],
        maybe_int,
        |d2, go, ps| {
            let nil_rhs = d2.nothing(Type::Int);
            d2.case_list(Type::Int, Expr::var(&ps[0]), nil_rhs, |d3, y, ys| {
                Expr::ite(
                    Expr::prim2(PrimOp::Gt, Expr::var(y), Expr::Lit(3)),
                    d3.just(Type::Int, Expr::var(y)),
                    Expr::app(Expr::var(go), Expr::var(ys)),
                )
            })
        },
        |_, go| Expr::app(Expr::var(go), list),
    );
    d.case_maybe(Type::Int, find, Expr::Lit(0), |_, _| Expr::Lit(1))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut d = Dsl::new();
    let program = build(&mut d, 40);
    lint(&program, &d.data_env)?;
    println!("--- input: any = case find of ... ---\n{program}\n");

    // Step 1: contification alone.
    let (contified, n) = contify_counting(&program);
    println!("--- after contification ({n} binding(s) became joins) ---\n{contified}\n");

    // Step 2: the full pipeline (contify + jfloat + simplify).
    let out = optimize(
        &program,
        &d.data_env,
        &mut d.supply,
        &OptConfig::join_points(),
    )?;
    println!("--- after the full join-points pipeline ---\n{out}\n");

    let o = run(&out, EvalMode::CallByValue, 10_000_000)?;
    println!("result = {}   {}", o.value, o.metrics);
    println!("\nEvery allocation left is the input list itself; the loop");
    println!("and its Maybe results compile to jumps and plain data flow.");
    Ok(())
}
