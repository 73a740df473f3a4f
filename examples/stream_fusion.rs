//! Sec. 5: the stream-fusion showdown.
//!
//! Runs `sum (map f (filter p [1..n]))` in all four configurations —
//! {skip-less, skip-ful} × {baseline, join points} — and prints the
//! allocation counts. The series to notice:
//!
//! * skip-less + join points: **0** allocations (the paper's headline);
//! * skip-less + baseline: grows with n (the historical problem);
//! * skip-ful: fuses either way, at the cost of more code.
//!
//! ```text
//! cargo run --example stream_fusion
//! ```

use system_fj::ast::{Dsl, Expr, PrimOp, Type};
use system_fj::core::{optimize_with_report, OptConfig};
use system_fj::eval::{run, EvalMode};
use system_fj::fusion::{enum_from_to, filter_s, int_lambda, map_s, sum_s, StepVariant};

fn pipeline(d: &mut Dsl, v: StepVariant, n: i64) -> Expr {
    let s = enum_from_to(d, v, Expr::Lit(1), Expr::Lit(n));
    let odd = int_lambda(d, |_, x| {
        Expr::prim2(
            PrimOp::Eq,
            Expr::prim2(PrimOp::Rem, Expr::var(x), Expr::Lit(2)),
            Expr::Lit(1),
        )
    });
    let s = filter_s(d, odd, s);
    let double = int_lambda(d, |_, x| {
        Expr::prim2(PrimOp::Mul, Expr::var(x), Expr::Lit(2))
    });
    let s = map_s(d, double, Type::Int, s);
    sum_s(d, s)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:<12} {:>6} {:>8} {:>10} {:>8}",
        "variant", "pipeline", "n", "value", "allocs", "steps"
    );
    for n in [50, 500] {
        for variant in [StepVariant::Skipless, StepVariant::Skip] {
            for (label, cfg) in [
                ("baseline", OptConfig::baseline()),
                ("join-points", OptConfig::join_points()),
            ] {
                let mut d = Dsl::new();
                let e = pipeline(&mut d, variant, n);
                let (opt, _) = optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg)?;
                let o = run(&opt, EvalMode::CallByValue, 50_000_000)?;
                println!(
                    "{:<10} {:<12} {:>6} {:>8} {:>10} {:>8}",
                    format!("{variant:?}"),
                    label,
                    n,
                    o.value.to_string(),
                    o.metrics.total_allocs(),
                    o.metrics.steps
                );
            }
        }
    }
    println!("\nSkip-less + join points is allocation-free at every n:");
    println!("recursive join points made Svenningsson's streams fuse.");
    Ok(())
}
