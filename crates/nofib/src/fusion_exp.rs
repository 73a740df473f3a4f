//! Experiment **F-fusion** (paper Sec. 5): allocations of the pipeline
//! `sum (map f (filter p (enumFromTo 1 n)))` across
//! {skip-less, skip-ful} × {baseline, join points} × n.
//!
//! The series to look for:
//!
//! * skip-less + join points: **0** allocations at every n — the paper's
//!   "Svenningsson's original Skip-less approach fuses just fine";
//! * skip-less + baseline: allocations grow linearly in n — the
//!   recursive `filter` stepper blocks fusion, exactly the historical
//!   problem;
//! * skip-ful (either pipeline): fuses, at the cost of bigger library
//!   code and an extra alternative everywhere.

use fj_ast::{Dsl, Expr, PrimOp, Type};
use fj_core::{optimize_with_report, OptConfig};
use fj_eval::{run, EvalMode, Metrics, Value};
use fj_fusion::{enum_from_to, filter_s, int_lambda, map_s, sum_s, StepVariant};

/// One measurement in the fusion study.
#[derive(Clone, Debug)]
pub struct FusionPoint {
    /// Stream variant.
    pub variant: StepVariant,
    /// Pipeline label ("baseline" / "join-points").
    pub pipeline: &'static str,
    /// Stream length.
    pub n: i64,
    /// The computed sum (all points must agree per n).
    pub value: i64,
    /// Machine metrics.
    pub metrics: Metrics,
}

/// Build the standard pipeline at length `n`.
pub fn pipeline(d: &mut Dsl, v: StepVariant, n: i64) -> Expr {
    let s = enum_from_to(d, v, Expr::Lit(1), Expr::Lit(n));
    let odd = int_lambda(d, |_, x| {
        Expr::prim2(
            PrimOp::Eq,
            Expr::prim2(PrimOp::Rem, Expr::var(x), Expr::Lit(2)),
            Expr::Lit(1),
        )
    });
    let s = filter_s(d, odd, s);
    let f = int_lambda(d, |_, x| {
        Expr::prim2(
            PrimOp::Add,
            Expr::prim2(PrimOp::Mul, Expr::var(x), Expr::Lit(2)),
            Expr::Lit(1),
        )
    });
    let s = map_s(d, f, Type::Int, s);
    sum_s(d, s)
}

/// The Rust reference value for the pipeline.
pub fn reference(n: i64) -> i64 {
    (1..=n).filter(|x| x % 2 == 1).map(|x| x * 2 + 1).sum()
}

/// Run the full sweep over `ns`.
///
/// # Panics
///
/// Panics on optimizer/machine failures or if any point's value differs
/// from the Rust reference.
pub fn run_fusion_experiment(ns: &[i64]) -> Vec<FusionPoint> {
    let mut out = Vec::new();
    for &n in ns {
        for variant in [StepVariant::Skipless, StepVariant::Skip] {
            for (label, cfg) in [
                ("baseline", OptConfig::baseline()),
                ("join-points", OptConfig::join_points()),
            ] {
                let mut d = Dsl::new();
                let e = pipeline(&mut d, variant, n);
                let (opt, _) = optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg)
                    .unwrap_or_else(|err| panic!("optimize: {err}"));
                let o = run(&opt, EvalMode::CallByValue, crate::FUEL)
                    .unwrap_or_else(|err| panic!("eval: {err}"));
                let value = match o.value {
                    Value::Int(k) => k,
                    other => panic!("expected Int, got {other}"),
                };
                assert_eq!(value, reference(n), "{variant:?} {label} n={n}");
                out.push(FusionPoint {
                    variant,
                    pipeline: label,
                    n,
                    value,
                    metrics: o.metrics,
                });
            }
        }
    }
    out
}

/// Render the sweep as an aligned series table.
pub fn format_fusion(points: &[FusionPoint]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<10} {:<12} {:>8} {:>10} {:>10}",
        "variant", "pipeline", "n", "allocs", "steps"
    )
    .unwrap();
    for p in points {
        writeln!(
            out,
            "{:<10} {:<12} {:>8} {:>10} {:>10}",
            format!("{:?}", p.variant),
            p.pipeline,
            p.n,
            p.metrics.total_allocs(),
            p.metrics.steps
        )
        .unwrap();
    }
    out
}
