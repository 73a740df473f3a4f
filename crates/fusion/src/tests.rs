//! Fusion tests: combinator correctness against Rust references, and the
//! Sec. 5 claims — skip-less pipelines fuse to allocation-free loops
//! under the join-points pipeline, but not under the baseline.

use crate::{
    append_s, enum_from_to, filter_s, fold_s, int_lambda, int_lambda2, length_s, map_s, sum_s,
    take_s, zip_with_s, zip_with_skip, StepVariant, Stream,
};
use fj_ast::{Dsl, Expr, PrimOp, Type};
use fj_check::lint;
use fj_core::{optimize_with_report, OptConfig};
use fj_eval::{run, run_int, EvalMode, Metrics};

const FUEL: u64 = 10_000_000;

fn both() -> [StepVariant; 2] {
    [StepVariant::Skipless, StepVariant::Skip]
}

fn eval_checked(d: &Dsl, e: &Expr) -> i64 {
    lint(e, &d.data_env).unwrap_or_else(|err| panic!("lint: {err}\n{e}"));
    run_int(e, EvalMode::CallByName, FUEL).unwrap_or_else(|err| panic!("eval: {err}\n{e}"))
}

/// `sum [1..n]`.
#[test]
fn enum_sum() {
    for v in both() {
        let mut d = Dsl::new();
        let s = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(100));
        let e = sum_s(&mut d, s);
        assert_eq!(eval_checked(&d, &e), 5050, "{v:?}");
    }
}

/// `sum (map (*3) [1..10])`.
#[test]
fn map_sum() {
    for v in both() {
        let mut d = Dsl::new();
        let s = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(10));
        let triple = int_lambda(&mut d, |_, x| {
            Expr::prim2(PrimOp::Mul, Expr::var(x), Expr::Lit(3))
        });
        let s = map_s(&mut d, triple, Type::Int, s);
        let e = sum_s(&mut d, s);
        assert_eq!(eval_checked(&d, &e), 165, "{v:?}");
    }
}

/// `sum (filter even [1..20])`.
#[test]
fn filter_sum() {
    let expect: i64 = (1..=20).filter(|x| x % 2 == 0).sum();
    for v in both() {
        let mut d = Dsl::new();
        let s = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(20));
        let even = int_lambda(&mut d, |_, x| {
            Expr::prim2(
                PrimOp::Eq,
                Expr::prim2(PrimOp::Rem, Expr::var(x), Expr::Lit(2)),
                Expr::Lit(0),
            )
        });
        let s = filter_s(&mut d, even, s);
        let e = sum_s(&mut d, s);
        assert_eq!(eval_checked(&d, &e), expect, "{v:?}");
    }
}

/// `length (take 7 [5..100])`.
#[test]
fn take_length() {
    for v in both() {
        let mut d = Dsl::new();
        let s = enum_from_to(&mut d, v, Expr::Lit(5), Expr::Lit(100));
        let s = take_s(&mut d, Expr::Lit(7), s);
        let e = length_s(&mut d, s);
        assert_eq!(eval_checked(&d, &e), 7, "{v:?}");
    }
}

/// `take` larger than the stream.
#[test]
fn take_overlong() {
    for v in both() {
        let mut d = Dsl::new();
        let s = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(3));
        let s = take_s(&mut d, Expr::Lit(100), s);
        let e = sum_s(&mut d, s);
        assert_eq!(eval_checked(&d, &e), 6, "{v:?}");
    }
}

/// `sum ([1..3] ++ [10..12])`.
#[test]
fn append_sum() {
    for v in both() {
        let mut d = Dsl::new();
        let s1 = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(3));
        let s2 = enum_from_to(&mut d, v, Expr::Lit(10), Expr::Lit(12));
        let s = append_s(&mut d, s1, s2);
        let e = sum_s(&mut d, s);
        assert_eq!(eval_checked(&d, &e), 6 + 33, "{v:?}");
    }
}

/// Appending an empty first stream.
#[test]
fn append_empty_first() {
    for v in both() {
        let mut d = Dsl::new();
        let s1 = enum_from_to(&mut d, v, Expr::Lit(5), Expr::Lit(4)); // empty
        let s2 = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(2));
        let s = append_s(&mut d, s1, s2);
        let e = sum_s(&mut d, s);
        assert_eq!(eval_checked(&d, &e), 3, "{v:?}");
    }
}

/// `sum (zipWith (*) [1..5] [10..14])` — skip-less zip.
#[test]
fn zip_skipless() {
    let expect: i64 = (1..=5).zip(10..=14).map(|(a, b)| a * b).sum();
    let mut d = Dsl::new();
    let s1 = enum_from_to(&mut d, StepVariant::Skipless, Expr::Lit(1), Expr::Lit(5));
    let s2 = enum_from_to(&mut d, StepVariant::Skipless, Expr::Lit(10), Expr::Lit(14));
    let mul = int_lambda2(&mut d, |_, a, b| {
        Expr::prim2(PrimOp::Mul, Expr::var(a), Expr::var(b))
    });
    let s = zip_with_s(&mut d, mul, Type::Int, s1, s2);
    let e = sum_s(&mut d, s);
    assert_eq!(eval_checked(&d, &e), expect);
}

/// The same zip with skip-ful streams (and a filter in one leg, which is
/// where SSkip actually shows up in the zip).
#[test]
fn zip_skipful_with_filter() {
    let expect: i64 = (1..=10)
        .filter(|x| x % 2 == 0)
        .zip(10..=14)
        .map(|(a, b)| a * b)
        .sum();
    let mut d = Dsl::new();
    let s1 = enum_from_to(&mut d, StepVariant::Skip, Expr::Lit(1), Expr::Lit(10));
    let even = int_lambda(&mut d, |_, x| {
        Expr::prim2(
            PrimOp::Eq,
            Expr::prim2(PrimOp::Rem, Expr::var(x), Expr::Lit(2)),
            Expr::Lit(0),
        )
    });
    let s1 = filter_s(&mut d, even, s1);
    let s2 = enum_from_to(&mut d, StepVariant::Skip, Expr::Lit(10), Expr::Lit(14));
    let mul = int_lambda2(&mut d, |_, a, b| {
        Expr::prim2(PrimOp::Mul, Expr::var(a), Expr::var(b))
    });
    let s = zip_with_skip(&mut d, mul, Type::Int, s1, s2);
    let e = sum_s(&mut d, s);
    assert_eq!(eval_checked(&d, &e), expect);
}

/// A general fold: product.
#[test]
fn fold_product() {
    let mut d = Dsl::new();
    let s = enum_from_to(&mut d, StepVariant::Skipless, Expr::Lit(1), Expr::Lit(6));
    let mul = int_lambda2(&mut d, |_, a, b| {
        Expr::prim2(PrimOp::Mul, Expr::var(a), Expr::var(b))
    });
    let e = fold_s(&mut d, mul, Expr::Lit(1), Type::Int, s);
    assert_eq!(eval_checked(&d, &e), 720);
}

// ---------------------------------------------------------------------
// The Sec. 5 evaluation claims.
// ---------------------------------------------------------------------

/// Build `sum (map (λx. x*2+1) (filter odd [1..n]))` in a given variant.
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

fn pipeline_reference(n: i64) -> i64 {
    (1..=n).filter(|x| x % 2 == 1).map(|x| x * 2 + 1).sum()
}

fn optimized_metrics(v: StepVariant, cfg: &OptConfig, n: i64) -> (i64, Metrics, Expr) {
    let mut d = Dsl::new();
    let e = pipeline(&mut d, v, n);
    lint(&e, &d.data_env).unwrap_or_else(|err| panic!("lint input: {err}"));
    let (out, _) =
        optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg.clone().with_lint(true))
            .unwrap_or_else(|err| panic!("optimize: {err}"));
    let o =
        run(&out, EvalMode::CallByValue, FUEL).unwrap_or_else(|err| panic!("eval: {err}\n{out}"));
    match o.value {
        fj_eval::Value::Int(k) => (k, o.metrics, out),
        other => panic!("expected Int, got {other}"),
    }
}

/// **The headline**: skip-less + join points fuses completely — zero
/// allocations, independent of n.
#[test]
fn skipless_with_joins_fuses_completely() {
    for n in [10, 100] {
        let (val, m, out) = optimized_metrics(StepVariant::Skipless, &OptConfig::join_points(), n);
        assert_eq!(val, pipeline_reference(n));
        assert_eq!(
            m.total_allocs(),
            0,
            "skip-less + join points must be allocation-free at n={n}: {m}\n{out}"
        );
    }
}

/// Skip-less + baseline does NOT fuse: the recursive stepper survives and
/// allocations grow with n.
#[test]
fn skipless_baseline_fails_to_fuse() {
    let (val_small, m_small, _) =
        optimized_metrics(StepVariant::Skipless, &OptConfig::baseline(), 10);
    let (val_big, m_big, _) = optimized_metrics(StepVariant::Skipless, &OptConfig::baseline(), 100);
    assert_eq!(val_small, pipeline_reference(10));
    assert_eq!(val_big, pipeline_reference(100));
    assert!(
        m_big.total_allocs() > m_small.total_allocs(),
        "baseline allocations must grow with n: {} vs {}",
        m_small,
        m_big
    );
    assert!(
        m_big.total_allocs() >= 90,
        "per-element allocation expected: {m_big}"
    );
}

/// Sec. 5's "straight win": with join points, skip-less matches skip-ful
/// on allocations (both zero) and on steps (within noise), while the
/// residual program is *smaller* — "simpler code, less of it".
#[test]
fn skipless_joins_matches_skipful_with_less_code() {
    let n = 100;
    let (val_nl, m_nl, out_nl) =
        optimized_metrics(StepVariant::Skipless, &OptConfig::join_points(), n);
    let (val_sk, m_sk, out_sk) = optimized_metrics(StepVariant::Skip, &OptConfig::join_points(), n);
    assert_eq!(val_nl, val_sk);
    assert_eq!(m_nl.total_allocs(), 0);
    assert_eq!(m_sk.total_allocs(), 0);
    let ratio = m_nl.steps as f64 / m_sk.steps as f64;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "step counts should be comparable: {} vs {}",
        m_nl.steps,
        m_sk.steps
    );
    // Residual loops are near-identical once fused.
    let size_ratio = out_nl.size() as f64 / out_sk.size() as f64;
    assert!(
        (0.7..=1.3).contains(&size_ratio),
        "residual code comparable: {} vs {}",
        out_nl.size(),
        out_sk.size()
    );
    // "Less code" is a *source* claim: the skip-less library pipeline is
    // smaller before optimization (two alternatives everywhere, not three).
    let mut d1 = Dsl::new();
    let src_nl = pipeline(&mut d1, StepVariant::Skipless, n).size();
    let mut d2 = Dsl::new();
    let src_sk = pipeline(&mut d2, StepVariant::Skip, n).size();
    assert!(
        src_nl < src_sk,
        "skip-less library code must be smaller: {src_nl} vs {src_sk}"
    );
}

/// Regression: zip pipelines under the baseline config used to die in
/// the post-pass lint (`NotADatatype(Int)`). The simplifier's shared
/// big-alternative function absorbed the dupable context *and* left the
/// context on the residual case, so consuming the case applied it twice
/// around an ordinary (non-aborting) call. Only a jump may absorb it.
#[test]
fn zip_pipeline_survives_baseline_sharing() {
    let n = 40i64;
    let expect: i64 = (1..=n)
        .zip((1..=n).map(|x| x * 3))
        .map(|(a, b)| a + b)
        .sum();
    for v in both() {
        for cfg in [OptConfig::join_points(), OptConfig::baseline()] {
            let mut d = Dsl::new();
            let s1 = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(n));
            let triple = int_lambda(&mut d, |_, x| {
                Expr::prim2(PrimOp::Mul, Expr::var(x), Expr::Lit(3))
            });
            let s2 = enum_from_to(&mut d, v, Expr::Lit(1), Expr::Lit(n));
            let s2 = map_s(&mut d, triple, Type::Int, s2);
            let add = int_lambda2(&mut d, |_, a, b| {
                Expr::prim2(PrimOp::Add, Expr::var(a), Expr::var(b))
            });
            let z = match v {
                StepVariant::Skipless => zip_with_s(&mut d, add, Type::Int, s1, s2),
                StepVariant::Skip => zip_with_skip(&mut d, add, Type::Int, s1, s2),
            };
            let e = sum_s(&mut d, z);
            let (out, _) =
                optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg.with_lint(true))
                    .unwrap_or_else(|err| panic!("{v:?} optimize: {err}"));
            assert_eq!(
                run_int(&out, EvalMode::CallByValue, FUEL).unwrap(),
                expect,
                "{v:?}"
            );
        }
    }
}

/// Optimized pipelines stay observationally correct across all modes.
#[test]
fn optimized_pipelines_preserve_semantics() {
    for v in both() {
        for cfg in [OptConfig::join_points(), OptConfig::baseline()] {
            let mut d = Dsl::new();
            let e = pipeline(&mut d, v, 30);
            let (out, _) =
                optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg.with_lint(true))
                    .unwrap_or_else(|err| panic!("optimize: {err}"));
            for mode in [
                EvalMode::CallByName,
                EvalMode::CallByNeed,
                EvalMode::CallByValue,
            ] {
                assert_eq!(
                    run_int(&out, mode, FUEL).unwrap(),
                    pipeline_reference(30),
                    "{v:?} {mode:?}"
                );
            }
        }
    }
}

/// Stream type plumbing.
#[test]
fn step_ty_shapes() {
    let mut d = Dsl::new();
    let s: Stream = enum_from_to(&mut d, StepVariant::Skipless, Expr::Lit(1), Expr::Lit(5));
    assert_eq!(s.step_ty().to_string(), "Step Int Int");
    let s2 = enum_from_to(&mut d, StepVariant::Skip, Expr::Lit(1), Expr::Lit(5));
    assert_eq!(s2.step_ty().to_string(), "SStep Int Int");
}
