//! A real pass, with no tap, running into its per-pass deadline: the pass
//! is cut short on the calling thread, and both recovery policies report
//! the deadline.
//!
//! This binary holds one test, so the thread count it reads from
//! `/proc/self/status` sees no other test's threads.

use fj_ast::{Dsl, Expr, PrimOp, Type};
use fj_core::{
    optimize_with_report, BudgetKind, OptConfig, OptError, PassOutcome, Recovery, RollbackReason,
};
use std::time::Duration;

/// A balanced `+` tree of `2^depth` leaves `let x = i in x + 1`: wide
/// rather than deep, so no traversal recurses far.
fn wide_term(d: &mut Dsl, depth: u32, next: &mut i64) -> Expr {
    if depth == 0 {
        *next += 1;
        let x = d.binder("x", Type::Int);
        let body = Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1));
        return Expr::let1(x, Expr::Lit(*next), body);
    }
    let left = wide_term(d, depth - 1, next);
    let right = wide_term(d, depth - 1, next);
    Expr::prim2(PrimOp::Add, left, right)
}

/// This process's thread count, where the platform reports it.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn a_large_term_hits_the_deadline_on_the_calling_thread() {
    let mut d = Dsl::new();
    let e = wide_term(&mut d, 15, &mut 0);
    assert!(e.size() >= 100_000, "term too small: {} nodes", e.size());
    let limit = Duration::from_millis(1);
    let cfg = OptConfig::join_points().with_pass_deadline(limit);
    let threads_before = threads();

    let mut supply = d.supply.clone();
    let resilient = cfg.clone().with_recovery(Recovery::RollBack);
    let (_, report) = optimize_with_report(&e, &d.data_env, &mut supply, &resilient).unwrap();
    assert!(
        matches!(
            report.passes[0].outcome,
            PassOutcome::RolledBack(RollbackReason::DeadlineExceeded { limit: l }) if l == limit
        ),
        "got {:?}",
        report.passes[0].outcome
    );
    for p in &report.passes {
        assert!(
            p.outcome.is_applied()
                || matches!(
                    p.outcome,
                    PassOutcome::RolledBack(RollbackReason::DeadlineExceeded { .. })
                ),
            "pass `{}`: {:?}",
            p.pass,
            p.outcome
        );
        assert!(
            p.wall < limit + Duration::from_millis(50),
            "pass `{}` overshot its deadline: {:?}",
            p.pass,
            p.wall
        );
    }

    let mut supply = d.supply.clone();
    match optimize_with_report(&e, &d.data_env, &mut supply, &cfg) {
        Err(OptError::Budget {
            kind: BudgetKind::Deadline,
            ..
        }) => {}
        other => panic!("strict run must blow its deadline, got {:?}", other.err()),
    }

    assert_eq!(
        threads(),
        threads_before,
        "a deadline must not leave a thread behind"
    );
}
