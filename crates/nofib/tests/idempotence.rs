//! Optimizing an already-optimized term must be a no-op: both pipelines
//! drive their rewrites to a fixpoint, so a second full run over the
//! output may not change it (up to α-renaming — the second run draws
//! fresh names from a later supply).
//!
//! This is the behavioural contract behind the pipeline's no-change
//! witness: a pass that reports `changed == false` is skipped on
//! re-execution, and this suite checks that the fixpoint skipping relies
//! on actually holds on real programs. (It is also what rules out
//! pass-level ping-pong — Float In once swapped independent adjacent
//! bindings on every run, which this test would catch.)

use fj_ast::alpha_eq;
use fj_core::{optimize_with_report, OptConfig};
use fj_nofib::programs;
use fj_surface::compile;

#[test]
fn optimizing_twice_equals_optimizing_once() {
    let configs = [
        ("baseline", OptConfig::baseline()),
        ("join_points", OptConfig::join_points()),
    ];
    for p in programs() {
        let lowered = compile(p.source).unwrap_or_else(|e| panic!("{}: compile: {e}", p.name));
        for (label, cfg) in &configs {
            let mut supply = lowered.supply.clone();
            let (once, _) =
                optimize_with_report(&lowered.expr, &lowered.data_env, &mut supply, cfg)
                    .unwrap_or_else(|e| panic!("{} [{label}]: optimize #1: {e}", p.name));
            let (twice, report) = optimize_with_report(&once, &lowered.data_env, &mut supply, cfg)
                .unwrap_or_else(|e| panic!("{} [{label}]: optimize #2: {e}", p.name));
            assert!(
                alpha_eq(&once, &twice),
                "{} [{label}]: second optimization changed the term\nonce:\n{once}\ntwice:\n{twice}",
                p.name
            );
            assert!(report.all_applied(), "{} [{label}]", p.name);
            // The simplifier must be quiescent on the re-run. (Float
            // counters are not asserted to zero: re-deriving the same
            // sink placements counts as firings without changing the
            // term.)
            assert_eq!(
                report.rewrites_for("simplify"),
                0,
                "{} [{label}]: simplifier not at fixpoint on re-run",
                p.name
            );
        }
    }
}
