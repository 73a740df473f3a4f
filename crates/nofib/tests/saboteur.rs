//! The fault-injection matrix over the whole benchmark suite: every
//! saboteur mode is aimed at every nofib program (rotating the targeted
//! pass through the pipeline), and for each cell the resilient driver
//! must catch the fault, roll the pass back, and still hand both
//! backends a program that computes the unoptimized program's value.
//! A second test pins how rolled-back passes render in the `fj report`
//! markdown, so rollback reasons survive the trip into the report.

use fj_ast::alpha_eq;
use fj_core::{optimize_with_report, OptConfig, PassOutcome, Recovery, RollbackReason};
use fj_eval::{EvalMode, Metrics};
use fj_nofib::{format_report, programs, ReportRow, Row, Suite, FUEL, VM_FUEL};
use fj_surface::compile;
use fj_testkit::{saboteur, Sabotage};
use std::time::Duration;

/// Run one sabotage mode against every benchmark, targeting pass
/// `i % passes.len()` for the `i`-th program so the matrix sweeps the
/// whole pipeline.
fn matrix(mode: Sabotage) {
    let mut fired_total = 0u64;
    for (i, p) in programs().iter().enumerate() {
        let mut lowered = compile(p.source).unwrap_or_else(|e| panic!("{}: compile: {e}", p.name));
        let reference = fj_eval::run(&lowered.expr, EvalMode::CallByValue, FUEL)
            .unwrap_or_else(|e| panic!("{}: unoptimized run: {e}", p.name))
            .value;
        let target = i % OptConfig::join_points().passes.len();
        let (tap, handle) = saboteur(mode, target, 0xF00D + i as u64);
        let mut cfg = OptConfig::join_points()
            .with_tap(tap)
            .with_recovery(Recovery::RollBack);
        if mode == Sabotage::InjectSpin {
            cfg = cfg.with_pass_deadline(Duration::from_millis(40));
        }
        let (out, report) =
            optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, &cfg)
                .unwrap_or_else(|e| panic!("{}: resilient pipeline failed: {e}", p.name));
        let fired = handle.fired();
        fired_total += fired;
        let rolled: Vec<_> = report.rolled_back().collect();
        assert_eq!(
            rolled.len() as u64,
            fired,
            "{} [{}]: {fired} faults fired but {} passes rolled back",
            p.name,
            mode.name(),
            rolled.len()
        );
        if fired > 0 {
            assert_eq!(
                rolled[0].pass,
                cfg.passes[target].name(),
                "{} [{}]: wrong pass rolled back",
                p.name,
                mode.name()
            );
        }
        let machine = fj_eval::run(&out, EvalMode::CallByValue, FUEL)
            .unwrap_or_else(|e| panic!("{} [{}]: machine: {e}", p.name, mode.name()))
            .value;
        let vm = fj_vm::run(&out, EvalMode::CallByValue, VM_FUEL)
            .unwrap_or_else(|e| panic!("{} [{}]: vm: {e}", p.name, mode.name()))
            .value;
        assert_eq!(
            machine,
            reference,
            "{} [{}]: machine value changed",
            p.name,
            mode.name()
        );
        assert_eq!(
            vm,
            reference,
            "{} [{}]: vm value changed",
            p.name,
            mode.name()
        );
    }
    assert!(
        fired_total > 0,
        "mode {} never fired on any benchmark — the matrix is vacuous",
        mode.name()
    );
}

#[test]
fn swap_case_alts_over_the_suite() {
    matrix(Sabotage::SwapCaseAlts);
}

#[test]
fn drop_jump_arg_over_the_suite() {
    matrix(Sabotage::DropJumpArg);
}

#[test]
fn rename_bound_var_over_the_suite() {
    matrix(Sabotage::RenameBoundVar);
}

#[test]
fn lie_type_annotation_over_the_suite() {
    matrix(Sabotage::LieTypeAnnotation);
}

#[test]
fn inject_panic_over_the_suite() {
    matrix(Sabotage::InjectPanic);
}

#[test]
fn inject_spin_over_the_suite() {
    matrix(Sabotage::InjectSpin);
}

/// With no saboteur installed, the resilient driver is the strict driver:
/// same output term, same rewrite counters, nothing rolled back.
#[test]
fn resilient_is_strict_on_the_suite_when_nothing_fails() {
    for p in programs() {
        let lowered = compile(p.source).unwrap_or_else(|e| panic!("{}: compile: {e}", p.name));
        let cfg = OptConfig::join_points();
        let mut s1 = lowered.supply.clone();
        let mut s2 = lowered.supply.clone();
        let resilient = cfg.clone().with_recovery(Recovery::RollBack);
        let (strict_out, strict_rep) =
            optimize_with_report(&lowered.expr, &lowered.data_env, &mut s1, &cfg)
                .unwrap_or_else(|e| panic!("{}: strict: {e}", p.name));
        let (res_out, res_rep) =
            optimize_with_report(&lowered.expr, &lowered.data_env, &mut s2, &resilient)
                .unwrap_or_else(|e| panic!("{}: resilient: {e}", p.name));
        assert!(res_rep.all_applied(), "{}: spurious rollback", p.name);
        assert!(
            alpha_eq(&strict_out, &res_out),
            "{}: strict and resilient outputs differ",
            p.name
        );
        assert_eq!(
            strict_rep.totals().total(),
            res_rep.totals().total(),
            "{}: rewrite counters differ",
            p.name
        );
    }
}

/// Rollback reasons round-trip into the `fj report` markdown: a report
/// whose pass was rolled back renders an outcome cell carrying the
/// human-readable reason.
#[test]
fn rolled_back_outcome_round_trips_through_report_markdown() {
    let mut lowered = compile(programs()[0].source).unwrap();
    let (tap, handle) = saboteur(Sabotage::InjectPanic, 0, 7);
    let cfg = OptConfig::join_points()
        .with_tap(tap)
        .with_recovery(Recovery::RollBack);
    let (_, report) =
        optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, &cfg).unwrap();
    assert_eq!(handle.fired(), 1);
    let reason_text = report
        .rolled_back()
        .next()
        .map(|p| match &p.outcome {
            PassOutcome::RolledBack(r) => r.to_string(),
            PassOutcome::Applied => unreachable!(),
        })
        .expect("one pass must be rolled back");
    assert!(matches!(
        report.rolled_back().next().unwrap().outcome,
        PassOutcome::RolledBack(RollbackReason::Panic(_))
    ));
    let row = ReportRow {
        row: Row {
            name: "synthetic",
            suite: Suite::Spectral,
            value: 0,
            baseline: Metrics::default(),
            joined: Metrics::default(),
        },
        baseline_report: report.clone(),
        joined_report: report,
        machine_wall: Duration::ZERO,
        vm_codegen: Duration::ZERO,
        vm_exec: Duration::ZERO,
        candle: Duration::ZERO,
    };
    let md = format_report(&[row]);
    assert!(
        md.contains("rolled back:"),
        "markdown lost the rollback outcome:\n{md}"
    );
    assert!(
        md.contains(&reason_text),
        "markdown lost the rollback reason `{reason_text}`:\n{md}"
    );
}
