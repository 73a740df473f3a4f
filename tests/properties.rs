//! Property-based tests: random well-typed programs are generated from
//! fj-testkit's deterministic grammar, then we check the repository's
//! core metatheory claims on every one of them —
//!
//! * generated programs lint (the generator only builds well-typed terms);
//! * the three machine modes agree on total programs;
//! * both optimizer pipelines preserve the observable value and typing
//!   (Prop. 3, observational soundness of the equational theory);
//! * **every individual pass** of both pipelines preserves the value and
//!   lints (the per-pass differential oracle — new with fj-testkit);
//! * erasure produces a join-free, well-typed, equivalent term (Thm. 5);
//! * freshening is α-invariant.
//!
//! The suite used to be built on `proptest`; fj-testkit replaces it with
//! an in-tree SplitMix64 generator and shrinker so the whole test run
//! works with no network access. Failures are shrunk to a minimal
//! replayable grammar description.

use fj_testkit::{build_closed, differential, runner, Config};
use system_fj::ast::{alpha_eq, alpha_fingerprint, freshen};
use system_fj::check::lint;
use system_fj::core::{erase, optimize_with_report, simplify, OptConfig, SimplOpts};
use system_fj::eval::{run_int, EvalMode};

const FUEL: u64 = 5_000_000;

/// ≥ 100 generated programs per property (the repo's acceptance floor).
fn cfg() -> Config {
    Config {
        cases: 128,
        ..Config::default()
    }
}

/// The generator only produces well-typed programs.
#[test]
fn generated_programs_lint() {
    runner::check_with(cfg(), "generated programs lint", |g| {
        let (d, e) = build_closed(g);
        lint(&e, &d.data_env)
            .map(|_| ())
            .map_err(|err| format!("ill-typed generator output: {err}\n{e}"))
    });
}

/// All three evaluation orders agree on total Int programs.
#[test]
fn machine_modes_agree() {
    runner::check_with(cfg(), "machine modes agree", |g| {
        let (_d, e) = build_closed(g);
        let n = run_int(&e, EvalMode::CallByName, FUEL).map_err(|e| e.to_string())?;
        let need = run_int(&e, EvalMode::CallByNeed, FUEL).map_err(|e| e.to_string())?;
        let v = run_int(&e, EvalMode::CallByValue, FUEL).map_err(|e| e.to_string())?;
        if n != need || n != v {
            return Err(format!(
                "modes disagree: name={n} need={need} value={v}\n{e}"
            ));
        }
        Ok(())
    });
}

/// Both optimizer pipelines preserve the observable value and typing.
#[test]
fn optimizer_is_observationally_sound() {
    runner::check_with(cfg(), "optimizer is observationally sound", |g| {
        let (mut d, e) = build_closed(g);
        let reference = run_int(&e, EvalMode::CallByName, FUEL).map_err(|e| e.to_string())?;
        for cfg in [OptConfig::baseline(), OptConfig::join_points()] {
            let (out, _) =
                optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg.with_lint(true))
                    .map_err(|err| format!("optimize: {err}\n{e}"))?;
            let got = run_int(&out, EvalMode::CallByName, FUEL).map_err(|e| e.to_string())?;
            if got != reference {
                return Err(format!(
                    "value changed {reference} -> {got}\ninput:\n{e}\noutput:\n{out}"
                ));
            }
        }
        Ok(())
    });
}

/// The per-pass differential oracle: every single pass of both pipelines
/// is value-preserving and lint-clean, and the full join-points pipeline
/// never increases allocations on generated programs.
#[test]
fn every_pass_is_sound_differentially() {
    runner::check_with(cfg(), "every pass is sound differentially", |g| {
        let (d, e) = build_closed(g);
        for cfg in [OptConfig::baseline(), OptConfig::join_points()] {
            let mut supply = d.supply.clone();
            let report = differential(
                &e,
                &d.data_env,
                &mut supply,
                &cfg,
                EvalMode::CallByValue,
                FUEL,
            )
            .map_err(|err| err.to_string())?;
            if report.alloc_delta() > 0 {
                return Err(format!(
                    "pipeline added allocations ({:+}): {} -> {}\n{e}",
                    report.alloc_delta(),
                    report.initial_metrics(),
                    report.final_metrics()
                ));
            }
        }
        Ok(())
    });
}

/// Erasure: join-free, well-typed, equivalent (Theorem 5).
#[test]
fn erasure_is_sound() {
    runner::check_with(cfg(), "erasure is sound", |g| {
        let (mut d, e) = build_closed(g);
        let reference = run_int(&e, EvalMode::CallByName, FUEL).map_err(|e| e.to_string())?;
        let (joined, _) =
            optimize_with_report(&e, &d.data_env, &mut d.supply, &OptConfig::join_points())
                .map_err(|err| format!("optimize: {err}"))?;
        let erased = erase(&joined, &d.data_env, &mut d.supply)
            .map_err(|err| format!("erase: {err}\n{joined}"))?;
        if erased.has_join_or_jump() {
            return Err(format!("erased term still has joins:\n{erased}"));
        }
        lint(&erased, &d.data_env)
            .map(|_| ())
            .map_err(|err| format!("erased ill-typed: {err}\n{erased}"))?;
        let got = run_int(&erased, EvalMode::CallByName, FUEL).map_err(|e| e.to_string())?;
        if got != reference {
            return Err(format!(
                "erasure changed value {reference} -> {got}\n{erased}"
            ));
        }
        Ok(())
    });
}

/// Freshening preserves α-equivalence and the fingerprint.
#[test]
fn freshening_is_alpha_invariant() {
    runner::check_with(cfg(), "freshening is alpha-invariant", |g| {
        let (mut d, e) = build_closed(g);
        let f = freshen(&e, &mut d.supply);
        if !alpha_eq(&e, &f) {
            return Err(format!("not alpha-equal:\n{e}\n---\n{f}"));
        }
        if alpha_fingerprint(&e) != alpha_fingerprint(&f) {
            return Err("alpha fingerprints differ".into());
        }
        Ok(())
    });
}

/// The simplifier alone (one full fixpoint run) is value-preserving.
#[test]
fn simplifier_alone_is_sound() {
    runner::check_with(cfg(), "simplifier alone is sound", |g| {
        let (mut d, e) = build_closed(g);
        let reference = run_int(&e, EvalMode::CallByValue, FUEL).map_err(|e| e.to_string())?;
        let opts = SimplOpts::default();
        let out = simplify(&e, &d.data_env, &mut d.supply, &opts)
            .map_err(|err| format!("simplify: {err}\n{e}"))?;
        lint(&out, &d.data_env)
            .map(|_| ())
            .map_err(|err| format!("output ill-typed: {err}\n{out}"))?;
        let got = run_int(&out, EvalMode::CallByValue, FUEL).map_err(|e| e.to_string())?;
        if got != reference {
            return Err(format!(
                "value changed {reference} -> {got}\ninput:\n{e}\noutput:\n{out}"
            ));
        }
        Ok(())
    });
}
