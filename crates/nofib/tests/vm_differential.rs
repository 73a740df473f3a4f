//! ISSUE acceptance: the bytecode VM agrees with the Fig. 3 machine —
//! same value, same allocation metrics — on EVERY nofib program, under
//! both the baseline and the join-points pipeline, by value and by need,
//! with the superinstruction peephole on and off.

use fj_ast::Expr;
use fj_core::OptConfig;
use fj_eval::EvalMode;
use fj_nofib::{lower, programs, FUEL, VM_FUEL};
use fj_vm::{compile_with, CompileOpts, Program};

fn vm_program(e: &Expr, mode: EvalMode, fuse: bool) -> Program {
    compile_with(e, mode, CompileOpts { fuse })
        .unwrap_or_else(|err| panic!("vm compile ({mode:?}, fuse={fuse}): {err}"))
}

#[test]
fn vm_matches_machine_on_every_nofib_program() {
    let configs = [
        ("baseline", OptConfig::baseline()),
        ("join_points", OptConfig::join_points()),
    ];
    for p in programs() {
        for (label, cfg) in &configs {
            let (term, _) = lower(p.source, cfg);
            for mode in [EvalMode::CallByValue, EvalMode::CallByNeed] {
                let label = format!("{label} {mode:?}");
                let m = fj_eval::run(&term, mode, FUEL)
                    .unwrap_or_else(|e| panic!("{} [{label}]: machine: {e}", p.name));
                for fuse in [false, true] {
                    let v = fj_vm::run_program(&vm_program(&term, mode, fuse), VM_FUEL)
                        .unwrap_or_else(|e| panic!("{} [{label}] fuse={fuse}: vm: {e}", p.name));
                    assert_eq!(
                        m.value, v.value,
                        "{} [{label}] fuse={fuse}: backends disagree on the value",
                        p.name
                    );
                    assert_eq!(
                        m.metrics.backend_counters(),
                        v.metrics.backend_counters(),
                        "{} [{label}] fuse={fuse}: backends disagree on allocation metrics",
                        p.name
                    );
                }
            }
        }
    }
}

/// A divergent program must terminate with a *structured* resource error
/// on both backends — fuel exhaustion with a step budget, timeout with a
/// wall-clock deadline — never hang.
#[test]
fn backends_report_fuel_and_deadline_exhaustion_in_lockstep() {
    use std::time::Duration;

    let src = "
def main : Int =
  letrec go : Int -> Int = \\(n : Int) -> go (n + 1)
  in go 1;
";
    let lowered = fj_surface::compile(src).unwrap_or_else(|e| panic!("compile: {e}"));
    let e = &lowered.expr;

    // Small fuel: both backends must report exhaustion, not hang.
    let m = fj_eval::run(e, EvalMode::CallByValue, 10_000);
    assert!(
        matches!(m, Err(fj_eval::MachineError::OutOfFuel)),
        "machine: expected OutOfFuel, got {m:?}"
    );
    for fuse in [false, true] {
        let v = fj_vm::run_program(&vm_program(e, EvalMode::CallByValue, fuse), 10_000);
        assert!(
            matches!(v, Err(fj_vm::VmError::OutOfFuel)),
            "vm fuse={fuse}: expected OutOfFuel, got {v:?}"
        );
    }

    // Huge fuel but a tight wall-clock deadline: both must time out.
    let limit = Duration::from_millis(30);
    let m = fj_eval::run_with_limits(e, EvalMode::CallByValue, u64::MAX, Some(limit));
    assert!(
        matches!(m, Err(fj_eval::MachineError::Timeout { .. })),
        "machine: expected Timeout, got {m:?}"
    );
    for fuse in [false, true] {
        let v = fj_vm::run_program_with_limits(
            &vm_program(e, EvalMode::CallByValue, fuse),
            u64::MAX,
            Some(limit),
        );
        assert!(
            matches!(v, Err(fj_vm::VmError::Timeout { .. })),
            "vm fuse={fuse}: expected Timeout, got {v:?}"
        );
    }
}
