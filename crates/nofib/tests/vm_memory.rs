//! Running a program on the VM must not grow the process: each run's
//! cells, recursive groups included, go when the run ends. This file is
//! its own test binary, so no other test's allocations move the
//! resident-set reading.
#![cfg(target_os = "linux")]

use fj_core::OptConfig;
use fj_eval::EvalMode;
use fj_nofib::{lower, programs, VM_FUEL};

/// Resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

/// Baseline-compiled n-body keeps its loops as `letrec` closures, each a
/// cycle through its own captured environment.
#[test]
fn repeated_vm_runs_of_a_letrec_program_stay_flat() {
    let p = programs()
        .into_iter()
        .find(|p| p.name == "n-body")
        .expect("n-body is a nofib program");
    let prog = fj_vm::compile(
        &lower(p.source, &OptConfig::baseline()),
        EvalMode::CallByValue,
    )
    .expect("n-body compiles to bytecode");
    let first = fj_vm::run_program(&prog, VM_FUEL).expect("n-body runs");
    let before = vm_rss_kib();
    for _ in 0..1_000 {
        let out = fj_vm::run_program(&prog, VM_FUEL).expect("n-body runs");
        assert_eq!(out.value, first.value);
    }
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < 2 * 1024,
        "RSS grew {grown} KiB over 1 000 VM runs of baseline n-body"
    );
}
