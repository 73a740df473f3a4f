//! Opcode-dispatch profiling over the nofib suite (`fj report --vm-ops`).
//!
//! Runs every benchmark on the VM twice — once compiled without fused
//! superinstructions, once with — collecting an [`OpProfile`] for each.
//! The unfused histogram (top opcodes, adjacent pairs, adjacent
//! triples) is the evidence that picked the fused superinstruction set;
//! the fused histogram shows what the peephole bought: total dispatches
//! drop by the share the fused words absorb.

use crate::{lower, programs, VM_FUEL};
use fj_core::OptConfig;
use fj_eval::EvalMode;
use fj_vm::{compile_with, run_program_profiled, CompileOpts, OpProfile};

/// Suite-wide dispatch histograms, unfused and fused.
pub struct VmOpReport {
    /// Aggregate profile of the unfused instruction streams.
    pub unfused: OpProfile,
    /// Aggregate profile of the fused instruction streams.
    pub fused: OpProfile,
}

impl VmOpReport {
    /// Fraction of dispatches the fusion pass eliminated, in percent.
    #[must_use]
    pub fn dispatch_reduction_pct(&self) -> f64 {
        if self.unfused.dispatches == 0 {
            return 0.0;
        }
        (1.0 - self.fused.dispatches as f64 / self.unfused.dispatches as f64) * 100.0
    }
}

/// Profile the whole nofib suite on the VM, unfused and fused.
///
/// # Panics
///
/// As [`crate::measure`] — a benchmark failing to compile or run is a
/// harness bug worth a loud stop.
pub fn run_vm_op_report() -> VmOpReport {
    let cfg = OptConfig::join_points();
    let mut unfused = OpProfile::default();
    let mut fused = OpProfile::default();
    for p in programs() {
        let (e, _) = lower(p.source, &cfg);
        for (fuse, acc) in [(false, &mut unfused), (true, &mut fused)] {
            let prog = compile_with(&e, EvalMode::CallByValue, CompileOpts { fuse })
                .unwrap_or_else(|err| panic!("{}: vm compile: {err}", p.name));
            let (_, profile) = run_program_profiled(&prog, VM_FUEL)
                .unwrap_or_else(|err| panic!("{}: vm: {err}", p.name));
            acc.merge(&profile);
        }
    }
    VmOpReport { unfused, fused }
}

/// Render the op report as markdown (the `fj report --vm-ops` payload).
#[must_use]
pub fn format_vm_op_report(r: &VmOpReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "# fj report --vm-ops — VM dispatch histogram\n").unwrap();
    writeln!(
        out,
        "Aggregated over the whole nofib suite (join-points pipeline, \
         call-by-value). The unfused stream is the oracle the fused \
         superinstruction set was chosen from; the fused stream shows \
         the dispatches the peephole removed.\n"
    )
    .unwrap();

    let share = |count: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            count as f64 / total as f64 * 100.0
        }
    };

    writeln!(
        out,
        "## Unfused stream ({} dispatches)\n",
        r.unfused.dispatches
    )
    .unwrap();
    writeln!(out, "| op | count | share |").unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    for (name, count) in r.unfused.top_ops(12) {
        writeln!(
            out,
            "| {name} | {count} | {:.1}% |",
            share(count, r.unfused.dispatches)
        )
        .unwrap();
    }
    writeln!(out, "\n### Hot adjacent pairs\n").unwrap();
    writeln!(out, "| pair | count | share |").unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    for (a, b, count) in r.unfused.top_pairs(12) {
        writeln!(
            out,
            "| {a} → {b} | {count} | {:.1}% |",
            share(count, r.unfused.dispatches)
        )
        .unwrap();
    }
    writeln!(out, "\n### Hot adjacent triples\n").unwrap();
    writeln!(out, "| triple | count | share |").unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    for (a, b, c, count) in r.unfused.top_triples(12) {
        writeln!(
            out,
            "| {a} → {b} → {c} | {count} | {:.1}% |",
            share(count, r.unfused.dispatches)
        )
        .unwrap();
    }

    writeln!(
        out,
        "\n## Fused stream ({} dispatches, −{:.1}%)\n",
        r.fused.dispatches,
        r.dispatch_reduction_pct()
    )
    .unwrap();
    writeln!(out, "| op | count | share |").unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    for (name, count) in r.fused.top_ops(16) {
        writeln!(
            out,
            "| {name} | {count} | {:.1}% |",
            share(count, r.fused.dispatches)
        )
        .unwrap();
    }
    out
}
