//! # fj-nofib — the NoFib-analogue benchmark suite and Table-1 harness
//!
//! Reproduces the evaluation of "Compiling without continuations"
//! (Table 1, plus the Sec. 5 fusion study and a pass ablation). Each
//! benchmark is a surface-language program named after its Table-1 row;
//! the harness compiles it twice —
//!
//! * **baseline**: GHC-before-the-paper ([`OptConfig::baseline`]): the
//!   optimizer neither creates nor exploits join points, and join points
//!   are recognized only at "code generation" (one trailing contify);
//! * **join points**: the paper's compiler ([`OptConfig::join_points`]).
//!
//! — then runs both on the abstract machine (call-by-value, as the paper
//! notes everything applies to a strict language too) and compares heap
//! allocations, the paper's own metric.
//!
//! ## Example
//!
//! ```no_run
//! let rows = fj_nofib::run_table1();
//! println!("{}", fj_nofib::format_table1(&rows));
//! ```

#![warn(missing_docs)]

mod more_real;
mod more_shootout;
mod more_spectral;
mod real;
mod shootout;
mod spectral;

pub mod candles;
pub mod fusion_exp;
pub mod vm_ops;

use fj_ast::Expr;
use fj_core::{optimize_with_report, OptConfig, PipelineReport};
use fj_eval::{run, EvalMode, Metrics, Value};
use fj_surface::compile;
use std::time::{Duration, Instant};

/// Which NoFib suite a program belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// The `spectral` suite (algorithmic kernels).
    Spectral,
    /// The `real` suite (application-shaped programs).
    Real,
    /// The `shootout` suite (hand-tuned inner loops).
    Shootout,
}

impl Suite {
    /// Display name, as in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spectral => "spectral",
            Suite::Real => "real",
            Suite::Shootout => "shootout",
        }
    }
}

/// One benchmark program.
#[derive(Clone, Copy, Debug)]
pub struct Program {
    /// Row name (matches Table 1).
    pub name: &'static str,
    /// Its suite.
    pub suite: Suite,
    /// Surface-language source.
    pub source: &'static str,
    /// Expected `main` value, when it is meaningful to pin (sanity).
    pub expected: Option<i64>,
}

/// All benchmark programs, spectral then real then shootout.
pub fn programs() -> Vec<Program> {
    let mut v = spectral::programs();
    v.extend(more_spectral::programs());
    v.extend(real::programs());
    v.extend(more_real::programs());
    v.extend(shootout::programs());
    v.extend(more_shootout::programs());
    v
}

/// Step budget for benchmark runs.
pub const FUEL: u64 = 50_000_000;

/// Instruction budget for VM-backend runs (instructions are a finer
/// unit than machine transitions, so the budget is larger).
pub const VM_FUEL: u64 = 500_000_000;

/// Compile, lint, and optimize a benchmark source under a pipeline,
/// returning the optimized term, ready for either backend, and the
/// optimizer's per-pass [`PipelineReport`] (rewrite counters, censuses,
/// wall times).
///
/// # Panics
///
/// Panics on compile, lint, or optimize errors — benchmarks are expected
/// to be well-formed; a failure is a harness bug worth a loud stop.
pub fn lower(source: &str, cfg: &OptConfig) -> (Expr, PipelineReport) {
    let mut lowered = compile(source).unwrap_or_else(|e| panic!("compile: {e}"));
    fj_check::lint(&lowered.expr, &lowered.data_env)
        .unwrap_or_else(|e| panic!("lint: {e}\n{}", lowered.expr));
    optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, cfg)
        .unwrap_or_else(|e| panic!("optimize: {e}"))
}

/// Run an optimized benchmark by value on the Fig. 3 machine, returning
/// the integer result with metrics.
///
/// # Panics
///
/// On a machine error, or if `main` does not return an `Int`.
fn run_machine(e: &Expr) -> (i64, Metrics) {
    let o = run(e, EvalMode::CallByValue, FUEL).unwrap_or_else(|err| panic!("eval: {err}\n{e}"));
    match o.value {
        Value::Int(n) => (n, o.metrics),
        other => panic!("benchmark main must return Int, got {other}"),
    }
}

/// Per-program measurement: allocations under both compilers.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row name.
    pub name: &'static str,
    /// Suite.
    pub suite: Suite,
    /// The program's result (both configurations agree; checked).
    pub value: i64,
    /// Machine metrics under the baseline pipeline.
    pub baseline: Metrics,
    /// Machine metrics under the join-points pipeline.
    pub joined: Metrics,
}

impl Row {
    /// Allocation delta in percent, negative = join points improved.
    pub fn delta_pct(&self) -> f64 {
        self.joined.alloc_delta_pct(&self.baseline)
    }
}

/// Compile a program under a pipeline, run it by value, and return the
/// integer result with metrics.
///
/// # Panics
///
/// As [`lower`], and on machine errors.
pub fn measure(source: &str, cfg: &OptConfig) -> (i64, Metrics) {
    run_machine(&lower(source, cfg).0)
}

/// Run one benchmark under both pipelines.
///
/// # Panics
///
/// As [`measure`]; also panics if the two configurations disagree on the
/// program's value, or if `expected` is pinned and missed.
pub fn run_program(p: &Program) -> Row {
    let (v_base, m_base) = measure(p.source, &OptConfig::baseline());
    let (v_join, m_join) = measure(p.source, &OptConfig::join_points());
    check_value(p, v_base, v_join);
    Row {
        name: p.name,
        suite: p.suite,
        value: v_join,
        baseline: m_base,
        joined: m_join,
    }
}

/// Both pipelines compute one value, and it is the pinned one.
fn check_value(p: &Program, v_base: i64, v_join: i64) {
    assert_eq!(
        v_base, v_join,
        "{}: baseline and join-points disagree ({v_base} vs {v_join})",
        p.name
    );
    if let Some(exp) = p.expected {
        assert_eq!(v_join, exp, "{}: expected {exp}, got {v_join}", p.name);
    }
}

/// A [`Row`] plus the optimizer activity behind it and the backend
/// timings, for `fj report`.
#[derive(Clone, Debug)]
pub struct ReportRow {
    /// The allocation comparison.
    pub row: Row,
    /// What the baseline pipeline did.
    pub baseline_report: PipelineReport,
    /// What the join-points pipeline did.
    pub joined_report: PipelineReport,
    /// Wall time of the Fig. 3 machine on the join-points output. Like
    /// the three times below, per run, from [`time_adaptive`].
    pub machine_wall: Duration,
    /// Wall time of the bytecode VM's codegen for the same term.
    pub vm_codegen: Duration,
    /// Wall time of the bytecode VM executing that code.
    pub vm_exec: Duration,
    /// Wall time of the program's native-Rust [`candles`] port.
    pub candle: Duration,
}

impl ReportRow {
    /// Machine wall time over VM execution time: how many times faster
    /// the bytecode backend ran this program.
    pub fn machine_over_vm(&self) -> f64 {
        self.machine_wall.div_duration_f64(self.vm_exec)
    }

    /// VM execution time over the native candle's: the interpreter's
    /// distance from the hardware.
    pub fn vm_over_candle(&self) -> f64 {
        self.vm_exec.div_duration_f64(self.candle)
    }
}

/// Geometric mean of positive numbers.
fn geomean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len() as f64;
    (xs.map(f64::ln).sum::<f64>() / n).exp()
}

/// Time `f` adaptively: after one untimed warm-up call, quadruple the
/// repetition count until at least 200µs have elapsed, then report
/// `(value, elapsed / reps)`. A single cold call can cost many times a
/// warm one. `black_box` keeps rustc from folding the work away.
pub fn time_adaptive<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut value = f();
    let mut reps: u32 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            value = std::hint::black_box(&mut f)();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_micros(200) || reps >= 1 << 20 {
            return (std::hint::black_box(value), elapsed / reps);
        }
        reps *= 4;
    }
}

/// Run one benchmark under both pipelines, keeping the pipeline reports,
/// then time the join-points term on the machine, the VM (codegen and
/// execution apart) and the program's native candle.
///
/// # Panics
///
/// As [`run_program`]; also panics if the VM or the candle disagrees with
/// the machine.
pub fn run_program_with_reports(p: &Program) -> ReportRow {
    let (base_term, baseline_report) = lower(p.source, &OptConfig::baseline());
    let (join_term, joined_report) = lower(p.source, &OptConfig::join_points());
    let (v_base, m_base) = run_machine(&base_term);
    let ((v_join, m_join), machine_wall) = time_adaptive(|| run_machine(&join_term));
    check_value(p, v_base, v_join);
    let (prog, vm_codegen) = time_adaptive(|| {
        fj_vm::compile(&join_term, EvalMode::CallByValue)
            .unwrap_or_else(|e| panic!("{}: vm compile: {e}", p.name))
    });
    let (vm, vm_exec) = time_adaptive(|| {
        fj_vm::run_program(&prog, VM_FUEL).unwrap_or_else(|e| panic!("{}: vm: {e}", p.name))
    });
    assert_eq!(
        vm.value,
        Value::Int(v_join),
        "{}: vm backend disagrees on the value",
        p.name
    );
    assert_eq!(
        vm.metrics.backend_counters(),
        m_join.backend_counters(),
        "{}: vm backend disagrees on allocation metrics",
        p.name
    );
    let candle_fn = candles::candle(p.name)
        .unwrap_or_else(|| panic!("{}: no native candle registered", p.name));
    let (candle_value, candle) = time_adaptive(candle_fn);
    assert_eq!(
        candle_value, v_join,
        "{}: native candle disagrees with the machine",
        p.name
    );
    ReportRow {
        row: Row {
            name: p.name,
            suite: p.suite,
            value: v_join,
            baseline: m_base,
            joined: m_join,
        },
        baseline_report,
        joined_report,
        machine_wall,
        vm_codegen,
        vm_exec,
        candle,
    }
}

/// Run the whole suite with pipeline reports (the `fj report` payload).
pub fn run_report() -> Vec<ReportRow> {
    programs().iter().map(run_program_with_reports).collect()
}

/// Render [`ReportRow`]s as the Table-1-style markdown report: machine
/// metrics under both pipelines, then the optimizer activity (rewrite
/// counters) that explains the deltas.
pub fn format_report(rows: &[ReportRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "# fj report — baseline vs join points\n").unwrap();
    writeln!(
        out,
        "Allocation counts from the abstract machine (call-by-value, the \
         paper's Table-1 metric); `Δ allocs` negative means the join-points \
         pipeline allocates less.\n"
    )
    .unwrap();
    writeln!(out, "## Machine metrics\n").unwrap();
    writeln!(
        out,
        "| program | suite | steps b/j | let b/j | arg b/j | con b/j | jumps b/j | stack b/j | Δ allocs |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        let (b, j) = (&r.row.baseline, &r.row.joined);
        writeln!(
            out,
            "| {} | {} | {}/{} | {}/{} | {}/{} | {}/{} | {}/{} | {}/{} | {:+.1}% |",
            r.row.name,
            r.row.suite.name(),
            b.steps,
            j.steps,
            b.let_allocs,
            j.let_allocs,
            b.arg_allocs,
            j.arg_allocs,
            b.con_allocs,
            j.con_allocs,
            b.jumps,
            j.jumps,
            b.max_stack,
            j.max_stack,
            r.row.delta_pct()
        )
        .unwrap();
    }
    writeln!(out, "\n## Backend wall time (join-points pipeline)\n").unwrap();
    writeln!(
        out,
        "Same term, same counters — only the execution strategy differs: \
         the Fig. 3 substitution machine vs the flat jump-threaded \
         bytecode VM (`--backend vm`), its codegen timed apart from its \
         execution, and the program's native-Rust candle, the hardware \
         ceiling. Each time is per run, after a warm-up run, over at \
         least 200 µs of repeats. Both ratios use VM execution time \
         alone.\n"
    )
    .unwrap();
    writeln!(
        out,
        "| program | machine | vm codegen | vm exec | candle | machine / vm exec | vm exec / candle |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        writeln!(
            out,
            "| {} | {:.2?} | {:.2?} | {:.2?} | {:.2?} | {:.1}× | {:.1}× |",
            r.row.name,
            r.machine_wall,
            r.vm_codegen,
            r.vm_exec,
            r.candle,
            r.machine_over_vm(),
            r.vm_over_candle()
        )
        .unwrap();
    }
    writeln!(
        out,
        "| geomean | | | | | {:.1}× | {:.1}× |",
        geomean(rows.iter().map(ReportRow::machine_over_vm)),
        geomean(rows.iter().map(ReportRow::vm_over_candle))
    )
    .unwrap();
    writeln!(out, "\n## Optimizer activity (join-points pipeline)\n").unwrap();
    writeln!(
        out,
        "| program | contified | simplify rewrites | float-in | float-out | shared ctx | total | wall |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|---|---|").unwrap();
    for r in rows {
        let t = r.joined_report.totals();
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.1?} |",
            r.row.name,
            t.contified,
            r.joined_report.rewrites_for("simplify"),
            t.floated_in,
            t.floated_out,
            t.shared_contexts,
            t.total(),
            r.joined_report.wall
        )
        .unwrap();
    }
    writeln!(out, "\n## Per-pass detail\n").unwrap();
    for r in rows {
        writeln!(out, "### {}\n", r.row.name).unwrap();
        writeln!(
            out,
            "| pass | outcome | rewrites | size | lets | joins | jumps |"
        )
        .unwrap();
        writeln!(out, "|---|---|---|---|---|---|---|").unwrap();
        for p in &r.joined_report.passes {
            writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                p.pass,
                p.outcome,
                p.rewrites,
                p.census_after.size,
                p.census_after.lets,
                p.census_after.joins,
                p.census_after.jumps
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Run the whole Table-1 experiment.
pub fn run_table1() -> Vec<Row> {
    programs().iter().map(run_program).collect()
}

/// Minimum, maximum, and geometric mean of the deltas in a suite — the
/// paper's summary lines.
#[derive(Clone, Copy, Debug)]
pub struct SuiteSummary {
    /// Best (most negative) delta.
    pub min: f64,
    /// Worst delta.
    pub max: f64,
    /// Geometric mean of (1 + delta) − 1, in percent; `None` when any
    /// program hit −100% (the paper prints "n/a" for shootout for this
    /// reason).
    pub geo_mean: Option<f64>,
}

/// Summarize one suite's rows.
pub fn summarize(rows: &[Row], suite: Suite) -> SuiteSummary {
    let deltas: Vec<f64> = rows
        .iter()
        .filter(|r| r.suite == suite)
        .map(Row::delta_pct)
        .collect();
    let min = deltas.iter().copied().fold(f64::INFINITY, f64::min);
    let max = deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let geo_mean = if deltas.iter().any(|d| *d <= -100.0) {
        None
    } else {
        Some((geomean(deltas.iter().map(|d| 1.0 + d / 100.0)) - 1.0) * 100.0)
    };
    SuiteSummary { min, max, geo_mean }
}

/// Render the rows in the paper's Table-1 layout.
pub fn format_table1(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for suite in [Suite::Spectral, Suite::Real, Suite::Shootout] {
        writeln!(out, "{}", suite.name()).unwrap();
        writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>8}",
            "Program", "base", "joins", "Allocs"
        )
        .unwrap();
        for r in rows.iter().filter(|r| r.suite == suite) {
            writeln!(
                out,
                "{:<16} {:>10} {:>10} {:>+7.1}%",
                r.name,
                r.baseline.total_allocs(),
                r.joined.total_allocs(),
                r.delta_pct()
            )
            .unwrap();
        }
        let s = summarize(rows, suite);
        writeln!(out, "{:<16} {:>21} {:>+7.1}%", "Min", "", s.min).unwrap();
        writeln!(out, "{:<16} {:>21} {:>+7.1}%", "Max", "", s.max).unwrap();
        match s.geo_mean {
            Some(g) => writeln!(out, "{:<16} {:>21} {:>+7.1}%", "Geo. Mean", "", g).unwrap(),
            None => writeln!(out, "{:<16} {:>21} {:>8}", "Geo. Mean", "", "n/a").unwrap(),
        }
        writeln!(out).unwrap();
    }
    out
}

/// One row of the ablation study (experiment A-ablate): the join-points
/// pipeline with one ingredient removed, over the whole suite.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which configuration.
    pub label: &'static str,
    /// Total allocations across all benchmarks.
    pub total_allocs: u64,
    /// Total machine steps across all benchmarks.
    pub total_steps: u64,
}

/// Run the ablation: full pipeline vs pipeline-minus-one-pass vs baseline.
pub fn run_ablation() -> Vec<AblationRow> {
    let configs: Vec<(&'static str, OptConfig)> = vec![
        ("join-points (full)", OptConfig::join_points()),
        (
            "without contify",
            OptConfig::join_points_without(fj_core::Pass::Contify),
        ),
        (
            "without float-in",
            OptConfig::join_points_without(fj_core::Pass::FloatIn),
        ),
        (
            "without simplify",
            OptConfig::join_points_without(fj_core::Pass::Simplify),
        ),
        ("baseline", OptConfig::baseline()),
        ("no optimization", OptConfig::none()),
    ];
    configs
        .into_iter()
        .map(|(label, cfg)| {
            let mut total_allocs = 0u64;
            let mut total_steps = 0u64;
            for p in programs() {
                let (_, m) = measure(p.source, &cfg);
                total_allocs += m.total_allocs();
                total_steps += m.steps;
            }
            AblationRow {
                label,
                total_allocs,
                total_steps,
            }
        })
        .collect()
}

/// Render the ablation rows.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<22} {:>12} {:>12}",
        "Configuration", "allocs", "steps"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<22} {:>12} {:>12}",
            r.label, r.total_allocs, r.total_steps
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests;
